"""Catalog defaults and overrides. The checks of a catalog section are the
config's, run at load: tests/test_cli.py has their table of errors."""

import dataclasses
import json

import pytest

import sfcsim.config
from sfcsim.catalog import default_catalog, load_catalog
from sfcsim.config import BUILTIN_SCENARIOS, ScenarioConfig, load_config


class TestDefaults:
    def test_six_by_six(self):
        cat = default_catalog()
        assert len(cat.vnfs) == 6
        assert len(cat.sfcs) == 6

    def test_cloud_gaming_characteristics(self):
        cg = default_catalog().sfcs["CG"]
        assert cg.chain == ("NAT", "FW", "VOC", "WO", "IDPS")
        assert cg.bandwidth == 4.0
        assert cg.e2e_ms == 80.0
        assert cg.bundle == (40, 55)

    def test_miot_ranged_bandwidth(self):
        miot = default_catalog().sfcs["MIoT"]
        assert miot.chain == ("NAT", "FW", "IDPS")
        assert miot.bandwidth_range == (1.0, 50.0)
        assert miot.e2e_ms == 5.0
        assert miot.bundle == (10, 15)

    def test_voip_chain_repeats_nat_and_fw(self):
        voip = default_catalog().sfcs["VoIP"]
        assert len(voip.chain) == 5
        assert voip.chain == ("NAT", "FW", "TM", "FW", "NAT")
        assert voip.chain.count("NAT") == 2

    def test_vnf_attribute_set(self):
        nat = default_catalog().vnfs["NAT"]
        assert (nat.vcpu, nat.ram_gb, nat.storage_gb, nat.proc_time) == (1, 4, 7, 6)

    def test_compute_demand_is_vcpu_times_ram(self):
        for vnf in default_catalog().vnfs.values():
            assert vnf.compute_demand == vnf.vcpu * vnf.ram_gb

    def test_restated_defaults_are_valid(self):
        # every field of every type, through JSON as a scenario file gives it
        cat = default_catalog()
        restated = json.loads(json.dumps({
            section: {name: {k: v for k, v in dataclasses.asdict(typ).items() if k != "name"}
                      for name, typ in getattr(cat, section).items()}
            for section in ("vnfs", "sfcs")}))
        assert restated["sfcs"]["MIoT"]["bandwidth"] == [1.0, 50.0]
        assert ScenarioConfig({"catalog": restated}).build_catalog() == cat

    def test_deadline_steps(self):
        cat = default_catalog()
        assert cat.sfcs["MIoT"].deadline_steps == 500
        assert cat.sfcs["CG"].deadline_steps == 8000


class TestLoadCatalog:
    def test_empty_config_is_default(self):
        assert load_catalog(None) == default_catalog()
        assert load_catalog({}) == default_catalog()

    def test_single_field_override(self):
        cat = load_catalog({"sfcs": {"CG": {"e2e_ms": 40}}})
        assert cat.sfcs["CG"].e2e_ms == 40
        assert cat.sfcs["CG"].chain == default_catalog().sfcs["CG"].chain
        assert cat.sfcs["VS"].e2e_ms == default_catalog().sfcs["VS"].e2e_ms

    def test_override_values_take_the_default_forms(self):
        # ints and lists read as the floats and tuples of the defaults
        cat = load_catalog({"sfcs": {
            "MIoT": {"chain": ["NAT", "FW", "IDPS"], "bandwidth": [1, 50], "e2e_ms": 5,
                     "bundle": [10, 15]},
            "CG": {"bandwidth": 4}}})
        assert cat == default_catalog()
        assert type(cat.sfcs["MIoT"].e2e_ms) is float
        assert [type(bw) for bw in cat.sfcs["MIoT"].bandwidth] == [float, float]
        assert type(cat.sfcs["CG"].bandwidth) is float

    def test_null_section_or_entry_overrides_nothing(self):
        cfg = ScenarioConfig({"catalog": {"vnfs": None, "sfcs": {"CG": None}}})
        assert cfg.build_catalog() == default_catalog()

    def test_override_compute_follows_product_rule(self):
        cat = load_catalog({"vnfs": {"NAT": {"vcpu": 2, "ram_gb": 3}}})
        assert cat.vnfs["NAT"].compute_demand == 6

    def test_no_catalog_section_costs_nothing_at_load(self, monkeypatch):
        def fail(catalog):
            raise AssertionError("catalog checked")

        monkeypatch.setattr(sfcsim.config, "_check_catalog", fail)
        for name in BUILTIN_SCENARIOS:
            load_config(name)
        with pytest.raises(AssertionError, match="catalog checked"):
            load_config("tiny", overrides={"catalog": {"vnfs": {"NAT": {"vcpu": 2}}}})


class TestTypeInvariants:
    def test_catalog_is_immutable(self):
        cat = default_catalog()
        with pytest.raises(Exception):
            cat.vnfs["NAT"].vcpu = 2


class TestSharing:
    @pytest.mark.parametrize("build", [default_catalog, lambda: load_catalog({}),
                                       lambda: load_catalog(None)],
                             ids=["default", "load-empty", "load-none"])
    def test_each_catalog_has_dicts_of_its_own_over_the_frozen_defaults(self, build):
        a, b = build(), build()
        assert a.vnfs is not b.vnfs and a.sfcs is not b.sfcs
        expected = {section: dict(getattr(b, section)) for section in ("vnfs", "sfcs")}
        a.vnfs["NAT"] = dataclasses.replace(a.vnfs["NAT"], vcpu=2)
        a.sfcs["CG"] = dataclasses.replace(a.sfcs["CG"], e2e_ms=40.0)
        del a.sfcs["VS"]
        for cat in (b, build()):
            assert cat.vnfs == expected["vnfs"] and cat.sfcs == expected["sfcs"]
            assert cat.vnfs["NAT"].vcpu == 1 and cat.sfcs["CG"].e2e_ms == 80.0
        # the entries are one set of frozen types, shared by every catalog
        for section, types in expected.items():
            for name, typ in types.items():
                assert getattr(build(), section)[name] is typ
                with pytest.raises(dataclasses.FrozenInstanceError):
                    typ.name = "other"
