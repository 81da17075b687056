"""Catalog defaults, overrides and validation."""

import pytest

from sfcsim.catalog import (
    Catalog,
    CatalogError,
    SfcType,
    VnfType,
    default_catalog,
    load_catalog,
)


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

    def test_defaults_survive_validation(self):
        default_catalog().validate()

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

    def test_unknown_vnf_in_chain_rejected(self):
        with pytest.raises(CatalogError, match="unknown VNF type"):
            load_catalog({"sfcs": {"CG": {"chain": ["NAT", "DPI"]}}})

    def test_non_positive_attribute_rejected(self):
        with pytest.raises(CatalogError):
            load_catalog({"vnfs": {"NAT": {"ram_gb": 0}}})
        with pytest.raises(CatalogError):
            load_catalog({"sfcs": {"CG": {"e2e_ms": -1}}})

    def test_demand_below_ledger_unit_rejected(self):
        # the datacenter ledger counts in 0.001 units; less would cost nothing
        with pytest.raises(CatalogError):
            load_catalog({"vnfs": {"NAT": {"storage_gb": 0.0004}}})
        with pytest.raises(CatalogError):
            load_catalog({"vnfs": {"NAT": {"vcpu": 0.001, "ram_gb": 0.4}}})

    def test_unknown_type_rejected(self):
        with pytest.raises(CatalogError):
            load_catalog({"vnfs": {"DPI": {"vcpu": 1}}})
        with pytest.raises(CatalogError):
            load_catalog({"sfcs": {"Gaming": {"e2e_ms": 10}}})

    def test_bad_bundle_rejected(self):
        with pytest.raises(CatalogError):
            load_catalog({"sfcs": {"CG": {"bundle": [0, 5]}}})
        with pytest.raises(CatalogError):
            load_catalog({"sfcs": {"CG": {"bundle": [6, 5]}}})

    def test_override_compute_follows_product_rule(self):
        cat = load_catalog({"vnfs": {"NAT": {"vcpu": 2, "ram_gb": 3}}})
        assert cat.vnfs["NAT"].compute_demand == 6


class TestTypeInvariants:
    def test_empty_chain_rejected(self):
        vnfs = default_catalog().vnfs
        with pytest.raises(CatalogError):
            SfcType("CG", (), 4.0, 80.0, (1, 2)).validate(vnfs)

    def test_vnf_positive_fields(self):
        with pytest.raises(CatalogError):
            VnfType("FW", 9, 5, -1, 3).validate()

    def test_bandwidth_range_ordering(self):
        vnfs = default_catalog().vnfs
        with pytest.raises(CatalogError):
            SfcType("MIoT", ("NAT",), (50.0, 1.0), 5.0, (1, 2)).validate(vnfs)

    def test_catalog_is_immutable(self):
        cat = default_catalog()
        with pytest.raises(Exception):
            cat.vnfs["NAT"].vcpu = 2
