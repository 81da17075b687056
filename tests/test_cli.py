"""Command line behaviour: runs, overrides, determinism, exit codes."""

import copy
import hashlib
import json
import os
import re

import numpy as np
import pytest
import yaml

import sfcsim.cli
import sfcsim.config
from sfcsim.cli import EXIT_CONFIG, EXIT_RUNTIME, EXIT_STEP_CAP, main, run_one
from sfcsim.config import (
    BUILTIN_SCENARIOS,
    DEFAULTS,
    ConfigError,
    ScenarioConfig,
    load_config,
    make_runtime,
)
from sfcsim.datacenter import LedgerError
from sfcsim.engine import InvariantError
from sfcsim.topology import TopologyError


def run_cli(args, tmp_path, monkeypatch, subdir="o"):
    out = tmp_path / subdir
    monkeypatch.setenv("SFCSIM_OUTDIR", str(out))
    code = main(args)
    return code, out


# tiny's network shape, so a tiny checkpoint's arrays fit another scenario
TINY_NETWORK = ["--set", "dqn.branch_dim=16", "--set", "dqn.hidden=[32, 16]"]


def artifact_dir(out):
    runs = [p for p in out.iterdir() if p.is_dir()]
    assert len(runs) == 1
    return runs[0]


class TestRun:
    def test_tiny_run_artifacts(self, tmp_path, monkeypatch, capsys):
        code, out = run_cli(["run", "--scenario", "tiny", "--seed", "7"],
                            tmp_path, monkeypatch)
        assert code == 0
        stdout = capsys.readouterr().out
        assert "acceptance=1.0000" in stdout
        run_dir = artifact_dir(out)
        for name in ("summary.json", "acceptance.csv", "e2e.csv", "resources.csv",
                     "config_used.json"):
            assert (run_dir / name).exists()
        summary = json.loads((run_dir / "summary.json").read_text())
        assert summary["seed"] == 7
        assert summary["config_hash"] in run_dir.name

    def test_missing_topology_is_config_error(self, tmp_path, monkeypatch, capsys):
        bad = tmp_path / "bad.yaml"
        bad.write_text(yaml.safe_dump({"topology": {"generator": None}}))
        code, _ = run_cli(["run", "--scenario", str(bad)], tmp_path, monkeypatch)
        assert code == 1
        assert "topology" in capsys.readouterr().err

    def test_unknown_key_is_config_error(self, tmp_path, monkeypatch):
        code, _ = run_cli(["run", "--scenario", "tiny", "--set", "nope.x=1"],
                          tmp_path, monkeypatch)
        assert code == 1

    def test_trace_flag_writes_versioned_trace(self, tmp_path, monkeypatch):
        code, out = run_cli(["run", "--scenario", "tiny", "--trace"],
                            tmp_path, monkeypatch)
        assert code == 0
        trace = artifact_dir(out) / "trace.jsonl"
        lines = trace.read_text().splitlines()
        assert json.loads(lines[0]) == {"schema": "sfcsim-trace-1"}
        kinds = {json.loads(l)["event"] for l in lines[1:]}
        assert {"inject", "allocate", "complete"} <= kinds

    def test_deterministic_exports(self, tmp_path, monkeypatch):
        digests = []
        for sub in ("a", "b"):
            code, out = run_cli(["run", "--scenario", "tiny", "--seed", "3", "--trace"],
                                tmp_path, monkeypatch, subdir=sub)
            assert code == 0
            run_dir = artifact_dir(out)
            blob = b"".join(
                (run_dir / n).read_bytes()
                for n in ("summary.json", "acceptance.csv", "e2e.csv",
                          "resources.csv", "trace.jsonl")
            )
            digests.append(blob)
        assert digests[0] == digests[1]

    @pytest.mark.parametrize("error", [LedgerError, InvariantError, TopologyError])
    def test_invariant_violation_exit_code(self, error, tmp_path, monkeypatch, capsys):
        def broken(*args, **kwargs):
            raise error("books differ")

        monkeypatch.setattr(sfcsim.cli, "run_one", broken)
        code, _ = run_cli(["run", "--scenario", "tiny"], tmp_path, monkeypatch)
        assert code == EXIT_RUNTIME
        assert "runtime invariant violation: books differ" in capsys.readouterr().err

    def test_step_cap_has_its_own_exit_code(self, tmp_path, monkeypatch, capsys):
        # a limit the config set, not a broken invariant
        code, _ = run_cli(["run", "--scenario", "tiny", "--set", "run.step_cap=10"],
                          tmp_path, monkeypatch)
        assert code == EXIT_STEP_CAP != EXIT_RUNTIME
        err = capsys.readouterr().err
        assert "step cap reached: episode exceeded 10 steps" in err
        assert "invariant" not in err

    def test_bandwidth_no_path_carries_is_config_error(self, tmp_path, monkeypatch, capsys):
        # unchecked, the finished chain's final TX waits for a 70 Mbps path on
        # a 5 Mbps link until the run hits its step cap
        cfg = load_config("tiny", overrides={"topology.default_capacity_mbps": 5.0})
        with pytest.raises(ConfigError, match="Ind4.0 requests up to 70.0 Mbps"):
            run_one(cfg, 0)
        code, _ = run_cli(["run", "--scenario", "tiny", "--set",
                           "topology.default_capacity_mbps=5"], tmp_path, monkeypatch)
        assert code == EXIT_CONFIG
        assert "config error: SFC type Ind4.0" in capsys.readouterr().err
        code, _ = run_cli(["train", "--scenario", "tiny", "--episodes", "1", "--quiet",
                           "--set", "topology.default_capacity_mbps=5"],
                          tmp_path, monkeypatch, subdir="t")
        assert code == EXIT_CONFIG
        # the manual request asks for 70 Mbps, not the catalog's 100 Mbps maximum
        result, _ = run_one(load_config(
            "tiny", overrides={"topology.default_capacity_mbps": 70.0}), 0)
        assert result.accepted == 1

    @pytest.mark.parametrize("cap_12, ok", [(500.0, True), (50.0, False)])
    def test_generated_bandwidth_needs_connected_dcs(self, cap_12, ok):
        # edge 0-2 cannot carry AugR's 100 Mbps; 0-1-2 can, unless 1-2 is narrow too
        nodes = [{"id": i, "x": 100.0 * i, "y": 0.0} for i in range(3)]
        edges = [{"m": 0, "n": 1}, {"m": 1, "n": 2, "capacity_mbps": cap_12},
                 {"m": 0, "n": 2, "capacity_mbps": 50.0}]
        cfg = load_config("paper3dc", overrides={"topology.nodes": nodes,
                                                 "topology.edges": edges})
        if ok:
            make_runtime(cfg, 0)
        else:
            with pytest.raises(ConfigError, match="AugR requests up to 100.0 Mbps"):
                make_runtime(cfg, 0)

    def test_disconnected_topology_is_config_error(self):
        # every edge carries 70 Mbps, but no edge reaches DC 2
        nodes = [{"id": i, "x": 100.0 * i, "y": 0.0} for i in range(3)]
        cfg = load_config("tiny", overrides={
            "topology.nodes": nodes, "topology.edges": [{"m": 0, "n": 1}],
            "datacenters.count": 3,
            "requests.manual": [[{"type": "Ind4.0", "src": 0, "dest": 2}]]})
        with pytest.raises(ConfigError, match="do not connect all 3 DCs"):
            make_runtime(cfg, 0)

    def test_missing_checkpoint_is_config_error(self, tmp_path, monkeypatch, capsys):
        missing = str(tmp_path / "missing.npz")
        code, _ = run_cli(["run", "--scenario", "tiny", "--policy", "dqn",
                           "--checkpoint", missing], tmp_path, monkeypatch)
        assert code == EXIT_CONFIG
        assert f"config error: cannot load checkpoint {missing}" in capsys.readouterr().err

    def test_checkpoint_for_another_scenario_is_config_error(self, tmp_path, monkeypatch,
                                                              capsys):
        from sfcsim.dqn import build_agent

        ckpt = str(tmp_path / "tiny.npz")
        build_agent(load_config("tiny"), 0).save(ckpt)
        code, _ = run_cli(["run", "--scenario", "paper3dc", "--policy", "dqn",
                           "--checkpoint", ckpt], tmp_path, monkeypatch)
        assert code == EXIT_CONFIG
        # paper3dc's network is wider than tiny's, so the first array refuses
        assert f"config error: cannot load checkpoint {ckpt}: online_Wb0 has shape (40, 16), " \
               "the scenario builds (40, 32)" in capsys.readouterr().err
        # with tiny's network shape the arrays fit, and the branch widths refuse
        code, _ = run_cli(["run", "--scenario", "paper3dc", "--policy", "dqn",
                           "--checkpoint", ckpt, *TINY_NETWORK], tmp_path, monkeypatch)
        assert code == EXIT_CONFIG
        assert "config error: checkpoint expects branches (40, 48, 1), scenario produces " \
               "(60, 48, 3)" in capsys.readouterr().err

    def test_negative_edge_distance_is_config_error(self, tmp_path, monkeypatch, capsys):
        scenario = tmp_path / "s.yaml"
        scenario.write_text(yaml.safe_dump({"topology": {
            "nodes": [{"id": 0, "x": 0.0, "y": 0.0}, {"id": 1, "x": 100.0, "y": 0.0}],
            "edges": [{"m": 0, "n": 1, "distance_km": -5}]}}))
        code, _ = run_cli(["run", "--scenario", str(scenario)], tmp_path, monkeypatch)
        assert code == EXIT_CONFIG
        assert "config error: edge (0, 1) distance -5.0" in capsys.readouterr().err

    @pytest.mark.parametrize("spec, message", [
        ("{type: Nope, src: 0, dest: 1}", "unknown SFC type 'Nope'"),
        ("{type: Ind4.0, src: 0}", "malformed request"),
        ("{type: Ind4.0, src: 0, dest: 1, bw: -3}", "bandwidth must be positive"),
    ], ids=["unknown-type", "missing-dest", "negative-bw"])
    def test_malformed_manual_request_is_config_error(self, spec, message, tmp_path,
                                                       monkeypatch, capsys):
        # unchecked, each raises at the step its wave is injected
        code, _ = run_cli(["run", "--scenario", "tiny", "--set", f"requests.manual=[[{spec}]]"],
                          tmp_path, monkeypatch)
        assert code == EXIT_CONFIG
        assert "config error: " in capsys.readouterr().err
        cfg = load_config("tiny", overrides={"requests.manual": [[yaml.safe_load(spec)]]})
        with pytest.raises(ConfigError, match=message):
            make_runtime(cfg, 0)

    @pytest.mark.parametrize("override, message", [
        ("datacenters.max_storage_gb=0", "datacenters.max_storage_gb"),
        ("datacenters.cpus=-1", "datacenters.cpus"),
        ("datacenters.ram_gb=.nan", "datacenters.ram_gb"),
        ("datacenters.per_dc=[{max_storage_gb: 10, cpus: 2, ram_gb: 4}, "
         "{max_storage_gb: 10, cpus: 2, ram_gb: 0.0004}]", "datacenters.per_dc[1].ram_gb"),
    ], ids=["max_storage_gb", "cpus", "ram_gb", "per_dc"])
    def test_bad_datacenter_capacity_is_config_error(self, override, message, tmp_path,
                                                     monkeypatch, capsys):
        # unchecked, a zero storage ends in a ZeroDivisionError at the first
        # resource sample and negative compute runs to the end
        code, out = run_cli(["run", "--scenario", "tiny", "--set", override],
                            tmp_path, monkeypatch)
        assert code == EXIT_CONFIG
        assert f"config error: {message} must be a finite number" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("override, message", [
        ("topology.nodes=[{id: 0, x: 0}, {id: 1, x: 1, y: 0}]",
         "topology.nodes[0] needs 'y'"),
        ("topology.edges=[{m: 0, n: 1, capacity_mbps: abc}]",
         "topology.edges[0].capacity_mbps must be a finite number"),
        ("topology.edges=[{m: 0, n: 1, capacity_mbps: .nan}]",
         "topology.edges[0].capacity_mbps must be a finite number"),
        ("topology.nodes=5", "topology.nodes must be a list"),
        ("topology.nodes=[{id: 0, x: .inf, y: 0}, {id: 1, x: 1, y: 0}]",
         "topology.nodes[0].x must be a finite number"),
        ("topology.nodes=[{id: '0', x: 0, y: 0}, {id: 1, x: 1, y: 0}]",
         "topology.nodes[0].id must be an int"),
        ("topology.edges=[{m: 0, n: one}]", "topology.edges[0].n must be an int"),
        ("topology.edges=[[0, 1]]", "topology.edges[0] must be a mapping"),
        ("topology.edges=[{m: 0, n: 1, distance_km: far}]",
         "topology.edges[0].distance_km must be a number or null"),
    ], ids=["missing-y", "capacity-abc", "capacity-nan", "nodes-int", "x-inf", "id-str",
            "n-str", "edge-list", "distance-str"])
    def test_malformed_topology_entry_is_config_error(self, override, message, tmp_path,
                                                      monkeypatch, capsys):
        # unchecked, each ends in a KeyError, ValueError or TypeError traceback
        # when the graph is built
        code, out = run_cli(["run", "--scenario", "tiny",
                             "--set", "topology.nodes=[{id: 0, x: 0, y: 0}, {id: 1, x: 1, y: 0}]",
                             "--set", "topology.edges=[{m: 0, n: 1}]", "--set", override],
                            tmp_path, monkeypatch)
        assert code == EXIT_CONFIG
        assert f"config error: {message}" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("override, message", [
        ("topology.nodes=[{id: 0, x: 0, y: 0, z: 1}, {id: 1, x: 1, y: 0}]",
         "unknown key 'z' in topology.nodes[0]; expected id, x, y"),
        ("topology.edges=[{m: 0, n: 1, capacity: 5}]",
         "unknown key 'capacity' in topology.edges[0]; "
         "expected m, n, capacity_mbps, distance_km"),
    ], ids=["node", "edge"])
    def test_unknown_topology_entry_key_is_config_error(self, override, message, tmp_path,
                                                        monkeypatch, capsys):
        # unchecked, a misspelt capacity runs at the default and exits 0
        code, out = run_cli(["run", "--scenario", "tiny",
                             "--set", "topology.nodes=[{id: 0, x: 0, y: 0}, {id: 1, x: 1, y: 0}]",
                             "--set", "topology.edges=[{m: 0, n: 1}]", "--set", override],
                            tmp_path, monkeypatch)
        assert code == EXIT_CONFIG
        assert f"config error: {message}" in capsys.readouterr().err
        assert not out.exists()

    def test_explicit_topology_runs(self, tmp_path, monkeypatch):
        code, _ = run_cli(["run", "--scenario", "tiny",
                           "--set", "topology.nodes=[{id: 0, x: 0, y: 0}, {id: 1, x: 1, y: 0}]",
                           "--set", "topology.edges=[{m: 0, n: 1, capacity_mbps: 200, "
                           "distance_km: null}]"], tmp_path, monkeypatch)
        assert code == 0

    @pytest.mark.parametrize("trace", [False, True], ids=["plain", "trace"])
    def test_setup_error_writes_nothing(self, trace, tmp_path, capsys):
        out = tmp_path / "o"
        code = main(["run", "--scenario", "tiny", "--out", str(out),
                     "--set", "topology.default_capacity_mbps=1"] + ["--trace"] * trace)
        assert code == EXIT_CONFIG
        assert "config error: SFC type Ind4.0" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("args", [
        ["--set", "policy.kind=["],
        ["--set", "policy.t_model=abc"],
        ["--seed", "0", "--set", "requests.manual=[[{type: Ind4.0, src: 0, dest: 1}"],
    ], ids=["yaml-flow", "t_model", "yaml-manual"])
    def test_malformed_override_is_config_error(self, args, tmp_path, capsys):
        out = tmp_path / "o"
        code = main(["run", "--scenario", "tiny", "--out", str(out)] + args)
        assert code == EXIT_CONFIG
        assert "config error: " in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("body", ["topology: [\n", "topology: {generator: {n: 2}\n"])
    def test_malformed_scenario_file_is_config_error(self, body, tmp_path, capsys):
        scenario = tmp_path / "s.yaml"
        scenario.write_text(body)
        code = main(["run", "--scenario", str(scenario), "--out", str(tmp_path / "o")])
        assert code == EXIT_CONFIG
        assert f"config error: cannot load scenario {str(scenario)!r}" in capsys.readouterr().err

    def test_missing_scenario_file_is_config_error(self, tmp_path, capsys):
        code = main(["run", "--scenario", str(tmp_path / "none.yaml"),
                     "--out", str(tmp_path / "o")])
        assert code == EXIT_CONFIG
        assert "No such file" in capsys.readouterr().err

    def test_value_error_during_a_run_is_not_a_config_error(self, tmp_path, monkeypatch):
        def broken(*args, **kwargs):
            raise ValueError("a bug, not bad input")

        monkeypatch.setattr(sfcsim.cli, "run_one", broken)
        with pytest.raises(ValueError, match="a bug") as info:
            main(["run", "--scenario", "tiny", "--out", str(tmp_path / "o")])
        assert not isinstance(info.value, ConfigError)

    @pytest.mark.parametrize("scenario, override, message", [
        ("paper3dc", "requests.bundle_overrides={CG: [5, 2]}",
         "requests.bundle_overrides.CG must be two ints lo, hi with 0 <= lo <= hi"),
        ("tiny", "requests.bundle_overrides={CG: 5}", "requests.bundle_overrides.CG must be"),
        ("tiny", "requests.bundle_overrides={CG: [-3, -1]}",
         "requests.bundle_overrides.CG must be"),
        ("tiny", "requests.bundle_overrides={CG: [1.5, 2]}",
         "requests.bundle_overrides.CG must be"),
        ("tiny", "requests.bundle_overrides=[1, 2]",
         "requests.bundle_overrides must be a mapping"),
        ("tiny", "requests.bundle_overrides={Nope: [0, 1]}",
         "unknown key 'Nope' in requests.bundle_overrides; expected CG, AugR"),
        ("tiny", "datacenters.count=abc",
         "datacenters.count must be an int >= 1 or null, got 'abc'"),
        ("tiny", "datacenters.count=0", "datacenters.count must be an int >= 1 or null, got 0"),
        ("tiny", "topology.propagation=maybe",
         "topology.propagation must be true or false, got 'maybe'"),
        ("tiny", "requests.allow_loopback=1",
         "requests.allow_loopback must be true or false, got 1"),
    ], ids=["bundle-lo-gt-hi", "bundle-int", "bundle-negative", "bundle-float", "bundle-list",
            "bundle-unknown-type", "count-str", "count-zero", "propagation-str",
            "loopback-int"])
    def test_bad_request_or_layout_key_is_config_error(self, scenario, override, message,
                                                       tmp_path, capsys):
        # unchecked, a reversed or non-list bundle and a non-int count end in
        # a traceback (the reversed bundle only after the trace is opened),
        # and the others run on a silently altered reading
        out = tmp_path / "o"
        code = main(["run", "--scenario", scenario, "--trace", "--out", str(out),
                     "--set", override])
        assert code == EXIT_CONFIG
        assert f"config error: {message}" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("scenario, catalog, message", [
        # each of these ended in a traceback when make_runtime built the catalog
        ("tiny", "{sfcs: {CG: {bundle: 5}}}",
         "catalog.sfcs.CG.bundle must be two ints lo, hi with 0 <= lo <= hi, got 5"),
        ("tiny", "{sfcs: {CG: {bandwidth: [1]}}}",
         "catalog.sfcs.CG.bandwidth must be a finite number that rounds to at least 0.001, "
         "got [1]"),
        ("tiny", "{sfcs: {CG: {chain: 5}}}",
         "catalog.sfcs.CG.chain must be a non-empty list of VNF types"),
        ("tiny", "{vnfs: {NAT: 5}}", "catalog.vnfs.NAT must be a mapping, got 5"),
        ("tiny", "{vnfs: {NAT: {vcpu: abc}}}",
         "catalog.vnfs.NAT.vcpu must be a finite number > 0, got 'abc'"),
        ("tiny", "{sfcs: {CG: {e2e_ms: abc}}}", "catalog.sfcs.CG.e2e_ms must be a finite number"),
        # these ran on a silently altered reading: lo truncated, a float clock
        ("tiny", "{sfcs: {CG: {bundle: [1.5, 3]}}}", "catalog.sfcs.CG.bundle must be two ints"),
        ("tiny", "{vnfs: {NAT: {proc_time: 6.0}}}",
         "catalog.vnfs.NAT.proc_time must be an int >= 1, got 6.0"),
        # these failed later: a 0-step deadline in training, a bandwidth below
        # one ledger unit in the middle of a run
        ("tiny", "{sfcs: {Ind4.0: {e2e_ms: 0.004}}}",
         "catalog.sfcs.Ind4.0.e2e_ms must be a finite number that rounds to a deadline of "
         "at least one step (0.01 ms), got 0.004"),
        ("paper3dc", "{sfcs: {AugR: {bandwidth: 0.0004}}}",
         "catalog.sfcs.AugR.bandwidth must be a finite number that rounds to at least 0.001"),
        # the rest of each field's rule
        ("tiny", "5", "catalog must be a mapping, got 5"),
        ("tiny", "{flows: {}}", "unknown key 'flows' in catalog; expected vnfs, sfcs"),
        ("tiny", "{vnfs: {DPI: {vcpu: 1}}}", "unknown key 'DPI' in catalog.vnfs; expected NAT"),
        ("tiny", "{sfcs: {Gaming: {e2e_ms: 10}}}",
         "unknown key 'Gaming' in catalog.sfcs; expected CG"),
        ("tiny", "{vnfs: {NAT: {name: FW}}}", "unknown key 'name' in catalog.vnfs.NAT"),
        ("tiny", "{sfcs: {CG: {latency: 5}}}", "unknown key 'latency' in catalog.sfcs.CG"),
        ("tiny", "{vnfs: {NAT: {ram_gb: 0}}}",
         "catalog.vnfs.NAT.ram_gb must be a finite number > 0"),
        ("tiny", "{vnfs: {NAT: {vcpu: .inf}}}", "catalog.vnfs.NAT.vcpu must be a finite number"),
        ("tiny", "{vnfs: {FW: {storage_gb: -1}}}",
         "catalog.vnfs.FW.storage_gb must be a finite number that rounds to at least 0.001"),
        ("tiny", "{vnfs: {NAT: {storage_gb: 0.0004}}}",
         "catalog.vnfs.NAT.storage_gb must be a finite number that rounds to at least 0.001"),
        ("tiny", "{vnfs: {NAT: {vcpu: 0.001, ram_gb: 0.4}}}",
         "catalog.vnfs.NAT.vcpu * ram_gb must be a finite number that rounds to at least 0.001"),
        ("tiny", "{vnfs: {NAT: {vcpu: 0.0001}}}", "catalog.vnfs.NAT.vcpu * ram_gb must be"),
        ("tiny", "{vnfs: {NAT: {proc_time: 0}}}", "catalog.vnfs.NAT.proc_time must be an int >= 1"),
        ("tiny", "{sfcs: {CG: {chain: []}}}", "catalog.sfcs.CG.chain must be a non-empty list"),
        ("tiny", "{sfcs: {CG: {chain: [NAT, DPI]}}}",
         "catalog.sfcs.CG.chain must be a non-empty list of VNF types"),
        ("tiny", "{sfcs: {MIoT: {bandwidth: [50.0, 1.0]}}}",
         "catalog.sfcs.MIoT.bandwidth must be a number or [lo, hi] with lo <= hi"),
        ("tiny", "{sfcs: {MIoT: {bandwidth: [0.0004, 1.0]}}}",
         "catalog.sfcs.MIoT.bandwidth[0] must be a finite number that rounds to at least"),
        ("tiny", "{sfcs: {CG: {e2e_ms: -1}}}", "catalog.sfcs.CG.e2e_ms must be a finite number"),
        ("tiny", "{sfcs: {CG: {e2e_ms: .nan}}}", "catalog.sfcs.CG.e2e_ms must be a finite number"),
        ("tiny", "{sfcs: {CG: {bundle: [6, 5]}}}", "catalog.sfcs.CG.bundle must be two ints"),
        ("tiny", "{sfcs: {CG: {bundle: [-1, 5]}}}", "catalog.sfcs.CG.bundle must be two ints"),
        ("tiny", "{sfcs: {CG: {packet_len_mb: 0}}}",
         "catalog.sfcs.CG.packet_len_mb must be a finite number > 0 or null, got 0"),
    ], ids=["bundle-int", "bandwidth-one-item", "chain-int", "vnf-entry-int", "vcpu-str",
            "e2e-str", "bundle-float", "proc-time-float", "e2e-zero-steps", "bandwidth-sub-unit",
            "catalog-int", "unknown-section", "unknown-vnf", "unknown-sfc", "vnf-name-field",
            "unknown-sfc-field", "ram-zero", "vcpu-inf", "storage-negative",
            "storage-sub-unit", "compute-sub-unit", "compute-default-factor", "proc-time-zero",
            "chain-empty", "chain-unknown-vnf", "bandwidth-reversed", "bandwidth-lo-sub-unit",
            "e2e-negative", "e2e-nan", "bundle-lo-gt-hi", "bundle-negative", "packet-len-zero"])
    def test_bad_catalog_override_is_config_error(self, scenario, catalog, message, tmp_path,
                                                  capsys):
        out = tmp_path / "o"
        code = main(["run", "--scenario", scenario, "--trace", "--out", str(out),
                     "--set", f"catalog={catalog}"])
        assert code == EXIT_CONFIG
        assert f"config error: {message}" in capsys.readouterr().err
        assert not out.exists()

    def test_empty_bundle_override_requests_nothing(self):
        # [0, 0] is valid: max_bandwidth reads hi == 0 as "never requested"
        cfg = load_config("paper3dc", overrides={"requests.bundle_overrides": {"CG": [0, 0]}})
        _, generator, _ = make_runtime(cfg, 0)
        records = generator.generate_wave(0)
        assert records and all(rec.type_name != "CG" for rec in records)

    def test_empty_catalog_bundle_requests_nothing(self):
        # the catalog's bundle has the rule of requests.bundle_overrides
        cfg = load_config("paper3dc", overrides={"catalog": {"sfcs": {"CG": {"bundle": [0, 0]}}}})
        _, generator, _ = make_runtime(cfg, 0)
        records = generator.generate_wave(0)
        assert records and all(rec.type_name != "CG" for rec in records)

    @pytest.mark.parametrize("scenario, args, shown", [
        ("tiny", ["--set", "seed=1.7"], "1.7"),
        ("tiny", ["--set", "seed=-1"], "-1"),
        ("tiny", ["--set", "seed='3'"], "'3'"),
        ("tiny", ["--set", "seed=true"], "True"),
        ("tiny", ["--seed", "-1"], "-1"),
        ("paper3dc", ["--seed", "-1"], "-1"),
    ], ids=["float", "negative", "str", "bool", "flag-negative", "flag-negative-paper3dc"])
    def test_bad_seed_is_config_error(self, scenario, args, shown, tmp_path, capsys):
        # a float seed ran truncated, a negative one wrote run-...-s-1 or
        # ended in numpy's traceback
        out = tmp_path / "o"
        code = main(["run", "--scenario", scenario, "--out", str(out)] + args)
        assert code == EXIT_CONFIG
        assert f"config error: seed must be an int >= 0, got {shown}" in capsys.readouterr().err
        assert not out.exists()

    def test_bad_seed_in_scenario_file_is_config_error(self, tmp_path, capsys):
        scenario = tmp_path / "s.yaml"
        scenario.write_text(yaml.safe_dump({"seed": 1.7, **BUILTIN_SCENARIOS["tiny"]}))
        out = tmp_path / "o"
        code = main(["run", "--scenario", str(scenario), "--out", str(out)])
        assert code == EXIT_CONFIG
        assert "config error: seed must be an int >= 0, got 1.7" in capsys.readouterr().err
        assert not out.exists()

    def test_scenario_file_seed_is_the_default_run_seed(self, tmp_path):
        # --seed defaulted to 0, which replaced the file's seed
        scenario = tmp_path / "s.yaml"
        scenario.write_text(yaml.safe_dump({"seed": 3, **BUILTIN_SCENARIOS["tiny"]}))
        for args, seed in (([], 3), (["--seed", "0"], 0)):
            out = tmp_path / f"o{seed}"
            assert main(["run", "--scenario", str(scenario), "--out", str(out)] + args) == 0
            config_hash = load_config(str(scenario), seed=seed).config_hash()
            assert [p.name for p in out.iterdir()] == [f"run-{config_hash}-s{seed}"]
            summary = json.loads((out / f"run-{config_hash}-s{seed}" / "summary.json").read_text())
            assert summary["seed"] == seed

    def test_policy_flag_shorthand(self, tmp_path, monkeypatch, capsys):
        code, _ = run_cli(["run", "--scenario", "tiny", "--policy", "random"],
                          tmp_path, monkeypatch)
        assert code == 0


class TestSweep:
    def test_heuristic_sweep_table(self, tmp_path, monkeypatch, capsys):
        code, out = run_cli(["sweep", "--scenario", "tiny", "--seeds", "1,2,3"],
                            tmp_path, monkeypatch)
        assert code == 0
        table = artifact_dir(out) / "sweep.csv"
        rows = table.read_text().splitlines()
        assert len(rows) == 1 + 3 + 1  # header, three seeds, aggregate
        assert "mean acceptance" in capsys.readouterr().out

    def test_single_seed_aggregate_equals_row(self, tmp_path, monkeypatch):
        code, out = run_cli(["sweep", "--scenario", "tiny", "--seeds", "5"],
                            tmp_path, monkeypatch)
        assert code == 0
        rows = (artifact_dir(out) / "sweep.csv").read_text().splitlines()
        seed_ratio = rows[1].split(",")[2]
        assert rows[2].split(",")[2].startswith(f"{float(seed_ratio):.4f}")

    def test_dqn_sweep_needs_checkpoint(self, tmp_path, monkeypatch):
        code, _ = run_cli(["sweep", "--scenario", "tiny", "--seeds", "1",
                           "--policies", "dqn"], tmp_path, monkeypatch)
        assert code == 1

    @pytest.mark.parametrize("args, message", [
        (["--set", "topology.default_capacity_mbps=1"], "SFC type Ind4.0"),
        (["--policies", "heuristic,dqn", "--checkpoint", "missing.npz"],
         "cannot load checkpoint missing.npz"),
        (["--seeds", "1,x"], "--seeds must be comma separated ints"),
    ], ids=["unroutable", "missing-checkpoint", "bad-seed"])
    def test_setup_error_writes_nothing(self, args, message, tmp_path, capsys):
        # the seeds never reach a run: set-up is checked once per policy first
        out = tmp_path / "o"
        code = main(["sweep", "--scenario", "tiny", "--seeds", "1,2", "--out", str(out)]
                    + args)
        assert code == EXIT_CONFIG
        assert f"config error: {message}" in capsys.readouterr().err
        assert not out.exists()

    def test_failed_seed_keeps_the_sweep_going(self, tmp_path, monkeypatch, capsys):
        real = sfcsim.cli.run_one

        def flaky(cfg, seed, *args, **kwargs):
            if seed == 2:
                raise InvariantError("books differ")
            return real(cfg, seed, *args, **kwargs)

        monkeypatch.setattr(sfcsim.cli, "run_one", flaky)
        code, out = run_cli(["sweep", "--scenario", "tiny", "--seeds", "1,2,3"],
                            tmp_path, monkeypatch)
        assert code == 0
        rows = (artifact_dir(out) / "sweep.csv").read_text().splitlines()
        assert [row.split(",")[1] for row in rows[1:]] == ["1", "3", "mean±sd"]
        assert "failed seeds: [('heuristic', 2, 'books differ')]" in capsys.readouterr().err


class TestTrain:
    def test_train_writes_checkpoint_and_curve(self, tmp_path, monkeypatch, capsys):
        code, out = run_cli(["train", "--scenario", "tiny", "--episodes", "2",
                             "--quiet"], tmp_path, monkeypatch)
        assert code == 0
        train_dir = artifact_dir(out)
        assert (train_dir / "checkpoint.npz").exists()
        curve = (train_dir / "curve.csv").read_text().splitlines()
        assert len(curve) == 3
        assert curve[0].startswith("episode,epsilon,mean_loss")

    def test_resume_continues_epsilon(self, tmp_path, monkeypatch):
        code, out = run_cli(["train", "--scenario", "tiny", "--episodes", "2",
                             "--quiet"], tmp_path, monkeypatch, subdir="t1")
        ckpt = artifact_dir(out) / "checkpoint.npz"
        from sfcsim.dqn import load_agent

        hp = load_config("tiny").data["dqn"]
        first = load_agent(str(ckpt), hp)
        assert first.episode == 2
        code2, out2 = run_cli(["train", "--scenario", "tiny", "--episodes", "1",
                               "--resume", str(ckpt), "--quiet"],
                              tmp_path, monkeypatch, subdir="t2")
        assert code2 == 0
        second = load_agent(str(artifact_dir(out2) / "checkpoint.npz"), hp)
        assert second.episode == 3
        # the schedule picks up where it stopped rather than resetting
        assert second.epsilon(2) <= first.epsilon(0)

    def test_bad_resume_is_config_error(self, tmp_path, monkeypatch, capsys):
        missing = str(tmp_path / "missing.npz")
        code, _ = run_cli(["train", "--scenario", "tiny", "--episodes", "1", "--quiet",
                           "--resume", missing], tmp_path, monkeypatch, subdir="t1")
        assert code == EXIT_CONFIG
        assert f"config error: cannot load checkpoint {missing}" in capsys.readouterr().err
        # a checkpoint of another scenario is refused before its ring takes a transition
        from sfcsim.dqn import build_agent

        ckpt = str(tmp_path / "tiny.npz")
        build_agent(load_config("tiny"), 0).save(ckpt)
        code, _ = run_cli(["train", "--scenario", "paper3dc", "--episodes", "1", "--quiet",
                           "--resume", ckpt, *TINY_NETWORK], tmp_path, monkeypatch, subdir="t2")
        assert code == EXIT_CONFIG
        assert "config error: checkpoint expects branches" in capsys.readouterr().err

    @pytest.mark.parametrize("command", [
        ["run", "--scenario", "tiny", "--policy", "dqn", "--checkpoint"],
        ["train", "--scenario", "tiny", "--episodes", "1", "--quiet", "--resume"],
    ], ids=["run", "train-resume"])
    def test_checkpoint_arrays_not_matching_meta_is_config_error(self, tmp_path, monkeypatch,
                                                                 capsys, command):
        # unchecked, the first forward pass raised a numpy ValueError mid-run
        from sfcsim.dqn import build_agent

        good = str(tmp_path / "good.npz")
        build_agent(load_config("tiny"), 0).save(good)
        arrays = dict(np.load(good))
        arrays["online_W1"] = arrays["online_W1"][:, :5]
        bad = str(tmp_path / "bad.npz")
        np.savez(bad, **arrays)
        code, out = run_cli([*command, bad], tmp_path, monkeypatch)
        assert code == EXIT_CONFIG
        assert f"config error: cannot load checkpoint {bad}: online_W1 has shape (48, 5), " \
               "the scenario builds (48, 32)" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("command", [
        ["run", "--scenario", "tiny", "--policy", "dqn", "--checkpoint"],
        ["train", "--scenario", "tiny", "--episodes", "1", "--quiet", "--resume"],
    ], ids=["run", "train-resume"])
    def test_checkpoint_not_fitting_the_scenarios_hidden_is_config_error(
            self, tmp_path, monkeypatch, capsys, command):
        # the network's shape is the scenario's, not the checkpoint's copy of it
        from sfcsim.dqn import build_agent

        ckpt = str(tmp_path / "tiny.npz")
        build_agent(load_config("tiny"), 0).save(ckpt)
        code, out = run_cli([*command, ckpt, "--set", "dqn.hidden=[32, 8]"],
                            tmp_path, monkeypatch)
        assert code == EXIT_CONFIG
        assert f"config error: cannot load checkpoint {ckpt}: online_W2 has shape (32, 16), " \
               "the scenario builds (32, 8)" in capsys.readouterr().err
        assert not out.exists()

    def test_resume_learns_at_the_scenarios_rate(self, tmp_path, monkeypatch):
        # a batch of 8 makes the resumed episode reach train_step
        small = ["--set", "dqn.min_buffer=8", "--set", "dqn.batch=8"]
        code, out = run_cli(["train", "--scenario", "tiny", "--episodes", "1", "--quiet",
                             *small], tmp_path, monkeypatch, subdir="t1")
        assert code == 0
        ckpt = str(artifact_dir(out) / "checkpoint.npz")
        code, out2 = run_cli(["train", "--scenario", "tiny", "--episodes", "1", "--quiet",
                              "--resume", ckpt, *small, "--set", "dqn.lr=0"],
                             tmp_path, monkeypatch, subdir="t2")
        assert code == 0
        from sfcsim.dqn import load_agent

        hp = load_config("tiny").data["dqn"]
        first = load_agent(ckpt, hp)
        second = load_agent(str(artifact_dir(out2) / "checkpoint.npz"), hp)
        assert second.train_steps > first.train_steps
        for name, array in first.online.params.items():
            assert second.online.params[name].tobytes() == array.tobytes(), name

    def test_refused_resume_leaves_no_run_directory(self, tmp_path, monkeypatch, capsys):
        from sfcsim.dqn import build_agent

        ckpt = str(tmp_path / "tiny.npz")
        build_agent(load_config("tiny"), 0).save(ckpt)
        code, out = run_cli(["train", "--scenario", "paper3dc", "--episodes", "1", "--quiet",
                             "--resume", ckpt], tmp_path, monkeypatch)
        assert code == EXIT_CONFIG
        assert "the scenario builds (40, 32)" in capsys.readouterr().err
        assert not list(tmp_path.glob("**/train-*"))

    def test_negative_reward_is_config_error(self, tmp_path, monkeypatch, capsys):
        # unchecked, the first training episode raises a ValueError
        code, out = run_cli(["train", "--scenario", "tiny", "--episodes", "1", "--quiet",
                             "--set", "dqn.reward.complete=-1"], tmp_path, monkeypatch)
        assert code == EXIT_CONFIG
        assert "config error: dqn.reward.complete must be a finite non-negative number" \
            in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("args, message", [
        (["--episodes", "1", "--set", "topology.default_capacity_mbps=1"], "SFC type Ind4.0"),
        (["--episodes", "-1"], "episodes must be >= 0, got -1"),
        (["--episodes", "1", "--set", "requests.bundle_overrides={CG: [5, 2]}"],
         "requests.bundle_overrides.CG must be two ints"),
        (["--episodes", "1", "--set", "datacenters.count=abc"],
         "datacenters.count must be an int >= 1"),
    ], ids=["unroutable", "negative-episodes", "bundle-lo-gt-hi", "count-str"])
    def test_setup_error_writes_nothing(self, args, message, tmp_path, capsys):
        out = tmp_path / "o"
        code = main(["train", "--scenario", "tiny", "--quiet", "--out", str(out)] + args)
        assert code == EXIT_CONFIG
        assert f"config error: {message}" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("out_dir, calls", [(False, 2), (True, 3)])
    def test_setup_check_runs_only_with_an_output_directory(self, out_dir, calls, tmp_path,
                                                            monkeypatch):
        # without out_dir nothing is written, so train builds no extra runtime
        import sfcsim.config
        from sfcsim.dqn import train

        real = sfcsim.config.make_runtime
        built = []

        def counted(*args, **kwargs):
            built.append(args[1:])
            return real(*args, **kwargs)

        monkeypatch.setattr(sfcsim.config, "make_runtime", counted)
        train(load_config("tiny"), out_dir=str(tmp_path / "t") if out_dir else None,
              episodes=2, progress=lambda row: None)
        assert len(built) == calls

    def test_zero_episode_train_checkpoints_initialization(self, tmp_path, monkeypatch):
        code, out = run_cli(["train", "--scenario", "tiny", "--episodes", "0",
                             "--quiet"], tmp_path, monkeypatch)
        assert code == 0
        assert (artifact_dir(out) / "checkpoint.npz").exists()


class TestSetupBuilds:
    """A command builds a scenario's catalog and graph once per runtime it
    sets up: one per episode it plays, plus the set-up check a command
    makes before it writes anything."""

    @pytest.mark.parametrize("argv, builds", [
        (["run", "--scenario", "tiny", "--policy", "dqn", "--checkpoint", "{ckpt}"], 1),
        # a set-up check per policy, then a run per policy and seed
        (["sweep", "--scenario", "tiny", "--seeds", "0,1,2",
          "--policies", "heuristic,random,dqn", "--checkpoint", "{ckpt}"], 12),
        # the output directory's set-up check, then one runtime per episode
        (["train", "--scenario", "tiny", "--quiet", "--episodes", "2",
          "--resume", "{ckpt}"], 3),
    ], ids=["run-dqn", "sweep", "train-resume"])
    def test_builds_per_command(self, argv, builds, tmp_path, monkeypatch):
        from sfcsim.dqn import build_agent

        ckpt = str(tmp_path / "tiny.npz")
        build_agent(load_config("tiny"), 0).save(ckpt)
        counts = {"catalog": 0, "graph": 0, "runtime": 0}

        def counted(name, real):
            def wrapper(*args, **kwargs):
                counts[name] += 1
                return real(*args, **kwargs)
            return wrapper

        monkeypatch.setattr(ScenarioConfig, "build_catalog",
                            counted("catalog", ScenarioConfig.build_catalog))
        monkeypatch.setattr(ScenarioConfig, "build_graph",
                            counted("graph", ScenarioConfig.build_graph))
        runtime = counted("runtime", make_runtime)
        monkeypatch.setattr(sfcsim.config, "make_runtime", runtime)
        monkeypatch.setattr(sfcsim.cli, "make_runtime", runtime)
        argv = [arg.format(ckpt=ckpt) for arg in argv]
        assert main([*argv, "--out", str(tmp_path / "o")]) == 0
        assert counts == {"catalog": builds, "graph": builds, "runtime": builds}


class TestScenarioConfig:
    def test_hash_stable_under_key_reordering(self):
        a = ScenarioConfig({"policy": {"t_thresh": 300, "t_model": 2}}, seed=1)
        b = ScenarioConfig({"policy": {"t_model": 2, "t_thresh": 300}}, seed=1)
        assert a.config_hash() == b.config_hash()

    def test_hash_sensitive_to_values(self):
        a = ScenarioConfig({}, seed=1)
        b = ScenarioConfig({}, seed=2)
        c = ScenarioConfig({"policy": {"t_model": 2}}, seed=1)
        assert a.config_hash() != b.config_hash()
        assert a.config_hash() != c.config_hash()

    def test_overrides_do_not_mutate_source(self):
        cfg = ScenarioConfig({}, seed=1)
        before = cfg.resolved()
        cfg2 = cfg.with_overrides({"policy.kind": "random"})
        assert cfg.resolved() == before
        assert cfg2.data["policy"]["kind"] == "random"

    def test_overrides_leave_source_data_as_it_was(self):
        cfg = load_config("paper5dc", seed=0)
        before = copy.deepcopy(cfg.data)
        weights = [1, 2, 3, 4]
        out = cfg.with_overrides({"topology.generator.n": 12, "policy.weights": weights,
                                  "dqn.reward.drop": 3.0, "seed": 5})
        assert cfg.data == before and cfg.seed == 0
        assert out.data["topology"]["generator"]["n"] == 12 and out.seed == 5
        assert out.data["dqn"]["reward"]["drop"] == 3.0
        # the new config copies what it was given and shares nothing with the source
        weights.append(5)
        out.data["topology"]["generator"]["seed"] = 99
        out.data["requests"]["wave_times"].append(10**6)
        out.data["dqn"]["reward"]["complete"] = 42.0
        assert out.data["policy"]["weights"] == [1, 2, 3, 4]
        assert cfg.data == before
        with pytest.raises(ConfigError, match="unknown override path"):
            cfg.with_overrides({"policy.t_model": 3, "policy.nope.deeper": 1})
        assert cfg.data == before

    # config_hash of each builtin at seed 0, pinned from the merge that
    # deep-copied all of the defaults before overriding them
    BUILTIN_HASHES = {"paper5dc": "b69a8f8c3789fe6a", "paper3dc": "83854d5e83596c85",
                      "tiny": "df5631dab0dfab0a"}

    def test_builtin_resolution_is_pinned(self):
        assert {name: load_config(name, seed=0).config_hash()
                for name in BUILTIN_SCENARIOS} == self.BUILTIN_HASHES
        cfg = load_config("paper5dc", seed=3, overrides={"topology.generator.n": 12,
                                                         "policy.weights": [1, 2, 3, 4]})
        assert cfg.config_hash() == "0d1a2d3f72539a6a"
        for name in BUILTIN_SCENARIOS:
            resolved = load_config(name, seed=0).resolved()
            assert list(resolved) == [*DEFAULTS, "seed"]
            for section, defaults in DEFAULTS.items():  # the defaults' key order
                if section != "catalog" and isinstance(defaults, dict):
                    assert list(resolved[section]) == list(defaults), (name, section)

    def test_config_data_shares_nothing_mutable(self):
        defaults = copy.deepcopy(DEFAULTS)
        builtins = copy.deepcopy(BUILTIN_SCENARIOS)
        for name in BUILTIN_SCENARIOS:
            a, b = load_config(name, seed=0), load_config(name, seed=0)
            before = b.resolved()
            for section in a.data.values():
                for key, value in section.items():
                    if isinstance(value, dict):
                        value["mutated"] = True
                    elif isinstance(value, list):
                        value.append("mutated")
                    else:
                        section[key] = "mutated"
            assert b.resolved() == before, name
            assert DEFAULTS == defaults and BUILTIN_SCENARIOS == builtins, name

    @staticmethod
    def resolved_hash(cfg):
        # config_hash as it was first defined, over a deep copy of the data
        canon = json.dumps(cfg.resolved(), sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(canon.encode()).hexdigest()[:16]

    @pytest.mark.parametrize("overrides", [
        {},
        {"topology.generator.n": 12, "policy.weights": [1, 2, 3, 4], "seed": 3},
        {"requests.wave_times": [0], "requests.manual": [[{"type": "Ind4.0", "src": 0,
                                                            "dest": 1}]]},
        {"catalog": {"sfcs": {"MIoT": {"bandwidth": [1, 20], "bundle": [0, 2]}}},
         "dqn.reward": {"drop": 2.5}, "dqn.hidden": [8, 4]},
        {"topology.nodes": [{"id": 0, "x": 0, "y": 0}, {"id": 1, "x": 1.5, "y": 0}],
         "topology.edges": [{"m": 0, "n": 1, "distance_km": None}], "topology.generator": None},
        {"policy": {"t_model": 2, "weights": [0, 1, 0.5, 1]},
         "requests.bundle_overrides": {"CG": [0, 0]}, "catalog.vnfs.NAT.proc_time": 9},
    ], ids=["none", "leaves", "manual", "nested", "explicit-topology", "mappings"])
    def test_hash_is_that_of_the_resolved_config(self, overrides):
        for name in BUILTIN_SCENARIOS:
            cfg = load_config(name, seed=0).with_overrides(overrides)
            assert cfg.config_hash() == self.resolved_hash(cfg), name

    def test_unknown_nested_key_named_first(self):
        # override order decides which bad key is reported
        with pytest.raises(ConfigError, match=r"'policy\.nope'"):
            ScenarioConfig({"policy": {"nope": 1, "weights": [1, 1, 1, 1]}})
        with pytest.raises(ConfigError, match=r"'topology\.generator\.bad'"):
            ScenarioConfig({"topology": {"generator": {"bad": 1}, "nope": 2}})

    def test_builtins_load(self):
        for name in ("paper5dc", "paper3dc", "tiny"):
            cfg = load_config(name, seed=0)
            assert cfg.build_graph().n == {"paper5dc": 5, "paper3dc": 3, "tiny": 2}[name]

    def test_input_file_never_mutated(self, tmp_path):
        path = tmp_path / "s.yaml"
        body = yaml.safe_dump({"seed": 3, "policy": {"t_model": 4}})
        path.write_text(body)
        cfg = load_config(str(path), overrides={"policy.t_model": 9})
        assert cfg.data["policy"]["t_model"] == 9
        assert path.read_text() == body

    def test_unknown_policy_kind(self):
        with pytest.raises(ConfigError):
            ScenarioConfig({"policy": {"kind": "magic"}})

    @pytest.mark.parametrize("weights", [
        [1, 1, float("nan"), 1], [1, 1, float("inf"), 1], [1, 1, 1], [1, 1, 1, 1, 1],
        [1, -0.5, 1, 1], [1, "2", 1, 1], [1, True, 1, 1], 1.0,
    ])
    def test_bad_priority_weights(self, weights):
        with pytest.raises(ConfigError):
            ScenarioConfig({"policy": {"weights": weights}})

    @pytest.mark.parametrize("key, value", [
        ("t_model", 0), ("target_sync", 0), ("batch", 0), ("batch", -8),
        ("t_model", 1.5), ("target_sync", "500"), ("batch", True),
        ("credit", "bogus"), ("credit", "timeline"),
        ("buffer", 0), ("count_cap", 0), ("max_actions", 0), ("train_interval", 0),
        ("buffer", 2.5), ("min_buffer", -1), ("min_buffer", 1.0),
        ("hidden", [16]), ("hidden", [16, 0]), ("hidden", [16, 8.0]), ("hidden", 16),
        ("buffer", 63), ("reward", {"step": 0.5}),
        ("episodes", -1), ("episodes", 2.0), ("checkpoint_every", 0),
        ("checkpoint_every", "50"), ("lr", "abc"), ("lr", -1e-3), ("lr", float("nan")),
        ("grad_clip", float("inf")), ("grad_clip", None), ("eps_start", 1.5),
        ("eps_min", "abc"), ("eps_eval", -0.1), ("guide_frac", 2), ("guide_frac", True),
    ])
    def test_bad_dqn_settings(self, key, value):
        # unchecked, each fails mid-run (an index or unpacking error, a zero
        # division, a nan loss, a bad mode) or, for a ring smaller than one
        # batch, trains nothing without a word
        with pytest.raises(ConfigError, match=f"dqn.{key}"):
            ScenarioConfig({"dqn": {key: value}})

    @pytest.mark.parametrize("name, value", [
        ("policy.t_model", 2.5), ("policy.t_model", "abc"), ("policy.t_thresh", -5),
        ("policy.t_thresh", 1.0), ("policy.t_urgency_steps", -1),
        ("policy.t_urgency_steps", "abc"), ("policy.urgency_fraction", "abc"),
        ("policy.urgency_fraction", -0.2), ("policy.urgency_fraction", float("inf")),
        ("run.step_cap", "abc"), ("run.step_cap", 0), ("run.sample_period", -1),
        ("run.sample_period", 1.5), ("topology.generator.n", 0),
        ("topology.generator.n", "5"), ("topology.generator.seed", -1),
        ("topology.generator.seed", "abc"), ("topology.generator.radius_km", -1),
        ("topology.generator.radius_km", float("nan")), ("topology.generator.edge_prob", 1.5),
        ("topology.generator.edge_prob", "abc"), ("topology.generator", 5),
        ("topology.default_capacity_mbps", 0), ("topology.default_capacity_mbps", 0.0004),
        ("topology.default_capacity_mbps", float("inf")),
        ("topology.default_capacity_mbps", "500"),
    ])
    def test_bad_policy_run_and_topology_settings(self, name, value):
        # unchecked, each runs with a meaningless setting (t_model 2.5, a
        # negative threshold, a sample every step) or fails mid-run
        with pytest.raises(ConfigError, match=name):
            ScenarioConfig({}).with_overrides({name: value})

    def test_smallest_policy_run_and_topology_settings_accepted(self):
        ScenarioConfig({
            "topology": {"generator": {"n": 1, "radius_km": 0, "edge_prob": 0},
                         "default_capacity_mbps": 0.001},
            "policy": {"t_thresh": 0, "t_urgency_steps": 0, "urgency_fraction": 0},
            "run": {"step_cap": 1, "sample_period": 0},
            "dqn": {"episodes": 0, "checkpoint_every": 1, "lr": 0, "grad_clip": 0,
                    "eps_start": 1, "eps_min": 0, "eps_eval": 1, "guide_frac": 0},
        })

    @pytest.mark.parametrize("key", ["complete", "drop", "invalid"])
    @pytest.mark.parametrize("value", [-1, -0.5, float("nan"), float("inf"), "10", True])
    def test_bad_reward_magnitudes(self, key, value):
        with pytest.raises(ConfigError, match=f"dqn.reward.{key}"):
            ScenarioConfig({"dqn": {"reward": {key: value}}})

    @pytest.mark.parametrize("key", ["max_storage_gb", "cpus", "ram_gb"])
    @pytest.mark.parametrize("value", [0, -1, 0.0005, float("nan"), float("inf"), 1e308,
                                       "64", True, None])
    def test_bad_datacenter_capacities(self, key, value):
        with pytest.raises(ConfigError, match=f"datacenters.{key}"):
            ScenarioConfig({"datacenters": {key: value}})
        spec = {"max_storage_gb": 10, "cpus": 2, "ram_gb": 4, key: value}
        with pytest.raises(ConfigError, match=rf"datacenters.per_dc\[0\].{key}"):
            ScenarioConfig({"datacenters": {"per_dc": [spec]}})

    @pytest.mark.parametrize("per_dc", [{}, [3], [{"cpus": 2, "ram_gb": 4}],
                                        [{"max_storage_gb": 10, "cpus": 1e200,
                                          "ram_gb": 1e200}],
                                        [{"max_storage_gb": 10, "cpus": 0.001,
                                          "ram_gb": 0.001}]])
    def test_malformed_per_dc_entries(self, per_dc):
        with pytest.raises(ConfigError, match="datacenters.per_dc"):
            ScenarioConfig({"datacenters": {"per_dc": per_dc}})

    def test_smallest_datacenter_capacities_accepted(self):
        cfg = ScenarioConfig({"topology": {"generator": {"n": 2}}, "datacenters": {
            "max_storage_gb": 0.001, "cpus": 1, "ram_gb": 0.001}})
        assert [(dc.max_storage, dc.max_compute)
                for dc in cfg.build_dcs(cfg.build_graph())] == [(1, 1), (1, 1)]

    @pytest.mark.parametrize("step", [0, 0.0])
    def test_zero_step_reward_accepted(self, step):
        ScenarioConfig({"dqn": {"reward": {"step": step}}})

    def test_smallest_dqn_settings_accepted(self):
        ScenarioConfig({"dqn": {"buffer": 8, "batch": 8, "min_buffer": 0,
                                "count_cap": 1, "hidden": [1, 1]}})

    def test_per_dc_specs_build_each_dc(self):
        cfg = ScenarioConfig({"topology": {"generator": {"n": 2}}, "datacenters": {"per_dc": [
            {"max_storage_gb": 100.0, "cpus": 8.0, "ram_gb": 32.0},
            {"max_storage_gb": 300.5, "cpus": 16.0, "ram_gb": 64.0}]}})
        dcs = cfg.build_dcs(cfg.build_graph())
        assert [(dc.max_storage, dc.max_compute) for dc in dcs] == [
            (100_000, 8 * 32 * 1000), (300_500, 16 * 64 * 1000)]

    def test_per_dc_length_must_match_topology(self):
        spec = {"max_storage_gb": 100.0, "cpus": 8.0, "ram_gb": 32.0}
        cfg = ScenarioConfig({"datacenters": {"per_dc": [spec] * 4}})
        with pytest.raises(ConfigError, match="datacenter count 4 != topology nodes 5"):
            cfg.build_dcs(cfg.build_graph())

    def test_datacenter_count_must_match_topology(self):
        cfg = ScenarioConfig({"datacenters": {"count": 4}})
        with pytest.raises(ConfigError):
            cfg.build_dcs(cfg.build_graph())


class TestMappingOverrides:
    """A mapping given to --set merges into the mapping it names, key by key,
    the way a scenario file merges over DEFAULTS."""

    @pytest.fixture
    def scenario(self, tmp_path):
        path = tmp_path / "s.yaml"
        path.write_text(yaml.safe_dump({
            **BUILTIN_SCENARIOS["tiny"],
            "catalog": {"vnfs": {"NAT": {"proc_time": 50}}},
            "policy": {"t_thresh": 300, "t_model": 4, "weights": [1, 2, 1, 1]},
            "requests": {**BUILTIN_SCENARIOS["tiny"]["requests"],
                         "bundle_overrides": {"VS": [1, 2]}},
        }))
        return str(path)

    @staticmethod
    def load(scenario, *pairs):
        return load_config(scenario, overrides=sfcsim.cli._parse_set(list(pairs)))

    def test_catalog_mapping_keeps_the_files_entries(self, scenario):
        # it replaced the whole section, so NAT ran at its default proc_time
        cfg = self.load(scenario, "catalog={sfcs: {CG: {bundle: [0, 0]}}}")
        assert cfg.data["catalog"] == {"vnfs": {"NAT": {"proc_time": 50}},
                                       "sfcs": {"CG": {"bundle": [0, 0]}}}
        catalog = cfg.build_catalog()
        assert catalog.vnfs["NAT"].proc_time == 50 and catalog.sfcs["CG"].bundle == (0, 0)

    def test_section_mapping_keeps_the_files_other_keys(self, scenario):
        # it reset t_thresh and the weights to the defaults
        cfg = self.load(scenario, "policy={t_model: 2}", "dqn={reward: {drop: 2.5}}")
        assert cfg.data["policy"]["t_model"] == 2
        assert cfg.data["policy"]["t_thresh"] == 300
        assert cfg.data["policy"]["weights"] == [1, 2, 1, 1]
        assert cfg.data["dqn"]["reward"] == {**DEFAULTS["dqn"]["reward"], "drop": 2.5}
        assert cfg.data["dqn"]["batch"] == 32

    def test_a_mapping_cannot_clear_a_mapping(self, scenario):
        cfg = self.load(scenario, "requests.bundle_overrides={}", "catalog={}")
        assert cfg.data["requests"]["bundle_overrides"] == {"VS": [1, 2]}
        assert cfg.data["catalog"] == {"vnfs": {"NAT": {"proc_time": 50}}}
        cfg = self.load(scenario, "requests.bundle_overrides={CG: [0, 0]}")
        assert cfg.data["requests"]["bundle_overrides"] == {"VS": [1, 2], "CG": [0, 0]}

    @pytest.mark.parametrize("source", ["tiny", "file", "null-section"])
    def test_dotted_catalog_path_creates_entries(self, source, scenario, tmp_path):
        # it was an unknown override path when the config had no such entry
        if source == "file":
            source = scenario
        elif source == "null-section":
            source = tmp_path / "n.yaml"
            source.write_text(yaml.safe_dump({**BUILTIN_SCENARIOS["tiny"],
                                              "catalog": {"vnfs": None}}))
            source = str(source)
        cfg = self.load(source, "catalog.vnfs.NAT.proc_time=10", "catalog.sfcs.CG.bundle=[0, 0]")
        assert cfg.build_catalog().vnfs["NAT"].proc_time == 10
        assert cfg.data["catalog"]["sfcs"] == {"CG": {"bundle": [0, 0]}}

    @pytest.mark.parametrize("pair, message", [
        ("catalog.vnfs.DPI.vcpu=1", "unknown key 'DPI' in catalog.vnfs"),
        ("catalog.sfcs.CG.latency=5", "unknown key 'latency' in catalog.sfcs.CG"),
        ("catalog.flows.CG.bundle=[0, 0]", "unknown key 'flows' in catalog"),
        ("catalog.vnfs.NAT.proc_time=0", "catalog.vnfs.NAT.proc_time must be an int >= 1"),
        ("catalog.vnfs.NAT.proc_time.steps=6", "unknown override path"),
        ("policy={nope: 1}", "unknown config key 'policy.nope'"),
    ], ids=["unknown-vnf", "unknown-field", "unknown-section", "bad-value", "under-a-leaf",
            "unknown-key"])
    def test_created_entries_are_checked(self, pair, message, scenario):
        with pytest.raises(ConfigError, match=re.escape(message)):
            self.load(scenario, pair)

    def test_other_values_replace(self, scenario):
        with pytest.raises(ConfigError, match="topology.generator must be a mapping, got 5"):
            self.load(scenario, "topology.generator=5")
        cfg = self.load(scenario, "policy.weights=[2, 2, 2, 2]", "catalog.vnfs.NAT=null")
        assert cfg.data["policy"]["weights"] == [2, 2, 2, 2]
        assert cfg.build_catalog().vnfs["NAT"].proc_time == 6

    def test_source_config_is_left_as_it_was(self, scenario):
        cfg = load_config(scenario)
        before = copy.deepcopy(cfg.data)
        out = cfg.with_overrides({"catalog": {"vnfs": {"NAT": {"vcpu": 2}}},
                                  "catalog.sfcs.CG.bundle": [0, 0],
                                  "policy": {"t_model": 2}})
        assert cfg.data == before
        assert out.data["catalog"]["vnfs"]["NAT"] == {"proc_time": 50, "vcpu": 2}
