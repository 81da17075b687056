"""Command line behaviour: runs, overrides, determinism, exit codes."""

import json
import os

import pytest
import yaml

import sfcsim.cli
from sfcsim.cli import EXIT_CONFIG, EXIT_RUNTIME, main, run_one
from sfcsim.config import ConfigError, ScenarioConfig, load_config, make_runtime
from sfcsim.datacenter import LedgerError
from sfcsim.engine import InvariantError
from sfcsim.topology import TopologyError


def run_cli(args, tmp_path, monkeypatch, subdir="o"):
    out = tmp_path / subdir
    monkeypatch.setenv("SFCSIM_OUTDIR", str(out))
    code = main(args)
    return code, out


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

        first = load_agent(str(ckpt))
        assert first.episode == 2
        code2, out2 = run_cli(["train", "--scenario", "tiny", "--episodes", "1",
                               "--resume", str(ckpt), "--quiet"],
                              tmp_path, monkeypatch, subdir="t2")
        assert code2 == 0
        second = load_agent(str(artifact_dir(out2) / "checkpoint.npz"))
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
                           "--resume", ckpt], tmp_path, monkeypatch, subdir="t2")
        assert code == EXIT_CONFIG
        assert "config error: checkpoint expects branches" in capsys.readouterr().err

    def test_zero_episode_train_checkpoints_initialization(self, tmp_path, monkeypatch):
        code, out = run_cli(["train", "--scenario", "tiny", "--episodes", "0",
                             "--quiet"], tmp_path, monkeypatch)
        assert code == 0
        assert (artifact_dir(out) / "checkpoint.npz").exists()


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
    ])
    def test_bad_dqn_settings(self, key, value):
        # unchecked, each fails mid-run (an index or unpacking error, a zero
        # division, a nan loss, a bad mode) or, for a ring smaller than one
        # batch, trains nothing without a word
        with pytest.raises(ConfigError, match=f"dqn.{key}"):
            ScenarioConfig({"dqn": {key: value}})

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
