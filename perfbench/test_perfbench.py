"""Tests of the benchmark itself: python3 -m pytest -q perfbench"""

from __future__ import annotations

import json
import re
import shutil
import subprocess
import sys

import pytest

import run
from layers import EPISODE, TARGETS, Tracer
from workloads import WORKLOADS, Workload, pin_workload, run_unit

run.import_sfcsim()

NAME = re.compile(r"[A-Za-z0-9_.-]+")

# Cheap stand-ins for the real workloads: one request wave on paper5dc, and
# the two-request tiny scenario trained for two episodes.
SMALL = {
    "heuristic": Workload("small-heuristic", "test", "heuristic", "paper5dc",
                          {"requests.wave_times": [0]}, pool=(3,), held_out=4),
    "dqn": Workload("small-dqn", "test", "dqn", "tiny",
                    {"dqn.episodes": 2, "dqn.min_buffer": 4, "dqn.batch": 4},
                    pool=(3,), held_out=4),
}


@pytest.fixture(scope="module")
def pins():
    return {wl.name: pin_workload(wl, seeds=wl.pool) for wl in SMALL.values()}


@pytest.fixture(scope="module")
def traced(pins):
    out = {}
    for kind, wl in SMALL.items():
        tracer = Tracer()
        episodes, metrics, _ = run.traced_run(wl, wl.passes(0), 0.0, pins, tracer=tracer)
        out[kind] = (episodes, metrics, tracer)
    return out


def test_metric_names_and_units_match_benchmark_json():
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == run.END_TO_END
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == run.PER_LAYER
    assert {w["name"]: w["why"] for w in spec["workloads"]} == {
        w.name: w.why for w in WORKLOADS.values()}
    for name, _ in run.END_TO_END + run.PER_LAYER:
        assert NAME.fullmatch(name), name


def test_pins_cover_every_pool_seed_and_the_held_out_seed():
    pins = run.load_pins()
    for wl in WORKLOADS.values():
        seeds = {str(s) for s in wl.pool} | {str(wl.held_out)}
        assert set(pins[wl.name]["outcome"]) == seeds
        if wl.kind == "heuristic":
            assert set(pins[wl.name]["events"]) == seeds


@pytest.mark.parametrize("kind", ["heuristic", "dqn"])
def test_traced_run_reports_every_layer_metric(traced, kind):
    episodes, metrics, tracer = traced[kind]
    assert episodes and not any(ep.failed for ep in episodes)
    assert [name for name, _ in run.PER_LAYER] == list(metrics)
    for name, m in metrics.items():
        assert NAME.fullmatch(name)
        assert m["value"] >= 0, name
    # one traced episode per unit here, so per-episode values are that episode's
    n_traced = len(episodes) // 2
    self_s = sum(m["value"] for name, m in metrics.items() if name.endswith(".self_s"))
    assert self_s <= metrics["trace.episode_s"]["value"] * n_traced
    totals = tracer.layer_totals()
    layer_self = sum(a.self_ns for name, a in totals.items() if name != EPISODE)
    assert layer_self <= totals[EPISODE].total_ns
    assert all(a.self_ns >= 0 for a in tracer.agg.values())


def test_dqn_layers_are_zero_on_heuristic_and_used_in_training(traced):
    heuristic = traced["heuristic"][1]
    dqn = traced["dqn"][1]
    for name, _ in run.PER_LAYER:
        if name.startswith("dqn."):
            assert heuristic[name]["value"] == 0, name
            if name.endswith(".calls"):
                assert dqn[name]["value"] > 0, name
    assert heuristic["policy.priority.calls"]["value"] > 0
    assert heuristic["trace.event.self_s"]["value"] > 0


def test_uninstall_restores_every_wrapped_function():
    import importlib

    def resolve(module, path):
        owner = importlib.import_module(module)
        *outer, attr = path.split(".")
        for part in outer:
            owner = getattr(owner, part)
        return owner.__dict__[attr]

    before = [resolve(m, p) for _, m, p, _ in TARGETS]
    with pytest.raises(RuntimeError):
        with Tracer():
            during = [resolve(m, p) for _, m, p, _ in TARGETS]
            assert all(a is not b for a, b in zip(before, during))
            raise RuntimeError("leave the block early")
    assert [resolve(m, p) for _, m, p, _ in TARGETS] == before


def test_self_time_excludes_children_exactly():
    tracer = Tracer()

    def inner():
        return sum(range(1000))

    def outer():
        return tracer.timed("inner", inner) + tracer.timed("inner", inner, keep_span=False)

    assert tracer.timed("outer", outer) == 2 * sum(range(1000))
    o = tracer.agg[("outer", None)]
    i = tracer.agg[("inner", "outer")]
    assert i.calls == 2 and i.self_ns == i.total_ns
    assert o.self_ns + i.total_ns == o.total_ns
    outer_id = next(s[0] for s in tracer.spans if s[1] == "outer")
    assert [s[4] for s in tracer.spans if s[1] == "inner"] == [outer_id]


@pytest.mark.parametrize("kind", ["heuristic", "dqn"])
def test_timed_run_reports_every_end_to_end_metric(pins, kind):
    wl = SMALL[kind]
    episodes, metrics, notes = run.timed_run(wl, wl.passes(0), 0.0, pins)
    assert run.result_line(episodes, metrics)["correct"]
    assert [(name, m["unit"]) for name, m in metrics.items()] == run.END_TO_END
    assert all(m["value"] > 0 for m in metrics.values())
    for ep in episodes:
        # probed: the probe's own time is taken out before scaling
        assert 0 < ep.host_seconds and 0 < ep.seconds
    assert notes["host_episode_s"] > 0 and notes["setup_samples"] >= 1


@pytest.mark.parametrize("kind", ["heuristic", "dqn"])
def test_corrupted_pin_is_a_failed_episode_not_a_crash(pins, kind):
    wl = SMALL[kind]
    bad = json.loads(json.dumps(pins))
    seed = str(wl.pool[0])
    bad[wl.name]["outcome"][seed][-1] = "0" * 64
    episodes = run_unit(wl, wl.pool[0], bad)
    result = run.result_line(episodes, {})
    assert result["failed"] == 1 and not result["correct"]
    assert "does not match the pin" in episodes[-1].error
    assert run.result_line(run_unit(wl, wl.pool[0], pins), {})["correct"]


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(run.BENCH_DIR, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "heuristic-5dc", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
