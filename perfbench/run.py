"""sfcsim benchmark: time whole episodes, check them against pinned digests.

    python3 perfbench/run.py --workload heuristic-5dc --seed 1 --seconds 40 --trace 0

--trace 0 measures the end-to-end metrics with no tracing; --trace 1 runs
each episode once plain and once traced and reports the per-layer metrics.
Every episode is checked (engine invariants, metric conservation, pinned
outcome digest); the last stdout line is the JSON result. Run from the root
of a source checkout: sfcsim is imported from ./src and nowhere else.
"""

from __future__ import annotations

import os

# One process, one BLAS thread: pinned before numpy is first imported.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import hashlib  # noqa: E402
import itertools  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
PINS_PATH = BENCH_DIR / "pins.json"

from layers import Tracer  # noqa: E402
from workloads import PINS_SCHEMA, WORKLOADS, run_unit, time_setup  # noqa: E402

PER_EPISODE = "count/episode"
SELF = "s/episode"

# (metric, unit); per-episode values are means over the traced episodes
PER_LAYER = [
    ("policy.priority.calls", PER_EPISODE),
    ("policy.priority.self_s", SELF),
    ("policy.select_for_allocation.calls", PER_EPISODE),
    ("policy.select_for_allocation.self_s", SELF),
    ("policy.priority.per_allocation", "calls/alloc"),
    ("policy.act.calls", PER_EPISODE),
    ("policy.act.self_s", SELF),
    ("topology.select_min_path.calls", PER_EPISODE),
    ("topology.select_min_path.self_s", SELF),
    ("topology.select_min_path.found_ratio", "ratio"),
    ("engine.cached_min_path.calls", PER_EPISODE),
    ("engine.cached_min_path.hit_ratio", "ratio"),
    ("topology.bw_updates", PER_EPISODE),
    ("engine.step.calls", PER_EPISODE),
    ("engine.step.self_s", SELF),
    ("datacenter.tick_idle.calls", PER_EPISODE),
    ("datacenter.tick_idle.self_s", SELF),
    ("datacenter.tick_idle.reaped", PER_EPISODE),
    ("engine.apply_action.calls", PER_EPISODE),
    ("engine.apply_action.self_s", SELF),
    ("engine.apply_action.ok_ratio", "ratio"),
    ("datacenter.install_vnf.calls", PER_EPISODE),
    ("datacenter.install_vnf.refused", PER_EPISODE),
    ("datacenter.uninstall_vnf.calls", PER_EPISODE),
    ("dqn.encode.calls", PER_EPISODE),
    ("dqn.encode.self_s", SELF),
    ("dqn.forward.calls", PER_EPISODE),
    ("dqn.forward.self_s", SELF),
    ("dqn.backward.calls", PER_EPISODE),
    ("dqn.backward.self_s", SELF),
    ("dqn.train_step.calls", PER_EPISODE),
    ("dqn.train_step.self_s", SELF),
    ("dqn.replay.push.calls", PER_EPISODE),
    ("dqn.replay.sample.self_s", SELF),
    ("requestgen.generate_wave.self_s", SELF),
    ("metrics.record.self_s", SELF),
    ("trace.event.self_s", SELF),
    ("host.episode_s", "s"),
    ("trace.episode_s", "s"),
    ("trace.overhead", "ratio"),
]

END_TO_END = [
    ("episode_s", "s"),
    ("sim_steps_per_s", "1/s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
]


class BenchError(Exception):
    """The benchmark cannot run here; no result is printed."""


# -- environment ---------------------------------------------------------------

def import_sfcsim() -> None:
    src = ROOT / "src"
    if not (src / "sfcsim" / "__init__.py").is_file():
        raise BenchError(f"no sfcsim sources under {src}")
    sys.path.insert(0, str(src))
    import sfcsim

    if Path(sfcsim.__file__).resolve().parent != (src / "sfcsim").resolve():
        raise BenchError(f"sfcsim imported from {sfcsim.__file__}, not from {src}")


def _git_sha(root: Path) -> str | None:
    head = root / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    ref = ref[5:]
    loose = root / ".git" / ref
    if loose.is_file():
        return loose.read_text().strip()
    packed = root / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    return None


def _src_sha256(src: Path) -> str:
    h = hashlib.sha256()
    for path in sorted(src.rglob("*.py")):
        h.update(str(path.relative_to(src)).encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def _openblas() -> dict:
    """Version from numpy's build record; thread count and core from the library."""
    import ctypes

    import numpy as np

    info = {"build": np.show_config(mode="dicts")["Build Dependencies"]["blas"].get(
        "openblas configuration")}
    libs = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for lib in sorted(libs.glob("libscipy_openblas*.so")) if libs.is_dir() else []:
        try:
            handle = ctypes.CDLL(str(lib))
        except OSError as exc:
            info["error"] = str(exc)
            continue
        for key, suffix, restype in (("threads", "get_num_threads64_", ctypes.c_int),
                                     ("core", "get_corename64_", ctypes.c_char_p)):
            fn = getattr(handle, "scipy_openblas_" + suffix, None)
            if fn is not None:
                fn.restype = restype
                value = fn()
                info[key] = value.decode() if isinstance(value, bytes) else value
    return info


def environment() -> dict:
    import numpy as np

    return {
        "git_sha": _git_sha(ROOT),
        "src_sha256": _src_sha256(ROOT / "src"),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "openblas": _openblas(),
        "blas_threads_env": os.environ["OPENBLAS_NUM_THREADS"],
        "nproc": len(os.sched_getaffinity(0)),
    }


def load_pins(path: Path = PINS_PATH) -> dict:
    data = json.loads(path.read_text())
    if data.get("schema") != PINS_SCHEMA:
        raise BenchError(f"unexpected pins schema {data.get('schema')!r}")
    return data["workloads"]


# -- runs --------------------------------------------------------------------------

def _until(seconds: float, batches) -> None:
    """Call each batch in turn until one more would pass `seconds`; at least one runs."""
    start = time.perf_counter()
    done = 0
    for batch in batches:
        batch()
        done += 1
        if (time.perf_counter() - start) * (done + 1) / done > seconds:
            return


def _metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def timed_run(wl, passes, seconds: float, pins: dict):
    """End-to-end metrics, tracing off, over whole passes of the pool.

    Times are in reference seconds (see workloads.SpeedProbe); the host
    seconds go to the notes. Peak RSS is read after the first pass, so it
    covers the same work in every run; later passes could only add memory
    the allocator kept.
    """
    setup, setup_host = time_setup(wl, list(wl.pool))
    episodes = []
    pass_rss = []
    pass_means = []  # (reference, host) mean seconds per episode of each pass

    def one_pass(order):
        done = []
        for seed in order:
            done.extend(run_unit(wl, seed, pins, probe=True))
        pass_rss.append(_peak_rss_mb())
        timed = [ep for ep in done if ep.seconds is not None]
        if timed:
            pass_means.append((statistics.mean(ep.seconds for ep in timed),
                               statistics.mean(ep.host_seconds for ep in timed)))
        episodes.extend(done)

    _until(seconds, (lambda order=order: one_pass(order) for order in passes))
    timed = [ep for ep in episodes if ep.seconds is not None]
    if not timed:
        raise BenchError(f"every episode raised: {episodes[0].error}")
    metrics = {
        "episode_s": _metric(statistics.median(ref for ref, _ in pass_means), "s"),
        "sim_steps_per_s": _metric(sum(ep.steps for ep in timed)
                                   / sum(ep.seconds for ep in timed), "1/s"),
        "setup_s": _metric(statistics.median(setup), "s"),
        "peak_rss_mb": _metric(pass_rss[0], "MB"),
    }
    notes = {"episodes": len(timed), "passes": len(pass_rss), "setup_samples": len(setup),
             "host_episode_s": statistics.median(host for _, host in pass_means),
             "host_setup_s": statistics.median(setup_host)}
    return episodes, metrics, notes


def traced_run(wl, passes, seconds: float, pins: dict, tracer: Tracer | None = None):
    """Per-layer metrics: each unit runs plain, then traced; digests must agree."""
    tracer = tracer or Tracer()
    plain, traced = [], []

    def unit(seed):
        a = run_unit(wl, seed, pins)
        with tracer:
            b = run_unit(wl, seed, pins, tracer=tracer)
        for x, y in zip(a, b):
            if not y.failed and x.digest != y.digest:
                y.error = "traced outcome differs from the untraced one"
        plain.extend(a)
        traced.extend(b)

    seeds = itertools.chain.from_iterable(passes)
    _until(seconds, (lambda seed=seed: unit(seed) for seed in seeds))
    metrics = layer_metrics(tracer, plain, traced)
    return plain + traced, metrics, {"episodes": len(traced), "spans": len(tracer.spans)}


def layer_metrics(tracer: Tracer, plain, traced) -> dict:
    totals = tracer.layer_totals()
    n = max(1, len(traced))

    def calls(layer):
        return totals[layer].calls if layer in totals else 0

    def ratio(num, den):
        return num / den if den else 0.0

    traced_s = tracer.episode_seconds()
    plain_s = [ep.seconds for ep in plain if ep.seconds is not None]
    traced_med = statistics.median(traced_s) if traced_s else 0.0
    plain_med = statistics.median(plain_s) if plain_s else 0.0
    via_cache = tracer.agg.get(("topology.select_min_path", "engine.cached_min_path"))
    special = {
        "policy.priority.per_allocation": ratio(calls("policy.priority"),
                                                tracer.counts.get("allocations", 0)),
        "topology.select_min_path.found_ratio": ratio(
            tracer.counts.get("topology.select_min_path.found", 0),
            calls("topology.select_min_path")),
        "engine.cached_min_path.hit_ratio": ratio(
            calls("engine.cached_min_path") - (via_cache.calls if via_cache else 0),
            calls("engine.cached_min_path")),
        "topology.bw_updates": (calls("topology.reserve_bw")
                                + calls("topology.release_bw")) / n,
        "datacenter.tick_idle.reaped": tracer.counts.get("datacenter.tick_idle.reaped", 0) / n,
        "engine.apply_action.ok_ratio": ratio(tracer.counts.get("engine.apply_action.ok", 0),
                                              calls("engine.apply_action")),
        "datacenter.install_vnf.refused": tracer.counts.get(
            "datacenter.install_vnf.refused", 0) / n,
        "host.episode_s": plain_med,
        "trace.episode_s": traced_med,
        "trace.overhead": ratio(traced_med, plain_med),
    }
    out = {}
    for name, unit in PER_LAYER:
        if name in special:
            value = special[name]
        elif name.endswith(".calls"):
            value = calls(name[:-len(".calls")]) / n
        elif name.endswith(".self_s"):
            agg = totals.get(name[:-len(".self_s")])
            value = (agg.self_ns if agg else 0) / 1e9 / n
        else:
            raise KeyError(name)
        out[name] = _metric(value, unit)
    return out


# -- entry point --------------------------------------------------------------------

def result_line(episodes, metrics) -> dict:
    failed = sum(ep.failed for ep in episodes)
    return {"correct": failed == 0, "attempted": len(episodes), "failed": failed,
            "metrics": metrics}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--held-out", action="store_true",
                        help="run only the workload's held-out pinned seed")
    args = parser.parse_args(argv)
    try:
        import_sfcsim()
        pins = load_pins()
        wl = WORKLOADS[args.workload]
        passes = itertools.repeat([wl.held_out]) if args.held_out else wl.passes(args.seed)
        run = traced_run if args.trace else timed_run
        episodes, metrics, notes = run(wl, passes, args.seconds, pins)
        env = environment()
    except (BenchError, OSError, ValueError, KeyError) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    print("env " + json.dumps(env, sort_keys=True))
    print("run " + json.dumps({"workload": wl.name, "seed": args.seed, "trace": args.trace,
                               "held_out": args.held_out, **notes}))
    print("episode_seconds " + json.dumps([round(ep.seconds, 4) for ep in episodes
                                           if ep.seconds is not None]))
    for ep in episodes:
        if ep.failed:
            print(f"failed: seed {ep.seed} episode {ep.index}: {ep.error}")
    for name, m in metrics.items():
        print(f"{name:40s} {m['value']:.6g} {m['unit']}")
    print(json.dumps(result_line(episodes, metrics)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
