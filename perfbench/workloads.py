"""The benchmark's workloads, the episode drivers and the outcome digests.

Every run of a workload visits the same pool of episode seeds, one pass
after another; the run seed shuffles the order of each pass. Keeping the
pool fixed keeps the work in a run fixed, so run-to-run spread is timing
noise rather than a change of inputs. The outcome of every pool seed, and
of one held-out seed that normal runs never visit, is pinned in pins.json.
Scenario inputs are built only through load_config(...).with_overrides(...).

Timed (untraced) intervals are reported in reference seconds: host seconds
scaled by a SpeedProbe that runs a fixed chunk of pure-Python work every
PROBE_EVERY engine steps. A shared host can run the same work up to 1.5x
slower for minutes at a time; the probe's time moves with it, so the
scaled figure stays put while the program's own cost does not change.
Host seconds are kept beside the scaled ones.
"""

from __future__ import annotations

import gc
import hashlib
import json
import random
import time
from dataclasses import dataclass

from layers import EPISODE

PINS_SCHEMA = "perfbench-pins-1"


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    kind: str  # "heuristic": one episode per unit; "dqn": one training run per unit
    scenario: str
    overrides: dict
    pool: tuple[int, ...]
    held_out: int

    def config(self, seed: int):
        from sfcsim.config import load_config

        return load_config(self.scenario, seed=seed).with_overrides(self.overrides)

    def passes(self, run_seed: int):
        """Endless passes over the pool, each in an order drawn from the run seed."""
        rng = random.Random(run_seed)
        while True:
            yield rng.sample(list(self.pool), len(self.pool))


WORKLOADS = {w.name: w for w in [
    Workload(
        "heuristic-5dc",
        "the paper's headline scenario; priority scoring dominates, path search is minor",
        "heuristic", "paper5dc", {"policy.kind": "heuristic", "policy.t_model": 1},
        pool=tuple(range(4)), held_out=1001,
    ),
    Workload(
        "heuristic-12dc",
        "a 66-edge full mesh; path search and the idle reaper dominate",
        "heuristic", "paper5dc",
        {"policy.kind": "heuristic", "policy.t_model": 1, "topology.generator.n": 12},
        pool=tuple(range(2)), held_out=1001,
    ),
    Workload(
        "dqn-train-5dc",
        "two DQN training episodes (guided at eps 1, then greedy); the only user of the dqn module",
        "dqn", "paper5dc", {"dqn.episodes": 2},
        pool=tuple(range(2)), held_out=1001,
    ),
]}


# -- digests -------------------------------------------------------------------

def canonical_sha256(obj) -> str:
    text = json.dumps(obj, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


def params_sha256(params: dict) -> str:
    h = hashlib.sha256()
    for name in sorted(params):
        h.update(name.encode())
        h.update(params[name].tobytes())
    return h.hexdigest()


class HashSink:
    """A write-only text sink that keeps the sha256 of what was written."""

    def __init__(self):
        self._h = hashlib.sha256()

    def write(self, text: str) -> None:
        self._h.update(text.encode())

    def hexdigest(self) -> str:
        return self._h.hexdigest()


# -- host speed ------------------------------------------------------------------

REF_CHUNK_S = 0.0016  # probe chunk time that defines one reference second
PROBE_EVERY = 500  # engine steps between probe chunks


def _probe_chunk() -> int:
    total = 0
    for i in range(20_000):
        total += i * i % 7
    return total


class SpeedProbe:
    """Times a fixed chunk of work now and then; its slowdown is the host's."""

    def __init__(self):
        self.times: list[float] = []

    def sample(self) -> None:
        start = time.perf_counter()
        _probe_chunk()
        self.times.append(time.perf_counter() - start)

    def on_step(self, engine) -> None:
        if engine.step_no % PROBE_EVERY == 0:
            self.sample()

    @property
    def seconds(self) -> float:
        return sum(self.times)

    def scale(self, times=None) -> float:
        """Reference seconds per host second over the given probe times."""
        times = self.times if times is None else times
        return REF_CHUNK_S * len(times) / sum(times)


# -- episodes -------------------------------------------------------------------

@dataclass
class Episode:
    seed: int
    index: int  # episode number within the unit (training episode for dqn)
    seconds: float | None = None  # reference seconds when probed, else host seconds
    host_seconds: float | None = None
    steps: int = 0
    digest: str | None = None
    events: str | None = None  # trace event-stream digest, traced heuristic runs only
    error: str | None = None

    @property
    def failed(self) -> bool:
        return self.error is not None


def _check(engine) -> None:
    engine.check_invariants()
    engine.metrics.check_conservation()


def _timed(ep: Episode, tracer, probe, fn):
    """Run fn() and time it into ep, without the probe's own time.

    A traced call is an episode span; a probed call is scaled to
    reference seconds.
    """
    start = time.perf_counter()
    out = fn() if tracer is None else tracer.timed(EPISODE, fn)
    ep.host_seconds = time.perf_counter() - start
    ep.seconds = ep.host_seconds
    if probe is not None and probe.times:
        ep.host_seconds -= probe.seconds
        ep.seconds = ep.host_seconds * probe.scale()
    return out


def heuristic_unit(wl: Workload, seed: int, tracer=None, events: bool = False,
                   probe: bool = False) -> list[Episode]:
    """One episode as sfcsim.cli.run_one runs it, without trace file or export."""
    from sfcsim.config import make_runtime
    from sfcsim.engine import run_episode
    from sfcsim.trace import TraceWriter

    ep = Episode(seed, 0)
    cfg = wl.config(seed)
    sink = HashSink() if events else None
    speed = SpeedProbe() if probe else None

    def episode():
        engine, generator, plan = make_runtime(
            cfg, seed, trace=TraceWriter(sink) if sink is not None else None)
        policy = cfg.build_policy(engine.catalog, engine.graph, seed)
        run_cfg = cfg.data["run"]
        result = run_episode(engine, generator, plan, policy,
                             t_model=int(cfg.data["policy"]["t_model"]),
                             sample_period=int(run_cfg["sample_period"]),
                             step_cap=int(run_cfg["step_cap"]),
                             on_step=speed.on_step if speed is not None else None)
        return engine, result

    try:
        engine, result = _timed(ep, tracer, speed, episode)
        ep.steps = result.steps
        _check(engine)
        ep.digest = canonical_sha256({"summary": engine.metrics.summary_dict(),
                                      "steps": result.steps})
        if sink is not None:
            ep.events = sink.hexdigest()
    except Exception as exc:  # a failed episode is counted, the run goes on
        ep.error = f"{type(exc).__name__}: {exc}"
    return [ep]


def dqn_unit(wl: Workload, seed: int, tracer=None, events: bool = False,
             probe: bool = False) -> list[Episode]:
    """One training run through sfcsim.dqn.train, timing each training episode.

    make_runtime and run_episode are replaced where run_training_episode
    looks them up: the first to capture each episode's engine, so its
    invariants can be checked once the episode ends, the second to hand
    the probe to the engine loop.
    """
    import sfcsim.config as config_mod
    import sfcsim.dqn as dqn_mod
    import sfcsim.engine as engine_mod

    cfg = wl.config(seed)
    real_runtime = config_mod.make_runtime
    real_run = engine_mod.run_episode
    real_episode = dqn_mod.run_training_episode
    episodes: list[Episode] = []
    current: dict = {}

    def make_runtime(*args, **kwargs):
        runtime = real_runtime(*args, **kwargs)
        current["engine"] = runtime[0]
        return runtime

    def run_episode(*args, **kwargs):
        if current["probe"] is not None:
            kwargs["on_step"] = current["probe"].on_step
        return real_run(*args, **kwargs)

    def run_training_episode(*args, **kwargs):
        ep = Episode(seed, len(episodes))
        episodes.append(ep)
        current["probe"] = SpeedProbe() if probe else None
        return _timed(ep, tracer, current["probe"], lambda: real_episode(*args, **kwargs))

    def progress(row):
        ep = episodes[-1]
        engine = current["engine"]
        ep.steps = engine.step_no
        try:
            _check(engine)
        except Exception as exc:
            ep.error = f"{type(exc).__name__}: {exc}"
        ep.digest = {"row": row, "summary": engine.metrics.summary_dict(),
                     "steps": engine.step_no}

    config_mod.make_runtime = make_runtime
    engine_mod.run_episode = run_episode
    dqn_mod.run_training_episode = run_training_episode
    try:
        result = dqn_mod.train(cfg, progress=progress)
    except Exception as exc:
        if not episodes:
            episodes.append(Episode(seed, 0))
        episodes[-1].error = episodes[-1].error or f"{type(exc).__name__}: {exc}"
        result = None
    finally:
        config_mod.make_runtime = real_runtime
        engine_mod.run_episode = real_run
        dqn_mod.run_training_episode = real_episode
    for i, ep in enumerate(episodes):
        if not isinstance(ep.digest, dict):
            ep.error = ep.error or "episode did not finish"
            ep.digest = None
            continue
        if i == len(episodes) - 1 and result is not None:
            ep.digest["params"] = params_sha256(result.agent.online.params)
        ep.digest = canonical_sha256(ep.digest)
    return episodes


UNITS = {"heuristic": heuristic_unit, "dqn": dqn_unit}


def run_unit(wl: Workload, seed: int, pins: dict, tracer=None,
             probe: bool = False) -> list[Episode]:
    """Run one unit and mark every episode that misses its pinned digest."""
    gc.collect()
    events = tracer is not None and wl.kind == "heuristic"
    episodes = UNITS[wl.kind](wl, seed, tracer=tracer, events=events, probe=probe)
    pinned = pins.get(wl.name, {})
    outcome = pinned.get("outcome", {}).get(str(seed))
    for ep in episodes:
        if ep.failed:
            continue
        if outcome is None or ep.index >= len(outcome) or outcome[ep.index] != ep.digest:
            ep.error = f"outcome digest {ep.digest} does not match the pin"
        elif events and pinned.get("events", {}).get(str(seed)) != ep.events:
            ep.error = f"event-stream digest {ep.events} does not match the pin"
    if wl.kind == "dqn" and outcome is not None and len(episodes) < len(outcome):
        episodes[-1].error = episodes[-1].error or "training stopped early"
    return episodes


# -- set-up -----------------------------------------------------------------------

def setup_once(wl: Workload, seed: int) -> None:
    """What a user pays before the first step: config, runtime, policy, agent."""
    from sfcsim.config import make_runtime

    cfg = wl.config(seed)
    engine, _, _ = make_runtime(cfg, seed)
    cfg.build_policy(engine.catalog, engine.graph, seed)
    if wl.kind == "dqn":
        from sfcsim.dqn import build_agent

        build_agent(cfg, seed)


def time_setup(wl: Workload, seeds: list[int], reps: int = 25,
               budget_s: float = 1.0) -> tuple[list[float], list[float]]:
    """Time set-up `reps` times (fewer if over budget) after one warm-up.

    Returns (reference seconds, host seconds); each set-up is scaled by the
    probe chunks just before and just after it.
    """
    setup_once(wl, seeds[0])
    probe = SpeedProbe()
    probe.sample()
    host = []
    deadline = time.perf_counter() + budget_s
    for i in range(reps):
        gc.collect()
        start = time.perf_counter()
        setup_once(wl, seeds[i % len(seeds)])
        host.append(time.perf_counter() - start)
        probe.sample()
        if time.perf_counter() > deadline:
            break
    ref = [t * probe.scale(probe.times[i:i + 2]) for i, t in enumerate(host)]
    return ref, host


# -- pins ------------------------------------------------------------------------

def pin_workload(wl: Workload, seeds=None) -> dict:
    """Pin every pool seed and the held-out seed of a workload.

    Each seed runs untraced and then traced; the two outcome digests must
    agree, which also checks that the tracing wrappers change nothing.
    """
    from layers import Tracer

    seeds = list(wl.pool) + [wl.held_out] if seeds is None else list(seeds)
    out: dict = {"outcome": {}}
    if wl.kind == "heuristic":
        out["events"] = {}
    for seed in seeds:
        plain = UNITS[wl.kind](wl, seed)
        with Tracer() as tracer:
            traced = UNITS[wl.kind](wl, seed, tracer=tracer, events=wl.kind == "heuristic")
        for a, b in zip(plain, traced):
            if a.failed or b.failed:
                raise RuntimeError(f"{wl.name} seed {seed}: {a.error or b.error}")
            if a.digest != b.digest:
                raise RuntimeError(f"{wl.name} seed {seed}: traced outcome differs")
        out["outcome"][str(seed)] = [ep.digest for ep in plain]
        if wl.kind == "heuristic":
            out["events"][str(seed)] = traced[0].events
    return out
