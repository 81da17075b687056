"""Shared test utilities: in-memory traces, micro-scenarios, dual drivers."""

from __future__ import annotations

import numpy as np

from sfcsim.catalog import load_catalog
from sfcsim.datacenter import DataCenter
from sfcsim.engine import Engine, StepLimitExceeded
from sfcsim.policy import UNINSTALL, PolicyAction
from sfcsim.requestgen import RequestGenerator
from sfcsim.topology import NetworkGraph, to_milli

from reference_sim import RefSim


class ListTrace:
    """Trace sink collecting events as dicts, for comparisons."""

    def __init__(self):
        self.events = []

    def event(self, step, kind, **fields):
        rec = {"step": step, "event": kind}
        rec.update(fields)
        self.events.append(rec)

    def close(self):
        pass


# size -> (DC count range, request count range), upper bounds exclusive
SIZES = {"micro": ((2, 4), (1, 3)), "medium": ((5, 6), (20, 61))}


def micro_scenario(seed: int, size: str = "micro"):
    """A randomized scenario: short chains, a mix of generous and hopeless
    deadlines. "micro" has 2-3 DCs and 1-2 requests; "medium" has 5 DCs and
    20-60 requests, enough for queues, instance reuse and reaps."""
    dc_range, req_range = SIZES[size]
    rng = np.random.default_rng([seed, 0xE0])
    n_dcs = int(rng.integers(*dc_range))
    nodes = [(i, float(np.round(rng.uniform(0, 400), 3)),
              float(np.round(rng.uniform(0, 400), 3))) for i in range(n_dcs)]
    edges = []
    seen = set()
    for i in range(n_dcs):
        j = (i + 1) % n_dcs
        key = (min(i, j), max(i, j))
        if key not in seen and i != j:
            seen.add(key)
            edges.append((key[0], key[1], float(rng.integers(100, 501))))
    for i in range(n_dcs):
        for j in range(i + 1, n_dcs):
            if (i, j) not in seen and rng.random() < 0.5:
                seen.add((i, j))
                edges.append((i, j, float(rng.integers(100, 501))))

    vnf_names = ["NAT", "FW", "VOC", "TM", "WO", "IDPS"]
    overrides = {"sfcs": {}}
    used_types = []
    for name in ("MIoT", "Ind4.0"):
        k = int(rng.integers(1, 4))
        chain = [vnf_names[int(rng.integers(6))] for _ in range(k)]
        e2e = float(rng.choice([0.5, 1.0, 2.0, 5.0, 20.0]))
        overrides["sfcs"][name] = {
            "chain": chain,
            "e2e_ms": e2e,
            "bandwidth": float(np.round(rng.uniform(1, 100), 3)),
        }
        used_types.append(name)
    catalog = load_catalog(overrides)

    n_req = int(rng.integers(*req_range))
    specs = []
    for _ in range(n_req):
        src = int(rng.integers(n_dcs))
        dest = int(rng.integers(n_dcs - 1))
        if dest >= src:
            dest += 1
        specs.append({
            "type": used_types[int(rng.integers(len(used_types)))],
            "src": src,
            "dest": dest,
            "bw": float(np.round(rng.uniform(1, 100), 3)),
        })
    dc_specs = [
        (float(rng.integers(30, 200)), float(rng.integers(2, 9)), float(rng.integers(4, 17)))
        for _ in range(n_dcs)
    ]
    t_thresh = int(rng.choice([5, 20, 60]))
    return catalog, nodes, edges, dc_specs, specs, t_thresh


def run_equivalence(seed: int, max_steps: int = 6000, size: str = "micro"):
    """Drive the engine and the reference sim with one scripted decision
    stream; returns both traces plus final summaries."""
    catalog, nodes, edges, dc_specs, specs, t_thresh = micro_scenario(seed, size)
    rng = np.random.default_rng([seed, 0xEC])

    trace = ListTrace()
    graph = NetworkGraph(nodes, edges, propagation=True)
    dcs = [DataCenter(i, s, c, r) for i, (s, c, r) in enumerate(dc_specs)]
    engine = Engine(graph, dcs, catalog, t_thresh=t_thresh, trace=trace)
    generator = RequestGenerator(catalog, len(dcs), seed)

    ref = RefSim(catalog, nodes, edges, dc_specs, t_thresh, propagation=True)

    records = generator.manual_wave(specs)
    engine.inject(records)
    ref.inject(list(enumerate(specs)))

    while True:
        if engine.idle() and engine.no_instances() and ref.idle() and ref.no_instances():
            break
        if engine.step_no > max_steps:
            raise AssertionError("equivalence run did not terminate")
        ref.step()
        engine.step()
        # scripted policy: decisions computed on the reference's state and
        # replayed verbatim on the engine
        for tag, vname in ref.waiting_heads():
            if rng.random() < 0.3:
                dc = int(rng.integers(len(dcs)))
                ok_ref = ref.allocate_head(tag, dc)
                ok_eng = engine.allocate_head(tag, dc)
                assert ok_ref == ok_eng, (seed, tag, dc, ok_ref, ok_eng)
        if rng.random() < 0.1:
            dc = int(rng.integers(len(dcs)))
            vname = ["NAT", "FW", "VOC", "TM", "WO", "IDPS"][int(rng.integers(6))]
            ok_ref = ref.uninstall_idle(dc, vname)
            ok_eng = engine.apply_action(PolicyAction(UNINSTALL, vname, dc))
            assert ok_ref == ok_eng, (seed, "uninstall", dc, vname)
        engine.check_invariants()

    eng_summary = {
        "done": [(r.tag, r.type_name, r.e2e_steps) for r in engine.done],
        "dropped": [(r.tag, r.type_name, r.drop_step, r.pending) for r in engine.dropped],
        "residuals": engine.graph.residual_snapshot(),
        "resources": [(dc.cur_storage, dc.cur_compute) for dc in engine.dcs],
    }
    ref_summary = {
        "done": ref.done,
        "dropped": ref.dropped,
        "residuals": dict(ref.net.residual),
        "resources": [(to_milli(dc.storage), to_milli(dc.compute)) for dc in ref.dcs],
    }
    return trace.events, ref.events, eng_summary, ref_summary


def stepped_episode(engine, generator, plan, policy, *, t_model=1, sample_period=0,
                    step_cap=200_000):
    """run_episode without time advance: every step runs its passes and the
    policy acts on every tick. The oracle for jumped episodes; returns the
    step the episode ended at."""
    waves = {t: i for i, t in enumerate(plan.times)}
    injected = 0
    while True:
        now = engine.step_no
        if now in waves:
            idx = waves[now]
            if plan.manual is not None:
                engine.inject(generator.manual_wave(list(plan.manual[idx])))
            else:
                engine.inject(generator.generate_wave(idx))
            injected += 1
        if sample_period and now % sample_period == 0:
            engine.metrics.sample_resources(now, engine.dcs)
        if injected == len(plan.times) and engine.idle() and engine.no_instances():
            return now
        if now >= step_cap:
            raise StepLimitExceeded(f"episode exceeded {step_cap} steps")
        engine.step()
        if now % t_model == 0:
            policy.act(engine)
