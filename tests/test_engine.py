"""Engine semantics: hand traces of the step passes, TX timing, drops,
conservation, determinism, invariant checks, and a pinned golden run."""

import hashlib
import io
import json

import pytest

from sfcsim.catalog import default_catalog, load_catalog
from sfcsim.datacenter import DataCenter
from sfcsim.config import load_config, make_runtime
from sfcsim.engine import Engine, InvariantError, StepLimitExceeded, run_episode, tx_steps
from sfcsim.policy import (
    ALLOCATE,
    UNINSTALL,
    HeuristicPolicy,
    PolicyAction,
    allocation_candidates,
    select_for_allocation,
)
from sfcsim.requestgen import RequestGenerator, schedule_waves
from sfcsim.topology import NetworkGraph, PathResult, to_milli
from sfcsim.trace import TraceWriter

from helpers import ListTrace, micro_scenario, run_equivalence, stepped_episode
from test_datacenter import expiry_step


def two_dc_graph(capacity=500.0):
    # 200 km apart: 1 ms propagation per hop
    nodes = [(0, 0.0, 0.0), (1, 200.0, 0.0)]
    return NetworkGraph(nodes, [(0, 1, capacity)])


def build(catalog=None, capacity=500.0, t_thresh=10_000):
    catalog = catalog or default_catalog()
    graph = two_dc_graph(capacity)
    dcs = [DataCenter(i, 2000, 64, 256) for i in range(2)]
    trace = ListTrace()
    engine = Engine(graph, dcs, catalog, t_thresh=t_thresh, trace=trace)
    gen = RequestGenerator(catalog, 2, 0)
    return engine, gen, trace


def single_vnf_catalog(e2e_ms=8.0):
    return load_catalog({"sfcs": {"Ind4.0": {"chain": ["NAT"], "e2e_ms": e2e_ms}}})


class TestTxSteps:
    def test_declared_unit_rule(self):
        g = two_dc_graph()
        assert tx_steps(0.004, 4.0, PathResult((0,), 0.0), g) == 1

    def test_zero_packet(self):
        g = two_dc_graph()
        assert tx_steps(0.0, 4.0, PathResult((0,), 0.0), g) == 0
        assert tx_steps(0.0, 4.0, PathResult((0, 1), 200.0), g) == 100

    def test_default_packet_plus_propagation(self):
        g = two_dc_graph()
        assert tx_steps(0.004, 4.0, PathResult((0, 1), 200.0), g) == 101


class TestHeadProcessing:
    def test_single_vnf_completes_after_t_req_steps(self):
        engine, gen, trace = build(single_vnf_catalog())
        engine.inject(gen.manual_wave([{"type": "Ind4.0", "src": 0, "dest": 1, "bw": 70}]))
        engine.step()
        assert engine.allocate_head(0, 0)
        for _ in range(6):
            engine.step()
        done_events = [e for e in trace.events if e["event"] == "proc_done"]
        assert done_events == [
            {"step": 6, "event": "proc_done", "tag": 0, "vtype": "NAT", "dc": 0, "fid": 1}
        ]
        final = [e for e in trace.events if e["event"] == "final_start"]
        assert final[0]["step"] == 6
        assert final[0]["steps"] == 101  # 1 TX step + 100 propagation

    def test_completion_record_and_e2e(self):
        engine, gen, trace = build(single_vnf_catalog(), t_thresh=50)
        engine.inject(gen.manual_wave([{"type": "Ind4.0", "src": 0, "dest": 1, "bw": 70}]))
        engine.step()
        engine.allocate_head(0, 0)
        while not (engine.idle() and engine.no_instances()):
            engine.step()
            assert engine.step_no < 2000
        assert len(engine.done) == 1
        rec = engine.done[0]
        # 1 waiting step + 6 processing + 101 final TX
        assert rec.e2e_steps == 108
        assert rec.e2e_steps <= 800

    def test_remote_allocation_transfers_first(self):
        engine, gen, trace = build(single_vnf_catalog())
        engine.inject(gen.manual_wave([{"type": "Ind4.0", "src": 0, "dest": 1, "bw": 70}]))
        engine.step()
        engine.allocate_head(0, 1)  # not the chain's current DC
        engine.step()
        starts = [e for e in trace.events if e["event"] == "tx_start"]
        assert starts == [{"step": 1, "event": "tx_start", "tag": 0, "src": 0, "dc": 1,
                           "steps": 101, "hops": [0, 1]}]
        assert engine.graph.residual_mbps(0, 1) == 430.0
        assert engine.live[0].sfc_dc == 1
        while engine.step_no <= 102:
            engine.step()
        assert [e for e in trace.events if e["event"] == "tx_end"] == [
            {"step": 102, "event": "tx_end", "tag": 0}
        ]
        assert engine.graph.residual_mbps(0, 1) == 500.0
        # processing runs steps 103..108, final TX is node-local (1 step)
        while not engine.idle():
            engine.step()
        assert engine.done[0].e2e_steps == 110

    def test_no_path_waits_and_retries_on_release(self):
        engine, gen, trace = build(single_vnf_catalog())
        engine.inject(gen.manual_wave([
            {"type": "Ind4.0", "src": 0, "dest": 1, "bw": 300},
            {"type": "Ind4.0", "src": 0, "dest": 1, "bw": 300},
        ]))
        engine.step()
        engine.allocate_head(0, 1)
        engine.allocate_head(1, 1)
        for _ in range(110):
            engine.step()
        starts = [e for e in trace.events if e["event"] == "tx_start"]
        assert [s["tag"] for s in starts] == [0, 1]
        assert starts[0]["step"] == 1
        # the second transfer begins the moment the first one releases
        assert starts[1]["step"] == 102

    def test_blocked_final_tx_retries_on_release(self):
        # both chains finish at step 6 with the same (src, dest, bw), so their
        # final paths share one cache entry; the link carries only one of them
        engine, gen, trace = build(single_vnf_catalog())
        engine.inject(gen.manual_wave([
            {"type": "Ind4.0", "src": 0, "dest": 1, "bw": 300},
            {"type": "Ind4.0", "src": 0, "dest": 1, "bw": 300},
        ]))
        engine.step()
        engine.allocate_head(0, 0)
        engine.allocate_head(1, 0)
        searches = []
        search = engine.graph.select_min_path

        def counted(*args):
            searches.append(engine.step_no)
            return search(*args)

        engine.graph.select_min_path = counted
        while engine.step_no <= 120:
            engine.step()
            engine.check_invariants()
            if engine.step_no == 50:
                assert engine._await_final == {1}
                assert [entry[2] for entry in engine._final_heap] == [0]
        starts = [e for e in trace.events if e["event"] == "final_start"]
        completes = [e for e in trace.events if e["event"] == "complete"]
        assert [s["tag"] for s in starts] == [0, 1]
        assert starts[0]["step"] == 6 and completes[0]["tag"] == 0
        # the first final TX releases the link in the final-TX pass of step
        # 107; the next completion pass, at step 108, starts the second
        assert completes[0]["step"] == 107
        assert starts[1]["step"] == 108
        # while the bandwidth version stands still the retry is a cache hit
        assert searches == [6, 6, 108]


class TestDropPass:
    def test_unallocated_request_drops_past_deadline(self):
        cat = load_catalog({"sfcs": {"MIoT": {"chain": ["NAT"], "e2e_ms": 0.5,
                                              "bandwidth": 10}}})
        engine, gen, trace = build(cat)
        engine.inject(gen.manual_wave([{"type": "MIoT", "src": 0, "dest": 1, "bw": 10}]))
        while engine.live:
            engine.step()
        drops = [e for e in trace.events if e["event"] == "drop"]
        assert drops == [{"step": 51, "event": "drop", "tag": 0, "type": "MIoT",
                          "pending": 1}]
        assert engine.dropped[0].drop_step == 51

    def test_drop_force_revokes_and_releases_tx(self):
        cat = load_catalog({"sfcs": {"MIoT": {"chain": ["NAT", "FW"], "e2e_ms": 0.5,
                                              "bandwidth": 10}}})
        engine, gen, trace = build(cat)
        engine.inject(gen.manual_wave([{"type": "MIoT", "src": 0, "dest": 1, "bw": 10}]))
        engine.step()
        engine.allocate_head(0, 1)  # remote: starts a 101-step TX, deadline is 50
        for _ in range(60):
            engine.step()
        assert not engine.live
        revokes = [e for e in trace.events if e["event"] == "force_revoke"]
        assert revokes and revokes[0]["step"] == 51
        assert engine.graph.residual_mbps(0, 1) == 500.0
        assert engine.dcs[1].in_use_count("NAT") == 0
        engine.check_invariants()

    def test_late_delivery_counted_as_drop(self):
        cat = single_vnf_catalog(e2e_ms=1.0)  # 100-step budget, final TX needs 101
        engine, gen, trace = build(cat)
        engine.inject(gen.manual_wave([{"type": "Ind4.0", "src": 0, "dest": 1, "bw": 70}]))
        engine.step()
        engine.allocate_head(0, 0)
        while not engine.idle():
            engine.step()
        assert engine.done == []
        assert len(engine.dropped) == 1
        assert engine.dropped[0].pending == 0
        completes = [e for e in trace.events if e["event"] == "complete"]
        assert completes[0]["accepted"] is False


class TestActionExecutor:
    def test_allocate_without_candidates_is_invalid(self):
        engine, _, _ = build()
        assert not engine.apply_action(PolicyAction(ALLOCATE, "NAT", 0))
        assert engine.invalid_actions == 1

    def test_allocate_reuses_idle_instance(self):
        engine, gen, trace = build(single_vnf_catalog())
        fid = engine.dcs[0].install_vnf(engine.catalog.vnfs["NAT"], engine.step_no)
        engine.inject(gen.manual_wave([{"type": "Ind4.0", "src": 0, "dest": 1, "bw": 70}]))
        engine.step()
        assert engine.apply_action(PolicyAction(ALLOCATE, "NAT", 0))
        assert engine.live[0].head.func_id == fid
        assert [e for e in trace.events if e["event"] == "install"] == []

    def test_allocate_without_resources_is_invalid(self):
        engine, gen, _ = build(single_vnf_catalog())
        engine.dcs[0].cur_storage = 0
        engine.inject(gen.manual_wave([{"type": "Ind4.0", "src": 0, "dest": 1, "bw": 70}]))
        engine.step()
        assert not engine.apply_action(PolicyAction(ALLOCATE, "NAT", 0))

    def test_uninstall_smallest_idle(self):
        engine, _, trace = build()
        nat = engine.catalog.vnfs["NAT"]
        engine.dcs[0].install_vnf(nat, engine.step_no)
        engine.dcs[0].install_vnf(nat, engine.step_no)
        assert engine.apply_action(PolicyAction(UNINSTALL, "NAT", 0))
        assert list(engine.dcs[0].installed["NAT"]) == [2]

    def test_uninstall_without_idle_is_invalid(self):
        engine, _, _ = build()
        assert not engine.apply_action(PolicyAction(UNINSTALL, "NAT", 0))

    @pytest.mark.parametrize("action", [
        PolicyAction("Reboot", "NAT", 0),
        PolicyAction(ALLOCATE, None, 0),
        PolicyAction(ALLOCATE, "Proxy", 0),
        PolicyAction(ALLOCATE, "NAT", None),
        PolicyAction(ALLOCATE, "NAT", -1),
        PolicyAction(ALLOCATE, "NAT", 2),  # n_dcs
    ], ids=["unknown-kind", "vtype-none", "unknown-vtype", "dc-none", "dc-negative",
            "dc-n-dcs"])
    def test_out_of_range_dc_is_invalid(self, action):
        # a head of each type waits and DC 1 (dcs[-1]) has an idle NAT, so
        # each of these would succeed somewhere if the engine let it through
        engine, gen, _ = build(single_vnf_catalog())
        assert len(engine.dcs) == 2
        engine.dcs[1].install_vnf(engine.catalog.vnfs["NAT"], engine.step_no)
        spec = {"type": "Ind4.0", "src": 0, "dest": 1, "bw": 70}
        engine.inject(gen.manual_wave([spec, spec]))
        engine.step()
        assert engine.apply_action(PolicyAction(ALLOCATE, "NAT", 0))

        def snapshot():
            return (
                engine.graph.residual_snapshot(),
                [(dc.cur_storage, dc.cur_compute,
                  {v: sorted(fids) for v, fids in dc.installed.items()},
                  {v: sorted(fids) for v, fids in dc.idle.items()}, dict(dc.idle_since))
                 for dc in engine.dcs],
                {tag: (rec.head.vnf_dc, rec.head.func_id) for tag, rec in engine.live.items()},
                {v: {key: list(group) for key, group in groups.items()}
                 for v, groups in engine.waiting.items()},
            )

        before, invalid = snapshot(), engine.invalid_actions
        assert engine.waiting["NAT"]
        assert not engine.apply_action(action)
        assert engine.invalid_actions == invalid + 1
        assert snapshot() == before
        engine.check_invariants()


class TestRunEpisode:
    def test_empty_plan_ends_at_step_zero(self):
        engine, gen, _ = build()
        result = run_episode(engine, gen, schedule_waves([]), HeuristicPolicy())
        assert result.steps == 0
        assert result.generated == 0
        assert result.acceptance_ratio is None

    def test_step_cap_guard(self):
        cat = load_catalog({"sfcs": {"MIoT": {"chain": ["NAT"], "e2e_ms": 50.0,
                                              "bandwidth": 10}}})
        engine, gen, _ = build(cat)
        plan = schedule_waves([0], manual=[[{"type": "MIoT", "src": 0, "dest": 1, "bw": 10}]])

        class Lazy:
            def act(self, engine):
                pass

        with pytest.raises(StepLimitExceeded):
            run_episode(engine, gen, plan, Lazy(), step_cap=100)

    def test_conservation_and_termination(self):
        engine, gen, trace = build(t_thresh=50)
        initial_residuals = engine.graph.residual_snapshot()
        plan = schedule_waves([0, 100])
        result = run_episode(engine, gen, plan, HeuristicPolicy(), step_cap=100_000)
        assert result.accepted + result.dropped == result.generated
        assert engine.graph.residual_snapshot() == initial_residuals
        for dc in engine.dcs:
            assert dc.cur_storage == dc.max_storage
            assert dc.cur_compute == dc.max_compute
            assert dc.installed_count() == 0
        engine.check_invariants()

    def test_engine_without_metrics_tallies_outcomes(self):
        engine, gen, _ = build(t_thresh=50)
        result = run_episode(engine, gen, schedule_waves([0, 100]), HeuristicPolicy(),
                             step_cap=100_000)
        metrics = engine.metrics
        assert result.generated == metrics.total_generated() > 0
        assert result.accepted == metrics.total_accepted() == len(engine.done)
        assert result.dropped == sum(metrics.dropped.values()) == len(engine.dropped)
        metrics.check_conservation()

    def test_policy_cadence(self):
        engine, gen, _ = build()
        calls = []

        class Spy:
            def act(self, eng):
                calls.append(eng.step_no - 1)

        plan = schedule_waves([0], manual=[[{"type": "Ind4.0", "src": 0, "dest": 1,
                                             "bw": 70}]])
        run_episode(engine, gen, plan, Spy(), t_model=3, step_cap=5000)
        assert calls[:4] == [0, 3, 6, 9]

    def test_deterministic_traces(self):
        events = []
        for _ in range(2):
            engine, gen, trace = build(t_thresh=60)
            run_episode(engine, gen, schedule_waves([0]), HeuristicPolicy(),
                        step_cap=100_000)
            events.append(trace.events)
        assert events[0] == events[1]


class TestTraceGuard:
    """An engine with no trace builds no events; one with a trace, however
    it was attached, records the same run."""

    @staticmethod
    def one_wave(trace=None, attach=None):
        cfg = load_config("paper5dc", seed=0).with_overrides({"requests.wave_times": [0]})
        engine, gen, plan = make_runtime(cfg, trace=trace)
        if attach is not None:
            engine.trace = attach  # as sfcsim.cli.run_one attaches its TraceWriter
        result = run_episode(engine, gen, plan, HeuristicPolicy())
        return engine, result

    def test_untraced_engine_has_no_trace_and_the_same_outcome(self):
        assert Engine(two_dc_graph(), [], default_catalog()).trace is None
        plain, plain_result = self.one_wave()
        assert plain.trace is None
        traced, traced_result = self.one_wave(trace=ListTrace())
        kinds = {ev["event"] for ev in traced.trace.events}
        assert {"inject", "allocate", "install", "tx_start", "tx_end", "proc_done",
                "final_start", "complete", "reap", "drop"} <= kinds
        assert plain.metrics.summary_dict() == traced.metrics.summary_dict()
        assert plain_result == traced_result

    def test_trace_attached_late_records_the_same_events(self):
        early, _ = self.one_wave(trace=ListTrace())
        late, _ = self.one_wave(attach=ListTrace())
        assert late.trace.events == early.trace.events


class TestInvariantsUnderLoad:
    def test_random_policy_episode_invariants(self):
        from sfcsim.policy import RandomPolicy

        engine, gen, _ = build(t_thresh=80)
        plan = schedule_waves([0, 50])
        policy = RandomPolicy(2, list(engine.catalog.vnfs), seed=5, actions_per_step=6)
        checked = 0

        def on_step(eng):
            nonlocal checked
            if eng.step_no % 97 == 0:
                eng.check_invariants()
                checked += 1

        result = run_episode(engine, gen, plan, policy, step_cap=100_000, on_step=on_step)
        assert checked > 5
        assert result.accepted + result.dropped == result.generated
        engine.check_invariants()


class TestReferenceEquivalence:
    def test_matches_reference_sim(self):
        # a naive re-implementation driven by one scripted decision stream
        for seed in range(40):
            eng_events, ref_events, eng_summary, ref_summary = run_equivalence(seed)
            assert eng_events == ref_events, seed
            assert eng_summary == ref_summary, seed

    def test_matches_reference_sim_medium(self):
        # 5 DCs and 20-60 requests: the reference ages every idle instance
        # every step, the engine pops due entries off an expiry queue
        reused = reaped = 0
        for seed in range(12):
            eng_events, ref_events, eng_summary, ref_summary = run_equivalence(
                seed, size="medium")
            assert eng_events == ref_events, seed
            assert eng_summary == ref_summary, seed
            served = set()
            for ev in eng_events:
                if ev["event"] == "allocate":
                    key = (ev["dc"], ev["vtype"], ev["fid"])
                    reused += key in served  # revoked, then taken again
                    served.add(key)
                reaped += ev["event"] == "reap"
        assert reused > 20 and reaped > 100


class TestWaitingGroupInvariants:
    @staticmethod
    def queued():
        engine, gen, _ = build()
        engine.inject(gen.manual_wave([
            {"type": "CG", "src": 0, "dest": 1},
            {"type": "CG", "src": 0, "dest": 1},
            {"type": "VoIP", "src": 1, "dest": 0},
        ]))
        engine.check_invariants()
        return engine

    def test_same_score_inputs_share_a_group(self):
        engine = self.queued()
        assert sorted(map(list, engine.waiting["NAT"].values())) == [[0, 1], [2]]
        engine.step()
        engine.allocate_head(1, 0)
        engine.allocate_head(2, 0)
        assert [list(g) for g in engine.waiting["NAT"].values()] == [[0]]
        engine.check_invariants()

    def test_misfiled_tag_detected(self):
        engine = self.queued()
        groups = engine.waiting["NAT"]
        key0, key2 = (next(k for k, g in groups.items() if t in g) for t in (0, 2))
        del groups[key0][0]
        groups[key2][0] = None
        with pytest.raises(InvariantError):
            engine.check_invariants()

    def test_allocated_head_left_waiting_detected(self):
        engine = self.queued()
        engine.live[2].head.vnf_dc = 0
        with pytest.raises(InvariantError):
            engine.check_invariants()

    def test_group_out_of_tag_order_detected(self):
        engine = self.queued()
        groups = engine.waiting["NAT"]
        key = next(k for k, g in groups.items() if 0 in g)
        groups[key] = {1: None, 0: None}
        with pytest.raises(InvariantError):
            engine.check_invariants()

    def test_heads_finishing_in_reverse_tag_order_keep_the_group_sorted(self):
        # tag 1's NAT starts a step before tag 0's, so tag 1 joins the FW
        # group first; the group must still read 0, 1 and tag 0 must win
        engine, gen, _ = build()
        engine.inject(gen.manual_wave([{"type": "CG", "src": 0, "dest": 1}] * 2))
        engine.step()
        assert engine.allocate_head(1, 0)
        engine.step()
        assert engine.allocate_head(0, 0)
        orders = []
        while engine.live[0].head.vtype == "NAT":
            engine.step()
            engine.check_invariants()
            orders += [list(g) for g in engine.waiting["FW"].values()]
        assert orders[0] == [1] and orders[-1] == [0, 1]
        assert len(engine.waiting["FW"]) == 1
        assert select_for_allocation(engine, 0, "FW") == 0


class TestPathCache:
    def test_answers_from_memory_equal_fresh_searches_on_paper5dc(self):
        # a full paper5dc heuristic episode, MIoT's drawn bandwidths included:
        # every answer the cache gives from memory must be the search's own,
        # hops and bit-equal length, also after bandwidth moves that cross
        # no edge over the request's threshold
        engine, gen, plan = make_runtime(load_config("paper5dc", seed=0))
        graph = engine.graph
        search = graph.select_min_path
        searches = []

        def counted(*args):
            searches.append(args)
            return search(*args)

        graph.select_min_path = counted
        cached = engine.cached_min_path
        searched_at = {}  # (src, dest, bw) -> bw_version of its last search
        hits = across = stale = 0

        def checked(src, dest, bw):
            nonlocal hits, across, stale
            key = (src, dest, bw)
            had = key in engine._path_cache
            before = len(searches)
            path = cached(src, dest, bw)
            if len(searches) == before:
                fresh = search(src, dest, bw)
                assert (path is None) == (fresh is None), key
                if path is not None:
                    assert path.hops == fresh.hops, key
                    assert path.length_km.hex() == fresh.length_km.hex(), key
                hits += 1
                across += searched_at[key] != graph.bw_version
            else:
                stale += had
                searched_at[key] = graph.bw_version
            return path

        engine.cached_min_path = checked
        result = run_episode(engine, gen, plan, HeuristicPolicy())
        assert result.generated > 1000
        assert len({bw for _, _, bw in searched_at}) > 20  # range bandwidths
        assert across > 0 and stale > 0
        assert hits > 10 * len(searches)

    def test_reserve_for_another_bandwidth_that_crosses_the_threshold_re_searches(self):
        # 100 Mbps asks on a 500 Mbps link: a 10 Mbps reserve leaves 490 and
        # keeps the answer, a 400 Mbps one leaves 90 and takes the link away
        engine, _, _ = build()
        graph = engine.graph
        search = graph.select_min_path
        searches = []

        def counted(*args):
            searches.append(args)
            return search(*args)

        graph.select_min_path = counted
        path = engine.cached_min_path(0, 1, 100.0)
        assert path.hops == (0, 1) and len(searches) == 1
        graph.reserve_bw(path, 10.0)
        assert engine.cached_min_path(0, 1, 100.0) is path and len(searches) == 1
        graph.reserve_bw(path, 400.0)
        assert engine.cached_min_path(0, 1, 100.0) is None and len(searches) == 2
        assert engine.cached_min_path(0, 1, 100.0) is None and len(searches) == 2
        graph.release_bw(path, 400.0)
        assert engine.cached_min_path(0, 1, 100.0).hops == (0, 1) and len(searches) == 3

    def test_bandwidths_with_equal_ledger_units_share_a_version(self):
        graph = two_dc_graph()

        def version(bw):
            return graph.threshold_versions[graph.threshold(bw)]

        a, b = 70.0001, 70.0004
        assert to_milli(a) == to_milli(b) == 70_000
        assert version(a) == version(b) == 0
        assert graph._thresholds == [70_000]
        path = graph.select_min_path(0, 1, a)
        graph.reserve_bw(path, 450.0)  # 500 -> 50: F(70,000) loses the link
        assert version(b) == version(a) == 1
        graph.release_bw(path, 450.0)
        assert version(a) == version(b) == 2
        assert graph._thresholds == [70_000]


class TestTxWaitingInvariants:
    @staticmethod
    def blocked():
        # a 50 Mbps link carries no 70 Mbps TX: tag 0 waits for its in-chain
        # TX to DC 1, tag 1 (processed at DC 0) for its final TX
        engine, gen, _ = build(single_vnf_catalog(), capacity=50.0)
        engine.inject(gen.manual_wave(
            [{"type": "Ind4.0", "src": 0, "dest": 1, "bw": 70}] * 3))
        engine.step()
        engine.allocate_head(0, 1)
        engine.allocate_head(1, 0)
        for _ in range(7):
            engine.step()
        assert engine._await_tx == {0}
        assert engine._await_final == {1}
        engine.check_invariants()
        return engine

    @staticmethod
    def in_final_tx():
        # a node-local final TX reserves no bandwidth, so only the final-TX
        # check can see a corrupted record
        catalog = single_vnf_catalog()
        engine = Engine(two_dc_graph(), [DataCenter(i, 2000, 64, 256) for i in range(2)],
                        catalog)
        gen = RequestGenerator(catalog, 2, 0, allow_loopback=True)
        engine.inject(gen.manual_wave([{"type": "Ind4.0", "src": 0, "dest": 0, "bw": 70}]))
        engine.step()
        engine.allocate_head(0, 0)
        for _ in range(6):
            engine.step()
        assert [entry[2] for entry in engine._final_heap] == [0]
        engine.check_invariants()
        return engine

    def test_missing_tx_wait_detected(self):
        engine = self.blocked()
        engine._await_tx.clear()
        with pytest.raises(InvariantError, match="^TX waiting set"):
            engine.check_invariants()

    def test_unallocated_head_in_tx_wait_detected(self):
        engine = self.blocked()
        engine._await_tx.add(2)
        with pytest.raises(InvariantError, match="^TX waiting set"):
            engine.check_invariants()

    def test_missing_final_wait_detected(self):
        engine = self.blocked()
        engine._await_final.clear()
        with pytest.raises(InvariantError, match="^final-TX waiting set"):
            engine.check_invariants()

    def test_unfinished_chain_in_final_wait_detected(self):
        engine = self.blocked()
        engine._await_final.add(0)
        with pytest.raises(InvariantError, match="^final-TX waiting set"):
            engine.check_invariants()

    def test_final_tx_without_path_detected(self):
        engine = self.in_final_tx()
        engine._final_heap[0][3].tx = None
        with pytest.raises(InvariantError, match="^final-TX tag 0"):
            engine.check_invariants()

    def test_final_tx_record_still_live_detected(self):
        engine = self.in_final_tx()
        engine.live[0] = engine._final_heap[0][3]
        with pytest.raises(InvariantError, match="^final-TX tag 0"):
            engine.check_invariants()


class TestInstanceInvariants:
    @staticmethod
    def allocated():
        # tag 0's head holds NAT/1 at DC 0; tag 1 still waits
        engine, gen, _ = build(single_vnf_catalog())
        engine.inject(gen.manual_wave(
            [{"type": "Ind4.0", "src": 0, "dest": 1, "bw": 70}] * 2))
        engine.step()
        engine.allocate_head(0, 0)
        engine.check_invariants()
        return engine

    def test_leaked_in_use_instance_detected(self):
        engine = self.allocated()
        dc = engine.dcs[1]
        dc.allocate_vnf("NAT", dc.install_vnf(engine.catalog.vnfs["NAT"], engine.step_no))
        with pytest.raises(InvariantError, match="^in-use instances"):
            engine.check_invariants()

    def test_head_on_idle_instance_detected(self):
        engine = self.allocated()
        engine.dcs[0].revoke_vnf("NAT", engine.live[0].head.func_id, engine.step_no)
        with pytest.raises(InvariantError, match="^in-use instances"):
            engine.check_invariants()

    def test_two_heads_on_one_instance_detected(self):
        engine = self.allocated()
        head = engine.live[1].head
        engine._waiting_remove(engine.live[1])
        head.vnf_dc, head.func_id = 0, engine.live[0].head.func_id
        head.proc_start = 0
        with pytest.raises(InvariantError, match="^in-use instances"):
            engine.check_invariants()


class CountingHeuristic(HeuristicPolicy):
    """HeuristicPolicy noting the step of each act: at t_model=1, one per executed step."""

    def __init__(self):
        self.acted = []

    def act(self, engine):
        self.acted.append(engine.step_no - 1)
        return super().act(engine)


class Flagless(HeuristicPolicy):
    """HeuristicPolicy without quiet_after_noop: it keeps every tick."""

    quiet_after_noop = False


def micro_case(seed, size="micro", t_thresh=None):
    def make(trace):
        catalog, nodes, edges, dc_specs, specs, thresh = micro_scenario(seed, size)
        graph = NetworkGraph(nodes, edges, propagation=True)
        dcs = [DataCenter(i, s, c, r) for i, (s, c, r) in enumerate(dc_specs)]
        engine = Engine(graph, dcs, catalog, trace=trace,
                        t_thresh=thresh if t_thresh is None else t_thresh)
        generator = RequestGenerator(catalog, len(dcs), seed)
        return engine, generator, schedule_waves([0], manual=[specs])
    return make


def config_case(name, seed, **overrides):
    cfg = load_config(name, seed=seed).with_overrides(overrides)
    kwargs = {"t_model": int(cfg.data["policy"]["t_model"]),
              "sample_period": int(cfg.data["run"]["sample_period"]),
              "step_cap": int(cfg.data["run"]["step_cap"])}
    return (lambda trace: make_runtime(cfg, seed, trace=trace)), kwargs


def bandwidth_wait_case(trace):
    # DC 1 has no room for NAT, so heads from DC 1 transfer to DC 0; a
    # 100 Mbps link carries one 70 Mbps TX at a time, remote or final
    catalog = single_vnf_catalog(e2e_ms=20.0)
    dcs = [DataCenter(0, 2000, 64, 256), DataCenter(1, 5, 64, 256)]
    engine = Engine(two_dc_graph(capacity=100.0), dcs, catalog, t_thresh=30, trace=trace)
    specs = [{"type": "Ind4.0", "src": src, "dest": 1 - src, "bw": 70}
             for src in (1, 1, 0, 0)]
    return engine, RequestGenerator(catalog, 2, 0), schedule_waves([0, 50], [specs, specs])


def reallocation_case(trace):
    # one NAT instance at DC 0 serves three waves; each idle period is
    # shorter than t_thresh until the last
    catalog = single_vnf_catalog()
    dcs = [DataCenter(i, 2000, 64, 256) for i in range(2)]
    engine = Engine(two_dc_graph(), dcs, catalog, t_thresh=100, trace=trace)
    spec = [{"type": "Ind4.0", "src": 0, "dest": 1, "bw": 70}]
    return engine, RequestGenerator(catalog, 2, 0), schedule_waves([0, 40, 120], [spec] * 3)


def outcome(make, policy, run, **kwargs):
    """(trace text, summary, resource rows, end step, capped) of one episode."""
    sink = io.StringIO()
    engine, gen, plan = make(TraceWriter(sink))
    capped = False
    try:
        run(engine, gen, plan, policy, **kwargs)
    except StepLimitExceeded:
        capped = True
    engine.check_invariants()
    return (sink.getvalue(), engine.metrics.summary_dict(), engine.metrics.resource_rows,
            engine.step_no, capped), engine


def assert_jump_matches_steps(make, **kwargs):
    """A jumped episode, with and without on_step, equals the stepped one:
    trace, summary, resource samples, end step and whether the cap fired."""
    stepped, _ = outcome(make, HeuristicPolicy(), stepped_episode, **kwargs)
    policy = CountingHeuristic()
    jumped, _ = outcome(make, policy, run_episode, **kwargs)
    assert jumped == stepped
    seen = []
    observed, engine = outcome(make, HeuristicPolicy(), run_episode,
                               on_step=lambda eng: seen.append(eng.step_no), **kwargs)
    assert observed == stepped
    assert seen == list(range(1, engine.step_no + 1))
    return stepped, policy.acted


class TestTimeAdvance:
    """run_episode jumps over steps in which nothing can happen, and the
    outcome is exactly that of stepping one at a time."""

    def test_tiny(self):
        make, kwargs = config_case("tiny", 0)
        (_, _, _, steps, _), acted = assert_jump_matches_steps(make, **kwargs)
        assert len(acted) < steps // 2

    def test_micro_scenarios(self):
        for seed in range(30):
            assert_jump_matches_steps(micro_case(seed))
        for seed in range(4):
            assert_jump_matches_steps(micro_case(seed, "medium"))

    @pytest.mark.parametrize("seed", [0, 1])
    def test_paper3dc(self, seed):
        make, kwargs = config_case("paper3dc", seed)
        (_, _, rows, steps, _), acted = assert_jump_matches_steps(make, **kwargs)
        assert rows and len(acted) < steps // 5

    @pytest.mark.parametrize("t_model", [2, 3])
    def test_policy_every_few_steps(self, t_model):
        for seed in range(4):
            assert_jump_matches_steps(micro_case(seed, "medium"), t_model=t_model)
        make, kwargs = config_case("paper3dc", 0, **{"requests.wave_times": [0]})
        assert_jump_matches_steps(make, **{**kwargs, "t_model": t_model})

    def test_zero_idle_threshold(self):
        for seed in range(10):
            assert_jump_matches_steps(micro_case(seed, t_thresh=0))
        make, kwargs = config_case("paper3dc", 0, **{"requests.wave_times": [0],
                                                     "policy.t_thresh": 0})
        assert_jump_matches_steps(make, **kwargs)

    def test_transfers_waiting_for_bandwidth(self):
        (text, _, _, _, _), _ = assert_jump_matches_steps(bandwidth_wait_case, sample_period=7)
        events = [json.loads(line) for line in text.splitlines()[1:]]
        first = {}
        for ev in events:
            first.setdefault((ev["event"], ev.get("tag")), ev["step"])
        # a remote TX and a final TX each start later than they could have
        assert any(first[("tx_start", tag)] > first[("allocate", tag)] + 1
                   for tag in range(8) if ("tx_start", tag) in first)
        assert any(first[("final_start", tag)] > first[("proc_done", tag)]
                   for tag in range(8) if ("final_start", tag) in first)

    def test_instance_taken_again_before_it_expires(self):
        (text, _, _, _, _), acted = assert_jump_matches_steps(reallocation_case)
        events = [json.loads(line) for line in text.splitlines()[1:]]
        assert [ev["event"] for ev in events].count("install") == 1
        assert {ev["fid"] for ev in events if ev["event"] == "allocate"} == {1}
        idle_from = [ev["step"] for ev in events if ev["event"] in ("install", "proc_done")]
        assert [ev["step"] for ev in events if ev["event"] == "reap"] == [idle_from[-1] + 99]
        # an idle period that ended early leaves a stale expiry entry; its
        # expiry step is not executed
        assert not {since + 99 for since in idle_from[:-1]} & set(acted)

    def test_step_cap_inside_a_jump(self):
        make, kwargs = config_case("tiny", 0)
        _, acted = assert_jump_matches_steps(make, **kwargs)
        gap, start = max((b - a, a) for a, b in zip(acted, acted[1:]))
        assert gap > 2
        (_, _, _, end, capped), _ = assert_jump_matches_steps(
            make, **{**kwargs, "step_cap": start + gap // 2})
        assert capped and end == start + gap // 2

    def test_next_due_reads_heap_heads_and_front_stamps(self):
        # after every executed step of a one-wave paper5dc episode, next_due
        # is the earliest heap head or DC expiry, floored at step_no, unless
        # a waiting TX must retry on the next step
        engine, gen, plan = make_runtime(
            load_config("paper5dc", seed=0).with_overrides({"requests.wave_times": [0]}), 0)
        real_next_due = engine.next_due
        seen = {"checks": 0, "by_expiry": 0, "retry": 0, "install_on_empty": 0}

        def next_due(horizon):
            now = engine.step_no
            got = real_next_due(horizon)
            if (engine._await_tx or engine._await_final) \
                    and engine._bw_seen != engine.graph.bw_version:
                seen["retry"] += 1
                assert got == now
                return got
            heads = [heap[0][0] for heap in
                     (engine._drop_heap, engine._event_heap, engine._final_heap) if heap]
            expiries = [step for step in (expiry_step(dc, engine.t_thresh) for dc in engine.dcs)
                        if step is not None]
            assert got == max(now, min([horizon, *heads, *expiries])), now
            seen["checks"] += 1
            seen["by_expiry"] += bool(expiries) and min(expiries) < min([horizon, *heads])
            return got

        class Watching(HeuristicPolicy):
            def act(self, eng):
                empty = {dc.dc_id: dc.installed_count() for dc in eng.dcs if not dc.idle_since}
                applied = super().act(eng)
                seen["install_on_empty"] += any(eng.dcs[dc_id].installed_count() > count
                                                for dc_id, count in empty.items())
                return applied

        engine.next_due = next_due
        result = run_episode(engine, gen, plan, Watching())
        assert result.generated > 100 and all(seen.values()), seen

    def test_policy_without_the_flag_runs_every_step(self):
        make, kwargs = config_case("tiny", 0)
        engine, gen, plan = make(None)
        steps = []
        original = engine.step

        def step():
            steps.append(engine.step_no)
            original()

        engine.step = step
        result = run_episode(engine, gen, plan, Flagless(), **kwargs)
        assert steps == list(range(result.steps))


class PlannedHeuristic(HeuristicPolicy):
    """The heuristic with a plan built before its first allocation: it lists
    every allocation open at the start of the phase, then asks the engine
    for each, so a later entry may find its type emptied and be refused."""

    def act(self, engine):
        actions = list(allocation_candidates(engine))
        for action in actions:
            engine.apply_action(action)
        return bool(actions)


class TestLiveSweep:
    def test_matches_the_pre_built_plan(self):
        """Applying the sweep as it goes skips exactly the allocations a plan
        built up front would have had refused: within a phase an allocation
        only uses things up. The outcome is the same, with no refusal."""
        cases = [(micro_case(seed), {}) for seed in range(30)]
        cases += [(micro_case(seed, "medium"), {}) for seed in range(4)]
        cases += [config_case("paper3dc", seed) for seed in (0, 1)]
        refused = 0
        for make, kwargs in cases:
            planned, plan_engine = outcome(make, PlannedHeuristic(), run_episode, **kwargs)
            live, engine = outcome(make, HeuristicPolicy(), run_episode, **kwargs)
            assert live == planned
            assert engine.invalid_actions == 0
            refused += plan_engine.invalid_actions
        assert refused > 0


class TestGoldenDigest:
    def test_queueing_heuristic_run_is_pinned(self):
        # one wave of the paper5dc bundle: heads wait up to 65 steps for
        # allocation, so any change in scoring, tie-breaking or event order
        # moves one of these digests
        cfg = load_config("paper5dc", seed=0).with_overrides({"requests.wave_times": [0]})
        sink = io.StringIO()
        engine, gen, plan = make_runtime(cfg, trace=TraceWriter(sink))
        result = run_episode(engine, gen, plan, HeuristicPolicy())
        outcome = json.dumps({"summary": engine.metrics.summary_dict(), "steps": result.steps},
                             sort_keys=True, separators=(",", ":"))
        events = sink.getvalue()
        injected = {}
        waits = []
        for line in events.splitlines()[1:]:
            ev = json.loads(line)
            if ev["event"] == "inject":
                injected[ev["tag"]] = ev["step"]
            elif ev["event"] == "allocate" and ev["tag"] in injected:
                waits.append(ev["step"] - injected.pop(ev["tag"]))
        assert max(waits) > 10
        assert (result.steps, result.generated, result.accepted) == (15038, 251, 157)
        assert hashlib.sha256(outcome.encode()).hexdigest() \
            == "942618737569aa25cade5b0e6bfc1f7cfe2979a668a8c390093307b55c7d4f52"
        assert hashlib.sha256(events.encode()).hexdigest() \
            == "a008ecf8afd4ef12664ee3a57a4c105c8255ea7fb30fc1f40075795bd975f099"

    def test_random_policy_run_is_pinned(self):
        # one wave of the paper3dc bundle under the random baseline: every
        # rng draw of the policy, its no-op included, picks an action kind,
        # so a change in how it draws moves the refusal count or a digest
        cfg = load_config("paper3dc", seed=0).with_overrides(
            {"policy.kind": "random", "requests.wave_times": [0]})
        sink = io.StringIO()
        engine, gen, plan = make_runtime(cfg, trace=TraceWriter(sink))
        policy = cfg.build_policy(engine.catalog, engine.graph, cfg.seed)
        result = run_episode(engine, gen, plan, policy)
        outcome = json.dumps({"summary": engine.metrics.summary_dict(), "steps": result.steps,
                              "invalid_actions": engine.invalid_actions},
                             sort_keys=True, separators=(",", ":"))
        events = sink.getvalue()
        kinds = {json.loads(line)["event"] for line in events.splitlines()[1:]}
        assert {"install", "allocate", "uninstall", "drop", "complete"} <= kinds
        assert (result.steps, result.generated, result.accepted, engine.invalid_actions) \
            == (11776, 251, 65, 29721)
        assert hashlib.sha256(outcome.encode()).hexdigest() \
            == "4b63844ac181ee8133abd0969b977dbbdf832fd47d49bf01b56c1f7948e31322"
        assert hashlib.sha256(events.encode()).hexdigest() \
            == "c9a6ba6dbbe89179795875ea64b3f5518f62005dfe273e9a43415b2d92e272b9"
