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
from sfcsim.policy import ALLOCATE, IDLE_WAIT, UNINSTALL, HeuristicPolicy, PolicyAction
from sfcsim.requestgen import RequestGenerator, schedule_waves
from sfcsim.topology import NetworkGraph, PathResult
from sfcsim.trace import TraceWriter

from helpers import ListTrace, run_equivalence


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
    def test_idle_wait_is_valid(self):
        engine, _, _ = build()
        assert engine.apply_action(PolicyAction(IDLE_WAIT))
        assert engine.invalid_actions == 0

    def test_allocate_without_candidates_is_invalid(self):
        engine, _, _ = build()
        assert not engine.apply_action(PolicyAction(ALLOCATE, "NAT", 0))
        assert engine.invalid_actions == 1

    def test_allocate_reuses_idle_instance(self):
        engine, gen, trace = build(single_vnf_catalog())
        fid = engine.dcs[0].install_vnf(engine.catalog.vnfs["NAT"])
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
        engine.dcs[0].install_vnf(nat)
        engine.dcs[0].install_vnf(nat)
        assert engine.apply_action(PolicyAction(UNINSTALL, "NAT", 0))
        assert list(engine.dcs[0].installed["NAT"]) == [2]

    def test_uninstall_without_idle_is_invalid(self):
        engine, _, _ = build()
        assert not engine.apply_action(PolicyAction(UNINSTALL, "NAT", 0))

    def test_out_of_range_dc_is_invalid(self):
        engine, _, _ = build()
        assert not engine.apply_action(PolicyAction(ALLOCATE, "NAT", 9))


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
        assert result.dropped == metrics.total_dropped() == len(engine.dropped)
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
        dc.allocate_vnf("NAT", dc.install_vnf(engine.catalog.vnfs["NAT"]))
        with pytest.raises(InvariantError, match="^in-use instances"):
            engine.check_invariants()

    def test_head_on_idle_instance_detected(self):
        engine = self.allocated()
        engine.dcs[0].revoke_vnf("NAT", engine.live[0].head.func_id)
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
