"""Priority scoring, candidate eligibility, the greedy benchmark sweep."""

import pytest

from sfcsim.catalog import default_catalog, load_catalog
from sfcsim.config import load_config, make_runtime
from sfcsim.datacenter import DataCenter
from sfcsim.engine import Engine
from sfcsim.policy import (
    ALLOCATE,
    IDLE_WAIT,
    HeuristicPolicy,
    PolicyAction,
    PriorityWeights,
    priority,
    select_for_allocation,
)
from sfcsim.requestgen import RequestGenerator
from sfcsim.topology import NetworkGraph

from reference_sim import candidate_set, chain_scan_p3, naive_select


def three_dc_engine(catalog=None, weights=None, capacity_01=500.0, **engine_kw):
    catalog = catalog or default_catalog()
    nodes = [(0, 0.0, 0.0), (1, 100.0, 0.0), (2, 50.0, 80.0)]
    edges = [(0, 1, capacity_01), (1, 2, 500.0), (0, 2, 500.0)]
    graph = NetworkGraph(nodes, edges)
    dcs = [DataCenter(i, 2000, 64, 256) for i in range(3)]
    engine = Engine(graph, dcs, catalog, weights=weights, **engine_kw)
    gen = RequestGenerator(catalog, 3, 0)
    return engine, gen


def inject_manual(engine, gen, specs):
    recs = gen.manual_wave(specs)
    engine.inject(recs)
    return recs


class TestCandidateSet:
    def test_empty_when_no_requests(self):
        engine, _ = three_dc_engine()
        assert candidate_set(engine, 0, "NAT") == []

    def test_head_type_only(self):
        engine, gen = three_dc_engine()
        inject_manual(engine, gen, [{"type": "CG", "src": 0, "dest": 1}])
        assert candidate_set(engine, 0, "NAT") == [0]
        assert candidate_set(engine, 0, "FW") == []

    def test_mid_chain_vnfs_not_eligible(self):
        engine, gen = three_dc_engine()
        inject_manual(engine, gen, [
            {"type": "CG", "src": 0, "dest": 1},    # head NAT, FW mid-chain
            {"type": "CG", "src": 1, "dest": 2},
            {"type": "VoIP", "src": 2, "dest": 0},
        ])
        engine.step()
        engine.allocate_head(2, 2)  # VoIP's NAT head busy now
        assert candidate_set(engine, 0, "NAT") == [0, 1]
        assert candidate_set(engine, 0, "FW") == []

    def test_allocated_head_leaves_pool(self):
        engine, gen = three_dc_engine()
        inject_manual(engine, gen, [{"type": "CG", "src": 0, "dest": 1}])
        engine.step()
        engine.allocate_head(0, 0)
        assert candidate_set(engine, 0, "NAT") == []


class TestPriority:
    def test_fresh_at_source(self):
        engine, gen = three_dc_engine()
        inject_manual(engine, gen, [{"type": "CG", "src": 0, "dest": 1}])
        score = priority(engine, 0, 0)
        assert score.p2_dc_relation == 2.0
        assert score.p3_affinity == 0.0
        assert score.p4_urgency == 0.0
        assert score.p1_deadline == 0.0

    def test_on_path_vs_off_path(self):
        engine, gen = three_dc_engine()
        inject_manual(engine, gen, [{"type": "CG", "src": 0, "dest": 1}])
        assert priority(engine, 0, 1).p2_dc_relation == 1.0  # destination on path
        assert priority(engine, 0, 2).p2_dc_relation == 0.0

    def test_urgency_threshold_boundary(self):
        engine, gen = three_dc_engine(t_urgency_steps=20)
        cat = engine.catalog
        rec = inject_manual(engine, gen, [{"type": "MIoT", "src": 0, "dest": 1}])[0]
        deadline = cat.sfcs["MIoT"].deadline_steps  # 500
        # remaining == t_urgency: not urgent yet
        engine.step_no = rec.inject_step + deadline - 20
        assert priority(engine, 0, 0).p4_urgency == 0.0
        engine.step_no += 1  # remaining == t_urgency - 1
        assert priority(engine, 0, 0).p4_urgency == 1.0

    def test_p1_monotone_in_age(self):
        engine, gen = three_dc_engine()
        inject_manual(engine, gen, [{"type": "CG", "src": 0, "dest": 1}])
        last = -1.0
        for step in range(0, 9000, 500):
            engine.step_no = step
            p1 = priority(engine, 0, 0).p1_deadline
            assert p1 >= last
            assert 0.0 <= p1 <= 1.0
            last = p1

    def test_affinity_when_processing_here(self):
        engine, gen = three_dc_engine()
        inject_manual(engine, gen, [{"type": "CG", "src": 0, "dest": 1}])
        engine.step()
        engine.allocate_head(0, 2)
        assert priority(engine, 0, 2).p3_affinity == 1.0
        assert priority(engine, 0, 0).p3_affinity == 0.0

    def test_weighted_total(self):
        weights = PriorityWeights(0.5, 2.0, 1.0, 3.0)
        engine, gen = three_dc_engine(weights=weights)
        inject_manual(engine, gen, [{"type": "CG", "src": 0, "dest": 1}])
        s = priority(engine, 0, 0)
        assert s.total == 0.5 * s.p1_deadline + 2.0 * s.p2_dc_relation \
            + 1.0 * s.p3_affinity + 3.0 * s.p4_urgency

    def test_unknown_tag(self):
        engine, _ = three_dc_engine()
        with pytest.raises(KeyError):
            priority(engine, 99, 0)

    def test_negative_weights_rejected(self):
        with pytest.raises(ValueError):
            PriorityWeights(-1.0, 1.0, 1.0, 1.0)

    @pytest.mark.parametrize("bad", [float("nan"), float("inf")])
    def test_non_finite_weights_rejected(self, bad):
        with pytest.raises(ValueError):
            PriorityWeights(1.0, 1.0, bad, 1.0)


class TestSelectForAllocation:
    def test_empty_pool(self):
        engine, _ = three_dc_engine()
        assert select_for_allocation(engine, 0, "NAT") is None

    def test_source_wins_over_stranger(self):
        engine, gen = three_dc_engine()
        inject_manual(engine, gen, [
            {"type": "CG", "src": 1, "dest": 2},
            {"type": "CG", "src": 0, "dest": 1},
        ])
        assert select_for_allocation(engine, 0, "NAT") == 1

    def test_equal_scores_break_to_smaller_tag(self):
        engine, gen = three_dc_engine()
        inject_manual(engine, gen, [
            {"type": "CG", "src": 0, "dest": 1},
            {"type": "CG", "src": 0, "dest": 1},
        ])
        assert select_for_allocation(engine, 0, "NAT") == 0

    def test_older_request_outranks(self):
        engine, gen = three_dc_engine()
        inject_manual(engine, gen, [{"type": "CG", "src": 0, "dest": 1}])
        for _ in range(2000):
            engine.step()
        inject_manual(engine, gen, [{"type": "CG", "src": 0, "dest": 1}])
        assert select_for_allocation(engine, 0, "NAT") == 0

    # Each case queues two NAT heads whose score inputs differ in one field
    # only, such that the larger tag must win at DC 2: each field
    # of the waiting-group key has to keep the two tags apart.
    @pytest.mark.parametrize("field", ["deadline", "inject", "src", "sfc_dc", "dest", "bw"])
    def test_each_score_input_separates_groups(self, field):
        # a 50 Mbps link 0-1: a 100 Mbps request's path from 0 to 1 detours
        # through DC 2
        engine, gen = three_dc_engine(capacity_01=50.0)
        a = {"type": "CG", "src": 0, "dest": 1, "bw": 10.0}
        b = dict(a)
        if field == "deadline":
            a["type"] = "VS"  # 10000 steps against CG's 8000
        elif field == "src":
            b["src"] = 2
        elif field == "dest":
            b["dest"] = 2
        elif field == "bw":
            b["bw"] = 100.0
        first, second = gen.manual_wave([a, b])
        if field == "src":
            first.sfc_dc = second.sfc_dc = 1  # both chains have moved to DC 1
        elif field == "sfc_dc":
            second.sfc_dc = 2  # the second chain has moved to DC 2
        if field == "inject":
            engine.inject([second])
            engine.step_no = 1000
            engine.inject([first])
        else:
            engine.inject([first, second])
            engine.step_no = 1000
        engine.check_invariants()
        assert len(engine.waiting["NAT"]) == 2
        assert select_for_allocation(engine, 2, "NAT") == second.tag
        assert naive_select(engine, 2, "NAT") == second.tag

    def test_scaling_all_weights_preserves_argmax(self):
        for scale in (0.25, 1.0, 7.0):
            weights = PriorityWeights(scale, scale, scale, scale)
            engine, gen = three_dc_engine(weights=weights)
            inject_manual(engine, gen, [
                {"type": "MIoT", "src": 1, "dest": 2},
                {"type": "CG", "src": 0, "dest": 1},
                {"type": "VS", "src": 2, "dest": 0},
            ])
            engine.step_no = 300  # MIoT now aged further into its deadline
            assert select_for_allocation(engine, 0, "NAT") == 1
            assert select_for_allocation(engine, 1, "NAT") == 0


# Short heuristic runs where heads queue: small DCs refuse installs, so heads
# wait for instances, age into urgency, and tie across groups.
QUEUEING = {
    "requests.wave_times": [0, 40, 80],
    "datacenters.max_storage_gb": 120.0,
    "requests.bundle_overrides": {"CG": [4, 6], "AugR": [1, 2], "VoIP": [10, 16],
                                  "VS": [5, 8], "MIoT": [4, 6], "Ind4.0": [1, 3]},
}


class TestGroupedSelectionOracle:
    @staticmethod
    def drive(scenario, seed, overrides, seen, steps=400):
        cfg = load_config(scenario, seed=seed).with_overrides({**QUEUEING, **overrides})
        engine, gen, plan = make_runtime(cfg, seed)
        policy = HeuristicPolicy()
        waves = dict(zip(plan.times, range(len(plan.times))))
        for _ in range(steps):
            if engine.step_no in waves:
                engine.inject(gen.generate_wave(waves[engine.step_no]))
            engine.step()
            for vname, groups in engine.waiting.items():
                seen["shared"] += any(len(tags) > 1 for tags in groups.values())
                for dc in range(len(engine.dcs)):
                    assert select_for_allocation(engine, dc, vname) \
                        == naive_select(engine, dc, vname), (scenario, engine.step_no, dc)
                    scores = [priority(engine, min(tags), dc) for tags in groups.values()]
                    totals = [sc.total for sc in scores]
                    seen["ties"] += totals.count(max(totals, default=-1.0)) > 1
                    seen["urgent"] += any(sc.p4_urgency for sc in scores)
            if engine.step_no % 20 == 0:
                for tag in engine.live:
                    for dc in range(len(engine.dcs)):
                        p3 = priority(engine, tag, dc).p3_affinity
                        assert p3 == chain_scan_p3(engine, tag, dc), (tag, dc)
                        seen["p3"] += p3 == 1.0
            policy.act(engine)
        engine.check_invariants()

    def test_grouped_argmax_matches_naive(self):
        seen = {"shared": 0, "ties": 0, "urgent": 0, "p3": 0}
        self.drive("paper5dc", 0, {}, seen)
        self.drive("paper5dc", 1, {"policy.t_urgency_steps": 300,
                                   "policy.weights": [0.5, 2.0, 1.5, 3.0]}, seen)
        self.drive("paper3dc", 2, {}, seen)
        self.drive("paper3dc", 3, {"policy.t_urgency_steps": 350,
                                   "policy.weights": [2.0, 0.5, 1.0, 0.25]}, seen)
        # the runs reach multi-tag groups, cross-group ties, urgent heads
        # and allocated heads
        assert all(seen.values()), seen


class TestHeuristicPolicy:
    def test_idle_wait_when_nothing_pending(self):
        engine, _ = three_dc_engine()
        assert HeuristicPolicy().plan(engine) == [PolicyAction(IDLE_WAIT)]

    def test_allocates_idle_instance_at_source(self):
        engine, gen = three_dc_engine()
        nat = engine.catalog.vnfs["NAT"]
        fid = engine.dcs[0].install_vnf(nat)
        inject_manual(engine, gen, [{"type": "CG", "src": 0, "dest": 1}])
        engine.step()
        HeuristicPolicy().act(engine)
        head = engine.live[0].head
        assert (head.vnf_dc, head.func_id) == (0, fid)

    def test_plan_covers_all_dcs_with_candidates(self):
        engine, gen = three_dc_engine()
        inject_manual(engine, gen, [
            {"type": "CG", "src": 0, "dest": 1},
            {"type": "CG", "src": 1, "dest": 0},
        ])
        plan = HeuristicPolicy().plan(engine)
        assert plan == [PolicyAction(ALLOCATE, "NAT", dc) for dc in (0, 1, 2)]

    def test_idle_wait_when_resources_exhausted(self):
        engine, gen = three_dc_engine()
        for dc in engine.dcs:
            dc.cur_storage = 0
        inject_manual(engine, gen, [{"type": "CG", "src": 0, "dest": 1}])
        engine.step()
        assert HeuristicPolicy().plan(engine) == [PolicyAction(IDLE_WAIT)]

    def test_deterministic_and_stateless(self):
        engine, gen = three_dc_engine()
        inject_manual(engine, gen, [{"type": "VoIP", "src": 2, "dest": 0}])
        policy = HeuristicPolicy()
        assert policy.plan(engine) == policy.plan(engine)


class TestPolicyActionType:
    def test_idle_wait_takes_no_vtype(self):
        with pytest.raises(ValueError):
            PolicyAction(IDLE_WAIT, "NAT", 0)

    def test_allocate_needs_fields(self):
        with pytest.raises(ValueError):
            PolicyAction(ALLOCATE)

    def test_unknown_kind(self):
        with pytest.raises(ValueError):
            PolicyAction("Reboot", "NAT", 0)
