"""Priority scoring, candidate eligibility, the greedy benchmark sweep."""

import pytest

from sfcsim.catalog import default_catalog, load_catalog
from sfcsim.datacenter import DataCenter
from sfcsim.engine import Engine
from sfcsim.policy import (
    ALLOCATE,
    IDLE_WAIT,
    HeuristicPolicy,
    PolicyAction,
    PriorityWeights,
    candidate_set,
    priority,
    select_for_allocation,
)
from sfcsim.requestgen import RequestGenerator
from sfcsim.topology import NetworkGraph


def three_dc_engine(catalog=None, weights=None, **engine_kw):
    catalog = catalog or default_catalog()
    nodes = [(0, 0.0, 0.0), (1, 100.0, 0.0), (2, 50.0, 80.0)]
    edges = [(0, 1, 500.0), (1, 2, 500.0), (0, 2, 500.0)]
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
