"""Priority scoring, candidate eligibility, the greedy benchmark sweep."""

import pytest

from sfcsim import policy as policy_module
from sfcsim.catalog import default_catalog, load_catalog
from sfcsim.cli import run_one
from sfcsim.config import load_config, make_runtime
from sfcsim.datacenter import DataCenter
from sfcsim.engine import Engine
from sfcsim.policy import (
    ALLOCATE,
    HeuristicPolicy,
    PolicyAction,
    PriorityWeights,
    allocation_candidates,
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

    def test_float_tie_keeps_the_order_of_the_terms(self):
        # the older, urgent head y on the path to DC 2 ties exactly with the
        # younger head x at its source DC 2; adding w1*p1 + w4*p4 before
        # w2*p2 would round y's total below x's and flip the argmax
        engine, gen = three_dc_engine(weights=PriorityWeights(1.0, 0.2, 1.0, 0.1))
        y = inject_manual(engine, gen, [{"type": "CG", "src": 0, "dest": 2}])[0]
        engine.step_no = 800
        x = inject_manual(engine, gen, [{"type": "CG", "src": 2, "dest": 0}])[0]
        engine.step_no = 7008
        sy, sx = priority(engine, y.tag, 2), priority(engine, x.tag, 2)
        assert (sy.p2_dc_relation, sy.p4_urgency) == (1.0, 1.0)
        assert (sx.p2_dc_relation, sx.p4_urgency) == (2.0, 0.0)
        assert sy.total == sx.total
        assert select_for_allocation(engine, 2, "NAT") == y.tag == naive_select(engine, 2, "NAT")

    def test_bandwidth_change_refreshes_the_table(self):
        # b (older) wins at DC 2 until a reservation on link 0-1 detours a's
        # larger bandwidth through DC 2, in the same step
        engine, gen = three_dc_engine()
        b = inject_manual(engine, gen, [{"type": "CG", "src": 1, "dest": 0, "bw": 10.0}])[0]
        engine.step_no = 1000
        a = inject_manual(engine, gen, [{"type": "CG", "src": 0, "dest": 1, "bw": 100.0}])[0]
        engine.step_no = 2000
        assert select_for_allocation(engine, 2, "NAT") == b.tag
        engine.graph.reserve_bw(engine.graph.select_min_path(0, 1, 450.0), 450.0)
        assert priority(engine, a.tag, 2).p2_dc_relation == 1.0
        assert select_for_allocation(engine, 2, "NAT") == a.tag == naive_select(engine, 2, "NAT")

    @pytest.mark.parametrize("weights", [(1.0, 1.0, 1.0, 0.0), (0.0, 1.0, 1.0, 1.0)],
                             ids=["p1", "p4"])
    def test_step_advance_refreshes_the_table(self, weights):
        # two heads at their source tie on the first step; a step later the
        # shorter deadline is further along (p1) and urgent (p4)
        engine, gen = three_dc_engine(weights=PriorityWeights(*weights), t_urgency_steps=450)
        inject_manual(engine, gen, [{"type": "CG", "src": 0, "dest": 1},
                                    {"type": "MIoT", "src": 0, "dest": 1}])
        assert select_for_allocation(engine, 0, "NAT") == 0
        engine.step_no = 100
        assert select_for_allocation(engine, 0, "NAT") == 1 == naive_select(engine, 0, "NAT")

    def test_deadline_order_swaps_between_consecutive_phases(self):
        # VS (10,000-step deadline, tag 0) and CG (8,000, tag 1, injected 100
        # steps later) wait at their source DC: equal p1 at step 500, so the
        # smaller tag wins, and CG's p1 is the larger one step later
        engine, gen = three_dc_engine()
        vs = inject_manual(engine, gen, [{"type": "VS", "src": 0, "dest": 1}])[0]
        engine.step_no = 100
        cg = inject_manual(engine, gen, [{"type": "CG", "src": 0, "dest": 1}])[0]
        engine.step_no = 500
        assert priority(engine, vs.tag, 0).total == priority(engine, cg.tag, 0).total
        assert select_for_allocation(engine, 0, "NAT") == vs.tag
        engine.step()
        assert engine.step_no == 501
        assert priority(engine, cg.tag, 0).total > priority(engine, vs.tag, 0).total
        assert select_for_allocation(engine, 0, "NAT") == cg.tag == naive_select(engine, 0, "NAT")

    def test_head_injected_mid_phase_is_ranked(self):
        # the first query ranks NAT for this step; a head that starts
        # waiting at the same step must reach the next query
        engine, gen = three_dc_engine()
        inject_manual(engine, gen, [{"type": "CG", "src": 1, "dest": 2}])
        engine.step_no = 10
        assert select_for_allocation(engine, 0, "NAT") == 0
        inject_manual(engine, gen, [{"type": "CG", "src": 0, "dest": 1}])
        assert select_for_allocation(engine, 0, "NAT") == 1 == naive_select(engine, 0, "NAT")

    @pytest.mark.parametrize("order", [("MIoT", "CG"), ("CG", "MIoT")])
    def test_tie_between_on_path_and_off_path_breaks_to_smaller_tag(self, order):
        # at DC 0 the urgent MIoT head (p2 = 0, p4 = 1) ties the fresh CG
        # head on its path (p2 = 1, p4 = 0); whichever came first must win
        engine, gen = three_dc_engine(t_urgency_steps=600)
        specs = {"MIoT": {"type": "MIoT", "src": 1, "dest": 2},
                 "CG": {"type": "CG", "src": 1, "dest": 0}}
        first, second = inject_manual(engine, gen, [specs[name] for name in order])
        s1, s2 = priority(engine, first.tag, 0), priority(engine, second.tag, 0)
        assert s1.total == s2.total and s1.p2_dc_relation != s2.p2_dc_relation
        assert select_for_allocation(engine, 0, "NAT") == first.tag \
            == naive_select(engine, 0, "NAT")

    def test_group_whose_first_tag_left_ranks_by_its_next_tag(self):
        # tags 0 and 2 share a group, tag 1 ties them from another group;
        # once tag 0 is allocated in the phase, tag 1 is the smaller tag
        engine, gen = three_dc_engine()
        same = {"type": "CG", "src": 0, "dest": 1, "bw": 10.0}
        inject_manual(engine, gen, [same, {**same, "bw": 20.0}, same])
        assert len(engine.waiting["NAT"]) == 2
        assert select_for_allocation(engine, 0, "NAT") == 0
        stamp = (engine.step_no, engine.graph.bw_version)
        assert engine.apply_action(PolicyAction(ALLOCATE, "NAT", 0))
        assert (engine.step_no, engine.graph.bw_version) == stamp  # still one phase
        assert select_for_allocation(engine, 0, "NAT") == 1 == naive_select(engine, 0, "NAT")
        assert engine.apply_action(PolicyAction(ALLOCATE, "NAT", 0))
        assert select_for_allocation(engine, 1, "NAT") == 2 == naive_select(engine, 1, "NAT")
        assert engine.apply_action(PolicyAction(ALLOCATE, "NAT", 0))
        assert select_for_allocation(engine, 0, "NAT") is None

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


def cohorts(engine, vtype="NAT"):
    """The (deadline_steps, inject_step) cohorts of a type's waiting groups."""
    return {key[:2] for key in engine.waiting[vtype]}


def select_per_dc(engine, vtype="NAT"):
    """The argmax at every DC, each checked against the naive oracle."""
    picks = []
    for dc in range(len(engine.dcs)):
        pick = select_for_allocation(engine, dc, vtype)
        assert pick == naive_select(engine, dc, vtype), (engine.step_no, dc)
        picks.append(pick)
    return picks


class TestCohortMemo:
    """rank_groups scores each (deadline, inject step) cohort once per build;
    everything else a group's place in the ranking reads is its own."""

    # two NAT heads of one cohort (same type, injected together) whose keys
    # differ in one per-group field; each wins where its p2 is the larger,
    # and ties break to the first. On a 50 Mbps link 0-1 a 100 Mbps
    # request's path from 0 to 1 detours through DC 2.
    @pytest.mark.parametrize("field", ["src", "path", "bw"])
    def test_one_cohort_ranks_each_group_per_dc(self, field):
        engine, gen = three_dc_engine(capacity_01=50.0)
        a = {"type": "CG", "src": 0, "dest": 1, "bw": 10.0}
        b = {**a, **{"src": {"src": 2}, "path": {"dest": 2}, "bw": {"bw": 100.0}}[field]}
        first, second = gen.manual_wave([a, b])
        second.sfc_dc = 0  # for "src": the second chain has moved to DC 0
        engine.inject([first, second])
        engine.step_no = 1000
        engine.check_invariants()
        assert len(engine.waiting["NAT"]) == 2 and len(cohorts(engine)) == 1
        assert select_per_dc(engine) == [first.tag, first.tag, second.tag]

    @pytest.mark.parametrize("shared", ["deadline", "inject"])
    def test_cohort_needs_both_deadline_and_inject_step(self, shared):
        # the older (shared deadline) or the shorter-deadline (shared inject
        # step) head must win everywhere, though the other has the smaller
        # tag: a memo that merged the two cohorts would tie them and pick it
        engine, gen = three_dc_engine()
        spec = {"src": 0, "dest": 1, "bw": 10.0}
        if shared == "deadline":
            younger, older = gen.manual_wave([{"type": "CG", **spec}] * 2)
            engine.inject([older])
            engine.step_no = 1000
            engine.inject([younger])
            loser, winner = younger, older
        else:
            loser, winner = gen.manual_wave([{"type": "VS", **spec}, {"type": "CG", **spec}])
            engine.inject([loser, winner])
        engine.step_no = 2000
        keys = list(engine.waiting["NAT"])
        assert len(keys) == 2 and len(cohorts(engine)) == 2
        assert (keys[0][0] == keys[1][0]) == (shared == "deadline")
        assert (keys[0][1] == keys[1][1]) == (shared == "inject")
        assert loser.tag < winner.tag
        assert select_per_dc(engine) == [winner.tag] * 3

    # with p1 weighted 0 only urgency (p4) tells the two heads apart; the
    # comments give the steps left and, after "<" or ">=", the threshold
    @pytest.mark.parametrize("mode, shared, step", [
        ({"t_urgency_steps": 450}, "deadline", 7600),   # 400 < 450, 500 >= 450
        ({"t_urgency_steps": 450}, "inject", 7600),     # CG 400 < 450, VS 2400 >= 450
        ({"urgency_fraction": 0.2}, "deadline", 6500),  # 1500 < 1600, 1600 >= 1600
        ({"urgency_fraction": 0.2}, "inject", 7000),    # CG 1000 < 1600, VS 3000 >= 2000
    ])
    def test_cohort_urgency_in_both_modes(self, mode, shared, step):
        engine, gen = three_dc_engine(weights=PriorityWeights(0.0, 1.0, 1.0, 1.0), **mode)
        spec = {"src": 0, "dest": 1, "bw": 10.0}
        if shared == "deadline":
            loser, winner = gen.manual_wave([{"type": "CG", **spec}] * 2)
            engine.inject([winner])
            engine.step_no = 100
            engine.inject([loser])
        else:
            loser, winner = gen.manual_wave([{"type": "VS", **spec}, {"type": "CG", **spec}])
            engine.inject([loser, winner])
        engine.step_no = step
        assert priority(engine, winner.tag, 0).p4_urgency == 1.0
        assert priority(engine, loser.tag, 0).p4_urgency == 0.0
        assert select_per_dc(engine) == [winner.tag] * 3

    def test_cohort_totals_are_not_kept_across_builds(self):
        # VS and CG tie until CG turns urgent; each phase's build rescores them
        engine, gen = three_dc_engine(weights=PriorityWeights(0.0, 1.0, 1.0, 1.0),
                                      t_urgency_steps=450)
        spec = {"src": 0, "dest": 1, "bw": 10.0}
        vs, cg = gen.manual_wave([{"type": "VS", **spec}, {"type": "CG", **spec}])
        engine.inject([vs, cg])
        engine.step_no = 7000
        assert select_per_dc(engine) == [vs.tag] * 3
        engine.step_no = 7600
        assert select_per_dc(engine) == [cg.tag] * 3


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
    def drive(scenario, seed, overrides, seen, steps=400, sweep=True):
        """Step a queueing run, checking the argmax against the per-tag
        oracle at each phase's start and after each action. With sweep,
        the phase applies HeuristicPolicy.act's sweep and queries DCs in
        ascending order; without, it tries every (DC, type) pair with heads
        waiting, DCs descending, as a DQN agent may, and asks the same pair
        again after each action, refused ones included."""
        cfg = load_config(scenario, seed=seed).with_overrides({**QUEUEING, **overrides})
        engine, gen, plan = make_runtime(cfg, seed)
        waves = dict(zip(plan.times, range(len(plan.times))))
        dcs = list(range(len(engine.dcs)))
        if not sweep:
            dcs.reverse()
        for _ in range(steps):
            if engine.step_no in waves:
                engine.inject(gen.generate_wave(waves[engine.step_no]))
            engine.step()
            for vname, groups in engine.waiting.items():
                seen["shared"] += any(len(tags) > 1 for tags in groups.values())
                seen["widest"] = max(seen.get("widest", 0), len(groups))
                for dc in dcs:
                    scores = [priority(engine, min(tags), dc) for tags in groups.values()]
                    totals = [sc.total for sc in scores]
                    seen["ties"] += totals.count(max(totals, default=-1.0)) > 1
                    seen["urgent"] += any(sc.p4_urgency for sc in scores)
            if engine.step_no % 20 == 0:
                for tag in engine.live:
                    for dc in dcs:
                        p3 = priority(engine, tag, dc).p3_affinity
                        assert p3 == chain_scan_p3(engine, tag, dc), (tag, dc)
                        seen["p3"] += p3 == 1.0
            # the phase's ranking must answer like the per-tag oracle at
            # its start and after every action, which removes tags from it
            TestGroupedSelectionOracle.check_all(engine, scenario, dcs)
            if sweep:
                for action in allocation_candidates(engine):  # HeuristicPolicy.act's sweep
                    assert engine.apply_action(action), action
                    seen["in_phase"] += 1
                    TestGroupedSelectionOracle.check_all(engine, scenario, dcs)
                continue
            for dc in dcs:
                for vname in engine.catalog.vnfs:
                    if not engine.waiting[vname]:
                        continue
                    ok = engine.apply_action(PolicyAction(ALLOCATE, vname, dc))
                    seen["in_phase" if ok else "refused"] += 1
                    assert select_for_allocation(engine, dc, vname) \
                        == naive_select(engine, dc, vname), (scenario, engine.step_no, dc)
                    TestGroupedSelectionOracle.check_all(engine, scenario, dcs)
        engine.check_invariants()

    @staticmethod
    def check_all(engine, scenario, dcs):
        for vname in engine.waiting:
            for dc in dcs:
                assert select_for_allocation(engine, dc, vname) \
                    == naive_select(engine, dc, vname), (scenario, engine.step_no, dc, vname)

    def test_grouped_argmax_matches_naive(self):
        seen = {"shared": 0, "ties": 0, "urgent": 0, "p3": 0, "in_phase": 0}
        self.drive("paper5dc", 0, {}, seen)
        self.drive("paper5dc", 1, {"policy.t_urgency_steps": 300,
                                   "policy.weights": [0.5, 2.0, 1.5, 3.0]}, seen)
        self.drive("paper3dc", 2, {}, seen)
        self.drive("paper3dc", 3, {"policy.t_urgency_steps": 350,
                                   "policy.weights": [2.0, 0.5, 1.0, 0.25]}, seen)
        # the runs reach multi-tag groups, cross-group ties, urgent heads,
        # allocated heads and allocations inside a phase
        assert all(seen.values()), seen

    def test_twelve_dc_full_sweeps_match_naive(self):
        # a 66-edge mesh: a wave's sweep queries each type at all 12 DCs in
        # one phase, through many groups per type
        seen = {"shared": 0, "ties": 0, "urgent": 0, "p3": 0, "in_phase": 0}
        self.drive("paper5dc", 4, {"topology.generator.n": 12, "policy.t_urgency_steps": 5000},
                   seen, steps=160)
        assert all(seen.values()) and seen["widest"] >= 20, seen

    def test_descending_and_repeated_queries_match_naive(self):
        seen = {"shared": 0, "ties": 0, "urgent": 0, "p3": 0, "in_phase": 0, "refused": 0}
        self.drive("paper5dc", 5, {"policy.t_urgency_steps": 5000}, seen, steps=200,
                   sweep=False)
        self.drive("paper3dc", 6, {}, seen, steps=200, sweep=False)
        assert all(seen.values()), seen

    def test_each_phase_ranks_a_type_at_most_once(self, monkeypatch):
        # one short heuristic episode: builds are counted per (step, bandwidth
        # version, VNF type) that a query reached
        built, queried = {}, set()
        rank, select = policy_module.rank_groups, policy_module.select_for_allocation

        def counting_rank(engine, groups):
            tag = next(iter(next(iter(groups.values()))))
            key = (engine.step_no, engine.graph.bw_version, engine.live[tag].head.vtype)
            built[key] = built.get(key, 0) + 1
            return rank(engine, groups)

        def recording_select(engine, dc, vtype):
            queried.add((engine.step_no, engine.graph.bw_version, vtype))
            return select(engine, dc, vtype)

        monkeypatch.setattr(policy_module, "rank_groups", counting_rank)
        monkeypatch.setattr("sfcsim.engine.select_for_allocation", recording_select)
        cfg = load_config("paper5dc", seed=0).with_overrides(
            {"requests.wave_times": [0, 2500], "policy.kind": "heuristic"})
        run_one(cfg, 0)
        assert built and set(built) == queried
        assert max(built.values()) == 1


class TestHeuristicPolicy:
    def test_idle_wait_when_nothing_pending(self):
        engine, _ = three_dc_engine()
        assert list(allocation_candidates(engine)) == []
        assert HeuristicPolicy().act(engine) is False
        assert engine.invalid_actions == 0

    def test_allocates_idle_instance_at_source(self):
        engine, gen = three_dc_engine()
        nat = engine.catalog.vnfs["NAT"]
        fid = engine.dcs[0].install_vnf(nat, engine.step_no)
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
        engine.step()
        assert list(allocation_candidates(engine)) \
            == [PolicyAction(ALLOCATE, "NAT", dc) for dc in (0, 1, 2)]
        assert HeuristicPolicy().act(engine)
        # each source DC takes its own head; none is left for DC 2, which the
        # live sweep skips instead of asking the engine
        assert [engine.live[tag].head.vnf_dc for tag in (0, 1)] == [0, 1]
        assert not engine.waiting["NAT"]
        assert engine.invalid_actions == 0

    def test_idle_wait_when_resources_exhausted(self):
        engine, gen = three_dc_engine()
        for dc in engine.dcs:
            dc.cur_storage = 0
        inject_manual(engine, gen, [{"type": "CG", "src": 0, "dest": 1}])
        engine.step()
        assert list(allocation_candidates(engine)) == []
        assert HeuristicPolicy().act(engine) is False
        assert engine.live[0].head.vnf_dc is None
        assert engine.waiting["NAT"] and engine.invalid_actions == 0

    def test_deterministic_and_stateless(self):
        policy = HeuristicPolicy()
        placed = []
        for _ in range(2):
            engine, gen = three_dc_engine()
            inject_manual(engine, gen, [{"type": "VoIP", "src": 2, "dest": 0}])
            engine.step()
            # reading the sweep to the end changes nothing
            assert list(allocation_candidates(engine)) == list(allocation_candidates(engine))
            assert policy.act(engine)
            placed.append([(tag, rec.head.vnf_dc, rec.head.func_id)
                           for tag, rec in engine.live.items()])
        assert placed[0] == placed[1]
        assert placed[0][0][:2] == (0, 0)  # the sweep reaches DC 0 first

