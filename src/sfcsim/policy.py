"""Placement policy interface, priority-point scoring, and the greedy benchmark.

A policy picks PolicyActions, each a (kind, VNF type, DC) triple, and
checks none of them: Engine.apply_action is the one place an action is
checked, and it refuses and counts a malformed or infeasible one without
touching the state. A policy that wants to do nothing applies nothing. The
greedy benchmark picks only actions that live state says succeed. For
AllocateVnf the concrete SFC is always chosen here, by the four-criterion
priority score.

The engine keeps waiting tags grouped by score_key: every input of a waiting
tag's score, so all tags of one group score the same and the argmax scores
each group once, through its smallest tag, which the engine keeps first.
Within one policy phase the step and the bandwidth version are fixed as
well. A group's DC-independent components (score_row: p1 and p4) read only
its (deadline, inject step) cohort, of which there are far fewer than
groups, so a ranking build computes them once per cohort; the hops of each
group's min path are read from the engine's path cache, which answers from
memory until the feasibility version of the request's bandwidth moves.
Every total is w1*p1 + w2*p2 + w3*p3 + w4*p4 summed in that order, as
priority() sums it: a regrouped float sum can flip an argmax tie.

The argmax reads a ranking that rank_groups builds once per phase and VNF
type, on the type's first query: a heap of every group by its total at
p2 = 0, and per DC a heap of the groups whose p2 is positive there. The
weights are non-negative and float rounding is monotone, so a group's
total never falls as p2 rises; the better top of the two heaps a DC reads
is the argmax. Inside a phase a group only loses tags, so a stale top is
mended when read: an emptied group is popped and a group whose first tag
moved is re-keyed. A head that starts waiting drops its type's ranking.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from heapq import heapify, heappop, heapreplace
from typing import NamedTuple

ALLOCATE = "AllocateVnf"
UNINSTALL = "UninstallVnf"


class PolicyAction(NamedTuple):
    kind: str  # ALLOCATE or UNINSTALL
    vtype: str
    dc: int


@dataclass(frozen=True)
class PriorityScore:
    p1_deadline: float
    p2_dc_relation: float
    p3_affinity: float
    p4_urgency: float
    total: float


@dataclass(frozen=True)
class PriorityWeights:
    w1: float = 1.0
    w2: float = 1.0
    w3: float = 1.0
    w4: float = 1.0

    def __post_init__(self):
        weights = (self.w1, self.w2, self.w3, self.w4)
        if not all(math.isfinite(w) for w in weights):
            raise ValueError("priority weights must be finite")
        if min(weights) < 0:
            raise ValueError("priority weights must be non-negative")


def score_key(record) -> tuple:
    """Every field of a waiting record that its priority score reads.

    A waiting head is unallocated, so p3 is 0 for it; the rest of the score
    depends on the step and the DC asked about, which all tags share, and on
    these fields, none of which changes while the head waits.
    """
    return (record.deadline_steps, record.inject_step, record.src_dc,
            record.sfc_dc, record.dest_dc, record.bw)


def urgency_threshold(engine, record) -> float:
    if engine.t_urgency_steps is not None:
        return engine.t_urgency_steps
    return engine.urgency_fraction * record.deadline_steps


def score_row(engine, record) -> tuple[float, float]:
    """The DC-independent parts of a waiting record's score at the current
    step: (p1, p4). The one place both are computed.

    p1 rises as the deadline nears (1 - remaining fraction, clamped to [0,1]);
    p4 is 1 once remaining time falls below the urgency threshold. Both move
    with the step, so a row holds for one policy phase only.
    """
    remaining = record.deadline_steps - record.t_ccurr(engine.step_no)
    frac = remaining / record.deadline_steps if record.deadline_steps > 0 else 0.0
    p1 = min(1.0, max(0.0, 1.0 - frac))
    p4 = 1.0 if remaining < urgency_threshold(engine, record) else 0.0
    return p1, p4


def dc_relation(engine, record, dc: int) -> float:
    """p2: 2 at the request's source DC, 1 on the current feasible min path
    from the chain's position to the destination, else 0."""
    if dc == record.src_dc:
        return 2.0
    path = engine.cached_min_path(record.sfc_dc, record.dest_dc, record.bw)
    return 1.0 if path is not None and dc in path.hops else 0.0


def priority(engine, tag: int, dc: int) -> PriorityScore:
    """Score one live tag for allocation at a DC, every component shown.

    p1, p2 and p4 are those of score_row and dc_relation. p3 is 1 if an
    allocated VNF of the chain sits in this DC; only the head is ever
    allocated, so p3 is nonzero only when the head is allocated here, never
    for an allocation candidate.
    """
    record = engine.live.get(tag)
    if record is None:
        raise KeyError(f"unknown or finished tag {tag}")
    w = engine.weights
    p1, p4 = score_row(engine, record)
    p2 = dc_relation(engine, record, dc)
    head = record.head
    p3 = 1.0 if head is not None and head.allocated and head.vnf_dc == dc else 0.0
    total = w.w1 * p1 + w.w2 * p2 + w.w3 * p3 + w.w4 * p4
    return PriorityScore(p1, p2, p3, p4, total)


def rank_groups(engine, groups: dict) -> tuple[list, list[list]]:
    """One VNF type's ranking for the policy phase: (base, by_dc).

    Entries are (-total, first tag, group), so a heap's top is the highest
    total, then the smallest tag. base holds every group at its p2 = 0
    total; by_dc[dc] the groups whose p2 at dc is positive, at that total:
    2 at the source DC, 1 at the other DCs of the min path. Totals are
    priority's expression in priority's order, with p3 = 0 for an
    unallocated head.

    Each group is read once, through its score_key and first tag. p1 and p4
    read only a group's (deadline, inject step) cohort, so score_row runs
    once per cohort, on its first group, and the cohort's three totals are
    kept for this build only: they move with the step. The min path's hops
    are read per group.
    """
    live = engine.live
    cached_min_path = engine.cached_min_path
    w = engine.weights
    w1, w2, w3, w4 = w.w1, w.w2, w.w3, w.w4
    p3 = 0.0
    cohorts = {}  # (deadline_steps, inject_step) -> -total at p2 = 0, 1, 2
    base = []
    by_dc = [[] for _ in engine.dcs]
    for (deadline, inject, src, sfc_dc, dest, bw), group in groups.items():
        tag = next(iter(group))
        totals = cohorts.get((deadline, inject))
        if totals is None:
            p1, p4 = score_row(engine, live[tag])
            totals = cohorts[deadline, inject] = (
                -(w1 * p1 + w2 * 0.0 + w3 * p3 + w4 * p4),
                -(w1 * p1 + w2 * 1.0 + w3 * p3 + w4 * p4),
                -(w1 * p1 + w2 * 2.0 + w3 * p3 + w4 * p4))
        off_path, on_path, at_src = totals
        base.append((off_path, tag, group))
        path = cached_min_path(sfc_dc, dest, bw)
        if path is not None:
            entry = (on_path, tag, group)
            for hop in path.hops:
                if hop != src:
                    by_dc[hop].append(entry)
        by_dc[src].append((at_src, tag, group))
    heapify(base)
    for heap in by_dc:
        heapify(heap)
    return base, by_dc


def _top(heap: list):
    """The heap's top entry once it is current, or None when no group is left."""
    while heap:
        neg, tag, group = heap[0]
        if not group:  # its last tag was allocated in this phase
            heappop(heap)
            continue
        first = next(iter(group))
        if first == tag:
            return heap[0]
        heapreplace(heap, (neg, first, group))  # same total, a larger tag
    return None


def select_for_allocation(engine, dc: int, vtype: str) -> int | None:
    """Argmax of priority total over the candidate set; smallest tag on ties.

    Reads the phase's ranking of the type, built on its first query: the
    better of the base top and the top of the DC's heap. A group with
    positive p2 at dc totals at least its base key, and is in the DC's
    heap, so the base top's key is its total whenever the base top wins.
    """
    rankings = engine.phase_rankings()
    ranking = rankings.get(vtype)
    if ranking is None:
        groups = engine.waiting.get(vtype)
        if not groups:
            return None
        ranking = rankings[vtype] = rank_groups(engine, groups)
    base, by_dc = ranking
    best = _top(base)
    if best is None:
        return None
    near = _top(by_dc[dc])
    if near is not None and near[:2] < best[:2]:
        return near[1]
    return best[1]


def allocation_candidates(engine):
    """Yield each allocation that can succeed when the sweep reaches it: per
    DC in ascending id and VNF type in catalog order, one whenever heads of
    that type still wait and the DC has an idle instance of it or room for
    one. An allocation only uses things up, so a caller may apply each
    action before reading the next, and a skipped pair could not succeed."""
    waiting = engine.waiting
    if not any(waiting.values()):  # most steps: nothing to sweep over the DCs for
        return
    for dc in engine.dcs:
        for vname, vtype in engine.catalog.vnfs.items():
            if waiting[vname] and (dc.idle_count(vname) or dc.can_install(vtype)):
                yield PolicyAction(ALLOCATE, vname, dc.dc_id)


class HeuristicPolicy:
    """The benchmark: a greedy sweep over DCs and VNF types.

    Applies each action of allocation_candidates as the sweep yields it, so
    each DC takes at most one head per VNF type per phase; the argmax picks
    the SFC. Never uninstalls; the idle reaper handles cleanup. Stateless and
    deterministic.

    Quiet after a no-op: when the sweep yields nothing, act applies nothing
    and returns False, and another act changes nothing until the engine
    next changes, because a head starts waiting and capacity frees only at
    engine events.
    """

    quiet_after_noop = True  # run_episode may skip ticks after a False act

    def act(self, engine) -> bool:
        """Apply the live sweep; True when it applied any action."""
        applied = False
        for action in allocation_candidates(engine):
            applied |= engine.apply_action(action)
        return applied


class RandomPolicy:
    """A sanity baseline: each of an invocation's draws picks allocate,
    uninstall or a no-op uniformly, then a uniform VNF type and DC."""

    def __init__(self, n_dcs: int, vnf_names, seed: int, actions_per_step: int = 4):
        import numpy as np

        self.rng = np.random.default_rng([int(seed), 0xA11])
        self.n_dcs = n_dcs
        self.vnf_names = list(vnf_names)
        self.actions_per_step = actions_per_step

    def act(self, engine) -> None:
        for _ in range(self.actions_per_step):
            kind = (ALLOCATE, UNINSTALL, None)[int(self.rng.integers(3))]
            if kind is None:  # the no-op draw
                continue
            vname = self.vnf_names[int(self.rng.integers(len(self.vnf_names)))]
            dc = int(self.rng.integers(self.n_dcs))
            engine.apply_action(PolicyAction(kind, vname, dc))
