"""Placement policy interface, priority-point scoring, and the greedy benchmark.

A policy plans PolicyActions; the engine applies them through a constrained
executor that can only perform valid operations. For AllocateVnf the concrete
SFC is always chosen here, by the four-criterion priority score.

The engine keeps waiting tags grouped by score_key: every input of a waiting
tag's score, so all tags of one group score the same and the argmax scores
each group once, through its smallest tag. Within one policy phase the step
and the bandwidth version are fixed as well, so a group's DC-independent
components (score_row: p1, p4, the source DC and, once needed, the hops of
its min path) are computed once per phase into the engine's score table, and
per DC only p2 is read from the row. Every total is w1*p1 + w2*p2 + w3*p3 +
w4*p4 summed in that order, as priority() sums it: a regrouped float sum can
flip an argmax tie.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

ALLOCATE = "AllocateVnf"
UNINSTALL = "UninstallVnf"
IDLE_WAIT = "IdleWait"


@dataclass(frozen=True)
class PolicyAction:
    kind: str
    vtype: str | None = None  # None only for IdleWait
    dc: int | None = None

    def __post_init__(self):
        if self.kind == IDLE_WAIT:
            if self.vtype is not None:
                raise ValueError("IdleWait takes no vtype")
        elif self.kind in (ALLOCATE, UNINSTALL):
            if self.vtype is None or self.dc is None:
                raise ValueError(f"{self.kind} needs vtype and dc")
        else:
            raise ValueError(f"unknown action kind {self.kind!r}")


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


def score_row(engine, record) -> list:
    """The DC-independent parts of a waiting record's score at the current
    step: [p1, p4, src_dc, hops].

    p1 rises as the deadline nears (1 - remaining fraction, clamped to [0,1]);
    p4 is 1 once remaining time falls below the urgency threshold. hops, the
    DCs on the current feasible min path from the chain's position to the
    destination, stays None until dc_relation first needs it, so a record
    only ever scored at its source DC never searches a path.
    """
    remaining = record.deadline_steps - record.t_ccurr(engine.step_no)
    frac = remaining / record.deadline_steps if record.deadline_steps > 0 else 0.0
    p1 = min(1.0, max(0.0, 1.0 - frac))
    p4 = 1.0 if remaining < urgency_threshold(engine, record) else 0.0
    return [p1, p4, record.src_dc, None]


def dc_relation(engine, row: list, record, dc: int) -> float:
    """p2 from a score row: 2 at the request's source DC, 1 on the min path, else 0."""
    if dc == row[2]:
        return 2.0
    hops = row[3]
    if hops is None:
        path = engine.cached_min_path(record.sfc_dc, record.dest_dc, record.bw)
        hops = row[3] = () if path is None else path.hops
    return 1.0 if dc in hops else 0.0


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
    row = score_row(engine, record)
    p1, p4 = row[0], row[1]
    p2 = dc_relation(engine, row, record, dc)
    head = record.head
    p3 = 1.0 if head is not None and head.allocated and head.vnf_dc == dc else 0.0
    total = w.w1 * p1 + w.w2 * p2 + w.w3 * p3 + w.w4 * p4
    return PriorityScore(p1, p2, p3, p4, total)


def select_for_allocation(engine, dc: int, vtype: str) -> int | None:
    """Argmax of priority total over the candidate set; smallest tag on ties.

    Tags of one waiting group score the same, so each group is scored once,
    through its smallest tag, from its row in the engine's score table; the
    total is priority's expression in priority's order, with p3 = 0 for an
    unallocated head.
    """
    groups = engine.waiting.get(vtype)
    if not groups:
        return None
    rows = engine.score_rows()
    live = engine.live
    w = engine.weights
    w1, w2, w3, w4 = w.w1, w.w2, w.w3, w.w4
    p3 = 0.0
    best_tag = None
    best_total = -1.0
    for key, group in groups.items():
        tag = min(group)
        row = rows.get(key)
        if row is None:
            row = rows[key] = score_row(engine, live[tag])
        p2 = 2.0 if dc == row[2] else dc_relation(engine, row, live[tag], dc)
        total = w1 * row[0] + w2 * p2 + w3 * p3 + w4 * row[1]
        if total > best_total or (total == best_total and (best_tag is None or tag < best_tag)):
            best_total = total
            best_tag = tag
    return best_tag


def allocation_candidates(engine) -> list[PolicyAction]:
    """Every allocation that can succeed now: for each DC in ascending id and
    each VNF type in catalog order, one whenever heads of that type wait and
    the DC has an idle matching instance or room to install one."""
    waiting = [(vname, vtype) for vname, vtype in engine.catalog.vnfs.items()
               if engine.waiting[vname]]
    if not waiting:  # most steps: nothing to sweep over the DCs for
        return []
    return [PolicyAction(ALLOCATE, vname, dc.dc_id)
            for dc in engine.dcs for vname, vtype in waiting
            if dc.idle_count(vname) or dc.can_install(vtype)]


class HeuristicPolicy:
    """The benchmark: a greedy sweep over DCs and VNF types.

    Applies allocation_candidates in order; the argmax picks the SFC under
    each. Never uninstalls; the idle reaper handles cleanup. Stateless and
    deterministic.

    Quiet after a no-op: when there is no candidate, act applies nothing
    and returns False, and another act changes nothing until the engine
    next changes, because a head starts waiting and capacity frees only at
    engine events. A non-empty candidate list always allocates: its first
    entry has a waiting head and an idle instance or room for one.
    """

    quiet_after_noop = True  # run_episode may skip ticks after a False act

    def plan(self, engine) -> list[PolicyAction]:
        return allocation_candidates(engine) or [PolicyAction(IDLE_WAIT)]

    def act(self, engine) -> bool:
        """Apply the plan; True when it applied more than an IdleWait."""
        actions = self.plan(engine)
        for action in actions:
            engine.apply_action(action)
        return actions[0].kind != IDLE_WAIT


class RandomPolicy:
    """Uniform random action each invocation; a sanity baseline."""

    def __init__(self, n_dcs: int, vnf_names, seed: int, actions_per_step: int = 4):
        import numpy as np

        self.rng = np.random.default_rng([int(seed), 0xA11])
        self.n_dcs = n_dcs
        self.vnf_names = list(vnf_names)
        self.actions_per_step = actions_per_step

    def act(self, engine) -> None:
        for _ in range(self.actions_per_step):
            kind = (ALLOCATE, UNINSTALL, IDLE_WAIT)[int(self.rng.integers(3))]
            if kind == IDLE_WAIT:
                continue
            vname = self.vnf_names[int(self.rng.integers(len(self.vnf_names)))]
            dc = int(self.rng.integers(self.n_dcs))
            engine.apply_action(PolicyAction(kind, vname, dc))
