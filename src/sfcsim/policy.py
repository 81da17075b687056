"""Placement policy interface, priority-point scoring, and the greedy benchmark.

A policy plans PolicyActions; the engine applies them through a constrained
executor that can only perform valid operations. For AllocateVnf the concrete
SFC is always chosen here, by the four-criterion priority score.

The engine keeps waiting tags grouped by score_key: every input of a waiting
tag's score, so all tags of one group score the same and the argmax scores
each group once, through its smallest tag.
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


def priority(engine, tag: int, dc: int) -> PriorityScore:
    """Score one live tag for allocation at a DC.

    p1 rises as the deadline nears (1 - remaining fraction, clamped to [0,1]).
    p2 is 2 at the request's source DC, 1 on the current feasible min path
    from the chain's position to the destination, else 0. p3 is 1 if an
    allocated VNF of the chain sits in this DC; only the head is ever
    allocated, so p3 is nonzero only when the head is allocated here, never
    for an allocation candidate. p4 is 1 once remaining time falls below the
    urgency threshold.
    """
    record = engine.live.get(tag)
    if record is None:
        raise KeyError(f"unknown or finished tag {tag}")
    w = engine.weights

    remaining = record.deadline_steps - record.t_ccurr(engine.step_no)
    frac = remaining / record.deadline_steps if record.deadline_steps > 0 else 0.0
    p1 = min(1.0, max(0.0, 1.0 - frac))

    if dc == record.src_dc:
        p2 = 2.0
    else:
        path = engine.cached_min_path(record.sfc_dc, record.dest_dc, record.bw)
        p2 = 1.0 if path is not None and dc in path.hops else 0.0

    head = record.head
    p3 = 1.0 if head is not None and head.allocated and head.vnf_dc == dc else 0.0
    p4 = 1.0 if remaining < urgency_threshold(engine, record) else 0.0

    total = w.w1 * p1 + w.w2 * p2 + w.w3 * p3 + w.w4 * p4
    return PriorityScore(p1, p2, p3, p4, total)


def select_for_allocation(engine, dc: int, vtype: str) -> int | None:
    """Argmax of priority total over the candidate set; smallest tag on ties.

    Tags of one waiting group score the same, so each group is scored once,
    through its smallest tag.
    """
    best_tag = None
    best_total = -1.0
    for group in engine.waiting.get(vtype, {}).values():
        tag = min(group)
        total = priority(engine, tag, dc).total
        if total > best_total or (total == best_total and (best_tag is None or tag < best_tag)):
            best_total = total
            best_tag = tag
    return best_tag


class HeuristicPolicy:
    """The benchmark: a greedy sweep over DCs and VNF types.

    For each DC in ascending id and each VNF type in catalog order, emit an
    allocation whenever candidates exist and the DC has an idle matching
    instance or room to install one. Never uninstalls; the idle reaper
    handles cleanup. Stateless and deterministic.
    """

    name = "heuristic"

    def plan(self, engine) -> list[PolicyAction]:
        waiting = [(vname, vtype) for vname, vtype in engine.catalog.vnfs.items()
                   if engine.waiting.get(vname)]
        if not waiting:
            return [PolicyAction(IDLE_WAIT)]
        actions = []
        for dc in engine.dcs:
            for vname, vtype in waiting:
                if dc.idle_count(vname) == 0 and not dc.can_install(vtype):
                    continue
                actions.append(PolicyAction(ALLOCATE, vname, dc.dc_id))
        return actions or [PolicyAction(IDLE_WAIT)]

    def act(self, engine) -> None:
        for action in self.plan(engine):
            engine.apply_action(action)


class RandomPolicy:
    """Uniform random action each invocation; a sanity baseline."""

    name = "random"

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
