"""Per-step simulation core.

Each step executes, in order: the drop pass (deadline expiry with force
revoke), the head pass (only the first VNF of each chain: in-chain TX
ticking, processing, completion), the completion pass (chain empty, start
the final packet TX), the final-TX pass, and the idle reaper, which pops
only the instances due on each DC's expiry queue. Placement policies act
between steps through a constrained action executor.

Waiting records cost nothing per step: elapsed time is derived from the
injection step, and head completions, TX endings, and deadline expiries are
woken by scheduled events. Wake-ups within a pass are processed in live
(ascending tag) order so the result is identical to scanning every record.
A record whose chain is done leaves `live` for `final_tx` once its final
path is reserved, carrying that path in rec.tx. Final TXs sit on a heap
keyed (end step, start step, tag); the final-TX pass pops the ones due, in
the order they started, which is the order a scan of every in-flight final
TX would finish them in.

A TX that finds no path (an allocated remote head, or a finished chain)
waits in a tag set and searches again on every step through the path
cache, which answers a repeated search from memory until the bandwidth
version moves; so a blocked TX starts on the step a release frees a path.

Waiting heads are grouped per VNF type by policy.score_key, so the
allocation argmax scores each group once instead of each tag.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass

from .catalog import Catalog
from .datacenter import DataCenter, InsufficientResources
from .metrics import MetricsBundle
from .policy import (
    ALLOCATE,
    IDLE_WAIT,
    UNINSTALL,
    PolicyAction,
    PriorityWeights,
    score_key,
    select_for_allocation,
)
from .requestgen import RequestGenerator, SfcRecord, TxState, WavePlan
from .topology import NetworkGraph, PathResult, to_milli
from .trace import NullTrace


class EngineError(Exception):
    pass


class StepLimitExceeded(EngineError):
    pass


class InvariantError(EngineError):
    """The engine's bookkeeping is inconsistent: a bug, never a policy outcome."""


@dataclass(frozen=True)
class CompletionRecord:
    tag: int
    type_name: str
    e2e_steps: int


@dataclass(frozen=True)
class DropRecord:
    tag: int
    type_name: str
    drop_step: int
    pending: int  # chain entries left; 0 marks a past-deadline delivery


def tx_steps(packet_len_mb: float, bw_mbps: float, path: PathResult,
             graph: NetworkGraph) -> int:
    """TX duration in steps: ceil(100 * packet/bw) plus path propagation.

    The division is read in ms and converted at 100 steps per ms; propagation
    is added when the graph has it enabled.
    """
    if bw_mbps <= 0:
        raise EngineError("bw must be positive")
    base = math.ceil(100.0 * packet_len_mb / bw_mbps)
    return base + graph.propagation_steps(path)


class Engine:
    """Owns one episode's mutable state; strictly single-threaded stepping."""

    def __init__(self, graph: NetworkGraph, dcs: list[DataCenter], catalog: Catalog, *,
                 t_thresh: int = 500, weights: PriorityWeights | None = None,
                 urgency_fraction: float = 0.2, t_urgency_steps: int | None = None,
                 metrics=None, trace=None):
        self.graph = graph
        self.dcs = dcs
        self.catalog = catalog
        self.t_thresh = t_thresh
        self.weights = weights or PriorityWeights()
        self.urgency_fraction = urgency_fraction
        self.t_urgency_steps = t_urgency_steps
        self.metrics = metrics or MetricsBundle()
        self.trace = trace or NullTrace()

        self.step_no = 0
        self.live: dict[int, SfcRecord] = {}
        self.final_tx: dict[int, SfcRecord] = {}  # in final TX; rec.tx is the final path
        self.done: list[CompletionRecord] = []
        self.dropped: list[DropRecord] = []

        # waiting[vname][score_key] is an ordered set of tags whose head is
        # unallocated; empty groups are deleted
        self.waiting: dict[str, dict[tuple, dict[int, None]]] = {v: {} for v in catalog.vnfs}
        self.pending_by_type: dict[str, dict[str, int]] = {
            s: {v: 0 for v in catalog.vnfs} for s in catalog.sfcs
        }
        # waiting heads whose chain currently sits at a DC (sfc_dc == dc);
        # an allocation there needs no transfer
        self.local_pending: dict[tuple[int, str], int] = {
            (dc.dc_id, v): 0 for dc in dcs for v in catalog.vnfs
        }
        # live tag counts per (sfc type, inject step): deadlines within a
        # cohort are identical, which keeps remaining-time stats cheap
        self.cohorts: dict[tuple[str, int], int] = {}

        self._drop_heap: list[tuple[int, int]] = []  # (due step, tag)
        self._event_heap: list[tuple[int, int]] = []  # (due step, tag) wake-ups
        self._final_heap: list[tuple[int, int, int]] = []  # (end step, start step, tag)
        self._await_tx: set[int] = set()  # allocated remote heads with no TX path yet
        self._await_final: set[int] = set()  # finished chains with no final path yet
        self._path_cache: dict[tuple[int, int, float], tuple[int, PathResult | None]] = {}
        self.invalid_actions = 0
        self.last_allocated_tag: int | None = None

    # -- request intake ----------------------------------------------------

    def inject(self, records: list[SfcRecord]) -> None:
        for rec in records:
            rec.inject_step = self.step_no
            self.live[rec.tag] = rec
            self._waiting_add(rec)
            key = (rec.type_name, rec.inject_step)
            self.cohorts[key] = self.cohorts.get(key, 0) + 1
            heapq.heappush(self._drop_heap, (rec.inject_step + rec.deadline_steps + 1, rec.tag))
            self.metrics.record_generated(rec.type_name)
            self.trace.event(self.step_no, "inject", tag=rec.tag, type=rec.type_name,
                             src=rec.src_dc, dest=rec.dest_dc, bw=rec.bw)

    def _waiting_add(self, rec: SfcRecord) -> None:
        head = rec.head
        self.waiting[head.vtype].setdefault(score_key(rec), {})[rec.tag] = None
        self.pending_by_type[rec.type_name][head.vtype] += 1
        self.local_pending[(rec.sfc_dc, head.vtype)] += 1

    def _waiting_remove(self, rec: SfcRecord) -> None:
        head = rec.head
        groups = self.waiting[head.vtype]
        key = score_key(rec)
        group = groups[key]
        del group[rec.tag]
        if not group:
            del groups[key]
        self.pending_by_type[rec.type_name][head.vtype] -= 1
        self.local_pending[(rec.sfc_dc, head.vtype)] -= 1

    def _cohort_remove(self, rec: SfcRecord) -> None:
        key = (rec.type_name, rec.inject_step)
        self.cohorts[key] -= 1
        if self.cohorts[key] == 0:
            del self.cohorts[key]

    # -- alias helpers -------------------------------------------------------

    def cached_min_path(self, src: int, dest: int, bw: float):
        """select_min_path memoised on the bandwidth version; read-only."""
        key = (src, dest, bw)
        hit = self._path_cache.get(key)
        if hit is not None and hit[0] == self.graph.bw_version:
            return hit[1]
        path = self.graph.select_min_path(src, dest, bw)
        self._path_cache[key] = (self.graph.bw_version, path)
        return path

    def no_instances(self) -> bool:
        return all(dc.installed_count() == 0 for dc in self.dcs)

    def idle(self) -> bool:
        return not self.live and not self.final_tx

    # -- the step ------------------------------------------------------------

    def step(self) -> None:
        now = self.step_no
        self._drop_pass(now)
        newly_empty = self._head_pass(now)
        self._completion_pass(now, newly_empty)
        self._final_tx_pass(now)
        self._reap_pass(now)
        self.step_no = now + 1

    def _drop_pass(self, now: int) -> None:
        due = []
        while self._drop_heap and self._drop_heap[0][0] <= now:
            _, tag = heapq.heappop(self._drop_heap)
            due.append(tag)
        for tag in sorted(due):
            rec = self.live.get(tag)
            if rec is None or not rec.chain:
                continue
            head = rec.head
            if head.allocated:
                self.dcs[head.vnf_dc].force_revoke_vnf(head.vtype, head.func_id)
                self.trace.event(now, "force_revoke", tag=tag, vtype=head.vtype,
                                 dc=head.vnf_dc, fid=head.func_id)
            if rec.tx is not None:
                self.graph.release_bw(rec.tx.path, rec.bw)
                rec.tx = None
            if not head.allocated:
                self._waiting_remove(rec)
            self._await_tx.discard(tag)
            self._cohort_remove(rec)
            del self.live[tag]
            drop = DropRecord(tag, rec.type_name, now, len(rec.chain))
            self.dropped.append(drop)
            self.metrics.record_drop(drop)
            self.trace.event(now, "drop", tag=tag, type=rec.type_name, pending=len(rec.chain))

    def _head_pass(self, now: int) -> list[int]:
        woken = set(self._await_tx)
        while self._event_heap and self._event_heap[0][0] <= now:
            _, tag = heapq.heappop(self._event_heap)
            woken.add(tag)
        newly_empty = []
        for tag in sorted(woken):
            rec = self.live.get(tag)
            if rec is None:
                continue
            if rec.tx is not None:
                if rec.tx.end_step == now:
                    self.graph.release_bw(rec.tx.path, rec.bw)
                    rec.tx = None
                    head = rec.head
                    head.proc_start = now
                    heapq.heappush(self._event_heap, (now + head.t_req, tag))
                    self.trace.event(now, "tx_end", tag=tag)
                continue
            head = rec.head
            if head is None or not head.allocated:
                continue
            if head.proc_start is not None:
                if head.proc_start + head.t_req == now:
                    self._finish_head(now, rec, newly_empty)
                continue
            # allocated in another DC and not yet transferring: try to start TX
            path = self.cached_min_path(rec.sfc_dc, head.vnf_dc, rec.bw)
            if path is None:
                continue
            steps = tx_steps(rec.packet_len_mb, rec.bw, path, self.graph)
            self.graph.reserve_bw(path, rec.bw)
            rec.tx = TxState(path, now + steps)
            self.trace.event(now, "tx_start", tag=tag, src=rec.sfc_dc, dc=head.vnf_dc,
                             steps=steps, hops=list(path.hops))
            rec.sfc_dc = head.vnf_dc
            self._await_tx.discard(tag)
            heapq.heappush(self._event_heap, (rec.tx.end_step, tag))
        return newly_empty

    def _finish_head(self, now: int, rec: SfcRecord, newly_empty: list[int]) -> None:
        head = rec.chain.pop(0)
        self.dcs[head.vnf_dc].revoke_vnf(head.vtype, head.func_id)
        self.trace.event(now, "proc_done", tag=rec.tag, vtype=head.vtype,
                         dc=head.vnf_dc, fid=head.func_id)
        if rec.chain:
            self._waiting_add(rec)
        else:
            newly_empty.append(rec.tag)

    def _completion_pass(self, now: int, newly_empty: list[int]) -> None:
        # the drop pass skips finished chains, so every waiting tag is live
        self._await_final.update(newly_empty)
        for tag in sorted(self._await_final):
            rec = self.live[tag]
            path = self.cached_min_path(rec.sfc_dc, rec.dest_dc, rec.bw)
            if path is None:
                continue
            steps = tx_steps(rec.packet_len_mb, rec.bw, path, self.graph)
            self.graph.reserve_bw(path, rec.bw)
            rec.tx = TxState(path, now + steps)
            self.final_tx[tag] = rec
            heapq.heappush(self._final_heap, (now + steps, now, tag))
            self._await_final.discard(tag)
            self._cohort_remove(rec)
            del self.live[tag]
            self.trace.event(now, "final_start", tag=tag, src=rec.sfc_dc,
                             dest=rec.dest_dc, steps=steps, hops=list(path.hops))

    def _final_tx_pass(self, now: int) -> None:
        heap = self._final_heap
        while heap and heap[0][0] <= now:
            tag = heapq.heappop(heap)[2]
            rec = self.final_tx.pop(tag)
            self.graph.release_bw(rec.tx.path, rec.bw)
            e2e = now - rec.inject_step + 1
            accepted = e2e <= rec.deadline_steps
            if accepted:
                done = CompletionRecord(tag, rec.type_name, e2e)
                self.done.append(done)
                self.metrics.record_completion(done, rec.deadline_steps)
            else:
                # Delivery happened past the deadline; counts as a drop.
                drop = DropRecord(tag, rec.type_name, now, 0)
                self.dropped.append(drop)
                self.metrics.record_drop(drop)
            self.trace.event(now, "complete", tag=tag, type=rec.type_name,
                             e2e_steps=e2e, accepted=accepted)

    def _reap_pass(self, now: int) -> None:
        for dc in self.dcs:
            for vname, fid in dc.tick_idle(self.t_thresh):
                self.trace.event(now, "reap", dc=dc.dc_id, vtype=vname, fid=fid)

    # -- constrained action executor ------------------------------------------

    def apply_action(self, action: PolicyAction) -> bool:
        """Execute a policy action; returns False for infeasible requests.

        Invalid requests leave the state untouched so a policy can never
        corrupt the run; they only bump the invalid counter.
        """
        self.last_allocated_tag = None
        if action.kind == IDLE_WAIT:
            return True
        if action.dc is None or not (0 <= action.dc < len(self.dcs)) \
                or action.vtype not in self.catalog.vnfs:
            self.invalid_actions += 1
            return False
        dc = self.dcs[action.dc]
        if action.kind == ALLOCATE:
            ok = self._do_allocate(dc, action.vtype)
        elif action.kind == UNINSTALL:
            ok = self._do_uninstall(dc, action.vtype)
        else:
            ok = False
        if not ok:
            self.invalid_actions += 1
        return ok

    def _do_allocate(self, dc: DataCenter, vname: str) -> bool:
        tag = select_for_allocation(self, dc.dc_id, vname)
        if tag is None:
            return False
        return self.allocate_head(tag, dc.dc_id)

    def allocate_head(self, tag: int, dc_id: int) -> bool:
        """Bind the head VNF of a live record to an instance at a DC, reusing
        the lowest idle function id or installing a new instance. Must be
        called between steps (the policy phase)."""
        rec = self.live.get(tag)
        if rec is None or rec.head is None or rec.head.allocated:
            return False
        dc = self.dcs[dc_id]
        vname = rec.head.vtype
        idle = dc.idle_fids(vname)
        if idle:
            fid = idle[0]
        else:
            try:
                fid = dc.install_vnf(self.catalog.vnfs[vname])
            except InsufficientResources:
                return False
            self.trace.event(self.step_no, "install", dc=dc_id, vtype=vname, fid=fid)
        dc.allocate_vnf(vname, fid)
        self._waiting_remove(rec)
        head = rec.head
        head.vnf_dc = dc_id
        head.func_id = fid
        self.last_allocated_tag = tag
        self.trace.event(self.step_no, "allocate", tag=tag, vtype=vname, dc=dc_id, fid=fid)
        if dc_id == rec.sfc_dc:
            # counting starts on the step this allocation belongs to
            head.proc_start = self.step_no - 1
            heapq.heappush(self._event_heap, (head.proc_start + head.t_req, tag))
        else:
            self._await_tx.add(tag)
        return True

    def _do_uninstall(self, dc: DataCenter, vname: str) -> bool:
        idle = dc.idle_fids(vname)
        if not idle:
            return False
        dc.uninstall_vnf(vname, idle[0])
        self.trace.event(self.step_no, "uninstall", dc=dc.dc_id, vtype=vname, fid=idle[0])
        return True

    # -- invariants ------------------------------------------------------------

    def check_invariants(self) -> None:
        """Raise InvariantError, LedgerError or TopologyError on broken bookkeeping."""
        self.graph.check_residuals()
        for dc in self.dcs:
            dc.check_ledger()
        reserved = 0
        for rec in [*self.live.values(), *self.final_tx.values()]:
            if rec.tx is not None:
                reserved += to_milli(rec.bw) * (len(rec.tx.path.hops) - 1)
        deficit = sum(
            to_milli(self.graph.capacity_mbps(*key)) - res
            for key, res in self.graph.residual_snapshot().items()
        )
        if reserved != deficit:
            raise InvariantError(f"bandwidth books differ: {reserved} != {deficit}")
        for tag, rec in self.final_tx.items():
            if rec.tx is None or tag in self.live:
                raise InvariantError(f"final-TX tag {tag} is live or has no path")
        if sorted(e[2] for e in self._final_heap) != sorted(self.final_tx):
            raise InvariantError("final-TX heap and in-flight final TXs differ")
        await_tx = {tag for tag, rec in self.live.items()
                    if rec.head is not None and rec.head.allocated and rec.tx is None
                    and rec.head.proc_start is None and rec.head.vnf_dc != rec.sfc_dc}
        if self._await_tx != await_tx:
            raise InvariantError(f"TX waiting set differs from the remote heads with no "
                                 f"TX: {sorted(self._await_tx ^ await_tx)}")
        await_final = {tag for tag, rec in self.live.items() if not rec.chain}
        if self._await_final != await_final:
            raise InvariantError(f"final-TX waiting set differs from the finished chains: "
                                 f"{sorted(self._await_final ^ await_final)}")
        self._check_waiting()

    def _check_waiting(self) -> None:
        by_type = {s: {v: 0 for v in self.catalog.vnfs} for s in self.catalog.sfcs}
        local = {key: 0 for key in self.local_pending}
        seen = set()
        for vname, groups in self.waiting.items():
            for key, group in groups.items():
                if not group:
                    raise InvariantError(f"empty waiting group {vname} {key}")
                for tag in group:
                    rec = self.live.get(tag)
                    head = rec.head if rec is not None else None
                    if head is None or head.allocated or head.vtype != vname \
                            or score_key(rec) != key or tag in seen:
                        raise InvariantError(f"tag {tag} misfiled in waiting {vname} {key}")
                    seen.add(tag)
                    by_type[rec.type_name][vname] += 1
                    local[(rec.sfc_dc, vname)] += 1
        heads = {tag for tag, rec in self.live.items()
                 if rec.head is not None and not rec.head.allocated}
        if seen != heads:
            raise InvariantError(f"waiting tags differ from unallocated heads: "
                                 f"{sorted(seen ^ heads)}")
        if by_type != self.pending_by_type or local != self.local_pending:
            raise InvariantError("waiting groups do not match the pending counts")


@dataclass
class EpisodeResult:
    steps: int
    generated: int
    accepted: int
    dropped: int

    @property
    def acceptance_ratio(self) -> float | None:
        if self.generated == 0:
            return None
        return self.accepted / self.generated


def run_episode(engine: Engine, generator: RequestGenerator, plan: WavePlan, policy, *,
                t_model: int = 1, sample_period: int = 0, step_cap: int = 200_000,
                on_step=None) -> EpisodeResult:
    """Drive an engine from request generation until everything is processed,
    dropped, and reaped. The policy acts every t_model steps, after the step's
    passes (so after the idle reaper's tick), as does the optional on_step callback."""
    waves = {t: i for i, t in enumerate(plan.times)}
    injected = 0
    while True:
        now = engine.step_no
        if now in waves:
            idx = waves[now]
            if plan.manual is not None:
                records = generator.manual_wave(list(plan.manual[idx]))
            else:
                records = generator.generate_wave(idx)
            engine.inject(records)
            injected += 1
        if sample_period and now % sample_period == 0:
            engine.metrics.sample_resources(now, engine.dcs)
        if injected == len(plan.times) and engine.idle() and engine.no_instances():
            break
        if now >= step_cap:
            raise StepLimitExceeded(f"episode exceeded {step_cap} steps")
        engine.step()
        if now % t_model == 0:
            policy.act(engine)
        if on_step is not None:
            on_step(engine)
    return EpisodeResult(
        steps=engine.step_no,
        generated=engine.metrics.total_generated(),
        accepted=len(engine.done),
        dropped=len(engine.dropped),
    )
