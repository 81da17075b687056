"""Per-step simulation core.

Each step executes, in order: the drop pass (deadline expiry, revoking an
allocated head), the head pass (only the first VNF of each chain: in-chain
TX ticking, processing, completion), the completion pass (chain empty, start
the final packet TX), the final-TX pass, and the idle reaper, which reads
the front stamp of each DC's idle-stamp table and calls tick_idle only on
a DC whose front is due. Placement policies act between steps through a
constrained action executor.

Waiting records cost nothing per step: elapsed time is derived from the
injection step, and head completions, TX endings, and deadline expiries are
woken by scheduled events. Wake-ups within a pass are processed in live
(ascending tag) order so the result is identical to scanning every record.
A record whose chain is done leaves `live` once its final path is
reserved, carrying that path in rec.tx. In-flight final TXs live only on a
heap of (end step, start step, tag, record); the final-TX pass pops the
ones due, in the order they started, which is the order a scan of every
in-flight final TX would finish them in.

A TX that finds no path (an allocated remote head, or a finished chain)
waits in a tag set and searches again on every executed step through the
path cache, so a blocked TX starts on the step a release frees a path. The
cache answers a repeated search from memory until the graph's version of the
request bandwidth's threshold moves, which happens only when an edge's
residual crosses that bandwidth; each entry keeps its threshold, so a hit
reads the version directly. A cached path carries its edges' ledger keys,
which the path's reserve and release walk.

Time advances from one due step to the next. A step is due when one of
the drop, wake-up or final-TX heaps has an entry for it, when a DC's
longest-idle instance may be reaped on it, or, while a TX waits for a path,
when it follows a step that moved the bandwidth version or a policy phase
that allocated a remote head. No pass changes anything on any other step,
so run_episode jumps over it by setting step_no, the only clock: DCs stamp
idle instances with the step they are given. Waves, resource samples,
policy ticks and the step cap are due steps as well. On an executed step a
pass with nothing due returns after one check: the drop pass when the drop
heap's head is not due, the head pass when no TX waits for a path and no
wake-up is due, the completion pass when no finished chain waits.

Waiting heads are grouped per VNF type by policy.score_key, so the
allocation argmax scores each group once instead of each tag. Each group
keeps its tags in ascending order, so its smallest tag is its first; a type
with one group is answered by that tag, without a ranking. The
per-type rankings the argmax reads (policy.rank_groups, which reads each
group once) live for one policy phase: they are dropped when step_no or the
bandwidth version moves. Inside a phase, allocations only shrink groups,
which a ranking mends as it reads; a head that starts waiting drops its
type's ranking, so the next query of that type ranks afresh. The engine
keeps no count that only the DQN agent observes: dqn.StateEncoder counts
those from `live`.

`trace` is None unless a trace sink is attached, at construction or later
(as cli.run_one attaches its TraceWriter); every event site checks it first,
so an untraced run builds no trace events or their arguments.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass

from .catalog import STEPS_PER_MS, Catalog
from .datacenter import DataCenter, InsufficientResources
from .metrics import MetricsBundle
from .policy import (
    ALLOCATE,
    UNINSTALL,
    PolicyAction,
    PriorityWeights,
    score_key,
    select_for_allocation,
)
from .requestgen import RequestGenerator, SfcRecord, TxState, WavePlan
from .topology import NetworkGraph, PathResult, to_milli


class EngineError(Exception):
    pass


class StepLimitExceeded(EngineError):
    pass


class InvariantError(EngineError):
    """The engine's bookkeeping is inconsistent: a bug, never a policy outcome."""


@dataclass(frozen=True, slots=True)
class CompletionRecord:
    tag: int
    type_name: str
    e2e_steps: int


@dataclass(frozen=True, slots=True)
class DropRecord:
    tag: int
    type_name: str
    drop_step: int
    pending: int  # chain entries left; 0 marks a past-deadline delivery


def tx_steps(packet_len_mb: float, bw_mbps: float, path: PathResult,
             graph: NetworkGraph) -> int:
    """TX duration in steps: ceil(STEPS_PER_MS * packet/bw) plus path propagation.

    The division is read in ms and converted at STEPS_PER_MS steps per ms;
    propagation is added when the graph has it enabled.
    """
    if bw_mbps <= 0:
        raise EngineError("bw must be positive")
    base = math.ceil(STEPS_PER_MS * packet_len_mb / bw_mbps)
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
        self.trace = trace  # None: no trace events are built

        self.step_no = 0
        self.live: dict[int, SfcRecord] = {}
        self.done: list[CompletionRecord] = []
        self.dropped: list[DropRecord] = []

        # waiting[vname][score_key] is a set of tags whose head is unallocated,
        # in ascending order; empty groups are deleted
        self.waiting: dict[str, dict[tuple, dict[int, None]]] = {v: {} for v in catalog.vnfs}

        self._drop_heap: list[tuple[int, int]] = []  # (due step, tag)
        self._event_heap: list[tuple[int, int]] = []  # (due step, tag) wake-ups
        self._final_heap: list[tuple[int, int, int, SfcRecord]] = []  # (end, start, tag, rec)
        self._await_tx: set[int] = set()  # allocated remote heads with no TX path yet
        self._await_final: set[int] = set()  # finished chains with no final path yet
        # (src, dest, bw) -> (threshold t of bw, version of F(t) at the search, path)
        self._path_cache: dict[tuple[int, int, float],
                               tuple[int, int, PathResult | None]] = {}
        self._bw_seen: int | None = None  # bw_version when the last step began
        self._rankings_stamp: tuple[int, int] | None = None  # (step_no, bw_version)
        self._rankings: dict[str, tuple] = {}
        self.invalid_actions = 0
        self.last_allocated_tag: int | None = None

    # -- request intake ----------------------------------------------------

    def inject(self, records: list[SfcRecord]) -> None:
        for rec in records:
            rec.inject_step = self.step_no
            self.live[rec.tag] = rec
            self._waiting_add(rec)
            heapq.heappush(self._drop_heap, (rec.inject_step + rec.deadline_steps + 1, rec.tag))
            self.metrics.record_generated(rec.type_name)
            if self.trace is not None:
                self.trace.event(self.step_no, "inject", tag=rec.tag, type=rec.type_name,
                                 src=rec.src_dc, dest=rec.dest_dc, bw=rec.bw)

    def _waiting_add(self, rec: SfcRecord) -> None:
        vname = rec.head.vtype
        self._rankings.pop(vname, None)  # a ranking only tracks groups shrinking
        groups = self.waiting[vname]
        key = score_key(rec)
        group = groups.get(key)
        if group is None:
            groups[key] = {rec.tag: None}
        elif rec.tag > next(reversed(group)):
            group[rec.tag] = None
        else:  # a head finished before an older one of its group
            groups[key] = dict.fromkeys(sorted([*group, rec.tag]))

    def _waiting_remove(self, rec: SfcRecord) -> None:
        groups = self.waiting[rec.head.vtype]
        key = score_key(rec)
        group = groups[key]
        del group[rec.tag]
        if not group:
            del groups[key]

    # -- alias helpers -------------------------------------------------------

    def cached_min_path(self, src: int, dest: int, bw: float):
        """select_min_path memoised on the version of bw's threshold; read-only.

        The search reads residuals only as residual >= t = to_milli(bw), so
        its answer holds until a residual crosses t, however many other
        bandwidth moves happen in between. An entry keeps t and the version
        of F(t) it was searched at, so a hit costs one cache read and one
        version compare; a miss registers t with the graph (graph.threshold).
        """
        key = (src, dest, bw)
        graph = self.graph
        hit = self._path_cache.get(key)
        if hit is not None and graph.threshold_versions[hit[0]] == hit[1]:
            return hit[2]
        t = graph.threshold(bw)
        path = graph.select_min_path(src, dest, bw)
        self._path_cache[key] = (t, graph.threshold_versions[t], path)
        return path

    def phase_rankings(self) -> dict[str, tuple]:
        """The policy phase's rankings (policy.rank_groups by VNF type).

        Emptied whenever step_no or the bandwidth version moves, the two
        inputs of a group's score that are not in its key; _waiting_add drops
        the ranking of the type a head starts waiting for.
        """
        stamp = (self.step_no, self.graph.bw_version)
        if stamp != self._rankings_stamp:
            self._rankings_stamp = stamp
            self._rankings = {}
        return self._rankings

    def no_instances(self) -> bool:
        return all(dc.installed_count() == 0 for dc in self.dcs)

    def idle(self) -> bool:
        return not self.live and not self._final_heap

    # -- the step ------------------------------------------------------------

    def step(self) -> None:
        now = self.step_no
        self._bw_seen = self.graph.bw_version
        self._drop_pass(now)
        self._head_pass(now)
        self._completion_pass(now)
        self._final_tx_pass(now)
        self._reap_pass(now)
        self.step_no = now + 1

    def next_due(self, horizon: int) -> int:
        """The earliest step >= step_no at which step() can change the state,
        or horizon if that comes first.

        That is the head of a due-step heap, the step that may reap a DC's
        longest-idle instance, or, while a TX waits for a path, the next step
        if the bandwidth version moved since the last step began or a remote
        head was allocated since (until then every retry is a cached miss).
        Stale heap entries only make the answer early.
        """
        now = self.step_no
        if (self._await_tx or self._await_final) and self._bw_seen != self.graph.bw_version:
            return now
        due = horizon
        for heap in (self._drop_heap, self._event_heap, self._final_heap):
            if heap and heap[0][0] < due:
                due = heap[0][0]
        lead = self.t_thresh - 1  # a stamp `since` is reaped on step since + lead
        for dc in self.dcs:
            for since in dc.idle_since.values():  # the longest-idle stamp only
                if since + lead < due:
                    due = since + lead
                break
        return max(now, due)

    def _drop_pass(self, now: int) -> None:
        heap = self._drop_heap
        if not heap or heap[0][0] > now:
            return
        due = []
        while heap and heap[0][0] <= now:
            _, tag = heapq.heappop(heap)
            due.append(tag)
        for tag in sorted(due):
            rec = self.live.get(tag)
            if rec is None or not rec.chain:
                continue
            head = rec.head
            if head.allocated:
                self.dcs[head.vnf_dc].revoke_vnf(head.vtype, head.func_id, now)
                if self.trace is not None:
                    self.trace.event(now, "force_revoke", tag=tag, vtype=head.vtype,
                                     dc=head.vnf_dc, fid=head.func_id)
            if rec.tx is not None:
                self.graph.release_bw(rec.tx.path, rec.bw)
                rec.tx = None
            if not head.allocated:
                self._waiting_remove(rec)
            self._await_tx.discard(tag)
            del self.live[tag]
            drop = DropRecord(tag, rec.type_name, now, len(rec.chain))
            self.dropped.append(drop)
            self.metrics.record_drop(drop)
            if self.trace is not None:
                self.trace.event(now, "drop", tag=tag, type=rec.type_name,
                                 pending=len(rec.chain))

    def _head_pass(self, now: int) -> None:
        heap = self._event_heap
        if not self._await_tx and (not heap or heap[0][0] > now):
            return
        woken = set(self._await_tx)
        while heap and heap[0][0] <= now:
            _, tag = heapq.heappop(heap)
            woken.add(tag)
        for tag in sorted(woken):
            rec = self.live.get(tag)
            if rec is None:
                continue
            head = rec.head
            if rec.tx is not None:
                if rec.tx.end_step == now:
                    self.graph.release_bw(rec.tx.path, rec.bw)
                    rec.tx = None
                    head.proc_start = now
                    heapq.heappush(self._event_heap, (now + head.t_req, tag))
                    if self.trace is not None:
                        self.trace.event(now, "tx_end", tag=tag)
                continue
            if head is None or not head.allocated:
                continue
            if head.proc_start is not None:
                if head.proc_start + head.t_req == now:
                    self._finish_head(now, rec)
                continue
            # allocated in another DC and not yet transferring: try to start TX
            steps = self._start_tx(rec, head.vnf_dc, now)
            if steps is None:
                continue
            if self.trace is not None:
                self.trace.event(now, "tx_start", tag=tag, src=rec.sfc_dc, dc=head.vnf_dc,
                                 steps=steps, hops=list(rec.tx.path.hops))
            rec.sfc_dc = head.vnf_dc
            self._await_tx.discard(tag)
            heapq.heappush(self._event_heap, (rec.tx.end_step, tag))

    def _start_tx(self, rec: SfcRecord, dest: int, now: int) -> int | None:
        """Reserve a path from rec.sfc_dc to dest and set rec.tx; the TX's
        length in steps, or None when no path carries rec.bw."""
        path = self.cached_min_path(rec.sfc_dc, dest, rec.bw)
        if path is None:
            return None
        steps = tx_steps(rec.packet_len_mb, rec.bw, path, self.graph)
        self.graph.reserve_bw(path, rec.bw)
        rec.tx = TxState(path, now + steps)
        return steps

    def _finish_head(self, now: int, rec: SfcRecord) -> None:
        head = rec.chain.pop(0)
        self.dcs[head.vnf_dc].revoke_vnf(head.vtype, head.func_id, now)
        if self.trace is not None:
            self.trace.event(now, "proc_done", tag=rec.tag, vtype=head.vtype,
                             dc=head.vnf_dc, fid=head.func_id)
        if rec.chain:
            self._waiting_add(rec)
        else:
            self._await_final.add(rec.tag)

    def _completion_pass(self, now: int) -> None:
        if not self._await_final:
            return
        # the drop pass skips finished chains, so every waiting tag is live
        for tag in sorted(self._await_final):
            rec = self.live[tag]
            steps = self._start_tx(rec, rec.dest_dc, now)
            if steps is None:
                continue
            heapq.heappush(self._final_heap, (rec.tx.end_step, now, tag, rec))
            self._await_final.discard(tag)
            del self.live[tag]
            if self.trace is not None:
                self.trace.event(now, "final_start", tag=tag, src=rec.sfc_dc,
                                 dest=rec.dest_dc, steps=steps, hops=list(rec.tx.path.hops))

    def _final_tx_pass(self, now: int) -> None:
        heap = self._final_heap
        while heap and heap[0][0] <= now:
            _, _, tag, rec = heapq.heappop(heap)
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
            if self.trace is not None:
                self.trace.event(now, "complete", tag=tag, type=rec.type_name,
                                 e2e_steps=e2e, accepted=accepted)

    def _reap_pass(self, now: int) -> None:
        cutoff = now + 1 - self.t_thresh  # tick_idle's: a stamp <= cutoff is due
        for dc in self.dcs:
            for since in dc.idle_since.values():  # the longest-idle stamp only
                if since <= cutoff:
                    reaped = dc.tick_idle(now, self.t_thresh)
                    if self.trace is not None:
                        for vname, fid in reaped:
                            self.trace.event(now, "reap", dc=dc.dc_id, vtype=vname, fid=fid)
                break

    # -- constrained action executor ------------------------------------------

    def apply_action(self, action: PolicyAction) -> bool:
        """Execute a policy action; returns False for a refused one.

        The one place an action is checked: a DC that is not an int in range,
        a VNF type outside the catalog, an unknown kind or an infeasible
        request is refused. A refusal leaves the state untouched, so a policy can never
        corrupt the run; it only bumps the invalid counter.
        """
        self.last_allocated_tag = None
        if type(action.dc) is not int or not 0 <= action.dc < len(self.dcs) \
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
        head = rec.head if rec is not None else None
        if head is None or head.allocated:
            return False
        dc = self.dcs[dc_id]
        vname = head.vtype
        fid = dc.first_idle(vname)
        if fid is None:
            try:
                fid = dc.install_vnf(self.catalog.vnfs[vname], self.step_no)
            except InsufficientResources:
                return False
            if self.trace is not None:
                self.trace.event(self.step_no, "install", dc=dc_id, vtype=vname, fid=fid)
        dc.allocate_vnf(vname, fid)
        self._waiting_remove(rec)
        head.vnf_dc = dc_id
        head.func_id = fid
        self.last_allocated_tag = tag
        if self.trace is not None:
            self.trace.event(self.step_no, "allocate", tag=tag, vtype=vname, dc=dc_id, fid=fid)
        if dc_id == rec.sfc_dc:
            # counting starts on the step this allocation belongs to
            head.proc_start = self.step_no - 1
            heapq.heappush(self._event_heap, (head.proc_start + head.t_req, tag))
        else:
            self._await_tx.add(tag)
            self._bw_seen = None  # its first path search is due on the next step
        return True

    def _do_uninstall(self, dc: DataCenter, vname: str) -> bool:
        fid = dc.first_idle(vname)
        if fid is None:
            return False
        dc.uninstall_vnf(vname, fid)
        if self.trace is not None:
            self.trace.event(self.step_no, "uninstall", dc=dc.dc_id, vtype=vname, fid=fid)
        return True

    # -- invariants ------------------------------------------------------------

    def check_invariants(self) -> None:
        """Raise InvariantError, LedgerError or TopologyError on broken bookkeeping."""
        self.graph.check_residuals()
        for dc in self.dcs:
            dc.check_ledger()
        final = [entry[3] for entry in self._final_heap]
        reserved = 0
        for rec in [*self.live.values(), *final]:
            if rec.tx is not None:
                reserved += to_milli(rec.bw) * (len(rec.tx.path.hops) - 1)
        deficit = sum(
            to_milli(self.graph.capacity_mbps(*key)) - res
            for key, res in self.graph.residual_snapshot().items()
        )
        if reserved != deficit:
            raise InvariantError(f"bandwidth books differ: {reserved} != {deficit}")
        for rec in final:
            if rec.tx is None or rec.tag in self.live:
                raise InvariantError(f"final-TX tag {rec.tag} is live or has no path")
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
        # each allocated head holds its own instance, and no other is in use
        in_use = {(dc.dc_id, v, fid) for dc in self.dcs
                  for v, fids in dc.installed.items() for fid in fids - dc.idle[v]}
        heads = [(rec.head.vnf_dc, rec.head.vtype, rec.head.func_id)
                 for rec in self.live.values() if rec.head is not None and rec.head.allocated]
        if len(heads) != len(in_use) or set(heads) != in_use:
            raise InvariantError(f"in-use instances differ from the allocated heads: "
                                 f"{in_use ^ set(heads)}")

    def _check_waiting(self) -> None:
        seen = set()
        for vname, groups in self.waiting.items():
            for key, group in groups.items():
                if not group:
                    raise InvariantError(f"empty waiting group {vname} {key}")
                if list(group) != sorted(group):
                    raise InvariantError(f"waiting group {vname} {key} out of tag order")
                for tag in group:
                    rec = self.live.get(tag)
                    head = rec.head if rec is not None else None
                    if head is None or head.allocated or head.vtype != vname \
                            or score_key(rec) != key or tag in seen:
                        raise InvariantError(f"tag {tag} misfiled in waiting {vname} {key}")
                    seen.add(tag)
        heads = {tag for tag, rec in self.live.items()
                 if rec.head is not None and not rec.head.allocated}
        if seen != heads:
            raise InvariantError(f"waiting tags differ from unallocated heads: "
                                 f"{sorted(seen ^ heads)}")


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
    passes (so after the idle reaper), as does the optional on_step callback.

    Steps in which nothing can happen are jumped over: after each executed
    step, engine.step_no is set to the earliest of engine.next_due(), the
    next wave, the next resource sample, step_cap, and the next policy tick.
    A policy whose class sets quiet_after_noop promises that an act which
    applied nothing (act returned a false value) stays a no-op until the
    engine next changes; its ticks are then skipped until the next executed
    step. Any other policy acts on every tick, as before. The outcome, the
    trace and result.steps are those of stepping one at a time.

    on_step still fires once per simulated step, with engine.step_no at its
    usual value: when it is given, jumped steps are advanced one at a time
    and the callback sees each. It must only observe the engine.
    """
    times = plan.times
    quiet_after_noop = getattr(policy, "quiet_after_noop", False)
    injected = 0

    def finished() -> bool:
        return injected == len(times) and engine.idle() and engine.no_instances()

    while True:
        now = engine.step_no
        if injected < len(times) and times[injected] == now:
            if plan.manual is not None:
                records = generator.manual_wave(list(plan.manual[injected]))
            else:
                records = generator.generate_wave(injected)
            engine.inject(records)
            injected += 1
        if sample_period and now % sample_period == 0:
            engine.metrics.sample_resources(now, engine.dcs)
        if finished():
            break
        if now >= step_cap:
            raise StepLimitExceeded(f"episode exceeded {step_cap} steps")
        engine.step()
        quiet = False
        if now % t_model == 0:
            quiet = not policy.act(engine) and quiet_after_noop
        if on_step is not None:
            on_step(engine)
        if finished():
            continue  # the next iteration ends the episode
        nxt = engine.step_no
        horizon = step_cap
        if injected < len(times):
            horizon = min(horizon, times[injected])
        if sample_period:
            horizon = min(horizon, -(-nxt // sample_period) * sample_period)
        if not quiet:
            horizon = min(horizon, -(-nxt // t_model) * t_model)
        target = engine.next_due(horizon)
        if on_step is None:
            engine.step_no = target
        else:
            while engine.step_no < target:
                engine.step_no += 1
                on_step(engine)
    return EpisodeResult(
        steps=engine.step_no,
        generated=engine.metrics.total_generated(),
        accepted=len(engine.done),
        dropped=len(engine.dropped),
    )
