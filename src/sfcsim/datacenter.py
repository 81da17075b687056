"""Per-DC resource ledger and the VNF instance lifecycle.

An instance is Installed (consuming storage and compute), and is either
InUse (allocated to exactly one SFC's VNF) or Idle. An instance that goes
idle is stamped with the DC's tick count and appended to an expiry queue,
which the monotone tick count keeps in stamp order; each tick pops only the
instances whose idle time reached the threshold, so the reaper costs nothing
per idle instance per step.

Storage and compute are kept in integer units of 0.001 (topology.to_milli),
so any install/uninstall sequence restores the exact initial state.
"""

from __future__ import annotations

from collections import deque

from .catalog import VnfType
from .topology import QUANTUM, to_milli

IN_USE = 1
IDLE = 0


class DataCenterError(Exception):
    pass


class InsufficientResources(DataCenterError):
    """Install refused for lack of storage or compute. A policy-level signal."""


class LedgerError(DataCenterError):
    """The resource bookkeeping identity failed: a bug, never a policy outcome."""


class UnknownFunction(DataCenterError):
    pass


class FunctionInUse(DataCenterError):
    pass


class AlreadyInUse(DataCenterError):
    pass


class NotInUse(DataCenterError):
    pass


class DataCenter:
    def __init__(self, dc_id: int, max_storage_gb: float, cpus: float, ram_gb: float):
        self.dc_id = dc_id
        # ledger units (to_milli); compute follows the same product rule as VNF demand
        self.max_storage = to_milli(max_storage_gb)
        self.max_compute = to_milli(float(cpus) * float(ram_gb))
        self.cur_storage = self.max_storage
        self.cur_compute = self.max_compute
        # installed[vtype][fid] -> IN_USE | IDLE; idle_since[vtype][fid] -> the
        # tick count when that idle instance went idle
        self.installed: dict[str, dict[int, int]] = {}
        self.idle_since: dict[str, dict[int, int]] = {}
        self.ticks = 0
        # (since, vtype, fid) per idle period, in stamp order; an entry whose
        # stamp no longer matches idle_since is stale and dropped when it comes due
        self._expiry: deque[tuple[int, str, int]] = deque()
        self._next_fid: dict[str, int] = {}
        self._demands: dict[str, tuple[int, int]] = {}  # vtype -> (storage, compute)

    # -- queries -------------------------------------------------------------

    def _demand(self, vtype: VnfType) -> tuple[int, int]:
        demand = self._demands.get(vtype.name)
        if demand is None:
            demand = (to_milli(vtype.storage_gb), to_milli(vtype.compute_demand))
            self._demands[vtype.name] = demand
        return demand

    def can_install(self, vtype: VnfType) -> bool:
        storage, compute = self._demand(vtype)
        return self.cur_storage >= storage and self.cur_compute >= compute

    def idle_fids(self, vname: str) -> list[int]:
        return sorted(self.idle_since.get(vname, ()))

    def idle_count(self, vname: str) -> int:
        return len(self.idle_since.get(vname, ()))

    def idle_steps(self, vname: str, fid: int) -> int:
        """Ticks since an idle instance went idle; KeyError if it is not idle."""
        return self.ticks - self.idle_since[vname][fid]

    def in_use_count(self, vname: str) -> int:
        table = self.installed.get(vname)
        if not table:
            return 0
        return len(table) - len(self.idle_since.get(vname, ()))

    def installed_count(self) -> int:
        return sum(len(t) for t in self.installed.values())

    def storage_used_frac(self) -> float:
        return (self.max_storage - self.cur_storage) / self.max_storage

    def compute_used_frac(self) -> float:
        return (self.max_compute - self.cur_compute) / self.max_compute

    def check_ledger(self) -> None:
        """Check the resource bookkeeping identity (constraints on capacity).

        Raises LedgerError on any mismatch.
        """
        used_storage = sum(
            self._demands[v][0] * len(t) for v, t in self.installed.items()
        )
        used_compute = sum(
            self._demands[v][1] * len(t) for v, t in self.installed.items()
        )
        if self.cur_storage + used_storage != self.max_storage \
                or self.cur_compute + used_compute != self.max_compute:
            raise LedgerError(f"DC {self.dc_id}: free + installed != capacity")
        if not (0 <= self.cur_storage <= self.max_storage
                and 0 <= self.cur_compute <= self.max_compute):
            raise LedgerError(f"DC {self.dc_id}: free resources out of [0, capacity]")
        queued = set(self._expiry)
        for vname, table in self.installed.items():
            idle = {fid for fid, status in table.items() if status == IDLE}
            since = self.idle_since.get(vname, {})
            if idle != set(since):
                raise LedgerError(f"DC {self.dc_id}: idle {vname} instances differ from stamps")
            for fid, stamp in since.items():
                if (stamp, vname, fid) not in queued:
                    raise LedgerError(f"DC {self.dc_id}: idle {vname}/{fid} has no expiry entry")

    # -- lifecycle -------------------------------------------------------------

    def install_vnf(self, vtype: VnfType) -> int:
        """Install a new instance, initially Idle. Returns its function id."""
        if not self.can_install(vtype):
            raise InsufficientResources(
                f"DC {self.dc_id}: cannot install {vtype.name} "
                f"(storage {self.cur_storage / QUANTUM}/{vtype.storage_gb}, "
                f"compute {self.cur_compute / QUANTUM}/{vtype.compute_demand})"
            )
        fid = self._next_fid.get(vtype.name, 1)
        self._next_fid[vtype.name] = fid + 1
        self.installed.setdefault(vtype.name, {})[fid] = IDLE
        self._go_idle(vtype.name, fid)
        storage, compute = self._demand(vtype)
        self.cur_storage -= storage
        self.cur_compute -= compute
        return fid

    def _lookup(self, vname: str, fid: int) -> int:
        table = self.installed.get(vname)
        if table is None or fid not in table:
            raise UnknownFunction(f"DC {self.dc_id}: no {vname} function {fid}")
        return table[fid]

    def uninstall_vnf(self, vname: str, fid: int) -> None:
        status = self._lookup(vname, fid)
        if status == IN_USE:
            raise FunctionInUse(f"DC {self.dc_id}: {vname}/{fid} is in use")
        del self.installed[vname][fid]
        del self.idle_since[vname][fid]
        storage, compute = self._demands[vname]
        self.cur_storage += storage
        self.cur_compute += compute

    def allocate_vnf(self, vname: str, fid: int) -> None:
        status = self._lookup(vname, fid)
        if status == IN_USE:
            raise AlreadyInUse(f"DC {self.dc_id}: {vname}/{fid} already in use")
        self.installed[vname][fid] = IN_USE
        del self.idle_since[vname][fid]

    def revoke_vnf(self, vname: str, fid: int) -> None:
        status = self._lookup(vname, fid)
        if status != IN_USE:
            raise NotInUse(f"DC {self.dc_id}: {vname}/{fid} is not in use")
        self.installed[vname][fid] = IDLE
        self._go_idle(vname, fid)

    def force_revoke_vnf(self, vname: str, fid: int) -> None:
        """Revoke regardless of status; used on deadline drops mid-processing.

        An idle instance restarts its idle time."""
        self._lookup(vname, fid)
        self.installed[vname][fid] = IDLE
        self._go_idle(vname, fid)

    def _go_idle(self, vname: str, fid: int) -> None:
        self.idle_since.setdefault(vname, {})[fid] = self.ticks
        self._expiry.append((self.ticks, vname, fid))

    def tick_idle(self, t_thresh: int) -> list[tuple[str, int]]:
        """Advance one tick; uninstall the idle instances idle for t_thresh ticks.

        Only the expiry queue's due entries are read, so a tick with nothing
        due costs one comparison. Returns the uninstalled (vtype, fid) pairs
        sorted for determinism.
        """
        self.ticks += 1
        cutoff = self.ticks - t_thresh
        queue = self._expiry
        if not queue or queue[0][0] > cutoff:
            return []
        due = set()  # a set: an instance can hold two entries with one stamp
        while queue and queue[0][0] <= cutoff:
            since, vname, fid = queue.popleft()
            if self.idle_since[vname].get(fid) == since:
                due.add((vname, fid))
        reaped = sorted(due)
        for vname, fid in reaped:
            self.uninstall_vnf(vname, fid)  # deletes the stamp: later entries are stale
        return reaped
