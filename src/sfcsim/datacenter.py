"""Per-DC resource ledger and the VNF instance lifecycle.

An instance is Installed (consuming storage and compute), and is either
InUse (allocated to exactly one SFC's VNF) or Idle. An idle instance holds
one idle stamp, the engine step passed in when it went idle; the DC keeps no
clock of its own. The stamps live in one insertion-ordered table: going idle
adds an instance's entry at the end, and the engine's steps never decrease,
so the table is in stamp order and its first entry is the next to expire.
Each reap reads only the due entries at the front, so the reaper costs
nothing per idle instance per step.

Storage and compute are kept in integer units of 0.001 (topology.to_milli),
so any install/uninstall sequence restores the exact initial state.
"""

from __future__ import annotations

from itertools import islice

from .catalog import VnfType
from .topology import QUANTUM, to_milli


class DataCenterError(Exception):
    pass


class InsufficientResources(DataCenterError):
    """Install refused for lack of storage or compute. A policy-level signal."""


class LedgerError(DataCenterError):
    """The resource bookkeeping identity failed, or a lifecycle call named an
    instance that is unknown or in the wrong state: a bug, never a policy
    outcome."""


class DataCenter:
    def __init__(self, dc_id: int, max_storage_gb: float, cpus: float, ram_gb: float):
        self.dc_id = dc_id
        # ledger units (to_milli); compute follows the same product rule as VNF demand
        self.max_storage = to_milli(max_storage_gb)
        self.max_compute = to_milli(float(cpus) * float(ram_gb))
        self.cur_storage = self.max_storage
        self.cur_compute = self.max_compute
        # installed[vtype] is the set of installed fids and idle[vtype] the idle
        # ones; idle_since[(vtype, fid)] is the step an idle instance went idle
        # on, one entry per idle instance, in stamp order
        self.installed: dict[str, set[int]] = {}
        self.idle: dict[str, set[int]] = {}
        self.idle_since: dict[tuple[str, int], int] = {}
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

    def first_idle(self, vname: str) -> int | None:
        """The lowest idle fid of a VNF type, or None when none is idle."""
        idle = self.idle.get(vname)
        return min(idle) if idle else None

    def idle_count(self, vname: str) -> int:
        return len(self.idle.get(vname, ()))

    def in_use_count(self, vname: str) -> int:
        return len(self.installed.get(vname, ())) - len(self.idle.get(vname, ()))

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
        idle = {(vname, fid) for vname, fids in self.idle.items() for fid in fids}
        if any(fid not in self.installed.get(vname, ()) for vname, fid in idle):
            raise LedgerError(f"DC {self.dc_id}: idle fids that are uninstalled")
        if self.idle_since.keys() != idle:
            raise LedgerError(f"DC {self.dc_id}: idle stamps differ from the idle instances")
        stamps = list(self.idle_since.values())
        if stamps != sorted(stamps):
            raise LedgerError(f"DC {self.dc_id}: idle stamps out of order")

    # -- lifecycle -------------------------------------------------------------

    def install_vnf(self, vtype: VnfType, now: int) -> int:
        """Install a new instance, Idle from step now. Returns its function id."""
        if not self.can_install(vtype):
            raise InsufficientResources(
                f"DC {self.dc_id}: cannot install {vtype.name} "
                f"(storage {self.cur_storage / QUANTUM}/{vtype.storage_gb}, "
                f"compute {self.cur_compute / QUANTUM}/{vtype.compute_demand})"
            )
        fid = self._next_fid.get(vtype.name, 1)
        self._next_fid[vtype.name] = fid + 1
        self.installed.setdefault(vtype.name, set()).add(fid)
        self._go_idle(vtype.name, fid, now)
        storage, compute = self._demand(vtype)
        self.cur_storage -= storage
        self.cur_compute -= compute
        return fid

    def _is_idle(self, vname: str, fid: int) -> bool:
        if fid not in self.installed.get(vname, ()):
            raise LedgerError(f"DC {self.dc_id}: no {vname} function {fid}")
        return fid in self.idle[vname]

    def uninstall_vnf(self, vname: str, fid: int) -> None:
        if not self._is_idle(vname, fid):
            raise LedgerError(f"DC {self.dc_id}: {vname}/{fid} is in use")
        self.installed[vname].remove(fid)
        self.idle[vname].remove(fid)
        del self.idle_since[(vname, fid)]
        storage, compute = self._demands[vname]
        self.cur_storage += storage
        self.cur_compute += compute

    def allocate_vnf(self, vname: str, fid: int) -> None:
        if not self._is_idle(vname, fid):
            raise LedgerError(f"DC {self.dc_id}: {vname}/{fid} already in use")
        self.idle[vname].remove(fid)
        del self.idle_since[(vname, fid)]

    def revoke_vnf(self, vname: str, fid: int, now: int) -> None:
        if self._is_idle(vname, fid):
            raise LedgerError(f"DC {self.dc_id}: {vname}/{fid} is not in use")
        self._go_idle(vname, fid, now)

    def _go_idle(self, vname: str, fid: int, now: int) -> None:
        self.idle.setdefault(vname, set()).add(fid)
        self.idle_since[(vname, fid)] = now

    def tick_idle(self, now: int, t_thresh: int) -> list[tuple[str, int]]:
        """Reap pass of step now: uninstall the instances idle for t_thresh
        steps. One stamped `since` has been idle now + 1 - since steps.

        Only the due stamps at the front of the table are read, so a step with
        nothing due costs one comparison. Returns the uninstalled (vtype, fid)
        pairs sorted for determinism.
        """
        cutoff = now + 1 - t_thresh
        due = 0
        for since in self.idle_since.values():
            if since > cutoff:
                break
            due += 1
        reaped = sorted(islice(self.idle_since, due)) if due else []
        for vname, fid in reaped:
            self.uninstall_vnf(vname, fid)
        return reaped
