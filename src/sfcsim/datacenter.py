"""Per-DC resource ledger and the VNF instance lifecycle.

An instance is Installed (consuming storage and compute), and is either
InUse (allocated to exactly one SFC's VNF) or Idle. Idle instances age by
one step per tick and are uninstalled automatically once their idle time
reaches the configured threshold.

Storage and compute are kept in integer units of 0.001 (topology.to_milli),
so any install/uninstall sequence restores the exact initial state.
"""

from __future__ import annotations

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
        # installed[vtype][fid] -> IN_USE | IDLE; idle_clock[vtype][fid] -> steps idle
        self.installed: dict[str, dict[int, int]] = {}
        self.idle_clock: dict[str, dict[int, int]] = {}
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
        return sorted(self.idle_clock.get(vname, ()))

    def idle_count(self, vname: str) -> int:
        return len(self.idle_clock.get(vname, ()))

    def in_use_count(self, vname: str) -> int:
        table = self.installed.get(vname)
        if not table:
            return 0
        return len(table) - len(self.idle_clock.get(vname, ()))

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
        for vname, table in self.installed.items():
            idle = {fid for fid, status in table.items() if status == IDLE}
            if idle != set(self.idle_clock.get(vname, ())):
                raise LedgerError(f"DC {self.dc_id}: idle {vname} instances differ from clocks")

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
        self.idle_clock.setdefault(vtype.name, {})[fid] = 0
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
        del self.idle_clock[vname][fid]
        storage, compute = self._demands[vname]
        self.cur_storage += storage
        self.cur_compute += compute

    def allocate_vnf(self, vname: str, fid: int) -> None:
        status = self._lookup(vname, fid)
        if status == IN_USE:
            raise AlreadyInUse(f"DC {self.dc_id}: {vname}/{fid} already in use")
        self.installed[vname][fid] = IN_USE
        del self.idle_clock[vname][fid]

    def revoke_vnf(self, vname: str, fid: int) -> None:
        status = self._lookup(vname, fid)
        if status != IN_USE:
            raise NotInUse(f"DC {self.dc_id}: {vname}/{fid} is not in use")
        self.installed[vname][fid] = IDLE
        self.idle_clock[vname][fid] = 0

    def force_revoke_vnf(self, vname: str, fid: int) -> None:
        """Revoke regardless of status; used on deadline drops mid-processing."""
        self._lookup(vname, fid)
        self.installed[vname][fid] = IDLE
        self.idle_clock[vname][fid] = 0

    def tick_idle(self, t_thresh: int) -> list[tuple[str, int]]:
        """Age every idle instance by one step; uninstall those reaching t_thresh.

        Returns the uninstalled (vtype, fid) pairs sorted for determinism.
        """
        reaped: list[tuple[str, int]] = []
        for vname in sorted(self.idle_clock):
            clocks = self.idle_clock[vname]
            for fid in sorted(clocks):
                clocks[fid] += 1
                if clocks[fid] >= t_thresh:
                    reaped.append((vname, fid))
        for vname, fid in reaped:
            self.uninstall_vnf(vname, fid)
        return reaped
