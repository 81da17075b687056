"""Instance lifecycle, resource ledger exactness, idle reaping."""

import os
import subprocess
import sys

import numpy as np
import pytest

import sfcsim

from sfcsim.catalog import VnfType, default_catalog
from sfcsim.datacenter import (
    AlreadyInUse,
    DataCenter,
    FunctionInUse,
    InsufficientResources,
    LedgerError,
    NotInUse,
    UnknownFunction,
)

CAT = default_catalog()
NAT = CAT.vnfs["NAT"]


def fresh_dc():
    return DataCenter(0, 2000, 64, 256)


class TestInstall:
    def test_install_decrements_resources(self):
        dc = fresh_dc()
        dc.install_vnf(NAT)
        assert dc.cur_storage == 1993_000
        assert dc.cur_compute == 16380_000

    def test_exhausted_storage_refused(self):
        dc = DataCenter(0, 5, 64, 256)
        with pytest.raises(InsufficientResources):
            dc.install_vnf(NAT)

    def test_285_nats_fit_286th_fails(self):
        dc = fresh_dc()
        for _ in range(285):
            dc.install_vnf(NAT)
        assert dc.cur_storage == (2000 - 285 * 7) * 1000
        with pytest.raises(InsufficientResources):
            dc.install_vnf(NAT)

    def test_fractional_demands_keep_exact_ledger(self):
        # 0.1 GB and 1 x 0.3 compute have no exact float form; summed as
        # floats, the ledger identity broke on 38 of these 39 installs
        tiny = VnfType("NAT", 1, 0.3, 0.1, 1)
        dc = fresh_dc()
        fids = []
        for _ in range(39):
            fids.append(dc.install_vnf(tiny))
            dc.check_ledger()
        for fid in fids:
            dc.uninstall_vnf("NAT", fid)
        assert (dc.cur_storage, dc.cur_compute) == (dc.max_storage, dc.max_compute)

    def test_fractional_demands_fill_capacity_exactly(self):
        tiny = VnfType("NAT", 1, 0.3, 0.1, 1)
        dc = DataCenter(0, 3.9, 1, 11.7)
        for _ in range(39):
            dc.install_vnf(tiny)
        assert (dc.cur_storage, dc.cur_compute) == (0, 0)
        with pytest.raises(InsufficientResources):
            dc.install_vnf(tiny)

    def test_fids_unique_and_monotonic(self):
        dc = fresh_dc()
        fids = [dc.install_vnf(NAT) for _ in range(5)]
        assert fids == [1, 2, 3, 4, 5]
        dc.uninstall_vnf("NAT", 3)
        assert dc.install_vnf(NAT) == 6  # ids never reused


class TestLifecycle:
    def test_install_uninstall_restores_fresh_state(self):
        dc = fresh_dc()
        fid = dc.install_vnf(NAT)
        dc.uninstall_vnf("NAT", fid)
        assert dc.cur_storage == 2000_000
        assert dc.cur_compute == 16384_000
        assert dc.installed_count() == 0
        dc.check_ledger()

    def test_uninstall_unknown(self):
        with pytest.raises(UnknownFunction):
            fresh_dc().uninstall_vnf("NAT", 7)

    def test_uninstall_in_use_refused(self):
        dc = fresh_dc()
        fid = dc.install_vnf(NAT)
        dc.allocate_vnf("NAT", fid)
        with pytest.raises(FunctionInUse):
            dc.uninstall_vnf("NAT", fid)

    def test_allocate_removes_idle_clock(self):
        dc = fresh_dc()
        fid = dc.install_vnf(NAT)
        dc.allocate_vnf("NAT", fid)
        assert fid not in dc.idle_since["NAT"]
        assert dc.in_use_count("NAT") == 1

    def test_double_allocate_refused(self):
        dc = fresh_dc()
        fid = dc.install_vnf(NAT)
        dc.allocate_vnf("NAT", fid)
        with pytest.raises(AlreadyInUse):
            dc.allocate_vnf("NAT", fid)

    def test_allocation_isolated_per_instance(self):
        dc = fresh_dc()
        a = dc.install_vnf(NAT)
        dc.tick_idle(1000)
        b = dc.install_vnf(NAT)
        dc.allocate_vnf("NAT", a)
        assert dc.idle_steps("NAT", b) == 0
        assert dc.idle_count("NAT") == 1

    def test_revoke_resets_clock_keeps_resources(self):
        dc = fresh_dc()
        fid = dc.install_vnf(NAT)
        after_install = (dc.cur_storage, dc.cur_compute)
        dc.allocate_vnf("NAT", fid)
        dc.revoke_vnf("NAT", fid)
        assert dc.idle_steps("NAT", fid) == 0
        assert (dc.cur_storage, dc.cur_compute) == after_install

    def test_revoke_idle_refused(self):
        dc = fresh_dc()
        fid = dc.install_vnf(NAT)
        with pytest.raises(NotInUse):
            dc.revoke_vnf("NAT", fid)

    def test_reuse_after_revoke(self):
        dc = fresh_dc()
        fid = dc.install_vnf(NAT)
        dc.allocate_vnf("NAT", fid)
        dc.revoke_vnf("NAT", fid)
        dc.allocate_vnf("NAT", fid)  # a different chain may take the instance
        assert dc.in_use_count("NAT") == 1

    def test_force_revoke_mid_processing(self):
        dc = fresh_dc()
        fid = dc.install_vnf(NAT)
        dc.allocate_vnf("NAT", fid)
        dc.force_revoke_vnf("NAT", fid)
        assert dc.idle_steps("NAT", fid) == 0

    def test_force_revoke_idle_resets_clock(self):
        dc = fresh_dc()
        fid = dc.install_vnf(NAT)
        dc.tick_idle(1000)
        assert dc.idle_steps("NAT", fid) == 1
        dc.force_revoke_vnf("NAT", fid)
        assert dc.idle_steps("NAT", fid) == 0


class TestIdleReaper:
    def test_threshold_boundary(self):
        dc = fresh_dc()
        fid = dc.install_vnf(NAT)
        for _ in range(99):
            assert dc.tick_idle(100) == []
        assert dc.tick_idle(100) == [("NAT", fid)]
        assert dc.cur_storage == 2000_000

    def test_no_idle_instances(self):
        assert fresh_dc().tick_idle(100) == []

    def test_staggered_clocks(self):
        dc = fresh_dc()
        a = dc.install_vnf(NAT)
        for _ in range(49):
            dc.tick_idle(100)
        b = dc.install_vnf(NAT)
        for _ in range(50):
            dc.tick_idle(100)
        # a has been idle 99 ticks, b 50
        assert dc.tick_idle(100) == [("NAT", a)]
        assert dc.idle_steps("NAT", b) == 51

    def test_in_use_not_reaped(self):
        dc = fresh_dc()
        fid = dc.install_vnf(NAT)
        dc.allocate_vnf("NAT", fid)
        for _ in range(300):
            assert dc.tick_idle(100) == []


class TestExpiryQueue:
    def test_allocate_and_revoke_in_one_tick_reaps_once(self):
        # install and revoke both stamp tick 0: two queue entries, one instance
        dc = fresh_dc()
        fid = dc.install_vnf(NAT)
        dc.allocate_vnf("NAT", fid)
        dc.revoke_vnf("NAT", fid)
        for _ in range(9):
            assert dc.tick_idle(10) == []
        assert dc.tick_idle(10) == [("NAT", fid)]
        for _ in range(20):
            assert dc.tick_idle(10) == []
        assert dc.installed_count() == 0
        assert dc.cur_storage == dc.max_storage
        dc.check_ledger()

    def test_force_revoke_idle_restarts_expiry(self):
        dc = fresh_dc()
        fid = dc.install_vnf(NAT)
        for _ in range(30):
            dc.tick_idle(50)
        dc.force_revoke_vnf("NAT", fid)
        for _ in range(49):
            assert dc.tick_idle(50) == []  # the install-time entry is stale
        assert dc.idle_steps("NAT", fid) == 49
        assert dc.tick_idle(50) == [("NAT", fid)]
        assert dc.ticks == 80

    def test_reap_order_across_types(self):
        dc = fresh_dc()
        order = ["WO", "FW", "NAT", "FW", "IDPS", "NAT"]
        installed = []
        for name in order:  # one stamp per install, so queue order is install order
            installed.append((name, dc.install_vnf(CAT.vnfs[name])))
            dc.tick_idle(100)
        reaped = dc.tick_idle(1)
        assert reaped == sorted(installed)
        assert reaped != installed
        assert dc.installed_count() == 0

    def test_random_ops_match_per_tick_clocks(self):
        # the naive model ages every idle instance on every tick; the
        # threshold changes from call to call
        rng = np.random.default_rng(91)
        dc = DataCenter(0, 200, 8, 16)
        vnfs = list(CAT.vnfs.values())
        clocks = {}  # (vname, fid) -> idle ticks, idle instances only
        in_use = []
        reaps = restarts = 0
        for _ in range(10_000):
            op = rng.integers(6)
            if op == 0:
                vt = vnfs[rng.integers(len(vnfs))]
                try:
                    clocks[(vt.name, dc.install_vnf(vt))] = 0
                except InsufficientResources:
                    pass
            elif op == 1 and clocks:
                pair = sorted(clocks)[rng.integers(len(clocks))]
                del clocks[pair]
                dc.allocate_vnf(*pair)
                in_use.append(pair)
            elif op == 2 and in_use:
                pair = in_use.pop(rng.integers(len(in_use)))
                dc.revoke_vnf(*pair)
                clocks[pair] = 0
                restarts += 1
            elif op == 3 and clocks:
                pair = sorted(clocks)[rng.integers(len(clocks))]
                dc.force_revoke_vnf(*pair)  # already idle: restarts its clock
                clocks[pair] = 0
                restarts += 1
            elif op == 4 and clocks and rng.random() < 0.2:
                pair = sorted(clocks)[rng.integers(len(clocks))]
                del clocks[pair]
                dc.uninstall_vnf(*pair)
            else:
                t_thresh = int(rng.choice([1, 2, 5, 12, 30]))
                for pair in clocks:
                    clocks[pair] += 1
                want = sorted(p for p, c in clocks.items() if c >= t_thresh)
                for pair in want:
                    del clocks[pair]
                assert dc.tick_idle(t_thresh) == want
                reaps += len(want)
            assert {(v, f): dc.idle_steps(v, f)
                    for v, fids in dc.idle_since.items() for f in fids} == clocks
            dc.check_ledger()
        assert reaps > 500 and restarts > 500

    def test_idle_instance_without_entry_rejected(self):
        dc = fresh_dc()
        dc.install_vnf(NAT)
        dc._expiry.clear()
        with pytest.raises(LedgerError, match="no expiry entry"):
            dc.check_ledger()

    def test_idle_stamp_without_matching_entry_rejected(self):
        dc = fresh_dc()
        fid = dc.install_vnf(NAT)
        dc.tick_idle(100)
        dc.idle_since["NAT"][fid] = 1  # the only entry carries stamp 0
        with pytest.raises(LedgerError, match="no expiry entry"):
            dc.check_ledger()


class TestRandomLifecycle:
    def test_random_op_sequences_keep_ledger_exact(self):
        rng = np.random.default_rng(77)
        dc = DataCenter(0, 200, 8, 16)
        vnfs = list(CAT.vnfs.values())
        in_use = []
        idle = []
        for _ in range(10_000):
            op = rng.integers(5)
            if op == 0:
                vt = vnfs[rng.integers(len(vnfs))]
                try:
                    fid = dc.install_vnf(vt)
                    idle.append((vt.name, fid))
                except InsufficientResources:
                    pass
            elif op == 1 and idle:
                name, fid = idle.pop(rng.integers(len(idle)))
                dc.allocate_vnf(name, fid)
                in_use.append((name, fid))
            elif op == 2 and in_use:
                name, fid = in_use.pop(rng.integers(len(in_use)))
                dc.revoke_vnf(name, fid)
                idle.append((name, fid))
            elif op == 3 and idle:
                name, fid = idle.pop(rng.integers(len(idle)))
                dc.uninstall_vnf(name, fid)
            else:
                reaped = dc.tick_idle(40)
                for pair in reaped:
                    idle.remove(pair)
            dc.check_ledger()
            assert dc.cur_storage >= 0 and dc.cur_compute >= 0
        # idle times can never exceed the threshold
        for vname, stamps in dc.idle_since.items():
            for fid in stamps:
                assert dc.idle_steps(vname, fid) < 40


class TestLedgerCheck:
    def test_negative_free_storage_rejected(self):
        dc = fresh_dc()
        dc.cur_storage = -5
        with pytest.raises(LedgerError):
            dc.check_ledger()

    def test_idle_set_drift_rejected(self):
        dc = fresh_dc()
        fid = dc.install_vnf(NAT)
        del dc.idle_since["NAT"][fid]
        with pytest.raises(LedgerError):
            dc.check_ledger()

    def test_checks_survive_optimize_flag(self):
        # python -O strips assert statements; the ledger check must not rely on them
        src = os.path.dirname(os.path.dirname(sfcsim.__file__))
        code = (
            "from sfcsim.datacenter import DataCenter, LedgerError\n"
            "dc = DataCenter(0, 2000, 64, 256)\n"
            "dc.cur_storage = -5\n"
            "try:\n"
            "    dc.check_ledger()\n"
            "except LedgerError:\n"
            "    print('rejected')\n"
        )
        env = dict(os.environ, PYTHONPATH=src)
        proc = subprocess.run([sys.executable, "-O", "-c", code], env=env,
                              capture_output=True, text=True, timeout=60)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "rejected"
