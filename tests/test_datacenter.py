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
        assert fid not in dc.idle_clock["NAT"]
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
        assert dc.idle_clock["NAT"][b] == 0
        assert dc.idle_count("NAT") == 1

    def test_revoke_resets_clock_keeps_resources(self):
        dc = fresh_dc()
        fid = dc.install_vnf(NAT)
        after_install = (dc.cur_storage, dc.cur_compute)
        dc.allocate_vnf("NAT", fid)
        dc.revoke_vnf("NAT", fid)
        assert dc.idle_clock["NAT"][fid] == 0
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
        assert dc.idle_clock["NAT"][fid] == 0

    def test_force_revoke_idle_resets_clock(self):
        dc = fresh_dc()
        fid = dc.install_vnf(NAT)
        dc.tick_idle(1000)
        assert dc.idle_clock["NAT"][fid] == 1
        dc.force_revoke_vnf("NAT", fid)
        assert dc.idle_clock["NAT"][fid] == 0


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
        assert dc.idle_clock["NAT"][b] == 51

    def test_in_use_not_reaped(self):
        dc = fresh_dc()
        fid = dc.install_vnf(NAT)
        dc.allocate_vnf("NAT", fid)
        for _ in range(300):
            assert dc.tick_idle(100) == []


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
        # idle clocks can never exceed the threshold
        for clocks in dc.idle_clock.values():
            for value in clocks.values():
                assert value < 40


class TestLedgerCheck:
    def test_negative_free_storage_rejected(self):
        dc = fresh_dc()
        dc.cur_storage = -5
        with pytest.raises(LedgerError):
            dc.check_ledger()

    def test_idle_set_drift_rejected(self):
        dc = fresh_dc()
        fid = dc.install_vnf(NAT)
        del dc.idle_clock["NAT"][fid]
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
