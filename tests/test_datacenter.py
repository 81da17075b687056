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


def expiry_step(dc, t_thresh: int) -> int | None:
    """The step whose reap pass reaps the longest-idle instance, or None
    when nothing is idle. Engine.next_due reads the same front stamp inline."""
    for since in dc.idle_since.values():
        return since + t_thresh - 1
    return None


class ExpiryDataCenter(DataCenter):
    """A DataCenter whose tests ask it for expiry_step."""

    expiry_step = expiry_step


def fresh_dc():
    return ExpiryDataCenter(0, 2000, 64, 256)


class TestInstall:
    def test_install_decrements_resources(self):
        dc = fresh_dc()
        dc.install_vnf(NAT, 0)
        assert dc.cur_storage == 1993_000
        assert dc.cur_compute == 16380_000

    def test_exhausted_storage_refused(self):
        dc = DataCenter(0, 5, 64, 256)
        with pytest.raises(InsufficientResources):
            dc.install_vnf(NAT, 0)

    def test_285_nats_fit_286th_fails(self):
        dc = fresh_dc()
        for _ in range(285):
            dc.install_vnf(NAT, 0)
        assert dc.cur_storage == (2000 - 285 * 7) * 1000
        with pytest.raises(InsufficientResources):
            dc.install_vnf(NAT, 0)

    def test_fractional_demands_keep_exact_ledger(self):
        # 0.1 GB and 1 x 0.3 compute have no exact float form; summed as
        # floats, the ledger identity broke on 38 of these 39 installs
        tiny = VnfType("NAT", 1, 0.3, 0.1, 1)
        dc = fresh_dc()
        fids = []
        for _ in range(39):
            fids.append(dc.install_vnf(tiny, 0))
            dc.check_ledger()
        for fid in fids:
            dc.uninstall_vnf("NAT", fid)
        assert (dc.cur_storage, dc.cur_compute) == (dc.max_storage, dc.max_compute)

    def test_fractional_demands_fill_capacity_exactly(self):
        tiny = VnfType("NAT", 1, 0.3, 0.1, 1)
        dc = DataCenter(0, 3.9, 1, 11.7)
        for _ in range(39):
            dc.install_vnf(tiny, 0)
        assert (dc.cur_storage, dc.cur_compute) == (0, 0)
        with pytest.raises(InsufficientResources):
            dc.install_vnf(tiny, 0)

    def test_fids_unique_and_monotonic(self):
        dc = fresh_dc()
        fids = [dc.install_vnf(NAT, 0) for _ in range(5)]
        assert fids == [1, 2, 3, 4, 5]
        dc.uninstall_vnf("NAT", 3)
        assert dc.install_vnf(NAT, 0) == 6  # ids never reused


class TestLifecycle:
    def test_install_uninstall_restores_fresh_state(self):
        dc = fresh_dc()
        fid = dc.install_vnf(NAT, 0)
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
        fid = dc.install_vnf(NAT, 0)
        dc.allocate_vnf("NAT", fid)
        with pytest.raises(FunctionInUse):
            dc.uninstall_vnf("NAT", fid)

    def test_allocate_removes_idle_clock(self):
        dc = fresh_dc()
        fid = dc.install_vnf(NAT, 0)
        dc.allocate_vnf("NAT", fid)
        assert ("NAT", fid) not in dc.idle_since and fid not in dc.idle["NAT"]
        assert dc.in_use_count("NAT") == 1

    def test_first_idle_is_the_lowest_idle_fid(self):
        dc = fresh_dc()
        a, b, c = (dc.install_vnf(NAT, 0) for _ in range(3))
        dc.allocate_vnf("NAT", a)
        dc.allocate_vnf("NAT", b)
        dc.revoke_vnf("NAT", b, 1)  # b is now the latest stamp
        assert dc.first_idle("NAT") == b
        dc.allocate_vnf("NAT", b)
        assert dc.first_idle("NAT") == c
        dc.allocate_vnf("NAT", c)
        assert dc.first_idle("NAT") is None
        assert dc.first_idle("FW") is None

    def test_double_allocate_refused(self):
        dc = fresh_dc()
        fid = dc.install_vnf(NAT, 0)
        dc.allocate_vnf("NAT", fid)
        with pytest.raises(AlreadyInUse):
            dc.allocate_vnf("NAT", fid)

    def test_allocation_isolated_per_instance(self):
        dc = fresh_dc()
        a = dc.install_vnf(NAT, 0)
        dc.tick_idle(0, 1000)
        b = dc.install_vnf(NAT, 1)
        dc.allocate_vnf("NAT", a)
        assert dc.idle_since == {("NAT", b): 1}
        assert dc.idle_count("NAT") == 1

    def test_revoke_resets_clock_keeps_resources(self):
        dc = fresh_dc()
        fid = dc.install_vnf(NAT, 0)
        after_install = (dc.cur_storage, dc.cur_compute)
        dc.allocate_vnf("NAT", fid)
        dc.revoke_vnf("NAT", fid, 5)
        assert dc.idle_since[("NAT", fid)] == 5
        assert (dc.cur_storage, dc.cur_compute) == after_install

    def test_revoke_idle_refused(self):
        dc = fresh_dc()
        fid = dc.install_vnf(NAT, 0)
        with pytest.raises(NotInUse):
            dc.revoke_vnf("NAT", fid, 0)

    def test_reuse_after_revoke(self):
        dc = fresh_dc()
        fid = dc.install_vnf(NAT, 0)
        dc.allocate_vnf("NAT", fid)
        dc.revoke_vnf("NAT", fid, 3)
        dc.allocate_vnf("NAT", fid)  # a different chain may take the instance
        assert dc.in_use_count("NAT") == 1

    def test_force_revoke_mid_processing(self):
        # the drop pass revokes an allocated head (trace event force_revoke)
        dc = fresh_dc()
        fid = dc.install_vnf(NAT, 0)
        dc.allocate_vnf("NAT", fid)
        dc.revoke_vnf("NAT", fid, 3)
        assert dc.idle_since[("NAT", fid)] == 3


class TestIdleReaper:
    def test_threshold_boundary(self):
        # stamped 0, an instance has been idle now + 1 steps at step now's reap
        dc = fresh_dc()
        fid = dc.install_vnf(NAT, 0)
        assert dc.expiry_step(100) == 99
        for now in range(99):
            assert dc.tick_idle(now, 100) == []
        assert dc.tick_idle(99, 100) == [("NAT", fid)]
        assert dc.cur_storage == 2000_000
        assert dc.expiry_step(100) is None

    def test_no_idle_instances(self):
        assert fresh_dc().tick_idle(0, 100) == []
        assert fresh_dc().expiry_step(100) is None

    def test_staggered_clocks(self):
        dc = fresh_dc()
        a = dc.install_vnf(NAT, 0)
        for now in range(49):
            dc.tick_idle(now, 100)
        b = dc.install_vnf(NAT, 49)
        for now in range(49, 99):
            dc.tick_idle(now, 100)
        # a has been idle 100 steps at step 99's reap, b 51
        assert dc.tick_idle(99, 100) == [("NAT", a)]
        assert dc.expiry_step(100) == 148
        assert dc.idle_since == {("NAT", b): 49}

    def test_in_use_not_reaped(self):
        dc = fresh_dc()
        fid = dc.install_vnf(NAT, 0)
        dc.allocate_vnf("NAT", fid)
        for now in range(300):
            assert dc.tick_idle(now, 100) == []


class TestExpiryQueue:
    def test_allocate_and_revoke_in_one_tick_reaps_once(self):
        # install and revoke both stamp step 0: one instance, one stamp
        dc = fresh_dc()
        fid = dc.install_vnf(NAT, 0)
        dc.allocate_vnf("NAT", fid)
        dc.revoke_vnf("NAT", fid, 0)
        for now in range(9):
            assert dc.tick_idle(now, 10) == []
        assert dc.tick_idle(9, 10) == [("NAT", fid)]
        for now in range(10, 30):
            assert dc.tick_idle(now, 10) == []
        assert dc.installed_count() == 0
        assert dc.cur_storage == dc.max_storage
        dc.check_ledger()

    def test_expiry_step_skips_stale_install_stamp(self):
        # taking the instance deletes its install stamp (0); only the revoke
        # stamp can expire
        dc = fresh_dc()
        fid = dc.install_vnf(NAT, 0)
        dc.allocate_vnf("NAT", fid)
        assert dc.expiry_step(50) is None
        dc.revoke_vnf("NAT", fid, 20)
        assert dc.expiry_step(50) == 69
        for now in range(69):
            assert dc.tick_idle(now, 50) == []
        assert dc.tick_idle(69, 50) == [("NAT", fid)]

    def test_expiry_step_skips_reaped_instances(self):
        dc = fresh_dc()
        a = dc.install_vnf(NAT, 0)
        dc.allocate_vnf("NAT", a)
        dc.revoke_vnf("NAT", a, 0)  # restamped 0
        b = dc.install_vnf(NAT, 5)
        assert dc.tick_idle(9, 10) == [("NAT", a)]
        assert dc.expiry_step(10) == 14
        dc.allocate_vnf("NAT", b)
        assert dc.expiry_step(10) is None
        dc.check_ledger()

    def test_reap_order_across_types(self):
        dc = fresh_dc()
        order = ["WO", "FW", "NAT", "FW", "IDPS", "NAT"]
        installed = []
        for now, name in enumerate(order):  # one stamp per install: table order is install order
            installed.append((name, dc.install_vnf(CAT.vnfs[name], now)))
            dc.tick_idle(now, 100)
        reaped = dc.tick_idle(len(order), 1)
        assert reaped == sorted(installed)
        assert reaped != installed
        assert dc.installed_count() == 0

    def test_random_ops_match_per_tick_clocks(self):
        # the naive model ages every idle instance on every step; the
        # threshold changes from call to call
        rng = np.random.default_rng(91)
        dc = ExpiryDataCenter(0, 200, 8, 16)
        vnfs = list(CAT.vnfs.values())
        clocks = {}  # (vname, fid) -> idle steps, idle instances only
        in_use = []
        reaps = restarts = 0
        now = 0  # the next reap pass's step
        for _ in range(10_000):
            op = rng.integers(6)
            if op == 0:
                vt = vnfs[rng.integers(len(vnfs))]
                try:
                    clocks[(vt.name, dc.install_vnf(vt, now))] = 0
                except InsufficientResources:
                    pass
            elif op == 1 and clocks:
                pair = sorted(clocks)[rng.integers(len(clocks))]
                del clocks[pair]
                dc.allocate_vnf(*pair)
                in_use.append(pair)
            elif op == 2 and in_use:
                pair = in_use.pop(rng.integers(len(in_use)))
                dc.revoke_vnf(*pair, now)
                clocks[pair] = 0
                restarts += 1
            elif op == 3 and clocks:
                pair = sorted(clocks)[rng.integers(len(clocks))]
                dc.allocate_vnf(*pair)  # taken and let go in one step: restarts its clock
                dc.revoke_vnf(*pair, now)
                clocks[pair] = 0
                restarts += 1
            elif op == 4 and clocks and rng.random() < 0.2:
                pair = sorted(clocks)[rng.integers(len(clocks))]
                del clocks[pair]
                dc.uninstall_vnf(*pair)
            else:
                t_thresh = int(rng.choice([0, 1, 2, 5, 12, 30]))
                for pair in clocks:
                    clocks[pair] += 1
                want = sorted(p for p, c in clocks.items() if c >= t_thresh)
                for pair in want:
                    del clocks[pair]
                assert dc.tick_idle(now, t_thresh) == want
                now += 1
                reaps += len(want)
            assert {pair: now - stamp for pair, stamp in dc.idle_since.items()} == clocks
            assert len(dc.idle_since) == sum(len(s) for s in dc.idle.values())
            # the longest-idle instance reaches 30 idle steps at this reap step
            assert dc.expiry_step(30) == (now + 29 - max(clocks.values()) if clocks else None)
            dc.check_ledger()
        assert reaps > 500 and restarts > 500

    def test_idle_instance_without_entry_rejected(self):
        dc = fresh_dc()
        dc.install_vnf(NAT, 0)
        dc.idle_since.clear()
        with pytest.raises(LedgerError, match="idle stamps differ from the idle instances"):
            dc.check_ledger()

    def test_idle_stamps_out_of_order_rejected(self):
        dc = fresh_dc()
        fid = dc.install_vnf(NAT, 0)
        dc.tick_idle(0, 100)
        dc.install_vnf(NAT, 1)
        dc.idle_since[("NAT", fid)] = 2  # restamped without moving to the end
        with pytest.raises(LedgerError, match="idle stamps out of order"):
            dc.check_ledger()


class TestRandomLifecycle:
    def test_random_op_sequences_keep_ledger_exact(self):
        rng = np.random.default_rng(77)
        dc = DataCenter(0, 200, 8, 16)
        vnfs = list(CAT.vnfs.values())
        in_use = []
        idle = []
        now = 0  # the next reap pass's step
        for _ in range(10_000):
            op = rng.integers(5)
            if op == 0:
                vt = vnfs[rng.integers(len(vnfs))]
                try:
                    fid = dc.install_vnf(vt, now)
                    idle.append((vt.name, fid))
                except InsufficientResources:
                    pass
            elif op == 1 and idle:
                name, fid = idle.pop(rng.integers(len(idle)))
                dc.allocate_vnf(name, fid)
                in_use.append((name, fid))
            elif op == 2 and in_use:
                name, fid = in_use.pop(rng.integers(len(in_use)))
                dc.revoke_vnf(name, fid, now)
                idle.append((name, fid))
            elif op == 3 and idle:
                name, fid = idle.pop(rng.integers(len(idle)))
                dc.uninstall_vnf(name, fid)
            else:
                reaped = dc.tick_idle(now, 40)
                now += 1
                for pair in reaped:
                    idle.remove(pair)
            dc.check_ledger()
            assert dc.cur_storage >= 0 and dc.cur_compute >= 0
        # idle times can never exceed the threshold
        for stamp in dc.idle_since.values():
            assert now - stamp < 40


class TestLedgerCheck:
    def test_negative_free_storage_rejected(self):
        dc = fresh_dc()
        dc.cur_storage = -5
        with pytest.raises(LedgerError):
            dc.check_ledger()

    def test_idle_set_drift_rejected(self):
        # an idle fid, with its stamp, that is not installed
        dc = fresh_dc()
        fid = dc.install_vnf(NAT, 0) + 1
        dc.idle["NAT"].add(fid)
        dc.idle_since[("NAT", fid)] = 0
        with pytest.raises(LedgerError, match="uninstalled"):
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
