"""Straight-line reference simulator for engine-oracle equivalence tests.

A deliberately naive, literal implementation of the per-step semantics:
every live request is scanned every step, elapsed counters are stored and
incremented one by one, the path search enumerates all simple paths with no
pruning, and the datacenter ledger is a pair of plain dicts. Nothing here
shares code with the production engine beyond the catalog definitions,
except the policy oracles at the end, which score a production engine's
tags with the production priority() one tag at a time.
"""

from __future__ import annotations

import math


def _milli(mbps):
    return int(round(mbps * 1000))


class RefNetwork:
    def __init__(self, nodes, edges, propagation=True):
        self.coords = {nid: (x, y) for nid, x, y in nodes}
        self.adj = {nid: [] for nid in self.coords}
        self.residual = {}
        self.capacity = {}
        for m, n, cap in edges:
            key = (min(m, n), max(m, n))
            self.capacity[key] = _milli(cap)
            self.residual[key] = _milli(cap)
            self.adj[m].append(n)
            self.adj[n].append(m)
        for nid in self.adj:
            self.adj[nid].sort()
        self.propagation = propagation

    def dist(self, m, n):
        (xa, ya), (xb, yb) = self.coords[m], self.coords[n]
        return math.hypot(xa - xb, ya - yb)

    def all_paths(self, src, dest, req_bw):
        req = _milli(req_bw)
        found = []

        def walk(node, seen, hops, length):
            if node == dest:
                found.append((length, tuple(hops)))
                return
            for nxt in self.adj[node]:
                key = (min(node, nxt), max(node, nxt))
                if nxt in seen or self.residual[key] < req:
                    continue
                seen.add(nxt)
                hops.append(nxt)
                walk(nxt, seen, hops, length + self.dist(node, nxt))
                hops.pop()
                seen.remove(nxt)

        walk(src, {src}, [src], 0.0)
        return found

    def min_path(self, src, dest, req_bw):
        if src == dest:
            return (src,), 0.0
        paths = self.all_paths(src, dest, req_bw)
        if not paths:
            return None
        length, hops = min(paths)
        return hops, length

    def update_bw(self, hops, bw, sign):
        amount = _milli(bw) * sign
        for a, b in zip(hops, hops[1:]):
            key = (min(a, b), max(a, b))
            self.residual[key] -= amount
            assert 0 <= self.residual[key] <= self.capacity[key]

    def prop_steps(self, length_km, hops):
        if not self.propagation or len(hops) < 2:
            return 0
        return math.ceil((length_km / 2.0e5) / 1.0e-5)


class RefDc:
    def __init__(self, dc_id, storage, cpus, ram):
        self.dc_id = dc_id
        self.max_storage = storage
        self.max_compute = cpus * ram
        self.storage = storage
        self.compute = cpus * ram
        self.funcs = {}   # vname -> {fid: 0 idle | 1 busy}
        self.clocks = {}  # vname -> {fid: idle steps}
        self.next_fid = {}

    def try_install(self, vname, need_storage, need_compute):
        if self.storage < need_storage or self.compute < need_compute:
            return None
        fid = self.next_fid.get(vname, 1)
        self.next_fid[vname] = fid + 1
        self.funcs.setdefault(vname, {})[fid] = 0
        self.clocks.setdefault(vname, {})[fid] = 0
        self.storage -= need_storage
        self.compute -= need_compute
        return fid

    def idle_fids(self, vname):
        return sorted(self.clocks.get(vname, ()))

    def allocate(self, vname, fid):
        assert self.funcs[vname][fid] == 0
        self.funcs[vname][fid] = 1
        del self.clocks[vname][fid]

    def revoke(self, vname, fid):
        self.funcs[vname][fid] = 0
        self.clocks[vname][fid] = 0

    def uninstall(self, vname, fid, give_storage, give_compute):
        del self.funcs[vname][fid]
        del self.clocks[vname][fid]
        self.storage += give_storage
        self.compute += give_compute

    def tick(self, t_thresh, demands):
        reaped = []
        for vname in sorted(self.clocks):
            for fid in sorted(self.clocks[vname]):
                self.clocks[vname][fid] += 1
                if self.clocks[vname][fid] >= t_thresh:
                    reaped.append((vname, fid))
        for vname, fid in reaped:
            self.uninstall(vname, fid, demands[vname][0], demands[vname][1])
        return reaped

    def installed_count(self):
        return sum(len(t) for t in self.funcs.values())


class RefSim:
    """Literal per-step simulation over explicit request specs."""

    def __init__(self, catalog, nodes, edges, dc_specs, t_thresh, propagation=True):
        self.catalog = catalog
        self.net = RefNetwork(nodes, edges, propagation)
        self.dcs = [RefDc(i, s, c, r) for i, (s, c, r) in enumerate(dc_specs)]
        self.demands = {
            v.name: (v.storage_gb, v.compute_demand) for v in catalog.vnfs.values()
        }
        self.t_thresh = t_thresh
        self.step_no = 0
        self.live = {}
        self.final = {}
        self.done = []
        self.dropped = []
        self.events = []

    def emit(self, step, kind, **fields):
        rec = {"step": step, "event": kind}
        rec.update(fields)
        self.events.append(rec)

    def inject(self, specs):
        for tag, spec in specs:
            styp = self.catalog.sfcs[spec["type"]]
            bw = round(spec["bw"] * 1000) / 1000
            packet = styp.packet_len_mb if styp.packet_len_mb is not None else bw * 0.001
            chain = []
            for vname in styp.chain:
                # state: [t_req, t_vcurr, vnf_dc, fid]
                chain.append([self.catalog.vnfs[vname].proc_time, -1, None, None, vname])
            self.live[tag] = {
                "type": styp.name,
                "src": spec["src"],
                "dest": spec["dest"],
                "bw": bw,
                "packet": packet,
                "deadline": int(round(100 * styp.e2e_ms)),
                "t_ccurr": 0,
                "sfc_dc": spec["src"],
                "chain": chain,
                "tx_path": None,
                "tx_remain": 0,
            }
            self.emit(self.step_no, "inject", tag=tag, type=styp.name, src=spec["src"],
                      dest=spec["dest"], bw=bw)

    def tx_time(self, packet, bw, hops, length):
        return math.ceil(100.0 * packet / bw) + self.net.prop_steps(length, hops)

    def step(self):
        now = self.step_no
        # drop pass
        for tag in list(self.live):
            rec = self.live[tag]
            if rec["t_ccurr"] > rec["deadline"] and rec["chain"]:
                for state in rec["chain"]:
                    if state[1] != -1:
                        self.dcs[state[2]].revoke(state[4], state[3])
                        self.emit(now, "force_revoke", tag=tag, vtype=state[4],
                                  dc=state[2], fid=state[3])
                if rec["tx_path"] is not None:
                    self.net.update_bw(rec["tx_path"], rec["bw"], -1)
                del self.live[tag]
                self.dropped.append((tag, rec["type"], now, len(rec["chain"])))
                self.emit(now, "drop", tag=tag, type=rec["type"], pending=len(rec["chain"]))
        # head pass: only the first VNF of each chain, one branch per tag
        for tag in list(self.live):
            rec = self.live[tag]
            if rec["chain"]:
                state = rec["chain"][0]
                if rec["tx_remain"] != 0 and rec["tx_path"] is not None:
                    rec["tx_remain"] -= 1
                    if rec["tx_remain"] <= 0:
                        self.net.update_bw(rec["tx_path"], rec["bw"], -1)
                        rec["tx_path"] = None
                        self.emit(now, "tx_end", tag=tag)
                elif state[1] != -1 and state[0] - 1 != state[1]:
                    if rec["sfc_dc"] == state[2]:
                        state[1] += 1
                    else:
                        res = self.net.min_path(rec["sfc_dc"], state[2], rec["bw"])
                        if res is not None:
                            hops, length = res
                            steps = self.tx_time(rec["packet"], rec["bw"], hops, length)
                            rec["tx_path"] = hops
                            rec["tx_remain"] = steps
                            self.net.update_bw(hops, rec["bw"], +1)
                            self.emit(now, "tx_start", tag=tag, src=rec["sfc_dc"],
                                      dc=state[2], steps=steps, hops=list(hops))
                            rec["sfc_dc"] = state[2]
                elif state[0] - 1 == state[1]:
                    self.dcs[state[2]].revoke(state[4], state[3])
                    self.emit(now, "proc_done", tag=tag, vtype=state[4], dc=state[2],
                              fid=state[3])
                    rec["chain"].pop(0)
            rec["t_ccurr"] += 1
        # completion pass: chain done, start the final packet TX
        for tag in list(self.live):
            rec = self.live[tag]
            if not rec["chain"]:
                res = self.net.min_path(rec["sfc_dc"], rec["dest"], rec["bw"])
                if res is None:
                    continue
                hops, length = res
                steps = self.tx_time(rec["packet"], rec["bw"], hops, length)
                self.net.update_bw(hops, rec["bw"], +1)
                self.final[tag] = {
                    "type": rec["type"], "bw": rec["bw"], "hops": hops,
                    "remain": steps, "t_ccurr": rec["t_ccurr"],
                    "deadline": rec["deadline"], "born": now,
                }
                del self.live[tag]
                self.emit(now, "final_start", tag=tag, src=rec["sfc_dc"],
                          dest=rec["dest"], steps=steps, hops=list(hops))
        # final TX pass (entries created this step start ticking next step)
        for tag in list(self.final):
            ftx = self.final[tag]
            if ftx["born"] == now:
                continue
            ftx["remain"] -= 1
            ftx["t_ccurr"] += 1
            if ftx["remain"] <= 0:
                self.net.update_bw(ftx["hops"], ftx["bw"], -1)
                e2e = ftx["t_ccurr"]
                accepted = e2e <= ftx["deadline"]
                if accepted:
                    self.done.append((tag, ftx["type"], e2e))
                else:
                    self.dropped.append((tag, ftx["type"], now, 0))
                self.emit(now, "complete", tag=tag, type=ftx["type"], e2e_steps=e2e,
                          accepted=accepted)
                del self.final[tag]
        # idle reaper
        for dc in self.dcs:
            for vname, fid in dc.tick(self.t_thresh, self.demands):
                self.emit(now, "reap", dc=dc.dc_id, vtype=vname, fid=fid)
        self.step_no = now + 1

    # policy-phase primitives, mirroring the engine's executor rules

    def waiting_heads(self):
        out = []
        for tag in sorted(self.live):
            rec = self.live[tag]
            if rec["chain"] and rec["chain"][0][1] == -1:
                out.append((tag, rec["chain"][0][4]))
        return out

    def allocate_head(self, tag, dc_id):
        rec = self.live.get(tag)
        if rec is None or not rec["chain"] or rec["chain"][0][1] != -1:
            return False
        state = rec["chain"][0]
        vname = state[4]
        dc = self.dcs[dc_id]
        idle = dc.idle_fids(vname)
        if idle:
            fid = idle[0]
        else:
            fid = dc.try_install(vname, *self.demands[vname])
            if fid is None:
                return False
            self.emit(self.step_no, "install", dc=dc_id, vtype=vname, fid=fid)
        dc.allocate(vname, fid)
        state[1] = 0
        state[2] = dc_id
        state[3] = fid
        self.emit(self.step_no, "allocate", tag=tag, vtype=vname, dc=dc_id, fid=fid)
        return True

    def uninstall_idle(self, dc_id, vname):
        dc = self.dcs[dc_id]
        idle = dc.idle_fids(vname)
        if not idle:
            return False
        dc.uninstall(vname, idle[0], *self.demands[vname])
        self.emit(self.step_no, "uninstall", dc=dc_id, vtype=vname, fid=idle[0])
        return True

    def idle(self):
        return not self.live and not self.final

    def no_instances(self):
        return all(dc.installed_count() == 0 for dc in self.dcs)


# policy oracles over a production engine

def candidate_set(engine, dc, vtype):
    """Tags whose head chain entry has this vtype and is unallocated, ascending.

    Only heads are eligible: downstream VNFs cannot start until every
    predecessor has completed.
    """
    return sorted(tag for group in engine.waiting.get(vtype, {}).values() for tag in group)


def naive_select(engine, dc, vtype):
    """Argmax of priority().total over every candidate tag; smallest tag on ties."""
    from sfcsim.policy import priority

    best_tag, best_total = None, -1.0
    for tag in candidate_set(engine, dc, vtype):
        total = priority(engine, tag, dc).total
        if total > best_total or (total == best_total and (best_tag is None or tag < best_tag)):
            best_tag, best_total = tag, total
    return best_tag


def chain_scan_p3(engine, tag, dc):
    """p3 by its definition: 1 if any allocated VNF of the chain sits at dc."""
    chain = engine.live[tag].chain
    return 1.0 if any(v.allocated and v.vnf_dc == dc for v in chain) else 0.0
