"""Path discovery oracle checks, bandwidth conservation, propagation math."""

import math

import numpy as np
import pytest

from sfcsim.topology import NetworkGraph, PathResult, TopologyError, circle_topology, to_milli


def line_graph(caps=(500.0, 500.0)):
    nodes = [(0, 0.0, 0.0), (1, 100.0, 0.0), (2, 200.0, 0.0)]
    edges = [(0, 1, caps[0]), (1, 2, caps[1])]
    return NetworkGraph(nodes, edges)


def random_graph(seed, max_nodes=8):
    rng = np.random.default_rng([seed, 0x6])
    n = int(rng.integers(2, max_nodes + 1))
    nodes = [(i, float(rng.uniform(0, 100)), float(rng.uniform(0, 100))) for i in range(n)]
    edges = []
    for i in range(n):
        for j in range(i + 1, n):
            if rng.random() < 0.55:
                edges.append((i, j, float(np.round(rng.uniform(0, 100), 3))))
    return NetworkGraph(nodes, edges), rng


def enumerate_min_paths(graph, src, req_bw):
    """Exhaustive simple-path oracle over the bandwidth-feasible edge set.

    Walks every simple path from src without any bound and returns, for each
    reachable node, the minimum (hop-by-hop float length, hops).
    """
    req_milli = round(req_bw * 1000)
    links = {m: [(x, km) for x, key, km in graph._nbrs[m] if graph._residual[key] >= req_milli]
             for m in range(graph.n)}
    best = {}
    stack = [((src,), 0.0)]
    while stack:
        hops, length = stack.pop()
        node = hops[-1]
        if node not in best or (length, hops) < best[node]:
            best[node] = (length, hops)
        for nxt, km in links[node]:
            if nxt not in hops:
                stack.append((hops + (nxt,), length + km))
    return best


def assert_matches_oracle(got, want):
    if want is None:
        assert got is None
    else:
        assert got is not None
        assert got.hops == want[1]
        assert got.length_km == want[0]


class TestSelectMinPath:
    def test_src_equals_dest(self):
        g = line_graph()
        path = g.select_min_path(1, 1, 100.0)
        assert path.hops == (1,)
        assert path.length_km == 0.0

    def test_line_only_path(self):
        g = line_graph()
        path = g.select_min_path(0, 2, 10.0)
        assert path.hops == (0, 1, 2)
        assert path.length_km == 200.0

    def test_detour_when_short_edge_lacks_bandwidth(self):
        # square with a direct diagonal; diagonal too thin for the demand
        nodes = [(0, 0.0, 0.0), (1, 10.0, 0.0), (2, 10.0, 10.0), (3, 0.0, 10.0)]
        edges = [(0, 1, 500.0), (1, 2, 500.0), (2, 3, 500.0), (0, 3, 500.0), (0, 2, 5.0)]
        g = NetworkGraph(nodes, edges)
        path = g.select_min_path(0, 2, 10.0)
        assert_matches_oracle(path, enumerate_min_paths(g, 0, 10.0).get(2))
        assert path.hops in ((0, 1, 2), (0, 3, 2))

    def test_unknown_node_raises(self):
        with pytest.raises(TopologyError):
            line_graph().select_min_path(0, 9, 1.0)

    def test_no_path_returns_none(self):
        g = line_graph(caps=(500.0, 5.0))
        assert g.select_min_path(0, 2, 10.0) is None

    def test_oracle_equivalence_random_graphs(self):
        for seed in [*range(300), *range(10_000, 10_200)]:
            g, rng = random_graph(seed)
            src = int(rng.integers(g.n))
            dest = int(rng.integers(g.n))
            req = float(np.round(rng.uniform(0, 600), 3))
            want = enumerate_min_paths(g, src, req).get(dest)
            assert_matches_oracle(g.select_min_path(src, dest, req), want)

    def test_pruning_soundness(self):
        # An infinite slack keeps every label, so the search turns exhaustive;
        # pruning must not change which path is found.
        for seed in range(200):
            g, rng = random_graph(seed + 10_000)
            src = int(rng.integers(g.n))
            dest = int(rng.integers(g.n))
            req = float(np.round(rng.uniform(0, 400), 3))
            a = g.select_min_path(src, dest, req)
            g._slack_km = math.inf
            b = g.select_min_path(src, dest, req)
            assert (a is None) == (b is None)
            if a is not None:
                assert a.hops == b.hops
                assert a.length_km == b.length_km

    def test_oracle_equivalence_sparse_circles(self):
        # Evenly spaced nodes give many routes of equal length whose float
        # sums differ in the last bits before a shared suffix.
        for seed in range(250):
            rng = np.random.default_rng([seed, 0x71E])
            n = int(rng.integers(4, 10))
            g = circle_topology(n, 6000.0, float(rng.uniform(0.2, 0.5)), seed)
            for key in g.edge_keys():
                g._residual[key] = int(rng.integers(0, 500_001))
            req = float(np.round(rng.uniform(0, 250), 3))
            for src in range(n):
                oracle = enumerate_min_paths(g, src, req)
                for dest in range(n):
                    assert_matches_oracle(g.select_min_path(src, dest, req), oracle.get(dest))

    def test_float_tie_after_shared_suffix(self):
        # 5-7-0 is shorter than 5-6-0 in floats, yet both routes sum to the
        # same length once 0-1 is added; the smaller hop tuple must win.
        g = circle_topology(8, 6000.0, 0.4, 8)
        path = g.select_min_path(5, 1, 1.0)
        assert path.hops == (5, 6, 0, 1)
        assert path.length_km == 17669.683751000724
        assert enumerate_min_paths(g, 5, 1.0)[1] == (path.length_km, path.hops)

    def test_lexicographic_tie_break(self):
        # two mirror-image routes of identical length; smaller hop ids win
        nodes = [(0, 0.0, 0.0), (1, 10.0, 10.0), (2, 10.0, -10.0), (3, 20.0, 0.0)]
        edges = [(0, 1, 500.0), (1, 3, 500.0), (0, 2, 500.0), (2, 3, 500.0)]
        g = NetworkGraph(nodes, edges)
        assert g.select_min_path(0, 3, 1.0).hops == (0, 1, 3)


class TestBandwidthLedger:
    def test_reserve_release_roundtrip(self):
        g = line_graph()
        before = g.residual_snapshot()
        path = g.select_min_path(0, 2, 4.0)
        g.reserve_bw(path, 4.0)
        assert g.residual_mbps(0, 1) == 496.0
        assert g.residual_mbps(1, 2) == 496.0
        g.release_bw(path, 4.0)
        assert g.residual_snapshot() == before

    def test_reserve_zero_is_noop(self):
        g = line_graph()
        before = g.residual_snapshot()
        g.reserve_bw(g.select_min_path(0, 2, 0.0), 0.0)
        assert g.residual_snapshot() == before

    def test_release_single_node_path_is_noop(self):
        g = line_graph()
        before = g.residual_snapshot()
        g.release_bw(PathResult((0,), 0.0), 100.0)
        assert g.residual_snapshot() == before

    def test_interleaved_reservations_restore_exactly(self):
        g = line_graph()
        before = g.residual_snapshot()
        flows = [0.064, 3.177, 49.999]
        paths = [g.select_min_path(0, 2, bw) for bw in flows]
        for path, bw in zip(paths, flows):
            g.reserve_bw(path, bw)
        for path, bw in [(paths[1], flows[1]), (paths[2], flows[2]), (paths[0], flows[0])]:
            g.release_bw(path, bw)
        assert g.residual_snapshot() == before

    def test_keys_are_each_found_paths_canonical_edges(self):
        # drawn residuals on sparse circles force detours, so many found paths
        # are multi-hop; a reserve over a path's keys moves exactly its edges,
        # and the matching release restores the ledger
        multi_hop = 0
        for seed in range(60):
            rng = np.random.default_rng([seed, 0x4E7])
            n = int(rng.integers(4, 10))
            g = circle_topology(n, 6000.0, float(rng.uniform(0.2, 0.5)), seed)
            for key in g.edge_keys():
                g._residual[key] = int(rng.integers(0, 500_001))
            req = float(np.round(rng.uniform(0.001, 250), 3))
            for src in range(n):
                for dest in range(n):
                    path = g.select_min_path(src, dest, req)
                    if path is None:
                        continue
                    hops = path.hops
                    assert path.keys == tuple(tuple(sorted(pair)) for pair in zip(hops, hops[1:]))
                    multi_hop += len(hops) > 2
                    before = g.residual_snapshot()
                    g.reserve_bw(path, req)
                    after = g.residual_snapshot()
                    assert {key for key in before if after[key] != before[key]} == set(path.keys)
                    g.release_bw(path, req)
                    assert g.residual_snapshot() == before
        assert multi_hop > 500

    def test_overdraft_rejected(self):
        g = line_graph(caps=(10.0, 10.0))
        path = g.select_min_path(0, 2, 8.0)
        g.reserve_bw(path, 8.0)
        with pytest.raises(TopologyError):
            g.reserve_bw(path, 8.0)

    def test_overfill_release_rejected(self):
        g = line_graph()
        with pytest.raises(TopologyError):
            g.release_bw(PathResult((0, 1), 100.0), 1.0)

    def test_residual_bounds_check(self):
        g = line_graph()
        g.check_residuals()
        g._residual[(0, 1)] = -1
        with pytest.raises(TopologyError):
            g.check_residuals()


class TestFeasibilityVersions:
    @staticmethod
    def feasible(g, bw):
        t = to_milli(bw)
        return frozenset(key for key, res in g.residual_snapshot().items() if res >= t)

    @staticmethod
    def version(g, bw):
        """The version of F(to_milli(bw)), the edge set a search for bw reads."""
        return g.threshold_versions[g.threshold(bw)]

    @staticmethod
    def pick_bw(g, rng):
        """A quantized bandwidth: fractional, an edge's exact residual, or 0."""
        r = rng.random()
        if r < 0.1:
            return 0.0
        if r < 0.45:
            keys = g.edge_keys()
            return g.residual_mbps(*keys[int(rng.integers(len(keys)))])
        return float(np.round(rng.uniform(0.001, 60.0), 3))

    def test_version_moves_exactly_when_the_feasible_set_changes(self):
        # interleaved reserves and releases on feasible paths; after every
        # move each asked threshold's version must have moved iff its edge
        # set did, and a memo stamped with it must hold the fresh answer
        kept = stale = moved = held_still = 0
        for seed in range(40):
            g, rng = random_graph(seed + 20_000)
            if not g.edge_keys():
                continue
            asked = [0.0]
            memo = {}
            held = []
            before = {bw: (self.version(g, bw), self.feasible(g, bw)) for bw in asked}
            for _ in range(40):
                if rng.random() < 0.3:
                    asked.append(self.pick_bw(g, rng))  # first asked mid-sequence
                if held and rng.random() < 0.4:
                    path, bw = held.pop(int(rng.integers(len(held))))
                    g.release_bw(path, bw)
                else:
                    bw = asked[int(rng.integers(len(asked)))] if rng.random() < 0.5 \
                        else self.pick_bw(g, rng)
                    src, dest = (int(x) for x in rng.integers(g.n, size=2))
                    path = g.select_min_path(src, dest, bw)
                    if path is None:
                        continue
                    g.reserve_bw(path, bw)
                    held.append((path, bw))
                for bw, (version, edges) in before.items():
                    changed = self.feasible(g, bw) != edges
                    assert (self.version(g, bw) != version) == changed, (seed, bw)
                    moved += changed
                    held_still += not changed
                before = {bw: (self.version(g, bw), self.feasible(g, bw)) for bw in asked}
                for bw in asked:
                    src = int(rng.integers(g.n))
                    oracle = enumerate_min_paths(g, src, bw)
                    for dest in range(g.n):
                        fresh = g.select_min_path(src, dest, bw)
                        assert_matches_oracle(fresh, oracle.get(dest))
                        version = self.version(g, bw)
                        hit = memo.get((src, dest, bw))
                        if hit is not None and hit[0] == version:
                            assert hit[1] == fresh, (seed, src, dest, bw)
                            kept += 1
                        else:
                            stale += hit is not None
                            memo[(src, dest, bw)] = (version, fresh)
            assert 0.0 in before and before[0.0][0] == 0  # F(0) is every edge, always
        assert min(kept, stale, moved, held_still) > 100


class TestPropagation:
    def test_zero_length(self):
        g = line_graph()
        assert g.propagation_steps(PathResult((0,), 0.0)) == 0

    def test_two_km_is_one_step(self):
        g = line_graph()
        assert g.propagation_steps(PathResult((0, 1), 2.0)) == 1

    def test_two_hundred_km_is_one_ms(self):
        g = line_graph()
        assert g.propagation_steps(PathResult((0, 1), 200.0)) == 100

    def test_disabled(self):
        nodes = [(0, 0.0, 0.0), (1, 100.0, 0.0)]
        g = NetworkGraph(nodes, [(0, 1, 500.0)], propagation=False)
        assert g.propagation_steps(PathResult((0, 1), 200.0)) == 0


class TestGraphStructure:
    def test_explicit_distance_overrides_euclidean(self):
        nodes = [(0, 0.0, 0.0), (1, 100.0, 0.0)]
        g = NetworkGraph(nodes, [(0, 1, 500.0, 42.0)])
        assert g.select_min_path(0, 1, 1.0).length_km == 42.0

    def test_circle_generator_connected_and_seeded(self):
        g1 = circle_topology(6, 100.0, 0.3, seed=5)
        g2 = circle_topology(6, 100.0, 0.3, seed=5)
        assert g1.edge_keys() == g2.edge_keys()
        for i in range(6):
            assert g1.select_min_path(0, i, 1.0) is not None

    @pytest.mark.parametrize("km", [-50.0, math.nan, math.inf])
    def test_bad_distance_rejected(self, km):
        # path search orders labels by length, so lengths must be finite and >= 0
        nodes = [(0, 0.0, 0.0), (1, 1.0, 0.0)]
        with pytest.raises(TopologyError):
            NetworkGraph(nodes, [(0, 1, 500.0, km)])

    def test_connected_at_bandwidth(self):
        graph = line_graph(caps=(500.0, 50.0))
        assert graph.connected(50.0)
        assert not graph.connected(50.001)  # node 2 hangs off the 50 Mbps edge
        assert NetworkGraph([(0, 0.0, 0.0)], []).connected(1e9)
        assert not NetworkGraph([(0, 0.0, 0.0), (1, 1.0, 0.0)], []).connected(0.0)

    def test_duplicate_edge_rejected(self):
        nodes = [(0, 0.0, 0.0), (1, 1.0, 0.0)]
        with pytest.raises(TopologyError):
            NetworkGraph(nodes, [(0, 1, 500.0), (1, 0, 500.0)])

    def test_noncontiguous_ids_rejected(self):
        with pytest.raises(TopologyError):
            NetworkGraph([(0, 0.0, 0.0), (2, 1.0, 0.0)], [])
