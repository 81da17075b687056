"""Network graph: DC coordinates, links with residual bandwidth, path discovery.

Residual bandwidth is tracked in integer units of 0.001 Mbps so that any
balanced reserve/release sequence restores the exact initial state. Path
discovery is one label-setting Dijkstra over (length, hops) labels on the
bandwidth-feasible subgraph.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass

C_FIBER_KM_S = 2.0e5  # light in fiber
STEP_SECONDS = 1.0e-5  # one step = 0.01 ms

QUANTUM = 1000  # ledger units per Mbps, per GB of storage and per compute unit


def to_milli(value: float) -> int:
    """A resource amount in the integer units every ledger keeps."""
    return int(round(value * QUANTUM))


@dataclass(frozen=True)
class PathResult:
    """A simple path: ordered hop ids plus total length in km."""

    hops: tuple[int, ...]
    length_km: float

    @property
    def edges(self) -> list[tuple[int, int]]:
        return [(self.hops[i], self.hops[i + 1]) for i in range(len(self.hops) - 1)]


class TopologyError(ValueError):
    """Bad node id or a reserve/release that violates link capacity."""


class NetworkGraph:
    """Undirected graph of DCs with per-edge capacity and residual bandwidth.

    bw_version increments on every residual change; callers can use it to
    skip repeating a path search whose inputs cannot have changed.
    """

    def __init__(self, nodes, edges, *, propagation=True):
        """nodes: [(dc_id, x_km, y_km)], ids must be 0..n-1.

        edges: [(m, n, capacity_mbps)] or [(m, n, capacity_mbps, distance_km)];
        an explicit distance overrides the Euclidean one for that edge.
        """
        ids = [nid for nid, _, _ in nodes]
        if sorted(ids) != list(range(len(nodes))):
            raise TopologyError("node ids must be contiguous 0..n-1")
        self.n = len(nodes)
        self.coords = {nid: (float(x), float(y)) for nid, x, y in nodes}
        # _nbrs[m] -> [(n, edge key, km)]: everything a path search reads per hop
        self._nbrs: list[list[tuple[int, tuple[int, int], float]]] = [[] for _ in range(self.n)]
        self._capacity: dict[tuple[int, int], int] = {}
        self._residual: dict[tuple[int, int], int] = {}
        self._dist: dict[tuple[int, int], float] = {}
        self.propagation = propagation
        self.bw_version = 0
        total_km = 0.0
        for edge in edges:
            m, n, cap = edge[0], edge[1], edge[2]
            dist_km = edge[3] if len(edge) > 3 and edge[3] is not None else None
            if m not in self.coords or n not in self.coords:
                raise TopologyError(f"edge ({m},{n}) references unknown node")
            if m == n:
                raise TopologyError("self-loop edges are not allowed")
            key = (min(m, n), max(m, n))
            if key in self._capacity:
                raise TopologyError(f"duplicate edge {key}")
            self._capacity[key] = to_milli(cap)
            self._residual[key] = to_milli(cap)
            km = float(dist_km) if dist_km is not None else self.euclidean(m, n)
            if not 0.0 <= km < math.inf:  # path search needs finite, non-negative lengths
                raise TopologyError(f"edge {key} distance {km} must be finite and >= 0")
            self._dist[key] = km
            self._nbrs[m].append((n, key, km))
            self._nbrs[n].append((m, key, km))
            total_km += km
        # No simple path is longer than total_km, so float error on any path
        # sum stays orders of magnitude below this slack (see select_min_path).
        self._slack_km = 1e-9 * total_km

    # -- geometry ----------------------------------------------------------

    def euclidean(self, m: int, n: int) -> float:
        (xm, ym), (xn, yn) = self.coords[m], self.coords[n]
        return math.hypot(xm - xn, ym - yn)

    def distance(self, m: int, n: int) -> float:
        if m == n:
            return 0.0
        key = (min(m, n), max(m, n))
        if key in self._dist:
            return self._dist[key]
        return self.euclidean(m, n)

    def distance_matrix(self):
        return [[self.distance(m, n) for n in range(self.n)] for m in range(self.n)]

    # -- bandwidth ---------------------------------------------------------

    def edge_keys(self) -> list[tuple[int, int]]:
        return sorted(self._capacity)

    def capacity_mbps(self, m: int, n: int) -> float:
        return self._capacity[(min(m, n), max(m, n))] / QUANTUM

    def residual_mbps(self, m: int, n: int) -> float:
        return self._residual[(min(m, n), max(m, n))] / QUANTUM

    def residual_snapshot(self) -> dict[tuple[int, int], int]:
        return dict(self._residual)

    def connected(self, min_bw: float) -> bool:
        """True when the edges whose capacity carries min_bw join every node."""
        need = to_milli(min_bw)
        seen = {0} if self.n else set()
        stack = list(seen)
        while stack:
            for n, key, _ in self._nbrs[stack.pop()]:
                if n not in seen and self._capacity[key] >= need:
                    seen.add(n)
                    stack.append(n)
        return len(seen) == self.n

    def check_residuals(self) -> None:
        for key, res in self._residual.items():
            if res < 0 or res > self._capacity[key]:
                raise TopologyError(f"edge {key} residual {res} out of [0, capacity]")

    def reserve_bw(self, path: PathResult, bw_mbps: float) -> None:
        """Decrement residual by bw on every edge of path.

        The caller must have just verified feasibility; failure here means a
        policy or engine bug, not an expected runtime condition.
        """
        amount = to_milli(bw_mbps)
        if amount == 0 or len(path.hops) < 2:
            return
        edges = [(min(m, n), max(m, n)) for m, n in path.edges]
        for key in edges:
            if self._residual[key] < amount:
                raise TopologyError(f"reserve of {bw_mbps} Mbps exceeds residual on edge {key}")
        for key in edges:
            self._residual[key] -= amount
        self.bw_version += 1

    def release_bw(self, path: PathResult, bw_mbps: float) -> None:
        """Increment residual by bw on every edge of path (inverse of reserve)."""
        amount = to_milli(bw_mbps)
        if amount == 0 or len(path.hops) < 2:
            return
        edges = [(min(m, n), max(m, n)) for m, n in path.edges]
        for key in edges:
            if self._residual[key] + amount > self._capacity[key]:
                raise TopologyError(f"release of {bw_mbps} Mbps exceeds capacity on edge {key}")
        for key in edges:
            self._residual[key] += amount
        self.bw_version += 1

    # -- path discovery ------------------------------------------------------

    def select_min_path(self, src: int, dest: int, req_bw: float):
        """Minimum-length simple path whose edges all have residual >= req_bw.

        Returns a PathResult or None. Ties between equal-length paths go to
        the lexicographically smallest hop sequence; the length is the
        hop-by-hop float sum. Does not reserve.

        Labels are (length, hops) and a label extends its parent in that
        order, so the first label popped at dest is the minimum. Float sums
        are not monotone under a shared suffix (a + c and b + c can tie when
        a < b), so a label is only dropped when it exceeds the best length
        seen at its node by more than a slack far above float rounding; in
        exact arithmetic such a label cannot start the optimal path.
        """
        if src not in self.coords or dest not in self.coords:
            raise TopologyError(f"unknown dc id in ({src}, {dest})")
        req_milli = to_milli(req_bw)
        residual = self._residual
        slack = self._slack_km
        best = [math.inf] * self.n
        heap = [(0.0, (src,))]
        while heap:
            length, hops = heapq.heappop(heap)
            node = hops[-1]
            if node == dest:
                return PathResult(hops, length)
            for nxt, key, km in self._nbrs[node]:
                if residual[key] < req_milli or nxt in hops:
                    continue
                nlen = length + km
                if nlen > best[nxt] + slack:
                    continue
                if nlen < best[nxt]:
                    best[nxt] = nlen
                heapq.heappush(heap, (nlen, hops + (nxt,)))
        return None

    def propagation_steps(self, path: PathResult) -> int:
        """Propagation delay of a path in whole steps; 0 when disabled."""
        if not self.propagation or len(path.hops) < 2:
            return 0
        return math.ceil((path.length_km / C_FIBER_KM_S) / STEP_SECONDS)


def circle_topology(n, radius_km, edge_prob, seed, *, capacity_mbps=500.0,
                    propagation=True) -> NetworkGraph:
    """n nodes evenly spaced on a circle; ring edges always present, chords
    added with probability edge_prob (seeded). Guarantees connectivity."""
    import numpy as np

    if n < 1:
        raise TopologyError("need at least one node")
    nodes = []
    for i in range(n):
        angle = 2.0 * math.pi * i / n
        nodes.append((i, radius_km * math.cos(angle), radius_km * math.sin(angle)))
    rng = np.random.default_rng([int(seed), 0x702])
    edges = []
    seen = set()
    for i in range(n):
        j = (i + 1) % n
        key = (min(i, j), max(i, j))
        if key not in seen and i != j:
            seen.add(key)
            edges.append((key[0], key[1], capacity_mbps))
    for i in range(n):
        for j in range(i + 1, n):
            if (i, j) in seen:
                continue
            if rng.random() < edge_prob:
                seen.add((i, j))
                edges.append((i, j, capacity_mbps))
    return NetworkGraph(nodes, edges, propagation=propagation)
