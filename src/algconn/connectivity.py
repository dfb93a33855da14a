"""Connectivity structure: cut vertices, vertex connectivity, disjoint paths.

Local connectivity between nonadjacent vertices uses Menger's theorem on a
vertex-split digraph (each vertex becomes an in/out pair joined by a
capacity-1 arc) with breadth-first augmentation. All tie-breaking is by
lowest vertex index, so path systems are deterministic. Hamiltonian
cycles (n <= 12) come from plain-Python backtracking that branches on
low-degree neighbors first.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import GraphError, OrderLimitError, VertexSetError
from .graphs import Graph


def is_connected(g: Graph) -> bool:
    if g.n == 0:
        return False
    seen = 1
    stack = [0]
    count = 1
    while stack:
        v = stack.pop()
        row = g._rows[v] & ~seen
        u = 0
        while row:
            if row & 1:
                seen |= 1 << u
                count += 1
                stack.append(u)
            row >>= 1
            u += 1
    return count == g.n


def articulation_vertices(g: Graph) -> list[int]:
    """Cut vertices of a connected graph, by one lowpoint DFS pass."""
    if not is_connected(g):
        raise GraphError("articulation vertices are defined here for connected graphs")
    n = g.n
    disc = [-1] * n
    low = [0] * n
    parent = [-1] * n
    is_cut = [False] * n
    timer = 0
    for root in range(n):
        if disc[root] != -1:
            continue
        root_children = 0
        stack = [(root, iter(g.neighbors(root)))]
        disc[root] = low[root] = timer
        timer += 1
        while stack:
            v, it = stack[-1]
            advanced = False
            for u in it:
                if disc[u] == -1:
                    parent[u] = v
                    if v == root:
                        root_children += 1
                    disc[u] = low[u] = timer
                    timer += 1
                    stack.append((u, iter(g.neighbors(u))))
                    advanced = True
                    break
                elif u != parent[v]:
                    if disc[u] < low[v]:
                        low[v] = disc[u]
            if not advanced:
                stack.pop()
                if stack:
                    p = stack[-1][0]
                    if low[v] < low[p]:
                        low[p] = low[v]
                    if p != root and low[v] >= disc[p]:
                        is_cut[p] = True
        if root_children >= 2:
            is_cut[root] = True
    return [v for v in range(n) if is_cut[v]]


def is_biconnected(g: Graph) -> bool:
    """Connected, at least 3 vertices, and free of cut vertices."""
    if g.n < 3 or not is_connected(g):
        return False
    return not articulation_vertices(g)


# ---------------------------------------------------------------------------
# Menger: vertex-disjoint s-t paths via unit-capacity max flow on the
# split digraph. Node 2v = v_in, 2v+1 = v_out.
# ---------------------------------------------------------------------------


def _split_flow(g: Graph, s: int, t: int) -> tuple[int, np.ndarray]:
    n = g.n
    nn = 2 * n
    cap = np.zeros((nn, nn), dtype=np.int64)
    for v in range(n):
        cap[2 * v, 2 * v + 1] = 1
    cap[2 * s, 2 * s + 1] = n  # endpoints are not internal to any path
    cap[2 * t, 2 * t + 1] = n
    for u, v in g.edge_list:
        cap[2 * u + 1, 2 * v] = 1
        cap[2 * v + 1, 2 * u] = 1
    source, sink = 2 * s + 1, 2 * t
    flow = np.zeros((nn, nn), dtype=np.int64)
    total = 0
    while True:
        prev = np.full(nn, -1, dtype=np.int64)
        prev[source] = source
        queue = [source]
        qi = 0
        while qi < len(queue) and prev[sink] == -1:
            x = queue[qi]
            qi += 1
            for y in range(nn):  # ascending scan fixes the augmenting path
                if prev[y] == -1 and cap[x, y] - flow[x, y] > 0:
                    prev[y] = x
                    queue.append(y)
        if prev[sink] == -1:
            break
        y = sink
        while y != source:
            x = prev[y]
            flow[x, y] += 1
            flow[y, x] -= 1
            y = x
        total += 1
    return total, flow


def local_connectivity(g: Graph, s: int, t: int) -> int:
    """Maximum number of internally disjoint s-t paths (Menger)."""
    if not (0 <= s < g.n and 0 <= t < g.n) or s == t:
        raise VertexSetError(f"need two distinct vertices in range, got {s}, {t}")
    total, _ = _split_flow(g, s, t)
    return total


@dataclass(frozen=True)
class PathSystem:
    """Internally disjoint s-t paths, each a vertex tuple from s to t."""

    s: int
    t: int
    paths: tuple[tuple[int, ...], ...]

    @property
    def width(self) -> int:
        return len(self.paths)


def inner_disjoint_paths(g: Graph, s: int, t: int, k: int | None = None) -> PathSystem:
    """Decompose a max flow into explicit paths; k caps how many to return.

    Paths are reported sorted by their vertex sequence, each oriented from
    s to t. Raises GraphError if fewer than k exist.
    """
    total, flow = _split_flow(g, s, t)
    if k is not None and total < k:
        raise GraphError(f"only {total} internally disjoint {s}-{t} paths exist, need {k}")
    want = total if k is None else k
    nn = 2 * g.n
    paths = []
    used = np.zeros((nn, nn), dtype=bool)
    for _ in range(want):
        path = [s]
        x = 2 * s + 1
        sink = 2 * t
        while x != sink:
            nxt = -1
            for y in range(nn):
                if flow[x, y] > 0 and not used[x, y]:
                    nxt = y
                    break
            if nxt == -1:
                raise GraphError("flow decomposition failed; internal error")
            used[x, nxt] = True
            if nxt % 2 == 0 and nxt != sink:
                path.append(nxt // 2)
                nxt += 1  # pass through the split arc
                used[nxt - 1, nxt] = True
            x = nxt
        path.append(t)
        paths.append(tuple(path))
    paths.sort()
    return PathSystem(s=s, t=t, paths=tuple(paths))


# ---------------------------------------------------------------------------
# theta graphs: three internally disjoint paths between two branch vertices
# ---------------------------------------------------------------------------


def is_theta(g: Graph) -> bool:
    """Biconnected with exactly n + 1 edges and two degree-3 vertices.

    A biconnected graph with m = n + 1 is exactly a cycle plus one path
    glued at two distinct vertices, which is a theta graph.
    """
    if g.n < 4 or g.m != g.n + 1:
        return False
    if not is_biconnected(g):
        return False
    degs = sorted(g.degrees())
    return degs[:-2] == [2] * (g.n - 2) and degs[-2:] == [3, 3]


def theta_length_triple(g: Graph) -> tuple[int, int, int]:
    """Sorted path lengths between the two branch vertices of a theta graph."""
    if not is_theta(g):
        raise GraphError("not a theta graph")
    branch = [v for v in range(g.n) if g.degree(v) == 3]
    ps = inner_disjoint_paths(g, branch[0], branch[1], 3)
    lens = sorted(len(p) - 1 for p in ps.paths)
    return (lens[0], lens[1], lens[2])


HAMILTONIAN_ORDER_LIMIT = 12


def hamiltonian_cycle(g: Graph) -> tuple[int, ...] | None:
    """A spanning cycle as a vertex tuple starting at 0, or None."""
    n = g.n
    if n > HAMILTONIAN_ORDER_LIMIT:
        raise OrderLimitError(
            f"Hamiltonian search is backtracking and capped at n = "
            f"{HAMILTONIAN_ORDER_LIMIT}, got n = {n}"
        )
    deg = g.degrees()
    cyc = hamiltonian_search([sorted(g.neighbors(v), key=lambda u: (deg[u], u)) for v in range(n)])
    return tuple(cyc) if cyc else None


def hamiltonian_search(nbrs: list[list[int]]) -> list[int]:
    """First spanning cycle through vertex 0, or an empty list.

    Backtracking over paths from 0. nbrs[v] lists the neighbors of v in
    fixed branching order; the first cycle found under that order is
    returned, so output is deterministic.
    """
    n = len(nbrs)
    if n < 3 or any(len(ns) < 2 for ns in nbrs):
        return []
    closes = set(nbrs[0])
    path = [0] * n
    ptr = [0] * (n + 1)
    visited = [False] * n
    visited[0] = True
    depth = 1
    while True:
        if depth == n:
            if path[n - 1] in closes:
                return path
            depth -= 1
            visited[path[depth]] = False
            ptr[depth] += 1
            continue
        ns = nbrs[path[depth - 1]]
        k = ptr[depth]
        while k < len(ns) and visited[ns[k]]:
            k += 1
        if k < len(ns):
            ptr[depth] = k
            path[depth] = ns[k]
            visited[ns[k]] = True
            depth += 1
            ptr[depth] = 0
        else:
            if depth == 1:
                return []
            depth -= 1
            visited[path[depth]] = False
            ptr[depth] += 1


def is_hamiltonian(g: Graph) -> bool:
    return hamiltonian_cycle(g) is not None
