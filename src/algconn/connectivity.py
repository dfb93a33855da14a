"""Connectivity structure: cut vertices, vertex connectivity, disjoint paths.

Reachability runs on the graph's bitmask rows, one breadth-first frontier
at a time, peeling set bits lowest first.

Local connectivity between two vertices uses Menger's theorem on the
vertex-split digraph. Node 2v is v_in and node 2v+1 is v_out. The arc
v_in -> v_out has capacity 1 (n at the two endpoints, which are internal
to no path), and each edge uv gives arcs u_out -> v_in and v_out -> u_in
of capacity 1. The digraph is held as adjacency lists, one insertion-
ordered {head: capacity} dict per node: v_in lists {v_out} and every
u_out with u a neighbour of v, v_out lists {v_in} and every such u_in,
each in ascending node order. Those are all the ordered pairs whose
residual capacity can ever be positive: an arc, or the reverse of one.
Breadth-first augmentation scans each list in ascending order, so it
meets the candidates of a node in the same order as a scan over all 2n
nodes that skips zero residuals, and finds the same augmenting paths;
the path decomposition takes, at each step, the lowest-indexed arc that
still carries flow. Every tie therefore goes to the lowest node index,
and path systems are deterministic. Hamiltonian cycles (n <= 12) come
from a plain-Python depth-first search over a visited bitmask that
branches on low-degree neighbors first.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass

from .errors import GraphError, OrderLimitError, VertexSetError
from .graphs import Graph


def is_connected(g: Graph) -> bool:
    return g.n > 0 and connected_within(g._rows, (1 << g.n) - 1)


def connected_within(rows, alive: int) -> bool:
    """Whether the vertices in the bitmask alive are connected by edges
    among themselves; rows are the bitmask adjacency rows."""
    seen = frontier = alive & -alive
    while frontier:
        reach = 0
        while frontier:
            low = frontier & -frontier
            reach |= rows[low.bit_length() - 1]
            frontier ^= low
        frontier = reach & alive & ~seen
        seen |= frontier
    return seen == alive


def articulation_vertices(g: Graph) -> list[int]:
    """Cut vertices of a connected graph, by one lowpoint DFS pass."""
    if not is_connected(g):
        raise GraphError("articulation vertices are defined here for connected graphs")
    return _cut_vertices(g)


def _cut_vertices(g: Graph) -> list[int]:
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
    return not _cut_vertices(g)


# ---------------------------------------------------------------------------
# Menger: vertex-disjoint s-t paths via unit-capacity max flow on the
# split digraph. Node 2v = v_in, 2v+1 = v_out.
# ---------------------------------------------------------------------------


def _split_flow(
    g: Graph, s: int, t: int
) -> tuple[int, list[dict[int, int]], list[dict[int, int]]]:
    """Maximum s_out -> t_in flow by breadth-first augmentation.

    Returns the flow value, the capacities and the final residuals, each
    a list over split nodes of {head: value} dicts in ascending head order.
    """
    n = g.n
    if not (0 <= s < n and 0 <= t < n) or s == t:
        raise VertexSetError(f"need two distinct vertices in range, got {s}, {t}")
    cap: list[dict[int, int]] = []
    for v in range(n):
        nbrs = g.neighbors(v)
        k = bisect_left(nbrs, v)
        heads = [2 * u + 1 for u in nbrs]
        heads.insert(k, 2 * v + 1)
        v_in = dict.fromkeys(heads, 0)
        v_in[2 * v + 1] = n if v == s or v == t else 1  # endpoints are not internal to any path
        heads = [2 * u for u in nbrs]
        heads.insert(k, 2 * v)
        v_out = dict.fromkeys(heads, 1)
        v_out[2 * v] = 0
        cap += (v_in, v_out)
    res = [dict(arcs) for arcs in cap]
    source, sink = 2 * s + 1, 2 * t
    total = 0
    while True:
        prev = [-1] * (2 * n)
        prev[source] = source
        queue = [source]
        for x in queue:
            if prev[sink] != -1:
                break
            for y, r in res[x].items():  # ascending scan fixes the augmenting path
                if r > 0 and prev[y] == -1:
                    prev[y] = x
                    queue.append(y)
        if prev[sink] == -1:
            break
        y = sink
        while y != source:
            x = prev[y]
            res[x][y] -= 1
            res[y][x] += 1
            y = x
        total += 1
    return total, cap, res


def local_connectivity(g: Graph, s: int, t: int) -> int:
    """Maximum number of internally disjoint s-t paths (Menger)."""
    total, _, _ = _split_flow(g, s, t)
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
    s to t. Raises VertexSetError unless s and t are two distinct
    vertices, and GraphError if fewer than k paths exist.
    """
    total, cap, res = _split_flow(g, s, t)
    if k is not None and total < k:
        raise GraphError(f"only {total} internally disjoint {s}-{t} paths exist, need {k}")
    want = total if k is None else k
    sink = 2 * t
    paths = []
    for _ in range(want):
        path = [s]
        x = 2 * s + 1
        while x != sink:
            # x is an out-node, whose arcs all end at in-nodes and carry
            # at most one unit; taking a unit back marks the arc used
            nxt = next((y for y, r in res[x].items() if r < cap[x][y]), -1)
            if nxt == -1:
                raise GraphError("flow decomposition failed; internal error")
            res[x][nxt] += 1
            if nxt != sink:
                path.append(nxt // 2)
                nxt += 1  # pass through the split arc
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
    path = [0]
    return path if _extend_path(nbrs, path, 1, (1 << n) - 1) else []


def _extend_path(nbrs, path, visited, full) -> bool:
    """One search node; True if path, visiting the bitmask visited, was
    extended to a spanning cycle, which path then holds."""
    v = path[-1]
    if visited == full:
        return v in nbrs[0]
    for u in nbrs[v]:
        if not visited >> u & 1:
            path.append(u)
            if _extend_path(nbrs, path, visited | 1 << u, full):
                return True
            path.pop()
    return False


def is_hamiltonian(g: Graph) -> bool:
    return hamiltonian_cycle(g) is not None
