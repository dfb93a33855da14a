"""Connectivity structure: cut vertices, vertex connectivity, disjoint paths.

Reachability runs on the graph's bitmask rows, one breadth-first frontier
at a time, peeling set bits lowest first.

Local connectivity between two vertices uses Menger's theorem on the
vertex-split digraph: v_in -> v_out has capacity 1, and each edge uv gives
arcs u_out -> v_in and v_out -> u_in of capacity 1. The residuals are int
bitmasks, one pair per vertex. Bit u of out[v] is set while v_out -> u_in
is unused and bit u of back[v] while u_out -> v_in is used, so that
v_in -> u_out has residual capacity. The split arcs are the diagonals:
bit v of back[v] is set while v_in -> v_out is unused, and bit v of out[v]
while it is used. The heads of an in-node are all out-nodes and vice
versa, so peeling them lowest bit first meets them in ascending node
order (node 2v = v_in, 2v+1 = v_out), as a scan over all 2n nodes that
skips zero residuals would: breadth-first augmentation finds the same
augmenting paths as that scan, and the path decomposition follows, at
each step, the lowest edge arc that carries flow. Every tie therefore
goes to the lowest vertex, and path systems are deterministic.
Hamiltonian cycles (n <= 12) come from a plain-Python depth-first search
over a visited bitmask that branches on low-degree neighbors first.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

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
    """Cut vertices of a connected graph with n >= 1, by one lowpoint DFS
    from vertex 0; both callers check connectivity first."""
    n = g.n
    disc = [-1] * n
    low = [0] * n
    parent = [-1] * n
    is_cut = [False] * n
    disc[0] = 0
    timer = 1
    root_children = 0
    stack = [(0, iter(g.neighbors(0)))]
    while stack:
        v, it = stack[-1]
        advanced = False
        for u in it:
            if disc[u] == -1:
                parent[u] = v
                if v == 0:
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
                if p != 0 and low[v] >= disc[p]:
                    is_cut[p] = True
    is_cut[0] = root_children >= 2
    return [v for v in range(n) if is_cut[v]]


def is_biconnected(g: Graph) -> bool:
    """Connected, at least 3 vertices, and free of cut vertices."""
    if g.n < 3 or not is_connected(g):
        return False
    return not _cut_vertices(g)


# ---------------------------------------------------------------------------
# Menger: vertex-disjoint s-t paths via max flow on the split digraph
# ---------------------------------------------------------------------------


def _split_flow(g: Graph, s: int, t: int) -> tuple[int, list[int]]:
    """Maximum s_out -> t_in flow by breadth-first augmentation.

    Returns the flow value and the final out masks. The split arcs of s
    and t are never used, so their capacity is immaterial: s_out is the
    source, and the search stops as soon as it reaches t_in.
    """
    n = g.n
    if not all(isinstance(v, (int, np.integer)) and 0 <= v < n for v in (s, t)) or s == t:
        raise VertexSetError(f"need two distinct vertices in range, got {s!r}, {t!r}")
    s, t = int(s), int(t)
    out = list(g._rows)
    back = [1 << v for v in range(n)]
    prev_in = [0] * n  # prev_in[u] = v: u_in was reached from v_out
    prev_out = [0] * n  # prev_out[v] = u: v_out was reached from u_in
    total = 0
    while True:
        seen_in, seen_out = 0, 1 << s
        queue = [2 * s + 1]
        for x in queue:
            v = x >> 1
            if x & 1:
                heads = out[v] & ~seen_in
                seen_in |= heads
                while heads:
                    low = heads & -heads
                    u = low.bit_length() - 1
                    prev_in[u] = v
                    queue.append(2 * u)
                    heads ^= low
                if seen_in >> t & 1:
                    break
            else:
                heads = back[v] & ~seen_out
                seen_out |= heads
                while heads:
                    low = heads & -heads
                    u = low.bit_length() - 1
                    prev_out[u] = v
                    queue.append(2 * u + 1)
                    heads ^= low
        if not seen_in >> t & 1:
            return total, out
        # walk back from t_in; v_out -> u_in and u_in -> v_out flip the same bits
        u = t
        while True:
            v = prev_in[u]
            out[v] ^= 1 << u
            back[u] ^= 1 << v
            if v == s:
                break
            u = prev_out[v]
            out[v] ^= 1 << u
            back[u] ^= 1 << v
        total += 1


def local_connectivity(g: Graph, s: int, t: int) -> int:
    """Maximum number of internally disjoint s-t paths (Menger)."""
    return _split_flow(g, s, t)[0]


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
    s to t. Raises VertexSetError unless s and t are two distinct integer
    vertices, and GraphError unless k is None or an integer >= 1, or if
    fewer than k paths exist.
    """
    if k is not None and not (isinstance(k, (int, np.integer)) and k >= 1):
        raise GraphError(f"k must be an integer of at least 1, got {k!r}")
    total, out = _split_flow(g, s, t)
    if k is not None and total < k:
        raise GraphError(f"only {total} internally disjoint {s}-{t} paths exist, need {k}")
    s, t = int(s), int(t)
    rows = g._rows
    paths = []
    for _ in range(total if k is None else k):
        path = [s]
        while path[-1] != t:
            v = path[-1]
            # follow the lowest edge arc out of v_out that carries flow;
            # setting its out bit marks it followed
            used = rows[v] & ~out[v]
            if not used:
                raise GraphError("flow decomposition failed; internal error")
            low = used & -used
            out[v] |= low
            path.append(low.bit_length() - 1)
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
