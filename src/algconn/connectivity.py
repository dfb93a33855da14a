"""Connectivity structure: cut vertices, vertex connectivity, disjoint paths.

Reachability is a breadth-first search over the graph's bitmask rows, one
frontier at a time, peeling set bits lowest first; cut vertices come from
one lowpoint depth-first search over the same rows.

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

The flow, its path decomposition and the Hamiltonian search each have one
internal entry over adjacency rows (_split_flow, _disjoint_paths,
_hamiltonian_cycle); the public functions check their arguments and call
it, and a sweep row calls it directly.
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
    """Cut vertices of a connected graph, ascending, by one lowpoint DFS."""
    cut = _cut_mask(g._rows)
    if cut is None:
        raise GraphError("articulation vertices are defined here for connected graphs")
    return [v for v in range(g.n) if cut >> v & 1]


def is_biconnected(g: Graph) -> bool:
    """Connected, at least 3 vertices, and free of cut vertices."""
    return g.n >= 3 and _cut_mask(g._rows) == 0


def _cut_mask(rows) -> int | None:
    """Cut vertices as a bitmask; None when n = 0 or vertex 0 cannot reach all.

    One iterative lowpoint DFS from vertex 0, in which todo[v] holds the
    neighbours v has yet to scan; it finds reachability on its way, where
    connected_within would be a second pass. The edge back to the parent p
    counts as a back edge, which the cut test low[v] >= disc[p] tolerates.
    """
    n = len(rows)
    if not n:
        return None
    todo, disc, low = list(rows), [0] * n, [0] * n  # disc 0: not yet seen
    disc[0] = low[0] = seen = 1
    stack, cut = [0, 0], 0  # the root stands in as its own parent
    while len(stack) > 1:
        v = stack[-1]
        t = todo[v]
        while t:
            b = t & -t
            t ^= b
            u = b.bit_length() - 1
            if not disc[u]:
                todo[v] = t
                seen += 1
                disc[u] = low[u] = seen
                stack.append(u)
                break
            if disc[u] < low[v]:
                low[v] = disc[u]
        else:
            stack.pop()
            p = stack[-1]
            if low[v] < low[p]:
                low[p] = low[v]
            if low[v] >= disc[p] and (p or seen < n):  # the root: if a subtree left some unseen
                cut |= 1 << p
    return cut if seen == n else None


# ---------------------------------------------------------------------------
# Menger: vertex-disjoint s-t paths via max flow on the split digraph
# ---------------------------------------------------------------------------


def _check_pair(g: Graph, s, t) -> tuple[int, int]:
    """s and t as ints, if they are two distinct integer vertices of g."""
    if not all(isinstance(v, (int, np.integer)) and 0 <= v < g.n for v in (s, t)) or s == t:
        raise VertexSetError(f"need two distinct vertices in range, got {s!r}, {t!r}")
    return int(s), int(t)


def _split_flow(rows, s: int, t: int) -> tuple[int, list[int]]:
    """Maximum s_out -> t_in flow by breadth-first augmentation, between
    two distinct vertices of the graph with these adjacency rows.

    Returns the flow value and the final out masks. The split arcs of s
    and t are never used, so their capacity is immaterial: s_out is the
    source, and the search stops as soon as it reaches t_in.
    """
    n = len(rows)
    out = list(rows)
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
    return _split_flow(g._rows, *_check_pair(g, s, t))[0]


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
    s, t = _check_pair(g, s, t)
    return PathSystem(s=s, t=t, paths=_disjoint_paths(g._rows, s, t, k))


def _disjoint_paths(rows, s: int, t: int, k: int | None) -> tuple[tuple[int, ...], ...]:
    """The paths of inner_disjoint_paths, sorted, between two distinct
    vertices of the graph with these adjacency rows."""
    total, out = _split_flow(rows, s, t)
    if k is not None and total < k:
        raise GraphError(f"only {total} internally disjoint {s}-{t} paths exist, need {k}")
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
    return tuple(paths)


# ---------------------------------------------------------------------------
# theta graphs: three internally disjoint paths between two branch vertices
# ---------------------------------------------------------------------------


def is_theta(g: Graph) -> bool:
    """Biconnected with exactly n + 1 edges and two degree-3 vertices.

    A biconnected graph with m = n + 1 is exactly a cycle plus one path
    glued at two distinct vertices, which is a theta graph.
    """
    if g.n < 4 or g.m != g.n + 1 or not is_biconnected(g):
        return False
    degs = sorted(g.degrees())
    return degs[:-2] == [2] * (g.n - 2) and degs[-2:] == [3, 3]


def theta_length_triple(g: Graph) -> tuple[int, int, int]:
    """Sorted path lengths between the two branch vertices of a theta graph."""
    if not is_theta(g):
        raise GraphError("not a theta graph")
    branch = [v for v, d in enumerate(g.degrees()) if d == 3]
    ps = inner_disjoint_paths(g, branch[0], branch[1], 3)
    return tuple(sorted(len(p) - 1 for p in ps.paths))


HAMILTONIAN_ORDER_LIMIT = 12


def hamiltonian_cycle(g: Graph) -> tuple[int, ...] | None:
    """A spanning cycle as a vertex tuple starting at 0, or None.

    Backtracking over paths from 0, trying the neighbors of each vertex
    by (degree, label); the first cycle found under that order is
    returned, so output is deterministic.
    """
    if g.n > HAMILTONIAN_ORDER_LIMIT:
        raise OrderLimitError(
            f"Hamiltonian search is backtracking and capped at n = "
            f"{HAMILTONIAN_ORDER_LIMIT}, got n = {g.n}"
        )
    return _hamiltonian_cycle(g._rows)


def _hamiltonian_cycle(rows) -> tuple[int, ...] | None:
    """hamiltonian_cycle of the graph with these adjacency rows."""
    n = len(rows)
    deg = [r.bit_count() for r in rows]
    if n < 3 or min(deg) < 2:
        return None
    # sorted once by (degree, label), as the sort is stable; each
    # neighbour list keeps that order
    order = sorted(range(n), key=deg.__getitem__)
    nbrs = [[u for u in order if row >> u & 1] for row in rows]
    path = [0]
    return tuple(path) if _extend_path(nbrs, path, 1, (1 << n) - 1) else None


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
