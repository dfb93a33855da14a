"""Canonical forms and isomorphism testing for graphs up to 12 vertices.

The canonical form is the graph6 string of the relabeling that minimizes
the adjacency bit string lexicographically over all n! permutations, found
exactly by a depth-first search in plain Python over integer columns
(canon_min_bits). Placing vertex v at position d contributes the d bits
of v's adjacency to the vertices already placed, v's column; read as an
int, a column compares like its bits. Every vertex still unplaced has its
column ready, so the search only branches on vertices whose column is the
minimum: any other choice is larger at position d whatever follows. Of
unplaced twins (u, v with N(u) - {v} equal to N(v) - {u}, which have equal
columns) only one is tried, since swapping them is an automorphism that
fixes every placed vertex. A prefix is cut once it exceeds the best string
found so far. Two graphs are isomorphic iff their canonical forms are
equal.
"""

from __future__ import annotations

from .errors import OrderLimitError
from .graphs import Graph, graph6_from_bits

ORDER_LIMIT = 12


def canonical_form(g: Graph) -> str:
    """graph6 string of the lexicographically minimal relabeling of g."""
    if g.n > ORDER_LIMIT:
        raise OrderLimitError(
            f"canonical form is exhaustive and capped at n = {ORDER_LIMIT}, got n = {g.n}"
        )
    return graph6_from_bits(g.n, canon_min_bits(g._rows))


def degree_profile(g: Graph) -> tuple[int, ...]:
    return tuple(sorted(g.degrees()))


def is_isomorphic(a: Graph, b: Graph) -> bool:
    """Exact isomorphism test; cheap invariants first, canonical forms last."""
    if a.n != b.n or a.m != b.m:
        return False
    if degree_profile(a) != degree_profile(b):
        return False
    return canonical_form(a) == canonical_form(b)


def canon_min_bits(rows: tuple[int, ...]) -> list[int]:
    """Lexicographically minimal upper-triangle bit string over relabelings.

    rows are the adjacency bitmasks (bit u of rows[v] is the edge uv). Bit
    order matches graph6: for j = 1..n-1, the bits of pairs (0,j), ..,
    (j-1,j). The string is the concatenation of the columns of positions
    0..n-1 (module docstring), and position d's column has d bits whatever
    vertex fills it. Among strings sharing a prefix, those that fill
    position d with a vertex of minimum column are therefore smaller than
    all others, so the search branches only on such vertices, one per twin
    class, and keeps the smallest complete string it reaches.
    """
    n = len(rows)
    # twins[v]: the twins of v with smaller labels; v is skipped while one
    # of them is unplaced, as that twin has the same column and is tried
    twins = [0] * n
    for v in range(n):
        for u in range(v):
            if (rows[u] ^ rows[v]) & ~(1 << u | 1 << v) == 0:
                twins[v] |= 1 << u
    best: list[int] = []
    _extend(rows, twins, list(range(n)), [0] * n, (1 << n) - 1, [], best, False)
    return [col >> (d - 1 - i) & 1 for d, col in enumerate(best) for i in range(d)]


def _extend(rows, twins, rest, cols, free, path, best, less) -> bool:
    """One search node; True if it replaced best.

    path holds the columns placed so far, rest the unplaced vertices (free
    as a bitmask) and cols their next columns; best holds the columns of
    the best complete string, and less says path is already below it.
    """
    if not rest:
        if less or not best:
            best[:] = path
            return True
        return False
    m = min(cols)
    if best and not less:
        if m > best[len(path)]:
            return False
        less = m < best[len(path)]
    path.append(m)
    improved = False
    for i, col in enumerate(cols):
        if col != m:
            continue
        v = rest[i]
        if twins[v] & free:
            continue
        row = rows[v]
        nrest = rest[:i] + rest[i + 1 :]
        ncols = [c << 1 | row >> u & 1 for u, c in zip(nrest, cols[:i] + cols[i + 1 :])]
        if _extend(rows, twins, nrest, ncols, free ^ 1 << v, path, best, less):
            # path is now best's prefix, so later siblings must beat it
            improved = True
            less = False
    path.pop()
    return improved
