"""Canonical forms and isomorphism testing for graphs up to 12 vertices.

The canonical form is the graph6 string of the relabeling that minimizes
the adjacency bit string lexicographically over all n! permutations, found
exactly by a depth-first search in plain Python over integer columns
(canon_min_bits). Placing vertex v at position d contributes the d bits
of v's adjacency to the vertices already placed, v's column; read as an
int, a column compares like its bits. canon_min_bits returns the minimal
string as one int too, and graphs.graph6_from_int writes it out. Two
graphs are isomorphic iff their canonical forms are equal.

The first k columns are all zero iff the first k vertices are independent,
and a vertex placed after a maximum independent set S has a 1 in its
column. So the minimal string starts with the zero columns of some S, and
the search runs in two phases.

(a) Choose S as a set, not as its |S|! orderings: members are added in
increasing label order, and only maximal sets of the largest size are kept.
A vertex passed over can still gain a neighbour in S from a later member,
so maximality is judged only at a leaf; cutting an inner node that leaves
a vertex uncovered would drop sets the search needs.

(b) Place the other vertices one position at a time. Every unplaced vertex
has its column ready, so the search only branches on vertices whose column
is the minimum: any other choice is larger at that position whatever
follows. A column's bits over S depend on the order of S, which is left
open as an ordered partition of S: within each cell, a column lists its
non-neighbours before its neighbours, and placing a vertex splits every
cell that way. For a fixed order of the vertices outside S this greedy
split is exact. The string compares their bits over S in placement order,
and the first vertex's bits are least exactly when S lists its
non-neighbours first, the second's when each of those two blocks lists
the second's non-neighbours first, and so on. Any order within a final
cell gives the same string.

Each unplaced vertex keeps its column as one int, and the search keeps
the cells with their offsets: a column's bits over S are its top |S|
bits, one block per cell, and a cell's block holds the vertex's
neighbours in the cell as its low bits. Placing a vertex shifts every
column left by one bit and appends its bit for that vertex. A cell that
splits rewrites only its own block, as the two blocks of its parts; no
other bit of any column changes.

In both phases, of twins u, v (N(u) - {v} equal to N(v) - {u}) only one
arrangement is tried, since swapping them is an automorphism: phase (a)
adds v only while its smaller twins are in S, and phase (b) places v only
once its smaller twins are placed. A prefix is cut once it exceeds the
best string found so far.

The same search yields the automorphism group of a graph in canonical
labeling (automorphism_generators), for the level builder's orbit step.
Seeded with the graph's own string, which is then the minimum, every leaf
that ties it is a vertex order under which the graph reads the same, so
that order is an automorphism. Twin arrangements are never tried, so one
transposition per pair of consecutive twins joins the generators.
"""

from __future__ import annotations

from .errors import GraphError, OrderLimitError
from .graphs import Graph, graph6_from_int

ORDER_LIMIT = 12


def canonical_form(g: Graph) -> str:
    """graph6 string of the lexicographically minimal relabeling of g."""
    if g.n > ORDER_LIMIT:
        raise OrderLimitError(
            f"canonical form is exhaustive and capped at n = {ORDER_LIMIT}, got n = {g.n}"
        )
    return _canonical_code(g._rows)


def _canonical_code(rows) -> str:
    """canonical_form of the graph with these adjacency rows, n <= ORDER_LIMIT."""
    return graph6_from_int(len(rows), canon_min_bits(rows))


def degree_profile(g: Graph) -> tuple[int, ...]:
    return tuple(sorted(g.degrees()))


def is_isomorphic(a: Graph, b: Graph) -> bool:
    """Exact isomorphism test; cheap invariants first, canonical forms last."""
    if a.n != b.n or a.m != b.m:
        return False
    if degree_profile(a) != degree_profile(b):
        return False
    return canonical_form(a) == canonical_form(b)


def canon_min_bits(rows: tuple[int, ...]) -> int:
    """Lexicographically minimal upper-triangle bit string over relabelings,
    returned as one int whose most significant bit is the string's first.

    rows are the adjacency bitmasks (bit u of rows[v] is the edge uv). Bit
    order matches graph6: for j = 1..n-1, the bits of pairs (0,j), ..,
    (j-1,j). The string is the concatenation of the columns of positions
    0..n-1 (column d is a d-bit int, so each is shifted in), and its
    leading zero columns are those of a maximum independent set S (module
    docstring). Phase (a), _choose, lists the candidates for S as sets;
    maximality is judged only at its leaves, because a vertex left out
    early can be covered by a later member. Phase (b), _extend,
    runs once per candidate S with one shared best string: it places the
    other vertices by minimum column and orders S by greedy cell splits,
    which for a fixed order of those vertices is the least order of S, as
    their bits over S are compared in placement order.
    """
    best: list[int] = []
    _search(rows, best, None)
    bits = 0
    for d, col in enumerate(best):
        bits = bits << d | col
    return bits


def automorphism_generators(rows: tuple[int, ...]) -> list[tuple[int, ...]]:
    """Generators of the automorphism group of a graph in canonical labeling
    (module docstring): the vertex order of each leaf that ties the
    graph's own string, read as the map i -> order[i], and one
    transposition per pair of consecutive twins. They generate the whole
    group (checked against a brute-force count for every connected class
    with n <= 7). The identity is left out, so an asymmetric graph has
    none. Raises GraphError if some relabeling of rows spells a smaller
    string.
    """
    n = len(rows)
    # column d of the identity labeling: bits of pairs (0, d), .., (d-1, d)
    seed = [sum((rows[d] >> u & 1) << d - 1 - u for u in range(d)) for d in range(n)]
    best = list(seed)
    leaves: list[tuple[int, ...]] = []
    twins = _search(rows, best, leaves)
    if best != seed:
        raise GraphError("automorphism generators need a graph in canonical labeling")
    identity = tuple(range(n))
    gens = [order for order in leaves if order != identity]
    for v, smaller in enumerate(twins):
        if smaller:
            u = smaller.bit_length() - 1  # the nearest smaller twin
            swap = list(identity)
            swap[u], swap[v] = v, u
            gens.append(tuple(swap))
    return gens


def _search(rows, best, leaves) -> list[int]:
    """Run both phases over rows, leaving the least string's columns in best.

    best may come seeded with a string's columns, and leaves, when not
    None, collects the vertex order of each leaf that ties best (_extend).
    Returns the twin masks.
    """
    n = len(rows)
    # twins[v]: the twins of v with smaller labels; swapping v with one of
    # them is an automorphism, so only one of each arrangement is tried.
    # Non-adjacent twins have equal rows, adjacent ones equal rows once
    # each row holds its own vertex.
    twins = []
    apart: dict[int, int] = {}
    joined: dict[int, int] = {}
    for v, row in enumerate(rows):
        bit = 1 << v
        closed = row | bit
        a = apart.get(row, 0)
        j = joined.get(closed, 0)
        twins.append(a | j)
        apart[row] = a | bit
        joined[closed] = j | bit
    full = (1 << n) - 1
    sets: list[int] = []
    _choose(rows, twins, full, 0, 0, full, sets)
    placed = None if leaves is None else []
    for s in sets:
        # one cell: each column's bits over S are its neighbours in S
        rest = []
        cols = []
        for v, row in enumerate(rows):
            if not s >> v & 1:
                rest.append(v)
                cols.append((1 << (row & s).bit_count()) - 1)
        size = s.bit_count()
        # S's zero columns already beat a seed with a nonzero column among
        # its first |S|, which only a string that is not minimal has
        less = any(best[:size])
        _extend(rows, twins, rest, cols, full ^ s, [(s, size)], [0] * size, best, less, placed, leaves)
    return twins


def _choose(rows, twins, full, s, covered, cand, sets) -> None:
    """One node of phase (a): the independent sets that extend s.

    s holds the members chosen so far, covered is s with its neighbours,
    and cand the labels above s's largest that are still non-adjacent to
    it. Members are added in increasing label order, and v only while its
    smaller twins are all in s. sets keeps the maximal sets of the largest
    size reached so far, and a node that cannot reach that size is cut. A
    vertex left out of s can still be covered by a later member, so an
    uncovered vertex never cuts a node; maximality (covered == full) is
    judged only at a leaf, where no candidate is left.
    """
    size = s.bit_count()
    if covered == full:
        if not sets or size > sets[0].bit_count():
            sets[:] = [s]
        elif size == sets[0].bit_count():
            sets.append(s)
        return
    if sets and size + cand.bit_count() < sets[0].bit_count():
        return
    while cand:
        low = cand & -cand
        v = low.bit_length() - 1
        cand ^= low
        if twins[v] & ~s == 0:
            _choose(rows, twins, full, s | low, covered | low | rows[v], cand & ~rows[v], sets)


def _extend(rows, twins, rest, cols, free, cells, path, best, less, placed, leaves) -> bool:
    """One node of phase (b); True if it replaced best.

    path holds the columns placed so far, the zero columns of S first; rest
    holds the unplaced vertices (free as a bitmask) and cols their next
    columns. cells is the ordered partition of S that the placed vertices
    induce, as (cell, end) pairs: a column's bits over S are its leading
    |S| bits, one block per cell, and a cell's block ends end bits below
    the column's top. A block lists the cell's non-neighbours before its
    neighbours, and placing a vertex splits every cell that way, which
    rewrites the blocks of the cells that split and no other bit. best
    holds the columns of the best complete string, and less says path is
    already below it. leaves is None, or collects the vertex order of
    every leaf that ties best: each cell's members ascending, then the
    vertices in placed, which this search keeps only then.
    """
    if not rest:
        if less or not best:
            best[:] = path
            return True
        if leaves is not None:
            order = [v for c, _ in cells for v in range(c.bit_length()) if c >> v & 1]
            leaves.append(tuple(order + placed))
        return False
    m = min(cols)
    if best and not less:
        if m > best[len(path)]:
            return False
        less = m < best[len(path)]
    path.append(m)
    width = len(path)  # the bits of each column at the next position
    improved = False
    for i, col in enumerate(cols):
        if col != m:
            continue
        v = rest[i]
        if twins[v] & free:
            continue
        row = rows[v]
        # loops, not comprehensions: the lists are short, and a
        # comprehension costs a function call
        nrest = []
        ncols = []
        for u, c in zip(rest, cols):
            if u != v:
                nrest.append(u)
                ncols.append(c << 1 | row >> u & 1)
        ncells = cells
        for j, (c, end) in enumerate(cells):
            ones = c & row
            if not ones or ones == c:
                if ncells is not cells:
                    ncells.append((c, end))
                continue
            # v splits c into its non-neighbours, then its neighbours:
            # rewrite the block of c, which sits width - end bits up
            if ncells is cells:
                ncells = cells[:j]
            others = c ^ ones
            low = ones.bit_count()
            at = width - end
            keep = ~((1 << c.bit_count()) - 1 << at)
            for k, u in enumerate(nrest):
                ru = rows[u]
                block = (1 << (ru & others).bit_count()) - 1 << low | (1 << (ru & ones).bit_count()) - 1
                ncols[k] = ncols[k] & keep | block << at
            ncells += ((others, end - low), (ones, end))
        if placed is not None:
            placed.append(v)
        if _extend(rows, twins, nrest, ncols, free ^ 1 << v, ncells, path, best, less, placed, leaves):
            # path is now best's prefix, so later siblings must beat it
            improved = True
            less = False
        if placed is not None:
            placed.pop()
    path.pop()
    return improved
