"""Exhaustive one-per-isomorphism-class generation of small graphs.

Level construction: a child on n vertices is a class representative P
of order n-1 plus vertex k = n-1 joined to a nonempty neighbour set
(mask). Distinct classes are kept by canonical form, but the canonical
form, the costly step, is only computed for children that pass the
acceptance half of canonical augmentation (McKay, "Isomorph-free
exhaustive generation", J. Algorithms 26, 1998): the new vertex must be
a candidate for the vertex to delete. With f(v) = (degree of v, sorted
degrees of v's neighbours), a child is rejected when some vertex v != k
has f(v) > f(k) and the child minus v is still connected; every other
child, ties included, is accepted. A child stays as its bitmask rows
until it is accepted, and after: the parent is decoded from graph6 to
rows, the child's rows are built once, and the acceptance test and the
canonical form read them. No edge list, edge set or validated Graph is
built for a child; a predicate gets a Graph that wraps the same rows
(graphs._graph_from_rows) and builds its edge set only if asked.

Completeness: every connected graph G on n vertices has a non-cut
vertex, so let v* maximize f among its non-cut vertices. G - v* is
connected, so its class has a representative P in level n-1, and some
mask rebuilds G from P with v* in the role of k. No vertex of that
child outranks k by f and is a non-cut vertex, so it is accepted. Ties
let several children of one class through; the set of canonical codes
removes those duplicates. Levels are cached per process, except that a
build given an rng shuffles and rebuilds every level and caches none.
An unfiltered level that does not hold the known number of classes
(CONNECTED_CLASS_COUNTS) raises VerificationError instead.

One child per orbit: an automorphism s of P, extended by k -> k, maps
the child of mask M onto the child of mask s(M), so the masks in one
orbit of Aut(P) give isomorphic children. The acceptance test and the
predicate are isomorphism invariants, so such children pass or fail
together and share a canonical form; only the least mask of each orbit
is tried. P is decoded from its canonical code, so the canonical search
reads Aut(P)'s generators off its tied leaves
(canon.automorphism_generators). Each generator acts on masks through a
2^k-entry table, and a parent with no generator tries every mask. The
least mask of an orbit does not depend on the order masks are met in, so
a seeded build canonicalizes the same children as a plain one. Most
duplicate children of one parent are such orbit mates; the set of codes
removes the rest.

A predicate (biconnected, anything else over connected graphs) filters
the top level only, and before the costly step: each accepted child of
order n is tested, and only those that pass get a canonical form. That
is sound because the predicate must be an isomorphism invariant, so the
accepted children of one class pass or fail together. The levels below
stay unfiltered and cached; a filtered level never enters the cache. It
is built only when level n is not cached already: a cached level is
filtered by decoding each of its codes once, testing that graph and
yielding it (or its code), which costs far less than building the level.
"""

from __future__ import annotations

import random
from typing import Callable, Iterator

from .canon import _canonical_code, automorphism_generators
from .connectivity import connected_within
from .errors import OrderLimitError, VerificationError, as_index
from .graphs import Graph, _graph_from_rows, _rows_from_graph6, graph_from_graph6

ENUMERATION_LIMIT = 9

# the number of isomorphism classes of each order up to ENUMERATION_LIMIT:
# connected graphs (OEIS A001349) and biconnected graphs (OEIS A002218)
CONNECTED_CLASS_COUNTS = {1: 1, 2: 1, 3: 2, 4: 6, 5: 21, 6: 112, 7: 853, 8: 11117, 9: 261080}
BICONNECTED_CLASS_COUNTS = {4: 3, 5: 10, 6: 56, 7: 468, 8: 7123, 9: 194066}

_level_cache: dict[int, tuple[str, ...]] = {}


def _connected_codes(
    n: int,
    rng: random.Random | None = None,
    predicate: Callable[[Graph], bool] | None = None,
) -> tuple[str, ...]:
    """Canonical codes of the connected isomorphism classes of order n.

    With a predicate, level n is built and each accepted child of order
    n is tested before its canonical form is computed; that result is
    not cached. enumerate_graphs and class_codes filter a cached level
    themselves.
    """
    cacheable = rng is None and predicate is None
    if cacheable and n in _level_cache:
        return _level_cache[n]
    if n == 1:
        rows = (0,)
        return (_canonical_code(rows),) if predicate is None or predicate(_graph_from_rows(rows)) else ()
    base = list(_connected_codes(n - 1, rng))
    if rng is not None:
        rng.shuffle(base)
    out: set[str] = set()
    k = n - 1
    masks = list(range(1, 1 << k))
    for code in base:
        parent = _rows_from_graph6(code)
        if rng is not None:
            rng.shuffle(masks)
        gens = automorphism_generators(parent)
        for mask in _orbit_minima(masks, gens, k) if gens else masks:
            # the child's rows: parent + vertex k joined to mask
            rows = [r | (mask >> u & 1) << k for u, r in enumerate(parent)]
            rows.append(mask)
            if not _k_may_be_deleted(rows):
                continue
            if predicate is None or predicate(_graph_from_rows(rows)):
                out.add(_canonical_code(rows))
    codes = tuple(sorted(out))
    if predicate is None:
        _check_class_count(n, len(codes), CONNECTED_CLASS_COUNTS, "connected")
    if cacheable:
        _level_cache[n] = codes
    return codes


def _check_class_count(n: int, count: int, counts: dict[int, int], kind: str) -> None:
    """Raise VerificationError unless count is the known number of kind
    classes of order n, counts[n]."""
    if count != counts[n]:
        raise VerificationError(
            f"{kind} classes of order n = {n}: enumerated {count}, expected {counts[n]}"
        )


def _orbit_minima(masks: list[int], gens: list[tuple[int, ...]], k: int) -> list[int]:
    """The least mask of each orbit of the group gens generate, acting on
    k-bit masks; each orbit is met in the order of masks, so the set kept
    does not depend on that order."""
    tables = []
    for perm in gens:
        # the image of a mask whose top bit is b: the image of the mask
        # without b, joined to b's image
        table = [0]
        for b in range(k):
            image = 1 << perm[b]
            table += [t | image for t in table]
        tables.append(table)
    seen = bytearray(1 << k)
    out = []
    for mask in masks:
        if seen[mask]:
            continue
        seen[mask] = 1
        orbit = [mask]
        for m in orbit:
            for table in tables:
                image = table[m]
                if not seen[image]:
                    seen[image] = 1
                    orbit.append(image)
        out.append(min(orbit))
    return out


def _k_may_be_deleted(rows: list[int]) -> bool:
    """Acceptance test for a child's rows, k = n-1 the new vertex.

    False when some other vertex v has f(v) > f(k), with f(v) the degree
    of v and the sorted degrees of its neighbours, and the child minus v
    is still connected: then k is not the vertex canonical augmentation
    deletes, and the child's class is built from another parent.
    """
    k = len(rows) - 1
    everyone = (1 << k + 1) - 1
    deg = [r.bit_count() for r in rows]
    dk = deg[k]
    fk = None
    for v in range(k):
        if deg[v] < dk:
            continue
        if deg[v] == dk:
            if fk is None:
                fk = _neighbour_degrees(rows[k], deg)
            if _neighbour_degrees(rows[v], deg) <= fk:
                continue
        if connected_within(rows, everyone & ~(1 << v)):
            return False
    return True


def _neighbour_degrees(row: int, deg: list[int]) -> list[int]:
    out = []
    while row:
        low = row & -row
        out.append(deg[low.bit_length() - 1])
        row ^= low
    out.sort()
    return out


def enumerate_graphs(
    n: int,
    predicate: Callable[[Graph], bool],
    rng: random.Random | None = None,
) -> Iterator[Graph]:
    """Yield one canonical representative per connected class passing the
    predicate, in canonical-code order.

    The predicate is applied within the connected classes; disconnected
    graphs are never produced. It must be an isomorphism invariant, since
    any one labelling of a class decides it: a cached level n is filtered
    by its canonical representatives, each decoded once, and otherwise each accepted child of
    order n is tested before its canonical form is computed. A filtered
    level is never cached. Passing an rng permutes internal branching
    order (a robustness knob for tests); the emitted set is unchanged.
    """
    n = _order(n)
    if rng is None and n in _level_cache:
        # each cached code is decoded once: the graph tested is the one yielded
        yield from filter(predicate, map(graph_from_graph6, _level_cache[n]))
    else:
        for code in _connected_codes(n, rng, predicate):
            yield graph_from_graph6(code)


def class_codes(
    n: int,
    predicate: Callable[[Graph], bool],
    rng: random.Random | None = None,
) -> tuple[str, ...]:
    """The canonical codes of the classes enumerate_graphs(n, predicate,
    rng) yields, in the same order. A level built for this call hands its
    codes over undecoded; a cached level decodes each code once, for the
    predicate."""
    n = _order(n)
    if rng is None and n in _level_cache:
        return tuple(c for c in _level_cache[n] if predicate(graph_from_graph6(c)))
    return _connected_codes(n, rng, predicate)


def _order(n) -> int:
    n = as_index(n, OrderLimitError, "enumeration order")
    if not 1 <= n <= ENUMERATION_LIMIT:
        raise OrderLimitError(
            f"enumeration is supported for 1 <= n <= {ENUMERATION_LIMIT}, got n = {n}"
        )
    return n


def count_classes(n: int, predicate: Callable[[Graph], bool]) -> int:
    """The number of classes class_codes(n, predicate) gives."""
    return len(class_codes(n, predicate))

