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
child, ties included, is accepted. The test reads the child's bitmask
rows and builds no Graph.

Completeness: every connected graph G on n vertices has a non-cut
vertex, so let v* maximize f among its non-cut vertices. G - v* is
connected, so its class has a representative P in level n-1, and some
mask rebuilds G from P with v* in the role of k. No vertex of that
child outranks k by f and is a non-cut vertex, so it is accepted. Ties
let several children of one class through; the set of canonical codes
removes those duplicates. Levels are cached per process; predicates
(biconnected, anything else over connected graphs) filter the cached
stream.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Callable, Iterator

from .canon import canonical_form
from .connectivity import connected_within
from .errors import OrderLimitError
from .graphs import Graph, graph_from_graph6

ENUMERATION_LIMIT = 9

_level_cache: dict[int, tuple[str, ...]] = {}


@dataclass(frozen=True, order=True)
class CanonicalCode:
    """Order plus canonical graph6 string; equal codes mean isomorphic."""

    n: int
    code: str

    @classmethod
    def of(cls, g: Graph) -> "CanonicalCode":
        return cls(n=g.n, code=canonical_form(g))


def _connected_codes(n: int, rng: random.Random | None = None) -> tuple[str, ...]:
    """Canonical codes of all connected isomorphism classes of order n."""
    if n in _level_cache:
        return _level_cache[n]
    if n == 1:
        codes: tuple[str, ...] = (canonical_form(Graph(1, frozenset())),)
        _level_cache[1] = codes
        return codes
    base = list(_connected_codes(n - 1, rng))
    if rng is not None:
        rng.shuffle(base)
    out: set[str] = set()
    k = n - 1
    masks = list(range(1, 1 << k))
    for code in base:
        g = graph_from_graph6(code)
        if rng is not None:
            rng.shuffle(masks)
        for mask in masks:
            if not _k_may_be_deleted(g._rows, mask):
                continue
            pairs = list(g.edges)
            for u in range(k):
                if mask >> u & 1:
                    pairs.append((u, k))
            out.add(canonical_form(Graph(n, frozenset(pairs))))
    codes = tuple(sorted(out))
    if rng is None:
        _level_cache[n] = codes
    return codes


def _k_may_be_deleted(parent_rows: tuple[int, ...], mask: int) -> bool:
    """Acceptance test for parent + vertex k joined to mask (k = n-1).

    False when some other vertex v has f(v) > f(k), with f(v) the degree
    of v and the sorted degrees of its neighbours, and the child minus v
    is still connected: then k is not the vertex canonical augmentation
    deletes, and the child's class is built from another parent.
    """
    k = len(parent_rows)
    rows = [r | (mask >> u & 1) << k for u, r in enumerate(parent_rows)]
    rows.append(mask)
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
    return sorted(deg[u] for u in range(len(deg)) if row >> u & 1)


def enumerate_graphs(
    n: int,
    predicate: Callable[[Graph], bool],
    rng: random.Random | None = None,
) -> Iterator[Graph]:
    """Yield one canonical representative per connected class passing the
    predicate, in canonical-code order.

    The predicate is applied within the connected classes; disconnected
    graphs are never produced. Passing an rng permutes internal branching
    order (a robustness knob for tests); the emitted set is unchanged.
    """
    if not 1 <= n <= ENUMERATION_LIMIT:
        raise OrderLimitError(
            f"enumeration is supported for 1 <= n <= {ENUMERATION_LIMIT}, got n = {n}"
        )
    for code in _connected_codes(n, rng):
        g = graph_from_graph6(code)
        if predicate(g):
            yield g


def count_classes(n: int, predicate: Callable[[Graph], bool]) -> int:
    return sum(1 for _ in enumerate_graphs(n, predicate))


def write_graph6_stream(graphs, out) -> int:
    """Dump graphs one graph6 line at a time; returns how many were written."""
    count = 0
    for g in graphs:
        out.write(g.to_graph6() + "\n")
        count += 1
    return count
