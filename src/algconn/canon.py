"""Canonical forms and isomorphism testing for graphs up to 12 vertices.

The canonical form is the graph6 string of the relabeling that minimizes
the adjacency bit string lexicographically over all n! permutations, found
exactly by branch-and-bound in plain Python (canon_min_bits). The search
tries only one vertex of each twin class (u, v with N(u) - {v} equal to
N(v) - {u}) at each depth: swapping two unplaced twins is an automorphism,
so the skipped branches repeat codes already seen. This keeps highly
symmetric graphs such as K_n and the empty graph cheap without changing
which code is the minimum. Two graphs are isomorphic iff their canonical
forms are equal.
"""

from __future__ import annotations

from .errors import OrderLimitError
from .graphs import Graph, _g6_size_bytes

ORDER_LIMIT = 12


def canonical_form(g: Graph) -> str:
    """graph6 string of the lexicographically minimal relabeling of g."""
    if g.n > ORDER_LIMIT:
        raise OrderLimitError(
            f"canonical form is exhaustive and capped at n = {ORDER_LIMIT}, got n = {g.n}"
        )
    bits = canon_min_bits([[r >> v & 1 for v in range(g.n)] for r in g._rows])
    out = bytearray(_g6_size_bytes(g.n))
    acc = 0
    nacc = 0
    for b in bits:
        acc = acc << 1 | b
        nacc += 1
        if nacc == 6:
            out.append(acc + 63)
            acc = 0
            nacc = 0
    if nacc:
        out.append((acc << (6 - nacc)) + 63)
    return out.decode("ascii")


def degree_profile(g: Graph) -> tuple[int, ...]:
    return tuple(sorted(g.degrees()))


def is_isomorphic(a: Graph, b: Graph) -> bool:
    """Exact isomorphism test; cheap invariants first, canonical forms last."""
    if a.n != b.n or a.m != b.m:
        return False
    if degree_profile(a) != degree_profile(b):
        return False
    return canonical_form(a) == canonical_form(b)


def canon_min_bits(adj: list[list[int]]) -> list[int]:
    """Lexicographically minimal upper-triangle bit string over relabelings.

    adj is the 0/1 adjacency matrix as nested lists. Bit order matches
    graph6: for j = 1..n-1, bits adj(0,j), .., adj(j-1,j). Vertices are
    placed one per depth, and a prefix is cut as soon as its bits exceed
    those of the best complete string found so far.
    """
    n = len(adj)
    nbits = n * (n - 1) // 2
    best = [0] * nbits
    if n <= 1:
        return best
    deg = [sum(row) for row in adj]
    # twins: N(u) - {v} == N(v) - {u}. Swapping two unplaced twins is an
    # automorphism fixing every placed vertex, so their subtrees give the
    # same codes; cls[v] is the smallest label of v's twin class
    cls = list(range(n))
    for v in range(n):
        for u in range(v):
            if cls[u] == u and all(
                adj[u][w] == adj[v][w] for w in range(n) if w != u and w != v
            ):
                cls[v] = u
                break
    # static candidate order by (degree, twin class, label): low degree
    # first tends to reach small codes early so pruning bites sooner, and
    # twins (which share a degree) end up adjacent
    cand = sorted(range(n), key=lambda v: (deg[v], cls[v], v))

    perm = [0] * n
    used = [False] * n
    choice = [0] * (n + 1)
    # less[d]: the prefix placed above depth d is already below best
    less = [False] * (n + 1)
    cur = [0] * nbits
    have_best = False
    depth = 0
    while depth >= 0:
        if depth == n:
            if not have_best or less[n]:
                best = cur[:]
                have_best = True
                # the winning path is now the best prefix at every depth
                less = [False] * (n + 1)
            depth -= 1
            used[perm[depth]] = False
            choice[depth] += 1
            continue
        off = depth * (depth - 1) // 2
        for c in range(choice[depth], n):
            v = cand[c]
            if used[v]:
                continue
            # only the first unused member of a twin class is tried; the
            # placed members of a class are always a prefix of its run in
            # cand, so comparing with the previous candidate suffices
            if c > 0 and cls[cand[c - 1]] == cls[v] and not used[cand[c - 1]]:
                continue
            row = adj[v]
            seg = [row[u] for u in perm[:depth]]
            newless = less[depth]
            if have_best and not newless:
                ref = best[off : off + depth]
                if seg > ref:
                    continue
                newless = seg < ref
            cur[off : off + depth] = seg
            choice[depth] = c
            perm[depth] = v
            used[v] = True
            depth += 1
            less[depth] = newless
            choice[depth] = 0
            break
        else:
            depth -= 1
            if depth >= 0:
                used[perm[depth]] = False
                choice[depth] += 1
    return best
