"""Independent reference implementations used only by the test suite.

Everything here deliberately avoids the package's own algorithms:
connectivity is vectorized bitset BFS over labeled adjacency masks,
biconnectivity is the definitional all-vertex-deletions check, and
isomorphism bucketing is an exhaustive minimum over all permutations
computed with numpy remaps, and scalar_eigensystem is a textbook
Householder + implicit-shift QL in scalar loops, not the LAPACK routine
the package calls. plain_connected_codes is level construction without
the augmentation acceptance test: it does use the package's canonical
form, because what it checks is which classes the filtered generator
reaches. dense_inner_disjoint_paths is the Menger decomposition that the
package's bitmask flow must reproduce: dense 2n x 2n capacity and flow
matrices, every BFS step and every decomposition step scanning all 2n
split nodes. per_bit_graph6 is the graph6 encoder that the package's
int packer must reproduce: one 0/1 list entry per vertex pair, six bits
per character, the last one zero-padded. pair_rewire is the rewiring
construction on sorted pair lists that the package's rows-based one must
reproduce: scan_interval_assignment tries every P1 pair for each
off-cycle vertex, and C and G' are sorted (min, max) pair lists. Slow but
trustworthy.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction
from math import comb, factorial

import numpy as np

from algconn.canon import canonical_form
from algconn.connectivity import PathSystem, _disjoint_paths
from algconn.errors import Graph6Error, GraphError, RewireDefectError
from algconn.graphs import Graph, _edge_pairs, graph_from_graph6
from algconn.rewiring import Q_CHAIN_SLACK, chain_inequality_check, extreme_vertices


def pair_index(n: int) -> dict[tuple[int, int], int]:
    idx = {}
    k = 0
    for u in range(n):
        for v in range(u + 1, n):
            idx[(u, v)] = k
            k += 1
    return idx


def all_masks(n: int) -> np.ndarray:
    nbits = n * (n - 1) // 2
    return np.arange(1 << nbits, dtype=np.int64)


def mask_of_graph(g) -> int:
    idx = pair_index(g.n)
    m = 0
    for u, v in g.edges:
        m |= 1 << idx[(u, v)]
    return m


def vertex_rows(masks: np.ndarray, n: int) -> list[np.ndarray]:
    """rows[v][i] = neighbor bitset of vertex v in labeled graph masks[i]."""
    idx = pair_index(n)
    rows = [np.zeros(masks.shape, dtype=np.int64) for _ in range(n)]
    for (u, v), k in idx.items():
        bit = (masks >> k) & 1
        rows[u] |= bit << v
        rows[v] |= bit << u
    return rows


def _closure(rows: list[np.ndarray], n: int, start_bits: np.ndarray, alive: int) -> np.ndarray:
    reach = start_bits.copy()
    for _ in range(n):
        for v in range(n):
            if not alive >> v & 1:
                continue
            has = (reach >> v) & 1
            reach |= (rows[v] & alive) * has
    return reach


def connected_mask(masks: np.ndarray, n: int, rows=None) -> np.ndarray:
    if n == 1:
        return np.ones(masks.shape, dtype=bool)
    rows = vertex_rows(masks, n) if rows is None else rows
    full = (1 << n) - 1
    start = np.full(masks.shape, 1, dtype=np.int64)
    return _closure(rows, n, start, full) == full


def biconnected_mask(masks: np.ndarray, n: int) -> np.ndarray:
    """Definitional: connected, n >= 3, and still connected after deleting
    any single vertex."""
    if n < 3:
        return np.zeros(masks.shape, dtype=bool)
    rows = vertex_rows(masks, n)
    good = connected_mask(masks, n, rows)
    for d in range(n):
        alive = ((1 << n) - 1) & ~(1 << d)
        start_vertex = 0 if d != 0 else 1
        start = np.full(masks.shape, 1 << start_vertex, dtype=np.int64)
        sub = _closure(rows, n, start, alive)
        good &= sub == alive
    return good


def canonical_keys(masks: np.ndarray, n: int) -> np.ndarray:
    """Exhaustive-permutation canonical key of each labeled graph."""
    idx = pair_index(n)
    best = masks.copy()
    out = np.zeros_like(masks)
    for perm in itertools.permutations(range(n)):
        out[:] = 0
        for (u, v), k in idx.items():
            a, b = perm[u], perm[v]
            src = idx[(a, b) if a < b else (b, a)]
            out |= ((masks >> src) & 1) << k
        np.minimum(best, out, out=best)
    return best


def class_count(n: int, predicate_mask: np.ndarray) -> int:
    masks = all_masks(n)[predicate_mask]
    return len(np.unique(canonical_keys(masks, n)))


def brute_canonical_bits(g) -> tuple[int, ...]:
    """Minimum column-major adjacency bit tuple over all n! relabelings."""
    n = g.n
    best = None
    for perm in itertools.permutations(range(n)):
        bits = tuple(
            1 if g.has_edge(perm[u], perm[v]) else 0
            for v in range(1, n)
            for u in range(v)
        )
        if best is None or bits < best:
            best = bits
    return best


def brute_is_isomorphic(a, b) -> bool:
    if a.n != b.n or a.m != b.m:
        return False
    return brute_canonical_bits(a) == brute_canonical_bits(b)


def perm_source_table(n: int) -> np.ndarray:
    """(n!, nbits) table: which source bit feeds each target bit per perm."""
    idx = pair_index(n)
    nbits = n * (n - 1) // 2
    perms = list(itertools.permutations(range(n)))
    table = np.zeros((len(perms), nbits), dtype=np.int8)
    for p, perm in enumerate(perms):
        for (u, v), k in idx.items():
            a, b = perm[u], perm[v]
            table[p, k] = idx[(a, b) if a < b else (b, a)]
    return table


def automorphism_count(g, table: np.ndarray) -> int:
    nbits = g.n * (g.n - 1) // 2
    m = mask_of_graph(g)
    bits = np.array([(m >> k) & 1 for k in range(nbits)], dtype=np.int64)
    weights = np.int64(1) << np.arange(nbits, dtype=np.int64)
    remapped = (bits[table] * weights).sum(axis=1)
    return int(np.count_nonzero(remapped == m))


# ---------------------------------------------------------------------------
# Counting oracle, route two: exact integer arithmetic.
#
# Labeled connected counts come from the classical complement recurrence;
# labeled biconnected counts from the block-decomposition identity
# C'(x) = exp(B'(x C'(x))) between exponential generating functions,
# solved by power-series inversion over rationals. Unlabeled class counts
# then follow from Burnside's lemma: average, over one representative per
# cycle type of the symmetric group, the number of invariant graphs with
# the property, counted by scanning all unions of edge orbits.
# ---------------------------------------------------------------------------


def labeled_connected_counts(n_max: int) -> list[int]:
    c = [0] * (n_max + 1)
    c[1] = 1
    for n in range(2, n_max + 1):
        total = 1 << comb(n, 2)
        for k in range(1, n):
            total -= comb(n - 1, k - 1) * c[k] * (1 << comb(n - k, 2))
        c[n] = total
    return c


def _series_mul(a, b, order):
    out = [Fraction(0)] * order
    for i, ai in enumerate(a):
        if ai == 0:
            continue
        for j, bj in enumerate(b):
            if i + j >= order:
                break
            out[i + j] += ai * bj
    return out


def _series_log(a, order):
    """log of a series with a[0] = 1."""
    u = [x for x in a]
    u[0] = Fraction(0)  # a - 1
    out = [Fraction(0)] * order
    term = [Fraction(1)] + [Fraction(0)] * (order - 1)
    for j in range(1, order):
        term = _series_mul(term, u, order)
        sign = Fraction(1 if j % 2 == 1 else -1, j)
        for k in range(order):
            out[k] += sign * term[k]
    return out


def _series_reversion(w, order):
    """v with w(v(y)) = y, for w with w[0] = 0, w[1] = 1."""
    v = [Fraction(0), Fraction(1)] + [Fraction(0)] * (order - 2)
    for deg in range(2, order):
        comp = _series_compose(w, v, deg + 1)
        v[deg] -= comp[deg]
    return v


def _series_compose(a, b, order):
    """a(b(y)) for b with b[0] = 0."""
    out = [Fraction(0)] * order
    power = [Fraction(1)] + [Fraction(0)] * (order - 1)
    for i, ai in enumerate(a):
        if i >= order:
            break
        for k in range(order):
            out[k] += ai * power[k]
        power = _series_mul(power, b, order)
    return out


def labeled_biconnected_counts(n_max: int) -> list[int]:
    """b[n] = number of labeled 2-connected graphs on n >= 3 vertices."""
    order = n_max  # series to y^(n_max - 1)
    c = labeled_connected_counts(n_max)
    cp = [Fraction(c[k + 1], factorial(k)) for k in range(order)]  # C'(x)
    w = [Fraction(0)] + cp[: order - 1]  # x C'(x)
    h = _series_log(cp, order)  # log C'(x) = B'(W(x))
    v = _series_reversion(w, order)
    bp = _series_compose(h, v, order)  # B'(y)
    b = [0] * (n_max + 1)
    for n in range(2, n_max + 1):
        val = bp[n - 1] * factorial(n - 1)
        assert val.denominator == 1, (n, val)
        b[n] = int(val)
    b[2] = 0  # the block EGF counts K2 as a block; our predicate needs n >= 3
    return b


def _cycle_type_partitions(n: int):
    def rec(remaining, largest):
        if remaining == 0:
            yield []
            return
        for part in range(min(remaining, largest), 0, -1):
            for rest in rec(remaining - part, part):
                yield [part] + rest

    yield from rec(n, n)


def _partition_class_size(parts: list[int]) -> int:
    n = sum(parts)
    size = factorial(n)
    for k in set(parts):
        m = parts.count(k)
        size //= k**m * factorial(m)
    return size


def _partition_representative(parts: list[int]) -> list[int]:
    perm = [0] * sum(parts)
    base = 0
    for k in parts:
        for i in range(k):
            perm[base + i] = base + (i + 1) % k
        base += k
    return perm


def _edge_orbits(perm: list[int], n: int) -> list[int]:
    idx = pair_index(n)
    seen = set()
    orbits = []
    for (u, v), k in idx.items():
        if k in seen:
            continue
        mask = 0
        a, b = u, v
        while True:
            key = idx[(a, b) if a < b else (b, a)]
            if mask >> key & 1:
                break
            seen.add(key)
            mask |= 1 << key
            a, b = perm[a], perm[b]
        orbits.append(mask)
    return orbits


def _orbit_union_masks(orbits: list[int]) -> np.ndarray:
    r = len(orbits)
    subsets = np.arange(1 << r, dtype=np.int64)
    masks = np.zeros(1 << r, dtype=np.int64)
    for i, om in enumerate(orbits):
        masks |= ((subsets >> i) & 1) * om
    return masks


def burnside_class_count(n: int, labeled_identity: int, predicate_mask_fn) -> int:
    """Isomorphism classes with a property, by averaging fixed-graph counts.

    predicate_mask_fn(masks, n) -> boolean array; the identity permutation's
    contribution (all 2^(n(n-1)/2) graphs) is supplied as a precomputed count
    so the full scan never runs here.
    """
    total = labeled_identity
    for parts in _cycle_type_partitions(n):
        if all(p == 1 for p in parts):
            continue
        perm = _partition_representative(parts)
        orbits = _edge_orbits(perm, n)
        fixed = 0
        step = 1 << 20
        union = _orbit_union_masks(orbits)
        for lo in range(0, len(union), step):
            chunk = union[lo : lo + step]
            fixed += int(np.count_nonzero(predicate_mask_fn(chunk, n)))
        total += _partition_class_size(parts) * fixed
    assert total % factorial(n) == 0, (n, total)
    return total // factorial(n)


def brute_local_connectivity(g, s: int, t: int) -> int:
    """Max internally disjoint s-t path count by exhaustive path-set search."""
    paths = []

    def extend(path, used):
        v = path[-1]
        if v == t:
            paths.append(tuple(path))
            return
        for u in g.neighbors(v):
            if u == t or not used >> u & 1:
                extend(path + [u], used | 1 << u)

    extend([s], 1 << s | 1 << t)
    best = 0

    def pick(start, chosen_inner, count):
        nonlocal best
        best = max(best, count)
        for i in range(start, len(paths)):
            inner = 0
            for v in paths[i][1:-1]:
                inner |= 1 << v
            if inner & chosen_inner:
                continue
            pick(i + 1, chosen_inner | inner, count + 1)

    pick(0, 0, 0)
    return best


def _dense_split_flow(g: Graph, s: int, t: int) -> tuple[int, np.ndarray]:
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


def dense_inner_disjoint_paths(g: Graph, s: int, t: int, k: int | None = None) -> PathSystem:
    """Menger paths from dense split-digraph matrices (node 2v = v_in, 2v+1 = v_out)."""
    total, flow = _dense_split_flow(g, s, t)
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


def scalar_eigensystem(a: np.ndarray, max_iter: int):
    """Householder + implicit-shift QL as plain scalar loops.

    The reference that spectra.eigen_symmetric (LAPACK) is checked against
    to roundoff. Returns (values, vectors, failed, iters) with values
    ascending (ties in sweep order), failed None on success, else the index
    of the unsettled eigenvalue.
    """
    n = a.shape[0]
    z = [[float(x) for x in row] for row in a]
    d = [0.0] * n
    e = [0.0] * n
    if n == 1:
        return np.array([z[0][0]]), np.ones((1, 1)), None, 0
    for i in range(n - 1, 0, -1):
        l = i - 1
        h = 0.0
        if l > 0:
            scale = 0.0
            for k in range(l + 1):
                scale += abs(z[i][k])
            if scale == 0.0:
                e[i] = z[i][l]
            else:
                for k in range(l + 1):
                    z[i][k] /= scale
                    h += z[i][k] * z[i][k]
                f = z[i][l]
                g = -math.sqrt(h) if f >= 0.0 else math.sqrt(h)
                e[i] = scale * g
                h -= f * g
                z[i][l] = f - g
                f = 0.0
                for j in range(l + 1):
                    z[j][i] = z[i][j] / h
                    g = 0.0
                    for k in range(j + 1):
                        g += z[j][k] * z[i][k]
                    for k in range(j + 1, l + 1):
                        g += z[k][j] * z[i][k]
                    e[j] = g / h
                    f += e[j] * z[i][j]
                hh = f / (h + h)
                for j in range(l + 1):
                    f = z[i][j]
                    g = e[j] - hh * f
                    e[j] = g
                    for k in range(j + 1):
                        z[j][k] -= f * e[k] + g * z[i][k]
        else:
            e[i] = z[i][l]
        d[i] = h
    d[0] = 0.0
    e[0] = 0.0
    for i in range(n):
        if d[i] != 0.0:
            for j in range(i):
                g = 0.0
                for k in range(i):
                    g += z[i][k] * z[k][j]
                for k in range(i):
                    z[k][j] -= g * z[k][i]
        d[i] = z[i][i]
        z[i][i] = 1.0
        for j in range(i):
            z[j][i] = 0.0
            z[i][j] = 0.0
    for i in range(1, n):
        e[i - 1] = e[i]
    e[n - 1] = 0.0
    eps = float(np.finfo(np.float64).eps)
    worst = 0
    for l in range(n):
        it = 0
        while True:
            m = l
            while m < n - 1:
                dd = abs(d[m]) + abs(d[m + 1])
                if abs(e[m]) <= eps * dd or abs(e[m]) < 1e-300:
                    break
                m += 1
            if m == l:
                break
            it += 1
            if it > max_iter:
                return None, None, l, it
            g = (d[l + 1] - d[l]) / (2.0 * e[l])
            r = math.hypot(g, 1.0)
            g = d[m] - d[l] + e[l] / (g + (r if g >= 0.0 else -r))
            s = c = 1.0
            p = 0.0
            underflow = False
            for i in range(m - 1, l - 1, -1):
                f = s * e[i]
                b = c * e[i]
                r = math.hypot(f, g)
                e[i + 1] = r
                if r == 0.0:
                    d[i + 1] -= p
                    e[m] = 0.0
                    underflow = True
                    break
                s = f / r
                c = g / r
                g = d[i + 1] - p
                r = (d[i] - g) * s + 2.0 * c * b
                p = s * r
                d[i + 1] = g + p
                g = c * r - b
                for k in range(n):
                    f = z[k][i + 1]
                    z[k][i + 1] = s * z[k][i] + c * f
                    z[k][i] = c * z[k][i] - s * f
            if underflow:
                continue
            d[l] -= p
            e[l] = g
            e[m] = 0.0
        worst = max(worst, it)
    order = sorted(range(n), key=lambda k: d[k])
    values = np.array([d[k] for k in order])
    vectors = np.array([[z[r][k] for k in order] for r in range(n)])
    return values, vectors, None, worst


def plain_connected_codes(n: int) -> tuple[str, ...]:
    """Sorted canonical codes of the connected classes of order n, built by
    extending every class of order n-1 by every nonempty neighbour set of
    a new vertex and keeping one code per class (no acceptance test)."""
    codes = (canonical_form(Graph(1, frozenset())),)
    for k in range(1, n):
        out = set()
        for code in codes:
            g = graph_from_graph6(code)
            for mask in range(1, 1 << k):
                pairs = list(g.edges)
                pairs += [(u, k) for u in range(k) if mask >> u & 1]
                out.add(canonical_form(Graph(k + 1, frozenset(pairs))))
        codes = tuple(sorted(out))
    return codes


def per_bit_graph6(g: Graph) -> str:
    """graph6 text of g, packed one upper-triangle bit at a time: for
    v = 1..n-1, the bits of pairs (0,v), .., (v-1,v), six to a character."""
    if g.n > 62:
        raise Graph6Error(f"graph6 support here stops at n = 62, got n = {g.n}")
    bits = [int(g.has_edge(u, v)) for v in range(1, g.n) for u in range(v)]
    out = bytearray([g.n + 63])
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


def per_bit_graph6_rows(text: str) -> tuple[int, ...]:
    """Adjacency rows of well-formed graph6 text, read one upper-triangle
    bit at a time: bit 5 - i % 6 of character i // 6 of the body is pair
    i in the order per_bit_graph6 writes."""
    data = text.encode("ascii")
    n = data[0] - 63
    body = data[1:]
    rows = [0] * n
    i = 0
    for v in range(1, n):
        for u in range(v):
            if body[i // 6] - 63 >> 5 - i % 6 & 1:
                rows[u] |= 1 << v
                rows[v] |= 1 << u
            i += 1
    return tuple(rows)


def scan_interval_assignment(p1, offcycle, x) -> list[list[int]]:
    """interval_assignment by scanning: each off-cycle vertex, in (x, v)
    order, goes to the first P1 pair (lo, hi) with lo < x(v) <= hi, or with
    lo_all == lo == x(v) < hi, lo_all the least x-value on P1."""
    vec = np.asarray(x, dtype=np.float64).tolist()
    p1 = list(p1)
    lo_all = min(vec[v] for v in p1)
    hi_all = max(vec[v] for v in p1)
    bounds = [(min(vec[a], vec[b]), max(vec[a], vec[b])) for a, b in zip(p1, p1[1:])]
    lists: list[list[int]] = [[] for _ in bounds]
    for v in sorted(offcycle, key=lambda v: (vec[v], v)):
        xv = vec[v]
        if not lo_all <= xv <= hi_all:
            raise GraphError(f"off-cycle vertex {v} has x = {xv!r} outside [{lo_all!r}, {hi_all!r}]")
        for lst, (lo, hi) in zip(lists, bounds):
            if lo < xv <= hi or lo_all == lo == xv < hi:
                lst.append(v)
                break
        else:
            raise RewireDefectError(f"vertex {v} fits no P1 interval")
    return lists


def _cycle_pairs(seq) -> list[tuple[int, int]]:
    """Edges of the cycle through seq as (min, max) pairs, sorted."""
    if len(set(seq)) != len(seq):
        raise RewireDefectError(f"cycle sequence repeats a vertex: {seq!r}")
    return sorted((a, b) if a < b else (b, a) for a, b in zip(seq, seq[1:] + seq[:1]))


def _pair_quadratic_form(pairs, xs) -> float:
    """Sum of (x_u - x_v)^2 over the (u, v) pairs, in the order given."""
    total = 0.0
    for u, v in pairs:
        d = xs[u] - xs[v]
        total += d * d
    return total


def _thread(cycle, p1, lists, x) -> tuple[int, ...]:
    """G' as a vertex sequence: each P1 pair's list threaded between its ends."""
    seq = []
    for w, lst in enumerate(lists):
        seq.append(p1[w])
        seq.extend(lst if x[p1[w]] <= x[p1[w + 1]] else reversed(lst))
    seq.extend(cycle[len(lists):])
    return tuple(seq)


def pair_rewire(rows, x) -> dict:
    """The rewiring of the graph with these adjacency rows under the Fiedler
    vector x, built on sorted pair lists, with every check of the
    construction: v_min, v_max, cycle, p1, p2, lists, the edge set of G'
    (gprime_edges) and q_g, q_c, q_gprime."""
    v_min, v_max = extreme_vertices(x)
    n = len(rows)
    p1, p2 = _disjoint_paths(rows, v_min, v_max, 2)
    cycle = p1 + tuple(reversed(p2[1:-1]))
    offcycle = sorted(set(range(n)) - set(cycle))
    lists = scan_interval_assignment(p1, offcycle, x)
    if sorted(v for lst in lists for v in lst) != offcycle:
        raise RewireDefectError("assignment lists do not partition the off-cycle set")
    xs = np.asarray(x, dtype=np.float64).tolist()
    for w, lst in enumerate(lists):
        if lst:
            a, b = xs[p1[w]], xs[p1[w + 1]]
            if not chain_inequality_check(min(a, b), [xs[v] for v in lst], max(a, b)):
                raise RewireDefectError(f"telescoping inequality failed on pair {w} of P1")
    seq = _thread(cycle, p1, lists, xs)
    pairs = _cycle_pairs(seq)
    q_g = _pair_quadratic_form(_edge_pairs(rows), xs)
    q_c = _pair_quadratic_form(_cycle_pairs(cycle), xs)
    q_gp = _pair_quadratic_form(pairs, xs)
    if not (q_gp <= q_c + Q_CHAIN_SLACK and q_c <= q_g + Q_CHAIN_SLACK):
        raise RewireDefectError("quadratic-form chain violated")
    if len(seq) != n:
        raise RewireDefectError("rewired graph is not a single spanning cycle")
    return {
        "v_min": v_min, "v_max": v_max, "cycle": cycle, "p1": p1, "p2": p2,
        "lists": lists, "gprime_edges": frozenset(pairs),
        "q_g": q_g, "q_c": q_c, "q_gprime": q_gp,
    }
