"""Cycle rewiring: turn any biconnected graph into a spanning cycle whose
quadratic form under the original Fiedler vector is no larger.

The construction: take the vertices v_min, v_max carrying the extreme
Fiedler values, join them by two inner-disjoint paths P1, P2 (their union
is a cycle C), then thread every off-cycle vertex into the first edge of P1
whose x-interval covers its value, in ascending x order. Replacing each such
P1 edge by its threaded path only refines increments, so by the squared
telescoping inequality the quadratic form cannot grow. A Hamiltonian
P1 u P2 is the case with nothing to thread, and G' = C. The result G' is a
spanning cycle, checked before the certificate is issued, so its algebraic
connectivity is alpha(C_n) and comes from the closed form. For
non-Hamiltonian inputs it drops strictly below the input's, which the
certificate records.

rewire validates its input: n >= 4, a biconnected graph, a vector of
length n, and an eigenpair residual it measures on its own Laplacian.
The construction and every check on it live in one internal entry,
_rewire, which takes the graph's adjacency rows and which rewire calls
before it builds the certificate. A sweep row calls _rewire directly:
its graph is biconnected with n >= 4 by construction, and the Fiedler
solve has measured the same residual on the same Laplacian. It builds no
certificate and no Graph for G'.

_rewire keeps C and G' as adjacency rows, each built from its vertex
sequence, and q_G, q_C and q_G' are quadratic_form over each graph's
rows, summed in edge-list order. interval_assignment places the
off-cycle vertices in one sweep along P1 (its docstring). The checks
are fused:
- the threading loop checks each list against its pair: x-values that
  ascend, lie in the pair's range [h, q], and satisfy the squared
  telescoping inequality (chain_inequality_check);
- one mask over G''s sequence checks that it has n vertices, none
  repeated. The sequence is C's vertices and the listed ones, so this
  is both the partition of the off-cycle set and the spanning cycle;
- the quadratic-form chain q_G' <= q_C <= q_G.
"""

from __future__ import annotations

import math
from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .connectivity import _disjoint_paths, hamiltonian_cycle, is_biconnected
from .errors import GraphError, RewireDefectError
from .graphs import Graph, _graph_from_rows
from .jsontext import json_text
from .spectra import FiedlerResult, _laplacians, alpha_cycle_closed_form, fiedler_vector, quadratic_form

CHAIN_REL_TOL = 1e-15
Q_CHAIN_SLACK = 1e-12


def extreme_vertices(x) -> tuple[int, int]:
    """Indices of the minimum and maximum coordinates, lowest index on ties."""
    vec = np.asarray(x, dtype=np.float64)
    if vec.size < 2:
        raise GraphError("extreme vertices need at least two coordinates")
    v_min = int(vec.argmin())
    v_max = int(vec.argmax())
    if vec[v_min] == vec[v_max]:
        raise GraphError("constant vector has no extreme pair")
    return v_min, v_max


def interval_assignment(p1, offcycle, x) -> list[list[int]]:
    """Distribute off-cycle vertices over consecutive P1 pairs by x-value.

    With lo <= hi the x-values at the ends of a pair and lo_all the least
    x-value on P1, a vertex v goes to the first pair (in P1 order) with
    lo < x(v) <= hi, or with lo_all == lo == x(v) < hi. The first clause
    places every x(v) above lo_all, the second every x(v) at it. Each list
    comes back sorted ascending by (x, vertex index).

    One sweep along P1 applies the rule. The pairs walked so far cover
    (pmin, pmax], the running range of their x-values, so the first pair
    whose interval holds an x(v) above lo_all is the one whose end brings
    x(v) into that range. With the off-cycle vertices sorted once by
    (x, v), each pair takes the slice of them that its end adds to the
    range, and the vertices at lo_all go to the first pair with
    lo == lo_all < hi. Errors come in the order the rule meets the
    vertices: GraphError for a value below P1's range, RewireDefectError
    for one at the value of a constant P1, GraphError for one above. A NaN
    value raises GraphError.
    """
    vec = np.asarray(x, dtype=np.float64).tolist()  # Python floats index faster
    px = [vec[v] for v in p1]
    order = sorted(offcycle, key=lambda v: (vec[v], v))
    xo = [vec[v] for v in order]
    if any(map(math.isnan, px)) or any(map(math.isnan, xo)):
        raise GraphError("x has a NaN value; not a Fiedler vector of this graph")
    lo_all, hi_all = min(px), max(px)
    # order runs: below lo_all, at it, inside (lo_all, hi_all], above
    at = bisect_left(xo, lo_all)
    inside = bisect_right(xo, lo_all, at)
    above = bisect_right(xo, hi_all, inside)
    if not at and inside and lo_all == hi_all:
        raise RewireDefectError(
            f"vertex {order[0]} fits no P1 interval; assignment must partition"
        )
    if at or above < len(order):
        v = order[0 if at else above]
        raise GraphError(
            f"off-cycle vertex {v} has x = {vec[v]!r} outside the extreme "
            f"range [{lo_all!r}, {hi_all!r}]; not a Fiedler vector of this graph"
        )
    ties = order[:inside]
    # the inside vertices not yet placed: order[inside:lo] at or below
    # pmin, and order[hi:] above pmax
    pmin = pmax = prev = px[0]
    lo = hi = bisect_right(xo, pmin, inside)
    lists = []
    for xb in px[1:]:
        if xb < pmin:
            k = bisect_right(xo, xb, inside, lo)
            lst = order[k:lo]
            lo, pmin = k, xb
        elif xb > pmax:
            k = bisect_right(xo, xb, hi)
            lst = order[hi:k]
            hi, pmax = k, xb
        else:
            lst = []
        if ties and prev != xb and lo_all in (prev, xb):
            lst = ties + lst
            ties = []
        lists.append(lst)
        prev = xb
    return lists


def chain_inequality_check(h: float, mids, q: float) -> bool:
    """(q-h)^2 dominates the refined increments h -> mids -> q.

    The one-step identity (q-h)^2 >= (q-l)^2 + (l-h)^2 for h <= l <= q,
    telescoped over an ascending midpoint list.
    """
    mids = [float(m) for m in mids]
    if any(mids[i] > mids[i + 1] for i in range(len(mids) - 1)):
        raise GraphError(f"midpoints must ascend, got {mids!r}")
    if mids and (mids[0] < h or mids[-1] > q):
        raise GraphError(f"midpoints must lie in [{h!r}, {q!r}], got {mids!r}")
    if h > q:
        raise GraphError(f"need h <= q, got h = {h!r}, q = {q!r}")
    whole = (q - h) ** 2
    if not mids:
        return True
    refined = (mids[0] - h) ** 2 + (q - mids[-1]) ** 2
    for a, b in zip(mids, mids[1:]):
        refined += (b - a) ** 2
    return refined <= whole * (1.0 + CHAIN_REL_TOL) + CHAIN_REL_TOL


@dataclass(frozen=True)
class RewireCertificate:
    """Everything needed to audit one rewiring step."""

    v_min: int
    v_max: int
    cycle: tuple[int, ...]
    p1: tuple[int, ...]
    p2: tuple[int, ...]
    assignments: tuple[tuple[int, ...], ...]
    g_prime: Graph
    q_g: float
    q_c: float
    q_gprime: float
    alpha_g: float
    alpha_gprime: float
    hamiltonian_case: bool


def rewire(g: Graph, f: FiedlerResult) -> RewireCertificate:
    """Build the spanning cycle G' and its quadratic-form certificate,
    after validating the input (module docstring)."""
    if g.n < 4:
        raise GraphError(f"rewiring needs n >= 4, got n = {g.n}")
    if not is_biconnected(g):
        raise GraphError("rewiring needs a biconnected input")
    x = np.asarray(f.vector, dtype=np.float64)
    if x.shape != (g.n,):
        raise GraphError("Fiedler vector length does not match the graph")
    lap = _laplacians([g._rows])[0]
    # inf or NaN input leaves a NaN residual, which _rewire rejects
    with np.errstate(invalid="ignore"):
        resid = float(np.max(np.abs(lap @ x - f.alpha * x)))
    r = _rewire(g._rows, x, resid)
    return RewireCertificate(
        v_min=r.v_min,
        v_max=r.v_max,
        cycle=r.cycle,
        p1=r.p1,
        p2=r.p2,
        assignments=tuple(tuple(lst) for lst in r.lists),
        g_prime=_graph_from_rows(r.rows),
        q_g=r.q_g,
        q_c=r.q_c,
        q_gprime=r.q_gprime,
        alpha_g=float(f.alpha),
        alpha_gprime=alpha_cycle_closed_form(g.n),
        hamiltonian_case=len(r.cycle) == g.n,
    )


class _Rewired(NamedTuple):
    v_min: int
    v_max: int
    cycle: tuple[int, ...]
    p1: tuple[int, ...]
    p2: tuple[int, ...]
    lists: list[list[int]]
    rows: list[int]  # the adjacency rows of G'
    q_g: float
    q_c: float
    q_gprime: float


def _rewire(rows, x: np.ndarray, residual: float) -> _Rewired:
    """The rewiring of the graph with these adjacency rows under the
    Fiedler vector x, with every check on it.

    residual is max |L x - alpha x| over the graph's Laplacian L. The
    caller has established the rest of rewire's input checks: n >= 4, a
    biconnected graph, and x of length n (module docstring).
    """
    # NaN fails every comparison, so the check is written to reject it
    if not residual <= 1e-6:
        raise GraphError("vector/alpha pair is not an eigenpair of this graph")
    v_min, v_max = extreme_vertices(x)
    n = len(rows)
    p1, p2 = _disjoint_paths(rows, v_min, v_max, 2)  # sorted: p1 has the smaller second vertex
    cycle = p1 + tuple(reversed(p2[1:-1]))
    c_rows, on = _cycle_rows(cycle, n)
    lists = interval_assignment(p1, [v for v in range(n) if not on >> v & 1], x)
    xs = x.tolist()
    seq = _thread(cycle, p1, lists, xs)
    g_rows, seen = _cycle_rows(seq, n)
    # G' is made of C's vertices and the listed ones, so n of them, none
    # repeated, is both the partition of the off-cycle set and a cycle
    # through every vertex: the graph whose alpha the closed form gives
    if len(seq) != n or seen != (1 << n) - 1:
        raise RewireDefectError("rewired graph is not a single spanning cycle")
    q_g = quadratic_form(rows, xs)
    q_c = quadratic_form(c_rows, xs)
    q_gp = quadratic_form(g_rows, xs)
    if not (q_gp <= q_c + Q_CHAIN_SLACK and q_c <= q_g + Q_CHAIN_SLACK):
        raise RewireDefectError(
            f"quadratic-form chain violated: q_G' = {q_gp!r}, q_C = {q_c!r}, "
            f"q_G = {q_g!r}"
        )
    return _Rewired(v_min, v_max, cycle, p1, p2, lists, g_rows, q_g, q_c, q_gp)


def _cycle_rows(seq, n: int) -> tuple[list[int], int]:
    """The n adjacency rows of the cycle through seq, and the mask of the
    vertices in seq."""
    rows = [0] * n
    seen = 0
    prev = seq[-1]
    for v in seq:
        bit = 1 << v
        rows[v] |= 1 << prev
        rows[prev] |= bit
        seen |= bit
        prev = v
    return rows, seen


def _thread(cycle, p1, lists, xs) -> list[int]:
    """G' as a vertex sequence: each P1 pair's list threaded between its
    ends, ascending from the end with smaller x. Each list is checked
    first, as chain_inequality_check checks its midpoints: its x-values
    ascend, lie in the pair's range [h, q], and refine (q - h)^2; a list
    that fails is a RewireDefectError."""
    seq = []
    for w, lst in enumerate(lists):
        a = p1[w]
        seq.append(a)
        if not lst:
            continue
        xa, xb = xs[a], xs[p1[w + 1]]
        h, q = (xa, xb) if xa <= xb else (xb, xa)
        first, last = xs[lst[0]], xs[lst[-1]]
        if not (h <= first and last <= q):
            raise RewireDefectError(f"pair {w} of P1 is handed x-values outside [{h!r}, {q!r}]")
        refined = (first - h) ** 2 + (q - last) ** 2
        for u, v in zip(lst, lst[1:]):
            if xs[v] < xs[u]:
                raise RewireDefectError(f"pair {w} of P1 is handed x-values out of order")
            refined += (xs[v] - xs[u]) ** 2
        if not refined <= (q - h) ** 2 * (1.0 + CHAIN_REL_TOL) + CHAIN_REL_TOL:
            raise RewireDefectError(f"telescoping inequality failed on pair {w} of P1")
        seq += lst if xa <= xb else lst[::-1]
    seq += cycle[len(lists):]
    return seq


@dataclass(frozen=True)
class StrictnessReport:
    hamiltonian: bool
    alpha_drop: float
    certificate: RewireCertificate
    endpoint_residuals: tuple[tuple[int, float], ...]


def strictness_report(g: Graph) -> StrictnessReport:
    """Rewire g and measure how far the spanning cycle's alpha fell.

    For non-Hamiltonian inputs the drop is strictly positive. The report
    carries the eigen-equation residual |alpha(G) x(v) - (L(G') x)(v)| at
    each threading endpoint: were alpha preserved, x would have to be an
    eigenvector of the rewired cycle too, and these residuals are exactly
    where that fails.
    """
    f = fiedler_vector(g)
    cert = rewire(g, f)
    x = f.vector
    lap_p = cert.g_prime.laplacian().astype(np.float64)
    lx = lap_p @ x
    residuals = {}
    for w, lst in enumerate(cert.assignments):
        if lst:
            for v in (cert.p1[w], cert.p1[w + 1]):
                residuals[int(v)] = float(abs(f.alpha * x[v] - lx[v]))
    return StrictnessReport(
        hamiltonian=hamiltonian_cycle(g) is not None,
        alpha_drop=cert.alpha_g - cert.alpha_gprime,
        certificate=cert,
        endpoint_residuals=tuple(sorted(residuals.items())),
    )


# ---------------------------------------------------------------------------
# certificate serialization
# ---------------------------------------------------------------------------


def certificate_to_dict(cert: RewireCertificate) -> dict:
    return {
        "v_min": cert.v_min,
        "v_max": cert.v_max,
        "cycle": list(cert.cycle),
        "p1": list(cert.p1),
        "p2": list(cert.p2),
        "assignments": [list(lst) for lst in cert.assignments],
        "g_prime": cert.g_prime.to_graph6(),
        "q_g": cert.q_g,
        "q_c": cert.q_c,
        "q_gprime": cert.q_gprime,
        "alpha_g": cert.alpha_g,
        "alpha_gprime": cert.alpha_gprime,
        "hamiltonian_case": cert.hamiltonian_case,
    }


def certificate_to_json(cert: RewireCertificate) -> str:
    """json.dumps(certificate_to_dict(cert), indent=2, sort_keys=True)."""
    return json_text(certificate_to_dict(cert))


def certificate_to_text(cert: RewireCertificate) -> str:
    d = certificate_to_dict(cert)
    lines = []
    for key in sorted(d):
        val = d[key]
        if isinstance(val, list):
            val = " ".join(str(v) for v in val)
        lines.append(f"{key}: {val}")
    return "\n".join(lines)
