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
The construction and every check on it (the partition, the telescoping
inequality, the quadratic-form chain, the spanning cycle) live in one
internal entry, _rewire, which takes the graph's adjacency rows and
which rewire calls before it builds the certificate. A sweep row calls
_rewire directly: its graph is biconnected with n >= 4 by construction,
and the Fiedler solve has measured the same residual on the same
Laplacian. It builds no certificate and no Graph for G', which _rewire
keeps as its vertex sequence.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .connectivity import _disjoint_paths, hamiltonian_cycle, is_biconnected
from .errors import GraphError, RewireDefectError
from .graphs import Graph, _edge_pairs
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
    """
    vec = np.asarray(x, dtype=np.float64).tolist()  # Python floats index faster
    p1 = list(p1)
    lo_all = min(vec[v] for v in p1)
    hi_all = max(vec[v] for v in p1)
    bounds = [(min(vec[a], vec[b]), max(vec[a], vec[b])) for a, b in zip(p1, p1[1:])]
    lists: list[list[int]] = [[] for _ in bounds]
    for v in sorted(offcycle, key=lambda v: (vec[v], v)):
        xv = vec[v]
        if not lo_all <= xv <= hi_all:
            raise GraphError(
                f"off-cycle vertex {v} has x = {xv!r} outside the extreme "
                f"range [{lo_all!r}, {hi_all!r}]; not a Fiedler vector of this graph"
            )
        for lst, (lo, hi) in zip(lists, bounds):
            if lo < xv <= hi or lo_all == lo == xv < hi:
                lst.append(v)
                break
        else:
            raise RewireDefectError(
                f"vertex {v} fits no P1 interval; assignment must partition"
            )
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
        g_prime=Graph(g.n, r.pairs),
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
    pairs: list[tuple[int, int]]  # the edges of G', sorted like an edge_list
    q_g: float
    q_c: float
    q_gprime: float


def _rewire(rows, x: np.ndarray, residual: float) -> _Rewired:
    """The rewiring of the graph with these adjacency rows under the
    Fiedler vector x, with every check on it.

    residual is max |L x - alpha x| over the graph's Laplacian L. The
    caller has established the rest of rewire's input checks: n >= 4, a
    biconnected graph, and x of length n (module docstring). G' is kept as
    its vertex sequence: _cycle_pairs refuses a repeated vertex, so the
    sequence is one spanning cycle exactly when it has n vertices.
    """
    # NaN fails every comparison, so the check is written to reject it
    if not residual <= 1e-6:
        raise GraphError("vector/alpha pair is not an eigenpair of this graph")
    v_min, v_max = extreme_vertices(x)
    n = len(rows)
    p1, p2 = _disjoint_paths(rows, v_min, v_max, 2)  # sorted: p1 has the smaller second vertex
    cycle = p1 + tuple(reversed(p2[1:-1]))
    offcycle = sorted(set(range(n)) - set(cycle))

    lists = interval_assignment(p1, offcycle, x)
    flat = sorted(v for lst in lists for v in lst)
    if flat != offcycle:
        raise RewireDefectError(
            f"assignment lists do not partition the off-cycle set: "
            f"{lists!r} vs {offcycle!r}"
        )
    xs = x.tolist()
    for w, lst in enumerate(lists):
        if not lst:
            continue
        a, b = xs[p1[w]], xs[p1[w + 1]]
        h, q = min(a, b), max(a, b)
        if not chain_inequality_check(h, [xs[v] for v in lst], q):
            raise RewireDefectError(
                f"telescoping inequality failed on pair {w} of P1"
            )
    seq = _thread(cycle, p1, lists, xs)
    pairs = _cycle_pairs(seq)

    q_g = quadratic_form(_edge_pairs(rows), xs)
    q_c = quadratic_form(_cycle_pairs(cycle), xs)
    q_gp = quadratic_form(pairs, xs)
    if not (q_gp <= q_c + Q_CHAIN_SLACK and q_c <= q_g + Q_CHAIN_SLACK):
        raise RewireDefectError(
            f"quadratic-form chain violated: q_G' = {q_gp!r}, q_C = {q_c!r}, "
            f"q_G = {q_g!r}"
        )
    # a cycle through all n vertices, none repeated, is the graph whose
    # alpha the closed form gives
    if len(seq) != n:
        raise RewireDefectError("rewired graph is not a single spanning cycle")
    return _Rewired(v_min, v_max, cycle, p1, p2, lists, pairs, q_g, q_c, q_gp)


def _cycle_pairs(seq: tuple[int, ...]) -> list[tuple[int, int]]:
    """Edges of the cycle through seq as (min, max) pairs, sorted like edge_list."""
    if len(set(seq)) != len(seq):
        raise RewireDefectError(f"cycle sequence repeats a vertex: {seq!r}")
    return sorted((a, b) if a < b else (b, a) for a, b in zip(seq, seq[1:] + seq[:1]))


def _thread(cycle, p1, lists, x) -> tuple[int, ...]:
    """G' as a vertex sequence: each P1 pair's list threaded between its ends."""
    seq = []
    for w, lst in enumerate(lists):
        seq.append(p1[w])
        # ascend from the endpoint with smaller x
        seq.extend(lst if x[p1[w]] <= x[p1[w + 1]] else reversed(lst))
    seq.extend(cycle[len(lists):])
    return tuple(seq)


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
