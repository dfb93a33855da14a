"""Cycle rewiring: turn any biconnected graph into a spanning cycle whose
quadratic form under the original Fiedler vector is no larger.

The construction: take the vertices v_min, v_max carrying the extreme
Fiedler values, join them by two inner-disjoint paths P1, P2 (their union
is a cycle C), then thread every off-cycle vertex into an edge of P1 whose
x-interval covers its value, in ascending x order. Replacing each such P1
edge by its threaded path only refines increments, so by the squared
telescoping inequality the quadratic form cannot grow. The result G' is a
spanning cycle, checked before the certificate is issued, so its algebraic
connectivity is alpha(C_n) and comes from the closed form. For
non-Hamiltonian inputs it drops strictly below the input's, which the
certificate records.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from .connectivity import (
    hamiltonian_cycle,
    inner_disjoint_paths,
    is_biconnected,
    is_connected,
)
from .errors import GraphError, RewireDefectError
from .graphs import Graph, graph_from_edges
from .spectra import FiedlerResult, alpha_cycle_closed_form, fiedler_vector

CHAIN_REL_TOL = 1e-15
Q_CHAIN_SLACK = 1e-12


def extreme_vertices(x) -> tuple[int, int]:
    """Indices of the minimum and maximum coordinates, lowest index on ties."""
    vec = np.asarray(x, dtype=np.float64)
    if vec.size < 2:
        raise GraphError("extreme vertices need at least two coordinates")
    v_min = int(np.argmin(vec))
    v_max = int(np.argmax(vec))
    if vec[v_min] == vec[v_max]:
        raise GraphError("constant vector has no extreme pair")
    return v_min, v_max


def interval_assignment(p1, offcycle, x) -> list[list[int]]:
    """Distribute off-cycle vertices over consecutive P1 pairs by x-value.

    A vertex v goes to the first pair (in P1 order) whose x-interval
    satisfies low < x(v) <= high. Vertices at the global minimum value
    match no such pair and fall back to the first pair with a strictly
    wider interval whose low end sits at that value. Each list comes back
    sorted ascending by (x, vertex index).
    """
    vec = np.asarray(x, dtype=np.float64).tolist()  # Python floats index faster
    p1 = list(p1)
    lo_all = min(vec[v] for v in p1)
    hi_all = max(vec[v] for v in p1)
    lists: list[list[int]] = [[] for _ in range(len(p1) - 1)]
    for v in sorted(offcycle, key=lambda v: (vec[v], v)):
        if not lo_all <= vec[v] <= hi_all:
            raise GraphError(
                f"off-cycle vertex {v} has x = {vec[v]!r} outside the extreme "
                f"range [{lo_all!r}, {hi_all!r}]; not a Fiedler vector of this graph"
            )
        placed = False
        for w in range(len(p1) - 1):
            lo = min(vec[p1[w]], vec[p1[w + 1]])
            hi = max(vec[p1[w]], vec[p1[w + 1]])
            if lo < vec[v] <= hi:
                lists[w].append(v)
                placed = True
                break
        if not placed:
            # x(v) equals the global minimum: no pair strictly exceeds it
            for w in range(len(p1) - 1):
                lo = min(vec[p1[w]], vec[p1[w + 1]])
                hi = max(vec[p1[w]], vec[p1[w + 1]])
                if lo == vec[v] and hi > lo:
                    lists[w].append(v)
                    placed = True
                    break
        if not placed:
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


def _quadratic_form(g: Graph, xs: list[float]) -> float:
    total = 0.0
    for u, v in g.edge_list:
        d = xs[u] - xs[v]
        total += d * d
    return total


def rewire(g: Graph, f: FiedlerResult) -> RewireCertificate:
    """Build the spanning cycle G' and its quadratic-form certificate."""
    if g.n < 4:
        raise GraphError(f"rewiring needs n >= 4, got n = {g.n}")
    if not is_biconnected(g):
        raise GraphError("rewiring needs a biconnected input")
    x = np.asarray(f.vector, dtype=np.float64)
    if x.shape != (g.n,):
        raise GraphError("Fiedler vector length does not match the graph")
    lap = g.laplacian().astype(np.float64)
    if float(np.max(np.abs(lap @ x - f.alpha * x))) > 1e-6:
        raise GraphError("vector/alpha pair is not an eigenpair of this graph")

    v_min, v_max = extreme_vertices(x)
    ps = inner_disjoint_paths(g, v_min, v_max, 2)
    p1, p2 = ps.paths[0], ps.paths[1]  # sorted order: p1 has the smaller second vertex
    cycle = tuple(p1) + tuple(reversed(p2[1:-1]))
    offcycle = sorted(set(range(g.n)) - set(cycle))

    if not offcycle:
        assignments = tuple(() for _ in range(len(p1) - 1))
        g_prime = _cycle_on(g.n, cycle)
        hamiltonian_case = True
    else:
        lists = interval_assignment(p1, offcycle, x)
        flat = sorted(v for lst in lists for v in lst)
        if flat != offcycle:
            raise RewireDefectError(
                f"assignment lists do not partition the off-cycle set: "
                f"{lists!r} vs {offcycle!r}"
            )
        for w, lst in enumerate(lists):
            if not lst:
                continue
            a, b = float(x[p1[w]]), float(x[p1[w + 1]])
            h, q = min(a, b), max(a, b)
            if not chain_inequality_check(h, [float(x[v]) for v in lst], q):
                raise RewireDefectError(
                    f"telescoping inequality failed on pair {w} of P1"
                )
        assignments = tuple(tuple(lst) for lst in lists)
        g_prime = _thread(g.n, cycle, p1, lists, x)
        hamiltonian_case = False

    xs = x.tolist()
    q_g = _quadratic_form(g, xs)
    q_c = _quadratic_form(_cycle_on(g.n, cycle) if offcycle else g_prime, xs)
    q_gp = _quadratic_form(g_prime, xs)
    if not (q_gp <= q_c + Q_CHAIN_SLACK and q_c <= q_g + Q_CHAIN_SLACK):
        raise RewireDefectError(
            f"quadratic-form chain violated: q_G' = {q_gp!r}, q_C = {q_c!r}, "
            f"q_G = {q_g!r}"
        )
    # connected and 2-regular on all n vertices is one spanning cycle, the
    # graph whose alpha the closed form gives
    if g_prime.n != g.n or any(d != 2 for d in g_prime.degrees()) or not is_connected(g_prime):
        raise RewireDefectError("rewired graph is not a single spanning cycle")
    return RewireCertificate(
        v_min=v_min,
        v_max=v_max,
        cycle=cycle,
        p1=tuple(p1),
        p2=tuple(p2),
        assignments=assignments,
        g_prime=g_prime,
        q_g=q_g,
        q_c=q_c,
        q_gprime=q_gp,
        alpha_g=float(f.alpha),
        alpha_gprime=alpha_cycle_closed_form(g.n),
        hamiltonian_case=hamiltonian_case,
    )


def _cycle_on(n: int, seq: tuple[int, ...]) -> Graph:
    if len(set(seq)) != len(seq):
        raise RewireDefectError(f"cycle sequence repeats a vertex: {seq!r}")
    pairs = [(seq[i], seq[(i + 1) % len(seq)]) for i in range(len(seq))]
    return graph_from_edges(n, pairs)


def _thread(n, cycle, p1, lists, x) -> Graph:
    seq = []
    pos = {v: i for i, v in enumerate(p1)}
    for v in cycle:
        seq.append(v)
        w = pos.get(v)
        if w is None or w >= len(lists) or not lists[w]:
            continue
        lst = lists[w]
        # ascend from the endpoint with smaller x
        if x[p1[w]] <= x[p1[w + 1]]:
            seq.extend(lst)
        else:
            seq.extend(reversed(lst))
    return _cycle_on(n, tuple(seq))


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
    residuals = []
    for w, lst in enumerate(cert.assignments):
        if not lst:
            continue
        for v in (cert.p1[w], cert.p1[w + 1]):
            residuals.append((int(v), float(abs(f.alpha * x[v] - lx[v]))))
    residuals.sort()
    dedup = []
    for item in residuals:
        if not dedup or dedup[-1][0] != item[0]:
            dedup.append(item)
    return StrictnessReport(
        hamiltonian=hamiltonian_cycle(g) is not None,
        alpha_drop=cert.alpha_g - cert.alpha_gprime,
        certificate=cert,
        endpoint_residuals=tuple(dedup),
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
    return json.dumps(certificate_to_dict(cert), indent=2, sort_keys=True)


def certificate_to_text(cert: RewireCertificate) -> str:
    d = certificate_to_dict(cert)
    lines = []
    for key in sorted(d):
        val = d[key]
        if isinstance(val, list):
            val = " ".join(str(v) for v in val)
        lines.append(f"{key}: {val}")
    return "\n".join(lines)
