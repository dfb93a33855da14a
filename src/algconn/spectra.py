"""Laplacian spectra: algebraic connectivity and Fiedler vectors.

The eigensolver is LAPACK's symmetric driver through ``numpy.linalg.eigh``
(eigenvalues ascending, orthonormal eigenvectors as columns). It is exact
to roundoff for the small dense Laplacians in scope, and repeated runs on
one numpy build are bit-identical; a different numpy or LAPACK build may
move the last digits.

eigen_symmetric validates an arbitrary matrix (square, finite, symmetric
to roundoff) before the solve and reports the all-pairs residual after.
fiedler_vector solves a graph's exact integer Laplacian directly: such a
matrix passes every one of those checks by construction, so it skips them
and reports only the residual of the Fiedler pair. The solve after
fiedler_vector's checks is _fiedlers, which takes a batch of graphs of
one order as bitmask rows, stacks their Laplacians (graphs._laplacians,
the one Laplacian builder, which Graph.laplacian also calls) and makes
one eigh call on the (k, n, n) stack; normalization, sign,
multiplicity and residual stay per-graph arithmetic. numpy runs the same
LAPACK call on each matrix of a stack as on the matrix alone, so a
graph's result does not depend on the batch it was solved in.
fiedler_vector solves a batch of one, and a sweep one batch of rows at a
time.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .connectivity import is_connected
from .errors import ConvergenceError, DisconnectedGraphError, GraphError
from .graphs import Graph, _laplacians


@dataclass(frozen=True)
class SpectralDecomposition:
    """Eigenvalues ascending, orthonormal eigenvectors as aligned columns."""

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray
    residual: float


@dataclass(frozen=True)
class FiedlerResult:
    alpha: float
    vector: np.ndarray
    multiplicity: int
    residual: float


def eigen_symmetric(m: np.ndarray) -> SpectralDecomposition:
    """Full spectral decomposition of a finite symmetric matrix."""
    a = np.asarray(m, dtype=np.float64)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise GraphError(f"expected a square matrix, got shape {a.shape}")
    n = a.shape[0]
    if n == 0:
        raise GraphError("empty matrix has no spectrum")
    # LAPACK returns NaNs for infinite input instead of failing
    if not np.all(np.isfinite(a)):
        raise GraphError("matrix has non-finite entries")
    scale = float(np.max(np.abs(a)))
    if float(np.max(np.abs(a - a.T))) > 1e-12 * max(1.0, scale):
        raise GraphError("matrix is not symmetric")
    a = (a + a.T) / 2.0
    values, vectors = _eigh(a)
    residual = float(np.max(np.abs(a @ vectors - vectors * values)))
    return SpectralDecomposition(eigenvalues=values, eigenvectors=vectors, residual=residual)


def _eigh(a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """LAPACK's symmetric solve of a matrix, or of a (k, n, n) stack in one
    call; a failure is a ConvergenceError carrying the matrix (of a stack
    of one, its one matrix; numpy does not say which of a larger stack
    failed)."""
    try:
        return np.linalg.eigh(a)
    except np.linalg.LinAlgError as exc:
        n = a.shape[-1]
        err = ConvergenceError(f"eigensolver failed on a {n}x{n} matrix: {exc}")
        err.matrix = a[0] if a.ndim == 3 and len(a) == 1 else a
        raise err from exc


def laplacian_spectrum(g: Graph) -> SpectralDecomposition:
    return eigen_symmetric(_laplacians([g._rows])[0])


def algebraic_connectivity(g: Graph) -> float:
    """Second-smallest Laplacian eigenvalue; positive iff g is connected."""
    if g.n < 2:
        raise GraphError(f"algebraic connectivity needs n >= 2, got n = {g.n}")
    return float(laplacian_spectrum(g).eigenvalues[1])


def multiplicity_tolerance(n: int) -> float:
    return max(1e-8, 1e-10 * n)


def fiedler_vector(g: Graph) -> FiedlerResult:
    """Eigenvector for the algebraic connectivity, deterministically signed.

    With a repeated second eigenvalue the eigenspace has no canonical
    vector; the solver's column for the smallest index in the cluster is
    returned and the multiplicity is reported so callers know the choice
    was one of many.
    """
    if g.n < 2:
        raise GraphError(f"Fiedler vector needs n >= 2, got n = {g.n}")
    if not is_connected(g):
        raise DisconnectedGraphError(
            "Fiedler vector of a disconnected graph is ill-posed (alpha = 0)"
        )
    return _fiedlers([g._rows])[0]


def _fiedlers(batch) -> list[FiedlerResult]:
    """fiedler_vector of each graph in a nonempty batch of adjacency rows,
    all of one order n >= 2 and connected, which the caller has
    established; one stacked eigh call solves them all."""
    # integer entries: finite and exactly symmetric, so eigen_symmetric's
    # checks, symmetrizing copy and all-pairs residual would change nothing
    laps = _laplacians(batch)
    values, vectors = _eigh(laps)
    tol = multiplicity_tolerance(laps.shape[1])
    out = []
    for lap, vals, vecs in zip(laps, values.tolist(), vectors):
        alpha = vals[1]
        multiplicity = sum(1 for v in vals if abs(v - alpha) <= tol)
        vec = vecs[:, 1].copy()
        vec /= math.sqrt(float(vec @ vec))
        # sign convention: first coordinate of largest magnitude made positive
        lead = int(np.abs(vec).argmax())
        if vec[lead] < 0.0:
            vec = -vec
        residual = float(np.abs(lap @ vec - alpha * vec).max())
        out.append(FiedlerResult(alpha, vec, multiplicity, residual))
    return out


def rayleigh_quotient(g: Graph, x) -> float:
    """Edge quadratic form over squared norm, for x orthogonal to all-ones.

    This never drops below the algebraic connectivity (up to numerics),
    which is the variational characterization the minimization arguments
    rest on.
    """
    vec = np.asarray(x, dtype=np.float64)
    if vec.shape != (g.n,):
        raise GraphError(f"vector length {vec.shape} does not match n = {g.n}")
    norm = float(np.linalg.norm(vec))
    if norm == 0.0:
        raise GraphError("Rayleigh quotient of the zero vector is undefined")
    ones_overlap = abs(float(np.sum(vec))) / (norm * math.sqrt(g.n))
    if ones_overlap > 1e-9:
        raise GraphError(
            f"vector is not orthogonal to all-ones (normalized overlap {ones_overlap:.3e})"
        )
    return quadratic_form(g._rows, vec.tolist()) / float(vec @ vec)


def quadratic_form(rows, xs: list[float]) -> float:
    """Sum of (x_u - x_v)^2 over the edges (u, v), u < v, of adjacency
    rows, in edge-list order."""
    total = 0.0
    for u, row in enumerate(rows):
        xu = xs[u]
        above = row >> u + 1
        while above:
            low = above & -above
            d = xu - xs[u + low.bit_length()]
            total += d * d
            above ^= low
    return total


def alpha_cycle_closed_form(n: int) -> float:
    """Algebraic connectivity of the n-cycle, 2(1 - cos(2*pi/n))."""
    if n < 3:
        raise GraphError(f"cycles need n >= 3, got n = {n}")
    return 2.0 * (1.0 - math.cos(2.0 * math.pi / n))
