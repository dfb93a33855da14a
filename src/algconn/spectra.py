"""Laplacian spectra: algebraic connectivity and Fiedler vectors.

The eigensolver is LAPACK's symmetric driver through ``numpy.linalg.eigh``
(eigenvalues ascending, orthonormal eigenvectors as columns). It is exact
to roundoff for the small dense Laplacians in scope, and repeated runs on
one numpy build are bit-identical; a different numpy or LAPACK build may
move the last digits.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .connectivity import is_connected
from .errors import ConvergenceError, DisconnectedGraphError, GraphError
from .graphs import Graph


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
    try:
        values, vectors = np.linalg.eigh(a)
    except np.linalg.LinAlgError as exc:
        err = ConvergenceError(f"eigensolver failed on a {n}x{n} matrix: {exc}")
        err.matrix = a
        raise err from exc
    residual = float(np.max(np.abs(a @ vectors - vectors * values)))
    return SpectralDecomposition(eigenvalues=values, eigenvectors=vectors, residual=residual)


def laplacian_spectrum(g: Graph) -> SpectralDecomposition:
    return eigen_symmetric(g.laplacian().astype(np.float64))


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
    dec = laplacian_spectrum(g)
    alpha = float(dec.eigenvalues[1])
    tol = multiplicity_tolerance(g.n)
    multiplicity = int(np.sum(np.abs(dec.eigenvalues - alpha) <= tol))
    vec = dec.eigenvectors[:, 1].copy()
    vec /= math.sqrt(float(vec @ vec))
    # sign convention: first coordinate of largest magnitude made positive
    lead = int(np.argmax(np.abs(vec)))
    if vec[lead] < 0.0:
        vec = -vec
    lap = g.laplacian().astype(np.float64)
    residual = float(np.max(np.abs(lap @ vec - alpha * vec)))
    return FiedlerResult(alpha=alpha, vector=vec, multiplicity=multiplicity, residual=residual)


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
    num = 0.0
    for u, v in g.edge_list:
        d = vec[u] - vec[v]
        num += d * d
    return num / float(vec @ vec)


def alpha_cycle_closed_form(n: int) -> float:
    """Algebraic connectivity of the n-cycle, 2(1 - cos(2*pi/n))."""
    if n < 3:
        raise GraphError(f"cycles need n >= 3, got n = {n}")
    return 2.0 * (1.0 - math.cos(2.0 * math.pi / n))
