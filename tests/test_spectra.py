"""Eigensolver correctness against an independent scalar-loop reference
(oracles.scalar_eigensystem) and closed forms, plus the Rayleigh-quotient
characterization of the algebraic connectivity."""

import math
import random

import numpy as np
import pytest

import oracles
from algconn.errors import ConvergenceError, DisconnectedGraphError, GraphError
from algconn.graphs import complete_graph, graph_from_edges, path_graph
from algconn.spectra import (
    algebraic_connectivity,
    alpha_cycle_closed_form,
    eigen_symmetric,
    fiedler_vector,
    laplacian_spectrum,
    multiplicity_tolerance,
    rayleigh_quotient,
)


def cycle(n):
    return graph_from_edges(n, [(i, (i + 1) % n) for i in range(n)])


def k23():
    return graph_from_edges(5, [(0, 2), (0, 3), (0, 4), (1, 2), (1, 3), (1, 4)])


def random_graph(rng, n, p=0.5):
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < p]
    return graph_from_edges(n, pairs)


def random_connected(rng, n, p=0.5):
    # a random spanning tree keeps it connected, extra edges on top
    pairs = set()
    for v in range(1, n):
        u = rng.randrange(v)
        pairs.add((u, v))
    for u in range(n):
        for v in range(u + 1, n):
            if (u, v) not in pairs and rng.random() < p:
                pairs.add((u, v))
    return graph_from_edges(n, sorted(pairs))


class TestEigenSymmetric:
    def test_k3_spectrum(self):
        dec = laplacian_spectrum(complete_graph(3))
        assert np.allclose(dec.eigenvalues, [0.0, 3.0, 3.0], atol=1e-12)

    def test_c4_spectrum(self):
        dec = laplacian_spectrum(cycle(4))
        assert np.allclose(dec.eigenvalues, [0.0, 2.0, 2.0, 4.0], atol=1e-12)

    def test_k23_spectrum(self):
        dec = laplacian_spectrum(k23())
        assert np.allclose(dec.eigenvalues, [0.0, 2.0, 2.0, 3.0, 5.0], atol=1e-12)

    def test_agrees_with_lapack(self):
        # the LAPACK-backed solver against the independent scalar loops
        rng = random.Random(3)
        for _ in range(60):
            g = random_graph(rng, rng.randrange(2, 16))
            ours = laplacian_spectrum(g).eigenvalues
            ref, _, failed, _ = oracles.scalar_eigensystem(g.laplacian().astype(np.float64), 64)
            assert failed is None
            assert np.max(np.abs(ours - ref)) <= 1e-9

    def test_orthonormal_columns(self):
        rng = random.Random(7)
        for _ in range(20):
            g = random_graph(rng, rng.randrange(2, 14))
            vecs = laplacian_spectrum(g).eigenvectors
            gram = vecs.T @ vecs
            assert np.max(np.abs(gram - np.eye(g.n))) <= 1e-9

    def test_residual_bound(self):
        rng = random.Random(11)
        for _ in range(20):
            g = random_graph(rng, rng.randrange(2, 14))
            dec = laplacian_spectrum(g)
            assert dec.residual <= 1e-8 * (max(g.degrees()) + 1)

    def test_smallest_eigenvalue_near_zero_connected(self):
        rng = random.Random(13)
        for _ in range(20):
            g = random_connected(rng, rng.randrange(2, 12))
            assert abs(laplacian_spectrum(g).eigenvalues[0]) <= 1e-9

    def test_eigenvalues_ascending(self):
        rng = random.Random(17)
        for _ in range(20):
            vals = laplacian_spectrum(random_graph(rng, 10)).eigenvalues
            assert all(vals[i] <= vals[i + 1] for i in range(len(vals) - 1))

    def test_general_symmetric_matrix(self):
        npr = np.random.default_rng(19)
        a = npr.standard_normal((12, 12))
        a = (a + a.T) / 2
        dec = eigen_symmetric(a)
        ref, _, failed, _ = oracles.scalar_eigensystem(a, 64)
        assert failed is None
        assert np.max(np.abs(dec.eigenvalues - ref)) <= 1e-10 * max(1.0, np.max(np.abs(ref)))

    def test_asymmetric_rejected(self):
        with pytest.raises(GraphError):
            eigen_symmetric(np.array([[0.0, 1.0], [2.0, 0.0]]))

    def test_nonsquare_rejected(self):
        with pytest.raises(GraphError):
            eigen_symmetric(np.zeros((2, 3)))

    def test_non_finite_rejected(self):
        for bad in (np.nan, np.inf, -np.inf):
            a = cycle(4).laplacian().astype(np.float64)
            a[1, 2] = a[2, 1] = bad
            with pytest.raises(GraphError, match="non-finite"):
                eigen_symmetric(a)

    def test_convergence_error_carries_details(self, monkeypatch):
        def no_convergence(a):
            raise np.linalg.LinAlgError("Eigenvalues did not converge")

        monkeypatch.setattr(np.linalg, "eigh", no_convergence)
        a = cycle(5).laplacian().astype(np.float64)
        with pytest.raises(ConvergenceError, match="did not converge") as info:
            eigen_symmetric(a)
        assert np.array_equal(info.value.matrix, a)

    def test_deterministic_bit_identical(self):
        g = random_graph(random.Random(23), 11)
        a = laplacian_spectrum(g)
        b = laplacian_spectrum(g)
        assert np.array_equal(a.eigenvalues, b.eigenvalues)
        assert np.array_equal(a.eigenvectors, b.eigenvectors)


class TestAlgebraicConnectivity:
    def test_c6_is_one(self):
        assert abs(algebraic_connectivity(cycle(6)) - 1.0) <= 1e-10

    def test_k23_is_two(self):
        assert abs(algebraic_connectivity(k23()) - 2.0) <= 1e-10

    def test_disconnected_is_zero(self):
        assert abs(algebraic_connectivity(graph_from_edges(2, []))) <= 1e-12

    def test_needs_two_vertices(self):
        with pytest.raises(GraphError):
            algebraic_connectivity(graph_from_edges(1, []))

    def test_connectivity_criterion(self):
        rng = random.Random(29)
        for _ in range(25):
            g = random_connected(rng, rng.randrange(2, 10))
            assert algebraic_connectivity(g) > 1e-6
        for _ in range(25):
            n = rng.randrange(3, 10)
            cut = rng.randrange(1, n)
            pairs = [
                (u, v)
                for u in range(n)
                for v in range(u + 1, n)
                if (u < cut) == (v < cut) and rng.random() < 0.7
            ]
            g = graph_from_edges(n, pairs)
            assert algebraic_connectivity(g) < 1e-9

    def test_edge_addition_monotone(self):
        rng = random.Random(31)
        done = 0
        while done < 200:
            g = random_graph(rng, rng.randrange(3, 12))
            missing = [
                (u, v)
                for u in range(g.n)
                for v in range(u + 1, g.n)
                if not g.has_edge(u, v)
            ]
            if not missing:
                continue
            u, v = rng.choice(missing)
            assert algebraic_connectivity(g.add_edge(u, v)) >= algebraic_connectivity(g) - 1e-10
            done += 1


class TestFiedlerVector:
    def test_p3_antisymmetric(self):
        f = fiedler_vector(path_graph(3))
        assert abs(f.alpha - 1.0) <= 1e-10
        want = np.array([1.0, 0.0, -1.0]) / math.sqrt(2.0)
        assert np.max(np.abs(f.vector - want)) <= 1e-9

    def test_c5_multiplicity_two(self):
        f = fiedler_vector(cycle(5))
        assert f.multiplicity == 2
        assert abs(f.alpha - alpha_cycle_closed_form(5)) <= 1e-10

    def test_k4_multiplicity_three(self):
        f = fiedler_vector(complete_graph(4))
        assert abs(f.alpha - 4.0) <= 1e-10
        assert f.multiplicity == 3

    def test_invariants(self):
        rng = random.Random(37)
        for _ in range(30):
            g = random_connected(rng, rng.randrange(2, 12))
            f = fiedler_vector(g)
            assert abs(float(f.vector @ f.vector) - 1.0) <= 1e-9
            assert abs(float(np.sum(f.vector))) / math.sqrt(g.n) <= 1e-9
            lead = int(np.argmax(np.abs(f.vector)))
            assert f.vector[lead] > 0.0
            assert f.residual <= 1e-8 * (max(g.degrees()) + 1)

    def test_disconnected_rejected(self):
        with pytest.raises(DisconnectedGraphError):
            fiedler_vector(graph_from_edges(4, [(0, 1), (2, 3)]))

    def test_multiplicity_tolerance_scale(self):
        assert multiplicity_tolerance(5) == 1e-8
        assert multiplicity_tolerance(400) == 4e-8


class TestRayleighQuotient:
    def test_c4_eigenvector(self):
        assert abs(rayleigh_quotient(cycle(4), [1.0, 0.0, -1.0, 0.0]) - 2.0) <= 1e-12

    def test_k3_any_admissible(self):
        rng = np.random.default_rng(41)
        for _ in range(10):
            x = rng.standard_normal(3)
            x -= x.mean()
            assert abs(rayleigh_quotient(complete_graph(3), x) - 3.0) <= 1e-9

    def test_c6_fiedler_attains(self):
        f = fiedler_vector(cycle(6))
        assert abs(rayleigh_quotient(cycle(6), f.vector) - 1.0) <= 1e-9

    def test_not_orthogonal_rejected(self):
        with pytest.raises(GraphError):
            rayleigh_quotient(cycle(4), [1.0, 1.0, 1.0, 1.0])

    def test_zero_vector_rejected(self):
        with pytest.raises(GraphError):
            rayleigh_quotient(cycle(4), [0.0, 0.0, 0.0, 0.0])

    def test_lower_bound_random(self):
        rng = random.Random(43)
        npr = np.random.default_rng(43)
        for _ in range(20):
            g = random_connected(rng, rng.randrange(3, 10))
            alpha = algebraic_connectivity(g)
            for _ in range(50):
                x = npr.standard_normal(g.n)
                x -= x.mean()
                assert rayleigh_quotient(g, x) >= alpha - 1e-9


class TestClosedForm:
    def test_pinned_values(self):
        # cos(pi/2) is not exactly zero in floats, so n=4 is 2 - 1 ulp
        assert abs(alpha_cycle_closed_form(4) - 2.0) <= 1e-15
        assert abs(alpha_cycle_closed_form(6) - 1.0) <= 1e-15
        assert abs(alpha_cycle_closed_form(5) - 1.3819660113) <= 1e-9

    def test_small_n_rejected(self):
        with pytest.raises(GraphError):
            alpha_cycle_closed_form(2)

    def test_matches_eigensolver(self):
        for n in range(3, 40):
            assert abs(algebraic_connectivity(cycle(n)) - alpha_cycle_closed_form(n)) <= 1e-10
