"""Rewiring procedure: extreme pair, interval threading, chain inequality,
and the quadratic-form certificates."""

import json
import random

import numpy as np
import pytest

from algconn.canon import is_isomorphic
from algconn.connectivity import is_biconnected
from algconn.errors import GraphError, RewireDefectError
from algconn.families import FamilyKind, FamilySpec, cycle_graph, realize
from algconn.graphs import complete_graph, graph_from_edges, graph_from_graph6
from algconn import rewiring
from algconn.rewiring import (
    chain_inequality_check,
    certificate_to_dict,
    certificate_to_json,
    certificate_to_text,
    extreme_vertices,
    interval_assignment,
    rewire,
    strictness_report,
)
from algconn.spectra import FiedlerResult, alpha_cycle_closed_form, fiedler_vector


def k23():
    return graph_from_edges(5, [(0, 2), (0, 3), (0, 4), (1, 2), (1, 3), (1, 4)])


class TestExtremeVertices:
    def test_basic(self):
        assert extreme_vertices([0.5, -0.5, 0.0]) == (1, 0)

    def test_tie_lowest_index(self):
        assert extreme_vertices([-1.0, -1.0, 2.0]) == (0, 2)

    def test_p3_fiedler(self):
        from algconn.graphs import path_graph

        f = fiedler_vector(path_graph(3))
        assert extreme_vertices(f.vector) == (2, 0)

    def test_constant_rejected(self):
        with pytest.raises(GraphError):
            extreme_vertices([1.0, 1.0, 1.0])

    def test_too_short(self):
        with pytest.raises(GraphError):
            extreme_vertices([1.0])


class TestIntervalAssignment:
    def test_single_pair(self):
        lists = interval_assignment([0, 1], [2], [0.0, 1.0, 0.5])
        assert lists == [[2]]

    def test_two_pairs_split(self):
        # P1 x-values (0, 0.5, 1); off-cycle x-values 0.2, 0.7, 0.3
        x = [0.0, 0.5, 1.0, 0.2, 0.7, 0.3]
        lists = interval_assignment([0, 1, 2], [3, 4, 5], x)
        assert lists == [[3, 5], [4]]

    def test_lists_sorted_by_value_then_index(self):
        x = [0.0, 1.0, 0.4, 0.4, 0.2]
        lists = interval_assignment([0, 1], [2, 3, 4], x)
        assert lists == [[4, 2, 3]]

    def test_boundary_tie_fallback(self):
        # off-cycle value equals the global minimum; the first P1 pair is
        # constant, so the fallback must skip it and use the next pair
        x = [0.0, 0.0, 1.0, 0.0]
        lists = interval_assignment([0, 1, 2], [3], x)
        assert lists == [[], [3]]

    def test_fallback_first_nonconstant_pair(self):
        x = [0.0, 0.5, 1.0, 0.0]
        lists = interval_assignment([0, 1, 2], [3], x)
        assert lists == [[3], []]

    def test_outside_range_rejected(self):
        with pytest.raises(GraphError):
            interval_assignment([0, 1], [2], [0.0, 1.0, 2.0])

    def test_partition_property_random(self):
        rng = random.Random(11)
        for _ in range(200):
            p1_len = rng.randrange(2, 6)
            off_len = rng.randrange(0, 5)
            n = p1_len + off_len
            vals = [rng.choice([0.0, 0.25, 0.5, 0.75, 1.0]) for _ in range(n)]
            vals[0] = 0.0
            vals[p1_len - 1] = 1.0
            p1 = list(range(p1_len))
            off = list(range(p1_len, n))
            lists = interval_assignment(p1, off, vals)
            flat = sorted(v for lst in lists for v in lst)
            assert flat == off
            for w, lst in enumerate(lists):
                lo = min(vals[p1[w]], vals[p1[w + 1]])
                hi = max(vals[p1[w]], vals[p1[w + 1]])
                for v in lst:
                    assert lo <= vals[v] <= hi


class TestChainInequality:
    def test_examples(self):
        assert chain_inequality_check(0.0, [1.0], 2.0)
        assert chain_inequality_check(0.0, [], 3.0)
        assert chain_inequality_check(0.0, [1.0, 1.0], 1.0)

    def test_ordering_violations(self):
        with pytest.raises(GraphError):
            chain_inequality_check(0.0, [2.0, 1.0], 3.0)
        with pytest.raises(GraphError):
            chain_inequality_check(0.0, [-1.0], 3.0)
        with pytest.raises(GraphError):
            chain_inequality_check(0.0, [4.0], 3.0)
        with pytest.raises(GraphError):
            chain_inequality_check(3.0, [], 0.0)

    def test_hundred_thousand_random_triples(self):
        rng = random.Random(2024)
        for _ in range(100_000):
            h = rng.uniform(-2.0, 2.0)
            q = h + rng.uniform(0.0, 3.0)
            mids = sorted(rng.uniform(h, q) for _ in range(rng.randrange(0, 6)))
            assert chain_inequality_check(h, mids, q)


class TestRewire:
    def test_cycle_is_hamiltonian_case(self):
        g = cycle_graph(7)
        cert = rewire(g, fiedler_vector(g))
        assert cert.hamiltonian_case
        assert cert.g_prime == g
        assert abs(cert.alpha_g - cert.alpha_gprime) <= 1e-10
        assert abs(cert.q_g - cert.q_gprime) <= 1e-12

    def test_k23_certificate(self):
        g = k23()
        cert = rewire(g, fiedler_vector(g))
        assert not cert.hamiltonian_case
        assert abs(cert.alpha_g - 2.0) <= 1e-10
        assert abs(cert.alpha_gprime - alpha_cycle_closed_form(5)) <= 1e-10
        assert is_isomorphic(cert.g_prime, cycle_graph(5))
        assert cert.q_gprime <= cert.q_c + 1e-12 <= cert.q_g + 2e-12

    def test_certificate_structure(self):
        g = realize(FamilySpec(FamilyKind.THETA, 6, (2, 2, 3)))
        f = fiedler_vector(g)
        cert = rewire(g, f)
        # C = P1 u P2, sharing exactly the extreme pair
        assert set(cert.p1) & set(cert.p2) == {cert.v_min, cert.v_max}
        assert set(cert.cycle) == set(cert.p1) | set(cert.p2)
        assert cert.p1[0] == cert.v_min and cert.p1[-1] == cert.v_max
        # off-cycle vertices appear in exactly one assignment list
        off = sorted(set(range(g.n)) - set(cert.cycle))
        flat = sorted(v for lst in cert.assignments for v in lst)
        assert flat == off
        assert len(cert.assignments) == len(cert.p1) - 1
        # spanning cycle
        assert cert.g_prime.n == g.n
        assert all(d == 2 for d in cert.g_prime.degrees())
        assert is_isomorphic(cert.g_prime, cycle_graph(6))

    def test_threaded_orientation_respects_values(self):
        g = k23()
        f = fiedler_vector(g)
        cert = rewire(g, f)
        x = f.vector
        for w, lst in enumerate(cert.assignments):
            vals = [x[v] for v in lst]
            assert vals == sorted(vals)

    def test_non_biconnected_rejected(self):
        from algconn.graphs import path_graph

        g = path_graph(5)
        with pytest.raises(GraphError):
            rewire(g, FiedlerResult(1.0, np.zeros(5), 1, 0.0))

    def test_small_order_rejected(self):
        g = complete_graph(3)
        with pytest.raises(GraphError):
            rewire(g, fiedler_vector(g))

    def test_non_eigenpair_rejected(self):
        g = cycle_graph(5)
        fake = FiedlerResult(1.0, np.array([1.0, 0.0, 0.0, 0.0, -1.0]) / np.sqrt(2), 1, 0.0)
        with pytest.raises(GraphError):
            rewire(g, fake)

    def test_tied_minimum_graph(self):
        # complete bipartite 2x4: the Fiedler eigenspace forces repeated
        # coordinate values, exercising the tie paths end to end
        g = graph_from_edges(6, [(a, b) for a in (0, 1) for b in (2, 3, 4, 5)])
        cert = rewire(g, fiedler_vector(g))
        assert is_isomorphic(cert.g_prime, cycle_graph(6))
        off = sorted(set(range(6)) - set(cert.cycle))
        assert sorted(v for lst in cert.assignments for v in lst) == off

    def test_two_disjoint_cycles_rejected(self, monkeypatch):
        # 2-regular on all n vertices is not enough: alpha(G') is taken from
        # the closed form, so G' must be one connected cycle
        # low-x and high-x triangles keep the quadratic-form chain intact,
        # so only the spanning-cycle check can catch them
        def two_triangles(n, cycle, p1, lists, x):
            order = sorted(range(n), key=lambda v: (x[v], v))
            pairs = []
            for a, b, c in (order[:3], order[3:]):
                pairs += [(a, b), (b, c), (a, c)]
            return graph_from_edges(n, pairs)

        g = graph_from_edges(6, [(a, b) for a in (0, 1) for b in (2, 3, 4, 5)])
        f = fiedler_vector(g)
        monkeypatch.setattr(rewiring, "_thread", two_triangles)
        with pytest.raises(RewireDefectError, match="single spanning cycle"):
            rewire(g, f)

    def test_every_biconnected_n5_certificate(self):
        from algconn.enumeration import enumerate_graphs

        for g in enumerate_graphs(5, is_biconnected):
            cert = rewire(g, fiedler_vector(g))
            assert cert.q_gprime <= cert.q_g + 1e-12
            assert is_isomorphic(cert.g_prime, cycle_graph(5))


class TestStrictness:
    def test_k23_drop(self):
        rep = strictness_report(k23())
        assert not rep.hamiltonian
        assert abs(rep.alpha_drop - (2.0 - alpha_cycle_closed_form(5))) <= 1e-9
        assert rep.alpha_drop > 0.6

    def test_c8_no_drop(self):
        rep = strictness_report(cycle_graph(8))
        assert rep.hamiltonian
        assert abs(rep.alpha_drop) <= 1e-12

    def test_theta_223_drops(self):
        rep = strictness_report(realize(FamilySpec(FamilyKind.THETA, 6, (2, 2, 3))))
        assert not rep.hamiltonian
        assert rep.alpha_drop > 1e-10

    def test_residuals_nonzero_for_non_hamiltonian(self):
        # the proof's contradiction point: were alpha preserved, these
        # eigen-equation residuals would all vanish
        rep = strictness_report(k23())
        assert rep.endpoint_residuals
        assert max(r for _, r in rep.endpoint_residuals) > 1e-6


class TestSerialization:
    def test_json_roundtrip_fields(self):
        g = k23()
        cert = rewire(g, fiedler_vector(g))
        d = json.loads(certificate_to_json(cert))
        assert d == certificate_to_dict(cert)
        assert d["v_min"] == cert.v_min
        assert d["hamiltonian_case"] is False
        assert graph_from_graph6(d["g_prime"]) == cert.g_prime
        assert tuple(d["cycle"]) == cert.cycle

    def test_text_form_one_field_per_line(self):
        g = k23()
        cert = rewire(g, fiedler_vector(g))
        text = certificate_to_text(cert)
        lines = text.splitlines()
        assert len(lines) == len(certificate_to_dict(cert))
        assert any(line.startswith("q_g:") for line in lines)
        assert any(line.startswith("alpha_gprime:") for line in lines)
