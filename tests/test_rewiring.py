"""Rewiring procedure: extreme pair, interval threading, chain inequality,
and the quadratic-form certificates."""

import hashlib
import importlib.util
import json
import random
from pathlib import Path

import numpy as np
import pytest

import oracles
from golden import DATA, assert_matches_golden
from test_connectivity import random_ear_graph
from algconn.canon import is_isomorphic
from algconn.connectivity import is_biconnected
from algconn.errors import GraphError, RewireDefectError
from algconn.families import FamilyKind, FamilySpec, _theta_rows, cycle_graph, realize, theta_triples
from algconn.graphs import (
    _edge_pairs,
    _rows_from_graph6,
    complete_graph,
    graph_from_edges,
    graph_from_graph6,
)
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
from algconn.spectra import FiedlerResult, _fiedlers, alpha_cycle_closed_form, fiedler_vector


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

    def test_tie_with_pair_low_end_above_minimum(self):
        # x(3) = 0.5 equals the low end of the first pair but lies above the
        # P1 minimum, so it belongs to the pair that crosses it
        x = [0.5, 1.0, 0.0, 0.5]
        assert interval_assignment([0, 1, 2], [3], x) == [[], [3]]

    def test_minimum_tie_after_rising_pair(self):
        # P1 rises 0.25 -> 0.5, drops to the minimum 0, then rises to 1;
        # x(4) = 0 sits at the minimum, x(5) = 0.5 at the first pair's top
        x = [0.25, 0.5, 0.0, 1.0, 0.0, 0.5]
        assert interval_assignment([0, 1, 2, 3], [4, 5], x) == [[5], [4], []]

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


def test_interval_assignment_matches_scan():
    # the sweep along P1 against the scan that tries every pair for each
    # vertex; values on a 5-point grid make ties common, and P1 is a
    # random sequence of labels that need not start at its minimum
    rng = random.Random(25)
    grid = [0.0, 0.25, 0.5, 0.75, 1.0]
    raised = {GraphError: 0, RewireDefectError: 0}
    for _ in range(100_000):
        p1_len = rng.randrange(1, 7)
        n = p1_len + rng.randrange(0, 6)
        labels = rng.sample(range(n), n)
        p1, off = labels[:p1_len], labels[p1_len:]
        x = [rng.choice(grid) for _ in range(n)]
        try:
            want = oracles.scan_interval_assignment(p1, off, x)
        except (GraphError, RewireDefectError) as exc:
            with pytest.raises((GraphError, RewireDefectError)) as info:
                interval_assignment(p1, off, x)
            assert type(info.value) is type(exc), (p1, off, x)
            raised[type(exc)] += 1
            continue
        assert interval_assignment(p1, off, x) == want, (p1, off, x)
    # both errors, and mostly inputs that assign
    assert min(raised.values()) > 1000 and sum(raised.values()) < 50_000


def test_interval_assignment_rejects_nan():
    x = [0.0, 1.0, 0.5, float("nan")]
    for assign in (interval_assignment, oracles.scan_interval_assignment):
        with pytest.raises(GraphError):
            assign([0, 1], [2, 3], x)
    # a NaN on P1 is refused as well, wherever it sits
    for p1 in ([3, 0, 1], [0, 3, 1], [0, 1, 3]):
        with pytest.raises(GraphError):
            interval_assignment(p1, [2], x)


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

    def test_non_finite_eigenpair_rejected(self):
        # NaN fails every comparison, so a NaN residual must not pass as small
        g = k23()
        f = fiedler_vector(g)
        for alpha, coord in ((float("nan"), None), (None, float("nan")), (None, float("inf"))):
            x = f.vector.copy()
            if coord is not None:
                x[2] = coord
            fake = FiedlerResult(f.alpha if alpha is None else alpha, x, 1, 0.0)
            with pytest.raises(GraphError, match="eigenpair"):
                rewire(g, fake)

    def test_tied_minimum_graph(self):
        # complete bipartite 2x4: the Fiedler eigenspace forces repeated
        # coordinate values, exercising the tie paths end to end
        g = graph_from_edges(6, [(a, b) for a in (0, 1) for b in (2, 3, 4, 5)])
        cert = rewire(g, fiedler_vector(g))
        assert is_isomorphic(cert.g_prime, cycle_graph(6))
        off = sorted(set(range(6)) - set(cert.cycle))
        assert sorted(v for lst in cert.assignments for v in lst) == off

    def test_sequence_missing_a_vertex_rejected(self, monkeypatch):
        # G' is kept as its vertex sequence, and alpha(G') is taken from the
        # closed form, so the sequence must visit all n vertices. Dropping
        # the vertex of largest x only shortens the quadratic form, so the
        # chain holds and only the spanning-cycle check can catch it
        thread = rewiring._thread

        def misses_one(cycle, p1, lists, x):
            seq = thread(cycle, p1, lists, x)
            top = max(seq, key=lambda v: x[v])
            return tuple(v for v in seq if v != top)

        g = graph_from_edges(6, [(a, b) for a in (0, 1) for b in (2, 3, 4, 5)])
        f = fiedler_vector(g)
        monkeypatch.setattr(rewiring, "_thread", misses_one)
        with pytest.raises(RewireDefectError, match="single spanning cycle"):
            rewire(g, f)

    def mutated_theta334(self, monkeypatch, name, mutate):
        """theta(3, 3, 4) and its Fiedler result, with rewiring.<name>'s
        result passed through mutate. Its P1 is (4, 0, 6, 7), and the
        first pair gets the list [1, 2]: two distinct x-values inside the
        pair's range."""
        g = realize(FamilySpec(FamilyKind.THETA, 9, (3, 3, 4)))
        f = fiedler_vector(g)
        original = getattr(rewiring, name)
        monkeypatch.setattr(rewiring, name, lambda *args: mutate(original(*args)))
        return g, f

    def test_list_out_of_x_order_rejected(self, monkeypatch):
        def reverse_first(lists):
            assert lists[0] == [1, 2]
            return [lists[0][::-1], *lists[1:]]

        g, f = self.mutated_theta334(monkeypatch, "interval_assignment", reverse_first)
        with pytest.raises(RewireDefectError, match="out of order"):
            rewire(g, f)

    def test_midpoint_outside_pair_range_rejected(self, monkeypatch):
        def move_to_last(lists):
            assert lists[0] == [1, 2] and lists[-1] == []
            return [[1], *lists[1:-1], [2]]

        g, f = self.mutated_theta334(monkeypatch, "interval_assignment", move_to_last)
        with pytest.raises(RewireDefectError, match="outside"):
            rewire(g, f)

    def test_sequence_repeating_a_vertex_rejected(self, monkeypatch):
        # n vertices, one of them twice: only the mask of G''s sequence
        # tells it from a spanning cycle
        def repeats_one(seq):
            return [*seq[:-1], seq[0]]

        g, f = self.mutated_theta334(monkeypatch, "_thread", repeats_one)
        with pytest.raises(RewireDefectError, match="single spanning cycle"):
            rewire(g, f)

    def test_every_biconnected_n5_certificate(self):
        from algconn.enumeration import enumerate_graphs

        for g in enumerate_graphs(5, is_biconnected):
            cert = rewire(g, fiedler_vector(g))
            assert cert.q_gprime <= cert.q_g + 1e-12
            assert is_isomorphic(cert.g_prime, cycle_graph(5))


def assert_matches_pair_oracle(batch):
    """_rewire on each graph of a batch of one order's adjacency rows, under
    its Fiedler vector, gives the pair-list construction's fields, G''s
    edge set and bit-equal quadratic forms."""
    for rows, f in zip(batch, _fiedlers(batch)):
        got = rewiring._rewire(rows, f.vector, f.residual)
        want = oracles.pair_rewire(rows, f.vector)
        for field in ("v_min", "v_max", "cycle", "p1", "p2", "lists"):
            assert getattr(got, field) == want[field], (rows, field)
        assert frozenset(_edge_pairs(got.rows)) == want["gprime_edges"], rows
        for field in ("q_g", "q_c", "q_gprime"):
            assert getattr(got, field).hex() == want[field].hex(), (rows, field)
    return len(batch)


def test_rewire_matches_pair_oracle_on_biconnected_classes(t1_reports):
    checked = sum(
        assert_matches_pair_oracle([_rows_from_graph6(r.code) for r in t1_reports[n].rows])
        for n in range(4, 9)
    )
    assert checked == 7660


def test_rewire_matches_pair_oracle_on_theta_graphs():
    checked = sum(
        assert_matches_pair_oracle([_theta_rows(t) for t in theta_triples(n)])
        for n in range(4, 41)
    )
    assert checked == 1942


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_rewire_matches_pair_oracle_on_certify_graphs(monkeypatch, seed):
    # the benchmark's certify stream: 300 seeded 2-connected graphs with
    # 13 <= n <= 40; sweepbench/child.py imports its neighbours by plain name
    bench = Path(__file__).resolve().parents[1] / "sweepbench"
    monkeypatch.syspath_prepend(str(bench))
    spec = importlib.util.spec_from_file_location("sweepbench_child", bench / "child.py")
    child = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(child)
    graphs = [graph_from_edges(n, edges) for n, edges in child.certify_inputs(seed)]
    assert sum(assert_matches_pair_oracle([g._rows]) for g in graphs) == 300


def test_certificates_match_golden():
    # every biconnected class with n <= 6 and every theta graph with
    # 7 <= n <= 12; floats within 1e-12, everything else exact
    want = json.loads((DATA / "certificates.json").read_text())
    assert len(want) == 119
    for entry in want:
        g = graph_from_graph6(entry["graph"])
        got = certificate_to_dict(rewire(g, fiedler_vector(g)))
        assert_matches_golden(got, entry["certificate"], entry["graph"])


def test_certificates_match_digest():
    # 300 seeded 2-connected graphs with 13 <= n <= 40; the digest of their
    # concatenated JSON certificates pins every byte of the paths and floats
    rng = random.Random(43)
    h = hashlib.sha256()
    for _ in range(300):
        g = random_ear_graph(rng, rng.randint(13, 40))
        h.update(certificate_to_json(rewire(g, fiedler_vector(g))).encode("ascii"))
    assert h.hexdigest() == (DATA / "certificates_random.sha256").read_text().strip()


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
