"""Family constructors, the equality-case catalog, and the zero-increment
chord mechanism that makes every family member match the cycle's alpha."""

import hashlib
import math
import random
from pathlib import Path

import numpy as np
import pytest

from algconn.canon import canonical_form, is_isomorphic
from algconn.connectivity import is_biconnected, is_hamiltonian, is_theta
from algconn.errors import FamilySpecError
from algconn.families import (
    FamilyKind,
    FamilySpec,
    applicable_chord_kinds,
    chord_increments,
    cycle_graph,
    enumerate_theta,
    equality_family,
    equality_family_specs,
    max_chord_index,
    parse_family_text,
    realize,
    saturated,
    single_chord_spec_for_triple,
    symmetric_alpha_vector,
    theta_triples,
)
from algconn.graphs import graph_from_edges
from algconn.spectra import algebraic_connectivity, alpha_cycle_closed_form

DATA = Path(__file__).parent / "data"


def k23():
    return graph_from_edges(5, [(0, 2), (0, 3), (0, 4), (1, 2), (1, 3), (1, 4)])


class TestFamilySpecValidation:
    def test_h1_needs_odd(self):
        with pytest.raises(FamilySpecError, match="odd"):
            FamilySpec(FamilyKind.H1, 6, (1,))

    def test_h2_needs_even(self):
        with pytest.raises(FamilySpecError, match="even"):
            FamilySpec(FamilyKind.H2, 5, (1,))

    def test_h3_minimum_order(self):
        with pytest.raises(FamilySpecError, match="n >= 6"):
            FamilySpec(FamilyKind.H3, 4, (1,))

    def test_chord_index_cap_named(self):
        # (n-3)/2 = 3 at n=9
        with pytest.raises(FamilySpecError, match="<= 3"):
            FamilySpec(FamilyKind.H1, 9, (4,))

    def test_chord_index_lower_bound(self):
        with pytest.raises(FamilySpecError, match="1 <="):
            FamilySpec(FamilyKind.H2, 6, (0,))

    def test_needs_at_least_one_chord(self):
        with pytest.raises(FamilySpecError):
            FamilySpec(FamilyKind.H1, 7, ())

    def test_indices_must_be_sorted(self):
        with pytest.raises(FamilySpecError, match="sorted"):
            FamilySpec(FamilyKind.H2, 8, (2, 1))

    def test_repeated_indices_allowed(self):
        spec = FamilySpec(FamilyKind.H1, 7, (1, 1))
        assert spec.chord_pairs() == ((1, 6),)

    def test_cycle_takes_no_indices(self):
        with pytest.raises(FamilySpecError):
            FamilySpec(FamilyKind.CYCLE, 5, (1,))

    def test_theta_repeated_unit_length(self):
        with pytest.raises(FamilySpecError, match="length 1"):
            FamilySpec(FamilyKind.THETA, 3, (1, 1, 2))

    def test_theta_order_consistency(self):
        with pytest.raises(FamilySpecError, match="l1\\+l2\\+l3"):
            FamilySpec(FamilyKind.THETA, 7, (2, 2, 2))

    def test_theta_valid(self):
        spec = FamilySpec(FamilyKind.THETA, 5, (2, 2, 2))
        assert spec.indices == (2, 2, 2)

    def test_integers_by_operator_index(self):
        with pytest.raises(FamilySpecError, match="5.0"):
            cycle_graph(5.0)
        with pytest.raises(FamilySpecError, match="'1'"):
            FamilySpec(FamilyKind.H1, 7, ("1",))
        assert FamilySpec(FamilyKind.THETA, 8, (True, 3, 5)).to_text() == "theta:1,3,5"
        spec = FamilySpec(FamilyKind.H2, np.int64(8), (np.int64(1),))
        assert spec == FamilySpec(FamilyKind.H2, 8, (1,))
        assert [type(x) for x in (spec.n, *spec.indices)] == [int, int]


class TestRealize:
    def test_h1_order5(self):
        g = realize(FamilySpec(FamilyKind.H1, 5, (1,)))
        assert g == cycle_graph(5).add_edge(1, 4)

    def test_h2_order4_diamond(self):
        g = realize(FamilySpec(FamilyKind.H2, 4, (1,)))
        assert g == cycle_graph(4).add_edge(1, 3)
        assert g.m == 5

    def test_theta_222_is_k23(self):
        g = realize(FamilySpec(FamilyKind.THETA, 5, (2, 2, 2)))
        assert is_isomorphic(g, k23())

    def test_theta_labeling_poles(self):
        # poles are 0 and l1 by construction
        g = realize(FamilySpec(FamilyKind.THETA, 6, (2, 2, 3)))
        assert g.degree(0) == 3 and g.degree(2) == 3

    def test_repeated_chords_collapse(self):
        a = realize(FamilySpec(FamilyKind.H1, 9, (1, 1, 3)))
        b = realize(FamilySpec(FamilyKind.H1, 9, (1, 3)))
        assert a == b

    def test_all_chord_members_hamiltonian_biconnected(self):
        rng = random.Random(5)
        for _ in range(25):
            n = rng.randrange(4, 13)
            kinds = applicable_chord_kinds(n)
            if not kinds:
                continue
            kind = rng.choice(kinds)
            cap = max_chord_index(kind, n)
            k = rng.randrange(1, cap + 1)
            idx = tuple(sorted(rng.sample(range(1, cap + 1), k)))
            g = realize(FamilySpec(kind, n, idx))
            assert is_biconnected(g)
            assert is_hamiltonian(g)

    def test_theta_members_are_theta(self):
        for n in range(4, 10):
            for g in enumerate_theta(n):
                assert is_theta(g)
                assert g.m == g.n + 1


class TestSaturated:
    def test_h1_order5(self):
        g = saturated(FamilyKind.H1, 5)
        assert g == cycle_graph(5).add_edge(1, 4)
        assert g.m == 6

    def test_h2_order6(self):
        g = saturated(FamilyKind.H2, 6)
        assert g.m == 8
        assert g.has_edge(1, 5) and g.has_edge(2, 4)

    def test_h3_order6(self):
        g = saturated(FamilyKind.H3, 6)
        assert g.m == 7
        assert g.has_edge(1, 4)

    def test_parity_mismatch(self):
        with pytest.raises(FamilySpecError):
            saturated(FamilyKind.H1, 6)


class TestEqualityFamily:
    def test_n4_two_classes(self):
        fam = equality_family(4)
        assert len(fam) == 2

    def test_n5_two_classes(self):
        fam = equality_family(5)
        assert len(fam) == 2
        assert any(is_isomorphic(g, cycle_graph(5).add_edge(1, 4)) for g in fam)

    def test_n6_four_classes(self):
        fam = equality_family(6)
        assert len(fam) == 4
        c6 = cycle_graph(6)
        expect = [
            c6,
            c6.add_edge(1, 5),
            c6.add_edge(1, 4),
            c6.add_edge(1, 5).add_edge(2, 4),
        ]
        for want in expect:
            assert any(is_isomorphic(g, want) for g in fam)
        # H2(1) and H2(2) collapse to one class
        assert any(is_isomorphic(c6.add_edge(2, 4), g) for g in fam)

    def test_pairwise_non_isomorphic(self):
        for n in range(4, 10):
            fam = equality_family(n)
            codes = [canonical_form(g) for g in fam]
            assert len(set(codes)) == len(codes)

    def test_contains_spanning_cycle(self):
        for n in range(4, 10):
            cyc_edges = cycle_graph(n).edges
            for g in equality_family(n):
                assert cyc_edges <= g.edges

    def test_cycle_listed_first(self):
        specs = equality_family_specs(7)
        assert specs[0][0].kind == FamilyKind.CYCLE

    def test_alpha_matches_cycle(self):
        for n in range(4, 10):
            ref = alpha_cycle_closed_form(n)
            for g in equality_family(n):
                assert abs(algebraic_connectivity(g) - ref) <= 1e-9


class TestThetaTriples:
    def test_n4(self):
        assert theta_triples(4) == [(1, 2, 2)]

    def test_n5(self):
        assert theta_triples(5) == [(1, 2, 3), (2, 2, 2)]

    def test_n6(self):
        assert theta_triples(6) == [(1, 2, 4), (1, 3, 3), (2, 2, 3)]

    def test_order_limits(self):
        with pytest.raises(FamilySpecError):
            theta_triples(3)
        with pytest.raises(FamilySpecError, match="6.0"):
            theta_triples(6.0)

    def test_triples_classify_up_to_isomorphism(self):
        for n in range(4, 9):
            graphs = enumerate_theta(n)
            codes = [canonical_form(g) for g in graphs]
            assert len(set(codes)) == len(graphs) == len(theta_triples(n))

    def test_single_chord_triples(self):
        assert single_chord_spec_for_triple((2, 2, 2)) is None
        spec = single_chord_spec_for_triple((1, 2, 2))
        assert spec == FamilySpec(FamilyKind.H2, 4, (1,))
        spec = single_chord_spec_for_triple((1, 2, 3))
        assert spec == FamilySpec(FamilyKind.H1, 5, (1,))
        spec = single_chord_spec_for_triple((1, 3, 3))
        assert spec == FamilySpec(FamilyKind.H3, 6, (1,))

    def test_single_chord_spec_realizes_the_triple(self):
        from algconn.connectivity import theta_length_triple

        for n in range(4, 13):
            for triple in theta_triples(n):
                spec = single_chord_spec_for_triple(triple)
                if spec is None:
                    continue
                assert theta_length_triple(realize(spec)) == triple


class TestTextForm:
    def test_chord_roundtrip(self):
        spec = FamilySpec(FamilyKind.H1, 9, (1, 3))
        assert spec.to_text() == "h1:n=9:i=1,3"
        assert parse_family_text("h1:n=9:i=1,3") == spec

    def test_theta_roundtrip(self):
        spec = FamilySpec(FamilyKind.THETA, 8, (2, 3, 4))
        assert spec.to_text() == "theta:2,3,4"
        assert parse_family_text("theta:2,3,4") == spec

    def test_cycle_roundtrip(self):
        spec = FamilySpec(FamilyKind.CYCLE, 12)
        assert spec.to_text() == "cycle:12"
        assert parse_family_text("cycle:12") == spec

    def test_unknown_kind(self):
        with pytest.raises(FamilySpecError, match="unknown"):
            parse_family_text("h9:n=5:i=1")

    def test_bad_number(self):
        with pytest.raises(FamilySpecError):
            parse_family_text("cycle:x")

    @pytest.mark.parametrize(
        "text, message",
        [
            ("cycle:2", "cycle needs n >= 3"),
            ("cycle:12:3", "cycle spec must be 'cycle:<n>'"),
            ("theta:2,3", "exactly 3 path lengths"),
            ("theta:1,1,3", "multi-edge"),
            ("h1:n=8:i=1", "h1 needs odd n >= 5"),
        ],
    )
    def test_structural_error_named(self, text, message):
        # a well-formed number in a wrong spec reports the spec's fault,
        # not a bad number
        with pytest.raises(FamilySpecError) as info:
            parse_family_text(text)
        assert message in str(info.value)
        assert "bad number" not in str(info.value)

    def test_theta_unsorted_input_normalized(self):
        assert parse_family_text("theta:4,2,3") == FamilySpec(FamilyKind.THETA, 8, (2, 3, 4))


class TestZeroIncrement:
    def test_symmetric_vector_is_cycle_eigenvector(self):
        for n in (5, 6, 9, 12):
            lap = cycle_graph(n).laplacian().astype(np.float64)
            alpha = alpha_cycle_closed_form(n)
            for kind in (FamilyKind.H1, FamilyKind.H3):
                x = symmetric_alpha_vector(n, kind)
                assert np.max(np.abs(lap @ x - alpha * x)) <= 1e-12

    def test_h1_chords_zero_for_odd_n(self):
        for n in range(5, 100, 2):
            spec = FamilySpec(FamilyKind.H1, n, tuple(range(1, (n - 3) // 2 + 1)))
            assert all(inc <= 1e-24 for inc in chord_increments(spec))

    def test_h2_h3_chords_zero_for_even_n(self):
        for n in range(4, 99, 2):
            spec = FamilySpec(FamilyKind.H2, n, tuple(range(1, (n - 2) // 2 + 1)))
            assert all(inc <= 1e-24 for inc in chord_increments(spec))
            if n >= 6:
                spec = FamilySpec(FamilyKind.H3, n, tuple(range(1, (n - 4) // 2 + 1)))
                assert all(inc <= 1e-24 for inc in chord_increments(spec))

    def test_reflection_symmetry_exact_pairs(self):
        x = symmetric_alpha_vector(9, FamilyKind.H1)
        for j in range(1, 4):
            assert math.isclose(x[j], x[9 - j], rel_tol=0, abs_tol=1e-15)
        y = symmetric_alpha_vector(8, FamilyKind.H3)
        for j in range(1, 3):
            assert math.isclose(y[j], y[8 - j - 1], rel_tol=0, abs_tol=1e-15)

    def test_alpha_consequence_exhaustive_to_n12(self):
        # every family member up to n = 12 matches the cycle's alpha
        import itertools

        for n in range(4, 13):
            ref = alpha_cycle_closed_form(n)
            for kind in applicable_chord_kinds(n):
                cap = max_chord_index(kind, n)
                for size in range(1, cap + 1):
                    for combo in itertools.combinations(range(1, cap + 1), size):
                        g = realize(FamilySpec(kind, n, combo))
                        assert abs(algebraic_connectivity(g) - ref) <= 1e-9


def families_digest() -> str:
    """One sha256 over the chord facts, spec errors, cycles, theta graphs
    and equality catalogs that the family constructors produce."""
    h = hashlib.sha256()

    def put(*items):
        h.update(repr(items).encode("ascii"))

    for n in range(3, 41):
        kinds = applicable_chord_kinds(n)
        put(n, [str(k) for k in kinds])
        for kind in kinds:
            put(max_chord_index(kind, n), symmetric_alpha_vector(n, kind).tobytes())
    for kind in FamilyKind:
        for n in range(3, 13):
            try:
                FamilySpec(kind, n, (1,))
                put(str(kind), n, None)
            except FamilySpecError as exc:
                put(str(kind), n, str(exc))
    for n in range(3, 41):
        put(cycle_graph(n).edge_list)
    for n in range(4, 41):
        for triple in theta_triples(n):
            spec = single_chord_spec_for_triple(triple)
            put(
                triple,
                realize(FamilySpec(FamilyKind.THETA, n, triple)).edge_list,
                spec and spec.to_text(),
            )
    for n in range(4, 13):
        for spec, g, code in equality_family_specs(n):
            put(spec.to_text(), code, g.edge_list)
    return h.hexdigest()


def test_families_match_digest():
    # chord caps and vectors for n <= 40, spec errors for n <= 12, cycles
    # and theta graphs for n <= 40 and equality catalogs for n <= 12
    assert families_digest() == (DATA / "families.sha256").read_text().strip()
