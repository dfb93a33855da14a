"""Acceptance gate: seven pinned criteria, one test and one PASS line each.

Tolerances are fixed here on purpose; loosening one is a release decision,
not a test edit.
"""

import math
import random
import time

import numpy as np

import oracles
from algconn.canon import canonical_form, is_isomorphic
from algconn.connectivity import is_connected
from algconn.enumeration import enumerate_graphs
from algconn.families import (
    FamilyKind,
    FamilySpec,
    applicable_chord_kinds,
    chord_increments,
    cycle_graph,
    equality_family,
    max_chord_index,
    realize,
)
from algconn.graphs import Graph, graph_from_graph6
from algconn.rewiring import rewire
from algconn.spectra import (
    algebraic_connectivity,
    alpha_cycle_closed_form,
    fiedler_vector,
    laplacian_spectrum,
    rayleigh_quotient,
)
from algconn.verify import (
    NOT_EXTREMAL,
    report_to_json,
    verify_theorem_1,
    verify_theorem_2,
)

FROZEN_BICONNECTED_COUNTS = {4: 3, 5: 10, 6: 56, 7: 468, 8: 7123}


def random_graph(rng, n, p):
    edges = [
        (u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < p
    ]
    return Graph(n, frozenset(edges))


def random_connected_graph(rng, n_max):
    while True:
        n = rng.randint(3, n_max)
        g = random_graph(rng, n, rng.uniform(0.25, 0.8))
        if is_connected(g):
            return g


def test_criterion_1_spectral_oracle():
    start = time.monotonic()
    for n in range(3, 101):
        closed = 2.0 * (1.0 - math.cos(2.0 * math.pi / n))
        assert abs(algebraic_connectivity(cycle_graph(n)) - closed) <= 1e-10
    rng = random.Random(1009)
    for _ in range(500):
        g = random_graph(rng, rng.randint(2, 30), rng.uniform(0.1, 0.9))
        total = float(laplacian_spectrum(g).eigenvalues.sum())
        assert abs(total - 2.0 * len(g.edges)) <= 1e-9
    elapsed = time.monotonic() - start
    assert elapsed < 10.0, f"spectral oracle suite took {elapsed:.1f} s"
    print("CRITERION 1 (spectral oracle agreement): PASS")


def test_criterion_2_biconnected_sweep(t1_reports):
    # independent class counts: every labeled graph, definitional
    # biconnectivity, exhaustive-permutation bucketing
    for n in (4, 5, 6):
        masks = oracles.all_masks(n)
        keep = masks[oracles.biconnected_mask(masks, n)]
        oracle_count = len(np.unique(oracles.canonical_keys(keep, n)))
        assert oracle_count == FROZEN_BICONNECTED_COUNTS[n]
    for n in range(4, 9):
        report = t1_reports[n]
        assert report.count == FROZEN_BICONNECTED_COUNTS[n]
        assert report.flagged == ()
        bound = alpha_cycle_closed_form(n)
        assert report.min_alpha >= bound - 1e-10
        for row in report.rows:
            assert row.alpha >= bound - 1e-10
        attained = {
            r.code for r in report.rows if r.equality.label != NOT_EXTREMAL
        }
        expected = {canonical_form(g) for g in equality_family(n)}
        assert attained == expected, f"equality set mismatch at n = {n}"
    small = sum(t1_reports[n].runtime for n in range(4, 8))
    assert small < 60.0, f"n <= 7 sweeps took {small:.1f} s"
    assert t1_reports[8].runtime < 900.0, f"n = 8 sweep took {t1_reports[8].runtime:.1f} s"
    print("CRITERION 2 (biconnected minimum sweep, n = 4..8): PASS")


def test_criterion_3_theta_sweep():
    start = time.monotonic()
    reports = verify_theorem_2(30)
    assert [r.n for r in reports] == list(range(4, 31))
    for report in reports:
        assert report.flagged == ()
        for row in report.rows:
            assert row.alpha >= report.alpha_cycle - 1e-10
            # equality holds exactly when one path is a bare edge, which is
            # exactly when the triple realizes a single-chord family member
            is_equal = row.equality.label != NOT_EXTREMAL
            assert is_equal == (row.triple[0] == 1), row.triple
            if is_equal:
                kind = row.equality.matched_spec.kind
                if report.n % 2 == 1:
                    assert kind == FamilyKind.H1
                else:
                    assert kind in (FamilyKind.H2, FamilyKind.H3)
    elapsed = time.monotonic() - start
    assert elapsed < 60.0, f"theta sweep took {elapsed:.1f} s"
    print("CRITERION 3 (theta-graph sweep, n = 4..30): PASS")


def test_criterion_4_rewiring_strictness(t1_reports):
    checked = 0
    failures = []
    for n, report in t1_reports.items():
        target = cycle_graph(n)
        for row in report.rows:
            if row.hamiltonian:
                continue
            g = graph_from_graph6(row.code)
            cert = rewire(g, fiedler_vector(g))
            checked += 1
            ok = (
                cert.q_gprime <= cert.q_g + 1e-12
                and is_isomorphic(cert.g_prime, target)
                and cert.alpha_gprime < cert.alpha_g - 1e-10
            )
            if not ok:
                failures.append(row.code)
    assert failures == [], f"{len(failures)} rewiring certificates failed"
    # 927 non-Hamiltonian classes at n = 8 alone
    assert checked > 900
    print(f"CRITERION 4 (rewiring strictness on {checked} graphs): PASS")


def test_criterion_5_zero_increment_mechanism():
    for n in range(5, 100, 2):
        spec = FamilySpec(FamilyKind.H1, n, tuple(range(1, max_chord_index(FamilyKind.H1, n) + 1)))
        assert all(inc <= 1e-24 for inc in chord_increments(spec))
    for n in range(4, 99, 2):
        spec = FamilySpec(FamilyKind.H2, n, tuple(range(1, max_chord_index(FamilyKind.H2, n) + 1)))
        assert all(inc <= 1e-24 for inc in chord_increments(spec))
    for n in range(6, 99, 2):
        spec = FamilySpec(FamilyKind.H3, n, tuple(range(1, max_chord_index(FamilyKind.H3, n) + 1)))
        assert all(inc <= 1e-24 for inc in chord_increments(spec))
    rng = random.Random(987654)
    drawn = 0
    while drawn < 200:
        n = rng.randint(4, 40)
        kinds = [k for k in applicable_chord_kinds(n) if max_chord_index(k, n) >= 1]
        kind = rng.choice(kinds)
        cap = max_chord_index(kind, n)
        count = rng.randint(1, cap)
        indices = tuple(sorted(rng.sample(range(1, cap + 1), count)))
        spec = FamilySpec(kind, n, indices)
        alpha = algebraic_connectivity(realize(spec))
        assert abs(alpha - alpha_cycle_closed_form(n)) <= 1e-9, spec
        drawn += 1
    print("CRITERION 5 (zero-increment equality mechanism): PASS")


def test_criterion_6_rayleigh_lower_bound():
    rng = random.Random(60601)
    nrng = np.random.default_rng(60601)
    for _ in range(50):
        g = random_connected_graph(rng, 20)
        n = g.n
        lap = g.laplacian().astype(np.float64)
        f = fiedler_vector(g)
        z = nrng.standard_normal((1000, n))
        z -= z.mean(axis=1, keepdims=True)
        norms = np.linalg.norm(z, axis=1)
        z = z[norms > 1e-8] / norms[norms > 1e-8, None]
        assert len(z) == 1000
        quotients = np.einsum("ij,jk,ik->i", z, lap, z)
        assert (quotients >= f.alpha - 1e-9).all()
        assert abs(rayleigh_quotient(g, f.vector) - f.alpha) <= 1e-9
    print("CRITERION 6 (Rayleigh quotient lower bound): PASS")


def test_criterion_7_determinism_and_roundtrips(t1_reports):
    def stable(text):
        return "\n".join(
            line for line in text.splitlines() if '"runtime"' not in line
        )

    assert stable(report_to_json(verify_theorem_1(6))) == stable(
        report_to_json(t1_reports[6])
    )
    first = [report_to_json(r) for r in verify_theorem_2(12)]
    second = [report_to_json(r) for r in verify_theorem_2(12)]
    assert [stable(a) for a in first] == [stable(b) for b in second]
    seen = 0
    for n in range(1, 9):
        for g in enumerate_graphs(n, lambda _: True):
            assert graph_from_graph6(g.to_graph6()) == g
            seen += 1
    assert seen == 1 + 1 + 2 + 6 + 21 + 112 + 853 + 11117
    print(f"CRITERION 7 (determinism and {seen} graph6 round-trips): PASS")
