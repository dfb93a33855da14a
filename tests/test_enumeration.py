"""Exhaustive class generation against two independent counting routes:
labeled-graph bucketing (small n) and EGF-plus-Burnside arithmetic."""

import hashlib
import random

import numpy as np
import pytest

import oracles
from algconn.canon import canonical_form
from algconn.connectivity import is_biconnected, is_connected, is_theta
from algconn import enumeration
from algconn.enumeration import (
    _connected_codes,
    class_codes,
    count_classes,
    enumerate_graphs,
)
from algconn.errors import OrderLimitError, VerificationError
from algconn.graphs import graph_from_graph6

CONNECTED_CLASS_COUNTS = {1: 1, 2: 1, 3: 2, 4: 6, 5: 21, 6: 112, 7: 853, 8: 11117}
BICONNECTED_CLASS_COUNTS = {3: 1, 4: 3, 5: 10, 6: 56, 7: 468, 8: 7123}


def test_biconnected_counts_small_vs_labeled_bucketing():
    # every labeled graph, definitional biconnectivity, exhaustive-permutation
    # bucketing: the completeness oracle for n <= 6
    for n in range(3, 7):
        masks = oracles.all_masks(n)
        keep = masks[oracles.biconnected_mask(masks, n)]
        classes = len(np.unique(oracles.canonical_keys(keep, n)))
        assert count_classes(n, is_biconnected) == classes


def test_connected_counts_small_vs_labeled_bucketing():
    for n in range(1, 7):
        masks = oracles.all_masks(n)
        keep = masks[oracles.connected_mask(masks, n)]
        classes = len(np.unique(oracles.canonical_keys(keep, n)))
        assert count_classes(n, is_connected) == classes


def test_counts_vs_burnside_arithmetic():
    # second independent route: labeled counts by recurrence and block EGF,
    # class counts by Burnside over cycle types
    c = oracles.labeled_connected_counts(7)
    b = oracles.labeled_biconnected_counts(7)
    for n in range(3, 8):
        assert count_classes(n, is_biconnected) == oracles.burnside_class_count(
            n, b[n], oracles.biconnected_mask
        )
        assert count_classes(n, is_connected) == oracles.burnside_class_count(
            n, c[n], oracles.connected_mask
        )


@pytest.mark.slow
def test_counts_vs_burnside_arithmetic_n8():
    c = oracles.labeled_connected_counts(8)
    b = oracles.labeled_biconnected_counts(8)
    assert count_classes(8, is_biconnected) == oracles.burnside_class_count(
        8, b[8], oracles.biconnected_mask
    )
    assert count_classes(8, is_connected) == oracles.burnside_class_count(
        8, c[8], oracles.connected_mask
    )


@pytest.fixture
def cold_level_cache(monkeypatch):
    """An empty level cache for one test; the shared one is put back after."""
    monkeypatch.setattr(enumeration, "_level_cache", {})


def test_connected_codes_match_plain_oracle():
    # the augmentation acceptance test drops children, never classes
    for n in range(1, 8):
        assert _connected_codes(n) == oracles.plain_connected_codes(n)


@pytest.mark.slow
def test_connected_codes_match_plain_oracle_n8():
    assert _connected_codes(8) == oracles.plain_connected_codes(8)


@pytest.mark.slow
def test_level_8_codes_match_digest():
    # sha256 of the 11,117 sorted codes of order 8, joined by newlines, as
    # the search that ordered every vertex one at a time computed them
    codes = _connected_codes(8)
    assert len(codes) == CONNECTED_CLASS_COUNTS[8]
    digest = hashlib.sha256("\n".join(codes).encode()).hexdigest()
    assert digest == "28b9222da489bdd97eff49da6a8d2aed76ac19453b4b69ece911cb3dd855c398"


def test_shuffled_parents_and_masks_same_codes(cold_level_cache):
    # an rng shuffles every level's parents and masks and caches nothing,
    # so the unshuffled build below starts cold too
    shuffled = [
        [g.to_graph6() for g in enumerate_graphs(7, lambda _: True, random.Random(seed))]
        for seed in (3, 11)
    ]
    want = list(_connected_codes(7))
    assert shuffled == [want, want]


def test_acceptance_test_prunes_canonical_calls(cold_level_cache, canonical_calls):
    # extending every class by every mask makes 7,813 canonical-form calls
    # for levels <= 7; the acceptance test must cut most of them
    assert len(_connected_codes(7)) == CONNECTED_CLASS_COUNTS[7]
    assert len(canonical_calls) < 2500


# isomorphism invariants, as enumerate_graphs requires of its predicate
FILTERS = {
    "connected": is_connected,
    "biconnected": is_biconnected,
    "theta": is_theta,
    "min degree 3": lambda g: min(g.degrees()) >= 3,
}


@pytest.mark.parametrize("predicate", FILTERS.values(), ids=FILTERS)
def test_filtered_top_level_matches_filtering_after(cold_level_cache, predicate):
    for n in range(4, 8):
        # level n is built filtered before its unfiltered build caches it
        assert n not in enumeration._level_cache
        got = [g.to_graph6() for g in enumerate_graphs(n, predicate)]
        want = [c for c in _connected_codes(n) if predicate(graph_from_graph6(c))]
        assert got == want


@pytest.mark.parametrize("predicate", FILTERS.values(), ids=FILTERS)
def test_filtered_call_served_from_cached_level(cold_level_cache, canonical_calls, predicate):
    n = 6
    built = [g.to_graph6() for g in enumerate_graphs(n, predicate)]
    _connected_codes(n)
    canonical_calls.clear()
    served = [g.to_graph6() for g in enumerate_graphs(n, predicate)]
    assert served == built
    assert canonical_calls == []


@pytest.mark.parametrize("predicate", FILTERS.values(), ids=FILTERS)
def test_class_codes_are_the_enumerated_codes(cold_level_cache, monkeypatch, predicate):
    decoded = []

    def counted(decode):
        def decode_counted(code):
            decoded.append(code)
            return decode(code)

        return decode_counted

    # parents are decoded to adjacency rows, cached codes to graphs
    for name in ("graph_from_graph6", "_rows_from_graph6"):
        monkeypatch.setattr(enumeration, name, counted(getattr(enumeration, name)))
    for n in range(4, 8):
        want = tuple(g.to_graph6() for g in enumerate_graphs(n, predicate))
        decoded.clear()
        assert class_codes(n, predicate) == want
        # a level built for the call decodes its parents, of order n - 1,
        # and none of the codes it hands over
        assert {c[0] for c in decoded} == {chr(62 + n)}
        # a cached level decodes each of its codes once, for the predicate
        _connected_codes(n)
        decoded.clear()
        assert class_codes(n, predicate) == want
        assert len(decoded) == CONNECTED_CLASS_COUNTS[n]


def test_filtered_call_decodes_each_cached_code_once(cold_level_cache, monkeypatch):
    # the graph a cached code decodes to is both tested and yielded
    n = 6
    _connected_codes(n)
    decode, decoded = enumeration.graph_from_graph6, []

    def counted(code):
        decoded.append(code)
        return decode(code)

    monkeypatch.setattr(enumeration, "graph_from_graph6", counted)
    assert count_classes(n, is_biconnected) == BICONNECTED_CLASS_COUNTS[n]
    assert len(decoded) == CONNECTED_CLASS_COUNTS[n]


@pytest.mark.parametrize("predicate", FILTERS.values(), ids=FILTERS)
def test_filtered_level_canonicalizes_only_passing_children(
    cold_level_cache, canonical_calls, predicate
):
    n = 6
    first = [g.to_graph6() for g in enumerate_graphs(n, predicate)]
    assert n not in enumeration._level_cache
    assert all(k in enumeration._level_cache for k in range(2, n))
    top = [graph_from_graph6(c) for c in canonical_calls]
    top = [g for g in top if g.n == n]
    assert all(predicate(g) for g in top)
    # the lower levels now come from the cache; the filtered one is rebuilt
    canonical_calls.clear()
    again = [g.to_graph6() for g in enumerate_graphs(n, predicate)]
    assert again == first
    assert sorted(canonical_calls) == sorted(g.to_graph6() for g in top)


def test_filtered_top_level_call_count_n7(cold_level_cache, canonical_calls):
    # of the 902 children of order 7 the acceptance test lets through,
    # one per Aut(P) orbit of masks, the 496 that are 2-connected get a
    # canonical form
    assert count_classes(7, is_biconnected) == BICONNECTED_CLASS_COUNTS[7]
    assert sum(1 for c in canonical_calls if graph_from_graph6(c).n == 7) == 496
    canonical_calls.clear()
    assert len(_connected_codes(7)) == CONNECTED_CLASS_COUNTS[7]
    assert len(canonical_calls) == 902


def test_frozen_regression_counts():
    for n, want in CONNECTED_CLASS_COUNTS.items():
        if n <= 7:
            assert count_classes(n, is_connected) == want
    for n, want in BICONNECTED_CLASS_COUNTS.items():
        if n <= 7:
            assert count_classes(n, is_biconnected) == want


def test_level_checks_its_class_count(cold_level_cache, monkeypatch):
    # a canonical form that gives two classes one code loses a class
    # without any child failing; an unfiltered level counts its classes,
    # and a level that fails the count is not cached
    a, b = _connected_codes(5)[:2]
    del enumeration._level_cache[5]
    canonical = enumeration._canonical_code

    def merged(rows):
        code = canonical(rows)
        return a if code == b else code

    monkeypatch.setattr(enumeration, "_canonical_code", merged)
    with pytest.raises(VerificationError, match="order n = 5: enumerated 20, expected 21"):
        _connected_codes(5)
    assert 5 not in enumeration._level_cache


@pytest.mark.slow
def test_frozen_regression_counts_n8():
    assert count_classes(8, is_connected) == CONNECTED_CLASS_COUNTS[8]
    assert count_classes(8, is_biconnected) == BICONNECTED_CLASS_COUNTS[8]


def test_no_duplicate_codes():
    for n in range(1, 8):
        codes = [canonical_form(g) for g in enumerate_graphs(n, lambda _: True)]
        assert len(set(codes)) == len(codes)


def test_emitted_in_code_order_and_canonical():
    for n in range(2, 7):
        seen = []
        for g in enumerate_graphs(n, lambda _: True):
            code = g.to_graph6()
            assert canonical_form(g) == code  # representatives are canonical
            seen.append(code)
        assert seen == sorted(seen)


def test_predicate_rechecked_post_hoc():
    for g in enumerate_graphs(6, is_biconnected):
        assert is_biconnected(g)
    for g in enumerate_graphs(6, is_theta):
        assert is_theta(g)


def test_theta_counts_match_triple_enumeration():
    from algconn.families import theta_triples

    for n in range(4, 8):
        assert count_classes(n, is_theta) == len(theta_triples(n))


def test_permutation_robustness(cold_level_cache, canonical_calls):
    # the plain build fills the level cache; each seeded build must still
    # canonicalize the same children, in another order
    base = [g.to_graph6() for g in enumerate_graphs(6, is_biconnected)]
    children = list(canonical_calls)
    for seed in (1, 7, 42):
        canonical_calls.clear()
        rng = random.Random(seed)
        shuffled = [g.to_graph6() for g in enumerate_graphs(6, is_biconnected, rng)]
        assert shuffled == base
        assert sorted(canonical_calls) == sorted(children)
        assert canonical_calls != children


def test_order_limits():
    with pytest.raises(OrderLimitError):
        list(enumerate_graphs(10, lambda _: True))
    with pytest.raises(OrderLimitError):
        list(enumerate_graphs(0, lambda _: True))
    with pytest.raises(OrderLimitError, match="5.0"):
        list(enumerate_graphs(5.0, lambda _: True))


def test_stream_is_lazy():
    it = enumerate_graphs(5, is_biconnected)
    first = next(it)
    assert first.n == 5
    assert is_biconnected(first)
