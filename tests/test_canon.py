"""Canonical forms against the exhaustive-permutation oracle."""

import hashlib
import itertools
import json
import random
import time

import pytest

import oracles
from golden import DATA
from algconn import canon, enumeration
from algconn.canon import canonical_form, degree_profile, is_isomorphic
from algconn.errors import GraphError, OrderLimitError
from algconn.families import FamilyKind, FamilySpec, realize, theta_triples
from algconn.graphs import (
    Graph,
    complete_graph,
    empty_graph,
    graph_from_edges,
    graph_from_graph6,
)


def cycle(n):
    return graph_from_edges(n, [(i, (i + 1) % n) for i in range(n)])


def relabel(g, perm):
    return graph_from_edges(g.n, [(perm[u], perm[v]) for u, v in g.edges])


def random_graph(rng, n, p=0.5):
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < p]
    return graph_from_edges(n, pairs)


def brute_canonical_graph6(g):
    bits = oracles.brute_canonical_bits(g)
    # pack the oracle's bit tuple the same way graph6 does
    out = bytearray([g.n + 63])
    acc, nacc = 0, 0
    for b in bits:
        acc = acc << 1 | b
        nacc += 1
        if nacc == 6:
            out.append(acc + 63)
            acc, nacc = 0, 0
    if nacc:
        out.append((acc << (6 - nacc)) + 63)
    return out.decode("ascii")


def test_matches_brute_force_on_all_small_orders():
    # every labeled graph with n <= 5 (1,024 of them at n = 5)
    for n in range(1, 6):
        nbits = n * (n - 1) // 2
        for mask in range(1 << nbits):
            pairs = []
            k = 0
            for u in range(n):
                for v in range(u + 1, n):
                    if mask >> k & 1:
                        pairs.append((u, v))
                    k += 1
            g = graph_from_edges(n, pairs)
            assert canonical_form(g) == brute_canonical_graph6(g)


def test_matches_brute_force_random():
    rng = random.Random(5)
    for _ in range(40):
        g = random_graph(rng, rng.randrange(5, 8), rng.choice([0.2, 0.5, 0.8]))
        assert canonical_form(g) == brute_canonical_graph6(g)


def test_invariant_under_100_random_relabelings():
    rng = random.Random(17)
    g = random_graph(rng, 8)
    code = canonical_form(g)
    for _ in range(100):
        perm = list(range(8))
        rng.shuffle(perm)
        assert canonical_form(relabel(g, perm)) == code


def test_canonical_form_decodes_to_isomorphic_graph():
    rng = random.Random(29)
    for _ in range(20):
        g = random_graph(rng, 7)
        h = graph_from_graph6(canonical_form(g))
        assert oracles.brute_is_isomorphic(g, h)


def test_order_limit():
    with pytest.raises(OrderLimitError):
        canonical_form(Graph(13, frozenset()))


PETERSEN = graph_from_edges(
    10,
    [(i, (i + 1) % 5) for i in range(5)]
    + [(i, i + 5) for i in range(5)]
    + [(5 + i, 5 + (i + 2) % 5) for i in range(5)],
)
K66 = graph_from_edges(12, [(u, v) for u in range(6) for v in range(6, 12)])


# K2,2,2,2,2,2: K12 less a perfect matching
COCKTAIL_PARTY = graph_from_edges(
    12, [(u, v) for u in range(12) for v in range(u + 1, 12) if u // 2 != v // 2]
)
# apexes 0 and 11, pentagons 1..5 and 6..10
ICOSAHEDRON = graph_from_edges(
    12,
    [(0, i) for i in range(1, 6)]
    + [(11, i) for i in range(6, 11)]
    + [(1 + i, 1 + (i + 1) % 5) for i in range(5)]
    + [(6 + i, 6 + (i + 1) % 5) for i in range(5)]
    + [(1 + i, 6 + i) for i in range(5)]
    + [(1 + (i + 1) % 5, 6 + i) for i in range(5)],
)


def complement(g):
    return graph_from_edges(
        g.n, [(u, v) for u in range(g.n) for v in range(u + 1, g.n) if not g.has_edge(u, v)]
    )


@pytest.mark.parametrize(
    "g",
    [
        complete_graph(12),
        empty_graph(12),
        cycle(12),
        K66,
        PETERSEN,
        COCKTAIL_PARTY,
        complement(cycle(12)),
        ICOSAHEDRON,
        complement(ICOSAHEDRON),
    ],
    ids=[
        "K12",
        "empty12",
        "C12",
        "K6,6",
        "Petersen",
        "K2x6",
        "co-C12",
        "icosahedron",
        "co-icosahedron",
    ],
)
def test_symmetric_worst_cases_at_cap(g):
    # highly symmetric graphs at (or near) the order cap: bounded time, and
    # the same code from a random relabeling
    rng = random.Random(g.n * 1000 + g.m)
    perm = list(range(g.n))
    rng.shuffle(perm)
    codes = []
    for h in (g, relabel(g, perm)):
        start = time.perf_counter()
        codes.append(canonical_form(h))
        assert time.perf_counter() - start <= 2.0
    assert codes[0] == codes[1]
    assert graph_from_graph6(codes[0]).m == g.m


def theta(triple):
    return realize(FamilySpec(FamilyKind.THETA, sum(triple) - 1, triple))


def test_theta_codes_match_golden():
    # tests/data/theta_codes_n12.json holds the codes of every theta graph
    # of order 4..12 and three symmetric graphs, as the previous search
    # (branching on every unplaced vertex) computed them
    want = json.loads((DATA / "theta_codes_n12.json").read_text())
    got = {
        "theta(%d,%d,%d)" % t: canonical_form(theta(t))
        for n in range(4, 13)
        for t in theta_triples(n)
    }
    assert len(got) == 56
    for name, g in (("C12", cycle(12)), ("K6,6", K66), ("Petersen", PETERSEN)):
        got[name] = canonical_form(g)
    assert got == want


def test_theta_codes_match_brute_force():
    rng = random.Random(8)
    for n in range(4, 9):
        for t in theta_triples(n):
            perm = list(range(n))
            rng.shuffle(perm)
            g = relabel(theta(t), perm)
            assert canonical_form(g) == brute_canonical_graph6(g), t


def test_codes_match_golden_random_graphs():
    # tests/data/canon_random_n12.json holds the codes of 240 random graphs
    # with n = 9..12 and edge densities 0.1..0.9, as the previous search
    # (ordering the leading independent set one vertex at a time) computed them
    graphs = json.loads((DATA / "canon_random_n12.json").read_text())["graphs"]
    assert len(graphs) == 240
    for entry in graphs:
        g = graph_from_edges(entry["n"], [tuple(e) for e in entry["edges"]])
        assert canonical_form(g) == entry["code"], entry


@pytest.mark.parametrize(
    "g, ceiling",
    [(theta((1, 3, 9)), 1_000), (cycle(12), 1_000)],
    ids=["theta(1,3,9)", "C12"],
)
def test_search_branches_only_on_minimum_columns(g, ceiling, monkeypatch):
    # both phases together visit 255 nodes on theta(1,3,9) and 342 on C12;
    # placing the independent set one vertex at a time, or branching on
    # every unplaced vertex instead of the minimum-column ones, visits
    # thousands, so this catches either regression without a clock, and
    # stops it at the ceiling
    nodes = 0

    def counted(step):
        def node(*args):
            nonlocal nodes
            nodes += 1
            assert nodes < ceiling, "search node ceiling reached"
            return step(*args)

        return node

    monkeypatch.setattr(canon, "_choose", counted(canon._choose))
    monkeypatch.setattr(canon, "_extend", counted(canon._extend))
    canonical_form(g)


def group_order(gens, n):
    """Size of the permutation group gens generate, by closure."""
    group = {tuple(range(n))}
    frontier = list(group)
    while frontier:
        grown = []
        for a in frontier:
            for p in gens:
                c = tuple(p[v] for v in a)
                if c not in group:
                    group.add(c)
                    grown.append(c)
        frontier = grown
    return len(group)


def test_automorphism_generators_generate_the_group():
    # the tied leaves and twin transpositions must generate all of Aut(P),
    # counted by brute force over every permutation, for every connected
    # class with n <= 7; without the twin transpositions K2 would read 1
    from algconn.connectivity import is_connected
    from algconn.enumeration import enumerate_graphs

    for n in range(1, 8):
        table = oracles.perm_source_table(n)
        for g in enumerate_graphs(n, is_connected):
            gens = canon.automorphism_generators(g._rows)
            for p in gens:
                assert relabel(g, p) == g, (g.to_graph6(), p)
            assert group_order(gens, n) == oracles.automorphism_count(g, table), g.to_graph6()


def test_automorphism_generators_need_canonical_labeling():
    # the path 0-1-2 is not canonical (its code puts the middle vertex
    # last), so the seeded search finds a smaller string and refuses
    g = graph_from_edges(3, [(0, 1), (1, 2)])
    assert canonical_form(g) != g.to_graph6()
    with pytest.raises(GraphError, match="canonical labeling"):
        canon.automorphism_generators(g._rows)


def test_search_tree_node_totals_pinned(monkeypatch):
    # phase (a) and phase (b) node totals, as the search that re-ran each
    # column's bits over S after every split counted them: a cheaper node
    # must walk the same tree, not only reach the same codes
    counts = {"_choose": 0, "_extend": 0}

    def counted(name):
        step = getattr(canon, name)

        def node(*args):
            counts[name] += 1
            return step(*args)

        return node

    for name in counts:
        monkeypatch.setattr(canon, name, counted(name))
    # the unfiltered builds of levels <= 7: children's canonical forms and
    # parents' automorphism generators
    monkeypatch.setattr(enumeration, "_level_cache", {})
    enumeration._connected_codes(7)
    assert counts == {"_choose": 16768, "_extend": 16565}
    counts.update(_choose=0, _extend=0)
    for d in json.loads((DATA / "canon_random_n12.json").read_text())["graphs"]:
        canonical_form(graph_from_edges(d["n"], [tuple(e) for e in d["edges"]]))
    assert counts == {"_choose": 10221, "_extend": 9906}


def test_automorphism_generators_pinned():
    # sha256 over the generators, in order, of every connected class with
    # n <= 7, as the search that re-ran each column's bits over S after
    # every split found them
    h = hashlib.sha256()
    for n in range(1, 8):
        for code in enumeration._connected_codes(n):
            gens = canon.automorphism_generators(graph_from_graph6(code)._rows)
            h.update(f"{code} {gens}\n".encode())
    assert h.hexdigest() == "420b9f28ce7a695773f3ed4e3b454be394bd9864e78f21e33a0ce1001759d7ac"


class TestIsIsomorphic:
    def test_two_theta_labelings(self):
        # both are the theta graph with path lengths (1, 2, 4)
        a = cycle(6).add_edge(1, 5)
        b = cycle(6).add_edge(2, 4)
        assert is_isomorphic(a, b)

    def test_different_edge_counts(self):
        assert not is_isomorphic(cycle(4), complete_graph(4).remove_edge(0, 1))

    def test_relabeled_cycle(self):
        rng = random.Random(3)
        perm = list(range(5))
        rng.shuffle(perm)
        assert is_isomorphic(relabel(cycle(5), perm), cycle(5))

    def test_same_degrees_not_isomorphic(self):
        # C6 vs two triangles: both 2-regular on 6 vertices
        two_triangles = graph_from_edges(6, [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5)])
        assert degree_profile(two_triangles) == degree_profile(cycle(6))
        assert not is_isomorphic(two_triangles, cycle(6))

    def test_agrees_with_oracle_on_random_pairs(self):
        rng = random.Random(41)
        for _ in range(60):
            a = random_graph(rng, 6)
            b = random_graph(rng, 6)
            assert is_isomorphic(a, b) == oracles.brute_is_isomorphic(a, b)

    def test_exhaustive_pair_agreement_n4(self):
        graphs = []
        for mask in range(1 << 6):
            pairs = [e for k, e in enumerate(itertools.combinations(range(4), 2)) if mask >> k & 1]
            graphs.append(graph_from_edges(4, pairs))
        for a in graphs[::7]:
            for b in graphs[::5]:
                assert is_isomorphic(a, b) == oracles.brute_is_isomorphic(a, b)
