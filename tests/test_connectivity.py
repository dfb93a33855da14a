"""Cut vertices, Menger flow machinery, theta recognition, Hamiltonicity."""

import itertools
import random

import networkx as nx
import pytest

import oracles
from algconn.connectivity import (
    articulation_vertices,
    hamiltonian_cycle,
    inner_disjoint_paths,
    is_biconnected,
    is_connected,
    is_hamiltonian,
    is_theta,
    local_connectivity,
    theta_length_triple,
)
from algconn.enumeration import enumerate_graphs
from algconn.errors import GraphError, OrderLimitError, VertexSetError
from algconn.graphs import Graph, complete_graph, graph_from_edges, path_graph


def cycle(n):
    return graph_from_edges(n, [(i, (i + 1) % n) for i in range(n)])


def k23():
    return graph_from_edges(5, [(0, 2), (0, 3), (0, 4), (1, 2), (1, 3), (1, 4)])


def random_graph(rng, n, p=0.5):
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < p]
    return graph_from_edges(n, pairs)


def to_nx(g):
    h = nx.Graph()
    h.add_nodes_from(range(g.n))
    h.add_edges_from(g.edges)
    return h


def assert_path_system(g, ps, k):
    assert ps.width == k
    inner_seen = set()
    for path in ps.paths:
        assert path[0] == ps.s and path[-1] == ps.t
        assert len(set(path)) == len(path)
        for a, b in zip(path, path[1:]):
            assert g.has_edge(a, b)
        inner = set(path[1:-1])
        assert not inner & inner_seen
        inner_seen |= inner


class TestConnected:
    def test_examples(self):
        assert is_connected(cycle(4))
        assert not is_connected(graph_from_edges(3, [(0, 1)]))
        assert is_connected(Graph(1, frozenset()))
        assert not is_connected(Graph(0, frozenset()))

    def test_against_reference(self):
        rng = random.Random(2)
        for _ in range(100):
            g = random_graph(rng, rng.randrange(1, 10), rng.choice([0.15, 0.3, 0.6]))
            assert is_connected(g) == nx.is_connected(to_nx(g))


class TestArticulation:
    def test_bowtie_shared_vertex(self):
        g = graph_from_edges(5, [(0, 1), (1, 2), (0, 2), (2, 3), (3, 4), (2, 4)])
        assert articulation_vertices(g) == [2]

    def test_cycle_has_none(self):
        assert articulation_vertices(cycle(6)) == []

    def test_path_middle_vertices(self):
        assert articulation_vertices(path_graph(4)) == [1, 2]

    def test_disconnected_rejected(self):
        with pytest.raises(GraphError):
            articulation_vertices(graph_from_edges(4, [(0, 1), (2, 3)]))

    def test_against_reference(self):
        rng = random.Random(13)
        checked = 0
        while checked < 60:
            g = random_graph(rng, rng.randrange(3, 10), 0.35)
            if not is_connected(g):
                continue
            assert sorted(articulation_vertices(g)) == sorted(nx.articulation_points(to_nx(g)))
            checked += 1


class TestBiconnected:
    def test_examples(self):
        assert is_biconnected(cycle(4))
        assert not is_biconnected(graph_from_edges(2, [(0, 1)]))
        assert is_biconnected(k23())

    def test_definitional_cross_check_exhaustive_n5(self):
        # every labeled graph on 5 vertices vs deleted-vertex connectivity
        masks = oracles.all_masks(5)
        ref = oracles.biconnected_mask(masks, 5)
        for mask in range(len(masks)):
            pairs = []
            k = 0
            for u in range(5):
                for v in range(u + 1, 5):
                    if mask >> k & 1:
                        pairs.append((u, v))
                    k += 1
            assert is_biconnected(graph_from_edges(5, pairs)) == bool(ref[mask])

    def test_menger_cross_check_all_classes_to_n7(self):
        # biconnected iff every pair admits two inner-disjoint paths
        for n in range(3, 8):
            for g in enumerate_graphs(n, lambda _: True):
                menger = all(
                    local_connectivity(g, u, v) >= 2
                    for u in range(n)
                    for v in range(u + 1, n)
                )
                assert is_biconnected(g) == menger, g.to_graph6()


class TestLocalConnectivity:
    def test_cycle_pairs(self):
        g = cycle(5)
        for u in range(5):
            for v in range(u + 1, 5):
                assert local_connectivity(g, u, v) == 2

    def test_k4_pairs(self):
        g = complete_graph(4)
        for u in range(4):
            for v in range(u + 1, 4):
                assert local_connectivity(g, u, v) == 3

    def test_k23_pairs(self):
        g = k23()
        assert local_connectivity(g, 0, 2) == 2  # across the bipartition
        assert local_connectivity(g, 0, 1) == 3  # the two degree-3 vertices
        assert local_connectivity(g, 2, 3) == 2

    def test_same_vertex_rejected(self):
        with pytest.raises(VertexSetError):
            local_connectivity(cycle(4), 1, 1)

    def test_bounded_by_min_degree(self):
        rng = random.Random(19)
        for _ in range(40):
            g = random_graph(rng, rng.randrange(3, 9))
            u, v = rng.sample(range(g.n), 2)
            assert local_connectivity(g, u, v) <= min(g.degree(u), g.degree(v))

    def test_against_brute_force(self):
        rng = random.Random(23)
        for _ in range(15):
            g = random_graph(rng, rng.randrange(4, 7), 0.5)
            u, v = rng.sample(range(g.n), 2)
            assert local_connectivity(g, u, v) == oracles.brute_local_connectivity(g, u, v)


class TestInnerDisjointPaths:
    def test_c5_two_arcs(self):
        ps = inner_disjoint_paths(cycle(5), 0, 2, 2)
        assert ps.paths == ((0, 1, 2), (0, 4, 3, 2))
        assert_path_system(cycle(5), ps, 2)

    def test_k23_three_middles(self):
        ps = inner_disjoint_paths(k23(), 0, 1, 3)
        assert_path_system(k23(), ps, 3)
        assert all(len(p) == 3 for p in ps.paths)
        assert {p[1] for p in ps.paths} == {2, 3, 4}

    def test_chorded_c6_lengths(self):
        g = cycle(6).add_edge(1, 4)
        ps = inner_disjoint_paths(g, 1, 4, 3)
        assert_path_system(g, ps, 3)
        assert sorted(len(p) - 1 for p in ps.paths) == [1, 3, 3]

    def test_too_many_requested(self):
        with pytest.raises(GraphError):
            inner_disjoint_paths(cycle(5), 0, 2, 3)

    def test_bad_endpoints_rejected(self):
        for s, t in ((1, 1), (-1, 2), (0, 5)):
            with pytest.raises(VertexSetError):
                inner_disjoint_paths(cycle(5), s, t)

    def test_deterministic_and_structural_random(self):
        rng = random.Random(37)
        checked = 0
        while checked < 40:
            g = random_graph(rng, rng.randrange(4, 9), 0.5)
            u, v = rng.sample(range(g.n), 2)
            k = local_connectivity(g, u, v)
            if k == 0:
                continue
            ps = inner_disjoint_paths(g, u, v)
            assert_path_system(g, ps, k)
            assert ps == inner_disjoint_paths(g, u, v)
            checked += 1


def random_ear_graph(rng, n):
    """A 2-connected graph on n vertices: a cycle, open ears through new
    vertices, then a few chords; labels shuffled."""
    c = rng.randint(3, n)
    edges = {(i, (i + 1) % c) for i in range(c)}
    nxt = c
    while nxt < n:
        k = rng.randint(1, n - nxt)
        a, b = rng.sample(range(nxt), 2)
        path = [a, *range(nxt, nxt + k), b]
        edges |= set(zip(path, path[1:]))
        nxt += k
    for _ in range(rng.randint(0, n // 2)):
        u, v = rng.sample(range(n), 2)
        if (v, u) not in edges:
            edges.add((u, v))
    perm = list(range(n))
    rng.shuffle(perm)
    return graph_from_edges(n, {tuple(sorted((perm[u], perm[v]))) for u, v in edges})


def assert_matches_dense_oracle(g, s, t):
    ps = inner_disjoint_paths(g, s, t)
    assert ps == oracles.dense_inner_disjoint_paths(g, s, t), (g.to_graph6(), s, t)
    assert local_connectivity(g, s, t) == ps.width
    if ps.width > 2:  # rewiring asks for two paths of a wider system
        assert inner_disjoint_paths(g, s, t, 2) == oracles.dense_inner_disjoint_paths(g, s, t, 2)


class TestDenseFlowOracle:
    """The adjacency-list flow returns exactly the dense-matrix path systems."""

    def test_every_ordered_pair_of_connected_classes_to_n6(self):
        for n in range(2, 7):
            for g in enumerate_graphs(n, lambda _: True):
                for s, t in itertools.permutations(range(n), 2):
                    assert_matches_dense_oracle(g, s, t)

    def test_random_ear_decompositions_n13_to_40(self):
        rng = random.Random(41)
        for _ in range(60):
            g = random_ear_graph(rng, rng.randint(13, 40))
            assert is_biconnected(g)
            for _ in range(3):
                s, t = rng.sample(range(g.n), 2)
                assert_matches_dense_oracle(g, s, t)

    @pytest.mark.slow
    def test_every_ordered_pair_of_connected_classes_n7(self):
        for g in enumerate_graphs(7, lambda _: True):
            for s, t in itertools.permutations(range(7), 2):
                assert_matches_dense_oracle(g, s, t)


class TestTheta:
    def test_examples(self):
        assert is_theta(k23())
        assert not is_theta(cycle(6))
        assert is_theta(cycle(5).add_edge(1, 4))

    def test_triple_of_k23(self):
        assert theta_length_triple(k23()) == (2, 2, 2)

    def test_triple_of_chorded_c6(self):
        assert theta_length_triple(cycle(6).add_edge(1, 4)) == (1, 3, 3)

    def test_not_theta_rejected(self):
        with pytest.raises(GraphError):
            theta_length_triple(cycle(6))

    def test_definitional_cross_check_all_classes_to_n7(self):
        # definitional form: exactly two degree-3 vertices, rest degree 2,
        # and three inner-disjoint paths between the degree-3 pair
        for n in range(4, 8):
            for g in enumerate_graphs(n, lambda _: True):
                branch = [v for v in range(n) if g.degree(v) == 3]
                definitional = (
                    sorted(g.degrees()) == [2] * (n - 2) + [3, 3]
                    and local_connectivity(g, branch[0], branch[1]) >= 3
                    if len(branch) == 2
                    else False
                )
                assert is_theta(g) == definitional, g.to_graph6()


class TestHamiltonian:
    def test_cycle_returns_itself(self):
        assert hamiltonian_cycle(cycle(7)) == tuple(range(7))

    def test_k23_absent(self):
        assert hamiltonian_cycle(k23()) is None

    def test_diamond_has_4_cycle(self):
        g = cycle(4).add_edge(1, 3)
        cyc = hamiltonian_cycle(g)
        assert cyc is not None and len(cyc) == 4 and cyc[0] == 0
        for a, b in zip(cyc, cyc[1:] + cyc[:1]):
            assert g.has_edge(a, b)

    def test_petersen_not_hamiltonian(self):
        g = graph_from_edges(10, list(nx.petersen_graph().edges()))
        assert not is_hamiltonian(g)

    def test_order_cap(self):
        with pytest.raises(OrderLimitError):
            hamiltonian_cycle(cycle(13))

    def test_small_graphs_never_hamiltonian(self):
        assert hamiltonian_cycle(complete_graph(2)) is None

    def test_agrees_with_brute_force_all_classes_n6(self):
        for g in enumerate_graphs(6, lambda _: True):
            assert is_hamiltonian(g) == _brute_hamiltonian(g), g.to_graph6()


def _brute_hamiltonian(g):
    if g.n < 3:
        return False
    for perm in itertools.permutations(range(1, g.n)):
        seq = (0,) + perm
        if all(g.has_edge(seq[i], seq[(i + 1) % g.n]) for i in range(g.n)):
            return True
    return False
