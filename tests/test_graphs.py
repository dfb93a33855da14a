"""Graph value type, Laplacian assembly, and the two text codecs."""

import dataclasses
import random

import networkx as nx
import numpy as np
import pytest

import oracles
from algconn.enumeration import _connected_codes, enumerate_graphs
from algconn.errors import (
    EdgeExistsError,
    EdgeMissingError,
    Graph6Error,
    GraphError,
    VertexSetError,
)
from algconn.graphs import (
    Graph,
    _graph_from_rows,
    _rows_from_graph6,
    add_graph,
    complete_graph,
    empty_graph,
    graph_from_edge_text,
    graph_from_edges,
    graph_from_graph6,
    graph_to_graph6,
    parse_graph_text,
    path_graph,
)


def cycle(n):
    return graph_from_edges(n, [(i, (i + 1) % n) for i in range(n)])


def graph_direct(n, pairs):
    return Graph(n, frozenset(pairs))


# every way to build a Graph from pairs goes through one edge check
CONSTRUCTORS = (graph_from_edges, graph_direct)


def random_graph(rng, n, p=0.5):
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < p]
    return graph_from_edges(n, pairs)


class TestGraphBasics:
    def test_triangle_from_edges(self):
        g = graph_from_edges(3, [(0, 1), (1, 2), (2, 0)])
        assert g.m == 3
        assert g.degrees() == [2, 2, 2]
        assert g.has_edge(2, 0) and g.has_edge(0, 2)

    def test_c5_from_edges(self):
        g = cycle(5)
        assert g.n == 5 and g.m == 5
        assert all(g.degree(v) == 2 for v in range(5))
        assert g.neighbors(0) == [1, 4]

    def test_empty_edge_set(self):
        g = graph_from_edges(2, [])
        assert g.m == 0 and g.n == 2

    def test_vertex_count_by_operator_index(self):
        g = Graph(np.int64(3), [])
        assert g == empty_graph(3) and type(g.n) is int
        for n in (3.0, "3", None, -1):
            with pytest.raises(VertexSetError):
                Graph(n, [])

    def test_rejects_loop(self):
        for build in CONSTRUCTORS:
            with pytest.raises(VertexSetError):
                build(3, [(1, 1)])

    def test_rejects_out_of_range(self):
        for build in CONSTRUCTORS:
            for pair in ((0, 3), (-1, 2)):
                with pytest.raises(VertexSetError):
                    build(3, [pair])

    def test_rejects_non_int_label(self):
        for build in CONSTRUCTORS:
            for pair in ((0, 1.0), ("0", 1), (None, 2)):
                with pytest.raises(VertexSetError):
                    build(3, [pair])

    @pytest.mark.parametrize("v", [0.0, 1.5, "1", None, -1, 4])
    def test_vertex_queries_reject_non_vertices(self, v):
        g = complete_graph(4)
        with pytest.raises(VertexSetError, match="not an integer in 0..3"):
            g.neighbors(v)
        with pytest.raises(VertexSetError, match="not an integer in 0..3"):
            g.degree(v)

    def test_vertex_queries_accept_numpy_integers(self):
        g = cycle(5)
        assert g.neighbors(np.int64(2)) == [1, 3]
        assert g.degree(np.int64(2)) == 2

    def test_rejects_duplicate_edge(self):
        for build in CONSTRUCTORS:
            with pytest.raises(EdgeExistsError):
                build(3, [(0, 1), (1, 0)])
        with pytest.raises(EdgeExistsError):
            graph_from_edges(3, [(0, 1), (0, 1)])

    def test_direct_construction_sorts_pairs(self):
        g = Graph(3, frozenset({(2, 0), (1, 2)}))
        assert g.edges == frozenset({(0, 2), (1, 2)})
        assert g == graph_from_edges(3, [(0, 2), (1, 2)])

    def test_edge_list_sorted(self):
        g = graph_from_edges(4, [(2, 3), (0, 1), (1, 3)])
        assert g.edge_list == ((0, 1), (1, 3), (2, 3))

    def test_value_semantics(self):
        g = cycle(4)
        h = g.add_edge(0, 2)
        assert not g.has_edge(0, 2)
        assert h.has_edge(0, 2)
        assert h.m == g.m + 1

    def test_add_existing_edge_errors(self):
        with pytest.raises(EdgeExistsError):
            cycle(4).add_edge(0, 1)

    def test_remove_missing_edge_errors(self):
        with pytest.raises(EdgeMissingError):
            cycle(4).remove_edge(0, 2)

    def test_add_then_remove_is_identity(self):
        g = cycle(5)
        assert g.add_edge(1, 4).remove_edge(1, 4) == g

    def test_add_graph_diagonals_give_k4(self):
        k = graph_from_edges(4, [(0, 2), (1, 3)])
        assert add_graph(cycle(4), k) == complete_graph(4)

    def test_add_graph_vertex_set_mismatch(self):
        with pytest.raises(VertexSetError):
            add_graph(cycle(4), cycle(5))

    def test_add_graph_nothing_new(self):
        with pytest.raises(EdgeExistsError):
            add_graph(complete_graph(4), cycle(4))

    def test_equality_and_hashing(self):
        a = graph_from_edges(3, [(0, 1)])
        b = graph_from_edges(3, [(0, 1)])
        assert a == b and hash(a) == hash(b)
        assert a != graph_from_edges(3, [(0, 2)])

    def test_rows_are_the_only_stored_form(self):
        assert [f.name for f in dataclasses.fields(Graph)] == ["n", "_rows"]
        g = Graph(3, [(0, 1)])
        assert "edges" not in vars(g)
        assert g.edges == {(0, 1)} and "edges" in vars(g)
        assert repr(g) == "Graph(n=3, edges=frozenset({(0, 1)}))"

    def test_pairs_and_rows_equal_before_any_edge_set(self):
        a = Graph(5, [(4, 0), (0, 1), (2, 1), (3, 2), (3, 4)])
        b = _graph_from_rows(cycle(5)._rows)
        assert a == b and hash(a) == hash(b)
        assert "edges" not in vars(a) and "edges" not in vars(b)
        assert a.edge_list == b.edge_list == ((0, 1), (0, 4), (1, 2), (2, 3), (3, 4))
        assert a.m == b.m == 5


class TestLaplacian:
    def test_k3(self):
        lap = complete_graph(3).laplacian()
        assert np.array_equal(lap, np.array([[2, -1, -1], [-1, 2, -1], [-1, -1, 2]]))

    def test_single_edge(self):
        lap = graph_from_edges(2, [(0, 1)]).laplacian()
        assert np.array_equal(lap, np.array([[1, -1], [-1, 1]]))

    def test_c4_rows(self):
        lap = cycle(4).laplacian()
        assert np.array_equal(np.diag(lap), np.full(4, 2))
        assert np.array_equal(lap.sum(axis=1), np.zeros(4, dtype=np.int64))

    def test_row_sums_exactly_zero_int(self):
        rng = random.Random(7)
        for _ in range(20):
            lap = random_graph(rng, rng.randrange(2, 10)).laplacian()
            assert lap.dtype == np.int64
            assert np.array_equal(lap.sum(axis=1), np.zeros(lap.shape[0], dtype=np.int64))

    def test_quadratic_form_identity(self):
        # x^T L x == sum over edges of (x_u - x_v)^2, 1e-12 relative
        rng = random.Random(11)
        npr = np.random.default_rng(11)
        for _ in range(50):
            g = random_graph(rng, rng.randrange(2, 12))
            x = npr.standard_normal(g.n)
            quad = float(x @ g.laplacian() @ x)
            direct = sum((x[u] - x[v]) ** 2 for u, v in g.edges)
            assert abs(quad - direct) <= 1e-12 * max(1.0, abs(direct))


class TestGraph6:
    def test_c5_frozen_encoding(self):
        assert graph_to_graph6(cycle(5)) == "Dhc"

    def test_matches_reference_encoder(self):
        rng = random.Random(23)
        for _ in range(60):
            g = random_graph(rng, rng.randrange(1, 15))
            h = nx.Graph()
            h.add_nodes_from(range(g.n))
            h.add_edges_from(g.edges)
            ref = nx.to_graph6_bytes(h, header=False).decode().strip()
            assert graph_to_graph6(g) == ref

    def test_roundtrip_k3(self):
        g = complete_graph(3)
        assert graph_from_graph6(graph_to_graph6(g)) == g

    def test_roundtrip_random(self):
        rng = random.Random(31)
        for _ in range(80):
            g = random_graph(rng, rng.randrange(0, 20))
            assert graph_from_graph6(graph_to_graph6(g)) == g

    def test_header_accepted(self):
        assert graph_from_graph6(">>graph6<<Dhc") == cycle(5)

    def test_decodes_reference_output(self):
        h = nx.petersen_graph()
        ref = nx.to_graph6_bytes(h, header=False).decode().strip()
        g = graph_from_graph6(ref)
        assert g.n == 10 and g.m == 15
        assert sorted(map(tuple, map(sorted, h.edges()))) == list(g.edge_list)

    def test_empty_string(self):
        with pytest.raises(Graph6Error):
            graph_from_graph6("")

    def test_charset_violation(self):
        with pytest.raises(Graph6Error):
            graph_from_graph6("D c")  # space is below the graph6 range

    def test_non_ascii(self):
        with pytest.raises(Graph6Error):
            graph_from_graph6("Déc")

    def test_truncated_body(self):
        with pytest.raises(Graph6Error):
            graph_from_graph6("Dh")

    def test_overlong_body(self):
        with pytest.raises(Graph6Error):
            graph_from_graph6("Dhcc")

    def test_nonzero_padding_rejected(self):
        # n=3 uses 3 bits of one byte; force the lowest padding bit of the
        # 6-bit value on (the offset-63 encoding makes this +1 on the char)
        good = graph_to_graph6(complete_graph(3))
        value = ord(good[1]) - 63
        assert value & 1 == 0  # padding currently zero
        bad = good[0] + chr((value | 1) + 63)
        with pytest.raises(Graph6Error):
            graph_from_graph6(bad)

    def test_large_order_rejected(self):
        with pytest.raises(Graph6Error):
            graph_from_graph6("~??")  # 126 - 63 = 63 marks the long form

    def test_roundtrip_all_enumerated_n6(self):
        for g in enumerate_graphs(6, lambda _: True):
            assert graph_from_graph6(graph_to_graph6(g)) == g


# (n, pairs, the stored edges, or the error type and message); bools,
# numpy integers and reversed pairs take the full check, not the fast path
EDGE_CHECK_CASES = {
    "bool label": (3, [(True, 2)], {(1, 2)}),
    "bool pair": (3, [(False, True)], {(0, 1)}),
    "bool loop": (3, [(True, 1)], (VertexSetError, "loop at vertex 1 is not allowed")),
    "np.int64 labels": (3, [(np.int64(2), np.int64(0))], {(0, 2)}),
    "np.int64 and int": (3, [(np.int64(0), 1), (1, np.int32(2))], {(0, 1), (1, 2)}),
    "reversed pairs": (4, [(3, 1), (2, 0), (0, 1)], {(1, 3), (0, 2), (0, 1)}),
    "loop": (3, [(1, 1)], (VertexSetError, "loop at vertex 1 is not allowed")),
    "negative": (3, [(-1, 2)], (VertexSetError, "edge (-1, 2) outside vertex range 0..2")),
    "negative reversed": (3, [(2, -1)], (VertexSetError, "edge (2, -1) outside vertex range 0..2")),
    "label n": (3, [(0, 3)], (VertexSetError, "edge (0, 3) outside vertex range 0..2")),
    "label above n reversed": (3, [(4, 0)], (VertexSetError, "edge (4, 0) outside vertex range 0..2")),
    "no vertices": (0, [(0, 1)], (VertexSetError, "edge (0, 1) outside vertex range 0..-1")),
    "float label": (3, [(0.0, 1)], (VertexSetError, "vertex labels must be integers, got 0.0, 1")),
    "float second label": (3, [(0, 2.0)], (VertexSetError, "vertex labels must be integers, got 0, 2.0")),
    "duplicate, second reversed": (3, [(0, 1), (1, 0)], (EdgeExistsError, "duplicate edge (0, 1) in input")),
    "duplicate, first reversed": (3, [(2, 1), (1, 2)], (EdgeExistsError, "duplicate edge (1, 2) in input")),
}


@pytest.mark.parametrize("n, pairs, want", EDGE_CHECK_CASES.values(), ids=EDGE_CHECK_CASES)
def test_edge_check_table(n, pairs, want):
    if isinstance(want, tuple):
        error, message = want
        with pytest.raises(error) as info:
            Graph(n, pairs)
        assert type(info.value) is error and str(info.value) == message
        return
    g = Graph(n, pairs)
    assert g.edges == frozenset(want)
    assert all(type(u) is int and type(v) is int for u, v in g.edges)
    rows = [0] * n
    for u, v in want:
        rows[u] |= 1 << v
        rows[v] |= 1 << u
    assert g._rows == tuple(rows)


class TestGraph6Packer:
    """graph_to_graph6 packs one int and groups it through base64; the
    per-bit encoder in oracles is the reference."""

    def test_every_labelled_graph_up_to_5(self):
        for n in range(6):
            pairs = [(u, v) for v in range(1, n) for u in range(v)]
            for mask in range(1 << len(pairs)):
                g = Graph(n, [p for i, p in enumerate(pairs) if mask >> i & 1])
                assert graph_to_graph6(g) == oracles.per_bit_graph6(g)

    def test_connected_classes_relabelled(self):
        rng = random.Random(7)
        for n in range(1, 8):
            for g in enumerate_graphs(n, lambda _: True):
                for _ in range(3):
                    perm = list(range(n))
                    rng.shuffle(perm)
                    h = Graph(n, [(perm[u], perm[v]) for u, v in g.edges])
                    assert graph_to_graph6(h) == oracles.per_bit_graph6(h)

    def test_random_graphs_every_order(self):
        # orders 0..62 reach all 16 pairs of (6-bit groups mod 4, padding
        # bits): every way the last base64 quantum and graph6 byte are cut
        rng = random.Random(62)
        for n in range(63):
            for _ in range(3):
                g = random_graph(rng, n, rng.random())
                text = graph_to_graph6(g)
                assert text == oracles.per_bit_graph6(g)
                assert graph_from_graph6(text) == g

    def test_order_63_rejected(self):
        for g in (empty_graph(63), path_graph(63)):
            with pytest.raises(Graph6Error, match="stops at n = 62"):
                graph_to_graph6(g)


def padded(n, bit):
    """graph6 text of the empty graph of order n with padding bit `bit`
    (0 = the lowest) of the last character set."""
    text = graph_to_graph6(empty_graph(n))
    return text[:-1] + chr(ord(text[-1]) + (1 << bit))


# each is refused with Graph6Error, by both decoders
MALFORMED_GRAPH6 = {
    "empty": "",
    "header only": ">>graph6<<",
    "non-ASCII": "Déc",
    "below range": "D c",
    "above range": "D\x7fc",
    "order 63 marker": "~??",
    "short body": "Dh",
    "long body": "Dhcc",
    "padding n=3 bit 0": padded(3, 0),
    "padding n=3 bit 2": padded(3, 2),
    "padding n=5 bit 1": padded(5, 1),
    "padding n=8 bit 1": padded(8, 1),
    "padding n=62 bit 0": padded(62, 0),
}


class TestGraph6RowsDecoder:
    """_rows_from_graph6 undoes the packer through base64; the per-bit
    decoder in oracles is the reference."""

    def test_connected_classes_up_to_8(self):
        for n in range(1, 9):
            for code in _connected_codes(n):
                want = oracles.per_bit_graph6_rows(code)
                assert _rows_from_graph6(code) == want
                assert graph_from_graph6(code)._rows == want

    def test_random_graphs_every_order(self):
        rng = random.Random(63)
        for n in range(63):
            for _ in range(3):
                g = random_graph(rng, n, rng.random())
                text = graph_to_graph6(g)
                assert _rows_from_graph6(text) == oracles.per_bit_graph6_rows(text) == g._rows

    def test_header_and_whitespace_accepted(self):
        assert _rows_from_graph6(" >>graph6<<Dhc\n") == cycle(5)._rows

    @pytest.mark.parametrize("text", MALFORMED_GRAPH6.values(), ids=MALFORMED_GRAPH6)
    def test_malformed_rejected(self, text):
        for decode in (_rows_from_graph6, graph_from_graph6):
            with pytest.raises(Graph6Error) as info:
                decode(text)
            assert type(info.value) is Graph6Error

    def test_graph_from_rows_builds_edges_on_first_use(self):
        g = graph_from_graph6("Dhc")
        assert "edges" not in vars(g)
        assert g == cycle(5) and hash(g) == hash(cycle(5))
        assert g.edges == cycle(5).edges and "edges" in vars(g)


class TestEdgeText:
    def test_roundtrip(self):
        g = graph_from_edges(4, [(0, 1), (1, 2), (0, 3)])
        assert graph_from_edge_text(g.to_edge_text()) == g

    def test_empty_graph_text(self):
        g = empty_graph(3)
        assert g.to_edge_text() == "3;"
        assert graph_from_edge_text("3;") == g

    def test_parse_whitespace_tolerant(self):
        assert graph_from_edge_text(" 4 ; 0-1 ,2-3 ") == graph_from_edges(4, [(0, 1), (2, 3)])

    def test_missing_semicolon(self):
        with pytest.raises(GraphError):
            graph_from_edge_text("4 0-1")

    def test_bad_vertex_count(self):
        with pytest.raises(GraphError):
            graph_from_edge_text("x; 0-1")

    def test_bad_edge_token(self):
        with pytest.raises(GraphError):
            graph_from_edge_text("4; 0+1")

    def test_dispatch_both_forms(self):
        assert parse_graph_text("Dhc") == cycle(5)
        assert parse_graph_text("5; 0-1, 1-2, 2-3, 3-4, 0-4") == cycle(5)


def test_path_graph_shape():
    g = path_graph(4)
    assert g.edge_list == ((0, 1), (1, 2), (2, 3))
