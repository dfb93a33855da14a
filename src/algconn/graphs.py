"""Immutable simple graphs on vertex set {0, .., n-1}.

Adjacency is stored both as a frozenset of sorted edge pairs (hashable,
order-free) and as int bitmask rows for fast neighborhood tests. Every
construction from pairs checks each edge once; a pair that is already
normalized (two ints, u < v < n) costs one chained comparison, and any
other pair goes through the full check. Rows that are valid by
construction (a graph6 decode, a level child) become a Graph through
_graph_from_rows, which checks nothing and builds the edge set on first
use. Two text forms are supported: graph6 (the compact ASCII format,
n <= 62 here) and a human-readable edge list ``"n; u-v, u-v, .."``.
graph6 text has one packer, graph6_from_int: the upper-triangle bit
string is one int, and base64 cuts it into the 6-bit groups, its
alphabet mapped onto graph6's by one translation table. That int comes
from adjacency rows in one place, _graph6_from_rows, which
graph_to_graph6 calls. The decoder, _rows_from_graph6, runs the same
table backwards.
"""

from __future__ import annotations

import base64
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .errors import (
    EdgeExistsError,
    EdgeMissingError,
    Graph6Error,
    GraphError,
    VertexSetError,
    as_index,
)

GRAPH6_HEADER = ">>graph6<<"


def _normalize_edge(u: int, v: int, n: int) -> tuple[int, int]:
    if not (isinstance(u, (int, np.integer)) and isinstance(v, (int, np.integer))):
        raise VertexSetError(f"vertex labels must be integers, got {u!r}, {v!r}")
    u, v = int(u), int(v)
    if u == v:
        raise VertexSetError(f"loop at vertex {u} is not allowed")
    if not (0 <= u < n and 0 <= v < n):
        raise VertexSetError(f"edge ({u}, {v}) outside vertex range 0..{n - 1}")
    return (u, v) if u < v else (v, u)


@dataclass(frozen=True)
class Graph:
    """Simple undirected graph; vertices are 0..n-1, edges a frozenset.

    edges may be given as any iterable of (u, v) pairs: each is checked
    once and stored as (min, max), and a repeated pair is an EdgeExistsError.
    """

    n: int
    edges: frozenset[tuple[int, int]]
    _rows: tuple[int, ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        n = as_index(self.n, VertexSetError, "vertex count")
        if n < 0:
            raise VertexSetError(f"vertex count must be nonnegative, got {n}")
        object.__setattr__(self, "n", n)
        rows = [0] * n
        pairs = []
        for u, v in self.edges:
            if not (type(u) is int and type(v) is int and 0 <= u < v < n):
                u, v = _normalize_edge(u, v, n)
            if rows[u] >> v & 1:
                raise EdgeExistsError(f"duplicate edge {(u, v)} in input")
            rows[u] |= 1 << v
            rows[v] |= 1 << u
            pairs.append((u, v))
        object.__setattr__(self, "edges", frozenset(pairs))
        object.__setattr__(self, "_rows", tuple(rows))

    def __getattr__(self, name):
        # only a graph built by _graph_from_rows lacks an edge set, and it
        # builds it from its rows on first use
        if name != "edges" or "_rows" not in self.__dict__:
            raise AttributeError(name)
        edges = frozenset(_edge_pairs(self._rows))
        object.__setattr__(self, "edges", edges)
        return edges

    @property
    def m(self) -> int:
        return len(self.edges)

    def has_edge(self, u: int, v: int) -> bool:
        u, v = _normalize_edge(u, v, self.n)
        return bool(self._rows[u] >> v & 1)

    def _row(self, v: int) -> int:
        if not (isinstance(v, (int, np.integer)) and 0 <= v < self.n):
            raise VertexSetError(f"vertex {v!r} is not an integer in 0..{self.n - 1}")
        return self._rows[v]

    def neighbors(self, v: int) -> list[int]:
        row = self._row(v)
        out = []
        while row:
            low = row & -row
            out.append(low.bit_length() - 1)
            row ^= low
        return out

    def degree(self, v: int) -> int:
        return self._row(v).bit_count()

    def degrees(self) -> list[int]:
        return [int(r).bit_count() for r in self._rows]

    @cached_property
    def edge_list(self) -> tuple[tuple[int, int], ...]:
        """Edges sorted lexicographically; the deterministic iteration order."""
        return tuple(sorted(self.edges))

    def add_edge(self, u: int, v: int) -> "Graph":
        u, v = _normalize_edge(u, v, self.n)
        if self.has_edge(u, v):
            raise EdgeExistsError(f"edge ({u}, {v}) already present")
        return Graph(self.n, self.edges | {(u, v)})

    def remove_edge(self, u: int, v: int) -> "Graph":
        u, v = _normalize_edge(u, v, self.n)
        if not self.has_edge(u, v):
            raise EdgeMissingError(f"edge ({u}, {v}) not present")
        return Graph(self.n, self.edges - {(u, v)})

    def adjacency_matrix(self) -> np.ndarray:
        return _adjacency(self._rows, self.n).astype(np.int64)

    def laplacian(self) -> np.ndarray:
        """Degree-minus-adjacency matrix, exact int64 entries."""
        lap = -self.adjacency_matrix()
        np.fill_diagonal(lap, self.degrees())
        return lap

    def to_graph6(self) -> str:
        return graph_to_graph6(self)

    def to_edge_text(self) -> str:
        return graph_to_edge_text(self)

    def __str__(self) -> str:
        return self.to_edge_text()


def _graph_from_rows(rows) -> Graph:
    """The Graph of adjacency rows known to be valid (each edge in both of
    its rows, no loops), without the per-pair checks; its edge set is
    built on first use."""
    g = object.__new__(Graph)
    object.__setattr__(g, "n", len(rows))
    object.__setattr__(g, "_rows", tuple(rows))
    return g


def _edge_pairs(rows) -> list[tuple[int, int]]:
    """The edges of adjacency rows as (u, v) pairs, u < v, sorted."""
    pairs = []
    for u, row in enumerate(rows):
        above = row >> u + 1
        while above:
            low = above & -above
            pairs.append((u, u + low.bit_length()))
            above ^= low
    return pairs


def _adjacency(rows, n: int) -> np.ndarray:
    """The 0/1 matrix with one row per adjacency row and n columns, as
    uint8: a graph's adjacency matrix, or a batch of them stacked."""
    width = (n + 7) >> 3
    packed = np.frombuffer(b"".join([r.to_bytes(width, "little") for r in rows]), np.uint8)
    return np.unpackbits(packed.reshape(len(rows), width), axis=1, count=n, bitorder="little")


def graph_from_edges(n: int, pairs) -> Graph:
    """Build a graph from any iterable of (u, v) pairs; rejects duplicates."""
    return Graph(n, pairs)


def add_graph(g: Graph, k: Graph) -> Graph:
    """Edge-set union of g and k on g's vertex set.

    k's vertices must sit inside g's (labels are shared), and k must
    contribute at least one new edge, mirroring the add_edge precondition.
    """
    if k.n > g.n:
        raise VertexSetError(
            f"vertex set mismatch: the added graph has {k.n} vertices, the base {g.n}"
        )
    if not k.edges - g.edges:
        raise EdgeExistsError("every edge of the added graph is already present")
    return Graph(g.n, g.edges | k.edges)


def empty_graph(n: int) -> Graph:
    return Graph(n, frozenset())


def complete_graph(n: int) -> Graph:
    return graph_from_edges(n, [(u, v) for u in range(n) for v in range(u + 1, n)])


def path_graph(n: int) -> Graph:
    return graph_from_edges(n, [(i, i + 1) for i in range(n - 1)])


# ---------------------------------------------------------------------------
# graph6 codec (ASCII range 63..126, 6 bits per character)
# ---------------------------------------------------------------------------


# base64 and graph6 both cut a big-endian bit string into 6-bit groups;
# base64 spells group value i as _B64[i], graph6 as chr(63 + i)
_B64 = b"ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz0123456789+/"
_GRAPH6_CHARS = bytes(range(63, 127))
_B64_TO_GRAPH6 = bytes.maketrans(_B64, _GRAPH6_CHARS)
_GRAPH6_TO_B64 = bytes.maketrans(_GRAPH6_CHARS, _B64)
# byte i with its 8 bits in reverse order
_BIT_REVERSED = bytes(int(f"{i:08b}"[::-1], 2) for i in range(256))


def graph6_from_int(n: int, bits: int) -> str:
    """graph6 text of order n from its upper-triangle bit string read as an
    int, first bit most significant. graph6 order: for v = 1..n-1, the bits
    of pairs (0,v), .., (v-1,v)."""
    if n > 62:
        raise Graph6Error(f"graph6 support here stops at n = 62, got n = {n}")
    nbits = n * (n - 1) // 2
    groups = (nbits + 5) // 6
    # pad to whole 24-bit base64 quanta, so no '=' is emitted, then cut
    quanta = (groups + 3) // 4
    body = bits << (24 * quanta - nbits)
    text = base64.b64encode(body.to_bytes(3 * quanta, "big"))[:groups]
    return (bytes([n + 63]) + text.translate(_B64_TO_GRAPH6)).decode("ascii")


def graph_to_graph6(g: Graph) -> str:
    """Encode in graph6: size byte, then the column-major upper triangle."""
    return _graph6_from_rows(g._rows)


def _graph6_from_rows(rows) -> str:
    """graph6 text of adjacency rows. Pair (u, v), u < v, is bit u of row
    v and bit v(v-1)/2 + u of the graph6 bit string, counted from its
    first bit. So the low triangle, packed row by row from the low end,
    is that string backwards, and its little-endian bytes, each
    bit-reversed, read big-endian are the string forwards (plus the
    byte's padding bits at the low end)."""
    n = len(rows)
    packed = 0
    for v, row in enumerate(rows):
        packed |= (row & (1 << v) - 1) << v * (v - 1) // 2
    nbits = n * (n - 1) // 2
    size = (nbits + 7) >> 3
    forwards = packed.to_bytes(size, "little").translate(_BIT_REVERSED)
    return graph6_from_int(n, int.from_bytes(forwards, "big") >> 8 * size - nbits)


def graph_from_graph6(text: str) -> Graph:
    """Decode a graph6 string; validates length, charset, and zero padding."""
    return _graph_from_rows(_rows_from_graph6(text))


def _rows_from_graph6(text: str) -> tuple[int, ...]:
    """The adjacency rows of a graph6 string, validated as graph_from_graph6
    says. base64 joins the 6-bit groups into one upper-triangle bit string,
    graph6's alphabet mapped back onto its own, as graph6_from_int packs it."""
    s = text.strip()
    if s.startswith(GRAPH6_HEADER):
        s = s[len(GRAPH6_HEADER):]
    if not s:
        raise Graph6Error("empty graph6 string")
    try:
        data = s.encode("ascii")
    except UnicodeEncodeError:
        raise Graph6Error(f"non-ASCII character in graph6 string {text!r}") from None
    bad = data.translate(None, _GRAPH6_CHARS)
    if bad:
        raise Graph6Error(f"character {chr(bad[0])!r} outside graph6 range in {text!r}")
    n = data[0] - 63
    if n == 63:
        raise Graph6Error("multi-byte graph6 sizes (n > 62) are not supported here")
    body = data[1:]
    nbits = n * (n - 1) // 2
    want = (nbits + 5) // 6
    if len(body) != want:
        raise Graph6Error(
            f"graph6 body for n = {n} needs {want} characters, got {len(body)}"
        )
    rows = [0] * n
    if not want:
        return tuple(rows)
    # zero groups fill the last 24-bit base64 quantum
    quanta = (want + 3) // 4
    text64 = body.translate(_GRAPH6_TO_B64) + b"A" * (4 * quanta - want)
    bits = int.from_bytes(base64.b64decode(text64), "big") >> 24 * quanta - 6 * want
    pad = 6 * want - nbits
    if bits & (1 << pad) - 1:
        raise Graph6Error(f"nonzero padding bits in graph6 string {text!r}")
    bits >>= pad
    # the string's last column is its lowest bits; bit u of column v's
    # v bits, counted from the top, is the pair (u, v)
    for v in range(n - 1, 0, -1):
        col = bits & (1 << v) - 1
        bits >>= v
        while col:
            low = col & -col
            u = v - low.bit_length()
            rows[u] |= 1 << v
            rows[v] |= 1 << u
            col ^= low
    return tuple(rows)


# ---------------------------------------------------------------------------
# edge-list text form: "n; u-v, u-v, .."  (empty edge part allowed)
# ---------------------------------------------------------------------------


def graph_to_edge_text(g: Graph) -> str:
    body = ", ".join(f"{u}-{v}" for u, v in g.edge_list)
    return f"{g.n}; {body}" if body else f"{g.n};"


def graph_from_edge_text(text: str) -> Graph:
    head, sep, tail = text.partition(";")
    if not sep:
        raise GraphError(f"edge-list text needs a ';' after the vertex count: {text!r}")
    try:
        n = int(head.strip())
    except ValueError:
        raise GraphError(f"bad vertex count {head.strip()!r} in {text!r}") from None
    pairs = []
    for chunk in tail.split(","):
        chunk = chunk.strip()
        if not chunk:
            continue
        u, sep2, v = chunk.partition("-")
        if not sep2:
            raise GraphError(f"bad edge token {chunk!r} in {text!r}")
        try:
            pairs.append((int(u.strip()), int(v.strip())))
        except ValueError:
            raise GraphError(f"bad edge token {chunk!r} in {text!r}") from None
    return graph_from_edges(n, pairs)


def parse_graph_text(text: str) -> Graph:
    """Accept either text form: edge lists contain ';', graph6 never does."""
    if ";" in text:
        return graph_from_edge_text(text)
    return graph_from_graph6(text)
