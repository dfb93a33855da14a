"""Immutable simple graphs on vertex set {0, .., n-1}.

Adjacency is stored both as a frozenset of sorted edge pairs (hashable,
order-free) and as int bitmask rows for fast neighborhood tests. Two text
forms are supported: graph6 (the compact ASCII format, n <= 62 here) and a
human-readable edge list ``"n; u-v, u-v, .."``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .errors import (
    EdgeExistsError,
    EdgeMissingError,
    Graph6Error,
    GraphError,
    VertexSetError,
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
    """Simple undirected graph; vertices are 0..n-1, edges a frozenset."""

    n: int
    edges: frozenset[tuple[int, int]]
    _rows: tuple[int, ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if not isinstance(self.n, int) or self.n < 0:
            raise VertexSetError(f"vertex count must be a nonnegative int, got {self.n!r}")
        rows = [0] * self.n
        for e in self.edges:
            u, v = _normalize_edge(e[0], e[1], self.n)
            if (u, v) != tuple(e):
                raise VertexSetError(f"edge {e!r} is not in sorted (u, v) form")
            rows[u] |= 1 << v
            rows[v] |= 1 << u
        object.__setattr__(self, "_rows", tuple(rows))

    @property
    def m(self) -> int:
        return len(self.edges)

    def has_edge(self, u: int, v: int) -> bool:
        u, v = _normalize_edge(u, v, self.n)
        return bool(self._rows[u] >> v & 1)

    def neighbors(self, v: int) -> list[int]:
        if not 0 <= v < self.n:
            raise VertexSetError(f"vertex {v} outside range 0..{self.n - 1}")
        row = self._rows[v]
        out = []
        while row:
            low = row & -row
            out.append(low.bit_length() - 1)
            row ^= low
        return out

    def degree(self, v: int) -> int:
        if not 0 <= v < self.n:
            raise VertexSetError(f"vertex {v} outside range 0..{self.n - 1}")
        return int(self._rows[v]).bit_count()

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

    def add_edges(self, pairs) -> "Graph":
        g = self
        for u, v in pairs:
            g = g.add_edge(u, v)
        return g

    def adjacency_matrix(self) -> np.ndarray:
        a = np.zeros((self.n, self.n), dtype=np.int64)
        for u, v in self.edges:
            a[u, v] = 1
            a[v, u] = 1
        return a

    def laplacian(self) -> np.ndarray:
        """Degree-minus-adjacency matrix, exact int64 entries."""
        lap = -self.adjacency_matrix()
        for v in range(self.n):
            lap[v, v] = self.degree(v)
        return lap

    def to_graph6(self) -> str:
        return graph_to_graph6(self)

    def to_edge_text(self) -> str:
        return graph_to_edge_text(self)

    def __str__(self) -> str:
        return self.to_edge_text()


def graph_from_edges(n: int, pairs) -> Graph:
    """Build a graph from any iterable of (u, v) pairs; rejects duplicates."""
    seen: set[tuple[int, int]] = set()
    for u, v in pairs:
        e = _normalize_edge(u, v, n)
        if e in seen:
            raise EdgeExistsError(f"duplicate edge {e} in input")
        seen.add(e)
    return Graph(n, frozenset(seen))


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


def _g6_size_bytes(n: int) -> bytes:
    if n <= 62:
        return bytes([n + 63])
    raise Graph6Error(f"graph6 support here stops at n = 62, got n = {n}")


def graph_to_graph6(g: Graph) -> str:
    """Encode in graph6: size byte, then the column-major upper triangle."""
    out = bytearray(_g6_size_bytes(g.n))
    bits = 0
    nbits = 0
    for v in range(1, g.n):
        for u in range(v):
            bits = bits << 1 | (g._rows[u] >> v & 1)
            nbits += 1
            if nbits == 6:
                out.append(bits + 63)
                bits = 0
                nbits = 0
    if nbits:
        out.append((bits << (6 - nbits)) + 63)
    return out.decode("ascii")


def graph_from_graph6(text: str) -> Graph:
    """Decode a graph6 string; validates length, charset, and zero padding."""
    s = text.strip()
    if s.startswith(GRAPH6_HEADER):
        s = s[len(GRAPH6_HEADER):]
    if not s:
        raise Graph6Error("empty graph6 string")
    try:
        data = s.encode("ascii")
    except UnicodeEncodeError:
        raise Graph6Error(f"non-ASCII character in graph6 string {text!r}") from None
    for ch in data:
        if not 63 <= ch <= 126:
            raise Graph6Error(f"character {chr(ch)!r} outside graph6 range in {text!r}")
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
    pairs = []
    idx = 0
    for v in range(1, n):
        for u in range(v):
            byte = body[idx // 6] - 63
            if byte >> (5 - idx % 6) & 1:
                pairs.append((u, v))
            idx += 1
    if want:
        pad = body[-1] - 63 & (1 << (want * 6 - nbits)) - 1
        if pad:
            raise Graph6Error(f"nonzero padding bits in graph6 string {text!r}")
    return graph_from_edges(n, pairs)


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
