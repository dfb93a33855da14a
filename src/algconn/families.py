"""Extremal graph families: cycles, chorded cycles, and theta graphs.

Three chord patterns on the cycle 0..n-1 matter here, all symmetric under
a reflection of the cycle. The table ``_CHORDS`` states each one as the
parity of n, the least n, and a shift: chord i joins i and n-i-shift for
1 <= i <= (n - least) // 2 + 1. That is

* h1 (odd n >= 5): chords i-(n-i) for 1 <= i <= (n-3)/2;
* h2 (even n >= 4): chords i-(n-i) for 1 <= i <= (n-2)/2;
* h3 (even n >= 6): chords i-(n-i-1) for 1 <= i <= (n-4)/2.

Graphs built from any subset of a pattern share the cycle's algebraic
connectivity exactly: the cycle has an alpha-eigenvector constant on each
chord's endpoint pair, so every chord adds zero to the quadratic form.
These families, together with theta graphs (three inner-disjoint paths
joining two poles), are the equality cases of the minimum-alpha sweeps.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from itertools import combinations
from math import cos, pi

import numpy as np

from .canon import canonical_form
from .errors import FamilySpecError, as_index
from .graphs import Graph, _graph_from_rows, graph_from_edges


class FamilyKind(str, enum.Enum):
    CYCLE = "cycle"
    H1 = "h1"
    H2 = "h2"
    H3 = "h3"
    THETA = "theta"

    def __str__(self) -> str:
        return self.value


# chord kind -> (parity of n, least n, shift); chord i joins i and n-i-shift
_CHORDS = {FamilyKind.H1: (1, 5, 0), FamilyKind.H2: (0, 4, 0), FamilyKind.H3: (0, 6, 1)}


def cycle_graph(n: int) -> Graph:
    return realize(FamilySpec(FamilyKind.CYCLE, n))


def max_chord_index(kind: FamilyKind, n: int) -> int:
    if kind not in _CHORDS:
        raise FamilySpecError(f"{kind} has no chord indices")
    return (n - _CHORDS[kind][1]) // 2 + 1


@dataclass(frozen=True)
class FamilySpec:
    """A named family member: kind, order, and chord indices or path lengths.

    For chord kinds, indices is the sorted chord index list (repeats
    allowed, collapsed at realization); for theta, the sorted path length
    triple; for cycle, empty.
    """

    kind: FamilyKind
    n: int
    indices: tuple[int, ...] = ()

    def __post_init__(self) -> None:
        kind = self.kind
        n = as_index(self.n, FamilySpecError, "family order")
        idx = tuple(as_index(i, FamilySpecError, "family index") for i in self.indices)
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "indices", idx)
        if list(idx) != sorted(idx):
            raise FamilySpecError(f"indices must be sorted ascending, got {idx!r}")
        if kind == FamilyKind.CYCLE:
            if n < 3:
                raise FamilySpecError(f"cycle needs n >= 3, got n = {n}")
            if idx:
                raise FamilySpecError(f"cycle takes no indices, got {idx!r}")
            return
        if kind == FamilyKind.THETA:
            if len(idx) != 3:
                raise FamilySpecError(f"theta needs exactly 3 path lengths, got {idx!r}")
            l1, l2, l3 = idx
            if l1 < 1:
                raise FamilySpecError(f"theta path lengths must be >= 1, got l1 = {l1}")
            if l2 == 1:
                raise FamilySpecError(
                    f"at most one theta path may have length 1 (a repeated length-1 "
                    f"path is a multi-edge), got {idx!r}"
                )
            if n != l1 + l2 + l3 - 1:
                raise FamilySpecError(
                    f"theta order must be l1+l2+l3-1 = {l1 + l2 + l3 - 1}, got n = {n}"
                )
            if n < 4:
                raise FamilySpecError(f"theta needs n >= 4, got n = {n}")
            return
        cap = max_chord_index(kind, n)
        parity, least, _ = _CHORDS[kind]
        if n % 2 != parity or n < least:
            raise FamilySpecError(
                f"{kind} needs {('even', 'odd')[parity]} n >= {least}, got n = {n}"
            )
        if not 1 <= len(idx) <= cap:
            raise FamilySpecError(
                f"{kind} at n = {n} needs between 1 and {cap} chord indices, "
                f"got {len(idx)}"
            )
        for i in idx:
            if not 1 <= i <= cap:
                raise FamilySpecError(
                    f"{kind} chord index must satisfy 1 <= i <= {cap} at n = {n}, got {i}"
                )

    def chord_pairs(self) -> tuple[tuple[int, int], ...]:
        """Chord endpoint pairs, duplicates collapsed, in index order."""
        if self.kind not in _CHORDS:
            return ()
        shift = _CHORDS[self.kind][2]
        return tuple((i, self.n - i - shift) for i in sorted(set(self.indices)))

    def to_text(self) -> str:
        if self.kind == FamilyKind.CYCLE:
            return f"cycle:{self.n}"
        if self.kind == FamilyKind.THETA:
            return "theta:" + ",".join(str(l) for l in self.indices)
        return f"{self.kind}:n={self.n}:i=" + ",".join(str(i) for i in self.indices)


def parse_family_text(text: str) -> FamilySpec:
    """Parse "cycle:12", "theta:2,3,4", or "h1:n=9:i=1,3"."""
    parts = [p.strip() for p in text.strip().split(":")]
    name = parts[0].lower()
    try:
        kind = FamilyKind(name)
    except ValueError:
        raise FamilySpecError(
            f"unknown family kind {name!r}; expected one of "
            f"{[k.value for k in FamilyKind]}"
        ) from None
    if kind == FamilyKind.CYCLE:
        if len(parts) != 2:
            raise FamilySpecError(f"cycle spec must be 'cycle:<n>', got {text!r}")
        return FamilySpec(kind, _spec_int(parts[1], text))
    if kind == FamilyKind.THETA:
        if len(parts) != 2:
            raise FamilySpecError(f"theta spec must be 'theta:l1,l2,l3', got {text!r}")
        lens = tuple(sorted(_spec_int(p, text) for p in parts[1].split(",")))
        return FamilySpec(kind, sum(lens) - 1, lens)
    if len(parts) != 3 or not parts[1].startswith("n=") or not parts[2].startswith("i="):
        raise FamilySpecError(f"chord spec must be '{kind}:n=<n>:i=<i1,i2,..>', got {text!r}")
    n = _spec_int(parts[1][2:], text)
    idx = tuple(sorted(_spec_int(p, text) for p in parts[2][2:].split(",")))
    return FamilySpec(kind, n, idx)


def _spec_int(field: str, text: str) -> int:
    """One integer of a family spec; anything else is a bad number in text."""
    try:
        return int(field)
    except ValueError:
        raise FamilySpecError(f"bad number in family spec {text!r}") from None


def realize(spec: FamilySpec) -> Graph:
    """Construct the graph a FamilySpec names."""
    n = spec.n
    if spec.kind == FamilyKind.THETA:
        return _graph_from_rows(_theta_rows(spec.indices))
    return graph_from_edges(n, [(i, (i + 1) % n) for i in range(n)] + list(spec.chord_pairs()))


def _theta_rows(triple: tuple[int, int, int]) -> tuple[int, ...]:
    """The adjacency rows of the theta graph of an admissible length triple
    l1 <= l2 <= l3: poles 0 and l1, the three paths on consecutive inner
    labels (the l1 path on 1..l1-1)."""
    l1, l2, l3 = triple
    n = l1 + l2 + l3 - 1
    rows = [0] * n
    for inner in (range(1, l1), range(l1 + 1, l1 + l2), range(l1 + l2, n)):
        path = [0, *inner, l1]
        for a, b in zip(path, path[1:]):
            rows[a] |= 1 << b
            rows[b] |= 1 << a
    return tuple(rows)


def saturated(kind: FamilyKind, n: int) -> Graph:
    """The family member carrying every admissible chord."""
    cap = max_chord_index(kind, n)
    if cap < 1:
        raise FamilySpecError(f"{kind} has no admissible chords at n = {n}")
    return realize(FamilySpec(kind, n, tuple(range(1, cap + 1))))


def applicable_chord_kinds(n: int) -> tuple[FamilyKind, ...]:
    return tuple(k for k, (parity, least, _) in _CHORDS.items() if n % 2 == parity and n >= least)


def equality_family_specs(n: int) -> list[tuple[FamilySpec, Graph, str]]:
    """One (spec, graph, canonical code) per isomorphism class, cycle first.

    Walks every nonempty chord-index subset of each applicable kind in
    (kind, size, lex) order and keeps the first spec seen per class.
    """
    if n < 4:
        raise FamilySpecError(f"equality families start at n = 4, got n = {n}")
    out: list[tuple[FamilySpec, Graph, str]] = []
    seen: set[str] = set()
    cyc_spec = FamilySpec(FamilyKind.CYCLE, n)
    cyc = realize(cyc_spec)
    code = canonical_form(cyc)
    out.append((cyc_spec, cyc, code))
    seen.add(code)
    for kind in applicable_chord_kinds(n):
        cap = max_chord_index(kind, n)
        for size in range(1, cap + 1):
            for combo in combinations(range(1, cap + 1), size):
                spec = FamilySpec(kind, n, combo)
                g = realize(spec)
                code = canonical_form(g)
                if code not in seen:
                    seen.add(code)
                    out.append((spec, g, code))
    return out


def equality_family(n: int) -> list[Graph]:
    """All pairwise non-isomorphic equality-case graphs of order n."""
    return [g for _, g, _ in equality_family_specs(n)]


def theta_triples(n: int) -> list[tuple[int, int, int]]:
    """Admissible sorted path-length triples for theta graphs of order n."""
    n = as_index(n, FamilySpecError, "theta order")
    if n < 4:
        raise FamilySpecError(f"theta graphs start at n = 4, got n = {n}")
    out = []
    total = n + 1
    for l1 in range(1, total // 3 + 1):
        for l2 in range(max(l1, 2), (total - l1) // 2 + 1):
            l3 = total - l1 - l2
            out.append((l1, l2, l3))
    return out


def enumerate_theta(n: int) -> list[Graph]:
    """One theta graph per admissible length triple; triples classify them."""
    return [realize(FamilySpec(FamilyKind.THETA, n, t)) for t in theta_triples(n)]


def single_chord_spec_for_triple(triple: tuple[int, int, int]) -> FamilySpec | None:
    """The one-chord family spec a theta length triple realizes, if any.

    A chord i-(n-i-shift) splits the cycle into arcs of lengths 2i+shift
    and n-2i-shift; so the triples realized by one-chord family members
    are exactly those with a length-1 path, and the first arc of the
    kind's parity names the chord.
    """
    l1, l2, l3 = triple
    if l1 != 1:
        return None
    n = l2 + l3
    for kind in applicable_chord_kinds(n):
        for arc in (l2, l3):
            if arc % 2 == _CHORDS[kind][2]:
                return FamilySpec(kind, n, (arc // 2,))
    return None


# ---------------------------------------------------------------------------
# Analytic alpha-eigenvectors of the cycle, chosen symmetric under the
# reflection that fixes each family's chord pairs. Hard-coded formulas,
# independent of the numerical eigensolver.
# ---------------------------------------------------------------------------


def symmetric_alpha_vector(n: int, kind: FamilyKind) -> np.ndarray:
    """Cycle alpha-eigenvector constant on the given kind's chord pairs.

    Chords pair j with n-j-shift, fixed by x_j = cos(2*pi*(j+shift/2)/n).
    """
    if kind not in _CHORDS:
        raise FamilySpecError(f"no symmetric chord eigenvector for kind {kind}")
    half = _CHORDS[kind][2] / 2
    return np.array([cos(2.0 * pi * (j + half) / n) for j in range(n)])


def chord_increments(spec: FamilySpec) -> list[float]:
    """Squared x-differences across each chord under the analytic vector."""
    if spec.kind not in _CHORDS:
        raise FamilySpecError(f"chord increments need a chord kind, got {spec.kind}")
    x = symmetric_alpha_vector(spec.n, spec.kind)
    return [float((x[u] - x[v]) ** 2) for u, v in spec.chord_pairs()]
