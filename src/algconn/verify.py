"""Sweep harnesses: check the cycle-minimality theorems at desk scale.

Two sweeps. The biconnected sweep enumerates every 2-connected isomorphism
class of order n, asserts alpha(G) >= alpha(C_n), and demands that the
graphs attaining equality are exactly the chorded-cycle equality families.
The theta sweep does the same over theta graphs, keyed by path-length
triples, where the equality set is exactly the triples containing a
length-1 path.

One function builds every row of both sweeps, computed or resumed from a
checkpoint, and gives it the one verdict. Computed rows come from one
loop, _sweep_rows, which pulls the graphs of one order CHUNK_ROWS at a
time from a lazy iterable (class codes or theta triples, decoded as they
are pulled): one stacked eigensolve gives the batch's Fiedler vectors,
and then each row in turn gets its verdict and rewiring and reaches the
checkpoint, so the checkpoint advances one row at a time. A biconnected
sweep first checks that it has every class of its order (OEIS A002218).
A report holds its theorem, order, rows and runtime; its count, minimum
alpha and flagged list derive from the rows, and alpha(C_n) from the
order. The verdict knows the family member the graph is, or that it is
none, from canonical-form identity (biconnected sweep) or from its triple
(theta sweep): floating point alone never decides equality. Its policy:

- a gap alpha - alpha(C_n) below -BOUND_SLACK raises VerificationError;
- so does a family member whose gap lies outside EQUAL_TOL;
- a gap within EQUAL_TOL without a family member is flagged;
- a family member whose gap lies outside STRICT_MARGIN is flagged (the
  ambiguity band);
- a non-Hamiltonian graph whose gap is at most STRICT_MARGIN is flagged:
  the rewired graph G' is a spanning cycle, so the rewiring drop
  alpha(G) - alpha(G') equals the gap.

Flagged rows land in the report's flagged list, and a passing run has an
empty one.
"""

from __future__ import annotations

import contextlib
import csv
import io
import itertools
import json
import math
import time
from dataclasses import dataclass
from functools import lru_cache
from typing import Iterator

from .canon import ORDER_LIMIT, _canonical_code, canonical_form
from .connectivity import _hamiltonian_cycle, is_biconnected
from .enumeration import BICONNECTED_CLASS_COUNTS, ENUMERATION_LIMIT, _check_class_count, class_codes
from .errors import AlgConnError, VerificationError, as_index
from .families import (
    FamilySpec,
    _theta_rows,
    equality_family_specs,
    single_chord_spec_for_triple,
    theta_triples,
)
from .graphs import Graph, _graph6_from_rows, _rows_from_graph6
from .jsontext import json_text
from .rewiring import _rewire
from .spectra import FiedlerResult, _fiedlers, alpha_cycle_closed_form

NOT_EXTREMAL = "not_extremal"

# rows per batch: one stacked eigensolve, whose arrays hold CHUNK_ROWS
# n x n matrices; a sweep holds no more than one batch of graphs
CHUNK_ROWS = 64


# the verdict's float policy (module docstring): EQUAL_TOL is the alpha
# filter for equality candidates, STRICT_MARGIN the clearance demanded of
# strict statements, BOUND_SLACK the grace on the lower bound
EQUAL_TOL = 1e-8
STRICT_MARGIN = 1e-10
BOUND_SLACK = 1e-10


@dataclass(frozen=True)
class EqualityClass:
    matched_spec: FamilySpec | None
    alpha_gap: float
    flag_reason: str | None = None

    @property
    def label(self) -> str:
        return NOT_EXTREMAL if self.matched_spec is None else str(self.matched_spec.kind)

    @property
    def flagged(self) -> bool:
        return self.flag_reason is not None


@dataclass(frozen=True)
class SweepRow:
    n: int
    code: str
    alpha: float
    equality: EqualityClass
    hamiltonian: bool
    triple: tuple[int, int, int] | None = None


@dataclass(frozen=True)
class VerificationReport:
    theorem: str
    n: int
    rows: tuple[SweepRow, ...]
    runtime: float

    @property
    def count(self) -> int:
        return len(self.rows)

    @property
    def alpha_cycle(self) -> float:
        return alpha_cycle_closed_form(self.n)

    @property
    def min_alpha(self) -> float:
        return min(r.alpha for r in self.rows)

    @property
    def flagged(self) -> tuple[str, ...]:
        return tuple(sorted(r.code for r in self.rows if r.equality.flagged))


@lru_cache(maxsize=32)
def _family_code_map(n: int) -> dict[str, FamilySpec]:
    return {code: spec for spec, _, code in equality_family_specs(n)}


def _verdict(
    code: str,
    triple: tuple[int, int, int] | None,
    n: int,
    alpha: float,
    spec: FamilySpec | None,
    hamiltonian: bool,
) -> EqualityClass:
    """Bound check and equality verdict of one order-n graph (module docstring).

    spec is the family member the graph is known to be, or None; code and
    triple name the graph in errors (_row_name).
    """
    alpha_ref = alpha_cycle_closed_form(n)
    gap = alpha - alpha_ref
    if not gap >= -BOUND_SLACK:
        raise VerificationError(
            f"lower bound violated at {_row_name(code, triple)}: gap {gap!r} below "
            f"-bound_slack = {-BOUND_SLACK!r}, alpha = {alpha!r} < alpha(C_{n}) = {alpha_ref!r}"
        )
    reason = None
    if spec is None:
        if abs(gap) <= EQUAL_TOL:
            reason = "alpha matches the cycle but no equality family member does"
    elif abs(gap) > EQUAL_TOL:
        raise VerificationError(
            f"equality mismatch at {_row_name(code, triple)}: gap {gap!r} outside "
            f"equal_tol for {spec.to_text()}"
        )
    elif abs(gap) > STRICT_MARGIN:
        reason = "family match with alpha gap inside the ambiguity band"
    if not hamiltonian and gap <= STRICT_MARGIN:
        reason = "non-Hamiltonian graph whose rewiring drop is inside the margin"
    return EqualityClass(spec, gap, reason)


def _name_stage(
    exc: AlgConnError, stage: str, code: str, triple: tuple[int, int, int] | None
) -> None:
    """Prefix exc's message with the stage that raised it and the name of
    the graph it failed at (_row_name)."""
    exc.args = (f"{stage} failed at {_row_name(code, triple)}: {exc}",)


def _row(
    rows: tuple[int, ...],
    code: str,
    spec: FamilySpec | None,
    hamiltonian: bool,
    triple: tuple[int, int, int] | None = None,
    alpha: float | None = None,
    f: FiedlerResult | None = None,
) -> SweepRow:
    """Verdict and rewiring checks of one sweep graph, given by its
    adjacency rows and its Fiedler solve f (_sweep_rows).

    code is the graph's row key, spec the family member it is known to be
    (or None), and triple its path lengths when it is a theta graph. It is
    biconnected with n >= 4 by construction (the level filter, or the
    theta construction), so the row takes the rewiring with its checks
    through its rows entry, without rewire's input validation; _rewire
    checks the residual the Fiedler solve measured on the same Laplacian,
    and no certificate is built. A row resumed from a checkpoint passes
    its stored alpha instead of f: the Fiedler solve and the rewiring ran
    when that row was written, so only the verdict runs.
    """
    n = len(rows)
    if f is not None:
        alpha = f.alpha
    eq = _verdict(code, triple, n, alpha, spec, hamiltonian)
    if f is not None:
        try:
            _rewire(rows, f.vector, f.residual)
        except AlgConnError as exc:
            _name_stage(exc, "rewire", code, triple)
            raise
    return SweepRow(n, code, alpha, eq, hamiltonian, triple)


def _row_name(code: str, triple: tuple[int, int, int] | None) -> str:
    return code if triple is None else f"theta{triple} ({code})"


def _sweep_rows(items) -> Iterator[SweepRow]:
    """The rows of sweep graphs of one order, each item _row's (rows, code,
    spec, hamiltonian, triple), pulled from the iterable items CHUNK_ROWS
    at a time: one stacked Fiedler solve per batch, then each row, yielded
    as its verdict and rewiring finish.

    A stacked solve that fails does not say which graph failed, so the
    batch's graphs are then solved one at a time, each under its own name.
    """
    items = iter(items)
    while batch := list(itertools.islice(items, CHUNK_ROWS)):
        try:
            solved = _fiedlers([rows for rows, *_ in batch])
        except AlgConnError:
            solved = [None] * len(batch)
        for (rows, code, spec, hamiltonian, triple), f in zip(batch, solved):
            if f is None:
                try:
                    (f,) = _fiedlers([rows])
                except AlgConnError as exc:
                    _name_stage(exc, "fiedler_vector", code, triple)
                    raise
            yield _row(rows, code, spec, hamiltonian, triple, f=f)


def classify_equality(g: Graph) -> EqualityClass:
    """Equality verdict for one biconnected graph: family label or not_extremal.

    This is the verdict a biconnected sweep gives g's class, computed on
    its canonical labeling, so it raises VerificationError where that
    sweep would.
    """
    if g.n < 4:
        raise VerificationError(f"equality classification covers 4 <= n, got n = {g.n}")
    if not is_biconnected(g):
        raise VerificationError("equality classification expects a biconnected graph")
    return next(_sweep_rows([_biconnected_item(canonical_form(g))])).equality


def _biconnected_item(code: str) -> tuple:
    """_row's graph arguments for the biconnected class with this code."""
    rows = _rows_from_graph6(code)
    spec = _family_code_map(len(rows)).get(code)
    return rows, code, spec, _hamiltonian_cycle(rows) is not None, None


def _load_checkpoint(path: str, n: int, codes: set[str]) -> dict[str, SweepRow]:
    """Rows of an earlier run of the order-n sweep, rebuilt and checked.

    A resumed row is built by _row, as a computed one is, from its stored
    code and alpha: a fresh Hamiltonian search and the verdict, without
    the Fiedler solve and rewire. Its alpha must be a finite float, its
    line must then equal that row's _row_to_dict in every field, and its
    code must be one of codes, the sweep's classes. Rows end in a newline,
    so text after the last one is a row cut short by an interrupt: it is
    dropped, and the file is truncated to the last complete line so new
    rows append cleanly.
    Any other line that does not hold a valid row raises VerificationError.
    """
    with open(path, "rb") as fh:
        data = fh.read()
    lines = data.split(b"\n")
    torn = lines.pop()
    if torn:
        with open(path, "r+b") as fh:
            fh.truncate(len(data) - len(torn))
    done: dict[str, SweepRow] = {}
    for lineno, line in enumerate(lines, 1):
        if not line.strip():
            continue
        try:
            stored = json.loads(line)
            code = stored["code"]
            if code not in codes:
                raise VerificationError(f"code {code!r} is not a class of the order-{n} sweep")
            row = _row(*_biconnected_item(code), alpha=stored["alpha"])
            # _row refuses a NaN alpha already, as a bound violation
            if type(row.alpha) is not float or not math.isfinite(row.alpha):
                raise VerificationError(f"alpha {row.alpha!r} is not a finite float")
            for field, derived in _row_to_dict(row).items():
                if stored[field] != derived:
                    raise VerificationError(f"{field} {stored[field]!r} does not match {derived!r}")
        except (ValueError, KeyError, TypeError, VerificationError) as exc:
            raise VerificationError(f"checkpoint {path}, line {lineno}: {exc}") from exc
        done[code] = row
    return done


def verify_theorem_1(n: int, checkpoint: str | None = None) -> VerificationReport:
    """Sweep all biconnected classes of order n against the cycle bound.

    Raises VerificationError when the enumeration does not give the known
    number of classes, on any bound violation, or when the equality set
    differs from the chorded-cycle families. Rows stream to the
    checkpoint file as they finish, so an interrupted sweep resumes there;
    resumed rows get the same checks and verdict as computed ones. The
    checkpoint is opened (created if absent) right after n is checked, so
    a path that cannot be written raises OSError before the level build.
    """
    n = as_index(n, VerificationError, "sweep order")
    if not 4 <= n <= ENUMERATION_LIMIT:
        raise VerificationError(
            f"biconnected sweep covers 4 <= n <= {ENUMERATION_LIMIT}, got n = {n}"
        )
    start = time.monotonic()
    # line-buffered: each finished row reaches the file before the next
    # starts, so an interrupted sweep loses none of them
    with (
        open(checkpoint, "a", encoding="ascii", buffering=1)
        if checkpoint
        else contextlib.nullcontext()
    ) as sink:
        codes = class_codes(n, is_biconnected)
        _check_class_count(n, len(codes), BICONNECTED_CLASS_COUNTS, "biconnected")
        # a new checkpoint is an empty file, which loads as no rows
        done = _load_checkpoint(sink.name, n, set(codes)) if sink else {}
        todo = [c for c in codes if c not in done]
        for row in _sweep_rows(map(_biconnected_item, todo)):
            done[row.code] = row
            if sink:
                sink.write(json.dumps(_row_to_dict(row)) + "\n")
    rows = tuple(done[c] for c in codes)
    # a row is labelled only when its code is a family member, so the
    # attained set can miss members but never hold others
    attained = {r.code for r in rows if r.equality.label != NOT_EXTREMAL and not r.equality.flagged}
    missing = sorted(set(_family_code_map(n)) - attained)
    if missing:
        raise VerificationError(f"equality set mismatch at n = {n}: missing {missing}")
    return VerificationReport("t1", n, rows, time.monotonic() - start)


def _theta_item(triple: tuple[int, int, int]) -> tuple:
    """_row's graph arguments for the theta graph of a length triple."""
    rows = _theta_rows(triple)
    # triples are complete isomorphism invariants for theta graphs, so for
    # orders past the canonical-form cap the constructed labeling's code
    # stands in as the row key
    code = _canonical_code(rows) if len(rows) <= ORDER_LIMIT else _graph6_from_rows(rows)
    # a theta graph has a spanning cycle exactly when its third path is
    # a bare edge: any cycle in it is the union of two of the paths
    return rows, code, single_chord_spec_for_triple(triple), triple[0] == 1, triple


def verify_theorem_2(n_max: int) -> list[VerificationReport]:
    """Sweep all theta graphs for each order 4..n_max, one report per order."""
    n_max = as_index(n_max, VerificationError, "theta sweep order")
    if not 4 <= n_max <= 40:
        raise VerificationError(f"theta sweep covers 4 <= n_max <= 40, got {n_max}")
    reports = []
    for n in range(4, n_max + 1):
        start = time.monotonic()
        rows = tuple(sorted(_sweep_rows(map(_theta_item, theta_triples(n))), key=lambda r: r.code))
        reports.append(VerificationReport("t2", n, rows, time.monotonic() - start))
    return reports


# ---------------------------------------------------------------------------
# serialization: versioned JSON and the fixed-column CSV, written to
# their sinks a block of rows at a time
# ---------------------------------------------------------------------------

# rewire certifies that G' is a spanning cycle, so alpha(G') is alpha(C_n)
# and the rewiring drop alpha(G) - alpha(G') is the row's gap: rows store
# neither, and the writers derive both. Each CSV column holds the
# _row_to_dict field it maps to.
_CSV_FIELDS = {
    "n": "n",
    "canonical_code": "code",
    "alpha": "alpha",
    "alpha_cycle": "alpha_gprime",
    "gap": "gap",
    "class_label": "label",
    "matched_spec": "matched_spec",
    "hamiltonian": "hamiltonian",
    "rewire_alpha_drop": "rewire_drop",
}
CSV_COLUMNS = tuple(_CSV_FIELDS)


def _row_to_dict(row: SweepRow) -> dict:
    return {
        "code": row.code,
        "n": row.n,
        "alpha": row.alpha,
        "gap": row.equality.alpha_gap,
        "label": row.equality.label,
        "matched_spec": row.equality.matched_spec.to_text() if row.equality.matched_spec else None,
        "flagged": row.equality.flagged,
        "flag_reason": row.equality.flag_reason,
        "hamiltonian": row.hamiltonian,
        "rewire_drop": row.equality.alpha_gap,
        "alpha_gprime": alpha_cycle_closed_form(row.n),
        "triple": list(row.triple) if row.triple else None,
    }


def _report_dict(report: VerificationReport, rows) -> dict:
    return {
        "schema": 1,
        "theorem": report.theorem,
        "n": report.n,
        "count": report.count,
        "alpha_cycle": report.alpha_cycle,
        "min_alpha": report.min_alpha,
        "rows": rows,
        "flagged": list(report.flagged),
        "runtime": report.runtime,
    }


def report_to_dict(report: VerificationReport) -> dict:
    return _report_dict(report, [_row_to_dict(r) for r in report.rows])


# stands in for the rows while the rest of a report is dumped
_ROWS_MARK = "rows go here"
# characters per write: a few dozen rows, so an unbuffered stdout gets
# few syscalls and the writer holds no more than one block
_BLOCK_CHARS = 1 << 14


def _report_pieces(report: VerificationReport, depth: int):
    """json.dumps(report_to_dict(report), indent=2, sort_keys=True) nested
    depth levels deep, in pieces: the text before the rows, one piece per
    row, and the rest, all written by json_text. Sorted keys put every
    summary before the rows, and a report always has rows (min_alpha
    needs one)."""
    pad = "\n" + "  " * depth
    text = json_text(_report_dict(report, _ROWS_MARK), pad)
    head, tail = text.split(json_text(_ROWS_MARK))
    yield head
    row_pad = pad + "    "
    sep = "["
    for row in report.rows:
        yield sep + row_pad + json_text(_row_to_dict(row), row_pad)
        sep = ","
    yield pad + "  ]" + tail


def _json_pieces(data):
    """The JSON of a report (report_to_dict) or of a list of reports (the
    list of those), as json.dumps(..., indent=2, sort_keys=True) writes it."""
    if isinstance(data, VerificationReport):
        yield from _report_pieces(data, 0)
        return
    sep = "["
    for report in data:
        yield sep + "\n  "
        yield from _report_pieces(report, 1)
        sep = ","
    yield "\n]" if sep == "," else "[]"


def write_json(data, *outs) -> None:
    """Write the JSON of a report or a list of reports, and a newline, to
    each of outs, a block of about _BLOCK_CHARS characters at a time."""
    for text in _blocks(itertools.chain(_json_pieces(data), ("\n",))):
        for out in outs:
            out.write(text)


def _blocks(pieces):
    block, size = [], 0
    for piece in pieces:
        block.append(piece)
        size += len(piece)
        if size >= _BLOCK_CHARS:
            yield "".join(block)
            block, size = [], 0
    yield "".join(block)


def report_to_json(report: VerificationReport) -> str:
    return "".join(_json_pieces(report))


def write_csv(reports, out) -> None:
    """Fixed-column CSV over one or more reports, a row at a time: the
    _row_to_dict fields named by _CSV_FIELDS, with None empty, floats by
    repr and specs with commas quoted."""
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(CSV_COLUMNS)
    for report in reports:
        for row in report.rows:
            d = _row_to_dict(row)
            d["hamiltonian"] = str(d["hamiltonian"]).lower()
            writer.writerow(d[key] for key in _CSV_FIELDS.values())


def report_to_csv(reports) -> str:
    buf = io.StringIO()
    write_csv(reports, buf)
    return buf.getvalue()
