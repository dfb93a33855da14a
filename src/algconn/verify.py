"""Sweep harnesses: check the cycle-minimality theorems at desk scale.

Two sweeps. The biconnected sweep enumerates every 2-connected isomorphism
class of order n, asserts alpha(G) >= alpha(C_n), and demands that the
graphs attaining equality are exactly the chorded-cycle equality families.
The theta sweep does the same over theta graphs, keyed by path-length
triples, where the equality set is exactly the triples containing a
length-1 path.

Equality is never decided by floating point alone: a numeric near-tie is
only a filter, and the verdict comes from canonical-form identity with a
family member. Anything numerically ambiguous lands in the report's
flagged list, and a passing run has an empty one.
"""

from __future__ import annotations

import concurrent.futures
import csv
import io
import json
import os
import time
from dataclasses import dataclass, replace
from functools import lru_cache

from .canon import canonical_form
from .connectivity import hamiltonian_cycle, is_biconnected
from .enumeration import CanonicalCode, enumerate_graphs
from .errors import VerificationError
from .families import (
    FamilyKind,
    FamilySpec,
    equality_family_specs,
    parse_family_text,
    realize,
    single_chord_spec_for_triple,
    theta_triples,
)
from .graphs import Graph, graph_from_graph6
from .rewiring import rewire
from .spectra import alpha_cycle_closed_form, fiedler_vector

NOT_EXTREMAL = "not_extremal"


@dataclass(frozen=True)
class Margins:
    """Numeric policy for the sweeps.

    equal_tol is the alpha filter for equality candidates, strict_margin
    the clearance demanded of strict statements, bound_slack the grace on
    the main lower bound. Gaps between strict_margin and equal_tol are the
    ambiguity band; rows there are flagged and fail the run.
    """

    equal_tol: float = 1e-8
    strict_margin: float = 1e-10
    bound_slack: float = 1e-10


@dataclass(frozen=True)
class EqualityClass:
    label: str
    matched_spec: FamilySpec | None
    alpha_gap: float
    flagged: bool = False
    flag_reason: str | None = None


@dataclass(frozen=True)
class SweepRow:
    code: CanonicalCode
    alpha: float
    equality: EqualityClass
    hamiltonian: bool
    rewire_drop: float
    alpha_gprime: float
    triple: tuple[int, int, int] | None = None


@dataclass(frozen=True)
class VerificationReport:
    theorem: str
    n: int
    count: int
    alpha_cycle: float
    min_alpha: float
    rows: tuple[SweepRow, ...]
    flagged: tuple[str, ...]
    runtime: float


@lru_cache(maxsize=32)
def _family_code_map(n: int) -> dict[str, FamilySpec]:
    return {code: spec for spec, _, code in equality_family_specs(n)}


def _classify(code: str, gap: float, n: int, margins: Margins) -> EqualityClass:
    if abs(gap) > margins.equal_tol:
        return EqualityClass(NOT_EXTREMAL, None, gap)
    spec = _family_code_map(n).get(code)
    if spec is None:
        return EqualityClass(
            NOT_EXTREMAL,
            None,
            gap,
            flagged=True,
            flag_reason="alpha matches the cycle but no equality family member does",
        )
    return _family_match(spec, gap, margins)


def _family_match(spec: FamilySpec, gap: float, margins: Margins) -> EqualityClass:
    """Verdict for a family member; flagged when its gap is in the ambiguity band."""
    if abs(gap) > margins.strict_margin:
        return EqualityClass(
            str(spec.kind),
            spec,
            gap,
            flagged=True,
            flag_reason="family match with alpha gap inside the ambiguity band",
        )
    return EqualityClass(str(spec.kind), spec, gap)


def classify_equality(g: Graph, margins: Margins = Margins()) -> EqualityClass:
    """Equality verdict for one biconnected graph: family label or not_extremal."""
    if not is_biconnected(g):
        raise VerificationError("equality classification expects a biconnected graph")
    alpha = fiedler_vector(g).alpha
    gap = alpha - alpha_cycle_closed_form(g.n)
    return _classify(canonical_form(g), gap, g.n, margins)


def _biconnected_verdict(
    code_g6: str, n: int, alpha: float, hamiltonian: bool, drop: float, margins: Margins
) -> EqualityClass:
    """Bound check and equality verdict of a biconnected sweep row.

    Computed rows and rows resumed from a checkpoint both pass through here.
    """
    alpha_ref = alpha_cycle_closed_form(n)
    gap = alpha - alpha_ref
    if gap < -margins.bound_slack:
        raise VerificationError(
            f"lower bound violated at {code_g6}: alpha = {alpha!r} < "
            f"alpha(C_{n}) = {alpha_ref!r}"
        )
    eq = _classify(code_g6, gap, n, margins)
    if not hamiltonian and drop <= margins.strict_margin:
        eq = replace(
            eq,
            flagged=True,
            flag_reason="non-Hamiltonian graph whose rewiring drop is inside the margin",
        )
    return eq


def _biconnected_row(code_g6: str, n: int, margins: Margins) -> SweepRow:
    g = graph_from_graph6(code_g6)
    f = fiedler_vector(g)
    ham = hamiltonian_cycle(g) is not None
    cert = rewire(g, f)
    drop = cert.alpha_g - cert.alpha_gprime
    return SweepRow(
        code=CanonicalCode(n, code_g6),
        alpha=f.alpha,
        equality=_biconnected_verdict(code_g6, n, f.alpha, ham, drop, margins),
        hamiltonian=ham,
        rewire_drop=drop,
        alpha_gprime=cert.alpha_gprime,
    )


def _load_checkpoint(path: str, n: int, margins: Margins) -> dict[str, SweepRow]:
    """Rows of an earlier run of the order-n sweep, re-checked under margins.

    The sweep ends every row with a newline, so text after the last newline
    is a row cut short by an interrupt: it is dropped, and the file is
    truncated to the last complete line so new rows append cleanly. Any
    other line that does not hold a valid row raises VerificationError.
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
            row = _row_from_dict(json.loads(line))
            if row.code.n != n:
                raise VerificationError(f"row is for n = {row.code.n}, not {n}")
            eq = _biconnected_verdict(
                row.code.code, n, row.alpha, row.hamiltonian, row.rewire_drop, margins
            )
            if eq.alpha_gap != row.equality.alpha_gap:
                raise VerificationError(
                    f"gap {row.equality.alpha_gap!r} does not match alpha {row.alpha!r}"
                )
        except (ValueError, KeyError, TypeError, VerificationError) as exc:
            raise VerificationError(f"checkpoint {path}, line {lineno}: {exc}") from exc
        done[row.code.code] = replace(row, equality=eq)
    return done


def verify_theorem_1(
    n: int,
    margins: Margins = Margins(),
    jobs: int = 1,
    checkpoint: str | None = None,
) -> VerificationReport:
    """Sweep all biconnected classes of order n against the cycle bound.

    Raises VerificationError on any bound violation or when the equality
    set differs from the chorded-cycle families. Rows stream to the
    checkpoint file as they finish, so an interrupted sweep resumes there;
    resumed rows get the same bound check and verdict as computed ones.
    """
    if not 4 <= n <= 9:
        raise VerificationError(f"biconnected sweep covers 4 <= n <= 9, got n = {n}")
    start = time.monotonic()
    codes = [g.to_graph6() for g in enumerate_graphs(n, is_biconnected)]
    done: dict[str, SweepRow] = {}
    if checkpoint and os.path.exists(checkpoint):
        done = _load_checkpoint(checkpoint, n, margins)
    todo = [c for c in codes if c not in done]
    sink = open(checkpoint, "a", encoding="ascii") if checkpoint else None
    try:
        if jobs > 1 and todo:
            with concurrent.futures.ProcessPoolExecutor(max_workers=jobs) as pool:
                for row in pool.map(
                    _biconnected_row,
                    todo,
                    [n] * len(todo),
                    [margins] * len(todo),
                    chunksize=max(1, len(todo) // (4 * jobs)),
                ):
                    done[row.code.code] = row
                    if sink:
                        sink.write(json.dumps(_row_to_dict(row)) + "\n")
        else:
            for code in todo:
                row = _biconnected_row(code, n, margins)
                done[row.code.code] = row
                if sink:
                    sink.write(json.dumps(_row_to_dict(row)) + "\n")
    finally:
        if sink:
            sink.close()
    rows = tuple(done[c] for c in codes)
    expected = set(_family_code_map(n))
    attained = {r.code.code for r in rows if r.equality.label != NOT_EXTREMAL and not r.equality.flagged}
    if attained != expected:
        raise VerificationError(
            f"equality set mismatch at n = {n}: unexpected "
            f"{sorted(attained - expected)}, missing {sorted(expected - attained)}"
        )
    return _finish_report("t1", n, rows, start)


def _theta_row(triple: tuple[int, int, int], margins: Margins) -> SweepRow:
    spec = FamilySpec(FamilyKind.THETA, sum(triple) - 1, triple)
    g = realize(spec)
    n = g.n
    # triples are complete isomorphism invariants for theta graphs, so for
    # orders past the canonical-form cap the constructed labeling's code
    # stands in as the row key
    code = canonical_form(g) if n <= 12 else g.to_graph6()
    f = fiedler_vector(g)
    alpha_ref = alpha_cycle_closed_form(n)
    gap = f.alpha - alpha_ref
    if gap < -margins.bound_slack:
        raise VerificationError(
            f"lower bound violated at theta{triple}: alpha = {f.alpha!r} < "
            f"alpha(C_{n}) = {alpha_ref!r}"
        )
    numeric_equal = abs(gap) <= margins.equal_tol
    chord_spec = single_chord_spec_for_triple(triple)
    if numeric_equal != (chord_spec is not None):
        raise VerificationError(
            f"equality mismatch at theta{triple}: numeric gap {gap!r} vs "
            f"family spec {chord_spec!r}"
        )
    if chord_spec is not None:
        eq = _family_match(chord_spec, gap, margins)
    else:
        eq = EqualityClass(NOT_EXTREMAL, None, gap)
    cert = rewire(g, f)
    return SweepRow(
        code=CanonicalCode(n, code),
        alpha=f.alpha,
        equality=eq,
        # a theta graph has a spanning cycle exactly when its third path is
        # a bare edge: any cycle in it is the union of two of the paths
        hamiltonian=triple[0] == 1,
        rewire_drop=cert.alpha_g - cert.alpha_gprime,
        alpha_gprime=cert.alpha_gprime,
        triple=triple,
    )


def verify_theorem_2(n_max: int, margins: Margins = Margins()) -> list[VerificationReport]:
    """Sweep all theta graphs for each order 4..n_max, one report per order."""
    if not 4 <= n_max <= 40:
        raise VerificationError(f"theta sweep covers 4 <= n_max <= 40, got {n_max}")
    reports = []
    for n in range(4, n_max + 1):
        start = time.monotonic()
        rows = tuple(_theta_row(t, margins) for t in theta_triples(n))
        rows = tuple(sorted(rows, key=lambda r: r.code))
        reports.append(_finish_report("t2", n, rows, start))
    return reports


def _finish_report(theorem: str, n: int, rows, start: float) -> VerificationReport:
    return VerificationReport(
        theorem=theorem,
        n=n,
        count=len(rows),
        alpha_cycle=alpha_cycle_closed_form(n),
        min_alpha=min(r.alpha for r in rows),
        rows=rows,
        flagged=tuple(sorted(r.code.code for r in rows if r.equality.flagged)),
        runtime=time.monotonic() - start,
    )


# ---------------------------------------------------------------------------
# serialization: versioned JSON and the fixed-column CSV
# ---------------------------------------------------------------------------

CSV_COLUMNS = (
    "n",
    "canonical_code",
    "alpha",
    "alpha_cycle",
    "gap",
    "class_label",
    "matched_spec",
    "hamiltonian",
    "rewire_alpha_drop",
)


def _row_to_dict(row: SweepRow) -> dict:
    return {
        "code": row.code.code,
        "n": row.code.n,
        "alpha": row.alpha,
        "gap": row.equality.alpha_gap,
        "label": row.equality.label,
        "matched_spec": row.equality.matched_spec.to_text() if row.equality.matched_spec else None,
        "flagged": row.equality.flagged,
        "flag_reason": row.equality.flag_reason,
        "hamiltonian": row.hamiltonian,
        "rewire_drop": row.rewire_drop,
        "alpha_gprime": row.alpha_gprime,
        "triple": list(row.triple) if row.triple else None,
    }


def _row_from_dict(d: dict) -> SweepRow:
    spec = parse_family_text(d["matched_spec"]) if d["matched_spec"] else None
    return SweepRow(
        code=CanonicalCode(d["n"], d["code"]),
        alpha=d["alpha"],
        equality=EqualityClass(
            label=d["label"],
            matched_spec=spec,
            alpha_gap=d["gap"],
            flagged=d["flagged"],
            flag_reason=d.get("flag_reason"),
        ),
        hamiltonian=d["hamiltonian"],
        rewire_drop=d["rewire_drop"],
        alpha_gprime=d["alpha_gprime"],
        triple=tuple(d["triple"]) if d.get("triple") else None,
    )


def report_to_dict(report: VerificationReport) -> dict:
    return {
        "schema": 1,
        "theorem": report.theorem,
        "n": report.n,
        "count": report.count,
        "alpha_cycle": report.alpha_cycle,
        "min_alpha": report.min_alpha,
        "rows": [_row_to_dict(r) for r in report.rows],
        "flagged": list(report.flagged),
        "runtime": report.runtime,
    }


def report_to_json(report: VerificationReport) -> str:
    return json.dumps(report_to_dict(report), indent=2, sort_keys=True)


def report_to_csv(reports) -> str:
    """Fixed-column CSV over one or more reports; specs with commas quoted."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(CSV_COLUMNS)
    for report in reports:
        for row in report.rows:
            spec = row.equality.matched_spec
            writer.writerow(
                (
                    report.n,
                    row.code.code,
                    repr(row.alpha),
                    repr(report.alpha_cycle),
                    repr(row.equality.alpha_gap),
                    row.equality.label,
                    spec.to_text() if spec else "",
                    "true" if row.hamiltonian else "false",
                    repr(row.rewire_drop),
                )
            )
    return buf.getvalue()
