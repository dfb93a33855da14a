"""Sweep harness behavior: classification verdicts, reports, serialization."""

import csv
import gc
import gzip
import hashlib
import io
import json
import math
import tracemalloc
from dataclasses import fields, replace

import numpy as np
import pytest

from golden import DATA, assert_matches_golden
from algconn.canon import canonical_form
from algconn.connectivity import hamiltonian_cycle, is_biconnected
from algconn import enumeration
from algconn.enumeration import class_codes, enumerate_graphs
from algconn.errors import ConvergenceError, GraphError, RewireDefectError, VerificationError
from algconn.families import (
    FamilyKind,
    FamilySpec,
    _theta_rows,
    cycle_graph,
    equality_family_specs,
    parse_family_text,
    realize,
    theta_triples,
)
from algconn.graphs import _graph_from_rows, graph_from_edges, graph_from_graph6
from algconn.jsontext import json_text
import algconn
from algconn import verify
from algconn.spectra import alpha_cycle_closed_form
from algconn.verify import (
    CSV_COLUMNS,
    NOT_EXTREMAL,
    classify_equality,
    report_to_csv,
    report_to_dict,
    report_to_json,
    verify_theorem_1,
    verify_theorem_2,
    write_csv,
    write_json,
)


def complete_graph(n):
    return graph_from_edges(n, [(a, b) for a in range(n) for b in range(a + 1, n)])


# ---------------------------------------------------------------------------
# single-graph classification
# ---------------------------------------------------------------------------


def test_classify_chorded_hexagon():
    eq = classify_equality(cycle_graph(6).add_edge(1, 4))
    assert eq.label == "h3"
    assert eq.matched_spec == FamilySpec(FamilyKind.H3, 6, (1,))
    assert eq.matched_spec.to_text() == "h3:n=6:i=1"
    assert abs(eq.alpha_gap) < 1e-10
    assert not eq.flagged


def test_classify_complete_graph_not_extremal():
    eq = classify_equality(complete_graph(4))
    assert eq.label == NOT_EXTREMAL
    assert eq.matched_spec is None
    assert abs(eq.alpha_gap - 2.0) < 1e-9  # alpha(K4) - alpha(C4) = 4 - 2
    assert not eq.flagged


def test_classify_cycle_and_diamond():
    eq = classify_equality(cycle_graph(9))
    assert (eq.label, eq.flagged) == ("cycle", False)
    diamond = graph_from_edges(4, [(0, 1), (1, 2), (2, 3), (3, 0), (0, 2)])
    eqd = classify_equality(diamond)
    assert eqd.label == "h2"
    assert eqd.matched_spec.to_text() == "h2:n=4:i=1"


def test_classify_requires_biconnected():
    path = graph_from_edges(4, [(0, 1), (1, 2), (2, 3)])
    with pytest.raises(VerificationError):
        classify_equality(path)


def test_classify_rejects_orders_below_four():
    # the triangle is biconnected, but the equality families start at n = 4
    triangle = graph_from_edges(3, [(0, 1), (1, 2), (0, 2)])
    with pytest.raises(VerificationError, match=r"covers 4 <= n, got n = 3"):
        classify_equality(triangle)


def test_classify_flag_no_family_member(monkeypatch):
    # widen the equality filter until K4 looks like a tie: the canonical-form
    # cross-check must refuse it and flag instead of reporting equality
    monkeypatch.setattr(verify, "EQUAL_TOL", 10.0)
    eq = classify_equality(complete_graph(4))
    assert eq.label == NOT_EXTREMAL
    assert eq.flagged
    assert "no equality family member" in eq.flag_reason


def test_classify_flag_ambiguity_band(monkeypatch):
    # exact equality member whose float gap cannot clear a zero margin
    monkeypatch.setattr(verify, "STRICT_MARGIN", 0.0)
    diamond = graph_from_edges(4, [(0, 1), (1, 2), (2, 3), (3, 0), (0, 2)])
    eq = classify_equality(diamond)
    assert eq.flagged
    assert "ambiguity band" in eq.flag_reason


# ---------------------------------------------------------------------------
# biconnected sweep
# ---------------------------------------------------------------------------

EXPECTED_COUNTS = {4: 3, 5: 10, 6: 56}


def test_sweep_counts_and_clean(t1_small):
    for n, report in t1_small.items():
        assert report.theorem == "t1"
        assert report.n == n
        assert report.count == EXPECTED_COUNTS[n] == len(report.rows)
        assert report.flagged == ()
        assert report.alpha_cycle == alpha_cycle_closed_form(n)


def test_sweep_lower_bound_holds(t1_small):
    for n, report in t1_small.items():
        assert report.min_alpha >= report.alpha_cycle - 1e-10
        for row in report.rows:
            assert row.alpha >= report.alpha_cycle - 1e-10


def test_sweep_equality_sets_exact(t1_small):
    for n, report in t1_small.items():
        attained = {r.code for r in report.rows if r.equality.label != NOT_EXTREMAL}
        expected = {code for _, _, code in equality_family_specs(n)}
        assert attained == expected


def test_sweep_rows_self_consistent(t1_small):
    for report in t1_small.values():
        for row in report.rows:
            g = graph_from_graph6(row.code)
            assert is_biconnected(g)
            assert row.hamiltonian == (hamiltonian_cycle(g) is not None)
            if not row.hamiltonian:
                assert row.equality.alpha_gap > 1e-10
            if row.equality.label != NOT_EXTREMAL:
                assert abs(row.equality.alpha_gap) <= 1e-8
            else:
                assert row.equality.alpha_gap > 1e-8


def test_sweep_order_range():
    with pytest.raises(VerificationError):
        verify_theorem_1(3)
    with pytest.raises(VerificationError):
        verify_theorem_1(10)
    with pytest.raises(VerificationError, match="7.0"):
        verify_theorem_1(7.0)


def test_sweep_deterministic():
    a = verify_theorem_1(4)
    b = verify_theorem_1(4)
    assert a.rows == b.rows
    assert a.flagged == b.flagged


def test_sweep_batches_bounded_and_checkpoint_in_code_order(t1_small, monkeypatch, tmp_path):
    # the batch size is fixed, not a share of the sweep, and neither the
    # rows nor the checkpoint's order depend on it; every batch but the
    # last is full
    monkeypatch.setattr(verify, "CHUNK_ROWS", 5)
    fiedlers, sizes = verify._fiedlers, []

    def recorded(batch):
        sizes.append(len(batch))
        return fiedlers(batch)

    monkeypatch.setattr(verify, "_fiedlers", recorded)
    cp = tmp_path / "sweep6.jsonl"
    report = verify_theorem_1(6, checkpoint=str(cp))
    assert sizes == [5] * 11 + [1]
    assert report.rows == t1_small[6].rows
    assert [json.loads(line)["code"] for line in cp.read_text().splitlines()] == [
        r.code for r in report.rows
    ]


def test_sweep_rows_pull_one_batch_at_a_time(t1_reports):
    # the sweep never holds more than one batch of graphs: at n = 9 the
    # whole order is 194,066 of them
    codes = class_codes(7, is_biconnected)
    pulled = 0

    def items():
        nonlocal pulled
        for code in codes:
            pulled += 1
            yield verify._biconnected_item(code)

    rows = verify._sweep_rows(items())
    assert pulled == 0
    first = next(rows)
    assert pulled <= verify.CHUNK_ROWS < len(codes)
    assert (first, *rows) == t1_reports[7].rows
    assert pulled == len(codes)


def test_sweep_checks_its_class_count(t1_small, monkeypatch):
    # a level builder that gives two classes one code loses a class
    # without any row failing; the sweep counts its classes and refuses
    a, b = (r.code for r in t1_small[6].rows[:2])
    canonical = enumeration._canonical_code

    def merged(rows):
        code = canonical(rows)
        return a if code == b else code

    monkeypatch.setattr(enumeration, "_level_cache", {})
    monkeypatch.setattr(enumeration, "_canonical_code", merged)
    with pytest.raises(VerificationError, match="order n = 6: enumerated 55, expected 56"):
        verify_theorem_1(6)


def test_sweep_checkpoint_resume(tmp_path):
    cp = tmp_path / "sweep5.jsonl"
    full = verify_theorem_1(5, checkpoint=str(cp))
    lines = cp.read_text().splitlines()
    assert len(lines) == 10
    # truncate to a prefix and resume: remaining rows recompute, result agrees
    cp.write_text("\n".join(lines[:4]) + "\n")
    resumed = verify_theorem_1(5, checkpoint=str(cp))
    assert resumed.rows == full.rows
    assert len(cp.read_text().splitlines()) == 10
    # a complete checkpoint means no recomputation and an unchanged file
    again = verify_theorem_1(5, checkpoint=str(cp))
    assert again.rows == full.rows


def _edit_row(line, **fields):
    d = json.loads(line)
    d.update(fields)
    return json.dumps(d)


def test_checkpoint_edited_row_rejected(tmp_path):
    cp = tmp_path / "sweep5.jsonl"
    verify_theorem_1(5, checkpoint=str(cp))
    lines = cp.read_text().splitlines()
    # a row outside the equality set, so the set comparison cannot catch it
    k = next(i for i, line in enumerate(lines) if json.loads(line)["label"] == NOT_EXTREMAL)
    lines[k] = _edit_row(lines[k], alpha=99.0, gap=-5.0)
    cp.write_text("\n".join(lines) + "\n")
    with pytest.raises(VerificationError, match=f"line {k + 1}: gap -5.0 does not match"):
        verify_theorem_1(5, checkpoint=str(cp))


def test_checkpoint_row_below_bound_rejected(tmp_path):
    cp = tmp_path / "sweep5.jsonl"
    verify_theorem_1(5, checkpoint=str(cp))
    lines = cp.read_text().splitlines()
    alpha = alpha_cycle_closed_form(5) - 0.5
    lines[0] = _edit_row(lines[0], alpha=alpha, gap=alpha - alpha_cycle_closed_form(5))
    cp.write_text("\n".join(lines) + "\n")
    with pytest.raises(VerificationError, match="line 1: lower bound violated"):
        verify_theorem_1(5, checkpoint=str(cp))


@pytest.mark.parametrize(
    "field, value",
    [
        ("hamiltonian", True),
        ("rewire_drop", 123.0),
        ("alpha_gprime", -7.0),
        ("triple", [1, 2, 3]),
        ("label", "h1"),
        ("matched_spec", "cycle:5"),
        ("flagged", True),
        ("flag_reason", "edited"),
    ],
)
def test_checkpoint_derived_field_edit_rejected(tmp_path, field, value):
    # every reported field of a resumed row is derived again, not trusted
    cp = tmp_path / "sweep5.jsonl"
    verify_theorem_1(5, checkpoint=str(cp))
    lines = cp.read_text().splitlines()
    k = next(i for i, line in enumerate(lines) if not json.loads(line)["hamiltonian"])
    lines[k] = _edit_row(lines[k], **{field: value})
    cp.write_text("\n".join(lines) + "\n")
    with pytest.raises(VerificationError, match=f"line {k + 1}: {field} "):
        verify_theorem_1(5, checkpoint=str(cp))


def test_checkpoint_from_earlier_release_resumes_identically(tmp_path):
    # checkpoint_t1_n7.jsonl.gz was written by `verify t1 --n 7` before the
    # float policy became module constants; every line must be accepted as
    # it stands, and the report must hash as that release's did
    cp = tmp_path / "sweep7.jsonl"
    cp.write_bytes(gzip.decompress((DATA / "checkpoint_t1_n7.jsonl.gz").read_bytes()))
    stored = cp.read_bytes()
    report = verify_theorem_1(7, checkpoint=str(cp))
    assert cp.read_bytes() == stored
    text = report_to_json(replace(report, runtime=0.0))
    digest = hashlib.sha256(text.encode()).hexdigest()
    assert digest == "3fca00f2495532e39a71e486b727f8ec811b04b26dc11d0d8afe7c44d4754714"


def test_checkpoint_torn_last_line_dropped(tmp_path):
    cp = tmp_path / "sweep5.jsonl"
    full = verify_theorem_1(5, checkpoint=str(cp))
    lines = cp.read_text().splitlines()
    # an interrupt mid-write leaves a partial row without its newline
    cp.write_text("\n".join(lines[:4]) + "\n" + lines[4][:25])
    resumed = verify_theorem_1(5, checkpoint=str(cp))
    assert resumed.rows == full.rows
    text = cp.read_text()
    assert text.endswith("\n") and len(text.splitlines()) == 10
    assert {json.loads(line)["code"] for line in text.splitlines()} == {
        r.code for r in full.rows
    }


def test_checkpoint_bad_inner_line_rejected(tmp_path):
    cp = tmp_path / "sweep5.jsonl"
    verify_theorem_1(5, checkpoint=str(cp))
    lines = cp.read_text().splitlines()
    cp.write_text("\n".join(lines[:2] + [lines[2][:25]] + lines[3:]) + "\n")
    with pytest.raises(VerificationError, match="line 3"):
        verify_theorem_1(5, checkpoint=str(cp))


def test_checkpoint_rows_on_disk_before_interrupt(tmp_path, monkeypatch):
    # a sweep killed mid-run must already have every finished row in the
    # file, not in a write buffer that dies with the process
    cp = tmp_path / "sweep6.jsonl"
    k = 7
    row = verify._row
    done = 0
    text = None

    # rows are solved a chunk at a time, then each goes through _row and on
    # to the file before the next one's verdict and rewiring
    def dies_after_k(*args, **kwargs):
        nonlocal done, text
        if done == k:
            text = cp.read_text()
            raise KeyboardInterrupt
        done += 1
        return row(*args, **kwargs)

    monkeypatch.setattr(verify, "_row", dies_after_k)
    with pytest.raises(KeyboardInterrupt):
        verify_theorem_1(6, checkpoint=str(cp))
    assert text.endswith("\n") and len(text.splitlines()) == k
    for line in text.splitlines():
        assert json.loads(line)["n"] == 6


def test_resumed_rows_built_by_row_from_stored_alpha(tmp_path, monkeypatch):
    # each stored line goes through the row builder of computed rows, with
    # its alpha in place of a Fiedler solve
    cp = tmp_path / "sweep5.jsonl"
    full = verify_theorem_1(5, checkpoint=str(cp))
    stored = [json.loads(line) for line in cp.read_text().splitlines()]
    row, calls = verify._row, []

    def recorded(rows, code, spec, hamiltonian, triple=None, alpha=None, f=None):
        calls.append((code, alpha))
        return row(rows, code, spec, hamiltonian, triple, alpha, f)

    def no_solve(batch):
        raise AssertionError("Fiedler solve for a resumed row")

    monkeypatch.setattr(verify, "_row", recorded)
    # sweep rows solve for their Fiedler vectors a batch at a time
    monkeypatch.setattr(verify, "_fiedlers", no_solve)
    resumed = verify_theorem_1(5, checkpoint=str(cp))
    assert calls == [(d["code"], d["alpha"]) for d in stored]
    assert resumed.rows == full.rows


def test_checkpoint_nan_alpha_violates_bound(tmp_path):
    cp = tmp_path / "sweep5.jsonl"
    verify_theorem_1(5, checkpoint=str(cp))
    lines = cp.read_text().splitlines()
    lines[0] = _edit_row(lines[0], alpha=math.nan, gap=math.nan)
    cp.write_text("\n".join(lines) + "\n")
    with pytest.raises(VerificationError, match="line 1: lower bound violated"):
        verify_theorem_1(5, checkpoint=str(cp))


@pytest.mark.parametrize(
    "code",
    # D]o relabels the class DFw; DBw (a 4-cycle with a pendant vertex)
    # is not biconnected
    ["D]o", "DBw"],
)
def test_checkpoint_row_outside_sweep_rejected(tmp_path, code):
    cp = tmp_path / "sweep5.jsonl"
    verify_theorem_1(5, checkpoint=str(cp))
    lines = cp.read_text().splitlines()
    (line,) = [line for line in lines if json.loads(line)["code"] == "DFw"]
    cp.write_text("\n".join(lines + [_edit_row(line, code=code)]) + "\n")
    with pytest.raises(VerificationError, match=f"line 11: code '{code}' is not a class"):
        verify_theorem_1(5, checkpoint=str(cp))


def test_float_policy_is_module_constants():
    assert (verify.EQUAL_TOL, verify.STRICT_MARGIN, verify.BOUND_SLACK) == (1e-8, 1e-10, 1e-10)
    assert not hasattr(verify, "Margins")
    assert not hasattr(algconn, "Margins") and "Margins" not in algconn.__all__


def test_records_store_only_what_was_measured(t1_small):
    # the summaries derive from the rows, the label and flag from the verdict
    assert [f.name for f in fields(verify.VerificationReport)] == ["theorem", "n", "rows", "runtime"]
    assert [f.name for f in fields(verify.EqualityClass)] == ["matched_spec", "alpha_gap", "flag_reason"]
    report = t1_small[5]
    assert report.count == len(report.rows) == 10
    assert report.alpha_cycle == alpha_cycle_closed_form(5)
    assert report.min_alpha == min(r.alpha for r in report.rows)
    assert report.flagged == ()
    labels = {r.code: r.equality.label for r in report.rows}
    assert labels[canonical_form(cycle_graph(5))] == "cycle"
    assert list(labels.values()).count(NOT_EXTREMAL) == 10 - len(equality_family_specs(5))
    assert all(isinstance(code, str) for code in labels)
    # row codes are plain graph6 text: enumeration exports no code type
    modules = {name: getattr(getattr(algconn, name), "__module__", None) for name in algconn.__all__}
    enumeration_names = sorted(name for name, mod in modules.items() if mod == "algconn.enumeration")
    assert enumeration_names == ["count_classes", "enumerate_graphs"]


def test_sweep_flags_survive_to_report(monkeypatch):
    monkeypatch.setattr(verify, "EQUAL_TOL", 10.0)
    report = verify_theorem_1(4)
    assert report.flagged == ("C~",)  # K4 matches nothing despite the wide filter
    (k4_row,) = [r for r in report.rows if r.code == "C~"]
    assert k4_row.equality.flagged and k4_row.equality.label == NOT_EXTREMAL


def test_sweep_raises_when_equality_member_lands_in_band(monkeypatch):
    monkeypatch.setattr(verify, "STRICT_MARGIN", 1e-30)
    with pytest.raises(VerificationError, match="equality set mismatch"):
        verify_theorem_1(4)


def test_sweep_raises_when_equality_class_missing(monkeypatch):
    # a sweep that never meets the cycle's class must name it as missing
    cycle = canonical_form(cycle_graph(5))
    codes_all = verify.class_codes

    def without_cycle(n, predicate):
        return tuple(c for c in codes_all(n, predicate) if c != cycle)

    monkeypatch.setattr(verify, "class_codes", without_cycle)
    with pytest.raises(VerificationError, match="order n = 5: enumerated 9, expected 10"):
        verify_theorem_1(5)
    # past a class count that agrees, the equality set still catches it
    monkeypatch.setitem(verify.BICONNECTED_CLASS_COUNTS, 5, 9)
    with pytest.raises(VerificationError) as info:
        verify_theorem_1(5)
    assert str(info.value) == f"equality set mismatch at n = 5: missing {[cycle]}"


@pytest.mark.parametrize(
    "sweep, match",
    [
        (lambda: verify_theorem_1(5), r"equality mismatch at D\S+: gap .* h1:n=5:i=1"),
        (lambda: verify_theorem_2(6), r"equality mismatch at theta\(1, 2, 2\) \(C\S\): gap"),
    ],
    ids=["t1", "t2"],
)
def test_sweep_raises_when_family_member_misses_filter(monkeypatch, sweep, match):
    # EQUAL_TOL = 1e-30 admits only exact zero gaps; the first family member
    # whose gap is a few ulps off zero must raise
    monkeypatch.setattr(verify, "EQUAL_TOL", 1e-30)
    with pytest.raises(VerificationError, match=match):
        sweep()


@pytest.mark.parametrize(
    "stage, error", [("fiedler_vector", ConvergenceError), ("rewire", RewireDefectError)]
)
@pytest.mark.parametrize("theorem", ["t1", "t2"])
def test_row_errors_name_stage_and_graph(monkeypatch, stage, error, theorem):
    def fails(*args):
        raise error("boom")

    # a sweep row reaches both stages through their rows entries; a batch
    # solve that fails is redone a graph at a time, so the first graph fails
    monkeypatch.setattr(verify, {"fiedler_vector": "_fiedlers", "rewire": "_rewire"}[stage], fails)
    if theorem == "t1":
        name = next(enumerate_graphs(4, is_biconnected)).to_graph6()
        sweep = lambda: verify_theorem_1(4)
    else:
        name = f"theta(1, 2, 2) ({canonical_form(realize(parse_family_text('theta:1,2,2')))})"
        sweep = lambda: verify_theorem_2(4)
    with pytest.raises(error) as info:
        sweep()
    assert str(info.value) == f"{stage} failed at {name}: boom"


def test_failed_batch_solve_names_the_graph_that_failed(monkeypatch, tmp_path):
    # the stacked solve of n = 5's ten classes fails because one matrix
    # does; solved one at a time, that graph's solve fails under its own
    # name, carrying its own Laplacian, after the rows before it are written
    codes = [g.to_graph6() for g in enumerate_graphs(5, is_biconnected)]
    bad = graph_from_graph6(codes[3]).laplacian().astype(float)
    eigh = np.linalg.eigh

    def fails_on_bad(a):
        if any(np.array_equal(m, bad) for m in a.reshape(-1, 5, 5)):
            raise np.linalg.LinAlgError("Eigenvalues did not converge")
        return eigh(a)

    monkeypatch.setattr(np.linalg, "eigh", fails_on_bad)
    cp = tmp_path / "sweep5.jsonl"
    with pytest.raises(ConvergenceError) as info:
        verify_theorem_1(5, checkpoint=str(cp))
    assert str(info.value).startswith(f"fiedler_vector failed at {codes[3]}: eigensolver failed")
    assert info.value.matrix.shape == (5, 5)
    assert np.array_equal(info.value.matrix, bad)
    assert [json.loads(line)["code"] for line in cp.read_text().splitlines()] == codes[:3]


@pytest.mark.parametrize("theorem", ["t1", "t2"])
def test_row_rejects_fiedler_pair_that_is_not_an_eigenpair(monkeypatch, theorem):
    # a sweep row checks the residual fiedler_vector reports instead of
    # measuring its own; a perturbed vector, with the residual computed
    # from it, must still be refused at the rewire stage
    fiedlers = verify._fiedlers

    def perturb(rows, f):
        x = f.vector.copy()
        x[0] += 1e-3
        lap = _graph_from_rows(rows).laplacian().astype(float)
        return replace(f, vector=x, residual=float(np.max(np.abs(lap @ x - f.alpha * x))))

    def perturbed(batch):
        return [perturb(rows, f) for rows, f in zip(batch, fiedlers(batch))]

    monkeypatch.setattr(verify, "_fiedlers", perturbed)
    sweep = verify_theorem_1 if theorem == "t1" else verify_theorem_2
    with pytest.raises(GraphError, match=r"^rewire failed at .*: vector/alpha pair is not an eigenpair"):
        sweep(4)


def theta_edges(l1, l2, l3):
    """The theta graph's edges, written out: poles 0 and l1, the l1 path
    through 1..l1-1, the l2 path through l1+1..l1+l2-1, the l3 path
    through the labels above."""
    n = l1 + l2 + l3 - 1
    edges = [(i, i + 1) for i in range(l1)]
    for first, last in ((l1 + 1, l1 + l2 - 1), (l1 + l2, n - 1)):
        edges += [(0, first), (last, l1)] + [(i, i + 1) for i in range(first, last)]
    return n, edges


def test_theta_rows_are_biconnected():
    # a theta row runs the rewiring without rewire's biconnectivity check,
    # which every theta triple in the sweep's range must therefore pass;
    # its rows come straight from the triple, and realize uses the same
    for n in range(4, 41):
        for triple in theta_triples(n):
            rows = _theta_rows(triple)
            assert rows == graph_from_edges(*theta_edges(*triple))._rows, triple
            g = realize(FamilySpec(FamilyKind.THETA, n, triple))
            assert g._rows == rows and g.n == n and is_biconnected(g), triple


@pytest.mark.parametrize("theorem", ["t1", "t2"])
def test_lower_bound_error_names_bound_slack(monkeypatch, theorem):
    # an eigensolver that reports alpha 1e-6 below alpha(C_n) must trip the
    # bound, and the error must name the gap and bound_slack
    fiedlers = verify._fiedlers

    def low(batch):
        alpha = alpha_cycle_closed_form(len(batch[0])) - 1e-6
        return [replace(f, alpha=alpha) for f in fiedlers(batch)]

    monkeypatch.setattr(verify, "_fiedlers", low)
    monkeypatch.setattr(verify, "BOUND_SLACK", 1e-9)
    sweep = verify_theorem_1 if theorem == "t1" else verify_theorem_2
    with pytest.raises(VerificationError) as info:
        sweep(4)
    message = str(info.value)
    assert "lower bound violated at " in message
    assert "below -bound_slack = -1e-09" in message
    gap = float(message.split(": gap ")[1].split(" ")[0])
    assert gap == pytest.approx(-1e-6, rel=1e-6)


def test_sweep_flags_weak_rewiring_drop(monkeypatch):
    # demand an absurd drop: both non-Hamiltonian classes at n = 5 get flagged
    monkeypatch.setattr(verify, "STRICT_MARGIN", 1.0)
    report = verify_theorem_1(5)
    assert len(report.flagged) == 2
    for code in report.flagged:
        assert hamiltonian_cycle(graph_from_graph6(code)) is None


# ---------------------------------------------------------------------------
# theta sweep
# ---------------------------------------------------------------------------


def test_theta_sweep_equality_triples():
    reports = verify_theorem_2(6)
    assert [r.n for r in reports] == [4, 5, 6]
    expected = {4: [(1, 2, 2)], 5: [(1, 2, 3)], 6: [(1, 2, 4), (1, 3, 3)]}
    for report in reports:
        assert report.flagged == ()
        assert report.count == len(theta_triples(report.n))
        eq = sorted(r.triple for r in report.rows if r.equality.label != NOT_EXTREMAL)
        assert eq == expected[report.n]
        for row in report.rows:
            assert row.hamiltonian == (row.triple[0] == 1)
            assert (row.equality.label != NOT_EXTREMAL) == (row.triple[0] == 1)
            assert row.alpha >= report.alpha_cycle - 1e-10


def test_theta_sweep_flags_ties_without_family_member(monkeypatch):
    # a wide filter makes every triple a numeric tie; only l1 = 1 has a member
    monkeypatch.setattr(verify, "EQUAL_TOL", 10.0)
    for report in verify_theorem_2(6):
        no_member = [r for r in report.rows if r.triple[0] >= 2]
        assert report.flagged == tuple(sorted(r.code for r in no_member))
        for row in no_member:
            assert row.equality.label == NOT_EXTREMAL
            assert "no equality family member" in row.equality.flag_reason


def test_theta_sweep_rows_sorted_by_code():
    for report in verify_theorem_2(8):
        codes = [r.code for r in report.rows]
        assert codes == sorted(codes)


def test_theta_sweep_range():
    with pytest.raises(VerificationError):
        verify_theorem_2(3)
    with pytest.raises(VerificationError):
        verify_theorem_2(41)
    with pytest.raises(VerificationError, match="5.5"):
        verify_theorem_2(5.5)


# ---------------------------------------------------------------------------
# serialization
# ---------------------------------------------------------------------------


def test_csv_shape_and_quoting(t1_small):
    text = report_to_csv([t1_small[6]])
    rows = list(csv.reader(io.StringIO(text)))
    assert tuple(rows[0]) == CSV_COLUMNS
    assert len(rows) == 1 + 56
    assert all(len(r) == len(CSV_COLUMNS) for r in rows)
    specs = {r[6] for r in rows[1:]}
    assert "h2:n=6:i=1,2" in specs  # comma survives inside one field
    assert {r[7] for r in rows[1:]} <= {"true", "false"}
    raw_line = [l for l in text.splitlines() if "i=1,2" in l]
    assert raw_line and '"h2:n=6:i=1,2"' in raw_line[0]


# each CSV column and the JSON row field it holds
CSV_NAMES = {
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


def _csv_cell(value):
    if value is None:
        return ""
    if isinstance(value, bool):
        return "true" if value else "false"
    return repr(value) if isinstance(value, float) else str(value)


@pytest.mark.parametrize("theorem", ["t1", "t2"])
def test_csv_lines_are_json_rows_renamed(t1_small, theorem):
    reports = [t1_small[6]] if theorem == "t1" else verify_theorem_2(10)
    lines = list(csv.reader(io.StringIO(report_to_csv(reports))))
    assert tuple(lines[0]) == CSV_COLUMNS == tuple(CSV_NAMES)
    want = [
        [_csv_cell(row[field]) for field in CSV_NAMES.values()]
        for report in reports
        for row in json.loads(report_to_json(report))["rows"]
    ]
    assert lines[1:] == want


def test_csv_floats_roundtrip(t1_small):
    text = report_to_csv([t1_small[4]])
    for row in list(csv.reader(io.StringIO(text)))[1:]:
        alpha = float(row[2])
        match = [r for r in t1_small[4].rows if r.code == row[1]]
        assert match and match[0].alpha == alpha  # repr() roundtrips exactly


def test_json_schema_and_determinism(t1_small):
    report = t1_small[5]
    payload = json.loads(report_to_json(report))
    assert payload["schema"] == 1
    assert payload["theorem"] == "t1"
    assert payload["count"] == 10
    assert len(payload["rows"]) == 10
    fresh = verify_theorem_1(5)
    a = report_to_dict(report)
    b = report_to_dict(fresh)
    a.pop("runtime"), b.pop("runtime")
    assert json.dumps(a, sort_keys=True) == json.dumps(b, sort_keys=True)


# ---------------------------------------------------------------------------
# streamed writers: the bytes of the whole-string dumps, a block at a time
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def t2_24():
    return verify_theorem_2(24)


@pytest.mark.parametrize("n", [4, 5, 6, 7])
def test_json_writer_is_dumps_of_the_report(t1_reports, n):
    report = t1_reports[n]
    want = json.dumps(report_to_dict(report), indent=2, sort_keys=True)
    buf = io.StringIO()
    write_json(report, buf)
    assert buf.getvalue() == want + "\n"
    assert report_to_json(report) == want


@pytest.mark.parametrize(
    "value",
    [
        {"b": [1, [], [2, [3.5]]], "a": {}, "c": {"z": None, "y": [True, False]}},
        [math.nan, math.inf, -math.inf, -0.0, 1e300, 5e-324, 2**70],
        ["h1:n=9:i=1,3", "tab\tquote\"back\\slash", "caf\u00e9 \u2603"],
        (np.float64(0.1), (1, 2)),
        {"100%": [3, -2**70, 0], "%s": {"%%d": []}},
        [],
        "",
    ],
)
def test_json_text_is_dumps_indent_2(value):
    want = json.dumps(value, indent=2, sort_keys=True)
    assert json_text(value) == want
    assert json_text(value, "\n    ") == want.replace("\n", "\n    ")


def test_json_text_refuses_what_dumps_refuses():
    for value in (np.int64(3), {1, 2}, object()):
        with pytest.raises(TypeError):
            json.dumps(value)
        with pytest.raises(TypeError):
            json_text(value)


@pytest.mark.parametrize("n_max", [4, 12, 24])
def test_json_writer_is_dumps_of_the_report_list(t2_24, n_max):
    # the reports of verify_theorem_2(n_max), orders 4..n_max
    reports = t2_24[: n_max - 3]
    assert reports[-1].n == n_max
    want = json.dumps([report_to_dict(r) for r in reports], indent=2, sort_keys=True)
    first, second = io.StringIO(), io.StringIO()
    write_json(reports, first, second)
    assert first.getvalue() == second.getvalue() == want + "\n"


# sha256 of `verify t1 --n 7 --csv` and `verify t2 --n-max 24 --csv`,
# taken when the CSV was built in a StringIO and then written whole
CSV_DIGESTS = {
    "t1": "bc5fe2b6aa49bc4cd61b233e8fefb46daecdf0739686b6fd3a690b15dea6b9a7",
    "t2": "572f36f8d5a3c7f434ad65434876a5469507a10b6cd3efc8d4821b6d129e763a",
}


@pytest.mark.parametrize("theorem", ["t1", "t2"])
def test_csv_writer_bytes_pinned(t1_reports, t2_24, tmp_path, theorem):
    reports = [t1_reports[7]] if theorem == "t1" else t2_24
    path = tmp_path / "r.csv"
    with open(path, "w", encoding="ascii") as fh:
        write_csv(reports, fh)
    data = path.read_bytes()
    assert hashlib.sha256(data).hexdigest() == CSV_DIGESTS[theorem]
    assert data.decode("ascii") == report_to_csv(reports)


class _CharCount:
    """A sink that keeps only how many characters reached it."""

    def __init__(self):
        self.size = 0

    def write(self, text):
        self.size += len(text)


def _json_writer_peak(reports):
    sink = _CharCount()
    gc.collect()
    tracemalloc.start()
    try:
        write_json(reports, sink)
        return tracemalloc.get_traced_memory()[1], sink.size
    finally:
        tracemalloc.stop()


def test_json_writer_heap_does_not_grow_with_rows(t2_24):
    # --n-max 12 has 56 rows and --n-max 24 has 435; the writer holds one
    # block and one row at a time, where a whole-string dump of the 435
    # rows peaks at several times its own length
    small, small_size = _json_writer_peak(t2_24[:9])
    big, big_size = _json_writer_peak(t2_24)
    assert big_size > 7 * small_size
    assert big < 1.5 * small


# ---------------------------------------------------------------------------
# golden reports: `verify t1 --n 6` and `verify t2 --n-max 10` JSON
# ---------------------------------------------------------------------------


def test_t1_report_matches_golden(t1_small):
    want = json.loads((DATA / "verify_t1_n6.json").read_text())
    assert_matches_golden(report_to_dict(t1_small[6]), want)


def test_t2_report_matches_golden():
    want = json.loads((DATA / "verify_t2_nmax10.json").read_text())
    assert_matches_golden([report_to_dict(r) for r in verify_theorem_2(10)], want)
