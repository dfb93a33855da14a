"""Sweep harness behavior: classification verdicts, reports, serialization."""

import csv
import io
import json

import pytest

from algconn.connectivity import hamiltonian_cycle, is_biconnected
from algconn.errors import VerificationError
from algconn.families import (
    FamilyKind,
    FamilySpec,
    cycle_graph,
    equality_family_specs,
    theta_triples,
)
from algconn.graphs import graph_from_edges, graph_from_graph6
from algconn.spectra import alpha_cycle_closed_form
from algconn.verify import (
    CSV_COLUMNS,
    Margins,
    NOT_EXTREMAL,
    _row_from_dict,
    _row_to_dict,
    classify_equality,
    report_to_csv,
    report_to_dict,
    report_to_json,
    verify_theorem_1,
    verify_theorem_2,
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


def test_classify_flag_no_family_member():
    # widen the equality filter until K4 looks like a tie: the canonical-form
    # cross-check must refuse it and flag instead of reporting equality
    eq = classify_equality(complete_graph(4), Margins(equal_tol=10.0))
    assert eq.label == NOT_EXTREMAL
    assert eq.flagged
    assert "no equality family member" in eq.flag_reason


def test_classify_flag_ambiguity_band():
    # exact equality member whose float gap cannot clear a zero margin
    diamond = graph_from_edges(4, [(0, 1), (1, 2), (2, 3), (3, 0), (0, 2)])
    eq = classify_equality(diamond, Margins(strict_margin=0.0))
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
        attained = {r.code.code for r in report.rows if r.equality.label != NOT_EXTREMAL}
        expected = {code for _, _, code in equality_family_specs(n)}
        assert attained == expected


def test_sweep_rows_self_consistent(t1_small):
    for report in t1_small.values():
        for row in report.rows:
            g = graph_from_graph6(row.code.code)
            assert is_biconnected(g)
            assert row.hamiltonian == (hamiltonian_cycle(g) is not None)
            if not row.hamiltonian:
                assert row.rewire_drop > 1e-10
            if row.equality.label != NOT_EXTREMAL:
                assert abs(row.equality.alpha_gap) <= 1e-8
            else:
                assert row.equality.alpha_gap > 1e-8


def test_sweep_order_range():
    with pytest.raises(VerificationError):
        verify_theorem_1(3)
    with pytest.raises(VerificationError):
        verify_theorem_1(10)


def test_sweep_deterministic():
    a = verify_theorem_1(4)
    b = verify_theorem_1(4)
    assert a.rows == b.rows
    assert a.flagged == b.flagged


def test_sweep_parallel_matches_serial():
    serial = verify_theorem_1(5)
    parallel = verify_theorem_1(5, jobs=2)
    assert parallel.rows == serial.rows


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


def test_checkpoint_resumed_rows_follow_current_margins(tmp_path):
    cp = tmp_path / "sweep5.jsonl"
    verify_theorem_1(5, checkpoint=str(cp))
    strict = Margins(strict_margin=1.0)
    assert verify_theorem_1(5, strict, checkpoint=str(cp)).rows == verify_theorem_1(5, strict).rows


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
    assert {_row_from_dict(json.loads(line)).code for line in text.splitlines()} == {
        r.code for r in full.rows
    }


def test_checkpoint_bad_inner_line_rejected(tmp_path):
    cp = tmp_path / "sweep5.jsonl"
    verify_theorem_1(5, checkpoint=str(cp))
    lines = cp.read_text().splitlines()
    cp.write_text("\n".join(lines[:2] + [lines[2][:25]] + lines[3:]) + "\n")
    with pytest.raises(VerificationError, match="line 3"):
        verify_theorem_1(5, checkpoint=str(cp))


def test_sweep_flags_survive_to_report():
    report = verify_theorem_1(4, Margins(equal_tol=10.0))
    assert report.flagged == ("C~",)  # K4 matches nothing despite the wide filter
    (k4_row,) = [r for r in report.rows if r.code.code == "C~"]
    assert k4_row.equality.flagged and k4_row.equality.label == NOT_EXTREMAL


def test_sweep_raises_when_equality_member_lands_in_band():
    with pytest.raises(VerificationError, match="equality set mismatch"):
        verify_theorem_1(4, Margins(strict_margin=1e-30))


def test_sweep_flags_weak_rewiring_drop():
    # demand an absurd drop: both non-Hamiltonian classes at n = 5 get flagged
    report = verify_theorem_1(5, Margins(strict_margin=1.0))
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


def test_theta_sweep_rows_sorted_by_code():
    for report in verify_theorem_2(8):
        codes = [r.code for r in report.rows]
        assert codes == sorted(codes)


def test_theta_sweep_range():
    with pytest.raises(VerificationError):
        verify_theorem_2(3)
    with pytest.raises(VerificationError):
        verify_theorem_2(41)


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


def test_csv_floats_roundtrip(t1_small):
    text = report_to_csv([t1_small[4]])
    for row in list(csv.reader(io.StringIO(text)))[1:]:
        alpha = float(row[2])
        match = [r for r in t1_small[4].rows if r.code.code == row[1]]
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


def test_row_dict_roundtrip(t1_small):
    for report in t1_small.values():
        for row in report.rows:
            assert _row_from_dict(json.loads(json.dumps(_row_to_dict(row)))) == row
    for report in verify_theorem_2(5):
        for row in report.rows:
            assert _row_from_dict(_row_to_dict(row)) == row
