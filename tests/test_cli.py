"""Command-line surface: subcommands, exit codes, file outputs."""

import csv
import io
import json
import subprocess

import pytest

from algconn.canon import is_isomorphic
from algconn.cli import cli_dispatch, main
from algconn.families import cycle_graph, realize, parse_family_text
from algconn.graphs import graph_from_graph6

C5 = cycle_graph(5).to_graph6()
C6 = cycle_graph(6).to_graph6()
K23 = realize(parse_family_text("theta:2,2,2")).to_graph6()


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestAlpha:
    def test_cycle_json(self, capsys):
        code, out, err = run(capsys, "alpha", C6)
        assert code == 0 and err == ""
        payload = json.loads(out)
        assert abs(payload["alpha"] - 1.0) <= 1e-9
        assert payload["multiplicity"] == 2
        assert len(payload["vector"]) == 6
        assert payload["residual"] <= 1e-8

    def test_edge_text_accepted(self, capsys):
        code, out, _ = run(capsys, "alpha", "6; 0-1, 1-2, 2-3, 3-4, 4-5, 0-5")
        assert code == 0
        assert abs(json.loads(out)["alpha"] - 1.0) <= 1e-9

    def test_bad_graph_exits_1(self, capsys):
        code, out, err = run(capsys, "alpha", "not a graph")
        assert code == 1
        assert err.startswith("error:")


class TestFamilies:
    def test_gen_cycle(self, capsys):
        code, out, _ = run(capsys, "families", "gen", "cycle:12")
        assert code == 0
        assert graph_from_graph6(out.strip()) == cycle_graph(12)

    def test_gen_theta(self, capsys):
        code, out, _ = run(capsys, "families", "gen", "theta:2,2,2")
        assert code == 0
        assert is_isomorphic(graph_from_graph6(out.strip()), graph_from_graph6(K23))

    def test_bad_spec_exits_1(self, capsys):
        code, _, err = run(capsys, "families", "gen", "h1:n=6:i=1")  # h1 needs odd n
        assert code == 1 and err.startswith("error:")


class TestTheta:
    def test_cycle_is_not_theta(self, capsys):
        assert run(capsys, "theta", "check", C5) == (0, "false\n", "")

    def test_diamond_is_theta(self, capsys):
        code, out, _ = run(capsys, "theta", "check", "4; 0-1, 1-2, 2-3, 0-3, 0-2")
        assert (code, out) == (0, "true\n")


class TestRewire:
    def test_certificate_json(self, capsys):
        code, out, _ = run(capsys, "rewire", K23)
        assert code == 0
        cert = json.loads(out)
        g_prime = graph_from_graph6(cert["g_prime"])
        assert is_isomorphic(g_prime, cycle_graph(5))
        assert cert["q_gprime"] <= cert["q_g"] + 1e-12
        assert cert["alpha_gprime"] < cert["alpha_g"] - 1e-10

    def test_certificate_text(self, capsys):
        code, out, _ = run(capsys, "rewire", "--text", K23)
        assert code == 0
        fields = dict(
            line.split(":", 1) for line in out.strip().splitlines() if ":" in line
        )
        assert "alpha_g" in fields and "g_prime" in fields

    def test_non_biconnected_exits_1(self, capsys):
        code, _, err = run(capsys, "rewire", "4; 0-1, 1-2, 2-3")
        assert code == 1 and err.startswith("error:")


class TestEnumerate:
    def test_biconnected_default(self, capsys):
        code, out, _ = run(capsys, "enumerate", "--n", "5")
        assert code == 0
        lines = out.splitlines()
        assert len(lines) == 10
        assert lines == sorted(lines)

    def test_connected_predicate(self, capsys):
        code, out, _ = run(capsys, "enumerate", "--n", "5", "--predicate", "connected")
        assert code == 0 and len(out.splitlines()) == 21

    def test_out_file(self, capsys, tmp_path):
        target = tmp_path / "graphs.g6"
        code, out, _ = run(capsys, "enumerate", "--n", "4", "--out", str(target))
        assert code == 0 and out == ""
        assert len(target.read_text().splitlines()) == 3

    def test_seed_does_not_change_output(self, capsys):
        _, plain, _ = run(capsys, "enumerate", "--n", "5")
        _, seeded, _ = run(capsys, "enumerate", "--n", "5", "--seed", "3")
        assert plain == seeded

    def test_order_cap_exits_1(self, capsys):
        code, _, err = run(capsys, "enumerate", "--n", "12")
        assert code == 1 and err.startswith("error:")


class TestVerify:
    def test_t1_n5(self, capsys):
        code, out, err = run(capsys, "verify", "t1", "--n", "5")
        assert code == 0 and err == ""
        payload = json.loads(out)
        assert payload["schema"] == 1
        assert payload["count"] == 10
        assert payload["flagged"] == []

    def test_t1_jobs_and_checkpoint(self, capsys, tmp_path):
        cp = tmp_path / "rows.jsonl"
        code, out, _ = run(
            capsys, "verify", "t1", "--n", "5", "--jobs", "2", "--checkpoint", str(cp)
        )
        assert code == 0
        assert len(cp.read_text().splitlines()) == 10

    def test_t1_edited_checkpoint_exits_1(self, capsys, tmp_path):
        cp = tmp_path / "rows.jsonl"
        run(capsys, "verify", "t1", "--n", "5", "--checkpoint", str(cp))
        lines = cp.read_text().splitlines()
        row = json.loads(lines[0])
        row.update(alpha=99.0, gap=-5.0)
        cp.write_text("\n".join([json.dumps(row)] + lines[1:]) + "\n")
        code, out, err = run(capsys, "verify", "t1", "--n", "5", "--checkpoint", str(cp))
        assert code == 1 and out == ""
        assert err.startswith("error:") and "line 1" in err

    def test_t1_report_files(self, capsys, tmp_path):
        jpath, cpath = tmp_path / "r.json", tmp_path / "r.csv"
        code, out, _ = run(
            capsys, "verify", "t1", "--n", "4",
            "--json", str(jpath), "--csv", str(cpath),
        )
        assert code == 0
        assert json.loads(jpath.read_text())["count"] == 3
        rows = list(csv.reader(io.StringIO(cpath.read_text())))
        assert rows[0][0] == "n" and len(rows) == 4

    def test_t2_multi_report_array(self, capsys):
        code, out, _ = run(capsys, "verify", "t2", "--n-max", "6")
        assert code == 0
        payload = json.loads(out)
        assert [r["n"] for r in payload] == [4, 5, 6]
        assert all(r["schema"] == 1 for r in payload)

    def test_wide_tolerance_flags_and_exits_1(self, capsys):
        code, out, err = run(capsys, "verify", "t1", "--n", "4", "--tol", "10.0")
        assert code == 1
        assert "FLAGGED" in err

    def test_out_of_range_exits_1(self, capsys):
        code, _, err = run(capsys, "verify", "t1", "--n", "3")
        assert code == 1 and err.startswith("error:")


class TestUsage:
    def test_no_command(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main([])
        assert exc.value.code == 2

    def test_unknown_command(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["frobnicate"])
        assert exc.value.code == 2

    def test_missing_required_flag(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["enumerate"])
        assert exc.value.code == 2


def test_dispatch_alias():
    assert cli_dispatch is main


def test_console_script_installed():
    proc = subprocess.run(
        ["algconn", "theta", "check", C5], capture_output=True, text=True, timeout=120
    )
    assert proc.returncode == 0
    assert proc.stdout == "false\n"
