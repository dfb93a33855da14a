"""Command-line surface: subcommands, exit codes, file outputs."""

import atexit
import csv
import gc
import io
import json
import os
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import pytest

import algconn
from algconn import cli, verify
from algconn.canon import is_isomorphic
from algconn.connectivity import is_connected
from algconn.enumeration import enumerate_graphs
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

    def test_bad_spec_names_fault(self, capsys):
        code, out, err = run(capsys, "families", "gen", "cycle:2")
        assert (code, out) == (1, "")
        assert err == "error: cycle needs n >= 3, got n = 2\n"


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

    def test_seed_does_not_change_output(self, capsys, canonical_calls):
        _, plain, _ = run(capsys, "enumerate", "--n", "5")
        canonical_calls.clear()
        _, seeded, _ = run(capsys, "enumerate", "--n", "5", "--seed", "3")
        # the plain run cached every level, so only a rebuild canonicalizes
        assert plain == seeded and canonical_calls

    @pytest.mark.parametrize("seed", [[], ["--seed", "4"]], ids=["plain", "seeded"])
    def test_lines_are_the_graphs_in_graph6(self, capsys, seed):
        # the command writes the class codes it has, without a decode and
        # re-encode; those are the graph6 lines of the enumerated graphs
        _, out, _ = run(capsys, "enumerate", "--n", "6", "--predicate", "connected", *seed)
        graphs = enumerate_graphs(6, is_connected)
        assert out == "".join(g.to_graph6() + "\n" for g in graphs)

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
        code, out, _ = run(capsys, "verify", "t1", "--n", "5", "--checkpoint", str(cp))
        assert code == 0
        assert len(cp.read_text().splitlines()) == 10
        # the sweep has one serial path and no --jobs option
        with pytest.raises(SystemExit) as exc:
            main(["verify", "t1", "--n", "5", "--jobs", "2"])
        assert exc.value.code == 2

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

    def test_tol_is_usage_error(self, capsys):
        # the float policy is fixed in the verify module; no option moves it
        with pytest.raises(SystemExit) as exc:
            main(["verify", "t1", "--n", "5", "--tol", "1e-8"])
        assert exc.value.code == 2
        assert "unrecognized arguments: --tol 1e-8" in capsys.readouterr().err

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

    @pytest.mark.parametrize("sweep", [("t1", "--n", "6"), ("t2", "--n-max", "12")], ids=["t1", "t2"])
    def test_stdout_is_the_json_file(self, capsys, tmp_path, sweep):
        # one writer feeds both, so they hold the same bytes
        jpath = tmp_path / "r.json"
        code, out, _ = run(capsys, "verify", *sweep, "--json", str(jpath))
        assert code == 0
        assert out.encode("ascii") == jpath.read_bytes()
        assert json.loads(out)

    def test_t2_multi_report_array(self, capsys):
        # t2 prints a list even when --n-max 4 leaves one report
        for n_max, orders in (("6", [4, 5, 6]), ("4", [4])):
            code, out, _ = run(capsys, "verify", "t2", "--n-max", n_max)
            assert code == 0
            payload = json.loads(out)
            assert [r["n"] for r in payload] == orders
            assert all(r["schema"] == 1 for r in payload)

    def test_wide_tolerance_flags_and_exits_1(self, capsys, monkeypatch):
        monkeypatch.setattr(verify, "EQUAL_TOL", 10.0)
        for sweep in (("t1", "--n", "4"), ("t2", "--n-max", "6")):
            code, out, err = run(capsys, "verify", *sweep)
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


def package_env():
    """os.environ for a child Python that imports the package these tests import."""
    src = str(Path(algconn.__file__).resolve().parents[1])
    path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
    return dict(os.environ, PYTHONPATH=path)


def run_module(*args):
    """Start `python -m algconn ARGS` on the package these tests import."""
    return subprocess.Popen(
        [sys.executable, "-m", "algconn", *args],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        env=package_env(),
    )


def test_python_dash_m_runs_the_cli():
    out, err = run_module("theta", "check", "5; 0-1, 1-2, 2-3, 3-4, 0-4").communicate(timeout=120)
    assert (out, err) == (b"false\n", b"")


def test_cli_import_loads_no_logging_or_process_pools():
    # every launch pays for what the CLI imports, so none of these heavy
    # modules may come in with it
    code = (
        "import sys, algconn.cli; "
        "print(*[m for m in ('logging', 'concurrent.futures', 'multiprocessing') if m in sys.modules])"
    )
    proc = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, env=package_env(), timeout=120
    )
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, "\n", "")


def test_closed_stdout_exits_1_without_traceback():
    # the report is about 200K characters, past a pipe's buffer, so the
    # writer is still writing when the reader closes the pipe
    with run_module("verify", "t2", "--n-max", "24") as proc:
        assert proc.stdout.readline() == b"[\n"
        proc.stdout.close()
        err = proc.stderr.read()
        assert proc.wait(timeout=120) == 1
    assert b"Traceback" not in err


def test_exit_hook_registered_once_and_heap_left_alone(capsys, monkeypatch):
    # main has gc.freeze run at exit, registered once per process, and
    # in-process calls freeze nothing
    registered = []
    monkeypatch.setattr(atexit, "register", registered.append)
    cli._freeze_heap_at_exit.cache_clear()
    for _ in range(3):
        assert main(["theta", "check", C5]) == 0
    assert registered == [gc.freeze]
    assert gc.get_freeze_count() == 0


def test_module_run_writes_complete_report_files(tmp_path):
    # the report files are whole when the process has exited: byte-equal to
    # the writers' output in-process, given the run's own runtimes
    jpath, cpath = tmp_path / "r.json", tmp_path / "r.csv"
    proc = run_module("verify", "t2", "--n-max", "6", "--json", str(jpath), "--csv", str(cpath))
    out, err = proc.communicate(timeout=120)
    assert proc.returncode == 0 and err == b""
    runtimes = [r["runtime"] for r in json.loads(jpath.read_text())]
    reports = [replace(r, runtime=t) for r, t in zip(verify.verify_theorem_2(6), runtimes)]
    want_json, want_csv = io.StringIO(), io.StringIO()
    verify.write_json(reports, want_json)
    verify.write_csv(reports, want_csv)
    assert jpath.read_bytes() == out == want_json.getvalue().encode("ascii")
    assert cpath.read_bytes() == want_csv.getvalue().encode("ascii")
