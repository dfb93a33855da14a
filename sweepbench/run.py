"""Sweep benchmark for algconn: three workloads, end to end and per layer.

    python3 sweepbench/run.py --workload t1-n7 --seed 1 --seconds 35 --trace 0
    python3 sweepbench/run.py --workload all --seed 1 --seconds 35 --trace 1 --out FILE

--trace 0 measures the end-to-end metrics with nothing wrapped. --trace 1
makes one untraced pass, one traced pass and the layer probes, and reports
the per-layer metrics. Every output is checked by the gates in gates.py;
the last stdout line is one JSON object (correct, attempted, failed,
metrics), and the exit code is 1 when any gate failed. Run from anywhere
inside a checkout: the package is imported from the checkout's src/.
See README.md beside this file for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time
from importlib import metadata, util
from pathlib import Path

import gates
from child import CERTIFY_GRAPHS
from tracing import layer_metrics

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
SETUP_SAMPLES = 7
CHILD_TIMEOUT_S = 170
# single-threaded closed loop: one caller, one BLAS thread
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")

SWEEPS = {
    "t1-n7": {"cli": ["verify", "t1", "--n", "7"], "checkpoint": True,
              "rows": gates.BICONNECTED_CLASSES[7]},
    "t2-n24": {"cli": ["verify", "t2", "--n-max", "24"], "checkpoint": False,
               "rows": sum(gates.theta_triple_count(n) for n in range(4, 25))},
}
WORKLOADS = (*SWEEPS, "certify")



def declared_units(trace):
    """Metric name -> unit, as BENCHMARK.json declares them for this level."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def percentile(values, q):
    """Nearest-rank percentile."""
    ordered = sorted(values)
    return ordered[max(0, -(-len(ordered) * q // 100) - 1)]


class Runner:
    """Launches child processes in a scratch directory inside the checkout."""

    def __init__(self, tmp: Path):
        self.tmp = tmp
        self.count = 0
        self.env = dict(os.environ, PYTHONPATH=str(SRC), PYTHONHASHSEED="0")
        self.env.update({var: "1" for var in THREAD_VARS})

    def path(self, stem):
        self.count += 1
        return self.tmp / f"{self.count}-{stem}"

    def launch(self, mode, *opts, tail=(), stdout=None):
        """Run child.py MODE OPTS STAMP TAIL; return set-up, wall, peak RSS, exit code."""
        stamp = self.path("stamp")
        with open(stdout or os.devnull, "wb") as out:
            t0 = time.monotonic()
            proc = subprocess.Popen(
                [sys.executable, str(HERE / "child.py"), mode, *opts, str(stamp), *tail],
                stdout=out, env=self.env, cwd=ROOT,
            )
            killer = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
            killer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            finally:
                killer.cancel()
            wall = time.monotonic() - t0
        proc.returncode = os.waitstatus_to_exitcode(status)
        setup = float(stamp.read_text()) - t0 if stamp.exists() else None
        return {"setup_s": setup, "wall_s": wall, "rss_mb": usage.ru_maxrss / 1024,
                "rc": proc.returncode}

    def fill_setups(self, setups, mode, *args):
        while len(setups) < SETUP_SAMPLES:
            s = self.launch(mode, *args)
            if s["setup_s"] is None:
                raise RuntimeError(f"set-up child failed with exit code {s['rc']}")
            setups.append(s["setup_s"])
        return statistics.median(setups)

    def sweep(self, name, trace=False):
        """One CLI sweep in a fresh process, gated; returns the sample and its files."""
        spec = SWEEPS[name]
        files = {k: self.path(k) for k in ("stdout", "json", "csv", "checkpoint")}
        cli = spec["cli"] + ["--json", str(files["json"]), "--csv", str(files["csv"])]
        if spec["checkpoint"]:
            cli += ["--checkpoint", str(files["checkpoint"])]
        spans = self.path("spans")
        extra = ["--trace", str(spans)] if trace else []
        s = self.launch("sweep", *extra, tail=cli, stdout=files["stdout"])
        text = {k: p.read_text() if p.exists() else "" for k, p in files.items()}
        try:
            if spec["checkpoint"]:
                fails = gates.check_t1(7, s["rc"], text["stdout"], text["json"], text["csv"],
                                       text["checkpoint"])
            else:
                fails = gates.check_t2(24, s["rc"], text["stdout"], text["json"], text["csv"])
        except (ValueError, KeyError, TypeError, IndexError) as exc:
            fails = [f"unreadable report: {exc!r}"]
        s["fails"] = fails
        s["bytes"] = sum(len(t.encode()) for t in text.values())
        s["spans"] = json.loads(spans.read_text()) if trace and spans.exists() else None
        return s

    def certify(self, seed, seconds, trace=False):
        out, spans = self.path("certify.json"), self.path("spans")
        extra = ["--trace", str(spans)] if trace else []
        s = self.launch("certify", "--seed", str(seed), "--seconds", str(seconds),
                        "--out", str(out), *extra)
        if s["rc"] != 0 or not out.exists():
            raise RuntimeError(f"certify child failed with exit code {s['rc']}")
        s.update(json.loads(out.read_text()))
        s["spans"] = json.loads(spans.read_text()) if trace else None
        return s


def end_to_end_sweep(runner, name, seconds):
    # another sweep starts only if one as long as the last still fits the window
    start, samples = time.monotonic(), []
    while not samples or time.monotonic() - start + samples[-1]["wall_s"] <= seconds:
        samples.append(runner.sweep(name))
    setups = [s["setup_s"] for s in samples if s["setup_s"] is not None]
    setup = runner.fill_setups(setups, "ready")
    walls = [s["wall_s"] for s in samples]
    rows = SWEEPS[name]["rows"]
    metrics = {
        "setup_s": setup,
        "wall_s": statistics.median(walls),
        "rows_per_s": statistics.median(rows / (s["wall_s"] - setup) for s in samples),
        "peak_rss_mb": statistics.median(s["rss_mb"] for s in samples),
        "p50_ms": 1e3 * statistics.median(walls),
        "p95_ms": 1e3 * percentile(walls, 95),
    }
    failed = sum(min(rows, len(s["fails"])) for s in samples)
    return metrics, rows * len(samples), failed, [f for s in samples for f in s["fails"]], len(walls)


def end_to_end_certify(runner, seed, seconds):
    s = runner.certify(seed, seconds)
    setup = runner.fill_setups([s["setup_s"]], "certify", "--seed", str(seed), "--setup-only")
    lat = s["latencies_s"]
    metrics = {
        "setup_s": setup,
        "wall_s": sum(lat) * CERTIFY_GRAPHS / len(lat),
        "rows_per_s": len(lat) / sum(lat),
        "peak_rss_mb": s["rss_mb"],
        "p50_ms": 1e3 * statistics.median(lat),
        "p95_ms": 1e3 * percentile(lat, 95),
    }
    return metrics, s["attempted"], s["failed"], s["fails"], len(lat)


def probes(runner):
    out = runner.path("probes.json")
    subprocess.run([sys.executable, str(HERE / "child.py"), "probes", "--out", str(out)],
                   env=runner.env, cwd=ROOT, check=True, timeout=CHILD_TIMEOUT_S)
    return json.loads(out.read_text())


def per_layer(runner, name, seed):
    """An untraced and a traced pass of the workload, then the probes."""
    if name == "certify":
        plain = runner.certify(seed, 0)
        traced = runner.certify(seed, 0, trace=True)
        wall, base = sum(traced["latencies_s"]), sum(plain["latencies_s"])
        attempted = plain["attempted"] + traced["attempted"]
        failed = plain["failed"] + traced["failed"]
        fails = plain["fails"] + traced["fails"]
        out_bytes = traced["bytes"]
        startup_in_wall = 0.0
    else:
        plain, traced = runner.sweep(name), runner.sweep(name, trace=True)
        wall, base = traced["wall_s"], plain["wall_s"]
        rows = SWEEPS[name]["rows"]
        attempted = 2 * rows
        failed = sum(min(rows, len(s["fails"])) for s in (plain, traced))
        fails = plain["fails"] + traced["fails"]
        out_bytes = traced["bytes"]
        startup_in_wall = traced["setup_s"]
    metrics = layer_metrics(traced["spans"])
    metrics.update({
        "serialize.bytes": out_bytes,
        "process.startup_s": traced["setup_s"],
        "trace.wall_s": wall,
        "trace.overhead_s": wall - base,
        "trace.unattributed_s": wall - startup_in_wall - metrics["trace.self_sum_s"],
    })
    metrics.update(probes(runner))
    return metrics, attempted, failed, fails, len(traced["spans"])


def environment():
    """Where a result was measured: interpreter, numpy, cores, BLAS threads, CPU, commit."""
    cpu = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo", encoding="ascii", errors="replace") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    return {
        "python": platform.python_version(),
        "numpy": metadata.version("numpy"),
        "nproc": len(os.sched_getaffinity(0)),
        "numba": util.find_spec("numba") is not None,
        "blas_threads": {var: "1" for var in THREAD_VARS},
        "cpu": cpu,
        "commit": git_commit(),
    }


def git_commit():
    """HEAD read from .git without running git; None outside a git checkout."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def run_workload(runner, name, seed, seconds, trace):
    if trace:
        return per_layer(runner, name, seed)
    if name == "certify":
        return end_to_end_certify(runner, seed, seconds)
    return end_to_end_sweep(runner, name, seconds)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", choices=(*WORKLOADS, "all"), required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=35)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", help="merge the stamped result into this JSON file")
    args = parser.parse_args(argv)
    if not (SRC / "algconn" / "__init__.py").is_file():
        print(f"no algconn package under {SRC}", file=sys.stderr)
        return 2

    units = declared_units(args.trace)
    env = environment()
    print("env " + json.dumps(env, sort_keys=True))
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    tmp = ROOT / ".bench_tmp" / f"{os.getpid()}"
    tmp.mkdir(parents=True, exist_ok=True)
    results = {}
    try:
        runner = Runner(tmp)
        for name in names:
            metrics, attempted, failed, fails, samples = run_workload(
                runner, name, args.seed, args.seconds, args.trace)
            if set(metrics) != set(units):
                raise RuntimeError(f"metrics differ from BENCHMARK.json: {set(metrics) ^ set(units)}")
            results[name] = {"metrics": metrics, "attempted": attempted, "failed": failed}
            print(f"[{name}] seed {args.seed}, {samples} {'spans' if args.trace else 'samples'}, "
                  f"fail_ratio {failed / attempted:.4g} ({failed}/{attempted})")
            for key, value in metrics.items():
                print(f"  {key:32s} {value:.6g} {units[key]}")
            for msg in fails[:20]:
                print(f"  GATE FAILED: {msg}")
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
        if not any((ROOT / ".bench_tmp").iterdir()):
            (ROOT / ".bench_tmp").rmdir()

    if args.out:
        path = Path(args.out)
        stored = json.loads(path.read_text()) if path.exists() else {}
        stored["env"] = env
        level = "per_layer" if args.trace else "end_to_end"
        for name, res in results.items():
            stored.setdefault("workloads", {}).setdefault(name, {})[level] = {
                "seed": args.seed, "seconds": args.seconds, **res}
        path.write_text(json.dumps(stored, indent=2, sort_keys=True) + "\n")

    prefix = len(names) > 1
    metrics = {(f"{name}.{k}" if prefix else k): {"value": v, "unit": units[k]}
               for name, res in results.items() for k, v in res["metrics"].items()}
    failed = sum(r["failed"] for r in results.values())
    print(json.dumps({"correct": failed == 0,
                      "attempted": sum(r["attempted"] for r in results.values()),
                      "failed": failed, "metrics": metrics}))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
