"""One benchmark process: a CLI sweep, a certify loop, a set-up, or the probes.

    python child.py ready STAMP
    python child.py sweep [--trace SPANS] STAMP CLI_ARGS...
    python child.py certify --seed N --seconds S --out RESULT [--trace SPANS] [--setup-only] STAMP
    python child.py probes --out RESULT

STAMP receives time.monotonic() at the moment the process is ready (the
package imported and, for certify, its inputs generated); the parent took
the same clock just before launch, so the difference is set-up time. The
parent puts the checkout's src/ on PYTHONPATH.
"""

from __future__ import annotations

import argparse
import json
import random
import statistics
import sys
import time

import gates
from tracing import Tracer

CERTIFY_GRAPHS = 300
CERTIFY_ORDERS = range(13, 41)


def _stamp(path):
    with open(path, "w", encoding="ascii") as fh:
        fh.write(repr(time.monotonic()))


def random_biconnected(rng, n, m):
    """Edge list of a random 2-connected graph with n vertices and m edges.

    An open ear decomposition: a cycle, then paths through new vertices
    between two distinct old ones, then chords. Every graph built this way
    is 2-connected (Whitney), and ears make non-Hamiltonian graphs common.
    """
    if not n < m <= min(2 * n, n * (n - 1) // 2):
        raise ValueError(f"need n < m <= min(2n, n(n-1)/2), got n = {n}, m = {m}")
    ears = rng.randint(1, min(m - n, n - 3))
    c = rng.randint(3, n - ears)
    cuts = sorted(rng.sample(range(1, n - c), ears - 1))
    sizes = [b - a for a, b in zip([0] + cuts, cuts + [n - c])]
    edges = {(i, (i + 1) % c) for i in range(c)}
    nxt = c
    for k in sizes:
        a, b = rng.sample(range(nxt), 2)
        path = [a] + list(range(nxt, nxt + k)) + [b]
        edges |= set(zip(path, path[1:]))
        nxt += k
    while len(edges) < m:
        u, v = rng.sample(range(n), 2)
        if (u, v) not in edges and (v, u) not in edges:
            edges.add((u, v))
    perm = list(range(n))
    rng.shuffle(perm)
    return sorted((min(perm[u], perm[v]), max(perm[u], perm[v])) for u, v in edges)


def certify_inputs(seed):
    """The seeded stream: orders cycle evenly over 13..40, edges n+1..2n."""
    rng = random.Random(seed)
    orders = [CERTIFY_ORDERS[i % len(CERTIFY_ORDERS)] for i in range(CERTIFY_GRAPHS)]
    rng.shuffle(orders)
    return [(n, random_biconnected(rng, n, rng.randint(n + 1, 2 * n))) for n in orders]


def run_sweep(args):
    import algconn.cli

    _stamp(args.stamp)
    tracer = Tracer() if args.trace else None
    if tracer:
        missing = tracer.install()
        if missing:
            print(f"trace targets missing: {missing}", file=sys.stderr)
    try:
        return algconn.cli.main(args.cli)
    finally:
        if tracer:
            tracer.dump(args.trace)


def run_certify(args):
    from algconn import graphs, rewiring, spectra

    inputs = [(n, edges, graphs.graph_from_edges(n, edges)) for n, edges in certify_inputs(args.seed)]
    _stamp(args.stamp)
    if args.setup_only:
        return 0
    tracer = Tracer() if args.trace else None
    if tracer:
        tracer.install()

    def certify_one(g):
        f = spectra.fiedler_vector(g)
        return f, rewiring.certificate_to_json(rewiring.rewire(g, f))

    root = tracer.wrap(certify_one, "certify") if tracer else certify_one
    latencies, fails = [], []
    failed = out_bytes = 0
    clock = time.perf_counter
    start = clock()
    # one pass over the stream; an untraced run then cycles on until its time is up
    while len(latencies) < len(inputs) or (not tracer and clock() - start < args.seconds):
        n, edges, g = inputs[len(latencies) % len(inputs)]
        t0 = clock()
        f, text = root(g)
        latencies.append(clock() - t0)
        out_bytes += len(text) if len(latencies) <= len(inputs) else 0
        msgs = gates.check_certificate(n, edges, [float(v) for v in f.vector], text)
        failed += bool(msgs)
        fails += msgs
    if tracer:
        tracer.dump(args.trace)
    with open(args.out, "w", encoding="ascii") as fh:
        json.dump({"latencies_s": latencies, "attempted": len(latencies), "failed": failed,
                   "fails": fails, "bytes": out_bytes}, fh)
    return 0


def _median_time(fn, reps):
    times = []
    for _ in range(reps):
        t0 = time.perf_counter()
        fn()
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def run_probes(args):
    """Single-layer timings at fixed inputs; they feed per-layer metrics only."""
    import numpy as np

    from algconn import canonical_form, empty_graph, hamiltonian_cycle, inner_disjoint_paths
    from algconn import parse_family_text, realize
    from algconn.graphs import graph_from_edges
    from algconn.spectra import eigen_symmetric

    rng = random.Random(0)
    laps = {}
    for n in (8, 30):
        stack = []
        for _ in range(100):
            lap = np.zeros((n, n))
            for u, v in random_biconnected(rng, n, rng.randint(n + 1, 2 * n)):
                lap[u, v] = lap[v, u] = -1.0
            lap -= np.diag(lap.sum(axis=1))
            stack.append(lap)
        laps[n] = np.array(stack)
    g40 = graph_from_edges(40, random_biconnected(rng, 40, 60))
    k57 = graph_from_edges(12, [(u, 5 + v) for u in range(5) for v in range(7)])
    theta = realize(parse_family_text("theta:1,3,9"))
    out = {
        "probe.canon_theta139_n12_s": _median_time(lambda: canonical_form(theta), 1),
        "probe.canon_empty_n8_s": _median_time(lambda: canonical_form(empty_graph(8)), 1),
        "probe.hamiltonian_k57_n12_s": _median_time(lambda: hamiltonian_cycle(k57), 1),
        "probe.flow_n40_ms": 1e3 * _median_time(lambda: inner_disjoint_paths(g40, 0, 20, 2), 5),
    }
    for n, reps in ((8, 50), (30, 10)):
        out[f"probe.eigen_n{n}_ms"] = 1e3 * _median_time(lambda: eigen_symmetric(laps[n][0]), reps)
        out[f"probe.eigh_batched_n{n}_ms"] = 1e3 * _median_time(
            lambda: np.linalg.eigh(laps[n]), 5) / len(laps[n])
    with open(args.out, "w", encoding="ascii") as fh:
        json.dump(out, fh)
    return 0


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__)
    sub = parser.add_subparsers(dest="mode", required=True)
    p = sub.add_parser("ready")
    p.add_argument("stamp")
    p = sub.add_parser("sweep")
    p.add_argument("stamp")
    p.add_argument("--trace")
    p.add_argument("cli", nargs=argparse.REMAINDER)
    p = sub.add_parser("certify")
    p.add_argument("stamp")
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=0.0)
    p.add_argument("--out")
    p.add_argument("--trace")
    p.add_argument("--setup-only", action="store_true")
    p = sub.add_parser("probes")
    p.add_argument("--out", required=True)
    args = parser.parse_args(argv)
    if args.mode == "ready":
        import algconn.cli  # noqa: F401  (the set-up a sweep pays)

        _stamp(args.stamp)
        return 0
    if args.mode == "sweep":
        return run_sweep(args)
    if args.mode == "certify":
        return run_certify(args)
    return run_probes(args)


if __name__ == "__main__":
    sys.exit(main())
