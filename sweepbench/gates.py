"""Correctness gates. Every reference here is computed by the harness
itself (closed forms, counting loops, its own graph6 decoder and cycle
walk), never by the package under test. Each gate returns a list of
failure messages; an empty list means the output passed.
"""

from __future__ import annotations

import csv
import io
import json
import math

BICONNECTED_CLASSES = {7: 468}  # OEIS A002218
T1_EQUALITY_ROWS = {7: 4}
BOUND_SLACK = 1e-10
NOT_EXTREMAL = "not_extremal"


def alpha_cycle(n: int) -> float:
    return 2.0 * (1.0 - math.cos(2.0 * math.pi / n))


def theta_triple_count(n: int) -> int:
    """Triples l1 <= l2 <= l3 with l2 >= 2 and l1 + l2 + l3 = n + 1."""
    total = n + 1
    return sum(
        1
        for l1 in range(1, total)
        for l2 in range(max(l1, 2), total)
        if total - l1 - l2 >= l2
    )


def decode_graph6(text: str) -> tuple[int, list[tuple[int, int]]]:
    """Order and edge list of a graph6 string with n <= 62."""
    data = text.encode("ascii")
    n = data[0] - 63
    edges = []
    idx = 0
    for v in range(1, n):
        for u in range(v):
            if (data[1 + idx // 6] - 63) >> (5 - idx % 6) & 1:
                edges.append((u, v))
            idx += 1
    return n, edges


def is_spanning_cycle(n: int, edges) -> bool:
    """Walk from vertex 0 along degree-2 vertices; one cycle covers all n."""
    nbrs: list[list[int]] = [[] for _ in range(n)]
    for u, v in edges:
        nbrs[u].append(v)
        nbrs[v].append(u)
    if n < 3 or len(edges) != n or any(len(a) != 2 for a in nbrs):
        return False
    prev, cur, steps = 0, nbrs[0][0], 1
    while cur != 0:
        prev, cur = cur, nbrs[cur][0] if nbrs[cur][0] != prev else nbrs[cur][1]
        steps += 1
    return steps == n


def quadratic_form(edges, x) -> float:
    return sum((x[u] - x[v]) ** 2 for u, v in edges)


def check_t1(n, rc, stdout_text, json_text, csv_text, checkpoint_text):
    """Biconnected sweep of order n: counts, bound, equality rows, agreement."""
    if rc != 0:
        return [f"exit code {rc}"]
    report = json.loads(json_text)
    fails = []
    if json.loads(stdout_text) != report:
        fails.append("stdout report differs from the JSON file")
    rows = report["rows"]
    if len(rows) != BICONNECTED_CLASSES[n] or report["count"] != len(rows):
        fails.append(f"{len(rows)} rows, expected {BICONNECTED_CLASSES[n]}")
    if report["flagged"]:
        fails.append(f"flagged rows {report['flagged']}")
    equal = [r for r in rows if r["label"] != NOT_EXTREMAL]
    if len(equal) != T1_EQUALITY_ROWS[n]:
        fails.append(f"{len(equal)} equality rows, expected {T1_EQUALITY_ROWS[n]}")
    floor = alpha_cycle(n) - BOUND_SLACK
    fails += [f"alpha {r['alpha']!r} below the cycle at {r['code']}"
              for r in rows if r["alpha"] < floor]
    fails += [f"row {r['code']} flagged" for r in rows if r["flagged"]]
    codes = {r["code"] for r in rows}
    csv_codes = {r["canonical_code"] for r in csv.DictReader(io.StringIO(csv_text))}
    ck_codes = {json.loads(line)["code"] for line in checkpoint_text.splitlines() if line.strip()}
    if not (codes == csv_codes == ck_codes):
        fails.append("JSON, CSV and checkpoint row sets differ")
    return fails


def check_t2(n_max, rc, stdout_text, json_text, csv_text):
    """Theta sweep over orders 4..n_max: per-order counts and equality labels."""
    if rc != 0:
        return [f"exit code {rc}"]
    reports = json.loads(json_text)
    fails = []
    if json.loads(stdout_text) != reports:
        fails.append("stdout report differs from the JSON file")
    if [r["n"] for r in reports] != list(range(4, n_max + 1)):
        fails.append("reports do not cover orders 4..n_max")
    for rep in reports:
        want = theta_triple_count(rep["n"])
        if len(rep["rows"]) != want or rep["count"] != want:
            fails.append(f"n = {rep['n']}: {len(rep['rows'])} rows, expected {want}")
        if rep["flagged"]:
            fails.append(f"n = {rep['n']}: flagged rows {rep['flagged']}")
        for row in rep["rows"]:
            l1, l2, l3 = row["triple"]
            if not (l1 <= l2 <= l3 and l2 >= 2 and l1 + l2 + l3 == rep["n"] + 1):
                fails.append(f"n = {rep['n']}: inadmissible triple {row['triple']}")
            if (row["label"] != NOT_EXTREMAL) != (l1 == 1):
                fails.append(f"theta{tuple(row['triple'])}: label {row['label']}")
            if row["flagged"]:
                fails.append(f"theta{tuple(row['triple'])} flagged")
    csv_rows = sum(1 for _ in csv.DictReader(io.StringIO(csv_text)))
    if csv_rows != sum(len(r["rows"]) for r in reports):
        fails.append("CSV row count differs from the JSON report")
    return fails


def check_certificate(n, edges, x, cert_json):
    """One rewiring certificate: G' is one spanning cycle at alpha(C_n), q no larger."""
    cert = json.loads(cert_json)
    fails = []
    gn, gp_edges = decode_graph6(cert["g_prime"])
    if gn != n or not is_spanning_cycle(n, gp_edges):
        fails.append("G' is not one spanning cycle")
    if abs(cert["alpha_gprime"] - alpha_cycle(n)) > 1e-9:
        fails.append(f"alpha(G') = {cert['alpha_gprime']!r}, expected {alpha_cycle(n)!r}")
    q_g, q_gp = quadratic_form(edges, x), quadratic_form(gp_edges, x)
    if not q_gp <= q_g + 1e-12:
        fails.append(f"q_G' = {q_gp!r} exceeds q_G = {q_g!r}")
    return fails
