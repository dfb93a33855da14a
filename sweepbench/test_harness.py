"""Self-tests for the benchmark harness: gates, span arithmetic, inputs.

    python -m pytest sweepbench/test_harness.py
"""

from __future__ import annotations

import csv
import io
import json
import math
import random

import networkx as nx
import pytest

import gates
from child import certify_inputs, random_biconnected
from tracing import Tracer, layer_metrics, self_times


def encode_graph6(n, edges):
    bits = [int((u, v) in edges or (v, u) in edges) for v in range(1, n) for u in range(v)]
    bits += [0] * (-len(bits) % 6)
    body = [63 + int("".join(map(str, bits[i:i + 6])), 2) for i in range(0, len(bits), 6)]
    return bytes([n + 63] + body).decode("ascii")


# ---------------------------------------------------------------------------
# t1: a synthetic report shaped like the CLI's, 468 rows, 4 equality rows
# ---------------------------------------------------------------------------


def t1_outputs(report):
    rows = report["rows"]
    buf = io.StringIO()
    writer = csv.writer(buf)
    writer.writerow(["n", "canonical_code"])
    writer.writerows([7, r["code"]] for r in rows)
    checkpoint = "".join(json.dumps(r) + "\n" for r in rows)
    body = json.dumps(report)
    return body, body, buf.getvalue(), checkpoint


def t1_report():
    rows = [{"code": f"F{i:04d}", "alpha": gates.alpha_cycle(7) + (i > 3),
             "label": "h1" if i <= 3 else gates.NOT_EXTREMAL, "flagged": False}
            for i in range(468)]
    return {"count": 468, "flagged": [], "rows": rows}


def test_t1_gate_accepts_a_clean_report():
    assert gates.check_t1(7, 0, *t1_outputs(t1_report())) == []


def test_t1_gate_rejects_a_flagged_row():
    report = t1_report()
    report["rows"][10]["flagged"] = True
    report["flagged"] = ["F0010"]
    assert gates.check_t1(7, 0, *t1_outputs(report))


def test_t1_gate_rejects_a_wrong_count():
    report = t1_report()
    report["rows"].pop()
    report["count"] = 467
    assert gates.check_t1(7, 0, *t1_outputs(report))


def test_t1_gate_rejects_disagreeing_files_and_exit_code():
    stdout, body, csv_text, checkpoint = t1_outputs(t1_report())
    assert gates.check_t1(7, 0, stdout, body, csv_text, checkpoint.split("\n", 1)[1])
    assert gates.check_t1(7, 1, stdout, body, csv_text, checkpoint)


def test_t1_gate_rejects_alpha_below_the_cycle():
    report = t1_report()
    report["rows"][100]["alpha"] = gates.alpha_cycle(7) - 1e-9
    assert gates.check_t1(7, 0, *t1_outputs(report))


# ---------------------------------------------------------------------------
# t2: counts come from the harness's own triple loop
# ---------------------------------------------------------------------------


def test_theta_triple_counts():
    assert [gates.theta_triple_count(n) for n in range(4, 9)] == [1, 2, 3, 4, 6]
    assert sum(gates.theta_triple_count(n) for n in range(4, 25)) == 435


def t2_reports(n_max):
    reports = []
    for n in range(4, n_max + 1):
        rows = [{"triple": [l1, l2, n + 1 - l1 - l2], "flagged": False,
                 "label": "h1" if l1 == 1 else gates.NOT_EXTREMAL}
                for l1 in range(1, n + 1) for l2 in range(max(l1, 2), n + 1)
                if n + 1 - l1 - l2 >= l2]
        reports.append({"n": n, "count": len(rows), "flagged": [], "rows": rows})
    return reports


def t2_check(reports):
    body = json.dumps(reports)
    csv_text = "n\n" + "".join("x\n" for r in reports for _ in r["rows"])
    return gates.check_t2(10, 0, body, body, csv_text)


def test_t2_gate_accepts_clean_and_rejects_tampered_reports():
    assert t2_check(t2_reports(10)) == []
    wrong_count = t2_reports(10)
    wrong_count[3]["rows"].pop()
    assert t2_check(wrong_count)
    wrong_label = t2_reports(10)
    wrong_label[5]["rows"][-1]["label"] = "h2"  # l1 >= 2 there
    assert t2_check(wrong_label)
    flagged = t2_reports(10)
    flagged[2]["flagged"] = ["x"]
    assert t2_check(flagged)


# ---------------------------------------------------------------------------
# certify: G' must be one spanning cycle at alpha(C_n) with q no larger
# ---------------------------------------------------------------------------


def certificate(n, gp_edges, alpha):
    return json.dumps({"g_prime": encode_graph6(n, set(gp_edges)), "alpha_gprime": alpha})


def test_certificate_gate():
    n = 6
    cycle = [(i, (i + 1) % n) for i in range(n)]
    g = cycle + [(0, 3)]
    x = [math.cos(2 * math.pi * j / n) for j in range(n)]
    alpha = gates.alpha_cycle(n)
    assert gates.check_certificate(n, g, x, certificate(n, cycle, alpha)) == []
    two_triangles = [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5)]
    assert gates.check_certificate(n, g, x, certificate(n, two_triangles, alpha))
    assert gates.check_certificate(n, g, x, certificate(n, cycle, alpha + 1e-6))
    # a G' whose quadratic form exceeds G's under x
    zigzag = [(0, 3), (3, 1), (1, 4), (4, 2), (2, 5), (5, 0)]
    assert gates.check_certificate(n, cycle, x, certificate(n, zigzag, alpha))


def test_graph6_decoder_round_trips():
    rng = random.Random(3)
    for n in (2, 5, 13, 40):
        edges = {(u, v) for v in range(n) for u in range(v) if rng.random() < 0.3}
        assert gates.decode_graph6(encode_graph6(n, edges)) == (n, sorted(edges, key=lambda e: (e[1], e[0])))


# ---------------------------------------------------------------------------
# spans: exact self-time arithmetic on a fake clock
# ---------------------------------------------------------------------------


class FakeClock:
    def __init__(self):
        self.now = 0

    def __call__(self):
        return self.now

    def advance(self, dt):
        self.now += dt


def test_self_time_is_exact_on_a_nested_call():
    clock = FakeClock()
    tracer = Tracer(clock)

    def leaf():
        clock.advance(3)

    leaf_t = tracer.wrap(leaf, "canon")

    def outer():
        clock.advance(2)
        leaf_t()
        clock.advance(5)
        leaf_t()
        clock.advance(7)

    tracer.wrap(outer, "verify")()
    assert [s[0] for s in tracer.spans] == ["verify", "canon", "canon"]
    assert self_times(tracer.spans) == [14, 3, 3]
    m = layer_metrics(tracer.spans)
    assert m["verify.self_s"] == 14
    assert m["canon.busy_s"] == 6 and m["canon.calls"] == 2
    assert m["trace.self_sum_s"] == 20


def test_generator_span_covers_its_consumption():
    clock = FakeClock()
    tracer = Tracer(clock)
    canon = tracer.wrap(lambda code: clock.advance(4) or code, "canon", note=lambda a, r: r)

    def enumerate_graphs():
        for code in ("a", "b", "a"):
            clock.advance(10)  # producing work, inside the generator
            canon(code)
            clock.advance(1)
            yield code

    items = []
    for item in tracer.wrap(enumerate_graphs, "enumeration")():
        clock.advance(100)  # consumer's work, outside the generator
        items.append(item)
    assert items == ["a", "b", "a"]
    m = layer_metrics(tracer.spans)
    assert m["enumeration.busy_s"] == 3 * 11  # self time: excludes canon and the consumer
    assert m["canon.busy_s"] == 3 * 4
    assert m["enumeration.classes"] == 3
    assert m["enumeration.canon_yield"] == pytest.approx(2 / 3)
    assert m["trace.self_sum_s"] == 3 * 15


def test_install_reports_missing_targets():
    tracer = Tracer()
    assert tracer.install([("json", "no_such_function", "serialize")]) == ["json.no_such_function"]


# ---------------------------------------------------------------------------
# certify inputs
# ---------------------------------------------------------------------------


def test_certify_inputs_are_seeded_biconnected_and_in_range():
    stream = certify_inputs(7)
    assert stream == certify_inputs(7) and stream != certify_inputs(8)
    assert len(stream) == 300
    assert sorted({n for n, _ in stream}) == list(range(13, 41))
    for n, edges in stream:
        assert n + 1 <= len(edges) <= 2 * n
        g = nx.Graph(edges)
        assert g.number_of_nodes() == n and nx.is_biconnected(g)


def test_random_biconnected_small_orders():
    rng = random.Random(1)
    for _ in range(200):
        n = rng.randint(5, 12)  # from 5 on, 2n edges fit in n(n-1)/2
        m = rng.randint(n + 1, 2 * n)
        g = nx.Graph(random_biconnected(rng, n, m))
        assert g.number_of_nodes() == n and g.number_of_edges() == m and nx.is_biconnected(g)
