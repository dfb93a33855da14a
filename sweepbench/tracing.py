"""Span recording from outside the package, and per-layer metrics.

The tracer wraps public functions at the module attributes their callers
look up (``algconn.verify.fiedler_vector``, not ``algconn.spectra``'s own
name for it), so the package itself is unmodified. Spans stay in memory
and are written once, at exit. A span's self time is its duration minus
the durations of its direct children; since children nest inside their
parent, the self times of all spans add up to the root spans' durations.
"""

from __future__ import annotations

import functools
import importlib
import json
import time

# (module, attribute, layer). A caller's module is listed when that module
# imported the function by name; a target missing in some version of the
# package is skipped, so its layer reads zero calls rather than failing.
TARGETS = (
    ("algconn.cli", "main", "cli"),
    ("algconn.cli", "verify_theorem_1", "verify"),
    ("algconn.cli", "verify_theorem_2", "verify"),
    ("algconn.cli", "report_to_json", "serialize"),
    ("algconn.cli", "report_to_dict", "serialize"),
    ("algconn.cli", "report_to_csv", "serialize"),
    ("algconn.rewiring", "certificate_to_json", "serialize"),
    ("algconn.verify", "enumerate_graphs", "enumeration"),
    ("algconn.verify", "canonical_form", "canon"),
    ("algconn.enumeration", "canonical_form", "canon"),
    ("algconn.families", "canonical_form", "canon"),
    ("algconn.verify", "is_biconnected", "connectivity.biconnected"),
    ("algconn.rewiring", "is_biconnected", "connectivity.biconnected"),
    ("algconn.verify", "hamiltonian_cycle", "connectivity.hamiltonian"),
    ("algconn.rewiring", "hamiltonian_cycle", "connectivity.hamiltonian"),
    ("algconn.rewiring", "inner_disjoint_paths", "connectivity.flow"),
    ("algconn.verify", "fiedler_vector", "spectra.fiedler"),
    ("algconn.spectra", "fiedler_vector", "spectra.fiedler"),
    ("algconn.rewiring", "algebraic_connectivity", "spectra.gprime"),
    ("algconn.spectra", "eigen_symmetric", "spectra.eigen"),
    ("algconn.verify", "rewire", "rewiring"),
    ("algconn.rewiring", "rewire", "rewiring"),
    ("algconn.verify", "equality_family_specs", "families"),
    ("algconn.verify", "realize", "families"),
    ("algconn.verify", "single_chord_spec_for_triple", "families"),
    ("algconn.verify", "theta_triples", "families"),
    ("algconn.verify", "parse_family_text", "families"),
)

# layers whose call returns an iterator; the span covers each resumption
GENERATORS = {"enumeration"}


def _note_canon(args, result):
    return result


def _note_eigen(args, result):
    return len(args[0])


NOTES = {"canon": _note_canon, "spectra.eigen": _note_eigen}


class Tracer:
    """In-memory span log: one [layer, start, end, parent, note] per span."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans: list[list] = []
        self._open: list[int] = []

    def _begin(self, layer):
        parent = self._open[-1] if self._open else -1
        self.spans.append([layer, self.clock(), None, parent, None])
        self._open.append(len(self.spans) - 1)
        return self.spans[-1]

    def _end(self, span):
        span[2] = self.clock()
        self._open.pop()

    def wrap(self, fn, layer, note=None):
        if layer in GENERATORS:
            return self._wrap_iterator(fn, layer)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = self._begin(layer)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._end(span)
            if note is not None:
                span[4] = note(args, result)
            return result

        return traced

    def _wrap_iterator(self, fn, layer):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            it = iter(fn(*args, **kwargs))

            def resume():
                while True:
                    span = self._begin(layer)
                    try:
                        item = next(it)
                    except StopIteration:
                        return
                    finally:
                        self._end(span)
                    span[4] = 1  # one item produced by this resumption
                    yield item

            return resume()

        return traced

    def install(self, targets=TARGETS):
        """Patch every present target; return the ones that are missing."""
        missing = []
        for module_name, attr, layer in targets:
            module = importlib.import_module(module_name)
            fn = getattr(module, attr, None)
            if fn is None:
                missing.append(f"{module_name}.{attr}")
                continue
            setattr(module, attr, self.wrap(fn, layer, NOTES.get(layer)))
        return missing

    def dump(self, path):
        with open(path, "w", encoding="ascii") as fh:
            json.dump(self.spans, fh)


def self_times(spans):
    """Per-span self time: duration minus the direct children's durations."""
    out = [s[2] - s[1] for s in spans]
    for s in spans:
        if s[3] >= 0:
            out[s[3]] -= s[2] - s[1]
    return out


def _under(spans, i, layer):
    """Whether span i has an ancestor in the given layer."""
    p = spans[i][3]
    while p >= 0:
        if spans[p][0] == layer:
            return True
        p = spans[p][3]
    return False


def layer_metrics(spans):
    """Per-layer counts and times from one traced pass."""
    own = self_times(spans)
    calls: dict[str, int] = {}
    busy: dict[str, float] = {}
    self_s: dict[str, float] = {}
    for i, (layer, start, end, _, _) in enumerate(spans):
        self_s[layer] = self_s.get(layer, 0.0) + own[i]
        if not _under(spans, i, layer):
            busy[layer] = busy.get(layer, 0.0) + end - start
            calls[layer] = calls.get(layer, 0) + 1
    canon = [i for i, s in enumerate(spans) if s[0] == "canon"]
    in_enum = [spans[i][4] for i in canon if _under(spans, i, "enumeration")]
    eigen_orders = [s[4] for s in spans if s[0] == "spectra.eigen"]
    m = {
        "canon.calls": calls.get("canon", 0),
        "canon.busy_s": busy.get("canon", 0.0),
        "canon.max_ms": max((spans[i][2] - spans[i][1] for i in canon), default=0.0) * 1e3,
        "enumeration.canon_yield": len(set(in_enum)) / len(in_enum) if in_enum else 0.0,
        "enumeration.busy_s": self_s.get("enumeration", 0.0),
        "enumeration.classes": sum(1 for s in spans if s[0] == "enumeration" and s[4]),
        "spectra.eigensolves": len(eigen_orders),
        "spectra.work_n3": sum(n**3 for n in eigen_orders),
        "rewiring.calls": calls.get("rewiring", 0),
        "rewiring.self_s": self_s.get("rewiring", 0.0),
        "families.busy_s": self_s.get("families", 0.0),
        "verify.self_s": self_s.get("verify", 0.0),
        "serialize.busy_s": busy.get("serialize", 0.0),
        "trace.self_sum_s": sum(own),
    }
    for layer in ("connectivity.biconnected", "connectivity.hamiltonian",
                  "connectivity.flow", "spectra.fiedler", "spectra.gprime"):
        m[f"{layer}.calls"] = calls.get(layer, 0)
        m[f"{layer}.busy_s"] = busy.get(layer, 0.0)
    return m
