import pytest

from algconn import enumeration
from algconn.graphs import _graph_from_rows
from algconn.verify import verify_theorem_1


@pytest.fixture
def canonical_calls(monkeypatch):
    """The graph6 text of each graph level construction canonicalizes, in
    call order; a level served from the cache adds nothing."""
    calls = []
    canonical = enumeration._canonical_code

    def recorded(rows):
        calls.append(_graph_from_rows(rows).to_graph6())
        return canonical(rows)

    # level construction canonicalizes each child on its adjacency rows
    monkeypatch.setattr(enumeration, "_canonical_code", recorded)
    return calls


@pytest.fixture
def merge_two_classes(monkeypatch):
    """merge_two_classes(n, predicate): empty the level cache, and have
    level construction give the second class of order n that passes the
    predicate the first one's code. A level that holds both then loses a
    class without any child failing."""

    def merge(n, predicate):
        monkeypatch.setattr(enumeration, "_level_cache", {})
        a, b = enumeration.class_codes(n, predicate)[:2]
        monkeypatch.setattr(enumeration, "_level_cache", {})
        canonical = enumeration._canonical_code

        def merged(rows):
            code = canonical(rows)
            return a if code == b else code

        monkeypatch.setattr(enumeration, "_canonical_code", merged)

    return merge


@pytest.fixture(scope="session")
def t1_reports():
    """Full minimality sweeps for n = 4..8, computed once per session.

    The n = 8 sweep dominates the suite's runtime, so every test that
    needs sweep rows shares this dict instead of re-running it.
    """
    return {n: verify_theorem_1(n) for n in range(4, 9)}


@pytest.fixture(scope="session")
def t1_small(t1_reports):
    return {n: t1_reports[n] for n in (4, 5, 6)}
