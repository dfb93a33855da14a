"""Comparison against the committed golden files in tests/data."""

import math
from pathlib import Path

DATA = Path(__file__).parent / "data"


def assert_matches_golden(got, want, where="report"):
    """Equal apart from runtime; floats within 1e-12, everything else exact."""
    if isinstance(want, float):
        assert isinstance(got, float) and math.isclose(got, want, rel_tol=0.0, abs_tol=1e-12), where
    elif isinstance(want, dict):
        assert set(got) == set(want), where
        for key in want.keys() - {"runtime"}:
            assert_matches_golden(got[key], want[key], f"{where}.{key}")
    elif isinstance(want, list):
        assert len(got) == len(want), where
        for i, (a, b) in enumerate(zip(got, want)):
            assert_matches_golden(a, b, f"{where}[{i}]")
    else:
        assert type(got) is type(want) and got == want, where
