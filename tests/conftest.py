"""Fixtures shared by the test modules."""

import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "scripts"))

from exact_ops import Counter  # noqa: E402


@pytest.fixture
def counts():
    """The exact work done while the test runs, counted by
    `scripts/exact_ops.py`'s `Counter`, whose module docstring defines each
    key: the exact operations ("ops"), the factorizations built ("factor")
    and their work ("W"), the conversions and Fraction calls, and each call
    of its CALLS table, such as the solves ("solve"), the potentials
    ("potential") and the graphs built ("graph").  Every call count a test
    pins is read here.  A fault patched while the counter holds is undone
    inside it, in a `pytest.MonkeyPatch.context()`."""
    with Counter() as counter:
        yield counter.n
