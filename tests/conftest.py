"""Fixtures shared by the test modules."""

import pytest

from mg import linalg, resistance


def factor_work(factors) -> int:
    """W = sum over the steps k of (|s(k)|^2 + |s(k)| + 1), s(k) the
    neighbours of step k: the rational operations of building the
    factorization and of its selected inverse, up to a constant factor."""
    return sum(len(mults) ** 2 + len(mults) + 1 for _, _, mults in factors.steps)


@pytest.fixture
def factor_calls(monkeypatch):
    """Counts, while the test runs, the factorizations built ("factor"),
    the solves run ("solve") and the path vectors w = D^-1 L^-1 e_c built
    ("path"), one per column of Gamma that an entry off the selected
    inverse's pattern is read in, and sums the work W (`factor_work`) of
    every factorization built ("W")."""
    counter = dict.fromkeys(("factor", "solve", "path", "W"), 0)
    for key, name in (("factor", "__init__"), ("solve", "solve"), ("path", "_path")):

        def counted(self, *args, _key=key, _real=getattr(linalg.Factorization, name)):
            counter[_key] += 1
            out = _real(self, *args)
            if _key == "factor":
                counter["W"] += factor_work(self)
            return out

        monkeypatch.setattr(linalg.Factorization, name, counted)
    return counter


@pytest.fixture
def exact_ops(monkeypatch):
    """Counts, while the test runs, the exact operations ("ops") as
    `scripts/exact_ops.py` counts them: the calls of `mg.linalg`'s `_sum`,
    `_product`, `_submul` and `ratio` entered from outside those four, and
    every `ResistanceKernel.read` and `_Potential._row`."""
    counter = {"ops": 0}
    depth = [0]  # > 0 inside a counted operation
    for owner, name in ((resistance.ResistanceKernel, "read"), (resistance._Potential, "_row")):

        def call(*args, _real=getattr(owner, name)):
            counter["ops"] += 1
            return _real(*args)

        monkeypatch.setattr(owner, name, call)
    for name in ("_sum", "_product", "_submul", "ratio"):

        def counted(*args, _real=getattr(linalg, name)):
            if depth[0]:
                return _real(*args)
            counter["ops"] += 1
            depth[0] += 1
            try:
                return _real(*args)
            finally:
                depth[0] -= 1

        monkeypatch.setattr(linalg, name, counted)
    return counter
