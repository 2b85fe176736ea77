"""Fixtures shared by the test modules."""

import pytest

from mg import linalg


@pytest.fixture
def factor_calls(monkeypatch):
    """Counts, while the test runs, the factorizations built ("factor"),
    the solves run ("solve") and the path vectors w = D^-1 L^-1 e_c built
    ("path"), one per column of Gamma that an entry off the selected
    inverse's pattern is read in."""
    counter = dict.fromkeys(("factor", "solve", "path"), 0)
    for key, name in (("factor", "__init__"), ("solve", "solve"), ("path", "_path")):

        def counted(self, *args, _key=key, _real=getattr(linalg.Factorization, name)):
            counter[_key] += 1
            return _real(self, *args)

        monkeypatch.setattr(linalg.Factorization, name, counted)
    return counter
