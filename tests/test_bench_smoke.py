"""The benchmark's workloads at seed 1, run once in-process: every item must
pass its own exact check, and each checker must catch a corrupted output.
This catches a change to `mg` that breaks what `bench/` calls before the
benchmark itself is run."""

import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "bench"))

import workloads  # noqa: E402

from mg import linalg, resistance  # noqa: E402


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_workload_items_pass(name, tmp_path):
    wl = workloads.WORKLOADS[name](1, tmp_path)
    outputs = [wl.run(item) for item in wl.items]
    for i, out in enumerate(outputs):
        assert wl.ok(i, out), f"{name} item {i}: {out!r:.300}"
    assert not wl.ok(0, wl.corrupt(outputs[0]))


# factorizations, solves and columns solved on first use, over one pass
SOLVE_COUNTS = {
    "einv-chords": (27, 54, 0),
    "fiber-chains": (15, 30, 0),
    "point-queries": (10, 124, 104),
    "batch-small": (176, 352, 0),
}


@pytest.mark.parametrize("name", sorted(SOLVE_COUNTS))
def test_workload_solve_counts(name, tmp_path, monkeypatch):
    """One pass at seed 1 makes the same exact solves as ever: each graph
    is factored once, each Green system solves twice, and an off-pattern
    read solves one column per source vertex."""
    wl = workloads.WORKLOADS[name](1, tmp_path)
    counts = [0, 0, 0]
    real_init = linalg.Factorization.__init__
    real_solve = linalg.Factorization.solve
    real_column = resistance.ResistanceKernel.column

    def init(self, rows):
        counts[0] += 1
        real_init(self, rows)

    def solve(self, b):
        counts[1] += 1
        return real_solve(self, b)

    def column(self, i):
        if i and i not in self._columns:
            counts[2] += 1
        return real_column(self, i)

    monkeypatch.setattr(linalg.Factorization, "__init__", init)
    monkeypatch.setattr(linalg.Factorization, "solve", solve)
    monkeypatch.setattr(resistance.ResistanceKernel, "column", column)
    for item in wl.items:
        wl.run(item)
    assert tuple(counts) == SOLVE_COUNTS[name]
