"""The benchmark's workloads at seed 1, run once in-process: every item must
pass its own exact check, and each checker must catch a corrupted output.
This catches a change to `mg` that breaks what `bench/` calls before the
benchmark itself is run."""

import json
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "bench"))

import workloads  # noqa: E402


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_workload_items_pass(name, tmp_path):
    wl = workloads.WORKLOADS[name](1, tmp_path)
    outputs = [wl.run(item) for item in wl.items]
    for i, out in enumerate(outputs):
        assert wl.ok(i, out), f"{name} item {i}: {out!r:.300}"
    assert not wl.ok(0, wl.corrupt(outputs[0]))
    # a CLI item's output is (exit code, stdout): --json writes what
    # json.dumps writes, byte for byte
    for i, out in enumerate(outputs):
        if isinstance(out, tuple):
            stdout = out[1]
            assert stdout == json.dumps(json.loads(stdout), sort_keys=True, indent=2) + "\n", i


# factorizations, solves and path vectors w = D^-1 L^-1 e_c built for the
# Gamma entries off the selected inverse's pattern, over one pass, and the
# work W summed over the factorizations, as `scripts/exact_ops.py`'s
# `Counter` counts them (the `counts` fixture)
SOLVE_COUNTS = {
    "einv-chords": (27, 27, 0, 3364),
    "fiber-chains": (15, 15, 0, 1155),
    "point-queries": (10, 10, 111, 796),
    "batch-small": (176, 176, 0, 780),
}


@pytest.mark.parametrize("name", sorted(SOLVE_COUNTS))
def test_workload_solve_counts(name, tmp_path, counts):
    """One pass at seed 1 makes the solves pinned here: each graph
    is factored once and each Green system solves once.  An off-pattern
    read solves nothing: it builds the path vector of its column once per
    column, and no read builds one on the other three workloads.  W, the
    factorizations' work, follows the ground and the pivot order, so a
    change to either shows here."""
    wl = workloads.WORKLOADS[name](1, tmp_path)
    for item in wl.items:
        wl.run(item)
    assert tuple(counts[key] for key in ("factor", "solve", "path", "W")) == SOLVE_COUNTS[name]
