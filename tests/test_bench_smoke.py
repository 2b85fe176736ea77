"""The benchmark's workloads at seed 1, each run once in-process under
`scripts/exact_ops.py`'s `Counter`: every item must pass its own exact
check, each checker must catch a corrupted output, and the pass must do
the exact work pinned in SEED_1.  This catches a change to `mg` that breaks
what `bench/` calls before the benchmark itself is run."""

import json
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "bench"))

import workloads  # noqa: E402
from exact_ops import count  # noqa: E402

# one seed-1 pass of each workload, as `Counter` counts it: the items, the
# factorizations, the solves, the path vectors w = D^-1 L^-1 e_c built for
# the Gamma entries off the selected inverse's pattern, the work W summed
# over the factorizations and the exact operations.  `scripts/exact_ops.py
# --seed 1` prints ops and W per item (`test_exact_ops_at_seed_1`)
SEED_1 = {
    "einv-chords": (27, 27, 27, 0, 3364, 9450),
    "fiber-chains": (15, 15, 15, 0, 1155, 9410),
    "point-queries": (10, 10, 10, 111, 796, 6842),
    "batch-small": (16, 176, 176, 0, 780, 10146),
}


@pytest.fixture(scope="module", params=sorted(SEED_1))
def seed_1(request, tmp_path_factory):
    """(name, pool, outputs, counts) of one counted seed-1 pass, run once
    for both tests of its workload."""
    name = request.param
    wl = workloads.WORKLOADS[name](1, tmp_path_factory.mktemp(name))
    return (name, wl, *count(wl))


def test_workload_items_pass(seed_1):
    name, wl, outputs, _ = seed_1
    for i, out in enumerate(outputs):
        assert wl.ok(i, out), f"{name} item {i}: {out!r:.300}"
    assert not wl.ok(0, wl.corrupt(outputs[0]))
    # a CLI item's output is (exit code, stdout): --json writes what
    # json.dumps writes, byte for byte
    for i, out in enumerate(outputs):
        if isinstance(out, tuple):
            stdout = out[1]
            assert stdout == json.dumps(json.loads(stdout), sort_keys=True, indent=2) + "\n", i


def test_workload_solve_counts(seed_1):
    """One pass at seed 1 does the work pinned here: each graph is factored
    once and each Green system solves once.  An off-pattern read solves
    nothing: it builds the path vector of its column once per column, and
    no read builds one on the other three workloads.  W, the
    factorizations' work, follows the ground and the pivot order, and ops
    the exact arithmetic, so a change to any of them shows here."""
    name, _, outputs, n = seed_1
    counted = tuple(n[key] for key in ("factor", "solve", "path", "W", "ops"))
    assert (len(outputs), *counted) == SEED_1[name]
