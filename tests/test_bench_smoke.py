"""The benchmark's workloads at seed 1, run once in-process: every item must
pass its own exact check, and each checker must catch a corrupted output.
This catches a change to `mg` that breaks what `bench/` calls before the
benchmark itself is run."""

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
