"""Each script under scripts/ runs to completion against the library."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
SCRIPTS = sorted((ROOT / "scripts").glob("*.py"))


def test_scripts_are_found():
    assert SCRIPTS


@pytest.mark.parametrize("script", SCRIPTS, ids=lambda p: p.name)
def test_script_runs_cleanly(script):
    proc = subprocess.run(
        [sys.executable, str(script)],
        env={**os.environ, "PYTHONPATH": str(ROOT / "src")},
        capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stderr == ""
    assert proc.stdout.strip()


# `scripts/exact_ops.py --seed 1`: items per pass and exact operations per
# item, as the script prints them
EXACT_OPS = {
    "einv-chords": ("27", "683.7"),
    "fiber-chains": ("15", "772.7"),
    "point-queries": ("10", "968.0"),
    "batch-small": ("16", "816.0"),
}


def test_exact_ops_at_seed_1():
    """The exact work of one seed-1 pass of each workload is pinned, the
    way `test_workload_solve_counts` pins its solves: a change to the exact
    arithmetic shows here."""
    proc = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / "exact_ops.py"), "--seed", "1"],
        env={**os.environ, "PYTHONPATH": str(ROOT / "src")},
        capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    header, *rows = proc.stdout.splitlines()[1:]
    assert header.split()[:3] == ["workload", "items", "ops"]
    assert {row.split()[0]: tuple(row.split()[1:3]) for row in rows} == EXACT_OPS
