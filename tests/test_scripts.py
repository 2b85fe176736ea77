"""Each script under scripts/ runs to completion against the library."""

import importlib
import inspect
import os
import subprocess
import sys
from pathlib import Path

import pytest

from mg import MetrizedGraph, RDivisor, green_system, linalg
from exact_ops import CALLS, OPERATIONS, Counter
from faults import fault_solve
from test_bench_smoke import SEED_1

ROOT = Path(__file__).resolve().parents[1]
SCRIPTS = sorted((ROOT / "scripts").glob("*.py"))
# the arguments a script runs with here: the timing scripts at their
# smallest size, since their full size only repeats the same launches or
# reads
ARGS = {
    "build_cost.py": ["--repeats", "1"],
    "import_cost.py": ["--launches", "1"],
    "read_cost.py": ["--repeats", "1", "--reads", "2"],
}


def test_scripts_are_found():
    assert SCRIPTS


@pytest.mark.parametrize("script", SCRIPTS, ids=lambda p: p.name)
def test_script_runs_cleanly(script):
    proc = subprocess.run(
        [sys.executable, str(script), *ARGS.get(script.name, [])],
        env={**os.environ, "PYTHONPATH": str(ROOT / "src")},
        capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stderr == ""
    assert proc.stdout.strip()


def test_exact_ops_at_seed_1():
    """The script's table at seed 1 is the pass `test_bench_smoke.py` pins
    in SEED_1: its items, and its exact operations, work W and Fractions
    built by the normalising constructor per item, as the script prints
    them."""
    proc = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / "exact_ops.py"), "--seed", "1"],
        env={**os.environ, "PYTHONPATH": str(ROOT / "src")},
        capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    header, *rows = proc.stdout.splitlines()[1:]
    assert header.split() == ["workload", "items", "ops", "W", "bool", "new"]
    pinned = {
        name: (f"{items}", f"{ops / items:.1f}", f"{w / items:.1f}", f"{new / items:.1f}")
        for name, (items, *_, w, ops, new) in SEED_1.items()
    }
    assert {row.split()[0]: (*row.split()[1:4], row.split()[5]) for row in rows} == pinned


def test_counter_restores_what_it_patches():
    """`Counter` wraps each counted function only while it is entered: on
    exit every attribute it patched is the original object again, a
    fault patched inside it included, once the fault's own
    `MonkeyPatch.context()` has undone it first."""
    modules = [m for k, m in sys.modules.items() if k == "mg" or k.startswith("mg.")]
    patched = [
        (linalg.Factorization, "__init__"),
        (linalg.Factorization, "_back"),
        *((m, name) for m in modules for name in OPERATIONS
          if getattr(m, name, None) is getattr(linalg, name)),
        *((getattr(importlib.import_module(module), owner), name)
          for _, module, owner, name in CALLS),
    ]
    real = [inspect.getattr_static(owner, name) for owner, name in patched]
    g = MetrizedGraph(
        list("abc"), [("ab", "a", "b", 1), ("bc", "b", "c", 2), ("ca", "c", "a", 3)]
    )
    with Counter() as counter:
        assert not any(inspect.getattr_static(o, n) is r for (o, n), r in zip(patched, real))
        with pytest.MonkeyPatch.context() as patch:
            fault_solve(patch, lambda x: None)
            green_system(g, RDivisor({"b": 1}))
    assert [counter.n[key] for key in ("factor", "solve", "W")] == [1, 1, 4]
    assert counter.n["ops"] > 0
    assert all(inspect.getattr_static(o, n) is r for (o, n), r in zip(patched, real))
