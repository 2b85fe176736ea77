#!/usr/bin/env python3
"""Measure what importing the `mg` CLI adds to a Python start-up.

Every `mg` command first pays `import mg.cli`.  This script launches fresh
interpreters, alternating `python -c pass` and `python -c "import mg.cli"`
with `src` on PYTHONPATH (one untimed launch of each first), and prints
the median wall time of each and their difference.  It then lists the
modules that `import mg.cli` adds to a bare interpreter (`-S`, so that
`site`'s own imports do not hide any):

    python3 scripts/import_cost.py [--launches N]

Start-up is sensitive to the bytecode cache: with PYTHONDONTWRITEBYTECODE
set, no cache is written, and every launch compiles the package again.
The first line says which case was measured.
"""

import argparse
import os
import statistics
import subprocess
import sys
import textwrap
from pathlib import Path
from time import perf_counter

SRC = Path(__file__).resolve().parent.parent / "src"
ENV = {**os.environ, "PYTHONPATH": str(SRC)}
BARE = [sys.executable, "-c", "pass"]
CLI = [sys.executable, "-c", "import mg.cli"]
ADDED = (
    "import sys; before = set(sys.modules); import mg.cli; "
    "print(*sorted(set(sys.modules) - before))"
)


def launch(cmd) -> float:
    t0 = perf_counter()
    subprocess.run(cmd, env=ENV, check=True)
    return perf_counter() - t0


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--launches", type=int, default=5, help="timed launches of each command")
    args = ap.parse_args()
    if args.launches < 1:
        ap.error("--launches must be at least 1")
    launch(BARE)
    launch(CLI)
    bare, cli = [], []
    for i in range(args.launches):
        # alternate which command runs first, so drift hits both alike
        for cmd, times in ((BARE, bare), (CLI, cli))[:: 1 if i % 2 == 0 else -1]:
            times.append(launch(cmd))
    cache = "not written" if os.environ.get("PYTHONDONTWRITEBYTECODE") else "written"
    print(f"launches       {args.launches} of each, alternating (bytecode cache {cache})")
    print(f"python -c pass {statistics.median(bare):.4f} s (median)")
    print(f"import mg.cli  {statistics.median(cli):.4f} s (median)")
    print(f"difference     {statistics.median(cli) - statistics.median(bare):.4f} s")
    added = subprocess.run(
        [sys.executable, "-S", "-c", ADDED], env=ENV, check=True, capture_output=True, text=True
    ).stdout.split()
    print(f"modules import mg.cli adds under -S ({len(added)}):")
    print(textwrap.fill(" ".join(added), initial_indent="  ", subsequent_indent="  "))


if __name__ == "__main__":
    main()
