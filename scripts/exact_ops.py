#!/usr/bin/env python3
"""Count the exact arithmetic each benchmark item performs.

Runs every item of every pool of `bench/workloads.py` once, at seed 1 (or
the seed given), in this process, and prints per workload the mean per
item of:

* ops: exact operations, the calls of `mg.linalg`'s `_sum`, `_product`
  and `_submul` entered from outside those three, so a fused
  multiply-subtract counts once and a division, which is a `_product`,
  counts once;
* fast, plain: conversions to and from the fast rational type, counted in
  every `mg` module that imports them;
* bool: `Fraction.__bool__` calls, the zero tests on Fractions of either
  type;
* new: `Fraction.__new__` calls, the plain Fractions built through the
  normalising constructor (the fast type and `plain` never call it).

Counts are exact and repeat from run to run, so two versions of `mg` can
be compared by them; they say nothing of time.  Every output is then
checked against the workload's own reference, uncounted.  The bench files
are imported read-only and the pools are written to a temporary directory:

    python3 scripts/exact_ops.py [--seed N]
"""

import argparse
import inspect
import sys
import tempfile
from fractions import Fraction
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.dont_write_bytecode = True  # leave no bytecode cache under bench/
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "bench")]

import workloads  # noqa: E402

from mg import linalg  # noqa: E402

OPERATIONS = ("_sum", "_product", "_submul")
COUNTS = ("ops", "fast", "plain", "bool", "new")


class Counter:
    """Wraps the counted functions while it is entered, and counts calls."""

    def __init__(self):
        self.n = dict.fromkeys(COUNTS, 0)
        self.depth = 0  # > 0 inside a counted operation
        self.saved = []

    def operation(self, f):
        def counted(*args):
            if self.depth:
                return f(*args)
            self.n["ops"] += 1
            self.depth += 1
            try:
                return f(*args)
            finally:
                self.depth -= 1
        return counted

    def calls(self, key, f):
        def counted(*args, **kwargs):
            self.n[key] += 1
            return f(*args, **kwargs)
        return counted

    def patch(self, owner, name, wrapper):
        # getattr_static keeps `__new__` a staticmethod when it is restored
        self.saved.append((owner, name, inspect.getattr_static(owner, name)))
        setattr(owner, name, wrapper)

    def __enter__(self):
        for name in OPERATIONS:
            self.patch(linalg, name, self.operation(getattr(linalg, name)))
        modules = [m for k, m in sys.modules.items() if k == "mg" or k.startswith("mg.")]
        for key in ("fast", "plain"):
            real = getattr(linalg, key)
            wrapper = self.calls(key, real)
            for module in modules:
                if getattr(module, key, None) is real:
                    self.patch(module, key, wrapper)
        self.patch(Fraction, "__bool__", self.calls("bool", Fraction.__bool__))
        self.patch(Fraction, "__new__", staticmethod(self.calls("new", Fraction.__new__)))
        return self

    def __exit__(self, *exc):
        for owner, name, real in reversed(self.saved):
            setattr(owner, name, real)
        self.saved.clear()


def count(name: str, seed: int, workdir: Path) -> tuple[int, dict]:
    """(items, {count: mean per item}) over one pass of the named pool."""
    wl = workloads.WORKLOADS[name](seed, workdir)
    with Counter() as counter:
        outputs = [wl.run(item) for item in wl.items]
    bad = [i for i, out in enumerate(outputs) if not wl.ok(i, out)]
    if bad:
        raise SystemExit(f"{name}: items {bad} failed their check")
    n = len(wl.items)
    return n, {k: v / n for k, v in counter.n.items()}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--seed", type=int, default=1)
    args = parser.parse_args(argv)
    print(f"seed {args.seed}, mean per item")
    print(f"{'workload':<14} {'items':>5} " + " ".join(f"{k:>8}" for k in COUNTS))
    with tempfile.TemporaryDirectory() as tmp:
        for name in workloads.WORKLOADS:
            items, per = count(name, args.seed, Path(tmp) / name)
            print(f"{name:<14} {items:>5} " + " ".join(f"{per[k]:>8.1f}" for k in COUNTS))


if __name__ == "__main__":
    main()
