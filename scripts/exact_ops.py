#!/usr/bin/env python3
"""Count the exact arithmetic each benchmark item performs.

Runs every item of every pool of `bench/workloads.py` once, at seed 1 (or
the seed given), in this process, and prints per workload the mean per
item of:

* ops: exact operations, the calls of `mg.linalg`'s `_sum`, `_product`,
  `_submul` and `ratio` entered from outside those four, so a fused
  multiply-subtract counts once and a division, which is a `_product`,
  counts once, and the calls of `ResistanceKernel.read` and
  `_Potential._row`: a Green or resistance read, computed on integer parts
  and reduced once, counts once, and so does the integer row of an edge a
  potential forms on its first read inside it, each beside the operations
  they call, the row's on the fast type and the entries of Gamma a read
  computes on first touch;
* W: the work of the factorizations built, W = sum over their steps k of
  |s(k)|^2 + |s(k)| + 1, s(k) the neighbours of step k, which bounds the
  operations of factoring and of the selected inverse up to a constant;
* fast, plain: conversions to and from the fast rational type, counted in
  every `mg` module that imports them;
* bool: `Fraction.__bool__` calls, the zero tests on Fractions of either
  type;
* new: `Fraction.__new__` calls, the plain Fractions built through the
  normalising constructor (the fast type and `plain` never call it).

`Counter` also counts, unprinted, the factorizations built (factor), the
solves run (solve) and the path vectors w = D^-1 L^-1 e_c built (path),
one per column of Gamma that an entry off the selected inverse's pattern
is read in: the tests pin them and ops through it, so the table and the
tests count the same work.  Importing this file changes nothing; `Counter`
patches `mg` only while it is entered.

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
OPERATIONS = ("_sum", "_product", "_submul", "ratio")
COUNTS = ("ops", "W", "fast", "plain", "bool", "new")  # the printed columns


class Counter:
    """Wraps the counted functions while it is entered, and counts calls
    in `n`: the printed COUNTS, and factor, solve and path."""

    def __init__(self):
        self.n = dict.fromkeys((*COUNTS, "factor", "solve", "path"), 0)
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

    def factorization(self, init):
        def counted(factors, *args):
            self.n["factor"] += 1
            init(factors, *args)
            self.n["W"] += sum(len(m) ** 2 + len(m) + 1 for _, _, m in factors.steps)
        return counted

    def patch(self, owner, name, wrapper):
        # getattr_static keeps `__new__` a staticmethod when it is restored
        self.saved.append((owner, name, inspect.getattr_static(owner, name)))
        setattr(owner, name, wrapper)

    def __enter__(self):
        from mg import linalg, resistance

        for name in OPERATIONS:
            self.patch(linalg, name, self.operation(getattr(linalg, name)))
        # one operation a call, beside the operations each call makes
        for owner, name in ((resistance.ResistanceKernel, "read"), (resistance._Potential, "_row")):
            self.patch(owner, name, self.calls("ops", getattr(owner, name)))
        factorization = linalg.Factorization
        self.patch(factorization, "__init__", self.factorization(factorization.__init__))
        for key, name in (("solve", "solve"), ("path", "_path")):
            self.patch(factorization, name, self.calls(key, getattr(factorization, name)))
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


def count(name: str, wl) -> tuple[int, dict]:
    """(items, {count: mean per item}) over one pass of the pool `wl`."""
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
    sys.dont_write_bytecode = True  # leave no bytecode cache under bench/
    sys.path[:0] = [str(ROOT / "src"), str(ROOT / "bench")]
    import workloads

    print(f"seed {args.seed}, mean per item")
    print(f"{'workload':<14} {'items':>5} " + " ".join(f"{k:>8}" for k in COUNTS))
    with tempfile.TemporaryDirectory() as tmp:
        for name, pool in workloads.WORKLOADS.items():
            items, per = count(name, pool(args.seed, Path(tmp) / name))
            print(f"{name:<14} {items:>5} " + " ".join(f"{per[k]:>8.1f}" for k in COUNTS))


if __name__ == "__main__":
    main()
