#!/usr/bin/env python3
"""Count the exact arithmetic each benchmark item performs.

Runs every item of every pool of `bench/workloads.py` once, at seed 1 (or
the seed given), in this process, and prints per workload the mean per
item of:

* ops: exact operations, the calls of `mg.linalg`'s `_sum`, `product`,
  `_submul`, `ratio` and `Factorization._back` entered from outside those
  five, so a fused multiply-subtract counts once, a division, which is a
  `product`, counts once, and the back recurrence of one step, a sum
  formed on integer parts and reduced once, counts once however many
  terms it has, its `_sum` or `ratio` not counted again, and not at all
  when every term is zero and it returns its start s as it is, each
  counted in every `mg` module that imports it; and the
  calls of `ResistanceKernel.read` and `_Potential._row`: a Green or
  resistance read, computed on integer parts
  and reduced once, counts once, and so does the integer row of an edge a
  potential forms on its first read inside it, each beside the operations
  they call, the row's reduction of its coefficient and the entries of
  Gamma a read computes on first touch;
* W: the work of the factorizations built, W = sum over their steps k of
  |s(k)|^2 + |s(k)| + 1, s(k) the neighbours of step k, which bounds the
  operations of factoring and of the selected inverse up to a constant;
* bool: `Fraction.__bool__` calls, the zero tests on Fractions;
* new: `Fraction.__new__` calls, the Fractions built through the
  normalising constructor, which `mg.linalg`'s builders never call and
  which, on Python 3.11 and earlier, every Fraction operator's result
  goes through: so a pass whose `new` is 0 forms none of its values by
  Fraction's operators.

`Counter` also counts, unprinted, the factorizations built (factor) and
the calls declared in CALLS: the solves run (solve); the path vectors w =
D^-1 L^-1 e_c built (path), one per column of Gamma that an entry off the
selected inverse's pattern is read in; the potentials built (potential),
the kernel's S and each Green system's h; the passes over the edge table
that form L·x, one per `ResistanceKernel.residual` or `laplacian`
(laplacian); the resistances read off
the kernel between points (resistance); the bridge walks of fiber
configurations (walk); the graphs built (graph); the connectivity
searches over a graph (search); and the divisors moved to the normal form
of their graph's points (relocate).  Every count the tests pin is read
from it, through their `counts` fixture, and the seed-1 pass of each
workload is pinned once, in `tests/test_bench_smoke.py`'s SEED_1, so the
table and the tests count the same work.  Importing this file changes
nothing; `Counter` patches `mg` only while it is entered.

Counts are exact and repeat from run to run, so two versions of `mg` can
be compared by them; they say nothing of time.  Every output is then
checked against the workload's own reference, uncounted.  The bench files
are imported read-only and the pools are written to a temporary directory:

    python3 scripts/exact_ops.py [--seed N]
"""

import argparse
import importlib
import inspect
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OPERATIONS = ("_sum", "product", "_submul", "ratio")
COUNTS = ("ops", "W", "bool", "new")  # the printed columns


# the counted calls: (key, module, owner, attribute), each call of the
# attribute adding 1 to n[key]; a Green or resistance read and the row a
# potential forms on its first read inside an edge count as operations
CALLS = (
    ("ops", "mg.resistance", "ResistanceKernel", "read"),
    ("ops", "mg.resistance", "_Potential", "_row"),
    ("solve", "mg.linalg", "Factorization", "solve"),
    ("path", "mg.linalg", "Factorization", "_path"),
    ("potential", "mg.resistance", "_Potential", "__init__"),
    ("laplacian", "mg.resistance", "ResistanceKernel", "_excess"),
    ("resistance", "mg.resistance", "ResistanceKernel", "resistance"),
    ("walk", "mg.fibers", "_Walk", "__init__"),
    ("graph", "mg.graphs", "MetrizedGraph", "__init__"),
    ("search", "mg.graphs", "MetrizedGraph", "_reachable"),
    ("relocate", "mg.graphs", "RDivisor", "relocate"),
    ("bool", "fractions", "Fraction", "__bool__"),
    ("new", "fractions", "Fraction", "__new__"),
)


class Counter:
    """Wraps the counted functions while it is entered, and counts calls
    in `n`: the printed COUNTS, factor, and the keys of CALLS."""

    def __init__(self):
        self.n = dict.fromkeys((*COUNTS, "factor", *(key for key, *_ in CALLS)), 0)
        self.depth = 0  # > 0 inside a counted operation
        self.saved = []

    def operation(self, f, returns_first=False):
        """f counted as one operation when entered from outside every
        counted operation; with `returns_first`, a call that returns its
        first argument itself, having summed nothing, counts nothing."""
        def counted(*args):
            if self.depth:
                return f(*args)
            self.depth += 1
            try:
                r = f(*args)
            finally:
                self.depth -= 1
            if not (returns_first and r is args[0]):
                self.n["ops"] += 1
            return r
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
        # getattr_static sees `__new__` as a staticmethod: its wrapper is
        # one too, and it is one again when restored
        real = inspect.getattr_static(owner, name)
        self.saved.append((owner, name, real))
        setattr(owner, name, staticmethod(wrapper) if isinstance(real, staticmethod) else wrapper)

    def __enter__(self):
        from mg import linalg

        # an operation is counted in every module of `mg` that imports it
        modules = [m for k, m in sys.modules.items() if k == "mg" or k.startswith("mg.")]
        for name in OPERATIONS:
            real = getattr(linalg, name)
            wrapper = self.operation(real)
            for module in modules:
                if getattr(module, name, None) is real:
                    self.patch(module, name, wrapper)
        factorization = linalg.Factorization
        self.patch(factorization, "__init__", self.factorization(factorization.__init__))
        self.patch(factorization, "_back", self.operation(factorization._back, True))
        for key, module, owner, name in CALLS:
            owner = getattr(importlib.import_module(module), owner)
            self.patch(owner, name, self.calls(key, getattr(owner, name)))
        return self

    def __exit__(self, *exc):
        for owner, name, real in reversed(self.saved):
            setattr(owner, name, real)
        self.saved.clear()


def count(wl) -> tuple[list, dict]:
    """One pass of the pool `wl` under `Counter`: the outputs, in item
    order, and the counts."""
    with Counter() as counter:
        outputs = [wl.run(item) for item in wl.items]
    return outputs, counter.n


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
            wl = pool(args.seed, Path(tmp) / name)
            outputs, n = count(wl)
            bad = [i for i, out in enumerate(outputs) if not wl.ok(i, out)]
            if bad:
                raise SystemExit(f"{name}: items {bad} failed their check")
            items = len(outputs)
            print(f"{name:<14} {items:>5} " + " ".join(f"{n[k] / items:>8.1f}" for k in COUNTS))


if __name__ == "__main__":
    main()
