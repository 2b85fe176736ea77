#!/usr/bin/env python3
"""Mutation check of `mg`: which small changes to `src/mg` the tests catch.

A site is one place in `src/mg` where one of four mutations applies:

* operator: an arithmetic or bitwise operator swapped, in an expression or
  an augmented assignment (+ and -, * and //, / to *, % to //, ** to *,
  << and >>, & and |);
* comparison: one operator of a comparison flipped to its negation (== and
  !=, < and >=, > and <=, is and is not, in and not in);
* constant: an int literal moved by one, up and down (n -> n + 1 and
  n -> n - 1), bools excepted;
* truth: the test of an `if`, a `while` or a conditional expression
  negated, when it is not a comparison, which the flip above negates
  (x -> not x, and not x -> x).

The default run lists every site, one a line, with its module, line,
function and mutation, then the counts, and runs no mutant: each costs a
run of the tests.  `--sample N` runs N sites drawn with `--seed`, `--scope
NAME` keeps only the sites inside the functions or methods named NAME
(the last part of the qualified name, or all of it), and `--tests` gives
the arguments of each pytest run, the whole suite by default.  Each mutant
is written, by `ast.unparse` of the changed tree, into a temporary copy of
the checkout, where pytest runs with `-x`, no bytecode written and a fixed
hypothesis seed, so a rerun with the same arguments repeats; it is killed
if the run fails or exceeds TIMEOUT, and survives if the run passes.
A survivor makes the exit status 1.

ALLOWLIST names each mutant known to be equivalent, one that no test can
kill because it changes no result, with its reason.  It is listed with the
sites, but neither sampled nor run.  Stdlib only:

    python3 scripts/mutate.py
    python3 scripts/mutate.py --seed 1 --sample 20 --scope residual \\
        --tests "tests/test_resistance.py tests/test_green.py"
"""

import argparse
import ast
import os
import shlex
import shutil
import signal
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from random import Random

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "mg"
TIMEOUT = 300  # seconds of one mutant's test run, past which it is killed

OPERATORS = {
    ast.Add: ast.Sub, ast.Sub: ast.Add, ast.Mult: ast.FloorDiv, ast.FloorDiv: ast.Mult,
    ast.Div: ast.Mult, ast.Mod: ast.FloorDiv, ast.Pow: ast.Mult,
    ast.LShift: ast.RShift, ast.RShift: ast.LShift, ast.BitAnd: ast.BitOr, ast.BitOr: ast.BitAnd,
}
NEGATIONS = {
    ast.Eq: ast.NotEq, ast.NotEq: ast.Eq, ast.Lt: ast.GtE, ast.GtE: ast.Lt,
    ast.Gt: ast.LtE, ast.LtE: ast.Gt, ast.Is: ast.IsNot, ast.IsNot: ast.Is,
    ast.In: ast.NotIn, ast.NotIn: ast.In,
}
SYMBOLS = {
    ast.Add: "+", ast.Sub: "-", ast.Mult: "*", ast.FloorDiv: "//", ast.Div: "/",
    ast.Mod: "%", ast.Pow: "**", ast.LShift: "<<", ast.RShift: ">>", ast.BitAnd: "&",
    ast.BitOr: "|", ast.Eq: "==", ast.NotEq: "!=", ast.Lt: "<", ast.GtE: ">=",
    ast.Gt: ">", ast.LtE: "<=", ast.Is: "is", ast.IsNot: "is not", ast.In: "in",
    ast.NotIn: "not in",
}

# equivalent mutants: (module, function, source line, mutation) and why
_ROOT_LOW = ("the root's lowlink is never compared: a bridge test reads the "
             "lowlink of a child end, and the root is no node's child")
ALLOWLIST = {
    ("fibers.py", "_Walk.__init__", "low = {root: 0}", "0 -> 1"): _ROOT_LOW,
    ("fibers.py", "_Walk.__init__", "low = {root: 0}", "0 -> -1"): _ROOT_LOW,
    ("linalg.py", "Factorization._back", "if len(terms) == 1:", "1 -> 0"):
        "terms is never empty there, so every sum takes the lcm path, which "
        "gives the same value in lowest terms: the one-term path saves work only",
    ("linalg.py", "Factorization._back", "return _sum(n, d, *terms[0])", "0 -> -1"):
        "terms has one entry there, so terms[-1] is terms[0]",
}


class Site:
    """One mutation: in `module`, inside `scope` (a qualified function
    name, or '' at module level), the `index`-th mutable node of the
    module's walk, changed as `change` says."""

    def __init__(self, module, scope, lineno, line, index, kind, change, apply):
        self.module, self.scope, self.lineno, self.line = module, scope, lineno, line
        self.index, self.kind, self.change, self.apply = index, kind, change, apply

    def key(self) -> tuple:
        return self.module, self.scope, self.line, self.change

    def __str__(self):
        return f"{self.module}:{self.lineno} {self.scope or '<module>'} {self.kind} {self.change}"


def _nodes(tree: ast.Module):
    """(node, qualified scope) of every node, in a fixed depth-first order."""
    stack = [(tree, "")]
    while stack:
        node, scope = stack.pop()
        yield node, scope
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            scope = f"{scope}.{node.name}" if scope else node.name
        stack.extend((child, scope) for child in reversed(list(ast.iter_child_nodes(node))))


def _set(node, field, value):
    def apply():
        setattr(node, field, value)
    return apply


def sites_of(path: Path, tree: ast.Module) -> list:
    """Every mutation site of one parsed module, in walk order."""
    lines = path.read_text().splitlines()
    docstrings = {
        id(node.body[0].value) for node, _ in _nodes(tree)
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef))
        and ast.get_docstring(node, clean=False) is not None
    }
    found = []

    def add(node, scope, kind, change, apply):
        line = lines[node.lineno - 1].strip()
        found.append(Site(path.name, scope, node.lineno, line, len(found), kind, change, apply))

    for node, scope in _nodes(tree):
        if isinstance(node, (ast.BinOp, ast.AugAssign)) and type(node.op) in OPERATORS:
            new = OPERATORS[type(node.op)]
            change = f"{SYMBOLS[type(node.op)]} -> {SYMBOLS[new]}"
            add(node, scope, "operator", change, _set(node, "op", new()))
        elif isinstance(node, ast.Compare):
            for k, op in enumerate(node.ops):
                new = NEGATIONS[type(op)]
                ops = [*node.ops[:k], new(), *node.ops[k + 1:]]
                add(node, scope, "comparison", f"{SYMBOLS[type(op)]} -> {SYMBOLS[new]}",
                    _set(node, "ops", ops))
        elif (isinstance(node, ast.Constant) and type(node.value) is int
              and id(node) not in docstrings):
            for step in (1, -1):
                new = node.value + step
                add(node, scope, "constant", f"{node.value} -> {new}", _set(node, "value", new))
        elif isinstance(node, (ast.If, ast.While, ast.IfExp)) and not isinstance(
            node.test, ast.Compare
        ):
            test = node.test
            if isinstance(test, ast.UnaryOp) and isinstance(test.op, ast.Not):
                add(node, scope, "truth", "not x -> x", _set(node, "test", test.operand))
            else:
                negated = ast.UnaryOp(ast.Not(), test)
                add(node, scope, "truth", "x -> not x", _set(node, "test", negated))
    return found


def all_sites() -> list:
    """Every site of `src/mg`, module by module in name order."""
    out = []
    for path in sorted(SRC.glob("*.py")):
        out += sites_of(path, ast.parse(path.read_text(), str(path)))
    return out


def mutant(site: Site) -> str:
    """The source of site's module with site's mutation made."""
    path = SRC / site.module
    tree = ast.parse(path.read_text(), str(path))
    sites_of(path, tree)[site.index].apply()
    return ast.unparse(tree) + "\n"


def run(site: Site, copy: Path, tests: list) -> str:
    """killed, survived or timeout: pytest on `tests` in `copy`, with the
    site's module mutated there and restored afterwards."""
    target = copy / "src" / "mg" / site.module
    original = target.read_text()
    target.write_text(mutant(site))
    env = {**os.environ, "PYTHONPATH": str(copy / "src"), "PYTHONDONTWRITEBYTECODE": "1"}
    cmd = [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider",
           "--hypothesis-seed=0", *tests]
    proc = subprocess.Popen(cmd, cwd=copy, env=env, stdout=subprocess.DEVNULL,
                            stderr=subprocess.DEVNULL, start_new_session=True)
    try:
        code = proc.wait(timeout=TIMEOUT)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        code = None
    finally:
        target.write_text(original)
    return "timeout" if code is None else "survived" if code == 0 else "killed"


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--seed", type=int, default=0, help="seed of the sample")
    parser.add_argument("--sample", type=int, default=0, help="mutants to run (0: list only)")
    parser.add_argument("--scope", action="append", default=[],
                        help="only sites inside this function or method (repeatable)")
    parser.add_argument("--tests", default="tests", help="the arguments of each pytest run")
    args = parser.parse_args(argv)

    sites = all_sites()
    if args.scope:
        sites = [s for s in sites if s.scope in args.scope or s.scope.rsplit(".", 1)[-1] in args.scope]
    pool = [s for s in sites if s.key() not in ALLOWLIST]
    if not args.sample:
        for s in sites:
            reason = ALLOWLIST.get(s.key())
            print(f"{s}  [equivalent: {reason}]" if reason else s)
        kinds = {k: sum(s.kind == k for s in sites) for k in ("operator", "comparison", "constant", "truth")}
        print(f"{len(sites)} sites: " + ", ".join(f"{n} {k}" for k, n in kinds.items())
              + f"; {len(sites) - len(pool)} allowlisted; no mutant run (--sample N runs N)")
        return 0

    picked = Random(args.seed).sample(range(len(pool)), min(args.sample, len(pool)))
    chosen = [pool[k] for k in sorted(picked)]
    tests = shlex.split(args.tests)
    results = {"killed": 0, "survived": 0, "timeout": 0}
    with tempfile.TemporaryDirectory() as tmp:
        copy = Path(tmp) / "repo"
        shutil.copytree(ROOT, copy, ignore=shutil.ignore_patterns(
            ".git", "__pycache__", ".hypothesis", ".pytest_cache", ".bench_work", ".benchmarks"))
        for site in chosen:
            t0 = time.perf_counter()
            outcome = run(site, copy, tests)
            results[outcome] += 1
            print(f"{outcome:<8} {site}  ({time.perf_counter() - t0:.1f} s)", flush=True)
    print(f"seed {args.seed}, {len(chosen)} of {len(pool)} sites run: "
          + ", ".join(f"{n} {k}" for k, n in results.items()))
    return 1 if results["survived"] else 0


if __name__ == "__main__":
    sys.exit(main())
