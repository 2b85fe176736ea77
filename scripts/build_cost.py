#!/usr/bin/env python3
"""Time the build of one Green system, the kernel's factorization included.

For each input a fresh graph is made, untimed, and one `green_system` build
on it is timed: validation, the resistance kernel (the factorization, its
selected inverse, every r_e, 2 m_can) and the Green system's solve and
certificate.  Each time is the best of `--repeats` fresh builds, in
milliseconds of process time (`time.process_time`), per graph.  The build
goes through the library's own entry point, so any version of `mg` can be
timed by it.

Inputs, each length p/q with the stated number of digits in p and in q,
drawn from the seed, and D the first vertex but on the pool:

* einv-chords: the seed's pool of the benchmark workload (27
  cycle-plus-chords graphs, V = 10..24), each with its own divisor, timed
  together and reported per graph;
* K12 40-digit: the complete graph on 12 vertices;
* K20 1-digit: the complete graph on 20 vertices;
* grid 20x20: the 20 by 20 grid, every length 1;
* path150 40-digit: a path of 150 edges.

    python3 scripts/build_cost.py [--seed N] [--repeats R]
"""

import argparse
import sys
import time
from fractions import Fraction
from pathlib import Path
from random import Random

ROOT = Path(__file__).resolve().parent.parent
sys.dont_write_bytecode = True  # leave no bytecode cache under bench/
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "bench")]

import inputs  # noqa: E402
import workloads  # noqa: E402

from mg import MetrizedGraph, RDivisor  # noqa: E402
from mg.green import green_system  # noqa: E402


def lengths(rng: Random, digits: int, count: int) -> list:
    """`count` lengths p/q, p and q each of `digits` digits."""
    low, high = 10 ** (digits - 1), 10**digits - 1
    return [Fraction(rng.randint(low, high), rng.randint(low, high)) for _ in range(count)]


def complete(rng: Random, n: int, digits: int) -> tuple:
    """(vertices, edges) of the complete graph on n vertices."""
    vertices = [f"v{i}" for i in range(n)]
    pairs = [(a, b) for a in range(n) for b in range(a + 1, n)]
    edges = [
        (f"e{a}_{b}", vertices[a], vertices[b], l)
        for (a, b), l in zip(pairs, lengths(rng, digits, len(pairs)))
    ]
    return vertices, edges


def grid(n: int) -> tuple:
    """(vertices, edges) of the n by n grid, every length 1."""
    vertices = [f"v{r}_{c}" for r in range(n) for c in range(n)]
    edges = [(f"h{r}_{c}", f"v{r}_{c}", f"v{r}_{c + 1}", 1) for r in range(n) for c in range(n - 1)]
    edges += [(f"w{r}_{c}", f"v{r}_{c}", f"v{r + 1}_{c}", 1) for r in range(n - 1) for c in range(n)]
    return vertices, edges


def path(rng: Random, n: int, digits: int) -> tuple:
    """(vertices, edges) of a path of n edges."""
    vertices = [f"v{i}" for i in range(n + 1)]
    edges = [
        (f"e{i}", vertices[i], vertices[i + 1], l)
        for i, l in enumerate(lengths(rng, digits, n))
    ]
    return vertices, edges


def cases(seed: int) -> dict:
    """{input: [(vertices, edges, divisor terms)]}, as the module docstring
    lists them."""
    pool = [
        (spec.vertices, [(e, u, v, Fraction(l)) for e, u, v, l in spec.edges],
         list(workloads.divisor_of(spec).items()))
        for spec in inputs.GENERATORS["einv-chords"](seed)
    ]
    rng = Random(f"build-cost:{seed}")
    graphs = {
        "K12 40-digit": complete(rng, 12, 40),
        "K20 1-digit": complete(rng, 20, 1),
        "grid 20x20": grid(20),
        "path150 40-digit": path(rng, 150, 40),
    }
    return {
        "einv-chords": pool,
        **{name: [(vs, es, [(vs[0], 1)])] for name, (vs, es) in graphs.items()},
    }


def cost(graphs: list, repeats: int) -> float:
    """Best-of-`repeats` process milliseconds of one build, per graph."""
    best = float("inf")
    for _ in range(repeats):
        # fresh graphs, so fresh kernels: nothing of a build is kept
        fresh = [(MetrizedGraph(vs, es), RDivisor(terms)) for vs, es, terms in graphs]
        start = time.process_time()
        for g, d in fresh:
            green_system(g, d)
        best = min(best, time.process_time() - start)
    return 1e3 * best / len(graphs)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--repeats", type=int, default=5)
    args = parser.parse_args(argv)
    print(f"seed {args.seed}, best of {args.repeats}, process ms per green_system build")
    print(f"{'input':<18} {'graphs':>6} {'V':>5} {'E':>5} {'ms':>10}")
    for name, graphs in cases(args.seed).items():
        vs, es, _ = graphs[-1]
        ms = cost(graphs, args.repeats)
        print(f"{name:<18} {len(graphs):>6} {len(vs):>5} {len(es):>5} {ms:>10.2f}")


if __name__ == "__main__":
    main()
