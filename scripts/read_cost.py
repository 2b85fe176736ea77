#!/usr/bin/env python3
"""Time each kind of point read, on first touch and in steady state.

For each input and each kind of read, a fresh graph and Green system are
built, untimed, and the reads of that kind are timed on them twice: first
touch, when a potential forms the row of each edge it reads inside and
Gamma's entries off the selected inverse's pattern are computed, then
steady state, when everything is kept.  Each is the best of `--repeats`
fresh builds, in microseconds per read, wall time of this process.  The
reads go through the library's own entry points, `GreenSystem.eval` and
`effective_resistance`, so any version of `mg` can be timed by it.

Kinds: vertex-vertex and interior-vertex Green values, interior-interior
Green values, and resistances between two interior points.  Inputs:

* point-queries: the seed's pool of the benchmark workload (ten
  cycle-plus-chords graphs, V = 12..16), each with its own divisor and its
  own reads, sorted by kind;
* K12: the complete graph on 12 vertices, each length p/q with 40 digits
  in p and in q, drawn from the seed, D = v0 plus a point inside the first
  edge, and `--reads` reads of each kind, drawn from the seed.

    python3 scripts/read_cost.py [--seed N] [--repeats R] [--reads N]
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

from mg import GraphPoint, MetrizedGraph, RDivisor  # noqa: E402
from mg.green import green_system  # noqa: E402
from mg.resistance import effective_resistance  # noqa: E402

KINDS = ("vertex-vertex", "interior-vertex", "interior-interior", "resistance")
POOL_KINDS = {"gv": "vertex-vertex", "r": "resistance"}


def point_queries(seed: int) -> list:
    """[(graph, divisor, {kind: [(x, y)]})] for the point-queries pool."""
    cases = []
    for q in inputs.GENERATORS["point-queries"](seed):
        reads = {kind: [] for kind in KINDS}
        for kind, x, y in q.reads:
            if kind == "g":
                kind = "interior-vertex" if y[0] == "vertex" else "interior-interior"
            kind = POOL_KINDS.get(kind, kind)
            reads[kind].append((workloads.point(q.graph, x), workloads.point(q.graph, y)))
        cases.append((workloads.graph_of(q.graph), workloads.divisor_of(q.graph), reads))
    return cases


def k12(seed: int, n_reads: int) -> list:
    """[(graph, divisor, {kind: [(x, y)]})] for one K12 with 40-digit lengths."""
    rng = Random(f"read-cost:k12:{seed}")
    vertices = [f"v{i}" for i in range(12)]

    def digits40():
        return rng.randint(10**39, 10**40 - 1)

    edges = [
        (f"e{a}_{b}", vertices[a], vertices[b], Fraction(digits40(), digits40()))
        for a in range(12) for b in range(a + 1, 12)
    ]
    g = MetrizedGraph(vertices, edges)

    def interior():
        e = rng.choice(g.edges)
        m = rng.randint(2, 7)
        return GraphPoint.on_edge(e.id, e.length * Fraction(rng.randint(1, m - 1), m))

    def vertex():
        return GraphPoint.at_vertex(rng.choice(vertices))

    draw = {
        "vertex-vertex": (vertex, vertex),
        "interior-vertex": (interior, vertex),
        "interior-interior": (interior, interior),
        "resistance": (interior, interior),
    }
    reads = {kind: [(x(), y()) for _ in range(n_reads)] for kind, (x, y) in draw.items()}
    first = g.edges[0]
    d = RDivisor({"v0": 1, GraphPoint.on_edge(first.id, first.length / 3): 1})
    return [(g, d, reads)]


def timed(systems: list, kind: str) -> float:
    """Seconds to run every read of the kind on its own system."""
    start = time.perf_counter()
    for g, s, reads in systems:
        if kind == "resistance":
            for x, y in reads[kind]:
                effective_resistance(g, x, y)
        else:
            for x, y in reads[kind]:
                s.eval(x, y)
    return time.perf_counter() - start


def cost(cases: list, kind: str, repeats: int) -> tuple:
    """(reads, first-touch and steady-state microseconds per read)."""
    n = sum(len(reads[kind]) for _, _, reads in cases)
    first = steady = float("inf")
    for _ in range(repeats):
        # a fresh graph, so a fresh kernel: nothing of a read is kept yet
        systems = []
        for g, d, reads in cases:
            g = MetrizedGraph(g.vertex_list, g.edges)
            systems.append((g, green_system(g, d), reads))
        first = min(first, timed(systems, kind))
        steady = min(steady, timed(systems, kind))
    return n, 1e6 * first / n, 1e6 * steady / n


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--repeats", type=int, default=3)
    parser.add_argument("--reads", type=int, default=20, help="reads of each kind on K12")
    args = parser.parse_args(argv)
    inputs_ = {
        "point-queries": point_queries(args.seed),
        "K12 40-digit": k12(args.seed, args.reads),
    }
    print(f"seed {args.seed}, best of {args.repeats}, microseconds per read")
    print(f"{'input':<14} {'kind':<18} {'reads':>5} {'first':>10} {'steady':>10}")
    for name, cases in inputs_.items():
        for kind in KINDS:
            n, first, steady = cost(cases, kind, args.repeats)
            print(f"{name:<14} {kind:<18} {n:>5} {first:>10.1f} {steady:>10.1f}")


if __name__ == "__main__":
    main()
