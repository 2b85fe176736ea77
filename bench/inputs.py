"""Seeded input generators for the benchmark workloads.

Every generator takes the seed as an argument and draws from its own
`random.Random`, seeded by a string (which `Random` digests with SHA-512,
not the per-process `hash`), so one seed always yields byte-identical
files.  What sets the cost of an item is stratified rather than drawn: each
pool covers its sizes, shapes, length multiset and divisor coefficients the
same way for every seed, and the seed places them (chords, tree edges,
divisor support, self-nodes, query points, the order of lengths).  That
keeps the work per pass nearly equal across seeds, so run-to-run spread
measures the program, not the draw.

Each generated input carries, next to its file text, the structure it was
made from, so reference values are computed without going through the
parser under test.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from random import Random


def rng_for(workload: str, seed: int) -> Random:
    return Random(f"{workload}:{seed}")


@dataclass
class GraphSpec:
    """A metrized graph with a divisor, as written to a `.mg` file."""

    vertices: list
    edges: list  # (id, u, v, length)
    points: dict = field(default_factory=dict)  # name -> (edge id, offset)
    divisor: list = field(default_factory=list)  # (vertex or point name, coeff)

    def text(self) -> str:
        out = ["metrized_graph"]
        out += [f"vertex {v}" for v in self.vertices]
        out += [f"edge {e} {u} {v} {l}" for e, u, v, l in self.edges]
        out += [f"point {n} on {e} at {t}" for n, (e, t) in self.points.items()]
        out += [f"divisor {n} {a}" for n, a in self.divisor]
        return "\n".join(out) + "\n"


@dataclass
class ChainSpec:
    """A chain fiber: components C0..C(n-1) in a row, plus self-nodes."""

    genera: list
    bridges: list  # (node id, length) joining C(i) and C(i+1)
    self_nodes: list  # (node id, component index, length)

    def text(self) -> str:
        out = ["fiber"]
        out += [f"component C{i} genus {g}" for i, g in enumerate(self.genera)]
        nodes = [(nid, i, i + 1, l) for i, (nid, l) in enumerate(self.bridges)]
        nodes += [(nid, c, c, l) for nid, c, l in self.self_nodes]
        for nid, a, b, l in nodes:
            tail = "" if l == 1 else f" length {l}"
            out.append(f"node {nid} C{a} C{b}{tail}")
        return "\n".join(out) + "\n"

    def genus(self) -> int:
        return sum(self.genera) + len(self.self_nodes)

    def delta(self) -> list[int]:
        """Node-type counts, from the chain structure alone: a self-node is
        type 0, and the bridge after component i has type min(h, g - h) with
        h the genus of components 0..i plus their self-nodes."""
        g = self.genus()
        per_comp = list(self.genera)
        for _, c, _ in self.self_nodes:
            per_comp[c] += 1
        counts = [0] * (g // 2 + 1)
        counts[0] = len(self.self_nodes)
        h = 0
        for i in range(len(self.bridges)):
            h += per_comp[i]
            counts[min(h, g - h)] += 1
        return counts


# Edge lengths: an even spread over this multiset, in a
# seeded order.  Drawing each length independently made the cost of exact
# elimination (which follows operand sizes) vary by a third between seeds.
LENGTHS = tuple(Fraction(a, b) for a in range(1, 7) for b in range(1, 5))


def spread_lengths(rng: Random, m: int) -> list[Fraction]:
    lengths = [LENGTHS[i * len(LENGTHS) // m] for i in range(m)]
    rng.shuffle(lengths)
    return lengths


def cycle_chords(rng: Random, n: int, n_edges: int) -> GraphSpec:
    """Cycle v0..v(n-1) plus distinct chords between non-adjacent vertices."""
    vertices = [f"v{i}" for i in range(n)]
    lengths = spread_lengths(rng, n_edges)
    pairs = [(i, (i + 1) % n) for i in range(n)]
    used = {frozenset(p) for p in pairs}
    while len(pairs) < n_edges:
        i, j = rng.sample(range(n), 2)
        if frozenset((i, j)) not in used:
            used.add(frozenset((i, j)))
            pairs.append((i, j))
    edges = [(f"c{k}" if k < n else f"h{k - n}", vertices[i], vertices[j], lengths[k])
             for k, (i, j) in enumerate(pairs)]
    return GraphSpec(vertices, edges)


# Divisor coefficients by position in the pool; the vertices are drawn.  The coefficients set the denominators of the measure, and with
# them the operand sizes of every solve, so they are not left to the draw.
COEFFS = ((1,), (2, -1), (1, 1, 1), (3,), (1, -2, 2), (2, 1))


def placed_divisor(rng: Random, vertices: list, k: int) -> list:
    """Coefficients COEFFS[k] (cut to the vertex count; no prefix of an
    entry has degree -2) on distinct random vertices."""
    coeffs = COEFFS[k % len(COEFFS)][: len(vertices)]
    return list(zip(rng.sample(vertices, len(coeffs)), coeffs))


def interior_offset(rng: Random, length: Fraction) -> Fraction:
    den = rng.randint(2, 5)
    return length * Fraction(rng.randint(1, den - 1), den)


# -- einv-chords ---------------------------------------------------------------

EINV_SIZES = (10, 12, 14, 16, 17, 18, 20, 22, 24) * 3
EINV_INTERIOR = (1, 5, 10, 14, 19, 23)  # pool positions whose divisor gets an interior point


def einv_chords(seed: int) -> list[GraphSpec]:
    rng = rng_for("einv-chords", seed)
    pool = []
    for k, n in enumerate(EINV_SIZES):
        spec = cycle_chords(rng, n, (3 * n) // 2)
        spec.divisor = placed_divisor(rng, spec.vertices, k)
        if k in EINV_INTERIOR:
            eid, _, _, length = rng.choice(spec.edges)
            spec.points["p0"] = (eid, interior_offset(rng, length))
            spec.divisor.append(("p0", 1))
        pool.append(spec)
    return pool


# -- fiber-chains --------------------------------------------------------------

CHAIN_SIZES = (16, 22, 28, 34, 40) * 3


NODE_LENGTHS = (Fraction(2), Fraction(3, 2), Fraction(5, 3), Fraction(3), Fraction(5, 2))


def stratified(rng: Random, total: int, k: int) -> list[int]:
    """k distinct positions in range(total), one drawn from each of k equal
    stretches, so that draws never bunch up at one end."""
    return [j * total // k + rng.randrange((j + 1) * total // k - j * total // k)
            for j in range(k)]


def chain_fiber(rng: Random, n: int, n_self: int, odd_lengths: int) -> ChainSpec:
    """Genera 1, 2, 3 in equal shares and a seeded order; self-nodes and
    nodes of non-unit length at stratified random places."""
    genera = [1 + i % 3 for i in range(n)]
    rng.shuffle(genera)
    nodes = [[f"b{i}", Fraction(1)] for i in range(n - 1)]
    self_nodes = [[f"s{k}", c, Fraction(1)] for k, c in enumerate(stratified(rng, n, n_self))]
    odd = stratified(rng, len(nodes) + n_self, odd_lengths)
    for k, p in enumerate(odd):
        target = nodes[p] if p < len(nodes) else self_nodes[p - len(nodes)]
        target[-1] = NODE_LENGTHS[k % len(NODE_LENGTHS)]
    return ChainSpec(genera, [tuple(b) for b in nodes], [tuple(s) for s in self_nodes])


def fiber_chains(seed: int) -> list[ChainSpec]:
    rng = rng_for("fiber-chains", seed)
    return [chain_fiber(rng, n, n // 4, n // 6) for n in CHAIN_SIZES]


# -- point-queries -------------------------------------------------------------

QUERY_SIZES = (12, 13, 14, 15, 16) * 2
QUERY_READS = (50, 25, 25)  # interior Green reads, resistances, vertex lookups


@dataclass
class QuerySpec:
    graph: GraphSpec
    reads: list  # (kind, x, y): kind "g" | "r" | "gv"; points as tuples


def random_interior(rng: Random, spec: GraphSpec) -> tuple:
    eid, _, _, length = rng.choice(spec.edges)
    return ("edge", eid, interior_offset(rng, length))


def point_queries(seed: int) -> list[QuerySpec]:
    rng = rng_for("point-queries", seed)
    pool = []
    for k, n in enumerate(QUERY_SIZES):
        spec = cycle_chords(rng, n, (3 * n) // 2)
        spec.divisor = placed_divisor(rng, spec.vertices, k)
        n_green, n_res, n_vert = QUERY_READS
        reads = []
        for _ in range(n_green):
            y = random_interior(rng, spec) if rng.random() < 0.5 else (
                "vertex", rng.choice(spec.vertices))
            reads.append(("g", random_interior(rng, spec), y))
        for _ in range(n_res):
            reads.append(("r", random_interior(rng, spec), random_interior(rng, spec)))
        for _ in range(n_vert):
            u, v = rng.choice(spec.vertices), rng.choice(spec.vertices)
            reads.append(("gv", ("vertex", u), ("vertex", v)))
        rng.shuffle(reads)
        pool.append(QuerySpec(spec, reads))
    return pool


# -- batch-small ---------------------------------------------------------------

BATCH_DIRS = 16
BATCH_MG = 8  # valid .mg files per directory
BATCH_FIB = 3  # valid .fib files per directory
BAD_KINDS = ("bad_rational", "degree_minus_two", "disconnected", "genus_small")
BAD_EXIT = {"bad_rational": 2, "degree_minus_two": 3, "disconnected": 2, "genus_small": 3}
BAD_ERROR = {
    "bad_rational": "BadRational",
    "degree_minus_two": "DegreeMinusTwo",
    "disconnected": "Disconnected",
    "genus_small": "GenusTooSmall",
}


@dataclass
class BatchFile:
    name: str
    text: str
    spec: object  # GraphSpec | ChainSpec | None for a bad file
    bad: str | None = None


# (vertices, extra edges) of the .mg files of every batch directory
TINY_SHAPES = ((2, 1), (3, 0), (3, 2), (4, 1), (4, 3), (5, 0), (5, 2), (6, 1))


def tiny_graph(rng: Random, k: int) -> GraphSpec:
    """Random spanning tree with the k-th shape's vertex count, plus its
    number of extra edges, which may be loops or parallels (the shape of the
    test-suite graphs)."""
    n, extra = TINY_SHAPES[k % len(TINY_SHAPES)]
    vertices = [f"v{i}" for i in range(n)]
    lengths = spread_lengths(rng, n - 1 + extra)
    edges = [(f"e{i - 1}", vertices[rng.randrange(i)], vertices[i]) for i in range(1, n)]
    edges += [(f"e{n - 1 + j}", rng.choice(vertices), rng.choice(vertices))
              for j in range(extra)]
    spec = GraphSpec(vertices, [e + (l,) for e, l in zip(edges, lengths)])
    spec.divisor = placed_divisor(rng, vertices, k)
    return spec


def tiny_chain(rng: Random, k: int) -> ChainSpec:
    return chain_fiber(rng, 2 + k % 3, k % 3, 1)


def bad_file(rng: Random, kind: str) -> tuple[str, str]:
    """(suffix, text) of a file that must fail with BAD_ERROR[kind]."""
    if kind == "genus_small":
        return ".fib", "fiber\ncomponent A genus 1\n"
    spec = tiny_graph(rng, rng.randrange(len(TINY_SHAPES)))
    if kind == "bad_rational":
        eid, u, v, _ = spec.edges[0]
        spec.edges[0] = (eid, u, v, "1/0")
    elif kind == "degree_minus_two":
        spec.divisor = [(spec.vertices[0], -2)]
    else:  # disconnected: an isolated extra vertex
        spec.vertices.append("iso")
    return ".mg", spec.text()


def batch_small(seed: int) -> list[list[BatchFile]]:
    rng = rng_for("batch-small", seed)
    dirs = []
    for d in range(BATCH_DIRS):
        files = []
        for k in range(BATCH_MG):
            spec = tiny_graph(rng, k)
            files.append(BatchFile(f"g{k}.mg", spec.text(), spec))
        for k in range(BATCH_FIB):
            spec = tiny_chain(rng, k)
            files.append(BatchFile(f"f{k}.fib", spec.text(), spec))
        kind = BAD_KINDS[d % len(BAD_KINDS)]
        suffix, text = bad_file(rng, kind)
        files.append(BatchFile(f"x{d}{suffix}", text, None, kind))
        dirs.append(files)
    return dirs


GENERATORS = {
    "einv-chords": einv_chords,
    "fiber-chains": fiber_chains,
    "point-queries": point_queries,
    "batch-small": batch_small,
}
