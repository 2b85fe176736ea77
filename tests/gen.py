"""Seeded random generators shared by the randomized test suites."""

from fractions import Fraction
from random import Random

from mg import FiberConfiguration, GraphPoint, MetrizedGraph, RDivisor


def frac(rng: Random, max_num=8, max_den=8, positive=True) -> Fraction:
    num = rng.randint(1, max_num)
    den = rng.randint(1, max_den)
    f = Fraction(num, den)
    if not positive and rng.random() < 0.5:
        f = -f
    return f


def random_graph(
    rng: Random, max_vertices=8, extra_edges=3, min_vertices=1, digits=None
) -> MetrizedGraph:
    """Connected multigraph: a random spanning tree plus a few extra edges,
    which may be loops or parallels.  Each length has parts of at most
    `digits` digits, or of at most 8 when it is None."""
    top = 8 if digits is None else 10**digits - 1

    def length():
        return frac(rng, top, top)

    n = rng.randint(min_vertices, max_vertices)
    vertices = [f"v{i}" for i in range(n)]
    edges = []
    for i in range(1, n):
        j = rng.randrange(i)
        edges.append((f"e{len(edges)}", vertices[j], vertices[i], length()))
    for _ in range(rng.randint(0, extra_edges)):
        u = rng.choice(vertices)
        v = rng.choice(vertices)
        edges.append((f"e{len(edges)}", u, v, length()))
    return MetrizedGraph(vertices, edges)


def random_point(rng: Random, g: MetrizedGraph) -> GraphPoint:
    if not g.edges or rng.random() < 0.5:
        return GraphPoint.at_vertex(rng.choice(g.vertex_list))
    e = rng.choice(g.edges)
    k = rng.randint(1, 3)
    return GraphPoint.on_edge(e.id, e.length * Fraction(k, 4))


def random_divisor(
    rng: Random, g: MetrizedGraph, max_terms=3, interior=False
) -> RDivisor:
    """Divisor with small nonzero coefficients and degree != -2."""
    while True:
        terms = []
        for _ in range(rng.randint(0, max_terms)):
            p = random_point(rng, g) if interior else GraphPoint.at_vertex(
                rng.choice(g.vertex_list)
            )
            coeff = rng.choice([x for x in range(-4, 5) if x != 0])
            terms.append((p, Fraction(coeff)))
        d = RDivisor(terms)
        if d.degree() != -2:
            return d


def random_chain_config(rng: Random, max_components=6, max_loops=4):
    """Chain of stable components with 2 <= genus <= 8.

    Component genera are at least 1 (so every omega coefficient is positive)
    and loops are sprinkled at random vertices; node lengths are random
    positive rationals.
    """
    while True:
        n = rng.randint(1, max_components)
        comps = [(f"C{i}", rng.randint(1, 3)) for i in range(n)]
        nodes = []
        for i in range(n - 1):
            nodes.append((f"n{i}", f"C{i}", f"C{i + 1}", frac(rng)))
        for k in range(rng.randint(0, max_loops)):
            c = rng.randrange(n)
            nodes.append((f"s{k}", f"C{c}", f"C{c}", frac(rng)))
        genus = sum(g for _, g in comps) + (len(nodes) - (n - 1))
        if 2 <= genus <= 8:
            return FiberConfiguration(comps, nodes)


def cycle_chords() -> MetrizedGraph:
    """A 10-vertex cycle with three chords: v1, the first vertex with three
    neighbours, is its kernel's ground, and its selected inverse holds fill
    as well as the diagonal and the edges."""
    v = [f"v{i}" for i in range(10)]
    edges = [(f"c{i}", v[i], v[(i + 1) % 10], Fraction(i % 3 + 1, 2)) for i in range(10)]
    edges += [("d1", v[1], v[5], 2), ("d2", v[2], v[7], 1), ("d3", v[4], v[8], 3)]
    return MetrizedGraph(v, edges)


def graph_file(g: MetrizedGraph) -> str:
    """The text of a `.mg` file of the graph g, with no points or divisor."""
    lines = ["metrized_graph", *(f"vertex {v}" for v in g.vertex_list)]
    lines += [f"edge {e.id} {e.u} {e.v} {e.length}" for e in g.edges]
    return "\n".join(lines) + "\n"


def path_file(lengths) -> str:
    """The text of a `.mg` path P0 - P1 - ... with the given edge lengths
    and the divisor P0 + P<n>, n the number of edges."""
    n = len(lengths)
    lines = ["metrized_graph", *(f"vertex P{i}" for i in range(n + 1))]
    lines += [f"edge e{i} P{i} P{i + 1} {l}" for i, l in enumerate(lengths)]
    lines += ["divisor P0 1", f"divisor P{n} 1"]
    return "\n".join(lines) + "\n"
