"""Exact integrals against measures, from point values alone.

A Green function g(x, .) is quadratic on each piece of an edge between the
points where it may kink: x itself and the measure's atoms inside the edge.
Simpson's rule is exact on quadratics, so integrating piece by piece gives
the exact integral without any knowledge of how the values were computed.
"""

from fractions import Fraction

from mg import GraphPoint


def integral(measure, f, kinks=()) -> Fraction:
    """Integral of f against measure, for f quadratic on every piece of
    every edge between its ends, the measure's interior atoms and the
    points of `kinks`.  f takes a GraphPoint."""
    g = measure.graph
    cuts: dict = {}
    total = Fraction(0)
    for site, a in measure.atoms.items():
        p = g.check_point(site)
        total += a * f(p)
        if not p.is_vertex:
            cuts.setdefault(p.edge, set()).add(p.offset)
    for p in map(g.check_point, kinks):
        if not p.is_vertex:
            cuts.setdefault(p.edge, set()).add(p.offset)
    for e in g.edges:
        rho = measure.density(e.id)
        if rho == 0:
            continue

        def at(t, e=e):
            return f(g.check_point(GraphPoint.on_edge(e.id, t)))

        ends = [Fraction(0), *sorted(cuts.get(e.id, ())), e.length]
        for a, b in zip(ends, ends[1:]):
            total += rho * (b - a) * (at(a) + 4 * at((a + b) / 2) + at(b)) / 6
    return total
