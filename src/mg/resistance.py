"""Exact effective resistance on metrized graphs.

Each edge is a resistor whose resistance equals its length.  One exact
elimination per graph inverts the grounded vertex Laplacian (conductance
1/length per edge, loops contributing nothing; Gamma = 0 at the first
vertex), and every resistance is closed-form arithmetic on that kernel:

* r(a, b) = Gamma_aa + Gamma_bb - 2 Gamma_ab for vertices a and b;
* an edge e = (u, v) of length l has r_e = r(u, v) and canonical density
  rho_e = (l - r_e)/l^2: 0 iff e is a bridge, 1/l for a loop;
* at offset t on e, r(x, w) = ((l - t) r(u, w) + t r(v, w))/l
  + t(l - t) rho_e for any w not inside e;
* two points inside e at distance d have r(x, y) = d - rho_e d^2.

The kernel is solved on first use and kept on the (immutable) graph.
"""

from __future__ import annotations

from fractions import Fraction

from . import linalg
from .errors import EdgeNotFound
from .graphs import GraphPoint, MetrizedGraph


class ResistanceKernel:
    """Gamma of a connected graph, with the canonical density of each edge."""

    def __init__(self, g: MetrizedGraph):
        g.validate()
        self.graph = g
        self.index = {v: i for i, v in enumerate(g.vertex_list)}
        n = len(self.index)
        lap = [[Fraction(0)] * n for _ in range(n)]
        for e in g.edges:
            if e.is_loop():
                continue
            c = 1 / e.length
            i, j = self.index[e.u], self.index[e.v]
            lap[i][i] += c
            lap[j][j] += c
            lap[i][j] -= c
            lap[j][i] -= c
        # ground the first vertex; Gamma is symmetric, so each solution
        # column is also a row
        grounded = [row[1:] for row in lap[1:]]
        units = [[Fraction(int(i == j)) for i in range(n - 1)] for j in range(n - 1)]
        cols = linalg.solve_columns(grounded, units)
        self.gamma = [[Fraction(0)] * n] + [[Fraction(0)] + c for c in cols]
        self.density = {}
        for e in g.edges:
            r = self.vertex_resistance(self.index[e.u], self.index[e.v])
            self.density[e.id] = (e.length - r) / e.length**2

    def vertex_resistance(self, i: int, j: int) -> Fraction:
        """r between the vertices of index i and j."""
        gam = self.gamma
        return gam[i][i] + gam[j][j] - 2 * gam[i][j]

    def spread(self, p: GraphPoint) -> tuple[list[tuple[int, Fraction]], Fraction]:
        """Write r(p, w), for w not inside p's edge, as a weighted sum of
        r(vertex, w) plus a constant: returns ([(vertex index, weight)],
        constant).  The weights sum to 1."""
        if p.is_vertex:
            return [(self.index[p.vertex], Fraction(1))], Fraction(0)
        e = self.graph.edge_by_id[p.edge]
        l, t = e.length, p.offset
        weights = [(self.index[e.u], (l - t) / l), (self.index[e.v], t / l)]
        return weights, t * (l - t) * self.density[e.id]

    def resistance(self, p: GraphPoint, q: GraphPoint) -> Fraction:
        """r(p, q) for points in the normal form of `check_point`."""
        if not p.is_vertex and not q.is_vertex and p.edge == q.edge:
            d = abs(p.offset - q.offset)
            return d - self.density[p.edge] * d * d
        sp, cp = self.spread(p)
        sq, cq = self.spread(q)
        return cp + cq + sum(
            a * b * self.vertex_resistance(i, j) for i, a in sp for j, b in sq
        )


def resistance_kernel(g: MetrizedGraph) -> ResistanceKernel:
    """The kernel of g: solved on the first call, then kept on g."""
    kernel = getattr(g, "_resistance_kernel", None)
    if kernel is None:
        kernel = g._resistance_kernel = ResistanceKernel(g)
    return kernel


def effective_resistance(g: MetrizedGraph, p, q) -> Fraction:
    """Resistance between the points p and q; symmetric, 0 iff p = q."""
    kernel = resistance_kernel(g)
    return kernel.resistance(g.check_point(p), g.check_point(q))


def resistance_in_deleted_edge(g: MetrizedGraph, edge_id) -> Fraction | None:
    """Resistance between the endpoints of the edge in g minus that edge.

    Returns None when the edge is a bridge (infinite resistance) and 0 for a
    loop, whose endpoints coincide.  The edge and the rest of the graph are
    in parallel, so the canonical density (l - r_e)/l^2 of the edge is
    1/(l + R) for this resistance R.
    """
    e = g.edge_by_id.get(edge_id)
    if e is None:
        raise EdgeNotFound(f"edge {edge_id!r} is not in the graph")
    rho = resistance_kernel(g).density[e.id]
    if rho == 0:
        return None
    return 1 / rho - e.length
