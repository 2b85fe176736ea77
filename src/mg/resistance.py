"""Exact effective resistance on metrized graphs.

Each edge is a resistor whose resistance equals its length.  Gamma is the
inverse of the grounded vertex Laplacian (conductance 1/length per edge,
loops contributing nothing; Gamma = 0 at the first vertex), and every
resistance is closed-form arithmetic on it:

* r(a, b) = Gamma_aa + Gamma_bb - 2 Gamma_ab for vertices a and b;
* an edge e = (u, v) of length l has r_e = r(u, v) and canonical density
  rho_e = (l - r_e)/l^2: 0 iff e is a bridge, 1/l for a loop;
* at offset t on e, r(x, w) = ((l - t) r(u, w) + t r(v, w))/l
  + t(l - t) rho_e for any w not inside e: x spreads over the ends of e
  with weights a_u = (l - t)/l and a_v = t/l (a vertex: weight 1 on
  itself), plus the constant c_x = t(l - t) rho_e;
* as the weights sum to 1, two points x and y not inside one edge have
  r(x, y) = S(x) + S(y) - 2 X(x, y), a bilinear form in their weights (a_i)
  and (b_j), with S(x) = c_x + sum a_i Gamma_ii and X(x, y) =
  sum a_i b_j Gamma_ij: Gamma at up to four pairs of ends;
* two points inside e at distance d have r(x, y) = d - rho_e d^2.

Gamma is never formed densely.  The kernel factors the Laplacian once
(`mg.linalg`, built straight from the edges) and takes the selected inverse,
which holds Gamma exactly on the diagonal, on every pair of adjacent
vertices and on the fill: so every r_e and density, in O(nnz(L)) on a graph
that factors with no fill.  A potential sum_v m_v r(w, v) over all w needs
only the diagonal and one solve, Gamma·m (`mg.green`).  Gamma at any other
pair, as X between arbitrary points may ask for, costs the column of one
of its vertices: one solve, cached on the kernel, so at most one per source
vertex.  A resistance read is otherwise O(1) arithmetic.  The kernel is
built on first use and kept on the (immutable) graph.  Building it
computes the conductances, and the densities straight from the selected
inverse, on the fast rational type of `mg.linalg`; every value it keeps
or returns is a plain Fraction.
"""

from __future__ import annotations

from fractions import Fraction

from . import linalg
from .errors import EdgeNotFound
from .graphs import GraphPoint, MetrizedGraph
from .linalg import fast, plain

_ZERO = Fraction(0)


class ResistanceKernel:
    """Gamma of a connected graph, with the canonical density of each edge.

    Gamma is the inverse of the Laplacian grounded at the first vertex
    (index 0), with Gamma = 0 in its row and column.  It is kept as the
    factorization, its selected inverse (the diagonal and every pair of
    adjacent vertices, plus the fill) and the columns solved so far.  The
    kernel holds the graph's edges but not the graph, which holds the
    kernel, so both are freed together as soon as the graph is.
    """

    def __init__(self, g: MetrizedGraph):
        g.validate()
        self.edge_by_id = g.edge_by_id
        self.index = {v: i for i, v in enumerate(g.vertex_list)}
        # vertex i > 0 is row i - 1 of the grounded Laplacian
        rows: list[dict[int, Fraction]] = [{} for _ in range(len(self.index) - 1)]
        for e in g.edges:
            if e.is_loop():
                continue
            c = 1 / fast(e.length)
            i, j = self.index[e.u] - 1, self.index[e.v] - 1
            for a, b, x in ((i, i, c), (j, j, c), (i, j, -c), (j, i, -c)):
                if a >= 0 and b >= 0:
                    rows[a][b] = rows[a].get(b, 0) + x
        self._factors = linalg.Factorization(rows)
        self._selected = self._factors.selected_inverse()
        self._columns: dict[int, list[Fraction]] = {}
        # rho_e = (l - r_e)/l^2, r_e = Gamma_uu + Gamma_vv - 2 Gamma_uv read
        # straight off the selected inverse, whose row i - 1 is vertex i's
        self.density = {}
        z = self._selected
        for e in g.edges:
            l = fast(e.length)
            i, j = self.index[e.u] - 1, self.index[e.v] - 1
            if i == j:  # a loop: r_e = 0
                r = 0
            elif i < 0 or j < 0:  # Gamma is 0 at the ground vertex
                k = max(i, j)
                r = z[k][k]
            else:
                r = fast(z[i][i]) + z[j][j] - 2 * fast(z[i][j])
            self.density[e.id] = plain((l - r) / (l * l))

    def column(self, i: int) -> list[Fraction]:
        """Gamma's column of the vertex of index i, solved on first use.

        The cache is filled with setdefault: a column is exact, so two
        threads racing to fill it store equal values.  The ground vertex
        (index 0) has the zero column, which is not solved."""
        if not i:
            return [_ZERO] * len(self.index)
        col = self._columns.get(i)
        if col is None:
            unit = [_ZERO] * (len(self.index) - 1)
            unit[i - 1] = Fraction(1)
            col = self._columns.setdefault(i, [_ZERO] + self._factors.solve(unit))
        return col

    def entry(self, i: int, j: int) -> Fraction:
        """Gamma_ij: from the selected inverse when i and j are on its
        pattern, else from a column of either, solving i's if neither is
        cached."""
        if not i or not j:
            return _ZERO
        x = self._selected[i - 1].get(j - 1)
        if x is not None:
            return x
        col = self._columns.get(j)
        return col[i] if col is not None else self.column(i)[j]

    def apply(self, m: list[Fraction]) -> list[Fraction]:
        """Gamma·m, for a vector m indexed like the vertices: one solve."""
        return [_ZERO] + self._factors.solve(m[1:])

    def spread(self, p: GraphPoint) -> tuple[tuple[int, int, Fraction], Fraction]:
        """Write r(p, w), for w not inside p's edge, as a weighted sum of
        r(vertex, w) plus a constant: returns ((i, j, a), c), weight 1 - a
        on the vertex of index i and a on that of index j, and the constant
        c.  A vertex of index i gives ((i, i, 0), 0), with no Fraction."""
        if p.is_vertex:
            i = self.index[p.vertex]
            return (i, i, 0), 0
        e = self.edge_by_id[p.edge]
        l, t = e.length, p.offset
        ends = (self.index[e.u], self.index[e.v], t / l)
        return ends, t * (l - t) * self.density[e.id]

    def cross(self, p: tuple, q: tuple) -> Fraction:
        """X = sum a_i b_j Gamma_ij for the spread weights (i, j, a) of two
        points (`spread`): Gamma at up to four pairs of their ends."""
        i, j, a = p
        k, m, b = q
        entry = self.entry
        x = entry(i, k)
        if b:
            x += b * (entry(i, m) - x)
        if not a:
            return x
        y = entry(j, k)
        if b:
            y += b * (entry(j, m) - y)
        return x + a * (y - x)

    def _self_term(self, p: tuple, c) -> Fraction:
        """S = c + sum a_i Gamma_ii for a point's spread (p, c)."""
        i, j, a = p
        s = self.entry(i, i)
        if a:
            s += a * (self.entry(j, j) - s) + c
        return s

    def resistance(self, p: GraphPoint, q: GraphPoint) -> Fraction:
        """r(p, q) for points in the normal form of `check_point`."""
        if not p.is_vertex and not q.is_vertex and p.edge == q.edge:
            d = abs(p.offset - q.offset)
            return d - self.density[p.edge] * d * d
        sp, cp = self.spread(p)
        sq, cq = self.spread(q)
        s = self._self_term(sp, cp) + self._self_term(sq, cq)
        return s - 2 * self.cross(sp, sq)


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
