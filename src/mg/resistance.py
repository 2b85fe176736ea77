"""Exact effective resistance on metrized graphs.

Each edge is a resistor whose resistance equals its length.  Gamma is the
inverse of the grounded vertex Laplacian (conductance 1/length per edge,
loops contributing nothing; Gamma = 0 at the first vertex, v_0), and every
resistance is closed-form arithmetic on it:

* r(a, b) = Gamma_aa + Gamma_bb - 2 Gamma_ab for vertices a and b;
* an edge e = (u, v) of length l has r_e = r(u, v) and canonical density
  rho_e = (l - r_e)/l^2: 0 iff e is a bridge, 1/l for a loop;
* at offset t on e, r(x, w) = ((l - t) r(u, w) + t r(v, w))/l
  + t(l - t) rho_e for any w not inside e: x spreads over the ends of e
  with weights a_u = (l - t)/l and a_v = t/l (a vertex: weight 1 on
  itself);
* as the weights sum to 1, any two points x and y have r(x, y) = S(x) +
  S(y) - 2 X(x, y), with S = r(., v_0) and X(x, y) = sum a_i b_j Gamma_ij,
  a bilinear form in their weights (a_i) and (b_j), Gamma at up to four
  pairs of ends, plus the tent s(l - t)/l when x and y lie inside one edge
  e at offsets s <= t: so two points of e at distance d have
  r(x, y) = d - rho_e d^2, loops included.

Every function of the shape x -> integral r(x, z) dnu(z) is a `_Potential`:
S (the kernel's `ground`), and in `mg.green` the potential j of the
admissible measure, r(D, .) and their combinations.  At offset t on e such a
function is the chord of its values at e's ends, plus t(l - t) times a
coefficient, less a tent for each atom of nu inside e; `_Potential.combine`
is the one linear operation on them.

Every read is `ResistanceKernel.pair` on a potential f: f(x) + f(y) and
X(x, y), the one place that knows the tent.  A resistance is `pair` on S,
f - 2X, and a Green value (`mg.green`) is `pair` on h = (j - S)/2.

Gamma is never formed densely.  The kernel factors the Laplacian once
(`mg.linalg`, built straight from the edges) and takes the selected inverse,
which holds Gamma exactly on the diagonal, on every pair of adjacent
vertices and on the fill: so every r_e and density, and S, whose value at a
vertex v is Gamma_vv, in O(nnz(L)) on a graph that factors with no fill.
A potential of a measure (`_potential`) needs only that diagonal and one
solve, Gamma·m.  Gamma at any other pair, as X between arbitrary points may
ask for, costs the column of one of its vertices: one solve, cached on the
kernel, so at most one per source vertex.  A read is otherwise O(1)
arithmetic.  The kernel is built on first use and kept on the (immutable)
graph.  The selected inverse stays in the fast rational type of
`mg.linalg`, and the conductances, the densities and every potential, S
included, compute on it, reads too: edge lengths, weights and the tent.
Columns are plain Fractions, operands as they are.  What a caller receives
is plain: the densities, `entry`, the columns and every resistance.
"""

from __future__ import annotations

from fractions import Fraction

from . import linalg
from .errors import EdgeNotFound
from .graphs import GraphPoint, MetrizedGraph
from .linalg import fast, plain

_ZERO = Fraction(0)


class _Potential:
    """A function of the shape of x -> integral r(x, z) dnu(z): at offset t
    on an edge e of length l, the chord of its values at e's ends, plus
    t(l - t) times its coefficient curv_e, less w min(s, t)(l - max(s, t))/l
    for each tent (s, w) inside e.

    For x inside e, r(x, z) is the chord of r(., z) between e's ends plus
    t(l - t) rho_e, less 2 min(s, t)(l - max(s, t))/l when z too lies inside
    e, at offset s: so S, j, r(D, .) and any linear combination of them
    (`combine`) have this shape.  `read` gives a point's spread weights and
    the value there, from the row of its edge (ends, length, value at u,
    slope, curv) built on the first read inside that edge, its length in
    the fast type of `mg.linalg`, the type of every potential built here.
    It holds the kernel's vertex index and edges but not the kernel, which
    holds S, so that no cycle keeps a kernel alive.
    Every row is exact, so threads racing to fill a row store equal rows.
    """

    def __init__(self, index: dict, edge_by_id: dict, at_vertex, curv, inside):
        self.index = index
        self.edge_by_id = edge_by_id
        self.at_vertex = at_vertex  # [value at the vertex of index i]
        self.curv = curv  # {edge id: coefficient of t(l - t)}
        self.inside = inside  # {edge id: [(offset, weight) of a tent]}
        self._rows: dict = {}

    def read(self, x: GraphPoint) -> tuple[tuple, Fraction]:
        """x's spread weights (i, j, a), weight 1 - a on the vertex of index
        i and a on that of index j, and the potential at x, for x in the
        normal form of `check_point`.  A vertex of index i has weights
        (i, i, 0)."""
        if x.is_vertex:
            i = self.index[x.vertex]
            return (i, i, 0), self.at_vertex[i]
        row = self._rows.get(x.edge)
        if row is None:
            e = self.edge_by_id[x.edge]
            i, j, l = self.index[e.u], self.index[e.v], fast(e.length)
            pu, pv = self.at_vertex[i], self.at_vertex[j]
            row = self._rows[x.edge] = (i, j, l, pu, (pv - pu) / l, self.curv[x.edge])
        i, j, l, value, slope, curv = row
        t = x.offset
        value += t * (slope + (l - t) * curv)
        for s, w in self.inside.get(x.edge, ()):
            value -= w * min(s, t) * (l - max(s, t)) / l
        return (i, j, t / l), value

    def combine(self, a, other: _Potential, b) -> _Potential:
        """a times this potential plus b times `other`: the values, the
        coefficients and the tents of both, scaled."""
        inside = {e: [(s, a * w) for s, w in tents] for e, tents in self.inside.items()}
        for e, tents in other.inside.items():
            inside.setdefault(e, []).extend((s, b * w) for s, w in tents)
        return _Potential(
            self.index,
            self.edge_by_id,
            [a * x + b * y for x, y in zip(self.at_vertex, other.at_vertex)],
            {e: a * k + b * other.curv[e] for e, k in self.curv.items()},
            inside,
        )


class ResistanceKernel:
    """Gamma of a connected graph, with the canonical density of each edge
    and S = r(., v_0) as the potential `ground`.

    Gamma is the inverse of the Laplacian grounded at the first vertex
    (index 0), with Gamma = 0 in its row and column.  It is kept as the
    factorization, its selected inverse (the diagonal and every pair of
    adjacent vertices, plus the fill) in the fast type, and the columns
    solved so far.  Every read is `pair` on a potential, and `pair` alone
    adds the tent of two points inside one edge.  The kernel holds the
    graph's edges but not the graph, which holds the kernel, so both are
    freed together as soon as the graph is.
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
        z = self._selected = self._factors.selected_inverse()
        self._columns: dict[int, list[Fraction]] = {}
        # S = r(., v_0) is Gamma_vv at a vertex v, read off the selected
        # inverse, whose row i - 1 is vertex i's
        diagonal = [fast(0)] + [row[i] for i, row in enumerate(z)]
        # rho_e = (l - r_e)/l^2, r_e = Gamma_uu + Gamma_vv - 2 Gamma_uv: 0
        # for a loop, and Gamma_uv is on the pattern
        self.density = {}
        for e in g.edges:
            l = fast(e.length)
            i, j = self.index[e.u], self.index[e.v]
            r = diagonal[i] + diagonal[j] - 2 * self._gamma(i, j)
            self.density[e.id] = plain((l - r) / (l * l))
        self.ground = _Potential(self.index, self.edge_by_id, diagonal, self.density, {})

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

    def _gamma(self, i: int, j: int) -> Fraction:
        """Gamma_ij: from the selected inverse, in the fast type, when i
        and j are on its pattern, else from a column of either, solving
        i's if neither is cached."""
        if not i or not j:
            return _ZERO
        x = self._selected[i - 1].get(j - 1)
        if x is not None:
            return x
        col = self._columns.get(j)
        return col[i] if col is not None else self.column(i)[j]

    def entry(self, i: int, j: int) -> Fraction:
        """Gamma_ij as a plain Fraction."""
        return plain(self._gamma(i, j))

    def apply(self, m: list[Fraction]) -> list[Fraction]:
        """Gamma·m, for a vector m indexed like the vertices: one solve."""
        return [_ZERO] + self._factors.solve(m[1:])

    def pair(self, f: _Potential, x: GraphPoint, y: GraphPoint) -> tuple:
        """f(x) + f(y) and X(x, y), for a potential f and points in the
        normal form of `check_point`, not yet converted with `plain`.

        X = sum a_i b_j Gamma_ij over the spread weights of x and y
        (`_Potential.read`), Gamma at up to four pairs of their ends, plus
        the tent s(l - t)/l when both lie inside one edge at offsets
        s <= t.  Then r(x, y) = S(x) + S(y) - 2X for every pair, two
        points of one edge or loop included."""
        (i, j, a), fx = f.read(x)
        (k, m, b), fy = f.read(y)
        gamma = self._gamma
        z = gamma(i, k)
        if b:
            z += b * (gamma(i, m) - z)
        if a:
            w = gamma(j, k)
            if b:
                w += b * (gamma(j, m) - w)
            z += a * (w - z)
            if b and x.edge == y.edge:  # s(l - t)/l = s(1 - t/l)
                z += min(x.offset, y.offset) * (1 - max(a, b))
        return fx + fy, z

    def resistance(self, p: GraphPoint, q: GraphPoint) -> Fraction:
        """r(p, q) = S(p) + S(q) - 2X(p, q) for points in the normal form
        of `check_point`."""
        f, x = self.pair(self.ground, p, q)
        return plain(f - 2 * x)


def _potential(
    kernel: ResistanceKernel, atoms: dict, densities: dict
) -> tuple[_Potential, Fraction]:
    """integral r(., z) dnu(z) for nu made of atoms and a constant density
    per edge, and nu's total mass, in the fast rational type of `mg.linalg`.

    An atom is keyed by a vertex id, or by an interior GraphPoint in the
    normal form of `check_point`.  The masses, the constant k, the vertex
    values and the t(l - t) coefficients are computed on arrays indexed by
    vertex: a vertex atom goes to its index with no GraphPoint, and Gamma's
    diagonal is S's vertex array.  Plain Fractions in `atoms` and
    `densities` serve as operands as they are.
    """
    index = kernel.index
    diagonal = kernel.ground.at_vertex
    # as r(w, z) = S(w) + S(z) - 2 X(w, z), the potential at a vertex w is
    # S(w) nu(G) + integral S dnu - 2 (Gamma m)_w, nu spread over the
    # vertices as m: an atom at a vertex puts its mass there, a density
    # puts half = rho*l/2 on both ends and adds rho*rho_e*l^3/6 =
    # half*rho_e*l^2/3 to integral S dnu (its t(l - t) rho_e term), and an
    # interior atom spreads as S does (`_Potential.read`)
    masses = [fast(0)] * len(index)
    interior = []
    for site, a in atoms.items():
        i = index.get(site)
        if i is None:
            interior.append((site, fast(a)))
        elif a:
            masses[i] += a
    cubic = fast(0)
    for e in kernel.edge_by_id.values():
        rho = densities.get(e.id)
        if rho:
            l = fast(e.length)
            half = rho * l / 2
            masses[index[e.u]] += half
            masses[index[e.v]] += half
            cubic += half * kernel.density[e.id] * l * l
    mass = spread = fast(0)
    for m, gamma in zip(masses, diagonal):
        if m:
            mass += m
            spread += m * gamma
    k = cubic / 3 + spread
    inside: dict = {}
    for p, a in interior:
        (i, j, w), s = kernel.ground.read(p)
        masses[i] += a - a * w
        masses[j] += a * w
        mass += a
        k += a * s
        inside.setdefault(p.edge, []).append((p.offset, 2 * a))
    at_vertex = [
        k + gamma * mass - 2 * fast(x) for gamma, x in zip(diagonal, kernel.apply(masses))
    ]
    # on an edge e the potential is linear between break points plus
    # t(l - t) times nu(G) rho_e less nu's own density there
    curv = {e: mass * rho - densities.get(e, 0) for e, rho in kernel.density.items()}
    return _Potential(index, kernel.edge_by_id, at_vertex, curv, inside), mass


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
