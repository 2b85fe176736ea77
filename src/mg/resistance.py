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

A function of the shape x -> integral r(x, z) dnu(z), or a linear
combination of such functions, is at offset t on e the chord of its values
at e's ends, plus t(l - t) times a coefficient, less a tent for each atom
of nu inside e: a `_Potential`.  S is one (the kernel's `ground`), and in
`mg.green` so are the reads' h = (j - S)/2 and the certificate's 2F, each
built from its vertex values, coefficients and tents.  `_potential` gives
what a measure's potential is made of, one solve Gamma·m and a constant,
and `mg.green` does its arithmetic on those.

Every read is `ResistanceKernel.pair` on a potential f: f(x) + f(y) and
X(x, y), the one place that knows the tent.  A resistance is `pair` on S,
f - 2X, and a Green value (`mg.green`) is `pair` on h = (j - S)/2.

Each length is converted once, into the kernel's edge table
`ResistanceKernel.edges`: {edge id: (i, j, l, 1/l, rho_e l)}, in the
graph's edge order, i and j the indices of the ends and the rest in the
fast type.  rho_e itself is kept once, as S's t(l - t) coefficient
`ground.curv` {edge id: rho_e}, and read from there by edge id.  Only this
module reads the table's rows: the kernel's build, every potential's rows
and `_potential`'s spread of a density.  Gamma is never formed densely.
The kernel factors the Laplacian once, from the table's conductances
(`mg.linalg`), and the factorization keeps its selected inverse, which
holds Gamma exactly on the diagonal, on every pair of adjacent vertices
and on the fill: so every r_e and density, and S, whose value at a vertex
v is Gamma_vv, in O(nnz(L)) on a graph that factors with no fill.  A
potential of a measure (`_potential`) needs only that diagonal, the table
and one solve, Gamma·m.  Gamma at any other pair, as X between arbitrary
points may ask for, is read from the same factorization, which computes
an entry its selected inverse lacks by Takahashi's recurrence along one
elimination-tree path, with no solve, and keeps it and every entry
computed on the way (`linalg.Factorization.inverse_entry`).  A read is
otherwise O(1) arithmetic.  The kernel is built on first use and kept on
the (immutable) graph, which it validates once.  The factorization's
entries and solutions are in the fast rational type of `mg.linalg`, as is
the table, and every potential, S included, computes on it, reads too:
weights and the tent.  What a caller receives is plain: the densities,
`entry` and every resistance.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cached_property

from . import linalg
from .errors import EdgeNotFound
from .graphs import GraphPoint, MetrizedGraph
from .linalg import fast, plain


class _Potential:
    """A function of the shape of x -> integral r(x, z) dnu(z): at offset t
    on an edge e of length l, the chord of its values at e's ends, plus
    t(l - t) times its coefficient curv_e, less w min(s, t)(l - max(s, t))/l
    for each tent (s, w) inside e.

    For x inside e, r(x, z) is the chord of r(., z) between e's ends plus
    t(l - t) rho_e, less 2 min(s, t)(l - max(s, t))/l when z too lies inside
    e, at offset s: so S, the potential of any measure (`_potential`) and
    any linear combination of them, such as h and 2F in `mg.green`, have
    this shape.  Its maker gives the vertex values, the coefficients (only
    those of the edges it is read inside) and the tents.  `read` gives a
    point's spread weights and the value there, from the row of its edge
    (ends, length and its reciprocal, value at u, slope, curv) built on the
    first read inside that edge from the kernel's edge table, in the fast
    type of `mg.linalg`, the type of every potential built here.  It holds
    the kernel's vertex index and edge table but not the kernel, which
    holds S, so that no cycle keeps a kernel alive.  Every row is exact, so
    threads racing to fill a row store equal rows.
    """

    def __init__(self, index: dict, edges: dict, at_vertex, curv, inside):
        self.index = index
        self.edges = edges  # the kernel's edge table
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
            i, j, l, c, _ = self.edges[x.edge]
            pu = self.at_vertex[i]
            slope = (self.at_vertex[j] - pu) * c
            row = self._rows[x.edge] = (i, j, l, c, pu, slope, self.curv[x.edge])
        i, j, l, c, value, slope, curv = row
        t = x.offset
        value += t * (slope + (l - t) * curv)
        for s, w in self.inside.get(x.edge, ()):
            value -= w * min(s, t) * (l - max(s, t)) * c
        return (i, j, t * c), value


class ResistanceKernel:
    """Gamma of a connected graph, with its edge table `edges` and
    S = r(., v_0) as the potential `ground`, whose coefficients are the
    densities (the module docstring gives both layouts).  `density` is
    rho_e as a plain Fraction, converted on first use.

    Gamma is the inverse of the Laplacian grounded at the first vertex
    (index 0), with Gamma = 0 in its row and column.  The kernel gives the
    factorization (`mg.linalg`) each edge's (i, j, 1/l) from its table,
    and the factorization owns the ground: it sums the Laplacian, answers
    0 in the ground's row and column, and holds Gamma's other entries in
    the fast type: its selected inverse, on the diagonal and every pair of
    adjacent vertices, plus the fill, and every entry read off that
    pattern so far.  `pair` and `entry` read Gamma from it directly.  A
    measure's potential solves against it (`_potential`).  Every read is
    `pair` on a potential, and `pair` alone adds the tent of two points
    inside one edge.  The kernel holds its table but not the graph,
    which holds the kernel, so both, and every entry kept, are freed
    together as soon as the graph is.
    """

    def __init__(self, g: MetrizedGraph):
        g.validate()
        index = self.index = {v: i for i, v in enumerate(g.vertex_list)}
        edges = self.edges = {}
        for e in g.edges:
            i, j, l = index[e.u], index[e.v], fast(e.length)
            edges[e.id] = (i, j, l, linalg.reciprocal(l))
        factors = self._factors = linalg.Factorization(
            len(index), [(i, j, c) for i, j, _, c in edges.values()]
        )
        # S = r(., v_0) is Gamma_vv at a vertex v, on the selected inverse's
        # diagonal
        diagonal = [factors.inverse_entry(i, i) for i in range(len(index))]
        # r_e = Gamma_uu + Gamma_vv - 2 Gamma_uv, with Gamma_uv on the
        # pattern, and rho_e l = (l - r_e)/l = 1 - r_e/l: so rho_e = 1/l
        # for a loop, whose r_e is 0; rho_e is S's t(l - t) coefficient
        rho = {}
        for e, (i, j, l, c) in edges.items():
            rho_l = 1 - (diagonal[i] + diagonal[j] - 2 * factors.inverse_entry(i, j)) * c
            rho[e] = rho_l * c
            edges[e] = (i, j, l, c, rho_l)
        self.ground = _Potential(index, edges, diagonal, rho, {})

    @cached_property
    def density(self) -> dict:
        """{edge id: canonical density rho_e}, as plain Fractions."""
        return {e: plain(rho) for e, rho in self.ground.curv.items()}

    def entry(self, i: int, j: int) -> Fraction:
        """Gamma_ij as a plain Fraction."""
        return plain(self._factors.inverse_entry(i, j))

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
        gamma = self._factors.inverse_entry
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


def _potential(kernel: ResistanceKernel, atoms: dict, densities: dict) -> tuple:
    """The solved vector x = Gamma·m of nu, spread over the vertices as m,
    with the constant k, nu's total mass and nu's atoms inside edges, for
    nu made of atoms and a constant density per edge, all in the fast
    rational type of `mg.linalg`.  Each edge's ends, length and rho_e l
    are read from the kernel's table.

    They determine the potential f = integral r(., z) dnu(z): f(w) =
    k + nu(G) S(w) - 2 x_w at a vertex w, and on an edge e, the chord of
    those values plus t(l - t)(nu(G) rho_e - nu's density on e), less a
    tent 2a min(s, t)(l - max(s, t))/l for each atom a of nu inside e at
    offset s, listed as (s, a) under e.  An atom is keyed by a vertex id,
    or by an interior GraphPoint in the normal form of `check_point`.  The
    masses and k are computed on arrays indexed by vertex: a vertex atom
    goes to its index with no GraphPoint, and Gamma's diagonal is S's
    vertex array.  Plain Fractions in `atoms` and `densities` serve as
    operands as they are.
    """
    index, ground, edges = kernel.index, kernel.ground, kernel.edges
    # as r(w, z) = S(w) + S(z) - 2 X(w, z), f(w) = S(w) nu(G) + integral
    # S dnu - 2 (Gamma m)_w: an atom at a vertex puts its mass there, a
    # density puts half = rho*l/2 on both ends and adds rho*rho_e*l^3/6 =
    # half*(rho_e l)*l/3 to integral S dnu (its t(l - t) rho_e term), and
    # an interior atom spreads as S does (`_Potential.read`)
    masses = [fast(0)] * len(index)
    interior = []
    for site, a in atoms.items():
        i = index.get(site)
        if i is None:
            interior.append((site, fast(a)))
        elif a:
            masses[i] += a
    cubic = fast(0)
    for e, rho in densities.items():
        if rho:
            i, j, l, _, rho_l = edges[e]
            half = rho * l / 2
            masses[i] += half
            masses[j] += half
            cubic += half * rho_l * l
    mass = spread = fast(0)
    for m, gamma in zip(masses, ground.at_vertex):
        if m:
            mass += m
            spread += m * gamma
    k = cubic / 3 + spread
    inside: dict = {}
    for p, a in interior:
        (i, j, w), s = ground.read(p)
        masses[i] += a - a * w
        masses[j] += a * w
        mass += a
        k += a * s
        inside.setdefault(p.edge, []).append((p.offset, a))
    return kernel._factors.solve(masses), k, mass, inside


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
