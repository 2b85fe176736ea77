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
`mg.green` so is the reads' h = (j - S)/2, built from its vertex values,
coefficients and tents.  `_potential` gives what the potential of a set of
atoms is made of, its spread over the vertices m, to be solved as
Gamma·m (`ResistanceKernel.solve`), and a constant, and `mg.green` does
its arithmetic on those.

The kernel keeps the canonical measure the same way, once per graph: 2
mu_can, of atom 2 - valence(v) at a vertex v and density 2 rho_e on each
edge, spreads `canonical` = 2 m_can onto the vertices, 2 - valence(v) +
the sum of rho_e l over the ends at v of its edges, formed in the loop
that forms rho_e l.  Its mass `canonical_mass` is 2 by Foster's identity
(the r_e/l sum to the number of vertices less 1), and its constant
`canonical_constant` is k_can = integral S d(2 mu_can).  Both are summed
from the vector on first read.  The potential of 2 mu_can is the constant
k_can, so Gamma·2 m_can is S: L·S = 2 m_can at every vertex but the
ground, L being the Laplacian.  A Green system (`mg.green`) forms mu's
spread, solved vector and constant from D's and these, with one solve,
checks the mass and certifies the identity on every build by one exact
residual, `ResistanceKernel.laplacian`: L·x from the table's
conductances in one O(E) pass, which reads nothing of the factorization.

Every read is `ResistanceKernel.pair` on a potential f: f(x) + f(y) and
X(x, y), the one place that knows the tent.  A resistance is `pair` on S,
f - 2X, and a Green value (`mg.green`) is `pair` on h = (j - S)/2.

Each length is converted once, into the kernel's edge table
`ResistanceKernel.edges`: {edge id: (i, j, l, 1/l, rho_e l)}, in the
graph's edge order, i and j the indices of the ends and the rest in the
fast type.  rho_e itself is kept once, as S's t(l - t) coefficient
`ground.curv` {edge id: rho_e}, and read from there by edge id.  Only this
module reads the table's rows: the kernel's build, its canonical
constant, `laplacian` and every potential's rows.  Gamma is never formed
densely.  The kernel factors the Laplacian once, from the table's
conductances (`mg.linalg`), and the factorization keeps its selected
inverse, which holds Gamma exactly on the diagonal, on every pair of
adjacent vertices and on the fill: so every r_e and density, and S, whose
value at a vertex v is Gamma_vv, and 2 m_can, in O(nnz(L)) on a graph
that factors with no fill.  A potential of a measure needs only that
diagonal, the table and one solve, Gamma·m.  Gamma at any other pair, as
X between arbitrary points may ask for, is read from the same
factorization, which computes an entry its selected inverse lacks by
Takahashi's recurrence along one elimination-tree path, with no solve,
and keeps it and every entry computed on the way
(`linalg.Factorization.inverse_entry`).  A read is otherwise O(1)
arithmetic.  The kernel is built on first use and kept on the (immutable)
graph, which it validates once.  The factorization's entries and
solutions are in the fast rational type of `mg.linalg`, as is the table,
and every potential, S included, computes on it, reads too: weights and
the tent.  What a caller receives is plain: the densities, `entry` and
every resistance.
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
    any linear combination of them, such as h in `mg.green`, have
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
    rho_e as a plain Fraction, converted on first use.  `canonical` is
    2 mu_can spread over the vertices, 2 m_can, with `canonical_mass` and
    `canonical_constant` summed from it on first read.  `laplacian` is L·x
    from the table, the residual that certifies a solved vector.

    Gamma is the inverse of the Laplacian grounded at the first vertex
    (index 0), with Gamma = 0 in its row and column.  The kernel gives the
    factorization (`mg.linalg`) each edge's (i, j, 1/l) from its table,
    and the factorization owns the ground: it sums the Laplacian, answers
    0 in the ground's row and column, and holds Gamma's other entries in
    the fast type: its selected inverse, on the diagonal and every pair of
    adjacent vertices, plus the fill, and every entry read off that
    pattern so far.  `pair` and `entry` read Gamma from it directly, and
    `solve` solves against it.  Every read is
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
        # pattern, and rho_e l = (l - r_e)/l = 1 - r_e/l: so rho_e l = 1 for
        # a loop, whose r_e is 0; rho_e is S's t(l - t) coefficient.  2 mu_can
        # spreads 2 - valence(v) + sum over e's ends at v of rho_e l onto v,
        # that is 2 - sum of r_e/l, to which a loop adds nothing
        rho = {}
        twice = self.canonical = [2] * len(index)
        for e, (i, j, l, c) in edges.items():
            rho_l, rho[e] = fast(1), c
            if i != j:
                r_l = (diagonal[i] + diagonal[j] - 2 * factors.inverse_entry(i, j)) * c
                rho_l = 1 - r_l
                rho[e] = rho_l * c
                twice[i], twice[j] = twice[i] - r_l, twice[j] - r_l
            edges[e] = (i, j, l, c, rho_l)
        self.ground = _Potential(index, edges, diagonal, rho, {})

    @cached_property
    def canonical_mass(self):
        """The mass of 2 mu_can, summed from `canonical`: 2 by Foster's
        identity, as the r_e/l sum to the number of vertices less 1."""
        return sum(self.canonical)

    @cached_property
    def canonical_constant(self):
        """k_can = integral S d(2 mu_can): `canonical` against S at the
        vertices, plus (rho_e l)^2 l/3 from the t(l - t) rho_e term of S on
        each edge, where 2 mu_can has the density 2 rho_e.

        As integral r(x, .) d(2 mu_can) is k_can at every x, k_can is also
        4 tau(G), tau(G) being a quarter of the integral of S'^2
        (Baker-Rumely, Canad. J. Math. 59, 2007): tau is k_can/4, with no
        edge formula of its own."""
        cubic = sum((r * r * l for _, _, l, _, r in self.edges.values() if r), fast(0))
        return cubic / 3 + sum(m * s for m, s in zip(self.canonical, self.ground.at_vertex) if m)

    @cached_property
    def density(self) -> dict:
        """{edge id: canonical density rho_e}, as plain Fractions."""
        return {e: plain(rho) for e, rho in self.ground.curv.items()}

    def solve(self, m: list) -> list:
        """Gamma·m, in the fast type: m[0] is not read."""
        return self._factors.solve(m)

    def laplacian(self, x: list) -> list:
        """L·x over all vertices, L the graph's Laplacian summed from the
        edge table's conductances in one O(E) pass, not read from the
        factorization: at v, the sum of (x_v - x_u)/l over the edges at v,
        u being an edge's other end.  A loop adds nothing."""
        y = [0] * len(x)
        for i, j, _, c, _ in self.edges.values():
            if i != j:
                d = (x[i] - x[j]) * c
                y[i], y[j] = y[i] + d, y[j] - d
        return y

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


def _potential(kernel: ResistanceKernel, atoms: dict) -> tuple:
    """The atoms nu spread over the vertices as m, with the constant k =
    integral S dnu and nu's atoms inside edges, in the fast rational type of
    `mg.linalg`.

    With x = Gamma·m (`ResistanceKernel.solve`; `mg.green` solves for D
    alone, as the kernel's 2 m_can has Gamma·2 m_can = S) they determine
    the potential f = integral r(., z) dnu(z): f(w) = k + nu(G) S(w) -
    2 x_w at a vertex w, and on an edge e, the chord of those values plus
    t(l - t) nu(G) rho_e, less a tent 2a min(s, t)(l - max(s, t))/l for
    each atom a of nu inside e at offset s, listed as (s, a) under e.  An
    atom is keyed by a vertex id, or by an interior GraphPoint in the normal
    form of `check_point`: one at a vertex puts its mass there, with no
    GraphPoint, and one inside an edge spreads as S does (`_Potential.read`).
    """
    index, ground = kernel.index, kernel.ground
    # as r(w, z) = S(w) + S(z) - 2 X(w, z), f(w) = S(w) nu(G) + integral
    # S dnu - 2 (Gamma m)_w
    masses = [0] * len(index)
    k = 0
    inside: dict = {}
    for site, a in atoms.items():
        a = fast(a)
        i = index.get(site)
        if i is None:
            (i, j, w), s = ground.read(site)
            aw = a * w
            masses[i] += a - aw
            masses[j] += aw
            k += a * s
            inside.setdefault(site.edge, []).append((site.offset, a))
        elif a:
            masses[i] += a
            k += a * ground.at_vertex[i]
    return masses, k, inside


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
    return 1 / rho - e.length if rho else None
