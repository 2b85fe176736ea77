"""Admissible measures and Green functions on metrized graphs.

For a connected metrized graph G and a rational divisor D with deg(D) != -2
there is a unique probability measure mu and symmetric kernel g with

    Delta_y g(x, y) = delta_x - mu,      integral g(x, y) dmu(y) = 0,

such that g(D, y) + g(y, y) is constant in y.  Conventions (the literature
leaves both implicit):

* Laplacian sign: Delta(f) = -f'' (length measure) on edge interiors, minus
  at each vertex the sum of outward one-sided derivatives times a point mass.
  With this sign the circle Green function is t^2/(2l) - t/2 + l/12, which is
  pinned by a regression test.
* Measure: mu = (delta_D + 2*mu_can) / (deg D + 2) where the canonical
  measure mu_can puts an atom 1 - valence(v)/2 at each vertex and constant
  density 1/(length + R_e) on each edge, R_e being the effective resistance
  between the edge's endpoints with the edge removed (bridge: density 0;
  loop: density 1/length), which is (length - r_e)/length^2 by the
  parallel law.

Everything is exact and comes from the graph's resistance kernel, one
rational factorization per graph (`mg.resistance`), as g(x, y) = -r(x, y)/2 +
(j(x) + j(y))/2 - c_mu with j(x) = integral r(x, z) dmu(z) and c_mu half the
integral of j dmu (Chinburg-Rumely 1993; Baker-Rumely 2007).  That integral
is never formed: building a Green system certifies that g(D, y) + g(y, y) is
constant, and c_mu, which equals that constant c(G, D), follows from it in
closed form (`GreenSystem`).  Writing r(x, y) as the kernel's bilinear form
S(x) + S(y) - 2 X(x, y) turns a read into g(x, y) = h(x) + h(y) + X(x, y) -
c_mu, with h = (j - S)/2 tabulated once per system: O(1) arithmetic on
Gamma at up to four pairs of endpoints.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .errors import ConstancyViolation, DegreeMinusTwo
from .graphs import GraphPoint, MetrizedGraph, RDivisor
from .linalg import fast, plain
from .resistance import ResistanceKernel, effective_resistance, resistance_kernel


@dataclass
class AdmissibleMeasure:
    """Atoms plus a constant density per edge; total mass 1.

    Atoms at vertices are keyed by vertex id; an atom at an edge-interior
    point (a divisor support point) is keyed by its GraphPoint.
    """

    graph: MetrizedGraph
    atoms: dict
    densities: dict

    def total_mass(self) -> Fraction:
        mass = sum(self.atoms.values(), Fraction(0))
        for e in self.graph.edges:
            mass += self.densities.get(e.id, Fraction(0)) * e.length
        return mass

    def density(self, edge_id) -> Fraction:
        return self.densities.get(edge_id, Fraction(0))

    def atom(self, v) -> Fraction:
        return self.atoms.get(v, Fraction(0))


def canonical_measure(g: MetrizedGraph) -> AdmissibleMeasure:
    """The canonical probability measure of the graph (the D = 0 case)."""
    densities = dict(resistance_kernel(g).density)
    atoms = {v: 1 - Fraction(g.valence(v), 2) for v in g.vertex_list}
    return AdmissibleMeasure(g, atoms, densities)


def admissible_measure(g: MetrizedGraph, d: RDivisor) -> AdmissibleMeasure:
    """The measure mu_(G,D), on g itself: D's edge-interior support points
    carry their atoms under their GraphPoint keys."""
    deg = d.degree()
    if deg == -2:
        raise DegreeMinusTwo("divisor has degree -2")
    d = d.relocate(g.check_point)
    can = canonical_measure(g)
    scale = deg + 2
    atoms = {
        v: (d.coeff(GraphPoint.at_vertex(v)) + 2 * a) / scale
        for v, a in can.atoms.items()
    }
    for p, a in d.items():
        if not p.is_vertex:
            atoms[p] = a / scale
    densities = {e: 2 * rho / scale for e, rho in can.densities.items()}
    return AdmissibleMeasure(g, atoms, densities)


class _Potential:
    """x -> integral r(x, z) dnu(z), for nu made of atoms and a constant
    density per edge, in closed form from its values at the vertices.

    For x at offset t inside an edge e of length l, r(x, z) is the chord of
    r(., z) between e's ends plus t(l - t) rho_e, less 2 min(s, t)(l - max(s,
    t))/l when z too lies inside e, at offset s (`mg.resistance`).

    Construction computes the masses, the constant k, the vertex values and
    the t(l - t) coefficient of every edge on the fast rational type of
    `mg.linalg`, and keeps each as a plain Fraction (`linalg.plain`): the
    values a read reaches, `at_vertex`, `curv` and `inside`, are Fractions.
    """

    def __init__(
        self,
        graph: MetrizedGraph,
        kernel: ResistanceKernel,
        atoms: dict,
        densities: dict,
    ):
        self.graph = graph
        self.kernel = kernel
        self.inside: dict = {}  # edge id -> [(offset, atom)] inside the edge
        # at a vertex w the potential is sum_v m_v r(w, v) + k: each atom
        # spreads over the ends of its edge as r(., p) does, and a density
        # puts rho*l/2 on both ends and adds rho*rho_e*l^3/6 (its t(l - t)
        # rho_e term)
        masses = [fast(0)] * len(kernel.index)
        k = mass = fast(0)
        for site, a in atoms.items():
            p = graph.check_point(site)
            (i, j, w), const = kernel.spread(p)
            if p.is_vertex:
                masses[i] += a
            else:
                self.inside.setdefault(p.edge, []).append((p.offset, a))
                a = fast(a)
                masses[i] += a - a * w
                masses[j] += a * w
                k += a * const
            mass += a
        for e in graph.edges:
            rho = densities.get(e.id, 0)
            if rho:
                l = fast(e.length)
                rho_l = rho * l
                half = rho_l / 2
                masses[kernel.index[e.u]] += half
                masses[kernel.index[e.v]] += half
                k += rho_l * kernel.density[e.id] * l * l / 6
                mass += rho_l
        # on an edge e the potential is linear between break points plus
        # t(l - t) times nu(G) rho_e less nu's own density there
        self.curv = {
            e.id: plain(mass * kernel.density[e.id] - densities.get(e.id, 0))
            for e in graph.edges
        }
        # r(w, v) = G_ww + G_vv - 2 G_wv with G the kernel's Gamma, so the
        # sum is G_ww sum(m) + sum_v m_v G_vv - 2 (G m)_w: one solve
        support = [(v, m) for v, m in enumerate(masses) if m]
        total = sum(m for _, m in support)
        k += sum(m * kernel.entry(v, v) for v, m in support)
        gm = kernel.apply(masses)
        self.at_vertex = [
            plain(k + kernel.entry(w, w) * total - 2 * fast(gm[w]))
            for w in range(len(masses))
        ]

    def _edge(self, e) -> tuple[Fraction, Fraction, Fraction]:
        """The potential at e's ends, and the coefficient of t(l - t)."""
        index = self.kernel.index
        return self.at_vertex[index[e.u]], self.at_vertex[index[e.v]], self.curv[e.id]

    def __call__(self, x: GraphPoint) -> Fraction:
        """The potential at a point in the normal form of `check_point`."""
        if x.is_vertex:
            return self.at_vertex[self.kernel.index[x.vertex]]
        e = self.graph.edge_by_id[x.edge]
        l, t = e.length, x.offset
        pu, pv, curv = self._edge(e)
        value = ((l - t) * pu + t * pv) / l + t * (l - t) * curv
        for s, a in self.inside.get(e.id, ()):
            value -= 2 * a * min(s, t) * (l - max(s, t)) / l
        return value


class GreenSystem:
    """Solved state for a fixed (G, D): evaluates g_(G,D) at point pairs.

    Construction takes the graph's resistance kernel and the vertex values
    of j and of r(D, .) = sum a_i r(P_i, .), one solve each, and certifies
    from them that g(D, y) + g(y, y) is constant (`_certify`), raising
    ConstancyViolation if the measure is not the admissible one.  That
    constant c(G, D) is stored as `c`; it is also c_mu.  g(D, y) is then
    O(1) arithmetic plus a term per atom inside the edge of y.

    So is g(x, y) = h(x) + h(y) + X(x, y) - c, with h = (j - S)/2 and S, X
    the kernel's bilinear form for r (`mg.resistance`): Gamma at up to four
    pairs of endpoints, plus a table read per point.  The first read builds
    the tables of h (`_read_tables`), so building a system, and so
    `e_invariant` and `fiber_report`, pays nothing for them.  X may solve a
    column of the kernel and cache it there.  Both caches are filled with
    exact values computed from the same state, so threads racing to fill
    one store equal values, and concurrent reads stay safe.
    """

    def __init__(self, graph: MetrizedGraph, divisor: RDivisor):
        self.graph = graph
        self.measure = admissible_measure(graph, divisor)
        self.divisor = divisor.relocate(graph.check_point)
        self.degree = self.divisor.degree()
        mass = self.measure.total_mass()
        if mass != 1:
            raise ConstancyViolation(f"measure has total mass {mass}, not 1")
        kernel = resistance_kernel(graph)
        self._j = _Potential(graph, kernel, self.measure.atoms, self.measure.densities)
        self._r_d = _Potential(graph, kernel, dict(self.divisor.items()), {})
        j_d = sum((fast(a) * self._j(p) for p, a in self.divisor.items()), fast(0))
        self._j_d = plain(j_d)
        # with F = C certified, j = (2C + r_D)/(deg D + 2) everywhere, and
        # integral r_D dmu = j_D, so c_mu = (1/2) integral j dmu is this
        self.c = plain((2 * self._certify() + j_d) / (2 * (self.degree + 2)))
        self._tables = None  # of h, built by the first read

    def _certify(self) -> Fraction:
        """The constant value C of F = (deg D/2 + 1) j - r_D/2.

        As r(y, y) = 0, g(y, y) = j(y) - c_mu, so g(D, y) + g(y, y) is F(y)
        plus a constant.  Between break points (vertices, and the points of
        D and of the measure inside edges) every tent is linear, so on an
        edge F is linear plus gamma_e t(l - t), with gamma_e =
        (deg D/2 + 1) curv_j - curv_(r_D)/2.  F is therefore constant iff it
        takes one value at every break point and gamma_e = 0 on every edge;
        any failure raises ConstancyViolation.  C is computed, and returned,
        in the fast type of `mg.linalg`, for the constructor's c.
        """
        weight = fast(self.degree) / 2 + 1
        half = fast(1) / 2
        j, r_d = self._j, self._r_d
        points = [GraphPoint.at_vertex(v) for v in self.graph.vertex_list]
        for e in self.graph.edges:
            inside = [*j.inside.get(e.id, ()), *r_d.inside.get(e.id, ())]
            points.extend(GraphPoint.on_edge(e.id, t) for t in sorted({t for t, _ in inside}))

        where = points[0]
        value = weight * j(where) - half * r_d(where)
        for y in points[1:]:
            f = weight * j(y) - half * r_d(y)
            if f != value:
                raise ConstancyViolation(
                    f"g(D,y) + g(y,y) is not constant: (deg D/2 + 1) j - r_D/2 "
                    f"is {value} at {where!r} but {f} at {y!r}"
                )

        for e in self.graph.edges:
            gamma = weight * j._edge(e)[2] - half * r_d._edge(e)[2]
            if gamma:
                raise ConstancyViolation(
                    f"g(D,y) + g(y,y) has t(l - t) coefficient {gamma} on edge {e.id!r}"
                )
        return value

    # -- evaluation ----------------------------------------------------

    def _read_tables(self) -> tuple[dict, dict]:
        """h = (j - S)/2 at the vertices and along the edges.

        At a vertex v, h_v = (j_v - Gamma_vv)/2.  At offset t on an edge
        e = (u, v) of length l, j and S are both the chord between e's ends
        plus a multiple of t(l - t), so h is the chord of h_u and h_v plus
        t(l - t) k_e with k_e = (curv_j,e - rho_e)/2, less half of j's terms
        for its atoms inside e.  Returns {vertex id: (index, h_v)} and
        {edge id: (index of u, index of v, l, h_u, (h_v - h_u)/l, k_e)}."""
        j = self._j
        kernel = j.kernel
        h = [(jv - kernel.entry(i, i)) / 2 for i, jv in enumerate(j.at_vertex)]
        vertices = {v: (i, h[i]) for v, i in kernel.index.items()}
        edges = {}
        for e in self.graph.edges:
            u, v = kernel.index[e.u], kernel.index[e.v]
            k = (j._edge(e)[2] - kernel.density[e.id]) / 2
            edges[e.id] = (u, v, e.length, h[u], (h[v] - h[u]) / e.length, k)
        return vertices, edges

    def _read(self, p: GraphPoint, tables) -> tuple[tuple, Fraction]:
        """p's spread weights, as from `ResistanceKernel.spread`, and h(p)."""
        vertices, edges = tables
        if p.is_vertex:
            i, h = vertices[p.vertex]
            return (i, i, 0), h
        i, j, l, h, slope, k = edges[p.edge]
        t = p.offset
        h += t * (slope + (l - t) * k)
        for s, a in self._j.inside.get(p.edge, ()):
            h -= a * min(s, t) * (l - max(s, t)) / l
        return (i, j, t / l), h

    def eval(self, x, y) -> Fraction:
        """g(x, y) for points of the graph."""
        x, y = self.graph.check_point(x), self.graph.check_point(y)
        tables = self._tables
        if tables is None:
            tables = self._tables = self._read_tables()
        sx, hx = self._read(x, tables)
        sy, hy = self._read(y, tables)
        g = hx + hy + self._j.kernel.cross(sx, sy) - self.c
        if not x.is_vertex and not y.is_vertex and x.edge == y.edge:
            # r(x, y) = d - rho_e d^2 falls short of S(x) + S(y) - 2X by
            # 2 s(l - t)/l at offsets s <= t (the tent of `_Potential`)
            s, t = sorted((x.offset, y.offset))
            l = self.graph.edge_by_id[x.edge].length
            g += s * (l - t) / l
        return g

    # -- derived quantities ---------------------------------------------

    def green_of_divisor(self, y) -> Fraction:
        """g(D, y) = sum of a_i g(P_i, y)."""
        y = self.graph.check_point(y)
        return (self._j_d - self._r_d(y)) / 2 + self.degree * (self._j(y) / 2 - self.c)

    def pairing_dd(self) -> Fraction:
        """g(D, D) = sum over i of a_i g(D, P_i)."""
        total = Fraction(0)
        for p, a in self.divisor.items():
            total += a * self.green_of_divisor(p)
        return total


def green_system(g: MetrizedGraph, d: RDivisor) -> GreenSystem:
    return GreenSystem(g, d)


def green_eval(s: GreenSystem, x, y) -> Fraction:
    return s.eval(x, y)


def constant_c(s: GreenSystem) -> Fraction:
    """The constant value c(G, D) of g(D, y) + g(y, y).

    It was certified exactly when `s` was built (`GreenSystem._certify`),
    which raises ConstancyViolation on any failure.  Integrating
    g(D, y) + g(y, y) = c(G, D) against mu, with integral g(D, y) dmu(y) = 0
    and g(y, y) = j(y) - c_mu, shows c(G, D) = c_mu.
    """
    return s.c


def e_invariant(g: MetrizedGraph, d: RDivisor) -> Fraction:
    """e(G, D) = 2 deg(D) c(G, D) - g(D, D)."""
    s = green_system(g, d)
    return e_of_system(s)


def e_of_system(s: GreenSystem) -> Fraction:
    c = constant_c(s)
    return 2 * s.degree * c - s.pairing_dd()


def e_via_basepoint(g: MetrizedGraph, d: RDivisor, o) -> Fraction:
    """e(G, D) = (deg(D) + 2) g(O, D) + r(O, D), for any basepoint O."""
    s = green_system(g, d)
    o = g.check_point(o)
    god = Fraction(0)
    rod = Fraction(0)
    for p, a in d.items():
        god += a * s.eval(o, p)
        rod += a * effective_resistance(g, o, p)
    return (s.degree + 2) * god + rod
