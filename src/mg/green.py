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
closed form (`GreenSystem`), as do g(D, y) = 2c_mu - j(y) and e(G, D) =
j_D = sum a_i j(P_i), Zhang's epsilon (Invent. Math. 112, 1993).  Writing
r(x, y) as the kernel's form S(x) + S(y) - 2 X(x, y) turns a read into
g(x, y) = h(x) + h(y) + X(x, y) - c_mu, with h = (j - S)/2 a potential of
the shape of S: one `ResistanceKernel.pair` on h, O(1) arithmetic on
Gamma at up to four pairs of endpoints.  The tent of two points inside
one edge is part of X, so this module reads no edge length for it.

A Green system is built from two solved vectors, x_mu = Gamma·m_mu and
x_D = Gamma·m_D, the measure and the divisor spread over the vertices
(`_potential` of `mg.resistance`).  j is k + S - 2 x_mu at a vertex and
r(D, .) is sum a_i S(P_i) + deg(D) S - 2 x_D, so the certificate and j_D
are arithmetic on the two vectors and S, and no potential is formed to
build a system: j_D at D's vertex points is one dot product with x_mu.
Every edge's ends and length come from the kernel's edge table and its
rho_e from S's coefficients, so the build converts no length and looks up
no edge.  The reads' h and, once the vertices pass, the certificate's 2F
are `_Potential`s, the type of S, built from their vertex values,
coefficients and tents; h is built by the first read that needs it and
kept on the system.  Building a Green system,
which every e(G, D) pays for, runs on arrays indexed by vertex in the fast
rational type of `mg.linalg`: the measure's atoms and densities, both
vectors (the factorization solves in that type) and the certificate.
Reads compute on that type too.  A value becomes a plain Fraction where a
caller receives it: the measure, c and j_D once, and each value a read
returns.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property

from .errors import ConstancyViolation, DegreeMinusTwo
from .graphs import GraphPoint, MetrizedGraph, RDivisor
from .linalg import fast, plain
from .resistance import _Potential, _potential, effective_resistance, resistance_kernel

_ZERO = Fraction(0)  # the measure's default atom and density, built once


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
        mass = sum(self.atoms.values(), _ZERO)
        for e in self.graph.edges:
            mass += self.densities.get(e.id, _ZERO) * e.length
        return mass

    def density(self, edge_id) -> Fraction:
        return self.densities.get(edge_id, _ZERO)

    def atom(self, v) -> Fraction:
        return self.atoms.get(v, _ZERO)


def canonical_measure(g: MetrizedGraph) -> AdmissibleMeasure:
    """The canonical probability measure of the graph (the D = 0 case)."""
    return admissible_measure(g, RDivisor())


def admissible_measure(g: MetrizedGraph, d: RDivisor) -> AdmissibleMeasure:
    """The measure mu_(G,D), on g itself: D's edge-interior support points
    carry their atoms under their GraphPoint keys.

    A vertex v carries (a_v + 2 - valence(v))/(deg D + 2), a_v being D's
    coefficient there, and an edge the density 2 rho_e/(deg D + 2) with
    rho_e from the graph's resistance kernel.  The values are computed on
    the fast rational type of `mg.linalg` and kept as plain Fractions.
    """
    d = d.relocate(g.check_point)
    return _measure(g, d, _degree(d))


def _degree(d: RDivisor):
    """deg D, summed in the fast type."""
    return sum((a for _, a in d.items()), fast(0))


def _measure(g: MetrizedGraph, d: RDivisor, deg) -> AdmissibleMeasure:
    """`admissible_measure` for a divisor already relocated onto g by
    `check_point`, of degree deg in the fast type."""
    if deg == -2:
        raise DegreeMinusTwo("divisor has degree -2")
    kernel = resistance_kernel(g)
    scale = deg + 2
    coeff = {p.vertex: fast(a) for p, a in d.items() if p.is_vertex}
    atoms = {
        v: plain((coeff.get(v, 0) + 2 - g.valence(v)) / scale) for v in g.vertex_list
    }
    for p, a in d.items():
        if not p.is_vertex:
            atoms[p] = plain(a / scale)
    weight = 2 / scale
    densities = {e: plain(rho * weight) for e, rho in kernel.ground.curv.items()}
    return AdmissibleMeasure(g, atoms, densities)


class GreenSystem:
    """Solved state for a fixed (G, D): evaluates g_(G,D) at point pairs.

    Construction relocates D onto the graph once, sums deg D once in the
    fast type for the measure and the system, takes the graph's
    resistance kernel and solves twice: x_mu = Gamma·m_mu and x_D =
    Gamma·m_D, the measure mu and the divisor D each spread over the
    vertices as `_potential` spreads them.  It checks that mu has mass 1
    from the masses that spreading sums, then certifies from the two
    vectors that g(D, y) + g(y, y) is constant (`_certify`), raising
    ConstancyViolation if the measure is not the admissible one.  That
    constant c(G, D) is stored as `c`; it is also c_mu.  Everything about
    D reads the potential j = integral r(., z) dmu(z), which is
    k + S - 2 x_mu at a vertex (Chinburg-Rumely 1993; Baker-Rumely 2007),
    k being the constant of `_potential` and S the kernel's `ground`:
    g(D, y) = 2c - j(y), g(D, D) = 2 deg(D) c - j_D and e(G, D) = j_D =
    sum a_i j(P_i).  All of this runs in the fast rational type of
    `mg.linalg`; c and j_D are converted to plain Fractions once, at the
    end, and x_mu is kept in the fast type for reads, each of which returns
    a plain Fraction.

    g(x, y) = h(x) + h(y) + X(x, y) - c, with h = (j - S)/2 and S, X the
    kernel's form for r (`mg.resistance`): one `pair` on h gives
    h(x) + h(y) and X, tent included, from Gamma at up to four pairs of
    endpoints and a potential read per point.  h is the `_Potential` with
    the values k/2 - x_mu at the vertices, the coefficient -dens_e/2 on an
    edge of density dens_e and a tent (s, a) for each atom a of mu inside
    an edge, a cached property built by the first read that needs it: by
    `eval`, by a read of j inside an edge, or by j_D when D has a point
    inside an edge.  So building a system with D on vertices, and so
    `e_invariant` and `fiber_report`, pays nothing for it.  X may compute
    Gamma entries off the selected inverse's pattern, which the kernel's
    factorization keeps.  Every kept value is exact and computed from the
    same state, so threads racing to build one store equal values, and
    concurrent reads stay safe.
    """

    def __init__(self, graph: MetrizedGraph, divisor: RDivisor):
        self.graph = graph
        d = self.divisor = divisor.relocate(graph.check_point)
        deg = _degree(d)
        mu = self.measure = _measure(graph, d, deg)
        self.degree = plain(deg)
        kernel = self._kernel = resistance_kernel(graph)
        x_mu, k, mass, mu_inside = _potential(kernel, mu.atoms, mu.densities)
        if mass != 1:
            raise ConstancyViolation(f"measure has total mass {mass}, not 1")
        terms = {p.vertex if p.is_vertex else p: a for p, a in d.items()}
        x_d, s_d, _, d_inside = _potential(kernel, terms, {})
        scale = deg + 2
        # 2F = scale j - r_D, r_D = r(D, .) being s_d + deg(D) S - 2 x_D at
        # a vertex, so 2F is 2C + 2(S - scale x_mu + x_D) there, with
        # 2C = scale k - s_d its value at the ground vertex
        twice_c = scale * k - s_d
        self._certify(scale, twice_c, x_mu, x_d, mu_inside, d_inside)
        self._x, self._k, self._inside = x_mu, k, mu_inside
        # j = 2h + S, h being k/2 - x_mu at a vertex, and s_d = sum a_i
        # S(P_i): so j_D = s_d + deg(D) k - 2 sum a_i x_mu(P_i), the sum one
        # dot product over D's vertex points, and a point inside an edge
        # adds a_i (2 h(P_i) - k) instead of a term of the sum
        dot = fast(0)
        j_d = s_d + deg * k
        for p, a in d.items():
            if p.is_vertex:
                dot += a * x_mu[kernel.index[p.vertex]]
            else:
                j_d += a * (2 * self._h.read(p)[1] - k)
        j_d -= 2 * dot
        self._j_d = plain(j_d)
        # with F = C certified, j = (2C + r_D)/(deg D + 2) everywhere, and
        # integral r_D dmu = j_D, so c_mu = (1/2) integral j dmu is this
        self.c = plain((twice_c + j_d) / (2 * scale))

    def _certify(self, scale, twice_c, x_mu, x_d, mu_inside, d_inside) -> None:
        """Check that F = (deg D/2 + 1) j - r_D/2 is the constant C, for
        scale = deg D + 2, 2C = twice_c and the solved vectors x_mu and x_D.

        As r(y, y) = 0, g(y, y) = j(y) - c_mu, so g(D, y) + g(y, y) is F(y)
        plus a constant.  Between break points (vertices, and the points of
        D and of the measure inside edges) every tent is linear, so on an
        edge F is linear plus gamma_e t(l - t).  F is therefore constant iff
        it takes one value at every break point and gamma_e = 0 on every
        edge; any failure raises ConstancyViolation.  At a vertex w, 2F(w)
        = 2C + 2(S(w) - scale x_mu(w) + x_D(w)), so the vertex check is
        scale x_mu(w) - x_D(w) == S(w), in `vertex_list` order, with no
        potential formed.  Once every vertex passes, 2F is the `_Potential`
        with 2C at every vertex, the coefficient 2 gamma_e = 2 rho_e -
        scale dens_e and the tents (s, 2 scale a) of mu's atoms a and
        (s, -2a) of D's inside edges: it is read at its tents' offsets edge
        by edge, in the graph's edge order, and its coefficient is formed
        only on an edge that holds a tent.  Then each edge's gamma_e = 0 is
        checked as scale dens_e == 2 rho_e, rho_e read from S's
        coefficients, and gamma_e is formed only for a failure's message.
        All of it runs in the fast type of `mg.linalg`.  GraphPoints are
        built only for the tents' offsets and for a failure's message,
        which states F.
        """
        kernel = self._kernel
        vertices = self.graph.vertex_list

        def differs(f, y: GraphPoint) -> ConstancyViolation:
            return ConstancyViolation(
                f"g(D,y) + g(y,y) is not constant: (deg D/2 + 1) j - r_D/2 "
                f"is {twice_c / 2} at {GraphPoint.at_vertex(vertices[0])!r} "
                f"but {f / 2} at {y!r}"
            )

        for v, s, xm, xd in zip(vertices, kernel.ground.at_vertex, x_mu, x_d):
            z = scale * xm - xd
            if z != s:
                raise differs(twice_c + 2 * (s - z), GraphPoint.at_vertex(v))
        rho, density = kernel.ground.curv, self.measure.density
        weight = 2 * scale
        inside = {e: [(s, weight * a) for s, a in atoms] for e, atoms in mu_inside.items()}
        for e, atoms in d_inside.items():
            inside.setdefault(e, []).extend((s, -2 * a) for s, a in atoms)
        # 2 gamma_e = 2 rho_e - scale dens_e, which 2F reads only inside an
        # edge that holds a tent
        curv = {e: 2 * rho[e] - scale * density(e) for e in inside}
        twice = _Potential(kernel.index, kernel.edges, [twice_c] * len(vertices), curv, inside)
        for e in rho:
            for t in sorted({t for t, _ in inside.get(e, ())}):
                y = GraphPoint.on_edge(e, t)
                f = twice.read(y)[1]
                if f != twice_c:
                    raise differs(f, y)

        for e, rho_e in rho.items():
            twice_rho, scaled = 2 * rho_e, scale * density(e)
            if scaled != twice_rho:
                raise ConstancyViolation(
                    f"g(D,y) + g(y,y) has t(l - t) coefficient "
                    f"{(twice_rho - scaled) / 2} on edge {e!r}"
                )

    # -- evaluation ----------------------------------------------------

    @cached_property
    def _h(self) -> _Potential:
        """h = (j - S)/2: k/2 - x_mu at the vertices, -dens_e/2 on each
        edge, and half of j's tents, as S has none; built by the first read
        that needs it."""
        kernel, k = self._kernel, self._k / 2
        half = fast(Fraction(-1, 2))
        curv = {e: half * self.measure.density(e) for e in kernel.edges}
        return _Potential(kernel.index, kernel.edges, [k - x for x in self._x], curv, self._inside)

    def _j(self, y: GraphPoint):
        """j(y), in the fast type, for y in the normal form of
        `check_point`: k + S(y) - 2 x_mu(y) at a vertex, 2 h(y) + S(y)
        inside an edge."""
        (i, _, _), s = self._kernel.ground.read(y)
        if y.is_vertex:
            return self._k + s - 2 * self._x[i]
        return 2 * self._h.read(y)[1] + s

    def eval(self, x, y) -> Fraction:
        """g(x, y) = h(x) + h(y) + X(x, y) - c for points of the graph."""
        x, y = self.graph.check_point(x), self.graph.check_point(y)
        f, z = self._kernel.pair(self._h, x, y)
        return plain(f + z - self.c)

    # -- derived quantities ---------------------------------------------

    def green_of_divisor(self, y) -> Fraction:
        """g(D, y) = sum of a_i g(P_i, y) = 2c - j(y): one potential read."""
        return plain(2 * self.c - self._j(self.graph.check_point(y)))

    def pairing_dd(self) -> Fraction:
        """g(D, D) = sum over i of a_i g(D, P_i) = 2 deg(D) c - j_D."""
        return 2 * self.degree * self.c - self._j_d


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
    """e(G, D) = 2 deg(D) c(G, D) - g(D, D), read by `e_of_system`."""
    s = green_system(g, d)
    return e_of_system(s)


def e_of_system(s: GreenSystem) -> Fraction:
    """e(G, D) = 2 deg(D) c - g(D, D) = j_D = integral r(D, y) dmu(y),
    stored when `s` was built (`GreenSystem`)."""
    return s._j_d


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
