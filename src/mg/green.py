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
the same shape as j: one `ResistanceKernel.pair` on h, O(1) arithmetic on
Gamma at up to four pairs of endpoints.  The tent of two points inside
one edge is part of X, so this module reads no edge length for it.

j, r(D, .), h and the certificate's 2F are all potentials of one type,
`_Potential` of `mg.resistance`, the type of S: h and 2F are each one
`combine` of two others.  Building a Green system, which every e(G, D)
pays for, runs on arrays indexed by vertex in the fast rational type of
`mg.linalg`: the measure's atoms and densities, both potentials and the
certificate.  Reads compute on that type too.  A value becomes a plain
Fraction where a caller receives it: the measure, c and j_D once, and each
value a read returns.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .errors import ConstancyViolation, DegreeMinusTwo
from .graphs import GraphPoint, MetrizedGraph, RDivisor
from .linalg import fast, plain
from .resistance import _Potential, _potential, effective_resistance, resistance_kernel


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
    return admissible_measure(g, RDivisor())


def admissible_measure(g: MetrizedGraph, d: RDivisor) -> AdmissibleMeasure:
    """The measure mu_(G,D), on g itself: D's edge-interior support points
    carry their atoms under their GraphPoint keys.

    A vertex v carries (a_v + 2 - valence(v))/(deg D + 2), a_v being D's
    coefficient there, and an edge the density 2 rho_e/(deg D + 2) with
    rho_e from the graph's resistance kernel.  The values are computed on
    the fast rational type of `mg.linalg` and kept as plain Fractions.
    """
    deg = d.degree()
    if deg == -2:
        raise DegreeMinusTwo("divisor has degree -2")
    d = d.relocate(g.check_point)
    kernel = resistance_kernel(g)
    scale = fast(deg) + 2
    coeff = {p.vertex: fast(a) for p, a in d.items() if p.is_vertex}
    atoms = {
        v: plain((coeff.get(v, 0) + 2 - g.valence(v)) / scale) for v in g.vertex_list
    }
    for p, a in d.items():
        if not p.is_vertex:
            atoms[p] = plain(a / scale)
    weight = 2 / scale
    densities = {e: plain(rho * weight) for e, rho in kernel.density.items()}
    return AdmissibleMeasure(g, atoms, densities)


class GreenSystem:
    """Solved state for a fixed (G, D): evaluates g_(G,D) at point pairs.

    Construction takes the graph's resistance kernel and the potential j,
    one solve, and checks that the measure has mass 1 from the mass j's
    construction sums.  It then builds r_D = r(D, .) = sum a_i r(P_i, .),
    a second solve, only to certify that g(D, y) + g(y, y) is constant
    (`_certify`), raising ConstancyViolation if the measure is not the
    admissible one.  That constant c(G, D) is stored as `c`; it is also
    c_mu.  With F = C certified, r_D = (deg D + 2) j - 2C, so everything
    about D reads j, c and j_D = sum a_i j(P_i): g(D, y) = 2c - j(y),
    g(D, D) = 2 deg(D) c - j_D and e(G, D) = j_D.  All of this runs in the
    fast rational type of `mg.linalg`; c and j_D are converted to plain
    Fractions once, at the end, and j is kept in the fast type for reads,
    each of which returns a plain Fraction.

    g(x, y) = h(x) + h(y) + X(x, y) - c, with h = (j - S)/2 and S, X the
    kernel's form for r (`mg.resistance`): one `pair` on h gives
    h(x) + h(y) and X, tent included, from Gamma at up to four pairs of
    endpoints and a potential read per point.  The first read
    builds h = combine(1/2, j, -1/2, S) (`_read_tables`), so building a
    system, and so `e_invariant` and `fiber_report`, pays nothing for it.
    X may solve a column of the kernel and cache it there.  Every cache is
    filled with exact values computed from the same state, so threads
    racing to fill one store equal values, and concurrent reads stay safe.
    """

    def __init__(self, graph: MetrizedGraph, divisor: RDivisor):
        self.graph = graph
        self.measure = admissible_measure(graph, divisor)
        self.divisor = divisor.relocate(graph.check_point)
        self.degree = self.divisor.degree()
        kernel = self._kernel = resistance_kernel(graph)
        mu = self.measure
        j, mass = _potential(kernel, mu.atoms, mu.densities)
        if mass != 1:
            raise ConstancyViolation(f"measure has total mass {mass}, not 1")
        terms = {p.vertex if p.is_vertex else p: a for p, a in self.divisor.items()}
        r_d, _ = _potential(kernel, terms, {})
        scale = fast(self.degree) + 2
        twice_c = self._certify(scale, j, r_d)
        j_d = fast(0)
        for p, a in self.divisor.items():
            j_d += a * j.read(p)[1]
        self._j = j
        self._j_d = plain(j_d)
        # with F = C certified, j = (2C + r_D)/(deg D + 2) everywhere, and
        # integral r_D dmu = j_D, so c_mu = (1/2) integral j dmu is this
        self.c = plain((twice_c + j_d) / (2 * scale))
        self._h = None  # built by the first read

    def _certify(self, scale, j: _Potential, r_d: _Potential) -> Fraction:
        """2C, C being the constant value of F = (deg D/2 + 1) j - r_D/2,
        for scale = deg D + 2.

        As r(y, y) = 0, g(y, y) = j(y) - c_mu, so g(D, y) + g(y, y) is F(y)
        plus a constant.  Between break points (vertices, and the points of
        D and of the measure inside edges) every tent is linear, so on an
        edge F is linear plus gamma_e t(l - t), with gamma_e =
        (deg D/2 + 1) curv_j - curv_(r_D)/2.  F is therefore constant iff it
        takes one value at every break point and gamma_e = 0 on every edge;
        any failure raises ConstancyViolation.  The comparisons run on the
        potential 2F = scale j - r_D, one `combine` of the two, in the fast
        type of `mg.linalg`: on its vertex array, then at its tents' offsets
        edge by edge, then on its t(l - t) coefficients 2 gamma_e.
        GraphPoints are built only for the tents' offsets and for a
        failure's message, which states F.
        """
        twice = j.combine(scale, r_d, -1)
        vertices = self.graph.vertex_list
        value = twice.at_vertex[0]

        def differs(f, y: GraphPoint) -> ConstancyViolation:
            return ConstancyViolation(
                f"g(D,y) + g(y,y) is not constant: (deg D/2 + 1) j - r_D/2 "
                f"is {value / 2} at {GraphPoint.at_vertex(vertices[0])!r} "
                f"but {f / 2} at {y!r}"
            )

        for v, f in zip(vertices, twice.at_vertex):
            if f != value:
                raise differs(f, GraphPoint.at_vertex(v))
        for e in self.graph.edges:
            for t in sorted({t for t, _ in twice.inside.get(e.id, ())}):
                y = GraphPoint.on_edge(e.id, t)
                f = twice.read(y)[1]
                if f != value:
                    raise differs(f, y)

        for e, gamma in twice.curv.items():
            if gamma:
                raise ConstancyViolation(
                    f"g(D,y) + g(y,y) has t(l - t) coefficient {gamma / 2} "
                    f"on edge {e!r}"
                )
        return value

    # -- evaluation ----------------------------------------------------

    def _read_tables(self) -> _Potential:
        """h = (j - S)/2, S being r(., ground vertex), the kernel's
        `ground`: half of j's tents, as S has none."""
        return self._j.combine(Fraction(1, 2), self._kernel.ground, Fraction(-1, 2))

    def eval(self, x, y) -> Fraction:
        """g(x, y) = h(x) + h(y) + X(x, y) - c for points of the graph."""
        x, y = self.graph.check_point(x), self.graph.check_point(y)
        h = self._h
        if h is None:
            h = self._h = self._read_tables()
        f, z = self._kernel.pair(h, x, y)
        return plain(f + z - self.c)

    # -- derived quantities ---------------------------------------------

    def green_of_divisor(self, y) -> Fraction:
        """g(D, y) = sum of a_i g(P_i, y) = 2c - j(y): one potential read."""
        return plain(2 * self.c - self._j.read(self.graph.check_point(y))[1])

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
