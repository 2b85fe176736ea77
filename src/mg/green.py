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
the shape of S: one `ResistanceKernel.read` on h with k = 1 and the
constant -c_mu, O(1) integer arithmetic on Gamma at up to four pairs of
endpoints, reduced once.  The tent of two points inside one edge is part
of X, so this module reads no edge length for it.

A Green system is built from one solve, x_D = Gamma·m_D, D spread over
the vertices (`_potential` of `mg.resistance`).  The kernel keeps 2 mu_can
spread over the vertices as 2 m_can, with its mass and its constant k_can,
and Gamma·2 m_can is S, the kernel's `ground`: so mu's spread m_mu =
n/(deg D + 2), n = m_D + 2 m_can, and its solved vector x_mu = Gamma·m_mu
= y/(deg D + 2), y = x_D + S, are O(V) arithmetic.  The build keeps n and
y unscaled and divides by deg D + 2 only where a value is read: once in
j_D, and per vertex only in the readers that need x_mu or m_mu, h, j at a
vertex and `measure`.  j is k + S - 2 x_mu at a vertex, and no potential
is formed to build a system: j_D at D's vertex points is one dot product
with y, divided once.  Every build runs the mass check, (deg D + mass of
2 mu_can)/(deg D + 2) = 1, that is a mass of 2 for 2 mu_can, Foster's
identity on the kernel, and the certificate of `GreenSystem._certify`,
one exact residual L·y = n on the kernel's edge table
(`ResistanceKernel.residual`), L·x_mu = m_mu times deg D + 2, in place
of a second solve; it marks the kernel certified.  The measure object is
not built then: `GreenSystem.measure` builds it on its first read and
checks it against the build, and it is the one path to a measure,
`admissible_measure` and `canonical_measure` included.  The reads' h is
a `_Potential`, the type of S, built from its vertex values, coefficients
and tents by the first read that needs it and kept on the system.  Building a Green system, which every e(G, D) pays
for, runs on arrays indexed by vertex in the fast rational type of
`mg.linalg`, and so do h and the reads of j; a Green value is computed on
the integer parts of those values.  A value becomes a plain Fraction where
a caller receives it: the measure, c and j_D once, and each value a read
returns.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cached_property
from operator import add

from ._record import Record
from .errors import ConstancyViolation, DegreeMinusTwo
from .graphs import GraphPoint, MetrizedGraph, RDivisor
from .linalg import fast, plain
from .resistance import _Potential, _potential, effective_resistance, resistance_kernel

_ZERO = Fraction(0)  # the measure's default atom and density, built once


class AdmissibleMeasure(Record):
    """Atoms plus a constant density per edge; total mass 1.

    Atoms at vertices are keyed by vertex id; an atom at an edge-interior
    point (a divisor support point) is keyed by its GraphPoint.
    """

    __slots__ = ("graph", "atoms", "densities")

    def __init__(self, graph: MetrizedGraph, atoms: dict, densities: dict):
        self.graph = graph
        self.atoms = atoms
        self.densities = densities

    def total_mass(self) -> Fraction:
        mass = sum(self.atoms.values(), _ZERO)
        return sum((self.density(e.id) * e.length for e in self.graph.edges), mass)

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
    rho_e from the graph's resistance kernel.  It is the `measure` of the
    Green system of (g, d): built by `_measure` and checked against the
    system's certified build, so every measure returned has passed the
    certificate and the checks of `GreenSystem.measure`.  The values are
    computed on the fast rational type of `mg.linalg` and kept as plain
    Fractions.
    """
    return GreenSystem(g, d).measure


def _measure(g: MetrizedGraph, d: RDivisor, deg) -> AdmissibleMeasure:
    """mu from its formula, unchecked, for a divisor already relocated onto
    g by `check_point`, of degree deg != -2 in the fast type: the builder
    that `GreenSystem.measure` calls and then checks."""
    scale = deg + 2
    coeff = {p.vertex: fast(a) for p, a in d.items() if p.is_vertex}
    atoms = {v: plain((coeff.get(v, 0) + 2 - g.valence(v)) / scale) for v in g.vertex_list}
    atoms.update((p, plain(a / scale)) for p, a in d.items() if not p.is_vertex)
    two = 2 / scale
    density = resistance_kernel(g).density.items()
    return AdmissibleMeasure(g, atoms, {e: plain(rho * two) for e, rho in density})


class GreenSystem:
    """Solved state for a fixed (G, D): evaluates g_(G,D) at point pairs.

    Construction relocates D onto the graph once, sums deg D once in the
    fast type, raising DegreeMinusTwo if it is -2, takes the graph's
    resistance kernel and checks that mu has mass 1 from the kernel's mass
    of 2 mu_can.  It spreads D over the vertices (`_potential`), as m_D,
    forms n = m_D + 2 m_can from the kernel's 2 m_can, and solves once,
    x_D = Gamma·m_D.  As Gamma·2 m_can is S, y = x_D + S is Gamma·n; n
    and y are m_mu and x_mu times deg D + 2, kept unscaled.  Then it
    certifies that y is Gamma·n, by the residual L·y = n, and so that
    g(D, y) + g(y, y) is constant (`_certify`), raising
    ConstancyViolation if not, and marks the kernel certified.
    That constant c(G, D) is stored as `c`; it is also c_mu.
    Everything about D reads the potential j = integral r(., z) dmu(z),
    which is k + S - 2 x_mu at a vertex (Chinburg-Rumely 1993;
    Baker-Rumely 2007), k = (sum a_i S(P_i) + k_can)/(deg D + 2) being
    mu's constant and S the kernel's `ground`: g(D, y) = 2c - j(y),
    g(D, D) = 2 deg(D) c - j_D and e(G, D) = j_D = sum a_i j(P_i).  All of
    this runs in the fast rational type of `mg.linalg`; c and j_D are
    converted to plain Fractions once, at the end, and y is kept in the
    fast type for reads, each of which returns a plain Fraction.  j_D
    divides by deg D + 2 once, and nothing else in the build divides a
    vertex's value.  No measure object is built: `measure` is a cached
    property, built and checked by its first read.

    g(x, y) = h(x) + h(y) + X(x, y) - c, with h = (j - S)/2 and S, X the
    kernel's form for r (`mg.resistance`): one `ResistanceKernel.read` on
    h, with k = 1 and the constant -c, kept in the fast type, gives it as
    a plain Fraction, tent included, from Gamma at up to four pairs of
    endpoints and a row of h per point, on integer parts reduced once.
    h is the `_Potential` with the values k/2 - x_mu at the vertices, x_mu
    = y/(deg D + 2), the coefficient -rho_e/(deg D + 2), half mu's
    density, on each edge, formed by the first read inside the edge, and a
    tent (s, a) for each atom a of mu inside an edge, a cached property
    built by the first read that needs it: by `eval`, by a read of j
    inside an edge, or by j_D when D has a point inside an edge.  So building a system with D on vertices,
    and so `e_invariant` and `fiber_report`, pays nothing for it.  X may
    compute Gamma entries off the selected inverse's pattern, which the
    kernel's factorization keeps.  Every kept value is exact and computed
    from the same state, so threads racing to build one store equal
    values, and concurrent reads stay safe.
    """

    def __init__(self, graph: MetrizedGraph, divisor: RDivisor):
        self.graph = graph
        d = self.divisor = divisor.relocate(graph.check_point)
        deg = sum((a for _, a in d.items()), fast(0))
        if deg == -2:
            raise DegreeMinusTwo("divisor has degree -2")
        self.degree = plain(deg)
        kernel = self._kernel = resistance_kernel(graph)
        scale = self._scale = deg + 2
        # mu's mass (deg D + mass of 2 mu_can)/(deg D + 2) is 1 iff the
        # mass of 2 mu_can is 2
        if kernel.canonical_mass != 2:
            mass = (deg + kernel.canonical_mass) / scale
            raise ConstancyViolation(f"measure has total mass {mass}, not 1")
        atoms = {p.vertex if p.is_vertex else p: a for p, a in d.items()}
        m_d, s_d, self._inside = _potential(kernel, atoms)
        # delta_D + 2 mu_can spreads and integrates S as D and the kernel's
        # 2 mu_can do, and Gamma·2 m_can is S: so n and y are mu's spread
        # m_mu and solved vector x_mu times deg D + 2
        self._n = list(map(add, m_d, kernel.canonical))
        y = self._y = list(map(add, kernel.solve(m_d), kernel.ground.at_vertex))
        # r_D = r(D, .) is s_d + deg(D) S - 2 x_D at a vertex, so 2F = scale
        # j - r_D is 2C = scale k - s_d = k_can at every vertex for this
        # x_mu, and `_certify` checks that it is Gamma·m_mu
        twice_c = kernel.canonical_constant
        k = self._k = (s_d + twice_c) / scale
        self._certify()
        kernel.certified = True
        # j = 2h + S, h being k/2 - x_mu at a vertex, and s_d = sum a_i
        # S(P_i): so j_D = s_d + deg(D) k - 2 sum a_i x_mu(P_i), the sum one
        # dot product with y over D's vertex points, divided by deg D + 2,
        # and a point inside an edge adds a_i (2 h(P_i) - k) instead of a
        # term of the sum
        dot = fast(0)
        j_d = s_d + deg * k
        for p, a in d.items():
            if p.is_vertex:
                dot += a * y[kernel.index[p.vertex]]
            else:
                j_d += a * (2 * self._h.read(p)[1] - k)
        j_d -= 2 * dot / scale
        self._j_d = plain(j_d)
        # with F = C certified, j = (2C + r_D)/(deg D + 2) everywhere, and
        # integral r_D dmu = j_D, so c_mu = (1/2) integral j dmu is this
        c = (twice_c + j_d) / (2 * scale)
        self.c = plain(c)
        self._minus_c = -c  # the constant of every read, in the fast type

    def _certify(self) -> None:
        """Check that y = x_D + S is Gamma·n, n = m_D + 2 m_can: that L·y
        (`ResistanceKernel.residual`, L summed from the edge table, not
        read from the factorization) equals n at every vertex but the
        ground, in the kernel's vertex order, exactly, in the fast type of
        `mg.linalg`.  y and n are x_mu and m_mu times deg D + 2, so this is
        L·x_mu == m_mu times deg D + 2, and no vertex's value is divided to
        check it.  y is 0 at the ground vertex by construction, as `solve`
        and Gamma's ground column are, and the grounded Laplacian of a
        connected graph is invertible: so the check passes iff x_mu = y/(deg
        D + 2) is exactly Gamma·m_mu.

        Why that certifies g(D, y) + g(y, y) constant: as r(y, y) = 0,
        g(y, y) = j(y) - c_mu, so g(D, y) + g(y, y) is F(y) = (deg D/2 + 1)
        j(y) - r_D(y)/2 plus a constant.  Between break points (vertices,
        and the points of D inside edges) every tent is linear, so on an
        edge F is linear plus gamma_e t(l - t), and F is constant iff it
        takes one value at every break point and gamma_e = 0 on every edge.
        Inside edges both hold by construction: mu's atom a/scale at a
        point of D of coefficient a gives 2F the tent weight 2 scale
        (a/scale) and r_D the weight 2a, which cancel, and gamma_e = rho_e -
        scale dens_e/2 is 0, mu's density dens_e being 2 rho_e/scale, for
        scale = deg D + 2.  At a vertex w, j is k + S - 2 Gamma·m_mu and r_D
        is s_d + deg(D) S - 2 x_D, so 2F(w) is 2C + 2 scale (x_mu -
        Gamma·m_mu)(w): F is the constant C iff the check passes.

        What it does and does not imply: given the solve x_D = Gamma·m_D,
        the check is L·S == 2 m_can off the ground, that is Gamma·2 m_can
        = S, an identity of the kernel alone, which fails on a fault in the
        kernel's 2 m_can, in its diagonal S or in the selected inverse's
        entries on the edges, from which 2 m_can is formed; with the mass
        check it is what `ResistanceKernel.certify` checks, so a passing
        build marks the kernel certified.  A wrong x_D passes only if its
        error exactly cancels an error in S or in 2 m_can, and so does a
        wrong S with a wrong 2 m_can.  Entries of Gamma that the build never
        reads, such as the fill, are not checked.  A failure raises
        ConstancyViolation, whose message names the vertex and both sides
        as L·x_mu and m_mu, each side divided by deg D + 2 to print it.
        Every build runs it, after the mass check, which fixes m_mu at the
        ground vertex, where the check reads no m_mu.  The measure object,
        which the build does not use, is checked where it is built, by
        `measure`.
        """
        bad = self._kernel.residual(self._y, self._n)
        if bad:
            v, a, b = bad
            raise ConstancyViolation(
                f"g(D,y) + g(y,y) is not constant: L x_mu is {a / self._scale} "
                f"but m_mu is {b / self._scale} at {GraphPoint.at_vertex(v)!r}"
            )

    @cached_property
    def measure(self) -> AdmissibleMeasure:
        """mu as an `AdmissibleMeasure`, built by `_measure` on the first
        read and checked then against the build, in this order: total mass
        1; (deg D + 2) dens_e == 2 rho_e on every edge, whose failure states
        the t(l - t) coefficient gamma_e that g(D, y) + g(y, y) would have;
        an atom inside an edge at each point of D there and nowhere else,
        of D's coefficient over deg D + 2; and a vertex spread, atoms as
        `_potential` spreads them and half of each density on each end,
        equal to the certified m_mu.  Any failure raises
        ConstancyViolation, and a later read builds and checks again."""
        d, scale, kernel = self.divisor, self._scale, self._kernel
        mu = _measure(self.graph, d, scale - 2)
        mass = mu.total_mass()
        if mass != 1:
            raise ConstancyViolation(f"measure has total mass {mass}, not 1")
        for e, rho in kernel.density.items():
            gamma = rho - scale * mu.density(e) / 2
            if gamma:
                raise ConstancyViolation(
                    f"g(D,y) + g(y,y) has t(l - t) coefficient {gamma} on edge {e!r}"
                )
        inside = {p: a / scale for p, a in d.items() if not p.is_vertex}
        for p, a in {**dict.fromkeys(inside, 0), **mu.atoms}.items():
            if p not in kernel.index and a != inside.get(p, 0):
                raise ConstancyViolation(f"measure has atom {a} at {p!r}, not {inside.get(p, 0)}")
        m = _potential(kernel, mu.atoms)[0]
        for e in self.graph.edges:
            half = mu.density(e.id) * e.length / 2
            m[kernel.index[e.u]] += half
            m[kernel.index[e.v]] += half
        for v, a, n in zip(kernel.vertices, m, self._n):
            b = n / scale
            if a != b:
                raise ConstancyViolation(f"measure spreads {a} onto vertex {v!r}, not {b}")
        return mu

    # -- evaluation ----------------------------------------------------

    @cached_property
    def _h(self) -> _Potential:
        """h = (j - S)/2: k/2 - x_mu at the vertices, x_mu = y/scale, the
        coefficient -rho_e/scale, half mu's density, on each edge, and half
        of j's tents, mu's atoms a/scale at D's points a inside edges, as S
        has none; built by the first read that needs it."""
        kernel, k, scale = self._kernel, self._k / 2, self._scale
        inside = {e: [(s, a / scale) for s, a in atoms] for e, atoms in self._inside.items()}
        at_vertex = [k - y / scale for y in self._y]
        return _Potential(kernel.index, kernel.edges, at_vertex, inside, -1 / scale)

    def _j(self, y: GraphPoint):
        """j(y), in the fast type, for y in the normal form of
        `check_point`: k + S(y) - 2 x_mu(y) at a vertex, x_mu being the
        build's x_D + S over deg D + 2, and 2 h(y) + S(y) inside an edge."""
        (i, _, _), s = self._kernel.ground.read(y)
        if y.is_vertex:
            return self._k + s - 2 * self._y[i] / self._scale
        return 2 * self._h.read(y)[1] + s

    def eval(self, x, y) -> Fraction:
        """g(x, y) = h(x) + h(y) + X(x, y) - c for points of the graph: one
        kernel read on h."""
        x, y = self.graph.check_point(x), self.graph.check_point(y)
        return self._kernel.read(self._h, x, y, 1, self._minus_c)

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
