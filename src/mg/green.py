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
r(x, y) as the kernel's bilinear form S(x) + S(y) - 2 X(x, y) turns a read
into g(x, y) = h(x) + h(y) + X(x, y) - c_mu, with h = (j - S)/2 a potential
of the same shape as j: O(1) arithmetic on Gamma at up to four pairs of
endpoints.

Building a Green system, which every e(G, D) pays for, runs on arrays
indexed by vertex in the fast rational type of `mg.linalg`: the measure's
atoms and densities, both potentials and the certificate.  A value becomes
a plain Fraction once, where a caller or a read can reach it: the measure,
c, j_D and the j that reads use.  Reads compute on plain Fractions.
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


class _Potential:
    """A function of the shape of x -> integral r(x, z) dnu(z): at offset t
    on an edge e of length l, the chord of its values at e's ends, plus
    t(l - t) times its coefficient curv_e, less w min(s, t)(l - max(s, t))/l
    for each tent (s, w) inside e.

    For x inside e, r(x, z) is the chord of r(., z) between e's ends plus
    t(l - t) rho_e, less 2 min(s, t)(l - max(s, t))/l when z too lies inside
    e, at offset s (`mg.resistance`): so j, r(D, .) and h = (j - S)/2 all
    have this shape.  `read` gives a point's spread weights and the value
    there, from the row of its edge (ends, length, value at u, slope, curv)
    built on the first read inside that edge.  A potential reads in the
    type of its values: `_potential` builds them in the fast rational type
    of `mg.linalg` for the certificate, and `as_plain` copies them to the
    plain Fractions of a potential a caller's read reaches.  Every row is
    exact, so threads racing to fill a row store equal rows.
    """

    def __init__(self, kernel: ResistanceKernel, at_vertex, curv, inside):
        self.kernel = kernel
        self.at_vertex = at_vertex  # [value at the vertex of index i]
        self.curv = curv  # {edge id: coefficient of t(l - t)}
        self.inside = inside  # {edge id: [(offset, weight) of a tent]}
        self._rows: dict = {}

    def read(self, x: GraphPoint) -> tuple[tuple, Fraction]:
        """x's spread weights, as from `ResistanceKernel.spread`, and the
        potential at x, for x in the normal form of `check_point`."""
        if x.is_vertex:
            i = self.kernel.index[x.vertex]
            return (i, i, 0), self.at_vertex[i]
        row = self._rows.get(x.edge)
        if row is None:
            e = self.kernel.edge_by_id[x.edge]
            i, j, l = self.kernel.index[e.u], self.kernel.index[e.v], e.length
            pu, pv = self.at_vertex[i], self.at_vertex[j]
            row = self._rows[x.edge] = (i, j, l, pu, (pv - pu) / l, self.curv[x.edge])
        i, j, l, value, slope, curv = row
        t = x.offset
        value += t * (slope + (l - t) * curv)
        for s, w in self.inside.get(x.edge, ()):
            value -= w * min(s, t) * (l - max(s, t)) / l
        return (i, j, t / l), value

    def as_plain(self) -> _Potential:
        """The same potential with plain Fraction values, rows unbuilt."""
        return _Potential(
            self.kernel,
            [plain(x) for x in self.at_vertex],
            {e: plain(x) for e, x in self.curv.items()},
            {e: [(s, plain(w)) for s, w in tents] for e, tents in self.inside.items()},
        )


def _potential(
    graph: MetrizedGraph, kernel: ResistanceKernel, atoms: dict, densities: dict
) -> tuple[_Potential, Fraction]:
    """integral r(., z) dnu(z) for nu made of atoms and a constant density
    per edge, and nu's total mass, in the fast rational type of `mg.linalg`.

    The masses, the constant k, the vertex values and the t(l - t)
    coefficients are computed on arrays indexed by vertex: an atom keyed
    by a vertex id goes to its index with no GraphPoint, and Gamma's
    diagonal is read once.  Plain Fractions in `atoms` and `densities`
    serve as operands as they are.
    """
    index = kernel.index
    inside: dict = {}
    # at a vertex w the potential is sum_v m_v r(w, v) + k: each atom
    # spreads over the ends of its edge as r(., p) does, and a density
    # puts half = rho*l/2 on both ends and adds rho*rho_e*l^3/6 =
    # half*rho_e*l^2/3 (its t(l - t) rho_e term)
    masses = [fast(0)] * len(index)
    k = cubic = fast(0)
    for site, a in atoms.items():
        i = None if isinstance(site, GraphPoint) else index.get(site)
        if i is None:
            p = graph.check_point(site)
            if not p.is_vertex:
                (i, j, w), const = kernel.spread(p)
                a = fast(a)
                inside.setdefault(p.edge, []).append((p.offset, 2 * a))
                masses[i] += a - a * w
                masses[j] += a * w
                k += a * const
                continue
            i = index[p.vertex]
        if a:
            masses[i] += a
    for e in graph.edges:
        rho = densities.get(e.id)
        if rho:
            l = fast(e.length)
            half = rho * l / 2
            masses[index[e.u]] += half
            masses[index[e.v]] += half
            cubic += half * kernel.density[e.id] * l * l
    k += cubic / 3
    # r(w, v) = G_ww + G_vv - 2 G_wv with G the kernel's Gamma, so the
    # sum is G_ww nu(G) + sum_v m_v G_vv - 2 (G m)_w: one solve (the
    # masses sum to nu(G))
    diagonal = [kernel.entry(i, i) for i in range(len(masses))]
    mass = spread = fast(0)
    for m, gamma in zip(masses, diagonal):
        if m:
            mass += m
            spread += m * gamma
    k += spread
    at_vertex = [
        k + gamma * mass - 2 * fast(x) for gamma, x in zip(diagonal, kernel.apply(masses))
    ]
    # on an edge e the potential is linear between break points plus
    # t(l - t) times nu(G) rho_e less nu's own density there
    curv = {
        e.id: mass * kernel.density[e.id] - densities.get(e.id, 0) for e in graph.edges
    }
    return _Potential(kernel, at_vertex, curv, inside), mass


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
    fast rational type of `mg.linalg`; c, j_D and the j kept for reads are
    converted to plain Fractions once, at the end.

    g(x, y) = h(x) + h(y) + X(x, y) - c, with h = (j - S)/2 and S, X the
    kernel's bilinear form for r (`mg.resistance`): Gamma at up to four
    pairs of endpoints, plus a potential read per point.  The first read
    builds h (`_read_tables`), so building a system, and so `e_invariant`
    and `fiber_report`, pays nothing for it.  X may solve a column of the
    kernel and cache it there.  Every cache is filled with exact values
    computed from the same state, so threads racing to fill one store equal
    values, and concurrent reads stay safe.
    """

    def __init__(self, graph: MetrizedGraph, divisor: RDivisor):
        self.graph = graph
        self.measure = admissible_measure(graph, divisor)
        self.divisor = divisor.relocate(graph.check_point)
        self.degree = self.divisor.degree()
        kernel = resistance_kernel(graph)
        mu = self.measure
        j, mass = _potential(graph, kernel, mu.atoms, mu.densities)
        if mass != 1:
            raise ConstancyViolation(f"measure has total mass {mass}, not 1")
        r_d, _ = _potential(graph, kernel, dict(self.divisor.items()), {})
        scale = fast(self.degree) + 2
        twice_c = self._certify(scale, j, r_d)
        j_d = fast(0)
        for p, a in self.divisor.items():
            j_d += a * j.read(p)[1]
        self._j = j.as_plain()
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
        any failure raises ConstancyViolation.  The comparisons run on 2F =
        scale j - r_D and 2 gamma_e, in the fast type of `mg.linalg`: at the
        vertices on the two potentials' vertex arrays, then at the interior
        break points edge by edge.  GraphPoints are built only for those
        points and for a failure's message, which states F.
        """
        vertices = self.graph.vertex_list
        twice = [scale * a - b for a, b in zip(j.at_vertex, r_d.at_vertex)]
        value = twice[0]

        def differs(f, y: GraphPoint) -> ConstancyViolation:
            return ConstancyViolation(
                f"g(D,y) + g(y,y) is not constant: (deg D/2 + 1) j - r_D/2 "
                f"is {value / 2} at {GraphPoint.at_vertex(vertices[0])!r} "
                f"but {f / 2} at {y!r}"
            )

        for v, f in zip(vertices, twice):
            if f != value:
                raise differs(f, GraphPoint.at_vertex(v))
        for e in self.graph.edges:
            inside = [*j.inside.get(e.id, ()), *r_d.inside.get(e.id, ())]
            for t in sorted({t for t, _ in inside}):
                y = GraphPoint.on_edge(e.id, t)
                f = scale * j.read(y)[1] - r_d.read(y)[1]
                if f != value:
                    raise differs(f, y)

        for e in self.graph.edges:
            gamma = scale * j.curv[e.id] - r_d.curv[e.id]
            if gamma:
                raise ConstancyViolation(
                    f"g(D,y) + g(y,y) has t(l - t) coefficient {gamma / 2} "
                    f"on edge {e.id!r}"
                )
        return value

    # -- evaluation ----------------------------------------------------

    def _read_tables(self) -> _Potential:
        """h = (j - S)/2, S being r(., ground vertex): Gamma_vv at a vertex
        v, and on an edge the chord of Gamma at its ends plus t(l - t)
        rho_e, with no tents.  So h is (j_v - Gamma_vv)/2 at the vertices,
        has coefficient (curv_j,e - rho_e)/2 on each edge and half of j's
        tents."""
        j = self._j
        kernel = j.kernel
        at_vertex = [(jv - kernel.entry(i, i)) / 2 for i, jv in enumerate(j.at_vertex)]
        curv = {e: (k - kernel.density[e]) / 2 for e, k in j.curv.items()}
        inside = {e: [(s, w / 2) for s, w in tents] for e, tents in j.inside.items()}
        return _Potential(kernel, at_vertex, curv, inside)

    def eval(self, x, y) -> Fraction:
        """g(x, y) for points of the graph."""
        x, y = self.graph.check_point(x), self.graph.check_point(y)
        h = self._h
        if h is None:
            h = self._h = self._read_tables()
        sx, hx = h.read(x)
        sy, hy = h.read(y)
        g = hx + hy + h.kernel.cross(sx, sy) - self.c
        if not x.is_vertex and not y.is_vertex and x.edge == y.edge:
            # r(x, y) = d - rho_e d^2 falls short of S(x) + S(y) - 2X by
            # 2 s(l - t)/l at offsets s <= t (the tent of `_Potential`)
            s, t = sorted((x.offset, y.offset))
            l = self.graph.edge_by_id[x.edge].length
            g += s * (l - t) / l
        return g

    # -- derived quantities ---------------------------------------------

    def green_of_divisor(self, y) -> Fraction:
        """g(D, y) = sum of a_i g(P_i, y) = 2c - j(y): one potential read."""
        return 2 * self.c - self._j.read(self.graph.check_point(y))[1]

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
