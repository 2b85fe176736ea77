"""Exact effective resistance on metrized graphs.

Each edge is a resistor whose resistance equals its length.  Gamma is the
inverse of the grounded vertex Laplacian (conductance 1/length per edge,
loops contributing nothing; Gamma = 0 at the ground v_0, the vertex with
the most distinct neighbours other than itself, the first in `vertex_list`
on a tie), and every resistance is closed-form arithmetic on it:

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
its tents and the factor of rho_e in its coefficients.  Between two tents
a potential is a quadratic in t, and a potential forms an edge's row, the
quadratic's integer coefficients over one denominator for each stretch
between the edge's tents, sorted by offset, on its first read inside that
edge, so a read costs one `bisect` and O(1) integer arithmetic however
many tents the edge has.  `_potential` gives what the potential of
a set of atoms is made of, its spread over the vertices m, to be solved as
Gamma·m (`ResistanceKernel.solve`), and a constant, and `mg.green` does
its arithmetic on those.

The kernel keeps the canonical measure the same way, once per graph: 2
mu_can, of atom 2 - valence(v) at a vertex v and density 2 rho_e on each
edge, spreads `canonical` = 2 m_can onto the vertices, 2 - valence(v) +
the sum of rho_e l over the ends at v of its edges, that is 2 - the sum of
r_e/l, formed in the loop that forms rho_e l.  Each of these sums is
formed on integer parts, over the lcm of its terms' denominators
(`linalg.lcm_sum`), and reduced once (`linalg.ratio`): r_e/l from S at
e's ends and Gamma between them, and 2 m_can at each vertex from its
r_e/l; rho_e l = 1 - r_e/l then needs no gcd.  Its mass `canonical_mass`,
one such sum over the vertices, is 2 by Foster's identity (the r_e/l sum
to the number of vertices less 1), and its constant `canonical_constant`
is k_can = integral S d(2 mu_can), one sum over the edges and the
vertices reduced once.  Both are summed from the vector on first read.
The potential of 2 mu_can is the constant k_can, so Gamma·2 m_can is S:
L·S = 2 m_can at every vertex but the ground, L being the Laplacian.  A
Green system (`mg.green`) forms mu's spread, solved vector and constant,
times deg D + 2, from D's and these, with one solve, checks the mass and
certifies the identity on every build by one exact residual,
`ResistanceKernel.residual`: L·x - m at each vertex,
from the table's conductances and the terms of m, which may be given as
several vectors, in one O(E) pass that reads nothing of the
factorization.  Each vertex's L·x - m is one sum on integer parts over
the lcm of its terms' denominators, and the check is that its numerator
is 0: nothing is reduced and no reduced values are compared, but at a
vertex that fails, whose two sides are reduced to name them.  A read
that builds no Green system, a resistance, certifies the kernel itself,
once (`ResistanceKernel.certify`): the mass, and L·S = 2 m_can off the
ground, by the same `residual`; a Green build that passes marks the
kernel certified.  A measure is a Green system's
(`mg.green.admissible_measure`), so it is certified by its own build.

Every read is `ResistanceKernel.read` on a potential f, f(x) + f(y) + k
X(x, y) + const, the one place that knows the tent: a resistance is `read`
on S with k = -2 and const = 0, and a Green value (`mg.green`) is `read` on
h = (j - S)/2 with k = 1 and const = -c.  It runs on integer parts: each
point's weight t/l as the pair (t_n l_d, t_d l_n) and its value from the
row, Gamma's entries as their numerators and denominators, X's three
lerps and the final sum each over the lcm of its terms' denominators,
never their product, and one gcd, which builds the plain Fraction it
returns without Fraction's normalising constructor.  A read so costs one
reduction where Fraction operators took about 24, each with its own gcds
(`scripts/read_cost.py`, on a shared 2-core x86-64 host, Python 3.11):
on the seed-1 point-queries pool, 3.4 to 7.8 us in steady state where the
operators took 4.0 to 20.5, and on K12 with 40-digit lengths, whose
operands run to 17 000 bits, 0.35 to 1.3 ms where it took 1.4 to 3.8 and
where products in place of the lcms took 4.2 to 10.  The reads of one
graph have few distinct denominators, so the kernel keeps the first 64 it
returns, and a read whose reduced denominator is one of them returns the
kept int: values kept from one graph share them, 9.8 KB per 100
point-queries values against 11.8 unshared.

Each length is converted once, into the kernel's edge table
`ResistanceKernel.edges`: {edge id: (i, j, l, 1/l, rho_e l)}, in the
graph's edge order, i and j the indices of the ends and the rest
Fractions.  rho_e itself is formed from rho_e l and 1/l where it is read:
by a potential's row, and for every edge by `density`, on its first read.
Only this module reads the table's rows: the kernel's build, its canonical
constant, `density`, the residual's pass and every potential's rows.
Gamma is never formed densely.  The kernel factors the Laplacian once,
from the table's conductances (`mg.linalg`), and the factorization keeps
its selected inverse, which holds Gamma exactly on the diagonal, on every
pair of adjacent vertices and on the fill: so every r_e and density, and S,
whose value at a vertex v is Gamma_vv, and 2 m_can, in O(nnz(L)) on a
graph that factors with no fill.  A potential of a measure needs only that
diagonal, the table and one solve, Gamma·m.  Gamma at any other pair, as X
between arbitrary points may ask for, is read from the same factorization,
which computes an entry its selected inverse lacks by Takahashi's
recurrence along one elimination-tree path, with no solve, and keeps it
and every entry computed on the way
(`linalg.Factorization.inverse_entry`).  A read is otherwise O(1)
arithmetic.  The kernel is built on first use and kept on the (immutable)
graph, which it validates once.  Every value it keeps or returns is a
plain Fraction built from its parts (`mg.linalg`): the factorization's
entries and solutions, the table, every potential's vertex values, S
included, the densities, `entry` and every resistance; a potential's rows
and a read compute on integers."""

from __future__ import annotations

from bisect import bisect_right
from fractions import Fraction
from functools import cached_property
from math import gcd, lcm

from . import linalg
from .errors import ConstancyViolation, EdgeNotFound
from .graphs import GraphPoint, MetrizedGraph
from .linalg import parts

_ONE = linalg.ratio(1, 1)  # rho_e l of every loop
_ZERO = linalg.ratio(0, 1)  # a read's default constant, and an empty spread
_new = object.__new__
_KEPT = 64  # the denominators a kernel's reads keep to share


def _lerp(pn: int, pd: int, qn: int, qd: int, wn: int, wd: int) -> tuple:
    """(1 - w) p + w q on integer parts, for p = pn/pd, q = qn/qd and w =
    wn/wd, each denominator > 0: over lcm(pd, qd) wd, not reduced."""
    d = lcm(pd, qd)
    return (wd - wn) * pn * (d // pd) + wn * qn * (d // qd), d * wd


class _Potential:
    """A function of the shape of x -> integral r(x, z) dnu(z): at offset t
    on an edge e of length l, the chord of its values at e's ends, plus
    t(l - t) times its coefficient factor·rho_e, less w min(s, t)(l -
    max(s, t))/l for each tent (s, w) inside e.

    For x inside e, r(x, z) is the chord of r(., z) between e's ends plus
    t(l - t) rho_e, less 2 min(s, t)(l - max(s, t))/l when z too lies inside
    e, at offset s: so S, the potential of any measure (`_potential`) and
    any linear combination of them, such as h in `mg.green`, have
    this shape.  Its maker gives the vertex values, the tents and the
    factor: 1 for S, -1/(deg D + 2) for h.

    Between two tents the value is a quadratic in t, and an edge's row
    keeps it on integer parts: (i, j, l's numerator and denominator,
    offsets, segments), the tents' offsets sorted and, for k tents at s <=
    t, segment k, (p0, p1, p2, d), the value (p0 + p1 t + p2 t^2)/d over
    one denominator.  With u's value f_u, the chord's slope m and the
    coefficient q = factor·rho_e, p2/d is -q and, B_k being the sum of w s
    over the first k tents and A_k that of w (l - s) over the others, p0/d
    is f_u - B_k and p1/d is m + q l + (B_k - A_k)/l: a tent at s <= t adds
    w s (l - t)/l and one at s > t adds w t (l - s)/l.  The row is formed
    on the first read inside its edge, from the kernel's edge table, on
    integer parts: q by `linalg.product`, and every sum, the tents'
    included, over the lcm of its terms' denominators, not reduced.

    `_point` reads the row at a point: its spread weight t/l as the integer
    pair (t_n l_d, t_d l_n), and its value as p0 t_d^2 + p1 t_n t_d + p2
    t_n^2 over d t_d^2, with t = t_n/t_d, neither reduced: one `bisect` and
    a few integer products, however many tents the edge has, and no gcd.
    `ResistanceKernel.read` combines two such points into one value, and
    `read` reduces each part, by one gcd each.  The
    potential holds the kernel's vertex index and edge table but not the
    kernel, which holds S, so that no cycle keeps a kernel alive.  Every row
    is exact, so threads racing to fill a row store equal rows.
    """

    def __init__(self, index: dict, edges: dict, at_vertex, inside, factor=1):
        self.index = index
        self.edges = edges  # the kernel's edge table
        self.at_vertex = at_vertex  # [value at the vertex of index i]
        self.inside = inside  # {edge id: [(offset, weight) of a tent]}
        self.factor = factor  # the coefficient of t(l - t) over rho_e
        self._rows: dict = {}

    def read(self, x: GraphPoint) -> tuple[tuple, Fraction]:
        """x's spread weights (i, j, a), weight 1 - a on the vertex of index
        i and a on that of index j, and the potential at x, for x in the
        normal form of `check_point`.  A vertex of index i has weights (i,
        i, 0)."""
        if x.is_vertex:
            i = self.index[x.vertex]
            return (i, i, 0), self.at_vertex[i]
        i, j, an, ad, vn, vd = self._point(x)
        return (i, j, linalg.ratio(an, ad)), linalg.ratio(vn, vd)

    def _point(self, x: GraphPoint) -> tuple:
        """x's spread and the potential there on integer parts, (i, j, an,
        ad, vn, vd): weight an/ad on the vertex of index j, the rest on i,
        and the value vn/vd, neither reduced, ad and vd > 0."""
        if x.is_vertex:
            i = self.index[x.vertex]
            return (i, i, 0, 1, *parts(self.at_vertex[i]))
        row = self._rows.get(x.edge)
        if row is None:
            row = self._rows[x.edge] = self._row(x.edge)
        i, j, ln, ld, offsets, segments = row
        t = x.offset
        tn, td = parts(t)
        p0, p1, p2, d = segments[bisect_right(offsets, t)]
        return i, j, tn * ld, td * ln, (p0 * td + p1 * tn) * td + p2 * tn * tn, d * td * td

    def _row(self, edge) -> tuple:
        """The row of an edge, (i, j, l_n, l_d, offsets, segments), as the
        class docstring states it."""
        i, j, l, c, rho_l = self.edges[edge]
        q = linalg.product(rho_l._numerator, rho_l._denominator, c._numerator, c._denominator)
        if self.factor != 1:
            q = linalg.product(q._numerator, q._denominator, *parts(self.factor))
        (un, ud), (vn, vd) = parts(self.at_vertex[i]), parts(self.at_vertex[j])
        ln, ld, qn, qd = l._numerator, l._denominator, q._numerator, q._denominator
        # the slope (f_v - f_u)/l is sn/sd, sd = lcm(ud, vd) l_n, and d, the
        # lcm of sd and l_d qd, the denominator of l q, is a multiple of ud
        # and of qd: one gcd gives its cofactors ms = d/sd and mq = d/(l_d qd)
        b = lcm(ud, vd)
        sn, sd = (vn * (b // vd) - un * (b // ud)) * ld, b * ln
        g = gcd(sd, ld * qd)
        ms, mq = ld * qd // g, sd // g
        d = sd * ms
        p0, p1, p2 = un * (b // ud) * ln * ms, sn * ms + ln * qn * mq, -qn * ld * mq
        listed = sorted(self.inside.get(edge, ()))
        if not listed:
            return i, j, ln, ld, [], [(p0, p1, p2, d)]
        # before[k]: the sum of w s over the first k tents; after[k]: that
        # of w (l - s) over the others; each on integer parts
        before, after = [(0, 1)], [(0, 1)]
        for s, w in listed:
            (sn, sd), (wn, wd) = parts(s), parts(w)
            before.append(linalg.lcm_sum(((wn * sn, wd * sd),), *before[-1]))
        for s, w in reversed(listed):
            (sn, sd), (wn, wd) = parts(s), parts(w)
            after.append(linalg.lcm_sum(((wn * (ln * sd - sn * ld), wd * ld * sd),), *after[-1]))
        segments = []
        for (bn, bd), (an, ad) in zip(before, reversed(after)):
            # (B_k - A_k)/l, l = ln/ld
            en, ed = linalg.lcm_sum(((-an, ad),), bn, bd)
            en, ed = en * ld, ed * ln
            dk = lcm(d, bd, ed)
            m = dk // d
            segments.append((p0 * m - bn * (dk // bd), p1 * m + en * (dk // ed), p2 * m, dk))
        return i, j, ln, ld, [s for s, _ in listed], segments


class ResistanceKernel:
    """Gamma of a connected graph, with its edge table `edges` and
    S = r(., v_0) as the potential `ground`, whose coefficients are the
    densities (the module docstring gives both layouts).  `density` is
    rho_e as a plain Fraction, formed on first use.  `canonical` is
    2 mu_can spread over the vertices, 2 m_can, with `canonical_mass` and
    `canonical_constant` summed from it on first read.  `residual` is the
    check of L·x against a right side, from the table, that certifies a
    solved vector, `laplacian` is L·x itself, and `certify` checks the
    kernel by the residual, once, unless a Green build has.

    Gamma is the inverse of the Laplacian grounded at v_0, the vertex with
    the most distinct neighbours other than itself, the first in
    `vertex_list` on a tie: as the factorization eliminates every vertex but
    the ground, grounding the busiest one takes the most entries out of the
    elimination, which on the benchmark's graphs lowers its work W
    (`scripts/exact_ops.py`).  `vertices` lists the vertices by index: the
    ground at index 0, then the others in `vertex_list` order; `index` maps
    them back, and every per-vertex list of the kernel and of `mg.green` is
    in that order.  Gamma = 0 in the ground's row and column.  The kernel
    gives the factorization (`mg.linalg`) each edge's (i, j, 1/l) from its
    table, and the factorization grounds index 0: it sums the Laplacian,
    answers 0 in the ground's row and column, and holds Gamma's other
    entries: its selected inverse, on the diagonal and
    every pair of adjacent vertices, plus the fill, and every entry read off
    that pattern so far.  `read` and `entry` read Gamma from it directly,
    and `solve` solves against it.  Every point read is `read` on a
    potential, on integer parts reduced once, as the module docstring
    states, and `read` alone adds the tent of two points inside one edge;
    it keeps up to 64 of the denominators it returns, to share them.  The
    kernel holds its table but not the graph, which holds the kernel, so
    both, and every entry kept, are freed together as soon as the graph
    is.
    """

    def __init__(self, g: MetrizedGraph):
        g.validate()
        # the ground, index 0, is the vertex with the most distinct
        # neighbours other than itself (parallel edges count once, a loop
        # not at all), the first in `vertex_list` on a tie; the others keep
        # their order.  Each set holds its vertex, so a loop adds nothing
        near = {v: {v} for v in g.vertex_list}
        for e in g.edges:
            near[e.u].add(e.v)
            near[e.v].add(e.u)
        ground = max(near, key=lambda v: len(near[v]))
        vertices = self.vertices = [ground, *(v for v in g.vertex_list if v != ground)]
        index = self.index = {v: i for i, v in enumerate(vertices)}
        edges = self.edges = {}
        for e in g.edges:
            i, j, l = index[e.u], index[e.v], e.length
            edges[e.id] = (i, j, l, linalg.reciprocal(l))
        factors = self._factors = linalg.Factorization(
            len(index), [(i, j, c) for i, j, _, c in edges.values()]
        )
        # S = r(., ground) is Gamma_vv at a vertex v, on the selected
        # inverse's diagonal
        diagonal = [factors.inverse_entry(i, i) for i in range(len(index))]
        # r_e = Gamma_uu + Gamma_vv - 2 Gamma_uv, with Gamma_uv on the
        # pattern, and rho_e l = (l - r_e)/l = 1 - r_e/l: so rho_e l = 1 for
        # a loop, whose r_e is 0.  r_e/l is formed on integer parts over
        # one lcm, and 1 - r_e/l reduced once, so that -r_e/l = rho_e l - 1
        # is in lowest terms with no second gcd.  2 mu_can spreads 2 -
        # valence(v) + sum over e's ends at v of rho_e l onto v, that is 2 -
        # sum of r_e/l, to which a loop adds nothing: each vertex's terms
        # -r_e/l are kept and summed with 2 over one lcm, reduced once
        terms: list[list] = [[] for _ in vertices]
        for e, (i, j, l, c) in edges.items():
            rho_l = _ONE
            if i != j:
                gn, gd = parts(factors.inverse_entry(i, j))
                n, d = linalg.lcm_sum((parts(diagonal[i]), parts(diagonal[j])), -2 * gn, gd)
                n, d = n * c._numerator, d * c._denominator
                rho_l = linalg.ratio(d - n, d)
                t = (rho_l._numerator - rho_l._denominator, rho_l._denominator)
                terms[i].append(t)
                terms[j].append(t)
            edges[e] = (i, j, l, c, rho_l)
        self.canonical = [linalg.ratio(*linalg.lcm_sum(t, 2)) for t in terms]
        self.ground = _Potential(index, edges, diagonal, {})
        self.certified = False
        self._denominators: dict = {}

    @cached_property
    def canonical_mass(self):
        """The mass of 2 mu_can, summed from `canonical` on integer parts,
        over the lcm of its denominators, and reduced once: 2 by Foster's
        identity, as the r_e/l sum to the number of vertices less 1."""
        return linalg.ratio(*linalg.lcm_sum(map(parts, self.canonical)))

    @cached_property
    def canonical_constant(self):
        """k_can = integral S d(2 mu_can): `canonical` against S at the
        vertices, plus (rho_e l)^2 l/3 from the t(l - t) rho_e term of S on
        each edge, where 2 mu_can has the density 2 rho_e.  Every term is
        formed on integer parts, unreduced, and the sum over the lcm of
        their denominators is reduced once.

        As integral r(x, .) d(2 mu_can) is k_can at every x, k_can is also
        4 tau(G), tau(G) being a quarter of the integral of S'^2
        (Baker-Rumely, Canad. J. Math. 59, 2007): tau is k_can/4, with no
        edge formula of its own."""
        terms = [
            (r._numerator ** 2 * l._numerator, 3 * r._denominator ** 2 * l._denominator)
            for _, _, l, _, r in self.edges.values() if r._numerator
        ]
        for (mn, md), (sn, sd) in zip(map(parts, self.canonical), map(parts, self.ground.at_vertex)):
            if mn and sn:
                terms.append((mn * sn, md * sd))
        return linalg.ratio(*linalg.lcm_sum(terms))

    @cached_property
    def density(self) -> dict:
        """{edge id: canonical density rho_e}, formed from the table's
        rho_e l and 1/l on first read."""
        return {
            e: linalg.product(rho_l._numerator, rho_l._denominator, c._numerator, c._denominator)
            for e, (_, _, _, c, rho_l) in self.edges.items()
        }

    def certify(self) -> None:
        """Check, once per kernel, the identities every read of it rests on:
        Foster's identity, that 2 mu_can has mass 2, and Gamma·2 m_can = S,
        by the residual L·S == 2 m_can (`residual`) exactly at every vertex
        but the ground, whose value the mass fixes.  A Green system whose
        own residual passes has checked both, given its solve, and marks the
        kernel `certified`, so this runs only for reads that build none:
        `effective_resistance` and `resistance_in_deleted_edge`; a measure
        (`mg.green.admissible_measure`) is a Green system's, and its build
        checks it.  A failure raises ConstancyViolation, naming the vertex
        and both sides, and the next read checks again."""
        if self.certified:
            return
        mass = self.canonical_mass
        if mass != 2:
            raise ConstancyViolation(f"2 mu_can has total mass {mass}, not 2")
        bad = self.residual(self.ground.at_vertex, self.canonical)
        if bad:
            v, a, b = bad
            raise ConstancyViolation(
                f"Gamma 2 m_can is not S: L S is {a} "
                f"but 2 m_can is {b} at {GraphPoint.at_vertex(v)!r}"
            )
        self.certified = True

    def solve(self, m: list) -> list:
        """Gamma·m: m[0] is not read."""
        return self._factors.solve(m)

    def laplacian(self, x: list) -> list:
        """L·x over all vertices, L the graph's Laplacian: at v, the sum of
        (x_v - x_u)/l over the edges at v, u being an edge's other end, a
        loop adding nothing.  Each vertex's sum is `_excess`'s, reduced
        once."""
        return [linalg.ratio(n, d) for n, d in self._excess(x, ())]

    def _excess(self, x: list, ms) -> list:
        """(L·x - the sum of the vectors of `ms`) at every vertex, as
        integer parts (n, d), d > 0, not reduced: one O(E) pass over the
        edge table's conductances, which reads nothing of the
        factorization.  Each edge's term (x_v - x_u)/l and each nonzero
        entry of the vectors is formed on integer parts, and each vertex's
        terms are summed over the lcm of their denominators
        (`linalg.lcm_sum`)."""
        terms: list[list] = [[] for _ in x]
        for m in ms:
            for t, (n, d) in zip(terms, map(parts, m)):
                if n:
                    t.append((-n, d))
        for i, j, _, c, _ in self.edges.values():
            if i != j:
                # x_i - x_j over lcm(ad, bd), times c = 1/l
                (an, ad), (bn, bd) = parts(x[i]), parts(x[j])
                g = gcd(ad, bd)
                q = bd // g
                n = (an * q - bn * (ad // g)) * c._numerator
                d = ad * q * c._denominator
                terms[i].append((n, d))
                terms[j].append((-n, d))
        return [linalg.lcm_sum(t) for t in terms]

    def residual(self, x: list, *ms: list):
        """The first vertex but the ground, in `vertices` order, at which
        L·x and m, the sum of the vectors `ms`, differ, as (vertex,
        (L·x)_v, m_v), or None if they agree at every one: for an x that is
        0 at the ground, as Gamma·m is, the exact check that x is Gamma·m.
        Each vertex's L·x - m is one unreduced sum (`_excess`, one pass),
        tested for zero on its numerator: nothing is reduced and no
        reduced values are compared, but at a vertex that fails, whose two
        sides are then reduced to name them."""
        excess = self._excess(x, ms)
        for i in range(1, len(excess)):
            n, d = excess[i]
            if n:
                m = sum(v[i] for v in ms)
                return self.vertices[i], linalg.ratio(n, d) + m, m
        return None

    def entry(self, i: int, j: int) -> Fraction:
        """Gamma_ij."""
        return self._factors.inverse_entry(i, j)

    def read(
        self, f: _Potential, x: GraphPoint, y: GraphPoint, k: int, const=_ZERO
    ) -> Fraction:
        """f(x) + f(y) + k X(x, y) + const, a plain Fraction, for a
        potential f, points in the normal form of `check_point`, an int k
        and a Fraction const: -2 and 0 for r on S, 1 and -c
        for g on h.

        X = sum a_i b_j Gamma_ij over the spread weights of x and y
        (`_Potential._point`), Gamma at up to four pairs of their ends, plus
        the tent s(l - t)/l when both lie inside one edge at offsets s <=
        t: s times 1 less the larger weight.  Then r(x, y) = S(x) + S(y) -
        2X for every pair, two points of one edge or loop included.  All of
        it runs on integer parts: X's three lerps (1 - b) p + b q and the
        final sum put their terms over the lcm of the denominators, never
        their product, and one gcd reduces the result, which is built
        without Fraction's normalising constructor.  A denominator equal to
        one the kernel keeps is returned as the kept int, so that values
        kept from one graph share it, and the first 64 distinct ones are
        kept: threads racing here may keep a few more, or equal ints twice,
        and either is harmless."""
        i, j, an, ad, xn, xd = f._point(x)
        u, v, bn, bd, yn, yd = f._point(y)
        gamma = self._factors.inverse_entry
        zn, zd = parts(gamma(i, u))
        if bn:
            zn, zd = _lerp(zn, zd, *parts(gamma(i, v)), bn, bd)
        if an:
            wn, wd = parts(gamma(j, u))
            if bn:
                wn, wd = _lerp(wn, wd, *parts(gamma(j, v)), bn, bd)
            zn, zd = _lerp(zn, zd, wn, wd, an, ad)
            if bn and x.edge == y.edge:  # one l, so a <= b iff s <= t
                s, cn, cd = (x.offset, bn, bd) if an * bd <= bn * ad else (y.offset, an, ad)
                sn, sd = parts(s)
                tn, td = sn * (cd - cn), sd * cd
                d = lcm(zd, td)
                zn, zd = zn * (d // zd) + tn * (d // td), d
        cn, cd = const._numerator, const._denominator
        d = lcm(xd, yd, zd, cd)
        n = xn * (d // xd) + yn * (d // yd) + k * zn * (d // zd) + cn * (d // cd)
        g = gcd(n, d)
        if g > 1:
            n //= g
            d //= g
        kept = self._denominators
        shared = kept.get(d)
        if shared is not None:
            d = shared
        elif len(kept) < _KEPT:
            kept[d] = d
        r = _new(Fraction)
        r._numerator = n
        r._denominator = d
        return r

    def resistance(self, p: GraphPoint, q: GraphPoint) -> Fraction:
        """r(p, q) = S(p) + S(q) - 2X(p, q) for points in the normal form
        of `check_point`."""
        return self.read(self.ground, p, q, -2)


def _potential(kernel: ResistanceKernel, atoms: dict) -> tuple:
    """The atoms nu spread over the vertices as m, with the constant k =
    integral S dnu and nu's atoms inside edges: k, and each entry of m that
    an atom inside an edge reaches, one sum on integer parts over the lcm
    of its terms' denominators, reduced once; an atom at a vertex that none
    reaches is its entry as it is.

    With x = Gamma·m (`ResistanceKernel.solve`; `mg.green` solves for D
    alone, as the kernel's 2 m_can has Gamma·2 m_can = S) they determine
    the potential f = integral r(., z) dnu(z): f(w) = k + nu(G) S(w) -
    2 x_w at a vertex w, and on an edge e, the chord of those values plus
    t(l - t) nu(G) rho_e, less a tent 2a min(s, t)(l - max(s, t))/l for
    each atom a of nu inside e at offset s, listed as (s, a) under e.  An
    atom is keyed by a vertex id, or by an interior GraphPoint in the normal
    form of `check_point`: one at a vertex puts its mass there, with no
    GraphPoint, and one inside an edge spreads as S does (`_Potential._point`).
    """
    index, ground = kernel.index, kernel.ground
    # as r(w, z) = S(w) + S(z) - 2 X(w, z), f(w) = S(w) nu(G) + integral
    # S dnu - 2 (Gamma m)_w.  An atom at a vertex is its mass there, and
    # the terms that atoms inside edges spread are summed with it
    masses = [_ZERO] * len(index)
    spread: dict = {}  # {vertex index: [terms spread from inside edges]}
    k = []
    inside: dict = {}
    for site, a in atoms.items():
        an, ad = parts(a)
        i = index.get(site)
        if i is None:
            # a (1 - w) on the vertex of index i and a w on that of j
            i, j, wn, wd, sn, sd = ground._point(site)
            spread.setdefault(i, []).append((an * (wd - wn), ad * wd))
            spread.setdefault(j, []).append((an * wn, ad * wd))
            k.append((an * sn, ad * sd))
            inside.setdefault(site.edge, []).append((site.offset, a))
        elif an:
            masses[i] = a
            sn, sd = parts(ground.at_vertex[i])
            k.append((an * sn, ad * sd))
    for i, t in spread.items():
        masses[i] = linalg.ratio(*linalg.lcm_sum(t, *parts(masses[i])))
    return masses, linalg.ratio(*linalg.lcm_sum(k)), inside


def resistance_kernel(g: MetrizedGraph) -> ResistanceKernel:
    """The kernel of g: solved on the first call, then kept on g."""
    kernel = getattr(g, "_resistance_kernel", None)
    if kernel is None:
        kernel = g._resistance_kernel = ResistanceKernel(g)
    return kernel


def effective_resistance(g: MetrizedGraph, p, q) -> Fraction:
    """Resistance between the points p and q; symmetric, 0 iff p = q.  The
    kernel is certified first (`ResistanceKernel.certify`)."""
    kernel = resistance_kernel(g)
    kernel.certify()
    return kernel.resistance(g.check_point(p), g.check_point(q))


def resistance_in_deleted_edge(g: MetrizedGraph, edge_id) -> Fraction | None:
    """Resistance between the endpoints of the edge in g minus that edge.

    Returns None when the edge is a bridge (infinite resistance) and 0 for a
    loop, whose endpoints coincide.  The edge and the rest of the graph are
    in parallel, so the canonical density (l - r_e)/l^2 of the edge is
    1/(l + R) for this resistance R.  The kernel is certified first
    (`ResistanceKernel.certify`).
    """
    e = g.edge_by_id.get(edge_id)
    if e is None:
        raise EdgeNotFound(f"edge {edge_id!r} is not in the graph")
    kernel = resistance_kernel(g)
    kernel.certify()
    rho = kernel.density[e.id]
    return 1 / rho - e.length if rho else None
