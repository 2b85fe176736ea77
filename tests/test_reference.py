"""The kernel path against the subdivide-and-solve reference (reference.py):
resistances, measures, Green values, c and e must agree exactly."""

from fractions import Fraction
from math import gcd
from random import Random

from hypothesis import given, settings
from hypothesis import strategies as st

import reference as ref
from mg import (
    GraphPoint,
    admissible_measure,
    configuration_graph,
    omega_divisor,
    MetrizedGraph,
    RDivisor,
    canonical_measure,
    constant_c,
    e_of_system,
    effective_resistance,
    green_system,
    resistance_in_deleted_edge,
)
from mg.resistance import resistance_kernel
from gen import frac, random_chain_config, random_divisor, random_graph, random_point


def probe_points(rng: Random, g) -> list:
    """A few random points, plus two inside one edge (possibly a loop)."""
    points = [random_point(rng, g) for _ in range(3)]
    if g.edges:
        e = rng.choice(g.edges)
        for k in rng.sample(range(1, 6), 2):
            points.append(GraphPoint.on_edge(e.id, e.length * Fraction(k, 6)))
    return points


def reduced(x) -> bool:
    """x is a Fraction in lowest terms with a positive denominator."""
    return type(x) is Fraction and x.denominator > 0 and gcd(x.numerator, x.denominator) == 1


def signed_divisors(rng: Random, g) -> list:
    """Two divisors with a point inside an edge of g, which has one: of
    degree below -2, where deg D + 2 is negative, and between -2 and 0."""
    e = rng.choice(g.edges)
    inside = GraphPoint.on_edge(e.id, e.length * Fraction(rng.randint(1, 3), 4))
    v = GraphPoint.at_vertex(rng.choice(g.vertex_list))
    divisors = []
    for degree in (-2 - frac(rng), -2 * Fraction(rng.randint(1, 6), 7)):
        a = frac(rng)
        divisors.append(RDivisor([(inside, a), (v, degree - a)]))
    return divisors


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), digits=st.integers(1, 40))
def test_kernel_matches_reference(seed, digits):
    """Resistances, measures, Green values, c and e of a random divisor
    equal the reference's, on graphs with lengths of 1 to 40 digits in each
    part.  Two more divisors, each with a point inside an edge, of degree
    below -2 and between -2 and 0, so that deg D + 2 takes either sign:
    c, e, g(D, D), g(D, y) and the reads equal the reference's, each a
    Fraction in lowest terms with a positive denominator."""
    rng = Random(seed)
    g = random_graph(rng, max_vertices=6, digits=digits)
    d = random_divisor(rng, g, interior=True)
    points = probe_points(rng, g)

    for p in points:
        for q in points:
            r = effective_resistance(g, p, q)
            assert r == ref.effective_resistance(g, p, q) and reduced(r)
    for e in g.edges:
        assert resistance_in_deleted_edge(g, e.id) == ref.resistance_in_deleted_edge(
            g, e.id
        )
    can, ref_can = canonical_measure(g), ref.canonical_measure(g)
    assert can.atoms == ref_can.atoms
    assert can.densities == ref_can.densities

    s, rs = green_system(g, d), ref.green_system(g, d)
    mu, ref_mu = s.measure, rs.measure
    # the reference keeps interior atoms at the vertices it cut there
    atoms = {
        rs._to_solver(site).vertex if isinstance(site, GraphPoint) else site: a
        for site, a in mu.atoms.items()
    }
    assert atoms == ref_mu.atoms
    for e in ref_mu.graph.edges:
        assert mu.densities[ref._original_edge(e.id)] == ref_mu.densities[e.id]

    for x in points:
        for y in points:
            assert s.eval(x, y) == rs.eval(x, y)
    assert constant_c(s) == ref.constant_c(rs)
    assert e_of_system(s) == ref.e_of_system(rs)

    if not g.edges:  # a point inside an edge needs one
        v, top = g.vertex_list[0], 10**digits - 1
        g = MetrizedGraph(g.vertex_list, [("loop", v, v, frac(rng, top, top))])
    for d in signed_divisors(rng, g):
        s, rs = green_system(g, d), ref.green_system(g, d)
        values = [constant_c(s), e_of_system(s), s.pairing_dd()]
        assert values == [ref.constant_c(rs), ref.e_of_system(rs), rs.pairing_dd()]
        for y in [*d.support(), *points]:
            values.append(s.green_of_divisor(y))
            assert values[-1] == rs.green_of_divisor(y)
        for x in points:
            for y in d.support():
                values.append(s.eval(x, y))
                assert values[-1] == rs.eval(x, y)
        assert all(map(reduced, values))


@settings(max_examples=20, deadline=None)
@given(seed=st.integers(0, 2**32 - 1))
def test_reads_match_reference(seed):
    """eval, effective_resistance and green_of_divisor where the read path
    takes its special cases: points on an edge and on a loop that carry
    interior divisor atoms (the atom's own point among them), x = y inside
    an edge, a vertex with a point of its own edge, and every pair of
    vertices of a graph of up to 10, most of them off the filled pattern."""
    rng = Random(seed)
    g = random_graph(rng, max_vertices=10, min_vertices=4)
    v = rng.choice(g.vertex_list)
    g = MetrizedGraph(g.vertex_list, [*g.edges, ("loop", v, v, frac(rng))])
    e = rng.choice([e for e in g.edges if not e.is_loop()])
    loop = g.edge_by_id["loop"]
    atom = GraphPoint.on_edge(e.id, e.length * Fraction(rng.randint(1, 6), 7))
    terms = [(atom, Fraction(rng.choice([-1, 1, 2])))]
    terms.append((GraphPoint.on_edge("loop", loop.length / 3), Fraction(1)))
    terms.append((GraphPoint.at_vertex(rng.choice(g.vertex_list)), Fraction(rng.randint(1, 3))))
    d = RDivisor(terms)
    if d.degree() == -2:
        d = d + RDivisor({g.vertex_list[0]: 1})

    inside = [atom, *(GraphPoint.on_edge(e.id, e.length * Fraction(k, 5)) for k in (1, 3))]
    inside += [GraphPoint.on_edge("loop", loop.length * Fraction(k, 4)) for k in (1, 2)]
    ends = [GraphPoint.at_vertex(e.u), GraphPoint.at_vertex(e.v), GraphPoint.at_vertex(loop.u)]
    vertices = [GraphPoint.at_vertex(w) for w in g.vertex_list]

    s, rs = green_system(g, d), ref.green_system(g, d)
    points = inside + ends
    pairs = [(x, y) for x in points for y in points]
    pairs += [(x, y) for x in vertices for y in vertices]
    for x, y in pairs:
        assert s.eval(x, y) == rs.eval(x, y)
        assert effective_resistance(g, x, y) == ref.effective_resistance(g, x, y)
    for y in inside + vertices:
        assert s.green_of_divisor(y) == rs.green_of_divisor(y)


@settings(max_examples=10, deadline=None)
@given(seed=st.integers(0, 2**32 - 1))
def test_many_points_on_few_edges_match_reference(seed):
    """D with six points inside each of two edges, a loop among the
    candidates, one offset shared by both edges and one point given twice,
    whose coefficients add up: e, c, g(D, y) and Green values read exactly
    at D's points and between them equal the reference's."""
    rng = Random(seed)
    g = random_graph(rng, max_vertices=4, min_vertices=2)
    v = rng.choice(g.vertex_list)
    g = MetrizedGraph(g.vertex_list, [*g.edges, ("loop", v, v, frac(rng))])
    hosts = rng.sample(g.edges, 2)
    shared = min(e.length for e in hosts) * Fraction(rng.randint(1, 11), 12)
    terms = []
    for e in hosts:
        terms.append((GraphPoint.on_edge(e.id, shared), Fraction(1)))
        for k in rng.sample(range(1, 12), 5):
            a = Fraction(rng.choice([-2, -1, 1, 2, 3]))
            terms.append((GraphPoint.on_edge(e.id, e.length * Fraction(k, 12)), a))
    terms.append(terms[1])
    d = RDivisor(terms)
    if d.degree() == -2:
        d = d + RDivisor({g.vertex_list[0]: 1})

    s, rs = green_system(g, d), ref.green_system(g, d)
    assert e_of_system(s) == ref.e_of_system(rs)
    assert constant_c(s) == ref.constant_c(rs)
    support = [p for p in d.support() if not p.is_vertex]
    between = [GraphPoint.on_edge(e.id, e.length * Fraction(k, 13)) for e in hosts for k in (1, 7)]
    for y in support + between:
        assert s.green_of_divisor(y) == rs.green_of_divisor(y)
    for x in rng.sample(support, 3):
        for y in support + between:
            assert s.eval(x, y) == rs.eval(x, y)


@settings(max_examples=20, deadline=None)
@given(seed=st.integers(0, 2**32 - 1))
def test_ground_potential_matches_reference(seed):
    """The kernel's S = r(., v_0), which every resistance read and every
    potential's build reads, equals the reference resistance to the ground
    vertex v_0 (`reference.kernel_order`) at every vertex and at one
    interior point of every edge, loops included, on graphs of the family
    of `test_reads_match_reference`."""
    rng = Random(seed)
    g = random_graph(rng, max_vertices=10, min_vertices=4)
    v = rng.choice(g.vertex_list)
    g = MetrizedGraph(g.vertex_list, [*g.edges, ("loop", v, v, frac(rng))])
    kernel = resistance_kernel(g)
    assert kernel.vertices == ref.kernel_order(g)
    ground = kernel.ground
    points = [GraphPoint.at_vertex(w) for w in g.vertex_list]
    points += [
        GraphPoint.on_edge(e.id, e.length * Fraction(rng.randint(1, 6), 7))
        for e in g.edges
    ]
    v0 = ref.kernel_order(g)[0]
    for x in points:
        assert ground.read(x)[1] == ref.effective_resistance(g, v0, x)


def vertex_spread(g: MetrizedGraph, mu) -> list:
    """mu spread over the vertices of g, in the kernel's order
    (`reference.kernel_order`): an atom
    stays at its vertex, an atom inside an edge is split between the edge's
    ends in proportion to its distance from the other end, and a density
    puts half its mass on each end."""
    m = dict.fromkeys(g.vertex_list, Fraction(0))
    for site, a in mu.atoms.items():
        if isinstance(site, GraphPoint):
            e = g.edge_by_id[site.edge]
            w = site.offset / e.length
            m[e.u] += a * (1 - w)
            m[e.v] += a * w
        else:
            m[site] += a
    for e in g.edges:
        half = mu.density(e.id) * e.length / 2
        m[e.u] += half
        m[e.v] += half
    return [m[v] for v in ref.kernel_order(g)]


@settings(max_examples=30, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), family=st.sampled_from(["graph", "fiber"]))
def test_kernel_canonical_data(seed, family):
    """The kernel's 2 m_can is twice the vertex spread of the canonical
    measure, of mass 2, and its k_can is integral S d(2 mu_can) with S the
    reference's r(., v_0), v_0 the ground, and 4 tau(G), tau(G) being a quarter of the
    integral of S'^2 (Baker-Rumely, Canad. J. Math. 59, 2007); a Green system built on them has the admissible
    measure and the reference's c, e and values.  The families are random
    graphs with a loop added, and chain fibers' graphs with their omega
    divisors: loops, bridges and parallel edges."""
    rng = Random(seed)
    if family == "graph":
        g = random_graph(rng, max_vertices=6, min_vertices=2)
        v = rng.choice(g.vertex_list)
        g = MetrizedGraph(g.vertex_list, [*g.edges, ("loop", v, v, frac(rng))])
        d = random_divisor(rng, g, interior=True)
    else:
        cfg = random_chain_config(rng)
        g, d = configuration_graph(cfg), omega_divisor(cfg)
    kernel = resistance_kernel(g)
    can = canonical_measure(g)
    spread = vertex_spread(g, can)
    assert kernel.canonical == [2 * m for m in spread]
    assert kernel.canonical_mass == 2
    # S is the chord of its vertex values plus t(l - t) rho_e on an edge,
    # and 2 mu_can has the density 2 rho_e there
    order = ref.kernel_order(g)
    s = {v: ref.effective_resistance(g, order[0], v) for v in g.vertex_list}
    k = sum((2 * m * s[v] for v, m in zip(order, spread)), Fraction(0))
    for e in g.edges:
        rho = can.density(e.id)
        k += 2 * rho * rho * e.length**3 / 6
    assert kernel.canonical_constant == k
    # as integral r(x, .) d(2 mu_can) is k_can at every x, k_can is 4 tau(G),
    # the integral of S'^2 over G: on an edge S' = (S(v) - S(u))/l +
    # (l - 2t) rho_e, whose square integrates to the terms below
    tau4 = sum(
        ((s[e.v] - s[e.u]) ** 2 / e.length + can.density(e.id) ** 2 * e.length**3 / 3
         for e in g.edges),
        Fraction(0),
    )
    assert kernel.canonical_constant == tau4

    s, rs = green_system(g, d), ref.green_system(g, d)
    assert s.measure == admissible_measure(g, d)
    assert constant_c(s) == ref.constant_c(rs)
    assert e_of_system(s) == ref.e_of_system(rs)
    for _ in range(3):
        x, y = random_point(rng, g), random_point(rng, g)
        assert s.eval(x, y) == rs.eval(x, y)
