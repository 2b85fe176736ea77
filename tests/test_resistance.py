import gc
import sys
import threading
import weakref
from fractions import Fraction
from math import gcd
from random import Random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import reference as ref

from mg import (
    ConstancyViolation,
    EdgeNotFound,
    GraphPoint,
    MetrizedGraph,
    FiberConfiguration,
    RDivisor,
    canonical_measure,
    circle_graph,
    e_invariant,
    effective_resistance,
    fiber_report,
    green_system,
    path_graph,
    resistance,
    resistance_in_deleted_edge,
    scale_lengths,
    segment_graph,
    subdivide_at,
    theta_graph,
)
from mg.fileformat import MAX_RATIONAL_DIGITS
from faults import fault_canonical, fault_inverse
from gen import cycle_chords, frac, random_divisor, random_graph, random_point


def test_segment_is_a_single_resistor():
    g = segment_graph(Fraction(7, 3))
    assert effective_resistance(g, "P", "Q") == Fraction(7, 3)


@given(
    num=st.integers(1, 30),
    den=st.integers(1, 10),
    k=st.integers(1, 9),
)
def test_circle_parallel_law(num, den, k):
    # two arcs of lengths t and l - t in parallel: r = t(l-t)/l
    l = Fraction(num, den)
    t = l * Fraction(k, 10)
    g = circle_graph(l)
    p = GraphPoint.on_edge("c", t)
    assert effective_resistance(g, "O", p) == t * (l - t) / l


def test_theta_three_parallel_units():
    assert effective_resistance(theta_graph(), "P", "Q") == Fraction(1, 3)


def test_same_point_is_zero():
    g = theta_graph()
    p = GraphPoint.on_edge("t1", Fraction(1, 2))
    assert effective_resistance(g, p, p) == 0
    assert effective_resistance(g, "P", "P") == 0


def test_symmetry():
    rng = Random(11)
    for _ in range(15):
        g = random_graph(rng, max_vertices=6)
        g.validate()
        p, q = random_point(rng, g), random_point(rng, g)
        assert effective_resistance(g, p, q) == effective_resistance(g, q, p)


def test_triangle_inequality_sampled():
    rng = Random(13)
    for _ in range(12):
        g = random_graph(rng, max_vertices=6)
        g.validate()
        p, q, s = (random_point(rng, g) for _ in range(3))
        rpq = effective_resistance(g, p, q)
        rqs = effective_resistance(g, q, s)
        rps = effective_resistance(g, p, s)
        assert rps <= rpq + rqs


def test_subdivision_invariance():
    rng = Random(17)
    for _ in range(12):
        g = random_graph(rng, max_vertices=6)
        g.validate()
        p, q = random_point(rng, g), random_point(rng, g)
        r = effective_resistance(g, p, q)
        cut = random_point(rng, g)
        g2, _, rel = subdivide_at(g, cut)
        assert effective_resistance(g2, rel(p), rel(q)) == r


def test_scaling_multiplies_resistance():
    rng = Random(19)
    for _ in range(10):
        g = random_graph(rng, max_vertices=6)
        g.validate()
        p, q = random_point(rng, g), random_point(rng, g)
        s = frac(rng)
        g2, rel = scale_lengths(g, s)
        assert effective_resistance(g2, rel(p), rel(q)) == s * effective_resistance(
            g, p, q
        )


class TestDeletedEdge:
    def test_bridge_is_infinite(self):
        g = path_graph([1, 1])
        assert resistance_in_deleted_edge(g, "l1") is None

    def test_loop_is_zero(self):
        g = circle_graph(5)
        assert resistance_in_deleted_edge(g, "c") == 0

    def test_theta_edge(self):
        assert resistance_in_deleted_edge(theta_graph(), "t0") == Fraction(1, 2)

    def test_unknown_edge(self):
        with pytest.raises(EdgeNotFound):
            resistance_in_deleted_edge(segment_graph(), "zzz")

    def test_dumbbell(self):
        # loop - bridge - loop
        g = MetrizedGraph(
            ["a", "b"],
            [("la", "a", "a", 2), ("e", "a", "b", 1), ("lb", "b", "b", 3)],
        )
        assert resistance_in_deleted_edge(g, "e") is None
        assert resistance_in_deleted_edge(g, "la") == 0

    def test_cycle_edge_with_pendant(self):
        # triangle with a pendant vertex: deleting a triangle edge leaves
        # the two remaining sides in series
        g = MetrizedGraph(
            ["a", "b", "c", "d"],
            [
                ("ab", "a", "b", 1),
                ("bc", "b", "c", 2),
                ("ca", "c", "a", 3),
                ("ad", "a", "d", 5),
            ],
        )
        assert resistance_in_deleted_edge(g, "ab") == 5


@settings(max_examples=30, deadline=None)
@given(seed=st.integers(0, 2**32 - 1))
def test_edge_table_matches_reference(seed):
    """The kernel's edge table holds, per edge in the graph's order, the
    indices of its ends, l, 1/l and rho_e l, all three values Fractions,
    with rho_e = (l - r_e)/l^2 and r_e the reference resistance
    between the ends: a loop has rho_e = 1/l and a bridge 0.  `density` is
    rho_e, and so is S's t(l - t) coefficient, -p2/d, on the integer row it
    builds for an edge with no tent."""
    rng = Random(seed)
    g = random_graph(rng)
    v = rng.choice(g.vertex_list)
    g = MetrizedGraph(g.vertex_list, [*g.edges, ("loop", v, v, frac(rng))])
    kernel = resistance.resistance_kernel(g)
    assert list(kernel.edges) == list(kernel.density) == [e.id for e in g.edges]
    for e in g.edges:
        l = e.length
        rho = (l - ref.effective_resistance(g, e.u, e.v)) / l**2
        row = kernel.edges[e.id]
        assert row == (kernel.index[e.u], kernel.index[e.v], l, 1 / l, rho * l)
        assert [type(x) for x in row[2:]] == [Fraction] * 3
        i, j, ln, ld, offsets, segments = kernel.ground._row(e.id)
        assert (i, j, ln, ld, offsets) == (*row[:2], l.numerator, l.denominator, [])
        [(p0, p1, p2, d)] = segments
        assert {type(p) for p in (p0, p1, p2, d)} == {int} and d > 0
        assert Fraction(-p2, d) == rho
        assert kernel.density[e.id] == rho
    assert kernel.density["loop"] == 1 / g.edge_by_id["loop"].length


@settings(max_examples=50, deadline=None)
@given(seed=st.integers(0, 2**32 - 1))
def test_potential_tents_match_their_sum(seed):
    """A potential's read inside an edge, from the edge's tents sorted with
    prefix sums, is the chord of its vertex values plus t(l - t) factor
    rho_e, less w min(s, t)(l - max(s, t))/l summed over every tent (s, w):
    at the tents' own offsets and between them, with up to twelve tents on
    eight offsets, so that several share one, and weights of both signs."""
    rng = Random(seed)
    g = random_graph(rng, max_vertices=4, min_vertices=2)
    kernel = resistance.resistance_kernel(g)
    e = rng.choice(g.edges)
    l = e.length
    grid = [l * Fraction(k, 9) for k in range(1, 9)]
    tents = [(rng.choice(grid), frac(rng, positive=False)) for _ in range(rng.randint(1, 12))]
    at_vertex = [frac(rng, positive=False) for _ in g.vertex_list]
    factor = frac(rng, positive=False)
    inside = {e.id: tents}
    f = resistance._Potential(kernel.index, kernel.edges, at_vertex, inside, factor)
    i, j = kernel.index[e.u], kernel.index[e.v]
    rho = kernel.density[e.id]
    for t in grid:
        value = at_vertex[i] + (at_vertex[j] - at_vertex[i]) * t / l + t * (l - t) * factor * rho
        value -= sum((w * min(s, t) * (l - max(s, t)) / l for s, w in tents), Fraction(0))
        assert f.read(GraphPoint.on_edge(e.id, t)) == ((i, j, t / l), value)


@settings(max_examples=50, deadline=None)
@given(seed=st.integers(0, 2**32 - 1))
def test_read_matches_pair_reference(seed):
    """A resistance and a Green value, each one `ResistanceKernel.read` on
    integer parts, equal the Fraction `pair` arithmetic that read replaced
    (`reference.pair`), and `_Potential.read` on S and on h equals its
    reference, weights and value.  Lengths have 1 to 40 digits in each part
    (`MAX_RATIONAL_DIGITS`), and D has a point inside an edge, so that h has
    tents.  The pairs: vertices, the ground among them; an interior point
    and a vertex; two points of one edge, one given with an int offset, and
    D's point; two points of one loop.  Every value is a plain Fraction in
    lowest terms with a positive denominator, hashing as Fraction(n, d)."""
    rng = Random(seed)
    digits = rng.randint(1, MAX_RATIONAL_DIGITS)
    g = random_graph(rng, max_vertices=6, min_vertices=2, digits=digits)
    u, v = rng.sample(g.vertex_list, 2)
    w = rng.choice(g.vertex_list)
    loop, long = frac(rng, 10**40, 10**40), 1 + frac(rng, 10**40, 10**40)
    g = MetrizedGraph(g.vertex_list, [*g.edges, ("loop", w, w, loop), ("long", u, v, long)])
    inside = GraphPoint.on_edge("long", long * Fraction(rng.randint(1, 6), 7))
    d = random_divisor(rng, g, interior=True)
    d = RDivisor([*d.items(), (inside, 1 if d.degree() != -3 else 2)])
    s = green_system(g, d)
    kernel = resistance.resistance_kernel(g)
    e = rng.choice(g.edges)
    points = [
        GraphPoint.at_vertex(kernel.vertices[0]),
        GraphPoint.at_vertex(rng.choice(g.vertex_list)),
        GraphPoint.on_edge(e.id, e.length * Fraction(rng.randint(1, 4), 5)),
        inside,
        GraphPoint(edge="long", offset=1),
        GraphPoint.on_edge("long", long / 3),
        GraphPoint.on_edge("loop", loop / 4),
        GraphPoint.on_edge("loop", loop * Fraction(2, 3)),
    ]
    for x in points:
        for f in (kernel.ground, s._h):
            assert f.read(x) == ref.potential_read(f, x)
        for y in points:
            values = [
                (effective_resistance(g, x, y), ref.kernel_resistance(kernel, x, y)),
                (s.eval(x, y), ref.kernel_green(s, x, y)),
            ]
            for value, expected in values:
                assert value == expected and type(value) is Fraction
                n, m = value.numerator, value.denominator
                assert m > 0 and gcd(n, m) == 1
                assert hash(value) == hash(Fraction(n, m))


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2**32 - 1))
def test_laplacian_matches_reference(seed):
    """`laplacian` is the reference's dense Laplacian times x, loops and
    parallel edges included, and on S it gives 2 m_can at every vertex but
    the ground, where it gives 2 m_can less the mass 2: the kernel identity
    Gamma·2 m_can = S that a Green system's certificate rests on."""
    rng = Random(seed)
    g = random_graph(rng, max_vertices=7, min_vertices=2)
    u, v = rng.sample(g.vertex_list, 2)
    w = rng.choice(g.vertex_list)
    extra = [("loop", w, w, frac(rng)), ("par", u, v, frac(rng)), ("par2", u, v, frac(rng))]
    g = MetrizedGraph(g.vertex_list, [*g.edges, *extra])
    kernel = resistance.resistance_kernel(g)
    x = [frac(rng, positive=False) for _ in g.vertex_list]
    dense = ref._laplacian(g, kernel.index)
    assert kernel.laplacian(x) == [sum(a * b for a, b in zip(row, x)) for row in dense]
    lap = kernel.laplacian(kernel.ground.at_vertex)
    assert lap[1:] == kernel.canonical[1:]
    assert lap[0] == kernel.canonical[0] - 2


class TestOneFactorization:
    """Each graph is factored once.  A Green system solves once, for the
    divisor spread over the vertices, and forms no potential to certify; a
    resistance between vertices that are neither adjacent nor joined by
    fill costs no solve: the selected inverse computes the entry inside one
    column, building that column's path vector once, and keeps what it
    computed."""

    @pytest.fixture
    def calls(self, counts):
        """A function that reads the pinned keys of `counts`: potential
        counts the kernel's S, then a Green system's h."""
        return lambda: {key: counts[key] for key in ("factor", "solve", "path", "W", "potential")}

    def test_e_invariant(self, calls):
        g = MetrizedGraph(
            ["a", "b", "c", "d"],
            [("ab", "a", "b", 1), ("bc", "b", "c", 2), ("cd", "c", "d", 3),
             ("da", "d", "a", 1), ("ac", "a", "c", 2), ("bb", "b", "b", 1)],
        )
        e_invariant(g, RDivisor({"b": 1, "d": 2}))
        # the one solve, Gamma m_D, and no off-pattern entry or h
        assert calls() == {"factor": 1, "solve": 1, "path": 0, "W": 7, "potential": 1}

    def test_fiber_report(self, calls):
        cfg = FiberConfiguration(
            [(f"C{i}", 2) for i in range(6)],
            [(f"n{i}", f"C{i - 1}", f"C{i}") for i in range(1, 6)]
            + [("s", "C2", "C2")],
        )
        fiber_report(cfg)
        assert calls() == {"factor": 1, "solve": 1, "path": 0, "W": 11, "potential": 1}

    def test_effective_resistance_entries_are_kept(self, calls):
        # no fill; P1, the first vertex with two neighbours, is grounded, and
        # P0, then P2, P3 and P4 are eliminated
        g = path_graph([1, 2, 3, 4])
        kernel = resistance.resistance_kernel(g)
        assert kernel.vertices[0] == "P1"
        assert effective_resistance(g, "P2", "P4") == 7
        assert calls() == {"factor": 1, "solve": 0, "path": 1, "W": 8, "potential": 1}
        assert effective_resistance(g, "P0", "P3") == 6
        assert calls() == {"factor": 1, "solve": 0, "path": 2, "W": 8, "potential": 1}
        stored = sum(map(len, kernel._factors._inverse))
        assert effective_resistance(g, "P4", "P2") == 7
        assert effective_resistance(g, "P3", "P0") == 6
        assert calls() == {"factor": 1, "solve": 0, "path": 2, "W": 8, "potential": 1}
        assert sum(map(len, kernel._factors._inverse)) == stored

    def test_green_reads(self, calls):
        """Building a Green system builds no h; the first read builds it,
        once; off-pattern reads solve nothing, and build one path vector
        per column, shared with resistance reads."""
        g = MetrizedGraph(
            list("abcdef"),
            [("ab", "a", "b", 1), ("bc", "b", "c", 2), ("cd", "c", "d", 3),
             ("de", "d", "e", 1), ("ef", "e", "f", 2), ("fa", "f", "a", 3),
             ("ad", "a", "d", 2), ("cc", "c", "c", 1)],
        )
        s = green_system(g, RDivisor({"b": 1, "e": 2}))
        assert calls() == {"factor": 1, "solve": 1, "path": 0, "W": 13, "potential": 1}
        # grounded at a, the Laplacian is the path b-c-d-e-f, eliminated in
        # that order with no fill, so Gamma at (b, e), (b, f), (c, e), (c, f)
        # and (d, f) is off the pattern: the first read computes the first
        # four in the columns of e and f, and every later one is kept
        p = GraphPoint.on_edge("bc", Fraction(1, 2))
        q = GraphPoint.on_edge("ef", Fraction(1, 3))
        reads = [
            ("g", p, q, Fraction(-1487, 3375)),
            ("r", p, q, Fraction(337, 135)),
            ("g", "d", "f", Fraction(-7, 250)),
            ("g", p, GraphPoint.on_edge("bc", Fraction(3, 2)), Fraction(262, 375)),
            ("r", "e", "b", Fraction(11, 5)),
            ("g", GraphPoint.on_edge("cc", Fraction(1, 2)), q, Fraction(-5903, 13500)),
            ("r", "f", "d", Fraction(9, 5)),
            ("g", q, "c", Fraction(-1307, 3375)),
        ]
        for kind, x, y, expected in reads:
            got = effective_resistance(g, x, y) if kind == "r" else s.eval(x, y)
            assert got == expected
        assert calls() == {"factor": 1, "solve": 1, "path": 2, "W": 13, "potential": 2}

    def test_ground_column_is_zero(self, calls):
        """Gamma is 0 in the ground vertex's row and column: reading them
        solves nothing and stores nothing."""
        # every vertex has two neighbours, so a, the first, is grounded
        g = MetrizedGraph(
            list("abc"), [("ab", "a", "b", 1), ("bc", "b", "c", 2), ("ca", "c", "a", 3)]
        )
        kernel = resistance.resistance_kernel(g)
        assert kernel.vertices == ["a", "b", "c"]
        stored = sum(map(len, kernel._factors._inverse))
        assert [kernel.entry(0, j) for j in range(3)] == [0, 0, 0]
        assert [kernel.entry(i, 0) for i in range(3)] == [0, 0, 0]
        assert [kernel.entry(2, j) for j in range(3)] == [0, Fraction(1, 2), Fraction(3, 2)]
        assert kernel.entry(2, 2) == Fraction(3, 2) and kernel.entry(0, 2) == 0
        assert sum(map(len, kernel._factors._inverse)) == stored
        assert calls() == {"factor": 1, "solve": 0, "path": 0, "W": 4, "potential": 1}


class TestKernelCertificate:
    """A read that builds no Green system, `effective_resistance` or
    `resistance_in_deleted_edge`, certifies the kernel first, once
    (`ResistanceKernel.certify`): Foster's mass of 2 m_can and L·S = 2 m_can
    off the ground.  A Green build whose residual passes certifies it, and
    a measure is a Green system's, built and certified each time."""

    @pytest.mark.parametrize("kind", ["diagonal", "edge"])
    def test_wrong_inverse_entry_raises(self, kind):
        # v3's diagonal entry, or that of the edge c3 = v3-v4, of the selected
        # inverse raised by 1/1000 as the factorization is built moves the
        # mass of 2 m_can off 2; unchecked, r across c3 read 553271/1271000
        # for the diagonal fault
        g = cycle_chords()
        assert effective_resistance(g, "v3", "v4") == Fraction(552, 1271)
        index = resistance.resistance_kernel(g).index
        i, j = index["v3"], index["v3" if kind == "diagonal" else "v4"]

        def raised(rows):
            rows[i][j] = rows[j][i] = rows[i][j] + Fraction(1, 1000)

        with pytest.MonkeyPatch.context() as patch:
            fault_inverse(patch, raised)
            with pytest.raises(ConstancyViolation, match="^2 mu_can has total mass "):
                effective_resistance(cycle_chords(), "v3", "v4")
            with pytest.raises(ConstancyViolation, match="^2 mu_can has total mass "):
                resistance_in_deleted_edge(cycle_chords(), "c3")
            # unchecked, the canonical measure had total mass 374/375; it
            # is a Green system's measure, whose build checks mu's mass
            with pytest.raises(ConstancyViolation, match="^measure has total mass "):
                canonical_measure(cycle_chords())

    def test_moved_canonical_spread_raises(self, monkeypatch):
        # half of the unit segment's 2 m_can = (1, 1) moved from the ground
        # P to Q keeps the mass 2, and the residual at Q must notice: S is
        # (0, 1), so L·S at Q is 1
        def moved(m):
            m[0] -= Fraction(1, 2)
            m[1] += Fraction(1, 2)

        fault_canonical(monkeypatch, moved)
        g = segment_graph(1)
        for _ in range(2):  # a failed check is not kept
            with pytest.raises(ConstancyViolation) as caught:
                effective_resistance(g, "P", "Q")
            assert str(caught.value) == (
                "Gamma 2 m_can is not S: L S is 1 but 2 m_can is 3/2 at GraphPoint('Q')"
            )

    def test_checked_once_per_kernel(self, counts):
        # the kernel's own check once, then one residual per measure, each
        # the build of a Green system
        g = cycle_chords()
        for _ in range(3):
            assert effective_resistance(g, "v3", "v4") == Fraction(552, 1271)
            assert resistance_in_deleted_edge(g, "c3") is not None
            assert canonical_measure(g).total_mass() == 1
        assert counts["laplacian"] == 4
        assert resistance.resistance_kernel(g).certified

    def test_green_build_certifies(self, counts):
        g = cycle_chords()
        green_system(g, RDivisor({"v3": 1}))
        assert counts["laplacian"] == 1  # the build's own residual
        assert resistance.resistance_kernel(g).certified
        effective_resistance(g, "v3", "v4")
        resistance_in_deleted_edge(g, "d1")
        assert counts["laplacian"] == 1
        canonical_measure(g)  # a Green build of its own
        assert counts["laplacian"] == 2


class TestNoPairwiseResistance:
    """The constancy certificate reads g(D, y) + g(y, y) from the solved
    vector and the edge table alone, so neither e_invariant nor
    fiber_report asks the kernel for a resistance between points."""

    def test_e_invariant(self, counts):
        assert e_invariant(theta_graph(), RDivisor({"P": 1, "Q": 2})) == Fraction(11, 15)
        assert counts["resistance"] == 0

    def test_fiber_report(self, counts):
        cfg = FiberConfiguration(
            [("A", 1), ("B", 2), ("C", 1)],
            [("n1", "A", "B"), ("n2", "B", "C"), ("s", "B", "B")],
        )
        fiber_report(cfg)
        assert counts["resistance"] == 0

def test_concurrent_reads_match_serial():
    """Threads filling one kernel's store of Gamma entries and one Green
    system's read tables all read the serial values."""

    def fresh():
        g = random_graph(Random(26), max_vertices=12, extra_edges=6)
        return g, green_system(g, RDivisor({g.vertex_list[-1]: 1}))

    def value(g, s, kind, p, q):
        return effective_resistance(g, p, q) if kind == "r" else s.eval(p, q)

    g, s = fresh()
    points = g.vertex_list + [GraphPoint.on_edge(e.id, e.length / 3) for e in g.edges[::2]]
    serial = {
        (kind, p, q): value(g, s, kind, p, q)
        for kind in "rg" for p in points for q in points
    }
    shared = fresh()  # factored, with no entry off the pattern and no table built
    results = []

    def read(seed):
        keys = list(serial)
        Random(seed).shuffle(keys)
        results.append({key: value(*shared, *key) for key in keys})

    threads = [threading.Thread(target=read, args=(k,)) for k in range(8)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert results == [serial] * len(threads)


def test_kernel_is_freed_with_its_graph():
    g = theta_graph()
    assert effective_resistance(g, "P", "Q") == Fraction(1, 3)
    kernel = weakref.ref(resistance.resistance_kernel(g))
    gc.disable()
    try:
        del g
        assert kernel() is None  # by reference counting, with no cycle
    finally:
        gc.enable()


def test_kept_entries_are_freed_with_their_graph():
    """The Gamma entries and path vectors an off-pattern read keeps live on
    the kernel's factorization and selected inverse, and go with the graph."""
    g = path_graph([1, 2, 3, 4])
    assert effective_resistance(g, "P1", "P4") == 9  # off the pattern
    kernel = resistance.resistance_kernel(g)
    refs = [weakref.ref(kernel), weakref.ref(kernel._factors)]
    del kernel
    gc.disable()
    try:
        del g
        assert [r() for r in refs] == [None, None]  # by reference counting
    finally:
        gc.enable()
