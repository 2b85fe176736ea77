import functools
import gc
import sys
import threading
import weakref
from fractions import Fraction
from random import Random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import reference as ref

from mg import (
    EdgeNotFound,
    GraphPoint,
    MetrizedGraph,
    FiberConfiguration,
    RDivisor,
    circle_graph,
    e_invariant,
    effective_resistance,
    fiber_report,
    green,
    green_system,
    linalg,
    path_graph,
    resistance,
    resistance_in_deleted_edge,
    scale_lengths,
    segment_graph,
    subdivide_at,
    theta_graph,
)
from gen import frac, random_graph, random_point


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
    indices of its ends, l, 1/l and rho_e l, and S's coefficients
    (`ground.curv`) are rho_e = (l - r_e)/l^2, all four values in the fast
    type, with r_e the reference resistance between the ends: a loop has
    rho_e = 1/l and a bridge 0."""
    rng = Random(seed)
    g = random_graph(rng)
    v = rng.choice(g.vertex_list)
    g = MetrizedGraph(g.vertex_list, [*g.edges, ("loop", v, v, frac(rng))])
    kernel = resistance.resistance_kernel(g)
    fast = type(linalg.fast(0))
    curv = kernel.ground.curv
    assert list(kernel.edges) == list(curv) == [e.id for e in g.edges]
    for e in g.edges:
        l = e.length
        rho = (l - ref.effective_resistance(g, e.u, e.v)) / l**2
        row = kernel.edges[e.id]
        assert row == (kernel.index[e.u], kernel.index[e.v], l, 1 / l, rho * l)
        assert curv[e.id] == rho
        assert [type(x) for x in (*row[2:], curv[e.id])] == [fast] * 4
        assert kernel.density[e.id] == rho
    assert curv["loop"] == 1 / g.edge_by_id["loop"].length


class TestOneFactorization:
    """Each graph is factored once.  A Green system solves twice, for the
    measure and for the divisor spread over the vertices, and forms no
    potential to certify; a resistance between vertices that are neither
    adjacent nor joined by fill costs no solve: the selected inverse
    computes the entry inside one column, building that column's path
    vector once, and keeps what it computed."""

    @pytest.fixture
    def calls(self, monkeypatch):
        counter = {"factor": 0, "solve": 0, "path": 0, "h": 0}
        real_init = linalg.Factorization.__init__
        real_solve = linalg.Factorization.solve
        real_path = linalg.Factorization._path
        real_h = green.GreenSystem._h.func

        def init(self, rows):
            counter["factor"] += 1
            real_init(self, rows)

        def solve(self, b):
            counter["solve"] += 1
            return real_solve(self, b)

        def path(self, c):
            counter["path"] += 1
            return real_path(self, c)

        def h(self):
            counter["h"] += 1
            return real_h(self)

        monkeypatch.setattr(linalg.Factorization, "__init__", init)
        monkeypatch.setattr(linalg.Factorization, "solve", solve)
        monkeypatch.setattr(linalg.Factorization, "_path", path)
        counted_h = functools.cached_property(h)
        counted_h.__set_name__(green.GreenSystem, "_h")
        monkeypatch.setattr(green.GreenSystem, "_h", counted_h)
        return counter

    def test_e_invariant(self, calls):
        g = MetrizedGraph(
            ["a", "b", "c", "d"],
            [("ab", "a", "b", 1), ("bc", "b", "c", 2), ("cd", "c", "d", 3),
             ("da", "d", "a", 1), ("ac", "a", "c", 2), ("bb", "b", "b", 1)],
        )
        e_invariant(g, RDivisor({"b": 1, "d": 2}))
        # the two solves, Gamma m_mu and Gamma m_D, and no off-pattern
        # entry or h
        assert calls == {"factor": 1, "solve": 2, "path": 0, "h": 0}

    def test_fiber_report(self, calls):
        cfg = FiberConfiguration(
            [(f"C{i}", 2) for i in range(6)],
            [(f"n{i}", f"C{i - 1}", f"C{i}") for i in range(1, 6)]
            + [("s", "C2", "C2")],
        )
        fiber_report(cfg)
        assert calls == {"factor": 1, "solve": 2, "path": 0, "h": 0}

    def test_effective_resistance_entries_are_kept(self, calls):
        g = path_graph([1, 2, 3, 4])  # no fill; the first vertex is grounded
        v = g.vertex_list
        kernel = resistance.resistance_kernel(g)
        assert effective_resistance(g, v[1], v[3]) == 5
        assert calls == {"factor": 1, "solve": 0, "path": 1, "h": 0}
        assert effective_resistance(g, v[1], v[4]) == 9
        assert calls == {"factor": 1, "solve": 0, "path": 2, "h": 0}
        stored = sum(map(len, kernel._factors._inverse))
        assert effective_resistance(g, v[3], v[1]) == 5
        assert effective_resistance(g, v[4], v[1]) == 9
        assert calls == {"factor": 1, "solve": 0, "path": 2, "h": 0}
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
        assert calls == {"factor": 1, "solve": 2, "path": 0, "h": 0}
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
        assert calls == {"factor": 1, "solve": 2, "path": 2, "h": 1}

    def test_ground_column_is_zero(self, calls):
        """Gamma is 0 in the ground vertex's row and column: reading them
        solves nothing and stores nothing."""
        g = MetrizedGraph(list("abc"), [("ab", "a", "b", 1), ("bc", "b", "c", 2)])
        kernel = resistance.resistance_kernel(g)
        stored = sum(map(len, kernel._factors._inverse))
        assert [kernel.entry(0, j) for j in range(3)] == [0, 0, 0]
        assert [kernel.entry(i, 0) for i in range(3)] == [0, 0, 0]
        assert [kernel.entry(2, j) for j in range(3)] == [0, 1, 3]
        assert kernel.entry(2, 2) == 3 and kernel.entry(0, 2) == 0
        assert sum(map(len, kernel._factors._inverse)) == stored
        assert calls == {"factor": 1, "solve": 0, "path": 0, "h": 0}


class TestNoPairwiseResistance:
    """The constancy certificate reads g(D, y) + g(y, y) from the two
    potentials alone, so neither e_invariant nor fiber_report asks the
    kernel for a resistance between points."""

    @pytest.fixture
    def calls(self, monkeypatch):
        counter = {"resistance": 0}
        real = resistance.ResistanceKernel.resistance

        def counted(self, p, q):
            counter["resistance"] += 1
            return real(self, p, q)

        monkeypatch.setattr(resistance.ResistanceKernel, "resistance", counted)
        return counter

    def test_e_invariant(self, calls):
        assert e_invariant(theta_graph(), RDivisor({"P": 1, "Q": 2})) == Fraction(11, 15)
        assert calls == {"resistance": 0}

    def test_fiber_report(self, calls):
        cfg = FiberConfiguration(
            [("A", 1), ("B", 2), ("C", 1)],
            [("n1", "A", "B"), ("n2", "B", "C"), ("s", "B", "B")],
        )
        fiber_report(cfg)
        assert calls == {"resistance": 0}

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
