from fractions import Fraction
from random import Random

import pytest
from hypothesis import given
from hypothesis import strategies as st

from mg import (
    DanglingEndpoint,
    Disconnected,
    Edge,
    GraphPoint,
    InputError,
    MetrizedGraph,
    NonpositiveLength,
    PointOffGraph,
    RDivisor,
    circle_graph,
    e_invariant,
    effective_resistance,
    green_system,
    one_point_sum,
    path_graph,
    scale_lengths,
    segment_graph,
    subdivide_at,
    theta_graph,
)
from gen import random_graph, random_point
from mg.fileformat import parse_graph_file


class TestValidate:
    def test_single_vertex_ok(self):
        MetrizedGraph(["v"]).validate()

    def test_two_isolated_vertices_disconnected(self):
        with pytest.raises(Disconnected):
            MetrizedGraph(["a", "b"]).validate()

    def test_zero_length_edge(self):
        with pytest.raises(NonpositiveLength):
            MetrizedGraph(["a", "b"], [("e", "a", "b", 0)]).validate()

    def test_dangling_endpoint(self):
        with pytest.raises(DanglingEndpoint):
            MetrizedGraph(["a"], [("e", "a", "b", 1)]).validate()

    def test_empty_graph(self):
        with pytest.raises(Disconnected):
            MetrizedGraph([]).validate()

    def test_duplicate_edge_id(self):
        with pytest.raises(ValueError, match="duplicate edge id 'e'"):
            MetrizedGraph(["a", "b"], [("e", "a", "b", 1), ("e", "b", "a", 2)])

    def test_empty_graph_is_not_connected(self):
        assert not MetrizedGraph([]).is_connected()

    def test_reprs(self):
        assert repr(theta_graph()) == "MetrizedGraph(2 vertices, 3 edges)"
        assert repr(RDivisor()) == "RDivisor(0)"
        assert repr(RDivisor({"P": 2})) == f"RDivisor(2*{GraphPoint.at_vertex('P')!r})"

    def test_loop_and_parallel_edges_allowed(self):
        g = MetrizedGraph(
            ["a", "b"],
            [("l", "a", "a", 1), ("e1", "a", "b", 1), ("e2", "a", "b", 2)],
        )
        g.validate()
        assert g.valence("a") == 4


class TestValidateOnce:
    """A graph that passed `validate` keeps that on itself, as it is
    immutable; a failure is never kept, and a graph made from another is
    validated on its own."""

    @pytest.fixture
    def searches(self, monkeypatch):
        """The graphs whose connectivity search `_reachable` ran, in order."""
        seen = []
        real = MetrizedGraph._reachable

        def reachable(self, a):
            seen.append(self)
            return real(self, a)

        monkeypatch.setattr(MetrizedGraph, "_reachable", reachable)
        return seen

    def test_parse_then_e_invariant_searches_once(self, searches):
        graph, _, d = parse_graph_file(
            "metrized_graph\nvertex a\nvertex b\nedge e a b 1\nedge f a b 2\n"
            "divisor a 1\n"
        )
        e_invariant(graph, d)
        assert searches == [graph]

    @pytest.mark.parametrize("g, error, message, searched", [
        (MetrizedGraph(["a", "b"]), Disconnected, "graph is not connected", 3),
        (MetrizedGraph(["a", "b"], [("e", "a", "b", 0)]), NonpositiveLength,
         "edge 'e' has length 0", 0),
    ])
    def test_failure_raises_on_every_call(self, searches, g, error, message, searched):
        for check in (g.validate, g.validate, lambda: e_invariant(g, RDivisor())):
            with pytest.raises(error, match=f"^{message}$"):
                check()
        assert searches == [g] * searched

    def test_derived_graphs_are_validated_on_their_own(self, searches):
        g = theta_graph()
        g.validate()
        split, _, _ = subdivide_at(g, GraphPoint.on_edge("t0", Fraction(1, 2)))
        scaled, _ = scale_lengths(g, 3)
        for h in (split, scaled, split, scaled, g):
            h.validate()
        assert searches == [g, split, scaled]
        apart = MetrizedGraph(["a", "b", "c"], [("e", "a", "b", 1)])
        for h in (subdivide_at(apart, GraphPoint.on_edge("e", Fraction(1, 2)))[0],
                  scale_lengths(apart, 2)[0]):
            with pytest.raises(Disconnected):
                h.validate()


class TestFirstBetti:
    def test_segment(self):
        assert segment_graph().first_betti() == 0

    def test_circle(self):
        assert circle_graph().first_betti() == 1

    def test_theta(self):
        assert theta_graph().first_betti() == 2


class TestSubdivide:
    def test_segment_midpoint(self):
        g = segment_graph(1)
        g2, w, rel = subdivide_at(g, GraphPoint.on_edge("e", Fraction(1, 2)))
        assert len(g2.edges) == 2
        assert all(e.length == Fraction(1, 2) for e in g2.edges)
        assert w in g2.vertex_set
        assert g2.valence(w) == 2

    def test_vertex_is_identity(self):
        g = segment_graph(1)
        g2, w, rel = subdivide_at(g, "P")
        assert g2 is g
        assert w == "P"
        p = GraphPoint.on_edge("e", Fraction(1, 3))
        assert rel(p) == p

    def test_loop_gives_parallel_edges(self):
        g = circle_graph(1)
        g2, w, rel = subdivide_at(g, GraphPoint.on_edge("c", Fraction(1, 3)))
        lengths = sorted(e.length for e in g2.edges)
        assert lengths == [Fraction(1, 3), Fraction(2, 3)]
        assert all({e.u, e.v} == {"O", w} for e in g2.edges)

    def test_relocation_splits_offsets(self):
        g = segment_graph(1)
        g2, w, rel = subdivide_at(g, GraphPoint.on_edge("e", Fraction(1, 2)))
        before = rel(GraphPoint.on_edge("e", Fraction(1, 4)))
        after = rel(GraphPoint.on_edge("e", Fraction(3, 4)))
        atw = rel(GraphPoint.on_edge("e", Fraction(1, 2)))
        assert before.offset == Fraction(1, 4)
        assert after.offset == Fraction(1, 4)
        assert atw.vertex == w

    def test_preserves_length_and_betti(self):
        rng = Random(7)
        for _ in range(25):
            g = random_graph(rng)
            g.validate()
            p = random_point(rng, g)
            g2, _, _ = subdivide_at(g, p)
            assert g2.total_length() == g.total_length()
            assert g2.first_betti() == g.first_betti()

    def test_point_off_graph(self):
        g = segment_graph(1)
        with pytest.raises(PointOffGraph):
            subdivide_at(g, GraphPoint.on_edge("nope", Fraction(1, 2)))
        with pytest.raises(PointOffGraph):
            subdivide_at(g, GraphPoint.on_edge("e", Fraction(3, 2)))
        with pytest.raises(PointOffGraph, match="vertex 'R' is not on the graph"):
            g.check_point("R")

    def test_new_ids_avoid_taken_ones(self):
        """The cut vertex and the two halves get ids that no vertex or edge
        of the graph has, even when the first choice of each is taken."""
        t = Fraction(1, 3)
        cut, left, right = ("cut", "e", t), ("split", "e", 0), ("split", "e", 1)
        g = MetrizedGraph(
            ["P", "Q", cut],
            [("e", "P", "Q", 1), (left, "Q", cut, 2), (right, cut, "P", 3)],
        )
        p = GraphPoint.on_edge("e", t)
        g2, w, rel = subdivide_at(g, p)
        assert w == ("cut", cut, t)
        assert [e.id for e in g2.edges] == [("split", left, 0), ("split", right, 1), left, right]
        assert g2.total_length() == g.total_length()
        assert rel(p) == GraphPoint.at_vertex(w)
        assert effective_resistance(g2, "P", w) == effective_resistance(g, "P", p)

    def test_boundary_offset_normalizes_to_vertex(self):
        g = segment_graph(1)
        assert g.check_point(GraphPoint.on_edge("e", 0)).vertex == "P"
        assert g.check_point(GraphPoint.on_edge("e", 1)).vertex == "Q"


def comparison_chain(g: MetrizedGraph, p: GraphPoint) -> GraphPoint:
    """`check_point` on an edge point as a chain of Fraction comparisons."""
    e = g.edge_by_id[p.edge]
    t = p.offset
    if t == 0:
        return GraphPoint.at_vertex(e.u)
    if t == e.length:
        return GraphPoint.at_vertex(e.v)
    if not 0 < t < e.length:
        raise PointOffGraph(f"offset {t} outside edge {p.edge!r} of length {e.length}")
    return p


def outcome(check, g, p):
    """The point `check` returns, or the class and message it raises."""
    try:
        return check(g, p)
    except PointOffGraph as exc:
        return PointOffGraph, str(exc)


LENGTHS = st.fractions(min_value=Fraction(1, 10**6), max_value=10**6) | st.integers(1, 9)
# offsets as multiples of the length, over [-l, 2l], the ends always drawn
SCALES = st.sampled_from([0, 1, -1, 2]) | st.fractions(min_value=-1, max_value=2)


@given(length=LENGTHS, scale=SCALES, edge=st.sampled_from(["e", "loop"]), as_int=st.booleans())
def test_check_point_matches_comparison_chain(length, scale, edge, as_int):
    """The integer-part tests of `check_point` give the vertex, the point or
    the PointOffGraph message that the chain of comparisons gives, on an
    edge and on a loop, for Fraction offsets and for int ones given to
    `GraphPoint` directly, and for lengths of either type given to `Edge`."""
    g = MetrizedGraph(["P", "Q"], [Edge("e", "P", "Q", length), Edge("loop", "Q", "Q", length)])
    t = Fraction(length) * scale
    if as_int:
        t = int(t)  # an int offset, not normalised to Fraction by `on_edge`
    p = GraphPoint(edge=edge, offset=t)
    assert outcome(MetrizedGraph.check_point, g, p) == outcome(comparison_chain, g, p)


@pytest.mark.parametrize("offset", [0.5, None, "1/2"], ids=repr)
def test_offset_of_another_type_is_off_graph(offset):
    """An offset given to `GraphPoint` directly that is neither an int nor
    a Fraction is a PointOffGraph, an InputError, from `check_point` and so
    from every read."""
    g = segment_graph(1)
    p = GraphPoint(edge="e", offset=offset)
    with pytest.raises(PointOffGraph, match="is not an int or a Fraction") as caught:
        g.check_point(p)
    assert isinstance(caught.value, InputError)
    with pytest.raises(PointOffGraph):
        effective_resistance(g, p, "P")
    with pytest.raises(PointOffGraph):
        green_system(g, RDivisor()).eval(p, "P")


def test_int_offset_given_directly_reads():
    g = segment_graph(2)
    p, q = GraphPoint(edge="e", offset=1), GraphPoint.on_edge("e", 1)
    assert g.check_point(p) is p
    assert effective_resistance(g, p, "P") == 1
    s = green_system(g, RDivisor({"P": 1, "Q": 1}))
    assert s.eval(p, "Q") == s.eval(q, "Q")
    assert s.green_of_divisor(p) == s.green_of_divisor(q)


class TestOnePointSum:
    def test_two_segments_make_a_path(self):
        g1 = segment_graph(1)
        g2 = segment_graph(2)
        joined, joint, r1, r2 = one_point_sum(g1, "Q", g2, "P")
        joined.validate()
        assert len(joined.edges) == 2
        assert joined.total_length() == 3
        assert joint == "Q"
        assert r2(GraphPoint.at_vertex("P")).vertex == joint

    def test_lollipop(self):
        g = segment_graph(1)
        c = circle_graph(1)
        joined, joint, _, _ = one_point_sum(g, "Q", c, "O")
        joined.validate()
        assert joined.first_betti() == 1
        assert joined.valence(joint) == 3

    def test_betti_adds(self):
        rng = Random(3)
        for _ in range(20):
            g1 = random_graph(rng, max_vertices=5)
            g2 = random_graph(rng, max_vertices=5)
            x1 = random_point(rng, g1)
            x2 = random_point(rng, g2)
            joined, _, _, _ = one_point_sum(g1, x1, g2, x2)
            joined.validate()
            assert joined.first_betti() == g1.first_betti() + g2.first_betti()
            assert joined.total_length() == g1.total_length() + g2.total_length()

    def test_id_collisions_are_renamed(self):
        g = segment_graph(1)
        joined, joint, _, rel2 = one_point_sum(g, "Q", g, "Q")
        joined.validate()
        assert len(joined.vertex_list) == 3
        assert len(joined.edges) == 2
        # the second copy's P ends up somewhere that exists
        assert rel2(GraphPoint.at_vertex("P")).vertex in joined.vertex_set


class TestDivisor:
    def test_degree_sums_coefficients(self):
        d = RDivisor({"P": 1, "Q": 1})
        assert d.degree() == 2

    def test_empty_degree_zero(self):
        assert RDivisor().degree() == 0

    def test_zero_coefficients_dropped(self):
        d = RDivisor([("P", 1), ("P", -1), ("Q", 2)])
        assert len(d) == 1
        assert d.coeff("Q") == 2

    def test_duplicate_points_add(self):
        d = RDivisor([("P", 1), ("P", 2)])
        assert d.coeff("P") == 3

    def test_addition(self):
        d = RDivisor({"P": 1}) + RDivisor({"P": Fraction(1, 2), "Q": 1})
        assert d.coeff("P") == Fraction(3, 2)
        assert d.degree() == Fraction(5, 2)

    @given(st.lists(st.tuples(st.sampled_from("abc"), st.integers(-5, 5))))
    def test_degree_is_sum(self, terms):
        d = RDivisor(terms)
        assert d.degree() == sum(Fraction(a) for _, a in terms)


class TestScale:
    def test_lengths_scale(self):
        g = theta_graph((1, 2, 3))
        g2, rel = scale_lengths(g, Fraction(3, 2))
        assert g2.total_length() == 9
        p = rel(GraphPoint.on_edge("t0", Fraction(1, 2)))
        assert p.offset == Fraction(3, 4)

    def test_nonpositive_scale_rejected(self):
        with pytest.raises(NonpositiveLength):
            scale_lengths(segment_graph(), 0)


def test_path_graph_shape():
    g = path_graph([1, 2, 3])
    g.validate()
    assert g.first_betti() == 0
    assert [v for v in g.vertex_list] == ["P0", "P1", "P2", "P3"]
    assert g.total_length() == 6
