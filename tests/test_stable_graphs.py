"""Every stable graph of genus 2 and 3 (stable_graphs.py), as a fiber
configuration with unit node lengths and once more with seeded rational
lengths, through `fiber_report`: the genus, the node types against the
per-node reference classifier, the chain closed form, and e_y against
`fiber_e` and against `e_via_basepoint` at every vertex.  At every bridge
node, e_y must also equal `closedforms.join_e` over the two sides."""

from random import Random

import pytest

import reference as ref
from gen import frac
from mg import (
    MetrizedGraph,
    RDivisor,
    classify_node,
    configuration_graph,
    e_of_system,
    e_via_basepoint,
    fiber_e,
    fiber_report,
    green_system,
    join_e,
    omega_divisor,
)
from stable_graphs import stable_graphs

COUNTS = {2: 7, 3: 42}
CASES = [(g, sg) for g in COUNTS for sg in stable_graphs(g)]


@pytest.mark.parametrize("g", sorted(COUNTS))
def test_counts(g):
    assert len(stable_graphs(g)) == COUNTS[g]


def check(g, cfg):
    report = fiber_report(cfg)
    assert report.genus == g
    assert report.warnings == ()
    types = {n.id: ref.classify_node(cfg, n.id).type for n in cfg.nodes}
    assert {n.id: classify_node(cfg, n.id).type for n in cfg.nodes} == types
    delta = [0] * (g // 2 + 1)
    for t in types.values():
        delta[t] += 1
    assert list(report.delta) == delta
    assert report.is_chain == ref.is_chain_of_stable_components(cfg)
    if report.is_chain:
        assert report.e == report.e_closed_form
    assert fiber_e(cfg) == report.e
    graph, omega = configuration_graph(cfg), omega_divisor(cfg)
    for v in graph.vertex_list:
        assert e_via_basepoint(graph, omega, v) == report.e


@pytest.mark.parametrize("g,sg", CASES)
def test_unit_lengths(g, sg):
    check(g, sg.configuration())


@pytest.mark.parametrize("g,sg", CASES)
def test_rational_lengths(g, sg):
    rng = Random(repr(sg))
    check(g, sg.configuration([frac(rng) for _ in sg.edges]))



def side(graph, start, cut) -> set:
    """The vertices reachable from start without crossing the edge cut."""
    seen, todo = {start}, [start]
    while todo:
        v = todo.pop()
        for e in graph.edges:
            if e is not cut and v in (e.u, e.v):
                w = e.v if e.u == v else e.u
                if w not in seen:
                    seen.add(w)
                    todo.append(w)
    return seen


def summand(graph, omega, vertices, extra, point):
    """The graph on the vertices and the point, with the edges among the
    vertices plus `extra`, and D = omega on the vertices: returns deg D,
    e(G, D) and g(point, point)."""
    edges = [e for e in graph.edges if e.u in vertices and e.v in vertices]
    edges += extra
    sub = MetrizedGraph(
        sorted(vertices | {point}), [(e.id, e.u, e.v, e.length) for e in edges]
    )
    d = RDivisor({v: omega.coeff(v) for v in vertices})
    s = green_system(sub, d)
    e, goo = e_of_system(s), s.eval(point, point)
    if not edges:
        assert (e, goo) == (0, 0)
    return d.degree(), e, goo


def check_joins(g, cfg):
    """Split at u for each bridge node (u, v): G1 is u's side with D1 =
    omega there, G2 the bridge plus v's side with D2 the rest of omega."""
    graph, omega = configuration_graph(cfg), omega_divisor(cfg)
    e = fiber_e(cfg)
    bridges = 0
    for bridge in graph.edges:
        u, v = bridge.u, bridge.v
        ones = side(graph, u, bridge)
        if v in ones:
            continue
        bridges += 1
        others = set(graph.vertex_list) - ones
        d1, e1, g1 = summand(graph, omega, ones, [], u)
        d2, e2, g2 = summand(graph, omega, others, [bridge], u)
        assert d1 % 2 == d2 % 2 == 1 and d1 + d2 == 2 * g - 2
        assert join_e(e1, e2, d1, d2, g1, g2) == e
    # on a stable graph the bridges are exactly the nodes of positive type
    assert bridges == sum(classify_node(cfg, n.id).type > 0 for n in cfg.nodes)


@pytest.mark.parametrize("g,sg", CASES)
def test_join_at_bridges(g, sg):
    check_joins(g, sg.configuration())
    rng = Random(repr(sg))
    check_joins(g, sg.configuration([frac(rng) for _ in sg.edges]))
