"""No value depends on the order in which a graph or a fiber is given.

The kernel's ground, its vertex indices and the factorization's pivot
order all follow from the order of `vertex_list` and of the edges, and a
fiber's from that of its components and nodes.  Every value is exact, so
permuting them must leave each one `==`: r, g, c, e, the measure, S read
off the selected inverse's diagonal, and `fiber_report`."""

from random import Random

from hypothesis import given, settings
from hypothesis import strategies as st

from gen import random_chain_config, random_divisor, random_graph, random_point
from mg import (
    FiberConfiguration,
    MetrizedGraph,
    e_of_system,
    effective_resistance,
    fiber_report,
    green_system,
    resistance,
)


def shuffled(rng: Random, items) -> list:
    items = list(items)
    rng.shuffle(items)
    return items


def values(g: MetrizedGraph, d, points) -> list:
    """r and g between every pair of `points`, c, e and the measure of
    (g, d), each as a plain value."""
    s = green_system(g, d)
    mu = s.measure
    out = [s.c, e_of_system(s), mu.atoms, mu.densities]
    for x in points:
        for y in points:
            out += [effective_resistance(g, x, y), s.eval(x, y)]
    return out


def ground_values(kernel, g: MetrizedGraph) -> tuple:
    """{vertex: S} of `kernel`, and what S should be there: r(., v_0) in
    the graph g, v_0 being the kernel's ground."""
    ground = kernel.vertices[0]
    s = {v: kernel.ground.at_vertex[i] for i, v in enumerate(kernel.vertices)}
    r = {v: effective_resistance(g, v, ground) for v in kernel.vertices}
    return s, r


@settings(max_examples=100, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), digits=st.integers(1, 40))
def test_graph_values_do_not_depend_on_order(seed, digits):
    rng = Random(seed)
    g = random_graph(rng, max_vertices=6, extra_edges=3, min_vertices=2, digits=digits)
    d = random_divisor(rng, g, interior=True)
    points = [random_point(rng, g) for _ in range(3)]
    edges = [(e.id, e.u, e.v, e.length) for e in g.edges]
    h = MetrizedGraph(shuffled(rng, g.vertex_list), shuffled(rng, edges))
    assert values(h, d, points) == values(g, d, points)
    # S of each kernel is r to its own ground, read in the other graph
    for kernel, other in ((resistance.resistance_kernel(g), h), (resistance.resistance_kernel(h), g)):
        s, r = ground_values(kernel, other)
        assert s == r


@settings(max_examples=100, deadline=None)
@given(seed=st.integers(0, 2**32 - 1))
def test_fiber_report_does_not_depend_on_order(seed):
    rng = Random(seed)
    cfg = random_chain_config(rng)
    permuted = FiberConfiguration(shuffled(rng, cfg.components), shuffled(rng, cfg.nodes))
    assert fiber_report(permuted) == fiber_report(cfg)
