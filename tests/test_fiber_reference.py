"""The one-walk node classification against the per-node reference
(reference.py): genus, every node type, the delta vector and the chain flag
must agree exactly."""

from random import Random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import reference as ref
from mg import (
    FiberConfiguration,
    GenusTooSmall,
    classify_node,
    configuration_graph,
    delta_vector,
    fiber_genus,
    is_chain_of_stable_components,
)
from gen import random_chain_config, random_graph


def config_from_graph(rng: Random) -> FiberConfiguration:
    """A random connected configuration with genera 0..3: loops, parallel
    nodes, cycles and unstable components all occur."""
    g = random_graph(rng, max_vertices=8, extra_edges=4)
    return FiberConfiguration(
        [(v, rng.randint(0, 3)) for v in g.vertex_list],
        [(e.id, e.u, e.v, e.length) for e in g.edges],
    )


def assert_matches_reference(cfg: FiberConfiguration):
    genus = sum(c.genus for c in cfg.components) + configuration_graph(
        cfg
    ).first_betti()
    types = {n.id: ref.classify_node(cfg, n.id).type for n in cfg.nodes}
    assert {n.id: classify_node(cfg, n.id).type for n in cfg.nodes} == types
    assert is_chain_of_stable_components(cfg) == ref.is_chain_of_stable_components(
        cfg
    )
    if genus < 2:
        with pytest.raises(GenusTooSmall):
            fiber_genus(cfg)
        with pytest.raises(GenusTooSmall):
            delta_vector(cfg)
        return
    assert fiber_genus(cfg) == genus
    counts = [0] * (genus // 2 + 1)
    for t in types.values():
        counts[t] += 1
    assert delta_vector(cfg) == counts


@settings(max_examples=150, deadline=None)
@given(seed=st.integers(0, 2**32 - 1))
def test_walk_matches_reference_on_chains(seed):
    assert_matches_reference(random_chain_config(Random(seed)))


@settings(max_examples=300, deadline=None)
@given(seed=st.integers(0, 2**32 - 1))
def test_walk_matches_reference_on_random_graphs(seed):
    assert_matches_reference(config_from_graph(Random(seed)))
