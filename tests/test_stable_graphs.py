"""Every stable graph of genus 2 and 3 (stable_graphs.py), as a fiber
configuration with unit node lengths and once more with seeded rational
lengths, through `fiber_report`: the genus, the node types against the
per-node reference classifier, the chain closed form, and e_y against
`fiber_e` and against `e_via_basepoint` at every vertex."""

from random import Random

import pytest

import reference as ref
from gen import frac
from mg import (
    classify_node,
    configuration_graph,
    e_via_basepoint,
    fiber_e,
    fiber_report,
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
