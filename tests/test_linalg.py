"""The sparse symmetric elimination of `mg.linalg` against the dense
Gaussian elimination kept in reference.py: the solutions must be equal."""

from fractions import Fraction
from random import Random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import reference as ref
from mg import MetrizedGraph, linalg
from gen import frac, random_graph

FAMILIES = ("tree", "path", "cycle", "parallel", "loops", "mixed")


def family_graph(rng: Random, family: str) -> MetrizedGraph:
    """A connected graph of the family, with random rational lengths."""
    if family == "tree":
        return random_graph(rng, max_vertices=10, extra_edges=0)
    if family == "mixed":
        return random_graph(rng, max_vertices=10, extra_edges=6)
    n = rng.randint(1, 10)
    vs = [f"v{i}" for i in range(n)]
    pairs = [(vs[i - 1], vs[i]) for i in range(1, n)]
    if family == "cycle":
        pairs.append((vs[-1], vs[0]))  # a loop when n = 1
    elif family == "parallel" and pairs:
        pairs += [rng.choice(pairs) for _ in range(rng.randint(1, 3))]
    elif family == "loops":
        pairs += [(v, v) for v in rng.sample(vs, rng.randint(1, n))]
    edges = [(f"e{k}", u, v, frac(rng)) for k, (u, v) in enumerate(pairs)]
    return MetrizedGraph(vs, edges)


def grounded_laplacian(g: MetrizedGraph, ground: int) -> list[list[Fraction]]:
    lap = ref._laplacian(g, {v: i for i, v in enumerate(g.vertex_list)})
    rows = lap[:ground] + lap[ground + 1 :]
    return [row[:ground] + row[ground + 1 :] for row in rows]


def rhs(rng: Random, n: int) -> list[Fraction]:
    """A right-hand side with zero and nonzero entries of either sign."""
    return [
        Fraction(0) if rng.random() < 0.3 else frac(rng, positive=False)
        for _ in range(n)
    ]


@settings(max_examples=150, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), family=st.sampled_from(FAMILIES))
def test_matches_dense_reference(seed, family):
    rng = Random(seed)
    g = family_graph(rng, family)
    a = grounded_laplacian(g, rng.randrange(len(g.vertex_list)))
    b = [rhs(rng, len(a)) for _ in range(rng.randint(1, 4))]
    a_copy, b_copy = [list(r) for r in a], [list(c) for c in b]
    assert linalg.solve_columns(a, b) == ref.solve_columns(a, b)
    assert (a, b) == (a_copy, b_copy)


def test_empty_system():
    assert linalg.solve_columns([], []) == []
    assert linalg.solve_columns([], [[], []]) == [[], []]


def test_one_unknown():
    b = [[Fraction(1)], [Fraction(-5, 7)]]
    assert linalg.solve_columns([[Fraction(2, 3)]], b) == [
        [Fraction(3, 2)],
        [Fraction(-15, 14)],
    ]


def test_right_hand_side_length_mismatch():
    a = [[Fraction(2), Fraction(-1)], [Fraction(-1), Fraction(2)]]
    with pytest.raises(ValueError, match="length mismatch"):
        linalg.solve_columns(a, [[Fraction(1)]])


def test_disconnected_graph_is_singular():
    g = MetrizedGraph(
        ["a", "b", "c", "d"],
        [("e0", "a", "b", Fraction(1)), ("e1", "c", "d", Fraction(1, 2))],
    )
    a = grounded_laplacian(g, 0)
    with pytest.raises(ValueError, match="singular system"):
        linalg.solve_columns(a, [[Fraction(1)] * 3])


def test_non_symmetric_matrix():
    a = [[Fraction(2), Fraction(-1)], [Fraction(0), Fraction(2)]]
    with pytest.raises(ValueError, match="not symmetric"):
        linalg.solve_columns(a, [[Fraction(1), Fraction(1)]])
