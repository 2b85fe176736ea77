"""The sparse LDL^T factorization of `mg.linalg` against the dense Gaussian
elimination kept in reference.py: solutions, the selected inverse and the
pivot order must be equal.  The factorization takes a graph's conductances
and grounds vertex 0, so each graph is given with a randomly chosen vertex
moved to the front, and the reference eliminates its Laplacian with that
row and column removed.  Parallel edges add, loops conduct nothing, and
Gamma is 0 in the ground vertex's row and column.  Every value the build
loops form from integer parts must be a Fraction in lowest terms, exactly
what `Fraction`'s own operators give, and what reaches a caller must be
exactly a `Fraction`."""

import operator
from fractions import Fraction
from itertools import combinations
from math import gcd
from random import Random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import reference as ref
from mg import (
    FiberConfiguration,
    GraphPoint,
    MetrizedGraph,
    RDivisor,
    admissible_measure,
    canonical_measure,
    constant_c,
    e_invariant,
    e_of_system,
    effective_resistance,
    fiber_report,
    green_system,
    linalg,
    path_graph,
    resistance,
    resistance_in_deleted_edge,
)
from gen import frac, random_graph
from test_reference import vertex_spread

FAMILIES = ("tree", "path", "cycle", "parallel", "loops", "mixed", "dense")


def family_graph(rng: Random, family: str) -> MetrizedGraph:
    """A connected graph of the family, with random rational lengths."""
    if family == "tree":
        return random_graph(rng, max_vertices=10, extra_edges=0)
    if family == "mixed":
        return random_graph(rng, max_vertices=10, extra_edges=6)
    n = rng.randint(8, 14) if family == "dense" else rng.randint(1, 10)
    vs = [f"v{i}" for i in range(n)]
    pairs = [(vs[i - 1], vs[i]) for i in range(1, n)]
    if family == "cycle":
        pairs.append((vs[-1], vs[0]))  # a loop when n = 1
    elif family == "parallel" and pairs:
        pairs += [rng.choice(pairs) for _ in range(rng.randint(1, 3))]
    elif family == "loops":
        pairs += [(v, v) for v in rng.sample(vs, rng.randint(1, n))]
    elif family == "dense":  # a path plus n chords: fill that raises degrees
        pairs += [tuple(rng.sample(vs, 2)) for _ in range(n)]
    edges = [(f"e{k}", u, v, frac(rng)) for k, (u, v) in enumerate(pairs)]
    return MetrizedGraph(vs, edges)


def conductances(g: MetrizedGraph) -> list[tuple]:
    """One (i, j, 1/l) per edge, indexed in `vertex_list` order, as the
    resistance kernel passes them."""
    index = {v: i for i, v in enumerate(g.vertex_list)}
    return [(index[e.u], index[e.v], linalg.reciprocal(e.length)) for e in g.edges]


def unit(n: int, j: int) -> list[Fraction]:
    return [Fraction(int(i == j)) for i in range(n)]


def rhs(rng: Random, n: int) -> list[Fraction]:
    """A right-hand side with zero and nonzero entries of either sign."""
    return [
        Fraction(0) if rng.random() < 0.3 else frac(rng, positive=False)
        for _ in range(n)
    ]


def family_system(seed: int, family: str):
    """A graph of the family with a randomly chosen vertex moved to the
    front as the ground: the rng, its vertex count, its conductances and
    the dense Laplacian grounded there, whose row i - 1 is vertex i's."""
    rng = Random(seed)
    g = family_graph(rng, family)
    vs = list(g.vertex_list)
    vs.insert(0, vs.pop(rng.randrange(len(vs))))
    g = MetrizedGraph(vs, [(e.id, e.u, e.v, e.length) for e in g.edges])
    lap = ref._laplacian(g, {v: i for i, v in enumerate(vs)})
    return rng, len(vs), conductances(g), [row[1:] for row in lap[1:]]


def dense_inverse(a: list[list[Fraction]]) -> list[list[Fraction]]:
    """Gamma over all n = len(a) + 1 vertices, from the dense inverse of
    the grounded Laplacian a, with 0 in the ground vertex's row and column."""
    columns = ref.solve_columns(a, [unit(len(a), j) for j in range(len(a))])
    return [[Fraction(0)] * (len(a) + 1)] + [[Fraction(0), *col] for col in columns]


@settings(max_examples=150, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), family=st.sampled_from(FAMILIES))
def test_matches_dense_reference(seed, family):
    rng, n, cs, a = family_system(seed, family)
    factors = linalg.Factorization(n, cs)
    for _ in range(rng.randint(1, 4)):
        b = rhs(rng, n)
        b_copy = list(b)
        x = factors.solve(b)
        assert x == [0, *ref.solve_columns(a, [b[1:]])[0]]
        assert all(type(xi) is Fraction for xi in x)
        assert b == b_copy


@settings(max_examples=150, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), family=st.sampled_from(FAMILIES))
def test_selected_inverse_matches_dense_inverse(seed, family):
    rng, n, cs, a = family_system(seed, family)
    dense = dense_inverse(a)  # columns
    factors = linalg.Factorization(n, cs)
    z = factors._inverse  # the selected inverse, before any other entry is read
    assert len(z) == n and z[0] == {}
    for i in range(1, n):
        # the pattern holds the diagonal and every nonzero of a
        assert {i} | {j + 1 for j, x in enumerate(a[i - 1]) if x} <= z[i].keys()
        for j, x in z[i].items():
            assert x == dense[j][i]
            assert z[j][i] == x
    j = rng.randrange(n)
    assert factors.solve(unit(n, j)) == dense[j]


@settings(max_examples=150, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), family=st.sampled_from(FAMILIES))
def test_every_inverse_entry_matches_dense_inverse(seed, family):
    """Every entry, read in a seeded shuffled order, off the pattern or on
    it, equals the dense inverse's and is then stored both ways, so that
    each entry computed on the way serves the later reads; the ground
    vertex's row and column are 0 and stored nowhere.  The path vectors
    kept on the way stay sparse."""
    rng, n, cs, a = family_system(seed, family)
    dense = dense_inverse(a)  # columns
    factors = linalg.Factorization(n, cs)
    z = factors._inverse
    pairs = [(i, j) for i in range(n) for j in range(n)]
    rng.shuffle(pairs)
    for i, j in pairs:
        assert factors.inverse_entry(i, j) == dense[j][i]
        if i and j:
            assert z[i][j] == z[j][i] == dense[j][i]
    assert z[0] == {}
    for i in range(1, n):
        assert z[i].keys() == set(range(1, n))
        for j, x in z[i].items():
            assert type(x) is Fraction and z[j][i] == x
    assert_paths_stay_sparse(factors)


def root_path(factors, c: int) -> list[int]:
    """c's path to its elimination-tree root, the parent of step k being
    the member of s(k) eliminated first."""
    order, path = factors._order, [c]
    while mults := factors.steps[order[path[-1]]][2]:
        path.append(min((i for i, _ in mults), key=order.__getitem__))
    return path


def assert_paths_stay_sparse(factors):
    """Every path vector w = D^-1 L^-1 e_c kept holds only nonzero values,
    at rows on c's path to its elimination-tree root."""
    for c, w in factors._paths.items():
        assert all(x != 0 for x in w.values())
        assert w.keys() <= set(root_path(factors, c))


def test_inverse_entry_on_a_long_path(counts):
    """On a 3000-vertex unit path, grounded at v1, the first vertex with two
    neighbours, v2 to v2999 are eliminated in order, so their elimination
    tree is one chain of height 2997.  A read far off the pattern solves
    nothing, walks the chain with its explicit stack, so no recursion limit
    is reached, and adds at most 2n entries to the store.  Each column's
    path vector keeps its nonzero entries only, not one per vertex."""
    n = 3000
    g = path_graph([1] * (n - 1), prefix="v")
    kernel = resistance.resistance_kernel(g)
    assert kernel.vertices[0] == "v1"
    factors = kernel._factors
    z = factors._inverse
    for p, q, r in (("v2", "v2999", 2997), ("v1500", "v17", 1483)):
        stored = sum(map(len, z))
        assert effective_resistance(g, p, q) == r
        assert 0 < sum(map(len, z)) - stored <= 2 * n
    assert counts["solve"] == 0
    assert_paths_stay_sparse(factors)
    assert (len(factors._paths), sum(map(len, factors._paths.values()))) == (2, 1501)


@settings(max_examples=150, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), family=st.sampled_from(FAMILIES))
def test_pivot_order_matches_scan(seed, family):
    _, n, cs, a = family_system(seed, family)
    factors = linalg.Factorization(n, cs)
    assert [k for k, _, _ in factors.steps] == [k + 1 for k in ref.pivot_order(a)]


def state(factors):
    """What a factorization keeps: its steps, its pivot positions and the
    entries of Gamma it knows."""
    return factors.steps, factors._order, factors._inverse


def test_parallel_conductances_add():
    """Two edges between one pair conduct as one edge of their sum, also
    at the ground vertex."""
    split = [(0, 1, Fraction(1)), (1, 2, Fraction(1, 2)), (2, 1, Fraction(1, 3)), (1, 0, Fraction(2))]
    whole = [(0, 1, Fraction(3)), (1, 2, Fraction(5, 6))]
    assert state(linalg.Factorization(3, split)) == state(linalg.Factorization(3, whole))


def test_loop_changes_nothing():
    path = [(0, 1, Fraction(1)), (1, 2, Fraction(1, 2))]
    looped = [(2, 2, Fraction(7)), *path, (0, 0, Fraction(3)), (1, 1, Fraction(1, 5))]
    assert state(linalg.Factorization(3, looped)) == state(linalg.Factorization(3, path))


def test_solve_ignores_the_ground_entry():
    factors = linalg.Factorization(3, [(0, 1, Fraction(1)), (1, 2, Fraction(1, 2))])
    x = factors.solve([Fraction(5), 1, Fraction(-1, 3)])
    assert x == factors.solve([0, 1, Fraction(-1, 3)]) == [0, Fraction(2, 3), Fraction(0)]
    assert type(x[0]) is Fraction


def test_ground_row_and_column_are_zero():
    """Gamma_0j = Gamma_i0 = 0, read without storing anything."""
    factors = linalg.Factorization(3, [(0, 1, Fraction(1)), (1, 2, Fraction(1, 2)), (0, 2, Fraction(2))])
    stored = [dict(row) for row in factors._inverse]
    assert [factors.inverse_entry(0, j) for j in range(3)] == [0, 0, 0]
    assert [factors.inverse_entry(i, 0) for i in range(3)] == [0, 0, 0]
    assert factors._inverse == stored and factors._paths == {}


def test_empty_system():
    """A one-vertex graph, loops or not, grounds its only vertex: nothing
    is eliminated, and Gamma is the 1 x 1 zero."""
    for edges in ([], [(0, 0, Fraction(2))]):
        factors = linalg.Factorization(1, edges)
        assert factors.steps == [] and factors._inverse == [{}]
        assert factors.solve([Fraction(7)]) == [0]
        assert factors.inverse_entry(0, 0) == 0


def test_one_unknown():
    factors = linalg.Factorization(2, [(0, 1, Fraction(2, 3))])
    assert factors.solve([0, Fraction(1)]) == [0, Fraction(3, 2)]
    assert factors.solve([Fraction(9), Fraction(-5, 7)]) == [0, Fraction(-15, 14)]
    assert factors._inverse == [{}, {1: Fraction(3, 2)}]


def test_right_hand_side_length_mismatch():
    factors = linalg.Factorization(3, [(0, 1, Fraction(1)), (1, 2, Fraction(1))])
    for b in ([Fraction(1)] * 2, [Fraction(1)] * 4):
        with pytest.raises(ValueError, match="length mismatch"):
            factors.solve(b)


def test_disconnected_graph_is_singular():
    """A component away from the ground vertex, a vertex with no edge and
    one with only a loop all leave a zero pivot."""
    g = MetrizedGraph(
        ["a", "b", "c", "d"],
        [("e0", "a", "b", Fraction(1)), ("e1", "c", "d", Fraction(1, 2))],
    )
    for n, cs in ((4, conductances(g)), (2, []), (3, [(0, 1, Fraction(1)), (2, 2, Fraction(1))])):
        with pytest.raises(ValueError, match="singular system"):
            linalg.Factorization(n, cs)


# -- the fused multiply-subtract -----------------------------------------------

PARTS = st.integers(-5, 5) | st.integers(-(10**40), 10**40)
DENOMINATORS = st.integers(1, 5) | st.integers(1, 10**40)
RATIONALS = st.builds(Fraction, PARTS, DENOMINATORS)


@settings(max_examples=400, deadline=None)
@given(s=st.just(0) | RATIONALS, a=RATIONALS, b=RATIONALS)
def test_submul_matches_operators(s, a, b):
    """The fused s - a*b of the sweeps, and the product a*b on parts, have
    the parts and the type of the Fraction operations they replace, for s
    an int 0 or a Fraction."""
    pairs = [
        (s - a * b, linalg._submul(s, a, b)),
        (a * b, linalg.product(a.numerator, a.denominator, b.numerator, b.denominator)),
    ]
    for want, got in pairs:
        assert (type(got), got.numerator, got.denominator) == (
            type(want), want.numerator, want.denominator
        )


def test_fast_type_never_leaks():
    """Every public result, and every kernel value a read can reach, is a
    plain Fraction: on a 4-cycle with a chord, a loop and a divisor point
    inside an edge, read together with a second point of that edge."""
    g = MetrizedGraph(
        list("abcd"),
        [("ab", "a", "b", Fraction(1, 2)), ("bc", "b", "c", Fraction(2, 3)),
         ("cd", "c", "d", 3), ("da", "d", "a", Fraction(5, 4)),
         ("ac", "a", "c", 2), ("bb", "b", "b", Fraction(3, 2))],
    )
    inside = GraphPoint.on_edge("cd", Fraction(1, 3))
    d = RDivisor({"b": 1, inside: Fraction(3, 2)})
    s = green_system(g, d)
    points = ["a", "c", inside, GraphPoint.on_edge("cd", 2),
              GraphPoint.on_edge("bb", Fraction(1, 2)),
              GraphPoint.on_edge("ac", Fraction(3, 4))]
    values = [e_invariant(g, d), constant_c(s), s.pairing_dd(), e_of_system(s)]
    for x in points:
        values.append(s.green_of_divisor(x))
        for y in points:
            values += [s.eval(x, y), effective_resistance(g, x, y)]
    values += [resistance_in_deleted_edge(g, e) for e in ("ab", "ac", "bb")]
    for m in (canonical_measure(g), admissible_measure(g, d)):
        values += [*m.atoms.values(), *m.densities.values(), m.total_mass()]
    kernel = resistance.resistance_kernel(g)
    n = len(g.vertex_list)
    values += kernel.density.values()
    values += [kernel.entry(i, j) for i in range(n) for j in range(n)]
    cfg = FiberConfiguration(
        [("A", 1), ("B", 0), ("C", 1)],
        [("n1", "A", "B", Fraction(2, 3)), ("n2", "B", "C"), ("s", "B", "B", 2)],
    )
    report = fiber_report(cfg)
    values += [report.e, *report.omega.values()]
    assert [type(v) for v in values if type(v) is not Fraction] == []


# -- big operands --------------------------------------------------------------

BIG_FAMILIES = ("random", "path", "complete")


def big_graph(rng: Random, family: str, digits: int) -> MetrizedGraph:
    """A connected graph of the family whose lengths have parts of at most
    `digits` digits: a `random_graph`, a path, or a complete graph."""
    if family == "random":
        return random_graph(rng, max_vertices=8, min_vertices=2, digits=digits)
    n = rng.randint(2, 10 if family == "path" else 6)
    vs = [f"v{i}" for i in range(n)]
    pairs = [(vs[i - 1], vs[i]) for i in range(1, n)]
    if family == "complete":
        pairs = list(combinations(vs, 2))
    top = 10**digits - 1
    return MetrizedGraph(vs, [(f"e{k}", u, v, frac(rng, top, top)) for k, (u, v) in enumerate(pairs)])


def assert_reduced(x):
    """x is a Fraction in lowest terms, with a positive denominator: `==`
    on Fractions compares the parts, so an unreduced value would compare
    unequal to the reference's, but it is checked on its own too."""
    assert type(x) is Fraction
    assert x.denominator > 0 and gcd(x.numerator, x.denominator) == 1


@settings(max_examples=150, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    family=st.sampled_from(BIG_FAMILIES),
    digits=st.integers(1, 40),
)
def test_big_operands_match_dense_reference(seed, family, digits):
    """With lengths of 1 to 40 digits, every value the back recurrence and
    the kernel's sums form on integer parts equals the dense reference's,
    and is in lowest terms: the selected inverse, solves, every entry off
    the pattern, 2 m_can, k_can and L·x."""
    rng = Random(seed)
    g = big_graph(rng, family, digits)
    kernel = resistance.resistance_kernel(g)
    factors, index, n = kernel._factors, kernel.index, len(kernel.vertices)
    lap = ref._laplacian(g, index)
    a = [row[1:] for row in lap[1:]]
    dense = dense_inverse(a)  # columns
    top = 10**digits - 1

    def big():
        return Fraction(0) if rng.random() < 0.2 else frac(rng, top, top, positive=False)

    # the selected inverse, as the build left it
    for i, row in enumerate(factors._inverse):
        for j, x in row.items():
            assert_reduced(x)
            assert x == dense[j][i]
    for _ in range(2):
        b = [big() for _ in range(n)]
        x = factors.solve(b)
        assert x == [0, *ref.solve_columns(a, [b[1:]])[0]]
        for xi in x:
            assert_reduced(xi)
    for i in range(1, n):
        for j in range(1, n):
            x = factors.inverse_entry(i, j)
            assert_reduced(x)
            assert x == dense[j][i]

    can = ref.canonical_measure(g)
    order = ref.kernel_order(g)
    twice = [2 * m for m in vertex_spread(g, can)]
    assert kernel.canonical == twice
    s = [ref.effective_resistance(g, order[0], v) for v in order]
    k = sum(map(operator.mul, twice, s), Fraction(0))
    k += sum((can.density(e.id) ** 2 * e.length**3 / 3 for e in g.edges), Fraction(0))
    assert kernel.canonical_constant == k
    x = [big() for _ in range(n)]
    assert kernel.laplacian(x) == [sum(map(operator.mul, row, x), Fraction(0)) for row in lap]
    for value in [*kernel.canonical, kernel.canonical_constant, *kernel.laplacian(x)]:
        assert_reduced(value)


@settings(max_examples=100, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    family=st.sampled_from(BIG_FAMILIES),
    digits=st.integers(1, 40),
    changes=st.integers(0, 3),
)
def test_residual_matches_reduced_comparison(seed, family, digits, changes):
    """`residual` tests each vertex's L·x - m for zero on its unreduced
    numerator.  With 1- to 40-digit lengths, and S and 2 m_can perturbed at
    up to three entries, it names the same first failing vertex, with the
    same two sides, as a comparison of the reference's reduced L·x with m,
    whether m is given whole or as the sum of two vectors."""
    rng = Random(seed)
    g = big_graph(rng, family, digits)
    kernel = resistance.resistance_kernel(g)
    top = 10**digits - 1
    x, m = list(kernel.ground.at_vertex), list(kernel.canonical)
    n = len(x)
    for _ in range(changes):
        changed = rng.choice((x, m))
        changed[rng.randrange(n)] += frac(rng, top, top, positive=False)
    lap = [sum(map(operator.mul, row, x), Fraction(0)) for row in ref._laplacian(g, kernel.index)]
    expected = next(((kernel.vertices[i], lap[i], m[i]) for i in range(1, n) if lap[i] != m[i]), None)
    part = [frac(rng, top, top, positive=False) if rng.random() < 0.5 else 0 for _ in range(n)]
    rest = [a - b for a, b in zip(m, part)]
    assert kernel.residual(x, m) == expected
    assert kernel.residual(x, part, rest) == expected
    if changes == 0:
        assert expected is None
