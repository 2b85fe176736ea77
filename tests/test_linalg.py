"""The sparse LDL^T factorization of `mg.linalg` against the dense Gaussian
elimination kept in reference.py: solutions, the selected inverse and the
pivot order must be equal.  The fast rational type the build loops compute
on must give exactly what `Fraction` gives, and must never reach a caller."""

import operator
from fractions import Fraction
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


def grounded_laplacian(g: MetrizedGraph, ground: int) -> list[list[Fraction]]:
    lap = ref._laplacian(g, {v: i for i, v in enumerate(g.vertex_list)})
    rows = lap[:ground] + lap[ground + 1 :]
    return [row[:ground] + row[ground + 1 :] for row in rows]


def sparse(a: list[list[Fraction]]) -> list[dict[int, Fraction]]:
    """The nonzero rows of a dense matrix."""
    return [{j: x for j, x in enumerate(row) if x} for row in a]


def unit(n: int, j: int) -> list[Fraction]:
    return [Fraction(int(i == j)) for i in range(n)]


def rhs(rng: Random, n: int) -> list[Fraction]:
    """A right-hand side with zero and nonzero entries of either sign."""
    return [
        Fraction(0) if rng.random() < 0.3 else frac(rng, positive=False)
        for _ in range(n)
    ]


def family_system(seed: int, family: str):
    rng = Random(seed)
    g = family_graph(rng, family)
    return rng, grounded_laplacian(g, rng.randrange(len(g.vertex_list)))


@settings(max_examples=150, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), family=st.sampled_from(FAMILIES))
def test_matches_dense_reference(seed, family):
    rng, a = family_system(seed, family)
    rows = sparse(a)
    rows_copy = [dict(r) for r in rows]
    factors = linalg.Factorization(rows)
    for _ in range(rng.randint(1, 4)):
        b = rhs(rng, len(a))
        b_copy = list(b)
        x = factors.solve(b)
        assert x == ref.solve_columns(a, [b])[0]
        assert all(type(xi) is FAST for xi in x)
        assert b == b_copy
    assert rows == rows_copy


@settings(max_examples=150, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), family=st.sampled_from(FAMILIES))
def test_selected_inverse_matches_dense_inverse(seed, family):
    rng, a = family_system(seed, family)
    n = len(a)
    dense = ref.solve_columns(a, [unit(n, j) for j in range(n)])  # columns
    factors = linalg.Factorization(sparse(a))
    z = factors._inverse  # the selected inverse, before any other entry is read
    assert len(z) == n
    for i in range(n):
        # the pattern holds the diagonal and every nonzero of a
        assert {i} | {j for j, x in enumerate(a[i]) if x} <= z[i].keys()
        for j, x in z[i].items():
            assert x == dense[j][i]
            assert z[j][i] == x
    if n:
        j = rng.randrange(n)
        assert factors.solve(unit(n, j)) == dense[j]


@settings(max_examples=150, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), family=st.sampled_from(FAMILIES))
def test_every_inverse_entry_matches_dense_inverse(seed, family):
    """Every entry, read in a seeded shuffled order, off the pattern or on
    it, equals the dense inverse's and is then stored both ways, so that
    each entry computed on the way serves the later reads."""
    rng, a = family_system(seed, family)
    n = len(a)
    dense = ref.solve_columns(a, [unit(n, j) for j in range(n)])  # columns
    factors = linalg.Factorization(sparse(a))
    z = factors._inverse
    pairs = [(i, j) for i in range(n) for j in range(n)]
    rng.shuffle(pairs)
    for i, j in pairs:
        assert factors.inverse_entry(i, j) == dense[j][i]
        assert z[i][j] == z[j][i] == dense[j][i]
    for i in range(n):
        assert z[i].keys() == set(range(n))
        for j, x in z[i].items():
            assert type(x) is FAST and z[j][i] == x


def test_inverse_entry_on_a_long_path(monkeypatch):
    """On a 3000-vertex unit path the elimination tree is one chain of
    height 2998.  A read far off the pattern solves nothing, walks the
    chain with its explicit stack, so no recursion limit is reached, and
    adds at most 2n entries to the store."""
    n = 3000
    g = path_graph([1] * (n - 1), prefix="v")
    z = resistance.resistance_kernel(g)._factors._inverse
    solves = []
    real_solve = linalg.Factorization.solve
    monkeypatch.setattr(
        linalg.Factorization, "solve", lambda self, b: solves.append(b) or real_solve(self, b)
    )
    for p, q, r in (("v1", "v2999", 2998), ("v1500", "v17", 1483)):
        stored = sum(map(len, z))
        assert effective_resistance(g, p, q) == r
        assert 0 < sum(map(len, z)) - stored <= 2 * n
    assert solves == []


@settings(max_examples=150, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), family=st.sampled_from(FAMILIES))
def test_pivot_order_matches_scan(seed, family):
    _, a = family_system(seed, family)
    factors = linalg.Factorization(sparse(a))
    assert [k for k, _, _ in factors.steps] == ref.pivot_order(a)


def test_empty_system():
    factors = linalg.Factorization([])
    assert factors.solve([]) == []
    assert factors._inverse == []


def test_one_unknown():
    factors = linalg.Factorization([{0: Fraction(2, 3)}])
    assert factors.solve([Fraction(1)]) == [Fraction(3, 2)]
    assert factors.solve([Fraction(-5, 7)]) == [Fraction(-15, 14)]
    assert factors._inverse == [{0: Fraction(3, 2)}]


def test_zero_entries_are_skipped():
    """A zero entry is no nonzero, so it needs no mirror and adds no
    neighbour."""
    factors = linalg.Factorization([{0: Fraction(2), 1: Fraction(0)}, {1: 3, 0: 0}])
    assert [k for k, _, mults in factors.steps if not mults] == [0, 1]
    assert factors.solve([1, 1]) == [Fraction(1, 2), Fraction(1, 3)]
    assert factors.inverse_entry(0, 1) == 0


def test_right_hand_side_length_mismatch():
    factors = linalg.Factorization(
        [{0: Fraction(2), 1: Fraction(-1)}, {0: Fraction(-1), 1: Fraction(2)}]
    )
    with pytest.raises(ValueError, match="length mismatch"):
        factors.solve([Fraction(1)])


def test_disconnected_graph_is_singular():
    g = MetrizedGraph(
        ["a", "b", "c", "d"],
        [("e0", "a", "b", Fraction(1)), ("e1", "c", "d", Fraction(1, 2))],
    )
    with pytest.raises(ValueError, match="singular system"):
        linalg.Factorization(sparse(grounded_laplacian(g, 0)))


def test_non_symmetric_matrix():
    """An off-diagonal entry with no mirror is rejected whatever its value:
    1 too, the value a wrong default for the missing mirror would match."""
    for x in (Fraction(-1), 1):
        with pytest.raises(ValueError, match="not symmetric"):
            linalg.Factorization([{0: Fraction(2), 1: x}, {1: Fraction(2)}])


def test_index_out_of_range():
    with pytest.raises(ValueError, match="not square"):
        linalg.Factorization([{0: Fraction(2), 1: Fraction(-1)}])


# -- the fast type -------------------------------------------------------------

FAST = type(linalg.fast(0))
PARTS = st.integers(-5, 5) | st.integers(-(10**40), 10**40)
DENOMINATORS = st.integers(1, 5) | st.integers(1, 10**40)
RATIONALS = st.builds(Fraction, PARTS, DENOMINATORS)
OPERANDS = st.one_of(PARTS, RATIONALS, RATIONALS.map(linalg.fast))
OPERATORS = (operator.add, operator.sub, operator.mul, operator.truediv)


def outcome(op, x, y):
    """op(x, y) as (type, value), or the class of the exception it raises."""
    try:
        z = op(x, y)
    except ArithmeticError as exc:
        return type(exc)
    if isinstance(z, float):
        return float, repr(z)  # repr: nan equals nan
    return type(z), (z.numerator, z.denominator)


@settings(max_examples=600, deadline=None)
@given(
    a=RATIONALS, b=OPERANDS, op=st.sampled_from(OPERATORS), reflected=st.booleans()
)
def test_fast_arithmetic_matches_fraction(a, b, op, reflected):
    """a in the fast type against an int, a Fraction or another fast value,
    on either side: the parts of the result are those of Fraction's, and a
    division by zero raises ZeroDivisionError."""
    x, y = (b, linalg.fast(a)) if reflected else (linalg.fast(a), b)
    want = outcome(op, Fraction(x), Fraction(y))
    got = outcome(op, x, y)
    if want is ZeroDivisionError:
        assert got is ZeroDivisionError
    else:
        assert got == (FAST, want[1])


@settings(max_examples=400, deadline=None)
@given(s=st.just(0) | RATIONALS.map(linalg.fast), a=RATIONALS, b=RATIONALS)
def test_submul_matches_operators(s, a, b):
    """The fused s - a*b of the sweeps has the parts and the type of the
    two operations it replaces, for s an int 0 or a fast value."""
    a, b = linalg.fast(a), linalg.fast(b)
    want, got = s - a * b, linalg._submul(s, a, b)
    assert (type(got), got.numerator, got.denominator) == (
        type(want), want.numerator, want.denominator
    )


@given(a=RATIONALS)
def test_fast_negation_and_conversions(a):
    q = linalg.fast(a)
    assert type(q) is FAST and q == a and hash(q) == hash(a) and str(q) == str(a)
    assert type(-q) is FAST and (-q).numerator == -a.numerator
    assert (-q).denominator == a.denominator
    p = linalg.plain(q)
    assert type(p) is Fraction
    assert (p.numerator, p.denominator) == (a.numerator, a.denominator)
    assert type(q**2) is Fraction and q**2 == a**2


COMPARANDS = st.one_of(
    PARTS,
    RATIONALS,
    RATIONALS.map(linalg.fast),
    st.booleans(),
    st.floats(allow_nan=True, allow_infinity=True),
    st.integers(-5, 5).map(float),
)


@settings(max_examples=400, deadline=None)
@given(a=RATIONALS, b=COMPARANDS, reflected=st.booleans())
def test_fast_comparison_matches_fraction(a, b, reflected):
    """==, != and hash of a fast value are Fraction's, against an int, a
    Fraction, a fast value, a float or a bool on either side, and a dict
    keyed by Fraction finds a fast key of equal value."""
    q = linalg.fast(a)
    if reflected:
        assert (b == q) == (b == a) and (b != q) == (b != a)
    else:
        assert (q == b) == (a == b) and (q != b) == (a != b)
    assert hash(q) == hash(a)
    assert {a: "found"}.get(q) == "found" and q in {Fraction(a)}
    if not isinstance(b, float) or b == b:
        assert ({b: 1}.get(q) == 1) == ({b: 1}.get(a) == 1)


@settings(deadline=None)
@given(
    a=RATIONALS,
    f=st.floats(-1e10, 1e10),
    op=st.sampled_from(OPERATORS),
    reflected=st.booleans(),
)
def test_float_operand_gives_what_fraction_gives(a, f, op, reflected):
    args = (f, a) if reflected else (a, f)
    fast_args = (f, linalg.fast(a)) if reflected else (linalg.fast(a), f)
    assert outcome(op, *fast_args) == outcome(op, *args)


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
