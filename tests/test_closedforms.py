from fractions import Fraction
from random import Random

import pytest
from hypothesis import given
from hypothesis import strategies as st

from mg import (
    DegenerateDivisor,
    DegreeMinusTwo,
    NonpositiveCoefficient,
    NonpositiveLength,
    RDivisor,
    SizeMismatch,
    attach_circle_e,
    chain_e,
    chain_green_end,
    chain_recursion,
    circle_graph,
    e_invariant,
    effective_resistance,
    green_system,
    join_e,
    join_green_diag,
    one_point_sum,
    path_graph,
    segment_graph,
    segment_invariants,
)
from gen import frac, random_divisor, random_graph, random_point

pos_frac = st.fractions(min_value=Fraction(1, 20), max_value=20, max_denominator=20)


class TestSegment:
    def test_unit_case(self):
        assert segment_invariants(1, 1, 1) == (1, Fraction(1, 4), Fraction(1, 4))

    def test_a1_b2_l3(self):
        e, gpp, gqq = segment_invariants(1, 2, 3)
        assert e == 5
        assert gpp == Fraction(4, 3)
        assert gqq == Fraction(1, 3)

    @given(a=pos_frac, b=pos_frac, l=pos_frac)
    def test_swap_symmetry(self, a, b, l):
        e1, gpp1, gqq1 = segment_invariants(a, b, l)
        e2, gpp2, gqq2 = segment_invariants(b, a, l)
        assert e1 == e2
        assert (gpp1, gqq1) == (gqq2, gpp2)

    def test_degenerate(self):
        with pytest.raises(DegenerateDivisor):
            segment_invariants(1, -1, 2)
        with pytest.raises(NonpositiveLength):
            segment_invariants(1, 1, 0)

    def test_matches_solver(self):
        rng = Random(61)
        for _ in range(15):
            a, b = frac(rng, positive=False), frac(rng, positive=False)
            if a + b == 0:
                continue
            l = frac(rng)
            g = segment_graph(l)
            d = RDivisor({"P": 2 * a - 1, "Q": 2 * b - 1})
            e, gpp, gqq = segment_invariants(a, b, l)
            s = green_system(g, d)
            assert s.eval("P", "P") == gpp
            assert s.eval("Q", "Q") == gqq
            assert e_invariant(g, d) == e


class TestJoin:
    def test_joining_a_point_changes_nothing(self):
        assert join_e(Fraction(7, 3), 0, 5, 0, Fraction(1, 2), 0) == Fraction(7, 3)

    def test_circle_reduction(self):
        # d2 = 0, g2oo = l/12 reduces to the circle-attachment formula
        e1, d1, l = Fraction(1), Fraction(2), Fraction(3)
        assert join_e(e1, 0, d1, 0, Fraction(5), l / 12) == attach_circle_e(e1, d1, l)

    def test_degree_errors(self):
        with pytest.raises(DegreeMinusTwo):
            join_e(0, 0, -2, 0, 0, 0)
        with pytest.raises(DegreeMinusTwo):
            join_e(0, 0, 0, -2, 0, 0)
        with pytest.raises(DegreeMinusTwo):
            join_e(0, 0, 3, -5, 0, 0)
        with pytest.raises(DegreeMinusTwo):
            join_green_diag(-2, 0, 0, 0, 0, 0)

    def test_join_point_green_diag_collapses(self):
        # G1 a single point (d1 = 0, g1oo = 0): g(P,P) stays the summand's
        assert join_green_diag(0, 5, Fraction(2), Fraction(3), Fraction(1), 0) == 3

    def test_two_segments_match_solver(self):
        g1 = segment_graph(1)
        d1 = RDivisor({"P": 1, "Q": 1})
        s1 = green_system(g1, d1)
        e1 = e_invariant(g1, d1)
        joined, joint, r1, r2 = one_point_sum(g1, "Q", g1, "P")
        d = d1.relocate(r1) + d1.relocate(r2)
        assert e_invariant(joined, d) == join_e(
            e1, e1, 2, 2, s1.eval("Q", "Q"), s1.eval("P", "P")
        )

    def test_random_joins_match_solver(self):
        rng = Random(67)
        done = 0
        while done < 10:
            g1 = random_graph(rng, max_vertices=4)
            g2 = random_graph(rng, max_vertices=4)
            g1.validate()
            g2.validate()
            d1 = random_divisor(rng, g1)
            d2 = random_divisor(rng, g2)
            if d1.degree() + d2.degree() == -2:
                continue
            x1 = random_point(rng, g1)
            x2 = random_point(rng, g2)
            s1 = green_system(g1, d1)
            s2 = green_system(g2, d2)
            joined, joint, r1, r2 = one_point_sum(g1, x1, g2, x2)
            d = d1.relocate(r1) + d2.relocate(r2)
            expected = join_e(
                e_invariant(g1, d1),
                e_invariant(g2, d2),
                d1.degree(),
                d2.degree(),
                s1.eval(x1, x1),
                s2.eval(x2, x2),
            )
            assert e_invariant(joined, d) == expected

            # the Green diagonal formula for a point of the second summand
            p = random_point(rng, g2)
            sj = green_system(joined, d)
            expected_gpp = join_green_diag(
                d1.degree(),
                d2.degree(),
                effective_resistance(g2, x2, p),
                s2.eval(p, p),
                s2.eval(x2, x2),
                s1.eval(x1, x1),
            )
            assert sj.eval(r2(g2.check_point(p)), r2(g2.check_point(p))) == expected_gpp
            done += 1


class TestCircleAttachment:
    def test_degree_zero_unchanged(self):
        assert attach_circle_e(Fraction(5, 7), 0, 100) == Fraction(5, 7)

    def test_spec_numbers(self):
        assert attach_circle_e(1, 2, 3) == Fraction(3, 2)

    def test_genus_coefficient(self):
        # deg = 2g-2 adds (g-1) l / (3g) per circle
        for g in range(2, 7):
            l = Fraction(5, 3)
            got = attach_circle_e(0, 2 * g - 2, l)
            assert got == Fraction(g - 1, 3 * g) * l

    def test_matches_solver_on_segment_plus_loop(self):
        g1 = segment_graph(1)
        d1 = RDivisor({"P": 1, "Q": 1})
        c = circle_graph(3)
        joined, _, r1, _ = one_point_sum(g1, "P", c, "O")
        d = d1.relocate(r1)
        assert e_invariant(joined, d) == attach_circle_e(1, 2, 3)

    def test_degree_minus_two(self):
        with pytest.raises(DegreeMinusTwo):
            attach_circle_e(0, -2, 1)


def chain_divisor(a):
    n = len(a) - 1
    coeffs = {}
    coeffs["P0"] = 2 * a[0] - 1
    coeffs[f"P{n}"] = coeffs.get(f"P{n}", 0) + 2 * a[n] - 1
    for i in range(1, n):
        coeffs[f"P{i}"] = 2 * a[i]
    return RDivisor(coeffs)


class TestChain:
    def test_single_segment_reduces_to_lemma(self):
        a, b, l = Fraction(3, 2), Fraction(5, 7), Fraction(2)
        assert chain_e([l], [a, b]) == segment_invariants(a, b, l)[0]

    def test_spec_example(self):
        assert chain_e([1, 1], [1, 1, 1]) == Fraction(10, 3)

    def test_one_edge_value(self):
        assert chain_e([5], [1, 2]) == Fraction(25, 3)

    def test_size_mismatch(self):
        with pytest.raises(SizeMismatch):
            chain_e([1, 1], [1, 1])

    def test_nonpositive_inputs(self):
        with pytest.raises(NonpositiveCoefficient):
            chain_e([1], [1, 0])
        with pytest.raises(NonpositiveLength):
            chain_e([0], [1, 1])
        with pytest.raises(NonpositiveCoefficient):
            chain_recursion(0, 0, 1, 0, 1)
        with pytest.raises(NonpositiveLength):
            chain_green_end([-1], [1, 1])
        with pytest.raises(NonpositiveCoefficient):
            chain_green_end([1], [1, -1])

    @given(
        lengths=st.lists(pos_frac, min_size=1, max_size=5),
        data=st.data(),
    )
    def test_reversal_symmetry(self, lengths, data):
        a = data.draw(
            st.lists(pos_frac, min_size=len(lengths) + 1, max_size=len(lengths) + 1)
        )
        assert chain_e(lengths, a) == chain_e(lengths[::-1], a[::-1])

    @given(
        lengths=st.lists(pos_frac, min_size=1, max_size=5),
        scale=pos_frac,
        data=st.data(),
    )
    def test_length_scaling(self, lengths, scale, data):
        a = data.draw(
            st.lists(pos_frac, min_size=len(lengths) + 1, max_size=len(lengths) + 1)
        )
        scaled = [l * scale for l in lengths]
        assert chain_e(scaled, a) == scale * chain_e(lengths, a)

    def test_recursion_reproduces_closed_forms(self):
        rng = Random(71)
        for _ in range(10):
            n = rng.randint(1, 6)
            a = [frac(rng) for _ in range(n + 1)]
            lengths = [frac(rng) for _ in range(n)]
            e, t = Fraction(0), Fraction(0)
            prefix = a[0]
            for i in range(n):
                e, t = chain_recursion(e, t, prefix, a[i + 1], lengths[i])
                prefix += a[i + 1]
            assert e == chain_e(lengths, a)
            assert t == chain_green_end(lengths, a)

    def test_matches_solver(self):
        rng = Random(73)
        for _ in range(8):
            n = rng.randint(1, 5)
            a = [frac(rng, max_num=5, max_den=5) for _ in range(n + 1)]
            lengths = [frac(rng, max_num=5, max_den=5) for _ in range(n)]
            g = path_graph(lengths)
            d = chain_divisor(a)
            assert e_invariant(g, d) == chain_e(lengths, a)
            s = green_system(g, d)
            assert s.eval(f"P{n}", f"P{n}") == chain_green_end(lengths, a)

    def test_one_step_matches_join_formula(self):
        # extending a chain by one segment is a one-point sum with a segment
        a0, a1, a2 = Fraction(1), Fraction(2), Fraction(3, 2)
        l1, l2 = Fraction(1), Fraction(5, 4)
        e1, gqq = segment_invariants(a0, a1, l1)[0], segment_invariants(a0, a1, l1)[2]
        e_seg, gpp2, _ = segment_invariants(a1, a2, l2)
        e2, t2 = chain_recursion(e1, gqq, a0 + a1, a2, l2)
        assert e2 == chain_e([l1, l2], [a0, a1, a2])
        assert t2 == chain_green_end([l1, l2], [a0, a1, a2])
