from fractions import Fraction

import pytest

from mg import (
    BadDelta,
    FiberConfiguration,
    FibrationStats,
    GenusTooSmall,
    NoBoundWarning,
    RegimeUnspecified,
    SizeMismatch,
    admissible_self_intersection,
    bogomolov_radius_sq,
    ch_xiao_check,
    fiber_report,
    noether_omega_sq,
    omega_sq_lower_sharp,
    omega_sq_lower_weak,
    radius_sq_closed_form,
    reference_radius_sq,
    slope_check,
    slope_sharp_rhs,
    total_e,
)


class TestSlope:
    def test_rhs_values(self):
        assert slope_sharp_rhs(2, [1, 0]) == 2
        assert slope_sharp_rhs(2, [0, 1]) == 4
        assert slope_sharp_rhs(3, [0, 1]) == 8

    def test_size_mismatch(self):
        with pytest.raises(SizeMismatch):
            slope_sharp_rhs(4, [1, 0])

    def test_check_holds(self):
        check = slope_check(FibrationStats(2, 1, [0, 1]))
        assert (check.lhs, check.rhs, check.slack) == (20, 4, 16)
        assert check.holds

    def test_check_violated(self):
        check = slope_check(FibrationStats(2, 0, [0, 1]))
        assert check.slack == -4
        assert not check.holds

    def test_no_nodes_always_holds(self):
        for g in range(2, 8):
            stats = FibrationStats(g, Fraction(1, 3), [0] * (g // 2 + 1))
            assert slope_check(stats).holds

    def test_ch_xiao(self):
        check = ch_xiao_check(FibrationStats(2, 1, [0, 1]))
        assert check.rhs == 2
        check = ch_xiao_check(FibrationStats(5, 0, [3, 0, 0]))
        assert check.rhs == 15
        check = ch_xiao_check(FibrationStats(2, 1, [10, 0]))
        assert check.slack == 0
        assert check.holds

    def test_sharp_implies_ch_xiao(self):
        # 4i(g-i) >= g for g >= 2 and 1 <= i <= g//2, so the sharp rhs
        # dominates
        for g in range(2, 30):
            for i in range(1, g // 2 + 1):
                assert 4 * i * (g - i) >= g


class TestNoether:
    def test_values(self):
        assert noether_omega_sq(2, 1, [12, 0]) == 0
        assert noether_omega_sq(2, 1, [0, 1]) == 11
        assert noether_omega_sq(2, 0, [0, 0]) == 0


class TestOmegaSqLower:
    def test_sharp_matches_g2_reference(self):
        assert omega_sq_lower_sharp(2, [1, 0]) == Fraction(1, 5)
        assert omega_sq_lower_sharp(2, [0, 1]) == Fraction(7, 5)

    def test_weak_values(self):
        assert omega_sq_lower_weak(2, [1, 0]) == Fraction(1, 6)
        assert omega_sq_lower_weak(2, [0, 1]) == 1
        assert omega_sq_lower_weak(2, [0, 0]) == 0

    def test_weak_below_sharp_coefficientwise(self):
        for g in range(2, 51):
            assert Fraction(g - 1, 3 * g) <= Fraction(g - 1, 2 * g + 1)
            for i in range(1, g // 2 + 1):
                weak = Fraction(4 * i * (g - i), g) - 1
                sharp = Fraction(12 * i * (g - i), 2 * g + 1) - 1
                assert weak <= sharp

    def test_total_e_is_weak_bound(self):
        for g in range(2, 10):
            delta = [Fraction(1, 2)] * (g // 2 + 1)
            assert total_e(g, delta) == omega_sq_lower_weak(g, delta)


class TestAdmissible:
    def test_difference(self):
        assert admissible_self_intersection(Fraction(7, 5), 1) == Fraction(2, 5)
        assert admissible_self_intersection(3, 3) == 0
        assert admissible_self_intersection(
            Fraction(1, 5), Fraction(5, 27)
        ) == Fraction(2, 135)


class TestRadius:
    def test_positive(self):
        assert bogomolov_radius_sq(2, Fraction(2, 5)) == Fraction(2, 5)
        assert bogomolov_radius_sq(3, 1) == 2

    def test_no_bound_warning(self):
        with pytest.warns(NoBoundWarning):
            assert bogomolov_radius_sq(2, 0) == 0
        with pytest.warns(NoBoundWarning):
            assert bogomolov_radius_sq(4, -1) == 0

    def test_genus_check(self):
        with pytest.raises(GenusTooSmall):
            bogomolov_radius_sq(1, 1)

    def test_closed_form_values(self):
        assert radius_sq_closed_form(2, [0, 1]) == Fraction(2, 5)
        assert radius_sq_closed_form(2, [1, 0]) == Fraction(1, 30)
        assert radius_sq_closed_form(3, [0, 1]) == Fraction(32, 21)

    def test_closed_form_irreducible_has_no_positive_type(self):
        """An irreducible fibration's delta is checked as the reference
        radius checks it: type-0 nodes give the plain closed form, and a
        node of positive type raises BadDelta."""
        assert radius_sq_closed_form(3, [1, 0], irreducible=True) == Fraction(8, 63)
        for g, delta in ((3, [1, 2]), (2, [0, 1]), (5, [2, 0, 3])):
            with pytest.raises(BadDelta, match="^an irreducible fibration has nodes of type 0 only$"):
                radius_sq_closed_form(g, delta, irreducible=True)
            assert radius_sq_closed_form(g, delta) > 0

    def test_closed_form_over_states_the_theta_fiber(self):
        """The closed form takes the chain value of e_y.  A genus-2 theta
        fiber (two genus-0 components, three nodes) has a larger exact e_y,
        so a smaller radius."""
        theta = FiberConfiguration(
            [("A", 0), ("B", 0)], [(n, "A", "B") for n in ("n1", "n2", "n3")]
        )
        e = fiber_report(theta).e
        assert radius_sq_closed_form(2, [3, 0]) == Fraction(1, 10)
        assert e == Fraction(5, 9)
        assert bogomolov_radius_sq(2, omega_sq_lower_sharp(2, [3, 0]) - e) == Fraction(2, 45)

    def test_pipeline_identity(self):
        # radius^2 = (g-1) * (sharp omega^2 bound - total e), for all unit
        # deltas
        for g in range(2, 51):
            size = g // 2 + 1
            for i in range(size):
                delta = [0] * size
                delta[i] = 1
                lhs = radius_sq_closed_form(g, delta)
                rhs = (g - 1) * (
                    omega_sq_lower_sharp(g, delta) - total_e(g, delta)
                )
                assert lhs == rhs


class TestReference:
    def test_smooth(self):
        stats = FibrationStats(2, 1, [0, 0], smooth=True)
        assert reference_radius_sq(stats) == 12
        for g in (2, 3, 5):
            stats = FibrationStats(g, 0, [0] * (g // 2 + 1), smooth=True)
            assert reference_radius_sq(stats) == 12 * (g - 1)

    def test_irreducible(self):
        for g in (2, 3, 5):
            delta = [1] + [0] * (g // 2)
            stats = FibrationStats(g, 0, delta)
            got = reference_radius_sq(stats, irreducible=True)
            assert got == Fraction((g - 1) ** 3, 3 * g * (2 * g + 1))
        assert reference_radius_sq(
            FibrationStats(3, 0, [1, 0]), irreducible=True
        ) == Fraction(8, 63)

    def test_irreducible_has_no_positive_type(self):
        # a node of positive type disconnects its fiber
        for g, delta in ((3, [1, 1]), (2, [0, 1]), (5, [2, 0, 3])):
            with pytest.raises(BadDelta, match="^an irreducible fibration has nodes of type 0 only$"):
                reference_radius_sq(FibrationStats(g, 0, delta), irreducible=True)

    def test_genus_two(self):
        assert reference_radius_sq(FibrationStats(2, 0, [1, 1])) == Fraction(56, 135)
        assert reference_radius_sq(FibrationStats(2, 0, [1, 0])) == Fraction(2, 135)
        assert reference_radius_sq(FibrationStats(2, 0, [0, 1])) == Fraction(2, 5)

    def test_unspecified(self):
        with pytest.raises(RegimeUnspecified):
            reference_radius_sq(FibrationStats(3, 0, [0, 1]))


class TestStats:
    def test_smooth_requires_no_nodes(self):
        with pytest.raises(ValueError):
            FibrationStats(2, 1, [1, 0], smooth=True)

    def test_negative_delta_rejected(self):
        with pytest.raises(ValueError):
            FibrationStats(2, 1, [-1, 0])

    def test_delta_size(self):
        with pytest.raises(SizeMismatch):
            FibrationStats(4, 1, [0, 0])
