"""Slope-inequality and effective-Bogomolov bound arithmetic.

Pure rational formulas in the genus g, the Hodge degree lambda, and the
vector of node counts delta_0..delta_[g/2].  Radii are kept squared so the
module stays closed under rational arithmetic; callers take square roots for
display only.
"""

from __future__ import annotations

import warnings
from fractions import Fraction

from ._record import Record
from .errors import (
    BadDelta,
    GenusTooLarge,
    GenusTooSmall,
    NoBoundWarning,
    RegimeUnspecified,
    SizeMismatch,
)

# Largest genus accepted.  A delta vector has g // 2 + 1 entries, so a genus
# read from input would otherwise size an unbounded allocation.
MAX_GENUS = 10_000


def check_genus(g: int) -> None:
    """Raise GenusTooLarge when g exceeds MAX_GENUS."""
    if g > MAX_GENUS:
        raise GenusTooLarge(f"genus {g} exceeds the limit {MAX_GENUS}")


def _check_delta(g: int, delta) -> list[Fraction]:
    check_genus(g)
    if g < 2:
        raise GenusTooSmall(f"genus {g} < 2")
    delta = [Fraction(x) for x in delta]
    if len(delta) != g // 2 + 1:
        raise SizeMismatch(
            f"delta has {len(delta)} entries, expected {g // 2 + 1} for genus {g}"
        )
    return delta


def _combine(g: int, delta, coeff) -> Fraction:
    """Sum of coeff(i) delta_i over a delta vector checked against g."""
    return sum((coeff(i) * d for i, d in enumerate(_check_delta(g, delta))), Fraction(0))


def chain_e_coefficient(g: int, i: int) -> Fraction:
    """The e_y of a chain fiber per unit length of a type-i node in genus g:
    (g-1)/(3g) for type 0 and 4i(g-i)/g - 1 otherwise."""
    return Fraction(4 * i * (g - i) - g, g) if i else Fraction(g - 1, 3 * g)


class FibrationStats(Record):
    """Numerical invariants of a semistable fibration of genus g."""

    __slots__ = ("g", "lambda_deg", "delta", "smooth")

    def __init__(self, g: int, lambda_deg: Fraction, delta: tuple, smooth: bool = False):
        self.g = g
        self.lambda_deg = Fraction(lambda_deg)
        self.delta = tuple(_check_delta(g, delta))
        self.smooth = smooth
        if any(d < 0 for d in self.delta):
            raise BadDelta("delta entries must be nonnegative")
        if smooth and any(self.delta):
            raise BadDelta("a smooth fibration has no nodes")


class InequalityCheck(Record):
    __slots__ = ("lhs", "rhs", "slack", "holds")

    def __init__(self, lhs: Fraction, rhs: Fraction, slack: Fraction, holds: bool):
        self.lhs = lhs
        self.rhs = rhs
        self.slack = slack
        self.holds = holds


def slope_sharp_rhs(g: int, delta) -> Fraction:
    """g*delta_0 + sum of 4i(g-i)*delta_i."""
    return _combine(g, delta, lambda i: 4 * i * (g - i) if i else g)


def _check(stats: FibrationStats, rhs: Fraction) -> InequalityCheck:
    """(8g+4) lambda against rhs."""
    lhs = (8 * stats.g + 4) * stats.lambda_deg
    slack = lhs - rhs
    return InequalityCheck(lhs, rhs, slack, slack >= 0)


def slope_check(stats: FibrationStats) -> InequalityCheck:
    """(8g+4) lambda against the sharp right-hand side."""
    return _check(stats, slope_sharp_rhs(stats.g, stats.delta))


def ch_xiao_check(stats: FibrationStats) -> InequalityCheck:
    """(8g+4) lambda against g times the total node count."""
    return _check(stats, stats.g * sum(stats.delta, Fraction(0)))


def noether_omega_sq(g: int, lambda_deg, delta) -> Fraction:
    """omega^2 = 12 lambda - total delta."""
    delta = _check_delta(g, delta)
    return 12 * Fraction(lambda_deg) - sum(delta, Fraction(0))


def omega_sq_lower_sharp(g: int, delta) -> Fraction:
    """Lower bound for omega^2 from the sharp slope inequality and Noether:
    (g-1)/(2g+1) delta_0 + sum (12i(g-i)/(2g+1) - 1) delta_i."""
    return _combine(
        g,
        delta,
        lambda i: Fraction(12 * i * (g - i), 2 * g + 1) - 1 if i else Fraction(g - 1, 2 * g + 1),
    )


def omega_sq_lower_weak(g: int, delta) -> Fraction:
    """Lower bound for omega^2 from the chain e-sum alone:
    (g-1)/(3g) delta_0 + sum (4i(g-i)/g - 1) delta_i."""
    return _combine(g, delta, lambda i: chain_e_coefficient(g, i))


def total_e(g: int, delta) -> Fraction:
    """Sum of the local invariants e_y over all singular fibers of a chain
    fibration; the same expression as omega_sq_lower_weak."""
    return omega_sq_lower_weak(g, delta)


def admissible_self_intersection(omega_sq, e_total) -> Fraction:
    """(omega^a . omega^a)_a = omega^2 minus the sum of the e_y."""
    return Fraction(omega_sq) - Fraction(e_total)


def bogomolov_radius_sq(g: int, adm) -> Fraction:
    """(g-1) times the admissible self-intersection: the squared radius of
    the ball guaranteed to contain only finitely many algebraic points.

    A nonpositive admissible self-intersection yields no bound; 0 is
    returned and a NoBoundWarning issued.
    """
    if g < 2:
        raise GenusTooSmall(f"genus {g} < 2")
    adm = Fraction(adm)
    if adm <= 0:
        warnings.warn(
            NoBoundWarning(
                f"admissible self-intersection {adm} <= 0: no positive radius"
            ),
            stacklevel=2,
        )
        return Fraction(0)
    return (g - 1) * adm


def _check_irreducible(delta) -> None:
    """A node of positive type disconnects its fiber, so an irreducible
    fibration has nodes of type 0 only: raise BadDelta on a delta_i > 0
    for i >= 1."""
    if any(delta[1:]):
        raise BadDelta("an irreducible fibration has nodes of type 0 only")


def radius_sq_closed_form(g: int, delta, *, irreducible: bool = False) -> Fraction:
    """The squared-radius radicand
    (g-1)^2/(g(2g+1)) * ((g-1)/3 delta_0 + sum 4i(g-i) delta_i).

    Applicability (non-smooth fibration, chain fibers, hyperelliptic or at
    most one positive-type node per fiber) is the caller's to assert; the
    CLI echoes those flags verbatim.  An irreducible fibration's delta is
    checked as `reference_radius_sq` checks it: a delta_i > 0 for i >= 1
    raises BadDelta.

    The form takes the chain value of sum e_y, so it is the paper's radius
    on chain fibers.  It over-states the radius on the theta fiber: genus
    2, delta (3, 0) gives 1/10 here, but 2/45 with the exact e_y = 5/9.
    That it never under-states stays an observation until e_y is certified
    never to fall below its chain value.
    """
    if irreducible:
        _check_irreducible(_check_delta(g, delta))
    inner = _combine(g, delta, lambda i: 4 * i * (g - i) if i else Fraction(g - 1, 3))
    return Fraction((g - 1) ** 2, g * (2 * g + 1)) * inner


def reference_radius_sq(stats: FibrationStats, *, irreducible: bool = False) -> Fraction:
    """Squared radii of the prior reference results.

    Regimes: smooth fibrations (12(g-1)); irreducible singular fibers
    ((g-1)^3/(3g(2g+1)) delta_0); genus 2 (2/135 delta_0 + 2/5 delta_1).
    The smooth flag wins, then irreducible, then genus 2.  A node of
    positive type disconnects its fiber, so an irreducible fibration has
    nodes of type 0 only: a delta_i > 0 for i >= 1 raises BadDelta.
    """
    g = stats.g
    if stats.smooth:
        return Fraction(12 * (g - 1))
    if irreducible:
        _check_irreducible(stats.delta)
        return Fraction((g - 1) ** 3, 3 * g * (2 * g + 1)) * stats.delta[0]
    if g == 2:
        return Fraction(2, 135) * stats.delta[0] + Fraction(2, 5) * stats.delta[1]
    raise RegimeUnspecified(
        "no reference regime applies: pass smooth or irreducible, or use g = 2"
    )
