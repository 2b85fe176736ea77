"""Closed-form e and Green-diagonal values for composed graphs.

These are the wedge-sum, circle-attachment, segment and chain formulas.  They
take pre-extracted scalars rather than graphs on purpose: they share no code
with the general solver and therefore double as independent oracles for it.
"""

from __future__ import annotations

from fractions import Fraction

from .errors import (
    DegenerateDivisor,
    DegreeMinusTwo,
    NonpositiveCoefficient,
    NonpositiveLength,
    SizeMismatch,
)


def join_e(e1, e2, d1, d2, g1oo, g2oo) -> Fraction:
    """e of a one-point sum from the summands' invariants.

    d1, d2 are the divisor degrees; g1oo, g2oo the Green diagonal values at
    the joining point inside each summand.
    """
    e1, e2, d1, d2 = Fraction(e1), Fraction(e2), Fraction(d1), Fraction(d2)
    g1oo, g2oo = Fraction(g1oo), Fraction(g2oo)
    if d1 == -2 or d2 == -2 or d1 + d2 == -2:
        raise DegreeMinusTwo("a degree among d1, d2, d1+d2 equals -2")
    correction = (2 * d2 * (d1 + 2) * g1oo + 2 * d1 * (d2 + 2) * g2oo) / (
        d1 + d2 + 2
    )
    return e1 + e2 + correction


def join_green_diag(d1, d2, r_op, g2pp, g2oo, g1oo) -> Fraction:
    """Green diagonal g(P,P) on a one-point sum, for P in the second summand.

    r_op is the resistance from the joint to P inside the second summand;
    swap the roles of the summands for P in the first one.
    """
    d1, d2 = Fraction(d1), Fraction(d2)
    r_op, g2pp = Fraction(r_op), Fraction(g2pp)
    g2oo, g1oo = Fraction(g2oo), Fraction(g1oo)
    if d1 == -2 or d2 == -2 or d1 + d2 == -2:
        raise DegreeMinusTwo("a degree among d1, d2, d1+d2 equals -2")
    s = d1 + d2 + 2
    return (
        d1 / s * r_op
        + (d2 + 2) / s * g2pp
        - d1 * (d2 + 2) / s**2 * g2oo
        + (d1 + 2) ** 2 / s**2 * g1oo
    )


def attach_circle_e(e_base, deg_d, l) -> Fraction:
    """e after one-point-summing a circle of length l onto the graph."""
    e_base, deg_d, l = Fraction(e_base), Fraction(deg_d), Fraction(l)
    if deg_d == -2:
        raise DegreeMinusTwo("divisor degree -2")
    return e_base + deg_d * l / (3 * (deg_d + 2))


def segment_invariants(a, b, l) -> tuple[Fraction, Fraction, Fraction]:
    """(e, g(P,P), g(Q,Q)) for the segment of length l with divisor
    (2a-1)P + (2b-1)Q."""
    a, b, l = Fraction(a), Fraction(b), Fraction(l)
    if a + b == 0:
        raise DegenerateDivisor("a + b = 0")
    if l <= 0:
        raise NonpositiveLength(f"segment length {l}")
    e = (4 * a * b / (a + b) - 1) * l
    gpp = b**2 * l / (a + b) ** 2
    gqq = a**2 * l / (a + b) ** 2
    return e, gpp, gqq


def _chain_args(lengths, a) -> tuple[list[Fraction], list[Fraction]]:
    """The chain's lengths and coefficients as Fractions, checked: one more
    coefficient than lengths, and all of both positive."""
    lengths = [Fraction(x) for x in lengths]
    a = [Fraction(x) for x in a]
    if len(a) != len(lengths) + 1:
        raise SizeMismatch(
            f"{len(a)} coefficients for {len(lengths)} segment lengths"
        )
    for x in a:
        if x <= 0:
            raise NonpositiveCoefficient(f"coefficient {x}")
    for l in lengths:
        if l <= 0:
            raise NonpositiveLength(f"length {l}")
    return lengths, a


def chain_e(lengths, a) -> Fraction:
    """e of the n-segment chain with divisor coefficients built from a_0..a_n.

    The divisor is (2a_0-1)P_0 + (2a_n-1)P_n + sum of 2a_i P_i at interior
    vertices; all a_i must be positive, and len(a) = len(lengths) + 1.
    """
    lengths, a = _chain_args(lengths, a)
    total = sum(a)
    result = Fraction(0)
    prefix = Fraction(0)
    for i, l in enumerate(lengths, start=1):
        prefix += a[i - 1]
        suffix = total - prefix
        result += (4 * prefix * suffix / total - 1) * l
    return result


def chain_green_end(lengths, a) -> Fraction:
    """g(P_n, P_n) on the chain: sum of prefix_i^2 l_i over total^2, under
    the same conditions on a and the lengths as `chain_e`."""
    lengths, a = _chain_args(lengths, a)
    total = sum(a)
    result = Fraction(0)
    prefix = Fraction(0)
    for i, l in enumerate(lengths, start=1):
        prefix += a[i - 1]
        result += prefix**2 * l
    return result / total**2


def chain_recursion(e_n, t_n, a_prefix_sum, a_next, l_next) -> tuple[Fraction, Fraction]:
    """One step of the chain recursion: extend by a segment of length l_next
    whose far endpoint carries the new coefficient a_next.

    t_n is the Green diagonal at the chain's current far endpoint; returns
    (e_{n+1}, t_{n+1}).
    """
    e_n, t_n = Fraction(e_n), Fraction(t_n)
    s, a1, l1 = Fraction(a_prefix_sum), Fraction(a_next), Fraction(l_next)
    if a1 <= 0:
        raise NonpositiveCoefficient(f"a_next = {a1}")
    if s <= 0:
        raise NonpositiveCoefficient(f"coefficient prefix sum = {s}")
    if l1 <= 0:
        raise NonpositiveLength(f"l_next = {l1}")
    t_next = s**2 / (s + a1) ** 2 * (t_n + l1)
    w = 4 * a1 * s / (s + a1)
    e_next = e_n + w * t_n + (w - 1) * l1
    return e_next, t_next
