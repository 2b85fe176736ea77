"""Exact Gaussian elimination over the rationals.

The only numerics the exact side of the library ever needs: solve a dense
nonsingular system with one or many right-hand sides, entirely in Fraction
arithmetic.  Pivots are chosen among the nonzero candidates of the current
column by smallest operand size, which keeps intermediate numerators and
denominators from blowing up on the structured systems we feed in.
"""

from __future__ import annotations

from fractions import Fraction


def _size(x: Fraction) -> int:
    return x.numerator.bit_length() + x.denominator.bit_length()


def solve_columns(
    a: list[list[Fraction]], b_columns: list[list[Fraction]]
) -> list[list[Fraction]]:
    """Solve a·x = b for each column b in b_columns; returns the solution
    columns in the same order.  Raises ValueError on a singular matrix."""
    n = len(a)
    k = len(b_columns)
    for col in b_columns:
        if len(col) != n:
            raise ValueError("right-hand side length mismatch")
    if n == 0:
        return [[] for _ in range(k)]

    rows = [list(a[i]) + [col[i] for col in b_columns] for i in range(n)]
    width = n + k

    for c in range(n):
        pivot_row = -1
        pivot_size = None
        for r in range(c, n):
            x = rows[r][c]
            if x != 0:
                s = _size(x)
                if pivot_size is None or s < pivot_size:
                    pivot_row = r
                    pivot_size = s
        if pivot_row < 0:
            raise ValueError("singular system")
        if pivot_row != c:
            rows[c], rows[pivot_row] = rows[pivot_row], rows[c]
        prow = rows[c]
        pval = prow[c]
        for r in range(c + 1, n):
            f = rows[r][c]
            if f == 0:
                continue
            f = f / pval
            rr = rows[r]
            for j in range(c, width):
                rr[j] = rr[j] - f * prow[j]

    solutions = []
    for j in range(k):
        x = [Fraction(0)] * n
        for i in range(n - 1, -1, -1):
            s = rows[i][n + j]
            ri = rows[i]
            for m in range(i + 1, n):
                s -= ri[m] * x[m]
            x[i] = s / ri[i]
        solutions.append(x)
    return solutions

