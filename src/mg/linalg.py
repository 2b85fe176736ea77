"""Exact sparse symmetric elimination over the rationals.

The only numerics the exact side of the library ever needs: solve a
symmetric system with one or many right-hand sides, entirely in Fraction
arithmetic.  Its caller is the resistance kernel, whose matrix is the
grounded Laplacian of a connected graph: symmetric positive definite, with
one off-diagonal nonzero per pair of adjacent vertices.

Method: the nonzeros are read into per-row dicts and eliminated with
diagonal pivots in minimum-degree order (ties go to the lower index), an
LDL^T factorization.  Each step records its pivot d_k and the multipliers
l_ik = a_ik/d_k of its neighbours, and updates only the neighbours' rows:
a_ij -= l_ik a_kj, which creates fill where two neighbours were not
adjacent.  On a graph Laplacian this is Kron (star-mesh) reduction, and
degree-1 and degree-2 vertices go first (series reduction), so trees and
chains, loops and all, factor with no fill.  Each column is then solved by
a forward sweep over the steps that skips zero entries, a diagonal scale and
a back sweep.

Contract: `a` is square and symmetric (else ValueError).  A zero pivot
raises ValueError("singular system"); for a positive semidefinite matrix,
such as the grounded Laplacian of a disconnected graph, that happens exactly
when it is singular.  An indefinite matrix whose pivot in this order is zero
is rejected the same way, even when it is nonsingular.

Cost: O(sum over steps of (neighbours)^2) Fraction operations to factor,
which is O(n) with no fill, and O(k nnz(L)) for k columns, nnz(L) being the
number of recorded multipliers.  Reading the dense input and choosing the
pivots (a scan of the rows left at each step) add O(n^2) integer work.
"""

from __future__ import annotations

from fractions import Fraction


def solve_columns(
    a: list[list[Fraction]], b_columns: list[list[Fraction]]
) -> list[list[Fraction]]:
    """Solve a·x = b for each column b in b_columns; returns the solution
    columns in the same order.  Raises ValueError on a non-symmetric or
    singular matrix."""
    n = len(a)
    for col in b_columns:
        if len(col) != n:
            raise ValueError("right-hand side length mismatch")
    if any(len(row) != n for row in a):
        raise ValueError("matrix is not square")

    diag = [Fraction(0)] * n
    adj: list[dict[int, Fraction]] = [{} for _ in range(n)]
    for i, row in enumerate(a):
        for j, x in enumerate(row):
            if not x:
                continue
            if x != a[j][i]:
                raise ValueError("matrix is not symmetric")
            if i == j:
                diag[i] = x
            else:
                adj[i][j] = x

    # steps of the factorization: (pivot index, d_k, [(i, l_ik)])
    steps = []
    left = set(range(n))
    while left:
        k = min(left, key=lambda i: (len(adj[i]), i))
        left.remove(k)
        d = diag[k]
        if not d:
            raise ValueError("singular system")
        nbrs = list(adj[k].items())
        mults = []
        for p, (i, x) in enumerate(nbrs):
            l = x / d
            mults.append((i, l))
            row = adj[i]
            del row[k]
            diag[i] -= l * x
            for j, y in nbrs[p + 1 :]:
                row[j] = adj[j][i] = row.get(j, 0) - l * y
        steps.append((k, d, mults))

    solutions = []
    for col in b_columns:
        x = list(col)
        for k, _, mults in steps:
            xk = x[k]
            if xk:
                for i, l in mults:
                    x[i] -= l * xk
        for k, d, _ in steps:
            x[k] /= d
        for k, _, mults in reversed(steps):
            s = x[k]
            for i, l in mults:
                xi = x[i]
                if xi:
                    s -= l * xi
            x[k] = s
        solutions.append(x)
    return solutions
