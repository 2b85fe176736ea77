"""Exact sparse symmetric factorization over the rationals.

The only numerics the exact side of the library ever needs: factor a
symmetric matrix once, then solve against it and read its inverse where the
factorization makes that cheap, entirely in Fraction arithmetic.  Its caller
is the resistance kernel, whose matrix is the grounded Laplacian of a
connected graph: symmetric positive definite, with one off-diagonal nonzero
per pair of adjacent vertices.

Method: the nonzeros are read into per-row dicts and eliminated with
diagonal pivots in minimum-degree order (ties go to the lower index; a heap
keyed by (degree, index) whose stale entries are skipped), an LDL^T
factorization.  Each step records its pivot d_k and the multipliers
l_ik = a_ik/d_k of its neighbours, and updates only the neighbours' rows:
a_ij -= l_ik a_kj, which creates fill where two neighbours were not
adjacent.  On a graph Laplacian this is Kron (star-mesh) reduction, and
degree-1 and degree-2 vertices go first (series reduction), so trees and
chains, loops and all, factor with no fill.

What is exact where:

* `solve(b)` gives A^-1 b exactly, for any b: a forward sweep over the
  steps, a diagonal scale and a back sweep, each skipping zero entries.
* `selected_inverse()` gives the entries of A^-1 on the diagonal and on the
  filled pattern (every nonzero of A, plus the fill), by Takahashi's
  recurrence run over the steps in reverse: with s(k) the neighbours of
  step k, z_ik = -sum over j in s(k) of l_jk z_ij for i in s(k), and
  z_kk = 1/d_k - sum over i in s(k) of l_ik z_ik.  s(k) is a clique of the
  filled pattern, eliminated after k, so every z_ij it reads is already
  known (Takahashi, Fagan & Chin 1973; Erisman & Tinney, CACM 18, 1975).
  Any other entry of A^-1 costs one `solve` of a unit column.

Contract: `rows[i]` maps column j to a_ij, indices in range(len(rows));
the matrix must be symmetric (else ValueError).  A zero pivot raises
ValueError("singular system"); for a positive semidefinite matrix, such as
the grounded Laplacian of a disconnected graph, that happens exactly when it
is singular.  An indefinite matrix whose pivot in this order is zero is
rejected the same way, even when it is nonsingular.

Cost, nnz(L) being the number of recorded multipliers: O(sum over steps of
(neighbours)^2) Fraction operations each to factor and for the selected
inverse, which is O(nnz(A)) on a graph that factors with no fill and
bounded degree; O(nnz(L)) per solve.  Choosing the pivots adds
O(nnz(L) log n) integer work.
"""

from __future__ import annotations

import heapq
from fractions import Fraction


class Factorization:
    """The LDL^T steps of a symmetric matrix given by its nonzero rows."""

    def __init__(self, rows: list[dict[int, Fraction]]):
        n = self.n = len(rows)
        diag = [Fraction(0)] * n
        adj: list[dict[int, Fraction]] = [{} for _ in range(n)]
        for i, row in enumerate(rows):
            for j, x in row.items():
                if not x:
                    continue
                if not 0 <= j < n:
                    raise ValueError("matrix is not square")
                if x != rows[j].get(i, 0):
                    raise ValueError("matrix is not symmetric")
                if i == j:
                    diag[i] = x
                else:
                    adj[i][j] = x

        # steps of the factorization: (pivot index, d_k, [(i, l_ik)])
        self.steps = []
        heap = [(len(a), i) for i, a in enumerate(adj)]
        heapq.heapify(heap)
        done = [False] * n
        while heap:
            degree, k = heapq.heappop(heap)
            if done[k] or degree != len(adj[k]):
                continue
            done[k] = True
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
            for i, _ in nbrs:
                heapq.heappush(heap, (len(adj[i]), i))
            self.steps.append((k, d, mults))

    def solve(self, b: list[Fraction]) -> list[Fraction]:
        """x with a·x = b."""
        if len(b) != self.n:
            raise ValueError("right-hand side length mismatch")
        x = list(b)
        for k, _, mults in self.steps:
            xk = x[k]
            if xk:
                for i, l in mults:
                    x[i] -= l * xk
        for k, d, _ in self.steps:
            if x[k]:
                x[k] /= d
        for k, _, mults in reversed(self.steps):
            s = x[k]
            for i, l in mults:
                xi = x[i]
                if xi:
                    s -= l * xi
            x[k] = s
        return x

    def selected_inverse(self) -> list[dict[int, Fraction]]:
        """z with z[i][j] = (a^-1)_ij for i = j and for every (i, j) on the
        filled pattern, and no other keys."""
        z: list[dict[int, Fraction]] = [{} for _ in range(self.n)]
        for k, d, mults in reversed(self.steps):
            zk = z[k]
            for i, _ in mults:
                zi = z[i]
                zk[i] = zi[k] = -sum(l * zi[j] for j, l in mults)
            zk[k] = 1 / d - sum(l * zk[i] for i, l in mults)
        return z
