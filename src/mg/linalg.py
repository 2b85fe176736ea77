"""Exact sparse symmetric factorization over the rationals.

The only numerics the exact side of the library ever needs: factor a
symmetric matrix once, then solve against it and read its inverse where the
factorization makes that cheap, entirely in exact rational arithmetic.  Its
caller is the resistance kernel, whose matrix is the grounded Laplacian of a
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

The arithmetic runs on `_Q`, a private subclass of Fraction: each entry is
converted once on the way in, and the steps, the sweeps and the recurrence
below compute on it.  Its `+ - * /` against an int or a Fraction apply the
gcd steps of `fractions` (Henrici, J. ACM 3, 1956) to the parts directly
and skip `fractions`' per-operation dispatch and normalising constructor,
so each result has exactly the numerator and denominator Fraction would
give, at a third to a half of the cost on small operands; on big operands
the gcds dominate and the two cost the same.  Its `==` against the same
operands compares the parts, where Fraction's would first test the
`numbers.Rational` ABC.  `fast` and `plain` convert between the two types,
and the rest of the exact side uses them the same way: the resistance
kernel's densities, every potential (`mg.resistance`) and the reads on
them, and in `mg.green` the admissible measure and the constancy
certificate.  A plain Fraction is an operand as it is, since the
subclass's reflected methods take precedence.  The selected inverse stays
in the fast type: its one caller, the resistance kernel, reads its
entries on every resistance and Green value (`ResistanceKernel.pair`).
What a user of the package receives is always a plain Fraction: the
build converts what it keeps public, and each read converts its result.

What is exact where:

* `solve(b)` gives A^-1 b exactly, for any b, as plain Fractions: a forward
  sweep over the steps, a diagonal scale and a back sweep, each skipping
  zero entries.
* `selected_inverse()` gives the entries of A^-1 on the diagonal and on the
  filled pattern (every nonzero of A, plus the fill), by Takahashi's
  recurrence run over the steps in reverse: with s(k) the neighbours of
  step k, z_ik = -sum over j in s(k) of l_jk z_ij for i in s(k), and
  z_kk = 1/d_k - sum over i in s(k) of l_ik z_ik.  s(k) is a clique of the
  filled pattern, eliminated after k, so every z_ij it reads is already
  known (Takahashi, Fagan & Chin 1973; Erisman & Tinney, CACM 18, 1975).
  The sums run as explicit loops in the fast type, and each entry is
  stored in it.  Any other entry of A^-1 costs one `solve` of a unit
  column.

Contract: `rows[i]` maps column j to a_ij, indices in range(len(rows));
the matrix must be symmetric (else ValueError).  A zero pivot raises
ValueError("singular system"); for a positive semidefinite matrix, such as
the grounded Laplacian of a disconnected graph, that happens exactly when it
is singular.  An indefinite matrix whose pivot in this order is zero is
rejected the same way, even when it is nonsingular.

Cost, nnz(L) being the number of recorded multipliers: O(sum over steps of
(neighbours)^2) rational operations each to factor and for the selected
inverse, which is O(nnz(A)) on a graph that factors with no fill and
bounded degree; O(nnz(L)) per solve, plus O(n) to convert the result back
to Fraction.  Choosing the pivots adds O(nnz(L) log n) integer work.
"""

from __future__ import annotations

import heapq
from fractions import Fraction
from math import gcd

_new = object.__new__


class _Q(Fraction):
    """A Fraction whose arithmetic skips `fractions`' per-operation dispatch.

    `+ - * /`, their reflected forms and unary minus, against an int or a
    Fraction, read the parts directly, reduce them by the gcd steps of
    `fractions` (Henrici, J. ACM 3, 1956) and build the result without
    `Fraction.__new__`: every result is in lowest terms with a positive
    denominator, so it has exactly the parts `Fraction` would give.  `==`
    against an int or a Fraction compares the parts, and the hash is
    Fraction's, so equal values hash alike.  Any other operand and every
    other method (ordering, str, `**`) is Fraction's own; `**` returns a
    plain Fraction.  Private to the exact side: every value it returns to
    a caller is converted back with `plain`.
    """

    __slots__ = ()

    def __add__(a, b):
        t = type(b)
        if t is _Q or t is Fraction:
            return _sum(a._numerator, a._denominator, b._numerator, b._denominator)
        if t is int:
            return _q(a._numerator + b * a._denominator, a._denominator)
        return Fraction.__add__(a, b)

    def __radd__(a, b):
        t = type(b)
        if t is _Q or t is Fraction:
            return _sum(b._numerator, b._denominator, a._numerator, a._denominator)
        if t is int:
            return _q(b * a._denominator + a._numerator, a._denominator)
        return Fraction.__radd__(a, b)

    def __sub__(a, b):
        t = type(b)
        if t is _Q or t is Fraction:
            return _sum(a._numerator, a._denominator, -b._numerator, b._denominator)
        if t is int:
            return _q(a._numerator - b * a._denominator, a._denominator)
        return Fraction.__sub__(a, b)

    def __rsub__(a, b):
        t = type(b)
        if t is _Q or t is Fraction:
            return _sum(b._numerator, b._denominator, -a._numerator, a._denominator)
        if t is int:
            return _q(b * a._denominator - a._numerator, a._denominator)
        return Fraction.__rsub__(a, b)

    def __mul__(a, b):
        t = type(b)
        if t is _Q or t is Fraction:
            return _product(a._numerator, a._denominator, b._numerator, b._denominator)
        if t is int:
            return _product(a._numerator, a._denominator, b, 1)
        return Fraction.__mul__(a, b)

    def __rmul__(a, b):
        t = type(b)
        if t is _Q or t is Fraction:
            return _product(b._numerator, b._denominator, a._numerator, a._denominator)
        if t is int:
            return _product(b, 1, a._numerator, a._denominator)
        return Fraction.__rmul__(a, b)

    def __truediv__(a, b):
        t = type(b)
        if (t is _Q or t is Fraction) and b._numerator:
            return _quotient(a._numerator, a._denominator, b._numerator, b._denominator)
        if t is int and b:
            return _quotient(a._numerator, a._denominator, b, 1)
        return Fraction.__truediv__(a, b)  # raises ZeroDivisionError on 0

    def __rtruediv__(a, b):
        t = type(b)
        if a._numerator:
            if t is _Q or t is Fraction:
                return _quotient(b._numerator, b._denominator, a._numerator, a._denominator)
            if t is int:
                return _quotient(b, 1, a._numerator, a._denominator)
        return Fraction.__rtruediv__(a, b)  # raises ZeroDivisionError on 0

    def __neg__(a):
        return _q(-a._numerator, a._denominator)

    def __eq__(a, b):
        t = type(b)
        if t is _Q or t is Fraction:
            return a._numerator == b._numerator and a._denominator == b._denominator
        if t is int:
            return a._denominator == 1 and a._numerator == b
        return Fraction.__eq__(a, b)

    __hash__ = Fraction.__hash__


def _q(n: int, d: int) -> _Q:
    """n/d as a _Q, for n and d coprime and d > 0."""
    x = _new(_Q)
    x._numerator = n
    x._denominator = d
    return x


def _sum(na: int, da: int, nb: int, db: int) -> _Q:
    """na/da + nb/db, both in lowest terms, reduced as `Fraction._add`
    reduces it."""
    g = gcd(da, db)
    if g == 1:
        n, d = na * db + da * nb, da * db
    else:
        s = da // g
        n = na * (db // g) + nb * s
        g = gcd(n, g)
        if g == 1:
            d = s * db
        else:
            n //= g
            d = s * (db // g)
    x = _new(_Q)
    x._numerator = n
    x._denominator = d
    return x


def _product(na: int, da: int, nb: int, db: int) -> _Q:
    """(na/da) * (nb/db), both in lowest terms, reduced as `Fraction._mul`
    reduces it."""
    g = gcd(na, db)
    if g > 1:
        na //= g
        db //= g
    g = gcd(nb, da)
    if g > 1:
        nb //= g
        da //= g
    x = _new(_Q)
    x._numerator = na * nb
    x._denominator = da * db
    return x


def _quotient(na: int, da: int, nb: int, db: int) -> _Q:
    """(na/da) / (nb/db), both in lowest terms and nb != 0, reduced as
    `Fraction._div` reduces it."""
    g = gcd(na, nb)
    if g > 1:
        na //= g
        nb //= g
    g = gcd(db, da)
    if g > 1:
        da //= g
        db //= g
    x = _new(_Q)
    if nb < 0:
        x._numerator = -na * db
        x._denominator = -nb * da
    else:
        x._numerator = na * db
        x._denominator = nb * da
    return x


def fast(x) -> _Q:
    """An int or a Fraction as the same value in the fast type."""
    if type(x) is _Q:
        return x
    return _q(x.numerator, x.denominator)


def plain(x) -> Fraction:
    """An int or a Fraction (of the fast type or not) as a plain Fraction
    of the same value."""
    f = _new(Fraction)
    f._numerator = x.numerator
    f._denominator = x.denominator
    return f


class Factorization:
    """The LDL^T steps of a symmetric matrix given by its nonzero rows."""

    def __init__(self, rows: list[dict[int, Fraction]]):
        n = self.n = len(rows)
        diag = [fast(0)] * n
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
                    diag[i] = fast(x)
                else:
                    adj[i][j] = fast(x)

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
        """x with a·x = b, as plain Fractions."""
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
        return [plain(xi) for xi in x]

    def selected_inverse(self) -> list[dict[int, Fraction]]:
        """z with z[i][j] = (a^-1)_ij for i = j and for every (i, j) on the
        filled pattern, and no other keys, in the fast type."""
        z: list[dict[int, Fraction]] = [{} for _ in range(self.n)]
        for k, d, mults in reversed(self.steps):
            zk = z[k]
            for i, _ in mults:
                zi = z[i]
                s = 0
                for j, l in mults:
                    s -= l * zi[j]
                zk[i] = zi[k] = s
            s = 1 / d
            for i, l in mults:
                s -= l * zk[i]
            zk[k] = s
        return z
