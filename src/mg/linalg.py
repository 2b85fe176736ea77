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
the gcds dominate and the two cost the same.  There are two reductions,
`_sum` and `_product`, and a division is a product: a/b is `_product` of
a's parts and b's swapped, with b's sign moved to the numerator, which
takes gcd(na, nb) and gcd(db, da), the steps of `Fraction._div`.  Its `==`
against the same operands compares the parts, where Fraction's would
first test the `numbers.Rational` ABC.  Every multiply-subtract s - l*x of
the factorization, the sweeps of `solve` and the recurrence is one
`_submul` call: it reduces the product's parts and then the difference's
exactly as `*` and `-` would, so it gives their parts, but builds one
object and skips both operators' dispatch.  `fast` and `plain` convert
between the two types, and `reciprocal` gives 1/x of a positive x in the
fast type by swapping its parts, with no gcd.  A plain Fraction is an
operand as it is, since the subclass's reflected methods take precedence.
What the factorization gives, the solutions and the entries of the
inverse, stays in the fast type for its one caller, the resistance
kernel; what a user of the package receives is always a plain Fraction.

What is exact where:

* `solve(b)` gives A^-1 b exactly, for any b of ints and Fractions, in
  the fast type: b is converted to it, then a forward sweep over the
  steps, a diagonal scale and a back sweep, each skipping zero entries,
  which it tests on their numerators, with no call.
* A `Factorization` keeps the entries of A^-1 it knows, and `inverse_entry`
  reads any of them.  Its constructor takes the selected inverse: the
  entries on the diagonal and on the filled pattern (every nonzero of A,
  plus the fill), by Takahashi's recurrence run over the steps in
  reverse: with s(k) the neighbours of step k, z_ik = -sum over j in s(k)
  of l_jk z_ij for i in s(k), and z_kk = 1/d_k - sum over i in s(k) of
  l_ik z_ik.  s(k) is a clique of the filled pattern, eliminated after k,
  so every z_ij it reads is already known (Takahashi, Fagan & Chin 1973;
  Erisman & Tinney, CACM 18, 1975).  The sums run as explicit loops in
  the fast type, and each entry is stored in it.
* `inverse_entry(i, j)` computes any other entry, and keeps it: the same
  recurrence holds off the pattern when it is run inside one column of
  A^-1.  For that column c, w = D^-1 L^-1 e_c is nonzero only on c's
  path to its elimination-tree root, and the entry at row b reads x_m for
  m in s(b), which lie on b's own path: an explicit stack walks up it,
  computing only the entries not yet known (Erisman & Tinney, CACM 18,
  1975).  Every entry computed on the way is stored both ways and w is
  kept per column, so an entry is computed at most once.

Contract: `rows[i]` maps column j to a_ij, indices in range(len(rows));
the matrix must be symmetric (else ValueError).  A zero pivot raises
ValueError("singular system"); for a positive semidefinite matrix, such as
the grounded Laplacian of a disconnected graph, that happens exactly when it
is singular.  An indefinite matrix whose pivot in this order is zero is
rejected the same way, even when it is nonsingular.

Cost, nnz(L) being the number of recorded multipliers: O(sum over steps of
(neighbours)^2) rational operations each to factor and for the selected
inverse, which is O(nnz(A)) on a graph that factors with no fill and
bounded degree; O(nnz(L)) per solve.  An entry off the pattern costs the sum of |s(m)| over the m
it computes, all on one root path, and w costs the same over c's path
once.  Choosing the pivots adds O(nnz(L) log n) integer work.
"""

from __future__ import annotations

import heapq
from fractions import Fraction
from math import gcd

_new = object.__new__


class _Q(Fraction):
    """A Fraction whose arithmetic skips `fractions`' per-operation dispatch.

    `+ - * /`, their reflected forms, unary minus and `==`, against an int
    or a Fraction, work on the parts as the module docstring states, and
    the hash is Fraction's, so equal values hash alike.  Any other operand
    and every other method (ordering, str, `**`) is Fraction's own; `**`
    returns a plain Fraction.
    """

    __slots__ = ()

    def __add__(a, b):
        t = type(b)
        if t is _Q or t is Fraction:
            return _sum(a._numerator, a._denominator, b._numerator, b._denominator)
        if t is int:
            return _q(a._numerator + b * a._denominator, a._denominator)
        return Fraction.__add__(a, b)

    # _sum and _product give the same parts with their operands swapped
    __radd__ = __add__

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

    __rmul__ = __mul__

    def __truediv__(a, b):
        t = type(b)
        if (t is _Q or t is Fraction) and b._numerator:
            n, d = b._numerator, b._denominator
        elif t is int and b:
            n, d = b, 1
        else:
            return Fraction.__truediv__(a, b)  # raises ZeroDivisionError on 0
        if n < 0:
            n, d = -n, -d
        return _product(a._numerator, a._denominator, d, n)

    def __rtruediv__(a, b):  # b / a for b an int or a plain Fraction
        t = type(b)
        n, d = a._numerator, a._denominator
        if n and (t is int or t is Fraction):
            if n < 0:
                n, d = -n, -d
            return _product(b.numerator, b.denominator, d, n)
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


def _submul(s, a, b) -> _Q:
    """s - a*b for a and b in lowest terms (Fractions, fast or not) and s
    such a value or an int: the parts of `_product` then `_sum`, with one
    object built and no operator dispatch."""
    na, da, nb, db = a._numerator, a._denominator, b._numerator, b._denominator
    g = gcd(na, db)
    if g > 1:
        na //= g
        db //= g
    g = gcd(nb, da)
    if g > 1:
        nb //= g
        da //= g
    if type(s) is int:
        return _sum(s, 1, -na * nb, da * db)
    return _sum(s._numerator, s._denominator, -na * nb, da * db)


def fast(x) -> _Q:
    """An int or a Fraction as the same value in the fast type."""
    if type(x) is _Q:
        return x
    return _q(x.numerator, x.denominator)


def reciprocal(x) -> _Q:
    """1/x in the fast type, for x > 0 an int or a Fraction: its parts
    swapped, which are already coprime, so no gcd is taken."""
    return _q(x.denominator, x.numerator)


_ZERO = _q(0, 1)


def plain(x) -> Fraction:
    """An int or a Fraction (of the fast type or not) as a plain Fraction
    of the same value."""
    f = _new(Fraction)
    f._numerator = x.numerator
    f._denominator = x.denominator
    return f


class Factorization:
    """The LDL^T steps of a symmetric matrix given by its nonzero rows, and
    the entries of its inverse known so far: the selected inverse, taken
    when it is built, and every entry `inverse_entry` has computed since."""

    def __init__(self, rows: list[dict[int, Fraction]]):
        n = self.n = len(rows)
        diag = [fast(0)] * n
        adj: list[dict[int, Fraction]] = [{} for _ in range(n)]
        for i, row in enumerate(rows):
            for j, x in row.items():
                x = fast(x)
                if not x._numerator:
                    continue
                if not 0 <= j < n:
                    raise ValueError("matrix is not square")
                if x != rows[j].get(i, 0):
                    raise ValueError("matrix is not symmetric")
                if i == j:
                    diag[i] = x
                else:
                    adj[i][j] = x

        # steps of the factorization: (pivot index, d_k, [(i, l_ik)]), and
        # each index's position among them, -1 until it is eliminated
        self.steps = []
        order = self._order = [-1] * n
        heap = [(len(a), i) for i, a in enumerate(adj)]
        heapq.heapify(heap)
        while heap:
            degree, k = heapq.heappop(heap)
            if order[k] >= 0 or degree != len(adj[k]):
                continue
            d = diag[k]
            if not d._numerator:
                raise ValueError("singular system")
            nbrs = list(adj[k].items())
            mults = []
            for p, (i, x) in enumerate(nbrs):
                l = x / d
                mults.append((i, l))
                row = adj[i]
                del row[k]
                diag[i] = _submul(diag[i], l, x)
                for j, y in nbrs[p + 1 :]:
                    row[j] = adj[j][i] = _submul(row.get(j, 0), l, y)
            for i, _ in nbrs:
                heapq.heappush(heap, (len(adj[i]), i))
            order[k] = len(self.steps)
            self.steps.append((k, d, mults))

        # the selected inverse: z[i][j] = (a^-1)_ij for i = j and every
        # (i, j) on the filled pattern, by Takahashi's recurrence over the
        # steps in reverse; `inverse_entry` adds the entries it computes
        z = self._inverse = [{} for _ in range(n)]
        for k, d, mults in reversed(self.steps):
            zk = z[k]
            for i, _ in mults:
                zi = z[i]
                s = 0
                for j, l in mults:
                    s = _submul(s, l, zi[j])
                zk[i] = zi[k] = s
            s = 1 / d
            for i, l in mults:
                s = _submul(s, l, zk[i])
            zk[k] = s
        self._paths: dict[int, dict] = {}  # {c: w}, built by `inverse_entry`

    def solve(self, b: list[Fraction]) -> list[Fraction]:
        """x with a·x = b, in the fast type."""
        if len(b) != self.n:
            raise ValueError("right-hand side length mismatch")
        x = [fast(v) for v in b]
        for k, _, mults in self.steps:
            xk = x[k]
            if xk._numerator:
                for i, l in mults:
                    x[i] = _submul(x[i], l, xk)
        for k, d, _ in self.steps:
            if x[k]._numerator:
                x[k] /= d
        for k, _, mults in reversed(self.steps):
            s = x[k]
            for i, l in mults:
                xi = x[i]
                if xi._numerator:
                    s = _submul(s, l, xi)
            x[k] = s
        return x

    def inverse_entry(self, i: int, j: int) -> Fraction:
        """(a^-1)_ij in the fast type, read from the entries known, which
        keep every entry computed for it.

        An entry not yet known is solved for inside one column c, the later
        eliminated of i and j, at row b, the other.  x = a^-1 e_c has
        x_b = w_b - sum over m in s(b) of l_mb x_m, with w = D^-1 L^-1 e_c
        (`_path`, kept per column); s(b) lies on b's path to its
        elimination-tree root, so an explicit stack walks up that path
        from b, computes each x_m not yet known once all of s(m) is, and
        stores it both ways.  Every value is exact, so threads racing to
        store an entry or a path store equal ones.
        """
        z = self._inverse
        x = z[i].get(j)
        if x is not None:
            return x
        c, b = (i, j) if self._order[i] > self._order[j] else (j, i)
        w = self._paths.get(c)
        if w is None:
            w = self._paths.setdefault(c, self._path(c))
        zc, steps, order = z[c], self.steps, self._order
        stack = [b]
        while stack:
            m = stack[-1]
            if m in zc:
                stack.pop()
                continue
            mults = steps[order[m]][2]
            missing = [k for k, _ in mults if k not in zc]
            if missing:
                stack += missing
                continue
            s = w.get(m, _ZERO)
            for k, l in mults:
                s = _submul(s, l, zc[k])
            zc[m] = z[m][c] = s
            stack.pop()
        return zc[b]

    def _path(self, c: int) -> dict[int, Fraction]:
        """w = D^-1 L^-1 e_c by its nonzero entries, which lie on c's path
        to its elimination-tree root: the parent of step k is the member of
        s(k) eliminated first."""
        steps, order = self.steps, self._order
        w, y, k = {}, {c: _q(1, 1)}, c
        while k >= 0:
            _, d, mults = steps[order[k]]
            yk = y.pop(k, _ZERO)
            if yk._numerator:
                for i, l in mults:
                    y[i] = _submul(y.get(i, 0), l, yk)
                w[k] = yk / d
            k = min((i for i, _ in mults), key=order.__getitem__, default=-1)
        return w
