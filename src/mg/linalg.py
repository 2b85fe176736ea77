"""Exact sparse factorization of a grounded graph Laplacian over the
rationals.

The only numerics the exact side of the library ever needs: factor a
graph's Laplacian grounded at one vertex once, then solve against it and
read its inverse Gamma where the factorization makes that cheap, entirely
in exact rational arithmetic.  Its caller is the resistance kernel, which
gives the graph's edges as conductances; for a connected graph the
grounded Laplacian is symmetric positive definite, with one off-diagonal
nonzero per pair of adjacent vertices.

Method: the conductances are summed into the diagonal and per-vertex dicts
of the pairs, and vertices are eliminated with diagonal pivots in
minimum-degree order (ties go to the lower index; a heap keyed by (degree,
index) whose stale entries are skipped), an LDL^T factorization.  Each
step records its pivot d_k and the multipliers l_ik = a_ik/d_k of its
neighbours, and updates only the neighbours' rows: a_ij -= l_ik a_kj,
which creates fill where two neighbours were not adjacent.  On a graph
Laplacian this is Kron (star-mesh) reduction, and degree-1 and degree-2
vertices go first (series reduction), so trees and chains, loops and all,
factor with no fill.

The arithmetic runs on `_Q`, a private subclass of Fraction: the caller
gives the conductances in it, and the steps and the two recurrences below
compute on it.  Its `+ - * /` against an int or a Fraction apply the gcd
steps of `fractions` (Henrici, J. ACM 3, 1956) to the parts directly and
skip `fractions`' per-operation dispatch and normalising constructor, so
each result has exactly the numerator and denominator Fraction would give,
at a third to a half of the cost on small operands; on big operands the
gcds dominate and the two cost the same.  There are two reductions, `_sum`
and `_product`, and a division is a product: a/b is `_product` of a's
parts and b's swapped, with b's sign moved to the numerator, which takes
gcd(na, nb) and gcd(db, da), the steps of `Fraction._div`.  Its `==`
against the same operands compares the parts, where Fraction's would first
test the `numbers.Rational` ABC.  Every multiply-subtract s - l*x of the
elimination and of the forward sweep is one `_submul` call: it reduces
the product's parts and then the difference's exactly as `*` and `-`
would, so it gives their parts, but builds one object and skips both
operators' dispatch.  The back recurrence forms its sum on integer parts
instead: each product reduced by its two cross gcds, and a sum of two or
more of them taken from s over the lcm of their denominators (`lcm_sum`,
one gcd per term for the cofactors) and reduced once, by one gcd, in
place of the two gcds per term a reduction per term takes; a sum of one
is `_sum`'s, whose gcd(n, g) is Henrici's and cheaper than a full gcd.
Either gives the value in lowest terms.  `fast` and `plain` convert
between the two types, and `reciprocal` gives 1/x of a positive x in the
fast type by swapping its parts, with no gcd; `ratio` gives n/d of two
ints in it, reduced by one gcd, for a caller that computed on integer
parts, as `lcm_sum` lets a caller sum many terms.  A plain Fraction is an
operand as it is, since the subclass's reflected methods take precedence.
What the factorization gives, the solutions and the entries of the
inverse, stays in the fast type for its one caller, the resistance
kernel; what a user of the package receives is always a plain Fraction.

What is exact where: every value read off the factorization comes from
two recurrences over its steps, each written once, as a method of
`Factorization`, and each skipping zero entries, which it tests on their
numerators, with no call.  With s(k) the neighbours of step k:

* the forward sweep, `_forward(b)`, gives w = D^-1 L^-1 b in place: the
  steps in order, each subtracting l_ik b_k from b_i for i in s(k), then
  dividing b_k by d_k;
* the back recurrence, `_back`, gives x_k = w_k - sum over i in s(k) of
  l_ik x_i for one step k, the sum on integer parts and reduced once, as
  above: run over the steps in reverse, it turns w into
  x = A^-1 b.  Inside one column c of A^-1, w = D^-1 L^-1 e_c is nonzero
  only on c's path to its elimination-tree root: w_c = 1/d_c, and w_k = 0
  for every k eliminated before c.

Its uses:

* `solve(b)` gives Gamma b exactly, for any b of ints and Fractions over
  all vertices, in the fast type: b is converted to it, but for the ground
  vertex's entry, which Gamma's zero column never reads, then the forward
  sweep and the back recurrence at every step in reverse.
* A `Factorization` keeps the entries of A^-1 it knows, and `inverse_entry`
  reads any of them.  Its constructor takes the selected inverse, the
  recurrence on the pattern: the entries on the diagonal and on the
  filled pattern (every nonzero of A, plus the fill), by the recurrence
  run over the steps in reverse: z_ik = 0 - sum over j in s(k) of l_jk
  z_ij for i in s(k), in column i, and z_kk = 1/d_k - sum over i in s(k)
  of l_ik z_ik.  s(k) is a clique of the filled pattern, eliminated after
  k, so every z_ij it reads is already known (Takahashi, Fagan & Chin
  1973).  Each entry is stored in the fast type.
* `inverse_entry(i, j)` computes any other entry, and keeps it: the
  recurrence off the pattern, inside the column c of the later eliminated
  of i and j, with w from the forward sweep on e_c.  The entry at row b
  reads x_m for m in s(b), which lie on b's own root path: an explicit
  stack walks up it, computing only the entries not yet known (Erisman &
  Tinney, CACM 18, 1975).  Every entry computed on the way is stored both
  ways and the nonzero entries of w are kept per column, so an entry is
  computed at most once.

Contract: `Factorization(n, conductances)` takes a graph on the vertices
0..n-1, n >= 1, as one (i, j, c) per edge, c > 0 its conductance in the
fast type.  A is its Laplacian with vertex 0's row and column removed, the
ground: parallel edges add, a loop conducts nothing, and Gamma = A^-1 is
extended by 0 in the ground's row and column.  Vertices 1..n-1 are
eliminated; a zero pivot raises ValueError("singular system"), which
happens exactly when the graph is disconnected.

Cost, nnz(L) being the number of recorded multipliers: O(sum over steps of
(neighbours)^2) rational operations each to factor and for the selected
inverse, which is O(nnz(A)) on a graph that factors with no fill and
bounded degree; O(nnz(L)) per solve.  An entry off the pattern costs the
sum of |s(m)| over the m it computes, all on one root path, and w costs
the same over c's path once, beside a scan of the n steps.  Choosing the
pivots adds O(nnz(L) log n) integer work.
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


def ratio(n: int, d: int) -> _Q:
    """n/d in the fast type, for ints n and d > 0, reduced by one gcd."""
    g = gcd(n, d)
    if g > 1:
        n //= g
        d //= g
    return _q(n, d)


def lcm_sum(terms, n: int = 0, d: int = 1) -> tuple:
    """n/d plus the sum of the fractions (t_n, t_d) of `terms`, each
    denominator > 0 and none needing lowest terms, as integer parts over the
    lcm of the denominators, never their product, and not reduced: each
    term takes one gcd, of its denominator and the running one, for the
    cofactors.  `ratio` of the parts reduces the sum once."""
    for tn, td in terms:
        g = gcd(d, td)
        m = td // g
        n, d = n * m + tn * (d // g), d * m
    return n, d


_ZERO = _q(0, 1)


def plain(x) -> Fraction:
    """An int or a Fraction (of the fast type or not) as a plain Fraction
    of the same value."""
    f = _new(Fraction)
    f._numerator = x.numerator
    f._denominator = x.denominator
    return f


class Factorization:
    """The LDL^T steps of the Laplacian of a graph on the vertices 0..n-1,
    given as one (i, j, c) per edge of conductance c and grounded at vertex
    0, and the entries of its inverse Gamma known so far: the selected
    inverse, taken when it is built, and every entry `inverse_entry` has
    computed since.  Gamma is 0 in the ground vertex's row and column."""

    def __init__(self, n: int, conductances):
        # c adds to the diagonal at both ends and -c to the pair, so
        # parallel edges add and a loop conducts nothing; every sum starts
        # from the int 0, so its first term takes the fast type's int path
        self.n = n
        diag = [0] * n
        adj: list[dict[int, Fraction]] = [{} for _ in range(n)]
        for i, j, c in conductances:
            if i != j:
                diag[i] += c
                diag[j] += c
                if i and j:  # the ground vertex has no row or column
                    adj[i][j] = adj[j][i] = adj[i].get(j, 0) - c

        # steps of the factorization: (pivot index, d_k, [(i, l_ik)]), and
        # each index's position among them, -1 until it is eliminated
        self.steps = []
        order = self._order = [-1] * n
        heap = [(len(adj[i]), i) for i in range(1, n)]
        heapq.heapify(heap)
        while heap:
            degree, k = heapq.heappop(heap)
            if order[k] >= 0 or degree != len(adj[k]):
                continue
            d = diag[k]
            if not d:  # the int 0 too, at a vertex with no edge
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
        # (i, j) on the filled pattern, by the back recurrence over the
        # steps in reverse; `inverse_entry` adds the entries it computes
        z = self._inverse = [{} for _ in range(n)]
        for k, d, mults in reversed(self.steps):
            zk = z[k]
            for i, _ in mults:
                zk[i] = z[i][k] = self._back(_ZERO, mults, z[i])
            zk[k] = self._back(1 / d, mults, zk)
        self._paths: dict[int, dict] = {}  # {c: w}, built by `inverse_entry`

    def solve(self, b: list[Fraction]) -> list[Fraction]:
        """x = Gamma·b over all n vertices, in the fast type: b[0] is not
        read, and x[0] is 0."""
        if len(b) != self.n:
            raise ValueError("right-hand side length mismatch")
        x = [_ZERO, *map(fast, b[1:])]
        self._forward(x)
        for k, _, mults in reversed(self.steps):
            x[k] = self._back(x[k], mults, x)
        return x

    @staticmethod
    def _back(s, mults, x) -> _Q:
        """s - sum of l*x[i] over the (i, l) of `mults`, a zero x[i]
        skipped: the back recurrence of one step, on a vector over the
        vertices or on a column of Gamma, on integer parts.  Each product
        is reduced by its two cross gcds, as `_product` reduces it.  One
        product is taken from s by `_sum`, whose gcd(n, g) is Henrici's;
        two or more are summed with s over the lcm of their denominators
        (`lcm_sum`) and reduced once (`ratio`).  s alone is returned as it
        is."""
        terms = []
        for i, l in mults:
            xi = x[i]
            nb = xi._numerator
            if nb:
                na, da, db = l._numerator, l._denominator, xi._denominator
                g, h = gcd(na, db), gcd(nb, da)
                terms.append((-(na // g) * (nb // h), (da // h) * (db // g)))
        if not terms:
            return s
        n, d = s._numerator, s._denominator
        if len(terms) == 1:
            return _sum(n, d, *terms[0])
        return ratio(*lcm_sum(terms, n, d))

    def _forward(self, x: list[Fraction]) -> None:
        """x = D^-1 L^-1 x in place, over the steps in order: step k takes
        l_ik x_k from each x_i, i in s(k), then divides x_k by d_k, and a
        zero x_k is skipped."""
        for k, d, mults in self.steps:
            xk = x[k]
            if xk._numerator:
                for i, l in mults:
                    x[i] = _submul(x[i], l, xk)
                x[k] = xk / d

    def inverse_entry(self, i: int, j: int) -> Fraction:
        """Gamma_ij in the fast type, read from the entries known, which
        keep every entry computed for it; the int 0 in the ground vertex's
        row and column, which stores nothing.

        An entry not yet known is solved for inside one column c, the later
        eliminated of i and j, at row b, the other.  x = a^-1 e_c has
        x_b = w_b - sum over m in s(b) of l_mb x_m, the back recurrence,
        with w = D^-1 L^-1 e_c (`_path`, kept per column); s(b) lies on
        b's path to its elimination-tree root, so an explicit stack walks
        up that path from b, computes each x_m not yet known once all of
        s(m) is, and stores it both ways.  Every value is exact, so threads racing to
        store an entry or a path store equal ones.
        """
        if not (i and j):
            return 0
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
            zc[m] = z[m][c] = self._back(w.get(m, _ZERO), mults, zc)
            stack.pop()
        return zc[b]

    def _path(self, c: int) -> dict[int, Fraction]:
        """w = D^-1 L^-1 e_c by its nonzero entries: the forward sweep on
        e_c, which scans every step, but of which only the nonzero entries
        are kept, and those lie on c's path to its elimination-tree root."""
        x = [_ZERO] * self.n
        x[c] = _q(1, 1)
        self._forward(x)
        return {k: xk for k, xk in enumerate(x) if xk._numerator}

