"""Independent floating-point cross-check for the exact solvers.

Each edge is cut into equal sub-edges of size at most h and everything is
solved on the resulting combinatorial network with numpy in float64.  Each
call inverts the grid Laplacian, grounded at one node, once; resistances,
the canonical measure (valence atoms, and on each sub-edge a density read
off the resistance between its ends) and the Green values all come from
that one inverse, and no solve code is shared with the exact modules.  This
is the only module in the library that touches floating point.  numpy is
imported inside the functions that use it, so importing `mg` or running any
other `mg` command does not load it, and it is an optional dependency, the
`oracle` extra: without it, the oracle raises `MissingExtra`, an InputError.
"""

from __future__ import annotations

import math
from fractions import Fraction

from ._record import Record
from .errors import BadGridSize, DegreeMinusTwo, MissingExtra
from .graphs import MetrizedGraph, RDivisor, as_point
from .green import green_system

# Largest total number of sub-edges, sum of ceil(length/h) over the edges,
# that `discretize` will build.  The grid then has at most this many nodes
# beyond the original vertices; each call inverts its dense Laplacian once,
# so the time grows with the cube of the node count and the memory with its
# square.
MAX_GRID_NODES = 1_000


class DiscreteGraph(Record):
    __slots__ = ("n", "links", "vertex_node", "edge_chain", "edge_step")

    def __init__(
        self,
        n: int,
        links: list,  # (i, j, resistance)
        vertex_node: dict,  # original vertex id -> node index
        edge_chain: dict,  # edge id -> node indices along the edge, endpoints included
        edge_step: dict,  # edge id -> sub-edge length (float)
    ):
        self.n = n
        self.links = links
        self.vertex_node = vertex_node
        self.edge_chain = edge_chain
        self.edge_step = edge_step

    def locate(self, g: MetrizedGraph, point) -> int:
        """Node index of an original vertex, or the nearest grid node to an
        edge-interior point."""
        p = g.check_point(point)
        if p.is_vertex:
            return self.vertex_node[p.vertex]
        chain = self.edge_chain[p.edge]
        step = self.edge_step[p.edge]
        k = int(round(float(p.offset) / step))
        k = min(max(k, 0), len(chain) - 1)
        return chain[k]


def discretize(g: MetrizedGraph, h) -> DiscreteGraph:
    """Split every edge into ceil(length/h) equal sub-edges.

    Raises BadGridSize, before anything is allocated, when h is not positive
    or when the sub-edges would number more than MAX_GRID_NODES.
    """
    h = Fraction(h)
    if h <= 0:
        raise BadGridSize(f"grid size h = {h} must be positive")
    counts = [math.ceil(e.length / h) for e in g.edges]
    if sum(counts) > MAX_GRID_NODES:
        raise BadGridSize(
            f"grid size h = {h} makes {sum(counts)} sub-edges, "
            f"more than the limit {MAX_GRID_NODES}"
        )
    vertex_node = {v: i for i, v in enumerate(g.vertex_list)}
    n = len(g.vertex_list)
    links = []
    edge_chain = {}
    edge_step = {}
    for e, m in zip(g.edges, counts):
        step = e.length / m
        chain = [vertex_node[e.u]]
        for _ in range(m - 1):
            chain.append(n)
            n += 1
        chain.append(vertex_node[e.v])
        for i in range(m):
            links.append((chain[i], chain[i + 1], float(step)))
        edge_chain[e.id] = chain
        edge_step[e.id] = float(step)
    return DiscreteGraph(n, links, vertex_node, edge_chain, edge_step)


def _numpy():
    """The numpy module, or MissingExtra if it is not installed."""
    try:
        import numpy
    except ImportError:
        raise MissingExtra(
            "the oracle needs numpy, which the 'oracle' extra installs: "
            "pip install 'mg[oracle]'"
        ) from None
    return numpy


def _grounded_inverse(dg: DiscreteGraph) -> np.ndarray:
    """Inverse X of the grid Laplacian grounded at node 0, with row and
    column 0 zero, so that r(i, j) = X_ii + X_jj - 2 X_ij."""
    np = _numpy()
    L = np.zeros((dg.n, dg.n))
    for i, j, s in dg.links:
        if i == j:
            continue
        c = 1.0 / s
        L[i, i] += c
        L[j, j] += c
        L[i, j] -= c
        L[j, i] -= c
    X = np.zeros((dg.n, dg.n))
    X[1:, 1:] = np.linalg.inv(L[1:, 1:])
    return X


def _resistance(X: np.ndarray, i: int, j: int) -> float:
    return float(X[i, i] + X[j, j] - 2.0 * X[i, j])


def numeric_resistance(g: MetrizedGraph, p, q, h) -> float:
    """Discrete effective resistance; exact (up to rounding) whenever the
    grid resolves p and q, since series subdivision preserves resistance."""
    g.validate()
    dg = discretize(g, h)
    return _resistance(_grounded_inverse(dg), dg.locate(g, p), dg.locate(g, q))


def _discrete_measure(
    g: MetrizedGraph, d: RDivisor, dg: DiscreteGraph, X: np.ndarray
) -> np.ndarray:
    """Node masses of mu = (delta_D + 2 mu_can)/(deg D + 2).  mu_can is the
    grid's own canonical measure, which subdivision leaves unchanged: atoms
    1 - valence/2 at the original vertices, and on a sub-edge of length s with
    ends r apart the density (s - r)/s^2, half its mass lumped on each end."""
    np = _numpy()
    scale = float(d.degree()) + 2.0
    mass = np.zeros(dg.n)
    for v in g.vertex_list:
        mass[dg.vertex_node[v]] += 2.0 * (1.0 - g.valence(v) / 2.0) / scale
    for i, j, s in dg.links:
        half = (1.0 - _resistance(X, i, j) / s) / scale
        mass[i] += half
        mass[j] += half
    for p, a in d.items():
        mass[dg.locate(g, p)] += float(a) / scale
    return mass


def numeric_green(g: MetrizedGraph, d: RDivisor, x, y, h) -> float:
    """Discrete Green value g(x, y): solve the grid Poisson problem with
    source delta_x - mu and re-center with the discrete zero-mean rule."""
    g.validate()
    if d.degree() == -2:
        raise DegreeMinusTwo("divisor has degree -2")
    dg = discretize(g, h)
    X = _grounded_inverse(dg)
    mass = _discrete_measure(g, d, dg, X)
    b = -mass
    b[dg.locate(g, as_point(x))] += 1.0
    v = X @ b
    v = v - float(v @ mass)
    return float(v[dg.locate(g, as_point(y))])


class ConvergenceRow(Record):
    __slots__ = ("h", "max_error")

    def __init__(self, h: Fraction, max_error: float):
        self.h = h
        self.max_error = max_error


def convergence_report(g: MetrizedGraph, d: RDivisor, probes, h_list) -> list[ConvergenceRow]:
    """Max |numeric - exact| over the probe point pairs, per grid size."""
    s = green_system(g, d)
    exact = [float(s.eval(x, y)) for x, y in probes]
    rows = []
    for h in h_list:
        h = Fraction(h)
        errs = [
            abs(numeric_green(g, d, x, y, h) - ex)
            for (x, y), ex in zip(probes, exact)
        ]
        rows.append(ConvergenceRow(h, max(errs)))
    return rows


def observed_orders(rows: list[ConvergenceRow]) -> list[float]:
    """log2 error ratios between successive rows, scaled by the h ratio."""
    orders = []
    for a, b in zip(rows, rows[1:]):
        if b.max_error == 0 or a.max_error == 0:
            orders.append(float("inf"))
            continue
        ratio = math.log(a.max_error / b.max_error)
        hratio = math.log(float(a.h) / float(b.h))
        orders.append(ratio / hratio)
    return orders
