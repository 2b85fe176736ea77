"""Independent floating-point cross-check for the exact solvers.

Each edge is cut into equal sub-edges of size at most h and everything is
solved on the resulting combinatorial network with numpy in float64.  The
measure is rebuilt here from scratch (valence atoms, densities from
discretely computed deleted-edge resistances, trapezoid mass assignment), so
no solve code is shared with the exact modules.  This is the only module in
the library that touches floating point.  numpy is imported inside the
functions that use it, so importing `mg` or running any other `mg` command
does not load it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import TYPE_CHECKING

from .errors import BadGridSize, DegreeMinusTwo
from .graphs import MetrizedGraph, RDivisor, as_point
from .green import green_system

if TYPE_CHECKING:
    import numpy as np

# Largest total number of sub-edges, sum of ceil(length/h) over the edges,
# that `discretize` will build.  The grid then has at most this many nodes
# beyond the original vertices; its Laplacian is dense, so the solves grow
# with the cube of this count.
MAX_GRID_NODES = 1_000


@dataclass
class DiscreteGraph:
    n: int
    links: list  # (i, j, resistance)
    vertex_node: dict  # original vertex id -> node index
    edge_chain: dict  # edge id -> node indices along the edge, endpoints included
    edge_step: dict  # edge id -> sub-edge length (float)

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


def _laplacian(n: int, links) -> np.ndarray:
    import numpy as np
    L = np.zeros((n, n))
    for i, j, r in links:
        if i == j:
            continue
        c = 1.0 / r
        L[i, i] += c
        L[j, j] += c
        L[i, j] -= c
        L[j, i] -= c
    return L


def _solve_grounded(L: np.ndarray, b: np.ndarray) -> np.ndarray:
    import numpy as np
    x = np.zeros(len(b))
    x[1:] = np.linalg.solve(L[1:, 1:], b[1:])
    return x


def _connected_nodes(n: int, links, start: int) -> set:
    adj: dict[int, list[int]] = {}
    for i, j, _ in links:
        adj.setdefault(i, []).append(j)
        adj.setdefault(j, []).append(i)
    seen = {start}
    stack = [start]
    while stack:
        v = stack.pop()
        for w in adj.get(v, ()):
            if w not in seen:
                seen.add(w)
                stack.append(w)
    return seen


def _resistance_between(n: int, links, i: int, j: int) -> float:
    import numpy as np
    if i == j:
        return 0.0
    comp = sorted(_connected_nodes(n, links, i))
    index = {v: k for k, v in enumerate(comp)}
    sub = [(index[a], index[b], r) for a, b, r in links if a in index and b in index]
    L = _laplacian(len(comp), sub)
    b = np.zeros(len(comp))
    b[index[i]] = 1.0
    b[index[j]] = -1.0
    # ground node j by reordering: solve with node index[j] removed
    keep = [k for k in range(len(comp)) if k != index[j]]
    v = np.zeros(len(comp))
    v[keep] = np.linalg.solve(L[np.ix_(keep, keep)], b[keep])
    return float(v[index[i]] - v[index[j]])


def numeric_resistance(g: MetrizedGraph, p, q, h) -> float:
    """Discrete effective resistance; exact (up to rounding) whenever the
    grid resolves p and q, since series subdivision preserves resistance."""
    dg = discretize(g, h)
    i = dg.locate(g, p)
    j = dg.locate(g, q)
    return _resistance_between(dg.n, dg.links, i, j)


def _edge_density(g: MetrizedGraph, dg: DiscreteGraph, e) -> float:
    """Density of the canonical measure on edge e, computed discretely."""
    if e.is_loop():
        return 1.0 / float(e.length)
    chain = set()
    seq = dg.edge_chain[e.id]
    for i in range(len(seq) - 1):
        chain.add((seq[i], seq[i + 1]))
    rest = [
        (i, j, r)
        for i, j, r in dg.links
        if (i, j) not in chain and (j, i) not in chain
    ]
    iu = dg.vertex_node[e.u]
    iv = dg.vertex_node[e.v]
    if iv not in _connected_nodes(dg.n, rest, iu):
        return 0.0  # bridge
    r = _resistance_between(dg.n, rest, iu, iv)
    return 1.0 / (float(e.length) + r)


def _discrete_measure(g: MetrizedGraph, d: RDivisor, dg: DiscreteGraph) -> np.ndarray:
    import numpy as np
    deg = d.degree()
    if deg == -2:
        raise DegreeMinusTwo("divisor has degree -2")
    scale = float(deg) + 2.0
    mass = np.zeros(dg.n)
    for v in g.vertex_list:
        mass[dg.vertex_node[v]] += 2.0 * (1.0 - g.valence(v) / 2.0) / scale
    for e in g.edges:
        dens = 2.0 * _edge_density(g, dg, e) / scale
        if dens == 0.0:
            continue
        chain = dg.edge_chain[e.id]
        step = dg.edge_step[e.id]
        for k, node in enumerate(chain):
            w = 0.5 if k in (0, len(chain) - 1) else 1.0
            mass[node] += dens * step * w
    for p, a in d.items():
        mass[dg.locate(g, p)] += float(a) / scale
    return mass


def numeric_green(g: MetrizedGraph, d: RDivisor, x, y, h) -> float:
    """Discrete Green value g(x, y): solve the grid Poisson problem with
    source delta_x - mu and re-center with the discrete zero-mean rule."""
    import numpy as np
    g.validate()
    dg = discretize(g, h)
    mass = _discrete_measure(g, d, dg)
    L = _laplacian(dg.n, dg.links)
    b = -mass.copy()
    b[dg.locate(g, as_point(x))] += 1.0
    v = _solve_grounded(L, b)
    v = v - float(np.dot(v, mass))
    return float(v[dg.locate(g, as_point(y))])


@dataclass
class ConvergenceRow:
    h: Fraction
    max_error: float


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
