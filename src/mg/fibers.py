"""Semistable fiber configurations and their graph invariants.

A fiber is described by its components (with the geometric genus of each
normalization) and its nodes; a node joining a component to itself is a
self-node.  The configuration graph has one vertex per component and one edge
per node, with the node's length (1 by default, matching the semistable-model
convention that every node counts once).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction

from .bounds import check_genus
from .errors import (
    Disconnected,
    GenusTooSmall,
    NodeNotFound,
    NonpositiveLength,
    NotAChain,
    UnknownComponent,
)
from .graphs import MetrizedGraph, RDivisor
from .green import e_invariant


@dataclass(frozen=True)
class Component:
    id: object
    genus: int

    def __post_init__(self):
        if self.genus < 0:
            raise ValueError(f"component {self.id!r} has negative genus")


@dataclass(frozen=True)
class FiberNode:
    id: object
    a: object
    b: object
    length: Fraction = Fraction(1)

    def is_self_node(self) -> bool:
        return self.a == self.b


@dataclass(frozen=True)
class NodeType:
    node: object
    type: int


class FiberConfiguration:
    """Components plus nodes; validates references at construction."""

    def __init__(self, components, nodes=()):
        comps = []
        for c in components:
            if not isinstance(c, Component):
                c = Component(*c)
            comps.append(c)
        self.components: tuple[Component, ...] = tuple(comps)
        ids = {c.id for c in self.components}
        if len(ids) != len(self.components):
            raise ValueError("duplicate component ids")
        ns = []
        for n in nodes:
            if not isinstance(n, FiberNode):
                if len(n) == 3:
                    n = FiberNode(n[0], n[1], n[2])
                else:
                    n = FiberNode(n[0], n[1], n[2], Fraction(n[3]))
            ns.append(n)
        self.nodes: tuple[FiberNode, ...] = tuple(ns)
        for n in self.nodes:
            for ref in (n.a, n.b):
                if ref not in ids:
                    raise UnknownComponent(
                        f"node {n.id!r} references unknown component {ref!r}"
                    )
            if n.length <= 0:
                raise NonpositiveLength(f"node {n.id!r} has length {n.length}")
        self.node_by_id = {n.id: n for n in self.nodes}
        if len(self.node_by_id) != len(self.nodes):
            raise ValueError("duplicate node ids")

    def genus_of(self, comp_id) -> int:
        for c in self.components:
            if c.id == comp_id:
                return c.genus
        raise UnknownComponent(f"unknown component {comp_id!r}")


def configuration_graph(cfg: FiberConfiguration) -> MetrizedGraph:
    """Vertex per component, edge per node (loops for self-nodes)."""
    return MetrizedGraph(
        [c.id for c in cfg.components],
        [(n.id, n.a, n.b, n.length) for n in cfg.nodes],
    )


def fiber_genus(cfg: FiberConfiguration) -> int:
    """Arithmetic genus: sum of component genera plus the configuration
    graph's first Betti number.  Must be at least 2 and at most MAX_GENUS."""
    g = configuration_graph(cfg)
    if not g.is_connected():
        raise Disconnected("fiber configuration is not connected")
    total = sum(c.genus for c in cfg.components) + g.first_betti()
    check_genus(total)
    if total < 2:
        raise GenusTooSmall(f"fiber has arithmetic genus {total} < 2")
    return total


def _side_genus(cfg, graph, node, start) -> int:
    """Arithmetic genus of the component of graph-minus-node containing
    start: component genera plus the side's first Betti number."""
    seen = {start}
    stack = [start]
    n_edges = 0
    while stack:
        v = stack.pop()
        for e, end in graph.incident(v):
            if e.id == node.id:
                continue
            if end == 0:
                n_edges += 1  # count each non-loop edge once, from its u end
            elif e.is_loop():
                continue
            w = e.v if end == 0 else e.u
            if w not in seen:
                seen.add(w)
                stack.append(w)
    betti = n_edges - len(seen) + 1
    return sum(cfg.genus_of(v) for v in seen) + betti


def classify_node(cfg: FiberConfiguration, node_id) -> NodeType:
    """Type of a node: 0 when removing it keeps the configuration connected,
    otherwise the minimum of the two sides' arithmetic genera."""
    node = cfg.node_by_id.get(node_id)
    if node is None:
        raise NodeNotFound(f"node {node_id!r} is not in the configuration")
    graph = configuration_graph(cfg)
    if node.is_self_node():
        return NodeType(node_id, 0)
    rest = MetrizedGraph(
        graph.vertex_list, [e for e in graph.edges if e.id != node_id]
    )
    if rest.connects(node.a, node.b):
        return NodeType(node_id, 0)
    ga = _side_genus(cfg, graph, node, node.a)
    gb = _side_genus(cfg, graph, node, node.b)
    return NodeType(node_id, min(ga, gb))


def delta_vector(cfg: FiberConfiguration) -> list[int]:
    """Counts of nodes by type, indexed 0..floor(g/2)."""
    g = fiber_genus(cfg)
    counts = [0] * (g // 2 + 1)
    for n in cfg.nodes:
        counts[classify_node(cfg, n.id).type] += 1
    return counts


def _branch_count(cfg, comp_id) -> int:
    count = 0
    for n in cfg.nodes:
        if n.a == comp_id:
            count += 1
        if n.b == comp_id:
            count += 1
    return count


def omega_divisor(cfg: FiberConfiguration) -> RDivisor:
    """The relative dualizing divisor on the configuration graph:
    coefficient 2*genus - 2 + branches at each component, where a self-node
    contributes two branches.  Coefficients sum to 2g - 2."""
    return RDivisor(
        (c.id, 2 * c.genus - 2 + _branch_count(cfg, c.id))
        for c in cfg.components
    )


def unstable_components(cfg: FiberConfiguration) -> list:
    """Components whose omega coefficient is not positive (the chain closed
    form assumes all are)."""
    bad = []
    for c in cfg.components:
        if 2 * c.genus - 2 + _branch_count(cfg, c.id) <= 0:
            bad.append(c.id)
    return bad


def is_chain_of_stable_components(cfg: FiberConfiguration) -> bool:
    """True iff the configuration graph with loops removed is a simple path
    (a single vertex counts, degenerately)."""
    graph = configuration_graph(cfg)
    if not graph.is_connected():
        raise Disconnected("fiber configuration is not connected")
    plain = [e for e in graph.edges if not e.is_loop()]
    n = len(graph.vertex_list)
    if len(plain) != n - 1:
        return False  # a cycle among components, or disconnected
    pairs = set()
    degree = {v: 0 for v in graph.vertex_list}
    for e in plain:
        key = frozenset((e.u, e.v))
        if key in pairs:
            return False
        pairs.add(key)
        degree[e.u] += 1
        degree[e.v] += 1
    return all(d <= 2 for d in degree.values())


def fiber_e(cfg: FiberConfiguration) -> Fraction:
    """e_y = e(G_y, omega_y) via the general solver."""
    fiber_genus(cfg)
    return e_invariant(configuration_graph(cfg), omega_divisor(cfg))


def fiber_e_closed_form(cfg: FiberConfiguration) -> Fraction:
    """e_y for a chain of stable components, from the node types alone:
    each type-0 node contributes (g-1)/(3g) per unit length and each type-i
    node 4i(g-i)/g - 1 per unit length."""
    if not is_chain_of_stable_components(cfg):
        raise NotAChain("fiber is not a chain of stable components")
    g = fiber_genus(cfg)
    total = Fraction(0)
    for n in cfg.nodes:
        i = classify_node(cfg, n.id).type
        if i == 0:
            coeff = Fraction(g - 1, 3 * g)
        else:
            coeff = Fraction(4 * i * (g - i), g) - 1
        total += coeff * n.length
    return total


@dataclass
class FiberReport:
    genus: int
    delta: tuple[int, ...]
    omega: dict
    is_chain: bool
    e: Fraction
    e_closed_form: Fraction | None
    warnings: tuple[str, ...] = field(default_factory=tuple)


def fiber_report(cfg: FiberConfiguration) -> FiberReport:
    g = fiber_genus(cfg)
    delta = tuple(delta_vector(cfg))
    omega = omega_divisor(cfg)
    chain = is_chain_of_stable_components(cfg)
    warnings = tuple(
        f"component {cid!r} is not stable (omega coefficient <= 0)"
        for cid in unstable_components(cfg)
    )
    e = fiber_e(cfg)
    closed = fiber_e_closed_form(cfg) if chain else None
    return FiberReport(
        genus=g,
        delta=delta,
        omega={p.vertex: a for p, a in omega.items()},
        is_chain=chain,
        e=e,
        e_closed_form=closed,
        warnings=warnings,
    )
