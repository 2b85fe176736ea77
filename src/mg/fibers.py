"""Semistable fiber configurations and their graph invariants.

A fiber is described by its components (with the geometric genus of each
normalization) and its nodes; a node joining a component to itself is a
self-node.  The configuration graph has one vertex per component and one edge
per node, with the node's length (1 by default, matching the semistable-model
convention that every node counts once).  A node converts a length that is
not a `Fraction` to one itself, and a component takes an int genus only.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cached_property

from ._record import Frozen, Record, setfield
from .bounds import chain_e_coefficient, check_genus
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
from .linalg import fast, plain


class Component(Frozen):
    __slots__ = ("id", "genus")

    def __init__(self, id, genus: int):
        if not isinstance(genus, int):
            raise TypeError(f"component {id!r} has genus {genus!r}, not an int")
        if genus < 0:
            raise ValueError(f"component {id!r} has negative genus")
        setfield(self, "id", id)
        setfield(self, "genus", genus)


class FiberNode(Frozen):
    __slots__ = ("id", "a", "b", "length")

    def __init__(self, id, a, b, length: Fraction = Fraction(1)):
        setfield(self, "id", id)
        setfield(self, "a", a)
        setfield(self, "b", b)
        setfield(self, "length", length if type(length) is Fraction else Fraction(length))

    def is_self_node(self) -> bool:
        return self.a == self.b


class NodeType(Frozen):
    __slots__ = ("node", "type")

    def __init__(self, node, type: int):
        setfield(self, "node", node)
        setfield(self, "type", type)


class FiberConfiguration:
    """Components plus nodes; validates references at construction.

    Immutable after construction.  The constructor builds the configuration
    graph and omega's coefficients, read off its valences as Fractions.  The
    bridge walk is a cached property: the first question that needs it
    walks, and the walk is kept unless it raises.  So every question asked
    of one configuration reads one graph, one omega, one walk and, through
    the graph, one factorization.
    """

    def __init__(self, components, nodes=()):
        self.components: tuple[Component, ...] = tuple([
            c if isinstance(c, Component) else Component(*c) for c in components
        ])
        ids = {c.id for c in self.components}
        if len(ids) != len(self.components):
            raise ValueError("duplicate component ids")
        self.nodes: tuple[FiberNode, ...] = tuple([
            n if isinstance(n, FiberNode) else FiberNode(*n) for n in nodes
        ])
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
        graph = self._graph = MetrizedGraph(
            [c.id for c in self.components],
            [(n.id, n.a, n.b, n.length) for n in self.nodes],
        )
        # omega's coefficient 2 genus - 2 + valence at each component
        self._omega = {
            c.id: plain(2 * c.genus - 2 + graph.valence(c.id))
            for c in self.components
        }

    @cached_property
    def _walk(self) -> _Walk:
        """The bridge walk: walked on first use, then kept.  A walk that
        raises is not kept."""
        return _Walk(self)

    def genus_of(self, comp_id) -> int:
        for c in self.components:
            if c.id == comp_id:
                return c.genus
        raise UnknownComponent(f"unknown component {comp_id!r}")


def configuration_graph(cfg: FiberConfiguration) -> MetrizedGraph:
    """Vertex per component, edge per node (loops for self-nodes): the graph
    built with cfg, immutable like cfg, so the kernel solved on it is kept."""
    return cfg._graph


class _Walk:
    """One iterative depth-first walk over the configuration graph:
    Tarjan's lowlink bridge search, with subtree sums.

    A non-loop node is a bridge when the lowlink of its child end exceeds
    the discovery index of its parent end (only the tree edge itself is
    skipped, so parallel nodes lie on a cycle); all other nodes have type 0.
    Over the side a bridge cuts off, the omega coefficients 2 genus +
    valence - 2 sum to 2h - 1, h being that side's arithmetic genus, and the
    type is min(h, g - h).  The coefficients are integers, so the subtree
    sums add their numerators as ints.  A chain has no back edge (every
    non-loop node is a bridge) and no component with more than two non-loop
    node ends.
    """

    def __init__(self, cfg: FiberConfiguration):
        graph = cfg._graph
        if not graph.vertex_list:
            raise Disconnected("fiber configuration is not connected")
        genus = sum(c.genus for c in cfg.components) + graph.first_betti()
        side = {c: a.numerator for c, a in cfg._omega.items()}
        types = dict.fromkeys(cfg.node_by_id, 0)
        plain_ends = dict.fromkeys(graph.vertex_list, 0)
        cyclic = False
        root = graph.vertex_list[0]
        order = {root: 0}
        low = {root: 0}
        stack = [(root, None, iter(graph.incident(root)))]
        while stack:
            v, via, ends = stack[-1]
            for e, end in ends:
                w = e.v if end == 0 else e.u
                if w == v:
                    continue
                plain_ends[v] += 1
                if e is via:
                    continue
                if w in order:
                    cyclic = True
                    low[v] = min(low[v], order[w])
                else:
                    order[w] = low[w] = len(order)
                    stack.append((w, e, iter(graph.incident(w))))
                    break
            else:
                stack.pop()
                if stack:
                    u = stack[-1][0]
                    low[u] = min(low[u], low[v])
                    side[u] += side[v]
                    if low[v] > order[u]:
                        h = (side[v] + 1) // 2
                        types[via.id] = min(h, genus - h)
        if len(order) != len(graph.vertex_list):
            raise Disconnected("fiber configuration is not connected")
        self.genus = genus  # arithmetic genus, before the bounds of fiber_genus
        self.types = types  # node id -> node type
        self.is_chain = not cyclic and max(plain_ends.values()) <= 2


def fiber_genus(cfg: FiberConfiguration) -> int:
    """Arithmetic genus: sum of component genera plus the configuration
    graph's first Betti number.  Must be at least 2 and at most MAX_GENUS."""
    genus = cfg._walk.genus
    check_genus(genus)
    if genus < 2:
        raise GenusTooSmall(f"fiber has arithmetic genus {genus} < 2")
    return genus


def classify_node(cfg: FiberConfiguration, node_id) -> NodeType:
    """Type of a node: 0 when removing it keeps the configuration connected,
    otherwise the minimum of the two sides' arithmetic genera."""
    if node_id not in cfg.node_by_id:
        raise NodeNotFound(f"node {node_id!r} is not in the configuration")
    return NodeType(node_id, cfg._walk.types[node_id])


def delta_vector(cfg: FiberConfiguration) -> list[int]:
    """Counts of nodes by type, indexed 0..floor(g/2)."""
    counts = [0] * (fiber_genus(cfg) // 2 + 1)
    for t in cfg._walk.types.values():
        counts[t] += 1
    return counts


def omega_divisor(cfg: FiberConfiguration) -> RDivisor:
    """The relative dualizing divisor on the configuration graph:
    coefficient 2*genus - 2 + branches at each component, where a self-node
    contributes two branches.  Coefficients sum to 2g - 2.  The
    configuration keeps them, read off the graph's valences alone, so it
    needs no walk (nor a connected graph)."""
    return RDivisor(cfg._omega)


def unstable_components(cfg: FiberConfiguration) -> list:
    """Components whose omega coefficient is not positive (the chain closed
    form assumes all are)."""
    return [c for c, a in cfg._omega.items() if a.numerator <= 0]


def is_chain_of_stable_components(cfg: FiberConfiguration) -> bool:
    """True iff the configuration graph with loops removed is a simple path
    (a single vertex counts, degenerately).  Only the shape is tested; that
    every component is stable is the business of `unstable_components`."""
    return cfg._walk.is_chain


def fiber_e(cfg: FiberConfiguration) -> Fraction:
    """e_y = e(G_y, omega_y) via the general solver."""
    fiber_genus(cfg)
    return e_invariant(cfg._graph, omega_divisor(cfg))


def fiber_e_closed_form(cfg: FiberConfiguration) -> Fraction:
    """e_y for a chain of stable components, from the node types alone:
    each type-0 node contributes (g-1)/(3g) per unit length and each type-i
    node 4i(g-i)/g - 1 per unit length.  The node lengths are summed per
    type, in the fast rational type of `mg.linalg`, so e_y is one product
    per node type, returned as a plain Fraction."""
    walk = cfg._walk
    if not walk.is_chain:
        raise NotAChain("fiber is not a chain of stable components")
    g = fiber_genus(cfg)
    types, zero = walk.types, fast(0)
    lengths = {}
    for n in cfg.nodes:
        t = types[n.id]
        lengths[t] = lengths.get(t, zero) + n.length
    e = zero
    for t, length in lengths.items():
        e += chain_e_coefficient(g, t) * length
    return plain(e)


class FiberReport(Record):
    __slots__ = ("genus", "delta", "omega", "is_chain", "e", "e_closed_form", "warnings")

    def __init__(
        self,
        genus: int,
        delta: tuple[int, ...],
        omega: dict,  # component id -> omega coefficient, every component
        is_chain: bool,
        e: Fraction,
        e_closed_form: Fraction | None,
        warnings: tuple[str, ...] = (),
    ):
        self.genus = genus
        self.delta = delta
        self.omega = omega
        self.is_chain = is_chain
        self.e = e
        self.e_closed_form = e_closed_form
        self.warnings = warnings


def fiber_report(cfg: FiberConfiguration) -> FiberReport:
    """Every question above, answered from the configuration's one graph,
    one walk and one omega."""
    genus = fiber_genus(cfg)
    is_chain = is_chain_of_stable_components(cfg)
    return FiberReport(
        genus=genus,
        delta=tuple(delta_vector(cfg)),
        omega=dict(cfg._omega),
        is_chain=is_chain,
        e=e_invariant(cfg._graph, omega_divisor(cfg)),
        e_closed_form=fiber_e_closed_form(cfg) if is_chain else None,
        warnings=tuple(
            f"component {cid!r} is not stable (omega coefficient <= 0)"
            for cid in unstable_components(cfg)
        ),
    )
