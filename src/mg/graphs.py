"""Metrized graphs, points on them, and rational divisors.

A metrized graph is a finite connected multigraph (loops and parallel edges
allowed) whose edges carry positive rational lengths and are viewed as metric
segments.  Points are either vertices or interior points of an edge, located
by an offset from the edge's first stored endpoint.  All lengths, offsets and
divisor coefficients are exact `fractions.Fraction` values.

Edges and points enforce their immutability themselves: their classes
refuse assignment and deletion once built, and they compare and hash by
their fields.  An edge converts a length that is not a `Fraction` to one
itself, so an edge built directly and one built from a tuple are equal.
Graphs and divisors are not changed after construction either; every
operation here is a pure function returning new objects, so everything is
safe to share across threads.
"""

from __future__ import annotations

from collections.abc import Callable, Hashable, Iterable, Mapping
from fractions import Fraction
from operator import is_

from ._record import Frozen, setfield
from .errors import (
    DanglingEndpoint,
    Disconnected,
    NonpositiveLength,
    PointOffGraph,
)

VertexId = Hashable
EdgeId = Hashable


class Edge(Frozen):
    __slots__ = ("id", "u", "v", "length")

    def __init__(self, id: EdgeId, u: VertexId, v: VertexId, length: Fraction):
        setfield(self, "id", id)
        setfield(self, "u", u)
        setfield(self, "v", v)
        setfield(self, "length", length if type(length) is Fraction else Fraction(length))

    def is_loop(self) -> bool:
        return self.u == self.v


class GraphPoint(Frozen):
    """A point of a metrized graph: a vertex, or an edge-interior point.

    Interior points are anchored to the edge's stored endpoint order: the
    offset is the distance from endpoint `u` along the edge.
    """

    __slots__ = ("vertex", "edge", "offset")

    def __init__(
        self,
        vertex: VertexId | None = None,
        edge: EdgeId | None = None,
        offset: Fraction | None = None,
    ):
        setfield(self, "vertex", vertex)
        setfield(self, "edge", edge)
        setfield(self, "offset", offset)

    # Written out, not the generic `Frozen` hash: points key the Green and
    # resistance tables, and the generic hash takes twice as long (see
    # `mg._record`).
    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (self.vertex, self.edge, self.offset) == (other.vertex, other.edge, other.offset)

    def __hash__(self):
        return hash((self.vertex, self.edge, self.offset))

    @classmethod
    def at_vertex(cls, v: VertexId) -> "GraphPoint":
        return cls(vertex=v)

    @classmethod
    def on_edge(cls, edge: EdgeId, offset) -> "GraphPoint":
        return cls(edge=edge, offset=Fraction(offset))

    @property
    def is_vertex(self) -> bool:
        return self.vertex is not None

    def __repr__(self):
        if self.is_vertex:
            return f"GraphPoint({self.vertex!r})"
        return f"GraphPoint({self.edge!r} @ {self.offset})"


def as_point(x) -> GraphPoint:
    """Coerce a bare vertex id to a GraphPoint; pass GraphPoints through."""
    if isinstance(x, GraphPoint):
        return x
    return GraphPoint.at_vertex(x)


class MetrizedGraph:
    """Finite multigraph with positive rational edge lengths.

    `vertices` is any iterable of hashable ids; `edges` is an iterable of
    Edge objects or (id, u, v, length) tuples.  Construction records the
    data; structural soundness is checked by `validate`.
    """

    def __init__(self, vertices: Iterable[VertexId], edges: Iterable = ()):
        self.vertex_list: list[VertexId] = list(dict.fromkeys(vertices))
        self.vertex_set = set(self.vertex_list)
        self.edges: tuple[Edge, ...] = tuple([
            e if isinstance(e, Edge) else Edge(*e) for e in edges
        ])
        self.edge_by_id: dict[EdgeId, Edge] = {}
        for e in self.edges:
            if e.id in self.edge_by_id:
                raise ValueError(f"duplicate edge id {e.id!r}")
            self.edge_by_id[e.id] = e
        # incidence: vertex -> [(edge, end)]; a loop contributes both ends
        self._incidence: dict[VertexId, list[tuple[Edge, int]]] = {
            v: [] for v in self.vertex_list
        }
        for e in self.edges:
            if e.u in self._incidence:
                self._incidence[e.u].append((e, 0))
            if e.v in self._incidence:
                self._incidence[e.v].append((e, 1))
        self._valid = False  # set by the first `validate` that passes

    # -- structure ---------------------------------------------------------

    def validate(self) -> None:
        """Raise unless the graph is connected with positive lengths and
        edge endpoints that exist.

        The graph is immutable, so a success is kept on it and a later call
        returns at once; a failure is never kept, so every call on an
        invalid graph checks again and raises the same error.  A graph made
        from this one (`subdivide_at`, `scale_lengths`, `one_point_sum`) is
        a new graph, validated on its own."""
        if self._valid:
            return
        for e in self.edges:
            if e.u not in self.vertex_set or e.v not in self.vertex_set:
                raise DanglingEndpoint(f"edge {e.id!r} has a missing endpoint")
            if e.length <= 0:
                raise NonpositiveLength(
                    f"edge {e.id!r} has length {e.length}"
                )
        if not self.vertex_list:
            raise Disconnected("graph has no vertices")
        if not self.is_connected():
            raise Disconnected("graph is not connected")
        self._valid = True

    def is_connected(self) -> bool:
        if not self.vertex_list:
            return False
        return len(self._reachable(self.vertex_list[0])) == len(self.vertex_set)

    def connects(self, a: VertexId, b: VertexId) -> bool:
        """True iff vertices a and b lie in the same component."""
        return a == b or b in self._reachable(a)

    def _reachable(self, a: VertexId) -> set:
        """The vertices of a's component, by one depth-first search."""
        seen = {a}
        stack = [a]
        while stack:
            v = stack.pop()
            for e, end in self._incidence[v]:
                w = e.v if end == 0 else e.u
                if w not in seen:
                    seen.add(w)
                    stack.append(w)
        return seen

    def valence(self, v: VertexId) -> int:
        """Number of edge-ends at v; a loop counts twice."""
        return len(self._incidence[v])

    def incident(self, v: VertexId) -> list[tuple[Edge, int]]:
        return list(self._incidence[v])

    def first_betti(self) -> int:
        """|E| - |V| + 1: the number of independent circles (connected g)."""
        return len(self.edges) - len(self.vertex_list) + 1

    def total_length(self) -> Fraction:
        return sum((e.length for e in self.edges), Fraction(0))

    # -- points ------------------------------------------------------------

    def check_point(self, p) -> GraphPoint:
        """Validate that p lies on this graph and return it in normal form.

        Edge points with offset 0 or the full length are normalized to the
        corresponding vertex; interior offsets must satisfy 0 < t < length.
        The tests compare the integer parts of the offset and the length,
        both in lowest terms with a positive denominator.
        """
        p = as_point(p)
        if p.is_vertex:
            if p.vertex not in self.vertex_set:
                raise PointOffGraph(f"vertex {p.vertex!r} is not on the graph")
            return p
        e = self.edge_by_id.get(p.edge)
        if e is None:
            raise PointOffGraph(f"edge {p.edge!r} is not on the graph")
        t = p.offset
        if not isinstance(t, (int, Fraction)):
            raise PointOffGraph(
                f"offset {t!r} on edge {p.edge!r} is not an int or a Fraction"
            )
        n, d = t.numerator, t.denominator
        if not n:
            return GraphPoint.at_vertex(e.u)
        ln, ld = e.length.numerator, e.length.denominator
        if n == ln and d == ld:
            return GraphPoint.at_vertex(e.v)
        if not (0 < n and n * ld < ln * d):
            raise PointOffGraph(
                f"offset {t} outside edge {p.edge!r} of length {e.length}"
            )
        return p

    def __repr__(self):
        return (
            f"MetrizedGraph({len(self.vertex_list)} vertices, "
            f"{len(self.edges)} edges)"
        )


class RDivisor:
    """Finite formal sum of graph points with rational coefficients.

    Accepts a mapping or an iterable of (point, coefficient) pairs; bare
    vertex ids are coerced to vertex points and duplicate points add up.
    Zero coefficients are dropped.
    """

    def __init__(self, items: Mapping | Iterable = ()):
        if isinstance(items, Mapping):
            items = items.items()
        acc: dict[GraphPoint, Fraction] = {}
        for p, a in items:
            p = as_point(p)
            if type(a) is not Fraction:
                a = Fraction(a)
            old = acc.get(p)
            acc[p] = a if old is None else old + a
        self._coeffs = {p: a for p, a in acc.items() if a != 0}

    def degree(self) -> Fraction:
        return sum(self._coeffs.values(), Fraction(0))

    def items(self):
        return list(self._coeffs.items())

    def support(self) -> list[GraphPoint]:
        return list(self._coeffs)

    def coeff(self, p) -> Fraction:
        return self._coeffs.get(as_point(p), Fraction(0))

    def relocate(self, f: Callable[[GraphPoint], GraphPoint]) -> "RDivisor":
        """The divisor with each point p moved to f(p): f is called on every
        point, and when it returns each one itself, the divisor is kept."""
        points = [f(p) for p in self._coeffs]
        if all(map(is_, points, self._coeffs)):
            return self
        return RDivisor(zip(points, self._coeffs.values()))

    def __add__(self, other: "RDivisor") -> "RDivisor":
        return RDivisor(list(self._coeffs.items()) + list(other._coeffs.items()))

    def __eq__(self, other):
        return isinstance(other, RDivisor) and self._coeffs == other._coeffs

    def __len__(self):
        return len(self._coeffs)

    def __bool__(self):
        return bool(self._coeffs)

    def __repr__(self):
        terms = " + ".join(f"{a}*{p!r}" for p, a in self._coeffs.items())
        return f"RDivisor({terms or '0'})"


def _identity(p: GraphPoint) -> GraphPoint:
    return p


def subdivide_at(g: MetrizedGraph, p) -> tuple[MetrizedGraph, VertexId, Callable]:
    """Turn the point p into a vertex.

    Returns (new graph, the vertex id of p, relocation) where relocation
    carries any GraphPoint of g to the corresponding point of the result.
    Subdividing at an existing vertex returns the graph unchanged with the
    identity relocation.
    """
    p = g.check_point(p)
    if p.is_vertex:
        return g, p.vertex, _identity

    e = g.edge_by_id[p.edge]
    t = p.offset
    w: VertexId = ("cut", e.id, t)
    while w in g.vertex_set:
        w = ("cut", w, t)
    ea_id: EdgeId = ("split", e.id, 0)
    while ea_id in g.edge_by_id:
        ea_id = ("split", ea_id, 0)
    eb_id: EdgeId = ("split", e.id, 1)
    while eb_id in g.edge_by_id:
        eb_id = ("split", eb_id, 1)
    ea = Edge(ea_id, e.u, w, t)
    eb = Edge(eb_id, w, e.v, e.length - t)

    edges = []
    for old in g.edges:
        if old.id == e.id:
            edges.append(ea)
            edges.append(eb)
        else:
            edges.append(old)
    result = MetrizedGraph(g.vertex_list + [w], edges)

    def relocate(q) -> GraphPoint:
        q = g.check_point(q)
        if q.is_vertex or q.edge != e.id:
            return q
        if q.offset < t:
            return GraphPoint.on_edge(ea.id, q.offset)
        if q.offset == t:
            return GraphPoint.at_vertex(w)
        return GraphPoint.on_edge(eb.id, q.offset - t)

    return result, w, relocate


def one_point_sum(
    g1: MetrizedGraph, x1, g2: MetrizedGraph, x2
) -> tuple[MetrizedGraph, VertexId, Callable, Callable]:
    """Join g1 and g2 by identifying the points x1 and x2.

    Returns (graph, joint vertex, relocation of g1 points, relocation of g2
    points).  Ids of the second summand are renamed where they would collide
    with the first.
    """
    g1s, v1, r1 = subdivide_at(g1, x1)
    g2s, v2, r2 = subdivide_at(g2, x2)

    used_v = set(g1s.vertex_list)
    vmap: dict[VertexId, VertexId] = {v2: v1}
    for v in g2s.vertex_list:
        if v == v2:
            continue
        nv = v
        while nv in used_v:
            nv = ("g2", nv)
        vmap[v] = nv
        used_v.add(nv)

    used_e = set(g1s.edge_by_id)
    emap: dict[EdgeId, EdgeId] = {}
    for e in g2s.edges:
        ne = e.id
        while ne in used_e:
            ne = ("g2", ne)
        emap[e.id] = ne
        used_e.add(ne)

    vertices = list(g1s.vertex_list) + [vmap[v] for v in g2s.vertex_list if v != v2]
    edges = list(g1s.edges) + [
        Edge(emap[e.id], vmap[e.u], vmap[e.v], e.length) for e in g2s.edges
    ]
    result = MetrizedGraph(vertices, edges)

    def rel2(q) -> GraphPoint:
        q = r2(q)
        if q.is_vertex:
            return GraphPoint.at_vertex(vmap[q.vertex])
        return GraphPoint.on_edge(emap[q.edge], q.offset)

    return result, v1, r1, rel2


def scale_lengths(g: MetrizedGraph, s) -> tuple[MetrizedGraph, Callable]:
    """Multiply every edge length by s > 0; offsets relocate by the same
    factor."""
    s = Fraction(s)
    if s <= 0:
        raise NonpositiveLength(f"scale factor {s} must be positive")
    edges = [Edge(e.id, e.u, e.v, e.length * s) for e in g.edges]
    result = MetrizedGraph(g.vertex_list, edges)

    def relocate(q) -> GraphPoint:
        q = g.check_point(q)
        if q.is_vertex:
            return q
        return GraphPoint.on_edge(q.edge, q.offset * s)

    return result, relocate


# -- small factories used throughout tests and scripts ----------------------


def segment_graph(length=1, ends=("P", "Q"), edge_id="e") -> MetrizedGraph:
    """A single edge of the given length between two vertices."""
    return MetrizedGraph(list(ends), [(edge_id, ends[0], ends[1], length)])


def circle_graph(length=1, vertex="O", edge_id="c") -> MetrizedGraph:
    """A circle realized as one loop edge at a single vertex."""
    return MetrizedGraph([vertex], [(edge_id, vertex, vertex, length)])


def theta_graph(lengths=(1, 1, 1), ends=("P", "Q")) -> MetrizedGraph:
    """Two vertices joined by three parallel edges."""
    edges = [(f"t{i}", ends[0], ends[1], l) for i, l in enumerate(lengths)]
    return MetrizedGraph(list(ends), edges)


def path_graph(lengths, prefix="P") -> MetrizedGraph:
    """A chain of segments; vertices P0..Pn for n = len(lengths)."""
    lengths = list(lengths)
    n = len(lengths)
    vertices = [f"{prefix}{i}" for i in range(n + 1)]
    edges = [
        (f"l{i + 1}", vertices[i], vertices[i + 1], l)
        for i, l in enumerate(lengths)
    ]
    return MetrizedGraph(vertices, edges)
