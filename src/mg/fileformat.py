"""Line-oriented text formats for graphs and fiber configurations.

Graph files::

    metrized_graph
    vertex P
    vertex Q
    edge e P Q 1          # edge <name> <v1> <v2> <length>
    point m on e at 1/2   # named edge-interior point
    divisor P 1           # divisor <vertex-or-point-name> <coefficient>

Fiber files::

    fiber
    component A genus 1
    node n1 A B           # node <name> <compA> <compB> [length <rational>]

Rationals are written p/q or as integers, with at most MAX_RATIONAL_DIGITS
digits in each part; a genus is written in the digits 0-9 only, with the
same cap; '#' starts a comment.  The serializers emit a sorted normal form,
so serialize(parse(text)) is idempotent after the first round trip.
"""

from __future__ import annotations

import re
from fractions import Fraction

from .errors import (
    BadRational,
    ParseError,
    PointOffGraph,
    UnknownComponent,
    UnknownVertex,
)
from .bounds import check_genus
from .fibers import FiberConfiguration, fiber_genus
from .graphs import GraphPoint, MetrizedGraph, RDivisor

GRAPH_HEADER = "metrized_graph"
FIBER_HEADER = "fiber"


# Digits allowed in a numerator or a denominator: enough for any length a
# person writes, and it keeps a few bytes of input from naming a huge integer.
MAX_RATIONAL_DIGITS = 40
_RATIONAL = re.compile(
    rf"(-?[0-9]{{1,{MAX_RATIONAL_DIGITS}}})(?:/([0-9]{{1,{MAX_RATIONAL_DIGITS}}}))?"
)


# A component genus: ASCII digits only, under the same digit cap.
_GENUS = re.compile(rf"[0-9]{{1,{MAX_RATIONAL_DIGITS}}}")


def parse_rational(token: str) -> Fraction:
    """An integer or p/q, optionally negative, with at most
    MAX_RATIONAL_DIGITS digits in each part; nothing else (no decimals,
    exponents, underscores or spaces).  The value is built from the
    matched parts, so the token is scanned once."""
    match = _RATIONAL.fullmatch(token)
    if match:
        p, q = match.groups()
        if q is None:
            return Fraction(int(p))
        if int(q):
            return Fraction(int(p), int(q))
    raise BadRational(
        f"cannot parse {token!r} as a rational (p/q or an integer, "
        f"at most {MAX_RATIONAL_DIGITS} digits each)"
    )


def _logical_lines(text: str):
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if line:
            yield lineno, line.split()


def parse_graph_file(text: str):
    """Parse a graph file; returns (graph, named points, divisor).

    Named points include every vertex (as a vertex point) and every `point`
    declaration; the divisor is empty when no divisor lines appear.
    """
    lines = list(_logical_lines(text))
    if not lines or lines[0][1] != [GRAPH_HEADER]:
        lineno = lines[0][0] if lines else 1
        raise ParseError(lineno, f"expected header {GRAPH_HEADER!r}")

    vertices: list[str] = []
    edges: list[tuple] = []
    used_names: set[str] = set()
    vertex_names: set[str] = set()
    names: dict[str, GraphPoint] = {}
    divisor_terms: list[tuple] = []
    pending_points: list[tuple[int, str, str, Fraction]] = []

    for lineno, tokens in lines[1:]:
        kind = tokens[0]
        if kind == "vertex":
            if len(tokens) != 2:
                raise ParseError(lineno, "expected: vertex <name>")
            name = tokens[1]
            if name in used_names:
                raise ParseError(lineno, f"duplicate name {name!r}")
            vertices.append(name)
            used_names.add(name)
            vertex_names.add(name)
            names[name] = GraphPoint.at_vertex(name)
        elif kind == "edge":
            if len(tokens) != 5:
                raise ParseError(lineno, "expected: edge <name> <v1> <v2> <length>")
            name, v1, v2, raw = tokens[1:]
            if name in used_names:
                raise ParseError(lineno, f"duplicate name {name!r}")
            for v in (v1, v2):
                if v not in vertex_names:
                    raise UnknownVertex(f"line {lineno}: unknown vertex {v!r}")
            edges.append((name, v1, v2, parse_rational(raw)))
            used_names.add(name)
        elif kind == "point":
            if len(tokens) != 6 or tokens[2] != "on" or tokens[4] != "at":
                raise ParseError(lineno, "expected: point <name> on <edge> at <offset>")
            name, edge, raw = tokens[1], tokens[3], tokens[5]
            if name in used_names:
                raise ParseError(lineno, f"duplicate name {name!r}")
            pending_points.append((lineno, name, edge, parse_rational(raw)))
            used_names.add(name)
        elif kind == "divisor":
            if len(tokens) != 3:
                raise ParseError(lineno, "expected: divisor <name> <coefficient>")
            divisor_terms.append((lineno, tokens[1], parse_rational(tokens[2])))
        else:
            raise ParseError(lineno, f"unknown directive {kind!r}")

    graph = MetrizedGraph(vertices, edges)
    graph.validate()

    for lineno, name, edge, offset in pending_points:
        if edge not in graph.edge_by_id:
            raise UnknownVertex(f"line {lineno}: unknown edge {edge!r}")
        length = graph.edge_by_id[edge].length
        if not 0 < offset < length:
            raise PointOffGraph(
                f"line {lineno}: offset {offset} outside edge {edge!r} "
                f"of length {length}"
            )
        names[name] = GraphPoint.on_edge(edge, offset)

    resolved: list[tuple[GraphPoint, Fraction]] = []
    for lineno, name, coeff in divisor_terms:
        if name not in names:
            raise UnknownVertex(f"line {lineno}: unknown point {name!r}")
        resolved.append((names[name], coeff))
    divisor = RDivisor(resolved)

    return graph, names, divisor


def parse_fiber_file(text: str) -> FiberConfiguration:
    lines = list(_logical_lines(text))
    if not lines or lines[0][1] != [FIBER_HEADER]:
        lineno = lines[0][0] if lines else 1
        raise ParseError(lineno, f"expected header {FIBER_HEADER!r}")

    components: list[tuple[str, int]] = []
    comp_names: set[str] = set()
    nodes: list[tuple] = []
    node_names: set[str] = set()

    for lineno, tokens in lines[1:]:
        kind = tokens[0]
        if kind == "component":
            if len(tokens) != 4 or tokens[2] != "genus":
                raise ParseError(lineno, "expected: component <name> genus <int>")
            name = tokens[1]
            if name in comp_names:
                raise ParseError(lineno, f"duplicate component {name!r}")
            if not _GENUS.fullmatch(tokens[3]):
                raise ParseError(lineno, f"bad genus {tokens[3]!r}")
            genus = int(tokens[3])
            check_genus(genus)
            components.append((name, genus))
            comp_names.add(name)
        elif kind == "node":
            if len(tokens) == 4:
                name, a, b = tokens[1:]
                length = Fraction(1)
            elif len(tokens) == 6 and tokens[4] == "length":
                name, a, b = tokens[1:4]
                length = parse_rational(tokens[5])
            else:
                raise ParseError(
                    lineno, "expected: node <name> <compA> <compB> [length <rational>]"
                )
            if name in node_names:
                raise ParseError(lineno, f"duplicate node {name!r}")
            for ref in (a, b):
                if ref not in comp_names:
                    raise UnknownComponent(
                        f"line {lineno}: unknown component {ref!r}"
                    )
            nodes.append((name, a, b, length))
            node_names.add(name)
        else:
            raise ParseError(lineno, f"unknown directive {kind!r}")

    cfg = FiberConfiguration(components, nodes)
    fiber_genus(cfg)  # raises Disconnected / GenusTooSmall early
    return cfg


def serialize_graph(graph: MetrizedGraph, names=None, divisor=None) -> str:
    """Normal form: sorted vertices, edges, points and divisor terms.

    The divisor is written in the normal form of `check_point`, and an
    edge-interior point of it that `names` does not name gets a `point`
    line of its own, named <edge>@<offset>, primed until no vertex, edge
    or point has that name, so the text parses back to the same divisor."""
    names = dict(names or {})
    divisor = (divisor or RDivisor()).relocate(graph.check_point)
    reverse = {p: name for name, p in names.items()}
    used = {*names, *map(str, graph.vertex_list), *(str(e.id) for e in graph.edges)}
    for p in divisor.support():
        if not p.is_vertex and p not in reverse:
            name = f"{p.edge}@{p.offset}"
            while name in used:
                name += "'"
            used.add(name)
            names[name] = p
            reverse[p] = name
    out = [GRAPH_HEADER]
    for v in sorted(graph.vertex_list, key=str):
        out.append(f"vertex {v}")
    for e in sorted(graph.edges, key=lambda e: str(e.id)):
        out.append(f"edge {e.id} {e.u} {e.v} {e.length}")
    point_names = {
        name: p for name, p in names.items() if not p.is_vertex
    }
    for name in sorted(point_names):
        p = point_names[name]
        out.append(f"point {name} on {p.edge} at {p.offset}")
    terms = [(reverse.get(p, str(p.vertex)), a) for p, a in divisor.items()]
    for label, a in sorted(terms):
        out.append(f"divisor {label} {a}")
    return "\n".join(out) + "\n"


def serialize_fiber(cfg: FiberConfiguration) -> str:
    out = [FIBER_HEADER]
    for c in sorted(cfg.components, key=lambda c: str(c.id)):
        out.append(f"component {c.id} genus {c.genus}")
    for n in sorted(cfg.nodes, key=lambda n: str(n.id)):
        if n.length == 1:
            out.append(f"node {n.id} {n.a} {n.b}")
        else:
            out.append(f"node {n.id} {n.a} {n.b} length {n.length}")
    return "\n".join(out) + "\n"
