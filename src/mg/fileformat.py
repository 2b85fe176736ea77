"""Line-oriented text formats for graphs and fiber configurations.

Graph files::

    metrized_graph
    vertex P              # vertex <name>
    vertex Q
    edge e P Q 1          # edge <name> <v1> <v2> <length>
    point m on e at 1/2   # point <name> on <edge> at <offset>
    divisor P 1           # divisor <name> <coefficient>

A divisor line names a vertex or a point.  Fiber files::

    fiber
    component A genus 1   # component <name> genus <int>
    node n1 A B           # node <name> <compA> <compB> [length <rational>]

Each directive is declared by its usage, shown beside it above, and a line
matches it word for word: a literal word as written, a <field> as any one
token, and a [...] tail given whole or not at all.

Rationals are written p/q or as integers, with at most MAX_RATIONAL_DIGITS
digits in each part; a genus is written in the digits 0-9 only, with the
same cap; '#' starts a comment.  A malformed line, or a rational or genus
that a line cannot hold, is an error that names the line.  The serializers
emit a sorted normal form, so serialize(parse(text)) is idempotent after
the first round trip.
"""

from __future__ import annotations

import re
from fractions import Fraction
from operator import itemgetter

from .errors import (
    BadRational,
    GenusTooLarge,
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

# The length of a node written without one, shared by every such node.
_ONE = Fraction(1)


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


# The directives of each format, each with its usage: a line must match it
# word for word, where a literal word is given as it is, a <field> is any
# one token, and a [...] tail is given whole or not at all; the `expected:`
# message of a line that does not match quotes it.
_GRAPH_DIRECTIVES = {
    "vertex": "vertex <name>",
    "edge": "edge <name> <v1> <v2> <length>",
    "point": "point <name> on <edge> at <offset>",
    "divisor": "divisor <name> <coefficient>",
}
_FIBER_DIRECTIVES = {
    "component": "component <name> genus <int>",
    "node": "node <name> <compA> <compB> [length <rational>]",
}


def _form(words: list[str]) -> tuple:
    """How a line of as many tokens as the usage words `words` is read: a
    getter of the tokens at the literal words, the words it must give, and
    a getter of the directive and the tokens at the <field> words."""
    literal = itemgetter(*(i for i, w in enumerate(words) if w[0] != "<"))
    fields = itemgetter(0, *(i for i, w in enumerate(words) if w[0] == "<"))
    return literal, literal(words), fields


# the form of every usage, with its [...] tail and without, by directive and
# word count, built once here rather than for each file; no two formats
# share a directive, and `_lines` reads only those of its own format
_FORMS = {(w[0], len(w)): _form(w)
          for u in [*_GRAPH_DIRECTIVES.values(), *_FIBER_DIRECTIVES.values()]
          for w in (u.replace("[", "").replace("]", "").split(), u.partition(" [")[0].split())}


def _lines(text: str, header: str, directives: dict):
    """(line number, directive, fields...) of each line after the header
    line that is not blank or a comment, its fields the tokens at the
    <field> positions of the directive's usage.  ParseError at the first
    such line, or at line 1 when there is none, unless it is `header`, and
    at a line whose directive is unknown or that does not match its usage.
    Lines end at \\n, \\r\\n or \\r only, as an editor counts them:
    `str.splitlines` would also end one at a form feed or a Unicode line
    separator inside a comment."""
    text = text.replace("\r\n", "\n").replace("\r", "\n")
    lines = [(lineno, tokens) for lineno, raw in enumerate(text.split("\n"), start=1)
             if (tokens := raw.split("#", 1)[0].split())]
    if not lines or lines[0][1] != [header]:
        raise ParseError(lines[0][0] if lines else 1, f"expected header {header!r}")
    for lineno, tokens in lines[1:]:
        form = tokens[0] in directives and _FORMS.get((tokens[0], len(tokens)))
        if not form or form[0](tokens) != form[1]:
            usage = directives.get(tokens[0])
            message = f"expected: {usage}" if usage else f"unknown directive {tokens[0]!r}"
            raise ParseError(lineno, message)
        yield lineno, *form[2](tokens)


def parse_graph_file(text: str):
    """Parse a graph file; returns (graph, named points, divisor).

    Named points include every vertex (as a vertex point) and every `point`
    declaration; the divisor is empty when no divisor lines appear.  A bad
    rational names its line.
    """
    edges: list[tuple] = []
    kinds: dict[str, str] = {}  # name -> vertex, edge or point: one namespace
    divisor_terms: list[tuple] = []
    pending_points: list[tuple[int, str, str, Fraction]] = []

    try:
        for lineno, kind, name, *fields in _lines(text, GRAPH_HEADER, _GRAPH_DIRECTIVES):
            if kind == "divisor":
                divisor_terms.append((lineno, name, parse_rational(fields[0])))
                continue
            if name in kinds:
                raise ParseError(lineno, f"duplicate name {name!r}")
            kinds[name] = kind
            if kind == "edge":
                for v in fields[:2]:
                    if kinds.get(v) != "vertex":
                        raise UnknownVertex(f"line {lineno}: unknown vertex {v!r}")
                edges.append((name, fields[0], fields[1], parse_rational(fields[2])))
            elif kind == "point":
                pending_points.append((lineno, name, fields[0], parse_rational(fields[1])))
    except BadRational as exc:  # from parse_rational, at the line being read
        raise BadRational(f"line {lineno}: {exc}") from None

    names = {v: GraphPoint.at_vertex(v) for v, kind in kinds.items() if kind == "vertex"}
    graph = MetrizedGraph(list(names), edges)
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
    """Parse a fiber file.  A bad rational, or a component genus above the
    cap, names its line."""
    components: dict[str, int] = {}
    nodes: dict[str, tuple] = {}

    try:
        for lineno, kind, name, *fields in _lines(text, FIBER_HEADER, _FIBER_DIRECTIVES):
            if kind == "component":
                if name in components:
                    raise ParseError(lineno, f"duplicate component {name!r}")
                if not _GENUS.fullmatch(fields[0]):
                    raise ParseError(lineno, f"bad genus {fields[0]!r}")
                components[name] = genus = int(fields[0])
                check_genus(genus)
                continue
            length = parse_rational(fields[2]) if len(fields) > 2 else _ONE
            if name in nodes:
                raise ParseError(lineno, f"duplicate node {name!r}")
            for ref in fields[:2]:
                if ref not in components:
                    raise UnknownComponent(f"line {lineno}: unknown component {ref!r}")
            nodes[name] = (name, fields[0], fields[1], length)
    except (BadRational, GenusTooLarge) as exc:  # parse_rational, check_genus
        raise type(exc)(f"line {lineno}: {exc}") from None

    cfg = FiberConfiguration(components.items(), nodes.values())
    fiber_genus(cfg)  # raises Disconnected / GenusTooSmall early
    return cfg


def _claim(taken: set[str], ids) -> None:
    """Add each id's text to `taken`, the names of one namespace of a file.
    ValueError names the first id whose text would not parse back as a new
    name: one that is empty, holds whitespace or '#', or is taken."""
    for x in ids:
        text = str(x)
        if text.split() != [text] or "#" in text:
            raise ValueError(
                f"cannot write {x!r} as a name: empty, or holds whitespace or '#'"
            )
        if text in taken:
            raise ValueError(f"cannot write {x!r} as a name: {text!r} is taken")
        taken.add(text)


def serialize_graph(graph: MetrizedGraph, names=None, divisor=None) -> str:
    """Normal form: sorted vertices, edges, points and divisor terms.

    Vertices, edges and points share one namespace, and an id that cannot
    be written as a name of its own raises ValueError (`_claim`), as does
    a point of `names` that is neither a vertex nor strictly inside an
    edge of the graph at an int or Fraction offset, which no `point` line
    could declare.  The
    divisor is written in the normal form of `check_point`, a vertex by its
    own name, and an edge-interior point of it that `names` does not name
    gets a `point`
    line of its own, named <edge>@<offset>, primed until no vertex, edge
    or point has that name, so the text parses back to the same divisor."""
    names = names or {}
    divisor = (divisor or RDivisor()).relocate(graph.check_point)
    vertices = sorted(graph.vertex_list, key=str)
    edges = sorted(graph.edges, key=lambda e: str(e.id))
    points = {name: p for name, p in names.items() if not p.is_vertex}
    for name, p in points.items():
        e, t = graph.edge_by_id.get(p.edge), p.offset
        if e is None or not isinstance(t, (int, Fraction)) or not 0 < t < e.length:
            raise ValueError(
                f"cannot write point {name!r}: {p!r} is not inside an edge of "
                f"the graph at an int or Fraction offset"
            )
    reverse = {p: name for name, p in points.items()}
    taken: set[str] = set()
    _claim(taken, vertices)
    _claim(taken, (e.id for e in edges))
    _claim(taken, sorted(points))
    for p in divisor.support():
        if not p.is_vertex and p not in reverse:
            name = f"{p.edge}@{p.offset}"
            while name in taken or name in names:
                name += "'"
            taken.add(name)
            points[name] = p
            reverse[p] = name
    out = [GRAPH_HEADER]
    out += (f"vertex {v}" for v in vertices)
    out += (f"edge {e.id} {e.u} {e.v} {e.length}" for e in edges)
    for name in sorted(points):
        p = points[name]
        out.append(f"point {name} on {p.edge} at {p.offset}")
    terms = [(reverse.get(p, str(p.vertex)), a) for p, a in divisor.items()]
    for label, a in sorted(terms):
        out.append(f"divisor {label} {a}")
    return "\n".join(out) + "\n"


def serialize_fiber(cfg: FiberConfiguration) -> str:
    """Normal form: sorted components and nodes.  Components and nodes are
    two namespaces, and an id that cannot be written as a name of its own
    in its namespace raises ValueError (`_claim`)."""
    components = sorted(cfg.components, key=lambda c: str(c.id))
    nodes = sorted(cfg.nodes, key=lambda n: str(n.id))
    _claim(set(), (c.id for c in components))
    _claim(set(), (n.id for n in nodes))
    out = [FIBER_HEADER]
    out += (f"component {c.id} genus {c.genus}" for c in components)
    for n in nodes:
        if n.length == 1:
            out.append(f"node {n.id} {n.a} {n.b}")
        else:
            out.append(f"node {n.id} {n.a} {n.b} length {n.length}")
    return "\n".join(out) + "\n"
