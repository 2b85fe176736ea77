from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given
from hypothesis import strategies as st

import mg.fileformat
from mg import (
    BadRational,
    MAX_GENUS,
    Disconnected,
    FiberConfiguration,
    GenusTooLarge,
    GenusTooSmall,
    GraphPoint,
    MetrizedGraph,
    NonpositiveLength,
    ParseError,
    PointOffGraph,
    RDivisor,
    UnknownComponent,
    UnknownVertex,
    subdivide_at,
    theta_graph,
)
from mg.fileformat import (
    MAX_RATIONAL_DIGITS,
    parse_fiber_file,
    parse_graph_file,
    parse_rational,
    serialize_fiber,
    serialize_graph,
)

GOLDEN = Path(__file__).parent / "golden"


class TestParseGraph:
    def test_segment_example(self):
        graph, names, divisor = parse_graph_file((GOLDEN / "segment.mg").read_text())
        assert len(graph.vertex_list) == 2
        assert len(graph.edges) == 1
        assert divisor.degree() == 2
        assert names["m"] == GraphPoint.on_edge("e", Fraction(1, 2))

    def test_loop_accepted(self):
        graph, _, _ = parse_graph_file("metrized_graph\nvertex v\nedge e v v 1\n")
        assert graph.edges[0].is_loop()

    def test_zero_length(self):
        with pytest.raises(NonpositiveLength):
            parse_graph_file((GOLDEN / "zero_length.mg").read_text())

    def test_bad_header(self):
        with pytest.raises(ParseError):
            parse_graph_file((GOLDEN / "bad_header.mg").read_text())

    def test_bad_rational(self):
        with pytest.raises(BadRational):
            parse_graph_file((GOLDEN / "bad_rational.mg").read_text())
        for token in ["abc", "1.5e3", "1_000", "1e400", "1/0", "+1", "1" * 41,
                      "1/" + "1" * 41]:
            with pytest.raises(BadRational):
                parse_rational(token)
        assert parse_rational("-" + "9" * 40 + "/" + "7" * 40) == Fraction(
            -int("9" * 40), int("7" * 40)
        )
        with pytest.raises(BadRational):
            parse_graph_file("metrized_graph\nvertex P\nvertex Q\nedge e P Q 1.5e3\n")

    def test_disconnected(self):
        with pytest.raises(Disconnected):
            parse_graph_file((GOLDEN / "disconnected.mg").read_text())

    def test_unknown_vertex(self):
        with pytest.raises(UnknownVertex):
            parse_graph_file((GOLDEN / "unknown_vertex.mg").read_text())

    def test_unknown_divisor_name(self):
        text = "metrized_graph\nvertex v\nedge e v v 1\ndivisor w 1\n"
        with pytest.raises(UnknownVertex):
            parse_graph_file(text)

    def test_point_out_of_range(self):
        text = "metrized_graph\nvertex a\nvertex b\nedge e a b 1\npoint m on e at 2\n"
        with pytest.raises(PointOffGraph):
            parse_graph_file(text)

    def test_duplicate_name(self):
        text = "metrized_graph\nvertex a\nvertex a\n"
        with pytest.raises(ParseError):
            parse_graph_file(text)

    @pytest.mark.parametrize("line", [
        "edge e a b",  # too short
        "edge e a b 1 2",  # too long
        "edge e a b 1",  # the name of the first edge again
        "edge a a b 1",  # a vertex's name
        "point m on e 1/2",  # no `at`
        "point m at e on 1/2",  # the words swapped
        "point m on e at 1/3",  # the name of the first point again
        "point e on e at 1/3",  # the edge's name
        "divisor a",  # no coefficient
        "divisor a 1 2",  # too long
    ])
    def test_malformed_or_duplicate_line(self, line):
        text = "metrized_graph\nvertex a\nvertex b\nedge e a b 1\npoint m on e at 1/2\n"
        with pytest.raises(ParseError) as info:
            parse_graph_file(text + line + "\n")
        assert info.value.line == 6

    def test_point_on_unknown_edge(self):
        text = "metrized_graph\nvertex a\nvertex b\nedge e a b 1\npoint m on f at 1/2\n"
        with pytest.raises(UnknownVertex, match="line 5: unknown edge 'f'"):
            parse_graph_file(text)

    def test_parse_error_carries_line(self):
        try:
            parse_graph_file("metrized_graph\nvertex a\nwhatnow a b\n")
        except ParseError as exc:
            assert exc.line == 3
        else:
            pytest.fail("expected ParseError")

    def test_comments_and_blanks_ignored(self):
        text = "# leading\n\nmetrized_graph\nvertex v # inline\nedge e v v 1\n"
        graph, _, _ = parse_graph_file(text)
        assert len(graph.edges) == 1


class TestParseFiber:
    def test_chain_example(self):
        cfg = parse_fiber_file((GOLDEN / "chain.fib").read_text())
        assert len(cfg.components) == 2
        assert len(cfg.nodes) == 1

    def test_self_node(self):
        cfg = parse_fiber_file("fiber\ncomponent A genus 2\nnode n A A\n")
        assert cfg.nodes[0].is_self_node()

    def test_node_length(self):
        cfg = parse_fiber_file(
            "fiber\ncomponent A genus 2\nnode n A A length 2/3\n"
        )
        assert cfg.nodes[0].length == Fraction(2, 3)

    def test_unknown_component(self):
        with pytest.raises(UnknownComponent):
            parse_fiber_file((GOLDEN / "unknown_component.fib").read_text())

    def test_genus_too_small(self):
        with pytest.raises(GenusTooSmall):
            parse_fiber_file((GOLDEN / "genus_small.fib").read_text())

    @pytest.mark.parametrize("line", [
        "component A genus 1",  # the first component's name again
        "node n A",  # too short
        "node n A B 1",  # a length without the word
        "node n A B size 1",
        "node n A B length",  # the optional tail given in part
        "node n A B length 1 2",
        "node m A B",  # the first node's name again
    ])
    def test_malformed_or_duplicate_line(self, line):
        text = "fiber\ncomponent A genus 1\ncomponent B genus 1\nnode m A B\n"
        with pytest.raises(ParseError) as info:
            parse_fiber_file(text + line + "\n")
        assert info.value.line == 5

    def test_bad_genus(self):
        with pytest.raises(ParseError):
            parse_fiber_file("fiber\ncomponent A genus x\n")

    # int() reads these as 10, 1 and 1 (an Arabic-Indic digit one); each would
    # give a valid fiber, so only the grammar rejects them.
    @pytest.mark.parametrize("token", ["1_0", "+1", "\u0661", "-1", "1" * 41])
    def test_genus_digits_only(self, token):
        with pytest.raises(ParseError):
            parse_fiber_file(f"fiber\ncomponent A genus {token}\nnode n A A\n")

    @pytest.mark.parametrize("genus", [MAX_GENUS + 1, 10**23])
    def test_genus_above_cap(self, genus):
        with pytest.raises(GenusTooLarge):
            parse_fiber_file(f"fiber\ncomponent A genus {genus}\n")


GRAPH_TEXT = "metrized_graph\nvertex a\nvertex b\nedge e a b 1\npoint m on e at 1/2\n"
FIBER_TEXT = "fiber\ncomponent A genus 1\ncomponent B genus 1\nnode m A B\n"


class TestErrorLines:
    """A bad rational or a component genus above the cap names the line
    that holds it, as every malformed line does; the class stays."""

    @pytest.mark.parametrize("line", [
        "edge f a b 1/0",
        "point n on e at 1.5",
        "divisor a 1_000",
    ])
    def test_bad_rational_in_graph(self, line):
        with pytest.raises(BadRational, match="^line 6: cannot parse "):
            parse_graph_file(GRAPH_TEXT + line + "\n")

    def test_golden_bad_rational(self):
        with pytest.raises(BadRational, match="^line 4: cannot parse '1/0' as a rational"):
            parse_graph_file((GOLDEN / "bad_rational.mg").read_text())

    def test_bad_rational_in_fiber(self):
        with pytest.raises(BadRational, match="^line 5: cannot parse '1/0' as a rational"):
            parse_fiber_file(FIBER_TEXT + "node n A B length 1/0\n")

    def test_component_genus_above_cap(self):
        text = "fiber\ncomponent A genus 1\n# big\ncomponent B genus 12345\n"
        with pytest.raises(GenusTooLarge, match="^line 4: genus 12345 exceeds the limit "):
            parse_fiber_file(text)

    def test_fiber_genus_above_cap_names_no_line(self):
        half = MAX_GENUS // 2 + 1
        text = f"fiber\ncomponent A genus {half}\ncomponent B genus {half}\nnode n A B\n"
        with pytest.raises(GenusTooLarge, match=f"^genus {2 * half} exceeds the limit "):
            parse_fiber_file(text)

    def test_parse_rational_names_no_line(self):
        with pytest.raises(BadRational, match="^cannot parse '1/0' "):
            parse_rational("1/0")


class TestTwoFaultLines:
    """Which of two faults on one line is reported."""

    @pytest.mark.parametrize("line,error,match", [
        ("edge e a zz 1", ParseError, "duplicate name 'e'"),
        ("point m on e at 1/0", ParseError, "duplicate name 'm'"),
        ("edge f a zz 1/0", UnknownVertex, "unknown vertex 'zz'"),
    ])
    def test_graph(self, line, error, match):
        with pytest.raises(error, match=match):
            parse_graph_file(GRAPH_TEXT + line + "\n")

    @pytest.mark.parametrize("line,error,match", [
        ("node m A B length 1/0", BadRational, "cannot parse '1/0'"),  # the length is read first
        ("node n A Z length 1/0", BadRational, "cannot parse '1/0'"),
        ("component A genus x", ParseError, "duplicate component 'A'"),
    ])
    def test_fiber(self, line, error, match):
        with pytest.raises(error, match=match):
            parse_fiber_file(FIBER_TEXT + line + "\n")


# Each directive of the two formats, and the parser that reads it.
DIRECTIVES = {
    "vertex": parse_graph_file,
    "edge": parse_graph_file,
    "point": parse_graph_file,
    "divisor": parse_graph_file,
    "component": parse_fiber_file,
    "node": parse_fiber_file,
}


def test_every_directive_is_listed():
    graph, fiber = mg.fileformat._GRAPH_DIRECTIVES, mg.fileformat._FIBER_DIRECTIVES
    assert DIRECTIVES == {
        **dict.fromkeys(graph, parse_graph_file), **dict.fromkeys(fiber, parse_fiber_file)
    }


# A line of each directive that matches its usage.
LINES = {
    "vertex": "vertex c",
    "edge": "edge f a b 2",
    "point": "point n on e at 1/3",
    "divisor": "divisor m 1",
    "component": "component C genus 2",
    "node": "node n A B length 2",
}


@pytest.mark.parametrize("kind", DIRECTIVES)
def test_directive_of_the_other_format_is_unknown(kind):
    """A line that matches its directive's usage is still an unknown
    directive in the other format."""
    parse, text, lineno = (
        (parse_fiber_file, FIBER_TEXT, 5) if DIRECTIVES[kind] is parse_graph_file
        else (parse_graph_file, GRAPH_TEXT, 6)
    )
    with pytest.raises(ParseError, match=f"^line {lineno}: unknown directive '{kind}'$"):
        parse(text + LINES[kind] + "\n")


@pytest.mark.parametrize("kind", DIRECTIVES)
def test_usage_is_documented(kind):
    """A line that holds only the directive fits none; the `expected:`
    message quotes the directive's usage, which README and the module
    docstring show as written there."""
    parse = DIRECTIVES[kind]
    text, lineno = (GRAPH_TEXT, 6) if parse is parse_graph_file else (FIBER_TEXT, 5)
    with pytest.raises(ParseError, match=f"^line {lineno}: expected: {kind} ") as info:
        parse(text + kind + "\n")
    usage = str(info.value).split("expected: ", 1)[1]
    assert usage in (Path(__file__).parents[1] / "README.md").read_text()
    assert usage in mg.fileformat.__doc__


class TestRoundTrip:
    @pytest.mark.parametrize("name", ["segment.mg", "circle.mg", "theta.mg"])
    def test_graph_serializer_idempotent(self, name):
        text = (GOLDEN / name).read_text()
        once = serialize_graph(*parse_graph_file(text))
        twice = serialize_graph(*parse_graph_file(once))
        assert once == twice

    @pytest.mark.parametrize("name", ["chain.fib", "selfnode.fib"])
    def test_fiber_serializer_idempotent(self, name):
        text = (GOLDEN / name).read_text()
        once = serialize_fiber(parse_fiber_file(text))
        twice = serialize_fiber(parse_fiber_file(once))
        assert once == twice

    def test_node_length_round_trips(self):
        """A node of length other than 1 is written with its length, and a
        unit node without it."""
        text = "fiber\ncomponent A genus 1\ncomponent B genus 1\nnode m A B length 2/3\nnode n A B\n"
        cfg = parse_fiber_file(text)
        out = serialize_fiber(cfg)
        assert "node m A B length 2/3\n" in out
        assert "node n A B\n" in out
        cfg2 = parse_fiber_file(out)
        assert cfg2.nodes == cfg.nodes
        assert serialize_fiber(cfg2) == out

    def test_round_trip_preserves_content(self):
        text = (GOLDEN / "segment.mg").read_text()
        graph, names, divisor = parse_graph_file(text)
        graph2, names2, divisor2 = parse_graph_file(
            serialize_graph(graph, names, divisor)
        )
        assert sorted(graph2.vertex_list) == sorted(graph.vertex_list)
        assert len(graph2.edges) == len(graph.edges)
        assert divisor2 == divisor
        assert names2 == names

    def test_unnamed_interior_divisor_point_round_trips(self):
        """A divisor point inside an edge that no `point` line names is
        written with a name of its own, one that no vertex, edge or point
        already has, and parses back to the same divisor."""
        graph = MetrizedGraph(
            ["P", "e@1/2"], [("e", "P", "e@1/2", 1), ("f", "P", "P", 2)]
        )
        inside = GraphPoint.on_edge("e", Fraction(1, 2))
        loop = GraphPoint.on_edge("f", Fraction(2, 3))
        names = {"P": GraphPoint.at_vertex("P"), "m": loop}
        divisor = RDivisor({inside: 1, loop: Fraction(1, 2), "P": -1})
        text = serialize_graph(graph, names, divisor)
        graph2, names2, divisor2 = parse_graph_file(text)
        assert divisor2 == divisor
        assert names2["m"] == loop
        assert serialize_graph(graph2, names2, divisor2) == text
        # a point given at an end of its edge is written as that vertex
        end = RDivisor({GraphPoint.on_edge("e", 1): 2})
        assert parse_graph_file(serialize_graph(graph, {}, end))[2] == RDivisor({"e@1/2": 2})

    def test_vertex_named_otherwise_in_names(self):
        """A divisor term at a vertex is written under the vertex's own
        name, which the file declares, even when `names` gives it another."""
        g = MetrizedGraph(["P", "Q"], [("e", "P", "Q", 1)])
        d = RDivisor({"P": 1})
        text = serialize_graph(g, {"X": GraphPoint.at_vertex("P")}, d)
        assert parse_graph_file(text)[2] == d


class TestUnwritableIds:
    """An id the parser would not read back as a name of its own is a
    ValueError naming it, not a file that its own parser rejects."""

    def test_vertex_with_whitespace(self):
        g = subdivide_at(theta_graph(), GraphPoint.on_edge("t0", Fraction(1, 2)))[0]
        with pytest.raises(ValueError, match=r"\('cut', 't0', Fraction\(1, 2\)\)"):
            serialize_graph(g)

    def test_component_with_whitespace(self):
        cfg = FiberConfiguration([("A b", 1), ("B", 1)], [("n", "A b", "B")])
        with pytest.raises(ValueError, match="'A b'"):
            serialize_fiber(cfg)

    def test_vertices_written_alike(self):
        g = MetrizedGraph([1, "1"], [("e", 1, "1", 1)])
        with pytest.raises(ValueError, match="'1' is taken"):
            serialize_graph(g)

    def test_vertex_and_edge_of_one_name(self):
        g = MetrizedGraph(["e", "f"], [("e", "e", "f", 1)])
        with pytest.raises(ValueError, match="'e' is taken"):
            serialize_graph(g)

    @pytest.mark.parametrize("name", ["", "a#b", "a\tb", "a\nb", "a\u2028b"])
    def test_empty_or_comment_or_line_break(self, name):
        g = MetrizedGraph([name, "Q"], [("e", name, "Q", 1)])
        with pytest.raises(ValueError, match="whitespace or '#'"):
            serialize_graph(g)

    @pytest.mark.parametrize(
        "edge, offset",
        [("e", 0), ("e", 1), ("e", 2), ("e", -1), ("x", Fraction(1, 2)), ("e", 0.5)],
    )
    def test_named_point_not_inside_an_edge(self, edge, offset):
        """A named point at an end of its edge, beyond it, on an edge the
        graph lacks, or at a float offset could not be declared by a
        `point` line."""
        g = MetrizedGraph(["P", "Q"], [("e", "P", "Q", 1)])
        names = {"m": GraphPoint(edge=edge, offset=offset)}
        with pytest.raises(ValueError, match="cannot write point 'm'"):
            serialize_graph(g, names)

    def test_component_and_node_may_share_a_name(self):
        """Components and nodes are two namespaces, as the parser reads."""
        cfg = FiberConfiguration([("A", 1), ("B", 1)], [("A", "A", "B")])
        text = serialize_fiber(cfg)
        assert serialize_fiber(parse_fiber_file(text)) == text


# characters at which str.splitlines() ends a line, but an editor does not
NOT_LINE_BREAKS = ["\x0b", "\x0c", "\x1c", "\x1d", "\x1e", "\x85", "\u2028", "\u2029"]

GOLDEN_FILES = [
    ("segment.mg", parse_graph_file, lambda parsed: serialize_graph(*parsed)),
    ("circle.mg", parse_graph_file, lambda parsed: serialize_graph(*parsed)),
    ("theta.mg", parse_graph_file, lambda parsed: serialize_graph(*parsed)),
    ("interior.mg", parse_graph_file, lambda parsed: serialize_graph(*parsed)),
    ("chain.fib", parse_fiber_file, serialize_fiber),
    ("selfnode.fib", parse_fiber_file, serialize_fiber),
]


class TestLineBreaks:
    @pytest.mark.parametrize("char", NOT_LINE_BREAKS)
    def test_comment_holding_one_is_one_line(self, char):
        fiber = "fiber\ncomponent A genus 2\n"
        commented = f"fiber\n# a{char}b\ncomponent A genus 2\n"
        assert serialize_fiber(parse_fiber_file(commented)) == serialize_fiber(
            parse_fiber_file(fiber)
        )
        graph = (GOLDEN / "interior.mg").read_text()
        commented = graph.replace("\n", f" # a{char}b\n", 1)
        assert serialize_graph(*parse_graph_file(commented)) == serialize_graph(
            *parse_graph_file(graph)
        )

    @pytest.mark.parametrize("char", NOT_LINE_BREAKS)
    def test_later_error_names_the_line_an_editor_shows(self, char):
        text = f"metrized_graph\n# a{char}b\nvertex P\nedge e P Q 1\n"
        with pytest.raises(UnknownVertex, match="^line 4: "):
            parse_graph_file(text)

    @pytest.mark.parametrize("newline", ["\n", "\r\n", "\r"])
    def test_lines_end_at_each_newline(self, newline):
        text = newline.join(["metrized_graph", "# comment", "vertex P", "edge e P Q 1", ""])
        with pytest.raises(UnknownVertex, match="^line 4: "):
            parse_graph_file(text)


@given(
    case=st.sampled_from(GOLDEN_FILES),
    where=st.integers(0, 100),
    comment=st.text(st.characters(blacklist_characters="\r\n")),
)
def test_comment_added_to_a_line_changes_nothing(case, where, comment):
    """A comment of any text without \\r or \\n, at the end of any line of
    a golden file, leaves the parse as it was."""
    name, parse, serialize = case
    text = (GOLDEN / name).read_text()
    lines = text.split("\n")
    i = where % len(lines)
    lines[i] += " #" + comment
    assert serialize(parse("\n".join(lines))) == serialize(parse(text))


DIGITS = st.text("0123456789", min_size=1, max_size=MAX_RATIONAL_DIGITS)


@given(
    sign=st.sampled_from(["", "-"]),
    p=st.sampled_from(["0", "00", "007"]) | DIGITS,
    q=st.none() | st.sampled_from(["0", "000", "1", "0003"]) | DIGITS,
)
def test_parse_rational_reads_what_fraction_reads(sign, p, q):
    """Every token the grammar accepts, signs, -0 and leading zeros
    included, parses to what Fraction parses it to; a zero denominator is
    a BadRational."""
    token = sign + p if q is None else f"{sign}{p}/{q}"
    if q is not None and not int(q):
        with pytest.raises(BadRational):
            parse_rational(token)
    else:
        value = parse_rational(token)
        assert type(value) is Fraction and value == Fraction(token)
