"""The package's record classes behave as value types, and importing the
CLI loads none of the heavy modules it has no use for.

Each record is built positionally or by keyword with its defaults, equals
only a record of its own class with equal fields, and prints its fields in
order.  The frozen ones (edges, points, components, nodes and node types)
hash as the tuple of their fields and refuse assignment and deletion; the
others are plain mutable records and unhashable.  Edges and nodes convert
a length that is not a Fraction themselves, so one built directly answers
as one built from a tuple."""

import copy
import os
import pickle
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import mg
from mg import (
    AdmissibleMeasure,
    BadDelta,
    Component,
    Edge,
    FiberConfiguration,
    FiberNode,
    FiberReport,
    FibrationStats,
    GraphPoint,
    InequalityCheck,
    MetrizedGraph,
    NodeType,
    effective_resistance,
    fiber_e_closed_form,
    fiber_report,
    segment_graph,
)
from mg.oracle import ConvergenceRow, DiscreteGraph


def check_frozen(cls, fields, values, other):
    """Records of `cls` built from equal `values` are equal, hash alike and
    survive a copy; one built from `other` differs; no field can be
    assigned or deleted."""
    a, b = cls(*values), cls(**dict(zip(fields, values)))
    assert a == b and a is not b and hash(a) == hash(b)
    assert a != cls(*other)
    assert a != tuple(values) and a != list(values)
    assert copy.copy(a) == a and pickle.loads(pickle.dumps(a)) == a
    for name, value in zip(fields, values):
        assert getattr(a, name) == value
        with pytest.raises(AttributeError):
            setattr(a, name, value)
        with pytest.raises(AttributeError):
            delattr(a, name)
        assert getattr(a, name) == value
    return a


def check_mutable(cls, fields, values, other):
    """Records of `cls` built from equal `values` are equal and unhashable;
    one built from `other` differs, and assigning its fields from `values`
    makes it equal."""
    a, b = cls(*values), cls(**dict(zip(fields, values)))
    assert a == b and a is not b
    assert a != tuple(values)
    with pytest.raises(TypeError):
        hash(a)
    assert copy.copy(a) == a
    c = cls(*other)
    assert c != a
    for name in fields:
        setattr(c, name, getattr(a, name))
    assert c == a
    return a


def test_edge():
    e = check_frozen(
        Edge, ("id", "u", "v", "length"), ("e", "u", "v", Fraction(1, 2)), ("e", "u", "v", 1)
    )
    assert Edge("e", "u", "v", 1) != ("e", "u", "v", 1)
    assert repr(e) == "Edge(id='e', u='u', v='v', length=Fraction(1, 2))"
    assert not e.is_loop() and Edge("l", "u", "u", 1).is_loop()


def test_graph_point():
    p = check_frozen(
        GraphPoint, ("vertex", "edge", "offset"), (None, "e", Fraction(1, 3)), (None, "e", 1)
    )
    assert repr(p) == "GraphPoint('e' @ 1/3)"
    assert GraphPoint.on_edge("e", Fraction(1, 3)) == p and not p.is_vertex
    # on_edge keeps a Fraction offset as it is, and converts anything else
    t = Fraction(1, 3)
    assert GraphPoint.on_edge("e", t).offset is t
    for given in (1, "1/3", 0.5):
        offset = GraphPoint.on_edge("e", given).offset
        assert type(offset) is Fraction and offset == Fraction(given)
    v = GraphPoint("v")
    assert repr(v) == "GraphPoint('v')" and v.is_vertex
    assert v == GraphPoint.at_vertex("v") == GraphPoint(vertex="v")
    assert (v.edge, v.offset) == (None, None)
    assert (GraphPoint().vertex, GraphPoint().edge, GraphPoint().offset) == (None, None, None)
    assert {v: 1}[GraphPoint("v")] == 1


def test_component():
    c = check_frozen(Component, ("id", "genus"), ("A", 1), ("A", 2))
    assert repr(c) == "Component(id='A', genus=1)"
    assert c != NodeType("A", 1)
    with pytest.raises(ValueError, match="component 'A' has negative genus"):
        Component("A", -1)


@pytest.mark.parametrize("genus", [1.5, "1", None, Fraction(1)], ids=repr)
def test_component_rejects_a_genus_that_is_not_an_int(genus):
    """A genus of another type is a TypeError naming the component, from
    the record and from a configuration built of tuples."""
    with pytest.raises(TypeError, match="component 'A' has genus .*, not an int"):
        Component("A", genus)
    with pytest.raises(TypeError, match="component 'A' has genus .*, not an int"):
        FiberConfiguration([("A", genus), ("B", 1)], [("n", "A", "B")])


def test_fiber_node():
    n = check_frozen(
        FiberNode, ("id", "a", "b", "length"), ("n", "A", "B", Fraction(2)), ("n", "B", "A", 2)
    )
    assert repr(n) == "FiberNode(id='n', a='A', b='B', length=Fraction(2, 1))"
    assert FiberNode("n", "A", "B").length == 1
    assert FiberNode("n", "A", "B", 1) != Edge("n", "A", "B", 1)
    assert not n.is_self_node() and FiberNode("s", "A", "A").is_self_node()


def test_node_type():
    t = check_frozen(NodeType, ("node", "type"), ("n", 1), ("n", 0))
    assert repr(t) == "NodeType(node='n', type=1)"
    assert t != Component("n", 1)


FROZEN = [
    (Edge, ("e", "u", "v", Fraction(1, 2))),
    (GraphPoint, (None, "e", Fraction(1, 3))),
    (Component, ("A", 1)),
    (FiberNode, ("n", "A", "B", Fraction(2))),
    (NodeType, ("n", 1)),
]


@pytest.mark.parametrize("cls, values", FROZEN, ids=[cls.__name__ for cls, _ in FROZEN])
def test_frozen_hash_is_the_hash_of_its_fields(cls, values):
    """A frozen record hashes as the tuple of its fields in `__slots__`
    order, so it keys a dict or a set as its fields do; a record of another
    class with the same fields hashes alike but is another key."""
    r = cls(*values)
    assert hash(r) == hash(tuple(getattr(r, name) for name in cls.__slots__)) == hash(values)
    assert {r: 1}[cls(*values)] == 1 and len({r, cls(*values)}) == 1
    for other, _ in FROZEN:
        if other is not cls and len(other.__slots__) == len(values):
            twin = other(*values)
            assert hash(twin) == hash(r) and twin != r and r != twin
            assert len({r, twin}) == 2


@pytest.mark.parametrize("length", [0.5, "1/2"], ids=repr)
def test_edge_converts_its_length(length):
    """An edge built directly with a float or str length answers as one
    built from a tuple with that length, and as one of length 1/2."""
    direct = MetrizedGraph(["P", "Q"], [Edge("e", "P", "Q", length)])
    from_tuple = MetrizedGraph(["P", "Q"], [("e", "P", "Q", length)])
    assert direct.edges == from_tuple.edges == (Edge("e", "P", "Q", Fraction(1, 2)),)
    assert type(direct.edges[0].length) is Fraction
    assert (
        effective_resistance(direct, "P", "Q")
        == effective_resistance(from_tuple, "P", "Q")
        == Fraction(1, 2)
    )


@pytest.mark.parametrize("length", [0.5, "1/2"], ids=repr)
def test_fiber_node_converts_its_length(length):
    """A chain fiber whose nodes are built directly with a float or str
    length has nodes of length 1/2, and the report and the closed-form e
    of the same fiber built from tuples."""

    def chain(make):
        return FiberConfiguration(
            [("A", 1), ("B", 0)], [make("n", "A", "B", length), make("s", "B", "B", length)]
        )

    direct, from_tuple = chain(FiberNode), chain(lambda *node: node)
    assert direct.nodes == from_tuple.nodes
    assert [n.length for n in direct.nodes] == [Fraction(1, 2)] * 2
    assert fiber_report(direct) == fiber_report(from_tuple)
    assert fiber_e_closed_form(direct) == fiber_e_closed_form(from_tuple)
    assert fiber_report(direct).e == fiber_e_closed_form(direct)


def test_fiber_report():
    check_mutable(
        FiberReport,
        ("genus", "delta", "omega", "is_chain", "e", "e_closed_form", "warnings"),
        (2, (1, 0), {"A": Fraction(1)}, True, Fraction(1, 3), None, ("w",)),
        (2, (1, 0), {"A": Fraction(1)}, True, Fraction(1, 3), Fraction(1, 3)),
    )
    r = FiberReport(2, (1,), {}, True, Fraction(1), None)
    assert r.warnings == ()
    assert repr(r) == (
        "FiberReport(genus=2, delta=(1,), omega={}, is_chain=True, e=Fraction(1, 1), "
        "e_closed_form=None, warnings=())"
    )


def test_fibration_stats():
    s = check_mutable(
        FibrationStats,
        ("g", "lambda_deg", "delta", "smooth"),
        (2, Fraction(1), (Fraction(0), Fraction(1)), False),
        (2, Fraction(2), (Fraction(0), Fraction(1)), False),
    )
    assert repr(s) == (
        "FibrationStats(g=2, lambda_deg=Fraction(1, 1), "
        "delta=(Fraction(0, 1), Fraction(1, 1)), smooth=False)"
    )
    t = FibrationStats(2, 1, [0, 1])
    assert t == s and not t.smooth
    assert type(t.lambda_deg) is Fraction and type(t.delta) is tuple
    with pytest.raises(BadDelta):
        FibrationStats(2, 1, [-1, 0])
    with pytest.raises(BadDelta):
        FibrationStats(2, 1, [1, 0], smooth=True)


def test_inequality_check():
    c = check_mutable(
        InequalityCheck,
        ("lhs", "rhs", "slack", "holds"),
        (Fraction(3), Fraction(2), Fraction(1), True),
        (Fraction(1), Fraction(2), Fraction(-1), False),
    )
    assert repr(c) == (
        "InequalityCheck(lhs=Fraction(3, 1), rhs=Fraction(2, 1), slack=Fraction(1, 1), holds=True)"
    )


def test_admissible_measure():
    g = segment_graph(1)
    m = check_mutable(
        AdmissibleMeasure,
        ("graph", "atoms", "densities"),
        (g, {0: Fraction(1, 2), 1: Fraction(1, 2)}, {}),
        (g, {}, {"e": Fraction(1)}),
    )
    assert m.total_mass() == 1 and m.atom(0) == Fraction(1, 2) and m.density("e") == 0


def test_discrete_graph():
    d = check_mutable(
        DiscreteGraph,
        ("n", "links", "vertex_node", "edge_chain", "edge_step"),
        (2, [(0, 1, 1.0)], {"a": 0, "b": 1}, {"e": [0, 1]}, {"e": 1.0}),
        (3, [], {}, {}, {}),
    )
    assert repr(d) == (
        "DiscreteGraph(n=2, links=[(0, 1, 1.0)], vertex_node={'a': 0, 'b': 1}, "
        "edge_chain={'e': [0, 1]}, edge_step={'e': 1.0})"
    )


def test_convergence_row():
    r = check_mutable(
        ConvergenceRow, ("h", "max_error"), (Fraction(1, 2), 0.25), (Fraction(1, 4), 0.25)
    )
    assert repr(r) == "ConvergenceRow(h=Fraction(1, 2), max_error=0.25)"


# Modules that `import mg.cli` must not load: the class generator and what
# it imports, `typing`, and numpy, which only `mg oracle` needs.
UNWANTED = ("dataclasses", "inspect", "ast", "dis", "tokenize", "typing", "numpy")


def test_importing_the_cli_loads_no_unwanted_module():
    """In a bare interpreter (`-S`: no `site`, which loads some of these
    itself), importing the CLI loads none of UNWANTED.  Module names, not
    times, so the check is deterministic."""
    src = str(Path(mg.__file__).resolve().parent.parent)
    code = "import sys, mg.cli; print(*[m for m in sys.argv[1:] if m in sys.modules])"
    proc = subprocess.run(
        [sys.executable, "-S", "-c", code, *UNWANTED],
        capture_output=True,
        text=True,
        check=True,
        env={**os.environ, "PYTHONPATH": src},
    )
    assert proc.stdout.split() == []
