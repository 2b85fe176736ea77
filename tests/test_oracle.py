import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path
from random import Random

import pytest

from mg import (
    DegreeMinusTwo,
    Disconnected,
    FiberConfiguration,
    GraphPoint,
    MetrizedGraph,
    NonpositiveLength,
    RDivisor,
    circle_graph,
    configuration_graph,
    convergence_report,
    discretize,
    effective_resistance,
    green_system,
    numeric_green,
    numeric_resistance,
    observed_orders,
    omega_divisor,
    segment_graph,
    theta_graph,
)
import mg
from mg.cli import main
from mg.errors import BadGridSize, InputError, MissingExtra
from mg.oracle import MAX_GRID_NODES
from gen import random_divisor, random_graph


class TestDiscretize:
    def test_segment_node_count(self):
        dg = discretize(segment_graph(1), Fraction(1, 4))
        assert dg.n == 5
        assert len(dg.links) == 4

    def test_circle_two_nodes(self):
        dg = discretize(circle_graph(1), Fraction(1, 2))
        assert dg.n == 2
        assert len(dg.links) == 2

    def test_total_length_preserved(self):
        g = theta_graph((1, Fraction(3, 2), Fraction(5, 7)))
        dg = discretize(g, Fraction(1, 8))
        total = sum(r for _, _, r in dg.links)
        assert abs(total - float(g.total_length())) < 1e-12

    def test_locate_vertices_and_interior(self):
        g = segment_graph(1)
        dg = discretize(g, Fraction(1, 4))
        assert dg.locate(g, "P") != dg.locate(g, "Q")
        mid = dg.locate(g, GraphPoint.on_edge("e", Fraction(1, 2)))
        assert mid == dg.edge_chain["e"][2]

    @pytest.mark.parametrize("h", [0, -1, Fraction(-1, 3)])
    def test_nonpositive_h_is_input_error(self, h):
        assert issubclass(BadGridSize, InputError)
        with pytest.raises(ValueError, match="positive"):
            discretize(segment_graph(1), h)

    def test_grid_at_the_cap(self):
        dg = discretize(circle_graph(1), Fraction(1, MAX_GRID_NODES))
        assert len(dg.links) == MAX_GRID_NODES

    @pytest.mark.parametrize(
        "h", [Fraction(1, MAX_GRID_NODES + 1), Fraction(1, 10**20)], ids=["cap+1", "1e-20"]
    )
    def test_grid_over_the_cap_is_input_error(self, h):
        # rejected before the grid is built, so neither value allocates it
        with pytest.raises(BadGridSize, match="limit"):
            discretize(circle_graph(1), h)
        with pytest.raises(BadGridSize):
            numeric_green(circle_graph(1), RDivisor(), "O", "O", h)


class TestNumericResistance:
    def test_segment_exact(self):
        for h in (Fraction(1, 2), Fraction(1, 8)):
            assert abs(numeric_resistance(segment_graph(1), "P", "Q", h) - 1.0) < 1e-12

    def test_circle_antipodal(self):
        g = circle_graph(2)
        p = GraphPoint.on_edge("c", 1)
        assert abs(numeric_resistance(g, "O", p, Fraction(1, 4)) - 0.5) < 1e-12

    def test_theta(self):
        got = numeric_resistance(theta_graph(), "P", "Q", Fraction(1, 4))
        assert abs(got - 1 / 3) < 1e-12

    def test_matches_exact_solver(self):
        rng = Random(107)
        for _ in range(5):
            g = random_graph(rng, max_vertices=5)
            g.validate()
            u, v = rng.choice(g.vertex_list), rng.choice(g.vertex_list)
            exact = float(effective_resistance(g, u, v))
            got = numeric_resistance(g, u, v, Fraction(1, 8))
            assert abs(got - exact) < 1e-9

    def test_disconnected_is_input_error(self):
        g = MetrizedGraph(["P", "Q", "R"], [("e", "P", "Q", 1)])
        with pytest.raises(Disconnected):
            numeric_resistance(g, "P", "R", Fraction(1, 4))

    def test_zero_length_is_input_error(self):
        with pytest.raises(NonpositiveLength):
            numeric_resistance(segment_graph(0), "P", "Q", Fraction(1, 4))


class TestNumericGreen:
    def test_circle_value(self):
        g = circle_graph(1)
        got = numeric_green(g, RDivisor(), "O", "O", Fraction(1, 64))
        assert abs(got - 1 / 12) < 1e-3

    def test_segment_grid_exact(self):
        # atoms-only measure: piecewise linear Green function, exact on the
        # grid up to rounding
        g = segment_graph(1)
        d = RDivisor({"P": 1, "Q": 1})
        got = numeric_green(g, d, "P", "P", Fraction(1, 8))
        assert abs(got - 0.25) < 1e-12

    def test_degree_minus_two(self):
        g = segment_graph(1)
        with pytest.raises(DegreeMinusTwo):
            numeric_green(g, RDivisor({"P": -2}), "P", "Q", Fraction(1, 4))

    def test_error_at_least_halves(self):
        g = circle_graph(1)
        d = RDivisor()
        errors = []
        for h in (Fraction(1, 8), Fraction(1, 16), Fraction(1, 32)):
            got = numeric_green(g, d, "O", "O", h)
            errors.append(abs(got - 1 / 12))
        assert errors[1] <= errors[0] / 2 * 1.1
        assert errors[2] <= errors[1] / 2 * 1.1


class TestOneFactorization:
    """Each oracle call inverts the grid Laplacian once and reads every
    resistance, density and Green value from that inverse."""

    @pytest.fixture
    def calls(self, monkeypatch):
        import numpy

        counter = {"n": 0}
        for name in ("solve", "inv"):
            real = getattr(numpy.linalg, name)

            def counted(*args, _real=real, **kwargs):
                counter["n"] += 1
                return _real(*args, **kwargs)

            monkeypatch.setattr(numpy.linalg, name, counted)
        return counter

    def test_green(self, calls):
        d = RDivisor({"P": 1, "Q": 1})
        numeric_green(theta_graph(), d, "P", "Q", Fraction(1, 4))
        assert calls["n"] == 1

    def test_resistance(self, calls):
        numeric_resistance(theta_graph(), "P", "Q", Fraction(1, 4))
        assert calls["n"] == 1

    def test_degree_minus_two_solves_nothing(self, calls):
        with pytest.raises(DegreeMinusTwo):
            numeric_green(theta_graph(), RDivisor({"P": -2}), "P", "Q", Fraction(1, 4))
        assert calls["n"] == 0


def g3_chain_fiber_graph():
    cfg = FiberConfiguration(
        [("A", 1), ("B", 1)], [("n", "A", "B"), ("s", "B", "B")]
    )
    return configuration_graph(cfg), omega_divisor(cfg)


class TestConvergence:
    def test_circle_order(self):
        g = circle_graph(1)
        d = RDivisor()
        probes = [("O", "O"), ("O", GraphPoint.on_edge("c", Fraction(1, 4)))]
        rows = convergence_report(
            g, d, probes, [Fraction(1, 4), Fraction(1, 8), Fraction(1, 16)]
        )
        assert rows[0].max_error > rows[1].max_error > rows[2].max_error
        assert all(order >= 1 for order in observed_orders(rows))

    def test_theta_order(self):
        g = theta_graph()
        d = RDivisor({"P": 1, "Q": 1})
        probes = [("P", "Q"), ("P", "P")]
        rows = convergence_report(
            g, d, probes, [Fraction(1, 8), Fraction(1, 16), Fraction(1, 32)]
        )
        assert all(order >= 1 for order in observed_orders(rows))
        assert rows[-1].max_error < 1e-3

    def test_segment_near_machine_epsilon(self):
        g = segment_graph(1)
        d = RDivisor({"P": 1, "Q": 3})
        probes = [("P", "P"), ("P", "Q"), ("Q", "Q")]
        rows = convergence_report(
            g, d, probes, [Fraction(1, 8), Fraction(1, 16)]
        )
        assert all(row.max_error < 1e-12 for row in rows)

    def test_chain_fiber_graph(self):
        g, d = g3_chain_fiber_graph()
        probes = [("A", "A"), ("A", "B"), ("B", "B")]
        rows = convergence_report(
            g, d, probes, [Fraction(1, 16), Fraction(1, 32), Fraction(1, 64)]
        )
        assert rows[-1].max_error < 1e-3
        assert all(order >= 1 for order in observed_orders(rows))

    def test_random_graphs_match_exact(self):
        rng = Random(109)
        for _ in range(4):
            g = random_graph(rng, max_vertices=4)
            g.validate()
            d = random_divisor(rng, g)
            s = green_system(g, d)
            u, v = rng.choice(g.vertex_list), rng.choice(g.vertex_list)
            exact = float(s.eval(u, v))
            got = numeric_green(g, d, u, v, Fraction(1, 64))
            assert abs(got - exact) < 1e-2


def test_importing_the_cli_leaves_numpy_unloaded():
    src = str(Path(mg.__file__).resolve().parent.parent)
    out = subprocess.run(
        [sys.executable, "-c", "import sys, mg.cli; print('numpy' in sys.modules)"],
        capture_output=True,
        text=True,
        check=True,
        env={**os.environ, "PYTHONPATH": src},
    ).stdout
    assert out.strip() == "False"


def test_missing_numpy_is_input_error(monkeypatch, capsys):
    """numpy is the `oracle` extra: without it the oracle raises an
    InputError that names the extra, and `mg oracle green` exits 2 with no
    traceback and no output."""
    monkeypatch.setitem(sys.modules, "numpy", None)  # `import numpy` fails
    with pytest.raises(MissingExtra, match="'oracle' extra"):
        numeric_resistance(segment_graph(1), "P", "Q", Fraction(1, 4))
    golden = Path(__file__).resolve().parent / "golden" / "segment.mg"
    code = main(["oracle", "green", str(golden), "P", "P", "--h", "1/8"])
    out = capsys.readouterr()
    assert (code, out.out) == (2, "")
    assert out.err == (
        "error: MissingExtra: the oracle needs numpy, which the 'oracle' "
        "extra installs: pip install 'mg[oracle]'\n"
    )
