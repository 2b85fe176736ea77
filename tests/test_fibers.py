import json
from fractions import Fraction
from pathlib import Path
from random import Random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import reference as ref
from mg import cli, fibers, graphs, linalg
from mg import (
    Disconnected,
    FiberConfiguration,
    GenusTooSmall,
    NodeNotFound,
    NonpositiveLength,
    NotAChain,
    RDivisor,
    UnknownComponent,
    classify_node,
    configuration_graph,
    delta_vector,
    fiber_e,
    fiber_e_closed_form,
    fiber_genus,
    fiber_report,
    green_system,
    is_chain_of_stable_components,
    omega_divisor,
    unstable_components,
)
from gen import frac, random_chain_config
from mg.bounds import chain_e_coefficient
from mg.fileformat import parse_fiber_file, serialize_fiber

GOLDEN = Path(__file__).parent / "golden"


def cfg_two_elliptic():
    return FiberConfiguration([("A", 1), ("B", 1)], [("n", "A", "B")])


def cfg_selfnode_genus2():
    return FiberConfiguration([("A", 2)], [("n", "A", "A")])


def cfg_one_two():
    return FiberConfiguration([("A", 1), ("B", 2)], [("n", "A", "B")])


class TestGenus:
    def test_two_elliptic(self):
        assert fiber_genus(cfg_two_elliptic()) == 2

    def test_selfnode(self):
        assert fiber_genus(cfg_selfnode_genus2()) == 3

    def test_one_two(self):
        assert fiber_genus(cfg_one_two()) == 3

    def test_too_small(self):
        with pytest.raises(GenusTooSmall):
            fiber_genus(FiberConfiguration([("A", 1)], []))

    def test_disconnected(self):
        with pytest.raises(Disconnected):
            fiber_genus(FiberConfiguration([("A", 1), ("B", 1)], []))

    def test_unknown_component_reference(self):
        with pytest.raises(UnknownComponent):
            FiberConfiguration([("A", 1)], [("n", "A", "Z")])

    def test_negative_genus(self):
        with pytest.raises(ValueError, match="component 'A' has negative genus"):
            FiberConfiguration([("A", -1)])

    def test_duplicate_component_ids(self):
        with pytest.raises(ValueError, match="duplicate component ids"):
            FiberConfiguration([("A", 1), ("A", 2)])

    def test_duplicate_node_ids(self):
        with pytest.raises(ValueError, match="duplicate node ids"):
            FiberConfiguration([("A", 1), ("B", 1)], [("n", "A", "B"), ("n", "B", "A")])

    def test_genus_of(self):
        cfg = cfg_one_two()
        assert (cfg.genus_of("A"), cfg.genus_of("B")) == (1, 2)
        with pytest.raises(UnknownComponent):
            cfg.genus_of("C")

    def test_zero_length_node(self):
        # the fiber rejects it by node, before its graph (which would name
        # an edge) is ever validated
        with pytest.raises(NonpositiveLength, match=r"^node 'n' has length 0$"):
            FiberConfiguration([("A", 1), ("B", 1)], [("n", "A", "B", 0)])


class TestClassify:
    def test_self_node_is_type_zero(self):
        assert classify_node(cfg_selfnode_genus2(), "n").type == 0

    def test_two_elliptic_single_node(self):
        assert classify_node(cfg_two_elliptic(), "n").type == 1

    def test_one_two_single_node(self):
        assert classify_node(cfg_one_two(), "n").type == 1

    def test_parallel_nodes_are_type_zero(self):
        cfg = FiberConfiguration(
            [("A", 1), ("B", 1)], [("n1", "A", "B"), ("n2", "A", "B")]
        )
        assert classify_node(cfg, "n1").type == 0
        assert classify_node(cfg, "n2").type == 0

    def test_side_betti_counts(self):
        # A(1) with a loop -- n -- B(1): left side has arithmetic genus 2
        cfg = FiberConfiguration(
            [("A", 1), ("B", 1)], [("s", "A", "A"), ("n", "A", "B")]
        )
        assert fiber_genus(cfg) == 3
        assert classify_node(cfg, "n").type == 1  # min(2, 1)

    def test_unknown_node(self):
        with pytest.raises(NodeNotFound):
            classify_node(cfg_two_elliptic(), "zzz")

    def test_sides_sum_to_genus(self):
        rng = Random(83)
        for _ in range(20):
            cfg = random_chain_config(rng)
            g = fiber_genus(cfg)
            for n in cfg.nodes:
                t = classify_node(cfg, n.id).type
                if not n.is_self_node():
                    assert 1 <= t <= g // 2


class TestDelta:
    def test_selfnode(self):
        assert delta_vector(cfg_selfnode_genus2()) == [1, 0]

    def test_one_two(self):
        assert delta_vector(cfg_one_two()) == [0, 1]

    def test_two_parallel_nodes(self):
        cfg = FiberConfiguration(
            [("A", 1), ("B", 1)], [("n1", "A", "B"), ("n2", "A", "B")]
        )
        assert delta_vector(cfg) == [2, 0]

    def test_counts_sum_to_node_count(self):
        rng = Random(89)
        for _ in range(15):
            cfg = random_chain_config(rng)
            assert sum(delta_vector(cfg)) == len(cfg.nodes)


class TestOmega:
    def test_one_two(self):
        omega = omega_divisor(cfg_one_two())
        coeffs = {p.vertex: a for p, a in omega.items()}
        assert coeffs == {"A": 1, "B": 3}
        assert omega.degree() == 4

    def test_selfnode(self):
        omega = omega_divisor(cfg_selfnode_genus2())
        assert omega.degree() == 4
        assert omega.coeff("A") == 4

    def test_smooth_fiber(self):
        cfg = FiberConfiguration([("A", 5)], [])
        assert omega_divisor(cfg).coeff("A") == 8

    def test_sum_is_2g_minus_2(self):
        rng = Random(97)
        for _ in range(20):
            cfg = random_chain_config(rng)
            assert omega_divisor(cfg).degree() == 2 * fiber_genus(cfg) - 2


class TestConfigurationGraph:
    def test_two_components_one_node(self):
        g = configuration_graph(cfg_two_elliptic())
        assert len(g.vertex_list) == 2
        assert len(g.edges) == 1
        assert g.edges[0].length == 1

    def test_self_node_is_loop(self):
        g = configuration_graph(cfg_selfnode_genus2())
        assert g.edges[0].is_loop()

    def test_chain_with_middle_loop(self):
        cfg = FiberConfiguration(
            [("A", 1), ("B", 1), ("C", 1)],
            [("n1", "A", "B"), ("n2", "B", "C"), ("s", "B", "B")],
        )
        g = configuration_graph(cfg)
        assert g.first_betti() == 1
        assert g.valence("B") == 4

    def test_node_lengths_carry_over(self):
        cfg = FiberConfiguration(
            [("A", 1), ("B", 1)], [("n", "A", "B", Fraction(2, 3))]
        )
        assert configuration_graph(cfg).total_length() == Fraction(2, 3)


class TestChainDetection:
    def test_path_with_loops(self):
        cfg = FiberConfiguration(
            [("A", 1), ("B", 1), ("C", 1)],
            [("n1", "A", "B"), ("n2", "B", "C"), ("s1", "A", "A"), ("s2", "C", "C")],
        )
        assert is_chain_of_stable_components(cfg)

    def test_parallel_nodes_not_a_chain(self):
        cfg = FiberConfiguration(
            [("A", 1), ("B", 1)], [("n1", "A", "B"), ("n2", "A", "B")]
        )
        assert not is_chain_of_stable_components(cfg)

    def test_star_not_a_chain(self):
        cfg = FiberConfiguration(
            [("M", 1), ("A", 1), ("B", 1), ("C", 1)],
            [("n1", "M", "A"), ("n2", "M", "B"), ("n3", "M", "C")],
        )
        assert not is_chain_of_stable_components(cfg)

    def test_single_component_counts(self):
        assert is_chain_of_stable_components(cfg_selfnode_genus2())


class TestFiberE:
    def test_one_two(self):
        assert fiber_e(cfg_one_two()) == Fraction(5, 3)
        assert fiber_e_closed_form(cfg_one_two()) == Fraction(5, 3)

    def test_selfnode(self):
        assert fiber_e(cfg_selfnode_genus2()) == Fraction(2, 9)
        assert fiber_e_closed_form(cfg_selfnode_genus2()) == Fraction(2, 9)

    def test_two_elliptic_g2(self):
        assert fiber_e_closed_form(cfg_two_elliptic()) == 1
        assert fiber_e(cfg_two_elliptic()) == 1

    def test_smooth_fiber_is_zero(self):
        cfg = FiberConfiguration([("A", 3)], [])
        assert fiber_e(cfg) == 0
        assert fiber_e_closed_form(cfg) == 0

    def test_not_a_chain_rejected(self):
        cfg = FiberConfiguration(
            [("A", 1), ("B", 1)], [("n1", "A", "B"), ("n2", "A", "B")]
        )
        with pytest.raises(NotAChain):
            fiber_e_closed_form(cfg)

    def test_closed_form_matches_solver_randomized(self):
        rng = Random(101)
        for _ in range(30):
            cfg = random_chain_config(rng)
            assert fiber_e_closed_form(cfg) == fiber_e(cfg)

    def test_long_chain_matches_closed_form(self):
        # 200 components of genus 1-3 with self-nodes and lengths other
        # than 1: the solver's e_y on a long tridiagonal kernel
        rng = Random(107)
        n = 200
        comps = [(f"C{i}", rng.randint(1, 3)) for i in range(n)]
        nodes = [
            (f"n{i}", f"C{i - 1}", f"C{i}", frac(rng) if i % 3 == 0 else 1)
            for i in range(1, n)
        ]
        nodes += [(f"s{i}", f"C{i}", f"C{i}", frac(rng)) for i in range(0, n, 7)]
        cfg = FiberConfiguration(comps, nodes)
        assert fiber_e(cfg) == fiber_e_closed_form(cfg)

    def test_type_zero_nodes_lie_on_cycles(self):
        rng = Random(103)
        for _ in range(15):
            cfg = random_chain_config(rng)
            graph = configuration_graph(cfg)
            for n in cfg.nodes:
                t = classify_node(cfg, n.id).type
                rest = [e for e in graph.edges if e.id != n.id]
                still = type(graph)(graph.vertex_list, rest)
                on_cycle = n.is_self_node() or still.connects(n.a, n.b)
                assert (t == 0) == on_cycle


class TestStability:
    def test_unstable_component_flagged(self):
        # genus-0 leaf attached by one node: omega coefficient -1
        cfg = FiberConfiguration([("A", 0), ("B", 2)], [("n", "A", "B")])
        assert unstable_components(cfg) == ["A"]
        report = fiber_report(cfg)
        assert report.warnings

    def test_stable_configuration_has_no_warnings(self):
        assert fiber_report(cfg_one_two()).warnings == ()


class TestReport:
    def test_fields(self):
        rep = fiber_report(cfg_one_two())
        assert rep.genus == 3
        assert rep.delta == (0, 1)
        assert rep.omega == {"A": 1, "B": 3}
        assert rep.is_chain
        assert rep.e == Fraction(5, 3)
        assert rep.e_closed_form == Fraction(5, 3)

    def test_closed_form_absent_for_non_chain(self):
        cfg = FiberConfiguration(
            [("A", 1), ("B", 1)], [("n1", "A", "B"), ("n2", "A", "B")]
        )
        rep = fiber_report(cfg)
        assert rep.e_closed_form is None
        assert rep.e == fiber_e(cfg)


class TestLongChain:
    def test_five_thousand_elliptic_components(self):
        # The node between C(i-1) and C(i) splits the genus into i and
        # 5000 - i, so types 1..2499 occur twice each and type 2500 once.
        # The chain factors with no fill, so e is exact in a few seconds.
        n = 5000
        cfg = FiberConfiguration(
            [(f"C{i}", 1) for i in range(n)],
            [(f"n{i}", f"C{i - 1}", f"C{i}") for i in range(1, n)],
        )
        assert delta_vector(cfg) == [0] + [2] * (n // 2 - 1) + [1]
        assert is_chain_of_stable_components(cfg)
        assert fiber_genus(cfg) == n
        assert fiber_e(cfg) == fiber_e_closed_form(cfg)


class TestOneAnalysis:
    """A configuration builds its graph once and keeps its bridge walk, so
    one `mg fiber analyze` walks once, builds one graph and factors once."""

    @pytest.fixture
    def counts(self, monkeypatch):
        counter = {"walk": 0, "graph": 0, "factor": 0}
        for key, cls in (("walk", fibers._Walk), ("graph", graphs.MetrizedGraph),
                         ("factor", linalg.Factorization)):

            def init(self, *args, _key=key, _real=cls.__init__, **kwargs):
                counter[_key] += 1
                _real(self, *args, **kwargs)

            monkeypatch.setattr(cls, "__init__", init)
        return counter

    def test_fiber_analyze(self, counts, capsys):
        assert cli.main(["fiber", "analyze", str(GOLDEN / "chain.fib")]) == 0
        assert counts == {"walk": 1, "graph": 1, "factor": 1}

    def test_fiber_e_after_report(self, counts):
        cfg = cfg_one_two()
        fiber_report(cfg)
        before = dict(counts)
        assert fiber_e(cfg) == Fraction(5, 3)
        assert counts == before

    def test_every_question_reads_one_walk(self, counts):
        cfg = cfg_one_two()
        fiber_genus(cfg)
        classify_node(cfg, "n")
        delta_vector(cfg)
        is_chain_of_stable_components(cfg)
        fiber_e_closed_form(cfg)
        fiber_report(cfg)
        assert counts["walk"] == 1
        assert configuration_graph(cfg) is configuration_graph(cfg)

    def test_failed_walk_is_not_kept(self, counts):
        cfg = FiberConfiguration([("A", 0), ("B", 0)], [])
        for _ in range(2):
            with pytest.raises(Disconnected):
                fiber_genus(cfg)
        assert counts["walk"] == 2


class TestErrorOrder:
    """A disconnected configuration of genus < 2 is `Disconnected`; the
    shape questions still answer below genus 2."""

    def disconnected(self):
        return FiberConfiguration([("A", 0), ("B", 1)], [("s", "A", "A")])

    def test_parse(self):
        with pytest.raises(Disconnected):
            parse_fiber_file(serialize_fiber(self.disconnected()))

    def test_report(self):
        with pytest.raises(Disconnected):
            fiber_report(self.disconnected())

    def test_omega_needs_no_walk(self):
        cfg = FiberConfiguration([("A", 2), ("B", 3)], [("s", "A", "A")])
        omega = omega_divisor(cfg)
        assert {p.vertex: a for p, a in omega.items()} == {"A": 4, "B": 4}
        with pytest.raises(Disconnected):
            fiber_genus(cfg)

    def test_shape_below_genus_two(self):
        cfg = FiberConfiguration([("A", 0), ("B", 1)], [("n", "A", "B")])
        with pytest.raises(GenusTooSmall):
            fiber_genus(cfg)
        assert classify_node(cfg, "n").type == 0
        assert is_chain_of_stable_components(cfg)


class TestZeroOmega:
    """A component with omega coefficient 0 is listed like any other."""

    def cfg(self):
        return FiberConfiguration(
            [("A", 1), ("R", 0), ("B", 1)], [("n1", "A", "R"), ("n2", "R", "B")]
        )

    def test_report(self):
        rep = fiber_report(self.cfg())
        assert rep.omega == {"A": 1, "R": 0, "B": 1}
        assert rep.warnings == ("component 'R' is not stable (omega coefficient <= 0)",)

    def test_cli(self, tmp_path, capsys):
        path = tmp_path / "zero.fib"
        path.write_text(serialize_fiber(self.cfg()))
        assert cli.main(["fiber", "analyze", str(path)]) == 0
        assert "omega R = 0\n" in capsys.readouterr().out
        assert cli.main(["--json", "fiber", "analyze", str(path)]) == 0
        records = json.loads(capsys.readouterr().out)
        omega = [r["exact"] for r in records if r["inputs"]["quantity"] == "omega"]
        assert omega == ["1", "1", "0"]  # A, B, R


def per_node_closed_form(cfg: FiberConfiguration) -> Fraction:
    """The chain closed form as one plain product per node: the sum over
    nodes n of chain_e_coefficient(g, type(n)) * length(n), each type from
    the reference classification."""
    g = fiber_genus(cfg)
    return sum(
        (
            chain_e_coefficient(g, ref.classify_node(cfg, n.id).type) * n.length
            for n in cfg.nodes
        ),
        Fraction(0),
    )


@settings(max_examples=100, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), regenus=st.booleans())
def test_closed_form_and_counts_match_reference(seed, regenus):
    """On chains with random rational lengths, the closed form summed per
    node type equals the per-node sum, and the unstable components and the
    delta vector equal the reference's.  With `regenus` the components get
    genera 0..3, so unstable components and genus < 2 occur."""
    rng = Random(seed)
    cfg = random_chain_config(rng)
    if regenus:
        cfg = FiberConfiguration(
            [(c.id, rng.randint(0, 3)) for c in cfg.components], cfg.nodes
        )
    assert unstable_components(cfg) == ref.unstable_components(cfg)
    betti = len(cfg.nodes) - len(cfg.components) + 1
    genus = sum(c.genus for c in cfg.components) + betti
    if genus < 2:
        with pytest.raises(GenusTooSmall):
            delta_vector(cfg)
        return
    assert delta_vector(cfg) == ref.delta_vector(cfg)
    assert fiber_e_closed_form(cfg) == per_node_closed_form(cfg)


class TestPublicTypes:
    """Fiber values a caller receives are plain Fractions: neither ints nor
    the fast rational type of `mg.linalg`."""

    def configs(self):
        rng = Random(109)
        return [
            cfg_one_two(),
            cfg_selfnode_genus2(),
            FiberConfiguration([("A", 3)], []),
            *(random_chain_config(rng) for _ in range(5)),
        ]

    def test_fiber_values(self):
        for cfg in self.configs():
            rep = fiber_report(cfg)
            omega = omega_divisor(cfg)
            values = [
                *rep.omega.values(),
                *(a for _, a in omega.items()),
                omega.degree(),
                rep.e,
                rep.e_closed_form,
                fiber_e_closed_form(cfg),
            ]
            assert values and all(type(x) is Fraction for x in values), values

    def test_degrees(self):
        cfg = cfg_one_two()
        for d in (RDivisor(), RDivisor({"A": 1}), omega_divisor(cfg)):
            assert type(d.degree()) is Fraction
            assert type(green_system(configuration_graph(cfg), d).degree) is Fraction


class TestTheta:
    """The genus-2 theta fiber: two rational components joined by three
    nodes.  It is not a chain, and its e_y lies above the chain bracket."""

    def cfg(self):
        return FiberConfiguration(
            [("A", 0), ("B", 0)],
            [("n1", "A", "B"), ("n2", "A", "B"), ("n3", "A", "B")],
        )

    def test_report(self):
        rep = fiber_report(self.cfg())
        assert rep.genus == 2
        assert rep.delta == (3, 0)
        assert rep.e == Fraction(5, 9)
        assert not rep.is_chain
        assert rep.e_closed_form is None
        assert rep.warnings == ()

    def test_chain_bracket_is_below_e(self):
        cfg = self.cfg()
        bracket = sum(chain_e_coefficient(2, 0) for _ in cfg.nodes)
        assert bracket == Fraction(1, 2)
        assert bracket < fiber_e(cfg)
