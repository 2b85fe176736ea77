from fractions import Fraction
from random import Random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mg import (
    AdmissibleMeasure,
    ConstancyViolation,
    DegreeMinusTwo,
    GraphPoint,
    MetrizedGraph,
    PointOffGraph,
    RDivisor,
    admissible_measure,
    canonical_measure,
    circle_graph,
    constant_c,
    e_invariant,
    e_of_system,
    e_via_basepoint,
    effective_resistance,
    green_system,
    one_point_sum,
    path_graph,
    scale_lengths,
    segment_graph,
    subdivide_at,
    theta_graph,
)
import mg.green
from mg.resistance import resistance_kernel
from faults import fault_canonical, fault_ground, fault_inverse, fault_solve
from gen import cycle_chords, frac, random_divisor, random_graph, random_point
from quadrature import integral


class TestCanonicalMeasure:
    def test_circle_is_uniform(self):
        mu = canonical_measure(circle_graph(Fraction(5, 2)))
        assert mu.atoms == {"O": 0}
        assert mu.densities == {"c": Fraction(2, 5)}
        assert mu.total_mass() == 1

    def test_segment_is_half_half(self):
        mu = canonical_measure(segment_graph(3))
        assert mu.atoms == {"P": Fraction(1, 2), "Q": Fraction(1, 2)}
        assert mu.densities == {"e": 0}

    def test_unit_theta(self):
        mu = canonical_measure(theta_graph())
        assert mu.atoms == {"P": Fraction(-1, 2), "Q": Fraction(-1, 2)}
        assert all(rho == Fraction(2, 3) for rho in mu.densities.values())
        assert mu.total_mass() == 1

    def test_mass_one_on_random_graphs(self):
        rng = Random(5)
        for _ in range(30):
            g = random_graph(rng)
            g.validate()
            assert canonical_measure(g).total_mass() == 1


class TestAdmissibleMeasure:
    def test_segment_lemma_values(self):
        # D = (2a-1)P + (2b-1)Q with a=1, b=2: atoms a/(a+b), b/(a+b)
        g = segment_graph(1)
        mu = admissible_measure(g, RDivisor({"P": 1, "Q": 3}))
        assert mu.atoms == {"P": Fraction(1, 3), "Q": Fraction(2, 3)}
        assert mu.densities == {"e": 0}

    def test_circle_divisor_zero(self):
        mu = admissible_measure(circle_graph(4), RDivisor())
        assert mu.atoms == {"O": 0}
        assert mu.densities == {"c": Fraction(1, 4)}

    def test_one_point_sum_composition(self):
        # mu measures compose with coefficients (d1+2)/(d1+d2+2),
        # (d2+2)/(d1+d2+2), -2/(d1+d2+2); at d1=d2=0 these are (1, 1, -1)
        rng = Random(23)
        for _ in range(10):
            g1 = random_graph(rng, max_vertices=4)
            g2 = random_graph(rng, max_vertices=4)
            g1.validate()
            g2.validate()
            x1 = GraphPoint.at_vertex(rng.choice(g1.vertex_list))
            x2 = GraphPoint.at_vertex(rng.choice(g2.vertex_list))
            joined, joint, r1, r2 = one_point_sum(g1, x1, g2, x2)
            mu = admissible_measure(joined, RDivisor())
            mu1 = canonical_measure(g1)
            mu2 = canonical_measure(g2)
            expected = mu1.atom(x1.vertex) + mu2.atom(x2.vertex) - 1
            assert mu.atom(joint) == expected
            for v in g1.vertex_list:
                if v != x1.vertex:
                    assert mu.atom(r1(GraphPoint.at_vertex(v)).vertex) == mu1.atom(v)
            for v in g2.vertex_list:
                if v != x2.vertex:
                    assert mu.atom(r2(GraphPoint.at_vertex(v)).vertex) == mu2.atom(v)

    def test_degree_minus_two_rejected(self):
        g = segment_graph(1)
        with pytest.raises(DegreeMinusTwo):
            admissible_measure(g, RDivisor({"P": -2}))

    def test_interior_support_atom(self):
        g = segment_graph(1)
        m = GraphPoint.on_edge("e", Fraction(1, 2))
        mu = admissible_measure(g, RDivisor({m: 2}))
        assert mu.graph is g
        assert mu.total_mass() == 1
        assert mu.atoms[m] == Fraction(2, 4)  # (2 + 2*0)/(deg+2), deg=2

    def test_mass_one_with_divisors(self):
        rng = Random(29)
        for _ in range(25):
            g = random_graph(rng)
            g.validate()
            d = random_divisor(rng, g, interior=True)
            assert admissible_measure(g, d).total_mass() == 1


class TestGreenValues:
    def test_circle_formula(self):
        # regression pinning the Laplacian sign convention:
        # g(O, x) = t^2/(2l) - t/2 + l/12
        l = Fraction(7, 2)
        s = green_system(circle_graph(l), RDivisor())
        for num in range(8):
            t = l * Fraction(num, 8)
            x = GraphPoint.on_edge("c", t) if 0 < t < l else GraphPoint.at_vertex("O")
            assert s.eval("O", x) == t**2 / (2 * l) - t / 2 + l / 12

    def test_circle_l12_diagonal_is_one(self):
        s = green_system(circle_graph(12), RDivisor())
        assert s.eval("O", "O") == 1

    def test_segment_lemma_44(self):
        # a=1, b=2, l=3
        g = segment_graph(3)
        s = green_system(g, RDivisor({"P": 1, "Q": 3}))
        assert s.eval("P", "P") == Fraction(4, 3)
        assert s.eval("Q", "Q") == Fraction(1, 3)
        assert s.eval("P", "Q") == Fraction(-2, 3)
        assert s.eval("Q", "P") == Fraction(-2, 3)
        assert mg.green.green_eval(s, "P", "Q") == Fraction(-2, 3)

    def test_interior_pair_on_same_edge(self):
        # on the circle g depends only on arc distance
        l = Fraction(1)
        s = green_system(circle_graph(l), RDivisor())
        x = GraphPoint.on_edge("c", Fraction(1, 4))
        y = GraphPoint.on_edge("c", Fraction(3, 4))
        t = Fraction(1, 2)  # arc distance
        assert s.eval(x, y) == t**2 / (2 * l) - t / 2 + l / 12

    def test_symmetry_everywhere(self):
        rng = Random(31)
        for _ in range(10):
            g = random_graph(rng, max_vertices=6)
            g.validate()
            d = random_divisor(rng, g)
            s = green_system(g, d)
            for _ in range(4):
                x, y = random_point(rng, g), random_point(rng, g)
                assert s.eval(x, y) == s.eval(y, x)

    def test_zero_mean_property(self):
        # integral of g(x, .) dmu vanishes at vertex and interior x, also
        # when the measure has atoms inside edges
        rng = Random(37)
        for _ in range(10):
            g = random_graph(rng, max_vertices=6)
            g.validate()
            d = random_divisor(rng, g, interior=True)
            s = green_system(g, d)
            xs = [GraphPoint.at_vertex(rng.choice(g.vertex_list))]
            if g.edges:
                e = rng.choice(g.edges)
                t = e.length * Fraction(rng.randint(1, 3), 4)
                xs.append(GraphPoint.on_edge(e.id, t))
            for x in xs:
                assert integral(s.measure, lambda y: s.eval(x, y), kinks=[x]) == 0

    def test_resistance_identity(self):
        # r(P,Q) = g(P,P) - 2g(P,Q) + g(Q,Q) for every divisor
        rng = Random(41)
        for _ in range(10):
            g = random_graph(rng, max_vertices=6)
            g.validate()
            d = random_divisor(rng, g)
            s = green_system(g, d)
            p, q = random_point(rng, g), random_point(rng, g)
            lhs = effective_resistance(g, p, q)
            rhs = s.eval(p, p) - 2 * s.eval(p, q) + s.eval(q, q)
            assert lhs == rhs


class TestConstant:
    def test_segment_unit(self):
        g = segment_graph(1)
        s = green_system(g, RDivisor({"P": 1, "Q": 1}))
        assert constant_c(s) == Fraction(1, 4)

    def test_circle(self):
        l = Fraction(9, 4)
        s = green_system(circle_graph(l), RDivisor())
        assert constant_c(s) == l / 12

    def test_constancy_on_random_graphs(self):
        # through public reads, g(D, y) + g(y, y) = c at every vertex, every
        # point of D and one interior point per edge, and g(D, D) is the sum
        # of a_i g(D, P_i): the potential j against the h-and-Gamma reads
        rng = Random(43)
        offsets = Random(44)  # leaves the graphs drawn from rng unchanged
        for _ in range(25):
            g = random_graph(rng, max_vertices=6)
            g.validate()
            d = random_divisor(rng, g, interior=True)
            s = green_system(g, d)  # raises on violation
            c = constant_c(s)
            points = [*g.vertex_list, *(p for p, _ in d.items())]
            for e in g.edges:
                t = e.length * Fraction(offsets.randint(1, 99), 100)
                points.append(GraphPoint.on_edge(e.id, t))
            for y in points:
                assert s.green_of_divisor(y) + s.eval(y, y) == c
            pairing = sum((a * s.green_of_divisor(p) for p, a in d.items()), Fraction(0))
            assert s.pairing_dd() == pairing

    @staticmethod
    def _patch_measure(monkeypatch, bad):
        """Make the measure builder of `GreenSystem.measure` return `bad`,
        and count its calls."""
        calls = []

        def wrong(g, d, deg):
            calls.append((g, d))
            return bad

        monkeypatch.setattr(mg.green, "_measure", wrong)
        return calls

    def test_violation_detected_for_wrong_measure(self, monkeypatch):
        # corrupt the admissible measure: move atom mass between vertices;
        # the system is built, and reading its measure must notice
        g = segment_graph(1)
        d = RDivisor({"P": 1, "Q": 1})
        bad = AdmissibleMeasure(
            g,
            {"P": Fraction(3, 4), "Q": Fraction(1, 4)},
            dict(admissible_measure(g, d).densities),
        )
        calls = self._patch_measure(monkeypatch, bad)
        s = green_system(g, d)
        assert calls == []
        with pytest.raises(ConstancyViolation) as caught:
            s.measure
        assert str(caught.value) == "measure spreads 3/4 onto vertex 'P', not 1/2"
        assert len(calls) == 1

    def test_violation_detected_by_coefficient_alone(self, monkeypatch):
        # half the circle's density traded for an atom at its one vertex:
        # mass 1 and a single break point, so only the t(l - t) coefficient
        # of g(D,y) + g(y,y) on the loop can tell
        g = circle_graph(Fraction(9, 4))
        d = RDivisor()
        rho = canonical_measure(g).density("c")
        bad = AdmissibleMeasure(g, {"O": Fraction(1, 2)}, {"c": rho / 2})
        calls = self._patch_measure(monkeypatch, bad)
        s = green_system(g, d)
        with pytest.raises(ConstancyViolation) as caught:
            s.measure
        assert str(caught.value) == (
            "g(D,y) + g(y,y) has t(l - t) coefficient 2/9 on edge 'c'"
        )
        assert len(calls) == 1

    def test_violation_detected_at_measure_atom_inside_edge(self, monkeypatch):
        # half the mass moved from the ends of a segment to its midpoint:
        # symmetric at the ends and no density anywhere, so only the atom
        # inside the edge, where D has no point, can tell
        g = segment_graph(1)
        d = RDivisor({"P": 1, "Q": 1})
        mid = GraphPoint.on_edge("e", Fraction(1, 2))
        bad = AdmissibleMeasure(
            g, {"P": Fraction(1, 4), "Q": Fraction(1, 4), mid: Fraction(1, 2)}, {}
        )
        calls = self._patch_measure(monkeypatch, bad)
        s = green_system(g, d)
        with pytest.raises(ConstancyViolation) as caught:
            s.measure
        assert str(caught.value) == "measure has atom 1/2 at GraphPoint('e' @ 1/2), not 0"
        assert len(calls) == 1

    def test_violation_detected_by_mass_check(self, monkeypatch):
        # the segment's atoms with a quarter of the mass missing: the mass
        # check, before the others, must notice
        g = segment_graph(1)
        d = RDivisor({"P": 1, "Q": 1})
        bad = AdmissibleMeasure(g, {"P": Fraction(1, 2), "Q": Fraction(1, 4)}, {})
        calls = self._patch_measure(monkeypatch, bad)
        s = green_system(g, d)
        with pytest.raises(ConstancyViolation) as caught:
            s.measure
        assert str(caught.value) == "measure has total mass 3/4, not 1"
        assert len(calls) == 1

    def test_measure_built_once(self, monkeypatch):
        # the checked measure is kept: a second read builds nothing
        g = theta_graph()
        d = RDivisor({"P": 1})
        s = green_system(g, d)
        calls = self._patch_measure(monkeypatch, admissible_measure(g, d))
        assert s.measure is s.measure
        assert len(calls) == 1

    @pytest.mark.parametrize(
        "shift,message",
        [
            (
                {0: Fraction(-1, 2), 1: Fraction(1, 2)},
                "g(D,y) + g(y,y) is not constant: L x_mu is 1/2 "
                "but m_mu is 5/8 at GraphPoint('Q')",
            ),
            ({1: Fraction(-1, 2)}, "measure has total mass 7/8, not 1"),
            ({0: Fraction(-1, 2)}, "measure has total mass 7/8, not 1"),
        ],
        ids=["moved", "removed", "removed-at-ground"],
    )
    def test_build_rejects_wrong_canonical_spread(self, monkeypatch, shift, message):
        # 2 m_can of the unit segment is (1, 1): half of it moved from P to
        # Q keeps the mass 2, and the residual L x_mu = m_mu at Q must
        # notice; half of it removed, from Q or from the ground vertex P,
        # which the residual does not read, leaves the mass 3/2, and the
        # mass check must notice
        def change(m):
            for i, delta in shift.items():
                m[i] += delta

        fault_canonical(monkeypatch, change)
        with pytest.raises(ConstancyViolation) as caught:
            green_system(segment_graph(1), RDivisor({"P": 1, "Q": 1}))
        assert str(caught.value) == message

    @pytest.mark.parametrize("fault", [fault_solve, fault_ground], ids=["x_D", "S"])
    def test_build_rejects_wrong_solve(self, monkeypatch, fault):
        # x_mu = (x_D + S)/(deg D + 2), so the entry at Q of the one solve
        # x_D = Gamma m_D, or of S, raised by 1 raises x_mu(Q) by 1/3 and
        # L x_mu at Q by 3 times that, the conductance of the three unit
        # edges: the residual there must notice
        def raised(x):
            x[-1] += 1

        fault(monkeypatch, raised)
        with pytest.raises(ConstancyViolation) as caught:
            green_system(theta_graph(), RDivisor({"P": 1}))
        assert str(caught.value) == (
            "g(D,y) + g(y,y) is not constant: L x_mu is 4/3 "
            "but m_mu is 1/3 at GraphPoint('Q')"
        )

    @pytest.mark.parametrize("kind", ["diagonal", "edge"])
    def test_build_rejects_wrong_inverse_entry(self, kind):
        # each diagonal entry, and each entry of an edge off the ground, of
        # the selected inverse raised by delta = 1/1000 as the factorization
        # is built: the kernel reads S, r_e and 2 m_can from it, and the
        # mass of 2 m_can moves off 2, by -2 delta times the conductance at
        # a vertex or by 4 delta times an edge's, so the mass check
        # notices first.  Entries of the fill, which the build never reads,
        # are not checked
        g = cycle_chords()
        kernel = resistance_kernel(g)
        assert kernel.vertices[0] == "v1"
        index = kernel.index
        if kind == "diagonal":
            pairs = [(i, i) for i in range(1, 10)]
        else:
            pairs = sorted({(index[e.u], index[e.v]) for e in g.edges} - {(0, 2), (1, 0), (0, 5)})
        assert len(pairs) == (9 if kind == "diagonal" else 10)
        assert all(i and j for i, j in pairs)
        for i, j in pairs:

            def raised(rows, i=i, j=j):
                rows[i][j] = rows[j][i] = rows[i][j] + Fraction(1, 1000)

            with pytest.MonkeyPatch.context() as patch:
                fault_inverse(patch, raised)
                with pytest.raises(ConstancyViolation):
                    green_system(cycle_chords(), RDivisor({"v3": 1}))

    def test_divisor_relocated_once_per_build(self, counts):
        # the Green system relocates D once and hands it to the measure
        # builder when its measure is read; the public measure relocates
        # its own
        g = segment_graph(2)
        d = RDivisor({"P": 1, GraphPoint.on_edge("e", 1): 2})
        green_system(g, d).measure
        assert counts["relocate"] == 1
        admissible_measure(g, d)
        assert counts["relocate"] == 2

    def test_divisor_in_normal_form_is_kept(self):
        # every point is checked, and a divisor none of whose points moves
        # is kept as it is
        g = segment_graph(2)
        d = RDivisor({"P": 1, "Q": 3})
        assert green_system(g, d).divisor is d
        d = RDivisor({"P": 1, GraphPoint.on_edge("e", 1): 2})
        assert green_system(g, d).divisor is d
        moved = RDivisor({GraphPoint.on_edge("e", 2): 1})
        assert green_system(g, moved).divisor == RDivisor({"Q": 1})
        with pytest.raises(PointOffGraph):
            green_system(g, RDivisor({"R": 1}))

    def test_c_is_c_mu(self):
        # g(y, y) = j(y) - c_mu and integral j dmu = 2 c_mu, so integral
        # g(y, y) dmu(y) = c(G, D) holds iff the stored c is c_mu; the
        # integral is exact quadrature of eval's values
        rng = Random(47)
        for _ in range(10):
            g = random_graph(rng, max_vertices=5)
            d = random_divisor(rng, g, interior=True)
            s = green_system(g, d)
            assert integral(s.measure, lambda y: s.eval(y, y)) == constant_c(s)


def test_points_on_one_edge_cost_near_linear(counts):
    """k points of D inside one unit edge: j_D reads h at each of them, and
    a read inside an edge is one `bisect` and O(1) exact operations on the
    edge's tents, sorted with prefix sums, so the build's exact operations
    grow at most 2.5 times from k = 1000 to 2000, where a sum over every
    tent per read grew them 4 times."""
    ops = []
    for k in (1000, 2000):
        d = RDivisor({GraphPoint.on_edge("e", Fraction(i, k + 1)): 1 for i in range(1, k + 1)})
        start = counts["ops"]
        green_system(segment_graph(1), d)
        ops.append(counts["ops"] - start)
    assert ops[1] <= 2.5 * ops[0]


class TestEInvariant:
    def test_unit_segment(self):
        assert e_invariant(segment_graph(1), RDivisor({"P": 1, "Q": 1})) == 1

    def test_circle_divisor_zero(self):
        assert e_invariant(circle_graph(Fraction(22, 7)), RDivisor()) == 0

    def test_two_chain(self):
        g = path_graph([1, 1])
        d = RDivisor({"P0": 1, "P1": 2, "P2": 1})
        assert e_invariant(g, d) == Fraction(10, 3)

    def test_degree_minus_two(self):
        with pytest.raises(DegreeMinusTwo):
            e_invariant(segment_graph(1), RDivisor({"P": -1, "Q": -1}))

    def test_interior_divisor_support(self):
        # divisor at the midpoint of a segment of length 2: isometric to
        # the 2-chain with unit lengths
        g = segment_graph(2)
        m = GraphPoint.on_edge("e", 1)
        d = RDivisor({"P": 1, m: 2, "Q": 1})
        assert e_invariant(g, d) == Fraction(10, 3)

    def test_two_interior_points_on_one_edge(self):
        # segment of length 3 with divisor mass at offsets 1 and 2:
        # isometric to the 3-chain with unit lengths and a = (1, 1, 1, 1)
        g = segment_graph(3)
        d = RDivisor(
            {
                "P": 1,
                GraphPoint.on_edge("e", 1): 2,
                GraphPoint.on_edge("e", 2): 2,
                "Q": 1,
            }
        )
        from mg import chain_e, path_graph

        expected = chain_e([1, 1, 1], [1, 1, 1, 1])
        assert e_invariant(g, d) == expected
        assert e_invariant(
            path_graph([1, 1, 1]),
            RDivisor({"P0": 1, "P1": 2, "P2": 2, "P3": 1}),
        ) == expected


class TestBasepointFormula:
    def test_segment_basepoints(self):
        g = segment_graph(1)
        d = RDivisor({"P": 1, "Q": 1})
        assert e_via_basepoint(g, d, "P") == 1
        assert e_via_basepoint(g, d, "Q") == 1

    def test_circle_any_basepoint(self):
        g = circle_graph(3)
        d = RDivisor()
        assert e_via_basepoint(g, d, "O") == 0
        assert e_via_basepoint(g, d, GraphPoint.on_edge("c", Fraction(1, 3))) == 0

    def test_independence_on_random_graphs(self):
        rng = Random(47)
        for _ in range(8):
            g = random_graph(rng, max_vertices=5)
            g.validate()
            d = random_divisor(rng, g)
            e = e_invariant(g, d)
            for _ in range(3):
                o = random_point(rng, g)
                assert e_via_basepoint(g, d, o) == e


class TestInvariance:
    def test_subdivision_leaves_g_c_e_unchanged(self):
        rng = Random(53)
        for _ in range(8):
            g = random_graph(rng, max_vertices=5)
            g.validate()
            d = random_divisor(rng, g)
            s = green_system(g, d)
            e = e_of_system(s)
            c = constant_c(s)
            cut = random_point(rng, g)
            g2, _, rel = subdivide_at(g, cut)
            d2 = d.relocate(rel)
            s2 = green_system(g2, d2)
            assert e_of_system(s2) == e
            assert constant_c(s2) == c
            x, y = random_point(rng, g), random_point(rng, g)
            assert s2.eval(rel(x), rel(y)) == s.eval(x, y)

    def test_scaling_covariance(self):
        rng = Random(59)
        for _ in range(8):
            g = random_graph(rng, max_vertices=5)
            g.validate()
            d = random_divisor(rng, g)
            s = frac(rng)
            g2, rel = scale_lengths(g, s)
            d2 = d.relocate(rel)
            sys1 = green_system(g, d)
            sys2 = green_system(g2, d2)
            x, y = random_point(rng, g), random_point(rng, g)
            assert sys2.eval(rel(x), rel(y)) == s * sys1.eval(x, y)
            assert e_of_system(sys2) == s * e_of_system(sys1)
            # atoms invariant, densities divide by s
            mu1 = sys1.measure
            mu2 = sys2.measure
            for v in mu1.graph.vertex_list:
                assert mu2.atom(v) == mu1.atom(v)
            for eid, rho in mu1.densities.items():
                assert mu2.densities[eid] == rho / s


def perturbed(mu: AdmissibleMeasure, kind: str, rng: Random, delta: Fraction, inside):
    """mu with one mass-preserving change of the given kind; `inside` is an
    atom of mu inside an edge."""
    g = mu.graph
    atoms, densities = dict(mu.atoms), dict(mu.densities)
    if kind == "atoms":  # move mass between two atoms
        a, b = rng.sample(sorted(atoms, key=repr), 2)
        atoms[a] -= delta
        atoms[b] += delta
    elif kind == "density":  # trade part of one edge's density for an atom
        e = rng.choice(g.edges)
        densities[e.id] -= delta
        a = rng.choice(sorted(atoms, key=repr))
        atoms[a] += delta * e.length
    else:  # move an interior atom to another point inside an edge
        e = rng.choice(g.edges)
        q = GraphPoint.on_edge(e.id, e.length * Fraction(rng.randint(1, 10), 11))
        atoms[q] = atoms.get(q, 0) + atoms.pop(inside)
    return AdmissibleMeasure(g, atoms, densities)


@settings(max_examples=60, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    kind=st.sampled_from(["atoms", "density", "interior"]),
    delta=st.fractions(min_value=-3, max_value=3, max_denominator=20).filter(bool),
)
def test_certificate_rejects_every_perturbed_measure(seed, kind, delta):
    """On a graph with a loop and a divisor point inside an edge, the
    admissible measure passes the certificate, and one mass-preserving
    change of it (moving mass between two atoms, trading part of an edge's
    density for an atom, moving an atom inside an edge) fails it: the
    measure is the only one of mass 1 with g(D, y) + g(y, y) constant."""
    rng = Random(seed)
    g = random_graph(rng, max_vertices=6, min_vertices=2)
    v = rng.choice(g.vertex_list)
    g = MetrizedGraph(g.vertex_list, [*g.edges, ("loop", v, v, frac(rng))])
    d = random_divisor(rng, g, interior=True)
    e = rng.choice(g.edges)
    inside = GraphPoint.on_edge(e.id, e.length * Fraction(rng.randint(1, 6), 7))
    d += RDivisor({inside: 2 if d.degree() == -3 else 1})
    assert green_system(g, d).measure == admissible_measure(g, d)  # never raises
    bad = perturbed(admissible_measure(g, d), kind, rng, delta, inside)
    assert bad.total_mass() == 1
    s = green_system(g, d)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(mg.green, "_measure", lambda g, d, deg: bad)
        with pytest.raises(ConstancyViolation) as caught:
            s.measure
    assert not str(caught.value).startswith("measure has total mass")


@settings(max_examples=60, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    delta=st.fractions(min_value=-3, max_value=3, max_denominator=20).filter(bool),
)
def test_build_rejects_every_perturbed_canonical_spread(seed, delta):
    """On a graph of the family above, a Green system built on the kernel's
    2 m_can with mass delta moved from one vertex to another fails the
    residual: the mass check passes, and the vector is the only one of its
    mass with L·S = 2 m_can off the ground."""
    rng = Random(seed)
    g = random_graph(rng, max_vertices=6, min_vertices=2)
    v = rng.choice(g.vertex_list)
    g = MetrizedGraph(g.vertex_list, [*g.edges, ("loop", v, v, frac(rng))])
    d = random_divisor(rng, g, interior=True)
    a, b = rng.sample(range(len(g.vertex_list)), 2)

    def change(m):
        m[a] -= delta
        m[b] += delta

    with pytest.MonkeyPatch.context() as patch:
        fault_canonical(patch, change)
        with pytest.raises(ConstancyViolation) as caught:
            green_system(g, d)
    assert str(caught.value).startswith("g(D,y) + g(y,y) is not constant")
