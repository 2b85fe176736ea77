"""Acceptance suite: one test per criterion, exact tolerances, one
pass/fail line each (run with -s to see them)."""

import time
from fractions import Fraction
from pathlib import Path
from random import Random

from mg import (
    FiberConfiguration,
    GraphPoint,
    RDivisor,
    chain_e,
    chain_recursion,
    circle_graph,
    configuration_graph,
    constant_c,
    convergence_report,
    delta_vector,
    e_via_basepoint,
    effective_resistance,
    fiber_e,
    fiber_e_closed_form,
    fiber_genus,
    green_system,
    join_e,
    join_green_diag,
    observed_orders,
    omega_divisor,
    omega_sq_lower_sharp,
    one_point_sum,
    path_graph,
    radius_sq_closed_form,
    reference_radius_sq,
    scale_lengths,
    segment_graph,
    segment_invariants,
    subdivide_at,
    theta_graph,
    total_e,
)
from mg.bounds import FibrationStats
from mg.cli import main as cli_main
from mg.errors import (
    BadRational,
    DegreeMinusTwo,
    Disconnected,
    NonpositiveLength,
    ParseError,
    UnknownVertex,
)
from mg.fileformat import parse_graph_file
from gen import frac, random_chain_config, random_divisor, random_graph, random_point
from quadrature import integral

GOLDEN = Path(__file__).parent / "golden"


def report(number: int, description: str, ok: bool, detail: str = ""):
    status = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"[criterion {number:02d}] {status} - {description}{suffix}")
    assert ok, f"criterion {number} failed: {description} {detail}"


def e_of(system) -> Fraction:
    return 2 * system.degree * constant_c(system) - system.pairing_dd()


def signed_small_fraction(rng: Random) -> Fraction:
    f = Fraction(rng.randint(1, 20), rng.randint(1, 20))
    return -f if rng.random() < 0.5 else f


def test_criterion_1_segment_closed_forms():
    rng = Random(2024)
    start = time.monotonic()
    checked = 0
    while checked < 100:
        a = signed_small_fraction(rng)
        b = signed_small_fraction(rng)
        if a + b == 0:
            continue
        l = Fraction(rng.randint(1, 20), rng.randint(1, 20))
        e_closed, gpp, gqq = segment_invariants(a, b, l)
        g = segment_graph(l)
        d = RDivisor({"P": 2 * a - 1, "Q": 2 * b - 1})
        s = green_system(g, d)
        assert s.eval("P", "P") == gpp
        assert s.eval("Q", "Q") == gqq
        assert e_of(s) == e_closed
        checked += 1
    elapsed = time.monotonic() - start
    report(
        1,
        "segment invariants match the general solver exactly (100 random cases)",
        checked == 100 and elapsed < 5.0,
        f"{elapsed:.2f}s",
    )


def test_criterion_2_circle_attachment():
    rng = Random(2025)
    checked = 0
    while checked < 50:
        g = random_graph(rng, max_vertices=6)
        g.validate()
        d = random_divisor(rng, g)
        l = frac(rng, max_num=12, max_den=6)
        x = random_point(rng, g)
        circle = circle_graph(l)
        joined, _, r1, _ = one_point_sum(g, x, circle, "O")
        dj = d.relocate(r1)
        e_base = e_of(green_system(g, d))
        e_joined = e_of(green_system(joined, dj))
        deg = d.degree()
        assert e_joined - e_base == deg * l / (3 * (deg + 2))
        checked += 1
    report(2, "circle attachment shifts e by deg*l/(3(deg+2)) exactly (50 cases)", True)


def test_criterion_3_one_point_sums():
    rng = Random(2026)
    checked = 0
    while checked < 50:
        g1 = random_graph(rng, max_vertices=5)
        g2 = random_graph(rng, max_vertices=5)
        g1.validate()
        g2.validate()
        d1 = random_divisor(rng, g1)
        d2 = random_divisor(rng, g2)
        if d1.degree() + d2.degree() == -2:
            continue
        x1 = random_point(rng, g1)
        x2 = random_point(rng, g2)
        s1 = green_system(g1, d1)
        s2 = green_system(g2, d2)
        joined, _, r1, r2 = one_point_sum(g1, x1, g2, x2)
        d = d1.relocate(r1) + d2.relocate(r2)
        sj = green_system(joined, d)
        expected_e = join_e(
            e_of(s1), e_of(s2), d1.degree(), d2.degree(),
            s1.eval(x1, x1), s2.eval(x2, x2),
        )
        assert e_of(sj) == expected_e
        p = random_point(rng, g2)
        expected_gpp = join_green_diag(
            d1.degree(), d2.degree(),
            effective_resistance(g2, x2, p),
            s2.eval(p, p), s2.eval(x2, x2), s1.eval(x1, x1),
        )
        pj = r2(g2.check_point(p))
        assert sj.eval(pj, pj) == expected_gpp
        checked += 1
    report(3, "one-point-sum formulas for e and g(P,P) match the solver (50 cases)", True)


def test_criterion_4_chains():
    rng = Random(2027)
    for _ in range(25):
        n = rng.randint(1, 6)
        a = [frac(rng, max_num=6, max_den=6) for _ in range(n + 1)]
        lengths = [frac(rng, max_num=6, max_den=6) for _ in range(n)]
        closed = chain_e(lengths, a)
        coeffs = {"P0": 2 * a[0] - 1, f"P{n}": 2 * a[n] - 1}
        for i in range(1, n):
            coeffs[f"P{i}"] = 2 * a[i]
        solver = e_of(green_system(path_graph(lengths), RDivisor(coeffs)))
        e_rec, t_rec = Fraction(0), Fraction(0)
        prefix = a[0]
        for i in range(n):
            e_rec, t_rec = chain_recursion(e_rec, t_rec, prefix, a[i + 1], lengths[i])
            prefix += a[i + 1]
        assert closed == solver == e_rec
        if n == 1:
            assert closed == segment_invariants(a[0], a[1], lengths[0])[0]
    # explicit n = 1 reduction
    assert chain_e([Fraction(5)], [1, 2]) == segment_invariants(1, 2, 5)[0]
    report(4, "chain closed form = solver = iterated recursion, exactly", True)


def test_criterion_5_chain_fibers():
    rng = Random(2028)
    for _ in range(100):
        cfg = random_chain_config(rng)
        g = fiber_genus(cfg)
        assert 2 <= g <= 8
        assert omega_divisor(cfg).degree() == 2 * g - 2
        delta = delta_vector(cfg)
        assert len(delta) == g // 2 + 1
        assert sum(delta) == len(cfg.nodes)
        assert fiber_e(cfg) == fiber_e_closed_form(cfg)
    report(
        5,
        "fiber e_y equals its closed form on 100 random chain configurations",
        True,
    )


def test_criterion_6_pipeline_identity():
    for g in range(2, 51):
        size = g // 2 + 1
        for i in range(size):
            delta = [0] * size
            delta[i] = 1
            lhs = radius_sq_closed_form(g, delta)
            rhs = (g - 1) * (omega_sq_lower_sharp(g, delta) - total_e(g, delta))
            assert lhs == rhs
    assert radius_sq_closed_form(2, [0, 1]) == Fraction(2, 5)
    report(
        6,
        "radius^2 closed form = (g-1)(sharp omega^2 - total e) for g in 2..50; "
        "g=2 delta_1 radicand is 2/5",
        True,
    )


def test_criterion_7_reference_values():
    assert omega_sq_lower_sharp(2, [1, 0]) == Fraction(1, 5)
    assert omega_sq_lower_sharp(2, [0, 1]) == Fraction(7, 5)
    assert Fraction(1, 5) - Fraction(5, 27) == Fraction(2, 135)
    assert reference_radius_sq(FibrationStats(2, 0, [1, 0])) == Fraction(2, 135)
    for g in (2, 3, 5):
        smooth = FibrationStats(g, 0, [0] * (g // 2 + 1), smooth=True)
        assert reference_radius_sq(smooth) == 12 * (g - 1)
        irr = FibrationStats(g, 0, [1] + [0] * (g // 2))
        assert reference_radius_sq(irr, irreducible=True) == Fraction(
            (g - 1) ** 3, 3 * g * (2 * g + 1)
        )
    report(7, "genus-2 sharp coefficients and the reference radicands reproduce", True)


def test_criterion_8_property_suite():
    rng = Random(2029)
    start = time.monotonic()
    for k in range(200):
        g = random_graph(rng, max_vertices=8)
        g.validate()
        d = random_divisor(rng, g, interior=(k % 4 == 0))
        s = green_system(g, d)

        assert s.measure.total_mass() == 1
        c = constant_c(s)  # break points + the t(l - t) coefficient per edge
        e = 2 * s.degree * c - s.pairing_dd()

        for _ in range(3):
            x, y = random_point(rng, g), random_point(rng, g)
            assert s.eval(x, y) == s.eval(y, x)

        for x in (GraphPoint.at_vertex(rng.choice(g.vertex_list)), random_point(rng, g)):
            assert integral(s.measure, lambda y: s.eval(x, y), kinks=[x]) == 0

        for _ in range(2):
            p, q = random_point(rng, g), random_point(rng, g)
            r = effective_resistance(g, p, q)
            assert r == s.eval(p, p) - 2 * s.eval(p, q) + s.eval(q, q)

        for _ in range(5):
            o = random_point(rng, g)
            assert e_via_basepoint(g, d, o) == e

        cut = random_point(rng, g)
        g2, _, rel = subdivide_at(g, cut)
        s2 = green_system(g2, d.relocate(rel))
        assert constant_c(s2) == c
        assert 2 * s2.degree * c - s2.pairing_dd() == e
        x, y = random_point(rng, g), random_point(rng, g)
        assert s2.eval(rel(x), rel(y)) == s.eval(x, y)

        factor = frac(rng, max_num=5, max_den=5)
        g3, rel3 = scale_lengths(g, factor)
        s3 = green_system(g3, d.relocate(rel3))
        assert constant_c(s3) == factor * c
        assert s3.eval(rel3(x), rel3(y)) == factor * s.eval(x, y)
        if all(p.is_vertex for p in d.support()):
            # solver graphs share ids only when nothing was subdivided
            for v, atom in s.measure.atoms.items():
                assert s3.measure.atom(v) == atom
            for eid, rho in s.measure.densities.items():
                assert s3.measure.densities[eid] == rho / factor
    elapsed = time.monotonic() - start
    report(
        8,
        "property suite exact on 200 random graphs (mass, symmetry, zero mean, "
        "constancy, resistance identity, basepoints, subdivision, scaling)",
        elapsed < 60.0,
        f"{elapsed:.1f}s",
    )


def test_criterion_9_oracle_convergence():
    hs = [Fraction(1, 8), Fraction(1, 16), Fraction(1, 32), Fraction(1, 64)]

    cases = []
    seg = segment_graph(1)
    cases.append(
        ("segment", seg, RDivisor({"P": 1, "Q": 1}), [("P", "P"), ("P", "Q")])
    )
    circ = circle_graph(1)
    cases.append(
        (
            "circle",
            circ,
            RDivisor(),
            [("O", "O"), ("O", GraphPoint.on_edge("c", Fraction(1, 4)))],
        )
    )
    cases.append(("theta", theta_graph(), RDivisor({"P": 1, "Q": 3}), [("P", "Q"), ("P", "P")]))
    cfg = FiberConfiguration([("A", 1), ("B", 1)], [("n", "A", "B"), ("s", "B", "B")])
    assert fiber_genus(cfg) == 3
    cases.append(
        ("g3 chain fiber", configuration_graph(cfg), omega_divisor(cfg),
         [("A", "A"), ("A", "B"), ("B", "B")])
    )

    ok = True
    details = []
    for name, graph, d, probes in cases:
        rows = convergence_report(graph, d, probes, hs)
        final = rows[-1].max_error
        orders = observed_orders(rows)
        grid_exact = max(row.max_error for row in rows) < 1e-12
        decays = all(o >= 1 for o in orders)
        case_ok = final < 1e-3 and (decays or grid_exact)
        ok = ok and case_ok
        details.append(f"{name}: final={final:.2e}")
    report(9, "oracle error decays at order >= 1 with final error < 1e-3", ok,
           "; ".join(details))


def test_criterion_10_cli_golden(capsys):
    cases = [
        (["e-invariant", str(GOLDEN / "segment.mg")], "segment.e.expected"),
        (["measure", str(GOLDEN / "segment.mg")], "segment.measure.expected"),
        (["e-invariant", str(GOLDEN / "circle.mg")], "circle.e.expected"),
        (["resistance", str(GOLDEN / "theta.mg"), "P", "Q"], "theta.resistance.expected"),
        (["fiber", "analyze", str(GOLDEN / "chain.fib")], "chain.analyze.expected"),
        (["fiber", "analyze", str(GOLDEN / "selfnode.fib")], "selfnode.analyze.expected"),
        (["bounds", "radius", "--genus", "2", "--delta", "0,1"], "radius.expected"),
    ]
    ok = True
    for argv, expected in cases:
        code = cli_main(argv)
        out = capsys.readouterr().out
        ok = ok and code == 0 and out == (GOLDEN / expected).read_text()

    errors = [
        ("bad_header.mg", ParseError, 2),
        ("bad_rational.mg", BadRational, 2),
        ("zero_length.mg", NonpositiveLength, 2),
        ("disconnected.mg", Disconnected, 2),
        ("unknown_vertex.mg", UnknownVertex, 2),
        ("degree_minus_two.mg", DegreeMinusTwo, 3),
    ]
    for name, errcls, code_expected in errors:
        text = (GOLDEN / name).read_text()
        if errcls is DegreeMinusTwo:
            pass  # raised at computation time, not at parse time
        else:
            try:
                parse_graph_file(text)
            except errcls:
                pass
            else:
                ok = False
        code = cli_main(["e-invariant", str(GOLDEN / name)])
        capsys.readouterr()
        ok = ok and code == code_expected
    report(10, "CLI golden reports byte-identical; error classes and exit codes", ok)
