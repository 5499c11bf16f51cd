"""Acceptance suite: the properties of the built-in rule catalog, one test
per criterion, each printing a single pass/fail line.

Exact checks carry zero tolerance (Scalar equality); the two float checks
state their tolerances inline.  Run with ``pytest tests/test_acceptance.py
-v -s`` to see the per-criterion lines.
"""

import math
import random
from fractions import Fraction
from math import factorial

from oracles import iterated_cube_moment, iterated_simplex_moment
from simpson_nd import scalars
from simpson_nd.compound import compound_apply, convergence_order
from simpson_nd.exactness import (
    Infeasible,
    UniqueSolution,
    exactness_degree,
    monomials_up_to,
    residual,
    solve_lambda,
    solve_weights,
)
from simpson_nd.families import (
    integrate_interpolant,
    interp_matrix_bilinear,
    interp_matrix_quadratic,
    simplex3_face_rule,
    simplex3_face_system,
    square_selector_roots,
    triangle_selector_roots,
    verify_square_family,
    verify_triangle_family,
)
from simpson_nd.regions import Cube, Polygon, Simplex, hexagon_paper, trapezoid_paper
from simpson_nd.rules import (
    blend,
    cr1,
    cr2,
    cr3,
    cr4,
    cr5,
    cr6,
    monomial,
    rules_equivalent,
    triangle_midedge,
)
from simpson_nd.scalars import PiMultiple

HALF = Fraction(1, 2)


def _report(criterion: int, ok: bool, detail: str):
    print(f"criterion {criterion:2d}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, f"criterion {criterion}: {detail}"


def test_criterion_01_cr1_exactness():
    problems = []
    for n in range(1, 7):
        if exactness_degree(cr1(n), 2).certified_degree != 2:
            problems.append(f"n={n} not quadratic-exact")
    for n in range(2, 7):
        if exactness_degree(cr1(n), 4).certified_degree != 2:
            problems.append(f"n={n} degree not exactly 2")
    for n in range(3, 7):
        alpha = (1, 1, 1) + (0,) * (n - 3)
        expected = Fraction(1, (n + 1) * factorial(n + 2)) - Fraction(1, factorial(n + 3))
        if residual(cr1(n), alpha) != expected:
            problems.append(f"n={n} witness residual wrong")
    _report(
        1,
        not problems,
        "CR1 certified degree 2 for n=1..6 (exactly 2 for n>=2; the 1-d member "
        "is classical Simpson), cubic witness residual exact for n>=3"
        + ("; " + "; ".join(problems) if problems else ""),
    )


def test_criterion_02_cr2_exactness():
    ok_deg = all(
        exactness_degree(cr2(n), 4).certified_degree == 2 for n in range(2, 6)
    )
    ok_neg = True
    for n in range(3, 6):
        rule = cr2(n)
        center_weight = next(
            w for p, w in zip(rule.nodes, rule.weights) if p == rule.region.centroid()
        )
        ok_neg = ok_neg and scalars.sign(center_weight) < 0
    midedges = ((HALF, Fraction(0)), (Fraction(0), HALF), (HALF, HALF))
    ok_blend = rules_equivalent(cr2(2), blend(Fraction(0), Simplex(2), midedges))
    _report(
        2,
        ok_deg and ok_neg and ok_blend,
        "CR2 degree exactly 2 for n=2..5, center weight negative for n>=3, "
        "CR2(2) is the centroid/midedge blend at lambda=0",
    )


def test_criterion_03_cr3_exactness():
    ok_deg = all(
        exactness_degree(cr3(n), 5).certified_degree == 3 for n in range(1, 7)
    )
    ok_res = all(
        residual(cr3(n), (4,) + (0,) * (n - 1)) == Fraction(5, 24) - Fraction(1, 5)
        for n in range(1, 7)
    )
    pairs = sorted(zip(cr3(1).nodes, cr3(1).weights), key=lambda nw: nw[0][0])
    ok_simpson = pairs == [
        ((Fraction(0),), Fraction(1, 6)),
        ((HALF,), Fraction(2, 3)),
        ((Fraction(1),), Fraction(1, 6)),
    ]
    _report(
        3,
        ok_deg and ok_res and ok_simpson,
        "CR3 degree exactly 3 for n=1..6, x^4 residual 5/24 - 1/5, "
        "CR3(1) equals classical Simpson weights",
    )


def test_criterion_04_cr4_exactness():
    rule = cr4()
    ok = (
        exactness_degree(rule, 5).certified_degree == 3
        and scalars.is_zero(residual(rule, (3, 1)))
        and scalars.is_zero(residual(rule, (1, 3)))
        and residual(rule, (4, 0)) == Fraction(5, 24) - Fraction(1, 5)
    )
    _report(
        4,
        ok,
        "CR4 degree exactly 3 with bonus zero residuals at (3,1), (1,3) and "
        "x^4 residual 5/24 - 1/5",
    )


def test_criterion_05_cr5_exactness():
    rule = cr5()
    ok = (
        exactness_degree(rule, 4).certified_degree == 2
        and residual(rule, (3, 0)) == Fraction(336001, 762048) - Fraction(9, 20)
    )
    _report(
        5,
        ok,
        "CR5 degree exactly 2 in Q(sqrt 3893); x^3 residual 336001/762048 - 9/20",
    )


def test_criterion_06_cr6_exactness():
    rule = cr6()
    ok = (
        exactness_degree(rule, 5).certified_degree == 3
        and residual(rule, (4, 0)) == PiMultiple(Fraction(1, 4)) - PiMultiple(Fraction(1, 8))
    )
    _report(6, ok, "CR6 degree exactly 3 with pi arithmetic; x^4 residual pi/4 - pi/8")


def test_criterion_07_triangle_midedge():
    rule = triangle_midedge()
    ok = (
        exactness_degree(rule, 4).certified_degree == 2
        and rule.apply_poly(monomial((3, 0))) == Fraction(1, 24)
        and Simplex(2).moment((3, 0)) == Fraction(1, 20)
    )
    _report(7, ok, "midedge rule degree exactly 2; x^3 gives 1/24 against 1/20")


def test_criterion_08_negative_results():
    hexagon = hexagon_paper()
    targets = list(monomials_up_to(2, 2))
    hex_out = solve_lambda(hexagon, hexagon.vertices(), targets)
    ok_hex = isinstance(hex_out, Infeasible)

    trap = trapezoid_paper()
    nodes = ((Fraction(5, 9), Fraction(7, 9)), (0, 0), (1, 0), (0, 1), (1, 2))
    full = solve_weights(nodes, targets, trap.moments(targets))
    ok_full = isinstance(full, Infeasible)
    dropped = [a for a in targets if a != (1, 1)]
    partial = solve_weights(nodes, dropped, trap.moments(dropped))
    ok_partial = isinstance(partial, UniqueSolution) and partial.values == (
        Fraction(81, 80),
        Fraction(23, 240),
        Fraction(17, 120),
        Fraction(29, 240),
        Fraction(31, 240),
    )
    _report(
        8,
        ok_hex and ok_full and ok_partial,
        "hexagon blend infeasible; trapezoid 5-node weights infeasible; "
        "dropping xy yields (81/80, 23/240, 17/120, 29/240, 31/240)",
    )


def test_criterion_09_families():
    rng = random.Random(1618)
    ok_tri = all(
        verify_triangle_family(Fraction(rng.randint(0, 60), 60))[0] for _ in range(20)
    )
    ok_sq = all(
        verify_square_family(Fraction(rng.randint(0, 60), 60))[0] for _ in range(20)
    )
    ok_roots = triangle_selector_roots() == {Fraction(0), HALF} and (
        square_selector_roots() == {Fraction(0), Fraction(1), HALF}
    )
    point = (Fraction(1, 3),) * 8
    lam = Fraction(-4, 5)
    ok_simplex3 = simplex3_face_system(point, lam).all_zero and rules_equivalent(
        simplex3_face_rule(point, lam), cr2(3)
    )
    _report(
        9,
        ok_tri and ok_sq and ok_roots and ok_simplex3,
        "triangle and square families all-zero at 20 random parameters each; "
        "selector roots {0, 1/2} and {0, 1, 1/2}; face-center point rebuilds CR2(3)",
    )


def test_criterion_10_interpolation_identities():
    ok = True
    for n in range(2, 5):
        region = Simplex(n)
        basis = [(0,) * n]
        basis += [tuple(1 if i == k else 0 for i in range(n)) for k in range(n)]
        basis.append(tuple(1 if i < 2 else 0 for i in range(n)))
        nodes = list(region.vertices()) + [region.centroid()]
        rule = cr1(n)
        for i, node in enumerate(nodes):
            data = [Fraction(1 if j == i else 0) for j in range(len(nodes))]
            weight = next(w for p, w in zip(rule.nodes, rule.weights) if p == node)
            ok = ok and integrate_interpolant(region, basis, nodes, data) == weight

    tri_nodes = [
        (HALF, Fraction(0)),
        (Fraction(0), HALF),
        (HALF, HALF),
        (Fraction(1, 3), Fraction(1, 3)),
    ]
    expected = [Fraction(1, 6)] * 3 + [Fraction(0)]
    for i, want in enumerate(expected):
        data = [Fraction(1 if j == i else 0) for j in range(4)]
        got = integrate_interpolant(
            Simplex(2), [(1, 1), (1, 0), (0, 1), (0, 0)], tri_nodes, data
        )
        ok = ok and got == want

    sq_nodes = [
        (HALF, Fraction(0)),
        (Fraction(0), HALF),
        (HALF, Fraction(1)),
        (Fraction(1), HALF),
        (HALF, HALF),
    ]
    sq_basis = [(2, 0), (0, 2), (1, 0), (0, 1), (0, 0)]
    cr4_rule = cr4()
    for i, node in enumerate(sq_nodes):
        data = [Fraction(1 if j == i else 0) for j in range(5)]
        weight = next(w for p, w in zip(cr4_rule.nodes, cr4_rule.weights) if p == node)
        ok = ok and integrate_interpolant(Cube(2), sq_basis, sq_nodes, data) == weight

    _, det_quad = interp_matrix_quadratic(HALF, HALF, HALF, HALF)
    _, det_bi_mid = interp_matrix_bilinear(HALF, HALF, HALF, HALF)
    _, det_bi_vert = interp_matrix_bilinear(1, 0, 0, 1)
    ok = ok and det_quad == Fraction(1, 16)
    ok = ok and scalars.is_zero(det_bi_mid) and scalars.is_zero(det_bi_vert)
    _report(
        10,
        ok,
        "interpolation with indicator data reproduces every CR1(2..4), midedge, "
        "and CR4 weight; det 1/16 and both singular determinants exact",
    )


def test_criterion_11_moment_oracle_equivalence():
    ok = True
    for n in range(1, 5):
        simplex, cube = Simplex(n), Cube(n)
        for alpha in monomials_up_to(n, 4):
            ok = ok and simplex.moment(alpha) == iterated_simplex_moment(n, alpha)
            ok = ok and cube.moment(alpha) == iterated_cube_moment(n, alpha)
    tri = Polygon([(0, 0), (1, 0), (0, 1)])
    s2 = Simplex(2)
    for alpha in monomials_up_to(2, 4):
        ok = ok and tri.moment(alpha) == s2.moment(alpha)
    _report(
        11,
        ok,
        "simplex/cube moments match iterated-integration oracle (|alpha|<=4, "
        "n<=4); triangle polygon moments equal the simplex values exactly",
    )


def test_criterion_12_compound_convergence():
    f = lambda x, y: math.exp(x + y)
    ref_square = (math.e - 1.0) ** 2
    square_orders = [compound_apply(cr4(), lv, f) for lv in range(1, 6)]
    order_sq = convergence_order(square_orders, ref_square)
    tri_orders = [compound_apply(triangle_midedge(), lv, f) for lv in range(1, 6)]
    order_tri = convergence_order(tri_orders, 1.0)  # exact integral over the triangle
    ok = abs(order_sq - 4.0) <= 0.3 and order_tri >= 2.7
    _report(
        12,
        ok,
        f"compound CR4 fitted order {order_sq:.3f} (want 4.0 +/- 0.3); "
        f"compound midedge fitted order {order_tri:.3f} (want >= 2.7)",
    )
