import json
from fractions import Fraction
from math import factorial

import pytest

from oracles import full_scan_report
from simpson_nd import scalars
from simpson_nd.errors import DimensionMismatch
from simpson_nd.exactness import (
    Infeasible,
    Underdetermined,
    UniqueSolution,
    exactness_degree,
    monomial_label,
    monomials_of_degree,
    monomials_up_to,
    residual,
    scans_orbits,
    solve_lambda,
    solve_weights,
    sorted_monomials_of_degree,
)
from simpson_nd.regions import Cube, Simplex, hexagon_paper, trapezoid_paper
from simpson_nd.rules import (
    CubatureRule,
    NodeTable,
    blend,
    cr1,
    cr2,
    cr3,
    cr4,
    cr5,
    cr5_conjugate,
    cr6,
    midpoint_rule,
    monomial,
    triangle_midedge,
    vertex_rule,
)
from simpson_nd.scalars import PiMultiple


def test_monomial_order_is_graded_lex():
    assert list(monomials_of_degree(3, 2)) == [
        (2, 0, 0),
        (1, 1, 0),
        (1, 0, 1),
        (0, 2, 0),
        (0, 1, 1),
        (0, 0, 2),
    ]
    listed = list(monomials_up_to(2, 2))
    assert listed == [(0, 0), (1, 0), (0, 1), (2, 0), (1, 1), (0, 2)]


def test_monomial_label():
    assert monomial_label((0, 0)) == "1"
    assert monomial_label((1, 1)) == "x*y"
    assert monomial_label((4, 0, 0)) == "x^4"
    assert monomial_label((1, 0, 0, 2)) == "x1*x4^2"


def test_residual_cr1_distinct_triple():
    for n in range(3, 7):
        alpha = (1, 1, 1) + (0,) * (n - 3)
        expected = Fraction(1, (n + 1) * factorial(n + 2)) - Fraction(1, factorial(n + 3))
        assert residual(cr1(n), alpha) == expected


def test_residual_cr3_quartic():
    for n in range(1, 7):
        alpha = (4,) + (0,) * (n - 1)
        assert residual(cr3(n), alpha) == Fraction(5, 24) - Fraction(1, 5)
        assert residual(cr3(n), alpha) == Fraction(1, 120)


def test_residual_cr5_cubic():
    assert residual(cr5(), (3, 0)) == Fraction(336001, 762048) - Fraction(9, 20)


def test_exactness_degree_cr3_dim3():
    report = exactness_degree(cr3(3), 5)
    assert report.certified_degree == 3
    assert report.failing == (4, 0, 0)
    assert report.failing_residual == Fraction(1, 120)
    assert report.max_degree == 5


def test_exactness_degree_cr4():
    report = exactness_degree(cr4(), 4)
    assert report.certified_degree == 3
    assert report.failing == (4, 0)
    assert report.failing_residual == Fraction(5, 24) - Fraction(1, 5)


def test_exactness_degree_midpoint_simplex2():
    report = exactness_degree(midpoint_rule(Simplex(2)), 2)
    assert report.certified_degree == 1
    assert report.failing == (2, 0)
    # residual of x^2 for the bare midpoint rule: (1/2)(1/9) - 1/12
    assert report.failing_residual == Fraction(1, 18) - Fraction(1, 12)


def test_exactness_degree_no_failure():
    report = exactness_degree(cr4(), 2)
    assert report.certified_degree == 2
    assert report.failing is None
    assert report.failing_residual is None


def test_cr4_bonus_exactness():
    assert scalars.is_zero(residual(cr4(), (3, 1)))
    assert scalars.is_zero(residual(cr4(), (1, 3)))
    assert not scalars.is_zero(residual(cr4(), (2, 2)))


def test_solve_lambda_simplex_family():
    for n in range(2, 7):
        region = Simplex(n)
        targets = [(1, 1) + (0,) * (n - 2)]
        out = solve_lambda(midpoint_rule(region), vertex_rule(region), targets)
        assert isinstance(out, UniqueSolution)
        assert out.values == (Fraction(n + 1, n + 2),)


def test_solve_lambda_cube():
    for n in range(1, 7):
        region = Cube(n)
        out = solve_lambda(
            midpoint_rule(region), vertex_rule(region), [(2,) + (0,) * (n - 1)]
        )
        assert out.values == (Fraction(2, 3),)


def test_solve_lambda_hexagon_infeasible():
    hexagon = hexagon_paper()
    out = solve_lambda(
        midpoint_rule(hexagon), vertex_rule(hexagon), [(2, 0), (0, 2)]
    )
    assert isinstance(out, Infeasible)
    assert len(out.equations) == 2
    # the witness is honest: each cited one-unknown equation pins a
    # different value, so no common solution exists
    lams = [scalars.div(eqn.rhs, eqn.coefficients[0]) for eqn in out.equations]
    assert not scalars.eq(lams[0], lams[1])


def test_solve_lambda_underdetermined():
    region = Cube(2)
    out = solve_lambda(midpoint_rule(region), vertex_rule(region), [(0, 0), (1, 0)])
    assert isinstance(out, Underdetermined)
    assert out.nullity == 1


def test_solve_lambda_trapezoid_vertices_infeasible():
    region = trapezoid_paper()
    out = solve_lambda(
        midpoint_rule(region), vertex_rule(region), list(monomials_up_to(2, 2))
    )
    assert isinstance(out, Infeasible)


TRAP_NODES = ((Fraction(5, 9), Fraction(7, 9)), (0, 0), (1, 0), (0, 1), (1, 2))


def test_solve_weights_trapezoid_infeasible():
    out = solve_weights(trapezoid_paper(), TRAP_NODES, list(monomials_up_to(2, 2)))
    assert isinstance(out, Infeasible)
    # Farkas-style check: the multipliers combine the cited equations
    # into zero coefficients and a nonzero right side
    combo_rhs = Fraction(0)
    combo_coeffs = [Fraction(0)] * len(TRAP_NODES)
    for eqn, mult in zip(out.equations, out.multipliers):
        combo_rhs = scalars.add(combo_rhs, scalars.mul(mult, eqn.rhs))
        for i, c in enumerate(eqn.coefficients):
            combo_coeffs[i] = scalars.add(combo_coeffs[i], scalars.mul(mult, c))
    assert all(scalars.is_zero(c) for c in combo_coeffs)
    assert not scalars.is_zero(combo_rhs)


def test_solve_weights_trapezoid_drop_xy():
    targets = [a for a in monomials_up_to(2, 2) if a != (1, 1)]
    out = solve_weights(trapezoid_paper(), TRAP_NODES, targets)
    assert isinstance(out, UniqueSolution)
    assert out.values == (
        Fraction(81, 80),
        Fraction(23, 240),
        Fraction(17, 120),
        Fraction(29, 240),
        Fraction(31, 240),
    )


def test_solve_weights_simplex_reproduces_cr1():
    region = Simplex(2)
    nodes = (region.centroid(),) + region.vertices()
    out = solve_weights(region, nodes, list(monomials_up_to(2, 2)))
    assert out.values == (Fraction(3, 8), Fraction(1, 24), Fraction(1, 24), Fraction(1, 24))


def test_solve_weights_solution_zeroes_residuals():
    region = trapezoid_paper()
    targets = [a for a in monomials_up_to(2, 2) if a != (1, 1)]
    out = solve_weights(region, TRAP_NODES, targets)
    rule_like = list(zip(TRAP_NODES, out.values))
    for alpha in targets:
        total = Fraction(0)
        for node, w in rule_like:
            total = scalars.add(
                total, scalars.mul(w, monomial(alpha).evaluate(tuple(map(Fraction, node))))
            )
        assert scalars.eq(total, region.moment(alpha)), alpha


def test_solve_weights_rejects_a_node_of_the_wrong_length():
    with pytest.raises(DimensionMismatch):
        solve_weights(Simplex(2), [(0, 0, 0)], [(1, 0)])


def test_solve_weights_gives_back_the_cr5_weights():
    # both branches: the center and the four boundary nodes are fixed by
    # the quadratics, so the solve must return the blend's own weights
    for rule in (cr5(), cr5_conjugate()):
        out = solve_weights(trapezoid_paper(), rule.nodes, list(monomials_up_to(2, 2)))
        assert isinstance(out, UniqueSolution), rule.label
        assert out.values == rule.weights, rule.label


def test_cr5_residuals_are_galois_conjugate():
    # sqrt(3893) -> -sqrt(3893) maps CR5 onto CR5* and fixes every moment
    primary, conjugate = cr5(), cr5_conjugate()
    for alpha in monomials_up_to(2, 6):
        assert residual(conjugate, alpha) == scalars.conj(residual(primary, alpha)), alpha


def test_solve_weights_underdetermined():
    region = Simplex(2)
    nodes = (region.centroid(),) + region.vertices()
    out = solve_weights(region, nodes, [(0, 0), (1, 0)])
    assert isinstance(out, Underdetermined)
    assert out.nullity == 2


def test_pipeline_blend_reproduces_named_rules():
    # solve for the blend parameter, rebuild the rule, compare on all
    # monomials through degree 4
    for n in (2, 3):
        region = Simplex(n)
        m, t = midpoint_rule(region), vertex_rule(region)
        out = solve_lambda(m, t, [(1, 1) + (0,) * (n - 2)])
        rebuilt = blend(out.values[0], m, t)
        reference = cr1(n)
        for alpha in monomials_up_to(n, 4):
            assert rebuilt.apply_poly(monomial(alpha)) == reference.apply_poly(
                monomial(alpha)
            )
    for n in (1, 2, 3):
        region = Cube(n)
        m, t = midpoint_rule(region), vertex_rule(region)
        out = solve_lambda(m, t, [(2,) + (0,) * (n - 1)])
        rebuilt = blend(out.values[0], m, t)
        reference = cr3(n)
        for alpha in monomials_up_to(n, 4):
            assert rebuilt.apply_poly(monomial(alpha)) == reference.apply_poly(
                monomial(alpha)
            )


def test_exactness_report_json():
    report = exactness_degree(cr3(3), 5)
    blob = json.loads(json.dumps(report.to_json()))
    assert blob["label"] == "CR3(3)"
    assert blob["degree"] == 3
    assert blob["failing"] == [4, 0, 0]
    assert blob["residual"] == {"rat": ["1", "120"]}
    assert blob["tested"] == 5
    clean = exactness_degree(cr4(), 3).to_json()
    assert clean["failing"] is None and clean["residual"] is None


def test_disc_rule_pi_residuals():
    from simpson_nd.rules import cr6

    report = exactness_degree(cr6(), 5)
    assert report.certified_degree == 3
    assert report.failing == (4, 0)
    assert report.failing_residual == PiMultiple(Fraction(1, 8))


def test_imported_rule_can_fail_on_constants():
    # a hand-built rule whose weights do not sum to the volume is degree -1
    from simpson_nd.rules import CubatureRule, rule_from_json, rule_to_json

    bad = CubatureRule(
        Cube(1), ((Fraction(1, 2),),), (Fraction(2),), label="bad-import"
    )
    again = rule_from_json(rule_to_json(bad))
    report = exactness_degree(again, 2)
    assert report.certified_degree == -1
    assert report.failing == (0,)


def test_named_rule_claimed_degrees():
    # certified degree at claimed + 2 for the whole catalog
    from simpson_nd.rules import cr2, cr5, cr6, triangle_midedge

    table = [
        (cr3(2), 3),
        (cr3(6), 3),
        (cr4(), 3),
        (cr5(), 2),
        (cr6(), 3),
        (triangle_midedge(), 2),
        (cr2(4), 2),
    ]
    for n in range(2, 7):
        table.append((cr1(n), 2))
    for rule, claimed in table:
        report = exactness_degree(rule, claimed + 2)
        assert report.certified_degree == claimed, rule.label
    # the 1-d blend is classical Simpson, one degree better than the family claim
    assert exactness_degree(cr1(1), 4).certified_degree == 3


def test_solve_lambda_on_the_disc_reproduces_cr6():
    from simpson_nd.regions import UnitDisc
    from simpson_nd.rules import boundary_rule, cr6

    disc = UnitDisc()
    circle = boundary_rule(disc, [(1, 0), (0, 1), (-1, 0), (0, -1)])
    out = solve_lambda(midpoint_rule(disc), circle, [(2, 0), (0, 2), (1, 1)])
    assert isinstance(out, UniqueSolution)
    assert out.values == (Fraction(1, 2),)
    rebuilt = blend(Fraction(1, 2), midpoint_rule(disc), circle)
    for alpha in monomials_up_to(2, 3):
        assert scalars.eq(
            rebuilt.apply_poly(monomial(alpha)), cr6().apply_poly(monomial(alpha))
        )


def test_solve_weights_over_quadratic_field():
    # elimination at the CR5 nodes runs over Q(sqrt 3893) and lands on the
    # rule's rational weights, uniquely
    rule = cr5()
    out = solve_weights(trapezoid_paper(), rule.nodes, list(monomials_up_to(2, 2)))
    assert isinstance(out, UniqueSolution)
    assert out.values == rule.weights
    assert out.values[0] == Fraction(489, 784)
    assert set(out.values[1:]) == {Fraction(687, 3136)}


def _scans_orbits(rule) -> bool:
    return scans_orbits(rule.region, NodeTable(rule.nodes, rule.weights))


def _report_tuple(report):
    return report.certified_degree, report.failing, report.failing_residual


def test_sorted_monomials_are_the_descending_tuples_in_scan_order():
    for n in range(1, 7):
        for d in range(7):
            descending = [
                a for a in monomials_of_degree(n, d) if list(a) == sorted(a, reverse=True)
            ]
            assert list(sorted_monomials_of_degree(n, d)) == descending


@pytest.mark.parametrize("max_degree", [2, 5])
def test_orbit_scan_gives_the_full_scan_report(max_degree):
    catalog = [cr4(), cr5(), cr5_conjugate(), cr6(), triangle_midedge()]
    for n in range(1, 7):
        catalog += [cr1(n), cr2(n), cr3(n)]
    for rule in catalog:
        report = exactness_degree(rule, max_degree)
        assert _report_tuple(report) == full_scan_report(rule, max_degree), rule.label
    # CR4 and the midedge rule are closed under x <-> y; CR5, CR5* and CR6
    # are not on a simplex or cube and have Quad or pi entries
    scanned = {rule.label for rule in catalog if _scans_orbits(rule)}
    assert scanned == {rule.label for rule in catalog} - {"CR5", "CR5*", "CR6"}


def _cr3_2_moving(source, target):
    """CR3(2) with 1/7 of weight moved from the vertex ``source`` to ``target``."""
    rule = cr3(2)
    shift = {
        tuple(map(Fraction, source)): Fraction(-1, 7),
        tuple(map(Fraction, target)): Fraction(1, 7),
    }
    weights = tuple(w + shift.get(p, 0) for p, w in zip(rule.nodes, rule.weights))
    return CubatureRule(rule.region, rule.nodes, weights, label="moved")


def _moved_weight_cr3_2():
    return _cr3_2_moving((0, 1), (1, 0))


def _dropped_member_cube3():
    # CR3(3) without the vertex (1, 0, 0); (0, 1, 0) and (0, 0, 1) stay
    rule = cr3(3)
    kept = [
        (p, w) for p, w in zip(rule.nodes, rule.weights)
        if p != (Fraction(1), Fraction(0), Fraction(0))
    ]
    return CubatureRule(
        rule.region, tuple(p for p, _ in kept), tuple(w for _, w in kept), label="dropped"
    )


def _uneven_multiplicity_square():
    # (1, 0) twice and (0, 1) once: every permutation is there, unequally often
    one, zero, q = Fraction(1), Fraction(0), Fraction(1, 3)
    return CubatureRule(Cube(2), ((one, zero), (one, zero), (zero, one)), (q, q, q), label="uneven")


@pytest.mark.parametrize(
    "build", [_moved_weight_cr3_2, _dropped_member_cube3, _uneven_multiplicity_square]
)
def test_a_rule_not_closed_under_permutations_gets_the_full_scan(build):
    rule = build()
    assert not _scans_orbits(rule)
    for max_degree in (0, 1, 3, 5):
        report = exactness_degree(rule, max_degree)
        assert _report_tuple(report) == full_scan_report(rule, max_degree)


def test_the_moved_weight_fails_at_the_first_moved_coordinate():
    report = exactness_degree(_moved_weight_cr3_2(), 3)
    assert _report_tuple(report) == (0, (1, 0), Fraction(1, 7))


def test_a_closed_rule_with_a_symmetric_defect_is_orbit_scanned():
    # (0, 0) and (1, 1) are one-point orbits, so the rule stays closed
    moved = _cr3_2_moving((1, 1), (0, 0))
    assert _scans_orbits(moved)
    report = exactness_degree(moved, 3)
    assert _report_tuple(report) == full_scan_report(moved, 3) == (0, (1, 0), Fraction(-1, 7))
