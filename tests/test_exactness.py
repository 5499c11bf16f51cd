import json
import math
import random
from collections import Counter
from fractions import Fraction
from math import factorial

import pytest

from oracles import full_scan_report, scalar_solve_weights, steger_polygon_moment, two_rule_lambda
from test_regions import _random_rational_polygon
from simpson_nd import rules, scalars
from simpson_nd.errors import DimensionMismatch, NodeOutsideRegion
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
from simpson_nd.regions import (
    Cube,
    Polygon,
    Simplex,
    UnitDisc,
    hexagon_paper,
    trapezoid_paper,
)
from simpson_nd.rules import (
    CubatureRule,
    NodeTable,
    DISC_AXIS_POINTS,
    blend,
    boundary_rule,
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
        out = solve_lambda(region, region.vertices(), targets)
        assert isinstance(out, UniqueSolution)
        assert out.values == (Fraction(n + 1, n + 2),)


def test_solve_lambda_cube():
    for n in range(1, 7):
        region = Cube(n)
        targets = [(2,) + (0,) * (n - 1)]
        out = solve_lambda(region, region.vertices(), targets)
        assert out.values == (Fraction(2, 3),)


def test_solve_lambda_hexagon_infeasible():
    hexagon = hexagon_paper()
    targets = [(2, 0), (0, 2)]
    out = solve_lambda(hexagon, hexagon.vertices(), targets)
    assert isinstance(out, Infeasible)
    assert len(out.equations) == 2
    # the witness is honest: each cited one-unknown equation pins a
    # different value, so no common solution exists
    lams = [scalars.div(eqn.rhs, eqn.coefficients[0]) for eqn in out.equations]
    assert not scalars.eq(lams[0], lams[1])


def test_solve_lambda_underdetermined():
    region = Cube(2)
    targets = [(0, 0), (1, 0)]
    out = solve_lambda(region, region.vertices(), targets)
    assert isinstance(out, Underdetermined)
    assert out.nullity == 1


def test_solve_lambda_trapezoid_vertices_infeasible():
    region = trapezoid_paper()
    targets = list(monomials_up_to(2, 2))
    out = solve_lambda(region, region.vertices(), targets)
    assert isinstance(out, Infeasible)


TRAP_NODES = ((Fraction(5, 9), Fraction(7, 9)), (0, 0), (1, 0), (0, 1), (1, 2))


def _trapezoid_weights(nodes, targets):
    return solve_weights(nodes, targets, trapezoid_paper().moments(targets))


def test_solve_weights_trapezoid_infeasible():
    out = _trapezoid_weights(TRAP_NODES, list(monomials_up_to(2, 2)))
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
    out = _trapezoid_weights(TRAP_NODES, targets)
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
    targets = list(monomials_up_to(2, 2))
    out = solve_weights(nodes, targets, region.moments(targets))
    assert out.values == (Fraction(3, 8), Fraction(1, 24), Fraction(1, 24), Fraction(1, 24))


def test_solve_weights_solution_zeroes_residuals():
    region = trapezoid_paper()
    targets = [a for a in monomials_up_to(2, 2) if a != (1, 1)]
    out = solve_weights(TRAP_NODES, targets, region.moments(targets))
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
        solve_weights([(0, 0, 0)], [(1, 0)], Simplex(2).moments([(1, 0)]))


def test_the_solvers_refuse_targets_without_their_moments():
    region = Simplex(2)
    targets = [(1, 0), (0, 1)]
    with pytest.raises(ValueError, match="shorter"):
        solve_weights(region.vertices(), targets, region.moments(targets[:1]))


def test_solve_weights_gives_back_the_cr5_weights():
    # both branches: the center and the four boundary nodes are fixed by
    # the quadratics, so the solve must return the blend's own weights
    for rule in (cr5(), cr5_conjugate()):
        out = _trapezoid_weights(rule.nodes, list(monomials_up_to(2, 2)))
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
    targets = [(0, 0), (1, 0)]
    out = solve_weights(nodes, targets, region.moments(targets))
    assert isinstance(out, Underdetermined)
    assert out.nullity == 2


def test_pipeline_blend_reproduces_named_rules():
    # solve for the blend parameter, rebuild the rule, compare on all
    # monomials through degree 4
    for n in (2, 3):
        region = Simplex(n)
        targets = [(1, 1) + (0,) * (n - 2)]
        out = solve_lambda(region, region.vertices(), targets)
        rebuilt = blend(out.values[0], region, region.vertices())
        reference = cr1(n)
        for alpha in monomials_up_to(n, 4):
            assert rebuilt.apply_poly(monomial(alpha)) == reference.apply_poly(
                monomial(alpha)
            )
    for n in (1, 2, 3):
        region = Cube(n)
        targets = [(2,) + (0,) * (n - 1)]
        out = solve_lambda(region, region.vertices(), targets)
        rebuilt = blend(out.values[0], region, region.vertices())
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


def _lambda_cases():
    """(region, spread) pairs: simplices and cubes with their vertices, the
    disc with its axis points, the paper's trapezoid and hexagon, and 20
    seeded rational polygons with their vertices."""
    cases = [(cls(n), cls(n).vertices()) for cls in (Simplex, Cube) for n in range(1, 7)]
    cases += [(UnitDisc(), DISC_AXIS_POINTS)]
    cases += [(region, region.vertices()) for region in (trapezoid_paper(), hexagon_paper())]
    rng = random.Random(2417)
    polygons = [Polygon(_random_rational_polygon(rng)) for _ in range(20)]
    return cases + [(region, region.vertices()) for region in polygons]


def test_solve_lambda_matches_the_two_rule_solve():
    """Each outcome, with its witness and every equation's coefficients and
    right-hand side, is the one that the midpoint and boundary rules give,
    on targets deg0..deg3 and deg2 with each quadratic excluded in turn."""
    outcomes = Counter()
    for region, spread in _lambda_cases():
        n = region.dimension
        try:
            m = midpoint_rule(region)
        except NodeOutsideRegion:
            with pytest.raises(NodeOutsideRegion):
                solve_lambda(region, spread, [(0,) * n])
            outcomes["outside"] += 1
            continue
        t = boundary_rule(region, spread)
        deg2 = list(monomials_up_to(n, 2))
        target_lists = [list(monomials_up_to(n, k)) for k in range(4)]
        target_lists += [[a for a in deg2 if a != b] for b in monomials_of_degree(n, 2)]
        if isinstance(region, UnitDisc):
            # x^2*y^2 then reads 0*lam = pi/24
            target_lists.append([a for a in monomials_up_to(2, 4) if a != (4, 0)])
        for targets in target_lists:
            got = solve_lambda(region, spread, targets)
            want = two_rule_lambda(m, t, targets, region.moments(targets))
            # repr compares the scalar types too
            assert repr(got) == repr(want), (region, targets)
            witness = getattr(got, "witness", "")
            kind = next((w for w in ("0*lam", "irrational", "but") if w in witness), "")
            outcomes[type(got).__name__, kind] += 1
    assert set(outcomes) == {
        ("UniqueSolution", ""), ("Underdetermined", ""), ("Infeasible", "0*lam"),
        ("Infeasible", "irrational"), ("Infeasible", "but"), "outside",
    }


def test_solve_lambda_on_the_disc_reproduces_cr6():
    from simpson_nd.regions import UnitDisc
    from simpson_nd.rules import cr6

    disc = UnitDisc()
    axis = [(1, 0), (0, 1), (-1, 0), (0, -1)]
    targets = [(2, 0), (0, 2), (1, 1)]
    out = solve_lambda(disc, axis, targets)
    assert isinstance(out, UniqueSolution)
    assert out.values == (Fraction(1, 2),)
    rebuilt = blend(out.values[0], disc, axis)
    for alpha in monomials_up_to(2, 3):
        assert scalars.eq(
            rebuilt.apply_poly(monomial(alpha)), cr6().apply_poly(monomial(alpha))
        )


def test_solve_weights_over_quadratic_field():
    # elimination at the CR5 nodes runs over Q(sqrt 3893) and lands on the
    # rule's rational weights, uniquely
    rule = cr5()
    out = _trapezoid_weights(rule.nodes, list(monomials_up_to(2, 2)))
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


def _strict_hull(points):
    """The counterclockwise convex hull of sorted integer points, with no
    three consecutive vertices on a line (Andrew's monotone chain)."""
    def turn(o, a, b):
        return (a[0] - o[0]) * (b[1] - o[1]) - (a[1] - o[1]) * (b[0] - o[0])

    lower, upper = [], []
    for chain, pts in ((lower, points), (upper, reversed(points))):
        for p in pts:
            while len(chain) >= 2 and turn(chain[-2], chain[-1], p) <= 0:
                chain.pop()
            chain.append(p)
    return lower[:-1] + upper[:-1]


def _conjugable_polygon(rng, d):
    """Counterclockwise vertices of a convex polygon over Q(sqrt d) whose
    conjugate is convex too; rational when d is None.

    The strictly convex hull of integer points in [-9, 9]^2 has a nonzero
    integer cross product at every turn and edges shorter than 26.  Each
    coordinate then moves by b*sqrt(d) with |b*sqrt(d)| < 1/500, so under
    either embedding of Q(sqrt d) a turn's cross product moves by less
    than 1/3 and keeps its sign: both polygons stay convex.  Last, every
    coordinate is divided by one s in 1..4."""
    hull = []
    while len(hull) < 3:
        hull = _strict_hull(sorted({(rng.randint(-9, 9), rng.randint(-9, 9))
                                    for _ in range(rng.randint(4, 12))}))
    s = rng.randint(1, 4)
    if d is None:
        return [(Fraction(x, s), Fraction(y, s)) for x, y in hull]
    # 9 / (4500 (isqrt(d) + 1)) < 1 / (500 sqrt(d))
    low = 4500 * (math.isqrt(d) + 1)

    def move(c):
        return scalars.quad(Fraction(c, s), Fraction(rng.randint(-9, 9), s * low), d)

    return [(move(x), move(y)) for x, y in hull]


def _fields(outcome, f=lambda x: x):
    """An outcome's kind and values, f applied to every scalar; the witness
    text of an Infeasible outcome is left to ``_check_certificate``."""
    def each(values):
        return tuple(map(f, values))

    if isinstance(outcome, UniqueSolution):
        return "unique", each(outcome.values)
    if isinstance(outcome, Underdetermined):
        return "underdetermined", each(outcome.particular), outcome.nullity
    equations = [(e.label, each(e.coefficients), f(e.rhs)) for e in outcome.equations]
    return "infeasible", equations, each(outcome.multipliers)


def _check_certificate(outcome):
    """An Infeasible outcome's multipliers take its equations to
    0 = the value its witness names, and that value is not 0."""
    width = len(outcome.equations[0].coefficients)
    left, right = [Fraction(0)] * width, Fraction(0)
    for eqn, mult in zip(outcome.equations, outcome.multipliers):
        left = [scalars.add(x, scalars.mul(mult, c)) for x, c in zip(left, eqn.coefficients)]
        right = scalars.add(right, scalars.mul(mult, eqn.rhs))
    assert all(scalars.is_zero(x) for x in left), outcome
    assert not scalars.is_zero(right), outcome
    labels = ", ".join(e.label for e in outcome.equations)
    assert outcome.witness == (
        f"combining the equations for {labels} gives 0 = {scalars.format_scalar(right)}"
    )


@pytest.mark.parametrize("d", (2, 3, 3893, 1000003))
def test_conjugating_a_polygon_conjugates_its_moments_and_weight_solves(d):
    rng = random.Random(1700 + d)
    alphas = list(monomials_up_to(2, 6))
    targets = list(monomials_up_to(2, 2))
    kinds = Counter()
    for _ in range(5):
        polygon = Polygon(_conjugable_polygon(rng, d))
        image = Polygon([tuple(map(scalars.conj, v)) for v in polygon.vertex_list])
        assert image.vertex_list == tuple(tuple(map(scalars.conj, v)) for v in polygon.vertex_list)
        moments = polygon.moments(alphas)
        assert image.moments(alphas) == tuple(map(scalars.conj, moments))
        # each embedding's moments are those of its real polygon, in floats
        for region, values in ((polygon, moments), (image, image.moments(alphas))):
            real = [tuple(map(scalars.to_float, v)) for v in region.vertex_list]
            scale = 1 + max(abs(c) for v in real for c in v)
            for alpha, value in zip(alphas, values):
                want = steger_polygon_moment(real, *alpha)
                assert abs(scalars.to_float(value) - want) <= 1e-10 * scale ** (sum(alpha) + 2), alpha
        centroid = polygon.centroid()
        assert image.centroid() == tuple(map(scalars.conj, centroid))
        # the centroid and the first k vertices: fewer unknowns than the six
        # quadratic targets (infeasible), as many, or more (underdetermined)
        for k in range(2, len(polygon.vertex_list) + 1):
            nodes = (centroid,) + polygon.vertex_list[:k]
            out = solve_weights(nodes, targets, polygon.moments(targets))
            assert repr(out) == repr(scalar_solve_weights(polygon, nodes, targets))
            mirrored = solve_weights([tuple(map(scalars.conj, p)) for p in nodes], targets,
                                     image.moments(targets))
            assert _fields(mirrored) == _fields(out, scalars.conj)
            if isinstance(out, Infeasible):
                _check_certificate(out)
                _check_certificate(mirrored)
            kinds[type(out).__name__] += 1
    assert set(kinds) == {"Infeasible", "UniqueSolution", "Underdetermined"}, kinds


def _weight_systems():
    """(name, region, nodes, targets): the centroid plus every vertex (the
    four axis points on the disc), as ``derive --mode weights`` builds
    them, on seeded rational and Q(sqrt d) polygons and the named regions."""
    rng = random.Random(1800)
    regions = [(f"polygon-{d}-{i}", Polygon(_conjugable_polygon(rng, d)))
               for d in (None, 2, 3, 3893, 1000003) for i in range(2)]
    regions += [("disc", UnitDisc()), ("simplex:2", Simplex(2)), ("cube:2", Cube(2)),
                ("cube:3", Cube(3)), ("trapezoid-paper", trapezoid_paper()),
                ("hexagon-paper", hexagon_paper())]
    for name, region in regions:
        spread = ((1, 0), (0, 1), (-1, 0), (0, -1)) if name == "disc" else region.vertices()
        nodes = (region.centroid(),) + tuple(spread)
        for degree in (1, 2, 3, 4):
            yield name, region, nodes, list(monomials_up_to(region.dimension, degree))


def test_solve_weights_matches_the_scalar_rows():
    outcomes = {}
    for name, region, nodes, targets in _weight_systems():
        out = solve_weights(nodes, targets, region.moments(targets))
        assert repr(out) == repr(scalar_solve_weights(region, nodes, targets)), (name, targets)
        if isinstance(out, Infeasible):
            _check_certificate(out)
        outcomes[name, len(targets)] = out
    kinds = Counter(type(out).__name__ for out in outcomes.values())
    assert set(kinds) == {"Infeasible", "UniqueSolution", "Underdetermined"}, kinds
    # the disc's pi right-hand sides give a pi certificate at degree 4
    disc = outcomes["disc", 15]
    assert disc.witness.endswith(" gives 0 = -pi/8")
    assert all(isinstance(e.rhs, PiMultiple) for e in disc.equations)
    assert outcomes["trapezoid-paper", 6].witness.endswith(" gives 0 = -1/80")
    assert isinstance(outcomes["hexagon-paper", 6], Underdetermined)


_TRIANGLE = ((0, 0), (1, 0), (0, 1))
_SQUARE = ((0, 0), (1, 0), (1, 1), (0, 1))
_TRAPEZOID = ((0, 0), (1, 0), (1, 2), (0, 1))
# each 2-D catalog rule on a polygon, its region's vertices in cyclic order
_AFFINE_RULES = (
    (lambda: cr1(2), _TRIANGLE), (lambda: cr2(2), _TRIANGLE), (triangle_midedge, _TRIANGLE),
    (lambda: cr3(2), _SQUARE), (cr4, _SQUARE), (cr5, _TRAPEZOID), (cr5_conjugate, _TRAPEZOID),
)


def _affine_map(rng, d):
    """A seeded invertible map x -> A x + b with entries in Q, or in
    Q(sqrt d) when d is given, and det A."""
    def entry():
        a = Fraction(rng.randint(-6, 6), rng.randint(1, 4))
        return scalars.quad(a, Fraction(rng.randint(-3, 3), rng.randint(1, 4)), d) if d else a

    while True:
        (p, q), (r, s) = matrix = [(entry(), entry()) for _ in range(2)]
        det = scalars.sub(scalars.mul(p, s), scalars.mul(q, r))
        if not scalars.is_zero(det):
            shift = (entry(), entry())
            break

    def apply(point):
        return tuple(scalars.add(scalars.add(scalars.mul(u, point[0]), scalars.mul(v, point[1])), t)
                     for (u, v), t in zip(matrix, shift))

    return apply, det


def test_the_certified_degree_is_affine_invariant():
    """A rule exact through degree k on D, mapped with its weights times
    |det A|, is exact through degree k on the image of D, a polygon: the
    polynomials of degree <= k are closed under affine maps (Stroud 1971,
    1.4).  The scans put polygon moments over Q(sqrt d), the node table and
    locate against the simplex and cube moment formulas."""
    rng = random.Random(2110)
    checked, mismatches = 0, []
    for build, vertices in _AFFINE_RULES:
        rule = build()
        degree = exactness_degree(rule, 5).certified_degree
        rational = not any(isinstance(c, scalars.Quad) for p in rule.nodes for c in p)
        for d in (None,) * 4 + ((2, 3, 5, 7) if rational else (None,) * 4):
            apply, det = _affine_map(rng, d)
            scale = det if scalars.sign(det) > 0 else scalars.neg(det)
            image = CubatureRule(
                Polygon([apply(tuple(map(Fraction, v))) for v in vertices]),
                tuple(map(apply, rule.nodes)),
                tuple(scalars.mul(scale, w) for w in rule.weights),
            )
            got = exactness_degree(image, 5).certified_degree
            if got != degree:
                mismatches.append((rule.label, d, got, degree))
            checked += 1
    assert checked == 56 and not mismatches, mismatches


# Refusals of the residual: (call, error, message)
REFUSALS = {
    f"index of length {n}": (
        lambda n=n: residual(cr3(2), (1,) * n), DimensionMismatch,
        rf"^multi-index \({', '.join(['1'] * n)},?\) does not match region dimension$",
    )
    for n in (1, 3)
}


@pytest.mark.parametrize("case", sorted(REFUSALS))
def test_refusals(case):
    call, error, message = REFUSALS[case]
    with pytest.raises(error, match=message):
        call()


def _simplex_boundary_point(rng, n):
    """Barycentric weights k_0..k_n >= 0 over their sum, one of them 0."""
    while True:
        k = [rng.randint(0, 5) for _ in range(n + 1)]
        k[rng.randrange(n + 1)] = 0
        if sum(k):
            return tuple(Fraction(x, sum(k)) for x in k[1:])


def _cube_boundary_point(rng, n):
    q = rng.randint(1, 6)
    point = [Fraction(rng.randint(0, q), q) for _ in range(n)]
    point[rng.randrange(n)] = Fraction(rng.randint(0, 1))
    return tuple(point)


def _polygon_spread(rng, vertices):
    """Some vertices and edge midpoints of a convex polygon."""
    pairs = list(zip(vertices, vertices[1:] + vertices[:1]))
    points = list(vertices) + [tuple(scalars.div(scalars.add(a, b), 2) for a, b in zip(p, q))
                               for p, q in pairs]
    return rng.sample(points, rng.randint(1, len(points)))


_CIRCLE_POINTS = DISC_AXIS_POINTS + tuple(
    (Fraction(x, r), Fraction(y, r)) for x, y, r in ((3, 4, 5), (-5, 12, 13), (8, -15, 17)))


def seeded_blends(seed=3600):
    """(region, spread, lam) over Q, Q(sqrt d) and pi: simplices and cubes
    with their vertices and with seeded boundary points, rational polygons
    and polygons over Q(sqrt d) with some vertices and edge midpoints, the
    paper's hexagon and trapezoid, and the disc with axis and rational
    circle points; each spread at lam = 0, lam = 1 (where a row is dropped)
    and a seeded lam."""
    rng = random.Random(seed)
    cases = []
    for n in (1, 2, 3):
        for region, boundary in ((Simplex(n), _simplex_boundary_point),
                                 (Cube(n), _cube_boundary_point)):
            cases.append((region, region.vertices()))
            cases += [(region, [boundary(rng, n) for _ in range(rng.randint(1, 5))])
                      for _ in range(2)]
    for d in (None, None, 2, 3, 3893):
        vertices = _conjugable_polygon(rng, d)
        cases.append((Polygon(vertices), _polygon_spread(rng, vertices)))
    for polygon in (hexagon_paper(), trapezoid_paper()):
        cases.append((polygon, _polygon_spread(rng, list(polygon.vertex_list))))
    cases.append((trapezoid_paper(), rules._cr5_boundary_nodes(False)))
    cases += [(UnitDisc(), rng.sample(_CIRCLE_POINTS, rng.randint(1, 7))) for _ in range(3)]
    return [(region, tuple(spread), lam) for region, spread in cases
            for lam in (Fraction(0), Fraction(1),
                        Fraction(rng.randint(-9, 9), rng.randint(1, 9)))]


def _affine_images():
    """The images of ``test_the_certified_degree_is_affine_invariant``."""
    rng = random.Random(2110)
    images = []
    for build, vertices in _AFFINE_RULES:
        rule = build()
        rational = not any(isinstance(c, scalars.Quad) for p in rule.nodes for c in p)
        for d in (None,) * 4 + ((2, 3, 5, 7) if rational else (None,) * 4):
            apply, det = _affine_map(rng, d)
            scale = det if scalars.sign(det) > 0 else scalars.neg(det)
            images.append(CubatureRule(
                Polygon([apply(tuple(map(Fraction, v))) for v in vertices]),
                tuple(map(apply, rule.nodes)),
                tuple(scalars.mul(scale, w) for w in rule.weights),
            ))
    return images


def test_the_integer_scan_gives_the_full_scalar_scan_report():
    """The scan's zero test on ints, over Z, Z[sqrt d] and the pi
    coefficient, against the oracle's scalar residual of every monomial."""
    catalog = [cr4(), cr5(), cr5_conjugate(), cr6(), triangle_midedge()]
    catalog += [build(n) for n in range(1, 5) for build in (cr1, cr2, cr3)]
    cases = seeded_blends()
    blends = [blend(lam, region, spread) for region, spread, lam in cases]
    # lam = 0 drops the centroid, lam = 1 the spread
    assert [len(rule.nodes) for rule in blends[:6]] == [2, 1, 3, 2, 1, 3]
    rings = Counter()
    for rule in catalog + blends + _affine_images():
        degree = 4 if rule.region.dimension < 3 else 3
        report = exactness_degree(rule, degree)
        assert _report_tuple(report) == full_scan_report(rule, degree), rule
        rings["pi" if rule.table.pi else rule.table.radicand] += 1
    assert len(blends) == 87
    assert {None, 2, 3, 5, 7, 3893, "pi"} <= set(rings), rings


def test_residuals_weight_sums_and_polynomial_sums_read_the_rules_one_table(monkeypatch):
    built = []

    class Counted(NodeTable):
        def __init__(self, *args):
            built.append(args)
            super().__init__(*args)

    monkeypatch.setattr(rules, "NodeTable", Counted)
    rule = cr4()
    assert residual(rule, (3, 1)) == residual(rule, (1, 3)) == 0
    assert residual(rule, (4, 0)) == Fraction(1, 120)
    assert rule.weight_sum() == 1
    assert rule.apply_poly(monomial((2, 2), 9)) == Fraction(15, 16)
    assert exactness_degree(rule, 5).certified_degree == 3
    assert len(built) == 1 and rule.table is rule.table


def test_the_scan_builds_only_the_failing_residual_as_a_scalar(monkeypatch):
    subs = []
    sub = scalars.sub

    def counted(x, y):
        subs.append((x, y))
        return sub(x, y)

    catalog = [cr4(), cr5(), cr5_conjugate(), cr6(), triangle_midedge(), cr1(5), cr2(4), cr3(6)]
    monkeypatch.setattr(scalars, "sub", counted)
    for rule in catalog:
        report = exactness_degree(rule, 6)
        assert len(subs) == 1 and report.failing_residual == sub(*subs[0]), rule.label
        subs.clear()
    rule = cr3(2)
    subs.clear()
    assert exactness_degree(rule, 3).failing is None and subs == []
