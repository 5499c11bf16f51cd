"""The built-in claim suite: every published property of the rule catalog
as a runnable check.

Each claim returns ok plus a short human-readable detail; the CLI
``verify --all`` renders the list and exits nonzero when any claim fails.
The test suite pins the same facts with tighter, value-level assertions.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from fractions import Fraction
from math import factorial
from typing import Callable

from . import compound as compound_mod
from . import exactness, families, rules, scalars
from .regions import Cube, Polygon, Simplex, UnitDisc, hexagon_paper, trapezoid_paper
from .scalars import PiMultiple


@dataclass(frozen=True)
class Claim:
    name: str
    ok: bool
    detail: str


def _simpson_weights(rule: rules.CubatureRule) -> bool:
    pairs = sorted(
        zip(rule.nodes, rule.weights), key=lambda nw: scalars.to_float(nw[0][0])
    )
    expected = [
        ((Fraction(0),), Fraction(1, 6)),
        ((Fraction(1, 2),), Fraction(2, 3)),
        ((Fraction(1),), Fraction(1, 6)),
    ]
    return [(n, w) for n, w in pairs] == expected


def _fails_first_at(report: exactness.ExactnessReport, alpha, value) -> bool:
    """The scan's first nonzero residual is at x^alpha and equals value."""
    return report.failing == alpha and report.failing_residual == value


def _check_cr1() -> list[Claim]:
    members = {n: rules.cr1(n) for n in range(1, 7)}
    reports = {n: exactness.exactness_degree(rule, 5) for n, rule in members.items()}
    ok_all = all(report.certified_degree >= 2 for report in reports.values())

    def witness_holds(n: int) -> bool:
        # the scan stops at x1^3, before any distinct-triple cubic
        alpha = (1, 1, 1) + (0,) * (n - 3)
        expected = Fraction(1, (n + 1) * factorial(n + 2)) - Fraction(1, factorial(n + 3))
        return exactness.residual(members[n], alpha) == expected

    ok_wit = all(witness_holds(n) for n in range(3, 7))
    ok_deg = all(reports[n].certified_degree == 2 for n in range(2, 7))
    return [
        Claim("cr1-quadratic-exactness-n1..6", ok_all, "certified degree 2"),
        Claim(
            "cr1-cubic-failure-witness",
            ok_wit,
            "residual of a distinct-triple cubic is 1/((n+1)(n+2)!) - 1/(n+3)!",
        ),
        Claim("cr1-degree-cap-n2..6", ok_deg, "degree stays exactly 2"),
        Claim(
            "cr1-1d-is-simpson",
            _simpson_weights(members[1]) and reports[1].certified_degree == 3,
            "the 1-d member is classical Simpson (degree 3)",
        ),
    ]


def _center_weight(rule: rules.CubatureRule):
    center = rule.region.centroid()
    return next(w for p, w in zip(rule.nodes, rule.weights) if p == center)


def _check_cr2() -> list[Claim]:
    members = {n: rules.cr2(n) for n in range(2, 6)}
    ok_deg = all(
        exactness.exactness_degree(rule, 4).certified_degree == 2
        for rule in members.values()
    )
    ok_neg = all(scalars.sign(_center_weight(members[n])) < 0 for n in range(3, 6))
    ok_mid = rules.rules_equivalent(members[2], rules.triangle_midedge())
    return [
        Claim("cr2-quadratic-exactness-n2..5", ok_deg, "certified degree 2"),
        Claim("cr2-negative-center-weight-n>=3", ok_neg, "center weight < 0"),
        Claim("cr2-n2-is-midedge-rule", ok_mid, "coincides with the midedge rule"),
    ]


_QUARTIC_RESIDUAL = Fraction(5, 24) - Fraction(1, 5)


def _check_cr3() -> list[Claim]:
    members = {n: rules.cr3(n) for n in range(1, 7)}
    reports = {n: exactness.exactness_degree(rule, 5) for n, rule in members.items()}
    ok_deg = all(report.certified_degree == 3 for report in reports.values())
    ok_res = all(
        _fails_first_at(report, (4,) + (0,) * (n - 1), _QUARTIC_RESIDUAL)
        for n, report in reports.items()
    )
    return [
        Claim("cr3-cubic-exactness-n1..6", ok_deg, "certified degree 3"),
        Claim("cr3-quartic-residual", ok_res, "x^4 residual is 5/24 - 1/5 = 1/120"),
        Claim(
            "cr3-1d-is-simpson",
            _simpson_weights(members[1]),
            "weights (1/6, 2/3, 1/6) at 0, 1/2, 1",
        ),
    ]


def _check_cr4() -> list[Claim]:
    rule = rules.cr4()
    report = exactness.exactness_degree(rule, 5)
    # the scan stops at x^4, before x^3 y and x y^3
    ok = (
        report.certified_degree == 3
        and _fails_first_at(report, (4, 0), _QUARTIC_RESIDUAL)
        and scalars.is_zero(exactness.residual(rule, (3, 1)))
        and scalars.is_zero(exactness.residual(rule, (1, 3)))
    )
    return [
        Claim(
            "cr4-cubic-exactness-plus-bonus",
            ok,
            "degree 3, zero residual on x^3 y and x y^3, x^4 residual 1/120",
        )
    ]


def _check_cr5() -> list[Claim]:
    report = exactness.exactness_degree(rules.cr5(), 4)
    ok = report.certified_degree == 2 and _fails_first_at(
        report, (3, 0), Fraction(336001, 762048) - Fraction(9, 20)
    )
    ok_conj = exactness.exactness_degree(rules.cr5_conjugate(), 2).certified_degree == 2
    return [
        Claim(
            "cr5-quadratic-exactness-sqrt3893",
            ok,
            "degree 2 over Q(sqrt 3893); x^3 residual 336001/762048 - 9/20",
        ),
        Claim("cr5-conjugate-solution", ok_conj, "conjugate root also degree 2"),
    ]


def _check_cr6() -> list[Claim]:
    report = exactness.exactness_degree(rules.cr6(), 5)
    ok = report.certified_degree == 3 and _fails_first_at(
        report, (4, 0), PiMultiple(Fraction(1, 8))
    )
    return [
        Claim(
            "cr6-cubic-exactness-pi-weights",
            ok,
            "degree 3 with pi arithmetic; x^4 residual pi/4 - pi/8",
        )
    ]


def _check_midedge() -> list[Claim]:
    report = exactness.exactness_degree(rules.triangle_midedge(), 4)
    # rule(x^3) = 1/24 follows from the residual and the moment 1/20
    ok = (
        report.certified_degree == 2
        and _fails_first_at(report, (3, 0), Fraction(1, 24) - Fraction(1, 20))
        and Simplex(2).moment((3, 0)) == Fraction(1, 20)
    )
    return [
        Claim("midedge-quadratic-exactness", ok, "degree 2; x^3 gives 1/24 vs 1/20")
    ]


def _deg2_targets():
    return [alpha for alpha in exactness.monomials_up_to(2, 2)]


def _check_negative_results() -> list[Claim]:
    targets = _deg2_targets()
    hexagon = hexagon_paper()
    outcome = exactness.solve_lambda(hexagon, hexagon.vertices(), targets)
    ok_hex = isinstance(outcome, exactness.Infeasible)

    _, centroid, moments = trapezoid_paper().mass_and_moments(targets)
    nodes = (centroid, (0, 0), (1, 0), (0, 1), (1, 2))
    full = exactness.solve_weights(nodes, targets, moments)
    ok_full = isinstance(full, exactness.Infeasible)
    kept = [(a, m) for a, m in zip(targets, moments) if a != (1, 1)]
    partial = exactness.solve_weights(nodes, *zip(*kept))
    expected = (
        Fraction(81, 80),
        Fraction(23, 240),
        Fraction(17, 120),
        Fraction(29, 240),
        Fraction(31, 240),
    )
    ok_partial = (
        isinstance(partial, exactness.UniqueSolution) and partial.values == expected
    )
    return [
        Claim(
            "hexagon-no-blend-parameter",
            ok_hex,
            "no blend parameter is quadratic-exact on the hexagon",
        ),
        Claim(
            "trapezoid-five-node-infeasible",
            ok_full,
            "no weights at center+vertices match all degree-2 moments",
        ),
        Claim(
            "trapezoid-drop-xy-unique-weights",
            ok_partial,
            "dropping xy gives weights 81/80, 23/240, 17/120, 29/240, 31/240",
        ),
    ]


def _check_families() -> list[Claim]:
    rng = random.Random(20250808)

    def random_fraction(lo=0, hi=1):
        den = rng.randint(2, 40)
        num = rng.randint(lo * den, hi * den)
        return Fraction(num, den)

    ok_tri = all(
        families.verify_triangle_family(random_fraction())[0] for _ in range(20)
    )
    ok_sq = all(
        families.verify_square_family(random_fraction())[0] for _ in range(20)
    )
    ok_roots = families.triangle_selector_roots() == {
        Fraction(0),
        Fraction(1, 2),
    } and families.square_selector_roots() == {
        Fraction(0),
        Fraction(1),
        Fraction(1, 2),
    }
    third = Fraction(1, 3)
    lam = Fraction(-4, 5)
    point = (third,) * 8
    res = families.simplex3_face_system(point, lam)
    ok_face = res.all_zero and rules.rules_equivalent(
        families.simplex3_face_rule(point, lam), rules.cr2(3)
    )
    vertex = families.simplex3_vertex_solutions()
    ok_vertex = len(vertex) > 0 and all(
        families.simplex3_face_system(a, Fraction(4, 5)).all_zero for a in vertex
    )
    return [
        Claim(
            "triangle-family-20-random-members",
            ok_tri,
            "all five residuals vanish at every sampled parameter",
        ),
        Claim(
            "square-family-20-random-members",
            ok_sq,
            "all nine residuals vanish at every sampled parameter",
        ),
        Claim(
            "family-selector-root-sets",
            ok_roots,
            "selector roots are {0, 1/2} and {0, 1, 1/2}",
        ),
        Claim(
            "simplex3-face-centers-solution",
            ok_face,
            "all-1/3 with blend -4/5 solves the system and rebuilds CR2(3)",
        ),
        Claim(
            "simplex3-vertex-placements",
            ok_vertex,
            f"vertex-type search finds {len(vertex)} solutions at blend 4/5",
        ),
    ]


def _indicator_weights(region, basis, nodes, rule) -> bool:
    """integrate_interpolant with indicator data must reproduce the rule
    weight of each interpolation node (zero for nodes the rule omits)."""
    for i, node in enumerate(nodes):
        data = [Fraction(1 if j == i else 0) for j in range(len(nodes))]
        value = families.integrate_interpolant(region, basis, nodes, data)
        weight = Fraction(0)
        for p, w in zip(rule.nodes, rule.weights):
            if p == node:
                weight = w
                break
        if not scalars.eq(value, weight):
            return False
    return True


def _check_interpolation() -> list[Claim]:
    ok_cr1 = True
    for n in range(2, 5):
        region = Simplex(n)
        basis = [(0,) * n] + [
            tuple(1 if i == k else 0 for i in range(n)) for k in range(n)
        ]
        basis.append(tuple(1 if i < 2 else 0 for i in range(n)))
        nodes = list(region.vertices()) + [region.centroid()]
        if not _indicator_weights(region, basis, nodes, rules.cr1(n)):
            ok_cr1 = False

    h = Fraction(1, 2)
    third = Fraction(1, 3)
    tri_nodes = [(h, Fraction(0)), (Fraction(0), h), (h, h), (third, third)]
    ok_mid = _indicator_weights(
        Simplex(2),
        [(1, 1), (1, 0), (0, 1), (0, 0)],
        tri_nodes,
        rules.triangle_midedge(),
    )

    sq_nodes = [
        (h, Fraction(0)),
        (Fraction(0), h),
        (h, Fraction(1)),
        (Fraction(1), h),
        (h, h),
    ]
    ok_cr4 = _indicator_weights(
        Cube(2), list(families.QUADRATIC_BASIS), sq_nodes, rules.cr4()
    )

    _, det_half = families.interp_matrix_quadratic(h, h, h, h)
    _, det_bi_half = families.interp_matrix_bilinear(h, h, h, h)
    _, det_bi_vertex = families.interp_matrix_bilinear(1, 0, 0, 1)
    ok_det = (
        det_half == Fraction(1, 16)
        and scalars.is_zero(det_bi_half)
        and scalars.is_zero(det_bi_vertex)
    )
    rng = random.Random(11)
    ok_closed = True
    for _ in range(10):
        vals = [Fraction(rng.randint(0, 60), rng.randint(1, 60)) for _ in range(4)]
        _, det = families.interp_matrix_bilinear(*vals)
        if not scalars.eq(det, families.bilinear_det_closed_form(*vals)):
            ok_closed = False
    return [
        Claim(
            "interpolation-reproduces-weights",
            ok_cr1 and ok_mid and ok_cr4,
            "indicator data integrates to the rule weights (CR1(2..4), midedge, CR4)",
        ),
        Claim(
            "interpolation-determinants",
            ok_det and ok_closed,
            "det 1/16 at midedges; both singular cases zero; closed form matches",
        ),
    ]


def _check_moments() -> list[Claim]:
    tri = Polygon([(0, 0), (1, 0), (0, 1)])
    simplex = Simplex(2)
    ok_tri = all(
        scalars.eq(tri.moment(alpha), simplex.moment(alpha))
        for alpha in exactness.monomials_up_to(2, 4)
    )
    trap = trapezoid_paper()
    hexagon = hexagon_paper()
    disc = UnitDisc()
    ok_anchor = (
        trap.moment((1, 1)) == Fraction(17, 24)
        and trap.volume() == Fraction(3, 2)
        and scalars.eq(hexagon.moment((2, 0)), scalars.quad(Fraction(16, 3), 3, 3))
        and disc.moment((4, 0)) == PiMultiple(Fraction(1, 8))
        and Simplex(3).moment((1, 1, 0)) == Fraction(1, 120)
        and Cube(4).moment((2, 0, 0, 0)) == Fraction(1, 3)
    )
    return [
        Claim(
            "triangle-polygon-vs-simplex-moments",
            ok_tri,
            "boundary-integral moments equal the simplex formula through degree 4",
        ),
        Claim("moment-anchor-values", ok_anchor, "published moment values hold"),
    ]


def _check_convergence() -> list[Claim]:
    exp2 = lambda x, y: math.exp(x + y)
    ref_square = (math.e - 1.0) ** 2
    ests = [
        compound_mod.compound_apply(rules.cr4(), lv, exp2) for lv in range(1, 6)
    ]
    order_sq = compound_mod.convergence_order(ests, ref_square)
    ests_tri = [
        compound_mod.compound_apply(rules.triangle_midedge(), lv, exp2)
        for lv in range(1, 6)
    ]
    order_tri = compound_mod.convergence_order(ests_tri, 1.0)
    exp1 = lambda x: math.exp(x)
    ests_1d = [
        compound_mod.compound_apply(rules.cr3(1), lv, exp1) for lv in range(1, 6)
    ]
    order_1d = compound_mod.convergence_order(ests_1d, math.e - 1.0)
    return [
        Claim(
            "compound-cr4-order-4",
            abs(order_sq - 4.0) <= 0.3,
            f"fitted order {order_sq:.3f} against (e-1)^2",
        ),
        Claim(
            "compound-midedge-order",
            order_tri >= 2.7,
            f"fitted order {order_tri:.3f} against the exact integral 1",
        ),
        Claim(
            "compound-simpson-1d-order-4",
            abs(order_1d - 4.0) <= 0.3,
            f"fitted order {order_1d:.3f} against e-1",
        ),
    ]


_CHECKS: tuple[Callable[[], list[Claim]], ...] = (
    _check_cr1,
    _check_cr2,
    _check_cr3,
    _check_cr4,
    _check_cr5,
    _check_cr6,
    _check_midedge,
    _check_negative_results,
    _check_families,
    _check_interpolation,
    _check_moments,
    _check_convergence,
)


def run_claims() -> list[Claim]:
    out: list[Claim] = []
    for check in _CHECKS:
        out.extend(check())
    return out
