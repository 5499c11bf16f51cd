"""The built-in claim suite: every published property of the rule catalog
as a runnable check.

Each claim returns ok plus a short human-readable detail; the CLI
``verify --all`` renders the list and exits nonzero when any claim fails.
The test suite pins the same facts with tighter, value-level assertions.
"""

from __future__ import annotations

import math
import random
from fractions import Fraction
from math import factorial
from typing import Callable

from . import compound as compound_mod
from . import exactness, expr, families, rules, scalars
from .record import record
from .regions import Cube, Polygon, Simplex, UnitDisc, hexagon_paper, trapezoid_paper
from .scalars import PiMultiple


@record
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


# Simpson's value of x^4 on [0, 1], and the moment it misses
_QUARTIC = (Fraction(5, 24), Fraction(1, 5))


def _check_cr3() -> list[Claim]:
    members = {n: rules.cr3(n) for n in range(1, 7)}
    reports = {n: exactness.exactness_degree(rule, 5) for n, rule in members.items()}
    ok_deg = all(report.certified_degree == 3 for report in reports.values())
    ok_res = all(
        _fails_first_at(report, (4,) + (0,) * (n - 1), scalars.sub(*_QUARTIC))
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


# The single-rule first failures, each one claim: (name, detail, catalog name,
# degree scanned through, certified degree, first failing monomial, the rule's
# value and the region's moment there, monomials whose residual also vanishes).
# CR5* is scanned only through its certified degree, so it has no failure.
_FIRST_FAILURES = (
    (
        "cr4-cubic-exactness-plus-bonus",
        "degree 3, zero residual on x^3 y and x y^3, x^4 residual 1/120",
        "CR4", 5, 3, (4, 0), *_QUARTIC, ((3, 1), (1, 3)),
    ),
    (
        "cr5-quadratic-exactness-sqrt3893",
        "degree 2 over Q(sqrt 3893); x^3 residual 336001/762048 - 9/20",
        "CR5", 4, 2, (3, 0), Fraction(336001, 762048), Fraction(9, 20), (),
    ),
    ("cr5-conjugate-solution", "conjugate root also degree 2", "CR5*", 2, 2, None, None, None, ()),
    (
        "cr6-cubic-exactness-pi-weights",
        "degree 3 with pi arithmetic; x^4 residual pi/4 - pi/8",
        "CR6", 5, 3, (4, 0), PiMultiple(Fraction(1, 4)), PiMultiple(Fraction(1, 8)), (),
    ),
    (
        "midedge-quadratic-exactness",
        "degree 2; x^3 gives 1/24 vs 1/20",
        "TriangleMidedge", 4, 2, (3, 0), Fraction(1, 24), Fraction(1, 20), (),
    ),
)


def _check_first_failures() -> list[Claim]:
    out = []
    for name, detail, rule_name, top, degree, alpha, value, moment, zeros in _FIRST_FAILURES:
        rule = rules.named_rule(rule_name)
        report = exactness.exactness_degree(rule, top)
        ok = report.certified_degree == degree
        if alpha is not None:
            ok = (
                ok
                and _fails_first_at(report, alpha, scalars.sub(value, moment))
                and rule.region.moment(alpha) == moment
            )
        # the scan stops at the first failure, before these monomials
        ok = ok and all(scalars.is_zero(exactness.residual(rule, beta)) for beta in zeros)
        out.append(Claim(name, ok, detail))
    return out


def _check_negative_results() -> list[Claim]:
    targets = list(exactness.monomials_up_to(2, 2))
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


# each point family's residual count, in words, and its selector roots
_FAMILY_CLAIMS = {
    "triangle": ("five", {Fraction(0), Fraction(1, 2)}),
    "square": ("nine", {Fraction(0), Fraction(1), Fraction(1, 2)}),
}


def _check_families() -> list[Claim]:
    rng = random.Random(20250808)

    def random_fraction(lo=0, hi=1):
        den = rng.randint(2, 40)
        num = rng.randint(lo * den, hi * den)
        return Fraction(num, den)

    member_claims, ok_roots = [], True
    for name, family in families.FAMILIES.items():
        count, roots = _FAMILY_CLAIMS[name]
        member_claims.append(Claim(
            f"{name}-family-20-random-members",
            all(family.verify(random_fraction())[0] for _ in range(20)),
            f"all {count} residuals vanish at every sampled parameter",
        ))
        ok_roots = ok_roots and family.selector_roots() == roots
    point, lam = families.SIMPLEX3_FACE_CENTERS
    res = families.simplex3_face_system(point, lam)
    ok_face = res.all_zero and rules.rules_equivalent(
        families.simplex3_face_rule(point, lam), rules.cr2(3)
    )
    vertex = families.simplex3_vertex_solutions()
    ok_vertex = len(vertex) > 0 and all(
        families.simplex3_face_system(a, families.SIMPLEX3_VERTEX_LAMBDA).all_zero
        for a in vertex
    )
    return member_claims + [
        Claim(
            "family-selector-root-sets",
            ok_roots,
            "selector roots are {0, 1/2} and {0, 1, 1/2}",
        ),
        Claim(
            "simplex3-face-centers-solution",
            ok_face,
            f"all-{point[0]} with blend {lam} solves the system and rebuilds CR2(3)",
        ),
        Claim(
            "simplex3-vertex-placements",
            ok_vertex,
            f"vertex-type search finds {len(vertex)} solutions at blend "
            f"{families.SIMPLEX3_VERTEX_LAMBDA}",
        ),
    ]


def _indicator_weights(region, basis, nodes, rule) -> bool:
    """The interpolatory weights, which integrate_interpolant dots with its
    data, must reproduce the rule weight of each interpolation node (zero
    for nodes the rule omits); one solve for all the nodes."""
    weights = dict(zip(rule.nodes, rule.weights))
    return all(
        scalars.eq(value, weights.get(node, Fraction(0)))
        for node, value in zip(nodes, families._interpolatory_weights(region, basis, nodes))
    )


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


def _fitted_order(rule: rules.CubatureRule, f: Callable[..., float], reference: float) -> float:
    """The convergence order fitted to levels 1-5 of compounding rule."""
    ests = [compound_mod.compound_apply(rule, lv, f) for lv in range(1, 6)]
    return compound_mod.convergence_order(ests, reference)


def _check_convergence() -> list[Claim]:
    # parsed, so that the compound kernels inline them as they do the CLI's
    exp2, exp1 = (expr.as_function(expr.parse(text)) for text in ("exp(x+y)", "exp(x)"))
    order_sq = _fitted_order(rules.cr4(), exp2, (math.e - 1.0) ** 2)
    order_tri = _fitted_order(rules.triangle_midedge(), exp2, 1.0)
    order_1d = _fitted_order(rules.cr3(1), exp1, math.e - 1.0)
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
    _check_first_failures,
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
