import itertools
import random
from fractions import Fraction
from math import factorial, isqrt

import pytest

from oracles import (
    direct_family_residual,
    factorial_disc_moment,
    fan_polygon_moment,
    interpolate_polynomial,
    iterated_cube_moment,
    iterated_simplex_moment,
    monomial_value,
    permutation_det,
    scalar_node_sum,
    simplex3_hand_linear_rows,
    solve_then_integrate_interpolant,
    square_family_lambda_closed_form,
    triangle_family_lambda_closed_form,
    two_rule_lambda,
    unpruned_simplex3_vertex_solutions,
)
from simpson_nd import cli, families, rules, scalars
from simpson_nd.errors import (
    DenominatorZero,
    DimensionMismatch,
    IncompatibleScalars,
    SimpsonNdError,
    SingularInterpolation,
    WorkLimit,
)
from simpson_nd.exactness import UniqueSolution, monomials_up_to, residual, solve_lambda
from simpson_nd.families import (
    bilinear_det_closed_form,
    exact_det,
    integrate_interpolant,
    interp_matrix_bilinear,
    interp_matrix_quadratic,
    rational_roots,
    simplex3_face_rule,
    simplex3_face_system,
    simplex3_vertex_solutions,
    solve_linear_system,
    square_selector_roots,
    square_system,
    trapezoid_family_member,
    trapezoid_system,
    triangle_selector_roots,
    triangle_system,
    verify_square_family,
    verify_triangle_family,
)
from simpson_nd.regions import Cube, Polygon, Simplex, UnitDisc, hexagon_paper, trapezoid_paper
from simpson_nd.rules import (
    CR5_LAMBDA,
    CubatureRule,
    blend,
    boundary_rule,
    cr1,
    cr2,
    cr3,
    cr4,
    cr5_parameters,
    midpoint_rule,
    monomial,
    rules_equivalent,
    triangle_midedge,
    vertex_rule,
)
from simpson_nd.scalars import quad
from test_regions import _random_rational_polygon, _sheared_hexagon

HALF = Fraction(1, 2)
TRIANGLE, SQUARE = families.FAMILIES["triangle"], families.FAMILIES["square"]


# ---------------------------------------------------------------- triangle


def test_triangle_system_midedge_point():
    assert triangle_system(HALF, HALF, HALF, 0).all_zero


def test_triangle_system_vertex_point():
    # nodes (1,0), (0,0), (0,1): the vertex configuration, c = 0 in the family
    assert triangle_system(1, 0, 0, Fraction(3, 4)).all_zero
    # a = 0 would double up the origin node and lose exactness even for x
    res = triangle_system(0, 0, 0, Fraction(3, 4))
    assert res.as_dict()["x"] == Fraction(1, 8) - Fraction(1, 6)


def test_triangle_system_xy_residual_at_half_lambda():
    res = triangle_system(HALF, HALF, HALF, HALF).as_dict()
    expected = (
        Fraction(1, 18) * HALF + Fraction(1, 6) * HALF * Fraction(1, 4) - Fraction(1, 24)
    )
    assert res["xy"] == expected
    assert expected != 0


def test_triangle_system_matches_rule_residuals():
    rng = random.Random(4)
    region = Simplex(2)
    targets = [(1, 0), (0, 1), (2, 0), (0, 2), (1, 1)]
    for _ in range(12):
        a = Fraction(rng.randint(0, 12), 12)
        b = Fraction(rng.randint(0, 12), 12)
        c = Fraction(rng.randint(0, 12), 12)
        lam = Fraction(rng.randint(-10, 10), rng.randint(1, 10))
        nodes = [(a, Fraction(0)), (Fraction(0), b), (c, 1 - c)]
        rule = blend(lam, region, nodes)
        res = triangle_system(a, b, c, lam)
        for name, alpha in zip(res.names, targets):
            assert scalars.eq(res.as_dict()[name], residual(rule, alpha)), (name, a, b, c, lam)


def test_triangle_family_lambda_endpoints():
    assert TRIANGLE.member(Fraction(0))[1] == Fraction(3, 4)
    assert TRIANGLE.member(HALF)[1] == 0
    assert TRIANGLE.member(Fraction(1, 3))[1] == Fraction(1, 4)


def test_triangle_family_members_all_solve():
    rng = random.Random(81)
    for _ in range(20):
        c = Fraction(rng.randint(0, 48), 48)
        ok, res = verify_triangle_family(c)
        assert ok, (c, res)


def test_triangle_family_distinguished_points():
    ok, _ = verify_triangle_family(HALF)
    assert ok
    assert rules_equivalent(TRIANGLE.rule(HALF), triangle_midedge())
    ok, _ = verify_triangle_family(Fraction(0))
    assert ok
    assert rules_equivalent(TRIANGLE.rule(Fraction(0)), cr1(2))


def test_triangle_family_rule_takes_an_irrational_member():
    c = scalars.add(Fraction(1, 3), quad(0, Fraction(1, 7), 2))
    rule = TRIANGLE.rule(c)
    assert rule.weight_sum() == HALF
    ok, res = verify_triangle_family(c)
    assert ok
    assert tuple(residual(rule, alpha) for alpha in families._TRIANGLE.alphas) == res.residuals


def _seeded_family_parameter(rng, field):
    """A rational c = k/12 in [0, 1], or for "quad" c = k/12 + sqrt(d)/m
    kept in [0, 1]."""
    while True:
        c = Fraction(rng.randint(0, 12), 12)
        if field == "quad":
            c = scalars.add(c, quad(0, Fraction(rng.choice((-1, 1)), rng.randint(3, 9)),
                                    rng.choice((2, 3, 5, 3893))))
        if 0 <= scalars.to_float(c) <= 1:
            return c


@pytest.mark.parametrize("field", ["rat", "quad"])
def test_triangle_family_members_c_and_one_minus_c_are_mirror_images(field):
    # swapping x and y maps the nodes (1-c, 0), (0, c), (c, 1-c) of member
    # 1-c onto those of member c, and lam is the same
    rng = random.Random(91 if field == "rat" else 92)
    for _ in range(8):
        c = _seeded_family_parameter(rng, field)
        other = TRIANGLE.rule(scalars.sub(Fraction(1), c))
        mirrored = CubatureRule(other.region, tuple((y, x) for x, y in other.nodes), other.weights)
        assert rules_equivalent(mirrored, TRIANGLE.rule(c)), c
    # the ends c = 0 and c = 1 are one rule up to the mirror, and in fact equal
    assert rules_equivalent(TRIANGLE.rule(Fraction(0)), TRIANGLE.rule(Fraction(1)))


def test_triangle_selector_roots():
    assert triangle_selector_roots() == {Fraction(0), HALF}


# ---------------------------------------------------------------- square


def test_square_system_midedge_point():
    assert square_system(HALF, HALF, HALF, HALF, Fraction(1, 3)).all_zero


def test_square_system_vertex_point():
    assert square_system(0, 1, 1, 0, Fraction(2, 3)).all_zero


def test_square_system_x2_residual_at_half_lambda():
    res = square_system(HALF, HALF, HALF, HALF, HALF).as_dict()
    expected = Fraction(1, 8) + Fraction(1, 8) * (
        Fraction(1, 4) + Fraction(1, 4) + 1
    ) - Fraction(1, 3)
    assert res["x^2"] == expected
    assert expected != 0


def test_square_system_matches_rule_residuals():
    rng = random.Random(10)
    region = Cube(2)
    targets = [(1, 0), (0, 1), (2, 0), (0, 2), (1, 1), (3, 0), (0, 3), (2, 1), (1, 2)]
    for _ in range(10):
        vals = [Fraction(rng.randint(0, 10), 10) for _ in range(4)]
        lam = Fraction(rng.randint(-8, 8), rng.randint(1, 8))
        a, b, c, d = vals
        nodes = [(a, Fraction(0)), (Fraction(0), b), (c, Fraction(1)), (Fraction(1), d)]
        rule = blend(lam, region, nodes)
        res = square_system(a, b, c, d, lam)
        for name, alpha in zip(res.names, targets):
            assert scalars.eq(res.as_dict()[name], residual(rule, alpha)), name


def test_square_family_lambda():
    assert SQUARE.member(HALF)[1] == Fraction(1, 3)
    assert SQUARE.member(Fraction(0))[1] == Fraction(2, 3)
    assert SQUARE.member(Fraction(1))[1] == Fraction(2, 3)


def test_square_family_members_all_solve():
    rng = random.Random(82)
    for _ in range(20):
        d = Fraction(rng.randint(0, 48), 48)
        ok, res = verify_square_family(d)
        assert ok, (d, res)


def test_square_family_distinguished_points():
    assert rules_equivalent(SQUARE.rule(HALF), cr4())
    assert rules_equivalent(SQUARE.rule(Fraction(0)), cr3(2))
    assert rules_equivalent(SQUARE.rule(Fraction(1)), cr3(2))


def test_square_family_quarter_point_misses_bonus():
    ok, res = verify_square_family(Fraction(1, 4))
    assert ok
    rule = SQUARE.rule(Fraction(1, 4))
    assert not scalars.is_zero(residual(rule, (3, 1)))
    # at the selector roots the bonus residual vanishes
    for d in square_selector_roots():
        assert scalars.is_zero(residual(SQUARE.rule(d), (3, 1)))


def test_square_selector_roots():
    assert square_selector_roots() == {Fraction(0), Fraction(1), HALF}


def test_square_selector_is_the_numerator_of_the_x3y_residual():
    # lam = (6d^2 - 6d + 2)/(6d^2 - 6d + 3); times that denominator, the
    # x^3 y residual of the member at d is -selector(d)/8, so the
    # selector's roots are the members exact for x^3 y, and no others
    rng = random.Random(1414)

    def denominator(d):
        return 6 * d * d - 6 * d + 3

    def scaled_residual(d):
        return denominator(d) * residual(SQUARE.rule(d), (3, 1))

    assert interpolate_polynomial(scaled_residual, 3, rng) == [
        -c / 8 for c in SQUARE.selector
    ]
    assert interpolate_polynomial(
        lambda d: SQUARE.member(d)[1] * denominator(d), 2, rng
    ) == [2, -6, 6]


def test_square_family_lambda_never_zero():
    # numerator 6d^2 - 6d + 2 has discriminant 36 - 48 < 0
    assert rational_roots((Fraction(2), Fraction(-6), Fraction(6))) == set()
    rng = random.Random(5)
    for _ in range(50):
        d = Fraction(rng.randint(-60, 60), rng.randint(1, 60))
        assert SQUARE.member(d)[1] != 0


# ---------------------------------------------------------------- trapezoid


def test_trapezoid_primary_member_solves():
    res = trapezoid_system(*trapezoid_family_member())
    assert res.all_zero


def test_trapezoid_conjugate_member_solves():
    res = trapezoid_system(*trapezoid_family_member(conjugate=True))
    assert res.all_zero


def test_trapezoid_member_constants():
    a, b, c, d, lam = trapezoid_family_member()
    assert lam == Fraction(163, 392)
    assert a == quad(Fraction(11, 18), Fraction(-1, 458), 3893)
    assert b == quad(Fraction(1, 2), Fraction(11, 4122), 3893)
    assert c == quad(1, Fraction(-10, 2061), 3893)
    assert d == quad(Fraction(11, 18), Fraction(1, 458), 3893)


def test_trapezoid_vertex_blend_fails_on_xy():
    # lam = 1 makes x and y exact but leaves the xy residual 35/54 - 17/24
    res = trapezoid_system(0, 0, 0, 0, Fraction(1)).as_dict()
    assert scalars.is_zero(res["x"])
    assert scalars.is_zero(res["y"])
    assert res["xy"] == Fraction(35, 54) - Fraction(17, 24)


def test_trapezoid_system_matches_rule_residuals():
    rng = random.Random(3)
    region = trapezoid_paper()
    targets = [(1, 0), (0, 1), (1, 1), (2, 0), (0, 2)]
    for _ in range(8):
        a = Fraction(rng.randint(0, 10), 10)
        b = Fraction(rng.randint(0, 10), 10)
        c = Fraction(rng.randint(0, 20), 10)
        d = Fraction(rng.randint(0, 10), 10)
        lam = Fraction(rng.randint(-6, 6), rng.randint(1, 6))
        nodes = [(a, Fraction(0)), (Fraction(0), b), (Fraction(1), c), (d, d + 1)]
        rule = blend(lam, region, nodes)
        res = trapezoid_system(a, b, c, d, lam)
        for name, alpha in zip(res.names, targets):
            assert scalars.eq(res.as_dict()[name], residual(rule, alpha)), name


def test_a_blend_system_asks_its_region_once(monkeypatch):
    """The volume, the centroid and the targets: one moment batch, each
    index once, for a fresh system's constants, none after."""
    calls = []
    for cls in (Simplex, Cube, Polygon):
        def counted(self, alphas, original=cls.moments):
            calls.append(list(alphas))
            return original(self, alphas)

        monkeypatch.setattr(cls, "moments", counted)
    for template, count in ((families._TRIANGLE, 3), (families._SQUARE, 4),
                            (families._TRAPEZOID, 4), (families._SIMPLEX3, 8)):
        system = families.BlendSystem(
            template.make_region, template.place, list(zip(template.names, template.alphas))
        )
        calls.clear()
        system.residuals((0,) * count, 1)
        n = system.form.region.dimension
        basis = {(0,) * n} | {tuple(int(i == k) for i in range(n)) for k in range(n)}
        assert len(calls) == 1
        assert sorted(calls[0]) == sorted(basis | set(template.alphas))
        system.residuals((1,) * count, 0)
        assert len(calls) == 1


# ---------------------------------------------------------------- blend parameter


def _seeded_parameters():
    """300 rationals in [-5, 5], then 20 values over each of Q(sqrt 2),
    Q(sqrt 3) and Q(sqrt 3893)."""
    rng = random.Random(25)
    values = [Fraction(rng.randint(-5 * 84, 5 * 84), 84) for _ in range(300)]
    for d in (2, 3, 3893):
        values += [quad(Fraction(rng.randint(-40, 40), 8), Fraction(rng.randint(1, 40), 9), d)
                   for _ in range(20)]
    return values


@pytest.mark.parametrize("family, closed_form", [
    (TRIANGLE, triangle_family_lambda_closed_form),
    (SQUARE, square_family_lambda_closed_form),
], ids=["triangle", "square"])
def test_family_lambda_matches_its_closed_form(family, closed_form):
    for value in _seeded_parameters():
        assert repr(family.member(value)[1]) == repr(closed_form(value)), value


@pytest.mark.parametrize("conjugate", [False, True])
def test_trapezoid_blend_parameter_is_cr5_lambda(conjugate):
    assert families._TRAPEZOID.blend_parameter(cr5_parameters(conjugate)) == CR5_LAMBDA


def test_solve_lambda_and_the_families_take_lam_from_one_row_routine():
    """On boundary nodes, the solve's one lam is the family's."""
    rng = random.Random(26)
    for _ in range(10):
        c = Fraction(rng.randint(0, 36), 36)
        params, lam, _ = TRIANGLE.member(c)
        outcome = solve_lambda(Simplex(2), TRIANGLE.system.nodes(params), TRIANGLE.system.alphas)
        assert outcome == UniqueSolution((lam,)), c
        d = Fraction(rng.randint(0, 36), 36)
        params, lam, _ = SQUARE.member(d)
        outcome = solve_lambda(Cube(2), SQUARE.system.nodes(params), SQUARE.system.alphas)
        assert outcome == UniqueSolution((lam,)), d


def test_blend_parameter_refuses_nodes_where_m_and_t_agree():
    # on [0, 1] the end points' mean is the centroid, so no lam is defined for x
    system = families.BlendSystem(lambda: Cube(1), lambda a, b: ((a,), (b,)), [("x", (1,))])
    with pytest.raises(DenominatorZero, match="M and T agree on every target"):
        system.blend_parameter((0, 1))
    assert system.blend_parameter((0, Fraction(1, 2))) == 1


def _count(monkeypatch, owner, name):
    calls = []
    original = getattr(owner, name)

    def counted(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(owner, name, counted)
    return calls


@pytest.mark.parametrize("argv", [
    ["family", "triangle", "--param", "1/3"], ["family", "square", "--param", "1/3"],
], ids=["triangle", "square"])
def test_a_family_request_solves_for_lam_once(monkeypatch, capsys, argv):
    """lam and the residuals the command prints come from one row pass."""
    passes = _count(monkeypatch, rules.PaperForm, "rows")
    assert cli.run(argv) == 0
    assert len(passes) == 1


def test_verify_triangle_family_solves_for_lam_once(monkeypatch):
    """lam and the residuals at lam come from one row pass, for both
    families."""
    passes = _count(monkeypatch, rules.PaperForm, "rows")
    ok, _ = verify_triangle_family(Fraction(2, 7))
    assert ok
    assert len(passes) == 1
    ok, _ = verify_square_family(Fraction(2, 7))
    assert ok
    assert len(passes) == 2


@pytest.mark.parametrize("read", [0, 1, 5])
def test_paper_rows_build_two_tables_however_many_rows_are_read(monkeypatch, read):
    """A form's row pass builds one spread table, and the one-node M table
    only on the form's first pass: a family system keeps its form."""
    system = families._TRIANGLE
    assert system.form.m_sums
    params = (Fraction(1, 4), Fraction(3, 4), Fraction(3, 4))
    nodes = system.nodes(params)
    tables = _count(monkeypatch, rules, "NodeTable")
    form = rules.PaperForm(system.form.region, system.alphas)
    rows = form.rows(nodes)
    assert len(list(itertools.islice(rows, read))) == read
    assert len(tables) == 2
    assert tables[0][0] == (form.centroid,) and tables[1][0] == nodes
    system_rows = system.rows(params)
    assert len(list(itertools.islice(system_rows, read))) == read
    assert len(tables) == 3
    assert tables[2][0] == nodes
    # both passes give the same rows
    assert list(rows) == list(system_rows) == list(system.rows(params))[read:]


# ------------------------------------------------- rows against direct sums

_TRAPEZOID_VERTICES = ((0, 0), (1, 0), (1, 2), (0, 1))


def _oracle_constants(moment, n):
    """(volume, centroid, moment) of a region from an oracle moment."""
    volume = moment((0,) * n)
    centroid = tuple(moment(tuple(int(i == k) for i in range(n))) / volume for k in range(n))
    return volume, centroid, moment


# each system's public function, node placement and region moments, typed
# here again: (public function or None, nodes at the parameters, constants)
_DIRECT = {
    "triangle": (
        triangle_system,
        lambda a, b, c: ((a, 0), (0, b), (c, scalars.sub(1, c))),
        _oracle_constants(lambda alpha: iterated_simplex_moment(2, alpha), 2),
    ),
    "square": (
        square_system,
        lambda a, b, c, d: ((a, 0), (0, b), (c, 1), (1, d)),
        _oracle_constants(lambda alpha: iterated_cube_moment(2, alpha), 2),
    ),
    "trapezoid": (
        trapezoid_system,
        lambda a, b, c, d: ((a, 0), (0, b), (1, c), (d, scalars.add(d, 1))),
        _oracle_constants(lambda alpha: fan_polygon_moment(_TRAPEZOID_VERTICES, *alpha), 2),
    ),
    "simplex3": (
        None,
        lambda a1, a2, a3, a4, a5, a6, a7, a8: (
            (a1, a2, 0), (a3, 0, a4), (0, a5, a6),
            (a7, a8, scalars.sub(scalars.sub(1, a7), a8)),
        ),
        _oracle_constants(lambda alpha: iterated_simplex_moment(3, alpha), 3),
    ),
}
_SYSTEMS = {"triangle": families._TRIANGLE, "square": families._SQUARE,
            "trapezoid": families._TRAPEZOID, "simplex3": families._SIMPLEX3}


def _seeded_points(rng, count):
    """Parameter points: six rational, then two over each of Q(sqrt 2),
    Q(sqrt 3) and Q(sqrt 3893), every value of a point in one field."""
    points = [tuple(Fraction(rng.randint(-24, 24), rng.randint(1, 12)) for _ in range(count))
              for _ in range(6)]
    for d in (2, 3, 3893):
        points += [tuple(quad(Fraction(rng.randint(-24, 24), rng.randint(1, 12)),
                              Fraction(rng.randint(-6, 6), rng.randint(1, 12)), d)
                         for _ in range(count))
                   for _ in range(2)]
    return points


@pytest.mark.parametrize("name", sorted(_DIRECT))
def test_system_residuals_match_a_direct_sum(name):
    """Every residual of every system, at seeded rational and Q(sqrt d)
    points and lam in {0, 1, seeded rationals}, is the blend summed node
    by node minus the oracle moment, with the same scalar type."""
    system = _SYSTEMS[name]
    public, place, (volume, centroid, moment) = _DIRECT[name]
    rng = random.Random(3400 + len(name))
    count = {"triangle": 3, "simplex3": 8}.get(name, 4)
    for params in _seeded_points(rng, count):
        spread = place(*params)
        for lam in (Fraction(0), Fraction(1), Fraction(rng.randint(-9, 9), rng.randint(1, 9))):
            want = [direct_family_residual(lam, volume, centroid, spread, alpha, moment(alpha))
                    for alpha in system.alphas]
            got = system.residuals(params, lam)
            assert got.names == system.names
            assert repr(got.residuals) == repr(tuple(want)), (params, lam)
            if public is not None:
                assert public(*params, lam) == got
        if name == "simplex3":
            # the linear rows are 24*(T - moment), the raw residual at lam = 0
            lam = Fraction(rng.randint(-9, 9), 7)
            face = simplex3_face_system(params, lam).residuals
            at_zero = system.residuals(params, 0).residuals
            assert face[:3] == tuple(scalars.mul(24, r) for r in at_zero[:3])
            assert face[3:] == system.residuals(params, lam).residuals[3:]


@pytest.mark.parametrize("name", sorted(_DIRECT))
def test_one_row_pass_gives_the_blend_parameter_and_its_residuals(name):
    system = _SYSTEMS[name]
    rng = random.Random(3410 + len(name))
    count = {"triangle": 3, "simplex3": 8}.get(name, 4)
    for params in _seeded_points(rng, count):
        lam, res = system.lambda_and_residuals(params)
        want = system.blend_parameter(params)
        assert repr(lam) == repr(want)
        assert repr(res) == repr(system.residuals(params, want))
    # where M and T agree on every target, both refuse
    flat = families.BlendSystem(lambda: Cube(1), lambda a, b: ((a,), (b,)), [("x", (1,))])
    for call in (flat.blend_parameter, flat.lambda_and_residuals):
        with pytest.raises(DenominatorZero):
            call((0, 1))


def test_family_verification_is_the_member_substituted():
    rng = random.Random(3420)
    for value in _seeded_parameters()[::10] + [Fraction(rng.randint(-9, 9), 7) for _ in range(5)]:
        params, lam, _ = TRIANGLE.member(value)
        res = triangle_system(*params, lam)
        assert verify_triangle_family(value) == (res.all_zero, res)
        params, lam, _ = SQUARE.member(value)
        res = square_system(*params, lam)
        assert verify_square_family(value) == (res.all_zero, res)


def _boundary_value(rng, d):
    """A seeded value in [0, 1], rational or over Q(sqrt d)."""
    a = Fraction(rng.randint(0, 24), 24)
    if d is None:
        return a
    # |b sqrt(d)| <= 9/20 around a centre in [19/40, 21/40]
    b = Fraction(rng.randint(-9, 9), 20 * (isqrt(d) + 1))
    return quad(Fraction(rng.randint(19, 21), 40), b, d)


def test_solve_lambda_on_seeded_family_spreads_matches_the_two_rule_solve():
    """solve_lambda's outcome, witness and equations on seeded boundary
    spreads of the triangle and square systems, rational and over
    Q(sqrt d), family members among them, are those of the midpoint and
    boundary rules summed node by node."""
    rng = random.Random(3430)
    kinds = set()
    for region, family, count in ((Simplex(2), TRIANGLE, 3), (Cube(2), SQUARE, 4)):
        system = family.system
        targets_lists = [list(system.alphas), list(monomials_up_to(2, 3))]
        m = midpoint_rule(region)
        for d in (None, None, None, 2, 3, 3893):
            for _ in range(3):
                for params in ([_boundary_value(rng, d) for _ in range(count)],
                               family.member(_boundary_value(rng, d))[0]):
                    nodes = system.nodes(params)
                    t = boundary_rule(region, nodes)
                    for targets in targets_lists:
                        got = solve_lambda(region, nodes, targets)
                        want = two_rule_lambda(m, t, targets, region.moments(targets))
                        assert repr(got) == repr(want), (nodes, targets)
                        witness = getattr(got, "witness", "")
                        kinds.add((type(got).__name__, "irrational" in witness))
    assert kinds == {("UniqueSolution", False), ("Infeasible", False), ("Infeasible", True)}


# ------------------------------------------- integer rows against the oracles


def _oracle_rows(constants, spread, alphas):
    """(M - T, moment - T) at each target by the oracles: M and T summed
    node by node by scalar operators, the moment from an oracle."""
    volume, centroid, moment = constants
    share = scalars.div(volume, Fraction(len(spread)))
    rows = []
    for alpha in alphas:
        t = scalar_node_sum(spread, (share,) * len(spread), alpha)
        m = scalar_node_sum((centroid,), (volume,), alpha)
        rows.append((scalars.sub(m, t), scalars.sub(moment(alpha), t)))
    return rows


def _oracle_lambda_and_residuals(rows):
    """lam from the first row with a nonzero coef, None if there is none,
    and each residual lam*coef - rhs at it."""
    lam = next((scalars.div(rhs, coef) for coef, rhs in rows if not scalars.is_zero(coef)), None)
    if lam is None:
        return None
    return lam, tuple(scalars.sub(scalars.mul(lam, coef), rhs) for coef, rhs in rows)


def _scalar_rows_only(monkeypatch):
    """Make every row pass take the scalar rows, as when M, T and the
    moments share no one ring."""
    monkeypatch.setattr(rules, "_one_ring", lambda *rings: None)


def _row_cases(rng):
    """(system name, parameters): 24 members of each family, t outside
    [0, 1] among them, seeded ``family --point`` parameters of every
    system, and both CR5 branches over Q(sqrt 3893)."""
    cases = []
    for name in ("triangle", "square"):
        ts = [Fraction(rng.randint(-36, 48), 12) for _ in range(18)]
        assert sum(not 0 <= t <= 1 for t in ts) >= 5
        ts += [quad(Fraction(rng.randint(-12, 12), 8), Fraction(rng.randint(1, 9), 9), d)
               for d in (2, 3, 3893) for _ in range(2)]
        cases += [(name, families.FAMILIES[name].place(t, scalars.sub(1, t))) for t in ts]
    for name in sorted(_DIRECT):
        count = {"triangle": 3, "simplex3": 8}.get(name, 4)
        cases += [(name, params) for params in _seeded_points(rng, count)]
    return cases + [("trapezoid", cr5_parameters(conjugate)) for conjugate in (False, True)]


def test_integer_rows_give_the_oracle_rows_lambda_and_residuals(monkeypatch):
    """Each system's rows, lam and residuals, at family members, seeded
    points and CR5's two branches, are those composed from oracle moments
    and node sums, on the integer rows and on the scalar rows alike; a
    residual is zero exactly when its row agrees with lam's row."""
    rng = random.Random(4300)
    cases = _row_cases(rng)
    outcomes, rings = [], set()
    for name, params in cases:
        system = _SYSTEMS[name]
        _, place, constants = _DIRECT[name]
        want_rows = _oracle_rows(constants, place(*params), system.alphas)
        rows = list(system.rows(params))
        rings |= {row.d for row in rows}
        assert repr([row.scalars() for row in rows]) == repr(want_rows), (name, params)
        want = _oracle_lambda_and_residuals(want_rows)
        if want is None:
            with pytest.raises(DenominatorZero):
                system.lambda_and_residuals(params)
            outcomes.append(None)
            continue
        lam, res = system.lambda_and_residuals(params)
        assert repr((lam, res.residuals)) == repr(want), (name, params)
        by = next(row for row in rows if not row.coef_is_zero)
        assert [row.agrees(by) for row in rows] == [scalars.is_zero(r) for r in want[1]]
        outcomes.append((lam, res))
    _scalar_rows_only(monkeypatch)
    for (name, params), outcome in zip(cases, outcomes):
        rows = list(_SYSTEMS[name].rows(params))
        assert all(type(row) is rules.ScalarRow for row in rows)
        if outcome is not None:
            assert repr(_SYSTEMS[name].lambda_and_residuals(params)) == repr(outcome)
    solved = [res.all_zero for res in filter(None, (o and o[1] for o in outcomes))]
    # every family member and both CR5 branches solve; no seeded point does
    assert (len(cases), solved.count(True), solved.count(False)) == (98, 50, 48)
    assert {None, 2, 3, 3893} <= rings
    cr5_rows = [outcome for (name, params), outcome in zip(cases, outcomes)
                if params in (cr5_parameters(False), cr5_parameters(True))]
    assert [(lam, res.all_zero) for lam, res in cr5_rows] == [(CR5_LAMBDA, True)] * 2


def _spreads(region):
    """Boundary spreads of a region: a polygon's vertices and its edge
    midpoints, a cube's vertices, a simplex's vertices and face centres,
    the disc's axis points and four points on the circle."""
    if isinstance(region, UnitDisc):
        three_four = (Fraction(3, 5), Fraction(4, 5))
        return [rules.DISC_AXIS_POINTS,
                tuple((sx * x, sy * y) for x, y in (three_four, three_four[::-1])
                      for sx, sy in ((1, 1), (-1, -1)))]
    vertices = region.vertices()
    if isinstance(region, Polygon):
        midpoints = tuple(tuple(scalars.div(scalars.add(a, b), Fraction(2)) for a, b in zip(p, q))
                          for p, q in zip(vertices, vertices[1:] + vertices[:1]))
        return [vertices, midpoints]
    if isinstance(region, Simplex):
        return [vertices, rules._face_centers(region.dimension)]
    return [vertices]


def _oracle_moment(region):
    if isinstance(region, Polygon):
        return lambda alpha: fan_polygon_moment(region.vertex_list, *alpha)
    if isinstance(region, Simplex):
        return lambda alpha: iterated_simplex_moment(region.dimension, alpha)
    if isinstance(region, Cube):
        return lambda alpha: iterated_cube_moment(region.dimension, alpha)
    return lambda alpha: factorial_disc_moment(*alpha)


def test_solve_lambda_on_the_integer_rows_gives_the_oracle_outcomes(monkeypatch):
    """solve_lambda's outcome, witness and equations, over Q(sqrt d)
    hexagons, rational polygons, cube:3, simplex:3 and the disc, for
    seeded target sets, are those of the two rules summed node by node
    against oracle moments, and the scalar rows give them too."""
    rng = random.Random(4310)
    regions = [hexagon_paper(), Polygon(_sheared_hexagon(2)), Polygon(_sheared_hexagon(5)),
               trapezoid_paper(), Cube(3), Simplex(3), UnitDisc()]
    regions += [Polygon(_random_rational_polygon(rng)) for _ in range(3)]
    cases = []
    for region in regions:
        n = region.dimension
        for spread in _spreads(region):
            for degree in (1, 2, 3, 4) if n == 2 else (1, 2, 3):
                targets = list(monomials_up_to(n, degree))
                cases.append((region, spread, targets))
                cases.append((region, spread, rng.sample(targets, len(targets) - 1)))
    outcomes, kinds = [], set()
    for region, spread, targets in cases:
        moment = _oracle_moment(region)
        want = two_rule_lambda(midpoint_rule(region), boundary_rule(region, spread), targets,
                               [moment(alpha) for alpha in targets])
        got = solve_lambda(region, spread, targets)
        assert repr(got) == repr(want), (region, spread, targets)
        outcomes.append(got)
        witness = getattr(got, "witness", "")
        kinds.add((type(got).__name__, next(
            (kind for kind in ("irrational", "0*lam", "forces") if kind in witness), "")))
    assert kinds == {("UniqueSolution", ""), ("Underdetermined", ""), ("Infeasible", "forces"),
                     ("Infeasible", "irrational"), ("Infeasible", "0*lam")}
    assert len(cases) == 146
    _scalar_rows_only(monkeypatch)
    for (region, spread, targets), outcome in zip(cases, outcomes):
        assert repr(solve_lambda(region, spread, targets)) == repr(outcome)


def test_rows_without_one_ring_fall_back_to_the_scalar_rows():
    """On a Q(sqrt 3) triangle of rational area, spread nodes over
    Q(sqrt 2) in conjugate pairs give rational T sums: M, T and the
    moments have two radicands, so the rows are scalar rows, and they
    give the oracle's lam and residuals."""
    root3 = quad(0, 1, 3)
    vertices = ((0, 0), (root3, 0), (0, root3))
    s = quad(0, Fraction(1, 2), 2)
    system = families.BlendSystem(
        lambda: Polygon(vertices),
        lambda a, b: ((scalars.add(a, s), 0), (scalars.sub(a, s), 0), (b, 0)),
        [("x", (1, 0)), ("y", (0, 1)), ("x^2", (2, 0)), ("xy", (1, 1)), ("x^3", (3, 0))],
    )
    volume = system.form.volume
    assert volume == Fraction(3, 2)
    constants = (volume, system.form.centroid, lambda alpha: fan_polygon_moment(vertices, *alpha))
    for params in ((Fraction(1), Fraction(1, 2)), (Fraction(2, 3), Fraction(5, 4))):
        rows = list(system.rows(params))
        assert all(type(row) is rules.ScalarRow for row in rows)
        nodes = system.nodes(params)
        want_rows = _oracle_rows(constants, nodes, system.alphas)
        assert repr([row.scalars() for row in rows]) == repr(want_rows)
        assert repr(system.lambda_and_residuals(params)[0]) == repr(
            _oracle_lambda_and_residuals(want_rows)[0])
        lam = Fraction(3, 7)
        assert repr(system.residuals(params, lam).residuals) == repr(tuple(
            direct_family_residual(lam, volume, system.form.centroid, nodes, alpha,
                                   constants[2](alpha))
            for alpha in system.alphas))
    # pi times sqrt(2) is no scalar: on the disc, nodes over Q(sqrt 2) take
    # the scalar rows, which refuse as the oracle's sums do
    disc, h = UnitDisc(), quad(0, Fraction(1, 2), 2)
    spread = ((h, h), (h, scalars.neg(h)))
    for solve in (lambda: solve_lambda(disc, spread, [(1, 0), (2, 0)]),
                  lambda: two_rule_lambda(midpoint_rule(disc), boundary_rule(disc, spread),
                                          [(1, 0), (2, 0)], disc.moments([(1, 0), (2, 0)]))):
        with pytest.raises(IncompatibleScalars, match="pi times a sqrt value"):
            solve()


# ---------------------------------------------------------------- simplex3


def test_simplex3_face_centers_solution():
    res = simplex3_face_system((Fraction(1, 3),) * 8, Fraction(-4, 5))
    assert res.all_zero


def test_simplex3_face_rule_equals_cr2():
    rule = simplex3_face_rule((Fraction(1, 3),) * 8, Fraction(-4, 5))
    assert rules_equivalent(rule, cr2(3))


def test_simplex3_linear_violation():
    # a1 = a2 = 1/2 with the rest zero breaks a1 + a3 + a7 = 1 first
    res = simplex3_face_system(
        (HALF, HALF, 0, 0, 0, 0, 0, 0), Fraction(-4, 5)
    )
    assert res.residuals[0] == -HALF
    assert not res.all_zero


def test_simplex3_system_matches_rule_residuals():
    rng = random.Random(5)
    region = Simplex(3)
    quadratic = {"xy": (1, 1, 0), "xz": (1, 0, 1), "yz": (0, 1, 1),
                 "x^2": (2, 0, 0), "y^2": (0, 2, 0), "z^2": (0, 0, 2)}
    linear = {"x": (1, 0, 0), "y": (0, 1, 0), "z": (0, 0, 1)}

    def face_pair():
        # two coordinates of a point on a face: both >= 0, sum <= 1
        u = Fraction(rng.randint(0, 12), 12)
        return u, Fraction(rng.randint(0, 12 - int(u * 12)), 12)

    for _ in range(10):
        a = [v for _ in range(4) for v in face_pair()]
        lam = Fraction(rng.randint(-10, 10), rng.randint(1, 10))
        if lam == 1:
            lam = Fraction(1, 2)
        a1, a2, a3, a4, a5, a6, a7, a8 = a
        nodes = [(a1, a2, 0), (a3, 0, a4), (0, a5, a6), (a7, a8, 1 - a7 - a8)]
        rule = blend(lam, region, nodes)
        res = simplex3_face_system(a, lam).as_dict()
        assert list(res) == list(linear) + list(quadratic)
        for name, alpha in quadratic.items():
            assert scalars.eq(res[name], residual(rule, alpha)), (name, a, lam)
        for name, alpha in linear.items():
            raw = residual(rule, alpha)
            assert scalars.eq(res[name], raw * Fraction(24) / (1 - lam)), (name, a, lam)


def test_simplex3_vertex_search():
    solutions = simplex3_vertex_solutions()
    assert len(solutions) == 9
    vertices = {(0, 0, 0), (1, 0, 0), (0, 1, 0), (0, 0, 1)}
    for a in solutions:
        assert simplex3_face_system(a, Fraction(4, 5)).all_zero
        a1, a2, a3, a4, a5, a6, a7, a8 = a
        placed = {
            (a1, a2, Fraction(0)),
            (a3, Fraction(0), a4),
            (Fraction(0), a5, a6),
            (a7, a8, 1 - a7 - a8),
        }
        # every solution hits all four vertices exactly once
        assert placed == vertices
        rule = simplex3_face_rule(a, Fraction(4, 5))
        assert rules_equivalent(rule, cr1(3))


def test_pruned_vertex_search_returns_the_unpruned_search_in_order():
    assert simplex3_vertex_solutions() == unpruned_simplex3_vertex_solutions()


def test_vertex_search_sums_every_candidate_from_one_table(monkeypatch):
    """One NodeTable of the 12 candidate nodes; the system's M sums are
    kept from before."""
    assert families._SIMPLEX3.form.m_sums
    here, there = (_count(monkeypatch, module, "NodeTable") for module in (families, rules))
    solutions = simplex3_vertex_solutions()
    assert (len(here), len(there)) == (1, 0)
    assert len(here[0][0]) == 12
    monkeypatch.undo()
    assert solutions == unpruned_simplex3_vertex_solutions()


@pytest.mark.parametrize("field", ["rat", "quad"])
def test_generated_linear_rows_match_the_hand_rows(field):
    rng = random.Random(63 if field == "rat" else 64)
    for _ in range(16):
        d = rng.choice((2, 3, 5, 3893))

        def entry():
            a = Fraction(rng.randint(-12, 12), rng.randint(1, 12))
            if field == "quad" and rng.random() < 0.6:
                return quad(a, Fraction(rng.randint(-6, 6), rng.randint(1, 6)), d)
            return a

        a = [entry() for _ in range(8)]
        if rng.random() < 0.5:
            # put Q4 where the x row vanishes: a1 + a3 + a7 = 1
            a[6] = scalars.sub(scalars.sub(Fraction(1), a[0]), a[2])
        lam = Fraction(rng.randint(-10, 10), rng.randint(1, 10))
        if lam == 1:
            lam = Fraction(-1, 3)
        res = simplex3_face_system(a, lam)
        assert res.names[:3] == ("x", "y", "z")
        assert repr(res.residuals[:3]) == repr(simplex3_hand_linear_rows(a)), (a, lam)


# ---------------------------------------------------------- interpolation


def test_quadratic_matrix_determinant():
    _, det = interp_matrix_quadratic(HALF, HALF, HALF, HALF)
    assert det == Fraction(1, 16)
    _, det = interp_matrix_quadratic(1, 0, 0, 1)
    assert det == 0
    matrix, det = interp_matrix_quadratic(0, 0, 0, 0)
    assert det == permutation_det(matrix) == 0


def test_quadratic_matrix_against_permutation_oracle():
    rng = random.Random(17)
    for _ in range(6):
        vals = [Fraction(rng.randint(-6, 6), rng.randint(1, 6)) for _ in range(4)]
        matrix, det = interp_matrix_quadratic(*vals)
        assert scalars.eq(det, permutation_det(matrix))


def test_bilinear_matrix_determinants():
    _, det = interp_matrix_bilinear(HALF, HALF, HALF, HALF)
    assert det == 0
    _, det = interp_matrix_bilinear(1, 0, 0, 1)
    assert det == 0
    vals = (Fraction(1), Fraction(1), HALF, Fraction(1, 3))
    _, det = interp_matrix_bilinear(*vals)
    assert scalars.eq(det, bilinear_det_closed_form(*vals))


def test_bilinear_closed_form_matches_matrix():
    rng = random.Random(23)
    for _ in range(20):
        vals = [Fraction(rng.randint(-9, 9), rng.randint(1, 9)) for _ in range(4)]
        matrix, det = interp_matrix_bilinear(*vals)
        assert scalars.eq(det, bilinear_det_closed_form(*vals))
        assert scalars.eq(det, permutation_det(matrix))


def test_interpolation_matrices_hold_scalar_powers_over_q_and_quadratic_fields():
    """Each entry, read from one unit-weight node table, is the scalar power
    x^alpha(P); a pi parameter raises at the table."""
    rng = random.Random(2111)
    zero, one = Fraction(0), Fraction(1)
    for _ in range(60):
        d = rng.choice((None, 2, 3, 3893))

        def value():
            a = Fraction(rng.randint(-9, 9), rng.randint(1, 9))
            return scalars.quad(a, Fraction(rng.randint(-9, 9), rng.randint(1, 9)), d) if d else a

        a, b, c, e = (value() for _ in range(4))
        for (matrix, _), nodes, basis in (
            (interp_matrix_quadratic(a, b, c, e),
             ((a, zero), (zero, b), (c, one), (one, e), (HALF, HALF)), families.QUADRATIC_BASIS),
            (interp_matrix_bilinear(a, b, c, e),
             ((a, zero), (zero, b), (one, c), (e, one)), families.BILINEAR_BASIS),
        ):
            want = tuple(tuple(monomial_value(p, alpha) for alpha in basis) for p in nodes)
            assert matrix == want  # a Quad never equals a Fraction
    with pytest.raises(IncompatibleScalars):
        interp_matrix_bilinear(scalars.PiMultiple(1), 0, 0, 1)


def _random_matrix(rng, n, field):
    """Seeded n x n matrix over Q or Q(sqrt(3893)); about one in three has
    a zero leading column (forcing row swaps) and one in three has its
    last row a combination of the others (rank deficient)."""

    def entry():
        a = Fraction(rng.randint(-5, 5), rng.randint(1, 4))
        b = Fraction(rng.randint(-3, 3), rng.randint(1, 4)) if field == "quad" else 0
        return quad(a, b, 3893)

    m = [[entry() for _ in range(n)] for _ in range(n)]
    kind = rng.randrange(3)
    if kind == 1:
        for row in m[: rng.randint(1, n)]:
            row[0] = Fraction(0)
    elif kind == 2 and n > 1:
        s, t = Fraction(rng.randint(-3, 3)), Fraction(rng.randint(1, 3), 2)
        other = m[1 % (n - 1)]
        m[-1] = [scalars.add(scalars.mul(s, x), scalars.mul(t, y)) for x, y in zip(m[0], other)]
    return m


@pytest.mark.parametrize("field", ["rat", "quad"])
def test_exact_det_matches_permutation_oracle(field):
    rng = random.Random(41)
    zero_dets = 0
    for _ in range(30):
        m = _random_matrix(rng, rng.randint(1, 5), field)
        det = exact_det(m)
        assert scalars.eq(det, permutation_det(m)), m
        zero_dets += scalars.is_zero(det)
    assert zero_dets >= 5  # the singular cases really occur


def test_exact_det_rejects_non_square():
    with pytest.raises(ValueError):
        exact_det([[1, 2], [3, 4], [5, 6]])


@pytest.mark.parametrize("field", ["rat", "quad"])
def test_solve_linear_system_by_substitution(field):
    rng = random.Random(43)
    solved = singular = 0
    for _ in range(30):
        n = rng.randint(1, 5)
        m = _random_matrix(rng, n, field)
        rhs = [Fraction(rng.randint(-9, 9), rng.randint(1, 9)) for _ in range(n)]
        if scalars.is_zero(permutation_det(m)):
            with pytest.raises(SingularInterpolation):
                solve_linear_system(m, rhs)
            singular += 1
            continue
        x = solve_linear_system(m, rhs)
        for row, b in zip(m, rhs):
            total = Fraction(0)
            for coeff, value in zip(row, x):
                total = scalars.add(total, scalars.mul(coeff, value))
            assert scalars.eq(total, b)
        solved += 1
    assert solved >= 10 and singular >= 5


def test_interpolant_centroid_indicator_weight():
    for n in range(2, 5):
        region = Simplex(n)
        basis = [(0,) * n]
        basis += [tuple(1 if i == k else 0 for i in range(n)) for k in range(n)]
        basis.append(tuple(1 if i < 2 else 0 for i in range(n)))
        nodes = list(region.vertices()) + [region.centroid()]
        data = [Fraction(0)] * (n + 1) + [Fraction(1)]
        value = integrate_interpolant(region, basis, nodes, data)
        assert value == Fraction((n + 1) ** 2, factorial(n + 2))


def test_interpolant_reproduces_cr1_weights():
    for n in range(2, 5):
        region = Simplex(n)
        basis = [(0,) * n]
        basis += [tuple(1 if i == k else 0 for i in range(n)) for k in range(n)]
        basis.append(tuple(1 if i < 2 else 0 for i in range(n)))
        nodes = list(region.vertices()) + [region.centroid()]
        rule = cr1(n)
        for i, node in enumerate(nodes):
            data = [Fraction(1 if j == i else 0) for j in range(len(nodes))]
            value = integrate_interpolant(region, basis, nodes, data)
            weight = next(w for p, w in zip(rule.nodes, rule.weights) if p == node)
            assert value == weight


def test_interpolant_reproduces_midedge_weights():
    region = Simplex(2)
    basis = [(1, 1), (1, 0), (0, 1), (0, 0)]
    nodes = [(HALF, Fraction(0)), (Fraction(0), HALF), (HALF, HALF), (Fraction(1, 3), Fraction(1, 3))]
    rule = triangle_midedge()
    expected = [Fraction(1, 6), Fraction(1, 6), Fraction(1, 6), Fraction(0)]
    for i, want in enumerate(expected):
        data = [Fraction(1 if j == i else 0) for j in range(4)]
        assert integrate_interpolant(region, basis, nodes, data) == want
    assert rule.apply_poly(monomial((0, 0))) == Fraction(1, 2)


def test_interpolant_cube_center_weight():
    region = Cube(2)
    basis = [(2, 0), (0, 2), (1, 0), (0, 1), (0, 0)]
    nodes = [
        (HALF, Fraction(0)),
        (Fraction(0), HALF),
        (HALF, Fraction(1)),
        (Fraction(1), HALF),
        (HALF, HALF),
    ]
    data = [Fraction(0)] * 4 + [Fraction(1)]
    assert integrate_interpolant(region, basis, nodes, data) == Fraction(1, 3)


def test_interpolant_reproduces_cr4_weights():
    region = Cube(2)
    basis = [(2, 0), (0, 2), (1, 0), (0, 1), (0, 0)]
    nodes = [
        (HALF, Fraction(0)),
        (Fraction(0), HALF),
        (HALF, Fraction(1)),
        (Fraction(1), HALF),
        (HALF, HALF),
    ]
    rule = cr4()
    for i, node in enumerate(nodes):
        data = [Fraction(1 if j == i else 0) for j in range(5)]
        weight = next(w for p, w in zip(rule.nodes, rule.weights) if p == node)
        assert integrate_interpolant(region, basis, nodes, data) == weight


def test_singular_interpolation_raises():
    region = Cube(2)
    basis = [(1, 1), (1, 0), (0, 1), (0, 0)]
    nodes = [
        (HALF, Fraction(0)),
        (Fraction(0), HALF),
        (Fraction(1), HALF),
        (HALF, Fraction(1)),
    ]
    with pytest.raises(SingularInterpolation):
        integrate_interpolant(region, basis, nodes, [1, 0, 0, 0])


def test_interpolant_rejects_a_node_of_the_wrong_length():
    with pytest.raises(DimensionMismatch):
        integrate_interpolant(Simplex(2), [(0, 0)], [(0, 0, 0)], [1])


def _interpolation_case(rng, field):
    """(region, basis, nodes, data) of a seeded square system with 1..5
    unknowns: rational nodes on the triangle, the square or the 3-simplex
    ("rat"), rational and Q(sqrt 3) nodes on the paper's hexagon, whose
    moments are over Q(sqrt 3) ("quad"), or rational nodes on the disc's pi
    moments ("pi").  Coordinates come from a few values, so repeated and
    aligned nodes make some systems singular."""
    if field == "rat":
        region = rng.choice((Simplex(2), Cube(2), Simplex(3)))
    else:
        region = hexagon_paper() if field == "quad" else UnitDisc()
    n = region.dimension
    values = [Fraction(k, 6) for k in range(-3, 7)]

    def coordinate():
        c = rng.choice(values)
        if field == "quad" and rng.random() < 0.4:
            return quad(c, Fraction(rng.randint(-3, 3), 6), 3)
        return c

    size = rng.randint(1, 5)
    monomials = [alpha for alpha in itertools.product(range(4), repeat=n) if sum(alpha) <= 3]
    basis = rng.sample(monomials, size)
    nodes = [tuple(coordinate() for _ in range(n)) for _ in range(size)]
    data = [coordinate() for _ in range(size)]
    return region, basis, nodes, data


def _outcome(integrate, case):
    try:
        return repr(integrate(*case))
    except SimpsonNdError as exc:
        return type(exc), str(exc)


@pytest.mark.parametrize("field", ["rat", "quad", "pi"])
def test_interpolant_matches_the_solve_then_integrate_oracle(field):
    rng = random.Random({"rat": 71, "quad": 72, "pi": 73}[field])
    singular = 0
    for _ in range(40):
        case = _interpolation_case(rng, field)
        got = _outcome(integrate_interpolant, case)
        assert got == _outcome(solve_then_integrate_interpolant, case), case
        singular += got == (SingularInterpolation, "coefficient matrix is singular")
    assert 3 <= singular <= 35  # both kinds of system really occur


def test_interpolant_weights_are_one_solve(monkeypatch):
    calls = []
    solve = families.solve_weights
    monkeypatch.setattr(families, "solve_weights", lambda *a: calls.append(a) or solve(*a))
    region = Cube(2)
    nodes = [(HALF, Fraction(0)), (Fraction(0), HALF), (HALF, Fraction(1)), (Fraction(1), HALF),
             (HALF, HALF)]
    weights = families._interpolatory_weights(region, families.QUADRATIC_BASIS, nodes)
    assert len(calls) == 1
    rule = cr4()
    assert weights == tuple(next(w for p, w in zip(rule.nodes, rule.weights) if p == q)
                            for q in nodes)


def test_interpolant_refuses_a_system_past_the_denominator_limit():
    # x^40 at x = 2^-20 is 2^-800, and the moment of x^40 is 1/41: the row's
    # common denominator 2^800 * 41 has 806 bits
    case = (Cube(2), [(40, 0)], [(Fraction(1, 2**20), Fraction(0))], [1])
    assert solve_then_integrate_interpolant(*case) == Fraction(2**800, 41)
    with pytest.raises(WorkLimit, match="common denominator of 806 bits"):
        integrate_interpolant(*case)


def test_interpolant_refuses_a_system_past_the_elimination_work_limit():
    # 1, x, .., x^7 at eight integers of about 3,300 bits: a nonsingular
    # Vandermonde system estimated at about 10^10 word operations
    big = 10**1000
    nodes = [(big * k + 1, Fraction(0)) for k in range(1, 9)]
    basis = [(j, 0) for j in range(8)]
    with pytest.raises(WorkLimit, match="word operations"):
        integrate_interpolant(Cube(2), basis, nodes, [1] * 8)


def test_linear_interpolant_matches_vertex_rule():
    # fitting {1, x1..xn} at the vertices and integrating is the vertex rule
    rng = random.Random(31)
    for n in (2, 3):
        region = Simplex(n)
        basis = [(0,) * n] + [
            tuple(1 if i == k else 0 for i in range(n)) for k in range(n)
        ]
        nodes = list(region.vertices())
        for _ in range(5):
            terms = {
                tuple(1 if i == k else 0 for i in range(n)): Fraction(
                    rng.randint(-9, 9), rng.randint(1, 9)
                )
                for k in range(n)
            }
            terms[(0,) * n] = Fraction(rng.randint(-9, 9), rng.randint(1, 9))
            from simpson_nd.rules import MonomialPoly

            poly = MonomialPoly(n, terms)
            data = [poly.evaluate(p) for p in nodes]
            fitted = integrate_interpolant(region, basis, nodes, data)
            assert scalars.eq(fitted, vertex_rule(region).apply_poly(poly))
            # and the midpoint rule integrates degree-1 data exactly
            assert scalars.eq(
                midpoint_rule(region).apply_poly(poly), _integral(region, poly)
            )


def _integral(region, poly):
    total = Fraction(0)
    for alpha, coeff in poly.terms.items():
        total += coeff * region.moment(alpha)
    return total


def test_rational_roots_helper():
    # (2x - 1)(x + 3) = 2x^2 + 5x - 3
    assert rational_roots((Fraction(-3), Fraction(5), Fraction(2))) == {
        Fraction(1, 2),
        Fraction(-3),
    }
    assert rational_roots((Fraction(0), Fraction(0), Fraction(1))) == {Fraction(0)}
    assert rational_roots((Fraction(1), Fraction(0), Fraction(1))) == set()


@pytest.mark.parametrize(
    "coefficients, message",
    [
        ((720720, 0, 0, 720720), "57600 divisor pairs; the limit is 10000"),
        ((735134400, 0, 0, 735134400), "divisor pairs; the limit is 10000"),
        ((10**12 + 1, 0, 1), "end coefficient 1000000000001 is above the limit"),
        # the limit applies after clearing denominators: 2 * ((10^12 + 1)/2 + x^2/2)
        ((Fraction(10**12 + 1, 2), 0, Fraction(1, 2)), "end coefficient 1000000000001"),
        # 1587600 = 1260^2 has 225 divisors, its square root counted once
        ((1587600, 0, 0, 1587600), "50625 divisor pairs; the limit is 10000"),
    ],
)
def test_rational_roots_refuses_costly_divisor_searches(coefficients, message):
    with pytest.raises(WorkLimit, match=message):
        rational_roots(tuple(Fraction(c) for c in coefficients))


def test_rational_roots_just_inside_its_limits():
    # x^2 - 10^12: one end coefficient at the limit, 169 divisor pairs
    assert rational_roots((Fraction(-(10**12)), Fraction(0), Fraction(1))) == {
        Fraction(10**6),
        Fraction(-(10**6)),
    }


def test_rational_roots_admit_exactly_the_divisor_pair_limit():
    # 162000 = 2^4 * 3^4 * 5^3 has 5 * 5 * 4 = 100 divisors, so
    # 162000 x^3 - 162000 tries 100 * 100 pairs, the limit
    assert families.MAX_DIVISOR_PAIRS == 100 * 100
    ends = (Fraction(-162000), Fraction(0), Fraction(0), Fraction(162000))
    assert rational_roots(ends) == {Fraction(1)}
    # twice the low end has 6 * 5 * 4 = 120 divisors: 12000 pairs
    with pytest.raises(WorkLimit, match="12000 divisor pairs; the limit is 10000"):
        rational_roots((2 * ends[0],) + ends[1:])


# Refusals of the family systems and interpolation: (call, error, message)
REFUSALS = {
    "seven face parameters": (
        lambda: simplex3_face_system([Fraction(1, 3)] * 7, Fraction(1, 2)), ValueError,
        r"^need exactly eight face parameters$",
    ),
    "interpolant of unequal lengths": (
        lambda: integrate_interpolant(Simplex(2), [(0, 0), (1, 0)], [(0, 0)], [1, 2]),
        ValueError, r"^basis, nodes, and data must have equal length$",
    ),
    "roots of the zero polynomial": (
        lambda: rational_roots([0, 0]), ValueError, r"^zero polynomial has every root$",
    ),
}


@pytest.mark.parametrize("case", sorted(REFUSALS))
def test_refusals(case):
    call, error, message = REFUSALS[case]
    with pytest.raises(error, match=message):
        call()
