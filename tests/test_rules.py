import hashlib
import json
import math
import random
from collections import Counter
from fractions import Fraction
from math import factorial

import pytest

from oracles import float_rule_sum, monomial_value, scalar_node_sum
from test_regions import _random_rational_polygon
from simpson_nd import cli, families, rules, scalars
from simpson_nd.errors import (
    DimensionMismatch,
    IncompatibleScalars,
    NodeNotOnBoundary,
    NodeOutsideRegion,
    WorkLimit,
)
from simpson_nd.exactness import monomials_of_degree, monomials_up_to, solve_lambda
from simpson_nd.regions import Cube, Polygon, Simplex, UnitDisc, hexagon_paper, trapezoid_paper
from simpson_nd.rules import (
    CubatureRule,
    MonomialPoly,
    NodeTable,
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
    named_rule,
    rule_from_json,
    rule_to_json,
    rules_equivalent,
    triangle_midedge,
    vertex_rule,
)
from simpson_nd.scalars import PiMultiple, Quad, quad, to_float

ALL_NAMED = lambda: [
    cr1(2),
    cr1(4),
    cr2(2),
    cr2(3),
    cr3(1),
    cr3(3),
    cr4(),
    cr5(),
    cr5_conjugate(),
    cr6(),
    triangle_midedge(),
]


def test_midpoint_rule_examples():
    for n in (1, 2, 5):
        r = midpoint_rule(Simplex(n))
        assert r.nodes == ((Fraction(1, n + 1),) * n,)
        assert r.weights == (Fraction(1, factorial(n)),)
    t = midpoint_rule(trapezoid_paper())
    assert t.nodes == ((Fraction(5, 9), Fraction(7, 9)),)
    assert t.weights == (Fraction(3, 2),)
    d = midpoint_rule(UnitDisc())
    assert d.nodes == ((0, 0),)
    assert d.weights == (PiMultiple(1),)


@pytest.mark.parametrize("region", [
    Simplex(1), Simplex(4), Cube(1), Cube(3), UnitDisc(), trapezoid_paper(), hexagon_paper(),
    Polygon(_random_rational_polygon(random.Random(62))),
], ids=["simplex1", "simplex4", "cube1", "cube3", "disc", "trapezoid", "hexagon", "polygon"])
def test_midpoint_rule_takes_one_moment_batch(monkeypatch, region):
    batches = []
    cls = type(region)
    original = cls.moments

    def counted(self, alphas):
        batches.append(list(alphas))
        return original(self, alphas)

    monkeypatch.setattr(cls, "moments", counted)
    rule = midpoint_rule(region)
    n = region.dimension
    # a simplex and a cube give their centroid in closed form, without first moments
    units = [tuple(int(i == k) for i in range(n)) for k in range(n)]
    assert batches == [[(0,) * n] + ([] if isinstance(region, (Simplex, Cube)) else units)]
    monkeypatch.undo()
    assert repr(rule.nodes) == repr((region.centroid(),))
    assert repr(rule.weights) == repr((region.volume(),))
    if isinstance(region, Polygon):
        # the one batch built the moment triangle through degree 1 only
        assert set(vars(region)) == {"vertex_list", "_triangle"}
        assert region._triangle.degree == 1


def test_vertex_rule_examples():
    for n in (1, 3):
        r = vertex_rule(Simplex(n))
        assert set(r.weights) == {Fraction(1, factorial(n + 1))}
        assert len(r.nodes) == n + 1
    for n in (1, 2, 4):
        r = vertex_rule(Cube(n))
        assert set(r.weights) == {Fraction(1, 2**n)}
    t = vertex_rule(trapezoid_paper())
    assert set(t.weights) == {Fraction(3, 8)}
    assert len(t.nodes) == 4


def test_boundary_rule():
    a, b, c = Fraction(1, 4), Fraction(2, 3), Fraction(1, 5)
    r = boundary_rule(Simplex(2), [(a, 0), (0, b), (c, 1 - c)])
    assert set(r.weights) == {Fraction(1, 6)}
    r = boundary_rule(Cube(2), [(a, 0), (0, b), (c, 1), (1, b)])
    assert set(r.weights) == {Fraction(1, 4)}
    with pytest.raises(NodeNotOnBoundary):
        boundary_rule(Simplex(2), [(Fraction(1, 4), Fraction(1, 4))])
    # the first node off the boundary, in list order, is the one named
    inner, outer = (Fraction(1, 4), Fraction(1, 4)), (Fraction(1), Fraction(1))
    with pytest.raises(NodeNotOnBoundary) as error:
        boundary_rule(Simplex(2), [(a, Fraction(0)), inner, outer])
    assert str(error.value) == f"node {inner} is not on the region boundary"


@pytest.mark.parametrize("build, refused", [
    (lambda: blend(1, Cube(2), []), False),
    (lambda: blend(Fraction(1, 2), Cube(2), []), True),
    (lambda: boundary_rule(Cube(2), []), True),
    (lambda: solve_lambda(Cube(2), [], [(1, 0)]), True),
], ids=["blend-1", "blend-half", "boundary_rule", "solve_lambda"])
def test_an_empty_spread_is_a_domain_error_but_at_lam_1(build, refused):
    """T needs a node; M, the blend at lam = 1, goes without one."""
    if not refused:
        rule = build()
        assert (rule.nodes, rule.weights) == (((Fraction(1, 2),) * 2,), (Fraction(1),))
        return
    with pytest.raises(ValueError, match="the spread T needs at least one boundary node"):
        build()


def test_rule_constructor_rejects_outside_nodes():
    with pytest.raises(NodeOutsideRegion):
        CubatureRule(Simplex(2), ((Fraction(3, 4), Fraction(3, 4)),), (Fraction(1),))
    with pytest.raises(DimensionMismatch):
        CubatureRule(Simplex(2), ((Fraction(1, 4),),), (Fraction(1),))
    # the first offending node, in list order, names the error
    inside, outside, short = (Fraction(1, 4),) * 2, (Fraction(3, 4),) * 2, (Fraction(1, 4),)
    with pytest.raises(NodeOutsideRegion) as error:
        CubatureRule(Simplex(2), (inside, outside, short, (2, 2)), (1,) * 4)
    assert str(error.value) == f"node {outside} lies outside the region"
    with pytest.raises(DimensionMismatch) as error:
        CubatureRule(Simplex(2), (inside, short, outside), (1,) * 3)
    assert str(error.value) == f"node {short} does not match region dimension 2"


def test_blend_takes_lam_as_an_exact_scalar():
    region = Cube(2)
    for lam in (0.5, "1/2", True):
        with pytest.raises(TypeError):
            blend(lam, region, region.vertices())
    assert blend(1, region, region.vertices()) == blend(Fraction(1), region, region.vertices())


def test_blend_degenerate_cases():
    region = Cube(2)
    m, t = midpoint_rule(region), vertex_rule(region)
    assert blend(1, region, region.vertices()).nodes == m.nodes
    assert blend(0, region, region.vertices()).nodes == t.nodes
    r = blend(Fraction(2, 3), region, region.vertices())
    assert r.weights[0] == Fraction(2, 3)
    assert set(r.weights[1:]) == {Fraction(1, 12)}


@pytest.mark.parametrize("lam", [Fraction(1, 2), Fraction(0)])
def test_blend_checks_the_centroid_even_when_its_weight_is_zero(lam):
    # a C-shaped polygon whose centroid falls in the notch
    c_shape = Polygon([(0, 0), (3, 0), (3, 1), (1, 1), (1, 2), (3, 2), (3, 3), (0, 3)])
    centroid = (Fraction(19, 14), Fraction(3, 2))
    with pytest.raises(NodeOutsideRegion) as error:
        blend(lam, c_shape, c_shape.vertices())
    assert str(error.value) == f"node {centroid} lies outside the region"


def test_blend_names_the_first_spread_node_off_the_boundary():
    h, zero = Fraction(1, 2), Fraction(0)
    inner, outer = (Fraction(1, 4), Fraction(1, 4)), (Fraction(1), Fraction(1))
    with pytest.raises(NodeNotOnBoundary) as error:
        blend(Fraction(1, 3), Simplex(2), [(h, zero), inner, outer])
    assert str(error.value) == f"node {inner} is not on the region boundary"


def test_cr1_weights():
    for n in range(1, 7):
        r = cr1(n)
        assert r.weights[0] == Fraction(n + 1, (n + 2) * factorial(n))
        assert set(r.weights[1:]) == {Fraction(1, factorial(n + 2))}
    assert cr1(2).weights == (Fraction(3, 8),) + (Fraction(1, 24),) * 3


def test_cr2_weights():
    r = cr2(3)
    assert r.weights[0] == Fraction(-2, 15)
    assert set(r.weights[1:]) == {Fraction(3, 40)}
    # n = 2: zero center weight drops out, leaving the midedge rule
    assert rules_equivalent(cr2(2), triangle_midedge())
    for n in range(3, 6):
        assert scalars.sign(cr2(n).weights[0]) < 0


def test_cr3_is_simpson_for_n1():
    r = cr3(1)
    pairs = sorted(zip(r.nodes, r.weights), key=lambda nw: nw[0][0])
    assert pairs == [
        ((Fraction(0),), Fraction(1, 6)),
        ((Fraction(1, 2),), Fraction(2, 3)),
        ((Fraction(1),), Fraction(1, 6)),
    ]


def test_cr3_weights():
    for n in (2, 4):
        r = cr3(n)
        assert r.weights[0] == Fraction(2, 3)
        assert set(r.weights[1:]) == {Fraction(1, 3 * 2**n)}


def test_cr5_constants():
    r = cr5()
    s = 3893
    expected_nodes = {
        (Fraction(5, 9), Fraction(7, 9)),
        (quad(Fraction(11, 18), Fraction(-1, 458), s), Fraction(0)),
        (Fraction(1), quad(1, Fraction(-10, 2061), s)),
        (Fraction(0), quad(Fraction(1, 2), Fraction(11, 4122), s)),
        (
            quad(Fraction(11, 18), Fraction(1, 458), s),
            quad(Fraction(29, 18), Fraction(1, 458), s),
        ),
    }
    assert set(r.nodes) == expected_nodes
    assert r.weights[0] == Fraction(163, 392) * Fraction(3, 2)
    assert set(r.weights[1:]) == {(1 - Fraction(163, 392)) * Fraction(3, 8)}


def test_cr6_weights():
    r = cr6()
    assert r.weights == (
        PiMultiple(Fraction(1, 2)),
        PiMultiple(Fraction(1, 8)),
        PiMultiple(Fraction(1, 8)),
        PiMultiple(Fraction(1, 8)),
        PiMultiple(Fraction(1, 8)),
    )


def test_named_rule_dispatch():
    assert named_rule("cr1", 3).label == "CR1(3)"
    assert named_rule("CR4").label == "CR4"
    assert named_rule("TriangleMidedge").label == "TriangleMidedge"
    assert named_rule("CR5*").label == "CR5*"
    with pytest.raises(ValueError):
        named_rule("CR1")
    with pytest.raises(ValueError):
        named_rule("CR9")
    # a fixed rule takes its own dimension only
    assert named_rule("CR6", 2) == named_rule("CR6")
    with pytest.raises(ValueError, match=r"rule CR5\* has dimension 2, not 3"):
        named_rule("CR5*", 3)


def test_weight_sum_equals_volume():
    for rule in ALL_NAMED():
        assert scalars.eq(rule.weight_sum(), rule.region.volume()), rule.label


def test_all_nodes_inside_region():
    for rule in ALL_NAMED():
        for node in rule.nodes:
            assert rule.region.contains(node), (rule.label, node)


def test_cr4_locates_each_node_list_with_one_call(monkeypatch):
    located, built = [], []
    locate, post_init = Cube.locate, CubatureRule.__post_init__

    def counted_locate(self, points):
        located.append(len(points))
        return locate(self, points)

    def counted_post_init(self):
        built.append(len(self.nodes))
        post_init(self)

    monkeypatch.setattr(Cube, "locate", counted_locate)
    monkeypatch.setattr(CubatureRule, "__post_init__", counted_post_init)
    rule = cr4()
    # blend checks the centroid and the midedges in one call, and its rule
    # does not check them again
    assert built == []
    assert located == [5]
    assert rule == CubatureRule(rule.region, rule.nodes, rule.weights, rule.label)
    assert built == [5]
    assert located == [5, 5]


_BUILDS = {
    **{f"{name}({n})": (lambda b=builder, n=n: b(n))
       for name, builder in (("CR1", cr1), ("CR2", cr2), ("CR3", cr3)) for n in (2, 5, 12)},
    **{name: (lambda name=name: named_rule(name))
       for name in ("CR4", "CR5", "CR5*", "CR6", "TriangleMidedge")},
    "triangle family": lambda: families.FAMILIES["triangle"].rule(Fraction(1, 3)),
    "square family": lambda: families.FAMILIES["square"].rule(Fraction(1, 5)),
    "simplex3_face_rule": lambda: families.simplex3_face_rule((Fraction(1, 3),) * 8, Fraction(-4, 5)),
    "boundary_rule(CR5 nodes)": lambda: boundary_rule(
        trapezoid_paper(), rules._cr5_boundary_nodes(False)),
    "boundary_rule(disc)": lambda: boundary_rule(UnitDisc(), rules.DISC_AXIS_POINTS),
    "boundary_rule(cube:5)": lambda: boundary_rule(Cube(5), Cube(5).vertices()),
}


def _count_region_calls(monkeypatch) -> Counter:
    """Count each region's moments, volume and locate calls, and every rule
    made, checked or not."""
    calls = Counter()

    def counted(name, original):
        def wrapper(*args):
            calls[name] += 1
            return original(*args)
        return wrapper

    for cls in (Simplex, Cube, Polygon, UnitDisc):
        for name in ("moments", "volume", "locate"):
            monkeypatch.setattr(cls, name, counted(name, getattr(cls, name)))
    monkeypatch.setattr(CubatureRule, "__post_init__",
                        counted("rule", CubatureRule.__post_init__))
    monkeypatch.setattr(rules, "_located_rule", counted("rule", rules._located_rule))
    return calls


@pytest.mark.parametrize("build", list(_BUILDS.values()), ids=list(_BUILDS))
def test_a_build_asks_its_region_once_and_makes_one_rule(monkeypatch, build):
    # a family rule reads its system's cached form: start each build without one
    for system in (families._TRIANGLE, families._SQUARE, families._SIMPLEX3):
        monkeypatch.delitem(system.__dict__, "form", raising=False)
    calls = _count_region_calls(monkeypatch)
    rule = build()
    assert calls == {"moments": 1, "locate": 1, "rule": 1}
    # the one locate call checked what the constructor checks
    assert rule == CubatureRule(rule.region, rule.nodes, rule.weights, rule.label)


_SOLVES = {
    "cube:3": (Cube(3), Cube(3).vertices(), 3),
    "simplex:3": (Simplex(3), Simplex(3).vertices(), 1),
    "trapezoid": (trapezoid_paper(), trapezoid_paper().vertices(), 2),
    "hexagon": (hexagon_paper(), hexagon_paper().vertices(), 2),
    "disc": (UnitDisc(), rules.DISC_AXIS_POINTS, 4),
}


@pytest.mark.parametrize("region, spread, degree", list(_SOLVES.values()), ids=list(_SOLVES))
def test_a_lambda_solve_asks_its_region_once_and_makes_no_rule(monkeypatch, region, spread, degree):
    calls = _count_region_calls(monkeypatch)
    targets = list(monomials_up_to(region.dimension, degree))
    solve_lambda(region, spread, targets)
    assert calls == {"moments": 1, "locate": 1}


@pytest.mark.parametrize("mode", ["lambda", "weights"])
@pytest.mark.parametrize("region", ["cube:3", "simplex:3", "trapezoid-paper", "hexagon-paper", "disc"])
def test_a_derive_request_asks_its_region_once_and_makes_no_rule(monkeypatch, capsys, region, mode):
    calls = _count_region_calls(monkeypatch)
    assert cli.run(["derive", "--region", region, "--targets", "deg2", "--mode", mode]) == 0
    capsys.readouterr()
    assert calls == {"moments": 1, "locate": 1}


# sha256 of repr((label, nodes, weights)): node order feeds every float sum
NODE_ORDER_SHA256 = {
    "CR1(1)": "768a406956ec5e1798a4f43e129f596b4e0d686430c27d31558381c1ed3b1354",
    "CR3(1)": "3f4adee1ec902f7b94728f430f6b1151a4b8baeef9ed781cd056f3ad7123fe93",
    "CR1(2)": "3471b27057037bf37f15bd62bae5ab9a8656f48d7186256723ec708a41a2914d",
    "CR3(2)": "d7b6588e558d6dd1bd73944e634b2deedb1ac2475412e705cdc36a6d99c4b04b",
    "CR1(3)": "189ff6664232cedda98fab2a17e8e31eca2e3e1e3ef46a4289bb19baa4b51863",
    "CR3(3)": "0d3775d86299af9ca808a98244694e3920844c09d30d45a901a41ea09b5562d3",
    "CR1(4)": "7873cbbac281d45e521bba0bf8f53490f4ba447b3eb49f4434c852130ff71336",
    "CR3(4)": "e6f6d7733f098034f6d1df658c2da33600f36985881f1ea9522476795000220d",
    "CR1(5)": "f22ca3e47097dc6e5e8d847858a863b331d7f48f93c481f22f86f75889f2471c",
    "CR3(5)": "c33b387b8e4de7c8ee9e58e612293bf90091a18b78a288ddd88438bb153c6da4",
    "CR1(6)": "a7adbd0a2f4fa729fd281c03ad24957b5d77d3e516aa17f0435f1242bc297c90",
    "CR3(6)": "38eb74317a0a81ac29663b3ad3b9354a8a9bf03ea2c73036e48ba87d234a075f",
    "CR1(7)": "21ca4ddf35422ccfe395ba50fa0458c876fc3b53164a9c3f87c872c055d05403",
    "CR3(7)": "5c3769c0e8a76fa6dfd1c5120fda6d027b409e9053bc5b43c77b115e014d140e",
    "CR1(8)": "bc9e74475d2c42b68fc8acfd90a591684df85f83d9719899aebbf58fc1c92837",
    "CR3(8)": "8e2931d27ccc9452610b8c530d65c76744d2095f559efa2e6ec0b03875c1072f",
    "CR1(9)": "66888b4343b826984745a6c205d6aad0c57e30c8868692e4250f9f98d99daa51",
    "CR3(9)": "00fae4b1914a1d5de7a43447d78fb409338996a26b8eb6c98d1b4f38da6a50b6",
    "CR1(10)": "e50210f3bbff41a5dd15e3888344f545c2da6a567176df3f794b5e4bf6116721",
    "CR3(10)": "bed9f7dfe468913d74585063aacd9a8819c45d78fb5bfee9a967e86185e804ca",
    "CR1(11)": "0e4010053cc002853b10768ced109dc4a2fff3d81987ac3a5aa43ea1cf477c4e",
    "CR3(11)": "3f17f62503613799090487502dd28598ca49398e9690fa92423f504e5a10fb1d",
    "CR1(12)": "63e65840478b04ed99070637eec8372286f69550a8256944a34593c58dd3fb86",
    "CR3(12)": "4a701bfc15f2249899cf687f6732148756a986a0937e860911a9483d375e8731",
    "CR2(2)": "5e59446103969ad57695c248a081a56b5ff02d25f1d6c7eb0482de15e7c3070c",
    "CR2(3)": "0d425c791c8be9ac8113395bd99ad2c5667751421553da4c67d8f93fbae02ab2",
    "CR2(4)": "39878aaf1d9c0ad0d2fe0acd8ea2bc15060d5d81b8b10415253a828b6869c01c",
    "CR2(5)": "b84d18660eb33ee887e882b96cf5131ef2597d8102581e9e077c13d7f645b973",
    "CR2(6)": "8f8d7bbeb7ec686179f9f6072990f9516ef0fcd041025d531aff51fdbe7cffe1",
    "CR2(7)": "61b57e54913c80bfe8b63217635666537900be4b20e98eecec113926fdac07e5",
    "CR2(8)": "28ea9eb18b52c39aba41c33728f9d4d3d13c1de360e58ef18666b5b4010bc0cd",
    "CR2(9)": "340b20b6f084dc50b30f56fcb2cecaeaf8d5c5609547860ab0517440d265bd28",
    "CR2(10)": "235d7098db001189664d716f74d6af0adac35a5447eb0bd9aeef04a967e55ed7",
    "CR2(11)": "fdda8ec50dd71166c04461713404f1eca5fcd3388ff5766bda35fb16f4d56221",
    "CR2(12)": "3775313f274ad2e682015d54bf2980c97a4e098badbfeda774dfc8060b4424b7",
    "CR4": "17c2525b18610c12a4c643b71ba7af83edbdbeac3aa01bc316ef82356030d30a",
    "CR5": "0d4ac45e11e86e266cc88ed452c78baf5a0db8c6d6769a10daf35c85a4a3a8de",
    "CR5*": "e8732706eb5291defb1e13408a26f5f398839a051f87d84e8d97846c1130ff7b",
    "CR6": "fbe15092a5ec0855de2add02d7cebf3be541c0885b8b7792b3def9f0dcf1687c",
    "TriangleMidedge": "e909f9df18a79ffb19915054ece932ea6c042ceb01d2e0df64a15b080b79c388",
}


def test_named_rules_keep_their_node_order():
    rules_by_label = [cr1(n) for n in range(1, 13)] + [cr3(n) for n in range(1, 13)]
    rules_by_label += [cr2(n) for n in range(2, 13)]
    rules_by_label += [named_rule(name) for name in ("CR4", "CR5", "CR5*", "CR6", "TriangleMidedge")]
    got = {
        rule.label: hashlib.sha256(repr((rule.label, rule.nodes, rule.weights)).encode()).hexdigest()
        for rule in rules_by_label
    }
    assert got == NODE_ORDER_SHA256


def test_apply_poly_examples():
    assert cr3(2).apply_poly(monomial((2, 0))) == Fraction(1, 3)
    assert triangle_midedge().apply_poly(monomial((3, 0))) == Fraction(1, 24)
    assert cr6().apply_poly(monomial((4, 0))) == PiMultiple(Fraction(1, 4))


def test_blend_is_affine_in_lambda():
    rng = random.Random(7)
    region = Cube(2)
    m, t = midpoint_rule(region), vertex_rule(region)
    for _ in range(25):
        lam = Fraction(rng.randint(-12, 12), rng.randint(1, 12))
        terms = {
            (rng.randint(0, 3), rng.randint(0, 3)): Fraction(
                rng.randint(-9, 9), rng.randint(1, 9)
            )
            for _ in range(4)
        }
        poly = MonomialPoly(2, terms)
        mixed = blend(lam, region, region.vertices()).apply_poly(poly)
        direct = lam * m.apply_poly(poly) + (1 - lam) * t.apply_poly(poly)
        assert mixed == direct


def test_apply_fn_matches_apply_poly():
    poly = MonomialPoly(2, {(2, 1): Fraction(3, 7), (0, 0): Fraction(-1, 3)})
    for rule in [cr4(), cr5(), cr6(), triangle_midedge()]:
        exact = to_float(rule.apply_poly(poly))
        approx = float_rule_sum(rule, lambda x, y: 3 / 7 * x**2 * y - 1 / 3)
        assert math.isclose(exact, approx, rel_tol=1e-12, abs_tol=1e-12)


def test_apply_fn_examples():
    assert math.isclose(float_rule_sum(cr4(), lambda x, y: x * y), 0.25, rel_tol=1e-15)
    assert math.isclose(float_rule_sum(cr6(), lambda x, y: 1.0), math.pi, rel_tol=1e-15)
    estimate = float_rule_sum(cr1(2), lambda x, y: math.exp(x + y))
    assert abs(estimate - 1.0) < 0.02  # exact integral over the triangle is 1


def _random_rules(rng):
    """Seeded rules with random exact weights: on random rational polygons
    (nodes at the vertices and the centroid), on simplices and cubes (nodes
    at the vertices), and on the disc (nodes on the axes, pi weights)."""
    def weight():
        value = Fraction(rng.randint(-50, 50), rng.randint(1, 50))
        if rng.random() < 0.5:
            return value
        b = Fraction(rng.randint(1, 9), rng.randint(1, 9))
        return quad(value, b, rng.choice((2, 3, 3893)))

    out = []
    for _ in range(10):
        region = Polygon(_random_rational_polygon(rng))
        nodes = region.vertices() + (region.centroid(),)
        out.append(CubatureRule(region, nodes, [weight() for _ in nodes], label="polygon"))
    for _ in range(5):
        n = rng.randint(1, 6)
        region = rng.choice((Simplex, Cube))(n)
        nodes = region.vertices()
        out.append(CubatureRule(region, nodes, [weight() for _ in nodes]))
    axes = ((1, 0), (0, 1), (-1, 0), (0, -1))
    out.append(
        CubatureRule(UnitDisc(), axes, [PiMultiple(Fraction(rng.randint(1, 9), 4)) for _ in axes])
    )
    return out


def test_rule_json_round_trip_bit_exact():
    for rule in [cr5(), cr6(), cr1(3)] + _random_rules(random.Random(709)):
        blob = json.dumps(rule_to_json(rule))
        again = rule_from_json(json.loads(blob))
        assert again.region == rule.region
        assert again.nodes == rule.nodes
        assert again.weights == rule.weights
        assert again.label == rule.label


@pytest.mark.parametrize(
    "blob, message",
    [
        ({}, "keys region, nodes and weights"),
        ([], "keys region, nodes and weights"),
        ({"region": {"simplex": 2}, "nodes": 5, "weights": []}, "list of coordinate lists"),
        ({"region": {"simplex": 2}, "nodes": [5], "weights": [5]}, "list of coordinate lists"),
        ({"region": {"simplex": 2}, "nodes": [], "weights": 5}, "weights must be a list"),
        (
            {"region": {"simplex": 1}, "nodes": [[{"rat": ["0", "1"]}]],
             "weights": [{"rat": ["1", "1"]}], "label": 7},
            "label must be a string",
        ),
    ],
)
def test_rule_from_json_rejects_malformed_shapes(blob, message):
    with pytest.raises(ValueError, match=message):
        rule_from_json(blob)


def test_monomial_poly_validation():
    with pytest.raises(DimensionMismatch):
        MonomialPoly(2, {(1, 1, 1): Fraction(1)})
    p = MonomialPoly(2, {(1, 0): Fraction(0)})
    assert p.terms == {}
    assert p == MonomialPoly(2) and hash(p) == hash(MonomialPoly(2))
    assert p != MonomialPoly(3) and _XY != MonomialPoly(2, {(1, 1): 2}) and _XY != {(1, 1): 1}
    assert repr(_XY) == "MonomialPoly(2, {(1, 1): Fraction(1, 1)})"
    with pytest.raises(DimensionMismatch):
        cr4().apply_poly(MonomialPoly(3, {(1, 1, 1): Fraction(1)}))


def test_evaluate_rejects_a_point_of_the_wrong_length():
    with pytest.raises(DimensionMismatch):
        MonomialPoly(2, {(1, 0): Fraction(1)}).evaluate((0, 0, 0))


def test_evaluate_is_the_sum_of_scalar_powers_over_q_and_quadratic_fields():
    """A one-node table with a unit weight gives the scalar sum of
    c * x^alpha(P), type included; a pi coordinate raises at the table."""
    rng = random.Random(2112)
    for _ in range(200):
        d = rng.choice((None, 2, 3, 3893))
        n = rng.randint(1, 4)
        point = tuple(quad(a, _random_fraction(rng), d) if d else a
                      for a in (_random_fraction(rng) for _ in range(n)))
        terms = {tuple(rng.randint(0, 4) for _ in range(n)): _random_fraction(rng)
                 for _ in range(rng.randint(0, 5))}
        poly = MonomialPoly(n, terms)
        want = Fraction(0)
        for alpha, coeff in poly.terms.items():
            want = scalars.add(want, scalars.mul(coeff, monomial_value(point, alpha)))
        got = poly.evaluate(point)
        assert (type(got), got) == (type(want), want)
    with pytest.raises(IncompatibleScalars):
        MonomialPoly(2, {(1, 0): Fraction(1)}).evaluate((PiMultiple(1), Fraction(0)))


@pytest.mark.parametrize("builder, region", [(cr1, "Simplex"), (cr2, "Simplex"), (cr3, "Cube")])
def test_rule_dimension_limit_refuses_before_any_node_is_built(monkeypatch, builder, region):
    def reached(*args):
        raise AssertionError("the region was built")

    monkeypatch.setattr(rules, region, reached)
    with pytest.raises(WorkLimit, match="above the limit"):
        builder(rules.MAX_RULE_DIMENSION + 1)
    # the largest admitted dimension, 12 or more, goes on to build its region
    assert rules.MAX_RULE_DIMENSION >= 12
    with pytest.raises(AssertionError, match="the region was built"):
        builder(rules.MAX_RULE_DIMENSION)


def test_vertex_rule_disc_has_no_vertices():
    from simpson_nd.errors import NoVertices

    with pytest.raises(NoVertices):
        vertex_rule(UnitDisc())


def test_boundary_rule_on_circle():
    r = boundary_rule(UnitDisc(), [(1, 0), (0, 1), (-1, 0), (0, -1)])
    assert r.weights == (PiMultiple(Fraction(1, 4)),) * 4
    with pytest.raises(NodeNotOnBoundary):
        boundary_rule(UnitDisc(), [(Fraction(1, 2), 0)])


def _random_fraction(rng):
    if rng.random() < 0.2:
        return Fraction(0)
    return Fraction(rng.randint(-40, 40), rng.choice((1, 2, 3, 7, 12, 35, 1001)))


def test_integer_node_table_matches_scalar_sums_on_random_rules():
    rng = random.Random(20261018)
    for _ in range(200):
        n = rng.randint(1, 4)
        count = rng.randint(1, 6)
        nodes = [tuple(_random_fraction(rng) for _ in range(n)) for _ in range(count)]
        weights = [_random_fraction(rng) for _ in range(count)]
        table = NodeTable(nodes, weights)
        assert table.columns is not None
        for _ in range(5):
            alpha = tuple(rng.randint(0, 4) for _ in range(n))
            expected = scalar_node_sum(nodes, weights, alpha)
            assert table.sum(alpha) == expected
            assert NodeTable(nodes, weights).sum(alpha) == expected


def test_quad_and_pi_rules_sum_over_the_integer_view():
    # CR5 and CR5* over Z[sqrt 3893]; CR6 with pi factored out of its weights
    for rule, d, pi in ((cr5(), 3893, False), (cr5_conjugate(), 3893, False), (cr6(), None, True)):
        table = NodeTable(rule.nodes, rule.weights)
        assert (table.radicand, table.pi) == (d, pi)
        kinds = {type(x) for column in table.columns + (table.scaled_weights,) for x in column}
        assert kinds == ({tuple} if d else {int})
        for degree in range(7):
            for alpha in monomials_of_degree(2, degree):
                got, want = table.sum(alpha), scalar_node_sum(rule.nodes, rule.weights, alpha)
                assert (type(got), got) == (type(want), want)


def _random_field_table(rng, d):
    """Nodes mixing rational and a + b*sqrt(d) coordinates, and weights
    that are rational, in Q(sqrt d) or all pi multiples."""
    def value(quadratic):
        a = _random_fraction(rng)
        return quad(a, _random_fraction(rng) or 1, d) if quadratic and rng.random() < 0.5 else a

    n = rng.randint(1, 3)
    nodes = [tuple(value(True) for _ in range(n)) for _ in range(rng.randint(1, 6))]
    kind = rng.choice(("rational", "quad", "pi"))
    if kind == "pi":
        weights = [PiMultiple(_random_fraction(rng)) for _ in nodes]
    else:
        weights = [value(kind == "quad") for _ in nodes]
    return nodes, weights


def _sum_or_error(nodes, weights, alpha):
    try:
        return NodeTable(nodes, weights).sum(alpha)
    except IncompatibleScalars:
        return IncompatibleScalars


def test_node_tables_over_quadratic_fields_match_scalar_sums_and_conjugate():
    rng = random.Random(16_3893)
    compared = conjugated = 0
    for _ in range(300):
        d = rng.choice((2, 3, 5, 3893))
        nodes, weights = _random_field_table(rng, d)
        conj_nodes = [tuple(scalars.conj(c) for c in p) for p in nodes]
        conj_weights = [scalars.conj(w) for w in weights]
        for _ in range(4):
            alpha = tuple(rng.randint(0, 4) for _ in nodes[0])
            got = _sum_or_error(nodes, weights, alpha)
            try:
                want = scalar_node_sum(nodes, weights, alpha)
            except IncompatibleScalars:
                pass  # a nonzero pi weight times a sqrt value: no oracle
            else:
                assert (type(got), got) == (type(want), want), (nodes, weights, alpha)
                compared += 1
            mirrored = _sum_or_error(conj_nodes, conj_weights, alpha)
            if got is IncompatibleScalars:
                assert mirrored is IncompatibleScalars
            else:
                assert (type(mirrored), mirrored) == (type(got), scalars.conj(got))
                conjugated += isinstance(got, Quad)
    assert compared >= 800 and conjugated >= 500


def test_node_tables_refuse_mixed_pi_weights_pi_coordinates_and_ragged_nodes():
    rng = random.Random(1616)
    for _ in range(100):
        d = rng.choice((2, 3, 5, 3893))
        nodes, weights = _random_field_table(rng, d)
        alpha = (1,) * len(nodes[0])
        pi = PiMultiple(Fraction(rng.randint(1, 9), rng.randint(1, 9)))
        j = rng.randrange(len(nodes))
        if len(nodes) > 1:
            mixed = list(weights)
            mixed[j], mixed[j - 1] = pi, Fraction(rng.randint(1, 9))
            with pytest.raises(IncompatibleScalars):
                NodeTable(nodes, mixed).sum(alpha)
        with_pi = nodes[:j] + [(pi,) + nodes[j][1:]] + nodes[j + 1:]
        with pytest.raises(IncompatibleScalars):
            NodeTable(with_pi, weights).sum(alpha)
        ragged = nodes + [nodes[0] + (Fraction(1),)]
        with pytest.raises(DimensionMismatch):
            NodeTable(ragged, weights + weights[:1]).sum(alpha)


@pytest.mark.parametrize("build", [lambda: cr3(2), cr4, cr5, cr6])
def test_node_table_refuses_a_wrong_length_multi_index(build):
    rule = build()
    table = NodeTable(rule.nodes, rule.weights)
    for alpha in ((1,), (1, 0, 0)):
        with pytest.raises(DimensionMismatch):
            table.sum(alpha)
        with pytest.raises(DimensionMismatch):
            NodeTable(rule.nodes, rule.weights).sum(alpha)
    with pytest.raises(ValueError, match="non-negative"):
        table.sum((1, -1))


_X = MonomialPoly(1, {(1,): Fraction(1)})
_XY = MonomialPoly(2, {(1, 1): Fraction(1)})

# Refusals of polynomials and rules: (call, error, message)
REFUSALS = {
    "dimension 0": (lambda: MonomialPoly(0), ValueError, r"^polynomial dimension must be >= 1$"),
    "negative exponent": (
        lambda: MonomialPoly(2, {(1, -1): Fraction(1)}), ValueError,
        r"^negative exponent in \(1, -1\)$",
    ),
    "sum of mixed dimensions": (
        lambda: _X + _XY, DimensionMismatch, r"^cannot add polynomials of different dimension$",
    ),
    "product of mixed dimensions": (
        lambda: _XY * _X, DimensionMismatch,
        r"^cannot multiply polynomials of different dimension$",
    ),
    "negative power": (lambda: _X ** -1, ValueError, r"^exponent must be non-negative$"),
    "a polynomial set after it is made": (
        lambda: setattr(_X, "terms", {}), AttributeError, r"^MonomialPoly values are immutable$",
    ),
    "a polynomial's terms deleted": (
        lambda: delattr(_X, "terms"), AttributeError, r"^MonomialPoly values are immutable$",
    ),
    "rule with no nodes": (
        lambda: CubatureRule(Simplex(2), (), ()), ValueError,
        r"^rule needs equally many nodes and weights, at least one$",
    ),
}


@pytest.mark.parametrize("case", sorted(REFUSALS))
def test_refusals(case):
    call, error, message = REFUSALS[case]
    with pytest.raises(error, match=message):
        call()


def test_a_rules_table_is_the_table_of_its_nodes_and_weights():
    """A rule builds its table from its own nodes and weights, on first
    use: the midedge rule is the blend at lam = 0, so the centroid's 1/3
    is dropped with its node and D is the midpoints' 2."""
    midedge = triangle_midedge()
    assert "table" not in vars(midedge)
    assert midedge.table.denominator == 2 and midedge.table.columns == ([1, 0, 1], [0, 1, 1])
