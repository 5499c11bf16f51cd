import json
import math
import random
from fractions import Fraction

import pytest

from oracles import (
    binomial,
    disc_moment_numeric,
    factorial_disc_moment,
    fan_polygon_moment,
    iterated_cube_moment,
    iterated_simplex_moment,
)
from simpson_nd import regions, scalars
from simpson_nd.errors import DimensionMismatch, IncompatibleScalars, NoVertices, WorkLimit
from simpson_nd.exactness import monomials_up_to
from simpson_nd.regions import (
    Cube,
    Polygon,
    Region,
    Simplex,
    UnitDisc,
    hexagon_paper,
    integrate_terms,
    region_from_json,
    region_to_json,
    trapezoid_paper,
)
from simpson_nd.rules import blend, boundary_rule, midpoint_rule
from simpson_nd.scalars import PiMultiple, quad, to_float


def test_volumes():
    assert Simplex(3).volume() == Fraction(1, 6)
    assert Cube(5).volume() == 1
    assert trapezoid_paper().volume() == Fraction(3, 2)
    assert UnitDisc().volume() == PiMultiple(1)
    assert hexagon_paper().volume() == quad(4, 2, 3)
    # the simple neighbours of two polygons test_polygon_rejects_bad_input refuses
    assert Polygon(_notched_square(scalars.sub(2, _TINY))).volume() == scalars.add(2, _TINY)
    assert Polygon(_needle_square(scalars.sub(Fraction(1, 2), _TINY))).volume() == (
        scalars.add(1, _TINY)
    )


def test_centroids():
    assert Simplex(2).centroid() == (Fraction(1, 3), Fraction(1, 3))
    assert trapezoid_paper().centroid() == (Fraction(5, 9), Fraction(7, 9))
    assert hexagon_paper().centroid() == (0, 0)
    assert Cube(3).centroid() == (Fraction(1, 2),) * 3
    assert UnitDisc().centroid() == (0, 0)


def _closed_forms():
    """(region, volume, centroid) as each region wrote them before volume
    and centroid came from its moments."""
    for n in range(1, 13):
        yield Simplex(n), Fraction(1, math.factorial(n)), (Fraction(1, n + 1),) * n
        yield Cube(n), Fraction(1), (Fraction(1, 2),) * n
    yield UnitDisc(), PiMultiple(1), (Fraction(0), Fraction(0))
    yield trapezoid_paper(), Fraction(3, 2), (Fraction(5, 9), Fraction(7, 9))
    yield hexagon_paper(), quad(4, 2, 3), (Fraction(0), Fraction(0))


def test_volume_centroid_and_midpoint_keep_their_closed_form_reprs():
    for region, volume, centroid in _closed_forms():
        rule = midpoint_rule(region)
        assert repr(region.volume()) == repr(volume), region
        assert repr(region.centroid()) == repr(centroid), region
        assert repr(region.mass()) == repr((volume, centroid)), region
        assert repr(rule.nodes) == repr((centroid,)), region
        assert repr(rule.weights) == repr((volume,)), region


def test_regions_share_one_base():
    # each region has one moment routine, and the base class turns its pairs
    # into scalars; benchmarks/tracing.py wraps moment and contains through
    # Class.__dict__; locate hands back a plain list of signs
    for region in (Simplex(2), Cube(2), trapezoid_paper(), UnitDisc()):
        cls = type(region)
        assert issubclass(cls, Region)
        assert {"_moment_view", "moment", "contains"} <= set(vars(cls)), cls
        assert vars(cls)["moment"] is Region.moment, cls
        assert not {"moments", "volume", "centroid"} & set(vars(cls)), cls
        signs = region.locate([(Fraction(1, 4), Fraction(1, 4)), (Fraction(2), Fraction(0))])
        assert type(signs) is list and signs == [1, -1], cls
    assert "__init__" in vars(Polygon)
    assert Region.__slots__ == ()
    polygon = trapezoid_paper()
    polygon.mass()
    assert vars(polygon) == {"vertex_list": polygon.vertex_list}


def test_integrate_terms_asks_for_one_moment_batch(monkeypatch):
    calls = []
    original = Polygon.moments

    def counted(self, alphas):
        calls.append(list(alphas))
        return original(self, alphas)

    polygon = hexagon_paper()
    terms = [((2, 0), Fraction(3)), ((0, 0), Fraction(-1, 2)), ((1, 3), Fraction(5)),
             ((0, 4), Fraction(7, 3))]
    expected = Fraction(0)
    for alpha, coeff in terms:
        expected = scalars.add(expected, scalars.mul(coeff, polygon.moment(alpha)))
    monkeypatch.setattr(Polygon, "moments", counted)
    assert integrate_terms(polygon, iter(terms)) == expected
    assert calls == [[alpha for alpha, _ in terms]]
    assert integrate_terms(polygon, []) == 0


def test_simplex_moment_facts():
    for n in range(1, 7):
        s = Simplex(n)
        for k in range(n):
            unit = tuple(1 if i == k else 0 for i in range(n))
            assert s.moment(unit) == Fraction(1, math.factorial(n + 1))
            two = tuple(2 if i == k else 0 for i in range(n))
            assert s.moment(two) == Fraction(2, math.factorial(n + 2))
        if n >= 2:
            mixed = (1, 1) + (0,) * (n - 2)
            assert s.moment(mixed) == Fraction(1, math.factorial(n + 2))
        if n >= 3:
            triple = (1, 1, 1) + (0,) * (n - 3)
            assert s.moment(triple) == Fraction(1, math.factorial(n + 3))


def test_cube_moment_product():
    assert Cube(4).moment((2, 0, 0, 0)) == Fraction(1, 3)
    assert Cube(2).moment((3, 1)) == Fraction(1, 8)
    assert Cube(3).moment((1, 2, 3)) == Fraction(1, 2) * Fraction(1, 3) * Fraction(1, 4)


def test_hexagon_moments():
    h = hexagon_paper()
    assert h.moment((2, 0)) == quad(Fraction(16, 3), 3, 3)
    assert h.moment((0, 2)) == quad(Fraction(4, 3), Fraction(1, 3), 3)
    for alpha in [(1, 0), (0, 1), (3, 0), (0, 3), (1, 1), (2, 1), (1, 2)]:
        assert scalars.is_zero(h.moment(alpha)), alpha


def test_trapezoid_moments():
    t = trapezoid_paper()
    assert t.moment((1, 0)) == Fraction(5, 6)
    assert t.moment((0, 1)) == Fraction(7, 6)
    assert t.moment((1, 1)) == Fraction(17, 24)
    assert t.moment((2, 0)) == Fraction(7, 12)
    assert t.moment((0, 2)) == Fraction(5, 4)
    assert t.moment((3, 0)) == Fraction(9, 20)


def test_disc_moments():
    d = UnitDisc()
    assert d.moment((4, 0)) == PiMultiple(Fraction(1, 8))
    assert d.moment((0, 4)) == PiMultiple(Fraction(1, 8))
    assert d.moment((2, 0)) == PiMultiple(Fraction(1, 4))
    assert d.moment((2, 2)) == PiMultiple(Fraction(1, 24))
    assert d.moment((3, 1)) == PiMultiple(0)
    # moments keep the pi tag even at zero so disc tables stay uniform
    assert isinstance(d.moment((1, 0)), PiMultiple)


def test_disc_moment_closed_form_matches_the_factorial_cases():
    disc = UnitDisc()
    for m in range(41):
        for n in range(41):
            assert disc.moment((m, n)) == factorial_disc_moment(m, n), (m, n)


def test_disc_moment_against_polar_quadrature():
    d = UnitDisc()
    for m, n in [(4, 0), (2, 2), (6, 0), (0, 2), (2, 4)]:
        exact = to_float(d.moment((m, n)))
        assert abs(exact - disc_moment_numeric(m, n)) < 1e-10


def test_vertices():
    assert Simplex(2).vertices() == ((0, 0), (1, 0), (0, 1))
    assert Cube(2).vertices() == ((0, 0), (0, 1), (1, 0), (1, 1))
    assert len(Cube(4).vertices()) == 16
    with pytest.raises(NoVertices):
        UnitDisc().vertices()


def test_dimension_mismatch():
    with pytest.raises(DimensionMismatch):
        Simplex(2).moment((1, 1, 1))
    with pytest.raises(DimensionMismatch):
        Cube(3).moment((1, 1))


@pytest.mark.parametrize("region", [Simplex(2), Cube(3), trapezoid_paper(), UnitDisc()],
                         ids=["simplex", "cube", "polygon", "disc"])
@pytest.mark.parametrize("extra", [-1, 1], ids=["short", "long"])
def test_a_point_of_another_length_raises(region, extra):
    n = region.dimension
    bad = (Fraction(1, 2),) * (n + extra)
    good = (Fraction(0),) * n
    message = f"point {bad} does not match region dimension {n}"
    for check in (lambda: region.locate([good, bad, good]), lambda: region.contains(bad),
                  lambda: region.on_boundary(bad)):
        with pytest.raises(DimensionMismatch) as error:
            check()
        assert str(error.value) == message
    for build in (lambda: blend(Fraction(1, 2), region, [bad]),
                  lambda: boundary_rule(region, [bad])):
        with pytest.raises(DimensionMismatch):
            build()


def test_moment_batches():
    for region in [Simplex(3), Cube(2), trapezoid_paper(), hexagon_paper(), UnitDisc()]:
        assert region.moments(()) == ()
        alphas = list(monomials_up_to(region.dimension, 4))
        alphas += alphas[::3]
        assert region.moments(alphas) == tuple(map(region.moment, alphas)), region
        for bad, error in [((1,) * (region.dimension + 1), DimensionMismatch),
                           ((0,) * (region.dimension - 1) + (-1,), ValueError)]:
            for at in (0, len(alphas)):
                with pytest.raises(error):
                    region.moments(alphas[:at] + [bad] + alphas[at:])


def test_zero_index_moment_is_volume():
    for region in [Simplex(3), Cube(2), trapezoid_paper(), hexagon_paper(), UnitDisc()]:
        zero = (0,) * region.dimension
        assert scalars.eq(region.moment(zero), region.volume())


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_simplex_moments_match_iterated_integration(n):
    s = Simplex(n)
    for alpha in monomials_up_to(n, 4):
        assert s.moment(alpha) == iterated_simplex_moment(n, alpha), alpha


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_cube_moments_match_iterated_integration(n):
    c = Cube(n)
    for alpha in monomials_up_to(n, 4):
        assert c.moment(alpha) == iterated_cube_moment(n, alpha), alpha


def test_polygon_triangle_equals_simplex2():
    tri = Polygon([(0, 0), (1, 0), (0, 1)])
    s2 = Simplex(2)
    for alpha in monomials_up_to(2, 4):
        assert tri.moment(alpha) == s2.moment(alpha), alpha


def test_polygon_translation_covariance():
    base = trapezoid_paper()
    shifted = Polygon([(1, 1), (2, 1), (2, 3), (1, 2)])
    for p, q in monomials_up_to(2, 3):
        expected = Fraction(0)
        for i in range(p + 1):
            for j in range(q + 1):
                expected += binomial(p, i) * binomial(q, j) * base.moment((i, j))
        assert shifted.moment((p, q)) == expected, (p, q)


def test_polygon_orientation_normalized():
    cw = Polygon([(0, 0), (0, 1), (1, 2), (1, 0)])  # clockwise input
    assert cw.volume() == Fraction(3, 2)
    # stored order is the reversal, i.e. counterclockwise
    assert cw.vertices() == ((1, 0), (1, 2), (0, 1), (0, 0))


# p/q - sqrt(2) with p^2 - 2 q^2 = 1, about 3.5e-20: its sign rests on the
# exact comparison of p^2 with 2 q^2, and in floats p/q equals sqrt(2)
_TINY = quad(Fraction(4478554083, 3166815962), -1, 2)


def _notched_square(tip_x):
    """The square [0, 2]^2 with a notch from its left side whose tip sits at
    (tip_x, 1): simple while tip_x < 2, crossing the right side past it."""
    return [(0, 0), (2, 0), (2, 2), (0, 2), (tip_x, 1)]


def _needle_square(x_back):
    """The unit square with a needle up to (1/2, 3) from (1/2, 1) on its top
    side, coming back to (x_back, 1): a thin simple needle while
    x_back < 1/2, back over its own foot past it."""
    half = Fraction(1, 2)
    return [(0, 0), (1, 0), (1, 1), (half, 1), (half, 3), (x_back, 1), (0, 1)]


def test_polygon_rejects_bad_input():
    with pytest.raises(ValueError):
        Polygon([(0, 0), (1, 0)])
    with pytest.raises(ValueError):
        Polygon([(0, 0), (1, 1), (2, 2)])  # collinear, zero area
    # the published vertex listing order self-intersects
    with pytest.raises(ValueError):
        Polygon([(0, 0), (1, 0), (0, 1), (1, 2)])
    # a crossing and a near-collinear needle, each past the line by _TINY
    with pytest.raises(ValueError, match="must be simple"):
        Polygon(_notched_square(scalars.add(2, _TINY)))
    with pytest.raises(ValueError, match="must be simple"):
        Polygon(_needle_square(scalars.add(Fraction(1, 2), _TINY)))
    for pi_value in (PiMultiple(1), PiMultiple(0)):
        with pytest.raises(ValueError, match="polygon coordinates must be rational or a"):
            Polygon([(pi_value, 0), (0, 1), (0, 0)])
    with pytest.raises(IncompatibleScalars):
        Polygon([(quad(1, 1, 2), 0), (0, quad(1, 1, 3)), (0, 0)])


def test_polygon_membership():
    t = trapezoid_paper()
    assert t.contains((Fraction(1, 2), Fraction(1, 2)))
    assert t.contains((0, 0))
    assert t.on_boundary((Fraction(1, 2), 0))
    assert t.on_boundary((Fraction(1, 2), Fraction(3, 2)))  # on y = x + 1
    assert not t.contains((Fraction(1, 2), Fraction(8, 5)))
    assert not t.contains((2, 0))
    hexagon = hexagon_paper()
    assert hexagon.contains((0, 0))
    assert hexagon.on_boundary((quad(1, 1, 3), 0))
    assert not hexagon.contains((3, 0))
    # the midpoint of the edge from (1 + sqrt 3, 0) to (1, 1)
    assert hexagon.on_boundary((quad(1, Fraction(1, 2), 3), Fraction(1, 2)))
    assert hexagon.contains((quad(1, Fraction(1, 2), 3), Fraction(1, 2)))
    # that edge crosses y = 1/2 at 1 + sqrt(3)/2; 1351/780 and 989/571
    # straddle sqrt 3 by under 2e-6
    half = Fraction(1, 2)
    assert not hexagon.contains((1 + Fraction(1351, 1560), half))
    assert hexagon.contains((1 + Fraction(989, 1142), half))
    assert not hexagon.on_boundary((1 + Fraction(989, 1142), half))
    # a second radicand, or pi, has no place in the hexagon's integer view
    with pytest.raises(IncompatibleScalars):
        hexagon.contains((quad(0, 1, 2), 0))
    with pytest.raises(IncompatibleScalars):
        hexagon.contains((PiMultiple(0), half))


def test_simplex_and_cube_membership():
    s = Simplex(3)
    assert s.contains((Fraction(1, 4), Fraction(1, 4), Fraction(1, 4)))
    assert s.on_boundary((Fraction(1, 2), Fraction(1, 2), 0))
    assert not s.contains((Fraction(1, 2), Fraction(1, 2), Fraction(1, 2)))
    c = Cube(2)
    assert c.on_boundary((Fraction(1, 2), 1))
    assert not c.contains((Fraction(3, 2), 0))


def test_disc_membership_with_quad_coordinates():
    d = UnitDisc()
    inv = quad(0, Fraction(1, 2), 2)  # sqrt(2)/2
    assert d.on_boundary((inv, inv))
    assert d.contains((Fraction(1, 2), Fraction(1, 2)))
    assert not d.contains((1, 1))


def _coordinate(rng, d, lo, hi):
    """A rational in [lo, hi] over a small denominator plus, over Q(sqrt d),
    a small sqrt part."""
    den = rng.randint(1, 12)
    a = Fraction(rng.randint(math.floor(lo * den), math.ceil(hi * den)), den)
    if d is None:
        return a
    return scalars.add(a, quad(0, Fraction(rng.randint(-3, 3), rng.randint(4, 40)), d))


def _membership_cases():
    """(region, points) lists for the oracle test, each over one radicand:
    points spread about the region, and points exactly on its faces,
    edges, vertices or circle, with near misses beside the edges."""
    rng = random.Random(1993)
    one = Fraction(1)
    for n in range(1, 6):
        for d in (None, 2, 3893):
            points = [tuple(scalars.div(_coordinate(rng, d, -0.25, 1.25), n) for _ in range(n))
                      for _ in range(20)]
            for point in points[:10]:
                face = list(point)
                face[rng.randrange(n)] = 0
                points.append(tuple(face))
                # on (or past) the face sum x = 1
                points.append(point[:-1] + (scalars.sub(one, sum(point[:-1], Fraction(0))),))
            points += Simplex(n).vertices()
            yield Simplex(n), points
    for n in range(1, 5):
        for d in (None, 3, 3893):
            points = [tuple(_coordinate(rng, d, -0.25, 1.25) for _ in range(n)) for _ in range(20)]
            for point in points[:12]:
                face = list(point)
                face[rng.randrange(n)] = rng.choice((0, one))
                points.append(tuple(face))
            points += Cube(n).vertices()
            yield Cube(n), points
    for d in (None, 2, 3):
        points = [(_coordinate(rng, d, -1.25, 1.25), _coordinate(rng, d, -1.25, 1.25))
                  for _ in range(20)]
        for _ in range(10):
            # (1 - t^2, 2t) / (1 + t^2) lies on the circle
            t = _coordinate(rng, d, -2, 2)
            den = scalars.add(one, scalars.mul(t, t))
            points.append((scalars.div(scalars.sub(one, scalars.mul(t, t)), den),
                           scalars.div(scalars.mul(2, t), den)))
        yield UnitDisc(), points + [(1, 0), (0, -1), (0, 0)]
    polygons = [(trapezoid_paper(), (None, 3893)), (hexagon_paper(), (None, 3))]
    polygons += [(Polygon(_random_rational_polygon(rng)), (None,)) for _ in range(3)]
    polygons += [(Polygon(_random_quad_polygon(rng, d)), (None, d)) for d in (2, 3893)]
    for polygon, fields in polygons:
        verts = polygon.vertex_list
        xs = [to_float(x) for x, _ in verts]
        ys = [to_float(y) for _, y in verts]
        for d in fields:
            points = [(_coordinate(rng, d, min(xs) - 0.5, max(xs) + 0.5),
                       _coordinate(rng, d, min(ys) - 0.5, max(ys) + 0.5)) for _ in range(20)]
            for a, b in zip(verts, verts[1:] + verts[:1]):
                t = Fraction(rng.randint(0, 8), 8)
                on = tuple(scalars.add(p, scalars.mul(t, scalars.sub(q, p))) for p, q in zip(a, b))
                nudge = Fraction(rng.choice((-1, 1)), 1000)
                points += [on, (on[0], scalars.add(on[1], nudge))]
            yield polygon, points + list(verts)


def test_locate_contains_and_on_boundary_match_the_scalar_oracle():
    from oracles import scalar_locate

    seen = {}
    for region, points in _membership_cases():
        want = [scalar_locate(region, point) for point in points]
        assert region.locate(points) == want, region
        for point, sign in zip(points, want):
            assert region.contains(point) == (sign >= 0), (region, point)
            assert region.on_boundary(point) == (sign == 0), (region, point)
        seen.setdefault(type(region), set()).update(want)
    assert seen == {cls: {-1, 0, 1} for cls in (Simplex, Cube, UnitDisc, Polygon)}


@pytest.mark.parametrize("region", [Simplex(2), Cube(2), UnitDisc(), trapezoid_paper()])
def test_membership_refuses_a_pi_coordinate(region):
    # PiMultiple(0) included: a cube or simplex once compared it as 0
    for value in (PiMultiple(0), PiMultiple(1)):
        point = (value, Fraction(1, 2))
        for ask in (region.contains, region.on_boundary, lambda p: region.locate([p])):
            with pytest.raises(IncompatibleScalars, match="pi multiple"):
                ask(point)


def test_region_json_round_trip():
    regions = [Simplex(4), Cube(2), trapezoid_paper(), hexagon_paper(), UnitDisc()]
    rng = random.Random(708)
    regions += [Simplex(rng.randint(1, 12)) for _ in range(5)]
    regions += [Cube(rng.randint(1, 12)) for _ in range(5)]
    regions += [Polygon(_random_rational_polygon(rng)) for _ in range(20)]
    regions += [Polygon(_sheared_hexagon(d)) for d in (2, 7, 3893)]
    for region in regions:
        again = region_from_json(json.loads(json.dumps(region_to_json(region))))
        assert again == region


def test_hexagon_moments_against_numeric_oracle():
    from oracles import hexagon_moment_numeric

    h = hexagon_paper()
    for alpha in monomials_up_to(2, 4):
        exact = to_float(h.moment(alpha))
        assert abs(exact - hexagon_moment_numeric(*alpha)) < 1e-9, alpha


def _random_rational_polygon(rng):
    """A simple polygon with rational vertices: random points sorted by
    angle about the origin, redrawn until the constructor accepts them."""
    while True:
        pts = set()
        for _ in range(rng.randint(3, 8)):
            pts.add((Fraction(rng.randint(-12, 12), rng.randint(1, 4)),
                     Fraction(rng.randint(-12, 12), rng.randint(1, 4))))
        pts = sorted(pts, key=lambda v: math.atan2(v[1], v[0]))
        try:
            Polygon(pts)
        except ValueError:
            continue
        return pts


def _sheared_hexagon(d):
    """The paper's hexagon over Q(sqrt d), sheared and shifted so that odd
    moments do not vanish by symmetry."""
    r = quad(1, 1, d)
    base = [(r, 0), (1, 1), (-1, 1), (scalars.neg(r), 0), (-1, -1), (1, -1)]
    return [
        (scalars.add(x, scalars.div(y, Fraction(2))), scalars.add(y, Fraction(1, 3)))
        for x, y in base
    ]


def _random_quad_polygon(rng, d):
    """A simple polygon with a + b*sqrt(d) coordinates, a and b of mixed
    signs and denominators and b*sqrt(d) of the size of a, sorted by angle
    about the origin and redrawn until the constructor accepts it."""
    root = math.isqrt(d)

    def coordinate():
        return quad(Fraction(rng.randint(-12, 12), rng.randint(1, 6)),
                    Fraction(rng.randint(-12, 12), rng.randint(1, 6) * root), d)

    while True:
        pts = {(coordinate(), coordinate()) for _ in range(rng.randint(3, 7))}
        pts = sorted(pts, key=lambda v: math.atan2(to_float(v[1]), to_float(v[0])))
        try:
            Polygon(pts)
        except ValueError:
            continue
        return pts


def _oracle_cases():
    rng = random.Random(20240)
    cases = [_random_rational_polygon(rng) for _ in range(6)] + [_sheared_hexagon(7)]
    return cases + [_random_quad_polygon(rng, d) for d in (2, 3893, 1000003)]


def test_polygon_moments_match_fan_triangulation_oracle():
    from oracles import fan_polygon_moment

    rng = random.Random(20241)
    for vertices in _oracle_cases():
        polygon = Polygon(vertices)
        expected = {}
        for p, q in monomials_up_to(2, 6):
            expected[p, q] = fan_polygon_moment(vertices, p, q)
            assert polygon.moment((p, q)) == expected[p, q], (vertices, p, q)
        # one batch over every monomial, shuffled and with repeats
        batch = list(expected) + rng.choices(list(expected), k=10)
        rng.shuffle(batch)
        assert polygon.moments(batch) == tuple(expected[a] for a in batch), vertices
        assert vars(polygon) == {"vertex_list": polygon.vertex_list}


def test_polygon_moments_ignore_vertex_order_and_orientation():
    for vertices in _oracle_cases():
        base = Polygon(vertices)
        m = len(vertices)
        variants = [vertices[k:] + vertices[:k] for k in range(1, m)]
        variants.append(list(reversed(vertices)))
        for variant in variants:
            other = Polygon(variant)
            for alpha in monomials_up_to(2, 4):
                assert other.moment(alpha) == base.moment(alpha), (variant, alpha)


@pytest.mark.parametrize("d", (None, 2, 3, 3893, 1000003))
def test_polygon_moment_recurrence_matches_the_closed_forms(d):
    from oracles import fan_polygon_moment, steger_polygon_moment

    rng = random.Random(20242 + (d or 0))
    for _ in range(2):
        vertices = _random_rational_polygon(rng) if d is None else _random_quad_polygon(rng, d)
        polygon = Polygon(vertices)
        ccw = list(polygon.vertex_list)
        expected = {}
        for alpha in monomials_up_to(2, 8):
            expected[alpha] = steger_polygon_moment(ccw, *alpha)
            assert polygon.moment(alpha) == expected[alpha], (vertices, alpha)
        assert polygon.moments(list(expected)) == tuple(expected.values()), vertices
        for alpha in monomials_up_to(2, 4):
            assert expected[alpha] == fan_polygon_moment(vertices, *alpha), (vertices, alpha)
        # sparse shuffled batches with repeats: the recurrence runs only
        # over the indices at or below some index of the batch
        for size in (1, 2, 5, 12):
            batch = rng.choices(list(expected), k=size)
            batch += rng.choices(batch, k=2)
            rng.shuffle(batch)
            assert polygon.moments(batch) == tuple(expected[a] for a in batch), (vertices, batch)
        singles = [(12, 0), (0, 12), (6, 6)]
        for alpha in singles:
            want = steger_polygon_moment(ccw, *alpha)
            assert polygon.moment(alpha) == want, (vertices, alpha)
            assert polygon.moments([alpha, (0, 0), alpha]) == (want, expected[0, 0], want)
        assert polygon.moments(singles) == tuple(steger_polygon_moment(ccw, *a) for a in singles)


def moment_cases(rng):
    """(region, d, pi) for simplices and cubes of dimension 1..4, rational
    and Q(sqrt d) polygons and the disc: each region's moments are
    rational, over sqrt(d), or pi multiples."""
    cases = [(cls(n), None, False) for cls in (Simplex, Cube) for n in range(1, 5)]
    cases += [(Polygon(_random_rational_polygon(rng)), None, False) for _ in range(2)]
    cases += [(trapezoid_paper(), None, False), (hexagon_paper(), 3, False),
              (Polygon(_sheared_hexagon(7)), 7, False)]
    cases += [(Polygon(_random_quad_polygon(rng, d)), d, False) for d in (2, 3893)]
    return cases + [(UnitDisc(), None, True)]


def random_index_batch(rng, n):
    """Up to six random indices with entries up to 3, and two repeats."""
    batch = [tuple(rng.randint(0, 3) for _ in range(n)) for _ in range(rng.randint(1, 6))]
    return batch + rng.choices(batch, k=2)


def _oracle_moment(region, alpha):
    if isinstance(region, Simplex):
        return iterated_simplex_moment(region.dimension, alpha)
    if isinstance(region, Cube):
        return iterated_cube_moment(region.dimension, alpha)
    if isinstance(region, UnitDisc):
        return factorial_disc_moment(*alpha)
    return fan_polygon_moment(region.vertex_list, *alpha)


def test_a_moment_batch_is_its_single_moments_and_the_oracles():
    rng = random.Random(3801)
    for region, _, _ in moment_cases(rng):
        for _ in range(3):
            batch = random_index_batch(rng, region.dimension)
            oracle = [_oracle_moment(region, alpha) for alpha in batch]
            typed = [(type(v), v) for v in region.moments(batch)]
            assert typed == [(type(v), v) for v in map(region.moment, batch)], (region, batch)
            assert typed == [(type(v), v) for v in oracle], (region, batch)


def test_a_polygon_at_the_vertex_limit_is_admitted():
    # a strictly convex chain on the parabola y = x^2
    limit = regions.MAX_POLYGON_VERTICES
    assert len(Polygon([(i, i * i) for i in range(limit)]).vertex_list) == limit
    with pytest.raises(WorkLimit, match=f"^polygon has {limit + 1} vertices; the limit is {limit}$"):
        Polygon([(i, i * i) for i in range(limit + 1)])


# Refusals of region decoders and constructors: (call, error, message)
REFUSALS = {
    "unknown tag": (
        lambda: region_from_json({"ball": 3}), ValueError, r"^unknown region tag in \{'ball': 3\}$",
    ),
    "not a region": (lambda: region_to_json(object()), TypeError, r"^not a region: <object "),
    "three-coordinate vertex": (
        lambda: Polygon([(0, 0), (1, 0, 0), (0, 1)]), ValueError,
        r"^polygon vertices must be 2-dimensional$",
    ),
}


@pytest.mark.parametrize("case", sorted(REFUSALS))
def test_refusals(case):
    call, error, message = REFUSALS[case]
    with pytest.raises(error, match=message):
        call()
