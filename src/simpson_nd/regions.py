"""Integration regions with exact volumes, centroids, and monomial moments.

Supported regions: the standard n-simplex (origin plus the unit points),
the unit n-cube [0,1]^n, simple planar polygons with exact coordinates,
and the closed unit disc.  Every moment is an exact Scalar, so region
moments can sit on the right-hand side of an exactness equation without
any rounding.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from math import factorial, prod
from typing import Union

from . import scalars
from .errors import DimensionMismatch, NoVertices, WorkLimit
from .scalars import PiMultiple, Scalar, as_scalar, is_zero, quad, sign

MultiIndex = tuple[int, ...]
Point = tuple[Scalar, ...]


def _check_index(alpha, dimension: int) -> MultiIndex:
    alpha = tuple(int(e) for e in alpha)
    if len(alpha) != dimension:
        raise DimensionMismatch(
            f"multi-index {alpha} has length {len(alpha)}, region dimension is {dimension}"
        )
    if any(e < 0 for e in alpha):
        raise ValueError(f"multi-index must be non-negative: {alpha}")
    return alpha


def _as_point(p) -> Point:
    return tuple(as_scalar(c) for c in p)


@dataclass(frozen=True)
class Simplex:
    """Standard n-simplex: x_i >= 0, sum x_i <= 1."""

    dimension: int

    def __post_init__(self):
        if self.dimension < 1:
            raise ValueError("simplex dimension must be >= 1")

    def volume(self) -> Scalar:
        return Fraction(1, factorial(self.dimension))

    def centroid(self) -> Point:
        n = self.dimension
        return tuple(Fraction(1, n + 1) for _ in range(n))

    def vertices(self) -> tuple[Point, ...]:
        n = self.dimension
        pts = [tuple(Fraction(0) for _ in range(n))]
        for k in range(n):
            pts.append(tuple(Fraction(1 if i == k else 0) for i in range(n)))
        return tuple(pts)

    def moment(self, alpha) -> Scalar:
        """Dirichlet formula: integral of x^alpha equals
        (prod alpha_i!) / (n + |alpha|)!."""
        alpha = _check_index(alpha, self.dimension)
        num = 1
        for e in alpha:
            num *= factorial(e)
        return Fraction(num, factorial(self.dimension + sum(alpha)))

    def contains(self, point: Point) -> bool:
        if any(sign(c) < 0 for c in point):
            return False
        total: Scalar = Fraction(0)
        for c in point:
            total = scalars.add(total, c)
        return scalars.le(total, Fraction(1))

    def on_boundary(self, point: Point) -> bool:
        if not self.contains(point):
            return False
        total: Scalar = Fraction(0)
        for c in point:
            total = scalars.add(total, c)
        return any(is_zero(c) for c in point) or scalars.eq(total, Fraction(1))


@dataclass(frozen=True)
class Cube:
    """Unit n-cube [0,1]^n."""

    dimension: int

    def __post_init__(self):
        if self.dimension < 1:
            raise ValueError("cube dimension must be >= 1")

    def volume(self) -> Scalar:
        return Fraction(1)

    def centroid(self) -> Point:
        return tuple(Fraction(1, 2) for _ in range(self.dimension))

    def vertices(self) -> tuple[Point, ...]:
        # lexicographic over {0,1}^n with the leftmost coordinate most significant
        return tuple(
            tuple(Fraction(b) for b in bits)
            for bits in itertools.product((0, 1), repeat=self.dimension)
        )

    def moment(self, alpha) -> Scalar:
        alpha = _check_index(alpha, self.dimension)
        result = Fraction(1)
        for e in alpha:
            result *= Fraction(1, e + 1)
        return result

    def contains(self, point: Point) -> bool:
        return all(sign(c) >= 0 and scalars.le(c, Fraction(1)) for c in point)

    def on_boundary(self, point: Point) -> bool:
        if not self.contains(point):
            return False
        return any(is_zero(c) or scalars.eq(c, Fraction(1)) for c in point)


def _cross(ox, oy, ax, ay, bx, by) -> Scalar:
    """Cross product (a - o) x (b - o), exact."""
    return scalars.sub(
        scalars.mul(scalars.sub(ax, ox), scalars.sub(by, oy)),
        scalars.mul(scalars.sub(bx, ox), scalars.sub(ay, oy)),
    )


def _orient(o, a, b) -> int:
    return sign(_cross(o[0], o[1], a[0], a[1], b[0], b[1]))


def _between(p, a, b) -> bool:
    """Assuming p collinear with segment ab: is p within the segment box?"""
    for i in (0, 1):
        lo, hi = a[i], b[i]
        if sign(scalars.sub(hi, lo)) < 0:
            lo, hi = hi, lo
        if sign(scalars.sub(p[i], lo)) < 0 or sign(scalars.sub(hi, p[i])) < 0:
            return False
    return True


def _on_segment(p, a, b) -> bool:
    return _orient(a, b, p) == 0 and _between(p, a, b)


def _segments_intersect(a, b, c, d) -> bool:
    d1 = _orient(c, d, a)
    d2 = _orient(c, d, b)
    d3 = _orient(a, b, c)
    d4 = _orient(a, b, d)
    if d1 * d2 < 0 and d3 * d4 < 0:
        return True
    if d1 == 0 and _between(a, c, d):
        return True
    if d2 == 0 and _between(b, c, d):
        return True
    if d3 == 0 and _between(c, a, b):
        return True
    if d4 == 0 and _between(d, a, b):
        return True
    return False


def _poly_mul(p: list, q: list) -> list:
    out = [Fraction(0)] * (len(p) + len(q) - 1)
    for i, pi in enumerate(p):
        if is_zero(pi):
            continue
        for j, qj in enumerate(q):
            out[i + j] = scalars.add(out[i + j], scalars.mul(pi, qj))
    return out


def _grown(powers: list, k: int) -> list:
    """The powers [1, f, f^2, ...] of a linear f = powers[1], through at
    least f^k.  Grows a copy, so a list another caller already holds never
    changes under it."""
    if len(powers) > k:
        return powers
    powers = list(powers)
    while len(powers) <= k:
        powers.append(_poly_mul(powers[-1], powers[1]))
    return powers


# Most vertices a Polygon accepts.  The simplicity check compares every
# pair of edges, O(m^2) exact orientation tests: 100 vertices take about
# 0.4 s with rational coordinates and about 1 s in Q(sqrt 3893) on one core
# of a 2-vCPU Xeon, and unchecked, 800 rational vertices took 21.5 s.
MAX_POLYGON_VERTICES = 100


@dataclass(frozen=True)
class Polygon:
    """Simple planar polygon with exact Scalar coordinates.

    Vertices are normalized to counterclockwise order at construction
    (reversed when the signed area comes out negative) so the boundary
    integrals below carry a uniform sign.  Simplicity is enforced by an
    exact pairwise edge-intersection check; more than MAX_POLYGON_VERTICES
    vertices raise WorkLimit before it starts.
    """

    vertex_list: tuple[Point, ...]

    def __init__(self, vertex_list):
        pts = tuple(_as_point(v) for v in vertex_list)
        if len(pts) < 3:
            raise ValueError("polygon needs at least 3 vertices")
        if len(pts) > MAX_POLYGON_VERTICES:
            raise WorkLimit(
                f"polygon has {len(pts)} vertices; the limit is {MAX_POLYGON_VERTICES}"
            )
        if any(len(p) != 2 for p in pts):
            raise ValueError("polygon vertices must be 2-dimensional")
        twice_area: Scalar = Fraction(0)
        m = len(pts)
        for i in range(m):
            x0, y0 = pts[i]
            x1, y1 = pts[(i + 1) % m]
            twice_area = scalars.add(
                twice_area,
                scalars.sub(scalars.mul(x0, y1), scalars.mul(x1, y0)),
            )
        s = sign(twice_area)
        if s == 0:
            raise ValueError("polygon is degenerate (zero area)")
        if s < 0:
            pts = tuple(reversed(pts))
        self._check_simple(pts)
        object.__setattr__(self, "vertex_list", pts)

    @staticmethod
    def _check_simple(pts):
        m = len(pts)
        edges = [(pts[i], pts[(i + 1) % m]) for i in range(m)]
        for i in range(m):
            a, b = edges[i]
            for j in range(i + 1, m):
                c, d = edges[j]
                adjacent = j == i + 1 or (i == 0 and j == m - 1)
                if adjacent:
                    shared = b if j == i + 1 else a
                    other_far = d if j == i + 1 else c
                    # consecutive edges may only meet at their shared vertex
                    if _orient(a, b, c) == 0 and _orient(a, b, d) == 0:
                        if _on_segment(other_far, a, b) and other_far != shared:
                            raise ValueError("polygon has a degenerate spike")
                    continue
                if _segments_intersect(a, b, c, d):
                    raise ValueError("polygon must be simple (edges intersect)")

    @property
    def dimension(self) -> int:
        return 2

    def vertices(self) -> tuple[Point, ...]:
        return self.vertex_list

    def moment(self, alpha) -> Scalar:
        """Exact integral of x^p y^q by a boundary integral.

        Each edge is parameterized linearly on t in [0,1]; the integrand
        x(t)^p y(t)^(q+1) x'(t) expands to an exact polynomial in t which
        integrates term by term.  The counterclockwise normalization fixes
        the overall sign so that the (0,0) moment is the area.
        """
        p, q = _check_index(alpha, 2)
        total: Scalar = Fraction(0)
        for dx, xs, ys in self._edge_powers(p, q + 1):
            integrand = _poly_mul(xs[p], ys[q + 1])
            edge: Scalar = Fraction(0)
            for k, coeff in enumerate(integrand):
                edge = scalars.add(edge, scalars.div(coeff, Fraction(k + 1)))
            total = scalars.add(total, scalars.mul(dx, edge))
        return scalars.div(scalars.neg(total), Fraction(q + 1))

    def _edge_powers(self, p: int, r: int) -> list:
        """For each edge with dx != 0: (dx, powers of x(t), powers of y(t)),
        each power a coefficient list in t, through at least x^p and y^r.

        The table belongs to this instance and is not a dataclass field, so
        ==, hash and JSON ignore it.  It only grows, and growing replaces it
        with a new table instead of changing the lists in the old one.
        """
        table = self.__dict__.get("_edge_table")
        if table is None:
            table = []
            pts = self.vertex_list
            m = len(pts)
            for i in range(m):
                x0, y0 = pts[i]
                x1, y1 = pts[(i + 1) % m]
                dx = scalars.sub(x1, x0)
                if is_zero(dx):
                    continue
                one = [Fraction(1)]
                table.append((dx, [one, [x0, dx]], [one, [y0, scalars.sub(y1, y0)]]))
        elif len(table[0][1]) > p and len(table[0][2]) > r:
            return table
        table = [(dx, _grown(xs, p), _grown(ys, r)) for dx, xs, ys in table]
        object.__setattr__(self, "_edge_table", table)
        return table

    def volume(self) -> Scalar:
        return self.moment((0, 0))

    def centroid(self) -> Point:
        area = self.volume()
        return (
            scalars.div(self.moment((1, 0)), area),
            scalars.div(self.moment((0, 1)), area),
        )

    def contains(self, point: Point) -> bool:
        point = _as_point(point)
        if self.on_boundary(point):
            return True
        # even-odd crossing count against a horizontal ray to the left;
        # the half-open straddle test keeps vertex crossings consistent
        px, py = point
        inside = False
        pts = self.vertex_list
        m = len(pts)
        for i in range(m):
            ax, ay = pts[i]
            bx, by = pts[(i + 1) % m]
            above_a = sign(scalars.sub(ay, py)) > 0
            above_b = sign(scalars.sub(by, py)) > 0
            if above_a == above_b:
                continue
            t = scalars.div(scalars.sub(py, ay), scalars.sub(by, ay))
            xcross = scalars.add(ax, scalars.mul(t, scalars.sub(bx, ax)))
            if sign(scalars.sub(xcross, px)) > 0:
                inside = not inside
        return inside

    def on_boundary(self, point: Point) -> bool:
        point = _as_point(point)
        pts = self.vertex_list
        m = len(pts)
        return any(_on_segment(point, pts[i], pts[(i + 1) % m]) for i in range(m))


def _double_factorial(k: int) -> int:
    """k (k-2) (k-4) ... down to 1 or 2; 1 for k <= 0."""
    return prod(range(k, 0, -2))


@dataclass(frozen=True)
class UnitDisc:
    """Closed unit disc in the plane; all moments are pi multiples."""

    @property
    def dimension(self) -> int:
        return 2

    def volume(self) -> Scalar:
        return PiMultiple(1)

    def centroid(self) -> Point:
        return (Fraction(0), Fraction(0))

    def vertices(self):
        raise NoVertices("the unit disc has no vertices")

    def moment(self, alpha) -> Scalar:
        """2 pi (m-1)!! (n-1)!! / ((m+n+2) (m+n)!!) for even m and n, else 0."""
        m, n = _check_index(alpha, 2)
        if m % 2 or n % 2:
            return PiMultiple(0)
        return PiMultiple(
            Fraction(2 * _double_factorial(m - 1) * _double_factorial(n - 1),
                     (m + n + 2) * _double_factorial(m + n))
        )

    def contains(self, point: Point) -> bool:
        x, y = _as_point(point)
        rr = scalars.add(scalars.mul(x, x), scalars.mul(y, y))
        return scalars.le(rr, Fraction(1))

    def on_boundary(self, point: Point) -> bool:
        x, y = _as_point(point)
        rr = scalars.add(scalars.mul(x, x), scalars.mul(y, y))
        return scalars.eq(rr, Fraction(1))


Region = Union[Simplex, Cube, Polygon, UnitDisc]


def integrate_terms(region: Region, terms) -> Scalar:
    """Exact integral over the region of the polynomial given as
    (exponent tuple, coefficient) pairs: the sum of coeff * moment."""
    total: Scalar = Fraction(0)
    for alpha, coeff in terms:
        total = scalars.add(total, scalars.mul(coeff, region.moment(alpha)))
    return total


def trapezoid_paper() -> Polygon:
    """The trapezoid with vertex set {(0,0),(1,0),(0,1),(1,2)}, listed in
    simple counterclockwise order."""
    return Polygon([(0, 0), (1, 0), (1, 2), (0, 1)])


def hexagon_paper() -> Polygon:
    """Equilateral hexagon with vertices (+-(1+sqrt 3), 0) and (+-1, +-1)."""
    one = Fraction(1)
    r = quad(1, 1, 3)  # 1 + sqrt(3)
    return Polygon(
        [
            (r, 0),
            (one, one),
            (-one, one),
            (scalars.neg(r), 0),
            (-one, -one),
            (one, -one),
        ]
    )


def region_to_json(region: Region) -> dict:
    if isinstance(region, Simplex):
        return {"simplex": region.dimension}
    if isinstance(region, Cube):
        return {"cube": region.dimension}
    if isinstance(region, Polygon):
        return {
            "polygon": [
                [scalars.scalar_to_json(x), scalars.scalar_to_json(y)]
                for x, y in region.vertex_list
            ]
        }
    if isinstance(region, UnitDisc):
        return {"disc": True}
    raise TypeError(f"not a region: {region!r}")


def region_from_json(obj) -> Region:
    if not isinstance(obj, dict) or len(obj) != 1:
        raise ValueError(f"malformed region encoding: {obj!r}")
    if "simplex" in obj:
        return Simplex(scalars.int_from_json(obj["simplex"]))
    if "cube" in obj:
        return Cube(scalars.int_from_json(obj["cube"]))
    if "polygon" in obj:
        vertices = obj["polygon"]
        if not isinstance(vertices, list) or not all(
            isinstance(v, list) and len(v) == 2 for v in vertices
        ):
            raise ValueError(f"a polygon must be a list of [x, y] vertices, got {vertices!r}")
        return Polygon(
            [
                (scalars.scalar_from_json(x), scalars.scalar_from_json(y))
                for x, y in vertices
            ]
        )
    if "disc" in obj:
        return UnitDisc()
    raise ValueError(f"unknown region tag in {obj!r}")
