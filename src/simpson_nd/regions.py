"""Integration regions with exact volumes, centroids, and monomial moments.

Supported regions: the standard n-simplex (origin plus the unit points),
the unit n-cube [0,1]^n, simple planar polygons with exact coordinates,
and the closed unit disc.  Every moment is an exact Scalar, so region
moments can sit on the right-hand side of an exactness equation without
any rounding.
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from math import factorial, prod

from . import scalars
from .errors import DimensionMismatch, NoVertices, WorkLimit
from .record import record
from .scalars import PiMultiple, Scalar, quad
from .scalars import view_minus, view_plus, view_sign, view_sum, view_times

MultiIndex = tuple[int, ...]
Point = tuple[Scalar, ...]

# the exact 0 and 1 that every simplex and cube vertex shares
_ZERO, _ONE = Fraction(0), Fraction(1)


def _check_index(alpha, dimension: int) -> MultiIndex:
    alpha = tuple(int(e) for e in alpha)
    if len(alpha) != dimension:
        raise DimensionMismatch(
            f"multi-index {alpha} has length {len(alpha)}, region dimension is {dimension}"
        )
    if any(e < 0 for e in alpha):
        raise ValueError(f"multi-index must be non-negative: {alpha}")
    return alpha


def _point_view(points, dimension: int):
    """(D, d, rows): the common denominator, the radicand and one row of
    view values per point, from one ``scalars.integer_view`` of every
    coordinate in the list.  Membership and polygon geometry run on it:
    signs, moments, areas and orientations are ring expressions in the
    coordinates, so they need no Fraction until the end.  The first point
    whose length is not ``dimension`` raises DimensionMismatch."""
    for point in points:
        if len(point) != dimension:
            raise DimensionMismatch(f"point {point} does not match region dimension {dimension}")
    flat = [c for point in points for c in point]
    d = scalars.radicand(flat, "combine")
    den, view = scalars.integer_view(flat, d)
    return den, d, [view[i:i + dimension] for i in range(0, len(view), dimension)]


class Located(list):
    """What ``locate`` returns: the sign of each point, and as ``view`` the
    (D, d, rows) of ``_point_view`` for those points, so that a rule's
    ``NodeTable`` can start from the view its membership check built."""

    __slots__ = ("view",)

    def __init__(self, signs, view):
        super().__init__(signs)
        self.view = view


class Region:
    """Base of the four regions.  Each region supplies ``moment`` (and a
    batch ``moments`` when it has a faster one); volume and centroid, the
    A(D) and P of the paper's M(f) = A(D) f(P), are its zero and first
    moments, asked for here in one batch, together with any other moments
    a caller needs (``mass_and_moments``).  Its one membership routine,
    ``locate(points)``, gives -1 (outside), 0 (boundary) or +1 (inside) per
    point from one ``_point_view`` of the list, and hands that view back on
    the ``Located`` list of signs; ``contains`` and ``on_boundary`` ask it
    about one point, and each region keeps ``contains`` in its own
    ``__dict__`` for ``benchmarks/tracing.py``.  A simplex and a cube give
    their centroid in closed form (``_closed_centroid``) and each moment as
    an int pair (``_moment_pair``)."""

    __slots__ = ()

    def contains(self, point: Point) -> bool:
        return self.locate([point])[0] >= 0

    def on_boundary(self, point: Point) -> bool:
        return self.locate([point])[0] == 0

    def moments(self, alphas) -> tuple[Scalar, ...]:
        return tuple(map(self.moment, alphas))

    def volume(self) -> Scalar:
        return self.moment((0,) * self.dimension)

    def _closed_centroid(self):
        """The centroid in closed form, or None to divide the first moments
        by the volume."""
        return None

    def mass_and_moments(self, alphas) -> tuple[Scalar, Point, tuple[Scalar, ...]]:
        """(volume, centroid, the moment of each index in ``alphas``) from
        one ``moments`` batch over the zero index, the unit vectors (unless
        the centroid has a closed form) and ``alphas``, each distinct index
        asked once: all that the blend lam*M + (1-lam)*T asks of its region."""
        n = self.dimension
        zero = (0,) * n
        centroid = self._closed_centroid()
        units = [(0,) * k + (1,) + (0,) * (n - 1 - k) for k in range(n)] if centroid is None else []
        alphas = [tuple(int(e) for e in alpha) for alpha in alphas]
        batch = list(dict.fromkeys([zero] + units + alphas))
        values = dict(zip(batch, self.moments(batch)))
        volume = values[zero]
        if units:
            centroid = tuple(scalars.div(values[unit], volume) for unit in units)
        return volume, centroid, tuple(values[alpha] for alpha in alphas)

    def mass(self) -> tuple[Scalar, Point]:
        """(volume, centroid) from one batch of the zero index and the
        unit vectors."""
        return self.mass_and_moments(())[:2]

    def centroid(self) -> Point:
        return self.mass()[1]


@record
class Simplex(Region):
    """Standard n-simplex: x_i >= 0, sum x_i <= 1."""

    dimension: int

    def __post_init__(self):
        if self.dimension < 1:
            raise ValueError("simplex dimension must be >= 1")

    def vertices(self) -> tuple[Point, ...]:
        n = self.dimension
        return ((_ZERO,) * n,) + tuple((_ZERO,) * k + (_ONE,) + (_ZERO,) * (n - 1 - k)
                                       for k in range(n))

    def _closed_centroid(self) -> Point:
        return (Fraction(1, self.dimension + 1),) * self.dimension

    def _moment_pair(self, alpha) -> tuple[int, int]:
        """(prod alpha_i!, (n + |alpha|)!), the moment of an index already
        checked, unreduced."""
        return prod(map(factorial, alpha)), factorial(self.dimension + sum(alpha))

    def moment(self, alpha) -> Scalar:
        """Dirichlet formula: integral of x^alpha equals
        (prod alpha_i!) / (n + |alpha|)!."""
        return Fraction(*self._moment_pair(_check_index(alpha, self.dimension)))

    def locate(self, points) -> Located:
        """min(sign(X_i), sign(D - sum X_i)) per point, for X = D x."""
        view = den, d, rows = _point_view(points, self.dimension)
        top = den if d is None else (den, 0)
        return Located([min(view_sign(view_minus(top, view_sum(row, d), d), d),
                            *(view_sign(x, d) for x in row)) for row in rows], view)

    contains = Region.contains


@record
class Cube(Region):
    """Unit n-cube [0,1]^n."""

    dimension: int

    def __post_init__(self):
        if self.dimension < 1:
            raise ValueError("cube dimension must be >= 1")

    def vertices(self) -> tuple[Point, ...]:
        # lexicographic over {0,1}^n with the leftmost coordinate most significant
        return tuple(itertools.product((_ZERO, _ONE), repeat=self.dimension))

    def _closed_centroid(self) -> Point:
        return (Fraction(1, 2),) * self.dimension

    def _moment_pair(self, alpha) -> tuple[int, int]:
        """(1, prod (alpha_i + 1)), the moment of an index already checked."""
        return 1, prod(e + 1 for e in alpha)

    def moment(self, alpha) -> Scalar:
        return Fraction(*self._moment_pair(_check_index(alpha, self.dimension)))

    def locate(self, points) -> Located:
        """min over i of sign(X_i) and sign(D - X_i) per point, for X = D x."""
        view = den, d, rows = _point_view(points, self.dimension)
        if d is None:
            return Located([view_sign(min(min(row), den - max(row)), d) for row in rows], view)
        return Located([min(view_sign(v, d) for x in row for v in (x, view_minus((den, 0), x, d)))
                        for row in rows], view)

    contains = Region.contains


def _turn(o, a, b, d) -> int:
    """Sign of the cross product (a - o) x (b - o) of three view points."""
    ax, ay = view_minus(a[0], o[0], d), view_minus(a[1], o[1], d)
    bx, by = view_minus(b[0], o[0], d), view_minus(b[1], o[1], d)
    return view_sign(view_minus(view_times(ax, by, d), view_times(bx, ay, d), d), d)


def _in_box(p, a, b, d) -> bool:
    """Whether view point p lies in the bounding box of segment ab: in each
    coordinate, p - a and p - b do not share a sign."""
    return all(
        view_sign(view_minus(p[i], a[i], d), d) * view_sign(view_minus(p[i], b[i], d), d) <= 0
        for i in (0, 1)
    )


def _edges_meet(a, b, c, e, d) -> bool:
    """Whether the closed segments ab and ce of view points share a point."""
    d1 = _turn(c, e, a, d)
    d2 = _turn(c, e, b, d)
    d3 = _turn(a, b, c, d)
    d4 = _turn(a, b, e, d)
    if d1 * d2 < 0 and d3 * d4 < 0:
        return True
    return (
        (d1 == 0 and _in_box(a, c, e, d))
        or (d2 == 0 and _in_box(b, c, e, d))
        or (d3 == 0 and _in_box(c, a, b, d))
        or (d4 == 0 and _in_box(e, a, b, d))
    )


def _mul_add(xs, us, ys, vs, ws, d) -> list:
    """[x*u + y*v + w, ...] elementwise over lists of view values."""
    if d is None:
        return [x * u + y * v + w for x, u, y, v, w in zip(xs, us, ys, vs, ws)]
    return [
        (xa * ua + ya * va + (xb * ub + yb * vb) * d + wa,
         xa * ub + xb * ua + ya * vb + yb * va + wb)
        for (xa, xb), (ua, ub), (ya, yb), (va, vb), (wa, wb) in zip(xs, us, ys, vs, ws)
    ]


def _polygon_sign(pt, edges, d) -> int:
    """0 on an edge, else +1 or -1 by the parity of the edges crossing a
    ray to the right of view point pt, with a half-open straddle test; edge
    ab crosses right of pt when the turn (pt, a, b) has the sign of by - ay."""
    _, py = pt
    inside = False
    for a, b in edges:
        turn = _turn(pt, a, b, d)
        if turn == 0 and _in_box(pt, a, b, d):
            return 0
        above_a = view_sign(view_minus(a[1], py, d), d) > 0
        above_b = view_sign(view_minus(b[1], py, d), d) > 0
        if above_a != above_b and turn == (1 if above_b else -1):
            inside = not inside
    return 1 if inside else -1


# Most vertices a Polygon accepts.  The simplicity check compares every
# pair of edges, O(m^2) exact orientation tests on the integer view: 100
# vertices take about 0.02 s with rational coordinates over one small
# denominator, 0.04 s over the denominators 2..101 and 0.04 s in
# Q(sqrt 3893), on one core of a 2-vCPU Xeon; with the limit lifted, 800
# rational vertices take about 1.1 s (21.5 s with the old scalar check).
MAX_POLYGON_VERTICES = 100


@record
class Polygon(Region):
    """Simple planar polygon with rational or a + b*sqrt(d) coordinates,
    one radicand d per polygon.

    Vertices are normalized to counterclockwise order at construction
    (reversed when the signed area comes out negative) so the boundary
    integrals below carry a uniform sign.  Simplicity is enforced by an
    exact pairwise edge-intersection check; more than MAX_POLYGON_VERTICES
    vertices raise WorkLimit before it starts.  The area sign, the check,
    the moments and membership all run on the package's one integer view,
    ``scalars.integer_view`` over Z or Z[sqrt d], built once per call:
    ``moments`` builds one view for a whole batch of indices and turns each
    total into a scalar with ``scalars.from_view``, and ``locate`` one view
    of the vertices and every queried point together.  Nothing is cached
    on the instance.
    """

    vertex_list: tuple[Point, ...]

    def __init__(self, vertex_list):
        pts = scalars.as_points(vertex_list)
        if len(pts) < 3:
            raise ValueError("polygon needs at least 3 vertices")
        if len(pts) > MAX_POLYGON_VERTICES:
            raise WorkLimit(
                f"polygon has {len(pts)} vertices; the limit is {MAX_POLYGON_VERTICES}"
            )
        if any(len(p) != 2 for p in pts):
            raise ValueError("polygon vertices must be 2-dimensional")
        for i, point in enumerate(pts):
            for axis, c in zip("xy", point):
                if isinstance(c, PiMultiple):
                    raise ValueError(
                        f"vertex {i} has the pi-valued {axis} coordinate {c!r}; "
                        "polygon coordinates must be rational or a + b*sqrt(d)"
                    )
        _, d, rows = _point_view(pts, 2)
        crosses = [
            view_minus(view_times(x0, y1, d), view_times(x1, y0, d), d)
            for (x0, y0), (x1, y1) in zip(rows, rows[1:] + rows[:1])
        ]
        s = view_sign(view_sum(crosses, d), d)
        if s == 0:
            raise ValueError("polygon is degenerate (zero area)")
        if s < 0:
            pts = tuple(reversed(pts))
            rows.reverse()
        self._check_simple(rows, d)
        object.__setattr__(self, "vertex_list", pts)

    @staticmethod
    def _check_simple(rows, d):
        """Raise unless the closed chain of view points is simple."""
        m = len(rows)
        edges = [(rows[i], rows[(i + 1) % m]) for i in range(m)]
        for i in range(m):
            a, b = edges[i]
            for j in range(i + 1, m):
                c, e = edges[j]
                adjacent = j == i + 1 or (i == 0 and j == m - 1)
                if adjacent:
                    shared = b if j == i + 1 else a
                    other_far = e if j == i + 1 else c
                    # consecutive edges may only meet at their shared vertex
                    if _turn(a, b, c, d) == 0 and _turn(a, b, e, d) == 0:
                        if _in_box(other_far, a, b, d) and other_far != shared:
                            raise ValueError("polygon has a degenerate spike")
                    continue
                if _edges_meet(a, b, c, e, d):
                    raise ValueError("polygon must be simple (edges intersect)")

    @property
    def dimension(self) -> int:
        return 2

    def vertices(self) -> tuple[Point, ...]:
        return self.vertex_list

    def moment(self, alpha) -> Scalar:
        return self.moments((alpha,))[0]

    def moments(self, alphas) -> tuple[Scalar, ...]:
        """Exact integrals of x^p y^q, one per (p, q) in ``alphas``, by
        Green's theorem and one recurrence per edge.

        For the counterclockwise edge (x0, y0) -> (x1, y1), set
        A(0,0) = H(0,0) = x0 y1 - x1 y0 and, a term with a negative index
        being 0,

            A(i,j) = x0 A(i-1,j) + y0 A(i,j-1)
            H(i,j) = x1 H(i-1,j) + y1 H(i,j-1) + A(i,j).

        The moment of x^p y^q is p! q! / (p+q+2)! times the sum of H(p,q)
        over the edges: A(i,j) counts the paths to (i,j), so H(p,q) unrolls
        to Steger's binomial double sum (Steger, On the Calculation of
        Arbitrary Moments of Polygons, 1996).  H(p,q) has degree p+q+2 in
        the coordinates, so the sum T runs on the integer view and the
        moment is p! q! T / ((p+q+2)! D^(p+q+2)).  Every index is checked
        first; the view is then built once, and the recurrence runs once,
        over every edge at a time, on the down-closed set of the batch: each
        (i, j) at or below some (p, q) in ``alphas``.
        """
        alphas = [_check_index(alpha, 2) for alpha in alphas]
        if not alphas:
            return ()
        den, d, pts = _point_view(self.vertex_list, 2)
        zero = 0 if d is None else (0, 0)
        edges = [
            (view_minus(view_times(x0, y1, d), view_times(x1, y0, d), d), x0, y0, x1, y1)
            for (x0, y0), (x1, y1) in zip(pts, pts[1:] + pts[:1])
        ]
        crosses, x0s, y0s, x1s, y1s = zip(*(edge for edge in edges if edge[0] != zero))
        zeros = [zero] * len(crosses)
        # reach[i]: the largest q of an index (p, q) of the batch with p >= i
        reach = [-1] * (max(p for p, _ in alphas) + 1)
        for p, q in alphas:
            reach[p] = max(reach[p], q)
        for i in range(len(reach) - 2, -1, -1):
            reach[i] = max(reach[i], reach[i + 1])
        wanted = set(alphas)
        totals = {}
        a_above = h_above = None
        for i, top in enumerate(reach):
            a_row, h_row = [], []
            for j in range(top + 1):
                if i == j == 0:
                    a = h = crosses
                else:
                    a = _mul_add(x0s, a_above[j] if i else zeros,
                                 y0s, a_row[j - 1] if j else zeros, zeros, d)
                    h = _mul_add(x1s, h_above[j] if i else zeros,
                                 y1s, h_row[j - 1] if j else zeros, a, d)
                a_row.append(a)
                h_row.append(h)
                if (i, j) in wanted:
                    # p! q! divides (p+q+2)!, so the divisor is an int
                    scale = factorial(i + j + 2) // (factorial(i) * factorial(j)) * den ** (i + j + 2)
                    totals[i, j] = scalars.from_view(view_sum(h, d), scale, d)
            a_above, h_above = a_row, h_row
        return tuple(totals[alpha] for alpha in alphas)

    def locate(self, points) -> Located:
        """``_polygon_sign`` per point, on one view of vertices and points;
        the view handed back is the points' rows over that D."""
        m = len(self.vertex_list)
        den, d, rows = _point_view(self.vertex_list + tuple(points), 2)
        edges = list(zip(rows[:m], rows[1:m] + rows[:1]))
        return Located([_polygon_sign(pt, edges, d) for pt in rows[m:]], (den, d, rows[m:]))

    contains = Region.contains


def _double_factorial(k: int) -> int:
    """k (k-2) (k-4) ... down to 1 or 2; 1 for k <= 0."""
    return prod(range(k, 0, -2))


@record
class UnitDisc(Region):
    """Closed unit disc in the plane; all moments are pi multiples."""

    @property
    def dimension(self) -> int:
        return 2

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

    def locate(self, points) -> Located:
        """sign(D^2 - X^2 - Y^2) per point, on the view (X, Y) = D (x, y)."""
        view = den, d, rows = _point_view(points, self.dimension)
        top = den * den if d is None else (den * den, 0)
        squares = [view_plus(view_times(x, x, d), view_times(y, y, d), d) for x, y in rows]
        return Located([view_sign(view_minus(top, rr, d), d) for rr in squares], view)

    contains = Region.contains


def integrate_terms(region: Region, terms) -> Scalar:
    """Exact integral over the region of the polynomial given as
    (exponent tuple, coefficient) pairs: the sum of coeff * moment, with
    every moment from one batch."""
    terms = list(terms)
    total: Scalar = Fraction(0)
    for (_, coeff), moment in zip(terms, region.moments([alpha for alpha, _ in terms])):
        total = scalars.add(total, scalars.mul(coeff, moment))
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
        raise ValueError(f"malformed region encoding: {scalars.shown(repr(obj))}")
    if "simplex" in obj:
        return Simplex(scalars.int_from_json(obj["simplex"]))
    if "cube" in obj:
        return Cube(scalars.int_from_json(obj["cube"]))
    if "polygon" in obj:
        vertices = obj["polygon"]
        if not isinstance(vertices, list) or not all(
            isinstance(v, list) and len(v) == 2 for v in vertices
        ):
            raise ValueError(
                f"a polygon must be a list of [x, y] vertices, got {scalars.shown(repr(vertices))}"
            )
        return Polygon(
            [
                (scalars.scalar_from_json(x), scalars.scalar_from_json(y))
                for x, y in vertices
            ]
        )
    if "disc" in obj:
        return UnitDisc()
    raise ValueError(f"unknown region tag in {scalars.shown(repr(obj))}")
