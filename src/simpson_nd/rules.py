"""Cubature rules: weighted node sets over a region, plus the catalog of
named rules CR1..CR6 and the triangle midedge rule.

Every rule stores exact Scalar nodes and weights.  Node membership in the
closed region is verified exactly, one ``Region.locate`` call per node
list, so rules with irrational boundary nodes (CR5) are certified, not
assumed.  A rule's one ``NodeTable`` (``CubatureRule.table``) is built from
its nodes and weights on first use.  Every named rule is the paper's
lam*M(f) + (1-lam)*T(f), built by ``blend`` from one ``PaperForm``: one
moment batch of its region and one ``locate`` call over its centroid and
boundary node list.
"""

from __future__ import annotations

import operator
from collections import Counter
from fractions import Fraction
from functools import cached_property, partial
from itertools import chain
from math import lcm
from typing import Mapping

from . import scalars
from .errors import (
    DimensionMismatch,
    NodeNotOnBoundary,
    NodeOutsideRegion,
    WorkLimit,
)
from .record import _immutable, record
from .regions import (
    Cube,
    MultiIndex,
    Point,
    Region,
    Simplex,
    UnitDisc,
    region_from_json,
    region_to_json,
    trapezoid_paper,
)
from .scalars import PiMultiple, Scalar, as_scalar, is_zero, quad, view_minus, view_times


class MonomialPoly:
    """Sparse multivariate polynomial: multi-index -> rational coefficient.

    Zero coefficients are never stored.  Instances are treated as
    immutable; the arithmetic helpers return new values.
    """

    __slots__ = ("dimension", "terms")

    def __init__(self, dimension: int, terms: Mapping[MultiIndex, Fraction] | None = None):
        if dimension < 1:
            raise ValueError("polynomial dimension must be >= 1")
        clean: dict[MultiIndex, Fraction] = {}
        for alpha, coeff in (terms or {}).items():
            alpha = tuple(int(e) for e in alpha)
            if len(alpha) != dimension:
                raise DimensionMismatch(
                    f"term {alpha} does not have dimension {dimension}"
                )
            if any(e < 0 for e in alpha):
                raise ValueError(f"negative exponent in {alpha}")
            coeff = Fraction(coeff)
            if coeff != 0:
                clean[alpha] = coeff
        object.__setattr__(self, "dimension", dimension)
        object.__setattr__(self, "terms", clean)

    __setattr__ = __delattr__ = _immutable

    def __eq__(self, other):
        return (
            isinstance(other, MonomialPoly)
            and self.dimension == other.dimension
            and self.terms == other.terms
        )

    def __hash__(self):
        return hash((self.dimension, tuple(sorted(self.terms.items()))))

    def __repr__(self):
        return f"MonomialPoly({self.dimension}, {self.terms!r})"

    def degree(self) -> int:
        return max((sum(a) for a in self.terms), default=0)

    def evaluate(self, point: Point) -> Scalar:
        return NodeTable((tuple(point),), (Fraction(1),)).apply(self)

    def __add__(self, other: "MonomialPoly") -> "MonomialPoly":
        if self.dimension != other.dimension:
            raise DimensionMismatch("cannot add polynomials of different dimension")
        terms = dict(self.terms)
        for alpha, coeff in other.terms.items():
            terms[alpha] = terms.get(alpha, Fraction(0)) + coeff
        return MonomialPoly(self.dimension, terms)

    def __neg__(self) -> "MonomialPoly":
        return MonomialPoly(self.dimension, {a: -c for a, c in self.terms.items()})

    def __sub__(self, other: "MonomialPoly") -> "MonomialPoly":
        return self + (-other)

    def __mul__(self, other: "MonomialPoly") -> "MonomialPoly":
        if self.dimension != other.dimension:
            raise DimensionMismatch("cannot multiply polynomials of different dimension")
        terms: dict[MultiIndex, Fraction] = {}
        for a1, c1 in self.terms.items():
            for a2, c2 in other.terms.items():
                key = tuple(x + y for x, y in zip(a1, a2))
                terms[key] = terms.get(key, Fraction(0)) + c1 * c2
        return MonomialPoly(self.dimension, terms)

    def scale(self, factor) -> "MonomialPoly":
        factor = Fraction(factor)
        return MonomialPoly(
            self.dimension, {a: c * factor for a, c in self.terms.items()}
        )

    def __pow__(self, k: int) -> "MonomialPoly":
        if k < 0:
            raise ValueError("exponent must be non-negative")
        result = MonomialPoly(self.dimension, {(0,) * self.dimension: Fraction(1)})
        for _ in range(k):
            result = result * self
        return result


class NodeTable:
    """Nodes and weights laid out for many sums of w_j x^alpha(P_j): the
    package's one evaluator of x^alpha at exact points.

    The table keeps X = D x and W = Dw w on the integer view of
    ``scalars.integer_view``, over Z or Z[sqrt d], where D and Dw are the
    common denominators of the coordinates and of the weights, so
    sum_j w_j x^alpha(P_j) = (sum_j W_j X_j^alpha) / (Dw D^|alpha|) is int
    or int pair arithmetic and one conversion at the end.  ``times`` is the
    one power step: it takes the W_j X_j^alpha of one alpha to those of
    alpha + e_i, so ``terms`` builds them from the weights and the
    exactness scan from the previous degree's.  ``sum_view`` adds them up
    on the view, for the paper's rows, ``sum`` as a scalar for residuals
    and weight sums, and ``apply`` for polynomials (a one-node
    table with a unit weight is ``MonomialPoly.evaluate``); ``solve_weights``
    and the interpolation matrices take them, with unit weights, as their
    rows.  Nothing ties the nodes to a region, so a family system can be
    summed at parameter points that put nodes off the boundary.  When every
    weight is a pi multiple (CR6), W holds the coefficients and each sum
    comes back times pi, as ``solve_weights`` puts the pi back on the
    weights it solves for the disc's pi moments.  Every table sums this
    one way: a pi coordinate, a pi weight beside a pi-free one or a second
    radicand raises IncompatibleScalars, and nodes of different lengths
    raise DimensionMismatch.
    """

    __slots__ = ("nodes", "weights", "dimension", "radicand", "pi", "columns",
                 "scaled_weights", "denominator", "weight_denominator")

    def __init__(self, nodes, weights):
        pairs = tuple(zip(nodes, weights))
        self.nodes = tuple(p for p, _ in pairs)
        self.weights = tuple(w for _, w in pairs)
        if len(set(map(len, self.nodes))) > 1:
            raise DimensionMismatch("nodes have different numbers of coordinates")
        self.dimension = len(self.nodes[0]) if self.nodes else None
        self.pi = set(map(type, self.weights)) == {PiMultiple}
        weights = [w.coefficient for w in self.weights] if self.pi else list(self.weights)
        coordinates = list(chain.from_iterable(zip(*self.nodes)))
        d = self.radicand = scalars.radicand(coordinates + weights, "sum")
        self.weight_denominator, self.scaled_weights = scalars.integer_view(weights, d)
        self.denominator, flat = scalars.integer_view(coordinates, d)
        n = len(self.nodes)
        self.columns = tuple(flat[i:i + n] for i in range(0, len(flat), n))

    def times(self, terms: list, i: int) -> list:
        """The terms of alpha + e_i from the terms of alpha: each node's
        term times its coordinate i, one pass over column i."""
        d = self.radicand
        times = operator.mul if d is None else partial(scalars.view_times, d=d)
        return list(map(times, terms, self.columns[i]))

    def terms(self, alpha: MultiIndex) -> list:
        """W_j X_j^alpha on the view, one per node, by |alpha| calls of
        ``times`` from the weights: w_j x^alpha(P_j) is the j-th term over
        Dw D^|alpha|."""
        if len(alpha) != self.dimension:
            raise DimensionMismatch(
                f"point has {self.dimension} coordinates, dimension is {len(alpha)}"
            )
        terms = self.scaled_weights
        for i, e in enumerate(alpha):
            if e < 0:
                raise ValueError("exponent must be a non-negative integer")
            for _ in range(e):
                terms = self.times(terms, i)
        return terms

    def sum_view(self, alpha: MultiIndex) -> tuple:
        """(sum_j W_j X_j^alpha, Dw D^|alpha|): the sum at alpha on the view
        and its scale, as a region's ``_moment_view`` gives a moment."""
        return (scalars.view_sum(self.terms(alpha), self.radicand),
                self.weight_denominator * self.denominator ** sum(alpha))

    def sum(self, alpha: MultiIndex) -> Scalar:
        return _scalar(*self.sum_view(alpha), self.radicand, self.pi)

    def apply(self, poly: MonomialPoly) -> Scalar:
        """sum_j w_j p(P_j), one table sum per term of p."""
        total: Scalar = Fraction(0)
        for alpha, coeff in poly.terms.items():
            total = scalars.add(total, scalars.mul(coeff, self.sum(alpha)))
        return total


def monomial(alpha, coefficient=1) -> MonomialPoly:
    """Single-term polynomial x^alpha times an optional rational coefficient."""
    alpha = tuple(int(e) for e in alpha)
    return MonomialPoly(len(alpha), {alpha: Fraction(coefficient)})


@record
class CubatureRule:
    """Finite node/weight list over a region, all entries exact.

    ``table`` is the rule's one ``NodeTable``, built from ``nodes`` and
    ``weights`` on first use; residuals, weight sums and polynomial sums
    all read it."""

    region: Region
    nodes: tuple[Point, ...]
    weights: tuple[Scalar, ...]
    label: str = ""

    def __post_init__(self):
        nodes = scalars.as_points(self.nodes)
        weights = tuple(as_scalar(w) for w in self.weights)
        if len(nodes) == 0 or len(nodes) != len(weights):
            raise ValueError("rule needs equally many nodes and weights, at least one")
        dim = self.region.dimension
        # locate up to the first node of another length: the first offender names the error
        size = next((k for k, p in enumerate(nodes) if len(p) != dim), len(nodes))
        for p, s in zip(nodes, self.region.locate(nodes[:size])):
            if s < 0:
                raise NodeOutsideRegion(f"node {p} lies outside the region")
        if size < len(nodes):
            raise DimensionMismatch(f"node {nodes[size]} does not match region dimension {dim}")
        object.__setattr__(self, "nodes", nodes)
        object.__setattr__(self, "weights", weights)

    @cached_property
    def table(self) -> NodeTable:
        return NodeTable(self.nodes, self.weights)

    def weight_sum(self) -> Scalar:
        return self.table.sum((0,) * self.region.dimension)

    def apply_poly(self, poly: MonomialPoly) -> Scalar:
        """Exact weighted sum of polynomial values at the nodes."""
        if poly.dimension != self.region.dimension:
            raise DimensionMismatch(
                f"polynomial dimension {poly.dimension} does not match region"
            )
        return self.table.apply(poly)


def midpoint_rule(region: Region) -> CubatureRule:
    """The paper's M: ``blend`` at lam = 1, with no spread."""
    return blend(1, region, (), label="midpoint")


def vertex_rule(region: Region) -> CubatureRule:
    """Equal weights volume/(vertex count) at the region vertices."""
    verts = region.vertices()
    w = scalars.div(region.volume(), Fraction(len(verts)))
    return CubatureRule(region, verts, tuple(w for _ in verts), label="vertex")


def _located_rule(region: Region, nodes, weights, label: str) -> CubatureRule:
    """A rule of exact values that its builder located where they entered:
    it skips the second ``locate`` call that ``__post_init__`` makes."""
    rule = object.__new__(CubatureRule)
    rule.__dict__.update(region=region, nodes=nodes, weights=weights, label=label)
    return rule


def boundary_rule(region: Region, nodes) -> CubatureRule:
    """Equal weights volume/(node count) at caller-chosen boundary nodes."""
    nodes = scalars.as_points(nodes)
    if not nodes:
        raise ValueError("the spread T needs at least one boundary node")
    for p, s in zip(nodes, region.locate(nodes)):
        if s:
            raise NodeNotOnBoundary(f"node {p} is not on the region boundary")
    w = scalars.div(region.moments([(0,) * region.dimension])[0], Fraction(len(nodes)))
    return _located_rule(region, nodes, tuple(w for _ in nodes), "boundary")


def _scalar(x, q, d, pi: bool) -> Scalar:
    """The view value x over the int or view value q as a scalar, times pi
    when ``pi``: a table sum, a row entry or a residual shown to a caller."""
    value = scalars.from_view(x, q, d)
    return PiMultiple(value) if pi else value


def _scaled(x, k: int, d):
    """The view value x times the int k; under a radicand an int x is
    lifted to (x k, 0)."""
    if d is None:
        return x * k
    if type(x) is int:
        return x * k, 0
    return x[0] * k, x[1] * k


def _one_ring(*rings):
    """The (d, pi) that views on each (d, pi) of ``rings`` share, a rational
    view lifting into a radicand's; None for two radicands, for a pi view
    beside a pi-free one, and for pi times a radicand, which no scalar
    represents."""
    radicands = {d for d, _ in rings} - {None}
    pis = {pi for _, pi in rings}
    if len(radicands) > 1 or len(pis) > 1 or radicands and True in pis:
        return None
    return (radicands.pop() if radicands else None), pis.pop()


@record
class Row:
    """One target's equation lam*(M - T) == moment - T on the integer view:
    ``coef`` and ``rhs`` are S (M - T) and S (moment - T) for the row's
    scale S > 0, ints or Z[sqrt d] pairs, pi coefficients when ``pi``.

    S and the pi cancel from lam = rhs/coef, so rows compare by
    cross-multiplying: a row's residual lam*coef - rhs at the lam of the
    row ``by`` is (rhs_by coef - rhs coef_by) / (coef_by S), zero when
    rhs_by coef == rhs coef_by.  A scalar is built only for what a caller
    shows: a lam, a residual or the row itself (``scalars``).
    """

    coef: object
    rhs: object
    scale: int
    d: int | None
    pi: bool

    def __init__(self, coef, rhs, scale: int, d, pi: bool):
        # one dict update: half the time of the record's generic __init__
        self.__dict__.update(coef=coef, rhs=rhs, scale=scale, d=d, pi=pi)

    def _zero(self, x) -> bool:
        return not (x if self.d is None else x[0] or x[1])

    @property
    def coef_is_zero(self) -> bool:
        return self._zero(self.coef)

    @property
    def rhs_is_zero(self) -> bool:
        return self._zero(self.rhs)

    def scalars(self) -> tuple[Scalar, Scalar]:
        """(M - T, moment - T) as scalars."""
        return (_scalar(self.coef, self.scale, self.d, self.pi),
                _scalar(self.rhs, self.scale, self.d, self.pi))

    def lam(self) -> Scalar:
        """rhs/coef, for a coef that is not zero."""
        return scalars.from_view(self.rhs, self.coef, self.d)

    def _cross(self, by):
        """rhs_by coef - rhs coef_by."""
        d = self.d
        return view_minus(view_times(by.rhs, self.coef, d), view_times(self.rhs, by.coef, d), d)

    def agrees(self, by) -> bool:
        """Whether this row's lam is the lam of the row ``by``, for two rows
        whose coef is not zero."""
        return self._zero(self._cross(by))

    def residual(self, by) -> Scalar:
        """lam*coef - rhs at the lam of the row ``by``."""
        return _scalar(self._cross(by), _scaled(by.coef, self.scale, self.d), self.d, self.pi)

    def at(self, lam) -> Scalar:
        """lam*coef - rhs at an exact scalar lam: on the view for a rational
        lam, by scalar arithmetic on the row's scalars for any other."""
        if type(lam) is not Fraction:
            return ScalarRow(*self.scalars()).at(lam)
        d = self.d
        top = view_minus(_scaled(self.coef, lam.numerator, d),
                         _scaled(self.rhs, lam.denominator, d), d)
        return _scalar(top, self.scale * lam.denominator, d, self.pi)


@record
class ScalarRow:
    """(M - T, moment - T) as scalars, with the methods of ``Row``: the row
    of a target whose M, T and moment share no one ring."""

    coef: Scalar
    rhs: Scalar

    @property
    def coef_is_zero(self) -> bool:
        return is_zero(self.coef)

    @property
    def rhs_is_zero(self) -> bool:
        return is_zero(self.rhs)

    def scalars(self) -> tuple[Scalar, Scalar]:
        return self.coef, self.rhs

    def lam(self) -> Scalar:
        return scalars.div(self.rhs, self.coef)

    def agrees(self, by) -> bool:
        return scalars.eq(self.lam(), by.lam())

    def residual(self, by) -> Scalar:
        return self.at(by.lam())

    def at(self, lam) -> Scalar:
        return scalars.sub(scalars.mul(lam, self.coef), self.rhs)


class PaperForm:
    """The paper's lam*M(f) + (1-lam)*T(f) on ``region``: M(f) = A f(P)
    with the volume A and the centroid P, and T puts A/k on each of the k
    boundary nodes of a spread.  One ``mass_and_moments`` batch gives A, P
    and the moments of ``alphas``.  The rows read M and the moments on the
    integer view, each computed once per form, on first use: M at each
    alpha from one one-node table (P, A) (``m_sums``) and the moments from
    the region's ``_moment_view`` (``moment_views``).  M does not depend on
    the spread, so a family system keeps one form and sums only T at each
    parameter point.  ``blend``, ``solve_lambda``, ``derive --mode
    weights`` and the family systems all build on this one form.
    """

    def __init__(self, region: Region, alphas=()):
        self.region = region
        self.alphas = alphas
        self.volume, self.centroid, self.moments = region.mass_and_moments(alphas)

    @cached_property
    def m_sums(self) -> tuple:
        """M at each alpha as (d, pi, [(sum, scale), ...]) on the view of the
        one-node table (P, A), laid out as a region's ``_moment_view``."""
        table = NodeTable((self.centroid,), (self.volume,))
        return table.radicand, table.pi, list(map(table.sum_view, self.alphas))

    @cached_property
    def moment_views(self) -> tuple:
        """The region's ``_moment_view`` of the targets."""
        return self.region._moment_view(self.alphas) if self.alphas else (None, False, [])

    def check(self, spread):
        """One ``locate`` call over P and the exact ``spread``: it raises
        NodeOutsideRegion for a centroid outside the region and
        NodeNotOnBoundary for the first spread node off the boundary."""
        inside, *signs = self.region.locate((self.centroid,) + spread)
        if inside < 0:
            raise NodeOutsideRegion(f"node {self.centroid} lies outside the region")
        for p, s in zip(spread, signs):
            if s:
                raise NodeNotOnBoundary(f"node {p} is not on the region boundary")

    def _share(self, spread) -> Scalar:
        """A/k, T's weight on each of the k spread nodes; an empty spread
        raises ValueError."""
        if not spread:
            raise ValueError("the spread T needs at least one boundary node")
        return scalars.div(self.volume, Fraction(len(spread)))

    def rows(self, spread):
        """The ``Row`` of each target in turn, lazily, with T from one table
        of the spread: the rows lam*(M - T) == moment - T of ``solve_lambda``
        and the family systems, whose blend residual at lam is
        lam*(M - T) - (moment - T).  When M, T and the moments share no one
        ring (``_one_ring``), each is a ``ScalarRow`` of their scalars
        instead.  The spread is not checked."""
        (m_d, m_pi, m_sums), share = self.m_sums, self._share(spread)
        table = NodeTable(spread, (share,) * len(spread))
        q_d, q_pi, q_views = self.moment_views
        ring = _one_ring((m_d, m_pi), (table.radicand, table.pi), (q_d, q_pi))
        if ring is None:
            m_values = (_scalar(*m, m_d, m_pi) for m in m_sums)
            return (ScalarRow(scalars.sub(m, t), scalars.sub(moment, t))
                    for m, t, moment in zip(m_values, map(table.sum, self.alphas), self.moments))
        return map(partial(self.row, ring=ring), m_sums, map(table.sum_view, self.alphas), q_views)

    @staticmethod
    def row(m, t, moment, ring) -> Row:
        """One target's ``Row`` from its M, T and moment, each a (view, scale)
        pair on the one ring (d, pi), over the lcm of their scales.  The
        simplex3 vertex search builds its rows here too, with T from its
        table of candidates."""
        d, pi = ring
        (m, m_scale), (t, t_scale), (moment, q) = m, t, moment
        scale = lcm(m_scale, t_scale, q)
        t = _scaled(t, scale // t_scale, d)
        return Row(view_minus(_scaled(m, scale // m_scale, d), t, d),
                   view_minus(_scaled(moment, scale // q, d), t, d), scale, d, pi)

    def rule(self, lam, spread, label: str) -> CubatureRule:
        """The blend at the exact ``spread`` after ``check``: the centroid
        with weight lam*A, then each spread node with (1-lam)*A/k; nodes
        whose weight is exactly zero are dropped.  An empty spread is
        allowed only at lam = 1, and raises ValueError elsewhere."""
        self.check(spread)
        lam = as_scalar(lam)
        pairs = [(self.centroid, scalars.mul(lam, self.volume))]
        if spread or not scalars.eq(lam, 1):
            share = scalars.mul(scalars.sub(Fraction(1), lam), self._share(spread))
            pairs += [(p, share) for p in spread]
        nodes, weights = zip(*(pair for pair in pairs if not is_zero(pair[1])))
        return _located_rule(self.region, nodes, weights, label)


def blend(lam, region: Region, spread, label: str = "") -> CubatureRule:
    """The paper's rule lam*M(f) + (1-lam)*T(f) on ``region`` for an exact
    scalar lam, checked by ``PaperForm.check`` (also at lam = 0).  Nodes
    whose weight is exactly zero are dropped, so lam in {0, 1} leaves the
    spread or the centroid alone.
    """
    spread = scalars.as_points(spread)
    return PaperForm(region).rule(lam, spread, label)


# CR1..CR3 are built for n <= MAX_RULE_DIMENSION only: CR3(n) has 2^n + 1
# nodes, all built at once (CR3(12) takes 0.15-0.17 s on one core of a 2-vCPU
# Xeon).  Certifying them no longer scans every monomial in n variables: they
# are closed under coordinate permutations, so exactness_degree scans one
# exponent tuple per orbit over an integer node table (CR3(12) through
# degree 5 in about 0.05 s).
MAX_RULE_DIMENSION = 12


def _check_rule_dimension(n: int) -> None:
    if n > MAX_RULE_DIMENSION:
        raise WorkLimit(f"dimension {n} is above the limit of {MAX_RULE_DIMENSION} for CR1..CR3")


def cr1(n: int) -> CubatureRule:
    """Center-plus-vertices blend on the n-simplex, blend parameter
    (n+1)/(n+2); exact for every quadratic."""
    _check_rule_dimension(n)
    region = Simplex(n)
    return blend(Fraction(n + 1, n + 2), region, region.vertices(), label=f"CR1({n})")


def _face_centers(n: int) -> tuple[Point, ...]:
    pts = []
    for k in range(n):
        pts.append(
            tuple(Fraction(0) if i == k else Fraction(1, n) for i in range(n))
        )
    pts.append(tuple(Fraction(1, n) for _ in range(n)))
    return tuple(pts)


def cr2(n: int) -> CubatureRule:
    """Center-plus-face-centers blend on the n-simplex, blend parameter
    -(n-2)(n+1)/(n+2); exact for every quadratic.  The center weight is
    negative for n >= 3 and zero for n = 2."""
    _check_rule_dimension(n)
    lam = Fraction(-(n - 2) * (n + 1), n + 2)
    return blend(lam, Simplex(n), _face_centers(n), label=f"CR2({n})")


def cr3(n: int) -> CubatureRule:
    """Center-plus-vertices blend on the n-cube with blend parameter 2/3;
    exact for every cubic.  For n = 1 this is classical Simpson's rule."""
    _check_rule_dimension(n)
    region = Cube(n)
    return blend(Fraction(2, 3), region, region.vertices(), label=f"CR3({n})")


def _square_midedges() -> tuple[Point, ...]:
    h = Fraction(1, 2)
    return ((h, Fraction(0)), (Fraction(0), h), (h, Fraction(1)), (Fraction(1), h))


def cr4() -> CubatureRule:
    """Center-plus-edge-midpoints blend on the unit square, blend parameter
    1/3; exact for every cubic and additionally for x^3 y and x y^3."""
    return blend(Fraction(1, 3), Cube(2), _square_midedges(), label="CR4")


CR5_LAMBDA = Fraction(163, 392)


def cr5_parameters(conjugate: bool) -> tuple[Scalar, Scalar, Scalar, Scalar]:
    """(a, b, c, d) placing the CR5 nodes (a,0), (0,b), (1,c), (d,d+1) in
    Q(sqrt(3893)); the conjugate branch flips the sign of sqrt(3893)."""
    s = -1 if conjugate else 1
    return (
        quad(Fraction(11, 18), -s * Fraction(1, 458), 3893),
        quad(Fraction(1, 2), s * Fraction(11, 4122), 3893),
        quad(Fraction(1), -s * Fraction(10, 2061), 3893),
        quad(Fraction(11, 18), s * Fraction(1, 458), 3893),
    )


def _cr5_boundary_nodes(conjugate: bool) -> tuple[Point, ...]:
    a, b, c, d = cr5_parameters(conjugate)
    return (
        (a, Fraction(0)),
        (Fraction(1), c),
        (Fraction(0), b),
        (d, scalars.add(d, Fraction(1))),
    )


def cr5() -> CubatureRule:
    """Degree-2 rule on the trapezoid (0,0),(1,0),(1,2),(0,1): center of
    mass blended with four boundary nodes whose coordinates live in
    Q(sqrt(3893)), blend parameter 163/392."""
    return blend(CR5_LAMBDA, trapezoid_paper(), _cr5_boundary_nodes(False), label="CR5")


def cr5_conjugate() -> CubatureRule:
    """The companion CR5 solution with sqrt(3893) replaced by its negative."""
    return blend(CR5_LAMBDA, trapezoid_paper(), _cr5_boundary_nodes(True), label="CR5*")


# CR6's boundary nodes, and derive's spread nodes on the vertex-free disc
DISC_AXIS_POINTS = tuple((Fraction(x), Fraction(y)) for x, y in ((1, 0), (0, 1), (-1, 0), (0, -1)))


def cr6() -> CubatureRule:
    """Unit-disc rule pi/2 f(0,0) + pi/8 (f(1,0)+f(0,1)+f(-1,0)+f(0,-1));
    exact for every cubic."""
    return blend(Fraction(1, 2), UnitDisc(), DISC_AXIS_POINTS, label="CR6")


def triangle_midedge() -> CubatureRule:
    """Weights 1/6 at the three edge midpoints of the standard triangle;
    exact for every quadratic: the blend with lam = 0."""
    h, zero = Fraction(1, 2), Fraction(0)
    return blend(0, Simplex(2), ((h, zero), (zero, h), (h, h)), label="TriangleMidedge")


_NAMED_NEED_DIM = {"CR1": cr1, "CR2": cr2, "CR3": cr3}
_NAMED_FIXED = {
    "CR4": cr4,
    "CR5": cr5,
    "CR5*": cr5_conjugate,
    "CR6": cr6,
    "TRIANGLEMIDEDGE": triangle_midedge,
}


def named_rule(name: str, dim: int | None = None) -> CubatureRule:
    """Look up a rule by catalog name; CR1..CR3 need a dimension, and the
    other rules refuse any dimension but their own."""
    key = name.strip().upper()
    if key in _NAMED_NEED_DIM:
        if dim is None:
            raise ValueError(f"rule {name} needs a dimension")
        return _NAMED_NEED_DIM[key](dim)
    if key in _NAMED_FIXED:
        rule = _NAMED_FIXED[key]()
        if dim is not None and dim != rule.region.dimension:
            raise ValueError(f"rule {name} has dimension {rule.region.dimension}, not {dim}")
        return rule
    raise ValueError(f"unknown rule name: {name}")


def rules_equivalent(a: CubatureRule, b: CubatureRule) -> bool:
    """Same region and same node/weight multiset, exactly."""
    # scalars hash and compare exactly
    same = Counter(zip(a.nodes, a.weights)) == Counter(zip(b.nodes, b.weights))
    return a.region == b.region and same


def rule_to_json(rule: CubatureRule) -> dict:
    return {
        "label": rule.label,
        "region": region_to_json(rule.region),
        "nodes": [
            [scalars.scalar_to_json(c) for c in node] for node in rule.nodes
        ],
        "weights": [scalars.scalar_to_json(w) for w in rule.weights],
    }


def rule_from_json(obj) -> CubatureRule:
    if not isinstance(obj, dict) or not {"region", "nodes", "weights"} <= set(obj):
        raise ValueError(
            f"a rule needs the keys region, nodes and weights, got {scalars.shown(repr(obj))}"
        )
    nodes, weights, label = obj["nodes"], obj["weights"], obj.get("label", "")
    if not isinstance(nodes, list) or not all(isinstance(p, list) for p in nodes):
        raise ValueError(
            f"rule nodes must be a list of coordinate lists, got {scalars.shown(repr(nodes))}"
        )
    if not isinstance(weights, list):
        raise ValueError(f"rule weights must be a list, got {scalars.shown(repr(weights))}")
    if not isinstance(label, str):
        raise ValueError(f"a rule label must be a string, got {scalars.shown(repr(label))}")
    return CubatureRule(
        region_from_json(obj["region"]),
        tuple(tuple(scalars.scalar_from_json(c) for c in node) for node in nodes),
        tuple(scalars.scalar_from_json(w) for w in weights),
        label=label,
    )
