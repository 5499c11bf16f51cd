"""Parameterized boundary-node systems and their published solution
families, verified by exact substitution.

Every system is the paper's blend lam*M + (1-lam)*T on one region: M puts
the region volume at the centroid, and T spreads it equally over boundary
nodes placed by a few parameters.  A system is data, a node
parameterization plus a table of named target monomials, and its residuals
come from the rows of one ``rules.PaperForm``: the blend applied to each
target minus the region moment.  A parameter point solves the system
exactly when every residual is zero.  The solution families reduce each
system to one free parameter; the reductions are checked by substitution
here, never re-derived with a computer algebra system.
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from functools import cached_property
from typing import Callable, Sequence

from . import rules, scalars
from .errors import DenominatorZero, SingularInterpolation, WorkLimit
from .exactness import UniqueSolution, gauss_jordan, solve_weights
from .record import record
from .regions import Cube, Point, Region, Simplex, trapezoid_paper
from .rules import CubatureRule, NodeTable, PaperForm
from .scalars import Scalar, as_scalar, is_zero


@record
class SystemResiduals:
    """Named residuals of one polynomial system at one parameter point."""

    names: tuple[str, ...]
    residuals: tuple[Scalar, ...]

    @property
    def all_zero(self) -> bool:
        return all(is_zero(r) for r in self.residuals)

    def as_dict(self) -> dict[str, Scalar]:
        return dict(zip(self.names, self.residuals))


class BlendSystem:
    """``blend``'s lam*M + (1-lam)*T with boundary nodes placed by parameters.

    ``make_region`` builds the region on first use, so importing this
    module does no geometry; ``place`` maps the node parameters to the
    boundary nodes; ``targets`` lists the (name, exponent) rows in output
    order.  Nodes are placed without any membership check, so a parameter
    point may put them off the boundary.

    The system keeps one ``rules.PaperForm`` of its region and targets,
    with M at each target, which no parameter changes.  A parameter point
    then costs one row pass of the form, with T from one table of its
    spread, and its residual at lam is lam*(M - T) - (moment - T): the
    blend minus the moment.
    """

    def __init__(self, make_region: Callable[[], Region],
                 place: Callable[..., tuple[Point, ...]], targets):
        self.make_region = make_region
        self.place = place
        self.names = tuple(name for name, _ in targets)
        self.alphas = tuple(alpha for _, alpha in targets)

    @cached_property
    def form(self) -> PaperForm:
        """Computed on first use, once per system."""
        return PaperForm(self.make_region(), self.alphas)

    def nodes(self, params) -> tuple[Point, ...]:
        return self.place(*(as_scalar(v) for v in params))

    def rows(self, params):
        """The form's (M - T, moment - T) at the nodes ``params`` place,
        lazily for each target in turn."""
        return self.form.rows(self.nodes(params))

    def residuals(self, params, lam) -> SystemResiduals:
        rows = self.rows(params)
        return self._at(as_scalar(lam), rows)

    def blend_parameter(self, params) -> Scalar:
        """lam from the first row whose coef = M - T is nonzero, at the
        nodes ``params`` place; DenominatorZero if none is."""
        return _row_lambda(self.rows(params))

    def lambda_and_residuals(self, params) -> tuple[Scalar, SystemResiduals]:
        """``blend_parameter`` and the residuals at that lam, from one row
        pass."""
        rows = tuple(self.rows(params))
        lam = _row_lambda(rows)
        return lam, self._at(lam, rows)

    def _at(self, lam, rows) -> SystemResiduals:
        return SystemResiduals(self.names, tuple(_row_residual(lam, row) for row in rows))

    def rule(self, params, lam, label: str) -> CubatureRule:
        """``blend(lam, region, nodes)`` from the system's form."""
        return self.form.rule(lam, self.nodes(params), label)


def _row_lambda(rows) -> Scalar:
    """lam = rhs/coef of the first (coef, rhs) row with coef = M - T
    nonzero; DenominatorZero if none is."""
    for coef, rhs in rows:
        if not is_zero(coef):
            return scalars.div(rhs, coef)
    raise DenominatorZero("M and T agree on every target, so no blend parameter is defined")


def _row_residual(lam, row) -> Scalar:
    """lam*coef - rhs: the blend at lam minus the moment, for a row
    (M - T, moment - T)."""
    coef, rhs = row
    return scalars.sub(scalars.mul(lam, coef), rhs)


_0, _1 = Fraction(0), Fraction(1)

_TRIANGLE = BlendSystem(
    lambda: Simplex(2),
    lambda a, b, c: ((a, _0), (_0, b), (c, scalars.sub(_1, c))),
    (("x", (1, 0)), ("y", (0, 1)), ("x^2", (2, 0)), ("y^2", (0, 2)), ("xy", (1, 1))),
)

_SQUARE = BlendSystem(
    lambda: Cube(2),
    lambda a, b, c, d: ((a, _0), (_0, b), (c, _1), (_1, d)),
    (
        ("x", (1, 0)), ("y", (0, 1)), ("x^2", (2, 0)), ("y^2", (0, 2)), ("xy", (1, 1)),
        ("x^3", (3, 0)), ("y^3", (0, 3)), ("x^2*y", (2, 1)), ("x*y^2", (1, 2)),
    ),
)

_TRAPEZOID = BlendSystem(
    trapezoid_paper,
    lambda a, b, c, d: ((a, _0), (_0, b), (_1, c), (d, scalars.add(d, _1))),
    (("x", (1, 0)), ("y", (0, 1)), ("xy", (1, 1)), ("x^2", (2, 0)), ("y^2", (0, 2))),
)

# The linear rows first: simplex3_face_system scales them, and the vertex
# search prunes on them.
_SIMPLEX3 = BlendSystem(
    lambda: Simplex(3),
    lambda a1, a2, a3, a4, a5, a6, a7, a8: (
        (a1, a2, _0),
        (a3, _0, a4),
        (_0, a5, a6),
        (a7, a8, scalars.sub(scalars.sub(_1, a7), a8)),
    ),
    (
        ("x", (1, 0, 0)), ("y", (0, 1, 0)), ("z", (0, 0, 1)),
        ("xy", (1, 1, 0)), ("xz", (1, 0, 1)), ("yz", (0, 1, 1)),
        ("x^2", (2, 0, 0)), ("y^2", (0, 2, 0)), ("z^2", (0, 0, 2)),
    ),
)
_SIMPLEX3_LINEAR_ROWS = 3
_MINUS_24 = Fraction(-24)


def triangle_system(a, b, c, lam) -> SystemResiduals:
    """Residuals for x, y, x^2, y^2, xy of the standard-triangle blend with
    boundary nodes (a,0), (0,b), (c,1-c)."""
    return _TRIANGLE.residuals((a, b, c), lam)


def square_system(a, b, c, d, lam) -> SystemResiduals:
    """Residuals for x, y, x^2, y^2, xy, x^3, y^3, x^2 y, x y^2 of the
    unit-square blend with boundary nodes (a,0), (0,b), (c,1), (1,d)."""
    return _SQUARE.residuals((a, b, c, d), lam)


@record
class PointFamily:
    """A one-parameter family of a system: ``place`` maps the parameter t
    and 1 - t to the system's node parameters, and lam comes from the
    system's rows at those nodes.

    ``parameter`` names t, and ``default``, a constant, is the t that
    ``family`` takes without ``--param``.  ``selector`` holds the ascending coefficients of
    the polynomial whose rational roots are the family's distinguished
    parameters.  ``member_names`` are the node parameters that ``family``
    prints as the member (none: it prints lam alone), and ``roots_label``
    captions the roots.
    """

    system: BlendSystem
    place: Callable[[Scalar, Scalar], tuple[Scalar, ...]]
    parameter: str
    selector: tuple[Fraction, ...]
    member_names: str
    roots_label: str
    default = "1/2"

    def member(self, t) -> tuple[tuple[Scalar, ...], Scalar, SystemResiduals]:
        """The node parameters at t, lam and the residuals at lam, from one
        row pass."""
        t = as_scalar(t)
        params = self.place(t, scalars.sub(_1, t))
        return (params, *self.system.lambda_and_residuals(params))

    def verify(self, t) -> tuple[bool, SystemResiduals]:
        """Substitute the member at t: whether every residual is zero, and
        the residuals."""
        res = self.member(t)[2]
        return res.all_zero, res

    def rule(self, t, label: str = "") -> CubatureRule:
        """The member at t as a rule over the system's region."""
        params, lam, _ = self.member(t)
        return self.system.rule(params, lam, label)

    def selector_roots(self) -> set[Fraction]:
        return rational_roots(self.selector)


FAMILIES = {
    "triangle": PointFamily(
        system=_TRIANGLE,
        place=lambda c, one_minus_c: (one_minus_c, c, c),
        parameter="c",
        # 6c^2 (2c - 1)^2.  Its roots label configurations, not an extra
        # exactness: c = 0 puts the nodes at the vertices (CR1(2)), and
        # c = 1/2 is the midedge rule, the one member with lam = 0.  c = 1
        # gives the same vertex rule as c = 0 but is not a root.  The roots
        # stay {0, 1/2}, as verify_all.json, the family_triangle_param* golden
        # files and benchmarks/expected.json pin them.
        selector=(Fraction(0), Fraction(0), Fraction(6), Fraction(-24), Fraction(24)),
        member_names="abc",
        roots_label="distinguished parameters",
    ),
    "square": PointFamily(
        system=_SQUARE,
        place=lambda d, one_minus_d: (d, one_minus_d, one_minus_d, d),
        parameter="d",
        # d (2d - 1)(d - 1), whose roots are the members exact for x^3 y (and
        # then also x y^3): the vertex cases d = 0, 1 and the midedge d = 1/2
        selector=(Fraction(0), Fraction(1), Fraction(-3), Fraction(2)),
        member_names="",
        roots_label="parameters with the extra x^3*y exactness",
    ),
}

verify_triangle_family = FAMILIES["triangle"].verify
triangle_selector_roots = FAMILIES["triangle"].selector_roots
verify_square_family = FAMILIES["square"].verify
square_selector_roots = FAMILIES["square"].selector_roots


def trapezoid_system(a, b, c, d, lam) -> SystemResiduals:
    """Residuals for x, y, xy, x^2, y^2 of the trapezoid blend with
    boundary nodes (a,0), (0,b), (1,c), (d,d+1) on the trapezoid
    (0,0),(1,0),(1,2),(0,1)."""
    return _TRAPEZOID.residuals((a, b, c, d), lam)


def trapezoid_family_member(conjugate: bool = False):
    """(a, b, c, d, lam) solving the trapezoid system over Q(sqrt(3893)):
    the CR5 node parameters.

    The two members come from the conjugate roots
    d = 11/18 +- (1/458) sqrt(3893); the companion parameters follow from
    the linear relations 9a + 9d = 11, 81b - 99d = -20, 81c + 180d = 191,
    and lam = 163/392 either way.
    """
    return (*rules.cr5_parameters(conjugate), rules.CR5_LAMBDA)


# The published face-centre member (every parameter 1/3, lam = -4/5, which
# rebuilds CR2(3)) and the blend the vertex search keeps
SIMPLEX3_FACE_CENTERS = ((Fraction(1, 3),) * 8, Fraction(-4, 5))
SIMPLEX3_VERTEX_LAMBDA = Fraction(4, 5)


def simplex3_face_system(a: Sequence, lam) -> SystemResiduals:
    """Residuals of the 3-simplex blend with one node on each face:
    Q1 = (a1,a2,0), Q2 = (a3,0,a4), Q3 = (0,a5,a6), Q4 = (a7,a8,1-a7-a8).

    The three linear residuals are the simplified node-placement
    equations a1+a3+a7 = 1, a2+a5+a8 = 1, a4+a6-a7-a8 = 0: the raw blend
    residuals for x, y, z divided by (1-lam)/24, so valid whenever
    lam != 1.  On a linear target M equals the moment, so the raw
    residual is (1-lam)*(T - moment), and T weighs each of the four nodes
    with volume/4 = 1/24: each linear residual is 24*(T - moment), -24
    times its row's rhs.  The six quadratic residuals (xy, xz, yz, x^2,
    y^2, z^2) are the raw blend residuals, lam*coef - rhs.  All nine rows
    come from one row pass.
    """
    if len(a) != 8:
        raise ValueError("need exactly eight face parameters")
    rows = tuple(_SIMPLEX3.rows(a))
    lam = as_scalar(lam)
    return SystemResiduals(
        _SIMPLEX3.names,
        tuple(scalars.mul(_MINUS_24, rhs) for _, rhs in rows[:_SIMPLEX3_LINEAR_ROWS])
        + tuple(_row_residual(lam, row) for row in rows[_SIMPLEX3_LINEAR_ROWS:]),
    )


def simplex3_face_rule(a: Sequence, lam, label: str = "") -> CubatureRule:
    """Build the actual rule for a face-system parameter point."""
    return _SIMPLEX3.rule(a, lam, label)


def simplex3_vertex_solutions() -> list[tuple[Fraction, ...]]:
    """Search all placements that put each face node at a vertex of its
    face, keeping lam = 4/5, and return the parameter tuples that zero
    the whole system, in ``itertools.product`` order of the corners.

    One NodeTable holds the 12 candidate nodes, each face's node at each
    of its three corners, with T's weight volume/4, so each target's terms
    come once from the table's one power loop.  A placement's T(x^alpha)
    is then four of those ints added, over the table's scale.  The three
    linear rows prune first: they vanish only where T equals the moment,
    and only 9 of the 81 placements pass.  The six quadratic rows of the
    system's form, lam*coef - rhs, run on those 9.  Each solution
    uses the four simplex vertices exactly once.

    Whether the system admits any solution with lam = 0 is not settled by
    this package.
    """
    zero, one = Fraction(0), Fraction(1)
    corners = ((zero, zero), (one, zero), (zero, one))
    lam = SIMPLEX3_VERTEX_LAMBDA
    form = _SIMPLEX3.form
    by_corner = [_SIMPLEX3.nodes(corner * 4) for corner in corners]
    # the node of face f at corner k is candidate 3*f + k
    table = NodeTable([nodes[f] for f in range(4) for nodes in by_corner],
                      (scalars.div(form.volume, Fraction(4)),) * 12)
    terms = [table.terms(alpha) for alpha in form.alphas]
    scales = [table.weight_denominator * table.denominator ** sum(alpha) for alpha in form.alphas]
    linear = _SIMPLEX3_LINEAR_ROWS
    # T equals the moment on every linear target
    goals = [moment * scale for moment, scale in zip(form.moments[:linear], scales)]
    m_sums, moments = form.m_sums[linear:], form.moments[linear:]
    solutions = []
    for i, j, k, m in itertools.product(range(3), range(3, 6), range(6, 9), range(9, 12)):
        sums = [t[i] + t[j] + t[k] + t[m] for t in terms]
        if sums[:linear] != goals:
            continue
        rows = map(form.row, m_sums, map(Fraction, sums[linear:], scales[linear:]), moments)
        if all(is_zero(_row_residual(lam, row)) for row in rows):
            solutions.append(tuple(c for n in (i, j, k, m) for c in corners[n % 3]))
    return solutions


def _matrix_at(nodes, basis_exponents) -> tuple[tuple[Scalar, ...], ...]:
    """x^alpha(P) with one row per node P and one column per alpha, from
    one unit-weight node table: each term over D^|alpha| is an entry."""
    table = NodeTable(nodes, (Fraction(1),) * len(nodes))
    d, den = table.radicand, table.denominator
    columns = [[scalars.from_view(t, den ** sum(alpha), d) for t in table.terms(alpha)]
               for alpha in basis_exponents]
    return tuple(zip(*columns))


def exact_det(matrix) -> Scalar:
    """Determinant by ``gauss_jordan``, which eliminates fraction-free over Z
    or Z[sqrt d] (Bareiss, Math. Comp. 22, 1968): the swap sign times the
    last pivot of the rows scaled to integers, over the product of the
    row scales.  Entries are rationals and values over one radicand; a pi
    multiple raises IncompatibleScalars."""
    rows = [list(row) for row in matrix]
    if any(len(row) != len(rows) for row in rows):
        raise ValueError("matrix must be square")
    return gauss_jordan(rows, len(rows))[1]


QUADRATIC_BASIS = ((2, 0), (0, 2), (1, 0), (0, 1), (0, 0))
BILINEAR_BASIS = ((1, 1), (1, 0), (0, 1), (0, 0))


def interp_matrix_quadratic(a, b, c, d):
    """Coefficient matrix of the basis {x^2, y^2, x, y, 1} at the nodes
    (a,0), (0,b), (c,1), (1,d), (1/2,1/2), with its exact determinant:
    the square system's nodes and the centroid."""
    nodes = _SQUARE.nodes((a, b, c, d)) + ((Fraction(1, 2),) * 2,)
    matrix = _matrix_at(nodes, QUADRATIC_BASIS)
    return matrix, exact_det(matrix)


def interp_matrix_bilinear(a, b, c, d):
    """Coefficient matrix of the basis {xy, x, y, 1} at the boundary nodes
    (a,0), (0,b), (1,c), (d,1), with its exact determinant.

    Note the third and fourth nodes sit on the right and top edges in
    this order; that is the convention under which the closed-form
    determinant below holds.
    """
    a, b, c, d = (as_scalar(v) for v in (a, b, c, d))
    zero, one = Fraction(0), Fraction(1)
    nodes = ((a, zero), (zero, b), (one, c), (d, one))
    matrix = _matrix_at(nodes, BILINEAR_BASIS)
    return matrix, exact_det(matrix)


def bilinear_det_closed_form(a, b, c, d) -> Scalar:
    """cab - ac - cdb - dab + dac + db, the determinant of the bilinear
    interpolation matrix as a polynomial in the node parameters."""
    a, b, c, d = (as_scalar(v) for v in (a, b, c, d))

    def prod(*vals) -> Scalar:
        acc: Scalar = Fraction(1)
        for v in vals:
            acc = scalars.mul(acc, v)
        return acc

    terms = [
        prod(c, a, b),
        scalars.neg(prod(a, c)),
        scalars.neg(prod(c, d, b)),
        scalars.neg(prod(d, a, b)),
        prod(d, a, c),
        prod(d, b),
    ]
    acc: Scalar = Fraction(0)
    for t in terms:
        acc = scalars.add(acc, t)
    return acc


def solve_linear_system(matrix, rhs) -> tuple[Scalar, ...]:
    """Exact solve of a square system; raises SingularInterpolation when
    the matrix is singular.  No source module calls it since
    integrate_interpolant takes its weights from solve_weights;
    benchmarks/tracing.py still wraps it by name."""
    n = len(matrix)
    rows = [list(row) + [as_scalar(b)] for row, b in zip(matrix, rhs)]
    pivots, _ = gauss_jordan(rows, n)
    if len(pivots) < n:
        raise SingularInterpolation("coefficient matrix is singular")
    return tuple(row[n] for row in rows)


def _interpolatory_weights(region: Region, basis, nodes) -> tuple[Scalar, ...]:
    """The weights w of the rule that integrates the interpolant exactly:
    the one solution of V^T w = m, with V the basis at the nodes and m the
    basis moments (Davis and Rabinowitz, Methods of Numerical Integration,
    1984), from one ``solve_weights`` call and its work limits.  V is
    singular exactly when V^T is, and then SingularInterpolation."""
    outcome = solve_weights(nodes, basis, region.moments(basis))
    if not isinstance(outcome, UniqueSolution):
        raise SingularInterpolation("coefficient matrix is singular")
    return outcome.values


def integrate_interpolant(region: Region, basis, nodes, data) -> Scalar:
    """Exact integral over the region of the unique combination of basis
    monomials through the (node, value) pairs: the data dotted with the
    interpolatory weights.

    basis and nodes must have equal length; a singular fit raises
    SingularInterpolation, and a system past ``solve_weights``' limits
    WorkLimit.
    """
    basis = [tuple(int(e) for e in alpha) for alpha in basis]
    nodes = scalars.as_points(nodes)
    data = tuple(as_scalar(v) for v in data)
    if not (len(basis) == len(nodes) == len(data)):
        raise ValueError("basis, nodes, and data must have equal length")
    total: Scalar = Fraction(0)
    for value, weight in zip(data, _interpolatory_weights(region, basis, nodes)):
        total = scalars.add(total, scalars.mul(value, weight))
    return total


# The rational root test finds the divisors of both end coefficients by trial
# division up to their square roots, then tries every pair of them.  An end
# coefficient above MAX_ROOT_COEFFICIENT (trial division takes about 0.15 s at
# the limit) or more than MAX_DIVISOR_PAIRS pairs (about 0.45 s for a cubic)
# raise WorkLimit first.  Unchecked, [735134400, 0, 0, 735134400] took 84 s on
# one core of a 2-vCPU Xeon.
MAX_ROOT_COEFFICIENT = 10**12
MAX_DIVISOR_PAIRS = 10_000


def rational_roots(coefficients: Sequence[Fraction]) -> set[Fraction]:
    """All rational roots of a polynomial given by ascending rational
    coefficients, by the rational root test after clearing denominators.
    WorkLimit above MAX_ROOT_COEFFICIENT or MAX_DIVISOR_PAIRS."""
    coeffs = [Fraction(c) for c in coefficients]
    while coeffs and coeffs[-1] == 0:
        coeffs.pop()
    if not coeffs:
        raise ValueError("zero polynomial has every root")
    roots: set[Fraction] = set()
    low = 0
    while coeffs[low] == 0:
        low += 1
    if low > 0:
        roots.add(Fraction(0))
        coeffs = coeffs[low:]
    if len(coeffs) == 1:
        return roots
    _, ints = scalars.integer_view(coeffs)
    largest = max(abs(ints[0]), abs(ints[-1]))
    if largest > MAX_ROOT_COEFFICIENT:
        raise WorkLimit(
            f"end coefficient {largest} is above the limit of {MAX_ROOT_COEFFICIENT} "
            "for the rational root test"
        )

    def divisors(k: int) -> list[int]:
        k = abs(k)
        out = []
        i = 1
        while i * i <= k:
            if k % i == 0:
                out.append(i)
                if i * i != k:
                    out.append(k // i)
            i += 1
        return out

    numerators, denominators = divisors(ints[0]), divisors(ints[-1])
    if len(numerators) * len(denominators) > MAX_DIVISOR_PAIRS:
        raise WorkLimit(
            f"the rational root test would try {len(numerators) * len(denominators)} "
            f"divisor pairs; the limit is {MAX_DIVISOR_PAIRS}"
        )
    candidates = {Fraction(s * p, q) for p in numerators for q in denominators for s in (1, -1)}
    for cand in candidates:
        value = Fraction(0)
        for coeff in reversed(ints):
            value = value * cand + coeff
        if value == 0:
            roots.add(cand)
    return roots
