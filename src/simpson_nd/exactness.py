"""Exactness certification and the linear solves for the blend parameter
and for free node weights.

``exactness_degree`` scans monomials in graded lexicographic order
(ascending total degree; within a degree, descending exponent tuples, so
x1^d comes first) and certifies the largest degree whose residuals all
vanish exactly.  Exactness for monomials extends to all polynomials of
the same degree by linearity.  For a rule on a simplex or cube whose
nodes and weights are closed under coordinate permutations, one tuple per
permutation orbit is enough (Stroud 1971; Grundmann and Moller 1978).

The solvers return values, not exceptions: infeasibility is a finding,
carried with a checkable certificate.
"""

from __future__ import annotations

from collections import Counter
from fractions import Fraction
from math import lcm, prod
from typing import Iterator, Optional, Union

from . import scalars
from .errors import DimensionMismatch, WorkLimit
from .record import record
from .regions import Cube, MultiIndex, Region, Simplex
from .rules import CubatureRule, NodeTable, PaperForm
from .scalars import PiMultiple, Scalar, is_zero

# Most entries of an exact system the solvers may be asked to build:
# targets x nodes values for solve_lambda, and the targets x (nodes + 1 +
# targets) block [A | b | I] that solve_weights reduces when a system is
# infeasible.  On one core of a 2-vCPU Xeon, derive on cube:12 with deg1
# targets (53,261 and 53,443 entries) takes 0.2 s in either mode, and
# cube:7 with deg3 targets in weights mode (30,000 entries) 0.15-0.25 s;
# unchecked, deg2 targets in weights mode (381,199 entries) took 17 s with
# one scalar operation per entry, and deg3 targets in lambda mode 27 s.
MAX_SYSTEM_ENTRIES = 60_000

# Most bits of a weight system's largest row denominator, the lcm of
# D^|alpha| (D the nodes' common denominator) and the moment's; checked
# before elimination.  On one core of a 2-vCPU Xeon, deg3 targets on 4-16
# vertices over Q(sqrt 3893) take 0.01-0.12 s with the sqrt parts over one
# 6-digit denominator (about 420 bits) and 0.12-0.26 s over distinct 2- and
# 3-digit ones (540-890 bits); over distinct 6-digit ones, 8 vertices (2,718
# bits) took 2.3 s.  A rational 100-gon, deg4 targets, takes 1.3 s at 690 bits.
MAX_DENOMINATOR_BITS = 768

# Most word operations a weight solve's elimination is estimated to take,
# checked before it starts: k Bareiss steps over the [A | b | I] block, each
# entry a minor of up to k rows of b bits, so rows x (nodes + 1 + rows) x k x
# w^2, for k = min(rows, nodes), w = 1 + k b / 64 and b the bits of the
# largest scaled row entry, and 8 times that over Z[sqrt d].  On one core of a
# 2-vCPU Xeon, 1e9 takes 0.4-1.1 s over Z and 0.5-1.1 s over Z[sqrt d]; a
# 40-gon with integer coordinates up to 3,000 and deg8 targets, 6.9e9, took 7.6 s.
MAX_ELIMINATION_WORK = 2 * 10**9


def monomials_of_degree(nvars: int, degree: int) -> Iterator[MultiIndex]:
    """Exponent tuples of one total degree, in descending lexicographic order."""
    if nvars == 1:
        yield (degree,)
        return
    for head in range(degree, -1, -1):
        for rest in monomials_of_degree(nvars - 1, degree - head):
            yield (head,) + rest


def sorted_monomials_of_degree(
    nvars: int, degree: int, cap: Optional[int] = None
) -> Iterator[MultiIndex]:
    """The descending exponent tuples (head at most ``cap``) of one total
    degree, in the order ``monomials_of_degree`` lists them.  Each is the
    lexicographic maximum of its orbit under coordinate permutations."""
    if cap is None:
        cap = degree
    if nvars == 1:
        if degree <= cap:
            yield (degree,)
        return
    for head in range(min(degree, cap), -(-degree // nvars) - 1, -1):
        for rest in sorted_monomials_of_degree(nvars - 1, degree - head, head):
            yield (head,) + rest


def monomials_up_to(nvars: int, max_degree: int) -> Iterator[MultiIndex]:
    for d in range(max_degree + 1):
        yield from monomials_of_degree(nvars, d)


def monomial_label(alpha: MultiIndex) -> str:
    """Readable monomial name: x, y, z for up to three variables."""
    if all(e == 0 for e in alpha):
        return "1"
    names = (
        ["x", "y", "z"][: len(alpha)]
        if len(alpha) <= 3
        else [f"x{i + 1}" for i in range(len(alpha))]
    )
    parts = []
    for name, e in zip(names, alpha):
        if e == 1:
            parts.append(name)
        elif e > 1:
            parts.append(f"{name}^{e}")
    return "*".join(parts)


def residual(rule: CubatureRule, alpha) -> Scalar:
    """rule applied to x^alpha, minus the exact region moment."""
    alpha = tuple(int(e) for e in alpha)
    if len(alpha) != rule.region.dimension:
        raise DimensionMismatch(
            f"multi-index {alpha} does not match region dimension"
        )
    return scalars.sub(rule.table.sum(alpha), rule.region.moment(alpha))


@record
class ExactnessReport:
    """Certified exactness degree plus the first failure found, if any."""

    label: str
    certified_degree: int
    failing: Optional[MultiIndex]
    failing_residual: Optional[Scalar]
    max_degree: int

    def to_json(self) -> dict:
        return {
            "label": self.label,
            "degree": self.certified_degree,
            "failing": list(self.failing) if self.failing is not None else None,
            "residual": (
                scalars.scalar_to_json(self.failing_residual)
                if self.failing_residual is not None
                else None
            ),
            "tested": self.max_degree,
        }


def scans_orbits(region: Region, table: NodeTable) -> bool:
    """Whether ``exactness_degree`` may scan only descending exponent tuples:
    the region's moments are permutation-invariant (a ``Simplex`` or a
    ``Cube``) and the node/weight multiset is closed under coordinate
    permutations.  The transposition (0 1) and the cycle (0 1 ... n-1)
    generate every permutation, so the multiset of (coordinates, weight)
    rows on the table's integer view must be unchanged by swapping
    columns 0 and 1 and by rotating the columns; O(N n)."""
    if not isinstance(region, (Simplex, Cube)):
        return False
    columns, weights = table.columns, table.scaled_weights
    rows = Counter(zip(*columns, weights))
    return all(Counter(zip(*moved, weights)) == rows
               for moved in (columns[1::-1] + columns[2:], columns[1:] + columns[:1]))


def _moment_views(region: Region, table: NodeTable, alphas) -> list:
    """Each moment of ``alphas`` as (M, q) on the table's view, from the
    region's one ``_moment_view`` call: the moment, or its pi coefficient
    when the table sums pi weights, is M / q with M an int, or an int pair
    over the table's radicand.  A rational region's pairs are lifted to
    ((M, 0), q) under a table over sqrt(d).  When the region's ring is not
    the table's, every moment is None: its residual is left to the scalars."""
    d, pi, views = region._moment_view(alphas)
    if pi != table.pi:
        return [None] * len(alphas)
    if d == table.radicand:
        return views
    if d is None:
        return [((m, 0), q) for m, q in views]
    return [None] * len(alphas)


def _vanishes(terms, moment, scale, d) -> bool:
    """Whether a table's sum equals the moment (M, q), on ints: the sum is
    (sum_j W_j X_j^alpha) / scale, for the terms W_j X_j^alpha and
    scale = Dw D^|alpha|, so the residual is zero when
    (sum_j W_j X_j^alpha) q == M scale, over Z[sqrt d] on both parts."""
    m, q = moment
    if d is None:
        return sum(terms) * q == m * scale
    total = scalars.view_sum(terms, d)
    return total[0] * q == m[0] * scale and total[1] * q == m[1] * scale


def exactness_degree(rule: CubatureRule, max_degree: int) -> ExactnessReport:
    """Scan residuals degree by degree; certify through the last clean degree.

    The scan reads the rule's table and takes each degree's moments at
    once (``_moment_views``).  A residual is tested for zero on the
    integer view (``_vanishes``), and only the first nonzero one is built
    as a scalar; a residual whose moment is outside the table's ring is
    built as a scalar and tested with ``is_zero``.

    Both the sum and the moment of a monomial are unchanged when the rule
    scans orbits and its coordinates are permuted, so the first failing
    tuple in graded order is the descending one that starts its orbit: the
    report is the full scan's."""
    if max_degree < 0:
        raise ValueError("max_degree must be >= 0")
    region, table = rule.region, rule.table
    scan = sorted_monomials_of_degree if scans_orbits(region, table) else monomials_of_degree
    for d in range(max_degree + 1):
        alphas = list(scan(region.dimension, d))
        scale = table.weight_denominator * table.denominator ** d
        for alpha, moment in zip(alphas, _moment_views(region, table, alphas)):
            if moment is not None and _vanishes(table.terms(alpha), moment, scale, table.radicand):
                continue
            r = scalars.sub(table.sum(alpha), region.moment(alpha))
            if moment is not None or not is_zero(r):
                return ExactnessReport(rule.label, d - 1, alpha, r, max_degree)
    return ExactnessReport(rule.label, max_degree, None, None, max_degree)


@record
class Equation:
    """One linear equation: coefficients dot unknowns == rhs."""

    label: str
    coefficients: tuple[Scalar, ...]
    rhs: Scalar


@record
class UniqueSolution:
    values: tuple[Scalar, ...]


@record
class Infeasible:
    """No solution; ``equations`` is a minimal inconsistent certificate.

    For weight systems, ``multipliers`` gives an exact linear combination
    of the certificate equations with zero left side and nonzero right
    side (a direct witness that no solution exists)."""

    witness: str
    equations: tuple[Equation, ...] = ()
    multipliers: tuple[Scalar, ...] = ()


@record
class Underdetermined:
    particular: tuple[Scalar, ...]
    nullity: int


LinearSolveOutcome = Union[UniqueSolution, Infeasible, Underdetermined]


def solve_lambda(region: Region, spread, targets) -> LinearSolveOutcome:
    """Solve lam*(M - T) applied to x^alpha == moment - T(x^alpha) for the
    one lam of ``rules.blend``'s lam*M + (1-lam)*T on ``region`` over all
    target monomials; each equation is a row of one ``rules.PaperForm``,
    from one moment batch and one ``locate`` call, with M and T each from
    one node table.

    Equations that reduce to 0 == 0 carry no information; if every target
    does, the outcome is Underdetermined.  A lam that exists but is
    irrational cannot define a rational blend and is reported as Infeasible
    with the defining equation as witness.
    """
    targets = [tuple(int(e) for e in alpha) for alpha in targets]
    spread = scalars.as_points(spread)
    form = PaperForm(region, targets)
    form.check(spread)
    rows = form.rows(spread)
    first: Optional[tuple[Equation, Scalar]] = None
    for alpha, (coef, rhs) in zip(targets, rows):
        equation = Equation(monomial_label(alpha), (coef,), rhs)
        if is_zero(coef):
            if is_zero(rhs):
                continue
            return Infeasible(
                witness=(
                    f"equation for {equation.label} reads 0*lam = "
                    f"{scalars.format_scalar(rhs)}"
                ),
                equations=(equation,),
            )
        lam = scalars.div(rhs, coef)
        if first is None:
            first = (equation, lam)
            continue
        if not scalars.eq(lam, first[1]):
            return Infeasible(
                witness=(
                    f"{first[0].label} forces lam = "
                    f"{scalars.format_scalar(first[1])} but {equation.label} "
                    f"forces lam = {scalars.format_scalar(lam)}"
                ),
                equations=(first[0], equation),
            )
    if first is None:
        return Underdetermined(particular=(Fraction(0),), nullity=1)
    equation, lam = first
    if not isinstance(lam, Fraction):
        return Infeasible(
            witness=(
                f"the only solution lam = {scalars.format_scalar(lam)} "
                f"(from {equation.label}) is irrational"
            ),
            equations=(equation,),
        )
    return UniqueSolution((lam,))


def _step(row: list, pivot: list, start: int, p, f, prev, d) -> None:
    """row[start:] = (p*row - f*pivot) / prev in place, over Z or Z[sqrt d].

    Over Z[sqrt d], p and f are first multiplied by the conjugate of prev,
    which leaves one division by the integer norm of prev."""
    if d is None:
        if f:
            row[start:] = [(p * v - f * w) // prev for v, w in zip(row[start:], pivot[start:])]
        else:
            row[start:] = [p * v // prev for v in row[start:]]
        return
    qa, qb = prev
    norm = qa * qa - qb * qb * d
    pa, pb = p[0] * qa - p[1] * qb * d, p[1] * qa - p[0] * qb
    pbd = pb * d
    if f == (0, 0):
        row[start:] = [((pa * a + pbd * b) // norm, (pa * b + pb * a) // norm) for a, b in row[start:]]
        return
    fa, fb = f[0] * qa - f[1] * qb * d, f[1] * qa - f[0] * qb
    fbd = fb * d
    row[start:] = [
        ((pa * a + pbd * b - fa * e - fbd * g) // norm, (pa * b + pb * a - fa * g - fb * e) // norm)
        for (a, b), (e, g) in zip(row[start:], pivot[start:])
    ]


def gauss_jordan(rows: list[list[Scalar]], ncols: int) -> tuple[list[int], Scalar]:
    """In-place reduced row echelon form over the first ``ncols`` columns;
    trailing columns ride along.  The rows are scalars, rationals and values
    over one radicand: each row is scaled by the lcm of its denominators
    onto ``scalars.integer_view``, and ``_eliminate``, the package's only
    elimination loop, reduces them.  A pi multiple or a second radicand
    raises IncompatibleScalars.

    Returns the pivot columns (so the rank) and the determinant: the swap
    sign times the last pivot over the product of the pivot rows' scales,
    or 0 when the rank is below ``ncols``.  It is the block's determinant
    only when the block is square.
    """
    d = scalars.radicand([x for row in rows for x in row], "eliminate")
    scales, view = [], []
    for row in rows:
        s, scaled = scalars.integer_view(row, d)
        scales.append(s)
        view.append(scaled)
    pivots, det, rows[:] = _eliminate(view, scales, ncols, d)
    return pivots, det


def _eliminate(view: list[list], scales: list[int], ncols: int, d):
    """(pivots, determinant, reduced scalar rows) of rows already on the
    integer view: row i holds S_i times its values, S_i = scales[i], as
    ints or as (A, B) int pairs meaning A + B*sqrt(d) (Cohen, GTM 138,
    4.2).  ``view`` and ``scales`` are reduced in place.

    Elimination is fraction-free over Z or Z[sqrt d] (Bareiss, *Sylvester's
    identity and multistep integer-preserving Gaussian elimination*, Math.
    Comp. 22, 1968).  Each column's pivot p is the first nonzero entry at
    or below the current row, and every other row becomes
    (p*row - f*pivot_row) / prev, with f its entry in the pivot column and
    prev the previous pivot.  By Sylvester's identity every entry is a
    minor of the scaled rows, so the division is exact.  The entries
    become scalars once, at the end: a pivot row divided by the last
    pivot, a row below the rank by its scale times the last pivot.  The
    rows, the pivots and the trailing columns are those of Gauss-Jordan
    elimination with one scalar operation per entry.
    """
    zero, one = (0, 1) if d is None else ((0, 0), (1, 0))
    prev = one
    pivots: list[int] = []
    sign = 1
    r = 0
    for col in range(ncols):
        pivot_row = next((i for i in range(r, len(view)) if view[i][col] != zero), None)
        if pivot_row is None:
            continue
        if pivot_row != r:
            view[r], view[pivot_row] = view[pivot_row], view[r]
            scales[r], scales[pivot_row] = scales[pivot_row], scales[r]
            sign = -sign
        pivot = view[r]
        p = pivot[col]
        for i, row in enumerate(view):
            if i != r:
                # a row is zero left of its own pivot, a row below r left of col
                _step(row, pivot, pivots[i] if i < r else col, p, row[col], prev, d)
        pivots.append(col)
        prev = p
        r += 1

    reduced = []
    for i, row in enumerate(view):
        values = [scalars.from_view(x, prev, d) for x in row]
        if i >= r:
            # a row below the rank still carries its scale S
            values = [scalars.div(x, scales[i]) for x in values]
        reduced.append(values)
    if r < ncols:
        return pivots, Fraction(0), reduced
    return pivots, scalars.from_view(prev, sign * prod(scales[:r]), d), reduced


def solve_weights(nodes, targets, moments) -> LinearSolveOutcome:
    """Exact solve for one weight per node so the rule matches the region
    moment of every target monomial; ``moments`` holds those moments, one
    per target in order, from the caller's batch (a list of another length
    raises ValueError).

    Works over whatever quadratic field the node coordinates and the
    moments need.  The rows come from the integer view of a ``NodeTable``
    with unit weights: row alpha's node entries are its terms X_j^alpha
    over D^|alpha|, and its right-hand side is the moment.  The disc's
    moments are pi multiples: the rows take their coefficients, and the
    values read back from that column, the solution and an infeasibility
    witness, are pi multiples again.  Each row is scaled once, by
    the lcm S of D^|alpha| and the moment's denominator, and goes to
    ``_eliminate`` as ints or Z[sqrt d] pairs; no entry is a scalar until
    the reduced rows come back.  An inconsistent system yields an
    Infeasible value whose multipliers combine the cited equations into
    0 == nonzero.  Rows past MAX_DENOMINATOR_BITS or MAX_ELIMINATION_WORK
    raise WorkLimit before elimination.
    """
    nodes = scalars.as_points(nodes)
    targets = [tuple(int(e) for e in alpha) for alpha in targets]
    nunk = len(nodes)
    moments = list(moments)
    pi = all(type(m) is PiMultiple for m in moments)
    rhs = [m.coefficient for m in moments] if pi else moments
    d = scalars.radicand([c for p in nodes for c in p] + rhs, "eliminate")
    table = NodeTable(nodes, [Fraction(1)] * nunk)

    def lift(k: int):
        return k if d is None else (k, 0)

    scales, view, entries = [], [], []
    for alpha, moment in zip(targets, rhs, strict=True):
        terms = table.terms(alpha)
        if table.radicand != d:
            # rational nodes, moments over sqrt(d)
            terms = [(x, 0) for x in terms]
        q = table.denominator ** sum(alpha)
        den, (b,) = scalars.integer_view([moment], d)
        scale = lcm(q, den)
        scales.append(scale)
        view.append([scalars.view_times(x, lift(scale // q), d) for x in terms]
                    + [scalars.view_times(b, lift(scale // den), d)])
        entries.append((terms, q))
    if (bits := max(scales, default=1).bit_length()) > MAX_DENOMINATOR_BITS:
        raise WorkLimit(f"the weight system's rows need a common denominator of {bits} bits; "
                        f"the limit is {MAX_DENOMINATOR_BITS}")
    largest = max((abs(v) for row in view for x in row for v in (x if d else (x,))), default=0)
    k = min(len(view), nunk)
    words = 1 + k * largest.bit_length() // 64
    work = len(view) * (nunk + 1 + len(view)) * k * words * words * (1 if d is None else 8)
    if work > MAX_ELIMINATION_WORK:
        raise WorkLimit(f"eliminating {len(view)} rows on {nunk} nodes is estimated at {work:,} "
                        f"word operations; the limit is {MAX_ELIMINATION_WORK:,}")
    pivots, _, rows = _eliminate([list(row) for row in view], list(scales), nunk, d)
    rank = len(pivots)
    if any(not is_zero(row[nunk]) for row in rows[rank:]):
        # Reduce [A | b | I] so every row remembers its origin: row i gains
        # the identity's row i times its scale.  The identity changes no
        # pivot, so the A and b columns, and the rank, come out as above.
        block = [
            row + [lift(scale if j == i else 0) for j in range(len(view))]
            for i, (row, scale) in enumerate(zip(view, scales))
        ]
        _, _, rows = _eliminate(block, scales, nunk, d)
        row = next(row for row in rows[rank:] if not is_zero(row[nunk]))
        gap = PiMultiple(row[nunk]) if pi else row[nunk]
        used = [(i, mult) for i, mult in enumerate(row[nunk + 1 :]) if not is_zero(mult)]
        equations = tuple(
            Equation(
                monomial_label(targets[i]),
                tuple(scalars.from_view(x, entries[i][1], d) for x in entries[i][0]),
                moments[i],
            )
            for i, _ in used
        )
        return Infeasible(
            witness=(
                f"combining the equations for {', '.join(eqn.label for eqn in equations)} "
                f"gives 0 = {scalars.format_scalar(gap)}"
            ),
            equations=equations,
            multipliers=tuple(mult for _, mult in used),
        )
    solution: list[Scalar] = [Fraction(0)] * nunk
    for r, col in enumerate(pivots):
        solution[col] = PiMultiple(rows[r][nunk]) if pi else rows[r][nunk]
    if rank == nunk:
        return UniqueSolution(tuple(solution))
    return Underdetermined(particular=tuple(solution), nullity=nunk - rank)
