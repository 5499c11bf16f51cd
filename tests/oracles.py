"""Independent brute-force oracles used only by the tests.

These deliberately avoid the closed-form moment formulas in the package:
simplex and cube moments come from recursive symbolic iterated
integration over the region inequalities, determinants from the
permutation sum, float triangle cells from a stack that holds every
triangle of the subdivision, interval and square compound sums from a
call of the integrand at every node of every grid cell, disc moments
from composite numeric quadrature in polar coordinates and from
single-factorial case formulas (not the package's double-factorial
closed form), polygon moments from a fan triangulation pulled back to
the unit simplex and from Steger's binomial double sum over the edges,
integrand values from a recursive walk of the expression tree, a +
b*sqrt(d) arithmetic from the componentwise field formulas, float rule
sums from the node and weight lists, and exact rule sums and exactness
reports node by node over every monomial, reduced row echelon forms by
Gauss-Jordan elimination with one scalar operation per entry, weight
solves from rows of ``monomial_value`` scalars reduced by that
elimination, region membership point by point in scalar arithmetic, and
the blend parameter from any midpoint and spread rule, summed node by
node, and the two solution families' blend parameters from closed forms
in their parameter, expanded by hand.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction

from simpson_nd import compound, scalars
from simpson_nd.exactness import (
    Equation,
    Infeasible,
    Underdetermined,
    UniqueSolution,
    monomial_label,
)
from simpson_nd.expr import FUNCTIONS, BinOp, Call, Neg, Num, Var

Poly = dict[tuple, Fraction]


def _poly_mul(p: Poly, q: Poly) -> Poly:
    out: Poly = {}
    for a1, c1 in p.items():
        for a2, c2 in q.items():
            key = tuple(x + y for x, y in zip(a1, a2))
            out[key] = out.get(key, Fraction(0)) + c1 * c2
    return {k: v for k, v in out.items() if v != 0}


def _poly_pow(p: Poly, k: int, nvars: int) -> Poly:
    out: Poly = {(0,) * nvars: Fraction(1)}
    for _ in range(k):
        out = _poly_mul(out, p)
    return out


def iterated_simplex_moment(n: int, alpha) -> Fraction:
    """Integrate x^alpha over x_i >= 0, sum x_i <= 1 by eliminating the
    last variable at each step: its upper limit is 1 minus the sum of the
    remaining ones, and the resulting power expands multinomially."""
    poly: Poly = {tuple(alpha): Fraction(1)}
    for m in range(n, 0, -1):
        reduced: Poly = {}
        for exps, coeff in poly.items():
            last = exps[-1]
            rest = exps[:-1]
            # (1 - x_1 - ... - x_{m-1})^(last+1) / (last+1)
            lin: Poly = {(0,) * (m - 1): Fraction(1)}
            for k in range(m - 1):
                unit = tuple(1 if i == k else 0 for i in range(m - 1))
                lin[unit] = Fraction(-1)
            expanded = _poly_pow(lin, last + 1, m - 1)
            head: Poly = {rest: coeff / (last + 1)}
            for key, value in _poly_mul(head, expanded).items():
                reduced[key] = reduced.get(key, Fraction(0)) + value
        poly = reduced
    return poly.get((), Fraction(0))


def iterated_cube_moment(n: int, alpha) -> Fraction:
    """Integrate x^alpha over [0,1]^n one variable at a time."""
    poly: Poly = {tuple(alpha): Fraction(1)}
    for m in range(n, 0, -1):
        reduced: Poly = {}
        for exps, coeff in poly.items():
            key = exps[:-1]
            value = coeff / (exps[-1] + 1)
            reduced[key] = reduced.get(key, Fraction(0)) + value
        poly = reduced
    return poly.get((), Fraction(0))


def permutation_det(matrix):
    """Determinant as the signed sum over permutations, exact Scalars."""
    n = len(matrix)
    total = Fraction(0)
    for perm in itertools.permutations(range(n)):
        inversions = sum(
            1
            for i in range(n)
            for j in range(i + 1, n)
            if perm[i] > perm[j]
        )
        term = Fraction(1) if inversions % 2 == 0 else Fraction(-1)
        for i in range(n):
            term = scalars.mul(term, matrix[i][perm[i]])
        total = scalars.add(total, term)
    return total


def factorial_disc_moment(m: int, n: int):
    """Exact disc moment of x^m y^n from single factorials, in three
    cases: odd exponents, one exponent zero, both positive."""
    factorial = math.factorial
    PiMultiple = scalars.PiMultiple
    if m % 2 or n % 2:
        return PiMultiple(0)
    if m == 0 and n == 0:
        return PiMultiple(1)
    if n == 0 or m == 0:
        if m == 0:
            m = n
        c = Fraction(
            factorial(m - 1),
            2 ** (m - 2) * factorial(m // 2 - 1) * factorial(m // 2),
        )
        return PiMultiple(c / (m + 2))
    c = Fraction(
        factorial(n - 1) * factorial(m - 1),
        2 ** (m + n - 3)
        * factorial(n // 2 - 1)
        * factorial(m // 2 - 1)
        * factorial((m + n) // 2),
    )
    return PiMultiple(c / (m + n + 2))


def disc_moment_numeric(m: int, n: int, panels: int = 1 << 12) -> float:
    """Composite-Simpson quadrature of the polar form
    integral cos^m sin^n dtheta / (m + n + 2)."""
    if panels % 2:
        panels += 1
    h = 2.0 * math.pi / panels

    def g(theta):
        return math.cos(theta) ** m * math.sin(theta) ** n

    acc = g(0.0) + g(2.0 * math.pi)
    for k in range(1, panels):
        acc += (4.0 if k % 2 else 2.0) * g(k * h)
    return (h / 3.0) * acc / (m + n + 2)


def binomial(n: int, k: int) -> int:
    return math.comb(n, k)


def hexagon_moment_numeric(p: int, q: int, panels: int = 4096) -> float:
    """Moment of the hexagon (+-(1+sqrt 3), 0), (+-1, +-1) by splitting
    into the square [-1,1]^2 plus two triangular caps; the caps integrate
    y in closed form and x by composite Simpson."""
    if q % 2 == 1:
        square = 0.0
    else:
        sx = 0.0 if p % 2 else 2.0 / (p + 1)
        square = sx * (2.0 / (q + 1))

    if q % 2 == 1:
        return 0.0
    root3 = math.sqrt(3.0)
    top = 1.0 + root3

    def cap(x):
        w = (top - x) / root3
        return x**p * (2.0 * w ** (q + 1) / (q + 1))

    if panels % 2:
        panels += 1
    h = (top - 1.0) / panels
    acc = cap(1.0) + cap(top)
    for k in range(1, panels):
        acc += (4.0 if k % 2 else 2.0) * cap(1.0 + k * h)
    right = (h / 3.0) * acc
    left = right * (1.0 if p % 2 == 0 else -1.0)
    return square + right + left


def fan_polygon_moment(vertices, p: int, q: int):
    """Integral of x^p y^q over a simple polygon given in either orientation.

    Fan-triangulates from vertex 0: each triangle (v0, vi, vi+1) is the
    image of the unit simplex under u, w -> v0 + u (vi - v0) + w (vi+1 - v0),
    so its integral is the Jacobian times the Dirichlet moments
    a! b! / (a + b + 2)! of the expanded pull-back.  Signed triangles sum to
    the polygon integral whatever its shape; the sign of the summed area
    fixes the orientation.
    """
    x0, y0 = vertices[0]
    total = Fraction(0)
    area = Fraction(0)
    for (x1, y1), (x2, y2) in zip(vertices[1:-1], vertices[2:]):
        ax, ay, bx, by = x1 - x0, y1 - y0, x2 - x0, y2 - y0
        jacobian = ax * by - bx * ay
        xs = {(0, 0): x0, (1, 0): ax, (0, 1): bx}
        ys = {(0, 0): y0, (1, 0): ay, (0, 1): by}
        integrand = _poly_mul(_poly_pow(xs, p, 2), _poly_pow(ys, q, 2))
        simplex_integral = Fraction(0)
        for (a, b), coeff in integrand.items():
            dirichlet = Fraction(math.factorial(a) * math.factorial(b), math.factorial(a + b + 2))
            simplex_integral = simplex_integral + coeff * dirichlet
        total = total + jacobian * simplex_integral
        area = area + jacobian
    return total if scalars.sign(area) > 0 else -total


def steger_polygon_moment(vertices, p: int, q: int):
    """Integral of x^p y^q over a simple polygon whose vertices are listed
    counterclockwise, by Steger's closed form: the sum over the edges
    (x0, y0) -> (x1, y1) of (x0 y1 - x1 y0) times

        sum_{k<=p, l<=q} C(k+l, l) C(p+q-k-l, q-l) x0^k x1^(p-k) y0^l y1^(q-l),

    times p! q! / (p+q+2)! (Steger, On the Calculation of Arbitrary Moments
    of Polygons, 1996).  Plain operators only, so the vertices may be
    exact scalars or floats."""
    total = 0
    for (x0, y0), (x1, y1) in zip(vertices, vertices[1:] + vertices[:1]):
        ys = [y0**l * y1 ** (q - l) for l in range(q + 1)]
        edge = 0
        for k in range(p + 1):
            xs = x0**k * x1 ** (p - k)
            for l in range(q + 1):
                weight = math.comb(k + l, l) * math.comb(p + q - k - l, q - l)
                edge = edge + weight * xs * ys[l]
        total = total + (x0 * y1 - x1 * y0) * edge
    return total * Fraction(math.factorial(p) * math.factorial(q), math.factorial(p + q + 2))


def stack_triangle_cells(level: int):
    """Float triangle cells (offset, matrix) in depth-first order from a
    stack that pushes every triangle, the cells too, and pops each cell
    again.  It calls compound.triangle_children as looked up at each call,
    so a test can count the calls."""
    stack = [(((0.0, 0.0), (1.0, 0.0), (0.0, 1.0)), level)]
    while stack:
        (v0, v1, v2), depth = stack.pop()
        if depth:
            children = compound.triangle_children(v0, v1, v2)
            stack += [(child, depth - 1) for child in reversed(children)]
        else:
            (x0, y0), (x1, y1), (x2, y2) = v0, v1, v2
            yield (x0, y0), ((x1 - x0, x2 - x0), (y1 - y0, y2 - y0))


def every_node_compound(rule, level: int, f) -> float:
    """The compensated compound sum of a rule on the interval or the
    square, with f called at every node of every cell: the cells of the
    row-major grid as affine maps (o, M), o = i*h and M = h*I, each node
    mapped through x -> M x + o term by term, zero entries of M included.
    The float operations, and their order, are those of compound_apply."""
    k = 2**level
    h = 1.0 / k
    nodes = [
        (tuple(map(scalars.to_float, p)), scalars.to_float(w))
        for p, w in zip(rule.nodes, rule.weights)
    ]
    if rule.region.dimension == 1:
        cells = [((i * h,), ((h,),)) for i in range(k)]
    else:
        matrix = ((h, 0.0), (0.0, h))
        cells = [((i * h, j * h), matrix) for j in range(k) for i in range(k)]
    scale = 1.0 / len(cells)
    total = carry = 0.0
    for offset, matrix in cells:
        cell = 0.0
        for point, weight in nodes:
            x = []
            for o, row in zip(offset, matrix):
                for m, p in zip(row, point):
                    o = o + m * p
                x.append(o)
            cell += weight * f(*x)
        y = cell * scale - carry
        t = total + y
        carry = (t - total) - y
        total = t
    return total


def walk_eval_float(e, point):
    """Evaluate an expression tree by recursion at every node.  A power
    of a negative base to a fractional exponent returns Python's complex
    value here, which the package's evaluator refuses."""
    if isinstance(e, Num):
        return e.value.numerator / e.value.denominator
    if isinstance(e, Var):
        if e.index >= len(point):
            raise ValueError(
                f"variable {e.name} needs dimension >= {e.index + 1}"
            )
        return float(point[e.index])
    if isinstance(e, Neg):
        return -walk_eval_float(e.arg, point)
    if isinstance(e, Call):
        return FUNCTIONS[e.fn](walk_eval_float(e.arg, point))
    left = walk_eval_float(e.left, point)
    right = walk_eval_float(e.right, point)
    if e.op == "+":
        return left + right
    if e.op == "-":
        return left - right
    if e.op == "*":
        return left * right
    if e.op == "/":
        return left / right
    return left**right


def random_float_expr(rng, depth, names):
    """A seeded tree over the variables in names (from x, y, z) whose
    constants include non-dyadic ones, so every float path is exercised."""
    if depth == 0 or rng.random() < 0.25:
        if rng.random() < 0.5:
            return Num(Fraction(rng.choice([0, 1, 2, 3, 7, 25, 750]), rng.choice([1, 2, 4, 10, 3])))
        name = rng.choice(names)
        return Var(["x", "y", "z"].index(name), name)
    kind = rng.randint(0, 7)
    if kind == 0:
        return Neg(random_float_expr(rng, depth - 1, names))
    if kind == 1:
        return Call(rng.choice(sorted(FUNCTIONS)), random_float_expr(rng, depth - 1, names))
    op = rng.choice(["+", "-", "*", "/", "^"])
    return BinOp(
        op, random_float_expr(rng, depth - 1, names), random_float_expr(rng, depth - 1, names)
    )


def _post_order(e):
    if isinstance(e, (Neg, Call)):
        yield from _post_order(e.arg)
    elif isinstance(e, BinOp):
        yield from _post_order(e.left)
        yield from _post_order(e.right)
    yield e


def walk_outcome(tree, point):
    """The walker's value, or the type of the first exception it raises,
    except that the first power to go complex, in evaluation order, gives
    ValueError.  Every subtree is walked in the order an evaluator meets
    it, so the first event found is the evaluator's first event."""
    for node in _post_order(tree):
        try:
            value = walk_eval_float(node, point)
        except Exception as exc:  # every exception type the walker raises is compared
            return type(exc)
        if isinstance(value, complex):
            return ValueError
    return value


def quad_components(op: str, x, y, d: int) -> tuple:
    """(a, b) with a + b*sqrt(d) = x op y, where x and y are (a, b) pairs
    over the same sqrt(d).  A quotient is rationalized by the conjugate of
    the divisor, whose norm a^2 - b^2 d is rational."""
    (a1, b1), (a2, b2) = x, y
    if op == "+":
        return a1 + a2, b1 + b2
    if op == "-":
        return a1 - a2, b1 - b2
    if op == "*":
        return a1 * a2 + b1 * b2 * d, a1 * b2 + a2 * b1
    norm = a2 * a2 - b2 * b2 * d
    return (a1 * a2 - b1 * b2 * d) / norm, (a2 * b1 - a1 * b2) / norm


def float_rule_sum(rule, f) -> float:
    """sum_j w_j f(P_j) in floats, summed in node order."""
    total = 0.0
    for node, w in zip(rule.nodes, rule.weights):
        total += scalars.to_float(w) * f(*map(scalars.to_float, node))
    return total


def scalar_node_sum(nodes, weights, alpha):
    """sum_j w_j x^alpha(P_j) by scalar operators, node by node."""
    total = Fraction(0)
    for node, w in zip(nodes, weights):
        term = w
        for c, e in zip(node, alpha):
            for _ in range(e):
                term = scalars.mul(term, c)
        total = scalars.add(total, term)
    return total


def monomial_value(point, alpha):
    """x^alpha at one point by scalar operators."""
    return scalar_node_sum((point,), (Fraction(1),), alpha)


def full_scan_report(rule, max_degree: int) -> tuple:
    """(certified degree, first failing exponent tuple, its residual) from
    every monomial in graded order: by degree, then descending tuples."""
    n = rule.region.dimension
    for d in range(max_degree + 1):
        tuples = [t for t in itertools.product(range(d + 1), repeat=n) if sum(t) == d]
        for alpha in sorted(tuples, reverse=True):
            r = scalars.sub(scalar_node_sum(rule.nodes, rule.weights, alpha),
                            rule.region.moment(alpha))
            if not scalars.is_zero(r):
                return d - 1, alpha, r
    return max_degree, None, None


def two_rule_lambda(m, t, targets, moments):
    """The lam with lam*m + (1-lam)*t exact on every target, for any two
    rules on one region and the targets' moments: each equation
    lam*(m - t)(x^alpha) == moment - t(x^alpha) summed node by node, with
    the outcomes and witnesses of ``exactness.solve_lambda``."""
    assert m.region == t.region
    targets = [tuple(int(e) for e in alpha) for alpha in targets]
    first = None
    for alpha, moment in zip(targets, moments, strict=True):
        spread = scalar_node_sum(t.nodes, t.weights, alpha)
        coef = scalars.sub(scalar_node_sum(m.nodes, m.weights, alpha), spread)
        rhs = scalars.sub(moment, spread)
        equation = Equation(monomial_label(alpha), (coef,), rhs)
        if scalars.is_zero(coef):
            if scalars.is_zero(rhs):
                continue
            return Infeasible(
                witness=f"equation for {equation.label} reads 0*lam = {scalars.format_scalar(rhs)}",
                equations=(equation,),
            )
        lam = scalars.div(rhs, coef)
        if first is None:
            first = (equation, lam)
            continue
        if not scalars.eq(lam, first[1]):
            return Infeasible(
                witness=(
                    f"{first[0].label} forces lam = {scalars.format_scalar(first[1])} but "
                    f"{equation.label} forces lam = {scalars.format_scalar(lam)}"
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


def triangle_family_lambda_closed_form(c):
    """Blend parameter of the triangle family a = 1-c, b = c, nodes
    (1-c, 0), (0, c), (c, 1-c) on the standard triangle.

    Derived from the family's basis polynomial
    12*lam*c^2 - 12*lam*c + 4*lam - (12c^2 - 12c + 3) = 0, which is the
    unique lam making the three-node blend exact on x^2 (and on y^2 and
    xy).  The denominator 12c^2 - 12c + 4 has negative discriminant, so it
    vanishes for no real parameter.
    """
    c = scalars.as_scalar(c)
    c2 = scalars.mul(c, c)
    base = scalars.sub(scalars.mul(Fraction(12), c2), scalars.mul(Fraction(12), c))
    return scalars.div(scalars.add(base, Fraction(3)), scalars.add(base, Fraction(4)))


def square_family_lambda_closed_form(d):
    """Blend parameter (6d^2 - 6d + 2)/(6d^2 - 6d + 3) of the square family
    a = d, b = c = 1-d, nodes (d, 0), (0, 1-d), (1-d, 1), (1, d).

    The numerator 6d^2 - 6d + 2 has negative discriminant, so no family
    member degenerates to a pure boundary rule (lam is never 0); the
    denominator is 3(2d^2 - 2d + 1), likewise never zero.
    """
    d = scalars.as_scalar(d)
    base = scalars.sub(scalars.mul(Fraction(6), scalars.mul(d, d)), scalars.mul(Fraction(6), d))
    return scalars.div(scalars.add(base, Fraction(2)), scalars.add(base, Fraction(3)))


def scalar_gauss_jordan(rows, ncols: int):
    """(pivot columns, determinant) after reducing ``rows`` in place over
    the first ``ncols`` columns, one scalar operation per entry: the pivot
    is the first nonzero entry at or below the current row, the pivot row
    is divided by it and every other row with a nonzero entry in the pivot
    column is cleared.  The determinant is the swap sign times the pivots
    taken before normalising, or 0 when the rank is below ``ncols``."""
    pivots = []
    det = Fraction(1)
    r = 0
    for col in range(ncols):
        pivot_row = None
        for i in range(r, len(rows)):
            if not scalars.is_zero(rows[i][col]):
                pivot_row = i
                break
        if pivot_row is None:
            det = Fraction(0)
            continue
        if pivot_row != r:
            rows[r], rows[pivot_row] = rows[pivot_row], rows[r]
            det = scalars.neg(det)
        piv = rows[r][col]
        det = scalars.mul(det, piv)
        # left of col the pivot row is all zeros, so only col onward changes
        pivot = [scalars.div(v, piv) for v in rows[r][col:]]
        rows[r][col:] = pivot
        for i in range(len(rows)):
            if i != r and not scalars.is_zero(rows[i][col]):
                f = rows[i][col]
                rows[i][col:] = [
                    scalars.sub(v, scalars.mul(f, w))
                    for v, w in zip(rows[i][col:], pivot)
                ]
        pivots.append(col)
        r += 1
    return pivots, det


def scalar_solve_weights(region, nodes, targets):
    """The outcome of ``exactness.solve_weights`` from scalar rows: each
    entry is ``monomial_value`` of a node, the rows [A | b] are reduced by
    ``scalar_gauss_jordan``, and an inconsistent system is reduced again
    as [A | b | I] so that the first row below the rank with a nonzero
    right-hand side names its equations and multipliers."""
    nodes = [tuple(scalars.as_scalar(c) for c in p) for p in nodes]
    targets = [tuple(alpha) for alpha in targets]
    nunk = len(nodes)
    equations = [
        Equation(monomial_label(alpha), tuple(monomial_value(p, alpha) for p in nodes), moment)
        for alpha, moment in zip(targets, region.moments(targets))
    ]
    rows = [[*eqn.coefficients, eqn.rhs] for eqn in equations]
    pivots, _ = scalar_gauss_jordan(rows, nunk)
    rank = len(pivots)
    if any(not scalars.is_zero(row[nunk]) for row in rows[rank:]):
        rows = [
            [*eqn.coefficients, eqn.rhs, *(Fraction(int(j == i)) for j in range(len(equations)))]
            for i, eqn in enumerate(equations)
        ]
        scalar_gauss_jordan(rows, nunk)
        row = next(row for row in rows[rank:] if not scalars.is_zero(row[nunk]))
        used = [(equations[i], m) for i, m in enumerate(row[nunk + 1:]) if not scalars.is_zero(m)]
        labels = ", ".join(eqn.label for eqn, _ in used)
        return Infeasible(
            witness=f"combining the equations for {labels} gives 0 = {scalars.format_scalar(row[nunk])}",
            equations=tuple(eqn for eqn, _ in used),
            multipliers=tuple(m for _, m in used),
        )
    solution = [Fraction(0)] * nunk
    for r, col in enumerate(pivots):
        solution[col] = rows[r][nunk]
    if rank == nunk:
        return UniqueSolution(tuple(solution))
    return Underdetermined(particular=tuple(solution), nullity=nunk - rank)


def _scalar_le(x, y) -> bool:
    return scalars.sign(scalars.sub(y, x)) >= 0


def _scalar_turn(o, a, b) -> int:
    """Sign of the cross product (a - o) x (b - o), in scalars."""
    sub, mul = scalars.sub, scalars.mul
    return scalars.sign(sub(mul(sub(a[0], o[0]), sub(b[1], o[1])),
                            mul(sub(b[0], o[0]), sub(a[1], o[1]))))


def _scalar_on_edge(p, a, b) -> bool:
    return _scalar_turn(a, b, p) == 0 and all(
        scalars.sign(scalars.sub(p[i], a[i])) * scalars.sign(scalars.sub(p[i], b[i])) <= 0
        for i in (0, 1)
    )


def _scalar_contains(region, point) -> bool:
    kind = type(region).__name__
    if kind == "Simplex":
        if any(scalars.sign(c) < 0 for c in point):
            return False
        total = Fraction(0)
        for c in point:
            total = scalars.add(total, c)
        return _scalar_le(total, Fraction(1))
    if kind == "Cube":
        return all(scalars.sign(c) >= 0 and _scalar_le(c, Fraction(1)) for c in point)
    if kind == "UnitDisc":
        x, y = point
        return _scalar_le(scalars.add(scalars.mul(x, x), scalars.mul(y, y)), Fraction(1))
    if _scalar_on_boundary(region, point):
        return True
    # even-odd crossings of a horizontal ray to the right, half-open straddle
    verts = region.vertex_list
    inside = False
    for a, b in zip(verts, verts[1:] + verts[:1]):
        above_a = scalars.sign(scalars.sub(a[1], point[1])) > 0
        above_b = scalars.sign(scalars.sub(b[1], point[1])) > 0
        if above_a != above_b and _scalar_turn(point, a, b) == (1 if above_b else -1):
            inside = not inside
    return inside


def _scalar_on_boundary(region, point) -> bool:
    kind = type(region).__name__
    if kind == "Simplex":
        total = Fraction(0)
        for c in point:
            total = scalars.add(total, c)
        return _scalar_contains(region, point) and (
            any(scalars.is_zero(c) for c in point) or scalars.eq(total, Fraction(1))
        )
    if kind == "Cube":
        return _scalar_contains(region, point) and any(
            scalars.is_zero(c) or scalars.eq(c, Fraction(1)) for c in point
        )
    if kind == "UnitDisc":
        x, y = point
        return scalars.eq(scalars.add(scalars.mul(x, x), scalars.mul(y, y)), Fraction(1))
    verts = region.vertex_list
    return any(_scalar_on_edge(point, a, b) for a, b in zip(verts, verts[1:] + verts[:1]))


def scalar_locate(region, point) -> int:
    """-1 outside, 0 on the boundary, +1 inside, for one point by scalar
    comparisons: the coordinates of a simplex or cube point against 0 and
    1, x^2 + y^2 against 1 on the disc, and for a polygon scalar cross
    products, first on every edge and then along a ray to the right."""
    point = tuple(scalars.as_scalar(c) for c in point)
    if _scalar_on_boundary(region, point):
        return 0
    return 1 if _scalar_contains(region, point) else -1
