"""Compound rules by subdivision, and empirical convergence orders.

A base rule over the unit interval, the unit square, or the standard
triangle is mapped affinely onto every cell of a uniform subdivision and
the per-cell estimates are summed.  Cell order is fixed (row-major grids,
depth-first triangle recursion) and the float accumulation is compensated,
so results are reproducible bit for bit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

from .errors import DegenerateErrors, UnsupportedRegion, WorkLimit
from .regions import Cube, Simplex
from .rules import CubatureRule
from .scalars import to_float

# The most cells one compound_apply call builds: 2^20 square or triangle
# cells take 6 to 8 s for a three-function integrand on one core of a
# 2-vCPU Xeon.
MAX_CELLS = 2**20


@dataclass(frozen=True)
class CompoundEstimate:
    level: int
    cells: int
    estimate: float


def triangle_children(v0, v1, v2):
    """The four midpoint-subdivision children of a triangle.

    Coordinates may be Fraction, Quad or float.  Float midpoints of the
    dyadic coordinates met in compounding are exact, so float cells hold
    the same values as exact ones.
    """

    def mid(p, q):
        return tuple((a + b) / 2 for a, b in zip(p, q))

    m01 = mid(v0, v1)
    m02 = mid(v0, v2)
    m12 = mid(v1, v2)
    return (
        (v0, m01, m02),
        (m01, v1, m12),
        (m02, m12, v2),
        (m01, m12, m02),
    )


# Each shape's cells as affine maps (offset, matrix) of the rule's region,
# x -> matrix x + offset, in a fixed order: row-major grids, depth-first
# triangle recursion.  These float cells are the one way a rule is mapped
# onto a cell.


def _interval_cells(level: int):
    h = 1.0 / 2**level
    matrix = ((h,),)
    for i in range(2**level):
        yield (i * h,), matrix


def _square_cells(level: int):
    k = 2**level
    h = 1.0 / k
    matrix = ((h, 0.0), (0.0, h))
    for j in range(k):
        for i in range(k):
            yield (i * h, j * h), matrix


def _triangle_cells(level: int):
    # an explicit depth-first stack: O(level) triangles alive, not 4^level
    stack = [(((0.0, 0.0), (1.0, 0.0), (0.0, 1.0)), level)]
    while stack:
        (v0, v1, v2), depth = stack.pop()
        if depth:
            stack += [(child, depth - 1) for child in reversed(triangle_children(v0, v1, v2))]
        else:
            (x0, y0), (x1, y1), (x2, y2) = v0, v1, v2
            yield (x0, y0), ((x1 - x0, x2 - x0), (y1 - y0, y2 - y0))


# The rule's weighted sum on one cell, nodes mapped through x -> M x + o
# and summed in node order.  One per dimension: a loop over coordinates
# would cost more per node than the integrand does.


def _cell_sum_1d(f, offset, matrix, nodes):
    (o,), ((m,),) = offset, matrix
    cell = 0.0
    for (x,), w in nodes:
        cell += w * f(o + m * x)
    return cell


def _cell_sum_2d(f, offset, matrix, nodes):
    (o0, o1), ((m00, m01), (m10, m11)) = offset, matrix
    cell = 0.0
    for (x, y), w in nodes:
        cell += w * f(o0 + m00 * x + m01 * y, o1 + m10 * x + m11 * y)
    return cell


_CELL_SUM = {1: _cell_sum_1d, 2: _cell_sum_2d}


def _cell_shape(rule: CubatureRule):
    region = rule.region
    if isinstance(region, Cube) and region.dimension == 2:
        return _square_cells
    if isinstance(region, (Cube, Simplex)) and region.dimension == 1:
        return _interval_cells
    if isinstance(region, Simplex) and region.dimension == 2:
        return _triangle_cells
    raise UnsupportedRegion(
        "compounding supports the unit interval, the unit square, "
        "and the standard triangle"
    )


def compound_cells(rule: CubatureRule, level: int) -> int:
    """Number of cells compound_apply builds at this level, checked against
    MAX_CELLS before any is built."""
    if level < 0:
        raise ValueError("level must be >= 0")
    _cell_shape(rule)  # UnsupportedRegion first
    # each of the dim axes is halved level times (a triangle splits in 4);
    # the exponent is compared, so a huge level costs no huge power
    exponent = level * rule.region.dimension
    if exponent > math.log2(MAX_CELLS):
        raise WorkLimit(
            f"level {level} needs 2^{exponent} cells; the limit is {MAX_CELLS} cells"
        )
    return 2**exponent


def compound_apply(
    rule: CubatureRule, level: int, f: Callable[..., float]
) -> CompoundEstimate:
    """Subdivide the rule's region 2^level times per axis (triangles: level
    rounds of 4-way midpoint subdivision), apply the mapped rule on every
    cell, and sum in cell order with compensated accumulation.  Raises
    WorkLimit above MAX_CELLS cells, and OverflowError when a float
    overflow leaves the estimate infinite or NaN."""
    cells = compound_cells(rule, level)
    # |det| of every cell's map: the subdivision is uniform.  It is a power
    # of two, so scaling by it rounds nowhere
    scale = 1.0 / cells
    cell_sum = _CELL_SUM[rule.region.dimension]
    nodes = [
        (tuple(to_float(c) for c in p), to_float(w)) for p, w in zip(rule.nodes, rule.weights)
    ]
    total = 0.0
    carry = 0.0
    for offset, matrix in _cell_shape(rule)(level):
        y = cell_sum(f, offset, matrix, nodes) * scale - carry
        t = total + y
        carry = (t - total) - y
        total = t
    if not math.isfinite(total):
        raise OverflowError(f"the level-{level} estimate is {total}: a float overflowed")
    return CompoundEstimate(level=level, cells=cells, estimate=total)


def convergence_order(
    estimates: Sequence[CompoundEstimate], reference: float
) -> float:
    """Least-squares slope of log|error| against log(h), h = 2^-level.

    Requires at least three levels with nonzero, strictly decreasing
    errors; anything else raises DegenerateErrors rather than returning a
    misleading fit.
    """
    if len(estimates) < 3:
        raise DegenerateErrors("need at least three levels to fit an order")
    errors = [abs(e.estimate - reference) for e in estimates]
    for err in errors:
        if err == 0.0:
            raise DegenerateErrors("zero error: the rule is exact at this level")
    for prev, cur in zip(errors, errors[1:]):
        if cur >= prev:
            raise DegenerateErrors("errors are not strictly decreasing")
    xs = [-e.level * math.log(2.0) for e in estimates]
    ys = [math.log(err) for err in errors]
    n = len(xs)
    mean_x = sum(xs) / n
    mean_y = sum(ys) / n
    num = sum((x - mean_x) * (y - mean_y) for x, y in zip(xs, ys))
    den = sum((x - mean_x) ** 2 for x in xs)
    return num / den
