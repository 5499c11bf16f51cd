"""Compound rules by subdivision, and empirical convergence orders.

A base rule over the unit interval, the unit square, or the standard
triangle is mapped affinely onto every cell of a uniform subdivision and
the per-cell estimates are summed.  Cell order is fixed (row-major grids,
depth-first triangle recursion) and the float accumulation is compensated,
so results are reproducible bit for bit.

Every region's cell loop is one generated function, kernel(level, scale),
compiled per rule and integrand with the nodes as float constants and an
integrand from expr.as_function inlined.  It does the float operations,
in the same order, of a loop that maps each node of each cell and calls
the integrand, less work whose floats it already has: a grid node shared
by neighbouring cells is evaluated once, a part of the integrand that
reads one coordinate of the square once per row or column (so
exp(x)*sin(3*y)+cos(x*y) under CR4 makes about 3 math calls per cell, not
9), and the products of a triangle cell's matrix and the nodes once per
distinct matrix.  So every estimate keeps its bits.  Work done ahead of
a cell can meet another error first, so when an inlined kernel raises,
compound_apply runs the level once more through a kernel that calls the
integrand at every node, which raises the every-node loop's first error.
"""

from __future__ import annotations

import math
from typing import Callable, Sequence

from .errors import DegenerateErrors, UnsupportedRegion, WorkLimit
from .expr import InlineSource
from .record import record
from .regions import Cube, Simplex
from .rules import CubatureRule
from .scalars import to_float

# The most cells one compound_apply call builds: 2^20 cells take about
# 0.8-1.1 s on CR4 for exp(x*y)*sin(3*x*y)+cos(x*y), whose three calls
# read both coordinates, 0.5-0.7 s for exp(x)*sin(3*y)+cos(x*y), whose
# exp and sin are computed outside the cell loop, and 0.8-1.1 s on the
# triangle midedge rule for either (building the triangle cells is about
# 0.2-0.3 s of that), on one core of a 2-vCPU Xeon.
MAX_CELLS = 2**20


@record
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


# The triangle cells as affine maps (offset, matrix) of the rule's region,
# x -> matrix x + offset, in depth-first order, each yielded as
# (offset, products(matrix)), products being the kernel's _products (see
# _cells_source).  These float cells are the one way a rule is
# mapped onto a triangle; the interval and square kernels walk their grids
# by index instead (see _grid_source).


def _triangle_cells(level: int, products):
    # Each triangle is its map (o, M), M with columns a and b; its children,
    # in triangle_children's order, are (o, M/2), (o + a/2, M/2),
    # (o + b/2, M/2) and (o + a/2, (b/2, (b - a)/2)).  Every coordinate is
    # dyadic, so these are exactly the midpoints and vertex differences of
    # the vertex form, and no -0.0 arises.  The child matrices depend on M
    # alone, and there are at most six M per depth (orientation has order
    # 6), so each is worked out once and its tuples shared, together with
    # products(M) of each child M, which a cell carries in place of M.  An
    # explicit depth-first stack keeps O(level) triangles alive, not
    # 4^level; the children of a depth-1 triangle are cells, yielded as
    # they come.
    o, matrix = root = ((0.0, 0.0), ((1.0, 0.0), (0.0, 1.0)))
    if level == 0:
        yield o, products(matrix)
        return
    split = {}
    stack = [(root, level)]
    pop = stack.pop
    push = stack.append
    while stack:
        (o, matrix), depth = pop()
        children = split.get(matrix)
        if children is None:
            (ax, bx), (ay, by) = matrix
            half = ((ax / 2, bx / 2), (ay / 2, by / 2))
            turned = ((bx / 2, (bx - ax) / 2), (by / 2, (by - ay) / 2))
            children = split[matrix] = (
                half, turned, ax / 2, ay / 2, bx / 2, by / 2, products(half), products(turned)
            )
        half, turned, hax, hay, hbx, hby, cut, turn = children
        ox, oy = o
        a = (ox + hax, oy + hay)
        b = (ox + hbx, oy + hby)
        if depth > 1:
            depth -= 1
            push(((a, turned), depth))
            push(((b, half), depth))
            push(((a, half), depth))
            push(((o, half), depth))
        else:
            yield o, cut
            yield a, cut
            yield b, cut
            yield a, turn


# One generated function per (rule, integrand), kernel(level, scale), runs
# the whole cell loop of a level and returns the compensated sum.  Per cell
# it maps each node through x -> M x + o with the node's float constants,
# adds w * f(x) in node order, and adds the cell times scale to the sum:
# the float operations, in the order, of a loop that calls f at every node
# of every cell.  An integrand from expr.as_function is inlined over the
# locals x0, x1 (a call costs more than the integrand's arithmetic); any
# other callable is called as _f(x0, x1).  Each source builder returns
# (source, names): the kernel's source, which holds only float reprs, the
# fixed names below and the integrand's inline_source text, and the names
# it runs with besides the integrand's, without builtins (the grid kernels
# get range as _range, the triangle kernel _triangle_cells as _cells and
# its own products function as _products).
#
# On the triangle a cell comes as (o, (t0, t1, ...)): the distinct
# products t = m_ij * p_j over the nodes, with p_j != 0.0, in the order
# the kernel first uses them, each the float multiply of the every-node
# loop, done once per matrix instead of once per cell.  A node coordinate
# is x_i = o_i + t_a + t_b, the terms in that loop's order.  A dropped
# m_ij * 0.0 is +-0.0, and adding it leaves the sum's bits as they are,
# as neither o_i nor any partial sum is ever -0.0.  A coordinate the
# integrand does not read (outside inline.reads and its parts' reads;
# a called integrand reads all) is not computed: float + and * never
# raise, so leaving it out changes no outcome.
#
# On the interval and the square the kernel walks the row-major grid by
# index, with k = 2^level, o = i h and M = h I, h = 1/k, and evaluates
# each node shared by neighbouring cells once.  A node p with p[a] == 0.0
# whose partner q = p + e_a is also a node (q[a] == 1.0, every other
# coordinate equal) takes q's value from cell i - e_a: along axis 0 from a
# local r<n> carried through the row, along axis 1 from a column buffer
# s<n>, both written at the end of a cell.  The mapped coordinates agree
# bit for bit, since (i - 1) h + h * 1.0 == i h exactly for dyadic h and
# i <= 2^20, and the other axes use one expression in both cells.  (M's
# zero entries are left out: o + 0.0 * p == o, as o is never -0.0.)  In
# the first column or row p is evaluated in its node-order place, so the
# points f sees are those of the every-node loop with repeats removed, in
# the same order.
#
# On the square the kernel takes an inlined integrand as
# expr._inline_source's template and parts, and computes each part once in
# the outermost loop where the coordinates it reads are fixed: one that
# reads none once per call (c<m>), one that reads only x1 once per row and
# node y-offset (row<m>_<j>), one that reads only x0 in a table per node
# x-offset (col<m>_<j>, indexed by i0), filled before the loops with
# x0 = i0 * h + h * p0, the expression the cells use.  A lone coordinate
# is a part too, so the cells read x0 and x1 from these as well.  Each part
# takes the same floats through the same operations as it would inline,
# so every estimate keeps its bits.  (On the interval, whose one axis is
# the cell loop, only the constants move.)
#
# So every kernel computes f at exactly the points of the every-node loop
# and raises if and only if that loop does, but an inlined one may raise a
# different error first: a table is filled before any cell.  Whenever an
# inlined kernel raises, on any region, compound_apply therefore runs the
# level once more through a kernel that calls the integrand at each node,
# in the every-node order, which raises that loop's first error:
# as_function's f compiles the same expression.  A called integrand is
# never replayed, as its kernel already calls it in that order.


def _cells_source(dimension: int, nodes, inline: InlineSource) -> tuple[str, dict]:
    axes = range(dimension)
    reads = inline.reads.union(*(read for read, _ in inline.parts))
    keys = {}  # (i, j, p[j]) -> the n of t<n> = m_ij * p[j], in first-use order
    lines = []
    for point, weight in nodes:
        for i in axes:
            if i in reads:
                terms = "".join(
                    f" + t{keys.setdefault((i, j, point[j]), len(keys))}"
                    for j in axes
                    if point[j] != 0.0
                )
                lines.append(f"        x{i} = o{i}{terms}")
        lines.append(f"        cell += {weight!r} * ({inline.body})")
    offset = "".join(f"o{i}, " for i in axes)
    products = "".join(f"t{n}, " for n in range(len(keys)))
    head = [
        "def kernel(level, scale):",
        "    total = 0.0",
        "    carry = 0.0",
        f"    for ({offset}), ({products}) in _cells(level, _products):",
        "        cell = 0.0",
    ]

    def multiply(matrix):  # the t<n> of one cell's matrix, in the order of n
        return tuple([matrix[i][j] * p for i, j, p in keys])

    source = "\n".join(head + lines + _tail("        ")) + "\n"
    return source, {"_cells": _triangle_cells, "_products": multiply}


def _tail(pad: str) -> list:
    return [
        f"{pad}y = cell * scale - carry",
        f"{pad}t = total + y",
        f"{pad}carry = (t - total) - y",
        f"{pad}total = t",
        "    return total",
    ]


def _stored(node: int, axis: int) -> str:
    # where a shared node's value from cell i - e_axis is kept
    return f"r{node}" if axis == 0 else f"s{node}[i0]"


def _grid_source(dimension: int, nodes, inline: InlineSource) -> tuple[str, dict]:
    axes = range(dimension)
    points = [point for point, _ in nodes]
    shared = {}  # node -> [(axis, partner)]
    for n, p in enumerate(points):
        for a in axes:
            q = p[:a] + (1.0,) + p[a + 1 :]
            if p[a] == 0.0 and q in points:
                shared.setdefault(n, []).append((a, points.index(q)))
    partners = {q for pairs in shared.values() for _, q in pairs}
    # offsets[a]: the nodes' distinct coordinates along axis a
    offsets = [list(dict.fromkeys(p[a] for p in points)) for a in axes]
    outer = dimension - 1
    constants = [f"c{m}" for m in range(len(inline.parts))]

    def field(m: int, point) -> str:
        reads = inline.parts[m][0]
        if not reads:
            return f"c{m}"
        (axis,) = reads
        j = offsets[axis].index(point[axis])
        return f"row{m}_{j}" if axis == outer else f"col{m}_{j}[i0]"

    lines = ["def kernel(level, scale):", "    k = 2**level", "    h = 1.0 / k"]
    lines += ["    total = 0.0", "    carry = 0.0"]
    rows, tables = [], []  # (part, source)
    for m, (reads, source) in enumerate(inline.parts):
        source = source.format(*constants)  # a part holds only constants
        if not reads:
            lines.append(f"    c{m} = {source}")
        else:
            (rows if outer in reads else tables).append((m, source))
    if tables:
        lines += [f"    col{m}_{j} = [0.0] * k" for m, _ in tables for j in range(len(offsets[0]))]
        lines.append("    for i0 in _range(k):")
        for j, p in enumerate(offsets[0]):
            lines.append(f"        x0 = i0 * h + h * {p!r}")
            lines += [f"        col{m}_{j}[i0] = {source}" for m, source in tables]
    columns = [n for n, pairs in shared.items() if any(a == 1 for a, _ in pairs)]
    lines += [f"    s{n} = [0.0] * k" for n in columns]
    for a in reversed(axes):
        pad = "    " * (dimension - a)
        lines.append(f"{pad}for i{a} in _range(k):")
        if a in inline.reads or (a == outer and rows):
            lines.append(f"{pad}    o{a} = i{a} * h")
        if a == outer and rows:
            for j, p in enumerate(offsets[a]):
                lines.append(f"{pad}    x{a} = o{a} + h * {p!r}")
                lines += [f"{pad}    row{m}_{j} = {source}" for m, source in rows]
    pad = "    " * (dimension + 1)
    lines.append(f"{pad}cell = 0.0")
    for n, (point, weight) in enumerate(nodes):
        body = inline.template.format(*(field(m, point) for m in range(len(inline.parts))))
        named = n in shared or n in partners
        value = f"v{n}" if named else f"({body})"
        evaluate = [f"x{i} = o{i} + h * {point[i]!r}" for i in axes if i in inline.reads]
        evaluate += [f"v{n} = {body}"] if named else []
        if n in shared:
            for branch, (a, _) in zip(("if", "elif"), shared[n]):
                lines += [f"{pad}{branch} i{a}:", f"{pad}    v{n} = {_stored(n, a)}"]
            lines.append(f"{pad}else:")
            lines += [f"{pad}    {line}" for line in evaluate]
        else:
            lines += [pad + line for line in evaluate]
        lines.append(f"{pad}cell += {weight!r} * {value}")
    for n, pairs in shared.items():
        lines += [f"{pad}{_stored(n, a)} = v{q}" for a, q in pairs]
    return "\n".join(lines + _tail(pad)) + "\n", {"_range": range}


def _compile_kernel(rule: CubatureRule, f: Callable[..., float]):
    dimension = rule.region.dimension
    inline_source = getattr(f, "inline_source", None)
    everything = frozenset(range(dimension))
    if inline_source is None:
        call = "_f(" + ", ".join(f"x{i}" for i in range(dimension)) + ")"
        namespace = {"__builtins__": {}, "_f": f}
        inline = InlineSource(call, namespace, template=call, parts=(), reads=everything)
    else:
        inline = inline_source(dimension)
    nodes = [
        (tuple(to_float(c) for c in p), to_float(w)) for p, w in zip(rule.nodes, rule.weights)
    ]
    source, names = (_grid_source if _on_grid(rule) else _cells_source)(dimension, nodes, inline)
    namespace = inline.namespace | names
    exec(compile(source, "<compound kernel>", "exec"), namespace)
    # taken out of its own globals, so that a replaced kernel is freed at
    # once rather than left as a cycle for the collector
    return namespace.pop("kernel")


# The one kernel kept, as (integrand, rule, kernel).  The CLI calls
# compound_apply once per level with one integrand and one rule, so a
# request compiles one kernel (on CR4 about 0.55-0.65 ms for
# exp(x)*sin(3*y)+cos(x*y) and 0.45 ms for x^6*y^3: the hoisted parts'
# tables and row values lengthen the source), one more, which calls the
# integrand, only for a level whose inlined kernel raises, and
# nothing is kept once the next request starts.
_last_kernel = (None, None, None)


def _kernel(rule: CubatureRule, f: Callable[..., float]):
    global _last_kernel
    last_f, last_rule, kernel = _last_kernel
    if last_f is not f or last_rule != rule:
        kernel = _compile_kernel(rule, f)
        _last_kernel = (f, rule, kernel)
    return kernel


def _on_grid(rule: CubatureRule) -> bool:
    """True on the interval and the square, False on the triangle."""
    region = rule.region
    if isinstance(region, Cube) and region.dimension == 2:
        return True
    if isinstance(region, (Cube, Simplex)) and region.dimension == 1:
        return True
    if isinstance(region, Simplex) and region.dimension == 2:
        return False
    raise UnsupportedRegion(
        "compounding supports the unit interval, the unit square, "
        "and the standard triangle"
    )


def compound_cells(rule: CubatureRule, level: int) -> int:
    """Number of cells compound_apply builds at this level, checked against
    MAX_CELLS before any is built."""
    if level < 0:
        raise ValueError("level must be >= 0")
    _on_grid(rule)  # UnsupportedRegion first
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
    cell, and sum in cell order with compensated accumulation.  f takes
    one float per coordinate; one from expr.as_function is inlined, not
    called.  Raises WorkLimit above MAX_CELLS cells, and OverflowError when
    a float overflow leaves the estimate infinite or NaN."""
    cells = compound_cells(rule, level)
    # |det| of every cell's map: the subdivision is uniform.  It is a power
    # of two, so scaling by it rounds nowhere
    scale = 1.0 / cells
    kernel = _kernel(rule, f)
    try:
        total = kernel(level, scale)
    except (ArithmeticError, ValueError):
        if not hasattr(f, "inline_source"):
            raise
        # an inlined kernel may compute a value before the cells that first
        # use it, so a kernel that calls f at each node finds the first error
        total = _compile_kernel(rule, lambda *p: f(*p))(level, scale)
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
