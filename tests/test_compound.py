import math
import random
from array import array
from collections import Counter
from fractions import Fraction

import pytest

from simpson_nd import compound, expr, rules, scalars
from simpson_nd.compound import (
    MAX_CELLS,
    CompoundEstimate,
    compound_apply,
    compound_cells,
    convergence_order,
    triangle_children,
)
from simpson_nd.errors import DegenerateErrors, UnsupportedRegion, WorkLimit
from simpson_nd.exactness import monomials_up_to
from simpson_nd.expr import as_function, parse
from simpson_nd.regions import Simplex
from simpson_nd.rules import cr1, cr2, cr3, cr4, cr6, named_rule, triangle_midedge

from oracles import (
    every_node_compound,
    random_float_expr,
    stack_triangle_cells,
    walk_eval_float,
    walk_outcome,
)

E = math.e


def test_triangle_children_cover_parent_exactly():
    v = ((Fraction(0), Fraction(0)), (Fraction(1), Fraction(0)), (Fraction(0), Fraction(1)))
    children = triangle_children(*v)
    assert len(children) == 4

    def doubled_area(t):
        (x0, y0), (x1, y1), (x2, y2) = t
        return abs((x1 - x0) * (y2 - y0) - (x2 - x0) * (y1 - y0))

    total = sum(doubled_area(t) for t in children)
    assert total == doubled_area(v)
    assert {doubled_area(t) for t in children} == {Fraction(1, 4)}


def test_triangle_children_agree_across_scalar_types():
    def subdivide(start, depth):
        cells = [start]
        for _ in range(depth):
            cells = [child for cell in cells for child in triangle_children(*cell)]
        return cells

    zero, one = Fraction(0), Fraction(1)
    exact = subdivide(((zero, zero), (one, zero), (zero, one)), 4)
    floats = subdivide(((0.0, 0.0), (1.0, 0.0), (0.0, 1.0)), 4)
    # dyadic midpoints are exact in floats: the same cells in the same order
    assert [[[float(c) for c in v] for v in t] for t in exact] == [
        [list(v) for v in t] for t in floats
    ]
    r = scalars.quad(0, 1, 3)
    irrational = subdivide(((zero, zero), (r, zero), (zero, r)), 1)
    assert irrational[3] == ((r / 2, zero), (r / 2, r / 2), (zero, r / 2))


def test_triangle_cells_match_a_stack_of_every_triangle():
    for level in range(9):
        want = repr(list(stack_triangle_cells(level)))  # signed zeros included
        assert repr(list(compound._triangle_cells(level, lambda m: m))) == want


def test_compound_cell_limit_is_checked_before_any_cell_is_built(monkeypatch):
    def refuse(*args):
        raise AssertionError("a kernel was built past the limit")

    # every shape's cells are walked by a kernel built here, and the
    # triangle's come from _triangle_cells besides
    monkeypatch.setattr(compound, "_compile_kernel", refuse)
    monkeypatch.setattr(compound, "_triangle_cells", refuse)
    assert MAX_CELLS == 2**20
    for rule, top in ((cr4(), 10), (triangle_midedge(), 10), (cr3(1), 20)):
        assert compound_cells(rule, top) == MAX_CELLS
        with pytest.raises(WorkLimit):
            compound_apply(rule, top + 1, refuse)
        # a new integrand needs a new kernel, which refuses
        with pytest.raises(AssertionError, match="past the limit"):
            compound_apply(rule, 0, lambda *p: 0.0)
    with pytest.raises(WorkLimit):
        compound_apply(cr4(), 10**9, refuse)
    with pytest.raises(ValueError):
        compound_apply(cr4(), -1, refuse)


def test_compound_level_zero_weight_sum():
    est = compound_apply(cr4(), 0, lambda x, y: 1.0)
    assert est.cells == 1
    assert est.estimate == pytest.approx(1.0, abs=1e-15)


def test_compound_cell_counts():
    assert compound_apply(cr4(), 3, lambda x, y: 0.0).cells == 64
    assert compound_apply(triangle_midedge(), 2, lambda x, y: 0.0).cells == 16
    assert compound_apply(cr3(1), 4, lambda x: 0.0).cells == 16


def test_compound_square_exp():
    est = compound_apply(cr4(), 3, lambda x, y: math.exp(x + y))
    assert abs(est.estimate - (E - 1.0) ** 2) < 1e-6


def test_compound_triangle_quadratic_exact_at_every_level():
    exact = 1.0 / 12.0
    for level in range(0, 4):
        est = compound_apply(triangle_midedge(), level, lambda x, y: x * x)
        assert abs(est.estimate - exact) <= 1e-12 * exact


def test_compound_inherits_exactness():
    # a degree-3 exact rule stays exact for all cubics on every level
    for alpha in monomials_up_to(2, 3):
        exact = scalars.to_float(Fraction(1, (alpha[0] + 1) * (alpha[1] + 1)))
        for level in (1, 2):
            est = compound_apply(
                cr4(), level, lambda x, y, a=alpha: x ** a[0] * y ** a[1]
            )
            assert abs(est.estimate - exact) <= 1e-12 * max(exact, 1.0)


def test_compound_weight_sums_match_region_volume():
    for rule, volume in [
        (cr4(), 1.0),
        (triangle_midedge(), 0.5),
        (cr1(2), 0.5),
        (cr3(1), 1.0),
    ]:
        for level in (1, 3, 6):
            arity = rule.region.dimension
            one = (lambda x: 1.0) if arity == 1 else (lambda x, y: 1.0)
            est = compound_apply(rule, level, one)
            assert abs(est.estimate - volume) <= 1e-12 * volume


def test_compound_unsupported_region():
    with pytest.raises(UnsupportedRegion):
        compound_apply(cr6(), 1, lambda x, y: 1.0)
    with pytest.raises(UnsupportedRegion):
        compound_apply(cr3(3), 1, lambda x, y, z: 1.0)


def test_convergence_order_cr4():
    ests = [compound_apply(cr4(), lv, lambda x, y: math.exp(x + y)) for lv in range(1, 6)]
    order = convergence_order(ests, (E - 1.0) ** 2)
    assert abs(order - 4.0) <= 0.3


def test_convergence_order_midedge():
    ests = [
        compound_apply(triangle_midedge(), lv, lambda x, y: math.exp(x + y))
        for lv in range(1, 6)
    ]
    order = convergence_order(ests, 1.0)
    assert order >= 3.0 - 0.3


def test_convergence_order_simpson_1d():
    ests = [compound_apply(cr3(1), lv, math.exp) for lv in range(1, 6)]
    order = convergence_order(ests, E - 1.0)
    assert abs(order - 4.0) <= 0.3


def test_convergence_order_cr1_triangle():
    # degree-2 exact rule: at least third order on a smooth integrand
    ests = [
        compound_apply(cr1(2), lv, lambda x, y: math.exp(x + y)) for lv in range(1, 6)
    ]
    order = convergence_order(ests, 1.0)
    assert order >= 2.7


def test_convergence_order_degenerate():
    with pytest.raises(DegenerateErrors):
        convergence_order(
            [CompoundEstimate(1, 4, 1.0), CompoundEstimate(2, 16, 1.0)], 0.0
        )
    flat = [
        CompoundEstimate(1, 4, 2.0),
        CompoundEstimate(2, 16, 2.0),
        CompoundEstimate(3, 64, 2.0),
    ]
    with pytest.raises(DegenerateErrors):
        convergence_order(flat, 1.0)
    with pytest.raises(DegenerateErrors):
        # exact estimates: zero error must be reported, not fitted
        ests = [compound_apply(cr4(), lv, lambda x, y: 1.0) for lv in (1, 2, 3)]
        convergence_order(ests, 1.0)


def test_compound_apply_refuses_a_non_finite_estimate():
    def overflowing(x, y):
        return math.exp(700) * math.exp(700) * x  # inf, and nan at x = 0

    with pytest.raises(OverflowError, match="level-1 estimate is nan"):
        compound_apply(cr4(), 1, overflowing)


def test_compound_determinism():
    f = lambda x, y: math.sin(3.0 * x) * math.cos(2.0 * y) + x
    a = compound_apply(cr4(), 4, f).estimate
    b = compound_apply(cr4(), 4, f).estimate
    assert a == b


def _outcome(rule, level, f):
    try:
        return compound_apply(rule, level, f).estimate.hex()
    except Exception as exc:
        return type(exc)


# (rule, variable names, highest level) for the path tests: every cell
# shape, and CR1(2)'s centroid node (1/3, 1/3), which is not dyadic, so its
# mapped coordinates round
_PATH_CASES = (
    (cr1(1), ["x"], 3),
    (cr3(1), ["x"], 3),
    (cr4(), ["x", "y"], 3),
    (cr3(2), ["x", "y"], 3),
    (triangle_midedge(), ["x", "y"], 5),
    (cr1(2), ["x", "y"], 5),
    (cr2(2), ["x", "y"], 5),
)


def test_compiled_integrand_matches_tree_walk_through_compound_apply():
    # the tree-walk reference sees the same mapped floats
    def walked(tree):
        def f(*point):
            try:
                value = walk_eval_float(tree, point)
            except Exception:  # walk_outcome finds the first error below
                value = None
            if type(value) is float:  # no complex power on the way either
                return value
            outcome = walk_outcome(tree, point)
            if isinstance(outcome, type):
                raise outcome
            return outcome

        return f

    rng = random.Random(1317)
    seen = set()
    for rule, names, top in _PATH_CASES:
        for _ in range(40):
            tree = random_float_expr(rng, rng.randint(1, 4), names)
            for level in range(top + 1):
                want = _outcome(rule, level, walked(tree))
                assert _outcome(rule, level, as_function(tree)) == want, (rule.label, level, tree)
                seen.add(want if isinstance(want, type) else str)
    # estimates and the errors a float integrand raises are all reached
    assert seen >= {str, ValueError, ZeroDivisionError, OverflowError}


def _full_outcome(rule, level, f):
    try:
        return compound_apply(rule, level, f).estimate.hex()
    except Exception as exc:
        return type(exc), str(exc)


def test_inlined_integrand_matches_a_called_one_through_compound_apply():
    # as_function's integrand is inlined into the compound kernel; the
    # wrapper hides it, so the kernel calls it instead
    rng = random.Random(2420)
    seen = set()
    for rule, names, top in _PATH_CASES:
        names = names + ["y" if len(names) == 1 else "z"]  # one past the dimension
        for _ in range(40):
            f = as_function(random_float_expr(rng, rng.randint(1, 4), names))
            for level in range(top + 1):
                want = _full_outcome(rule, level, lambda *p: f(*p))
                assert _full_outcome(rule, level, f) == want, (rule.label, level, f)
                seen.add(want if isinstance(want, tuple) else str)
    assert {str, (ValueError, "variable z needs dimension >= 3")} <= seen
    assert (ValueError, "variable y needs dimension >= 2") in seen
    assert {t for t, _ in seen - {str}} >= {ValueError, ZeroDivisionError, OverflowError}


def _recording(f, points):
    def record(*point):
        points.append(tuple(map(float.hex, point)))
        return f(*point)

    return record


def _logging(f, points):
    # _recording's cheaper form: each point kept as its argument tuple
    def log(*point):
        points.append(point)
        return f(*point)

    return log


def _bits(points) -> bytes:
    # the points' coordinates as raw doubles: -0.0 differs from 0.0
    return array("d", [c for point in points for c in point]).tobytes()


def _every_node_outcome(rule, level, f):
    try:
        total = every_node_compound(rule, level, f)
    except Exception as exc:
        return type(exc), str(exc)
    if math.isfinite(total):
        return total.hex()
    return OverflowError, f"the level-{level} estimate is {total}: a float overflowed"


def test_grid_kernels_evaluate_each_shared_node_once():
    # (rule, level) -> calls: cell centres plus the distinct grid points
    # on the boundary nodes, against nodes * cells for a call per node
    calls = {
        (cr3(1), 3): 8 + 9,
        (cr1(1), 5): 32 + 33,
        (cr4(), 3): 64 + 2 * 8 * 9,
        (cr3(2), 3): 64 + 9 * 9,
        (cr3(2), 0): 5,
    }
    for (rule, level), want in calls.items():
        points = []
        compound_apply(rule, level, _recording(lambda *p: 1.0, points))
        assert len(points) == len(set(points)) == want, (rule.label, level)


def test_grid_kernels_match_a_call_at_every_node_of_every_cell():
    # the estimate, or the error raised, is the every-node loop's, inlined
    # or called; a called integrand sees that loop's points, repeats
    # removed, in the order they first come
    rng = random.Random(1810)
    seen = set()
    for rule, names in (
        (cr1(1), ["x"]),
        (cr2(1), ["x"]),
        (cr3(1), ["x"]),
        (cr4(), ["x", "y"]),
        (cr3(2), ["x", "y"]),
    ):
        # integrands that first fail on the grid lines x = 0, 1/2 and 1, and
        # on the square ones whose subtrees of one coordinate fail: the
        # first fails in a row before its column table would
        trees = [
            parse(text)
            for text in (
                "log(x)",
                "1/(2*x-1)",
                "exp(710*x)",
                "(y-0.3)^0.5+(x-0.6)^0.5",
                "log(y)*exp(x)",
                "sin(3)*x+1/(2*y-1)",
            )
        ]
        trees += [random_float_expr(rng, rng.randint(1, 4), names) for _ in range(40)]
        for tree in trees:
            f = as_function(tree)
            for level in range(6):
                every, once = [], []
                want = _every_node_outcome(rule, level, _recording(f, every))
                assert _full_outcome(rule, level, f) == want, (rule.label, level, f)
                assert _full_outcome(rule, level, _recording(f, once)) == want
                assert once == list(dict.fromkeys(every)), (rule.label, level, f)
                seen.add(want if isinstance(want, tuple) else str)
    assert {t for t, _ in seen - {str}} >= {ValueError, ZeroDivisionError, OverflowError}
    assert str in seen


def test_triangle_kernel_matches_a_call_at_every_node_of_every_cell():
    # the estimate, or the first error, is the every-node loop's, inlined or
    # called, on every catalog triangle rule; a called integrand sees every
    # node of every cell, repeats included, in that loop's order
    catalog = [named_rule(name, 2) for name in (*rules._NAMED_NEED_DIM, *rules._NAMED_FIXED)]
    triangle_rules = [
        rule
        for rule in catalog
        if isinstance(rule.region, Simplex) and rule.region.dimension == 2
    ]
    assert [rule.label for rule in triangle_rules] == ["CR1(2)", "CR2(2)", "TriangleMidedge"]
    rng = random.Random(1810)
    seen = set()
    for rule in triangle_rules:
        # integrands that first fail on the edges x = 0, y = 0 and x + y = 1,
        # on grid lines, and at a variable past the dimension
        trees = [
            parse(text)
            for text in (
                "log(x)",
                "log(y)",
                "1/(x+y-1)",
                "x+z",
                "1/(2*x-1)",
                "exp(710*x)",
                "(y-0.3)^0.5+(x-0.6)^0.5",
                "log(y)*exp(x)",
                "sin(3)*x+1/(2*y-1)",
            )
        ]
        trees += [random_float_expr(rng, rng.randint(1, 4), ["x", "y"]) for _ in range(40)]
        for tree in trees:
            f = as_function(tree)
            for level in range(7):
                every, called = [], []
                want = _every_node_outcome(rule, level, _logging(f, every))
                assert _full_outcome(rule, level, f) == want, (rule.label, level, f)
                assert _full_outcome(rule, level, _logging(f, called)) == want
                assert _bits(called) == _bits(every), (rule.label, level, f)
                seen.add(want if isinstance(want, tuple) else str)
    assert {t for t, _ in seen - {str}} >= {ValueError, ZeroDivisionError, OverflowError}
    assert (ValueError, "variable z needs dimension >= 3") in seen
    assert str in seen


def test_square_kernel_evaluates_each_subtree_where_its_coordinates_are_fixed(monkeypatch):
    # CR4 has the node offsets 0, 1/2 and 1 on each axis: exp(x) is taken
    # once per column and offset, sin(3*y) once per row and offset, sin(1)
    # once, and cos(x*y) at each distinct node point
    calls = Counter()

    def counted(name, fn):
        return lambda value: calls.update([name]) or fn(value)

    for name in ("_exp", "_sin", "_cos"):
        monkeypatch.setitem(expr._NAMESPACE, name, counted(name, expr._NAMESPACE[name]))
    level, k = 3, 8
    f = as_function(parse("exp(x)*sin(3*y)+cos(x*y)+sin(1)"))
    got = compound_apply(cr4(), level, f).estimate
    assert calls == {"_exp": 3 * k, "_sin": 3 * k + 1, "_cos": k * k + 2 * k * (k + 1)}
    assert got.hex() == every_node_compound(cr4(), level, lambda *p: f(*p)).hex()
