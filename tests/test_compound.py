import math
from fractions import Fraction

import pytest

from simpson_nd import compound, scalars
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
from simpson_nd.rules import cr1, cr3, cr4, cr6, triangle_midedge

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


def test_compound_cell_limit_is_checked_before_any_cell_is_built(monkeypatch):
    def refuse(*args):
        raise AssertionError("a cell was built past the limit")

    monkeypatch.setattr(compound, "triangle_children", refuse)
    assert MAX_CELLS == 2**20
    for rule, top in ((cr4(), 10), (triangle_midedge(), 10), (cr3(1), 20)):
        assert compound_cells(rule, top) == MAX_CELLS
        with pytest.raises(WorkLimit):
            compound_apply(rule, top + 1, refuse)
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
