from fractions import Fraction

import pytest

from oracles import (
    factorial_disc_moment,
    full_scan_report,
    iterated_cube_moment,
    iterated_simplex_moment,
    scalar_node_sum,
    steger_polygon_moment,
)
from simpson_nd import claims, exactness, rules
from simpson_nd.regions import Cube, Polygon, Simplex, UnitDisc

# the claims that publish a rule's first failing monomial and its residual
FIRST_FAILURE_CLAIMS = {
    "cr3-quartic-residual",
    "cr4-cubic-exactness-plus-bonus",
    "cr5-quadratic-exactness-sqrt3893",
    "cr6-cubic-exactness-pi-weights",
    "midedge-quadratic-exactness",
}


@pytest.mark.parametrize(
    "field, value", [("failing", None), ("failing", (0, 4)), ("failing_residual", Fraction(7))]
)
def test_first_failure_claims_read_the_exactness_report(monkeypatch, field, value):
    real = exactness.exactness_degree

    def altered(rule, max_degree):
        report = real(rule, max_degree)
        fields = {
            "label": report.label,
            "certified_degree": report.certified_degree,
            "failing": report.failing,
            "failing_residual": report.failing_residual,
            "max_degree": report.max_degree,
        }
        return exactness.ExactnessReport(**{**fields, field: value})

    monkeypatch.setattr(exactness, "exactness_degree", altered)
    assert {c.name for c in claims.run_claims() if not c.ok} == FIRST_FAILURE_CLAIMS


def test_a_nonzero_bonus_residual_fails_only_the_cr4_claim(monkeypatch):
    real = exactness.residual

    def altered(rule, alpha):
        return Fraction(1) if tuple(alpha) == (3, 1) else real(rule, alpha)

    monkeypatch.setattr(exactness, "residual", altered)
    assert {c.name for c in claims.run_claims() if not c.ok} == {"cr4-cubic-exactness-plus-bonus"}


def test_a_row_whose_value_and_moment_both_shift_fails(monkeypatch):
    """The residual value - moment is unchanged, but the moment is wrong."""
    rows = [
        row[:6] + (row[6] + Fraction(1), row[7] + Fraction(1)) + row[8:]
        if row[0] == "midedge-quadratic-exactness" else row
        for row in claims._FIRST_FAILURES
    ]
    monkeypatch.setattr(claims, "_FIRST_FAILURES", tuple(rows))
    assert {c.name for c in claims.run_claims() if not c.ok} == {"midedge-quadratic-exactness"}


def _oracle_moment(region, alpha):
    """The region's moment from tests/oracles.py, which shares no code with
    the package's moment routines."""
    if isinstance(region, Cube):
        return iterated_cube_moment(region.dimension, alpha)
    if isinstance(region, Simplex):
        return iterated_simplex_moment(region.dimension, alpha)
    if isinstance(region, Polygon):
        return steger_polygon_moment(list(region.vertices()), *alpha)
    assert isinstance(region, UnitDisc)
    return factorial_disc_moment(*alpha)


@pytest.mark.parametrize("row", claims._FIRST_FAILURES, ids=lambda row: row[0])
def test_each_first_failure_row_holds_by_the_oracles(row):
    _, _, rule_name, top, degree, alpha, value, moment, zeros = row
    rule = rules.named_rule(rule_name)
    residual = None if alpha is None else value - moment
    assert full_scan_report(rule, top) == (degree, alpha, residual)
    if alpha is not None:
        assert _oracle_moment(rule.region, alpha) == moment
    for beta in zeros:
        # a bonus: past the certified degree, yet exact
        assert sum(beta) > degree
        assert scalar_node_sum(rule.nodes, rule.weights, beta) == _oracle_moment(rule.region, beta)


def test_each_compound_study_builds_its_rule_once(monkeypatch):
    calls = dict.fromkeys(("cr4", "triangle_midedge", "cr3"), 0)
    for name in calls:
        def counted(*args, build=getattr(rules, name), name=name):
            calls[name] += 1
            return build(*args)

        monkeypatch.setattr(rules, name, counted)
    assert all(claim.ok for claim in claims._check_convergence())
    assert calls == {"cr4": 1, "triangle_midedge": 1, "cr3": 1}
