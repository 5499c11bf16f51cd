from fractions import Fraction

import pytest

from oracles import (
    factorial_disc_moment,
    full_scan_report,
    iterated_cube_moment,
    iterated_simplex_moment,
    scalar_node_sum,
    solve_then_integrate_interpolant,
    steger_polygon_moment,
)
from simpson_nd import claims, exactness, families, rules
from simpson_nd.regions import Cube, Polygon, Simplex, UnitDisc

# the claims that publish a rule's first failing monomial and its residual
FIRST_FAILURE_CLAIMS = {
    "cr3-quartic-residual",
    "cr4-cubic-exactness-plus-bonus",
    "cr5-quadratic-exactness-sqrt3893",
    "cr5-conjugate-solution",
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
        row[:5] + (row[5] + Fraction(1), row[6] + Fraction(1)) + row[7:]
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
    _, _, rule_name, degree, alpha, value, moment, zeros = row
    rule = rules.named_rule(rule_name)
    assert full_scan_report(rule, degree + 1) == (degree, alpha, value - moment)
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


def _unit(n, *axes):
    """The n-tuple with 1 on ``axes`` and 0 elsewhere."""
    return tuple(1 if i in axes else 0 for i in range(n))


def _simplex_vertices(n):
    return {_unit(n)} | {_unit(n, k) for k in range(n)}


_0, _1, _H, _T = Fraction(0), Fraction(1), Fraction(1, 2), Fraction(1, 3)

# the published interpolation cases: (rule, region, basis, nodes), each node
# set the rule's nodes plus its region's centroid
INTERPOLATION_CASES = [
    (rules.cr1(n), Simplex(n),
     {_unit(n)} | {_unit(n, k) for k in range(n)} | {_unit(n, 0, 1)},
     _simplex_vertices(n) | {(Fraction(1, n + 1),) * n})
    for n in range(2, 5)
] + [
    (rules.triangle_midedge(), Simplex(2), {(1, 1), (1, 0), (0, 1), (0, 0)},
     {(_H, _0), (_0, _H), (_H, _H), (_T, _T)}),
    (rules.cr4(), Cube(2), set(families.QUADRATIC_BASIS),
     {(_H, _0), (_0, _H), (_H, _1), (_1, _H), (_H, _H)}),
]


def test_the_interpolation_claim_solves_the_published_systems_by_an_oracle(monkeypatch):
    """Each weight solve of the interpolation claim gets its published
    region, basis and node set, and each weight it must reproduce is the
    integral of the interpolant through the indicator data of its node,
    solved as V c = data by the oracle: the rule's weight there, or 0 at a
    centroid that the rule omits."""
    calls = []
    real = families._interpolatory_weights

    def recorded(region, basis, nodes):
        weights = real(region, basis, nodes)
        calls.append((region, list(basis), list(nodes), weights))
        return weights

    monkeypatch.setattr(families, "_interpolatory_weights", recorded)
    assert all(claim.ok for claim in claims._check_interpolation())
    assert len(calls) == len(INTERPOLATION_CASES)
    for (region, basis, nodes, weights), case in zip(calls, INTERPOLATION_CASES):
        rule, published_region, published_basis, published_nodes = case
        assert (region, set(basis), set(nodes)) == (
            published_region, published_basis, published_nodes)
        assert len(basis) == len(nodes)
        rule_weights = dict(zip(rule.nodes, rule.weights))
        for j, node in enumerate(nodes):
            data = [Fraction(int(i == j)) for i in range(len(nodes))]
            oracle = solve_then_integrate_interpolant(region, basis, nodes, data)
            assert oracle == rule_weights.get(node, Fraction(0)) == weights[j], (rule.label, node)
