from fractions import Fraction

import pytest

from simpson_nd import claims, exactness, rules

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


def test_each_compound_study_builds_its_rule_once(monkeypatch):
    calls = dict.fromkeys(("cr4", "triangle_midedge", "cr3"), 0)
    for name in calls:
        def counted(*args, build=getattr(rules, name), name=name):
            calls[name] += 1
            return build(*args)

        monkeypatch.setattr(rules, name, counted)
    assert all(claim.ok for claim in claims._check_convergence())
    assert calls == {"cr4": 1, "triangle_midedge": 1, "cr3": 1}
