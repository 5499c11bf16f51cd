import dataclasses
from fractions import Fraction

import pytest

from simpson_nd import claims, exactness

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
        return dataclasses.replace(real(rule, max_degree), **{field: value})

    monkeypatch.setattr(exactness, "exactness_degree", altered)
    assert {c.name for c in claims.run_claims() if not c.ok} == FIRST_FAILURE_CLAIMS
