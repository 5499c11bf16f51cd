"""Byte-for-byte CLI outputs recorded before the residual systems were
generated from node parameterizations and the elimination loops were
merged.  A refactor of either must leave every file here unchanged.

Each file holds the stdout of ``simpson-nd`` for the argv listed below,
for example ``simpson-nd --format json verify --all > verify_all.json``.
"""

from pathlib import Path

import pytest

from simpson_nd.cli import run

GOLDEN = Path(__file__).parent / "golden"

FAMILY_CASES = {
    "family_triangle_point": ("triangle", "--point", "2,0,0,1"),
    "family_square_point": ("square", "--point", "1/3,2,0,1/2,1/2"),
    "family_trapezoid_point": ("trapezoid", "--point", "0,0,0,0,1"),
    "family_trapezoid_conjugate": ("trapezoid", "--branch", "conjugate"),
    "family_simplex3_point": ("simplex3", "--point", "1/2,1/3,2,1/5,0,3/4,1/7,2/7,3/5"),
    "family_simplex3": ("simplex3",),
}

CASES = {"verify_all.json": ("--format", "json", "verify", "--all")}
for _stem, _args in FAMILY_CASES.items():
    CASES[f"{_stem}.txt"] = ("--format", "text", "family") + _args
    CASES[f"{_stem}.json"] = ("--format", "json", "family") + _args


def test_every_golden_file_has_a_case():
    assert sorted(p.name for p in GOLDEN.iterdir()) == sorted(CASES)


@pytest.mark.parametrize("name", sorted(CASES))
def test_output_matches_golden(capsys, name):
    code = run(list(CASES[name]))
    out = capsys.readouterr().out
    assert code == 0
    assert out == (GOLDEN / name).read_text(encoding="utf-8")
