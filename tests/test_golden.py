"""Byte-for-byte CLI outputs.  The ``verify`` file and the ``family``
files but one were recorded before the residual systems were generated
from node parameterizations and the elimination loops were merged; the
``compound`` files before the integrand was compiled and the cell
shapes were folded into one affine-cell loop (``compound_cr1_triangle``
before the cell loop and the integrand were compiled into one kernel,
``compound_cr3_square``, whose vertex nodes are shared by four cells,
before the grid kernels evaluated each shared node once); the ``catalog``,
``moments`` and ``derive_hexagon`` files before the ``Quad`` and
``PiMultiple`` operators took over their own arithmetic;
``family_square_param`` before the claim suite read each rule's
exactness report.  Every file here, ``derive_disc_weights`` and
``derive_trapezoid_weights`` included, was recorded before
``gauss_jordan`` became fraction-free over Z and Z[sqrt d] (Bareiss
1968).  Those pin the CR5/CR5* nodes in Q(sqrt 3893), the CR6 pi
weights, hexagon moments in Q(sqrt 3), the irrational lambda witness, a
Gauss-Jordan solve over ``Quad`` pivots, the disc's weights solved
against a column of pi moments, and the trapezoid's infeasibility
certificate with its multipliers.  A refactor of any of these must leave
every file here unchanged, which pins every compound estimate bit for
bit.

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
    "family_square_param": ("square", "--param", "1/3"),
    "family_trapezoid_point": ("trapezoid", "--point", "0,0,0,0,1"),
    "family_trapezoid_conjugate": ("trapezoid", "--branch", "conjugate"),
    "family_simplex3_point": ("simplex3", "--point", "1/2,1/3,2,1/5,0,3/4,1/7,2/7,3/5"),
    "family_simplex3": ("simplex3",),
}

COMPOUND_CASES = {
    "compound_cr4_transcendental": (
        "--rule", "CR4", "--expr", "exp(x)*sin(3*y)+cos(x*y)", "--levels", "1:4"),
    # the reference is a level-6 estimate
    "compound_midedge_transcendental": (
        "--rule", "TriangleMidedge", "--expr", "sin(3*x+y)", "--levels", "1:3"),
    "compound_midedge_polynomial": (
        "--rule", "TriangleMidedge", "--expr", "x^4*y", "--levels", "3:6"),
    "compound_simpson_1d": (
        "--rule", "CR3", "--dim", "1", "--expr", "exp(5*x)*sin(7*x)", "--levels", "2:7"),
    # the centroid (1/3, 1/3) is not dyadic, so its mapped coordinates round
    "compound_cr1_triangle": (
        "--rule", "CR1", "--dim", "2", "--expr", "exp(x)*cos(2*y)+sin(x*y)", "--levels", "1:4"),
    # the vertex nodes are shared by the cells at a grid corner
    "compound_cr3_square": (
        "--rule", "CR3", "--dim", "2", "--expr", "exp(x*y)+x^5", "--levels", "1:5"),
}

FIELD_CASES = {
    "catalog_dim3": ("catalog", "--dim", "3"),
    "moments_hexagon": ("moments", "--region", "hexagon-paper", "--degree", "4"),
    "derive_hexagon_lambda": ("derive", "--region", "hexagon-paper", "--targets", "deg2"),
    "derive_hexagon_weights": (
        "derive", "--region", "hexagon-paper", "--targets", "deg2", "--mode", "weights"),
    # the right-hand sides are all pi multiples
    "derive_disc_weights": ("derive", "--region", "disc", "--mode", "weights"),
    # the infeasible certificate 0 = -1/80 and its multipliers
    "derive_trapezoid_weights": ("derive", "--region", "trapezoid-paper", "--mode", "weights"),
}

CASES = {"verify_all.json": ("--format", "json", "verify", "--all")}
for _command, _cases in (
    (("family",), FAMILY_CASES), (("compound",), COMPOUND_CASES), ((), FIELD_CASES),
):
    for _stem, _args in _cases.items():
        CASES[f"{_stem}.txt"] = ("--format", "text") + _command + _args
        CASES[f"{_stem}.json"] = ("--format", "json") + _command + _args


def test_every_golden_file_has_a_case():
    assert sorted(p.name for p in GOLDEN.iterdir()) == sorted(CASES)


@pytest.mark.parametrize("name", sorted(CASES))
def test_output_matches_golden(capsys, name):
    code = run(list(CASES[name]))
    out = capsys.readouterr().out
    assert code == 0
    assert out == (GOLDEN / name).read_text(encoding="utf-8")
