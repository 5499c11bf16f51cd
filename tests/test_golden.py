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
against its pi moments (recorded while the elimination still took a
column of pi multiples; ``solve_weights`` now strips the pi and puts it
back itself), and the trapezoid's infeasibility certificate with its
multipliers.  A refactor of any of these must leave
every file here unchanged, which pins every compound estimate bit for
bit.  Every ``.csv`` file, and the ``verify_cr3_dim3`` and
``moments_trapezoid`` files, were recorded before each command built only
the output form that ``--format`` selects.  The five lambda-mode
``derive`` files named for the cube, the simplex, the trapezoid, the
irrational hexagon solution and the disc were recorded while
``solve_lambda`` still took a midpoint and a spread rule.  The
``family_triangle_param``, ``family_triangle_param_outside`` and
``family_square_param_outside`` files were recorded while each family's
blend parameter was a hand-expanded closed form in its parameter; the
two ``outside`` members put nodes off the boundary.  The
``compound_cr4_separable`` and ``compound_cr3_constant_subtree`` files
were recorded before the square kernel computed the subexpressions that
read at most one coordinate outside its cell loop, and the
``family_simplex3_vertex_search`` files before the vertex search summed
its candidate nodes from one table and the family systems kept M.
The ``verify_all.txt`` and ``verify_all.csv`` files were recorded before
the claim suite read its single-rule first failures from one table.

Each file holds the stdout of ``simpson-nd`` for the argv listed below,
for example ``simpson-nd --format json verify --all > verify_all.json``.
Run as a script, ``PYTHONPATH=src python tests/test_golden.py`` runs every
case in a fresh interpreter instead of in process, with warnings as
errors, as pytest runs them.
"""

import subprocess
import sys
from pathlib import Path

import pytest

from simpson_nd import cli, rules, scalars
from simpson_nd.cli import run

GOLDEN = Path(__file__).parent / "golden"

FAMILY_CASES = {
    "family_triangle_point": ("triangle", "--point", "2,0,0,1"),
    "family_square_point": ("square", "--point", "1/3,2,0,1/2,1/2"),
    "family_square_param": ("square", "--param", "1/3"),
    "family_triangle_param": ("triangle", "--param", "2/7"),
    # these two members put nodes off the boundary: the unchecked system path
    "family_triangle_param_outside": ("triangle", "--param=-3/4"),
    "family_square_param_outside": ("square", "--param", "5/2"),
    "family_trapezoid_point": ("trapezoid", "--point", "0,0,0,0,1"),
    "family_trapezoid_conjugate": ("trapezoid", "--branch", "conjugate"),
    "family_simplex3_point": ("simplex3", "--point", "1/2,1/3,2,1/5,0,3/4,1/7,2/7,3/5"),
    "family_simplex3": ("simplex3",),
    "family_simplex3_vertex_search": ("simplex3", "--vertex-search"),
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
    # a product of a function of x and one of y
    "compound_cr4_separable": (
        "--rule", "CR4", "--expr", "cos(4*x)*exp(y)", "--levels", "1:3"),
    # sin(1) reads no coordinate; the vertex nodes are shared at a grid corner
    "compound_cr3_constant_subtree": (
        "--rule", "CR3", "--dim", "2", "--expr", "exp(sin(1)*y)*x^3+cos(x*y)", "--levels", "1:4"),
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
    "verify_cr3_dim3": ("verify", "--rule", "CR3", "--dim", "3"),
    "moments_trapezoid": ("moments", "--region", "trapezoid-paper", "--degree", "6"),
    # every outcome of the lambda solve: the unique 2/3, underdetermined,
    # two equations that disagree, the one irrational solution, 0*lam = pi/24
    "derive_cube3_lambda": ("derive", "--region", "cube:3", "--targets", "deg3"),
    "derive_simplex3_lambda": ("derive", "--region", "simplex:3", "--targets", "deg1"),
    "derive_trapezoid_lambda": ("derive", "--region", "trapezoid-paper"),
    "derive_hexagon_irrational_lambda": (
        "derive", "--region", "hexagon-paper", "--targets", "deg2", "--exclude", "y^2"),
    "derive_disc_lambda": ("derive", "--region", "disc", "--targets", "deg4", "--exclude", "x^4"),
}

_FORMATS = (("text", "txt"), ("json", "json"), ("csv", "csv"))
CASES = {
    f"verify_all.{_suffix}": ("--format", _format, "verify", "--all")
    for _format, _suffix in _FORMATS
}
for _command, _cases in (
    (("family",), FAMILY_CASES), (("compound",), COMPOUND_CASES), ((), FIELD_CASES),
):
    for _stem, _args in _cases.items():
        for _format, _suffix in _FORMATS:
            CASES[f"{_stem}.{_suffix}"] = ("--format", _format) + _command + _args


def test_every_golden_file_has_a_case():
    assert sorted(p.name for p in GOLDEN.iterdir()) == sorted(CASES)


@pytest.mark.parametrize("name", sorted(CASES))
def test_output_matches_golden(capsys, name):
    code = run(list(CASES[name]))
    out = capsys.readouterr().out
    assert code == 0
    assert out == (GOLDEN / name).read_text(encoding="utf-8")


@pytest.mark.parametrize("name", sorted(n for n in CASES if not n.endswith(".json")))
def test_text_and_csv_output_build_no_json(capsys, monkeypatch, name):
    """A command builds only the form that --format selects."""
    def refuse(*args):
        raise AssertionError(f"{name} built JSON")

    monkeypatch.setattr(cli, "region_to_json", refuse)
    monkeypatch.setattr(scalars, "scalar_to_json", refuse)
    monkeypatch.setattr(rules, "rule_to_json", refuse)
    code = run(list(CASES[name]))
    assert code == 0
    assert capsys.readouterr().out == (GOLDEN / name).read_text(encoding="utf-8")


def main() -> int:
    """Run every case as ``python -W error -m simpson_nd.cli`` in its own
    interpreter and compare its stdout with the golden file byte for byte;
    any output on stderr fails the case too."""
    failed = []
    for name, argv in sorted(CASES.items()):
        done = subprocess.run(
            [sys.executable, "-W", "error", "-m", "simpson_nd.cli", *argv], capture_output=True
        )
        if done.returncode != 0 or done.stderr or done.stdout != (GOLDEN / name).read_bytes():
            failed.append(name)
    print(f"{len(CASES) - len(failed)} of {len(CASES)} golden files match")
    for name in failed:
        print(f"differs: {name}")
    return 1 if failed else 0


if __name__ == "__main__":
    raise SystemExit(main())
