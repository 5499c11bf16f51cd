import csv
import gc
import io
import json
import math
import random

import pytest

from simpson_nd.cli import run


def run_cli(capsys, *argv):
    code = run(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_verify_rule(capsys):
    code, out, _ = run_cli(capsys, "verify", "--rule", "CR3", "--dim", "3", "--max-degree", "5")
    assert code == 0
    assert "certified degree 3" in out
    assert "x^4" in out
    assert "1/120" in out
    # --max-degree is 5 unless given
    code, again, _ = run_cli(capsys, "verify", "--rule", "CR3", "--dim", "3")
    assert code == 0
    assert again == out


def test_verify_rule_json(capsys):
    code, out, _ = run_cli(
        capsys, "--format", "json", "verify", "--rule", "CR3", "--dim", "3",
        "--max-degree", "5",
    )
    assert code == 0
    blob = json.loads(out)
    assert blob["degree"] == 3
    assert blob["failing"] == [4, 0, 0]
    assert blob["tested"] == 5


def test_verify_all_exit_code(capsys):
    code, out, _ = run_cli(capsys, "verify", "--all")
    assert code == 0
    assert "claims confirmed" in out
    assert "FAIL" not in out


def test_moments_trapezoid(capsys):
    code, out, _ = run_cli(capsys, "moments", "--region", "trapezoid-paper", "--degree", "2")
    assert code == 0
    lines = [line.strip() for line in out.strip().splitlines()]
    assert len(lines) == 7  # header plus six moments
    assert lines[-1] == "x*y = 17/24"


def test_moments_csv(capsys):
    code, out, _ = run_cli(
        capsys, "--format", "csv", "moments", "--region", "disc", "--degree", "2"
    )
    assert code == 0
    rows = list(csv.reader(io.StringIO(out)))
    assert rows[0] == ["monomial", "exponents", "exact", "decimal"]
    body = {row[0]: row[2] for row in rows[1:]}
    assert body["1"] == "pi"
    assert body["x^2"] == "pi/4"
    assert body["x*y"] == "0"


def test_derive_hexagon_infeasible(capsys):
    code, out, _ = run_cli(capsys, "derive", "--region", "hexagon-paper", "--targets", "deg2")
    assert code == 0  # infeasibility is a correct finding
    assert "infeasible" in out


def test_derive_simplex_lambda(capsys):
    code, out, _ = run_cli(
        capsys, "--format", "json", "derive", "--region", "simplex:2",
        "--targets", "deg2",
    )
    assert code == 0
    blob = json.loads(out)
    assert blob["outcome"] == "unique"
    assert blob["values"] == [{"rat": ["3", "4"]}]


def test_derive_weights_modes(capsys):
    code, out, _ = run_cli(
        capsys, "--format", "json", "derive", "--region", "trapezoid-paper",
        "--targets", "deg2", "--mode", "weights",
    )
    assert code == 0
    assert json.loads(out)["outcome"] == "infeasible"
    code, out, _ = run_cli(
        capsys, "--format", "json", "derive", "--region", "trapezoid-paper",
        "--targets", "deg2", "--mode", "weights", "--exclude", "x*y",
    )
    blob = json.loads(out)
    assert blob["outcome"] == "unique"
    assert {"rat": ["81", "80"]} in blob["values"]


def test_family_triangle(capsys):
    code, out, _ = run_cli(capsys, "family", "triangle", "--param", "1/3")
    assert code == 0
    assert "solves the system" in out
    assert "lambda=1/4" in out


def test_family_square_point(capsys):
    code, out, _ = run_cli(
        capsys, "--format", "json", "family", "square", "--point", "1/2,1/2,1/2,1/2,1/3"
    )
    assert code == 0
    blob = json.loads(out)
    assert blob["solves"] is True


def test_family_trapezoid_branches(capsys):
    for branch in ("primary", "conjugate"):
        code, out, _ = run_cli(
            capsys, "--format", "json", "family", "trapezoid", "--branch", branch
        )
        assert code == 0
        assert json.loads(out)["solves"] is True


def test_family_simplex3_vertex_search(capsys):
    code, out, _ = run_cli(capsys, "--format", "json", "family", "simplex3", "--vertex-search")
    assert code == 0
    blob = json.loads(out)
    assert len(blob["solutions"]) == 9


def test_compound_csv(capsys):
    code, out, _ = run_cli(
        capsys, "--format", "csv", "compound", "--rule", "CR3", "--dim", "1",
        "--expr", "exp(x)", "--levels", "1:4",
    )
    assert code == 0
    rows = list(csv.reader(io.StringIO(out)))
    assert rows[0] == ["level", "cells", "estimate", "error", "ratio"]
    assert [row[0] for row in rows[1:]] == ["1", "2", "3", "4"]
    # fourth-order rule: successive error ratios sit near 16
    ratios = [float(row[4]) for row in rows[2:]]
    assert all(10.0 < r < 22.0 for r in ratios)


def test_compound_exact_reference_for_polynomials(capsys):
    code, out, _ = run_cli(
        capsys, "--format", "json", "compound", "--rule", "CR4",
        "--expr", "x^2*y", "--levels", "0:2",
    )
    assert code == 0
    blob = json.loads(out)
    assert blob["reference_kind"] == "exact"
    assert blob["reference"] == pytest.approx(1.0 / 6.0, rel=1e-15)


def test_catalog(capsys):
    code, out, _ = run_cli(capsys, "catalog", "--dim", "3")
    assert code == 0
    for label in ("CR1(3)", "CR2(3)", "CR3(3)", "CR4", "CR5", "CR6", "TriangleMidedge"):
        assert label in out
    assert "sqrt(3893)" in out
    assert "pi/8" in out


def test_catalog_json_round_trips(capsys):
    from simpson_nd.rules import rule_from_json

    code, out, _ = run_cli(capsys, "--format", "json", "catalog", "--dim", "2")
    assert code == 0
    blob = json.loads(out)
    assert len(blob["rules"]) == 8
    for entry in blob["rules"]:
        rebuilt = rule_from_json(entry)
        assert rebuilt.label == entry["label"]


def test_catalog_lists_the_rules_of_the_name_tables(capsys, monkeypatch):
    from simpson_nd import rules

    monkeypatch.setitem(rules._NAMED_FIXED, "EXTRA", lambda: rules.cr3(2))
    code, out, _ = run_cli(capsys, "--format", "json", "catalog", "--dim", "2")
    assert code == 0
    labels = [entry["label"] for entry in json.loads(out)["rules"]]
    assert labels == ["CR1(2)", "CR2(2)", "CR3(2)", "CR4", "CR5", "CR5*", "CR6",
                      "TriangleMidedge", "CR3(2)"]


def test_region_file(tmp_path, capsys):
    path = tmp_path / "region.json"
    path.write_text(json.dumps({"simplex": 2}))
    code, out, _ = run_cli(
        capsys, "--format", "json", "moments", "--region-file", str(path), "--degree", "1"
    )
    assert code == 0
    blob = json.loads(out)
    assert blob["moments"][0]["value"] == {"rat": ["1", "2"]}


def test_polygon_region_file(tmp_path, capsys):
    region = {
        "polygon": [
            [{"rat": ["0", "1"]}, {"rat": ["0", "1"]}],
            [{"rat": ["2", "1"]}, {"rat": ["0", "1"]}],
            [{"rat": ["0", "1"]}, {"rat": ["2", "1"]}],
        ]
    }
    path = tmp_path / "tri.json"
    path.write_text(json.dumps(region))
    code, out, _ = run_cli(
        capsys, "moments", "--region-file", str(path), "--degree", "0"
    )
    assert code == 0
    assert "1 = 2" in out


def test_env_var_sets_default_format(capsys, monkeypatch):
    monkeypatch.setenv("SIMPSON_ND_FORMAT", "json")
    code, out, _ = run_cli(capsys, "verify", "--rule", "CR4")
    assert code == 0
    assert json.loads(out)["label"] == "CR4"


def test_usage_error_exit_2(capsys):
    assert run([]) == 2
    assert run(["verify", "--format", "yaml"]) == 2
    capsys.readouterr()


_CSV_VERIFY_HEADER = ["rule", "degree", "tested", "failing", "residual"]


def test_shared_parser_reads_the_format_variable_on_each_run(capsys, monkeypatch):
    from simpson_nd.cli import build_parser

    assert build_parser() is build_parser()
    argv = ("verify", "--rule", "CR4")
    monkeypatch.setenv("SIMPSON_ND_FORMAT", "json")
    code, out, _ = run_cli(capsys, *argv)
    assert code == 0
    assert json.loads(out)["label"] == "CR4"
    monkeypatch.setenv("SIMPSON_ND_FORMAT", "csv")
    code, out, _ = run_cli(capsys, *argv)
    assert code == 0
    assert next(csv.reader(io.StringIO(out))) == _CSV_VERIFY_HEADER
    # an explicit --format beats the variable
    code, out, _ = run_cli(capsys, "--format", "text", *argv)
    assert code == 0
    assert out.startswith("rule CR4: certified degree 3")


def test_a_run_after_a_usage_error_still_answers(capsys, monkeypatch):
    monkeypatch.setenv("SIMPSON_ND_FORMAT", "csv")
    code, out, err = run_cli(capsys, "verify", "--format", "yaml")
    assert code == 2
    assert out == ""
    assert "unrecognized arguments" in err
    code, out, err = run_cli(capsys, "verify", "--rule", "CR4")
    assert code == 0
    assert err == ""
    assert next(csv.reader(io.StringIO(out))) == _CSV_VERIFY_HEADER
    assert "CR4,3," in out


def test_domain_error_exit_1(capsys):
    code, _, err = run_cli(capsys, "verify", "--rule", "CR9")
    assert code == 1
    assert "unknown rule" in err
    code, _, err = run_cli(capsys, "moments", "--region", "pentagon")
    assert code == 1
    code, _, err = run_cli(capsys, "verify")
    assert code == 1
    assert "needs --rule" in err
    # --all runs the claim suite, so a rule option beside it is an error
    for argv, named in [
        (("--rule", "CR7", "--all"), "--rule"),
        (("--rule", "CR3", "--all"), "--rule"),
        (("--dim", "1000000000001", "--all"), "--dim"),
        (("--all", "--max-degree", "5"), "--max-degree"),
        (("--all", "--rule", "CR3", "--dim", "3"), "--rule, --dim"),
    ]:
        code, out, err = run_cli(capsys, "verify", *argv)
        assert code == 1
        assert out == ""
        assert f"verify --all runs the claim suite and takes no {named}" in err


def test_derive_disc_lambda(capsys):
    code, out, _ = run_cli(
        capsys, "--format", "json", "derive", "--region", "disc", "--targets", "deg3"
    )
    assert code == 0
    blob = json.loads(out)
    assert blob["outcome"] == "unique"
    assert blob["values"] == [{"rat": ["1", "2"]}]


@pytest.mark.parametrize(
    "region, targets, exclude, witness",
    [
        # an irrational root of the one informative equation
        ("hexagon-paper", "deg2", "y^2",
         "the only solution lam = 5/8 - 1/24*sqrt(3) (from x^2) is irrational"),
        # an equation whose lam coefficient vanishes but whose right side does not
        ("disc", "deg4", "x^4", "equation for x^2*y^2 reads 0*lam = pi/24"),
    ],
)
def test_derive_lambda_infeasibility_witnesses(capsys, region, targets, exclude, witness):
    code, out, _ = run_cli(
        capsys, "derive", "--region", region, "--targets", targets, "--exclude", exclude
    )
    assert code == 0
    assert out.splitlines()[1] == f"  infeasible: {witness}"


def test_compound_proxy_reference_for_transcendental(capsys):
    code, out, _ = run_cli(
        capsys, "--format", "json", "compound", "--rule", "CR4",
        "--expr", "sin(x)*y", "--levels", "1:3",
    )
    assert code == 0
    blob = json.loads(out)
    assert blob["reference_kind"].startswith("level-")
    assert blob["order"] is not None


def _rational_polygon(vertices) -> dict:
    return {"polygon": [[{"rat": [str(c), "1"]} for c in v] for v in vertices]}


@pytest.mark.parametrize(
    "region, message",
    [
        ({"polygon": 5}, "list of [x, y] vertices"),
        ({"polygon": [[{"quad": {"a": ["1", "1"]}}, {"rat": ["0", "1"]}]] * 3}, "keys a, b and rad"),
        ({"polygon": [[{"rat": "12"}, {"rat": ["0", "1"]}]] * 3}, "[numerator, denominator] pair"),
        (
            {"polygon": [[{"quad": {"a": ["0", "1"], "b": ["1", "1"], "rad": str(10**12 + 1)}},
                          {"rat": ["0", "1"]}]] * 3},
            "exceeds the limit",
        ),
        # the edges (2, 0)-(0, 1) and (1, 2)-(0, 0) cross
        (_rational_polygon([(0, 0), (2, 0), (0, 1), (1, 2)]), "must be simple"),
        # the second edge doubles back along the first
        (_rational_polygon([(0, 0), (2, 0), (1, 0), (0, 1)]), "degenerate spike"),
        # pi-valued vertices, zero pi included, are refused when the polygon is built
        ({"polygon": [[{"pi": ["0", "1"]}, {"rat": ["1", "1"]}], [{"rat": ["1", "1"]},
                      {"rat": ["0", "1"]}], [{"rat": ["0", "1"]}, {"rat": ["0", "1"]}]]},
         "polygon coordinates must be rational or a + b*sqrt(d)"),
        ({"polygon": [[{"pi": ["1", "1"]}, {"rat": ["0", "1"]}], [{"rat": ["0", "1"]},
                      {"rat": ["1", "1"]}], [{"rat": ["0", "1"]}, {"rat": ["0", "1"]}]]},
         "polygon coordinates must be rational or a + b*sqrt(d)"),
        # vertices over two radicands
        ({"polygon": [[{"quad": {"a": ["1", "1"], "b": ["1", "1"], "rad": "2"}},
                       {"rat": ["0", "1"]}],
                      [{"rat": ["0", "1"]}, {"quad": {"a": ["1", "1"], "b": ["1", "1"], "rad": "3"}}],
                      [{"rat": ["0", "1"]}, {"rat": ["0", "1"]}]]},
         "sqrt(2) and sqrt(3)"),
    ],
)
def test_malformed_region_file_is_a_domain_error(tmp_path, capsys, region, message):
    path = tmp_path / "region.json"
    path.write_text(json.dumps(region))
    code, out, err = run_cli(capsys, "moments", "--region-file", str(path), "--degree", "0")
    assert code == 1
    assert out == ""
    assert err.startswith("error: ") and message in err
    assert "Traceback" not in err


# deeper than json.load reads on any supported Python (3.13 reads about 10,000 levels)
@pytest.mark.parametrize(
    "text", ["[" * 100_000, '{"polygon": ' + "[" * 100_000 + "]" * 100_000 + "}"]
)
def test_a_region_file_nested_too_deep_is_a_domain_error(tmp_path, capsys, text):
    path = tmp_path / "deep.json"
    path.write_text(text)
    code, out, err = run_cli(capsys, "moments", "--region-file", str(path), "--degree", "0")
    assert (code, out) == (1, "")
    assert err == f"error: {path}: the JSON is nested too deep to read\n"


def _triangle_text(number: str) -> str:
    """A region file for the triangle (0, 0), (N, 0), (0, 1), N written as given."""
    return ('{"polygon": [[{"rat": [0, 1]}, {"rat": [0, 1]}], [{"rat": [%s, 1]}, '
            '{"rat": [0, 1]}], [{"rat": [0, 1]}, {"rat": [1, 1]}]]}' % number)


@pytest.mark.parametrize("quote", ["", '"'], ids=["bare", "string"])
def test_region_file_integers_past_the_digit_limit_are_refused(tmp_path, capsys, quote):
    from simpson_nd.cli import MAX_RATIONAL_DIGITS

    path = tmp_path / "region.json"
    for digits in (MAX_RATIONAL_DIGITS, MAX_RATIONAL_DIGITS + 1, 5000):
        path.write_text(_triangle_text(quote + "9" * digits + quote))
        code, out, err = run_cli(capsys, "moments", "--region-file", str(path), "--degree", "1")
        if digits == MAX_RATIONAL_DIGITS:
            assert (code, err) == (0, "")
            assert f"  1 = {'9' * digits}/2\n" in out
        else:
            assert (code, out) == (1, "")
            assert err == f"error: '{'9' * 20}...' has more than {MAX_RATIONAL_DIGITS} digits\n"


def test_a_moment_past_the_printing_limit_is_refused(tmp_path, capsys):
    # every coordinate is within the digit limit, but the degree-10 moments
    # of this triangle have more digits than str() gives an int
    from simpson_nd.cli import MAX_RATIONAL_DIGITS

    path = tmp_path / "region.json"
    path.write_text(_triangle_text("9" * MAX_RATIONAL_DIGITS))
    code, out, err = run_cli(capsys, "moments", "--region-file", str(path), "--degree", "9")
    assert (code, err) == (0, "")
    assert max(map(len, out.splitlines())) > 3900
    code, out, err = run_cli(capsys, "moments", "--region-file", str(path), "--degree", "10")
    assert (code, out) == (1, "")
    assert err == "error: an exact result has more than 4300 digits, too many to print\n"


def test_an_exact_value_past_the_float_range_is_refused_with_one_line(tmp_path, capsys):
    # the moments print exactly as text, but their decimal field has no float
    path = tmp_path / "region.json"
    path.write_text(_triangle_text(str(10**400 - 1)))
    code, out, err = run_cli(capsys, "moments", "--region-file", str(path), "--degree", "0")
    assert (code, err) == (0, "")
    assert out.startswith("moments of polygon through degree 0:\n  1 = 99999")
    refusal = "error: '99999999999999999999...' is too large for a float\n"
    for argv in (("--format", "json", "moments"), ("--format", "csv", "moments", "--degree", "0")):
        assert run_cli(capsys, *argv, "--region-file", str(path)) == (1, "", refusal)
    # the exact reference of a compound study, 10^400/3 on the square
    code, out, err = run_cli(
        capsys, "compound", "--rule", "CR4", "--expr", "10^400*x^2", "--levels", "1:3"
    )
    assert (code, out, err) == (1, "", "error: '10000000000000000000...' is too large for a float\n")


@pytest.mark.parametrize("argv", [
    ("compound", "--rule", "CR4", "--levels", "1:2", "--expr"),
    ("derive", "--region", "cube:2", "--targets", "deg1", "--exclude"),
], ids=["compound", "derive"])
def test_expression_numbers_past_the_digit_limit_are_refused(capsys, argv):
    from simpson_nd.cli import MAX_RATIONAL_DIGITS

    for zeros in (MAX_RATIONAL_DIGITS - 1, MAX_RATIONAL_DIGITS, 5000):
        code, out, err = run_cli(capsys, *argv, "x*1." + "0" * zeros)
        if zeros < MAX_RATIONAL_DIGITS:
            assert (code, err) == (0, "")
            assert out
        else:
            assert (code, out) == (1, "")
            assert err == f"error: '1.{'0' * 18}...' has more than {MAX_RATIONAL_DIGITS} digits\n"


def test_a_long_region_file_is_quoted_short(tmp_path, capsys):
    path = tmp_path / "region.json"
    path.write_text(json.dumps({"polygon": [[k, k, k] for k in range(20000)]}))
    assert path.stat().st_size > 400_000
    code, out, err = run_cli(capsys, "moments", "--region-file", str(path), "--degree", "0")
    assert (code, out) == (1, "")
    assert err.count("\n") == 1 and len(err.encode()) < 200
    assert err == "error: a polygon must be a list of [x, y] vertices, got [[0, 0, 0], [1, 1, 1...\n"


def test_compound_division_by_zero_is_a_domain_error(capsys):
    code, out, err = run_cli(capsys, "compound", "--rule", "CR4", "--levels", "1:2",
                             "--expr", "x/0")
    assert (code, out, err) == (1, "", "error: division by zero in expression\n")


def test_family_point_with_a_negative_first_value(capsys):
    # argparse reads a spaced "-1,..." as an option, so the help names the = form
    code, out, _ = run_cli(capsys, "family", "--help")
    assert code == 0
    assert "--point=-1,2,..." in " ".join(out.split())
    code, out, _ = run_cli(
        capsys, "--format", "json", "family", "triangle", "--point=-1,3,5/2,7/9"
    )
    assert code == 0
    residuals = {r["equation"]: r["value"] for r in json.loads(out)["residuals"]}
    assert residuals["x"] == {"rat": ["1", "54"]}
    assert residuals["xy"] == {"rat": ["-89", "648"]}


def test_family_point_precedence(capsys):
    """--point wins over --param, --branch and a stray --vertex-search, except
    that simplex3's --vertex-search wins over --point."""
    point = {
        "triangle": ("--point=2,0,0,1", "--param", "1/3"),
        "square": ("--point=1/3,2,0,1/2,1/2", "--param", "1/3"),
        "trapezoid": ("--point=0,0,0,0,1", "--branch", "conjugate"),
    }
    for system, (given, *other) in point.items():
        expected = run_cli(capsys, "--format", "json", "family", system, given)
        for extra in (other, ["--vertex-search"]):
            assert run_cli(capsys, "--format", "json", "family", system, given, *extra) == expected
            assert run_cli(capsys, "--format", "json", "family", system, *extra, given) == expected
    simplex3 = "--point=1/2,1/3,2,1/5,0,3/4,1/7,2/7,3/5"
    search = run_cli(capsys, "--format", "json", "family", "simplex3", "--vertex-search")
    assert json.loads(search[1])["vertex_search"] is True
    for argv in ((simplex3, "--vertex-search"), ("--vertex-search", simplex3)):
        assert run_cli(capsys, "--format", "json", "family", "simplex3", *argv) == search
    residuals = run_cli(capsys, "--format", "json", "family", "simplex3", simplex3)
    assert json.loads(residuals[1])["residuals"][0]["equation"] == "x"
    # the arity check names each system's count
    for system, count in (("triangle", 4), ("square", 5), ("trapezoid", 5), ("simplex3", 9)):
        code, out, err = run_cli(capsys, "family", system, "--point", "1,2")
        assert (code, out) == (1, "")
        assert f"expected {count} comma-separated rationals, got '1,2'" in err
    # an empty field is refused, not dropped; spaces around a field are not fields
    for given in ("1,2,,3,4", "1,2,3,4,", ",1,2,3,4", "1,2, ,3"):
        code, out, err = run_cli(capsys, "family", "triangle", "--point", given)
        assert (code, out) == (1, "")
        assert f"expected 4 comma-separated rationals, got {given!r}" in err
    assert run_cli(capsys, "family", "triangle", "--point", " 1, 2 ,3,4 ")[0] == 0


@pytest.mark.parametrize(
    "integrand, message",
    [
        ("exp(1000*x)", "range"),  # math.exp overflows
        ("(x-1)^0.5", "is not a real number"),  # a negative base to a fractional power
        ("exp(x)^1000", "out of range"),  # a float power overflows
        ("10^400*x", "too large for a float"),  # the exact reference overflows
        # exp(700)^2 is inf without raising, and inf * 0 at x = 0 is nan
        ("exp(700)*exp(700)*x", "a float overflowed"),
    ],
)
def test_compound_float_domain_errors_exit_1(capsys, integrand, message):
    code, out, err = run_cli(
        capsys, "compound", "--rule", "CR3", "--dim", "1", "--expr", integrand
    )
    assert code == 1
    assert out == ""
    assert err.startswith("error: ") and message in err
    assert "Traceback" not in err


@pytest.mark.parametrize(
    "integrand, message",
    [
        ("x*y", "variable y needs dimension >= 2"),
        # the first failure in evaluation order is the one reported
        ("(0-1)^0.5*y", "(-1.0)^0.5 is not a real number"),
        ("y*(0-1)^0.5", "variable y needs dimension >= 2"),
        # the constant is made a float once, when the integrand's source is made
        ("1" + "0" * 399 + "*x", "'10000000000000000000...' is too large for a float"),
    ],
)
def test_compound_integrand_errors_exit_1_with_one_line(capsys, integrand, message):
    code, out, err = run_cli(
        capsys, "compound", "--rule", "CR3", "--dim", "1", "--expr", integrand, "--levels", "1:3"
    )
    assert (code, out, err) == (1, "", f"error: {message}\n")


@pytest.mark.parametrize(
    "expr_text, levels, message",
    [
        ("x", "--levels=5:2", "0 <= lo <= hi"),
        ("x", "--levels=-1:2", "0 <= lo <= hi"),
        ("x", "--levels=1:11", "the limit is"),  # 4^11 square cells
        ("x", "--levels=1:1000000000", "the limit is"),
        ("sin(x)", "--levels=1:8", "level 11 needs"),  # the estimated reference sits at hi+3
        ("sin(x)", "--levels=1:20", "the limit is"),
    ],
)
def test_compound_levels_are_checked_before_any_cell_is_built(
    capsys, monkeypatch, expr_text, levels, message
):
    from simpson_nd import compound

    def refuse(*args):
        raise AssertionError("a compound estimate ran past the level check")

    monkeypatch.setattr(compound, "compound_apply", refuse)
    code, out, err = run_cli(capsys, "compound", "--rule", "CR4", "--expr", expr_text, levels)
    assert code == 1
    assert out == ""
    assert message in err


def test_compound_requests_leave_no_reference_cycles(capsys):
    # each request's tree, kernel and tables are freed by reference
    # counting once the next request replaces them, so the peak memory of
    # a long run does not depend on when the cycle collector last ran
    requests = [
        ("--rule", "CR3", "--dim", "1", "--expr", "exp(5*x)", "--levels", "2:4"),
        ("--rule", "CR4", "--expr", "exp(x)*sin(3*y)+cos(x*y)", "--levels", "1:3"),
        ("--rule", "CR4", "--expr", "x^6*y^3", "--levels", "1:3"),
        ("--rule", "TriangleMidedge", "--expr", "sin(3*x+y)", "--levels", "1:2"),
    ]
    run_cli(capsys, "compound", *requests[-1])
    gc.collect()
    gc.disable()
    try:
        for argv in requests:
            assert run_cli(capsys, "compound", *argv)[0] == 0
        assert gc.collect() == 0
    finally:
        gc.enable()


def test_a_compound_request_compiles_one_kernel(capsys, monkeypatch):
    from simpson_nd import compound, expr

    compile_kernel, compound_apply = compound._compile_kernel, compound.compound_apply
    builds, levels, compiled = [], [], []
    monkeypatch.setattr(
        compound, "_compile_kernel", lambda *args: builds.append(args) or compile_kernel(*args)
    )
    # the kernel inlines the integrand, so as_function's own is never compiled
    for module in (compound, expr):
        monkeypatch.setattr(
            module,
            "compile",
            lambda source, name, mode: compiled.append(name) or compile(source, name, mode),
            raising=False,
        )
    monkeypatch.setattr(
        compound, "compound_apply", lambda *args: levels.append(args[1]) or compound_apply(*args)
    )
    argv = ("compound", "--rule", "CR4", "--expr", "exp(x)*sin(3*y)", "--levels", "1:4")
    code, out, _ = run_cli(capsys, *argv)
    assert code == 0
    assert "level-7 estimate" in out
    assert levels == [7, 1, 2, 3, 4]
    assert len(builds) == 1
    assert compiled == ["<compound kernel>"]

    # every estimate goes through compound.compound_apply, which the
    # work-limit tests replace with one that refuses
    def refuse(*args):
        raise AssertionError("a compound estimate ran")

    monkeypatch.setattr(compound, "compound_apply", refuse)
    with pytest.raises(AssertionError, match="a compound estimate ran"):
        run_cli(capsys, *argv)


@pytest.mark.parametrize(
    "integrand, reference, message",
    [
        ("x", "nan", "--reference must be a finite number"),
        ("x", "inf", "--reference must be a finite number"),
        ("x", "-inf", "--reference must be a finite number"),
        # finite estimates near -8.5e307 against +1.7e308
        ("0-1.7*10^308*x", "1.7e308", "|estimate - reference| overflowed"),
    ],
)
def test_compound_non_finite_reference_or_error_exits_1(capsys, integrand, reference, message):
    code, out, err = run_cli(
        capsys, "--format", "json", "compound", "--rule", "CR3", "--dim", "1",
        "--expr", integrand, f"--reference={reference}", "--levels", "1:3",
    )
    assert code == 1
    assert out == ""
    assert message in err


# each ran into RecursionError before expr.MAX_EXPR_DEPTH
_DEEP_EXPRESSIONS = [
    "(" * 101 + "x" + ")" * 101,
    "(" * 300 + "x" + ")" * 300,
    "(" * 3000 + "x" + ")" * 3000,
    "-" * 5000 + "x",
    "x" + "^2" * 3000,
    "+".join(["x"] * 102),
    "+".join(["x"] * 2000),
]
_TOO_DEEP = "nested too deep"


@pytest.mark.parametrize(
    "argv, message",
    [
        (("compound", "--rule", "CR3", "--dim", "1", "--expr", "1^2000000"), "exponent 2000000"),
        (("compound", "--rule", "CR3", "--dim", "1", "--expr", "(x+1)^1100"), "exponent 1100"),
        (("compound", "--rule", "CR4", "--expr", "x^20*y^20"), "needs degree 40"),
        (("verify", "--rule", "CR3", "--dim", "13"), "dimension 13 is above the limit"),
        (("catalog", "--dim", "13"), "dimension 13 is above the limit"),
        (
            ("derive", "--region", "cube:6", "--targets", "deg1",
             "--exclude", "(x1+x2+x3+x4+x5+x6+1)^12"),
            "may give 18564 terms",
        ),
        *[
            (("compound", "--rule", "CR4", "--levels", "1:2", f"--expr={deep}"), _TOO_DEEP)
            for deep in _DEEP_EXPRESSIONS
        ],
        *[
            (("derive", "--region", "cube:2", f"--exclude={deep}"), _TOO_DEEP)
            for deep in _DEEP_EXPRESSIONS
        ],
    ],
)
def test_work_limits_exit_1(capsys, monkeypatch, argv, message):
    from simpson_nd import compound

    def refuse(*args):
        raise AssertionError("a compound estimate ran past a work limit")

    monkeypatch.setattr(compound, "compound_apply", refuse)
    code, out, err = run_cli(capsys, *argv)
    assert code == 1
    assert out == ""
    assert message in err
    assert "Traceback" not in err


@pytest.mark.parametrize(
    "argv, region_file",
    [
        (("derive", "--region", "cube:13", "--targets", "deg1"), None),
        (("derive", "--region", "simplex:13"), None),
        (("moments", "--region", "cube:13", "--degree", "2"), None),
        (("derive", "--mode", "weights"), {"cube": 13}),
        (("moments", "--degree", "1"), {"simplex": 13}),
    ],
)
def test_region_dimension_is_checked_before_any_vertex_is_built(
    tmp_path, capsys, monkeypatch, argv, region_file
):
    from simpson_nd.regions import Cube, Simplex

    def refuse(self):
        raise AssertionError("region vertices were built past the dimension check")

    monkeypatch.setattr(Cube, "vertices", refuse)
    monkeypatch.setattr(Simplex, "vertices", refuse)
    if region_file is not None:
        path = tmp_path / "region.json"
        path.write_text(json.dumps(region_file))
        argv += ("--region-file", str(path))
    code, out, err = run_cli(capsys, *argv)
    assert code == 1
    assert out == ""
    assert "dimension 13 is above the limit of 12" in err


def _circle_polygon(m: int) -> dict:
    """m rational vertices rounded from a circle of radius 1000."""
    def rat(v):
        return {"rat": [str(round(v)), "1"]}

    angles = [2 * math.pi * i / m for i in range(m)]
    return {"polygon": [[rat(1000 * math.cos(t)), rat(1000 * math.sin(t))] for t in angles]}


@pytest.mark.parametrize(
    "argv, region_file, message",
    [
        (("moments", "--region", "cube:12", "--degree", "8"), None,
         "degree 8 in 12 variables needs 125970 monomials; the limit is 2000"),
        (("moments", "--region", "simplex:1", "--degree", "33"), None,
         "degree 33 is above the limit of 32"),
        (("moments", "--region", "hexagon-paper", "--degree", "25"), None,
         "351 monomials x 6 edges = 2106 boundary integrals"),
        (("derive", "--region", "cube:12", "--targets", "deg8"), None, "needs 125970 monomials"),
        (("derive", "--region", "simplex:12", "--targets", "deg4", "--mode", "weights"), None,
         "1820 targets on 14 nodes make a weights system of 3339700 entries"),
        (("derive", "--region", "cube:12", "--targets", "deg3"), None,
         "455 targets on 4097 nodes make a lambda system of 1864135 entries"),
        (("derive", "--region", "cube:12", "--targets", "deg2", "--mode", "weights"), None,
         "91 targets on 4097 nodes make a weights system of 381199 entries"),
        (("moments", "--degree", "0"), _circle_polygon(101),
         "polygon has 101 vertices; the limit is 100"),
        (("derive", "--mode", "weights"), _circle_polygon(101),
         "polygon has 101 vertices; the limit is 100"),
        (("moments", "--region", "simplex:2", "--degree", "-3"), None, "degree must be >= 0"),
        (("derive", "--region", "simplex:2", "--targets", "deg-1"), None, "must be >= 0"),
    ],
)
def test_table_system_and_polygon_limits_refuse_before_any_work(
    tmp_path, capsys, monkeypatch, argv, region_file, message
):
    from simpson_nd import exactness, rules
    from simpson_nd.regions import Cube, Polygon, Simplex, UnitDisc

    def refuse(*args):
        raise AssertionError("costly work started past a work limit")

    for region in (Simplex, Cube, Polygon, UnitDisc):
        monkeypatch.setattr(region, "moment", refuse)
        monkeypatch.setattr(region, "moments", refuse)
    for name in ("vertex_rule", "midpoint_rule", "boundary_rule"):
        monkeypatch.setattr(rules, name, refuse)
    for name in ("solve_lambda", "solve_weights"):
        monkeypatch.setattr(exactness, name, refuse)
    if region_file is not None:
        # the built-in hexagon still runs its simplicity check
        monkeypatch.setattr(Polygon, "_check_simple", staticmethod(refuse))
        path = tmp_path / "region.json"
        path.write_text(json.dumps(region_file))
        argv += ("--region-file", str(path))
    code, out, err = run_cli(capsys, *argv)
    assert code == 1
    assert out == ""
    assert message in err


@pytest.mark.parametrize("region, degree, monomials, entries", [
    ("simplex:1", "32", 33, 33),  # expr.MAX_POLY_DEGREE
    ("cube:3", "4", 35, 35),
    ("hexagon-paper", "2", 6, 36),  # 6 monomials x 6 edges
])
def test_a_monomial_table_at_the_limits_is_admitted(
    capsys, monkeypatch, region, degree, monomials, entries
):
    from simpson_nd import expr

    # no built-in region's table has exactly MAX_POLY_TERMS entries, so the
    # limit is set to the size of each table
    argv = ("moments", "--region", region, "--degree", degree)
    monkeypatch.setattr(expr, "MAX_POLY_TERMS", entries)
    code, out, _ = run_cli(capsys, *argv)
    assert (code, len(out.splitlines())) == (0, 1 + monomials)
    monkeypatch.setattr(expr, "MAX_POLY_TERMS", entries - 1)
    code, out, err = run_cli(capsys, *argv)
    assert (code, out) == (1, "") and f"the limit is {entries - 1}\n" in err


def _q3893_octagon(denominator):
    """_circle_polygon(8) with coordinate i moved by (1 + i % 9) /
    denominator(i) * sqrt(3893), under 0.01: still convex."""
    def quad(c, i):
        b = [str(1 + i % 9), str(denominator(i))]
        return {"quad": {"a": c["rat"], "b": b, "rad": 3893}}

    vertices = _circle_polygon(8)["polygon"]
    return {"polygon": [[quad(x, 2 * i), quad(y, 2 * i + 1)] for i, (x, y) in enumerate(vertices)]}


def test_weight_rows_over_many_denominators_are_refused_before_elimination(
    tmp_path, capsys, monkeypatch
):
    from simpson_nd import exactness

    argv = ("--format", "json", "derive", "--mode", "weights", "--targets", "deg3",
            "--region-file")
    shared = tmp_path / "shared.json"
    shared.write_text(json.dumps(_q3893_octagon(lambda i: 100003)))
    code, out, _ = run_cli(capsys, *argv, str(shared))
    assert code == 0
    assert json.loads(out)["outcome"] == "infeasible"

    def refuse(*args):
        raise AssertionError("elimination started past the denominator limit")

    # distinct 6-digit denominators: rows of 2,465 bits, 1.2-2.3 s unchecked
    monkeypatch.setattr(exactness, "_eliminate", refuse)
    distinct = tmp_path / "distinct.json"
    distinct.write_text(json.dumps(_q3893_octagon(lambda i: 100003 + 10 * i)))
    code, out, err = run_cli(capsys, *argv, str(distinct))
    assert code == 1
    assert out == ""
    assert err == ("error: the weight system's rows need a common denominator of 2465 bits; "
                   f"the limit is {exactness.MAX_DENOMINATOR_BITS}\n")


def _star_polygon(m, seed, radius=3000, sqrt_part=None):
    """A seeded star-shaped m-gon with integer vertices up to ``radius``,
    one in each of m equal angular sectors, so the chain is simple; with
    ``sqrt_part`` (d, q), coordinate j gains (1 + j % 9) / q * sqrt(d)."""
    rng = random.Random(seed)
    vertices = []
    for i in range(m):
        angle = 2 * math.pi * (i + rng.uniform(0.1, 0.9)) / m
        r = rng.uniform(0.3, 1.0) * radius
        vertices.append((round(r * math.cos(angle)), round(r * math.sin(angle))))

    def scalar(c, j):
        if sqrt_part is None:
            return {"rat": [str(c), "1"]}
        d, q = sqrt_part
        return {"quad": {"a": [str(c), "1"], "b": [str(1 + j % 9), str(q)], "rad": d}}

    return {"polygon": [[scalar(x, 2 * i), scalar(y, 2 * i + 1)] for i, (x, y) in enumerate(vertices)]}


def test_weight_solves_past_the_elimination_estimate_are_refused_before_elimination(
    tmp_path, capsys, monkeypatch
):
    from simpson_nd import exactness

    def refuse(*args):
        raise AssertionError("elimination started past the work limit")

    monkeypatch.setattr(exactness, "_eliminate", refuse)
    # 45 deg8 rows on 41 nodes of up to 12 bits, 6-8 s unchecked; and over
    # Z[sqrt 2], whose steps count eight times, 28 deg6 rows on 21 nodes, 3.4 s
    for polygon, targets, rows in [(_star_polygon(40, 8), "deg8", "45 rows on 41 nodes"),
                                   (_star_polygon(20, 4, 300, (2, 13)), "deg6", "28 rows on 21 nodes")]:
        path = tmp_path / "star.json"
        path.write_text(json.dumps(polygon))
        code, out, err = run_cli(capsys, "derive", "--region-file", str(path), "--mode", "weights",
                                 "--targets", targets)
        assert (code, out) == (1, "")
        assert err.startswith(f"error: eliminating {rows} is estimated at ")
        assert err.endswith(f" word operations; the limit is {exactness.MAX_ELIMINATION_WORK:,}\n")

    # cube:7 with deg3 targets, about 0.2 s, stays inside both limits
    def reached(*args):
        raise _Reached

    monkeypatch.setattr(exactness, "_eliminate", reached)
    with pytest.raises(_Reached):
        run(["derive", "--region", "cube:7", "--targets", "deg3", "--mode", "weights"])


_C_SHAPE = [(0, 0), (3, 0), (3, 1), (1, 1), (1, 2), (3, 2), (3, 3), (0, 3)]


@pytest.mark.parametrize("mode", ["lambda", "weights"])
def test_derive_refuses_a_centroid_outside_its_polygon_in_either_mode(tmp_path, capsys, mode):
    path = tmp_path / "c_shape.json"
    path.write_text(json.dumps(
        {"polygon": [[{"rat": [str(x), "1"]}, {"rat": [str(y), "1"]}] for x, y in _C_SHAPE]}
    ))
    code, out, err = run_cli(capsys, "derive", "--region-file", str(path), "--mode", mode)
    assert (code, out) == (1, "")
    assert err == "error: node (Fraction(19, 14), Fraction(3, 2)) lies outside the region\n"


class _Reached(Exception):
    pass


@pytest.mark.parametrize(
    "argv",
    [
        ("moments", "--region", "cube:12", "--degree", "4"),  # 1,820 monomials
        ("moments", "--region", "hexagon-paper", "--degree", "24"),  # 6 x 325 = 1,950
        ("derive", "--region", "cube:12", "--targets", "deg1"),  # 13 x 4,097 = 53,261
        # 13 x (4,097 + 1 + 13) = 53,443
        ("derive", "--region", "cube:12", "--targets", "deg1", "--mode", "weights"),
        # 120 x (129 + 1 + 120) = 30,000
        ("derive", "--region", "cube:7", "--targets", "deg3", "--mode", "weights"),
    ],
)
def test_inputs_just_inside_the_limits_reach_the_work(capsys, monkeypatch, argv):
    from simpson_nd import exactness, rules
    from simpson_nd.regions import Cube, Polygon

    def reached(*args):
        raise _Reached

    monkeypatch.setattr(Cube, "moment", reached)
    monkeypatch.setattr(Cube, "moments", reached)
    monkeypatch.setattr(Polygon, "moment", reached)
    monkeypatch.setattr(Polygon, "moments", reached)
    monkeypatch.setattr(rules, "vertex_rule", reached)
    monkeypatch.setattr(exactness, "solve_weights", reached)
    with pytest.raises(_Reached):
        run(list(argv))


_NOT_ASCII = "not a number written in ASCII"


@pytest.mark.parametrize(
    "argv, code, message",
    [
        (("derive", "--region", "cube:\u0663", "--targets", "deg2"), 1, _NOT_ASCII),
        (("derive", "--region", "simplex:\u0663"), 1, _NOT_ASCII),
        (("derive", "--region", "cube:3", "--targets", "deg\u0662"), 1, "unknown targets"),
        (("derive", "--region", "cube:3", "--targets", "deg"), 1, "unknown targets 'deg'; use"),
        (("moments", "--region", "cube:2", "--degree", "\u0662"), 2, "invalid int value"),
        (("verify", "--rule", "CR3", "--dim", "3", "--max-degree", "\u0662"), 2, "invalid int"),
        (("catalog", "--dim", "\u0662"), 2, "invalid int value"),
        (("family", "triangle", "--param", "\u0663/\u0664"), 1, _NOT_ASCII),
        (("family", "square", "--point", "\u0661,2,3,4,5"), 1, _NOT_ASCII),
        (("compound", "--rule", "CR3", "--dim", "\u0662", "--expr", "x"), 2, "invalid int"),
        (("compound", "--rule", "CR3", "--dim", "2", "--expr", "x", "--levels", "\u0661:\u0663"),
         1, _NOT_ASCII),
        (("compound", "--rule", "CR3", "--dim", "2", "--expr", "x", "--reference", "\u0663"),
         2, "invalid float value"),
        # digit-grouping underscores, which the expression lexer refuses too
        (("verify", "--rule", "CR3", "--dim", "1_0"), 2, "invalid int value"),
        (("derive", "--region", "cube:2", "--targets", "deg1_0"), 1, "unknown targets"),
        (("moments", "--region", "simplex:1_0"), 1, "without '_'"),
        (("family", "square", "--param", "1_0/3_0"), 1, "without '_'"),
        (("compound", "--rule", "CR3", "--dim", "2", "--expr", "x", "--levels", "1:1_0"),
         1, "without '_'"),
        (("compound", "--rule", "CR3", "--dim", "2", "--expr", "1_0*x"), 1, "syntax error"),
    ],
)
def test_numbers_must_be_written_in_ascii(capsys, argv, code, message):
    # int(), Fraction() and float() would read these Arabic-Indic digits as 1, 2,
    # 3 and 4, and "1_0" as 10
    got, out, err = run_cli(capsys, *argv)
    assert got == code
    assert out == ""
    assert message in err
    assert "Traceback" not in err


@pytest.mark.parametrize(
    "flag", [("triangle", "--param", "1/0"), ("square", "--point=1/0,0,0,0,0")]
)
def test_a_zero_denominator_names_the_text(capsys, flag):
    code, out, err = run_cli(capsys, "family", *flag)
    assert (code, out) == (1, "")
    assert err == "error: '1/0' has a zero denominator\n"


@pytest.mark.parametrize(
    "system, flag, count",
    [("triangle", "--param", 1), ("square", "--param", 1), ("triangle", "--point", 4),
     ("square", "--point", 5), ("trapezoid", "--point", 5), ("simplex3", "--point", 9)],
)
def test_rationals_at_the_digit_limit_print_for_every_family(capsys, system, flag, count):
    from simpson_nd.cli import FORMATS, MAX_RATIONAL_DIGITS

    limit = MAX_RATIONAL_DIGITS
    shapes = (
        # distinct denominators, so that a residual's denominator is their product
        [f"1/{10 ** (limit - 2) + 2 * k + 1}" for k in range(count)],
        [f"1e-{limit - 1}"] * count,
        ["9" * limit] * count,
    )
    for values in shapes:
        for fmt in FORMATS:
            code, out, err = run_cli(capsys, "--format", fmt, "family", system, flag,
                                     ",".join(values))
            assert (code, err) == (0, ""), (fmt, values[0][:30])
            assert out


@pytest.mark.parametrize("flag, past, shown", [
    ("--param", "1e-400", "'1e-400'"),
    ("--param", "9" * 401, "'99999999999999999999...'"),
    ("--param", "1" * 200 + "/" + "3" * 201, "'11111111111111111111...'"),
    ("--param", "1.5e-399", "'1.5e-399'"),
    ("--param", "1e-99999999999999999999", "'1e-99999999999999999999'"),
    ("--point", "1e-400,0,0,0,0", "'1e-400'"),
])
def test_a_rational_past_the_digit_limit_is_refused_before_fraction_runs(
    capsys, monkeypatch, flag, past, shown
):
    from simpson_nd import cli

    assert cli.MAX_RATIONAL_DIGITS == 400

    def refuse(*args):
        raise AssertionError("Fraction() ran on a value past the digit limit")

    monkeypatch.setattr(cli, "Fraction", refuse)
    code, out, err = run_cli(capsys, "family", "square", flag, past)
    assert (code, out) == (1, "")
    assert err == f"error: {shown} has more than 400 digits, counting its exponent\n"


_RATIONAL_PENTAGON = {"polygon": [[{"rat": [x, "1"]}, {"rat": [y, "1"]}]
                                  for x, y in (("0", "0"), ("4", "0"), ("5", "3"), ("2", "5"),
                                               ("-1", "2"))]}


@pytest.mark.parametrize("region", [
    "--region-file", "hexagon-paper", "trapezoid-paper", "simplex:3", "cube:2", "disc",
])
@pytest.mark.parametrize("argv", [
    ("moments", "--degree", "3"),
    ("derive", "--mode", "lambda"),
    ("derive", "--mode", "weights"),
    ("derive", "--mode", "weights", "--targets", "deg3", "--exclude", "x*y"),
])
def test_a_request_asks_its_region_once(tmp_path, capsys, monkeypatch, region, argv):
    """One moment batch per moments or derive request: the midpoint
    rule's volume and centroid, the spread rule's volume and the targets
    all come from one ``moments`` call, and no ``moment`` call is made
    outside it."""
    from simpson_nd.regions import Cube, Polygon, Simplex, UnitDisc

    asks, depth = [], []

    def counted(method):
        def wrapper(self, *args):
            if not depth:
                asks.append(method.__name__)
            depth.append(method)
            try:
                return method(self, *args)
            finally:
                depth.pop()

        return wrapper

    for cls in (Simplex, Cube, Polygon, UnitDisc):
        originals = cls.moment, cls.moments
        for method in originals:
            monkeypatch.setattr(cls, method.__name__, counted(method))
    if region == "--region-file":
        path = tmp_path / "pentagon.json"
        path.write_text(json.dumps(_RATIONAL_PENTAGON))
        where = ("--region-file", str(path))
    else:
        where = ("--region", region)
    code, out, err = run_cli(capsys, *argv, *where)
    assert (code, err) == (0, "")
    assert asks == ["moments"]
