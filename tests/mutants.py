"""Mutation checks: each entry breaks one line of the package and names
the tests that must then fail.

Run from anywhere, with pytest installed:

    python tests/mutants.py

The named tests first run once against an unchanged copy of ``src``, where
they must pass.  Then, for each mutant, ``src`` is copied to a temporary
directory, the one substitution is applied, and pytest runs only the named
tests against the copy in a subprocess, with ``-o pythonpath=<copy>/src``
in place of the ``pythonpath`` of ``pyproject.toml``.  The mutants run on a
pool of ``os.cpu_count()`` workers, and their verdicts print in table
order.  An old text that is missing, or found more than once, is an
error, and so is a mutant that leaves any named test passing.  The file
has no ``test_`` prefix, so pytest does not collect it.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

# (file in src/simpson_nd, exact old text, new text, test ids that must fail)
MUTANTS = [
    (
        "exactness.py",
        "solution[col] = PiMultiple(rows[r][nunk]) if pi else rows[r][nunk]",
        "solution[col] = rows[r][nunk]",
        ["tests/test_exactness.py::test_solve_weights_matches_the_scalar_rows"],
    ),
    (
        "exactness.py",
        "gap = PiMultiple(row[nunk]) if pi else row[nunk]",
        "gap = row[nunk]",
        ["tests/test_exactness.py::test_solve_weights_matches_the_scalar_rows"],
    ),
    (
        "exactness.py",
        "        if i >= r:\n",
        "        if i > r:\n",
        ["tests/test_elimination.py::test_matches_the_scalar_loop"],
    ),
    (
        "exactness.py",
        "            sign = -sign\n",
        "",
        ["tests/test_elimination.py::test_square_systems_keep_the_determinant"],
    ),
    (
        "scalars.py",
        'if len(value.lstrip("-")) > MAX_RATIONAL_DIGITS:',
        'if len(value.lstrip("-")) >= MAX_RATIONAL_DIGITS:',
        [
            "tests/test_scalars.py::test_integers_are_decoded_up_to_the_digit_limit",
            "tests/test_cli.py::test_region_file_integers_past_the_digit_limit_are_refused",
        ],
    ),
    (
        "scalars.py",
        "if abs(value) >= 10**MAX_RATIONAL_DIGITS:",
        "if abs(value) > 10**MAX_RATIONAL_DIGITS:",
        ["tests/test_scalars.py::test_integers_are_decoded_up_to_the_digit_limit"],
    ),
    (
        "expr.py",
        "if sum(map(_digit, tok.text)) > MAX_RATIONAL_DIGITS:",
        "if sum(map(_digit, tok.text)) >= MAX_RATIONAL_DIGITS:",
        [
            "tests/test_expr.py::test_numbers_are_parsed_up_to_the_digit_limit",
            "tests/test_expr.py::test_a_variable_index_past_the_digit_limit_is_refused",
            "tests/test_cli.py::test_expression_numbers_past_the_digit_limit_are_refused",
        ],
    ),
    (
        "scalars.py",
        'return text if len(text) <= 24 else text[:20] + "..."',
        'return text if len(text) <= 25 else text[:20] + "..."',
        ["tests/test_scalars.py::test_shown_cuts_outside_input_past_24_characters"],
    ),
    (
        "scalars.py",
        'return text if len(text) <= 24 else text[:20] + "..."',
        'return text if len(text) <= 24 else text[:21] + "..."',
        [
            "tests/test_scalars.py::test_shown_cuts_outside_input_past_24_characters",
            "tests/test_cli.py::test_a_long_region_file_is_quoted_short",
            "tests/test_cli.py::test_a_rational_past_the_digit_limit_is_refused_before_fraction_runs",
        ],
    ),
    (
        "expr.py",
        "if self.depth + height > MAX_EXPR_DEPTH:",
        "if self.depth + height >= MAX_EXPR_DEPTH:",
        ["tests/test_expr.py::test_expressions_at_the_depth_limit_are_admitted"],
    ),
    (
        "expr.py",
        "if depth > MAX_EXPR_DEPTH:",
        "if depth >= MAX_EXPR_DEPTH:",
        [
            "tests/test_expr.py::test_expressions_at_the_depth_limit_are_admitted",
            "tests/test_expr.py::test_compiling_a_tree_past_the_depth_limit_is_refused",
        ],
    ),
    (
        "expr.py",
        "if k > MAX_POLY_EXPONENT:",
        "if k >= MAX_POLY_EXPONENT:",
        ["tests/test_expr.py::test_lowering_limits_admit_an_expansion_at_each_limit"],
    ),
    (
        "expr.py",
        "if degree > MAX_POLY_DEGREE:",
        "if degree >= MAX_POLY_DEGREE:",
        [
            "tests/test_expr.py::test_lowering_limits_admit_an_expansion_at_each_limit",
            "tests/test_expr.py::test_lowering_limits_bound_the_term_count",
        ],
    ),
    (
        "expr.py",
        "if terms > MAX_POLY_TERMS:",
        "if terms >= MAX_POLY_TERMS:",
        ["tests/test_expr.py::test_lowering_limits_admit_an_expansion_at_each_limit"],
    ),
    (
        "cli.py",
        "if degree > expr.MAX_POLY_DEGREE:",
        "if degree >= expr.MAX_POLY_DEGREE:",
        ["tests/test_cli.py::test_a_monomial_table_at_the_limits_is_admitted"],
    ),
    (
        "cli.py",
        "if entries > expr.MAX_POLY_TERMS:",
        "if entries >= expr.MAX_POLY_TERMS:",
        ["tests/test_cli.py::test_a_monomial_table_at_the_limits_is_admitted"],
    ),
    (
        "compound.py",
        "if exponent > math.log2(MAX_CELLS):",
        "if exponent >= math.log2(MAX_CELLS):",
        ["tests/test_compound.py::test_compound_cell_limit_is_checked_before_any_cell_is_built"],
    ),
    # the turned child of a depth-1 triangle takes the half children's
    # products.  Swapping the two terms of a node coordinate is left out:
    # the midedge and CR2(2) terms are dyadic, so either order sums them
    # exactly, and on CR1(2)'s centroid the swap changed no estimate or
    # error over about 6,400 rule, level and integrand cases
    (
        "compound.py",
        "yield a, turn\n",
        "yield a, cut\n",
        ["tests/test_compound.py::test_triangle_kernel_matches_a_call_at_every_node_of_every_cell"],
    ),
    # the parser's one precedence loop; "== level" -> ">= level" is an
    # equivalent mutant, since no * or / can follow a chain of level 2
    (
        "expr.py",
        "_PREC[tok.text] == level",
        "_PREC[tok.text] <= level",
        [
            "tests/test_expr.py::test_parse_basic_structure",
            "tests/test_expr.py::test_round_trip_200_random_expressions",
        ],
    ),
    # the record methods: equality across classes, the __post_init__ checks
    # and immutability
    (
        "record.py",
        "if other.__class__ is self.__class__:",
        "if True:",
        ["tests/test_record.py::test_records_of_other_classes_with_equal_fields_differ"],
    ),
    (
        "record.py",
        "            self.__post_init__()\n",
        "            pass\n",
        [
            "tests/test_record.py::test_post_init_checks_run",
            "tests/test_record.py::test_post_init_normalizes_and_an_own_init_is_kept",
        ],
    ),
    (
        "record.py",
        "cls.__setattr__ = cls.__delattr__ = _immutable",
        "cls.__setattr__ = cls.__delattr__ = lambda self, *args: None",
        ["tests/test_record.py::test_records_are_immutable"],
    ),
    # the paper's form and the family rows: a vertex-search placement
    # summed without face 4's term, the residual lam*coef - rhs with its
    # sign flipped, M taken as the volume without the centroid's power, T
    # weighing each spread node with the whole volume instead of volume/k,
    # a centroid outside the region let through, an empty spread let
    # through at lam != 1, and a blend keeping the nodes whose weight is zero
    (
        "families.py",
        "sums = [t[i] + t[j] + t[k] + t[m] for t in terms]",
        "sums = [t[i] + t[j] + t[k] for t in terms]",
        [
            "tests/test_families.py::test_pruned_vertex_search_returns_the_unpruned_search_in_order",
            "tests/test_families.py::test_vertex_search_sums_every_candidate_from_one_table",
            "tests/test_families.py::test_simplex3_vertex_search",
        ],
    ),
    (
        "rules.py",
        "top = view_minus(_scaled(self.coef, lam.numerator, d),\n"
        "                         _scaled(self.rhs, lam.denominator, d), d)",
        "top = view_minus(_scaled(self.rhs, lam.denominator, d),\n"
        "                         _scaled(self.coef, lam.numerator, d), d)",
        ["tests/test_families.py::test_system_residuals_match_a_direct_sum"],
    ),
    (
        "rules.py",
        "list(map(table.sum_view, self.alphas))",
        "[table.sum_view((0,) * len(alpha)) for alpha in self.alphas]",
        [
            "tests/test_families.py::test_system_residuals_match_a_direct_sum",
            "tests/test_families.py::test_family_lambda_matches_its_closed_form",
            "tests/test_families.py::"
            "test_solve_lambda_on_seeded_family_spreads_matches_the_two_rule_solve",
        ],
    ),
    (
        "rules.py",
        "return scalars.div(self.volume, Fraction(len(spread)))",
        "return self.volume",
        [
            "tests/test_families.py::test_system_residuals_match_a_direct_sum",
            "tests/test_families.py::"
            "test_solve_lambda_on_seeded_family_spreads_matches_the_two_rule_solve",
        ],
    ),
    (
        "rules.py",
        "if inside < 0:",
        "if inside < -1:",
        ["tests/test_rules.py::test_blend_checks_the_centroid_even_when_its_weight_is_zero"],
    ),
    (
        "rules.py",
        "if spread or not scalars.eq(lam, 1):",
        "if spread:",
        ["tests/test_rules.py::test_an_empty_spread_is_a_domain_error_but_at_lam_1"],
    ),
    (
        "rules.py",
        "(pair for pair in pairs if not is_zero(pair[1]))",
        "(pair for pair in pairs)",
        ["tests/test_rules.py::test_blend_degenerate_cases"],
    ),
    # the scan on the integer view: the zero test scaled by D^(|alpha| - 1)
    # instead of D^|alpha|, and the moment's denominator dropped from it
    (
        "exactness.py",
        "scale = table.weight_denominator * table.denominator ** d",
        "scale = table.weight_denominator * table.denominator ** (d - 1)",
        [
            "tests/test_exactness.py::test_the_integer_scan_gives_the_full_scalar_scan_report",
            "tests/test_exactness.py::test_orbit_scan_gives_the_full_scan_report",
            "tests/test_exactness.py::test_the_scan_builds_only_the_failing_residual_as_a_scalar",
        ],
    ),
    (
        "exactness.py",
        "return sum(terms) * q == m * scale",
        "return sum(terms) == m * scale",
        [
            "tests/test_exactness.py::test_the_integer_scan_gives_the_full_scalar_scan_report",
            "tests/test_exactness.py::test_the_scan_builds_only_the_failing_residual_as_a_scalar",
        ],
    ),
    # the point-family table: two entries of a parameter map swapped
    (
        "families.py",
        "(one_minus_c, c, c)",
        "(c, one_minus_c, c)",
        [
            "tests/test_families.py::test_triangle_family_members_all_solve",
            "tests/test_families.py::test_family_lambda_matches_its_closed_form",
            "tests/test_cli.py::test_family_triangle",
        ],
    ),
    (
        "families.py",
        "(d, one_minus_d, one_minus_d, d)",
        "(one_minus_d, d, one_minus_d, d)",
        [
            "tests/test_families.py::test_square_family_lambda",
            "tests/test_families.py::test_square_family_members_all_solve",
            "tests/test_families.py::test_family_lambda_matches_its_closed_form",
        ],
    ),
    # the rational root test's limits
    (
        "families.py",
        "if largest > MAX_ROOT_COEFFICIENT:",
        "if largest >= MAX_ROOT_COEFFICIENT:",
        ["tests/test_families.py::test_rational_roots_just_inside_its_limits"],
    ),
    (
        "families.py",
        "if len(numerators) * len(denominators) > MAX_DIVISOR_PAIRS:",
        "if len(numerators) * len(denominators) >= MAX_DIVISOR_PAIRS:",
        ["tests/test_families.py::test_rational_roots_admit_exactly_the_divisor_pair_limit"],
    ),
    # the other size limits, each admitting exactly its figure
    (
        "rules.py",
        "if n > MAX_RULE_DIMENSION:",
        "if n >= MAX_RULE_DIMENSION:",
        ["tests/test_rules.py::test_rule_dimension_limit_refuses_before_any_node_is_built"],
    ),
    (
        "cli.py",
        "region.dimension > rules.MAX_RULE_DIMENSION:",
        "region.dimension >= rules.MAX_RULE_DIMENSION:",
        ["tests/test_cli.py::test_inputs_just_inside_the_limits_reach_the_work"],
    ),
    (
        "regions.py",
        "if len(pts) > MAX_POLYGON_VERTICES:",
        "if len(pts) >= MAX_POLYGON_VERTICES:",
        ["tests/test_regions.py::test_a_polygon_at_the_vertex_limit_is_admitted"],
    ),
    (
        "cli.py",
        "if entries > exactness.MAX_SYSTEM_ENTRIES:",
        "if entries >= exactness.MAX_SYSTEM_ENTRIES:",
        ["tests/test_cli.py::test_a_derive_system_at_the_entry_limit_is_admitted"],
    ),
    (
        "exactness.py",
        ".bit_length()) > MAX_DENOMINATOR_BITS:",
        ".bit_length()) >= MAX_DENOMINATOR_BITS:",
        ["tests/test_exactness.py::test_weight_solves_at_the_estimate_limits_are_admitted"],
    ),
    (
        "exactness.py",
        "if work > MAX_ELIMINATION_WORK:",
        "if work >= MAX_ELIMINATION_WORK:",
        ["tests/test_exactness.py::test_weight_solves_at_the_estimate_limits_are_admitted"],
    ),
    (
        "scalars.py",
        "if d > MAX_RADICAND:",
        "if d >= MAX_RADICAND:",
        ["tests/test_scalars.py::test_a_radicand_at_the_limit_is_admitted"],
    ),
    # the one moment routine per region and the scan's reading of it: a
    # rational region's pairs not lifted under a table over sqrt(d), the
    # polygon's scale one power of D short, a pi moment read as a rational
    # one, and the orbit test without the cycle
    (
        "exactness.py",
        "return [((m, 0), q) for m, q in views]",
        "return views",
        [
            "tests/test_exactness.py::test_moment_views_are_the_moments_on_the_tables_ring_or_none",
            "tests/test_exactness.py::test_orbit_scan_gives_the_full_scan_report",
        ],
    ),
    (
        "regions.py",
        "* den ** (k + 2)",
        "* den ** (k + 1)",
        [
            "tests/test_regions.py::test_a_moment_batch_is_its_single_moments_and_the_oracles",
            "tests/test_regions.py::test_polygon_moments_match_fan_triangulation_oracle",
        ],
    ),
    (
        "exactness.py",
        "    if pi != table.pi:\n        return [None] * len(alphas)\n",
        "",
        ["tests/test_exactness.py::test_moment_views_are_the_moments_on_the_tables_ring_or_none"],
    ),
    (
        "exactness.py",
        "(columns[1::-1] + columns[2:], columns[1:] + columns[:1])",
        "(columns[1::-1] + columns[2:],)",
        [
            "tests/test_exactness.py::"
            "test_a_rule_not_closed_under_permutations_gets_the_full_scan[_swap_closed_cube3]",
        ],
    ),
    (
        "claims.py",
        "        ok = ok and all(scalars.is_zero(exactness.residual(rule, beta)) for beta in zeros)\n",
        "",
        ["tests/test_claims.py::test_a_nonzero_bonus_residual_fails_only_the_cr4_claim"],
    ),
    (
        "claims.py",
        "            and rule.region.moment(alpha) == moment\n",
        "",
        ["tests/test_claims.py::test_a_row_whose_value_and_moment_both_shift_fails"],
    ),
    # each first-failure row scanned only through its certified degree
    (
        "claims.py",
        "exactness.exactness_degree(rule, degree + 1)",
        "exactness.exactness_degree(rule, degree)",
        [
            "tests/test_claims.py::test_a_nonzero_bonus_residual_fails_only_the_cr4_claim",
            "tests/test_cli.py::test_verify_all_exit_code",
        ],
    ),
    # the one kernel contract: a raising inlined kernel not replayed through
    # a calling one, and the triangle products taken in reverse key order
    (
        "compound.py",
        "        total = _compile_kernel(rule, lambda *p: f(*p))(level, scale)\n",
        "        raise\n",
        ["tests/test_compound.py::test_inlined_integrand_matches_a_called_one_through_compound_apply"],
    ),
    (
        "compound.py",
        "for i, j, p in keys])",
        "for i, j, p in reversed(keys)])",
        ["tests/test_compound.py::test_triangle_kernel_matches_a_call_at_every_node_of_every_cell"],
    ),
    # what the program reads instead of restating: the interpolation claim
    # solved without the centroid, the JSON objects without the subcommand's
    # name, and derive's system counted without the centroid
    (
        "claims.py",
        "nodes = list(dict.fromkeys(rule.nodes + (rule.region.centroid(),)))",
        "nodes = list(rule.nodes)",
        ["tests/test_claims.py::"
         "test_the_interpolation_claim_solves_the_published_systems_by_an_oracle"],
    ),
    (
        "cli.py",
        'json.dumps({"command": args.command, **json_payload()}, indent=2)',
        "json.dumps(json_payload(), indent=2)",
        [
            "tests/test_golden.py::test_output_matches_golden[verify_all.json]",
            "tests/test_golden.py::test_output_matches_golden[derive_disc_weights.json]",
        ],
    ),
    (
        "cli.py",
        "nodes = 1 + len(spread)",
        "nodes = len(spread)",
        [
            "tests/test_cli.py::test_a_derive_system_at_the_entry_limit_is_admitted",
            "tests/test_cli.py::test_table_system_and_polygon_limits_refuse_before_any_work",
        ],
    ),
    # the integer view's sign and ring arithmetic: the simplex's slack
    # 1 - sum x_i negated, an edge recurrence term on the wrong endpoint,
    # and the product in Z[sqrt d] without the radicand
    (
        "regions.py",
        "view_minus(top, view_sum(row, d), d)",
        "view_minus(view_sum(row, d), top, d)",
        ["tests/test_regions.py::test_simplex_and_cube_membership"],
    ),
    (
        "regions.py",
        "a = _mul_add(self.x0s, ",
        "a = _mul_add(self.x1s, ",
        ["tests/test_regions.py::test_hexagon_moments"],
    ),
    (
        "scalars.py",
        "return (a * e + b * f * d, a * f + b * e)",
        "return (a * e + b * f, a * f + b * e)",
        ["tests/test_regions.py::test_polygon_moments_match_fan_triangulation_oracle"],
    ),
    # the rows on ints, the kept moment triangle and the scan's powers: two
    # rows compared by the wrong cross products, a row's rhs shown without
    # its pi, the scalar rows dropped, two radicands taken for one ring, the
    # triangle built one diagonal short, and a monomial's terms from the
    # wrong column or the wrong parent
    (
        "rules.py",
        "view_times(by.rhs, self.coef, d), view_times(self.rhs, by.coef, d)",
        "view_times(by.rhs, by.coef, d), view_times(self.rhs, self.coef, d)",
        [
            "tests/test_families.py::test_integer_rows_give_the_oracle_rows_lambda_and_residuals",
            "tests/test_families.py::test_solve_lambda_on_the_integer_rows_gives_the_oracle_outcomes",
        ],
    ),
    (
        "rules.py",
        "_scalar(self.rhs, self.scale, self.d, self.pi))",
        "_scalar(self.rhs, self.scale, self.d, False))",
        ["tests/test_families.py::test_solve_lambda_on_the_integer_rows_gives_the_oracle_outcomes"],
    ),
    (
        "rules.py",
        "        if ring is None:\n            m_values",
        "        if False:\n            m_values",
        [
            "tests/test_families.py::test_rows_without_one_ring_fall_back_to_the_scalar_rows",
            "tests/test_families.py::test_integer_rows_give_the_oracle_rows_lambda_and_residuals",
        ],
    ),
    (
        "rules.py",
        "if len(radicands) > 1 or len(pis) > 1 or",
        "if len(pis) > 1 or",
        ["tests/test_families.py::test_rows_without_one_ring_fall_back_to_the_scalar_rows"],
    ),
    (
        "regions.py",
        "for k in range(self.degree + 1, top + 1):",
        "for k in range(self.degree + 1, top):",
        [
            "tests/test_regions.py::test_one_polygon_asked_in_any_order_keeps_one_moment_triangle",
            "tests/test_regions.py::test_polygon_moments_match_fan_triangulation_oracle",
        ],
    ),
    (
        "exactness.py",
        "powers[alpha] = table.times(previous[parent], i)",
        "powers[alpha] = table.times(previous[parent], 0)",
        ["tests/test_exactness.py::test_the_integer_scan_gives_the_full_scalar_scan_report"],
    ),
    (
        "exactness.py",
        "return alpha[:i] + (alpha[i] - 1,) + alpha[i + 1:], i",
        "return alpha[:i] + (alpha[i] - 1,) + alpha[i + 1:], len(alpha) - 1",
        [
            "tests/test_exactness.py::test_the_integer_scan_gives_the_full_scalar_scan_report",
            "tests/test_exactness.py::test_orbit_scan_gives_the_full_scan_report",
        ],
    ),
]


def _copy_src(into: Path, mutant=None) -> Path:
    """A copy of src under ``into``, with the mutant's one substitution."""
    src = into / "src"
    shutil.copytree(ROOT / "src", src, ignore=shutil.ignore_patterns("__pycache__", "*.egg-info"))
    if mutant is not None:
        name, old, new, _ = mutant
        path = src / "simpson_nd" / name
        text = path.read_text(encoding="utf-8")
        if text.count(old) != 1:
            raise SystemExit(f"{name}: the old text occurs {text.count(old)} times: {old!r}")
        path.write_text(text.replace(old, new), encoding="utf-8")
    return src


def _failed(src: Path, tests: list[str]) -> list[str]:
    """The ids of the failing tests among ``tests``, run against ``src``."""
    path = os.pathsep.join(filter(None, [str(src), os.environ.get("PYTHONPATH")]))
    env = dict(os.environ, PYTHONPATH=path, PYTHONDONTWRITEBYTECODE="1")
    run = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "--tb=no", "-rf", "-p", "no:cacheprovider",
         "-o", f"pythonpath={src}", *tests],
        cwd=ROOT, env=env, capture_output=True, text=True,
    )
    failed = [line.split()[1] for line in run.stdout.splitlines() if line.startswith("FAILED ")]
    if run.returncode not in (0, 1) or (run.returncode == 1 and not failed):
        raise SystemExit(f"pytest exited {run.returncode} on {tests}:\n{run.stdout}{run.stderr}")
    return failed


def _passing(mutant) -> list[str]:
    """The named tests of ``mutant`` that still pass against its copy."""
    named = mutant[3]
    with tempfile.TemporaryDirectory() as tmp:
        failed = _failed(_copy_src(Path(tmp), mutant), named)
    return [t for t in named if not any(f == t or f.startswith(t + "[") for f in failed)]


def main() -> int:
    tests = sorted({test for *_, named in MUTANTS for test in named})
    with tempfile.TemporaryDirectory() as tmp:
        failed = _failed(_copy_src(Path(tmp)), tests)
    if failed:
        print("the named tests must pass on the unchanged source; failing:", *failed, sep="\n  ")
        return 1
    survivors = 0
    with ThreadPoolExecutor(os.cpu_count()) as pool:
        for (name, old, new, _), passing in zip(MUTANTS, pool.map(_passing, MUTANTS)):
            verdict = "survived" if passing else "killed"
            print(f"{verdict:8}  {name}: {old.strip()!r} -> {new.strip()!r}", flush=True)
            for test in passing:
                print(f"          still passes: {test}")
            survivors += bool(passing)
    print(f"{len(MUTANTS) - survivors} of {len(MUTANTS)} mutants killed")
    return 1 if survivors else 0


if __name__ == "__main__":
    sys.exit(main())
