"""Command-line surface.

Subcommands: verify, moments, derive, family, compound, catalog.
Output formats: text (default), json, csv; the SIMPSON_ND_FORMAT
environment variable overrides the default.  A command computes its
results once and hands ``_emit`` one builder per format; only the builder
of the selected format runs, and ``_emit`` puts the subcommand's name
first in every JSON object, as its "command" key.  ``moments`` and
``derive`` ask their region for one moment batch each.  Exit codes: 0
success (including negative findings like "infeasible"), 1 domain error
or failed verification, 2 usage error.
"""

from __future__ import annotations

import argparse
import csv
import functools
import json
import math
import os
import sys
from fractions import Fraction

from . import claims as claims_mod
from . import compound as compound_mod
from . import exactness, expr, families, rules, scalars
from .errors import NotPolynomial, SimpsonNdError, WorkLimit
from .regions import (
    Cube,
    Polygon,
    Region,
    Simplex,
    UnitDisc,
    hexagon_paper,
    integrate_terms,
    region_from_json,
    region_to_json,
    trapezoid_paper,
)
from .scalars import MAX_RATIONAL_DIGITS

FORMATS = ("text", "json", "csv")


def _ascii_number(convert):
    """convert(text) for a number read from the command line, refusing any
    text that is not ASCII first: int(), Fraction() and float() also read
    other scripts' digits, so "٣" would pass for 3.  Digit-grouping
    underscores, which they accept too, are refused as the expression
    lexer refuses them."""

    def number(text: str):
        if not text.isascii():
            raise ValueError(f"{text!r} is not a number written in ASCII")
        if "_" in text:
            raise ValueError(f"{text!r} is not a number: write it without '_'")
        return convert(text)

    number.__name__ = convert.__name__  # argparse names the type in its usage errors
    return number


def _rational(text: str) -> Fraction:
    mantissa, _, exponent = text.lower().partition("e")
    exponent = exponent.strip().lstrip("+-").lstrip("0")
    digits = sum(c.isdigit() for c in mantissa)
    if exponent.isdigit():
        # measured by its length first: int() would expand a long exponent too
        digits += int(exponent) if len(exponent) < 9 else 10**9
    if digits > MAX_RATIONAL_DIGITS:
        raise WorkLimit(f"{scalars.shown(text)!r} has more than {MAX_RATIONAL_DIGITS} digits, "
                        "counting its exponent")
    try:
        return Fraction(text)
    except ZeroDivisionError:  # its message would be "Fraction(1, 0)"
        raise ValueError(f"{scalars.shown(text)!r} has a zero denominator") from None


_int = _ascii_number(int)
_fraction = _ascii_number(_rational)
_float = _ascii_number(float)


def _default_format() -> str:
    env = os.environ.get("SIMPSON_ND_FORMAT", "text").strip().lower()
    return env if env in FORMATS else "text"


def _parse_region(alias: str | None, path: str | None) -> Region:
    """The --region or --region-file region.  A simplex or cube above
    rules.MAX_RULE_DIMENSION is refused before any vertex is built: derive
    places all 2^n cube vertices."""
    region = _read_region(alias, path)
    if isinstance(region, (Simplex, Cube)) and region.dimension > rules.MAX_RULE_DIMENSION:
        raise WorkLimit(
            f"dimension {region.dimension} is above the limit of "
            f"{rules.MAX_RULE_DIMENSION} for simplex and cube regions"
        )
    return region


def _read_region(alias: str | None, path: str | None) -> Region:
    if path:
        with open(path, "r", encoding="utf-8") as fh:
            try:
                data = json.load(fh, parse_int=scalars.int_from_json)
            except RecursionError:
                raise ValueError(f"{path}: the JSON is nested too deep to read") from None
        return region_from_json(data)
    if not alias:
        raise ValueError("a region is required (--region or --region-file)")
    alias = alias.strip().lower()
    if alias == "disc":
        return UnitDisc()
    if alias == "trapezoid-paper":
        return trapezoid_paper()
    if alias == "hexagon-paper":
        return hexagon_paper()
    if ":" in alias:
        kind, _, dim = alias.partition(":")
        if kind == "simplex":
            return Simplex(_int(dim))
        if kind == "cube":
            return Cube(_int(dim))
    raise ValueError(
        f"unknown region {alias!r}; use simplex:N, cube:N, disc, "
        "trapezoid-paper, hexagon-paper, or --region-file"
    )


def _region_name(region: Region, alias: str | None = None) -> str:
    if alias:
        return alias
    if isinstance(region, Simplex):
        return f"simplex:{region.dimension}"
    if isinstance(region, Cube):
        return f"cube:{region.dimension}"
    if isinstance(region, UnitDisc):
        return "disc"
    return "polygon"


def _check_monomial_table(region: Region, degree: int) -> None:
    """moments and derive tabulate every monomial through ``degree``.  Refuse
    a degree above expr.MAX_POLY_DEGREE, or a table above expr.MAX_POLY_TERMS
    entries, before any moment is computed.  A polygon moment is one boundary
    integral per edge, so a polygon's table counts every edge of it.  A
    negative degree is a domain error, not an empty table."""
    if degree < 0:
        raise ValueError(f"degree must be >= 0, got {degree}")
    if degree > expr.MAX_POLY_DEGREE:
        raise WorkLimit(f"degree {degree} is above the limit of {expr.MAX_POLY_DEGREE}")
    entries = math.comb(region.dimension + degree, degree)
    what = f"{entries} monomials"
    if isinstance(region, Polygon):
        edges = len(region.vertices())
        entries *= edges
        what += f" x {edges} edges = {entries} boundary integrals"
    if entries > expr.MAX_POLY_TERMS:
        raise WorkLimit(
            f"degree {degree} in {region.dimension} variables needs {what}; "
            f"the limit is {expr.MAX_POLY_TERMS}"
        )


def _display_monomials(dim: int, degree: int):
    """Presentation order: per degree, pure powers before mixed terms."""
    for d in range(degree + 1):
        block = sorted(
            exactness.monomials_of_degree(dim, d),
            key=lambda alpha: (sum(1 for e in alpha if e), tuple(-e for e in alpha)),
        )
        yield from block


def _emit(args, *, json_payload, csv_table, text_lines) -> None:
    """Print the one output form that ``args.format`` selects.  Each form
    is a function of no arguments, and only the selected one is called:
    ``json_payload`` returns the JSON object, ``csv_table`` the header and
    the rows, and ``text_lines`` the lines.  The printed JSON object's
    first key, "command", names the subcommand: ``args.command``."""
    if args.format == "json":
        print(json.dumps({"command": args.command, **json_payload()}, indent=2))
    elif args.format == "csv":
        header, rows = csv_table()
        writer = csv.writer(sys.stdout, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows)
    else:
        for line in text_lines():
            print(line)


def _fmt(x) -> str:
    return scalars.format_scalar(x)


def _cmd_verify(args) -> int:
    if args.all:
        given = [flag for flag, value in (("--rule", args.rule), ("--dim", args.dim),
                                          ("--max-degree", args.max_degree))
                 if value is not None]
        if given:
            raise ValueError(f"verify --all runs the claim suite and takes no {', '.join(given)}")
        results = claims_mod.run_claims()
        ok = all(c.ok for c in results)
        _emit(
            args,
            json_payload=lambda: {
                "all": True,
                "ok": ok,
                "claims": [
                    {"name": c.name, "ok": c.ok, "detail": c.detail} for c in results
                ],
            },
            csv_table=lambda: (
                ["claim", "status", "detail"],
                [[c.name, "pass" if c.ok else "FAIL", c.detail] for c in results],
            ),
            text_lines=lambda: [
                f"{'pass' if c.ok else 'FAIL':4}  {c.name}: {c.detail}" for c in results
            ] + [f"{sum(c.ok for c in results)}/{len(results)} claims confirmed"],
        )
        return 0 if ok else 1
    if not args.rule:
        raise ValueError("verify needs --rule NAME or --all")
    rule = rules.named_rule(args.rule, args.dim)
    max_degree = 5 if args.max_degree is None else args.max_degree
    report = exactness.exactness_degree(rule, max_degree)

    def text_lines():
        yield (f"rule {rule.label}: certified degree {report.certified_degree} "
               f"(tested through degree {report.max_degree})")
        if report.failing is None:
            yield "no failing monomial up to the tested degree"
        else:
            yield (f"first failing monomial {exactness.monomial_label(report.failing)} "
                   f"= {report.failing}, residual {_fmt(report.failing_residual)}")

    _emit(
        args,
        json_payload=report.to_json,
        csv_table=lambda: (["rule", "degree", "tested", "failing", "residual"], [[
            report.label,
            str(report.certified_degree),
            str(report.max_degree),
            "" if report.failing is None else exactness.monomial_label(report.failing),
            "" if report.failing_residual is None else _fmt(report.failing_residual),
        ]]),
        text_lines=text_lines,
    )
    return 0


def _cmd_moments(args) -> int:
    region = _parse_region(args.region, args.region_file)
    _check_monomial_table(region, args.degree)
    alphas = list(_display_monomials(region.dimension, args.degree))
    entries = list(zip(alphas, region.moments(alphas)))
    _emit(
        args,
        json_payload=lambda: {
            "region": region_to_json(region),
            "degree": args.degree,
            "moments": [
                {
                    "exponents": list(alpha),
                    "label": exactness.monomial_label(alpha),
                    "value": scalars.scalar_to_json(value),
                    "decimal": scalars.to_float(value),
                }
                for alpha, value in entries
            ],
        },
        csv_table=lambda: (["monomial", "exponents", "exact", "decimal"], [
            [
                exactness.monomial_label(alpha),
                " ".join(str(e) for e in alpha),
                _fmt(value),
                repr(scalars.to_float(value)),
            ]
            for alpha, value in entries
        ]),
        text_lines=lambda: [
            f"moments of {_region_name(region, args.region)} through degree {args.degree}:"
        ] + [f"  {exactness.monomial_label(alpha)} = {_fmt(value)}" for alpha, value in entries],
    )
    return 0


def _parse_targets(text: str, region: Region) -> list[tuple[int, ...]]:
    text = text.strip().lower()
    try:
        degree = _int(text[3:]) if text.startswith("deg") else None
    except ValueError:
        degree = None
    if degree is None:
        raise ValueError(f"unknown targets {text!r}; use degN")
    _check_monomial_table(region, degree)
    return list(exactness.monomials_up_to(region.dimension, degree))


def _parse_exclude(text: str, dim: int) -> tuple[int, ...]:
    poly = expr.to_monomial_poly(expr.parse(text), dim)
    if len(poly.terms) != 1:
        raise ValueError(f"--exclude must name a single monomial, got {text!r}")
    (alpha, coeff), = poly.terms.items()
    if coeff != 1:
        raise ValueError(f"--exclude must be a bare monomial, got {text!r}")
    return alpha


def _outcome_payload(outcome) -> dict:
    if isinstance(outcome, exactness.UniqueSolution):
        return {
            "outcome": "unique",
            "values": [scalars.scalar_to_json(v) for v in outcome.values],
        }
    if isinstance(outcome, exactness.Infeasible):
        payload = {
            "outcome": "infeasible",
            "witness": outcome.witness,
            "equations": [e.label for e in outcome.equations],
        }
        # a weight system's certificate: these multiples of the equations sum to 0 = nonzero
        if outcome.multipliers:
            payload["multipliers"] = [scalars.scalar_to_json(m) for m in outcome.multipliers]
        return payload
    return {
        "outcome": "underdetermined",
        "particular": [scalars.scalar_to_json(v) for v in outcome.particular],
        "nullity": outcome.nullity,
    }


def _outcome_rows(outcome, unknowns: list[str]) -> list[list[str]]:
    if isinstance(outcome, exactness.UniqueSolution):
        return [[name, _fmt(v), repr(scalars.to_float(v))]
                for name, v in zip(unknowns, outcome.values)]
    if isinstance(outcome, exactness.Infeasible):
        return [["infeasible", outcome.witness, ""]]
    return [["underdetermined", str(outcome.nullity), ""]]


def _outcome_lines(outcome, unknowns: list[str]) -> list[str]:
    if isinstance(outcome, exactness.UniqueSolution):
        return [f"  {name} = {_fmt(v)} ({scalars.to_float(v)!r})"
                for name, v in zip(unknowns, outcome.values)]
    if isinstance(outcome, exactness.Infeasible):
        return [f"  infeasible: {outcome.witness}"]
    return [f"  underdetermined (nullity {outcome.nullity}); "
            f"particular solution {[_fmt(v) for v in outcome.particular]}"]


def _spread_nodes(region: Region):
    """The vertex set, or the four axis points for the vertex-free disc."""
    if isinstance(region, UnitDisc):
        return rules.DISC_AXIS_POINTS
    return tuple(region.vertices())


def _check_system(spread, targets: int, mode: str) -> None:
    """Refuse a derive system above exactness.MAX_SYSTEM_ENTRIES, on the
    centroid and the ``spread``, before any moment is computed."""
    nodes = 1 + len(spread)
    entries = targets * (nodes if mode == "lambda" else nodes + 1 + targets)
    if entries > exactness.MAX_SYSTEM_ENTRIES:
        raise WorkLimit(
            f"{targets} targets on {nodes} nodes make a {mode} system of {entries} "
            f"entries; the limit is {exactness.MAX_SYSTEM_ENTRIES}"
        )


def _cmd_derive(args) -> int:
    region = _parse_region(args.region, args.region_file)
    targets = _parse_targets(args.targets, region)
    if args.exclude:
        alpha = _parse_exclude(args.exclude, region.dimension)
        if alpha not in targets:
            raise ValueError(f"--exclude {exactness.monomial_label(alpha)} is not among "
                             f"the {args.targets.strip()} targets")
        targets.remove(alpha)
    spread = _spread_nodes(region)
    _check_system(spread, len(targets), args.mode)
    if args.mode == "lambda":
        outcome = exactness.solve_lambda(region, spread, targets)
        unknowns = ["lambda"]
    else:
        # the centroid's check and the target moments from one batch, as in lambda mode
        form = rules.PaperForm(region, targets)
        form.check(())
        nodes = (form.centroid,) + spread
        outcome = exactness.solve_weights(nodes, targets, form.moments)
        unknowns = [f"w{i + 1}" for i in range(len(nodes))]
    _emit(
        args,
        json_payload=lambda: {
            "mode": args.mode,
            "region": region_to_json(region),
            "targets": [list(t) for t in targets],
            **_outcome_payload(outcome),
        },
        csv_table=lambda: (["unknown", "value", "decimal"], _outcome_rows(outcome, unknowns)),
        text_lines=lambda: [f"derive --mode {args.mode} on {_region_name(region, args.region)}:"]
        + _outcome_lines(outcome, unknowns),
    )
    return 0


def _values(text: str, count: int) -> list[Fraction]:
    parts = text.replace(" ", "").split(",")
    if len(parts) != count or "" in parts:
        raise ValueError(f"expected {count} comma-separated rationals, got {text!r}")
    return [_fraction(p) for p in parts]


def _residual_report(args, name: str, res, extra=dict, extra_lines=list) -> int:
    """Print a system's residuals; ``extra`` returns the JSON keys and
    ``extra_lines`` the text lines that a command adds after them."""
    residuals = list(zip(res.names, res.residuals))
    _emit(
        args,
        json_payload=lambda: {
            "system": name,
            "solves": res.all_zero,
            "residuals": [
                {"equation": eq_name, "value": scalars.scalar_to_json(v)}
                for eq_name, v in residuals
            ],
            **extra(),
        },
        csv_table=lambda: (["equation", "residual"],
                           [[eq_name, _fmt(v)] for eq_name, v in residuals]),
        text_lines=lambda: [f"{name} system residuals:"]
        + [f"  {eq_name}: {_fmt(v)}" for eq_name, v in residuals]
        + ["solves the system" if res.all_zero else "does not solve the system"]
        + extra_lines(),
    )
    return 0


# family --point: each system's parameter count, lambda included, and its residuals.
# benchmarks/tracing.py patches the values of a module's dicts that are the functions
# themselves, not functions inside a tuple, so each lambda looks its system up per call
_POINT_SYSTEMS = {
    "triangle": (4, lambda *v: families.triangle_system(*v)),
    "square": (5, lambda *v: families.square_system(*v)),
    "trapezoid": (5, lambda *v: families.trapezoid_system(*v)),
    "simplex3": (9, lambda *v: families.simplex3_face_system(v[:8], v[8])),
}


# the options besides --point that each family system reads
_FAMILY_OPTIONS = {
    "triangle": ("--param",), "square": ("--param",),
    "trapezoid": ("--branch",), "simplex3": ("--vertex-search",),
}


def _cmd_family(args) -> int:
    system = args.system
    given = {"--param": args.param is not None, "--branch": args.branch is not None,
             "--vertex-search": args.vertex_search}
    unread = [name for name, on in given.items() if on and name not in _FAMILY_OPTIONS[system]]
    if unread:
        raise ValueError(f"family {system} takes no {', '.join(unread)}")
    # --point wins over the system's own option but simplex3's --vertex-search
    if args.point and not (system == "simplex3" and args.vertex_search):
        count, residuals = _POINT_SYSTEMS[system]
        return _residual_report(args, system, residuals(*_values(args.point, count)))
    family = families.FAMILIES.get(system)
    if family is not None:
        t = _fraction(args.param if args.param is not None else family.default)
        params, lam, res = family.member(t)
        roots = [str(r) for r in sorted(family.selector_roots())]
        shown = dict(zip(family.member_names, params))

        def member_json():
            member = {k: scalars.scalar_to_json(v) for k, v in shown.items()}
            member["lambda"] = scalars.scalar_to_json(lam)
            return {"member": member} if shown else member

        return _residual_report(
            args, system, res,
            extra=lambda: {"parameter": str(t), **member_json(), "selector_roots": roots},
            extra_lines=lambda: [
                f"family member at {family.parameter}={t}: " + ", ".join(
                    [f"{k}={_fmt(v)}" for k, v in shown.items() if k != family.parameter]
                    + [f"lambda={_fmt(lam)}"]),
                f"{family.roots_label}: {', '.join(roots)}",
            ],
        )
    if system == "trapezoid":
        branch = args.branch or "primary"
        member = dict(zip(("a", "b", "c", "d", "lambda"),
                          families.trapezoid_family_member(branch == "conjugate")))
        res = families.trapezoid_system(*member.values())
        return _residual_report(
            args, system, res,
            extra=lambda: {"branch": branch, "member": {
                k: scalars.scalar_to_json(v) for k, v in member.items()}},
            extra_lines=lambda: [f"{k}={_fmt(v)}" for k, v in member.items()],
        )
    # simplex3
    if args.vertex_search:
        solutions = families.simplex3_vertex_solutions()
        _emit(
            args,
            json_payload=lambda: {
                "system": "simplex3",
                "vertex_search": True,
                "lambda": str(families.SIMPLEX3_VERTEX_LAMBDA),
                "solutions": [[str(v) for v in sol] for sol in solutions],
            },
            csv_table=lambda: (["solution", "parameters"],
                               [[str(i + 1), ", ".join(str(v) for v in sol)]
                                for i, sol in enumerate(solutions)]),
            text_lines=lambda: [
                "vertex-type placements solving the system at "
                f"lambda={families.SIMPLEX3_VERTEX_LAMBDA}: {len(solutions)}"
            ] + ["  (" + ", ".join(str(v) for v in sol) + ")" for sol in solutions],
        )
        return 0
    point, lam = families.SIMPLEX3_FACE_CENTERS
    res = families.simplex3_face_system(point, lam)
    return _residual_report(
        args, "simplex3", res,
        extra=lambda: {"point": f"all {point[0]}", "lambda": str(lam)},
        extra_lines=lambda: [f"face-center placement with lambda={lam}"],
    )


def _parse_levels(text: str) -> tuple[int, int]:
    lo, _, hi = text.partition(":")
    lo, hi = _int(lo), _int(hi or lo)
    if not 0 <= lo <= hi:
        raise ValueError(f"--levels must be lo:hi with 0 <= lo <= hi, got {text!r}")
    return lo, hi


def _cmd_compound(args) -> int:
    rule = rules.named_rule(args.rule, args.dim)
    tree = expr.parse(args.expr)
    f = expr.as_function(tree)
    lo, top = _parse_levels(args.levels)
    levels = range(lo, top + 1)
    reference = None
    if args.reference is not None:
        reference = float(args.reference)
        if not math.isfinite(reference):
            raise ValueError(f"--reference must be a finite number, got {reference}")
        ref_kind = "explicit"
    else:
        try:
            poly = expr.to_monomial_poly(tree, rule.region.dimension)
            reference = scalars.to_float(integrate_terms(rule.region, poly.terms.items()))
            ref_kind = "exact"
        except NotPolynomial:
            top += 3
            ref_kind = f"level-{top} estimate"
    # the highest level, the reference's included, is refused before any cell is built
    compound_mod.compound_cells(rule, top)
    if reference is None:
        reference = compound_mod.compound_apply(rule, top, f).estimate
    estimates = [compound_mod.compound_apply(rule, lv, f) for lv in levels]
    errors = [abs(e.estimate - reference) for e in estimates]
    if not all(map(math.isfinite, errors)):
        raise OverflowError("an error |estimate - reference| overflowed")
    try:
        order = compound_mod.convergence_order(estimates, reference)
        fit = f"fitted order {order:.3f}"
    except SimpsonNdError as exc:
        order, fit = None, f"no order fit: {exc}"

    def rows():
        for i, (est, err) in enumerate(zip(estimates, errors)):
            ratio = "" if i == 0 or err == 0 else f"{errors[i - 1] / err:.3f}"
            yield [str(est.level), str(est.cells), repr(est.estimate), repr(err), ratio]

    header = ["level", "cells", "estimate", "error", "ratio"]
    _emit(
        args,
        json_payload=lambda: {
            "rule": rule.label,
            "expr": args.expr,
            "reference": reference,
            "reference_kind": ref_kind,
            "rows": [
                {"level": e.level, "cells": e.cells, "estimate": e.estimate,
                 "error": err}
                for e, err in zip(estimates, errors)
            ],
            "order": order,
        },
        csv_table=lambda: (header, rows()),
        text_lines=lambda: [
            f"compound {rule.label} on {args.expr} (reference {reference!r}, {ref_kind})",
            ",".join(header),
            *(",".join(row) for row in rows()),
            fit,
        ],
    )
    return 0


_CATALOG_DEGREE_CAP = 5


def _cmd_catalog(args) -> int:
    entries = [build(args.dim) for build in rules._NAMED_NEED_DIM.values()]
    entries += [build() for build in rules._NAMED_FIXED.values()]
    certified = [
        (rule, exactness.exactness_degree(rule, _CATALOG_DEGREE_CAP).certified_degree)
        for rule in entries
    ]

    def point(node) -> str:
        return "(" + ", ".join(_fmt(c) for c in node) + ")"

    def text_lines():
        for rule, degree in certified:
            yield (f"{rule.label}  [{_region_name(rule.region)}]  "
                   f"degree {degree}, {len(rule.nodes)} nodes")
            for node, w in zip(rule.nodes, rule.weights):
                approx = "(" + ", ".join(f"{scalars.to_float(c):.6f}" for c in node) + ")"
                yield (f"    {point(node)} ~ {approx}  "
                       f"weight {_fmt(w)} ~ {scalars.to_float(w):.6f}")

    _emit(
        args,
        json_payload=lambda: {
            "rules": [{**rules.rule_to_json(rule), "degree": degree}
                      for rule, degree in certified],
        },
        csv_table=lambda: (["rule", "degree", "node", "weight"], [
            [rule.label, str(degree), point(node), _fmt(w)]
            for rule, degree in certified
            for node, w in zip(rule.nodes, rule.weights)
        ]),
        text_lines=text_lines,
    )
    return 0


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built on the first call and shared by every
    later one: do not mutate it.  ``--format`` defaults to None, which
    ``run`` resolves through SIMPSON_ND_FORMAT on each call."""
    parser = argparse.ArgumentParser(
        prog="simpson-nd",
        description="Exact blended cubature rules and their certification.",
    )
    parser.add_argument(
        "--format", choices=FORMATS, default=None,
        help="output format (default from SIMPSON_ND_FORMAT, else text)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("verify", help="certify exactness degrees")
    p.add_argument("--rule", help="rule name: CR1..CR6, CR5*, TriangleMidedge")
    p.add_argument("--dim", type=_int, default=None, help="dimension for CR1..CR3")
    p.add_argument("--max-degree", type=_int, default=None,
                   help="highest degree scanned (default 5)")
    p.add_argument("--all", action="store_true",
                   help="run the whole claim suite (takes no --rule, --dim or --max-degree)")
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("moments", help="exact region moments")
    p.add_argument("--region", help="simplex:N, cube:N, disc, trapezoid-paper, hexagon-paper")
    p.add_argument("--region-file", help="path to a region JSON file")
    p.add_argument("--degree", type=_int, default=2)
    p.set_defaults(func=_cmd_moments)

    p = sub.add_parser("derive", help="solve for the blend parameter or free weights")
    p.add_argument("--region", help="region alias")
    p.add_argument("--region-file", help="path to a region JSON file")
    p.add_argument("--targets", default="deg2", help="target monomials, e.g. deg2")
    p.add_argument("--exclude", help="drop one monomial from the targets, e.g. 'x*y'")
    p.add_argument("--mode", choices=("lambda", "weights"), default="lambda")
    p.set_defaults(func=_cmd_derive)

    p = sub.add_parser("family", help="evaluate or verify the node-placement systems")
    p.add_argument("system", choices=("triangle", "square", "trapezoid", "simplex3"))
    p.add_argument("--param", help="family parameter (triangle: c, square: d)")
    p.add_argument("--point", help="raw parameter tuple, comma separated; write "
                   "--point=-1,2,... when the first value is negative")
    p.add_argument("--branch", choices=("primary", "conjugate"),
                   help="trapezoid family branch (default: primary)")
    p.add_argument("--vertex-search", action="store_true",
                   help="simplex3: search vertex-type placements at "
                   f"lambda={families.SIMPLEX3_VERTEX_LAMBDA}")
    p.set_defaults(func=_cmd_family)

    p = sub.add_parser("compound", help="subdivision convergence study")
    p.add_argument("--rule", required=True)
    p.add_argument("--dim", type=_int, default=None)
    p.add_argument("--expr", required=True, help="integrand, e.g. 'exp(x+y)'")
    p.add_argument("--levels", default="1:5",
                   help="level range lo:hi, 0 <= lo <= hi; the highest level, and "
                   "hi+3 when the reference is estimated, must stay within "
                   f"{compound_mod.MAX_CELLS} cells")
    p.add_argument("--reference", type=_float, default=None,
                   help="reference value (default: exact for polynomials)")
    p.set_defaults(func=_cmd_compound)

    p = sub.add_parser("catalog", help="list the named rules")
    p.add_argument("--dim", type=_int, default=2, help="dimension for CR1..CR3")
    p.set_defaults(func=_cmd_catalog)
    return parser


def run(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    if args.format is None:
        args.format = _default_format()
    try:
        status = args.func(args)
        sys.stdout.flush()
        return status
    except BrokenPipeError:
        # the reader closed stdout: point it at os.devnull, so that the
        # flush at exit writes nowhere, and exit 1 quietly, as Python's
        # SIGPIPE recipe does
        try:
            stdout = sys.stdout.fileno()
            devnull = os.open(os.devnull, os.O_WRONLY)
            os.dup2(devnull, stdout)
            os.close(devnull)
        except (OSError, ValueError):  # an in-process stdout with no file descriptor
            pass
        return 1
    except (SimpsonNdError, ValueError, OSError, ZeroDivisionError, OverflowError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
