import errno
import gc
import math
import random
from fractions import Fraction

import pytest

from simpson_nd import scalars
from simpson_nd.errors import ExprSyntaxError, NotPolynomial, WorkLimit
from simpson_nd.expr import (
    FUNCTIONS,
    MAX_EXPR_DEPTH,
    MAX_POLY_DEGREE,
    MAX_POLY_EXPONENT,
    MAX_POLY_TERMS,
    BinOp,
    Call,
    Neg,
    Num,
    Var,
    as_function,
    eval_float,
    max_variable_index,
    parse,
    to_monomial_poly,
    to_source,
)
from simpson_nd.rules import MonomialPoly, cr1, cr3, cr4, cr5, cr6, triangle_midedge

from oracles import float_rule_sum, random_float_expr, walk_eval_float, walk_outcome


def test_parse_basic_structure():
    tree = parse("x^2*y + 1/3")
    assert tree == BinOp(
        "+",
        BinOp("*", BinOp("^", Var(0, "x"), Num(Fraction(2))), Var(1, "y")),
        BinOp("/", Num(Fraction(1)), Num(Fraction(3))),
    )


def test_parse_function_call():
    assert parse("exp(x+y)") == Call("exp", BinOp("+", Var(0, "x"), Var(1, "y")))


def test_parse_precedence():
    # unary minus binds looser than ^
    assert parse("-x^2") == Neg(BinOp("^", Var(0, "x"), Num(Fraction(2))))
    # ^ is right associative
    assert parse("2^3^2") == BinOp(
        "^", Num(Fraction(2)), BinOp("^", Num(Fraction(3)), Num(Fraction(2)))
    )
    assert parse("x^-1") == BinOp("^", Var(0, "x"), Neg(Num(Fraction(1))))


def test_parse_variables():
    assert parse("x3") == Var(2, "x3")
    assert parse("x12") == Var(11, "x12")
    with pytest.raises(ExprSyntaxError):
        parse("foo")


def test_parse_decimals_are_exact():
    assert parse("0.25") == Num(Fraction(1, 4))
    assert parse("1.2") == Num(Fraction(6, 5))
    assert parse("10") == Num(Fraction(10))


def test_syntax_error_offsets():
    with pytest.raises(ExprSyntaxError) as err:
        parse("x^^2")
    assert err.value.offset == 2
    with pytest.raises(ExprSyntaxError) as err:
        parse("x +")
    assert err.value.offset == 3
    with pytest.raises(ExprSyntaxError) as err:
        parse("sin x")
    assert err.value.offset == 4
    with pytest.raises(ExprSyntaxError) as err:
        parse("(x + y")
    assert err.value.offset == 6
    with pytest.raises(ExprSyntaxError) as err:
        parse("x ? y")
    assert err.value.offset == 2
    # a decimal point needs a digit after it
    with pytest.raises(ExprSyntaxError) as err:
        parse("1.")
    assert err.value.offset == 2
    # only ASCII digits are digits: a superscript or another script's digit
    # is an unexpected character where it stands
    for source, offset in (("x²", 1), ("2²", 1), ("x1²", 2), ("x٣", 1), ("x1٣ + 1", 2)):
        with pytest.raises(ExprSyntaxError) as err:
            parse(source)
        assert err.value.offset == offset, source


def _random_expr(rng, depth):
    if depth == 0 or rng.random() < 0.28:
        if rng.random() < 0.5:
            digits = rng.randint(0, 999)
            if rng.random() < 0.5:
                return Num(Fraction(digits))
            return Num(Fraction(digits, 100))
        name = rng.choice(["x", "y", "z", "x4"])
        index = {"x": 0, "y": 1, "z": 2, "x4": 3}[name]
        return Var(index, name)
    kind = rng.randint(0, 6)
    if kind == 0:
        return Neg(_random_expr(rng, depth - 1))
    if kind == 1:
        return Call(rng.choice(["sin", "cos", "exp", "sqrt"]), _random_expr(rng, depth - 1))
    if kind == 2:
        return BinOp("^", _random_expr(rng, depth - 1), Num(Fraction(rng.randint(0, 4))))
    op = rng.choice(["+", "-", "*", "/"])
    return BinOp(op, _random_expr(rng, depth - 1), _random_expr(rng, depth - 1))


def test_round_trip_200_random_expressions():
    rng = random.Random(2024)
    for _ in range(200):
        tree = _random_expr(rng, 4)
        assert parse(to_source(tree)) == tree, to_source(tree)


def test_to_monomial_poly_examples():
    assert to_monomial_poly(parse("x*y")).terms == {(1, 1): Fraction(1)}
    assert to_monomial_poly(parse("(x+y)^2")).terms == {
        (2, 0): Fraction(1),
        (1, 1): Fraction(2),
        (0, 2): Fraction(1),
    }
    assert to_monomial_poly(parse("0.2*x - x")).terms == {(1,): Fraction(-4, 5)}
    assert to_monomial_poly(parse("x/4")).terms == {(1,): Fraction(1, 4)}
    assert to_monomial_poly(parse("2"), dimension=3).terms == {(0, 0, 0): Fraction(2)}


def test_to_monomial_poly_rejections():
    with pytest.raises(NotPolynomial):
        to_monomial_poly(parse("sin(x)"))
    with pytest.raises(NotPolynomial):
        to_monomial_poly(parse("x^0.5"))
    with pytest.raises(NotPolynomial):
        to_monomial_poly(parse("x^-1"))
    with pytest.raises(NotPolynomial):
        to_monomial_poly(parse("1/x"))
    with pytest.raises(NotPolynomial):
        to_monomial_poly(parse("y"), dimension=1)


def _sum(n):
    return "+".join(f"x{i}" for i in range(1, n + 1))


@pytest.mark.parametrize(
    "source, message",
    [
        ("1^2000000", "exponent 2000000 is above the limit"),
        ("(x+1)^1100", "exponent 1100 is above the limit"),
        (f"1^{MAX_POLY_EXPONENT + 1}", f"exponent {MAX_POLY_EXPONENT + 1} is above the limit"),
        (f"(x+y+1)^{MAX_POLY_DEGREE + 1}", f"needs degree {MAX_POLY_DEGREE + 1}"),
        # C(6 + 12, 6) = 18564 monomials of degree <= 12 in six variables
        ("(x1+x2+x3+x4+x5+x6+1)^12", "may give 18564 terms"),
        # 69 x 29 = 2001 products of terms, under C(69 + 2, 2) = 2485 monomials
        (f"({_sum(69)})*({_sum(29)})", "may give 2001 terms"),
    ],
)
def test_lowering_limits_refuse_a_power_before_multiplying(monkeypatch, source, message):
    def refuse(*args):
        raise AssertionError("a polynomial was multiplied past the limits")

    monkeypatch.setattr(MonomialPoly, "__mul__", refuse)
    monkeypatch.setattr(MonomialPoly, "__pow__", refuse)
    with pytest.raises(WorkLimit, match=message):
        to_monomial_poly(parse(source))


@pytest.mark.parametrize(
    "source, dimension, terms, degree",
    [
        (f"2^{MAX_POLY_EXPONENT}", 1, 1, 0),
        (f"x^{MAX_POLY_DEGREE}", 1, 1, MAX_POLY_DEGREE),
        # 40 x 50 = 2000 products of terms, under C(62 + 2, 2) = 2016
        # monomials; 820 + 400 of them are distinct
        (f"({_sum(40)})*({_sum(50)})", 62, 1220, 2),
    ],
)
def test_lowering_limits_admit_an_expansion_at_each_limit(source, dimension, terms, degree):
    poly = to_monomial_poly(parse(source), dimension)
    assert (len(poly.terms), poly.degree()) == (terms, degree)


def test_lowering_limits_refuse_a_product_from_its_operand_degrees():
    with pytest.raises(WorkLimit, match=f"needs degree {MAX_POLY_DEGREE + 1}"):
        to_monomial_poly(parse(f"x^{MAX_POLY_DEGREE // 2}*y^{MAX_POLY_DEGREE // 2 + 1}"))


def test_lowering_limits_bound_the_term_count():
    # each factor has C(3 + 12, 3) = 455 terms; their product could have C(3 + 24, 3)
    assert 455 ** 2 > 2925 > MAX_POLY_TERMS
    with pytest.raises(WorkLimit, match="may give 2925 terms"):
        to_monomial_poly(parse("(x+y+z+1)^12*(x+y+z+1)^12"))
    # a single monomial is one product of terms, whatever its degree and dimension
    poly = to_monomial_poly(parse(f"x1^{MAX_POLY_DEGREE - 2}*x2^2"), 12)
    assert list(poly.terms) == [(MAX_POLY_DEGREE - 2, 2) + (0,) * 10]


@pytest.mark.parametrize(
    "source",
    [
        "(" * MAX_EXPR_DEPTH + "x" + ")" * MAX_EXPR_DEPTH,
        "+".join(["x"] * 100),
        "+".join(["x"] * (MAX_EXPR_DEPTH + 1)),  # MAX_EXPR_DEPTH operators
        "-" * MAX_EXPR_DEPTH + "x",
        "x" + "^1" * MAX_EXPR_DEPTH,
        "sin(" * MAX_EXPR_DEPTH + "x" + ")" * MAX_EXPR_DEPTH,
        "(" * 50 + "x" + "*x" * 49 + ")" * 50,
    ],
)
def test_expressions_at_the_depth_limit_are_admitted(source):
    # deeper ones are refused through the CLI in tests/test_cli.py
    tree = parse(source)
    assert parse(to_source(tree)) == tree
    assert eval_float(tree, (1.0,)) == walk_eval_float(tree, (1.0,))


def test_compiling_a_tree_past_the_depth_limit_is_refused():
    # parse never builds one; through the API the generated source would
    # pass CPython's limit of 200 nested brackets
    tree = Var(0, "x")
    for _ in range(MAX_EXPR_DEPTH):
        tree = Neg(tree)
    assert as_function(tree)(2.0) == 2.0
    with pytest.raises(WorkLimit, match="nested too deep"):
        as_function(Neg(tree))


def test_binop_refuses_an_operator_outside_the_grammar():
    x, two = Var(0, "x"), Num(Fraction(2))
    for op in ("+", "-", "*", "/", "^"):
        assert as_function(BinOp(op, x, two))(3.0) == walk_eval_float(BinOp(op, x, two), (3.0,))
    # "%" used to evaluate as a power, lower as a division and fail to print
    for op in ("%", "**", "", " +"):
        with pytest.raises(ValueError, match="unknown operator"):
            BinOp(op, x, two)


def test_call_refuses_a_function_outside_the_table():
    x = Var(0, "x")
    for fn in FUNCTIONS:
        assert as_function(Call(fn, x))(0.5) == FUNCTIONS[fn](0.5)
    for fn in ("abs", "__import__", "Sin", ""):
        with pytest.raises(ValueError, match="unknown function"):
            Call(fn, x)


def test_var_refuses_an_index_that_is_not_a_non_negative_int():
    assert as_function(Var(2, "z"))(1.0, 2.0, 3.0) == 3.0
    # -1 used to read the last coordinate silently
    for index in (-1, 1.0, "0", True, None):
        with pytest.raises(ValueError, match="variable index"):
            Var(index, "x")


def test_eval_float():
    f = as_function(parse("exp(x+y)"))
    assert math.isclose(f(0.25, 0.5), math.exp(0.75), rel_tol=1e-15)
    assert eval_float(parse("-2^2"), ()) == -4.0
    assert eval_float(parse("sqrt(4)"), ()) == 2.0
    with pytest.raises(ValueError):
        eval_float(parse("z"), (1.0, 2.0))


def test_the_standalone_integrand_compiles_once_per_coordinate_count(monkeypatch):
    # f compiles the inline body over the m coordinates it reads, once per m
    from simpson_nd import expr

    compiled = []
    monkeypatch.setattr(
        expr,
        "compile",
        lambda source, name, mode: compiled.append(source) or compile(source, name, mode),
        raising=False,
    )
    f = as_function(parse("x*y"))
    assert compiled == []
    assert f(2.0, 3.0) == 6.0
    # float("unread") would raise: a coordinate past the tree is never read
    assert f(2.0, 3.0, "unread") == 6.0
    assert len(compiled) == 1
    with pytest.raises(ValueError, match=r"^variable y needs dimension >= 2$"):
        f(2.0)
    assert len(compiled) == 2
    got = f(2, 3)
    assert type(got) is float and got == 6.0
    assert len(compiled) == 2
    with pytest.raises(ZeroDivisionError, match=r"^float division by zero$"):
        as_function(parse("1/x"))(0)


def test_the_standalone_integrand_leaves_no_reference_cycles():
    gc.collect()
    gc.disable()
    try:
        f = as_function(parse("exp(x)*y"))
        assert f(0.0, 2.0) == 2.0
        try:
            f(0.0)
        except ValueError:
            pass
        del f
        assert gc.collect() == 0
    finally:
        gc.enable()


def test_left_operand_fails_first_under_every_operator():
    complex_power = parse("(0-1)^0.5")
    y = Var(1, "y")
    for op in ("+", "-", "*", "/", "^"):
        with pytest.raises(ValueError, match=r"^\(-1\.0\)\^0\.5 is not a real number$"):
            as_function(BinOp(op, complex_power, y))(2.0)
        with pytest.raises(ValueError, match=r"^variable y needs dimension >= 2$"):
            as_function(BinOp(op, y, complex_power))(2.0)
    with pytest.raises(ValueError, match="variable y"):
        as_function(Call("sin", BinOp("*", Neg(y), complex_power)))(2.0)


def _outcome(evaluate):
    try:
        return evaluate()
    except Exception as exc:
        return type(exc)


def test_compiled_evaluator_matches_tree_walk_bit_for_bit():
    rng = random.Random(4104)
    coords = [0.0, -0.0, 1.0, 0.5, -1.5, 2.75, 700.0, -3.0]
    seen = set()
    for _ in range(1500):
        names = rng.sample(["x", "y", "z"], rng.randint(1, 3))
        tree = random_float_expr(rng, rng.randint(1, 5), names)
        f = as_function(tree)
        for _ in range(3):
            point = tuple(
                rng.choice(coords) if rng.random() < 0.3 else rng.uniform(-4.0, 4.0)
                for _ in range(rng.randint(1, 3))
            )
            want = walk_outcome(tree, point)
            for got in (_outcome(lambda: f(*point)), _outcome(lambda: eval_float(tree, point))):
                if isinstance(want, float):
                    assert type(got) is float and got.hex() == want.hex(), (tree, point)
                else:
                    assert got is want, (tree, point, got, want)
            seen.add(want if isinstance(want, type) else float)
    # the seeded trees reach values and every exception the walker can raise
    assert seen >= {float, ValueError, ZeroDivisionError, OverflowError}


def _inlined(f, dimension):
    """f's inline source compiled alone over x0 .. x{dimension - 1}, as the
    compound kernel inlines it."""
    inline = f.inline_source(dimension)
    names = ", ".join(f"x{i}" for i in range(dimension))
    exec(f"def g({names}):\n    return {inline.body}\n", inline.namespace)
    return inline.namespace["g"]


def _bits_or_error(evaluate):
    try:
        return evaluate().hex()
    except (ValueError, ZeroDivisionError, OverflowError) as exc:
        return type(exc), str(exc)


def test_literal_integer_powers_match_the_walk_in_bits_and_messages():
    # a literal integer exponent is emitted as ** in place of a _power call
    rng = random.Random(1515)
    x = Var(0, "x")
    bases = [x, Neg(x), BinOp("*", x, Num(Fraction(3))), BinOp("-", x, Num(Fraction(1, 2)))]
    coords = [0.0, -0.0, -1.0, -2.5, 0.5, 1e-300, -1e-300, 1e300, -1e300, 10.0, -10.0]
    seen = set()
    for _ in range(600):
        k = rng.choice([0, 1, 2, 3, 750, 1075, -1, -2, -3, -750])
        if k >= 0:
            exponent = Num(Fraction(k))
        else:  # "-2" parses to Neg(Num(2)); Num(-2) is a literal integer too
            exponent = rng.choice([Neg(Num(Fraction(-k))), Num(Fraction(k))])
        tree = BinOp("^", rng.choice(bases), exponent)
        f = as_function(tree)
        assert "_power" not in f.inline_source(1).body
        point = rng.choice(coords) if rng.random() < 0.7 else rng.uniform(-4.0, 4.0)
        want = _bits_or_error(lambda: walk_eval_float(tree, (point,)))
        if isinstance(want, tuple):
            assert walk_outcome(tree, (point,)) is want[0]
        else:
            assert walk_outcome(tree, (point,)).hex() == want
        assert _bits_or_error(lambda: f(point)) == want, (tree, point)
        assert _bits_or_error(lambda: _inlined(f, 1)(point)) == want, (tree, point)
        seen.add(want[0] if isinstance(want, tuple) else float)
    assert seen == {float, ZeroDivisionError, OverflowError}


@pytest.mark.parametrize(
    "source, want",
    [
        ("(0-2)^3", (-8.0).hex()),
        ("x^-2", (ZeroDivisionError, "0.0 cannot be raised to a negative power")),
        ("10^400", (OverflowError, errno.ERANGE)),
        ("(0-1)^0.5", (ValueError, "(-1.0)^0.5 is not a real number")),
    ],
)
def test_literal_integer_power_cases_at_zero(source, want):
    f = as_function(parse(source))  # 10^400 compiles: CPython folds it only if it can
    for evaluate in (f, _inlined(f, 1)):
        if want[0] is OverflowError:
            # the message is the C library's strerror text; only the errno is portable
            with pytest.raises(OverflowError) as raised:
                evaluate(0.0)
            assert raised.value.args[0] == want[1]
        else:
            assert _bits_or_error(lambda: evaluate(0.0)) == want
    # only the fractional exponent keeps the call that refuses a complex value
    assert ("_power" in f.inline_source(1).body) == source.endswith("0.5")


@pytest.mark.parametrize(
    "source, dimension, template, parts, reads",
    [
        # in 2-d each maximal subtree of one coordinate, a lone x or y too
        (
            "exp(x)*sin(3*y)+cos(x*y)",
            2,
            "(({0} * {1}) + _cos(({2} * {3})))",
            [({0}, "_exp(x0)"), ({1}, "_sin((3.0 * x1))"), ({0}, "x0"), ({1}, "x1")],
            set(),
        ),
        # a constant inside a part of y is a part of its own, found first
        (
            "exp(sin(1)*y)*x^3",
            2,
            "({1} * {2})",
            [(set(), "_sin(1.0)"), ({1}, "_exp(({0} * x1))"), ({0}, "(x0 ** 3.0)")],
            set(),
        ),
        # equal subtrees share a part
        ("exp(x)*y+exp(x)", 2, "(({0} * {1}) + {0})", [({0}, "_exp(x0)"), ({1}, "x1")], set()),
        # in 1-d only what reads no coordinate moves, a variable past the
        # dimension included
        (
            "exp(sin(1)*y)*x^3",
            1,
            "({0} * (x0 ** 3.0))",
            [(set(), "_exp((_sin(1.0) * _missing(_variables[0])))")],
            {0},
        ),
        # in 3-d a subtree of two coordinates is a part, and holds parts of one
        ("x*y", 3, "{2}", [({0}, "x0"), ({1}, "x1"), ({0, 1}, "({0} * {1})")], set()),
    ],
)
def test_inline_source_parts(source, dimension, template, parts, reads):
    tree = parse(source)
    inline = as_function(tree).inline_source(dimension)
    assert inline.template == template
    assert inline.parts == tuple((frozenset(axes), text) for axes, text in parts)
    assert inline.reads == reads
    # the whole expression, as the template and parts give it back
    whole = []
    for _, text in inline.parts:
        whole.append(text.format(*whole))
    assert inline.body == template.format(*whole)
    point = (0.25, 0.75, 0.5)[:dimension]
    names = ", ".join(f"x{i}" for i in range(dimension))
    exec(f"def g({names}):\n    return {inline.body}\n", inline.namespace)
    if dimension > 1:
        assert inline.namespace["g"](*point).hex() == walk_eval_float(tree, point).hex()


def test_max_variable_index():
    assert max_variable_index(parse("3.5")) == 0
    assert max_variable_index(parse("x*y + x4")) == 4


def test_float_path_agrees_with_exact_path():
    source = "x^3*y - 0.5*x*y + y^2/3 + 1"
    tree = parse(source)
    f = as_function(tree)
    for rule in [cr1(2), cr3(2), cr4(), cr5(), cr6(), triangle_midedge()]:
        poly = to_monomial_poly(tree, 2)
        exact = scalars.to_float(rule.apply_poly(poly))
        approx = float_rule_sum(rule, f)
        assert math.isclose(exact, approx, rel_tol=1e-10, abs_tol=1e-10), rule.label


# Refusals of printing and lowering: (call, error, message)
REFUSALS = {
    "a third printed as a decimal": (
        lambda: to_source(Num(Fraction(1, 3))), ValueError, r"^1/3 has no finite decimal form$",
    ),
    "division by zero lowered": (
        lambda: to_monomial_poly(parse("x/0"), 1), ZeroDivisionError,
        r"^division by zero in expression$",
    ),
    "division by a zero sum lowered": (
        lambda: to_monomial_poly(parse("x/(y-y)"), 2), ZeroDivisionError,
        r"^division by zero in expression$",
    ),
}


@pytest.mark.parametrize("case", sorted(REFUSALS))
def test_refusals(case):
    call, error, message = REFUSALS[case]
    with pytest.raises(error, match=message):
        call()


@pytest.mark.parametrize("spelled", [
    lambda n: "7" * n,
    lambda n: "0." + "5" * (n - 1),
    lambda n: "." + "5" * n,
    lambda n: "x*1." + "0" * (n - 1),
])
def test_numbers_are_parsed_up_to_the_digit_limit(spelled):
    limit = scalars.MAX_RATIONAL_DIGITS
    parse(spelled(limit))
    with pytest.raises(WorkLimit, match=rf"^'.{{20}}\.\.\.' has more than {limit} digits$"):
        parse(spelled(limit + 1))


def test_a_variable_index_past_the_digit_limit_is_refused():
    limit = scalars.MAX_RATIONAL_DIGITS
    assert parse("x" + "1" * limit) == Var(int("1" * limit) - 1, "x" + "1" * limit)
    with pytest.raises(WorkLimit, match=rf"^'x1{{19}}\.\.\.' has more than {limit} digits$"):
        parse("x" + "1" * (limit + 1))
