import math
import random
from fractions import Fraction

import pytest

from simpson_nd import scalars
from simpson_nd.errors import ExprSyntaxError, NotPolynomial, WorkLimit
from simpson_nd.expr import (
    FUNCTIONS,
    MAX_POLY_DEGREE,
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

from oracles import float_rule_sum, walk_eval_float


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


@pytest.mark.parametrize(
    "source, message",
    [
        ("1^2000000", "exponent 2000000 is above the limit"),
        ("(x+1)^1100", "exponent 1100 is above the limit"),
        (f"(x+y+1)^{MAX_POLY_DEGREE + 1}", f"needs degree {MAX_POLY_DEGREE + 1}"),
        # C(6 + 12, 6) = 18564 monomials of degree <= 12 in six variables
        ("(x1+x2+x3+x4+x5+x6+1)^12", "may give 18564 terms"),
    ],
)
def test_lowering_limits_refuse_a_power_before_multiplying(monkeypatch, source, message):
    def refuse(*args):
        raise AssertionError("a polynomial was multiplied past the limits")

    monkeypatch.setattr(MonomialPoly, "__mul__", refuse)
    monkeypatch.setattr(MonomialPoly, "__pow__", refuse)
    with pytest.raises(WorkLimit, match=message):
        to_monomial_poly(parse(source))


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


def test_eval_float():
    f = as_function(parse("exp(x+y)"))
    assert math.isclose(f(0.25, 0.5), math.exp(0.75), rel_tol=1e-15)
    assert eval_float(parse("-2^2"), ()) == -4.0
    assert eval_float(parse("sqrt(4)"), ()) == 2.0
    with pytest.raises(ValueError):
        eval_float(parse("z"), (1.0, 2.0))


def _random_float_expr(rng, depth, names):
    if depth == 0 or rng.random() < 0.25:
        if rng.random() < 0.5:
            return Num(Fraction(rng.choice([0, 1, 2, 3, 7, 25, 750]), rng.choice([1, 2, 4, 10, 3])))
        name = rng.choice(names)
        return Var(["x", "y", "z"].index(name), name)
    kind = rng.randint(0, 7)
    if kind == 0:
        return Neg(_random_float_expr(rng, depth - 1, names))
    if kind == 1:
        return Call(rng.choice(sorted(FUNCTIONS)), _random_float_expr(rng, depth - 1, names))
    op = rng.choice(["+", "-", "*", "/", "^"])
    return BinOp(
        op, _random_float_expr(rng, depth - 1, names), _random_float_expr(rng, depth - 1, names)
    )


def _post_order(e):
    if isinstance(e, (Neg, Call)):
        yield from _post_order(e.arg)
    elif isinstance(e, BinOp):
        yield from _post_order(e.left)
        yield from _post_order(e.right)
    yield e


def _expected(tree, point):
    """The walker's value, or the type of the first exception it raises,
    except that the first power to go complex, in evaluation order, must
    raise ValueError.  Every subtree is walked in the order the evaluator
    meets it, so the first event found is the evaluator's first event."""
    for node in _post_order(tree):
        try:
            value = walk_eval_float(node, point)
        except Exception as exc:  # every exception type the walker raises is compared
            return type(exc)
        if isinstance(value, complex):
            return ValueError
    return value


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
        tree = _random_float_expr(rng, rng.randint(1, 5), names)
        f = as_function(tree)
        for _ in range(3):
            point = tuple(
                rng.choice(coords) if rng.random() < 0.3 else rng.uniform(-4.0, 4.0)
                for _ in range(rng.randint(1, 3))
            )
            want = _expected(tree, point)
            for got in (_outcome(lambda: f(*point)), _outcome(lambda: eval_float(tree, point))):
                if isinstance(want, float):
                    assert type(got) is float and got.hex() == want.hex(), (tree, point)
                else:
                    assert got is want, (tree, point, got, want)
            seen.add(want if isinstance(want, type) else float)
    # the seeded trees reach values and every exception the walker can raise
    assert seen >= {float, ValueError, ZeroDivisionError, OverflowError}


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
