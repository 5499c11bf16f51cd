import json
import math
import operator
import random
import re
import sys
from fractions import Fraction

import pytest

from oracles import quad_components
from simpson_nd import scalars
from simpson_nd.errors import IncompatibleScalars, WorkLimit
from simpson_nd.scalars import (
    PiMultiple,
    Quad,
    conj,
    eq,
    format_scalar,
    quad,
    scalar_from_json,
    scalar_to_json,
    to_float,
)


def test_rational_add():
    assert scalars.add(Fraction(1, 3), Fraction(1, 6)) == Fraction(1, 2)


def test_quad_add_componentwise():
    assert scalars.add(quad(1, 1, 3), quad(3, 1, 3)) == quad(4, 2, 3)


def test_pi_add():
    assert scalars.add(PiMultiple(Fraction(1, 8)), PiMultiple(Fraction(1, 8))) == PiMultiple(
        Fraction(1, 4)
    )


def test_quad_square():
    assert scalars.mul(quad(1, 1, 3), quad(1, 1, 3)) == quad(4, 2, 3)


def test_pi_scaling():
    assert scalars.mul(Fraction(1, 2), PiMultiple(Fraction(1, 4))) == PiMultiple(Fraction(1, 8))


def test_absorbing_zero():
    big = quad(Fraction(11, 18), Fraction(1, 458), 3893)
    product = scalars.mul(big, Fraction(0))
    assert product == Fraction(0)
    assert isinstance(product, Fraction)


def test_eq_canonicalization():
    assert eq(Fraction(2, 4), Fraction(1, 2))
    assert eq(quad(0, 0, 3893), Fraction(0))
    assert not eq(PiMultiple(Fraction(1, 4)), Fraction(1, 4))
    assert eq(PiMultiple(0), Fraction(0))
    assert not eq(quad(1, 1, 3), quad(1, 1, 3893))
    # PiMultiple's __eq__ runs first, and answers a sqrt value itself
    assert not eq(PiMultiple(1), quad(1, 1, 3)) and not eq(PiMultiple(0), quad(0, 1, 3))


def test_to_float_examples():
    a = quad(Fraction(11, 18), Fraction(-1, 458), 3893)
    assert math.isclose(to_float(a), 0.47488, abs_tol=5e-6)
    assert math.isclose(to_float(Fraction(163, 392)), 0.41582, abs_tol=5e-6)
    assert math.isclose(to_float(PiMultiple(Fraction(1, 2))), 1.5707963, abs_tol=1e-7)


def test_incompatible_radicands():
    with pytest.raises(IncompatibleScalars):
        scalars.add(quad(0, 1, 3), quad(0, 1, 3893))
    with pytest.raises(IncompatibleScalars):
        scalars.mul(quad(0, 1, 3), quad(0, 1, 3893))


def test_pi_additive_mixing():
    with pytest.raises(IncompatibleScalars):
        scalars.add(PiMultiple(1), Fraction(1))
    with pytest.raises(IncompatibleScalars):
        scalars.add(PiMultiple(1), quad(0, 1, 3))
    # zero on either side is representable
    assert scalars.add(PiMultiple(1), Fraction(0)) == PiMultiple(1)
    assert scalars.add(PiMultiple(0), Fraction(1, 2)) == Fraction(1, 2)


def test_pi_times_pi_is_loud():
    with pytest.raises(IncompatibleScalars):
        scalars.mul(PiMultiple(1), PiMultiple(0))
    with pytest.raises(IncompatibleScalars):
        scalars.mul(PiMultiple(1), quad(0, 1, 3))


def test_zero_pi_times_a_quad_is_zero_pi():
    # as Fraction * PiMultiple(0) and Quad + PiMultiple(0) already were
    zero_pi = PiMultiple(0)
    for q in (quad(1, 2, 3), quad(Fraction(11, 18), Fraction(-1, 458), 3893)):
        products = (q * zero_pi, zero_pi * q, scalars.mul(q, zero_pi), scalars.mul(zero_pi, q))
        for product in products:
            assert type(product) is PiMultiple and product == zero_pi
        for quotient in (zero_pi / q, scalars.div(zero_pi, q)):
            assert type(quotient) is PiMultiple and quotient == zero_pi
        with pytest.raises(ZeroDivisionError):
            scalars.div(q, zero_pi)
        for nonzero in (PiMultiple(1), PiMultiple(Fraction(-3, 7))):
            for x, y in ((q, nonzero), (nonzero, q)):
                with pytest.raises(IncompatibleScalars, match="pi times a sqrt value"):
                    scalars.mul(x, y)


def test_quad_constructor_validation():
    with pytest.raises(ValueError):
        Quad(1, 1, 12)  # 12 = 4*3 is not squarefree
    with pytest.raises(ValueError):
        Quad(1, 1, 1)
    with pytest.raises(ValueError):
        Quad(1, 0, 3)  # collapses; must go through quad()


def test_division():
    assert scalars.div(quad(4, 2, 3), quad(1, 1, 3)) == quad(1, 1, 3)
    assert scalars.div(PiMultiple(Fraction(1, 2)), Fraction(2)) == PiMultiple(Fraction(1, 4))
    with pytest.raises(IncompatibleScalars):
        scalars.div(Fraction(1), PiMultiple(1))
    with pytest.raises(ZeroDivisionError):
        scalars.div(Fraction(1), Fraction(0))
    # two Fractions skip the coercion and give the Fraction quotient
    assert type(scalars.div(Fraction(3, 4), Fraction(-9, 2))) is Fraction
    assert scalars.div(Fraction(3, 4), Fraction(-9, 2)) == Fraction(-1, 6)
    assert scalars.div(3, Fraction(1, 2)) == Fraction(6)


def _random_fraction(rng, span=60):
    return Fraction(rng.randint(-span, span), rng.randint(1, span))


def test_field_axioms_on_random_rationals():
    rng = random.Random(12345)
    for _ in range(10_000):
        x = _random_fraction(rng)
        y = _random_fraction(rng)
        z = _random_fraction(rng)
        assert scalars.add(scalars.add(x, y), z) == scalars.add(x, scalars.add(y, z))
        assert scalars.mul(x, scalars.add(y, z)) == scalars.add(
            scalars.mul(x, y), scalars.mul(x, z)
        )
        assert scalars.add(x, scalars.neg(x)) == 0
        if y != 0:
            assert scalars.mul(y, scalars.div(Fraction(1), y)) == 1


@pytest.mark.parametrize("d", [3, 3893])
def test_quad_norm_is_rational(d):
    rng = random.Random(d)
    for _ in range(200):
        a = _random_fraction(rng)
        b = _random_fraction(rng)
        if b == 0:
            continue
        x = quad(a, b, d)
        norm = scalars.mul(x, conj(x))
        assert isinstance(norm, Fraction)
        assert norm == a * a - b * b * d


def test_canonical_collapse_after_ops():
    # (1 + sqrt 3)(1 - sqrt 3) = -2, a pure rational
    product = scalars.mul(quad(1, 1, 3), quad(1, -1, 3))
    assert isinstance(product, Fraction) and product == -2
    total = scalars.add(quad(2, 5, 3), quad(1, -5, 3))
    assert isinstance(total, Fraction) and total == 3


def test_float_consistency_of_addition():
    rng = random.Random(99)
    for _ in range(500):
        x = _random_fraction(rng, span=1000)
        y = _random_fraction(rng, span=1000)
        exact = to_float(scalars.add(x, y))
        approx = to_float(x) + to_float(y)
        assert math.isclose(exact, approx, rel_tol=1e-12, abs_tol=1e-12)


def test_sign():
    assert scalars.sign(quad(1, 1, 3)) == 1
    assert scalars.sign(quad(-2, 1, 3)) == -1  # sqrt(3) < 2
    assert scalars.sign(quad(-1, 1, 3)) == 1  # sqrt(3) > 1
    assert scalars.sign(quad(2, -1, 3)) == 1
    assert scalars.sign(Fraction(0)) == 0
    assert scalars.sign(PiMultiple(Fraction(-1, 7))) == -1


def _random_scalar(rng):
    """A seeded Fraction, Quad over one of four radicands, or pi multiple;
    numerators and denominators run up to 10^30."""
    def fraction():
        return Fraction(rng.randint(-(10**rng.randint(1, 30)), 10**30), rng.randint(1, 10**30))

    kind = rng.randrange(3)
    if kind == 0:
        return fraction()
    if kind == 1:
        return Quad(fraction(), fraction() or 1, rng.choice((2, 3, 5, 3893)))
    return PiMultiple(fraction())


def test_json_round_trip_bit_exact():
    values = [
        Fraction(1, 3),
        Fraction(-(10**25), 3**40),
        quad(Fraction(11, 18), Fraction(-1, 458), 3893),
        PiMultiple(Fraction(1, 8)),
        PiMultiple(0),
        Fraction(0),
    ]
    rng = random.Random(707)
    values += [_random_scalar(rng) for _ in range(200)]
    for value in values:
        encoded = json.dumps(scalar_to_json(value))
        decoded = scalar_from_json(json.loads(encoded))
        assert type(decoded) is type(value)
        assert decoded == value


def test_json_uses_decimal_strings():
    enc = scalar_to_json(Fraction(2**80, 3))
    assert enc == {"rat": [str(2**80), "3"]}


def test_format_scalar():
    assert format_scalar(Fraction(3, 8)) == "3/8"
    assert format_scalar(quad(Fraction(11, 18), Fraction(-1, 458), 3893)) == (
        "11/18 - 1/458*sqrt(3893)"
    )
    assert format_scalar(PiMultiple(Fraction(1, 2))) == "pi/2"
    assert format_scalar(PiMultiple(Fraction(-3, 4))) == "-3*pi/4"
    assert format_scalar(PiMultiple(0)) == "0"
    assert format_scalar(quad(0, 1, 3)) == "sqrt(3)"
    assert str(quad(0, 1, 3)) == "sqrt(3)" and str(PiMultiple(Fraction(1, 2))) == "pi/2"


def test_pi_ratio_is_rational():
    # the pi factors cancel exactly; a pi-free numerator stays an error
    assert scalars.div(PiMultiple(Fraction(-1, 4)), PiMultiple(Fraction(-1, 2))) == Fraction(1, 2)
    assert isinstance(scalars.div(PiMultiple(1), PiMultiple(3)), Fraction)
    with pytest.raises(IncompatibleScalars):
        scalars.div(Fraction(1), PiMultiple(1))


def test_pow_scalar_validation():
    with pytest.raises(ValueError):
        scalars.pow_scalar(Fraction(2), -1)
    assert scalars.pow_scalar(quad(1, 1, 3), 0) == Fraction(1)
    assert scalars.pow_scalar(quad(1, 1, 3), 3) == quad(10, 6, 3)


def test_order_comparisons():
    assert scalars.sign(scalars.sub(Fraction(1, 2), Fraction(1, 3))) > 0
    assert scalars.sign(scalars.sub(Fraction(2), quad(0, 1, 3))) >= 0  # sqrt(3) <= 2
    assert not scalars.sign(scalars.sub(Fraction(1), quad(0, 1, 3))) > 0


def test_radicand_checked_once_where_values_enter(monkeypatch):
    from simpson_nd.exactness import exactness_degree, monomials_up_to
    from simpson_nd.regions import hexagon_paper
    from simpson_nd.rules import cr5

    rule = cr5()
    hexagon = hexagon_paper()
    checks = []
    real = scalars._squarefree
    monkeypatch.setattr(scalars, "_squarefree", lambda d: checks.append(d) or real(d))
    assert exactness_degree(rule, 4).certified_degree == 2
    for alpha in monomials_up_to(2, 6):
        hexagon.moment(alpha)
    assert checks == []
    quad(1, 1, 3893)
    assert checks == [3893]


def test_entry_points_still_validate_the_radicand():
    with pytest.raises(ValueError):
        Quad(1, 1, 12)
    with pytest.raises(ValueError):
        quad(1, 1, 12)
    with pytest.raises(ValueError):
        scalar_from_json({"quad": {"a": ["1", "1"], "b": ["1", "1"], "rad": 12}})


def test_radicand_over_the_limit_is_refused_before_the_squarefree_check(monkeypatch):
    monkeypatch.setattr(scalars, "_squarefree", lambda d: pytest.fail(f"checked {d}"))
    big = scalars.MAX_RADICAND + 1
    with pytest.raises(ValueError, match="exceeds the limit"):
        Quad(1, 1, big)
    with pytest.raises(ValueError, match="exceeds the limit"):
        quad(1, 1, big)
    with pytest.raises(ValueError, match="exceeds the limit"):
        scalar_from_json({"quad": {"a": ["1", "1"], "b": ["1", "1"], "rad": str(big)}})


def test_rational_fast_path_rejects_bool():
    with pytest.raises(TypeError):
        scalars.add(True, Fraction(1))
    with pytest.raises(TypeError):
        scalars.mul(True, Fraction(1))
    with pytest.raises(TypeError):
        scalars.sub(Fraction(1), False)
    with pytest.raises(TypeError):
        scalars.is_zero(False)


def test_arithmetic_results_collapse_to_fraction():
    x = quad(2, 3, 7)
    conjugate = scalars.conj(x)
    assert conjugate == quad(2, -3, 7)
    assert type(scalars.neg(x)) is Quad and scalars.neg(x) == quad(-2, -3, 7)
    for value in (
        scalars.mul(x, conjugate),
        scalars.div(x, x),
        scalars.add(x, scalars.neg(x)),
        scalars.add(quad(1, 1, 7), quad(1, -1, 7)),
        scalars.mul(x, Fraction(0)),
        scalars.div(scalars.mul(x, conjugate), Fraction(5)),
    ):
        assert type(value) is Fraction, value
    assert scalars.add(x, Fraction(1)) == quad(3, 3, 7)


_OPERATORS = {
    "+": (operator.add, scalars.add),
    "-": (operator.sub, scalars.sub),
    "*": (operator.mul, scalars.mul),
    "/": (operator.truediv, scalars.div),
}

_INCOMPATIBLE_MESSAGES = {
    "cannot add values over sqrt(3) and sqrt(3893)",
    "cannot add values over sqrt(3893) and sqrt(3)",
    "cannot multiply values over sqrt(3) and sqrt(3893)",
    "cannot multiply values over sqrt(3893) and sqrt(3)",
    "cannot add a pi multiple to a sqrt value",
    "cannot add a nonzero rational to a pi multiple",
    "pi times pi is outside the scalar tower",
    "pi times a sqrt value is not representable",
    "cannot divide a pi-free value by a pi multiple",
}


def _mixed_operands(rng):
    operands = [0, 3, -2, Fraction(0), PiMultiple(0)]
    for _ in range(3):
        operands.append(rng.randint(-9, 9))
        operands.append(_random_fraction(rng, 20))
        operands.append(PiMultiple(_random_fraction(rng, 20)))
        for d in (3, 3893):
            b = _random_fraction(rng, 20) or Fraction(1)
            operands.append(quad(_random_fraction(rng, 20), b, d))
    for d in (3, 3893):
        operands.append(quad(0, Fraction(1, 7), d))
    return operands


def _outcome(fn, x, y):
    try:
        return fn(x, y)
    except (ArithmeticError, IncompatibleScalars, TypeError) as exc:
        return exc


def _components(x):
    return (x.a, x.b) if isinstance(x, Quad) else (Fraction(x), Fraction(0))


def test_operators_and_scalar_functions_agree_on_mixed_operands():
    """Every ordered pair of int, Fraction, Quad (d = 3 and 3893) and
    PiMultiple (zero included), under + - * /: the operator and the
    ``scalars`` function give equal values of one type or the same
    exception.  Pairs of two ints are left out: there ``x op y`` is Python's
    own int arithmetic (``1 / 2`` is a float)."""
    operands = _mixed_operands(random.Random(20261018))
    seen = set()
    for x in operands:
        for y in operands:
            if type(x) is int and type(y) is int:
                continue
            for op, (infix, function) in _OPERATORS.items():
                got, want = _outcome(infix, x, y), _outcome(function, x, y)
                case = (x, op, y)
                if op == "/" and scalars.is_zero(y):
                    assert type(want) is type(got) is ZeroDivisionError, (case, got, want)
                if isinstance(want, Exception):
                    assert type(got) is type(want), (case, got, want)
                    seen.add(type(want))
                    if isinstance(want, IncompatibleScalars):
                        assert str(want) in _INCOMPATIBLE_MESSAGES, case
                        assert str(got) == str(want), case
                    continue
                assert type(got) is type(want) and got == want, (case, got, want)
                seen.add(type(want))
                quads = [v for v in (x, y) if isinstance(v, Quad)]
                if quads and not any(isinstance(v, PiMultiple) for v in (x, y)):
                    a, b = quad_components(op, _components(x), _components(y), quads[0].d)
                    assert _components(want) == (a, b), case
                    assert isinstance(want, Quad) == (b != 0), case
                    assert not isinstance(want, Quad) or want.d == quads[0].d, case
    assert seen >= {Fraction, Quad, PiMultiple, ZeroDivisionError, IncompatibleScalars}


def test_bool_and_float_operands_are_refused_by_operators_and_functions():
    rng = random.Random(1018)
    exact = [PiMultiple(0), PiMultiple(_random_fraction(rng)), quad(1, 2, 3)]
    exact.append(quad(_random_fraction(rng), _random_fraction(rng) or 1, 3893))
    for bad in (True, False, 1.5, 0.0):
        for other in exact + [Fraction(2), 7]:
            for infix, function in _OPERATORS.values():
                for x, y in ((bad, other), (other, bad)):
                    with pytest.raises(TypeError):
                        function(x, y)
                    if isinstance(other, (Quad, PiMultiple)):
                        with pytest.raises(TypeError):
                            infix(x, y)
        with pytest.raises(TypeError):
            scalars.neg(bad)


# Refusals of scalar constructors and decoders: (call, error, message)
REFUSALS = {
    "malformed encoding": (
        lambda: scalar_from_json([1]), ValueError, r"^malformed scalar encoding: \[1\]$",
    ),
    "two tags": (
        lambda: scalar_from_json({"rat": ["1", "1"], "pi": ["1", "1"]}), ValueError,
        r"^malformed scalar encoding: \{'rat': \['1', '1'\], \.\.\.$",
    ),
    "unknown tag": (
        lambda: scalar_from_json({"sqrt": ["2", "1"]}), ValueError,
        r"^unknown scalar tag in \{'sqrt': \['2', '1'\]\}$",
    ),
    "zero denominator": (
        lambda: scalar_from_json({"rat": ["1", "0"]}), ValueError,
        r"^zero denominator in \['1', '0'\]$",
    ),
    "float integer": (
        lambda: scalars.int_from_json(1.5), ValueError,
        r"^expected an integer or a decimal integer string, got 1\.5$",
    ),
    "bool integer": (
        lambda: scalars.int_from_json(True), ValueError,
        r"^expected an integer or a decimal integer string, got True$",
    ),
    "decimal string integer": (
        lambda: scalars.int_from_json("1.5"), ValueError,
        r"^expected an integer or a decimal integer string, got '1\.5'$",
    ),
    "radicand with a square factor": (
        lambda: Quad(0, 1, 18), ValueError, r"^radicand must be squarefree, got 18$",
    ),
    "a sqrt value set after it is made": (
        lambda: setattr(quad(1, 1, 3), "b", 2), AttributeError, r"^Quad values are immutable$",
    ),
    "a pi multiple set after it is made": (
        lambda: setattr(PiMultiple(1), "coefficient", 2), AttributeError,
        r"^PiMultiple values are immutable$",
    ),
    "a sqrt value's part deleted": (
        lambda: delattr(Quad(1, 2, 3), "a"), AttributeError, r"^Quad values are immutable$",
    ),
    "a pi multiple's coefficient deleted": (
        lambda: delattr(PiMultiple(3), "coefficient"), AttributeError,
        r"^PiMultiple values are immutable$",
    ),
}


@pytest.mark.parametrize("case", sorted(REFUSALS))
def test_refusals(case):
    call, error, message = REFUSALS[case]
    with pytest.raises(error, match=message):
        call()


def test_a_zero_pi_multiple_hashes_as_the_zero_it_equals():
    assert PiMultiple(0) == 0 and hash(PiMultiple(0)) == hash(0) == hash(Fraction(0))
    assert len({PiMultiple(0), Fraction(0)}) == 1
    assert hash(PiMultiple(1)) != hash(Fraction(1))


def test_integers_are_decoded_up_to_the_digit_limit():
    limit = scalars.MAX_RATIONAL_DIGITS
    for value in (10**limit - 1, -(10**limit - 1)):
        assert scalars.int_from_json(value) == value
        assert scalars.int_from_json(str(value)) == value
    for value in (10**limit, -(10**limit)):
        with pytest.raises(WorkLimit, match=f"^an integer has more than {limit} digits$"):
            scalars.int_from_json(value)
        with pytest.raises(WorkLimit, match=rf"^'-?10+\.\.\.' has more than {limit} digits$"):
            scalars.int_from_json(str(value))
    # leading zeros are digits the text spells
    assert scalars.int_from_json("0" * limit) == 0
    with pytest.raises(WorkLimit):
        scalars.int_from_json("0" * (limit + 1))


def test_decimal_refuses_an_integer_past_the_printing_limit():
    # str() refuses more than sys.get_int_max_str_digits() digits (0: no
    # limit) with the interpreter's own message; decimal refuses them first
    saved = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(640)
    try:
        for n in (0, -7, 10**640 - 1, -(10**640 - 1)):
            assert scalars.decimal(n) == str(n)
        big = Fraction(10**640, 3)
        for refused in (
            lambda: scalars.decimal(10**640),
            lambda: scalars.decimal(-(10**640)),
            lambda: scalars.format_scalar(big),
            lambda: scalars.format_scalar(1 / big),
            lambda: scalars.format_scalar(PiMultiple(big)),
            lambda: scalars.scalar_to_json(big),
        ):
            with pytest.raises(WorkLimit, match="^an exact result has more than 640 digits, too"):
                refused()
        sys.set_int_max_str_digits(0)
        assert scalars.decimal(-(10**5000)) == "-1" + "0" * 5000
    finally:
        sys.set_int_max_str_digits(saved)


@pytest.mark.parametrize("value, shown", [
    (Fraction(10**400 - 1, 2), "99999999999999999999..."),  # int / int raises
    (Fraction(-(10**309)), "-1000000000000000000..."),
    (quad(1, 10**400, 3), "1 + 1000000000000000..."),  # float(b) raises
    (quad(1, 10**308, 3893), "1 + 1000000000000000..."),  # float(b) * sqrt(d) is inf
    (PiMultiple(10**308), "10000000000000000000..."),  # float(c) * pi is inf
], ids=["rational", "negative", "quad-part", "quad-product", "pi"])
def test_to_float_refuses_a_value_past_the_float_range(value, shown):
    with pytest.raises(OverflowError, match=f"^'{re.escape(shown)}' is too large for a float$"):
        to_float(value)


def test_to_float_keeps_values_within_the_float_range():
    assert to_float(Fraction(10**400, 10**399)) == 10.0  # a huge numerator and denominator
    assert to_float(Fraction(-(10**308))) == -1e308
    assert to_float(quad(0, 10**300, 3)) == 10.0**300 * math.sqrt(3)
    assert to_float(PiMultiple(Fraction(1, 10**400))) == 0.0


def test_shown_cuts_outside_input_past_24_characters():
    assert scalars.shown("x" * 24) == "x" * 24
    assert scalars.shown("x" * 25) == "x" * 20 + "..."
    assert scalars.shown(repr([1] * 9)) == "[1, 1, 1, 1, 1, 1, 1..."
