"""Exact scalar arithmetic: rationals, quadratic irrationals a + b*sqrt(d),
and rational multiples of pi.

Rationals are plain ``fractions.Fraction`` values (always canonical).
``Quad`` and ``PiMultiple`` implement their own operators, as ``Fraction``
does, and return ``NotImplemented`` for an operand they do not know, so
mixed expressions such as ``Fraction(1, 2) * Quad(...) + 0`` work directly
and ``add``/``sub``/``mul``/``div`` only coerce their operands first.  A
``Quad`` whose irrational component is zero collapses to a ``Fraction`` as
soon as it is produced, so a genuine ``Quad`` value is always irrational.

The end of the module holds the package's one integer view over Z or
Z[sqrt d], on which polygons, node tables and the elimination compute.
"""

from __future__ import annotations

import itertools
import math
import re
import sys
from fractions import Fraction
from typing import Union

from .errors import IncompatibleScalars, WorkLimit
from .record import _immutable

Rational = Fraction

Scalar = Union[Fraction, "Quad", "PiMultiple"]

_RationalLike = (int, Fraction)


# Most digits an integer or rational from outside may spell, counted before
# int() or Fraction() reads it (int() refuses more than 4,300 digits with a
# message that names no input): each integer of a region file, each number
# and variable index of an expression, and a command-line rational, whose
# mantissa's digits and the size of its exponent are counted.  A family
# residual has at most about 9 times its values' digits, so at the limit the
# largest one, simplex3 --point with nine values over distinct 399-digit
# denominators, has 3,583 digits, under the 4,300 that printing an int
# allows; that request takes 15 ms on one core of a 2-vCPU Xeon.  Unchecked,
# family square --param 1e-100000 took 5.1 s and 1e-400000 48 s, only to
# fail to print.
MAX_RATIONAL_DIGITS = 400


def shown(text: str) -> str:
    """Outside input as an error message quotes it: the text itself up to 24
    characters, else its first 20 and "...".  A value that is not a string
    is shown by its repr, ``shown(repr(value))``; a string is cut first and
    then put in quotes, ``repr(shown(text))``, so that its quotes close."""
    return text if len(text) <= 24 else text[:20] + "..."


# Largest accepted radicand.  The squarefree check is trial division,
# O(sqrt d): about 0.1 s at this limit, and it grows tenfold for every two
# more digits, so larger radicands are refused before the check starts.
MAX_RADICAND = 10**12


def _squarefree(d: int) -> bool:
    if d % 4 == 0:
        return False
    p = 3
    while p * p <= d:
        if d % (p * p) == 0:
            return False
        p += 2
    return True


def _operand(x):
    """An exact scalar as is and an int as a Fraction; None for anything else,
    bool and float included, so that an operator returns NotImplemented."""
    if isinstance(x, (Fraction, _Exact)):
        return x
    return Fraction(x) if isinstance(x, int) and not isinstance(x, bool) else None


def as_scalar(x) -> Scalar:
    """Coerce an int to Fraction; pass exact scalars through; reject bools and floats."""
    if (value := _operand(x)) is None:
        raise TypeError(f"not an exact scalar: {x!r}")
    return value


def as_points(points) -> tuple:
    """Each point a tuple of ``as_scalar`` values.  Points that are
    tuples of exact scalars already, as region vertices are, come back as
    they are, after one pass over the types."""
    points = tuple(points)
    if set(map(type, points)) <= {tuple} and set(
            map(type, itertools.chain.from_iterable(points))) <= {Fraction, Quad, PiMultiple}:
        return points
    return tuple(tuple(map(as_scalar, p)) for p in points)


def quad(a, b, d: int) -> Scalar:
    """Build a + b*sqrt(d), collapsing to a plain Fraction when b == 0."""
    a = Fraction(a)
    b = Fraction(b)
    if b == 0:
        return a
    return Quad(a, b, d)


def _make_quad(a: Fraction, b: Fraction, d: int) -> Scalar:
    """a + b*sqrt(d) from Fractions and a radicand some Quad already carries,
    collapsing to a when b == 0.

    Arithmetic results come through here without the O(sqrt d) squarefree
    check: a radicand is validated once, where a value enters through
    ``Quad()``, ``quad()`` or ``scalar_from_json``, and every result built
    from it inherits that check.
    """
    if not b:
        return a
    value = object.__new__(Quad)
    object.__setattr__(value, "a", a)
    object.__setattr__(value, "b", b)
    object.__setattr__(value, "d", d)
    return value


class _Exact:
    """Immutability, printing and subtraction as addition of the negation,
    shared by Quad and PiMultiple.  Each implements its other operators
    itself, as Fraction does, and Quad decides every mixed Quad/PiMultiple case."""

    __slots__ = ()
    __setattr__ = __delattr__ = _immutable

    def __str__(self):
        return format_scalar(self)

    def __sub__(self, other):
        if (other := _operand(other)) is None:
            return NotImplemented
        return self + -other

    def __rsub__(self, other):
        if (other := _operand(other)) is None:
            return NotImplemented
        return -self + other


class Quad(_Exact):
    """A quadratic irrational a + b*sqrt(d) with rational a, b and b != 0.

    d must be a squarefree integer with 2 <= d <= MAX_RADICAND.  Construct
    through :func:`quad` when b may be zero.
    """

    __slots__ = ("a", "b", "d")

    def __init__(self, a, b, d: int):
        a = Fraction(a)
        b = Fraction(b)
        if not isinstance(d, int) or d < 2:
            raise ValueError(f"radicand must be an integer >= 2, got {d!r}")
        if d > MAX_RADICAND:
            raise ValueError(f"radicand {d} exceeds the limit {MAX_RADICAND}")
        if not _squarefree(d):
            raise ValueError(f"radicand must be squarefree, got {d}")
        if b == 0:
            raise ValueError("use quad() for values with a zero sqrt component")
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "b", b)
        object.__setattr__(self, "d", d)

    def __repr__(self):
        return f"Quad({self.a!r}, {self.b!r}, {self.d})"

    def __eq__(self, other):
        if isinstance(other, Quad):
            return self.d == other.d and self.a == other.a and self.b == other.b
        # a genuine Quad is irrational, never equal to a rational or pi value
        return False

    def __hash__(self):
        return hash(("quad", self.a, self.b, self.d))

    def __add__(self, other):
        if (other := _operand(other)) is None:
            return NotImplemented
        if isinstance(other, Quad):
            if other.d != self.d:
                raise IncompatibleScalars(
                    f"cannot add values over sqrt({self.d}) and sqrt({other.d})"
                )
            return _make_quad(self.a + other.a, self.b + other.b, self.d)
        if isinstance(other, PiMultiple):
            if other.coefficient == 0:
                return self
            raise IncompatibleScalars("cannot add a pi multiple to a sqrt value")
        return _make_quad(self.a + other, self.b, self.d)

    __radd__ = __add__

    def __neg__(self):
        return _make_quad(-self.a, -self.b, self.d)

    def __mul__(self, other):
        if (other := _operand(other)) is None:
            return NotImplemented
        if isinstance(other, Quad):
            if other.d != self.d:
                raise IncompatibleScalars(
                    f"cannot multiply values over sqrt({self.d}) and sqrt({other.d})"
                )
            return _make_quad(*view_times((self.a, self.b), (other.a, other.b), self.d), self.d)
        if isinstance(other, PiMultiple):
            if other.coefficient == 0:
                return other
            raise IncompatibleScalars("pi times a sqrt value is not representable")
        return _make_quad(self.a * other, self.b * other, self.d)

    __rmul__ = __mul__

    def _inverse(self) -> "Quad":
        # 1/(a + b sqrt d) = (a - b sqrt d) / (a^2 - b^2 d), rational denominator
        norm = self.a * self.a - self.b * self.b * self.d
        return _make_quad(self.a / norm, -self.b / norm, self.d)

    def __truediv__(self, other):
        if (other := _operand(other)) is None:
            return NotImplemented
        if isinstance(other, Quad):
            return self * other._inverse()
        if isinstance(other, PiMultiple):
            if other.coefficient == 0:
                raise ZeroDivisionError("scalar division by zero")
            raise IncompatibleScalars("cannot divide a pi-free value by a pi multiple")
        return _make_quad(self.a / other, self.b / other, self.d)

    def __rtruediv__(self, other):
        # x / q = (1/q) * x, and __mul__ returns NotImplemented for an unknown x
        return self._inverse().__mul__(other)

    def __pow__(self, k: int):
        return pow_scalar(self, k)

    def conjugate(self) -> "Quad":
        return _make_quad(self.a, -self.b, self.d)


class PiMultiple(_Exact):
    """A rational multiple of pi.  The coefficient may be zero; a zero
    PiMultiple compares equal to 0 but keeps its tag so pi-valued tables
    (disc moments) stay uniformly typed.  A Quad operand gets NotImplemented,
    so that Quad's reflected method decides."""

    __slots__ = ("coefficient",)

    def __init__(self, coefficient):
        if type(coefficient) is Quad:
            raise IncompatibleScalars("pi times a sqrt value is not representable")
        object.__setattr__(self, "coefficient", Fraction(coefficient))

    def __repr__(self):
        return f"PiMultiple({self.coefficient!r})"

    def __eq__(self, other):
        if isinstance(other, PiMultiple):
            return self.coefficient == other.coefficient
        if isinstance(other, _RationalLike):
            return self.coefficient == 0 and other == 0
        return False

    def __hash__(self):
        if self.coefficient == 0:
            return hash(Fraction(0))
        return hash(("pi", self.coefficient))

    def __add__(self, other):
        if (other := _operand(other)) is None or isinstance(other, Quad):
            return NotImplemented
        if isinstance(other, PiMultiple):
            return PiMultiple(self.coefficient + other.coefficient)
        if other != 0 and self.coefficient != 0:
            raise IncompatibleScalars("cannot add a nonzero rational to a pi multiple")
        return self if other == 0 else other

    __radd__ = __add__

    def __neg__(self):
        return PiMultiple(-self.coefficient)

    def __mul__(self, other):
        if (other := _operand(other)) is None or isinstance(other, Quad):
            return NotImplemented
        if isinstance(other, PiMultiple):
            raise IncompatibleScalars("pi times pi is outside the scalar tower")
        return PiMultiple(self.coefficient * other)

    __rmul__ = __mul__

    def __truediv__(self, other):
        if (other := _operand(other)) is None or isinstance(other, Quad):
            return NotImplemented
        if isinstance(other, PiMultiple):
            # only another pi multiple cancels the pi
            return self.coefficient / other.coefficient
        return PiMultiple(self.coefficient / other)

    def __rtruediv__(self, other):
        if (other := _operand(other)) is None or isinstance(other, Quad):
            return NotImplemented
        if self.coefficient == 0:
            raise ZeroDivisionError("scalar division by zero")
        raise IncompatibleScalars("cannot divide a pi-free value by a pi multiple")


def conj(x) -> Scalar:
    """Quadratic conjugate: a + b*sqrt(d) -> a - b*sqrt(d); identity otherwise."""
    x = as_scalar(x)
    if isinstance(x, Quad):
        return x.conjugate()
    return x


# The scalar functions coerce through as_scalar, then apply the operator;
# add, sub, mul and div skip the coercion for two plain Fractions.


def add(x, y) -> Scalar:
    if type(x) is Fraction and type(y) is Fraction:
        return x + y
    return as_scalar(x) + as_scalar(y)


def neg(x) -> Scalar:
    return -as_scalar(x)


def sub(x, y) -> Scalar:
    if type(x) is Fraction and type(y) is Fraction:
        return x - y
    return as_scalar(x) - as_scalar(y)


def mul(x, y) -> Scalar:
    if type(x) is Fraction and type(y) is Fraction:
        return x * y
    return as_scalar(x) * as_scalar(y)


def div(x, y) -> Scalar:
    if type(x) is Fraction and type(y) is Fraction:
        return x / y
    return as_scalar(x) / as_scalar(y)


def pow_scalar(x, k: int) -> Scalar:
    if not isinstance(k, int) or k < 0:
        raise ValueError("exponent must be a non-negative integer")
    x = as_scalar(x)
    result: Scalar = Fraction(1)
    for _ in range(k):
        result = mul(result, x)
    return result


def eq(x, y) -> bool:
    """Mathematical equality; incomparable tags simply compare unequal."""
    x = as_scalar(x)
    y = as_scalar(y)
    return x == y


def is_zero(x) -> bool:
    if type(x) is Fraction:
        return not x
    x = as_scalar(x)
    if isinstance(x, Fraction):
        return x == 0
    if isinstance(x, PiMultiple):
        return x.coefficient == 0
    return False


def sign(x) -> int:
    """Exact sign (-1, 0, +1); a + b*sqrt(d) by ``view_sign`` of (a, b)."""
    if type(x) is not Fraction:
        x = as_scalar(x)
    if isinstance(x, Fraction):
        # the denominator is positive
        return (x.numerator > 0) - (x.numerator < 0)
    if isinstance(x, PiMultiple):
        c = x.coefficient
        return (c > 0) - (c < 0)
    return view_sign((x.a, x.b), x.d)


def to_float(x) -> float:
    """The float nearest a rational, and float arithmetic on the parts of
    a + b*sqrt(d) and c*pi.  OverflowError, quoting the exact value, when
    the value or a part lies past the float range."""
    x = as_scalar(x)
    try:
        if isinstance(x, Fraction):
            return x.numerator / x.denominator
        if isinstance(x, Quad):
            value = float(x.a) + float(x.b) * math.sqrt(x.d)
        else:
            value = float(x.coefficient) * math.pi
    except OverflowError:
        value = math.inf
    if math.isinf(value):
        raise OverflowError(f"{shown(format_scalar(x))!r} is too large for a float")
    return value


# The integer view.  Polygon geometry, node sums and elimination run on
# integers: values over one common denominator D > 0, so a rational x
# becomes the int x*D and, over Q(sqrt d), a + b*sqrt(d) becomes the int
# pair (a*D, b*D), meaning (A + B*sqrt(d))/D, the common-denominator form
# of Cohen, A Course in Computational Algebraic Number Theory (GTM 138),
# 4.2.  Ring expressions in the values stay in the view, scaling by D > 0
# changes no sign, and a result becomes a scalar once, through
# ``from_view``.  Each view function takes the radicand d, None for ints.


def radicand(values, verb: str) -> int | None:
    """The one radicand of the Quad values, None when every value is rational.

    A second radicand or a pi multiple raises IncompatibleScalars, whose
    message says what could not be done ("cannot sum values over ...").
    An int passes; anything else raises TypeError, as in ``as_scalar``."""
    if set(map(type, values)) <= {Fraction}:
        return None
    d = None
    for x in values:
        if type(x) is Quad:
            if d is None:
                d = x.d
            elif x.d != d:
                raise IncompatibleScalars(
                    f"cannot {verb} values over sqrt({d}) and sqrt({x.d}) together"
                )
        elif type(x) is PiMultiple:
            raise IncompatibleScalars(f"cannot {verb} the pi multiple {x!r} with values free of pi")
        elif type(x) is not Fraction:
            as_scalar(x)
    return d


def integer_view(values, d: int | None = None) -> tuple[int, list]:
    """(D, view) for exact values over the radicand d, as ``radicand`` finds it.

    D > 0 is the lcm of every denominator, a Quad's .a and .b included, and
    the view holds each value times D: an int when d is None, else an
    (A, B) int pair meaning A + B*sqrt(d), a rational value as (A, 0)."""
    if d is None:
        dens = [x.denominator for x in values]
        den = math.lcm(*dens)
        return den, [x.numerator * (den // q) for x, q in zip(values, dens)]
    # the rational parts a and b of every value, on one common denominator
    parts = [(x.a, x.b) if type(x) is Quad else (x, 0) for x in values]
    den, flat = integer_view([c for part in parts for c in part])
    return den, list(zip(flat[::2], flat[1::2]))


def view_times(u, v, d):
    """Product of two view values."""
    if d is None:
        return u * v
    a, b = u
    e, f = v
    return (a * e + b * f * d, a * f + b * e)


def view_plus(u, v, d):
    if d is None:
        return u + v
    return (u[0] + v[0], u[1] + v[1])


def view_minus(u, v, d):
    if d is None:
        return u - v
    return (u[0] - v[0], u[1] - v[1])


def view_sum(values, d):
    """The sum of a list of view values."""
    if d is None:
        return sum(values)
    return sum(a for a, _ in values), sum(b for _, b in values)


def view_sign(u, d) -> int:
    """Sign of a view value.  For A + B*sqrt(d) the mixed-sign case is
    settled by comparing A^2 with B^2 d, which never ties for squarefree d.
    ``sign`` passes the Fraction pair of a Quad."""
    if d is None:
        return (u > 0) - (u < 0)
    a, b = u
    sa = (a > 0) - (a < 0)
    sb = (b > 0) - (b < 0)
    if sa == sb or sa == 0:
        return sb
    if sb == 0:
        return sa
    return sa if a * a > b * b * d else sb


_ZERO = Fraction(0)


def from_view(x, q, d) -> Scalar:
    """The scalar x / q, for a view value x and an int or view value q != 0."""
    if d is None:
        return Fraction(x, q) if x else _ZERO
    a, b = x
    if not (a or b):
        return _ZERO
    if type(q) is int:
        return _make_quad(Fraction(a, q), Fraction(b, q), d)
    # 1/(qa + qb sqrt d) = (qa - qb sqrt d) / (qa^2 - qb^2 d), an integer norm
    qa, qb = q
    norm = qa * qa - qb * qb * d
    return _make_quad(Fraction(a * qa - b * qb * d, norm), Fraction(b * qa - a * qb, norm), d)


def decimal(n: int) -> str:
    """str(n), or WorkLimit where str() would refuse n: an input within
    MAX_RATIONAL_DIGITS can still give a result past the interpreter's
    sys.get_int_max_str_digits() (0 means none).  More than that many
    digits means |n| >= 10^limit, which takes over 3 * limit bits, so
    bit_length() keeps the exact test off every smaller n."""
    limit = sys.get_int_max_str_digits()
    if limit and n.bit_length() > 3 * limit and abs(n) >= 10**limit:
        raise WorkLimit(f"an exact result has more than {limit} digits, too many to print")
    return str(n)


def _frac_pair(f: Fraction) -> list:
    # integers as decimal strings: arbitrary precision survives any JSON reader
    return [decimal(f.numerator), decimal(f.denominator)]


_INTEGER = re.compile(r"-?[0-9]+")


def int_from_json(value) -> int:
    """Decode a JSON integer: an int (not a bool) or a decimal integer string,
    of at most MAX_RATIONAL_DIGITS digits.  ``json.load`` hands it the text
    of every JSON integer as ``parse_int``."""
    if type(value) is int:
        if abs(value) >= 10**MAX_RATIONAL_DIGITS:
            raise WorkLimit(f"an integer has more than {MAX_RATIONAL_DIGITS} digits")
        return value
    if isinstance(value, str) and _INTEGER.fullmatch(value):
        if len(value.lstrip("-")) > MAX_RATIONAL_DIGITS:
            raise WorkLimit(f"{shown(value)!r} has more than {MAX_RATIONAL_DIGITS} digits")
        return int(value)
    raise ValueError(f"expected an integer or a decimal integer string, got {shown(repr(value))}")


def _pair_frac(pair) -> Fraction:
    if not isinstance(pair, list) or len(pair) != 2:
        raise ValueError(f"expected a [numerator, denominator] pair, got {shown(repr(pair))}")
    num, den = int_from_json(pair[0]), int_from_json(pair[1])
    if den == 0:
        raise ValueError(f"zero denominator in {shown(repr(pair))}")
    return Fraction(num, den)


def scalar_to_json(x) -> dict:
    x = as_scalar(x)
    if isinstance(x, Fraction):
        return {"rat": _frac_pair(x)}
    if isinstance(x, Quad):
        return {"quad": {"a": _frac_pair(x.a), "b": _frac_pair(x.b), "rad": x.d}}
    return {"pi": _frac_pair(x.coefficient)}


def scalar_from_json(obj) -> Scalar:
    if not isinstance(obj, dict) or len(obj) != 1:
        raise ValueError(f"malformed scalar encoding: {shown(repr(obj))}")
    if "rat" in obj:
        return _pair_frac(obj["rat"])
    if "quad" in obj:
        q = obj["quad"]
        if not isinstance(q, dict) or set(q) != {"a", "b", "rad"}:
            raise ValueError(f"a quad needs exactly the keys a, b and rad, got {shown(repr(q))}")
        return quad(_pair_frac(q["a"]), _pair_frac(q["b"]), int_from_json(q["rad"]))
    if "pi" in obj:
        return PiMultiple(_pair_frac(obj["pi"]))
    raise ValueError(f"unknown scalar tag in {shown(repr(obj))}")


def _format_fraction(f: Fraction) -> str:
    if f.denominator == 1:
        return decimal(f.numerator)
    return f"{decimal(f.numerator)}/{decimal(f.denominator)}"


def format_scalar(x) -> str:
    """Human-readable exact form, e.g. ``11/18 - 1/458*sqrt(3893)``, ``pi/8``."""
    x = as_scalar(x)
    if isinstance(x, Fraction):
        return _format_fraction(x)
    if isinstance(x, Quad):
        root = f"sqrt({x.d})"
        mag = abs(x.b)
        term = root if mag == 1 else f"{_format_fraction(mag)}*{root}"
        if x.a == 0:
            return term if x.b > 0 else f"-{term}"
        op = "+" if x.b > 0 else "-"
        return f"{_format_fraction(x.a)} {op} {term}"
    c = x.coefficient
    if c == 0:
        return "0"
    num, den = c.numerator, c.denominator
    head = "pi" if abs(num) == 1 else f"{decimal(abs(num))}*pi"
    if num < 0:
        head = "-" + head
    return head if den == 1 else f"{head}/{decimal(den)}"
