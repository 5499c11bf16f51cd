"""Exact scalar arithmetic: rationals, quadratic irrationals a + b*sqrt(d),
and rational multiples of pi.

Rationals are plain ``fractions.Fraction`` values (always canonical).
``Quad`` and ``PiMultiple`` interoperate with ``Fraction`` and ``int``
through the reflected operators, so mixed sums such as
``Fraction(1, 2) * Quad(...) + 0`` work directly.  A ``Quad`` whose
irrational component is zero collapses to a ``Fraction`` as soon as it is
produced, so a genuine ``Quad`` value is always irrational.
"""

from __future__ import annotations

import math
import re
from fractions import Fraction
from typing import Union

from .errors import IncompatibleScalars

Rational = Fraction

Scalar = Union[Fraction, "Quad", "PiMultiple"]

_RationalLike = (int, Fraction)


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


def as_scalar(x) -> Scalar:
    """Coerce an int to Fraction; pass exact scalars through; reject floats."""
    if isinstance(x, bool):
        raise TypeError("bool is not a scalar")
    if isinstance(x, int):
        return Fraction(x)
    if isinstance(x, (Fraction, Quad, PiMultiple)):
        return x
    raise TypeError(f"not an exact scalar: {x!r}")


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


class Quad:
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

    def __setattr__(self, name, value):
        raise AttributeError("Quad values are immutable")

    def __repr__(self):
        return f"Quad({self.a!r}, {self.b!r}, {self.d})"

    def __str__(self):
        return format_scalar(self)

    def __eq__(self, other):
        if isinstance(other, Quad):
            return self.d == other.d and self.a == other.a and self.b == other.b
        # a genuine Quad is irrational, never equal to a rational or pi value
        return False

    def __hash__(self):
        return hash(("quad", self.a, self.b, self.d))

    def __add__(self, other):
        return add(self, other)

    __radd__ = __add__

    def __sub__(self, other):
        return sub(self, other)

    def __rsub__(self, other):
        return sub(other, self)

    def __neg__(self):
        return _make_quad(-self.a, -self.b, self.d)

    def __mul__(self, other):
        return mul(self, other)

    __rmul__ = __mul__

    def __truediv__(self, other):
        return div(self, other)

    def __rtruediv__(self, other):
        return div(other, self)

    def __pow__(self, k: int):
        return pow_scalar(self, k)

    def conjugate(self) -> "Quad":
        return _make_quad(self.a, -self.b, self.d)


class PiMultiple:
    """A rational multiple of pi.  The coefficient may be zero; a zero
    PiMultiple compares equal to 0 but keeps its tag so pi-valued tables
    (disc moments) stay uniformly typed."""

    __slots__ = ("coefficient",)

    def __init__(self, coefficient):
        object.__setattr__(self, "coefficient", Fraction(coefficient))

    def __setattr__(self, name, value):
        raise AttributeError("PiMultiple values are immutable")

    def __repr__(self):
        return f"PiMultiple({self.coefficient!r})"

    def __str__(self):
        return format_scalar(self)

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
        return add(self, other)

    __radd__ = __add__

    def __sub__(self, other):
        return sub(self, other)

    def __rsub__(self, other):
        return sub(other, self)

    def __neg__(self):
        return PiMultiple(-self.coefficient)

    def __mul__(self, other):
        return mul(self, other)

    __rmul__ = __mul__

    def __truediv__(self, other):
        return div(self, other)

    def __rtruediv__(self, other):
        return div(other, self)


def conj(x) -> Scalar:
    """Quadratic conjugate: a + b*sqrt(d) -> a - b*sqrt(d); identity otherwise."""
    x = as_scalar(x)
    if isinstance(x, Quad):
        return x.conjugate()
    return x


def add(x, y) -> Scalar:
    # two plain Fractions skip coercion; ints, bools and subclasses take the checked path
    if type(x) is Fraction and type(y) is Fraction:
        return x + y
    x = as_scalar(x)
    y = as_scalar(y)
    if isinstance(x, Fraction) and isinstance(y, Fraction):
        return x + y
    if isinstance(x, Quad) or isinstance(y, Quad):
        if isinstance(y, Quad) and not isinstance(x, Quad):
            x, y = y, x
        if isinstance(y, Fraction):
            return _make_quad(x.a + y, x.b, x.d)
        if isinstance(y, Quad):
            if x.d != y.d:
                raise IncompatibleScalars(
                    f"cannot add values over sqrt({x.d}) and sqrt({y.d})"
                )
            return _make_quad(x.a + y.a, x.b + y.b, x.d)
        # y is a PiMultiple
        if y.coefficient == 0:
            return x
        raise IncompatibleScalars("cannot add a pi multiple to a sqrt value")
    # at least one PiMultiple, the other Fraction or PiMultiple
    if isinstance(x, PiMultiple) and isinstance(y, PiMultiple):
        return PiMultiple(x.coefficient + y.coefficient)
    if isinstance(y, PiMultiple):
        x, y = y, x
    if y == 0:
        return x
    if x.coefficient == 0:
        return y
    raise IncompatibleScalars("cannot add a nonzero rational to a pi multiple")


def neg(x) -> Scalar:
    x = as_scalar(x)
    return -x


def sub(x, y) -> Scalar:
    if type(x) is Fraction and type(y) is Fraction:
        return x - y
    return add(x, neg(y))


def mul(x, y) -> Scalar:
    if type(x) is Fraction and type(y) is Fraction:
        return x * y
    x = as_scalar(x)
    y = as_scalar(y)
    if isinstance(x, Fraction) and isinstance(y, Fraction):
        return x * y
    if isinstance(x, PiMultiple) and isinstance(y, PiMultiple):
        raise IncompatibleScalars("pi times pi is outside the scalar tower")
    if isinstance(x, PiMultiple) or isinstance(y, PiMultiple):
        if isinstance(y, PiMultiple):
            x, y = y, x
        if isinstance(y, Quad):
            raise IncompatibleScalars("pi times a sqrt value is not representable")
        return PiMultiple(x.coefficient * y)
    # Quad with Quad or Fraction
    if isinstance(y, Quad) and not isinstance(x, Quad):
        x, y = y, x
    if isinstance(y, Fraction):
        return _make_quad(x.a * y, x.b * y, x.d)
    if x.d != y.d:
        raise IncompatibleScalars(
            f"cannot multiply values over sqrt({x.d}) and sqrt({y.d})"
        )
    return _make_quad(x.a * y.a + x.b * y.b * x.d, x.a * y.b + x.b * y.a, x.d)


def div(x, y) -> Scalar:
    x = as_scalar(x)
    y = as_scalar(y)
    if is_zero(y):
        raise ZeroDivisionError("scalar division by zero")
    if isinstance(y, Fraction):
        if isinstance(x, Fraction):
            return x / y
        if isinstance(x, Quad):
            return _make_quad(x.a / y, x.b / y, x.d)
        return PiMultiple(x.coefficient / y)
    if isinstance(y, Quad):
        # 1/(a + b sqrt d) = (a - b sqrt d) / (a^2 - b^2 d), rational denominator
        norm = y.a * y.a - y.b * y.b * y.d
        inv = _make_quad(y.a / norm, -y.b / norm, y.d)
        return mul(x, inv)
    # dividing by a pi multiple: only another pi multiple cancels the pi
    if isinstance(x, PiMultiple):
        return x.coefficient / y.coefficient
    raise IncompatibleScalars("cannot divide a pi-free value by a pi multiple")


def pow_scalar(x, k: int) -> Scalar:
    if not isinstance(k, int) or k < 0:
        raise ValueError("exponent must be a non-negative integer")
    x = as_scalar(x)
    if isinstance(x, Fraction):
        return x**k
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
    """Exact sign (-1, 0, +1).  For a + b*sqrt(d) the mixed-sign case is
    settled by comparing a^2 with b^2 d, which never ties for squarefree d."""
    x = as_scalar(x)
    if isinstance(x, Fraction):
        return (x > 0) - (x < 0)
    if isinstance(x, PiMultiple):
        c = x.coefficient
        return (c > 0) - (c < 0)
    sa = (x.a > 0) - (x.a < 0)
    sb = (x.b > 0) - (x.b < 0)
    if sa == sb or sa == 0:
        return sb
    if sb == 0:
        return sa
    return sa if x.a * x.a > x.b * x.b * x.d else sb


def lt(x, y) -> bool:
    """Exact order comparison; only defined within one additive habitat."""
    return sign(sub(y, x)) > 0


def le(x, y) -> bool:
    return sign(sub(y, x)) >= 0


def to_float(x) -> float:
    x = as_scalar(x)
    if isinstance(x, Fraction):
        return x.numerator / x.denominator
    if isinstance(x, Quad):
        return float(x.a) + float(x.b) * math.sqrt(x.d)
    return float(x.coefficient) * math.pi


def _frac_pair(f: Fraction) -> list:
    # integers as decimal strings: arbitrary precision survives any JSON reader
    return [str(f.numerator), str(f.denominator)]


_INTEGER = re.compile(r"-?[0-9]+")


def int_from_json(value) -> int:
    """Decode a JSON integer: an int (not a bool) or a decimal integer string."""
    if type(value) is int:
        return value
    if isinstance(value, str) and _INTEGER.fullmatch(value):
        return int(value)
    raise ValueError(f"expected an integer or a decimal integer string, got {value!r}")


def _pair_frac(pair) -> Fraction:
    if not isinstance(pair, list) or len(pair) != 2:
        raise ValueError(f"expected a [numerator, denominator] pair, got {pair!r}")
    num, den = int_from_json(pair[0]), int_from_json(pair[1])
    if den == 0:
        raise ValueError(f"zero denominator in {pair!r}")
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
        raise ValueError(f"malformed scalar encoding: {obj!r}")
    if "rat" in obj:
        return _pair_frac(obj["rat"])
    if "quad" in obj:
        q = obj["quad"]
        if not isinstance(q, dict) or set(q) != {"a", "b", "rad"}:
            raise ValueError(f"a quad needs exactly the keys a, b and rad, got {q!r}")
        return quad(_pair_frac(q["a"]), _pair_frac(q["b"]), int_from_json(q["rad"]))
    if "pi" in obj:
        return PiMultiple(_pair_frac(obj["pi"]))
    raise ValueError(f"unknown scalar tag in {obj!r}")


def _format_fraction(f: Fraction) -> str:
    if f.denominator == 1:
        return str(f.numerator)
    return f"{f.numerator}/{f.denominator}"


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
    head = "pi" if abs(num) == 1 else f"{abs(num)}*pi"
    if num < 0:
        head = "-" + head
    return head if den == 1 else f"{head}/{den}"
