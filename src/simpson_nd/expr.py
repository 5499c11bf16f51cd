"""Integrand expressions: a small recursive-descent parser, float
evaluation, and exact lowering of polynomial expressions.

Grammar (standard precedence, ^ binds tightest and associates right):

    expr   := term (('+' | '-') term)*
    term   := unary (('*' | '/') unary)*
    unary  := '-' unary | power
    power  := atom ('^' unary)?
    atom   := NUMBER | NAME '(' expr ')' | NAME | '(' expr ')'

NUMBER is a decimal literal of ASCII digits ("2", "0.25"); it parses to an
exact rational with a power-of-ten denominator, so lowering polynomial
expressions stays exact.  NAME is a function (sin cos exp log sqrt) or a
variable: x1..xn, with x, y, z as aliases for the first three.  Any other
character, "²" included, is a syntax error at its offset.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Union

from .errors import ExprSyntaxError, NotPolynomial, WorkLimit
from .rules import MonomialPoly

FUNCTIONS = {
    "sin": math.sin,
    "cos": math.cos,
    "exp": math.exp,
    "log": math.log,
    "sqrt": math.sqrt,
}

_ALIASES = {"x": 0, "y": 1, "z": 2}

# Exact lowering expands products and powers term by term, so it refuses a
# `^` exponent above MAX_POLY_EXPONENT (a power is that many multiplications)
# and any product or power of degree above MAX_POLY_DEGREE, worked out from
# the operands before multiplying.  (x+y+1)^32 expands in about 0.15 s on
# one core of a 2-vCPU Xeon; unchecked, (x+1)^1100 took 11 s.  In n
# variables a degree still admits C(n + degree, n) terms, so a result that
# may have more than MAX_POLY_TERMS terms is refused too, bounded by the
# smaller of that and the number of products of operand terms (a single
# monomial always passes).  Unchecked, (x1+...+x6+1)^12 (18,564 terms) took 2.2 s.
MAX_POLY_EXPONENT = 1000
MAX_POLY_DEGREE = 32
MAX_POLY_TERMS = 2000


@dataclass(frozen=True)
class Num:
    value: Fraction


@dataclass(frozen=True)
class Var:
    index: int  # zero-based
    name: str


@dataclass(frozen=True)
class Neg:
    arg: "Expr"


@dataclass(frozen=True)
class BinOp:
    op: str  # one of + - * / ^
    left: "Expr"
    right: "Expr"


@dataclass(frozen=True)
class Call:
    fn: str
    arg: "Expr"


Expr = Union[Num, Var, Neg, BinOp, Call]


@dataclass(frozen=True)
class _Token:
    kind: str  # num, name, op, lparen, rparen, end
    text: str
    offset: int


def _digit(ch: str) -> bool:
    """ASCII 0-9 only: str.isdigit also accepts superscripts such as "²",
    which int() refuses, and other scripts' digits, which it reads."""
    return "0" <= ch <= "9"


def _lex(source: str) -> list[_Token]:
    tokens = []
    i = 0
    n = len(source)
    while i < n:
        ch = source[i]
        if ch.isspace():
            i += 1
            continue
        if _digit(ch) or (ch == "." and i + 1 < n and _digit(source[i + 1])):
            start = i
            while i < n and _digit(source[i]):
                i += 1
            if i < n and source[i] == ".":
                i += 1
                if i >= n or not _digit(source[i]):
                    raise ExprSyntaxError(i, ("digit",), source[i] if i < n else "")
                while i < n and _digit(source[i]):
                    i += 1
            tokens.append(_Token("num", source[start:i], start))
            continue
        if ch.isalpha() or ch == "_":
            start = i
            while i < n and (source[i].isalpha() or _digit(source[i]) or source[i] == "_"):
                i += 1
            tokens.append(_Token("name", source[start:i], start))
            continue
        if ch in "+-*/^":
            tokens.append(_Token("op", ch, i))
            i += 1
            continue
        if ch == "(":
            tokens.append(_Token("lparen", ch, i))
            i += 1
            continue
        if ch == ")":
            tokens.append(_Token("rparen", ch, i))
            i += 1
            continue
        raise ExprSyntaxError(
            i, ("number", "variable", "function", "operator", "'('", "')'"), ch
        )
    tokens.append(_Token("end", "", n))
    return tokens


_ATOM_EXPECTED = ("number", "variable", "function", "'('", "'-'")


class _Parser:
    def __init__(self, source: str):
        self.tokens = _lex(source)
        self.pos = 0

    def peek(self) -> _Token:
        return self.tokens[self.pos]

    def advance(self) -> _Token:
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def expect_rparen(self):
        tok = self.peek()
        if tok.kind != "rparen":
            raise ExprSyntaxError(tok.offset, ("')'",), tok.text)
        self.advance()

    def parse(self) -> Expr:
        e = self.expr()
        tok = self.peek()
        if tok.kind != "end":
            raise ExprSyntaxError(
                tok.offset, ("operator", "end of input"), tok.text
            )
        return e

    def expr(self) -> Expr:
        left = self.term()
        while self.peek().kind == "op" and self.peek().text in "+-":
            op = self.advance().text
            left = BinOp(op, left, self.term())
        return left

    def term(self) -> Expr:
        left = self.unary()
        while self.peek().kind == "op" and self.peek().text in "*/":
            op = self.advance().text
            left = BinOp(op, left, self.unary())
        return left

    def unary(self) -> Expr:
        tok = self.peek()
        if tok.kind == "op" and tok.text == "-":
            self.advance()
            return Neg(self.unary())
        return self.power()

    def power(self) -> Expr:
        base = self.atom()
        tok = self.peek()
        if tok.kind == "op" and tok.text == "^":
            self.advance()
            return BinOp("^", base, self.unary())
        return base

    def atom(self) -> Expr:
        tok = self.peek()
        if tok.kind == "num":
            self.advance()
            if "." in tok.text:
                whole, frac = tok.text.split(".")
                value = Fraction(int(whole or "0")) + Fraction(
                    int(frac), 10 ** len(frac)
                )
            else:
                value = Fraction(int(tok.text))
            return Num(value)
        if tok.kind == "name":
            self.advance()
            name = tok.text
            if name in FUNCTIONS:
                opening = self.peek()
                if opening.kind != "lparen":
                    raise ExprSyntaxError(opening.offset, ("'('",), opening.text)
                self.advance()
                arg = self.expr()
                self.expect_rparen()
                return Call(name, arg)
            if name in _ALIASES:
                return Var(_ALIASES[name], name)
            # a name holds letters, ASCII digits and "_", and no letter is a digit
            if name.startswith("x") and name[1:].isdigit() and int(name[1:]) >= 1:
                return Var(int(name[1:]) - 1, name)
            raise ExprSyntaxError(tok.offset, ("variable", "function"), name)
        if tok.kind == "lparen":
            self.advance()
            inner = self.expr()
            self.expect_rparen()
            return inner
        raise ExprSyntaxError(tok.offset, _ATOM_EXPECTED, tok.text)


def parse(source: str) -> Expr:
    return _Parser(source).parse()


def _format_number(value: Fraction) -> str:
    """Exact decimal text for a fraction whose denominator is 2^a 5^b."""
    den = value.denominator
    k = 0
    while den % 2 == 0:
        den //= 2
        k += 1
    j = 0
    while den % 5 == 0:
        den //= 5
        j += 1
    if den != 1:
        raise ValueError(f"{value} has no finite decimal form")
    digits = max(k, j)
    scaled = value * 10**digits
    text = str(scaled.numerator)
    if digits == 0:
        return text
    text = text.rjust(digits + 1, "0")
    return f"{text[:-digits]}.{text[-digits:]}"


_PREC = {"+": 1, "-": 1, "*": 2, "/": 2, "^": 4}
_UNARY_PREC = 3
_ATOM_PREC = 5


def _emit(e: Expr, parent_prec: int) -> str:
    if isinstance(e, Num):
        return _format_number(e.value)
    if isinstance(e, Var):
        return e.name
    if isinstance(e, Call):
        return f"{e.fn}({_emit(e.arg, 0)})"
    if isinstance(e, Neg):
        inner = _emit(e.arg, _UNARY_PREC)
        text = f"-{inner}"
        return f"({text})" if parent_prec > _UNARY_PREC else text
    prec = _PREC[e.op]
    if e.op == "^":
        # grammar: base is an atom, exponent is a unary
        left = _emit(e.left, _ATOM_PREC)
        right = _emit(e.right, _UNARY_PREC)
        text = f"{left}{e.op}{right}"
    else:
        left = _emit(e.left, prec)
        right = _emit(e.right, prec + 1)
        text = f"{left} {e.op} {right}"
    return f"({text})" if parent_prec > prec else text


def to_source(e: Expr) -> str:
    """Printable form that reparses to the identical tree."""
    return _emit(e, 0)


def _compile(e: Expr):
    """Lower a tree once to nested closures g(point) -> float.

    Every float operation happens in the same order as a walk of the tree
    (left operand before right), so results are bit-identical to one.
    """
    if isinstance(e, Num):
        value = e.value.numerator / e.value.denominator
        return lambda p: value
    if isinstance(e, Var):
        index, name = e.index, e.name

        def variable(p):
            try:
                return float(p[index])
            except IndexError:
                raise ValueError(
                    f"variable {name} needs dimension >= {index + 1}"
                ) from None

        return variable
    if isinstance(e, Neg):
        arg = _compile(e.arg)
        return lambda p: -arg(p)
    if isinstance(e, Call):
        fn, arg = FUNCTIONS[e.fn], _compile(e.arg)
        return lambda p: fn(arg(p))
    left, right = _compile(e.left), _compile(e.right)
    if e.op == "+":
        return lambda p: left(p) + right(p)
    if e.op == "-":
        return lambda p: left(p) - right(p)
    if e.op == "*":
        return lambda p: left(p) * right(p)
    if e.op == "/":
        return lambda p: left(p) / right(p)

    def power(p):
        base, exponent = left(p), right(p)
        value = base**exponent
        if type(value) is complex:
            raise ValueError(f"{base!r}^{exponent!r} is not a real number")
        return value

    return power


def eval_float(e: Expr, point) -> float:
    """The value of the expression at a point; a complex power raises
    ValueError, a float overflow OverflowError."""
    return _compile(e)(point)


def as_function(e: Expr):
    """Compile an expression once to f(*coords) for the float rule path."""
    g = _compile(e)

    def f(*coords):
        return g(coords)

    return f


def max_variable_index(e: Expr) -> int:
    """Highest 1-based variable index used, 0 when constant."""
    if isinstance(e, Num):
        return 0
    if isinstance(e, Var):
        return e.index + 1
    if isinstance(e, Neg):
        return max_variable_index(e.arg)
    if isinstance(e, Call):
        return max_variable_index(e.arg)
    return max(max_variable_index(e.left), max_variable_index(e.right))


def _check_size(dimension: int, degree: int, products: int) -> None:
    if degree > MAX_POLY_DEGREE:
        raise WorkLimit(
            f"expanding the polynomial needs degree {degree}; the limit is {MAX_POLY_DEGREE}"
        )
    terms = min(math.comb(dimension + degree, dimension), products)
    if terms > MAX_POLY_TERMS:
        raise WorkLimit(
            f"expanding the polynomial may give {terms} terms; the limit is {MAX_POLY_TERMS}"
        )


def to_monomial_poly(e: Expr, dimension: int | None = None) -> MonomialPoly:
    """Expand a polynomial expression to sparse monomial form.

    Raises NotPolynomial for transcendental calls, division by a
    non-constant, or an exponent that is not a literal non-negative
    integer, and WorkLimit above MAX_POLY_EXPONENT, MAX_POLY_DEGREE or
    MAX_POLY_TERMS.
    """
    if dimension is None:
        dimension = max(max_variable_index(e), 1)

    def lower(node: Expr) -> MonomialPoly:
        if isinstance(node, Num):
            return MonomialPoly(dimension, {(0,) * dimension: node.value})
        if isinstance(node, Var):
            if node.index >= dimension:
                raise NotPolynomial(
                    f"variable {node.name} exceeds dimension {dimension}"
                )
            alpha = tuple(1 if i == node.index else 0 for i in range(dimension))
            return MonomialPoly(dimension, {alpha: Fraction(1)})
        if isinstance(node, Neg):
            return -lower(node.arg)
        if isinstance(node, Call):
            raise NotPolynomial(f"{node.fn}() is not polynomial")
        left = lower(node.left)
        if node.op == "^":
            exponent = node.right
            if (
                not isinstance(exponent, Num)
                or exponent.value.denominator != 1
                or exponent.value < 0
            ):
                raise NotPolynomial(
                    "exponent must be a non-negative integer literal"
                )
            k = int(exponent.value)
            if k > MAX_POLY_EXPONENT:
                raise WorkLimit(f"exponent {k} is above the limit of {MAX_POLY_EXPONENT}")
            # a product of k of left's terms, chosen with repetition
            products = math.comb(max(len(left.terms), 1) + k - 1, k)
            _check_size(dimension, left.degree() * k, products)
            return left ** k
        right = lower(node.right)
        if node.op == "+":
            return left + right
        if node.op == "-":
            return left - right
        if node.op == "*":
            products = len(left.terms) * len(right.terms)
            _check_size(dimension, left.degree() + right.degree(), products)
            return left * right
        # division: the divisor must be a constant
        if set(right.terms) - {(0,) * dimension}:
            raise NotPolynomial("division by a non-constant expression")
        if not right.terms:
            raise ZeroDivisionError("division by zero in expression")
        return left.scale(1 / right.terms[(0,) * dimension])

    return lower(e)
