"""Integrand expressions: a small recursive-descent parser, float
evaluation through generated Python source (one emitter, whose expression
both as_function and the compound kernel compile), and exact lowering of
polynomial expressions.

Grammar (standard precedence, ^ binds tightest and associates right):

    expr   := term (('+' | '-') term)*      _Parser.expr(1)
    term   := unary (('*' | '/') unary)*    _Parser.expr(2)
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

import functools
import math
from fractions import Fraction
from typing import NamedTuple, Union

from .errors import ExprSyntaxError, NotPolynomial, WorkLimit
from .record import record
from .rules import MonomialPoly
from .scalars import MAX_RATIONAL_DIGITS, shown, to_float

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

# Parsing, printing, compiling and lowering all recurse on the tree, and the
# compiled integrand nests a bracket per level (CPython's parser allows 200),
# so parse refuses an expression deeper than MAX_EXPR_DEPTH levels.
# A pair of parentheses, a unary minus, a function call and each ^ or
# + - * / operator is one level above its operands; a number or variable is
# level 0.  So x inside 100 parentheses and a written-out sum of 101 terms
# are exactly at the limit.  The check runs while parsing, so the parser
# (six frames per parenthesis) never recurses past it; unchecked, x inside
# 300 parentheses or a 2000-term sum raised RecursionError.
MAX_EXPR_DEPTH = 100
_TOO_DEEP = f"the expression is nested too deep; the limit is {MAX_EXPR_DEPTH} levels"

# Binding levels of the printer and the parser: _Parser.expr(level) reads
# + - (level 1) and * / (level 2) here, and past level 2 come unary operands.
_PREC = {"+": 1, "-": 1, "*": 2, "/": 2, "^": 4}
_UNARY_PREC = 3
_ATOM_PREC = 5


@record
class Num:
    value: Fraction


@record
class Var:
    index: int  # zero-based
    name: str

    def __post_init__(self):
        if type(self.index) is not int or self.index < 0:
            raise ValueError(f"a variable index must be an int >= 0, got {self.index!r}")


@record
class Neg:
    arg: "Expr"


@record
class BinOp:
    op: str  # one of + - * / ^
    left: "Expr"
    right: "Expr"

    def __post_init__(self):
        if self.op not in _PREC:
            raise ValueError(f"unknown operator {self.op!r}")


@record
class Call:
    fn: str
    arg: "Expr"

    def __post_init__(self):
        if self.fn not in FUNCTIONS:
            raise ValueError(f"unknown function {self.fn!r}")


Expr = Union[Num, Var, Neg, BinOp, Call]


@record
class _Token:
    kind: str  # num, name, op, lparen, rparen, end
    text: str
    offset: int


def _digit(ch: str) -> bool:
    """ASCII 0-9 only: str.isdigit also accepts superscripts such as "²",
    which int() refuses, and other scripts' digits, which it reads."""
    return "0" <= ch <= "9"


_ONE_CHAR_KIND = {**dict.fromkeys(_PREC, "op"), "(": "lparen", ")": "rparen"}


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
        if ch not in _ONE_CHAR_KIND:
            raise ExprSyntaxError(
                i, ("number", "variable", "function", "operator", "'('", "')'"), ch
            )
        tokens.append(_Token(_ONE_CHAR_KIND[ch], ch, i))
        i += 1
    tokens.append(_Token("end", "", n))
    return tokens


_ATOM_EXPECTED = ("number", "variable", "function", "'('", "'-'")


class _Parser:
    """Each parse method returns (tree, its height in levels, as counted by
    MAX_EXPR_DEPTH); ``depth`` is the number of levels open around the
    current token."""

    def __init__(self, source: str):
        self.tokens = _lex(source)
        self.pos = 0
        self.depth = 0

    def peek(self) -> _Token:
        return self.tokens[self.pos]

    def advance(self) -> _Token:
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def expect(self, kind: str, label: str):
        tok = self.peek()
        if tok.kind != kind:
            raise ExprSyntaxError(tok.offset, (label,), tok.text)
        self.advance()

    def check(self, height: int) -> int:
        if self.depth + height > MAX_EXPR_DEPTH:
            raise WorkLimit(_TOO_DEEP)
        return height

    def nested(self, parse) -> tuple[Expr, int]:
        """parse() one level further down, under a parenthesis, a unary
        minus, a function call or a ^."""
        self.depth += 1
        self.check(0)
        e, height = parse()
        self.depth -= 1
        return e, height + 1

    def parse(self) -> Expr:
        e, _ = self.expr()
        tok = self.peek()
        if tok.kind != "end":
            raise ExprSyntaxError(
                tok.offset, ("operator", "end of input"), tok.text
            )
        return e

    def expr(self, level: int = 1) -> tuple[Expr, int]:
        """A left-associative chain of the operators whose _PREC is
        ``level``, over chains of the next level, or unary operands."""
        last = level + 1 == _UNARY_PREC
        left, height = self.unary() if last else self.expr(level + 1)
        while (tok := self.peek()).kind == "op" and _PREC[tok.text] == level:
            self.advance()
            right, right_height = self.unary() if last else self.expr(level + 1)
            left, height = BinOp(tok.text, left, right), self.check(max(height, right_height) + 1)
        return left, height

    def unary(self) -> tuple[Expr, int]:
        tok = self.peek()
        if tok.kind == "op" and tok.text == "-":
            self.advance()
            arg, height = self.nested(self.unary)
            return Neg(arg), height
        return self.power()

    def power(self) -> tuple[Expr, int]:
        base, height = self.atom()
        tok = self.peek()
        if tok.kind == "op" and tok.text == "^":
            self.advance()
            exponent, exponent_height = self.nested(self.unary)
            return BinOp("^", base, exponent), self.check(max(height + 1, exponent_height))
        return base, height

    def atom(self) -> tuple[Expr, int]:
        tok = self.peek()
        # a number, or a variable's index, is refused before int() reads it
        if sum(map(_digit, tok.text)) > MAX_RATIONAL_DIGITS:
            raise WorkLimit(f"{shown(tok.text)!r} has more than {MAX_RATIONAL_DIGITS} digits")
        if tok.kind == "num":
            self.advance()
            if "." in tok.text:
                whole, frac = tok.text.split(".")
                value = Fraction(int(whole or "0")) + Fraction(
                    int(frac), 10 ** len(frac)
                )
            else:
                value = Fraction(int(tok.text))
            return Num(value), 0
        if tok.kind == "name":
            self.advance()
            name = tok.text
            if name in FUNCTIONS:
                self.expect("lparen", "'('")
                arg, height = self.nested(self.expr)
                self.expect("rparen", "')'")
                return Call(name, arg), height
            if name in _ALIASES:
                return Var(_ALIASES[name], name), 0
            # a name holds letters, ASCII digits and "_", and no letter is a digit
            if name.startswith("x") and name[1:].isdigit() and int(name[1:]) >= 1:
                return Var(int(name[1:]) - 1, name), 0
            raise ExprSyntaxError(tok.offset, ("variable", "function"), name)
        if tok.kind == "lparen":
            self.advance()
            inner, height = self.nested(self.expr)
            self.expect("rparen", "')'")
            return inner, height
        raise ExprSyntaxError(tok.offset, _ATOM_EXPECTED, tok.text)


def parse(source: str) -> Expr:
    """The tree of an expression; ExprSyntaxError at the first offending
    offset, WorkLimit when it is nested deeper than MAX_EXPR_DEPTH."""
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


def _power(base, exponent):
    value = base**exponent
    if type(value) is complex:
        # the base is negative, and -1.0^0.5 would read as -(1.0^0.5)
        raise ValueError(f"({base!r})^{exponent!r} is not a real number")
    return value


def _missing(variable) -> None:
    """Raise the ValueError of a variable (index, name) that the point has
    no coordinate for."""
    index, name = variable
    raise ValueError(f"variable {name} needs dimension >= {index + 1}") from None


# The generated source holds only float reprs, the locals x0, x1, ... of
# the coordinates (a _missing call for a variable past them), the forms
# below and these names, bound in a namespace without builtins.  No string
# of the tree is pasted in: op and fn are looked up here.  ^ is a call to
# _power, except that a literal integer exponent (a Num with denominator 1,
# or the Neg of one) is emitted as **, which skips a call per power: a float
# to an integral float power is never complex, and it raises the same
# OverflowError or ZeroDivisionError from the same operation.  CPython
# folds a constant ** only when folding succeeds, so (10.0 ** 400.0) still
# compiles and raises when called.  Any other exponent stays a call, so
# CPython never folds a complex constant such as (-1.0) ** 0.5.
_BINARY = {
    "+": "({} + {})",
    "-": "({} - {})",
    "*": "({} * {})",
    "/": "({} / {})",
    "^": "_power({}, {})",
}
_CALLS = {name: f"_{name}" for name in FUNCTIONS}
_NAMESPACE = {
    "__builtins__": {},
    "_power": _power,
    "_missing": _missing,
    **{_CALLS[name]: fn for name, fn in FUNCTIONS.items()},
}


def _source(e: Expr, coordinate, depth: int, place=None) -> str:
    """Python source of one fully bracketed expression, evaluated in the
    order of a walk of the tree (left operand before right);
    ``coordinate(var)`` gives the source of each variable, called in that
    order.  ``place(node, depth)``, if given, is asked first at each node
    but a number; a text it returns stands for that whole subtree."""
    if depth > MAX_EXPR_DEPTH:
        raise WorkLimit(_TOO_DEEP)
    if isinstance(e, Num):
        # computed now, so a literal past the float range raises to_float's
        # OverflowError, which quotes it, before any point
        return repr(to_float(e.value))
    if place is not None:
        text = place(e, depth)
        if text is not None:
            return text
    if isinstance(e, Var):
        return coordinate(e)
    if isinstance(e, Neg):
        return f"(-{_source(e.arg, coordinate, depth + 1, place)})"
    if isinstance(e, Call):
        return f"{_CALLS[e.fn]}({_source(e.arg, coordinate, depth + 1, place)})"
    left = _source(e.left, coordinate, depth + 1, place)
    right = _source(e.right, coordinate, depth + 1, place)
    if e.op == "^" and _literal_integer(e.right):
        return f"({left} ** {right})"
    return _BINARY[e.op].format(left, right)


def _literal_integer(e: Expr) -> bool:
    if isinstance(e, Neg):
        e = e.arg
    return isinstance(e, Num) and e.value.denominator == 1


def eval_float(e: Expr, point) -> float:
    """The value of the expression at a point; a complex power raises
    ValueError, a float overflow OverflowError.  Each call builds a new
    as_function(e), so it walks the tree and compiles it again: about
    55-90 us a point for the compound menu's integrands.  A caller that
    evaluates many points should keep f = as_function(e) and call f."""
    return as_function(e)(*point)


def as_function(e: Expr):
    """A Python function f(*coords) -> float.  f reads the first
    m = min(len(coords), max_variable_index(e)) coordinates as float() and
    calls g(x0, ..., x{m-1}), which returns _inline_source(e, m).body, the
    expression a compound kernel inlines; g is compiled on the first call
    with each m.  The source is walked here, so a tree deeper than
    MAX_EXPR_DEPTH raises WorkLimit and a literal too large for a float
    OverflowError now.

    Every float operation happens in the same order as a walk of the tree
    (left operand before right) and constants are the same floats, so
    results and the first error raised, a variable past the point's
    "needs dimension" ValueError included, are identical to a walk's.  The
    source nests at most about MAX_EXPR_DEPTH + 2 brackets, under
    CPython's limit of 200.

    ``f.inline_source(dimension)`` gives the same expression for a caller
    that compiles it into its own loop (see _inline_source);
    ``functools.wraps`` carries it over to a wrapper of f.
    """
    _source(e, lambda var: var.name, 0)  # WorkLimit or OverflowError here
    top = max_variable_index(e)
    compiled: dict = {}  # m -> g

    # a caller that inlines the expression, as compound does, never pays
    # for a compile here
    def f(*p):
        m = min(len(p), top)
        g = compiled.get(m)
        if g is None:
            inline = _inline_source(e, m)
            names = ", ".join(f"x{i}" for i in range(m))
            source = f"def g({names}):\n    return {inline.body}\n"
            exec(compile(source, "<integrand>", "exec"), inline.namespace)
            g = compiled[m] = inline.namespace.pop("g")  # no cycle through its globals
        return g(*map(float, p[:m]))

    f.inline_source = functools.partial(_inline_source, e)
    return f


class InlineSource(NamedTuple):
    """An expression as source over float locals x0 .. x{dimension - 1};
    see _inline_source."""

    body: str  # the whole expression
    namespace: dict  # what body runs in, without builtins
    template: str  # body with a field {m} where the subtree parts[m] is
    parts: tuple  # (coordinates read, source), in the order they are found
    reads: frozenset  # the coordinates template reads outside its fields


def _inline_source(e: Expr, dimension: int) -> InlineSource:
    """The expression as the source of one Python expression over float
    locals x0 .. x{dimension - 1} (body), the namespace (no builtins) it
    must run in, and the same split into a template and parts.

    Its float operations happen in the order of a walk of the tree, so a
    caller that binds the coordinates of a point to those locals gets the
    walk's value, bit for bit, or its first error: a variable past the
    dimension raises its "needs dimension" ValueError where a walk reads it.
    as_function compiles this body alone; compound inlines it in its cell
    loop.

    The parts are the subtrees that a caller may evaluate once for many
    points.  A subtree other than a number is a part when it reads fewer
    coordinates than the part around it, or than all ``dimension`` of them
    at the top; a variable past the dimension reads none.  So in two
    dimensions the top-level parts are the maximal subtrees that read at
    most one coordinate, lone variables included, and the parts inside them
    read none.  A part's source holds fields for the parts inside it, which
    come earlier in parts; equal parts share a field.  Formatting each
    source with the ones before it, and then the template, gives body back.
    """
    split = _Split(e, dimension)
    template = _source(e, split.coordinate, 0, split.within(frozenset(range(dimension))))
    sources: list = []
    for _, source in split.fields:
        sources.append(source.format(*sources))
    return InlineSource(
        body=template.format(*sources),
        namespace={**_NAMESPACE, "_variables": tuple(split.missing)},
        template=template,
        parts=tuple(split.fields),
        reads=frozenset(split.direct),
    )


class _Split:
    """The walk of _inline_source.  An object, not nested functions: a
    nested function that calls itself is a reference cycle, which would
    keep each call's tables until the cycle collector ran."""

    def __init__(self, e: Expr, dimension: int):
        self.dimension = dimension
        self.missing: list = []
        self.direct: set = set()
        self.inside = 0  # how many parts the walk is in
        self.read: dict = {}  # id(subtree) -> the coordinates it reads
        self.fields: dict = {}  # (coordinates read, source) -> field number
        self._find(e)

    def coordinate(self, var: Var) -> str:
        if var.index < self.dimension:
            if not self.inside:
                self.direct.add(var.index)
            return f"x{var.index}"
        self.missing.append((var.index, var.name))
        return f"_missing(_variables[{len(self.missing) - 1}])"

    def _find(self, node) -> frozenset:
        if isinstance(node, Num):
            found = frozenset()
        elif isinstance(node, Var):
            found = frozenset({node.index} if node.index < self.dimension else ())
        elif isinstance(node, (Neg, Call)):
            found = self._find(node.arg)
        else:
            found = self._find(node.left) | self._find(node.right)
        self.read[id(node)] = found
        return found

    def within(self, around: frozenset):
        """_source's ``place`` inside a part that reads ``around``."""
        return functools.partial(self._place, around)

    def _place(self, around: frozenset, node, depth: int):
        axes = self.read[id(node)]
        if axes == around:
            return None
        self.inside += 1
        source = _source(node, self.coordinate, depth, self.within(axes))
        self.inside -= 1
        return "{%d}" % self.fields.setdefault((axes, source), len(self.fields))


def max_variable_index(e: Expr) -> int:
    """Highest 1-based variable index used, 0 when constant."""
    if isinstance(e, Num):
        return 0
    if isinstance(e, Var):
        return e.index + 1
    if isinstance(e, (Neg, Call)):
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
    return _lower(e, dimension)


# a module function, not a closure: a nested function that calls itself is
# a reference cycle left for the collector
def _lower(node: Expr, dimension: int) -> MonomialPoly:
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
        return -_lower(node.arg, dimension)
    if isinstance(node, Call):
        raise NotPolynomial(f"{node.fn}() is not polynomial")
    left = _lower(node.left, dimension)
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
    right = _lower(node.right, dimension)
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
