"""``exactness.gauss_jordan`` against the scalar loop in ``oracles``.

Seeded random systems over Q and Q(sqrt d) must give the oracle's pivot
columns, the ``repr`` of every reduced entry and the ``repr`` of the
determinant.  The systems mix denominators within a row and between the
``.a`` and ``.b`` parts of one entry, and include singular,
rank-deficient and inconsistent blocks, wide ``[A | b | I]`` blocks as
``solve_weights`` builds them, and rows whose entry in the pivot column
is zero.  The elimination takes no pi: a pi multiple in any column is
refused, where the scalar loop reduces it while every product it forms
is representable.
"""

import random
from fractions import Fraction

import pytest

from oracles import scalar_gauss_jordan
from simpson_nd.errors import IncompatibleScalars
from simpson_nd.exactness import gauss_jordan
from simpson_nd.scalars import PiMultiple, Quad

RADICANDS = (2, 3893, 1000003)


def _rational(rng, zeros=0.3) -> Fraction:
    if rng.random() < zeros:
        return Fraction(0)
    return Fraction(rng.randint(-9, 9), rng.randint(1, 12))


def _entry(rng, d):
    if d is None or rng.random() < 0.35:
        return _rational(rng)
    b = Fraction(rng.choice((-1, 1)) * rng.randint(1, 9), rng.randint(1, 12))
    return Quad(_rational(rng, zeros=0.2), b, d)


def _combine(rng, rows, d):
    """A copy of one row plus a multiple of another: a dependent row."""
    u, v = rng.choice(rows), rng.choice(rows)
    s = _entry(rng, d) if rng.random() < 0.5 else _rational(rng, zeros=0)
    return [x + s * y for x, y in zip(u, v)]


def _coefficients(rng, d, nrows, ncols):
    """Random coefficients with dependent rows and empty columns mixed in."""
    rows = [[_entry(rng, d) for _ in range(ncols)] for _ in range(nrows)]
    for i in range(1, nrows):
        if rng.random() < 0.3:
            rows[i] = _combine(rng, rows[:i], d)
    if rng.random() < 0.2:
        col = rng.randrange(ncols)
        for row in rows:
            row[col] = Fraction(0)
    return rows


def _system(rng, d):
    """(rows, ncols): coefficients, then no trailing columns, a few random
    ones, or a right-hand side and an identity block as in solve_weights."""
    nrows, ncols = rng.randint(1, 6), rng.randint(1, 6)
    rows = _coefficients(rng, d, nrows, ncols)
    shape = rng.choice(("bare", "trailing", "augmented"))
    if shape == "trailing":
        extra = rng.randint(1, 3)
        rows = [row + [_entry(rng, d) for _ in range(extra)] for row in rows]
    elif shape == "augmented":
        rows = [
            row + [_entry(rng, d)] + [Fraction(int(i == j)) for j in range(nrows)]
            for i, row in enumerate(rows)
        ]
    return rows, ncols


def _reduce_both(rows, ncols):
    mine, ref = [list(r) for r in rows], [list(r) for r in rows]
    got = gauss_jordan(mine, ncols)
    want = scalar_gauss_jordan(ref, ncols)
    assert got[0] == want[0], rows
    assert [[repr(x) for x in r] for r in mine] == [[repr(x) for x in r] for r in ref], rows
    assert repr(got[1]) == repr(want[1]), rows
    return want[0], ref


@pytest.mark.parametrize("d", (None,) + RADICANDS)
def test_matches_the_scalar_loop(d):
    rng = random.Random(1100 + (d or 0))
    deficient = inconsistent = irrational = 0
    for _ in range(150):
        rows, ncols = _system(rng, d)
        pivots, reduced = _reduce_both(rows, ncols)
        deficient += len(pivots) < min(len(rows), ncols)
        inconsistent += any(any(x != 0 for x in row[ncols:]) for row in reduced[len(pivots):])
        irrational += any(isinstance(x, Quad) for row in reduced for x in row)
    # the cases the loop distinguishes really occur
    assert deficient >= 15 and inconsistent >= 15
    assert (irrational >= 50) == (d is not None)


def test_square_systems_keep_the_determinant():
    rng = random.Random(1107)
    swapped = 0
    for d in (None,) + RADICANDS:
        for _ in range(40):
            n = rng.randint(1, 5)
            rows = _coefficients(rng, d, n, n)
            swapped += rows[0][0] == 0
            _reduce_both(rows, n)
    assert swapped >= 20


@pytest.mark.parametrize("d", (None,) + RADICANDS)
def test_refuses_pi_in_any_column(d):
    """A pi multiple in any one column, or a trailing column whose every
    entry is a pi multiple, raises IncompatibleScalars."""
    rng = random.Random(1109 + (d or 0))
    message = (r"^cannot eliminate the pi multiple PiMultiple\(Fraction\(-?\d+, \d+\)\) "
               r"with values free of pi$")
    for _ in range(40):
        rows, ncols = _system(rng, d)
        col = rng.randint(0, len(rows[0]))
        column = [Fraction(0)] * len(rows)
        column[rng.randrange(len(rows))] = PiMultiple(_rational(rng, zeros=0))
        one = [row[:col] + [x] + row[col:] for row, x in zip(rows, column)]
        trailing = [row + [PiMultiple(_rational(rng))] for row in rows]
        for tagged in (one, trailing):
            with pytest.raises(IncompatibleScalars, match=message):
                gauss_jordan(tagged, ncols)


# Inputs the fraction-free loop refuses.  The scalar loop answered each of
# these, because it never had to combine the values that do not fit.
REFUSED = {
    "pi in a pivot column": (
        [[Fraction(1), Fraction(0)], [Fraction(0), PiMultiple(1)]], 2,
        r"^cannot eliminate the pi multiple PiMultiple\(Fraction\(1, 1\)\) "
        r"with values free of pi$",
    ),
    "pi beside a rational zero in a trailing column": (
        [[Fraction(1), PiMultiple(1)], [Fraction(1), Fraction(0)]], 1,
        r"^cannot eliminate the pi multiple PiMultiple\(Fraction\(1, 1\)\) "
        r"with values free of pi$",
    ),
    "two radicands": (
        [[Quad(0, 1, 2)], [Quad(0, 1, 3)]], 1,
        r"^cannot eliminate values over sqrt\(2\) and sqrt\(3\) together$",
    ),
}


@pytest.mark.parametrize("case", sorted(REFUSED))
def test_refuses_pi_outside_a_pi_column_and_a_second_radicand(case):
    rows, ncols, message = REFUSED[case]
    scalar_gauss_jordan([list(r) for r in rows], ncols)
    with pytest.raises(IncompatibleScalars, match=message):
        gauss_jordan([list(r) for r in rows], ncols)


def test_refuses_a_float_entry():
    with pytest.raises(TypeError):
        gauss_jordan([[Fraction(1), 0.5]], 1)
