"""The frozen value classes made by ``simpson_nd.record.record``: the same
construction, repr, equality, hash and refusals as the standard library's
frozen data classes gave them, and a cold start that loads neither
``dataclasses`` nor ``inspect``."""

import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import simpson_nd
from simpson_nd.claims import Claim
from simpson_nd.compound import CompoundEstimate
from simpson_nd.errors import NodeOutsideRegion
from simpson_nd.exactness import (
    Equation,
    ExactnessReport,
    Infeasible,
    Underdetermined,
    UniqueSolution,
)
from simpson_nd.expr import BinOp, Call, Neg, Num, Var, _Token, parse
from simpson_nd.families import SystemResiduals
from simpson_nd.regions import Cube, Polygon, Simplex, UnitDisc
from simpson_nd.rules import CubatureRule
from simpson_nd.scalars import quad

# (a maker of one record, its repr as the standard library's frozen data classes wrote it)
REPRS = [
    (lambda: CompoundEstimate(1, 4, 0.5), "CompoundEstimate(level=1, cells=4, estimate=0.5)"),
    (lambda: Infeasible("w"), "Infeasible(witness='w', equations=(), multipliers=())"),
    (
        lambda: Infeasible(
            "w", (Equation("x", (Fraction(1), quad(1, 2, 3)), Fraction(1, 2)),), (Fraction(-1),)
        ),
        "Infeasible(witness='w', equations=(Equation(label='x', coefficients=(Fraction(1, 1), "
        "Quad(Fraction(1, 1), Fraction(2, 1), 3)), rhs=Fraction(1, 2)),), "
        "multipliers=(Fraction(-1, 1),))",
    ),
    (lambda: UniqueSolution((Fraction(3, 4),)), "UniqueSolution(values=(Fraction(3, 4),))"),
    (
        lambda: Underdetermined((Fraction(0),), 1),
        "Underdetermined(particular=(Fraction(0, 1),), nullity=1)",
    ),
    (
        lambda: ExactnessReport("CR4", 3, (4, 0), Fraction(1, 30), 5),
        "ExactnessReport(label='CR4', certified_degree=3, failing=(4, 0), "
        "failing_residual=Fraction(1, 30), max_degree=5)",
    ),
    (lambda: Simplex(2), "Simplex(dimension=2)"),
    (lambda: Cube(3), "Cube(dimension=3)"),
    (lambda: UnitDisc(), "UnitDisc()"),
    (
        lambda: Polygon([(0, 0), (0, 1), (1, 0)]),  # clockwise, so stored reversed
        "Polygon(vertex_list=((Fraction(1, 1), Fraction(0, 1)), "
        "(Fraction(0, 1), Fraction(1, 1)), (Fraction(0, 1), Fraction(0, 1))))",
    ),
    (
        lambda: CubatureRule(Simplex(1), [(Fraction(1, 2),)], [1]),
        "CubatureRule(region=Simplex(dimension=1), nodes=((Fraction(1, 2),),), "
        "weights=(Fraction(1, 1),), label='')",
    ),
    (
        lambda: parse("-sin(x)^2/y + 0.5"),
        "BinOp(op='+', left=BinOp(op='/', left=Neg(arg=BinOp(op='^', left=Call(fn='sin', "
        "arg=Var(index=0, name='x')), right=Num(value=Fraction(2, 1)))), "
        "right=Var(index=1, name='y')), right=Num(value=Fraction(1, 2)))",
    ),
    (lambda: _Token("num", "1", 0), "_Token(kind='num', text='1', offset=0)"),
    (lambda: Claim("c", True, "ok"), "Claim(name='c', ok=True, detail='ok')"),
    (
        lambda: SystemResiduals(("a",), (Fraction(0),)),
        "SystemResiduals(names=('a',), residuals=(Fraction(0, 1),))",
    ),
]


@pytest.mark.parametrize("make, text", REPRS, ids=[text.split("(")[0] for _, text in REPRS])
def test_repr_equality_and_hash(make, text):
    value, twin = make(), make()
    assert repr(value) == text
    assert twin is not value
    assert twin == value and not twin != value
    # the hash of the field tuple, as before
    assert hash(twin) == hash(value) == hash(tuple(vars(value).values()))


@pytest.mark.parametrize("left, right", [
    (Simplex(2), Cube(2)),
    (Num(Fraction(1)), Neg(Fraction(1))),
    (UniqueSolution((Fraction(1),)), Underdetermined((Fraction(1),), 0)),
    (Claim("c", True, ""), ("c", True, "")),
    (UnitDisc(), ()),
], ids=["Simplex-Cube", "Num-Neg", "UniqueSolution-Underdetermined", "Claim-tuple", "UnitDisc-tuple"])
def test_records_of_other_classes_with_equal_fields_differ(left, right):
    assert left != right and right != left
    assert not left == right
    assert left.__eq__(right) is NotImplemented


def test_fields_differ():
    assert Simplex(2) != Simplex(3)
    assert CompoundEstimate(1, 4, 0.5) != CompoundEstimate(1, 4, 0.25)
    assert len({Simplex(2), Simplex(2), Cube(2), UnitDisc(), UnitDisc()}) == 3


def test_keywords_and_defaults():
    assert Infeasible(witness="w") == Infeasible("w", (), ()) == Infeasible("w", multipliers=())
    assert Infeasible("w", multipliers=(Fraction(1),)).equations == ()
    assert CompoundEstimate(estimate=0.5, level=1, cells=4) == CompoundEstimate(1, 4, 0.5)
    rule = CubatureRule(region=Simplex(1), nodes=[(Fraction(1, 2),)], weights=[1], label="m")
    assert (rule.label, CubatureRule(Simplex(1), [(0,)], [1]).label) == ("m", "")
    # the default sits on the class, as it did
    assert CubatureRule.label == ""


# the message fragments Python's own argument binding also gives
@pytest.mark.parametrize("make, message", [
    (lambda: CompoundEstimate(1, 4), "missing .*'estimate'"),
    (lambda: Infeasible(), "missing .*'witness'"),
    (lambda: Simplex(), "missing .*'dimension'"),
    (lambda: Simplex(2, 3), "but 2 were given"),
    (lambda: UnitDisc(1), "but 1 were given"),
    (lambda: Simplex(2, dimension=2), "multiple values for argument 'dimension'"),
    (lambda: Simplex(dim=2), "unexpected keyword argument 'dim'"),
    (lambda: Var(0, "x", size=1), "unexpected keyword argument 'size'"),
])
def test_a_call_that_does_not_bind_raises_type_error(make, message):
    with pytest.raises(TypeError, match=message):
        make()


@pytest.mark.parametrize("value", [Simplex(2), UnitDisc(), Polygon([(0, 0), (1, 0), (0, 1)]),
                                   Num(Fraction(1)), CompoundEstimate(1, 4, 0.5)],
                         ids=lambda v: type(v).__name__)
def test_records_are_immutable(value):
    name = type(value).__name__
    before = repr(value)
    with pytest.raises(AttributeError, match=f"^{name} values are immutable$"):
        value.dimension = 3
    with pytest.raises(AttributeError, match=f"^{name} values are immutable$"):
        value.extra = 1
    with pytest.raises(AttributeError, match=f"^{name} values are immutable$"):
        del value.dimension
    assert repr(value) == before


@pytest.mark.parametrize("make, error, message", [
    (lambda: Simplex(0), ValueError, "simplex dimension must be >= 1"),
    (lambda: Cube(-1), ValueError, "cube dimension must be >= 1"),
    (lambda: Var(-1, "x"), ValueError, "a variable index must be an int >= 0"),
    (lambda: Var(index=True, name="x"), ValueError, "a variable index must be an int >= 0"),
    (lambda: BinOp("%", Num(Fraction(1)), Num(Fraction(2))), ValueError, "unknown operator '%'"),
    (lambda: Call("tan", Var(0, "x")), ValueError, "unknown function 'tan'"),
    (lambda: CubatureRule(Simplex(1), [(2,)], [1]), NodeOutsideRegion, "lies outside"),
], ids=["Simplex", "Cube", "Var", "Var-bool", "BinOp", "Call", "CubatureRule"])
def test_post_init_checks_run(make, error, message):
    with pytest.raises(error, match=message):
        make()


def test_post_init_normalizes_and_an_own_init_is_kept():
    rule = CubatureRule(Simplex(1), [[Fraction(1, 2)]], [1])
    assert rule.nodes == ((Fraction(1, 2),),) and type(rule.weights[0]) is Fraction
    # Polygon keeps its own constructor, which benchmarks/tracing.py wraps
    assert Polygon.__dict__["__init__"].__qualname__ == "Polygon.__init__"
    assert Polygon([(0, 0), (0, 1), (1, 0)]).vertex_list[0] == (1, 0)


def test_importing_the_cli_loads_neither_dataclasses_nor_inspect():
    src = Path(simpson_nd.__file__).resolve().parent.parent
    code = (
        "import sys\n"
        "sys.path.insert(0, sys.argv[1])\n"
        "import simpson_nd.cli\n"
        "simpson_nd.cli.build_parser()\n"
        "print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))\n"
    )
    done = subprocess.run([sys.executable, "-I", "-S", "-c", code, str(src)],
                          capture_output=True, text=True, timeout=60)
    assert (done.returncode, done.stderr, done.stdout) == (0, "", "[]\n")
