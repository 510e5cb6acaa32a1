"""Value semantics of the expression nodes and the records.

Nodes and the records that are compared or hashed (`SuperChart`,
`SuperVectorField`, `PiScaled`) are equal by class and fields, hash by
their fields and reject assignment. Every record keeps the
Name(field=value, ...) repr and its constructor's keywords and defaults.
"""

from __future__ import annotations

from fractions import Fraction

import pytest

from superloc import scalars as sc
from superloc.actions import ActionSpec
from superloc.geometry import PLANE_CHART, AtlasChart
from superloc.grassmann import SuperChart, SuperFunction, SuperVectorField
from superloc.localize import FixedPointData, PiScaled

X, Y = sc.sym("x"), sc.sym("y")


def _field() -> SuperVectorField:
    zero, one = SuperFunction.zero(PLANE_CHART), SuperFunction.one(PLANE_CHART)
    return SuperVectorField(PLANE_CHART, 1, [zero, zero], [one, zero])


# each builds a fresh object, so two calls give equal but distinct ones
FRESH = {
    "Rat": lambda: sc.Rat(Fraction(2, 4)),
    "Sym": lambda: sc.Sym("x"),
    "Add": lambda: sc.Add((X, sc.Rat(Fraction(1)))),
    "Mul": lambda: sc.Mul((X, Y)),
    "Pow": lambda: sc.Pow(X, -2),
    "Func": lambda: sc.Func("exp", X),
    "SuperChart": lambda: SuperChart(["x", "y"], 2),
    "SuperVectorField": _field,
    "PiScaled": lambda: PiScaled(Fraction(-2), 1),
}


@pytest.mark.parametrize("name", sorted(FRESH))
def test_equal_fields_give_equal_objects_and_hashes(name):
    a, b = FRESH[name](), FRESH[name]()
    assert a is not b
    assert a == b and not a != b
    assert hash(a) == hash(b)
    assert {a: 1}[b] == 1


@pytest.mark.parametrize(
    "a, b",
    [
        (sc.Add((X, Y)), sc.Mul((X, Y))),
        (sc.Rat(Fraction(1)), sc.Sym("1")),
        (sc.Pow(X, 2), sc.Func("exp", X)),
        (SuperChart(("x", "y"), 2), SuperChart(("x", "y"), 0)),
        (PiScaled(Fraction(1), 1), PiScaled(Fraction(1), 2)),
    ],
    ids=["Add-Mul", "Rat-Sym", "Pow-Func", "SuperChart-n", "PiScaled-power"],
)
def test_other_class_or_fields_are_unequal(a, b):
    assert a != b and b != a
    assert not a == b


@pytest.mark.parametrize(
    "obj, field",
    [
        (sc.Rat(Fraction(1)), "value"),
        (sc.Sym("x"), "name"),
        (sc.Add((X, Y)), "args"),
        (sc.Mul((X, Y)), "args"),
        (sc.Pow(X, 2), "exponent"),
        (sc.Func("exp", X), "arg"),
        (sc.Sym("x"), "_h"),
        (SuperChart(("x", "y"), 2), "n"),
        (_field(), "parity"),
        (PiScaled(Fraction(1), 1), "coeff"),
    ],
    ids=lambda v: type(v).__name__ if not isinstance(v, str) else v,
)
def test_assigning_to_a_hashed_field_raises(obj, field):
    before = hash(obj)
    with pytest.raises(AttributeError):
        setattr(obj, field, getattr(obj, field))
    with pytest.raises(AttributeError):
        delattr(obj, field)
    assert hash(obj) == before


@pytest.mark.parametrize(
    "obj, text",
    [
        (sc.Pow(sc.Sym("x"), -2), "Pow(base=Sym(name='x'), exponent=-2)"),
        (sc.Rat(Fraction(1, 2)), "Rat(value=Fraction(1, 2))"),
        (SuperChart(("x", "y"), 2), "SuperChart(coords=('x', 'y'), n=2)"),
        (
            FixedPointData("a", ("x",), (1,), ((1,),), ((2,),), ((1,),)),
            "FixedPointData(chart_id='a', coords=('x',), point=(1,), L=((1,),), fiber=((2,),), "
            "h=((1,),), orientation=1)",
        ),
    ],
    ids=["Pow", "Rat", "SuperChart", "FixedPointData"],
)
def test_repr_lists_the_fields(obj, text):
    assert repr(obj) == text


def test_keyword_construction_with_defaults():
    T = ((sc.ZERO - Y, X),)
    spec = ActionSpec(params=["t"], chart=PLANE_CHART, T=T)
    assert spec.params == ("t",) and spec.chart == PLANE_CHART
    assert ActionSpec(("t",), PLANE_CHART, T).T == spec.T
    kwargs = dict(chart_id="plane", coords=("x", "y"), point=(0, 0), L=((0, 1), (-1, 0)),
                  fiber=((0, 1), (-1, 0)), h=((1, 0), (0, 1)))
    assert FixedPointData(**kwargs, orientation=1).orientation == 1
    assert FixedPointData(**kwargs).orientation == 1
    assert FixedPointData(**kwargs, orientation=-1).orientation == -1
    chart = AtlasChart(name="plane", spec=spec, h=kwargs["h"])
    assert (chart.orientation, chart.z, chart.omega_coeff) == (1, None, None)
