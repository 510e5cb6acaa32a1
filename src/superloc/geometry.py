"""Worked geometries for the scenario suite.

Each geometry is an atlas of charts with one fixed point at each chart's
origin. The round two-sphere with its rotation action is the central
example: two stereographic charts related by an orientation-reversing
inversion, with the height function and the area density written per
chart. The flat plane with the same rotation is a one-chart atlas. A flat
box and an annulus in polar coordinates cover the boundary-identity
scenarios.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Optional

from . import scalars as sc
from .actions import ActionSpec, action_lift
from .grassmann import SuperChart, SuperFunction
from .linalg import identity
from .localize import find_fixed_points
from .oracle import OraclePatch
from .records import Record
from .scalars import ScalarExpr

X = sc.sym("x")
Y = sc.sym("y")
T = sc.sym("t")
U = sc.sym("u")

PLANE_CHART = SuperChart(("x", "y"), 2)
PLANE_ROTATION = ActionSpec(("t",), PLANE_CHART, ((sc.ZERO - Y, X),))

# The torus on C^2 in holomorphic coordinates z_j = x_j + i y_j and
# zb_j = x_j - i y_j. Turning the j-th plane at real speed e_j moves z_j by
# epsilon_j z_j and zb_j by -epsilon_j zb_j, with epsilon_j = i e_j; the
# parameters "e1" and "e2" name epsilon_1 and epsilon_2, so every
# coefficient is rational.
C2_TORUS = ActionSpec(
    ("e1", "e2"),
    SuperChart(("z1", "zb1", "z2", "zb2"), 2),
    (
        (sc.sym("z1"), -sc.sym("zb1"), sc.ZERO, sc.ZERO),
        (sc.ZERO, sc.ZERO, sc.sym("z2"), -sc.sym("zb2")),
    ),
)


class AtlasChart(Record):
    """One chart of an atlas: its action, metric h and orientation, with the
    fixed point at its origin.

    A sphere chart covers the sphere minus the opposite pole and also
    carries z, the height function, and omega_coeff, the theta^1 theta^2
    coefficient of the area form, both written in this chart. The southern
    chart is reached by the inversion (x, y) -> (x, y)/r^2, which reverses
    orientation, so its orientation flag, z, and area coefficient all flip
    sign.
    """

    __slots__ = ("name", "spec", "h", "orientation", "z", "omega_coeff")

    def __init__(self, name: str, spec: ActionSpec, h: tuple, orientation: int = 1,
                 z: Optional[ScalarExpr] = None, omega_coeff: Optional[ScalarExpr] = None) -> None:
        self.name = name
        self.spec = spec
        self.h = h
        self.orientation = orientation
        self.z = z
        self.omega_coeff = omega_coeff


def sphere_chart(name: str) -> AtlasChart:
    if name not in ("north", "south"):
        raise ValueError("chart name must be north or south")
    sign = 1 if name == "north" else -1
    den = sc.rational(1) + X * X + Y * Y
    conformal = sc.rational(4) * den ** (-2)
    h = ((conformal, sc.ZERO), (sc.ZERO, conformal))
    z = sc.rational(sign) * (sc.rational(1) - X * X - Y * Y) * den ** (-1)
    omega = sc.rational(4 * sign) * den ** (-2)
    return AtlasChart(name, PLANE_ROTATION, h, sign, z, omega)


def sphere_atlas():
    return (sphere_chart("north"), sphere_chart("south"))


def plane_atlas():
    return (AtlasChart("plane", PLANE_ROTATION, tuple(map(tuple, identity(2)))),)


def atlas_fixed_points(atlas):
    """The fixed point at each chart's origin, in atlas order."""
    return [
        find_fixed_points(
            action_lift(chart.spec),
            declared=[(0,) * chart.spec.chart.m],
            h=chart.h,
            chart_id=chart.name,
            orientation=chart.orientation,
        )[0]
        for chart in atlas
    ]


def height_exponential(patch: AtlasChart) -> SuperFunction:
    """exp(-t z) (1 + omega): the closed integrand whose localized value
    has the closed form 2 pi (e^t - e^{-t}) / t."""
    body = sc.exp(sc.ZERO - T * patch.z)
    return SuperFunction(patch.spec.chart, {(): body, (1, 2): body * patch.omega_coeff})


def _polynomial(base: ScalarExpr, coeffs) -> ScalarExpr:
    """sum_k coeffs[k] base^k as one sum, left for a single normalize."""
    return sc.Add(tuple(Fraction(c) * base ** k for k, c in enumerate(coeffs) if c))


def _derivative(coeffs) -> list:
    """The coefficients of p' for p = sum_k coeffs[k] s^k."""
    return [k * Fraction(c) for k, c in enumerate(coeffs)][1:]


def closed_polynomial(patch: AtlasChart, coeffs) -> SuperFunction:
    """sum_k coeffs[k] (omega - t z)^k: its body is p(-t z) and its
    theta^1 theta^2 coefficient p'(-t z) omega, p = sum_k coeffs[k] s^k,
    each reduced once by SuperFunction."""
    base = sc.normalize(sc.ZERO - T * patch.z)
    top = _polynomial(base, _derivative(coeffs)) * patch.omega_coeff
    return SuperFunction(patch.spec.chart, {(): _polynomial(base, coeffs), (1, 2): top})


def _angle_patch(integrand: ScalarExpr) -> OraclePatch:
    """Angle coordinates (colatitude u, azimuth v) cover the sphere up to a
    measure-zero set; an integrand of the height alone is a 1D profile."""
    return OraclePatch(("u", "v"), ((0.0, math.pi), (0.0, 2 * math.pi)), integrand)


def sphere_oracle_patch() -> OraclePatch:
    return _angle_patch(sc.exp(sc.ZERO - T * sc.cos(U)) * sc.sin(U))


def sphere_polynomial_patch(coeffs) -> OraclePatch:
    """closed_polynomial's top component in angle coordinates, p'(-t cos u) sin u."""
    height = sc.normalize(sc.ZERO - T * sc.cos(U))
    return _angle_patch(sc.normalize(_polynomial(height, _derivative(coeffs)) * sc.sin(U)))


def gaussian_rotation_form() -> SuperFunction:
    """(1 - theta^1 theta^2) exp(-(t/2) r^2) on the flat plane, closed for
    the rotation field and integrable at infinity for t > 0."""
    body = sc.exp(sc.rational(-1, 2) * T * (X * X + Y * Y))
    return SuperFunction(PLANE_CHART, {(): body, (1, 2): sc.ZERO - body})


GAUSSIAN_HALF_WIDTH = 14.0  # the Gaussian's tail beyond it is far below the tolerances used


def gaussian_oracle_patch() -> OraclePatch:
    """Top component of the flat Gaussian integrand on the box of half width
    GAUSSIAN_HALF_WIDTH."""
    body = sc.exp(sc.rational(-1, 2) * T * (X * X + Y * Y))
    w = GAUSSIAN_HALF_WIDTH
    return OraclePatch(("x", "y"), ((-w, w), (-w, w)), sc.normalize(sc.ZERO - body))


class DomainData(Record):
    """A coordinate box with metric and action data for boundary checks;
    the chart is the action's."""

    __slots__ = ("spec", "h", "box", "faces")

    def __init__(self, spec: ActionSpec, h: tuple, box: tuple, faces: Optional[tuple]) -> None:
        self.spec = spec
        self.h = h
        self.box = box
        self.faces = faces


def flat_box_domain() -> DomainData:
    eye = ((sc.ONE, sc.ZERO), (sc.ZERO, sc.ONE))
    return DomainData(PLANE_ROTATION, eye, ((0.0, 1.0), (0.0, 1.0)), None)


ANNULUS_INNER = 0.5  # the inner radius keeps the rotation fixed point outside


def annulus_domain() -> DomainData:
    """Polar coordinates on the plane, radial faces only; the angle is
    periodic."""
    r = sc.sym("r")
    spec = ActionSpec(("t",), SuperChart(("r", "phi"), 2), ((sc.ZERO, sc.ONE),))
    h = ((sc.ONE, sc.ZERO), (sc.ZERO, r * r))
    return DomainData(spec, h, ((ANNULUS_INNER, 1.0), (0.0, 2 * math.pi)), ((0, 1), (0, -1)))
