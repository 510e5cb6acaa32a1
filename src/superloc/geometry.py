"""Worked geometries for the scenario suite.

Each geometry is an atlas of charts, each with one fixed point at its
origin and the closed form omega - t z written in it. The round two-sphere
with its rotation action is the central example: two stereographic charts
related by an orientation-reversing inversion. The flat plane with the same
rotation is a one-chart atlas. `closed_integrand` builds f(omega - t z) and
`oracle_patch` its top component. A flat box and an annulus in polar
coordinates cover the boundary-identity scenarios.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import NamedTuple, Optional

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
    fixed point at its origin, and the closed form omega - t z written in
    it: z, the height function, and omega_coeff, the theta^1 theta^2
    coefficient of omega.

    A sphere chart covers the sphere minus the opposite pole. The southern
    chart is reached by the inversion (x, y) -> (x, y)/r^2, which reverses
    orientation, so its orientation flag, z, and area coefficient all flip
    sign. The plane chart has z = r^2/2 and omega = -theta^1 theta^2.
    """

    __slots__ = ("name", "spec", "h", "orientation", "z", "omega_coeff")

    def __init__(self, name: str, spec: ActionSpec, h: tuple, orientation: int,
                 z: ScalarExpr, omega_coeff: ScalarExpr) -> None:
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


PLANE_HEIGHT = sc.rational(1, 2) * (X * X + Y * Y)


def plane_atlas():
    h = tuple(map(tuple, identity(2)))
    return (AtlasChart("plane", PLANE_ROTATION, h, 1, PLANE_HEIGHT, sc.MINUS_ONE),)


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


# An integrand f(omega - t z) is given by the pair (f, f') of functions
# from a scalar expression s to f(s) and f'(s).
EXPONENTIAL = (sc.exp, sc.exp)


def power_sums(coeffs) -> tuple:
    """(p, p') for p = sum_k coeffs[k] s^k. Each is one sum of powers of the
    normal form of s, with no Horner's rule, left for a single normalize."""
    def power_sum(cs):
        def value(s: ScalarExpr) -> ScalarExpr:
            base = sc.normalize(s)
            return sc.Add(tuple(Fraction(c) * base ** k for k, c in enumerate(cs) if c))
        return value

    return power_sum(coeffs), power_sum([k * Fraction(c) for k, c in enumerate(coeffs)][1:])


def closed_integrand(chart: AtlasChart, f: tuple) -> SuperFunction:
    """f(omega - t z) = f(-t z) + f'(-t z) omega theta^1 theta^2 on a chart
    with two odd generators, where omega^2 = 0, for f = (f, f'). The raw
    -t z goes to f and f', and SuperFunction reduces each component once."""
    value, slope = f
    base = sc.ZERO - T * chart.z
    return SuperFunction(chart.spec.chart, {(): value(base), (1, 2): slope(base) * chart.omega_coeff})


class OracleRegion(NamedTuple):
    """The oracle's coordinates on a geometry and their box, with the
    height z and the area density written in them."""

    coords: tuple
    box: tuple
    height: ScalarExpr
    density: ScalarExpr


# Angle coordinates (colatitude u, azimuth v) cover the sphere up to a
# measure-zero set; the Gaussian's tail beyond half width 14 is far below
# the tolerances used.
SPHERE_REGION = OracleRegion(("u", "v"), ((0.0, math.pi), (0.0, 2 * math.pi)), sc.cos(U), sc.sin(U))
PLANE_REGION = OracleRegion(("x", "y"), ((-14.0, 14.0), (-14.0, 14.0)), PLANE_HEIGHT, sc.MINUS_ONE)


def oracle_patch(region: OracleRegion, slope) -> OraclePatch:
    """The top component f'(-t z) omega of f(omega - t z) on the region,
    left for the one normalize of the oracle's compiler."""
    integrand = slope(sc.ZERO - T * region.height) * region.density
    return OraclePatch(region.coords, region.box, integrand)


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
