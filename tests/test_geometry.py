"""Sphere and plane atlases, closed integrand families, and their localized values."""

from __future__ import annotations

import math
import random
from fractions import Fraction

import pytest

from superloc import scalars as sc
from superloc.actions import tautological_Q
from superloc.geometry import (
    annulus_domain,
    atlas_fixed_points,
    closed_polynomial,
    flat_box_domain,
    gaussian_oracle_patch,
    gaussian_rotation_form,
    height_exponential,
    plane_atlas,
    sphere_atlas,
    sphere_chart,
    sphere_oracle_patch,
    sphere_polynomial_patch,
)
from superloc.localize import (
    classical_localize,
    classical_prefactor,
    super_localize,
    super_prefactor,
)
from superloc.oracle import global_berezin, super_stokes_check
from superloc.grassmann import SuperFunction, parse_super


def _dh_value(t: float) -> float:
    return 2 * math.pi * (math.exp(t) - math.exp(-t)) / t


def test_sphere_chart_values():
    north = sphere_chart("north")
    south = sphere_chart("south")
    origin = {"x": Fraction(0), "y": Fraction(0)}
    assert sc.evaluate(north.z, origin) == 1
    assert sc.evaluate(south.z, origin) == -1
    assert sc.evaluate(north.omega_coeff, origin) == 4
    assert sc.evaluate(south.omega_coeff, origin) == -4
    assert sc.evaluate(north.h[0][0], origin) == 4
    assert north.orientation == 1 and south.orientation == -1
    with pytest.raises(ValueError):
        sphere_chart("equator")


def test_sphere_transition_consistency():
    # the inversion (x, y) -> (x, y)/r^2 must match heights and transform
    # the area coefficient with the (negative) transition Jacobian
    north = sphere_chart("north")
    south = sphere_chart("south")
    x, y = Fraction(3, 5), Fraction(-1, 2)
    r2 = x * x + y * y
    here = {"x": x, "y": y}
    there = {"x": x / r2, "y": y / r2}
    assert sc.evaluate(north.z, here) == sc.evaluate(south.z, there)
    jac = -1 / (r2 * r2)
    assert sc.evaluate(north.omega_coeff, here) == sc.evaluate(
        south.omega_coeff, there
    ) * jac


def test_height_exponential_is_closed():
    for patch in sphere_atlas():
        Q = tautological_Q(patch.spec)
        assert Q.apply(height_exponential(patch)).is_zero()


def test_closed_powers_are_closed():
    north = sphere_chart("north")
    Q = tautological_Q(north.spec)
    for k in range(5):
        assert Q.apply(closed_polynomial(north, [0] * k + [1])).is_zero()
    assert Q.apply(closed_polynomial(north, [2, 0, -3, 1])).is_zero()


def _power_sum(patch, coeffs) -> SuperFunction:
    """sum_k c_k (omega - t z)^k with each power normalized on its own and
    the sum taken through SuperFunction, one reduction per power where
    closed_polynomial reduces each coefficient once."""
    base = sc.ZERO - sc.sym("t") * patch.z
    total = SuperFunction.zero(patch.spec.chart)
    for k, c in enumerate(coeffs):
        terms = {(): sc.normalize(base ** k) if k else sc.ONE}
        if k:
            terms[(1, 2)] = sc.normalize(sc.rational(k) * base ** (k - 1) * patch.omega_coeff)
        total = total + Fraction(c) * SuperFunction(patch.spec.chart, terms)
    return total


def _power_sum_integrand(coeffs) -> sc.ScalarExpr:
    """sum_k k c_k (-t cos u)^(k-1) sin u, normalized once at the end."""
    u, t = sc.sym("u"), sc.sym("t")
    height = sc.ZERO - t * sc.cos(u)
    integrand = sc.ZERO
    for k, c in enumerate(coeffs[1:], start=1):
        integrand = integrand + sc.Rat(k * c) * height ** (k - 1) * sc.sin(u)
    return sc.normalize(integrand)


def _seeded_coefficient_lists(count: int):
    rng = random.Random(1313)
    pool = [0, 0, 1, -1, Fraction(3, 2), Fraction(-2, 7), 5]
    fixed = [[0], [0, 0, 0], [0, 1], [1, 0, -1], [2, 0, -3, 1, 0, 0]]
    drawn = [[rng.choice(pool) for _ in range(rng.randint(1, 8))] for _ in range(count - len(fixed))]
    return [[Fraction(c) for c in coeffs] for coeffs in fixed + drawn]


def test_horner_matches_the_power_sum():
    lists = _seeded_coefficient_lists(36)
    assert len(lists) >= 30 and {len(c) for c in lists} == set(range(1, 9))
    assert any(0 in c for c in lists) and any(c < 0 for cs in lists for c in cs)
    for coeffs in lists:
        for patch in sphere_atlas():
            assert closed_polynomial(patch, coeffs).terms == _power_sum(patch, coeffs).terms
        assert sphere_polynomial_patch(coeffs).integrand == _power_sum_integrand(coeffs)


def test_closed_polynomial_builds_three_normal_forms_per_chart(monkeypatch):
    # From cold kernel caches: the base -t z, the body and the theta^1
    # theta^2 coefficient. One normal form per degree for the body and again
    # for the slope builds 15 at 6 coefficients and 21 at 9.
    built = []
    normal_form = sc._normal_form

    def counted(p):
        built.append(p)
        return normal_form(p)

    monkeypatch.setattr(sc, "_normal_form", counted)
    lists = ([1, -2, 0, Fraction(3, 2), 5, -1], [2, 0, -1, 1, 3, Fraction(-2, 7), 0, 1, 4])
    for coeffs in lists:
        builds = [lambda patch=patch: closed_polynomial(patch, coeffs) for patch in sphere_atlas()]
        for build in builds + [lambda: sphere_polynomial_patch(coeffs)]:
            sc.normalize.cache_clear()
            sc._POLY.clear()
            built.clear()
            build()
            assert 0 < len(built) <= 3


@pytest.mark.parametrize(
    "atlas,charts,orientations,scale",
    [(sphere_atlas, ["north", "south"], [1, -1], 4), (plane_atlas, ["plane"], [1], 1)],
    ids=["sphere", "plane"],
)
def test_atlas_fixed_points_data(atlas, charts, orientations, scale):
    # one fixed point at each chart's origin, in atlas order; h is the
    # conformal sphere metric or the flat one, taken at the origin
    fps = atlas_fixed_points(atlas())
    assert [fp.chart_id for fp in fps] == charts
    assert [fp.orientation for fp in fps] == orientations
    for fp in fps:
        assert fp.coords == ("x", "y") and fp.point == (0, 0)
        assert fp.h == ((scale, 0), (0, scale))
        assert sc.evaluate(fp.L[0][1], {"t": Fraction(3)}) == 3
        assert sc.evaluate(fp.fiber[1][0], {"t": Fraction(3)}) == -3


def test_height_localization_all_routes():
    atlas = sphere_atlas()
    fps = atlas_fixed_points(atlas)
    fields = {p.name: height_exponential(p) for p in atlas}
    Q = {p.name: tautological_Q(p.spec) for p in atlas}
    patch = sphere_oracle_patch()
    assert all(Q[name].apply(F).is_zero() for name, F in fields.items())
    for tv in (0.5, 1.0, 2.0):
        sup = super_localize(fields, fps, binding={"t": tv})
        cla = classical_localize(fields, fps, binding={"t": tv})
        oracle = global_berezin((patch,), binding={"t": tv}, tol=1e-9)
        exact = _dh_value(tv)
        assert abs(sup["value"] - exact) < 1e-9 * abs(exact)
        assert abs(cla["value"] - exact) < 1e-9 * abs(exact)
        assert abs(oracle - exact) < 1e-7 * abs(exact)


def test_random_closed_family_reduction():
    # super and classical sums agree coefficient-for-coefficient, exactly
    rng = random.Random(527)
    atlas = sphere_atlas()
    fps = atlas_fixed_points(atlas)
    assert super_prefactor(2, 2) == classical_prefactor(2)
    for _ in range(6):
        coeffs = [rng.randint(-5, 5) for _ in range(rng.randint(1, 5))]
        tv = Fraction(rng.randint(1, 9), rng.randint(1, 4)) * rng.choice((1, -1))
        fields = {p.name: closed_polynomial(p, coeffs) for p in atlas}
        sup = super_localize(fields, fps, binding={"t": tv})
        cla = classical_localize(fields, fps, binding={"t": tv})
        assert sup["pi_power"] == cla["pi_power"] == 1
        assert sup["coefficient"] == cla["coefficient"]
        assert isinstance(sup["coefficient"], Fraction)


def test_flat_gaussian_localization():
    (plane,) = plane_atlas()
    Q = tautological_Q(plane.spec)
    F = gaussian_rotation_form()
    assert Q.apply(F).is_zero()
    fps = atlas_fixed_points((plane,))
    sup = super_localize({"plane": F}, fps, binding={"t": Fraction(2)})
    assert sup["coefficient"] == Fraction(-1) and sup["pi_power"] == 1
    oracle = global_berezin((gaussian_oracle_patch(),), binding={"t": 2.0}, tol=1e-8)
    assert abs(oracle - sup["value"]) < 1e-6 * abs(sup["value"])


def test_flat_box_domain_stokes():
    domain = flat_box_domain()
    Q = tautological_Q(domain.spec)
    nu = parse_super(domain.spec.chart, "x*th1")
    report = super_stokes_check(
        nu, Q, domain.h, domain.box,
        faces=domain.faces, tol=1e-8,
    )
    assert report["status"] == "pass"
    assert abs(report["bulk"]) < 1e-8 and abs(report["boundary"]) < 1e-8


def test_annulus_domain_stokes():
    domain = annulus_domain()
    Q = tautological_Q(domain.spec)
    nu = parse_super(domain.spec.chart, "r^3*th1 + (r^2 - 3*r)*th2")
    report = super_stokes_check(
        nu, Q, domain.h, domain.box,
        faces=domain.faces, tol=1e-7,
    )
    assert report["status"] == "pass"
    assert abs(report["bulk"] + 1.5 * math.pi) < 1e-7
