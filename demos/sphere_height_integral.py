#!/usr/bin/env python3
"""Walk through the height-function integral on the round two-sphere.

The integrand exp(-t z) extends to an equivariantly closed superfunction
for the rotation about the z-axis.  Its integral then collapses to the
two poles, and the exact answer 2*pi*(e^t - e^-t)/t is reproduced three
ways: fixed-point sum, adaptive quadrature, and the closed form.
"""
from __future__ import annotations

import math
from fractions import Fraction

from superloc.actions import tautological_Q
from superloc.geometry import (
    atlas_fixed_points,
    height_exponential,
    sphere_atlas,
    sphere_oracle_patch,
)
from superloc.localize import super_localize
from superloc.oracle import global_berezin


def main() -> None:
    atlas = sphere_atlas()
    fields = {p.name: height_exponential(p) for p in atlas}
    Q = {p.name: tautological_Q(p.spec) for p in atlas}
    fps = atlas_fixed_points(atlas)
    patch = sphere_oracle_patch()
    # closedness is a fact about the integrand, so it is checked once, not per t
    assert all(Q[name].apply(F).is_zero() for name, F in fields.items())

    print("fixed points of the rotation:")
    for fp in fps:
        print("  chart %-6s at %s, orientation %+d" % (fp.chart_id, fp.point, fp.orientation))
    print()

    header = "%-6s %18s %18s %18s" % ("t", "fixed-point sum", "quadrature", "closed form")
    print(header)
    print("-" * len(header))
    for t in (Fraction(1, 2), Fraction(1), Fraction(2), Fraction(7, 2)):
        result = super_localize(fields, fps, binding={"t": t})
        oracle = global_berezin([patch], binding={"t": t}, tol=1e-10)
        closed = 2 * math.pi * (math.exp(t) - math.exp(-t)) / float(t)
        print("%-6s %18.12f %18.12f %18.12f" % (t, result["value"], oracle, closed))

    t = Fraction(1)
    result = super_localize(fields, fps, binding={"t": t})
    print()
    print("per-point contributions at t = 1:")
    for term in result["terms"]:
        print(
            "  %-6s F(p) = %+.6f, Sdet^(1/2) = %+.3f, contribution = %+.12f"
            % (term["chart"], term["value_at_point"], term["sqrt_sdet"], term["contribution"])
        )
    print("value assembled as %s * pi^%d" % (result["coefficient"], result["pi_power"]))


if __name__ == "__main__":
    main()
