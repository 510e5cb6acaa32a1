#!/usr/bin/env python3
"""Show that the odd operators square to the lifted group flow.

Three operators are built and squared symbolically: the tautological one
on the plane rotation, the complex-structure variant on C^2, and the
matrix-model operator at k=1, N=2 with and without the multiplier
sector.  In every case (1/2)[Q, Q] equals the lift of the fundamental
vector field, which is the whole content of the closure condition.

`verify_brst(Q, lift, params)` checks Q against the lifted field it is
handed, at symbolic group parameters: the same lift that the closure line
prints, derived once per action.
"""
from __future__ import annotations

from superloc import scalars as sc
from superloc.actions import (
    action_lift,
    kahler_Q,
    kahler_lift,
    square_residual,
    tautological_Q,
    verify_brst,
)
from superloc.adhm import (
    adhm_Q_full,
    adhm_Q_unconstrained,
    adhm_lifted_field,
    adhm_super_chart,
)
from superloc.geometry import C2_TORUS, PLANE_ROTATION
from superloc.grassmann import field_is_zero, to_super_text


def closes(Q, lift) -> bool:
    return field_is_zero(square_residual(Q, lift))


def main() -> None:
    Q = tautological_Q(PLANE_ROTATION)
    print("plane rotation, tautological operator:")
    for idx, name in enumerate(PLANE_ROTATION.chart.coords):
        print("  Q(%s) = %s" % (name, to_super_text(Q.a[idx])))
    for A in range(PLANE_ROTATION.chart.n):
        print("  Q(th%d) = %s" % (A + 1, sc.to_text(Q.b[A].body())))
    lift = action_lift(PLANE_ROTATION)
    print("  squares to lifted flow:", closes(Q, lift))
    print()

    print("torus action on C^2, complex-structure operator:")
    report = verify_brst(kahler_Q(C2_TORUS), kahler_lift(C2_TORUS), C2_TORUS.params)
    for cond in report["conditions"]:
        print("  %-28s %s" % (cond["name"], cond["status"]))
    print("  all conditions hold:", report["passed"])
    print()

    for full in (False, True):
        lay = adhm_super_chart(1, 2, full=full)
        Q = (adhm_Q_full if full else adhm_Q_unconstrained)(lay)
        lift = adhm_lifted_field(lay)
        label = "with multipliers" if full else "matter only"
        print("matrix model k=1, N=2 (%s):" % label)
        print("  coordinates: %d even, %d odd" % (lay.chart.m, lay.chart.n))
        print("  squares to lifted flow:", closes(Q, lift))
        if not full:
            report = verify_brst(Q, lift, lay.params)
            print("  all BRST conditions hold:", report["passed"])
        sample = lay.chart.coords[0]
        idx = lay.chart.coords.index(sample)
        print("  Q(%s) = %s" % (sample, to_super_text(Q.a[idx])))
        print()


if __name__ == "__main__":
    main()
