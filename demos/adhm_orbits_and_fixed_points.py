#!/usr/bin/env python3
"""Tour the matrix data: constraints, group orbits, torus fixed points.

A datum is a binding of the chart's real coordinates.  All arithmetic
here is exact: unitaries, in real form, come from a Cayley transform of
random anti-hermitian matrices and phases from Pythagorean triples, so
the invariance of the constraint norms is checked to the last digit.
"""
from __future__ import annotations

import random

from superloc import scalars as sc
from superloc.adhm import (
    adhm_constraint_scalars,
    adhm_fixed_points,
    adhm_super_chart,
    group_act,
    random_datum,
    random_unitary,
    rank_bookkeeping,
    unit_phase,
)


def print_norms(lay, V, binding) -> None:
    values = [sc.evaluate(v, binding) for v in V]
    split = 2 * lay.k * lay.k
    print("  |c_R|^2 = %s" % sum(x * x for x in values[:split]))
    print("  |c_C|^2 = %s" % sum(x * x for x in values[split:]))


def main() -> None:
    rng = random.Random(7)
    lay = adhm_super_chart(2, 3)
    V = adhm_constraint_scalars(lay)
    d = random_datum(lay, rng)
    print("random data at k=2, N=3 (moduli dimension %d):" % rank_bookkeeping(2, 3, 2))
    print_norms(lay, V, d)

    moved = group_act(lay, d, random_unitary(2, rng), random_unitary(3, rng),
                      unit_phase(rng), unit_phase(rng))
    print("after a random U(2) x U(3) x T^2 element:")
    print_norms(lay, V, moved)
    print()

    print("torus fixed points at k=1, N=2 (resolution parameter 1):")
    fixed = adhm_super_chart(1, 2)
    for fp in adhm_fixed_points(fixed, adhm_constraint_scalars(fixed)):
        print("  class r=%d: phi = %s" % (fp.r, sc.to_text(fp.phi)))
        nonzero = ["%s = %s" % (name, x) for name, x in fp.binding.items() if x]
        print("    nonzero coordinates: %s" % ", ".join(nonzero))
        print("    tangent weights: %s" % ", ".join(sc.to_text(w) for w in fp.weights))
    print()

    print("bundle ranks over the k,N moduli space:")
    print("  %-8s %8s %8s %8s" % ("(k,N)", "susy 1", "susy 2", "susy 4"))
    for k, N in ((1, 2), (2, 2), (2, 3), (3, 4)):
        print(
            "  %-8s %8d %8d %8d"
            % (
                "(%d,%d)" % (k, N),
                rank_bookkeeping(k, N, 1),
                rank_bookkeeping(k, N, 2),
                rank_bookkeeping(k, N, 4),
            )
        )


if __name__ == "__main__":
    main()
