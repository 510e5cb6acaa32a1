#!/usr/bin/env python3
"""Tour the matrix data: constraints, group orbits, torus fixed points.

All arithmetic here is exact.  Unitaries come from a Cayley transform of
random anti-hermitian matrices and phases from Pythagorean triples, so
the invariance of the constraint norms is checked to the last digit.
"""
from __future__ import annotations

import random

from superloc import scalars as sc
from superloc.adhm import (
    GroupElement,
    adhm_fixed_points,
    constraint_complex,
    constraint_real,
    group_act,
    nmat_norm2,
    random_adhm_data,
    random_unitary,
    rank_bookkeeping,
    unit_phase,
)


def main() -> None:
    rng = random.Random(7)
    d = random_adhm_data(2, 3, rng)
    print("random data at k=2, N=3 (moduli dimension %d):" % d.moduli_dimension)
    print("  |c_R|^2 = %s" % nmat_norm2(constraint_real(d)))
    print("  |c_C|^2 = %s" % nmat_norm2(constraint_complex(d)))

    g = GroupElement(
        U=random_unitary(2, rng),
        V=random_unitary(3, rng),
        t1=unit_phase(rng),
        t2=unit_phase(rng),
    )
    moved = group_act(g, d)
    print("after a random U(2) x U(3) x T^2 element:")
    print("  |c_R|^2 = %s" % nmat_norm2(constraint_real(moved)))
    print("  |c_C|^2 = %s" % nmat_norm2(constraint_complex(moved)))
    print()

    print("torus fixed points at k=1, N=2 (resolution parameter 1):")
    for fp in adhm_fixed_points(1, 2):
        print("  class r=%d: phi = %s" % (fp.r, sc.to_text(fp.phi)))
        print("    I = %s" % ([[str(c.as_complex()) for c in row] for row in fp.data.I],))
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
