from __future__ import annotations

from fractions import Fraction

import pytest

from superloc.grassmann import SuperVectorField, graded_commutator


def reference_square_residual(Q: SuperVectorField, lift: SuperVectorField) -> SuperVectorField:
    """(1/2)[Q, Q] - lift from the two-sided graded commutator
    Q∘Q - (-1)^{|Q||Q|} Q∘Q, the definition that actions.square_residual
    shortcuts by applying Q once."""
    square = graded_commutator(Q, Q)

    def comp(s, flow):
        return Fraction(1, 2) * s - flow

    return SuperVectorField(
        Q.chart, 0, tuple(map(comp, square.a, lift.a)), tuple(map(comp, square.b, lift.b))
    )


@pytest.fixture
def square_reference():
    return reference_square_residual
