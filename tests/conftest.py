from __future__ import annotations

from fractions import Fraction

import pytest

from superloc import scalars as sc
from superloc.adhm import adhm_constraint_scalars
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


_CONSTRAINTS = {}


def adhm_constraint_values(lay, binding) -> tuple:
    """The real and the complex constraint block at a datum, each as the
    flat (re, im, re, im, ...) values of `adhm_constraint_scalars`."""
    key = (lay.k, lay.N, lay.full)
    if key not in _CONSTRAINTS:
        _CONSTRAINTS[key] = adhm_constraint_scalars(lay)
    values = [sc.evaluate(v, binding) for v in _CONSTRAINTS[key]]
    split = 2 * lay.k * lay.k
    return values[:split], values[split:]


def adhm_constraint_norms(lay, binding) -> tuple:
    """|c_R|^2 and |c_C|^2 at a datum, exact on a Fraction binding."""
    return tuple(sum(x * x for x in block) for block in adhm_constraint_values(lay, binding))


@pytest.fixture
def constraint_values():
    return adhm_constraint_values


@pytest.fixture
def constraint_norms():
    return adhm_constraint_norms
