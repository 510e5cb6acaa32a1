"""Complexified superfunctions as real/imaginary pairs.

The Grassmann kernel is real; complex-valued superfunctions are pairs
(re, im) over the same chart, and complex supervector fields carry pair
components. Matrix helpers cover the complex matrix algebra needed for
moment-map style constraints.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence, Tuple

from . import scalars as sc
from .errors import DimensionMismatch, ShapeMismatch
from .grassmann import SuperChart, SuperFunction, even_partial, odd_partial


@dataclass(frozen=True)
class CSuper:
    """Complex superfunction re + i*im."""

    re: SuperFunction
    im: SuperFunction

    def __post_init__(self) -> None:
        if self.re.chart != self.im.chart:
            raise DimensionMismatch("real and imaginary parts on different charts")

    @property
    def chart(self) -> SuperChart:
        return self.re.chart

    @staticmethod
    def real(f: SuperFunction) -> "CSuper":
        return CSuper(f, SuperFunction.zero(f.chart))

    @staticmethod
    def imag(f: SuperFunction) -> "CSuper":
        return CSuper(SuperFunction.zero(f.chart), f)

    @staticmethod
    def zero(chart: SuperChart) -> "CSuper":
        z = SuperFunction.zero(chart)
        return CSuper(z, z)

    @staticmethod
    def one(chart: SuperChart) -> "CSuper":
        return CSuper(SuperFunction.one(chart), SuperFunction.zero(chart))

    def __add__(self, other: "CSuper") -> "CSuper":
        other = _coerce(self.chart, other)
        return CSuper(self.re + other.re, self.im + other.im)

    __radd__ = __add__

    def __sub__(self, other: "CSuper") -> "CSuper":
        other = _coerce(self.chart, other)
        return CSuper(self.re - other.re, self.im - other.im)

    def __neg__(self) -> "CSuper":
        return CSuper(-self.re, -self.im)

    def __mul__(self, other) -> "CSuper":
        other = _coerce(self.chart, other)
        return CSuper(
            self.re * other.re - self.im * other.im,
            self.re * other.im + self.im * other.re,
        )

    __rmul__ = __mul__

    def conj(self) -> "CSuper":
        return CSuper(self.re, -self.im)

    def is_zero(self) -> bool:
        return self.re.is_zero() and self.im.is_zero()

    def parity(self):
        ps = {p for p in (self.re.parity(), self.im.parity()) if p is not None}
        if len(ps) == 1:
            return ps.pop()
        return None


def _coerce(chart: SuperChart, value) -> CSuper:
    if isinstance(value, CSuper):
        return value
    if isinstance(value, SuperFunction):
        return CSuper.real(value)
    if isinstance(value, sc.ScalarExpr):
        return CSuper.real(SuperFunction.from_scalar(chart, value))
    if isinstance(value, (int, Fraction)):
        return CSuper.real(SuperFunction.from_scalar(chart, value))
    if isinstance(value, tuple) and len(value) == 2:
        return CSuper(_as_sf(chart, value[0]), _as_sf(chart, value[1]))
    raise TypeError("cannot interpret %r as a complex superfunction" % (value,))


def _as_sf(chart: SuperChart, value) -> SuperFunction:
    if isinstance(value, SuperFunction):
        return value
    if isinstance(value, sc.ScalarExpr):
        return SuperFunction.from_scalar(chart, value)
    return SuperFunction.from_scalar(chart, value)


@dataclass(frozen=True)
class CField:
    """Complex odd or even derivation with CSuper components."""

    chart: SuperChart
    parity: int
    a: Tuple[CSuper, ...]
    b: Tuple[CSuper, ...]

    def __post_init__(self) -> None:
        if len(self.a) != self.chart.m or len(self.b) != self.chart.n:
            raise DimensionMismatch(
                "field needs %d even and %d odd components" % (self.chart.m, self.chart.n)
            )
        object.__setattr__(self, "a", tuple(self.a))
        object.__setattr__(self, "b", tuple(self.b))

    def apply(self, f: CSuper) -> CSuper:
        f = _coerce(self.chart, f)
        out = CSuper.zero(self.chart)
        for i, comp in enumerate(self.a, start=1):
            if not comp.is_zero():
                out = out + comp * CSuper(even_partial(f.re, i), even_partial(f.im, i))
        for A, comp in enumerate(self.b, start=1):
            if not comp.is_zero():
                out = out + comp * CSuper(odd_partial(f.re, A), odd_partial(f.im, A))
        return out

    def is_zero(self) -> bool:
        return all(c.is_zero() for c in self.a) and all(c.is_zero() for c in self.b)


def c_graded_commutator(X: CField, Y: CField) -> CField:
    if X.chart != Y.chart:
        raise DimensionMismatch("fields live on different charts")
    sign = (-1) ** (X.parity * Y.parity)
    a = []
    for i in range(X.chart.m):
        left = X.apply(Y.a[i])
        right = Y.apply(X.a[i])
        a.append(left - right if sign > 0 else left + right)
    b = []
    for A in range(X.chart.n):
        left = X.apply(Y.b[A])
        right = Y.apply(X.b[A])
        b.append(left - right if sign > 0 else left + right)
    return CField(X.chart, (X.parity + Y.parity) % 2, tuple(a), tuple(b))


def c_field_sub(X: CField, Y: CField) -> CField:
    if X.parity != Y.parity:
        raise DimensionMismatch("cannot subtract fields of different parity")
    return CField(
        X.chart,
        X.parity,
        tuple(x - y for x, y in zip(X.a, Y.a)),
        tuple(x - y for x, y in zip(X.b, Y.b)),
    )


def c_field_scale(X: CField, factor) -> CField:
    factor = _coerce(X.chart, factor)
    return CField(
        X.chart,
        X.parity,
        tuple(factor * c for c in X.a),
        tuple(factor * c for c in X.b),
    )


# ---------------------------------------------------------------------------
# Complex matrices of superfunctions.
# ---------------------------------------------------------------------------

CMatrix = Sequence[Sequence[CSuper]]


def cmat_shape(A: CMatrix) -> tuple:
    rows = len(A)
    if rows == 0:
        return (0, 0)
    cols = len(A[0])
    if any(len(r) != cols for r in A):
        raise ShapeMismatch("ragged complex matrix")
    return (rows, cols)


def cmat_add(A: CMatrix, B: CMatrix) -> list:
    if cmat_shape(A) != cmat_shape(B):
        raise ShapeMismatch("matrix shapes disagree")
    return [[x + y for x, y in zip(ra, rb)] for ra, rb in zip(A, B)]


def cmat_sub(A: CMatrix, B: CMatrix) -> list:
    if cmat_shape(A) != cmat_shape(B):
        raise ShapeMismatch("matrix shapes disagree")
    return [[x - y for x, y in zip(ra, rb)] for ra, rb in zip(A, B)]


def cmat_neg(A: CMatrix) -> list:
    return [[-x for x in row] for row in A]


def cmat_mul(A: CMatrix, B: CMatrix) -> list:
    ra, ca = cmat_shape(A)
    rb, cb = cmat_shape(B)
    if ca != rb:
        raise ShapeMismatch("inner dimensions disagree (%d vs %d)" % (ca, rb))
    out = []
    for i in range(ra):
        row = []
        for j in range(cb):
            acc = A[i][0] * B[0][j]
            for k in range(1, ca):
                acc = acc + A[i][k] * B[k][j]
            row.append(acc)
        out.append(row)
    return out


def cmat_scale(A: CMatrix, factor) -> list:
    return [[_coerce(x.chart, factor) * x for x in row] for row in A]


def cmat_dagger(A: CMatrix) -> list:
    """Conjugate transpose; correct for matrices of even entries."""
    rows, cols = cmat_shape(A)
    return [[A[i][j].conj() for i in range(rows)] for j in range(cols)]


def cmat_commutator(A: CMatrix, B: CMatrix) -> list:
    return cmat_sub(cmat_mul(A, B), cmat_mul(B, A))


def cmat_is_zero(A: CMatrix) -> bool:
    return all(x.is_zero() for row in A for x in row)


def cmat_trace(A: CMatrix) -> CSuper:
    rows, cols = cmat_shape(A)
    if rows != cols:
        raise ShapeMismatch("trace needs a square matrix")
    acc = A[0][0]
    for i in range(1, rows):
        acc = acc + A[i][i]
    return acc
