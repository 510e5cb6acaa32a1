from __future__ import annotations

from fractions import Fraction
from itertools import product

import pytest

from superloc import oracle
from superloc import scalars as sc
from superloc.adhm import adhm_constraint_scalars
from superloc.grassmann import SuperFunction, SuperVectorField
from superloc.linalg import mat_add, mat_commutator, mat_mul, mat_scale, mat_sub


def reference_graded_commutator(X: SuperVectorField, Y: SuperVectorField) -> SuperVectorField:
    """[X, Y] = X Y - (-1)^{|X||Y|} Y X from two applications and one
    subtraction per component: the definition that
    grassmann.graded_commutator sums in one combine per coefficient."""
    sign = (-1) ** (X.parity * Y.parity)

    def comp(y, x):
        left, right = X.apply(y), Y.apply(x)
        return left - right if sign > 0 else left + right

    return SuperVectorField(
        X.chart, (X.parity + Y.parity) % 2, tuple(map(comp, Y.a, X.a)), tuple(map(comp, Y.b, X.b))
    )


def reference_square_residual(Q: SuperVectorField, lift: SuperVectorField) -> SuperVectorField:
    """(1/2)[Q, Q] - lift from the two-sided graded commutator
    Q∘Q - (-1)^{|Q||Q|} Q∘Q, the definition that square_residual
    shortcuts by applying Q once."""
    square = reference_graded_commutator(Q, Q)

    def comp(s, flow):
        return Fraction(1, 2) * s - flow

    return SuperVectorField(
        Q.chart, 0, tuple(map(comp, square.a, lift.a)), tuple(map(comp, square.b, lift.b))
    )


@pytest.fixture
def square_reference():
    return reference_square_residual


@pytest.fixture
def commutator_reference():
    return reference_graded_commutator


def reference_point_rule(f):
    """The cell rule of a function of one point, for `oracle.quadrature`:
    f is called at each point of the tensor grid in `product` order.  The
    per-point reference that `scalars.compile_rule` is checked against."""

    def rule(axes) -> float:
        total = 0.0
        for w, point in zip(oracle._tensor_weights(len(axes)), product(*axes)):
            total += w * f(point)
        return total

    return rule


@pytest.fixture
def point_rule():
    return reference_point_rule


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


class ComplexPair:
    """re + i*im over any ring with + - *, such as superfunctions: the
    entries of the dense reference below.  A factor that is not a pair is
    real, and every product keeps its factors in order, so odd parts
    anticommute as they should."""

    __slots__ = ("re", "im")

    def __init__(self, re, im):
        self.re = re
        self.im = im

    def __add__(self, other):
        return ComplexPair(self.re + other.re, self.im + other.im)

    def __sub__(self, other):
        return ComplexPair(self.re - other.re, self.im - other.im)

    def __neg__(self):
        return ComplexPair(-self.re, -self.im)

    def __mul__(self, other):
        if not isinstance(other, ComplexPair):
            return ComplexPair(self.re * other, self.im * other)
        return ComplexPair(
            self.re * other.re - self.im * other.im, self.re * other.im + self.im * other.re
        )

    def is_zero(self) -> bool:
        return self.re.is_zero() and self.im.is_zero()


@pytest.fixture
def complex_pair():
    return ComplexPair


# An independent statement of the ADHM flow as dense matrix products: each
# sector's matrix X of complex bosons, or of their odd partners, moves by
# L X - X R + (n1 e1 + n2 e2) X, where L and R are i diag(phi_1, .., phi_k)
# or i diag(a_1, .., a_(N-1), -a_1 - .. - a_(N-1)) and e1, e2 carry a
# factor i.  The table repeats the charges by hand, in chart order.
_DENSE_CHARGES = {
    "B1": ("phi", "phi", (1, 0)),
    "B2": ("phi", "phi", (0, 1)),
    "I": ("phi", "a", (0, 0)),
    "J": ("a", "phi", (1, 1)),
    "HR": ("phi", "phi", (0, 0)),
    "HC": ("phi", "phi", (1, 1)),
    "PB": ("phi", "phi", (0, 0)),
}


def adhm_cartan_matrices(lay) -> dict:
    """i diag(phi), the traceless i diag(a) and i e1, i e2 as complex pairs."""
    chart = lay.chart
    zero = SuperFunction.zero(chart)

    def imag(e) -> ComplexPair:
        return ComplexPair(zero, SuperFunction.from_scalar(chart, e))

    a = [sc.sym("a%d" % (r + 1,)) for r in range(lay.N - 1)]
    a.append(sc.ZERO - sum(a, sc.ZERO))
    diagonals = {"phi": [sc.sym("phi%d" % (p + 1,)) for p in range(lay.k)], "a": a}
    nought = ComplexPair(zero, zero)
    out = {
        name: [[imag(d[i]) if i == j else nought for j in range(len(d))] for i in range(len(d))]
        for name, d in diagonals.items()
    }
    out["e1"], out["e2"] = imag(sc.sym("e1")), imag(sc.sym("e2"))
    return out


def adhm_boson_matrix(lay, sector) -> list:
    """The complex bosons of a sector: the real coordinates q and q + 1
    are the real and imaginary part of one entry."""
    chart, (rows, cols) = lay.chart, lay.shape(sector)

    def entry(i, j) -> ComplexPair:
        q = lay.coord_index(sector, i, j)
        return ComplexPair(
            *(SuperFunction.from_scalar(chart, sc.sym(x)) for x in chart.coords[q:q + 2])
        )

    return [[entry(i, j) for j in range(cols)] for i in range(rows)]


def adhm_fermion_matrix(lay, sector) -> list:
    """The odd partners of a sector's entries: generators q + 1 and q + 2
    pair with the real coordinates q and q + 1."""
    rows, cols = lay.shape(sector)

    def entry(i, j) -> ComplexPair:
        q = lay.coord_index(sector, i, j)
        return ComplexPair(
            SuperFunction.generator(lay.chart, q + 1), SuperFunction.generator(lay.chart, q + 2)
        )

    return [[entry(i, j) for j in range(cols)] for i in range(rows)]


def dense_adhm_fields(lay) -> dict:
    """The lift on every sector, Q on the matter sectors and, on a full
    chart, Q on every sector, built from the dense products: Q X = psi and
    Q psi = dX, except on HR and HC, where Q psi = X and Q X = d psi."""
    cartan = adhm_cartan_matrices(lay)

    def move(name, X) -> list:
        left, right, (n1, n2) = _DENSE_CHARGES[name]
        out = mat_sub(mat_mul(cartan[left], X), mat_mul(X, cartan[right]))
        return mat_add(out, mat_scale(X, cartan["e1"] * n1 + cartan["e2"] * n2))

    def field(parity, names) -> SuperVectorField:
        zero = SuperFunction.zero(lay.chart)
        a, b = [zero] * lay.chart.m, [zero] * lay.chart.n
        for name in names:
            X, psi = adhm_boson_matrix(lay, name), adhm_fermion_matrix(lay, name)
            if parity == 0:
                even, odd = move(name, X), move(name, psi)
            elif name in ("HR", "HC"):
                even, odd = move(name, psi), X
            else:
                even, odd = psi, move(name, X)
            for i, row in enumerate(X):
                for j in range(len(row)):
                    q = lay.coord_index(name, i, j)
                    a[q], a[q + 1] = even[i][j].re, even[i][j].im
                    b[q], b[q + 1] = odd[i][j].re, odd[i][j].im
        return SuperVectorField(lay.chart, parity, tuple(a), tuple(b))

    sectors = [name for name, _, _ in lay.sectors]
    out = {"lift": field(0, sectors), "Q_unconstrained": field(1, ("B1", "B2", "I", "J"))}
    if lay.full:
        out["Q_full"] = field(1, sectors)
    return out


def _dagger(M) -> list:
    """The conjugate transpose of a matrix of complex entries."""
    return [[ComplexPair(z.re, -z.im) for z in column] for column in zip(*M)]


def dense_adhm_constraints(lay) -> list:
    """An independent statement of `adhm_constraint_scalars`: the moment
    maps [B1,B1+] + [B2,B2+] + I I+ - J+ J and [B1,B2] + I J as products of
    complex boson matrices, with the real and imaginary part of the body of
    each entry in row order, real block first."""
    B1, B2, I, J = (adhm_boson_matrix(lay, name) for name in ("B1", "B2", "I", "J"))
    real = mat_add(mat_commutator(B1, _dagger(B1)), mat_commutator(B2, _dagger(B2)))
    real = mat_sub(mat_add(real, mat_mul(I, _dagger(I))), mat_mul(_dagger(J), J))
    out = []
    for block in (real, mat_add(mat_commutator(B1, B2), mat_mul(I, J))):
        for row in block:
            for z in row:
                out.append(sc.normalize(z.re.terms.get((), sc.ZERO)))
                out.append(sc.normalize(z.im.terms.get((), sc.ZERO)))
    return out


@pytest.fixture
def cartan_matrices():
    return adhm_cartan_matrices


@pytest.fixture
def boson_matrix():
    return adhm_boson_matrix


@pytest.fixture
def fermion_matrix():
    return adhm_fermion_matrix


@pytest.fixture
def dense_fields():
    return dense_adhm_fields


@pytest.fixture
def dense_constraints():
    return dense_adhm_constraints
