"""Matrix-model data with two commuting symmetries: constraints, group
actions, and the odd vector fields that square to the symmetry generator.

The bosonic data are four complex matrices (B1, B2 of size k x k, I of
size k x N, J of size N x k).  Two layers coexist:

* a numeric layer (`ADHMData`, exact complex rationals) for constraint
  residuals and finite group actions;
* a symbolic layer (`ADHMSuperChart`) where every complex entry is
  flattened into a real coordinate pair and every boson gets one odd
  partner at the same position.  The partners are, in order, M1, M2,
  mu_I, mu_J and, when the multiplier sector is present, chi_R, chi_C,
  eta paired with the extra bosons H_R, H_C, phibar.

With that positional pairing the odd operator on the matter sector has
the identity symbol map, and its square is the lifted even field.
"""
from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Mapping, Optional, Sequence, Tuple

from . import scalars as sc
from .actions import certified_rank, residual_verdict
from .errors import (
    BadSusy,
    ComputationError,
    DimensionMismatch,
    NonlinearTtilde,
    NotUnitary,
    ShapeMismatch,
    StabilizerNotTrivial,
)
from .grassmann import CSuper, SuperChart, SuperFunction, SuperVectorField
from .linalg import (
    inverse,
    mat_add,
    mat_commutator,
    mat_dagger,
    mat_equal,
    mat_mul,
    mat_scale,
    mat_sub,
)


# ---------------------------------------------------------------------------
# exact complex numbers and small dense matrices over them


@dataclass(frozen=True)
class CNum:
    """Complex number with exact rational parts."""

    re: Fraction
    im: Fraction

    @staticmethod
    def of(value) -> "CNum":
        if isinstance(value, CNum):
            return value
        if isinstance(value, (int, Fraction)):
            return CNum(Fraction(value), Fraction(0))
        if isinstance(value, tuple) and len(value) == 2:
            return CNum(Fraction(value[0]), Fraction(value[1]))
        raise TypeError("cannot interpret %r as an exact complex number" % (value,))

    def __add__(self, other) -> "CNum":
        other = CNum.of(other)
        return CNum(self.re + other.re, self.im + other.im)

    def __sub__(self, other) -> "CNum":
        other = CNum.of(other)
        return CNum(self.re - other.re, self.im - other.im)

    def __neg__(self) -> "CNum":
        return CNum(-self.re, -self.im)

    def __mul__(self, other) -> "CNum":
        other = CNum.of(other)
        return CNum(
            self.re * other.re - self.im * other.im,
            self.re * other.im + self.im * other.re,
        )

    def __truediv__(self, other) -> "CNum":
        return self * CNum.of(other).inv()

    def __rsub__(self, other) -> "CNum":
        return CNum.of(other) - self

    def __rtruediv__(self, other) -> "CNum":
        return CNum.of(other) * self.inv()

    __radd__ = __add__
    __rmul__ = __mul__

    def conjugate(self) -> "CNum":
        return CNum(self.re, -self.im)

    def abs2(self) -> Fraction:
        return self.re * self.re + self.im * self.im

    def inv(self) -> "CNum":
        d = self.abs2()
        if d == 0:
            raise ZeroDivisionError("inverse of zero")
        return CNum(self.re / d, -self.im / d)

    def is_zero(self) -> bool:
        return self.re == 0 and self.im == 0

    def as_complex(self) -> complex:
        return complex(float(self.re), float(self.im))


C_ZERO = CNum(Fraction(0), Fraction(0))
C_ONE = CNum(Fraction(1), Fraction(0))

NMatrix = Tuple[Tuple[CNum, ...], ...]


def nmat(rows) -> NMatrix:
    return tuple(tuple(CNum.of(x) for x in row) for row in rows)


def nmat_zero(rows: int, cols: int) -> NMatrix:
    return tuple(tuple(C_ZERO for _ in range(cols)) for _ in range(rows))


def nmat_eye(n: int) -> NMatrix:
    return tuple(
        tuple(C_ONE if i == j else C_ZERO for j in range(n)) for i in range(n)
    )


def nmat_norm2(A: NMatrix) -> Fraction:
    """Squared Frobenius norm, an exact rational."""
    return sum((x.abs2() for row in A for x in row), Fraction(0))


# ---------------------------------------------------------------------------
# numeric data, constraints, and group actions


@dataclass(frozen=True)
class ADHMData:
    """Exact matrix data (B1, B2, I, J) for instanton number k, group rank N."""

    B1: NMatrix
    B2: NMatrix
    I: NMatrix
    J: NMatrix

    def __post_init__(self) -> None:
        k = len(self.B1)
        if any(len(row) != k for row in self.B1):
            raise ShapeMismatch("B1 must be square")
        if len(self.B2) != k or any(len(row) != k for row in self.B2):
            raise ShapeMismatch("B2 must be %d x %d" % (k, k))
        if len(self.I) != k:
            raise ShapeMismatch("I must have %d rows" % (k,))
        N = len(self.I[0]) if k else 0
        if any(len(row) != N for row in self.I):
            raise ShapeMismatch("ragged I")
        if len(self.J) != N or any(len(row) != k for row in self.J):
            raise ShapeMismatch("J must be %d x %d" % (N, k))

    @property
    def k(self) -> int:
        return len(self.B1)

    @property
    def N(self) -> int:
        return len(self.I[0])

    @property
    def moduli_dimension(self) -> int:
        return 4 * self.k * self.N


def adhm_data(B1, B2, I, J) -> ADHMData:
    return ADHMData(nmat(B1), nmat(B2), nmat(I), nmat(J))


def _real_moment(B1, B2, I, J) -> list:
    """[B1,B1+] + [B2,B2+] + I I+ - J+ J, a hermitian k x k matrix.

    Entries may be exact complex numbers or complex superfunctions.
    """
    out = mat_add(mat_commutator(B1, mat_dagger(B1)), mat_commutator(B2, mat_dagger(B2)))
    out = mat_add(out, mat_mul(I, mat_dagger(I)))
    return mat_sub(out, mat_mul(mat_dagger(J), J))


def _complex_moment(B1, B2, I, J) -> list:
    """[B1,B2] + I J, a k x k matrix."""
    return mat_add(mat_commutator(B1, B2), mat_mul(I, J))


def constraint_real(d: ADHMData) -> list:
    return _real_moment(d.B1, d.B2, d.I, d.J)


def constraint_complex(d: ADHMData) -> list:
    return _complex_moment(d.B1, d.B2, d.I, d.J)


# How each sector transforms under U(k) x U(N) x T^2: (left group, right
# group, torus character (n1, n2)), with "gauge" the U(k) factor and
# "frame" the U(N) factor.  The finite action is X -> L X R^+ t1^n1 t2^n2,
# the infinitesimal one X -> L X - X R + (n1 e1 + n2 e2) X with L, R the
# Cartan parameters phi or a.  Matter sectors come first, then the
# multiplier sector, in chart order.
_CHARGES = {
    "B1": ("gauge", "gauge", (1, 0)),
    "B2": ("gauge", "gauge", (0, 1)),
    "I": ("gauge", "frame", (0, 0)),
    "J": ("frame", "gauge", (1, 1)),
    "HR": ("gauge", "gauge", (0, 0)),
    "HC": ("gauge", "gauge", (1, 1)),
    "PB": ("gauge", "gauge", (0, 0)),
}
MATTER_SECTORS = ("B1", "B2", "I", "J")


@dataclass(frozen=True)
class GroupElement:
    """Block (U, V, t1, t2); omitted blocks act as the identity."""

    U: Optional[NMatrix] = None
    V: Optional[NMatrix] = None
    t1: Optional[CNum] = None
    t2: Optional[CNum] = None


def _check_unitary(M: NMatrix, label: str) -> None:
    if not mat_equal(mat_mul(mat_dagger(M), M), nmat_eye(len(M))):
        raise NotUnitary("%s block is not exactly unitary" % (label,))


def group_act(g: GroupElement, d: ADHMData) -> ADHMData:
    """The finite action of the charge table on the matter sectors."""
    U = g.U if g.U is not None else nmat_eye(d.k)
    V = g.V if g.V is not None else nmat_eye(d.N)
    t1 = CNum.of(g.t1) if g.t1 is not None else C_ONE
    t2 = CNum.of(g.t2) if g.t2 is not None else C_ONE
    _check_unitary(U, "gauge")
    _check_unitary(V, "framing")
    for t, label in ((t1, "first torus"), (t2, "second torus")):
        if t.abs2() != 1:
            raise NotUnitary("%s phase is not on the unit circle" % (label,))
    groups = {"gauge": U, "frame": V}

    def move(name: str) -> list:
        left, right, character = _CHARGES[name]
        phase = C_ONE
        for t, n in zip((t1, t2), character):
            for _ in range(n):
                phase = phase * t
        X = mat_mul(mat_mul(groups[left], getattr(d, name)), mat_dagger(groups[right]))
        return mat_scale(X, phase)

    return adhm_data(*(move(name) for name in MATTER_SECTORS))


def cayley_unitary(A: NMatrix) -> list:
    """(1 - A)(1 + A)^-1 for exact anti-hermitian A, an exact unitary."""
    if not mat_equal(mat_dagger(A), mat_scale(A, -1)):
        raise ShapeMismatch("Cayley input must be anti-hermitian")
    one = nmat_eye(len(A))
    return mat_mul(mat_sub(one, A), inverse(mat_add(one, A)))


def random_antihermitian(n: int, rng: random.Random) -> NMatrix:
    rows = [[C_ZERO] * n for _ in range(n)]
    for i in range(n):
        rows[i][i] = CNum(Fraction(0), Fraction(rng.randint(-4, 4), rng.randint(1, 3)))
        for j in range(i + 1, n):
            z = CNum(
                Fraction(rng.randint(-4, 4), rng.randint(1, 3)),
                Fraction(rng.randint(-4, 4), rng.randint(1, 3)),
            )
            rows[i][j] = z
            rows[j][i] = -z.conjugate()
    return tuple(tuple(r) for r in rows)


def random_unitary(n: int, rng: random.Random) -> list:
    return cayley_unitary(random_antihermitian(n, rng))


def unit_phase(rng: random.Random) -> CNum:
    """Random exact point on the unit circle from a Pythagorean pair."""
    m = rng.randint(2, 9)
    n = rng.randint(1, m - 1)
    t = CNum(
        Fraction(m * m - n * n, m * m + n * n), Fraction(2 * m * n, m * m + n * n)
    )
    return t.conjugate() if rng.random() < 0.5 else t


def random_adhm_data(k: int, N: int, rng: random.Random) -> ADHMData:
    def entry() -> CNum:
        return CNum(
            Fraction(rng.randint(-5, 5), rng.randint(1, 3)),
            Fraction(rng.randint(-5, 5), rng.randint(1, 3)),
        )

    def block(rows: int, cols: int) -> NMatrix:
        return tuple(tuple(entry() for _ in range(cols)) for _ in range(rows))

    return ADHMData(block(k, k), block(k, k), block(k, N), block(N, k))


# ---------------------------------------------------------------------------
# flattened super chart


@dataclass(frozen=True)
class ADHMSuperChart:
    """Real chart for the matrix data with positional odd partners.

    Sector blocks appear in a fixed order; each complex entry (i, j)
    occupies two consecutive real coordinates (real part first), and
    the odd generator with the same index is its fermionic partner.
    `params` names the Cartan symbols of the symmetry group.
    """

    k: int
    N: int
    full: bool
    chart: SuperChart
    sectors: Tuple[Tuple[str, int, int], ...]
    params: Tuple[str, ...]

    def offset(self, sector: str) -> int:
        pos = 0
        for name, rows, cols in self.sectors:
            if name == sector:
                return pos
            pos += 2 * rows * cols
        raise KeyError(sector)

    def shape(self, sector: str) -> Tuple[int, int]:
        for name, rows, cols in self.sectors:
            if name == sector:
                return rows, cols
        raise KeyError(sector)

    def coord_index(self, sector: str, i: int, j: int, imag: bool = False) -> int:
        rows, cols = self.shape(sector)
        if not (0 <= i < rows and 0 <= j < cols):
            raise ShapeMismatch("entry (%d,%d) outside %s block" % (i, j, sector))
        return self.offset(sector) + 2 * (i * cols + j) + (1 if imag else 0)

    def boson_entry(self, sector: str, i: int, j: int) -> CSuper:
        p = self.coord_index(sector, i, j)
        re = SuperFunction.from_scalar(self.chart, sc.sym(self.chart.coords[p]))
        im = SuperFunction.from_scalar(self.chart, sc.sym(self.chart.coords[p + 1]))
        return CSuper(re, im)

    def fermion_entry(self, sector: str, i: int, j: int) -> CSuper:
        p = self.coord_index(sector, i, j)
        return CSuper(
            SuperFunction.generator(self.chart, p + 1),
            SuperFunction.generator(self.chart, p + 2),
        )

    def boson_matrix(self, sector: str):
        rows, cols = self.shape(sector)
        return [
            [self.boson_entry(sector, i, j) for j in range(cols)] for i in range(rows)
        ]

    def fermion_matrix(self, sector: str):
        rows, cols = self.shape(sector)
        return [
            [self.fermion_entry(sector, i, j) for j in range(cols)]
            for i in range(rows)
        ]


def adhm_super_chart(k: int, N: int, full: bool = False) -> ADHMSuperChart:
    if k < 1 or N < 1:
        raise ShapeMismatch("need k >= 1 and N >= 1")
    size = {"gauge": k, "frame": N}
    names = _CHARGES if full else MATTER_SECTORS
    sectors = [(n, size[_CHARGES[n][0]], size[_CHARGES[n][1]]) for n in names]
    coords = []
    for name, rows, cols in sectors:
        for i in range(rows):
            for j in range(cols):
                coords.append("%s_%d%d_re" % (name, i, j))
                coords.append("%s_%d%d_im" % (name, i, j))
    chart = SuperChart(tuple(coords), len(coords))
    params = tuple("phi%d" % (j + 1,) for j in range(k))
    params += tuple("a%d" % (r + 1,) for r in range(N - 1))
    params += ("e1", "e2")
    return ADHMSuperChart(k, N, full, chart, tuple(sectors), params)


def _traceless_diagonal(N: int) -> list:
    """The Cartan symbols a1 .. a(N-1) followed by minus their sum."""
    a_top = [sc.sym("a%d" % (r + 1,)) for r in range(N - 1)]
    a_last = sc.ZERO
    for e in a_top:
        a_last = a_last - e
    return a_top + [a_last]


def cartan_params(lay: ADHMSuperChart):
    """Diagonal (phi, a) and the two rotation symbols, all anti-hermitian.

    Returns (phi, a, e1, e2) with phi = i diag(phi_1..phi_k), a the
    traceless i diag(a_1, .., -sum), e_l = i times a real symbol.
    """
    chart = lay.chart

    def imag_const(e) -> CSuper:
        return CSuper.imag(SuperFunction.from_scalar(chart, e))

    zero = CSuper.zero(chart)
    phi = [
        [imag_const(sc.sym("phi%d" % (i + 1,))) if i == j else zero for j in range(lay.k)]
        for i in range(lay.k)
    ]
    a_diag = _traceless_diagonal(lay.N)
    a = [
        [imag_const(a_diag[i]) if i == j else zero for j in range(lay.N)]
        for i in range(lay.N)
    ]
    return phi, a, imag_const(sc.sym("e1")), imag_const(sc.sym("e2"))


def _mover(lay: ADHMSuperChart, phi, a, e1, e2):
    """The infinitesimal action of the charge table, sector by sector.

    Each torus weight n1 e1 + n2 e2 is built once, here, not per sector.
    """
    groups = {"gauge": phi, "frame": a}
    for label, M, n in (("phi", phi, lay.k), ("a", a, lay.N)):
        if len(M) != n or any(len(row) != n for row in M):
            raise ShapeMismatch("%s must be %d x %d" % (label, n, n))
    weights = {}
    for n1, n2 in {character for _, _, character in _CHARGES.values()}:
        parts = [e1] * n1 + [e2] * n2
        weights[(n1, n2)] = sum(parts[1:], parts[0]) if parts else None

    def move(name: str, X) -> list:
        left, right, character = _CHARGES[name]
        out = mat_sub(mat_mul(groups[left], X), mat_mul(X, groups[right]))
        w = weights[character]
        return out if w is None else mat_add(out, mat_scale(X, w))

    return move


def _flatten(lay: ADHMSuperChart, updates: Mapping[str, list]) -> tuple:
    comps = [SuperFunction.zero(lay.chart) for _ in range(lay.chart.m)]
    for name, rows, cols in lay.sectors:
        block = updates.get(name)
        if block is None:
            continue
        base = lay.offset(name)
        for i in range(rows):
            for j in range(cols):
                z = block[i][j]
                comps[base + 2 * (i * cols + j)] = z.re
                comps[base + 2 * (i * cols + j) + 1] = z.im
    return tuple(comps)


def _flow(lay: ADHMSuperChart, move, entries) -> tuple:
    """The flattened action on every sector's boson or fermion matrix."""
    return _flatten(lay, {name: move(name, entries(name)) for name, _, _ in lay.sectors})


def adhm_lifted_field(lay: ADHMSuperChart, phi, a, e1, e2) -> SuperVectorField:
    """Fundamental field plus the matching rotation of the odd partners."""
    move = _mover(lay, phi, a, e1, e2)
    return SuperVectorField(
        lay.chart,
        0,
        _flow(lay, move, lay.boson_matrix),
        _flow(lay, move, lay.fermion_matrix),
    )


# Multiplier sectors whose fermion leads: Q chi = H and Q H = d chi.
_FERMION_LED = ("HR", "HC")


def _odd_operator(lay: ADHMSuperChart, names, phi, a, e1, e2) -> SuperVectorField:
    """Q on the sectors `names`: Q X = psi and Q psi = d X for a boson-led
    sector, the reverse for a fermion-led one.  Its square is the lift."""
    move = _mover(lay, phi, a, e1, e2)
    even, odd = {}, {}
    for name in names:
        X, psi = lay.boson_matrix(name), lay.fermion_matrix(name)
        if name in _FERMION_LED:
            even[name], odd[name] = move(name, psi), X
        else:
            even[name], odd[name] = psi, move(name, X)
    return SuperVectorField(lay.chart, 1, _flatten(lay, even), _flatten(lay, odd))


def adhm_Q_unconstrained(lay: ADHMSuperChart, phi, a, e1, e2) -> SuperVectorField:
    """Odd operator on the matter sector: partner on bosons, action on
    partners.  Its square is the lifted even field."""
    return _odd_operator(lay, MATTER_SECTORS, phi, a, e1, e2)


def adhm_Q_full(lay: ADHMSuperChart, phi, a, e1, e2) -> SuperVectorField:
    """Odd operator including the multiplier and auxiliary sector."""
    if not lay.full:
        raise ShapeMismatch("layout lacks the multiplier sector")
    return _odd_operator(lay, _CHARGES, phi, a, e1, e2)


# ---------------------------------------------------------------------------
# symbolic constraints on the flattened chart


def adhm_constraint_scalars(lay: ADHMSuperChart):
    """All real components of both constraints, ordered like the
    multiplier coordinates (real block first, then complex block)."""
    matter = [lay.boson_matrix(name) for name in MATTER_SECTORS]
    out = []
    for block in (_real_moment(*matter), _complex_moment(*matter)):
        for row in block:
            for z in row:
                out.append(sc.normalize(z.re.terms.get((), sc.ZERO)))
                out.append(sc.normalize(z.im.terms.get((), sc.ZERO)))
    return out


def fermionic_constraints(chart: SuperChart, V: Sequence) -> list:
    """First-order odd shadows W_a = dV_a/dx^k theta^k.

    Needs the tautological pairing of odd generators with coordinates,
    so the chart must have one generator per coordinate.
    """
    if chart.n < chart.m:
        raise DimensionMismatch("need one odd generator per coordinate")
    out = []
    for v in V:
        expr = sc.as_expr(v)
        terms = {}
        for idx, name in enumerate(chart.coords, start=1):
            d = sc.normalize(sc.differentiate(expr, name))
            if not sc.is_zero(d):
                terms[(idx,)] = d
        out.append(SuperFunction(chart, terms))
    return out


# ---------------------------------------------------------------------------
# multiplier-sector consistency


def multiplier_completion(
    V: Sequence,
    T: Mapping[str, sc.ScalarExpr],
    Ttilde: Sequence,
    H_names: Sequence[str],
):
    """Linearization matrix of the multiplier action and its consistency.

    `V` are the constraints, `T` maps base coordinates to the contracted
    even components there, `Ttilde` are the contracted components on the
    multiplier coordinates `H_names`.  Returns (N, report) where
    N[a][b] = dTtilde_a/dH_b.  The report records whether the pairing
    identity sum_a N[a][b] V_a + T(V_b) = 0 holds, and whether N is
    invertible at sampled generic parameter values.
    """
    r = len(V)
    if len(Ttilde) != r or len(H_names) != r:
        raise ShapeMismatch("V, Ttilde, H_names must have equal length")
    V = [sc.normalize(v) for v in V]
    N = [
        [sc.normalize(sc.differentiate(Ttilde[a], H_names[b])) for b in range(r)]
        for a in range(r)
    ]
    H_set = set(H_names)
    for a in range(r):
        for b in range(r):
            if sc.free_symbols(N[a][b]) & H_set:
                raise NonlinearTtilde(
                    "multiplier component %d is not linear in the multipliers" % (a,)
                )

    residuals = []
    for b in range(r):
        e = sc.ZERO
        for a in range(r):
            e = e + N[a][b] * V[a]
        occurs = sc.free_symbols(V[b])
        for coord, comp in T.items():
            if coord in occurs:
                e = e + comp * sc.differentiate(V[b], coord)
        residuals.append(sc.normalize(e))
    pairing = residual_verdict(residuals)
    report = {
        "size": r,
        "linear_in_H": True,
        "pairing_residual_zero": pairing["symbolic"],
        "pairing_residual_max": pairing["max_residual"],
        "invertible": certified_rank(N, r),
    }
    return N, report


def sector_completion(lay: ADHMSuperChart, lifted: SuperVectorField, V: Sequence, sector: str):
    """`multiplier_completion` for the HR (real) or HC (complex) block.

    T is the body of the lifted field on the matter coordinates, Ttilde
    its body on the sector's multipliers, and the block of the constraints
    `V` (from `adhm_constraint_scalars`) is the first 2k^2 entries for HR
    and the rest for HC.
    """
    nreal = 2 * lay.k * lay.k
    block = {"HR": V[:nreal], "HC": V[nreal:]}[sector]
    bodies = [comp.terms.get((), sc.ZERO) for comp in lifted.a]
    coords, matter, base = lay.chart.coords, lay.offset("HR"), lay.offset(sector)
    T = dict(zip(coords[:matter], bodies[:matter]))
    span = slice(base, base + len(block))
    return multiplier_completion(block, T, bodies[span], list(coords[span]))


# ---------------------------------------------------------------------------
# bookkeeping and fixed points


def rank_bookkeeping(k: int, N: int, susy: int) -> int:
    """Rank of the relevant bundle over the instanton moduli space."""
    if k < 1 or N < 1:
        raise ShapeMismatch("need k >= 1 and N >= 1")
    ranks = {1: 2 * k * N, 2: 4 * k * N, 4: 8 * k * N}
    if susy not in ranks:
        raise BadSusy("supersymmetry multiplicity must be 1, 2, or 4")
    return ranks[susy]


def check_stabilizer(d: ADHMData) -> None:
    """Reject data whose gauge stabilizer is larger than the center acts
    freely on; vanishing (I, J) always fails."""
    if all(z.is_zero() for row in d.I for z in row) and all(
        z.is_zero() for row in d.J for z in row
    ):
        raise StabilizerNotTrivial("data with I = J = 0 sit on a singular stratum")


@dataclass(frozen=True)
class ADHMFixedPoint:
    """Torus-fixed datum at instanton number one.

    `phi` is the compensating gauge parameter; `weights` are the four
    torus weights of the reduced tangent directions.
    """

    r: int
    data: ADHMData
    phi: sc.ScalarExpr
    weights: Tuple[sc.ScalarExpr, ...]


def adhm_fixed_points(k: int, N: int) -> list:
    """Enumerate the k = 1 fixed data classes of the torus action.

    At instanton number one the fixed classes are labelled by the frame
    index carrying the single unit of charge, at real constraint level 1.
    """
    if k != 1:
        raise ShapeMismatch("fixed-point enumeration only covers k = 1")
    if N < 2:
        raise ShapeMismatch("need N >= 2 for isolated fixed data")
    a_diag = _traceless_diagonal(N)
    e1, e2 = sc.sym("e1"), sc.sym("e2")
    out = []
    for r in range(N):
        I = (tuple(C_ONE if c == r else C_ZERO for c in range(N)),)
        data = ADHMData(nmat_zero(1, 1), nmat_zero(1, 1), I, nmat_zero(N, 1))
        check_stabilizer(data)
        if not (
            mat_equal(constraint_real(data), nmat_eye(1))
            and mat_equal(constraint_complex(data), nmat_zero(1, 1))
        ):
            raise ComputationError("fixed datum r=%d misses the constraint level" % (r,))
        weights = [e1, e2]
        weights += [sc.normalize(a_diag[r] - a_diag[s]) for s in range(N) if s != r]
        weights += [sc.normalize(a_diag[s] - a_diag[r] + e1 + e2) for s in range(N) if s != r]
        out.append(ADHMFixedPoint(r, data, sc.normalize(a_diag[r]), tuple(weights)))
    return out
