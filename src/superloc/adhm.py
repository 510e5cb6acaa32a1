"""Matrix-model data with two commuting symmetries: constraints, group
actions, and the odd vector fields that square to the symmetry generator.

The bosonic data are four complex matrices (B1, B2 of size k x k, I of
size k x N, J of size N x k).  They live on one chart, `ADHMSuperChart`,
where every complex entry is flattened into a real coordinate pair and
every boson gets one odd partner at the same position.  The partners are,
in order, M1, M2, mu_I, mu_J and, when the multiplier sector is present,
chi_R, chi_C, eta paired with the extra bosons H_R, H_C, phibar.  A datum
is a binding of the chart's real coordinates, and the finite group action
reads each sector there as the real form of its block of (re, im) pairs.
The moment maps are formed from the same real forms, with each coordinate
bound to its own symbol, so no complex superfunction is built.

The Cartan parameters of the symmetry are diagonal, so each entry turns
by one weight of the charge table (`entry_weight`).  The lifted field and
both odd operators are built entry by entry from those weights.  With the
positional pairing the odd operator on the matter sector has the identity
symbol map, and its square is the lifted even field.
"""
from __future__ import annotations

import random
from fractions import Fraction
from typing import Mapping, Sequence, Tuple

from . import scalars as sc
from .actions import certified_rank, residual_verdict
from .errors import (
    BadSusy,
    ComputationError,
    NonlinearTtilde,
    NotUnitary,
    ShapeMismatch,
    StabilizerNotTrivial,
)
from .grassmann import SuperChart, SuperFunction, SuperVectorField
from .linalg import (
    identity,
    inverse,
    mat_add,
    mat_commutator,
    mat_equal,
    mat_mul,
    mat_scale,
    mat_sub,
    transpose,
)
from .records import Record


# How each sector transforms under U(k) x U(N) x T^2: (left group, right
# group, torus character (n1, n2)), with "gauge" the U(k) factor and
# "frame" the U(N) factor.  The finite action is X -> L X R^+ t1^n1 t2^n2,
# the infinitesimal one turns the entry (i, j) by the weight
# L_i - R_j + n1 e1 + n2 e2 (`entry_weight`), with L, R the diagonal Cartan
# parameters phi or a.  Matter sectors come first, then the multiplier
# sector, in chart order.
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


# ---------------------------------------------------------------------------
# flattened super chart


class ADHMSuperChart(Record):
    """Real chart for the matrix data with positional odd partners.

    Sector blocks appear in a fixed order; each complex entry (i, j)
    occupies two consecutive real coordinates (real part first), and
    the odd generator with the same index is its fermionic partner.
    `params` names the Cartan symbols of the symmetry group.
    """

    __slots__ = ("k", "N", "full", "chart", "sectors", "params")

    def __init__(self, k: int, N: int, full: bool, chart: SuperChart,
                 sectors: Tuple[Tuple[str, int, int], ...], params: Tuple[str, ...]) -> None:
        self.k = k
        self.N = N
        self.full = full
        self.chart = chart
        self.sectors = sectors
        self.params = params

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


# ---------------------------------------------------------------------------
# data: a datum is a binding of the chart's real coordinates; a complex
# matrix is given as rows of (re, im) pairs


def adhm_binding(lay: ADHMSuperChart, B1, B2, I, J) -> dict:
    """The datum (B1, B2, I, J) as a binding of the chart's matter coordinates."""
    binding = {}
    names = lay.chart.coords
    for name, block in zip(MATTER_SECTORS, (B1, B2, I, J)):
        rows, cols = lay.shape(name)
        if len(block) != rows or any(len(row) != cols for row in block):
            raise ShapeMismatch("%s must be %d x %d" % (name, rows, cols))
        for i, row in enumerate(block):
            for j, (re, im) in enumerate(row):
                p = lay.coord_index(name, i, j)
                binding[names[p]], binding[names[p + 1]] = Fraction(re), Fraction(im)
    return binding


def _block(lay: ADHMSuperChart, binding, sector: str) -> list:
    """One sector of a datum, as rows of (re, im) pairs."""
    rows, cols = lay.shape(sector)
    names = lay.chart.coords

    def pair(p: int) -> tuple:
        return binding[names[p]], binding[names[p + 1]]

    return [[pair(lay.coord_index(sector, i, j)) for j in range(cols)] for i in range(rows)]


def real_form(M) -> list:
    """[[A, -B], [B, A]] for the complex matrix A + iB: the real matrix
    that acts on (Re z, Im z) as M acts on z."""
    top = [[a for a, _ in row] + [-b for _, b in row] for row in M]
    return top + [[b for _, b in row] + [a for a, _ in row] for row in M]


def _scalar(t, n: int) -> list:
    """The real form of t times the n x n identity."""
    return real_form([[t if i == j else (0, 0) for j in range(n)] for i in range(n)])


def _unitary(M, n: int, label: str) -> list:
    """M, checked to be the real form of an exact n x n unitary; the
    identity for None."""
    if M is None:
        return identity(2 * n)
    if not mat_equal(mat_mul(transpose(M), M), identity(2 * n)):
        raise NotUnitary("%s block is not exactly orthogonal" % (label,))
    i = _scalar((0, 1), n)
    if not mat_equal(mat_mul(M, i), mat_mul(i, M)):
        raise NotUnitary("%s block does not commute with i" % (label,))
    return M


def group_act(lay: ADHMSuperChart, binding, U=None, V=None, t1=(1, 0), t2=(1, 0)) -> dict:
    """The finite action of the charge table on a datum's matter sectors.

    U and V are real forms of exact unitaries of U(k) and U(N), None for
    the identity; the torus phases t1 and t2 are exact (cos, sin) pairs.
    Each block X becomes t1^n1 t2^n2 L X R^T, all in real form.
    """
    groups = {"gauge": _unitary(U, lay.k, "gauge"), "frame": _unitary(V, lay.N, "framing")}
    for (c, s), label in ((t1, "first torus"), (t2, "second torus")):
        if c * c + s * s != 1:
            raise NotUnitary("%s phase is not on the unit circle" % (label,))

    def move(name: str) -> list:
        left, right, character = _CHARGES[name]
        rows, cols = lay.shape(name)
        L = groups[left]
        for t, n in zip((t1, t2), character):
            for _ in range(n):
                L = mat_mul(_scalar(t, rows), L)
        X = mat_mul(mat_mul(L, real_form(_block(lay, binding, name))), transpose(groups[right]))
        return [[(X[i][j], X[rows + i][j]) for j in range(cols)] for i in range(rows)]

    return {**binding, **adhm_binding(lay, *(move(name) for name in MATTER_SECTORS))}


def cayley_unitary(A) -> list:
    """(1 - A)(1 + A)^-1 for the real form A of an exact anti-hermitian
    matrix: the real form of an exact unitary."""
    if not mat_equal(transpose(A), mat_scale(A, -1)):
        raise ShapeMismatch("Cayley input must be anti-hermitian")
    one = identity(len(A))
    return mat_mul(mat_sub(one, A), inverse(mat_add(one, A)))


def random_unitary(n: int, rng: random.Random) -> list:
    """The real form of the Cayley transform of a random anti-hermitian matrix."""

    def draw() -> Fraction:
        return Fraction(rng.randint(-4, 4), rng.randint(1, 3))

    A = [[(0, 0)] * n for _ in range(n)]
    for i in range(n):
        A[i][i] = (0, draw())
        for j in range(i + 1, n):
            re, im = draw(), draw()
            A[i][j], A[j][i] = (re, im), (-re, im)
    return cayley_unitary(real_form(A))


def unit_phase(rng: random.Random) -> tuple:
    """Random exact point (cos, sin) on the unit circle from a Pythagorean pair."""
    m = rng.randint(2, 9)
    n = rng.randint(1, m - 1)
    c, s = Fraction(m * m - n * n, m * m + n * n), Fraction(2 * m * n, m * m + n * n)
    return (c, -s) if rng.random() < 0.5 else (c, s)


def random_datum(lay: ADHMSuperChart, rng: random.Random) -> dict:
    """A binding with a random rational for each coordinate of the chart."""
    return {name: Fraction(rng.randint(-5, 5), rng.randint(1, 3)) for name in lay.chart.coords}


def _weight(lay: ADHMSuperChart, sector: str, i: int, j: int) -> tuple:
    """The weight L_i - R_j + n1 e1 + n2 e2 of the entry (i, j) of `sector`,
    read off `_CHARGES` as integer coefficients of `lay.params`, also for a
    sector that the chart does not carry.  L and R are phi_1 .. phi_k on the
    gauge side and a_1 .. a_N on the frame side, where a_N = -(a_1 + ..)."""
    left, right, torus = _CHARGES[sector]
    k, N = lay.k, lay.N

    def diagonal(side: str, p: int) -> list:
        if side == "gauge":
            return [int(q == p) for q in range(k)] + [0] * (N - 1)
        return [0] * k + [int(q == p) - int(p == N - 1) for q in range(N - 1)]

    return tuple(x - y for x, y in zip(diagonal(left, i), diagonal(right, j))) + torus


def _linear(lay: ADHMSuperChart, weight: tuple) -> sc.ScalarExpr:
    """The normal form of the linear form with coefficients `weight` on `lay.params`."""
    return sc.normalize(sum((c * sc.sym(p) for c, p in zip(weight, lay.params) if c), sc.ZERO))


def entry_weight(lay: ADHMSuperChart, sector: str, i: int, j: int) -> sc.ScalarExpr:
    """The torus weight w = L_i - R_j + n1 e1 + n2 e2 of the entry (i, j)
    of `sector` in the chart's symbols (`_weight`).  The infinitesimal
    action turns that entry z into i w z."""
    lay.coord_index(sector, i, j)  # ShapeMismatch off the block
    return _linear(lay, _weight(lay, sector, i, j))


# Multiplier sectors whose fermion leads: Q chi = H and Q H = d chi.
_FERMION_LED = ("HR", "HC")


def _turning_field(lay: ADHMSuperChart, parity: int, names) -> SuperVectorField:
    """The field that turns each entry of the sectors `names` by its weight,
    (u, v) -> (-w v, w u) on a real pair (x, y) or an odd pair (xi, eta).

    The lift (parity 0) turns both pairs.  Q (parity 1) sends the bosons of
    a boson-led sector to their partners and turns the partners; on a
    fermion-led sector it does the reverse.  Every other component is zero.
    """
    chart = lay.chart
    a = [SuperFunction.zero(chart)] * chart.m
    b = [SuperFunction.zero(chart)] * chart.n

    def turn(w, u, v) -> tuple:
        return -(v * w), u * w

    for name in names:
        rows, cols = lay.shape(name)
        for i in range(rows):
            for j in range(cols):
                w, q = entry_weight(lay, name, i, j), lay.coord_index(name, i, j)
                even = [SuperFunction.from_scalar(chart, sc.sym(x)) for x in chart.coords[q:q + 2]]
                odd = SuperFunction.generator(chart, q + 1), SuperFunction.generator(chart, q + 2)
                if parity == 0:
                    a[q:q + 2], b[q:q + 2] = turn(w, *even), turn(w, *odd)
                elif name in _FERMION_LED:
                    a[q:q + 2], b[q:q + 2] = turn(w, *odd), even
                else:
                    a[q:q + 2], b[q:q + 2] = odd, turn(w, *even)
    return SuperVectorField(chart, parity, tuple(a), tuple(b))


def adhm_lifted_field(lay: ADHMSuperChart) -> SuperVectorField:
    """Fundamental field plus the matching rotation of the odd partners."""
    return _turning_field(lay, 0, [name for name, _, _ in lay.sectors])


def adhm_Q_unconstrained(lay: ADHMSuperChart) -> SuperVectorField:
    """Odd operator on the matter sector: partner on bosons, action on
    partners.  Its square is the lifted even field."""
    return _turning_field(lay, 1, MATTER_SECTORS)


def adhm_Q_full(lay: ADHMSuperChart) -> SuperVectorField:
    """Odd operator including the multiplier and auxiliary sector."""
    if not lay.full:
        raise ShapeMismatch("layout lacks the multiplier sector")
    return _turning_field(lay, 1, _CHARGES)


# ---------------------------------------------------------------------------
# symbolic constraints on the flattened chart


def adhm_constraint_scalars(lay: ADHMSuperChart):
    """All real components of both constraints, ordered like the
    multiplier coordinates: the real block [B1,B1+] + [B2,B2+] + I I+ - J+ J,
    then the complex block [B1,B2] + I J.

    Each matter sector is the real form of its block in the chart's own
    symbols, as `group_act` reads a datum, so the dagger is the transpose
    and entry (p, q) of a k x k block is read at [p][q] and [k + p][q].
    """
    symbols = {name: sc.sym(name) for name in lay.chart.coords}
    B1, B2, I, J = (real_form(_block(lay, symbols, name)) for name in MATTER_SECTORS)
    real = mat_add(mat_commutator(B1, transpose(B1)), mat_commutator(B2, transpose(B2)))
    real = mat_sub(mat_add(real, mat_mul(I, transpose(I))), mat_mul(transpose(J), J))
    k = lay.k
    out = []
    for block in (real, mat_add(mat_commutator(B1, B2), mat_mul(I, J))):
        for p in range(k):
            for q in range(k):
                out.append(sc.normalize(block[p][q]))
                out.append(sc.normalize(block[k + p][q]))
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
    N = [[sc.differentiate(Ttilde[a], H_names[b]) for b in range(r)] for a in range(r)]
    H_set = set(H_names)
    for a in range(r):
        for b in range(r):
            if sc.free_symbols(N[a][b]) & H_set:
                raise NonlinearTtilde(
                    "multiplier component %d is not linear in the multipliers" % (a,)
                )

    residuals = [
        sc.combine([(1, V[b], T)]
                   + [(1, N[a][b], V[a]) for a in range(r) if N[a][b] is not sc.ZERO])
        for b in range(r)
    ]
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
    """Rank of the relevant bundle over the instanton moduli space: susy/2
    times the space's real dimension 4kN, which is the 4k^2 + 4kN
    coordinates of the matter chart less k^2 gauge directions and the k^2
    real and 2k^2 complex moment-map equations."""
    dim = adhm_super_chart(k, N).chart.m - 4 * k * k
    if susy not in (1, 2, 4):
        raise BadSusy("supersymmetry multiplicity must be 1, 2, or 4")
    return dim * susy // 2


def check_stabilizer(lay: ADHMSuperChart, binding) -> None:
    """Reject data whose gauge stabilizer is larger than the center acts
    freely on; vanishing (I, J) always fails."""
    if not any(any(z) for name in ("I", "J") for row in _block(lay, binding, name) for z in row):
        raise StabilizerNotTrivial("data with I = J = 0 sit on a singular stratum")


class ADHMFixedPoint(Record):
    """Torus-fixed datum at instanton number one.

    `binding` binds the datum's matter coordinates, `phi` is the
    compensating gauge parameter; `weights` are the torus weights of the
    reduced tangent directions.
    """

    __slots__ = ("r", "binding", "phi", "weights")

    def __init__(self, r: int, binding: dict, phi: sc.ScalarExpr,
                 weights: Tuple[sc.ScalarExpr, ...]) -> None:
        self.r = r
        self.binding = binding
        self.phi = phi
        self.weights = weights


def adhm_fixed_points(lay: ADHMSuperChart, V: Sequence) -> list:
    """Enumerate the k = 1 fixed data classes of the torus action on the
    chart `lay`, matter or full, whose constraints `V` are those of
    `adhm_constraint_scalars`.

    At instanton number one the fixed classes are labelled by the frame
    index carrying the single unit of charge, at real constraint level 1.
    The tangent weights are the character of the matter entries at the
    compensating phi = a_r, a map from weight to multiplicity, less one
    gauge weight (HR's charges) and one weight of the complex moment map
    (HC's); a multiplicity below zero raises ComputationError.
    """
    N = lay.N
    if lay.k != 1:
        raise ShapeMismatch("fixed-point enumeration only covers k = 1")
    if N < 2:
        raise ShapeMismatch("need N >= 2 for isolated fixed data")
    zero = [[(0, 0)]]
    out = []
    for r in range(N):
        I = [[(int(c == r), 0) for c in range(N)]]
        binding = adhm_binding(lay, zero, zero, I, zero * N)
        check_stabilizer(lay, binding)
        # the real constraint is 1 + 0i and the complex one 0
        if [sc.evaluate(v, binding) for v in V] != [1, 0, 0, 0]:
            raise ComputationError("fixed datum r=%d misses the constraint level" % (r,))
        # the entry I_r is fixed, so its weight phi1 - a_r is zero at phi = a_r
        shift = _weight(lay, "I", 0, r)
        signed = [(name, i, j, 1) for name in MATTER_SECTORS
                  for i in range(lay.shape(name)[0]) for j in range(lay.shape(name)[1])]
        character = {}
        for name, i, j, count in signed + [("HR", 0, 0, -1), ("HC", 0, 0, -1)]:
            w = _weight(lay, name, i, j)
            w = tuple(x - w[0] * s for x, s in zip(w, shift))
            character[w] = character.get(w, 0) + count
            if character[w] < 0:
                raise ComputationError("fixed datum r=%d has no tangent weight %s to remove"
                                       % (r, sc.to_text(_linear(lay, w))))
        phi = sc.normalize(sc.sym("phi1") - _linear(lay, shift))
        weights = [_linear(lay, w) for w, n in character.items() for _ in range(n)]
        out.append(ADHMFixedPoint(r, binding, phi, tuple(weights)))
    return out
