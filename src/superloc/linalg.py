"""Exact linear algebra over Fractions and scalar expressions.

Rational matrices go through fraction-exact Gaussian elimination; symbolic
matrices use subset dynamic programming so no division is ever needed.
The dense helpers (mat_mul .. mat_equal) take any entry type with ``+ - *``
and need no ``conjugate()``: a complex matrix enters in real form, where
the conjugate transpose is the transpose.
"""

from __future__ import annotations

import math
from fractions import Fraction

from . import scalars as sc
from .errors import NotSkew, OddSize, ShapeMismatch
from .scalars import ScalarExpr


def _is_num(e) -> bool:
    return isinstance(e, (int, Fraction)) and not isinstance(e, bool)


def _entry_zero(e) -> bool:
    if _is_num(e):
        return e == 0
    if isinstance(e, ScalarExpr):
        return sc.is_zero(e)
    return e.is_zero()


def _square(M) -> tuple:
    rows = tuple(tuple(row) for row in M)
    n = len(rows)
    if any(len(row) != n for row in rows):
        raise ShapeMismatch("expected a square matrix, got rows %s" % ([len(r) for r in rows],))
    return rows


def mat_mul(A, B) -> list:
    A = [list(r) for r in A]
    B = [list(r) for r in B]
    if not A or not B or len(A[0]) != len(B):
        raise ShapeMismatch("inner dimensions disagree")
    out = []
    for row in A:
        new = []
        for j in range(len(B[0])):
            acc = row[0] * B[0][j]
            for k in range(1, len(B)):
                acc = acc + row[k] * B[k][j]
            new.append(acc)
        out.append(new)
    return out


def _same_shape(A, B) -> None:
    if len(A) != len(B) or any(len(ra) != len(rb) for ra, rb in zip(A, B)):
        raise ShapeMismatch("matrix shapes disagree")


def mat_add(A, B) -> list:
    _same_shape(A, B)
    return [[x + y for x, y in zip(ra, rb)] for ra, rb in zip(A, B)]


def mat_sub(A, B) -> list:
    _same_shape(A, B)
    return [[x - y for x, y in zip(ra, rb)] for ra, rb in zip(A, B)]


def mat_scale(A, factor) -> list:
    """factor * A, with the factor on the left of every entry."""
    return [[factor * x for x in row] for row in A]


def transpose(A) -> list:
    """The transpose; on the real form of a complex matrix it is the real
    form of the conjugate transpose."""
    return [list(col) for col in zip(*A)]


def mat_commutator(A, B) -> list:
    return mat_sub(mat_mul(A, B), mat_mul(B, A))


def mat_equal(A, B) -> bool:
    _same_shape(A, B)
    return all(_entry_zero(x - y) for ra, rb in zip(A, B) for x, y in zip(ra, rb))


def identity(n: int) -> list:
    return [[Fraction(int(i == j)) for j in range(n)] for i in range(n)]


# ---------------------------------------------------------------------------
# Determinants.
# ---------------------------------------------------------------------------


def det(M):
    """Determinant; exact for Fraction entries, normalized for symbolic ones."""
    rows = _square(M)
    n = len(rows)
    if n == 0:
        return Fraction(1)
    if all(_is_num(e) for row in rows for e in row):
        pivots, sign = _echelon(rows)
        return sign * math.prod(pivots) if len(pivots) == n else Fraction(0)
    return _det_subset(rows)


def rank(M) -> int:
    """Rank of a rectangular matrix of ints and Fractions, by exact elimination."""
    return len(_echelon(M)[0])


def _echelon(M) -> tuple:
    """Fraction-exact forward elimination of a copy of M: the pivots in
    order, and the sign of the row permutation it made."""
    rows = [[Fraction(e) for e in row] for row in M]
    width = len(rows[0]) if rows else 0
    pivots = []
    sign = 1
    for col in range(width):
        r = len(pivots)
        pivot = next((i for i in range(r, len(rows)) if rows[i][col] != 0), None)
        if pivot is None:
            continue
        if pivot != r:
            rows[r], rows[pivot] = rows[pivot], rows[r]
            sign = -sign
        p = rows[r][col]
        for i in range(r + 1, len(rows)):
            factor = rows[i][col] / p
            if factor:
                for c in range(col, width):
                    rows[i][c] -= factor * rows[r][c]
        pivots.append(p)
    return pivots, sign


def _det_subset(rows) -> ScalarExpr:
    # dp[mask] sums signed products over column choices for the rows so far.
    n = len(rows)
    dp = {0: sc.ONE}
    for i in range(n):
        ndp: dict = {}
        for mask, val in dp.items():
            for j in range(n):
                bit = 1 << j
                if mask & bit:
                    continue
                e = rows[i][j]
                if _entry_zero(e):
                    continue
                term = val * e
                # new inversions = used columns above j
                if bin(mask >> (j + 1)).count("1") % 2:
                    term = -term
                key = mask | bit
                ndp[key] = ndp[key] + term if key in ndp else term
        dp = {k: sc.normalize(v) for k, v in ndp.items() if not sc.is_zero(v)}
        if not dp:
            return sc.ZERO
    return dp.get((1 << n) - 1, sc.ZERO)


# ---------------------------------------------------------------------------
# Pfaffian.
# ---------------------------------------------------------------------------


def check_skew(M) -> tuple:
    rows = _square(M)
    n = len(rows)
    for i in range(n):
        if not _entry_zero(rows[i][i]):
            raise NotSkew("diagonal entry (%d, %d) is nonzero" % (i, i))
        for j in range(i + 1, n):
            if not _entry_zero(rows[i][j] + rows[j][i]):
                raise NotSkew("entries (%d, %d) and (%d, %d) do not cancel" % (i, j, j, i))
    return rows


def pfaffian(M):
    """Pfaffian of an even-size skew matrix by recursive pairing."""
    rows = check_skew(M)
    n = len(rows)
    if n % 2:
        raise OddSize("pfaffian needs an even size, got %d" % (n,))
    if n == 0:
        return Fraction(1)
    numeric = all(_is_num(e) for row in rows for e in row)
    memo: dict = {}

    def pf(mask: int):
        if mask == 0:
            return Fraction(1) if numeric else sc.ONE
        if mask in memo:
            return memo[mask]
        i = (mask & -mask).bit_length() - 1
        rest = mask & ~(1 << i)
        acc = None
        sign = 1
        j = rest
        while j:
            k = (j & -j).bit_length() - 1
            j &= j - 1
            e = rows[i][k]
            if not _entry_zero(e):
                sub = pf(rest & ~(1 << k))
                term = e * sub
                if sign < 0:
                    term = -term
                acc = term if acc is None else acc + term
            sign = -sign
        if acc is None:
            acc = Fraction(0) if numeric else sc.ZERO
        elif not numeric:
            acc = sc.normalize(acc)
        memo[mask] = acc
        return acc

    return pf((1 << n) - 1)


# ---------------------------------------------------------------------------
# Inverse.
# ---------------------------------------------------------------------------


def minor(M, drop_row: int, drop_col: int) -> list:
    rows = _square(M)
    return [
        [e for j, e in enumerate(row) if j != drop_col]
        for i, row in enumerate(rows)
        if i != drop_row
    ]


def inverse(M) -> list:
    """Exact inverse by the adjugate: Fractions for a matrix of ints and
    Fractions, normal forms for one of expressions."""
    rows = _square(M)
    n = len(rows)
    d = det(rows)
    if _entry_zero(d):
        raise ValueError("matrix is singular")
    if _is_num(d):
        inv_det: object = Fraction(1, 1) / d
    else:
        inv_det = sc.normalize(sc.Pow(d, -1))
    out = []
    for i in range(n):
        row = []
        for j in range(n):
            cof = det(minor(rows, j, i))
            term = cof * inv_det
            if (i + j) % 2:
                term = -term
            row.append(sc.normalize(term) if isinstance(term, ScalarExpr) else term)
        out.append(row)
    return out
