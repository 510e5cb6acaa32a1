"""Exact linear algebra tests.

Determinants are checked against a direct permutation-sum oracle and the
Pfaffian against its squared-determinant identity.
"""

from __future__ import annotations

import itertools
import random
from fractions import Fraction

import pytest

from superloc import scalars as sc
from superloc.errors import NotSkew, OddSize, ShapeMismatch
from superloc.grassmann import SuperChart, SuperFunction, parse_super
from superloc.linalg import (
    check_skew,
    det,
    identity,
    inverse,
    mat_add,
    mat_commutator,
    mat_equal,
    mat_mul,
    mat_sub,
    pfaffian,
    rank,
    transpose,
)


def _perm_sign(perm):
    sign = 1
    for i in range(len(perm)):
        for j in range(i + 1, len(perm)):
            if perm[i] > perm[j]:
                sign = -sign
    return sign


def _det_oracle(M):
    n = len(M)
    total = Fraction(0)
    for perm in itertools.permutations(range(n)):
        prod = Fraction(_perm_sign(perm))
        for i, j in enumerate(perm):
            prod *= M[i][j]
        total += prod
    return total


def _rand_matrix(rng, n, lo=-5, hi=5):
    return [[Fraction(rng.randint(lo, hi), rng.randint(1, 3)) for _ in range(n)] for _ in range(n)]


def _rand_skew(rng, n):
    M = [[Fraction(0)] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            v = Fraction(rng.randint(-4, 4), rng.randint(1, 2))
            M[i][j] = v
            M[j][i] = -v
    return M


def test_det_against_permutation_sum():
    rng = random.Random(3)
    for n in (1, 2, 3, 4, 5):
        for _ in range(6):
            M = _rand_matrix(rng, n)
            # two singular forms: the last row a copy of the one above it
            # (n > 1), and the first column zeroed
            repeated = M[:-1] + M[-2:-1] if n > 1 else [[0]]
            for A in (M, repeated, [[0] + r[1:] for r in M]):
                assert det(A) == _det_oracle(A)
                # det and rank share one elimination
                assert (rank(A) == n) == (det(A) != 0)
    # a zero pivot position swaps rows and flips the sign
    assert det([[0, 1], [1, 0]]) == -1


def test_det_multiplicative():
    rng = random.Random(5)
    for _ in range(8):
        A = _rand_matrix(rng, 4)
        B = _rand_matrix(rng, 4)
        assert det(mat_mul(A, B)) == det(A) * det(B)


def test_det_symbolic_matches_oracle():
    x, y, z = sc.sym("x"), sc.sym("y"), sc.sym("z")
    M = [[x, y, 1], [z, x * y, 0], [2, y, z]]
    expect = sc.ZERO
    for perm in itertools.permutations(range(3)):
        prod = sc.rational(_perm_sign(perm))
        for i, j in enumerate(perm):
            e = M[i][j]
            prod = prod * (e if isinstance(e, sc.ScalarExpr) else sc.rational(e))
        expect = expect + prod
    assert det(M) == sc.normalize(expect)


def test_det_shape_guard():
    with pytest.raises(ShapeMismatch):
        det([[1, 2], [3]])
    assert det([]) == 1


def test_pfaffian_canonical_blocks():
    # Block-diagonal with 2x2 blocks [[0, c], [-c, 0]] has pfaffian c1*c2*...
    rng = random.Random(7)
    for blocks in (1, 2, 3):
        cs = [Fraction(rng.randint(1, 6)) for _ in range(blocks)]
        n = 2 * blocks
        M = [[Fraction(0)] * n for _ in range(n)]
        for b, c in enumerate(cs):
            M[2 * b][2 * b + 1] = c
            M[2 * b + 1][2 * b] = -c
        expect = Fraction(1)
        for c in cs:
            expect *= c
        assert pfaffian(M) == expect


def test_pfaffian_squares_to_det():
    rng = random.Random(11)
    for n in (2, 4, 6, 8):
        for _ in range(5):
            M = _rand_skew(rng, n)
            assert pfaffian(M) ** 2 == det(M)


def test_pfaffian_congruence_scaling():
    # Scaling row i and column i by c scales the pfaffian by c.
    rng = random.Random(13)
    M = _rand_skew(rng, 4)
    c = Fraction(3, 2)
    S = [row[:] for row in M]
    for j in range(4):
        S[1][j] *= c
        S[j][1] *= c
    assert pfaffian(S) == c * pfaffian(M)


def test_pfaffian_symbolic_formula():
    a = {(i, j): sc.sym("a%d%d" % (i, j)) for i in range(1, 5) for j in range(i + 1, 5)}
    M = [[sc.ZERO] * 4 for _ in range(4)]
    for (i, j), s in a.items():
        M[i - 1][j - 1] = s
        M[j - 1][i - 1] = -s
    expect = a[(1, 2)] * a[(3, 4)] - a[(1, 3)] * a[(2, 4)] + a[(1, 4)] * a[(2, 3)]
    assert pfaffian(M) == sc.normalize(expect)


def test_pfaffian_guards():
    with pytest.raises(OddSize):
        pfaffian([[0, 1, 0], [-1, 0, 0], [0, 0, 0]])
    with pytest.raises(NotSkew):
        pfaffian([[0, 1], [1, 0]])
    with pytest.raises(NotSkew):
        check_skew([[1, 0], [0, 0]])
    assert pfaffian([]) == 1


def test_solve_and_inverse():
    rng = random.Random(17)
    done = 0
    while done < 10:
        A = _rand_matrix(rng, 4)
        if det(A) == 0:
            continue
        Ainv = inverse(A)
        assert mat_mul(A, Ainv) == identity(4)
        assert mat_mul(Ainv, A) == identity(4)
        done += 1


def test_solve_singular():
    with pytest.raises(ValueError):
        inverse([[1, 2], [2, 4]])
    with pytest.raises(ShapeMismatch):
        inverse([[1, 0, 0], [0, 1, 0]])


def test_inverse_symbolic_on_rationals():
    # the adjugate gives Fractions for Fractions and normal forms for
    # expressions, and the two agree entry by entry
    rng = random.Random(19)
    A = _rand_matrix(rng, 3)
    while det(A) == 0:
        A = _rand_matrix(rng, 3)
    S = [[sc.rational(e) for e in row] for row in A]
    got = inverse(S)
    want = inverse(A)
    assert all(isinstance(e, Fraction) for row in want for e in row)
    for i in range(3):
        for j in range(3):
            assert got[i][j] == sc.rational(want[i][j])


def test_inverse_symbolic_cancels():
    x = sc.sym("x")
    M = [[x, sc.rational(1)], [sc.rational(1), x]]
    Minv = inverse(M)
    prod = mat_mul(M, Minv)
    for i in range(2):
        for j in range(2):
            assert sc.normalize(prod[i][j]) == (sc.ONE if i == j else sc.ZERO)


def test_transpose_and_shapes():
    assert transpose([[1, 2, 3], [4, 5, 6]]) == [[1, 4], [2, 5], [3, 6]]
    assert transpose([]) == []
    with pytest.raises(ShapeMismatch):
        mat_mul([[1, 2]], [[1, 2]])
    with pytest.raises(ShapeMismatch):
        mat_add([[1, 2]], [[1], [2]])


# ---------------------------------------------------------------------------
# Dense helpers over any entry type with + - *.

CCHART = SuperChart(("x", "y"), 2)


def test_transpose_reverses_products():
    rng = random.Random(73)
    symbols = [sc.sym(name) for name in ("x", "y", "z")]

    def rat():
        return Fraction(rng.randint(-3, 3))

    def expr():
        return sc.rational(rng.randint(-3, 3)) * rng.choice(symbols) + sc.rational(rng.randint(-3, 3))

    for entry, (rows, inner, cols) in ((rat, (3, 3, 3)), (rat, (2, 3, 4)), (expr, (2, 3, 2))):
        for _ in range(10):
            A = [[entry() for _ in range(inner)] for _ in range(rows)]
            B = [[entry() for _ in range(cols)] for _ in range(inner)]
            lhs = transpose(mat_mul(A, B))
            rhs = mat_mul(transpose(B), transpose(A))
            assert mat_equal(lhs, rhs)


def test_mat_commutator_is_traceless(complex_pair):
    x = parse_super(CCHART, "x")
    y = parse_super(CCHART, "y")
    one = SuperFunction.one(CCHART)
    zero = SuperFunction.zero(CCHART)
    P = complex_pair
    A = [[P(x, one), P(y, zero)], [P(zero, one), P(x * y, zero)]]
    B = [[P(one, zero), P(y, x)], [P(x, zero), P(zero, y)]]
    C = mat_commutator(A, B)
    assert (C[0][0] + C[1][1]).is_zero()
    assert not mat_equal(C, mat_sub(C, C))
