"""The exact kernel against sympy, an independent computer algebra system.

Seeded random expressions, composite inverses included, go through
`normalize`, `differentiate`, `derive` and `linalg.det`; each result must
agree with sympy's computation on the same raw tree. `linalg.rank` must
agree with sympy's rank on seeded rational matrices, full rank and
deficient. sympy is a test-only oracle: the module is skipped when it is
not installed.

`normalize`, `differentiate` and `derive` are compared as identities.
sympy needs seconds to cancel a 4x4 determinant over several composite
denominators, so `det` is compared exactly at random rational points
instead.
"""

from __future__ import annotations

import random
from fractions import Fraction

import pytest

from superloc import scalars as sc
from superloc.linalg import det, rank
from superloc.scalars import derive, differentiate, normalize

from test_scalars import _random_expr

sympy = pytest.importorskip("sympy")

_FUNCTIONS = {"exp": sympy.exp, "sin": sympy.sin, "cos": sympy.cos}


def _to_sympy(e: sc.ScalarExpr):
    """Node-by-node translation, independent of to_text and of normalize."""
    if isinstance(e, sc.Rat):
        return sympy.Rational(e.value.numerator, e.value.denominator)
    if isinstance(e, sc.Sym):
        return sympy.Symbol(e.name)
    if isinstance(e, sc.Add):
        return sympy.Add(*(_to_sympy(a) for a in e.args))
    if isinstance(e, sc.Mul):
        return sympy.Mul(*(_to_sympy(a) for a in e.args))
    if isinstance(e, sc.Pow):
        return sympy.Pow(_to_sympy(e.base), e.exponent)
    if isinstance(e, sc.Func):
        return _FUNCTIONS[e.kind](_to_sympy(e.arg))
    raise TypeError(e)


def _sympy_equal(a, b) -> bool:
    """a == b as rational functions in the symbols and the exp/sin/cos
    atoms, after expanding inside the atoms' arguments."""
    return sympy.cancel(sympy.expand(a - b)) == 0


def _equal_at_points(a, b, rng: random.Random) -> bool:
    """a == b exactly at three random rational points where both are finite."""
    checked = 0
    while checked < 3:
        point = {sympy.Symbol(n): sympy.Rational(rng.randrange(-9, 10), rng.randrange(1, 9))
                 for n in ("x", "y", "t")}
        va, vb = a.subs(point), b.subs(point)
        if va.has(sympy.zoo, sympy.nan) or vb.has(sympy.zoo, sympy.nan):
            continue
        if sympy.expand(va - vb) != 0:
            return False
        checked += 1
    return True


def _nonsingular(rng: random.Random, depth: int) -> sc.ScalarExpr:
    # sympy turns 0^-k into zoo; the kernel raises ZeroDivisionError
    while True:
        e = _random_expr(rng, depth)
        try:
            normalize(e)
        except ZeroDivisionError:
            continue
        if not _to_sympy(e).has(sympy.zoo, sympy.nan):
            return e


def test_normalize_matches_sympy():
    rng = random.Random(71)
    for _ in range(40):
        e = _nonsingular(rng, 3)
        assert _sympy_equal(_to_sympy(normalize(e)), _to_sympy(e))


def test_differentiate_matches_sympy():
    rng = random.Random(73)
    for _ in range(30):
        e = _nonsingular(rng, 3)
        for name in ("x", "t"):
            got = _to_sympy(differentiate(e, name))
            assert _sympy_equal(got, sympy.diff(_to_sympy(e), sympy.Symbol(name)))


def test_derive_matches_sympy():
    # the 20th draw of this seed takes sympy 3 s to cancel; 15 run in 0.2 s
    rng = random.Random(89)
    for _ in range(15):
        e = _nonsingular(rng, 3)
        field = {"x": _nonsingular(rng, 2), "t": _nonsingular(rng, 2)}
        want = sum(_to_sympy(v) * sympy.diff(_to_sympy(e), sympy.Symbol(c)) for c, v in field.items())
        assert _sympy_equal(_to_sympy(derive(e, field)), want)


@pytest.mark.parametrize("n", [2, 3, 4])
def test_det_matches_sympy(n):
    rng = random.Random(79 + n)
    for _ in range(4):
        M = [[_nonsingular(rng, 1) for _ in range(n)] for _ in range(n)]
        want = sympy.Matrix([[_to_sympy(e) for e in row] for row in M]).det(method="berkowitz")
        assert _equal_at_points(_to_sympy(det(M)), want, rng)


def test_rank_matches_sympy():
    # products of an r x k and a k x c factor, so low ranks occur
    rng = random.Random(83)
    seen = set()
    for _ in range(40):
        r, c, k = rng.randint(1, 6), rng.randint(1, 6), rng.randint(1, 4)
        entry = lambda: Fraction(rng.randint(-3, 3), rng.randint(1, 3))
        left = [[entry() for _ in range(k)] for _ in range(r)]
        right = [[entry() for _ in range(c)] for _ in range(k)]
        M = [[sum(a * b for a, b in zip(row, col)) for col in zip(*right)] for row in left]
        want = sympy.Matrix(M).rank()
        assert rank(M) == want
        seen.add(want < min(r, c))
    assert seen == {True, False}
