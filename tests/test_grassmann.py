"""Grassmann algebra tests.

The multiplication oracle expands products over all index interleavings and
counts transposition signs directly, with no reference to the sparse merge
rule used by the implementation.
"""

from __future__ import annotations

import itertools
import random
import time
from fractions import Fraction

import pytest

from superloc import grassmann
from superloc import scalars as sc
from superloc.actions import (
    ActionSpec,
    _parameter_partial,
    action_lift,
    fundamental_field,
    square_residual,
)
from superloc.adhm import adhm_Q_full, adhm_Q_unconstrained, adhm_lifted_field, adhm_super_chart
from superloc.errors import DimensionMismatch, IndexOutOfRange, WrongGrade, ZeroBody
from superloc.geometry import flat_box_domain
from superloc.grassmann import (
    SuperChart,
    SuperFunction,
    SuperVectorField,
    graded_commutator,
    invert_even,
    parse_super,
    to_super_text,
)

CHART = SuperChart(coords=("x", "y"), n=2)
CHART4 = SuperChart(coords=("x", "y"), n=4)


def _sign_of_sort(seq):
    """Sign of the permutation sorting seq, 0 if entries repeat."""
    seq = list(seq)
    if len(set(seq)) != len(seq):
        return 0
    sign = 1
    for i in range(len(seq)):
        for j in range(i + 1, len(seq)):
            if seq[i] > seq[j]:
                sign = -sign
    return sign


def _parity(f):
    """0 for even, 1 for odd, None for mixed or zero."""
    pars = {len(i) % 2 for i in f.terms}
    if len(pars) == 1:
        return pars.pop()
    return None


def _even_partial(f, index):
    """Coefficient-wise derivative along coordinate number index (1-based):
    the reference for the even part of SuperVectorField.apply."""
    name = f.chart.coords[index - 1]
    return SuperFunction(f.chart, {idx: sc.differentiate(c, name) for idx, c in f.terms.items()})


def _odd_partial(f, index):
    """Left derivative along th^index: the reference for the odd part of
    SuperVectorField.apply."""
    out = {}
    for idx, c in f.terms.items():
        if index in idx:
            pos = idx.index(index)
            out[idx[:pos] + idx[pos + 1:]] = c if pos % 2 == 0 else -c
    return SuperFunction(f.chart, out)


def _along(chart, index, odd=False):
    """The field d/dx^index, or d/dth^index when odd (1-based), on chart."""
    zero, one = SuperFunction.zero(chart), SuperFunction.one(chart)
    a = [one if not odd and i == index else zero for i in range(1, chart.m + 1)]
    b = [one if odd and A == index else zero for A in range(1, chart.n + 1)]
    return SuperVectorField(chart, int(odd), a, b)


def _d_odd(f, index):
    """d/dth^index f through SuperVectorField.apply."""
    return _along(f.chart, index, odd=True).apply(f)


def _oracle_mul(f, g):
    """Product via raw concatenation and explicit sorting signs."""
    out = {}
    for fi, fc in f.terms.items():
        for gi, gc in g.terms.items():
            sign = _sign_of_sort(fi + gi)
            if sign == 0:
                continue
            key = tuple(sorted(fi + gi))
            term = sc.rational(sign) * fc * gc
            out[key] = out.get(key, sc.ZERO) + term
    return SuperFunction(f.chart, out)


def _random_coeff(rng):
    base = rng.choice(["num", "sym", "mix"])
    if base == "num":
        return sc.rational(Fraction(rng.randint(-4, 4), rng.randint(1, 3)))
    if base == "sym":
        return sc.sym(rng.choice(["x", "y", "t"]))
    return sc.sym("x") * rng.randint(-2, 2) + sc.rational(rng.randint(-3, 3))


def _random_sf(rng, chart, max_terms=4):
    terms = {}
    indices = list(range(1, chart.n + 1))
    for _ in range(rng.randint(1, max_terms)):
        k = rng.randint(0, chart.n)
        idx = tuple(sorted(rng.sample(indices, k)))
        terms[idx] = terms.get(idx, sc.ZERO) + _random_coeff(rng)
    return SuperFunction(chart, terms)


def test_generators_anticommute():
    th1 = SuperFunction.generator(CHART, 1)
    th2 = SuperFunction.generator(CHART, 2)
    assert th1 * th2 == -(th2 * th1)
    assert (th1 * th1).is_zero()
    assert (th2 * th2).is_zero()


def test_product_matches_sign_oracle():
    rng = random.Random(7)
    for _ in range(60):
        f = _random_sf(rng, CHART4)
        g = _random_sf(rng, CHART4)
        assert f * g == _oracle_mul(f, g)


def test_product_associative_and_distributive():
    rng = random.Random(11)
    for _ in range(25):
        f = _random_sf(rng, CHART4, max_terms=3)
        g = _random_sf(rng, CHART4, max_terms=3)
        h = _random_sf(rng, CHART4, max_terms=3)
        assert (f * g) * h == f * (g * h)
        assert f * (g + h) == f * g + f * h


def test_graded_commutativity():
    rng = random.Random(13)
    checked = 0
    for _ in range(80):
        f = _random_sf(rng, CHART4, max_terms=2)
        g = _random_sf(rng, CHART4, max_terms=2)
        pf, pg = _parity(f), _parity(g)
        if pf is None or pg is None:
            continue
        sign = (-1) ** (pf * pg)
        assert f * g == (g * f if sign > 0 else -(g * f))
        checked += 1
    assert checked >= 30


def test_scalar_coercion():
    th1 = SuperFunction.generator(CHART, 1)
    x = sc.sym("x")
    assert x * th1 == SuperFunction(CHART, {(1,): x})
    assert 3 * th1 == SuperFunction(CHART, {(1,): sc.rational(3)})
    assert th1 + 0 == th1
    f = 1 + x * th1 * SuperFunction.generator(CHART, 2)
    assert f.body() == sc.ONE
    assert f.top_component() == sc.normalize(x)


def test_scalar_minus_superfunction():
    f = parse_super(CHART, "x + 1 + y*th1 - th1*th2")
    minus_y = sc.normalize(-sc.sym("y"))
    assert (1 - f).terms == {(): sc.normalize(-sc.sym("x")), (1,): minus_y, (1, 2): sc.ONE}
    assert (sc.sym("x") - f).terms == {(): sc.MINUS_ONE, (1,): minus_y, (1, 2): sc.ONE}
    assert (2 - SuperFunction.from_scalar(CHART, 2)).is_zero()


def test_chart_mismatch_rejected():
    th1 = SuperFunction.generator(CHART, 1)
    other = SuperFunction.generator(CHART4, 1)
    with pytest.raises(DimensionMismatch):
        th1 * other
    with pytest.raises(IndexOutOfRange):
        SuperFunction.generator(CHART, 3)
    with pytest.raises(IndexOutOfRange):
        SuperFunction(CHART, {(2, 1): sc.ONE})


def test_odd_partial_left_convention():
    th1 = SuperFunction.generator(CHART, 1)
    th2 = SuperFunction.generator(CHART, 2)
    prod = th1 * th2
    assert _d_odd(prod, 1) == th2
    assert _d_odd(prod, 2) == -th1
    assert _d_odd(th1, 2).is_zero()


def test_odd_partials_anticommute():
    rng = random.Random(17)
    for _ in range(30):
        f = _random_sf(rng, CHART4)
        for a in (1, 2, 3):
            for b in (2, 4):
                left = _d_odd(_d_odd(f, a), b)
                right = _d_odd(_d_odd(f, b), a)
                if a == b:
                    assert left.is_zero()
                else:
                    assert left == -right


def test_odd_partial_graded_leibniz():
    rng = random.Random(19)
    checked = 0
    for _ in range(60):
        f = _random_sf(rng, CHART4, max_terms=2)
        g = _random_sf(rng, CHART4, max_terms=2)
        if _parity(f) is None:
            continue
        sign = (-1) ** _parity(f)
        for a in (1, 3):
            lhs = _d_odd(f * g, a)
            rhs = _d_odd(f, a) * g + (
                f * _d_odd(g, a) if sign > 0 else -(f * _d_odd(g, a))
            )
            assert lhs == rhs
        checked += 1
    assert checked >= 20


def test_even_partial():
    x, y = sc.sym("x"), sc.sym("y")
    th1 = SuperFunction.generator(CHART, 1)
    th2 = SuperFunction.generator(CHART, 2)
    f = (x**2 * y) * th1 + (x * y) * th1 * th2
    df = _along(CHART, 1).apply(f)
    assert df.coefficient((1,)) == sc.normalize(2 * x * y)
    assert df.coefficient((1, 2)) == sc.normalize(y)
    assert df == _even_partial(f, 1)


def _public(result):
    """result's terms passed through the public, index-checking constructor."""
    return SuperFunction(result.chart, dict(result.terms))


def test_arithmetic_results_equal_the_public_constructor():
    # results of arithmetic skip the index checks; they must still hold the
    # normalized nonzero coefficients, in the order the public constructor
    # would store them
    rng = random.Random(29)
    for _ in range(40):
        f, g = _random_sf(rng, CHART4), _random_sf(rng, CHART4)
        raw_sum = dict(f.terms)
        for idx, c in g.terms.items():
            raw_sum[idx] = raw_sum[idx] + c if idx in raw_sum else c
        raw_odd = {}
        for idx, c in f.terms.items():
            if 2 in idx:
                pos = idx.index(2)
                raw_odd[idx[:pos] + idx[pos + 1:]] = c if pos % 2 == 0 else -c
        raw_even = {idx: sc.differentiate(c, "x") for idx, c in f.terms.items()}
        cases = [
            (f + g, SuperFunction(CHART4, raw_sum)),
            (f - f, SuperFunction.zero(CHART4)),
            (-f, SuperFunction(CHART4, {idx: -c for idx, c in f.terms.items()})),
            (f * g, _oracle_mul(f, g)),
            (_d_odd(f, 2), SuperFunction(CHART4, raw_odd)),
            (_along(CHART4, 1).apply(f), SuperFunction(CHART4, raw_even)),
        ]
        for result, expected in cases:
            assert list(result.terms.items()) == list(_public(result).terms.items())
            assert result == expected
            assert all(c != sc.ZERO and c == sc.normalize(c) for c in result.terms.values())


def test_arithmetic_results_keep_no_zero_coefficient():
    # partial cancellations, products that vanish in some index and
    # derivatives of constants all leave zeros behind before the filter
    rng = random.Random(41)
    for _ in range(40):
        f, g = _random_sf(rng, CHART4), _random_sf(rng, CHART4)
        for result in (
            (f + g) - g,
            f * g - g * f,
            f * f,
            (f - f) * g,
            _d_odd(f * g, 1),
            _along(CHART4, 2).apply(f - g),
            _along(CHART4, 1).apply(SuperFunction.from_scalar(CHART4, sc.sym("t")) * f),
        ):
            assert all(c is not sc.ZERO and c != sc.ZERO for c in result.terms.values())


def _reference_merge_sign(left, right):
    # the sign of the sorting permutation of the concatenation
    sign = _sign_of_sort(left + right)
    return (tuple(sorted(left + right)), sign) if sign else (None, 0)


def test_memoized_merge_sign_matches_the_sorting_sign():
    indices = [
        idx for k in range(6) for idx in itertools.combinations(range(1, 6), k)
    ]
    grassmann._merge_sign.cache_clear()
    for _ in range(2):  # misses, then hits
        for left in indices:
            for right in indices:
                assert grassmann._merge_sign(left, right) == _reference_merge_sign(left, right)
    assert grassmann._merge_sign.cache_info().hits == len(indices) ** 2


def test_grade_projections():
    x = sc.sym("x")
    th1 = SuperFunction.generator(CHART4, 1)
    th3 = SuperFunction.generator(CHART4, 3)
    f = 5 + x * th1 + th1 * th3
    assert f.grades() == (0, 1, 2)
    assert f.grade(1) == x * th1
    assert _parity(f) is None
    assert _parity(x * th1) == 1
    assert _parity(1 + th1 * th3) == 0


def test_top_component_convolution_oracle():
    # Top of a product collects complementary index pairs with sorting signs.
    rng = random.Random(23)
    for _ in range(40):
        f = _random_sf(rng, CHART4)
        g = _random_sf(rng, CHART4)
        expect = sc.ZERO
        for fi, fc in f.terms.items():
            for gi, gc in g.terms.items():
                if len(fi) + len(gi) != 4:
                    continue
                sign = _sign_of_sort(fi + gi)
                if sign == 0:
                    continue
                expect = expect + sc.rational(sign) * fc * gc
        assert (f * g).top_component() == sc.normalize(expect)


def test_field_application_is_componentwise():
    x, y = sc.sym("x"), sc.sym("y")
    th1 = SuperFunction.generator(CHART, 1)
    th2 = SuperFunction.generator(CHART, 2)
    # Rotation lift: t(-y d/dx + x d/dy - th2 d/dth1 + th1 d/dth2).
    t = sc.sym("t")
    X = SuperVectorField(
        CHART,
        parity=0,
        a=(
            SuperFunction.from_scalar(CHART, -t * y),
            SuperFunction.from_scalar(CHART, t * x),
        ),
        b=(-t * th2, t * th1),
    )
    assert X.apply(SuperFunction.from_scalar(CHART, x)) == SuperFunction.from_scalar(
        CHART, -t * y
    )
    assert X.apply(th1) == -t * th2
    r2 = SuperFunction.from_scalar(CHART, x**2 + y**2)
    assert X.apply(r2).is_zero()
    assert X.apply(th1 * th2).is_zero()


def _random_field(rng, chart, parity):
    # Components are projected to pure grades matching the declared parity.
    a = []
    b = []
    q = (parity + 1) % 2
    for _ in range(chart.m):
        f = _random_sf(rng, chart, max_terms=2)
        a.append(f.grade(parity) + f.grade(parity + 2))
    for _ in range(chart.n):
        g = _random_sf(rng, chart, max_terms=2)
        b.append(g.grade(q) + g.grade(q + 2))
    return SuperVectorField(chart, parity, tuple(a), tuple(b))


def test_graded_commutator_matches_composition_oracle():
    # Compare against X(Y f) -+ Y(X f) on random test functions.
    rng = random.Random(29)
    for _ in range(12):
        px, py = rng.randint(0, 1), rng.randint(0, 1)
        X = _random_field(rng, CHART4, px)
        Y = _random_field(rng, CHART4, py)
        Z = graded_commutator(X, Y)
        sign = (-1) ** (px * py)
        for _ in range(3):
            f = _random_sf(rng, CHART4, max_terms=3)
            comp = X.apply(Y.apply(f))
            comp = comp - Y.apply(X.apply(f)) if sign > 0 else comp + Y.apply(X.apply(f))
            assert Z.apply(f) == comp


def test_graded_commutator_odd_square():
    # For odd X, [X, X] acts as twice the composition of X with itself.
    rng = random.Random(31)
    X = _random_field(rng, CHART4, 1)
    Z = graded_commutator(X, X)
    for _ in range(4):
        f = _random_sf(rng, CHART4, max_terms=3)
        assert Z.apply(f) == 2 * X.apply(X.apply(f))


def _assert_same_field(X, Y):
    assert (X.chart, X.parity) == (Y.chart, Y.parity)
    for x, y in zip(X.a + X.b, Y.a + Y.b, strict=True):
        assert to_super_text(x) == to_super_text(y)


def test_square_residual_matches_the_commutator_reference(square_reference):
    # residuals that do not vanish: a random odd Q against a random lift
    rng = random.Random(37)
    for _ in range(10):
        Q = _random_field(rng, CHART4, 1)
        lift = _random_field(rng, CHART4, 0)
        _assert_same_field(square_residual(Q, lift), square_reference(Q, lift))


def _adhm_pairs(k):
    """(Q, lift, params) of the ADHM operator on the matter and on the full
    chart at rank k, N = 2."""
    for full in (False, True):
        lay = adhm_super_chart(k, 2, full=full)
        Q = (adhm_Q_full if full else adhm_Q_unconstrained)(lay)
        yield Q, adhm_lifted_field(lay), lay.params


def test_graded_commutator_equals_the_two_application_reference(commutator_reference):
    rng = random.Random(47)
    pairs = [
        (_random_field(rng, CHART4, rng.randint(0, 1)), _random_field(rng, CHART4, rng.randint(0, 1)))
        for _ in range(12)
    ]
    for k in (1, 2):
        for Q, lift, params in _adhm_pairs(k):
            pairs += [(Q, Q), (lift, Q), (Q, lift)]
            pairs += [(_parameter_partial(lift, name), Q) for name in params]
    for X, Y in pairs:
        got, want = graded_commutator(X, Y), commutator_reference(X, Y)
        assert (got.chart, got.parity) == (want.chart, want.parity)
        assert [c.terms for c in got.a + got.b] == [c.terms for c in want.a + want.b]


def test_commutator_and_square_build_one_normal_form_per_coefficient(monkeypatch):
    # each (component, odd index) that X(Y^i) and Y(X^i), or Q(Q^i) and
    # lift^i, contribute to is one combine: at most one normal form each,
    # from cold kernel caches
    built = []
    normal_form = sc._normal_form

    def counted(p):
        built.append(p)
        return normal_form(p)

    def indices(X, f):
        return set(X._apply_terms({}, 1, f))

    monkeypatch.setattr(sc, "_normal_form", counted)
    for Q, lift, params in _adhm_pairs(1):
        X = _parameter_partial(lift, params[0])
        cases = [
            (lambda: graded_commutator(X, Q), [indices(X, q) | indices(Q, x)
                                               for q, x in zip(Q.a + Q.b, X.a + X.b)]),
            (lambda: graded_commutator(Q, Q), [indices(Q, q) for q in Q.a + Q.b]),
            (lambda: square_residual(Q, lift), [indices(Q, q) | set(flow.terms)
                                                for q, flow in zip(Q.a + Q.b, lift.a + lift.b)]),
        ]
        for build, assembled in cases:
            sc.normalize.cache_clear()
            sc._POLY.clear()
            built.clear()
            build()
            assert len(built) <= sum(map(len, assembled))


def test_square_residual_of_an_even_field_is_minus_the_lift():
    rng = random.Random(43)
    for _ in range(5):
        X = _random_field(rng, CHART4, 0)
        lift = _random_field(rng, CHART4, 0)
        residual = square_residual(X, lift)
        assert residual.parity == 0
        for r, flow in zip(residual.a + residual.b, lift.a + lift.b, strict=True):
            assert (r + flow).is_zero()
    with pytest.raises(DimensionMismatch):
        square_residual(X, _random_field(rng, CHART4, 1))


def test_invert_even_unit_body():
    rng = random.Random(37)
    th = [SuperFunction.generator(CHART4, k) for k in (1, 2, 3, 4)]
    for _ in range(25):
        f = SuperFunction.one(CHART4)
        for (i, j) in ((0, 1), (0, 2), (1, 3), (2, 3)):
            f = f + _random_coeff(rng) * th[i] * th[j]
        if rng.random() < 0.5:
            f = f + _random_coeff(rng) * th[0] * th[1] * th[2] * th[3]
        inv = invert_even(f)
        assert f * inv == SuperFunction.one(CHART4)
        assert inv * f == SuperFunction.one(CHART4)


def test_invert_even_symbolic_body():
    x = sc.sym("x")
    th1 = SuperFunction.generator(CHART, 1)
    th2 = SuperFunction.generator(CHART, 2)
    f = SuperFunction.from_scalar(CHART, x**2 + 1) + th1 * th2
    inv = invert_even(f, samples=[{"x": Fraction(1, 2)}, {"x": 3}])
    assert f * inv == SuperFunction.one(CHART)


def test_invert_even_guards():
    th1 = SuperFunction.generator(CHART, 1)
    th2 = SuperFunction.generator(CHART, 2)
    with pytest.raises(WrongGrade):
        invert_even(th1)
    with pytest.raises(ZeroBody):
        invert_even(th1 * th2)
    x = sc.sym("x")
    f = SuperFunction.from_scalar(CHART, x) + th1 * th2
    with pytest.raises(ZeroBody):
        invert_even(f, samples=[{"x": 1}, {"x": 0}])


def test_text_round_trip_fixed():
    x = sc.sym("x")
    th1 = SuperFunction.generator(CHART, 1)
    th2 = SuperFunction.generator(CHART, 2)
    f = (x**2) * th1 * th2 + 3 * th1
    txt = to_super_text(f)
    assert txt == "3*th1 + (x^2)*th1*th2"
    assert parse_super(CHART, txt) == f
    assert parse_super(CHART, "th2*th1") == -(th1 * th2)
    assert parse_super(CHART, "0").is_zero()
    assert to_super_text(SuperFunction.zero(CHART)) == "0"


def test_text_round_trip_random():
    rng = random.Random(41)
    for _ in range(40):
        f = _random_sf(rng, CHART4)
        assert parse_super(CHART4, to_super_text(f)) == f


ANNULUS = SuperChart(coords=("r", "phi"), n=2)
HOLOMORPHIC = SuperChart(coords=("z1", "zb1", "z2", "zb2"), n=2)

# (chart, text, to_super_text of its parse): the Stokes forms of the bundled
# scenarios, the texts the tests parse, and a few edges of the grammar
PARSED_TEXTS = (
    (CHART, "x*y*th2", "(x*y)*th2"),
    (ANNULUS, "r^3*cos(phi)*th1 + (r^2 - 3*r)*th2", "(r^3*cos(phi))*th1 + (r^2 - 3*r)*th2"),
    (ANNULUS, "r^3*th1 + (r^2 - 3*r)*th2", "(r^3)*th1 + (r^2 - 3*r)*th2"),
    (ANNULUS, "r*th1 + 1", "1 + r*th1"),
    (CHART, "x*th1 + y*th2", "x*th1 + y*th2"),
    (CHART, "th1*th2", "th1*th2"),
    (CHART, "x*th1 + th1*th2", "x*th1 + th1*th2"),
    (CHART, "x*y*th2 + x^2*th1", "(x^2)*th1 + (x*y)*th2"),
    (CHART, "x^3 - 2*x", "x^3 - 2*x"),
    (CHART, "s*x*y*th2", "(s*x*y)*th2"),
    (CHART, "-t*th2", "(-t)*th2"),
    (CHART, "-2*t*th2", "(-2*t)*th2"),
    (CHART, "th1*th2 + (1/2)*t*(x^2 + y^2)", "1/2*t*x^2 + 1/2*t*y^2 + th1*th2"),
    (CHART, "1 + th1*th2 + (1/2)*t*(x^2 + y^2)", "1/2*t*x^2 + 1/2*t*y^2 + 1 + th1*th2"),
    (CHART, "x*th2 - y*th1", "(-y)*th1 + x*th2"),
    (CHART, "2*th1*th2 + t*(x^2 + y^2)", "t*x^2 + t*y^2 + 2*th1*th2"),
    (CHART, "3*th1 + (x^2)*th1*th2", "3*th1 + (x^2)*th1*th2"),
    (CHART, "th2*th1", "-1*th1*th2"),
    (CHART, "exp(-t*x)", "exp(-t*x)"),
    (CHART, "exp(-1*x^-1)*th2", "exp(-x^-1)*th2"),
    (CHART, "x^-1*y*th2", "(x^-1*y)*th2"),
    (CHART, "0", "0"),
    (HOLOMORPHIC, "e1*z1", "e1*z1"),
    (HOLOMORPHIC, "e2*th2", "e2*th2"),
    (CHART, "--th1", "th1"),
    (CHART, "(x*th1)^0", "1"),
    (CHART, "x/2/y*th2", "(1/2*x*y^-1)*th2"),
    (CHART, "x / (y + 0*th1)", "x*y^-1"),
)

REJECTED_TEXTS = (
    ("exp(th1)", ValueError),
    ("th1(x)", ValueError),
    ("x / th1", ValueError),
    ("th1 ^ -1", ValueError),
    ("x/(th1*th2)", ValueError),
    ("x^2^3", ValueError),
    ("x ** 2", ValueError),
    ("", ValueError),
    ("x/(th2*th2)", ZeroDivisionError),
)


@pytest.mark.parametrize("chart, text, want", PARSED_TEXTS, ids=[t for _, t, _ in PARSED_TEXTS])
def test_parse_super_grammar_accepts(chart, text, want):
    assert to_super_text(parse_super(chart, text)) == want


def test_parse_super_rejects():
    for text, error in REJECTED_TEXTS:
        with pytest.raises(error):
            parse_super(CHART, text)


def test_parse_super_negative_power_of_a_pure_body():
    th1 = SuperFunction.generator(CHART, 1)
    # a quotient is a negative power, and only a pure body takes one: once
    # the generators cancel, the body's own power is what is left
    assert parse_super(CHART, "(y + 0*th1)^-1") == parse_super(CHART, "y^-1")
    with pytest.raises(ZeroDivisionError):
        parse_super(CHART, "(th2*th2)^-1")
    # x/0 and x*0^-1 are one node, and its zeroth power divides by zero too
    for text in ("(x/0)^0*th1", "(x*0^-1)^0*th1"):
        with pytest.raises(ZeroDivisionError):
            parse_super(CHART, text)


@pytest.mark.parametrize("n", [500, 1000])
def test_parse_super_reads_a_long_written_out_sum(n):
    # the scalar parser reads x^0*th2 + x^1*th2 + ... as one Add, whose
    # terms the lift sums in one normal form; the reference adds term by term
    chart = flat_box_domain().spec.chart
    th2 = SuperFunction.generator(chart, 2)
    want = SuperFunction.zero(chart)
    for i in range(n):
        want = want + sc.sym("x") ** i * th2
    assert parse_super(chart, " + ".join("x^%d*th2" % i for i in range(n))) == want


def test_parse_super_sums_2000_terms_in_under_a_second():
    # one normal form per odd index; one per term added is quadratic
    chart = flat_box_domain().spec.chart
    text = " + ".join("x^%d*th2" % i for i in range(2000))
    t0 = time.perf_counter()
    f = parse_super(chart, text)
    assert time.perf_counter() - t0 < 1.0
    assert list(f.terms) == [(2,)] and len(f.terms[(2,)].args) == 2000


CHART3 = SuperChart(coords=("x", "y", "z"), n=3)


def _sparse_sf(rng, parity=None, inverses=()):
    """Random superfunction whose coefficients name a random subset of the
    coordinates (plus the parameter t) and whose odd monomials use a random
    subset of the generators. When inverses is given, about half the
    coefficients take a factor drawn from it, and none takes an exp."""
    names = rng.sample(list(CHART3.coords), rng.randint(0, 3))
    gens = rng.sample([1, 2, 3], rng.randint(0, 3))
    terms = {}
    for _ in range(rng.randint(0, 3)):
        idx = tuple(sorted(rng.sample(gens, rng.randint(0, len(gens)))))
        if parity is not None and len(idx) % 2 != parity:
            continue
        coeff = sc.rational(rng.randint(-3, 3), rng.randint(1, 2))
        for name in rng.sample(names + ["t"], rng.randint(0, len(names) + 1)):
            coeff = coeff * sc.sym(name) ** rng.randint(1, 2)
        if inverses:
            if rng.random() < 0.5:
                coeff = coeff * rng.choice(inverses)
        elif rng.random() < 0.2 and names:
            coeff = coeff * sc.exp(sc.sym(rng.choice(names)))
        terms[idx] = coeff
    return SuperFunction(CHART3, terms)


def test_sparse_apply_matches_definition():
    # apply skips the partials along coordinates and generators that do not
    # occur in f; the dense sum over every component is the definition.
    rng = random.Random(6101)
    for _ in range(150):
        parity = rng.randint(0, 1)
        X = SuperVectorField(
            CHART3,
            parity,
            tuple(_sparse_sf(rng, parity) for _ in range(3)),
            tuple(_sparse_sf(rng, 1 - parity) for _ in range(3)),
        )
        f = _sparse_sf(rng)
        dense = SuperFunction.zero(CHART3)
        for i, comp in enumerate(X.a, start=1):
            dense = dense + comp * _even_partial(f, i)
        for A, comp in enumerate(X.b, start=1):
            dense = dense + comp * _odd_partial(f, A)
        assert X.apply(f) == dense


_FACTORS = tuple(
    sc.parse_scalar(text)
    for text in ("(1 + x^2 + y^2)^-1", "(t + x)^-2", "(y - 1)^-2", "(t*y + 1)^-1", "(x*y + z)^-1")
)
_INVERSES = _FACTORS + tuple(a * b for a in _FACTORS for b in _FACTORS)


def test_apply_matches_definition_on_composite_inverse_atoms():
    # apply brings each coefficient to one normal form, the dense sum to one
    # per term it adds; the coefficients carry one or two composite inverses
    rng = random.Random(6131)
    points = (
        {"x": Fraction(1, 3), "y": Fraction(2, 7), "z": Fraction(-3, 5), "t": Fraction(5, 4)},
        {"x": Fraction(2), "y": Fraction(-1), "z": Fraction(5, 4), "t": Fraction(-3, 5)},
    )
    split = []
    inverses = 0
    for draw in range(200):
        parity = rng.randint(0, 1)
        X = SuperVectorField(
            CHART3,
            parity,
            tuple(_sparse_sf(rng, parity, _INVERSES) for _ in range(3)),
            tuple(_sparse_sf(rng, 1 - parity, _INVERSES) for _ in range(3)),
        )
        f = _sparse_sf(rng, inverses=_INVERSES)
        dense = SuperFunction.zero(CHART3)
        for i, comp in enumerate(X.a, start=1):
            dense = dense + comp * _even_partial(f, i)
        for A, comp in enumerate(X.b, start=1):
            dense = dense + comp * _odd_partial(f, A)
        got = X.apply(f)
        if got != dense:
            split.append(draw)
            for point, idx in itertools.product(points, set(got.terms) | set(dense.terms)):
                assert sc.evaluate(got.coefficient(idx), point) == sc.evaluate(
                    dense.coefficient(idx), point
                )
        inverses += any(
            sc._is_composite_atom(atom)
            for c in got.terms.values()
            for m in sc._expr_to_poly(c)
            for atom, _ in m
        )
    assert inverses >= 60
    # Reducing each term and then their sum can give a normal form of the
    # same function other than the one a single reduction of the sum gives:
    # the normal form is canonical only as a polynomial in its atoms
    # (ROADMAP item 2).
    assert split == [3, 18, 93]


def test_lifted_field_matches_dense_sum_on_adhm_k2():
    # The tautological lift takes one derivative of the flow per (A, B);
    # the reference sums p_alpha dT_alpha^A/dx^B over the generators.
    # T is the derivative of the ADHM flow along each Cartan symbol.
    lay = adhm_super_chart(2, 2)
    adhm_lift = adhm_lifted_field(lay)
    bodies = [comp.body() for comp in adhm_lift.a]
    T = [[sc.normalize(sc.differentiate(body, p)) for body in bodies] for p in lay.params]
    spec = ActionSpec(lay.params, lay.chart, T)
    chart, coords = spec.chart, spec.chart.coords
    coeffs = [sc.sym(p) for p in spec.params]
    dense = tuple(
        SuperFunction(
            chart,
            {
                (B + 1,): sum(
                    (c * sc.differentiate(row[A], x) for row, c in zip(T, coeffs)), sc.ZERO
                )
                for B, x in enumerate(coords)
            },
        )
        for A in range(chart.n)
    )
    lift = action_lift(spec)
    assert lift.b == dense
    assert lift.a == fundamental_field(spec).a
    assert any(not comp.is_zero() for comp in lift.b)
    # the partners' rotation in the ADHM lift is the tautological lift of its flow
    assert lift == adhm_lift
