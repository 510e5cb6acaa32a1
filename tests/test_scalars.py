"""Scalar kernel: exactness, normal form, calculus oracles, text round-trip."""

from __future__ import annotations

import functools
import math
import os
import pickle
import random
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from superloc import scalars as sc
from superloc.cli import main
from superloc.errors import ComputationError, UnboundSymbol
from superloc.scalars import (
    Rat,
    compile_numeric,
    derive,
    differentiate,
    evaluate,
    normalize,
    parse_scalar,
    substitute,
    sym,
    to_text,
)

X, Y, T = sym("x"), sym("y"), sym("t")


def _random_expr(rng: random.Random, depth: int = 3) -> sc.ScalarExpr:
    if depth == 0 or rng.random() < 0.3:
        choice = rng.randrange(3)
        if choice == 0:
            return Rat(Fraction(rng.randrange(-6, 7), rng.randrange(1, 5)))
        return rng.choice([X, Y, T])
    op = rng.randrange(6)
    if op == 5:
        # the inverse of a sum reaches the composite inverse atoms
        base = _random_expr(rng, depth - 1) + _random_expr(rng, depth - 1)
        if sc.is_zero(base):
            return base
        return base ** -rng.randrange(1, 3)
    if op == 0:
        return _random_expr(rng, depth - 1) + _random_expr(rng, depth - 1)
    if op == 1:
        return _random_expr(rng, depth - 1) * _random_expr(rng, depth - 1)
    if op == 2:
        return _random_expr(rng, depth - 1) ** rng.randrange(0, 4)
    if op == 3:
        return -_random_expr(rng, depth - 1)
    return sc.Func(rng.choice(["exp", "sin", "cos"]), _random_expr(rng, depth - 1))


def _random_binding(rng: random.Random) -> dict:
    return {name: rng.uniform(-1.5, 1.5) for name in ("x", "y", "t")}


# ---------------------------------------------------------------------------
# evaluate


def test_evaluate_rational_stays_exact():
    e = parse_scalar("2*x^2 + 1/3")
    v = evaluate(e, {"x": Fraction(1, 2)})
    assert v == Fraction(5, 6)
    assert isinstance(v, Fraction)


def test_evaluate_exp_zero_is_exact_one():
    e = parse_scalar("exp(0) + cos(0) + sin(0)")
    assert evaluate(e, {}) == Fraction(2)


def test_evaluate_against_horner_oracle():
    # independent oracle: Horner scheme on the raw coefficient list
    rng = random.Random(11)
    for _ in range(30):
        coeffs = [Fraction(rng.randrange(-9, 10), rng.randrange(1, 7)) for _ in range(6)]
        e = sc.ZERO
        for k, c in enumerate(coeffs):
            e = e + Rat(c) * X ** k
        x0 = Fraction(rng.randrange(-8, 9), rng.randrange(1, 9))
        acc = Fraction(0)
        for c in reversed(coeffs):
            acc = acc * x0 + c
        assert evaluate(e, {"x": x0}) == acc
        assert evaluate(normalize(e), {"x": x0}) == acc


def test_unbound_symbol_raises():
    with pytest.raises(UnboundSymbol):
        evaluate(parse_scalar("x + y"), {"x": 1})
    # compile_numeric raises when it compiles, not when the function runs
    with pytest.raises(UnboundSymbol, match="'t'"):
        compile_numeric(X * T + Y, ("x", "y"))
    with pytest.raises(UnboundSymbol, match="'t'"):
        compile_numeric(X * T, ("x",), {"y": 1})
    assert compile_numeric(X * T, ("x",), {"t": 2})((3.0,)) == 6.0


# ---------------------------------------------------------------------------
# differentiate


def test_differentiate_product_exp_example():
    d = differentiate(parse_scalar("exp(t*x)"), "x")
    assert d == normalize(T * sc.exp(T * X))


def test_differentiate_against_finite_differences():
    # central differences, step 1e-5, relative tolerance 1e-6
    rng = random.Random(23)
    h = 1e-5
    checked = 0
    while checked < 25:
        e = _random_expr(rng)
        d = differentiate(e, "x")
        b = _random_binding(rng)
        try:
            up = dict(b, x=b["x"] + h)
            dn = dict(b, x=b["x"] - h)
            fd = (float(evaluate(e, up)) - float(evaluate(e, dn))) / (2 * h)
            dv = float(evaluate(d, b))
        except (ZeroDivisionError, OverflowError):
            continue
        if abs(fd) > 1e6:
            continue
        assert dv == pytest.approx(fd, rel=1e-6, abs=1e-5)
        checked += 1


def test_differentiate_inverse_power():
    e = parse_scalar("(x^2 + y^2)^-1")
    d = differentiate(e, "x")
    expect = normalize(parse_scalar("-2*x*(x^2 + y^2)^-2"))
    assert d == expect


def _tree_diff(e: sc.ScalarExpr, name: str) -> sc.ScalarExpr:
    """Reference derivative: the product-rule tree over the expression,
    which normalize then expands."""
    if isinstance(e, Rat):
        return sc.ZERO
    if isinstance(e, sc.Sym):
        return sc.ONE if e.name == name else sc.ZERO
    if isinstance(e, sc.Add):
        return sc.Add(tuple(_tree_diff(a, name) for a in e.args))
    if isinstance(e, sc.Mul):
        return sc.Add(tuple(
            sc.Mul((_tree_diff(a, name),) + e.args[:i] + e.args[i + 1:])
            for i, a in enumerate(e.args)
        ))
    if isinstance(e, sc.Pow):
        return Rat(Fraction(e.exponent)) * sc.Pow(e.base, e.exponent - 1) * _tree_diff(e.base, name)
    outer = {"exp": sc.exp(e.arg), "sin": sc.cos(e.arg), "cos": -sc.sin(e.arg)}[e.kind]
    return outer * _tree_diff(e.arg, name)


def _atoms(n: sc.ScalarExpr) -> set:
    return {atom for m in sc._expr_to_poly(n) for atom, _ in m}


def test_differentiate_matches_the_tree_rule_structurally():
    # 1,000 seeded expressions, each along x, y and t
    rng = random.Random(59)
    pairs = inverses = composite_args = 0
    for _ in range(1000):
        e = _random_expr(rng)
        n = normalize(e)
        atoms = _atoms(n)
        for name in ("x", "y", "t"):
            assert differentiate(e, name) == normalize(_tree_diff(n, name))
            pairs += 1
            inverses += any(sc._is_composite_atom(a) for a in atoms)
            composite_args += any(
                isinstance(a, sc.Func) and not isinstance(a.arg, sc.Sym) for a in atoms
            )
    assert pairs == 3000 and inverses >= 500 and composite_args >= 500


def _random_field(rng: random.Random) -> dict:
    """Two or three of x, y, t, each sent to a random expression."""
    return {name: _random_expr(rng, 2) for name in rng.sample(("x", "y", "t"), rng.randrange(2, 4))}


def test_derive_matches_the_sum_of_partials_structurally():
    # 300 seeded expressions, each along a random field: against the tree
    # rule, which shares no code with the product-rule walk, and against the
    # sum of partial derivatives
    rng = random.Random(83)
    inverses = funcs = 0
    split = []
    for draw in range(300):
        e, field = _random_expr(rng), _random_field(rng)
        n = normalize(e)
        got = derive(e, field)
        assert got == normalize(sc.Add(tuple(v * _tree_diff(n, c) for c, v in field.items())))
        partials = normalize(sc.Add(tuple(v * differentiate(e, c) for c, v in field.items())))
        if got != partials:
            split.append(draw)
            for x0, y0, t0 in ((Fraction(1, 3), Fraction(2, 7), Fraction(-3, 5)), (2, -1, Fraction(5, 4))):
                point = {"x": Fraction(x0), "y": Fraction(y0), "t": Fraction(t0)}
                assert evaluate(got, point) == evaluate(partials, point)
        atoms = _atoms(n)
        inverses += any(sc._is_composite_atom(a) for a in atoms)
        funcs += any(isinstance(a, sc.Func) for a in atoms)
    assert inverses >= 50 and funcs >= 50
    # Draw 181 is (y - 1)^2 over t*y*(y - 1)^2 + 1 along a field with two
    # other composite inverses. Reducing each partial and then their sum
    # gives a normal form of the same function that differs from the one a
    # single reduction gives: the normal form is canonical only as a
    # polynomial in its atoms (ROADMAP item 2).
    assert split == [181]


def test_a_zero_derivative_builds_no_normal_form():
    e = parse_scalar("exp(x*y)*(x^2 + y^2 + 7)^-2 + sin(x + t)")
    # warm the memos the calls below read, so that only a normal form built
    # for a zero derivative could add an entry
    differentiate(e, "x")
    normalize(X)
    normalize(Y)
    sc._POLY.pop(sc.ZERO, None)
    memo = dict(sc._POLY)
    assert differentiate(e, "absent") is sc.ZERO
    assert derive(e, {"absent": X, "other": Y}) is sc.ZERO
    assert derive(e, {}) is sc.ZERO
    assert sc._POLY == memo


def test_combine_of_a_lone_unit_term_is_that_normal_form():
    # a coefficient only one operand of a sum carries reaches combine as
    # (1, c, ONE); c is a normal form already, so no normal form is built
    c = normalize(parse_scalar("exp(x)*(x^2 + y^2 + 7)^-1 - 3*y"))
    assert any(sc._is_composite_atom(a) for a in _atoms(c))
    assert sc.combine([(1, c, sc.ONE)]) is c
    assert sc.combine([(-1, c, sc.ONE)]) == normalize(-c)


def test_mixed_partials_commute_structurally():
    rng = random.Random(61)
    for _ in range(200):
        e = _random_expr(rng)
        assert differentiate(differentiate(e, "x"), "y") == differentiate(differentiate(e, "y"), "x")


# ---------------------------------------------------------------------------
# normalize


def test_normalize_idempotent():
    rng = random.Random(37)
    for _ in range(40):
        n = normalize(_random_expr(rng))
        assert normalize(n) == n


def test_normalize_collects_ring_equal_pairs():
    rng = random.Random(41)
    for _ in range(40):
        terms = [_random_expr(rng, 2) for _ in range(4)]
        left = ((terms[0] + terms[1]) + terms[2]) + terms[3]
        shuffled = terms[:]
        rng.shuffle(shuffled)
        right = shuffled[0] + (shuffled[1] + (shuffled[2] + shuffled[3]))
        # certify ring equality numerically before the structural claim
        b = _random_binding(rng)
        try:
            lv, rv = float(evaluate(left, b)), float(evaluate(right, b))
        except (ZeroDivisionError, OverflowError):
            continue
        assert lv == pytest.approx(rv, rel=1e-9, abs=1e-9)
        assert normalize(left) == normalize(right)


def test_normalize_binomial_expansion():
    left = normalize((X + Y) ** 3)
    right = normalize(X ** 3 + 3 * X ** 2 * Y + 3 * X * Y ** 2 + Y ** 3)
    assert left == right


def test_normalize_distinguishes_transcendental_atoms():
    assert normalize(sc.exp(X) * sc.exp(Y)) != normalize(sc.exp(X + Y))


def test_composite_inverse_cancels():
    g = X ** 2 + Y ** 2
    assert normalize(g * g ** -1) == sc.ONE
    assert normalize(g ** 2 * g ** -1) == normalize(g)
    assert normalize((3 * g) ** -1 * g) == normalize(Rat(Fraction(1, 3)))


def test_composite_inverse_content_extraction():
    s = sym("s")
    lhs = normalize((s ** 2 * X ** 2 + s ** 2 * Y ** 2) ** -1)
    rhs = normalize(s ** -2 * (X ** 2 + Y ** 2) ** -1)
    assert lhs == rhs


@pytest.mark.parametrize(
    "text,ring_equal",
    [
        ("(16*(x^2+y^2+1)^-4)^-1", "(x^2+y^2+1)^4/16"),
        ("(x*(y^2+1)^-1 + y*(y^2+1)^-1)^-1", "(y^2+1)*(x+y)^-1"),
        ("(x + (y^2+1)^-1)^-1", "(y^2+1)*(x*y^2+x+1)^-1"),
    ],
)
def test_inverting_a_composite_inverse_expands_it(text, ring_equal):
    # 1/g^-k is the polynomial g^k, not the atom g at a positive power
    n = normalize(parse_scalar(text))
    assert normalize(n) == n
    assert n == normalize(parse_scalar(ring_equal))


def test_inverse_base_is_reduced_before_inversion():
    # (y^2+1)*(y^2+1)^-1 cancels inside the base, so the inverse is that of 1 + x
    n = normalize(parse_scalar("((y^2+1)*(y^2+1)^-1 + x)^-1"))
    assert n == normalize(parse_scalar("(1+x)^-1"))
    with pytest.raises(ZeroDivisionError):
        normalize(parse_scalar("((y^2+1)*(y^2+1)^-1 - 1)^-1"))


def test_zeroth_power_reduces_its_base():
    # the base of a zeroth power is read, so a division by zero in it raises
    for text in ("(x/0)^0", "(x*0^-1)^0", "(((y^2+1)*(y^2+1)^-1 - 1)^-1)^0"):
        with pytest.raises(ZeroDivisionError):
            normalize(parse_scalar(text))
    assert normalize(parse_scalar("(x^2 + (x+1)^-1)^0")) is sc.ONE
    assert normalize(parse_scalar("0^0")) is sc.ONE


def test_inverse_atom_base_has_no_monomial_content():
    # clearing (y + 1)*(t + 1)^-1 leaves t*y + t, whose content t is split off
    n = normalize(parse_scalar("(y + 1 - (y + 1)*(t + 1)^-1)^-1"))
    assert n == normalize(parse_scalar("(y + 1)^-1 + t^-1*(y + 1)^-1"))
    normalize.cache_clear()
    sc._POLY.clear()
    assert normalize(n) == n


class _NeverStores(dict):
    def __setitem__(self, key, value) -> None:
        pass


def test_poly_memo_matches_a_fresh_walk(monkeypatch):
    normalize.cache_clear()
    sc._POLY.clear()
    assert main(["localize", "--scenario", "sphere_dh", "--quiet"]) == 0
    memo = dict(sc._POLY)
    assert any(isinstance(node, (sc.Add, sc.Mul)) for node in memo)
    # the base of every composite inverse atom is in the memo as well
    bases = {a for poly in memo.values() for m in poly for a, _ in m if sc._is_composite_atom(a)}
    assert bases and bases <= set(memo)
    monkeypatch.setattr(sc, "_POLY", _NeverStores())
    for node, poly in memo.items():
        assert sc._expr_to_poly(node) == poly


def test_kernel_caches_are_bounded(monkeypatch):
    monkeypatch.setattr(sc, "_POLY_CACHE", 3)
    monkeypatch.setattr(sc, "_RAT_CACHE", 2)
    monkeypatch.setattr(sc, "_RAT", {})
    sc._POLY.clear()
    normalize.cache_clear()
    for k in range(6):
        compile_numeric(normalize(X**k + Y), ("x", "y"))
    assert len(sc._POLY) == 3
    assert compile_numeric(X**5 + Y, ("x", "y"))((2.0, 1.0)) == 33.0
    for k in range(2, 6):
        assert to_text(normalize(k * X + Fraction(1, k))) == "%d*x + 1/%d" % (k, k)
    assert len(sc._RAT) == 2


# ---------------------------------------------------------------------------
# shared nodes


def test_normalize_returns_the_zero_object_itself():
    rng = random.Random(23)
    for _ in range(100):
        e = _random_expr(rng)
        assert normalize(e - e) is sc.ZERO
        assert normalize(0 * e) is sc.ZERO
        assert normalize(Rat(Fraction(0)) * e) is sc.ZERO
        assert differentiate(e, "z") is sc.ZERO
    assert differentiate(Rat(Fraction(5, 3)), "x") is sc.ZERO
    assert normalize((X**2 + 1) * (X**2 + 1) ** -1 - 1) is sc.ZERO
    assert normalize(sc.sin(X - X)) is sc.ZERO


def _rat_leaves(e: sc.ScalarExpr) -> list:
    if isinstance(e, Rat):
        return [e]
    if isinstance(e, (sc.Add, sc.Mul)):
        return [leaf for a in e.args for leaf in _rat_leaves(a)]
    if isinstance(e, sc.Pow):
        return _rat_leaves(e.base)
    if isinstance(e, sc.Func):
        return _rat_leaves(e.arg)
    return []


def test_equal_normal_forms_share_their_coefficient_nodes():
    assert sc._rat(1) is sc._rat(Fraction(1))
    assert sc._rat(Fraction(-3, 2)) is sc._rat(Fraction(-6, 4))
    rng = random.Random(24)
    for _ in range(60):
        e = _random_expr(rng, depth=2)
        # the same polynomial reached by another tree: a separate memo entry
        a, b = normalize(e), normalize(Y - (Y - e))
        assert a == b
        leaves_a, leaves_b = _rat_leaves(a), _rat_leaves(b)
        assert len(leaves_a) == len(leaves_b)
        assert all(p is q for p, q in zip(leaves_a, leaves_b))


def test_negation_and_subtraction_share_minus_one():
    assert (-X).args[0] is sc.MINUS_ONE
    assert (X - Y).args[1].args[0] is sc.MINUS_ONE
    assert (1 - X).args[1].args[0] is sc.MINUS_ONE
    assert sc.MINUS_ONE == Rat(Fraction(-1))


# ---------------------------------------------------------------------------
# polynomial coefficients and the monomial order


def _reference_mono_cmp(m1, m2) -> int:
    """Graded-lex order on monomials as a comparator, atoms compared by
    _atom_key: the definition that the kernel's sort key must reproduce."""
    d1 = sum(e for _, e in m1)
    d2 = sum(e for _, e in m2)
    if d1 != d2:
        return -1 if d1 < d2 else 1
    e1 = {a: e for a, e in m1}
    e2 = {a: e for a, e in m2}
    for atom in sorted(set(e1) | set(e2), key=sc._atom_key):
        x1 = e1.get(atom, 0)
        x2 = e2.get(atom, 0)
        if x1 != x2:
            return 1 if x1 > x2 else -1
    return 0


def _atom_pool() -> list:
    # symbol and call texts where one is a prefix of another, and composite
    # atoms, which the kernel only holds at negative exponents
    syms = [sym(name) for name in ("a", "ab", "x", "x1", "xx", "y")]
    funcs = [sc.exp(X), sc.exp(X + 1), sc.sin(Y), sc.cos(X * Y)]
    composites = [normalize(X + 1), normalize(X**2 + Y), normalize(X + 1 + Y)]
    return [(a, False) for a in syms + funcs] + [(a, True) for a in composites]


def _random_monomial(rng: random.Random, pool: list):
    pairs = []
    for atom, composite in rng.sample(pool, rng.randrange(0, 5)):
        e = rng.choice([-3, -2, -1, 1, 2, 3])
        pairs.append((atom, -abs(e) if composite else e))
    rng.shuffle(pairs)
    # stored sorted by _atom_key, as every monomial is
    return tuple(sorted(pairs, key=lambda p: sc._atom_key(p[0])))


def test_monomial_key_orders_as_the_reference_comparator():
    rng = random.Random(20)
    pool = _atom_pool()
    monos = [_random_monomial(rng, pool) for _ in range(400)]
    for _ in range(5000):
        m1, m2 = rng.choice(monos), rng.choice(monos)
        k1, k2 = sc._mono_key(m1), sc._mono_key(m2)
        assert _reference_mono_cmp(m1, m2) == (k1 > k2) - (k1 < k2), (m1, m2)
    by_key = sorted(set(monos), key=sc._mono_key)
    assert by_key == sorted(set(monos), key=functools.cmp_to_key(_reference_mono_cmp))


def test_stored_monomials_are_sorted_by_atom_key():
    # the monomial key reads a monomial's atoms in stored order
    rng = random.Random(21)
    sc._POLY.clear()
    for _ in range(150):
        normalize(_random_expr(rng))
    monos = [m for poly in sc._POLY.values() for m in poly]
    assert any(len(m) > 1 for m in monos)
    for m in monos:
        keys = [sc._atom_key(a) for a, _ in m]
        assert keys == sorted(keys) and len(set(keys)) == len(keys), m


def test_product_with_the_empty_monomial_is_the_stored_monomial():
    rng = random.Random(22)
    sc._POLY.clear()
    for _ in range(60):
        normalize(_random_expr(rng))
    monos = [m for poly in sc._POLY.values() for m in poly if m]
    assert monos
    for m in monos:
        assert sc._mono_mul((), m) is m
        assert sc._mono_mul(m, ()) is m
    assert sc._mono_mul((), ()) == ()


def _assert_canonical_coefficients():
    coeffs = [c for poly in sc._POLY.values() for c in poly.values()]
    assert coeffs
    for c in coeffs:
        assert type(c) is int or (type(c) is Fraction and c.denominator != 1), c


def test_memo_coefficients_are_ints_or_proper_fractions():
    rng = random.Random(22)
    sc._POLY.clear()
    for _ in range(150):
        e = _random_expr(rng)
        normalize(e)
        differentiate(e, "x")
    _assert_canonical_coefficients()
    assert main(["brst-check", "--scenario", "adhm_k2_n2_brst", "--quiet"]) == 0
    _assert_canonical_coefficients()


def test_division_of_integral_coefficients_stays_exact():
    # x divided by 3x + 1: quotient 1/3 and remainder -1/3 from int inputs
    x = ((X, 1),)
    q, r = sc._poly_divmod({x: 1}, {x: 3, (): 1})
    assert q == {(): Fraction(1, 3)} and r == {(): Fraction(-1, 3)}
    assert all(type(c) is Fraction for c in (*q.values(), *r.values()))
    # an integral quotient is stored as an int
    q, r = sc._poly_divmod({x: 6, (): 2}, {x: 3, (): 1})
    assert q == {(): 2} and type(q[()]) is int and r == {}


def test_node_pickled_under_another_hash_seed_finds_its_equal():
    # a Sym's hash depends on the string hash seed; unpickling must rebuild it
    text = "x*exp(y)^-2 + 1/3"
    env = dict(os.environ)
    env["PYTHONHASHSEED"] = "2" if env.get("PYTHONHASHSEED") == "1" else "1"
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(Path(__file__).resolve().parents[1] / "src"), env.get("PYTHONPATH")) if p
    )
    code = "import pickle, sys; from superloc.scalars import parse_scalar; " \
        "sys.stdout.buffer.write(pickle.dumps(parse_scalar(%r)))" % (text,)
    blob = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          check=True, timeout=60).stdout
    assert {parse_scalar(text): 1}.get(pickle.loads(blob)) == 1


def test_normal_form_pickled_here_equals_its_rebuild_under_another_hash_seed():
    # the reverse direction: this process pickles, a child with another seed
    # loads and compares with its own normal form of the same text
    text = "x*exp(y)^-2 + (x + y)^-1 + 1/3"
    env = dict(os.environ)
    env["PYTHONHASHSEED"] = "2" if env.get("PYTHONHASHSEED") == "1" else "1"
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(Path(__file__).resolve().parents[1] / "src"), env.get("PYTHONPATH")) if p
    )
    code = (
        "import pickle, sys; from superloc.scalars import normalize, parse_scalar\n"
        "loaded = pickle.loads(sys.stdin.buffer.read())\n"
        "own = normalize(parse_scalar(%r))\n"
        "assert loaded == own and hash(loaded) == hash(own) and normalize(loaded) == own\n"
    ) % (text,)
    blob = pickle.dumps(normalize(parse_scalar(text)))
    done = subprocess.run([sys.executable, "-c", code], env=env, input=blob,
                          capture_output=True, timeout=60)
    assert done.returncode == 0, done.stderr.decode()


def test_division_and_unary_plus_operators():
    e = normalize(parse_scalar("x^2 + 3*y"))
    assert to_text(normalize(e / 2)) == "1/2*x^2 + 3/2*y"
    assert to_text(normalize(e / Y)) == "x^2*y^-1 + 3"
    assert normalize(1 / e) == normalize(sc.Pow(e, -1))
    assert to_text(normalize(1 / e)) == "(x^2 + 3*y)^-1"
    with pytest.raises(ZeroDivisionError):
        X / 0
    assert +e is e


def test_no_floats_inside_normal_forms():
    e = normalize(parse_scalar("2*x^2*exp(t*x) + 1/3"))

    def walk(node):
        if isinstance(node, Rat):
            assert isinstance(node.value, Fraction)
        elif isinstance(node, (sc.Add, sc.Mul)):
            for a in node.args:
                walk(a)
        elif isinstance(node, sc.Pow):
            walk(node.base)
        elif isinstance(node, sc.Func):
            walk(node.arg)

    walk(e)


# ---------------------------------------------------------------------------
# parse / print round-trip


def test_parse_example_text():
    e = parse_scalar("2*x^2*exp(t*x) + 1/3")
    assert evaluate(e, {"x": 0, "t": 5}) == Fraction(1, 3)


@pytest.mark.parametrize(
    "text",
    [
        "x",
        "-x",
        "2*x^2*exp(t*x) + 1/3",
        "(x^2 + y^2)^-1",
        "sin(x)*cos(y) - exp(-t)",
        "1/2*x - 3/4",
        "x^2 - 2*x*y + y^2",
    ],
)
def test_round_trip(text):
    e = normalize(parse_scalar(text))
    assert normalize(parse_scalar(to_text(e))) == e


def test_round_trip_random():
    rng = random.Random(53)
    for _ in range(40):
        e = normalize(_random_expr(rng))
        assert normalize(parse_scalar(to_text(e))) == e


def test_parse_reads_a_written_out_sum_or_product_as_one_node():
    # a '-' term is -t and a '/' factor is t^-1, the nodes the operators build
    assert parse_scalar("x - y + 2") == sc.Add((X, -Y, Rat(Fraction(2))))
    assert parse_scalar("x*y/z") == sc.Mul((X, Y, sc.Pow(sym("z"), -1)))
    assert parse_scalar("(x + y) + z") == sc.Add((sc.Add((X, Y)), sym("z")))
    # so normalize does not recurse once per term
    n = normalize(parse_scalar("+".join("x^%d" % i for i in range(1000))))
    assert len(n.args) == 1000 and n.args[-1] is sc.ONE


def test_parse_rejects_garbage():
    for bad in ("2**x", "foo(x)", "x +", "(x", "x^y"):
        with pytest.raises(ValueError):
            parse_scalar(bad)


# ---------------------------------------------------------------------------
# substitution and compilation


def test_substitute_rescaling():
    s = sym("s")
    e = normalize(X ** 2 + Y ** 2)
    scaled = substitute(e, {"x": s * X, "y": s * Y})
    assert scaled == normalize(s ** 2 * (X ** 2 + Y ** 2))


def test_compile_numeric_matches_evaluate():
    rng = random.Random(67)
    for _ in range(20):
        e = _random_expr(rng)
        fn = compile_numeric(e, ("x", "y", "t"))
        b = _random_binding(rng)
        try:
            want = float(evaluate(e, b))
        except (ZeroDivisionError, OverflowError):
            continue
        assert fn((b["x"], b["y"], b["t"])) == pytest.approx(want, rel=1e-12, abs=1e-12)


def test_compile_numeric_binds_parameters_bit_for_bit():
    # a symbol bound at compile time gives the same float as the same value
    # passed in the point; a coordinate takes the point's value over the binding
    rng = random.Random(68)
    for _ in range(20):
        e = _random_expr(rng)
        t = Fraction(rng.randrange(-12, 13), rng.randrange(1, 7))
        bound = compile_numeric(e, ("x", "y"), {"t": t, "y": 99})
        free = compile_numeric(e, ("x", "y", "t"))
        point = (rng.uniform(-1.5, 1.5), rng.uniform(-1.5, 1.5))
        try:
            want = free(point + (float(t),))
        except (ZeroDivisionError, OverflowError):
            continue
        assert bound(point) == want or (math.isnan(want) and math.isnan(bound(point)))
    # -0.0 == 0.0, but the two bind to functions with different results
    assert math.copysign(1.0, compile_numeric(X * T, ("x",), {"t": -0.0})((1.0,))) == -1.0
    assert math.copysign(1.0, compile_numeric(X * T, ("x",), {"t": 0.0})((1.0,))) == 1.0


def test_float_binding_goes_float():
    v = evaluate(parse_scalar("x^2"), {"x": 1.5})
    assert isinstance(v, float) and v == 2.25


def test_as_expr_is_the_one_coercion():
    assert sc.as_expr(X) is X
    assert sc.as_expr(3) == Rat(Fraction(3))
    assert sc.as_expr(Fraction(-2, 3)) == Rat(Fraction(-2, 3))
    assert sc.as_expr(0.75) == Rat(Fraction(3, 4))
    for bad in ("t", None, 1j, [1]):
        with pytest.raises(TypeError):
            sc.as_expr(bad)
        # the operators apply the same rule and let Python try the other side
        assert X.__add__(bad) is NotImplemented
    assert normalize(X + 0.5) == normalize(X + Fraction(1, 2))


@pytest.mark.parametrize("func", [sc.exp, sc.sin, sc.cos])
def test_transcendental_of_a_non_number_raises_at_construction(func):
    with pytest.raises(TypeError):
        func("t")
    assert func(0.5) == func(Fraction(1, 2))
    assert func(2) == func(Rat(Fraction(2)))


def test_exp_atom_forces_float_away_from_zero():
    v = evaluate(parse_scalar("exp(x)"), {"x": Fraction(1)})
    assert isinstance(v, float) and v == pytest.approx(math.e)


def test_kernel_caps_raise_instead_of_returning_a_partial_form(monkeypatch):
    u, v = sym("cap_u"), sym("cap_v")
    g = u**2 + v**2
    # (u^2 + v^2)^2 / (u^2 + v^2) takes two division steps
    monkeypatch.setattr(sc, "_DIVMOD_STEPS", 1)
    with pytest.raises(ComputationError):
        normalize((u**4 + 2 * u**2 * v**2 + v**4) * g**-1)
    monkeypatch.undo()
    assert normalize((u**4 + 2 * u**2 * v**2 + v**4) * g**-1) == normalize(g)
    # g * g^-1 + u reduces in one round and settles in the second
    monkeypatch.setattr(sc, "_REDUCE_ROUNDS", 1)
    with pytest.raises(ComputationError):
        normalize(g * g**-1 + u)
    monkeypatch.undo()
    assert normalize(g * g**-1 + u) == normalize(u + 1)


def test_kernel_cap_exits_3(monkeypatch, capsys):
    normalize.cache_clear()
    monkeypatch.setattr(sc, "_DIVMOD_STEPS", 0)
    assert main(["localize", "--scenario", "sphere_dh", "--quiet"]) == 3
    assert "division exceeded 0 steps" in capsys.readouterr().err
