"""Scalar kernel: exactness, normal form, calculus oracles, text round-trip."""

from __future__ import annotations

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


def test_mixed_partials_commute_structurally():
    rng = random.Random(61)
    for _ in range(200):
        e = _random_expr(rng)
        assert differentiate(differentiate(e, "x"), "y") == differentiate(differentiate(e, "y"), "x")


def test_differentiate_repeat_is_a_memo_hit():
    e = parse_scalar("exp(x*y)*(x^2 + y^2 + 7)^-2 + sin(x + t)")
    first = differentiate(e, "x")
    hits = sc._differentiate.cache_info().hits
    assert differentiate(e, "x") is first
    assert sc._differentiate.cache_info().hits == hits + 1


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
    sc._differentiate.cache_clear()
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
    monkeypatch.setattr(sc, "_COMPILED_CACHE", 2)
    sc._POLY.clear()
    sc._COMPILED.clear()
    normalize.cache_clear()
    for k in range(6):
        compile_numeric(normalize(X**k + Y), ("x", "y"))
    assert len(sc._POLY) == 3 and len(sc._COMPILED) == 2
    assert compile_numeric(X**5 + Y, ("x", "y"))((2.0, 1.0)) == 33.0
    for cached in (normalize, sc._atom_key, sc._differentiate):
        assert cached.cache_info().maxsize is not None


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
