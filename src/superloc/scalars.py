"""Exact scalar expression kernel.

Expression trees are immutable. The ring view is "polynomials in atoms":
atoms are named symbols, transcendental calls (exp, sin, cos) with
normalized arguments, and inverses of composite polynomials. Two
expressions that are equal as polynomials in those atoms normalize to
structurally identical trees. Rational arithmetic is exact throughout;
normalize, differentiate, derive and combine touch no floating point.

Text grammar (ASCII, explicit operators):

    expr   := term (('+' | '-') term)*
    term   := unary (('*' | '/') unary)*
    unary  := ('-' | '+') unary | power
    power  := atom ('^' signed_int)?
    atom   := integer | name | name '(' expr ')' | '(' expr ')'

so ``2*x^2*exp(t*x) + 1/3`` parses to the obvious tree. Function names
are limited to exp, sin, cos.
"""

from __future__ import annotations

import functools
import math
from fractions import Fraction
from typing import Callable, Mapping, Optional, Sequence, Union

from .errors import ComputationError, UnboundSymbol
from .records import FrozenRecord

BindingValue = Union[int, float, Fraction]
Binding = Mapping[str, BindingValue]

_FUNCTIONS = ("exp", "sin", "cos")


class ScalarExpr(FrozenRecord):
    """Base class for expression nodes.

    Every node is a FrozenRecord with its own class-exact __eq__. It stores
    its hash in the slot `_h` at construction, so hashing a tree costs one
    tuple hash per node, not a walk of the subtree.
    """

    # the hash slot sits here, so the __slots__ of a node name only its fields
    __slots__ = ("_h",)

    def __add__(self, other: object) -> "ScalarExpr":
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return Add((self, other))

    __radd__ = __add__

    def __sub__(self, other: object) -> "ScalarExpr":
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return Add((self, Mul((MINUS_ONE, other))))

    def __rsub__(self, other: object) -> "ScalarExpr":
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return Add((other, Mul((MINUS_ONE, self))))

    def __mul__(self, other: object) -> "ScalarExpr":
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return Mul((self, other))

    __rmul__ = __mul__

    def __truediv__(self, other: object) -> "ScalarExpr":
        if isinstance(other, NUMBERS):
            return Mul((self, Rat(Fraction(1, 1) / Fraction(other))))
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return Mul((self, Pow(other, -1)))

    def __rtruediv__(self, other: object) -> "ScalarExpr":
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return Mul((other, Pow(self, -1)))

    def __pow__(self, exponent: int) -> "ScalarExpr":
        if not isinstance(exponent, int):
            raise TypeError("exponent must be an int")
        return Pow(self, exponent)

    def __neg__(self) -> "ScalarExpr":
        return Mul((MINUS_ONE, self))

    def __pos__(self) -> "ScalarExpr":
        return self

    def __reduce__(self):
        # rebuild through __init__: the cached hash of a Sym depends on the
        # process's string hash seed, so it must not be pickled
        return type(self), tuple(getattr(self, name) for name in self.__match_args__)


# The numbers an expression absorbs: each becomes the exact rational it
# holds, a float the binary fraction it stores.
NUMBERS = (int, Fraction, float)


def _coerce(value: object):
    """as_expr for the operators: NotImplemented where as_expr raises."""
    if isinstance(value, ScalarExpr):
        return value
    if isinstance(value, NUMBERS):
        return Rat(Fraction(value))
    return NotImplemented


def as_expr(value: object) -> ScalarExpr:
    """The one coercion to an expression.

    An expression stays itself and a number in NUMBERS becomes the exact
    rational it holds; anything else raises TypeError. The arithmetic
    operators follow the same rule but return NotImplemented instead.
    """
    e = _coerce(value)
    if e is NotImplemented:
        raise TypeError("not a number or an expression: %r" % (value,))
    return e


def _cached_hash(node: ScalarExpr) -> int:
    return node._h


class Rat(ScalarExpr):
    __slots__ = __match_args__ = ("value",)
    __hash__ = _cached_hash

    def __init__(self, value: Fraction) -> None:
        if not isinstance(value, Fraction):
            value = Fraction(value)
        object.__setattr__(self, "value", value)
        object.__setattr__(self, "_h", hash((Rat, value)))

    def __eq__(self, other):
        if other.__class__ is not Rat:
            return NotImplemented
        return self.value == other.value


class Sym(ScalarExpr):
    __slots__ = __match_args__ = ("name",)
    __hash__ = _cached_hash

    def __init__(self, name: str) -> None:
        object.__setattr__(self, "name", name)
        object.__setattr__(self, "_h", hash((Sym, name)))

    def __eq__(self, other):
        if other.__class__ is not Sym:
            return NotImplemented
        return self.name == other.name


class Add(ScalarExpr):
    __slots__ = __match_args__ = ("args",)
    __hash__ = _cached_hash

    def __init__(self, args: tuple) -> None:
        object.__setattr__(self, "args", args)
        object.__setattr__(self, "_h", hash((Add, args)))

    def __eq__(self, other):
        if other.__class__ is not Add:
            return NotImplemented
        return self.args == other.args


class Mul(ScalarExpr):
    __slots__ = __match_args__ = ("args",)
    __hash__ = _cached_hash

    def __init__(self, args: tuple) -> None:
        object.__setattr__(self, "args", args)
        object.__setattr__(self, "_h", hash((Mul, args)))

    def __eq__(self, other):
        if other.__class__ is not Mul:
            return NotImplemented
        return self.args == other.args


class Pow(ScalarExpr):
    __slots__ = __match_args__ = ("base", "exponent")
    __hash__ = _cached_hash

    def __init__(self, base: ScalarExpr, exponent: int) -> None:
        if not isinstance(exponent, int) or isinstance(exponent, bool):
            raise TypeError("Pow exponent must be an int")
        object.__setattr__(self, "base", base)
        object.__setattr__(self, "exponent", exponent)
        object.__setattr__(self, "_h", hash((Pow, base, exponent)))

    def __eq__(self, other):
        if other.__class__ is not Pow:
            return NotImplemented
        return self.base == other.base and self.exponent == other.exponent


class Func(ScalarExpr):
    __slots__ = __match_args__ = ("kind", "arg")
    __hash__ = _cached_hash

    def __init__(self, kind: str, arg: ScalarExpr) -> None:
        if kind not in _FUNCTIONS:
            raise ValueError("unknown function kind %r" % (kind,))
        object.__setattr__(self, "kind", kind)
        object.__setattr__(self, "arg", arg)
        object.__setattr__(self, "_h", hash((Func, kind, arg)))

    def __eq__(self, other):
        if other.__class__ is not Func:
            return NotImplemented
        return self.kind == other.kind and self.arg == other.arg


# normalize returns this object itself for every zero result, so a zero
# test on a normal form may be `is ZERO`.
ZERO = Rat(Fraction(0))
ONE = Rat(Fraction(1))
MINUS_ONE = Rat(Fraction(-1))


def sym(name: str) -> Sym:
    return Sym(name)


def rational(p: int, q: int = 1) -> Rat:
    return Rat(Fraction(p, q))


def exp(arg: ScalarExpr) -> Func:
    return Func("exp", as_expr(arg))


def sin(arg: ScalarExpr) -> Func:
    return Func("sin", as_expr(arg))


def cos(arg: ScalarExpr) -> Func:
    return Func("cos", as_expr(arg))


# ---------------------------------------------------------------------------
# Normal form.
#
# A polynomial is a dict mapping a monomial to a nonzero coefficient: an
# int when integral, else a Fraction, never a float.
# A monomial is a sorted tuple of (atom, integer exponent) pairs with
# nonzero exponents; atoms are canonical Sym, Func or composite-base
# expression nodes (the latter only with negative exponents, standing for
# inverses of composite polynomials). Composite inverse atoms are kept
# monic and content free, and coefficients of their negative powers are
# reduced by exact polynomial division so that g * g^-1 collapses to 1.
# ---------------------------------------------------------------------------

Monomial = tuple
Poly = dict
_DIVMOD_STEPS = 10000
_REDUCE_ROUNDS = 100
# Term products in one polynomial product; a product past it, such as an
# expanded high power of a sum, raises ComputationError instead of stalling.
_MUL_TERMS = 100000

# Kernel cache bounds, in entries. Evicting an entry only costs its
# recomputation.
_NORMALIZE_CACHE = 1 << 16
_ATOM_KEY_CACHE = 1 << 12
_POLY_CACHE = 1 << 16
_RAT_CACHE = 1 << 12

# Normal form (or inverse-atom base) -> its polynomial. Polys are never
# mutated once built (_poly_add and _poly_divmod copy their inputs), so
# _expr_to_poly hands out these entries as they are.
_POLY: dict = {}


# Coefficient value -> its one Rat node, so equal normal forms share their
# leaves and the memos compare them by identity; 1 and Fraction(1) are one
# key, and -1 starts as the node that negation uses.
_RAT: dict = {1: ONE, -1: MINUS_ONE}


def _put(memo: dict, bound: int, key, value):
    """memo[key] = value, evicting the oldest entry at the bound; returns value."""
    if len(memo) >= bound:
        del memo[next(iter(memo))]
    memo[key] = value
    return value


def _rat(c) -> Rat:
    node = _RAT.get(c)
    return _put(_RAT, _RAT_CACHE, c, Rat(c)) if node is None else node


@functools.lru_cache(maxsize=_ATOM_KEY_CACHE)
def _atom_key(atom: ScalarExpr):
    """Symbols, then calls, then composite atoms; each kind by its text."""
    return (0 if isinstance(atom, Sym) else 1 if isinstance(atom, Func) else 2, to_text(atom))


@functools.lru_cache(maxsize=_ATOM_KEY_CACHE)
def _atom_key_desc(atom: ScalarExpr):
    """_atom_key in reverse: code points negated, then 0, so a text sorts after
    its extensions."""
    rank, text = _atom_key(atom)
    return (-rank, tuple(-ord(ch) for ch in text) + (0,))


def _mono_key(m: Monomial):
    """Graded-lex order: total degree, then the exponents atom by atom in
    _atom_key order, 0 for an absent atom. Relies on m being stored sorted
    by _atom_key: an atom's entry sorts above the entries of later atoms
    and the end marker when its exponent is positive, below them if not."""
    body = [(1, _atom_key_desc(a), e) if e > 0 else (-1, _atom_key(a), e) for a, e in m]
    return (sum(e for _, e in m), *body, (0,))


def _coef(c):
    """A coefficient as stored: an int when integral, else the Fraction."""
    return c.numerator if c.denominator == 1 else c


def _mono_mul(m1: Monomial, m2: Monomial) -> Monomial:
    # a stored monomial is already sorted with nonzero exponents
    if not m1:
        return m2
    if not m2:
        return m1
    exps = {a: e for a, e in m1}
    for a, e in m2:
        exps[a] = exps.get(a, 0) + e
    return tuple(sorted(((a, e) for a, e in exps.items() if e != 0), key=lambda p: _atom_key(p[0])))


def _mono_inv(m: Monomial) -> Monomial:
    return tuple((a, -e) for a, e in m)


def _poly_add(p1: Poly, p2: Poly) -> Poly:
    out = dict(p1)
    for m, c in p2.items():
        prev = out.get(m)
        nc = c if prev is None else _coef(prev + c)
        if nc:
            out[m] = nc
        else:
            del out[m]
    return out


def _poly_scale(p: Poly, c) -> Poly:
    if not c:
        return {}
    return {m: _coef(c * v) for m, v in p.items()}


def _poly_mul(p1: Poly, p2: Poly) -> Poly:
    if len(p1) * len(p2) > _MUL_TERMS:
        raise ComputationError(
            "a product of %d by %d terms exceeds %d term products" % (len(p1), len(p2), _MUL_TERMS)
        )
    out: Poly = {}
    for m1, c1 in p1.items():
        for m2, c2 in p2.items():
            m = _mono_mul(m1, m2)
            prev = out.get(m)
            nc = _coef(c1 * c2 if prev is None else prev + c1 * c2)
            if nc:
                out[m] = nc
            else:
                del out[m]
    return out


def _poly_pow(p: Poly, k: int) -> Poly:
    out: Poly = {(): 1}
    base = p
    n = k
    while n > 0:
        if n & 1:
            out = _poly_mul(out, base)
        n >>= 1
        if n:
            base = _poly_mul(base, base)
    return out


def _leading(p: Poly):
    m = max(p, key=_mono_key)
    return m, p[m]


def _is_composite_atom(atom: ScalarExpr) -> bool:
    return not isinstance(atom, (Sym, Func))


def _mono_poly(m: Monomial, c) -> Poly:
    """c*m as a polynomial in which composite atoms occur only at negative
    powers: a composite atom at a positive power is expanded."""
    out = {tuple(pair for pair in m if pair[1] < 0 or not _is_composite_atom(pair[0])): c}
    for a, e in m:
        if e > 0 and _is_composite_atom(a):
            out = _poly_mul(out, _poly_pow(_expr_to_poly(a), e))
    return out


def _poly_inv(p: Poly) -> Poly:
    """Exact inverse of a polynomial: monomials invert directly, composite
    polynomials become opaque inverse atoms after content extraction. The
    inverse of a composite inverse atom g^-k is the expanded g^k, so that
    normalize stays idempotent."""
    if not p:
        raise ZeroDivisionError("inverse of zero expression")
    # extract monomial content: per atom, the minimal exponent over all
    # terms. Expanding the composite atoms of one content can leave another
    # (y + 1 - (y + 1)*(t + 1)^-1 clears to t*y + t), so repeat.
    inv_content: Monomial = ()
    while True:
        if len(p) == 1:
            (m, c), = p.items()
            return _mono_poly(_mono_mul(inv_content, _mono_inv(m)), _coef(Fraction(1) / c))
        exps: dict = {}
        for m in p:
            for a, e in m:
                exps.setdefault(a, []).append(e)
        content = []
        for a, lst in exps.items():
            lo = min(lst) if len(lst) == len(p) else min(min(lst), 0)
            if lo != 0:
                content.append((a, lo))
        if not content:
            break
        step = _mono_inv(tuple(sorted(content, key=lambda q: _atom_key(q[0]))))
        stripped: Poly = {}
        for m, c in p.items():
            stripped = _poly_add(stripped, _mono_poly(_mono_mul(m, step), c))
        p, inv_content = stripped, _mono_mul(inv_content, step)
    _, lc = _leading(p)
    inv_lc = _coef(Fraction(1) / lc)
    monic = _poly_scale(p, inv_lc)
    base_expr = _poly_to_expr(monic)
    _put(_POLY, _POLY_CACHE, base_expr, monic)
    return _poly_mul(_mono_poly(inv_content, inv_lc), {((base_expr, -1),): 1})


def _mono_divisible(m: Monomial, by: Monomial) -> bool:
    exps = {a: e for a, e in m}
    return all(exps.get(a, 0) >= e for a, e in by)


def _poly_divmod(c: Poly, g: Poly):
    """Multivariate division of c by g with respect to the monomial order.

    Returns (q, r) with c = q*g + r and no monomial of r divisible by the
    leading monomial of g. A division that needs more than _DIVMOD_STEPS
    steps raises ComputationError rather than return a non-canonical r.
    """
    q: Poly = {}
    r: Poly = {}
    work = dict(c)
    lt_m, lt_c = _leading(g)
    steps = 0
    while work:
        m, coef = _leading(work)
        if _mono_divisible(m, lt_m):
            steps += 1
            if steps > _DIVMOD_STEPS:
                raise ComputationError("division exceeded %d steps" % (_DIVMOD_STEPS,))
            f_m = _mono_mul(m, _mono_inv(lt_m))
            # Fraction first: coef / lt_c on two ints would be a float
            f_c = _coef(Fraction(coef) / lt_c)
            q = _poly_add(q, {f_m: f_c})
            work = _poly_add(work, _poly_scale(_poly_mul({f_m: f_c}, g), -1))
        else:
            r = _poly_add(r, {m: coef})
            del work[m]
    return q, r


def _reduce_poly(p: Poly) -> Poly:
    """Reduce coefficients of composite inverse atoms by exact division;
    raises ComputationError when _REDUCE_ROUNDS rounds do not settle."""
    for _ in range(_REDUCE_ROUNDS):
        atoms = sorted(
            {a for m in p for a, e in m if e < 0 and _is_composite_atom(a)},
            key=_atom_key,
        )
        changed = False
        for g_expr in atoms:
            g_poly = _expr_to_poly(g_expr)
            # group the monomials by the exponent of this inverse atom
            groups: dict = {}
            rest: Poly = {}
            for m, c in p.items():
                j = next((-e for a, e in m if a is g_expr or a == g_expr), 0)
                if j > 0:
                    stripped = tuple(pair for pair in m if pair[0] != g_expr)
                    groups.setdefault(j, {})[stripped] = c
                else:
                    rest[m] = c
            if not groups:
                continue
            new_p = dict(rest)
            for j in sorted(groups, reverse=True):
                cof = groups[j]
                q, r = _poly_divmod(cof, g_poly)
                if q:
                    changed = True
                inv_j = ((g_expr, -j),)
                for m, c in _poly_mul(r, {inv_j: 1}).items():
                    new_p = _poly_add(new_p, {m: c})
                if q:
                    if j == 1:
                        add = q
                    else:
                        add = _poly_mul(q, {((g_expr, -(j - 1)),): 1})
                    for m, c in add.items():
                        new_p = _poly_add(new_p, {m: c})
            p = new_p
        if not changed:
            return p
    raise ComputationError("reduction did not settle in %d rounds" % (_REDUCE_ROUNDS,))


def _expr_to_poly(e: ScalarExpr) -> Poly:
    p = _POLY.get(e)
    if p is not None:
        return p
    if isinstance(e, Rat):
        return {(): _coef(e.value)} if e.value else {}
    if isinstance(e, Sym):
        return {((e, 1),): 1}
    if isinstance(e, Add):
        out: Poly = {}
        for a in e.args:
            out = _poly_add(out, _expr_to_poly(a))
        return out
    if isinstance(e, Mul):
        out = {(): 1}
        for a in e.args:
            out = _poly_mul(out, _expr_to_poly(a))
        return out
    if isinstance(e, Pow):
        # the base first, so that the zeroth power of x/0 divides by zero too
        base = _expr_to_poly(e.base)
        if e.exponent == 0:
            return {(): 1}
        if e.exponent > 0:
            return _poly_pow(base, e.exponent)
        # reduce first, so that a g * g^-1 inside the base cancels before inversion
        return _poly_pow(_poly_inv(_reduce_poly(base)), -e.exponent)
    if isinstance(e, Func):
        arg = normalize(e.arg)
        if arg is ZERO:
            if e.kind == "sin":
                return {}
            return {(): 1}  # exp(0), cos(0)
        return {((Func(e.kind, arg), 1),): 1}
    raise TypeError("not a ScalarExpr: %r" % (e,))


def _poly_to_expr(p: Poly) -> ScalarExpr:
    if not p:
        return ZERO
    terms = []
    for m in sorted(p, key=_mono_key, reverse=True):
        c = p[m]
        factors = []
        for atom, e in m:
            factors.append(atom if e == 1 else Pow(atom, e))
        if not factors:
            terms.append(_rat(c))
        elif c == 1 and len(factors) == 1:
            terms.append(factors[0])
        elif c == 1:
            terms.append(Mul(tuple(factors)))
        else:
            terms.append(Mul((_rat(c), *factors)))
    if len(terms) == 1:
        return terms[0]
    return Add(tuple(terms))


@functools.lru_cache(maxsize=_NORMALIZE_CACHE)
def normalize(e: ScalarExpr) -> ScalarExpr:
    """Canonical form: expanded, collected, deterministically ordered.

    Idempotent, and two expressions equal as polynomials in atoms come out
    structurally identical. Inverses of composite polynomials are opaque
    atoms, but their coefficients are division-reduced so products like
    (x^2+y^2) * (x^2+y^2)^-1 do collapse to 1.
    """
    return _normal_form(_expr_to_poly(e))


def _normal_form(p: Poly) -> ScalarExpr:
    p = _reduce_poly(p)
    out = _poly_to_expr(p)
    # idempotence makes p the polynomial of out, so _expr_to_poly(out) can
    # return it without walking the tree
    _put(_POLY, _POLY_CACHE, out, p)
    return out


def is_zero(e: ScalarExpr) -> bool:
    return normalize(e) is ZERO


# ---------------------------------------------------------------------------
# Calculus and evaluation.
# ---------------------------------------------------------------------------


def differentiate(e: ScalarExpr, name: str) -> ScalarExpr:
    """Exact partial derivative with respect to the named symbol."""
    return combine([(1, normalize(e), {name: ONE})])


def derive(e: ScalarExpr, field: Mapping[str, ScalarExpr]) -> ScalarExpr:
    """The derivative of e along a field: the sum over its names of
    field[name] * de/dname, in one product-rule walk and one normal form."""
    return combine([(1, normalize(e), {name: normalize(v) for name, v in field.items()})])


def combine(terms: Sequence[tuple]) -> ScalarExpr:
    """The normal form of a sum of signed terms, in one normal form.

    A term (sign, e, field), field a mapping, stands for sign times the
    derivative of e along field; a term (sign, a, b), b an expression, for
    sign * a * b. Expressions are read as the polynomials they spell, so
    pass normal forms. A lone (1, c, ONE) is c itself; any other lone
    product goes through normalize and its memo.
    """
    if len(terms) == 1 and isinstance(terms[0][2], ScalarExpr):
        sign, a, b = terms[0]
        if sign > 0 and b is ONE:
            return a
        return normalize(a * b if sign > 0 else -(a * b))
    p: Poly = {}
    for sign, e, x in terms:
        if isinstance(x, ScalarExpr):
            q = _poly_mul(_expr_to_poly(e), _expr_to_poly(x))
        else:
            q = _poly_derive(_expr_to_poly(e), {n: _expr_to_poly(v) for n, v in x.items()})
        p = _poly_add(p, q if sign > 0 else _poly_scale(q, -1))
    return _normal_form(p) if p else ZERO


def _poly_derive(p: Poly, field: Mapping[str, Poly]) -> Poly:
    """Product rule over the atoms of each monomial, before reduction:
    d(a^k) = k*a^(k-1)*a' for every atom a, composite inverse atoms too,
    where a symbol's a' is its polynomial in `field`, or 0 if it has none."""
    out: Poly = {}
    for m, c in p.items():
        for i, (atom, k) in enumerate(m):
            da = _atom_derive(atom, field)
            if not da:
                continue
            # m / atom: m is stored sorted, so lowering one exponent keeps it so
            rest = m[:i] + ((atom, k - 1),) + m[i + 1:] if k != 1 else m[:i] + m[i + 1:]
            for m2, c2 in da.items():
                key = _mono_mul(rest, m2)
                prev = out.get(key)
                nc = _coef(c * k * c2 if prev is None else prev + c * k * c2)
                if nc:
                    out[key] = nc
                else:
                    del out[key]
    return out


def _atom_derive(atom: ScalarExpr, field: Mapping[str, Poly]) -> Poly:
    if isinstance(atom, Sym):
        return field.get(atom.name, {})
    if not isinstance(atom, Func):
        # a composite inverse atom stands for its base g; this is g'
        return _poly_derive(_expr_to_poly(atom), field)
    inner = _poly_derive(_expr_to_poly(atom.arg), field)
    kind, sign = {"exp": ("exp", 1), "sin": ("cos", 1), "cos": ("sin", -1)}[atom.kind]
    return _poly_mul({((Func(kind, atom.arg), 1),): sign}, inner) if inner else {}


def free_symbols(e: ScalarExpr) -> frozenset:
    if isinstance(e, Rat):
        return frozenset()
    if isinstance(e, Sym):
        return frozenset((e.name,))
    if isinstance(e, (Add, Mul)):
        return frozenset().union(*map(free_symbols, e.args))
    if isinstance(e, Pow):
        return free_symbols(e.base)
    if isinstance(e, Func):
        return free_symbols(e.arg)
    raise TypeError("not a ScalarExpr: %r" % (e,))


def evaluate(e: ScalarExpr, binding: Binding):
    """Evaluate under a symbol binding.

    Stays on the exact Fraction path while every input is rational and no
    transcendental atom is hit away from zero; otherwise returns a float.
    Raises UnboundSymbol for any free symbol missing from the binding.
    """
    if isinstance(e, Rat):
        return e.value
    if isinstance(e, Sym):
        try:
            v = binding[e.name]
        except KeyError:
            raise UnboundSymbol("symbol %r has no value in binding" % (e.name,)) from None
        if isinstance(v, bool):
            raise TypeError("boolean binding value for %r" % (e.name,))
        if isinstance(v, int):
            return Fraction(v)
        return v
    if isinstance(e, Add):
        total = Fraction(0)
        for a in e.args:
            total = total + evaluate(a, binding)
        return total
    if isinstance(e, Mul):
        total = Fraction(1)
        for a in e.args:
            total = total * evaluate(a, binding)
        return total
    if isinstance(e, Pow):
        base = evaluate(e.base, binding)
        return base ** e.exponent
    if isinstance(e, Func):
        arg = evaluate(e.arg, binding)
        if isinstance(arg, Fraction) and arg == 0:
            if e.kind == "sin":
                return Fraction(0)
            return Fraction(1)
        x = float(arg)
        return {"exp": math.exp, "sin": math.sin, "cos": math.cos}[e.kind](x)
    raise TypeError("not a ScalarExpr: %r" % (e,))


def substitute(e: ScalarExpr, mapping: Mapping[str, ScalarExpr]) -> ScalarExpr:
    """Replace symbols by expressions and renormalize."""
    return normalize(_subst(e, mapping))


def _subst(e: ScalarExpr, mapping: Mapping[str, ScalarExpr]) -> ScalarExpr:
    if isinstance(e, Rat):
        return e
    if isinstance(e, Sym):
        return mapping.get(e.name, e)
    if isinstance(e, Add):
        return Add(tuple(_subst(a, mapping) for a in e.args))
    if isinstance(e, Mul):
        return Mul(tuple(_subst(a, mapping) for a in e.args))
    if isinstance(e, Pow):
        return Pow(_subst(e.base, mapping), e.exponent)
    if isinstance(e, Func):
        return Func(e.kind, _subst(e.arg, mapping))
    raise TypeError("not a ScalarExpr: %r" % (e,))


def compile_numeric(
    e: ScalarExpr, names: Sequence[str], binding: Optional[Binding] = None
) -> Callable[[tuple], float]:
    """Compile to a float-valued function of one point whose coordinates
    are `names`, in order.  Every other free symbol takes its value from
    `binding`, made float once and bound now; a symbol in neither raises
    UnboundSymbol here rather than when the function is called."""
    return _compile(e, names, binding, None)


def compile_rule(
    e: ScalarExpr,
    names: Sequence[str],
    weights: Sequence[float],
    binding: Optional[Binding] = None,
) -> Callable[[Sequence[Sequence[float]]], float]:
    """Compile to the tensor-product rule of one quadrature cell.

    The rule takes one sequence of nodes per coordinate of `names` and
    returns sum_j weights[j] * e(x_j), the grid points x_j taken in
    `itertools.product` order and summed left to right.  Parameters bind as
    in compile_numeric.  Each maximal subtree of one coordinate is computed
    once per node of its axis, a subtree of several coordinates once per
    pass of the loop over its last axis, so only the weighted sum runs at
    every grid point.  Hoisting names whole args of an Add or Mul, left to
    right, and never regroups them: every grid value is the float that the
    compile_numeric function returns at that point.  Only the order of
    evaluation moves, so when a cell meets two kinds of float error, the
    one raised may differ from the first a point-by-point loop meets.
    """
    return _compile(e, names, binding, tuple(weights))


def _compile(e: ScalarExpr, names: Sequence[str], binding: Optional[Binding], weights):
    """compile_numeric when weights is None, else compile_rule."""
    nf, names, binding = normalize(e), tuple(names), binding or {}
    bound = {}
    for name in sorted(free_symbols(nf) - set(names)):
        if name not in binding:
            raise UnboundSymbol("symbol %r has no value in binding" % (name,))
        bound[name] = float(binding[name])
    refs = {}
    scope = {"_exp": math.exp, "_sin": math.sin, "_cos": math.cos, "_W": weights}
    for i, (name, v) in enumerate(bound.items()):
        refs[name] = "_b%d" % i
        scope[refs[name]] = v
    try:
        if weights is None:
            refs.update((n, "p[%d]" % i) for i, n in enumerate(names))
            return eval("lambda p: " + _codegen(nf, refs), scope)
        exec(_rule_source(nf, names, refs), scope)
    except RecursionError:
        # the compiler nests a sum of a few thousand terms too deeply
        raise ComputationError("expression is nested too deeply to compile")
    return scope["_rule"]


def _rule_source(nf: ScalarExpr, names: tuple, refs: Mapping[str, str]) -> str:
    """Source of `_rule(axes)` for compile_rule.

    Loop k runs over the nodes of axis k, nested in axis order, so the grid
    is visited in `product` order and the weights `_W` are read in turn.
    Before the loops, table `_T<k>` holds the one-axis subtrees of axis k at
    each of its nodes; a subtree of several axes is assigned in the loop of
    its last axis, or left in the summand when that is the innermost one.
    """
    axis_of = {n: k for k, n in enumerate(names)}
    d = len(names)
    tables = [{} for _ in range(d)]  # subtree -> (name, source at node _x)
    assigned = [{} for _ in range(d)]  # subtree -> (name, source in loop k)

    def text(e: ScalarExpr, loop: int) -> str:
        span = {axis_of[s] for s in free_symbols(e) if s in axis_of}
        if not span:
            return _codegen(e, refs)
        if len(span) == 1:
            (k,) = span
            return _name(tables[k], e, "_t%d_" % k, lambda: _codegen(e, {**refs, names[k]: "_x"}))
        last = max(span)
        source = lambda: _compose(e, lambda a: text(a, last))
        return source() if last == loop else _name(assigned[last], e, "_m%d_" % last, source)

    summand = text(nf, d - 1)
    lines = ["def _rule(axes):", "    %s, = axes" % ", ".join("_X%d" % k for k in range(d))]
    targets = []
    for k, table in enumerate(tables):
        targets.append("(%s)" % ", ".join(n for n, _ in table.values()) if table else "_")
        row = "(%s)" % ", ".join(s for _, s in table.values())
        axis = "_X%d" % k
        lines.append("    _T%d = %s" % (k, axis if row in ("()", "(_x)") else
                                         "[%s for _x in %s]" % (row, axis)))
    lines += ["    total = 0.0", "    _w = iter(_W)"]
    for k in range(d):
        indent = "    " * (k + 1)
        if k < d - 1:
            lines.append("%sfor %s in _T%d:" % (indent, targets[k], k))
        else:
            # _w comes last so that zip stops without taking a weight
            lines.append("%sfor %s, _wj in zip(_T%d, _w):" % (indent, targets[k], k))
        lines += ["%s    %s = %s" % (indent, name, s) for name, s in assigned[k].values()]
    lines += ["%s    total += _wj * %s" % ("    " * d, summand), "    return total"]
    return "\n".join(lines) + "\n"


def _name(memo: dict, e: ScalarExpr, prefix: str, source: Callable[[], str]) -> str:
    """The name memo gives e, after adding e with a fresh name if it is new."""
    if e not in memo:
        body = source()
        memo[e] = ("%s%d" % (prefix, len(memo)), body)
    return memo[e][0]


def _codegen(e: ScalarExpr, refs: Mapping[str, str]) -> str:
    if isinstance(e, Rat):
        return "(%r)" % (float(e.value),)
    if isinstance(e, Sym):
        return refs[e.name]
    return _compose(e, lambda a: _codegen(a, refs))


def _compose(e: ScalarExpr, text: Callable[[ScalarExpr], str]) -> str:
    """Source of a composite node from the source `text` gives each child."""
    if isinstance(e, Add):
        return "(" + "+".join(map(text, e.args)) + ")"
    if isinstance(e, Mul):
        return "(" + "*".join(map(text, e.args)) + ")"
    if isinstance(e, Pow):
        return "(%s**(%d))" % (text(e.base), e.exponent)
    if isinstance(e, Func):
        return "_%s(%s)" % (e.kind, text(e.arg))
    raise TypeError("not a ScalarExpr: %r" % (e,))


# ---------------------------------------------------------------------------
# Printing and parsing.
# ---------------------------------------------------------------------------


def to_text(e: ScalarExpr) -> str:
    """Deterministic text form; parse_scalar(to_text(e)) round-trips."""
    if isinstance(e, Rat):
        return str(e.value)
    if isinstance(e, Sym):
        return e.name
    if isinstance(e, Func):
        return "%s(%s)" % (e.kind, to_text(e.arg))
    if isinstance(e, Pow):
        base = to_text(e.base)
        if not isinstance(e.base, (Sym, Func)):
            base = "(" + base + ")"
        return "%s^%d" % (base, e.exponent)
    if isinstance(e, Mul):
        sign, body = _term_text(e)
        return ("-" if sign < 0 else "") + body
    if isinstance(e, Add):
        parts = []
        for i, term in enumerate(e.args):
            sign, body = _term_text(term)
            if i == 0:
                parts.append(("-" if sign < 0 else "") + body)
            else:
                parts.append(("- " if sign < 0 else "+ ") + body)
        return " ".join(parts)
    raise TypeError("not a ScalarExpr: %r" % (e,))


def _term_text(e: ScalarExpr):
    """Split a term into a sign and an unsigned text body."""
    if isinstance(e, Rat):
        v = e.value
        return (1 if v >= 0 else -1), str(abs(v))
    if isinstance(e, Mul):
        sign = 1
        pieces = []
        for a in e.args:
            if isinstance(a, Rat):
                if a.value < 0:
                    sign = -sign
                if abs(a.value) != 1:
                    pieces.append(str(abs(a.value)))
            else:
                t = to_text(a)
                if isinstance(a, Add):
                    t = "(" + t + ")"
                pieces.append(t)
        if not pieces:
            pieces.append("1")
        return sign, "*".join(pieces)
    t = to_text(e)
    if isinstance(e, Add):
        t = "(" + t + ")"
    return 1, t


class _Parser:
    """Recursive-descent parser of the scalar expression syntax."""

    def __init__(self, text: str):
        self.tokens = self._lex(text)
        self.pos = 0

    @staticmethod
    def _lex(text: str):
        tokens = []
        i = 0
        while i < len(text):
            ch = text[i]
            if ch.isspace():
                i += 1
            elif ch.isdigit() or (ch == "." and i + 1 < len(text) and text[i + 1].isdigit()):
                j = i
                while j < len(text) and (text[j].isdigit() or text[j] == "."):
                    j += 1
                tokens.append(("num", text[i:j]))
                i = j
            elif ch.isalpha() or ch == "_":
                j = i
                while j < len(text) and (text[j].isalnum() or text[j] == "_"):
                    j += 1
                tokens.append(("name", text[i:j]))
                i = j
            elif ch in "+-*/^(),":
                tokens.append((ch, ch))
                i += 1
            else:
                raise ValueError("unexpected character %r in expression" % (ch,))
        tokens.append(("end", ""))
        return tokens

    def peek(self) -> str:
        return self.tokens[self.pos][0]

    def take(self, kind=None):
        tok = self.tokens[self.pos]
        if kind is not None and tok[0] != kind:
            raise ValueError("expected %r, found %r" % (kind, tok[1] or "end of input"))
        self.pos += 1
        return tok

    def parse(self) -> ScalarExpr:
        e = self.expr()
        if self.peek() != "end":
            raise ValueError("trailing input from %r" % (self.tokens[self.pos][1],))
        return e

    def expr(self) -> ScalarExpr:
        """A written-out sum as one Add; a '-' term is -t."""
        terms = [self.term()]
        while self.peek() in "+-":
            op = self.take()[0]
            rhs = self.term()
            terms.append(rhs if op == "+" else -rhs)
        return terms[0] if len(terms) == 1 else Add(tuple(terms))

    def term(self) -> ScalarExpr:
        """A written-out product as one Mul; a '/' factor is t^-1."""
        factors = [self.unary()]
        while self.peek() in "*/":
            op = self.take()[0]
            rhs = self.unary()
            factors.append(rhs if op == "*" else Pow(rhs, -1))
        return factors[0] if len(factors) == 1 else Mul(tuple(factors))

    def unary(self) -> ScalarExpr:
        if self.peek() == "-":
            self.take()
            return -self.unary()
        if self.peek() == "+":
            self.take()
            return self.unary()
        return self.power()

    def power(self) -> ScalarExpr:
        e = self.atom()
        if self.peek() == "^":
            self.take()
            sign = 1
            if self.peek() == "-":
                self.take()
                sign = -1
            tok = self.take("num")
            if "." in tok[1]:
                raise ValueError("exponent must be an integer")
            e = Pow(e, sign * int(tok[1]))
        return e

    def atom(self) -> ScalarExpr:
        kind = self.peek()
        if kind == "num":
            tok = self.take()
            return Rat(Fraction(tok[1]))
        if kind == "name":
            tok = self.take()
            if self.peek() == "(":
                if tok[1] not in _FUNCTIONS:
                    raise ValueError("unknown function %r" % (tok[1],))
                self.take("(")
                arg = self.expr()
                self.take(")")
                return Func(tok[1], arg)
            return Sym(tok[1])
        if kind == "(":
            self.take("(")
            e = self.expr()
            self.take(")")
            return e
        raise ValueError("unexpected token %r" % (self.tokens[self.pos][1] or "end of input",))


def parse_scalar(text: str) -> ScalarExpr:
    """Parse the ASCII grammar into a raw expression tree."""
    return _Parser(text).parse()
