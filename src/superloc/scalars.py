"""Exact scalar expression kernel.

Expression trees are immutable. The ring view is "polynomials in atoms":
atoms are named symbols, transcendental calls (exp, sin, cos) with
normalized arguments, and inverses of composite polynomials. Two
expressions that are equal as polynomials in those atoms normalize to
structurally identical trees. Rational arithmetic is exact throughout;
normalize and differentiate touch no floating point.

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
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable, Mapping, Optional, Sequence, Union

from .errors import ComputationError, UnboundSymbol

Number = Union[int, Fraction]
BindingValue = Union[int, float, Fraction]
Binding = Mapping[str, BindingValue]

_FUNCTIONS = ("exp", "sin", "cos")


class ScalarExpr:
    """Base class for expression nodes. All nodes are frozen dataclasses."""

    __slots__ = ()

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
        return Add((self, Mul((Rat(Fraction(-1)), other))))

    def __rsub__(self, other: object) -> "ScalarExpr":
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return Add((other, Mul((Rat(Fraction(-1)), self))))

    def __mul__(self, other: object) -> "ScalarExpr":
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return Mul((self, other))

    __rmul__ = __mul__

    def __truediv__(self, other: object) -> "ScalarExpr":
        if isinstance(other, (int, Fraction)):
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
        return Mul((Rat(Fraction(-1)), self))

    def __pos__(self) -> "ScalarExpr":
        return self

    def __reduce__(self):
        # rebuild through __init__: the cached hash of a Sym depends on the
        # process's string hash seed, so it must not be pickled
        return type(self), tuple(getattr(self, name) for name in self.__match_args__)


def _coerce(value: object):
    if isinstance(value, ScalarExpr):
        return value
    if isinstance(value, (int, Fraction)):
        return Rat(Fraction(value))
    return NotImplemented


def _cached_hash(node: ScalarExpr) -> int:
    """Every node stores its hash in the slot `_h` at construction, so
    hashing a tree costs one tuple hash per node, not a walk of the subtree."""
    return node._h


@dataclass(frozen=True, slots=True)
class Rat(ScalarExpr):
    value: Fraction
    _h: int = field(init=False, compare=False, repr=False)
    __hash__ = _cached_hash

    def __post_init__(self) -> None:
        if not isinstance(self.value, Fraction):
            object.__setattr__(self, "value", Fraction(self.value))
        object.__setattr__(self, "_h", hash((Rat, self.value)))


@dataclass(frozen=True, slots=True)
class Sym(ScalarExpr):
    name: str
    _h: int = field(init=False, compare=False, repr=False)
    __hash__ = _cached_hash

    def __post_init__(self) -> None:
        object.__setattr__(self, "_h", hash((Sym, self.name)))


@dataclass(frozen=True, slots=True)
class Add(ScalarExpr):
    args: tuple
    _h: int = field(init=False, compare=False, repr=False)
    __hash__ = _cached_hash

    def __post_init__(self) -> None:
        object.__setattr__(self, "_h", hash((Add, self.args)))


@dataclass(frozen=True, slots=True)
class Mul(ScalarExpr):
    args: tuple
    _h: int = field(init=False, compare=False, repr=False)
    __hash__ = _cached_hash

    def __post_init__(self) -> None:
        object.__setattr__(self, "_h", hash((Mul, self.args)))


@dataclass(frozen=True, slots=True)
class Pow(ScalarExpr):
    base: ScalarExpr
    exponent: int
    _h: int = field(init=False, compare=False, repr=False)
    __hash__ = _cached_hash

    def __post_init__(self) -> None:
        if not isinstance(self.exponent, int) or isinstance(self.exponent, bool):
            raise TypeError("Pow exponent must be an int")
        object.__setattr__(self, "_h", hash((Pow, self.base, self.exponent)))


@dataclass(frozen=True, slots=True)
class Func(ScalarExpr):
    kind: str
    arg: ScalarExpr
    _h: int = field(init=False, compare=False, repr=False)
    __hash__ = _cached_hash

    def __post_init__(self) -> None:
        if self.kind not in _FUNCTIONS:
            raise ValueError("unknown function kind %r" % (self.kind,))
        object.__setattr__(self, "_h", hash((Func, self.kind, self.arg)))


ZERO = Rat(Fraction(0))
ONE = Rat(Fraction(1))


def sym(name: str) -> Sym:
    return Sym(name)


def rational(p: int, q: int = 1) -> Rat:
    return Rat(Fraction(p, q))


def exp(arg: ScalarExpr) -> Func:
    return Func("exp", _coerce(arg))


def sin(arg: ScalarExpr) -> Func:
    return Func("sin", _coerce(arg))


def cos(arg: ScalarExpr) -> Func:
    return Func("cos", _coerce(arg))


# ---------------------------------------------------------------------------
# Normal form.
#
# A polynomial is a dict mapping a monomial to a Fraction coefficient.
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

# Kernel cache bounds, in entries. Evicting an entry only costs its
# recomputation.
_NORMALIZE_CACHE = 1 << 16
_DIFFERENTIATE_CACHE = 1 << 16
_ATOM_KEY_CACHE = 1 << 12
_POLY_CACHE = 1 << 16
_COMPILED_CACHE = 1 << 10

# Normal form (or inverse-atom base) -> its polynomial. Polys are never
# mutated once built (_poly_add and _poly_divmod copy their inputs), so
# _expr_to_poly hands out these entries as they are.
_POLY: dict = {}


def _remember(e: ScalarExpr, p: Poly) -> None:
    if len(_POLY) >= _POLY_CACHE:
        del _POLY[next(iter(_POLY))]
    _POLY[e] = p


def _atom_rank(atom: ScalarExpr) -> int:
    if isinstance(atom, Sym):
        return 0
    if isinstance(atom, Func):
        return 1
    return 2


@functools.lru_cache(maxsize=_ATOM_KEY_CACHE)
def _atom_key(atom: ScalarExpr):
    return (_atom_rank(atom), to_text(atom))


def _mono_cmp(m1: Monomial, m2: Monomial) -> int:
    """Graded-lex order on monomials; atoms compared by _atom_key."""
    d1 = sum(e for _, e in m1)
    d2 = sum(e for _, e in m2)
    if d1 != d2:
        return -1 if d1 < d2 else 1
    e1 = {a: e for a, e in m1}
    e2 = {a: e for a, e in m2}
    atoms = sorted(set(e1) | set(e2), key=_atom_key)
    for atom in atoms:
        x1 = e1.get(atom, 0)
        x2 = e2.get(atom, 0)
        if x1 != x2:
            return 1 if x1 > x2 else -1
    return 0


_mono_key = functools.cmp_to_key(_mono_cmp)


def _mono_mul(m1: Monomial, m2: Monomial) -> Monomial:
    exps = {a: e for a, e in m1}
    for a, e in m2:
        exps[a] = exps.get(a, 0) + e
    return tuple(sorted(((a, e) for a, e in exps.items() if e != 0), key=lambda p: _atom_key(p[0])))


def _mono_inv(m: Monomial) -> Monomial:
    return tuple((a, -e) for a, e in m)


def _poly_add(p1: Poly, p2: Poly) -> Poly:
    out = dict(p1)
    for m, c in p2.items():
        nc = out.get(m, Fraction(0)) + c
        if nc:
            out[m] = nc
        else:
            out.pop(m, None)
    return out


def _poly_scale(p: Poly, c: Fraction) -> Poly:
    if not c:
        return {}
    return {m: c * v for m, v in p.items()}


def _poly_mul(p1: Poly, p2: Poly) -> Poly:
    out: Poly = {}
    for m1, c1 in p1.items():
        for m2, c2 in p2.items():
            m = _mono_mul(m1, m2)
            nc = out.get(m, Fraction(0)) + c1 * c2
            if nc:
                out[m] = nc
            else:
                out.pop(m, None)
    return out


def _poly_pow(p: Poly, k: int) -> Poly:
    out: Poly = {(): Fraction(1)}
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


def _mono_poly(m: Monomial, c: Fraction) -> Poly:
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
            return _mono_poly(_mono_mul(inv_content, _mono_inv(m)), Fraction(1) / c)
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
    monic = _poly_scale(p, Fraction(1) / lc)
    base_expr = _poly_to_expr(monic)
    _remember(base_expr, monic)
    return _poly_mul(_mono_poly(inv_content, Fraction(1) / lc), {((base_expr, -1),): Fraction(1)})


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
            f_c = coef / lt_c
            q = _poly_add(q, {f_m: f_c})
            work = _poly_add(work, _poly_scale(_poly_mul({f_m: f_c}, g), Fraction(-1)))
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
                for m, c in _poly_mul(r, {inv_j: Fraction(1)}).items():
                    new_p = _poly_add(new_p, {m: c})
                if q:
                    if j == 1:
                        add = q
                    else:
                        add = _poly_mul(q, {((g_expr, -(j - 1)),): Fraction(1)})
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
        return {(): e.value} if e.value else {}
    if isinstance(e, Sym):
        return {((e, 1),): Fraction(1)}
    if isinstance(e, Add):
        out: Poly = {}
        for a in e.args:
            out = _poly_add(out, _expr_to_poly(a))
        return out
    if isinstance(e, Mul):
        out = {(): Fraction(1)}
        for a in e.args:
            out = _poly_mul(out, _expr_to_poly(a))
        return out
    if isinstance(e, Pow):
        if e.exponent == 0:
            return {(): Fraction(1)}
        base = _expr_to_poly(e.base)
        if e.exponent > 0:
            return _poly_pow(base, e.exponent)
        # reduce first, so that a g * g^-1 inside the base cancels before inversion
        return _poly_pow(_poly_inv(_reduce_poly(base)), -e.exponent)
    if isinstance(e, Func):
        arg = normalize(e.arg)
        if arg == ZERO:
            if e.kind == "sin":
                return {}
            return {(): Fraction(1)}  # exp(0), cos(0)
        return {((Func(e.kind, arg), 1),): Fraction(1)}
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
            terms.append(Rat(c))
        elif c == 1 and len(factors) == 1:
            terms.append(factors[0])
        elif c == 1:
            terms.append(Mul(tuple(factors)))
        else:
            terms.append(Mul(tuple([Rat(c)] + factors)))
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
    _remember(out, p)
    return out


def is_zero(e: ScalarExpr) -> bool:
    return normalize(e) == ZERO


# ---------------------------------------------------------------------------
# Calculus and evaluation.
# ---------------------------------------------------------------------------


def differentiate(e: ScalarExpr, name: str) -> ScalarExpr:
    """Exact partial derivative with respect to the named symbol."""
    return _differentiate(normalize(e), name)


@functools.lru_cache(maxsize=_DIFFERENTIATE_CACHE)
def _differentiate(n: ScalarExpr, name: str) -> ScalarExpr:
    return _normal_form(_poly_diff(_expr_to_poly(n), name))


def _poly_diff(p: Poly, name: str) -> Poly:
    """Product rule over the atoms of each monomial, before reduction:
    d(a^k) = k*a^(k-1)*a' for every atom a, composite inverse atoms too."""
    out: Poly = {}
    for m, c in p.items():
        for atom, k in m:
            da = _atom_diff(atom, name)
            if not da:
                continue
            rest = _mono_mul(m, ((atom, -1),))
            for m2, c2 in da.items():
                key = _mono_mul(rest, m2)
                nc = out.get(key, Fraction(0)) + c * k * c2
                if nc:
                    out[key] = nc
                else:
                    out.pop(key, None)
    return out


def _atom_diff(atom: ScalarExpr, name: str) -> Poly:
    if isinstance(atom, Sym):
        return {(): Fraction(1)} if atom.name == name else {}
    if not isinstance(atom, Func):
        # a composite inverse atom stands for its base g; this is g'
        return _poly_diff(_expr_to_poly(atom), name)
    inner = _poly_diff(_expr_to_poly(atom.arg), name)
    kind, sign = {"exp": ("exp", 1), "sin": ("cos", 1), "cos": ("sin", -1)}[atom.kind]
    return _poly_mul({((Func(kind, atom.arg), 1),): Fraction(sign)}, inner) if inner else {}


def free_symbols(e: ScalarExpr) -> frozenset:
    if isinstance(e, Rat):
        return frozenset()
    if isinstance(e, Sym):
        return frozenset((e.name,))
    if isinstance(e, (Add, Mul)):
        out: frozenset = frozenset()
        for a in e.args:
            out = out | free_symbols(a)
        return out
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


_COMPILED: dict = {}


def compile_numeric(
    e: ScalarExpr, names: Sequence[str], binding: Optional[Binding] = None
) -> Callable[[tuple], float]:
    """Compile to a float-valued function of one point whose coordinates
    are `names`, in order.  Every other free symbol takes its value from
    `binding`, made float once and bound now; a symbol in neither raises
    UnboundSymbol here rather than when the function is called."""
    nf, names, binding = normalize(e), tuple(names), binding or {}
    bound = {}
    for name in sorted(free_symbols(nf) - set(names)):
        if name not in binding:
            raise UnboundSymbol("symbol %r has no value in binding" % (name,))
        bound[name] = float(binding[name])
    # float.hex tells -0.0 from 0.0, which bind to different results
    key = (nf, names, tuple((k, v.hex()) for k, v in bound.items()))
    fn = _COMPILED.get(key)
    if fn is None:
        refs = {n: "p[%d]" % i for i, n in enumerate(names)}
        scope = {"_exp": math.exp, "_sin": math.sin, "_cos": math.cos}
        for i, (name, v) in enumerate(bound.items()):
            refs[name] = "_b%d" % i
            scope[refs[name]] = v
        fn = eval("lambda p: " + _codegen(nf, refs), scope)
        if len(_COMPILED) >= _COMPILED_CACHE:
            del _COMPILED[next(iter(_COMPILED))]
        _COMPILED[key] = fn
    return fn


def _codegen(e: ScalarExpr, refs: Mapping[str, str]) -> str:
    if isinstance(e, Rat):
        return "(%r)" % (float(e.value),)
    if isinstance(e, Sym):
        return refs[e.name]
    if isinstance(e, Add):
        return "(" + "+".join(_codegen(a, refs) for a in e.args) + ")"
    if isinstance(e, Mul):
        return "(" + "*".join(_codegen(a, refs) for a in e.args) + ")"
    if isinstance(e, Pow):
        return "(%s**(%d))" % (_codegen(e.base, refs), e.exponent)
    if isinstance(e, Func):
        return "_%s(%s)" % (e.kind, _codegen(e.arg, refs))
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
        e = self.term()
        while self.peek() in "+-":
            op = self.take()[0]
            rhs = self.term()
            e = e + rhs if op == "+" else e - rhs
        return e

    def term(self) -> ScalarExpr:
        e = self.unary()
        while self.peek() in "*/":
            op = self.take()[0]
            rhs = self.unary()
            e = e * rhs if op == "*" else e / rhs
        return e

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
