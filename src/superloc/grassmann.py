"""Sparse Grassmann algebra over the scalar kernel.

A superfunction on an (m, n) chart is a map from strictly increasing odd
multi-indices to scalar coefficients; missing keys mean zero and the empty
key is the body. Odd derivatives follow the left-derivative convention, so
``d/dth2 (th1*th2) = -th1``.
"""

from __future__ import annotations

import functools
import operator
from typing import Iterable, Mapping, Sequence, Tuple

from . import scalars as sc
from .errors import DimensionMismatch, IndexOutOfRange, ShapeMismatch, WrongGrade, ZeroBody
from .records import FrozenRecord
from .scalars import Binding, ScalarExpr, normalize

Index = Tuple[int, ...]

# Bound of the Koszul sign memo, in pairs of multi-indices.
_MERGE_SIGN_CACHE = 1 << 14


class SuperChart(FrozenRecord):
    """Distinct even coordinate names plus the number of odd generators,
    which are named th1..thn."""

    __slots__ = ("coords", "n")

    def __init__(self, coords: Tuple[str, ...], n: int) -> None:
        coords = tuple(coords)
        if len(set(coords)) < len(coords):
            repeated = next(c for i, c in enumerate(coords) if c in coords[:i])
            raise ShapeMismatch("chart coordinate %r is repeated" % (repeated,))
        object.__setattr__(self, "coords", coords)
        object.__setattr__(self, "n", n)

    @property
    def m(self) -> int:
        return len(self.coords)

    @property
    def odd_names(self) -> Tuple[str, ...]:
        return tuple("th%d" % (k,) for k in range(1, self.n + 1))


@functools.lru_cache(maxsize=_MERGE_SIGN_CACHE)
def _merge_sign(left: Index, right: Index):
    """Concatenate two increasing multi-indices with the Koszul sign.

    Returns (None, 0) when the indices overlap.
    """
    if set(left) & set(right):
        return None, 0
    inversions = sum(1 for i in left for j in right if i > j)
    merged = tuple(sorted(left + right))
    return merged, (-1) ** inversions


class SuperFunction:
    """Element of the Grassmann algebra over scalar expressions."""

    __slots__ = ("chart", "terms")

    def __init__(self, chart: SuperChart, terms: Mapping[Index, ScalarExpr]):
        clean = {}
        for idx, coeff in terms.items():
            idx = tuple(idx)
            if any(not (1 <= k <= chart.n) for k in idx):
                raise IndexOutOfRange("odd index out of range in %r" % (idx,))
            if list(idx) != sorted(set(idx)):
                raise IndexOutOfRange("multi-index must be strictly increasing: %r" % (idx,))
            c = normalize(coeff if isinstance(coeff, ScalarExpr) else sc.as_expr(coeff))
            if c is not sc.ZERO:
                prev = clean.get(idx)
                clean[idx] = c if prev is None else normalize(prev + c)
        self.chart = chart
        self.terms = {k: v for k, v in clean.items() if v is not sc.ZERO}

    @classmethod
    def _result(cls, chart: SuperChart, parts: dict) -> "SuperFunction":
        """An arithmetic result, whose keys are valid by construction: the terms
        of each odd index are one combine, and the zero ones dropped."""
        self = object.__new__(cls)
        self.chart = chart
        self.terms = {k: c for k, ts in parts.items() if (c := sc.combine(ts)) is not sc.ZERO}
        return self

    # -- constructors ------------------------------------------------------

    @staticmethod
    def from_scalar(chart: SuperChart, value) -> "SuperFunction":
        return SuperFunction(chart, {(): value})

    @staticmethod
    def zero(chart: SuperChart) -> "SuperFunction":
        return SuperFunction(chart, {})

    @staticmethod
    def one(chart: SuperChart) -> "SuperFunction":
        return SuperFunction(chart, {(): sc.ONE})

    @staticmethod
    def generator(chart: SuperChart, index: int) -> "SuperFunction":
        if not (1 <= index <= chart.n):
            raise IndexOutOfRange("no odd generator %d on this chart" % (index,))
        return SuperFunction(chart, {(index,): sc.ONE})

    # -- ring structure ----------------------------------------------------

    def _check_chart(self, other: "SuperFunction") -> None:
        if self.chart is not other.chart and self.chart != other.chart:
            raise DimensionMismatch("superfunctions live on different charts")

    def _sum(self, other, sign: int, own: int = 1):
        """own * self + sign * other, one combine per odd index."""
        other = _coerce(self.chart, other)
        if other is NotImplemented:
            return NotImplemented
        self._check_chart(other)
        return SuperFunction._result(self.chart, _add_terms(_add_terms({}, own, self), sign, other))

    def __add__(self, other):
        return self._sum(other, 1)

    __radd__ = __add__

    def __sub__(self, other):
        return self._sum(other, -1)

    def __rsub__(self, other):
        return self._sum(other, 1, -1)

    def __neg__(self):
        return SuperFunction._result(self.chart, _add_terms({}, -1, self))

    def __mul__(self, other):
        other = _coerce(self.chart, other)
        if other is NotImplemented:
            return NotImplemented
        self._check_chart(other)
        out: dict = {}
        for il, cl in self.terms.items():
            for ir, cr in other.terms.items():
                merged, sign = _merge_sign(il, ir)
                if merged is None:
                    continue
                out.setdefault(merged, []).append((sign, cl, cr))
        return SuperFunction._result(self.chart, out)

    def __rmul__(self, other):
        other = _coerce(self.chart, other)
        if other is NotImplemented:
            return NotImplemented
        return other * self

    def __eq__(self, other):
        return (
            isinstance(other, SuperFunction)
            and self.chart == other.chart
            and self.terms == other.terms
        )

    def __hash__(self):
        return hash((self.chart, tuple(sorted(self.terms.items(), key=lambda kv: kv[0]))))

    def __repr__(self):
        return "SuperFunction(%s)" % (to_super_text(self),)

    # -- structure ---------------------------------------------------------

    def body(self) -> ScalarExpr:
        return self.terms.get((), sc.ZERO)

    def grade(self, k: int) -> "SuperFunction":
        return SuperFunction(self.chart, {i: c for i, c in self.terms.items() if len(i) == k})

    def grades(self) -> Tuple[int, ...]:
        return tuple(sorted({len(i) for i in self.terms}))

    def top_component(self) -> ScalarExpr:
        full = tuple(range(1, self.chart.n + 1))
        return self.terms.get(full, sc.ZERO)

    def coefficient(self, idx: Sequence[int]) -> ScalarExpr:
        return self.terms.get(tuple(idx), sc.ZERO)

    def is_zero(self) -> bool:
        return not self.terms

    def free_symbols(self) -> frozenset:
        return frozenset().union(*map(sc.free_symbols, self.terms.values()))


def _add_terms(parts: dict, sign: int, f: SuperFunction) -> dict:
    """Add sign * f to parts, one combine term per coefficient; return parts."""
    for idx, c in f.terms.items():
        parts.setdefault(idx, []).append((sign, c, sc.ONE))
    return parts


def _coerce(chart: SuperChart, value):
    if isinstance(value, SuperFunction):
        return value
    if isinstance(value, (ScalarExpr, *sc.NUMBERS)):
        return SuperFunction.from_scalar(chart, value)
    return NotImplemented


# ---------------------------------------------------------------------------
# Derivations.
# ---------------------------------------------------------------------------


class SuperVectorField(FrozenRecord):
    """Derivation a^i d/dx^i + b^A d/dth^A with a declared parity."""

    __slots__ = ("chart", "parity", "a", "b")

    def __init__(self, chart: SuperChart, parity: int, a: Sequence, b: Sequence) -> None:
        if len(a) != chart.m or len(b) != chart.n:
            raise DimensionMismatch(
                "field needs %d even and %d odd components" % (chart.m, chart.n)
            )
        object.__setattr__(self, "chart", chart)
        object.__setattr__(self, "parity", parity)
        object.__setattr__(self, "a", tuple(a))
        object.__setattr__(self, "b", tuple(b))

    def apply(self, f: SuperFunction) -> SuperFunction:
        """Sum of a^i d_i f + b^A d_A f, each coefficient one normal form."""
        return SuperFunction._result(self.chart, self._apply_terms({}, 1, f))

    def _apply_terms(self, parts: dict, sign: int, f: SuperFunction) -> dict:
        """Add the combine terms of sign * X(f) to parts by odd index, and
        return parts.

        For each odd index il, the a^i[il] of the coordinates that occur in
        f form one field, along which each coefficient of f is derived in
        one walk; the odd part is the products b^A[il] * (d_A f)[ir]."""
        if f.chart is not self.chart and f.chart != self.chart:
            raise DimensionMismatch("field and function live on different charts")
        names = f.free_symbols()
        fields: dict = {}
        for name, comp in zip(self.chart.coords, self.a):
            if name in names:
                for il, c in comp.terms.items():
                    fields.setdefault(il, {})[name] = c
        for il, field in fields.items():
            for ir, c in f.terms.items():
                merged, s = _merge_sign(il, ir)
                if merged is not None:
                    parts.setdefault(merged, []).append((sign * s, c, field))
        for ir, c in f.terms.items():
            for pos, A in enumerate(ir):
                rest = ir[:pos] + ir[pos + 1:]
                for il, cl in self.b[A - 1].terms.items():
                    merged, s = _merge_sign(il, rest)
                    if merged is not None:
                        parts.setdefault(merged, []).append((sign * s * (-1) ** pos, cl, c))
        return parts


def graded_commutator(X: SuperVectorField, Y: SuperVectorField) -> SuperVectorField:
    """[X, Y] = X Y - (-1)^{|X||Y|} Y X, itself a derivation: each
    coefficient of X(Y^i) - (-1)^{|X||Y|} Y(X^i) is one combine."""
    if X.chart != Y.chart:
        raise DimensionMismatch("fields live on different charts")
    sign = -(-1) ** (X.parity * Y.parity)

    def comp(y, x):
        return SuperFunction._result(X.chart, Y._apply_terms(X._apply_terms({}, 1, y), sign, x))

    return SuperVectorField(
        X.chart, (X.parity + Y.parity) % 2, tuple(map(comp, Y.a, X.a)), tuple(map(comp, Y.b, X.b))
    )


def square_residual(Q: SuperVectorField, lift: SuperVectorField) -> SuperVectorField:
    """(1/2)[Q, Q] - lift, zero exactly when Q squares to the lifted flow.

    For odd Q, (1/2)[Q, Q] = Q∘Q, the field with components Q(Q^i) and
    Q(Q^A), so Q is applied once per component and each coefficient of
    Q(Q^i) - lift^i is one combine; for even Q it is 0.
    """
    if Q.chart != lift.chart or lift.parity != 0:
        raise DimensionMismatch("cannot add fields of different charts or parity")

    def res(q, flow):
        parts = Q._apply_terms({}, 1, q) if Q.parity % 2 else {}
        return SuperFunction._result(Q.chart, _add_terms(parts, -1, flow))

    return SuperVectorField(Q.chart, 0, tuple(map(res, Q.a, lift.a)), tuple(map(res, Q.b, lift.b)))


def field_is_zero(X: SuperVectorField) -> bool:
    return all(c.is_zero() for c in X.a) and all(c.is_zero() for c in X.b)


# ---------------------------------------------------------------------------
# Inversion of even elements.
# ---------------------------------------------------------------------------


def invert_even(f: SuperFunction, samples: Iterable[Binding] = ()) -> SuperFunction:
    """Inverse of an even superfunction with nonvanishing body.

    Computed as f0^-1 * sum_j (-nu/f0)^j with nu = f - f0 nilpotent; the
    series truncates at j = floor(n/2). Sample bindings, when given, guard
    against a body that vanishes somewhere on the intended domain.
    """
    if any(len(k) % 2 for k in f.terms):
        raise WrongGrade("cannot invert an element with odd-grade terms")
    f0 = f.body()
    if f0 == sc.ZERO:
        raise ZeroBody("body vanishes identically")
    for b in samples:
        v = sc.evaluate(f0, b)
        if v == 0 or (isinstance(v, float) and abs(v) < 1e-300):
            raise ZeroBody("body vanishes at sample %r" % (dict(b),))
    inv0 = normalize(sc.Pow(f0, -1))
    nu = f - SuperFunction.from_scalar(f.chart, f0)
    minus_ratio = -(nu * inv0)
    acc = SuperFunction.one(f.chart)
    power = SuperFunction.one(f.chart)
    for _ in range(f.chart.n // 2):
        power = power * minus_ratio
        if power.is_zero():
            break
        acc = acc + power
    return inv0 * acc


# ---------------------------------------------------------------------------
# Text form.
# ---------------------------------------------------------------------------


def to_super_text(f: SuperFunction) -> str:
    """Render like ``(x^2)*th1*th2 + 3*th1``; parse_super round-trips."""
    if not f.terms:
        return "0"
    names = f.chart.odd_names
    parts = []
    for idx in sorted(f.terms, key=lambda i: (len(i), i)):
        c = f.terms[idx]
        gen_txt = "*".join(names[k - 1] for k in idx)
        if not idx:
            parts.append(sc.to_text(c))
            continue
        if c == sc.ONE:
            parts.append(gen_txt)
        else:
            ct = sc.to_text(c)
            if not isinstance(c, (sc.Rat, sc.Sym, sc.Func)):
                ct = "(" + ct + ")"
            parts.append(ct + "*" + gen_txt)
    out = parts[0]
    for p in parts[1:]:
        if p.startswith("-"):
            out += " - " + p[1:]
        else:
            out += " + " + p
    return out


def parse_super(chart: SuperChart, text: str) -> SuperFunction:
    """Parse the superfunction text form on the given chart.

    The scalar parser reads the text. A subtree that names no generator
    th1..thn stays one scalar node of its own class; every other one is
    rebuilt as a superfunction: a product left to right, so the Grassmann
    order holds, and a sum in one normal form per odd index. A quotient is
    a negative power, which only a pure body takes.
    """
    gens = {name: k for k, name in enumerate(chart.odd_names, start=1)}

    def lift(node):
        if isinstance(node, sc.Sym):
            return SuperFunction.generator(chart, gens[node.name]) if node.name in gens else node
        if isinstance(node, (sc.Add, sc.Mul)):
            args = tuple(map(lift, node.args))
            if not any(isinstance(a, SuperFunction) for a in args):
                return type(node)(args)
            if isinstance(node, sc.Mul):
                return functools.reduce(operator.mul, args)
            # one combine per odd index over the normal forms of the args
            parts: dict = {}
            for a in args:
                _add_terms(parts, 1, _coerce(chart, a))
            return SuperFunction._result(chart, parts)
        if isinstance(node, sc.Pow):
            base, k = lift(node.base), node.exponent
            if isinstance(base, SuperFunction) and k < 0:
                if base.grades() not in ((), (0,)):
                    raise ValueError("an odd expression has no negative power or quotient")
                base = base.body()
            if not isinstance(base, SuperFunction):
                return sc.Pow(base, k)
            return functools.reduce(operator.mul, [base] * k, SuperFunction.one(chart))
        if isinstance(node, sc.Func):
            arg = lift(node.arg)
            if isinstance(arg, SuperFunction):
                raise ValueError("%s() takes a scalar argument" % (node.kind,))
            return sc.Func(node.kind, arg)
        return node

    return _coerce(chart, lift(sc.parse_scalar(text)))
