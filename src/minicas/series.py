"""Truncated power and Laurent series.

A series lives in a PSeriesNode: a variable, an expansion point, sorted
(coefficient, exponent) terms and a truncation order N standing for the
O((x-point)^N) tail.  order None marks a series that is exact.  The
arithmetic here tracks how truncation orders propagate:

    add:  min of the orders
    mul:  min(N_a + ldeg(b), N_b + ldeg(a))
    pow:  the relative length ldeg to order is preserved

so precision is never overstated.  series_of drives the structural
expansion and falls back to a Taylor loop built on diff for nodes
without a dedicated rule.
"""

from __future__ import annotations

import math
from fractions import Fraction

from .errors import DomainError, PoleError, SeriesError, UnevaluatedDerivativeError
from .expr import (
    Add,
    Expr,
    FunctionApp,
    Mul,
    Numeric,
    Power,
    PSeriesNode,
    Relational,
    Symbol,
    add,
    compare,
    diff,
    free_symbols,
    lift,
    mul,
    power,
    pseries,
    subs,
)

__all__ = [
    "series_of",
    "ps_add",
    "ps_mul",
    "ps_pow",
    "ps_exp",
    "series_coeff",
    "ps_to_expr",
]


def _zero_series(var, point) -> PSeriesNode:
    return pseries(var, point, [], None)


def _const_series(var, point, value: Expr) -> PSeriesNode:
    return pseries(var, point, [(value, 0)], None)


def _is_exact_zero(s: PSeriesNode) -> bool:
    return not s.terms and s.order is None


def _ldeg(s: PSeriesNode) -> int:
    """Low degree bound: first known exponent, or the order for a series
    with no visible terms."""
    if s.terms:
        return s.terms[0][1]
    return 0 if s.order is None else s.order


def _check_compatible(a: PSeriesNode, b: PSeriesNode):
    if a.var.serial != b.var.serial or compare(a.point, b.point) != 0:
        raise DomainError("series in different variables or around different points")


def truncate_ps(s: PSeriesNode, n: int) -> PSeriesNode:
    """Cut a series back to order n; exact series shorter than n stay exact."""
    if s.order is None and all(k < n for _, k in s.terms):
        return s
    order = n if s.order is None else min(s.order, n)
    return pseries(s.var, s.point, [t for t in s.terms if t[1] < order], order)


# --------------------------------------------------------------- arithmetic


def ps_add(a: PSeriesNode, b: PSeriesNode) -> PSeriesNode:
    _check_compatible(a, b)
    if a.order is None:
        order = b.order
    elif b.order is None:
        order = a.order
    else:
        order = min(a.order, b.order)
    coeffs: dict[int, Expr] = {}
    for c, k in a.terms:
        coeffs[k] = c
    for c, k in b.terms:
        coeffs[k] = add(coeffs.get(k, lift(0)), c)
    return pseries(a.var, a.point, [(c, k) for k, c in coeffs.items()], order)


def ps_scale(a: PSeriesNode, factor: Expr, shift: int = 0) -> PSeriesNode:
    """factor * x^shift * a for a factor free of the series variable."""
    order = None if a.order is None else a.order + shift
    return pseries(
        a.var, a.point, [(mul(factor, c), k + shift) for c, k in a.terms], order
    )


def ps_mul(a: PSeriesNode, b: PSeriesNode) -> PSeriesNode:
    _check_compatible(a, b)
    if _is_exact_zero(a) or _is_exact_zero(b):
        return _zero_series(a.var, a.point)
    candidates = []
    if a.order is not None:
        candidates.append(a.order + _ldeg(b))
    if b.order is not None:
        candidates.append(b.order + _ldeg(a))
    order = min(candidates) if candidates else None
    coeffs: dict[int, list[Expr]] = {}
    for ca, ka in a.terms:
        for cb, kb in b.terms:
            k = ka + kb
            if order is not None and k >= order:
                continue
            coeffs.setdefault(k, []).append(mul(ca, cb))
    terms = [(add(*parts), k) for k, parts in coeffs.items()]
    return pseries(a.var, a.point, terms, order)


def ps_pow(a: PSeriesNode, k, rel_hint: int | None = None) -> PSeriesNode:
    """a**k for integer or rational k.

    rel_hint bounds the number of produced coefficients when a is exact
    but the power is an infinite series (negative or fractional k).
    """
    k = Fraction(k)
    if k.denominator == 1 and k >= 0:
        n = int(k)
        result = _const_series(a.var, a.point, lift(1))
        square = a
        while n:
            if n & 1:
                result = ps_mul(result, square)
            n >>= 1
            if n:
                square = ps_mul(square, square)
        return result
    if not a.terms:
        if a.order is None:
            raise SeriesError("zero series raised to a negative or fractional power")
        raise SeriesError("not enough series terms to invert; increase the order")
    m = _ldeg(a)
    mk = m * k
    if mk.denominator != 1:
        raise SeriesError("fractional leading degree; not a Laurent series")
    mk = int(mk)
    lead = a.terms[0][0]
    if a.order is not None:
        rel = a.order - m
    elif len(a.terms) == 1:
        # exact monomial: the power is again an exact monomial
        return pseries(a.var, a.point, [(power(lead, k), mk)], None)
    else:
        if rel_hint is None:
            raise SeriesError("unbounded expansion of an exact series power")
        rel = rel_hint
    if rel <= 0:
        return pseries(a.var, a.point, [], mk + rel)
    inv_lead = power(lead, -1)
    u: dict[int, Expr] = {}
    for c, e in a.terms[1:]:
        u[e - m] = mul(c, inv_lead)
    f = [lift(1)]
    for n in range(1, rel):
        parts = []
        for j, uj in u.items():
            if j > n:
                break
            parts.append(mul(k * j - (n - j), uj, f[n - j]))
        f.append(mul(Fraction(1, n), add(*parts)))
    scale = power(lead, k)
    terms = [(mul(scale, fn), mk + n) for n, fn in enumerate(f)]
    return pseries(a.var, a.point, terms, mk + rel)


def ps_exp(a: PSeriesNode, rel_hint: int) -> PSeriesNode:
    """exp of a series with positive low degree (no constant term)."""
    if a.terms and _ldeg(a) < 1:
        raise SeriesError("ps_exp wants a series with positive low degree")
    order = a.order if a.order is not None else rel_hint
    e = {k: c for c, k in a.terms}
    f = [lift(1)]
    for n in range(1, order):
        parts = []
        for j, ej in e.items():
            if j > n:
                break
            parts.append(mul(j, ej, f[n - j]))
        f.append(mul(Fraction(1, n), add(*parts)))
    return pseries(a.var, a.point, [(fn, n) for n, fn in enumerate(f)], order)


# ----------------------------------------------------------- the expansion


def _normalize_at(at):
    if isinstance(at, Relational):
        if at.op != "==":
            raise DomainError("expansion point wants an '==' relation")
        x, point = at.lhs, at.rhs
    elif isinstance(at, tuple) and len(at) == 2:
        x, point = lift(at[0]), lift(at[1])
    elif isinstance(at, Symbol):
        x, point = at, lift(0)
    else:
        raise DomainError("expansion point must be a relation, pair, or symbol")
    if type(x) is not Symbol:
        raise DomainError("can only expand in a symbol")
    return x, point


def series_of(e: Expr, at, order: int) -> PSeriesNode:
    """Expand e around a point to the given truncation order.

    Nonzero points are handled by substituting x -> point + t for a fresh
    t and expanding at t == 0, so the machinery below only ever sees the
    origin.  The result always carries an order exponent: a series that
    happens to terminate is still only claimed up to O((x-point)^order).
    """
    x, point = _normalize_at(at)
    if not isinstance(order, int) or isinstance(order, bool) or order < 1:
        raise DomainError("series order must be a positive integer")
    e = lift(e)
    if not point.is_zero():
        t = Symbol()
        s = _srs(subs(e, {x: add(point, t)}), t, lift(0), order)
    else:
        s = _srs(e, x, point, order)
    s = truncate_ps(s, order)
    final = order if s.order is None else s.order
    return pseries(x, point, s.terms, final)


def _srs(e: Expr, x: Symbol, point: Expr, n: int) -> PSeriesNode:
    t = type(e)
    if x not in free_symbols(e):
        if e.is_zero():
            return _zero_series(x, point)
        return _const_series(x, point, e)
    if t is Symbol:
        return pseries(x, point, [(point, 0), (lift(1), 1)], None)
    if t is Add:
        s = _const_series(x, point, Numeric(e.coeff))
        for r, k in e.pairs:
            term = _srs(r, x, point, n)
            if not k.is_one():
                term = ps_scale(term, Numeric(k))
            s = ps_add(s, term)
        return s
    if t is Mul:
        entities = [r if k.is_one() else power(r, Numeric(k)) for r, k in e.pairs]
        first = [_srs(f, x, point, n) for f in entities]
        for s in first:
            if _is_exact_zero(s):
                return _zero_series(x, point)
        ldegs = [_ldeg(s) for s in first]
        total = sum(ldegs)
        parts = []
        for i, s in enumerate(first):
            target = n - (total - ldegs[i])
            if target > n:
                s = _srs(entities[i], x, point, target)
            parts.append(s)
        out = _const_series(x, point, Numeric(e.coeff))
        for s in parts:
            out = ps_mul(out, s)
        return out
    if t is Power:
        ke = e.exponent
        if type(ke) is Numeric and ke.value.is_rational():
            k = ke.value.as_fraction()
            base = _srs(e.base, x, point, n)
            if _is_exact_zero(base):
                if k > 0:
                    return _zero_series(x, point)
                raise SeriesError("pole of infinite order: zero base series")
            m = _ldeg(base)
            want = n - math.floor(m * (k - 1))
            if want > n:
                base = _srs(e.base, x, point, want)
            rel = want - m if base.order is None else None
            return ps_pow(base, k, rel)
        return _taylor(e, x, point, n)
    if t is FunctionApp:
        hook = e.fdef.series_hook
        if hook is not None:
            got = hook(e.args, x, point, n)
            if got is not None:
                return got
        return _taylor(e, x, point, n)
    if t is PSeriesNode:
        if e.var.serial == x.serial and compare(e.point, point) == 0:
            return truncate_ps(e, n)
        raise DomainError("cannot re-expand a series in another variable or point")
    raise DomainError(f"cannot expand {t.__name__} in a series")


def _taylor(e: Expr, x: Symbol, point: Expr, n: int) -> PSeriesNode:
    """Plain Taylor loop: coefficients from iterated derivatives."""
    terms = []
    d = e
    fact = 1
    for k in range(n):
        try:
            c = subs(d, {x: point})
        except (PoleError, ZeroDivisionError) as err:
            raise SeriesError(
                f"no series expansion of {e} around {point}: {err}"
            ) from err
        except UnevaluatedDerivativeError as err:
            raise SeriesError(str(err)) from err
        if not c.is_zero():
            terms.append((mul(Fraction(1, fact), c), k))
        if k + 1 < n:
            try:
                d = diff(d, x)
            except UnevaluatedDerivativeError as err:
                raise SeriesError(str(err)) from err
            fact *= k + 1
    return pseries(x, point, terms, n)


# ------------------------------------------------------------- conversions


def series_coeff(s: PSeriesNode, k: int) -> Expr:
    """Coefficient of (x-point)^k; raises past the truncation order."""
    if s.order is not None and k >= s.order:
        raise SeriesError(f"coefficient {k} lies beyond the truncation order {s.order}")
    for c, e in s.terms:
        if e == k:
            return c
    return lift(0)


def ps_to_expr(s: PSeriesNode) -> Expr:
    """Forget the order term and return the plain expression."""
    base = add(s.var, mul(-1, s.point)) if not s.point.is_zero() else s.var
    return add(*[mul(c, power(base, k)) for c, k in s.terms])
