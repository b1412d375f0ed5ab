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

The coefficient arithmetic of ps_add, ps_scale, ps_mul, ps_pow and
ps_exp runs on the sparse dict polynomials of expand's kernel
(expr._Polys) when it covers every coefficient the operation reads:
exact rational numbers, symbols, constants and function applications,
with sums, products and integer powers of them.  Each output
coefficient is then built once, expanded, so the printed gamma series
grows about as fast as its number of distinct monomials, not doubling
with every order as nested sums of earlier coefficients did.

One kernel serves a whole expansion: series_of makes one _Polys, and
every operation inside it reads and builds through it.  The kernel
remembers the trees it built, so the next operation reads them back
with one lookup, and an unchanged coefficient, such as one multiplied
by x^(-1) or by 1, is not built again.  Inside an operation each
coefficient is split once into a rational content and a primitive
int dict: the Cauchy products and the power and exp recurrences add
and multiply ints only, and each output coefficient takes one
rational scale.  The values are exact, so the dicts, and the trees
built from them, are the same as on dicts over Q.

The kernel refuses a float, I, a numeric-base power such as 2^(1/2) or
a symbolic exponent, the split expand makes: products are not
associative on such forms and floats round by the order of their
operations, so only the tree order prints what these operations always
printed.  It also refuses a sum under a negative power, such as the
(1+y)^(-1) of a lead 1+y: that is an opaque atom there, which cannot
cancel against 1+y multiplied out, so a coefficient that is zero would
not read as zero, and a reciprocal would divide by it.  One refusal
sends the whole of series_of to the same recurrences on the canonical
trees, since the coefficients earlier operations expanded would not
cancel either; operations called on their own take a kernel each and
fall back one at a time.
Taylor-loop coefficients are what subs gives.
"""

from __future__ import annotations

import math
from contextvars import ContextVar
from fractions import Fraction
from typing import Callable, NamedTuple

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
    _padd,
    _pmul,
    _Polys,
    _pscale,
    add,
    compare,
    diff,
    expand,
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


class _Ring(NamedTuple):
    """Coefficient arithmetic for one series operation.

    plus sums ring elements, times multiplies ring elements and
    rational numbers, out turns an element into its canonical tree.
    """

    plus: Callable
    times: Callable
    out: Callable
    one: object


_TREES = _Ring(add, mul, lambda c: c, lift(1))

# The kernel's elements are (n, d, ints, whole): a rational content n/d
# in lowest terms with d > 0, times ints, a dict polynomial with int
# coefficients, and whole, the dict over Q they make once it is built,
# else None.  Products and sums run on ints alone.
_ZERO = (0, 1, {}, {})
_ONE = (1, 1, {(): 1}, {(): 1})


def _content(n: int, d: int, ints: dict, whole) -> tuple:
    """The element n/d * ints, its int gcd moved into the content."""
    if not ints:
        return _ZERO
    g = math.gcd(*ints.values())
    if g != 1:
        ints = {m: c // g for m, c in ints.items()}
        n *= g
    g = math.gcd(n, d)
    return n // g, d // g, ints, whole


def _split(p: dict) -> tuple:
    """p as a kernel element."""
    if not p:
        return _ZERO
    d = math.lcm(*(c.denominator for c in p.values()))
    return _content(1, d, {m: c.numerator * (d // c.denominator) for m, c in p.items()}, p)


def _whole(e: tuple) -> dict:
    n, d, ints, whole = e
    if whole is not None:
        return whole
    if d == 1:
        return _pscale(ints, n)
    return {m: Fraction(c * n, d) for m, c in ints.items()}


def _dict_times(*fs) -> tuple:
    """The product of kernel elements and rational numbers.  A constant
    element joins the scalar, and a lone element times 1 is itself."""
    n, d, ps, lone = 1, 1, [], None
    for f in fs:
        if type(f) is tuple:
            fn, fd, p, _ = f
            if len(p) == 1 and () in p:
                fn *= p[()]
            else:
                ps.append(p)
                lone = f
        elif type(f) is int:
            fn, fd = f, 1
        else:
            fn, fd = f.numerator, f.denominator
        n *= fn
        d *= fd
    if not n:
        return _ZERO
    g = math.gcd(n, d)
    n, d = n // g, d // g
    if len(ps) == 1 and n == lone[0] and d == lone[1]:
        return lone
    p = ps[0] if ps else {(): 1}
    for other in ps[1:]:
        p = _pmul(p, other)
    return n, d, p, None


def _dict_plus(*xs) -> tuple:
    """The sum of kernel elements, added on ints over their common
    denominator."""
    if len(xs) == 1:
        return xs[0]
    d = math.lcm(*(x[1] for x in xs))
    return _content(1, d, _padd((p, n * (d // e)) for n, e, p, _ in xs), None)


class _Refused(Exception):
    """The kernel refused an operation of an expansion."""


# The ring the operations of the running series_of take: its kernel, a
# _Polys shared by all of them while it has taken every one, "trees" on
# the rerun after it refused one, None for operations called outside
# series_of.
_expansion: ContextVar[_Polys | str | None] = ContextVar("_expansion", default=None)


def _ring(coeffs) -> tuple[_Ring, list]:
    """The ring for an operation on these coefficients, and the
    coefficients as its elements: _Polys dicts read through the
    expansion's kernel, or a kernel of their own, split into content
    and int dict; or the trees.  Inside series_of a refusal raises
    _Refused, as the module docstring explains."""
    kernel = _expansion.get()
    if kernel != "trees":
        polys = kernel or _Polys(expand)
        seen = len(polys.atoms)
        es = []
        for c in coeffs:
            p = polys.poly(c)
            if p is None:
                break
            es.append(_split(p))
        if len(es) == len(coeffs) and not any(type(a) is Add for a in polys.atoms[seen:]):
            ring = _Ring(_dict_plus, _dict_times, lambda e: polys.tree(_whole(e)), _ONE)
            return ring, es
        if kernel is not None:
            raise _Refused
    return _TREES, list(coeffs)


def ps_add(a: PSeriesNode, b: PSeriesNode) -> PSeriesNode:
    _check_compatible(a, b)
    if a.order is None:
        order = b.order
    elif b.order is None:
        order = a.order
    else:
        order = min(a.order, b.order)
    ring, cs = _ring([c for c, _ in a.terms + b.terms])
    coeffs: dict[int, object] = {}
    for c, (_, k) in zip(cs, a.terms + b.terms):
        coeffs[k] = ring.plus(coeffs[k], c) if k in coeffs else c
    return pseries(a.var, a.point, [(ring.out(c), k) for k, c in coeffs.items()], order)


def ps_scale(a: PSeriesNode, factor: Expr, shift: int = 0) -> PSeriesNode:
    """factor * x^shift * a for a factor free of the series variable."""
    order = None if a.order is None else a.order + shift
    ring, (f, *cs) = _ring([factor] + [c for c, _ in a.terms])
    terms = [(ring.out(ring.times(f, c)), k + shift) for c, (_, k) in zip(cs, a.terms)]
    return pseries(a.var, a.point, terms, order)


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
    ring, cs = _ring([c for c, _ in a.terms + b.terms])
    ca, cb = cs[: len(a.terms)], cs[len(a.terms) :]
    coeffs: dict[int, list] = {}
    for x, (_, ka) in zip(ca, a.terms):
        for y, (_, kb) in zip(cb, b.terms):
            k = ka + kb
            if order is not None and k >= order:
                continue
            coeffs.setdefault(k, []).append(ring.times(x, y))
    terms = [(ring.out(ring.plus(*parts)), k) for k, parts in coeffs.items()]
    return pseries(a.var, a.point, terms, order)


def ps_pow(a: PSeriesNode, k, rel_hint: int | None = None) -> PSeriesNode:
    """a**k for integer or rational k.

    rel_hint bounds the number of produced coefficients when a is exact
    but the power is an infinite series (negative or fractional k).
    """
    k = Fraction(k)
    if a.order is None and len(a.terms) == 1 and (a.terms[0][1] * k).denominator == 1:
        # exact monomial: the power is again an exact monomial
        ((c, e),) = a.terms
        ring, (ck,) = _ring([power(c, k)])
        return pseries(a.var, a.point, [(ring.out(ck), int(e * k))], None)
    if k.denominator == 1 and k >= 1 and len(a.terms) == 1:
        # (c x^e + O(x^N))^k is c^k x^(ek) + O(x^(N+(k-1)e)): the
        # coefficient and order ps_mul's squarings give, as e < N
        # keeps the one term in every square
        ((c, e),) = a.terms
        ring, (sq,) = _ring([c])
        ck, n = ring.one, int(k)
        while n:
            if n & 1:
                ck = ring.plus(ring.times(ck, sq))
            n >>= 1
            if n:
                sq = ring.plus(ring.times(sq, sq))
        n = int(k)
        return pseries(a.var, a.point, [(ring.out(ck), e * n)], a.order + (n - 1) * e)
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
    if a.order is not None:
        rel = a.order - m
    else:
        if rel_hint is None:
            raise SeriesError("unbounded expansion of an exact series power")
        rel = rel_hint
    if rel <= 0:
        return pseries(a.var, a.point, [], mk + rel)
    lead = a.terms[0][0]
    ring, (inv_lead, scale, *cs) = _ring(
        [power(lead, -1), power(lead, k)] + [c for c, _ in a.terms[1:]]
    )
    u: dict[int, object] = {}
    for c, (_, e) in zip(cs, a.terms[1:]):
        u[e - m] = ring.times(c, inv_lead)
    f = [ring.one]
    for n in range(1, rel):
        parts = []
        for j, uj in u.items():
            if j > n:
                break
            parts.append(ring.times(k * j - (n - j), uj, f[n - j]))
        f.append(ring.times(Fraction(1, n), ring.plus(*parts)))
    terms = [(ring.out(ring.times(scale, fn)), mk + n) for n, fn in enumerate(f)]
    return pseries(a.var, a.point, terms, mk + rel)


def ps_exp(a: PSeriesNode, rel_hint: int) -> PSeriesNode:
    """exp of a series with positive low degree (no constant term)."""
    if a.terms and _ldeg(a) < 1:
        raise SeriesError("ps_exp wants a series with positive low degree")
    order = a.order if a.order is not None else rel_hint
    ring, cs = _ring([c for c, _ in a.terms])
    e = {k: c for c, (_, k) in zip(cs, a.terms)}
    f = [ring.one]
    for n in range(1, order):
        parts = []
        for j, ej in e.items():
            if j > n:
                break
            parts.append(ring.times(j, ej, f[n - j]))
        f.append(ring.times(Fraction(1, n), ring.plus(*parts)))
    return pseries(a.var, a.point, [(ring.out(fn), n) for n, fn in enumerate(f)], order)


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

    Every operation of one expansion takes the same ring: when the
    kernel refuses one, the whole expansion runs again on the trees.
    """
    x, point = _normalize_at(at)
    if not isinstance(order, int) or isinstance(order, bool) or order < 1:
        raise DomainError("series order must be a positive integer")
    e = lift(e)
    if _expansion.get() is not None:
        return _series_at(e, x, point, order)
    token = _expansion.set(_Polys(expand))
    try:
        return _series_at(e, x, point, order)
    except _Refused:
        _expansion.set("trees")
        return _series_at(e, x, point, order)
    finally:
        _expansion.reset(token)


def _series_at(e: Expr, x: Symbol, point: Expr, order: int) -> PSeriesNode:
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
        # A factor is expanded at order n, then again higher when the low
        # degrees of the others sum below zero.  The factor expanded last
        # knows that sum and is expanded once: a function application,
        # as its expansion tends to cost the most.
        last = max(range(len(entities)), key=lambda i: type(entities[i]) is FunctionApp)
        first = [_srs(f, x, point, n) if i != last else None for i, f in enumerate(entities)]
        rest = sum(_ldeg(s) for s in first if s is not None)
        first[last] = _srs(entities[last], x, point, max(n, n - rest))
        for s in first:
            if _is_exact_zero(s):
                return _zero_series(x, point)
        ldegs = [_ldeg(s) for s in first]
        if rest < 0 and first[last].order is not None:
            # the low degree its expansion at order n would show
            ldegs[last] = min(ldegs[last], n)
        total = sum(ldegs)
        parts = []
        for i, s in enumerate(first):
            target = n - (total - ldegs[i])
            if target > n and i != last:
                s = _srs(entities[i], x, point, target)
            parts.append(s)
        out = parts[0] if e.coeff.is_one() else ps_scale(parts[0], Numeric(e.coeff))
        for s in parts[1:]:
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
