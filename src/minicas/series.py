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

Inside one expansion a series is a _Series: a dict from exponent to an
element of a coefficient ring, and its order.  series_of picks the ring
once: the sparse dict polynomials of expand's kernel (expr._Polys), or
the canonical trees.  The walk reads each leaf into the ring once: a
constant free of the variable, a Taylor-loop coefficient, a coefficient
of the node a series hook returns.  The kernel reads a sum holding the
variable only in integer powers of itself with one _Polys.poly call,
split by the variable's exponent; other sums, and every sum on the
trees, are walked term by term.  Sums, scalings, products, powers and
exp then run on elements, and series_of builds the one PSeriesNode at
the end.  The public ps_add, ps_scale, ps_mul, ps_pow and ps_exp each
read their nodes, run the same operation and build one node.

The kernel covers exact rational numbers, symbols, constants and
function applications, with sums, products and integer powers of them.
Its element is a rational content times a primitive int dict: the
Cauchy products and the power and exp recurrences add and multiply
ints only, and each coefficient takes one rational scale; a number
lead is inverted as a number, and a number is built as its Numeric.
Operands whose coefficients are all rational numbers skip the
elements: a product or power runs on ints over one denominator, with
one gcd per coefficient.  An exact base raised to an integer power is
first cut where the power reaches the order asked for.
Each output coefficient is built once, expanded, so the printed gamma
series grows about as fast as its number of distinct monomials, not
doubling with every order as nested sums of earlier coefficients did.
Inside an expansion a series hook may hand back its series in the
running ring, which is taken as it is, with no node built and read
back.  The kernel remembers the trees it built, so an unchanged
coefficient, such as one multiplied by x^(-1) or by 1, is not built
again.  A leaf that no operation touches keeps its tree: a Taylor-loop
series prints what subs gave.

The kernel refuses a float, I, a numeric-base power such as 2^(1/2) or
a symbolic exponent, the split expand makes: products are not
associative on such forms and floats round by the order of their
operations, so only the tree order prints what these operations always
printed.  It refuses a product whose exponents reach the limit of its
packed monomials (expr._LIMIT).  It also refuses a sum under a
negative power, such as the (1+y)^(-1) of a lead 1+y: that is an
opaque atom there, which cannot cancel against 1+y multiplied out, so
a coefficient that is zero would not read as zero, and a reciprocal
would divide by it; a sum read in one pass refuses where its terms'
reads would, so no later read meets such an atom already known.  A
leaf may hold a tree the kernel expands to zero, so a negative or
fractional power leads with the first element that is not zero.  One
refusal sends the whole of series_of to the same operations on the
canonical trees, since the coefficients earlier operations expanded
would not cancel either; operations called on their own take a kernel
each and fall back one at a time.
"""

from __future__ import annotations

import math
from contextvars import ContextVar
from fractions import Fraction
from typing import Callable, NamedTuple

from .errors import DomainError, PoleError, SeriesError, UnevaluatedDerivativeError
from .expr import (
    Add,
    Constant,
    Expr,
    FunctionApp,
    Mul,
    Numeric,
    Power,
    PSeriesNode,
    Relational,
    Symbol,
    _FIELD,
    _HALF,
    _MASK,
    _MONO_ONE,
    _numeric,
    _padd,
    _pmul,
    _Polys,
    _pscale,
    _Refused,
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
from .numbers import _fraction, _from_fraction

__all__ = [
    "series_of",
    "ps_add",
    "ps_mul",
    "ps_pow",
    "ps_exp",
    "series_coeff",
    "ps_to_expr",
]


# ------------------------------------------------------------------ rings


class _Ring(NamedTuple):
    """Coefficient arithmetic for one expansion.

    read turns a tree into an element, raising _Refused where the kernel
    does not cover it; plus sums elements, times multiplies elements and
    rational numbers, out turns an element into its canonical tree and
    is_zero tests an element.  laurent(e, x) splits a sum into ascending
    {exponent of x: element}, or answers None for the walk to read it.
    """

    read: Callable
    plus: Callable
    times: Callable
    out: Callable
    is_zero: Callable
    one: object
    laurent: Callable


# the trees walk every sum, so floats round in the walk's order
_TREES = _Ring(lambda c: c, add, mul, lambda c: c, lambda c: c.is_zero(), lift(1),
               lambda e, x: None)

# The kernel's elements are (n, d, ints, whole): a rational content n/d
# in lowest terms with d > 0, times ints, a dict polynomial with int
# coefficients, and whole, the dict over Q they make once it is built,
# else None.  Products and sums run on ints alone.
_ZERO = (0, 1, {}, {})
_ONE = (1, 1, {_MONO_ONE: 1}, {_MONO_ONE: 1})


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
    out = {}
    for m, c in ints.items():  # gcd(c*n, d) is gcd(c, d), as n/d is in lowest terms
        g = math.gcd(c, d)
        out[m] = c * n // d if g == d else _fraction(c // g * n, d // g)
    return out


def _dict_times(*fs) -> tuple:
    """The product of kernel elements and rational numbers.  A constant
    element joins the scalar, and a lone element times 1 is itself."""
    n, d, ps, lone = 1, 1, [], None
    for f in fs:
        if type(f) is tuple:
            fn, fd, p, _ = f
            if len(p) == 1 and _MONO_ONE in p:
                fn *= p[_MONO_ONE]
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
    p = ps[0] if ps else {_MONO_ONE: 1}
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


def _number(e) -> int | Fraction | None:
    """The rational number a kernel element stands for, else None."""
    if type(e) is tuple and len(e[2]) == 1 and _MONO_ONE in e[2]:
        n, d = e[0] * e[2][_MONO_ONE], e[1]
        return n if d == 1 else Fraction(n, d)
    return None


def _rational(n: int, d: int) -> tuple:
    """The kernel element n/d, for ints n and d != 0."""
    g = math.gcd(n, d) if d > 0 else -math.gcd(n, d)
    return n // g, d // g, _ONE[2], None


def _ints(s: _Series) -> tuple | None:
    """The coefficients of s as (D, [(exponent, int)]) over one common
    denominator D, zero elements left out, when each is a rational
    number; else None."""
    nums = []
    for k, c in s.coeffs.items():
        if type(c) is not tuple:
            return None
        p = c[2]
        if p:
            if len(p) != 1 or _MONO_ONE not in p:
                return None
            nums.append((k, c[0] * p[_MONO_ONE], c[1]))
    d = math.lcm(*(q for _, _, q in nums))
    return d, [(k, n * (d // q)) for k, n, q in nums]


def _kernel() -> _Ring:
    """A ring on a fresh _Polys, whose read refuses what the module
    docstring lists."""
    polys = _Polys(expand)

    def read(c: Expr) -> tuple:
        seen = len(polys.atoms)
        p = polys.poly(c)
        if p is None or any(type(a) is Add for a in polys.atoms[seen:]):
            raise _Refused
        return _split(p)

    def laurent(e: Add, x: Symbol) -> dict | None:
        # x only in integer powers of itself: a sum holding x under a
        # power would be multiplied out past the order the walk keeps
        for r, _ in e.pairs:
            t = type(r)
            for b, _ in r.pairs if t is Mul else ((r.base if t is Power else r, 1),):
                if type(b) is not Symbol and type(b) is not Constant and x in free_symbols(b):
                    return None
        shift = _FIELD * polys.index_of(x)
        half = 1 << shift >> 1  # the fields below x's round away: none borrows
        seen = len(polys.atoms)
        p = polys.poly(e)
        if any(type(a) is Add for a in polys.atoms[seen:]):
            raise _Refused  # as read would, reading that atom's term
        if p is None:
            return None
        parts: dict = {}
        for m, c in p.items():
            k = ((((m + half) >> shift) + _HALF) & _MASK) - _HALF
            parts.setdefault(k, {})[m - (k << shift)] = c
        return {k: _split(parts[k]) for k in sorted(parts)}

    def out(e: tuple) -> Expr:
        n, d, p, _ = e
        if len(p) == 1 and _MONO_ONE in p:
            # a number element is in lowest terms over a positive d
            return _numeric(_from_fraction(_fraction(n * p[_MONO_ONE], d)))
        return polys.tree(_whole(e))

    return _Ring(read, _dict_plus, _dict_times, out, lambda e: not e[2], _ONE, laurent)


# The ring of the running series_of: a kernel while it has read every
# leaf, _TREES on the rerun after it refused one, None outside.
_expansion: ContextVar[_Ring | None] = ContextVar("_expansion", default=None)


def _expansion_node(build: Callable, var: Symbol, point: Expr) -> PSeriesNode:
    """The node of the _Series build(ring) makes, in the ring of the
    running expansion; outside one, on a kernel of its own, and again on
    the trees if that kernel refuses."""
    ring = _expansion.get()
    if ring is not None:
        return _node(ring, build(ring), var, point)
    ring = _kernel()
    token = _expansion.set(ring)
    try:
        try:
            return _node(ring, build(ring), var, point)
        except _Refused:
            _expansion.set(_TREES)
            return _node(_TREES, build(_TREES), var, point)
    finally:
        _expansion.reset(token)


# ------------------------------------------------------------ the series


class _Series(NamedTuple):
    """A series inside one expansion.

    coeffs maps exponents, ascending, to ring elements; order is as in
    PSeriesNode.  Operations drop zero elements.  A leaf keeps every
    term it was read from, a tree the kernel expands to zero included,
    so its exponents are the node's; leaf holds those terms until an
    operation touches the series, and the edge prints them as they
    were.
    """

    coeffs: dict
    order: int | None
    leaf: tuple | None = None


_EXACT_ZERO = _Series({}, None)


def _leaf(ring: _Ring, terms, order: int | None) -> _Series:
    """The series of sorted (tree, exponent) terms, each read once."""
    terms = tuple(terms)
    return _Series({k: ring.read(c) for c, k in terms}, order, terms)


def _read(ring: _Ring, s: PSeriesNode) -> _Series:
    return _leaf(ring, s.terms, s.order)


def _node(ring: _Ring, s: _Series, var: Symbol, point: Expr) -> PSeriesNode:
    """The one PSeriesNode of s, each coefficient built once."""
    if s.leaf is not None:
        return pseries(var, point, s.leaf, s.order)
    return pseries(var, point, [(ring.out(c), k) for k, c in s.coeffs.items()], s.order)


def _nonzero(ring: _Ring, pairs) -> dict:
    return {k: c for k, c in pairs if not ring.is_zero(c)}


def _is_exact_zero(s: _Series) -> bool:
    return not s.coeffs and s.order is None


def _ldeg(s: _Series) -> int:
    """Low degree bound: first known exponent, or the order for a series
    with no visible terms."""
    for k in s.coeffs:
        return k
    return 0 if s.order is None else s.order


def _check_compatible(a: PSeriesNode, b: PSeriesNode):
    if a.var.serial != b.var.serial or compare(a.point, b.point) != 0:
        raise DomainError("series in different variables or around different points")


# --------------------------------------------------------------- arithmetic


def _truncate(s: _Series, n: int) -> _Series:
    """s cut back to order n; an exact series shorter than n stays exact."""
    if s.order is None and all(k < n for k in s.coeffs):
        return s
    order = n if s.order is None else min(s.order, n)
    leaf = None if s.leaf is None else tuple(t for t in s.leaf if t[1] < order)
    return _Series({k: c for k, c in s.coeffs.items() if k < order}, order, leaf)


def _sum(ring: _Ring, parts: list) -> _Series:
    """The sum of the series in parts: one pass over their terms, then
    the terms at each exponent added in the order of parts."""
    orders = [s.order for s in parts if s.order is not None]
    order = min(orders) if orders else None
    gathered: dict[int, list] = {}
    for s in parts:
        for k, c in s.coeffs.items():
            if order is None or k < order:
                gathered.setdefault(k, []).append(c)
    coeffs = {}
    for k in sorted(gathered):
        c, *rest = gathered[k]
        for d in rest:
            # a zero sum drops out, as it did from a node: on the trees
            # -0.5+0.5 is the float 0.0, and 1 added to that is 1.0
            c = d if ring.is_zero(c) else ring.plus(c, d)
        if not ring.is_zero(c):
            coeffs[k] = c
    return _Series(coeffs, order)


def _scale(ring: _Ring, s: _Series, f, shift: int = 0) -> _Series:
    """f * x^shift * s for an element f."""
    order = None if s.order is None else s.order + shift
    return _Series(
        _nonzero(ring, ((k + shift, ring.times(f, c)) for k, c in s.coeffs.items())), order
    )


def _mul(ring: _Ring, a: _Series, b: _Series) -> _Series:
    if _is_exact_zero(a) or _is_exact_zero(b):
        return _EXACT_ZERO
    candidates = []
    if a.order is not None:
        candidates.append(a.order + _ldeg(b))
    if b.order is not None:
        candidates.append(b.order + _ldeg(a))
    order = min(candidates) if candidates else None
    na = _ints(a)
    nb = na and _ints(b)
    if nb is not None:
        # numbers: the Cauchy product on ints over one denominator
        sums: dict[int, int] = {}
        for ka, x in na[1]:
            for kb, y in nb[1]:
                k = ka + kb
                if order is not None and k >= order:
                    break
                sums[k] = sums.get(k, 0) + x * y
        d = na[0] * nb[0]
        return _Series({k: _rational(sums[k], d) for k in sorted(sums) if sums[k]}, order)
    gathered: dict[int, list] = {}
    for ka, x in a.coeffs.items():
        for kb, y in b.coeffs.items():
            k = ka + kb
            if order is not None and k >= order:
                break
            gathered.setdefault(k, []).append(ring.times(x, y))
    return _Series(
        _nonzero(ring, ((k, ring.plus(*gathered[k])) for k in sorted(gathered))), order
    )


def _pow(ring: _Ring, a: _Series, k, rel_hint: int | None = None) -> _Series:
    """a**k for integer or rational k.

    rel_hint bounds the number of produced coefficients when a is exact
    but the power is an infinite series (negative or fractional k).
    """
    k = Fraction(k)
    if a.order is None and len(a.coeffs) == 1 and (_ldeg(a) * k).denominator == 1:
        # exact monomial: the power is again an exact monomial
        ((e, c),) = a.coeffs.items()
        return _Series(_nonzero(ring, [(int(e * k), ring.read(power(ring.out(c), k)))]), None)
    if k.denominator == 1 and k >= 1 and len(a.coeffs) == 1:
        # (c x^e + O(x^N))^k is c^k x^(ek) + O(x^(N+(k-1)e)): the
        # coefficient and order _mul's squarings give, as e < N
        # keeps the one term in every square
        ((e, sq),) = a.coeffs.items()
        ck, n = ring.one, int(k)
        while n:
            if n & 1:
                ck = ring.plus(ring.times(ck, sq))
            n >>= 1
            if n:
                sq = ring.plus(ring.times(sq, sq))
        n = int(k)
        return _Series(_nonzero(ring, [(e * n, ck)]), a.order + (n - 1) * e)
    if k.denominator == 1 and k >= 0:
        n = int(k)
        result = _Series({0: ring.one}, None)
        square = a
        while n:
            if n & 1:
                result = _mul(ring, result, square)
            n >>= 1
            if n:
                square = _mul(ring, square, square)
        return result
    # a leaf may hold a tree the kernel expands to zero: the lead is the
    # first element that is not zero
    a = _Series(_nonzero(ring, a.coeffs.items()), a.order)
    if not a.coeffs:
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
        return _Series({}, mk + rel)
    got = _ints(a)
    if got is not None:
        # numbers: with k = p/r and u_j the int of x^(m+j), the
        # coefficient of x^(mk+n) is lead^k F_n / E_n, over
        # E_n = prod of i r u_0 for 0 < i <= n, where
        # F_n = sum over j of ((p+r) j - n r) u_j F_(n-j) E_(n-1) / E_(n-j).
        # For an integer k the coefficient over lead^k is an int over
        # u_0^n, so E_n drops each i and F_n is divided by n as it goes:
        # it carries no n! for the gcd to take out
        d, pairs = got
        u = [0] * min(rel, pairs[-1][0] - m + 1)
        for e, c in pairs:
            if e - m < rel:
                u[e - m] = c
        lead = Fraction(u[0], d)
        # a lead power such as 2^(1/2) refuses, as on the elements
        scale = lead**k if k.denominator == 1 else _number(ring.read(power(lift(lead), k)))
        pr, r = k.numerator + k.denominator, k.denominator
        step = [r * u[0] * (i if r > 1 else 1) for i in range(rel)]  # E_i / E_(i-1)
        f, den, coeffs = [1], scale.denominator, {}
        for n in range(rel):
            if n:
                fn, w = 0, 1
                for j in range(1, min(n + 1, len(u))):
                    fn += (pr * j - n * r) * u[j] * f[n - j] * w
                    w *= step[n - j]
                f.append(fn // n if r == 1 else fn)
                den *= step[n]
            if f[n]:
                coeffs[mk + n] = _rational(scale.numerator * f[n], den)
        return _Series(coeffs, mk + rel)
    lead = a.coeffs[m]
    q = _number(lead)
    if q is None:
        lead = ring.out(lead)
        inv_lead, scale = ring.read(power(lead, -1)), ring.read(power(lead, k))
    else:
        # a number inverts on its element, without a tree
        inv_lead = Fraction(q.denominator, q.numerator)
        scale = inv_lead if k == -1 else ring.read(power(lift(q), k))
    # f_n = sum over j of ((k+1) j - n) u_j f_(n-j) / n, with (k+1) j
    # taken once per j, an int when k is one
    k1 = k.numerator + 1 if k.denominator == 1 else k + 1
    u = [(e - m, k1 * (e - m), ring.times(c, inv_lead)) for e, c in a.coeffs.items() if e != m]
    f = [ring.one]
    for n in range(1, rel):
        parts = []
        for j, kj, uj in u:
            if j > n:
                break
            parts.append(ring.times(kj - n, uj, f[n - j]))
        f.append(ring.times(Fraction(1, n), ring.plus(*parts)))
    return _Series(
        _nonzero(ring, ((mk + n, ring.times(scale, fn)) for n, fn in enumerate(f))), mk + rel
    )


def _exp(ring: _Ring, a: _Series, rel_hint: int) -> _Series:
    """exp of a series with positive low degree (no constant term)."""
    if a.coeffs and _ldeg(a) < 1:
        raise SeriesError("ps_exp wants a series with positive low degree")
    order = a.order if a.order is not None else rel_hint
    f = [ring.one]
    for n in range(1, order):
        parts = []
        for j, ej in a.coeffs.items():
            if j > n:
                break
            parts.append(ring.times(j, ej, f[n - j]))
        f.append(ring.times(Fraction(1, n), ring.plus(*parts)))
    return _Series(_nonzero(ring, enumerate(f)), order)


def truncate_ps(s: PSeriesNode, n: int) -> PSeriesNode:
    """Cut a series back to order n; exact series shorter than n stay exact."""
    # truncation does no arithmetic: the trees are its ring
    return _node(_TREES, _truncate(_read(_TREES, s), n), s.var, s.point)


def ps_add(a: PSeriesNode, b: PSeriesNode) -> PSeriesNode:
    _check_compatible(a, b)
    return _expansion_node(lambda r: _sum(r, [_read(r, a), _read(r, b)]), a.var, a.point)


def ps_scale(a: PSeriesNode, factor: Expr, shift: int = 0) -> PSeriesNode:
    """factor * x^shift * a for a factor free of the series variable."""
    return _expansion_node(
        lambda r: _scale(r, _read(r, a), r.read(factor), shift), a.var, a.point
    )


def ps_mul(a: PSeriesNode, b: PSeriesNode) -> PSeriesNode:
    _check_compatible(a, b)
    return _expansion_node(lambda r: _mul(r, _read(r, a), _read(r, b)), a.var, a.point)


def ps_pow(a: PSeriesNode, k, rel_hint: int | None = None) -> PSeriesNode:
    """a**k for integer or rational k; see _pow."""
    return _expansion_node(lambda r: _pow(r, _read(r, a), k, rel_hint), a.var, a.point)


def ps_exp(a: PSeriesNode, rel_hint: int) -> PSeriesNode:
    """exp of a series with positive low degree (no constant term)."""
    return _expansion_node(lambda r: _exp(r, _read(r, a), rel_hint), a.var, a.point)


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
    kernel refuses one leaf, the whole expansion runs again on the trees.
    """
    x, point = _normalize_at(at)
    if not isinstance(order, int) or isinstance(order, bool) or order < 1:
        raise DomainError("series order must be a positive integer")
    e = lift(e)
    return _expansion_node(lambda ring: _series_at(ring, e, x, point, order), x, point)


def _series_at(ring: _Ring, e: Expr, x: Symbol, point: Expr, order: int) -> _Series:
    """The expansion of e at x == point to the given order, which it
    always carries."""
    if not point.is_zero():
        t = Symbol()
        s = _srs(ring, subs(e, {x: add(point, t)}), t, lift(0), order)
    else:
        s = _srs(ring, e, x, point, order)
    s = _truncate(s, order)
    return s if s.order is not None else s._replace(order=order)


def _srs(ring: _Ring, e: Expr, x: Symbol, point: Expr, n: int) -> _Series:
    t = type(e)
    if x not in free_symbols(e):
        if e.is_zero():
            return _EXACT_ZERO
        return _leaf(ring, [(e, 0)], None)
    if t is Symbol:
        return _Series({1: ring.one}, None)
    if t is Add:
        coeffs = ring.laurent(e, x)
        if coeffs is not None:
            return _Series(coeffs, None)
        parts = [] if e.coeff.is_zero() else [_leaf(ring, [(_numeric(e.coeff), 0)], None)]
        for r, k in e.pairs:
            term = _srs(ring, r, x, point, n)
            parts.append(term if k.is_one() else _scale(ring, term, ring.read(_numeric(k))))
        return _sum(ring, parts)
    if t is Mul:
        entities = [r if k.is_one() else power(r, _numeric(k)) for r, k in e.pairs]
        # A factor is expanded at order n, then again higher when the low
        # degrees of the others sum below zero.  The factor expanded last
        # knows that sum and is expanded once: a function application,
        # as its expansion tends to cost the most.
        last = max(range(len(entities)), key=lambda i: type(entities[i]) is FunctionApp)
        first = [_srs(ring, f, x, point, n) if i != last else None for i, f in enumerate(entities)]
        rest = sum(_ldeg(s) for s in first if s is not None)
        first[last] = _srs(ring, entities[last], x, point, max(n, n - rest))
        for s in first:
            if _is_exact_zero(s):
                return _EXACT_ZERO
        ldegs = [_ldeg(s) for s in first]
        if rest < 0 and first[last].order is not None:
            # the low degree its expansion at order n would show
            ldegs[last] = min(ldegs[last], n)
        total = sum(ldegs)
        parts = []
        for i, s in enumerate(first):
            target = n - (total - ldegs[i])
            if target > n and i != last:
                s = _srs(ring, entities[i], x, point, target)
            parts.append(s)
        out = parts[0]
        if not e.coeff.is_one():
            out = _scale(ring, out, ring.read(_numeric(e.coeff)))
        for s in parts[1:]:
            out = _mul(ring, out, s)
        return out
    if t is Power:
        ke = e.exponent
        if type(ke) is Numeric and ke.value.is_rational():
            k = ke.value.as_fraction()
            base = _srs(ring, e.base, x, point, n)
            if _is_exact_zero(base):
                if k > 0:
                    return _EXACT_ZERO
                raise SeriesError("pole of infinite order: zero base series")
            # the low degree of the elements that are not zero
            m = _ldeg(_Series(_nonzero(ring, base.coeffs.items()), base.order))
            want = n - math.floor(m * (k - 1))
            if want > n:
                base = _srs(ring, e.base, x, point, want)
            if k.denominator == 1 and k > 1 and base.order is None and len(base.coeffs) > 1:
                # an exact power would be multiplied out in full: cut the
                # base where the power reaches order n, and past its lead
                cut = max(want, m + 1)
                base = _Series(_nonzero(ring, _truncate(base, cut).coeffs.items()), cut)
            rel = want - m if base.order is None else None
            return _pow(ring, base, k, rel)
        return _leaf(ring, _taylor(e, x, point, n), n)
    if t is FunctionApp:
        hook = e.fdef.series_hook
        if hook is not None:
            got = hook(e.args, x, point, n)
            if type(got) is _Series:  # built in this ring, zeros dropped as a node drops them
                return _Series(_nonzero(ring, got.coeffs.items()), got.order)
            if got is not None:
                return _read(ring, got)
        return _leaf(ring, _taylor(e, x, point, n), n)
    if t is PSeriesNode:
        if e.var.serial == x.serial and compare(e.point, point) == 0:
            return _truncate(_read(ring, e), n)
        raise DomainError("cannot re-expand a series in another variable or point")
    raise DomainError(f"cannot expand {t.__name__} in a series")


def _taylor(e: Expr, x: Symbol, point: Expr, n: int) -> list:
    """Plain Taylor loop: (coefficient, exponent) terms from iterated
    derivatives, below order n."""
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
    return terms


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
