"""Polynomial algebra and rational normal forms.

Symbols, integers, and rationals generate multivariate polynomial rings
inside the expression language.  This module answers structural
questions about such expressions (degree, coeff, collect), all from one
grouping of the expanded terms by their exponent (_by_degree), computes
greatest common divisors, and brings rational functions into the
canonical quotient form numerator over denominator with every common
factor cancelled.

Trees are met only at the edge.  Each public entry point reads every
input tree once into a dict mapping monomials to rational coefficients
(_to_dict) and builds every output tree once (_from_dict); in between it
composes dict operations.  A monomial is expand's packed int, one field
per variable (see the dict representation below), so expand, the gcds,
exact division and the determinants share one monomial format.
_integerize splits a dict into its rational content and a primitive
integer part, and everything behind that boundary (the gcd algorithms,
trial and exact division, determinants) runs over Z.  One gcd driver,
_dgcd, does the front once for every gcd: it splits off the contents,
answers a zero, equal or one-term side, strips common monomial factors,
drops variables private to one input and picks the main variable.  Then
it tries the heuristic gcd: evaluate at a big integer xi, take the gcd
one level down, reconstruct a candidate from the balanced base-xi
digits of the result, and verify it by trial division of both inputs.
When the heuristic keeps missing, the subresultant polynomial remainder
sequence settles the matter.

normal() extends cancellation beyond plain polynomials.  Subexpressions
that are not rational in the symbols (function applications, floats,
powers with fractional or symbolic exponents, constants like Pi) become
generator symbols, newer than every symbol, so each adds a column on the
right that older dicts pad with zeros.  A pair is a tree over a rational
(1 but for a number or its reciprocal), which keeps its grouping while
it meets only such pairs, or coprime dicts, the denominator primitive
with a positive lex leading coefficient; the last pair is built once.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import cache, reduce
from heapq import heappop, heappush
from operator import or_ as _or

from .errors import DomainError
from .expr import (
    Add,
    Constant,
    Expr,
    FunctionApp,
    Mul,
    Numeric,
    Power,
    PSeriesNode,
    Symbol,
    _FIELD,
    _HALF,
    _LIMIT,
    _MASK,
    _MONO_ONE,
    _numeric,
    _padd,
    _pmul_unchecked,
    _poly_tree,
    _ppow,
    _pproduct,
    _Polys,
    _pscale,
    _Refused,
    _rewrite,
    _split_factor,
    _terms_of,
    _unpack,
    add,
    compare,
    expand,
    free_symbols,
    lift,
    mul,
    power,
    subs,
)

_ZERO = lift(0)
_ONE = lift(1)


def _is_exact_zero(e: Expr) -> bool:
    return type(e) is Numeric and e.value.is_exact() and e.value.is_zero()


def _as_symbol(x) -> Symbol:
    x = lift(x)
    if type(x) is not Symbol:
        raise DomainError("a plain symbol is required here")
    return x


# ------------------------------------------------------- structural queries


def _term_split(term: Expr, x: Symbol) -> tuple[int, Expr]:
    """Exponent of x in one expanded term, together with the cofactor.

    Terms where x sits anywhere but under an integer power (inside a
    function argument, an exponent, a fractional power, a denominator
    that did not expand away) are rejected.
    """
    if term == x:
        return 1, _ONE
    t = type(term)
    if t is Power and term.base == x:
        k = term.exponent
        if type(k) is Numeric and k.value.is_integer():
            return k.value.val, _ONE
        raise DomainError(f"{x.name} carries a non-integer exponent")
    if t is Mul:
        deg = 0
        factors = [_numeric(term.coeff)]
        for r, k in term.pairs:
            if r == x:
                if not k.is_integer():
                    raise DomainError(f"{x.name} carries a non-integer exponent")
                deg = k.val
            elif x in free_symbols(r):
                raise DomainError(f"{x.name} appears in a non-polynomial position")
            else:
                factors.append(power(r, _numeric(k)))
        return deg, mul(*factors)
    if x in free_symbols(term):
        raise DomainError(f"{x.name} appears in a non-polynomial position")
    return 0, term


def _by_degree(terms, x: Symbol) -> dict[int, list[Expr]]:
    """The cofactors of the expanded terms, grouped by their exponent of
    x (_term_split), each group in the order of terms."""
    out: dict[int, list[Expr]] = {}
    for t in terms:
        k, c = _term_split(t, x)
        out.setdefault(k, []).append(c)
    return out


def degree(e, x) -> int:
    """Highest exponent of x in expanded e.  degree(0, x) is 0."""
    x = _as_symbol(x)
    return max(_by_degree(_terms_of(expand(lift(e))), x))


def ldegree(e, x) -> int:
    """Lowest exponent of x in expanded e."""
    x = _as_symbol(x)
    return min(_by_degree(_terms_of(expand(lift(e))), x))


def coeff(e, x, k: int) -> Expr:
    """Coefficient of x**k in expanded e, zero when that power is absent."""
    x = _as_symbol(x)
    if not isinstance(k, int) or isinstance(k, bool):
        raise DomainError("coefficient exponent must be an int")
    return add(*_by_degree(_terms_of(expand(lift(e))), x).get(k, ()))


def collect(e, x) -> Expr:
    """Regroup expanded e as a sum of coefficients times powers of x."""
    x = _as_symbol(x)
    by = _by_degree(_terms_of(expand(lift(e))), x)
    return add(*(mul(add(*cs), power(x, k)) for k, cs in sorted(by.items())))


# ---------------------------------------------------- dict representation
#
# A polynomial in nv ordered variables is a dict from monomials to
# nonzero int or Fraction coefficients (a Fraction may be integral:
# _integerize makes ints); the zero polynomial is the empty dict.  A
# monomial is the packed int of expand's kernel (expr._Polys), and
# variable j of the sorted vars holds its exponent in field nv-1-j.  So
# comparing monomials as ints compares their exponent vectors
# lexicographically, the term order used throughout, and max(p) is the
# lex leading term.  Every exponent lies in [0, _LIMIT): a product that
# would reach the limit raises _Overflow instead, so no field overflows
# into the next.  Trees become dicts in _to_dict alone, which returns the
# kernel's product as it is, and dicts become trees in _from_dict alone,
# through the kernel's builder.  expr's _padd and _pscale add and scale
# dicts, here, in _Polys and in the determinants; _dmul multiplies them
# by the kernel's loop without its input check, and _dpow through the
# kernel's _ppow.  _integerize turns a dict into a rational content and
# a primitive part with int coefficients.  The arithmetic keeps int
# coefficients ints, and _ddiv_exact divides over Z only.

Poly = dict


class _Overflow(DomainError):
    """A polynomial exponent would reach _LIMIT, past what a packed
    field holds."""

    def __init__(self):
        super().__init__(f"polynomial exponents must stay below 2^{_LIMIT.bit_length() - 1}")


def _guard(m: int) -> int:
    """The top two bits of every field of m and below.  A monomial no
    larger than m has a field outside [0, _LIMIT) exactly when it shares
    one of them, and so does a difference of two such monomials in which
    some field went negative: that field borrows, which sets both bits."""
    return _guards(m.bit_length() // _FIELD + 1)


@cache
def _guards(n: int) -> int:
    return (_HALF | _HALF >> 1) * (((1 << _FIELD * n) - 1) // _MASK)


def _bounded(p: Poly) -> Poly:
    """p itself; _Overflow when one of its exponents reaches _LIMIT, which
    the bitwise or of its monomials then shows in its _guard bits."""
    u = reduce(_or, p, 0)
    if u & _guard(u):
        raise _Overflow
    return p


def _top_exponent(m: int) -> int:
    """The largest exponent of monomial m."""
    return max((k for _, k in _unpack(m)), default=0)


def _ordered_vars(*exprs: Expr) -> tuple[Symbol, ...]:
    return tuple(sorted(set().union(*map(free_symbols, exprs)), key=lambda s: s.serial))


def _to_dict(e: Expr, vars: tuple[Symbol, ...], expanding: bool = True) -> Poly:
    """The expansion of e as a dict polynomial over vars: the product
    expand's kernel forms, returned as it is, without building the
    expanded tree.  vars are the kernel's first atoms (_var_index).

    Raises DomainError when e is not a polynomial with exact rational
    coefficients in those variables, and _Overflow when an exponent
    reaches _LIMIT.  The factors of e are read first.  When each is a
    polynomial over vars under a positive exponent and a bound from
    their exponents keeps the product below the limit, it is formed at
    once; otherwise e is refused, if it must be, before anything is
    multiplied out (_refuse_factors).  A shape the kernel does not cover
    (a float that cancels, say) is expanded on the trees and read from
    there.  With expanding False nothing is expanded: such a shape is
    refused, and so is a function or a sum under a negative power.
    """
    polys = _Polys(expand if expanding else _unexpanded, _var_index(vars))
    fs = polys.factors(e)
    if fs is None and expanding:
        e = expand(e)
        fs = polys.factors(e)
    if fs is None:
        raise _refusal(e)
    for p, _ in fs:
        if not p:
            return {}
    nv = len(vars)
    # room left below _LIMIT for the product's exponents, bounded from
    # each factor's fields by the bitwise or of its monomials
    room = _LIMIT
    for p, k in fs:
        u = reduce(_or, p)
        if k < 1 or u >> _FIELD * nv or u & _guard(u):
            room = 0
            break
        room -= k * _top_exponent(u)
    if room <= 0:
        _refuse_factors(fs, polys.atoms, nv)
    if len(fs) == 1 and fs[0][1] == 1:
        return fs[0][0]
    try:
        return _pproduct(fs)
    except _Refused:
        raise _Overflow from None


def _unexpanded(x: Expr):
    # the walk of a read that expands nothing: a sum read as an atom could
    # be 0 under its negative power, in a product read as 0 for a 0 factor
    raise (_Unexpanded if type(x) is Add else DomainError)("not read without expanding")


class _Unexpanded(DomainError):
    """A read that expands nothing met a sum under a negative power."""


_last_index: list = [None, {}]


def _var_index(vars: tuple[Symbol, ...]) -> dict:
    """vars to kernel atom indices, the last variable first, so variable
    j of nv sits in field nv-1-j.  Callers read many trees over one vars
    tuple, so the index of the tuple met last is kept."""
    if _last_index[0] is not vars:
        _last_index[:] = vars, {v: i for i, v in enumerate(reversed(vars))}
    return _last_index[1]


def _refuse_factors(fs: list, atoms: list, nv: int) -> None:
    """Raise why the product of the kernel's factors fs is not a
    polynomial over the first nv atoms with exponents below _LIMIT, if
    it is not.  Over an integral domain the extreme exponents of a
    product are the sums of its factors' extremes, so these tests are
    exact."""
    lo: dict[int, int] = {}
    hi: dict[int, int] = {}
    for p, k in fs:
        for i, (a, b) in _exponent_ranges(p).items():
            a, b = (a * k, b * k) if k > 0 else (b * k, a * k)
            lo[i] = lo.get(i, 0) + a
            hi[i] = hi.get(i, 0) + b
    for i in lo:
        if type(atoms[i]) is Add:
            # a sum is an atom only under a negative power
            raise _NotAFactor(atoms[i], lo[i])
        if i >= nv and (lo[i] < 0 or hi[i] > 0):
            raise DomainError(f"{atoms[i]} is not one of the polynomial's symbols")
        if lo[i] < 0:
            raise DomainError(f"{atoms[i]} occurs under a negative power")
    if any(h >= _LIMIT for h in hi.values()):
        raise _Overflow


class _NotAFactor(DomainError):
    """A base under a negative power where a polynomial factor belongs,
    its message built only when shown: most readers discard it."""

    def __str__(self):
        return f"{power(*self.args)} is not a polynomial factor"


def _refusal(e: Expr) -> DomainError:
    """Why the kernel does not read expanded e: a term with an exponent
    at or past _LIMIT, or one that is not a rational multiple of
    monomials."""
    for t in _terms_of(e):
        pairs = t.pairs if type(t) is Mul else () if type(t) is Numeric else (_split_factor(t),)
        if any(k.is_integer() and k.val >= _LIMIT for _, k in pairs):
            return _Overflow()
    return DomainError("not a polynomial with exact rational coefficients")


def _exponent_ranges(p: Poly) -> dict[int, tuple[int, int]]:
    """Lowest and highest exponent of each atom over the kernel's
    polynomial p, a monomial without the atom counting as exponent 0."""
    exps: dict[int, list[int]] = {}
    for m in p:
        for i, d in _unpack(m):
            exps.setdefault(i, []).append(d)
    return {
        i: (min(ds), max(ds)) if len(ds) == len(p) else (min(*ds, 0), max(*ds, 0))
        for i, ds in exps.items()
    }


def _from_dict(p: Poly, vars: tuple[Symbol, ...]) -> Expr:
    """The canonical tree of p, built by the kernel's builder over the
    atoms _var_index gives, the last variable first.  vars are in
    canonical order, as _ordered_vars gives them, so the variable in
    field i has rank nv-1-i."""
    nv = len(vars)
    return _poly_tree(p, vars[::-1], range(nv - 1, -1, -1))


def _dmul(a: Poly, b: Poly) -> Poly:
    """a * b; _Overflow when an exponent of the product reaches _LIMIT.
    Both keep their exponents in [0, _LIMIT), so every sum fits its field
    and the kernel's input check is not needed."""
    return _bounded(_pmul_unchecked(a, b))


def _dpow(a: Poly, n: int) -> Poly:
    """a**n for nonzero a and n >= 0 by the kernel's _ppow.  The degree
    in each variable is n times a's, so an exponent that would reach
    _LIMIT raises _Overflow before anything is multiplied."""
    if not n:
        return {_MONO_ONE: 1}
    if n > 1 and n * max(map(_top_exponent, a)) >= _LIMIT:
        raise _Overflow
    return _ppow(a, n)


def _ddiv_exact(a: Poly, b: Poly) -> Poly | None:
    """Exact quotient a/b over Z, or None when b does not divide a.

    a and b have int coefficients.  Plain multivariate division: the lex
    leading term of the remainder must be divisible by the lex leading
    term of b at every step, coefficient included, which holds whenever
    the division as a whole is exact.  The quotient's monomial is lr - lb
    for leading monomials lr and lb; one mask (_guard) tests that no
    field of it went negative or reached _LIMIT, where no exact
    quotient of a reaches.  Each exponent of an exact quotient is at
    most a's degree less b's in that variable: once the quotient has as
    many terms as a, that bound is tested too, so a division that does
    not go ends before its remainder climbs to the limit.  Each lead
    comes from a heap of the remainder's monomials, stale ones skipped
    (Monagan and Pearce, JSC 46, 2011), not from a scan of it.
    """
    if not b:
        raise ZeroDivisionError("polynomial division by zero")
    if not a:
        return {}
    lb = max(b)
    cb = b[lb]
    top = max(max(a), lb)
    guard = _guard(top)
    room = None
    others = [(t, v) for t, v in b.items() if t != lb]
    q: Poly = {}
    r = dict(a)
    heap = sorted(-t for t in r)  # a sorted list is a heap
    while r:
        lr = -heappop(heap)
        if lr not in r:
            continue
        m = lr - lb
        if m & guard:
            return None
        if len(q) >= len(a):
            if room is None:
                n = top.bit_length() // _FIELD + 1
                room = _fieldwise(max, a, n) - _fieldwise(max, b, n)
            if (room - m) & guard:
                return None
        c, rest = divmod(r.pop(lr), cb)
        if rest:
            return None
        q[m] = c
        for t, v in others:
            key = m + t
            if key not in r:
                heappush(heap, -key)
            s = r.get(key, 0) - c * v
            if s:
                r[key] = s
            else:
                r.pop(key, None)
    return q


def _dquotient(a: Poly, b: Poly) -> Poly:
    """a / b over Q, DomainError when b does not divide a.  By Gauss's
    lemma a primitive divisor divides over Z exactly when it divides over
    Q, so the primitive parts divide over Z and the contents apart."""
    ca, pa = _integerize(a)
    cb, pb = _integerize(b)
    q = _ddiv_exact(pa, pb)
    if q is None:
        raise DomainError("quotient is not exact")
    return _pscale(q, _qdiv(ca, cb))


def _qdiv(a, b):
    """a / b for rationals, an int when b divides a."""
    if type(a) is int and type(b) is int and not a % b:
        return a // b
    return Fraction(a, b)


def _dlexlead(p: Poly):
    return p[max(p)]


def _dunit_normal(p: Poly) -> Poly:
    return _pscale(p, -1) if p and _dlexlead(p) < 0 else p


_INTS = {int}


def _integerize(p: Poly) -> tuple:
    """Split p into content times primitive part.

    The primitive part has coprime int coefficients and a positive lex
    leading one, and is p itself when p already is such; the content, an
    int when p's coefficients are, carries the sign.
    """
    if not p:
        return 0, {}
    den = 1
    # expand's kernel and dict arithmetic over Q leave integral Fractions
    if set(map(type, p.values())) != _INTS:
        den = math.lcm(*(v.denominator for v in p.values()))
        p = {t: v.numerator * (den // v.denominator) for t, v in p.items()}
    g = math.gcd(*p.values())
    if _dlexlead(p) < 0:
        g = -g
    prim = p if g == 1 else {t: v // g for t, v in p.items()}
    return _qdiv(g, den), prim


# ------------------------------------------------------------ heuristic gcd
#
# Liao and Fateman's trick: a gcd survives evaluation, so evaluate the
# innermost variable at an integer xi larger than any coefficient could
# be, gcd one level down, and read the candidate's coefficients off the
# balanced base-xi digits.  Trial division of both inputs makes the
# answer sound.  A miss grows xi by 73794/27011 (close to 1 + sqrt 3,
# so successive points share as little structure as possible) and tries
# again, at most six retries.

_HEUR_TRIES = 7
# GiNaC's heur_gcd gives up once xi's length times the degree in the
# evaluated variable passes 100,000 bits, about the length of the
# integers an evaluation would build; the subresultant PRS takes over
_HEUR_BITS = 100_000


def _dheight(p: Poly) -> int:
    return max(abs(c) for c in p.values())


def _eval_last(p: Poly, xi: int) -> Poly:
    """p with its last variable, field 0, set to xi: a dict over the
    variables before it.  Each power of xi is computed once."""
    pows: dict[int, int] = {}
    out: Poly = {}
    for m, c in p.items():
        k = m & _MASK
        w = pows.get(k)
        if w is None:
            w = pows[k] = xi**k
        key = m >> _FIELD
        s = out.get(key, 0) + c * w
        if s:
            out[key] = s
        else:
            out.pop(key, None)
    return out


def _balanced(c: int, xi: int) -> int:
    r = c % xi
    return r - xi if 2 * r > xi else r


def _heur_gcd_z(a: Poly, b: Poly, nv: int) -> Poly | None:
    """Heuristic gcd of primitive integer polynomials, None on defeat
    or when an evaluation would pass _HEUR_BITS."""
    xi = 2 * max(_dheight(a), _dheight(b)) + 2
    deg = max(m & _MASK for p in (a, b) for m in p)
    for _ in range(_HEUR_TRIES):
        if deg * xi.bit_length() > _HEUR_BITS:
            return None
        g = _heur_attempt(a, b, nv, xi)
        if g is not None:
            return g
        xi = xi * 73794 // 27011
    return None


def _heur_attempt(a: Poly, b: Poly, nv: int, xi: int) -> Poly | None:
    ea, eb = _eval_last(a, xi), _eval_last(b, xi)
    if nv == 1:
        gi = math.gcd(ea.get(_MONO_ONE, 0), eb.get(_MONO_ONE, 0))
        gamma: Poly = {_MONO_ONE: gi} if gi else {}
    else:
        ca, pa = _integerize(ea)
        cb, pb = _integerize(eb)
        inner = _heur_gcd_z(pa, pb, nv - 1)
        if inner is None:
            return None
        gamma = _pscale(inner, math.gcd(ca, cb))
    if not gamma:
        return None
    # balanced xi-adic digits of gamma become the candidate's
    # coefficients along the innermost variable
    cand: Poly = {}
    i = 0
    while gamma:
        carry: Poly = {}
        for t, c in gamma.items():
            d = _balanced(c, xi)
            if d:
                cand[t << _FIELD | i] = d
            rest = (c - d) // xi
            if rest:
                carry[t] = rest
        gamma = carry
        i += 1
    if not cand:
        return None
    _, cand = _integerize(cand)
    # 1 divides both inputs, so the heuristic gcd theorem makes it the gcd
    if _is_done(cand) or (_ddiv_exact(a, cand) is not None and _ddiv_exact(b, cand) is not None):
        return cand
    return None


# --------------------------------------------------------- subresultant gcd


def _split_main(p: Poly, nv: int) -> dict[int, Poly]:
    """View p as univariate in the first variable, the top field, with
    Poly coefficients over the other nv - 1."""
    s = _FIELD * (nv - 1)
    low = (1 << s) - 1
    out: dict[int, Poly] = {}
    for m, c in p.items():
        out.setdefault(m >> s, {})[m & low] = c
    return out


def _join_main(u: dict[int, Poly], nv: int) -> Poly:
    s = _FIELD * (nv - 1)
    return {k << s | m: c for k, cp in u.items() for m, c in cp.items()}


def _is_done(g: Poly) -> bool:
    return len(g) == 1 and g.get(_MONO_ONE) == 1


def _coeff_content(u: dict[int, Poly], w: int) -> Poly:
    """gcd of the coefficient polynomials (w counts the inner variables)."""
    g: Poly = {}
    for c in u.values():
        g = _dgcd(g, c, w)
        if _is_done(g):
            break
    return g


def _must(q: Poly | None) -> Poly:
    assert q is not None, "division promised exact by the PRS theory"
    return q


def _prem(u: dict[int, Poly], v: dict[int, Poly], w: int) -> dict[int, Poly]:
    """Pseudo-remainder of u by v along the main variable.

    Returns lc(v)**(deg u - deg v + 1) * u reduced by v, the scaling
    that keeps every later division in the subresultant sequence exact.
    """
    dv = max(v)
    lv = v[dv]
    r = {k: c for k, c in u.items()}
    steps = max(r) - dv + 1
    while r and (dr := max(r)) >= dv:
        lr = r.pop(dr)
        nxt: dict[int, Poly] = {k: _dmul(c, lv) for k, c in r.items()}
        for k, c in v.items():
            if k == dv:
                continue
            key = k + dr - dv
            nxt[key] = _padd(((nxt.get(key, {}), 1), (_dmul(c, lr), -1)))
        r = {k: c for k, c in nxt.items() if c}
        steps -= 1
    if steps > 0 and r:
        scale = _dpow(lv, steps)
        r = {k: _dmul(c, scale) for k, c in r.items()}
    return r


def _sr_gcd_z(a: Poly, b: Poly, nv: int) -> Poly:
    """Subresultant PRS gcd of primitive integer polynomials.

    The main variable is the first; contents with respect to it are
    corrected through a recursive gcd one variable down.
    """
    w = nv - 1
    u, v = _split_main(a, nv), _split_main(b, nv)
    if max(u) < max(v):
        u, v = v, u
    cu = _coeff_content(u, w)
    cv = _coeff_content(v, w)
    cg = _dgcd(cu, cv, w)
    u = {k: _must(_ddiv_exact(c, cu)) for k, c in u.items()}
    v = {k: _must(_ddiv_exact(c, cv)) for k, c in v.items()}
    cone = {_MONO_ONE: 1}
    g = h = cone
    while True:
        if max(v) == 0:
            # a constant tail: the primitive parts are coprime
            result = {0: cone}
            break
        delta = max(u) - max(v)
        r = _prem(u, v, w)
        if not r:
            cv2 = _coeff_content(v, w)
            result = {k: _must(_ddiv_exact(c, cv2)) for k, c in v.items()}
            break
        divisor = _dmul(g, _dpow(h, delta))
        u, v = v, {k: _must(_ddiv_exact(c, divisor)) for k, c in r.items()}
        g = u[max(u)]
        if delta == 1:
            h = g
        elif delta > 1:
            # h = g**delta / h**(delta - 1), exact over the integers
            h = _must(_ddiv_exact(_dpow(g, delta), _dpow(h, delta - 1)))
    out = _join_main({k: _dmul(c, cg) for k, c in result.items()}, nv)
    return _dunit_normal(out)


# ----------------------------------------------------------- the gcd driver


def _permute(p: Poly, i: int, nv: int, back: bool = False) -> Poly:
    """p with variable i moved to the front and the variables before it
    one place back; back=True undoes that.  Variable i's field moves to
    the top, and the fields above it one field down."""
    if not i:
        return p
    f = _FIELD * (nv - 1 - i)
    top = _FIELD * (nv - 1)
    low = (1 << f) - 1
    if back:
        mid = (1 << top - f) - 1
        return {m & low | (m >> f & mid) << f + _FIELD | (m >> top) << f: c for m, c in p.items()}
    return {m & low | (m >> f + _FIELD) << f | (m >> f & _MASK) << top: c for m, c in p.items()}


def _field(monomials, s: int):
    """The field at bit s of each of monomials."""
    return map(_MASK.__and__, map(s.__rrshift__, monomials))


def _degree(p: Poly, i: int, nv: int) -> int:
    """The degree of p in variable i."""
    return max(_field(p, _FIELD * (nv - 1 - i)))


def _fieldwise(f, monomials, n: int) -> int:
    """The monomial whose first n fields are f (min or max) of that field
    over monomials: with min, the largest monomial dividing them all."""
    return sum(f(_field(monomials, s)) << s for s in range(0, _FIELD * n, _FIELD))


def _main_var(a: Poly, b: Poly, nv: int) -> int | None:
    """The best main variable: the one of lowest minimum degree across
    both inputs, ties broken by canonical order.  None when no variable
    occurs in both (the primitive parts are coprime).
    """
    best = None
    for i in range(nv):
        da = _degree(a, i, nv)
        db = _degree(b, i, nv)
        if da and db:
            key = (min(da, db), i)
            if best is None or key < best:
                best = key
    return None if best is None else best[1]


def _content_along(p: Poly, i: int, nv: int) -> Poly:
    """gcd of the coefficients of p along variable i."""
    s = _FIELD * (nv - 1 - i)
    groups: dict[int, Poly] = {}
    for m, c in p.items():
        k = m >> s & _MASK
        groups.setdefault(k, {})[m - (k << s)] = c
    return _coeff_content(groups, nv)


def _dict_gcd(a: Poly, b: Poly, nv: int) -> Poly:
    """The heuristic gcd, or the subresultant PRS when it gives up."""
    g = _heur_gcd_z(a, b, nv)
    if g is None:
        g = _sr_gcd_z(a, b, nv)
    return g


def _dgcd(a: Poly, b: Poly, nv: int, core=None) -> Poly | None:
    """gcd of dicts over Q, unit normal, with the gcd of the rational
    contents as its content: the one gcd driver.  The structural steps
    run first, each once; then core(pa, pb, nv), _dict_gcd by default,
    sees the primitive int parts with the best main variable first.
    None from core passes through."""
    if not a or not b or a == b:
        return _dunit_normal(a or b)
    ca, a = _integerize(a)
    cb, b = _integerize(b)
    cg = _qgcd(ca, cb)
    if len(a) == 1 or len(b) == 1:
        # a one-term side shares only a monomial and the content
        return {_fieldwise(min, (*a, *b), nv): cg}
    # common monomial factors come out before anything else
    ma, mb = _fieldwise(min, a, nv), _fieldwise(min, b, nv)
    mg = _fieldwise(min, (ma, mb), nv)
    if ma:
        a = {m - ma: c for m, c in a.items()}
    if mb:
        b = {m - mb: c for m, c in b.items()}
    # a variable only one side sees cannot survive; that input shrinks
    # to the gcd of its coefficients along the private variable, which
    # is primitive as the input is
    for i in range(nv):
        da = _degree(a, i, nv)
        db = _degree(b, i, nv)
        if da and not db:
            a = _content_along(a, i, nv)
        elif db and not da:
            b = _content_along(b, i, nv)
    if a == b:
        g = a
    elif (i := _main_var(a, b, nv)) is None:
        g = {_MONO_ONE: 1}
    else:
        g = (core or _dict_gcd)(_permute(a, i, nv), _permute(b, i, nv), nv)
        if g is None:
            return None
        # unit normality is judged in the canonical order, not the permuted one
        g = _dunit_normal(_permute(g, i, nv, back=True))
    g = _pscale(g, cg)
    return {m + mg: c for m, c in g.items()} if mg else g


def _qgcd(a, b):
    """The gcd of two rationals: both are integer multiples of it."""
    return _qdiv(math.gcd(a.numerator, b.numerator), math.lcm(a.denominator, b.denominator))


def exact_quotient(a, b) -> Expr:
    """a / b when b divides a exactly as a polynomial (_dquotient)."""
    a, b = lift(a), lift(b)
    vars = _ordered_vars(a, b)
    return _from_dict(_dquotient(_to_dict(a, vars), _to_dict(b, vars)), vars)


def _gcd_entry(a, b, core) -> Expr | None:
    """What heur_gcd and sr_gcd share: both inputs read over their
    canonically ordered symbols and handed to _dgcd with core."""
    a, b = lift(a), lift(b)
    vars = _ordered_vars(a, b)
    g = _dgcd(_to_dict(a, vars), _to_dict(b, vars), len(vars), core)
    return None if g is None else _from_dict(g, vars)


def poly_gcd(a, b) -> Expr:
    """Greatest common divisor of two polynomials.

    The result is unit normal: positive leading coefficient under the
    canonical variable order.  The gcd of e and 0 is unit-normal e, and
    rational contents participate, so gcd(4, 6) is 2 and the quotients
    of any two inputs by their gcd are coprime integer polynomials.
    Against a visibly factored input the result is a product too.
    """
    a, b = lift(a), lift(b)
    vars = _ordered_vars(a, b)
    return mul(*(power(_from_dict(p, vars), k) for p, k in _gcd_parts(a, b, vars)))


def _gcd_parts(a: Expr, b: Expr, vars) -> list[tuple[Poly, int]]:
    """gcd(a, b) as (dict, exponent) parts whose product it is, each
    input read once: one dict, or the parts _factors_gcd finds in a
    product, of two the first by compare."""
    if type(b) is Mul and (compare(b, a) < 0 if type(a) is Mul else not _is_exact_zero(a)):
        a, b = b, a
    if type(a) is Mul and not _is_exact_zero(b):
        return _factors_gcd((a.coeff.val, _factors(a, vars)), b, vars)
    return [(_dgcd(_to_dict(a, vars), _to_dict(b, vars), len(vars)), 1)]


def _factors(m: Mul, vars):
    """The factors of m, read one at a time, as (rational content,
    primitive part, exponent): (2*x+2)^2 is (2, 1+x, 2)."""
    if not m.coeff.is_rational():
        raise DomainError("polynomial coefficients must be exact rationals")
    for r, k in m.pairs:
        if not k.is_integer() or k.val < 1:
            raise _NotAFactor(r, _numeric(k))
        c, p = _integerize(_to_dict(r, vars))
        if k.val >= _LIMIT and abs(c) != 1:
            raise _Overflow  # the content alone would need 2^30 digits
        yield c, p, k.val


def _factors_gcd(fa: tuple, rem, vars) -> list[tuple[Poly, int]]:
    """gcd of the product fa, a (coefficient, factors) pair, and rem as
    (dict, exponent) parts whose product it is, one factor at a time:
    primitive parts meet in the loop, the contents once at the end, so
    the list is primitive parts followed by one content.  rem is a tree,
    read after fa's first factor, a dict, or another such pair.

    A factor p^k meets rem by repeated gcds of p and the remainder, each
    divided out, up to k of them.  A pair met first meets p factor by
    factor; after that the remainder is one polynomial, and each gcd one
    dict.  Two shortcuts give the same parts without a gcd per unit of
    k, and without multiplying the remainder out:
    - a one-term p takes min(k * e, lowest exponent of the remainder)
      of each of its fields e;
    - a factored remainder with a factor p^k' gives p min(k, k') times.
      It stays factored, and is multiplied out only when a later gcd
      with it is not 1.
    """
    nv = len(vars)
    one = {_MONO_ONE: 1}
    content, parts = fa[0], []
    fresh = False  # rem is a pair met for the first time
    for c, p, k in fa[1]:
        content *= c**k
        if type(rem) is Mul:
            rem, fresh = (rem.coeff.val, list(_factors(rem, vars))), True
        elif isinstance(rem, Expr):
            rem = _to_dict(rem, vars)
        while k:
            if rem == {}:
                parts.append((p, k))  # each gcd with 0 is p itself
                break
            if type(rem) is dict and len(p) == 1:
                (m,) = p
                low = _fieldwise(min, rem, nv)
                got = sum(min(k * e, low >> _FIELD * i & _MASK) << _FIELD * i for i, e in _unpack(m))
                if got:
                    parts.append(({got: 1}, 1))
                    rem = {t - got: v for t, v in rem.items()}
                break
            i = None
            if type(rem) is tuple:
                i = next((j for j, f in enumerate(rem[1]) if f[1] == p), None)
                if i is not None and not fresh:
                    j = min(k, rem[1][i][2])
                    parts.append((p, j))
                    k -= j
                    rem = _divided(rem, i, j)
                    continue
            if type(rem) is tuple and p:
                g = _factors_gcd(rem, p, vars)
            else:
                g = [(_dgcd(p, _whole(rem), nv), 1)]
            prims = [(q, e) for (_, q), e in ((_integerize(h), e) for h, e in g) if q != one]
            if not prims:
                break
            if type(rem) is tuple and not fresh:
                rem = _whole(rem)  # the gcd with a product divided before is one dict
                continue
            parts += prims
            k -= 1
            if i is not None:
                rem, fresh = _divided(rem, i, 1), False
                continue
            g = reduce(_dmul, (_dpow(q, e) for q, e in prims))
            rem, fresh = _dquotient(_whole(rem), g), False
    last = {_MONO_ONE: content} if content else {}
    if type(rem) is tuple and last:
        return parts + _factors_gcd(rem, last, vars)
    return parts + [(_dgcd(last, _whole(rem), nv), 1)]


def _divided(x: tuple, i: int, j: int) -> tuple:
    """The (coefficient, factors) pair x with factor i's exponent j
    lower, its content kept in the coefficient."""
    c, p, k = x[1][i]
    rest = [(c, p, k - j)] if k > j else []
    return x[0] * c**j, x[1][:i] + rest + x[1][i + 1 :]


def _whole(x) -> Poly:
    """x itself, or the product a (coefficient, factors) pair stands for."""
    if type(x) is dict:
        return x
    ps = [_dpow(p, k) for _, p, k in x[1]]
    p = reduce(_dmul, ps) if ps else {_MONO_ONE: 1}
    return _pscale(p, x[0] * math.prod(c**k for c, _, k in x[1]))


def heur_gcd(a, b) -> Expr | None:
    """The heuristic gcd alone, behind the same front as poly_gcd.  None
    when six retries never verify."""
    return _gcd_entry(a, b, _heur_gcd_z)


def sr_gcd(a, b) -> Expr:
    """The subresultant PRS gcd, the deterministic fallback, behind the
    same front as poly_gcd."""
    return _gcd_entry(a, b, _sr_gcd_z)


def lcm(a, b) -> Expr:
    """Least common multiple a * b / gcd, unit normal."""
    a, b = lift(a), lift(b)
    vars = _ordered_vars(a, b)
    g = reduce(_dmul, (_dpow(p, k) for p, k in _gcd_parts(a, b, vars)))
    if not g:
        return _ZERO
    return _from_dict(_dunit_normal(_dquotient(_to_dict(mul(a, b), vars), g)), vars)


def content_primpart(e, x) -> tuple[Expr, Expr, Expr]:
    """Factor e as unit * content * primpart with respect to x.

    unit is +1 or -1 and follows the sign of the leading coefficient,
    content is the positive gcd of all the coefficients, and primpart
    is what remains: content one and positive leading coefficient.
    Zero splits as (+1, 0, 0).
    """
    x = _as_symbol(x)
    e = expand(lift(e))
    if _is_exact_zero(e):
        return _ONE, _ZERO, _ZERO
    coeffs = {k: add(*cs) for k, cs in _by_degree(_terms_of(e), x).items()}
    lead = coeffs[max(coeffs)]
    unit = _ONE if _dlexlead(_to_dict(lead, _ordered_vars(lead))) > 0 else lift(-1)
    cont = _ZERO
    for c in coeffs.values():
        cont = poly_gcd(cont, c)
        if cont == _ONE:
            break
    prim = exact_quotient(e, mul(unit, cont))
    return unit, cont, prim


# ------------------------------------------------------------- normal form


class _GenMap:
    """The walk's variables: the symbols, then stand-ins gcds cannot touch."""

    def __init__(self, vars: tuple[Symbol, ...]):
        self.vars = vars
        self.index: dict[Expr, Symbol] = {}
        # id of each tree _frac_cancel built -> (that tree, its dict, the
        # number of variables then), so _fraction reads it back with one
        # lookup
        self.built: dict[int, tuple[Expr, Poly, int]] = {}

    def sym_for(self, sub: Expr) -> Symbol:
        got = self.index.get(sub)
        if got is None:
            got = self.index[sub] = Symbol()
            self.vars += (got,)
        return got

    def restore(self, e: Expr) -> Expr:
        # newest first, one at a time: floats among the stand-ins then
        # meet in the order they always have, and round the same way
        for sub, s in reversed(self.index.items()):
            e = subs(e, {s: sub})
        return e


def _fraction(pair, gm: _GenMap, nv: int) -> tuple[Poly, Poly]:
    """pair, made while gm had nv variables, as numerator and denominator
    dicts over all of gm's variables; a number is not read."""
    a, b = pair
    if type(b) is dict:
        return _widen(a, len(gm.vars) - nv), _widen(b, len(gm.vars) - nv)
    one = {_MONO_ONE: 1}
    if type(a) is Numeric:
        p = _pscale(one, a.value.val)
    else:
        tree, p, w = gm.built.get(id(a), (None, None, 0))
        p = _widen(p, len(gm.vars) - w) if tree is a else _to_dict(a, gm.vars)
    return _pscale(p, _qdiv(1, b)), one


def _widen(p: Poly, more: int) -> Poly:
    """p over more variables, the generators made since, which come
    last: its fields move up past theirs."""
    if not more:
        return p
    s = _FIELD * more
    return {m << s: c for m, c in p.items()}


def _normal_pair(e: Expr, gm: _GenMap):
    """The pair of e, as the module docstring describes it.  A sum,
    product or power whose dicts would reach the exponent limit becomes
    a generator, as a subtree that is not rational does."""
    try:
        return _pair(e, gm)
    except _Overflow:
        return gm.sym_for(e), 1


def _pair(e: Expr, gm: _GenMap):
    t = type(e)
    if t is Numeric:
        if e.value.is_rational():
            fr = e.value.as_fraction()
            return lift(fr.numerator), fr.denominator
        return gm.sym_for(e), 1
    if t is Symbol:
        return e, 1
    if t is Add:
        # each pair with the number of variables gm had once it was made
        ps = [(_normal_pair(x, gm), len(gm.vars)) for x in _terms_of(e)]
        a, qs = zip(*(p for p, _ in ps))
        if dict not in map(type, qs) and reduce(_number_lcm, qs, 1) == 1:
            # number denominators that cancel: each term keeps its tree
            return add(*(x if q == 1 else mul(x, lift(_qdiv(1, q))) for x, q in zip(a, qs))), 1
        one = {_MONO_ONE: 1}
        n, d = {}, one
        for tn, td in (_fraction(p, gm, w) for p, w in ps):
            co, q = td, d
            # a denominator of 1 shares nothing with the other one
            if d != one and td != one:
                g = _dgcd(d, td, len(gm.vars))
                if g != one:
                    co, q = _dquotient(td, g), _dquotient(d, g)
            n = _padd(((_dmul(n, co), 1), (_dmul(tn, q), 1)))
            d = _dmul(d, co)
        return _frac_cancel(n, d, gm)
    if t is Mul:
        factors = [_numeric(e.coeff)] + [power(r, _numeric(k)) for r, k in e.pairs]
        ps = [(_normal_pair(x, gm), len(gm.vars)) for x in factors]
        a, qs = zip(*(p for p, _ in ps))
        if dict not in map(type, qs) and math.prod(qs) == 1:
            return reduce(mul, a), 1
        ns, ds = zip(*(_fraction(p, gm, w) for p, w in ps))
        return _frac_cancel(reduce(_dmul, ns), reduce(_dmul, ds), gm)
    if t is Power and type(e.exponent) is Numeric and e.exponent.value.is_rational():
        fr = e.exponent.value.as_fraction()
        k = fr.numerator
        if abs(k) >= _LIMIT:
            return gm.sym_for(e), 1
        a, b, d = None, 1, {_MONO_ONE: 1}
        n = _sum_dict(e.base, gm) if k < 0 and fr.denominator == 1 and type(e.base) is Add else None
        if n is None:
            if fr.denominator == 1:
                a, b = _normal_pair(e.base, gm)
            else:
                # map the q-th root of the base to a generator, so that
                # rational powers of one base cancel among themselves
                a, b = gm.sym_for(power(e.base, lift(Fraction(1, fr.denominator)))), 1
            if k > 0:
                return (_dpow(a, k), _dpow(b, k)) if type(b) is dict else (power(a, k), b**k)
            # a base's pair is a tree over 1 or dicts
            n, d = _fraction((a, b), gm, len(gm.vars))
        if not n:
            raise ZeroDivisionError("zero denominator after cancellation")
        c, p = _integerize(n)
        if type(a) is Numeric or type(b) is dict and p == {_MONO_ONE: 1}:
            # a number numerator: the reciprocal is a tree over a number
            return power(_from_dict(d, gm.vars), -k), c**-k
        return _pscale(_dpow(d, -k), _qdiv(1, c**-k)), _dpow(p, -k)
    if t in (Power, Constant, FunctionApp, PSeriesNode):
        return gm.sym_for(e), 1
    raise DomainError(f"cannot bring {t.__name__} into a rational form")


def _sum_dict(e: Add, gm: _GenMap) -> Poly | None:
    """Sum e read straight into its dict, its pair not built as a tree and
    read back; None, for the walk, when a part of e is not a polynomial
    (the walk makes it a generator) or e is a number (it stays one)."""
    try:
        p = _to_dict(e, gm.vars, expanding=False)
    except DomainError:
        return None
    return None if list(p) == [_MONO_ONE] else p


def _number_lcm(d, q):
    # the Add branch's loop on numbers: no gcd where one of them is 1
    return d * q if d == 1 or q == 1 else _qdiv(d * q, _qgcd(d, q))


def _frac_cancel(n: Poly, d: Poly, gm: _GenMap):
    """The pair of n/d: cancelled, the unit and rational content of the
    denominator moved up, and built as a tree when d cancels to 1."""
    if not d:
        raise ZeroDivisionError("zero denominator after cancellation")
    one = {_MONO_ONE: 1}
    g = _dgcd(n, d, len(gm.vars))
    if g != one:
        n, d = _dquotient(n, g), _dquotient(d, g)
    cd, d = _integerize(d)
    n = _pscale(n, _qdiv(1, cd))
    if d != one:
        return n, d
    tree = _from_dict(n, gm.vars)
    gm.built[id(tree)] = tree, n, len(gm.vars)
    return tree, 1


def normal(e) -> Expr:
    """Rational function normal form.

    Common polynomial factors between numerator and denominator are
    cancelled, integer denominators move into the numerator's content,
    and the denominator comes out unit normal.  Subexpressions that are
    not rational functions ride through on temporary generator symbols
    and come back intact.  A denominator that cancels to exact zero
    raises ZeroDivisionError.
    """
    return _rewrite(lift(e), _normal_rule)


def _normal_rule(x: Expr, walk):
    # series, relations, lists and matrices (the kinds ranked from
    # PSeries up) are normalized entry by entry
    if x.kind >= PSeriesNode.kind:
        return None
    gm = _GenMap(_ordered_vars(x))
    a, b = _normal_pair(x, gm)
    if b != 1:
        # a pair of dicts, or a tree over a number, built once
        a, b = (_from_dict(p, gm.vars) for p in _fraction((a, b), gm, len(gm.vars)))
        a = mul(a, power(b, -1))
    return gm.restore(a)
