"""Canonical expression trees.

Every constructor returns a canonical form: sums and products are
flattened pair sequences (an overall numeric coefficient plus (rest, key)
pairs) merged under a total structural order, numeric subterms fold
eagerly, and trivial powers collapse.  Equal expressions are therefore
structurally identical, `==` is structural equality, and expressions can
key dicts and sets directly.

Node kinds and their order rank:

    Numeric < Symbol < Constant < Power < Mul < Add < FunctionApp
            < PSeries < Relational < List < Matrix

Symbols order by creation serial, not by name.

A new node kind is registered in four places: its class (with a kind
rank), compare, _render, and the child helpers _children and _rewrite,
which give every tree walker (subs, expand, evalf, free_symbols,
normal) its children and its canonical rebuild.

expand multiplies out on sparse dict polynomials (_Polys) when a sum,
product or integer power has exact rational coefficients, integer
exponents, and only these bases: symbols, constants, function
applications (arguments expanded first) and sums under a negative
integer power.  Products never rewrite such bases, so multiplying
exponent dicts gives the same terms as multiplying trees, and the tree
is built once at the end, one canonical product per term.  Any other
subtree, with a float or complex coefficient, a numeric base such as
2^(1/2), or a fractional or symbolic exponent, takes the pairwise path
(_expand_pairwise), which multiplies canonical trees one cross term at
a time; its children still take the kernel.  The split is needed
because products are not associative on canonical forms with such
bases: sqrt(2)*sqrt(2)*sqrt(2) is 2^(3/2) but (sqrt(2)*sqrt(2))*sqrt(2)
is 2*2^(1/2), and floats round by the order they are added in, so only
the pairwise order prints what expand has always printed.

A kernel monomial is one int holding each atom's exponent in a signed
field of _FIELD bits, so a product of monomials is a sum of ints and a
power a multiple.  A product whose factors reach an exponent of _LIMIT
is refused (_Refused) before it could overflow a field, and that
subtree takes the pairwise path, which holds any exponent.  One
builder, _poly_tree, makes every tree from a kernel dict, expand's and
poly._from_dict's alike: each term in the pass that unpacks its
monomial, sorted by keys made from the atoms' ranks in compare's order,
with no compare per term, and the node's free symbols preset from the
atoms that occur, so free_symbols answers a fresh result at once.
poly._to_dict reads the kernel's dicts directly.
"""

from __future__ import annotations

import bisect
import functools
import itertools
import operator
from fractions import Fraction

from .errors import (
    DomainError,
    UnevaluatedDerivativeError,
    UnsupportedPatternError,
)
from .numbers import (
    _SMALL_INTS,
    DEFAULT_DPS,
    IUNIT,
    Number,
    _from_fraction,
    _int,
    _mp_call,
    check_precision,
    hash64,
    num,
    num_add,
    num_cmp,
    num_mul,
    num_pow,
    num_to_float,
)

__all__ = [
    "Expr",
    "Numeric",
    "Symbol",
    "Constant",
    "Add",
    "Mul",
    "Power",
    "FunctionApp",
    "PSeriesNode",
    "Relational",
    "ExprList",
    "MatrixNode",
    "lift",
    "add",
    "mul",
    "power",
    "sqrt",
    "apply_function",
    "compare",
    "subs",
    "diff",
    "expand",
    "evalf",
    "to_string",
    "free_symbols",
    "symbols",
    "Eq",
    "rel",
    "pseries",
    "Pi",
    "Euler",
    "Catalan",
    "I",
    "ZERO",
    "ONE",
]

_serials = itertools.count(1)

KIND_NUMERIC = 0
KIND_SYMBOL = 1
KIND_CONSTANT = 2
KIND_POWER = 3
KIND_MUL = 4
KIND_ADD = 5
KIND_FUNCTION = 6
KIND_PSERIES = 7
KIND_RELATIONAL = 8
KIND_LIST = 9
KIND_MATRIX = 10

_NUM_ZERO = num(0)
_NUM_ONE = num(1)


class Expr:
    """Base class.  Instances are immutable and hash-consable by value.

    Every node above the atoms has a _free slot, which caches its free
    symbols: None until free_symbols first asks, unless _poly_tree set it.
    """

    __slots__ = ("_hash",)
    kind = -1

    # -- operators ----------------------------------------------------

    def __add__(self, other):
        return add(self, other)

    __radd__ = __add__

    def __sub__(self, other):
        return add(self, mul(-1, other))

    def __rsub__(self, other):
        return add(other, mul(-1, self))

    def __mul__(self, other):
        return mul(self, other)

    __rmul__ = __mul__

    def __truediv__(self, other):
        return mul(self, power(other, -1))

    def __rtruediv__(self, other):
        return mul(other, power(self, -1))

    def __pow__(self, other):
        return power(self, other)

    def __rpow__(self, other):
        # Fraction.__pow__ floats its base first: Fraction(1, 2) ** x is
        # 0.5^x, where power(Fraction(1, 2), x) and lift(Fraction(1, 2))**x
        # keep (1/2)^x
        return power(other, self)

    def __neg__(self):
        return mul(-1, self)

    def __pos__(self):
        return self

    def __eq__(self, other):
        if isinstance(other, Expr):
            pass
        elif isinstance(other, (int, Fraction, float, Number)):
            other = lift(other)
        else:
            return NotImplemented
        return self is other or (self._hash == other._hash and compare(self, other) == 0)

    def __hash__(self):
        return self._hash

    def __str__(self):
        return to_string(self)

    def __repr__(self):
        return to_string(self)

    # -- conveniences ----------------------------------------------------

    def subs(self, bindings):
        return subs(self, bindings)

    def diff(self, x, n: int = 1):
        return diff(self, x, n)

    def expand(self):
        return expand(self)

    def evalf(self, prec: int = DEFAULT_DPS):
        return evalf(self, prec)

    def series(self, at, order: int):
        from .series import series_of

        return series_of(self, at, order)

    def normal(self):
        from .poly import normal

        return normal(self)

    def collect(self, x):
        from .poly import collect

        return collect(self, x)

    def degree(self, x):
        from .poly import degree

        return degree(self, x)

    def ldegree(self, x):
        from .poly import ldegree

        return ldegree(self, x)

    def coeff(self, x, k: int):
        from .poly import coeff

        return coeff(self, x, k)

    def is_zero(self) -> bool:
        return type(self) is Numeric and self.value.is_zero()

    def is_one(self) -> bool:
        return type(self) is Numeric and self.value.is_one()


class Numeric(Expr):
    __slots__ = ("value",)
    kind = KIND_NUMERIC

    def __init__(self, value: Number):
        self.value = value
        self._hash = hash64(KIND_NUMERIC, value._hash)


class Symbol(Expr):
    """A named indeterminate.  Identity is the creation serial."""

    __slots__ = ("serial", "name")
    kind = KIND_SYMBOL

    def __init__(self, name: str | None = None):
        self.serial = next(_serials)
        self.name = name if name is not None else f"symbol{self.serial}"
        self._hash = hash64(KIND_SYMBOL, self.serial)


class Constant(Expr):
    """A named constant: either a digit generator (Pi) or a fixed Number."""

    __slots__ = ("serial", "name", "fixed", "digits")
    kind = KIND_CONSTANT

    def __init__(self, name: str, fixed: Number | None = None, digits=None):
        if (fixed is None) == (digits is None):
            raise DomainError("constant needs exactly one of fixed value or digit generator")
        self.serial = next(_serials)
        self.name = name
        self.fixed = fixed
        self.digits = digits
        self._hash = hash64(KIND_CONSTANT, self.serial)


class _Pairs(Expr):
    """An overall coefficient and (rest, key) pairs: Add and Mul."""

    __slots__ = ("coeff", "pairs", "_free")

    def __init__(self, coeff: Number, pairs, hashes=None):
        self.coeff = coeff
        self.pairs = pairs
        h = [self.kind, coeff._hash]
        if hashes is None:
            for r, k in pairs:
                h += (r._hash, k._hash)
        else:  # each pair's (rest hash, key hash), from the caller
            for rk in hashes:
                h += rk
        self._hash = hash64(*h)
        self._free = None


class Add(_Pairs):
    """overall + sum of key*rest.  Construct via add()."""

    __slots__ = ()
    kind = KIND_ADD


class Mul(_Pairs):
    """overall * product of rest^key.  Construct via mul()."""

    __slots__ = ()
    kind = KIND_MUL


class Power(Expr):
    __slots__ = ("base", "exponent", "_free")
    kind = KIND_POWER

    def __init__(self, base: Expr, exponent: Expr):
        self.base = base
        self.exponent = exponent
        self._hash = hash64(KIND_POWER, base._hash, exponent._hash)
        self._free = None


class FunctionApp(Expr):
    """A deferred function application; exists only when eval declined."""

    __slots__ = ("fdef", "args", "_free")
    kind = KIND_FUNCTION

    def __init__(self, fdef, args):
        self.fdef = fdef
        self.args = args
        self._hash = hash64(KIND_FUNCTION, fdef.serial, *(a._hash for a in args))
        self._free = None


class PSeriesNode(Expr):
    """Truncated power/Laurent series in one variable around a point.

    terms: ((coeff, exponent), ...) with strictly increasing integer
    exponents and nonzero coefficients free of the variable; order is the
    truncation exponent N (the O((x-point)^N) term) or None for a series
    that is exact (no order term).
    """

    __slots__ = ("var", "point", "terms", "order", "_free")
    kind = KIND_PSERIES

    def __init__(self, var: Symbol, point: Expr, terms, order: int | None):
        self.var = var
        self.point = point
        self.terms = terms
        self.order = order
        self._hash = hash64(
            KIND_PSERIES,
            var._hash,
            point._hash,
            -1 if order is None else order,
            *(v for c, e in terms for v in (c._hash, e)),
        )
        self._free = None


class Relational(Expr):
    __slots__ = ("lhs", "rhs", "op", "_free")
    kind = KIND_RELATIONAL

    OPS = ("==", "!=", "<", "<=", ">", ">=")

    def __init__(self, lhs: Expr, rhs: Expr, op: str = "=="):
        if op not in self.OPS:
            raise DomainError(f"unknown relational operator {op!r}")
        self.lhs = lhs
        self.rhs = rhs
        self.op = op
        self._hash = hash64(KIND_RELATIONAL, self.OPS.index(op), lhs._hash, rhs._hash)
        self._free = None


class ExprList(Expr):
    __slots__ = ("items", "_free")
    kind = KIND_LIST

    def __init__(self, items):
        self.items = tuple(lift(a) for a in items)
        self._hash = hash64(KIND_LIST, *(a._hash for a in self.items))
        self._free = None

    def __iter__(self):
        return iter(self.items)

    def __len__(self):
        return len(self.items)


class MatrixNode(Expr):
    """Dense rows x cols matrix of expressions."""

    __slots__ = ("rows", "cols", "entries", "_free")
    kind = KIND_MATRIX

    def __init__(self, rows: int, cols: int, entries):
        entries = tuple(lift(a) for a in entries)
        if rows < 1 or cols < 1 or len(entries) != rows * cols:
            raise DomainError("matrix shape does not match entry count")
        self.rows = rows
        self.cols = cols
        self.entries = entries
        self._hash = hash64(KIND_MATRIX, rows, cols, *(a._hash for a in entries))
        self._free = None

    def __getitem__(self, rc):
        r, c = rc
        if not (0 <= r < self.rows and 0 <= c < self.cols):
            raise DomainError("matrix index out of range")
        return self.entries[r * self.cols + c]

    def row_list(self):
        n = self.cols
        return [list(self.entries[i * n : (i + 1) * n]) for i in range(self.rows)]


# ---------------------------------------------------------------- lifting


def lift(x) -> Expr:
    if isinstance(x, Expr):
        return x
    return _numeric(num(x))


def _numeric(v: Number) -> Numeric:
    """The Numeric of v, shared for a small int (by the Number's id)."""
    return _SHARED.get(id(v)) or Numeric(v)


_SHARED = {id(v): Numeric(v) for v in _SMALL_INTS}
ZERO = _numeric(_NUM_ZERO)
ONE = _numeric(_NUM_ONE)


# ---------------------------------------------------------------- ordering


def compare(a: Expr, b: Expr) -> int:
    """Total structural order; 0 exactly for structurally equal trees."""
    if a is b:
        return 0
    if a.kind != b.kind:
        return -1 if a.kind < b.kind else 1
    t = type(a)
    if t is Numeric:
        return num_cmp(a.value, b.value)
    if t is Symbol or t is Constant:
        return (a.serial > b.serial) - (a.serial < b.serial)
    if t is Power:
        return compare(a.base, b.base) or compare(a.exponent, b.exponent)
    if t is Add or t is Mul:
        if len(a.pairs) != len(b.pairs):
            return -1 if len(a.pairs) < len(b.pairs) else 1
        for (ra, ka), (rb, kb) in zip(a.pairs, b.pairs):
            c = compare(ra, rb) or num_cmp(ka, kb)
            if c:
                return c
        return num_cmp(a.coeff, b.coeff)
    if t is FunctionApp:
        if a.fdef.serial != b.fdef.serial:
            return -1 if a.fdef.serial < b.fdef.serial else 1
        return _cmp_seq(a.args, b.args)
    if t is PSeriesNode:
        c = compare(a.var, b.var) or compare(a.point, b.point)
        if c:
            return c
        oa = (1, 0) if a.order is None else (0, a.order)
        ob = (1, 0) if b.order is None else (0, b.order)
        if oa != ob:
            return -1 if oa < ob else 1
        if len(a.terms) != len(b.terms):
            return -1 if len(a.terms) < len(b.terms) else 1
        for (ca, ea), (cb, eb) in zip(a.terms, b.terms):
            if ea != eb:
                return -1 if ea < eb else 1
            c = compare(ca, cb)
            if c:
                return c
        return 0
    if t is Relational:
        ia, ib = Relational.OPS.index(a.op), Relational.OPS.index(b.op)
        if ia != ib:
            return -1 if ia < ib else 1
        return compare(a.lhs, b.lhs) or compare(a.rhs, b.rhs)
    if t is ExprList:
        return _cmp_seq(a.items, b.items)
    if t is MatrixNode:
        if (a.rows, a.cols) != (b.rows, b.cols):
            return -1 if (a.rows, a.cols) < (b.rows, b.cols) else 1
        return _cmp_seq(a.entries, b.entries)
    raise DomainError(f"cannot order {t.__name__}")


def _cmp_seq(xs, ys) -> int:
    if len(xs) != len(ys):
        return -1 if len(xs) < len(ys) else 1
    for x, y in zip(xs, ys):
        c = compare(x, y)
        if c:
            return c
    return 0


_PAIR_ORDER = functools.cmp_to_key(lambda p, q: compare(p[0], q[0]))


def _sort_pairs(pairs):
    if len(pairs) > 1:
        pairs.sort(key=_PAIR_ORDER)
    return pairs


# --------------------------------------------------------- sum construction


def add(*terms) -> Expr:
    return _add_terms([lift(t) for t in terms])


def _add_terms(terms, base=None) -> Expr:
    """The canonical sum of terms: trees, or (rest, key) pairs as
    _split_term makes them.  base is a canonical Add whose rests, where
    they survive, keep their order: by default the largest Add term."""
    overall = _NUM_ZERO
    bucket: dict[Expr, Number] = {}
    for t in terms:
        tt = type(t)
        if tt is Numeric:
            overall = num_add(overall, t.value)
        elif tt is Add:
            overall = num_add(overall, t.coeff)
            for r, k in t.pairs:
                _bucket_merge(bucket, r, k)
            if base is None or len(t.pairs) > len(base.pairs):
                base = t
        else:  # a (rest, key) pair, as _split_term makes it, or a term
            r, k = t if tt is tuple else _split_term(t)
            prev = bucket.get(r)
            bucket[r] = k if prev is None else num_add(prev, k)
    run = None
    # base's n rests leave at least len(bucket) - n new ones; only when
    # so few could be cheaper to merge are they taken out as a run
    if base is not None and (len(bucket) - (n := len(base.pairs))) * n.bit_length() < n:
        pop = bucket.pop
        run = [(r, k) for r, _ in base.pairs if (k := pop(r, None)) is not None and not k.is_zero()]
    return _sum(overall, [(r, k) for r, k in bucket.items() if not k.is_zero()], run)


def _sum(overall: Number, pairs, run=None) -> Expr:
    """The canonical form of overall + sum(k*r) for (r, k) pairs with
    distinct rests r, as _split_term makes them, and nonzero k, and the
    pairs of run, already in order.  k pairs go into a run of n by
    binary search when that takes fewer compares than a sort,
    k*ceil(log2(n+1)) < n."""
    if run is None:
        _sort_pairs(pairs)
    elif len(pairs) * len(run).bit_length() < len(run):
        lo = 0
        for p in _sort_pairs(pairs):
            lo = bisect.bisect_left(run, _PAIR_ORDER(p), lo, key=_PAIR_ORDER)
            run.insert(lo, p)
            lo += 1
        pairs = run
    else:
        pairs = _sort_pairs(run + pairs)
    if not pairs:
        return _numeric(overall)
    if overall.is_zero() and len(pairs) == 1:
        r, k = pairs[0]
        return r if k.is_one() else _scaled(r, k)
    return Add(overall, tuple(pairs))


def _bucket_merge(bucket, r, k):
    prev = bucket.get(r)
    bucket[r] = k if prev is None else num_add(prev, k)


def _split_term(t):
    """Write a non-numeric, non-Add term as key * rest with numeric key."""
    if type(t) is Mul and not t.coeff.is_one():
        if len(t.pairs) == 1:
            r, k = t.pairs[0]
            rest = r if k.is_one() else Power(r, _numeric(k))
        else:
            rest = Mul(_NUM_ONE, t.pairs)
        return rest, t.coeff
    return t, _NUM_ONE


def _scaled(rest: Expr, k: Number) -> Expr:
    """k * rest for numeric k not 0 or 1 and canonical non-Add rest."""
    if type(rest) is Mul:  # rest has coefficient 1 by the pair invariant
        return mul(_numeric(k), rest)
    return Mul(k, (_split_factor(rest),))


# ------------------------------------------------------ product construction


def mul(*factors) -> Expr:
    return _mul_factors([lift(f) for f in factors])


def _mul_factors(factors) -> Expr:
    if all(type(f) is Numeric for f in factors):
        return _numeric(functools.reduce(num_mul, [f.value for f in factors], _NUM_ONE))
    overall = _NUM_ONE
    bucket: dict[Expr, Number] = {}

    def absorb(f):
        nonlocal overall
        tf = type(f)
        if tf is Numeric:
            overall = num_mul(overall, f.value)
        elif tf is Mul:
            overall = num_mul(overall, f.coeff)
            for b, k in f.pairs:
                _bucket_merge(bucket, b, k)
        else:
            b, k = _split_factor(f)
            _bucket_merge(bucket, b, k)

    for f in factors:
        absorb(f)
    if overall.is_zero() and overall.is_exact():
        return ZERO
    # Under an integer exponent power() rewrites only a Mul base, or a
    # Power base when the exponent is not 1; any other (base, exponent)
    # comes back as Power(base, exponent), which splits to the same pair.
    # At exponent 1 a Power base comes back as itself, which _split_factor
    # may split further.  Merged exponents may make new such entries, so
    # repeat until none.
    while True:
        pending = [
            (b, k)
            for b, k in bucket.items()
            if k.is_integer()
            and (
                type(b) is Mul
                or (type(b) is Power and not (k.is_one() and _split_factor(b)[0] is b))
            )
        ]
        if not pending:
            break
        for b, _ in pending:
            del bucket[b]
        for b, k in pending:
            absorb(b if k.is_one() else power(b, _numeric(k)))
    pairs = [(b, k) for b, k in bucket.items() if not k.is_zero()]
    if overall.is_zero():  # float zero: contaminate but collapse
        return Numeric(overall)
    return _product(overall, _sort_pairs(pairs))


def _product(overall: Number, pairs) -> Expr:
    """The canonical form of overall * prod(b**k) for nonzero overall and
    settled (b, k) pairs with distinct bases and nonzero k, in order."""
    if not pairs:
        return _numeric(overall)
    if len(pairs) == 1:
        b, k = pairs[0]
        if overall.is_one():
            return b if k.is_one() else Power(b, _numeric(k))
        if type(b) is Add and k.is_one():
            # distribute a numeric coefficient over a lone sum
            return Add(
                num_mul(overall, b.coeff),
                tuple((r, num_mul(overall, kk)) for r, kk in b.pairs),
            )
    return Mul(overall, tuple(pairs))


def _split_factor(f):
    """Write a non-numeric, non-Mul factor as base ** key with numeric key."""
    if (
        type(f) is Power
        and type(f.exponent) is Numeric
        and type(f.base) is not Numeric
    ):
        return f.base, f.exponent.value
    return f, _NUM_ONE


# -------------------------------------------------------- power construction


def power(b, e) -> Expr:
    b, e = lift(b), lift(e)
    if type(e) is Numeric:
        ev = e.value
        if ev.is_zero() and ev.is_exact():
            return ONE  # includes 0^0 -> 1
        if ev.is_one():
            return b
        if type(b) is Numeric:
            return _numeric_power(b, e)
        if ev.is_integer():
            if type(b) is Power:
                return power(b.base, mul(b.exponent, e))
            if type(b) is Mul:
                n = e.value
                return _mul_factors(
                    [_numeric(num_pow(b.coeff, n))]
                    + [power(r, _numeric(num_mul(k, n))) for r, k in b.pairs]
                )
    return Power(b, e)


def _numeric_power(b: Numeric, e: Numeric) -> Expr:
    bv, ev = b.value, e.value
    if bv.is_exact() and ev.is_exact() and not ev.is_integer():
        # exact base, non-integer exact exponent: evaluate only when the
        # result is again rational, otherwise stay symbolic (sqrt 2)
        if bv.is_real() and ev.kind == "rat":
            fr = bv.as_fraction()
            if fr == 0:
                if ev.val > 0:
                    return ZERO
                raise ZeroDivisionError("zero to a negative power")
            if fr > 0:
                root = _exact_rational_root(fr, ev.val.denominator)
                if root is not None:
                    # through num_pow, which refuses a power too large to build
                    return _numeric(num_pow(num(root), num(ev.val.numerator)))
        return Power(b, e)
    return _numeric(num_pow(bv, ev))


def _exact_rational_root(fr: Fraction, q: int) -> Fraction | None:
    """The q-th root of fr when it is rational, else None."""
    rp = _iroot_exact(fr.numerator, q)
    if rp is None:
        return None
    rq = _iroot_exact(fr.denominator, q)
    if rq is None:
        return None
    return Fraction(rp, rq)


def _iroot_exact(n: int, b: int) -> int | None:
    if n in (0, 1):
        return n
    if n.bit_length() <= b:
        return None  # 1 < n < 2^b: the root lies strictly between 1 and 2
    x = 1 << ((n.bit_length() + b - 1) // b)
    while True:
        nx = ((b - 1) * x + n // x ** (b - 1)) // b
        if nx >= x:
            break
        x = nx
    return x if x**b == n else None


def sqrt(x) -> Expr:
    return power(x, Numeric(num(Fraction(1, 2))))


# ----------------------------------------------------- function application


def apply_function(fdef, args) -> Expr:
    """Build f(args) canonically: try the eval hook, then numeric args."""
    args = tuple(lift(a) for a in args)
    if len(args) != fdef.arity:
        raise DomainError(f"{fdef.name} expects {fdef.arity} argument(s), got {len(args)}")
    if fdef.eval_hook is not None:
        result = fdef.eval_hook(args)
        if result is not None:
            return lift(result)
    if (
        fdef.evalf_hook is not None
        and all(type(a) is Numeric for a in args)
        and any(not a.value.is_exact() for a in args)
    ):
        precs = []
        for a in args:
            v = a.value
            if v.kind == "float":
                precs.append(v.prec)
            elif v.kind == "cplx":
                precs.extend(p.prec for p in (v.re, v.im) if p.kind == "float")
        p = min(precs)
        return Numeric(fdef.evalf_hook([a.value for a in args], p))
    return FunctionApp(fdef, args)


# ------------------------------------------------------------ tree walking


def _children(x: Expr):
    """The subexpressions of x, in a fixed order per kind; () for atoms."""
    t = type(x)
    if t is Numeric or t is Symbol or t is Constant:
        return ()
    if t is Add or t is Mul:
        return [r for r, _ in x.pairs]
    if t is Power:
        return (x.base, x.exponent)
    if t is FunctionApp:
        return x.args
    if t is PSeriesNode:
        return (x.var, x.point, *(c for c, _ in x.terms))
    if t is Relational:
        return (x.lhs, x.rhs)
    if t is ExprList:
        return x.items
    if t is MatrixNode:
        return x.entries
    raise DomainError(f"cannot walk {t.__name__}")


def _rewrite(e: Expr, rule, kept=None) -> Expr:
    """Memoized bottom-up rewrite of e.

    rule(x, walk) returns the image of x, or None to rebuild x canonically
    from walk applied to its children; a node whose children all come
    back as themselves, an atom among them, stays the same object, and a
    rebuilt sum keeps its unchanged terms in order.  A child c with
    kept(c) true is known to come back as itself and is not walked.  walk
    may also be given nodes built on the fly, so every walked node stays
    referenced until the rewrite ends: the memo is keyed by id.
    """
    cache: dict[int, Expr] = {}
    keep = []

    def walk(x: Expr) -> Expr:
        got = cache.get(id(x))
        if got is not None:
            return got
        out = rule(x, walk)
        if out is None:
            old = _children(x)
            kids = [c if kept and kept(c) else walk(c) for c in old]
            t = type(x)
            if all(map(operator.is_, kids, old)):
                out = x
            elif t is Add:
                # an unchanged term joins as its pair
                out = _add_terms(
                    [_numeric(x.coeff)]
                    + [(r, k) if c is r else _scaled_expr(c, k) for c, (r, k) in zip(kids, x.pairs)],
                    x,
                )
            elif t is Mul:
                out = _mul_factors(
                    [_numeric(x.coeff)]
                    + [power(c, _numeric(k)) for c, (_, k) in zip(kids, x.pairs)]
                )
            elif t is Power:
                out = power(*kids)
            elif t is FunctionApp:
                out = apply_function(x.fdef, kids)
            elif t is PSeriesNode:
                terms = [(c, k) for c, (_, k) in zip(kids[2:], x.terms)]
                out = pseries(kids[0], kids[1], terms, x.order)
            elif t is Relational:
                out = Relational(kids[0], kids[1], x.op)
            elif t is ExprList:
                out = ExprList(kids)
            elif t is MatrixNode:
                out = MatrixNode(x.rows, x.cols, kids)
        cache[id(x)] = out
        keep.append(x)
        return out

    return walk(e)


# ------------------------------------------------------------- substitution


def _normalize_bindings(bindings) -> dict[int, tuple[Symbol, Expr]]:
    if isinstance(bindings, Relational):
        bindings = [bindings]
    elif isinstance(bindings, dict):
        bindings = list(bindings.items())
    else:
        try:
            bindings = list(bindings)
        except TypeError:
            raise UnsupportedPatternError(
                "substitutions come as a relation, a list of them, or a dict"
            ) from None
    table: dict[int, tuple[Symbol, Expr]] = {}
    for item in bindings:
        if isinstance(item, Relational):
            if item.op != "==":
                raise UnsupportedPatternError("substitution wants '==' relations")
            lhs, rhs = item.lhs, item.rhs
        else:
            try:
                lhs, rhs = item
            except (TypeError, ValueError):
                raise UnsupportedPatternError(
                    "a substitution is a relation 'symbol == value' or a (symbol, value) pair"
                ) from None
            lhs = lift(lhs)
        if type(lhs) is not Symbol:
            raise UnsupportedPatternError(
                f"substitution left-hand side must be a symbol, got {to_string(lhs)}"
            )
        table[lhs.serial] = (lhs, lift(rhs))
    return table


def subs(e: Expr, bindings) -> Expr:
    """Simultaneous substitution of symbols; rebuilds canonically."""
    table = _normalize_bindings(bindings)
    if not table:
        return e

    def rule(x: Expr, walk):
        t = type(x)
        if t is Symbol:
            pair = table.get(x.serial)
            return None if pair is None else pair[1]
        if t is PSeriesNode and x.var.serial in table:
            raise UnsupportedPatternError("cannot substitute a series variable")
        return None

    def kept(x: Expr) -> bool:
        # a product, or numeric power, of symbols and constants none bound
        for b, _ in x.pairs if type(x) is Mul else (_split_factor(x),):
            if (type(b) is not Symbol and type(b) is not Constant) or b.serial in table:
                return False
        return True

    return _rewrite(e, rule, kept)


def _scaled_expr(r: Expr, k: Number) -> Expr:
    return r if k.is_one() else mul(_numeric(k), r)


# ----------------------------------------------------------- differentiation


def diff(e: Expr, x, n: int = 1) -> Expr:
    if not isinstance(x, Symbol):
        raise DomainError("diff needs a symbol to differentiate by")
    if not isinstance(n, int) or n < 0:
        raise DomainError("diff order must be a nonnegative integer")
    for _ in range(n):
        e = _diff1(e, x)
    return e


def _diff1(e: Expr, x: Symbol) -> Expr:
    t = type(e)
    if t is Numeric or t is Constant:
        return ZERO
    if t is Symbol:
        return ONE if e.serial == x.serial else ZERO
    if t is Add:
        return _add_terms([_scaled_expr(_diff1(r, x), k) for r, k in e.pairs])
    if t is Mul:
        total = []
        pairs = e.pairs
        for i, (r, k) in enumerate(pairs):
            dr = _diff1(r, x)
            if dr.is_zero():
                continue
            rest = [power(rr, _numeric(kk)) for j, (rr, kk) in enumerate(pairs) if j != i]
            total.append(
                _mul_factors(
                    [_numeric(e.coeff), _numeric(k), power(r, _numeric(num_add(k, num(-1)))), dr]
                    + rest
                )
            )
        return _add_terms(total)
    if t is Power:
        b, ex = e.base, e.exponent
        db = _diff1(b, x)
        if type(ex) is Numeric:
            return _mul_factors([ex, power(b, _numeric(num_add(ex.value, num(-1)))), db])
        de = _diff1(ex, x)
        from .functions import log

        pieces = []
        if not de.is_zero():
            pieces.append(mul(de, log(b)))
        if not db.is_zero():
            pieces.append(mul(ex, db, power(b, -1)))
        return mul(e, add(*pieces)) if pieces else ZERO
    if t is FunctionApp:
        hook = e.fdef.diff_hook
        parts = []
        for i, a in enumerate(e.args):
            da = _diff1(a, x)
            if da.is_zero():
                continue
            # only a dependence on x needs the rule; constants have
            # derivative zero whether or not one is registered
            if hook is None:
                raise UnevaluatedDerivativeError(
                    f"function {e.fdef.name} has no derivative rule"
                )
            parts.append(mul(hook(e.args, i), da))
        return add(*parts)
    if t is PSeriesNode:
        if e.var.serial == x.serial:
            terms = [(mul(c, k), k - 1) for c, k in e.terms if k != 0]
            order = None if e.order is None else e.order - 1
            return pseries(e.var, e.point, terms, order)
        terms = [(_diff1(c, x), k) for c, k in e.terms]
        return pseries(e.var, e.point, terms, e.order)
    raise DomainError(f"cannot differentiate {t.__name__}")


# ----------------------------------------------------------------- expansion


def expand(e: Expr) -> Expr:
    """Distribute products and positive integer powers over sums.

    A sum, product or integer power whose shape _Polys covers is
    multiplied out as a dict polynomial and built back once; any other
    takes the pairwise path, whose children still use the kernel.
    """
    polys = _Polys(None)  # walks with _rewrite's walk, known once it calls

    def rule(x: Expr, walk):
        if x.kind == KIND_ADD or x.kind == KIND_MUL or x.kind == KIND_POWER:
            polys.walk = walk
            p = polys.poly(x)
            if p is not None:
                return polys.tree(p)
        return _expand_pairwise(x, walk)

    return _rewrite(e, rule)


class _Polys:
    """Sparse dict polynomials over the atoms met in one expansion.

    A polynomial maps a monomial to a nonzero int or Fraction
    coefficient; {} is zero.  A monomial packs its exponents into one
    int, sum(e_i << _FIELD*i) over atom indices i, each e_i a signed
    field of _FIELD bits (_unpack reads the nonzero ones back), so the
    product of two monomials is their sum, a k-th power is k times the
    monomial, and 1 is _MONO_ONE.  The atoms are the bases the module
    docstring lists; a sum is one only under a negative exponent, and
    walk(x) gives the expansion of a function application or of such a
    sum.  poly() and factors() answer None for every other shape, and
    for an exponent that reaches _LIMIT.

    index, given, maps the first atoms to indices 0, 1, ... in order;
    the rest come in order of first sight.  poly._to_dict gives its
    variables last one first, so variable j of nv sits in field nv-1-j.
    That is poly's variable order: with every exponent nonnegative,
    comparing two monomials as ints compares their exponent vectors
    lexicographically.

    memo maps id(x) to (x, polynomial) for every tree x read or built
    here, and built maps id(p) to (p, tree) for every polynomial p a
    tree was built from, so a tree built here reads back, and a
    polynomial builds again, with one lookup.  rank gives each atom its
    place in compare's order, from which _poly_tree sorts the terms.
    """

    def __init__(self, walk, index=None):
        self.walk = walk
        self.index: dict[Expr, int] = dict(index or ())
        self.atoms: list[Expr] = list(self.index)
        self.memo: dict[int, tuple] = {}
        self.built: dict[int, tuple] = {}
        self.rank: list[int] = []

    def index_of(self, a: Expr) -> int:
        """The index of atom a, given on first sight."""
        i = self.index.get(a)
        if i is None:
            i = self.index[a] = len(self.atoms)
            self.atoms.append(a)
        return i

    def atom(self, a: Expr) -> dict:
        return {1 << _FIELD * self.index_of(a): 1}

    def poly(self, x: Expr) -> dict | None:
        """The expansion of x as a polynomial, None outside the shape."""
        t = type(x)
        if t is Symbol or t is Constant:
            return self.atom(x)
        got = self.memo.get(id(x))
        if got is not None:
            return got[1]
        p = None
        if t is Add:
            p = self._sum(x)
        elif (mc := self._monomial(x)) is not None:
            p = {mc[0]: mc[1]}
        elif t is Mul or t is Power:
            fs = self.factors(x)
            if fs is not None:
                try:
                    p = _pproduct(fs)
                except _Refused:
                    pass
        elif t is Numeric:
            if x.value.is_rational():
                p = {_MONO_ONE: x.value.val} if not x.value.is_zero() else {}
        elif t is FunctionApp:
            y = self.walk(x)
            if type(y) is FunctionApp:
                p = self.atom(y)
        self.memo[id(x)] = (x, p)
        return p

    def _monomial(self, x: Expr) -> tuple | None:
        """A symbol or constant, or a rational multiple of a product of
        their powers with integer exponents below _LIMIT, as its one
        (monomial, coefficient) term, else None."""
        t = type(x)
        if t is Mul:
            if not x.coeff.is_rational():
                return None
            c, pairs = x.coeff.val, x.pairs
        elif t is Power and type(x.exponent) is Numeric:
            c, pairs = 1, ((x.base, x.exponent.value),)
        elif t is Symbol or t is Constant:
            return 1 << _FIELD * self.index_of(x), 1
        else:
            return None
        m = _MONO_ONE
        index = self.index
        for r, k in pairs:
            if (type(r) is not Symbol and type(r) is not Constant) or not k.is_integer():
                return None
            e = k.val
            if not -_LIMIT <= e < _LIMIT:
                return None
            i = index.get(r)
            m += e << _FIELD * (self.index_of(r) if i is None else i)
        return m, c

    def _sum(self, x: Add) -> dict | None:
        """The terms of x added up in order, as _padd would; a monomial
        term is read straight into the sum, without a dict of its own."""
        if not x.coeff.is_rational():
            return None
        out = {} if x.coeff.is_zero() else {_MONO_ONE: x.coeff.val}
        for r, k in x.pairs:
            if not k.is_rational():
                return None
            q, mc = k.val, self._monomial(r)
            if mc is not None:
                terms = ((mc[0], mc[1] * q),)
            else:
                p = self.poly(r)
                if p is None:
                    return None
                terms = p.items() if q == 1 else [(m, c * q) for m, c in p.items()]
            for m, c in terms:
                c += out.get(m, 0)
                if c:
                    out[m] = c
                else:
                    del out[m]
        return out

    def factors(self, x: Expr) -> list | None:
        """x as (polynomial, integer exponent) factors whose product is
        its expansion, none of them multiplied out yet; None outside
        the shape.  A factor under a negative exponent has one term."""
        t = type(x)
        if t is Power:
            k = x.exponent
            if type(k) is not Numeric or not k.value.is_integer():
                return None
            out, pairs = [], ((x.base, k.value),)
        elif t is Mul:
            if not x.coeff.is_rational():
                return None
            out, pairs = [({_MONO_ONE: x.coeff.val}, 1)], x.pairs
        else:
            p = self.poly(x)
            return None if p is None else [(p, 1)]
        for r, k in pairs:
            if not k.is_integer():
                return None
            k = k.val
            if type(r) is Add and k < 0:
                # a sum stays a base under a negative power, expanded
                b = self.walk(r)
                if type(b) is Add:
                    p = self.atom(b)
                else:
                    p = self.poly(b)
                    # a collapsed base inverts as one term, without a sum
                    # rising to a positive power
                    if p is None or len(p) != 1:
                        return None
                    (m,) = p
                    if any(type(self.atoms[i]) is Add for i, _ in _unpack(m)):
                        return None
            else:
                p = self.poly(r)
                if p is None or (k < 0 and len(p) != 1):
                    return None
            out.append((p, k))
        return out

    def tree(self, p: dict) -> Expr:
        """The canonical sum of p's terms, built by _poly_tree once per
        polynomial object."""
        got = self.built.get(id(p))
        if got is not None:
            return got[1]
        atoms = self.atoms
        if len(self.rank) != len(atoms):
            rank = {id(a): r for r, a in enumerate(sorted(atoms, key=functools.cmp_to_key(compare)))}
            self.rank = [rank[id(a)] for a in atoms]
        t = _poly_tree(p, atoms, self.rank)
        self.built[id(p)] = (p, t)
        self.memo[id(t)] = (t, p)
        return t


def _poly_tree(p: dict, atoms, rank) -> Expr:
    """The canonical sum of the kernel polynomial p over atoms, rank[i]
    the place of atoms[i] in compare's order.  Each term is built as
    _split_term would split it, in the pass that reads its monomial's
    fields as _unpack does, and each (atom, exponent) factor once per
    tree, as the record rank, (rank, e), (atom, Number e) pair and the
    pair's hash ints.  The terms sort by keys compare agrees with:
    (kind, rank) for a lone atom, (KIND_POWER, rank, e) for its power
    and (KIND_MUL, n, (rank_0, e_0), ...) for a product of n factors.
    The node's free symbols are set from the atoms that occur."""
    made = [{} for _ in atoms]  # per atom index: exponent -> its factor record
    overall = _NUM_ZERO
    keyed = []
    for m, c in p.items():
        c = _int(c) if type(c) is int else _from_fraction(c)
        if not m:
            overall = c
            continue
        fs = []
        i = 0
        while m:
            if not m & _MASK:  # skip to the lowest nonzero field
                s = ((m & -m).bit_length() - 1) // _FIELD
                m >>= _FIELD * s
                i += s
            e = ((m + _HALF) & _MASK) - _HALF
            f = made[i].get(e)
            if f is None:
                a, k = atoms[i], _int(e)
                f = made[i][e] = rank[i], (rank[i], e), (a, k), (a._hash, k._hash)
            fs.append(f)
            m = (m - e) >> _FIELD
            i += 1
        if len(fs) > 1:
            fs.sort()
            _, ks, pairs, hs = zip(*fs)
            keyed.append(((KIND_MUL, len(fs), *ks), Mul(_NUM_ONE, pairs, hs), c))
        else:
            ((r, (_, e), (b, k), _),) = fs
            if e == 1:
                keyed.append(((b.kind, r), b, c))
            else:
                keyed.append(((KIND_POWER, r, e), Power(b, _numeric(k)), c))
    if not keyed:
        return _numeric(overall)
    keyed.sort(key=operator.itemgetter(0))
    if overall.is_zero() and len(keyed) == 1:
        _, t, c = keyed[0]
        if not c.is_one():
            t = _scaled(t, c)
    else:
        t = Add(overall, tuple([(r, c) for _, r, c in keyed]))
    if type(t) is not Symbol and type(t) is not Constant:
        t._free = _NO_SYMBOLS.union(*[free_symbols(a) for a, d in zip(atoms, made) if d])
    return t


# Packed monomials.  Field i of a monomial holds the exponent of atom i
# as a signed _FIELD-bit number, in [-2^(_FIELD-1), 2^(_FIELD-1)).  A
# factor of a product keeps every exponent in [-_LIMIT, _LIMIT), so the
# sum of two stays inside the field; a product or power that would
# leave it raises _Refused before any monomial is formed.
_FIELD = 32
_HALF = 1 << (_FIELD - 1)
_MASK = (1 << _FIELD) - 1
_LIMIT = 1 << (_FIELD - 2)
_MONO_ONE = 0


class _Refused(Exception):
    """A kernel refused its input: an exponent at or beyond _LIMIT here,
    or a coefficient outside the series kernel's shape."""


def _unpack(m: int) -> list:
    """The nonzero (atom index, exponent) fields of a packed monomial,
    by index."""
    out = []
    i = 0
    while m:
        if not m & _MASK:  # skip to the lowest nonzero field
            s = ((m & -m).bit_length() - 1) // _FIELD
            m >>= _FIELD * s
            i += s
        e = ((m + _HALF) & _MASK) - _HALF
        out.append((i, e))
        m = (m - e) >> _FIELD
        i += 1
    return out


def _fits(p: dict) -> bool:
    """Whether every exponent of p lies in [-_LIMIT, _LIMIT).

    With _HALF added to each field (tops), a field holds e + _HALF, and
    e lies in range exactly when the field's top two bits differ.  tops
    spans every field a monomial of p may use.
    """
    n = max(map(int.bit_length, p), default=0) // _FIELD + 2
    tops = _HALF * (((1 << _FIELD * n) - 1) // _MASK)
    for m in p:
        v = m + tops
        if (v ^ v << 1) & tops != tops:
            return False
    return True


def _pmul(a: dict, b: dict) -> dict:
    """The product of two polynomials of _Polys; _Refused when an
    exponent of either lies outside [-_LIMIT, _LIMIT)."""
    if not (_fits(a) and (b is a or _fits(b))):
        raise _Refused
    return _pmul_unchecked(a, b)


def _pmul_unchecked(a: dict, b: dict) -> dict:
    """The product of two polynomials whose exponents the caller knows
    to lie in [-_LIMIT, _LIMIT), so that every sum stays in its field."""
    out: dict = {}
    for ma, ca in a.items():
        for mb, cb in b.items():
            m = ma + mb
            c = out.get(m, 0) + ca * cb
            if c:
                out[m] = c
            else:
                del out[m]
    return out


def _padd(terms) -> dict:
    """The sum of q * p over an iterable of (dict polynomial, int or
    Fraction q) pairs, in the one monomial format of _Polys, poly and
    the determinants."""
    out: dict = {}
    for p, q in terms:
        one = q == 1
        for m, c in p.items():
            c = out.get(m, 0) + (c if one else c * q)
            if c:
                out[m] = c
            else:
                del out[m]
    return out


def _pscale(p: dict, q) -> dict:
    """q * p for an int or Fraction q."""
    if q == 1:
        return p
    return {m: c * q for m, c in p.items()} if q else {}


def _ppow(p: dict, k: int) -> dict:
    """p**k for k >= 1, or any nonzero k when p has one term; _Refused
    when a factor of a product it takes, or the power of the one term,
    would reach _LIMIT."""
    if len(p) == 1:
        if k == 1:
            return p
        ((m, c),) = p.items()
        if abs(k) * max((abs(e) for _, e in _unpack(m)), default=0) >= _LIMIT:
            raise _Refused
        return {m * k: Fraction(c) ** k if k < 0 else c**k}
    result = None
    while True:
        if k & 1:
            result = p if result is None else _pmul(result, p)
        k >>= 1
        if not k:
            return result
        p = _pmul(p, p)


def _pproduct(fs: list) -> dict:
    """The product of (polynomial, exponent) factors, one-term factors
    gathered into one monomial before the rest are multiplied out."""
    one = rest = None
    for p, k in fs:
        if not p:
            return {}
        q = _ppow(p, k)
        if len(q) == 1:
            one = q if one is None else _pmul(one, q)
        else:
            rest = q if rest is None else _pmul(rest, q)
    if rest is None:
        return one
    if one is None or one == {_MONO_ONE: 1}:
        return rest
    return _pmul(one, rest)


def _expand_pairwise(x: Expr, walk):
    """Distribution on the trees: one canonical product per cross term."""
    t = type(x)
    if t is Mul:
        acc = [_numeric(x.coeff)]
        for r, k in x.pairs:
            tl = _expand_power_terms(walk(r), k)
            if len(tl) == 1:
                acc = [_mul_factors([a, tl[0]]) for a in acc]
            else:
                acc = [_mul_factors([a, b]) for a in acc for b in tl]
        return _add_terms(acc)
    if t is Power:
        base = walk(x.base)
        exponent = walk(x.exponent)
        if (
            type(exponent) is Numeric
            and exponent.value.is_integer()
            and exponent.value.val > 1
            and type(base) is Add
        ):
            return _add_terms(_expand_power_terms(base, exponent.value))
    return None


def _expand_power_terms(base: Expr, k: Number) -> list[Expr]:
    """Terms of base**k when that distributes, else a one-element list."""
    entity = power(base, _numeric(k))
    if k.is_integer() and k.val > 0 and type(base) is Add:
        n = k.val
        square = _terms_of(base)
        result = None
        while True:
            if n & 1:
                result = square if result is None else _cross(result, square)
            n >>= 1
            if not n:
                break
            square = _cross(square, square)
        return result
    if type(entity) is Add:
        return _terms_of(entity)
    return [entity]


def _cross(xs: list[Expr], ys: list[Expr]) -> list[Expr]:
    merged = _add_terms([_mul_factors([a, b]) for a in xs for b in ys])
    return _terms_of(merged)


def _terms_of(e: Expr) -> list[Expr]:
    if type(e) is Add:
        out = [_scaled_expr(r, k) for r, k in e.pairs]
        if not e.coeff.is_zero():
            out.append(_numeric(e.coeff))
        return out
    return [e]


# ------------------------------------------------------- numeric evaluation


def evalf(e: Expr, prec: int = DEFAULT_DPS) -> Expr:
    check_precision(prec)

    def f(v: Number) -> Number:
        return num_to_float(v, prec) if v.is_exact() else v

    def rule(x: Expr, walk):
        t = type(x)
        if t is Numeric:
            return Numeric(f(x.value))
        if t is Constant:
            return Numeric(x.fixed if x.fixed is not None else x.digits(prec))
        if t is Add:
            return _add_terms(
                [Numeric(f(x.coeff))]
                + [walk(_scaled_expr(r, k)) for r, k in x.pairs]
            )
        if t is Mul:
            return _mul_factors(
                [walk(r if k.is_one() else power(r, _numeric(k))) for r, k in x.pairs]
                + [Numeric(f(x.coeff))]
            )
        if t is PSeriesNode:
            # the expansion point stays exact
            return pseries(x.var, x.point, [(walk(c), k) for c, k in x.terms], x.order)
        return None

    return _rewrite(e, rule)


# ----------------------------------------------------------------- pseries


def pseries(var, point, terms, order: int | None) -> PSeriesNode:
    """Canonical series node: sorted exponents, zero coeffs dropped,
    terms at or beyond the order cut removed."""
    if type(var) is not Symbol:
        raise DomainError("series variable must be a symbol")
    point = lift(point)
    clean = []
    for c, k in terms:
        c = lift(c)
        if not isinstance(k, int) or isinstance(k, bool):
            raise DomainError("series exponents must be integers")
        if c.is_zero():
            continue
        if order is not None and k >= order:
            continue
        if var in free_symbols(c):
            raise DomainError("series coefficient depends on the series variable")
        clean.append((c, k))
    clean.sort(key=lambda ck: ck[1])
    for (_, k1), (_, k2) in zip(clean, clean[1:]):
        if k1 == k2:
            raise DomainError("duplicate series exponent")
    return PSeriesNode(var, point, tuple(clean), order)


# ----------------------------------------------------------------- printing

_PREC_ADD = 10
_PREC_MUL = 20
_PREC_POWER = 30
_PREC_ATOM = 40


def to_string(e: Expr) -> str:
    return _render(e, 0)


def _render(e: Expr, parent: int, by_factor: dict | None = None) -> str:
    """e's text.  A sum or product at the top of e takes its factor texts
    from by_factor when given (see _render_product)."""
    t = type(e)
    if t is Numeric:
        v = e.value
        s = str(v)
        if parent > _PREC_ADD and (v.kind == "cplx" or v.is_negative() or v.kind == "rat"):
            if parent >= _PREC_POWER or v.kind == "cplx" or v.is_negative():
                return f"({s})"
        return s
    if t is Symbol or t is Constant:
        return e.name
    if t is Add:
        texts: dict = {}  # id of a factor pair -> its text, shared by the terms
        parts = [] if e.coeff.is_zero() else [str(e.coeff)]
        for r, k in e.pairs:  # each term's text, with "+" before it unless it starts with "-"
            s = _render_product(r, texts, by_factor) if type(r) is Mul else _render(r, _PREC_MUL)
            if k.kind != "int" or (k.val != 1 and k.val != -1):
                s = f"{_render_coeff(k)}*{s}"
            elif k.val == -1:
                s = "-" + s
            parts.append(s if not parts or s[0] == "-" else "+" + s)
        s = "".join(parts)
        return f"({s})" if parent > _PREC_ADD else s
    if t is Mul:
        s = _render_product(e, {}, by_factor)
        return f"({s})" if parent > _PREC_MUL else s
    if t is Power:
        base = _render(e.base, _PREC_POWER + 1)
        exponent = _render_exponent(e.exponent)
        s = f"{base}^{exponent}"
        return f"({s})" if parent > _PREC_POWER else s
    if t is FunctionApp:
        args = ",".join(_render(a, 0) for a in e.args)
        return f"{e.fdef.name}({args})"
    if t is PSeriesNode:
        return _render_series(e, parent)
    if t is Relational:
        return f"{_render(e.lhs, 0)}{e.op}{_render(e.rhs, 0)}"
    if t is ExprList:
        return "[" + ",".join(_render(a, 0) for a in e.items) + "]"
    if t is MatrixNode:
        rows = e.row_list()
        return "[" + ",".join("[" + ",".join(_render(a, 0) for a in row) + "]" for row in rows) + "]"
    return f"<{t.__name__}>"


def _render_coeff(k: Number) -> str:
    """A numeric factor; a complex one with a nonzero real part needs
    parentheses to stay one factor."""
    s = str(k)
    return f"({s})" if k.kind == "cplx" and not k.re.is_zero() else s


def _render_product(e: Mul, texts: dict, by_factor: dict | None = None) -> str:
    """e's text, each factor pair's text kept in texts by the pair's id.
    Products built apart, such as the coefficients of a series, hold
    equal factors in distinct pairs; by_factor, when given, keeps each
    text by the ids of the pair's base and exponent, for all of them."""
    parts = []
    coeff = e.coeff
    neg = coeff.kind == "int" and coeff.val == -1
    if not (neg or coeff.is_one()):
        parts.append(_render_coeff(coeff))
    for pair in e.pairs:
        s = texts.get(id(pair))
        if s is None:
            r, k = pair
            key = by_factor is not None and (id(r), id(k))
            s = key and by_factor.get(key)
            if not s:
                s = (
                    _render(r, _PREC_MUL + 1) if k.is_one()
                    else f"{_render(r, _PREC_POWER + 1)}^{_render_number_exponent(k)}"
                )
                if key:
                    by_factor[key] = s
            texts[id(pair)] = s
        parts.append(s)
    s = "*".join(parts)
    return "-" + s if neg else s


def _render_number_exponent(v: Number) -> str:
    return str(v) if v.kind == "int" and v.val >= 0 else f"({v})"


def _render_exponent(x: Expr) -> str:
    if type(x) is Numeric:
        return _render_number_exponent(x.value)
    if type(x) in (Symbol, Constant, FunctionApp):
        return _render(x, _PREC_ATOM)
    return f"({_render(x, 0)})"


def _render_series(e: PSeriesNode, parent: int) -> str:
    x = e.var if e.point.is_zero() else add(e.var, mul(-1, e.point))
    xs = _render(x, _PREC_POWER + 1)
    by_factor: dict = {}  # keyed by the ids of objects e keeps alive
    parts = []
    for c, k in e.terms:
        if k == 0:
            mono = None
        elif k == 1:
            mono = xs
        else:
            mono = f"{xs}^{_render_exponent(lift(k))}"
        if mono is None:
            parts.append(_render(c, _PREC_ADD, by_factor))
        elif c.is_one():
            parts.append(mono)
        elif c == lift(-1):
            parts.append("-" + mono)
        elif type(c) is Numeric:
            parts.append(f"{_render_coeff(c.value)}*{mono}")
        else:
            cs = _render(c, _PREC_MUL, by_factor)
            parts.append(f"{cs}*{mono}")
    if e.order is not None:
        if e.order == 1:
            parts.append(f"O({xs})")
        else:
            parts.append(f"O({xs}^{_render_exponent(lift(e.order))})")
    s = "".join(p if not i or p[0] == "-" else "+" + p for i, p in enumerate(parts)) or "0"
    return f"({s})" if parent > _PREC_ADD and (len(parts) > 1) else s


# ------------------------------------------------------------------ helpers


def free_symbols(e: Expr) -> frozenset[Symbol]:
    """The symbols e depends on, as a frozenset (equal to the set of the
    same symbols).

    Each node above the atoms keeps its answer in _free, so a subtree
    shared by many trees, or asked about again, is walked once.  The
    walk is iterative and post-order; within one walk equal answers are
    one object, so a large sum of monomials in a few symbols holds a
    few sets.
    """
    t = type(e)
    if t is Symbol:
        return frozenset((e,))
    if t is Numeric or t is Constant:
        return _NO_SYMBOLS
    if e._free is not None:
        return e._free
    ones: dict = {}  # id of a symbol -> its one-element set
    unions: dict = {}  # each set this walk made, by value
    # (node, its children still to read, the sets of those read)
    stack = [(e, iter(_children(e)), [])]
    while True:
        x, kids, sets = stack[-1]
        for c in kids:
            t = type(c)
            if t is Symbol:
                s = ones.get(id(c))
                if s is None:
                    s = ones[id(c)] = frozenset((c,))
                sets.append(s)
            elif t is not Numeric and t is not Constant:
                s = c._free
                if s is None:
                    stack.append((c, iter(_children(c)), []))
                    break
                sets.append(s)
        else:
            stack.pop()
            out = sets[0] if sets else _NO_SYMBOLS
            if any(s is not out for s in sets):
                out = out.union(*sets)
                out = unions.setdefault(out, out)
            x._free = out
            if not stack:
                return out
            stack[-1][2].append(out)


_NO_SYMBOLS: frozenset = frozenset()


def symbols(names: str) -> tuple[Symbol, ...]:
    """symbols("x y z") -> three fresh symbols."""
    parts = names.replace(",", " ").split()
    return tuple(Symbol(p) for p in parts)


def Eq(lhs, rhs) -> Relational:
    return Relational(lift(lhs), lift(rhs), "==")


def rel(lhs, op: str, rhs) -> Relational:
    return Relational(lift(lhs), lift(rhs), op)


# a constant's digits come from the mpmath constant of that name
Pi = Constant("Pi", digits=functools.partial(_mp_call, "pi"))
Euler = Constant("Euler", digits=functools.partial(_mp_call, "euler"))
Catalan = Constant("Catalan", digits=functools.partial(_mp_call, "catalan"))
I = Numeric(IUNIT)
