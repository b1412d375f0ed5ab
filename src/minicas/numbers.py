"""Exact number tower: integer, rational, arbitrary-precision float, complex.

The four variants form a tower (integer ⊂ rational ⊂ float, complex on
top with non-complex parts) with automatic collapse: rationals reduce and
drop to integers when the denominator hits 1, complex values with a
vanishing imaginary part drop to their real part.  Exact operands produce
exact results; as soon as a float enters, the result is a float carrying
the *coarsest* decimal precision among the float operands.

Floats are arbitrary-precision binary values (mpmath's libmp mantissa/
exponent tuples) tagged with a decimal digit count.  There is no global
precision state: every operation derives its working precision from its
operands, and `num_to_float` takes the target precision per call.

Values are immutable.  The Bernoulli memo table is the only shared
mutable state and is guarded by a lock.  Each int in [-_SMALL, _SMALL] is
one shared Number that every path making an int hands out: never mutate one.
"""

from __future__ import annotations

import decimal
import math
import re as _re
import threading
from fractions import Fraction

import mpmath
from mpmath import libmp
from mpmath.libmp import (
    ComplexResult,
    dps_to_prec,
    from_int,
    from_rational,
    fzero,
    mpf_abs,
    mpf_add,
    mpf_div,
    mpf_mul,
    mpf_neg,
    mpf_pos,
    mpf_pow,
    mpf_pow_int,
    mpf_sub,
    round_nearest,
)

from .errors import DomainError

__all__ = [
    "DEFAULT_DPS",
    "MIN_DPS",
    "Number",
    "num",
    "integer",
    "rational",
    "floatval",
    "from_decimal",
    "complexnum",
    "IUNIT",
    "num_arith",
    "num_add",
    "num_sub",
    "num_mul",
    "num_div",
    "num_pow",
    "num_neg",
    "num_cmp",
    "num_gcd",
    "num_factorial",
    "num_to_float",
    "bernoulli",
    "check_precision",
    "hash64",
    "int_to_decimal",
    "decimal_to_int",
]

DEFAULT_DPS = 20
MIN_DPS = 2

_INT, _RAT, _FLOAT, _CPLX = "int", "rat", "float", "cplx"
_VARIANT_RANK = {_INT: 0, _RAT: 1, _FLOAT: 2, _CPLX: 3}
_new = object.__new__  # a Number or Fraction made without its constructor


def hash64(*values: int) -> int:
    """Hash of a sequence of ints.

    Python's int and tuple hashes do not depend on PYTHONHASHSEED, so the
    value is the same in every process; canonical order never reads it.
    """
    return hash(values)


def check_precision(p) -> int:
    if not isinstance(p, int) or isinstance(p, bool) or p < MIN_DPS:
        raise DomainError(f"precision must be an integer >= {MIN_DPS}, got {p!r}")
    return p


class Number:
    """One value of the tower.  Construct through the module helpers."""

    __slots__ = ("kind", "val", "prec", "re", "im", "_hash")

    def __init__(self, kind, val=None, prec=None, re=None, im=None):
        self.kind = kind
        self.val = val
        self.prec = prec
        self.re = re
        self.im = im
        if kind == _INT:
            h = hash64(0, val)
        elif kind == _RAT:
            h = hash64(1, val.numerator, val.denominator)
        elif kind == _FLOAT:
            sign, man, exp, _ = val
            h = hash64(2, sign, int(man), exp, prec)
        else:
            h = hash64(3, re._hash, im._hash)
        self._hash = h

    # -- predicates ---------------------------------------------------

    def is_exact(self) -> bool:
        if self.kind == _CPLX:
            return self.re.is_exact() and self.im.is_exact()
        return self.kind in (_INT, _RAT)

    def is_zero(self) -> bool:
        if self.kind == _INT:
            return self.val == 0
        if self.kind == _RAT:
            return False
        if self.kind == _FLOAT:
            return self.val == fzero
        return False  # complex never has a vanishing imaginary part

    def is_one(self) -> bool:
        return self.kind == _INT and self.val == 1

    def is_integer(self) -> bool:
        return self.kind == _INT

    def is_rational(self) -> bool:
        """Exact and real: integer or rational variant."""
        return self.kind in (_INT, _RAT)

    def is_real(self) -> bool:
        return self.kind != _CPLX

    def is_negative(self) -> bool:
        if self.kind == _INT:
            return self.val < 0
        if self.kind == _RAT:
            return self.val < 0
        if self.kind == _FLOAT:
            return self.val[0] == 1 and self.val != fzero
        return False

    # -- conversions ---------------------------------------------------

    def as_fraction(self) -> Fraction:
        """Exact value of a real Number (floats are dyadic rationals)."""
        if self.kind == _INT:
            return Fraction(self.val)
        if self.kind == _RAT:
            return self.val
        if self.kind == _FLOAT:
            sign, man, exp, _ = self.val
            man = int(man)
            if sign:
                man = -man
            return Fraction(man) * Fraction(2) ** exp
        raise DomainError("complex value has no real fraction form")

    def as_int(self) -> int:
        if self.kind != _INT:
            raise DomainError(f"not an integer: {self}")
        return self.val

    def __int__(self) -> int:
        return self.as_int()

    # -- operators ------------------------------------------------------

    def __add__(self, other):
        return num_add(self, num(other))

    def __radd__(self, other):
        return num_add(num(other), self)

    def __sub__(self, other):
        return num_sub(self, num(other))

    def __rsub__(self, other):
        return num_sub(num(other), self)

    def __mul__(self, other):
        return num_mul(self, num(other))

    def __rmul__(self, other):
        return num_mul(num(other), self)

    def __truediv__(self, other):
        return num_div(self, num(other))

    def __rtruediv__(self, other):
        return num_div(num(other), self)

    def __pow__(self, other):
        return num_pow(self, num(other))

    def __neg__(self):
        return num_neg(self)

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            other = num(other)
        if not isinstance(other, Number):
            return NotImplemented
        return num_cmp(self, other) == 0

    def __hash__(self):
        return self._hash

    def __lt__(self, other):
        return num_cmp(self, num(other)) < 0

    def __le__(self, other):
        return num_cmp(self, num(other)) <= 0

    def __gt__(self, other):
        return num_cmp(self, num(other)) > 0

    def __ge__(self, other):
        return num_cmp(self, num(other)) >= 0

    # -- printing --------------------------------------------------------

    def __str__(self):
        if self.kind == _INT:
            return int_to_decimal(self.val)
        if self.kind == _RAT:
            return f"{int_to_decimal(self.val._numerator)}/{int_to_decimal(self.val._denominator)}"
        if self.kind == _FLOAT:
            return _format_float(self.val, self.prec)
        re_s, im_s = self.re, self.im
        if re_s.is_zero():
            return _imag_str(im_s)
        sep = "-" if im_s.is_negative() else "+"
        mag = num_neg(im_s) if im_s.is_negative() else im_s
        return f"{re_s}{sep}{_imag_str(mag)}"

    def __repr__(self):
        return str(self)


def _imag_str(im: Number) -> str:
    if im.is_one():
        return "I"
    return f"{im}*I"


# -- decimal conversion ---------------------------------------------------
#
# Python refuses str(n) and int(text) past a process-wide number of digits
# (4300 by default, 640 at the least it can be set to).  Past it, these
# convert by divide-and-conquer, so no single str() or int() call sees
# more than about 480 digits.  Splitting an int by a power of ten would
# take a quadratic-time divmod, so int_to_decimal splits by a power of
# two and joins the halves in exact Decimal arithmetic, whose products of
# large operands take subquadratic time.

_LEAF_BITS = 1600


def int_to_decimal(n: int) -> str:
    """The decimal digits of n, with a minus sign when negative."""
    try:
        return str(n)
    except ValueError:  # past Python's limit on digits
        return _split_to_decimal(n)


def _split_to_decimal(n: int) -> str:
    # apart from int_to_decimal, so that the cells of these closures are
    # set up past the digit limit only, not for every integer printed
    powers: dict[int, decimal.Decimal] = {}

    def two_to(k: int) -> decimal.Decimal:
        got = powers.get(k)
        if got is None:
            h = k // 2
            got = decimal.Decimal(2) ** k if k <= _LEAF_BITS else two_to(h) * two_to(k - h)
            powers[k] = got
        return got

    def convert(m: int, bits: int) -> decimal.Decimal:
        if bits <= _LEAF_BITS:
            return decimal.Decimal(m)
        k = bits // 2
        hi = m >> k
        return convert(hi, bits - k) * two_to(k) + convert(m - (hi << k), k)

    with decimal.localcontext() as ctx:
        ctx.prec = decimal.MAX_PREC
        ctx.Emax = decimal.MAX_EMAX
        ctx.traps[decimal.Inexact] = True
        digits = str(convert(abs(n), n.bit_length()))
    return "-" + digits if n < 0 else digits


def decimal_to_int(digits: str) -> int:
    """The int a string of decimal digits spells."""
    if len(digits) <= 480:
        return int(digits)
    k = len(digits) // 2
    return decimal_to_int(digits[:-k]) * 10**k + decimal_to_int(digits[-k:])


# -- constructors -------------------------------------------------------


def _int(n: int) -> Number:
    """The Number of int n: the shared one when |n| <= _SMALL, else made in one step."""
    if -_SMALL <= n <= _SMALL:
        return _SMALL_INTS[n + _SMALL]
    x = _new(Number)
    x.kind, x.val, x.prec, x.re, x.im, x._hash = _INT, n, None, None, None, hash64(0, n)
    return x


def integer(n: int) -> Number:
    return _int(int(n))


def _from_fraction(fr: Fraction) -> Number:
    n, d = fr._numerator, fr._denominator
    if d == 1:
        return _int(n)
    x = _new(Number)
    x.kind, x.val, x.prec, x.re, x.im, x._hash = _RAT, fr, None, None, None, hash64(1, n, d)
    return x


def _fraction(n: int, d: int) -> Fraction:
    """The Fraction n/d for coprime ints n and d > 0, without Fraction()'s gcd."""
    fr = _new(Fraction)
    fr._numerator, fr._denominator = n, d
    return fr


def rational(p: int, q: int) -> Number:
    if q == 0:
        raise ZeroDivisionError("rational with zero denominator")
    return _from_fraction(Fraction(p, q))


def complexnum(re, im) -> Number:
    re, im = num(re), num(im)
    if re.kind == _CPLX or im.kind == _CPLX:
        raise DomainError("complex parts must be non-complex")
    if im.is_zero():
        return re
    return Number(_CPLX, re=re, im=im)


def floatval(x, prec: int = DEFAULT_DPS) -> Number:
    """Float at `prec` digits from an int, Fraction, float, or Number."""
    return num_to_float(num(x), prec)


_DECIMAL_RE = _re.compile(
    r"\s*([+-]?)(\d+(?:\.\d*)?|\.\d+)(?:[eE]([+-]?\d+))?\s*\Z"
)


_MAX_DECIMAL_EXP = 100_000


def from_decimal(text: str, prec: int | None = None) -> Number:
    """Parse a decimal literal into a float Number.

    Without an explicit precision the value is rounded at
    max(DEFAULT_DPS, number of significant digits in the literal), so a
    long literal keeps all of its digits and a short one gets the default
    working precision.
    """
    m = _DECIMAL_RE.match(text)
    if m is None:
        raise DomainError(f"not a decimal literal: {text!r}")
    sign_s, body, exp_s = m.groups()
    if "." in body:
        int_part, frac_part = body.split(".")
    else:
        int_part, frac_part = body, ""
    digits = (int_part + frac_part).lstrip("0")
    sig = len(digits.rstrip("0")) if digits else 1
    if prec is None:
        prec = max(DEFAULT_DPS, sig)
    check_precision(prec)
    value = Fraction(decimal_to_int(int_part + frac_part or "0"), 10 ** len(frac_part))
    if exp_s:
        # the exact value is built before it is rounded, and dividing by
        # 10**|e| takes time quadratic in |e|
        e = decimal_to_int(exp_s.lstrip("+-"))
        if e > _MAX_DECIMAL_EXP:
            raise DomainError(f"decimal exponent too large: {exp_s}")
        value *= Fraction(10) ** (-e if exp_s[0] == "-" else e)
    if sign_s == "-":
        value = -value
    return _fraction_to_float(value, prec)


def _fraction_to_float(fr: Fraction, prec: int) -> Number:
    if fr == 0:
        return Number(_FLOAT, fzero, prec)
    bits = dps_to_prec(prec)
    tup = from_rational(fr.numerator, fr.denominator, bits, round_nearest)
    return Number(_FLOAT, tup, prec)


def num(x) -> Number:
    """Lift a Python value into the tower.

    Python floats convert exactly (their IEEE binary value) at the
    default precision; use from_decimal for correctly rounded decimals.
    """
    if isinstance(x, int) and type(x) is not bool:
        return _int(x)
    if isinstance(x, Number):
        return x
    if isinstance(x, bool):
        raise DomainError("booleans are not numbers here")
    if isinstance(x, Fraction):
        return _from_fraction(x)
    if isinstance(x, float):
        if math.isnan(x) or math.isinf(x):
            raise DomainError(f"non-finite float: {x!r}")
        return _fraction_to_float(Fraction(x), DEFAULT_DPS)
    if isinstance(x, complex):
        return complexnum(num(x.real), num(x.imag))
    raise DomainError(f"cannot lift {type(x).__name__} into the number tower")


_SMALL = 256
_SMALL_INTS = [Number(_INT, n) for n in range(-_SMALL, _SMALL + 1)]
_ZERO = _int(0)
_ONE = _int(1)
IUNIT = Number(_CPLX, re=_ZERO, im=_ONE)


# -- arithmetic ----------------------------------------------------------


def _min_float_dps(*xs: Number) -> int:
    precs = []
    for x in xs:
        if x.kind == _FLOAT:
            precs.append(x.prec)
        elif x.kind == _CPLX:
            for p in (x.re, x.im):
                if p.kind == _FLOAT:
                    precs.append(p.prec)
    return min(precs)


def _to_mpf_tuple(x: Number, bits: int):
    if x.kind == _FLOAT:
        return x.val
    if x.kind == _INT:
        return from_int(x.val, bits, round_nearest)
    fr = x.val
    return from_rational(fr.numerator, fr.denominator, bits, round_nearest)


def _real_float_op(op, a: Number, b: Number) -> Number:
    p = _min_float_dps(a, b)
    bits = dps_to_prec(p)
    return Number(_FLOAT, op(_to_mpf_tuple(a, bits), _to_mpf_tuple(b, bits), bits, round_nearest), p)


def num_add(a: Number, b: Number) -> Number:
    if a.kind == _CPLX or b.kind == _CPLX:
        ar, ai = _parts(a)
        br, bi = _parts(b)
        return complexnum(num_add(ar, br), num_add(ai, bi))
    if a.kind == _FLOAT or b.kind == _FLOAT:
        return _real_float_op(mpf_add, a, b)
    if a.kind == _INT and b.kind == _INT:
        return _int(a.val + b.val)
    return _from_fraction(a.val + b.val)


def num_sub(a: Number, b: Number) -> Number:
    return num_add(a, num_neg(b))


def num_mul(a: Number, b: Number) -> Number:
    """a * b; the exact 1 is the identity, so 1 * b is b itself."""
    if a is _ONE or b is _ONE:
        return b if a is _ONE else a
    if a.kind == _CPLX or b.kind == _CPLX:
        ar, ai = _parts(a)
        br, bi = _parts(b)
        return complexnum(
            num_sub(num_mul(ar, br), num_mul(ai, bi)),
            num_add(num_mul(ar, bi), num_mul(ai, br)),
        )
    if a.kind == _FLOAT or b.kind == _FLOAT:
        return _real_float_op(mpf_mul, a, b)
    if a.kind == _INT and b.kind == _INT:
        return _int(a.val * b.val)
    return _from_fraction(a.val * b.val)


def num_div(a: Number, b: Number) -> Number:
    if b.is_zero() or (b.kind == _CPLX and b.re.is_zero() and b.im.is_zero()):
        raise ZeroDivisionError("division by zero")
    if a.kind == _CPLX or b.kind == _CPLX:
        br, bi = _parts(b)
        norm = num_add(num_mul(br, br), num_mul(bi, bi))
        conj = complexnum(br, num_neg(bi))
        prod = num_mul(a, conj)
        pr, pi = _parts(prod)
        return complexnum(num_div(pr, norm), num_div(pi, norm))
    if a.kind == _FLOAT or b.kind == _FLOAT:
        return _real_float_op(mpf_div, a, b)
    return _from_fraction(Fraction(a.val, b.val))


def num_neg(a: Number) -> Number:
    if a.kind == _INT:
        return _int(-a.val)
    if a.kind == _RAT:
        return Number(_RAT, -a.val)
    if a.kind == _FLOAT:
        return Number(_FLOAT, mpf_neg(a.val), a.prec)
    return complexnum(num_neg(a.re), num_neg(a.im))


# The exact powers num_pow builds stay below this many bits (8 MB) in
# every numerator and denominator; a larger one raises DomainError.
_MAX_POW_BITS = 1 << 26


def _bits(a: Number) -> int:
    """Bit length of the larger of the numerator and denominator of an
    exact real a."""
    if a.kind == _INT:
        return a.val.bit_length()
    return max(a.val.numerator.bit_length(), a.val.denominator.bit_length())


def _check_pow_size(a: Number, n: int) -> None:
    """Refuse the exact power a**n before building it when it could pass
    _MAX_POW_BITS.  The estimate is an upper bound.  A real whose
    numerator and denominator have at most L bits gives powers of at
    most L*|n| bits.  A complex (p + r*I)/q, its parts over a common
    denominator, with at most L bits in p, r and q, gives at most
    (2L+1)*|n|: (p + r*I)^|n| has parts below |p + r*I|^|n| < 2^((L+1/2)|n|),
    and a negative power divides by its norm.  The powers of 0, 1, -1,
    I and -I take no room, and pass at any n."""
    if a.kind == _CPLX:
        re, im = a.re.as_fraction(), a.im.as_fraction()
        if re * im == 0 and abs(re + im) == 1:
            return
        q = math.lcm(re.denominator, im.denominator)
        bits = max(q.bit_length(), int(re * q).bit_length(), int(im * q).bit_length())
        est = (2 * bits + 1) * abs(n)
    else:
        bits = _bits(a)
        est = bits * abs(n) if bits > 1 else 0
    if est > _MAX_POW_BITS:
        raise DomainError(f"exact power too large: up to {est} bits")


# An inexact power past 2^(±_MAX_FLOAT_POW_BITS) raises what printing it
# would; mpmath's powering time grows with the exponent's bit length.
_MAX_FLOAT_POW_BITS = 1 << 32


def _check_float_pow_size(a: Number, b: Number, bits: int) -> None:
    """Refuse the inexact power a**b, its operands read at bits, before
    mpmath builds it when exp(Re(b*log(a))) passes 2^(±_MAX_FLOAT_POW_BITS)."""
    if a.is_zero():
        return
    with mpmath.workprec(53):
        size = (_to_mp(b, bits) * mpmath.log(_to_mp(a, bits))).real
    if abs(size) > _MAX_FLOAT_POW_BITS * math.log(2):
        raise DomainError("float exponent too large to print")


def num_pow(a: Number, b: Number) -> Number:
    if b.kind == _INT:
        n = b.val
        if a.is_zero() and n < 0:
            raise ZeroDivisionError("zero to a negative power")
        if a.is_exact():
            _check_pow_size(a, n)
        else:
            _check_float_pow_size(a, b, dps_to_prec(_min_float_dps(a)))
        if a.kind == _INT:
            return _int(a.val**n) if n >= 0 else _from_fraction(Fraction(1, a.val**-n))
        if a.kind == _RAT:
            return _from_fraction(a.val**n)
        if a.kind == _FLOAT:
            bits = dps_to_prec(a.prec)
            return Number(_FLOAT, mpf_pow_int(a.val, n, bits, round_nearest), a.prec)
        # complex: binary powering keeps exact parts exact
        if n < 0:
            return num_div(_ONE, num_pow(a, _int(-n)))
        result, base = _ONE, a
        while n:
            if n & 1:
                result = num_mul(result, base)
            n >>= 1
            if n:
                base = num_mul(base, base)
        return result
    if b.kind == _RAT and a.is_exact() and a.kind != _CPLX:
        raise DomainError("non-integer exponent on an exact base is symbolic")
    # some operand is inexact (or the base is complex): go numeric
    p = DEFAULT_DPS
    if a.kind == _FLOAT or b.kind == _FLOAT or a.kind == _CPLX or b.kind == _CPLX:
        try:
            p = _min_float_dps(a, b)
        except ValueError:
            p = DEFAULT_DPS
    bits = dps_to_prec(p)
    _check_float_pow_size(a, b, bits)
    if a.kind != _CPLX and b.kind != _CPLX:
        if not (a.is_negative() and b.kind == _FLOAT):
            try:
                return Number(
                    _FLOAT, mpf_pow(_to_mpf_tuple(a, bits), _to_mpf_tuple(b, bits), bits, round_nearest), p
                )
            except ComplexResult:
                pass
    return _mp_call(lambda ca, cb: ca**cb, p, a, b)


def num_arith(op: str, a: Number, b: Number) -> Number:
    """String-dispatched arithmetic: op in {add, sub, mul, div, pow}."""
    table = {"add": num_add, "sub": num_sub, "mul": num_mul, "div": num_div, "pow": num_pow}
    try:
        fn = table[op]
    except KeyError:
        raise DomainError(f"unknown arithmetic op {op!r}") from None
    return fn(a, b)


def _parts(a: Number):
    if a.kind == _CPLX:
        return a.re, a.im
    return a, _ZERO


# -- mpmath bridge (high-level, for transcendental evaluation) -----------


def _to_mp(a: Number, bits: int):
    if a.kind == _CPLX:
        return mpmath.mpc(_to_mp(a.re, bits), _to_mp(a.im, bits))
    return mpmath.make_mpf(_to_mpf_tuple(a, bits))


def _from_mp(x, prec: int) -> Number:
    if isinstance(x, mpmath.mpc):
        return complexnum(_from_mp(x.real, prec), _from_mp(x.imag, prec))
    return Number(_FLOAT, mpmath.mpf(x)._mpf_, prec)


def _mp_call(fn, prec: int, *args: Number) -> Number:
    """Evaluate an mpmath function on Numbers at `prec` digits."""
    bits = dps_to_prec(prec)
    with mpmath.workprec(bits):
        # conversion must happen inside the block: mpmath.mpf rounds to
        # the active context precision
        result = fn(*(_to_mp(a, bits) for a in args))
        return _from_mp(result, prec)


# -- comparison -----------------------------------------------------------


def num_cmp(a: Number, b: Number) -> int:
    """Total order: by value, then variant rank, then float precision.

    Complex values order lexicographically by (real, imaginary) under the
    same rule; the order is structural, not an analytic '<'.
    """
    if a.kind == _CPLX or b.kind == _CPLX:
        ar, ai = _parts(a)
        br, bi = _parts(b)
        return num_cmp(ar, br) or num_cmp(ai, bi)
    if a.kind == _FLOAT or b.kind == _FLOAT:
        fa, fb = a.as_fraction(), b.as_fraction()
    else:
        fa, fb = a.val, b.val
    if fa != fb:
        return -1 if fa < fb else 1
    ra, rb = _VARIANT_RANK[a.kind], _VARIANT_RANK[b.kind]
    if ra != rb:
        return -1 if ra < rb else 1
    if a.kind == _FLOAT and a.prec != b.prec:
        return -1 if a.prec < b.prec else 1
    return 0


# -- named operations -----------------------------------------------------


def num_gcd(a: Number, b: Number) -> Number:
    if a.kind != _INT or b.kind != _INT:
        raise DomainError("num_gcd needs integer operands")
    return _int(math.gcd(a.val, b.val))


def num_factorial(n: Number) -> Number:
    if n.kind != _INT or n.val < 0:
        raise DomainError("factorial needs a nonnegative integer")
    # n! has over n bits from n = 4 on; lgamma(n+1)/ln 2 is log2(n!)
    if n.val > _MAX_POW_BITS or math.lgamma(n.val + 1) / math.log(2) + 64 > _MAX_POW_BITS:
        raise DomainError(f"exact factorial too large: {n}! passes {_MAX_POW_BITS} bits")
    return _int(math.factorial(n.val))


def num_to_float(a: Number, p: int) -> Number:
    check_precision(p)
    if a.kind == _CPLX:
        return complexnum(num_to_float(a.re, p), num_to_float(a.im, p))
    if a.kind == _FLOAT:
        bits = dps_to_prec(p)
        return Number(_FLOAT, mpf_pos(a.val, bits, round_nearest), p)
    return _fraction_to_float(a.as_fraction(), p)


# -- Bernoulli numbers -----------------------------------------------------

_bernoulli_lock = threading.Lock()
_bernoulli_cache: list[Fraction] = [Fraction(1)]


def bernoulli(n: int) -> Number:
    """Exact Bernoulli number B_n with the B_1 = -1/2 convention."""
    if not isinstance(n, int) or isinstance(n, bool) or n < 0:
        raise DomainError("bernoulli needs a nonnegative integer index")
    with _bernoulli_lock:
        if n >= len(_bernoulli_cache):
            _extend_bernoulli(n)
        value = _bernoulli_cache[n]
    return _from_fraction(value)


def _extend_bernoulli(n: int) -> None:
    # Akiyama-Tanigawa produces the B_1 = +1/2 convention; recompute the
    # triangle from scratch up to n and flip the sign of B_1 on store.
    row = [Fraction(0)] * (n + 1)
    values = []
    for m in range(n + 1):
        row[m] = Fraction(1, m + 1)
        for j in range(m, 0, -1):
            row[j - 1] = j * (row[j - 1] - row[j])
        values.append(row[0])
    if n >= 1:
        values[1] = -values[1]
    _bernoulli_cache.clear()
    _bernoulli_cache.extend(values)


# -- float printing ---------------------------------------------------------


def _float_digits(tup, ndigits: int):
    """Decimal digits of |value| rounded half-even to ndigits.

    Returns (digits, dec_exp) with value = 0.digits * 10**dec_exp and no
    trailing zeros in digits.  man * 2**exp is never expanded: one exact
    divmod gives q = floor(value * 10**k), k read off exp so that q has
    about ndigits + 2 digits, and a remainder that breaks ties.  Decimal
    exponents past 2 * _MAX_DECIMAL_EXP (any literal's fits) raise.
    """
    _, man, exp, bc = tup
    # 2**(bc + exp - 1) <= value < 2**(bc + exp).  An exponent of 7 *
    # _MAX_DECIMAL_EXP bits is past 2 * _MAX_DECIMAL_EXP decimal digits,
    # and this int test keeps a far larger one out of the float product.
    if abs(bc + exp - 1) > 7 * _MAX_DECIMAL_EXP:
        raise DomainError("float exponent too large to print")
    k = ndigits + 1 - math.floor((bc + exp - 1) * math.log10(2))
    if abs(k - ndigits) > 2 * _MAX_DECIMAL_EXP:
        raise DomainError("float exponent too large to print")
    q, r = divmod(
        (int(man) << max(exp + k, 0)) * 5 ** max(k, 0),
        (1 << max(-exp - k, 0)) * 5 ** max(-k, 0),
    )
    drop = len(str(q)) - ndigits
    head, tail = divmod(q, 10**drop)
    dec_exp = ndigits + drop - k
    if 2 * tail > 10**drop or (2 * tail == 10**drop and (r or head % 2)):
        head += 1
        if head == 10**ndigits:
            head //= 10
            dec_exp += 1
    return str(head).rstrip("0"), dec_exp


def _format_float(tup, prec: int) -> str:
    if tup == fzero:
        return "0.0"
    sign = "-" if tup[0] else ""
    digits, dec_exp = _float_digits(tup, prec)
    if -4 < dec_exp <= prec:
        if dec_exp <= 0:
            body = "0." + "0" * -dec_exp + digits
        elif dec_exp >= len(digits):
            body = digits + "0" * (dec_exp - len(digits)) + ".0"
        else:
            body = digits[:dec_exp] + "." + digits[dec_exp:]
    else:
        mantissa = digits[0] + "." + (digits[1:] or "0")
        body = f"{mantissa}E{dec_exp - 1}"
    return sign + body
