"""Symbolic functions with deferred evaluation.

A function is a FunctionDef: a name, an arity, and up to four hooks.
Application consults the eval hook once; if it declines, the result is
an inert FunctionApp node that prints as f(args) and survives subs and
expand untouched, so sin(x) really returns sin(x).  The hooks are

    eval_hook(args) -> Expr | None        exact rewrite at construction
    evalf_hook(values, prec) -> Number    numeric value at prec digits
    diff_hook(args, i) -> Expr            partial derivative in args[i]
    series_hook(args, var, point, n) -> PSeriesNode | _Series | None

and all of them are pure.  series_hook returns a PSeriesNode, the
running expansion's _Series, built in that expansion's ring, or None.
The registry maps (name, arity) to the definition; it is append-only
behind a lock so lookups after registration need no synchronization.

The predefined catalogue covers sin, cos, exp, log, gamma, psi (one and
two arguments), zeta and factorial.  Exact rewrites only fire on exact
numeric input; float input falls through to the evalf hook instead, so
sin(0.0) is -0.0-free float work while sin(0) is the integer 0.  The
polygamma functions carry no evalf hook at all and stay inert under
numeric evaluation; their exact values at 1 are enough for the gamma
series, which this module builds from the log-gamma coefficients

    log gamma(1+u) = -Euler*u + sum_{k>=2} (-1)^k zeta(k) u^k / k

composed through the series kernel.
"""

from __future__ import annotations

import itertools
import math
import threading
from fractions import Fraction

from .errors import (
    DomainError,
    PoleError,
    RegistrationError,
    UnevaluatedDerivativeError,
)
from .expr import (
    Euler,
    Expr,
    FunctionApp,
    Mul,
    Numeric,
    Pi,
    add,
    apply_function,
    lift,
    mul,
    power,
    subs,
)
from .numbers import Number, _mp_call, bernoulli, num_factorial

__all__ = [
    "FunctionDef",
    "fn_register",
    "fn_lookup",
    "registered_names",
    "sin",
    "cos",
    "exp",
    "log",
    "gamma",
    "psi",
    "zeta",
    "factorial",
]

_serials = itertools.count()


class FunctionDef:
    """Descriptor for one symbolic function; calling it applies it."""

    __slots__ = ("serial", "name", "arity", "eval_hook", "evalf_hook",
                 "diff_hook", "series_hook")

    def __init__(self, name: str, arity: int, eval_hook=None, evalf_hook=None,
                 diff_hook=None, series_hook=None):
        if not name or not isinstance(name, str):
            raise DomainError("function name must be a nonempty string")
        if not isinstance(arity, int) or isinstance(arity, bool) or arity < 1:
            raise DomainError("function arity must be a positive integer")
        self.serial = next(_serials)
        self.name = name
        self.arity = arity
        self.eval_hook = eval_hook
        self.evalf_hook = evalf_hook
        self.diff_hook = diff_hook
        self.series_hook = series_hook

    def __call__(self, *args) -> Expr:
        return apply_function(self, args)

    def __repr__(self):
        return f"<function {self.name}/{self.arity}>"


_registry: dict[tuple[str, int], FunctionDef] = {}
_registry_lock = threading.Lock()


def fn_register(fdef: FunctionDef) -> FunctionDef:
    """Enter a definition into the registry; (name, arity) must be new."""
    with _registry_lock:
        key = (fdef.name, fdef.arity)
        if key in _registry:
            raise RegistrationError(
                f"function {fdef.name} with arity {fdef.arity} is already registered"
            )
        _registry[key] = fdef
    return fdef


def fn_lookup(name: str, arity: int) -> FunctionDef:
    got = _registry.get((name, arity))
    if got is None:
        arities = sorted(a for n, a in _registry if n == name)
        if arities:
            raise DomainError(
                f"function {name} takes {' or '.join(map(str, arities))} "
                f"argument(s), not {arity}"
            )
        raise DomainError(f"unknown function {name}")
    return got


def registered_names() -> frozenset[str]:
    return frozenset(n for n, _ in _registry)


# ------------------------------------------------------------ numeric hooks


def _mp_hook(fn: str):
    # fn names an mpmath function, looked up once _mp_call has loaded
    # mpmath; mpmath reports poles (gamma at -2, zeta at 1) as ValueError
    def hook(values: list[Number], prec: int) -> Number:
        try:
            return _mp_call(fn, prec, *values)
        except ValueError as err:
            raise PoleError(str(err)) from err

    return hook


def _exact(a: Expr) -> Number | None:
    if type(a) is Numeric and a.value.is_exact():
        return a.value
    return None


# -------------------------------------------------------------- sin and cos


def _pi_multiple(a: Expr) -> Fraction | None:
    """a as an exact rational multiple of Pi, or None."""
    if a.is_zero():
        return Fraction(0) if a.value.is_exact() else None
    if a is Pi:
        return Fraction(1)
    if (type(a) is Mul and a.coeff.is_rational() and len(a.pairs) == 1
            and a.pairs[0][0] is Pi and a.pairs[0][1].is_one()):
        return a.coeff.as_fraction()
    return None


# Values of sin and cos at r*Pi for r mod 2 with denominator 1 or 2.
_SIN_TABLE = {Fraction(0): 0, Fraction(1): 0, Fraction(1, 2): 1, Fraction(3, 2): -1}
_COS_TABLE = {Fraction(0): 1, Fraction(1): -1, Fraction(1, 2): 0, Fraction(3, 2): 0}


def _sin_eval(args):
    mu = _pi_multiple(args[0])
    if mu is not None:
        got = _SIN_TABLE.get(mu % 2)
        if got is not None:
            return lift(got)
    return None


def _cos_eval(args):
    mu = _pi_multiple(args[0])
    if mu is not None:
        got = _COS_TABLE.get(mu % 2)
        if got is not None:
            return lift(got)
    return None


# ------------------------------------------------------------- exp and log


def _exp_eval(args):
    a = args[0]
    v = _exact(a)
    if v is not None and v.is_zero():
        return lift(1)
    if type(a) is FunctionApp and a.fdef is log:
        return a.args[0]
    return None


def _log_eval(args):
    a = args[0]
    if a.is_zero():
        raise PoleError("log is singular at 0")
    v = _exact(a)
    if v is not None and v.is_one():
        return lift(0)
    return None


# ---------------------------------------------------- gamma and polygamma


def _gamma_eval(args):
    v = _exact(args[0])
    if v is not None and v.is_integer():
        if v.val <= 0:
            raise PoleError(f"gamma has a pole at {v.val}")
        return lift(math.factorial(v.val - 1))
    return None


def _gamma_series(args, x, point, n):
    """Series of gamma(g) where g(point) is an integer.

    At 1 the log-gamma coefficients apply directly; other integers are
    shifted there through the functional equation, reusing _series_at on
    the rewritten expression so order bookkeeping stays in one place.
    The series comes back in the running expansion's ring, else as its
    node.  Non-integer points decline and fall back to the Taylor loop.
    """
    from .series import _exp, _expansion, _expansion_node, _pow, _scale, _series_at, _sum, _truncate

    g = args[0]
    g0 = subs(g, {x: point})
    v = _exact(g0)
    if v is None or not v.is_integer():
        return None

    def build(ring):
        if v.val <= 0:
            # gamma(g) = gamma(g+m+1) / (g (g+1) ... (g+m)), m = -g(point)
            shifted = mul(gamma(add(g, 1 - v.val)), *[power(add(g, j), -1) for j in range(1 - v.val)])
            return _series_at(ring, shifted, x, point, n)
        if v.val >= 2:
            # gamma(g) = (g-1) (g-2) ... (g-q+1) gamma(g-q+1), q = g(point)
            shifted = mul(*[add(g, -j) for j in range(1, v.val)], gamma(add(g, 1 - v.val)))
            return _series_at(ring, shifted, x, point, n)
        u = _series_at(ring, add(g, -1), x, point, n)
        terms = [_scale(ring, u, ring.read(mul(-1, Euler)))]
        for k in range(2, n):
            c = mul(lift(Fraction((-1) ** k, k)), zeta(k))
            terms.append(_scale(ring, _pow(ring, u, k), ring.read(c)))
        return _exp(ring, _truncate(_sum(ring, terms), n), n)

    ring = _expansion.get()
    return _expansion_node(build, x, point) if ring is None else build(ring)


def _psi1_eval(args):
    v = _exact(args[0])
    if v is not None and v.is_integer():
        if v.val <= 0:
            raise PoleError(f"psi has a pole at {v.val}")
        if v.val == 1:
            return mul(-1, Euler)
    return None


def _psi2_eval(args):
    order, a = args
    n = _exact(order)
    if n is None or not n.is_integer():
        return None
    if n.val < 0:
        raise DomainError("polygamma order must be a nonnegative integer")
    if n.val == 0:
        return psi(a)
    v = _exact(a)
    if v is not None and v.is_integer():
        if v.val <= 0:
            raise PoleError(f"psi has a pole at {v.val}")
        if v.val == 1:
            coeff = Fraction((-1) ** (n.val + 1) * math.factorial(n.val))
            return mul(lift(coeff), zeta(n.val + 1))
    return None


def _psi2_diff(args, i):
    if i == 0:
        raise UnevaluatedDerivativeError(
            "psi has no derivative in its order argument"
        )
    return psi(add(args[0], 1), args[1])


# ------------------------------------------------------ zeta and factorial


def _zeta_eval(args):
    v = _exact(args[0])
    if v is not None and v.is_integer():
        if v.val == 1:
            raise PoleError("zeta has a pole at 1")
        if v.val >= 2 and v.val % 2 == 0:
            k = v.val // 2
            c = (Fraction((-1) ** (k + 1) * 2 ** (2 * k), 2 * math.factorial(2 * k))
                 * bernoulli(2 * k).as_fraction())
            return mul(lift(c), power(Pi, v.val))
    return None


def _factorial_eval(args):
    v = _exact(args[0])
    if v is not None and v.is_integer():
        if v.val < 0:
            raise PoleError(f"factorial has a pole at {v.val}")
        return Numeric(num_factorial(v))
    return None


# --------------------------------------------------------------- catalogue


sin = fn_register(FunctionDef(
    "sin", 1,
    eval_hook=_sin_eval,
    evalf_hook=_mp_hook("sin"),
    diff_hook=lambda args, i: cos(args[0]),
))

cos = fn_register(FunctionDef(
    "cos", 1,
    eval_hook=_cos_eval,
    evalf_hook=_mp_hook("cos"),
    diff_hook=lambda args, i: mul(-1, sin(args[0])),
))

exp = fn_register(FunctionDef(
    "exp", 1,
    eval_hook=_exp_eval,
    evalf_hook=_mp_hook("exp"),
    diff_hook=lambda args, i: exp(args[0]),
))

log = fn_register(FunctionDef(
    "log", 1,
    eval_hook=_log_eval,
    evalf_hook=_mp_hook("log"),
    diff_hook=lambda args, i: power(args[0], -1),
))

gamma = fn_register(FunctionDef(
    "gamma", 1,
    eval_hook=_gamma_eval,
    evalf_hook=_mp_hook("gamma"),
    diff_hook=lambda args, i: mul(gamma(args[0]), psi(args[0])),
    series_hook=_gamma_series,
))

_psi1 = fn_register(FunctionDef(
    "psi", 1,
    eval_hook=_psi1_eval,
    diff_hook=lambda args, i: psi(lift(1), args[0]),
))

_psi2 = fn_register(FunctionDef(
    "psi", 2,
    eval_hook=_psi2_eval,
    diff_hook=_psi2_diff,
))

zeta = fn_register(FunctionDef(
    "zeta", 1,
    eval_hook=_zeta_eval,
    evalf_hook=_mp_hook("zeta"),
))

factorial = fn_register(FunctionDef(
    "factorial", 1,
    eval_hook=_factorial_eval,
))


def psi(*args) -> Expr:
    """psi(x) is the digamma function, psi(n, x) its n-th derivative."""
    if len(args) == 1:
        return apply_function(_psi1, args)
    if len(args) == 2:
        return apply_function(_psi2, args)
    raise DomainError(f"psi expects 1 or 2 argument(s), got {len(args)}")
