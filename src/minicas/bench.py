"""Benchmark harness.

Every test here is a reconstruction at desk scale.  The timings of the
original era are hardware-bound and not reproducible, so each run is
paired with a correctness assertion instead: a direct bignum or
Fraction oracle, a divisibility check, the Hilbert closed form, an
identity product, or agreement at random rational points.  A failed
assertion aborts with the mismatching value; wall time is informational
and never asserted.

The Lewis-Wester rows keep their letters but not their exact inputs:
the original sparsity patterns live in the cited suite, not in the
sources reconstructed here.  In particular the rows that originally ran
modular arithmetic (K, L) reuse exact Hilbert inversion at a larger
default rank, and the M1/P/Q matrices come from a fixed-seed generator,
so their digests are self-consistency baselines rather than ground
truth.  Results hash with 64-bit FNV-1a over the printed form; the
digest is stable across runs of the same build.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from fractions import Fraction
from time import perf_counter

from .errors import DomainError
from .expr import (
    Eq,
    Euler,
    Expr,
    Pi,
    Symbol,
    add,
    expand,
    lift,
    mul,
    power,
    subs,
    to_string,
)
from .functions import factorial, gamma, zeta
from .matrices import (
    hilbert,
    identity,
    mat_charpoly,
    mat_det,
    mat_inverse,
    mat_mul,
    matrix,
)
from .poly import exact_quotient, normal, poly_gcd
from .series import series_coeff, series_of

__all__ = [
    "BenchRecord",
    "CSV_HEADER",
    "bench_run",
    "registered_ids",
    "default_size",
    "fnv1a64",
]

CSV_HEADER = "test_id,n,seconds,print_seconds,digest"


def fnv1a64(text: str) -> int:
    h = 0xCBF29CE484222325
    for b in text.encode("utf-8"):
        h ^= b
        h = (h * 0x100000001B3) & 0xFFFFFFFFFFFFFFFF
    return h


@dataclass(frozen=True)
class BenchRecord:
    """seconds computes and checks the result; print_seconds prints it."""

    test_id: str
    n: int
    seconds: float
    print_seconds: float
    digest: int

    def csv_line(self) -> str:
        return (f"{self.test_id},{self.n},{self.seconds:.6f},"
                f"{self.print_seconds:.6f},{self.digest:016x}")


def _claim(ok: bool, what: str, got) -> None:
    if not ok:
        raise AssertionError(f"{what}: got {got}")


def _divides(a: Expr, b: Expr) -> bool:
    try:
        exact_quotient(a, b)
    except (DomainError, ZeroDivisionError):
        return False
    return True


# ---------------------------------------------------------------- kernels


def _run_expand_subs_collapse(n: int) -> Expr:
    """e = (sum a_i)^2, then a_0 -> -(a_2 + ... ), expand, collapse."""
    if n < 3:
        raise DomainError("expand-subs-collapse needs n >= 3")
    syms = [Symbol(f"a{i}") for i in range(n)]
    e = expand(power(add(*syms), 2))
    terms = len(e.pairs)
    _claim(terms == n * (n + 1) // 2, "intermediate term count", terms)
    e = expand(subs(e, {syms[0]: mul(-1, add(*syms[2:]))}))
    _claim(e == power(syms[1], 2), "collapsed result", to_string(e))
    return e


def _run_gamma_series(n: int) -> Expr:
    if n < 3:
        raise DomainError("gamma-series needs order >= 3")
    x = Symbol("x")
    s = series_of(gamma(x), Eq(x, 0), n)
    pinned = {
        -1: lift(1),
        0: mul(-1, Euler),
        1: add(
            mul(Fraction(1, 12), power(Pi, 2)),
            mul(Fraction(1, 2), power(Euler, 2)),
        ),
        2: mul(
            -1,
            add(
                mul(Fraction(1, 12), power(Pi, 2), Euler),
                mul(Fraction(1, 6), power(Euler, 3)),
                mul(Fraction(1, 3), zeta(3)),
            ),
        ),
    }
    for k, want in pinned.items():
        got = series_coeff(s, k)
        _claim(
            normal(add(got, mul(-1, want))) == lift(0),
            f"gamma series coefficient at x^{k}",
            to_string(got),
        )
    return s


def _run_lw_a(n: int) -> Expr:
    """Divide factorials: sum of (i+5)!/i! checked against plain ints."""
    total = add(
        *[mul(factorial(i + 5), power(factorial(i), -1)) for i in range(1, n + 1)]
    )
    want = sum(math.prod(range(i + 1, i + 6)) for i in range(1, n + 1))
    _claim(total == lift(want), "factorial quotient sum", to_string(total))
    return total


def _run_lw_b(n: int) -> Expr:
    total = add(*[power(lift(i), -1) for i in range(1, n + 1)])
    want = sum(Fraction(1, i) for i in range(1, n + 1))
    _claim(total == lift(want), "harmonic sum", to_string(total))
    return total


def _run_lw_c(n: int) -> Expr:
    """gcd of two constructed big integers with a cofactor check."""
    g = 10**n + 7
    a = g * (2 ** (3 * n) + 3)
    b = g * (3 ** (2 * n) + 2)
    got = poly_gcd(lift(a), lift(b))
    gv = got.value.val
    _claim(gv == math.gcd(a, b), "integer gcd", gv)
    _claim(math.gcd(a // gv, b // gv) == 1, "coprime cofactors", gv)
    return got


def _lw_de(n: int, weight) -> Expr:
    y, t = Symbol("y"), Symbol("t")
    e = add(
        *[
            mul(i, y, power(t, i), power(add(y, mul(weight(i), t)), -i))
            for i in range(1, n + 1)
        ]
    )
    r = normal(e)
    for py, pt in ((Fraction(3, 7), Fraction(2, 5)), (Fraction(-4, 9), Fraction(1, 3))):
        want = sum(
            Fraction(i) * py * pt**i / (py + weight(i) * pt) ** i
            for i in range(1, n + 1)
        )
        got = subs(r, {y: lift(py), t: lift(pt)})
        _claim(got == lift(want), f"rational sum value at ({py},{pt})", to_string(got))
    return r


def _run_lw_d(n: int) -> Expr:
    return _lw_de(n, lambda i: i)


def _run_lw_e(n: int) -> Expr:
    return _lw_de(n, lambda i: abs(5 - i))


def _run_lw_f(n: int) -> Expr:
    x, y = Symbol("x"), Symbol("y")
    g = expand(add(power(add(x, y, 1), n), mul(x, y)))
    u = expand(add(power(add(x, mul(-1, y), 2), n), x, 1))
    v = expand(add(power(add(x, mul(2, y), -1), n), y, -1))
    a, b = expand(mul(g, u)), expand(mul(g, v))
    got = poly_gcd(a, b)
    _claim(_divides(a, got), "gcd divides the first input", to_string(got))
    _claim(_divides(b, got), "gcd divides the second input", to_string(got))
    _claim(_divides(got, g), "planted factor divides the gcd", to_string(got))
    return got


def _run_lw_g(n: int) -> Expr:
    x, y, z = Symbol("x"), Symbol("y"), Symbol("z")
    g = expand(add(power(add(x, y, z, 1), n), mul(x, y, z)))
    u = expand(add(power(add(x, mul(-1, y), z, 2), n), mul(x, z), 1))
    v = expand(add(power(add(x, y, mul(-1, z), -1), n), mul(y, z), -1))
    a, b = expand(mul(g, u)), expand(mul(g, v))
    got = poly_gcd(a, b)
    _claim(_divides(a, got), "gcd divides the first input", to_string(got))
    _claim(_divides(b, got), "gcd divides the second input", to_string(got))
    _claim(_divides(got, g), "planted factor divides the gcd", to_string(got))
    return got


def _hilbert_det_closed(n: int) -> Fraction:
    num = 1
    for k in range(1, n):
        num *= math.factorial(k)
    den = 1
    for k in range(1, 2 * n):
        den *= math.factorial(k)
    return Fraction(num**4, den)


def _run_lw_h(n: int) -> Expr:
    d = mat_det(hilbert(n))
    _claim(d == lift(_hilbert_det_closed(n)), "Hilbert determinant", to_string(d))
    return d


def _run_lw_i(n: int) -> Expr:
    inv = mat_inverse(hilbert(n))
    bad = [e for e in inv.entries if not e.value.is_integer()]
    _claim(not bad, "integral Hilbert inverse", [to_string(e) for e in bad[:3]])
    return inv


def _run_lw_j(n: int) -> Expr:
    h = hilbert(n)
    p = mat_mul(mat_inverse(h), h)
    _claim(p == identity(n), "inverse times matrix", to_string(p))
    return p


def _run_lw_m1(n: int) -> Expr:
    """Symbolic tridiagonal determinant against the continuant recurrence."""
    a = [Symbol(f"a{i}") for i in range(1, n + 1)]
    rows = [
        [a[i] if i == j else (1 if abs(i - j) == 1 else 0) for j in range(n)]
        for i in range(n)
    ]
    d = mat_det(matrix(rows))
    before, cur = lift(1), a[0]
    for k in range(1, n):
        before, cur = cur, expand(add(mul(a[k], cur), mul(-1, before)))
    _claim(expand(d) == cur, "continuant recurrence", to_string(d))
    return d


def _lw_sparse(n: int) -> tuple:
    """Fixed-seed sparse integer matrix: dominant diagonal n+i+1 plus
    2n small off-diagonal entries.  Returns (MatrixNode, int rows)."""
    rng = random.Random(0x4C57)
    rows = [[0] * n for _ in range(n)]
    for i in range(n):
        rows[i][i] = n + i + 1
    for _ in range(2 * n):
        i, j = rng.randrange(n), rng.randrange(n)
        if i != j:
            rows[i][j] = rng.randint(-3, 3)
    return matrix(rows), rows


def _int_det(rows) -> int:
    n = len(rows)
    if n == 1:
        return rows[0][0]
    total = 0
    for j in range(n):
        if rows[0][j] == 0:
            continue
        minor = [r[:j] + r[j + 1 :] for r in rows[1:]]
        s = -1 if j % 2 else 1
        total += s * rows[0][j] * _int_det(minor)
    return total


def _run_lw_p(n: int) -> Expr:
    m, rows = _lw_sparse(n)
    d = mat_det(m)
    if n <= 6:
        _claim(d == lift(_int_det(rows)), "sparse determinant oracle", to_string(d))
    _claim(d != lift(0), "nonsingular test matrix", to_string(d))
    di = mat_det(mat_inverse(m))
    _claim(mul(d, di) == lift(1), "det(A) * det(inverse(A))", to_string(di))
    return d


def _run_lw_q(n: int) -> Expr:
    m, rows = _lw_sparse(n)
    lam = Symbol("lam")
    cp = mat_charpoly(m, lam)
    rng = random.Random(0x5157)
    for _ in range(3):
        r = Fraction(rng.randint(-99, 99), rng.randint(1, 99))
        shifted = matrix(
            [
                [Fraction(rows[i][j]) - (r if i == j else 0) for j in range(n)]
                for i in range(n)
            ]
        )
        got = subs(cp, {lam: lift(r)})
        _claim(
            got == mat_det(shifted),
            f"charpoly at lambda={r}",
            to_string(got),
        )
    return cp


# ---------------------------------------------------------------- driver

_TESTS = {
    "expand-subs-collapse": (100, _run_expand_subs_collapse),
    "gamma-series": (20, _run_gamma_series),
    "lw-a": (100, _run_lw_a),
    "lw-b": (1000, _run_lw_b),
    "lw-c": (200, _run_lw_c),
    "lw-d": (10, _run_lw_d),
    "lw-e": (10, _run_lw_e),
    "lw-f": (6, _run_lw_f),
    "lw-g": (4, _run_lw_g),
    "lw-h": (10, _run_lw_h),
    "lw-i": (10, _run_lw_i),
    "lw-j": (10, _run_lw_j),
    "lw-k": (14, _run_lw_i),
    "lw-l": (14, _run_lw_j),
    "lw-m1": (12, _run_lw_m1),
    "lw-p": (20, _run_lw_p),
    "lw-q": (20, _run_lw_q),
}


def registered_ids() -> tuple[str, ...]:
    return tuple(_TESTS)


def default_size(test_id: str) -> int:
    return _lookup(test_id)[0]


def _lookup(test_id: str):
    got = _TESTS.get(test_id)
    if got is None:
        known = ", ".join(sorted(_TESTS))
        raise DomainError(f"unknown benchmark {test_id!r} (known: {known})")
    return got


def bench_run(test_id: str, n: int | None = None, reps: int = 1) -> BenchRecord:
    """Run one registered test, timing the whole computation including
    its correctness assertions, and apart from it the printing of the
    result.  With reps > 1 each recorded time is its minimum; the result
    digest must agree across repetitions."""
    size, run = _lookup(test_id)
    if n is None:
        n = size
    if not isinstance(n, int) or n < 1:
        raise DomainError("benchmark size must be a positive integer")
    if not isinstance(reps, int) or reps < 1:
        raise DomainError("repetitions must be a positive integer")
    best = printing = math.inf
    digest = None
    for _ in range(reps):
        t0 = perf_counter()
        result = run(n)
        t1 = perf_counter()
        text = to_string(result)
        t2 = perf_counter()
        d = fnv1a64(text)
        if digest is None:
            digest = d
        elif d != digest:
            raise AssertionError(
                f"digest changed between repetitions: {d:016x} vs {digest:016x}"
            )
        best, printing = min(best, t1 - t0), min(printing, t2 - t1)
    return BenchRecord(test_id, n, best, printing, digest)
