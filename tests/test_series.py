"""Series kernel tests.

[DERIVED] values come from the truncated dict-polynomial oracles below
(geometric sums, generalized binomial coefficients, factorial Taylor
coefficients), all written against the defining formulas rather than the
kernel.  [PAPER] marks the special-relativity walkthrough.  [TRIVIAL]
marks order-bookkeeping identities asserted directly.
"""

import contextvars
import math
import random
import time
from fractions import Fraction
from typing import Callable, NamedTuple

import pytest

from minicas import series as series_module
from minicas.errors import DomainError, PoleError, SeriesError, UnevaluatedDerivativeError
from minicas.expr import (
    Add,
    Euler,
    FunctionApp,
    I,
    Mul,
    Numeric,
    Pi,
    Power,
    PSeriesNode,
    Symbol,
    _LIMIT,
    _MONO_ONE,
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
    sqrt,
    subs,
    symbols,
    to_string,
)
from minicas.functions import (
    FunctionDef,
    _exact,
    _gamma_series,
    cos,
    exp,
    fn_register,
    gamma,
    log,
    sin,
    zeta,
)
from minicas.shell import Shell
from minicas.series import (
    ps_add,
    ps_mul,
    ps_pow,
    ps_to_expr,
    series_coeff,
    series_of,
)

# ---------------------------------------------------------------- oracles


def binom_general(k: Fraction, n: int) -> Fraction:
    """Generalized binomial coefficient C(k, n) = k(k-1)...(k-n+1)/n!."""
    out = Fraction(1)
    for j in range(n):
        out *= (k - j) / (j + 1)
    return out


def dict_mul(p: dict, q: dict) -> dict:
    out = {}
    for i, a in p.items():
        for j, b in q.items():
            out[i + j] = out.get(i + j, Fraction(0)) + a * b
    return {e: c for e, c in out.items() if c}


def dict_to_series(p: dict, x):
    """Exact series (no order term) from an exponent dict."""
    return pseries(x, 0, [(lift(c), e) for e, c in p.items()], None)


def dict_to_expr(p: dict, x):
    return add(*[mul(c, power(x, e)) for e, c in p.items()])


def random_dict_poly(rng, maxdeg=5):
    p = {}
    for e in range(rng.randint(0, maxdeg) + 1):
        if rng.random() < 0.7:
            p[e] = Fraction(rng.randint(-6, 6), rng.randint(1, 4))
    return {e: c for e, c in p.items() if c} or {0: Fraction(1)}


def coeffs_of(s) -> dict:
    return {e: c for c, e in s.terms}


def assert_coeffs(s, expected: dict):
    got = coeffs_of(s)
    assert set(got) == set(expected), (got, expected)
    for e, c in expected.items():
        assert got[e] == lift(c), (e, got[e], c)


# ----------------------------------------------------------- paper example


def test_relativity_walkthrough():
    # [PAPER] 1/sqrt(1-v^2/c^2) expands to 1 + (1/2)(v/c)^2 + (3/8)(v/c)^4
    # + O(v^6), and the -2 power of that series re-expands to
    # 1 - v^2/c^2 + O(v^6).
    v, c = symbols("v c")
    gamma_factor = power(
        add(1, mul(-1, power(v, 2), power(c, -2))), Fraction(-1, 2)
    )
    s = series_of(gamma_factor, (v, 0), 6)
    assert s.order == 6
    assert series_coeff(s, 0) == 1
    assert series_coeff(s, 2) == mul(Fraction(1, 2), power(c, -2))
    assert series_coeff(s, 4) == mul(Fraction(3, 8), power(c, -4))
    assert series_coeff(s, 1).is_zero() and series_coeff(s, 3).is_zero()

    # raising the series to a power stays an unevaluated Power node
    squared_inverse = power(s, -2)
    assert type(squared_inverse) is Power
    again = series_of(squared_inverse, (v, 0), 6)
    assert series_coeff(again, 0) == 1
    assert series_coeff(again, 2) == mul(-1, power(c, -2))
    for k in (1, 3, 4, 5):
        assert series_coeff(again, k).is_zero()


# ------------------------------------------------------- series_of basics


def test_geometric_series():
    # [DERIVED] 1/(1-x) has all-ones coefficients
    x = symbols("x")[0]
    s = series_of(power(add(1, mul(-1, x)), -1), (x, 0), 4)
    assert_coeffs(s, {0: 1, 1: 1, 2: 1, 3: 1})
    assert s.order == 4
    for n in (1, 2, 7, 12):
        s = series_of(power(add(1, mul(-1, x)), -1), (x, 0), n)
        assert_coeffs(s, {e: 1 for e in range(n)})


def test_polynomial_carries_requested_order():
    # [TRIVIAL] an exact input still only claims the requested order
    x = symbols("x")[0]
    s = series_of(add(power(x, 2), mul(3, x)), (x, 0), 5)
    assert s.order == 5
    assert_coeffs(s, {1: 3, 2: 1})
    # and terms at or past the order are cut
    s = series_of(power(x, 5), (x, 0), 3)
    assert s.order == 3 and not s.terms


def test_laurent_expansion():
    # [DERIVED] 1/(x^2 (1-x)) = x^-2 + x^-1 + 1 + x + O(x^2)
    x = symbols("x")[0]
    e = mul(power(x, -2), power(add(1, mul(-1, x)), -1))
    s = series_of(e, (x, 0), 2)
    assert_coeffs(s, {-2: 1, -1: 1, 0: 1, 1: 1})
    assert s.order == 2


def test_expansion_at_nonzero_point():
    # [DERIVED] 1/x around 1 is the alternating geometric series in (x-1)
    x = symbols("x")[0]
    s = series_of(power(x, -1), (x, 1), 5)
    assert s.point == 1 and s.order == 5
    assert_coeffs(s, {k: Fraction(-1) ** k for k in range(5)})
    # a polynomial re-expanded at 2 recombines to itself
    p = add(power(x, 3), mul(-2, x), 7)
    s = series_of(p, (x, 2), 4)
    assert expand(add(ps_to_expr(s), mul(-1, p))).is_zero()


def test_order_validation():
    x = symbols("x")[0]
    for bad in (0, -3, True, 2.5, "4"):
        with pytest.raises(DomainError):
            series_of(x, (x, 0), bad)


def test_expansion_point_forms():
    # relation, pair, and bare symbol all name the same expansion
    from minicas.expr import Eq

    x = symbols("x")[0]
    e = power(add(1, x), -1)
    a = series_of(e, Eq(x, 0), 3)
    b = series_of(e, (x, 0), 3)
    c = series_of(e, x, 3)
    assert a == b == c
    with pytest.raises(DomainError):
        series_of(e, (power(x, 2), 0), 3)


def test_truncation_consistency():
    # invariant: the order-N expansion is the order-M one cut back
    rng = random.Random(7)
    x = symbols("x")[0]
    for _ in range(40):
        p = random_dict_poly(rng)
        q = random_dict_poly(rng)
        q[0] = Fraction(rng.randint(1, 5))  # keep the denominator regular
        e = mul(dict_to_expr(p, x), power(dict_to_expr(q, x), -1))
        n = rng.randint(1, 5)
        m = n + rng.randint(1, 4)
        small = series_of(e, (x, 0), n)
        big = series_of(e, (x, 0), m)
        for k in range(0, n):
            assert expand(
                add(series_coeff(small, k), mul(-1, series_coeff(big, k)))
            ).is_zero()


def test_taylor_fallback():
    # [DERIVED] sin and exp Taylor coefficients from the factorials
    from minicas.functions import exp, sin

    x = symbols("x")[0]
    s = series_of(exp(x), (x, 0), 9)
    assert_coeffs(s, {k: Fraction(1, math.factorial(k)) for k in range(9)})
    s = series_of(sin(x), (x, 0), 8)
    expected = {
        k: Fraction((-1) ** (k // 2), math.factorial(k)) for k in (1, 3, 5, 7)
    }
    assert_coeffs(s, expected)
    # chain through a polynomial argument: sin(x^2) from substituting
    s2 = series_of(sin(power(x, 2)), (x, 0), 15)
    assert_coeffs(
        s2, {2 * k: c for k, c in expected.items() if 2 * k < 15}
    )


def test_essential_singularity_rejected():
    from minicas.functions import exp

    x = symbols("x")[0]
    with pytest.raises(SeriesError):
        series_of(exp(power(x, -1)), (x, 0), 4)


# ------------------------------------------------------- arithmetic rules


def test_ps_add_order_rules():
    x = symbols("x")[0]
    # [TRIVIAL] (1 + x + O(x^3)) + (x + O(x^2)) = 1 + 2x + O(x^2)
    a = pseries(x, 0, [(lift(1), 0), (lift(1), 1)], 3)
    b = pseries(x, 0, [(lift(1), 1)], 2)
    s = ps_add(a, b)
    assert_coeffs(s, {0: 1, 1: 2})
    assert s.order == 2
    # [TRIVIAL] adding an exact zero series changes nothing
    zero = pseries(x, 0, [], None)
    s = ps_add(a, zero)
    assert coeffs_of(s) == coeffs_of(a) and s.order == a.order
    # [TRIVIAL] Laurent cancellation
    a = pseries(x, 0, [(lift(1), -1)], 1)
    b = pseries(x, 0, [(lift(-1), -1), (lift(1), 0)], 1)
    s = ps_add(a, b)
    assert_coeffs(s, {0: 1})
    assert s.order == 1


def test_ps_mul_order_rules():
    x = symbols("x")[0]
    # [TRIVIAL] (1+x+O(x^2))(1-x+O(x^2)) = 1 + O(x^2)
    a = pseries(x, 0, [(lift(1), 0), (lift(1), 1)], 2)
    b = pseries(x, 0, [(lift(1), 0), (lift(-1), 1)], 2)
    s = ps_mul(a, b)
    assert_coeffs(s, {0: 1})
    assert s.order == 2
    # [TRIVIAL] Laurent degree bookkeeping: (x^-1+O(1))(x+O(x^2)) = 1+O(x)
    a = pseries(x, 0, [(lift(1), -1)], 0)
    b = pseries(x, 0, [(lift(1), 1)], 2)
    s = ps_mul(a, b)
    assert_coeffs(s, {0: 1})
    assert s.order == 1
    # [TRIVIAL] times an exact x^-2: (1+x+O(x^3)) x^-2 = x^-2 + x^-1 + O(x)
    a = pseries(x, 0, [(lift(1), 0), (lift(1), 1)], 3)
    inv_square = dict_to_series({-2: Fraction(1)}, x)
    for s in (ps_mul(a, inv_square), ps_mul(inv_square, a)):
        assert_coeffs(s, {-2: 1, -1: 1})
        assert s.order == 1
    # [DERIVED] geometric partial sum times exact (1-x) telescopes
    geo = pseries(x, 0, [(lift(1), k) for k in range(4)], 4)
    exact = dict_to_series({0: Fraction(1), 1: Fraction(-1)}, x)
    s = ps_mul(geo, exact)
    assert_coeffs(s, {0: 1})
    assert s.order == 4


def test_arithmetic_homomorphism_on_polynomials():
    # exact series arithmetic agrees with expand on the expressions
    rng = random.Random(19)
    x = symbols("x")[0]
    for _ in range(60):
        p = random_dict_poly(rng)
        q = random_dict_poly(rng)
        sp, sq = dict_to_series(p, x), dict_to_series(q, x)
        prod = ps_mul(sp, sq)
        total = ps_add(sp, sq)
        assert prod.order is None and total.order is None
        want_prod = expand(mul(dict_to_expr(p, x), dict_to_expr(q, x)))
        want_sum = add(dict_to_expr(p, x), dict_to_expr(q, x))
        assert expand(add(ps_to_expr(prod), mul(-1, want_prod))).is_zero()
        assert expand(add(ps_to_expr(total), mul(-1, want_sum))).is_zero()


def test_ps_pow_binomial():
    # [DERIVED] (1 + x + O(x^6))^k against generalized binomials
    x = symbols("x")[0]
    base = pseries(x, 0, [(lift(1), 0), (lift(1), 1)], 6)
    for k in (Fraction(-2), Fraction(-1), Fraction(1, 2), Fraction(-5, 3), Fraction(3)):
        s = ps_pow(base, k)
        assert s.order == 6
        for n in range(6):
            assert series_coeff(s, n) == lift(binom_general(k, n)), (k, n)


def test_ps_pow_identities():
    x = symbols("x")[0]
    # [TRIVIAL] a^1 = a
    a = pseries(x, 0, [(lift(2), 1), (lift(3), 2)], 5)
    s = ps_pow(a, 1)
    assert coeffs_of(s) == coeffs_of(a) and s.order == a.order
    # [TRIVIAL] monomial inversion (x + O(x^3))^-1 = x^-1 + O(x)
    a = pseries(x, 0, [(lift(1), 1)], 3)
    s = ps_pow(a, -1)
    assert_coeffs(s, {-1: 1})
    assert s.order == 1
    # [DERIVED] unit-part binomial: (1 + w/2 + O(w^3))^-2 = 1 - w + 3/4 w^2
    w = symbols("w")[0]
    a = pseries(w, 0, [(lift(1), 0), (lift(Fraction(1, 2)), 1)], 3)
    s = ps_pow(a, -2)
    assert_coeffs(s, {0: 1, 1: -1, 2: Fraction(3, 4)})


def test_ps_pow_rejects_bad_input():
    x = symbols("x")[0]
    with pytest.raises(SeriesError):
        ps_pow(pseries(x, 0, [], None), -1)  # exact zero
    with pytest.raises(SeriesError):
        ps_pow(pseries(x, 0, [], 3), -1)  # no visible terms to invert
    with pytest.raises(SeriesError):
        ps_pow(pseries(x, 0, [(lift(1), 1)], 4), Fraction(1, 2))  # x^(1/2)


def test_inversion_correctness():
    # invariant: a * a^-1 = 1 + O(x^k) for random invertible series
    rng = random.Random(23)
    x, y = symbols("x y")
    for trial in range(60):
        ldeg = rng.randint(-2, 2)
        length = rng.randint(1, 4)
        terms = [(lift(Fraction(rng.choice([-3, -2, -1, 1, 2, 3]), rng.randint(1, 3))), ldeg)]
        for j in range(1, length):
            if rng.random() < 0.8:
                c = Fraction(rng.randint(-4, 4))
                if trial % 7 == 0:
                    c = mul(c, y)  # symbolic coefficients invert fine too
                if c != 0:
                    terms.append((lift(c) if not hasattr(c, "kind") else c, ldeg + j))
        a = pseries(x, 0, terms, ldeg + length)
        inv = ps_pow(a, -1)
        prod = ps_mul(a, inv)
        assert prod.order is not None and prod.order >= 1
        assert series_coeff(prod, 0) == 1
        for k in range(1, prod.order):
            assert expand(series_coeff(prod, k)).is_zero()


def test_mismatched_series_rejected():
    x, y = symbols("x y")
    a = pseries(x, 0, [(lift(1), 0)], 2)
    b = pseries(y, 0, [(lift(1), 0)], 2)
    with pytest.raises(DomainError):
        ps_add(a, b)
    c = pseries(x, 1, [(lift(1), 0)], 2)
    with pytest.raises(DomainError):
        ps_mul(a, c)


# ------------------------------------------------------------- conversion


def test_ps_to_expr():
    x = symbols("x")[0]
    # [TRIVIAL] order term drops
    s = pseries(x, 0, [(lift(1), 0), (lift(2), 1)], 2)
    assert ps_to_expr(s) == add(1, mul(2, x))
    # [TRIVIAL] pure order term is zero
    assert ps_to_expr(pseries(x, 0, [], 3)).is_zero()
    # nonzero point rebuilds in powers of (x - point)
    s = pseries(x, 2, [(lift(5), 2)], None)
    assert expand(ps_to_expr(s)) == expand(mul(5, power(add(x, -2), 2)))


def test_series_coeff_bounds():
    x = symbols("x")[0]
    s = pseries(x, 0, [(lift(4), 1)], 3)
    assert series_coeff(s, 2).is_zero()
    with pytest.raises(SeriesError):
        series_coeff(s, 3)
    exact = pseries(x, 0, [(lift(4), 1)], None)
    assert series_coeff(exact, 100).is_zero()


def test_series_through_subs_and_diff():
    # a PSeries node participates in substitution (coefficients only)
    # and differentiates termwise
    from minicas.expr import diff

    x, y = symbols("x y")
    s = pseries(x, 0, [(y, 1), (lift(3), 2)], 4)
    replaced = subs(s, {y: lift(7)})
    assert_coeffs(replaced, {1: 7, 2: 3})
    d = diff(s, x)
    assert coeffs_of(d) == {0: y, 1: lift(6)}
    assert d.order == 3


# ------------------------------------------- the dict-polynomial kernel


def on_trees(f, *args):
    """f(*args) with every series operation on the tree path, the one
    coefficients outside the kernel take."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(series_module, "_kernel", lambda: series_module._TREES)
        return f(*args)


def test_kernel_coefficients_are_the_expanded_tree_path():
    # invariant: every coefficient is expand of what the tree path
    # gives, and is its own expand; an expansion with a sum lead or a
    # refused coefficient is the tree path itself
    rng = random.Random(29)
    x, y, z = symbols("x y z")
    pool = [
        lift(1), lift(-2), lift(Fraction(1, 3)), y, z, Pi, Euler,
        zeta(3), sin(y), power(y, -1), mul(power(y, -2), z),
    ]
    sum_leads = [add(1, y), add(y, Pi)]

    def coeff():
        picked = rng.sample(pool, rng.randint(1, 2))
        return mul(*picked) if rng.random() < 0.5 else add(*picked)

    def poly(deg):
        return add(*[mul(coeff(), power(x, k)) for k in range(deg + 1)])

    for trial in range(50):
        kind = trial % 5
        on_kernel = True
        if kind == 0:  # product, maybe Laurent, maybe by an unexpanded constant
            i = trial // 5
            first = [poly(2), power(add(1, y), 2), mul(y, add(z, Pi))][i % 3]
            second = [lift(1), poly(rng.randint(1, 2))][i % 2]
            e = mul(first, second, power(x, rng.choice([-2, -1, 1, 2])))
        elif kind == 1:  # quotient by a one-term or a sum lead
            lead = rng.choice([y, mul(2, z), sin(y), mul(Pi, power(y, -1))] + sum_leads)
            on_kernel = lead not in sum_leads
            e = mul(poly(2), power(add(lead, mul(x, poly(1))), -rng.randint(1, 2)))
        elif kind == 2:  # rational power with a rational lead power
            k = rng.choice([Fraction(1, 2), Fraction(-1, 2), Fraction(-2, 3), Fraction(3, 2)])
            lead = rng.choice([1, 2, Fraction(1, 3)]) ** k.denominator
            e = power(add(lead, mul(x, poly(2))), k)
        elif kind == 3:  # a quotient times a rational power
            e = mul(
                power(add(y, mul(x, poly(1))), -1),
                power(add(1, mul(x, poly(1))), Fraction(1, 2)),
            )
        else:  # kernel products, then a factor the kernel refuses
            on_kernel = False
            refused = rng.choice([sqrt(2), lift(0.5), I])
            e = mul(poly(2), poly(1), power(add(1, mul(refused, x)), -1))
        n = rng.randint(2, 5)
        got = series_of(e, (x, 0), n)
        tree = on_trees(series_of, e, (x, 0), n)
        assert got.order == tree.order
        if not on_kernel:
            assert got.terms == tree.terms, (trial, to_string(got))
            continue
        want = {k: expand(c) for c, k in tree.terms}
        have = {k: c for c, k in got.terms}
        for k in set(want) | set(have):
            assert have.get(k, lift(0)) == want.get(k, lift(0)), (trial, k)
        for c in have.values():
            assert expand(c) == c, (trial, to_string(c))


def test_a_sum_lead_cancels_as_on_the_tree_path():
    # the kernel keeps a sum under a negative power as an opaque atom,
    # where it cannot cancel against the same sum multiplied out: these
    # differences vanish at x^0, so their reciprocals start at x^-1
    x, y = symbols("x y")
    q = power(add(1, y, x), -1)
    for e in [
        add(mul(add(1, y), q), -1),
        add(mul(add(mul(y, add(1, y)), x), q), mul(-1, y)),
    ]:
        s = series_of(e, (x, 0), 3)
        assert s.terms[0][1] == 1, to_string(s)
        r = series_of(power(e, -1), (x, 0), 2)
        assert r.terms[0][1] == -1, to_string(r)
    r = series_of(power(add(mul(add(1, y), q), -1), -1), (x, 0), 2)
    assert series_coeff(r, -1) == add(-1, mul(-1, y))


def test_refused_coefficients_keep_the_tree_path():
    # floats, I, sqrt(2) and symbolic exponents stay off the kernel, so
    # these print as they did before the kernel took series arithmetic
    x, y, n = symbols("x y n")
    cases = [
        (
            mul(add(2, mul(lift(0.25), x)), power(add(1, mul(lift(0.5), x), mul(y, power(x, 2))), -1)),
            "2-0.75*x+(0.375-2*y)*x^2+(-0.1875+1.75*y)*x^3+O(x^4)",
        ),
        (
            power(add(1, mul(lift(1.5), x), mul(y, x)), Fraction(-1, 2)),
            "1+(-0.75-1/2*y)*x-3/4*(-0.75-1/2*y)*(1.5+y)*x^2"
            "+5/8*(-0.75-1/2*y)*(1.5+y)^2*x^3+O(x^4)",
        ),
        (
            mul(add(1, mul(y, x)), power(add(1, mul(I, x)), -1)),
            "1+(-1*I+y)*x+(-1-1*I*y)*x^2+(I-y)*x^3+O(x^4)",
        ),
        (
            power(add(1, mul(I, x), power(x, 2)), Fraction(1, 2)),
            "1+1/2*I*x+5/8*x^2-5/16*I*x^3+O(x^4)",
        ),
        (
            mul(add(y, x), power(add(1, mul(sqrt(2), x)), -2)),
            "y+(1-2*y*2^(1/2))*x+(6*y-2*2^(1/2))*x^2+(6-8*y*2^(1/2))*x^3+O(x^4)",
        ),
        (
            # the lead's power 2^(1/2) is outside the kernel
            power(add(2, mul(y, x)), Fraction(1, 2)),
            "2^(1/2)+1/4*y*2^(1/2)*x-1/32*y^2*2^(1/2)*x^2+1/128*y^3*2^(1/2)*x^3+O(x^4)",
        ),
        (
            gamma(add(1, mul(sqrt(2), x))),
            "1-Euler*2^(1/2)*x+(1/6*Pi^2+Euler^2)*x^2+(-2/3*2^(1/2)*zeta(3)"
            "-1/9*Pi^2*Euler*2^(1/2)-1/3*Euler*2^(1/2)*(1/6*Pi^2+Euler^2))*x^3+O(x^4)",
        ),
        (
            power(add(1, mul(power(y, n), x)), -1),
            "1-y^n*x+y^(2*n)*x^2-y^n*y^(2*n)*x^3+O(x^4)",
        ),
        (
            # the x coefficients -0.5 and 0.5 cancel to the float 0.0,
            # which drops out before the exact 1 joins
            add(mul(-0.5, x, cos(x)), mul(0.5, sin(x)), log(add(1, x))),
            "x-1/2*x^2+0.5*x^3+O(x^4)",
        ),
    ]
    for e, printed in cases:
        assert to_string(series_of(e, (x, 0), 4)) == printed


def test_a_leaf_lead_that_expands_to_zero_is_inverted_on_the_trees():
    # a Taylor coefficient whose tree is not zero keeps its exponent, as
    # the node did, though the kernel expands it to zero.  The kernel
    # takes the low degree over elements that are not zero, expands the
    # base again at the order that shift asks for, and inverts the true
    # lead: the series is that of sin(x^2)^(-1)
    x, y = symbols("x y")
    zero = add(power(add(1, y), 2), -1, mul(-2, y), mul(-1, power(y, 2)))
    e = power(sin(add(mul(zero, x), power(x, 2))), -1)
    for n in (1, 2, 3, 5):
        s = series_of(e, (x, 0), n)
        assert to_string(s) == to_string(series_of(power(sin(power(x, 2)), -1), (x, 0), n))
    assert series_of(e, (x, 0), 3).terms[0] == (lift(1), -2)


@pytest.mark.xfail(strict=True, reason="the tree ring tests zero structurally, so the tree "
                   "path divides by the zero lead (ROADMAP item 3, step 1)")
def test_the_tree_path_inverts_the_true_lead_of_a_leaf_that_expands_to_zero():
    # the tree path prints (-1-2*y-y^2+(1+y)^2)^(-1)*x^(-1) first, until
    # the trees get a zero test that expands
    x, y = symbols("x y")
    zero = add(power(add(1, y), 2), -1, mul(-2, y), mul(-1, power(y, 2)))
    e = power(sin(add(mul(zero, x), power(x, 2))), -1)
    tree = on_trees(series_of, e, (x, 0), 3)
    assert tree.terms[0] == (lift(1), -2) and tree.order == 3


def test_gamma_series_grows_slowly():
    # [PAPER] the x^2 coefficient, expanded; and the printed series
    # grows by at most 1.6x per order (the unexpanded coefficients
    # doubled with every order)
    x = symbols("x")[0]
    s = series_of(gamma(x), (x, 0), 3)
    assert to_string(s) == (
        "x^(-1)-Euler+(1/12*Pi^2+1/2*Euler^2)*x"
        "+(-1/6*Euler^3-1/12*Pi^2*Euler-1/3*zeta(3))*x^2+O(x^3)"
    )
    sizes = [len(to_string(series_of(gamma(x), (x, 0), n))) for n in range(8, 17)]
    for small, big in zip(sizes, sizes[1:]):
        assert big <= 1.6 * small, sizes
    for c, _ in series_of(gamma(x), (x, 0), 10).terms:
        assert expand(c) == c


def test_a_pole_factor_leaves_the_gamma_series_expanded_once():
    # gamma(x) = gamma(x+1)*x^(-1): the low degree of x^(-1) is known
    # before gamma(x+1) is expanded, at order n+1, once
    x = symbols("x")[0]
    calls = []
    exp_on_ring = series_module._exp
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(series_module, "_exp", lambda *a: calls.append(1) or exp_on_ring(*a))
        s = series_of(gamma(x), (x, 0), 6)
    assert len(calls) == 1
    assert s.order == 6 and s.terms[0][1] == -1


def test_exact_monomial_powers_take_no_products():
    # (c x^e)^k is the monomial c^k x^(e k) whenever e k is an integer
    x, y = symbols("x y")
    calls = []
    mul_on_ring = series_module._mul

    def counted(*args):
        calls.append(1)
        return mul_on_ring(*args)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(series_module, "_mul", counted)
        for c, e, k, want in [
            (lift(1), 1, 3, (lift(1), 3)),
            (lift(1), 1, 0, (lift(1), 0)),
            (add(1, y), 2, 2, (add(1, mul(2, y), power(y, 2)), 4)),
            (mul(3, y), 1, -2, (mul(Fraction(1, 9), power(y, -2)), -2)),
            (lift(4), 2, Fraction(1, 2), (lift(2), 1)),
        ]:
            s = ps_pow(pseries(x, 0, [(c, e)], None), k)
            assert s.terms == (want,) and s.order is None
    # with an order, (c x^e + O(x^N))^k for integer k >= 1 has the terms
    # and order that repeated ps_mul gives: c^k x^(ek) + O(x^(N+(k-1)e))
    for c, e, order, k in [
        (lift(1), 1, 16, 5), (lift(-2), 1, 4, 3), (mul(3, y), 2, 7, 4),
        (add(1, y), -1, 2, 6), (mul(Fraction(1, 2), Pi), -2, 0, 3), (lift(0.5), 1, 3, 4),
        (mul(I, y), 1, 5, 2), (sqrt(2), 3, 5, 7), (add(Euler, zeta(3)), 0, 2, 1),
    ]:
        a = pseries(x, 0, [(c, e)], order)
        want = _ref_ps_pow(a, k)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(series_module, "_mul", counted)
            s = ps_pow(a, k)
        assert s.terms == want.terms and s.order == want.order == order + (k - 1) * e
    assert not calls


def test_an_expansion_sums_once_per_add_and_builds_one_node():
    # inside series_of a series is a dict of ring elements: a p/q
    # expansion reads each of its two sums in one pass, with no n-ary
    # sum, and makes one node in all; gamma(x) shifts to
    # gamma(x+1)*x^(-1), and both hook calls hand back their series in
    # the running ring, so gamma(x) makes one node as well
    x = symbols("x")[0]
    rng = random.Random(5)
    sums, nodes = [], []
    sum_on_ring, build = series_module._sum, series_module.pseries
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(series_module, "_sum", lambda *a: sums.append(1) or sum_on_ring(*a))
        mp.setattr(series_module, "pseries", lambda *a: nodes.append(1) or build(*a))
        for _ in range(4):
            p = add(*[mul(rng.choice([-9, -4, 1, 6]), power(x, k)) for k in range(4)])
            q = add(*[mul(rng.choice([-7, 2, 3, 5]), power(x, k)) for k in range(4)])
            sums.clear(), nodes.clear()
            s = series_of(mul(p, power(q, -1)), (x, 0), 12)
            assert (len(sums), len(nodes), s.order) == (0, 1, 12), to_string(s)
        sums.clear(), nodes.clear()
        series_of(gamma(x), (x, 0), 6)
        assert (len(sums), len(nodes)) == (1, 1)


def test_a_hook_series_prints_what_its_node_round_trip_printed(monkeypatch):
    # the reference keeps the round trip a hook's series took before it
    # was handed back in the running ring: built into its node by
    # _expansion_node, and that node read back by _read, at every level
    # of gamma's shifts, on the kernel and, with a float, on the trees
    x, y = symbols("x y")
    forms = [lambda g: g, lambda g: add(g, mul(y, x), 2), lambda g: mul(g, add(1, x, y)),
             lambda g: power(g, 2), lambda g: power(g, -1), lambda g: mul(g, gamma(add(x, 2))),
             lambda g: add(g, 0.5)]
    cases = [(f(gamma(add(x, k))), pt, n)
             for k in range(-3, 4) for f in forms for pt in (0, 1) for n in range(1, 11)]

    def printed():
        return [_printed(series_of, e, (x, pt), n) for e, pt, n in cases]

    nodes, build = [], series_module.pseries
    monkeypatch.setattr(series_module, "pseries", lambda *a: nodes.append(1) or build(*a))
    got = printed()
    new_nodes = len(nodes)
    hook = gamma.series_hook
    read = []

    def round_trip(args, var, point, n):
        s = hook(args, var, point, n)
        if type(s) is not series_module._Series:
            return s
        read.append(1)
        return series_module._expansion_node(lambda ring: s, var, point)

    monkeypatch.setattr(gamma, "series_hook", round_trip)
    nodes.clear()
    want = printed()
    assert got == want
    # every case answered, a few with an error line, and the node round
    # trip was taken at least once per case and level of shift
    assert sum(": " in t for t in got) < len(got) // 20, [t for t in got if ": " in t][:5]
    assert len(read) >= len(cases) and len(nodes) - new_nodes >= len(read)
    assert any("." in t for t in got)  # the float form took the trees


def test_a_numeric_quotient_builds_no_tree_before_its_node():
    # the sums read in one pass, the number lead inverts on its element
    # and a number coefficient is built as its Numeric: no kernel tree
    # is built, and the one node is the only tree the expansion makes
    x, y = symbols("x y")
    events = []
    tree, build = _Polys.tree, series_module.pseries
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(_Polys, "tree", lambda *a: events.append("tree") or tree(*a))
        mp.setattr(series_module, "pseries", lambda *a: events.append("node") or build(*a))
        p = add(1, mul(-4, x), mul(6, power(x, 3)))
        q = add(2, mul(3, x), mul(-7, power(x, 2)), mul(5, power(x, 3)))
        s = series_of(mul(p, power(q, -1)), (x, 0), 12)
        assert events == ["node"], events
        assert to_string(s).startswith("1/2-11/4*x+")
        # a coefficient with a symbol in it is built by the kernel
        events.clear()
        s = series_of(power(add(1, mul(y, x)), -1), (x, 0), 4)
        assert events.count("node") == 1 and "tree" in events
        assert to_string(s) == "1-y*x+y^2*x^2-y^3*x^3+O(x^4)"


def test_number_series_multiply_and_raise_on_ints_without_elements():
    # all-number operands of a product or power run on ints: p/q and
    # (1+a*x+b*x^2)^r multiply and add no ring element, where gamma's
    # coefficients in Euler, Pi and zeta still do
    x = symbols("x")[0]
    calls = []
    times, plus = series_module._dict_times, series_module._dict_plus
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(series_module, "_dict_times", lambda *a: calls.append(1) or times(*a))
        mp.setattr(series_module, "_dict_plus", lambda *a: calls.append(1) or plus(*a))
        p = add(1, mul(-4, x), mul(6, power(x, 3)))
        q = add(-2, mul(Fraction(3, 5), x), mul(-7, power(x, 2)), mul(5, power(x, 3)))
        for e in [mul(p, power(q, -1)), mul(p, power(q, -2)), power(q, -1)] + [
            power(add(1, mul(a, x), mul(b, power(x, 2))), r)
            for a, b, r in [(2, -3, Fraction(1, 2)), (-3, 2, Fraction(-2, 3)), (3, 5, Fraction(3, 2))]
        ]:
            s = series_of(e, (x, 0), 12)
            assert not calls and s.order == 12, to_string(e)
        series_of(gamma(x), (x, 0), 6)
        assert calls


def test_a_registered_series_hook_joins_the_expansion():
    # the series_hook contract: a hook returns a PSeriesNode, whose
    # coefficients the expansion reads; a hook series on its own prints
    # its trees as they are, and the product expands them on the kernel,
    # or, for a float coefficient, multiplies them on the tree rerun
    x, y = symbols("x y")

    def hook(lead):
        def series_hook(args, var, point, n):
            terms = [(lead, 0), (power(add(1, y), 2), 1), (mul(Fraction(1, 2), y), 3)]
            return pseries(var, point, terms, n)

        return series_hook

    exact = fn_register(FunctionDef("series_hooked_exact", 1, series_hook=hook(mul(y, add(1, y)))))
    floats = fn_register(
        FunctionDef("series_hooked_float", 1, series_hook=hook(mul(lift(0.5), add(1, y))))
    )
    q = power(add(1, mul(-1, x)), -1)
    for e, printed in [
        (exact(x), "y*(1+y)+(1+y)^2*x+1/2*y*x^3+O(x^4)"),
        (mul(exact(x), q), "y+y^2+(1+3*y+2*y^2)*x+(1+3*y+2*y^2)*x^2+(1+7/2*y+2*y^2)*x^3+O(x^4)"),
        (floats(x), "0.5+0.5*y+(1+y)^2*x+1/2*y*x^3+O(x^4)"),
        (
            mul(floats(x), q),
            "0.5+0.5*y+(0.5+0.5*y+(1+y)^2)*x+(0.5+0.5*y+(1+y)^2)*x^2"
            "+(0.5+1.0*y+(1+y)^2)*x^3+O(x^4)",
        ),
    ]:
        assert to_string(series_of(e, (x, 0), 4)) == printed


# ------------------------------------------------ the earlier ring, kept
#
# The series expansion as it was before one kernel served a whole
# expansion and its sums ran on ints: a fresh _Polys per operation, dict
# coefficients over Q, powers of one-term series by squaring, a walk
# that passes a validated node from operation to operation and adds a
# sum one term at a time, and a gamma hook composed of those
# operations.  It shares no code with the series module but
# _normalize_at and _check_compatible.  The differential test below
# requires the expansion of today to print what this printed.


class _RefRefused(Exception):
    pass


_ref_expansion = contextvars.ContextVar("_ref_expansion", default=None)


def _ref_dict_times(*fs) -> dict:
    q, p = 1, None
    for f in fs:
        if type(f) is dict:
            p = f if p is None else _pmul(p, f)
        else:
            q *= f
    return _pscale(p, q)


class _RefRing(NamedTuple):
    plus: Callable
    times: Callable
    out: Callable
    one: object


_REF_TREES = _RefRing(add, mul, lambda c: c, lift(1))


def _ref_is_exact_zero(s) -> bool:
    return not s.terms and s.order is None


def _ref_ldeg(s) -> int:
    if s.terms:
        return s.terms[0][1]
    return 0 if s.order is None else s.order


def _ref_ring(coeffs):
    mode = _ref_expansion.get()
    if mode != "trees":
        polys = _Polys(expand)
        ps = []
        for c in coeffs:
            p = polys.poly(c)
            if p is None:
                break
            ps.append(p)
        if len(ps) == len(coeffs) and not any(type(a) is Add for a in polys.atoms):
            ring = _RefRing(
                lambda *xs: _padd((x, 1) for x in xs), _ref_dict_times, polys.tree,
                {_MONO_ONE: 1},
            )
            return ring, ps
        if mode == "kernel":
            raise _RefRefused
    return _REF_TREES, list(coeffs)


def _ref_ps_add(a, b):
    series_module._check_compatible(a, b)
    if a.order is None:
        order = b.order
    elif b.order is None:
        order = a.order
    else:
        order = min(a.order, b.order)
    ring, cs = _ref_ring([c for c, _ in a.terms + b.terms])
    coeffs = {}
    for c, (_, k) in zip(cs, a.terms + b.terms):
        coeffs[k] = ring.plus(coeffs[k], c) if k in coeffs else c
    return pseries(a.var, a.point, [(ring.out(c), k) for k, c in coeffs.items()], order)


def _ref_ps_scale(a, factor, shift=0):
    order = None if a.order is None else a.order + shift
    ring, (f, *cs) = _ref_ring([factor] + [c for c, _ in a.terms])
    terms = [(ring.out(ring.times(f, c)), k + shift) for c, (_, k) in zip(cs, a.terms)]
    return pseries(a.var, a.point, terms, order)


def _ref_ps_mul(a, b):
    series_module._check_compatible(a, b)
    if _ref_is_exact_zero(a) or _ref_is_exact_zero(b):
        return pseries(a.var, a.point, [], None)
    candidates = []
    if a.order is not None:
        candidates.append(a.order + _ref_ldeg(b))
    if b.order is not None:
        candidates.append(b.order + _ref_ldeg(a))
    order = min(candidates) if candidates else None
    ring, cs = _ref_ring([c for c, _ in a.terms + b.terms])
    ca, cb = cs[: len(a.terms)], cs[len(a.terms) :]
    coeffs = {}
    for x, (_, ka) in zip(ca, a.terms):
        for y, (_, kb) in zip(cb, b.terms):
            k = ka + kb
            if order is not None and k >= order:
                continue
            coeffs.setdefault(k, []).append(ring.times(x, y))
    terms = [(ring.out(ring.plus(*parts)), k) for k, parts in coeffs.items()]
    return pseries(a.var, a.point, terms, order)


def _ref_ps_pow(a, k, rel_hint=None):
    k = Fraction(k)
    if a.order is None and len(a.terms) == 1 and (a.terms[0][1] * k).denominator == 1:
        ((c, e),) = a.terms
        ring, (ck,) = _ref_ring([power(c, k)])
        return pseries(a.var, a.point, [(ring.out(ck), int(e * k))], None)
    if k.denominator == 1 and k >= 0:
        n = int(k)
        result = pseries(a.var, a.point, [(lift(1), 0)], None)
        square = a
        while n:
            if n & 1:
                result = _ref_ps_mul(result, square)
            n >>= 1
            if n:
                square = _ref_ps_mul(square, square)
        return result
    if not a.terms:
        if a.order is None:
            raise SeriesError("zero series raised to a negative or fractional power")
        raise SeriesError("not enough series terms to invert; increase the order")
    m = _ref_ldeg(a)
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
    ring, (inv_lead, scale, *cs) = _ref_ring(
        [power(lead, -1), power(lead, k)] + [c for c, _ in a.terms[1:]]
    )
    u = {}
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


def _ref_ps_exp(a, rel_hint):
    if a.terms and _ref_ldeg(a) < 1:
        raise SeriesError("ps_exp wants a series with positive low degree")
    order = a.order if a.order is not None else rel_hint
    ring, cs = _ref_ring([c for c, _ in a.terms])
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


def _ref_series_of(e, at, order):
    x, point = series_module._normalize_at(at)
    if not isinstance(order, int) or isinstance(order, bool) or order < 1:
        raise DomainError("series order must be a positive integer")
    e = lift(e)
    if _ref_expansion.get() is not None:
        return _ref_series_at(e, x, point, order)
    token = _ref_expansion.set("kernel")
    try:
        return _ref_series_at(e, x, point, order)
    except _RefRefused:
        _ref_expansion.set("trees")
        return _ref_series_at(e, x, point, order)
    finally:
        _ref_expansion.reset(token)


def _ref_series_at(e, x, point, order):
    if not point.is_zero():
        t = Symbol()
        s = _ref_srs(subs(e, {x: add(point, t)}), t, lift(0), order)
    else:
        s = _ref_srs(e, x, point, order)
    s = _ref_truncate_ps(s, order)
    final = order if s.order is None else s.order
    return pseries(x, point, s.terms, final)


def _ref_truncate_ps(s, n):
    if s.order is None and all(k < n for _, k in s.terms):
        return s
    order = n if s.order is None else min(s.order, n)
    return pseries(s.var, s.point, [t for t in s.terms if t[1] < order], order)


def _ref_srs(e, x, point, n):
    t = type(e)
    if x not in free_symbols(e):
        if e.is_zero():
            return pseries(x, point, [], None)
        return pseries(x, point, [(e, 0)], None)
    if t is Symbol:
        return pseries(x, point, [(point, 0), (lift(1), 1)], None)
    if t is Add:
        s = pseries(x, point, [(Numeric(e.coeff), 0)], None)
        for r, k in e.pairs:
            term = _ref_srs(r, x, point, n)
            if not k.is_one():
                term = _ref_ps_scale(term, Numeric(k))
            s = _ref_ps_add(s, term)
        return s
    if t is Mul:
        entities = [r if k.is_one() else power(r, Numeric(k)) for r, k in e.pairs]
        last = max(range(len(entities)), key=lambda i: type(entities[i]) is FunctionApp)
        first = [_ref_srs(f, x, point, n) if i != last else None for i, f in enumerate(entities)]
        rest = sum(_ref_ldeg(s) for s in first if s is not None)
        first[last] = _ref_srs(entities[last], x, point, max(n, n - rest))
        for s in first:
            if _ref_is_exact_zero(s):
                return pseries(x, point, [], None)
        ldegs = [_ref_ldeg(s) for s in first]
        if rest < 0 and first[last].order is not None:
            ldegs[last] = min(ldegs[last], n)
        total = sum(ldegs)
        parts = []
        for i, s in enumerate(first):
            target = n - (total - ldegs[i])
            if target > n and i != last:
                s = _ref_srs(entities[i], x, point, target)
            parts.append(s)
        out = parts[0] if e.coeff.is_one() else _ref_ps_scale(parts[0], Numeric(e.coeff))
        for s in parts[1:]:
            out = _ref_ps_mul(out, s)
        return out
    if t is Power:
        ke = e.exponent
        if type(ke) is Numeric and ke.value.is_rational():
            k = ke.value.as_fraction()
            base = _ref_srs(e.base, x, point, n)
            if _ref_is_exact_zero(base):
                if k > 0:
                    return pseries(x, point, [], None)
                raise SeriesError("pole of infinite order: zero base series")
            m = _ref_ldeg(base)
            want = n - math.floor(m * (k - 1))
            if want > n:
                base = _ref_srs(e.base, x, point, want)
            rel = want - m if base.order is None else None
            return _ref_ps_pow(base, k, rel)
        return _ref_taylor(e, x, point, n)
    if t is FunctionApp:
        hook = e.fdef.series_hook
        if hook is _gamma_series:
            hook = _ref_gamma_series
        if hook is not None:
            got = hook(e.args, x, point, n)
            if got is not None:
                return got
        return _ref_taylor(e, x, point, n)
    if t is PSeriesNode:
        if e.var.serial == x.serial and compare(e.point, point) == 0:
            return _ref_truncate_ps(e, n)
        raise DomainError("cannot re-expand a series in another variable or point")
    raise DomainError(f"cannot expand {t.__name__} in a series")


def _ref_taylor(e, x, point, n):
    terms = []
    d = e
    fact = 1
    for k in range(n):
        try:
            c = subs(d, {x: point})
        except (PoleError, ZeroDivisionError) as err:
            raise SeriesError(f"no series expansion of {e} around {point}: {err}") from err
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


def _ref_gamma_series(args, x, point, n):
    g = args[0]
    v = _exact(subs(g, {x: point}))
    if v is None or not v.is_integer():
        return None
    if v.val <= 0:
        m = -v.val
        shifted = mul(gamma(add(g, m + 1)), *[power(add(g, j), -1) for j in range(m + 1)])
        return _ref_series_of(shifted, (x, point), n)
    if v.val >= 2:
        q = v.val
        shifted = mul(*[add(g, -j) for j in range(1, q)], gamma(add(g, 1 - q)))
        return _ref_series_of(shifted, (x, point), n)
    u = _ref_series_of(add(g, -1), (x, point), n)
    logg = _ref_ps_scale(u, mul(-1, Euler))
    for k in range(2, n):
        c = mul(lift(Fraction((-1) ** k, k)), zeta(k))
        logg = _ref_ps_add(logg, _ref_ps_scale(_ref_ps_pow(u, k), c))
    return _ref_ps_exp(_ref_truncate_ps(logg, n), n)


def _printed(f, *args) -> str:
    try:
        return to_string(f(*args))
    except (DomainError, SeriesError, ZeroDivisionError) as err:
        return f"{type(err).__name__}: {err}"


def _series_input(rng, x, y):
    """A seeded series_of input (expression, point, order) of one of
    eight kinds, the refused and failing ones included."""
    consts = [Pi, Euler, zeta(3)]

    def coeff():
        return rng.choice([
            lift(rng.choice([-3, -2, -1, 1, 2, 3])),
            lift(Fraction(rng.choice([-5, -1, 1, 3]), rng.randint(2, 4))),
            y, mul(rng.randint(1, 2), rng.choice(consts)), add(y, rng.choice(consts)),
            power(y, -1), mul(y, zeta(3)),
        ])

    def poly(lo, hi):
        return add(*[mul(coeff(), power(x, k)) for k in range(lo, hi + 1)])

    kind = rng.randrange(8)
    point, n = 0, rng.randint(1, 6)
    if kind == 0:  # gamma at its pole, at 1 and at 2
        point = rng.choice([0, 1, 2])
        arg = rng.choice([x, x, mul(2, x), add(x, mul(y, power(x, 2)))])
        if point and arg is not x:
            point = 0
        e = gamma(arg) if rng.random() < 0.7 else mul(coeff(), gamma(add(arg, 1)))
    elif kind == 1:  # exp, log and sin of polynomials
        f = rng.choice([exp, log, sin])
        inner = poly(1, 2) if f is not log else add(1, poly(1, 2))
        e = mul(f(inner), rng.choice([lift(1), coeff(), poly(0, 1)]))
    elif kind == 2:  # p/q
        e = mul(poly(0, 2), power(add(rng.choice([1, 2, y, Pi]), poly(1, 2)), -rng.randint(1, 3)))
    elif kind == 3:  # rational powers
        k = rng.choice([Fraction(1, 2), Fraction(-1, 2), Fraction(2, 3), Fraction(-3, 2)])
        e = power(add(rng.choice([1, 4, Fraction(1, 4)]), poly(1, 2)), k)
    elif kind == 4:  # Laurent products and sums at 0, 1 or 2
        point = rng.choice([0, 0, 1, 2])
        e = add(mul(poly(0, 2), power(x, -rng.randint(1, 2))), poly(0, 1))
    elif kind == 5:  # refused: floats, I, sqrt(2), sum leads
        bad = rng.choice([lift(0.5), lift(-1.25), I, sqrt(2), add(1, y)])
        e = rng.choice([
            mul(poly(0, 1), power(add(1, mul(bad, x)), -1)),
            mul(poly(0, 1), power(add(bad, mul(x, poly(0, 1))), -1)),
            power(add(1, mul(bad, x), mul(y, power(x, 2))), Fraction(-1, 2)),
            gamma(add(1, mul(bad, x))),
        ])
    elif kind == 6:  # sums and products of the kinds above
        e = add(mul(gamma(add(x, 1)), poly(0, 1)), exp(poly(1, 1)), mul(x, power(add(2, x), -1)))
    else:  # inputs that fail
        e = rng.choice([
            log(x), power(x, Fraction(1, 2)), exp(power(x, -1)),
            power(add(mul(x, y), power(x, 2)), Fraction(1, 3)), mul(gamma(x), power(sin(x), -1)),
        ])
    return e, point, n


def test_series_print_what_the_earlier_ring_printed():
    # the same series, error text included, as the expansion printed
    # before one kernel served a whole expansion
    rng = random.Random(71)
    x, y = symbols("x y")
    inputs = [_series_input(rng, x, y) for _ in range(520)]
    errors = 0
    for e, p, n in inputs:
        printed = _printed(_ref_series_of, e, (x, p), n)
        assert _printed(series_of, e, (x, p), n) == printed, (to_string(e), p, n)
        errors += printed.startswith(("SeriesError", "DomainError", "ZeroDivisionError"))
    assert 20 <= errors <= 200


def _laurent_sum(rng, x, y, z):
    """A seeded sum over x, y and z: mostly a Laurent polynomial in x
    with coefficients in y, z, Pi, Euler and sin of y or z, and now and
    then a term the one-pass read leaves to the walk (x inside sin, a
    sum holding x under a power, x^(1/2)), one the kernel refuses (a
    float, I, a sum under a negative power) or x-terms that cancel."""
    big = 3**45

    def number():
        return rng.choice([
            lift(rng.choice([-3, -2, -1, 1, 2, 5])),
            lift(Fraction(rng.choice([-7, -1, 1, 3]), rng.choice([2, 3, 4, 9]))),
            lift(rng.choice([big, -big, Fraction(big, 7)])),
        ])

    def exponent():
        if rng.random() < 0.04:
            return rng.choice([_LIMIT - 1, -_LIMIT, _LIMIT - 2, 1 - _LIMIT])
        return rng.randint(-2, 2)

    def factor():
        return rng.choice([
            y, z, Pi, Euler, sin(y), sin(z), power(y, exponent()), power(z, exponent()),
        ])

    def term():
        out = [number(), power(x, rng.randint(-3, 3))]
        out += [factor() for _ in range(rng.randint(0, 2))]
        roll = rng.random()
        if roll < 0.04:
            out.append(sin(x))
        elif roll < 0.07:
            out.append(power(add(1, x), rng.choice([-1, 2])))
        elif roll < 0.10:
            out.append(lift(rng.choice([0.5, -1.25])))
        elif roll < 0.13:
            out.append(add(1, I))
        elif roll < 0.17:
            out.append(power(add(rng.choice([1, 2]), y, rng.choice([0, z])), rng.choice([-1, -2])))
        elif roll < 0.19:
            out.append(power(x, Fraction(1, 2)))
        return mul(*out)

    terms = [term() for _ in range(rng.randint(1, 5))]
    if rng.random() < 0.2:
        # x-terms that cancel once the sum is multiplied out
        c = mul(power(x, rng.randint(-2, 2)), factor())
        terms += [mul(c, power(add(1, y), 2)), mul(-1, c, add(1, mul(2, y), power(y, 2)))]
    if rng.random() < 0.3:
        terms.append(number())
    return add(*terms)


def test_the_one_pass_sum_read_matches_the_term_walk():
    # property: a sum read in one pass into {exponent of x: element}
    # prints what the per-term walk printed, error text included, and
    # takes the same ring: the kernel, or the tree rerun after the
    # kernel refused.  The reference is the walk, the kernel's split
    # answering None.  Sums are expanded alone, under a factor read
    # before them (so x is not the first atom of the kernel, and a
    # negative field below x's would borrow from a careless read), as
    # a reciprocal, and as a quotient of two
    rng = random.Random(2203)
    x, y, z = symbols("x y z")
    kernel, node = series_module._kernel, series_module._node

    reads = []  # for each one-pass read asked for: whether it split

    def walking():
        return kernel()._replace(laurent=lambda e, v: None)

    def splitting():
        ring = kernel()

        def laurent(e, v):
            got = ring.laurent(e, v)
            reads.append(got is not None)
            return got

        return ring._replace(laurent=laurent)

    def run(ring_of, e, point, n):
        rings = []
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(series_module, "_kernel", ring_of)
            mp.setattr(series_module, "_node",
                       lambda r, *a: rings.append(r is series_module._TREES) or node(r, *a))
            printed = _printed(series_of, e, (x, point), n)
        return printed, rings[-1] if rings else None

    trees = errors = 0
    for _ in range(1100):
        s = _laurent_sum(rng, x, y, z)
        e = rng.choice([
            s, s,
            mul(power(rng.choice([y, z, mul(y, power(z, -1))]), -1), s),
            power(s, -1),
            mul(s, power(_laurent_sum(rng, x, y, z), -1)),
        ])
        point, n = rng.choice([0, 0, 1, -1]), rng.randint(1, 8)
        want = run(walking, e, point, n)
        got = run(splitting, e, point, n)
        assert got == want, (to_string(e), point, n)
        trees += want[1] is True
        errors += want[0].startswith(("SeriesError", "DomainError", "ZeroDivisionError"))
    # the draw reaches the kernel, the tree rerun and the error path, and
    # both the one-pass read and its answer None
    split = sum(reads)
    assert 200 <= trees <= 700 and 20 <= errors <= 400, (trees, errors)
    assert split >= 1000 and len(reads) - split >= 300, (split, len(reads))


def _number_case(rng, x, y):
    """A seeded expansion, or ps_mul or ps_pow of nodes, whose operands
    are mostly series of rational numbers: Fraction and 3^45
    coefficients, zeros in the middle, negative leads and leads with
    denominators, shifts by x^(-2) to x^2, and now and then a symbol
    or a lead whose power is irrational.  Answers (run, args)."""
    big = 3**45

    def number():
        roll = rng.random()
        if roll < 0.15:
            return 0
        if roll < 0.25:
            return rng.choice([big, -big, Fraction(big, 7), Fraction(-5, big)])
        return Fraction(rng.choice([-7, -3, -2, -1, 1, 2, 3, 5]), rng.choice([1, 1, 2, 3, 4]))

    def lead():
        return rng.choice([1, -1, 2, -3, Fraction(-3, 2), Fraction(1, 5), big])

    def square_lead():
        # a lead whose power is rational, now and then one whose is not
        return rng.choice([1, 1, 4, Fraction(9, 4), Fraction(1, 16), 2, 3])

    def poly(first, deg=None):
        deg = rng.randint(0, 3) if deg is None else deg
        return add(mul(first, power(x, 0)), *[mul(number(), power(x, k)) for k in range(1, deg + 1)])

    def shifted(e):
        return mul(power(x, rng.randint(-2, 2)), e) if rng.random() < 0.3 else e

    n = rng.randint(1, 20)
    at = (x, rng.choice([0, 0, 1, -1]))
    kind = rng.randrange(8)
    if kind == 0:  # p/q and p/q^2
        e = mul(poly(number()), power(shifted(poly(lead(), rng.randint(1, 3))), -rng.randint(1, 2)))
    elif kind == 1:  # q^(-1), q^(-2), q^(1/2), q^(-3/2)
        k = rng.choice([-1, -2, Fraction(1, 2), Fraction(-3, 2)])
        first = lead() if k.denominator == 1 else square_lead()
        e = power(shifted(poly(first, rng.randint(1, 3))), k)
    elif kind == 2:  # (1 + a x + b x^2)^r
        r = rng.choice([Fraction(1, 2), Fraction(-1, 2), Fraction(1, 3), Fraction(-2, 3), Fraction(3, 2)])
        e = power(add(1, mul(number(), x), mul(number(), power(x, 2))), r)
    elif kind == 3:  # a shifted quotient times a power
        e = shifted(mul(power(poly(lead(), 2), -1), power(poly(square_lead(), 2), Fraction(1, 2))))
    elif kind == 4:  # y p/q: a symbol keeps the elements
        e = mul(y, poly(number()), power(poly(lead(), 2), -1))
    elif kind == 5:  # a lead power outside the kernel
        e = power(add(rng.choice([2, 3, -2]), x), rng.choice([Fraction(1, 2), Fraction(-3, 2)]))
    else:  # ps_mul and ps_pow of number nodes
        def node():
            lo = rng.randint(-2, 2)
            terms = [(lift(c), lo + j) for j, c in enumerate([lead()] + [number() for _ in range(3)])]
            return pseries(x, 0, [t for t in terms if not t[0].is_zero()],
                           rng.choice([None, lo + rng.randint(1, 8)]))

        if kind == 6:
            return ps_mul, (node(), node())
        k = rng.choice([-1, -2, 2, 3, Fraction(1, 2), Fraction(-3, 2)])
        return ps_pow, (node(), k, rng.choice([None, n]))
    return series_of, (e, at, n)


def test_number_series_on_ints_print_what_the_elements_print():
    # property: a product or power whose coefficients are all numbers,
    # run on ints over one denominator, prints what the same operation
    # on kernel elements prints, error text included; the reference is
    # the elements, the numeric check answering None.  Every element
    # the ints build is in lowest terms over a positive denominator
    rng = random.Random(2411)
    x, y = symbols("x y")
    ints, rational = series_module._ints, series_module._rational
    taken = []

    def spied(s):
        got = ints(s)
        taken.append(got is not None)
        return got

    def checked(n, d):
        got = rational(n, d)
        assert got[1] > 0 and math.gcd(got[0], got[1]) == 1 and got[0] * d == n * got[1], (n, d)
        return got

    errors = 0
    for _ in range(1200):
        f, args = _number_case(rng, x, y)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(series_module, "_ints", lambda s: None)
            want = _printed(f, *args)
        errors += want.startswith(("SeriesError", "DomainError", "ZeroDivisionError"))
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(series_module, "_ints", spied)
            mp.setattr(series_module, "_rational", checked)
            got = _printed(f, *args)
        assert got == want, (f.__name__, [to_string(a) if isinstance(a, PSeriesNode) else a
                                          for a in args])
    # the draw reaches the ints, the elements and the error path
    assert sum(taken) >= 1000 and len(taken) - sum(taken) >= 300, (sum(taken), len(taken))
    assert errors >= 20, errors


def test_an_exact_power_is_cut_to_the_order_it_needs():
    # an exact base raised to an integer power is cut where the power
    # reaches the order, past its lead, so it is not multiplied out in
    # full; cut at that order alone, the base of the last statement
    # would leave O(x^(-48))
    for stmt, want in [
        ("series((1+x)^400, x==0, 3);", "1+400*x+79800*x^2+O(x^3)"),
        ("series((1+x)^1000, x==0, 3);", "1+1000*x+499500*x^2+O(x^3)"),
        ("series((1+x)^2000, x==0, 3);", "1+2000*x+1999000*x^2+O(x^3)"),
        ("series((1+x)^(2^20), x==0, 2);", "1+1048576*x+O(x^2)"),
        ("series(sin(x)*(1+x)^500, x==0, 3);", "x+500*x^2+O(x^3)"),
        ("series((-2*x+1/3*x^2+x^3)^8, x==0, 1);", "O(x)"),
    ]:
        start = time.perf_counter()
        assert Shell().feed(stmt) == [want], stmt
        assert time.perf_counter() - start < 1, stmt


def test_a_cut_power_prints_what_the_uncut_power_printed():
    # property: integer powers of exact bases, cut, print what the
    # expansion that multiplied them out in full printed (the earlier
    # ring above), error text included: float, y and sin(y)
    # coefficients, Laurent shifts, points 0 and 1 and orders 1 to 7
    rng = random.Random(4099)
    x, y = symbols("x y")

    def coeff():
        return rng.choice([lift(rng.randint(-3, 3)), lift(Fraction(rng.choice([-1, 1, 5]), 3)),
                           lift(rng.choice([0.5, -1.25])), y, mul(-2, y), sin(y)])

    errors = 0
    for _ in range(400):
        lo = rng.randint(-2, 1)
        base = add(*[mul(coeff(), power(x, lo + j)) for j in range(rng.randint(1, 4))])
        k = rng.choice([0, 1, 2, 3, 5, 8, -1, -2, Fraction(1, 2), Fraction(-3, 2)])
        e = rng.choice([power(base, k), mul(power(base, k), rng.choice([sin(x), power(x, -1), y]))])
        at, n = (x, rng.choice([0, 0, 1])), rng.randint(1, 7)
        printed = _printed(_ref_series_of, e, at, n)
        assert _printed(series_of, e, at, n) == printed, (to_string(e), at, n)
        errors += printed.startswith(("SeriesError", "DomainError", "ZeroDivisionError"))
    assert errors >= 10, errors
