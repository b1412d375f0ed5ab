"""Polynomial algebra tests.

The gcd machinery is checked against two independent oracles: a plain
Euclidean algorithm over Q for univariate inputs, and products of
distinct primitive linear forms (irreducible, pairwise non-associate)
with hand-picked multiplicities for multivariate ones.  The remaining
properties follow the module contract: divisibility of both inputs,
coprime quotients, heuristic and subresultant agreement, reassembly of
unit * content * primpart, and value preservation through normal().
"""

import math
import random
from collections import Counter
from fractions import Fraction

import pytest

from minicas.errors import DomainError
from minicas.expr import (
    Add,
    Constant,
    ExprList,
    FunctionApp,
    MatrixNode,
    Mul,
    Numeric,
    Pi,
    Power,
    PSeriesNode,
    Symbol,
    Euler,
    add,
    diff,
    evalf,
    expand,
    free_symbols,
    lift,
    mul,
    power,
    sqrt,
    subs,
    symbols,
    to_string,
)
from minicas import expr as expr_module
from minicas.expr import _FIELD, _MONO_ONE, _expand_pairwise, _padd, _Polys, _rewrite, _split_factor, _terms_of
from minicas.functions import cos, exp, sin
from minicas.shell import Shell
from minicas import numbers as numbers_module
from minicas import poly as poly_module
from minicas.numbers import Number, num
from minicas.poly import (
    _from_dict,
    _to_dict,
    coeff,
    collect,
    content_primpart,
    degree,
    exact_quotient,
    heur_gcd,
    lcm,
    ldegree,
    normal,
    poly_gcd,
    sr_gcd,
)

# ---------------------------------------------------------------- oracles


def _trim(p: list) -> list:
    while p and p[-1] == 0:
        p.pop()
    return p


def euclid_gcd(a: list, b: list) -> list[Fraction]:
    """Primitive integer gcd of two coefficient lists (index = exponent)
    with positive leading coefficient, by Euclidean remainders over Q.

    Entirely independent of the dict representation, the heuristic, and
    the subresultant sequence under test.
    """
    a = _trim([Fraction(c) for c in a])
    b = _trim([Fraction(c) for c in b])
    while b:
        r = a[:]
        while _trim(r) and len(r) >= len(b):
            q = r[-1] / b[-1]
            shift = len(r) - len(b)
            for i, c in enumerate(b):
                r[shift + i] -= q * c
            _trim(r)
        a, b = b, r
    if not a:
        return []
    scale = Fraction(1) / list_content(a)
    if a[-1] < 0:
        scale = -scale
    return [c * scale for c in a]


def list_content(p: list[Fraction]) -> Fraction:
    """Positive rational content: gcd of numerators over lcm of
    denominators."""
    num = 0
    den = 1
    for c in p:
        num = gcd_int(num, abs(c.numerator))
        den = den * c.denominator // gcd_int(den, c.denominator)
    return Fraction(num, den)


def gcd_int(a: int, b: int) -> int:
    while b:
        a, b = b, a % b
    return abs(a)


def list_to_expr(p: list, x) -> object:
    return add(*(mul(lift(c), power(x, k)) for k, c in enumerate(p)))


def rand_list(rng, deg: int, h: int) -> list[Fraction]:
    p = [Fraction(rng.randint(-h, h)) for _ in range(deg + 1)]
    p[-1] = Fraction(rng.choice([c for c in range(-h, h + 1) if c]))
    return p


def rand_poly(rng, vars, deg: int, terms: int, h: int):
    parts = [lift(rng.randint(-h, h))]
    for _ in range(terms):
        fs = [lift(rng.randint(-h, h))]
        for v in vars:
            fs.append(power(v, rng.randint(0, deg)))
        parts.append(mul(*fs))
    return add(*parts)


def rand_linear_form(rng, vars):
    """A primitive linear form with positive coefficient on the first
    variable present, as (coeff tuple, Expr)."""
    while True:
        cs = [rng.randint(-3, 3) for _ in vars] + [rng.randint(-3, 3)]
        if not any(cs[:-1]):
            continue
        g = 0
        for c in cs:
            g = gcd_int(g, c)
        cs = [c // g for c in cs]
        lead = next(c for c in cs if c)
        if lead < 0:
            cs = [-c for c in cs]
        e = add(*(mul(c, v) for c, v in zip(cs, vars)), cs[-1])
        return tuple(cs), e


# ------------------------------------------------------ structural queries


def test_degree_examples():
    x, y = symbols("x y")
    assert degree(lift(0), x) == 0  # [TRIVIAL]
    assert degree(lift(7), x) == 0  # [TRIVIAL]
    e = add(power(x, 3), mul(2, x), mul(y, power(x, 2)))
    assert degree(e, x) == 3
    assert ldegree(e, x) == 1
    assert degree(e, y) == 1
    # expansion happens first: (x + 1)**4 has visible degree 4
    assert degree(power(add(x, 1), 4), x) == 4


def test_degree_laurent_example():
    # [DERIVED] every term of 2 d^3 (4a + 5b - 3) / e carries e^(-1)
    a, b, d, e = symbols("a b d e")
    q = mul(2, power(d, 3), add(mul(4, a), mul(5, b), -3), power(e, -1))
    assert degree(q, e) == -1
    assert ldegree(q, e) == -1
    assert degree(q, d) == 3
    assert ldegree(q, a) == 0


def test_degree_rejects_non_polynomial_positions():
    x, y = symbols("x y")
    with pytest.raises(DomainError):
        degree(sin(x), x)
    with pytest.raises(DomainError):
        degree(power(x, y), x)
    with pytest.raises(DomainError):
        degree(power(x, Fraction(3, 2)), x)
    with pytest.raises(DomainError):
        degree(power(add(x, 1), -1), x)
    with pytest.raises(DomainError):
        degree(add(x, 1), lift(5))
    # the same guard applies to the expanded form only: sin(y) is a
    # perfectly good coefficient as long as x stays outside
    assert degree(mul(sin(y), power(x, 2)), x) == 2


def test_coeff_examples():
    x, y = symbols("x y")
    assert coeff(power(add(x, y), 2), x, 1) == mul(2, y)  # [DERIVED] binomial
    assert coeff(power(add(x, y), 2), x, 2) == lift(1)
    assert coeff(add(x, 1), x, 5) == lift(0)
    q = mul(add(y, 2), power(x, -1))
    assert coeff(q, x, -1) == add(y, 2)
    with pytest.raises(DomainError):
        coeff(add(x, 1), x, Fraction(1, 2))


def test_collect_spec_example():
    x, y = symbols("x y")
    e = add(mul(x, y), x, -3, mul(2, power(x, 2)))
    got = collect(e, x)
    want = add(mul(2, power(x, 2)), mul(add(1, y), x), -3)
    assert got == want
    assert expand(got) == expand(e)


def test_collect_coeff_round_trip():
    rng = random.Random(1101)
    x, y = symbols("x y")
    for _ in range(40):
        e = rand_poly(rng, [x, y], 3, 4, 6)
        lo, hi = ldegree(e, x), degree(e, x)
        rebuilt = add(*(mul(coeff(e, x, k), power(x, k)) for k in range(lo, hi + 1)))
        assert expand(rebuilt) == expand(e)
        assert expand(collect(e, x)) == expand(e)


# ------------------------------------------------------------------- gcds


def test_gcd_numeric_and_zero_cases():
    x = Symbol("x")
    assert poly_gcd(4, 6) == lift(2)
    assert poly_gcd(0, 0) == lift(0)
    assert poly_gcd(mul(-2, x), 0) == mul(2, x)  # unit normal
    assert poly_gcd(0, add(mul(-3, x), -3)) == add(mul(3, x), 3)
    # rational contents: quotients by the gcd are coprime integers
    assert poly_gcd(mul(Fraction(1, 2), x), mul(Fraction(1, 3), x)) == mul(
        Fraction(1, 6), x
    )


def test_gcd_of_a_tree_that_expands_to_zero():
    # the zero test is made on the dicts, so every entry point sees 0
    x = Symbol("x")
    zero = add(power(add(x, 1), 2), mul(-1, power(x, 2)), mul(-2, x), -1)
    for gcd in (poly_gcd, heur_gcd, sr_gcd):
        assert gcd(zero, add(mul(-2, x), -6)) == add(mul(2, x), 6)


def test_gcd_univariate_against_euclid():
    rng = random.Random(40961)
    x = Symbol("x")
    for _ in range(120):
        g0 = rand_list(rng, rng.randint(0, 3), 4)
        p = rand_list(rng, rng.randint(0, 3), 5)
        q = rand_list(rng, rng.randint(0, 3), 5)
        a = expand(mul(list_to_expr(g0, x), list_to_expr(p, x)))
        b = expand(mul(list_to_expr(g0, x), list_to_expr(q, x)))
        # the oracle works on plain coefficient lists
        amul = _list_mul(g0, p)
        bmul = _list_mul(g0, q)
        prim = euclid_gcd(amul, bmul)
        cont = frac_gcd(list_content(amul), list_content(bmul))
        want = expand(mul(lift(cont), list_to_expr(prim, x)))
        assert poly_gcd(a, b) == want


def _list_mul(a: list, b: list) -> list[Fraction]:
    out = [Fraction(0)] * (len(a) + len(b) - 1)
    for i, ca in enumerate(a):
        for j, cb in enumerate(b):
            out[i + j] += Fraction(ca) * Fraction(cb)
    return _trim(out)


def frac_gcd(a: Fraction, b: Fraction) -> Fraction:
    num = gcd_int(a.numerator, b.numerator)
    den = a.denominator * b.denominator // gcd_int(a.denominator, b.denominator)
    return Fraction(num, den)


def test_gcd_multivariate_known_factorization():
    # distinct primitive linear forms are pairwise non-associate
    # irreducibles, so the gcd is the product over min multiplicities
    rng = random.Random(77)
    x, y, z = symbols("x y z")
    vars = [x, y, z]
    for _ in range(40):
        forms = {}
        while len(forms) < 3:
            sig, e = rand_linear_form(rng, vars)
            forms[sig] = e
        ca, cb = rng.randint(1, 4), rng.randint(1, 4)
        alphas = [rng.randint(0, 2) for _ in range(3)]
        betas = [rng.randint(0, 2) for _ in range(3)]
        fs = list(forms.values())
        a = expand(mul(ca, *(power(f, k) for f, k in zip(fs, alphas))))
        b = expand(mul(cb, *(power(f, k) for f, k in zip(fs, betas))))
        want = expand(
            mul(
                gcd_int(ca, cb),
                *(power(f, min(i, j)) for f, i, j in zip(fs, alphas, betas)),
            )
        )
        assert poly_gcd(a, b) == want


def test_gcd_divisibility_and_coprime_quotients():
    rng = random.Random(555)
    x, y = symbols("x y")
    for _ in range(200):
        g0 = rand_poly(rng, [x, y], 2, 3, 4)
        a = expand(mul(g0, rand_poly(rng, [x, y], 2, 3, 5)))
        b = expand(mul(g0, rand_poly(rng, [x, y], 2, 3, 5)))
        if a == lift(0) or b == lift(0):
            continue
        g = poly_gcd(a, b)
        qa = exact_quotient(a, g)  # raises if the division is not exact
        qb = exact_quotient(b, g)
        assert poly_gcd(qa, qb) == lift(1)
        if g0 != lift(0):
            # the planted factor must divide the gcd
            exact_quotient(g, poly_gcd(g0, g))


def test_heur_and_sr_agree():
    rng = random.Random(909)
    x, y = symbols("x y")
    gave_up = 0
    for _ in range(200):
        g0 = rand_poly(rng, [x, y], 2, 2, 4)
        a = expand(mul(g0, rand_poly(rng, [x, y], 2, 2, 5)))
        b = expand(mul(g0, rand_poly(rng, [x, y], 2, 2, 5)))
        if a == lift(0) or b == lift(0):
            continue
        hg = heur_gcd(a, b)
        if hg is None:
            gave_up += 1
            continue
        assert hg == sr_gcd(a, b)
        assert hg == poly_gcd(a, b)
    assert gave_up < 10


def test_a_constant_heuristic_candidate_is_the_gcd_without_a_division(monkeypatch):
    # a candidate of 1 divides both inputs, so it is the gcd; no trial
    # division by 1 may walk the inputs
    rng = random.Random(4242)
    by_one = []
    divide = poly_module._ddiv_exact

    def spy(a, b):
        by_one.append(b == {_MONO_ONE: 1})
        return divide(a, b)

    monkeypatch.setattr(poly_module, "_ddiv_exact", spy)
    syms = symbols("x y z")
    coprime = 0
    for trial in range(60):
        vars = syms[: 1 + trial % 3]
        forms = {}
        while len(forms) < 4:
            sig, e = rand_linear_form(rng, vars)
            forms[sig] = e
        fs = list(forms.values())
        a = expand(mul(power(fs[0], rng.randint(1, 2)), fs[1]))
        b = expand(mul(fs[2], power(fs[3], rng.randint(1, 2))))
        got = heur_gcd(a, b)
        assert got in (lift(1), None) and not any(by_one)
        coprime += got == lift(1)
        assert sr_gcd(a, b) == lift(1)  # its content divisions may divide by 1
        by_one.clear()
    assert coprime > 40


def scaled_product(rng, c, fs, ks):
    """c * prod f^k unexpanded, each f scaled by a random rational and c
    divided by what the scales contribute."""
    ss = [Fraction(rng.choice([-4, -1, 1, 2, 3]), rng.randint(1, 3)) for _ in fs]
    c = c / math.prod(s**k for s, k in zip(ss, ks))
    return mul(c, *(power(expand(mul(s, f)), k) for s, f, k in zip(ss, fs, ks)))


def test_integer_kernel_gcds_agree_on_planted_and_coprime_pairs(monkeypatch):
    # products of distinct primitive linear forms in 1-3 variables, times
    # rational contents: the gcd is known, and every trial or exact
    # division behind _integerize sees int coefficients only.  Each pair
    # also goes in unexpanded, its forms scaled by rationals that the
    # outer coefficient cancels, so the contents of the factors matter.
    rng = random.Random(8088)
    divisions = []
    divide = poly_module._ddiv_exact

    def int_only(a, b):
        assert all(type(c) is int for p in (a, b) for c in p.values())
        divisions.append(len(a))
        return divide(a, b)

    monkeypatch.setattr(poly_module, "_ddiv_exact", int_only)
    syms = symbols("x y z")
    gave_up = 0
    for trial in range(90):
        vars = syms[: 1 + trial % 3]
        forms = {}
        while len(forms) < 3:
            sig, e = rand_linear_form(rng, vars)
            forms[sig] = e
        fs = list(forms.values())
        alphas = [rng.randint(0, 2) for _ in fs]
        if trial % 2:
            # coprime: no form occurs on both sides
            betas = [0 if k else rng.randint(1, 2) for k in alphas]
        else:
            betas = [rng.randint(1, 2) for _ in fs]
        ca = Fraction(rng.choice([-6, -3, -1, 1, 2, 4, 9]), rng.randint(1, 12))
        cb = Fraction(rng.choice([-6, -3, -1, 1, 2, 4, 9]), rng.randint(1, 12))
        a = expand(mul(ca, *(power(f, k) for f, k in zip(fs, alphas))))
        b = expand(mul(cb, *(power(f, k) for f, k in zip(fs, betas))))
        want = expand(
            mul(list_content([ca, cb]), *(power(f, min(i, j)) for f, i, j in zip(fs, alphas, betas)))
        )
        assert poly_gcd(a, b) == want, (to_string(a), to_string(b))
        assert sr_gcd(a, b) == want
        hg = heur_gcd(a, b)
        if hg is None:
            gave_up += 1
        else:
            assert hg == want
        assert poly_gcd(exact_quotient(a, want), exact_quotient(b, want)) == lift(1)
        ua, ub = scaled_product(rng, ca, fs, alphas), scaled_product(rng, cb, fs, betas)
        assert expand(ua) == a and expand(ub) == b
        assert expand(poly_gcd(ua, ub)) == want, (to_string(ua), to_string(ub))
        assert sr_gcd(ua, ub) == want
        assert heur_gcd(ua, ub) in (want, None)
        assert exact_quotient(ua, want) == exact_quotient(a, want)
    assert gave_up < 5
    assert divisions


def test_unexpanded_factors_whose_contents_cancel():
    # the tree kernel multiplies 1/2 by the contents 2 of the factors into
    # Fractions with denominator 1, which the dict kernel reads as ints
    x, y = Symbol("x"), Symbol("y")
    a = mul(Fraction(1, 2), power(add(mul(2, x), 2), 2))  # 2*(1+x)^2
    b = mul(add(mul(Fraction(1, 2), x), 1), add(mul(2, x), 2))  # (2+x)*(1+x)
    assert to_string(a) == "1/2*(2+2*x)^2"
    assert to_string(b) == "(1+1/2*x)*(2+2*x)"
    for gcd in (poly_gcd, sr_gcd, heur_gcd):
        assert to_string(gcd(a, add(x, 1))) == "1+x"
        assert to_string(gcd(b, add(x, 2))) == "2+x"
    assert to_string(poly_gcd(mul(a, y), mul(add(x, 1), y))) == "y*(1+x)"
    assert to_string(poly_gcd(power(add(mul(-2, x), -2), 3), add(mul(4, x), 4))) == "4+4*x"
    assert to_string(lcm(a, add(x, 1))) == "2+4*x+2*x^2"
    assert to_string(exact_quotient(a, add(x, 1))) == "2+2*x"
    assert to_string(exact_quotient(b, add(x, 2))) == "1+x"
    assert to_string(normal(mul(a, power(b, -1)))) == "(2+x)^(-1)*(2+2*x)"
    assert to_string(normal(power(b, -1))) == "(2+3*x+x^2)^(-1)"
    assert Shell().feed("gcd((2*x+2)^2/2, x+1); gcd((x/2+1)*(2*x+2), x+2);") == ["1+x", "2+x"]


def test_exact_quotient_divides_contents_apart():
    x = Symbol("x")
    half = lift(Fraction(1, 2))
    assert to_string(exact_quotient(add(mul(half, x), 1), 2)) == "1/2+1/4*x"
    a = add(mul(Fraction(3, 4), power(x, 2)), Fraction(-3, 4))
    assert to_string(exact_quotient(a, add(mul(half, x), half))) == "-3/2+3/2*x"
    with pytest.raises(DomainError):
        exact_quotient(a, add(mul(half, x), 2))
    with pytest.raises(DomainError):
        # the leading coefficient 2 does not divide 1 over Z
        exact_quotient(add(power(x, 2), 1), add(mul(2, x), 1))


def test_gcd_factorwise_inputs():
    x, y = symbols("x y")
    a = mul(power(add(x, 1), 2), add(x, 2))
    b = mul(add(x, 1), add(x, 3))
    assert poly_gcd(a, b) == add(x, 1)
    assert poly_gcd(expand(a), b) == add(x, 1)
    g = poly_gcd(power(add(x, 1), 3), power(add(x, 1), 2))
    assert g == expand(power(add(x, 1), 2))
    # factored input with content spread across factors
    assert poly_gcd(mul(add(mul(2, x), 2), y), add(mul(4, x), 4)) == add(
        mul(2, x), 2
    )


# Irreducible primitive factors.  A gcd found factor by factor is a
# product of the factors one input shows it; of two products, the one
# compare puts first is walked, so either argument order finds the same
# factors however each input groups them.
GCD_FACTOR_POOL = ("x+1", "x-1", "x+2", "2*x+3", "x^2+1", "y+1", "x+y", "x*y+1", "x^2+y")
GCD_CONTENTS = ("1", "2", "1/2", "3/4", "-6", "5/3")


def _factored_operand(rng):
    """Pool factors, each scaled by a rational and raised to 1 or 2,
    times a rational."""
    factors = [
        f"({rng.choice([1, 2, 3, '1/2', '2/3', -1])}*({p}))^{rng.randint(1, 2)}"
        for p in rng.sample(GCD_FACTOR_POOL, rng.randint(1, 3))
    ]
    return "*".join([rng.choice(GCD_CONTENTS)] + factors)


def _grouped_operand(rng):
    """Up to four pool factors in one to three groups, each multiplied
    out, times z, which no pool factor shares, and a rational."""
    pool = rng.sample(GCD_FACTOR_POOL, rng.randint(1, 4))
    cuts = sorted(rng.sample(range(1, len(pool)), min(len(pool) - 1, rng.randint(0, 2))))
    groups = [pool[i:j] for i, j in zip([0] + cuts, cuts + [len(pool)])]
    grouped = "*".join("expand(" + "*".join(f"({p})" for p in g) + ")" for g in groups)
    return f"{rng.choice(GCD_CONTENTS)}*z*{grouped}"


def test_factored_gcd_prints_the_same_in_either_order():
    rng = random.Random(202612)
    sh = Shell()
    for _ in range(200):
        a, b = (rng.choice([_factored_operand, _grouped_operand])(rng) for _ in range(2))
        if rng.random() < 0.2:
            b = f"expand({b})"
        ab, ba, expanded, want = sh.feed(
            f"gcd({a}, {b}); gcd({b}, {a}); expand(%%); gcd(expand({a}), expand({b}));"
        )
        assert ab == ba, (a, b)
        assert expanded == want, (a, b)
    assert sh.feed("gcd((x^2-1)*y, (x-1)*(x+1)/2); gcd((x-1)*(x+1)/2, (x^2-1)*y);") == [
        "1/2*(-1+x)*(1+x)", "1/2*(-1+x)*(1+x)"
    ]
    # grouped differently on each side: the factors of the product
    # compare puts first
    assert sh.feed("gcd((x^2-1)*(x+2), (x-1)*(x^2+3*x+2));"
                   "gcd((x-1)*(x^2+3*x+2), (x^2-1)*(x+2));") == [
        "(-1+x)*(2+3*x+x^2)", "(-1+x)*(2+3*x+x^2)"
    ]


def test_gcd_monomial_and_exclusive_variable_prepasses():
    x, y, z = symbols("x y z")
    # [DERIVED] shared monomial x y, remaining parts coprime, contents 6, 4
    g = poly_gcd(mul(6, power(x, 2), y, add(z, 1)), mul(4, x, power(y, 3)))
    assert g == mul(2, x, y)
    # z occurs only on one side and cannot survive
    assert poly_gcd(mul(add(z, 1), x), mul(x, y)) == x


def test_gcd_rejects_non_polynomials():
    x = Symbol("x")
    with pytest.raises(DomainError):
        poly_gcd(add(x, lift(0.5)), x)
    with pytest.raises(DomainError):
        poly_gcd(mul(Pi, x), x)
    with pytest.raises(DomainError):
        poly_gcd(sin(x), x)
    with pytest.raises(DomainError):
        poly_gcd(power(x, -1), x)


def _packed(exps):
    """The packed monomial of an exponent vector: variable j of n in
    field n-1-j, as poly keys its dicts."""
    return sum(k << _FIELD * (len(exps) - 1 - j) for j, k in enumerate(exps))


def _read_expanded(e, vars):
    """e as a dict over vars read term by term off its expanded tree,
    expanded on the pairwise path."""
    out = {}
    for term in _terms_of(_rewrite(e, _expand_pairwise)):
        if type(term) is Mul:
            c, pairs = term.coeff, term.pairs
        elif type(term) is Numeric:
            c, pairs = term.value, ()
        else:
            c, pairs = lift(1).value, (_split_factor(term),)
        if not c.is_rational():
            raise DomainError("coefficient")
        key = [0] * len(vars)
        for b, k in pairs:
            if b not in vars or not k.is_integer() or k.val < 0:
                raise DomainError("term")
            key[vars.index(b)] = k.val
        out[_packed(key)] = out.get(_packed(key), 0) + c.as_fraction()
    return {t: c for t, c in out.items() if c}


def test_to_dict_matches_reading_the_expanded_tree():
    # g - expand(g) cancels only after expansion, together with any
    # function, constant, negative power or float inside g
    x, y, w = symbols("x y w")
    vars = (x, y, w)
    polynomial = [x, y, w, add(x, 1), lift(Fraction(1, 3)), lift(-2)]
    others = [power(x, -1), sin(w), Pi, power(add(x, y), -1), sqrt(x), lift(0.5),
              power(Pi, -1), mul(3, x, power(Pi, -2)), mul(Fraction(-1, 2), power(Euler, -1), y)]
    rng = random.Random(59)

    def part(pieces):
        f = mul(*rng.sample(pieces, rng.randint(1, 3)))
        return add(f, *rng.sample(pieces, rng.randint(0, 2)))

    outcomes = {"dict": 0, "refused": 0}
    for _ in range(500):
        f, g = part(rng.choice([polynomial, polynomial + others])), part(polynomial + others)
        e = rng.choice([f, mul(f, g), add(f, g, mul(-1, expand(g))),
                        mul(add(x, mul(-1, expand(g)), g), power(f, rng.randint(1, 3)))])
        try:
            want = _read_expanded(e, vars)
        except DomainError:
            with pytest.raises(DomainError):
                _to_dict(e, vars)
            outcomes["refused"] += 1
            continue
        assert _to_dict(e, vars) == want, to_string(e)
        outcomes["dict"] += 1
    assert min(outcomes.values()) >= 100


def test_to_dict_reads_a_sum_of_monomials_without_multiplying(monkeypatch):
    # a rational multiple of symbol and constant powers with integer
    # exponents is read as its one term, without _pproduct
    x, y, z = symbols("x y z")
    e = expand(mul(add(x, mul(2, y), power(z, 2), Fraction(1, 3)), add(x, mul(-1, z), 1), add(y, 2)))
    monomials = [mul(Fraction(2, 3), power(Pi, -1), x), mul(power(Pi, 2), power(y, -1), x),
                 power(Pi, -3)]
    want = _to_dict(e, (x, y, z))
    calls = []
    real = expr_module._pproduct
    monkeypatch.setattr(expr_module, "_pproduct", lambda fs: calls.append(1) or real(fs))
    assert _to_dict(e, (x, y, z)) == want and len(want) == 19
    polys = _Polys(expand)
    got = polys.poly(add(*monomials))
    assert not calls
    assert got == _padd((real(polys.factors(m)), 1) for m in monomials) and len(got) == 3


def test_lcm_examples():
    x = Symbol("x")
    assert lcm(4, 6) == lift(12)
    want = expand(mul(add(x, 1), add(x, 2), add(x, 3)))
    assert lcm(expand(mul(add(x, 1), add(x, 2))), expand(mul(add(x, 1), add(x, 3)))) == want
    assert lcm(mul(-2, x), 4) == mul(4, x)
    assert lcm(lift(0), x) == lift(0)


def test_exact_quotient():
    x, y = symbols("x y")
    assert exact_quotient(expand(mul(add(x, y), add(x, -1))), add(x, y)) == add(x, -1)
    assert exact_quotient(lift(0), add(x, 1)) == lift(0)
    with pytest.raises(DomainError):
        exact_quotient(add(power(x, 2), 1), add(x, 1))
    with pytest.raises(ZeroDivisionError):
        exact_quotient(x, lift(0))


def test_content_primpart_examples():
    x, y = symbols("x y")
    unit, cont, prim = content_primpart(add(mul(-1, x), -1), x)
    assert (unit, cont, prim) == (lift(-1), lift(1), add(x, 1))
    unit, cont, prim = content_primpart(
        add(mul(4, power(x, 2), y), mul(6, x, y)), x
    )
    assert unit == lift(1)
    assert cont == mul(2, y)
    assert prim == add(mul(2, power(x, 2)), mul(3, x))
    assert content_primpart(lift(0), x) == (lift(1), lift(0), lift(0))


def test_content_primpart_reassembly():
    rng = random.Random(313)
    x, y = symbols("x y")
    for _ in range(30):
        e = rand_poly(rng, [x, y], 3, 3, 6)
        if e == lift(0):
            continue
        unit, cont, prim = content_primpart(e, x)
        assert expand(mul(unit, cont, prim)) == expand(e)
        assert unit in (lift(1), lift(-1))
        # the primitive part has nothing left to extract
        u2, c2, p2 = content_primpart(prim, x)
        assert (u2, c2, p2) == (lift(1), lift(1), prim)


# ------------------------------------------------------------- normal form


def test_normal_spec_examples():
    x, y = symbols("x y")
    assert normal(add(lift(Fraction(1, 2)), lift(Fraction(1, 3)))) == lift(
        Fraction(5, 6)
    )
    assert normal(mul(add(power(x, 2), -1), power(add(x, -1), -1))) == add(x, 1)
    got = normal(add(power(x, -1), power(y, -1)))
    assert got == mul(add(x, y), power(x, -1), power(y, -1))


def test_normal_denominator_conventions():
    x = Symbol("x")
    # integer denominators move into the numerator's content
    assert normal(mul(x, Fraction(1, 2))) == mul(Fraction(1, 2), x)
    assert normal(mul(add(x, 1), power(lift(2), -1))) == add(
        mul(Fraction(1, 2), x), Fraction(1, 2)
    )
    # the denominator comes out unit normal: 1/(1-x) = -1/(x-1)
    got = normal(power(add(1, mul(-1, x)), -1))
    assert got == mul(-1, power(add(x, -1), -1))


def test_normal_cancels_function_generators():
    x, y = symbols("x y")
    # [DERIVED] second derivative of exp(-x^2) is (4x^2 - 2) exp(-x^2)
    gauss = exp(mul(-1, power(x, 2)))
    h2 = normal(mul(diff(gauss, x, 2), power(gauss, -1)))
    assert h2 == add(mul(4, power(x, 2)), -2)
    # (t^2 - 1)/(t - 1) with t = exp(y)
    e = mul(add(power(exp(y), 2), -1), power(add(exp(y), -1), -1))
    assert normal(e) == add(exp(y), 1)


def test_normal_maps_rational_powers_to_root_generators():
    x = Symbol("x")
    # (x^(3/2) + x^(1/2)) / x^(1/2) cancels through t = x^(1/2)
    num = add(power(x, Fraction(3, 2)), power(x, Fraction(1, 2)))
    got = normal(mul(num, power(x, Fraction(-1, 2))))
    assert got == add(x, 1)
    # unrelated roots stay put
    e = mul(power(x, Fraction(3, 2)), power(add(x, 1), Fraction(1, 2)))
    assert normal(e) == e


def _count_calls(monkeypatch, name):
    """Record the arguments of every call to poly's private helper name."""
    calls = []
    inner = getattr(poly_module, name)

    def counted(*args, **kwargs):
        calls.append(args)
        return inner(*args, **kwargs)

    monkeypatch.setattr(poly_module, name, counted)
    return calls


def test_normal_runs_the_top_level_gcd_once(monkeypatch):
    # the dict pair _normal_pair returns is coprime, its denominator
    # normalized, so the last step only builds the two trees: no second
    # gcd and no second read
    x = Symbol("x")
    gcds = _count_calls(monkeypatch, "_dgcd")
    got = normal(mul(add(power(x, 2), -1), power(mul(add(x, -1), add(x, 2)), -1)))
    assert got == mul(add(x, 1), power(add(x, 2), -1))
    assert [(a, b) for a, b, _ in gcds if len(a) > 1 and len(b) > 1] == [
        # over x alone the packed monomial of x^k is k
        ({2: 1, 0: -1}, {2: 1, 1: 1, 0: -2})
    ]


def test_normal_sums_skip_trivial_gcds(monkeypatch):
    # a running denominator of 1 combines with the next term directly;
    # only the gcd of the final fraction remains, and numerator and
    # denominator are each read into a dict once
    gcds = _count_calls(monkeypatch, "_dgcd")
    reads = _count_calls(monkeypatch, "_to_dict")
    assert Shell().feed("normal((x^2-49)/(x-7));") == ["7+x"]
    assert len(gcds) == 1
    assert sorted(to_string(e) for e, _ in reads) == ["-49+x^2", "-7+x"]


def _ref_gcd_front(a, b, nv):
    """The gcd front before a one-term side answered at once, kept as
    the reference: the structural reductions, then the contents split
    and the gcd core behind the best main variable."""
    P = poly_module
    if not a or not b or a == b:
        return P._dunit_normal(a or b)
    ma, mb = P._fieldwise(min, a, nv), P._fieldwise(min, b, nv)
    mg = P._fieldwise(min, (ma, mb), nv)
    if ma:
        a = {m - ma: c for m, c in a.items()}
    if mb:
        b = {m - mb: c for m, c in b.items()}
    for i in range(nv):
        da = P._degree(a, i, nv)
        db = P._degree(b, i, nv)
        if da and not db:
            a = P._content_along(a, i, nv)
        elif db and not da:
            b = P._content_along(b, i, nv)
    ca, pa = P._integerize(a)
    cb, pb = P._integerize(b)
    cg = math.gcd(ca, cb)
    if pa == pb:
        g = P._pscale(pa, cg)
    elif (i := P._main_var(pa, pb, nv)) is None:
        g = {_MONO_ONE: cg}
    else:
        g = P._dict_gcd(P._permute(pa, i, nv), P._permute(pb, i, nv), nv)
        g = P._pscale(P._dunit_normal(P._permute(g, i, nv, back=True)), cg)
    if mg:
        g = {m + mg: c for m, c in g.items()}
    return g


def test_a_one_term_side_answers_the_gcd_front_at_once(monkeypatch):
    # the gcd with a one-term side is the fieldwise-min monomial times
    # the gcd of every coefficient: what the structural reductions and
    # the core find, with the shortcut taken away from every level
    P = poly_module
    rng = random.Random(2626)

    def monomial(nv):
        return sum(rng.choice([0, 0, 1, 2, 3, _LIMIT - rng.randint(1, 3)]) << _FIELD * i
                   for i in range(nv))

    def coefficient(content):
        return content * rng.choice([-1, 1]) * rng.choice([1, 1, 2, 6, 35, 3**45])

    seen = Counter()
    for _ in range(500):
        nv = rng.randint(1, 4)
        content = rng.choice([1, 1, -1, 2, 6, -12])
        one = {} if rng.random() < 0.08 else {monomial(nv): coefficient(content)}
        other = {monomial(nv): coefficient(content) for _ in range(rng.randint(1, 4))}
        a, b = (one, other) if rng.random() < 0.5 else (other, one)
        got = P._dgcd(a, b, nv)
        if one:
            # the formula on exponent tuples
            fields = [[m >> _FIELD * i & (2**_FIELD - 1) for i in range(nv)] for m in [*a, *b]]
            low = sum(min(f[i] for f in fields) << _FIELD * i for i in range(nv))
            assert got == {low: math.gcd(*a.values(), *b.values())}
        try:
            with monkeypatch.context() as mp:
                mp.setattr(P, "_dgcd", _ref_gcd_front)
                want = _ref_gcd_front(a, b, nv)
        except DomainError:
            # the reference's core met exponents past the limit in the
            # other side's coefficient gcds; the shortcut needs none
            seen["reference overflowed"] += 1
            continue
        assert got == want, (a, b, nv)
        seen["zero" if not one else "one term each" if len(other) == 1 else "one term"] += 1
        seen["content"] += bool(got) and abs(next(iter(got.values()))) > 1
    assert min(seen[k] for k in ("zero", "one term", "one term each", "content")) >= 25, seen


def test_normal_sum_over_number_denominators_keeps_its_terms():
    # the denominators 1/2 and 1/3 have lcm 1: as with no denominators,
    # each term keeps its tree, scaled
    got = Shell().feed(
        "normal(1/(1/(x+1)+x/(x+1)-1/2) + 1/(1/(x+1)+x/(x+1)-2/3) + (x+1)*(y+1));"
        "normal(1/(1/(x+1)+x/(x+1)-1/2) + (x+1)*(y+1));"
    )
    assert got == ["5+(1+x)*(1+y)", "3+x+y+x*y"]


def test_internal_steps_never_call_the_tree_entry_points(monkeypatch):
    # normal and lcm compose dict operations between one read and one
    # build, so they work with every tree-level gcd entry point broken
    rng = random.Random(404)
    t, y = symbols("t y")
    # sum_i i*y*t^i / (y + w_i*t)^i, the normal-sum items' shape
    e = add(*(mul(i, y, power(t, i), power(add(y, mul(rng.randint(1, 9), t)), -i))
              for i in range(1, 6)))
    x = Symbol("x")
    pairs = [
        (mul(power(add(x, 1), 2), y), mul(add(x, 1), add(x, 2))),
        (expand(mul(add(x, 1), add(x, y))), mul(Fraction(1, 2), add(x, y), y)),
        (add(mul(2, x), 2), add(mul(3, x), 3)),
    ]
    want_normal = normal(e)
    want_lcm = [lcm(a, b) for a, b in pairs]

    def broken(*args):
        raise AssertionError("a tree-level entry point was called")

    for name in ("poly_gcd", "exact_quotient", "heur_gcd", "sr_gcd", "lcm"):
        monkeypatch.setattr(poly_module, name, broken)
    assert normal(e) == want_normal
    assert [lcm(a, b) for a, b in pairs] == want_lcm
    assert to_string(want_lcm[0]) == "2*y+5*y*x+4*y*x^2+y*x^3"


def _walked_subtrees(e):
    """The subtrees of e, with the terms of a sum and the coefficient and
    factors of a product as normal's walk meets them."""
    seen, todo = set(), [e]
    while todo:
        x = todo.pop()
        if x not in seen:
            seen.add(x)
            if type(x) is Add:
                todo += _terms_of(x)
            elif type(x) is Mul:
                todo += [Numeric(x.coeff)] + [power(r, Numeric(k)) for r, k in x.pairs]
            elif type(x) is Power:
                todo += [x.base, x.exponent]
    return seen


def test_normal_reads_input_subtrees_and_builds_the_output_once(monkeypatch):
    rng = random.Random(405)
    t, y, x = symbols("t y x")
    reads = _count_calls(monkeypatch, "_to_dict")
    builds = _count_calls(monkeypatch, "_from_dict")
    for _ in range(5):
        # sum_i i*y*t^i / (y + w_i*t)^i, the normal-sum items' shape
        e = add(*(mul(i, y, power(t, i), power(add(y, mul(rng.randint(1, 9), t)), -i))
                  for i in range(1, rng.randint(3, 6))))
        del reads[:], builds[:]
        normal(e)
        # no tree built inside the walk is read back, and the output
        # is built once, as a numerator and a denominator
        subtrees = _walked_subtrees(e)
        assert reads and all(a in subtrees for a, _ in reads)
        assert len(builds) == 2
    del reads[:], builds[:]
    big = power(add(x, 1), 50)
    assert normal(big) == big
    assert reads == [] and builds == []


def test_normal_reads_no_tree_it_built(monkeypatch):
    # (x^2-1)/(x-1) cancels to the tree 1+x; meeting the denominator x
    # next, the sum takes that tree's dict from where it was built
    x = Symbol("x")
    reads = _count_calls(monkeypatch, "_to_dict")
    built = []
    inner = poly_module._from_dict

    def recorded(p, vars):
        built.append(inner(p, vars))
        return built[-1]

    monkeypatch.setattr(poly_module, "_from_dict", recorded)
    e = add(mul(add(power(x, 2), -1), power(add(x, -1), -1)), power(x, -1))
    assert to_string(normal(e)) == "x^(-1)*(1+x+x^2)"
    assert to_string(built[0]) == "1+x" and len(built) == 3
    subtrees = _walked_subtrees(e)
    assert reads and all(a in subtrees for a, _ in reads)
    assert not any(a is built[0] for a, _ in reads)


def test_from_dict_builds_what_the_constructors_build():
    rng = random.Random(3141)
    vars = symbols("a b c d")
    small = numbers_module._SMALL
    empty = preset = 0
    for trial in range(500):
        nv = rng.randint(1, 4)
        p = {}
        for _ in range(rng.randint(0, 6)):
            mono = [0] * nv
            if rng.random() < 0.7:
                for i in rng.sample(range(nv), rng.randint(1, nv)):
                    mono[i] = rng.choice([1, 2, 3, 4, small + 1, _LIMIT - 1])
            c = rng.choice([rng.randint(-9, 9), Fraction(rng.randint(-9, 9), rng.randint(1, 6)),
                            rng.choice([-1, 1]) * rng.choice([small + 1, 10**25]),
                            Fraction(10**25 + 1, rng.choice([3, 7]))])
            if c:
                p[tuple(mono)] = c
        empty += not p
        # the construction _from_dict had, one mul and one add per term
        want = add(*(mul(lift(c), *(power(v, k) for v, k in zip(vars, m) if k))
                     for m, c in p.items()))
        got = _from_dict({_packed(m): c for m, c in p.items()}, vars[:nv])
        assert got == want and hash(got) == hash(want) and to_string(got) == to_string(want), p
        # its numbers as num() makes them, and its free symbols preset
        for k in _numbers_of(got):
            assert type(k.val) is int or k.val.denominator != 1, p
            ref = Number("int" if type(k.val) is int else "rat", k.val)
            assert (k.kind, k.val, k._hash) == (ref.kind, ref.val, ref._hash) and k == num(k.val), p
        if type(got) not in (Numeric, Symbol):
            assert got._free == free_symbols(want), p
            preset += 1
    assert empty > 10 and preset > 350


def _numbers_of(e):
    """The Numbers of a tree of sums, products and powers of symbols."""
    if type(e) is Numeric:
        return [e.value]
    if type(e) is Power:
        return [e.exponent.value]
    if type(e) in (Add, Mul):
        return [e.coeff] + [n for r, k in e.pairs for n in [k] + _numbers_of(r)]
    return []


# ------------------------------------------- packed monomials, on a reference
#
# A tuple-monomial model of poly's dict arithmetic, kept here as the
# reference: exponent vectors as tuples, compared lexicographically.

_LIMIT = expr_module._LIMIT


def _pack_poly(p, nv):
    return {_packed(t): c for t, c in p.items()}


def _ref_mul(a, b):
    out = {}
    for ta, ca in a.items():
        for tb, cb in b.items():
            t = tuple(x + y for x, y in zip(ta, tb))
            out[t] = out.get(t, 0) + ca * cb
    return {t: c for t, c in out.items() if c}


def _ref_div(a, b, steps=None):
    """Tuple division: the exact quotient over Z, or None.  A quotient
    exponent past a's degree less b's in its variable ends it.  steps,
    a list, gets each quotient monomial as it is found."""
    lb = max(b)
    room = [max(ta) - max(tb) for ta, tb in zip(zip(*a), zip(*b))]
    q, r = {}, dict(a)
    while r:
        lr = max(r)
        m = tuple(x - y for x, y in zip(lr, lb))
        if min(m) < 0 or any(x > y for x, y in zip(m, room)):
            return None
        c, rest = divmod(r[lr], b[lb])
        if rest:
            return None
        q[m] = c
        if steps is not None:
            steps.append(m)
        for t, v in b.items():
            key = tuple(x + y for x, y in zip(m, t))
            s = r.get(key, 0) - c * v
            if s:
                r[key] = s
            else:
                r.pop(key, None)
    return q


def _ref_eval_last(p, xi):
    out = {}
    for t, c in p.items():
        out[t[:-1]] = out.get(t[:-1], 0) + c * xi ** t[-1]
    return {t: c for t, c in out.items() if c}


def _random_tuple_poly(rng, nv, big, small_last=False):
    """Up to five terms; a variable of big gets exponents one to three
    below the limit, the others 0 to 3 (the last one stays small when
    small_last)."""
    p = {}
    for _ in range(rng.randint(1, 5)):
        t = tuple(
            _LIMIT - rng.randint(1, 3) if j in big and not (small_last and j == nv - 1)
            else rng.randint(0, 3)
            for j in range(nv)
        )
        p[t] = rng.choice([-3, -2, -1, 1, 2, 5])
    return p


def test_packed_arithmetic_matches_the_tuple_reference():
    P = poly_module
    rng = random.Random(1717)
    seen = {"exact": 0, "inexact": 0, "late": 0, "overflow": 0, "larger_field": 0}
    for _ in range(300):
        nv = rng.randint(2, 4)
        big = set(rng.sample(range(nv), rng.randint(0, 2)))
        a = _random_tuple_poly(rng, nv, big)
        b = _random_tuple_poly(rng, nv, set())
        pa, pb = _pack_poly(a, nv), _pack_poly(b, nv)
        # the lex leading term is the largest packed monomial
        assert max(pa) == _packed(max(a)) and P._dlexlead(pa) == a[max(a)]
        ab = _ref_mul(a, b)
        if max(max(t) for t in ab) < _LIMIT:
            assert P._dmul(pa, pb) == _pack_poly(ab, nv)
            # exact: a*b / b, and an inexact remainder on top
            assert P._ddiv_exact(P._dmul(pa, pb), pb) == pa
            seen["exact"] += 1
            extra = _random_tuple_poly(rng, nv, big)
            num = {t: c for t, c in _padd(((ab, 1), (extra, 1))).items()}
            want = _ref_div(num, b) if num else {}
            got = P._ddiv_exact(_pack_poly(num, nv), pb)
            assert got == (None if want is None else _pack_poly(want, nv))
            seen["inexact"] += want is None
            # inexact only in a*b's lowest term: every quotient term of a
            # comes out before the division fails
            low = dict(ab)
            low[min(ab)] += rng.choice([-1, 1, 7])
            steps = []
            want = _ref_div({t: c for t, c in low.items() if c}, b, steps)
            got = P._ddiv_exact(_pack_poly({t: c for t, c in low.items() if c}, nv), pb)
            assert got == (None if want is None else _pack_poly(want, nv))
            seen["late"] += want is None and len(steps) >= len(a)
        else:
            with pytest.raises(DomainError):
                P._dmul(pa, pb)
            seen["overflow"] += 1
        # a divisor whose lead is larger than the dividend's in one field
        lead = list(max(a))
        j = rng.randrange(nv)
        lead[j] += 1
        if lead[j] < _LIMIT:
            d = {tuple(lead): 1, (0,) * nv: 1}
            assert _ref_div(a, d) is None and P._ddiv_exact(pa, _pack_poly(d, nv)) is None
            seen["larger_field"] += 1
        # generators added since: the fields move up past theirs
        more = rng.randint(1, 2)
        assert P._widen(pa, more) == _pack_poly({t + (0,) * more: c for t, c in a.items()}, nv + more)
        # evaluating the last variable, which keeps small exponents here
        s = _random_tuple_poly(rng, nv, big, small_last=True)
        xi = rng.choice([7, 1000, 2**70 + 1])
        assert P._eval_last(_pack_poly(s, nv), xi) == _pack_poly(_ref_eval_last(s, xi), nv - 1)
        # the tree of a packed dict is the tree of its exponent vectors
        vars = symbols("p q r s")[:nv]
        want_tree = add(*(mul(c, *(power(v, k) for v, k in zip(vars, t) if k))
                          for t, c in a.items()))
        assert P._from_dict(pa, vars) == want_tree
    assert min(seen.values()) >= 20, seen


def test_packed_gcds_match_the_tuple_reference():
    # gcd(g*u, g*v) through the heuristic and through the PRS: the
    # planted g divides the answer, the answer divides both inputs, and
    # the two cores agree.  A monomial factor near the limit comes out
    # in the driver's front, before either core evaluates anything.
    P = poly_module
    rng = random.Random(4242)
    for trial in range(60):
        nv = rng.randint(2, 4)
        g, u, v = (_random_tuple_poly(rng, nv, set()) for _ in range(3))
        a, b = _ref_mul(g, u), _ref_mul(g, v)
        if trial % 3 == 0:
            j = rng.randrange(nv)
            a = _ref_mul(a, {tuple(_LIMIT - 9 if i == j else 0 for i in range(nv)): 1})
            b = _ref_mul(b, {tuple(_LIMIT - 11 if i == j else 0 for i in range(nv)): 1})
        pa, pb = _pack_poly(a, nv), _pack_poly(b, nv)
        want = P._dgcd(pa, pb, nv)
        assert P._dgcd(pa, pb, nv, P._sr_gcd_z) == want
        assert P._dgcd(pa, pb, nv, P._heur_gcd_z) in (None, want)
        ref = {tuple(m >> _FIELD * (nv - 1 - j) & expr_module._MASK for j in range(nv)): c
               for m, c in want.items()}
        _, prim = P._integerize(ref)
        assert _ref_div(a, {t: int(c) for t, c in prim.items()}) is not None
        assert _ref_div(b, {t: int(c) for t, c in prim.items()}) is not None
        assert _ref_div(prim, {t: int(c) for t, c in P._integerize(g)[1].items()}) is not None


def _old_front(a, b, nv):
    """The gcd front as it stood when three preambles shared it, kept as
    the reference with _old_primitive_gcd and _old_dgcd: the structural
    reductions, with a one-term side answered at once."""
    P = poly_module
    if not a or not b or a == b:
        return P._dunit_normal(a or b)
    if len(a) == 1 or len(b) == 1:
        return {P._fieldwise(min, (*a, *b), nv): math.gcd(*a.values(), *b.values())}
    ma, mb = P._fieldwise(min, a, nv), P._fieldwise(min, b, nv)
    mg = P._fieldwise(min, (ma, mb), nv)
    if ma:
        a = {m - ma: c for m, c in a.items()}
    if mb:
        b = {m - mb: c for m, c in b.items()}
    for i in range(nv):
        da = P._degree(a, i, nv)
        db = P._degree(b, i, nv)
        if da and not db:
            a = P._content_along(a, i, nv)
        elif db and not da:
            b = P._content_along(b, i, nv)
    g = _old_primitive_gcd(a, b, nv, P._dict_gcd)
    if mg:
        g = {m + mg: c for m, c in g.items()}
    return g


def _old_primitive_gcd(a, b, nv, core):
    # the second split of the contents, and the main variable
    P = poly_module
    ca, pa = P._integerize(a)
    cb, pb = P._integerize(b)
    cg = math.gcd(ca, cb)
    if pa == pb:
        return P._pscale(pa, cg)
    i = P._main_var(pa, pb, nv)
    if i is None:
        return {_MONO_ONE: cg}
    g = core(P._permute(pa, i, nv), P._permute(pb, i, nv), nv)
    if g is None:
        return None
    return P._pscale(P._dunit_normal(P._permute(g, i, nv, back=True)), cg)


def _old_dgcd(a, b, nv, core=_old_front):
    # the first split of the contents; heur_gcd and sr_gcd passed a core
    # that went to _old_primitive_gcd without the structural front
    P = poly_module
    if not (a and b):
        return _old_front(a, b, nv)
    ca, pa = P._integerize(a)
    cb, pb = P._integerize(b)
    g = core(pa, pb, nv)
    return None if g is None else P._pscale(g, P._qgcd(ca, cb))


def test_the_gcd_driver_answers_what_the_three_preambles_answered(monkeypatch):
    # seeded pairs over Z and Q in 1-4 variables: planted common factors,
    # zero, one-term and equal sides, scalar multiples, monomial factors
    # with exponents near the limit and variables private to one side.
    # The default core gives the old front's dict; the PRS core gives
    # that answer too, and the heuristic core that answer or None.
    P = poly_module
    rng = random.Random(2727)

    def small(nv, allowed, terms):
        return {tuple(rng.randint(0, 2) if j in allowed else 0 for j in range(nv)):
                rng.choice([-3, -2, -1, 1, 2, 5]) for _ in range(terms)}

    def monomial(nv, allowed):
        # near the limit, with room for the degree 4 of g * u
        return {tuple(_LIMIT - rng.randint(5, 9) if j in allowed and rng.random() < 0.5
                      else rng.randint(0, 1) if j in allowed else 0 for j in range(nv)): 1}

    def scaled(p, q):
        return {t: Fraction(c) * q for t, c in p.items()}

    depth = [0]
    trace = Counter()
    driver = P._dgcd

    def traced(a, b, nv, core=None):
        depth[0] += 1
        try:
            return driver(a, b, nv, core)
        finally:
            depth[0] -= 1

    def spy(name):
        inner = getattr(P, name)

        def counted(*args):
            got = inner(*args)
            if depth[0] == 1:
                trace[name, got is None] += 1
            return got

        return counted

    seen = Counter()
    for trial in range(800):
        nv = rng.randint(1, 4)
        over_q = trial % 2
        shared, side_a, side_b = set(range(nv)), set(range(nv)), set(range(nv))
        if nv > 1 and rng.random() < 0.5:
            # a private last variable, after the shared ones, can leave
            # a side that shares no variable with the other
            j = rng.choice([*range(nv), nv - 1, nv - 1])
            shared.discard(j)
            (side_b if rng.random() < 0.5 else side_a).discard(j)
        g = small(nv, shared, rng.randint(1, 3)) if rng.random() < 0.5 else {(0,) * nv: 1}
        a = _ref_mul(g, small(nv, side_a, rng.randint(2, 3)))
        b = _ref_mul(g, small(nv, side_b, rng.randint(2, 3)))
        if rng.random() < 0.35:
            a = _ref_mul(a, monomial(nv, side_a))
            b = _ref_mul(b, monomial(nv, side_b))
        if over_q:
            a = scaled(a, Fraction(rng.choice([1, -1, 2, 3, -5]), rng.choice([1, 2, 3, 7])))
            b = scaled(b, Fraction(rng.choice([1, -1, 4, 3]), rng.choice([1, 5, 6, 9])))
        shape = rng.random()
        if shape < 0.07:
            a, b = ({}, b) if rng.random() < 0.5 else (a, {})
        elif shape < 0.16:
            b = dict(a)
        elif shape < 0.26:
            b = {t: c * rng.choice([-1, 2, -3, 6]) for t, c in a.items()}
        elif shape < 0.36:
            b = {rng.choice(list(b) or [(0,) * nv]): rng.choice([1, -4, Fraction(6, 5)])}
        pa, pb = _pack_poly(a, nv), _pack_poly(b, nv)
        trace.clear()
        with monkeypatch.context() as mp:
            mp.setattr(P, "_dgcd", traced)
            for name in ("_integerize", "_content_along", "_main_var", "_dict_gcd"):
                mp.setattr(P, name, spy(name))
            got = P._dgcd(pa, pb, nv)
        with monkeypatch.context() as mp:
            mp.setattr(P, "_dgcd", _old_front)
            want = _old_dgcd(pa, pb, nv)
            old_heur = _old_dgcd(pa, pb, nv, lambda x, y, n: _old_primitive_gcd(x, y, n, P._heur_gcd_z))
        assert got == want, (a, b, nv)
        assert P._dgcd(pa, pb, nv, P._sr_gcd_z) == got, (a, b, nv)
        heur = P._dgcd(pa, pb, nv, P._heur_gcd_z)
        assert heur in (None, got), (a, b, nv)
        seen["heur answers where it gave None"] += heur is not None and old_heur is None
        # the branch the driver took, from the helpers it called at the top
        if not trace["_integerize", False]:
            seen["zero side" if not (a and b) else "equal sides"] += 1
            continue
        steps = {"one term": min(len(a), len(b)) == 1}
        if not steps["one term"]:
            steps["monomial"] = any(min(t[j] for t in p) for p in (a, b) for j in range(nv))
            steps["private variable"] = trace["_content_along", False] > 0
            steps["equal primitive parts"] = not trace["_main_var", False] + trace["_main_var", True]
            steps["no shared variable"] = trace["_main_var", True] > 0
            steps["core"] = trace["_dict_gcd", False] > 0
        seen.update(k for k, hit in steps.items() if hit)
    branches = ("zero side", "equal sides", "one term", "monomial", "private variable",
                "equal primitive parts", "no shared variable", "core")
    assert min(seen[k] for k in branches) >= 25, seen
    assert seen["heur answers where it gave None"] > 0, seen


def test_products_that_cross_the_exponent_limit_are_refused():
    P = poly_module
    x, y = symbols("x y")
    top = {_packed((_LIMIT - 1, 0)): 1}
    assert P._dmul(top, {_packed((0, 5)): 2}) == {_packed((_LIMIT - 1, 5)): 2}
    for f in (lambda: P._dmul(top, {_packed((1, 0)): 1, _packed((0, 1)): 1}),
              lambda: P._dpow({_packed((2**29, 1)): 1, _MONO_ONE: 1}, 2),
              lambda: _to_dict(mul(power(x, _LIMIT - 1), add(x, y)), (x, y)),
              lambda: _to_dict(add(power(x, _LIMIT), 1), (x, y)),
              lambda: poly_gcd(power(x, _LIMIT), x)):
        with pytest.raises(DomainError, match="^polynomial exponents must stay below 2\\^30$"):
            f()
    # one below the limit reads and prints
    e = mul(power(x, _LIMIT - 1), add(y, 1))
    assert _from_dict(_to_dict(e, (x, y)), (x, y)) == expand(e)


def test_normal_floats_ride_through():
    x = Symbol("x")
    assert normal(mul(lift(2.5), x)) == mul(lift(2.5), x)
    assert normal(add(mul(lift(0.5), x), x)) == mul(lift(1.5), x)


def test_normal_zero_denominator_raises():
    x = Symbol("x")
    e = add(power(add(x, -1), -1), power(add(1, mul(-1, x)), -1))
    with pytest.raises(ZeroDivisionError):
        normal(power(e, -1))
    # a sum that is zero only once expanded, under a negative power: its
    # dict is read before the reciprocal is taken
    zero = add(power(add(x, 1), 2), mul(-1, power(x, 2)), mul(-2, x), -1)
    for e in (power(zero, -1), mul(x, power(zero, -2)), add(1, power(zero, -1))):
        with pytest.raises(ZeroDivisionError, match="^zero denominator after cancellation$"):
            normal(e)


def test_normal_idempotent():
    rng = random.Random(2718)
    x, y = symbols("x y")
    for _ in range(30):
        num = rand_poly(rng, [x, y], 2, 3, 5)
        den = rand_poly(rng, [x, y], 2, 3, 5)
        if den == lift(0):
            continue
        e = add(mul(num, power(den, -1)), rand_poly(rng, [x, y], 2, 2, 3))
        got = normal(e)
        assert normal(got) == got


def test_normal_preserves_values():
    rng = random.Random(424242)
    x, y = symbols("x y")
    checked = 0
    while checked < 50:
        num = rand_poly(rng, [x, y], 2, 3, 5)
        den = rand_poly(rng, [x, y], 2, 3, 5)
        if den == lift(0):
            continue
        e = add(mul(num, power(den, -1)), rand_poly(rng, [x, y], 2, 2, 3))
        ne = normal(e)
        point = {
            x: Fraction(rng.randint(-9, 9), rng.randint(1, 5)),
            y: Fraction(rng.randint(-9, 9), rng.randint(1, 5)),
        }
        try:
            v1 = evalf(subs(e, point), 30)
            v2 = evalf(subs(ne, point), 30)
        except ZeroDivisionError:
            continue  # singular point, try another sample
        f1 = v1.value.as_fraction()
        f2 = v2.value.as_fraction()
        assert abs(f1 - f2) <= Fraction(1, 10**10) * max(1, abs(f1))
        checked += 1


def test_normal_walks_containers():
    x = Symbol("x")
    half = mul(add(power(x, 2), -1), power(add(x, -1), -1))
    m = MatrixNode(1, 2, [half, lift(3)])
    nm = normal(m)
    assert nm.entries[0] == add(x, 1)
    s = half.series((x, 0), 3)
    ns = normal(s)
    assert ns.terms[0][0] == lift(1)


# ------------------------------------------- normal against the tree pairs
#
# normal as it was while its walk returned trees: every branch built its
# pair as trees, the Add step read them back into dicts, and the last
# step read the final pair once more to normalize its denominator.


class _RefGenMap:
    def __init__(self):
        self.stack = []
        self.index = {}

    def sym_for(self, sub):
        got = self.index.get(sub)
        if got is None:
            got = Symbol()
            self.index[sub] = got
            self.stack.append((got, sub))
        return got

    def restore(self, e):
        for s, sub in reversed(self.stack):
            e = subs(e, {s: sub})
        return e


def _ref_normal_pair(e, gm):
    P = poly_module
    one_tree = lift(1)
    t = type(e)
    if t is Numeric:
        if e.value.is_rational():
            fr = e.value.as_fraction()
            return lift(fr.numerator), lift(fr.denominator)
        return gm.sym_for(e), one_tree
    if t is Symbol:
        return e, one_tree
    if t is Add:
        pairs = [_ref_normal_pair(term, gm) for term in _terms_of(e)]
        if all(td == one_tree for _, td in pairs):
            return add(*(tn for tn, _ in pairs)), one_tree
        vars = P._ordered_vars(*(x for pair in pairs for x in pair))
        one = {_MONO_ONE: 1}
        n, d = {}, one
        for tn, td in pairs:
            tn, td = P._to_dict(tn, vars), P._to_dict(td, vars)
            co, q = td, d
            if d != one and td != one:
                g = P._dgcd(d, td, len(vars))
                co, q = P._dquotient(td, g), P._dquotient(d, g)
            n = P._padd(((P._dmul(n, co), 1), (P._dmul(tn, q), 1)))
            d = P._dmul(d, co)
        if d == one and all(type(td) is Numeric for _, td in pairs):
            return add(*(mul(tn, lift(1 / td.value.as_fraction())) for tn, td in pairs)), one_tree
        return _ref_frac_cancel(n, d, vars)
    if t is Mul:
        n, d = _ref_normal_pair(Numeric(e.coeff), gm)
        for r, k in e.pairs:
            fn, fd = _ref_normal_pair(power(r, Numeric(k)), gm)
            n = mul(n, fn)
            d = mul(d, fd)
        if d == one_tree:
            return n, one_tree
        vars = P._ordered_vars(n, d)
        return _ref_frac_cancel(P._to_dict(n, vars), P._to_dict(d, vars), vars)
    if t is Power:
        k = e.exponent
        if type(k) is Numeric and k.value.is_integer():
            bn, bd = _ref_normal_pair(e.base, gm)
            kk = k.value.val
            if kk >= 0:
                return power(bn, kk), power(bd, kk)
            if P._is_exact_zero(bn):
                raise ZeroDivisionError("zero denominator after cancellation")
            return power(bd, -kk), power(bn, -kk)
        if type(k) is Numeric and k.value.is_rational():
            fr = k.value.as_fraction()
            root = gm.sym_for(power(e.base, lift(Fraction(1, fr.denominator))))
            if fr.numerator >= 0:
                return power(root, fr.numerator), one_tree
            return one_tree, power(root, -fr.numerator)
        return gm.sym_for(e), one_tree
    if t in (Constant, FunctionApp, PSeriesNode):
        return gm.sym_for(e), one_tree
    raise DomainError(f"cannot bring {t.__name__} into a rational form")


def _ref_frac_cancel(n, d, vars):
    P = poly_module
    if not d:
        raise ZeroDivisionError("zero denominator after cancellation")
    g = P._dgcd(n, d, len(vars))
    if g != {_MONO_ONE: 1}:
        n, d = P._dquotient(n, g), P._dquotient(d, g)
    return _ref_unit_normal_den(n, d, vars)


def _ref_unit_normal_den(n, d, vars):
    P = poly_module
    cd, d = P._integerize(d)
    return P._from_dict(P._pscale(n, P._qdiv(1, cd)), vars), P._from_dict(d, vars)


def _ref_normal_rule(x, walk):
    P = poly_module
    if x.kind >= PSeriesNode.kind:
        return None
    gm = _RefGenMap()
    n, d = _ref_normal_pair(x, gm)
    if d != lift(1):
        vars = P._ordered_vars(n, d)
        n, d = _ref_unit_normal_den(P._to_dict(n, vars), P._to_dict(d, vars), vars)
    out = n if d == lift(1) else mul(n, power(d, -1))
    return gm.restore(out)


def _printed(f, e):
    try:
        return to_string(f(e))
    except Exception as exc:  # the error text is part of the answer
        return f"{type(exc).__name__}: {exc}"


def _random_rational_expr(rng, x, y, depth):
    """A seeded rational expression in x and y with generators in it:
    functions, floats, Pi, sqrt(2), half-integer powers of x, negative
    powers of sums, nested quotients and sums that cancel to a number."""
    one_plus_x = add(x, 1)
    x2_minus_1 = add(power(x, 2), -1)
    # sums that cancel to the number 1 - q, and their reciprocals
    numbers = [add(mul(x, power(one_plus_x, -1)), power(one_plus_x, -1), lift(-q))
               for q in (Fraction(1, 2), Fraction(2, 3), Fraction(3, 4), 2, -1)]
    c = rng.choice([1, 2, -1])
    leaves = [
        x, y, x, y, lift(Fraction(1, 2)), lift(Fraction(-2, 3)), lift(3), lift(-1),
        add(x, 1), add(y, mul(-2, x)), x2_minus_1, add(x, y),
        sin(x), cos(x), exp(y), lift(0.5), lift(1.5), lift(0.1), Pi, sqrt(2),
        power(x, Fraction(3, 2)), power(x, Fraction(-1, 2)), sqrt(add(x, 1)),
        rng.choice(numbers), power(rng.choice(numbers), -1), power(rng.choice(numbers), -1),
        add(*(power(q, -1) for q in rng.sample(numbers, 2)), mul(one_plus_x, add(y, 1))),
        # c/(x+1), whose reciprocal has a number numerator
        add(mul(c, x, power(x2_minus_1, -1)), mul(-c, power(x2_minus_1, -1))),
        # a sum that is 1 only once expanded
        add(power(one_plus_x, 2), mul(-1, power(x, 2)), mul(-2, x)),
    ]
    if depth == 0 or rng.random() < 0.2:
        return rng.choice(leaves)

    def sub():
        return _random_rational_expr(rng, x, y, depth - 1)

    kind = rng.choice(["add", "add", "mul", "mul", "power", "quotient", "nested"])
    if kind == "add":
        return add(*(sub() for _ in range(rng.randint(2, 3))))
    if kind == "mul":
        return mul(*(sub() for _ in range(rng.randint(2, 3))))
    if kind == "power":
        return power(sub(), rng.choice([2, 3, -1, -1, -2]))
    if kind == "quotient":
        return mul(sub(), power(sub(), -1))
    return power(add(sub(), power(sub(), -1)), -1)


def test_normal_prints_what_the_tree_pairs_printed():
    rng = random.Random(1212)
    x, y = symbols("x y")
    inputs = []
    while len(inputs) < 1100:
        r = rng.random()
        try:
            if r < 0.85:
                inputs.append(_random_rational_expr(rng, x, y, rng.randint(1, 3)))
            elif r < 0.93:
                inputs.append(ExprList([_random_rational_expr(rng, x, y, 2) for _ in range(2)]))
            else:
                inputs.append(MatrixNode(2, 2, [_random_rational_expr(rng, x, y, 2)
                                                for _ in range(4)]))
        except ZeroDivisionError:
            pass  # the constructors met a number 0 under a negative power
    inputs.append(power(add(power(add(x, 1), 2), mul(-1, power(x, 2)), mul(-2, x), -1), -1))
    outcomes = {"same": 0, "zero denominator": 0}
    for e in inputs:
        want = _printed(lambda v: _rewrite(lift(v), _ref_normal_rule), e)
        got = _printed(normal, e)
        if want == "ZeroDivisionError: integer modulo by zero":
            # the old walk kept a sum that expands to 0 as a denominator
            # tree, and failed on its content; the dicts name the cause
            assert got == "ZeroDivisionError: zero denominator after cancellation", to_string(e)
            outcomes["zero denominator"] += 1
            continue
        assert got == want, to_string(e)
        outcomes["same"] += 1
    assert outcomes["same"] >= 1000 and outcomes["zero denominator"] >= 1, outcomes
