"""Expression tree tests.

Expected values marked [DERIVED] come from the dict-based polynomial
oracles below, written independently of the tree code; [TRIVIAL] marks
identities asserted directly.
"""

import os
import random
import subprocess
import sys
from collections import Counter
from fractions import Fraction
from functools import cmp_to_key

import pytest

import minicas
from minicas.errors import DomainError, UnsupportedPatternError
from minicas.expr import (
    Add,
    Constant,
    Eq,
    Euler,
    ExprList,
    I,
    MatrixNode,
    Mul,
    Numeric,
    Pi,
    Power,
    PSeriesNode,
    Relational,
    Symbol,
    add,
    compare,
    diff,
    evalf,
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
from minicas import expr as expr_module
from minicas.expr import (
    _FIELD,
    _expand_pairwise,
    _pmul,
    _Polys,
    _ppow,
    _pproduct,
    _Refused,
    _rewrite,
    _unpack,
)
from minicas.functions import sin, zeta
from minicas import numbers as numbers_module
from minicas.numbers import Number, num, num_add
from minicas.poly import _from_dict, _GenMap, _ordered_vars, normal

# ---------------------------------------------------------------- oracles


def poly_mul_oracle(p, q):
    """Multiply exponent-dict polynomials: {(i, j, ...): coeff}."""
    out = {}
    for ea, ca in p.items():
        for eb, cb in q.items():
            key = tuple(x + y for x, y in zip(ea, eb))
            out[key] = out.get(key, 0) + ca * cb
    return {e: c for e, c in out.items() if c}


def poly_pow_oracle(p, n):
    nvars = len(next(iter(p)))
    out = {(0,) * nvars: 1}
    for _ in range(n):
        out = poly_mul_oracle(out, p)
    return out


def poly_diff_oracle(p, axis):
    out = {}
    for e, c in p.items():
        if e[axis] == 0:
            continue
        key = tuple(x - (1 if i == axis else 0) for i, x in enumerate(e))
        out[key] = out.get(key, 0) + c * e[axis]
    return out


def poly_to_expr(p, syms):
    terms = []
    for e, c in p.items():
        factors = [c] + [power(s, k) for s, k in zip(syms, e) if k]
        terms.append(mul(*factors))
    return add(*terms)


def expr_from_coeffs(coeffs, x):
    """Dense univariate build, constant term first."""
    return add(*[mul(c, power(x, i)) for i, c in enumerate(coeffs)])


# ------------------------------------------------------ canonical invariants


def assert_canonical(e):
    """Walk a tree checking every constructor invariant the module promises."""
    t = type(e)
    if t is Numeric:
        return
    if t in (Symbol, Constant):
        return
    if t is Add:
        assert e.pairs, "empty sum should have collapsed"
        assert len(e.pairs) >= 2 or not e.coeff.is_zero()
        for r, k in e.pairs:
            assert not k.is_zero()
            assert type(r) is not Numeric and type(r) is not Add
            if type(r) is Mul:
                assert r.coeff.is_one()
                assert len(r.pairs) >= 2
            assert_canonical(r)
        for (r1, _), (r2, _) in zip(e.pairs, e.pairs[1:]):
            assert compare(r1, r2) < 0
        return
    if t is Mul:
        assert e.pairs, "empty product should have collapsed"
        assert not e.coeff.is_zero()
        assert not (e.coeff.is_one() and len(e.pairs) == 1 and e.pairs[0][1].is_one())
        for b, k in e.pairs:
            assert not k.is_zero()
            assert type(b) is not Numeric and type(b) is not Mul
            if type(b) is Power and type(b.exponent) is Numeric:
                assert type(b.base) is Numeric and k.is_one()
            assert not (type(b) is Add and k.is_one() and len(e.pairs) == 1)
            assert_canonical(b)
        for (b1, _), (b2, _) in zip(e.pairs, e.pairs[1:]):
            assert compare(b1, b2) < 0
        return
    if t is Power:
        if type(e.exponent) is Numeric:
            v = e.exponent.value
            assert not (v.is_zero() and v.is_exact())
            assert not v.is_one()
            if v.is_integer():
                assert type(e.base) not in (Power, Mul, Numeric)
        assert_canonical(e.base)
        assert_canonical(e.exponent)
        return
    if t is PSeriesNode:
        exps = [k for _, k in e.terms]
        assert exps == sorted(exps) and len(set(exps)) == len(exps)
        for c, _ in e.terms:
            assert not c.is_zero()
            assert_canonical(c)
        return
    for child in getattr(e, "args", getattr(e, "items", getattr(e, "entries", ()))):
        assert_canonical(child)


def random_expr(rng, syms, depth):
    if depth == 0 or rng.random() < 0.3:
        choice = rng.randrange(4)
        if choice == 0:
            return rng.choice(syms)
        if choice == 1:
            return lift(rng.randint(-6, 6))
        if choice == 2:
            return lift(Fraction(rng.randint(-6, 6), rng.randint(1, 6)))
        return lift(rng.choice([0, 1, -1]))
    op = rng.randrange(3)
    if op == 0:
        return add(*[random_expr(rng, syms, depth - 1) for _ in range(rng.randint(2, 4))])
    if op == 1:
        return mul(*[random_expr(rng, syms, depth - 1) for _ in range(rng.randint(2, 4))])
    base = random_expr(rng, syms, depth - 1)
    if base.is_zero():
        base = rng.choice(syms)
    return power(base, rng.randint(-3, 4))


# ------------------------------------------------------------------- tests


def test_numeric_folding_and_collapse():
    x, = symbols("x")
    assert add(1, Fraction(1, 2)) == lift(Fraction(3, 2))  # [TRIVIAL]
    assert to_string(add(1, Fraction(1, 2))) == "3/2"
    assert add(x, mul(-1, x)).is_zero()
    assert mul(add(x, 1), power(add(x, 1), -1)).is_one()
    assert power(x, 0).is_one()
    assert power(lift(0), 0).is_one()
    assert power(x, 1) is x
    assert mul(x).is_zero() is False and mul(x) is x
    assert add() == lift(0) and mul() == lift(1)


def test_pair_merging():
    x, y = symbols("x y")
    assert add(x, x, x) == mul(3, x)
    assert mul(x, x, x) == power(x, 3)
    assert add(mul(2, x), mul(-2, x)).is_zero()
    assert mul(power(x, 2), power(x, -2)).is_one()
    assert add(mul(2, x, y), mul(3, y, x)) == mul(5, x, y)
    # distributing a numeric coefficient over a lone sum
    assert mul(2, add(x, 1)) == add(mul(2, x), 2)
    assert to_string(mul(2, add(x, 1))) == "2+2*x"
    # no distribution with a second symbolic factor
    e = mul(x, add(x, y))
    assert type(e) is Mul and to_string(e) == "x*(x+y)"


def test_power_rules():
    x, y = symbols("x y")
    assert power(power(x, Fraction(1, 2)), 2) is x
    assert power(power(x, 2), 3) == power(x, 6)
    # non-integer outer exponents do not merge blindly
    e = power(power(x, 2), Fraction(1, 2))
    assert type(e) is Power and type(e.base) is Power
    assert power(mul(x, y), 2) == mul(power(x, 2), power(y, 2))
    assert power(mul(2, x), 2) == mul(4, power(x, 2))
    # exact roots come out only when rational
    assert power(4, Fraction(1, 2)) == lift(2)
    assert power(8, Fraction(-2, 3)) == lift(Fraction(1, 4))
    assert power(Fraction(27, 8), Fraction(2, 3)) == lift(Fraction(9, 4))
    s2 = power(2, Fraction(1, 2))
    assert type(s2) is Power
    assert mul(s2, s2) == lift(2)
    assert type(power(-8, Fraction(1, 3))) is Power  # principal root is complex
    assert power(0, Fraction(1, 2)).is_zero()
    with pytest.raises(ZeroDivisionError):
        power(0, -2)
    with pytest.raises(ZeroDivisionError):
        power(0, Fraction(-1, 2))
    # imaginary unit closes the circle
    assert power(I, 2) == lift(-1)
    assert mul(I, I) == lift(-1)


def test_float_contamination_in_trees():
    x, = symbols("x")
    e = add(add(0.5, x), add(0.5, x))
    assert to_string(e) == "1.0+2*x"
    assert to_string(mul(0.0, x)) == "0.0"
    # an exact zero overall coefficient drops out of sums
    assert add(0.0, x) is x


def test_expand_against_poly_oracle():
    x, y = symbols("x y")
    rng = random.Random(41)
    for _ in range(40):
        nterms = rng.randint(2, 4)
        p = {}
        for _ in range(nterms):
            key = (rng.randint(0, 3), rng.randint(0, 3))
            p[key] = p.get(key, 0) + rng.randint(-5, 5)
        p = {e: c for e, c in p.items() if c}
        if not p:
            continue
        n = rng.randint(1, 4)
        base = poly_to_expr(p, (x, y))
        want = poly_to_expr(poly_pow_oracle(p, n), (x, y))  # [DERIVED]
        assert expand(power(base, n)) == want


def test_expand_binomial_coefficients():
    x, y = symbols("x y")
    e = expand(power(add(x, y), 5))
    # [DERIVED] binomial row 1 5 10 10 5 1
    want = add(
        power(x, 5),
        mul(5, power(x, 4), y),
        mul(10, power(x, 3), power(y, 2)),
        mul(10, power(x, 2), power(y, 3)),
        mul(5, x, power(y, 4)),
        power(y, 5),
    )
    assert e == want


def _expand_shape(rng, depth, atoms, numbers):
    """A random tree of sums, products, integer powers and negative
    powers of sums over the given atoms and numbers."""
    if depth == 0 or rng.random() < 0.25:
        return rng.choice(atoms + numbers)
    r = rng.random()
    sub = [_expand_shape(rng, depth - 1, atoms, numbers) for _ in range(rng.randint(2, 3))]
    if r < 0.35:
        return add(*sub)
    if r < 0.7:
        return mul(*sub)
    if r < 0.85:
        return power(add(*sub), rng.choice([-1, -2]))
    base = sub[0] if not sub[0].is_zero() else atoms[0]
    return power(base, rng.choice([2, 3, -1]))


def test_expand_kernel_matches_pairwise_path():
    # the pairwise path distributes one canonical product per cross
    # term; the dict kernel must print exactly what it prints
    x, y, z = symbols("x y z")
    atoms = [x, y, z, Pi, Euler, zeta(3), sin(y)]
    numbers = [lift(2), lift(-3), lift(Fraction(1, 2)), lift(Fraction(-2, 3))]
    s = sqrt(2)
    regrouped = [mul(mul(s, s), s), mul(s, s, s),
                 power(mul(x, y), Fraction(3, 2)), mul(x, y, sqrt(mul(x, y))),
                 mul(2, y, add(1, x)), mul(y, add(2, mul(2, x)))]
    fallback_atoms = atoms + [s, sqrt(x), I] + regrouped
    fallback_numbers = numbers + [lift(1.5), lift(0.25), mul(2, I)]
    rng = random.Random(53)
    compared = kernel = 0
    for n in range(2200):
        fallback = n % 3 == 2
        try:
            e = _expand_shape(rng, 4, fallback_atoms if fallback else atoms,
                              fallback_numbers if fallback else numbers)
            want = to_string(_rewrite(e, _expand_pairwise))
        except ZeroDivisionError:
            with pytest.raises(ZeroDivisionError):
                expand(e)
            continue
        assert to_string(expand(e)) == want, to_string(e)
        compared += 1
        if not fallback and type(e) in (Add, Mul, Power):
            kernel += _Polys(expand).poly(e) is not None
    assert compared >= 2000
    assert kernel >= 1000  # the kernel really took the polynomial shapes
    for e in regrouped:
        f = mul(e, add(x, 1))
        assert to_string(expand(f)) == to_string(_rewrite(f, _expand_pairwise))
    # a sum under a negative power whose base expands to x*(1+y)^(-1):
    # inverted, (1+y) rises to the first power, where a product with a
    # coefficient distributes over it, so the pairwise path decides
    b = add(mul(x, power(add(1, y), -1), add(z, 1)), mul(-1, x, z, power(add(1, y), -1)))
    assert to_string(expand(mul(2, power(b, -1), x, sin(z)))) == "(2+2*y)*sin(z)"


def test_expand_builds_each_output_term_once(monkeypatch):
    x, y, z = symbols("x y z")
    calls = 0
    inner = expr_module._mul_factors

    def counted(factors):
        nonlocal calls
        calls += 1
        return inner(factors)

    monkeypatch.setattr(expr_module, "_mul_factors", counted)
    got = expand(power(add(x, y, z), 30))
    assert type(got) is Add and len(got.pairs) == 496  # [DERIVED] C(32, 2)
    assert calls <= len(got.pairs) + 10
    monkeypatch.undo()

    # one Mul per output term of two or more factors, whatever its coefficient
    want = to_string(_rewrite(power(add(mul(2, x), mul(3, y), z, 1), 20), _expand_pairwise))
    made = 0
    init = expr_module.Mul.__init__

    def counted_init(self, *args):
        nonlocal made
        made += 1
        init(self, *args)

    monkeypatch.setattr(expr_module.Mul, "__init__", counted_init)
    got = expand(power(add(mul(2, x), mul(3, y), z, 1), 20))
    monkeypatch.undo()
    assert type(got) is Add and len(got.pairs) == 1770  # [DERIVED] C(23, 3) - 1
    assert made <= len(got.pairs) + 10
    assert to_string(got) == want


# ------------------------------------------------ packed kernel monomials
#
# _Polys packs a monomial into one int.  The references below keep the
# tuple monomials the kernel had before, {((atom index, exponent), ...):
# coefficient}, and the compare-sorted tree builder.


def _tuple_mul(a, b):
    out = {}
    for ma, ca in a.items():
        for mb, cb in b.items():
            d = dict(ma)
            for i, e in mb:
                d[i] = d.get(i, 0) + e
            m = tuple(sorted((i, e) for i, e in d.items() if e))
            out[m] = out.get(m, 0) + ca * cb
    return {m: c for m, c in out.items() if c}


def _tuple_pow(p, k):
    if len(p) == 1:
        ((m, c),) = p.items()
        return {tuple((i, e * k) for i, e in m): Fraction(c) ** k}
    out = {(): 1}
    for _ in range(k):
        out = _tuple_mul(out, p)
    return out


def _pack(p):
    return {sum(e << expr_module._FIELD * i for i, e in m): c for m, c in p.items()}


def _unpacked(p):
    """p's monomials as tuples, read field by field without _unpack."""
    w = expr_module._FIELD
    out = {}
    for m, c in p.items():
        fields, i = [], 0
        while m:
            e = m % (1 << w)
            if e >= 1 << (w - 1):
                e -= 1 << w
            if e:
                fields.append((i, e))
            m = (m - e) >> w
            i += 1
        out[tuple(fields)] = c
    return out


def _tuple_poly(rng, natoms, nterms, exponents):
    p = {}
    for _ in range(nterms):
        m = tuple((i, rng.choice(exponents))
                  for i in sorted(rng.sample(range(natoms), rng.randint(0, natoms))))
        p[m] = rng.choice([1, -1, 2, -3, Fraction(1, 2), Fraction(-5, 3)])
    return p


def test_packed_kernel_arithmetic_matches_tuple_monomials():
    # every answer is the tuple product, and a refusal comes only where
    # an exponent reaches the limit: factors of a product keep every
    # exponent in [-limit, limit)
    limit = expr_module._LIMIT
    small = [-3, -2, -1, 1, 2, 3]
    edge = [limit - 1, -limit, limit // 2, -(limit // 2)]
    over = [limit, -limit - 1, 2 * limit - 2]
    inside = lambda p: all(-limit <= e < limit for m in p for _, e in m)
    top = lambda p: max((abs(e) for m in p for _, e in m), default=0)

    def run(f, *args):
        try:
            got = f(*args)
        except _Refused:
            return None
        assert {tuple(_unpack(m)): c for m, c in got.items()} == _unpacked(got)
        return _unpacked(got)

    rng = random.Random(1601)
    seen = Counter()
    for _ in range(800):
        exponents = rng.choice([small, small + edge, small + edge + over])
        a, b = (_tuple_poly(rng, 4, rng.randint(1, 4), exponents) for _ in range(2))
        got = run(_pmul, _pack(a), _pack(b))
        assert (got is None) == (not (inside(a) and inside(b)))
        assert got is None or got == _tuple_mul(a, b)
        seen["product", got is None] += 1

        k = rng.choice([1, 2, 3, 4]) if len(a) > 1 else rng.choice([-3, -2, -1, 1, 2, 3])
        got = run(_ppow, _pack(a), k)
        if len(a) == 1:
            assert (got is None) == (k != 1 and top(a) * abs(k) >= limit)
        else:
            # the operands of its products are powers below the k-th
            assert got is not None or top(a) * (k - 1) >= limit
        assert got is None or got == _tuple_pow(a, k)
        seen["power", got is None] += 1

        fs = [(a, k), (b, 1)] + [(_tuple_poly(rng, 4, 1, exponents), rng.choice([-2, -1, 1, 2]))]
        got = run(_pproduct, [(_pack(p), e) for p, e in fs])
        want = {(): 1}
        for p, e in fs:
            want = _tuple_mul(want, _tuple_pow(p, e))
        assert got is not None or sum(top(p) * abs(e) for p, e in fs) >= limit
        assert got is None or got == want
        seen["gathered", got is None] += 1
    assert len(seen) == 6 and min(seen.values()) >= 50, seen
    # exponents one below the limit multiply, and their product crosses it
    x, y = symbols("x y")
    polys = _Polys(expand)
    p = polys.poly(mul(power(x, limit - 1), add(x, y)))
    assert _unpacked(p) == {((0, limit),): 1, ((0, limit - 1), (1, 1)): 1}
    assert polys.poly(mul(power(x, limit), add(x, y))) is None
    assert _unpacked(polys.poly(mul(power(x, 1 - limit), y))) == {((0, 1 - limit), (1, 1)): 1}
    assert polys.poly(mul(power(x, 2**40), y)) is None
    with pytest.raises(_Refused):
        _pmul(p, p)
    # huge exponents take the pairwise path and print what they printed
    assert to_string(expand(mul(power(x, 2**70), add(x, y)))) == (
        "x^1180591620717411303425+x^1180591620717411303424*y")
    assert to_string(expand(power(add(power(x, 2**40), y), 3))) == (
        "x^3298534883328+y^3+3*x^1099511627776*y^2+3*x^2199023255552*y")
    assert to_string(expand(mul(power(x, -2**70), power(x, 2**70), add(1, y)))) == "1+y"


def _compare_sorted_tree(terms):
    """The tree builder as it was: each term's product by _product, the
    sum sorted by compare."""
    overall, out = num(0), []
    for pairs, c in terms:
        if pairs:
            out.append((expr_module._product(num(1), pairs), num(c)))
        else:
            overall = num(c)
    if not out:
        return Numeric(overall)
    out.sort(key=cmp_to_key(lambda p, q: compare(p[0], q[0])))
    if overall.is_zero() and len(out) == 1:
        r, k = out[0]
        return r if k.is_one() else expr_module._scaled(r, k)
    return Add(overall, tuple(out))


def test_rank_keyed_builder_matches_the_compare_sorted_one():
    x, y, z = symbols("x y z")
    atoms = [z, Pi, sin(y), x, Euler, add(1, x), add(y, mul(2, z)), y, zeta(3)]
    coeffs = [1, -1, 3, Fraction(2, 3), Fraction(-1, 4)]
    rng = random.Random(2207)
    shapes = Counter()
    for _ in range(400):
        polys = _Polys(expand)
        for a in rng.sample(atoms, len(atoms)):
            polys.index_of(a)
        p = {}
        for _ in range(rng.choice([1, 1, 2, 5, 9])):
            m = []
            for i in sorted(rng.sample(range(len(atoms)), rng.choice([0, 1, 1, 2, 3]))):
                # a sum is an atom only under a negative power
                neg = type(polys.atoms[i]) is Add
                m.append((i, rng.choice([-2, -1] if neg else [-2, -1, 1, 1, 2, 3])))
            p[tuple(m)] = rng.choice(coeffs)
        got = polys.tree(_pack(p))
        order = sorted(range(len(atoms)),
                       key=cmp_to_key(lambda i, j: compare(polys.atoms[i], polys.atoms[j])))
        rank = {i: r for r, i in enumerate(order)}
        want = _compare_sorted_tree(
            ([(polys.atoms[i], num(e)) for i, e in sorted(m, key=lambda ie: rank[ie[0]])], c)
            for m, c in p.items()
        )
        assert compare(got, want) == 0 and to_string(got) == to_string(want), p
        shapes[type(got).__name__] += 1
    assert len(shapes) >= 5, shapes
    # poly's dicts over symbols and the generators normal makes
    gm = _GenMap(_ordered_vars(add(x, y, z)))
    gm.sym_for(sin(x))
    gm.sym_for(sqrt(y))
    nv = len(gm.vars)
    for _ in range(400):
        p = {}
        for _ in range(rng.choice([1, 2, 4, 8])):
            mono = [0] * nv
            for i in rng.sample(range(nv), rng.randint(0, 3)):
                mono[i] = rng.randint(1, 3)
            p[tuple(mono)] = rng.choice(coeffs)
        # poly packs variable j of nv into field nv-1-j
        packed = {sum(k << _FIELD * (nv - 1 - j) for j, k in enumerate(mono)): c
                  for mono, c in p.items()}
        got = _from_dict(packed, gm.vars)
        want = _compare_sorted_tree(
            ([(v, num(k)) for v, k in zip(gm.vars, mono) if k], c) for mono, c in p.items()
        )
        assert compare(got, want) == 0 and to_string(got) == to_string(want), p


def test_expand_keeps_noninteger_powers():
    x, y = symbols("x y")
    e = expand(power(add(x, y), Fraction(1, 2)))
    assert type(e) is Power
    e = expand(power(add(x, y), -2))
    assert type(e) is Power and e.exponent == lift(-2)


def test_diff_against_poly_oracle():
    x, y = symbols("x y")
    rng = random.Random(42)
    for _ in range(40):
        p = {}
        for _ in range(rng.randint(1, 5)):
            key = (rng.randint(0, 4), rng.randint(0, 4))
            p[key] = p.get(key, 0) + rng.randint(-6, 6)
        p = {e: c for e, c in p.items() if c}
        axis = rng.randrange(2)
        got = diff(poly_to_expr(p, (x, y)), (x, y)[axis])
        want = poly_to_expr(poly_diff_oracle(p, axis), (x, y))  # [DERIVED]
        assert got == want


def test_diff_rules():
    x, y = symbols("x y")
    assert diff(x, x).is_one()
    assert diff(y, x).is_zero()
    assert diff(power(x, -1), x) == mul(-1, power(x, -2))
    assert diff(sqrt(x), x) == mul(Fraction(1, 2), power(x, Fraction(-1, 2)))
    # product rule across three factors [TRIVIAL]
    assert diff(mul(x, y, power(x, 2)), x) == mul(3, power(x, 2), y)
    assert diff(lift(5), x).is_zero()
    assert diff(Pi, x).is_zero()
    assert diff(power(x, 4), x, 2) == mul(12, power(x, 2))
    assert diff(power(x, 4), x, 0) == power(x, 4)
    with pytest.raises(DomainError):
        diff(x, lift(3))
    with pytest.raises(DomainError):
        diff(x, x, -1)


def test_subs_simultaneous_and_errors():
    x, y, z = symbols("x y z")
    e = add(mul(2, x), power(y, 2))
    assert subs(e, {x: y, y: x}) == add(mul(2, y), power(x, 2))
    assert subs(e, {x: lift(1)}) == add(2, power(y, 2))
    assert subs(x, Relational(x, z)) is z
    assert subs(e, {}) is e
    # substituting rebuilds canonically, so (x+y)^2 at y=-x folds to zero
    assert subs(power(add(x, y), 2), {y: mul(-1, x)}).is_zero()
    with pytest.raises(UnsupportedPatternError):
        subs(e, {power(x, 2): y})
    with pytest.raises(UnsupportedPatternError):
        subs(e, Relational(x, y, "<"))
    # a binding that is neither a relation nor a pair
    with pytest.raises(UnsupportedPatternError):
        subs(e, [x])
    # bindings that are not a collection at all
    with pytest.raises(UnsupportedPatternError):
        subs(x, 5)
    with pytest.raises(UnsupportedPatternError):
        subs(x, lift(5))
    with pytest.raises(UnsupportedPatternError):
        subs(x, y)


def test_subs_into_functions_and_lists():
    x, y = symbols("x y")
    lst = ExprList([x, add(x, y)])
    got = subs(lst, {x: lift(2)})
    assert to_string(got) == "[2,2+y]"
    m = MatrixNode(2, 2, [x, y, lift(0), mul(x, y)])
    got = subs(m, {y: lift(3)})
    assert got[0, 1] == lift(3) and got[1, 1] == mul(3, x)


def test_evalf_basics():
    x, = symbols("x")
    assert to_string(evalf(lift(Fraction(1, 3)), 5)) == "0.33333"
    assert to_string(evalf(Pi)) == "3.1415926535897932385"
    assert to_string(evalf(Pi, 30)) == "3.14159265358979323846264338328"
    assert to_string(evalf(Euler, 10)) == "0.5772156649"
    e = evalf(add(x, Fraction(1, 2)))
    assert to_string(e) == "0.5+x"
    # floats pass through untouched
    half = lift(0.5)
    assert evalf(half, 40) is half or evalf(half, 40) == half
    with pytest.raises(DomainError):
        evalf(x, 1)


def test_auto_named_symbols():
    s = Symbol()
    t = Symbol()
    assert s.name.startswith("symbol") and t.name.startswith("symbol")
    assert s.name != t.name
    assert compare(s, t) < 0  # creation order


def test_compare_total_order_properties():
    x, y, z = symbols("x y z")
    rng = random.Random(43)
    pool = [random_expr(rng, (x, y, z), 3) for _ in range(60)]
    pool += [lift(0), lift(1), lift(Fraction(-1, 2)), x, Pi, power(x, 2)]
    for a in pool:
        assert compare(a, a) == 0
    for a in pool:
        for b in pool:
            cab, cba = compare(a, b), compare(b, a)
            assert (cab > 0) == (cba < 0) and (cab == 0) == (cba == 0)
            if cab == 0:
                assert a._hash == b._hash and to_string(a) == to_string(b)
    rng.shuffle(pool)
    spool = sorted(pool, key=lambda e: e._hash)  # arbitrary but fixed
    import functools

    spool = sorted(pool, key=functools.cmp_to_key(compare))
    for a, b in zip(spool, spool[1:]):
        assert compare(a, b) <= 0
    for i in range(len(spool) - 2):
        if compare(spool[i], spool[i + 1]) <= 0 and compare(spool[i + 1], spool[i + 2]) <= 0:
            assert compare(spool[i], spool[i + 2]) <= 0


def test_canonical_form_determinism():
    x, y, z = symbols("x y z")
    rng = random.Random(44)
    for trial in range(120):
        terms = [random_expr(rng, (x, y, z), 2) for _ in range(rng.randint(2, 6))]
        ref_sum = add(*terms)
        ref_prod = mul(*terms)
        for _ in range(4):
            rng.shuffle(terms)
            s2, p2 = add(*terms), mul(*terms)
            assert compare(ref_sum, s2) == 0 and ref_sum._hash == s2._hash
            assert to_string(ref_sum) == to_string(s2)
            assert compare(ref_prod, p2) == 0 and ref_prod._hash == p2._hash
        assert_canonical(ref_sum)
        assert_canonical(ref_prod)


def _factor_pairs(e):
    """The (base, exponent) pairs a product keeps for the factor e."""
    if type(e) is Mul:
        return list(e.pairs)
    if type(e) is Power and type(e.exponent) is Numeric and type(e.base) is not Numeric:
        return [(e.base, e.exponent.value)]
    return [(e, num(1))]


def _unsettled_pairs(e):
    """Pairs a settled product may not keep: those where power(base,
    exponent) does not come back as that same single pair."""
    if type(e) not in (Mul, Power):
        return []
    unsettled = []
    for b, k in _factor_pairs(e):
        again = _factor_pairs(power(b, Numeric(k)))
        if len(again) != 1 or compare(again[0][0], b) != 0 or again[0][1] != k:
            unsettled.append((b, k))
    return unsettled


def test_products_settle_in_any_order():
    x, y = symbols("x y")
    point = {x: lift(Fraction(2, 3)), y: lift(Fraction(5, 7))}

    def value(e):
        v = evalf(subs(e, point), 30)
        assert type(v) is Numeric
        return v.value.as_fraction()

    # numbers enter unpowered and dyadic, so every float product is exact;
    # a float factor still caps the value at its 20 digits
    numbers = [lift(Fraction(-3, 4)), lift(5), lift(0.5), lift(1.25)]
    pool = [x, y, sqrt(2), sqrt(mul(x, y)), sqrt(sqrt(x)), power(x, y), add(x, 1)]
    rng = random.Random(47)
    for _ in range(200):
        factors = [power(rng.choice(pool), rng.choice([1, 1, 2, 3, -1, -2]))
                   for _ in range(rng.randint(2, 6))]
        factors += rng.sample(numbers, rng.randint(0, 2))
        ref = mul(*factors)
        assert _unsettled_pairs(ref) == []
        want = value(ref)
        for _ in range(3):
            rng.shuffle(factors)
            got = mul(*factors)
            assert compare(ref, got) == 0 and to_string(ref) == to_string(got)
            # mul is not associative on canonical forms: a regrouped
            # product may settle on another form of the same value
            # (2*2^(1/2) for 2^(3/2), 2+2*x for 2*(1+x)), so compare values
            cut = sorted(rng.sample(range(1, len(factors)), rng.randint(0, len(factors) - 1)))
            groups = [factors[i:j] for i, j in zip([0] + cut, cut + [len(factors)])]
            got = mul(*[mul(*g) for g in groups])
            assert _unsettled_pairs(got) == []
            assert abs(value(got) - want) <= abs(want) * Fraction(1, 10**18)


def test_product_cascades_settle():
    x, = symbols("x")
    # merging r*r releases x*2^(1/2); its 2^(1/2) then meets the third
    # factor, and the squared root folds to 2 in a further round
    r = sqrt(mul(x, sqrt(2)))
    assert mul(r, r, sqrt(2)) == mul(2, x)
    assert to_string(power(sqrt(2), 3)) == "2^(3/2)"
    assert to_string(mul(sqrt(2), sqrt(2), sqrt(2))) == "2^(3/2)"
    # a nested root merged to exponent 1 leaves x^(1/2) as a factor, which
    # has to split into (x, 1/2) to meet the other powers of x
    y, = symbols("y")
    a = sqrt(sqrt(x))
    assert mul(mul(y, a), a) == mul(y, sqrt(x))
    assert mul(mul(mul(y, a), a), sqrt(x)) == mul(x, y)
    assert add(mul(mul(y, a), a), mul(-1, y, sqrt(x))) == lift(0)


def test_canonical_invariants_random():
    x, y, z = symbols("x y z")
    rng = random.Random(45)
    for _ in range(300):
        e = random_expr(rng, (x, y, z), 4)
        assert_canonical(e)
        assert_canonical(expand(e))


def test_printing_forms():
    x, y = symbols("x y")
    assert to_string(add(x, mul(Fraction(1, 2), y))) == "x+1/2*y"
    assert to_string(mul(-1, x)) == "-x"
    assert to_string(add(mul(-1, x), mul(-2, y))) == "-x-2*y"
    assert to_string(power(x, -2)) == "x^(-2)"
    assert to_string(power(x, Fraction(1, 2))) == "x^(1/2)"
    assert to_string(power(add(x, 1), 2)) == "(1+x)^2"
    assert to_string(power(2, Fraction(1, 2))) == "2^(1/2)"
    assert to_string(mul(3, x, power(y, 2))) == "3*x*y^2"
    assert to_string(power(mul(x, y), Fraction(1, 2))) == "(x*y)^(1/2)"
    assert to_string(power(lift(Fraction(1, 2)), x)) == "(1/2)^x"
    assert to_string(power(lift(-2), x)) == "(-2)^x"
    assert to_string(mul(I, x)) == "I*x"
    assert to_string(mul(add(1, I), x)) == "(1+I)*x"
    assert to_string(Relational(x, add(y, 1), "==")) == "x==1+y"
    assert to_string(ExprList([x, lift(2)])) == "[x,2]"
    assert to_string(MatrixNode(2, 2, [lift(1), x, y, lift(0)])) == "[[1,x],[y,0]]"


def test_raw_containers_lift_their_entries():
    x = Symbol("x")
    assert MatrixNode(1, 2, [x, 0]) == MatrixNode(1, 2, [x, lift(0)])
    assert to_string(MatrixNode(1, 2, [x, Fraction(1, 2)])) == "[[x,1/2]]"
    assert ExprList([x, 1]) == ExprList([x, lift(1)])
    assert to_string(ExprList([x, 1])) == "[x,1]"


def test_pseries_node_basics():
    x, y = symbols("x y")
    s = pseries(x, lift(0), [(lift(1), 0), (lift(Fraction(1, 2)), 2)], 4)
    assert to_string(s) == "1+1/2*x^2+O(x^4)"
    s = pseries(x, lift(1), [(lift(2), 1)], 3)
    assert to_string(s) == "2*(-1+x)+O((-1+x)^3)"
    s = pseries(x, lift(0), [(y, 1), (lift(0), 2)], None)
    assert to_string(s) == "y*x"
    assert diff(s, x) == pseries(x, lift(0), [(y, 0)], None)
    d = diff(pseries(x, lift(0), [(lift(1), 0), (lift(3), 2)], 5), x)
    assert d == pseries(x, lift(0), [(lift(6), 1)], 4)
    with pytest.raises(DomainError):
        pseries(x, lift(0), [(x, 1)], 3)  # coefficient depends on the variable
    with pytest.raises(DomainError):
        pseries(x, lift(0), [(lift(1), 1), (lift(2), 1)], 3)
    with pytest.raises(UnsupportedPatternError):
        subs(s, {x: y})


def test_free_symbols():
    x, y, z = symbols("x y z")
    e = add(power(x, 2), mul(y, Pi))
    assert free_symbols(e) == {x, y}
    assert free_symbols(lift(3)) == set()
    assert free_symbols(ExprList([x, z])) == {x, z}


_X, _A = symbols("x a")
_P = power(add(_X, _A), 2)  # (x+a)^2
_Q = mul(add(power(_A, 2), -1), power(add(_A, -1), -1))  # (a^2-1)/(a-1)


@pytest.mark.parametrize(
    "e, want",
    [
        pytest.param(
            sin(add(_P, Fraction(1, 2))),
            ["sin(1/2+(2+x)^2)", "sin(1/2+x^2+a^2+2*x*a)", "sin(0.5+(x+a)^(2.0))",
             "sin(1/2+(x+a)^2)"],
            id="FunctionApp",
        ),
        pytest.param(
            pseries(_X, _A, [(_A, 0), (lift(1), 1)], 3),
            ["2+(-2+x)+O((-2+x)^3)", "a+(x-a)+O((x-a)^3)", "a+1.0*(x-a)+O((x-a)^3)",
             "a+(x-a)+O((x-a)^3)"],
            id="PSeriesNode",
        ),
        pytest.param(
            # evalf leaves the expansion point exact: 1/2 stays 1/2
            pseries(_X, add(_A, Fraction(1, 2)), [(_Q, 1)], 2),
            ["3*(-5/2+x)+O((-5/2+x)^2)",
             "(-(-1+a)^(-1)+a^2*(-1+a)^(-1))*(-1/2+x-a)+O((-1/2+x-a)^2)",
             "1.0*(-1.0+a)^(-1.0)*(-1.0+a^(2.0))*(-1/2+x-a)+O((-1/2+x-a)^2)",
             "(1+a)*(-1/2+x-a)+O((-1/2+x-a)^2)"],
            id="PSeriesNode-rational-point",
        ),
        pytest.param(
            Relational(_P, _Q, "<"),
            ["(2+x)^2<3", "x^2+a^2+2*x*a<-(-1+a)^(-1)+a^2*(-1+a)^(-1)",
             "(x+a)^(2.0)<1.0*(-1.0+a)^(-1.0)*(-1.0+a^(2.0))", "(x+a)^2<1+a"],
            id="Relational",
        ),
        pytest.param(
            ExprList([_P, _Q, lift(Fraction(1, 3))]),
            ["[(2+x)^2,3,1/3]", "[x^2+a^2+2*x*a,-(-1+a)^(-1)+a^2*(-1+a)^(-1),1/3]",
             "[(x+a)^(2.0),1.0*(-1.0+a)^(-1.0)*(-1.0+a^(2.0)),0.33333]", "[(x+a)^2,1+a,1/3]"],
            id="ExprList",
        ),
        pytest.param(
            MatrixNode(2, 2, [_P, _Q, Pi, _X]),
            ["[[(2+x)^2,3],[Pi,x]]", "[[x^2+a^2+2*x*a,-(-1+a)^(-1)+a^2*(-1+a)^(-1)],[Pi,x]]",
             "[[(x+a)^(2.0),1.0*(-1.0+a)^(-1.0)*(-1.0+a^(2.0))],[3.1416,x]]",
             "[[(x+a)^2,1+a],[Pi,x]]"],
            id="MatrixNode",
        ),
    ],
)
def test_walkers_on_every_node_kind(e, want):
    # want: printed subs a=2, expand, evalf at 5 digits, normal
    got = [subs(e, {_A: lift(2)}), expand(e), evalf(e, 5), normal(e)]
    assert [to_string(g) for g in got] == want
    assert free_symbols(e) == {_X, _A}
    if type(e) is PSeriesNode:
        with pytest.raises(UnsupportedPatternError):
            subs(e, {_X: _A})


def test_free_symbols_is_a_cached_frozenset_on_deep_trees():
    # a product nested 5,000 deep: the walk is iterative, and a repeated
    # call answers from the node's cache with the very same set
    x, y = symbols("x y")
    e = x
    for _ in range(5000):
        e = mul(y, add(e, 1))
    got = free_symbols(e)
    assert type(got) is frozenset and got == {x, y} and {x, y} == got
    assert free_symbols(e) is got
    inner = e.pairs[0][0] if type(e.pairs[0][0]) is Add else e.pairs[1][0]
    assert free_symbols(inner) == {x, y}
    assert free_symbols(pseries(x, y, [(Pi, 1)], 2)) == {x, y}
    assert free_symbols(lift(2)) == frozenset() == set()


def _rebuild_always(e, rule, kept=None):
    """_rewrite as it was, rebuilding every node it walks; it walks the
    children kept(child) would let _rewrite skip."""
    cache = {}
    keep = []

    def walk(x):
        got = cache.get(id(x))
        if got is not None:
            return got
        out = rule(x, walk)
        if out is None:
            kids = [walk(c) for c in expr_module._children(x)]
            t = type(x)
            if t is Add:
                out = expr_module._add_terms(
                    [Numeric(x.coeff)]
                    + [expr_module._scaled_expr(c, k) for c, (_, k) in zip(kids, x.pairs)]
                )
            elif t is Mul:
                out = expr_module._mul_factors(
                    [Numeric(x.coeff)] + [power(c, Numeric(k)) for c, (_, k) in zip(kids, x.pairs)]
                )
            elif t is Power:
                out = power(*kids)
            elif t is expr_module.FunctionApp:
                out = expr_module.apply_function(x.fdef, kids)
            elif t is PSeriesNode:
                out = pseries(kids[0], kids[1], [(c, k) for c, (_, k) in zip(kids[2:], x.terms)],
                              x.order)
            elif t is Relational:
                out = Relational(kids[0], kids[1], x.op)
            elif t is ExprList:
                out = ExprList(kids)
            elif t is MatrixNode:
                out = MatrixNode(x.rows, x.cols, kids)
            else:
                out = x
        cache[id(x)] = out
        keep.append(x)
        return out

    return walk(e)


def _walker_tree(rng, depth, atoms):
    """A random tree of sums, products, powers, functions, series,
    relations, lists and matrices over atoms, floats among them."""
    if depth == 0 or rng.random() < 0.25:
        return rng.choice(atoms)
    sub = [_walker_tree(rng, depth - 1, atoms) for _ in range(rng.randint(2, 4))]
    r = rng.randrange(9)
    if r == 0:
        return add(*sub)
    if r == 1:
        return mul(*sub)
    if r == 2:
        return power(add(*sub[:2]), rng.choice([2, 3, -1, Fraction(1, 2), atoms[1]]))
    if r == 3:
        return rng.choice([sin, zeta])(add(*sub[:2]))
    if r == 4:
        # coefficients free of the series variable atoms[0]
        var, free = atoms[0], [a for a in atoms if a is not atoms[0]]
        terms = [(_walker_tree(rng, depth - 1, free), k) for k in range(rng.randint(1, 3))]
        return pseries(var, rng.choice([0, 1, atoms[1]]), terms, rng.choice([3, None]))
    if r == 5:
        return Relational(sub[0], sub[1], rng.choice(Relational.OPS))
    if r == 6:
        return ExprList(sub)
    if r == 7:
        return MatrixNode(2, 2, (sub * 2)[:4])
    return mul(sub[0], add(*sub[1:]))


def _walked(f, *args) -> str:
    try:
        return to_string(f(*args))
    except (ValueError, ArithmeticError) as err:
        return f"{type(err).__name__}: {err}"


def test_rewrite_keeps_nodes_whose_children_come_back_unchanged():
    # subs of an unused symbol returns the tree itself, and subs,
    # expand, evalf and normal print what rebuilding every node printed
    from minicas import poly as poly_module

    x, y, z, unused = symbols("x y z unused")
    atoms = [x, y, z, Pi, Euler, lift(2), lift(Fraction(-1, 3)), lift(0.5), lift(-1.25), I,
             sqrt(2), sqrt(y)]
    rng = random.Random(83)
    trees = []
    while len(trees) < 1000:
        try:
            trees.append(_walker_tree(rng, 3, atoms))
        except (ValueError, ArithmeticError):
            continue
    # sums in which some terms come back unchanged: a substituted term
    # that cancels against one of them, becomes a number or a sum, and
    # float and complex keys, whose sums depend on the order they meet in
    def mixed(r):
        # (2.5+I)*r: its key has a float real and an exact imaginary
        # part, which mul keeps, since the exact 1 is num_mul's identity
        return add(mul(add(2, I), r), mul(0.5, r))

    changing = [(x, y, power(add(x, z), 2)), (mul(x, z), y, mul(z, add(x, 1)))]
    for keys in [(2, -2, 3), (0.5, -0.5, 1), (0.1, 0.2, 0.3), (-1.25, 1.25, Fraction(1, 3)),
                 (I, mul(-1, I), add(0.5, I)), (mixed, I, add(0.5, I)), (3, mixed, 0.5)]:
        for rests in changing + [
                (x, y, z), (mul(x, z), mul(y, z), Pi), (power(x, 2), mul(x, y), sqrt(z)),
                (sin(x), sin(y), mul(x, y, z))]:
            terms = [k(r) if callable(k) else mul(k, r) for k, r in zip(keys, rests)]
            trees += [add(*terms), add(1.5, *terms), add(*terms, mul(-1, terms[0]), x)]
    ops = [
        lambda e: subs(e, {y: add(z, 1)}),
        lambda e: subs(e, {z: lift(Fraction(1, 2)), y: x}),
        expand,
        lambda e: evalf(e, 12),
        normal,
    ]
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(expr_module, "_rewrite", _rebuild_always)
        mp.setattr(poly_module, "_rewrite", _rebuild_always)
        want = [[_walked(op, e) for op in ops] for e in trees]
    kinds = set()
    for e, printed in zip(trees, want):
        assert subs(e, {unused: lift(1)}) is e
        assert [_walked(op, e) for op in ops] == printed, to_string(e)
        kinds.add(type(e).__name__)
    assert len(kinds) >= 8
    # a sum expand leaves alone stays the same object, its mixed key
    # included, and a rebuilt sum keeps that key exact
    e = add(mixed(x), y)
    assert expand(e) is e and to_string(e) == "(2.5+I)*x+y"
    assert to_string(subs(e, {y: z})) == "(2.5+I)*x+z"


_HASH_PROBE = r"""
import importlib.util, sys, types

if sys.argv[1] == "swap":
    # load minicas.numbers without the package, so that every module
    # imported after the swap binds the replacement
    stub = types.ModuleType("minicas")
    stub.__path__ = importlib.util.find_spec("minicas").submodule_search_locations
    sys.modules["minicas"] = stub
    import minicas.numbers
    minicas.numbers.hash64 = lambda *v: hash((0x2545F4914F6CDD1D,) + v[::-1])
    del sys.modules["minicas"]
import minicas
from minicas.shell import Shell

print(minicas.expr.ONE._hash)
sh = Shell()
for stmt in [
    "expand((x+y)^4);", "subs(%, y==1);", "series(1/sqrt(1-v^2/c^2), v==0, 6);",
    "gcd(x^4-1, x^2+2*x+1);", "lsolve([p+q==10, p-q==4], [p,q]);",
    "normal(1/(x-y)+1/(x+y)-2*x/(x^2-y^2+z));", "expand((a+b*c+sqrt(2)*d)^3);",
    "det([[a,b,0],[c,0,d],[0,e,sin(f)]]);", "diff(x^y*sin(x*y)*sqrt(x*y), x);",
    "subs(expand((x+y+z)^3), [x==z, y==2]);", "evalf(sqrt(2)*Pi+x/3, 30);",
    "series(gamma(t), t==0, 3);", "charpoly([[a,1,0],[b,c,1],[0,d,e]], l);",
]:
    print(sh.feed(stmt))

# one sum built four ways: by expand's kernel, by add and mul, by a subs
# rebuild that keeps the terms free of w, and by poly's _from_dict; each
# pair of them is == and keys one dict entry, by any mixer
from fractions import Fraction
from math import factorial
from minicas import add, expand, mul, normal, power, subs, symbols
x, y, z, w = symbols("x y z w")
f3 = [Fraction(factorial(3), factorial(i) * factorial(j) * factorial(3 - i - j))
      for i in range(4) for j in range(4 - i)]
exps = [(i, j, 3 - i - j) for i in range(4) for j in range(4 - i)]
sums = [expand(power(add(x, mul(Fraction(1, 2), y), z), 3)),
        add(*[mul(c / 2**j, power(x, i), power(y, j), power(z, k)) for c, (i, j, k) in zip(f3, exps)]),
        subs(expand(power(add(x, mul(Fraction(1, 2), y), w), 3)), {w: z})]
sums.append(normal(sums[1]))
print([a == b for a in sums for b in sums].count(True), len(set(sums)),
      len({p for e in sums for p in e.pairs}), len({r for e in sums for r, _ in e.pairs}))
"""


def test_printed_results_do_not_depend_on_the_hash_mixer():
    env = dict(os.environ)
    src = os.path.dirname(os.path.dirname(minicas.__file__))
    env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
    runs = [
        subprocess.run([sys.executable, "-c", _HASH_PROBE, how], env=env,
                       capture_output=True, text=True, timeout=120, check=True).stdout
        for how in ("keep", "swap")
    ]
    keep, swap = (r.splitlines() for r in runs)
    assert keep[0] != swap[0]  # the replacement mixer took effect
    assert len(keep) == 15 and keep[1:] == swap[1:]
    assert keep[-1] == "16 1 10 10"  # 4 equal sums of 10 terms, by either mixer
    assert not any("error" in line for line in keep)


def test_structural_hash_and_dict_keys():
    x, y = symbols("x y")
    table = {add(x, y): 1, mul(x, y): 2}
    assert table[add(y, x)] == 1
    assert table[mul(y, x)] == 2
    assert add(x, y) in table


# ---------------------------------------------------------------- host-language operators


def _outcome(thunk):
    """A result, or the type and text of the exception it raised."""
    try:
        return thunk()
    except (ArithmeticError, ValueError) as err:
        return type(err), str(err)


def _same_outcome(by_operator, by_function, what):
    got, want = _outcome(by_operator), _outcome(by_function)
    if isinstance(want, tuple):
        assert got == want, what
        return
    assert type(got) is type(want) and got == want, what
    assert to_string(got) == to_string(want), what


def test_python_operators_and_methods_are_the_function_forms():
    # the user works in Python itself: every operator and convenience
    # method of Expr and Number is the library function it stands for,
    # with int, Fraction, float and Expr operands on either side
    from minicas import numbers as nm
    from minicas.poly import coeff, collect, degree, ldegree

    x, y = symbols("x y")
    rng = random.Random(1560)
    exprs = [x, y, add(x, 1), mul(2, x, y), power(add(x, y), 2), mul(3, power(x, -1)),
             sin(x), lift(Fraction(3, 4)), lift(0)]
    scalars = [0, 1, -3, 7, Fraction(1, 2), Fraction(-5, 3), 0.5, -1.25, 2.0]
    exponents = [0, 2, -1, 3, Fraction(1, 2), Fraction(-2, 3), 0.5, y, add(y, 1)]
    for _ in range(400):
        a = rng.choice(exprs)
        b = rng.choice(scalars + exprs)
        what = (to_string(a), b if not isinstance(b, minicas.Expr) else to_string(b))
        _same_outcome(lambda: a + b, lambda: add(a, b), what)
        _same_outcome(lambda: b + a, lambda: add(b, a), what)
        _same_outcome(lambda: a - b, lambda: add(a, mul(-1, b)), what)
        _same_outcome(lambda: b - a, lambda: add(b, mul(-1, a)), what)
        _same_outcome(lambda: a * b, lambda: mul(a, b), what)
        _same_outcome(lambda: b * a, lambda: mul(b, a), what)
        _same_outcome(lambda: a / b, lambda: mul(a, power(b, -1)), what)
        _same_outcome(lambda: b / a, lambda: mul(b, power(a, -1)), what)
        e = rng.choice(exponents)
        _same_outcome(lambda: a**e, lambda: power(a, e), what)
        # Fraction.__pow__ hands float(base) to Expr.__rpow__, so the
        # reflected power takes the other bases
        s = rng.choice([v for v in scalars if not isinstance(v, Fraction)])
        _same_outcome(lambda: s**a, lambda: power(s, a), what)
        _same_outcome(lambda: -a, lambda: mul(-1, a), what)
        assert +a is a
        k = rng.randint(0, 3)
        _same_outcome(lambda: a.subs([Eq(x, b)]), lambda: subs(a, [Eq(x, b)]), what)
        _same_outcome(lambda: a.diff(x, k), lambda: diff(a, x, k), what)
        _same_outcome(lambda: a.expand(), lambda: expand(a), what)
        _same_outcome(lambda: a.evalf(12 + k), lambda: evalf(a, 12 + k), what)
        _same_outcome(lambda: a.normal(), lambda: normal(a), what)
        _same_outcome(lambda: a.collect(x), lambda: collect(a, x), what)
        _same_outcome(lambda: lift(a.degree(x)), lambda: lift(degree(a, x)), what)
        _same_outcome(lambda: lift(a.ldegree(x)), lambda: lift(ldegree(a, x)), what)
        # Add and Mul keep their numeric coefficient in a slot named
        # coeff, which hides the method on sums and products
        if type(a) not in (Add, Mul):
            _same_outcome(lambda: a.coeff(x, k), lambda: coeff(a, x, k), what)
    # Number: each operator, reflected ones included, is its num_ function
    # on num(other), and the orderings are num_cmp's
    numbers = [nm.num(v) for v in (0, 1, -3, Fraction(1, 2), 0.5, 1.5)] + [nm.IUNIT]
    for _ in range(400):
        p = rng.choice(numbers)
        v = rng.choice(scalars)
        q = nm.num(v)
        for by_operator, by_function in (
            (lambda: p + v, lambda: nm.num_add(p, q)),
            (lambda: v + p, lambda: nm.num_add(q, p)),
            (lambda: p - v, lambda: nm.num_sub(p, q)),
            (lambda: v - p, lambda: nm.num_sub(q, p)),
            (lambda: p * v, lambda: nm.num_mul(p, q)),
            (lambda: v * p, lambda: nm.num_mul(q, p)),
            (lambda: p / v, lambda: nm.num_div(p, q)),
            (lambda: v / p, lambda: nm.num_div(q, p)),
            (lambda: -p, lambda: nm.num_neg(p)),
        ):
            got, want = _outcome(by_operator), _outcome(by_function)
            assert got == want and str(got) == str(want), (p, v)
        n = rng.choice((2, -1, 3))
        got, want = _outcome(lambda: p**n), _outcome(lambda: nm.num_pow(p, nm.num(n)))
        assert got == want and str(got) == str(want), (p, n)
        if p.is_real():
            c = nm.num_cmp(p, q)
            assert ((p < v), (p <= v), (p > v), (p >= v)) == (c < 0, c <= 0, c > 0, c >= 0)
            assert (p == q) == (c == 0)
            if not isinstance(v, float):
                assert (p == v) == (c == 0)


def test_a_fraction_base_stays_exact_through_power_and_lift():
    # Fraction.__pow__ floats its base before Expr.__rpow__ is asked, so
    # the operator form loses exactness; power() and a lifted base keep it
    x = Symbol("x")
    half = Fraction(1, 2)
    assert to_string(half**x) == "0.5^x"
    for e in (power(half, x), lift(half) ** x):
        assert to_string(e) == "(1/2)^x"
        assert e == power(lift(half), x) and hash(e) == hash(power(lift(half), x))
    assert to_string(power(Fraction(-2, 3), add(x, 1))) == "(-2/3)^(1+x)"


# ------------------------------------------------------------- fast paths
#
# Each fast path against the slow construction it replaces.


def test_shared_numerics_stay_unchanged_over_a_seeded_session():
    from minicas import numbers as numbers_module
    from minicas.shell import Shell

    x = Symbol("x")
    assert lift(3) is lift(3) is mul(3) is lift(Fraction(6, 2)) is mul(lift(-1), -3)
    assert power(x, 2).exponent is lift(2) and expand(mul(2, x)).coeff is num(2)
    assert lift(257) is not lift(257) and lift(257) == lift(257)

    def snapshot():
        numbers = [(id(v), v.kind, v.val, v.prec, v.re, v.im, v._hash) for v in numbers_module._SMALL_INTS]
        nodes = [(k, id(n), id(n.value), n._hash) for k, n in expr_module._SHARED.items()]
        return numbers, nodes

    before = snapshot()
    rng = random.Random(22)
    sh = Shell()
    lines = []
    for _ in range(25):
        a, b, c = (rng.choice([-1, 1]) * rng.randint(1, 300) for _ in range(3))
        k = rng.randint(2, 4)
        lines += sh.feed(
            f"expand(({a}*x+{b}*y-{c})^{k}); subs(%, y=={c}/{b}); expand(%-%%);"
            f"normal(({a}*x+{b})/(x^2-{c * c})+1/(x-{c})); gcd(expand((x+{a})*(x-{b})), x^2-{a * a});"
            f"diff(x^{k}*sin({a}*x), x); series(1/(1-{a}*x-{b}*x^2), x==0, 5);"
            f"det([[{a},x,1],[{b},{c},x],[1,2,{k}]]); lsolve([{a}*p+{b}*q=={c}, p-q=={k}], [p,q]);"
            f"evalf({a}/{k}*Pi, 25); {a}/{b}+{c}/{k}*(2+I); 2.5*x*{a}-{b}*I*x;"
        )
    assert len(lines) == 25 * 12 and sum(s.startswith("error") for s in lines) < 25
    assert snapshot() == before


def test_all_numeric_mul_matches_the_bucket_path():
    x = Symbol("x")
    rng = random.Random(24)
    pool = [lift(v) for v in (0, 1, -1, 2, 256, 257, -300, Fraction(1, 3), Fraction(-5, 2),
                              0.5, 0.0, -1.5)]
    pool += [I, mul(-1, I), add(2, I), add(0.5, I), add(Fraction(1, 2), mul(3, I)),
             add(1.5, mul(0.25, I)), lift(num(1).__class__("int", 1))]
    for _ in range(1500):
        fs = [rng.choice(pool) for _ in range(rng.randint(0, 4))]
        got = mul(*fs)
        # the same numbers through the bucket, which x keeps in use
        with_x = mul(*fs, x)
        if type(with_x) is Numeric:  # a zero, exact or float
            want = with_x
        elif with_x is x:
            want = lift(1)
        else:
            assert type(with_x) is Mul and with_x.pairs == ((x, num(1)),)
            want = Numeric(with_x.coeff)
        assert type(got) is Numeric
        assert hash(got) == hash(want) and got == want and compare(got, want) == 0
        assert to_string(got) == to_string(want), [to_string(f) for f in fs]
    assert mul(lift(0), add(2, I)) is lift(0) and to_string(mul(lift(0.0), I)) == "0.0"


def _reference_sum(polys, e):
    """_Polys._sum term by term: each term's polynomial, then _padd."""
    if not e.coeff.is_rational():
        return None
    terms = [] if e.coeff.is_zero() else [({expr_module._MONO_ONE: e.coeff.val}, 1)]
    for r, k in e.pairs:
        if not k.is_rational():
            return None
        p = polys.poly(r)
        if p is None:
            return None
        terms.append((p, k.val))
    return expr_module._padd(terms)


def test_sum_reader_matches_the_per_term_path():
    x, y, z = symbols("x y z")
    limit = expr_module._LIMIT
    atoms = [x, y, z, Pi, sin(x), Euler]
    exponents = [1, 1, 2, 3, -1, -2] * 6 + [limit - 1, -limit, limit, -limit - 1]
    keys = [1, 1, -1, 2, -5, Fraction(1, 3), Fraction(-7, 2)]
    rng = random.Random(23)
    read, edge = 0, [0, 0]
    for n in range(400):
        terms = [rng.choice([0, 0, 3, Fraction(1, 2)])]
        for _ in range(rng.randint(1, 6)):
            factors = [power(a, rng.choice(exponents)) for a in rng.sample(atoms, rng.randint(1, 3))]
            key = 0.5 if n % 10 == 0 else rng.choice(keys)
            if rng.random() < 0.2:
                # a term that multiplies out, cancelling against the next
                terms += [mul(key, *factors, add(rng.choice(atoms[:3]), 1)), mul(-key, *factors)]
            else:
                terms.append(mul(key, *factors))
        e = add(*terms)
        if type(e) is not Add:
            continue
        fast, slow = _Polys(lambda t: t), _Polys(lambda t: t)
        got, want = fast.poly(e), _reference_sum(slow, e)
        assert (got is None) == (want is None), to_string(e)
        assert fast.atoms == slow.atoms
        if got is None:
            # refused: a float key, or an exponent past the limit
            edge[1] += n % 10 != 0
            continue
        read += 1
        edge[0] += any(abs(v) >= limit - 1 for m in got for _, v in _unpack(m))
        assert list(got.items()) == list(want.items()), to_string(e)
        assert to_string(fast.tree(got)) == to_string(slow.tree(want))
    # sums read, with exponents at the limit, and sums refused past it
    assert read > 150 and min(edge) > 10, (read, edge)


def _reference_term(r, k):
    """A sum's term as it printed before factor pairs shared their text."""
    if k.is_one():
        return _reference_factors(r)
    if compare(lift(k), lift(-1)) == 0:
        return "-" + _reference_factors(r)
    return f"{expr_module._render_coeff(k)}*{_reference_factors(r)}"


def _reference_factors(r):
    if type(r) is not Mul:
        return expr_module._render(r, expr_module._PREC_MUL)
    parts = []
    coeff = r.coeff
    neg = False
    if not coeff.is_one():
        if coeff.is_real() and compare(lift(coeff), lift(-1)) == 0:
            neg = True
        else:
            parts.append(expr_module._render_coeff(coeff))
    for b, k in r.pairs:
        if k.is_one():
            parts.append(expr_module._render(b, expr_module._PREC_MUL + 1))
        else:
            base = expr_module._render(b, expr_module._PREC_POWER + 1)
            parts.append(f"{base}^{expr_module._render_exponent(Numeric(k))}")
    s = "*".join(parts)
    return "-" + s if neg else s


def _reference_print(e):
    if type(e) is Mul:
        return _reference_factors(e)
    if type(e) is not Add:
        return to_string(e)
    parts = ([str(e.coeff)] if not e.coeff.is_zero() else []) + [_reference_term(r, k) for r, k in e.pairs]
    out = []
    for p in parts:
        if out and not p.startswith("-"):
            out.append("+")
        out.append(p)
    return "".join(out)


def test_printer_matches_the_reference_on_shared_factor_pairs():
    x, y, z = symbols("x y z")
    rng = random.Random(25)
    rests = [x, y, z, power(x, 2), mul(y, z), Pi, sin(y), power(z, -1), sqrt(x)]
    keys = [1, -1, 2, -3, Fraction(1, 3), Fraction(-2, 7), 0.5, -1.0, I, mul(-1, I),
            add(2, I), add(0.5, mul(-1, I)), add(Fraction(-1, 2), mul(2.5, I))]

    def draw():
        return add(rng.randint(-2, 2), *(mul(rng.randint(-3, 3), rng.choice(rests)) for _ in range(3)))

    shared = 0
    for _ in range(60):
        e = expand(mul(power(draw(), rng.randint(1, 3)), draw()))
        if type(e) is Add:
            uses = Counter(id(p) for r, _ in e.pairs if type(r) is Mul for p in r.pairs)
            shared += any(n > 1 for n in uses.values())
        for t in (e, expand(mul(rng.choice(keys), e)), mul(rng.choice(keys), x, e),
                  add(e, *(mul(rng.choice(keys), rng.choice(rests)) for _ in range(4)))):
            assert to_string(t) == _reference_print(t)
    assert shared > 20


def test_a_series_prints_each_factor_of_its_coefficients_once(monkeypatch):
    # the coefficients of a series are built apart, so a factor they
    # share sits in a pair object of its own in each; its text is made
    # once per (base, exponent), and the print is the one each product
    # gives with a memo of its own
    from minicas.functions import gamma
    from minicas.series import series_of

    x = Symbol("x")
    s = series_of(gamma(x), Eq(x, 0), 15)
    pairs, seen, stack = set(), set(), [s]
    while stack:
        node = stack.pop()
        if id(node) not in seen:
            seen.add(id(node))
            if type(node) is Mul:
                pairs.update((id(r), id(k)) for r, k in node.pairs)
            stack.extend(expr_module._children(node))
    render, product = expr_module._render, expr_module._render_product
    made = []

    def counted(e, parent, *by_factor):
        if sys._getframe(1).f_code.co_name == "_render_product":  # a factor's text
            made.append(id(e))
        return render(e, parent, *by_factor)

    monkeypatch.setattr(expr_module, "_render", counted)
    text = to_string(s)
    assert len(pairs) == 31 and sorted(made) == sorted(r for r, _ in pairs)
    monkeypatch.setattr(expr_module, "_render", render)
    at_one = series_of(mul(gamma(x), power(add(x, Pi), -1)), Eq(x, 1), 4)
    shared = to_string(at_one)
    monkeypatch.setattr(expr_module, "_render_product", lambda e, texts, *by_factor: product(e, {}))
    assert (to_string(s), to_string(at_one)) == (text, shared)


# ------------------------------------------------- rebuilding canonical sums
#
# The references below keep the sum and tree builders as they were
# before sums were merged instead of re-sorted: every pair of a rebuilt
# sum sorted by compare, every term of a substitution walked, and the
# kernel's terms built from _unpack's fields as (rank, e, (atom, Number))
# triples into products that hash their own pairs.


def _reference_add_terms(terms):
    """_add_terms as it was: the bucket in term order, then every
    surviving pair sorted by compare."""
    overall, bucket = num(0), {}

    def merge(r, k):
        prev = bucket.get(r)
        bucket[r] = k if prev is None else num_add(prev, k)

    for t in terms:
        if type(t) is Numeric:
            overall = num_add(overall, t.value)
        elif type(t) is Add:
            overall = num_add(overall, t.coeff)
            for r, k in t.pairs:
                merge(r, k)
        elif type(t) is tuple:
            merge(*t)
        else:
            merge(*expr_module._split_term(t))
    pairs = [(r, k) for r, k in bucket.items() if not k.is_zero()]
    if not pairs:
        return Numeric(overall)
    pairs.sort(key=cmp_to_key(lambda p, q: compare(p[0], q[0])))
    if overall.is_zero() and len(pairs) == 1:
        r, k = pairs[0]
        return r if k.is_one() else expr_module._scaled(r, k)
    return Add(overall, tuple(pairs))


def _reference_poly_tree(terms):
    """_poly_tree as it was, on (rank, e, (atom, Number e)) triples."""
    overall, keyed = num(0), []
    for fs, c in terms:
        if not fs:
            overall = num(c)
        elif len(fs) > 1:
            key = [expr_module.KIND_MUL, len(fs)]
            for r, e, _ in fs:
                key += (r, e)
            keyed.append((key, Mul(num(1), tuple(f[2] for f in fs)), c))
        else:
            ((r, e, (b, k)),) = fs
            if e == 1:
                keyed.append(([b.kind, r], b, c))
            else:
                keyed.append(([expr_module.KIND_POWER, r, e], Power(b, Numeric(k)), c))
    if not keyed:
        return Numeric(overall)
    keyed.sort(key=lambda t: t[0])
    if overall.is_zero() and len(keyed) == 1:
        _, r, c = keyed[0]
        return r if c == 1 else expr_module._scaled(r, num(c))
    return Add(overall, tuple((r, num(c)) for _, r, c in keyed))


def _reference_tree(polys, p):
    """_Polys.tree as it was: each term's _unpack fields as triples."""
    atoms = polys.atoms
    order = sorted(range(len(atoms)), key=cmp_to_key(lambda i, j: compare(atoms[i], atoms[j])))
    rank = {i: r for r, i in enumerate(order)}
    return _reference_poly_tree(
        (sorted((rank[i], e, (atoms[i], num(e))) for i, e in _unpack(m)), c) for m, c in p.items()
    )


def _assert_same_tree(got, want, what):
    """got and want print alike, are ==, hash alike, and so do their
    pairs and the pairs of every product among their rests."""
    assert to_string(got) == to_string(want), what
    assert got == want and hash(got) == hash(want) and type(got) is type(want), what
    if type(got) in (Add, Mul):
        assert len(got.pairs) == len(want.pairs), what
        for (r, k), (rw, kw) in zip(got.pairs, want.pairs):
            assert r == rw and hash(r) == hash(rw) and k == kw and hash(k) == hash(kw), what
            if type(r) is Mul:
                _assert_same_tree(r, rw, what)


def _ref_number(c):
    """The Number of an int or Fraction as Number() itself makes it."""
    c = Fraction(c)
    return Number("int", c.numerator) if c.denominator == 1 else Number("rat", c)


def _assert_built_numbers(t, p, atoms, what):
    """Every number in t, the kernel-built tree of p over atoms, has the
    kind, value and hash Number() gives it, and equals num()'s."""
    def same(k, c):
        want = _ref_number(c)
        assert (k.kind, k.val, k._hash, k.prec, k.re, k.im) == (
            want.kind, want.val, want._hash, None, None, None), what
        assert type(k.val) is type(want.val) and k == num(c), what

    if type(t) is Numeric:
        return same(t.value, p.get(0, 0))
    if type(t) is Add:
        if 0 in p:
            same(t.coeff, p[0])
        assert sorted(k.val for _, k in t.pairs) == sorted(c for m, c in p.items() if m), what
        terms = t.pairs
    else:
        (c,) = p.values()
        terms = [(t, None)]
        if type(t) is Mul:
            same(t.coeff, c)
    exponents = {e for m in p for _, e in _unpack(m)}
    for r, k in terms:
        if k is not None:
            same(k, k.val)
        if type(r) is Mul:
            pairs = r.pairs
        else:
            pairs = [(r.base, r.exponent.value)] if type(r) is Power else []
        for b, e in pairs:
            assert b in atoms and e.val in exponents, what
            same(e, e.val)


def test_one_pass_builder_matches_the_triple_builder():
    x, y, z = symbols("x y z")
    limit = expr_module._LIMIT
    small = numbers_module._SMALL
    atoms = [z, Pi, sin(y), x, Euler, add(1, x), add(y, mul(2, z)), y, zeta(3)]
    coeffs = [1, -1, 3, -7, Fraction(2, 3), Fraction(-1, 4), 10**30, Fraction(5, 10**20),
              small, small + 1, -small - 1, Fraction(10**40 + 1, 7)]
    exponents = [-3, -2, -1, 1, 1, 1, 2, 3, 7, small + 1, -small - 1, limit - 1, limit, -limit]
    rng = random.Random(4111)
    shapes = Counter()
    preset = 0
    for n in range(500):
        polys = _Polys(expand)
        # atoms met in compare's order or not: each term's factors come
        # by atom index and are sorted by rank
        for a in atoms if n % 3 == 0 else rng.sample(atoms, len(atoms)):
            polys.index_of(a)
        p = {}
        for _ in range(rng.choice([1, 1, 2, 5, 9, 30])):
            m = 0
            for i in rng.sample(range(len(atoms)), rng.choice([0, 1, 1, 2, 3, 4])):
                # a sum is an atom only under a negative power
                neg = type(polys.atoms[i]) is Add
                e = rng.choice([-2, -1] if neg else exponents)
                m += e << _FIELD * i
            p[m] = rng.choice(coeffs)
        got = polys.tree(p)
        _assert_same_tree(got, _reference_tree(polys, p), p)
        _assert_built_numbers(got, p, atoms, p)
        shapes[type(got).__name__] += 1
        # the free symbols preset on the built node are those of the tree
        # the constructors build, one add and one mul per term
        want = add(*(mul(c, *(power(polys.atoms[i], e) for i, e in _unpack(m))) for m, c in p.items()))
        if type(got) not in (Numeric, Symbol, Constant):
            assert got._free is not None and got._free == free_symbols(want), p
            preset += 1
        assert free_symbols(got) == free_symbols(want), p
    assert len(shapes) >= 5, shapes
    assert preset > 400, preset
    # poly's dicts over symbols and generators, through _from_dict
    gm = _GenMap(_ordered_vars(add(x, y, z)))
    gm.sym_for(sin(x))
    gm.sym_for(sqrt(y))
    vars, nv = gm.vars, len(gm.vars)
    for _ in range(300):
        p = {}
        for _ in range(rng.choice([1, 2, 4, 8, 20])):
            mono = [0] * nv
            for i in rng.sample(range(nv), rng.randint(0, 3)):
                mono[i] = rng.choice([1, 1, 2, 3, limit - 1])
            p[sum(k << _FIELD * (nv - 1 - j) for j, k in enumerate(mono))] = rng.choice(coeffs)
        want = _reference_poly_tree(
            ([(j, k, (vars[j], num(k))) for j, k in enumerate(_fields(m, nv)) if k], c)
            for m, c in p.items()
        )
        got = _from_dict(p, vars)
        _assert_same_tree(got, want, p)
        _assert_built_numbers(got, p, vars, p)
        if type(got) not in (Numeric, Symbol):
            assert got._free == free_symbols(add(*(mul(c, *(power(vars[j], k) for j, k in enumerate(
                _fields(m, nv)) if k)) for m, c in p.items()))), p


def _fields(m, nv):
    """The nv exponents of one of poly's monomials, variable 0 first."""
    return [m >> _FIELD * (nv - 1 - j) & expr_module._MASK for j in range(nv)]


def test_merged_sums_match_the_fully_sorted_ones():
    # a sum built from a canonical Add keeps its surviving pairs as a
    # run and puts the new ones in by binary search when that is
    # cheaper than sorting; the result is the sorted one in every case
    syms = symbols("a b c d e f g")
    rests = sorted({mul(*rng_s) for rng_s in _monomials(syms)}, key=cmp_to_key(compare))
    keys = [1, -1, 2, Fraction(1, 3), 0.5, -0.25, add(1, I), mul(0.5, I)]
    rng = random.Random(907)
    sides = Counter()
    for _ in range(600):
        n = rng.choice([1, 2, 3, 5, 8, 20, 60, 150])
        chosen = rng.sample(rests, min(len(rests), n + 40))
        base_terms = [mul(rng.choice(keys), r) for r in chosen[:n]]
        base = add(rng.choice([0, 1, 0.5]), *base_terms)
        if type(base) is not Add:
            continue
        k = rng.choice([0, 1, 2, 3, 5, 10, 40])
        terms = [mul(rng.choice(keys), r) for r in chosen[n : n + k]]
        # terms that merge into the run, and terms that cancel a base term
        terms += [mul(rng.choice(keys), r) for r in rng.sample(chosen[:n], min(n, rng.randint(0, 3)))]
        terms += [mul(-1, t) for t in rng.sample(base_terms, min(n, rng.randint(0, 2)))]
        terms += [(r, num(rng.choice([1, -2]))) for r in chosen[n + k : n + k + rng.randint(0, 2)]]
        rng.shuffle(terms)
        terms.insert(rng.randint(0, len(terms)), base)
        if rng.random() < 0.3:
            terms.append(add(*[t for t in terms[:3] if type(t) is not tuple]))  # a second Add
        got = expr_module._add_terms(list(terms))
        want = _reference_add_terms(list(terms))
        _assert_same_tree(got, want, [to_string(t) if not isinstance(t, tuple) else t for t in terms])
        # which side of the switch the rebuild from base took
        kept = {r for r, _ in base.pairs}
        if type(got) is Add:
            run = sum(1 for r, _ in got.pairs if r in kept)
            new = len(got.pairs) - run
            sides[new * run.bit_length() < run] += 1
    assert sides[True] > 100 and sides[False] > 100, sides


def _monomials(syms):
    """Products of one to three of syms, with exponents 1 to 3."""
    out = []
    for a in syms:
        for e in (1, 2, 3):
            out.append((power(a, e),))
            for b in syms:
                if compare(a, b) < 0:
                    out.append((power(a, e), b))
                    for c in syms[-2:]:
                        if compare(b, c) < 0:
                            out.append((a, power(b, e), c))
    return out


def _generic_subs(e, bindings):
    """subs as a plain _rewrite rule: every child walked."""
    table = expr_module._normalize_bindings(bindings)

    def rule(x, walk):
        if type(x) is Symbol:
            pair = table.get(x.serial)
            return None if pair is None else pair[1]
        if type(x) is PSeriesNode and x.var.serial in table:
            raise UnsupportedPatternError("cannot substitute a series variable")
        return None

    return _rewrite(e, rule)


def test_subs_skips_only_the_terms_it_cannot_change():
    x, y, z, w, v = symbols("x y z w v")
    rng = random.Random(5303)
    bases = [x, y, z, w, Pi, Euler, sqrt(2), sqrt(y)]
    exps = [1, 1, 2, 3, -1, -2, Fraction(1, 2), 0.5]
    keys = [1, -1, 2, Fraction(-1, 3), 0.5, -1.25, 0.1, I, add(2, I), add(0.5, mul(-1, I))]
    series = [pseries(v, 0, [(x, 0), (add(y, 1), 1)], 3), pseries(v, 1, [(mul(2, z), 2)], None)]
    bindings = [
        {x: y}, {x: mul(-1, y)}, {x: add(y, 1)}, {x: 0}, {y: 0, z: 0}, {x: z, z: x},
        {x: lift(0.5)}, {y: add(x, mul(-1, z))}, {w: add(x, y, z)}, {x: mul(2, I)},
        {z: lift(Fraction(1, 2)), y: x}, {v: 1}, {w: power(x, -1)}, {Symbol("unused"): x},
    ]
    outcomes = Counter()
    for _ in range(700):
        terms = []
        for _ in range(rng.randint(1, 12)):
            factors = [power(rng.choice(bases), rng.choice(exps)) for _ in range(rng.randint(1, 3))]
            r = rng.random()
            if r < 0.1:
                factors.append(sin(add(rng.choice(bases), rng.choice(bases))))
            elif r < 0.2:
                factors.append(power(rng.choice(bases), rng.choice([y, add(x, 1)])))
            elif r < 0.25:
                factors.append(rng.choice(series))
            elif r < 0.3:
                factors.append(add(rng.choice(bases), 1))
            terms.append(mul(rng.choice(keys), *factors))
        e = add(rng.choice([0, 1, 0.5]), *terms)
        if rng.random() < 0.5:
            e = expand(e)
        b = rng.choice(bindings)
        got, want = _outcome(lambda: subs(e, b)), _outcome(lambda: _generic_subs(e, b))
        if isinstance(want, tuple):
            assert got == want, (to_string(e), b)
            outcomes[want[0].__name__] += 1
        else:
            _assert_same_tree(got, want, (to_string(e), b))
            outcomes[type(got).__name__] += 1
    assert outcomes["UnsupportedPatternError"] > 5 and outcomes["Add"] > 300, outcomes


def test_subs_into_an_expanded_square_merges_its_new_terms(monkeypatch):
    # one substitution into the 1,275-term square of a 50-term linear
    # form changes its 50 terms with a_k: they are sorted among
    # themselves and put into the kept 1,225 by binary search, in 1,077
    # compares, where sorting all the pairs took 8,596
    n = 50
    syms = [Symbol(f"a{i}") for i in range(n)]
    rng = random.Random(17)
    cs = rng.sample([(1, 2, 3)[i % 3] for i in range(n)], n)
    k, j = rng.sample(range(n), 2)
    cs[k] = 1
    square = expand(power(add(*[mul(c, s) for c, s in zip(cs, syms)]), 2))
    repl = mul(-1, add(*[mul(cs[i], syms[i]) for i in range(n) if i not in (k, j)]))
    want = _generic_subs(square, {syms[k]: repl})
    calls = 0
    inner = expr_module.compare

    def counted(a, b):
        nonlocal calls
        calls += 1
        return inner(a, b)

    monkeypatch.setattr(expr_module, "compare", counted)
    got = subs(square, {syms[k]: repl})
    monkeypatch.undo()
    assert len(square.pairs) == 1275 and calls <= 1500, calls
    _assert_same_tree(got, want, "collapse")
    assert to_string(expand(got)) == to_string(mul(cs[j] ** 2, power(syms[j], 2)))
