"""Number tower tests.

Expected values are produced by small independent oracles written in
plain int/Fraction arithmetic before the assertions that use them, so a
bug in the tower cannot hide inside its own expected values.
"""

from __future__ import annotations

import math
import random
import time
from fractions import Fraction

import pytest
from mpmath.libmp import from_man_exp

from minicas import numbers as numbers_module
from minicas.errors import DomainError
from minicas.numbers import (
    _FLOAT,
    _format_float,
    DEFAULT_DPS,
    IUNIT,
    Number,
    bernoulli,
    complexnum,
    from_decimal,
    floatval,
    integer,
    num,
    num_add,
    num_arith,
    num_cmp,
    num_div,
    num_factorial,
    num_gcd,
    num_mul,
    num_pow,
    num_to_float,
    rational,
)


# ---------------------------------------------------------------- oracles


def frac_add_oracle(p1, q1, p2, q2):
    """Cross-multiplication sum, reduced by plain integer gcd."""
    num_, den = p1 * q2 + p2 * q1, q1 * q2
    g = math.gcd(num_, den)
    num_, den = num_ // g, den // g
    if den < 0:
        num_, den = -num_, -den
    return num_, den


def binary_gcd_oracle(a, b):
    """Stein's algorithm on nonnegative ints, no math.gcd."""
    a, b = abs(a), abs(b)
    if a == 0:
        return b
    if b == 0:
        return a
    shift = 0
    while (a | b) & 1 == 0:
        a, b, shift = a >> 1, b >> 1, shift + 1
    while a & 1 == 0:
        a >>= 1
    while b:
        while b & 1 == 0:
            b >>= 1
        if a > b:
            a, b = b, a
        b -= a
    return a << shift


def bernoulli_recurrence_oracle(n):
    """B_n from sum_{k=0}^{n} C(n+1,k) B_k = 0, B_0 = 1 (so B_1 = -1/2)."""
    B = [Fraction(1)]
    for m in range(1, n + 1):
        s = sum(math.comb(m + 1, k) * B[k] for k in range(m))
        B.append(-s / (m + 1))
    return B[n]


def rounding_gap(x: Number, target: Fraction) -> Fraction:
    return abs(x.as_fraction() - target)


# ------------------------------------------------------------ construction


def test_rational_normalization():
    assert str(rational(4, 6)) == "2/3"
    assert rational(4, 2) == integer(2)
    assert rational(4, 2).is_integer()
    assert rational(-4, 6) == rational(4, -6)
    assert str(rational(3, 2)) == "3/2"
    with pytest.raises(ZeroDivisionError):
        rational(1, 0)


def test_complex_collapse():
    assert complexnum(integer(3), integer(0)) == integer(3)
    z = complexnum(integer(2), integer(3))
    assert str(z) == "2+3*I"
    assert str(complexnum(integer(2), integer(-3))) == "2-3*I"
    assert str(IUNIT) == "I"
    assert str(complexnum(integer(0), rational(-7, 2))) == "-7/2*I"


def test_lift_python_values():
    assert num(7).is_integer()
    assert num(Fraction(1, 3)) == rational(1, 3)
    # Python floats come in exactly: 0.8 is the IEEE-double value
    x = num(0.8)
    assert x.prec == DEFAULT_DPS
    assert x.as_fraction() == Fraction(0.8)
    with pytest.raises(DomainError):
        num(float("nan"))
    with pytest.raises(DomainError):
        num(True)


def test_recanonicalization_is_identity():
    rng = random.Random(100)
    for _ in range(200):
        p, q = rng.randint(-90, 90), rng.randint(1, 90)
        a = rational(p, q)
        again = rational(a.as_fraction().numerator, a.as_fraction().denominator)
        assert num_cmp(a, again) == 0 and hash(a) == hash(again)


# -------------------------------------------------------------- arithmetic


def test_rational_add_against_cross_multiplication():
    p, q = frac_add_oracle(2, 3, 5, 7)
    assert (p, q) == (29, 21)
    assert num_add(rational(2, 3), rational(5, 7)) == rational(p, q)
    rng = random.Random(7)
    for _ in range(300):
        p1, q1 = rng.randint(-50, 50), rng.randint(1, 50)
        p2, q2 = rng.randint(-50, 50), rng.randint(1, 50)
        ep, eq = frac_add_oracle(p1, q1, p2, q2)
        assert num_add(rational(p1, q1), rational(p2, q2)) == rational(ep, eq)


def test_exact_ops_on_mixed_variants_against_fraction_oracle():
    # integer and rational operands in every pairing, each op checked
    # for its value and for the variant it collapses to
    rng = random.Random(8)

    def draw():
        return Fraction(rng.randint(-60, 60), rng.choice([1, 1, rng.randint(2, 30)]))

    for _ in range(400):
        fa, fb = draw(), draw()
        a, b = num(fa), num(fb)
        assert num_cmp(a, b) == (fa > fb) - (fa < fb)
        wants = [(num_add, fa + fb), (num_mul, fa * fb)]
        if fb:
            wants.append((num_div, fa / fb))
        for op, want in wants:
            got = op(a, b)
            assert got.kind == ("int" if want.denominator == 1 else "rat")
            assert got.as_fraction() == want


def test_complex_multiplication_collapses():
    a = complexnum(integer(0), rational(7, 3))
    b = complexnum(integer(0), integer(-3))
    prod = num_mul(a, b)
    assert prod == integer(7)
    assert prod.is_integer()


def test_integer_pow_and_division():
    assert num_pow(integer(2), integer(10)) == integer(1024)
    assert num_pow(integer(2), integer(-3)) == rational(1, 8)
    assert num_pow(integer(0), integer(0)) == integer(1)
    assert num_div(integer(10), integer(4)) == rational(5, 2)
    with pytest.raises(ZeroDivisionError):
        num_div(integer(1), integer(0))
    with pytest.raises(ZeroDivisionError):
        num_pow(integer(0), integer(-1))
    with pytest.raises(ZeroDivisionError):
        num_div(integer(1), floatval(0))


def test_exact_pow_refuses_results_too_large_to_build():
    # each of these would take 13 MB to 3 GB; the size is estimated
    # from the exponent and the base's bit length before any work
    huge = 10**10
    for base, n in [
        (integer(2), huge),
        (integer(-3), -huge),
        (rational(2, 3), -(10**9)),
        (complexnum(integer(1), integer(1)), huge),
        # of absolute value 1, but 5^(10^10) in the denominator
        (complexnum(rational(3, 5), rational(4, 5)), huge),
        # 1.58 * 2^26 bits: the estimate is an upper bound
        (integer(3), 2**26),
    ]:
        with pytest.raises(DomainError):
            num_pow(base, integer(n))
    # bases of absolute value 1 stay cheap at any exponent
    assert num_pow(integer(1), integer(huge)) == integer(1)
    assert num_pow(integer(-1), integer(huge + 1)) == integer(-1)
    assert num_pow(IUNIT, integer(huge + 3)) == num_mul(integer(-1), IUNIT)
    assert num_pow(integer(2), integer(10**6)) == integer(2 ** (10**6))
    # an exact rational root raised to a huge power goes through the
    # same check; a root of huge index is settled without any power
    from minicas.expr import Power, lift, power

    with pytest.raises(DomainError):
        power(4, lift(Fraction(2 * huge + 1, 2)))
    assert type(power(3, lift(Fraction(1, huge)))) is Power
    assert power(4, lift(Fraction(-3, 2))) == lift(Fraction(1, 8))


def _decimal_oracle(n: int) -> str:
    """Decimal digits of n, 400 at a time, each chunk under Python's limit."""
    sign, n = ("-", -n) if n < 0 else ("", n)
    chunks = []
    while n:
        n, r = divmod(n, 10**400)
        chunks.append(str(r).rjust(400, "0"))
    return sign + ("".join(reversed(chunks)).lstrip("0") or "0")


def test_decimal_conversion_past_the_digit_limit():
    from minicas.numbers import decimal_to_int, int_to_decimal

    rng = random.Random(4300)
    for bits in (1, 64, 1600, 1601, 3203, 14300, 20000, 100003):
        for _ in range(3):
            n = rng.getrandbits(bits) | 1 << (bits - 1)
            for v in (n, -n, 10 ** len(str(bits)) * n):
                want = _decimal_oracle(v)
                assert int_to_decimal(v) == want
                assert decimal_to_int(want.lstrip("-")) == abs(v)
    assert int_to_decimal(0) == "0"
    assert str(rational(-1, 3**9000)) == "-1/" + _decimal_oracle(3**9000)
    # a long literal parses through the same conversion
    sevens = (10**5000 - 1) // 9 * 7
    want = floatval(Fraction(2 * sevens + 1, 2), 20)
    assert from_decimal("7" * 5000 + ".5", 20) == want


def test_decimal_literal_exponent_is_bounded():
    # the exact value is built before rounding, so an exponent with
    # hundreds of digits would never finish
    assert from_decimal("2.5e-100000", 20) == floatval(Fraction(5, 2 * 10**100000), 20)
    for text in ("1e100001", "2.5E-" + "9" * 700, "1e-1000000"):
        with pytest.raises(DomainError):
            from_decimal(text)


def test_exact_pow_with_fractional_exponent_is_refused():
    with pytest.raises(DomainError):
        num_pow(integer(2), rational(1, 2))


def test_float_pow_goes_numeric():
    x = num_pow(floatval(2), floatval(Fraction(1, 2)))
    gap = rounding_gap(x, Fraction(0))
    assert abs(x.as_fraction() ** 2 - 2) < Fraction(1, 10**18)
    y = num_pow(floatval(-1), floatval(Fraction(1, 2)))
    assert y.kind == "cplx"
    assert abs(y.im.as_fraction() - 1) < Fraction(1, 10**18)


def test_field_axioms_on_random_exact_values():
    rng = random.Random(42)
    for _ in range(300):
        a = rational(rng.randint(-40, 40), rng.randint(1, 40))
        b = rational(rng.randint(-40, 40), rng.randint(1, 40))
        c = rational(rng.randint(-40, 40), rng.randint(1, 40))
        assert a * (b + c) == a * b + a * c
        assert a + (-a) == integer(0)
        if not a.is_zero():
            assert a * (integer(1) / a) == integer(1)


def test_exactness_preservation_and_contamination():
    assert num_mul(rational(1, 3), integer(6)).is_exact()
    mixed = num_add(rational(1, 3), floatval(1, 8))
    assert not mixed.is_exact()
    assert mixed.prec == 8  # coarsest float precision wins
    coarser = num_mul(floatval(2, 5), floatval(3, 15))
    assert coarser.prec == 5


def test_num_arith_dispatch():
    assert num_arith("add", integer(1), integer(2)) == integer(3)
    assert num_arith("pow", integer(2), integer(5)) == integer(32)
    with pytest.raises(DomainError):
        num_arith("mod", integer(1), integer(2))


# ------------------------------------------------------------------ order


def test_cmp_is_a_total_order():
    pool = [
        integer(0),
        integer(1),
        integer(-2),
        rational(1, 2),
        rational(-1, 2),
        floatval(Fraction(1, 2), 10),
        floatval(Fraction(1, 2), 20),
        floatval(2),
        complexnum(integer(1), integer(1)),
        complexnum(integer(1), integer(-1)),
        IUNIT,
    ]
    for a in pool:
        for b in pool:
            assert num_cmp(a, b) == -num_cmp(b, a)
            if num_cmp(a, b) == 0:
                assert hash(a) == hash(b)
    for a in pool:
        for b in pool:
            for c in pool:
                if num_cmp(a, b) <= 0 and num_cmp(b, c) <= 0:
                    assert num_cmp(a, c) <= 0


def test_cmp_value_before_variant():
    # 1/2 as rational sorts before 1/2 as float (variant rank), but both
    # sort after 1/3 of any variant (value first).
    assert num_cmp(rational(1, 2), floatval(Fraction(1, 2), 10)) < 0
    assert num_cmp(floatval(Fraction(1, 3)), rational(1, 2)) < 0
    assert num_cmp(floatval(Fraction(1, 2), 10), floatval(Fraction(1, 2), 20)) < 0


# ------------------------------------------------------------- named ops


def test_gcd_against_binary_oracle():
    a, b = (2**100) * 3, (2**100) * 5
    expect = binary_gcd_oracle(a, b)
    assert expect == 2**100
    assert num_gcd(integer(a), integer(b)) == integer(expect)
    rng = random.Random(3)
    for _ in range(300):
        x, y = rng.randint(-10**6, 10**6), rng.randint(-10**6, 10**6)
        g = num_gcd(integer(x), integer(y)).as_int()
        assert g == binary_gcd_oracle(x, y)
        if g:
            assert x % g == 0 and y % g == 0
            assert num_gcd(integer(x // g), integer(y // g)) == integer(1)
    with pytest.raises(DomainError):
        num_gcd(rational(1, 2), integer(2))


def test_factorial():
    assert num_factorial(integer(5)) == integer(120)
    assert num_factorial(integer(0)) == integer(1)
    assert num_div(num_factorial(integer(10)), num_factorial(integer(8))) == integer(90)
    with pytest.raises(DomainError):
        num_factorial(integer(-1))
    assert num_factorial(integer(1000)) == integer(math.factorial(1000))


def test_factorial_refuses_results_too_large_to_build():
    # the bit length of n! is bounded before anything is multiplied
    for n in (10**7, 3_500_000, 10**100):
        start = time.perf_counter()
        with pytest.raises(DomainError):
            num_factorial(integer(n))
        assert time.perf_counter() - start < 0.1
    assert num_factorial(integer(20_000)).val == math.factorial(20_000)


def _float_digits_by_expansion(tup, ndigits: int):
    """The printing digits of a float from its full decimal expansion:
    the exact integer man * 2**exp or man * 5**-exp, cut and rounded half
    even as a string."""
    _, man, exp, _ = tup
    man = int(man)
    if exp >= 0:
        s = str(man << exp)
        dec_exp = len(s)
    else:
        s = str(man * 5**-exp)
        dec_exp = len(s) + exp
    if len(s) > ndigits:
        head, tail = s[:ndigits], s[ndigits:]
        half = "5" + "0" * (len(tail) - 1)
        round_up = tail > half or (tail == half and int(head[-1]) % 2 == 1)
        if round_up:
            head = str(int(head) + 1)
            if len(head) > ndigits:
                head = head[:ndigits]
                dec_exp += 1
        s = head
    s = s.rstrip("0") or "0"
    return s, dec_exp


def test_float_printing_matches_the_full_expansion(monkeypatch):
    # mantissas with many factors of 5 put ties and carries at the cut
    rng = random.Random(1871)
    floats = []
    for _ in range(2500):
        if rng.random() < 0.3:
            man = rng.randint(1, 999) * 5 ** rng.randint(0, 40)
        else:
            man = rng.getrandbits(rng.randint(1, 220)) | 1
        tup = from_man_exp(rng.choice([-1, 1]) * man, rng.randint(-3000, 3000))
        floats.append((tup, rng.randint(2, 60)))
    got = [_format_float(tup, prec) for tup, prec in floats]
    monkeypatch.setattr(numbers_module, "_float_digits", _float_digits_by_expansion)
    assert [_format_float(tup, prec) for tup, prec in floats] == got
    assert len(set(got)) > 2400


def test_floats_far_from_one_print():
    start = time.perf_counter()
    assert str(from_decimal("2.5e-10000")) == "2.5E-10000"
    assert str(from_decimal("1.0e4400")) == "1.0E4400"
    assert str(from_decimal("-7.25e-100000")) == "-7.25E-100000"
    assert str(num_to_float(num_pow(integer(10), integer(5000)), DEFAULT_DPS)) == "1.0E5000"
    assert time.perf_counter() - start < 1
    with pytest.raises(DomainError):
        str(Number(_FLOAT, from_man_exp(3, 10**7), DEFAULT_DPS))


def test_bernoulli_against_recurrence_oracle():
    assert bernoulli(0) == integer(1)
    assert bernoulli(1) == rational(-1, 2)
    assert bernoulli(2) == rational(1, 6)
    assert bernoulli(4) == rational(-1, 30)
    for n in range(0, 30):
        assert bernoulli(n).as_fraction() == bernoulli_recurrence_oracle(n)
    assert bernoulli(3).is_zero() and bernoulli(17).is_zero()
    with pytest.raises(DomainError):
        bernoulli(-1)


# ----------------------------------------------------------------- floats


def test_to_float_rounding_bound():
    rng = random.Random(11)
    for _ in range(200):
        p_, q_ = rng.randint(-10**6, 10**6), rng.randint(1, 10**6)
        if p_ == 0:
            continue
        a = rational(p_, q_)
        for prec in (2, 5, 20):
            x = num_to_float(a, prec)
            bound = Fraction(10) ** (1 - prec) * abs(a.as_fraction())
            assert rounding_gap(x, a.as_fraction()) <= bound


def test_to_float_known_values():
    x = num_to_float(rational(4, 5), 20)
    assert str(x) == "0.8"
    assert rounding_gap(x, Fraction(4, 5)) <= Fraction(1, 10**20)
    y = num_to_float(rational(1, 3), 5)
    assert str(y) == "0.33333"
    # the exact value 5897162382592/48828125 terminates: 120773.88559548416,
    # so correct rounding at 19 digits gives the ...600 tail
    z = num_to_float(rational(5897162382592, 48828125), 19)
    assert str(z) == "120773.88559548416"
    assert rounding_gap(z, Fraction(5897162382592, 48828125)) <= Fraction(10) ** -18 * z.as_fraction()


def test_float_printing_forms():
    assert str(from_decimal("1.60219e-19", 6)) == "1.60219E-19"
    assert str(floatval(1)) == "1.0"
    assert str(floatval(-1)) == "-1.0"
    assert str(floatval(0)) == "0.0"
    assert str(floatval(1024)) == "1024.0"
    assert str(from_decimal("0.000123")) == "0.000123"
    assert str(from_decimal("1.5e30")) == "1.5E30"
    assert str(from_decimal("36.128315516282622243")) == "36.128315516282622243"


def test_from_decimal_precision_inference():
    # short literals get the default precision, long ones keep all digits
    assert from_decimal("0.8").prec == DEFAULT_DPS
    assert from_decimal("36.128315516282622243").prec == DEFAULT_DPS
    long = from_decimal("3.14159265358979323846264338327")
    assert long.prec == 30
    assert from_decimal("1.60219e-19", 6).prec == 6
    with pytest.raises(DomainError):
        from_decimal("not a number")


def test_float_decimal_echo_roundtrip():
    # decimal text -> float -> text -> float is stable at >= default digits
    rng = random.Random(5)
    for _ in range(200):
        digits = "".join(rng.choice("0123456789") for _ in range(rng.randint(1, 20)))
        text = f"{rng.choice(['', '-'])}{rng.randint(0, 99)}.{digits}"
        x = from_decimal(text)
        y = from_decimal(str(x))
        assert num_cmp(x, y) == 0, (text, str(x), str(y))


# ------------------------------------------------------- shared small ints


def _built_int(n):
    """An int Number built directly, as every int was before small ints
    were shared; num_mul takes its slow path on a built 1."""
    return Number("int", n)


def _same_number(fast, slow):
    assert hash(fast) == hash(slow)
    assert fast == slow and num_cmp(fast, slow) == 0
    assert str(fast) == str(slow)
    assert (fast.kind, fast.prec) == (slow.kind, slow.prec)


def test_shared_small_ints_match_built_ones():
    rng = random.Random(20)
    edge = numbers_module._SMALL
    ints = [0, 1, -1, edge, -edge, edge + 1, -edge - 1, 10**40, -(10**40) - 7]
    ints += [rng.randint(-3 * edge, 3 * edge) for _ in range(300)]
    for n in ints:
        d, a = rng.randint(1, 50), rng.randint(-3 * edge, 3 * edge)
        made = [
            num(n), integer(n), num(Fraction(n * d, d)), rational(-n * d, -d),
            num_add(num(a), num(n - a)), num_mul(num(n), num(1)), num_mul(num(-1), num(-n)),
            numbers_module.num_neg(num(-n)), num_pow(num(n), num(1)),
        ]
        for fast in made:
            _same_number(fast, _built_int(n))
            # shared exactly inside the table, built afresh outside it
            assert (fast is num(n)) == (-edge <= n <= edge)
    assert num_gcd(num(12), num(18)) is num(6)
    assert num_factorial(num(5)) is num(120)
    assert IUNIT.re is num(0) and IUNIT.im is num(1)
    for bad in (True, False):
        with pytest.raises(DomainError):
            num(bad)


def test_exact_one_is_the_identity_of_num_mul():
    rng = random.Random(21)
    for _ in range(200):
        f = floatval(Fraction(rng.randint(-10**6, 10**6), rng.randint(1, 999)), rng.choice([5, 20, 40]))
        part = rng.choice([integer(rng.randint(-300, 300)), rational(rng.randint(1, 9), 7), f])
        for x in (f, complexnum(f, floatval(rng.randint(1, 9), f.prec)), complexnum(integer(2), rational(1, 3))):
            # the slow product agrees where both parts are exact, or float
            # at one precision
            assert num_mul(num(1), x) is x and num_mul(x, num(1)) is x
            _same_number(num_mul(num(1), x), num_mul(_built_int(1), x))
        # a complex value reads the same with shared or built int parts
        for re, im in ((part, integer(rng.randint(1, 300))), (integer(rng.randint(-300, 300)), part)):
            if im.is_zero():
                continue
            slow = complexnum(
                _built_int(re.val) if re.kind == "int" else re,
                _built_int(im.val) if im.kind == "int" else im,
            )
            _same_number(complexnum(re, im), slow)
    # one exact and one float part: the slow product turned the exact part
    # float, and the identity keeps it
    mixed = complexnum(floatval(Fraction(5, 2)), integer(1))
    assert str(num_mul(num(1), mixed)) == "2.5+I"
    assert str(num_mul(_built_int(1), mixed)) == "2.5+1.0*I"
    # float parts at two precisions: it rounded the finer one to the coarser
    finer = complexnum(floatval(2), from_decimal("1.2345678901234567890123"))
    assert str(num_mul(num(1), finer)) == "2.0+1.2345678901234567890123*I"
    assert str(num_mul(_built_int(1), finer)) == "2.0+1.234567890123456789*I"
