"""Linear algebra tests.

The production determinant routes through memoized minor expansion or
Bareiss elimination, on the poly dict representation or (for entries
with generators such as sin(x)) on the trees with normal(), so the
oracle here is the one thing it never uses: textbook Laplace expansion
along the first row over plain Python Fractions and Exprs.  The
charpoly of a numeric matrix, which takes Faddeev-LeVerrier, is held to
what det(M - lam*I) prints.
Inverses are checked against the adjugate formula and the defining
product, solve_linear against Cramer's rule, and the Hilbert family
against its factorial closed form.  Both also print, statement by
statement, what their own elimination loops printed before they came to
share one; those loops are kept here as the reference.
"""

import math
import operator
import random
from collections import Counter
from fractions import Fraction
from functools import reduce
from math import factorial

import mpmath
import pytest

from minicas.errors import (
    DomainError,
    NoUniqueSolutionError,
    ShapeError,
    SingularMatrixError,
)
from minicas.expr import (
    Add,
    Constant,
    Eq,
    ExprList,
    FunctionApp,
    MatrixNode,
    Mul,
    Numeric,
    Pi,
    Power,
    PSeriesNode,
    Relational,
    Symbol,
    add,
    expand,
    free_symbols,
    lift,
    mul,
    power,
    subs,
    symbols,
    to_string,
)
from minicas.functions import exp, sin
from minicas.matrices import (
    hilbert,
    identity,
    mat_charpoly,
    mat_det,
    mat_inverse,
    mat_mul,
    matrix,
    solve_linear,
)
from minicas import expr as expr_module
from minicas import matrices as matrices_module
from minicas import parser as parser_module
from minicas import poly as poly_module
from minicas.expr import _LIMIT, _padd
from minicas.matrices import (
    _det_bareiss,
    _det_bareiss_dict,
    _dict_quo,
    _integer_rows,
    _is_zero,
    _tree_quo,
    _tree_sum,
)
from minicas.poly import _dmul, _from_dict, _ordered_vars, _to_dict, coeff, collect, degree, normal
from minicas.shell import Shell

# ---------------------------------------------------------------- oracles


def det_laplace(rows):
    """Determinant by expansion along the first row.  Works on anything
    with +, *, and unary minus through the expression constructors, and
    never touches the census, Bareiss, or the dict representation."""
    n = len(rows)
    if n == 1:
        return rows[0][0]
    total = []
    for j in range(n):
        minor = [r[:j] + r[j + 1 :] for r in rows[1:]]
        t = mul(rows[0][j], det_laplace(minor))
        total.append(mul(-1, t) if j % 2 else t)
    return add(*total)


def det_fraction(rows):
    """Same expansion on plain Fractions, outside the kernel entirely."""
    n = len(rows)
    if n == 1:
        return rows[0][0]
    total = Fraction(0)
    for j in range(n):
        minor = [r[:j] + r[j + 1 :] for r in rows[1:]]
        s = -1 if j % 2 else 1
        total += s * rows[0][j] * det_fraction(minor)
    return total


def det_gauss(rows):
    """Gaussian elimination on plain Fractions, for sizes Laplace cannot
    reach."""
    rows = [[Fraction(v) for v in r] for r in rows]
    n = len(rows)
    d = Fraction(1)
    for k in range(n):
        piv = next((i for i in range(k, n) if rows[i][k]), None)
        if piv is None:
            return Fraction(0)
        if piv != k:
            rows[k], rows[piv] = rows[piv], rows[k]
            d = -d
        d *= rows[k][k]
        for i in range(k + 1, n):
            f = rows[i][k] / rows[k][k]
            for j in range(k, n):
                rows[i][j] -= f * rows[k][j]
    return d


def adjugate_inverse(rows):
    """Inverse via cofactors: (A^-1)[i][j] = (-1)^(i+j) M_ji / det."""
    n = len(rows)
    d = det_laplace(rows)
    out = []
    for i in range(n):
        for j in range(n):
            minor = [r[:i] + r[i + 1 :] for k, r in enumerate(rows) if k != j]
            c = det_laplace(minor) if n > 1 else lift(1)
            if (i + j) % 2:
                c = mul(-1, c)
            out.append(normal(mul(c, power(d, -1))))
    return MatrixNode(n, n, out)


def hilbert_det_closed(n: int) -> Fraction:
    num = 1
    for k in range(1, n):
        num *= factorial(k)
    den = 1
    for k in range(1, 2 * n):
        den *= factorial(k)
    return Fraction(num**4, den)


def rand_fraction_rows(rng, n, h=9):
    return [
        [Fraction(rng.randint(-h, h), rng.randint(1, 4)) for _ in range(n)]
        for _ in range(n)
    ]


def rand_int_rows(rng, n, h=9):
    return [[rng.randint(-h, h) for _ in range(n)] for _ in range(n)]


def as_matrix(rows):
    return matrix(rows)


# ---------------------------------------------------------------- determinant


def test_det_examples():
    x = Symbol("x")
    # [TRIVIAL] identity determinants
    for n in (1, 2, 5):
        assert mat_det(identity(n)) == lift(1)
    # [DERIVED] rank-3 Hilbert by the Fraction Laplace oracle: 1/2160
    h3 = [[Fraction(1, i + j + 1) for j in range(3)] for i in range(3)]
    assert det_fraction(h3) == Fraction(1, 2160)
    assert mat_det(hilbert(3)) == lift(Fraction(1, 2160))
    # [PAPER] det([[1,x],[-x,1]]); [DERIVED] 2x2 formula: 1*1 - x*(-x)
    m = matrix([[1, x], [mul(-1, x), 1]])
    assert mat_det(m) == add(1, power(x, 2))


def test_det_against_laplace_oracle():
    rng = random.Random(202601)
    x, y = symbols("x y")
    for n in (2, 3, 4):
        for _ in range(12):
            rows = [
                [
                    add(
                        lift(rng.randint(-4, 4)),
                        mul(rng.randint(-2, 2), x),
                        mul(rng.randint(-2, 2), y),
                    )
                    for _ in range(n)
                ]
                for _ in range(n)
            ]
            want = expand(det_laplace(rows))
            assert mat_det(as_matrix(rows)) == want


def test_det_rational_matrices_match_fraction_oracle():
    rng = random.Random(202602)
    for n in (2, 3, 5, 6):
        for _ in range(8):
            rows = rand_fraction_rows(rng, n)
            assert mat_det(as_matrix(rows)) == lift(det_fraction(rows))


def test_det_hilbert_closed_form():
    # exact for every rank up to 12
    for n in range(1, 13):
        assert mat_det(hilbert(n)) == lift(hilbert_det_closed(n))


def test_det_is_multiplicative():
    rng = random.Random(202603)
    for _ in range(10):
        a = rand_fraction_rows(rng, 4)
        b = rand_fraction_rows(rng, 4)
        ma, mb = as_matrix(a), as_matrix(b)
        assert mat_det(mat_mul(ma, mb)) == mul(mat_det(ma), mat_det(mb))


def test_det_symbolic_entries():
    x = Symbol("x")
    # sparse symbolic: census sends this through cofactor expansion
    m = matrix([[sin(x), 0, 0], [0, sin(x), 0], [0, 0, sin(x)]])
    assert mat_det(m) == power(sin(x), 3)
    # dense symbolic goes through Bareiss with normal-resolved divisions
    m2 = matrix([[sin(x), 1], [1, sin(x)]])
    assert mat_det(m2) == add(power(sin(x), 2), -1)
    # cancellation of function kernels detects a singular product matrix
    m3 = matrix([[exp(x), 1], [1, power(exp(x), -1)]])
    assert mat_det(m3) == lift(0)


def test_det_refuses_a_non_polynomial_entry_before_multiplying(monkeypatch):
    x, y, z, w = symbols("x y z w")
    big = mul(power(add(x, y, z), 30), sin(w))
    m = MatrixNode(3, 3, [lift(v) for v in (big, 0, 0, 0, 1, 0, 0, 0, 1)])

    def multiplied(*args):
        raise AssertionError("the kernel multiplied before it refused")

    monkeypatch.setattr(expr_module, "_pmul", multiplied)
    monkeypatch.setattr(expr_module, "_ppow", multiplied)
    with pytest.raises(DomainError):
        _to_dict(big, _ordered_vars(big))
    assert _det_bareiss_dict(m) is None
    monkeypatch.undo()
    assert mat_det(m) == big


SHAPES = ("sparse", "banded", "checkerboard", "dense")
KINDS = ("integer", "rational", "polynomial", "rational-function", "generator")


def shaped_rows(rng, shape, kind, n, x, y):
    """An n x n matrix of the given zero pattern and entry kind, over
    the symbols x and y; each entry of the generator kind has sin(x)."""
    band = rng.randint(1, 2)
    keep = {
        "sparse": lambda i, j: i == j or rng.random() < 0.25,
        "banded": lambda i, j: abs(i - j) <= band,
        "checkerboard": lambda i, j: (i + j) % 2 == 0,
        "dense": lambda i, j: True,
    }[shape]

    def entry():
        k = rng.choice([-3, -2, -1, 1, 2, 3, 5])
        if kind == "integer":
            return lift(k)
        if kind == "rational":
            return lift(Fraction(k, rng.randint(1, 6)))
        if kind == "polynomial":
            return add(
                Fraction(k, rng.randint(1, 3)),
                mul(rng.randint(-2, 2), rng.choice([x, y, mul(x, y)])),
                mul(rng.randint(-1, 1), power(x, 2)),
            )
        if kind == "generator":
            return add(mul(k, sin(x)), mul(rng.randint(-2, 2), rng.choice([lift(1), x, y])))
        return mul(k, power(add(rng.choice([x, y]), rng.randint(1, 6)), -1))

    return [[entry() if keep(i, j) else lift(0) for j in range(n)] for i in range(n)]


def is_polynomial(e):
    try:
        _to_dict(e, _ordered_vars(e))
    except DomainError:
        return False
    return True


def test_det_methods_agree_on_every_shape_and_ring(monkeypatch):
    rng = random.Random(202608)
    x, y = symbols("x y")
    expansions = []
    compared = []
    rings = []
    inner = matrices_module._det_cofactor
    eliminate = matrices_module._det_bareiss
    read = matrices_module._to_dict
    ring_of = {operator.mul: "int", _dmul: "dict", mul: "tree"}

    def recorded(rows, times, plus, is_zero):
        got = inner(rows, times, plus, is_zero)
        expansions.append((ring_of[times], got is not None))
        rings.append(ring_of[times])
        return got

    def bareiss(rows, times, *ring):
        rings.append(ring_of[times])
        return eliminate(rows, times, *ring)

    def reading(e, vars, **kw):
        rings.append("read")
        return read(e, vars, **kw)

    def check(rows, on_dicts):
        n = len(rows)
        m = matrix(rows)
        rings.clear()
        d = mat_det(m)
        # rational numbers run on ints, with no dict read; the census
        # sends everything else to dicts or, with a generator, to trees
        if all(type(e) is Numeric for e in m.entries):
            assert set(rings) == {"int"}
        else:
            assert set(rings) - {"read"} == {"dict" if on_dicts else "tree"}
        assert (_det_bareiss_dict(m) is not None) == on_dicts
        if on_dicts:
            # value at random points, against Laplace (or, past 7x7,
            # Gaussian elimination) on Fractions
            oracle = det_fraction if n <= 7 else det_gauss
            for _ in range(2):
                pt = {x: lift(Fraction(rng.randint(1, 20), rng.randint(1, 7))),
                      y: lift(Fraction(rng.randint(1, 20), rng.randint(1, 7)))}
                vals = [[subs(e, pt).value.as_fraction() for e in r] for r in rows]
                assert subs(d, pt) == lift(oracle(vals))
            assert normal(d) == d
        if n <= 4:
            # Bareiss on the trees, which pays a normal() per division and
            # is what every rational-function matrix took before the dict
            # ring read quotients: the dict ring prints what it printed,
            # except a determinant whose denominator cancels, which comes
            # out expanded, as a polynomial matrix's does
            tree = _det_bareiss([list(r) for r in rows], mul, _tree_sum, _tree_quo, _is_zero)
            assert expand(normal(add(d, mul(-1, tree)))) == lift(0)
            ref = normal(tree)
            if on_dicts and is_polynomial(ref):
                assert d == expand(ref)
                compared.append("expanded" if to_string(d) != to_string(ref) else "same")
            elif on_dicts:
                assert to_string(d) == to_string(ref)
                compared.append("quotient")
        if not on_dicts or not all(is_polynomial(e) for e in m.entries):
            return d
        # a polynomial matrix, rational numbers included: exactly what the
        # same Bareiss gives on the dict ring, on the rows scaled to
        # integers, divided by the scale
        vars = _ordered_vars(*m.entries)
        dicts, scale = _integer_rows([[_to_dict(e, vars) for e in r] for r in rows])
        on_ring = _det_bareiss(dicts, _dmul, _padd, _dict_quo, operator.not_)
        assert d == _from_dict({t: Fraction(c, scale) for t, c in on_ring.items()}, vars)
        return d

    monkeypatch.setattr(matrices_module, "_det_cofactor", recorded)
    monkeypatch.setattr(matrices_module, "_det_bareiss", bareiss)
    monkeypatch.setattr(matrices_module, "_to_dict", reading)
    sizes = {
        "integer": (1, 2, 3, 5, 7, 10),
        "rational": (1, 2, 3, 5, 7, 10),
        "polynomial": (1, 2, 3, 4, 6),
        "rational-function": (1, 2, 3, 4),
        "generator": (1, 2, 3, 4),
    }
    for shape in SHAPES:
        for kind in KINDS:
            for n in sizes[kind]:
                check(shaped_rows(rng, shape, kind, n, x, y), kind != "generator")
    # a checkerboard with one sin(x) entry takes the tree ring and runs
    # out of budget; the determinant is linear in that entry
    rows = shaped_rows(rng, "checkerboard", "integer", 10, x, y)
    vals = [[e.value.as_fraction() for e in r] for r in rows]
    rows[0][0] = sin(x)
    d = check(rows, False)
    at = []
    for k in (0, 1):
        vals[0][0] = k
        at.append(det_gauss(vals))
    assert expand(d) == add(lift(at[0]), mul(lift(at[1] - at[0]), sin(x)))
    # and so does one of polynomials, on the dict ring
    check(shaped_rows(rng, "checkerboard", "polynomial", 10, x, y), True)
    # every ring ran the expansion to the end, and ran out of budget
    assert set(expansions) == {(r, ok) for r in ("int", "dict", "tree") for ok in (True, False)}
    # quotients printed alike, and denominators that cancelled, some of
    # them into an unexpanded tree product
    assert set(compared) == {"same", "expanded", "quotient"}


def test_checkerboard_runs_out_of_budget_and_ends_in_bareiss(monkeypatch):
    rng = random.Random(202609)
    x = Symbol("x")
    outcomes = []
    bareiss_rings = []
    expand_minors = matrices_module._det_cofactor
    eliminate = matrices_module._det_bareiss

    def expansion(*args):
        got = expand_minors(*args)
        outcomes.append(got is None)
        return got

    def bareiss(rows, times, *ring):
        bareiss_rings.append({operator.mul: "int", _dmul: "dict"}.get(times, "tree"))
        return eliminate(rows, times, *ring)

    monkeypatch.setattr(matrices_module, "_det_cofactor", expansion)
    monkeypatch.setattr(matrices_module, "_det_bareiss", bareiss)
    n = 16
    ints = [[rng.randint(-5, 5) or 1 if (i + j) % 2 == 0 else 0 for j in range(n)]
            for i in range(n)]
    d = mat_det(matrix(ints))
    assert d == lift(det_gauss(ints))
    assert (outcomes, bareiss_rings) == ([True], ["int"])
    # the tree ring, run directly, is the reference for the int ring
    assert d == eliminate(matrix(ints).row_list(), mul, _tree_sum, _tree_quo, _is_zero)
    polys = [[add(e, x) if e else lift(0) for e in r] for r in ints]
    d = mat_det(matrix(polys))
    assert (outcomes, bareiss_rings) == ([True, True], ["int", "dict"])
    for r in (Fraction(1, 3), Fraction(-7, 2)):
        vals = [[e + r if e else 0 for e in row] for row in ints]
        assert subs(d, {x: lift(r)}) == lift(det_gauss(vals))


def test_det_shape_errors():
    with pytest.raises(ShapeError):
        mat_det(MatrixNode(2, 3, [lift(k) for k in range(6)]))
    with pytest.raises(ShapeError):
        matrix([[1, 2], [3]])
    with pytest.raises(DomainError):
        mat_det(lift(5))


# ---------------------------------------------------------------- inverse


def test_inverse_examples():
    x = Symbol("x")
    # [TRIVIAL]
    assert mat_inverse(identity(4)) == identity(4)
    # [DERIVED] adjugate oracle on the paper's 2x2
    rows = [[lift(1), x], [mul(-1, x), lift(1)]]
    assert mat_inverse(as_matrix(rows)) == adjugate_inverse(rows)
    # [DERIVED] Hilbert inverses are integral; check rank 4 entry by entry
    h4 = [[lift(Fraction(1, i + j + 1)) for j in range(4)] for i in range(4)]
    inv = mat_inverse(hilbert(4))
    assert inv == adjugate_inverse(h4)
    assert all(e.value.is_integer() for e in inv.entries)


def test_inverse_product_is_identity():
    rng = random.Random(202604)
    x = Symbol("x")
    # exact rational 8x8
    for _ in range(3):
        m = as_matrix(rand_fraction_rows(rng, 8))
        try:
            inv = mat_inverse(m)
        except SingularMatrixError:
            continue
        assert normal(mat_mul(m, inv)) == identity(8)
        assert normal(mat_mul(inv, m)) == identity(8)
    # symbolic 3x3, linear entries in x
    done = 0
    while done < 6:
        rows = [
            [
                add(lift(rng.randint(-3, 3)), mul(rng.randint(-2, 2), x))
                for _ in range(3)
            ]
            for _ in range(3)
        ]
        if normal(det_laplace(rows)) == lift(0):
            continue
        m = as_matrix(rows)
        assert normal(mat_mul(m, mat_inverse(m))) == identity(3)
        done += 1


def test_inverse_errors():
    with pytest.raises(SingularMatrixError):
        mat_inverse(matrix([[1, 2], [2, 4]]))
    x = Symbol("x")
    with pytest.raises(SingularMatrixError):
        mat_inverse(matrix([[x, x], [x, x]]))
    with pytest.raises(ShapeError):
        mat_inverse(MatrixNode(1, 2, [lift(1), lift(2)]))


# ---------------------------------------------------------------- charpoly


def test_charpoly_examples():
    lam = Symbol("lam")
    # [DERIVED] 2x2 trace/det oracle: lam^2 - 5 lam - 2
    got = mat_charpoly(matrix([[1, 2], [3, 4]]), lam)
    assert got == add(power(lam, 2), mul(-5, lam), -2)
    # [TRIVIAL] zero matrix: (-lam)^n
    for n in (2, 3):
        z = matrix([[0] * n for _ in range(n)])
        want = expand(power(mul(-1, lam), n))
        assert mat_charpoly(z, lam) == want


def test_charpoly_leading_coefficient():
    rng = random.Random(202605)
    lam = Symbol("lam")
    from minicas.poly import coeff, degree

    for n in (2, 3, 4):
        m = as_matrix(rand_int_rows(rng, n))
        cp = mat_charpoly(m, lam)
        assert degree(cp, lam) == n
        assert coeff(cp, lam, n) == lift((-1) ** n)


def test_charpoly_substitution_consistency():
    rng = random.Random(202606)
    lam = Symbol("lam")
    for _ in range(6):
        rows = rand_int_rows(rng, 4)
        cp = mat_charpoly(as_matrix(rows), lam)
        for _ in range(3):
            r = Fraction(rng.randint(-9, 9), rng.randint(1, 9))
            shifted = [
                [lift(rows[i][j] - (r if i == j else 0)) for j in range(4)]
                for i in range(4)
            ]
            assert subs(cp, {lam: lift(r)}) == mat_det(as_matrix(shifted))


def charpoly_by_det(rows, lam):
    """collect(det(M - lam*I), lam): what mat_charpoly ran on every
    matrix before numeric ones took Faddeev-LeVerrier."""
    n = len(rows)
    shifted = [[add(rows[i][j], mul(-1, lam)) if i == j else rows[i][j] for j in range(n)]
               for i in range(n)]
    return collect(mat_det(matrix(shifted)), lam)


def test_numeric_charpoly_by_leverrier_prints_what_the_det_path_printed(monkeypatch):
    rng = random.Random(202614)
    lam = Symbol("lam")
    cases = []
    for n in range(1, 9):
        cases.append(rand_int_rows(rng, n))
        cases.append(rand_fraction_rows(rng, n))
        cases.append([[Fraction(1, i + j + 1) for j in range(n)] for i in range(n)])
        cases.append([[0] * n for _ in range(n)])
        # nilpotent: strictly upper triangular
        cases.append([[rng.randint(-5, 5) if j > i else 0 for j in range(n)] for i in range(n)])
        # singular: the last row a rational multiple of the first
        rows = rand_fraction_rows(rng, n)
        if n > 1:
            f = Fraction(rng.randint(-3, 3), rng.randint(1, 3))
            rows[-1] = [f * a for a in rows[0]]
        cases.append(rows)
    cases.append([[Fraction(-7, 3)]])
    calls = []
    inner = matrices_module._leverrier

    def counted(a):
        calls.append(len(a))
        return inner(a)

    monkeypatch.setattr(matrices_module, "_leverrier", counted)
    for rows in cases:
        m = matrix(rows)
        cp = mat_charpoly(m, lam)
        assert to_string(cp) == to_string(charpoly_by_det(m.row_list(), lam)), rows
        for _ in range(2):
            r = Fraction(rng.randint(-9, 9), rng.randint(1, 9))
            shifted = [[lift(v - (r if i == j else 0)) for j, v in enumerate(row)]
                       for i, row in enumerate(rows)]
            assert subs(cp, {lam: lift(r)}) == mat_det(matrix(shifted))
    assert len(calls) == len(cases)


def test_charpoly_of_floats_and_symbols_stays_on_the_determinant(monkeypatch):
    # floats are not exact rationals: det(M - lam*I) as before
    assert Shell().feed("charpoly([[1.5,2],[3,4]], l);") == ["-5.5*l+l^2"]
    x, lam = symbols("x lam")
    dets = []
    inner = matrices_module.mat_det

    def counted(m):
        dets.append(m)
        return inner(m)

    monkeypatch.setattr(matrices_module, "mat_det", counted)
    rows = [[x, 1, 0], [2, x, Fraction(1, 2)], [0, 3, 1]]
    cp = mat_charpoly(matrix(rows), lam)
    assert len(dets) == 1
    monkeypatch.undo()
    assert cp == charpoly_by_det(matrix(rows).row_list(), lam)


def test_charpoly_collision_and_shape():
    x, lam = symbols("x lam")
    with pytest.raises(DomainError):
        mat_charpoly(matrix([[x, 1], [1, x]]), x)
    with pytest.raises(ShapeError):
        mat_charpoly(MatrixNode(2, 3, [lift(k) for k in range(6)]), lam)
    with pytest.raises(DomainError):
        mat_charpoly(matrix([[1, 2], [3, 4]]), lift(3))


# ---------------------------------------------------------------- solve


def test_solve_examples():
    x, y = symbols("x y")
    # [TRIVIAL]
    sol = solve_linear([Eq(add(x, y), 3), Eq(add(x, mul(-1, y)), 1)], [x, y])
    assert list(sol) == [Eq(x, 2), Eq(y, 1)]
    # [TRIVIAL] symbolic pivot, assumed nonzero
    a, b = symbols("a b")
    (rel,) = solve_linear([Eq(mul(a, x), b)], [x])
    assert rel.lhs == x
    assert normal(add(rel.rhs, mul(-1, b, power(a, -1)))) == lift(0)


def test_solve_against_cramer():
    rng = random.Random(202607)
    done = 0
    while done < 8:
        n = 5
        arows = [[Fraction(rng.randint(-9, 9)) for _ in range(n)] for _ in range(n)]
        bvec = [Fraction(rng.randint(-9, 9)) for _ in range(n)]
        d = det_fraction(arows)
        if d == 0:
            continue
        vars = symbols("v1 v2 v3 v4 v5")
        eqs = [
            Eq(add(*(mul(lift(arows[i][j]), vars[j]) for j in range(n))), lift(bvec[i]))
            for i in range(n)
        ]
        sol = solve_linear(eqs, list(vars))
        for j, rel in enumerate(sol):
            cols = [
                [bvec[i] if k == j else arows[i][k] for k in range(n)]
                for i in range(n)
            ]
            assert rel.lhs == vars[j]
            assert rel.rhs == lift(det_fraction(cols) / d)
        done += 1


def test_solve_overdetermined_consistent():
    x, y = symbols("x y")
    eqs = [
        Eq(add(x, y), 2),
        Eq(add(x, mul(-1, y)), 0),
        Eq(add(mul(2, x), mul(2, y)), 4),
    ]
    assert list(solve_linear(eqs, [x, y])) == [Eq(x, 1), Eq(y, 1)]


def test_solve_errors():
    x, y, a = symbols("x y a")
    with pytest.raises(NoUniqueSolutionError):
        solve_linear([Eq(add(x, y), 1)], [x, y])
    with pytest.raises(NoUniqueSolutionError):
        solve_linear([Eq(add(x, y), 1), Eq(add(x, y), 2)], [x, y])
    with pytest.raises(DomainError):
        solve_linear([Eq(mul(x, x), 1)], [x])
    with pytest.raises(DomainError):
        solve_linear([Eq(mul(x, y), 1)], [x, y])
    with pytest.raises(DomainError):
        solve_linear([Eq(sin(x), 1)], [x])
    with pytest.raises(DomainError):
        solve_linear([add(x, y)], [x, y])
    with pytest.raises(DomainError):
        solve_linear([Eq(x, 1)], [x, x])
    with pytest.raises(NoUniqueSolutionError):
        solve_linear([], [x])
    # coefficients free of the unknowns may be anything
    (rel,) = solve_linear([Eq(mul(sin(a), x), sin(a))], [x])
    assert rel.rhs == lift(1)


# ---------------------------------------------------------------- exact rings


def _planted_zero(rng, a):
    """A sum that is zero only once expanded, or once its fractions are
    brought over one denominator."""
    j = rng.randint(1, 3)
    return rng.choice([
        add(power(add(a, j), 2), mul(-1, power(a, 2)), mul(-2 * j, a), -j * j),
        add(mul(add(a, 1), add(a, -1)), mul(-1, power(a, 2)), 1),
        add(power(add(a, 1), -1), mul(-1, power(add(a, 2), -1)),
            mul(-1, power(mul(add(a, 1), add(a, 2)), -1))),
    ])


def _exact_coefficient(rng, family, a):
    k = rng.choice([-3, -2, -1, 1, 2, 3, 5])
    r = rng.random()
    if r < 0.08:
        return lift(0)
    if r < 0.16:
        return _planted_zero(rng, a)
    if family == "integer":
        return lift(k)
    if family == "rational":
        return lift(Fraction(k, rng.randint(2, 5)))
    return rng.choice([
        lift(k),
        mul(k, power(add(a, rng.randint(1, 3)), -1)),
        mul(add(power(a, 2), -k * k), power(add(a, k), -1)),
        mul(k, a),
        add(a, k),
    ])


def _fraction_solve(rows, n):
    """The unique solution of augmented rows of Fractions, or None."""
    rows = [list(r) for r in rows]
    r = 0
    for c in range(n):
        piv = next((i for i in range(r, len(rows)) if rows[i][c]), None)
        if piv is None:
            return None
        rows[r], rows[piv] = rows[piv], rows[r]
        rows[r] = [v / rows[r][c] for v in rows[r]]
        for i in range(len(rows)):
            if i != r and rows[i][c]:
                f = rows[i][c]
                rows[i] = [v - f * w for v, w in zip(rows[i], rows[r])]
        r += 1
    if any(row[n] for row in rows[r:]):
        return None
    return [rows[i][n] for i in range(n)]


def _outcome(f, *args):
    try:
        return f(*args)
    except (ArithmeticError, ValueError) as err:
        return type(err).__name__, str(err)


def _is_zero_value(e):
    return expand(normal(e)) == lift(0)


def test_exact_rings_solve_and_invert_what_the_trees_do(monkeypatch):
    rng = random.Random(202618)
    a = Symbol("a")
    unknowns = list(symbols("x y z"))
    rings = Counter()
    errors = Counter()
    checked = 0
    jordan = matrices_module._jordan

    def recorded(rows, ncols, times, *ring):
        rings[{operator.mul: "int", _dmul: "dict"}[times]] += 1
        return jordan(rows, ncols, times, *ring)

    def on_trees(f, *args):
        with monkeypatch.context() as mp:
            mp.setattr(matrices_module, "_exact_system", lambda *_: None)
            mp.setattr(matrices_module, "_exact_rows", lambda *_: None)
            return _outcome(f, *args)

    monkeypatch.setattr(matrices_module, "_jordan", recorded)
    for case in range(400):
        family = rng.choice(("integer", "rational", "rational-function"))
        n = rng.randint(1, 3)
        before = sum(rings.values())
        if case % 2:
            # a matrix, singular when its last row is a multiple of its first
            rows = [[_exact_coefficient(rng, family, a) for _ in range(n)] for _ in range(n)]
            if n > 1 and rng.random() < 0.25:
                rows[-1] = [mul(rng.choice([2, -3]), e) for e in rows[0]]
            m = matrix(rows)
            got, tree = _outcome(mat_inverse, m), on_trees(mat_inverse, m)
            assert sum(rings.values()) == before + 1
            if isinstance(got, tuple):
                assert got == tree, rows
                errors[got[1]] += 1
                continue
            prod = mat_mul(got, m)
            assert all(_is_zero_value(add(e, mul(-1, i)))
                       for e, i in zip(prod.entries, identity(n).entries)), rows
            assert all(_is_zero_value(add(e, mul(-1, t))) for e, t in zip(got.entries, tree.entries))
            checked += 1
            continue
        # a system: over-, under- or exactly determined, and a multiple of
        # its first equation that keeps it consistent or not
        us = unknowns[:n]
        count = max(1, n + rng.choice([-1, 0, 0, 1]))
        coeffs = [[_exact_coefficient(rng, family, a) for _ in range(n + 1)] for _ in range(count)]
        if rng.random() < 0.3:
            k = rng.choice([2, -3, Fraction(1, 2)])
            rhs = rng.choice([mul(k, coeffs[0][n]), _exact_coefficient(rng, family, a)])
            coeffs.append([mul(k, c) for c in coeffs[0][:n]] + [rhs])
        eqs = [Eq(add(*(mul(c, v) for c, v in zip(row, us))), row[n]) for row in coeffs]
        got, tree = _outcome(solve_linear, eqs, us), on_trees(solve_linear, eqs, us)
        assert sum(rings.values()) == before + 1
        if isinstance(got, tuple):
            assert got == tree, eqs
            errors[got[1]] += 1
            continue
        assert [r.lhs for r in got] == us
        assert all(_is_zero_value(add(r.rhs, mul(-1, t.rhs))) for r, t in zip(got, tree))
        # against Fractions at points off every pole (half-integers)
        for _ in range(2):
            pt = {a: lift(Fraction(2 * rng.randint(1, 30) + 1, 2))}
            want = _fraction_solve(
                [[subs(c, pt).value.as_fraction() for c in row] for row in coeffs], n)
            if want is not None:
                assert [subs(r.rhs, pt).value.as_fraction() for r in got] == want, eqs
                checked += 1
    assert set(rings) == {"int", "dict"} and min(rings.values()) > 50, rings
    for needle in ("matrix is singular", "system is inconsistent", "system does not determine"):
        assert any(needle in text for text in errors), (needle, errors)
    assert checked > 300


def test_an_exact_system_is_read_once_and_eliminated_on_ints(monkeypatch):
    calls = Counter()

    def count(module, name):
        inner = getattr(module, name)

        def counted(*args, **kw):
            calls[name] += 1
            return inner(*args, **kw)

        monkeypatch.setattr(module, name, counted)

    for name in ("_to_dict", "expand", "normal", "_gauss_jordan"):
        count(matrices_module, name)
    for name in ("expand", "normal"):
        count(poly_module, name)
    p, q = symbols("p q")
    eqs = [Eq(add(mul(3, p), mul(5, q)), -7), Eq(add(mul(5, p), mul(-3, q)), 2)]
    sol = solve_linear(eqs, [p, q])
    assert list(sol) == [Eq(p, lift(Fraction(-11, 34))), Eq(q, lift(Fraction(-41, 34)))]
    # one read per side, and nothing on the trees
    assert calls == {"_to_dict": 4}


def _float_of(e):
    return float(to_string(e))


def test_exponents_at_the_dict_limit_fall_back_to_the_trees(monkeypatch):
    # X = x^(2^29) reads into the dicts, but X*X reaches their 2^30 limit,
    # so each exact path raises _Overflow and its except hands the input
    # to the trees; the printed lines are the ones the trees print, a
    # determinant of polynomials expanded as the dicts print one
    events = []

    def spy(name):
        inner = getattr(matrices_module, name)

        def spied(*args):
            try:
                got = inner(*args)
            except poly_module._Overflow:
                events.append((name, "overflow"))
                raise
            on_trees = name == "_gauss_jordan" or args[-1] is _is_zero
            events.append((name, "tree" if on_trees else "exact"))
            return got

        monkeypatch.setattr(matrices_module, name, spied)

    for name in ("_det_on", "_jordan", "_gauss_jordan"):
        spy(name)
    sh = Shell()
    with mpmath.workdps(40):
        x40 = mpmath.mpf("1.0000000001")
        xv, X = float(x40), float(x40 ** (2**29))
    cases = [
        ("det([[x^(2^29),1],[1,x^(2^29)]]);", "-1+x^1073741824",
         [("_det_on", "overflow"), ("_det_on", "tree")], [[X * X - 1]]),
        ("det([[x^(2^29),1,0],[1,x^(2^29),1],[0,1,x]]);",
         "-x-x^536870912+x^1073741825",
         [("_det_on", "overflow"), ("_det_on", "tree")], [[X * X * xv - X - xv]]),
        ("inverse([[x^(2^29),1],[1,x^(2^29)]]);",
         "[[(-x^(-536870912)+x^536870912)^(-1),-x^(-536870912)*(-x^(-536870912)+x^536870912)^(-1)],"
         "[-x^(-536870912)*(-x^(-536870912)+x^536870912)^(-1),(-x^(-536870912)+x^536870912)^(-1)]]",
         [("_jordan", "overflow"), ("_gauss_jordan", "tree")],
         [[X / (X * X - 1), -1 / (X * X - 1)], [-1 / (X * X - 1), X / (X * X - 1)]]),
        ("lsolve([x^(2^29)*a+b==1, a-x^(2^29)*b==2],[a,b]);",
         "[a==x^(-536870912)-x^(-1073741824)*(-1+2*x^536870912)*(-x^(-536870912)-x^536870912)^(-1),"
         "b==x^(-536870912)*(-1+2*x^536870912)*(-x^(-536870912)-x^536870912)^(-1)]",
         [("_jordan", "overflow"), ("_gauss_jordan", "tree")],
         [[(X + 2) / (X * X + 1), (1 - 2 * X) / (X * X + 1)]]),
    ]
    for stmt, line, path, want in cases:
        events.clear()
        assert sh.feed(stmt) == [line], stmt
        assert events == path, stmt
        # normal leaves m*m^(-1) unsimplified, so the answer is checked
        # against its closed form at x = 1.0000000001, where X ~ 1.055
        (point,) = sh.feed("evalf(subs(%, x==1.0000000001));")
        got = sh.history[0]
        if isinstance(got, MatrixNode):
            values = [[_float_of(e) for e in row] for row in got.row_list()]
        elif isinstance(got, ExprList):
            values = [[_float_of(r.rhs) for r in got.items]]
        else:
            values = [[_float_of(got)]]
        assert len(values) == len(want) and all(len(r) == len(w) for r, w in zip(values, want))
        for row, wrow in zip(values, want):
            for v, w in zip(row, wrow):
                assert v == pytest.approx(w, rel=1e-9), (stmt, point)


# ---------------------------------------------------------------- against the old loops


def _ref_is_zero(e):
    return type(e) is Numeric and e.value.is_zero()


def _ref_norm(e):
    return e if type(e) is Numeric else normal(e)


def _ref_div(a, b):
    q = mul(a, power(b, -1))
    return q if type(q) is Numeric else normal(q)


def ref_mat_inverse(m):
    """mat_inverse as it was before elimination was shared with
    solve_linear: its own Gauss-Jordan loop on [m | I], singular at the
    first column without a pivot."""
    if not isinstance(m, MatrixNode):
        raise DomainError("expected a matrix")
    if m.rows != m.cols:
        raise ShapeError(f"inversion needs a square matrix, not {m.rows}x{m.cols}")
    n = m.rows
    one, zero = lift(1), lift(0)
    rows = [
        list(m.entries[i * n : (i + 1) * n]) + [one if i == j else zero for j in range(n)]
        for i in range(n)
    ]
    for c in range(n):
        piv = next((i for i in range(c, n) if not _ref_is_zero(rows[i][c])), None)
        if piv is None:
            raise SingularMatrixError("matrix is singular")
        if piv != c:
            rows[c], rows[piv] = rows[piv], rows[c]
        pk = rows[c][c]
        if pk != one:
            rows[c] = rows[c][:c] + [_ref_div(x, pk) for x in rows[c][c:]]
        rc = rows[c]
        for i in range(n):
            if i == c:
                continue
            f = rows[i][c]
            if _ref_is_zero(f):
                continue
            ri = rows[i]
            for j in range(c + 1, 2 * n):
                ri[j] = _ref_norm(add(ri[j], mul(-1, f, rc[j])))
            ri[c] = zero
    return MatrixNode(n, n, [_ref_norm(x) for i in range(n) for x in rows[i][n:]])


def ref_solve_linear(eqs, unknowns):
    """solve_linear as it was before it read each equation once: degree
    and coeff per unknown on the expanded equation, then its own
    Gauss-Jordan loop on the augmented rows."""
    eqs = list(eqs)
    unknowns = list(unknowns)
    if not unknowns:
        raise DomainError("no unknowns to solve for")
    for v in unknowns:
        if type(v) is not Symbol:
            raise DomainError("unknowns must be plain symbols")
    if len(set(unknowns)) != len(unknowns):
        raise DomainError("unknowns repeat")
    if not eqs:
        raise NoUniqueSolutionError("no equations constrain the unknowns")
    vset = set(unknowns)
    nc = len(unknowns)
    rows = []
    zeros = {v: lift(0) for v in unknowns}
    for eq in eqs:
        if not isinstance(eq, Relational) or eq.op != "==":
            raise DomainError("equations must be == relations")
        f = expand(add(eq.lhs, mul(-1, eq.rhs)))
        row = []
        for v in unknowns:
            if degree(f, v) > 1:
                raise DomainError(f"system is not linear in {v.name}")
            c = coeff(f, v, 1)
            if free_symbols(c) & vset:
                raise DomainError("unknowns multiply each other in one equation")
            row.append(_ref_norm(c))
        row.append(_ref_norm(mul(-1, subs(f, zeros))))
        rows.append(row)
    r = 0
    pivot_row = {}
    for c in range(nc):
        piv = next((i for i in range(r, len(rows)) if not _ref_is_zero(rows[i][c])), None)
        if piv is None:
            continue
        rows[r], rows[piv] = rows[piv], rows[r]
        pk = rows[r][c]
        if pk != lift(1):
            rows[r] = [_ref_div(x, pk) for x in rows[r]]
        rr = rows[r]
        for i in range(len(rows)):
            if i == r:
                continue
            f = rows[i][c]
            if _ref_is_zero(f):
                continue
            ri = rows[i]
            for j in range(c + 1, nc + 1):
                ri[j] = _ref_norm(add(ri[j], mul(-1, f, rr[j])))
            ri[c] = lift(0)
        pivot_row[c] = r
        r += 1
    for i in range(r, len(rows)):
        if not _ref_is_zero(rows[i][nc]):
            raise NoUniqueSolutionError("system is inconsistent")
    if len(pivot_row) < nc:
        free = next(v for c, v in enumerate(unknowns) if c not in pivot_row)
        raise NoUniqueSolutionError(f"system does not determine {free.name}")
    return ExprList(Eq(v, rows[pivot_row[c]][nc]) for c, v in enumerate(unknowns))


COEFFICIENT_FAMILIES = {
    "rational": lambda rng, k: f"{k}/{rng.randint(2, 5)}",
    "float": lambda rng, k: f"{k}.5",
    "sin": lambda rng, k: f"{k}*sin(a)",
    "sqrt": lambda rng, k: f"{k}*sqrt(2)",
    "Pi": lambda rng, k: f"{k}*Pi",
    "rational-function": lambda rng, k: rng.choice(
        [f"{k}/(a+{rng.randint(1, 3)})", f"(a^2-{k * k})/(a+{k})", f"{k}*a"]
    ),
}


def _coefficient(rng, family):
    k = rng.choice([-3, -2, -1, 1, 2, 3, 5])
    r = rng.random()
    return "0" if r < 0.1 else str(k) if r < 0.55 else COEFFICIENT_FAMILIES[family](rng, k)


def _lsolve_statement(rng):
    family = rng.choice(list(COEFFICIENT_FAMILIES))
    unknowns = ["x", "y", "z"][: rng.choice([1, 2, 2, 2, 3])]

    def lhs():
        terms = [f"({_coefficient(rng, family)})*{v}" for v in unknowns if rng.random() < 0.9]
        if rng.random() < 0.1:
            terms.append(rng.choice(["x^2", "x*y", "y/x", "sin(x)", "x*a", "x^(1/2)"]))
        return "+".join(terms) or "0"

    count = max(1, len(unknowns) + rng.choice([-1, 0, 0, 0, 1]))
    eqs = [f"{lhs()}=={_coefficient(rng, family)}" for _ in range(count)]
    if rng.random() < 0.2:
        # twice the first equation: singular, and consistent or not
        left, right = eqs[0].split("==")
        eqs.append(f"2*({left})=={rng.choice([f'2*({right})', _coefficient(rng, family)])}")
    return f"lsolve([{', '.join(eqs)}], [{', '.join(unknowns)}]);"


def _inverse_statement(rng):
    family = rng.choice(list(COEFFICIENT_FAMILIES))
    n = rng.choice([1, 2, 2, 2, 3])
    rows = [[_coefficient(rng, family) for _ in range(n)] for _ in range(n)]
    if n > 1 and rng.random() < 0.2:
        rows[-1] = [f"2*({e})" for e in rows[0]]
    return f"inverse([{', '.join('[' + ', '.join(r) + ']' for r in rows)}]);"


def _unexpanded_zero_inverse(rng):
    """A singular matrix whose first column is 0 and whose other entries
    include sums that are zero only once expanded."""
    n = rng.choice([2, 3])
    k = rng.randint(1, 3)
    zeros = [f"(a+{k})^2-a^2-{2 * k}*a-{k * k}", "(x+1)*(x-1)-x^2+1", f"{k}/(a+1)-{k}/(1+a)"]

    def entry():
        return rng.choice(zeros) if rng.random() < 0.5 else _coefficient(rng, "rational-function")

    rows = [["0"] + [entry() for _ in range(n - 1)] for _ in range(n)]
    return f"inverse([{', '.join('[' + ', '.join(r) + ']' for r in rows)}]);"


# the statements whose old answer has a polynomial tree that normal()
# left grouped, which the dict ring prints expanded
REGROUPED = [
    "lsolve([(5)*y==(a^2-25)/(a+5), (1/(a+1))*x+(-2)*y==-3*a], [x, y]);",
    "lsolve([(2)*x+((a^2-9)/(a+3))*y==(a^2-4)/(a+-2), (-2/(a+2))*x+(-1)*y==-3], [x, y]);",
]


def _answer_entries(v):
    return v.entries if isinstance(v, MatrixNode) else [r.rhs for r in v.items]


def test_elimination_prints_what_the_old_loops_printed(monkeypatch):
    rng = random.Random(202611)
    statements = [
        (_lsolve_statement if rng.random() < 0.7 else _inverse_statement)(rng)
        for _ in range(1000)
    ] + [
        "lsolve([1.5*x==x*y], [x]);",
        "lsolve([y/x==1], [x, y]);",
        "lsolve([x+y/x==1, y==2], [x, y]);",
        "lsolve([sqrt(y)/x+sin(y)==1], [x, y]);",
        "lsolve([x==x], [x]);",
        "inverse([[0, 1], [0, 2]]);",
        "inverse([[0, (x+1)^2-x^2-2*x-1], [0, 1]]);",
    ] + [_unexpanded_zero_inverse(rng) for _ in range(30)]
    def run(s):
        sh = Shell()
        return sh.feed(s), sh.history[:1]

    got = [run(s) for s in statements]
    monkeypatch.setattr(parser_module, "solve_linear", ref_solve_linear)
    monkeypatch.setattr(parser_module, "mat_inverse", ref_mat_inverse)
    want = [run(s) for s in statements]
    regrouped = []
    for s, (g, new), (w, old) in zip(statements, got, want):
        if g == w:
            continue
        # an old answer may hold a polynomial tree that normal() left
        # grouped; the exact rings print it expanded, and nothing else
        # moves (an error line has no value here, so it cannot differ)
        regrouped.append(s)
        for a, b in zip(_answer_entries(new[0]), _answer_entries(old[0]), strict=True):
            assert a == b or is_polynomial(b) and to_string(a) == to_string(expand(b)), s
    assert regrouped == REGROUPED
    printed = [line for lines, _ in got for line in lines]
    # every kind of outcome is exercised
    for needle in ("==", "error: matrix is singular", "error: system is inconsistent",
                   "error: system does not determine", "error: system is not linear",
                   "error: unknowns multiply", "error: zero to a negative power"):
        assert any(needle in line for line in printed), needle
    assert sum(not line.startswith("error:") for line in printed) > 400


# ---------------------------------------------------------------- plumbing


def test_mat_mul_shapes_and_product():
    a = matrix([[1, 2], [3, 4], [5, 6]])
    b = matrix([[1, 0, 2], [0, 1, 3]])
    ab = mat_mul(a, b)
    assert (ab.rows, ab.cols) == (3, 3)
    assert ab[0, 2] == lift(8)
    with pytest.raises(ShapeError):
        mat_mul(b, matrix([[1, 2]]))


def test_hilbert_and_identity_shapes():
    h = hilbert(3)
    assert h[2, 2] == lift(Fraction(1, 5))
    assert h[0, 1] == h[1, 0]
    with pytest.raises(ShapeError):
        hilbert(0)
    with pytest.raises(ShapeError):
        identity(0)
    with pytest.raises(ShapeError):
        matrix([])


# ------------------------------------------- the rational reader, on a reference
#
# normal()'s pair of a power before a sum under a negative integer power
# was read straight into its dict, kept here as the reference: the base
# always took the walk, its pair was rebuilt as a tree and read back.


def _ref_pair(e, gm):
    P = poly_module
    t = type(e)
    if t is Numeric:
        if e.value.is_rational():
            fr = e.value.as_fraction()
            return lift(fr.numerator), fr.denominator
        return gm.sym_for(e), 1
    if t is Symbol:
        return e, 1
    if t is Add:
        ps = [(P._normal_pair(x, gm), len(gm.vars)) for x in P._terms_of(e)]
        a, qs = zip(*(p for p, _ in ps))
        if dict not in map(type, qs) and reduce(P._number_lcm, qs, 1) == 1:
            return add(*(x if q == 1 else mul(x, lift(P._qdiv(1, q))) for x, q in zip(a, qs))), 1
        one = {P._MONO_ONE: 1}
        n, d = {}, one
        for tn, td in (P._fraction(p, gm, w) for p, w in ps):
            co, q = td, d
            if d != one and td != one:
                g = P._dgcd(d, td, len(gm.vars))
                if g != one:
                    co, q = P._dquotient(td, g), P._dquotient(d, g)
            n = _padd(((P._dmul(n, co), 1), (P._dmul(tn, q), 1)))
            d = P._dmul(d, co)
        return P._frac_cancel(n, d, gm)
    if t is Mul:
        factors = [P._numeric(e.coeff)] + [power(r, P._numeric(k)) for r, k in e.pairs]
        ps = [(P._normal_pair(x, gm), len(gm.vars)) for x in factors]
        a, qs = zip(*(p for p, _ in ps))
        if dict not in map(type, qs) and math.prod(qs) == 1:
            return reduce(mul, a), 1
        ns, ds = zip(*(P._fraction(p, gm, w) for p, w in ps))
        return P._frac_cancel(reduce(P._dmul, ns), reduce(P._dmul, ds), gm)
    if t is Power and type(e.exponent) is Numeric and e.exponent.value.is_rational():
        fr = e.exponent.value.as_fraction()
        k = fr.numerator
        if abs(k) >= _LIMIT:
            return gm.sym_for(e), 1
        if fr.denominator == 1:
            a, b = P._normal_pair(e.base, gm)
        else:
            a, b = gm.sym_for(power(e.base, lift(Fraction(1, fr.denominator)))), 1
        if k > 0:
            return (P._dpow(a, k), P._dpow(b, k)) if type(b) is dict else (power(a, k), b**k)
        n, d = P._fraction((a, b), gm, len(gm.vars))
        if not n:
            raise ZeroDivisionError("zero denominator after cancellation")
        c, p = P._integerize(n)
        if type(a) is Numeric or type(b) is dict and p == {P._MONO_ONE: 1}:
            return power(P._from_dict(d, gm.vars), -k), c**-k
        return P._pscale(P._dpow(d, -k), P._qdiv(1, c**-k)), P._dpow(p, -k)
    if t in (Power, Constant, FunctionApp, PSeriesNode):
        return gm.sym_for(e), 1
    raise DomainError(f"cannot bring {t.__name__} into a rational form")


def _answer(f, *args):
    try:
        return to_string(f(*args))
    except Exception as exc:  # the error text is part of the answer
        return f"{type(exc).__name__}: {exc}"


def _reader_leaves(rng, x, y):
    """Seeded leaves for det, inverse, lsolve and normal: k/(x+s) and
    other light ones, then heavy ones, of which a draw takes one: floats,
    and sin(a), Pi and x^(1/2) generators."""
    a = Symbol("a")
    xs = lambda s: add(x, s)
    half = power(x, Fraction(1, 2))
    zero = add(power(xs(1), 2), mul(-1, power(x, 2)), mul(-2, x), -1)
    half_sum = add(mul(Fraction(1, 2), power(xs(1), 2)), mul(Fraction(-1, 2), power(x, 2)), mul(-1, x))
    light = [
        mul(rng.choice([-5, -3, -1, 1, 2, 4]), power(xs(rng.randint(1, 6)), -1)),
        mul(rng.choice([-5, -3, -1, 1, 2, 4]), power(xs(rng.randint(1, 6)), -1)),
        power(xs(rng.randint(-3, 6) or 1), rng.choice([-1, -2])),
        mul(Fraction(rng.randint(-7, 7) or 1, rng.randint(1, 4)), power(add(y, mul(2, x), 3), -1)),
        x, y, lift(rng.randint(-4, 4)), lift(Fraction(rng.randint(1, 5), rng.randint(2, 7))),
        add(mul(2, x), 3),
        # sums that expand to 0, to a number and to a monomial, and one
        # that expands to 0 deep inside a base
        power(zero, -1),
        power(add(power(xs(1), 2), mul(-1, power(x, 2)), mul(-2, x)), -1),
        power(add(3, power(add(power(zero, -1), power(xs(2), -1)), -1)), -1),
        power(add(power(xs(1), 2), mul(-2, x), -1), -1),
        # a sum the walk keeps a number, so that (1+x)^2 stays grouped
        mul(Fraction(1, 2), power(xs(1), 2), power(half_sum, -1)),
    ]
    heavy = [
        mul(0.5, power(add(x, 1.5), -1)),
        # a float base that is a polynomial once expanded
        power(add(mul(x, add(1, mul(0.5, y))), mul(-0.5, x, y), 1), -1),
        power(add(x, sin(a)), -1),
        mul(sin(a), power(xs(2), -1)),
        power(add(x, Pi), -1),
        # a base that is a polynomial once expanded, over a generator
        power(add(y, mul(add(1, half), add(1, mul(-1, half)))), -1),
    ]
    return light, heavy


def _random_reader_entry(rng, leaves, depth):
    """Sums, products, quotients and nested fractions of leaves."""
    if depth == 0 or rng.random() < 0.3:
        return rng.choice(leaves)
    sub = lambda: _random_reader_entry(rng, leaves, depth - 1)
    kind = rng.choice(["add", "mul", "quotient", "nested"])
    if kind == "add":
        return add(sub(), sub())
    if kind == "mul":
        return mul(sub(), sub())
    if kind == "quotient":
        return mul(sub(), power(sub(), -1))
    return power(add(lift(rng.randint(1, 3)), power(sub(), -1)), -1)


def test_a_sum_under_a_negative_power_is_read_without_expanding(monkeypatch):
    # k/(x+s) entries go to normal()'s pair at once: the dict read refuses
    # them before its walk expands x+s, where it used to expand each one
    # and discard the refusal; a sum that is 0 there still answers the
    # expansion's error line
    x = symbols("x")[0]
    calls = []
    for module in (poly_module, matrices_module):
        inner = module.expand
        monkeypatch.setattr(module, "expand", lambda e, inner=inner: calls.append(e) or inner(e))
    rows = [[(1, 1), (2, 2), (3, 3)], [(-1, 4), (5, 5), (2, 6)], [(3, 2), (1, 3), (4, 1)]]
    m = matrix([[mul(k, power(add(x, s), -1)) for k, s in row] for row in rows])
    for f in (mat_det, mat_inverse):
        f(m)
    assert calls == []
    zero = add(power(add(x, 1), 2), mul(-1, power(x, 2)), mul(-2, x), -1)
    with pytest.raises(ZeroDivisionError, match="zero to a negative power"):
        mat_det(matrix([[power(zero, -1), 1], [0, 1]]))
    assert len(calls) == 1


def test_the_rational_reader_prints_what_the_walk_printed(monkeypatch):
    rng = random.Random(2525)
    x, y, u, v = symbols("x y u v")
    reads = Counter()
    inner = poly_module._to_dict

    def counted(e, vars, expanding=True):
        if expanding:
            return inner(e, vars)
        try:
            p = inner(e, vars, expanding=False)
        except DomainError:
            reads["refused"] += 1
            raise
        reads["number" if list(p) == [poly_module._MONO_ONE] else "direct"] += 1
        return p

    monkeypatch.setattr(poly_module, "_to_dict", counted)
    errors = Counter()
    compared = []

    def same(f, *args):
        got = _answer(f, *args)
        with monkeypatch.context() as mp:
            mp.setattr(poly_module, "_pair", _ref_pair)
            want = _answer(f, *args)
        assert got == want, (f.__name__, [to_string(a) for a in args if not isinstance(a, list)])
        if got.split(":")[0].endswith("Error"):
            errors[got] += 1
        compared.append(f)

    # exponents one below the dict limit, read alone and next to k/(x+s):
    # sums of such quotients make gcds the heuristic cannot evaluate, so
    # they stay out of the draw
    for e in [
        power(add(power(x, _LIMIT - 1), 1), -1),
        mul(power(x, _LIMIT - 1), power(add(x, 2), -1)),
        power(add(power(x, _LIMIT - 1), y), -2),
    ]:
        k = mul(rng.choice([-3, 2, 5]), power(add(x, rng.randint(1, 6)), -1))
        m = matrix([[e, 1], [0, k]])
        for f, *args in [(mat_det, m), (mat_inverse, m), (normal, mul(e, k)), (normal, e)]:
            same(f, *args)
    for _ in range(200):
        light, heavy = _reader_leaves(rng, x, y)
        try:
            es = [_random_reader_entry(rng, light, rng.randint(0, 2)) for _ in range(4)]
            if rng.random() < 0.5:
                es[rng.randrange(4)] = _random_reader_entry(rng, heavy + light[:2], 1)
            r = rng.random()
            if r < 0.15:
                # a singular matrix: the second row a multiple of the first
                c = rng.choice([2, Fraction(-1, 3)])
                es[2], es[3] = mul(c, es[0]), mul(c, es[1])
            elif r < 0.3:
                # the equations' unknowns in the same ratio
                es[1] = mul(-1, es[0])
            m = matrix([es[:2], es[2:]])
            eqs = [Eq(add(mul(es[0], u), mul(es[1], v)), es[2]), Eq(add(u, mul(-1, v)), es[3])]
            calls = [
                (mat_det, m),
                (mat_inverse, m),
                (solve_linear, eqs, [u, v]),
                (normal, add(es[0], mul(es[1], es[2]))),
                (normal, mul(es[3], power(add(es[0], es[2]), -1))),
            ]
        except ZeroDivisionError:
            continue  # the constructors met a number 0 under a negative power
        for f, *args in calls:
            same(f, *args)
    # every statement compared, and each way through the reader taken:
    # the direct read of a base, the walk after a refusal or a number,
    # and each error the draw can meet
    assert len(compared) >= 1000, len(compared)
    assert reads["direct"] >= 2000 and reads["refused"] >= 1000 and reads["number"] >= 100, reads
    for text in [
        "ZeroDivisionError: zero to a negative power",
        "ZeroDivisionError: zero denominator after cancellation",
        "SingularMatrixError: matrix is singular",
        "NoUniqueSolutionError: system is inconsistent",
    ]:
        assert errors[text] >= 15, errors
