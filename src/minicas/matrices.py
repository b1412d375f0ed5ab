"""Exact linear algebra on dense matrices of expressions.

A matrix is a MatrixNode, row-major entries behind the same immutable
Expr discipline as every other node.  Determinants, inverses and
solve_linear() read their input once into the ring a census of the
entries picks, as GiNaC's matrix::solve picks its elimination by what
the entries are: Python ints when every entry is a rational number,
integer dict polynomials (poly's dicts) when every entry is a rational
function of the symbols, and the trees when some entry has a generator
(a float, I, a function, a root, Pi or another constant), with normal()
cancelling in the ring the generators enlarge.  On the two exact rings
each row is multiplied by the lcm of its denominators, and each output
entry is built once, at the end.  Floats stay on the trees rather than
becoming generators: a float pivot that cancels to 0.0 must read as
zero, where a generator standing for it would be a nonzero symbol.

Each method is one loop that takes the ring's operations as arguments
(_INTS, _DICTS, _TREES).  A determinant takes a division-free minor
expansion that computes each nonzero minor once (GiNaC's
determinant_minor) when the matrix is at least half zero, and
fraction-free Bareiss elimination otherwise.  Inversion, on [m | I], and
solve_linear(), on the augmented coefficient rows, share one
fraction-free Gauss-Jordan loop on the exact rings and one Gauss-Jordan
loop on the trees.  The characteristic polynomial of a matrix of exact
rationals comes from the Faddeev-LeVerrier recurrence on integers, as
GiNaC's matrix::charpoly takes Leverrier's algorithm for numeric
matrices; any other matrix takes det(m - lam*I).

Pivots are the first nonzero candidates in canonical order, on every
ring, so the rings agree on which systems are singular, inconsistent or
underdetermined.  A symbolic pivot is assumed nonzero; there is no case
splitting, and the assumption is visible in the result wherever the
pivot ends up in a denominator.
"""

from __future__ import annotations

import math
import operator
from fractions import Fraction
from functools import reduce

from .errors import DomainError, NoUniqueSolutionError, ShapeError, SingularMatrixError
from .expr import (
    Add,
    Eq,
    Expr,
    ExprList,
    MatrixNode,
    Mul,
    Numeric,
    Power,
    Relational,
    Symbol,
    _FIELD,
    _MASK,
    _MONO_ONE,
    _padd,
    _pscale,
    _terms_of,
    add,
    expand,
    free_symbols,
    lift,
    mul,
    power,
    subs,
)
from .poly import collect, normal
from .poly import _by_degree, _ddiv_exact, _dgcd, _dmul, _dquotient, _from_dict, _Overflow, _qdiv
from .poly import _fraction, _frac_cancel, _GenMap, _normal_pair, _ordered_vars, _to_dict, _Unexpanded

__all__ = [
    "matrix",
    "identity",
    "hilbert",
    "mat_mul",
    "mat_det",
    "mat_inverse",
    "mat_charpoly",
    "solve_linear",
]

_ZERO = lift(0)
_ONE = lift(1)
_M1 = lift(-1)


# ---------------------------------------------------------------- builders


def matrix(rows) -> MatrixNode:
    """Build a MatrixNode from nested sequences, lifting plain numbers."""
    rows = [list(r) for r in rows]
    if not rows or not rows[0]:
        raise ShapeError("a matrix needs at least one row and one column")
    w = len(rows[0])
    if any(len(r) != w for r in rows):
        raise ShapeError("matrix rows differ in length")
    return MatrixNode(len(rows), w, [lift(x) for r in rows for x in r])


def identity(n: int) -> MatrixNode:
    if n < 1:
        raise ShapeError("a matrix needs at least one row and one column")
    return MatrixNode(
        n, n, [_ONE if i == j else _ZERO for i in range(n) for j in range(n)]
    )


def hilbert(n: int) -> MatrixNode:
    """H[i][j] = 1/(i+j-1), the classic exact-arithmetic stress matrix."""
    if n < 1:
        raise ShapeError("a matrix needs at least one row and one column")
    return MatrixNode(
        n,
        n,
        [lift(Fraction(1, i + j + 1)) for i in range(n) for j in range(n)],
    )


def mat_mul(a: MatrixNode, b: MatrixNode) -> MatrixNode:
    _want_matrix(a)
    _want_matrix(b)
    if a.cols != b.rows:
        raise ShapeError(f"cannot multiply {a.rows}x{a.cols} by {b.rows}x{b.cols}")
    out = []
    for i in range(a.rows):
        for j in range(b.cols):
            out.append(add(*[mul(a[i, k], b[k, j]) for k in range(a.cols)]))
    return MatrixNode(a.rows, b.cols, out)


# ---------------------------------------------------------------- entry census


def _want_matrix(m) -> None:
    if not isinstance(m, MatrixNode):
        raise DomainError("expected a matrix")


def _want_square(m: MatrixNode, what: str) -> None:
    _want_matrix(m)
    if m.rows != m.cols:
        raise ShapeError(f"{what} needs a square matrix, not {m.rows}x{m.cols}")


def _is_zero(e: Expr) -> bool:
    return type(e) is Numeric and e.value.is_zero()


def _norm(e: Expr) -> Expr:
    return e if type(e) is Numeric else normal(e)


def _div(a: Expr, b: Expr) -> Expr:
    """a/b with the quotient brought to normal form.  Purely numeric
    operands fold inside the constructors and skip the gcd machinery."""
    q = mul(a, power(b, _M1))
    return q if type(q) is Numeric else normal(q)


# ---------------------------------------------------------------- determinant


def mat_det(m: MatrixNode) -> Expr:
    """Exact determinant.

    The entries' census picks the ring.  Rational numbers are worked on
    as ints and polynomials with rational coefficients as dicts, and the
    result comes back canonical, with no normal() pass.  Rational
    functions of the same symbols are read as dict quotients; each row
    is multiplied by the lcm of its denominators, and the product of
    those lcms is cancelled against the determinant once, as normal()
    would print it.  Entries with generators stay trees, and one
    normal() at the end cancels what the products left.  On every ring,
    the zero pattern picks the method: at least half the matrix
    structurally zero takes memoized minor expansion, unless the pattern
    shows it would need more ring multiplications than Bareiss
    elimination (n^3); a denser matrix takes Bareiss from the start.
    """
    _want_square(m, "determinant")
    d = _det_bareiss_dict(m)
    if d is not None:
        return d
    return _norm(_det_on(m.row_list(), _is_sparse(m), *_TREES))


def _is_sparse(m: MatrixNode) -> bool:
    return 2 * sum(1 for e in m.entries if _is_zero(e)) >= m.rows * m.cols


def _det_on(rows, sparse: bool, times, plus, quo, is_zero):
    """The determinant of rows on one ring: minor expansion for a sparse
    matrix within its budget, Bareiss elimination otherwise."""
    d = _det_cofactor(rows, times, plus, is_zero) if sparse else None
    return _det_bareiss(rows, times, plus, quo, is_zero) if d is None else d


def _det_bareiss_dict(m: MatrixNode) -> Expr | None:
    """The determinant on an exact ring, ints or dicts (_exact_rows), or
    None when some entry has a generator, or an exponent reaches the
    dicts' limit, and the caller has to work on the trees.

    The rows come scaled to integer coefficients, and the product of
    their scales divides out at the end, with one cancellation when some
    denominator is not a number.  When an exponent reaches the dicts'
    limit, the determinant is taken on the trees; on polynomial entries
    it is expanded, as the dicts print it below the limit.
    """
    den = ()  # not None until the entries read as polynomials
    try:
        read = _exact_rows(m.row_list())
        if read is None:
            return None
        ring, rows, scale, den, gm = read
        p = _det_on(rows, _is_sparse(m), *ring)
        if ring is _INTS:
            return lift(Fraction(p, scale))
        if den is None:
            return _from_dict(p if scale == 1 else _pscale(p, Fraction(1, scale)), gm.vars)
        return _quotient(p, _pscale(den, scale), gm)
    except _Overflow:
        d = _det_on(m.row_list(), _is_sparse(m), *_TREES)
        return expand(d) if den is None else _norm(d)


def _exact_rows(rows: list[list[Expr]]):
    """rows read into the exact ring they fit, as (ring, rows, scale, den,
    gm): ints (_int_rows), or dicts with int coefficients (_dict_rows,
    then _integer_rows) with den the product of the dict lcms and gm the
    _GenMap over the symbols; scale is the product of the int lcms.
    None when some entry has a generator."""
    if all(type(e) is Numeric and e.value.is_rational() for row in rows for e in row):
        rows, scale = _int_rows([[e.value.val for e in row] for row in rows])
        return _INTS, rows, scale, None, None
    vars = _ordered_vars(*(e for row in rows for e in row))
    read = _dict_rows(rows, vars)
    if read is None:
        return None
    rows, den, gm = read
    rows, scale = _integer_rows(rows)
    return _DICTS, rows, scale, den, gm


def _dict_rows(rows: list[list[Expr]], vars):
    """rows as dicts over vars, each row times the lcm of its entries'
    denominators, with the product of those lcms (None when every entry
    is a polynomial) and the _GenMap that read the others; None when an
    entry is not a rational function of vars.  A polynomial matrix
    makes no lcm or gcd."""
    nv = len(vars)
    one = {_MONO_ONE: 1}
    gm = _GenMap(vars)
    den = None
    out = []
    for row in rows:
        pairs = [_read(e, gm) for e in row]
        if None in pairs:
            return None
        dens = [d for _, d in pairs if d is not None and d != one]
        if dens:
            lcm = reduce(lambda a, b: _dmul(a, _dquotient(b, _dgcd(a, b, nv))), dens)
            out.append([_dmul(n, lcm if d is None else _dquotient(lcm, d)) for n, d in pairs])
            den = lcm if den is None else _dmul(den, lcm)
        else:
            out.append([n for n, _ in pairs])
    return out, den, gm


def _read(e: Expr, gm, unknowns=frozenset()):
    """e as numerator and denominator dicts over gm's variables, the
    denominator None when _to_dict reads e, and only a refused e going
    through normal()'s pair; None when e is not a rational function of
    them, or when one of the unknowns sits in e anywhere but in a
    numerator of degree at most 1 (_unknown_degree).  A sum under a
    negative power sends e to the pair before anything is expanded; any
    other refusal reads e expanded, which can lift it, as in (x+I)*(x-I)."""
    vars = gm.vars
    for expanding in (False, True):
        try:
            return _to_dict(e, vars, expanding=expanding), None
        except _Unexpanded:
            break
        except DomainError:
            pass
    if _unknown_degree(e, unknowns) not in (0, 1):
        return None
    try:
        pair = _normal_pair(e, gm)
    except DomainError:
        return None
    except ZeroDivisionError:
        expand(e)  # a sum that is 0 under a negative power raises as expanding it always has
        raise
    if len(gm.vars) > len(vars):
        return None  # a generator
    return _fraction(pair, gm, len(vars))


def _int_rows(rows: list[list]) -> tuple[list[list[int]], int]:
    """rows of ints and Fractions with each row scaled to ints by the lcm
    of its denominators, and the product of those lcms."""
    scale = 1
    out = []
    for row in rows:
        den = math.lcm(*(c.denominator for c in row))
        scale *= den
        out.append([c.numerator * (den // c.denominator) for c in row])
    return out, scale


def _integer_rows(rows: list[list[dict]]) -> tuple[list[list[dict]], int]:
    """rows of dicts with each row scaled to integer coefficients by the
    lcm of its denominators, and the product of those lcms."""
    scale = 1
    out = []
    for row in rows:
        den = math.lcm(*(c.denominator for p in row for c in p.values()))
        scale *= den
        out.append([{t: c.numerator * (den // c.denominator) for t, c in p.items()} for p in row])
    return out, scale


def _quotient(n, d, gm) -> Expr:
    """n/d built once: a lifted Fraction of ints when gm is None, and
    otherwise a quotient of dicts over gm's variables as normal() builds
    a pair, cancelled, the denominator unit normal, a tree once d is 1."""
    if gm is None:
        return lift(Fraction(n, d))
    n, d = _frac_cancel(n, d, gm)
    if d == 1:
        return n
    return mul(_from_dict(n, gm.vars), power(_from_dict(d, gm.vars), _M1))


def _det_bareiss(rows, times, plus, quo, is_zero):
    """Fraction-free Bareiss elimination (Bareiss 1968) on any ring.

    times, plus and is_zero are _det_cofactor's.  quo(t, p) divides t
    by the previous pivot p, exactly by Sylvester's identity; at the
    first step there is no pivot yet and p is None.  Consumes rows.
    """
    n = len(rows)
    sign = 1
    prev = None
    for k in range(n - 1):
        piv = next((i for i in range(k, n) if not is_zero(rows[i][k])), None)
        if piv is None:
            return plus([])
        if piv != k:
            rows[k], rows[piv] = rows[piv], rows[k]
            sign = -sign
        pk = rows[k][k]
        for i in range(k + 1, n):
            rik = rows[i][k]
            for j in range(k + 1, n):
                t = plus([(times(pk, rows[i][j]), 1), (times(rik, rows[k][j]), -1)])
                rows[i][j] = quo(t, prev)
        prev = pk
    return plus([(rows[-1][-1], sign)])


def _int_sum(terms: list) -> int:
    return sum(t if sign > 0 else -t for t, sign in terms)


def _int_quo(t: int, p: int | None) -> int:
    if p is None:
        return t
    q, r = divmod(t, p)
    if r:
        raise ArithmeticError("inexact fraction-free division")
    return q


def _dict_quo(t: dict, p: dict | None) -> dict:
    q = t if p is None else _ddiv_exact(t, p)
    if q is None:
        raise ArithmeticError("inexact fraction-free division")
    return q


def _tree_quo(t: Expr, p: Expr | None) -> Expr:
    # the first step divides by 1, which still brings t to normal form
    return _div(t, _ONE if p is None else p)


def _det_cofactor(rows, times, plus, is_zero):
    """Laplace expansion column by column, each minor computed once.

    The nonzero minors of the first c columns are kept in a dict keyed
    by the bitmask of their rows; the minor on rows S of the first
    c + 1 columns is the signed sum, over r in S, of entry (r, c) times
    the minor on S - {r}.  times multiplies two ring elements, plus sums
    a list of (element, sign) pairs, each sign 1 or -1, as _padd does.

    The steps are planned on the zero pattern first.  When they would
    take more than n^3 ring multiplications, Bareiss's cost on a dense
    matrix, the answer is None before any arithmetic is done: a matrix
    with little structure has up to C(n, n/2) live minors.
    """
    n = len(rows)
    cols = [[i for i in range(n) if not is_zero(rows[i][j])] for j in range(n)]
    budget = n**3
    plan = []
    masks = {1 << i for i in cols[0]}
    for col in cols[1:]:
        steps = [(mask, i) for mask in masks for i in col if not mask >> i & 1]
        budget -= len(steps)
        if budget < 0:
            return None
        plan.append(steps)
        masks = {mask | 1 << i for mask, i in steps}
    minors = {1 << i: rows[i][0] for i in cols[0]}
    for j, steps in enumerate(plan, 1):
        terms: dict[int, list] = {}
        for mask, i in steps:
            minor = minors.get(mask)
            if minor is not None:
                # the sign of entry (i, j) in the minor on mask + {i}:
                # one flip for each of its rows after i
                sign = -1 if (mask >> i).bit_count() & 1 else 1
                terms.setdefault(mask | 1 << i, []).append((times(rows[i][j], minor), sign))
        minors = {}
        for mask, ts in terms.items():
            t = plus(ts)
            if not is_zero(t):
                minors[mask] = t
    return minors.get((1 << n) - 1, plus([]))


def _tree_sum(terms: list) -> Expr:
    return add(*(t if sign > 0 else mul(_M1, t) for t, sign in terms))


# each ring's (times, plus, quo, is_zero)
_INTS = (operator.mul, _int_sum, _int_quo, operator.not_)
_DICTS = (_dmul, _padd, _dict_quo, operator.not_)
_TREES = (mul, _tree_sum, _tree_quo, _is_zero)


# ---------------------------------------------------------------- Gauss-Jordan


def _gauss_jordan(rows: list[list[Expr]], ncols: int) -> dict[int, int]:
    """Gauss-Jordan elimination on the first ncols columns of rows, in
    place; returns {pivot column: its row}.

    Each pivot row is divided by its pivot and the pivot's column is
    cleared in every other row; later columns, such as the right-hand
    sides of a system, ride along.  A column without a pivot is skipped:
    it stays zero in every row at or below the running pivot row, so
    rows left below the last pivot row have only zeros in the first
    ncols columns.
    """
    width = len(rows[0])
    r = 0
    pivots: dict[int, int] = {}
    for c in range(ncols):
        for piv in range(r, len(rows)):
            e = rows[piv][c]
            # normal alone keeps (x+1)^2-x^2-2*x-1; expanded first, it is 0
            if not _is_zero(e) and (type(e) is Numeric or not _is_zero(normal(expand(e)))):
                break
            rows[piv][c] = _ZERO
        else:
            continue
        rows[r], rows[piv] = rows[piv], rows[r]
        pk = rows[r][c]
        if pk != _ONE:
            # the pivot row's columns left of c are zero already
            rows[r][c:] = [_div(x, pk) for x in rows[r][c:]]
        rr = rows[r]
        for i, ri in enumerate(rows):
            f = ri[c]
            if i == r or _is_zero(f):
                continue
            for j in range(c + 1, width):
                ri[j] = _norm(add(ri[j], mul(_M1, f, rr[j])))
            ri[c] = _ZERO
        pivots[c] = r
        r += 1
    return pivots


def _jordan(rows, ncols: int, times, plus, quo, is_zero) -> dict[int, int]:
    """Fraction-free Gauss-Jordan elimination on the first ncols columns
    of rows, in place, on an exact ring as _det_bareiss takes it; returns
    {pivot column: its row} with the pivots _gauss_jordan picks.

    A step with pivot p in row r sets every other row i to (p * row_i -
    row_i[c] * row_r) / prev, prev the previous pivot, right of column c:
    no step reads a column left of its own again.  Each division is
    exact (Bareiss 1968; Nakos, Turner and Williams 1997), and after the
    last step, with pivot p, a pivot row's entries over p are the
    reduced form's.
    """
    width = len(rows[0])
    r = 0
    prev = None
    pivots: dict[int, int] = {}
    for c in range(ncols):
        piv = next((i for i in range(r, len(rows)) if not is_zero(rows[i][c])), None)
        if piv is None:
            continue
        rows[r], rows[piv] = rows[piv], rows[r]
        rr = rows[r]
        p = rr[c]
        for i, ri in enumerate(rows):
            if i == r:
                continue
            f = ri[c]
            for j in range(c + 1, width):
                t = times(p, ri[j])
                if not is_zero(f):
                    t = plus([(t, 1), (times(f, rr[j]), -1)])
                ri[j] = quo(t, prev)
        pivots[c] = r
        prev = p
        r += 1
    return pivots


# ---------------------------------------------------------------- inverse


def mat_inverse(m: MatrixNode) -> MatrixNode:
    """Exact inverse by Gauss-Jordan elimination on [m | I], on the ring
    the entries' census picks."""
    _want_square(m, "inversion")
    n = m.rows
    rows = [
        list(m.entries[i * n : (i + 1) * n])
        + [_ONE if i == j else _ZERO for j in range(n)]
        for i in range(n)
    ]
    try:
        read = _exact_rows(rows)
        if read is not None:
            # a row's scale multiplies its entry of I too, so the inverse
            # of the scaled rows, times their scales, is m's
            ring, exact, _, _, gm = read
            if len(_jordan(exact, n, *ring)) < n:
                raise SingularMatrixError("matrix is singular")
            p = exact[-1][n - 1]
            return MatrixNode(n, n, [_quotient(x, p, gm) for row in exact for x in row[n:]])
    except _Overflow:
        pass  # an exponent reached the dicts' limit; the trees hold it
    if len(_gauss_jordan(rows, n)) < n:
        raise SingularMatrixError("matrix is singular")
    # n pivots on n rows: column i's pivot is in row i
    return MatrixNode(n, n, [_norm(x) for row in rows for x in row[n:]])


# ---------------------------------------------------------------- charpoly


def mat_charpoly(m: MatrixNode, lam: Symbol) -> Expr:
    """det(m - lam*I), expanded and collected in lam.

    The leading term is (-lam)^n, so the leading coefficient is (-1)^n.
    A matrix of exact rationals is scaled to integers and takes the
    Faddeev-LeVerrier recurrence (_leverrier), with no determinant of
    polynomials; any other matrix, floats included, collects
    mat_det(m - lam*I).
    """
    _want_square(m, "charpoly")
    if type(lam) is not Symbol:
        raise DomainError("charpoly needs a plain symbol as the indeterminate")
    if lam in free_symbols(m):
        raise DomainError(f"{lam.name} already appears in the matrix")
    n = m.rows
    if all(type(e) is Numeric and e.value.is_rational() for e in m.entries):
        fr = [e.value.as_fraction() for e in m.entries]
        d = math.lcm(*(f.denominator for f in fr))
        a = _leverrier([[f.numerator * (d // f.denominator) for f in fr[i * n : (i + 1) * n]]
                        for i in range(n)])
        # det(m - lam*I) = (-1)^n d^-n det(d*lam*I - d*m)
        sign = (-1) ** n
        # over the one variable lam, the packed monomial of lam^j is j
        return _from_dict({j: _qdiv(sign * c, d ** (n - j)) for j, c in enumerate(a) if c},
                          (lam,))
    ent = list(m.entries)
    for i in range(n):
        ent[i * n + i] = add(ent[i * n + i], mul(_M1, lam))
    return collect(mat_det(MatrixNode(n, n, ent)), lam)


def _leverrier(a: list[list[int]]) -> list[int]:
    """The coefficients c_0 .. c_n of det(lam*I - a) for an integer
    matrix a, by the Faddeev-LeVerrier recurrence

        M_1 = I,  M_k = a M_(k-1) + c_(n-k+1) I,  c_(n-k) = -tr(a M_k) / k,

    as GiNaC's matrix::charpoly runs it on numeric matrices.  The c_j are
    integers, so each division is exact; a is applied row by row over
    its nonzero entries.
    """
    n = len(a)
    sparse = [[(j, v) for j, v in enumerate(row) if v] for row in a]
    c = [0] * n + [1]
    am = [list(row) for row in a]  # a M_1
    for k in range(1, n + 1):
        q, r = divmod(-sum(am[i][i] for i in range(n)), k)
        if r:
            raise ArithmeticError("inexact Faddeev-LeVerrier division")
        c[n - k] = q
        if k == n:
            break
        for i in range(n):  # am becomes M_(k+1)
            am[i][i] += q
        mk = am
        am = []
        for row in sparse:
            acc = [0] * n
            for j, v in row:
                acc = [s + v * t for s, t in zip(acc, mk[j])]
            am.append(acc)
    return c


# ---------------------------------------------------------------- linear solve


def solve_linear(eqs, unknowns) -> ExprList:
    """Solve a linear system for the given symbols.

    Each equation must be an == relation, linear in the unknowns;
    coefficients may be arbitrary expressions free of them.  The unique
    solution comes back as an ExprList of relations, one per unknown,
    with normalized right-hand sides.  A symbolic pivot is assumed
    nonzero (it shows up in denominators); a system without exactly one
    solution raises NoUniqueSolutionError.
    """
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
    nc = len(unknowns)
    try:
        read = _exact_system(eqs, unknowns)
        if read is not None:
            ring, rows, gm = read
            pivots = _jordan(rows, nc, *ring)
            # the last pivot row still holds the last pivot
            p = rows[len(pivots) - 1][max(pivots)] if pivots else None
            return _solution(rows, pivots, unknowns, ring[3], lambda t: _quotient(t, p, gm))
    except _Overflow:
        pass  # an exponent reached the dicts' limit; the trees hold it
    rows = _tree_system(eqs, unknowns)
    return _solution(rows, _gauss_jordan(rows, nc), unknowns, _is_zero, lambda e: e)


def _solution(rows, pivots, unknowns, is_zero, out) -> ExprList:
    """The unique solution from rows eliminated to pivots, each right-hand
    side built by out; NoUniqueSolutionError when there is none."""
    nc = len(unknowns)
    # rows below the last pivot row can only carry a right-hand side
    for row in rows[len(pivots) :]:
        if not is_zero(row[nc]):
            raise NoUniqueSolutionError("system is inconsistent")
    if len(pivots) < nc:
        free = next(v for c, v in enumerate(unknowns) if c not in pivots)
        raise NoUniqueSolutionError(f"system does not determine {free.name}")
    return ExprList(Eq(v, out(rows[pivots[c]][nc])) for c, v in enumerate(unknowns))


def _exact_system(eqs, unknowns):
    """The augmented rows of the system on an exact ring, as (ring, rows,
    gm); None when it is not exact and linear, and the tree reader has
    to raise what it raises.

    Each side is read once over the system's symbols, by _to_dict or, if
    it refuses, as normal()'s pair; the difference, denominators
    multiplied out, splits by the unknowns' fields.  Not taken: a
    relation other than ==, a generator, an unknown under anything but
    sums, products and positive integer powers, and a term of degree 2.
    """
    for eq in eqs:
        if not isinstance(eq, Relational) or eq.op != "==":
            return None
    vars = _ordered_vars(*(s for eq in eqs for s in (eq.lhs, eq.rhs)), *unknowns)
    nv = len(vars)
    nc = len(unknowns)
    # each unknown's monomial, to its column
    col = {1 << _FIELD * (nv - 1 - vars.index(v)): c for c, v in enumerate(unknowns)}
    fields = sum(col) * _MASK
    uset = set(unknowns)
    gm = _GenMap(vars)
    rows = []
    for eq in eqs:
        sides = [_read(e, gm, uset) for e in (eq.lhs, eq.rhs)]
        if None in sides:
            return None
        (nl, dl), (nr, dr) = sides
        f = _padd(((nl if dr is None else _dmul(nl, dr), 1), (nr if dl is None else _dmul(nr, dl), -1)))
        row = [{} for _ in range(nc + 1)]
        for m, c in f.items():
            u = m & fields
            j = col.get(u) if u else nc
            if j is None:
                return None  # degree 2 or more in the unknowns
            row[j][m - u] = c if u else -c
        rows.append(row)
    if nv == nc:
        rows, _ = _int_rows([[p.get(_MONO_ONE, 0) for p in row] for row in rows])
        return _INTS, rows, None
    rows, _ = _integer_rows(rows)
    return _DICTS, rows, gm


def _unknown_degree(e: Expr, unknowns: set) -> int | None:
    """The degree of tree e in the unknowns, as its sums, products and
    powers give it; None when an unknown sits anywhere else."""
    if not free_symbols(e) & unknowns:
        return 0
    t = type(e)
    if t is Symbol:
        return 1
    if t is Add:
        ds = [_unknown_degree(r, unknowns) for r, _ in e.pairs]
        return None if None in ds else max(ds)
    if t is Power and type(e.exponent) is Numeric:
        pairs = [(e.base, e.exponent.value)]
    elif t is Mul:
        pairs = e.pairs
    else:
        return None
    ds = [(_unknown_degree(r, unknowns), k) for r, k in pairs]
    if any(d is None or d and not (k.is_integer() and k.val > 0) for d, k in ds):
        return None
    return sum(d * k.val for d, k in ds if d)


def _tree_system(eqs, unknowns) -> list[list[Expr]]:
    """The augmented rows of the system on the trees: each equation
    expanded once, and the coefficients of its unknowns read off the
    expanded terms."""
    vset = set(unknowns)
    rows = []
    zeros = {v: _ZERO for v in unknowns}
    for eq in eqs:
        if not isinstance(eq, Relational) or eq.op != "==":
            raise DomainError("equations must be == relations")
        f = expand(add(eq.lhs, mul(_M1, eq.rhs)))
        terms = _terms_of(f)
        row = []
        for v in unknowns:
            by = _by_degree(terms, v)
            if max(by, default=0) > 1:
                raise DomainError(f"system is not linear in {v.name}")
            c = add(*by.get(1, ()))
            if free_symbols(c) & vset:
                raise DomainError("unknowns multiply each other in one equation")
            row.append(_norm(c))
            # a term in v is free of the later unknowns, so they read only
            # the terms without v; after a negative power of v, which ends
            # in an error, every term stays, so the checks meet them in order
            if min(by, default=0) >= 0:
                terms = by.get(0, [])
        row.append(_norm(mul(_M1, subs(f, zeros))))
        rows.append(row)
    return rows
