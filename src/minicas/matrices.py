"""Exact linear algebra on dense matrices of expressions.

A matrix is a MatrixNode, row-major entries behind the same immutable
Expr discipline as every other node.  Determinants try fraction-free
Bareiss elimination on dict polynomials first, which succeeds when every
entry is a polynomial with rational coefficients.  Otherwise a census of
the entries decides: cofactor expansion along the emptiest row or column
when plenty of entries are zero, and Bareiss on the trees otherwise,
with every division resolved through normal() so that cancellation
happens in the enlarged ring of generators.
Inversion is exact Gauss-Jordan, and solve_linear() reduces a list of
relations to Gaussian elimination on the coefficient matrix.

Pivots are the first nonzero candidates in canonical order.  A symbolic
pivot is assumed nonzero; there is no case splitting, and the
assumption is visible in the result wherever the pivot ends up in a
denominator.
"""

from __future__ import annotations

from fractions import Fraction

from .errors import DomainError, NoUniqueSolutionError, ShapeError, SingularMatrixError
from .expr import (
    Eq,
    Expr,
    ExprList,
    MatrixNode,
    Numeric,
    Relational,
    Symbol,
    add,
    expand,
    free_symbols,
    lift,
    mul,
    power,
    subs,
)
from .poly import coeff, collect, degree, normal
from .poly import _ddiv_exact, _dmul, _dsub, _from_dict, _ordered_vars, _to_dict

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

    Entries that are all polynomials with rational coefficients go to
    fraction-free Bareiss elimination on dict polynomials, whose
    divisions are exact by Sylvester's identity.  Otherwise a census of
    the entries decides: at least half the matrix structurally zero
    takes cofactor expansion along the sparsest line; a denser one takes
    Bareiss on the trees, since normal() cancels quotients of function
    kernels just as well.
    """
    _want_square(m, "determinant")
    n = m.rows
    d = _det_bareiss_dict(m)
    if d is None:
        if 2 * sum(1 for e in m.entries if _is_zero(e)) >= n * n:
            d = _det_cofactor(m.row_list())
        else:
            d = _det_bareiss(m.row_list())
    return _norm(d)


def _det_bareiss_dict(m: MatrixNode) -> Expr | None:
    """Bareiss elimination on the poly dict representation.

    Avoids rebuilding expression trees for every intermediate minor;
    the exact divisions stay inside Fraction arithmetic.  Returns None
    when some entry is not a polynomial with rational coefficients
    (_to_dict refuses it), and the caller picks a tree-level routine.
    """
    vars = _ordered_vars(*m.entries)
    try:
        rows = [[_to_dict(e, vars) for e in row] for row in m.row_list()]
    except DomainError:
        return None
    n = m.rows
    sign = 1
    prev = None
    for k in range(n - 1):
        piv = next((i for i in range(k, n) if rows[i][k]), None)
        if piv is None:
            return _ZERO
        if piv != k:
            rows[k], rows[piv] = rows[piv], rows[k]
            sign = -sign
        pk = rows[k][k]
        for i in range(k + 1, n):
            rik = rows[i][k]
            for j in range(k + 1, n):
                t = _dsub(_dmul(pk, rows[i][j]), _dmul(rik, rows[k][j]))
                if prev is not None and t:
                    t = _ddiv_exact(t, prev)
                    if t is None:  # cannot happen by Sylvester's identity
                        return None
                rows[i][j] = t
            rows[i][k] = {}
        prev = pk
    d = _from_dict(rows[-1][-1], vars)
    return d if sign > 0 else mul(_M1, d)


def _det_bareiss(rows: list[list[Expr]]) -> Expr:
    n = len(rows)
    sign = 1
    prev = _ONE
    for k in range(n - 1):
        piv = next((i for i in range(k, n) if not _is_zero(rows[i][k])), None)
        if piv is None:
            return _ZERO
        if piv != k:
            rows[k], rows[piv] = rows[piv], rows[k]
            sign = -sign
        pk = rows[k][k]
        for i in range(k + 1, n):
            rik = rows[i][k]
            for j in range(k + 1, n):
                t = add(mul(pk, rows[i][j]), mul(_M1, rik, rows[k][j]))
                rows[i][j] = _div(t, prev)
            rows[i][k] = _ZERO
        prev = pk
    d = rows[-1][-1]
    return d if sign > 0 else mul(_M1, d)


def _det_cofactor(rows: list[list[Expr]]) -> Expr:
    n = len(rows)
    if n == 1:
        return rows[0][0]
    # expand along the line with the most structural zeros
    zr = [sum(1 for j in range(n) if _is_zero(rows[i][j])) for i in range(n)]
    zc = [sum(1 for i in range(n) if _is_zero(rows[i][j])) for j in range(n)]
    terms = []
    if max(zr) >= max(zc):
        i = zr.index(max(zr))
        picks = [(i, j) for j in range(n)]
    else:
        j = zc.index(max(zc))
        picks = [(i, j) for i in range(n)]
    for i, j in picks:
        a = rows[i][j]
        if _is_zero(a):
            continue
        minor = [r[:j] + r[j + 1 :] for k, r in enumerate(rows) if k != i]
        t = mul(a, _det_cofactor(minor))
        terms.append(mul(_M1, t) if (i + j) % 2 else t)
    return add(*terms)


# ---------------------------------------------------------------- inverse


def mat_inverse(m: MatrixNode) -> MatrixNode:
    """Exact inverse by Gauss-Jordan elimination on [m | I]."""
    _want_square(m, "inversion")
    n = m.rows
    rows = [
        list(m.entries[i * n : (i + 1) * n])
        + [_ONE if i == j else _ZERO for j in range(n)]
        for i in range(n)
    ]
    for c in range(n):
        piv = next((i for i in range(c, n) if not _is_zero(rows[i][c])), None)
        if piv is None:
            raise SingularMatrixError("matrix is singular")
        if piv != c:
            rows[c], rows[piv] = rows[piv], rows[c]
        pk = rows[c][c]
        if pk != _ONE:
            rows[c] = rows[c][:c] + [_div(x, pk) for x in rows[c][c:]]
        rc = rows[c]
        for i in range(n):
            if i == c:
                continue
            f = rows[i][c]
            if _is_zero(f):
                continue
            ri = rows[i]
            # columns left of c are already reduced to zero in both rows
            for j in range(c + 1, 2 * n):
                ri[j] = _norm(add(ri[j], mul(_M1, f, rc[j])))
            ri[c] = _ZERO
    out = [_norm(x) for i in range(n) for x in rows[i][n:]]
    return MatrixNode(n, n, out)


# ---------------------------------------------------------------- charpoly


def mat_charpoly(m: MatrixNode, lam: Symbol) -> Expr:
    """det(m - lam*I), expanded and collected in lam.

    The leading term is (-lam)^n, so the leading coefficient is (-1)^n.
    """
    _want_square(m, "charpoly")
    if type(lam) is not Symbol:
        raise DomainError("charpoly needs a plain symbol as the indeterminate")
    if lam in free_symbols(m):
        raise DomainError(f"{lam.name} already appears in the matrix")
    n = m.rows
    ent = list(m.entries)
    for i in range(n):
        ent[i * n + i] = add(ent[i * n + i], mul(_M1, lam))
    return collect(expand(mat_det(MatrixNode(n, n, ent))), lam)


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
    vset = set(unknowns)
    nc = len(unknowns)

    rows = []
    zeros = {v: _ZERO for v in unknowns}
    for eq in eqs:
        if not isinstance(eq, Relational) or eq.op != "==":
            raise DomainError("equations must be == relations")
        f = expand(add(eq.lhs, mul(_M1, eq.rhs)))
        row = []
        for v in unknowns:
            if degree(f, v) > 1:
                raise DomainError(f"system is not linear in {v.name}")
            c = coeff(f, v, 1)
            if free_symbols(c) & vset:
                raise DomainError("unknowns multiply each other in one equation")
            row.append(_norm(c))
        row.append(_norm(mul(_M1, subs(f, zeros))))
        rows.append(row)

    # Gauss-Jordan on the augmented rows; a skipped column stays zero in
    # every row at or below the running pivot row, so leftover rows can
    # only carry a right-hand side
    r = 0
    pivot_row: dict[int, int] = {}
    for c in range(nc):
        piv = next((i for i in range(r, len(rows)) if not _is_zero(rows[i][c])), None)
        if piv is None:
            continue
        rows[r], rows[piv] = rows[piv], rows[r]
        pk = rows[r][c]
        if pk != _ONE:
            rows[r] = [_div(x, pk) for x in rows[r]]
        rr = rows[r]
        for i in range(len(rows)):
            if i == r:
                continue
            f = rows[i][c]
            if _is_zero(f):
                continue
            ri = rows[i]
            for j in range(c + 1, nc + 1):
                ri[j] = _norm(add(ri[j], mul(_M1, f, rr[j])))
            ri[c] = _ZERO
        pivot_row[c] = r
        r += 1
    for i in range(r, len(rows)):
        if not _is_zero(rows[i][nc]):
            raise NoUniqueSolutionError("system is inconsistent")
    if len(pivot_row) < nc:
        free = next(v for c, v in enumerate(unknowns) if c not in pivot_row)
        raise NoUniqueSolutionError(f"system does not determine {free.name}")
    return ExprList(Eq(v, rows[pivot_row[c]][nc]) for c, v in enumerate(unknowns))
