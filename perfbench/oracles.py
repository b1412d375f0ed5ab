"""Reference computations the benchmark checks results against.

Nothing here imports minicas.  Expression trees are read through their
public node attributes (``pairs``, ``coeff``, ``base``, ...) and
evaluated in plain ``int``/``Fraction`` arithmetic, in dict polynomials
(exponent tuple -> Fraction), or in mpmath floats for the transcendental
constants.  Every check raises ``Mismatch`` with the offending value.
"""

from __future__ import annotations

from fractions import Fraction


class Mismatch(AssertionError):
    """A result disagreed with its oracle."""


def claim(ok: bool, what: str, got) -> None:
    if not ok:
        raise Mismatch(f"{what}: got {got!r}"[:400])


# ------------------------------------------------------------ tree walking


def children(e) -> list:
    """The expression children of one node, by node class name."""
    t = type(e).__name__
    if t in ("Add", "Mul"):
        return [r for r, _ in e.pairs]
    if t == "Power":
        return [e.base, e.exponent]
    if t == "FunctionApp":
        return list(e.args)
    if t == "PSeriesNode":
        return [e.var, e.point] + [c for c, _ in e.terms]
    if t == "Relational":
        return [e.lhs, e.rhs]
    if t == "ExprList":
        return list(e.items)
    if t == "MatrixNode":
        return list(e.entries)
    return []


def dag_nodes(root) -> int:
    """Distinct expression nodes reachable from root (shared ones once)."""
    seen = set()
    stack = [root]
    while stack:
        x = stack.pop()
        if id(x) in seen:
            continue
        seen.add(id(x))
        stack.extend(children(x))
    return len(seen)


def number_value(n) -> Fraction:
    """An exact minicas Number as a Fraction."""
    if n.kind == "int":
        return Fraction(n.val)
    if n.kind == "rat":
        return n.val
    raise Mismatch(f"expected an exact rational, got a {n.kind} number")


class _Numbers:
    """Ring operations of Python numbers (Fraction, mpf)."""

    @staticmethod
    def add(a, b):
        return a + b

    @staticmethod
    def mul(a, b):
        return a * b

    @staticmethod
    def pow(a, k: int):
        return a**k


class Rational(_Numbers):
    """Evaluate at a point: symbols map (by serial) to Fractions."""

    def __init__(self, point: dict):
        self.point = point

    def number(self, n):
        return number_value(n)

    def symbol(self, s):
        if s.serial not in self.point:
            raise Mismatch(f"unexpected symbol {s.name}")
        return self.point[s.serial]

    def leaf(self, e):
        raise Mismatch(f"cannot evaluate {type(e).__name__} exactly")


class Polys:
    """Evaluate into dict polynomials over the given symbols (by serial)."""

    def __init__(self, serials: list):
        self.index = {s: i for i, s in enumerate(serials)}
        self.width = len(serials)
        self.one = const(Fraction(1), self.width)

    def number(self, n):
        return const(number_value(n), self.width)

    def symbol(self, s):
        if s.serial not in self.index:
            raise Mismatch(f"unexpected symbol {s.name}")
        t = [0] * self.width
        t[self.index[s.serial]] = 1
        return {tuple(t): Fraction(1)}

    def leaf(self, e):
        raise Mismatch(f"{type(e).__name__} is not polynomial")

    @staticmethod
    def add(a, b):
        return padd(a, b)

    @staticmethod
    def mul(a, b):
        return pmul(a, b)

    def pow(self, a, k: int):
        if k < 0:
            raise Mismatch("negative power in a polynomial")
        return ppow(a, k, self.width)


class Floats(_Numbers):
    """Evaluate a symbol-free tree with mpmath at its current precision."""

    def __init__(self, mp):
        self.mp = mp

    def number(self, n):
        v = number_value(n)
        return self.mp.mpf(v.numerator) / v.denominator

    def symbol(self, s):
        raise Mismatch(f"unexpected symbol {s.name}")

    def leaf(self, e):
        mp = self.mp
        t = type(e).__name__
        if t == "Constant":
            return {"Pi": mp.pi, "Euler": mp.euler, "Catalan": mp.catalan}[e.name] + 0
        if t == "FunctionApp" and e.fdef.name == "zeta":
            return mp.zeta(evaluate(e.args[0], self))
        raise Mismatch(f"no float reference for {t}")


def evaluate(e, ring, memo: dict | None = None):
    """Value of a tree in ring; shared subtrees are evaluated once."""
    memo = {} if memo is None else memo
    got = memo.get(id(e))
    if got is not None:
        return got
    t = type(e).__name__
    if t == "Numeric":
        v = ring.number(e.value)
    elif t == "Symbol":
        v = ring.symbol(e)
    elif t == "Add":
        v = ring.number(e.coeff)
        for r, k in e.pairs:
            v = ring.add(v, ring.mul(ring.number(k), evaluate(r, ring, memo)))
    elif t == "Mul":
        v = ring.number(e.coeff)
        for r, k in e.pairs:
            v = ring.mul(v, ring.pow(evaluate(r, ring, memo), _int_exponent(number_value(k))))
    elif t == "Power":
        if type(e.exponent).__name__ != "Numeric":
            raise Mismatch("symbolic exponent")
        k = _int_exponent(number_value(e.exponent.value))
        v = ring.pow(evaluate(e.base, ring, memo), k)
    else:
        v = ring.leaf(e)
    memo[id(e)] = v
    return v


def _int_exponent(k: Fraction) -> int:
    if k.denominator != 1:
        raise Mismatch(f"non-integer exponent {k}")
    return k.numerator


def series_terms(s) -> tuple[dict, int | None]:
    """(exponent -> coefficient tree, order) of a PSeriesNode."""
    claim(type(s).__name__ == "PSeriesNode", "series result", type(s).__name__)
    return {k: c for c, k in s.terms}, s.order


# ------------------------------------------------------- dict polynomials


def const(c, width: int) -> dict:
    return {(0,) * width: Fraction(c)} if c else {}


def padd(a: dict, b: dict) -> dict:
    out = dict(a)
    for t, c in b.items():
        s = out.get(t, 0) + c
        if s:
            out[t] = s
        else:
            out.pop(t, None)
    return out


def pscale(a: dict, c) -> dict:
    return {t: v * c for t, v in a.items()} if c else {}


def pmul(a: dict, b: dict) -> dict:
    out: dict = {}
    for ta, ca in a.items():
        for tb, cb in b.items():
            t = tuple(i + j for i, j in zip(ta, tb))
            s = out.get(t, 0) + ca * cb
            if s:
                out[t] = s
            else:
                out.pop(t, None)
    return out


def ppow(a: dict, k: int, width: int) -> dict:
    out = const(1, width)
    for _ in range(k):
        out = pmul(out, a)
    return out


def pdivide(a: dict, b: dict) -> dict | None:
    """a / b when b divides a exactly, else None (lex leading terms).

    If b divides a, then lt(b) divides the leading term of every
    remainder, so a leading term lt(b) does not divide proves b does
    not divide a.
    """
    if not b:
        raise ZeroDivisionError("division by the zero polynomial")
    lb = max(b)
    cb = b[lb]
    q: dict = {}
    r = dict(a)
    while r:
        lr = max(r)
        if any(i < j for i, j in zip(lr, lb)):
            return None
        t = tuple(i - j for i, j in zip(lr, lb))
        c = Fraction(r[lr]) / cb
        q[t] = c
        r = padd(r, pscale(pmul({t: c}, b), -1))
    return q


def peval(p: dict, point: list) -> Fraction:
    total = Fraction(0)
    for t, c in p.items():
        v = Fraction(c)
        for x, e in zip(point, t):
            v *= Fraction(x) ** e
        total += v
    return total


# ------------------------------------------------------------- matrices


def det(rows: list) -> Fraction:
    """Determinant by Fraction Gaussian elimination with row swaps."""
    m = [[Fraction(x) for x in row] for row in rows]
    n = len(m)
    sign = 1
    d = Fraction(1)
    for k in range(n):
        piv = next((i for i in range(k, n) if m[i][k]), None)
        if piv is None:
            return Fraction(0)
        if piv != k:
            m[k], m[piv] = m[piv], m[k]
            sign = -sign
        d *= m[k][k]
        for i in range(k + 1, n):
            f = m[i][k] / m[k][k]
            if f:
                for j in range(k, n):
                    m[i][j] -= f * m[k][j]
    return sign * d


# --------------------------------------------------------------- series


def taylor_quotient(p: list, q: list, n: int) -> list:
    """First n Taylor coefficients of p(x)/q(x) at 0 (q[0] != 0):
    c_k = (p_k - sum_{j>=1} q_j c_{k-j}) / q_0."""
    c: list = []
    for k in range(n):
        s = Fraction(p[k]) if k < len(p) else Fraction(0)
        for j in range(1, min(k, len(q) - 1) + 1):
            s -= q[j] * c[k - j]
        c.append(s / q[0])
    return c


def taylor_power(f: list, r: Fraction, n: int) -> list:
    """First n Taylor coefficients of f(x)**r at 0 for f[0] == 1, by
    the recurrence k g_k = sum_{j=1..k} (r j - (k - j)) f_j g_{k-j}."""
    g = [Fraction(1)]
    for k in range(1, n):
        s = Fraction(0)
        for j in range(1, min(k, len(f) - 1) + 1):
            s += (r * j - (k - j)) * f[j] * g[k - j]
        g.append(s / k)
    return g
