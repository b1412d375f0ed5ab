"""The four workloads: seeded inputs, the calls under test, and checks.

A workload is a list of items.  Each item is one call (or a short
chain of calls) into minicas whose result the runner prints with
``to_string``; ``check`` compares the result against an oracle from
``perfbench.oracles`` and raises on disagreement.  Inputs are built
once from the seed, before any timing, so every pass of a run repeats
the same items.

The structure of every input (degrees, sizes, number of terms, the
magnitudes of its coefficients) is fixed per workload; the seed draws
signs, the order of those magnitudes, sparsity patterns and evaluation
points.  That keeps the cost of a pass nearly the same from one seed to
the next, so runs on different seeds are comparable.
"""

from __future__ import annotations

import random
import re
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable

import minicas as mc
from minicas import Eq, Expr, Symbol, add, expand, lift, mul, power, to_string

from . import oracles as orc
from .oracles import Mismatch, claim

# Sizes of the timed items ("full") and of the warm-up copy of every
# item kind that set-up runs once ("warm").
SIZES = {
    "canon-expand": {
        "full": {"collapse_syms": 50, "collapse_items": 1, "products2": 6, "products3": 12,
                 "power": 4},
        "warm": {"collapse_syms": 6, "collapse_items": 1, "products2": 1, "products3": 1,
                 "power": 2},
    },
    "rational-gcd": {
        "full": {"sum_terms": 5, "sums": 2, "gcd_deg2": 6, "gcds2": 2, "gcd_deg3": 4, "gcds3": 4,
                 "sr_deg": 3, "tridiag": 11, "charpoly": 14, "charpolys": 2, "ratdet": 3,
                 "sparse_det": 4, "dets": 2},
        "warm": {"sum_terms": 2, "sums": 1, "gcd_deg2": 2, "gcds2": 1, "gcd_deg3": 1, "gcds3": 1,
                 "sr_deg": 1, "tridiag": 3, "charpoly": 3, "charpolys": 1, "ratdet": 2,
                 "sparse_det": 2, "dets": 1},
    },
    "series-print": {
        "full": {"gamma_order": 15, "rational": 12, "algebraic": 4, "order": 12},
        "warm": {"gamma_order": 4, "rational": 1, "algebraic": 1, "order": 4},
    },
    "shell-session": {
        "full": {"rounds": 80},
        "warm": {"rounds": 1},
    },
}

NAMES = tuple(SIZES)


@dataclass
class Item:
    id: str
    sizes: dict
    run: Callable  # run(session) -> result
    check: Callable  # check(result, text, session) -> None, raises on a wrong result
    render: Callable = to_string
    root: Callable = field(default=lambda result, session: result)


@dataclass
class Workload:
    name: str
    items: list
    new_session: Callable = field(default=lambda: None)


def build(name: str, seed: int, scale: str = "full") -> Workload:
    rng = random.Random(f"{name}:{seed}:{scale}")
    return _WORKLOADS[name](rng, SIZES[name][scale])


def _signed(rng, mags) -> list:
    """The magnitudes in a seeded order, each with a seeded sign: inputs
    differ between seeds while their arithmetic stays the same size."""
    return [rng.choice((-1, 1)) * m for m in rng.sample(list(mags), len(mags))]


def _cycled(mags, n: int) -> list:
    return [mags[i % len(mags)] for i in range(n)]


def _nonzero(rng, lo: int, hi: int) -> int:
    return rng.choice([v for v in range(lo, hi + 1) if v])


def _point(rng, syms) -> dict:
    return {s.serial: Fraction(rng.randint(-9, 9)) for s in syms}


_PRIMES = (7, 11, 13, 17, 19, 23, 29, 31)


def _rat_point(rng, syms) -> dict:
    """Non-integer rationals, so that x + s never vanishes for integer s."""
    return {s.serial: Fraction(rng.choice((-1, 1)) * rng.randint(1, 6), rng.choice(_PRIMES))
            for s in syms}


def _same_values(got, want_fn, points, what: str) -> None:
    for pt in points:
        v = orc.evaluate(got, orc.Rational(pt))
        w = want_fn(pt)
        claim(v == w, f"{what} at {sorted(pt.values())}", v)


# ------------------------------------------------------------ canon-expand


def _canon_expand(rng, z) -> Workload:
    items = []
    n = z["collapse_syms"]
    for idx in range(z["collapse_items"]):
        items.append(_collapse_item(rng, n, idx))
    for idx in range(z["products2"]):
        items.append(_product_item(rng, 2, z["power"], f"product2-{idx}"))
    for idx in range(z["products3"]):
        items.append(_product_item(rng, 3, z["power"], f"product3-{idx}"))
    return Workload("canon-expand", items)


def _collapse_item(rng, n: int, idx: int) -> Item:
    """(sum c_i a_i)^2, then a_k -> -(sum of c_i a_i over i != k, j) with
    c_k = 1, expanded again: collapses to c_j^2 a_j^2."""
    syms = [Symbol(f"a{i}") for i in range(n)]
    cs = rng.sample(_cycled((1, 2, 3), n), n)
    k, j = rng.sample(range(n), 2)
    cs[k] = 1
    square = power(add(*[mul(c, s) for c, s in zip(cs, syms)]), 2)
    repl = mul(-1, add(*[mul(cs[i], syms[i]) for i in range(n) if i not in (k, j)]))
    seen = {}

    def run(_):
        e = expand(square)
        seen["terms"] = len(e.pairs)
        return expand(mc.subs(e, {syms[k]: repl}))

    pts = [_point(rng, syms) for _ in range(3)]

    def check(got, text, _):
        claim(seen["terms"] == n * (n + 1) // 2, "intermediate term count", seen["terms"])
        _same_values(got, lambda pt: (cs[j] * pt[syms[j].serial]) ** 2, pts, "collapse")

    return Item(f"collapse-{idx}", {"symbols": n}, run, check)


def _planted(rng, syms, deg: int, mags, mono: int) -> tuple:
    """(l + c)^deg + m * x*y*..., l a seeded linear form in syms: the
    shape of the lw-f / lw-g gcd inputs.  Returns (unexpanded tree, dict
    polynomial)."""
    nv = len(syms)
    lin = _signed(rng, mags[: nv + 1])
    mono = _signed(rng, (mono,))[0]
    tree = add(power(add(*[mul(c, s) for c, s in zip(lin, syms)], lin[-1]), deg),
               mul(mono, *syms))
    lin_p = orc.padd({tuple(int(i == v) for i in range(nv)): Fraction(c)
                      for v, c in enumerate(lin[:-1])}, orc.const(lin[-1], nv))
    poly = orc.padd(orc.ppow(lin_p, deg, nv), {(1,) * nv: Fraction(mono)})
    return tree, poly


def _from_poly(p: dict, syms) -> Expr:
    return add(*[mul(c, *[power(s, e) for s, e in zip(syms, t)]) for t, c in p.items()])


def _product_item(rng, nv: int, deg: int, item_id: str) -> Item:
    """expand(g * u) for two planted-shape factors in two or three variables."""
    syms = [Symbol(v) for v in "xyz"[:nv]]
    (g, gp), (u, up) = _planted(rng, syms, deg, (2, 3, 4, 5), 6), _planted(rng, syms, deg, (2, 3, 4, 5), 6)
    want = orc.pmul(gp, up)
    prod = mul(g, u)
    pts = [_point(rng, syms) for _ in range(3)]

    def check(got, text, _):
        claim(type(got).__name__ == "Add" and len(got.pairs) + bool(got.coeff.val) == len(want),
              "term count", text[:200])
        _same_values(got, lambda pt: orc.peval(want, [pt[s.serial] for s in syms]),
                     pts, "product")

    return Item(item_id, {"vars": nv, "degree": 2 * deg}, lambda _: expand(prod), check)


# ------------------------------------------------------------ rational-gcd


def _rational_gcd(rng, z) -> Workload:
    items = []
    for idx in range(z["sums"]):
        items.append(_normal_sum_item(rng, z["sum_terms"], idx))
    for idx in range(z["gcds2"]):
        items.append(_gcd_item(rng, 2, z["gcd_deg2"], f"gcd2-{idx}"))
    for idx in range(z["gcds3"]):
        items.append(_gcd_item(rng, 3, z["gcd_deg3"], f"gcd3-{idx}"))
    # the heuristic gcd does not give up on such inputs, so the
    # subresultant algorithm also runs once on its own
    items.append(_gcd_item(rng, 2, z["sr_deg"], "sr-gcd2", mc.sr_gcd))
    items.append(_tridiag_item(rng, z["tridiag"]))
    for idx in range(z["charpolys"]):
        items.append(_charpoly_item(rng, z["charpoly"], idx))
    for idx in range(z["dets"]):
        items.append(_ratdet_item(rng, z["ratdet"], True, idx))
        items.append(_ratdet_item(rng, z["sparse_det"], False, idx))
    return Workload("rational-gcd", items)


def _normal_sum_item(rng, m: int, idx: int) -> Item:
    """normal(sum_i i*y*t^i / (y + w_i*t)^i), the lw-d / lw-e shape with
    the weights 1..m in a seeded order."""
    y, t = Symbol("y"), Symbol("t")
    w = rng.sample(range(1, m + 1), m)
    e = add(*[mul(i, y, power(t, i), power(add(y, mul(w[i - 1], t)), -i))
              for i in range(1, m + 1)])

    def want(pt):
        py, pv = pt[y.serial], pt[t.serial]
        return sum(Fraction(i) * py * pv**i / (py + w[i - 1] * pv) ** i for i in range(1, m + 1))

    pts = []
    while len(pts) < 2:
        pt = _rat_point(rng, (y, t))
        if all(pt[y.serial] + wi * pt[t.serial] for wi in w):
            pts.append(pt)

    def check(got, text, _):
        _same_values(got, want, pts, "normal form value")

    return Item(f"normal-sum-{idx}", {"terms": m}, lambda _: mc.normal(e), check)


def _gcd_item(rng, nv: int, deg: int, item_id: str, gcd=mc.poly_gcd) -> Item:
    """gcd(g*u, g*v) with a planted factor g, lw-f (two variables) and
    lw-g (three variables) style, seeded coefficients."""
    syms = [Symbol(v) for v in "xyz"[:nv]]

    gp, up, vp = (_planted(rng, syms, deg, (1, 2, 3, 4), 5)[1] for _ in range(3))
    ap, bp = orc.pmul(gp, up), orc.pmul(gp, vp)
    a, b = _from_poly(ap, syms), _from_poly(bp, syms)
    polys = orc.Polys([s.serial for s in syms])

    def check(got, text, _):
        got_p = orc.evaluate(got, polys)
        claim(bool(got_p), "nonzero gcd", text)
        claim(orc.pdivide(ap, got_p) is not None, "gcd divides the first input", text)
        claim(orc.pdivide(bp, got_p) is not None, "gcd divides the second input", text)
        claim(orc.pdivide(got_p, gp) is not None, "planted factor divides the gcd", text)

    return Item(item_id, {"vars": nv, "degree": 2 * deg}, lambda _: gcd(a, b), check)


def _tridiag_item(rng, n: int) -> Item:
    """Symbolic tridiagonal determinant (lw-m1) with seeded off-diagonals;
    oracle: the continuant recurrence f_k = a_k f_{k-1} - b_k c_k f_{k-2}."""
    a = [Symbol(f"a{i}") for i in range(1, n + 1)]
    up = _signed(rng, _cycled((1, 2, 3), n - 1))
    lo = _signed(rng, _cycled((1, 2, 3), n - 1))
    rows = [[a[i] if i == j else up[i] if j == i + 1 else lo[j] if i == j + 1 else 0
             for j in range(n)] for i in range(n)]
    m = mc.matrix(rows)
    polys = orc.Polys([s.serial for s in a])

    def check(got, text, _):
        before, cur = polys.one, polys.symbol(a[0])
        for k in range(1, n):
            before, cur = cur, orc.padd(orc.pmul(polys.symbol(a[k]), cur),
                                        orc.pscale(before, -up[k - 1] * lo[k - 1]))
        claim(orc.evaluate(got, polys) == cur, "continuant recurrence", text[:200])

    return Item("tridiag-det", {"n": n}, lambda _: mc.mat_det(m), check)


def _sparse_rows(rng, n: int) -> list:
    """Dominant diagonal n+i+1 plus 2n off-diagonal entries of size 1..3
    at seeded places."""
    rows = [[0] * n for _ in range(n)]
    for i in range(n):
        rows[i][i] = n + i + 1
    places = rng.sample([(i, j) for i in range(n) for j in range(n) if i != j], 2 * n)
    for (i, j), v in zip(places, _signed(rng, _cycled((1, 2, 3), 2 * n))):
        rows[i][j] = v
    return rows


def _charpoly_item(rng, n: int, idx: int) -> Item:
    """det(M - lam*I) of a seeded sparse integer matrix (lw-q)."""
    rows = _sparse_rows(rng, n)
    lam = Symbol("lam")
    m = mc.matrix(rows)
    pts = [{lam.serial: Fraction(_nonzero(rng, -99, 99), rng.randint(1, 99))} for _ in range(3)]

    def want(pt):
        r = pt[lam.serial]
        return orc.det([[rows[i][j] - (r if i == j else 0) for j in range(n)] for i in range(n)])

    def check(got, text, _):
        _same_values(got, want, pts, "charpoly value")

    return Item(f"charpoly-{idx}", {"n": n}, lambda _: mc.mat_charpoly(m, lam), check)


def _ratdet_item(rng, n: int, dense: bool, idx: int) -> Item:
    """Determinant with rational-function entries k/(x + s): dense takes
    the tree Bareiss branch, half-zero takes cofactor expansion."""
    x = Symbol("x")
    ks = _signed(rng, _cycled((1, 2, 3, 4, 5), n * n))
    shifts = rng.sample(_cycled((1, 2, 3, 4, 5, 6), n * n), n * n)
    spec = [[(ks[i * n + j], shifts[i * n + j]) for j in range(n)] for i in range(n)]
    if not dense:
        for i in range(n):
            for j in range(n):
                if (i + j) % 2:
                    spec[i][j] = None
    rows = [[0 if s is None else mul(s[0], power(add(x, s[1]), -1)) for s in row] for row in spec]
    m = mc.matrix(rows)
    pts = [_rat_point(rng, (x,)) for _ in range(2)]

    def want(pt):
        xv = pt[x.serial]
        return orc.det([[0 if s is None else Fraction(s[0]) / (xv + s[1]) for s in row]
                        for row in spec])

    def check(got, text, _):
        _same_values(got, want, pts, "determinant value")

    name = "ratdet-dense" if dense else "ratdet-sparse"
    return Item(f"{name}-{idx}", {"n": n}, lambda _: mc.mat_det(m), check)


# ------------------------------------------------------------ series-print


def _series_print(rng, z) -> Workload:
    items = [_gamma_item(z["gamma_order"])]
    for idx in range(z["rational"]):
        items.append(_rational_series_item(rng, z["order"], idx))
    for idx in range(z["algebraic"]):
        items.append(_algebraic_series_item(rng, z["order"], idx))
    return Workload("series-print", items)


def _gamma_item(order: int) -> Item:
    """series(gamma(x), x==0, order): coefficients are sums over products
    of zeta values, Euler and Pi; the printed form grows ~4x per order."""
    x = Symbol("x")
    g = mc.gamma(x)

    def check(got, text, _):
        import mpmath

        terms, got_order = orc.series_terms(got)
        claim(got_order == order, "series order", got_order)
        claim(sorted(terms) == list(range(-1, order)), "exponents", sorted(terms))
        with mpmath.workdps(40):
            mp = mpmath.mp
            ev = orc.Floats(mp)
            eu, pi2, z3 = mp.euler, mp.pi**2, mp.zeta(3)
            pinned = {-1: mp.mpf(1), 0: -eu, 1: pi2 / 12 + eu**2 / 2,
                      2: -(pi2 * eu / 12 + eu**3 / 6 + z3 / 3)}
            for k, want in pinned.items():
                v = orc.evaluate(terms[k], ev)
                claim(abs(v - want) < mp.mpf(10) ** -30, f"coefficient of x^{k}", v)

    return Item("gamma", {"order": order}, lambda _: mc.series_of(g, Eq(x, 0), order), check)


def _check_series(got, want: list, order: int, what: str) -> None:
    terms, got_order = orc.series_terms(got)
    claim(got_order == order, f"{what} order", got_order)
    for k in range(order):
        c = orc.evaluate(terms[k], orc.Rational({})) if k in terms else Fraction(0)
        claim(c == want[k], f"{what} coefficient of x^{k}", c)
    claim(all(0 <= k < order for k in terms), f"{what} exponents", sorted(terms))


def _rational_series_item(rng, order: int, idx: int) -> Item:
    """series of p(x)/q(x), cubic p and q with q(0) != 0."""
    x = Symbol("x")
    p = _signed(rng, (1, 4, 6, 9))
    q = _signed(rng, (2,)) + _signed(rng, (3, 5, 7))
    e = mul(add(*[mul(c, power(x, k)) for k, c in enumerate(p)]),
            power(add(*[mul(c, power(x, k)) for k, c in enumerate(q)]), -1))
    want = orc.taylor_quotient(p, [Fraction(c) for c in q], order)

    def check(got, text, _):
        _check_series(got, want, order, "p/q series")

    return Item(f"rational-{idx}", {"order": order, "degree": 3},
                lambda _: mc.series_of(e, Eq(x, 0), order), check)


_ROOTS = (Fraction(1, 2), Fraction(-1, 2), Fraction(1, 3), Fraction(-2, 3), Fraction(3, 2))


def _algebraic_series_item(rng, order: int, idx: int) -> Item:
    """series of (1 + a x + b x^2)^r for a rational r."""
    x = Symbol("x")
    f = [1] + _signed(rng, (2, 3))
    r = _ROOTS[idx % len(_ROOTS)]
    e = power(add(1, mul(f[1], x), mul(f[2], power(x, 2))), lift(r))
    want = orc.taylor_power([Fraction(c) for c in f], r, order)

    def check(got, text, _):
        _check_series(got, want, order, "algebraic series")

    return Item(f"algebraic-{idx}", {"order": order, "exponent": str(r)},
                lambda _: mc.series_of(e, Eq(x, 0), order), check)


# ------------------------------------------------------------ shell-session


class _Session:
    def __init__(self):
        self.shell = mc.Shell()


def _last_value(session):
    h = session.shell.history
    return h[0] if h else None


def _feed(stmt: str):
    return lambda session: session.shell.feed(stmt)


def _render_lines(lines) -> str:
    return "\n".join(lines)


def _one_line(lines) -> str:
    claim(len(lines) == 1, "one printed line", lines)
    return lines[0]


def _reparse_same(lines, text, session) -> None:
    """The printed line, parsed again in the same session, is the result."""
    line = _one_line(lines)
    claim(not line.startswith("error"), "statement succeeded", line)
    got = mc.parse(line, session.shell.symtab, ())
    claim(got.error is None and got.value == _last_value(session), "re-parsed result", line)


def _as_fraction(line: str) -> Fraction:
    try:
        return Fraction(line)
    except ValueError:
        raise Mismatch(f"not a rational number: {line!r}") from None


def _stmt(kind: str, text: str, check, sizes=None) -> tuple:
    return kind, text, check, sizes or {}


def _exact_number(want: Fraction):
    def check(lines, text, session):
        _reparse_same(lines, text, session)
        claim(_as_fraction(_one_line(lines)) == want, "exact value", lines)
    return check


def _float_near(want, digits: int):
    def check(lines, text, session):
        line = _one_line(lines)
        claim(re.fullmatch(r"-?\d+\.\d+", line) is not None, "decimal output", line)
        err = abs(Fraction(line) - want)
        claim(err <= abs(want) * Fraction(1, 10 ** (digits - 2)), f"{digits}-digit value", line)
    return check


def _error_line(lines, text, session) -> None:
    claim(_one_line(lines).startswith("error"), "error line", lines)


def _series_check(want: list, order: int):
    def check(lines, text, session):
        line = _one_line(lines)
        claim(line.endswith(f"+O(x^{order})"), "order term", line)
        _check_series(_last_value(session), want, order, "shell series")
    return check


_MALFORMED = ("(1+{a};", "expand((x+{a})^;", "[{a},2;", "subs(x^{a}, x=={a};", "1/(x-x)*{a};",
              "{a}+*x;", "gcd(x^{a});", "det([[1,{a}]]);")


def _shell_round(rng) -> list:
    """One round of statements: every statement kind once, in a fixed
    order, with seeded numbers.  % refers back to the round's own lines."""
    a, b, c, d = (_nonzero(rng, -9, 9) for _ in range(4))
    k = rng.randint(3, 5)
    p1, q1, p2, q2 = _nonzero(rng, -99, 99), rng.randint(2, 99), _nonzero(rng, -99, 99), rng.randint(2, 99)
    m = [[rng.randint(-9, 9) for _ in range(3)] for _ in range(3)]
    while orc.det(m) == 0:
        m = [[rng.randint(-9, 9) for _ in range(3)] for _ in range(3)]
    s1, s2 = rng.randint(1, 9), rng.randint(1, 9)
    e1, e2 = rng.randint(-20, 20), rng.randint(-20, 20)
    order = 6
    ser_q = [Fraction(1), Fraction(-a), Fraction(-b)]
    mstr = "[" + ",".join("[" + ",".join(map(str, r)) + "]" for r in m) + "]"
    # lsolve: s1*p + s2*q == e1, s2*p - s1*q == e2
    dd = Fraction(-s1 * s1 - s2 * s2)
    psol = Fraction(e1 * -s1 - s2 * e2) / dd
    qsol = Fraction(s1 * e2 - s2 * e1) / dd
    return [
        _stmt("arith", f"{p1}/{q1}+{p2}/{q2}*{c};",
              _exact_number(Fraction(p1, q1) + Fraction(p2, q2) * c)),
        _stmt("expand", f"expand(({a}*x+{b}*y)^{k});", _reparse_same, {"power": k}),
        _stmt("subs", f"subs(%, y=={c});", _reparse_same),
        _stmt("backref", "expand(%-%%);", _reparse_same),
        _stmt("gcd", f"gcd(expand((x+{a})*(x+{b})^2), expand((x+{a})*(x+{c})));", _reparse_same),
        _stmt("normal", f"normal((x^2-{d * d})/(x-{d}));", _reparse_same),
        _stmt("diff", f"diff(x^{k}*sin({a}*x), x);", _reparse_same),
        _stmt("series", f"series(1/(1-{a}*x-{b}*x^2), x==0, {order});",
              _series_check(orc.taylor_quotient([1], ser_q, order), order), {"order": order}),
        _stmt("det", f"det({mstr});", _exact_number(orc.det(m))),
        _stmt("lsolve", f"lsolve([{s1}*p+{s2}*q=={e1}, {s2}*p-{s1}*q=={e2}], [p,q]);",
              _lsolve_check(psol, qsol)),
        _stmt("evalf", f"evalf({p1}/{q1});", _float_near(Fraction(p1, q1), 20)),
        _stmt("evalf-pi", f"evalf(Pi*{p2}/{q2}, 30);", _pi_check(Fraction(p2, q2), 30)),
        _stmt("malformed", rng.choice(_MALFORMED).format(a=abs(a)), _error_line),
    ]


def _lsolve_check(p: Fraction, q: Fraction):
    def check(lines, text, session):
        _reparse_same(lines, text, session)
        got = _last_value(session)
        vals = [orc.evaluate(r.rhs, orc.Rational({})) for r in got.items]
        claim(vals == [p, q], "solution", lines)
    return check


def _pi_check(r: Fraction, digits: int):
    def check(lines, text, session):
        import mpmath

        with mpmath.workdps(60):
            v = mpmath.mp.pi * r.numerator / r.denominator
            want = Fraction(mpmath.nstr(v, 55))
        _float_near(want, digits)(lines, text, session)
    return check


def _shell_session(rng, z) -> Workload:
    items = []
    for rnd in range(z["rounds"]):
        for kind, text, check, sizes in _shell_round(rng):
            is_error = kind == "malformed"
            items.append(Item(
                f"r{rnd}-{kind}", {"chars": len(text), **sizes}, _feed(text), check,
                render=_render_lines,
                root=(lambda lines, s: None) if is_error else (lambda lines, s: _last_value(s)),
            ))
    return Workload("shell-session", items, _Session)


_WORKLOADS = {
    "canon-expand": _canon_expand,
    "rational-gcd": _rational_gcd,
    "series-print": _series_print,
    "shell-session": _shell_session,
}
