"""Parser tests.

The round-trip suite is the main property: expressions drawn from a
small grammar pool print through to_string and must reparse (against
the same session symbol table) to a cmp-equal tree.  The rest pins the
grammar corners: precedence and associativity, matrix versus list
literals, eager commands, history tokens, and 1-based error positions.
"""

import functools
import random
from fractions import Fraction

import pytest

from minicas.errors import ParseError
from minicas.expr import (
    Catalan,
    Eq,
    ExprList,
    I,
    MatrixNode,
    Pi,
    Relational,
    Symbol,
    add,
    expand,
    lift,
    mul,
    power,
    sqrt,
    to_string,
)
from minicas.functions import cos, exp, gamma, log, sin
from minicas.parser import Command, ParsedInput, parse, parse_expr

# ---------------------------------------------------------------- helpers


def roundtrip(e, tab):
    return parse_expr(to_string(e), tab)


def err_pos(text):
    got = parse(text)
    assert got.error is not None, f"parsed {text!r} unexpectedly"
    return got.error.position


# ---------------------------------------------------------------- grammar


def test_literals_and_rationals():
    tab = {}
    assert parse_expr("42", tab) == lift(42)
    # [TRIVIAL] exact rational arithmetic straight from the grammar
    assert parse_expr("1/2+1/3", tab) == lift(Fraction(5, 6))
    assert parse_expr("2.5", tab) == lift(2.5)
    assert parse_expr("1.5e2", tab) == lift(150.0)
    assert parse_expr("Pi", tab) == Pi
    assert parse_expr("Catalan", tab) == Catalan
    assert parse_expr("I^2", tab) == lift(-1)


def test_precedence_and_associativity():
    tab = {}
    x = parse_expr("x", tab)
    y = parse_expr("y", tab)
    assert parse_expr("x+y*x", tab) == add(x, mul(y, x))
    assert parse_expr("(x+y)*x", tab) == mul(add(x, y), x)
    # right-associative power, unary minus below it
    assert parse_expr("x^2^3", tab) == power(x, 8)
    assert parse_expr("-x^2", tab) == mul(-1, power(x, 2))
    assert parse_expr("(-x)^2", tab) == power(x, 2)
    assert parse_expr("x-y-x", tab) == mul(-1, y)
    assert parse_expr("x/y/x", tab) == power(y, -1)
    assert parse_expr("x^(-1)", tab) == power(x, -1)


def test_session_symbol_identity():
    tab = {}
    first = parse_expr("q+q", tab)
    second = parse_expr("2*q", tab)
    assert first == second
    # a different table means a different symbol
    other = parse_expr("q", {})
    assert other != tab["q"]


def test_paper_tokens():
    tab = {}
    # [PAPER] a coefficient term of H11 and the deferred sin evaluation
    z = parse_expr("z", tab)
    assert parse_expr("2048*z^11", tab) == mul(2048, power(z, 11))
    assert parse_expr("sin(23/2*Pi)", tab) == lift(-1)


def test_relations_lists_matrices():
    tab = {}
    x, y = parse_expr("x", tab), parse_expr("y", tab)
    got = parse_expr("x==y+1", tab)
    assert isinstance(got, Relational) and got.op == "=="
    assert parse_expr("[x, y, 3]", tab) == ExprList([x, y, lift(3)])
    m = parse_expr("[[1,2],[3,4]]", tab)
    assert isinstance(m, MatrixNode) and (m.rows, m.cols) == (2, 2)
    # ragged rows stay a plain list of lists
    ragged = parse_expr("[[1,2],[3]]", tab)
    assert isinstance(ragged, ExprList)
    assert parse_expr("[]", tab) == ExprList([])
    with pytest.raises(ParseError):
        parse_expr("x==y==3", tab)


def test_commands_compose():
    tab = {}
    x = parse_expr("x", tab)
    assert parse_expr("expand((x+1)^2)", tab) == expand(power(add(x, 1), 2))
    assert parse_expr("1+diff(sin(x), x)", tab) == add(1, cos(x))
    assert parse_expr("degree((x+1)^4, x)", tab) == lift(4)
    assert parse_expr("coeff((x+1)^4, x, 2)", tab) == lift(6)
    assert parse_expr("subs(x^2, x==3)", tab) == lift(9)
    assert parse_expr("gcd(4, 6)", tab) == lift(2)
    assert parse_expr("sqrt(x)", tab) == sqrt(x)
    assert parse_expr("det([[1,2],[3,4]])", tab) == lift(-2)
    sol = parse_expr("lsolve([x+y==3, x-y==1], [x, y])", tab)
    assert list(sol) == [Eq(tab["x"], 2), Eq(tab["y"], 1)]


def test_history_tokens():
    tab = {}
    hist = [lift(7), lift(5), lift(3)]
    assert parse_expr("%+1", tab, hist) == lift(8)
    assert parse_expr("%%-%%%", tab, hist) == lift(2)
    got = parse("%", tab, [])
    assert got.error is not None and got.error.position == 1


def test_error_positions():
    # [TRIVIAL] dangling operator reports the position past the input
    assert err_pos("x +") == 4
    assert err_pos("") == 1
    assert err_pos("(x+1") == 5
    assert err_pos("x + * y") == 5
    assert err_pos("f(") == 3
    assert err_pos("1 @ 2") == 3
    assert err_pos("sin(x, y)") == 1
    assert err_pos("nosuchfn(3)") == 1
    assert err_pos("degree(x, 3)") == 1
    assert err_pos("x; y") == 4
    assert err_pos("quit+1") == 1


def test_parse_wrapping():
    got = parse("x +")
    assert isinstance(got, ParsedInput)
    assert got.value is None and got.error is not None
    assert "position 4" in str(got.error)
    good = parse("1+1")
    assert good.error is None and good.value == lift(2)
    q = parse("quit;")
    assert isinstance(q.value, Command) and q.value.name == "quit"


# ---------------------------------------------------------------- round trip


def rand_expr(rng, tab, depth, scalar=False):
    """Draw from the printable grammar pool.

    Atoms stay exact: symbols, integers, rationals, constants, and
    Gaussian-integer multiples of I.  Floats are excluded because an
    inexact value printed at working precision does not always reparse
    to the same last bit (decimal/binary double rounding); dyadic float
    literals are round-tripped separately in test_literals.  Lists and
    matrices appear only at the top level with scalar entries, mirroring
    how the bracket syntax groups on input.
    """
    atoms = ["x", "y", "z", "w"]
    if depth <= 0 or rng.random() < 0.3:
        pick = rng.randrange(5)
        if pick == 0:
            return parse_expr(rng.choice(atoms), tab)
        if pick == 1:
            return lift(rng.randint(-9, 9))
        if pick == 2:
            return lift(Fraction(rng.randint(-9, 9), rng.randint(1, 9)))
        if pick == 3:
            return rng.choice([Pi, Catalan])
        return mul(rng.randint(1, 5), I)
    pick = rng.randrange(5 if scalar else 7)
    if pick == 0:
        return add(
            *[rand_expr(rng, tab, depth - 1, True) for _ in range(rng.randint(2, 4))]
        )
    if pick == 1:
        # left-associated like the parser builds it; the n-ary form can
        # keep a numeric coefficient on a lone sum that binary evaluation
        # would have distributed, and that form never comes out of parse
        factors = [rand_expr(rng, tab, depth - 1, True) for _ in range(rng.randint(2, 3))]
        return functools.reduce(mul, factors)
    if pick == 2:
        n = rng.randint(-3, 4)
        try:
            return power(rand_expr(rng, tab, depth - 1, True), n)
        except ArithmeticError:  # drew a zero base with n < 0
            return power(parse_expr(rng.choice(atoms), tab), n)
    if pick == 3:
        base = parse_expr(rng.choice(atoms), tab)
        return power(base, Fraction(rng.randint(1, 5), rng.choice([2, 3])))
    if pick == 4:
        f = rng.choice([sin, cos, exp, log, gamma])
        arg = rand_expr(rng, tab, depth - 1, True)
        try:
            return f(arg)
        except ArithmeticError:  # a pole (gamma at -3, log 0): redraw on a symbol
            return f(parse_expr(rng.choice(atoms), tab))
    if pick == 5:
        return ExprList(
            [rand_expr(rng, tab, depth - 1, True) for _ in range(rng.randint(1, 3))]
        )
    rows, cols = rng.randint(1, 3), rng.randint(1, 3)
    return MatrixNode(
        rows,
        cols,
        [rand_expr(rng, tab, depth - 1, True) for _ in range(rows * cols)],
    )


def test_roundtrip_500():
    # parse -> to_string -> parse must land on a cmp-equal tree.  The
    # first parse matters: constructors can reach canonical forms the
    # grammar cannot denote (a numeric coefficient kept on a product of
    # bare sums gets distributed when rebuilt factor by factor), so the
    # law is stated on parser output, as any reader of a printed
    # expression would consume it.
    rng = random.Random(202608)
    tab = {}
    for _ in range(500):
        drawn = rand_expr(rng, tab, 3)
        e = parse_expr(to_string(drawn), tab)
        assert roundtrip(e, tab) == e, to_string(drawn)


def test_random_token_streams_never_escape_the_shell():
    # every statement of a random token stream either prints a result or
    # an error line; none raises out of Shell.feed
    from minicas.shell import Shell

    rng = random.Random(6120)
    pools = [
        ["x", "y", "z", "Pi", "I", "sin", "exp", "sqrt", "expand", "normal", "gcd",
         "lcm", "diff", "series", "subs", "evalf", "coeff", "degree", "det", "lsolve"],
        ["0", "1", "2", "7", "12", "3.5", "1e3", "2.5E-2", "9" * 700],
        ["+", "-", "*", "/", "^", "==", "!=", "<", "<=", ">", ">=", "=", ",", "!", ".", ":", "$"],
        ["(", ")", "(", ")", "[", "]", "{", "}"],
        [";", ";", "%", "%%", "%%%"],
    ]
    statements = 0
    for _ in range(300):
        sh = Shell()
        toks = [rng.choice(rng.choice(pools)) for _ in range(rng.randint(1, 24))]
        sep = rng.choice([" ", ""])
        text = sep.join(toks) + ";"
        statements += text.count(";")
        lines = sh.feed(text) + sh.finish()
        assert isinstance(lines, list), text
        assert all(type(line) is str for line in lines), text
    assert statements > 400
