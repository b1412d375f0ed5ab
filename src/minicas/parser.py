"""Shell-facing expression parser.

One compiled pattern (_TOKEN) scans a statement into (kind, text, pos)
tuples, pos 1-based, for a Pratt parser.  The kinds are num (decimal
digits), dec (digits with a fraction or an exponent: 2.5, 1e3, 2.5E-2),
name, end (past the last character, with empty text) and, for an
operator, its own text: + - * / ^ ( ) [ ] , ; = == != < <= > >= % %% %%%.
Whitespace is str.isspace and digits are the decimal digits
(str.isdecimal), so '٣' reads as 3.  A name is a letter (str.isalpha) or
'_' followed by str.isalnum characters or '_', so 'é' and 'x²' are
names; any other character, '²' or '½' included, is unexpected where a
token starts.

Identifiers resolve through a per-session symbol table (unknown names
become fresh symbols on first use, so within one session a name always
denotes the same symbol).  Registered function names build FunctionApp
nodes.  Shell commands (expand, diff, series, subs, ...) are evaluated
eagerly, which lets them compose inside larger expressions just like
ordinary calls.

Every syntax error carries a 1-based character position.  Semantic
failures inside an eagerly evaluated command (a singular matrix, a
pole, division by zero) are not syntax errors and propagate as the
library exceptions they are.
"""

from __future__ import annotations

import re
from dataclasses import dataclass

from .errors import DomainError, ParseError
from .expr import (
    Catalan,
    Euler,
    Expr,
    ExprList,
    I,
    MatrixNode,
    Numeric,
    Pi,
    Relational,
    Symbol,
    add,
    apply_function,
    diff,
    evalf,
    expand,
    lift,
    mul,
    power,
    rel,
    sqrt,
    subs,
    to_string,
)
from .functions import fn_lookup
from .matrices import mat_charpoly, mat_det, mat_inverse, solve_linear
from .numbers import decimal_to_int, from_decimal
from .poly import coeff, collect, degree, lcm, normal, poly_gcd
from .series import series_of

__all__ = ["ParsedInput", "Command", "parse", "parse_expr"]


class Command:
    """A shell directive rather than an expression; only quit for now."""

    __slots__ = ("name",)

    def __init__(self, name: str):
        self.name = name

    def __repr__(self):
        return f"Command({self.name})"


_QUIT = Command("quit")


@dataclass(frozen=True)
class ParsedInput:
    """One parsed statement: the source text and either a value (an
    Expr, or a Command) or the syntax error that stopped the parse."""

    source: str
    value: object | None
    error: ParseError | None = None


def parse(text: str, symtab: dict | None = None, history=()) -> ParsedInput:
    """Parse a single statement (optional trailing ';').

    symtab maps names to symbols and is extended in place as new names
    appear; history is the back-reference ring, most recent first.
    """
    try:
        value = _parse_statement(text, symtab if symtab is not None else {}, history)
    except ParseError as err:
        return ParsedInput(text, None, err)
    return ParsedInput(text, value, None)


def parse_expr(text: str, symtab: dict | None = None, history=()) -> Expr:
    """Like parse() but raising, and refusing non-expression input."""
    got = parse(text, symtab, history)
    if got.error is not None:
        raise got.error
    if not isinstance(got.value, Expr):
        raise ParseError("expected an expression", 1)
    return got.value


# ---------------------------------------------------------------- tokens

# \s, \w and \d are exactly str.isspace, str.isalnum or '_', and
# str.isdecimal.  re has no class for str.isalpha, so a name may start at
# '²' or '½' here, and _tokenize refuses it.
_TOKEN = re.compile(
    r"""\s+
    | (?P<dec>\d+(?:\.\d+(?:[eE][+-]?\d+)?|[eE][+-]?\d+))
    | (?P<num>\d+)
    | (?P<name>[^\W\d]\w*)
    | (?P<op>%{1,3}|[=!<>]=|[-+*/^()\[\],;<>=])
    | (?P<bad>.)""",
    re.VERBOSE | re.DOTALL,
)


def _tokenize(text: str) -> list[tuple[str, str, int]]:
    toks = []
    for m in _TOKEN.finditer(text):
        kind = m.lastgroup
        if kind is None:
            continue  # whitespace
        word = m.group()
        if kind == "op":
            kind = word
        elif kind == "bad" or (kind == "name" and not (word[0].isalpha() or word[0] == "_")):
            raise ParseError(f"unexpected character {word[0]!r}", m.start() + 1)
        toks.append((kind, word, m.start() + 1))
    toks.append(("end", "", len(text) + 1))
    return toks


def _describe(tok: tuple) -> str:
    return "end of input" if tok[0] == "end" else repr(tok[1])


# ---------------------------------------------------------------- grammar

_REL_OPS = frozenset(("==", "!=", "<", "<=", ">", ">="))
_BP_REL = 5
_BP_ADD = 10
_BP_MUL = 20
_BP_PREFIX = 25
_BP_POW = 30
_LBP = {op: _BP_REL for op in _REL_OPS}
_LBP.update({"+": _BP_ADD, "-": _BP_ADD, "*": _BP_MUL, "/": _BP_MUL, "^": _BP_POW})

_CONSTANTS = {"Pi": Pi, "Euler": Euler, "Catalan": Catalan, "I": I}


def _parse_statement(text: str, symtab: dict, history) -> object:
    toks = _tokenize(text)
    if toks[0][0] == "end":
        raise ParseError("empty statement", toks[0][2])
    # only a name spells quit, and only the end token has empty text
    if [t[1] for t in toks[:3]] in (["quit", ""], ["quit", ";", ""]):
        return _QUIT
    p = _Parser(toks, symtab, history)
    e = p.expression(0)
    if p.at(";"):
        p.advance()
    tok = p.peek()
    if tok[0] != "end":
        raise ParseError(f"unexpected {_describe(tok)}", tok[2])
    return e


class _Parser:
    def __init__(self, toks: list, symtab: dict, history):
        self.toks = toks
        self.i = 0
        self.symtab = symtab
        self.history = history

    def peek(self) -> tuple:
        return self.toks[self.i]

    def advance(self) -> tuple:
        tok = self.toks[self.i]
        if tok[0] != "end":
            self.i += 1
        return tok

    def at(self, kind: str) -> bool:
        return self.toks[self.i][0] == kind

    def expect(self, kind: str) -> None:
        tok = self.peek()
        if tok[0] != kind:
            raise ParseError(f"expected {kind!r}, found {_describe(tok)}", tok[2])
        self.advance()

    # -- Pratt loop ---------------------------------------------------

    def expression(self, min_bp: int) -> Expr:
        left = self.prefix(self.advance())
        while True:
            tok = self.peek()
            if _LBP.get(tok[0], 0) <= min_bp:
                return left
            self.advance()
            left = self.infix(tok, left)

    def prefix(self, tok: tuple) -> Expr:
        kind, text, pos = tok
        if kind == "num":
            return lift(decimal_to_int(text))
        if kind == "dec":
            return Numeric(from_decimal(text))
        if kind == "name":
            if self.at("("):
                return self.call(tok)
            got = _CONSTANTS.get(text)
            if got is not None:
                return got
            if text == "quit":
                raise ParseError("quit is a command, not an expression", pos)
            sym = self.symtab.get(text)
            if sym is None:
                sym = Symbol(text)
                self.symtab[text] = sym
            return sym
        if kind in ("%", "%%", "%%%"):
            back = len(text) - 1
            if back >= len(self.history):
                raise ParseError(f"no history entry for {text}", pos)
            return self.history[back]
        if kind == "(":
            e = self.expression(0)
            self.expect(")")
            return e
        if kind == "[":
            return self.bracket()
        if kind == "-":
            return mul(-1, self.expression(_BP_PREFIX))
        if kind == "+":
            return self.expression(_BP_PREFIX)
        raise ParseError(f"unexpected {_describe(tok)}", pos)

    def infix(self, tok: tuple, left: Expr) -> Expr:
        op = tok[0]
        if op in _REL_OPS:
            if isinstance(left, Relational):
                raise ParseError("relations do not chain", tok[2])
            return rel(left, op, self.expression(_BP_REL))
        if op == "+":
            return add(left, self.expression(_BP_ADD))
        if op == "-":
            return add(left, mul(-1, self.expression(_BP_ADD)))
        if op == "*":
            return mul(left, self.expression(_BP_MUL))
        if op == "/":
            return mul(left, power(self.expression(_BP_MUL), -1))
        # right-associative power
        return power(left, self.expression(_BP_POW - 1))

    # -- composite forms ----------------------------------------------

    def items(self, close: str) -> list[Expr]:
        """Comma-separated expressions up to and past close."""
        items = []
        if not self.at(close):
            items.append(self.expression(0))
            while self.at(","):
                self.advance()
                items.append(self.expression(0))
        self.expect(close)
        return items

    def bracket(self) -> Expr:
        items = self.items("]")
        if (
            items
            and all(isinstance(x, ExprList) for x in items)
            and len({len(x.items) for x in items}) == 1
            and len(items[0].items) > 0
        ):
            w = len(items[0].items)
            return MatrixNode(len(items), w, [e for row in items for e in row.items])
        return ExprList(items)

    def call(self, name_tok: tuple) -> Expr:
        self.advance()  # past '('
        args = self.items(")")
        _, name, pos = name_tok
        builtin = _BUILTINS.get(name)
        if builtin is not None:
            lo, hi, fn = builtin
            if not lo <= len(args) <= hi:
                want = str(lo) if lo == hi else f"{lo} to {hi}"
                raise ParseError(f"{name} takes {want} argument(s), not {len(args)}", pos)
            return fn(args, pos)
        try:
            fdef = fn_lookup(name, len(args))
        except DomainError as err:
            raise ParseError(str(err), pos) from None
        return apply_function(fdef, args)


# ---------------------------------------------------------------- builtins


def _sym_arg(e: Expr, pos: int, who: str) -> Symbol:
    if type(e) is not Symbol:
        raise ParseError(f"{who} wants a symbol, got {to_string(e)}", pos)
    return e


def _int_arg(e: Expr, pos: int, who: str) -> int:
    if type(e) is Numeric and e.value.is_integer():
        return e.value.val
    raise ParseError(f"{who} wants an integer, got {to_string(e)}", pos)


def _listish(e: Expr) -> list[Expr]:
    return list(e.items) if isinstance(e, ExprList) else [e]


def _c_evalf(args, pos):
    if len(args) == 2:
        return evalf(args[0], _int_arg(args[1], pos, "evalf precision"))
    return evalf(args[0])


def _c_diff(args, pos):
    x = _sym_arg(args[1], pos, "diff")
    n = _int_arg(args[2], pos, "diff order") if len(args) == 3 else 1
    return diff(args[0], x, n)


def _c_series(args, pos):
    return series_of(args[0], args[1], _int_arg(args[2], pos, "series order"))


def _c_coeff(args, pos):
    return coeff(args[0], _sym_arg(args[1], pos, "coeff"), _int_arg(args[2], pos, "coeff"))


_BUILTINS = {
    "expand": (1, 1, lambda a, p: expand(a[0])),
    "normal": (1, 1, lambda a, p: normal(a[0])),
    "collect": (2, 2, lambda a, p: collect(a[0], _sym_arg(a[1], p, "collect"))),
    "degree": (2, 2, lambda a, p: lift(degree(a[0], _sym_arg(a[1], p, "degree")))),
    "coeff": (3, 3, _c_coeff),
    "diff": (2, 3, _c_diff),
    "series": (3, 3, _c_series),
    "subs": (2, 2, lambda a, p: subs(a[0], _listish(a[1]))),
    "evalf": (1, 2, _c_evalf),
    "gcd": (2, 2, lambda a, p: poly_gcd(a[0], a[1])),
    "lcm": (2, 2, lambda a, p: lcm(a[0], a[1])),
    "lsolve": (2, 2, lambda a, p: solve_linear(_listish(a[0]), _listish(a[1]))),
    "det": (1, 1, lambda a, p: mat_det(a[0])),
    "inverse": (1, 1, lambda a, p: mat_inverse(a[0])),
    "charpoly": (2, 2, lambda a, p: mat_charpoly(a[0], _sym_arg(a[1], p, "charpoly"))),
    "sqrt": (1, 1, lambda a, p: sqrt(a[0])),
}
