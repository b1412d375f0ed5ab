"""Shell-facing expression parser.

A small tokenizer feeds a Pratt parser.  Identifiers resolve through a
per-session symbol table (unknown names become fresh symbols on first
use, so within one session a name always denotes the same symbol).
Registered function names build FunctionApp nodes.  Shell commands
(expand, diff, series, subs, ...) are evaluated eagerly, which lets
them compose inside larger expressions just like ordinary calls.

Every syntax error carries a 1-based character position.  Semantic
failures inside an eagerly evaluated command (a singular matrix, a
pole, division by zero) are not syntax errors and propagate as the
library exceptions they are.
"""

from __future__ import annotations

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


@dataclass(frozen=True)
class _Token:
    kind: str  # num | name | op | end
    text: str
    pos: int  # 1-based offset of the first character


_TWO_CHAR = ("==", "!=", "<=", ">=")
_ONE_CHAR = set("+-*/^()[],;<>=")


def _tokenize(text: str) -> list[_Token]:
    toks = []
    i = 0
    n = len(text)
    while i < n:
        c = text[i]
        if c.isspace():
            i += 1
            continue
        start = i
        if c.isdigit():
            while i < n and text[i].isdigit():
                i += 1
            isdec = False
            if i < n and text[i] == "." and i + 1 < n and text[i + 1].isdigit():
                isdec = True
                i += 1
                while i < n and text[i].isdigit():
                    i += 1
            if i < n and text[i] in "eE":
                j = i + 1
                if j < n and text[j] in "+-":
                    j += 1
                if j < n and text[j].isdigit():
                    isdec = True
                    i = j
                    while i < n and text[i].isdigit():
                        i += 1
            toks.append(_Token("num" if not isdec else "dec", text[start:i], start + 1))
            continue
        if c.isalpha() or c == "_":
            while i < n and (text[i].isalnum() or text[i] == "_"):
                i += 1
            toks.append(_Token("name", text[start:i], start + 1))
            continue
        if c == "%":
            while i < n and text[i] == "%" and i - start < 3:
                i += 1
            toks.append(_Token("op", text[start:i], start + 1))
            continue
        if text[i : i + 2] in _TWO_CHAR:
            toks.append(_Token("op", text[i : i + 2], start + 1))
            i += 2
            continue
        if c in _ONE_CHAR:
            toks.append(_Token("op", c, start + 1))
            i += 1
            continue
        raise ParseError(f"unexpected character {c!r}", start + 1)
    toks.append(_Token("end", "", n + 1))
    return toks


def _describe(tok: _Token) -> str:
    if tok.kind == "end":
        return "end of input"
    return repr(tok.text)


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
    if toks[0].kind == "end":
        raise ParseError("empty statement", toks[0].pos)
    if toks[0].kind == "name" and toks[0].text == "quit":
        rest = toks[1]
        if rest.kind == "end" or (rest.text == ";" and toks[2].kind == "end"):
            return _QUIT
    p = _Parser(toks, symtab, history)
    e = p.expression(0)
    tok = p.peek()
    if tok.kind == "op" and tok.text == ";":
        p.advance()
        tok = p.peek()
    if tok.kind != "end":
        raise ParseError(f"unexpected {_describe(tok)}", tok.pos)
    return e


class _Parser:
    def __init__(self, toks: list[_Token], symtab: dict, history):
        self.toks = toks
        self.i = 0
        self.symtab = symtab
        self.history = history

    def peek(self) -> _Token:
        return self.toks[self.i]

    def advance(self) -> _Token:
        tok = self.toks[self.i]
        if tok.kind != "end":
            self.i += 1
        return tok

    def at(self, text: str) -> bool:
        tok = self.peek()
        return tok.kind == "op" and tok.text == text

    def expect(self, text: str) -> None:
        tok = self.peek()
        if tok.kind != "op" or tok.text != text:
            raise ParseError(f"expected {text!r}, found {_describe(tok)}", tok.pos)
        self.advance()

    # -- Pratt loop ---------------------------------------------------

    def expression(self, min_bp: int) -> Expr:
        left = self.prefix(self.advance())
        while True:
            tok = self.peek()
            bp = _LBP.get(tok.text, 0) if tok.kind == "op" else 0
            if bp <= min_bp:
                return left
            self.advance()
            left = self.infix(tok, left)

    def prefix(self, tok: _Token) -> Expr:
        if tok.kind == "num":
            return lift(decimal_to_int(tok.text))
        if tok.kind == "dec":
            return Numeric(from_decimal(tok.text))
        if tok.kind == "name":
            if self.at("("):
                return self.call(tok)
            got = _CONSTANTS.get(tok.text)
            if got is not None:
                return got
            if tok.text == "quit":
                raise ParseError("quit is a command, not an expression", tok.pos)
            sym = self.symtab.get(tok.text)
            if sym is None:
                sym = Symbol(tok.text)
                self.symtab[tok.text] = sym
            return sym
        if tok.kind == "op":
            if tok.text in ("%", "%%", "%%%"):
                back = len(tok.text) - 1
                if back >= len(self.history):
                    raise ParseError(f"no history entry for {tok.text}", tok.pos)
                return self.history[back]
            if tok.text == "(":
                e = self.expression(0)
                self.expect(")")
                return e
            if tok.text == "[":
                return self.bracket()
            if tok.text == "-":
                return mul(-1, self.expression(_BP_PREFIX))
            if tok.text == "+":
                return self.expression(_BP_PREFIX)
        raise ParseError(f"unexpected {_describe(tok)}", tok.pos)

    def infix(self, tok: _Token, left: Expr) -> Expr:
        op = tok.text
        if op in _REL_OPS:
            if isinstance(left, Relational):
                raise ParseError("relations do not chain", tok.pos)
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

    def bracket(self) -> Expr:
        items = []
        if not self.at("]"):
            while True:
                items.append(self.expression(0))
                if self.at(","):
                    self.advance()
                    continue
                break
        self.expect("]")
        if (
            items
            and all(isinstance(x, ExprList) for x in items)
            and len({len(x.items) for x in items}) == 1
            and len(items[0].items) > 0
        ):
            w = len(items[0].items)
            return MatrixNode(len(items), w, [e for row in items for e in row.items])
        return ExprList(items)

    def call(self, name_tok: _Token) -> Expr:
        self.advance()  # past '('
        args: list[Expr] = []
        if not self.at(")"):
            while True:
                args.append(self.expression(0))
                if self.at(","):
                    self.advance()
                    continue
                break
        self.expect(")")
        name = name_tok.text
        builtin = _BUILTINS.get(name)
        if builtin is not None:
            lo, hi, fn = builtin
            if not lo <= len(args) <= hi:
                want = str(lo) if lo == hi else f"{lo} to {hi}"
                raise ParseError(
                    f"{name} takes {want} argument(s), not {len(args)}", name_tok.pos
                )
            return fn(args, name_tok.pos)
        try:
            fdef = fn_lookup(name, len(args))
        except DomainError as err:
            raise ParseError(str(err), name_tok.pos) from None
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
