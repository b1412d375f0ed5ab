"""Interactive shell: read, parse, print, remember.

Statements end with ';'.  Input is buffered until a terminator arrives,
so an expression may span lines.  Each printed result is pushed onto
the back-reference ring addressed by %, %% and %%% (most recent first).
Names auto-create symbols in the session table on first use, so within
one session the same spelling is the same symbol.  Errors print and the
session continues, as does a statement stopped by Ctrl-C; quit (with or
without ';') ends it.
"""

from __future__ import annotations

import sys

from .expr import Expr, to_string
from .parser import Command, parse

__all__ = ["Shell", "repl", "run_script"]

_RING = 3


class Shell:
    """Session state plus the statement executor.

    feed() accepts raw input in arbitrary chunks and returns the lines
    to print; finish() flushes whatever is still buffered at EOF.
    """

    def __init__(self):
        self.symtab: dict = {}
        self.history: list[Expr] = []
        self.buffer = ""
        self.done = False

    def execute(self, statement: str) -> str | None:
        """Run one statement (no terminator); the printed line or None."""
        if not statement.strip():
            return None
        try:
            got = parse(statement, self.symtab, self.history)
            if got.error is not None:
                return str(got.error)
            if isinstance(got.value, Command):
                self.done = True
                return None
            out = got.value
            line = to_string(out)
        except (ValueError, ArithmeticError) as err:
            return f"error: {err}"
        except RecursionError:
            return "error: expression nested too deeply"
        except KeyboardInterrupt:
            return "error: interrupted"
        # only a result that printed becomes a back-reference
        self.history.insert(0, out)
        del self.history[_RING:]
        return line

    def feed(self, chunk: str) -> list[str]:
        printed = []
        self.buffer += chunk
        while not self.done and ";" in self.buffer:
            statement, self.buffer = self.buffer.split(";", 1)
            line = self.execute(statement)
            if line is not None:
                printed.append(line)
        if self.buffer.strip() == "quit":
            self.buffer = ""
            self.done = True
        return printed

    def finish(self) -> list[str]:
        statement, self.buffer = self.buffer, ""
        line = self.execute(statement)
        return [line] if line is not None else []


def repl(infile=None, outfile=None, prompt: bool = True) -> int:
    """Loop over infile until quit or EOF; returns the exit code."""
    infile = sys.stdin if infile is None else infile
    outfile = sys.stdout if outfile is None else outfile
    sh = Shell()
    while not sh.done:
        if prompt:
            outfile.write("> ")
            outfile.flush()
        line = infile.readline()
        if line == "":
            break
        for printed in sh.feed(line):
            outfile.write(printed + "\n")
    if not sh.done:
        for printed in sh.finish():
            outfile.write(printed + "\n")
    if prompt:
        outfile.write("\n")
    return 0


def run_script(path: str, outfile=None) -> int:
    """Replay a script file without prompts (deterministic transcript)."""
    with open(path, "r", encoding="utf-8") as f:
        return repl(f, outfile, prompt=False)
