"""Shell session behavior: buffering, the ring, transcripts.

The session examples are checked against printed strings because the
shell's contract is textual.  Expected lines marked [PAPER] reproduce
the interactive session shown in the paper's walk-through; [TRIVIAL]
lines are immediate arithmetic.  Transcript determinism is asserted by
running the same script twice and comparing bytes.
"""

import _thread
import io
import math
import threading
import time

import pytest

from minicas.errors import DomainError
from minicas.expr import add, mul, power, symbols
from minicas.numbers import _float_digits
from minicas.poly import content_primpart, exact_quotient
from minicas.shell import Shell, repl, run_script


def feed_lines(lines):
    """Drive a fresh shell line by line, collecting printed output."""
    sh = Shell()
    printed = []
    for line in lines:
        printed.extend(sh.feed(line + "\n"))
    printed.extend(sh.finish())
    return printed, sh


def test_sin_substitution_session():
    # [PAPER] the four-step sin example: build, substitute y, then x,
    # then evaluate numerically; sin picks the exact value at the
    # half-period and evalf only converts the integer.
    printed, _ = feed_lines(
        [
            "sin(Pi*(x+1/2*y));",
            "subs(%, y==1);",
            "subs(%, x==11);",
            "evalf(subs(%%, x==11));",
        ]
    )
    assert printed == [
        "sin(Pi*(x+1/2*y))",
        "sin(Pi*(1/2+x))",
        "-1",
        "-1.0",
    ]


def test_relativity_series():
    # [PAPER] the special-relativity kinetic factor expanded at v=0
    printed, _ = feed_lines(["series(1/sqrt(1-v^2/c^2), v==0, 6);"])
    assert printed == ["1+1/2*c^(-2)*v^2+3/8*c^(-4)*v^4+O(v^6)"]


def test_fraction_arithmetic_and_ring():
    # [TRIVIAL] 1/2+1/3 = 5/6 and x-x = 0 through the back-reference
    printed, _ = feed_lines(["1/2+1/3;", "%-%;"])
    assert printed == ["5/6", "0"]


def test_ring_depth_three():
    # [DERIVED] after results 2, 6, 7 the ring reads 7, 6, 2; a fourth
    # result pushes the oldest out
    printed, sh = feed_lines(["1+1;", "2*3;", "10-3;", "%%%;"])
    assert printed == ["2", "6", "7", "2"]
    assert sh.execute("%%%") == "6"


def test_errors_keep_session_alive():
    deep_calls = "sin(" * 400 + "x" + ")" * 400 + ";"
    deep_parens = "(" * 5000 + "x" + ")" * 5000 + ";"
    bad_subs = ["subs(x, 1);", "subs(x,[x]);", "subs(1,[[1,2],[3,4]]);"]
    printed, sh = feed_lines(
        [
            "1/0;", "sin(;", "2+2;", deep_calls, "3+3;", deep_parens, "%+1;",
            "2^(10^10);", "%;", *bad_subs, "%;",
        ]
    )
    # the second statement starts with the newline left over from the
    # first line, so the reported position is one past "sin("
    assert printed == [
        "error: zero to a negative power",
        "error at position 6: unexpected end of input",
        "4",
        "error: expression nested too deeply",
        "6",
        "error: expression nested too deeply",
        "7",
        # refused before a 1.25 GB integer is built
        "error: exact power too large: up to 20000000000 bits",
        "7",
        *["error: a substitution is a relation 'symbol == value' or a (symbol, value) pair"] * 3,
        "7",
    ]
    assert not sh.done


def test_a_sum_that_expands_to_zero_is_not_a_denominator():
    printed, _ = feed_lines(
        ["normal(1/((x+1)^2-x^2-2*x-1));", "inverse([[0, (x+1)^2-x^2-2*x-1], [0, 1]]);"]
    )
    assert printed == ["error: zero denominator after cancellation", "error: matrix is singular"]


def test_a_zero_denominator_in_a_determinant_is_an_error_line():
    printed, _ = feed_lines(["det([[1/((x+1)^2-x^2-2*x-1), 1],[0,1]]);", "det([[1/(x-x)]]);"])
    assert printed == ["error: zero to a negative power", "error: zero to a negative power"]


def test_a_sum_under_a_negative_power_is_not_a_gcd_argument():
    # one wording for one refusal, whether the sum is the argument or a
    # factor of it
    printed, _ = feed_lines(["gcd(1/(x+1), x);", "gcd(3/(x+2), x);", "lcm(x/(x+1), x);"])
    assert printed == [
        "error: (1+x)^(-1) is not a polynomial factor",
        "error: (2+x)^(-1) is not a polynomial factor",
        "error: (1+x)^(-1) is not a polynomial factor",
    ]


def test_unprintable_result_stays_out_of_history():
    # each statement nests one level deeper until printing runs out of
    # stack; the result that failed to print must not become %
    sh = Shell()
    last = sh.feed("x;")[0]
    for _ in range(2000):
        line = sh.feed("sin(%);")[0]
        if line.startswith("error"):
            break
        last = line
    assert line == "error: expression nested too deeply"
    assert sh.feed("%;") == [last]


def test_an_interrupted_statement_answers_and_the_session_goes_on():
    # Ctrl-C from a timer 0.3 s into a statement that runs for seconds:
    # the statement answers an error line, the history stays as it was,
    # and the next statement and % still answer
    sh = Shell()
    assert sh.feed("x+1;") == ["1+x"]
    timer = threading.Timer(0.3, _thread.interrupt_main)
    try:
        timer.start()
        got = sh.feed("expand((x+y+z)^3000);")
        timer.cancel()
        timer.join()
        time.sleep(0.05)  # a late interrupt is raised here, not after the guard
    except KeyboardInterrupt:
        pytest.fail("the interrupt arrived outside the statement")
    assert got == ["error: interrupted"]
    assert [str(h) for h in sh.history] == ["1+x"]
    assert sh.feed("%;2*y;%%;") == ["1+x", "2*y", "1+x"]


def test_empty_history_reference():
    printed, _ = feed_lines(["%;"])
    assert printed == ["error at position 1: no history entry for %"]


def test_multiline_buffering():
    sh = Shell()
    assert sh.feed("1 +\n") == []
    assert sh.feed("2;\n") == ["3"]
    # buffering is purely textual, so a name may not split across feeds
    assert sh.feed("xl") == []
    assert sh.feed("ong + 1;") == ["1+xlong"]


def test_quit_forms():
    for text in ["quit;", "quit", "quit\n", "  quit  \n"]:
        sh = Shell()
        assert sh.feed(text) == []
        if not sh.done:
            sh.finish()
        assert sh.done
    # statements after quit in the same chunk never run
    sh = Shell()
    assert sh.feed("1+1;quit;2+2;") == ["2"]
    assert sh.done


def test_symbols_are_session_wide():
    # the same spelling names the same symbol, so subs touches it
    printed, _ = feed_lines(["expand((alpha+1)^2);", "subs(%, alpha==2);"])
    assert printed == ["1+2*alpha+alpha^2", "9"]


def test_repl_prompts_and_exit():
    out = io.StringIO()
    code = repl(io.StringIO("1+1;\nquit;\n"), out, prompt=True)
    assert code == 0
    assert out.getvalue() == "> 2\n> \n"


def test_repl_eof_flush():
    # an unterminated trailing statement is still executed at EOF
    out = io.StringIO()
    repl(io.StringIO("3*3;\n2+2"), out, prompt=False)
    assert out.getvalue() == "9\n4\n"


def test_script_transcript_is_deterministic(tmp_path):
    script = tmp_path / "session.mc"
    script.write_text(
        "expand((x+y)^3);\n"
        "subs(%, x==1);\n"
        "series(exp(t), t==0, 4);\n"
        "1/0;\n"
        "gcd(x^2-1, x^2-4*x+3);\n"
        "quit;\n"
    )
    runs = []
    for _ in range(2):
        out = io.StringIO()
        assert run_script(str(script), out) == 0
        runs.append(out.getvalue())
    assert runs[0] == runs[1]
    assert runs[0].splitlines()[0] == "x^3+y^3+3*x*y^2+3*x^2*y"


def _digits_value(text: str) -> int:
    """The int a long digit string spells, read 400 digits at a time."""
    v = 0
    for i in range(0, len(text), 400):
        chunk = text[i : i + 400]
        v = v * 10 ** len(chunk) + int(chunk)
    return v


def test_integers_past_the_conversion_limit_print_and_parse_back():
    # Python's own str()/int() refuse more than 4300 digits by default
    sh = Shell()
    for stmt, want in (("factorial(2000);", math.factorial(2000)), ("2^(20000);", 2**20000)):
        (line,) = sh.feed(stmt)
        assert len(line) > 4300 and line.isdigit()
        assert _digits_value(line) == want
        # the printed digits parse back to the value % holds
        assert sh.feed(f"{line}-%;") == ["0"]
        assert sh.feed(f"%%-{line};") == ["0"]
    (line,) = sh.feed("-2/3^9000;")
    num, den = line.split("/")
    assert num == "-2" and _digits_value(den) == 3**9000


def test_huge_factorials_and_far_floats_answer_at_once():
    sh = Shell()
    start = time.perf_counter()
    (line,) = sh.feed("factorial(10^7);")
    assert line.startswith("error:")
    assert time.perf_counter() - start < 1
    assert sh.feed("factorial(1000);") == [str(math.factorial(1000))]
    # no float's decimal expansion is built in full, so none meets
    # Python's 4300-digit limit on integer printing
    lines = sh.feed("2.5e-10000; evalf(10^5000); 1.0e4400;")
    assert lines == ["2.5E-10000", "1.0E5000", "1.0E4400"]


def test_far_float_powers_answer_at_once():
    # mpmath's powering time grows with the bit length of the exponent,
    # so a float power far past what prints is refused before it is built
    for stmt in (
        "1.5^(2^20000);",
        "3.502^(401e32^402);",
        "1.5^(2^2000);",
        "1.5^(2^8000);",
        "(1.5+I)^(2^20000);",
        "(-1.5)^(2^20000);",
        "1.5^(-2^20000);",
        "3^(2.0^20000);",
        "0*1.5^(2^2000);",
        "0.5^(2^20000);",
    ):
        start = time.perf_counter()
        assert Shell().feed(stmt) == ["error: float exponent too large to print"], stmt
        assert time.perf_counter() - start < 1, stmt
    # powers of 1 and -1, and a power that comes back into range, stand
    assert Shell().feed("1.0^(2^20000); (-1.0)^(2^20000+1); (1.5^(10^7))^(10^-7);") == [
        "1.0", "-1.0", "1.5"
    ]
    # past 2^1024 the binary exponent is compared as an int, not a float
    with pytest.raises(DomainError, match="too large to print"):
        _float_digits((0, 3, 2**20000, 2), 20)


def test_a_factor_meets_its_multiplicity_in_one_step():
    # a one-term factor reads its multiplicity off the other side's
    # exponents, and a factor both sides share meets as min(k, k'),
    # where one gcd per unit of the exponent took seconds
    for stmt, want in (
        ("gcd(x^(2^10)*y, x^(2^10+1));", "x^1024"),
        ("gcd(x^(2^12)*y, x^(2^12+1));", "x^4096"),
        ("gcd(x^(2^14)*y, x^(2^14+1));", "x^16384"),
        ("gcd((x+1)^100*y, (x+1)^100*z);", "(1+x)^100"),
        ("gcd((x+1)^300*y, (x+1)^300*z);", "(1+x)^300"),
    ):
        start = time.perf_counter()
        assert Shell().feed(stmt) == [want]
        assert time.perf_counter() - start < 1, stmt
    # unequal multiplicities on either side, and factors that share
    # factors without being equal, print what one gcd per unit printed
    printed, _ = feed_lines([
        "gcd((x+1)^2*y, (x+1)^5*z);",
        "gcd((x+1)^5*y, (x+1)^2*z);",
        "gcd(x^3*y^2*(x+1), x^5*y*(x+1)^2);",
        "gcd((x+1)^3*(x-1)*y, (x^2-1)^2*z);",
        "gcd((x+1)^3*(x^2-1), (x+1)^2*(x-1)^3*z);",
    ])
    assert printed == ["(1+x)^2", "(1+x)^2", "x^3*y*(1+x)", "(-1+x)*(1+x)^2", "(-1+x)*(1+x)^2"]


def test_huge_exponents_answer_or_refuse_at_once():
    # dict polynomials keep exponents below 2^30: past that, gcd and lcm
    # refuse, normal keeps the power as a generator, and det works on
    # the trees; a gcd that never multiplies the power out still answers
    refused = "error: polynomial exponents must stay below 2^30"
    start = time.perf_counter()
    printed, _ = feed_lines([
        "gcd(x^(2^40), x^3);",
        "gcd(x^(2^70), x^(2^71));",
        "gcd(x^(2^70)*(x+1), x^(2^70+1));",
        "gcd(x^(2^40)*y, x^3);",
        "gcd(x^(2^70)*y, x^(2^70)*z);",
        "lcm(x^(2^40), x^3);",
        "lcm(x^(2^70)*y, x^(2^70)*z);",
        "normal(x^(2^40)/x);",
        "normal(x^(2^40)/(x^2-x));",
        "normal(x^(2^70)+1/x);",
        "det([[x^(2^40), x], [x, 1]]);",
        "det([[x^(2^70), 1/x], [x, 1]]);",
        # below the limit, with products that reach it
        "normal(x^(2^29+1)*(x^(2^29+1)+y)/z);",
        "det([[x^(2^29+1), x^(2^29+1)], [x^(2^29+1), 1]]);",
        # a content that would need 2^30 digits
        "gcd((2*x+2)^(2^30)*y, x);",
    ])
    assert printed == [
        refused,
        refused,
        refused,
        "x^3",
        "x^1180591620717411303424",
        refused,
        refused,
        "x^1099511627775",
        "x^1099511627776*(-x+x^2)^(-1)",
        "x^(-1)*(1+x^1180591620717411303425)",
        "-x^2+x^1099511627776",
        "-1+x^1180591620717411303424",
        "x^536870913*z^(-1)*(y+x^536870913)",
        "x^536870913-x^1073741826",
        refused,
    ]
    # the shell has no exact_quotient or content_primpart
    x, y = symbols("x y")
    for call in (
        lambda: exact_quotient(mul(power(x, 2**40), y), y),
        lambda: exact_quotient(mul(power(x, 2**70), add(x, 1)), add(x, 1)),
        lambda: content_primpart(add(mul(power(x, 2**40), y), y), x),
        lambda: content_primpart(add(mul(power(x, 2**70), y), y), y),
    ):
        with pytest.raises(DomainError, match=refused[len("error: "):].replace("^", "\\^")):
            call()
    assert time.perf_counter() - start < 5


def test_huge_degree_gcds_skip_the_heuristic_evaluation():
    # each input reaches the heuristic gcd with 2^29 as the degree of the
    # variable it evaluates; an evaluation at xi >= 6 would build an
    # integer of about 1.4e9 bits, so the subresultant PRS answers
    for stmt in ("gcd(x^(2^29)+1, x^(2^29)+2);", "gcd(x^(2^29)*y+1, x^(2^29)*y+2);"):
        start = time.perf_counter()
        assert Shell().feed(stmt) == ["1"]
        assert time.perf_counter() - start < 1, stmt
