"""Benchmark harness: digest algorithm, record format, registry rows.

Every registered runner asserts its own oracle inside the timed body,
so a completing bench_run already vouches for the result; the tests
here pin what the harness itself promises.  Digest expectations are
[DERIVED] by hashing the independently computed result string, and the
FNV-1a constants are checked against the published offset basis and a
one-byte product worked out longhand.
"""

import re
from fractions import Fraction

import pytest

from minicas.bench import (
    CSV_HEADER,
    bench_run,
    default_size,
    fnv1a64,
    registered_ids,
)
from minicas.cli import main
from minicas.errors import DomainError

ALL_IDS = (
    "expand-subs-collapse",
    "gamma-series",
    "lw-a",
    "lw-b",
    "lw-c",
    "lw-d",
    "lw-e",
    "lw-f",
    "lw-g",
    "lw-h",
    "lw-i",
    "lw-j",
    "lw-k",
    "lw-l",
    "lw-m1",
    "lw-p",
    "lw-q",
)


def test_fnv1a64_vectors():
    # [DERIVED] empty input returns the offset basis; a single byte is
    # (basis xor byte) * prime mod 2^64, computed here with plain ints
    basis, prime = 0xCBF29CE484222325, 0x100000001B3
    assert fnv1a64("") == basis
    assert fnv1a64("a") == ((basis ^ ord("a")) * prime) % 2**64
    two = ((basis ^ ord("a")) * prime) % 2**64
    assert fnv1a64("ab") == ((two ^ ord("b")) * prime) % 2**64


def test_registry_contents():
    assert tuple(sorted(registered_ids())) == ALL_IDS
    for test_id in ALL_IDS:
        assert default_size(test_id) >= 1


def test_unknown_id():
    with pytest.raises(DomainError):
        bench_run("lw-z")
    with pytest.raises(DomainError):
        default_size("nope")
    with pytest.raises(DomainError):
        bench_run("lw-b", 0)
    with pytest.raises(DomainError):
        bench_run("lw-b", 10, reps=0)


def test_record_format():
    r = bench_run("lw-b", 10)
    assert r.test_id == "lw-b" and r.n == 10
    assert r.seconds >= 0.0 and r.print_seconds >= 0.0
    assert re.fullmatch(r"lw-b,10,\d+\.\d{6},\d+\.\d{6},[0-9a-f]{16}", r.csv_line())
    assert CSV_HEADER == "test_id,n,seconds,print_seconds,digest"
    assert CSV_HEADER.count(",") == r.csv_line().count(",")


def test_lw_b_small_value():
    # [DERIVED] the tenth harmonic number, summed here with Fractions
    want = sum(Fraction(1, k) for k in range(1, 11))
    assert want == Fraction(7381, 2520)
    r = bench_run("lw-b", 10)
    assert r.digest == fnv1a64(f"{want.numerator}/{want.denominator}")


def test_expand_subs_collapse_small():
    # [DERIVED] for n symbols the collapse leaves a1^2, whatever n is
    r = bench_run("expand-subs-collapse", 3, reps=2)
    assert r.digest == fnv1a64("a1^2")
    again = bench_run("expand-subs-collapse", 3)
    assert again.digest == r.digest


def test_lw_a_small_value():
    # [DERIVED] sum of (i+5)!/i! for i=1..4 from the factored products
    want = sum((i + 1) * (i + 2) * (i + 3) * (i + 4) * (i + 5) for i in range(1, 5))
    r = bench_run("lw-a", 4)
    assert r.digest == fnv1a64(str(want))


def test_small_rows_complete():
    # rows small enough to run in milliseconds; each runner checks its
    # own oracle, so completing without AssertionError is the point
    for test_id, n in [
        ("gamma-series", 6),
        ("lw-c", 8),
        ("lw-d", 4),
        ("lw-e", 4),
        ("lw-f", 2),
        ("lw-g", 2),
        ("lw-h", 3),
        ("lw-i", 3),
        ("lw-j", 3),
        ("lw-m1", 5),
        ("lw-p", 4),
        ("lw-q", 4),
    ]:
        bench_run(test_id, n)


def test_cli_bench_csv(tmp_path):
    path = tmp_path / "records.csv"
    assert main(["bench", "--test", "lw-b", "--n", "10", "--csv", str(path)]) == 0
    assert main(["bench", "--test", "lw-b", "--n", "10", "--csv", str(path)]) == 0
    lines = path.read_text().splitlines()
    assert lines[0] == "test_id,n,seconds,print_seconds,digest"
    assert len(lines) == 3
    digests = set()
    for row in lines[1:]:
        m = re.fullmatch(r"lw-b,10,(\d+\.\d{6}),(\d+\.\d{6}),([0-9a-f]{16})", row)
        assert m
        digests.add(m.group(3))
    assert len(digests) == 1


def test_cli_bench_bad_size(capsys):
    # [TRIVIAL] a rejected size is a clean one-line error, not a traceback
    assert main(["bench", "--test", "lw-b", "--n", "0"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "minicas bench: error: benchmark size must be a positive integer\n"


def test_cli_shell_script(tmp_path, capsys):
    script = tmp_path / "s.mc"
    script.write_text("1/2+1/3;\nquit;\n")
    assert main(["shell", "--script", str(script)]) == 0
    assert capsys.readouterr().out == "5/6\n"
