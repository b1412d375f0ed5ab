"""Command line front door: `minicas shell` and `minicas bench`."""

from __future__ import annotations

import argparse
import os
import sys

from .errors import DomainError


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    bench = None
    if argv[:1] == ["bench"]:  # only this subcommand loads the bench module
        from . import bench
    ap = argparse.ArgumentParser(
        prog="minicas",
        description="exact symbolic computation: shell and benchmarks",
    )
    sub = ap.add_subparsers(dest="cmd", required=True)

    sh = sub.add_parser("shell", help="interactive expression shell")
    sh.add_argument("--script", metavar="FILE", help="replay FILE without prompts")

    be = sub.add_parser("bench", help="run one registered benchmark")
    be.add_argument("--test", required=True, choices=bench and sorted(bench.registered_ids()))
    be.add_argument("--n", type=int, default=None, help="size parameter")
    be.add_argument("--reps", type=int, default=1, help="repetitions (min time wins)")
    be.add_argument("--csv", metavar="PATH", help="append the record to PATH")

    args = ap.parse_args(argv)
    if args.cmd == "shell":
        from .shell import repl, run_script

        if args.script:
            return run_script(args.script)
        return repl()

    try:
        record = bench.bench_run(args.test, args.n, args.reps)
    except DomainError as err:
        print(f"minicas bench: error: {err}", file=sys.stderr)
        return 1
    except AssertionError as err:
        print(f"FAIL {args.test}: {err}", file=sys.stderr)
        return 1
    line = record.csv_line()
    print(line)
    if args.csv:
        fresh = not os.path.exists(args.csv) or os.path.getsize(args.csv) == 0
        with open(args.csv, "a", encoding="utf-8") as f:
            if fresh:
                f.write(bench.CSV_HEADER + "\n")
            f.write(line + "\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
