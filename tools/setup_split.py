"""Where a perfbench set-up spends its time, in fresh processes.

    python tools/setup_split.py --root DIR --workload W [--seed S] [--runs N]

Runs the set-up of workload W (what `perfbench/run.py` times as
`setup_s`) in N fresh processes of checkout DIR, each with
PYTHONDONTWRITEBYTECODE=1, so every run compiles minicas afresh as a
benchmark run does.  Each run is split into four stages: `import
minicas`, the `perfbench.workloads` import, the build of the seeded
inputs and the warm-up pass that `perfbench.run.setup` makes.  The
build and the warm-up call perfbench's own functions; nothing in
perfbench is changed.  Each run also lists the minicas modules loaded
by the end of the set-up and whether mpmath was.

Prints one JSON object: the runs, and per stage the median, min and
max in seconds.
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

STAGES = ("import_minicas", "import_workloads", "build", "warm_up")


def child(root: str, workload: str, seed: int) -> dict:
    """One set-up in this process, split into STAGES."""
    sys.path[:0] = [str(Path(root) / "src"), root]
    run = importlib.import_module("perfbench.run")  # perfbench's runner, as set-up has it loaded
    marks = [perf_counter()]
    importlib.import_module("minicas")
    marks.append(perf_counter())
    mod = importlib.import_module("perfbench.workloads")
    marks.append(perf_counter())
    mod.build(workload, seed)
    marks.append(perf_counter())
    warm, _ = run.run_pass(mod.build(workload, seed, "warm"), check=True)
    marks.append(perf_counter())
    return {
        "seconds": {s: b - a for s, a, b in zip(STAGES, marks, marks[1:])},
        "total_s": marks[-1] - marks[0],
        "warm_up_failed": len(warm.errors),
        "minicas_modules": sorted(m for m in sys.modules if m.startswith("minicas.")),
        "mpmath_loaded": "mpmath" in sys.modules,
    }


def split(root: str, workload: str, seed: int, runs: int) -> dict:
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1")
    cmd = [sys.executable, os.path.abspath(__file__), "--child", "--root", os.path.abspath(root),
           "--workload", workload, "--seed", str(seed)]
    records = []
    for _ in range(runs):
        done = subprocess.run(cmd, cwd=root, env=env, capture_output=True, text=True, check=True)
        records.append(json.loads(done.stdout.splitlines()[-1]))
    summary = {}
    for s in (*STAGES, "total_s"):
        xs = [r["total_s"] if s == "total_s" else r["seconds"][s] for r in records]
        summary[s] = {"median": statistics.median(xs), "min": min(xs), "max": max(xs)}
    return {"root": os.path.abspath(root), "workload": workload, "seed": seed,
            "summary": summary, "runs": records}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--root", default=".")
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--child", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    if args.child:
        print(json.dumps(child(args.root, args.workload, args.seed)))
    else:
        print(json.dumps(split(args.root, args.workload, args.seed, args.runs), indent=1))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
