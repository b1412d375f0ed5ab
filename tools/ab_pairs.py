"""Alternating parent/change pairs of perfbench runs, as one table.

    python tools/ab_pairs.py --parent DIR --change DIR --workload W \
        --seed S --pairs N [--seconds 20] [--trace 0] --out BENCH.json

DIR is a source checkout of each side (git metadata not needed).  Pair
0, 2, 4, ... runs the parent first, pair 1, 3, 5, ... the change; one
run at a time, each `python3 perfbench/run.py` in its own checkout with
PYTHONDONTWRITEBYTECODE=1.  Every item digest must be the same on both
sides and in every run, and every run must end with its result line,
or the script exits 1 after writing what it has.

The runs are added to --out (created if missing) and its table is
rebuilt from all of them: per (workload, seed, trace, metric), the
median and inclusive quartiles of each side, the ratio of the medians,
the pairs the change won (by BENCHMARK.json's `better`) and the failed
items per side, the layout of BENCH_24.json.  Runs with --trace 1 go to
traced_runs and traced_table.  Each run record also keeps its side's
line count of src/minicas/*.py (src_lines), so code size sits next to
the timings.
"""

from __future__ import annotations

import argparse
import glob
import json
import os
import statistics
import subprocess
import sys
from collections import defaultdict


def src_lines(root: str) -> int:
    """The line count of root's src/minicas/*.py, as wc -l counts it."""
    total = 0
    for path in glob.glob(os.path.join(root, "src", "minicas", "*.py")):
        with open(path, encoding="utf-8") as f:
            total += f.read().count("\n")
    return total


def run_once(root: str, workload: str, seed: int, seconds: int, trace: int) -> tuple[dict, dict]:
    """One perfbench run in checkout root: (run record, item digests).
    The record keeps each item's median compute and print times, and
    the side's code size (src_lines)."""
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1")
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    done = subprocess.run(cmd, cwd=root, env=env, capture_output=True, text=True)
    rec = {"workload": workload, "seed": seed, "seconds": seconds, "trace": trace,
           "rc": done.returncode, "src_lines": src_lines(root)}
    digests = {}
    for line in done.stdout.splitlines():
        r = json.loads(line)
        if r.get("record") == "item":
            digests[r["item"]] = r["digest"]
            rec.setdefault("item_compute_ms", {})[r["item"]] = 1e3 * r["stage_s"]["compute"]
            rec.setdefault("item_print_ms", {})[r["item"]] = 1e3 * r["stage_s"]["print"]
        elif r.get("record") == "summary":
            rec.update(setup_runs_s=r["setup_runs_s"], passes=r["passes"],
                       digest_changes=r["digest_changes"])
        elif "metrics" in r:
            rec.update(correct=r["correct"], attempted=r["attempted"], failed=r["failed"],
                       metrics={k: m["value"] for k, m in r["metrics"].items()})
    if "metrics" not in rec:
        rec["stderr"] = done.stderr[-2000:]
    return rec, digests


def quartiles(xs: list) -> tuple[float, float, float]:
    q1, q2, q3 = statistics.quantiles(xs, n=4, method="inclusive") if len(xs) > 1 else xs * 3
    return q1, q2, q3


def table(runs: list, better: dict) -> list:
    """One row per (workload, seed, trace, metric) over the pairs in runs."""
    groups = defaultdict(lambda: defaultdict(dict))
    for r in runs:
        groups[r["workload"], r["seed"], r["trace"]][r["pair"]][r["side"]] = r
    rows = []
    for (workload, seed, trace), pairs in groups.items():
        both = [p for _, p in sorted(pairs.items()) if len(p) == 2
                and all("metrics" in p[s] for s in ("parent", "change"))]
        if not both:
            continue
        names = [m for m in both[0]["parent"]["metrics"]
                 if all(isinstance(p[s]["metrics"].get(m), (int, float)) for p in both
                        for s in ("parent", "change"))]
        for m in names:
            par = [p["parent"]["metrics"][m] for p in both]
            chg = [p["change"]["metrics"][m] for p in both]
            pq, cq = quartiles(par), quartiles(chg)
            sign = -1 if better.get(m, "lower") == "higher" else 1
            rows.append({
                "workload": workload, "seed": seed, "trace": trace, "metric": m,
                "pairs": len(both),
                "parent_median": pq[1], "parent_q1": pq[0], "parent_q3": pq[2],
                "change_median": cq[1], "change_q1": cq[0], "change_q3": cq[2],
                "ratio": cq[1] / pq[1] if pq[1] else None,
                "change_wins": sum(sign * (c - p) < 0 for p, c in zip(par, chg)),
                "parent_iqr": pq[2] - pq[0],
                "failed_parent": sum(p["parent"]["failed"] for p in both),
                "failed_change": sum(p["change"]["failed"] for p in both),
            })
    return rows


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0].split("\n")[0])
    ap.add_argument("--parent", required=True)
    ap.add_argument("--change", required=True)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--pairs", type=int, default=10)
    ap.add_argument("--seconds", type=int, default=20)
    ap.add_argument("--trace", type=int, default=0, choices=(0, 1))
    ap.add_argument("--out", required=True)
    args = ap.parse_args(argv)
    out = {}
    if os.path.exists(args.out):
        with open(args.out, encoding="utf-8") as f:
            out = json.load(f)
    key = "traced_runs" if args.trace else "runs"
    runs = out.setdefault(key, [])
    base = 1 + max((r["pair"] for r in runs if (r["workload"], r["seed"]) ==
                    (args.workload, args.seed)), default=-1)
    roots = {"parent": args.parent, "change": args.change}
    seen: dict = {}
    bad = []
    for i in range(base, base + args.pairs):
        order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
        for side in order:
            rec, digests = run_once(roots[side], args.workload, args.seed, args.seconds, args.trace)
            runs.append({"side": side, "pair": i, "first": order[0], **rec})
            if rec["rc"] or "metrics" not in rec:
                bad.append(f"{args.workload} seed {args.seed} pair {i} {side}: exit {rec['rc']}")
            for item, d in digests.items():
                if seen.setdefault(item, d) != d:
                    bad.append(f"{args.workload} seed {args.seed} pair {i} {side}: digest of {item}")
            print(f"pair {i} {side}: " + json.dumps(rec.get("metrics", rec.get("stderr"))),
                  file=sys.stderr, flush=True)
    with open(os.path.join(args.change, "BENCHMARK.json"), encoding="utf-8") as f:
        spec = json.load(f)
    better = {m["name"]: m["better"] for m in spec["end_to_end"] + spec["per_layer"]}
    out["traced_table" if args.trace else "table"] = table(runs, better)
    with open(args.out, "w", encoding="utf-8") as f:
        json.dump(out, f, indent=1)
        f.write("\n")
    for b in bad:
        print(f"failed or differs: {b}", file=sys.stderr)
    return 1 if bad else 0


if __name__ == "__main__":
    raise SystemExit(main())
