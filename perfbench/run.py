"""Seeded end-to-end and per-layer benchmark of minicas.

    python3 perfbench/run.py --workload canon-expand --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 20 --trace 0

Run from the root of a source checkout; minicas is imported from its
``src/`` directory, never from an installed copy.  One process runs one
workload as a closed loop with a single caller: each item is computed,
printed with ``to_string``, digested and (on the first pass) checked
before the next one starts.  ``--workload all`` runs every workload in
its own child process, one after another, and prints a table.

``--trace 0`` measures the end-to-end metrics with no profiler attached.
``--trace 1`` measures the per-layer metrics: stage times from untraced
passes, self time per layer and named call counts from one pass under
cProfile, and the ratio of the two as the tracing overhead.

Every line but the last is a JSON record (``env``, ``item``,
``summary``); the last line is the result object.  See README.md.
"""

from __future__ import annotations

import argparse
import cProfile
import gc
import hashlib
import importlib
import json
import os
import platform
import pstats
import resource
import subprocess
import sys
from array import array
from pathlib import Path
from statistics import median
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

from perfbench import layers, stats  # noqa: E402
from perfbench.oracles import dag_nodes  # noqa: E402

WORKLOADS = ("canon-expand", "rational-gcd", "series-print", "shell-session")
# A seed kept out of tuning: re-check a claimed gain on it before believing it.
HELD_OUT_SEED = 7919
SETUPS = 5
MIN_PASSES = 10
MIN_SAMPLES = 100
CHILD_TIMEOUT_S = 600

END_TO_END_UNITS = {"setup_s": "s", "wall_s": "s", "item_p50_ms": "ms", "peak_rss_mb": "MB",
                    "result_chars": "count"}


def emit(record: dict) -> None:
    print(json.dumps(record), flush=True)


# ----------------------------------------------------------------- set-up


def _purge() -> dict:
    """Forget minicas, mpmath and the workload module so the next import
    runs them afresh (each set-up pays the full import).  Returns
    the forgotten modules."""
    gone = {}
    for name in list(sys.modules):
        top = name.split(".", 1)[0]
        if top in ("minicas", "mpmath") or name == "perfbench.workloads":
            gone[name] = sys.modules.pop(name)
    gc.collect()
    return gone


def setup(workload: str, seed: int):
    """Import minicas, build the seeded inputs and warm every item kind.

    Returns (seconds, workload, warm-up Pass).  Each call imports a fresh
    copy of minicas and leaves it in sys.modules.
    """
    _purge()
    t0 = perf_counter()
    mod = importlib.import_module("perfbench.workloads")
    wl = mod.build(workload, seed)
    warm, _ = run_pass(mod.build(workload, seed, "warm"), check=True)
    return perf_counter() - t0, wl, warm


def _check_source() -> None:
    import minicas

    where = Path(minicas.__file__).resolve()
    if ROOT / "src" not in where.parents:
        raise ImportError(f"minicas was imported from {where}, not from {ROOT / 'src'}")


# ------------------------------------------------------------------ passes

STAGES = ("compute", "print", "digest", "check")


class Pass:
    """Stage times of one pass (one array per stage, in item order), the
    items that failed and the items whose digest changed."""

    def __init__(self, n: int):
        self.times = {s: array("d", bytes(8 * n)) for s in STAGES}
        self.errors: dict = {}
        self.changed: list = []

    def time(self, stages=("compute", "print")) -> float:
        return sum(sum(self.times[s]) for s in stages)

    def latencies(self) -> list:
        return [c + p for c, p in zip(self.times["compute"], self.times["print"])]


def run_pass(wl, check: bool, ref: list | None = None, profiler=None):
    """One pass over the workload's items, in order, one at a time.

    Returns the Pass and, per item, (digest, printed length, DAG nodes);
    nodes are counted only when check is set.  check runs every item's
    oracle; otherwise the oracle runs only for an item whose digest
    differs from ref (the checked pass's outputs), and the change is
    recorded.  An exception anywhere in an item marks that item failed
    and the pass goes on.
    """
    session = wl.new_session()
    p = Pass(len(wl.items))
    outs = []
    for i, item in enumerate(wl.items):
        sha, chars, nodes = None, 0, 0
        try:
            t0 = perf_counter()
            if profiler is not None:
                profiler.enable()
            result = item.run(session)
            t1 = perf_counter()
            text = item.render(result)
            if profiler is not None:
                profiler.disable()
            t2 = perf_counter()
            sha = hashlib.sha256(text.encode("utf-8")).hexdigest()[:16]
            t3 = perf_counter()
            chars = len(text)
            for stage, dt in (("compute", t1 - t0), ("print", t2 - t1), ("digest", t3 - t2)):
                p.times[stage][i] = dt
            if check or ref[i][0] != sha:
                if ref is not None and ref[i][0] is not None:
                    p.changed.append(i)
                item.check(result, text, session)
                p.times["check"][i] = perf_counter() - t3
            if check:
                root = item.root(result, session)
                nodes = 0 if root is None else dag_nodes(root)
        except Exception as err:  # an item failure is counted, not fatal
            if profiler is not None:
                profiler.disable()
            p.errors[i] = f"{type(err).__name__}: {err}"[:300]
        outs.append((sha, chars, nodes))
    return p, outs


def timed_passes(wl, seconds: float, ref: list, resetup, n_setups: int) -> list:
    """Untraced passes until `seconds` have elapsed, and at least
    MIN_PASSES passes and MIN_SAMPLES item samples were taken.

    resetup() is called n_setups times between passes, spread evenly
    over the `seconds`, so that set-up time is sampled across the run
    and not only in its first second.
    """
    passes = []
    start = perf_counter()
    done = 0
    while (perf_counter() - start < seconds or len(passes) < MIN_PASSES
           or len(passes) * len(wl.items) < MIN_SAMPLES):
        if done < n_setups and perf_counter() - start >= done * seconds / n_setups:
            resetup()
            done += 1
        gc.collect()
        passes.append(run_pass(wl, check=False, ref=ref)[0])
    for _ in range(done, n_setups):
        resetup()
    return passes


# ----------------------------------------------------------------- results


def _environment(args, loadavg) -> dict:
    import mpmath

    return {
        "record": "env",
        "workload": args.workload,
        "seed": args.seed,
        "held_out_seed": HELD_OUT_SEED,
        "seconds": args.seconds,
        "trace": args.trace,
        "python": platform.python_version(),
        "mpmath": mpmath.__version__,
        "nproc": os.cpu_count(),
        "loadavg_at_start": list(loadavg),
        "git_commit": _git_commit(),
    }


def _git_commit() -> str | None:
    """HEAD of the checkout, read from .git without running git; None
    outside a git checkout."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def _item_records(wl, seed: int, checked: Pass, outs: list, passes: list) -> None:
    for i, item in enumerate(wl.items):
        sha, chars, nodes = outs[i]
        stage_s = {s: median([p.times[s][i] for p in passes]) for s in STAGES[:3]}
        stage_s["check"] = checked.times["check"][i]
        errors = [p.errors[i] for p in (checked, *passes) if i in p.errors]
        emit({
            "record": "item", "item": item.id, "seed": seed, "sizes": item.sizes,
            "stage_s": stage_s, "chars": chars, "nodes": nodes, "digest": sha,
            "digest_changes": sum(i in p.changed for p in passes),
            "ok": not errors, "error": errors[0] if errors else None,
        })


def _tally(passes: list) -> tuple[int, int]:
    """(items attempted, items failed) over the passes."""
    return sum(len(p.times["compute"]) for p in passes), sum(len(p.errors) for p in passes)


def measure(args) -> dict:
    loadavg = os.getloadavg()
    dt, wl, warm = setup(args.workload, args.seed)
    setups, warms = [dt], [warm]
    _check_source()
    emit(_environment(args, loadavg))
    gc.collect()
    checked, outs = run_pass(wl, check=True)
    if args.trace:
        traced, prof_stats = _traced_pass(wl, outs)

    def resetup():
        # minicas imports some modules lazily, so the copy the timed
        # workload was built with must be the one in sys.modules again
        current = _purge()
        dt, _, warm = setup(args.workload, args.seed)
        _purge()
        sys.modules.update(current)
        setups.append(dt)
        warms.append(warm)

    passes = timed_passes(wl, args.seconds, outs, resetup, SETUPS - 1)
    _item_records(wl, args.seed, checked, outs, passes)

    attempted, failed = _tally([*warms, checked, *passes] + ([traced] if args.trace else []))
    samples = [t for p in passes for t in p.latencies()]
    walls = [p.time() for p in passes]
    # each item's fastest compute + print over the timed passes
    best = _best(passes, ("compute", "print"))
    summary = {
        "record": "summary", "workload": args.workload, "seed": args.seed,
        "setup_runs_s": setups, "pass_wall_s": walls, "wall_median_s": median(walls),
        "passes": len(passes), "items_per_pass": len(wl.items), "samples": len(samples),
        "fail_ratio": failed / attempted,
        "digest_changes": sum(len(p.changed) for p in passes),
        "failures": sorted({f"{wl.items[i].id}: {e}" for p in [checked, *passes]
                            for i, e in p.errors.items()}
                           | {f"warm-up: {e}" for p in warms for e in p.errors.values()})[:20],
        "item_p90_ms": 1e3 * stats.percentile(samples, 90),
    }
    if args.workload == "shell-session":
        summary["stmt_p50_ms"] = 1e3 * stats.percentile(samples, 50)
        summary["stmt_p99_ms"] = 1e3 * stats.percentile(samples, 99)

    if args.trace:
        metrics, notes = _per_layer(wl, checked, outs, passes, traced, prof_stats)
        summary["notes"] = notes
    else:
        metrics = {
            "setup_s": median(setups),
            "wall_s": sum(best),
            "item_p50_ms": 1e3 * median(best),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
            "result_chars": sum(chars for _, chars, _ in outs),
        }
        metrics = {k: {"value": v, "unit": END_TO_END_UNITS[k]} for k, v in metrics.items()}
    emit(summary)
    return {"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}


def _best(passes: list, stages) -> list:
    """Per item, its fastest time over the passes, summed over stages."""
    return [min(sum(p.times[s][i] for s in stages) for p in passes)
            for i in range(len(passes[0].times["compute"]))]


def _traced_pass(wl, outs: list):
    gc.collect()
    prof = cProfile.Profile()
    traced, _ = run_pass(wl, check=False, ref=outs, profiler=prof)
    return traced, pstats.Stats(prof).stats


def _per_layer(wl, checked, outs, passes, traced, prof_stats) -> tuple[dict, list]:
    import fractions

    mc = sys.modules["minicas"]
    modules = {name: getattr(mc, name, None) for name in layers.LAYERS}
    modules["fractions"] = fractions
    m: dict = {}
    for stage in STAGES[:3]:
        m[f"stage.{stage}_s"] = (sum(_best(passes, (stage,))), "s")
    m["stage.check_s"] = (checked.time(("check",)), "s")

    selfs = layers.self_times(prof_stats)
    total = sum(selfs.values())
    for layer, t in selfs.items():
        m[f"{layer}.self_s"] = (t, "s")
        m[f"{layer}.share"] = (t / total if total else 0.0, "ratio")
    m["trace.overhead"] = (traced.time() / sum(_best(passes, ("compute", "print"))), "ratio")

    found, notes = layers.counts(prof_stats, modules)
    for name, v in found.items():
        m[name] = (v, "count")
    m["expr.result_nodes"] = (sum(nodes for _, _, nodes in outs), "count")

    gcd, fb = found["poly.gcd.calls"], found["poly.sr_fallbacks"]
    if gcd is None or fb is None:
        ratio = None
    elif gcd:
        ratio = 1 - fb / gcd
    else:
        ratio = 1.0
        notes.append("poly.heur_hit_ratio: no gcd calls, so none fell back; reported as 1.0")
    m["poly.heur_hit_ratio"] = (ratio, "ratio")

    parse_s = layers.cumulative(prof_stats, "parser", "parse")
    chars = sum(it.sizes.get("chars", 0) for it in wl.items)
    if parse_s and chars:
        m["parser.chars_per_s"] = (chars / parse_s, "chars/s")
    else:
        m["parser.chars_per_s"] = (0.0, "chars/s")
        notes.append("parser.chars_per_s: nothing was parsed; reported as 0")
    return {k: {"value": v, "unit": u} for k, (v, u) in m.items()}, notes


# ------------------------------------------------------------ command line


def run_all(args) -> int:
    """Every workload in its own child process; print a table."""
    rows, total = [], {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOADS:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        done = subprocess.run(cmd, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S)
        lines = done.stdout.strip().splitlines()
        if done.returncode != 0 or not lines:
            sys.stderr.write(done.stderr)
            return done.returncode or 1
        result = json.loads(lines[-1])
        summary = next(json.loads(x) for x in lines if '"record": "summary"' in x)
        for key in ("attempted", "failed"):
            total[key] += result[key]
        total["correct"] = total["correct"] and result["correct"]
        for metric, v in result["metrics"].items():
            total["metrics"][f"{name}.{metric}"] = v
            rows.append((name, metric, v["value"], v["unit"]))
        rows.append((name, "fail_ratio", summary["fail_ratio"], "ratio"))
        for metric in ("item_p90_ms", "stmt_p50_ms", "stmt_p99_ms"):
            if metric in summary:
                rows.append((name, metric, summary[metric], "ms"))
                total["metrics"][f"{name}.{metric}"] = {"value": summary[metric], "unit": "ms"}
    for name, metric, value, unit in rows:
        shown = "null" if value is None else f"{value:.6g}"
        print(f"{name:14} {metric:34} {shown:>14} {unit}")
    print(json.dumps(total))
    return 0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, default=20)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seconds < 1:
        ap.error("--seconds must be at least 1")
    if args.workload == "all":
        return run_all(args)
    try:
        result = measure(args)
    except ImportError as err:
        print(f"cannot import minicas from {ROOT / 'src'}: {err}", file=sys.stderr)
        return 2
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
