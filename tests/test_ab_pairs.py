"""The table arithmetic of tools/ab_pairs.py on canned run records."""

import importlib.util
import json
import pathlib

import pytest

_PATH = pathlib.Path(__file__).resolve().parents[1] / "tools" / "ab_pairs.py"
_SPEC = importlib.util.spec_from_file_location("ab_pairs", _PATH)
ab_pairs = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(ab_pairs)


def _run(side, pair, wall, chars_per_s, failed=0):
    return {"side": side, "pair": pair, "workload": "w", "seed": 1, "trace": 0, "failed": failed,
            "metrics": {"wall_s": wall, "parser.chars_per_s": chars_per_s, "poly.sr_fallbacks": None}}


def test_the_table_takes_medians_quartiles_and_wins_per_pair():
    parent = [4.0, 1.0, 3.0, 2.0, 5.0]
    change = [2.0, 3.0, 1.0, 1.5, 2.5]
    runs = []
    for i, (p, c) in enumerate(zip(parent, change)):
        runs += [_run("parent", i, p, 10 * p, failed=i == 3), _run("change", i, c, 10 * c)]
    runs.append(_run("parent", 5, 9.0, 9.0))  # a pair without its change is left out
    rows = {r["metric"]: r for r in ab_pairs.table(runs, {"parser.chars_per_s": "higher"})}
    assert set(rows) == {"wall_s", "parser.chars_per_s"}  # a None metric has no row
    wall = rows["wall_s"]
    assert wall["pairs"] == 5
    # inclusive quartiles: 1 2 3 4 5 and 1 1.5 2 2.5 3
    assert (wall["parent_q1"], wall["parent_median"], wall["parent_q3"]) == (2.0, 3.0, 4.0)
    assert (wall["change_q1"], wall["change_median"], wall["change_q3"]) == (1.5, 2.0, 2.5)
    assert wall["ratio"] == pytest.approx(2 / 3) and wall["parent_iqr"] == 2.0
    # lower is better: the change won every pair but pair 1 (1.0 -> 3.0)
    assert wall["change_wins"] == 4
    assert (wall["failed_parent"], wall["failed_change"]) == (1, 0)
    # higher is better: the change won only pair 1
    assert rows["parser.chars_per_s"]["change_wins"] == 1


def test_quartiles_of_one_run_are_that_run():
    assert ab_pairs.quartiles([0.5]) == (0.5, 0.5, 0.5)


def test_a_run_keeps_each_items_compute_and_print_times(monkeypatch):
    lines = [
        {"record": "env"},
        {"record": "item", "item": "gamma", "digest": "d1",
         "stage_s": {"compute": 0.004, "print": 0.0015, "digest": 0.0001}},
        {"record": "item", "item": "rational-0", "digest": "d2",
         "stage_s": {"compute": 0.0002, "print": 0.00005, "digest": 0.00001}},
        {"record": "summary", "setup_runs_s": [0.1], "passes": 7, "digest_changes": 0},
        {"correct": 2, "attempted": 2, "failed": 0, "metrics": {"wall_s": {"value": 0.01}}},
    ]

    class Done:
        returncode = 0
        stdout = "\n".join(json.dumps(r) for r in lines) + "\n"
        stderr = ""

    seen = {}
    monkeypatch.setattr(ab_pairs.subprocess, "run", lambda cmd, **kw: seen.update(cmd=cmd, **kw) or Done)
    rec, digests = ab_pairs.run_once("/checkout", "series-print", 1, 20, 0)
    assert seen["cwd"] == "/checkout" and seen["env"]["PYTHONDONTWRITEBYTECODE"] == "1"
    assert digests == {"gamma": "d1", "rational-0": "d2"}
    assert rec["item_compute_ms"] == pytest.approx({"gamma": 4.0, "rational-0": 0.2})
    assert rec["item_print_ms"] == pytest.approx({"gamma": 1.5, "rational-0": 0.05})
    assert rec["metrics"] == {"wall_s": 0.01} and rec["passes"] == 7 and rec["failed"] == 0
