"""The table arithmetic of tools/ab_pairs.py on canned run records."""

import importlib.util
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
