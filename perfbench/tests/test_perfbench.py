"""Tests of the benchmark itself: oracles, failure accounting, statistics
and layer attribution.  Run with ``python -m pytest perfbench/tests``."""

import sys
import types
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
for p in (str(ROOT), str(ROOT / "src")):
    if p not in sys.path:
        sys.path.insert(0, p)

import minicas as mc  # noqa: E402
from perfbench import layers, stats, workloads  # noqa: E402
from perfbench.oracles import Mismatch  # noqa: E402
from perfbench.run import _tally, run_pass  # noqa: E402


def _perturbed(result):
    """The same kind of result, with a wrong value."""
    if isinstance(result, list):  # printed shell lines
        return [result[0] + "+1" if not result[0].startswith("error") else "1"]
    if isinstance(result, mc.PSeriesNode):
        terms = [(mc.mul(2, c), k) for c, k in result.terms]
        return mc.pseries(result.var, result.point, terms, result.order)
    return mc.add(result, 1)


def _kinds(wl):
    if wl.name == "shell-session":
        return {it.id.split("-", 1)[1] for it in wl.items}
    return {it.id.rsplit("-", 1)[0] for it in wl.items}


@pytest.mark.parametrize("name", workloads.NAMES)
def test_every_oracle_rejects_a_perturbed_result(name):
    wl = workloads.build(name, 3, "warm")
    session = wl.new_session()
    for item in wl.items:
        result = item.run(session)
        text = item.render(result)
        item.check(result, text, session)
        bad = _perturbed(result)
        with pytest.raises(Mismatch):
            item.check(bad, item.render(bad), session)
    # the warm-up copy that set-up runs covers every item kind
    assert _kinds(wl) == _kinds(workloads.build(name, 3))


def test_same_seed_same_inputs():
    texts = []
    for _ in range(2):
        wl = workloads.build("rational-gcd", 5, "warm")
        texts.append([mc.to_string(it.run(None)) for it in wl.items])
    assert texts[0] == texts[1]


def _item(run, check=lambda result, text, session: None):
    return workloads.Item("t", {}, run, check)


def test_an_exception_counts_as_a_failure_and_the_pass_goes_on():
    x = mc.Symbol("x")

    def boom(_):
        raise RuntimeError("item blew up")

    def wrong(result, text, session):
        raise Mismatch("oracle disagrees")

    wl = workloads.Workload("t", [_item(boom), _item(lambda _: mc.add(x, 1)),
                                  _item(lambda _: x, wrong)])
    p, outs = run_pass(wl, check=True)
    assert sorted(p.errors) == [0, 2]
    assert "item blew up" in p.errors[0]
    assert outs[1][1:] == (len("1+x"), 2)  # the Add node and x
    assert _tally([p, run_pass(wl, check=True)[0]]) == (6, 4)


def test_a_digest_change_is_reported_and_rechecked():
    state = {"n": 0}

    def grows(_):
        state["n"] += 1
        return mc.lift(state["n"])

    checked = []
    wl = workloads.Workload("t", [_item(grows, lambda r, t, s: checked.append(t))])
    _, first = run_pass(wl, check=True)
    again, _ = run_pass(wl, check=False, ref=first)
    assert again.changed == [0] and not again.errors
    assert checked == ["1", "2"]


def test_percentile_needs_ten_samples_beyond_it():
    assert stats.percentile(range(100), 90) == 89
    assert stats.percentile(range(20), 50) == 9
    with pytest.raises(ValueError):
        stats.percentile(range(99), 90)
    with pytest.raises(ValueError):
        stats.percentile(range(19), 50)
    with pytest.raises(ValueError):
        stats.percentile(range(1000), 99.5)


def test_a_missing_counted_function_is_null_not_zero():
    import fractions

    modules = {name: getattr(mc, name) for name in layers.LAYERS if name not in ("fractions", "mpmath")}
    modules["fractions"] = fractions
    modules["mpmath"] = None
    poly = types.SimpleNamespace(**{k: v for k, v in vars(mc.poly).items() if k != "_sr_gcd_z"})
    found, notes = layers.counts({}, {**modules, "poly": poly})
    assert found["poly.sr_gcd.calls"] is None and found["poly.sr_fallbacks"] is None
    assert found["poly.gcd.calls"] == 0
    assert any("_sr_gcd_z" in n for n in notes)


def test_builtin_time_goes_to_the_calling_layer():
    expr_file = "/x/src/minicas/expr.py"
    prof = {
        (expr_file, 1, "compare"): (1, 1, 0.5, 0.9, {}),
        ("~", 0, "<built-in method builtins.sorted>"): (
            1, 1, 0.4, 0.4, {(expr_file, 1, "compare"): (1, 1, 0.3, 0.3),
                             ("/x/perfbench/run.py", 9, "run_pass"): (1, 1, 0.1, 0.1)}),
        ("/usr/lib/python3/fractions.py", 5, "__new__"): (2, 2, 0.2, 0.2, {}),
    }
    got = layers.self_times(prof)
    assert got["expr"] == pytest.approx(0.8)
    assert got["other"] == pytest.approx(0.1)
    assert got["fractions"] == pytest.approx(0.2)
