"""tools/setup_split.py on one fresh set-up of a small workload."""

import importlib.util
import pathlib

_ROOT = pathlib.Path(__file__).resolve().parents[1]
_SPEC = importlib.util.spec_from_file_location("setup_split", _ROOT / "tools" / "setup_split.py")
setup_split = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(setup_split)


def test_a_set_up_splits_into_its_stages_and_lists_what_it_loaded():
    got = setup_split.split(str(_ROOT), "canon-expand", 1, 1)
    (run,) = got["runs"]
    assert list(run["seconds"]) == list(setup_split.STAGES)
    assert all(t > 0 for t in run["seconds"].values())
    assert abs(sum(run["seconds"].values()) - run["total_s"]) < 1e-6
    assert got["summary"]["build"]["median"] == run["seconds"]["build"]
    assert run["warm_up_failed"] == 0
    # an exact workload: its layers and no float, so no mpmath
    assert {"minicas.expr", "minicas.numbers", "minicas.poly"} <= set(run["minicas_modules"])
    assert "minicas.bench" not in run["minicas_modules"] and run["mpmath_loaded"] is False
