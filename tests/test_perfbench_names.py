"""The traced benchmark names minicas functions by string: each call
count in perfbench.layers is looked up by module and function name, and
a name that no longer resolves is reported as null.  This test keeps
every such name pointing at a real function, so that renaming or
deleting a counted function fails here rather than in a traced run.
"""

import fractions
import sys
from pathlib import Path

import minicas

ROOT = Path(__file__).resolve().parents[1]
if str(ROOT) not in sys.path:
    sys.path.insert(0, str(ROOT))

from perfbench import layers  # noqa: E402


def test_every_counted_function_exists():
    # the lookup the traced run makes: each layer is an attribute of the
    # minicas package, and fractions is the standard library's
    modules = {name: getattr(minicas, name, None) for name in layers.LAYERS}
    modules["fractions"] = fractions
    # counts() notes each function of COUNTED or FALLBACK that does not
    # resolve, and reports its count as null
    counts, notes = layers.counts({}, modules)
    assert notes == []
    assert None not in counts.values()
