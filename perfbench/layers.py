"""Per-layer self time and call counts from a cProfile profile.

The profiler is attached from outside the program, around the compute
and print calls of a pass; nothing inside minicas is instrumented.  A
Python function's self time goes to the layer of the file it is defined
in.  A builtin's self time goes to the layer of each caller, in the
share cProfile recorded for that caller, so ``sorted`` called by the
expression constructors counts as ``expr`` time.
"""

from __future__ import annotations

import os

# The minicas modules that make up the layers, plus the two libraries
# underneath.  Everything else (the benchmark itself, errors, the
# interpreter) is "other".
LAYERS = ("numbers", "expr", "poly", "series", "functions", "matrices", "parser",
          "shell", "fractions", "mpmath")

# metric name -> (layer module, function name); counts are cProfile's
# total calls, recursive ones included.
COUNTED = {
    "numbers.num_cmp.calls": ("numbers", "num_cmp"),
    "numbers.hash64.calls": ("numbers", "hash64"),
    "fractions.Fraction.calls": ("fractions", "Fraction.__new__"),
    "expr.compare.calls": ("expr", "compare"),
    "expr.mul.calls": ("expr", "_mul_factors"),
    "expr.add.calls": ("expr", "_add_terms"),
    "expr.render.calls": ("expr", "_render"),
    "poly.normal.calls": ("poly", "normal"),
    "poly.gcd.calls": ("poly", "_dict_gcd"),
    "poly.heur_attempts": ("poly", "_heur_attempt"),
    "poly.sr_gcd.calls": ("poly", "_sr_gcd_z"),
    "poly.dmul.calls": ("poly", "_dmul"),
    "series.ps_mul.calls": ("series", "ps_mul"),
    "matrices.det_bareiss_dict.calls": ("matrices", "_det_bareiss_dict"),
    "matrices.det_bareiss.calls": ("matrices", "_det_bareiss"),
    "matrices.det_cofactor.calls": ("matrices", "_det_cofactor"),
    "parser.parse.calls": ("parser", "parse"),
}

# The subresultant gcd counts as a fallback only when _dict_gcd
# calls it after the heuristic gave up.
FALLBACK = ("poly", "_sr_gcd_z", "_dict_gcd")


def layer_of(filename: str) -> str:
    path = filename.replace(os.sep, "/")
    base = path.rsplit("/", 1)[-1]
    if "/minicas/" in path and base.endswith(".py") and base[:-3] in LAYERS:
        return base[:-3]
    if base == "fractions.py" and "/minicas/" not in path:
        return "fractions"
    if "/mpmath/" in path:
        return "mpmath"
    return "other"


def _func_key(stats: dict, layer: str, name: str):
    for key in stats:
        filename, _, funcname = key
        if funcname == name.rsplit(".", 1)[-1] and layer_of(filename) == layer:
            return key
    return None


def self_times(stats: dict) -> dict:
    """layer -> self seconds, from pstats' raw stats dict."""
    out = {name: 0.0 for name in LAYERS + ("other",)}
    for (filename, _, _), (_, _, tt, _, callers) in stats.items():
        if filename == "~":
            # a builtin: split its time across the layers that called it
            for (cfile, _, _), cstat in callers.items():
                out[layer_of(cfile)] += cstat[2]
            spare = tt - sum(c[2] for c in callers.values())
            out["other"] += max(spare, 0.0)
        else:
            out[layer_of(filename)] += tt
    return out


def counts(stats: dict, modules: dict) -> tuple[dict, list]:
    """Named call counts and notes.

    modules maps a layer name to its imported module.  A count whose
    function no longer exists in that module is None, with a note; a
    function that exists but never ran counts 0.
    """
    out: dict = {}
    notes: list = []
    for metric, (layer, name) in COUNTED.items():
        if not _exists(modules[layer], name):
            out[metric] = None
            notes.append(f"{metric}: {layer}.{name} no longer exists; count reported as null")
            continue
        key = _func_key(stats, layer, name)
        out[metric] = stats[key][1] if key else 0
    layer, name, caller = FALLBACK
    if _exists(modules[layer], name) and _exists(modules[layer], caller):
        key = _func_key(stats, layer, name)
        calls = 0
        if key:
            calls = sum(c[1] for (cf, _, cn), c in stats[key][4].items()
                        if cn == caller and layer_of(cf) == layer)
        out["poly.sr_fallbacks"] = calls
    else:
        out["poly.sr_fallbacks"] = None
        notes.append(f"poly.sr_fallbacks: {layer}.{name} or {layer}.{caller} no longer "
                     "exists; count reported as null")
    return out, notes


def _exists(module, dotted: str) -> bool:
    obj = module
    for part in dotted.split("."):
        obj = getattr(obj, part, None)
        if obj is None:
            return False
    return True


def cumulative(stats: dict, layer: str, name: str) -> float:
    key = _func_key(stats, layer, name)
    return stats[key][3] if key else 0.0
