"""What `import minicas` loads, each case in a fresh interpreter.

The package loads a submodule on first use of one of its names, and
`minicas.numbers` imports mpmath with the first float.  These tests pin
that import graph: a bare import loads nothing, an exact session never
imports mpmath, and every way of making a float first loads it and
prints what it printed when mpmath was imported eagerly.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import minicas

ROOT = Path(__file__).resolve().parents[1]
LOADED = ("import sys; print(sorted(m for m in sys.modules "
          "if m.split('.')[0] in ('minicas', 'mpmath') and m.count('.') < 2))")


def _fresh(code: str) -> list:
    """The lines a new interpreter prints running code."""
    env = dict(os.environ)
    src = os.path.dirname(os.path.dirname(minicas.__file__))
    env["PYTHONPATH"] = os.pathsep.join([src, str(ROOT), env.get("PYTHONPATH", "")])
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True,
                          timeout=120, check=True)
    return done.stdout.splitlines()


def test_import_minicas_loads_no_submodule_and_no_mpmath():
    assert _fresh(f"import minicas; {LOADED}") == ["['minicas']"]


def test_an_exact_session_never_imports_mpmath():
    got = _fresh(f"""
import minicas as mc
x, y = mc.symbols("x y")
print(mc.to_string(mc.expand(mc.power(mc.add(x, y, 1), 2))))
print(mc.to_string(mc.normal(mc.add(mc.power(mc.add(x, 1), -1), mc.power(mc.add(x, -1), -1)))))
xy = mc.expand(mc.mul(mc.add(x, 1), mc.add(x, y)))
print(mc.to_string(mc.poly_gcd(xy, mc.expand(mc.mul(mc.add(x, 1), mc.add(x, mc.mul(-1, y)))))))
m = mc.matrix([[mc.power(mc.add(x, 1), -1), y], [x, mc.power(mc.add(x, y), -1)]])
print(mc.to_string(mc.mat_det(m)))
q = mc.mul(mc.add(x, 1), mc.power(mc.add(1, mc.mul(-1, x)), -1))
print(mc.to_string(mc.series_of(q, mc.Eq(x, 0), 4)))
print(mc.Shell().feed("gcd(x^2-1, x^2+2*x+1);"))
{LOADED}
""")
    assert got[:-1] == [
        "1+2*x+2*y+x^2+y^2+2*x*y",
        "2*x*(-1+x^2)^(-1)",
        "1+x",
        "(x+y+x^2+x*y)^(-1)*(1-x*y^2-x^2*y-x^2*y^2-x^3*y)",
        "1+2*x+2*x^2+2*x^3+O(x^4)",
        "['1+x']",
    ]
    assert "mpmath" not in got[-1] and "'minicas.bench'" not in got[-1]


# each way a session can make its first float, and what it prints
FIRST_FLOATS = {
    "from minicas import num; print(num(0.5))": "0.5",
    "from minicas import from_decimal; print(from_decimal('2.5'))": "2.5",
    "import minicas as mc; print(mc.to_string(mc.evalf(mc.lift(mc.num(1) / 3))))":
        "0.33333333333333333333",
    "import minicas as mc; print(mc.to_string(mc.evalf(mc.Pi, 30)))":
        "3.14159265358979323846264338328",
    "import minicas as mc; print(mc.to_string(mc.evalf(mc.add(mc.Euler, mc.Catalan), 25)))":
        "1.493181259078751875661116",
    "import minicas as mc; print(mc.to_string(mc.sin(1.0)))": "0.84147098480789650665",
    "from fractions import Fraction; from minicas import num, num_to_float; "
    "print(num_to_float(num(Fraction(2, 7)), 30))": "0.285714285714285714285714285714",
    "from minicas.numbers import IUNIT, num_pow, rational; print(num_pow(IUNIT, rational(1, 2)))":
        "0.7071067811865475244+0.7071067811865475244*I",
    "import minicas as mc; print(mc.Shell().feed('evalf(Pi*2/3, 30);'))":
        "['2.09439510239319549230842892219']",
}


@pytest.mark.parametrize("code", FIRST_FLOATS)
def test_the_first_float_loads_mpmath_and_prints_what_it_printed(code):
    assert _fresh(f"{code}; import sys; print('mpmath' in sys.modules)") == [FIRST_FLOATS[code], "True"]


def test_the_package_namespace_imports_on_first_use():
    got = _fresh("""
import minicas
from perfbench.layers import LAYERS
for name in LAYERS:
    if name not in ("fractions", "mpmath"):
        assert getattr(minicas, name) is __import__("minicas." + name, fromlist=["_"]), name
for name in ("mpmath", "fractions", "no_such_name"):
    try:
        getattr(minicas, name)
    except AttributeError:
        pass
    else:
        raise AssertionError(name)
from minicas import *
assert all(name in globals() for name in minicas.__all__)
print(len(minicas.__all__), set(minicas.__all__) <= set(dir(minicas)), "bench" in dir(minicas))
""")
    assert got == ["100 True True"]
