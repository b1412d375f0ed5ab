"""The demos print what they printed when they were written.

demos/exact_matrices.py and demos/session.mc each run in a fresh
interpreter, the script through `minicas shell --script`, and their
standard output is compared byte for byte with the text below, so a
change that moves one of their printed forms shows the line that moved.
"""

import os
import subprocess
import sys
from pathlib import Path

import minicas

DEMOS = Path(__file__).resolve().parents[1] / "demos"

EXACT_MATRICES = """\
det H4  = 1/6048000
H4^-1   = [[16,-120,240,-140],[-120,1200,-2700,1680],[240,-2700,6480,-4200],[-140,1680,-4200,2800]]
check   = [[1,0,0,0],[0,1,0,0],[0,0,1,0],[0,0,0,1]]
charpoly: 11-3*lambda+lambda^2
lsolve  : [x==2,y==2-a,z==2+a]
"""

SESSION = """\
x^4+y^4+4*x*y^3+6*x^2*y^2+4*x^3*y
1+4*x+6*x^2+4*x^3+x^4
5/6
0
1+1/2*c^(-2)*v^2+3/8*c^(-4)*v^4+O(v^6)
t^(-1)-Euler+(1/12*Pi^2+1/2*Euler^2)*t+(-1/6*Euler^3-1/12*Pi^2*Euler-1/3*zeta(3))*t^2+O(t^3)
1+x
[p==7,q==3]
1+u^2
3.1415926535897932385
"""


def _stdout(*args):
    env = dict(os.environ)
    src = os.path.dirname(os.path.dirname(minicas.__file__))
    env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
    return subprocess.run([sys.executable, *args], env=env, capture_output=True, text=True,
                          timeout=120, check=True).stdout


def test_exact_matrices_demo_prints_what_it_printed():
    assert _stdout(str(DEMOS / "exact_matrices.py")) == EXACT_MATRICES


def test_session_script_prints_what_it_printed():
    got = _stdout("-m", "minicas.cli", "shell", "--script", str(DEMOS / "session.mc"))
    assert got == SESSION
