"""The demos print what they printed when their stdout was recorded.

Each demo runs in a fresh interpreter, as a user would run it, and its
stdout is compared byte for byte with the file of the same name under
tests/demo_stdout.  limit_curves.py is left out: it prints the absolute
paths of the CSVs it writes, and test_refine checks those CSVs instead.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


@pytest.mark.parametrize("name", ["scalar_bsplines", "hermite_rounds", "certificates",
                                  "double_knot_vector"])
def test_demo_stdout_is_pinned(name):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"),
                                                      env.get("PYTHONPATH")]))
    run = subprocess.run([sys.executable, str(ROOT / "demos" / f"{name}.py")],
                         capture_output=True, env=env, cwd=ROOT, timeout=120)
    assert run.returncode == 0, run.stderr.decode()
    assert run.stdout == (ROOT / "tests" / "demo_stdout" / f"{name}.txt").read_bytes()
