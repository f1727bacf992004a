"""Smoke test of the demos: each runs as a script in a fresh interpreter with
src on PYTHONPATH, exits 0 and prints something.  demos/scaling_limits.py is
left out: it takes several seconds, several times the others together, and
the scaling checks it shows are the acceptance criteria's own."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DEMOS = ["paintbox_basics.py", "splitting_rules.py", "alpha_gamma_trees.py",
         "spinal_subordinators.py"]


@pytest.mark.parametrize("demo", DEMOS)
def test_demo_runs(demo):
    path = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    r = subprocess.run([sys.executable, str(ROOT / "demos" / demo)], capture_output=True,
                       text=True, cwd=ROOT, env=dict(os.environ, PYTHONPATH=path), timeout=120)
    assert r.returncode == 0, r.stderr
    assert r.stdout.strip()
