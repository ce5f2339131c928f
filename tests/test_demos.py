"""The quick demos run to completion as scripts.

Each demo runs in a fresh interpreter with PYTHONPATH=src and must exit 0;
verify_invariance_demo.py also reads the fields of a violation record.
reconstruction_accuracy.py (about 11 s) and threshold_sweeps.py (about
26 s) are left out of this suite because of their run time.
"""

import os
import subprocess
import sys

import pytest

ROOT = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir)
QUICK_DEMOS = ["verify_invariance_demo.py", "region_and_certificates.py",
               "run_modulator.py"]


@pytest.mark.parametrize("name", QUICK_DEMOS)
def test_demo_exits_zero(name):
    env = {**os.environ, "PYTHONPATH": os.path.join(ROOT, "src")}
    proc = subprocess.run([sys.executable, os.path.join(ROOT, "demos", name)],
                          cwd=ROOT, env=env, capture_output=True, text=True,
                          timeout=120)
    assert proc.returncode == 0, proc.stderr[-2000:]
    assert proc.stdout
