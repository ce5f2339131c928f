"""The quick demos run to completion as scripts, with pinned output.

Each demo runs in a fresh interpreter with PYTHONPATH=src, must exit 0 and
print exactly the bytes whose sha256 is pinned below; verify_invariance_demo.py
also reads the fields of a violation record.  reconstruction_accuracy.py
(about 11 s) and threshold_sweeps.py (about 26 s) are left out of this
suite because of their run time.
"""

import hashlib
import os
import subprocess
import sys

import pytest

ROOT = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir)
QUICK_DEMOS = {
    "verify_invariance_demo.py":
        "83ef102f8a3db7fae87e51160b773f5959a5e8b74f390b56aee76b9fd5855197",
    "region_and_certificates.py":
        "f88eb8b77b760a2c3a1fda9ac9f8b9c0038128fc29d7e289678cebf2b317f00b",
    "run_modulator.py":
        "5442b78951d471cf7483a376c275ff8d67dc50516c21b8136fa28af6ae585304",
}


@pytest.mark.parametrize("name", QUICK_DEMOS)
def test_demo_exits_zero(name):
    env = {**os.environ, "PYTHONPATH": os.path.join(ROOT, "src")}
    proc = subprocess.run([sys.executable, os.path.join(ROOT, "demos", name)],
                          cwd=ROOT, env=env, capture_output=True, timeout=120)
    assert proc.returncode == 0, proc.stderr[-2000:].decode(errors="replace")
    assert hashlib.sha256(proc.stdout).hexdigest() == QUICK_DEMOS[name]
