"""The benchmark's own test: its smoke mode must pass.

    python3 -m pytest perfbench
"""

import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def test_smoke():
    res = subprocess.run([sys.executable, os.path.join(HERE, "run.py"), "--smoke"],
                         capture_output=True, text=True, timeout=170)
    assert res.returncode == 0, res.stdout + res.stderr
