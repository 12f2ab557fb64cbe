"""The benchmark's smoke mode runs every workload once on tiny inputs and
checks each op against its reference; it must pass."""

import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def test_bench_smoke():
    res = subprocess.run(
        [sys.executable, os.path.join(ROOT, "perfbench", "run.py"), "--smoke"],
        capture_output=True, text=True, timeout=170, cwd=ROOT)
    assert res.returncode == 0, res.stdout + res.stderr
