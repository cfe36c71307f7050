"""The benchmark harness on tiny grids: python3 -m pytest perfbench"""

import subprocess
import sys
from pathlib import Path


def test_smoke_reports_every_metric():
    run = Path(__file__).with_name("run.py")
    done = subprocess.run(
        [sys.executable, str(run), "--smoke"], capture_output=True, text=True, timeout=120
    )
    assert done.returncode == 0, done.stdout + done.stderr
    assert done.stdout.rstrip().endswith("smoke ok")
