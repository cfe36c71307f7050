"""The calibration scripts run end to end; their stdout is pinned by sha256."""

import hashlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]

SCRIPT_PINS = {
    "braiding_table.py": "607099028b993a47b06fb91054e92dcafde1f52824607d3f264ce976baa95e16",
    "convention_audit.py": "27164ec2b0b9e72ae3e52aa322e60004773ffb5bffa2f871f3b2d41f4f53f3f7",
}


@pytest.mark.parametrize("script", sorted(SCRIPT_PINS))
def test_script_output_is_pinned(script):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / script)],
        capture_output=True,
        env=env,
        check=True,
    )
    assert hashlib.sha256(proc.stdout).hexdigest() == SCRIPT_PINS[script]
