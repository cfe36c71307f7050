"""The calibration scripts run end to end; their stdout is pinned by sha256.
The report gate is run on small reports."""

import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from qhowe.report import Report, check

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


# scripts/report_gate.py: OLD.json NEW.json [ID ...]

BASE = [check("a.one", {"m": 1}, True), check("b.two", {"m": 2}, False, "2 want 1")]


def write_report(path, checks):
    payload = Report("0", {"coproduct": "standard"}, checks).json_bytes()
    # the gate re-renders a parsed report with json.dumps to these very bytes
    assert (json.dumps(json.loads(payload), sort_keys=True, indent=2) + "\n").encode() == payload
    path.write_bytes(payload)
    return str(path)


def gate(*args):
    return subprocess.run([sys.executable, str(ROOT / "scripts" / "report_gate.py"), *args],
                          capture_output=True, text=True)


def test_report_gate_passes_a_report_against_itself(tmp_path):
    old = write_report(tmp_path / "old.json", BASE)
    assert gate(old, old).returncode == 0
    proc = gate(old, old, "b.two")
    assert proc.returncode == 0
    assert "b.two: (0, 1) -> (0, 1)" in proc.stdout


def test_report_gate_passes_an_added_record_only_when_listed(tmp_path):
    old = write_report(tmp_path / "old.json", BASE)
    new = write_report(tmp_path / "new.json", [*BASE, check("c.new", {"m": 3}, True)])
    assert gate(old, new).returncode == 1
    assert gate(old, new, "a.one").returncode == 1
    proc = gate(old, new, "c.new")
    assert proc.returncode == 0
    assert "c.new: (0, 0) -> (1, 0)" in proc.stdout


def test_report_gate_fails_a_flipped_status_in_a_kept_record(tmp_path):
    old = write_report(tmp_path / "old.json", BASE)
    flipped = [check("a.one", {"m": 1}, False, "0 want 1"), BASE[1]]
    new = write_report(tmp_path / "new.json", [*flipped, check("c.new", {"m": 3}, True)])
    proc = gate(old, new, "c.new")
    assert proc.returncode == 1
    assert "differ" in proc.stdout
