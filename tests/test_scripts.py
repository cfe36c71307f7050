"""The audit scripts run end to end; their stdout is pinned by sha256.
The report gate is run on small reports, and the benchmark pair summary on
fixed run lists."""

import hashlib
import importlib.util
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


def _script(name):
    spec = importlib.util.spec_from_file_location(name[:-3], ROOT / "scripts" / name)
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


def test_convention_audit_fails_a_constant_that_is_not_the_survivor(monkeypatch, capsys):
    audit = _script("convention_audit.py")
    monkeypatch.setattr(audit.bg, "selected_variant", lambda: ("efe", 1))
    with pytest.raises(SystemExit, match=r"Weyl variant: survivors \[\('fef', -1\)\]"):
        audit.weyl_variants()
    monkeypatch.setattr(audit.kt, "grading_sign", lambda: 1)
    with pytest.raises(SystemExit, match=r"grading sign: survivors \[-1\]"):
        audit.grading_signs(("fef", -1))
    assert "selected" not in capsys.readouterr().out


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


# scripts/bench_pairs.py: alternating benchmark pairs and their summary


def _metrics(wall, rss=22.0, setup=0.07):
    return {"wall_norm_s": wall, "peak_rss_mb": rss, "setup_s": setup}


def test_bench_pairs_summary_on_fixed_runs():
    bp = _script("bench_pairs.py")
    parent = [0.20, 0.19, 0.21, 0.22]
    change = [0.17, 0.18, 0.16, 0.23]
    summary = bp.summarize([(_metrics(p), _metrics(c, setup=0.08)) for p, c in zip(parent, change)],
                           failed_runs=1)
    assert summary["pairs"] == 4 and summary["failed_runs"] == 1
    # exclusive quartiles of 4 runs sit at sorted positions 1.25 and 3.75
    assert summary["wall_norm_s"] == {
        "parent": {"median": 0.205, "iqr": 0.025, "runs": parent},
        "change": {"median": 0.175, "iqr": 0.055, "runs": change},
        "change_lower_in_pairs": 3,
    }
    # a tie is not lower, and equal runs have no spread
    assert summary["peak_rss_mb"]["change_lower_in_pairs"] == 0
    assert summary["peak_rss_mb"]["parent"] == {"median": 22.0, "iqr": 0.0, "runs": [22.0] * 4}
    assert summary["setup_s"]["change_lower_in_pairs"] == 0
    one = bp.summarize([(_metrics(0.123456), _metrics(0.1))])
    assert one["wall_norm_s"]["parent"] == {"median": 0.1235, "iqr": 0.0, "runs": [0.1235]}


def test_bench_pairs_alternate_and_drop_a_failed_pair(monkeypatch):
    bp = _script("bench_pairs.py")
    calls = []

    def run_once(checkout, workload, seed, seconds):
        calls.append((checkout, seed))
        if checkout == "change" and seed == 3:
            return None
        return _metrics(0.2 if checkout == "parent" else 0.1)

    monkeypatch.setattr(bp, "run_once", run_once)
    summary = bp.bench_workload("parent", "change", "ktheory_m5", 4, 1.0)
    assert calls == [("parent", 1), ("change", 1), ("change", 2), ("parent", 2),
                     ("parent", 3), ("change", 3), ("change", 4), ("parent", 4)]
    assert summary["pairs"] == 3 and summary["failed_runs"] == 1
    assert summary["wall_norm_s"]["change_lower_in_pairs"] == 3
