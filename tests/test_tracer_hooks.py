"""The benchmark tracer wraps names by string and hooks the module cache; a
refactor that breaks either breaks only traced benchmark runs, so the names
and one traced run are checked here."""

import importlib
import importlib.util
import json
import subprocess
import sys
from pathlib import Path

from qhowe import qmodule

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def _tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


def test_tracer_entry_points_resolve():
    for layer, owner, attr, _ in _tracer().ENTRY_POINTS:
        mod = importlib.import_module(f"qhowe.{layer}")
        if owner is None:
            assert callable(getattr(mod, attr, None)), (layer, attr)
        else:
            # the tracer replaces the attribute in the owner's own class body
            assert attr in vars(getattr(mod, owner)), (layer, owner, attr)


def test_tracer_cache_hooks_exist():
    assert callable(qmodule._cached)
    assert isinstance(qmodule._MODULE_CACHE, dict)


def test_traced_verify_run(tmp_path):
    # install() rebinds package functions, so the traced run gets its own
    # interpreter; this also exercises the tracer's _cached hook end to end.
    # Every suite runs, so the calls include the slot generators that the
    # howe suite builds
    stats, spans, report = (tmp_path / n for n in ("stats.json", "spans.json", "report.json"))
    done = subprocess.run(
        [sys.executable, str(TRACER), str(stats), str(spans), "verify", "all",
         "--m", "1:2", "--N", "1:2", "--format", "json", "--out", str(report)],
        capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 0, done.stdout + done.stderr
    payload = json.loads(stats.read_text())
    assert payload["rc"] == 0
    assert payload["covered_s"] > 0
    assert payload["cache"]["act"]["entries"] == 0
    assert payload["cache"]["op"]["lookups"] > 0
    # every cached builder reads the hook the tracer installs: a kind whose
    # entries were stored without a counted lookup escaped it
    cache = payload["cache"]
    for kind, st in cache.items():
        assert st["lookups"] >= st["entries"], (kind, st)
    for kind in ("basis", "slot_basis", "howe_basis", "op", "weyl1", "divided", "howe_weyl"):
        assert cache[kind]["entries"] > 0, kind
    # SlotModule.act is Module.act under a second name in SlotModule's class
    # body; the slot_act metric must still see it called
    assert payload["spans"]["howe.SlotModule.act"]["calls"] > 0
