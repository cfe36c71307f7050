"""The benchmark tracer wraps names by string; a refactor that drops one
breaks only traced benchmark runs, so the names are checked here."""

import importlib
import importlib.util
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
