"""In-process tracer for one `qhowe verify` run.

Run as a script in a fresh interpreter:

    python3 perfbench/tracer.py STATS_JSON SPANS_JSON verify <suite> <args...>

It imports qhowe, replaces each layer's public entry points with timing
wrappers (everywhere the package binds them, including `from .x import f`
copies), runs the CLI in-process and writes per-entry self time and call
counts, per-kind cache hits and entries, and the covered share of the run's
wall time to STATS_JSON.  Structural spans (name, start, end, parent) are
kept in memory up to a cap and written to SPANS_JSON at exit; the scalar
and sparse-operator kernels are counted and timed but not recorded one by
one, because they run millions of times.
"""

from __future__ import annotations

import json
import sys
import time

# (layer, owner class or None, attribute, metric entry or None).  An entry
# of None still counts toward the layer's totals but has no metric of its
# own; verify_* functions of each layer are added automatically.
ENTRY_POINTS = (
    ("qring", "Laurent", "__init__", "init"),
    ("qring", "Laurent", "__add__", "add"),
    ("qring", "Laurent", "__radd__", "add"),
    ("qring", "Laurent", "__mul__", "mul"),
    ("qring", "Laurent", "__rmul__", "mul"),
    ("qring", "Laurent", "divexact", "divexact"),
    ("_linalg", "SparseOp", "apply", "apply"),
    ("_linalg", "SparseOp", "__matmul__", "matmul"),
    ("_linalg", "SparseOp", "__add__", "add"),
    ("_linalg", "SparseOp", "scale", "scale"),
    ("_linalg", None, "nullspace", "nullspace"),
    ("_linalg", None, "laurent_gcd", "laurent_gcd"),
    ("qmodule", "Module", "act", "act"),
    ("qmodule", None, "act_divided", "act_divided"),
    ("qmodule", None, "singular_vectors", "singular_vectors"),
    ("howe", "HoweSpace", "slm_op", "slm_op"),
    ("howe", "HoweSpace", "sl2_op", "sl2_op"),
    ("howe", "SlotModule", "act", "slot_act"),
    ("howe", None, "lowest_weight_vector", "lowest_weight_vector"),
    ("braidgrp", None, "rank1_weyl", "rank1_weyl"),
    ("braidgrp", None, "weyl_longest", "weyl_longest"),
    ("braidgrp", None, "half_twist_R", "half_twist_R"),
    ("braidgrp", None, "howe_weyl_op", "howe_weyl_op"),
    ("braidgrp", None, "selected_variant", None),
    ("ktheory", None, "divided_op", "divided_op"),
    ("ktheory", None, "rickard_euler", "rickard_euler"),
    ("ktheory", None, "grading_sign", None),
    ("geomcheck", None, "codim_checks", None),
    ("geomcheck", None, "fiber_bundle_facts", None),
    ("geomcheck", None, "adjunction_shifts", None),
    ("report", "Report", "json_bytes", "json_bytes"),
)

# Layers whose calls are aggregated only, never recorded as single spans.
UNRECORDED_LAYERS = ("qring", "_linalg")

# Cache key kinds reported by name (the first element of a `_cached` key).
CACHE_KINDS = ("act", "slot_act", "weyl1", "divided", "howe_weyl", "half_twist", "lwv", "op")

SPAN_CAP = 20000

# Calls per round and rounds used to price one wrapper call.
CALIBRATION_CALLS = 50000
CALIBRATION_ROUNDS = 5


def span_name(layer: str, owner, attr: str) -> str:
    return f"{layer}.{owner}.{attr}" if owner else f"{layer}.{attr}"


class Tracer:
    """Span stack with per-name self time and call counts.

    A frame is [child_seconds, span_id]; a span's self time is its duration
    minus the durations of the spans directly inside it.  Both sides are
    corrected by the calibrated cost of a wrapper: its work inside its own
    span is taken from the span's self time, its work outside is charged to
    no one, so self times add up to about the untraced run's time.
    """

    def __init__(self):
        self.stats: dict[str, list] = {}  # span name -> [calls, self_s]
        self.stack: list[list] = []
        self.root_s = [0.0]
        self.spans: list[list] = []
        self.dropped = [0]
        # `record` -> (seconds a wrapper adds outside, inside its own span)
        self.call_cost = {False: (0.0, 0.0), True: (0.0, 0.0)}

    def calibrate(self):
        """Price one call of each wrapper kind, outside and inside its span.

        Inside is what a wrapped no-op records; outside is the wrapped no-op's
        time less the bare no-op's and less inside.  Each is the least over a
        few rounds.  Call before wrap(): each wrapper reads the price when it
        is made.
        """
        def noop():
            pass

        clock = time.perf_counter
        loop = range(CALIBRATION_CALLS)
        for record in (False, True):
            probe = Tracer()
            wrapped = probe.wrap("noop", noop, record)
            stat = probe.stats["noop"]
            outside, inside = [], []
            for _ in range(CALIBRATION_ROUNDS):
                stat[1] = 0.0
                t0 = clock()
                for _ in loop:
                    noop()
                t1 = clock()
                for _ in loop:
                    wrapped()
                t2 = clock()
                outside.append((t2 - 2 * t1 + t0 - stat[1]) / CALIBRATION_CALLS)
                inside.append(stat[1] / CALIBRATION_CALLS)
            self.call_cost[record] = (max(0.0, min(outside)), min(inside))

    def wrap(self, name: str, fn, record: bool):
        stats = self.stats.setdefault(name, [0, 0.0])
        stack = self.stack
        root_s = self.root_s
        spans = self.spans
        dropped = self.dropped
        outside, inside = self.call_cost[record]
        clock = time.perf_counter

        if not record:

            def counted(*args, **kwargs):
                frame = [0.0, stack[-1][1] if stack else -1]
                stack.append(frame)
                t0 = clock()
                try:
                    return fn(*args, **kwargs)
                finally:
                    dt = clock() - t0
                    stack.pop()
                    stats[0] += 1
                    stats[1] += dt - frame[0] - inside
                    if stack:
                        stack[-1][0] += dt + outside
                    else:
                        root_s[0] += dt

            return counted

        def recorded(*args, **kwargs):
            parent = stack[-1][1] if stack else -1
            if len(spans) < SPAN_CAP:
                span = [name, 0.0, 0.0, parent]
                span_id = len(spans)
                spans.append(span)
            else:
                span = None
                span_id = parent
                dropped[0] += 1
            frame = [0.0, span_id]
            stack.append(frame)
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                t1 = clock()
                dt = t1 - t0
                stack.pop()
                stats[0] += 1
                stats[1] += dt - frame[0] - inside
                if span is not None:
                    span[1] = t0
                    span[2] = t1
                if stack:
                    stack[-1][0] += dt + outside
                else:
                    root_s[0] += dt

        return recorded

    def add_root_span(self, name: str, t0: float, t1: float):
        """Record a span timed outside any wrapper (the package import)."""
        self.stats.setdefault(name, [0, 0.0])
        self.stats[name][0] += 1
        self.stats[name][1] += t1 - t0
        self.root_s[0] += t1 - t0
        self.spans.append([name, t0, t1, -1])


def _rebind(modules, old, new):
    """Point every module-level name bound to `old` at `new`."""
    for mod in modules:
        for attr, value in list(vars(mod).items()):
            if value is old:
                setattr(mod, attr, new)


def install(tracer: Tracer):
    """Wrap the entry points and the module cache; return the cache counters."""
    from qhowe import _linalg, braidgrp, cli, geomcheck, howe, ktheory, qmodule, qring, report

    layers = {
        "qring": qring, "_linalg": _linalg, "qmodule": qmodule, "howe": howe,
        "braidgrp": braidgrp, "ktheory": ktheory, "geomcheck": geomcheck, "report": report,
    }
    # Every loaded module of the package, so `from .x import f` copies are
    # rebound wherever they were made.
    modules = [mod for name, mod in sorted(sys.modules.items())
               if mod is not None and (name == "qhowe" or name.startswith("qhowe."))]
    targets = list(ENTRY_POINTS)
    for layer in ("howe", "braidgrp", "ktheory", "geomcheck"):
        mod = layers[layer]
        for attr, value in sorted(vars(mod).items()):
            if attr.startswith("verify_") and getattr(value, "__module__", None) == mod.__name__:
                targets.append((layer, None, attr, None))

    for layer, owner, attr, _ in targets:
        mod = layers[layer]
        record = layer not in UNRECORDED_LAYERS
        name = span_name(layer, owner, attr)
        if owner is None:
            orig = getattr(mod, attr)
            _rebind(modules, orig, tracer.wrap(name, orig, record))
        else:
            cls = getattr(mod, owner)
            orig = vars(cls)[attr]
            setattr(cls, attr, tracer.wrap(name, orig, record))

    cache = qmodule._MODULE_CACHE
    lookups: dict[str, list] = {}  # kind -> [lookups, hits]
    orig_cached = qmodule._cached

    def cached(key, build):
        st = lookups.get(key[0])
        if st is None:
            st = lookups[key[0]] = [0, 0]
        st[0] += 1
        if key in cache:
            st[1] += 1
        return orig_cached(key, build)

    _rebind(modules, orig_cached, cached)
    return cache, lookups


def entry_metric(name: str):
    """(layer, entry) for a span name, entry None when it has no metric."""
    layer = name.split(".", 1)[0]
    for lay, owner, attr, entry in ENTRY_POINTS:
        if span_name(lay, owner, attr) == name:
            return lay, entry
    return layer, None


def main(argv) -> int:
    stats_path, spans_path, *cli_args = argv
    tracer = Tracer()
    tracer.calibrate()
    t_start = time.perf_counter()
    import qhowe  # noqa: F401  (timed as the setup.import span)
    from qhowe import cli

    t_imported = time.perf_counter()
    tracer.add_root_span("setup.import", t_start, t_imported)
    cache, lookups = install(tracer)
    rc = cli.main(cli_args)
    wall = time.perf_counter() - t_start

    entries: dict[str, int] = {}
    for key in cache:
        entries[key[0]] = entries.get(key[0], 0) + 1
    out = {
        "rc": rc,
        "wall_s": wall,
        "covered_s": tracer.root_s[0],
        "spans": {name: {"calls": c, "self_s": s} for name, (c, s) in sorted(tracer.stats.items())},
        "cache": {
            kind: {"lookups": lookups.get(kind, [0, 0])[0], "hits": lookups.get(kind, [0, 0])[1],
                   "entries": entries.get(kind, 0)}
            for kind in sorted(set(CACHE_KINDS) | set(entries) | set(lookups))
        },
        "call_cost_s": {kind: dict(zip(("outside", "inside"), tracer.call_cost[record]))
                        for kind, record in (("counted", False), ("recorded", True))},
        "spans_recorded": len(tracer.spans),
        "spans_dropped": tracer.dropped[0],
    }
    with open(stats_path, "w") as fh:
        json.dump(out, fh, sort_keys=True)
    with open(spans_path, "w") as fh:
        json.dump({"fields": ["name", "start", "end", "parent"], "spans": tracer.spans}, fh)
    return rc


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
