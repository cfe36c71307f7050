#!/usr/bin/env python3
"""Benchmark for the qhowe exact verifier.

    python3 perfbench/run.py --workload desk_all --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --smoke

Each workload is one `qhowe verify` command on a fixed parameter grid.  Every
verify run is a fresh interpreter started from this process (serial path, no
`--jobs`), so each starts with empty module caches; its report is checked
(exit status 0, `summary.fail == 0`, no `internal.error`, the same sha256 on
every repeat) before any number is reported.

--trace 0 reports the end-to-end metrics: `wall_norm_s` (launch to exit of the
verify process), `peak_rss_mb` (that process's own peak resident set, from
wait4) and `setup_s` (time for a fresh interpreter to import qhowe and resolve
the calibrated conventions), each the median over the samples that fit in
--seconds.  The two times are taken at the reference speed: a fixed
pure-Python computation (perfbench/reference.py) is timed before and
after every sample, and the sample is scaled by REF_SECONDS over the mean of
the two.  A shared host changes its speed by up to 1.5x for tens of seconds
at a time; the verifier's time and the reference's move together, so their
ratio holds still where the raw wall time does not.  The raw medians are
printed by name (`wall_s`, `setup_raw_s`) and kept in the record.

--trace 1 pairs an untraced run with a run under perfbench/tracer.py and
reports per-layer self time, call counts, cache entries and hit ratios, CPU
time, tracing overhead and span coverage.

The verifier takes no random input: --seed is recorded and selects nothing.
The last line of standard output is the JSON result; the lines before it
name every metric with its unit, the fail ratio and the run environment.
A full record of each run is written under .bench_out/.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Optional

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"

from tracer import CACHE_KINDS, ENTRY_POINTS, entry_metric, span_name  # noqa: E402  (sibling module)

# Every run, traced or not, ends within this many seconds of its start.
DEADLINE_S = 170.0
# At least this many set-up samples per run, one before each verify run
# and the rest after the last, so they span the same stretch of time.
SETUP_SAMPLES = 9
# A chunk of perfbench/reference.py takes about this long on the machine the
# baseline was measured on (2-core Intel Xeon, CPython 3.11); samples are
# reported in seconds at that speed.
REF_SECONDS = 0.025
# Each reference timing runs chunks until it has taken this share of the
# sample before it, and at least REF_MIN_S: a short reference is dominated by
# the host's sub-second jitter, which a long sample averages out.
REF_SHARE = 0.3
REF_MIN_S = 0.3
HASH_SEED = "0"
SETUP_CODE = (
    "import qhowe\n"
    "from qhowe import braidgrp, ktheory\n"
    "braidgrp.selected_variant()\n"
    "ktheory.grading_sign()\n"
    "print(qhowe.__version__)\n"
)


@dataclass(frozen=True)
class Workload:
    suite: str
    m: str
    n: str
    beyond_desk: bool
    pin: Optional[tuple[str, int]] = None  # (report sha256, check count)

    def argv(self, smoke: bool) -> list[str]:
        m, n = ("1:2", "1:2") if smoke else (self.m, self.n)
        args = ["verify", self.suite, "--m", m, "--N", n, "--format", "json"]
        return args + (["--beyond-desk"] if self.beyond_desk and not smoke else [])


WORKLOADS = {
    "desk_all": Workload(
        "all", "1:4", "1:4", False,
        pin=("a53bfceaa59674cb53d692dc964af6efa2bf5a13055f4f86fccd74995b07cf3d", 2177),
    ),
    "braiding_m5": Workload("braiding", "5", "1:4", True),
    "howe_m5": Workload("howe", "5", "1:5", True),
    "ktheory_m5": Workload("ktheory", "5", "1:5", True),
}

END_TO_END = (("wall_norm_s", "s"), ("peak_rss_mb", "MB"), ("setup_s", "s"))


def metric_layer(layer: str) -> str:
    return layer.lstrip("_")


def per_layer_spec() -> list[tuple[str, str]]:
    """(name, unit) of every per-layer metric, in report order.

    Which end-to-end metric each should move, and where:
    qring.divexact.*, qmodule.act_divided.*, braidgrp.rank1_weyl.* ->
    wall_norm_s on braiding_m5 and ktheory_m5, with no change predicted on
    howe_m5; linalg.matmul.*, linalg.apply.*, qring.add.*, qring.mul.* ->
    wall_norm_s on howe_m5; ktheory.divided_op.* -> wall_norm_s on
    ktheory_m5; cache.*.entries -> peak_rss_mb on braiding_m5 and desk_all;
    report.json_bytes.self_s (and setup_s) -> wall_norm_s on desk_all.
    """
    spec = []
    seen = set()
    for layer, _, _, entry in ENTRY_POINTS:
        if entry and (layer, entry) not in seen:
            seen.add((layer, entry))
            base = f"{metric_layer(layer)}.{entry}"
            spec += [(f"{base}.self_s", "s"), (f"{base}.calls", "count")]
    for layer in dict.fromkeys(layer for layer, _, _, _ in ENTRY_POINTS):
        base = metric_layer(layer)
        spec += [(f"{base}.self_s", "s"), (f"{base}.calls", "count")]
    for kind in CACHE_KINDS + ("total",):
        spec += [
            (f"cache.{kind}.entries", "count"),
            (f"cache.{kind}.lookups", "count"),
            (f"cache.{kind}.hit_ratio", "ratio"),
        ]
    spec += [
        ("process.cpu_s", "s"),
        ("trace.wall_s", "s"),
        ("trace.overhead_s", "s"),
        ("trace.coverage", "ratio"),
    ]
    return spec


# ---------------------------------------------------------------------------
# child processes


class BenchError(Exception):
    """The benchmark could not produce a result."""


def child_env() -> dict:
    """The fixed environment of every child: nothing inherited but PATH."""
    return {
        "PATH": os.environ.get("PATH", os.defpath),
        "PYTHONPATH": str(SRC),
        "PYTHONHASHSEED": HASH_SEED,
    }


@dataclass
class Exit:
    wall_s: float
    rc: int
    peak_rss_mb: float
    cpu_s: float


def run_child(argv: list[str], deadline: float) -> Exit:
    """Run one child to completion; its wall time, exit code and own rusage.

    The child is killed if it would outlive the run's deadline.
    """
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        raise BenchError("deadline reached before starting a child")
    t0 = time.perf_counter()
    proc = subprocess.Popen(
        argv, env=child_env(), cwd=ROOT, stdin=subprocess.DEVNULL, stdout=subprocess.DEVNULL
    )
    old = signal.signal(signal.SIGALRM, lambda *_: proc.kill())
    signal.setitimer(signal.ITIMER_REAL, timeout)
    try:
        _, status, usage = os.wait4(proc.pid, 0)
    except BaseException:
        proc.kill()
        proc.wait()
        raise
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, old)
    wall = time.perf_counter() - t0
    proc.returncode = rc = os.waitstatus_to_exitcode(status)
    if rc == -signal.SIGKILL and time.monotonic() >= deadline:
        raise BenchError(f"child killed at the {DEADLINE_S:.0f} s deadline: {' '.join(argv)}")
    return Exit(wall, rc, usage.ru_maxrss / 1024.0, usage.ru_utime + usage.ru_stime)


def setup_probe() -> str:
    """Import qhowe once untimed (compiles bytecode); return its version."""
    done = subprocess.run(
        [sys.executable, "-s", "-c", SETUP_CODE], env=child_env(), cwd=ROOT,
        stdin=subprocess.DEVNULL, capture_output=True, text=True, timeout=60,
    )
    if done.returncode != 0:
        raise BenchError(f"importing qhowe failed:\n{done.stderr}")
    return done.stdout.strip()


def time_setup(deadline: float) -> float:
    ex = run_child([sys.executable, "-s", "-c", SETUP_CODE], deadline)
    if ex.rc != 0:
        raise BenchError(f"setup child exited {ex.rc}")
    return ex.wall_s


class RefClock:
    """Times perfbench/reference.py, a fixed computation of the verifier's
    kind, between samples.  scale(s) gives the factor that takes the samples
    since the last call (s seconds of them) to the reference speed."""

    def __init__(self, deadline: float):
        self.deadline = deadline
        self.refs = [self.chunk_s(REF_MIN_S)]

    def chunk_s(self, budget: float) -> float:
        try:
            done = subprocess.run(
                [sys.executable, "-s", str(HERE / "reference.py"), repr(budget)],
                env=child_env(), cwd=ROOT, stdin=subprocess.DEVNULL, capture_output=True,
                text=True, timeout=max(1.0, self.deadline - time.monotonic()),
            )
        except subprocess.TimeoutExpired:
            raise BenchError(f"reference run killed at the {DEADLINE_S:.0f} s deadline")
        if done.returncode != 0:
            raise BenchError(f"reference run failed:\n{done.stderr}")
        return float(done.stdout)

    def scale(self, sample_s: float) -> float:
        self.refs.append(self.chunk_s(max(REF_MIN_S, REF_SHARE * sample_s)))
        return REF_SECONDS / statistics.mean(self.refs[-2:])


@dataclass
class Verified:
    exit: Exit
    checks: int
    failed: int
    sha256: str
    problems: list
    stats: Optional[dict] = None


def check_report(path: Path, rc: int) -> tuple[int, int, str, list]:
    """(checks, failed checks, sha256, problems) of one verify report.

    A nonzero exit, a missing, unparsable or inconsistent report or an
    internal.error entry counts as a failed check.
    """
    try:
        data = path.read_bytes()
    except OSError:
        return 1, 1, "", [f"no report (exit {rc})"]
    sha = hashlib.sha256(data).hexdigest()
    try:
        rep = json.loads(data)
        checks = rep["checks"]
        summary = rep["summary"]
    except (ValueError, KeyError, TypeError):
        return 1, 1, sha, [f"unparsable report (exit {rc})"]
    n = len(checks)
    bad = [c for c in checks if c.get("status") != "pass" or c.get("id") == "internal.error"]
    failed = len(bad)
    problems = [f"check {c.get('id')} {c.get('params')}: {c.get('status')} {c.get('witness', '')}"
                for c in bad[:5]]
    if summary != {"pass": n - failed, "fail": failed}:
        problems.append(f"summary {summary} does not match {n} checks with {failed} failing")
    if rc != 0:
        problems.append(f"exit status {rc}")
    if n == 0:
        problems.append("report has no checks")
        n = 1
    if problems:
        failed = max(failed, 1)
    return n, failed, sha, problems


def run_verify(work: Workload, name: str, smoke: bool, deadline: float, traced: bool) -> Verified:
    tag = "traced" if traced else "plain"
    report = OUT / f"{name}.{tag}.report.json"
    report.unlink(missing_ok=True)
    cli = work.argv(smoke) + ["--out", str(report)]
    if traced:
        stats = OUT / f"{name}.stats.json"
        stats.unlink(missing_ok=True)
        argv = [sys.executable, "-s", str(HERE / "tracer.py"), str(stats),
                str(OUT / f"{name}.spans.json")] + cli
    else:
        argv = [sys.executable, "-s", "-m", "qhowe.cli"] + cli
    ex = run_child(argv, deadline)
    checks, failed, sha, problems = check_report(report, ex.rc)
    out = Verified(ex, checks, failed, sha, problems)
    if traced:
        try:
            out.stats = json.loads(stats.read_text())
        except (OSError, ValueError):
            raise BenchError(f"traced run wrote no statistics (exit {ex.rc})")
    return out


def repeat(one, seconds: float, deadline: float) -> list:
    """Call one() until the next call would end past --seconds (at least once)."""
    samples = []
    t0 = time.monotonic()
    while True:
        samples.append(one())
        elapsed = time.monotonic() - t0
        each = elapsed / len(samples)
        if elapsed + each > seconds or time.monotonic() + 2 * each > deadline:
            return samples


# ---------------------------------------------------------------------------
# metrics


def layer_metrics(plain: Verified, traced: Verified) -> dict[str, float]:
    stats = traced.stats
    missing = sorted({span_name(layer, owner, attr) for layer, owner, attr, _ in ENTRY_POINTS}
                     - set(stats["spans"]))
    missing += sorted(f"cache kind {kind}" for kind in set(CACHE_KINDS) - set(stats["cache"]))
    if missing:
        raise BenchError(f"the tracer reported nothing for {missing}")
    values: dict[str, float] = {}

    def add(name, v):
        values[name] = values.get(name, 0) + v

    for span, st in stats["spans"].items():
        layer, entry = entry_metric(span)
        if layer == "setup":
            continue
        base = metric_layer(layer)
        add(f"{base}.self_s", st["self_s"])
        add(f"{base}.calls", st["calls"])
        if entry:
            add(f"{base}.{entry}.self_s", st["self_s"])
            add(f"{base}.{entry}.calls", st["calls"])
    cache = {kind: st for kind, st in stats["cache"].items() if kind in CACHE_KINDS}
    cache["total"] = {f: sum(st[f] for st in stats["cache"].values())
                      for f in ("entries", "lookups", "hits")}
    for kind, st in cache.items():
        values[f"cache.{kind}.entries"] = st["entries"]
        values[f"cache.{kind}.lookups"] = st["lookups"]
        values[f"cache.{kind}.hit_ratio"] = st["hits"] / st["lookups"] if st["lookups"] else 0.0
    values["process.cpu_s"] = plain.exit.cpu_s
    values["trace.wall_s"] = traced.exit.wall_s
    values["trace.overhead_s"] = traced.exit.wall_s - plain.exit.wall_s
    values["trace.coverage"] = stats["covered_s"] / stats["wall_s"]
    return {name: values[name] for name, _ in per_layer_spec()}


def quartiles(xs: list[float]) -> tuple[float, float]:
    if len(xs) < 2:
        return xs[0], xs[0]
    q = statistics.quantiles(xs, n=4)
    return q[0], q[2]


# ---------------------------------------------------------------------------
# environment record


def git_commit() -> str:
    try:
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, stdin=subprocess.DEVNULL,
                              capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return done.stdout.strip() if done.returncode == 0 else "unknown"


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def environment(version: str) -> dict:
    return {
        "PYTHONHASHSEED": HASH_SEED,
        "python": f"{platform.python_implementation()} {platform.python_version()}",
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu_model(),
        "git_commit": git_commit(),
        "qhowe_version": version,
    }


# ---------------------------------------------------------------------------
# one benchmark run


def run(name: str, seed: int, seconds: float, trace: bool, smoke: bool = False) -> dict:
    """Measure one workload; return the result object (and print its lines)."""
    work = WORKLOADS[name]
    deadline = time.monotonic() + DEADLINE_S
    OUT.mkdir(exist_ok=True)
    env = environment(setup_probe())
    print("env " + json.dumps(env, sort_keys=True))
    print(f"workload {name} seed {seed} (recorded; the grid has no random input) "
          f"trace {int(trace)}: qhowe {' '.join(work.argv(smoke))}")

    record = {"workload": name, "seed": seed, "seconds": seconds, "trace": int(trace),
              "smoke": smoke, "env": env}
    if trace:
        pairs = repeat(lambda: (run_verify(work, name, smoke, deadline, False),
                                run_verify(work, name, smoke, deadline, True)),
                       seconds, deadline)
        runs = [v for pair in pairs for v in pair]
        per_pair = [layer_metrics(p, t) for p, t in pairs]
        spec = per_layer_spec()
        metrics = {n: {"value": statistics.median(m[n] for m in per_pair), "unit": u}
                   for n, u in spec}
        record["pairs"] = per_pair
        cost = pairs[0][1].stats["call_cost_s"]
        print(f"  {len(pairs)} untraced/traced pair(s); medians below.  self_s excludes the "
              "calibrated wrapper cost per call, outside/inside the span: "
              + ", ".join(f"{kind} {c['outside'] * 1e6:.3f}/{c['inside'] * 1e6:.3f} us"
                          for kind, c in cost.items()))
        for n, u in spec:
            print(f"  {n:34} {metrics[n]['value']:.6g} {u}")
    else:
        clock = RefClock(deadline)
        series: dict[str, list[float]] = {
            k: [] for k in ("wall_s", "wall_norm_s", "setup_raw_s", "setup_s")
        }

        def sample_setup() -> float:
            raw = time_setup(deadline)
            series["setup_raw_s"].append(raw)
            return raw

        def one():
            setup = sample_setup()
            v = run_verify(work, name, smoke, deadline, False)
            f = clock.scale(setup + v.exit.wall_s)
            series["setup_s"].append(setup * f)
            series["wall_s"].append(v.exit.wall_s)
            series["wall_norm_s"].append(v.exit.wall_s * f)
            return v

        runs = repeat(one, seconds, deadline)
        while len(series["setup_s"]) < (2 if smoke else SETUP_SAMPLES):
            setup = sample_setup()
            series["setup_s"].append(setup * clock.scale(setup))
        series["peak_rss_mb"] = [v.exit.peak_rss_mb for v in runs]
        series["reference_s"] = clock.refs
        metrics = {n: {"value": statistics.median(series[n]), "unit": u} for n, u in END_TO_END}
        record["series"] = series
        print(f"  times below are at the reference speed, {REF_SECONDS} s per reference "
              f"chunk; here a chunk took {statistics.median(clock.refs):.4f} s "
              f"(median of {len(clock.refs)})")
        for n, u in END_TO_END + (("wall_s", "s"), ("setup_raw_s", "s")):
            xs = series[n]
            lo, hi = quartiles(xs)
            raw = "" if n in dict(END_TO_END) else "raw, "
            print(f"  {n:12} {statistics.median(xs):.4f} {u}  "
                  f"({raw}median of {len(xs)}, quartiles {lo:.4f} .. {hi:.4f})")

    attempted = sum(v.checks for v in runs)
    failed = sum(v.failed for v in runs)
    problems = [p for v in runs for p in v.problems]
    shas = sorted({v.sha256 for v in runs})
    if len(shas) > 1:
        problems.append(f"report bytes differ between repeats: {shas}")
    correct = not problems and failed == 0
    print(f"  {'fail_ratio':12} {failed / attempted:.4f} ratio  ({failed} of {attempted} checks "
          f"in {len(runs)} verify runs)")
    print(f"  report sha256 {runs[0].sha256} with {runs[0].checks} checks")
    if work.pin and not smoke and (runs[0].sha256, runs[0].checks) != work.pin:
        # Flagged only: a deliberate change of the check set moves the pin.
        print(f"  FLAG report differs from the pinned sha256 {work.pin[0]} "
              f"with {work.pin[1]} checks")
        record["pin_differs"] = True
    for p in problems:
        print(f"  PROBLEM {p}")
    record.update(report_sha256=runs[0].sha256, report_checks=runs[0].checks, problems=problems)
    result = {"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}
    record["result"] = result
    results = OUT / "results"
    results.mkdir(exist_ok=True)
    for earlier in sorted(results.glob(f"{name}.*.json")):
        try:
            old_env = json.loads(earlier.read_text())["env"]
        except (OSError, ValueError, KeyError):
            continue
        differs = [k for k in ("python", "cpu_model", "nproc", "PYTHONHASHSEED")
                   if old_env.get(k) != env[k]]
        if differs:
            print(f"  WARN {earlier.name} was measured with another {', '.join(differs)}: "
                  "do not compare it with this run")
    tag = "smoke" if smoke else f"seed{seed}"
    (results / f"{name}.{tag}.trace{int(trace)}.json").write_text(
        json.dumps(record, indent=1, sort_keys=True) + "\n"
    )
    return result


def smoke() -> int:
    """Every workload's suite on a tiny grid, traced and not; check every
    metric BENCHMARK.json names appears with its unit, and every named entry
    point is called on at least one workload (a wrapper that misses its call
    sites counts nothing)."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    want = {0: spec["end_to_end"], 1: spec["per_layer"]}
    call_metrics = [n for n, _ in per_layer_spec() if n.endswith(".calls")]
    called: set[str] = set()
    ok = True
    for name in WORKLOADS:
        for trace in (0, 1):
            result = run(name, 0, 0, bool(trace), smoke=True)
            got = result["metrics"]
            if trace:
                called |= {n for n in call_metrics if got[n]["value"] > 0}
            for m in want[trace]:
                if got.get(m["name"], {}).get("unit") != m["unit"]:
                    print(f"SMOKE {name} trace {trace}: metric {m['name']} [{m['unit']}] missing")
                    ok = False
            extra = set(got) - {m["name"] for m in want[trace]}
            if extra:
                print(f"SMOKE {name} trace {trace}: metrics not in BENCHMARK.json: {sorted(extra)}")
                ok = False
            if not result["correct"]:
                print(f"SMOKE {name} trace {trace}: outputs not correct")
                ok = False
    never = [n for n in call_metrics if n not in called]
    if never:
        print(f"SMOKE no workload called {never}")
        ok = False
    print("smoke ok" if ok else "smoke FAILED")
    return 0 if ok else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="tiny grids (m <= 2), all workloads, both modes")
    args = parser.parse_args(argv)
    if not (SRC / "qhowe" / "cli.py").is_file():
        print(f"qhowe sources not found under {SRC}", file=sys.stderr)
        return 2
    try:
        if args.smoke:
            return smoke()
        if args.workload is None:
            parser.error("--workload is required")
        result = run(args.workload, args.seed, args.seconds, bool(args.trace))
    except BenchError as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 3
    print(json.dumps(result, sort_keys=True))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
