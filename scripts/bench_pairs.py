#!/usr/bin/env python3
"""Run the benchmark in alternating pairs on two checkouts and summarize it.

    bench_pairs.py --parent DIR --out BENCH_N.json [--workload W ...]
                   [--pairs 10] [--seconds 25] [--note TEXT]

Pair p runs `python3 perfbench/run.py --workload W --seed p --seconds S
--trace 0` once in each checkout: the parent first in odd pairs, the change
first in even ones, so a drift of the host's speed falls on both sides
alike.  --parent is a checkout of the parent commit, for example a
`git clone` under a scratch directory; the change is the checkout holding
this script.  A pair in which either run fails or reports incorrect
outputs counts in `failed_runs` and gives no numbers.

Each end-to-end metric of each workload gets, per side, the median and the
interquartile range (statistics.quantiles, n=4, exclusive method) of the
runs' reported values, those values in pair order, and the number of pairs
in which the change is lower.  The summary goes into --out; a file that
exists keeps the workloads this run does not measure.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
WORKLOADS = ("desk_all", "braiding_m5", "howe_m5", "ktheory_m5")
METRICS = ("wall_norm_s", "peak_rss_mb", "setup_s")


def run_once(checkout: Path, workload: str, seed: int, seconds: float):
    """The metrics {name: value} of one benchmark run, or None if it failed."""
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        cwd=checkout, capture_output=True, text=True,
    )
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        return None
    result = json.loads(lines[-1])
    if not result["correct"]:
        return None
    return {name: m["value"] for name, m in result["metrics"].items()}


def side(runs: list[float]) -> dict:
    """Median, interquartile range and the runs, rounded to 4 places."""
    if len(runs) > 1:
        lo, _, hi = statistics.quantiles(runs, n=4, method="exclusive")
    else:
        lo = hi = 0.0
    return {"median": round(statistics.median(runs), 4), "iqr": round(hi - lo, 4),
            "runs": [round(x, 4) for x in runs]}


def summarize(pairs: list[tuple[dict, dict]], failed_runs: int = 0) -> dict:
    """One workload's summary from its (parent, change) metric pairs, in
    pair order."""
    out: dict = {"pairs": len(pairs)}
    for name in METRICS:
        parent = [p[name] for p, _ in pairs]
        change = [c[name] for _, c in pairs]
        out[name] = {
            "parent": side(parent),
            "change": side(change),
            "change_lower_in_pairs": sum(c < p for p, c in zip(parent, change)),
        }
    out["failed_runs"] = failed_runs
    return out


def bench_workload(parent: Path, change: Path, workload: str, n_pairs: int,
                   seconds: float) -> dict:
    pairs, failed = [], 0
    for p in range(1, n_pairs + 1):
        order = (parent, change) if p % 2 else (change, parent)
        got = {checkout: run_once(checkout, workload, p, seconds) for checkout in order}
        print(f"{workload} pair {p}: parent {got[parent]} change {got[change]}", flush=True)
        if got[parent] is None or got[change] is None:
            failed += 1
            continue
        pairs.append((got[parent], got[change]))
    return summarize(pairs, failed)


def git_head(checkout: Path) -> str:
    proc = subprocess.run(["git", "rev-parse", "--short", "HEAD"], cwd=checkout,
                          capture_output=True, text=True)
    return proc.stdout.strip() or "unknown"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--parent", type=Path, required=True)
    parser.add_argument("--out", type=Path, required=True)
    parser.add_argument("--workload", action="append", choices=WORKLOADS)
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--note", default="")
    args = parser.parse_args(argv)

    record = json.loads(args.out.read_text()) if args.out.exists() else {}
    record.setdefault("change", args.note)
    record.setdefault("parent", git_head(args.parent))
    record.setdefault("command", "python3 perfbench/run.py --workload W --seed PAIR "
                                 "--seconds S --trace 0, in a checkout of each side")
    record.setdefault("statistic", "median and interquartile range over the pairs of each "
                                   "run's reported median; runs in pair order")
    record.setdefault("machine", f"{os.cpu_count()}-core {platform.machine()} "
                                 f"{platform.system()}")
    record.setdefault("python", platform.python_version())
    section = record.setdefault("alternating_pairs", {})
    section["order"] = "odd pairs run the parent first, even pairs the change first"
    workloads = section.setdefault("workloads", {})
    for workload in args.workload or WORKLOADS:
        workloads[workload] = {"seconds": args.seconds, **bench_workload(
            args.parent.resolve(), ROOT, workload, args.pairs, args.seconds)}
        args.out.write_text(json.dumps(record, indent=2) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
