"""Command line driver: run verification suites over parameter grids and
dump operators as sparse triplet files.

    qhowe verify all --m 1:3 --N 1:3 --format json --out report.json
    qhowe dump braiding --m 2 --k 1 --l 1 --out beta.txt

Reports are deterministic for a fixed configuration: checks are sorted and
wall times are excluded from both formats unless --timings is given.

A process runs through run(): the cyclic collector stays off (the heap is
acyclic caches of immutable values) and os._exit ends the process once its
output is flushed.  main() called in-process keeps the normal lifecycle.
"""

from __future__ import annotations

import argparse
import gc
import os
import sys
import time
from typing import NamedTuple, Optional

from . import __version__, braidgrp, geomcheck, howe, ktheory
from .howe import HoweSpace, admissible_families, blocks
from .qmodule import COPRODUCTS, GEN_E, GEN_F, Conventions, mono_str
from .report import CheckResult, Report

SUITES = ("howe", "braiding", "ktheory", "geom", "all")
ALGEBRAIC_CEILING_M = 4
ALGEBRAIC_CEILING_N = 4
GEOM_CEILING_M = 6
# Report header entries that no option changes; the resolved conventions
# are added to them.
FIXED_CONVENTIONS = {
    "pairing": "sum(mu_a nu_a) - sum(mu) sum(nu)/m",
    "beta_vs_weyl_sign": "(-1)^(kl+k)",
}


class SuiteConfig(NamedTuple):
    suite: str
    m_range: tuple[int, int]
    n_range: tuple[int, int]
    coproduct: str = "standard"
    weyl_variant: Optional[str] = None
    grading_sign: Optional[int] = None
    beyond_desk: bool = False


def parse_range(text: str) -> tuple[int, int]:
    if ":" in text:
        lo, hi = text.split(":", 1)
        lo, hi = int(lo), int(hi)
    else:
        lo = hi = int(text)
    if lo < 1 or hi < lo:
        raise argparse.ArgumentTypeError(f"bad range {text!r}")
    return lo, hi


def _suite_tasks(config: SuiteConfig, conv: Conventions):
    """The run as (function, *args) tuples, one per call; every suite that
    depends on a convention gets conv as its last argument."""
    m_lo, m_hi = config.m_range
    n_lo, n_hi = config.n_range
    tasks = []

    def grid():
        for m in range(m_lo, m_hi + 1):
            for N in range(n_lo, n_hi + 1):
                if N <= 2 * m:
                    yield m, N

    if config.suite in ("howe", "all"):
        for m, N in grid():
            tasks.append((howe.verify_commuting, m, N, conv))
            for i, k, l in admissible_families(m, N):
                tasks.append((howe.verify_divided_transport, m, N, i, k, l, conv))
    if config.suite in ("braiding", "all"):
        for m in range(m_lo, m_hi + 1):
            for d in range(1, m + 1):
                tasks.append((braidgrp.verify_eq_comm, m, d, conv))
                tasks.append((braidgrp.verify_hightolow, m, d, conv))
            tasks.append((braidgrp.verify_braid_relations, m, 1, conv))
            tasks.append((braidgrp.verify_word_independence, m, 1, conv))
        for m, N in grid():
            tasks.append((braidgrp.verify_family_scalars, m, N, conv))
            for k, l in blocks(m, N):
                tasks.append((braidgrp.verify_beta_t_theorem, m, k, l, conv))
    if config.suite in ("ktheory", "all"):
        for m, N in grid():
            tasks.append((ktheory.verify_commutator, m, N, conv))
            tasks.append((ktheory.verify_divided_products, m, N, 3, conv))
            tasks.append((ktheory.verify_ee_deformed_shadow, m, N, 3, conv))
            tasks.append((ktheory.verify_rickard_equals_t, m, N, conv))
    if config.suite in ("geom", "all"):
        for m in range(m_lo, m_hi + 1):
            for N in range(2 * m + 1):  # geom covers every block, whatever --N
                for k, l in blocks(m, N):
                    tasks.append((geomcheck.verify_dims, m, k, l))
                    tasks.append((geomcheck.verify_canonical, m, k, l))
                    tasks.append((geomcheck.fiber_bundle_facts, m, k, l))
                    for r in geomcheck.w_ranks(m, k, l):
                        tasks.append((geomcheck.adjunction_shifts, m, k, l, r))
            for a in range(0, m + 1):
                for b in range(0, m - a + 1):
                    for c in range(0, m - a - b + 1):
                        tasks.append((geomcheck.codim_checks, m, a, b, c))
    return tasks


def _call(fn, *args):
    """(fn(*args), None), or (None, an internal.error record) if it raises;
    the record names fn, its arguments and the innermost frame."""
    try:
        return fn(*args), None
    except Exception as exc:  # arithmetic errors become failed checks
        import traceback  # here, not at the top: it costs every run's start-up
        frame = traceback.extract_tb(exc.__traceback__)[-1]
        return None, CheckResult(
            "internal.error",
            {"task": fn.__name__, "args": [str(a) for a in args]},
            "fail",
            f"{type(exc).__name__}: {exc} at {os.path.basename(frame.filename)}:{frame.lineno}",
        )


def run_suite(config: SuiteConfig) -> Report:
    """Resolve the conventions once, render the report header from them and
    run every task of the suite with them."""
    if config.suite not in SUITES:
        raise ValueError(f"unknown suite {config.suite!r}")
    if not config.beyond_desk:
        ceiling_m = GEOM_CEILING_M if config.suite == "geom" else ALGEBRAIC_CEILING_M
        if config.m_range[1] > ceiling_m or (
            config.suite != "geom" and config.n_range[1] > ALGEBRAIC_CEILING_N
        ):
            raise ValueError(
                "range exceeds the desk-scale ceiling; pass --beyond-desk to "
                "acknowledge the exponential cost"
            )
    conv = ktheory.conventions(config.coproduct, config.weyl_variant, config.grading_sign)
    report = Report(version=__version__, conventions=dict(FIXED_CONVENTIONS))
    report.conventions.update(
        coproduct=conv.coproduct,
        weyl_variant=braidgrp.variant_name(conv.variant),
        grading_sign=conv.eps,
    )

    def run_one(task):
        fn, *args = task
        t0 = time.perf_counter()
        results, error = _call(fn, *args)
        if error:
            results = [error]
        ms = (time.perf_counter() - t0) * 1000.0
        for r in results:
            r.ms = round(ms / len(results), 3)
        return results

    tasks = _suite_tasks(config, conv)
    if not tasks:  # howe and ktheory at N > 2m: a run that verifies nothing
        (m_lo, m_hi), (n_lo, n_hi) = config.m_range, config.n_range
        raise ValueError(f"suite {config.suite} has no check at --m {m_lo}:{m_hi} "
                         f"--N {n_lo}:{n_hi}: its grid needs N <= 2m")
    for task in tasks:
        report.extend(run_one(task))
    return report


# ---------------------------------------------------------------------------
# operator dumps

DUMP_KINDS = ("rmatrix", "braiding", "weyl_t", "rickard", "e", "f")


def dump_operator(kind: str, m: int, k: int, l: int, r: Optional[int] = None,
                  coproduct: str = "standard") -> str:
    """Sparse triplet serialization: header `rows cols`, then sorted lines
    `rowLabel colLabel scalarText`."""
    if r is not None and kind not in ("e", "f"):
        raise ValueError(f"r is the divided power of e and f; {kind} takes none")
    if coproduct != "standard" and kind in ("rmatrix", "braiding", "weyl_t"):
        raise ValueError(f"{kind} is one operator under every coproduct; it takes no --coproduct")
    rr = 1 if r is None else r
    if not (0 <= k <= m and 0 <= l <= m and rr >= 0):
        raise ValueError(f"need 0 <= k, l <= m and r >= 0, got m={m}, k={k}, l={l}, r={rr}")
    N = k + l
    space = HoweSpace(m, N, coproduct)
    conv = ktheory.conventions(coproduct)
    # kind -> (builder of the operator on the (k, l) block, its target block)
    table = {
        "rmatrix": (lambda: braidgrp.half_twist_R(m, k, l, conv.variant), (k, l)),
        "braiding": (lambda: braidgrp.braiding_beta(m, k, l, conv.variant), (l, k)),
        "weyl_t": (lambda: braidgrp.howe_weyl_op(m, N, conv.variant)
                   .restrict(space.block_basis(k, l)), (l, k)),
        "rickard": (lambda: ktheory.rickard_euler(m, k, l, conv.eps, coproduct), (l, k)),
        "e": (lambda: ktheory.divided_block(m, GEN_E, rr, k, l, coproduct), (k - rr, l + rr)),
        "f": (lambda: ktheory.divided_block(m, GEN_F, rr, k, l, coproduct), (k + rr, l - rr)),
    }
    if kind not in table:
        raise ValueError(f"unknown dump kind {kind!r}")
    build, target = table[kind]
    op = build()
    nrows = len(space.block_basis(*target))
    ncols = len(space.block_basis(k, l))
    lines = [f"{nrows} {ncols}"]
    for row, col, scalar in op.to_triplets(mono_str):
        lines.append(f"{row} {col} {scalar}")
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# entry point


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="qhowe", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    v = sub.add_parser("verify", help="run verification suites over a grid")
    v.add_argument("suite", choices=SUITES)
    v.add_argument("--m", type=parse_range, default=(1, 3), help="m or lo:hi")
    v.add_argument("--N", type=parse_range, default=(1, 3), help="N or lo:hi")
    v.add_argument("--coproduct", choices=COPRODUCTS, default="standard")
    v.add_argument("--weyl-variant", default="auto",
                   choices=("auto", *map(braidgrp.variant_name, braidgrp.VARIANTS)))
    v.add_argument("--grading-sign", type=int, choices=(-1, 1), default=None)
    v.add_argument("--format", dest="fmt", choices=("text", "json"), default="text")
    v.add_argument("--out", default=None)
    v.add_argument("--timings", action="store_true",
                   help="add ms to each record: its task's time split evenly over its records")
    v.add_argument("--beyond-desk", action="store_true",
                   help="allow ranges past the desk-scale ceilings")

    d = sub.add_parser("dump", help="write an operator as sparse triplets")
    d.add_argument("kind", choices=DUMP_KINDS)
    d.add_argument("--m", type=int, required=True)
    d.add_argument("--k", type=int, required=True)
    d.add_argument("--l", type=int, required=True)
    d.add_argument("--r", type=int, default=None)
    d.add_argument("--coproduct", choices=COPRODUCTS, default="standard")
    d.add_argument("--out", default=None)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.command == "verify":
        config = SuiteConfig(
            suite=args.suite,
            m_range=args.m,
            n_range=args.N,
            coproduct=args.coproduct,
            weyl_variant=args.weyl_variant,
            grading_sign=args.grading_sign,
            beyond_desk=args.beyond_desk,
        )
        try:
            report = run_suite(config)
        except ValueError as exc:
            parser.error(str(exc))
        payload = (
            report.json_bytes(timings=args.timings)
            if args.fmt == "json"
            else report.text(timings=args.timings).encode()
        )
        status = 0 if report.all_pass() else 1
    else:  # dump
        try:
            payload = dump_operator(args.kind, args.m, args.k, args.l, args.r,
                                    args.coproduct).encode()
        except ValueError as exc:
            parser.error(str(exc))
        status = 0
    if args.out:
        with open(args.out, "wb") as fh:
            fh.write(payload)
    else:
        sys.stdout.write(payload.decode())
    return status


def run():
    gc.disable()
    status = main()
    sys.stdout.flush()
    sys.stderr.flush()
    os._exit(status)


if __name__ == "__main__":
    run()
