"""Check results and reports: deterministic JSON plus a text rendering."""

from __future__ import annotations

import json
from typing import Optional

from ._value import Record

_PARAMS_KEY = json.JSONEncoder(sort_keys=True, default=str).encode  # json.dumps makes one per call


class CheckResult(Record):
    __slots__ = ("id", "params", "status", "witness", "ms")

    def __init__(self, id: str, params: dict, status: str,  # status "pass" | "fail"
                 witness: Optional[str] = None, ms: Optional[float] = None):
        self.id, self.params, self.status, self.witness, self.ms = id, params, status, witness, ms

    @property
    def ok(self) -> bool:
        return self.status == "pass"


def check(id: str, params: dict, ok: bool, witness: str = "") -> CheckResult:
    if ok:
        return CheckResult(id, dict(params), "pass")
    return CheckResult(id, dict(params), "fail", witness or "assertion failed")


def check_equal(id: str, params: dict, got, want, label, what: str = "") -> CheckResult:
    """Exact operator equality got == want; every check that compares two
    SparseOps goes through here.  On failure the witness is the first
    differing entry, `what col -> row: got want`, with basis labels rendered
    by label (qmodule.mono_str or howe.howe_mono_str)."""
    if got == want:
        return CheckResult(id, dict(params), "pass")
    r, c, va, vb = got.first_difference(want)
    witness = f"{what} {label(c)} -> {label(r)}: {va.text()} want {vb.text()}"
    return CheckResult(id, dict(params), "fail", witness.lstrip())


class Report(Record):
    __slots__ = ("version", "conventions", "checks")

    def __init__(self, version: str, conventions: dict, checks: Optional[list] = None):
        self.version, self.conventions = version, conventions
        self.checks = [] if checks is None else checks

    def extend(self, results):
        self.checks.extend(results)

    @property
    def n_pass(self) -> int:
        return sum(1 for c in self.checks if c.ok)

    @property
    def n_fail(self) -> int:
        return sum(1 for c in self.checks if not c.ok)

    def all_pass(self) -> bool:
        return self.n_fail == 0

    def sorted_checks(self) -> list:
        return sorted(
            self.checks,
            key=lambda c: (c.id, _PARAMS_KEY(c.params)),
        )

    def to_dict(self, timings: bool = False) -> dict:
        checks = []
        for c in self.sorted_checks():
            rec = {"id": c.id, "params": c.params, "status": c.status}
            if c.witness is not None:
                rec["witness"] = c.witness
            if timings and c.ms is not None:
                rec["ms"] = c.ms
            checks.append(rec)
        return {
            "version": self.version,
            "conventions": self.conventions,
            "checks": checks,
            "summary": {"pass": self.n_pass, "fail": self.n_fail},
        }

    def json_bytes(self, timings: bool = False) -> bytes:
        text = json.dumps(self.to_dict(timings=timings), sort_keys=True, indent=2, default=str)
        return (text + "\n").encode()

    def text(self, timings: bool = False) -> str:
        lines = [f"qhowe {self.version}"]
        for k, v in sorted(self.conventions.items()):
            lines.append(f"  convention {k} = {v}")
        for c in self.sorted_checks():
            params = " ".join(f"{k}={v}" for k, v in sorted(c.params.items()))
            line = f"[{c.status.upper():4}] {c.id} {params}"
            if timings and c.ms is not None:
                line += f" ({c.ms:.1f} ms)"
            lines.append(line)
            if not c.ok and c.witness:
                lines.append(f"        witness: {c.witness}")
        lines.append(f"summary: {self.n_pass} passed, {self.n_fail} failed")
        return "\n".join(lines) + "\n"
