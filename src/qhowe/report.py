"""Check results and reports: deterministic JSON, written by json_bytes, as
json.dumps with indent runs the pure-Python encoder, plus a text rendering."""

from __future__ import annotations

import json
from typing import Callable, Optional

from ._value import Record

_STR = json.encoder.encode_basestring_ascii
# "".join(_ENC(value, 0)) is json.dumps(value, sort_keys=True, default=str) by
# the C encoder that call runs, built once here: JSONEncoder.encode builds one per call
_ENC = json.encoder.c_make_encoder(None, str, _STR, None, ": ", ", ", True, False, True)


class CheckResult(Record):
    __slots__ = ("id", "params", "status", "witness", "ms")

    def __init__(self, id: str, params: dict, status: str,  # status "pass" | "fail"
                 witness: Optional[str] = None, ms: Optional[float] = None):
        self.id, self.params, self.status, self.witness, self.ms = id, params, status, witness, ms

    @property
    def ok(self) -> bool:
        return self.status == "pass"


def check(id: str, params: dict, ok: bool,
          witness: str | Callable[[], str] = "") -> CheckResult:
    """A pass, or a fail with its witness.  The witness is a string or a
    zero-argument callable returning one, called only on failure, so a
    passing check renders nothing."""
    if ok:
        return CheckResult(id, dict(params), "pass")
    if callable(witness):
        witness = witness()
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
        return sorted(self.checks, key=lambda c: (c.id, "".join(_ENC(c.params, 0))))

    def json_bytes(self, timings: bool = False) -> bytes:
        """json.dumps({checks, conventions, summary, version}, sort_keys=True,
        indent=2, default=str) + "\n", byte for byte: each record's frame is
        text and _dump writes its values through the C encoders."""
        recs, pad = [], "      "
        for c in self.sorted_checks():
            ms = f',\n{pad}"ms": {_dump(c.ms, pad)}' if timings and c.ms is not None else ""
            wit = f',\n{pad}"witness": {_dump(c.witness, pad)}' if c.witness is not None else ""
            recs.append(f'    {{\n{pad}"id": {_dump(c.id, pad)}{ms},\n{pad}"params": '
                        f'{_dump(c.params, pad)},\n{pad}"status": {_dump(c.status, pad)}{wit}\n    }}')
        checks = "[\n" + ",\n".join(recs) + "\n  ]" if recs else "[]"
        rest = _dump({"conventions": self.conventions, "version": self.version,  # "checks" sorts
                      "summary": {"pass": self.n_pass, "fail": self.n_fail}}, "")  # before these
        return ('{\n  "checks": ' + checks + ",\n" + rest[2:] + "\n").encode()

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


def _dump(value, pad: str) -> str:
    """value as json.dumps(value, sort_keys=True, indent=2, default=str) writes
    it at indentation pad, for str dict keys: leaves through the C encoders
    (str, plain int, then _ENC), layout only for non-empty containers."""
    if type(value) is str:
        return _STR(value)
    if type(value) is int:
        return int.__repr__(value)
    if not isinstance(value, (dict, list, tuple)) or not value:
        return "".join(_ENC(value, 0))
    inner = ",\n" + pad + "  "
    if isinstance(value, dict):  # _STR raises TypeError on a key that is not a str
        body = [_STR(k) + ": " + _dump(v, inner[2:]) for k, v in sorted(value.items())]
        return "{" + inner[1:] + inner.join(body) + "\n" + pad + "}"
    return "[" + inner[1:] + inner.join([_dump(v, inner[2:]) for v in value]) + "\n" + pad + "]"
