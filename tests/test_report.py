"""Report.json_bytes against the encoder it replaces: json.dumps with
sort_keys, indent=2 and default=str, plus a newline."""

import json

import pytest

from qhowe import cli
from qhowe.report import CheckResult, Report, check


def _json_dumps(report: Report, timings: bool = False) -> bytes:
    """The report rendered through the json module's own indent encoder."""
    checks = []
    for c in report.sorted_checks():
        rec = {"id": c.id, "params": c.params, "status": c.status}
        if c.witness is not None:
            rec["witness"] = c.witness
        if timings and c.ms is not None:
            rec["ms"] = c.ms
        checks.append(rec)
    payload = {
        "version": report.version,
        "conventions": report.conventions,
        "checks": checks,
        "summary": {"pass": report.n_pass, "fail": report.n_fail},
    }
    return (json.dumps(payload, sort_keys=True, indent=2, default=str) + "\n").encode()


class OnlyStr:
    """Encodable only through default=str."""

    def __str__(self):
        return 'only "str"\n'


@pytest.fixture(scope="module")
def desk():
    return cli.run_suite(cli.SuiteConfig("all", (1, 4), (1, 4)))


@pytest.mark.parametrize("timings", [False, True])
def test_desk_report_matches_json_dumps(desk, timings):
    assert len(desk.checks) == 2177 and all(c.ms is not None for c in desk.checks)
    assert desk.json_bytes(timings) == _json_dumps(desk, timings)


CHECKS = [
    CheckResult("internal.error", {"task": "verify_dims", "args": ["3", "Conventions(x='y')"]},
                "fail", 'ValueError: bad "m" at geomcheck.py:12'),
    CheckResult("internal.error", {"task": "f", "args": []}, "fail", "RuntimeError: "),
    CheckResult("w.escapes", {}, "fail", 'quote " backslash \\ newline\ntab\t q² ⊗ \U0001d53d'),
    CheckResult("w.empty_witness", {"m": 1}, "fail", ""),
    CheckResult("p.empty", {}, "pass"),
    CheckResult("p.leaves", {"none": None, "x": 0.1, "big": 1e300, "neg": -2.5, "t": True,
                             "f": False, "n": -7, "s": 'é"\\', "nan": float("nan"),
                             "inf": float("-inf")}, "pass", ms=1.25),
    CheckResult("p.nested", {"l": [1, [2, [], {}], (3, (4, "a"))], "t": (),
                             "d": {"b": {"c": [None]}, "a": {}}, "obj": OnlyStr(),
                             "objs": [OnlyStr(), {"k": OnlyStr()}]}, "pass", ms=0.0),
]
CONVENTIONS = {"coproduct": "standard", "weyl_variant": "fef-1", "grading_sign": -1,
               "nested": {"v": ("fef", -1)}}


@pytest.mark.parametrize("timings", [False, True])
@pytest.mark.parametrize("checks", [[], [CHECKS[4]], CHECKS],
                         ids=["no checks", "empty params", "all"])
def test_crafted_reports_match_json_dumps(checks, timings):
    for conv in (CONVENTIONS, {}):
        report = Report("0.1.0", conv, list(checks))
        assert report.json_bytes(timings) == _json_dumps(report, timings)


@pytest.mark.parametrize("key", [1, None, (1, 2)])
def test_dict_keys_other_than_str_raise(key):
    # every params and conventions key is a str; json.dumps would write a
    # number, bool or None key as text, the renderer refuses them all
    report = Report("0.1.0", {}, [CheckResult("p.key", {"d": {key: 0}}, "pass")])
    with pytest.raises(TypeError):
        report.json_bytes()


def test_a_callable_witness_is_rendered_only_on_failure():
    def render():
        calls.append(1)
        return "v = 2 want 1"

    calls = []
    assert check("a.one", {"m": 1}, True, render) == CheckResult("a.one", {"m": 1}, "pass")
    assert calls == []
    assert check("a.one", {"m": 1}, False, render).witness == "v = 2 want 1"
    assert calls == [1]
    # a plain string still works, and an empty witness gets the default text
    assert check("a.one", {"m": 1}, False, "v = 2").witness == "v = 2"
    assert check("a.one", {"m": 1}, False, lambda: "").witness == "assertion failed"
    assert check("a.one", {"m": 1}, False).witness == "assertion failed"
