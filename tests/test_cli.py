import hashlib
import json
import os
import pathlib
import re
import shutil
import subprocess
import sys

import pytest

from qhowe import cli, qmodule


def run_cli(args):
    return subprocess.run(
        [sys.executable, "-m", "qhowe.cli", *args],
        capture_output=True,
        text=True,
    )


def test_verify_small_grid_passes(tmp_path):
    out = tmp_path / "report.json"
    code = cli.main(
        ["verify", "all", "--m", "1:2", "--N", "1:2", "--format", "json", "--out", str(out)]
    )
    assert code == 0
    payload = json.loads(out.read_text())
    assert payload["summary"]["fail"] == 0
    assert payload["summary"]["pass"] == len(payload["checks"])
    assert payload["conventions"]["grading_sign"] == -1
    assert payload["conventions"]["weyl_variant"] == "fef-1"
    assert payload["version"]


def test_reports_are_byte_identical(tmp_path):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    args = ["verify", "braiding", "--m", "2", "--N", "2", "--format", "json"]
    assert cli.main([*args, "--out", str(a)]) == 0
    assert cli.main([*args, "--out", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()


def test_text_reports_are_byte_identical(tmp_path):
    # the text format leaves out the per-check wall times unless --timings
    a, b = tmp_path / "a.txt", tmp_path / "b.txt"
    args = ["verify", "all", "--m", "1:2", "--N", "1:2"]
    assert cli.main([*args, "--out", str(a)]) == 0
    assert cli.main([*args, "--out", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()
    assert b" ms)" not in a.read_bytes()
    assert cli.main([*args, "--timings", "--out", str(b)]) == 0
    assert re.search(rb"\[PASS\] \S+ .*\(\d+\.\d ms\)\n", b.read_bytes())


def test_tasks_run_on_the_resolved_conventions_alone(monkeypatch):
    # conventions() is the only place that resolves a convention: with both
    # default accessors raising and an empty cache, every task of a run still
    # completes on the values it was handed
    conv = cli.ktheory.conventions()

    def unresolved():
        raise AssertionError("a builder resolved a convention itself")

    monkeypatch.setattr(qmodule, "_MODULE_CACHE", {})
    for owner, name in [(cli.braidgrp, "selected_variant"), (cli.ktheory, "selected_variant"),
                        (cli.ktheory, "grading_sign")]:
        monkeypatch.setattr(owner, name, unresolved)
    tasks = cli._suite_tasks(cli.SuiteConfig("all", (1, 2), (1, 2)), conv)
    assert tasks
    for fn, *args in tasks:
        results, error = cli._call(fn, *args)
        assert error is None, error.witness
        assert all(r.ok for r in results), fn.__name__


def run_pinned(tmp_path, args, status):
    """The bytes that a fresh `python -m qhowe.cli ... --out FILE` writes,
    once its exit status is asserted: every pin below is built cold, in a
    new interpreter, so this file is the one place that states each pin."""
    out = tmp_path / "pinned"
    proc = run_cli([*args, "--out", str(out)])
    assert proc.returncode == status, proc.stderr
    return out.read_bytes()


def test_no_digest_outside_the_pin_tables():
    # CI runs this file rather than restating its pins, so a check-set change
    # moves each pin in one table here
    root = pathlib.Path(__file__).resolve().parents[1] / ".github"
    files = [p for p in root.rglob("*") if p.is_file()]
    assert files
    for path in files:
        digests = re.findall(r"\b[0-9a-f]{64}\b", path.read_text())
        assert not digests, (path, digests)


DESK_REPORT_SHA256 = "a53bfceaa59674cb53d692dc964af6efa2bf5a13055f4f86fccd74995b07cf3d"


def test_desk_report_is_pinned(tmp_path):
    # The desk-scale report is the yardstick for refactors: an unchanged
    # check set must reproduce these exact bytes.
    args = ["verify", "all", "--m", "1:4", "--N", "1:4", "--format", "json"]
    payload = run_pinned(tmp_path, args, 0)
    assert json.loads(payload)["summary"] == {"pass": 2177, "fail": 0}
    assert hashlib.sha256(payload).hexdigest() == DESK_REPORT_SHA256


GEOM_REPORT_SHA256 = "f40830f7a4afbbba345fe150d2699cc038b9f84ce7fec04d7c12ceddf3a84b9f"


def test_geom_report_is_pinned(tmp_path):
    # The desk pin covers geom only up to m = 4; the flag-variety checks are
    # cheap enough to pin on the whole m <= 6 grid.
    payload = run_pinned(tmp_path, ["verify", "geom", "--m", "1:6", "--format", "json"], 0)
    assert json.loads(payload)["summary"] == {"pass": 2831, "fail": 0}
    assert hashlib.sha256(payload).hexdigest() == GEOM_REPORT_SHA256


# sha256 and pass count of m = 5 reports past the desk ceiling, so a rewrite
# of the Weyl-element, divided-power or kernel builders is checked beyond desk
# scale.
BEYOND_DESK_PINS = {
    ("braiding", "1:4"): (151, "8bfecf02246dcdb6659d8ca3ac447823cdc6709a3573569ce22dbb2c7dc7f6c0"),
    ("ktheory", "1:5"): (171, "8de1fb51c5cf9ebdcdc80255b90e9b8660a7c835aa93b830ba69a20318fbbd60"),
    ("howe", "1:5"): (419, "2b6a7d7fcc62b1036f2a97298a61f03949b5bff947851cf10f69c29935d050d8"),
}


@pytest.mark.parametrize("suite,N", list(BEYOND_DESK_PINS))
def test_beyond_desk_reports_are_pinned(tmp_path, suite, N):
    args = ["verify", suite, "--m", "5", "--N", N, "--beyond-desk", "--format", "json"]
    payload = run_pinned(tmp_path, args, 0)
    passes, digest = BEYOND_DESK_PINS[suite, N]
    assert json.loads(payload)["summary"] == {"pass": passes, "fail": 0}
    assert hashlib.sha256(payload).hexdigest() == digest


# sha256 of `verify all --m 1:3 --N 1:3 --format json` under a broken
# convention.  Each report holds failing checks whose witnesses print Laurent
# values, so these pin the scalar rendering as well as the check set.
OVERRIDE_REPORT_SHA256 = {
    ("--weyl-variant", "efe+1"): "0ce282a9c37671d47c6fa525c1868623260d56917bc34ec88a99156c8d1f2eb7",
    ("--weyl-variant", "fef+1"): "56efa474ffc4f9d5a6a2686d49cfa2aa1d68afdbd1f49ee3472e79b40bed6119",
    ("--coproduct", "flipped"): "95243d1e9fd00097b417f00a458454e85616e440f8ed7181ce5434d1d3529295",
}


@pytest.mark.parametrize("override", [list(o) for o in OVERRIDE_REPORT_SHA256])
def test_override_reports_are_pinned(tmp_path, override):
    args = ["verify", "all", "--m", "1:3", "--N", "1:3", "--format", "json", *override]
    payload = run_pinned(tmp_path, args, 1)
    assert json.loads(payload)["summary"]["fail"] > 0
    assert hashlib.sha256(payload).hexdigest() == OVERRIDE_REPORT_SHA256[tuple(override)]


# sha256 and (pass, fail) of failing m = 5 reports whose witnesses print
# entries of transported sl_2 operators (the Weyl element, divided powers),
# so the Howe-to-slot transport is pinned past m <= 3 on its failure paths.
BEYOND_DESK_FAILURE_PINS = {
    ("ktheory", "--weyl-variant", "efe+1"): (
        160, 11, "9a5df9aca53841b8904f967f5bf82420121211bc9bc95c7ce7563d3618b06d52"),
    ("howe", "--coproduct", "flipped"): (
        393, 26, "53f3714f4c3a52893870e81579638734ff95a53801d92d61be0f862fd869b956"),
}


@pytest.mark.parametrize("suite,flag,value", list(BEYOND_DESK_FAILURE_PINS))
def test_beyond_desk_failure_reports_are_pinned(tmp_path, suite, flag, value):
    args = ["verify", suite, "--m", "5", "--N", "1:5", "--beyond-desk", flag, value,
            "--format", "json"]
    payload = run_pinned(tmp_path, args, 1)
    passes, fails, digest = BEYOND_DESK_FAILURE_PINS[suite, flag, value]
    assert json.loads(payload)["summary"] == {"pass": passes, "fail": fails}
    assert hashlib.sha256(payload).hexdigest() == digest


def test_weyl_comm_failures_name_an_entry(tmp_path):
    # fef+1 fails the E and F conjugation relations; each failure names the
    # first entry where t X_i and its conjugate differ
    out = tmp_path / "b.json"
    args = ["verify", "braiding", "--m", "2:3", "--N", "1", "--weyl-variant", "fef+1",
            "--format", "json", "--out", str(out)]
    assert cli.main(args) == 1
    failed = [
        c for c in json.loads(out.read_text())["checks"]
        if c["status"] == "fail" and c["id"] == "braiding.weyl_comm"
    ]
    assert len(failed) == 10
    for c in failed:
        assert re.fullmatch(r"t [EFK]_\d+ \S+ -> \S+: \S+ want \S+", c["witness"]), c["witness"]


def test_timings_are_excluded_by_default(tmp_path):
    out = tmp_path / "r.json"
    cli.main(["verify", "geom", "--m", "2", "--format", "json", "--out", str(out)])
    payload = json.loads(out.read_text())
    assert all("ms" not in c for c in payload["checks"])
    cli.main(["verify", "geom", "--m", "2", "--format", "json", "--timings", "--out", str(out)])
    payload = json.loads(out.read_text())
    assert any("ms" in c for c in payload["checks"])


def test_text_format_summary(capsys):
    code = cli.main(["verify", "howe", "--m", "1:2", "--N", "1:2"])
    captured = capsys.readouterr().out
    assert code == 0
    assert "summary:" in captured
    assert "0 failed" in captured


def test_desk_ceiling_is_enforced():
    proc = run_cli(["verify", "braiding", "--m", "9"])
    assert proc.returncode == 2
    assert "beyond-desk" in proc.stderr


@pytest.mark.parametrize("suite", ["howe", "ktheory"])
def test_empty_grid_is_a_usage_error(suite):
    # no N <= 2m in the grid: the run would verify nothing
    proc = run_cli(["verify", suite, "--m", "1", "--N", "3:4"])
    assert proc.returncode == 2
    assert f"suite {suite} has no check at --m 1:1 --N 3:4" in proc.stderr
    assert proc.stdout == ""


def test_import_footprint():
    # a verify run and a dump load none of the slow standard modules; one
    # that the interpreter loads at start-up, before qhowe, is not counted
    code = (
        "import os, sys\n"
        "slow = {'dataclasses', 'inspect', 'fractions', 'decimal', 'traceback'}\n"
        "before = set(sys.modules)\n"
        "from qhowe import cli\n"
        "assert cli.main(['verify', 'all', '--m', '1:2', '--N', '1:2', '--out', os.devnull]) == 0\n"
        "assert cli.main(['dump', 'rmatrix', '--m', '3', '--k', '1', '--l', '2', '--out', os.devnull]) == 0\n"
        "print(sorted(slow & set(sys.modules) - before))\n"
    )
    proc = subprocess.run([sys.executable, "-s", "-c", code], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "[]\n"


GARBAGE_PROBE = """
import gc, json, os, sys, types
from qhowe import cli

def from_qhowe(obj):
    owner = obj if isinstance(obj, types.FunctionType) else type(obj)
    return (getattr(owner, "__module__", None) or "").startswith("qhowe")

gc.collect()
gc.disable()
gc.set_debug(gc.DEBUG_SAVEALL)
counts = []
for argv in json.loads(sys.argv[1]):
    before = len(gc.garbage)  # kept alive there, so no later pass counts them again
    assert cli.main([*argv, "--out", os.devnull]) == 0
    gc.collect()
    assert not [obj for obj in gc.garbage if from_qhowe(obj)], (argv, gc.garbage[-3:])
    counts.append(len(gc.garbage) - before)
print(json.dumps(counts))
"""


def test_verify_run_leaves_no_cyclic_garbage():
    # cli.run turns the cyclic collector off, which leaks nothing only if a
    # run makes no cycles of its own: each run's garbage is argparse's parser,
    # as much as the smallest run leaves
    runs = [
        ["verify", "howe", "--m", "1", "--N", "1"],
        ["verify", "all", "--m", "1:4", "--N", "1:4"],
        ["verify", "geom", "--m", "1:6"],
    ]
    proc = subprocess.run([sys.executable, "-c", GARBAGE_PROBE, json.dumps(runs)],
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    argparse_only, *counts = json.loads(proc.stdout)
    assert counts == [argparse_only, argparse_only]


def test_process_entry_flushes_and_keeps_status(tmp_path):
    # run() ends by os._exit, which flushes nothing: a report written to a
    # block-buffered pipe must still arrive whole, under main()'s exit status
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    out = tmp_path / "out"
    for args, status in [
        (["verify", "howe", "--m", "2", "--N", "2", "--coproduct", "flipped"], 1),
        (["dump", "rmatrix", "--m", "3", "--k", "1", "--l", "2"], 0),
    ]:
        proc = subprocess.run([sys.executable, "-m", "qhowe.cli", *args], capture_output=True,
                              env=env)
        assert proc.returncode == status, proc.stderr
        assert cli.main([*args, "--out", str(out)]) == status
        assert proc.stdout == out.read_bytes()
    # a usage error still leaves through argparse's SystemExit
    proc = run_cli(["verify", "howe", "--m", "0"])
    assert proc.returncode == 2
    assert "qhowe verify: error: argument --m: bad range '0'" in proc.stderr
    assert proc.stdout == ""


GOLDEN_BETA_2_1_1 = """4 4
X1|X1 X1|X1 1*q^(1/2)
X1|X2 X2|X1 1*q^(-1/2)
X2|X1 X1|X2 1*q^(-1/2)
X2|X1 X2|X1 -1*q^(-3/2)+1*q^(1/2)
X2|X2 X2|X2 1*q^(1/2)
"""


def test_dump_braiding_golden(tmp_path):
    out = tmp_path / "beta.txt"
    code = cli.main(["dump", "braiding", "--m", "2", "--k", "1", "--l", "1", "--out", str(out)])
    assert code == 0
    assert out.read_text() == GOLDEN_BETA_2_1_1


def test_dump_weyl_t_smallest(capsys):
    code = cli.main(["dump", "weyl_t", "--m", "1", "--k", "0", "--l", "1"])
    out = capsys.readouterr().out.splitlines()
    assert code == 0
    assert out[0] == "1 1"
    assert out[1] == "X1|1 1|X1 1"


def test_dump_e_operator(capsys):
    code = cli.main(["dump", "e", "--m", "2", "--k", "1", "--l", "1", "--r", "1"])
    out = capsys.readouterr().out.splitlines()
    assert code == 0
    nrows, ncols = map(int, out[0].split())
    assert (nrows, ncols) == (1, 4)


def test_exit_status_reflects_failures(capsys):
    # force failing checks through a broken convention: the flipped
    # coproduct breaks the distinguished-vector recursion
    code = cli.main(["verify", "howe", "--m", "2", "--N", "2", "--coproduct", "flipped"])
    capsys.readouterr()
    assert code == 1
    # overriding the Weyl variant fails cleanly too, without exceptions
    code = cli.main(["verify", "braiding", "--m", "2", "--N", "2", "--weyl-variant", "efe+1"])
    out = capsys.readouterr().out
    assert code == 1
    assert "FAIL" in out and "internal.error" not in out
    # an operator inequality names the first differing entry: column -> row
    lines = out.splitlines()
    at = next(n for n, x in enumerate(lines) if x.startswith("[FAIL] braiding.beta_eq_scaled_weyl"))
    assert re.fullmatch(r" +witness: beta \S+ -> \S+: \S+ want \S+", lines[at + 1]), lines[at + 1]


# sha256 of `dump KIND --m 3` output.  The weyl_t, rickard, e and f pins
# were taken before the Howe-side sl_2 operators were rebuilt from the slot
# module; they pin the transport.  The braiding pin is the one whose exponents
# are fractions (thirds); every other pin's are integers.
DUMP_PINS = {
    ("braiding", None, 1, 2): "c969fe520643abdc8abd2c0dbf0e81784c2615f0c9208946954d043642a3b230",
    ("weyl_t", None, 1, 2): "efdbcd36bfc925f09bee93815c4989c0ed412f427638217270ec2e784e73ba43",
    ("weyl_t", None, 2, 1): "5dd876b3ea41d4fbb6e2210ed9968623fe569c8ff25069a231f93976154c24ba",
    ("rickard", None, 1, 2): "efdbcd36bfc925f09bee93815c4989c0ed412f427638217270ec2e784e73ba43",
    ("rickard", None, 2, 1): "5dd876b3ea41d4fbb6e2210ed9968623fe569c8ff25069a231f93976154c24ba",
    ("e", 1, 1, 2): "8ad26556ca71e49aaee61044cbaa9ef6d8cb47e71100ed65dae3c3f5f44c4991",
    ("e", 1, 2, 1): "f111f50f3f330f5a86885d408b881b7c092f34d3b8b94600ee24a0068c602678",
    ("e", 2, 1, 2): "74c92a13ec223e6743c11c9294160a4e250ee0dbb5d8696cb49a5e6804a4d3af",
    ("e", 2, 2, 1): "65e5bb61430d347a90dc285904401891a6484d9255be8c53c0e838cf41ce0a64",
    ("f", 1, 1, 2): "81e565035a43b88aface18e1ed9b50168eee338eafd5c5717bfa11c0468f951d",
    ("f", 1, 2, 1): "fdc788fc66491f41a7512d59632634a39e79f032525898a0a86467e2bfefaaeb",
    ("f", 2, 1, 2): "19e5d789eb321b476c8014c2a91d7940c1ccc2102f6e665c0f42c8c46e0e35d4",
    ("f", 2, 2, 1): "74c92a13ec223e6743c11c9294160a4e250ee0dbb5d8696cb49a5e6804a4d3af",
}


@pytest.mark.parametrize("kind,r,k,l", sorted(DUMP_PINS, key=repr))
def test_dump_is_pinned(tmp_path, kind, r, k, l):
    args = ["dump", kind, "--m", "3", "--k", str(k), "--l", str(l)]
    payload = run_pinned(tmp_path, args if r is None else [*args, "--r", str(r)], 0)
    assert hashlib.sha256(payload).hexdigest() == DUMP_PINS[kind, r, k, l]


# Each non-default convention and the (k, l) blocks whose Euler-sum check
# it fails at m = N = 2.
OVERRIDE_FAILURES = {
    ("--grading-sign", "1"): {(1, 1)},
    ("--weyl-variant", "efe+1"): {(0, 2), (1, 1)},
    ("--weyl-variant", "fef+1"): {(1, 1)},
    ("--weyl-variant", "efe-1"): {(0, 2)},
}


@pytest.mark.parametrize("override", [list(o) for o in OVERRIDE_FAILURES])
def test_ktheory_overrides_reach_the_computation(tmp_path, override):
    # a non-default convention must make a pinned Euler-sum check fail
    out = tmp_path / "k.json"
    args = ["verify", "ktheory", "--m", "2", "--N", "2", "--format", "json", "--out", str(out)]
    assert cli.main([*args, *override]) == 1
    failed = [c for c in json.loads(out.read_text())["checks"] if c["status"] == "fail"]
    assert {c["id"] for c in failed} == {"ktheory.rickard_eq_weyl"}
    assert {(c["params"]["k"], c["params"]["l"]) for c in failed} == OVERRIDE_FAILURES[tuple(override)]
    if override[0] == "--grading-sign":
        assert all(c["params"]["eps"] == 1 for c in failed)


def test_internal_error_names_task_and_frame(tmp_path, monkeypatch):
    def verify_commutator(m, N, conv):
        raise ZeroDivisionError("boom")

    line = verify_commutator.__code__.co_firstlineno + 1
    monkeypatch.setattr(cli.ktheory, "verify_commutator", verify_commutator)
    out = tmp_path / "k.json"
    code = cli.main(["verify", "ktheory", "--m", "2", "--N", "1", "--format", "json", "--out", str(out)])
    assert code == 1
    (err,) = [c for c in json.loads(out.read_text())["checks"] if c["id"] == "internal.error"]
    conv = "Conventions(coproduct='standard', variant=('fef', -1), eps=-1)"
    assert err["params"] == {"task": "verify_commutator", "args": ["2", "1", conv]}
    assert err["witness"] == f"ZeroDivisionError: boom at test_cli.py:{line}"


@pytest.mark.parametrize("field,value,message", [
    ("weyl_variant", "fef0", "unknown Weyl variant 'fef0'"),
    ("grading_sign", 0, "grading sign must be -1 or 1, got 0"),
    ("coproduct", "bogus", "unknown coproduct 'bogus'"),
])
def test_bad_conventions_are_value_errors(field, value, message):
    # a convention the CLI's choices exclude fails from the API like every
    # other bad SuiteConfig, before any task runs or the header states it
    with pytest.raises(ValueError, match=message):
        cli.run_suite(cli.SuiteConfig("ktheory", (1, 1), (1, 1), **{field: value}))


SWAPPED_WEYL_LINE = 'up, down = (ONE, unit) if order == "fef" else (unit, ONE)'


def test_swapped_weyl_matrices_fail_the_default_run(tmp_path):
    # a copy of the package whose fef and efe matrices on V(1) are swapped:
    # the default run still states fef-1, and the braiding checks that chose
    # that convention fail on the wrong element instead of relabelling it
    src = pathlib.Path(cli.__file__).resolve().parent
    pkg = tmp_path / "qhowe"
    shutil.copytree(src, pkg, ignore=shutil.ignore_patterns("__pycache__"))
    path = pkg / "braidgrp.py"
    text = path.read_text()
    assert text.count(SWAPPED_WEYL_LINE) == 1
    path.write_text(text.replace(SWAPPED_WEYL_LINE, SWAPPED_WEYL_LINE.replace('"fef"', '"efe"')))
    proc = subprocess.run(
        [sys.executable, "-m", "qhowe.cli", "verify", "all", "--m", "1:2", "--N", "1:2",
         "--format", "json"],
        capture_output=True, text=True, cwd=tmp_path, env={**os.environ, "PYTHONPATH": str(tmp_path)},
    )
    assert proc.returncode == 1, proc.stderr
    payload = json.loads(proc.stdout)
    assert payload["conventions"]["weyl_variant"] == "fef-1"
    failed = {c["id"] for c in payload["checks"] if c["status"] == "fail"}
    assert {"braiding.weyl_comm", "braiding.high_to_low"} <= failed


@pytest.mark.parametrize(
    "args",
    [
        ["e", "--m", "2", "--k", "1", "--l", "1", "--r", "-1"],
        ["f", "--m", "2", "--k", "3", "--l", "1"],
        ["weyl_t", "--m", "2", "--k", "-1", "--l", "1"],
        ["braiding", "--m", "2", "--k", "1", "--l", "1", "--r", "5"],
        # the Weyl-side operators are one operator under both coproducts
        ["rmatrix", "--m", "2", "--k", "1", "--l", "1", "--coproduct", "flipped"],
        ["braiding", "--m", "2", "--k", "1", "--l", "1", "--coproduct", "flipped"],
        ["weyl_t", "--m", "2", "--k", "1", "--l", "1", "--coproduct", "flipped"],
    ],
)
def test_dump_rejects_bad_arguments(args):
    proc = run_cli(["dump", *args])
    assert proc.returncode == 2
    assert "error:" in proc.stderr and "Traceback" not in proc.stderr
    assert proc.stdout == ""
