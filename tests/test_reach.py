"""Every function in src/qhowe is called by a run of the program, or is listed
in ALLOWLIST with the reason it stays.

A fresh interpreter installs a profile hook before `import qhowe` and records
each code object it enters while it runs RUNS: the desk grid in JSON, a small
grid under each non-default convention with --timings, and every dump kind.
The geom witnesses are rendered only on failure and no option makes a geom
check fail, so it then runs GEOM_FAILURE with geomcheck.canonical_y patched
to expect every class one twist off.  Last it enters the process entry
cli.run on a small verify command, with os._exit replaced by a recorder
that must see status 0.  The functions and methods defined
with `def` in the package's sources that it never entered, named
`module.qualname`, must be exactly ALLOWLIST.
"""

import ast
import json
import os
import subprocess
import sys
from pathlib import Path

from qhowe.cli import DUMP_KINDS

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "qhowe"

SMALL = ["verify", "all", "--m", "1:2", "--N", "1:2", "--timings"]
RUNS = [
    # Laurent.n_terms first runs at m = 4, and json_bytes needs --format json
    ["verify", "all", "--m", "1:4", "--N", "1:4", "--format", "json"],
    [*SMALL, "--coproduct", "flipped"],
    [*SMALL, "--weyl-variant", "efe+1"],
    [*SMALL, "--grading-sign", "1"],
    *(["dump", kind, "--m", "3", "--k", "1", "--l", "2"] for kind in DUMP_KINDS),
]
GEOM_FAILURE = ["verify", "geom", "--m", "2"]

GCD = "the gcd layer: perfbench/tracer.py wraps laurent_gcd, so its deletion is a benchmark change"
ORPHAN = "an orphan check, to be reached from verify once its suite lands"
ALLOWLIST = {
    "_linalg._shifted_poly": GCD,
    "_linalg._primitive_prem": GCD,
    "qring.Laurent.content": GCD,
    "braidgrp.verify_module_map": ORPHAN,
    "braidgrp.verify_yang_baxter": ORPHAN,
    "ktheory.verify_rickard_invertible": ORPHAN,
    "qmodule.straighten": "exported; the oracle of Module.act in tests/test_qmodule.py",
    "qring.Laurent.__setattr__": "guard: Laurent values are immutable",
    "_value.Frozen.__setattr__": "guard: Frozen values are immutable",
    "_value.Frozen.__reduce__": "copy and pickle rebuild through __init__",
    "_value.Record._key": "value semantics: equality of mutable records",
    "_value.Record.__repr__": "value semantics: repr of records",
    "qring.Laurent.__hash__": "value semantics: Laurent values are hashable",
    "qring.Laurent.__repr__": "value semantics: repr of Laurent values",
    "qring.Laurent.integer": "int operands of the public arithmetic",
}

PROBE = """
import json, os, sys
pkg = sys.argv[1]
seen = set()
def hook(frame, event, arg):
    if event == "call":
        seen.add(frame.f_code)
sys.setprofile(hook)
from qhowe import cli, geomcheck
for argv in json.loads(sys.argv[2]):
    cli.main([*argv, "--out", os.devnull])
canonical_y = geomcheck.canonical_y
geomcheck.canonical_y = lambda m, k, l: canonical_y(m, k, l).twisted(1)
assert cli.main([*json.loads(sys.argv[3]), "--out", os.devnull]) == 1
exits = []
os._exit = exits.append
sys.argv = ["qhowe", "verify", "howe", "--m", "1", "--N", "1", "--out", os.devnull]
cli.run()
assert exits == [0], exits
sys.setprofile(None)
print(json.dumps(sorted({(os.path.basename(c.co_filename), c.co_firstlineno, c.co_name)
                         for c in seen if os.path.dirname(c.co_filename) == pkg})))
"""


def defined_functions():
    """(file, first line, name) -> module.qualname of every def in the package."""
    out = {}

    def walk(node, module, prefix):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.ClassDef):
                walk(child, module, f"{prefix}{child.name}.")
            elif isinstance(child, ast.FunctionDef):
                # a decorated def's code starts at its first decorator
                line = min([child.lineno, *(d.lineno for d in child.decorator_list)])
                out[f"{module}.py", line, child.name] = f"{module}.{prefix}{child.name}"
                walk(child, module, f"{prefix}{child.name}.<locals>.")
            else:
                walk(child, module, prefix)

    for path in sorted(PACKAGE.glob("*.py")):
        walk(ast.parse(path.read_text()), path.stem, "")
    return out


def called_functions():
    """(file, first line, name) of every package code object the probe entered."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-c", PROBE, str(PACKAGE), json.dumps(RUNS), json.dumps(GEOM_FAILURE)],
        capture_output=True, text=True, env=env, check=True,
    )
    return {tuple(c) for c in json.loads(proc.stdout)}


def test_every_function_is_reached_or_allowlisted():
    called = called_functions()
    never = {name for key, name in defined_functions().items() if key not in called}
    assert never == set(ALLOWLIST)
