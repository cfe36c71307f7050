#!/usr/bin/env python3
"""Compare two JSON reports with the records of some check ids left out.

    report_gate.py OLD.json NEW.json [ID ...]

Drops every record whose id is listed from both reports, recomputes each
summary, and renders both as json.dumps(report, sort_keys=True, indent=2)
plus a newline, which reproduces the bytes of a report that `qhowe verify
--format json` wrote.  Prints each listed id's (pass, fail) counts
old -> new and exits 0 iff the two renderings are equal, so a change that
adds, removes or moves only the listed checks leaves every other record
byte-identical.
"""

import json
import sys
from pathlib import Path


def counts(checks, id):
    statuses = [c["status"] for c in checks if c["id"] == id]
    return statuses.count("pass"), statuses.count("fail")


def without(report, ids):
    checks = [c for c in report["checks"] if c["id"] not in ids]
    passes = sum(c["status"] == "pass" for c in checks)
    summary = {"pass": passes, "fail": len(checks) - passes}
    return json.dumps({**report, "checks": checks, "summary": summary},
                      sort_keys=True, indent=2) + "\n"


def main(argv) -> int:
    if len(argv) < 2:
        print(__doc__.strip(), file=sys.stderr)
        return 2
    old, new = (json.loads(Path(path).read_text()) for path in argv[:2])
    ids = set(argv[2:])
    for id in argv[2:]:
        print(f"{id}: {counts(old['checks'], id)} -> {counts(new['checks'], id)}")
    same = without(old, ids) == without(new, ids)
    print("gate: the reports agree off the listed ids" if same
          else "gate: the reports differ off the listed ids")
    return 0 if same else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
