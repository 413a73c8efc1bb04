"""Write the verdict ledger of each workload from one pass of this checkout.

    python3 perfbench/make_ledger.py [WORKLOAD ...]

The checked-in ledgers hold the seed commit's verdicts; rewrite one only
when a workload's script changes, from the commit it is measured against.
"""

from __future__ import annotations

import json
import os
import shutil
import sys
import time

from run import HERE, ROOT, _child
from workloads import WORKLOADS


def write_ledger(path: str, ledger: dict):
    """JSON with one check per line, so a diff shows each changed verdict."""
    rows = ",\n".join(f"  {json.dumps(k)}: {json.dumps(v, sort_keys=True)}"
                      for k, v in sorted(ledger["checks"].items()))
    with open(path, "w", encoding="utf-8") as fh:
        fh.write('{"checks": {' + (f"\n{rows}\n " if rows else "") + "},\n")
        fh.write(f' "errors": {json.dumps(ledger["errors"])},\n')
        fh.write(f' "values": {json.dumps(ledger["values"], sort_keys=True)}'
                 "}\n")


def main(names) -> int:
    for name in names or sorted(WORKLOADS):
        work = os.path.join(ROOT, ".perfbench_work", f"ledger-{name}")
        try:
            out = _child("cold", name, 0, work, time.monotonic() + 600)
        finally:
            shutil.rmtree(work, ignore_errors=True)
        path = os.path.join(HERE, "ledger", f"{name}.json")
        os.makedirs(os.path.dirname(path), exist_ok=True)
        summary = out["summary"]
        write_ledger(path, {key: summary[key]
                            for key in ("checks", "values", "errors")})
        print(f"{path}: {len(out['summary']['checks'])} checks, "
              f"{len(out['problems'])} oracle problems")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
