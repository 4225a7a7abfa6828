"""Regenerate ``expected.json``: each request's repairs and satisfied demand.

Run from the repository root when a change is *meant* to alter results::

    python3 recoverybench/make_expected.py

It solves every distinct first-pass request of every workload in-process
and records, per request, each algorithm's ``total_repairs`` and
``satisfied_pct`` — the table ``run.py`` checks every run against.
"""

from __future__ import annotations

import json
import sys

from run import EXPECTED, ROOT, _outcome
from workloads import WORKLOADS, distinct_requests


def dumps_table(table) -> str:
    """The table as JSON with one request per line, for readable diffs."""
    blocks = []
    for workload in sorted(table):
        rows = ",\n".join(
            f"    {json.dumps(label)}: {json.dumps(outcome)}"
            for label, outcome in sorted(table[workload].items())
        )
        blocks.append(f"  {json.dumps(workload)}: {{\n{rows}\n  }}")
    return "{\n" + ",\n".join(blocks) + "\n}\n"


def main() -> int:
    sys.path.insert(0, str(ROOT / "src"))
    from repro import RecoveryService
    from repro.api.requests import RecoveryRequest

    table = {}
    for workload in WORKLOADS:
        service = RecoveryService()
        table[workload] = {
            label: _outcome(service.solve(RecoveryRequest.from_dict(payload)).to_dict())
            for label, payload in distinct_requests(workload)
        }
        print(f"{workload}: {len(table[workload])} requests", file=sys.stderr)
    EXPECTED.write_text(dumps_table(table))
    return 0


if __name__ == "__main__":
    sys.exit(main())
