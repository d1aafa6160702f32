"""Regenerate the reference outputs of the correctness gate.

    python3 perfbench/make_reference.py

Runs each workload once at the reference seed and writes, under
``perfbench/reference/``, every sweep's rows (``value`` and ``status``
are compared; ``gap`` and ``nodes`` are recorded only) and every suite's
case count.  Regenerate only from a commit whose values are trusted:
the gate compares later commits against these files.
"""

from __future__ import annotations

import csv
import json
import shutil
import sys
import tempfile
from pathlib import Path

from run import OUT, import_program
from workloads import REFERENCE_DIR, REFERENCE_SEED, WORKLOADS, Sweep

COLUMNS = ("instance", "q", "delta", "family", "value", "status", "gap", "nodes")


def main() -> int:
    import_program()
    REFERENCE_DIR.mkdir(exist_ok=True)
    OUT.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(dir=OUT))
    suites: dict[str, int] = {}
    try:
        for workload in WORKLOADS.values():
            state = workload.setup(work, REFERENCE_SEED)
            if isinstance(workload, Sweep):
                workload.run_pass(state)
                rows = workload.read_rows(state)
                with open(workload.reference, "w", newline="") as handle:
                    writer = csv.writer(handle)
                    writer.writerow(COLUMNS)
                    for key in sorted(rows):
                        row = rows[key]
                        writer.writerow([workload.instance, *(row[c] for c in COLUMNS[1:])])
            else:
                for report in workload.run_pass(state):
                    if not report.passed:
                        sys.exit(f"suite {report.name} fails at the reference seed")
                    suites[report.name] = report.cases
    finally:
        shutil.rmtree(work, ignore_errors=True)
    (REFERENCE_DIR / "suites.json").write_text(json.dumps(suites, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
