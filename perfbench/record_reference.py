"""Record the reports of every workload's reference cycle into reference.json.

    python3 perfbench/record_reference.py

Run it only at a commit whose reports are the ones later commits should
reproduce; ``max_result_drift`` measures the distance from these values.
"""

from __future__ import annotations

import json
import shutil
import sys
import tempfile
from pathlib import Path

from run import REFERENCE, ROOT, RUN_DIR, cycle_spec, run_worker
from workloads import REFERENCE_SEED, WORKLOADS


def main() -> int:
    RUN_DIR.mkdir(exist_ok=True)
    recorded = {}
    for name in WORKLOADS:
        work = Path(tempfile.mkdtemp(prefix="record-", dir=RUN_DIR))
        try:
            out = run_worker({"root": str(ROOT),
                              "reference": cycle_spec(name, work, REFERENCE_SEED, "reference"),
                              "requests": []}, work)
        finally:
            shutil.rmtree(work, ignore_errors=True)
        if out["reference_problems"]:
            print(f"{name}: {out['reference_problems']}", file=sys.stderr)
            return 1
        recorded[name] = out["reference_values"]
    REFERENCE.write_text(json.dumps(recorded, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
