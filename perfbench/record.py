"""Record the expected outcomes of every workload into ``expected.json``.

    python3 perfbench/record.py

Runs each workload, and each reduced self-test copy, once in this process
and stores every verdict's invariants.  Run it only on a revision whose
verdicts are known to be right: the benchmark treats the recording as the
truth.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from worker import import_oscvar  # noqa: E402
from workloads import EXPECTED_PATH, SMALL_WORKLOADS, WORKLOADS, record, run_pass  # noqa: E402


def main() -> int:
    import_oscvar()
    out = {}
    for section, table in (("workloads", WORKLOADS), ("small", SMALL_WORKLOADS)):
        out[section] = {}
        for name, items in table.items():
            out[section][name] = record(run_pass(items)["items"])
            print(f"recorded {section}/{name}", flush=True)
    EXPECTED_PATH.write_text(json.dumps(out, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
