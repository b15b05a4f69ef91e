"""One pass over a workload in a fresh interpreter.

    python3 perfbench/worker.py --workload NAME --order 2,0,1 [--trace]

Imports oscvar from the ``src`` directory next to this benchmark, runs the
workload's items in the given order (optionally under the tracer) and
prints the pass as one JSON object on standard output.
"""

from __future__ import annotations

import argparse
import importlib
import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
MODULES = ("oscvar.suite", "oscvar.annihilator", "oscvar.filtration", "oscvar.detvar")


def import_oscvar():
    """Import the four user-facing modules from ``SRC``, never an installed copy."""
    sys.path.insert(0, str(SRC))
    for name in MODULES:
        mod = importlib.import_module(name)
        if Path(mod.__file__).resolve().parent != (SRC / "oscvar").resolve():
            raise ImportError(f"{name} was imported from {mod.__file__}, not from {SRC}")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--order", required=True, help="comma-separated item indices")
    ap.add_argument("--trace", action="store_true")
    args = ap.parse_args(argv)

    sys.path.insert(0, str(HERE))
    from tracer import Tracer
    from workloads import WORKLOADS, run_pass

    items = WORKLOADS[args.workload]
    order = [int(i) for i in args.order.split(",")]
    if sorted(order) != list(range(len(items))):
        ap.error(f"--order must permute 0..{len(items) - 1}")
    import_oscvar()
    # The speed probe would be timed as part of traced spans, so traced
    # passes run without it.
    result = run_pass(
        [items[i] for i in order],
        Tracer() if args.trace else None,
        probe=not args.trace,
    )
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
