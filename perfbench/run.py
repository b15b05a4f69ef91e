"""The oscvar benchmark: time to verdict on four fixed workloads.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout.  Each pass over the workload runs
in a fresh interpreter (``worker.py``), the way every CLI call starts; the
run repeats passes for about ``--seconds`` seconds and reports medians.
Every verdict is checked against the invariants in ``expected.json``.

With ``--trace 0`` the result carries the end-to-end metrics; with
``--trace 1`` one untraced pass is followed by traced passes and the
result carries the per-layer metrics.  Human-readable lines come first;
the last line of standard output is the JSON result.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import random
import re
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
sys.path.insert(0, str(HERE))

from probe import NOMINAL_S, timed_probe  # noqa: E402
from workloads import WORKLOADS, check_pass, load_expected  # noqa: E402

# A run must finish well inside three minutes, whatever --seconds says.
HARD_LIMIT_S = 170.0
SETUP_LAUNCHES = 11
# Every worker gets the same hash seed, so set iteration order, and with it
# every work counter, is the same in each pass.  Bytecode caches are
# allowed, as in an installed copy, so set-up does not time compilation.
WORKER_ENV = {
    **{k: v for k, v in os.environ.items() if k != "PYTHONDONTWRITEBYTECODE"},
    "PYTHONHASHSEED": "0",
}

END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "cpu_s": "s",
    "slowest_item_s": "s",
    "peak_rss_mb": "MB",
}


class BenchError(RuntimeError):
    """The benchmark could not measure; no result is printed."""


def git_revision() -> str:
    """HEAD of the checkout, read from ``.git`` without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        loose = git / ref
        if loose.is_file():
            return loose.read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def environment() -> dict:
    return {
        "git_revision": git_revision(),
        "python": platform.python_version(),
        "cpu_count": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "loadavg_start": list(os.getloadavg()),
    }


def _remaining(deadline: float) -> float:
    left = deadline - time.perf_counter()
    if left <= 0:
        raise BenchError(f"run exceeded {HARD_LIMIT_S} s")
    return left


def measure_setup(deadline: float) -> list[float]:
    """Wall times of fresh interpreters that import the four user-facing modules.

    One unmeasured launch first, so bytecode caches are written before
    timing; users do not pay that on every call.  Each launch is rescaled
    by the speed of three probes taken just before it (see ``probe.py``).
    """
    code = (
        f"import sys; sys.path.insert(0, {str(SRC)!r}); "
        "import oscvar.suite, oscvar.annihilator, oscvar.filtration, oscvar.detvar"
    )
    times = []
    for i in range(SETUP_LAUNCHES + 1):
        speed = statistics.fmean(NOMINAL_S / timed_probe() for _ in range(3))
        t0 = time.perf_counter()
        proc = subprocess.run(
            [sys.executable, "-c", code],
            env=WORKER_ENV,
            capture_output=True,
            text=True,
            timeout=_remaining(deadline),
        )
        dt = time.perf_counter() - t0
        if proc.returncode != 0:
            raise BenchError(f"importing oscvar failed:\n{proc.stderr}")
        if i:
            times.append(dt * speed)
    return times


def run_worker(workload: str, order: list[int], trace: bool, deadline: float) -> dict:
    cmd = [
        sys.executable,
        str(HERE / "worker.py"),
        "--workload",
        workload,
        "--order",
        ",".join(map(str, order)),
    ]
    if trace:
        cmd.append("--trace")
    try:
        proc = subprocess.run(
            cmd, env=WORKER_ENV, capture_output=True, text=True, timeout=_remaining(deadline)
        )
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"a pass of {workload} did not finish before the time limit") from exc
    if proc.returncode != 0:
        raise BenchError(f"worker failed with exit code {proc.returncode}:\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def run_passes(workload, order, trace, budget_s, deadline) -> list[dict]:
    """Passes until the next one would end after ``budget_s``; at least one."""
    passes, durations = [], []
    start = time.perf_counter()
    while True:
        t0 = time.perf_counter()
        passes.append(run_worker(workload, order, trace, deadline))
        durations.append(time.perf_counter() - t0)
        elapsed = time.perf_counter() - start
        if elapsed + statistics.median(durations) > budget_s:
            return passes


def metric_name(check: str) -> str:
    """A suite check name in metric characters: ``variety-presentation.5_2_2_-1_-2``."""
    name = check.replace(", ", "_").replace("(", ".").replace(")", "")
    return re.sub(r"[^A-Za-z0-9_.-]", "_", name)


def end_to_end(passes: list[dict], setup: list[float]) -> dict:
    med = statistics.median
    return {
        "setup_s": med(setup),
        "wall_s": med(p["wall_s"] for p in passes),
        "cpu_s": med(p["cpu_s"] for p in passes),
        "slowest_item_s": med(max(r["s"] for r in p["items"]) for p in passes),
        "peak_rss_mb": med(p["peak_rss_mb"] for p in passes),
    }


def per_layer(untraced, traced, suite_checks) -> tuple[dict, list[str]]:
    """Layer metrics of the traced passes: counts from the first, times as medians.

    ``suite_checks`` names every check of the suite workload; checks that did
    not run read 0.  Returns the metrics and any counter that differed
    between traced passes.
    """
    med = statistics.median
    first = traced[0]["layers"]
    unsteady = [
        key
        for key in first
        if not key.endswith(".s")
        and any(p["layers"][key] != first[key] for p in traced[1:])
    ]
    out = {
        key: (med(p["layers"][key] for p in traced) if key.endswith(".s") else value)
        for key, value in first.items()
    }
    checks = {metric_name(name): [] for name in suite_checks}
    for p in traced:
        for r in p["items"]:
            if r["source"] == "run_suite":
                checks.setdefault(metric_name(r["item"]), []).append(r["s"])
    for name, values in checks.items():
        out[f"suite.{name}.s"] = med(values) if values else 0.0
    out["trace_overhead_s"] = med(p["raw_wall_s"] for p in traced) - med(
        p["raw_wall_s"] for p in untraced
    )
    return out, unsteady


def layer_units(name: str) -> str:
    if name.endswith(".s") or name.endswith("_s"):
        return "s"
    if name.endswith("accept_ratio"):
        return "ratio"
    if name.endswith("bits"):
        return "bits"
    return "count"


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    # SIGTERM unwinds like an exception, so subprocess.run kills and reaps
    # the running worker instead of leaving it behind.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))
    if not (SRC / "oscvar" / "__init__.py").is_file():
        print(f"error: no oscvar sources at {SRC}; run from a source checkout", file=sys.stderr)
        return 2

    t_start = time.perf_counter()
    deadline = t_start + HARD_LIMIT_S
    env = environment()
    items = WORKLOADS[args.workload]
    order = list(range(len(items)))
    random.Random(args.seed).shuffle(order)
    recorded = load_expected()["workloads"]
    expected = recorded[args.workload]
    print(f"workload {args.workload} seed {args.seed} order {order}")

    try:
        if args.trace:
            untraced = run_passes(args.workload, order, False, 0.0, deadline)
            spent = time.perf_counter() - t_start
            traced = run_passes(args.workload, order, True, args.seconds - spent, deadline)
            passes = untraced + traced
        else:
            setup = measure_setup(deadline)
            passes = run_passes(args.workload, order, False, args.seconds, deadline)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    problems = []
    attempted = failed = 0
    for p in passes:
        count, found = check_pass(expected, [items[i] for i in order], p["items"])
        attempted += count
        failed += len({name for name, _ in found})
        problems.extend(found)

    unsteady = []
    if args.trace:
        metrics, unsteady = per_layer(untraced, traced, recorded["suite"]["run_suite"])
        units = {k: layer_units(k) for k in metrics}
    else:
        metrics = end_to_end(passes, setup)
        units = END_TO_END

    env["loadavg_end"] = list(os.getloadavg())
    print("env " + json.dumps(env, sort_keys=True))
    print(f"passes {len(passes)} ({'1 untraced + %d traced' % len(traced) if args.trace else 'untraced'})")
    for key in sorted(metrics):
        print(f"  {key} = {metrics[key]} {units[key]}")
    if not args.trace:
        for key in ("raw_wall_s", "raw_cpu_s"):
            print(f"  {key} = {statistics.median(p[key] for p in passes)} s (as measured, not rescaled)")
    print(f"  error_ratio = {failed / attempted} ratio ({failed} of {attempted} items)")
    if problems:
        print("first mismatch: %s: %s" % problems[0])
    for key in unsteady:
        print(f"counter differs between traced passes: {key}")

    result = {
        "correct": not problems and not unsteady,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": metrics[k], "unit": units[k]} for k in sorted(metrics)},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
