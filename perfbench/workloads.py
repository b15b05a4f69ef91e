"""Workload definitions, one pass over a workload, and the correctness gate.

A workload is a fixed list of items.  Each item is one call of a public
oscvar function.  A pass runs every item once, in the order it is given,
and records for each item its time, its verdict and its invariants: the
level, kernel and ideal dimensions and the enumeration counts that any
correct revision must reproduce.  Full payloads are not compared, so new
payload fields (failure witnesses, say) do not break the gate.

This module imports oscvar only inside ``run_pass``, so the parent process
of the benchmark never pays for it.
"""

from __future__ import annotations

import contextlib
import importlib
import json
import resource
import time
from pathlib import Path

from probe import Probe

EXPECTED_PATH = Path(__file__).resolve().parent / "expected.json"


class Cfg(tuple):
    """Config parameters ``(n, n1, n2[, l1, l2])``, built into an
    ``oscvar.osc.Config`` when the item runs."""


def item(module: str, function: str, *args) -> tuple:
    return (module, function, args)


def label(it: tuple) -> str:
    _module, function, args = it
    parts = []
    for a in args:
        if isinstance(a, Cfg):
            parts.append("(" + ",".join(str(v) for v in a) + ")")
        else:
            parts.append(str(a))
    return f"{function}:" + ":".join(parts) if parts else function


# |J1| = |J3| = 3 with a singleton middle block, as in the suite's z-ring checks.
_Z33 = Cfg((7, 3, 4))

WORKLOADS = {
    # The standing matrix users actually run; the no-regression guard.
    "suite": [item("suite", "run_suite")],
    # Coordinate-member re-verification: osc plus span queries, no detvar.
    "annihilator-deep": [
        item("annihilator", "verify_variety_presentation", Cfg((6, 2, 4, -1, -1)), 4),
        item("annihilator", "verify_variety_presentation", Cfg((5, 2, 2, -1, -2)), 4),
        item("annihilator", "verify_variety_presentation", Cfg((8, 2, 6, -1, -1)), 3),
    ],
    # Span writes (insert, products) in the product, T-cell and dprime regimes.
    "tower-deep": [
        item("filtration", "build_tower", Cfg((4, 2, 2, -1, -1)), 11, "explicit"),
        item("filtration", "compare_towers", Cfg((5, 2, 3, -1, -1)), 6),
        item("filtration", "compare_towers", Cfg((4, 1, 3, -1, 1)), 8),
        item("filtration", "compare_towers", Cfg((4, 3, 4, 1, 1)), 8),
    ],
    # Polynomial products, substitution and kernels; no osc, filtration or
    # annihilator, so a change to those layers must leave it flat.
    "detvar-kernels": [
        item("detvar", "verify_gset_independence", _Z33, 5),
        item("detvar", "verify_minor3_kernel", _Z33, 5),
    ],
}

# Reduced copies of the four workloads, a few seconds in all, for the
# harness self-test.
SMALL_WORKLOADS = {
    "suite": [
        item("suite", "check_highest_weight"),
        item("suite", "check_tower_agreement", [((3, 1, 2, -1, -1), 3), ((3, 2, 3, 2, 1), 3)]),
    ],
    "annihilator-deep": [
        item("annihilator", "verify_variety_presentation", Cfg((4, 2, 2, -1, -1)), 3),
        item("annihilator", "verify_variety_presentation", Cfg((5, 1, 3, -1, -1)), 3),
    ],
    "tower-deep": [
        item("filtration", "build_tower", Cfg((4, 2, 2, -1, -1)), 5, "explicit"),
        item("filtration", "compare_towers", Cfg((3, 1, 2, -1, -1)), 4),
        item("filtration", "compare_towers", Cfg((3, 2, 3, 2, 1)), 4),
    ],
    "detvar-kernels": [
        item("detvar", "verify_gset_independence", Cfg((5, 2, 3)), 3),
        item("detvar", "verify_minor3_kernel", Cfg((5, 2, 3)), 3),
    ],
}


# -- verdicts and invariants ---------------------------------------------------

# Payload keys of suite check records that hold dimensions or counts.
_RECORD_KEYS = {
    "cartan",
    "checked",
    "count",
    "dim",
    "dims",
    "estimate",
    "generators_checked",
    "level_sizes",
    "monomials",
    "off_L_roots",
    "pairs",
    "pure_computed",
    "pure_predicted",
    "tuples_checked",
    "tuples_nonempty",
}


def _project(value):
    """Keep only the dimension and count fields of a payload, at any depth."""
    if isinstance(value, dict):
        out = {}
        for k, v in value.items():
            if k in _RECORD_KEYS:
                out[k] = v
            else:
                sub = _project(v)
                if sub not in (None, {}, []):
                    out[k] = sub
        return out
    if isinstance(value, (list, tuple)):
        subs = [_project(v) for v in value]
        return subs if any(s not in (None, {}, []) for s in subs) else None
    return None


def _records(records) -> list:
    """Suite check records: one outcome per record."""
    if not isinstance(records, list):
        records = [records]
    return [
        (r.name, r.status == "pass", {"status": r.status, **(_project(r.payload) or {})}, r.elapsed)
        for r in records
    ]


def _presentation(rep) -> tuple:
    inv = {
        "regime": rep["regime"],
        "checks": [
            {k: v for k, v in c.items() if k in ("name", "pass", "dims", "count")}
            for c in rep["checks"]
        ],
        "generators_checked": len(rep["member_results"]),
        "stabilized": rep["stabilized"],
    }
    return rep["overall"], inv


def _tower(tower) -> tuple:
    return True, {"method": tower.method, "dims": tower.dims}


def _compare(rep) -> tuple:
    inv = {
        "method": rep["explicit_method"],
        "levels": [[r["dim_bruteforce"], r["dim_explicit"]] for r in rep["levels"]],
    }
    return rep["all_equal"] and rep["nested"], inv


def _gset(rep) -> tuple:
    inv = {
        "tuples_checked": rep["tuples_checked"],
        "tuples_nonempty": rep["tuples_nonempty"],
        "failures": len(rep["failures"]),
    }
    return rep["all_independent"], inv


def _minor3(rep) -> tuple:
    inv = {
        "levels": [
            [d["degree"], d["dim_domain"], d["dim_kernel"], d["dim_ideal"]]
            for d in rep["levels"]
        ]
    }
    return rep["all_equal"], inv


_VERDICTS = {
    "verify_variety_presentation": _presentation,
    "build_tower": _tower,
    "compare_towers": _compare,
    "verify_gset_independence": _gset,
    "verify_minor3_kernel": _minor3,
}


def outcomes(it: tuple, result, seconds: float) -> list:
    """``(name, passed, invariants, seconds)`` for each verdict of an item.

    A suite item yields one outcome per check record, timed by the record
    (records run back to back, so their times also place them in the
    call); any other item yields one outcome for the whole call.
    """
    _module, function, _args = it
    if function in _VERDICTS:
        passed, inv = _VERDICTS[function](result)
        return [(label(it), bool(passed), inv, seconds)]
    return _records(result)


# -- one pass --------------------------------------------------------------------


def _canonical(value):
    """JSON round trip, so recorded and fresh invariants compare equal."""
    return json.loads(json.dumps(value, sort_keys=True))


def _cpu() -> float:
    own = time.process_time()
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own + kids.ru_utime + kids.ru_stime


def _rescaled(sampler, start: float, secs: float) -> float:
    """``secs`` of a probed block from ``start`` on, less probe time, at idle speed."""
    if sampler is None:
        return secs
    speed, spent = sampler.window(start, start + secs)
    return (secs - spent) * speed


def run_pass(items: list, tracer=None, probe: bool = False) -> dict:
    """Run ``items`` once, in order, and time each call.

    ``wall_s`` and ``cpu_s`` sum the item calls only: the harness's own
    work between calls (verdicts, invariants) is not timed.  With ``probe``
    each item's times are rescaled to an idle core's speed (see
    ``probe.py``) and the measured ones are kept as ``raw_wall_s`` and
    ``raw_cpu_s``.  An item that raises is recorded as an error and the
    pass goes on.
    """
    from oscvar.osc import Config

    calls = [(it, [Config(*a) if isinstance(a, Cfg) else a for a in it[2]]) for it in items]
    wall = cpu = raw_wall = raw_cpu = 0.0
    results = []
    if tracer is not None:
        tracer.install()
    try:
        for it, args in calls:
            # Looked up after the tracer is installed, so the call itself is traced.
            fn = getattr(importlib.import_module(f"oscvar.{it[0]}"), it[1])
            sampler = Probe() if probe else None
            c0 = _cpu()
            t0 = time.perf_counter()
            with sampler or contextlib.nullcontext():
                try:
                    result = fn(*args)
                    error = None
                except Exception as exc:  # noqa: BLE001 - an item failure is a measured outcome
                    result, error = None, f"{type(exc).__name__}: {exc}"
            block = time.perf_counter() - t0
            dcpu = _cpu() - c0
            speed, spent = sampler.window() if sampler else (1.0, 0.0)
            spent_cpu = sampler.spent_cpu_s if sampler else 0.0
            raw_wall += block - spent
            raw_cpu += dcpu - spent_cpu
            wall += (block - spent) * speed
            cpu += (dcpu - spent_cpu) * speed
            if error is None:
                try:
                    offset = 0.0
                    for name, passed, inv, secs in outcomes(it, result, block):
                        results.append(
                            {
                                "source": label(it),
                                "item": name,
                                "passed": passed,
                                "invariants": _canonical(inv),
                                "s": _rescaled(sampler, offset, secs),
                            }
                        )
                        offset += secs
                except Exception as exc:  # noqa: BLE001 - a malformed result is a failure
                    error = f"unreadable result: {type(exc).__name__}: {exc}"
            if error is not None:
                results.append(
                    {"source": label(it), "item": label(it), "error": error, "s": (block - spent) * speed}
                )
            del result
    finally:
        if tracer is not None:
            tracer.uninstall()
    return {
        "wall_s": wall,
        "cpu_s": cpu,
        "raw_wall_s": raw_wall,
        "raw_cpu_s": raw_cpu,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "items": results,
        "layers": tracer.metrics() if tracer is not None else None,
    }


# -- the gate ----------------------------------------------------------------------


def load_expected() -> dict:
    with open(EXPECTED_PATH) as fh:
        return json.load(fh)


def check_pass(expected: dict, items: list, outcomes_run: list) -> tuple[int, list]:
    """Outcomes attempted in one pass, and its mismatches as (outcome, problem).

    ``expected`` maps each item label of the workload to its recorded
    outcomes ``{name: invariants}``; the pass must produce exactly those
    names, each passing with equal invariants.  An outcome that is missing
    from the pass counts as attempted and failed.
    """
    want: dict = {}
    for it in items:
        want.update(expected.get(label(it), {label(it): None}))
    problems = []
    seen = set()
    for rec in outcomes_run:
        name = rec["item"]
        seen.add(name)
        if "error" in rec:
            problems.append((name, f"raised {rec['error']}"))
        elif want.get(name) is None:
            problems.append((name, "no recorded outcome"))
        elif not rec["passed"]:
            problems.append((name, "verdict is not pass"))
        elif rec["invariants"] != want[name]:
            problems.append(
                (
                    name,
                    f"invariants {json.dumps(rec['invariants'], sort_keys=True)} "
                    f"!= recorded {json.dumps(want[name], sort_keys=True)}",
                )
            )
    for name in want:
        if name not in seen:
            problems.append((name, "missing from the run"))
    return len(seen | set(want)), problems


def record(outcomes_run: list) -> dict:
    """Recorded outcomes from one clean pass, keyed by item label."""
    out: dict = {}
    for rec in outcomes_run:
        if "error" in rec or not rec["passed"]:
            raise RuntimeError(f"cannot record {rec['item']}: it did not pass")
        out.setdefault(rec["source"], {})[rec["item"]] = rec["invariants"]
    return out
