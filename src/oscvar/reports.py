"""Machine-readable run reports.

A report is a flat list of check records, each carrying a stable name, a
claim anchor (a machine identifier of the mathematical statement being
checked), a pass/fail/skipped status and a numeric payload.  JSON output
is canonical: keys sorted, no wall-clock data, so identical runs are
byte-identical.  Timing lives in the text rendering only.
"""

from __future__ import annotations

import json

TOOL_VERSION = "0.1.0"


class CheckRecord:
    def __init__(
        self,
        name: str,
        anchor: str,
        status: str,  # "pass" | "fail" | "skipped"
        payload: dict | None = None,
        elapsed: float = 0.0,
        reason: str = "",
    ):
        self.name, self.anchor, self.status = name, anchor, status
        self.payload = {} if payload is None else payload
        self.elapsed, self.reason = elapsed, reason


class Report:
    def __init__(self, command: str, params: dict):
        self.command, self.params = command, params
        self.checks: list = []
        # Set when the run parameters were too small for a check to decide
        # (its skipped record says why); makes the exit code 2.
        self.params_too_small = False

    @property
    def overall(self) -> str:
        return "fail" if any(c.status == "fail" for c in self.checks) else "pass"

    @property
    def exit_code(self) -> int:
        if self.overall == "fail":
            return 1
        return 2 if self.params_too_small else 0


class FormatError(ValueError):
    """Requested serialization does not apply to this report."""


def _check_dict(c: CheckRecord) -> dict:
    out = {"name": c.name, "anchor": c.anchor, "status": c.status,
           "payload": c.payload}
    if c.reason:
        out["reason"] = c.reason
    return out


def to_json(report: Report) -> str:
    doc = {
        "tool": "oscvar",
        "version": TOOL_VERSION,
        "command": report.command,
        "params": report.params,
        "checks": [_check_dict(c) for c in report.checks],
        "overall": report.overall,
    }
    return json.dumps(doc, sort_keys=True, indent=2) + "\n"


def to_csv(report: Report) -> str:
    """Dimension tables only: rows of (k, dim_Mk, delta)."""
    table = None
    for c in report.checks:
        if "hilbert_table" in c.payload:
            table = c.payload["hilbert_table"]
            break
    if table is None:
        raise FormatError("csv output applies only to dimension-table commands")
    lines = ["k,dim_Mk,delta"]
    for row in table:
        lines.append(f"{row['k']},{row['dim']},{row['delta']}")
    return "\n".join(lines) + "\n"


def to_text(report: Report) -> str:
    lines = [f"oscvar {TOOL_VERSION} :: {report.command} {report.params}"]
    for c in report.checks:
        mark = {"pass": "PASS", "fail": "FAIL", "skipped": "SKIP"}[c.status]
        extra = f" ({c.reason})" if c.reason else ""
        lines.append(f"  [{mark}] {c.name} [{c.anchor}] {c.elapsed:.2f}s{extra}")
        for key, val in c.payload.items():
            if key == "hilbert_table":
                continue
            lines.append(f"      {key}: {val}")
    lines.append(f"overall: {report.overall}")
    return "\n".join(lines) + "\n"


def serialize(report: Report, fmt: str) -> str:
    if fmt == "json":
        return to_json(report)
    if fmt == "csv":
        return to_csv(report)
    if fmt == "text":
        return to_text(report)
    raise FormatError(f"unknown output format {fmt!r}")
