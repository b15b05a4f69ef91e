"""Batch front door: configure parameters, run verifications, emit reports.

Every command echoes its run parameters, appends one record per check and
exits 0 when nothing failed (skipped regimes count as non-failures), 1 on
any failed check, 2 on invalid usage, including a --kmax or --max-degree
too small for a check to decide (that check is recorded as skipped, with
the reason) and parameters whose monomials leave the packed degree limit
(``OverflowError``, as for --l1 -300).  JSON output is deterministic byte-for-byte for a fixed
command line and seed.
"""

from __future__ import annotations

import argparse
import itertools
import json
import random
import sys
import time
from types import SimpleNamespace
from typing import Callable, NamedTuple

from . import annihilator, suite
from .annihilator import OutOfTheoremError, ShallowSystemError, degree1_report, verify_degree2
from .detvar import has_3chain, verify_gset_independence, verify_minor2_kernel, \
    verify_minor3_kernel
from .filtration import (
    UnsupportedRegimeError,
    build_M0,
    build_tower,
    compare_towers,
    hilbert_sequence,
    tower_from_dict,
    tower_to_dict,
)
from .osc import Config, classify_irreducible
from .reports import CheckRecord, FormatError, Report, serialize


class Check(NamedTuple):
    """One record of a command.

    ``compute(ctx)`` is timed, and may leave values on ``ctx`` for the
    checks after it; ``payload`` turns its result into the record's payload
    and ``verdict`` (by default the shared verdict of the anchor) into pass
    or fail.  ``records`` replaces both where one result gives several
    records.
    """

    name: str
    anchor: str
    compute: Callable
    payload: Callable = dict
    verdict: Callable | None = None
    records: Callable | None = None

    def emit(self, result, elapsed: float) -> list[CheckRecord]:
        if self.records is not None:
            return self.records(result, elapsed)
        passed = (self.verdict or suite.VERDICTS[self.anchor])(result)
        status = "pass" if passed else "fail"
        return [CheckRecord(self.name, self.anchor, status, self.payload(result), elapsed)]


class Command(NamedTuple):
    checks: tuple
    needs: Callable | None = None  # cfg -> why the input cannot be checked, or ""
    options: tuple = ()  # (flag, argparse keyword arguments) pairs


# A computation that raises one of these is recorded as skipped, with the
# reason; a ShallowSystemError also makes the exit code 2.
SKIPS = (UnsupportedRegimeError, OutOfTheoremError, ShallowSystemError)


def _params(args) -> dict:
    return {
        "n": args.n,
        "n1": args.n1,
        "n2": args.n2,
        "l1": args.l1,
        "l2": args.l2,
        "kmax": args.kmax,
        "max_degree": args.max_degree,
        "seed": args.seed,
        "out": args.out,
    }


def run(name: str, args) -> Report:
    """Run one command: every check in order, each timed, until one cannot
    decide; it and the checks after it are recorded as skipped."""
    command = COMMANDS[name]
    report = Report(name, _params(args))
    ctx = SimpleNamespace(args=args, cfg=Config(args.n, args.n1, args.n2, args.l1, args.l2))
    reason = command.needs(ctx.cfg) if command.needs else ""
    checks = list(command.checks)
    try:
        while checks and not reason:
            t0 = time.time()
            result = checks[0].compute(ctx)
            report.checks.extend(checks.pop(0).emit(result, time.time() - t0))
    except SKIPS as exc:
        reason = str(exc)
        report.params_too_small = isinstance(exc, ShallowSystemError)
    report.checks.extend(
        CheckRecord(c.name, c.anchor, "skipped", {}, 0.0, reason) for c in checks
    )
    return report


# -- the commands ----------------------------------------------------------------


def _computed(result) -> bool:
    """The verdict of a command that reports what it computed, asserting
    nothing beyond having computed it."""
    return True


def _blocks(cfg) -> str:
    return "" if cfg.J1 and cfg.J3 else "needs nonempty J1 and J3 blocks"


def _n1_below_n2(cfg) -> str:
    return "" if cfg.n1 < cfg.n2 else "projection is defined only for n1 < n2"


def _seconds(text: str) -> float:
    value = float(text)
    if not value >= 0:
        raise argparse.ArgumentTypeError(f"must be a nonnegative number of seconds: {text}")
    return value


def _hilbert_table(tower) -> list[dict]:
    dims = tower.dims
    seq = hilbert_sequence(tower)
    return [{"k": k, "dim": dims[k], "delta": seq[k]} for k in range(len(dims))]


def _basis(ctx) -> dict:
    warnings: list[str] = []
    basis = build_M0(ctx.cfg, warn=warnings.append)
    payload = {"dim": basis.dim, "rows": [p.render() for p in basis.sorted_rows()]}
    if warnings:
        payload["warnings"] = warnings
    return payload


def _filtration(ctx) -> dict:
    tower = build_tower(ctx.cfg, ctx.args.kmax, "explicit")
    payload = {
        "method": tower.method,
        "dims": tower.dims,
        "hilbert_table": _hilbert_table(tower),
    }
    if ctx.args.dump_tower:
        with open(ctx.args.dump_tower, "w") as fh:
            json.dump(tower_to_dict(tower), fh, sort_keys=True, indent=1)
        payload["dumped_to"] = ctx.args.dump_tower
    return payload


def _brute_3chain(pairs) -> bool:
    for a, b, c in itertools.combinations(sorted(pairs), 3):
        if a[0] < b[0] < c[0] and a[1] < b[1] < c[1]:
            return True
    return False


def _chain3(ctx) -> dict:
    rng = random.Random(ctx.args.seed)
    trials = 500
    disagreements = 0
    chains = 0
    for _ in range(trials):
        size = rng.randint(0, 10)
        pairs = [(rng.randint(0, 8), rng.randint(0, 8)) for _ in range(size)]
        fast = has_3chain(pairs)
        if fast:
            chains += 1
        if fast != _brute_3chain(pairs):
            disagreements += 1
    return {"trials": trials, "chains_found": chains, "disagreements": disagreements}


def _independence(ctx) -> dict:
    rep = verify_gset_independence(ctx.cfg, ctx.args.max_degree)
    if not rep["tuples_checked"]:
        raise ShallowSystemError(
            f"max_degree={ctx.args.max_degree} leaves no index multiset to check"
        )
    return rep


def _degree1(ctx) -> dict:
    annihilator.refuse_wide_positive_middle(ctx.cfg)
    args = ctx.args
    if args.tower_file:
        with open(args.tower_file) as fh:
            ctx.tower = tower_from_dict(json.load(fh))
        if ctx.tower.cfg != ctx.cfg:
            raise ValueError("tower file was built for a different configuration")
        # a dump is certified only through the levels it holds, even where
        # they are U_k(g) M_0; a kmax below 2 is the degree-1 shallow skip
        if args.kmax >= 2 and args.kmax - 1 > ctx.tower.depth:
            raise ValueError("tower too shallow: need levels up to kmax-1")
    else:
        ctx.tower = annihilator.degree2_tower(ctx.cfg, args.kmax)
    ctx.i1 = degree1_report(ctx.tower, args.kmax)
    return ctx.i1


def _presentation_records(rep, elapsed: float) -> list[CheckRecord]:
    return [
        CheckRecord(
            c["name"],
            "determinantal-intersection",
            "pass" if c["pass"] else "fail",
            {k: v for k, v in c.items() if k not in ("name", "pass")},
            0.0 if i else elapsed,
        )
        for i, c in enumerate(rep["checks"])
    ]


def _gkdim(ctx) -> dict:
    # the growth fit needs at least six levels above M_0
    tower = build_tower(ctx.cfg, max(ctx.args.kmax, 6), "explicit")
    growth = suite.growth_report(tower)
    if not growth["confident"]:
        raise ShallowSystemError(
            f"depth {tower.depth} is too shallow to decide the growth degree: "
            f"estimate {growth['estimate']} has fewer than two trailing zero differences"
        )
    return {
        **growth,
        "depth": tower.depth,
        "dims": tower.dims,
        "hilbert_table": _hilbert_table(tower),
    }


def _progress(rec) -> None:
    print(
        f"[{rec.status.upper():4s}] {rec.name} ({rec.elapsed:.1f}s)",
        file=sys.stderr,
        flush=True,
    )


def _levels(rep) -> dict:
    return {"levels": rep["levels"]}


COMMANDS = {
    "classify": Command((
        Check("classification", "irreducibility-table",
              lambda ctx: {"irreducible": classify_irreducible(ctx.cfg)}, verdict=_computed),
    )),
    "basis": Command((
        Check("base-space", "base-space-recipe", _basis, verdict=_computed),
    )),
    "project": Command((
        Check("projection", "projection-kills-laplacian",
              lambda ctx: suite.projection_report(ctx.cfg, ctx.args.max_degree, keep=20)),
    ), needs=_n1_below_n2),
    "filtration": Command((
        Check("filtration", "filtration-levels", _filtration, verdict=_computed),
    ), options=(("--dump-tower", {"default": None, "metavar": "PATH"}),)),
    "verify-filtration": Command((
        Check("tower-agreement", "filtration-span-equality",
              lambda ctx: compare_towers(ctx.cfg, ctx.args.kmax),
              lambda rep: {
                  "levels": rep["levels"],
                  "method": rep["explicit_method"],
                  "nested": rep["nested"],
              }),
    )),
    "kernel-phi": Command((
        Check("quadratic-kernel", "two-minor-ideal-equals-kernel",
              lambda ctx: verify_minor2_kernel(ctx.cfg, ctx.args.max_degree), _levels),
        Check("cubic-kernel", "three-minor-ideal-equals-kernel",
              lambda ctx: verify_minor3_kernel(ctx.cfg, min(ctx.args.max_degree, 3)), _levels),
    ), needs=_blocks),
    "chain3": Command((
        Check("chain-detection", "increasing-chain-methods-agree", _chain3,
              verdict=lambda p: p["disagreements"] == 0),
    )),
    "independence": Command((
        Check("gset-independence", "chain-free-images-independent", _independence,
              suite.gset_payload),
    ), needs=_blocks),
    "annihilator": Command((
        Check("degree1-kernel", "level-preserver-span", _degree1, suite.degree1_payload),
        Check("degree2-kernel", "minor2-family-exactness",
              lambda ctx: verify_degree2(ctx.tower, ctx.args.kmax, ctx.i1),
              suite.degree2_payload),
    ), options=(("--tower-file", {"default": None, "metavar": "PATH"}),)),
    "verify-main-theorem": Command((
        Check("variety-presentation", "determinantal-intersection",
              lambda ctx: annihilator.verify_variety_presentation(ctx.cfg, ctx.args.kmax),
              records=_presentation_records),
    )),
    "gkdim": Command((
        Check("gk-growth", "hilbert-growth-degree", _gkdim),
    )),
    "suite": Command((
        Check("suite", "standing-criteria",
              lambda ctx: suite.run_suite(ctx.args.budget_seconds, progress=_progress),
              records=lambda recs, elapsed: recs),
    ), options=(("--budget-seconds", {"type": _seconds, "default": None, "metavar": "B"}),)),
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="oscvar",
        description="Exact verification engine for oscillator representations "
        "of sl(n) and their determinantal annihilator varieties.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, command in COMMANDS.items():
        p = sub.add_parser(name)
        p.add_argument("--n", type=int, default=3)
        p.add_argument("--n1", type=int, default=1)
        p.add_argument("--n2", type=int, default=2)
        p.add_argument("--l1", type=int, default=-1)
        p.add_argument("--l2", type=int, default=-1)
        p.add_argument("--kmax", type=int, default=4)
        p.add_argument("--max-degree", type=int, default=4)
        p.add_argument("--seed", type=int, default=0)
        p.add_argument("--out", choices=["json", "csv", "text"], default="json")
        for flag, kwargs in command.options:
            p.add_argument(flag, **kwargs)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.kmax < 0 or args.max_degree < 0:
        parser.error("kmax and max-degree must be nonnegative")
    try:
        report = run(args.command, args)
    except (ValueError, OverflowError, OSError, json.JSONDecodeError) as exc:
        print(f"oscvar: invalid input: {exc}", file=sys.stderr)
        return 2
    try:
        sys.stdout.write(serialize(report, args.out))
    except FormatError as exc:
        print(f"oscvar: {exc}", file=sys.stderr)
        return 2
    return report.exit_code


if __name__ == "__main__":
    sys.exit(main())
