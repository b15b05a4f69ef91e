"""Batch front door: configure parameters, run verifications, emit reports.

Every command echoes its run parameters, appends one record per check and
exits 0 when nothing failed (skipped regimes count as non-failures), 1 on
any failed check, 2 on invalid usage, including a --kmax too small for a
check to decide (that check is recorded as skipped, with the reason).
JSON output is deterministic byte-for-byte for a fixed command line and
seed.
"""

from __future__ import annotations

import argparse
import json
import random
import sys
import time

from . import suite as suite_mod
from .annihilator import (
    OutOfTheoremError,
    ShallowSystemError,
    degree1_report,
    expected_gkdim,
    gkdim_estimate,
    verify_degree2,
)
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
from .osc import Config, classify_irreducible, enumerate_TN_level, laplace, \
    project_T_monomial
from .reports import CheckRecord, FormatError, Report, serialize


def _config(args) -> Config:
    return Config(args.n, args.n1, args.n2, args.l1, args.l2)


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


def cmd_classify(args) -> Report:
    report = Report("classify", _params(args))
    cfg = _config(args)
    report.add(
        CheckRecord(
            "classification",
            "irreducibility-table",
            "pass",
            {"irreducible": classify_irreducible(cfg)},
        )
    )
    return report


def cmd_basis(args) -> Report:
    report = Report("basis", _params(args))
    t0 = time.time()
    cfg = _config(args)
    warnings: list[str] = []
    try:
        basis = build_M0(cfg, warn=warnings.append)
    except UnsupportedRegimeError as exc:
        report.add(
            CheckRecord("base-space", "base-space-recipe", "skipped", {}, 0.0, str(exc))
        )
        return report
    payload = {
        "dim": basis.dim,
        "rows": [p.render() for p in basis.sorted_rows()],
    }
    if warnings:
        payload["warnings"] = warnings
    report.add(
        CheckRecord("base-space", "base-space-recipe", "pass", payload, time.time() - t0)
    )
    return report


def cmd_project(args) -> Report:
    report = Report("project", _params(args))
    t0 = time.time()
    cfg = _config(args)
    if cfg.n1 >= cfg.n2:
        report.add(
            CheckRecord(
                "projection",
                "projection-kills-laplacian",
                "skipped",
                {},
                0.0,
                "projection is defined only for n1 < n2",
            )
        )
        return report
    sizes = []
    failures = 0
    renders = []
    for k in range(args.max_degree + 1):
        mons = enumerate_TN_level(cfg, k)
        sizes.append(len(mons))
        for m in mons:
            img = project_T_monomial(cfg, m)
            if laplace(cfg, img):
                failures += 1
            if len(renders) < 20:
                renders.append(img.render())
    report.add(
        CheckRecord(
            "projection",
            "projection-kills-laplacian",
            "pass" if failures == 0 else "fail",
            {
                "level_sizes": sizes,
                "failures": failures,
                "projections": renders,
            },
            time.time() - t0,
        )
    )
    return report


def _hilbert_table(tower) -> list[dict]:
    dims = tower.dims
    seq = hilbert_sequence(tower)
    return [{"k": k, "dim": dims[k], "delta": seq[k]} for k in range(len(dims))]


def cmd_filtration(args) -> Report:
    report = Report("filtration", _params(args))
    t0 = time.time()
    cfg = _config(args)
    try:
        tower = build_tower(cfg, args.kmax, "explicit")
    except UnsupportedRegimeError as exc:
        report.add(
            CheckRecord("filtration", "filtration-levels", "skipped", {}, 0.0, str(exc))
        )
        return report
    payload = {
        "method": tower.method,
        "dims": tower.dims,
        "hilbert_table": _hilbert_table(tower),
    }
    if args.dump_tower:
        with open(args.dump_tower, "w") as fh:
            json.dump(tower_to_dict(tower), fh, sort_keys=True, indent=1)
        payload["dumped_to"] = args.dump_tower
    report.add(
        CheckRecord(
            "filtration", "filtration-levels", "pass", payload, time.time() - t0
        )
    )
    return report


def cmd_verify_filtration(args) -> Report:
    report = Report("verify-filtration", _params(args))
    t0 = time.time()
    cfg = _config(args)
    try:
        rep = compare_towers(cfg, args.kmax)
    except UnsupportedRegimeError as exc:
        report.add(
            CheckRecord(
                "tower-agreement",
                "filtration-span-equality",
                "skipped",
                {},
                0.0,
                str(exc),
            )
        )
        return report
    report.add(
        CheckRecord(
            "tower-agreement",
            "filtration-span-equality",
            "pass" if rep["all_equal"] and rep["nested"] else "fail",
            {
                "levels": rep["levels"],
                "method": rep["explicit_method"],
                "nested": rep["nested"],
            },
            time.time() - t0,
        )
    )
    return report


def cmd_kernel_phi(args) -> Report:
    report = Report("kernel-phi", _params(args))
    cfg = _config(args)
    if not cfg.J1 or not cfg.J3:
        report.add(
            CheckRecord(
                "quadratic-kernel",
                "two-minor-ideal-equals-kernel",
                "skipped",
                {},
                0.0,
                "needs nonempty J1 and J3 blocks",
            )
        )
        return report
    t0 = time.time()
    rep2 = verify_minor2_kernel(cfg, args.max_degree)
    report.add(
        CheckRecord(
            "quadratic-kernel",
            "two-minor-ideal-equals-kernel",
            "pass" if rep2["all_equal"] else "fail",
            {"levels": rep2["levels"]},
            time.time() - t0,
        )
    )
    t0 = time.time()
    rep3 = verify_minor3_kernel(cfg, min(args.max_degree, 3))
    report.add(
        CheckRecord(
            "cubic-kernel",
            "three-minor-ideal-equals-kernel",
            "pass" if rep3["all_equal"] else "fail",
            {"levels": rep3["levels"]},
            time.time() - t0,
        )
    )
    return report


def _brute_3chain(pairs) -> bool:
    import itertools

    for a, b, c in itertools.combinations(sorted(pairs), 3):
        if a[0] < b[0] < c[0] and a[1] < b[1] < c[1]:
            return True
    return False


def cmd_chain3(args) -> Report:
    report = Report("chain3", _params(args))
    t0 = time.time()
    rng = random.Random(args.seed)
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
    report.add(
        CheckRecord(
            "chain-detection",
            "increasing-chain-methods-agree",
            "pass" if disagreements == 0 else "fail",
            {"trials": trials, "chains_found": chains, "disagreements": disagreements},
            time.time() - t0,
        )
    )
    return report


def cmd_independence(args) -> Report:
    report = Report("independence", _params(args))
    cfg = _config(args)
    if not cfg.J1 or not cfg.J3:
        report.add(
            CheckRecord(
                "gset-independence",
                "chain-free-images-independent",
                "skipped",
                {},
                0.0,
                "needs nonempty J1 and J3 blocks",
            )
        )
        return report
    t0 = time.time()
    rep = verify_gset_independence(cfg, args.max_degree)
    report.add(
        CheckRecord(
            "gset-independence",
            "chain-free-images-independent",
            "pass" if rep["all_independent"] else "fail",
            {
                "tuples_checked": rep["tuples_checked"],
                "tuples_nonempty": rep["tuples_nonempty"],
                "failures": rep["failures"][:5],
            },
            time.time() - t0,
        )
    )
    return report


def cmd_annihilator(args) -> Report:
    report = Report("annihilator", _params(args))
    t0 = time.time()
    cfg = _config(args)
    try:
        if args.tower_file:
            with open(args.tower_file) as fh:
                tower = tower_from_dict(json.load(fh))
            if tower.cfg != cfg:
                raise ValueError("tower file was built for a different configuration")
        else:
            tower = build_tower(cfg, max(args.kmax - 1, 1), "explicit")
    except UnsupportedRegimeError as exc:
        report.add(
            CheckRecord(
                "degree1-kernel", "level-preserver-span", "skipped", {}, 0.0, str(exc)
            )
        )
        return report
    try:
        i1 = degree1_report(tower, args.kmax)
    except ShallowSystemError as exc:
        for name, anchor in (
            ("degree1-kernel", "level-preserver-span"),
            ("degree2-kernel", "minor2-family-exactness"),
        ):
            report.add(CheckRecord(name, anchor, "skipped", {}, 0.0, str(exc)))
        report.params_too_small = True
        return report
    report.add(
        CheckRecord(
            "degree1-kernel",
            "level-preserver-span",
            "pass" if i1["equal"] and i1["stabilized"] else "fail",
            {
                "dim": i1["dim_computed"],
                "cartan": i1["cartan_part"],
                "off_L_roots": i1["root_part"],
                "stabilized": i1["stabilized"],
            },
            time.time() - t0,
        )
    )
    t0 = time.time()
    d2 = verify_degree2(tower, args.kmax, i1)
    report.add(
        CheckRecord(
            "degree2-kernel",
            "minor2-family-exactness",
            "pass" if d2["exact_mod_degree1"] and d2["all_member"] else "fail",
            {
                "pure_computed": d2["dim_pure_computed"],
                "pure_predicted": d2["dim_pure_predicted"],
                "membership": d2["membership"],
                "power_membership": d2["power_membership"],
                "stabilized": d2["piece"].stabilized,
            },
            time.time() - t0,
        )
    )
    return report


def cmd_verify_main_theorem(args) -> Report:
    from .annihilator import verify_variety_presentation

    report = Report("verify-main-theorem", _params(args))
    t0 = time.time()
    cfg = _config(args)
    try:
        rep = verify_variety_presentation(cfg, args.kmax)
    except (UnsupportedRegimeError, OutOfTheoremError, ShallowSystemError) as exc:
        report.add(
            CheckRecord(
                "variety-presentation",
                "determinantal-intersection",
                "skipped",
                {},
                0.0,
                str(exc),
            )
        )
        report.params_too_small = isinstance(exc, ShallowSystemError)
        return report
    for c in rep["checks"]:
        report.add(
            CheckRecord(
                c["name"],
                "determinantal-intersection",
                "pass" if c["pass"] else "fail",
                {k: v for k, v in c.items() if k not in ("name", "pass")},
                0.0,
            )
        )
    report.checks[0].elapsed = time.time() - t0
    return report


def cmd_gkdim(args) -> Report:
    report = Report("gkdim", _params(args))
    t0 = time.time()
    cfg = _config(args)
    kmax = max(args.kmax, 6)
    try:
        tower = build_tower(cfg, kmax, "explicit")
    except UnsupportedRegimeError as exc:
        report.add(
            CheckRecord(
                "gk-growth", "hilbert-growth-degree", "skipped", {}, 0.0, str(exc)
            )
        )
        return report
    est, confident = gkdim_estimate(tower)
    want = expected_gkdim(cfg)
    report.add(
        CheckRecord(
            "gk-growth",
            "hilbert-growth-degree",
            "pass" if est == want and confident else "fail",
            {
                "estimate": est,
                "expected": want,
                "confident": confident,
                "dims": tower.dims,
                "hilbert_table": _hilbert_table(tower),
            },
            time.time() - t0,
        )
    )
    return report


def cmd_suite(args) -> Report:
    report = Report("suite", _params(args))

    def progress(rec):
        print(
            f"[{rec.status.upper():4s}] {rec.name} ({rec.elapsed:.1f}s)",
            file=sys.stderr,
            flush=True,
        )

    for rec in suite_mod.run_suite(args.budget_seconds, progress=progress):
        report.add(rec)
    return report


COMMANDS = {
    "classify": cmd_classify,
    "basis": cmd_basis,
    "project": cmd_project,
    "filtration": cmd_filtration,
    "verify-filtration": cmd_verify_filtration,
    "kernel-phi": cmd_kernel_phi,
    "chain3": cmd_chain3,
    "independence": cmd_independence,
    "annihilator": cmd_annihilator,
    "verify-main-theorem": cmd_verify_main_theorem,
    "gkdim": cmd_gkdim,
    "suite": cmd_suite,
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="oscvar",
        description="Exact verification engine for oscillator representations "
        "of sl(n) and their determinantal annihilator varieties.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name in COMMANDS:
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
        p.add_argument("--budget-seconds", type=float, default=None)
        if name == "filtration":
            p.add_argument("--dump-tower", default=None, metavar="PATH")
        if name == "annihilator":
            p.add_argument("--tower-file", default=None, metavar="PATH")
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.kmax < 0 or args.max_degree < 0:
        parser.error("kmax and max-degree must be nonnegative")
    try:
        report = COMMANDS[args.command](args)
    except (ValueError, OSError, json.JSONDecodeError) as exc:
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
