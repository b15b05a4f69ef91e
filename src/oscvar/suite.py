"""The standing verification matrix.

One function per claim family, each producing check records.  ``CRITERIA``
declares the thirteen standing criteria once, with the configurations each
runs on; the CLI ``suite`` command and the acceptance tests both iterate
it.  ``VERDICTS`` holds, per claim anchor, the pass/fail rule that the suite
and the CLI both apply to a computation's report.  Every check is exact: a
pass means an identity or a two-sided span equality held with rational
arithmetic, never approximately.
"""

from __future__ import annotations

import gc
import itertools
import time
from contextlib import nullcontext
from functools import partial
from math import comb
from typing import NamedTuple

from .annihilator import (
    classify_minor3,
    degree1_report,
    degree2_tower,
    delta_ops,
    expected_gkdim,
    gkdim_estimate,
    operator_identically_zero,
    presentation_tower,
    shared_towers,
    sym_membership,
    verify_degree2,
    verify_degree3,
    verify_variety_presentation,
)
from .detvar import (
    verify_gset_independence,
    verify_minor2_kernel,
    verify_minor3_kernel,
)
from .filtration import (
    LADDER_VARIANTS,
    build_tower,
    compare_towers,
    operator_chain_identity,
)
from .osc import (
    Config,
    applier_reads,
    apply_generator,
    apply_generator_terms,
    apply_weyl,
    bracket_defect,
    commutator_in_basis,
    enumerate_TN_level,
    generators,
    highest_weight_formula,
    laplace,
    project_T_monomial,
    project_T_numerator,
    weight,
    weyl_action,
    weyl_forms,
)
from .poly import DEGREE_LIMIT, Poly, monomials
from .reports import CheckRecord

# Pass/fail of a claim, by anchor, from the report of its computation.
VERDICTS = {
    "projection-kills-laplacian": lambda rep: rep["failures"] == 0,
    "filtration-span-equality": lambda rep: rep["all_equal"] and rep["nested"],
    "two-minor-ideal-equals-kernel": lambda rep: rep["all_equal"],
    "three-minor-ideal-equals-kernel": lambda rep: rep["all_equal"],
    "chain-free-images-independent": lambda rep: rep["all_independent"],
    "level-preserver-span": lambda rep: rep["equal"] and rep["stabilized"],
    "minor2-family-exactness": lambda rep: (
        rep["exact_mod_degree1"] and rep["all_member"] and rep["i1_equal"]
    ),
    "minor3-case-membership": lambda rep: rep["all_cases_pass"] and rep["i1_equal"],
    "minor3-family-exactness": lambda rep: (
        rep["exact_mod_lower"] and rep["all_cases_pass"] and rep["i1_equal"]
    ),
    "hilbert-growth-degree": lambda rep: (
        rep["estimate"] == rep["expected"] and rep["confident"]
    ),
    "determinantal-intersection": lambda rep: rep["overall"],
}


def _record(name, anchor, passed, payload, t0):
    status = "pass" if passed else "fail"
    return CheckRecord(name, anchor, status, payload, time.perf_counter() - t0)


def _per_config(name, anchor, matrix, run) -> list[CheckRecord]:
    """One record per ``(params, kmax)`` entry of ``matrix``: ``run(cfg,
    kmax)`` gives the report the anchor's verdict reads and the payload."""
    out = []
    for params, kmax in matrix:
        t0 = time.perf_counter()
        rep, payload = run(Config(*params), kmax)
        passed = VERDICTS[anchor](rep)
        out.append(_record(f"{name}{params}", anchor, passed, {"kmax": kmax, **payload}, t0))
    return out


def check_bracket_fidelity(params_list, maxdeg) -> CheckRecord:
    """[pi(a), pi(b)] = pi([a, b]) for every pair of generators.

    Each pair is one identity of normal-ordered Weyl forms (``osc``), so a
    zero defect proves it at every degree.  Each generator's Weyl form is
    then checked to act as ``apply_generator_terms`` does on every monomial
    of degree <= ``maxdeg``, the ``monomials`` count.  A generator is
    evaluated only on the monomials supported on its read positions R: the
    positions its applier reads (``osc.applier_reads``) and those its form
    differentiates.  Neither side reads an exponent outside R, and each
    moves a monomial by adding a fixed delta, so both images of
    m = m_R + m_rest are those of m_R shifted by m_rest: they agree at m
    exactly when they agree at m_R, a swept monomial of no larger degree.
    A pair is a violation when its identity is nonzero or when it involves
    a generator whose form disagrees with the applier, since its identity
    then certifies another operator.
    """
    if maxdeg >= DEGREE_LIMIT:
        raise OverflowError(f"degree {maxdeg} does not fit the packed monomial")
    t0 = time.perf_counter()
    counts = {}
    violations = nonzero = mismatched = 0
    for params in params_list:
        cfg = Config(*params)
        sp = cfg.space
        gens = generators(cfg.n)
        forms = weyl_forms(cfg.n, cfg.n1, cfg.n2)
        comm = {
            (a, b): commutator_in_basis(gens[a], gens[b], cfg.n)
            for a in range(len(gens))
            for b in range(a + 1, len(gens))
        }
        failing = {
            (a, b)
            for (a, b), cb in comm.items()
            if bracket_defect(sp, forms, gens[a], gens[b], cb)
        }
        nonzero += len(failing)
        disagree = set()
        for g in gens:
            action = weyl_action(sp, forms[g])
            reads = applier_reads(cfg, g).union(*(sp.positions(d) for _v, d in forms[g]))
            for m in monomials(sp, range(maxdeg + 1), reads):
                base = {m: 1}
                if apply_generator_terms(cfg, g, base) != apply_weyl(action, base):
                    disagree.add(g)
                    break
        mismatched += len(disagree)
        failing.update(
            (a, b)
            for (a, b), cb in comm.items()
            if disagree.intersection([gens[a], gens[b], *(g for _c, g in cb)])
        )
        violations += len(failing)
        counts[str(params)] = {
            "monomials": comb(sp.nvars + maxdeg, sp.nvars),
            "pairs": len(comm),
        }
    payload = {"configs": counts, "violations": violations, "max_degree": maxdeg}
    if nonzero:
        payload["nonzero_identities"] = nonzero
    if mismatched:
        payload["forms_disagreeing_with_applier"] = mismatched
    return _record("bracket-fidelity", "commutator-identity", violations == 0, payload, t0)


def projection_report(cfg: Config, dmax: int, keep: int = 0) -> dict:
    """Project every constrained monomial up to degree ``dmax`` and count
    the images the Laplacian does not kill; the first ``keep`` images are
    rendered.

    T(m) = N / d with d > 0 (``osc.project_T_numerator``), so the Laplacian
    kills T(m) exactly when it kills the integer numerator N, which is what
    is tested: only the rendered images are taken over d."""
    sizes = []
    failures = 0
    images = []
    for k in range(dmax + 1):
        mons = enumerate_TN_level(cfg, k)
        sizes.append(len(mons))
        for m in mons:
            numerator, _d = project_T_numerator(cfg, m)
            if laplace(cfg, Poly(cfg.space, numerator)):
                failures += 1
            if len(images) < keep:
                images.append(project_T_monomial(cfg, m).render())
    return {"level_sizes": sizes, "failures": failures, "projections": images}


def check_harmonicity(params_list, dmax) -> CheckRecord:
    t0 = time.perf_counter()
    payload = {}
    bad = 0
    ok = True
    for params in params_list:
        cfg = Config(*params)
        rep = projection_report(cfg, dmax)
        payload[cfg.short()] = {"level_sizes": rep["level_sizes"]}
        bad += rep["failures"]
        ok = ok and VERDICTS["projection-kills-laplacian"](rep)
    return _record(
        "harmonicity",
        "projection-kills-laplacian",
        ok,
        {**payload, "failures": bad, "dmax": dmax},
        t0,
    )


def _ladder_v0_choices(cfg):
    """The distinct monomials of degree at most 2 in the x-side ring, then
    in the y-side ring (J2 without its first index, beside J1 and J3)."""
    sp = cfg.space
    mid = cfg.n1 + 1
    j1 = [sp.x(i) for i in cfg.J1]
    j2 = [r for r in cfg.J2 if r != mid]
    j3 = [sp.y(j) for j in cfg.J3]
    seen = {}
    for ring in (j1 + [sp.x(r) for r in j2] + j3, j1 + [sp.y(r) for r in j2] + j3):
        for d in range(3):
            for combo in itertools.combinations_with_replacement(ring, d):
                seen.setdefault(sum(sp.unit[pos] for pos in combo), None)
    return [Poly.monomial(sp, m) for m in seen]


def check_ladder_identities(params, kmax) -> CheckRecord:
    t0 = time.perf_counter()
    cfg = Config(*params)
    v0s = _ladder_v0_choices(cfg)
    i1_choices = list(cfg.J1)
    i3_choices = list(cfg.J3)
    checked = 0
    failures = 0
    for k in range(kmax + 1):
        for aux in range(k + 1):
            for v0 in v0s:
                for variant, shape in LADDER_VARIANTS.items():
                    _, n1len, n3len, _, _ = shape(k, aux)
                    for i1s in itertools.product(i1_choices, repeat=n1len):
                        for i3s in itertools.product(i3_choices, repeat=n3len):
                            checked += 1
                            if not operator_chain_identity(
                                cfg, variant, k, aux, list(i1s), list(i3s), v0
                            ):
                                failures += 1
    return _record(
        "ladder-identities",
        "operator-product-vs-projection",
        failures == 0,
        {"cfg": cfg.short(), "kmax": kmax, "checked": checked, "failures": failures},
        t0,
    )


def check_tower_agreement(matrix) -> list[CheckRecord]:
    def run(cfg, kmax):
        rep = compare_towers(cfg, kmax)
        return rep, {
            "dims": [r["dim_bruteforce"] for r in rep["levels"]],
            "method": rep["explicit_method"],
            "nested": rep["nested"],
        }

    return _per_config("tower-agreement", "filtration-span-equality", matrix, run)


def _zcfg(a: int, b: int) -> Config:
    """A configuration with |J1| = a, |J3| = b (middle block a singleton)."""
    return Config(a + b + 1, a, a + 1)


def check_minor2_kernels(sizes, rmax) -> CheckRecord:
    t0 = time.perf_counter()
    results = {}
    ok = True
    for a in sizes:
        for b in sizes:
            rep = verify_minor2_kernel(_zcfg(a, b), rmax)
            ok = ok and VERDICTS["two-minor-ideal-equals-kernel"](rep)
            results[f"|J1|={a},|J3|={b}"] = [
                (d["degree"], d["dim_kernel_x"], d["dim_ideal"])
                for d in rep["levels"]
            ]
    return _record(
        "quadratic-kernel",
        "two-minor-ideal-equals-kernel",
        ok,
        {"rmax": rmax, "dims": results},
        t0,
    )


def gset_payload(rep) -> dict:
    return {
        "tuples_checked": rep["tuples_checked"],
        "tuples_nonempty": rep["tuples_nonempty"],
        "failures": rep["failures"][:5],
    }


def check_gset_independence(bound) -> CheckRecord:
    t0 = time.perf_counter()
    rep = verify_gset_independence(_zcfg(3, 3), bound)
    return _record(
        "gset-independence",
        "chain-free-images-independent",
        VERDICTS["chain-free-images-independent"](rep),
        {"bound": bound, **gset_payload(rep)},
        t0,
    )


def check_minor3_kernels(sizes, kmax) -> CheckRecord:
    t0 = time.perf_counter()
    results = {}
    ok = True
    for a, b in sizes:
        rep = verify_minor3_kernel(_zcfg(a, b), kmax)
        ok = ok and VERDICTS["three-minor-ideal-equals-kernel"](rep)
        results[f"|J1'|={a + 1},|J3'|={b + 1}"] = [
            (d["degree"], d["dim_kernel"], d["dim_ideal"]) for d in rep["levels"]
        ]
    return _record(
        "cubic-kernel",
        "three-minor-ideal-equals-kernel",
        ok,
        {"kmax": kmax, "dims": results},
        t0,
    )


def degree1_payload(rep) -> dict:
    return {
        "dim": rep["dim_computed"],
        "cartan": rep["cartan_part"],
        "off_L_roots": rep["root_part"],
        "stabilized": rep["stabilized"],
    }


def check_degree1_kernels(matrix) -> list[CheckRecord]:
    def run(cfg, kmax):
        rep = degree1_report(presentation_tower(cfg, kmax), kmax)
        return rep, degree1_payload(rep)

    return _per_config("degree1-kernel", "level-preserver-span", matrix, run)


def degree2_payload(rep) -> dict:
    return {
        "pure_computed": rep["dim_pure_computed"],
        "pure_predicted": rep["dim_pure_predicted"],
        "membership": rep["membership"],
        "power_membership": rep["power_membership"],
        "stabilized": rep["piece"].stabilized,
    }


def check_degree2_kernels(matrix) -> list[CheckRecord]:
    def run(cfg, kmax):
        tower = degree2_tower(cfg, kmax)
        rep = verify_degree2(tower, kmax, degree1_report(tower, kmax))
        return rep, degree2_payload(rep)

    return _per_config("degree2-kernel", "minor2-family-exactness", matrix, run)


def check_degree3(name, anchor, matrix) -> list[CheckRecord]:
    """The 3x3 minor cases (``minor3-case-membership``) or, in addition,
    degree-3 exactness modulo the lower ideal (``minor3-family-exactness``)."""
    def run(cfg, kmax):
        tower = presentation_tower(cfg, kmax)
        rep = verify_degree3(tower, kmax, degree1_report(tower, kmax))
        payload = {"cases": rep["cases"]}
        if anchor == "minor3-family-exactness":
            payload = {
                "pure_computed": rep["dim_pure_computed"],
                "pure_predicted": rep["dim_pure_predicted"],
                **payload,
            }
        return rep, payload

    return _per_config(name, anchor, matrix, run)


def check_degree3_identity_supplement(params) -> CheckRecord:
    """The vanishing-case identity, exact as a Weyl-algebra element, on a
    block layout where it is non-vacuous."""
    t0 = time.perf_counter()
    cfg = Config(*params)
    ops = [
        op
        for op in delta_ops(cfg, "minor3")
        if classify_minor3(cfg, op.rows, op.cols) == 1
    ]
    ok = bool(ops) and all(operator_identically_zero(cfg, op.sym) for op in ops)
    return _record(
        "degree3-identity-supplement",
        "minor3-vanishing-case",
        ok,
        {"cfg": cfg.short(), "ops": [op.label() for op in ops]},
        t0,
    )


def check_degree3_case6_supplement(params, kmax) -> CheckRecord:
    """Residue membership for the all-middle-block case, non-vacuous here."""
    t0 = time.perf_counter()
    cfg = Config(*params)
    tower = presentation_tower(cfg, kmax)
    ops = [
        op
        for op in delta_ops(cfg, "minor3")
        if classify_minor3(cfg, op.rows, op.cols) == 6
    ]
    ok = bool(ops) and all(sym_membership(op.sym, tower) for op in ops[:2])
    return _record(
        "degree3-case6-supplement",
        "minor3-case6-membership",
        ok,
        {"cfg": cfg.short(), "count": len(ops), "checked": min(2, len(ops))},
        t0,
    )


def check_presentations(matrix) -> list[CheckRecord]:
    def run(cfg, kmax):
        rep = verify_variety_presentation(cfg, kmax)
        return rep, {
            "regime": rep["regime"],
            "checks": [{k: v for k, v in c.items() if k != "dims"} for c in rep["checks"]],
            "generators_checked": len(rep["member_results"]),
        }

    return _per_config("variety-presentation", "determinantal-intersection", matrix, run)


def growth_report(tower) -> dict:
    est, confident = gkdim_estimate(tower)
    return {"estimate": est, "expected": expected_gkdim(tower.cfg), "confident": confident}


def check_gk_growth(matrix) -> list[CheckRecord]:
    def run(cfg, kmax):
        tower = build_tower(cfg, kmax, "explicit")
        rep = growth_report(tower)
        return rep, {"dims": tower.dims, **rep}

    return _per_config("gk-growth", "hilbert-growth-degree", matrix, run)


def check_highest_weight(params=(5, 1, 3), m1=1, m2=1) -> CheckRecord:
    t0 = time.perf_counter()
    cfg = Config(params[0], params[1], params[2], -m1, -m2)
    sp = cfg.space
    mono = [0] * sp.nvars
    mono[sp.x(cfg.n1)] = m1
    mono[sp.y(cfg.n2 + 1)] = m2
    vec = project_T_monomial(cfg, sp.pack(mono))
    killed = all(
        apply_generator(cfg, ("e", r, r + 1), vec).is_zero()
        for r in range(1, cfg.n)
    )
    wt = weight(cfg, vec)
    want = highest_weight_formula(cfg, m1, m2)
    return _record(
        "highest-weight",
        "weight-of-corner-vector",
        killed and wt == want,
        {
            "cfg": cfg.short(),
            "vector": vec.render(),
            "weight": list(wt) if wt else None,
            "expected": list(want),
            "raising-annihilates": killed,
        },
        t0,
    )


# -- the full matrix -----------------------------------------------------------


class Criterion(NamedTuple):
    """A standing criterion: the checks that certify it, run in order, and
    the wall-clock budget in seconds the acceptance gate holds it to."""

    num: int
    name: str
    label: str
    budget_s: int
    checks: tuple  # zero-argument callables, each giving a record or a list

    def run(self) -> list[CheckRecord]:
        records = []
        for check in self.checks:
            out = check()
            records.extend(out if isinstance(out, list) else [out])
        return records


CRITERIA = (
    Criterion(1, "bracket_fidelity", "commutator identity", 60, (
        partial(check_bracket_fidelity, [(3, 1, 2), (4, 1, 3), (4, 2, 2), (5, 2, 3)], 4),
    )),
    Criterion(2, "harmonicity", "projections are harmonic", 120, (
        partial(check_harmonicity, [(3, 1, 2, -1, -1), (4, 1, 3, -1, -1), (4, 1, 3, -1, 1)], 6),
    )),
    Criterion(3, "ladder_identities", "ladder identities", 60, (
        partial(check_ladder_identities, (4, 1, 3), 3),
    )),
    Criterion(4, "tower_agreement", "dual-route filtration equality", 600, (
        partial(check_tower_agreement, [
            ((3, 1, 2, -1, -1), 5), ((3, 1, 2, -1, 0), 5), ((4, 1, 3, -1, -1), 4),
            ((4, 1, 3, -1, 1), 4), ((3, 2, 3, 2, 1), 4), ((4, 3, 4, 1, 1), 4),
        ]),
    )),
    Criterion(5, "quadratic_kernels", "two-minor kernel equality", 120, (
        partial(check_minor2_kernels, (1, 2, 3), 4),
    )),
    Criterion(6, "gset_independence", "chain-free independence", 300, (
        partial(check_gset_independence, 4),
    )),
    Criterion(7, "cubic_kernels", "three-minor kernel equality", 300, (
        partial(check_minor3_kernels, ((1, 1), (2, 2), (2, 3), (3, 3)), 3),
    )),
    Criterion(8, "degree1_kernels", "degree-1 annihilator", 600, (
        partial(check_degree1_kernels, [
            ((3, 1, 2, -1, -1), 4), ((4, 1, 3, -1, 1), 4),
            ((3, 2, 3, 2, 1), 4), ((6, 2, 4, -1, -1), 4),
        ]),
    )),
    Criterion(9, "degree2_kernels", "degree-2 annihilator", 1800, (
        partial(check_degree2_kernels, [
            ((6, 2, 4, -1, -1), 3), ((5, 1, 3, -1, 1), 3),
            ((5, 1, 3, 1, -1), 3), ((4, 1, 3, -1, 1), 3),
        ]),
    )),
    Criterion(10, "degree3", "degree-3 annihilator", 1800, (
        partial(check_degree3, "degree3-cases", "minor3-case-membership",
                [((6, 2, 4, -1, -1), 3)]),
        partial(check_degree3, "degree3-exactness", "minor3-family-exactness",
                [((5, 2, 3, -1, -1), 3)]),
        partial(check_degree3_identity_supplement, (6, 2, 3)),
        partial(check_degree3_case6_supplement, (5, 1, 4, -1, -1), 3),
    )),
    Criterion(11, "variety_presentations", "associated-variety presentation", 2700, (
        partial(check_presentations, [
            ((4, 2, 2, -1, -1), 4), ((5, 2, 2, -1, -2), 4), ((3, 2, 3, 2, 1), 4),
            ((4, 3, 4, 1, 1), 4), ((6, 2, 4, -1, -1), 3),
        ]),
    )),
    Criterion(12, "gk_growth", "growth degree of the Hilbert sequence", 1200, (
        partial(check_gk_growth, [((3, 1, 2, -1, -1), 8), ((4, 2, 2, -1, -1), 8), ((3, 1, 3, 2, 1), 8)]),
    )),
    # the defaults of check_highest_weight are this criterion's configuration
    Criterion(13, "highest_weight", "highest-weight vector", 10, (check_highest_weight,)),
)


# The criteria that read whole explicit towers (``annihilator.explicit_tower``),
# consecutive in ``CRITERIA``: one run shares each layout's tower among them.
SHARED_TOWERS = frozenset(
    {"degree1_kernels", "degree2_kernels", "degree3", "variety_presentations"}
)


def run_suite(budget_seconds: float | None = None, progress=None) -> list[CheckRecord]:
    """The complete verification matrix, criterion by criterion.

    A budget is checked between criteria: the first always runs, and no
    later one starts once ``budget_seconds`` have passed.  A skipped
    ``suite-budget`` record marks the cut.

    The criteria of ``SHARED_TOWERS`` run inside one
    ``annihilator.shared_towers`` scope, so each layout's whole explicit
    tower is built once and each of its pieces solved once among them.
    The scope closes when they end, however they end (a budget cut or an
    exception included), which frees the towers before ``gk_growth``.
    """
    records: list[CheckRecord] = []
    start = time.perf_counter()
    for shared, group in itertools.groupby(CRITERIA, lambda c: c.name in SHARED_TOWERS):
        with shared_towers() if shared else nullcontext():
            for criterion in group:
                if (
                    records
                    and budget_seconds is not None
                    and time.perf_counter() - start > budget_seconds
                ):
                    records.append(
                        CheckRecord(
                            "suite-budget",
                            "time-budget",
                            "skipped",
                            {},
                            0.0,
                            "time budget exhausted before this stage",
                        )
                    )
                    return records
                for rec in criterion.run():
                    records.append(rec)
                    if progress is not None:
                        progress(rec)
    return records


# Every layer is loaded by now, and its module-level objects (functions,
# tables, constants) live as long as the process.  Freezing them keeps the
# collector's young generations from rescanning a few thousand of them in
# the middle of the first verdict, and restarts its counters here, so a
# collection falls at the same point of a verdict however much the imports
# allocated.
gc.freeze()
