"""The verification-matrix runner: budget handling and record shapes."""

import itertools
import time

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from oscvar import osc, suite
from oscvar.osc import (
    Config,
    _weyl_tables,
    commutator_in_basis,
    enumerate_TN_level,
    generators,
    laplace,
    project_T_monomial,
    project_T_numerator,
)
from oscvar.poly import DEGREE_LIMIT, Poly, monomials
from oscvar.suite import check_bracket_fidelity, check_highest_weight, run_suite


def test_budget_stops_between_stages():
    records = run_suite(budget_seconds=1e-6)
    assert records[-1].name == "suite-budget"
    assert records[-1].status == "skipped"
    assert records[-1].reason
    # at least the first stage ran before the budget cut in
    assert records[0].name == "bracket-fidelity"
    assert records[0].status == "pass"


def test_record_times_ignore_a_wall_clock_step(monkeypatch):
    # a wall clock that steps back an hour at every reading: durations are
    # taken on a monotonic clock, so no record's time is negative and the
    # budget still cuts after the first stage
    real, steps = time.time, itertools.count()
    monkeypatch.setattr(time, "time", lambda: real() - 3600 * next(steps))
    records = run_suite(budget_seconds=1e-6)
    assert [r.name for r in records] == ["bracket-fidelity", "suite-budget"]
    assert all(r.elapsed >= 0 for r in records)


def test_records_carry_anchor_and_payload():
    rec = check_highest_weight((5, 1, 3), 1, 1)
    assert rec.status == "pass"
    assert rec.anchor == "weight-of-corner-vector"
    assert rec.payload["weight"] == [-2, 0, -2, 1]


# -- harmonicity -------------------------------------------------------------

HARMONICITY_LAYOUTS = [(3, 1, 2, -1, -1), (4, 1, 3, -1, -1), (4, 1, 3, -1, 1)]


def test_harmonicity_numerator_verdict_is_the_fraction_verdict():
    # T(m) = N / d with d > 0: the Laplacian of the image in Fractions is
    # that of the integer numerator over d, on every monomial the suite
    # projects
    rec = suite.check_harmonicity(HARMONICITY_LAYOUTS, 6)
    checked = 0
    for params in HARMONICITY_LAYOUTS:
        cfg = Config(*params)
        for k in range(7):
            for m in enumerate_TN_level(cfg, k):
                numerator, d = project_T_numerator(cfg, m)
                assert d > 0
                image = laplace(cfg, project_T_monomial(cfg, m))
                assert laplace(cfg, Poly(cfg.space, numerator)) == image.scale(d)
                assert image.is_zero()
                checked += 1
    assert rec.status == "pass" and rec.payload["failures"] == 0
    assert checked == 772 == sum(
        sum(rec.payload[Config(*params).short()]["level_sizes"]) for params in HARMONICITY_LAYOUTS
    )


# -- bracket fidelity --------------------------------------------------------

_BRACKET_LAYOUTS = [(3, 1, 2), (4, 1, 3), (4, 2, 2), (5, 2, 3)]


def test_bracket_fidelity_payload():
    rec = check_bracket_fidelity(_BRACKET_LAYOUTS, 4)
    assert rec.status == "pass"
    assert rec.payload == {
        "configs": {
            str(layout): {"monomials": mons, "pairs": pairs}
            for layout, mons, pairs in zip(
                _BRACKET_LAYOUTS, (210, 495, 495, 1001), (28, 105, 105, 276)
            )
        },
        "violations": 0,
        "max_degree": 4,
    }


@pytest.fixture
def fresh_tables():
    """Clear the cached applier tables and Weyl forms around a test that
    patches them; every ``Config`` the record builds is new, so none holds
    stale ones."""
    _weyl_tables.cache_clear()
    osc.weyl_forms.cache_clear()
    yield
    _weyl_tables.cache_clear()
    osc.weyl_forms.cache_clear()


@pytest.mark.parametrize("cell", sorted(osc._BLOCK), ids=str)
def test_bracket_fidelity_fails_on_a_flipped_cell(monkeypatch, fresh_tables, cell):
    c, da, db = osc._BLOCK[cell]
    with monkeypatch.context() as mp:
        mp.setitem(osc._BLOCK, cell, (-c, da, db))
        # (4,2,2) reads all four cells on both sides
        rec = check_bracket_fidelity([(4, 2, 2)], 4)
    assert rec.status == "fail"
    assert rec.payload["violations"] > 0
    assert rec.payload["nonzero_identities"] > 0


@pytest.mark.parametrize("block", ["first", "last"])
def test_bracket_fidelity_fails_on_a_wrong_cartan_constant(monkeypatch, block):
    # the constant of h_1's built table, or of h_3's, off by one behind its
    # form: the shift of the constants of pi(E_rr) over J1, or over J3, that
    # a wrong diagonal constant gives
    table = osc._cartan_table
    r, step = (1, 1) if block == "first" else (3, -1)

    def shifted(cfg, s):
        const, reads = table(cfg, s)
        return (const + step, reads) if s == r else (const, reads)

    monkeypatch.setattr(osc, "_cartan_table", shifted)
    rec = check_bracket_fidelity([(4, 1, 3)], 4)
    assert rec.status == "fail"
    assert rec.payload["violations"] > 0
    assert rec.payload["forms_disagreeing_with_applier"] == 1
    assert "nonzero_identities" not in rec.payload


def test_bracket_fidelity_fails_on_forms_the_applier_does_not_follow(monkeypatch, fresh_tables):
    # a wrong diagonal constant in the Weyl forms: the applier, packed from
    # them, follows, so no form disagrees with it, and the identities with
    # h_1 on their right side fail
    monkeypatch.setitem(osc._DIAGONAL, True, 0)
    rec = check_bracket_fidelity([(4, 1, 3)], 4)
    assert rec.status == "fail"
    assert rec.payload["nonzero_identities"] > 0
    assert "forms_disagreeing_with_applier" not in rec.payload


def test_bracket_fidelity_at_the_degree_limit_raises():
    with pytest.raises(OverflowError):
        check_bracket_fidelity([(3, 1, 2)], DEGREE_LIMIT)


def test_bracket_fidelity_sweeps_each_generator_on_its_read_positions(monkeypatch):
    # the every-monomial sweep makes 40,554 applier calls on these layouts
    calls = []
    apply = suite.apply_generator_terms
    monkeypatch.setattr(suite, "apply_generator_terms", lambda *args: calls.append(1) or apply(*args))
    assert check_bracket_fidelity(_BRACKET_LAYOUTS, 4).status == "pass"
    assert len(calls) == 2100


def _full_sweep_payload(layout, maxdeg):
    """The oracle: the ``disagree`` set from every monomial of degree <=
    ``maxdeg`` and every generator, and the violations it implies where
    every identity of the forms holds."""
    cfg = Config(*layout)
    sp, gens = cfg.space, generators(cfg.n)
    forms = osc.weyl_forms(cfg.n, cfg.n1, cfg.n2)
    actions = {g: osc.weyl_action(sp, forms[g]) for g in gens}
    disagree = {
        g
        for m in monomials(sp, range(maxdeg + 1))
        for g in gens
        if osc.apply_generator_terms(cfg, g, {m: 1}) != osc.apply_weyl(actions[g], {m: 1})
    }
    violations = sum(
        bool(disagree.intersection([a, b, *(g for _c, g in commutator_in_basis(a, b, cfg.n))]))
        for a, b in itertools.combinations(gens, 2)
    )
    return {"violations": violations, "forms_disagreeing_with_applier": len(disagree) or None}


def _with_root_table(mp, g, edit):
    """Patch the applier table of the root g to ``edit(packed)``."""
    tables = osc._weyl_tables

    def patched(n, n1, n2):
        roots, laplacians, lift = tables(n, n1, n2)
        ceiling, packed = roots[g]
        return {**roots, g: (ceiling, edit(packed))}, laplacians, lift

    mp.setattr(osc, "_weyl_tables", patched)


@st.composite
def _mutations(draw):
    """A layout and one perturbed applier table entry: a root term's
    coefficient, read shift or delta, an extra root term, or one entry of
    a Cartan table's reads.  Read shifts include the degree field's."""
    layout = draw(st.sampled_from(_BRACKET_LAYOUTS))
    sp = Config(*layout).space
    shift = st.sampled_from([-1, *sp.shift, sp.dshift])
    step = st.sampled_from([0, *sp.unit, *(-u for u in sp.unit)])
    nonzero = st.sampled_from([-2, -1, 1, 2])
    kind = draw(st.sampled_from(["coefficient", "fp", "fq", "delta", "extra", "cartan"]))
    if kind == "cartan":
        r = draw(st.integers(1, layout[0] - 1))
        i = draw(st.integers(0, len(Config(*layout).cartan_tables[r][1]) - 1))
        field = draw(st.sampled_from([0, 1]))
        value = draw(st.sampled_from([*sp.shift, sp.dshift]) if field == 0 else nonzero)
        return layout, ("h", r), (i, field, value)
    roots = [g for g in generators(layout[0]) if g[0] == "e"]
    g = draw(st.sampled_from(roots))
    if kind == "extra":
        term = (draw(nonzero), draw(shift), draw(shift), draw(step) + draw(step))
        return layout, g, lambda packed: (*packed, term)
    i = draw(st.integers(0, 1))
    field = ["coefficient", "fp", "fq", "delta"].index(kind)
    value = draw(shift) if kind in ("fp", "fq") else draw(nonzero if field == 0 else step)

    def edit(packed):
        entry = list(packed[i])
        entry[field] = entry[field] + value if field in (0, 3) else value
        return (*packed[:i], tuple(entry), *packed[i + 1:])

    return layout, g, edit


@settings(max_examples=60, deadline=None, derandomize=True, database=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(_mutations())
def test_bracket_fidelity_matches_the_full_sweep_under_mutation(mutation):
    layout, g, edit = mutation
    with pytest.MonkeyPatch.context() as mp:
        if g[0] == "h":
            i, field, value = edit
            table = osc._cartan_table

            def patched(cfg, r):
                const, reads = table(cfg, r)
                if r != g[1]:
                    return const, reads
                entry = list(reads[i])
                entry[field] = entry[field] + value if field else value
                return const, (*reads[:i], tuple(entry), *reads[i + 1:])

            mp.setattr(osc, "_cartan_table", patched)
        else:
            _with_root_table(mp, g, edit)
        rec = check_bracket_fidelity([layout], 4)
        want = _full_sweep_payload(layout, 4)
    assert "nonzero_identities" not in rec.payload
    assert {k: rec.payload.get(k) for k in want} == want
    assert rec.status == ("pass" if want["violations"] == 0 else "fail")


def test_bracket_fidelity_sweeps_the_positions_the_applier_reads(monkeypatch):
    # an extra applier term c * e_p, delta 0, at a position p that the form
    # never differentiates and the table did not read: only monomials
    # through p see it
    layout, g = (4, 2, 2), ("e", 1, 2)
    cfg = Config(*layout)
    sp = cfg.space
    form = osc.weyl_forms(*layout)[g]
    seen = osc.applier_reads(cfg, g).union(*(sp.positions(d) for _v, d in form))
    p = min(set(range(sp.nvars)) - seen)
    _with_root_table(monkeypatch, g, lambda packed: (*packed, (1, sp.shift[p], -1, 0)))
    rec = check_bracket_fidelity([layout], 4)
    assert rec.status == "fail"
    assert rec.payload["forms_disagreeing_with_applier"] == 1
    want = _full_sweep_payload(layout, 4)
    assert {k: rec.payload.get(k) for k in want} == want
    # positions taken from the form alone would miss it
    monkeypatch.setattr(suite, "applier_reads", lambda cfg, g: set())
    assert check_bracket_fidelity([layout], 4).status == "pass"


def test_bracket_fidelity_reads_of_the_degree_field_sweep_every_position(monkeypatch):
    # pi(E_41) on (4,1,3) is -x_4 x_1 + y_1 y_4: no derivative and no read,
    # so its own positions are none and only the monomial 1 would be swept,
    # where an extra term deg(m) * m vanishes
    layout, g = (4, 1, 3), ("e", 4, 1)
    cfg = Config(*layout)
    assert osc.applier_reads(cfg, g) == set()
    assert all(d == 0 for _v, d in osc.weyl_forms(*layout)[g])
    _with_root_table(monkeypatch, g, lambda packed: (*packed, (1, cfg.space.dshift, -1, 0)))
    assert osc.applier_reads(Config(*layout), g) == set(range(cfg.space.nvars))
    rec = check_bracket_fidelity([layout], 4)
    assert rec.status == "fail"
    assert rec.payload["forms_disagreeing_with_applier"] == 1
