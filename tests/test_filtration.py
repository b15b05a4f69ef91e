"""Filtration towers: base spaces, dual-route equality, orders, ladders."""

import itertools
import json
import random
from fractions import Fraction
from functools import reduce
from math import gcd

import pytest
from hypothesis import HealthCheck, assume, example, given, settings
from hypothesis import strategies as st

from oscvar import filtration, osc
from oscvar.annihilator import _level_rows, system_rows
from oscvar.filtration import (
    FiltrationTower,
    UnsupportedRegimeError,
    _admits_mirror,
    _admitted_transpositions,
    _dprime_level,
    _explicit_cache,
    _insert_tproducts,
    _regime,
    _tspan,
    alternating_set,
    base_space_vectors,
    build_M0,
    build_tower,
    bruteforce_level,
    compare_towers,
    explicit_level,
    hilbert_sequence,
    operator_chain_identity,
    tower_from_dict,
    tower_to_dict,
)
from oscvar.linalg import EchelonBasis, echelon_from, span_equal
from oscvar.osc import (
    Config,
    Weights,
    _weyl_tables,
    applier_is_representation,
    apply_generator,
    dfun_monomial,
    diagonal_value,
    enumerate_TN_level,
    generators,
    project_T_monomial,
    weight,
)
from oscvar.poly import Poly, axpy, monomials, parse_poly

CFG = Config(3, 1, 2, -1, -1)
SP = CFG.space


def P(text):
    return parse_poly(SP, text)


def test_base_space_examples():
    b = build_M0(CFG)
    assert b.dim == 1
    assert b.sorted_rows()[0] == P("x1*y3")

    b2 = build_M0(Config(3, 2, 3, 1, 1))
    assert b2.dim == 2

    b3 = build_M0(Config(4, 2, 2, -1, -1))
    assert b3.dim == 4
    rows = {r.render() for r in b3.sorted_rows()}
    assert rows == {f"x{i}*y{j}" for i in (1, 2) for j in (3, 4)}


def test_base_space_unsupported_regime():
    with pytest.raises(UnsupportedRegimeError):
        build_M0(Config(4, 1, 3, 1, 1))  # both positive, n2 < n
    with pytest.raises(UnsupportedRegimeError):
        build_M0(Config(4, 2, 2, 1, 1))


def test_base_space_warns_on_reducible():
    warnings = []
    build_M0(Config(5, 1, 3, -1, 1), warn=warnings.append)
    assert warnings


def test_bruteforce_first_level():
    lvl1 = bruteforce_level(CFG, build_M0(CFG))
    assert lvl1.dim == 4
    expected = echelon_from(
        SP,
        [
            P("x1*y3"),
            P("x1^2*x2*y3"),
            P("x1*y1*y3^2 - x1^2*x3*y3"),
            P("x1*y2*y3^2"),
        ],
    )
    assert span_equal(lvl1, expected)


def test_cartan_never_grows_span():
    basis = build_M0(Config(4, 1, 3, -1, -1))
    cfg = Config(4, 1, 3, -1, -1)
    for r in range(1, 4):
        for row in list(basis.rows.values()):
            img = apply_generator(cfg, ("h", r), Poly(cfg.space, row))
            assert basis.contains(img)


def test_explicit_level_zero_equals_base():
    cache = _explicit_cache(CFG)
    lvl0 = explicit_level(CFG, 0, cache)
    assert span_equal(lvl0, build_M0(CFG))


def test_skew_regimes_against_bruteforce():
    # n1 = n2 with l1 <= 0 < l2 uses skew products directly; the case with
    # l2 <= 0 < l1 goes through the x/y mirror
    rep = compare_towers(Config(4, 2, 2, -1, 1), 2)
    assert rep["all_equal"]
    rep2 = compare_towers(Config(4, 1, 1, 2, -2), 2)
    assert rep2["all_equal"]


def test_tower_nesting_and_g_stability():
    tower = build_tower(CFG, 3, "explicit")
    assert tower.check_nested()
    gens = generators(CFG.n)
    for k in range(tower.depth):
        nxt = tower.levels[k + 1]
        for row in tower.levels[k].rows.values():
            for g in gens:
                img = apply_generator(CFG, g, Poly(SP, row))
                assert nxt.contains(img)


def test_hilbert_sequence():
    tower = build_tower(CFG, 3, "explicit")
    seq = hilbert_sequence(tower)
    assert seq[0] == tower.dims[0] == 1
    assert seq[:2] == [1, 3]
    assert all(d >= 0 for d in seq)
    single = FiltrationTower(CFG, "explicit", [tower.levels[0]])
    assert hilbert_sequence(single) == [1]


def p_order(cfg, k, f, cache):
    """The fewest alternating-quadratic factors that express f inside level
    k of the T-cell tower: 0 iff f lies in the span of the T-images alone,
    None when f is not in the level."""
    span = _tspan(cfg, k, cache).copy()
    for s in range(k + 1):
        if s:
            _insert_tproducts(cfg, span, k, s, cache)
        if span.contains(f):
            return s
    return None


def test_p_order_examples():
    cache = _explicit_cache(CFG)
    f = project_T_monomial(CFG, SP.pack((1, 0, 0, 0, 0, 1)))  # the base monomial
    assert p_order(CFG, 1, f, cache) == 0
    quad = P("x1*x3 - y1*y3")
    assert p_order(CFG, 1, P("x1*y3") * quad, cache) == 1
    assert p_order(CFG, 0, P("x1*y3") * quad * quad, cache) is None


def test_degree_vs_order_inequality_sampled():
    # for random members of level k: dfun <= k + order, equality iff the
    # member falls outside the span of projections of degree <= k-1
    rng = random.Random(17)
    for cfg, k, samples in ((CFG, 3, 100), (Config(4, 1, 3, -1, -1), 2, 40)):
        sp = cfg.space
        cache = _explicit_cache(cfg)
        tower = build_tower(cfg, k, "explicit")
        rows = [Poly(sp, r) for r in tower.levels[k].rows.values()]
        tn_prev = EchelonBasis(sp)
        for j in range(k):
            for m in enumerate_TN_level(cfg, j):
                tn_prev.insert(project_T_monomial(cfg, m))
        for _ in range(samples):
            f = Poly.zero(sp)
            for row in rng.sample(rows, min(3, len(rows))):
                f = f + row.scale(Fraction(rng.randint(-3, 3), rng.randint(1, 3)))
            if f.is_zero():
                continue
            order = p_order(cfg, k, f, cache)
            d = max(dfun_monomial(cfg, m) for m in f.terms)
            assert d <= k + order
            assert (d == k + order) == (not tn_prev.contains(f))


def test_ladder_identity_base_case():
    cfg = Config(3, 1, 2, -1, -1)
    v0 = Poly.variable(cfg.space, cfg.space.y(3))
    # one raising step: E_{2,1}(y3) agrees with the scaled projection
    assert operator_chain_identity(cfg, "x", 1, 0, [1], [], v0)


def test_ladder_identities_sweep():
    cfg = Config(4, 1, 3)
    sp = cfg.space
    v0s = [
        Poly.constant(sp, 1),
        Poly.variable(sp, sp.x(1)),
        Poly.variable(sp, sp.x(3)),
        Poly.variable(sp, sp.y(4)),
        parse_poly(sp, "x1*y4"),
        parse_poly(sp, "y3*y4"),
    ]
    for k in range(3):
        for aux in range(k + 1):
            for v0 in v0s:
                assert operator_chain_identity(cfg, "x", k, aux, [1] * k, [4] * aux, v0)
                assert operator_chain_identity(cfg, "y", k, aux, [1] * aux, [4] * k, v0)
                assert operator_chain_identity(cfg, "cx", k, aux, [], [4] * (k - aux), v0)
                assert operator_chain_identity(cfg, "cy", k, aux, [1] * (k - aux), [], v0)


def test_ladder_identity_rejects_bad_input():
    cfg = Config(4, 1, 3)
    sp = cfg.space
    with pytest.raises(ValueError):
        operator_chain_identity(cfg, "x", 1, 0, [2], [], Poly.constant(sp, 1))
    with pytest.raises(ValueError):
        operator_chain_identity(
            cfg, "x", 1, 0, [1], [], Poly.variable(sp, sp.x(2))
        )  # v0 touches the n1+1 pair
    with pytest.raises(ValueError):
        # the one-sided x form takes no J1 indices
        operator_chain_identity(cfg, "cx", 1, 0, [1], [4], Poly.constant(sp, 1))
    with pytest.raises(UnsupportedRegimeError):
        operator_chain_identity(
            Config(3, 2, 2), "x", 1, 0, [1], [], Poly.constant(xy := Config(3, 2, 2).space, 1)
        )


def test_tower_dump_roundtrip(tmp_path):
    tower = build_tower(CFG, 2, "explicit")
    data = tower_to_dict(tower)
    text = json.dumps(data)
    back = tower_from_dict(json.loads(text))
    assert back.dims == tower.dims
    for a, b in zip(back.levels, tower.levels):
        assert span_equal(a, b)
    data_bad = json.loads(text)
    data_bad["dims"][0] = 99
    with pytest.raises(ValueError):
        tower_from_dict(data_bad)


def test_deep_tower_agreement():
    # ties the depth-8 growth towers to the brute-force route
    rep = compare_towers(CFG, 8)
    assert rep["all_equal"]
    assert [r["dim_bruteforce"] for r in rep["levels"]] == [
        (k + 1) * (k + 2) * (k + 3) // 6 for k in range(9)
    ]


def test_widest_annihilator_config_tower_agreement():
    # the annihilator checks run on explicit towers; anchor the widest
    # configuration they use to the brute-force route as well
    rep = compare_towers(Config(6, 2, 4, -1, -1), 3)
    assert rep["all_equal"]
    assert [r["dim_bruteforce"] for r in rep["levels"]] == [4, 43, 251, 1055]


def dprime(cfg, f):
    """The largest x-degree over the first block among the monomials of f."""
    return max(sum(f.space.unpack(m)[: cfg.n1]) for m in f.terms)


def test_dprime_increments_on_positive_tower_rows():
    # in the all-positive full regime, root actions raise the first-block
    # x-degree by at most one, and only for lowering pairs
    cfg = Config(3, 2, 3, 2, 1)
    tower = build_tower(cfg, 3, "explicit")
    for k in range(tower.depth + 1):
        for row in tower.levels[k].rows.values():
            f = Poly(cfg.space, row)
            d0 = dprime(cfg, f)
            for i in range(1, 4):
                for j in range(1, 4):
                    if i == j:
                        continue
                    img = apply_generator(cfg, ("e", i, j), f)
                    if img.is_zero():
                        continue
                    lowering = (cfg.n1 < i <= cfg.n2) and j <= cfg.n1
                    assert dprime(cfg, img) <= d0 + (1 if lowering else 0)


def test_alternating_set_matches_generator_action():
    quads = alternating_set(CFG)
    assert len(quads) == 1
    one = Poly.constant(SP, 1)
    assert quads[0] == -apply_generator(CFG, ("e", 3, 1), one)


# ---------------------------------------------------------------------------
# levels built on the level below equal levels built from scratch
# ---------------------------------------------------------------------------


def _quadratic_products(cfg, i):
    pset = alternating_set(cfg)
    out = []
    for combo in itertools.combinations_with_replacement(range(len(pset)), i):
        p = Poly.constant(cfg.space, 1)
        for idx in combo:
            p = p * pset[idx]
        out.append(p)
    return out


def _spanning_set(cfg, k):
    """The explicit spanning set S_k, in the explicit route's insertion
    order, with the exact (Fraction) T-images."""

    def T(m):
        return project_T_monomial(cfg, m)

    regime = _regime(cfg)
    if regime == "dprime":
        return [T(m) for t in range(k + 1) for m in _dprime_level(cfg, t)]
    if regime == "T-cell":
        tn = [enumerate_TN_level(cfg, j) for j in range(k + 1)]
        out = [T(m) for j in range(k + 1) for m in tn[j]]
        for i in range(1, k + 1):
            prods = _quadratic_products(cfg, i)
            out += [T(m) * p for m in tn[k - i] for p in prods]
        return out
    base = base_space_vectors(cfg)
    return [
        b * p for i in range(k + 1) for b in base for p in _quadratic_products(cfg, i)
    ]


def _closure(cfg, prev):
    """prev plus every generator applied to every row of prev."""
    nxt = prev.copy()
    for row in list(prev.rows.values()):
        for g in generators(cfg.n):
            nxt.insert(apply_generator(cfg, g, Poly(cfg.space, row)))
    return nxt


@st.composite
def supported_configs(draw):
    """(cfg, kmax) for a random configuration with an explicit tower."""
    n = draw(st.integers(2, 5))
    n1 = draw(st.integers(1, n - 1))
    n2 = draw(st.integers(n1, n))
    cfg = Config(n, n1, n2, draw(st.integers(-1, 1)), draw(st.integers(-1, 1)))
    try:
        base_space_vectors(cfg)
    except UnsupportedRegimeError:
        assume(False)
    return cfg, draw(st.integers(0, 3 if n <= 4 else 2))


@settings(
    max_examples=25,
    deadline=None,
    derandomize=True,
    database=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(supported_configs())
@example((Config(3, 1, 2, -1, -1), 3))  # T-cell
@example((Config(4, 1, 3, -1, 1), 3))  # T-cell, mixed signs
@example((Config(3, 2, 3, 1, 1), 3))  # dprime
@example((Config(4, 2, 2, -1, -1), 3))  # product
@example((Config(4, 2, 2, -1, 1), 3))  # product-skew
@example((Config(4, 1, 1, 1, -1), 3))  # product-skew-mirror
def test_tower_levels_match_from_scratch_oracles(cfg_kmax):
    # explicit levels: same pivots, same row dicts, same insertion order;
    # brute-force levels, whose rows depend on the generator order: the
    # same span
    cfg, kmax = cfg_kmax
    explicit = build_tower(cfg, kmax, "explicit")
    brute = build_tower(cfg, kmax, "bruteforce")
    oracle = build_M0(cfg)
    for k in range(kmax + 1):
        fresh = echelon_from(cfg.space, _spanning_set(cfg, k))
        assert list(explicit.levels[k].rows.items()) == list(fresh.rows.items())
        if k:
            oracle = _closure(cfg, oracle)
        assert brute.levels[k].canonical_rows() == oracle.canonical_rows()


def test_explicit_level_extends_its_cache():
    cache = _explicit_cache(CFG)
    top = explicit_level(CFG, 3, cache)
    assert len(cache["levels"]) == 4
    assert explicit_level(CFG, 3, cache) is top
    fresh = explicit_level(CFG, 2)
    assert list(fresh.rows.items()) == list(cache["levels"][2].rows.items())


def test_bruteforce_level_applies_g_b_to_rows_tagged_at_most_b():
    cfg = Config(4, 1, 3, -1, 1)
    gens = generators(cfg.n)
    m0 = build_M0(cfg)
    tags: dict = {}
    lvl1 = bruteforce_level(cfg, m0, None, tags)
    assert lvl1.canonical_rows() == _closure(cfg, m0).canonical_rows()
    # the tags name the rows new at level 1, each with the generator whose
    # image it came from
    assert set(tags) == lvl1.rows.keys() - m0.rows.keys()
    assert sorted(tags.values()) == list(tags.values())  # generator order
    base = [Poly(cfg.space, row) for row in m0.rows.values()]

    def span_up_to(b):
        images = [apply_generator(cfg, g, v) for g in gens[:b] for v in base]
        return echelon_from(cfg.space, base + images)

    for piv, b in tags.items():
        assert span_up_to(b + 1).contains(lvl1.rows[piv])
        assert not span_up_to(b).contains(lvl1.rows[piv])
    # level 2 from the tagged rows alone is the full closure of level 1
    lvl2 = bruteforce_level(cfg, lvl1, tags)
    assert lvl2.canonical_rows() == _closure(cfg, lvl1).canonical_rows()
    # with every row of level 1 untagged, the same span
    untagged = bruteforce_level(cfg, lvl1, dict.fromkeys(lvl1.rows))
    assert untagged.canonical_rows() == lvl2.canonical_rows()
    # rows left out of ``fresh`` are not applied: closing M_0 from no row
    # gives M_0 back
    assert list(bruteforce_level(cfg, m0, {}).rows.items()) == list(m0.rows.items())


def _system_rows_oracle(tower):
    """The generating rows ``system_rows`` gives, closing each level with
    every generator on every row, or the first level that does not hold
    the closure of the one below."""
    cfg, levels = tower.cfg, tower.levels
    fresh = [_level_rows(tower, 0)]
    for j in range(tower.depth):
        closure = _closure(cfg, levels[j])
        if not levels[j + 1].contains_span(closure):
            return None, j + 1
        fresh.append([row for row in _level_rows(tower, j + 1) if closure.insert(row)])
    return fresh, None


def _assert_closures_match_oracles(cfg, kmax):
    brute = build_tower(cfg, kmax, "bruteforce")
    oracle = build_M0(cfg)
    for k in range(kmax + 1):
        if k:
            oracle = _closure(cfg, oracle)
        assert brute.levels[k].canonical_rows() == oracle.canonical_rows()
    explicit = build_tower(cfg, kmax, "explicit")
    # the explicit tower, and one that skips level 1, whose level 2 then
    # has rows outside the closure of M_0 (generators above it, untagged)
    towers = [explicit]
    if kmax >= 2:
        towers.append(FiltrationTower(cfg, "explicit", explicit.levels[:1] + explicit.levels[2:]))
    for tower in towers:
        fresh, failed = _system_rows_oracle(tower)
        if failed is None:
            assert system_rows(tower)[0] == fresh
        else:
            with pytest.raises(ValueError, match=f"^level {failed} does not contain"):
                system_rows(tower)


@settings(
    max_examples=20,
    deadline=None,
    derandomize=True,
    database=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(supported_configs())
@example((Config(4, 1, 3, -1, 1), 3))  # T-cell, mixed signs
@example((Config(3, 2, 3, 0, 1), 3))  # explicit tower larger than U_k(g) M_0
@example((Config(4, 2, 2, -1, 1), 3))  # product-skew
def test_closures_match_the_every_row_oracle(cfg_kmax):
    cfg, kmax = cfg_kmax
    assert applier_is_representation(cfg.n, cfg.n1, cfg.n2)
    _assert_closures_match_oracles(cfg, kmax)
    # with the certificate rejected, every accepted row is left untagged
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(filtration, "applier_is_representation", lambda n, n1, n2: False)
        _assert_closures_match_oracles(cfg, kmax)


@pytest.fixture
def fresh_caches():
    """Clear the per-layout applier tables and certificates around a test
    that patches the tables they are read from."""
    _weyl_tables.cache_clear()
    applier_is_representation.cache_clear()
    osc.block_permutations_commute.cache_clear()
    osc.mirror_commutes.cache_clear()
    yield
    _weyl_tables.cache_clear()
    applier_is_representation.cache_clear()
    osc.block_permutations_commute.cache_clear()
    osc.mirror_commutes.cache_clear()


@pytest.mark.parametrize("cell", sorted(osc._BLOCK), ids=str)
def test_certificate_rejects_a_flipped_cell(monkeypatch, fresh_caches, cell):
    c, da, db = osc._BLOCK[cell]
    monkeypatch.setitem(osc._BLOCK, cell, (-c, da, db))
    # (4,2,2) reads all four cells on both sides; the closure of the
    # flipped operators is still the every-row closure
    assert not applier_is_representation(4, 2, 2)
    _assert_closures_match_oracles(Config(4, 2, 2, -1, -1), 2)


@pytest.mark.parametrize("first, wrong", [(True, 0), (False, 1)])
def test_certificate_rejects_a_wrong_diagonal_constant(monkeypatch, fresh_caches, first, wrong):
    # the Weyl forms of the Cartan generators no longer act as the applier
    monkeypatch.setitem(osc._DIAGONAL, first, wrong)
    assert not applier_is_representation(4, 1, 3)
    _assert_closures_match_oracles(Config(4, 1, 3, -1, -1), 2)


def _all_pairs_certificate(n, n1, n2):
    """The certificate without its reductions: every pair of generators,
    and every generator's form against the applier on every monomial of
    degree <= 2."""
    cfg = Config(n, n1, n2)
    sp = cfg.space
    gens = generators(n)
    forms = osc.weyl_forms(cfg)
    for g in gens:
        action = osc.weyl_action(sp, forms[g])
        for m in monomials(sp, range(3)):
            if osc.apply_generator_terms(cfg, g, {m: 1}) != osc.apply_weyl(action, {m: 1}):
                return False
    return not any(
        osc.bracket_defect(sp, forms, a, b, osc.commutator_in_basis(a, b, n))
        for a, b in itertools.combinations(gens, 2)
    )


def _chevalley_pairs(n):
    """Each unordered pair of a Chevalley generator E_{i,i+1} or E_{i+1,i}
    and another basis element of sl(n), once."""
    gens = generators(n)
    done = set()
    for i in range(1, n):
        for s in (("e", i, i + 1), ("e", i + 1, i)):
            done.add(s)
            for y in gens:
                if y not in done:
                    yield s, y


def _chevalley_certificate(cfg, forms):
    """The certificate on every generator and every ``_chevalley_pairs``."""
    return osc._forms_act_as_applier(cfg, forms, forms) and osc._brackets_hold(
        cfg, forms, _chevalley_pairs(cfg.n)
    )


def _layouts(nmax):
    return [
        (n, n1, n2)
        for n in range(2, nmax + 1)
        for n1 in range(1, n + 1)
        for n2 in range(n1, n + 1)
    ]


def test_certificate_matches_the_all_pairs_oracle():
    for layout in _layouts(6):
        assert applier_is_representation(*layout) == _all_pairs_certificate(*layout), layout


_CORRUPTIONS = [("_BLOCK", cell) for cell in sorted(osc._BLOCK)] + [
    ("_DIAGONAL", True),
    ("_DIAGONAL", False),
]


@pytest.mark.parametrize("table, key", _CORRUPTIONS, ids=str)
def test_certificate_matches_the_oracle_on_corrupted_tables(monkeypatch, fresh_caches, table, key):
    cells = getattr(osc, table)
    if table == "_BLOCK":
        c, da, db = cells[key]
        monkeypatch.setitem(cells, key, (-c, da, db))
    else:
        monkeypatch.setitem(cells, key, 1 + cells[key])
    verdicts, by_orbit = set(), set()
    for layout in _layouts(4):
        _weyl_tables.cache_clear()
        applier_is_representation.cache_clear()
        osc.block_permutations_commute.cache_clear()  # read by the certificate
        verdict = applier_is_representation(*layout)
        assert verdict == _all_pairs_certificate(*layout), layout
        verdicts.add(verdict)
        cfg = Config(*layout)
        if osc.block_transpositions(*layout) and osc._relabellings_hold(cfg, osc.weyl_forms(cfg)):
            by_orbit.add(verdict)  # decided once per orbit
    assert False in verdicts and False in by_orbit


@pytest.mark.parametrize("cell", [None] + sorted(osc._BLOCK), ids=str)
def test_skipped_chevalley_pairs_have_zero_defect(monkeypatch, cell):
    # a pair that commutes in sl(n) and whose forms touch disjoint positions
    # is skipped; every skipped defect is zero and the verdict is that of
    # every pair, n <= 8, and n <= 6 with a flipped cell
    if cell is not None:
        c, da, db = osc._BLOCK[cell]
        monkeypatch.setitem(osc._BLOCK, cell, (-c, da, db))
    verdicts = set()
    for layout in _layouts(8 if cell is None else 6):
        cfg = Config(*layout)
        forms = osc.weyl_forms(cfg)
        pairs = _chevalley_pairs(cfg.n)
        checked = {(a, b) for a, b, _bracket in osc._checked_pairs(cfg, forms, pairs)}
        every_pair_holds = True  # the loop without the skip
        for a, b in _chevalley_pairs(cfg.n):
            defect = osc.bracket_defect(cfg.space, forms, a, b, osc.commutator_in_basis(a, b, cfg.n))
            assert not defect or (a, b) in checked, (layout, a, b)
            every_pair_holds = every_pair_holds and not defect
        verdict = osc._brackets_hold(cfg, forms, _chevalley_pairs(cfg.n))
        assert verdict == every_pair_holds, layout
        verdicts.add(verdict)
    assert False in verdicts if cell is not None else verdicts == {True}
    if cell is None:
        # the counts the certificate's docstring quotes, at n = 8
        cfg = Config(8, 2, 6)
        assert sum(1 for _ in _chevalley_pairs(8)) == 777
        forms = osc.weyl_forms(cfg)
        assert sum(1 for _ in osc._checked_pairs(cfg, forms, _chevalley_pairs(8))) == 357


def test_orbit_certificate_matches_the_full_path():
    # every layout with n <= 8 passes the relabelling check, and the
    # verdict once per orbit is that of every generator and Chevalley pair
    for layout in _layouts(8):
        cfg = Config(*layout)
        forms = osc.weyl_forms(cfg)
        assert osc._relabellings_hold(cfg, forms), layout
        full = _chevalley_certificate(cfg, forms)
        assert osc._certified(cfg, forms, True) == osc._certified(cfg, forms, False) == full, layout
    # with every index a block of its own, the orbit pairs are the
    # Chevalley pairs, each pair of two Chevalley generators in both orders
    for n in range(2, 9):
        single = [(a,) for a in range(1, n + 1)]
        pairs = list(osc._orbit_pairs(n, single))
        assert {frozenset(p) for p in pairs} == {frozenset(p) for p in _chevalley_pairs(n)}
        assert len(pairs) == 2 * (n - 1) * (n * n - 2)
        assert len(osc._orbit_roots(single)) == n * (n - 1)
    # the counts the certificate's docstring quotes, at n = 8, and at n = 18
    for layout, gens, formed, formed_single in [
        ((8, 2, 6), 16, 102, 388),
        ((18, 6, 12), 26, 111, 2308),
    ]:
        cfg = Config(*layout)
        forms = osc.weyl_forms(cfg)
        assert len(osc._orbit_roots(osc._blocks(cfg))) + layout[0] - 1 == gens
        pairs = osc._orbit_pairs(cfg.n, osc._blocks(cfg))
        assert sum(1 for _ in osc._checked_pairs(cfg, forms, pairs)) == formed
        single = osc._orbit_pairs(cfg.n, [(a,) for a in range(1, cfg.n + 1)])
        assert sum(1 for _ in osc._checked_pairs(cfg, forms, single)) == formed_single
    # at most seven Chevalley generators, one per orbit
    assert len({x for x, _y in osc._orbit_pairs(8, osc._blocks(Config(8, 2, 6)))}) == 7


def _symmetry_broken(layout):
    """Assert that the relabelling check refuses ``layout`` and that the
    certificate and the all-pairs oracle both reject it; return the verdict
    the orbit path alone would give."""
    cfg = Config(*layout)
    forms = osc.weyl_forms(cfg)
    assert not osc._relabellings_hold(cfg, forms)
    assert not osc.block_permutations_commute(*layout)
    assert not applier_is_representation(*layout)
    assert not _all_pairs_certificate(*layout)
    return osc._certified(cfg, forms, True)


def test_relabelling_check_sees_an_extra_term_on_a_non_representative_root(fresh_caches):
    # x2 d_{x4} added to E_21 only: no orbit representative reads it, so
    # the orbit path alone would pass; the relabelling (1 2) refuses it
    cfg = Config(4, 2, 2)
    sp, g = cfg.space, ("e", 2, 1)
    assert g not in osc._orbit_roots(osc._blocks(cfg))
    _extra_root_term(cfg, g, (1, sp.shift[sp.x(4)], -1, sp.unit[sp.x(2)] - sp.unit[sp.x(4)]))
    assert _symmetry_broken((4, 2, 2))


def test_relabelling_check_sees_a_negated_non_representative_root(monkeypatch, fresh_caches):
    # E_24 negated in its table and its form alike: they agree, the
    # relabelling (1 2) takes E_14 to E_24 and the table and form to minus
    # theirs
    pi_terms = osc._pi_terms

    def negated(sp, n1, n2, i, j):
        terms = pi_terms(sp, n1, n2, i, j)
        return tuple((-c, *rest) for c, *rest in terms) if (i, j) == (2, 4) else terms

    monkeypatch.setattr(osc, "_pi_terms", negated)
    assert ("e", 2, 4) not in osc._orbit_roots(osc._blocks(Config(5, 2, 3)))
    _symmetry_broken((5, 2, 3))


def test_relabelling_check_sees_a_perturbed_cartan_form(monkeypatch, fresh_caches):
    # a constant added to h_1 in its form and its table alike: form and
    # applier agree, but (1 2) takes h_1 to -h_1, and the constant to itself
    weyl_forms, table = osc.weyl_forms, osc._cartan_table

    def shifted_forms(cfg):
        forms = weyl_forms(cfg)
        forms["h", 1][0, 0] = forms["h", 1].get((0, 0), 0) + 1
        return forms

    def shifted_table(cfg, r):
        const, reads = table(cfg, r)
        return (const + 1, reads) if r == 1 else (const, reads)

    monkeypatch.setattr(osc, "weyl_forms", shifted_forms)
    monkeypatch.setattr(osc, "_cartan_table", shifted_table)
    cfg = Config(5, 2, 3)
    assert osc.weyl_forms(cfg)["h", 1][0, 0] == 1
    assert osc._forms_act_as_applier(cfg, osc.weyl_forms(cfg), [("h", 1)])
    _symmetry_broken((5, 2, 3))


def test_orbit_agreement_reads_a_root_inside_each_block(fresh_caches):
    # E_12 and E_21 negated in their tables alone: (1 2) maps one onto the
    # other, so the relabelling holds, and so do the brackets of the forms;
    # only the comparison of E_12, the representative inside J1, sees it
    cfg = Config(5, 2, 3)
    roots = cfg.weyl_tables[0]
    for g in (("e", 1, 2), ("e", 2, 1)):
        ceiling, packed = roots[g]
        roots[g] = ceiling, tuple((-c, *rest) for c, *rest in packed)
    forms = osc.weyl_forms(cfg)
    assert osc._relabellings_hold(cfg, forms)
    assert osc._brackets_hold(cfg, forms, osc._orbit_pairs(cfg.n, osc._blocks(cfg)))
    assert not applier_is_representation(5, 2, 3)
    assert not _all_pairs_certificate(5, 2, 3)


def _mirror_conjugates_every_generator(n, n1, n2):
    """The oracle for ``osc.mirror_commutes``: M pi(g) M = pi(theta(g))
    for every generator g, applied to every monomial of degree <= 2, with
    theta(g) read off g's matrix, E_ab -> -E_{n+1-b, n+1-a}."""
    cfg = Config(n, n1, n2)
    sp = cfg.space
    swap = osc.mirrorer(sp)
    for g in generators(n):
        matrix = {(n + 1 - b, n + 1 - a): -c for (a, b), c in osc.generator_matrix(g, n).items()}
        theta = osc.matrix_to_generators(matrix, n)
        for m in monomials(sp, range(3)):
            img = osc.apply_generator_terms(cfg, g, {swap(m): 1})
            want: dict = {}
            for c, h in theta:
                axpy(want, c, osc.apply_generator_terms(cfg, h, {m: 1}))
            if {swap(k): c for k, c in img.items()} != want:
                return False
    return True


def test_mirror_conjugation_matches_the_every_generator_oracle():
    verdicts = {layout: osc.mirror_commutes(*layout) for layout in _layouts(6)}
    for layout, verdict in verdicts.items():
        assert verdict == _mirror_conjugates_every_generator(*layout), layout
    assert {layout for layout, v in verdicts.items() if v} == {
        (n, n1, n2) for n, n1, n2 in verdicts if n1 + n2 == n
    }


@pytest.mark.parametrize("table, key", _CORRUPTIONS + [("root", ("e", 1, 4))], ids=str)
def test_mirror_conjugation_matches_the_oracle_on_corrupted_tables(
    monkeypatch, fresh_caches, table, key
):
    if table == "root":
        # E_14 negated in its table and its form alike: M takes it to
        # -E_25 (at n = 5), whose table and form are not negated
        pi_terms = osc._pi_terms

        def negated(sp, n1, n2, i, j):
            terms = pi_terms(sp, n1, n2, i, j)
            return tuple((-c, *rest) for c, *rest in terms) if (i, j) == key[1:] else terms

        monkeypatch.setattr(osc, "_pi_terms", negated)
    elif table == "_BLOCK":
        c, da, db = osc._BLOCK[key]
        monkeypatch.setitem(osc._BLOCK, key, (-c, da, db))
    else:
        monkeypatch.setitem(osc._DIAGONAL, key, 1 + osc._DIAGONAL[key])
    layouts = [(n, n1, n - n1) for n in range(2, 6) for n1 in range(1, n // 2 + 1)]
    for layout in layouts:
        _weyl_tables.cache_clear()
        osc.mirror_commutes.cache_clear()
        assert osc.mirror_commutes(*layout) == _mirror_conjugates_every_generator(*layout), layout
    if table == "root":
        assert not osc.mirror_commutes(5, 2, 3)


def _extra_root_term(cfg, g, term):
    """Append a packed term to the applier of the root g."""
    ceiling, packed = cfg.weyl_tables[0][g]
    cfg.weyl_tables[0][g] = ceiling, packed + (term,)


def test_agreement_reads_the_positions_from_the_packed_terms(fresh_caches):
    # d_{x4} times x2 on E_13: zero on every monomial in x1, x3, y1, y3
    cfg = Config(4, 2, 2)
    sp, g = cfg.space, ("e", 1, 3)
    forms = osc.weyl_forms(cfg)
    full = list(monomials(sp, range(3)))
    own = osc._agreement_monomials(cfg, g, forms[g], full)
    assert len(own) == 15 and sp.unit[sp.x(4)] not in own
    _extra_root_term(cfg, g, (1, sp.shift[sp.x(4)], -1, sp.unit[sp.x(2)] - sp.unit[sp.x(4)]))
    assert sp.unit[sp.x(4)] in osc._agreement_monomials(cfg, g, forms[g], full)
    assert not osc._forms_act_as_applier(cfg, forms, forms)
    assert not applier_is_representation(4, 2, 2)
    assert not _all_pairs_certificate(4, 2, 2)


def test_agreement_reads_the_cartan_positions_from_its_table(monkeypatch, fresh_caches):
    # h_2 reads x2, y2, x3, y3 off its table, and its form touches no other
    cfg = Config(4, 2, 2)
    sp, g = cfg.space, ("h", 2)
    forms = osc.weyl_forms(cfg)
    full = list(monomials(sp, range(3)))
    const, reads = cfg.cartan_tables[2]
    assert sorted(s for s, _k in reads) == sorted(
        sp.shift[p] for p in (sp.x(2), sp.y(2), sp.x(3), sp.y(3))
    )
    own = osc._agreement_monomials(cfg, g, forms[g], full)
    assert len(own) == 15 and sp.unit[sp.x(1)] not in own
    # a read of x1 in the table, which the form lacks, brings x1 into the cut
    table = osc._cartan_table

    def misread(cfg, r):
        const, reads = table(cfg, r)
        return (const, reads + ((sp.shift[sp.x(1)], 1),)) if r == 2 else (const, reads)

    monkeypatch.setattr(osc, "_cartan_table", misread)
    wrong = Config(4, 2, 2)
    assert sp.unit[sp.x(1)] in osc._agreement_monomials(wrong, g, forms[g], full)
    assert not osc._forms_act_as_applier(wrong, forms, forms)
    assert not applier_is_representation(4, 2, 2)
    assert not _all_pairs_certificate(4, 2, 2)


def test_chevalley_brackets_reject_a_wrong_non_simple_root(monkeypatch, fresh_caches):
    # E_13 negated in its table and its form alike: they agree, the
    # relation [E_12, E_23] = E_13 does not
    pi_terms = osc._pi_terms

    def negated(sp, n1, n2, i, j):
        terms = pi_terms(sp, n1, n2, i, j)
        if (i, j) == (1, 3):
            return tuple((-c, *rest) for c, *rest in terms)
        return terms

    monkeypatch.setattr(osc, "_pi_terms", negated)
    cfg = Config(4, 1, 3)
    forms = osc.weyl_forms(cfg)
    assert osc._forms_act_as_applier(cfg, forms, forms)
    assert not osc._brackets_hold(cfg, forms, _chevalley_pairs(4))
    assert not applier_is_representation(4, 1, 3)
    assert not _all_pairs_certificate(4, 1, 3)


@pytest.mark.parametrize("layout", [(2, 1, 1), (3, 1, 2)], ids=str)
def test_chevalley_brackets_reject_a_constant_on_any_root(monkeypatch, fresh_caches, layout):
    # a constant added to pi(E_ij), in its table and its form alike,
    # commutes with every operator: only the brackets whose result holds
    # E_ij see it, such as [E_21, h_1] at n = 2, or [E_21, E_32] = -E_31
    weyl_forms = osc.weyl_forms
    for g in generators(layout[0]):
        if g[0] == "h":
            continue
        _weyl_tables.cache_clear()
        applier_is_representation.cache_clear()
        osc.block_permutations_commute.cache_clear()  # read by the certificate

        def shifted(cfg, g=g):
            forms = weyl_forms(cfg)
            forms[g][0, 0] = forms[g].get((0, 0), 0) + 1
            return forms

        monkeypatch.setattr(osc, "weyl_forms", shifted)
        _extra_root_term(Config(*layout), g, (1, -1, -1, 0))
        assert not applier_is_representation(*layout), g
        assert not _all_pairs_certificate(*layout), g


@pytest.mark.parametrize("kind", ["repeated derivative", "borrowing shift"])
def test_agreement_tests_every_monomial_past_a_non_weyl_term(fresh_caches, kind):
    cfg = Config(4, 2, 2)
    sp, g = cfg.space, ("e", 1, 3)
    s, unit = sp.shift[sp.x(1)], sp.unit[sp.x(1)]
    # e^2 x^{e-2} is no Weyl monomial, nor is a division by x_1 that
    # does not differentiate
    term = (1, s, s, -2 * unit) if kind == "repeated derivative" else (1, -1, -1, -unit)
    _extra_root_term(cfg, g, term)
    full = list(monomials(sp, range(3)))
    assert osc._agreement_monomials(cfg, g, osc.weyl_forms(cfg)[g], full) is full
    assert not applier_is_representation(4, 2, 2)


def test_tcache_images_are_primitive_integer_multiples():
    for cfg in (CFG, Config(4, 1, 3, -1, 1), Config(3, 2, 3, 2, 1)):
        cache = _explicit_cache(cfg)
        explicit_level(cfg, 2, cache)
        images = cache["tproj"].images
        assert images
        for m, img in images.items():
            exact = project_T_monomial(cfg, m).terms
            assert img.terms.keys() == exact.keys()
            assert all(type(c) is int for c in img.terms.values())
            assert reduce(gcd, img.terms.values(), 0) == 1
            ratios = {Fraction(c) / exact[mm] for mm, c in img.terms.items()}
            assert len(ratios) == 1 and 0 not in ratios


# ---------------------------------------------------------------------------
# explicit towers at representative weights, against the whole build
# ---------------------------------------------------------------------------


def test_check_nested_reads_a_row_missing_from_the_level_above():
    # level 1 shares every row dict of level 0 but one, which it lacks
    low = echelon_from(SP, [P("x1"), P("y3"), P("x1*y3")])
    high = low.copy()
    missing = max(P("y3").terms)
    del high.rows[missing]
    high.insert(P("x1^2"))
    assert not FiltrationTower(CFG, "explicit", [low, high]).check_nested()
    # the same row as a fresh dict is found by reduction
    high.insert(P("y3"))
    assert high.rows[missing] is not low.rows[missing]
    assert FiltrationTower(CFG, "explicit", [low, high]).check_nested()


def _whole_payload(cfg, kmax):
    """``compare_towers`` from the whole levels, each pair by
    ``span_equal`` and nesting by ``contains_span``: the oracle."""
    brute = build_tower(cfg, kmax, "bruteforce")
    whole = build_tower(cfg, kmax, whole=True)
    levels = [
        {"k": k, "dim_bruteforce": b.dim, "dim_explicit": e.dim, "equal": span_equal(b, e)}
        for k, (b, e) in enumerate(zip(brute.levels, whole.levels))
    ]

    def nested(tower):
        return all(
            tower.levels[k + 1].contains_span(tower.levels[k]) for k in range(kmax)
        )

    return {
        "cfg": cfg.short(),
        "explicit_method": whole.method,
        "levels": levels,
        "all_equal": all(r["equal"] for r in levels),
        "nested": nested(whole) and nested(brute),
    }


@st.composite
def orbit_layouts(draw):
    """(cfg, kmax) for a supported layout with n <= 6 and kmax <= 5."""
    n = draw(st.integers(2, 6))
    n1 = draw(st.integers(1, n))
    n2 = draw(st.integers(n1, n))
    cfg = Config(n, n1, n2, draw(st.integers(-2, 2)), draw(st.integers(-2, 2)))
    try:
        base_space_vectors(cfg)
    except UnsupportedRegimeError:
        assume(False)
    return cfg, draw(st.integers(0, {5: 3, 6: 2}.get(n, 5)))


@settings(
    max_examples=20,
    deadline=None,
    derandomize=True,
    database=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(orbit_layouts())
@example((Config(5, 2, 3, -1, -1), 4))  # T-cell, orbits in J1 and J3
@example((Config(5, 1, 4, -1, -1), 4))  # T-cell, (3 4) only: (2 3) moves n1+1
@example((Config(4, 2, 2, -1, -1), 5))  # product
@example((Config(4, 3, 4, 1, 1), 5))  # dprime
@example((Config(5, 3, 3, -1, 1), 3))  # product-skew
@example((Config(5, 1, 1, 1, -1), 3))  # product-skew-mirror
@example((Config(6, 3, 3, -1, -1), 3))
@example((Config(7, 3, 4, -1, -1), 3))  # T-cell with the mirror
@example((Config(4, 1, 3, -1, -1), 4))  # self-mirror, refused: |J2| = 2
def test_representative_weights_match_the_whole_build(cfg_kmax):
    cfg, kmax = cfg_kmax
    tower = build_tower(cfg, kmax, "explicit")
    whole = build_tower(cfg, kmax, whole=True)
    oracle = _whole_payload(cfg, kmax)
    assert tower.dims == [b.dim for b in whole.levels]
    assert tower.check_nested() == all(
        whole.levels[k + 1].contains_span(whole.levels[k]) for k in range(kmax)
    )
    assert compare_towers(cfg, kmax) == oracle
    # the levels read from a tower with orbits are the whole build's, row
    # for row
    assert [list(b.rows.items()) for b in tower.levels] == [
        list(b.rows.items()) for b in whole.levels
    ]
    weights = tower.weights
    if weights is not None:
        # every representative row is a weight vector of a representative
        # weight, and no weight of another orbit is built
        for level in tower.built:
            for row in level.rows.values():
                w = weights.homogeneous(row)
                assert w is not None and weights.is_representative(w)


@pytest.mark.parametrize("params, admitted", [
    ((4, 1, 3, -1, 1), []),  # J1, J3 singletons; (2 3) moves n1+1
    ((5, 1, 4, -1, -1), [3]),
    ((5, 2, 3, -1, -1), [1, 4]),
    ((4, 3, 4, 1, 1), [1, 2]),
    ((4, 2, 2, -1, -1), [1, 3]),
], ids=str)
def test_admitted_transpositions_are_pinned(params, admitted):
    cfg = Config(*params)
    assert _admitted_transpositions(cfg, 6, _explicit_cache(cfg)) == admitted
    tower = build_tower(cfg, 3, "explicit")
    if admitted:
        assert tower.weights.transpositions == tuple(admitted)
    else:
        assert tower.weights is None


@pytest.mark.parametrize("params, admitted, mirror", [
    ((4, 2, 2, -1, -1), [1, 3], True),  # product
    ((6, 3, 3, -1, -1), [1, 2, 4, 5], True),
    ((5, 2, 3, -1, -1), [1, 4], True),  # T-cell, |J2| = 1
    ((7, 3, 4, -1, -1), [1, 2, 5, 6], True),
    ((3, 1, 2, -1, -1), [], True),  # the mirror alone
    ((4, 1, 3, -1, -1), [], False),  # |J2| = 2: the mirror moves n1+1 to n2
    ((6, 2, 4, -1, -1), [1, 5], False),
    ((4, 1, 3, -1, 1), [], False),  # l1 != l2: M_0 is not mirrored onto itself
    ((4, 3, 4, 1, 1), [1, 2], False),  # dprime
    ((5, 3, 3, -1, 1), [1, 2, 4], False),  # product-skew
], ids=str)
def test_mirror_verdict_is_pinned(params, admitted, mirror):
    cfg = Config(*params)
    cache = _explicit_cache(cfg)
    assert _admitted_transpositions(cfg, 4, cache) == admitted
    assert _admits_mirror(cfg, 4, cache, admitted) == mirror
    weights = build_tower(cfg, 3, "explicit").weights
    assert (weights is not None and weights.mirror) == mirror
    # every layout with n1 + n2 = n conjugates the applier by the mirror
    assert osc.mirror_commutes(*params[:3]) == (params[1] + params[2] == params[0])


def test_mirror_needs_transpositions_closed_under_reflection():
    # (5,2,3,-1,-1) with (1 2) alone: the mirror conjugates it to (4 5)
    cfg = Config(5, 2, 3, -1, -1)
    cache = _explicit_cache(cfg)
    assert _admits_mirror(cfg, 4, cache, [1, 4])
    assert not _admits_mirror(cfg, 4, cache, [1])
    assert not _admits_mirror(cfg, 4, cache, [4])


def test_a_t_series_form_the_mirror_moves_refuses_the_mirror(monkeypatch):
    # sum_{J1} x_i d_{x_i} added to the reduced Laplacian's form: of weight
    # 0 and fixed by (1 2) and (4 5), but the mirror takes it to
    # sum_{J3} y_s d_{y_s}
    cfg = Config(5, 2, 3, -1, -1)
    sp = cfg.space
    real = filtration.projection_forms

    def perturbed(c):
        reduced, lift = real(c)
        reduced = dict(reduced)
        for i in c.J1:
            reduced[sp.unit[sp.x(i)], sp.unit[sp.x(i)]] = 1
        return reduced, lift

    monkeypatch.setattr(filtration, "projection_forms", perturbed)
    cache = _explicit_cache(cfg)
    assert _admitted_transpositions(cfg, 4, cache) == [1, 4]
    assert not _admits_mirror(cfg, 4, cache, [1, 4])
    assert not build_tower(cfg, 3, "explicit").weights.mirror


def _orbit(weights, w, transpositions, mirror):
    """The orbit of w under the transpositions and, with ``mirror``, the
    map mu -> -reverse(mu), by search over the entries."""
    n = weights.n
    seen, todo = set(), [tuple(weights.entries(w))]
    while todo:
        mu = todo.pop()
        if mu in seen:
            continue
        seen.add(mu)
        for i in transpositions:
            nu = list(mu)
            nu[i - 1], nu[i] = nu[i], nu[i - 1]
            todo.append(tuple(nu))
        if mirror:
            todo.append(tuple(-mu[n - 1 - a] for a in range(n)))
    return seen


def test_mirror_weights_match_their_orbits():
    cfg = Config(6, 3, 3, -1, -1)
    sp = cfg.space
    plain = Weights(cfg, sp)
    mirrored = Weights(cfg, sp, [1, 2, 4, 5], mirror=True)
    alone = Weights(cfg, sp, (), mirror=True)
    for weights in (mirrored, alone):
        seen = set()
        for m in monomials(sp, range(3)):
            w = plain.of(m)
            orbit = _orbit(plain, w, weights.transpositions, True)
            assert weights.orbit_size(w) == len(orbit)
            packed = {mirrored._packed([v + mirrored._half for v in mu]) for mu in orbit}
            assert {weights.representative(v) for v in packed} == {weights.representative(w)}
            assert [v for v in packed if weights.is_representative(v)] == [weights.representative(w)]
            seen.add(weights.representative(w))
        assert seen
    # the mirror of a variable's weight is the weight of its mirror image
    swap = osc.mirrorer(sp)
    for u in sp.unit:
        assert mirrored.mirrored(plain.of(u)) == plain.of(swap(u)) != plain.of(u)
    # relabellings by permutations alone are refused
    with pytest.raises(ValueError):
        mirrored.sorter(plain.of(sp.unit[0]))
    with pytest.raises(ValueError):
        mirrored.order_type([1], [2])


def test_representative_rows_and_weights_are_pinned():
    cfg = Config(4, 2, 2, -1, -1)
    tower = build_tower(cfg, 11, "explicit")
    weights = tower.weights
    top = tower.built[11]
    found = {weights.of(piv) for piv in top.rows}
    assert (top.dim, len(found)) == (812, 139)
    # the whole level: 4,459 rows in 818 weights
    assert tower.dims[11] == 4459
    assert sum(weights.orbit_size(w) for w in found) == 818


def test_a_base_that_loses_a_vector_gets_no_orbits(monkeypatch):
    # dropping x2*y4 from M_0 of (4,2,2,-1,-1): both transpositions map a
    # kept base vector onto it, so neither is admitted
    cfg = Config(4, 2, 2, -1, -1)
    real = filtration.base_space_vectors
    monkeypatch.setattr(filtration, "base_space_vectors", lambda *a: real(*a)[:-1])
    assert _admitted_transpositions(cfg, 4, _explicit_cache(cfg)) == []
    tower = build_tower(cfg, 4, "explicit")
    assert tower.weights is None
    assert tower.dims == [b.dim for b in build_tower(cfg, 4, whole=True).levels]


def test_a_generating_vector_of_no_weight_gets_no_orbits(monkeypatch):
    # the sum of the alternating quadratics: every block permutation maps it
    # onto itself, but it is no weight vector
    cfg = Config(4, 2, 2, -1, -1)
    real = filtration.alternating_set

    def with_sum(c):
        pset = real(c)
        return pset + [sum(pset[1:], pset[0])]

    monkeypatch.setattr(filtration, "alternating_set", with_sum)
    assert _admitted_transpositions(cfg, 4, _explicit_cache(cfg)) == []
    assert build_tower(cfg, 4, "explicit").dims == [
        b.dim for b in build_tower(cfg, 4, whole=True).levels
    ]


def test_a_monomial_level_that_is_not_permuted_gets_no_orbit(monkeypatch):
    # dropping one monomial of TN level 2 of (5,2,3,-1,-1) that (1 2) moves
    # off the level, and (4 5) too
    cfg = Config(5, 2, 3, -1, -1)
    real = filtration.enumerate_TN_level
    sp = cfg.space

    def dropped(c, k):
        level = real(c, k)
        if k == 2:
            level = [m for m in level if not (sp.exp(m, sp.x(1)) and sp.exp(m, sp.y(4)))][:-1]
        return level

    monkeypatch.setattr(filtration, "enumerate_TN_level", dropped)
    assert _admitted_transpositions(cfg, 1, _explicit_cache(cfg)) == [1, 4]
    assert _admitted_transpositions(cfg, 2, _explicit_cache(cfg)) == []
    assert build_tower(cfg, 3, "explicit").dims == [
        b.dim for b in build_tower(cfg, 3, whole=True).levels
    ]


@pytest.mark.parametrize(
    "refused", ["applier_is_representation", "block_permutations_commute", "mirror_commutes"]
)
def test_comparison_reads_the_whole_levels_where_a_certificate_refuses(monkeypatch, refused):
    # (5,2,3,-1,-1) has orbits of (1 2), (4 5) and the mirror; where a
    # certificate of the applier refuses them, the whole levels are read
    cfg = Config(5, 2, 3, -1, -1)
    oracle = _whole_payload(cfg, 4)
    whole = []
    real = filtration.build_tower

    def build(c, k, method="explicit", **kw):
        tower = real(c, k, method, **kw)
        if kw.get("whole"):
            whole.append(tower)
        return tower

    monkeypatch.setattr(filtration, "build_tower", build)
    assert compare_towers(cfg, 4) == oracle and whole == []
    monkeypatch.setattr(filtration, refused, lambda *layout: False)
    assert compare_towers(cfg, 4) == oracle and len(whole) == 1


def test_a_representative_level_missing_a_row_fails_the_comparison(monkeypatch):
    cfg = Config(5, 2, 3, -1, -1)
    real = filtration.explicit_level

    def dropping(c, k, cache=None):
        level = real(c, k, cache)
        if k == 2 and cache is not None and cache["weights"] is not None:
            level = level.copy()
            level.rows.popitem()
        return level

    monkeypatch.setattr(filtration, "explicit_level", dropping)
    rep = compare_towers(cfg, 3)
    assert [r["equal"] for r in rep["levels"]] == [True, True, False, True]
    assert not rep["all_equal"]


@pytest.mark.parametrize("params, kmax", [((4, 1, 3, -1, 1), 5), ((5, 2, 3, -1, -1), 4)], ids=str)
def test_compare_towers_looks_up_each_explicit_row_once(monkeypatch, params, kmax):
    # a row that level k shares with level k-1 was found in brute-force
    # level k-1, which brute-force level k holds: it is not looked up again
    cfg = Config(*params)
    towers, lookups = {}, []
    real_build, real_contains = filtration.build_tower, EchelonBasis.contains

    def build(c, k, method="explicit", **kw):
        towers[method] = real_build(c, k, method, **kw)
        return towers[method]

    def contains(self, row):
        lookups.append((id(self), id(row)))
        return real_contains(self, row)

    monkeypatch.setattr(filtration, "build_tower", build)
    monkeypatch.setattr(EchelonBasis, "contains", contains)
    rep = compare_towers(cfg, kmax)
    assert rep["all_equal"]
    brute = {id(level) for level in towers["bruteforce"].levels}
    explicit = towers["explicit"]
    rows = explicit.built
    looked_up = [row for level, row in lookups if level in brute]
    distinct = {id(row) for level in rows for row in level.rows.values()}
    assert sorted(looked_up) == sorted(distinct)
    # each level shares rows with the one below
    assert len(distinct) < sum(level.dim for level in rows)


def test_xy_weights_are_the_cartan_eigenvalues_less_their_constants():
    for cfg in (Config(4, 1, 3), Config(5, 2, 2), Config(5, 2, 4), Config(3, 3, 3)):
        sp = cfg.space
        weights = Weights(cfg, sp)
        one = weight(cfg, Poly.constant(sp, 1))
        for m in monomials(sp, range(4)):
            mu = weights.entries(weights.of(m))
            assert mu == [diagonal_value(cfg, a, m) - diagonal_value(cfg, a, 0) for a in range(1, cfg.n + 1)]
            shift = tuple(a - b for a, b in zip(weight(cfg, Poly(sp, {m: 1})), one))
            assert shift == tuple(mu[r - 1] - mu[r] for r in range(1, cfg.n))
    # entries up to the degree limit pack one to one
    cfg = Config(3, 1, 2)
    weights = Weights(cfg, cfg.space)
    m = cfg.space.pack((200, 0, 0, 0, 55, 0))
    assert weights.entries(weights.of(m)) == [-200, -55, 0]
