"""Filtration towers: base spaces, dual-route equality, orders, ladders."""

import functools
import itertools
import json
import random
from fractions import Fraction
from functools import reduce
from math import factorial, gcd
from types import SimpleNamespace
from unittest import mock

import pytest
from hypothesis import HealthCheck, assume, example, given, settings
from hypothesis import strategies as st

from oscvar import filtration, osc, suite
from oscvar.annihilator import _level_rows, system_rows
from oscvar.filtration import (
    LADDER_VARIANTS,
    FiltrationTower,
    UnsupportedRegimeError,
    _dprime_level,
    _explicit_cache,
    _insert_tproducts,
    _orbit_generators,
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
    project_T,
    project_T_monomial,
    weight,
)
from oscvar.poly import DEGREE_LIMIT, Poly, add_term, axpy, monomials, parse_poly, xy_space

CFG = Config(3, 1, 2, -1, -1)
SP = CFG.space
WHOLE = Weights.ungraded(CFG, SP)


def _one_block(weights) -> bool:
    """Whether ``weights`` is the one-block grading: no orbits, and every
    position at weight 0."""
    return not weights.orbits and not any(weights.position)


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


def _vector(n, *terms):
    """The term dict of (coefficient, x exponents, y exponents) triples."""
    return {xy_space(n).pack(x + y): c for c, x, y in terms}


# base_space_vectors in order, each as its terms
_BASE_VECTORS = {
    # product: X_{J1}^2 Y_{J3}^1
    (5, 2, 2, -2, -1): [
        _vector(5, (1, (0, 2, 0, 0, 0), (0, 0, 0, 0, 1))),
        _vector(5, (1, (0, 2, 0, 0, 0), (0, 0, 0, 1, 0))),
        _vector(5, (1, (0, 2, 0, 0, 0), (0, 0, 1, 0, 0))),
        _vector(5, (1, (1, 1, 0, 0, 0), (0, 0, 0, 0, 1))),
        _vector(5, (1, (1, 1, 0, 0, 0), (0, 0, 0, 1, 0))),
        _vector(5, (1, (1, 1, 0, 0, 0), (0, 0, 1, 0, 0))),
        _vector(5, (1, (2, 0, 0, 0, 0), (0, 0, 0, 0, 1))),
        _vector(5, (1, (2, 0, 0, 0, 0), (0, 0, 0, 1, 0))),
        _vector(5, (1, (2, 0, 0, 0, 0), (0, 0, 1, 0, 0))),
    ],
    # product-skew: (x_p y_q - x_q y_p) for p < q in J1, times x3, x2, x1
    (5, 3, 3, -2, 1): [
        _vector(5, (1, (1, 0, 1, 0, 0), (0, 1, 0, 0, 0)), (-1, (0, 1, 1, 0, 0), (1, 0, 0, 0, 0))),
        _vector(5, (1, (1, 1, 0, 0, 0), (0, 1, 0, 0, 0)), (-1, (0, 2, 0, 0, 0), (1, 0, 0, 0, 0))),
        _vector(5, (1, (2, 0, 0, 0, 0), (0, 1, 0, 0, 0)), (-1, (1, 1, 0, 0, 0), (1, 0, 0, 0, 0))),
        _vector(5, (1, (1, 0, 1, 0, 0), (0, 0, 1, 0, 0)), (-1, (0, 0, 2, 0, 0), (1, 0, 0, 0, 0))),
        _vector(5, (1, (1, 1, 0, 0, 0), (0, 0, 1, 0, 0)), (-1, (0, 1, 1, 0, 0), (1, 0, 0, 0, 0))),
        _vector(5, (1, (2, 0, 0, 0, 0), (0, 0, 1, 0, 0)), (-1, (1, 0, 1, 0, 0), (1, 0, 0, 0, 0))),
        _vector(5, (1, (0, 1, 1, 0, 0), (0, 0, 1, 0, 0)), (-1, (0, 0, 2, 0, 0), (0, 1, 0, 0, 0))),
        _vector(5, (1, (0, 2, 0, 0, 0), (0, 0, 1, 0, 0)), (-1, (0, 1, 1, 0, 0), (0, 1, 0, 0, 0))),
        _vector(5, (1, (1, 1, 0, 0, 0), (0, 0, 1, 0, 0)), (-1, (1, 0, 1, 0, 0), (0, 1, 0, 0, 0))),
    ],
    # its x/y mirror, x_i <-> y_{6-i}
    (5, 2, 2, 1, -2): [
        _vector(5, (1, (0, 0, 0, 1, 0), (0, 0, 1, 0, 1)), (-1, (0, 0, 0, 0, 1), (0, 0, 1, 1, 0))),
        _vector(5, (1, (0, 0, 0, 1, 0), (0, 0, 0, 1, 1)), (-1, (0, 0, 0, 0, 1), (0, 0, 0, 2, 0))),
        _vector(5, (1, (0, 0, 0, 1, 0), (0, 0, 0, 0, 2)), (-1, (0, 0, 0, 0, 1), (0, 0, 0, 1, 1))),
        _vector(5, (1, (0, 0, 1, 0, 0), (0, 0, 1, 0, 1)), (-1, (0, 0, 0, 0, 1), (0, 0, 2, 0, 0))),
        _vector(5, (1, (0, 0, 1, 0, 0), (0, 0, 0, 1, 1)), (-1, (0, 0, 0, 0, 1), (0, 0, 1, 1, 0))),
        _vector(5, (1, (0, 0, 1, 0, 0), (0, 0, 0, 0, 2)), (-1, (0, 0, 0, 0, 1), (0, 0, 1, 0, 1))),
        _vector(5, (1, (0, 0, 1, 0, 0), (0, 0, 1, 1, 0)), (-1, (0, 0, 0, 1, 0), (0, 0, 2, 0, 0))),
        _vector(5, (1, (0, 0, 1, 0, 0), (0, 0, 0, 2, 0)), (-1, (0, 0, 0, 1, 0), (0, 0, 1, 1, 0))),
        _vector(5, (1, (0, 0, 1, 0, 0), (0, 0, 0, 1, 1)), (-1, (0, 0, 0, 1, 0), (0, 0, 1, 0, 1))),
    ],
}


@pytest.mark.parametrize("params", sorted(_BASE_VECTORS), ids=str)
def test_base_space_vectors_are_pinned(params):
    cfg = Config(*params)
    assert [v.terms for v in base_space_vectors(cfg)] == _BASE_VECTORS[params]


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
    single = FiltrationTower(CFG, "explicit", [tower.levels[0]], WHOLE)
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


def _fraction_chain_identity(cfg, variant, k, aux, i1_idx, i3_idx, v0):
    """The ladder identity in Fractions, the oracle of the integer route:
    sign k!/c! T(v0 m) against the chain applied to v0 m'."""
    side, n_i1, _n_i3, c, s = LADDER_VARIANTS[variant](k, aux)
    sp, mid = cfg.space, cfg.n1 + 1
    var = sp.x if side == "x" else sp.y

    def mono(indices):
        return Poly.monomial(sp, sum(sp.unit[var(i)] for i in indices))

    lhs = project_T(cfg, v0 * mono([*i1_idx, *i3_idx] + [mid] * c)).scale(
        Fraction((-1) ** n_i1 * factorial(k), factorial(c))
    )
    lowerings = [(mid, i) for i in i1_idx]
    raisings = [(j, mid) for j in i3_idx]
    ops = raisings[::-1] + lowerings if side == "x" else lowerings + raisings
    return lhs == filtration._apply_chain(cfg, ops, v0 * mono([mid] * s))


def _ladder_cases(cfg, kmax, v0s):
    """Every case ``suite.check_ladder_identities`` checks, for these v0s."""
    for k in range(kmax + 1):
        for aux in range(k + 1):
            for v0 in v0s:
                for variant, shape in LADDER_VARIANTS.items():
                    _, n1len, n3len, _, _ = shape(k, aux)
                    for i1s in itertools.product(cfg.J1, repeat=n1len):
                        for i3s in itertools.product(cfg.J3, repeat=n3len):
                            yield variant, k, aux, list(i1s), list(i3s), v0


def test_ladder_integer_route_agrees_with_fractions_on_the_suite_cases():
    cfg = Config(4, 1, 3)
    cases = list(_ladder_cases(cfg, 3, suite._ladder_v0_choices(cfg)))
    assert len(cases) == 560
    assert suite.check_ladder_identities((4, 1, 3), 3).payload["checked"] == 560
    for case in cases:
        assert operator_chain_identity(cfg, *case) == _fraction_chain_identity(cfg, *case)
        assert operator_chain_identity(cfg, *case)


def test_ladder_integer_route_clears_the_denominators_of_v0():
    cfg = Config(4, 1, 3)
    sp = cfg.space
    a, b = parse_poly(sp, "x1*y4"), parse_poly(sp, "y3")
    v0s = [a.scale(3), a.scale(3) + b.scale(Fraction(2, 3)), b.scale(Fraction(-5, 4))]
    checked = 0
    for case in _ladder_cases(cfg, 2, v0s):
        assert operator_chain_identity(cfg, *case)
        assert _fraction_chain_identity(cfg, *case)
        checked += 1
    assert checked == 3 * 24


def test_ladder_integer_route_refuses_a_flipped_sign(monkeypatch):
    cfg = Config(4, 1, 3)
    sp = cfg.space
    v0 = parse_poly(sp, "y3").scale(Fraction(2, 3)) + parse_poly(sp, "x1")
    case = ("x", 2, 1, [1, 1], [4], v0)
    assert operator_chain_identity(cfg, *case)
    apply_chain = filtration._apply_chain
    monkeypatch.setattr(
        filtration, "_apply_chain", lambda cfg, ops, v: -apply_chain(cfg, ops, v)
    )
    # both sides are nonzero: the chain E_42 E_21 E_21 of the case moves v0
    assert not filtration._apply_chain(cfg, [(4, 2), (2, 1), (2, 1)], v0).is_zero()
    assert not operator_chain_identity(cfg, *case)
    assert not _fraction_chain_identity(cfg, *case)


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


@pytest.mark.parametrize("params, kmax", [((4, 2, 2, -1, -1), 7), ((5, 2, 3, -1, -1), 3)], ids=str)
def test_tower_dump_renders_every_canonical_row(params, kmax):
    # each distinct row is rendered once; the text is that of every row
    tower = build_tower(Config(*params), kmax)
    per_row = [[row.render() for row in basis.sorted_rows()] for basis in tower.levels]
    assert tower_to_dict(tower)["levels"] == per_row


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
        skipped = explicit.levels[:1] + explicit.levels[2:]
        towers.append(FiltrationTower(cfg, "explicit", skipped, Weights.ungraded(cfg, cfg.space)))
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
    """Clear the per-layout Weyl forms, the applier tables packed from them
    and the certificates around a test that patches what they are read
    from."""
    caches = [
        _weyl_tables,
        osc.weyl_forms,
        osc._laplacian_forms,
        applier_is_representation,
        osc.block_permutations_commute,
        osc.mirror_commutes,
        filtration._generator_shifts,
    ]
    for cached in caches:
        cached.cache_clear()
    yield
    for cached in caches:
        cached.cache_clear()


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
    # the Weyl forms of the Cartan generators, and the tables packed from
    # them, carry the wrong constant: the brackets whose result holds h_r
    # refuse it
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
    forms = osc.weyl_forms(n, n1, n2)
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
        osc.weyl_forms.cache_clear()
        applier_is_representation.cache_clear()
        osc.block_permutations_commute.cache_clear()  # read by the certificate
        verdict = applier_is_representation(*layout)
        assert verdict == _all_pairs_certificate(*layout), layout
        verdicts.add(verdict)
        if osc.block_transpositions(*layout) and osc.block_permutations_commute(*layout):
            by_orbit.add(verdict)  # decided once per orbit
    assert False in verdicts and False in by_orbit


@pytest.mark.parametrize("cell", [None] + sorted(osc._BLOCK), ids=str)
def test_skipped_chevalley_pairs_have_zero_defect(monkeypatch, fresh_caches, cell):
    # a pair that commutes in sl(n) and whose forms touch disjoint positions
    # is skipped; every skipped defect is zero and the verdict is that of
    # every pair, n <= 8, and n <= 6 with a flipped cell
    if cell is not None:
        c, da, db = osc._BLOCK[cell]
        monkeypatch.setitem(osc._BLOCK, cell, (-c, da, db))
    verdicts = set()
    for layout in _layouts(8 if cell is None else 6):
        cfg = Config(*layout)
        forms = osc.weyl_forms(*layout)
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
        forms = osc.weyl_forms(8, 2, 6)
        assert sum(1 for _ in osc._checked_pairs(cfg, forms, _chevalley_pairs(8))) == 357


def test_orbit_certificate_matches_the_full_path():
    # every layout with n <= 8 passes the relabelling check, and the
    # verdict once per orbit is that of every Chevalley pair
    for layout in _layouts(8):
        cfg = Config(*layout)
        forms = osc.weyl_forms(*layout)
        assert osc.block_permutations_commute(*layout), layout
        full = osc._brackets_hold(cfg, forms, _chevalley_pairs(cfg.n))
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
        forms = osc.weyl_forms(*layout)
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
    forms = osc.weyl_forms(*layout)
    assert not osc.block_permutations_commute(*layout)
    assert not applier_is_representation(*layout)
    assert not _all_pairs_certificate(*layout)
    return osc._certified(cfg, forms, True)


def _extra_form_term(layout, g, key):
    """Add the Weyl monomial ``key`` = (v, d) to the cached form of g; the
    tables and certificates built after it read the changed form
    (``fresh_caches`` clears them around the test)."""
    add_term(osc.weyl_forms(*layout)[g], key, 1)


def test_relabelling_check_sees_an_extra_term_on_a_non_representative_root(fresh_caches):
    # x2 d_{x4} added to the form of E_21, no orbit representative: the
    # relabelling (1 2) refuses it, and so do the brackets of E_21 with
    # the representatives that fix 1 and 2
    cfg = Config(4, 2, 2)
    sp, g = cfg.space, ("e", 2, 1)
    assert g not in osc._orbit_roots(osc._blocks(cfg))
    _extra_form_term((4, 2, 2), g, (sp.unit[sp.x(2)], sp.unit[sp.x(4)]))
    assert not _symmetry_broken((4, 2, 2))


def test_relabelling_check_sees_a_negated_non_representative_root(monkeypatch, fresh_caches):
    # E_24 negated in its form, and so in its table: the relabelling (1 2)
    # takes E_14 to E_24 and its form to minus E_24's
    pi_terms = osc._pi_terms

    def negated(sp, n1, n2, i, j):
        terms = pi_terms(sp, n1, n2, i, j)
        return tuple((-c, *rest) for c, *rest in terms) if (i, j) == (2, 4) else terms

    monkeypatch.setattr(osc, "_pi_terms", negated)
    assert ("e", 2, 4) not in osc._orbit_roots(osc._blocks(Config(5, 2, 3)))
    _symmetry_broken((5, 2, 3))


def test_relabelling_check_sees_a_perturbed_cartan_form(fresh_caches):
    # a constant added to h_1's form, and so to its table: (1 2) takes h_1
    # to -h_1, and the constant to itself
    _extra_form_term((5, 2, 3), ("h", 1), (0, 0))
    assert osc.weyl_forms(5, 2, 3)["h", 1][0, 0] == 1
    assert Config(5, 2, 3).cartan_tables[1][0] == 1
    _symmetry_broken((5, 2, 3))


def _mirror_conjugates_every_generator(n, n1, n2):
    """The oracle for ``osc.mirror_commutes``: M pi(g) M = pi(theta(g))
    for every generator g, applied to every monomial of degree <= 2, with
    theta(g) read off g's matrix, E_ab -> -E_{n+1-b, n+1-a}."""
    cfg = Config(n, n1, n2)
    sp = cfg.space
    swap = osc.relabellings(n, mirror=True)[0].swap(sp)
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
        # E_14 negated in its form, and so in its table: M takes it to
        # -E_25 (at n = 5), whose form is not negated
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
        osc.weyl_forms.cache_clear()
        osc.mirror_commutes.cache_clear()
        assert osc.mirror_commutes(*layout) == _mirror_conjugates_every_generator(*layout), layout
    if table == "root":
        assert not osc.mirror_commutes(5, 2, 3)


def _reads(ops):
    """The shifts an ``osc._apply_ops`` table reads."""
    return [s for _c, fp, fq, _d in ops[1] for s in (fp, fq) if s >= 0]


def _tables(cfg):
    """Every applier table of ``cfg``'s layout, by name, as (the Weyl form
    it is packed from, the shifts it reads, a function applying it to a
    term dict): each root and h_r by generator, each Laplacian by the
    middle index its T-series omits, and the lift."""
    n, n1, n2 = cfg.n, cfg.n1, cfg.n2
    roots, laplacians, lift = cfg.weyl_tables
    out = {}
    for g, form in osc.weyl_forms(n, n1, n2).items():
        if g[0] == "h":
            reads = [s for s, _k in cfg.cartan_tables[g[1]][1]]
            out[g] = form, reads, functools.partial(osc._cartan_terms, cfg, g[1])
        else:
            out[g] = form, _reads(roots[g]), functools.partial(osc._apply_ops, roots[g])
    laplacian_forms, lift_form = osc._laplacian_forms(n, n1, n2)
    for skip, form in laplacian_forms.items():
        ops = laplacians[skip]
        out["laplacian", skip] = form, _reads(ops), functools.partial(osc._apply_ops, ops)
    if lift is not None:
        out["lift"] = lift_form, _reads(lift), functools.partial(osc._apply_ops, lift)
    return out


def _touched_monomials(sp, form, reads):
    """The monomials of degree <= 2 on the positions P that the form's
    terms touch or its table ``reads``.  Where the table applies a Weyl
    element of derivative order <= 2, its difference with the form is
    supported on P and, if nonzero, nonzero on x^b for a minimal
    derivative d^b among its terms: a monomial of this list."""
    unit = 1 << sp.dshift
    touched = osc._form_support(sp, list(form) + [((1 << s) | unit,) * 2 for s in reads])
    units = [u for u, s in zip(sp.unit, sp.shift) if touched >> s & 1]
    return [
        sum(combo) for k in range(3) for combo in itertools.combinations_with_replacement(units, k)
    ]


def _sampled_agreement(cfg):
    """The names of the ``_tables`` that do not act as their forms: each
    applied by its table and by ``osc.apply_weyl`` of its form, an
    interpreter of its own, to every ``_touched_monomials``."""
    sp = cfg.space
    out = []
    for name, (form, reads, apply) in _tables(cfg).items():
        action = osc.weyl_action(sp, form)
        for m in _touched_monomials(sp, form, reads):
            if apply({m: 1}) != osc.apply_weyl(action, {m: 1}):
                out.append(name)
                break
    return out


def test_agreement_reads_the_positions_from_the_packed_terms(fresh_caches):
    # d_{x4} times x2 on E_13's table, behind its form: zero on every
    # monomial in x1, x3, y1, y3, but the read of x4 brings x4 into the
    # sampled monomials
    cfg = Config(4, 2, 2)
    sp, g = cfg.space, ("e", 1, 3)
    form, reads, _apply = _tables(cfg)[g]
    own = _touched_monomials(sp, form, reads)
    assert len(own) == 15 and sp.unit[sp.x(4)] not in own
    assert _sampled_agreement(cfg) == []
    roots = cfg.weyl_tables[0]
    ceiling, packed = roots[g]
    roots[g] = ceiling, (*packed, (1, sp.shift[sp.x(4)], -1, sp.unit[sp.x(2)] - sp.unit[sp.x(4)]))
    form, reads, _apply = _tables(cfg)[g]
    assert sp.unit[sp.x(4)] in _touched_monomials(sp, form, reads)
    assert _sampled_agreement(cfg) == [g]


def test_agreement_reads_the_cartan_positions_from_its_table(monkeypatch):
    # h_2 reads x2, y2, x3, y3 off its table, and its form touches no other;
    # a read of x1 in the table, which the form lacks, brings x1 into the
    # sampled monomials
    cfg = Config(4, 2, 2)
    sp, g = cfg.space, ("h", 2)
    form, reads, _apply = _tables(cfg)[g]
    assert sorted(reads) == sorted(sp.shift[p] for p in (sp.x(2), sp.y(2), sp.x(3), sp.y(3)))
    own = _touched_monomials(sp, form, reads)
    assert len(own) == 15 and sp.unit[sp.x(1)] not in own
    table = osc._cartan_table

    def misread(cfg, r):
        const, reads = table(cfg, r)
        return (const, reads + ((sp.shift[sp.x(1)], 1),)) if r == 2 else (const, reads)

    monkeypatch.setattr(osc, "_cartan_table", misread)
    wrong = Config(4, 2, 2)
    form, reads, _apply = _tables(wrong)[g]
    assert sp.unit[sp.x(1)] in _touched_monomials(sp, form, reads)
    assert _sampled_agreement(wrong) == [g]


def test_chevalley_brackets_reject_a_wrong_non_simple_root(monkeypatch, fresh_caches):
    # E_13 negated in its form, and so in its table: the relation
    # [E_12, E_23] = E_13 does not hold
    pi_terms = osc._pi_terms

    def negated(sp, n1, n2, i, j):
        terms = pi_terms(sp, n1, n2, i, j)
        if (i, j) == (1, 3):
            return tuple((-c, *rest) for c, *rest in terms)
        return terms

    monkeypatch.setattr(osc, "_pi_terms", negated)
    cfg = Config(4, 1, 3)
    forms = osc.weyl_forms(4, 1, 3)
    assert not osc._brackets_hold(cfg, forms, _chevalley_pairs(4))
    assert not applier_is_representation(4, 1, 3)
    assert not _all_pairs_certificate(4, 1, 3)


@pytest.mark.parametrize("layout", [(2, 1, 1), (3, 1, 2)], ids=str)
def test_chevalley_brackets_reject_a_constant_on_any_root(fresh_caches, layout):
    # a constant added to the form of pi(E_ij), and so to its table,
    # commutes with every operator: only the brackets whose result holds
    # E_ij see it, such as [E_21, h_1] at n = 2, or [E_21, E_32] = -E_31
    for g in generators(layout[0]):
        if g[0] == "h":
            continue
        for cached in (osc.weyl_forms, _weyl_tables, applier_is_representation,
                       osc.block_permutations_commute):  # the last read by the certificate
            cached.cache_clear()
        _extra_form_term(layout, g, (0, 0))
        assert not applier_is_representation(*layout), g
        assert not _all_pairs_certificate(*layout), g


def test_applier_certificate_matches_the_sampled_oracle():
    # the certificate decides the Weyl forms, and every table is packed
    # from its form: on every layout with n <= 8, every root, h_r, both
    # Laplacians and the lift act as ``apply_weyl`` of the form, so the
    # verdict is the applier's
    for layout in _layouts(8):
        cfg = Config(*layout)
        assert applier_is_representation(*layout), layout
        assert _sampled_agreement(cfg) == [], layout


@pytest.mark.parametrize("table, key", _CORRUPTIONS, ids=str)
def test_applier_certificate_matches_the_sampled_oracle_on_corrupted_tables(
    monkeypatch, fresh_caches, table, key
):
    # a corrupted cell or constant reaches the forms, and the tables packed
    # from them follow it: each still acts as its form, so the refusals of
    # the certificate, decided on the forms, are the applier's
    cells = getattr(osc, table)
    if table == "_BLOCK":
        c, da, db = cells[key]
        monkeypatch.setitem(cells, key, (-c, da, db))
    else:
        monkeypatch.setitem(cells, key, 1 + cells[key])
    verdicts = set()
    for layout in _layouts(5):
        assert _sampled_agreement(Config(*layout)) == [], layout
        verdicts.add(applier_is_representation(*layout))
    assert False in verdicts


def test_packer_refuses_a_term_its_table_cannot_hold(fresh_caches):
    sp = xy_space(3)
    x1, x2, x3 = (sp.unit[sp.x(i)] for i in (1, 2, 3))
    s1, s2 = sp.shift[sp.x(1)], sp.shift[sp.x(2)]
    assert osc._packed(sp, {(x3, x1 + x2): 2}) == (None, ((2, s1, s2, x3 - x1 - x2),))
    ceiling = (DEGREE_LIMIT - 2) << sp.dshift
    assert osc._packed(sp, {(x1 + x2, 0): -1, (0, 0): 3}) == (
        ceiling, ((-1, -1, -1, x1 + x2), (3, -1, -1, 0))
    )
    # d_p^2 would be read as e^2, not e(e - 1), and a table term reads two
    # positions at most
    for d in (2 * x1, x1 + x2 + x3, 2 * x1 + x2):
        with pytest.raises(ValueError, match="differentiates"):
            osc._packed(sp, {(x3, d): 1})
    # A table term that shifts a position it does not read (a "borrowing
    # shift") or moves one field into another (a "borrowed field") cannot
    # come from a form: v and d are packed monomials, nonnegative in every
    # field, and the delta v - d lowers only the positions d differentiates,
    # which the term reads.
    # h_r's table holds a constant and k v_p d_p terms alone
    _extra_form_term((3, 1, 2), ("h", 1), (x1, x2))
    with pytest.raises(ValueError, match="h_1 has a term"):
        Config(3, 1, 2).cartan_tables


def test_t_series_tables_are_the_packed_projection_forms():
    # T applies the tables packed from the very forms the tower's
    # relabellings are certified on (``filtration._orbit_generators``)
    layouts = [(n, n1, n2) for n, n1, n2 in _layouts(8) if n1 < n2]
    for n, n1, n2 in layouts:
        cfg = Config(n, n1, n2)
        reduced, lift = filtration.projection_forms(cfg)
        assert reduced is osc._laplacian_forms(n, n1, n2)[0][n1 + 1]
        _roots, laplacians, lift_table = cfg.weyl_tables
        assert laplacians[n1 + 1] == osc._packed(cfg.space, reduced)
        assert lift_table == osc._packed(cfg.space, lift)
    assert len(layouts) == 84


def test_a_perturbed_reduced_laplacian_form_moves_the_t_series_and_its_certificate(
    monkeypatch, fresh_caches
):
    # x1 d_{y1} doubled in the reduced Laplacian's form: T(y1) lifts twice
    # the x1, and the transposition (1 2) and the mirror no longer fix the
    # form
    cfg = Config(5, 2, 3, -1, -1)
    sp = cfg.space
    y1, lifted = sp.unit[sp.y(1)], sp.unit[sp.x(1)] + sp.unit[sp.x(3)] + sp.unit[sp.y(3)]
    assert project_T_monomial(cfg, y1).terms == {y1: 1, lifted: 1}
    assert _orbits(cfg, 4) == ([1, 4], True)
    laplacian_terms = osc._laplacian_terms

    def doubled(sp, n1, n2, skip=None):
        (c, *first), *rest = laplacian_terms(sp, n1, n2, skip)
        return [(2 * c if skip else c, *first), *rest]

    monkeypatch.setattr(osc, "_laplacian_terms", doubled)
    osc._laplacian_forms.cache_clear()
    _weyl_tables.cache_clear()
    cfg = Config(5, 2, 3, -1, -1)
    assert project_T_monomial(cfg, y1).terms == {y1: 1, lifted: 2}
    assert _orbits(cfg, 4) == ([4], False)


def test_a_doubled_reduced_laplacian_term_fails_the_harmonicity_check(
    monkeypatch, fresh_caches
):
    # the first term of each reduced Laplacian table doubled: T no longer
    # lands in the kernel of the Laplacian, and the integer numerators the
    # check reads show it
    layouts = [(3, 1, 2, -1, -1), (4, 1, 3, -1, -1), (4, 1, 3, -1, 1)]
    assert suite.check_harmonicity(layouts, 6).status == "pass"
    laplacian_terms = osc._laplacian_terms

    def doubled(sp, n1, n2, skip=None):
        (c, *first), *rest = laplacian_terms(sp, n1, n2, skip)
        return [(2 * c if skip else c, *first), *rest]

    monkeypatch.setattr(osc, "_laplacian_terms", doubled)
    osc._laplacian_forms.cache_clear()
    _weyl_tables.cache_clear()
    rec = suite.check_harmonicity(layouts, 6)
    assert rec.status == "fail" and rec.payload["failures"] > 0


def test_applier_certificate_verdicts_are_pinned():
    layouts = _layouts(8)
    assert len(layouts) == 119
    verdicts = {
        layout: (
            applier_is_representation(*layout),
            osc.block_permutations_commute(*layout),
            osc.mirror_commutes(*layout),
        )
        for layout in layouts + [(18, 6, 12)]
    }
    assert sum(v[0] for layout, v in verdicts.items() if layout in layouts) == 119
    assert sum(v[1] for layout, v in verdicts.items() if layout in layouts) == 119
    assert {layout for layout in layouts if verdicts[layout][2]} == {
        (n, n1, n2) for n, n1, n2 in layouts if n1 + n2 == n
    }
    assert sum(v[2] for layout, v in verdicts.items() if layout in layouts) == 16
    assert verdicts[18, 6, 12] == (True, True, True)


def _mutate(layout, kind):
    """Corrupt one cached Weyl form of ``layout``; the tables are packed
    from it when they are first built after."""
    forms = osc.weyl_forms(*layout)
    sp = xy_space(layout[0])
    if kind == "root coefficient":
        form = forms["e", 1, 3]
        key = next(iter(form))
        form[key] *= 2
    elif kind == "cartan constant":
        _extra_form_term(layout, ("h", 1), (0, 0))
    elif kind == "repeated derivative":
        # x_1 d_{x_1}^2, which no table can hold
        unit = sp.unit[sp.x(1)]
        _extra_form_term(layout, ("e", 1, 3), (unit, 2 * unit))
    else:  # swapped roots: E_12 and E_21 trade forms
        forms["e", 1, 2], forms["e", 2, 1] = forms["e", 2, 1], forms["e", 1, 2]


@pytest.mark.parametrize(
    "kind", ["root coefficient", "cartan constant", "repeated derivative", "swapped roots"]
)
def test_applier_certificate_refuses_each_mutation(fresh_caches, kind):
    # (5,2,3) has the block transpositions (1 2), (4 5) and the mirror; a
    # mutated form reaches the table packed from it, and the brackets
    # refuse it
    layout = (5, 2, 3)
    _mutate(layout, kind)
    cfg, forms = Config(*layout), osc.weyl_forms(*layout)
    assert not osc._brackets_hold(cfg, forms, _chevalley_pairs(cfg.n))
    assert not applier_is_representation(*layout)
    assert not osc.mirror_commutes(*layout)
    # (1 2) carries the swap of E_12 and E_21 onto itself, and no other
    # mutation
    assert osc.block_permutations_commute(*layout) is (kind == "swapped roots")
    if kind == "repeated derivative":
        with pytest.raises(ValueError, match="differentiates a position twice"):
            cfg.weyl_tables
        return
    assert _sampled_agreement(cfg) == []
    assert not _all_pairs_certificate(*layout)


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
    assert not FiltrationTower(CFG, "explicit", [low, high], WHOLE).check_nested()
    # the same row as a fresh dict is found by reduction
    high.insert(P("y3"))
    assert high.rows[missing] is not low.rows[missing]
    assert FiltrationTower(CFG, "explicit", [low, high], WHOLE).check_nested()


def _whole_payload(cfg, kmax, brute=None, whole=None):
    """``compare_towers`` from the whole levels, each pair by
    ``span_equal`` and nesting by ``contains_span``: the oracle.  ``brute``
    is the whole brute-force tower and ``whole`` the whole explicit one,
    where the caller built them."""
    if brute is None:
        brute = build_tower(cfg, kmax, "bruteforce")
    if whole is None:
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
@example((Config(5, 2, 3, -1, -1), 6))
@example((Config(7, 3, 4, -1, -1), 4))
def test_representative_weights_match_the_whole_build(cfg_kmax):
    cfg, kmax = cfg_kmax
    tower = build_tower(cfg, kmax, "explicit")
    # the levels read from a tower, the whole build: the one whole explicit
    # tower this test builds, and the one whole brute-force tower
    whole = FiltrationTower(cfg, tower.method, tower.levels, Weights.ungraded(cfg, cfg.space))
    brute = build_tower(cfg, kmax, "bruteforce")
    oracle = _whole_payload(cfg, kmax, brute, whole)
    assert tower.dims == [b.dim for b in whole.levels]
    assert tower.check_nested() == all(
        whole.levels[k + 1].contains_span(whole.levels[k]) for k in range(kmax)
    )
    assert compare_towers(cfg, kmax) == oracle
    weights = tower.weights
    if weights.orbits:
        # the levels read from the tower are whole: at the representative
        # weights they span what the representative rows span.  Each of
        # those rows carries its pivot's weight
        for level, full in zip(tower.built, whole.levels):
            keeps = weights.is_representative
            kept = [row for piv, row in full.rows.items() if keeps(weights.of(piv))]
            assert span_equal(level, echelon_from(cfg.space, kept))
        assert all(weights.of(piv) == w for piv, w in tower.row_weights.items())
        # every representative row is a weight vector of a representative
        # weight, and no weight of another orbit is built
        for level in tower.built:
            for row in level.rows.values():
                w = weights.homogeneous(row)
                assert w is not None and weights.is_representative(w)
        # the brute-force levels at the weights that reach a representative
        # one: at every level, the rows at each kept weight are the whole
        # build's, pivot for pivot and dict for dict, in order
        cone = filtration._bruteforce_tower(cfg, kmax, weights)
        assert cone.weights is weights
        assert all(weights.of(piv) == w for piv, w in cone.row_weights.items())
        for k in range(kmax + 1):
            keeps = filtration._cone_keeps(weights, kmax, k)

            def kept(level):
                return [(piv, row) for piv, row in level.rows.items() if keeps(weights.of(piv))]

            assert kept(cone.built[k]) == kept(brute.levels[k])
        # and the levels read from it are the whole brute-force levels: the
        # one-block build of its depth, which ``build_tower`` made as brute
        assert _one_block(brute.weights)
        calls = []

        def whole_build(c, k, w):
            calls.append((c, k, _one_block(w)))
            return brute

        with mock.patch.object(filtration, "_bruteforce_tower", whole_build):
            assert cone.levels is brute.levels
        assert calls == [(cfg, kmax, True)]


def _orbits(cfg, kmax, cache=None):
    """The transpositions and the mirror verdict of the relabellings the
    explicit tower to depth kmax is built with."""
    found = _orbit_generators(cfg, kmax, _explicit_cache(cfg) if cache is None else cache)
    weights = Weights(cfg, cfg.space, found)
    return list(weights.transpositions), weights.mirror


@pytest.mark.parametrize("params, admitted", [
    ((4, 1, 3, -1, 1), []),  # J1, J3 singletons; (2 3) moves n1+1
    ((5, 1, 4, -1, -1), [3]),
    ((5, 2, 3, -1, -1), [1, 4]),
    ((4, 3, 4, 1, 1), [1, 2]),
    ((4, 2, 2, -1, -1), [1, 3]),
], ids=str)
def test_admitted_transpositions_are_pinned(params, admitted):
    cfg = Config(*params)
    assert _orbits(cfg, 3)[0] == admitted
    tower = build_tower(cfg, 3, "explicit")
    if admitted:
        assert tower.weights.transpositions == tuple(admitted)
    else:
        assert _one_block(tower.weights)


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
    assert _orbits(cfg, 4) == (admitted, mirror)
    weights = build_tower(cfg, 3, "explicit").weights
    assert (weights is not None and weights.mirror) == mirror
    # every layout with n1 + n2 = n conjugates the applier by the mirror
    assert osc.mirror_commutes(*params[:3]) == (params[1] + params[2] == params[0])


def test_mirror_needs_transpositions_closed_under_reflection():
    # at n = 5 the mirror conjugates (1 2) to (4 5): with one of them
    # alone, or with (2 3) and not (3 4), the mirror is refused
    for kept, mirror in [([1, 4], True), ([1], False), ([4], False), ([2], False), ([2, 3], True)]:
        candidates = osc.relabellings(5, kept, mirror=True)
        found = osc.admitted(candidates)
        assert [s.transposition for s in found if not s.mirror] == kept
        assert any(s.mirror for s in found) == mirror, kept
    # the x/y swap, which fixes the indices, is kept with any of them
    swap = osc.Relabelling(5, {}, flip=True)
    assert osc.admitted(osc.relabellings(5, [1]) + [swap])[-1] is swap


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
    assert _orbits(cfg, 4) == ([1, 4], False)
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
    mirrored = Weights(cfg, sp, osc.relabellings(6, [1, 2, 4, 5], mirror=True))
    alone = Weights(cfg, sp, osc.relabellings(6, mirror=True))
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
    swap = osc.relabellings(6, mirror=True)[0].swap(sp)
    for u in sp.unit:
        assert mirrored.mirrored(plain.of(u)) == plain.of(swap(u)) != plain.of(u)
    # relabellings by permutations alone are refused
    with pytest.raises(ValueError):
        mirrored.sorter(plain.of(sp.unit[0]))
    with pytest.raises(ValueError):
        mirrored.order_type([1], [2])


def test_representative_sums_match_the_pairwise_test():
    # sums of the weights of the monomials of degree <= 2, and of some of
    # degree 200 with gaps up to 400, under the transpositions with and
    # without the mirror
    for cfg, transpositions in (
        (Config(6, 3, 3), [1, 2, 4, 5]),
        (Config(7, 3, 4), [1, 2, 5, 6]),
        (Config(5, 2, 3), [1]),
    ):
        sp = cfg.space
        plain = Weights(cfg, sp)
        ws = sorted({plain.of(m) for m in monomials(sp, range(3))})
        far = [sp.pack([200 if p == q else 0 for p in range(sp.nvars)]) for q in range(sp.nvars)]
        left = [(w, i) for i, w in enumerate(ws + [plain.of(m) for m in far])]
        right = [(w, -i) for i, w in enumerate(ws[::3] + [plain.of(m) for m in far[::2]])]
        for mirror in (False, True):
            weights = Weights(cfg, sp, osc.relabellings(cfg.n, transpositions, mirror))
            want = [
                (wa + wb, a, b)
                for wa, a in left
                for wb, b in right
                if weights.is_representative(wa + wb)
            ]
            assert want and list(weights.representative_sums(left, right)) == want


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


def test_brute_force_rows_at_the_weights_that_reach_a_representative_are_pinned():
    cfg = Config(5, 2, 3, -1, -1)
    tower = build_tower(cfg, 6, "explicit")
    cone = filtration._bruteforce_tower(cfg, 6, tower.weights)
    assert [level.dim for level in cone.built] == [4, 31, 136, 444, 1141, 2184, 2699]
    # the whole top level has 6,072 rows
    assert cone.dims == tower.dims and cone.dims[6] == 6072


def test_each_root_moves_the_weight_by_its_own_root(fresh_caches):
    # E_ab by eps_a - eps_b, h_r by nothing; a term of another shift in the
    # form of one root leaves no shifts, and the brute-force tower is built
    # whole
    cfg = Config(5, 2, 3, -1, -1)
    weights = build_tower(cfg, 4, "explicit").weights
    for g, shift in zip(generators(5), filtration._generator_shifts(5, 2, 3)):
        want = [0] * 5
        if g[0] == "e":
            want[g[1] - 1] += 1
            want[g[2] - 1] -= 1
        assert weights.entries(shift) == want, g
    sp = cfg.space
    _extra_form_term((5, 2, 3), ("e", 1, 3), (sp.unit[sp.x(2)], sp.unit[sp.x(4)]))
    filtration._generator_shifts.cache_clear()
    assert filtration._generator_shifts(5, 2, 3) is None
    assert _one_block(filtration._bruteforce_tower(cfg, 4, weights).weights)


def test_a_base_that_loses_a_vector_gets_no_orbits(monkeypatch):
    # dropping x2*y4 from M_0 of (4,2,2,-1,-1): both transpositions map a
    # kept base vector onto it, so neither is admitted
    cfg = Config(4, 2, 2, -1, -1)
    real = filtration.base_space_vectors
    monkeypatch.setattr(filtration, "base_space_vectors", lambda *a: real(*a)[:-1])
    assert _orbits(cfg, 4) == ([], False)
    tower = build_tower(cfg, 4, "explicit")
    assert _one_block(tower.weights)
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
    assert _orbits(cfg, 4) == ([], False)
    assert build_tower(cfg, 4, "explicit").dims == [
        b.dim for b in build_tower(cfg, 4, whole=True).levels
    ]


def test_a_monomial_level_that_is_not_permuted_gets_no_orbit(monkeypatch):
    # dropping a cell of TN level 2 of (5,2,3,-1,-1) whose mirror image is
    # another cell: the transpositions still map every cell onto itself,
    # the mirror no longer maps level 2 onto itself
    cfg = Config(5, 2, 3, -1, -1)
    real = filtration.tn_cells

    def dropped(c, k):
        cells = real(c, k)
        if k == 2:
            cells.remove([cell for cell in cells if cell != cell[::-1]][-1])
        return cells

    monkeypatch.setattr(filtration, "tn_cells", dropped)
    cache = _explicit_cache(cfg)
    assert _orbits(cfg, 1, cache) == ([1, 4], True)
    assert _orbits(cfg, 2, cache) == ([1, 4], False)
    tower = build_tower(cfg, 3, "explicit")
    assert not tower.weights.mirror
    assert tower.dims == [b.dim for b in build_tower(cfg, 3, whole=True).levels]


def _cell_monomials(cfg, cells):
    return [set(osc.enumerate_block_sums(cfg, *cell)) for cell in cells]


@pytest.mark.parametrize("n", [3, 4, 5, 6])
def test_cell_certificate_admits_only_what_maps_each_level_onto_itself(n):
    # a transposition passes only where it maps every cell of the TN and
    # dprime levels 0..3 onto itself, and the mirror only where it maps
    # each level onto itself, on the layouts whose blocks it maps onto
    # blocks, n1 + n2 = n.  Neither is necessary: a level can be empty, or
    # mirrored while its cells are not, where it lies in cells with no
    # exclusion to move
    fixing, mirrored_layouts = set(), set()
    for n1 in range(1, n):
        for n2 in range(n1 + 1, n + 1):
            for l1, l2 in itertools.product(range(-2, 3), repeat=2):
                cfg = Config(n, n1, n2, l1, l2)
                regimes = ["T-cell"] + (["dprime"] if n2 == n and l1 > 0 and l2 > 0 else [])
                for regime in regimes:
                    levels = [
                        _cell_monomials(cfg, filtration._level_cells(cfg, j, regime))
                        for j in range(4)
                    ]
                    for i in range(1, n):
                        if filtration._fixes_cells(cfg, i):
                            swap = osc.relabellings(n, [i])[0].swap(cfg.space)
                            assert all(
                                {swap(m) for m in cell} == cell for level in levels for cell in level
                            ), (cfg, regime, i)
                            fixing.add(i)
                    if n1 + n2 != n:
                        continue
                    swap = osc.relabellings(n, mirror=True)[0].swap(cfg.space)
                    for kmax in range(4):
                        if filtration._mirrors_cells(cfg, kmax, regime):
                            whole = [set().union(*level) for level in levels[: kmax + 1]]
                            mirrored = all({swap(m) for m in level} == level for level in whole)
                            assert mirrored, (cfg, kmax)
                            mirrored_layouts.add(cfg)
    assert fixing >= set(range(1, n - 1))
    if n % 2:
        assert Config(n, n // 2, n // 2 + 1, -1, -1) in mirrored_layouts


def test_a_transposition_that_moves_n1_plus_1_is_refused_by_the_cells(monkeypatch):
    # with T-series forms that every relabelling fixes, (2 3) on
    # (5,1,4,-1,-1) maps the base vector and the quadratic onto themselves:
    # only the cells refuse it, as x3*y3 goes to the excluded x2*y2
    cfg = Config(5, 1, 4, -1, -1)
    monkeypatch.setattr(filtration, "projection_forms", lambda c: ({}, {}))
    assert _orbits(cfg, 3)[0] == [3]
    assert not filtration._fixes_cells(cfg, 2) and filtration._fixes_cells(cfg, 3)


def test_the_mirror_of_unequal_bidegrees_is_refused_by_the_cells(monkeypatch):
    # (5,2,3,-1,-2) with an empty base: the forms, the quadratics and the
    # weights admit the mirror, the cells of a level with l1 != l2 do not
    cfg = Config(5, 2, 3, -1, -2)
    monkeypatch.setattr(filtration, "base_space_vectors", lambda *a: [])
    assert _orbits(cfg, 0) == ([1, 4], False)
    equal = Config(5, 2, 3, -2, -2)
    assert _orbits(equal, 3) == ([1, 4], True)


def _cone_example(params, j, transpositions, mirror, bound):
    cfg = Config(*params)
    weights = Weights(cfg, cfg.space, osc.relabellings(cfg.n, transpositions, mirror))
    return cfg, osc.tn_cells(cfg, j), weights, bound


def _cell_oracle(cfg, cell) -> list:
    """The monomials of one cell of ``osc.enumerate_block_sums``, in
    increasing order: the products of one monomial of each block's x and y
    variables, of the cell's block sums (``poly.monomials`` of those
    variables), less those with both x and y at n1+1 where J2 is not
    empty."""
    if min(cell) < 0:
        return []
    sp, n, n1, n2 = cfg.space, cfg.n, cfg.n1, cfg.n2
    blocks = [range(1, n1 + 1), range(n1 + 1, n2 + 1), range(n2 + 1, n + 1)]
    parts = [
        list(monomials(SimpleNamespace(unit=[sp.unit[var(i)] for i in block]), (d,)))
        for var, block, d in zip([sp.x] * 3 + [sp.y] * 3, blocks * 2, cell)
    ]
    out = []
    for combo in itertools.product(*parts):
        m = sum(combo)
        e = sp.unpack(m)
        if not (n1 < n2 and e[sp.x(n1 + 1)] and e[sp.y(n1 + 1)]):
            out.append(m)
    return sorted(out)


@st.composite
def cone_inputs(draw):
    """(cfg, cells, weights, bound): the cells of a TN or dprime level of a
    layout with n <= 7, weights of a set of block transpositions, with or
    without the mirror, and a bound on the descent."""
    n = draw(st.integers(2, 7))
    n1 = draw(st.integers(1, n - 1))
    n2 = draw(st.integers(n1 + 1, n))
    l1, l2 = draw(st.integers(-2, 2)), draw(st.integers(-2, 2))
    cfg = Config(n, n1, n2, l1, l2)
    regime = "dprime" if n2 == n and l1 > 0 and l2 > 0 and draw(st.booleans()) else "T-cell"
    cells = filtration._level_cells(cfg, draw(st.integers(0, 3)), regime)
    candidates = osc.block_transpositions(n, n1, n2)
    transpositions = draw(st.lists(st.sampled_from(candidates), unique=True)) if candidates else []
    found = osc.relabellings(n, sorted(transpositions), draw(st.booleans()))
    weights = Weights(cfg, cfg.space, found)
    return cfg, cells, weights, draw(st.integers(0, 3))


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(cone_inputs())
@example(_cone_example((7, 3, 4, -1, -1), 3, [1, 2, 5, 6], True, 0))  # the mirror
@example(_cone_example((6, 2, 4, -1, -1), 2, [1, 3, 5], False, 1))
def test_the_cone_is_the_whole_level_filtered_by_descent(cone):
    # the same monomials, each with its weight, in the order of the whole
    # level: so each weight's monomials keep their order too
    cfg, cells, weights, bound = cone
    whole = [m for cell in cells for m in _cell_oracle(cfg, cell)]
    assert osc.enumerate_cells(cfg, cells) == whole
    want = [(weights.of(m), m) for m in whole if weights.descent(weights.of(m)) <= bound]
    assert osc.enumerate_cells(cfg, cells, (weights, bound)) == want


@pytest.mark.parametrize(
    "refused", ["applier_is_representation", "block_permutations_commute", "mirror_commutes"]
)
def test_comparison_reads_the_whole_levels_where_a_certificate_refuses(monkeypatch, refused):
    # (5,2,3,-1,-1) has orbits of (1 2), (4 5) and the mirror; where a
    # certificate of the applier refuses them, the whole levels are read,
    # and the brute-force levels are built whole
    cfg = Config(5, 2, 3, -1, -1)
    oracle = _whole_payload(cfg, 4)
    whole, cones = [], []
    real, real_brute = filtration.build_tower, filtration._bruteforce_tower

    def build(c, k, method="explicit", **kw):
        tower = real(c, k, method, **kw)
        if kw.get("whole"):
            whole.append(tower)
        return tower

    def brute(c, k, weights):
        cones.append(weights.orbits)
        return real_brute(c, k, weights)

    monkeypatch.setattr(filtration, "build_tower", build)
    monkeypatch.setattr(filtration, "_bruteforce_tower", brute)
    assert compare_towers(cfg, 4) == oracle and whole == [] and cones == [True]
    monkeypatch.setattr(filtration, refused, lambda *layout: False)
    assert compare_towers(cfg, 4) == oracle and len(whole) == 1 and cones == [True, False]


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


def _new_rows(brute, weights, of):
    """The rows of each brute-force level that the level below does not
    share, at the representative weights of ``weights`` (``of`` weighs a
    pivot)."""
    out, below = [], {}
    for level in brute.built:
        for piv, row in level.rows.items():
            if below.get(piv) is row:
                continue
            if weights.is_representative(of(piv)):
                out.append(row)
        below = level.rows
    return out


def _recording(monkeypatch):
    """The towers ``compare_towers`` builds, by method, and the (basis,
    row) ids of every ``EchelonBasis.contains`` call."""
    towers, lookups = {}, []
    real_build, real_contains = filtration.build_tower, EchelonBasis.contains
    real_brute = filtration._bruteforce_tower

    def build(c, k, method="explicit", **kw):
        towers[method] = real_build(c, k, method, **kw)
        return towers[method]

    def brute_build(c, k, weights):
        towers["bruteforce"] = real_brute(c, k, weights)
        return towers["bruteforce"]

    def contains(self, row):
        lookups.append((id(self), id(row)))
        return real_contains(self, row)

    monkeypatch.setattr(filtration, "build_tower", build)
    monkeypatch.setattr(filtration, "_bruteforce_tower", brute_build)
    monkeypatch.setattr(EchelonBasis, "contains", contains)
    return towers, lookups


def _looked_up(towers, lookups):
    """The brute-force rows looked up in an explicit level, by id."""
    explicit = {id(level) for level in towers["explicit"].built}
    brute = {id(row) for level in towers["bruteforce"].built for row in level.rows.values()}
    return sorted(row for level, row in lookups if level in explicit and row in brute)


@pytest.mark.parametrize("params, kmax", [((4, 1, 3, -1, 1), 5), ((5, 2, 3, -1, -1), 4)], ids=str)
def test_compare_towers_looks_up_each_new_brute_force_row_once(monkeypatch, params, kmax):
    # a brute-force row that level k shares with level k-1 lies in explicit
    # level k-1, so in level k: only the new rows are looked up, and with
    # orbits only those of a representative weight
    cfg = Config(*params)
    towers, lookups = _recording(monkeypatch)
    rep = compare_towers(cfg, kmax)
    assert rep["all_equal"] and rep["nested"]
    brute, weights = towers["bruteforce"], towers["explicit"].weights
    new = _new_rows(brute, weights, brute.row_weights.__getitem__)
    assert _looked_up(towers, lookups) == sorted(map(id, new))
    # each level shares rows with the one below
    assert len(new) < sum(level.dim for level in brute.built)


def _crafted_payload(monkeypatch, explicit, brute):
    """``compare_towers`` on CFG with the towers built from ``explicit``
    and ``brute``, lists of polynomial texts per level, each brute-force
    level a copy of the one below plus its new rows."""
    levels = []
    for texts in brute:
        level = levels[-1].copy() if levels else EchelonBasis(SP)
        for text in texts:
            level.insert(P(text))
        levels.append(level)
    rows = [echelon_from(SP, [P(text) for text in texts]) for texts in explicit]
    explicit_tower = FiltrationTower(CFG, "explicit", rows, WHOLE)
    # one block, as ``_bruteforce_tower`` builds it: every row at weight 0
    zeros = {piv: 0 for level in levels for piv in level.rows}
    brute_tower = FiltrationTower(CFG, "bruteforce", levels, WHOLE, zeros)
    monkeypatch.setattr(filtration, "build_tower", lambda *a, **kw: explicit_tower)
    monkeypatch.setattr(filtration, "_bruteforce_tower", lambda *a: brute_tower)
    rep = compare_towers(CFG, len(levels) - 1)
    return [r["equal"] for r in rep["levels"]], rep["nested"]


def test_comparison_looks_up_shared_rows_below_an_unequal_level(monkeypatch):
    # x1 is not in explicit level 0, nor in level 1: level 1 is unequal
    # although its new row y1 is there
    assert _crafted_payload(monkeypatch, [["y1"], ["y1", "y3"]], [["x1"], ["y1"]]) == (
        [False, False],
        True,
    )


def test_comparison_looks_up_shared_rows_where_a_tower_does_not_nest(monkeypatch):
    # level 0 is equal, but explicit level 1 lost x1
    assert _crafted_payload(monkeypatch, [["x1"], ["y1", "y3"]], [["x1"], ["y1"]]) == (
        [True, False],
        False,
    )
    # with x1 kept the towers nest and level 1 is equal
    assert _crafted_payload(monkeypatch, [["x1"], ["x1", "y1"]], [["x1"], ["y1"]]) == (
        [True, True],
        True,
    )


def test_comparison_weighs_the_pivots_of_a_whole_brute_force_tower(monkeypatch, fresh_caches):
    # with no shifts the brute-force tower is whole while the explicit rows
    # are read at representative weights: only the new rows of those
    # weights are looked up, each weighed by its pivot
    cfg = Config(5, 2, 3, -1, -1)
    oracle = _whole_payload(cfg, 4)
    monkeypatch.setattr(filtration, "_generator_shifts", lambda *layout: None)
    towers, lookups = _recording(monkeypatch)
    assert compare_towers(cfg, 4) == oracle
    brute, weights = towers["bruteforce"], towers["explicit"].weights
    assert _one_block(brute.weights) and weights.orbits
    new = _new_rows(brute, weights, weights.of)
    assert _looked_up(towers, lookups) == sorted(map(id, new))
    assert len(new) < len(_new_rows(brute, brute.weights, brute.row_weights.__getitem__))


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
