"""Graded annihilator kernels, minor operators, growth estimates."""

import contextlib
import itertools
import random
from fractions import Fraction
from functools import partial
from math import comb
from unittest import mock

import pytest
from hypothesis import HealthCheck, assume, example, given, settings
from hypothesis import strategies as st

from oscvar import annihilator, osc, suite
from oscvar.annihilator import (
    OutOfTheoremError,
    ShallowSystemError,
    _SplitMonomials,
    _compare_with_prediction,
    _generated_by_base,
    _level_rows,
    _permutes_base,
    _stacked_columns,
    apply_sym,
    apply_sym_monomial,
    classify_minor3,
    compute_annihilator_piece,
    degree1_report,
    degree2_families,
    degree2_tower,
    delta_ops,
    expected_gkdim,
    gen_index_map,
    gkdim_estimate,
    in_L,
    minor_symbol,
    operator_identically_zero,
    predicted_level_preservers,
    presentation_tower,
    scaled_entries,
    sym_form,
    sym_membership,
    sym_words,
    system_rows,
    verify_degree2,
    verify_degree3,
    verify_variety_presentation,
)
from oscvar.filtration import FiltrationTower, UnsupportedRegimeError, build_M0, build_tower
from oscvar.linalg import echelon_from, kernel_of_columns, span_equal
from oscvar.osc import (
    Config,
    Weights,
    apply_generator_terms,
    apply_weyl,
    diagonal_value,
    generators,
    weyl_action,
)
from oscvar.poly import Poly, Space, axpy, monomials, parse_poly, symbol_space

CFG = Config(3, 1, 2, -1, -1)


def _pack(sp, key):
    """The packed symbol monomial of an ascending tuple of generator indices."""
    return sum(sp.unit[g] for g in key)


def _spans_kernel(piece, vectors, pure=False) -> bool:
    """Whether ``vectors``, independent dicts by packed monomial, span the
    kernel of ``piece`` (over the pure monomials where ``pure``): each is a
    member, and they are as many as its dimension."""
    dim = piece.pure_dim if pure else piece.dim
    return dim == len(vectors) and all(piece.holds(Poly(piece.space, v)) for v in vectors)


def _residue(basis, terms) -> Poly:
    """The normal form of ``terms`` modulo the span of ``basis``."""
    row, scale = basis.reduce_scaled(terms)
    return Poly(basis.space, {m: Fraction(v, scale) for m, v in row.items()})


def act(sym: Poly, tower, k: int) -> list[Poly]:
    """Residues of the action on level k rows, modulo level k + deg - 1,
    rows in decreasing pivot order (an empty residue means the row is
    annihilated in the graded module)."""
    p = sym.total_degree()
    if k + p - 1 > tower.depth:
        raise ValueError("tower too shallow for this action")
    cfg = tower.cfg
    gens = generators(cfg.n)
    target = tower.levels[k + p - 1]
    rows = tower.levels[k].rows
    return [
        _residue(target, apply_sym(cfg, sym_words(sym), rows[piv], gens))
        for piv in sorted(rows, reverse=True)
    ]


def test_L_membership():
    assert in_L(CFG, 2, 1) and in_L(CFG, 3, 2) and in_L(CFG, 3, 1)
    assert not in_L(CFG, 1, 2) and not in_L(CFG, 2, 3) and not in_L(CFG, 1, 3)


def test_degree1_kernel_small():
    tower = build_tower(CFG, 3, "explicit")
    rep = degree1_report(tower, 4)
    assert rep["equal"] and rep["stabilized"]
    assert rep["dim_computed"] == 5
    assert rep["cartan_part"] == 2 and rep["root_part"] == 3


def test_act_examples():
    tower = build_tower(CFG, 2, "explicit")
    gmap = gen_index_map(CFG.n)
    sp = symbol_space(CFG.n)
    assert all(r.is_zero() for r in act(Poly.variable(sp, gmap[("e", 1, 2)]), tower, 0))
    assert all(r.is_zero() for r in act(Poly.variable(sp, gmap[("h", 1)]), tower, 0))
    res = act(Poly.variable(sp, gmap[("e", 2, 1)]), tower, 0)
    assert [str(r) for r in res] == ["-x1^2*x2*y3"]
    shallow = build_tower(CFG, 1, "explicit")
    with pytest.raises(ValueError):
        act(Poly.variable(sp, gmap[("e", 2, 1)]) ** 3, shallow, 0)


def test_residue_is_ordering_independent():
    # the fixed factor ordering is a convention: residues modulo the lower
    # level agree for any application order (20 random degree-2/3 words)
    cfg = Config(4, 1, 3, -1, -1)
    tower = build_tower(cfg, 4, "explicit")
    gens = generators(cfg.n)
    rng = random.Random(41)
    for _ in range(20):
        p = rng.choice([2, 3])
        key = tuple(sorted(rng.randrange(len(gens)) for _ in range(p)))
        k = rng.choice([0, 1])
        target = tower.levels[k + p - 1]
        for row in list(tower.levels[k].rows.values())[:3]:
            img1 = apply_sym_monomial(cfg, key, row, gens)
            other = list(key)
            rng.shuffle(other)
            img2 = row
            for idx in other:
                img2 = apply_generator_terms(cfg, gens[idx], img2)
            assert _residue(target, img1) == _residue(target, img2)


def test_cartan_combination_eigenvalue():
    # acting by n times the traceless projection of a diagonal unit
    # multiplies a monomial by n d_j(m) - sum_s d_s(m)
    cfg = Config(4, 1, 3, -1, -1)
    gens = generators(cfg.n)
    m = cfg.space.pack((1, 2, 0, 0, 0, 0, 1, 2))
    total = sum(diagonal_value(cfg, s, m) for s in range(1, cfg.n + 1))
    for j in range(1, cfg.n + 1):
        sym = scaled_entries(cfg.n, 0)[j, j]
        img = apply_sym(cfg, sym_words(sym), {m: 1}, gens)
        want = diagonal_value(cfg, j, m) * cfg.n - total
        if want:
            assert img == {m: want}
        else:
            assert img == {}


def test_delta_op_counts():
    cfg6 = Config(6, 2, 4)
    assert [op.label() for op in delta_ops(cfg6, "minor2-L1")] == ["D[3,4;1,2]"]
    assert delta_ops(CFG, "minor2-L1") == []
    assert len(delta_ops(cfg6, "minor3")) == 16
    assert len(delta_ops(Config(6, 3, 3), "minor3-J3J1")) == 1


def test_minor_symbol_antisymmetry():
    cfg = Config(6, 2, 4)
    a = minor_symbol(cfg, (3, 4), (1, 2))
    b = minor_symbol(cfg, (4, 3), (1, 2))
    assert a == -b


def test_classify_minor3_grid():
    cfg = Config(6, 2, 4)
    # all sorted triples have smallest row and largest column in J2 here
    cases = {classify_minor3(cfg, op.rows, op.cols) for op in delta_ops(cfg, "minor3")}
    assert cases == {2, 3, 4, 5}
    cfg2 = Config(6, 2, 3)
    assert classify_minor3(cfg2, (4, 5, 6), (1, 2, 3)) == 1
    cfg3 = Config(5, 1, 4)
    assert classify_minor3(cfg3, (2, 3, 4), (1, 2, 3)) == 6


def _minor3_case(cfg, case) -> list:
    return [o for o in delta_ops(cfg, "minor3") if classify_minor3(cfg, o.rows, o.cols) == case]


def test_vanishing_case_identity():
    # every case-1 minor is zero as a Weyl-algebra element; one term fewer is not
    for layout, count in (((6, 2, 3), 1), ((7, 2, 4), 4)):
        cfg = Config(*layout)
        ops = _minor3_case(cfg, 1)
        assert len(ops) == count
        for op in ops:
            assert operator_identically_zero(cfg, op.sym)
            m, c = next(iter(op.sym.terms.items()))
            assert not operator_identically_zero(cfg, op.sym - Poly(op.sym.space, {m: c}))


# (layout, case, representatives) as the suite's degree-3 checks read them:
# the first operator of each case in verify_degree3, the first two of case 6
# in the case-6 supplement
_SUITE_REPRESENTATIVES = [
    *(((6, 2, 4, -1, -1), case, 1) for case in (2, 3, 4, 5)),
    ((5, 2, 3, -1, -1), 2, 1),
    ((5, 1, 4, -1, -1), 6, 2),
]


def test_suite_case_representatives_are_not_identities():
    # a representative that vanished identically would make its membership
    # PASS vacuous
    checked = 0
    for layout, case, count in _SUITE_REPRESENTATIVES:
        cfg = Config(*layout)
        for op in _minor3_case(cfg, case)[:count]:
            assert not operator_identically_zero(cfg, op.sym), (layout, op.label())
            checked += 1
    assert checked == 7


def test_degree2_piece_and_fallback_agree():
    cfg = Config(5, 1, 3, -1, 1)
    tower = build_tower(cfg, 3, "explicit")
    fast = compute_annihilator_piece(
        tower, 2, 3, known_level_preservers=predicted_level_preservers(cfg)
    )
    full = compute_annihilator_piece(tower, 2, 3)
    assert fast.dim == full.dim
    kernel, _stabilized = _stacked_oracle(tower, 2, 3)
    assert _spans_kernel(fast, kernel) and _spans_kernel(full, kernel)
    # a wrong preserver list must not corrupt the result (fallback path)
    wrong = compute_annihilator_piece(tower, 2, 3, known_level_preservers=[0, 1, 2, 3])
    assert _spans_kernel(wrong, kernel)


def test_squared_minor_membership_positive_low():
    cfg = Config(5, 1, 3, 1, -1)
    tower = build_tower(cfg, 3, "explicit")
    (op,) = delta_ops(cfg, "minor2-L2")
    sq = op.sym * op.sym
    assert sym_membership(sq, tower) is True
    assert sym_membership(op.sym, tower) is False  # the unsquared one is not inside


def test_new_pivot_row_reduction_is_lossless():
    # the stacked systems constrain only rows whose pivot is new at their
    # level; compare with the naive all-rows system
    from oscvar.linalg import kernel_of_columns

    cfg = Config(3, 1, 2, -1, -1)
    tower = build_tower(cfg, 3, "explicit")
    gens = generators(cfg.n)
    piece = compute_annihilator_piece(tower, 1, 4)

    eq_ids: dict = {}
    columns = []
    for gi in range(len(gens)):
        col: dict = {}
        for k in range(4):
            target = tower.levels[k]
            for piv in sorted(target.rows):
                img = apply_generator_terms(cfg, gens[gi], target.rows[piv])
                if not img:
                    continue
                res, scale = target.reduce_scaled(img)
                for m, v in res.items():
                    eq = eq_ids.setdefault((k, piv, m), len(eq_ids))
                    col[(eq,)] = Fraction(v, scale)
        columns.append(col)
    naive = kernel_of_columns(columns)
    sp = symbol_space(cfg.n)
    assert _spans_kernel(piece, [{sp.unit[i]: c for i, c in vec.items()} for vec in naive])


def test_gk_estimates():
    tower = build_tower(CFG, 8, "explicit")
    # frozen sequence, cross-checked against the brute-force route below
    assert tower.dims == [(k + 1) * (k + 2) * (k + 3) // 6 for k in range(9)]
    est, confident = gkdim_estimate(tower)
    assert (est, confident) == (3, True)
    assert expected_gkdim(CFG) == 3
    assert expected_gkdim(Config(4, 2, 2, -1, -1)) == 4
    assert expected_gkdim(Config(3, 1, 3, 2, 1)) == 2
    with pytest.raises(ValueError):
        gkdim_estimate(build_tower(CFG, 3, "explicit"))


# ---------------------------------------------------------------------------
# the certified split and the shared-prefix columns
# ---------------------------------------------------------------------------


@st.composite
def supported_towers(draw, max_n=5, max_kmax=4):
    """(tower, kmax) for a random configuration with an explicit tower."""
    n = draw(st.integers(3, max_n))
    n1 = draw(st.integers(1, n - 1))
    n2 = draw(st.integers(n1, n))
    cfg = Config(n, n1, n2, draw(st.integers(-1, 1)), draw(st.integers(-1, 1)))
    kmax = draw(st.integers(2, max_kmax))
    try:
        tower = build_tower(cfg, kmax - 1, "explicit")
    except UnsupportedRegimeError:
        assume(False)
    assume(tower.levels[0].dim)  # an empty base is a shallow system
    return tower, kmax


# Derandomized, so every run checks the same examples in the same time.
_PROPERTY = dict(
    deadline=None,
    derandomize=True,
    database=None,
    suppress_health_check=[HealthCheck.too_slow],
)


@st.composite
def symbol_operators(draw, max_n=5):
    """A layout with n <= max_n and a symbol polynomial of degree 1-3 with
    int and Fraction coefficients."""
    n = draw(st.integers(2, max_n))
    n1 = draw(st.integers(1, n))
    cfg = Config(n, n1, draw(st.integers(n1, n)))
    sp = symbol_space(n)

    def exponents(positions):
        m = [0] * sp.nvars
        for pos in positions:
            m[pos] += 1
        return tuple(m)

    word = st.lists(st.integers(0, sp.nvars - 1), min_size=1, max_size=3).map(exponents)
    coeff = st.one_of(
        st.integers(-5, 5).filter(bool),
        st.fractions(min_value=-3, max_value=3, max_denominator=4).filter(bool),
    )
    terms = draw(st.dictionaries(word, coeff, min_size=1, max_size=3))
    return cfg, Poly.from_exponents(sp, terms)


@settings(max_examples=60, **_PROPERTY)
@given(symbol_operators(), st.data())
def test_symbol_form_acts_as_the_applier(cfg_sym, data):
    cfg, sym = cfg_sym
    sp = cfg.space
    action = weyl_action(sp, sym_form(cfg, sym))
    gens = generators(cfg.n)
    for _ in range(3):
        positions = data.draw(st.lists(st.integers(0, sp.nvars - 1), max_size=4))
        base = {sum(sp.unit[pos] for pos in positions): 1}
        assert apply_weyl(action, base) == apply_sym(cfg, sym_words(sym), base, gens)


@settings(max_examples=20, **_PROPERTY)
@given(supported_towers(), st.integers(2, 3))
def test_split_piece_equals_full_solve(tower_kmax, p):
    tower, kmax = tower_kmax
    assume(p <= kmax)
    cfg = tower.cfg
    claimed = predicted_level_preservers(cfg)
    fast = compute_annihilator_piece(tower, p, kmax, known_level_preservers=claimed)
    full = compute_annihilator_piece(tower, p, kmax)
    assert set(fast.split_symbols) <= set(claimed)
    assert fast.dim == full.dim
    assert fast.stabilized == full.stabilized
    kernel, _stabilized = _stacked_oracle(tower, p, kmax)
    assert _spans_kernel(fast, kernel) and _spans_kernel(full, kernel)


def _rank(cfg, syms) -> int:
    return echelon_from(symbol_space(cfg.n), syms).dim


def _generator_multiples(family, cfg):
    """Degree+1 multiples of a family by every generator symbol."""
    sp = symbol_space(cfg.n)
    return [s * Poly.variable(sp, idx) for s in family for idx in range(sp.nvars)]


def _real_family(cfg, p):
    """The predicted degree-p family and its lower part, as the checks use them."""
    if p == 1:
        return annihilator._Family(symbols=predicted_level_preservers(cfg)), annihilator._Family()
    if p == 2:
        return annihilator._Family(degree2_families(cfg)["direct"]), annihilator._Family()
    minor2 = delta_ops(cfg, "minor2-L1") + delta_ops(cfg, "minor2-L2")
    return annihilator._Family(delta_ops(cfg, "minor3")), annihilator._Family(multiplied=minor2)


def _whole_families(cfg, p) -> list:
    """The degree-p families that every permutation inside the blocks maps
    onto itself up to sign, each as ``_Family`` keyword arguments.  Degree
    1: the Cartan symbols, and the root symbols of each pair of blocks.
    Degree 2: the 2x2 minors with rows in one block and columns in one,
    and the 2x2 families of ``delta_ops``.  Degree 3: the same for 3x3
    minors, and the multiples of each 2x2 family by every generator."""
    blocks = [b for b in (cfg.J1, cfg.J2, cfg.J3) if b]
    gens = generators(cfg.n)
    if p == 1:
        sets = [[g for g, gen in enumerate(gens) if gen[0] == "h"]] + [
            [g for g, gen in enumerate(gens) if gen[0] == "e" and gen[1] in rows and gen[2] in cols]
            for rows in blocks for cols in blocks
        ]
        return [{"symbols": s} for s in sets if s]

    def minors(t):
        fams = [
            [
                annihilator.DeltaOp(cfg, r, c)
                for r in itertools.combinations(rows, t) for c in itertools.combinations(cols, t)
            ]
            for rows in blocks for cols in blocks
        ]
        kinds = ("minor2-L1", "minor2-L2") if t == 2 else ("minor3", "minor3-J3J1")
        return [f for f in fams + [delta_ops(cfg, kind) for kind in kinds] if f]

    out = [{"ops": f} for f in minors(p)]
    if p == 3:
        out += [{"multiplied": f} for f in minors(2)]
    return out


def _union(families) -> annihilator._Family:
    """The ``_Family`` of the union of ``_whole_families`` entries."""
    fields: dict = {}
    for fam in families:
        for name, members in fam.items():
            fields[name] = fields.get(name, []) + members
    return annihilator._Family(**fields)


def _expanded(cfg, family) -> list[Poly]:
    """The whole symbols of a ``_Family``'s members."""
    sp = symbol_space(cfg.n)
    return (
        [Poly.variable(sp, g) for g in family.symbols]
        + [op.sym for op in family.ops]
        + _generator_multiples([op.sym for op in family.multiplied], cfg)
    )


def test_prediction_comparison_agrees_with_full_solve():
    # oracle: the kernel solved with no preserver claimed and every column
    # in one block, compared with the prediction plus every monomial
    # containing a granted split symbol; spans are compared by ranks alone,
    # not through span_equal.  Predictions are unions of whole families, so
    # some are too small, some exact and some too large
    seen = set()

    @settings(max_examples=60, **_PROPERTY)
    @given(supported_towers(max_n=4), st.integers(1, 3), st.randoms(use_true_random=False))
    # pure degree-2 and degree-3 kernels that are not zero
    @example((build_tower(Config(4, 2, 4, 1, 1), 2, "explicit"), 3), 2, random.Random(0))
    @example((build_tower(Config(4, 2, 4, 1, 1), 2, "explicit"), 3), 3, random.Random(0))
    @example((build_tower(Config(5, 2, 4, -1, -1), 2, "explicit"), 3), 2, random.Random(0))
    @example((build_tower(Config(5, 2, 4, -1, -1), 2, "explicit"), 3), 3, random.Random(0))
    def check(tower_kmax, p, rng):
        tower, kmax = tower_kmax
        assume(p <= kmax)
        cfg = tower.cfg
        if rng.random() < 0.2:
            # a new row dropped from the top level of a tower that is U_k(g) M_0:
            # that level no longer holds the closure of the one below, so the
            # tower is not a g-stable filtration and the comparison refuses it
            assume(_generated_by_base(tower))
            top, below = tower.levels[kmax - 1].rows, tower.levels[kmax - 2].rows
            new = [m for m in top if m not in below]
            assume(new)
            del top[rng.choice(new)]
            tower.derived.clear()  # derived from the levels before the cut
            with pytest.raises(ValueError, match=f"^level {kmax - 1} does not contain"):
                _compare_with_prediction(annihilator._solve(tower, p, kmax), *_real_family(cfg, p))
            return
        sp = symbol_space(cfg.n)
        kernel = [Poly(sp, v) for v in _stacked_oracle(tower, p, kmax)[0]]
        piece = annihilator._solve(tower, p, kmax)
        monos = itertools.combinations_with_replacement(range(len(generators(cfg.n))), p)
        split = set(piece.split_symbols)
        members = [{_pack(sp, m): 1} for m in monos if not split.isdisjoint(m)]
        families = _whole_families(cfg, p)
        for _ in range(3):
            if rng.random() < 0.3:
                predicted, lower = _real_family(cfg, p)
            else:
                picked = [f for f in families if rng.random() < 0.4]
                predicted = _union(picked)
                lower = _union(f for f in families if f not in picked and rng.random() < 0.2)
            dim_computed, dim_predicted, equal = _compare_with_prediction(piece, predicted, lower)
            pred = _expanded(cfg, predicted)
            low = _expanded(cfg, lower)
            assert dim_computed == _rank(cfg, kernel) - len(members)
            assert dim_predicted == _rank(cfg, pred + low + members) - len(members)
            full = _rank(cfg, kernel + low)
            want = _rank(cfg, pred + low + members)
            both = _rank(cfg, kernel + low + pred + members)
            assert equal == (full == want == both)
            seen.add("exact" if full == want == both else "small" if both == full else "large")

    check()
    assert seen == {"small", "exact", "large"}


def _columns_one_monomial_at_a_time(tower, monos, levels, gens):
    """Reference for ``_stacked_columns``: each monomial applied on its own,
    equations numbered key-major.  Also returns the columns without the
    equations of the last level."""
    cfg = tower.cfg
    sp = symbol_space(cfg.n)
    p = sp.degree(monos[0])
    eq_ids: dict = {}
    columns = []
    for key in monos:
        col: dict = {}
        for k in levels:
            target = tower.levels[k + p - 1]
            for vi, row in enumerate(_level_rows(tower, k)):
                img = apply_sym_monomial(cfg, sp.positions(key), row, gens)
                if not img:
                    continue
                res, scale = target.reduce_scaled(img)
                for m, v in res.items():
                    eq = eq_ids.setdefault((k, vi, m), len(eq_ids))
                    col[(eq,)] = Fraction(v, scale)
        columns.append(col)
    last = {eq for (k, _, _), eq in eq_ids.items() if k == levels[-1]}
    trimmed = [{m: v for m, v in col.items() if m[0] not in last} for col in columns]
    return columns, trimmed


@settings(max_examples=15, **_PROPERTY)
@given(supported_towers(max_n=4), st.integers(1, 3), st.randoms(use_true_random=False))
def test_trie_columns_match_per_monomial_application(tower_kmax, p, rng):
    tower, kmax = tower_kmax
    assume(p <= kmax)
    gens = generators(tower.cfg.n)
    alphabet = sorted(rng.sample(range(len(gens)), rng.randint(1, len(gens))))
    levels = list(range(kmax - p + 1))
    rows = [_level_rows(tower, k) for k in levels]
    words = list(itertools.combinations_with_replacement(alphabet, p))
    columns, last_start = _stacked_columns(tower, p, words, rows, gens)
    sp = symbol_space(tower.cfg.n)
    monos = [_pack(sp, word) for word in words]
    reference, reference_trimmed = _columns_one_monomial_at_a_time(
        tower, monos, levels, gens
    )
    assert kernel_of_columns(columns) == kernel_of_columns(reference)
    trimmed = [{eq: v for eq, v in col.items() if eq < last_start} for col in columns]
    assert kernel_of_columns(trimmed) == kernel_of_columns(reference_trimmed)


def _one_block(tower, p, rows_by_level, split):
    """The degree-p system on ``rows_by_level``, solved on the monomials off
    ``split`` with every column in one block: its kernel vectors, and
    whether the system without its last level has as many (False when
    there is one level)."""
    gens = generators(tower.cfg.n)
    alphabet = [i for i in range(len(gens)) if i not in split]
    words = list(itertools.combinations_with_replacement(alphabet, p))
    columns, last_start = _stacked_columns(tower, p, words, rows_by_level, gens)
    monos = [_pack(symbol_space(tower.cfg.n), word) for word in words]
    vectors = kernel_of_columns(columns)
    stabilized = False
    if len(rows_by_level) > 1:
        trimmed = [{eq: v for eq, v in col.items() if eq < last_start} for col in columns]
        stabilized = len(kernel_of_columns(trimmed)) == len(vectors)
    return [{monos[i]: c for i, c in vec.items()} for vec in vectors], stabilized


def _stacked_oracle(tower, p, kmax, split=()):
    """The degree-p system stacked over the new rows of every level
    k <= kmax-p, every column in one block (:func:`_one_block`)."""
    return _one_block(tower, p, [_level_rows(tower, k) for k in range(kmax - p + 1)], split)


@settings(max_examples=20, **_PROPERTY)
@given(supported_towers(), st.integers(1, 3))
@example((build_tower(Config(3, 2, 3, 0, 1), 2, "explicit"), 3), 2)  # not U_k(g) M_0
@example((build_tower(Config(5, 1, 3, -1, 1), 2, "explicit"), 3), 3)
def test_piece_equals_stacked_solve(tower_kmax, p):
    tower, kmax = tower_kmax
    assume(p <= kmax)
    cfg = tower.cfg
    _, preservers = system_rows(tower)
    for claimed in (None, predicted_level_preservers(cfg)):
        piece = compute_annihilator_piece(tower, p, kmax, claimed)
        assert preservers.issuperset(piece.split_symbols)
        vectors, stabilized = _stacked_oracle(tower, p, kmax, piece.split_symbols)
        assert _spans_kernel(piece, vectors, pure=True)
        assert piece.stabilized == stabilized
    full, _ = _stacked_oracle(tower, p, kmax)
    assert _spans_kernel(piece, full)


def _drop_new_row(tower, j):
    """Delete one row whose pivot is new at level j > 0: M_j is then no
    longer the closure of M_{j-1}."""
    rows, below = tower.levels[j].rows, tower.levels[j - 1].rows
    del rows[max(m for m in rows if m not in below)]


def test_tower_that_is_not_g_stable_is_refused():
    # the module lemma holds only on a g-stable tower, so every system, and
    # every report built on one, raises at the first level that fails
    cfg = Config(4, 1, 3, -1, -1)
    sp = symbol_space(cfg.n)
    keys = [(0,), (5,), (11,), (0, 5), (3, 9), (11, 11)]
    syms = [Poly(sp, {_pack(sp, key): 1}) for key in keys] + [Poly.zero(sp)]
    claimed = predicted_level_preservers(cfg)
    for j in (1, 2, 3):
        tower = build_tower(cfg, 3, "explicit")
        _drop_new_row(tower, j)
        calls = [lambda p=p: compute_annihilator_piece(tower, p, 4, claimed) for p in (1, 2, 3)]
        calls += [lambda sym=sym: sym_membership(sym, tower) for sym in syms]
        calls += [lambda: degree1_report(tower, 4), lambda: verify_degree2(tower, 4)]
        calls.append(lambda: verify_degree3(tower, 4))
        for call in calls:
            with pytest.raises(
                ValueError, match=f"^level {j} does not contain .* not a g-stable filtration$"
            ):
                call()
        assert "system-rows" not in tower.derived


@pytest.mark.parametrize("ngens, p, split", [
    (8, 1, {0, 3}), (8, 2, {0, 3}), (15, 3, {1, 2, 14}), (5, 2, set()), (4, 3, {0, 1, 2, 3}),
])
def test_coordinate_members_view_is_the_list(ngens, p, split):
    sp = Space("sym", tuple(f"s{g}" for g in range(ngens)))
    view = _SplitMonomials(sp, p, frozenset(split))
    listed = [
        _pack(sp, key) for key in itertools.combinations_with_replacement(range(ngens), p)
        if not split.isdisjoint(key)
    ]
    assert len(view) == len(listed)
    assert list(view) == listed and view == listed
    assert view != listed[:-1] or not listed


def test_failed_claim_is_dropped_from_the_split():
    cfg = Config(5, 1, 3, -1, 1)
    tower = build_tower(cfg, 3, "explicit")
    claimed = predicted_level_preservers(cfg)
    lowering = [i for i in range(len(generators(cfg.n))) if i not in claimed]
    fresh, preservers = system_rows(tower)
    assert fresh[1:] == [[], [], []]  # the tower is U_k(g) M_0
    assert preservers >= set(claimed) and preservers.isdisjoint(lowering[:2])
    piece = compute_annihilator_piece(tower, 2, 3, claimed + lowering[:2])
    assert piece.split_symbols == claimed
    vectors, stabilized = _stacked_oracle(tower, 2, 3, claimed)
    assert _spans_kernel(piece, vectors, pure=True) and piece.stabilized == stabilized


def _membership_without_dropping(sym, tower):
    """Reference for ``sym_membership``: every term is applied."""
    cfg = tower.cfg
    gens = generators(cfg.n)
    p = sym.total_degree()
    for k in range(tower.depth - p + 2):
        target = tower.levels[k + p - 1]
        for row in _level_rows(tower, k):
            img = apply_sym(cfg, sym_words(sym), row, gens)
            if img and not target.contains(img):
                return False
    return True


def test_sym_membership_dropping_preserver_terms_agrees():
    cfg = Config(5, 1, 3, 1, -1)
    tower = build_tower(cfg, 3, "explicit")
    (op,) = delta_ops(cfg, "minor2-L2")
    gmap = gen_index_map(cfg.n)
    # off-L, so dropped before applying
    preserver = Poly.variable(symbol_space(cfg.n), gmap[("e", 1, 2)]).scale(3)
    cases = [
        (op.sym * op.sym, True),
        (op.sym, False),
        (op.sym + preserver, False),
        (op.sym * preserver, True),
    ]
    cfg6 = Config(6, 2, 4, -1, -1)
    tower6 = build_tower(cfg6, 3, "explicit")
    for op6 in delta_ops(cfg6, "minor3")[:4] + delta_ops(cfg6, "minor2-L1"):
        assert sym_membership(op6.sym, tower6) is True
        assert _membership_without_dropping(op6.sym, tower6) is True
    for sym, want in cases:
        assert sym_membership(sym, tower) is want
        assert _membership_without_dropping(sym, tower) is want


@settings(max_examples=15, **_PROPERTY)
@given(supported_towers(), st.randoms(use_true_random=False))
def test_sym_membership_agrees_on_minors_and_powers(tower_kmax, rng):
    tower, _ = tower_kmax
    cfg = tower.cfg
    minors = [
        op.sym for kind in ("minor2-L1", "minor2-L2", "minor3") for op in delta_ops(cfg, kind)
    ]
    assume(minors)
    syms = rng.sample(minors, min(3, len(minors)))
    syms += [s * s for s in syms if s.total_degree() == 2][:1]
    for sym in syms:
        if sym.total_degree() - 1 > tower.depth:
            assert sym_membership(sym, tower) is None
        else:
            assert sym_membership(sym, tower) is _membership_without_dropping(sym, tower)


@st.composite
def _membership_towers(draw):
    """(tower, kmax) with n <= 5 and kmax 3-4, the tower of depth kmax - 1
    or kmax: on the deeper one a layout with rows above M_0 makes the
    membership read a level the piece does not."""
    n = draw(st.integers(3, 5))
    n1 = draw(st.integers(1, n - 1))
    cfg = Config(n, n1, draw(st.integers(n1, n)), draw(st.integers(-1, 1)), draw(st.integers(-1, 1)))
    kmax = draw(st.integers(3, 4))
    try:
        tower = build_tower(cfg, kmax - draw(st.integers(0, 1)), "explicit")
    except UnsupportedRegimeError:
        assume(False)
    assume(tower.levels[0].dim)
    return tower, kmax


def test_span_membership_agrees_with_applied_membership():
    # the memberships read off the solved pieces against sym_membership on
    # the whole symbol: minors, a minor plus a pure monomial outside the
    # kernel, and the unsquared minor of a power family
    verdicts = []

    @settings(max_examples=40, **_PROPERTY)
    @given(_membership_towers(), st.randoms(use_true_random=False))
    def check(tower_kmax, rng):
        tower, kmax = tower_kmax
        cfg = tower.cfg
        pieces = [annihilator._solve(tower, p, kmax) for p in (1, 2, 3)]
        members = annihilator._Memberships(tower, kmax, pieces)
        ops = [op for kind in ("minor2-L1", "minor2-L2", "minor3") for op in delta_ops(cfg, kind)]
        ops = rng.sample(ops, min(4, len(ops)))
        ops += [op for op, _e in degree2_families(cfg)["powers"]][:1]
        for op in ops:
            got = members.minor(op)
            assert got is sym_membership(op.sym, tower), op.label()
            verdicts.append((len(op.rows) in members.spans, got))
        sp = symbol_space(cfg.n)
        for op in ops:
            piece = pieces[len(op.rows) - 1]
            pure = [m for m in annihilator.monomials(sp, (piece.degree,)) if not m & piece.mask]
            rng.shuffle(pure)
            outside = next((m for m in pure if not piece.holds(Poly(sp, {m: 1}))), None)
            if outside is not None:
                sym = op.sym + Poly(sp, {outside: rng.choice([-2, 1, 3])})
                got = members.symbol(sym)
                assert got is sym_membership(sym, tower), op.label()
                verdicts.append((piece.degree in members.spans, got))

    check()
    assert {(True, True), (True, False)} <= set(verdicts)
    # where the piece and the membership read different rows, the symbol is applied
    tower = build_tower(Config(3, 2, 3, 0, 1), 3, "explicit")
    assert [len(rows) for rows in system_rows(tower)[0]] == [1, 0, 1, 0]
    assert not annihilator._reads_same_rows(tower, 2, 3)
    assert annihilator._reads_same_rows(tower, 2, 4) and annihilator._reads_same_rows(tower, 1, 3)


def test_minors_from_projected_entries():
    # projecting is a ring homomorphism: the minor of the projected entries
    # is the projection of the whole minor, for every family and layout
    rng = random.Random(7)
    for n in range(3, 7):
        ngens = len(generators(n))
        for n1 in range(1, n + 1):
            for n2 in range(n1, n + 1):
                cfg = Config(n, n1, n2, -1, -1)
                sp = symbol_space(n)
                splits = [predicted_level_preservers(cfg), rng.sample(range(ngens), rng.randint(1, ngens))]
                for kind in ("minor2-L1", "minor2-L2", "minor3", "minor3-J3J1"):
                    for op in delta_ops(cfg, kind):
                        for split in splits:
                            mask = annihilator._split_mask(sp, split)
                            whole = annihilator.project_pure(minor_symbol(cfg, op.rows, op.cols), mask)
                            assert op.projected(mask) == whole, (cfg, op.label(), split)


def test_zero_symbol_annihilates():
    zero = Poly.zero(symbol_space(CFG.n))
    tower = build_tower(CFG, 2, "explicit")
    assert sym_membership(zero, tower) is True
    assert system_rows(tower)[0][1:] == [[], []]
    # even the zero operator is refused on a tower that is not g-stable
    tampered = build_tower(CFG, 2, "explicit")
    _drop_new_row(tampered, 2)
    with pytest.raises(ValueError, match="^level 2 does not contain"):
        sym_membership(zero, tampered)


def test_tower_larger_than_the_closure_of_its_base():
    # a reducible configuration: the explicit tower is g-stable but has a
    # generator above M_0, which the systems keep; nothing claimed is lost
    cfg = Config(3, 2, 3, 0, 1)
    tower = build_tower(cfg, 3, "explicit")
    fresh, preservers = system_rows(tower)
    assert [len(rows) for rows in fresh] == [1, 0, 1, 0]
    claimed = predicted_level_preservers(cfg)
    assert preservers >= set(claimed)
    for p in (1, 2, 3):
        piece = compute_annihilator_piece(tower, p, 4, claimed)
        assert piece.split_symbols == (claimed if p >= 2 else [])
        vectors, stabilized = _stacked_oracle(tower, p, 4, piece.split_symbols)
        assert _spans_kernel(piece, vectors, pure=True) and piece.stabilized == stabilized


def test_preservers_are_checked_on_every_generating_row():
    # a row added to the top level is a generator above M_0, and a symbol
    # preserving M_0 but not that row must not be split off
    cfg = CFG
    tower = build_tower(cfg, 3, "explicit")
    tower.levels[3].insert(parse_poly(cfg.space, "x2^4*y1^3"))
    fresh, preservers = system_rows(tower)
    assert [len(rows) for rows in fresh] == [1, 0, 0, 1]
    gens = generators(cfg.n)

    def preserved(idx, levels):
        return all(
            tower.levels[j].contains(apply_generator_terms(cfg, gens[idx], row))
            for j in levels for row in tower.levels[j].rows.values()
        )

    assert preservers == {i for i in range(len(gens)) if preserved(i, range(4))}
    assert preservers < {i for i in range(len(gens)) if preserved(i, [0])}
    piece = compute_annihilator_piece(tower, 2, 4, predicted_level_preservers(cfg))
    assert set(piece.split_symbols) == preservers & set(predicted_level_preservers(cfg))
    vectors, stabilized = _stacked_oracle(tower, 2, 4, piece.split_symbols)
    assert _spans_kernel(piece, vectors, pure=True) and piece.stabilized == stabilized


def test_shallow_systems_raise():
    tower = build_tower(Config(4, 2, 2, -1, -1), 2, "explicit")
    with pytest.raises(ShallowSystemError):
        compute_annihilator_piece(tower, 3, 2)
    with pytest.raises(ShallowSystemError):
        degree1_report(tower, 1)
    for kmax in (0, 1):
        with pytest.raises(ShallowSystemError):
            verify_variety_presentation(Config(4, 2, 2, -1, -1), kmax)


def test_empty_base_is_a_shallow_system():
    # every layout with n <= 4 at kmax 3 passes the presentation, is skipped,
    # or raises ShallowSystemError, and it raises that exactly where M_0 is
    # zero: a system with no row to constrain says nothing
    shallow = 0
    layouts = [
        (n, n1, n2, l1, l2)
        for n in range(2, 5)
        for n1, n2 in itertools.combinations_with_replacement(range(1, n + 1), 2)
        for l1, l2 in itertools.product(range(-2, 3), repeat=2)
    ]
    for layout in layouts:
        cfg = Config(*layout)
        try:
            rep = verify_variety_presentation(cfg, 3)
        except (OutOfTheoremError, UnsupportedRegimeError):
            continue
        except ShallowSystemError as exc:
            assert build_M0(cfg).dim == 0 and "M_0 is zero" in str(exc), cfg
            shallow += 1
            continue
        assert rep["overall"] and build_M0(cfg).dim > 0, cfg
    assert shallow


def _full_depth(kmax):
    """A patch under which every tower the annihilator builds reaches depth
    kmax, as before the depth bound."""
    real = build_tower
    return mock.patch.object(
        annihilator, "build_tower", lambda cfg, depth, **kw: real(cfg, kmax, **kw)
    )


def _presentation_outcome(cfg, kmax, full_depth=False):
    """The fields of ``verify_variety_presentation`` that a tower depth
    could change, or the exception it raised."""
    try:
        with _full_depth(kmax) if full_depth else contextlib.nullcontext():
            rep = verify_variety_presentation(cfg, kmax)
    except ValueError as exc:
        return type(exc).__name__, str(exc)
    return {k: rep[k] for k in ("regime", "checks", "member_results", "stabilized", "overall")}


@pytest.mark.parametrize(
    "params, kmax, depth",
    [
        ((6, 2, 4, -1, -1), 5, 2),
        ((5, 2, 2, -1, -2), 4, 2),
        # reducible layouts whose explicit tower has rows above M_0: the
        # tower is rebuilt to depth kmax - 1
        ((3, 2, 3, 0, 1), 4, 3),
        ((5, 2, 3, 1, 0), 4, 3),
    ],
)
def test_depth_bounded_presentation_equals_full_depth(params, kmax, depth):
    cfg = Config(*params)
    assert presentation_tower(cfg, kmax).depth == depth
    with _full_depth(kmax):
        assert presentation_tower(cfg, kmax).depth == kmax
    bounded = _presentation_outcome(cfg, kmax)
    assert bounded["overall"] is True
    assert bounded == _presentation_outcome(cfg, kmax, full_depth=True)


def _degree2_outcome(cfg, kmax, full_depth=False):
    """The degree-1 and degree-2 payloads on ``degree2_tower``, or the
    exception raised."""
    try:
        with _full_depth(kmax) if full_depth else contextlib.nullcontext():
            tower = degree2_tower(cfg, kmax)
            i1 = degree1_report(tower, kmax)
            rep = verify_degree2(tower, kmax, i1)
    except ValueError as exc:
        return type(exc).__name__, str(exc)
    return suite.degree1_payload(i1), suite.degree2_payload(rep)


@pytest.mark.parametrize(
    "params, kmax, depth",
    [
        ((6, 2, 4, -1, -1), 4, 2),  # no power family
        ((5, 2, 4, -1, 2), 4, 2),  # D^3 reads M_5, beyond kmax
        ((6, 2, 4, -1, 1), 4, 4),  # D^2 reads M_3
        ((5, 1, 3, 1, -1), 3, 3),
        ((3, 2, 3, 0, 1), 4, 4),  # rows above M_0
    ],
)
def test_degree2_tower_reads_deeper_only_where_needed(params, kmax, depth):
    cfg = Config(*params)
    assert degree2_tower(cfg, kmax).depth == depth
    assert _degree2_outcome(cfg, kmax) == _degree2_outcome(cfg, kmax, full_depth=True)


@settings(max_examples=25, **_PROPERTY)
@given(
    st.integers(3, 5).flatmap(
        lambda n: st.tuples(
            st.just(n), st.integers(1, n), st.integers(1, n),
            st.integers(-2, 2), st.integers(-2, 2),
        )
    ),
    st.integers(3, 4),
)
def test_depth_bounded_presentation_equals_full_depth_on_random_layouts(params, kmax):
    n, a, b, l1, l2 = params
    cfg = Config(n, min(a, b), max(a, b), l1, l2)
    assert _presentation_outcome(cfg, kmax) == _presentation_outcome(cfg, kmax, full_depth=True)


@settings(max_examples=20, **_PROPERTY)
@given(supported_towers(), st.integers(1, 3))
def test_piece_reads_the_tower_only_to_its_target(tower_kmax, p):
    # on a tower that is U_k(g) M_0 the degree-p piece needs only M_0..M_{p-1};
    # on any other, a shorter tower is refused
    tower, kmax = tower_kmax
    assume(p <= kmax)
    cfg = tower.cfg
    claimed = predicted_level_preservers(cfg)
    short = build_tower(cfg, p - 1, "explicit")
    if _generated_by_base(tower):
        full = compute_annihilator_piece(tower, p, kmax, claimed)
        piece = compute_annihilator_piece(short, p, kmax, claimed)
        assert piece.blocks == full.blocks
        assert list(map(piece.orbit_size, piece.blocks)) == list(map(full.orbit_size, full.blocks))
        assert piece.split_symbols == full.split_symbols
        assert piece.stabilized == full.stabilized == (kmax > p)
    elif not _generated_by_base(short) and short.depth < kmax - 1:
        with pytest.raises(ValueError):
            compute_annihilator_piece(short, p, kmax, claimed)


def test_piece_without_a_target_level_raises_value_error():
    # (3,2,3,0,1) has a generating row at level 2: the degree-2 system at
    # kmax 4 must send it into M_3, which a depth-2 tower does not have
    cfg = Config(3, 2, 3, 0, 1)
    tower = build_tower(cfg, 2, "explicit")
    assert [len(rows) for rows in system_rows(tower)[0]] == [1, 0, 1]
    with pytest.raises(ValueError, match="too shallow"):
        compute_annihilator_piece(tower, 2, 4)
    # a tower that is U_k(g) M_0 still needs the target M_{p-1} itself
    closed = build_tower(Config(4, 2, 2, -1, -1), 1, "explicit")
    assert _generated_by_base(closed)
    with pytest.raises(ValueError, match="too shallow"):
        compute_annihilator_piece(closed, 3, 3)
    assert compute_annihilator_piece(closed, 2, 5).stabilized


# ---------------------------------------------------------------------------
# weight blocks, one solved per orbit of weights
# ---------------------------------------------------------------------------


def _no_permutation_certificate():
    """The permutation certificate patched to fail: the systems keep their
    weight blocks but solve every weight."""
    return mock.patch.object(annihilator, "block_permutations_commute", lambda *layout: False)


def _pieces(tower, kmax):
    """The degree 1 to min(kmax, 3) pieces, with the Cartan and off-L root
    symbols claimed."""
    claimed = predicted_level_preservers(tower.cfg)
    return [compute_annihilator_piece(tower, p, kmax, claimed) for p in range(1, min(kmax, 3) + 1)]


def _pieces_of_every_weight(cfg, kmax):
    with _no_permutation_certificate():
        tower = presentation_tower(cfg, kmax)
        assert not _permutes_base(tower)
        return _pieces(tower, kmax)


def _same_kernels(pieces, every_weight) -> bool:
    """Whether each piece is the kernel of its counterpart in
    ``every_weight``, pieces with no orbits: the same stabilization,
    unknowns and coordinate members, and the same pure kernel, read by
    :func:`_spans_kernel` from the block of every weight."""
    return len(pieces) == len(every_weight) and all(
        (got.stabilized, got.unknown_count, list(got.coordinate_members))
        == (want.stabilized, want.unknown_count, list(want.coordinate_members))
        and all(want.orbit_size(w) == 1 for w in want.blocks)
        and _spans_kernel(got, [v for block in want.blocks.values() for v in block], pure=True)
        for got, want in zip(pieces, every_weight)
    )


@st.composite
def presentation_layouts(draw, max_n=6):
    """(configuration, kmax) with n <= max_n and kmax 3 or 4."""
    n = draw(st.integers(3, max_n))
    n1 = draw(st.integers(1, n - 1))
    n2 = draw(st.integers(n1, n))
    cfg = Config(n, n1, n2, draw(st.integers(-2, 2)), draw(st.integers(-2, 2)))
    try:
        assume(build_M0(cfg).dim)  # an empty base is a shallow system
    except UnsupportedRegimeError:
        assume(False)
    return cfg, draw(st.integers(3, 4))


@settings(max_examples=25, **_PROPERTY)
@given(presentation_layouts())
@example((Config(6, 2, 4, -1, -1), 4))
@example((Config(5, 2, 2, -1, -2), 4))
@example((Config(6, 3, 3, -1, -2), 3))
# one row's kernel is not its orbit's here: a solve that took the kernel of
# one row for that of its orbit would solve too little
@example((Config(5, 2, 5, -1, 1), 3))
@example((Config(6, 1, 4, 1, -1), 4))
def test_orbit_walk_equals_walking_every_row(cfg_kmax):
    # one weight per orbit solved against every row of M_0, against every
    # weight solved: the same kernels
    cfg, kmax = cfg_kmax
    want = _pieces_of_every_weight(cfg, kmax)
    assert _same_kernels(_pieces(presentation_tower(cfg, kmax), kmax), want)


def _by_weight(sp, weights, vectors) -> dict:
    """Homogeneous kernel vectors by weight."""
    out: dict = {}
    for v in vectors:
        found = {weights.of(m) for m in v}
        assert len(found) == 1, "a kernel vector is not a weight vector"
        out.setdefault(found.pop(), []).append(v)
    return out


def _full_solve(tower, p, kmax, split):
    """The system the piece solves, on the rows of :func:`system_rows`,
    every column in one block (:func:`_one_block`)."""
    rows = system_rows(tower)[0][: kmax - p + 1]
    return _one_block(tower, p, rows + [[]] * (kmax - p + 1 - len(rows)), split)


@settings(max_examples=25, **_PROPERTY)
@given(presentation_layouts())
@example((Config(6, 2, 4, -1, -1), 4))
@example((Config(6, 3, 3, -1, -2), 3))
@example((Config(5, 2, 5, -1, 1), 3))
def test_blockwise_piece_has_the_span_and_dimensions_of_the_full_solve(cfg_kmax):
    # oracle: the whole stacked system, every column in one block
    cfg, kmax = cfg_kmax
    tower = presentation_tower(cfg, kmax)
    sp = symbol_space(cfg.n)
    for p in range(1, min(kmax, 3) + 1):
        piece = compute_annihilator_piece(tower, p, kmax, predicted_level_preservers(cfg))
        full, stabilized = _full_solve(tower, p, kmax, piece.split_symbols)
        assert piece.pure_dim == len(full)
        assert piece.dim == len(piece.coordinate_members) + len(full)
        assert piece.stabilized == stabilized
        weights = piece.weights
        assert weights is not None
        if p == 1 or not _permutes_base(tower):
            # the Cartan symbols are unknowns at degree 1: no orbit but a point
            assert all(piece.orbit_size(w) == 1 for w in piece.blocks)
        # every weight's block has the dimension of its representative's,
        # and every weight of an orbit is counted by its size
        found = _by_weight(sp, weights, full)
        for w, vectors in found.items():
            assert len(vectors) == len(piece.blocks[weights.sorter(w)[0]])
        sizes: dict = {}
        for w in found:
            rep = weights.sorter(w)[0]
            sizes[rep] = sizes.get(rep, 0) + 1
        assert all(weights.orbit_size(rep) == size for rep, size in sizes.items())
        # each kernel vector, of any weight, is read as a member, and a
        # vector of another weight than its own block's is not
        assert all(piece.holds(Poly(sp, v)) for v in full)
        moved = [
            (w, v) for w, vectors in found.items() for v in vectors
            if weights.sorter(w)[1] is not None
        ]
        for w, v in moved[:5]:
            assert not piece.span(weights.sorter(w)[0]).contains(v)


@pytest.mark.parametrize("params, p, kmax, weights, orbits, columns", [
    ((8, 2, 6, -1, -1), 3, 3, 885, 52, 128),
    ((8, 2, 6, -1, -1), 2, 3, 169, 18, 26),
    ((6, 2, 4, -1, -1), 3, 4, 219, 44, 84),
], ids=str)
def test_weight_blocks_and_orbits_are_pinned(params, p, kmax, weights, orbits, columns):
    cfg = Config(*params)
    tower = presentation_tower(cfg, kmax)
    piece = compute_annihilator_piece(tower, p, kmax, predicted_level_preservers(cfg))
    assert piece.weights.orbits
    assert len(piece.blocks) == orbits
    assert sum(piece.weights.orbit_size(w) for w in piece.blocks) == weights
    alphabet = [i for i in range(len(generators(cfg.n))) if i not in piece.split_symbols]
    words = annihilator._words_by_weight(piece.weights, alphabet, p)
    assert list(words) == list(piece.blocks)
    assert sum(map(len, words.values())) == columns
    # every representative lists the words of its weight in
    # combinations_with_replacement order, and no other weight is walked;
    # with no orbits every weight is listed
    every: dict = {}
    for word in itertools.combinations_with_replacement(alphabet, p):
        every.setdefault(sum(piece.weights.position[g] for g in word), []).append(word)
    assert sum(map(len, every.values())) == comb(len(alphabet) + p - 1, p)
    assert len(every) == weights
    assert all(words[w] == every[w] for w in words)
    assert annihilator._words_by_weight(Weights(cfg, symbol_space(cfg.n)), alphabet, p) == every


def test_symbol_weights_are_the_weight_shifts_of_the_applier():
    # each generator moves the Cartan eigenvalues of a monomial by its
    # symbol's weight: eps_a - eps_b for e_ab, and 0 for a Cartan symbol
    for cfg in (Config(4, 1, 3), Config(5, 2, 2), Config(5, 2, 4), Config(3, 3, 3)):
        weights = Weights(cfg, symbol_space(cfg.n))
        sp = cfg.space
        for g, gen in enumerate(generators(cfg.n)):
            mu = weights.entries(weights.position[g])
            shift = tuple(mu[r - 1] - mu[r] for r in range(1, cfg.n))
            if gen[0] == "h":
                assert not any(mu)
            for m in monomials(sp, range(3)):
                img = apply_generator_terms(cfg, gen, {m: 1})
                if img:
                    before = osc.weight(cfg, Poly(sp, {m: 1}))
                    after = osc.weight(cfg, Poly(sp, img))
                    assert after == tuple(a + b for a, b in zip(before, shift)), (cfg, gen, m)


def test_weight_orbits_and_their_relabellings():
    cfg = Config(7, 2, 5)
    weights = Weights(cfg, symbol_space(cfg.n), osc.block_transpositions(7, 2, 5))
    pack = lambda mu: sum(v << 8 * a for a, v in enumerate(mu))  # noqa: E731
    w = pack([0, -2, 1, 0, 1, 3, -3])
    rep, s = weights.sorter(w)
    assert weights.entries(rep) == [-2, 0, 0, 1, 1, -3, 3]
    assert weights.orbit_size(rep) == 2 * 3 * 2 == weights.orbit_size(w)
    assert weights.sorter(rep) == (rep, None)
    # s takes w to rep index by index, and the relabellings of rep reach
    # every other weight of its orbit once
    assert all(weights.entries(rep)[s[a] - 1] == weights.entries(w)[a - 1] for a in range(1, 8))
    # the weights of the orbit, every arrangement of rep's entries inside
    # each run, each sorted back to rep
    mu = weights.entries(rep)
    runs = [set(itertools.permutations(mu[lo:hi])) for lo, hi in weights.cuts]
    orbit = {pack(itertools.chain(*parts)) for parts in itertools.product(*runs)}
    assert len(orbit) == weights.orbit_size(rep) and w in orbit
    for v in orbit:
        back, t = weights.sorter(v)
        assert back == rep and (t is None) == (v == rep)
        assert t is None or all(mu[t[a] - 1] == weights.entries(v)[a - 1] for a in range(1, 8))
    assert weights.minor((3, 4), (1, 2)) == pack([-1, -1, 1, 1, 0, 0, 0])


def test_base_that_is_not_h_stable_is_one_block():
    # a tower whose M_0 is not h-stable keeps one block: its kernel is not a
    # sum of weight components, and a vector split by weight is no member
    cfg = Config(6, 2, 4, -1, -1)
    tower = build_tower(cfg, 3, "explicit")
    base = tower.levels[0]
    rows = list(base.rows.values())
    mixed = {}
    axpy(mixed, 1, rows[0])
    axpy(mixed, 1, rows[1])
    assert osc.weight(cfg, Poly(cfg.space, mixed)) is None
    skewed = FiltrationTower(cfg, "explicit", [echelon_from(cfg.space, [mixed])] + tower.levels[1:])
    _, preservers = system_rows(skewed)
    assert not preservers.issuperset(range(cfg.n - 1))
    sp = symbol_space(cfg.n)
    for p in (1, 2, 3):
        piece = compute_annihilator_piece(skewed, p, 4, predicted_level_preservers(cfg))
        full, _stabilized = _full_solve(skewed, p, 4, piece.split_symbols)
        assert piece.weights is None and piece.blocks == {None: full}
        assert all(piece.holds(Poly(sp, v)) for v in full)


def _relabelled(sp, terms, sigma):
    """``terms`` with x_a, y_a renamed x_sigma(a), y_sigma(a), through the
    exponent vectors (sigma maps 1..n, index 0 unused)."""
    out = {}
    for m, c in terms.items():
        exps = sp.unpack(m)
        new = [0] * sp.nvars
        for a in range(1, sp.n + 1):
            new[sp.x(sigma[a])] = exps[sp.x(a)]
            new[sp.y(sigma[a])] = exps[sp.y(a)]
        out[sp.pack(new)] = c
    return out


@pytest.mark.parametrize("params, kmax, orbits", [
    ((6, 2, 4, -1, -1), 4, [4]),
    ((5, 2, 2, -1, -2), 4, [6, 6]),
    ((8, 2, 6, -1, -1), 3, [4]),
    ((8, 3, 3, -1, -2), 4, [15, 30]),
], ids=str)
def test_rows_fall_into_orbits_of_the_block_permutations(params, kmax, orbits):
    # the rows of M_0 by orbit of the transpositions inside the blocks, read
    # through an unpack/pack oracle: each maps a row to plus or minus a row,
    # which is what lets the systems solve one weight per orbit
    cfg = Config(*params)
    tower = presentation_tower(cfg, kmax)
    rows = system_rows(tower)[0][0]
    index = {}
    for k, row in enumerate(rows):
        index[frozenset(row.items())] = k
        index[frozenset((m, -c) for m, c in row.items())] = k
    seen: set = set()
    sizes = []
    for start in range(len(rows)):
        if start in seen:
            continue
        orbit, todo = {start}, [start]
        while todo:
            k = todo.pop()
            for i in osc.block_transpositions(cfg.n, cfg.n1, cfg.n2):
                sigma = list(range(cfg.n + 1))
                sigma[i], sigma[i + 1] = i + 1, i
                j = index.get(frozenset(_relabelled(cfg.space, rows[k], sigma).items()))
                assert j is not None
                if j not in orbit:
                    orbit.add(j)
                    todo.append(j)
        seen |= orbit
        sizes.append(len(orbit))
    assert sizes == orbits
    assert _permutes_base(tower)
    # degree 1: the Cartan symbols are unknowns, so every weight is solved
    claimed = predicted_level_preservers(cfg)
    assert not compute_annihilator_piece(tower, 1, kmax, claimed).weights.orbits
    assert compute_annihilator_piece(tower, 2, kmax, claimed).weights.orbits


def test_rows_not_closed_under_the_transpositions_fall_back():
    # (4,4,4,-2,1): both certificates hold and the tower is U_k(g) M_0,
    # but a transposition inside J1 takes a row of M_0 off the rows
    cfg = Config(4, 4, 4, -2, 1)
    tower = presentation_tower(cfg, 3)
    assert _generated_by_base(tower)
    assert osc.applier_is_representation(4, 4, 4) and osc.block_permutations_commute(4, 4, 4)
    rows = system_rows(tower)[0][0]
    assert not _permutes_base(tower) and len(rows) == 20
    signed = [r for row in rows for r in (row, {m: -c for m, c in row.items()})]
    assert any(
        {swap(m): c for m, c in row.items()} not in signed
        for swap in map(partial(osc.transposer, cfg.space), osc.block_transpositions(4, 4, 4))
        for row in rows
    )
    assert _same_kernels(_pieces(tower, 3), _pieces_of_every_weight(cfg, 3))


def test_tower_with_rows_above_its_base_walks_every_row():
    # (6,2,4,-1,-1) without level 1: M_2 has rows beyond the closure of M_0
    cfg = Config(6, 2, 4, -1, -1)
    full = build_tower(cfg, 3, "explicit")
    skipped = FiltrationTower(cfg, "explicit", [full.levels[0], full.levels[2], full.levels[3]])
    assert not _generated_by_base(skipped)
    assert _permutes_base(full) and not _permutes_base(skipped)
    with _no_permutation_certificate():
        unpatched = FiltrationTower(cfg, "explicit", list(skipped.levels))
        want = _pieces(unpatched, 3)
    assert _same_kernels(_pieces(skipped, 3), want)


@pytest.fixture
def fresh_certificates():
    osc.applier_is_representation.cache_clear()
    osc.block_permutations_commute.cache_clear()
    yield
    osc.applier_is_representation.cache_clear()
    osc.block_permutations_commute.cache_clear()


def test_a_perturbed_root_form_fails_the_permutation_certificate(fresh_certificates):
    cfg = Config(6, 2, 4, -1, -1)
    want = _pieces_of_every_weight(cfg, 4)
    assert osc.block_permutations_commute(6, 2, 4)
    osc.block_permutations_commute.cache_clear()
    weyl_forms = osc.weyl_forms

    def perturbed(cfg):
        # E_13 doubled: the transposition (1 2) takes it to twice E_23
        forms = weyl_forms(cfg)
        forms["e", 1, 3] = {key: 2 * c for key, c in forms["e", 1, 3].items()}
        return forms

    with mock.patch.object(osc, "weyl_forms", perturbed):
        assert not osc.block_permutations_commute(6, 2, 4)
    # the cached verdict stands; the applier certificate reads the true forms
    assert osc.applier_is_representation(6, 2, 4)
    tower = presentation_tower(cfg, 4)
    assert not _permutes_base(tower)
    assert _same_kernels(_pieces(tower, 4), want)
