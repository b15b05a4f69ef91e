"""z-ring evaluations, minors, 3-chains, G-sets, graded kernel equalities."""

import itertools
import random
from fractions import Fraction
from unittest import mock

import pytest
import sympy
from hypothesis import given, settings
from hypothesis import strategies as st

from oscvar import detvar
from oscvar.detvar import (
    Evaluation,
    GMonomial,
    _canonical,
    _gset_buckets,
    _gset_tuples,
    _Images,
    _pairings,
    _z_images,
    enumerate_gset,
    extended_ring,
    has_3chain,
    minor_generators,
    phi,
    restricted_ring,
    verify_gset_independence,
    verify_minor2_kernel,
    verify_minor3_kernel,
)
from oscvar.linalg import EchelonBasis, kernel_of_columns
from oscvar.osc import Config, Weights
from oscvar.poly import Poly, monomials, parse_poly, xy_space, z_space


def from_exponents(space, terms):
    """The polynomial with terms {exponent tuple: coefficient}, zero
    coefficients dropped."""
    return Poly(space, {space.pack(e): c for e, c in terms.items() if c})


CFG = Config(5, 2, 3)  # J1 = {1,2}, J3 = {4,5}
ZR = restricted_ring(CFG)
EXT = extended_ring(CFG)
EXT7 = extended_ring(Config(7, 3, 4))  # J1 = {1,2,3}, J3 = {5,6,7}


def Z(text):
    return parse_poly(ZR, text)


def _evaluate(evaluation, p):
    """The image of p under a fresh evaluation of CFG on p's ring."""
    return Evaluation(CFG.n, p.space, evaluation).apply(p)


def test_phi_examples():
    assert str(_evaluate("x", Z("z4_1"))) == "x1*x4"
    assert _evaluate("x", Z("z4_1*z5_2 - z4_2*z5_1")).is_zero()
    assert str(_evaluate("y", Z("z4_1^2"))) == "y1^2*y4^2"
    assert str(phi(CFG, Poly.variable(EXT, EXT.z(6, 1)))) == "x1"
    assert str(phi(CFG, Poly.variable(EXT, EXT.z(4, 0)))) == "y4"
    assert str(phi(CFG, Poly.variable(EXT, EXT.z(4, 1)))) == "x1*x4 - y1*y4"


def test_phi_rejects_extended_input():
    with pytest.raises(ValueError):
        _evaluate("x", Poly.variable(EXT, EXT.z(6, 1)))


def test_phi_multiplicative_random():
    rng = random.Random(23)

    def rand_zpoly(space):
        terms = {}
        for _ in range(rng.randint(1, 4)):
            m = tuple(rng.randint(0, 2) for _ in range(space.nvars))
            terms[m] = rng.randint(-5, 5)
        return from_exponents(space, terms)

    for _ in range(15):
        a, b = rand_zpoly(ZR), rand_zpoly(ZR)
        for ev in "xy":
            assert _evaluate(ev, a * b) == _evaluate(ev, a) * _evaluate(ev, b)
        c, d = rand_zpoly(EXT), rand_zpoly(EXT)
        assert phi(CFG, c * d) == phi(CFG, c) * phi(CFG, d)


def test_minor_generator_counts_and_conventions():
    assert len(minor_generators(ZR, 2)) == 1
    assert minor_generators(ZR, 2)[0] == Z("z4_1*z5_2 - z4_2*z5_1")
    assert minor_generators(ZR, 3) == []  # t exceeds both set sizes
    assert len(minor_generators(z_space((6, 7, 8, 9), (1, 2, 3, 4)), 3)) == 16


def test_minor_generators_annihilated_by_phi():
    for g in minor_generators(ZR, 2):
        assert _evaluate("x", g).is_zero()
        assert _evaluate("y", g).is_zero()
    for g in minor_generators(EXT, 3):
        assert phi(CFG, g).is_zero()


def test_excluded_corner_is_zero_in_minors():
    # minors through the (n+1, 0) corner drop the corner term: on rows
    # {4, 5, 6} and columns {0, 1, 2} the two permutations through (6, 0)
    corner = parse_poly(
        EXT, "z4_0*z5_1*z6_2 - z4_0*z5_2*z6_1 - z4_1*z5_0*z6_2 + z4_2*z5_0*z6_1"
    )
    assert corner in minor_generators(EXT, 3)
    assert phi(CFG, corner).is_zero()


def test_chain_examples():
    assert has_3chain([(5, 1), (6, 2), (7, 3)])
    assert not has_3chain([(7, 1), (6, 2), (5, 3)])
    assert not has_3chain([(5, 1), (5, 2), (6, 3)])
    assert not has_3chain([])
    # repeats never extend a chain: strict inequalities
    assert not has_3chain([(1, 1), (1, 1), (2, 2), (2, 2)])


def _brute_3chain(pairs):
    for a, b, c in itertools.combinations(sorted(pairs), 3):
        if a[0] < b[0] < c[0] and a[1] < b[1] < c[1]:
            return True
    return False


def test_chain_detection_agrees_with_bruteforce():
    rng = random.Random(31)
    for _ in range(300):
        size = rng.randint(0, 10)
        pairs = [(rng.randint(0, 7), rng.randint(0, 7)) for _ in range(size)]
        assert has_3chain(pairs) == _brute_3chain(pairs)


def test_gset_examples():
    g1 = enumerate_gset(CFG, 1, 0, 0, (1,), ())
    assert g1 == [GMonomial((1,), (), ())]
    g2 = enumerate_gset(CFG, 0, 0, 2, (1, 2), (4, 5))
    assert {g.z_part for g in g2} == {((4, 1), (5, 2)), ((4, 2), (5, 1))}

    # a request where every assignment forces a 3-chain
    cfg = Config(7, 3, 4)  # J1 = {1,2,3}, J3 = {5,6,7}
    forced = enumerate_gset(cfg, 0, 0, 3, (1, 2, 3), (5, 6, 7))
    assert all(not has_3chain(g.index_pairs(cfg.n)) for g in forced)
    assert len(forced) == 5  # six pairings minus the single increasing one

    with pytest.raises(ValueError):
        enumerate_gset(CFG, 1, 0, 1, (1,), (4,))


def test_pairings_come_out_once_and_sorted():
    for rows, cols in [((5, 5, 6), (1, 1, 2)), ((5, 5, 5), (1, 2, 2)), ((5, 6, 6, 7), (1, 1, 2, 3))]:
        got = list(_pairings(rows, cols))
        assert len(got) == len(set(got))
        assert set(got) == {tuple(sorted(zip(rows, p))) for p in itertools.permutations(cols)}
        assert all(z == tuple(sorted(z)) for z in got)


def test_gset_revalidation():
    cfg = Config(7, 3, 4)
    rng = random.Random(5)
    for _ in range(20):
        k1, k2, k3 = rng.randint(0, 2), rng.randint(0, 2), rng.randint(0, 2)
        I1 = tuple(sorted(rng.choice(list(cfg.J1)) for _ in range(k1 + k3)))
        I3 = tuple(sorted(rng.choice(list(cfg.J3)) for _ in range(k2 + k3)))
        for g in enumerate_gset(cfg, k1, k2, k3, I1, I3):
            assert g.column_multiset() == I1
            assert g.row_multiset() == I3
            assert not has_3chain(g.index_pairs(cfg.n))
            assert g.x_part == tuple(sorted(g.x_part))
            assert g.z_part == tuple(sorted(g.z_part))


def test_minor2_kernel_small_sizes():
    rep = verify_minor2_kernel(CFG, 3)
    assert rep["all_equal"]
    assert rep["levels"][1]["dim_kernel_x"] == 0
    assert rep["levels"][2]["dim_kernel_x"] == 1
    # single-column block: the evaluation is injective
    rep1 = verify_minor2_kernel(Config(4, 1, 2), 3)
    assert rep1["all_equal"]
    assert all(d["dim_kernel_x"] == 0 for d in rep1["levels"])


def test_minor3_kernel_small():
    rep = verify_minor3_kernel(CFG, 3)
    assert rep["all_equal"]
    assert rep["levels"][0]["dim_kernel"] == 0
    assert rep["levels"][1]["dim_kernel"] == 0
    assert rep["levels"][2]["dim_kernel"] == 0
    assert rep["levels"][3]["dim_kernel"] == rep["levels"][3]["dim_ideal"] > 0


def test_gset_independence_small():
    rep = verify_gset_independence(CFG, 3)
    assert rep["all_independent"]
    assert rep["tuples_nonempty"] > 0


def _relabelled(sp, g, start, I1, I3):
    """The packed monomial of ``g``, a monomial with index multisets I1 and
    I3, relabelled onto their ``_canonical`` forms."""
    to = {**dict(zip(I1, _canonical(I1, start))), **dict(zip(I3, _canonical(I3, start)))}
    return GMonomial(
        tuple(to[i] for i in g.x_part),
        tuple(to[j] for j in g.y_part),
        tuple((to[j], to[i]) for j, i in g.z_part),
    ).exponents(sp)


def _assert_buckets_are_the_relabelled_gsets(cfg, bound):
    sp = extended_ring(cfg)
    start = detvar._run_starts(cfg, sp)
    buckets = _gset_buckets(cfg, sp, bound, start)
    canonical_keys = set()
    for total in range(bound + 1):
        for k1, k2, k3, I1, I3 in _gset_tuples(cfg, total):
            key = (k1, k2, _canonical(I1, start), _canonical(I3, start))
            got = buckets.get(key, [])
            gset = enumerate_gset(cfg, k1, k2, k3, I1, I3)
            want = {_relabelled(sp, g, start, I1, I3) for g in gset}
            assert len(got) == len(set(got)) == len(gset)
            assert set(got) == want
            if got:
                canonical_keys.add(key)
    assert canonical_keys == set(buckets)  # no bucket outside the tuples
    return start


def test_order_types_relabel_onto_the_first_values_of_each_run():
    joined = [0, 1, 1, 1, 4, 5, 5, 5, 8]  # (7,3,4): runs {1,2,3} and {5,6,7}
    assert _canonical((), joined) == ()
    assert _canonical((3,), joined) == (1,)
    assert _canonical((1, 3, 3), joined) == (1, 2, 2)
    assert _canonical((2, 2, 3), joined) == (1, 1, 2)
    assert _canonical((6, 7, 7), joined) == (5, 6, 6)
    assert _canonical((1, 2, 3), joined) == (1, 2, 3)
    # singleton runs: every multiset is its own order type
    assert _canonical((2, 3, 3), list(range(9))) == (2, 3, 3)
    # (7,3,4) to degree 5: 3,768 monomials in 908 canonical G-sets, the empty
    # one included, of the 13,791 chain-free monomials of degrees 1-5
    buckets = _gset_buckets(Config(7, 3, 4), EXT7, 5, joined)
    assert (len(buckets), sum(map(len, buckets.values()))) == (908, 3768)
    assert all(_canonical(I1, joined) == I1 for _, _, I1, _ in buckets)


@pytest.mark.parametrize(
    "params, bound",
    [((5, 2, 5), 3), ((5, 2, 2), 3), ((5, 2, 3), 0), ((7, 3, 4), 4)],
    ids=["J3-empty", "J2-empty", "bound-0", "7-3-4"],
)
def test_gset_buckets_match_enumerate_gset(params, bound):
    # every nonempty tuple reads the bucket of its canonical tuple, which
    # holds exactly its G-set relabelled
    start = _assert_buckets_are_the_relabelled_gsets(Config(*params), bound)
    if params == (7, 3, 4):  # runs {1,2,3} and {5,6,7}
        assert start == [0, 1, 1, 1, 4, 5, 5, 5, 8]


def _reference_failures(cfg, bound):
    """The failures of a per-tuple loop over ``enumerate_gset``."""
    sp = extended_ring(cfg)
    ev = Evaluation(cfg.n, sp, "phi")
    failures = []
    for total in range(1, bound + 1):
        for k1 in range(total + 1):
            for k2 in range(total - k1 + 1):
                k3 = total - k1 - k2
                for I1 in itertools.combinations_with_replacement(cfg.J1, k1 + k3):
                    for I3 in itertools.combinations_with_replacement(cfg.J3, k2 + k3):
                        gset = enumerate_gset(cfg, k1, k2, k3, I1, I3)
                        basis = EchelonBasis(xy_space(cfg.n))
                        rank = sum(basis.insert(ev(g.exponents(sp))) for g in gset)
                        if rank != len(gset):
                            failures.append(
                                {"k": [k1, k2, k3], "I1": list(I1), "I3": list(I3),
                                 "rank": rank, "size": len(gset)}
                            )
    return failures


@pytest.mark.parametrize(
    "image",
    # every image equal, or the monomials collapsed into seven classes
    [lambda m: {0: 1}, lambda m: {1 + m % 7: 1}],
    ids=["constant", "seven-classes"],
)
def test_gset_failures_match_the_per_tuple_reference(monkeypatch, image):
    monkeypatch.setattr(Evaluation, "__call__", lambda self, m: image(m))
    cfg = Config(6, 2, 4)
    want = _reference_failures(cfg, 3)
    assert want
    rep = verify_gset_independence(cfg, 3)
    assert rep["failures"] == want
    assert not rep["all_independent"]


# -- the memoized evaluation against sympy -------------------------------------

_PROPERTY = dict(deadline=None, derandomize=True, database=None)
_XY = {name: sympy.Symbol(name) for name in xy_space(CFG.n).names}
# (evaluation, ring) pairs: phi_x and phi_y live on the restricted ring only
_CASES = [("x", ZR), ("y", ZR), ("phi", EXT)]


def _z_image(evaluation, name):
    """The image of one z variable, written from the definitions alone."""
    j, i = map(int, name[1:].split("_"))
    x, y = (lambda a: _XY[f"x{a}"]), (lambda a: _XY[f"y{a}"])
    if evaluation == "x":
        return x(i) * x(j)
    if evaluation == "y":
        return y(i) * y(j)
    if j == CFG.n + 1:
        return x(i)
    if i == 0:
        return y(j)
    return x(i) * x(j) - y(i) * y(j)


def _sym(terms, images):
    """sum of c * prod(images[v] ** m[v]) over the terms, in sympy."""
    return sympy.Add(
        *[
            sympy.Rational(Fraction(c).numerator, Fraction(c).denominator)
            * sympy.Mul(*[img**e for img, e in zip(images, m)])
            for m, c in terms.items()
        ]
    )


def _matches(evaluation, ring, got: Poly, terms) -> bool:
    assert got.space is xy_space(CFG.n)
    assert all(got.terms.values()), "a zero coefficient is stored"
    want = _sym(terms, [_z_image(evaluation, name) for name in ring.names])
    decoded = {got.space.unpack(m): c for m, c in got.terms.items()}
    return sympy.expand(_sym(decoded, list(_XY.values())) - want) == 0


_COEFF = st.one_of(
    st.integers(-6, 6).filter(bool),
    st.fractions(min_value=-3, max_value=3, max_denominator=5).filter(bool),
)


def _zpolys(ring):
    """Term dicts of z-polynomials of degree <= 4 in ``ring``."""

    def exponents(positions):
        m = [0] * ring.nvars
        for pos in positions:
            m[pos] += 1
        return tuple(m)

    mono = st.lists(st.integers(0, ring.nvars - 1), max_size=4).map(exponents)
    return st.dictionaries(mono, _COEFF, min_size=1, max_size=4)


@settings(max_examples=40, **_PROPERTY)
@given(st.sampled_from(_CASES).flatmap(lambda c: st.tuples(st.just(c), _zpolys(c[1]))))
def test_evaluations_agree_with_sympy(case):
    (evaluation, ring), terms = case
    got = _evaluate(evaluation, from_exponents(ring, terms))
    assert _matches(evaluation, ring, got, terms)


@settings(max_examples=15, **_PROPERTY)
@given(
    st.sampled_from(_CASES).flatmap(
        lambda c: st.tuples(st.just(c), st.lists(_zpolys(c[1]), min_size=1, max_size=4))
    ),
    st.randoms(use_true_random=False),
)
def test_shared_evaluation_agrees_in_any_order(case, rng):
    # one evaluator across calls, so later calls hit what earlier ones memoized
    (evaluation, ring), polys = case
    ev = Evaluation(CFG.n, ring, evaluation)
    calls = polys * 2
    rng.shuffle(calls)
    for terms in calls:
        assert _matches(evaluation, ring, ev.apply(from_exponents(ring, terms)), terms)


@pytest.mark.parametrize("evaluation, ring", _CASES, ids=["phi_x", "phi_y", "phi"])
def test_memo_holds_only_proper_prefixes(evaluation, ring):
    ev = Evaluation(CFG.n, ring, evaluation)
    for k in range(1, 5):
        for m in monomials(ring, (k,)):
            ev(m)
        assert all(sum(ring.unpack(key)) < k for key in ev._memo)
        if k >= 2:
            assert any(sum(ring.unpack(key)) == k - 1 for key in ev._memo)


@settings(max_examples=30, **_PROPERTY)
@given(
    st.sampled_from(_CASES),
    st.integers(0, 3),
    st.randoms(use_true_random=False),
)
def test_kernel_over_the_sized_view_equals_the_list(case, degree, rng):
    evaluation, ring = case
    domain = list(monomials(ring, (degree,)))
    domain = rng.sample(domain, rng.randint(1, len(domain)))
    view = _Images(domain, Evaluation(CFG.n, ring, evaluation))
    images = [Evaluation(CFG.n, ring, evaluation)(m) for m in domain]
    assert len(view) == len(images)
    assert list(view) == images  # re-iterable, same columns in the same order
    assert kernel_of_columns(view) == kernel_of_columns(images)


# -- the graded kernel solve against the one-block solve -------------------------


def _one_block(check, cfg, degree):
    """The report of ``check`` with the grading certificate refused: every
    monomial of a degree in one block (``Weights.ungraded``), the solve of
    the whole degree."""
    def ungraded(cfg, space, *args):
        return Weights.ungraded(cfg, space)

    with mock.patch.object(detvar, "_grading", ungraded):
        return check(cfg, degree)


@st.composite
def _layouts(draw):
    """Layouts with n <= 7 and three nonempty blocks."""
    n = draw(st.integers(3, 7))
    n1 = draw(st.integers(1, n - 2))
    return Config(n, n1, draw(st.integers(n1 + 1, n - 1)))


@settings(max_examples=40, **_PROPERTY)
@given(_layouts())
def test_graded_kernels_equal_the_one_block_solve(cfg):
    # a report to degree 4 lists every degree <= 4
    assert verify_minor2_kernel(cfg, 4) == _one_block(verify_minor2_kernel, cfg, 4)
    assert verify_minor3_kernel(cfg, 4) == _one_block(verify_minor3_kernel, cfg, 4)


def test_graded_solve_reads_the_representative_columns(monkeypatch):
    # (7,3,4): orbits under (1 2), (2 3), (5 6), (6 7); of the 15,504
    # monomials of degree <= 5 the solves read 1,353, and at degree 5 the
    # 11,628 monomials leave 950 in 220 representative blocks
    cfg = Config(7, 3, 4)
    weights = detvar._grading(cfg, EXT7, ("phi",), minor_generators(EXT7, 3))
    assert weights.transpositions == (1, 2, 5, 6)
    *_, top = detvar._monomials_by_weight(EXT7, weights.position, 5, lambda d, w: True)
    blocks = [ms for w, ms in top.items() if weights.is_representative(w)]
    assert (len(blocks), sum(map(len, blocks)), sum(map(len, top.values()))) == (220, 950, 11628)
    # the solve groups only those at degree 5, the degree no complement reads
    *_, kept = detvar._monomials_by_weight(
        EXT7, weights.position, 5, lambda d, w: d <= 2 or weights.is_representative(w)
    )
    assert kept == dict(zip((w for w in top if weights.is_representative(w)), blocks))
    columns = []

    def counted(cols):
        columns.append(len(cols))
        return kernel_of_columns(cols)

    monkeypatch.setattr(detvar, "kernel_of_columns", counted)
    rep = verify_minor3_kernel(cfg, 5)
    assert sum(columns) == 1353
    assert sum(d["dim_domain"] for d in rep["levels"]) == 15504


def test_phi_y_is_phi_x_with_x_and_y_swapped():
    for n in range(3, 9):
        for n1 in range(1, n - 1):
            for n2 in range(n1, n):
                ring = restricted_ring(Config(n, n1, n2))
                assert detvar._mirrors(n, ring, "x", "y"), (n, n1, n2)
                assert not detvar._mirrors(n, ring, "x", "x")


def _solves(monkeypatch):
    """Count the kernel solves of ``_kernel_basis``."""
    calls = []
    solve = detvar._kernel_basis

    def counted(space, domain, evaluate):
        calls.append(evaluate)
        return solve(space, domain, evaluate)

    monkeypatch.setattr(detvar, "_kernel_basis", counted)
    return calls


def test_the_y_kernel_is_read_off_the_x_solve(monkeypatch):
    cfg = Config(7, 3, 4)
    want = _one_block(verify_minor2_kernel, cfg, 4)
    calls = _solves(monkeypatch)
    rep = verify_minor2_kernel(cfg, 4)
    assert rep == want  # the one-block solve still solves both
    assert calls and all(ev is calls[0] for ev in calls)  # phi_x alone is solved
    assert all(d["dim_kernel_y"] == d["dim_kernel_x"] for d in rep["levels"])


def test_a_y_table_that_is_no_mirror_is_solved_again(monkeypatch):
    # z_{5,1} -> -y_1 y_5 under phi_y: the kernel has the same dimension
    # but no longer holds the minors through z_{5,1}, which only a second
    # solve sees
    cfg = Config(6, 2, 4)
    ring = restricted_ring(cfg)

    def images(n, space, evaluation, table=detvar._z_images):
        out = table(n, space, evaluation)
        if evaluation == "y":
            out = dict(out)
            out[space.z(5, 1)] = -out[space.z(5, 1)]
        return out

    monkeypatch.setattr(detvar, "_z_images", images)
    assert not detvar._mirrors(cfg.n, ring, "x", "y")
    calls = _solves(monkeypatch)
    rep = verify_minor2_kernel(cfg, 3)
    assert len({id(ev) for ev in calls}) == 2
    assert [d["equal"] for d in rep["levels"]] == [True, True, False, False]
    assert all(d["dim_kernel_y"] == d["dim_kernel_x"] for d in rep["levels"])


def test_a_wrong_orbit_size_changes_the_report(monkeypatch):
    cfg = Config(7, 3, 4)
    want = _one_block(verify_minor3_kernel, cfg, 3)
    size = Weights.orbit_size
    monkeypatch.setattr(Weights, "orbit_size", lambda self, w: size(self, w) + 1)
    assert verify_minor3_kernel(cfg, 3) != want


def test_a_dropped_minor_refuses_orbits_and_fails(monkeypatch):
    cfg = Config(7, 3, 4)
    minors = minor_generators(EXT7, 3)
    assert detvar._grading(cfg, EXT7, ("phi",), minors).orbits
    assert not detvar._grading(cfg, EXT7, ("phi",), minors[1:]).orbits
    monkeypatch.setattr(detvar, "minor_generators", lambda sp, t: minor_generators(sp, t)[1:])
    rep = verify_minor3_kernel(cfg, 4)
    assert [d["equal"] for d in rep["levels"]] == [True, True, True, False, False]
    assert rep["levels"][3]["dim_ideal"] == rep["levels"][3]["dim_kernel"] - 1
    assert rep == _one_block(verify_minor3_kernel, cfg, 4)


def test_a_weight_on_column_zero_is_refused(monkeypatch):
    cfg = Config(7, 3, 4)
    column0 = {EXT7.z(j, 0) for j in cfg.J3}

    class ColumnZeroWeighted(Weights):
        def __init__(self, *args):
            super().__init__(*args)
            self.position = tuple(
                w + (pos in column0) for pos, w in enumerate(self.position)  # + eps_1
            )

    monkeypatch.setattr(detvar, "Weights", ColumnZeroWeighted)
    weights = detvar._grading(cfg, EXT7, ("phi",), minor_generators(EXT7, 3))
    assert not weights.orbits and not any(weights.position)  # one block
    assert verify_minor3_kernel(cfg, 4) == _one_block(verify_minor3_kernel, cfg, 4)


# -- G-sets by order type against the every-bucket walk ----------------------------


def _every_bucket_report(cfg, bound):
    """The G-set report of a walk that buckets every chain-free monomial
    under its own tuple and ranks every nonempty tuple: the check without
    relabelling, kept as the oracle."""
    sp = extended_ring(cfg)
    ev = Evaluation(cfg.n, sp, "phi")
    top = cfg.n + 1
    factors = [(j, i, sp.unit[sp.z(j, i)]) for j in sp.rows for i in sp.cols
               if (j, i) not in sp.excluded]
    checked, nonempty, failures = 0, 0, []
    for total in range(1, bound + 1):
        buckets = {}
        for combo in itertools.combinations_with_replacement(factors, total):
            if has_3chain([(j, i) for j, i, _ in combo]):
                continue
            k1 = sum(j == top for j, _, _ in combo)
            k2 = sum(i == 0 for _, i, _ in combo)
            I1 = tuple(sorted(i for _, i, _ in combo if i))
            I3 = tuple(sorted(j for j, _, _ in combo if j != top))
            buckets.setdefault((k1, k2, I1, I3), []).append(sum(u for *_, u in combo))
        for k1, k2, k3, I1, I3 in _gset_tuples(cfg, total):
            checked += 1
            gset = buckets.get((k1, k2, I1, I3))
            if not gset:
                continue
            nonempty += 1
            basis = EchelonBasis(xy_space(cfg.n))
            rank = sum(basis.insert(ev(m)) for m in gset)
            if rank != len(gset):
                failures.append(
                    {"k": [k1, k2, k3], "I1": list(I1), "I3": list(I3),
                     "rank": rank, "size": len(gset)}
                )
    return {
        "bound": bound,
        "tuples_checked": checked,
        "tuples_nonempty": nonempty,
        "failures": failures,
        "all_independent": not failures,
    }


@st.composite
def _gset_layouts(draw):
    """Layouts with n <= 8 and nonempty J1 and J3 (J2 may be empty)."""
    n = draw(st.integers(3, 8))
    n1 = draw(st.integers(1, n - 1))
    return Config(n, n1, draw(st.integers(n1, n - 1)))


@settings(max_examples=20, **_PROPERTY)
@given(_gset_layouts())
def test_gset_report_equals_the_every_bucket_walk(cfg):
    # a report to degree 4 lists every tuple of degree <= 4
    assert verify_gset_independence(cfg, 4) == _every_bucket_report(cfg, 4)


@settings(max_examples=15, **_PROPERTY)
@given(_gset_layouts())
def test_gset_buckets_are_the_relabelled_gsets(cfg):
    _assert_buckets_are_the_relabelled_gsets(cfg, 3)


def _patched_images(image):
    """phi's image table with each J3 x J1 variable z_{j,i} sent to
    ``image(target, i, j)`` instead."""

    def images(n, ring, evaluation):
        table = dict(_z_images(n, ring, evaluation))
        target = xy_space(n)
        for j in ring.rows:
            for i in ring.cols:
                if i and j <= n:
                    table[ring.z(j, i)] = Poly(target, image(target, i, j))
        return table

    return images


def _xx(target, i, j):
    return {target.unit[target.x(i)] + target.unit[target.x(j)]: 1}


# the runs of every layout with n <= 7: start[a] for a = 0..n+1, one digit each
_RUN_STARTS = {
    (2, 1, 1): '0123', (2, 1, 2): '0123', (2, 2, 2): '0113',
    (3, 1, 1): '01224', (3, 1, 2): '01234', (3, 1, 3): '01234', (3, 2, 2): '01134',
    (3, 2, 3): '01134', (3, 3, 3): '01114',
    (4, 1, 1): '012225', (4, 1, 2): '012335', (4, 1, 3): '012345', (4, 1, 4): '012345',
    (4, 2, 2): '011335', (4, 2, 3): '011345', (4, 2, 4): '011345', (4, 3, 3): '011145',
    (4, 3, 4): '011145', (4, 4, 4): '011115',
    (5, 1, 1): '0122226', (5, 1, 2): '0123336', (5, 1, 3): '0123446', (5, 1, 4): '0123456',
    (5, 1, 5): '0123456', (5, 2, 2): '0113336', (5, 2, 3): '0113446', (5, 2, 4): '0113456',
    (5, 2, 5): '0113456', (5, 3, 3): '0111446', (5, 3, 4): '0111456', (5, 3, 5): '0111456',
    (5, 4, 4): '0111156', (5, 4, 5): '0111156', (5, 5, 5): '0111116',
    (6, 1, 1): '01222227', (6, 1, 2): '01233337', (6, 1, 3): '01234447', (6, 1, 4): '01234557',
    (6, 1, 5): '01234567', (6, 1, 6): '01234567', (6, 2, 2): '01133337', (6, 2, 3): '01134447',
    (6, 2, 4): '01134557', (6, 2, 5): '01134567', (6, 2, 6): '01134567', (6, 3, 3): '01114447',
    (6, 3, 4): '01114557', (6, 3, 5): '01114567', (6, 3, 6): '01114567', (6, 4, 4): '01111557',
    (6, 4, 5): '01111567', (6, 4, 6): '01111567', (6, 5, 5): '01111167', (6, 5, 6): '01111167',
    (6, 6, 6): '01111117',
    (7, 1, 1): '012222228', (7, 1, 2): '012333338', (7, 1, 3): '012344448',
    (7, 1, 4): '012345558', (7, 1, 5): '012345668', (7, 1, 6): '012345678',
    (7, 1, 7): '012345678', (7, 2, 2): '011333338', (7, 2, 3): '011344448',
    (7, 2, 4): '011345558', (7, 2, 5): '011345668', (7, 2, 6): '011345678',
    (7, 2, 7): '011345678', (7, 3, 3): '011144448', (7, 3, 4): '011145558',
    (7, 3, 5): '011145668', (7, 3, 6): '011145678', (7, 3, 7): '011145678',
    (7, 4, 4): '011115558', (7, 4, 5): '011115668', (7, 4, 6): '011115678',
    (7, 4, 7): '011115678', (7, 5, 5): '011111668', (7, 5, 6): '011111678',
    (7, 5, 7): '011111678', (7, 6, 6): '011111178', (7, 6, 7): '011111178',
    (7, 7, 7): '011111118',
}


def test_run_starts_are_pinned():
    # every transposition inside J1 and inside J3 is certified, so each of
    # J1 and J3 is one run; J2, column 0 and row n+1 are runs of their own
    assert len(_RUN_STARTS) == 83
    for layout, starts in _RUN_STARTS.items():
        cfg = Config(*layout)
        assert detvar._run_starts(cfg, extended_ring(cfg)) == [int(c) for c in starts], layout


def test_an_equivariant_table_with_failures_reads_them_per_order_type(monkeypatch):
    # z_{j,i} -> x_i x_j: equivariant, so the runs are kept, but a G-set's
    # images collide wherever two monomials share their x content
    monkeypatch.setattr(detvar, "_z_images", _patched_images(_xx))
    cfg = Config(7, 3, 4)
    assert detvar._run_starts(cfg, EXT7) == [0, 1, 1, 1, 4, 5, 5, 5, 8]
    rep = verify_gset_independence(cfg, 4)
    assert len(rep["failures"]) == 803
    assert rep["failures"] == _reference_failures(cfg, 4)


def test_a_table_that_is_not_equivariant_is_refused(monkeypatch):
    # z_{7,3} alone keeps phi's image and the others go to x_i x_j: (2 3)
    # no longer commutes with the evaluation, so each index is its own run
    def image(target, i, j):
        terms = _xx(target, i, j)
        if (j, i) == (7, 3):
            terms[target.unit[target.y(i)] + target.unit[target.y(j)]] = -1
        return terms

    monkeypatch.setattr(detvar, "_z_images", _patched_images(image))
    cfg = Config(7, 3, 4)
    assert detvar._run_starts(cfg, EXT7) == list(range(9))
    rep = verify_gset_independence(cfg, 4)
    assert len(rep["failures"]) == 663
    assert rep == _every_bucket_report(cfg, 4)
