"""Echelon spans: determinism, membership, kernels, dense cross-check."""

import itertools
import random
from fractions import Fraction

import pytest
import sympy
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from oscvar.linalg import (
    EchelonBasis,
    _int_terms,
    canonical_levels,
    echelon_from,
    kernel_of_columns,
    span_equal,
)
from oscvar.poly import Poly, SpaceMismatchError, parse_poly, xy_space, z_space


def from_exponents(space, terms):
    """The polynomial with terms {exponent tuple: coefficient}, zero
    coefficients dropped."""
    return Poly(space, {space.pack(e): c for e, c in terms.items() if c})


SP = xy_space(3)


def P(text):
    return parse_poly(SP, text)


def test_insert_examples():
    b = EchelonBasis(SP)
    assert b.insert(P("x1"))
    assert b.dim == 1
    assert not b.insert(P("2*x1"))
    assert b.dim == 1

    b = EchelonBasis(SP)
    assert b.insert(P("x1 + x2"))
    assert b.insert(P("x1 - x2"))
    assert not b.insert(P("x2"))
    assert b.dim == 2


def test_echelon_insertion_order_invariance():
    rng = random.Random(5)
    polys = []
    for _ in range(8):
        terms = {
            tuple(rng.randint(0, 2) for _ in range(SP.nvars)): rng.randint(-6, 6)
            for _ in range(3)
        }
        polys.append(from_exponents(SP, terms))
    canon = None
    for _ in range(10):
        rng.shuffle(polys)
        b = echelon_from(SP, polys)
        rows = tuple(r.render() for r in b.sorted_rows())
        if canon is None:
            canon = rows
        assert rows == canon


def _dense_rank(vectors, monomials):
    """Plain fraction Gaussian elimination on a dense matrix."""
    idx = {m: i for i, m in enumerate(monomials)}
    mat = []
    for v in vectors:
        row = [Fraction(0)] * len(monomials)
        for m, c in v.terms.items():
            row[idx[m]] = Fraction(c)
        mat.append(row)
    rank = 0
    for col in range(len(monomials)):
        piv = next((r for r in range(rank, len(mat)) if mat[r][col]), None)
        if piv is None:
            continue
        mat[rank], mat[piv] = mat[piv], mat[rank]
        lead = mat[rank][col]
        for r in range(len(mat)):
            if r != rank and mat[r][col]:
                f = mat[r][col] / lead
                mat[r] = [a - f * b for a, b in zip(mat[r], mat[rank])]
        rank += 1
    return rank


def test_membership_matches_dense_rank():
    rng = random.Random(13)
    for _ in range(15):
        mons = sorted(
            {
                tuple(rng.randint(0, 2) for _ in range(SP.nvars))
                for _ in range(rng.randint(5, 12))
            }
        )
        vectors = []
        for _ in range(rng.randint(2, 6)):
            terms = {m: rng.randint(-4, 4) for m in rng.sample(mons, 3)}
            vectors.append(from_exponents(SP, terms))
        probe_terms = {m: rng.randint(-4, 4) for m in rng.sample(mons, 3)}
        probe = from_exponents(SP, probe_terms)
        basis = echelon_from(SP, vectors)
        member = basis.contains(probe)
        packed = [SP.pack(m) for m in mons]
        r1 = _dense_rank([v for v in vectors if v], packed)
        r2 = _dense_rank([v for v in vectors if v] + ([probe] if probe else []), packed)
        assert member == (r1 == r2)
        red, scale = basis.reduce_scaled(probe.terms)
        assert scale > 0 and (not red) == member


def test_reduce_is_identity_on_normal_forms():
    b = echelon_from(SP, [P("x1 + y1"), P("x2")])
    f = P("x1 + x2 + y2")
    r, scale = b.reduce_scaled(f.terms)
    # residue r / scale has no pivot monomials and differs from f by the span
    assert not r.keys() & b.rows.keys()
    assert b.contains(f.scale(scale) - Poly(SP, r))
    assert b.reduce_scaled(r) == (r, 1)


def test_kernel_examples():
    assert kernel_of_columns([P("x1").terms, P("x2").terms]) == []
    assert len(kernel_of_columns([{}, {}, {}])) == 3

    # ten degree-two monomials in a 2x2 z block: the single relation is the minor
    zs = z_space((4, 5), (1, 2))
    xy5 = xy_space(5)
    img = {
        zs.z(j, i): parse_poly(xy5, f"x{i}*x{j}") for j in (4, 5) for i in (1, 2)
    }
    dom = []
    for combo in itertools.combinations_with_replacement(range(zs.nvars), 2):
        m = [0] * zs.nvars
        for pos in combo:
            m[pos] += 1
        dom.append(Poly.monomial(zs, zs.pack(m)))
    assert len(dom) == 10
    kern = kernel_of_columns([p.substitute(img, xy5).terms for p in dom])
    assert len(kern) == 1
    vec = kern[0]
    rebuilt = Poly.zero(zs)
    for i, c in vec.items():
        rebuilt = rebuilt + dom[i].scale(c)
    minor = parse_poly(zs, "z4_1*z5_2 - z4_2*z5_1")
    assert rebuilt == minor or rebuilt == -minor


def test_kernel_with_fractional_images():
    # denominators in images must not corrupt the tracked combinations
    images = {0: P("1/2*y1"), 1: P("1/3*y1")}
    kern = kernel_of_columns([images[0].terms, images[1].terms])
    assert len(kern) == 1
    (vec,) = kern
    assert vec in ({0: 2, 1: -3}, {0: -2, 1: 3})
    img_total = Poly.zero(SP)
    for i, c in vec.items():
        img_total = img_total + images[i].scale(c)
    assert img_total.is_zero()


def test_span_equal_two_sided():
    a = echelon_from(SP, [P("x1"), P("x2")])
    b = echelon_from(SP, [P("x1 + x2"), P("x1 - x2")])
    c = echelon_from(SP, [P("x1"), P("y1")])
    assert span_equal(a, b)
    assert not span_equal(a, c)


def test_span_queries_across_spaces_raise():
    # packed keys mean different monomials in different spaces: z4_3, the
    # last of six z variables, packs to the same int as y3 in xy_space(3)
    xy = echelon_from(SP, [P("y3")])
    zs = z_space((3, 4), (1, 2, 3))
    z = Poly.variable(zs, zs.z(4, 3))
    assert z.terms.keys() == P("y3").terms.keys()
    zb = echelon_from(zs, [z])
    for query in (
        lambda: xy.contains(z),
        lambda: xy.contains_span(zb),
        lambda: zb.contains_span(xy),
        lambda: span_equal(xy, zb),
        lambda: span_equal(echelon_from(SP, [P("y3"), P("x1")]), zb),  # unequal dims
        lambda: xy.insert(z),
    ):
        with pytest.raises(SpaceMismatchError):
            query()
    # equal spaces built apart are the same space
    twin = echelon_from(xy_space(3), [P("y3")])
    assert span_equal(xy, twin) and xy.contains(P("2*y3"))


# -- sympy as an independent oracle ----------------------------------------------

# Mostly zeros, so the matrices are sparse and often rank-deficient.
_ENTRY = st.one_of(
    st.just(0),
    st.just(0),
    st.integers(-3, 3),
    st.fractions(min_value=-3, max_value=3, max_denominator=4),
)


@st.composite
def _matrix_pairs(draw):
    """Two small matrices with the same number of columns."""
    ncols = draw(st.integers(1, 5))

    def matrix():
        return [[draw(_ENTRY) for _ in range(ncols)] for _ in range(draw(st.integers(1, 5)))]

    return matrix(), matrix()


def _sym(rows):
    return sympy.Matrix([[sympy.Rational(v.numerator, v.denominator) for v in r] for r in rows])


def _span(rows):
    """The span of the rows of a matrix, column j keyed by the variable at
    position j of ``SP``."""
    return echelon_from(SP, [{SP.unit[j]: v for j, v in enumerate(r) if v} for r in rows])


@settings(
    max_examples=150,
    deadline=None,
    derandomize=True,
    database=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(_matrix_pairs())
def test_rank_kernel_and_span_equality_agree_with_sympy(pair):
    a, b = pair
    A, B = _sym(a), _sym(b)
    rank_a = A.rank()
    assert _span(a).dim == rank_a
    columns = [{(i,): r[j] for i, r in enumerate(a) if r[j]} for j in range(A.cols)]
    kernel = kernel_of_columns(columns)
    assert len(kernel) == len(A.nullspace())
    vectors = [[vec.get(j, 0) for j in range(A.cols)] for vec in kernel]
    for v in vectors:
        assert A * _sym([v]).T == sympy.zeros(A.rows, 1)
    if vectors:
        assert _sym(vectors).rank() == len(vectors)
    same_span = rank_a == B.rank() == A.col_join(B).rank()
    assert span_equal(_span(a), _span(b)) == same_span


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(
    st.dictionaries(
        st.tuples(st.integers(0, 2), st.integers(0, 2)),
        st.integers(-9, 9).filter(bool),
        min_size=1,
        max_size=5,
    ),
    st.integers(2, 6),
)
def test_int_terms_agree_on_int_and_fraction_coefficients(terms, d):
    as_int = _int_terms(terms)
    assert as_int == (terms, 1)
    assert as_int[0] is not terms  # callers reduce the row in place
    whole = _int_terms({m: Fraction(c) for m, c in terms.items()})
    assert whole == as_int
    fractional = {m: Fraction(c, d) for m, c in terms.items()}
    row, mult = _int_terms(fractional)
    assert row.keys() == terms.keys()
    assert all(row[m] == c * mult for m, c in fractional.items())
    for result in (as_int, whole, (row, mult)):
        assert all(type(v) is int for v in result[0].values())


# x_i y_j, packed in SP, for i, j in 1..3
_ROW = st.dictionaries(
    st.builds(lambda i, j: SP.unit[i] + SP.unit[3 + j], st.integers(0, 2), st.integers(0, 2)),
    st.one_of(
        st.integers(-5, 5).filter(bool),
        st.fractions(min_value=-3, max_value=3, max_denominator=4).filter(bool),
    ),
    min_size=1,
    max_size=5,
)


def _items(dicts):
    """A deep snapshot, key order included, of a list or a dict of rows."""
    if isinstance(dicts, dict):
        return [(piv, list(row.items())) for piv, row in dicts.items()]
    return [list(d.items()) for d in dicts]


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(st.lists(_ROW, min_size=1, max_size=6), st.lists(_ROW, min_size=1, max_size=4))
def test_stored_rows_and_inputs_are_never_mutated(stored, queries):
    inputs = _items(stored + queries)
    basis = echelon_from(SP, stored)
    before = _items(basis.rows)
    for q in queries:
        basis.contains(q)
        basis.reduce_scaled(q)
    basis.canonical_rows()
    copied = basis.copy()  # shares the row dicts with basis
    for q in queries:
        copied.insert(q)
    kernel_of_columns(list(basis.rows.values()) + queries)
    assert _items(basis.rows) == before
    for q in queries:
        basis.insert(q)
    assert _items(basis.rows)[: len(before)] == before
    assert _items(stored + queries) == inputs


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(st.lists(st.lists(_ROW, max_size=4), min_size=1, max_size=4), st.booleans())
def test_canonical_levels_match_each_level_reduced_alone(batches, nested):
    # each level a copy of the one below plus a batch (sharing its row
    # dicts), or, not nested, the span of its batch alone
    levels = []
    for batch in batches:
        if nested:
            level = levels[-1].copy() if levels else EchelonBasis(SP)
            level.extend(batch)
        else:
            level = echelon_from(SP, batch)
        levels.append(level)
    snapshot = [_items(level.rows) for level in levels]
    # the canonical rows do not depend on the order of insertion
    alone = [echelon_from(SP, reversed(level.rows.values())).canonical_rows() for level in levels]
    assert canonical_levels(levels) == alone
    assert [_items(level.rows) for level in levels] == snapshot
