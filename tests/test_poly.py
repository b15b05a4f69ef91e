"""Polynomial arithmetic: exactness, pinned examples, algebraic laws."""

import random
from fractions import Fraction

import pytest
import sympy
from hypothesis import given, settings
from hypothesis import strategies as st

from oscvar.detvar import Evaluation
from oscvar.osc import Config, apply_generator, generators, laplace
from oscvar.poly import (
    DEGREE_LIMIT,
    Poly,
    SpaceMismatchError,
    add_term,
    axpy,
    determinant,
    parse_poly,
    symbol_space,
    xy_space,
    z_space,
)


def from_exponents(space, terms):
    """The polynomial with terms {exponent tuple: coefficient}, zero
    coefficients dropped."""
    return Poly(space, {space.pack(e): c for e, c in terms.items() if c})


SP = xy_space(3)


def P(text):
    return parse_poly(SP, text)


def test_add_examples():
    assert (P("x1") + P("-x1")).is_zero()
    assert P("x1*x2") + P("x1*x2") == P("2*x1*x2")
    assert P("y1 + x1*x2*y2") + P("-y1") == P("x1*x2*y2")


def test_mul_examples():
    f = P("x1*x3 - y1*y3")
    assert f * P("1") == f
    assert f * f == P("x1^2*x3^2 - 2*x1*x3*y1*y3 + y1^2*y3^2")
    assert P("x1") * P("y1") == P("x1*y1")
    # a single-term factor, on either side, shifts the other's terms
    g = P("-3/2*x2*y1")
    assert g * f == f * g == P("-3/2*x1*x2*x3*y1 + 3/2*x2*y1^2*y3")


def test_substitute_examples():
    f = P("x1*x3 - y1*y3")
    got = f.substitute(
        {SP.x(1): Poly.zero(SP), SP.y(1): Poly.constant(SP, 1)}, SP
    )
    assert got == P("-y3")

    zs = z_space((4, 5), (1, 2))
    xy5 = xy_space(5)
    img = {
        zs.z(j, i): parse_poly(xy5, f"x{i}*x{j}")
        for j in (4, 5)
        for i in (1, 2)
    }
    assert parse_poly(zs, "z4_1").substitute(img, xy5) == parse_poly(xy5, "x1*x4")
    minor = parse_poly(zs, "z4_1*z5_2 - z4_2*z5_1")
    assert minor.substitute(img, xy5).is_zero()


def test_space_mismatch_rejected():
    other = xy_space(4)
    with pytest.raises(SpaceMismatchError):
        P("x1") + parse_poly(other, "x1")
    with pytest.raises(SpaceMismatchError):
        P("x1") * parse_poly(other, "x1")


def test_render_canonical_order_and_signs():
    f = P("y1") + P("-3/2*x1^2*x2*y3")
    assert f.render() == "-3/2*x1^2*x2*y3 + y1"
    assert Poly.zero(SP).render() == "0"
    assert P("x1 - x2").render() == "x1 - x2"


def test_parse_roundtrip_random():
    rng = random.Random(7)
    for _ in range(60):
        terms = {}
        for _ in range(rng.randint(0, 6)):
            m = tuple(rng.randint(0, 3) for _ in range(SP.nvars))
            c = Fraction(rng.randint(-8, 8), rng.randint(1, 5))
            if c:
                terms[m] = terms.get(m, 0) + c
        f = from_exponents(SP, terms)
        assert parse_poly(SP, f.render()) == f


def test_ring_laws_random():
    rng = random.Random(11)

    def rand_poly():
        terms = {}
        for _ in range(rng.randint(0, 5)):
            m = tuple(rng.randint(0, 2) for _ in range(SP.nvars))
            terms[m] = rng.randint(-5, 5)
        return from_exponents(SP, terms)

    for _ in range(40):
        a, b, c = rand_poly(), rand_poly(), rand_poly()
        assert a + b == b + a
        assert a * b == b * a
        assert a * (b + c) == a * b + a * c


def test_zero_coefficients_never_stored():
    f = P("x1") + P("-x1")
    assert f.terms == {}
    g = P("x1*x2") * Poly.constant(SP, 0)
    assert g.terms == {}


def test_power_and_scale():
    assert P("x1 + y1") ** 2 == P("x1^2 + 2*x1*y1 + y1^2")
    assert P("x1").scale(Fraction(1, 2)) == P("1/2*x1")


SP2 = xy_space(2)


def P2(text):
    return parse_poly(SP2, text)


SYMS = sympy.symbols(SP2.names)
_MONO = st.tuples(*[st.integers(0, 2)] * SP2.nvars)
_COEFF = st.one_of(
    st.integers(-6, 6).filter(bool),
    st.fractions(min_value=-3, max_value=3, max_denominator=5).filter(bool),
)
_POLY = st.dictionaries(_MONO, _COEFF, max_size=5).map(lambda t: from_exponents(SP2, t))


def _rat(c):
    c = Fraction(c)
    return sympy.Rational(c.numerator, c.denominator)


def _sym(terms):
    """The sympy expression of a term dict, an oracle independent of poly."""
    return sympy.Add(
        *[
            _rat(c) * sympy.Mul(*[v**e for v, e in zip(SYMS, SP2.unpack(m))])
            for m, c in terms.items()
        ]
    )


def _agrees(terms, expr):
    assert all(terms.values()), "a zero coefficient is stored"
    return sympy.expand(_sym(terms) - expr) == 0


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(_POLY, _POLY, _POLY, _MONO, _COEFF)
def test_arithmetic_agrees_with_sympy(a, b, c, m, k):
    A, B, C = _sym(a.terms), _sym(b.terms), _sym(c.terms)
    assert _agrees((a + b).terms, A + B)
    assert _agrees((a - b).terms, A - B)
    assert _agrees((a * b).terms, A * B)
    assert _agrees((a - a).terms, 0)
    images = {SP2.x(1): b, SP2.y(2): c}  # x2 and y1 pass through
    want = A.xreplace({SYMS[SP2.x(1)]: B, SYMS[SP2.y(2)]: C})
    assert _agrees(a.substitute(images, SP2).terms, want)
    out = dict(a.terms)
    add_term(out, SP2.pack(m), k)
    assert _agrees(out, A + _sym({SP2.pack(m): k}))
    out = dict(a.terms)
    assert axpy(out, k, b.terms) is out
    assert _agrees(out, A + _rat(k) * B)
    assert _agrees(axpy(dict(a.terms), -1, a.terms), 0)
    assert parse_poly(SP2, a.render()) == a


_MATRIX = st.integers(1, 3).flatmap(
    lambda t: st.lists(st.lists(_POLY, min_size=t, max_size=t), min_size=t, max_size=t)
)


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(_MATRIX)
def test_determinant_agrees_with_sympy(entries):
    # zero entries included: _POLY draws the zero polynomial too
    want = sympy.Matrix([[_sym(e.terms) for e in row] for row in entries]).det(method="berkowitz")
    assert _agrees(determinant(SP2, entries).terms, want)


def test_symbol_space_follows_the_generators():
    for n in (2, 3, 5):
        want = [f"h{g[1]}" if g[0] == "h" else f"e{g[1]}_{g[2]}" for g in generators(n)]
        assert list(symbol_space(n).names) == want


# -- the packed monomial codec ------------------------------------------------

_CODEC_SPACES = [xy_space(2), xy_space(4), z_space((4, 5), (0, 1, 2), frozenset({(5, 0)}))]


@st.composite
def _exponents(draw, space, max_degree=DEGREE_LIMIT - 1):
    """An exponent tuple of ``space`` with total degree at most ``max_degree``."""
    d = draw(st.integers(0, max_degree))
    k = space.nvars - 1
    cuts = sorted(draw(st.lists(st.integers(0, d), min_size=k, max_size=k)))
    bounds = [0, *cuts, d]
    return tuple(b - a for a, b in zip(bounds, bounds[1:]))


_SPACE = st.sampled_from(_CODEC_SPACES)


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(_SPACE.flatmap(lambda sp: st.tuples(st.just(sp), _exponents(sp))))
def test_unpack_inverts_pack(case):
    space, t = case
    m = space.pack(t)
    assert space.unpack(m) == t
    assert [space.exp(m, pos) for pos in range(space.nvars)] == list(t)
    assert space.degree(m) == sum(t)
    assert Poly.monomial(space, m).total_degree() == sum(t)


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(
    st.sampled_from(_CODEC_SPACES + [symbol_space(3)]).flatmap(
        lambda sp: st.tuples(st.just(sp), _exponents(sp))
    )
)
def test_positions_repeat_each_variable_by_its_exponent(case):
    space, t = case
    want = tuple(pos for pos, e in enumerate(t) for _ in range(e))
    assert space.positions(space.pack(t)) == want


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(_SPACE.flatmap(lambda sp: st.tuples(st.just(sp), st.lists(_exponents(sp), max_size=12))))
def test_packed_order_is_graded_lex(case):
    space, ts = case
    want = [space.pack(t) for t in sorted(ts, key=lambda t: (sum(t), t))]
    assert sorted(space.pack(t) for t in ts) == want


@st.composite
def _exponent_pairs(draw, space):
    """Two exponent tuples whose product stays below the degree limit."""
    a = draw(_exponents(space))
    b = draw(_exponents(space, DEGREE_LIMIT - 1 - sum(a)))
    return a, b


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(_SPACE.flatmap(lambda sp: st.tuples(st.just(sp), _exponent_pairs(sp))))
def test_packed_product_is_the_sum(case):
    space, (a, b) = case
    ab = tuple(x + y for x, y in zip(a, b))
    assert space.pack(a) + space.pack(b) == space.pack(ab)
    prod = Poly.monomial(space, space.pack(a), 2) * Poly.monomial(space, space.pack(b), 3)
    assert prod == from_exponents(space, {ab: 6})


def test_pack_rejects_bad_exponents():
    sp = xy_space(3)
    assert sp.unpack(sp.pack((255, 0, 0, 0, 0, 0))) == (255, 0, 0, 0, 0, 0)
    for t in ((256, 0, 0, 0, 0, 0), (128, 0, 0, 0, 0, 128), (300, 0, 0, 0, 0, 0)):
        with pytest.raises(OverflowError):
            sp.pack(t)
    for t in ((-1, 2, 0, 0, 0, 0), (0, 0, 0, 0, 0, -3)):
        with pytest.raises(ValueError) as err:
            sp.pack(t)
        assert err.type is ValueError
    with pytest.raises(SpaceMismatchError):
        sp.pack((1, 0))
    with pytest.raises(ValueError):
        Poly.monomial(sp, -1)
    with pytest.raises(OverflowError):
        from_exponents(sp, {(200, 56, 0, 0, 0, 0): 1})


def test_product_overflow_raises():
    sp = xy_space(3)
    a = Poly.monomial(sp, sp.pack((200, 0, 0, 0, 0, 0))) + P("y1")
    b = Poly.monomial(sp, sp.pack((0, 55, 0, 0, 0, 0)))
    assert (a * b).total_degree() == 255
    assert sp.unpack(max((a * b).terms)) == (200, 55, 0, 0, 0, 0)
    with pytest.raises(OverflowError):
        a * (b * P("x3"))
    with pytest.raises(OverflowError):
        P("x1*y1") ** 128
    assert (P("x1") ** 255).total_degree() == 255


def test_raising_generator_overflow_raises():
    cfg = Config(3, 1, 2)
    sp = cfg.space
    # pi(E_21) = -x1 x2 - y1 d_{y2}: the first term raises the degree by two
    top = Poly.monomial(sp, sp.pack((253, 0, 0, 0, 0, 0)))
    want = from_exponents(sp, {(254, 1, 0, 0, 0, 0): -1})
    assert apply_generator(cfg, ("e", 2, 1), top) == want
    for t in ((254, 0, 0, 0, 0, 0), (0, 0, 0, 0, 0, 255), (100, 0, 0, 100, 0, 55)):
        f = Poly.monomial(sp, sp.pack(t)) + P("x2")
        with pytest.raises(OverflowError):
            apply_generator(cfg, ("e", 2, 1), f)
        # operators that never raise the degree act on the same monomial
        apply_generator(cfg, ("e", 1, 2), f)
        laplace(cfg, f)


def test_evaluation_overflow_raises():
    ring = z_space((4, 5), (1, 2))
    ev = Evaluation(5, ring, "x")  # each z variable maps to a quadratic
    xy5 = xy_space(5)
    assert ev(ring.pack((127, 0, 0, 0))) == {xy5.pack((127, 0, 0, 127, 0, 0, 0, 0, 0, 0)): 1}
    for t in ((128, 0, 0, 0), (0, 64, 0, 64)):
        with pytest.raises(OverflowError):
            ev(ring.pack(t))


def test_variable_rejects_out_of_range_positions():
    sp = xy_space(2)
    assert Poly.variable(sp, 3) == P2("y2")
    for pos in (-1, -4, 4, 9):
        with pytest.raises(SpaceMismatchError):
            Poly.variable(sp, pos)
