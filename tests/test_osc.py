"""Representation operators: pinned values, bracket, degrees, weights."""

import itertools
import random
from fractions import Fraction

import pytest
import sympy
from hypothesis import given, settings
from hypothesis import strategies as st

from oscvar import osc
from oscvar.detvar import extended_ring, restricted_ring
from oscvar.osc import (
    Config,
    Weights,
    apply_generator,
    apply_generator_terms,
    apply_weyl,
    block_transpositions,
    classify_irreducible,
    commutator_in_basis,
    dfun_monomial,
    enumerate_TN_level,
    enumerate_block_sums,
    generators,
    highest_weight_formula,
    laplace,
    project_T,
    project_T_monomial,
    project_T_numerator,
    relabellings,
    weight,
    weyl_action,
    weyl_forms,
    weyl_mul,
)
from oscvar.poly import Poly, axpy, monomials, parse_poly, symbol_space, xy_space

CFG = Config(3, 1, 2, -1, -1)
SP = CFG.space


def from_exponents(space, terms):
    """The polynomial with terms {exponent tuple: coefficient}, zero
    coefficients dropped."""
    return Poly(space, {space.pack(e): c for e, c in terms.items() if c})


def laplacian_form(cfg):
    """The Weyl form of the twisted Laplacian, which ``laplace`` applies
    packed."""
    return osc._laplacian_forms(cfg.n, cfg.n1, cfg.n2)[0][None]


def weyl_bracket(sp, f, g):
    """The commutator fg - gf of two Weyl forms: the bracket defect of the
    pair with nothing to subtract."""
    return osc.bracket_defect(sp, {0: f, 1: g}, 0, 1, ())


def P(text):
    return parse_poly(SP, text)


def grading(cfg, m):
    """Signed bidegree <l1, l2> of a packed monomial: the x-variables over
    J1 and the y-variables over J3 count -1, all others +1."""
    n, n1, n2 = cfg.n, cfg.n1, cfg.n2
    m = cfg.space.unpack(m)
    return sum(m[n1:n]) - sum(m[:n1]), sum(m[n : n + n2]) - sum(m[n + n2 :])


def dprime(cfg, f):
    """The largest x-degree over the first block among the monomials of f."""
    return max(sum(f.space.unpack(m)[: cfg.n1]) for m in f.terms)


def dfun(cfg, f):
    """Weighted filtration degree of f: the largest over its monomials,
    which must all lie in the <l1, l2> piece."""
    assert f.terms
    assert all(grading(cfg, m) == (cfg.l1, cfg.l2) for m in f.terms)
    return max(dfun_monomial(cfg, m) for m in f.terms)


def test_generator_action_examples():
    one = Poly.constant(SP, 1)
    assert apply_generator(CFG, ("e", 2, 1), one) == P("-x1*x2")
    assert apply_generator(CFG, ("e", 3, 1), one) == P("y1*y3 - x1*x3")
    assert apply_generator(CFG, ("h", 1), P("x1")) == P("-2*x1")


def test_generator_index_validation():
    with pytest.raises(ValueError):
        apply_generator(CFG, ("e", 0, 1), P("x1"))
    with pytest.raises(ValueError):
        apply_generator(CFG, ("h", 3), P("x1"))


def test_laplace_examples():
    assert laplace(CFG, Poly.constant(SP, 1)).is_zero()
    assert laplace(CFG, P("x1*y1")) == P("x1^2")
    assert laplace(CFG, P("y1 + x1*x2*y2")).is_zero()


def test_projection_examples():
    assert project_T(CFG, P("x1")) == P("x1")
    assert project_T(CFG, P("y1")) == P("y1 + x1*x2*y2")
    assert laplace(CFG, project_T(CFG, P("y1"))).is_zero()
    with pytest.raises(ValueError):
        project_T(Config(3, 2, 2), P("x1"))


def test_dfun_examples():
    assert dfun(CFG, P("x1*y3")) == 0
    assert dfun(CFG, P("x1^2*x2*y3")) == 1
    assert dfun(CFG, P("x1*y3") * P("x1*x3 - y1*y3")) == 2


def test_dfun_product_rule_random():
    # multiplying by an alternating quadratic raises the degree by exactly 2
    rng = random.Random(2)
    quad = P("x1*x3 - y1*y3")
    for k in range(4):
        for m in enumerate_TN_level(CFG, k):
            f = Poly.monomial(SP, m)
            assert dfun(CFG, f * quad) == dfun(CFG, f) + 2
    del rng


def test_dprime_examples():
    cfg = Config(3, 2, 3, 2, 1)
    sp = cfg.space
    assert dprime(cfg, parse_poly(sp, "x3^2*y1")) == 0
    assert dprime(cfg, parse_poly(sp, "x1*x2*y1")) == 2
    assert dprime(cfg, parse_poly(sp, "y1*y2")) == 0


def test_enumerate_level_examples():
    assert [SP.unpack(m) for m in enumerate_TN_level(CFG, 0)] == [(1, 0, 0, 0, 0, 1)]
    lvl1 = {Poly.monomial(SP, m).render() for m in enumerate_TN_level(CFG, 1)}
    assert lvl1 == {"x1^2*x2*y3", "x1*y2*y3^2"}
    assert enumerate_TN_level(CFG, -1) == []


def test_block_sum_cells_match_a_filter_of_every_monomial():
    # every cell with block sums 0 or 1 on the layouts with n <= 4, n1 = n2
    # among them: the monomials of those sums without both x and y at n1+1
    # where J2 is not empty, in increasing order
    for n in range(2, 5):
        for n1 in range(1, n + 1):
            for n2 in range(n1, n + 1):
                cfg = Config(n, n1, n2)
                sp = cfg.space
                blocks = [range(0, n1), range(n1, n2), range(n2, n)]
                cells: dict = {}
                for m in monomials(sp, range(7)):
                    e = sp.unpack(m)
                    if not (n1 < n2 and e[n1] and e[n + n1]):
                        sums = [sum(e[i] for i in B) for B in blocks]
                        sums += [sum(e[n + i] for i in B) for B in blocks]
                        cells.setdefault(tuple(sums), []).append(m)
                for cell in itertools.product(range(2), repeat=6):
                    want = sorted(cells.get(cell, []))
                    assert enumerate_block_sums(cfg, *cell) == want, (cfg, cell)


def test_weight_examples():
    cfg5 = Config(5, 1, 3, -1, -1)
    sp5 = cfg5.space
    v = parse_poly(sp5, "x1*y4")
    assert weight(cfg5, v) == (-2, 0, -2, 1)
    assert weight(cfg5, v) == highest_weight_formula(cfg5, 1, 1)
    for r in range(1, 5):
        assert apply_generator(cfg5, ("e", r, r + 1), v).is_zero()
    # x_i and y_i differ in weight exactly when i sits in the middle block
    assert weight(CFG, P("x2 + y2")) is None
    # first-block pairs share their weight, so this one is a weight vector
    assert weight(cfg5, parse_poly(sp5, "x1 + y1")) is not None
    # the constant function still has a well-defined (shifted) weight
    assert weight(CFG, Poly.constant(SP, 1)) == (-1, -1)


def test_classify_examples():
    assert classify_irreducible(Config(3, 1, 2, -1, -1)) is True
    assert classify_irreducible(Config(4, 1, 2, 1, 1)) is False
    assert classify_irreducible(Config(3, 1, 3, 2, 1)) is True
    assert classify_irreducible(Config(4, 2, 2, -1, -1)) is True
    assert classify_irreducible(Config(5, 1, 3, -1, 1)) is False


def test_cartan_tables_give_the_differences_of_the_diagonal_values():
    # h_r's table is read off its Weyl form, E_rr's eigenvalue off
    # ``diagonal_value``, which the xy weights read too: they agree on every
    # layout with n <= 8 and every monomial of degree <= 2
    layouts = 0
    for n in range(2, 9):
        sp = xy_space(n)
        mons = list(monomials(sp, range(3)))
        for n1 in range(1, n + 1):
            for n2 in range(n1, n + 1):
                cfg = Config(n, n1, n2)
                layouts += 1
                for r in range(1, n):
                    for m in mons:
                        want = osc.diagonal_value(cfg, r, m) - osc.diagonal_value(cfg, r + 1, m)
                        assert osc.cartan_eigenvalue(cfg, r, m) == want, (cfg, r, m)
    assert layouts == 119


def test_bracket_fidelity_small():
    cfg = Config(3, 1, 2)
    gens = generators(3)
    for m in monomials(cfg.space, range(3)):
        base = {m: 1}
        for a, b in itertools.combinations(gens, 2):
            lhs = apply_generator_terms(cfg, a, apply_generator_terms(cfg, b, base))
            axpy(lhs, -1, apply_generator_terms(cfg, b, apply_generator_terms(cfg, a, base)))
            rhs = {}
            for coeff, g in commutator_in_basis(a, b, 3):
                axpy(rhs, coeff, apply_generator_terms(cfg, g, base))
            assert lhs == rhs


def test_action_preserves_bidegree():
    for k in range(3):
        for m in enumerate_TN_level(CFG, k):
            f = Poly.monomial(SP, m)
            for g in generators(3):
                img = apply_generator(CFG, g, f)
                for mm in img.terms:
                    assert grading(CFG, mm) == (CFG.l1, CFG.l2)


def _L_class(cfg, i, j):
    inJ1 = j <= cfg.n1
    inJ2i = cfg.n1 < i <= cfg.n2
    inJ2j = cfg.n1 < j <= cfg.n2
    inJ3 = i > cfg.n2
    if inJ3 and inJ1:
        return 3
    if (inJ2i and inJ1) or (inJ3 and inJ2j):
        return 1  # the two one-step families
    return 0


def test_degree_increments_by_family():
    for k in range(4):
        for m in enumerate_TN_level(CFG, k):
            f = Poly.monomial(SP, m)
            d0 = dfun(CFG, f)
            for i in range(1, 4):
                for j in range(1, 4):
                    if i == j:
                        continue
                    img = apply_generator(CFG, ("e", i, j), f)
                    if img.is_zero():
                        continue
                    bound = {3: 2, 1: 1, 0: 0}[_L_class(CFG, i, j)]
                    assert dfun(CFG, img) <= d0 + bound


def _series_in_fractions(cfg, m):
    """T(m) summed term by term in Fractions, each term of the series over
    its own denominator: the reference for ``project_T_numerator``."""
    sp, mid = cfg.space, cfg.n1 + 1
    a, b = sp.exp(m, sp.x(mid)), sp.exp(m, sp.y(mid))
    out, cur, denom = {m: Fraction(1)}, Poly.monomial(sp, m), 1
    lift = Poly.monomial(sp, sp.unit[sp.x(mid)] + sp.unit[sp.y(mid)])
    for i in itertools.count(1):
        reduced = laplace(cfg, cur)
        # D = L + d_x d_y at mid: add back the summand L takes away
        reduced = reduced + Poly(sp, {
            k - sp.unit[sp.x(mid)] - sp.unit[sp.y(mid)]: c * sp.exp(k, sp.x(mid)) * sp.exp(k, sp.y(mid))
            for k, c in cur.terms.items()
            if sp.exp(k, sp.x(mid)) and sp.exp(k, sp.y(mid))
        })
        cur = reduced * lift
        if cur.is_zero():
            return out
        denom *= (a + i) * (b + i)
        for k, c in cur.terms.items():
            s = out.get(k, 0) + Fraction(c, denom)
            if s:
                out[k] = s
            else:
                del out[k]


@pytest.mark.parametrize("params", [(5, 2, 3, -1, -1), (4, 1, 3, -1, 1), (6, 2, 4, -1, -1)], ids=str)
def test_integer_series_is_the_fraction_series_times_its_denominator(params):
    # the same keys in the same order, each value the Fraction one times
    # the common denominator, and the public projection its quotient
    cfg = Config(*params)
    for k in range(4):
        for m in enumerate_TN_level(cfg, k):
            numerator, denom = project_T_numerator(cfg, m)
            want = _series_in_fractions(cfg, m)
            assert list(numerator) == list(want)
            assert all(type(c) is int and c == denom * want[k] for k, c in numerator.items())
            assert list(project_T_monomial(cfg, m).terms.items()) == list(want.items())


def test_projection_preserves_degree_and_commutes():
    cfg = Config(4, 1, 3, -1, -1)
    mid = cfg.n1 + 1
    for k in range(4):
        for m in enumerate_TN_level(cfg, k):
            f = Poly.monomial(cfg.space, m)
            tf = project_T_monomial(cfg, m)
            assert dfun(cfg, tf) == dfun_monomial(cfg, m)
            for i in range(1, 5):
                for j in range(1, 5):
                    if i == j or mid in (i, j):
                        continue
                    lhs = project_T(cfg, apply_generator(cfg, ("e", i, j), f))
                    rhs = apply_generator(cfg, ("e", i, j), tf)
                    assert lhs == rhs


# -- the operators against sympy, written from the module docstring alone ------

_PROPERTY = dict(deadline=None, derandomize=True, database=None)
_LAYOUTS = [
    (n, n1, n2) for n in (2, 3, 4) for n1 in range(1, n + 1) for n2 in range(n1, n + 1)
]
_COEFF = st.one_of(
    st.integers(-6, 6).filter(bool),
    st.fractions(min_value=-3, max_value=3, max_denominator=5).filter(bool),
)


def _xypolys(n):
    """Term dicts of xy polynomials of degree <= 4 in 2n variables."""

    def exponents(positions):
        m = [0] * (2 * n)
        for pos in positions:
            m[pos] += 1
        return tuple(m)

    mono = st.lists(st.integers(0, 2 * n - 1), max_size=4).map(exponents)
    return st.dictionaries(mono, _COEFF, min_size=1, max_size=4)


class _Sym:
    """pi(E_ij), the Laplacian and T of one layout as sympy operators."""

    def __init__(self, cfg):
        self.cfg = cfg
        self.syms = sympy.symbols(xy_space(cfg.n).names)
        self.x = lambda a: self.syms[a - 1]
        self.y = lambda a: self.syms[cfg.n + a - 1]

    def X(self, i, j, f):
        x, n1 = self.x, self.cfg.n1
        if i <= n1 and j <= n1:
            return -x(j) * sympy.diff(f, x(i))
        if i <= n1:
            return sympy.diff(f, x(i), x(j))
        if j <= n1:
            return -x(i) * x(j) * f
        return x(i) * sympy.diff(f, x(j))

    def Y(self, i, j, f):
        y, n2 = self.y, self.cfg.n2
        if i <= n2 and j <= n2:
            return y(i) * sympy.diff(f, y(j))
        if i <= n2:
            return -y(i) * y(j) * f
        if j <= n2:
            return sympy.diff(f, y(i), y(j))
        return -y(j) * sympy.diff(f, y(i))

    def root(self, i, j, f):
        return self.X(i, j, f) - self.Y(j, i, f)

    def laplace(self, f):
        cfg, x, y = self.cfg, self.x, self.y
        return (
            sum(x(i) * sympy.diff(f, y(i)) for i in cfg.J1)
            - sum(sympy.diff(f, x(r), y(r)) for r in cfg.J2)
            + sum(y(s) * sympy.diff(f, x(s)) for s in cfg.J3)
        )

    def project(self, m):
        mid = self.cfg.n1 + 1
        xm, ym = self.x(mid), self.y(mid)
        a, b = m[mid - 1], m[self.cfg.n + mid - 1]
        cur = self.poly({m: 1})
        out, i = cur, 0
        while True:
            cur = sympy.expand(self.laplace(cur) + sympy.diff(cur, xm, ym))
            if cur == 0:
                return out
            i += 1
            out += (xm * ym) ** i * cur / sympy.prod((a + r) * (b + r) for r in range(1, i + 1))

    def poly(self, terms):
        return sympy.Add(
            *[sympy.Rational(c.numerator, c.denominator) * sympy.Mul(
                *[v**e for v, e in zip(self.syms, m)]) for m, c in terms.items()]
        )

    def terms(self, expr):
        return sympy.Poly(expr, *self.syms).as_dict()


def _as_sympy(f: Poly) -> dict:
    assert all(f.terms.values()), "a zero coefficient is stored"
    return {
        f.space.unpack(m): sympy.Rational(c.numerator, c.denominator)
        for m, c in f.terms.items()
    }


@pytest.mark.parametrize("layout", _LAYOUTS, ids=str)
@settings(max_examples=4, **_PROPERTY)
@given(data=st.data())
def test_operators_agree_with_sympy(layout, data):
    cfg = Config(*layout)
    terms = data.draw(_xypolys(cfg.n))
    ref = _Sym(cfg)
    f, sf = from_exponents(cfg.space, terms), ref.poly(terms)
    for g in generators(cfg.n):
        if g[0] == "e":
            want = ref.terms(ref.root(g[1], g[2], sf))
            assert _as_sympy(apply_generator(cfg, g, f)) == want, g
    assert _as_sympy(laplace(cfg, f)) == ref.terms(ref.laplace(sf))
    if cfg.n1 < cfg.n2:
        for m in terms:
            got = project_T_monomial(cfg, cfg.space.pack(m))
            assert _as_sympy(got) == ref.terms(ref.project(m)), m


# -- the normal-ordered Weyl product ---------------------------------------------


def test_weyl_product_normal_orders():
    sp = xy_space(2)
    x1, d1 = (sp.unit[0], 0), (0, sp.unit[0])
    # d x = x d + 1 and d^2 x^2 = x^2 d^2 + 4 x d + 2
    assert weyl_mul(sp, {d1: 1}, {x1: 1}) == {(sp.unit[0], sp.unit[0]): 1, (0, 0): 1}
    assert weyl_bracket(sp, {d1: 1}, {x1: 1}) == {(0, 0): 1}
    two = 2 * sp.unit[0]
    assert weyl_mul(sp, {(0, two): 1}, {(two, 0): 1}) == {
        (two, two): 1, (sp.unit[0], sp.unit[0]): 4, (0, 0): 2,
    }
    # distinct variables commute
    y1 = (sp.unit[2], 0)
    assert weyl_bracket(sp, {d1: 1}, {y1: 1}) == {}


@settings(max_examples=60, **_PROPERTY)
@given(data=st.data())
def test_weyl_product_acts_as_its_factors_in_turn(data):
    n = data.draw(st.integers(2, 5))
    n1 = data.draw(st.integers(1, n))
    cfg = Config(n, n1, data.draw(st.integers(n1, n)))
    sp = cfg.space
    forms = weyl_forms(n, n1, cfg.n2)
    factors = data.draw(st.lists(st.sampled_from(generators(n)), min_size=1, max_size=3))
    positions = data.draw(st.lists(st.integers(0, 2 * n - 1), max_size=4))
    base = {sum(sp.unit[pos] for pos in positions): 1}
    product = forms[factors[0]]
    for g in factors[1:]:
        product = weyl_mul(sp, product, forms[g])
    want = base
    for g in reversed(factors):  # the rightmost factor acts first
        want = apply_generator_terms(cfg, g, want)
    assert apply_weyl(weyl_action(sp, product), base) == want


@st.composite
def _weyl_forms(draw, sp, gens):
    """A random normal-ordered form of the space sp, or a product of one to
    three generator forms."""
    if draw(st.booleans()):
        product = gens[draw(st.sampled_from(sorted(gens)))]
        for _ in range(draw(st.integers(0, 2))):
            product = weyl_mul(sp, product, gens[draw(st.sampled_from(sorted(gens)))])
        return product
    positions = st.lists(st.integers(0, sp.nvars - 1), max_size=3)
    out = {}
    for _ in range(draw(st.integers(0, 4))):
        v = sum(sp.unit[pos] for pos in draw(positions))
        d = sum(sp.unit[pos] for pos in draw(positions))
        out[v, d] = draw(st.integers(-3, 3).filter(bool))
    return out


@settings(max_examples=60, **_PROPERTY)
@given(data=st.data())
def test_weyl_bracket_is_the_difference_of_the_products(data):
    n = data.draw(st.integers(2, 4))
    n1 = data.draw(st.integers(1, n))
    cfg = Config(n, n1, data.draw(st.integers(n1, n)))
    sp, gens = cfg.space, weyl_forms(n, n1, cfg.n2)
    f = data.draw(_weyl_forms(sp, gens))
    g = data.draw(_weyl_forms(sp, gens))
    assert weyl_bracket(sp, f, g) == axpy(weyl_mul(sp, f, g), -1, weyl_mul(sp, g, f))


@pytest.mark.parametrize("layout", [(3, 1, 2), (4, 1, 3), (5, 2, 3), (6, 2, 4)], ids=str)
def test_laplacian_commutes_with_every_generator(layout):
    # [L, pi(g)] = 0 as Weyl forms, so ker L is a submodule at every degree
    cfg = Config(*layout)
    lap = laplacian_form(cfg)
    for g, form in weyl_forms(*layout).items():
        assert weyl_bracket(cfg.space, lap, form) == {}, g
    # the form is the applier's Laplacian
    for m in monomials(cfg.space, range(3)):
        got = apply_weyl(weyl_action(cfg.space, lap), {m: 1})
        assert got == laplace(cfg, Poly.monomial(cfg.space, m)).terms


def test_weyl_products_and_images_past_the_degree_limit_raise():
    sp = xy_space(2)
    big = 200 * sp.unit[0]
    with pytest.raises(OverflowError):
        weyl_mul(sp, {(big, 0): 1}, {(big, 0): 1})
    # the bracket forms only contracted terms, and checks each of them
    with pytest.raises(OverflowError):
        weyl_bracket(sp, {(big, sp.unit[0]): 1}, {(big, 0): 1})
    with pytest.raises(OverflowError):
        apply_weyl(weyl_action(sp, {(big, 0): 1}), {big: 1})
    # a derivative lowers the degree, so the same key is in range
    assert apply_weyl(weyl_action(sp, {(0, sp.unit[0]): 1}), {big: 1}) == {big - sp.unit[0]: 200}


def test_transposer_swaps_both_index_fields():
    rng = random.Random(7)
    for n in range(2, 7):
        sp = xy_space(n)
        for i in range(1, n):
            (sigma,) = relabellings(n, [i])
            swap = sigma.swap(sp)
            for _ in range(20):
                exps = [rng.choice((0, 0, 1, 2, 5, 17)) for _ in range(2 * n)]
                want = list(exps)
                for pos in (sp.x(i), sp.y(i)):
                    want[pos], want[pos + 1] = exps[pos + 1], exps[pos]
                assert swap(sp.pack(exps)) == sp.pack(want)
    # z rings: (i i+1) relabels the row or the column of each variable
    for cfg in (Config(5, 2, 3), Config(7, 3, 4), Config(6, 1, 3)):
        for sp in (restricted_ring(cfg), extended_ring(cfg)):
            for i in (*range(1, cfg.n1), *range(cfg.n2 + 1, cfg.n)):
                swap = relabellings(cfg.n, [i])[0].swap(sp)
                relabel = {i: i + 1, i + 1: i}
                for _ in range(20):
                    exps = [rng.choice((0, 0, 1, 2, 5, 17)) for _ in range(sp.nvars)]
                    want = [0] * sp.nvars
                    for j in sp.rows:
                        for c in sp.cols:
                            if (j, c) not in sp.excluded:
                                to = sp.z(relabel.get(j, j), relabel.get(c, c))
                                want[to] = exps[sp.z(j, c)]
                    assert swap(sp.pack(exps)) == sp.pack(want)


def test_block_transpositions_stay_inside_the_blocks():
    for n, n1, n2 in [(6, 2, 4), (5, 2, 2), (4, 4, 4), (3, 1, 3), (8, 3, 3)]:
        cfg = Config(n, n1, n2)
        blocks = (cfg.J1, cfg.J2, cfg.J3)
        assert block_transpositions(n, n1, n2) == [
            i for i in range(1, n) if any(i in b and i + 1 in b for b in blocks)
        ]


def _spaces(cfg):
    """The xy, symbol and z spaces of a layout; a restricted z ring only
    where J1 and J3 are not empty."""
    out = [cfg.space, symbol_space(cfg.n), extended_ring(cfg)]
    return out + ([restricted_ring(cfg)] if cfg.J3 else [])


def test_the_ungraded_weights_are_one_block_of_size_one():
    # every monomial at weight 0, every weight its own orbit of size 1, and
    # a symbol minor at weight 0: the graded weights of the same space give
    # the weights to ask about
    for n in range(2, 7):
        for n1 in range(1, n + 1):
            for n2 in range(n1, n + 1):
                cfg = Config(n, n1, n2)
                for space in _spaces(cfg):
                    one, graded = Weights.ungraded(cfg, space), Weights(cfg, space)
                    assert not one.orbits and not any(one.position)
                    ms = list(monomials(space, range(3)))
                    assert {one.of(m) for m in ms} == {0}
                    assert one.homogeneous(ms) == 0
                    for w in {graded.of(m) for m in ms}:
                        assert one.is_representative(w) and one.representative(w) == w
                        assert one.sorter(w) == (w, None)
                        assert (one.orbit_size(w), one.descent(w)) == (1, 0)
                    assert list(one.representative_sums([(0, "a")], [(0, "b")])) == [(0, "a", "b")]
                    keys = []
                    for t in range(1, min(n, 3) + 1):
                        for rows in itertools.combinations(range(1, n + 1), t):
                            for cols in itertools.combinations(range(1, n + 1), t):
                                if space.kind == "sym":
                                    assert one.minor(rows, cols) == 0
                                keys.append((t, one.order_type(rows, cols)))
                    assert len(set(keys)) == len(keys)

