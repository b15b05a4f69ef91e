"""The twisted oscillator representation of sl(n) on the xy polynomial ring.

Fixing 1 <= n1 <= n2 <= n splits the index range into three blocks
J1 = [1..n1], J2 = [n1+1..n2], J3 = [n2+1..n].  The representation acts by

    pi(E_ij) = X_ij - Y_ji

where X and Y are the block-dependent first/second order operators: on the
x side,

    X_ij = -x_j d_{x_i} - delta_ij   (i, j in J1)
    X_ij = d_{x_i} d_{x_j}           (i in J1, j beyond)
    X_ij = -x_i x_j                  (i beyond, j in J1)
    X_ij = x_i d_{x_j}               (i, j beyond J1)

and on the y side symmetrically with the split at n2:

    Y_ij = y_i d_{y_j}               (i, j in J1 u J2)
    Y_ij = -y_i y_j                  (i in J1 u J2, j in J3)
    Y_ij = d_{y_i} d_{y_j}           (i in J3, j in J1 u J2)
    Y_ij = -y_j d_{y_i} - delta_ij   (i, j in J3).

These two tables are the code's single source (``_BLOCK``; the first block
is J1 for X, J3 for Y).  Each side of pi(E_ij), i != j, and each summand of
the Laplacian below is one Weyl term (c, p, dp, q, dq): c times v_p or d_p
(dp = +1 or -1) times v_q or d_q, p != q, derivatives acting first.

Monomials are packed ints (see ``poly``), so a table stores each Weyl term
as (c, shift of d_p or -1, shift of d_q or -1, packed delta): the applier
reads a differentiated exponent as ``(m >> shift) & FIELD_MASK``, skips the
term when that factor is zero (so no field ever borrows), and shifts the
monomial by ``m + delta``.  A table with a raising term v_p v_q also holds
the smallest key whose image would overflow the degree field, checked
once per call against the largest key.

The Cartan generators h_r = E_rr - E_{r+1,r+1} act diagonally on monomials
(the constant shifts included), by an eigenvalue affine in the exponents
of x_r, y_r, x_{r+1}, y_{r+1}: a per-position table (``_cartan_table``)
that the applier and the weights read.

The same tables also give every pi(g) as an element of the Weyl algebra
(``weyl_forms``), in normal order: a dict mapping (v, d), the packed
monomials of the multiplication and the derivative factors, to the
coefficient of v d (derivatives acting first).  Normal-ordered products
follow from

    (v^a d^b)(v^c d^e) = sum_k prod_i C(b_i, k_i) C(c_i, k_i) k_i!
                                 v^{a+c-k} d^{b+e-k},

summed over 0 <= k <= min(b, c) componentwise (``weyl_mul``).  The Weyl
algebra acts faithfully on the polynomial ring in characteristic 0, so a
zero normal-ordered form is the zero operator at every degree; this is
how the bracket relations and the invariance of the Laplacian are checked
as identities rather than on finitely many monomials.

``applier_is_representation`` certifies a layout for the ordered closure
of ``filtration`` with O(n^3) work: the relations of the pairs of a
Chevalley generator and a basis element, which imply all the others, and
each generator's form against its applier on the monomials of degree <= 2
in the variables the two touch.

The twisted Laplacian is

    L = sum_{i in J1} x_i d_{y_i} - sum_{r in J2} d_{x_r} d_{y_r}
        + sum_{s in J3} y_s d_{x_s},

and for n1 < n2 the projection T sends a monomial m to the terminating
series

    T(m) = sum_i (x_{n1+1} y_{n1+1})^i D^i (m)
                 / prod_{r=1..i} (a+r)(b+r),

where D = L + d_{x_{n1+1}} d_{y_{n1+1}} and a, b are the n1+1 exponents of
m.  T(m) is harmonic (killed by L) whenever a*b = 0.

Monomials carry a signed bidegree <l1, l2>: the x-variables over J1 and the
y-variables over J3 count -1, all others +1.  The weighted degree

    dfun_monomial(m) = 2*sum_{J3} alpha + sum_{J2} alpha + 2*sum_{J1} beta
                       + sum_{J2} beta - (l1 + |l1| + l2 + |l2|)/2

measures filtration level; the x-degree over J1, sum_{J1} alpha, is its
analogue for the all-positive regime with n2 = n (the "dprime" levels of
``filtration``).
"""

from __future__ import annotations

import itertools
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from functools import cache, cached_property
from math import comb, factorial, perm, prod

from .poly import (
    DEGREE_LIMIT, FIELD_BITS, FIELD_MASK, Poly, Space, add_term, axpy, monomials, xy_space,
)

# Generators are small tagged tuples:
#   ("e", i, j)  root vector E_ij, i != j
#   ("h", r)     Cartan element E_rr - E_{r+1,r+1}
Generator = tuple


@dataclass(frozen=True)
class Config:
    """Block parameters (n, n1, n2) and the signed bidegree (l1, l2)."""

    n: int
    n1: int
    n2: int
    l1: int = 0
    l2: int = 0

    def __post_init__(self):
        if self.n < 2:
            raise ValueError("need n >= 2")
        if not 1 <= self.n1 <= self.n2 <= self.n:
            raise ValueError("need 1 <= n1 <= n2 <= n")

    @cached_property
    def space(self) -> Space:
        return xy_space(self.n)

    @property
    def J1(self) -> range:
        return range(1, self.n1 + 1)

    @property
    def J2(self) -> range:
        return range(self.n1 + 1, self.n2 + 1)

    @property
    def J3(self) -> range:
        return range(self.n2 + 1, self.n + 1)

    @cached_property
    def weyl_tables(self) -> tuple:
        """``_weyl_tables`` of this layout, looked up once per instance."""
        return _weyl_tables(self.n, self.n1, self.n2)

    @cached_property
    def cartan_tables(self) -> dict:
        """``_cartan_table`` of every h_r by r, built once per instance."""
        return {r: _cartan_table(self, r) for r in range(1, self.n)}

    def short(self) -> str:
        return f"(n={self.n},n1={self.n1},n2={self.n2},l1={self.l1},l2={self.l2})"


def generators(n: int) -> list[Generator]:
    """Basis of sl(n): Cartan elements first, then root vectors by index."""
    gens: list[Generator] = [("h", r) for r in range(1, n)]
    gens += [("e", i, j) for i in range(1, n + 1) for j in range(1, n + 1) if i != j]
    return gens


# ---------------------------------------------------------------------------
# operators as Weyl terms (hot path)
# ---------------------------------------------------------------------------

# The X/Y table cell of (a, b) by whether a and b lie in the first block:
# the coefficient and the shifts of v_a and v_b (-1 differentiates).
_BLOCK = {
    (True, True): (-1, -1, 1),  # -v_b d_{v_a}
    (True, False): (1, -1, -1),  # d_{v_a} d_{v_b}
    (False, True): (-1, 1, 1),  # -v_a v_b
    (False, False): (1, 1, -1),  # v_a d_{v_b}
}


# The constant of a diagonal (a, a) entry by whether a lies in the first
# block: the -delta_ab of X_ab over J1 and of Y_ab over J3.
_DIAGONAL = {True: -1, False: 0}


def _block_term(first_a: bool, first_b: bool, pa: int, pb: int, sign=1) -> tuple:
    """The Weyl term of one side's (a, b) entry at positions pa, pb."""
    c, da, db = _BLOCK[first_a, first_b]
    return (sign * c, pa, da, pb, db)


def _pi_terms(sp: Space, n1: int, n2: int, i: int, j: int) -> tuple:
    """The Weyl terms of X_ij and -Y_ji, the two sides of pi(E_ij)."""
    return (
        _block_term(i <= n1, j <= n1, sp.x(i), sp.x(j)),
        _block_term(j > n2, i > n2, sp.y(j), sp.y(i), -1),
    )


def _laplacian_terms(sp: Space, n1: int, n2: int, skip=None) -> list:
    """The Weyl terms of the Laplacian, without the d_x d_y summand of the
    middle index ``skip`` (the reduced operator of the T-series)."""
    return (
        [(1, sp.x(i), 1, sp.y(i), -1) for i in range(1, n1 + 1)]
        + [(-1, sp.x(r), -1, sp.y(r), -1) for r in range(n1 + 1, n2 + 1) if r != skip]
        + [(1, sp.y(s), 1, sp.x(s), -1) for s in range(n2 + 1, sp.n + 1)]
    )


def _packed_ops(sp: Space, *weyl_terms) -> tuple:
    """(ceiling, packed terms) of a sum of Weyl terms (c, p, dp, q, dq).

    The ceiling is the smallest packed key whose image would leave the
    degree limit, or None when no term raises the degree.
    """
    packed = tuple(
        (
            c,
            sp.shift[p] if dp < 0 else -1,
            sp.shift[q] if dq < 0 else -1,
            dp * sp.unit[p] + dq * sp.unit[q],
        )
        for c, p, dp, q, dq in weyl_terms
    )
    rise = max((dp + dq for _c, _p, dp, _q, dq in weyl_terms), default=0)
    ceiling = (DEGREE_LIMIT - rise) << sp.dshift if rise > 0 else None
    return ceiling, packed


@cache
def _weyl_tables(n: int, n1: int, n2: int) -> tuple:
    """Weyl terms of pi(E_ij) by generator, of the Laplacian by the middle
    index its T-series omits (None for the full Laplacian), and of the
    T-series lift x_{n1+1} y_{n1+1} (None for n1 = n2), each packed by
    ``_packed_ops``."""
    sp = xy_space(n)
    roots = {
        ("e", i, j): _packed_ops(sp, *_pi_terms(sp, n1, n2, i, j))
        for i in range(1, n + 1)
        for j in range(1, n + 1)
        if i != j
    }
    laplacians = {
        skip: _packed_ops(sp, *_laplacian_terms(sp, n1, n2, skip))
        for skip in (None, n1 + 1)
    }
    lift = None
    if n1 < n2:
        lift = _packed_ops(sp, _lift_term(sp, n1))
    return roots, laplacians, lift


def _lift_term(sp: Space, n1: int) -> tuple:
    """The Weyl term of the T-series lift x_{n1+1} y_{n1+1}."""
    return (1, sp.x(n1 + 1), 1, sp.y(n1 + 1), 1)


def _apply_ops(ops: tuple, terms: dict) -> dict:
    """Apply the sum of the packed Weyl terms ``ops`` to a term dict."""
    ceiling, packed = ops
    if ceiling is not None and terms and max(terms) >= ceiling:
        raise OverflowError("the image leaves the packed monomial degree limit")
    mask = FIELD_MASK
    out: dict = {}
    for m, coeff in terms.items():
        for c, fp, fq, delta in packed:
            if fp >= 0:
                c *= (m >> fp) & mask
            if fq >= 0:
                c *= (m >> fq) & mask
            if c:
                # add_term inlined, as in axpy: this is the hottest loop of osc
                t = m + delta
                s = out.get(t, 0) + c * coeff
                if s:
                    out[t] = s
                elif t in out:
                    del out[t]
    return out


# ---------------------------------------------------------------------------
# operators as normal-ordered Weyl-algebra elements
# ---------------------------------------------------------------------------


def _weyl_form(sp: Space, weyl_terms, constant: int = 0) -> dict:
    """The normal-ordered form of a constant plus a sum of Weyl terms
    (c, p, dp, q, dq), whose derivatives act first."""
    out: dict = {}
    add_term(out, (0, 0), constant)
    for c, p, dp, q, dq in weyl_terms:
        v = d = 0
        for pos, step in ((p, dp), (q, dq)):
            if step > 0:
                v += sp.unit[pos]
            else:
                d += sp.unit[pos]
        add_term(out, (v, d), c)
    return out


def weyl_forms(cfg: Config) -> dict:
    """The Weyl form of pi(g) for every generator g, read off ``_BLOCK``.

    A root vector takes the two cells ``_weyl_tables`` packs for its
    applier; h_r is pi(E_rr) - pi(E_{r+1,r+1}), each from the diagonal
    cells plus the ``_DIAGONAL`` constants, independently of
    ``diagonal_value``.
    """
    sp, n1, n2 = cfg.space, cfg.n1, cfg.n2

    def pi(i, j):
        const = _DIAGONAL[i <= n1] - _DIAGONAL[i > n2] if i == j else 0
        return _weyl_form(sp, _pi_terms(sp, n1, n2, i, j), const)

    forms = {}
    for g in generators(cfg.n):
        if g[0] == "e":
            forms[g] = pi(g[1], g[2])
        else:
            r = g[1]
            forms[g] = axpy(pi(r, r), -1, pi(r + 1, r + 1))
    return forms


def laplacian_form(cfg: Config) -> dict:
    """The Weyl form of the twisted Laplacian."""
    return _weyl_form(cfg.space, _laplacian_terms(cfg.space, cfg.n1, cfg.n2))


def projection_forms(cfg: Config) -> tuple[dict, dict]:
    """The Weyl forms of the two operators of the T-series
    (``project_T_monomial``, n1 < n2): the reduced Laplacian, without the
    d_x d_y summand of the middle index n1+1, and the lift
    x_{n1+1} y_{n1+1}, from the Weyl terms ``_weyl_tables`` packs."""
    sp, n1 = cfg.space, cfg.n1
    return (
        _weyl_form(sp, _laplacian_terms(sp, n1, cfg.n2, n1 + 1)),
        _weyl_form(sp, [_lift_term(sp, n1)]),
    )


def _support(m: int, ones: int) -> int:
    """The packed monomial with exponent 1 wherever m has a nonzero one,
    without its degree field; ``ones`` has exponent 1 at every position."""
    # bit j of s ORs bits j..j+7 of m (FIELD_BITS = 8): a whole field at
    # its lowest bit
    s = m | m >> 1
    s |= s >> 2
    s |= s >> 4
    return s & ones


def _add_product(sp: Space, out: dict, sign: int, f: dict, g: dict, contracted: bool):
    """Add sign * fg to ``out`` (the formula in the module docstring); with
    ``contracted``, only the terms with k != 0.

    The degree limit is checked on the factors v^{a+c} and d^{b+e} of each
    pair of terms that forms a term.
    """
    dunit = 1 << sp.dshift
    ones = (dunit - 1) // FIELD_MASK
    right = [(c, e, cg, _support(c, ones)) for (c, e), cg in g.items()]
    for (a, b), cf in f.items():
        bsup = _support(b, ones)
        for c, e, cg, csup in right:
            # the positions where a derivative of f meets a variable of g
            shared = bsup & csup
            if contracted and not shared:
                continue
            sp.check_degree(a + c)
            sp.check_degree(b + e)
            # one list of (packed k_i, weight) choices per shared position,
            # by position; the first combination is k = 0
            choices = []
            while shared:
                s = shared.bit_length() - 1  # the shift of the next position
                shared ^= 1 << s
                bi, ci = (b >> s) & FIELD_MASK, (c >> s) & FIELD_MASK
                unit = (1 << s) | dunit
                choices.append([
                    (k * unit, comb(bi, k) * comb(ci, k) * factorial(k))
                    for k in range(min(bi, ci) + 1)
                ])
            combos = itertools.product(*choices)
            if contracted:
                next(combos)
            for combo in combos:
                k = sum(u for u, _w in combo)
                add_term(
                    out, (a + c - k, b + e - k), sign * cf * cg * prod(w for _u, w in combo)
                )


def weyl_mul(sp: Space, f: dict, g: dict) -> dict:
    """The normal-ordered product fg of two Weyl forms of the space sp
    (the formula in the module docstring)."""
    out: dict = {}
    _add_product(sp, out, 1, f, g, False)
    return out


def weyl_bracket(sp: Space, f: dict, g: dict) -> dict:
    """The commutator fg - gf of two Weyl forms, from the contracted terms
    (k != 0) of both products alone: their k = 0 terms are equal."""
    out: dict = {}
    _add_product(sp, out, 1, f, g, True)
    _add_product(sp, out, -1, g, f, True)
    return out


def bracket_defect(sp: Space, forms: dict, a: Generator, b: Generator, bracket) -> dict:
    """[pi(a), pi(b)] - pi([a, b]) as a Weyl form, where ``forms`` maps each
    generator to the Weyl form of pi and ``bracket`` is [a, b] as
    ``commutator_in_basis`` gives it."""
    out = weyl_bracket(sp, forms[a], forms[b])
    for coeff, g in bracket:
        axpy(out, -coeff, forms[g])
    return out


def weyl_action(sp: Space, form: dict) -> tuple:
    """(ceiling, packed terms) of a Weyl form, for ``apply_weyl``.

    A packed term is (c, the (shift, order) of each derivative factor,
    packed delta v - d); the ceiling is as in ``_packed_ops``.
    """
    packed = tuple(
        (c, tuple((sp.shift[pos], k) for pos, k in enumerate(sp.unpack(d)) if k), v - d)
        for (v, d), c in form.items()
    )
    rise = max(((v >> sp.dshift) - (d >> sp.dshift) for v, d in form), default=0)
    ceiling = (DEGREE_LIMIT - rise) << sp.dshift if rise > 0 else None
    return ceiling, packed


def apply_weyl(action: tuple, terms: dict) -> dict:
    """Apply a Weyl form, packed by ``weyl_action``, to a term dict: each
    derivative factor d^k reads its exponent e by shift and contributes the
    falling factorial e!/(e-k)!, zero when k > e (so no field borrows)."""
    ceiling, packed = action
    if ceiling is not None and terms and max(terms) >= ceiling:
        raise OverflowError("the image leaves the packed monomial degree limit")
    mask = FIELD_MASK
    out: dict = {}
    for m, coeff in terms.items():
        for c, lowers, delta in packed:
            for s, k in lowers:
                c *= perm((m >> s) & mask, k)
            if c:
                add_term(out, m + delta, c * coeff)
    return out


def diagonal_value(cfg: Config, r: int, m: int) -> int:
    """Eigenvalue of pi(E_rr) on the monomial m (constant shifts included)."""
    shift = cfg.space.shift
    a = (m >> shift[r - 1]) & FIELD_MASK
    b = (m >> shift[cfg.n + r - 1]) & FIELD_MASK
    if r <= cfg.n1:
        return -a - b - 1
    if r <= cfg.n2:
        return a - b
    return a + b + 1


def _cartan_table(cfg: Config, r: int) -> tuple:
    """The eigenvalue of h_r as per-position data: (constant, ((shift,
    coefficient), ...)), the eigenvalue on a monomial being the constant
    plus each coefficient times the exponent read at its shift.  Read off
    ``diagonal_value`` at the monomial 1 and at each variable, so h_r acts
    as the Weyl element constant + sum coefficient * v_p d_p, supported on
    the positions it reads (x_r, y_r, x_{r+1}, y_{r+1})."""
    sp = cfg.space

    def value(m):
        return diagonal_value(cfg, r, m) - diagonal_value(cfg, r + 1, m)

    const = value(0)
    reads = []
    for unit, shift in zip(sp.unit, sp.shift):
        k = value(unit) - const
        if k:
            reads.append((shift, k))
    return const, tuple(reads)


def cartan_eigenvalue(cfg: Config, r: int, m: int) -> int:
    const, reads = cfg.cartan_tables[r]
    return const + sum(k * ((m >> s) & FIELD_MASK) for s, k in reads)


def _cartan_terms(cfg: Config, r: int, terms: dict) -> dict:
    const, reads = cfg.cartan_tables[r]
    mask = FIELD_MASK
    out = {}
    for m, c in terms.items():
        e = const
        for s, k in reads:
            e += k * ((m >> s) & mask)
        if e:
            out[m] = e * c
    return out


def apply_generator(cfg: Config, g: Generator, f: Poly) -> Poly:
    """Exact image of f under the representation of the generator g."""
    if f.space != cfg.space:
        raise ValueError("polynomial not in the xy space of this configuration")
    if g[0] == "h":
        r = g[1]
        if not 1 <= r <= cfg.n - 1:
            raise ValueError(f"Cartan index {r} out of range")
        return Poly(f.space, _cartan_terms(cfg, r, f.terms))
    ops = cfg.weyl_tables[0].get(g)
    if ops is None:
        raise ValueError(f"root index pair {g[1:]} out of range")
    return Poly(f.space, _apply_ops(ops, f.terms))


def apply_generator_terms(cfg: Config, g: Generator, terms: dict) -> dict:
    if g[0] == "h":
        return _cartan_terms(cfg, g[1], terms)
    return _apply_ops(cfg.weyl_tables[0][g], terms)


# ---------------------------------------------------------------------------
# Laplacian and the projection T
# ---------------------------------------------------------------------------


def laplace(cfg: Config, f: Poly) -> Poly:
    """The twisted Laplacian; its kernel is the harmonic subspace."""
    return Poly(f.space, _apply_ops(cfg.weyl_tables[1][None], f.terms))


def project_T_monomial(cfg: Config, m: int) -> Poly:
    """Harmonic projection of a single monomial (requires n1 < n2).

    The defining series terminates because each application of the reduced
    operator strictly decreases sum_{J1} beta + sum_{J2'} alpha
    + sum_{J3} alpha.
    """
    if cfg.n1 >= cfg.n2:
        raise ValueError("projection T is defined only for n1 < n2")
    sp, mid = cfg.space, cfg.n1 + 1
    xpos, ypos = sp.x(mid), sp.y(mid)
    _roots, laplacians, lift = cfg.weyl_tables
    reduced = laplacians[mid]
    a, b = sp.exp(m, xpos), sp.exp(m, ypos)
    out = {m: Fraction(1)}
    cur = {m: 1}  # (x_mid y_mid)^i D^i (m): D commutes with the lift
    denom = 1
    for i in itertools.count(1):
        cur = _apply_ops(lift, _apply_ops(reduced, cur))
        if not cur:
            return Poly(sp, out)
        denom *= (a + i) * (b + i)
        for mm, cc in cur.items():
            add_term(out, mm, Fraction(cc, denom))


def project_T(cfg: Config, f: Poly) -> Poly:
    """Linear extension of the monomial projection."""
    out: dict = {}
    for m, c in f.terms.items():
        axpy(out, c, project_T_monomial(cfg, m).terms)
    return Poly(cfg.space, out)


# ---------------------------------------------------------------------------
# the weighted degree function
# ---------------------------------------------------------------------------


def _dfun_offset(cfg: Config) -> int:
    l1, l2 = cfg.l1, cfg.l2
    return (l1 + abs(l1) + l2 + abs(l2)) // 2


def dfun_monomial(cfg: Config, m: int) -> int:
    n, n1, n2 = cfg.n, cfg.n1, cfg.n2
    m = cfg.space.unpack(m)
    val = (
        2 * sum(m[n2:n])
        + sum(m[n1:n2])
        + 2 * sum(m[n : n + n1])
        + sum(m[n + n1 : n + n2])
    )
    return val - _dfun_offset(cfg)


# ---------------------------------------------------------------------------
# enumeration of constrained monomial levels
# ---------------------------------------------------------------------------


def _compositions(total: int, k: int):
    """All k-tuples of nonnegative integers summing to total."""
    if k == 0:
        if total == 0:
            yield ()
        return
    if k == 1:
        yield (total,)
        return
    for first in range(total + 1):
        for rest in _compositions(total - first, k - 1):
            yield (first,) + rest


def enumerate_block_sums(
    cfg: Config, a1: int, a2: int, a3: int, b1: int, b2: int, b3: int
) -> list[int]:
    """Monomials with prescribed per-block degree sums and a*b = 0 at n1+1.

    Sums (a1, a2, a3) constrain the x exponents over J1, J2, J3 and
    (b1, b2, b3) the y exponents; monomials where both n1+1 exponents are
    positive are excluded.  Deterministic order.
    """
    if min(a1, a2, a3, b1, b2, b3) < 0:
        return []
    n, n1, n2 = cfg.n, cfg.n1, cfg.n2
    s1, s2, s3 = n1, n2 - n1, n - n2
    mid = 0  # position of x_{n1+1} within the J2 block
    pack = cfg.space.pack
    out = []
    for xa in _compositions(a1, s1):
        for xb in _compositions(a2, s2):
            for xc in _compositions(a3, s3):
                for ya in _compositions(b1, s1):
                    for yb in _compositions(b2, s2):
                        if s2 and xb[mid] and yb[mid]:
                            continue
                        for yc in _compositions(b3, s3):
                            out.append(pack(xa + xb + xc + ya + yb + yc))
    return out


def enumerate_TN_level(cfg: Config, k: int) -> list[int]:
    """All monomials of the <l1, l2> piece with dfun = k and a*b = 0 at n1+1.

    The four weighted budgets 2*a3 + a2 + 2*b1 + b2 = k + offset are
    enumerated exhaustively; the bidegree then pins a1 and b3.
    """
    if cfg.n1 >= cfg.n2:
        raise ValueError("TN levels require n1 < n2")
    target = k + _dfun_offset(cfg)
    if target < 0:
        return []
    out = []
    for a3 in range(target // 2 + 1):
        for b1 in range((target - 2 * a3) // 2 + 1):
            rem = target - 2 * a3 - 2 * b1
            for a2 in range(rem + 1):
                b2 = rem - a2
                a1 = a2 + a3 - cfg.l1
                b3 = b1 + b2 - cfg.l2
                if a1 < 0 or b3 < 0:
                    continue
                out.extend(enumerate_block_sums(cfg, a1, a2, a3, b1, b2, b3))
    return out


# ---------------------------------------------------------------------------
# weights and the irreducibility classifier
# ---------------------------------------------------------------------------


def weight(cfg: Config, f: Poly):
    """Cartan eigenvalue tuple of f, or None if f is not a weight vector.

    The Cartan generators act diagonally on monomials, so f is a
    simultaneous eigenvector iff all its monomials share every eigenvalue.
    """
    if not f.terms:
        raise ValueError("the zero polynomial has no weight")
    mons = iter(f.terms)
    first = next(mons)
    wt = tuple(cartan_eigenvalue(cfg, r, first) for r in range(1, cfg.n))
    for m in mons:
        for r in range(1, cfg.n):
            if cartan_eigenvalue(cfg, r, m) != wt[r - 1]:
                return None
    return wt


def highest_weight_formula(cfg: Config, m1: int, m2: int) -> tuple[int, ...]:
    """Predicted weight of x_{n1}^{m1} y_{n2+1}^{m2} in the negative regime.

    In fundamental-weight coordinates: m1 at n1-1, -(m1+1) at n1,
    -(m2+1) at n2, and m2 at n2+1 unless n2 = n-1.
    """
    coeffs = [0] * cfg.n  # slot r-1 holds the lambda_r coefficient
    if cfg.n1 - 1 >= 1:
        coeffs[cfg.n1 - 2] += m1
    coeffs[cfg.n1 - 1] += -(m1 + 1)
    coeffs[cfg.n2 - 1] += -(m2 + 1)
    if cfg.n2 + 1 <= cfg.n - 1:
        coeffs[cfg.n2] += m2
    return tuple(coeffs[: cfg.n - 1])


def classify_irreducible(cfg: Config) -> bool:
    """Decide whether the harmonic piece is infinite-dimensional irreducible.

    Literal decision table over (n1, n2, l1, l2); overlapping sub-cases are
    joined by logical or.
    """
    n, n1, n2, l1, l2 = cfg.n, cfg.n1, cfg.n2, cfg.l1, cfg.l2
    if n1 + 1 < n2:
        if l1 + l2 <= n1 - n2 + 1:
            return True
        if n2 == n and l1 >= 0 and l2 == 0:
            return True
        if n2 == n and l2 >= 0 and l1 >= n1 - n + 2:
            return True
        return False
    if n1 + 1 == n2:
        return l1 + l2 <= 0 or (n2 == n and 0 <= l2 <= l1)
    # n1 == n2
    if l1 + l2 > 0:
        return False
    if l2 <= 0 and n1 < n - 1 and n >= 3:
        return True
    if l1 <= 0 and 1 < n1 < n and n >= 3:
        return True
    if l1 <= 0 and l2 <= 0 and n1 == 1 and n == 2:
        return True
    return False


# ---------------------------------------------------------------------------
# structure constants (for bracket checks and symbol calculus)
# ---------------------------------------------------------------------------


def generator_matrix(g: Generator, n: int) -> dict:
    """The generator as a sparse matrix {(row, col): coeff}."""
    if g[0] == "h":
        r = g[1]
        return {(r, r): 1, (r + 1, r + 1): -1}
    return {(g[1], g[2]): 1}


def matrix_commutator(a: dict, b: dict) -> dict:
    out: dict = {}
    for (i, j), c1 in a.items():
        for (k, l), c2 in b.items():
            if j == k:
                add_term(out, (i, l), c1 * c2)
            if l == i:
                add_term(out, (k, j), -c1 * c2)
    return out


def matrix_to_generators(mat: dict, n: int) -> list[tuple]:
    """Express a traceless matrix in the generator basis as (coeff, gen)."""
    out = []
    diag = [0] * (n + 1)
    for (i, j), c in mat.items():
        if i == j:
            diag[i] = c
        elif c:
            out.append((c, ("e", i, j)))
    if sum(diag):
        raise ValueError("matrix is not traceless")
    acc = 0
    for r in range(1, n):
        acc += diag[r]
        if acc:
            out.append((acc, ("h", r)))
    return out


def commutator_in_basis(g: Generator, h: Generator, n: int) -> list[tuple]:
    return matrix_to_generators(
        matrix_commutator(generator_matrix(g, n), generator_matrix(h, n)), n
    )


def _chevalley_pairs(n: int):
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


def _agreement_monomials(cfg: Config, g: Generator, form: dict, full: list) -> list:
    """The monomials on which the applier of g is compared with its Weyl
    form ``form``: those of degree <= 2 on the positions P that the form's
    terms and g's packed terms touch.  A root with a packed term that is
    no Weyl monomial gets ``full``, every monomial of degree <= 2.

    A packed term (c, fp, fq, delta) acts as c v d, with d the product of
    its differentiated positions and v = delta + d, exactly when no
    position is differentiated twice (the term reads e^2 where d^2 reads
    e(e - 1)) and v has no negative exponent (the shift would borrow).  A
    Cartan generator h_r acts by its ``_cartan_table``, each read position
    p a term v_p d_p.
    """
    sp = cfg.space
    dunit = 1 << sp.dshift
    keys = list(form)
    if g[0] == "h":
        for s, _k in cfg.cartan_tables[g[1]][1]:
            keys.append(((1 << s) | dunit,) * 2)
    else:
        for _c, fp, fq, delta in cfg.weyl_tables[0][g][1]:
            if fp >= 0 and fp == fq:
                return full
            d = sum((1 << s) | dunit for s in (fp, fq) if s >= 0)
            v = delta + d
            # a borrowed field leaves the degree field short of the exponents' sum
            if v < 0 or sum(sp.unpack(v)) != v >> sp.dshift:
                return full
            keys.append((v, d))
    ones = (dunit - 1) // FIELD_MASK
    touched = 0
    for v, d in keys:
        touched |= _support(v, ones) | _support(d, ones)
    units = [u for u, s in zip(sp.unit, sp.shift) if touched >> s & 1]
    return [
        sum(combo) for k in range(3) for combo in itertools.combinations_with_replacement(units, k)
    ]


def _forms_act_as_applier(cfg: Config, forms: dict) -> bool:
    """Whether each generator's Weyl form acts as the applier below
    ``apply_generator_terms`` on its ``_agreement_monomials``."""
    sp = cfg.space
    roots = cfg.weyl_tables[0]
    full = list(monomials(sp, range(3)))
    for g, form in forms.items():
        action = weyl_action(sp, form)
        for m in _agreement_monomials(cfg, g, form, full):
            base = {m: 1}
            img = _cartan_terms(cfg, g[1], base) if g[0] == "h" else _apply_ops(roots[g], base)
            if img != apply_weyl(action, base):
                return False
    return True


def _form_support(sp: Space, form: dict) -> int:
    """The positions a Weyl form's terms touch, as a packed monomial with
    exponent 1 at each (see ``_support``)."""
    ones = ((1 << sp.dshift) - 1) // FIELD_MASK
    out = 0
    for v, d in form:
        out |= _support(v | d, ones)
    return out


def _checked_pairs(cfg: Config, forms: dict):
    """The ``_chevalley_pairs`` whose ``bracket_defect`` can be nonzero,
    each with its commutator as ``commutator_in_basis`` gives it.

    A pair is skipped when [a, b] = 0 in sl(n) and the forms of a and b
    touch disjoint positions: no derivative of one meets a variable of the
    other, so neither product has a contracted (k != 0) term, the bracket
    is zero by the product formula, and so is pi([a, b]).
    """
    support = {g: _form_support(cfg.space, form) for g, form in forms.items()}
    for a, b in _chevalley_pairs(cfg.n):
        bracket = commutator_in_basis(a, b, cfg.n)
        if bracket or support[a] & support[b]:
            yield a, b, bracket


def _chevalley_brackets_hold(cfg: Config, forms: dict) -> bool:
    """Whether ``bracket_defect`` is zero on every ``_chevalley_pairs``,
    forming it only on the ``_checked_pairs``."""
    return not any(
        bracket_defect(cfg.space, forms, a, b, bracket)
        for a, b, bracket in _checked_pairs(cfg, forms)
    )


@cache
def applier_is_representation(n: int, n1: int, n2: int) -> bool:
    """Whether the applier is a representation of sl(n) on this layout:
    [pi(a), pi(b)] = pi([a, b]) for every pair of generators, with pi as
    ``apply_generator_terms`` computes it.

    The relations are decided on the Weyl forms (``bracket_defect``), for
    the pairs of a Chevalley generator and a basis element alone.  Let
    D(x, y) = [pi(x), pi(y)] - pi([x, y]), bilinear, and V the x with
    D(x, y) = 0 for every basis element y.  The Jacobi identity, in the
    Weyl algebra and in sl(n), gives

        D([x, z], y) = D(x, [z, y]) - D(z, [x, y]) + [pi(x), D(z, y)]
                       - [pi(z), D(x, y)] - [D(x, z), pi(y)],

    so V is a Lie subalgebra; it holds the Chevalley generators
    E_{i,i+1}, E_{i+1,i}, which generate sl(n), so V is all of sl(n).
    At n = 8 that is 777 pairs instead of all 1,953, of which only the
    ``_checked_pairs`` are formed as identities; the others commute in
    sl(n) and touch disjoint positions, so their defect is zero unformed.

    The forms must act as the applier, and that agreement is a proof, not
    a sample.  Where every packed term of a root is a Weyl monomial
    (``_agreement_monomials``), form and applier are Weyl elements of
    derivative order <= 2, and their difference is supported on the
    positions P that either touches, read from the data.  If it is
    nonzero, it is nonzero on x^b for a minimal derivative d^b among its
    terms, a monomial of degree <= 2 on P.  So a root is compared on those
    monomials only (15 where P is its four variables).  A Cartan generator
    acts by its ``_cartan_table``, a Weyl element of derivative order 1 on
    the positions it reads, and gets the same cut.  A root with any other
    packed term is compared on every monomial of degree <= 2.  Either way
    the verdict is that of all pairs and all monomials of degree <= 2.

    Checked once per layout; it calls the appliers below
    ``apply_generator_terms`` directly, so it adds nothing to the counts of
    that entry point.
    """
    cfg = Config(n, n1, n2)
    forms = weyl_forms(cfg)
    return _forms_act_as_applier(cfg, forms) and _chevalley_brackets_hold(cfg, forms)


# ---------------------------------------------------------------------------
# permutations inside the blocks
# ---------------------------------------------------------------------------


def block_transpositions(n: int, n1: int, n2: int) -> list[int]:
    """The i with i and i + 1 in one block (J1, J2 or J3): the adjacent
    transpositions (i i+1) that generate the permutations of the indices
    inside the blocks."""
    return [i for i in range(1, n) if i not in (n1, n2)]


def transposer(sp: Space, i: int):
    """The relabelling of packed monomials of the xy space ``sp`` by the
    transposition (i i+1) of indices: the exponents of x_i and x_{i+1}
    swap, and those of y_i and y_{i+1}.  Each swap is one addition, as
    v_i sits one field above v_{i+1}: adding (b - a) * (FIELD_MASK << lo)
    adds b - a to the field at lo + FIELD_BITS and a - b to the one at lo,
    and the degree field is untouched."""
    lows = (sp.shift[sp.x(i + 1)], sp.shift[sp.y(i + 1)])

    def swap(m: int) -> int:
        for lo in lows:
            a = (m >> (lo + FIELD_BITS)) & FIELD_MASK
            b = (m >> lo) & FIELD_MASK
            m += (b - a) * (FIELD_MASK << lo)
        return m

    return swap


def permutes_up_to_sign(vectors: list[dict], swap) -> bool:
    """Whether relabelling by ``swap`` (a ``transposer``) maps each of
    ``vectors``, term dicts, to plus or minus one of them."""
    keys = {frozenset(v.items()) for v in vectors}
    for v in vectors:
        image = {swap(m): c for m, c in v.items()}
        if frozenset(image.items()) not in keys and (
            frozenset((m, -c) for m, c in image.items()) not in keys
        ):
            return False
    return True


@cache
def block_permutations_commute(n: int, n1: int, n2: int) -> bool:
    """Whether relabelling the variables by each ``block_transpositions``
    sigma maps every root's Weyl form to the form of the relabelled root:
    sigma pi(E_ab) sigma^-1 = pi(E_{sigma(a), sigma(b)}).

    Conjugating v d by sigma relabels v and d, so the check compares each
    form with its keys relabelled (``transposer``) against the form of the
    relabelled root.  Together with ``applier_is_representation`` (the
    forms act as the applier, and every bracket, so every Cartan element,
    is pi of the sl(n) bracket) each permutation sigma inside the blocks
    then conjugates pi(U_k(g)) onto itself, and the applier of each root
    onto that of the relabelled root.  Checked once per layout.
    """
    cfg = Config(n, n1, n2)
    forms = weyl_forms(cfg)
    for i in block_transpositions(n, n1, n2):
        swap = transposer(cfg.space, i)
        relabel = {i: i + 1, i + 1: i}
        for g, form in forms.items():
            if g[0] != "e":
                continue
            image = forms[("e", relabel.get(g[1], g[1]), relabel.get(g[2], g[2]))]
            if {(swap(v), swap(d)): c for (v, d), c in form.items()} != image:
                return False
    return True


# ---------------------------------------------------------------------------
# weights of monomials and their orbits under the block permutations
# ---------------------------------------------------------------------------


class Weights:
    """Weights of the packed monomials of one space, packed into ints, and
    their orbits under the index permutations that a list of adjacent
    transpositions generates.

    Each position of the space has a weight in Z^n, and a monomial's weight
    is the sum of its variables':

      * symbol space: e_ab has weight eps_a - eps_b and a Cartan symbol 0,
        their eigenvalues under ad(h);
      * xy space: x_a and y_a have the weight read off the linear part of
        ``diagonal_value``, so a monomial's weight is the eigenvalues of the
        pi(E_aa) on it less their constants.  Every Weyl term the
        representation and the T-series apply moves it by a fixed amount,
        and a permutation of the indices inside a block moves its entries,
        as ``diagonal_value`` reads only the block of an index.

    A weight mu is packed as the int sum_a mu_a 2^(B(a-1)), so the weight of
    a product is the sum of the packed weights.  An entry lies in [-d, d]
    for a monomial of degree d, so the packing is one to one with B = 8 for
    the symbols (degree < 128) and B = 16 for the xy monomials (degree <
    ``DEGREE_LIMIT``).

    The ``transpositions`` (i i+1) join the indices into runs (``cuts``,
    0-based ranges).  A permutation sigma inside the runs moves the entries,
    sigma(mu)_{sigma(a)} = mu_a, and each orbit is represented by its weight
    with ascending entries inside each run.  With no transposition every
    weight is its own orbit.
    """

    def __init__(self, cfg: Config, space: Space, transpositions=()):
        n = self.n = cfg.n
        self.space = space
        bits = self.bits = 8 if space.kind == "sym" else 16
        if space.kind == "sym":
            self.position = tuple(
                (1 << bits * (g[1] - 1)) - (1 << bits * (g[2] - 1)) if g[0] == "e" else 0
                for g in generators(n)
            )
        else:
            self.position = tuple(
                sum(
                    (diagonal_value(cfg, a, unit) - diagonal_value(cfg, a, 0)) << bits * (a - 1)
                    for a in range(1, n + 1)
                )
                for unit in space.unit
            )
        self.transpositions = tuple(transpositions)
        self.orbits = bool(self.transpositions)
        ends = [a for a in range(1, n) if a not in self.transpositions] + [n]
        self.cuts = list(zip([0] + ends[:-1], ends))
        self._half = 1 << (bits - 1)
        self._offset = sum(self._half << bits * a for a in range(n))
        self._sorted: dict = {}

    def _fields(self, w: int):
        """mu_a + 2^(B-1) for a = 1..n, a bytes object where B = 8."""
        raw = (w + self._offset).to_bytes(self.n * self.bits // 8, "little")
        if self.bits == 8:
            return raw
        return [int.from_bytes(raw[i : i + 2], "little") for i in range(0, len(raw), 2)]

    def _packed(self, fields) -> int:
        """The weight whose ``_fields`` are ``fields``."""
        if self.bits == 8:
            return int.from_bytes(bytes(fields), "little") - self._offset
        return sum(v << self.bits * a for a, v in enumerate(fields)) - self._offset

    def entries(self, w: int) -> list[int]:
        """mu_1, ..., mu_n of a packed weight, as a 0-based list."""
        return [v - self._half for v in self._fields(w)]

    def of(self, m: int) -> int:
        """The weight of a packed monomial."""
        return sum(e * w for e, w in zip(self.space.unpack(m), self.position) if e)

    def homogeneous(self, terms) -> int | None:
        """The weight every monomial of ``terms`` has, or None where they
        differ."""
        found = {self.of(m) for m in terms}
        return found.pop() if len(found) == 1 else None

    def minor(self, rows, cols) -> int:
        """The weight of the symbol minor on ``rows`` and ``cols``: each of
        its terms is a product of entries e_{j,i}, j in rows and i in cols,
        one per row and per column (a diagonal entry, a Cartan combination,
        has weight 0 = eps_j - eps_j)."""
        bits = self.bits
        return sum(1 << bits * (j - 1) for j in rows) - sum(1 << bits * (i - 1) for i in cols)

    def representative(self, w: int) -> int:
        """The representative of w's orbit."""
        if not self.orbits:
            return w
        f = self._fields(w)
        return self._packed([v for lo, hi in self.cuts for v in sorted(f[lo:hi])])

    def sorter(self, w: int) -> tuple:
        """(rep, s): the representative of w's orbit, and a relabelling s of
        the indices that takes w to it (index a to s[a]; s[0] is unused), or
        None where w is its own representative."""
        found = self._sorted.get(w)
        if found is None:
            rep, s = self.representative(w), None
            if rep != w:
                mu = self.entries(w)
                s = list(range(self.n + 1))
                for lo, hi in self.cuts:
                    for k, a in enumerate(sorted(range(lo, hi), key=mu.__getitem__), lo):
                        s[a + 1] = k + 1
                s = tuple(s)
            found = self._sorted[w] = rep, s
        return found

    def is_representative(self, w: int) -> bool:
        return self.sorter(w)[1] is None

    def orbit_size(self, w: int) -> int:
        """The number of weights in w's orbit: per run, the number of
        distinct arrangements of its entries."""
        if not self.orbits:
            return 1
        f = self._fields(w)
        size = 1
        for lo, hi in self.cuts:
            size *= factorial(hi - lo)
            for count in Counter(f[lo:hi]).values():
                size //= factorial(count)
        return size
