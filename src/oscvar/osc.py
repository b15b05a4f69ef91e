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
(dp = +1 or -1) times v_q or d_q, derivatives acting first.

Every operator has one encoding, its element of the Weyl algebra
(``weyl_forms``, ``projection_forms``) in normal order: a dict mapping
(v, d), the packed monomials of the multiplication and the derivative
factors, to the coefficient of v d (derivatives acting first).
Normal-ordered products follow from

    (v^a d^b)(v^c d^e) = sum_k prod_i C(b_i, k_i) C(c_i, k_i) k_i!
                                 v^{a+c-k} d^{b+e-k},

summed over 0 <= k <= min(b, c) componentwise (``weyl_mul``).  The Weyl
algebra acts faithfully on the polynomial ring in characteristic 0, so a
zero normal-ordered form is the zero operator at every degree; this is
how the bracket relations and the invariance of the Laplacian are checked
as identities rather than on finitely many monomials.

The appliers read tables packed from the forms.  Monomials are packed ints
(see ``poly``), so the table of a root, a Laplacian or the lift
(``_packed``) stores each term c v d as (c, shift of a position d
differentiates or -1, the same for a second one, packed v - d): the
applier reads a differentiated exponent as ``(m >> shift) & FIELD_MASK``,
skips the term when that factor is zero (so no field ever borrows), and
shifts the monomial by ``m + delta``.  That is the operator c v d while
no position is differentiated twice and at most two are, which
``_packed`` checks.  A table with a raising term also holds the smallest
key whose image would overflow the degree field, checked once per call
against the largest key.  The Cartan generators h_r = E_rr - E_{r+1,r+1}
act diagonally on monomials: h_r's form is a constant plus k v_p d_p at
each of x_r, y_r, x_{r+1}, y_{r+1}, stored as the per-position table of
its eigenvalue (``_cartan_table``) that the applier and ``weight`` read.

``applier_is_representation`` certifies a layout for the ordered closure
of ``filtration``: the relations of the pairs of a Chevalley generator and
a basis element, which imply all the others, decided on the forms the
tables are packed from.  Where each permutation inside the blocks
relabels the forms onto those of the relabelled generators, the relations
are checked once per orbit of those permutations.  ``mirror_commutes``
checks the same way that conjugating by the x/y mirror x_a <-> y_{n+1-a}
takes each pi(E_ab) to -pi(E_{n+1-b,n+1-a}).  The run time trusts the
packing (``_packed``, ``_cartan_table``) and the loops that apply a table
(``_apply_ops``, ``_cartan_terms``); the tests sweep every table of every
layout with n <= 8 against ``apply_weyl`` of its form, an interpreter of
its own, and the ``suite`` record ``bracket-fidelity`` sweeps the tables
of its layouts the same way.

Every layer that uses a relabelling of the indices (a block transposition
or the x/y mirror, ``Relabelling``) asks one certificate for it,
``admitted``, listing only what the relabelling must respect there, and
``Weights`` takes the relabellings it admits.

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
import struct
from collections import Counter
from fractions import Fraction
from functools import cache, cached_property
from math import comb, factorial, perm, prod
from typing import NamedTuple

from .poly import (
    DEGREE_LIMIT, FIELD_BITS, FIELD_MASK, Poly, Space, add_term, axpy, xy_space,
)

# Generators are small tagged tuples:
#   ("e", i, j)  root vector E_ij, i != j
#   ("h", r)     Cartan element E_rr - E_{r+1,r+1}
Generator = tuple


class Config:
    """Block parameters (n, n1, n2) and the signed bidegree (l1, l2).

    Immutable, and equal and hashed by its five fields.  The cached
    properties below are written to the instance dict directly, which the
    refusing ``__setattr__`` does not guard.
    """

    def __init__(self, n: int, n1: int, n2: int, l1: int = 0, l2: int = 0):
        if n < 2:
            raise ValueError("need n >= 2")
        if not 1 <= n1 <= n2 <= n:
            raise ValueError("need 1 <= n1 <= n2 <= n")
        self.__dict__.update(n=n, n1=n1, n2=n2, l1=l1, l2=l2, _key=(n, n1, n2, l1, l2))

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._key == other._key
        return NotImplemented

    def __hash__(self):
        return hash(self._key)

    def __repr__(self):
        return "Config(n={!r}, n1={!r}, n2={!r}, l1={!r}, l2={!r})".format(*self._key)

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


def _packed(sp: Space, form: dict) -> tuple:
    """The applier table of a Weyl form, for ``_apply_ops``: (ceiling,
    packed terms), each term c v d as (c, fp, fq, v - d), fp and fq the
    shifts of the positions d differentiates (-1 for each one short of
    two), and the ``_ceiling``.  Raises ValueError on a term the format
    cannot hold: a position differentiated twice (the applier would read
    e^2 where d^2 reads e(e - 1)), or more than two."""
    fields = (1 << sp.dshift) - 1
    packed = []
    for (v, d), c in form.items():
        reads = []
        rest = d & fields
        while rest:
            # the shift of the highest field left, and its exponent
            s = rest.bit_length() - 1
            s -= s % FIELD_BITS
            if rest >> s != 1 or len(reads) == 2:
                raise ValueError("a Weyl term differentiates a position twice or three positions")
            rest ^= 1 << s
            reads.append(s)
        reads += [-1] * (2 - len(reads))
        packed.append((c, *reads, v - d))
    return _ceiling(sp, form), tuple(packed)


@cache
def _weyl_tables(n: int, n1: int, n2: int) -> tuple:
    """The applier tables (``_packed``) of pi(E_ij) by root, from
    ``weyl_forms``, and of the Laplacian by the middle index its T-series
    omits and of the T-series lift, from ``_laplacian_forms``."""
    sp = xy_space(n)
    roots = {g: _packed(sp, form) for g, form in weyl_forms(n, n1, n2).items() if g[0] == "e"}
    laplacians, lift = _laplacian_forms(n, n1, n2)
    laplacians = {skip: _packed(sp, form) for skip, form in laplacians.items()}
    return roots, laplacians, None if lift is None else _packed(sp, lift)


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


@cache
def weyl_forms(n: int, n1: int, n2: int) -> dict:
    """The Weyl form of pi(g) for every generator g, read off ``_BLOCK``:
    the one encoding of the representation, which the certificates decide
    and the appliers are packed from (``_weyl_tables``,
    ``_cartan_table``).

    A root vector takes its two cells; h_r is pi(E_rr) - pi(E_{r+1,r+1}),
    each from the diagonal cells plus the ``_DIAGONAL`` constants,
    independently of ``diagonal_value``.  Built once per layout; callers
    must not modify it, and a test that patches what it is read from
    clears it with the tables.
    """
    sp = xy_space(n)

    def pi(i, j):
        const = _DIAGONAL[i <= n1] - _DIAGONAL[i > n2] if i == j else 0
        return _weyl_form(sp, _pi_terms(sp, n1, n2, i, j), const)

    forms = {}
    for g in generators(n):
        if g[0] == "e":
            forms[g] = pi(g[1], g[2])
        else:
            r = g[1]
            forms[g] = axpy(pi(r, r), -1, pi(r + 1, r + 1))
    return forms


@cache
def _laplacian_forms(n: int, n1: int, n2: int) -> tuple:
    """The Weyl forms of the Laplacian by the middle index its T-series
    omits (None for the full Laplacian), and of the T-series lift
    x_{n1+1} y_{n1+1} (None for n1 = n2).  Built once per layout, so the
    certificate of the T-series (``projection_forms``) reads the objects
    its tables are packed from; callers must not modify them."""
    sp = xy_space(n)
    laplacians = {
        skip: _weyl_form(sp, _laplacian_terms(sp, n1, n2, skip)) for skip in (None, n1 + 1)
    }
    lift = _weyl_form(sp, [(1, sp.x(n1 + 1), 1, sp.y(n1 + 1), 1)]) if n1 < n2 else None
    return laplacians, lift


def projection_forms(cfg: Config) -> tuple[dict, dict]:
    """The Weyl forms of the two operators of the T-series
    (``project_T_monomial``, n1 < n2): the reduced Laplacian, without the
    d_x d_y summand of the middle index n1+1, and the lift
    x_{n1+1} y_{n1+1}, the forms their tables are packed from."""
    laplacians, lift = _laplacian_forms(cfg.n, cfg.n1, cfg.n2)
    return laplacians[cfg.n1 + 1], lift


def _support(m: int, ones: int) -> int:
    """The packed monomial with exponent 1 wherever m has a nonzero one,
    without its degree field; ``ones`` has exponent 1 at every position."""
    # bit j of s ORs bits j..j+7 of m (FIELD_BITS = 8): a whole field at
    # its lowest bit
    s = m | m >> 1
    s |= s >> 2
    s |= s >> 4
    return s & ones


def _supported(sp: Space, form: dict) -> list:
    """The terms of a Weyl form as (v, d, c, the support of v, the support
    of d) (``_support``): what ``_add_product`` reads of a factor, formed
    once per form."""
    ones = ((1 << sp.dshift) - 1) // FIELD_MASK
    return [(v, d, c, _support(v, ones), _support(d, ones)) for (v, d), c in form.items()]


def _add_product(sp: Space, out: dict, sign: int, f: list, g: list, contracted: bool):
    """Add sign * fg to ``out`` (the formula in the module docstring), f
    and g as ``_supported`` lists; with ``contracted``, only the terms with
    k != 0.

    The degree limit is checked on the factors v^{a+c} and d^{b+e} of each
    pair of terms that forms a term.
    """
    dunit = 1 << sp.dshift
    for a, b, cf, _asup, bsup in f:
        for c, e, cg, csup, _esup in g:
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
    _add_product(sp, out, 1, _supported(sp, f), _supported(sp, g), False)
    return out


def bracket_defect(sp: Space, forms: dict, a: Generator, b: Generator, bracket) -> dict:
    """[pi(a), pi(b)] - pi([a, b]) as a Weyl form, where ``forms`` maps each
    generator to the Weyl form of pi and ``bracket`` is [a, b] as
    ``commutator_in_basis`` gives it."""
    return _defect(sp, forms, a, b, bracket, {})


def _defect(sp: Space, forms: dict, a: Generator, b: Generator, bracket, terms: dict) -> dict:
    """``bracket_defect``, reading the ``_supported`` terms of each form
    from ``terms``, by generator, where they are formed on first use."""
    for g in (a, b):
        if g not in terms:
            terms[g] = _supported(sp, forms[g])
    # the contracted terms (k != 0) of both products: their k = 0 terms are equal
    out: dict = {}
    _add_product(sp, out, 1, terms[a], terms[b], True)
    _add_product(sp, out, -1, terms[b], terms[a], True)
    for coeff, g in bracket:
        axpy(out, -coeff, forms[g])
    return out


def weyl_action(sp: Space, form: dict) -> tuple:
    """(ceiling, packed terms) of a Weyl form, for ``apply_weyl``.

    A packed term is (c, the (shift, order) of each derivative factor,
    packed delta v - d); the ceiling is ``_ceiling``.
    """
    packed = tuple(
        (c, tuple((sp.shift[pos], k) for pos, k in enumerate(sp.unpack(d)) if k), v - d)
        for (v, d), c in form.items()
    )
    return _ceiling(sp, form), packed


def _ceiling(sp: Space, form: dict):
    """The smallest packed key whose image under a Weyl form would leave
    the degree limit, or None when no term raises the degree."""
    rise = max(((v >> sp.dshift) - (d >> sp.dshift) for v, d in form), default=0)
    return (DEGREE_LIMIT - rise) << sp.dshift if rise > 0 else None


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
    h_r's Weyl form, constant + sum coefficient * v_p d_p, which multiplies
    each monomial by that eigenvalue; raises ValueError on any other
    term."""
    sp = cfg.space
    shifts = dict(zip(sp.unit, sp.shift))
    const, reads = 0, []
    for (v, d), c in weyl_forms(cfg.n, cfg.n1, cfg.n2)["h", r].items():
        if v == d == 0:
            const = c
        elif v == d and d in shifts:
            reads.append((shifts[d], c))
        else:
            raise ValueError(f"h_{r} has a term other than a constant or k v_p d_p")
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


def applier_reads(cfg: Config, g: Generator) -> set:
    """The positions whose exponents ``apply_generator_terms`` reads for g:
    the ``fp``/``fq`` shifts of a root's ``_apply_ops`` table, the shifts of
    h_r's ``_cartan_terms`` table.  A shift that is not one variable's field
    stands for every position.  The image of any other exponent is only
    moved by ``m + delta``; if either loop ever reads another field of its
    table, this must read it too."""
    sp = cfg.space
    if g[0] == "h":
        shifts = [s for s, _k in cfg.cartan_tables[g[1]][1]]
    else:
        shifts = [s for _c, fp, fq, _d in cfg.weyl_tables[0][g][1] for s in (fp, fq) if s >= 0]
    where = {s: p for p, s in enumerate(sp.shift)}
    if all(s in where for s in shifts):
        return {where[s] for s in shifts}
    return set(range(sp.nvars))


# ---------------------------------------------------------------------------
# Laplacian and the projection T
# ---------------------------------------------------------------------------


def laplace(cfg: Config, f: Poly) -> Poly:
    """The twisted Laplacian; its kernel is the harmonic subspace."""
    return Poly(f.space, _apply_ops(cfg.weyl_tables[1][None], f.terms))


def project_T_numerator(cfg: Config, m: int) -> tuple[dict, int]:
    """(N, d) with T(m) = N / d: the integer numerator of the series over
    its common denominator d = prod_{r=1..s} (a+r)(b+r), s its last term
    (requires n1 < n2).

    Term i enters N times d / prod_{r=1..i} (a+r)(b+r), in the order the
    series runs, so every running sum is d times that of the series in
    Fractions: the same keys, in the same order, dropped at the same sums.

    The defining series terminates because each application of the reduced
    operator strictly decreases sum_{J1} beta + sum_{J2'} alpha
    + sum_{J3} alpha.
    """
    if cfg.n1 >= cfg.n2:
        raise ValueError("projection T is defined only for n1 < n2")
    sp, mid = cfg.space, cfg.n1 + 1
    _roots, laplacians, lift = cfg.weyl_tables
    reduced = laplacians[mid]
    a, b = sp.exp(m, sp.x(mid)), sp.exp(m, sp.y(mid))
    terms = []  # ((x_mid y_mid)^i D^i (m), prod_{r<=i} (a+r)(b+r)): D commutes with the lift
    cur, denom = {m: 1}, 1
    for i in itertools.count(1):
        cur = _apply_ops(lift, _apply_ops(reduced, cur))
        if not cur:
            break
        denom *= (a + i) * (b + i)
        terms.append((cur, denom))
    out = {m: denom}
    for cur, d in terms:
        axpy(out, denom // d, cur)
    return out, denom


def project_T_monomial(cfg: Config, m: int) -> Poly:
    """Harmonic projection of a single monomial (requires n1 < n2): the
    numerator of ``project_T_numerator`` over its denominator."""
    out, denom = project_T_numerator(cfg, m)
    return Poly(cfg.space, {mm: Fraction(c, denom) for mm, c in out.items()})


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


class _Cells:
    """The walk of ``enumerate_cells`` over the cells of one layout: the
    bit offsets of the variables' fields, the weights and gaps the cone
    (``weights``, ``bound``) prunes by, and each block's splits, memoized
    by block and sums."""

    def __init__(self, cfg: Config, weights: Weights, bound: int):
        sp = cfg.space
        n, n1, n2 = cfg.n, cfg.n1, cfg.n2
        self.space = sp
        self.blocks = ((0, n1), (n1, n2), (n2, n))
        # the start of J2, whose first index n1+1 never has both x and y;
        # None where J2 is empty
        self.exclusive = n1 if n1 < n2 else None
        self.xshift = [sp.shift[sp.x(i)] for i in range(1, n + 1)]
        self.yshift = [sp.shift[sp.y(i)] for i in range(1, n + 1)]
        self.memo: dict = {}
        self.bound = bound
        if any(i in (n1, n2) for i in weights.transpositions):
            raise ValueError("a transposition joins two blocks")
        # per index i: the entries at i of the weights of x_i and y_i, the
        # only ones they have, and the weights themselves
        self.steps = []
        for i in range(1, n + 1):
            pair = [weights.position[sp.x(i)], weights.position[sp.y(i)]]
            entries = []
            for w in pair:
                mu = weights.entries(w)
                if any(mu[: i - 1]) or any(mu[i:]):
                    raise ValueError(f"a weight of index {i} has entries off index {i}")
                entries.append(mu[i - 1])
            self.steps.append((*entries, *pair))
        # whether (i-1 i) is a transposition: a gap between entries i-1 and i
        self.joined = [i - 1 in weights.transpositions for i in range(1, n + 1)]

    def splits(self, lo: int, hi: int, a: int, b: int) -> dict:
        """The monomials of x degree a and y degree b in the variables of
        the indices lo+1..hi, one block: a dict mapping each x part (the
        packed exponents of its x variables, no degree field) to the list of
        the (y part, w, g) it goes with, both parts in increasing
        lexicographic order of their exponents; in the middle block, none
        with both exponents of index n1+1 positive.  w is the weight of the
        block's monomial and g the sum of its gaps max(0, mu_i - mu_{i+1})
        over the transpositions (i i+1), and a monomial with a gap above 2
        bound or a gap sum above 4 bound is dropped while its exponents are
        chosen, index by index: the weights of x_i and y_i lie in entry i,
        so the exponents up to i fix the entries up to i."""
        key = lo, hi, a, b
        found = self.memo.get(key)
        if found is None:
            found = self.memo[key] = self._splits(lo, hi, a, b)
        return found

    def _splits(self, lo: int, hi: int, a: int, b: int) -> dict:
        size = hi - lo
        exclusive = lo == self.exclusive
        bound = self.bound
        # one split at most, and no gap, in a block of one index or none
        if size == 0:
            return {} if a or b else {0: [(0, 0, 0)]}
        if size == 1:
            if exclusive and a and b:
                return {}
            _ex, _ey, wx, wy = self.steps[lo]
            return {a << self.xshift[lo]: [(b << self.yshift[lo], a * wx + b * wy, 0)]}
        xshift, yshift = self.xshift[lo:hi], self.yshift[lo:hi]
        steps, joined = self.steps[lo:hi], self.joined[lo:hi]
        found = []

        def walk(i, ra, rb, px, py, w, prev, gaps):
            if i == size:
                found.append((px, py, w, gaps))
                return
            ex, ey, wx, wy = steps[i]
            last = i == size - 1
            for x in (ra,) if last else range(ra + 1):
                for y in (rb,) if last else range(rb + 1):
                    if exclusive and not i and x and y:
                        continue
                    mu = ex * x + ey * y
                    g = gaps
                    if joined[i] and prev > mu:
                        g += prev - mu
                        if prev - mu > 2 * bound or g > 4 * bound:
                            continue
                    walk(
                        i + 1, ra - x, rb - y, px + (x << xshift[i]), py + (y << yshift[i]),
                        w + x * wx + y * wy, mu, g,
                    )

        walk(0, a, b, 0, 0, 0, 0, 0)
        out: dict = {}
        for px, py, w, g in sorted(found):
            out.setdefault(px, []).append((py, w, g))
        return out

    def cell(self, cell: tuple) -> list:
        """The (w, m) of one cell, as ``enumerate_cells`` lists them."""
        if min(cell) < 0:
            return []
        top = sum(cell) << self.space.dshift
        self.space.check_degree(top)
        (lo1, hi1), (lo2, hi2), (lo3, hi3) = self.blocks
        a1, a2, a3, b1, b2, b3 = cell
        out: list = []
        first = self.splits(lo1, hi1, a1, b1)
        middle = first and self.splits(lo2, hi2, a2, b2)
        last = middle and self.splits(lo3, hi3, a3, b3)
        if not last:
            return out
        cap = 4 * self.bound
        for xa, ya_list in first.items():
            for xb, yb_list in middle.items():
                for xc, yc_list in last.items():
                    x = top + xa + xb + xc
                    for ya, wa, ga in ya_list:
                        for yb, wb, gb in yb_list:
                            g = ga + gb
                            if g <= cap:
                                base, w = x + ya + yb, wa + wb
                                out.extend(
                                    [(w + wc, base + yc) for yc, wc, gc in yc_list if g + gc <= cap]
                                )
        return out


def enumerate_cells(cfg: Config, cells, cone=None) -> list:
    """The monomials of each block-sum cell of ``cells`` in turn, each cell
    as ``enumerate_block_sums`` lists it.

    With ``cone`` = (weights, bound), a ``Weights`` of the xy space and an
    int, the list holds (w, m) instead, w the weight of m, for the m whose
    weight has ``Weights.descent`` at most ``bound`` only, in the same
    order.  No transposition of ``weights`` may join two blocks, so that is
    where every gap is at most 2 bound and the gaps of the three blocks add
    up to at most 4 bound: each block is pruned by its own gaps
    (``_Cells.splits``), and their sum is checked as the blocks combine.
    Without a cone the walk is that of the one-block ``Weights.ungraded``,
    which keeps every monomial, at weight 0, and the weights are dropped;
    that walk is shared per layout (``_whole_cells``).
    """
    walk = _Cells(cfg, *cone) if cone else _whole_cells(cfg.n, cfg.n1, cfg.n2)
    out: list = []
    for cell in cells:
        out.extend(walk.cell(cell))
    return out if cone else [m for _w, m in out]


@cache
def _whole_cells(n: int, n1: int, n2: int) -> _Cells:
    """The ``_Cells`` walk of a layout's one-block cone, built once: its
    steps and memoized splits serve every enumeration without a cone."""
    cfg = Config(n, n1, n2)
    return _Cells(cfg, Weights.ungraded(cfg, cfg.space), 0)


def enumerate_block_sums(
    cfg: Config, a1: int, a2: int, a3: int, b1: int, b2: int, b3: int
) -> list[int]:
    """Monomials with prescribed per-block degree sums and a*b = 0 at n1+1:
    one cell.

    Sums (a1, a2, a3) constrain the x exponents over J1, J2, J3 and
    (b1, b2, b3) the y exponents; monomials where both n1+1 exponents are
    positive are excluded.  They come in increasing order, the
    lexicographic order of their exponents in variable order.
    """
    return enumerate_cells(cfg, [(a1, a2, a3, b1, b2, b3)])


def tn_cells(cfg: Config, k: int) -> list[tuple]:
    """The cells (a1, a2, a3, b1, b2, b3) of ``enumerate_block_sums`` whose
    union is TN level k, in the order ``enumerate_TN_level`` lists them.

    The four weighted budgets 2*a3 + a2 + 2*b1 + b2 = k + offset are
    walked exhaustively; the bidegree then pins a1 and b3.
    """
    if cfg.n1 >= cfg.n2:
        raise ValueError("TN levels require n1 < n2")
    target = k + _dfun_offset(cfg)
    out = []
    for a3 in range(target // 2 + 1):
        for b1 in range((target - 2 * a3) // 2 + 1):
            rem = target - 2 * a3 - 2 * b1
            for a2 in range(rem + 1):
                b2 = rem - a2
                a1 = a2 + a3 - cfg.l1
                b3 = b1 + b2 - cfg.l2
                if a1 >= 0 and b3 >= 0:
                    out.append((a1, a2, a3, b1, b2, b3))
    return out


def enumerate_TN_level(cfg: Config, k: int) -> list[int]:
    """All monomials of the <l1, l2> piece with dfun = k and a*b = 0 at n1+1:
    the cells of ``tn_cells`` (``enumerate_cells``)."""
    return enumerate_cells(cfg, tn_cells(cfg, k))


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


def _form_support(sp: Space, form) -> int:
    """The positions a Weyl form's terms touch, as a packed monomial with
    exponent 1 at each (see ``_support``); ``form`` may be any iterable of
    its keys (v, d)."""
    ones = ((1 << sp.dshift) - 1) // FIELD_MASK
    out = 0
    for v, d in form:
        out |= _support(v | d, ones)
    return out


def _checked_pairs(cfg: Config, forms: dict, pairs):
    """The ``pairs`` (a, b) whose ``bracket_defect`` can be nonzero, each
    with its commutator as ``commutator_in_basis`` gives it.

    A pair is skipped when [a, b] = 0 in sl(n) and the forms of a and b
    touch disjoint positions: no derivative of one meets a variable of the
    other, so neither product has a contracted (k != 0) term, the bracket
    is zero by the product formula, and so is pi([a, b]).
    """
    support = {g: _form_support(cfg.space, form) for g, form in forms.items()}
    for a, b in pairs:
        bracket = commutator_in_basis(a, b, cfg.n)
        if bracket or support[a] & support[b]:
            yield a, b, bracket


def _brackets_hold(cfg: Config, forms: dict, pairs) -> bool:
    """Whether ``bracket_defect`` is zero on every one of ``pairs``,
    forming it only on the ``_checked_pairs``, each form's ``_supported``
    terms once."""
    terms: dict = {}  # generator -> its form's _supported terms
    return not any(
        _defect(cfg.space, forms, a, b, bracket, terms)
        for a, b, bracket in _checked_pairs(cfg, forms, pairs)
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
    Only the ``_checked_pairs`` are formed as identities; the others
    commute in sl(n) and touch disjoint positions, so their defect is zero
    unformed.

    The forms are the operators the applier applies: every table is
    packed from its form (``_weyl_tables``, ``_cartan_table``), so no
    second encoding is compared at run time.

    The relations are formed once per orbit of the permutations inside
    J1, J2 and J3 where each block transposition sigma relabels the form
    of every generator g to that of sigma(g) (``block_permutations_commute``,
    cached per layout too), so sigma pi(g) sigma^-1 = pi(sigma(g)).  The
    sl(n) bracket is equivariant too, so D(sigma x, sigma y) =
    sigma D(x, y) sigma^-1, and V is sigma-stable: a Chevalley generator
    lies in V when one of its orbit does, and x lies in V when D(x, y) = 0
    for every h_r and one root y per orbit of the permutations fixing x
    (``_orbit_pairs``).  Where that fails, the same code runs with every
    index a block of its own, and every Chevalley generator is paired with
    every other basis element (a pair of two Chevalley generators in both
    orders).  At n = 8 the orbits form 102 identities instead of 388 (357
    unordered pairs; of 777 Chevalley pairs and all 1,953).

    Checked once per layout; it applies no operator, so it adds nothing
    to the counts of ``apply_generator_terms``.
    """
    cfg = Config(n, n1, n2)
    return _certified(cfg, weyl_forms(n, n1, n2), block_permutations_commute(n, n1, n2))


def _certified(cfg: Config, forms: dict, orbits: bool) -> bool:
    """The verdict of ``applier_is_representation`` on ``forms``, once per
    orbit of the permutations inside the blocks where ``orbits`` (sound
    only where ``block_permutations_commute``), else with every index a
    block of its own: every pair of a Chevalley generator and another
    basis element checked."""
    blocks = _blocks(cfg) if orbits else [(a,) for a in range(1, cfg.n + 1)]
    return _brackets_hold(cfg, forms, _orbit_pairs(cfg.n, blocks))


# ---------------------------------------------------------------------------
# relabellings of the indices, and the one certificate of their symmetry
# ---------------------------------------------------------------------------


def block_transpositions(n: int, n1: int, n2: int) -> list[int]:
    """The i with i and i + 1 in one block (J1, J2 or J3): the adjacent
    transpositions (i i+1) that generate the permutations of the indices
    inside the blocks."""
    return [i for i in range(1, n) if i not in (n1, n2)]


class Relabelling:
    """An involution sigma of the indices 1..n (``index`` maps each index it
    moves), with or without the x/y ``flip``: a block transposition (i i+1)
    (``transposition`` is i), the x/y mirror x_a <-> y_{n+1-a}
    (``mirror``), or the x/y swap x_a <-> y_a.  The one place that knows
    what such a relabelling does to a packed monomial (``swap``), a term
    dict (``image``) and a generator (``generator``)."""

    def __init__(self, n: int, index: dict, flip: bool = False):
        self.n, self.index, self.flip = n, index, flip
        i = min(index, default=0)
        self.transposition = i if not flip and index == {i: i + 1, i + 1: i} else None
        self.mirror = flip and all(self.of(a) == n + 1 - a for a in range(1, n + 1))
        self._swaps: dict = {}  # space -> (swap, the positions it moves as a mask)

    def of(self, a: int) -> int:
        return self.index.get(a, a)

    def swap(self, sp: Space):
        """sigma on the packed monomials of the xy or z space ``sp``, built
        once per space: x_a to x_sigma(a) and y_a to y_sigma(a), or with the
        flip x_a to y_sigma(a) and y_a to x_sigma(a); z_{j,i} to
        z_{sigma(j), sigma(i)}.  Each pair of swapped positions is one
        addition: with the fields at hi and lo holding a and b, adding
        (b - a) * (2^hi - 2^lo) makes them b and a, and the degree field is
        untouched."""
        return self._swap(sp)[0]

    def _swap(self, sp: Space) -> tuple:
        """(``swap``, the positions it moves as a mask of their shifts)."""
        found = self._swaps.get(sp)
        if found is None:
            of = self.of
            if sp.kind == "xy":
                x, y = (sp.y, sp.x) if self.flip else (sp.x, sp.y)
                to = {sp.x(a): x(of(a)) for a in range(1, sp.n + 1)}
                to.update({sp.y(a): y(of(a)) for a in range(1, sp.n + 1)})
            else:  # a z space, which no flip relabels
                pairs = [(j, i) for j in sp.rows for i in sp.cols if (j, i) not in sp.excluded]
                to = {sp.z(j, i): sp.z(of(j), of(i)) for j, i in pairs}
            fields = [
                (sp.shift[p], sp.shift[q], (1 << sp.shift[p]) - (1 << sp.shift[q]))
                for p, q in to.items()
                if p < q
            ]

            def swap(m: int) -> int:
                for hi, lo, step in fields:
                    m += (((m >> lo) & FIELD_MASK) - ((m >> hi) & FIELD_MASK)) * step
                return m

            moved = sum(1 << sp.shift[p] for p, q in to.items() if p != q)
            found = self._swaps[sp] = swap, moved
        return found

    def generator(self, g: Generator) -> list[tuple]:
        """sigma(g) in the basis, as (coeff, generator) pairs: E_ab goes to
        E_{sigma(a), sigma(b)}, or with the flip to -E_{sigma(b), sigma(a)},
        the automorphism of sl(n) that conjugation by the x/y mirror
        gives."""
        sign = -1 if self.flip else 1
        if g[0] == "e":
            a, b = map(self.of, g[1:])
            return [(sign, ("e", b, a) if self.flip else ("e", a, b))]
        a, b = self.of(g[1]), self.of(g[1] + 1)
        return matrix_to_generators({(a, a): sign, (b, b): -sign}, self.n)

    def image(self, sp: Space, terms: dict) -> dict:
        """sigma of a term dict of ``sp``, whose keys are packed monomials or
        pairs of them (the (v, d) of a Weyl form)."""
        return _relabelled(self.swap(sp), terms)


def _relabelled(swap, terms: dict) -> dict:
    """``terms`` with each key relabelled by ``swap``, each of a pair
    alike."""
    return {
        ((swap(m[0]), swap(m[1])) if type(m) is tuple else swap(m)): c for m, c in terms.items()
    }


def relabellings(n: int, transpositions=(), mirror: bool = False) -> list[Relabelling]:
    """The transpositions (i i+1) for i in ``transpositions``, then, with
    ``mirror``, the x/y mirror: candidates for ``admitted``."""
    out = [Relabelling(n, {i: i + 1, i + 1: i}) for i in transpositions]
    if mirror:
        out.append(Relabelling(n, {a: n + 1 - a for a in range(1, n + 1) if 2 * a != n + 1}, True))
    return out


class Table(NamedTuple):
    """Data a relabelling sigma must carry onto itself: the entry of each
    key k of ``entries``, a term dict of ``space``, onto the sum over
    sigma(k) = sum_j c_j k_j of c_j times the entry of k_j in ``target``
    (``entries`` where None).  ``keys`` says what a key is: "generators"
    (``Relabelling.generator``), a space whose packed monomials the keys
    are (``Relabelling.swap``), or None for keys that sigma fixes."""

    keys: object
    space: Space
    entries: dict
    target: dict | None = None


def _reach(table: Table) -> dict | None:
    """For a table keyed by generators that is its own target: per
    generator g, the positions of the xy space its entry touches and x_a,
    y_a for each index a of g, as a mask (``_form_support``).  A
    relabelling that moves none of them fixes g and its entry.  None for
    any other table."""
    sp = table.space
    if table.keys != "generators" or table.target is not None:
        return None
    index = [0] + [1 << sp.shift[sp.x(a)] | 1 << sp.shift[sp.y(a)] for a in range(1, sp.n + 1)]
    out = {}
    for g, entry in table.entries.items():
        ends = g[1:] if g[0] == "e" else (g[1], g[1] + 1)
        out[g] = _form_support(sp, entry) | index[ends[0]] | index[ends[1]]
    return out


def _carries(sigma: Relabelling, table: Table, reach: dict | None) -> bool:
    """Whether sigma carries ``table`` onto its target, passing over the
    keys whose ``reach`` it does not move."""
    keys, target = table.keys, table.entries if table.target is None else table.target
    swap, moved = sigma._swap(table.space)
    key_swap = sigma.swap(keys) if isinstance(keys, Space) else None
    by_generator = keys == "generators"
    for key, entry in table.entries.items():
        if reach is not None and not reach[key] & moved:
            continue
        if by_generator:
            images = sigma.generator(key)
        else:
            images = [(1, key if key_swap is None else key_swap(key))]
        want: dict = {}
        for c, k in images:
            if k not in target:
                return False
            axpy(want, c, target[k])
        if _relabelled(swap, entry) != want:
            return False
    return True


def admitted(candidates, vectors=(), tables=()) -> list[Relabelling]:
    """The one certificate of the relabellings every layer uses: the
    ``candidates`` that map each of ``vectors``, (space, [term dict])
    pairs, onto plus or minus itself, and carry each of ``tables``
    (``Table``) onto its target; and of the candidates that are no
    transposition (the mirror), only those under whose conjugation the
    transpositions kept are closed, so that each normalizes the group they
    generate (``Weights``).  Each layer lists what a relabelling must
    respect there and keeps its own policy on the result."""
    sets = [(sp, {frozenset(v.items()) for v in vecs}, vecs) for sp, vecs in vectors]
    reach = [_reach(table) for table in tables]
    out = [
        sigma
        for sigma in candidates
        if all(
            frozenset(img.items()) in keys or frozenset((m, -c) for m, c in img.items()) in keys
            for sp, keys, vecs in sets
            for img in map(_relabelled, itertools.repeat(sigma.swap(sp)), vecs)
        )
        and all(map(_carries, itertools.repeat(sigma), tables, reach))
    ]
    kept = {(s.transposition, s.transposition + 1) for s in out if s.transposition}
    return [
        s for s in out if s.transposition or {tuple(sorted(map(s.of, p))) for p in kept} <= kept
    ]


def _applier_admits(n: int, n1: int, n2: int, candidates) -> bool:
    """Whether ``admitted`` keeps every one of ``candidates`` on the Weyl
    forms: sigma pi(g) sigma^-1 = pi(sigma(g)) on the forms, and so on the
    tables packed from them."""
    table = Table("generators", xy_space(n), weyl_forms(n, n1, n2))
    return admitted(candidates, tables=[table]) == candidates


def _blocks(cfg: Config) -> list[tuple]:
    """The nonempty blocks J1, J2, J3 of the layout, as tuples of indices."""
    return [tuple(J) for J in (cfg.J1, cfg.J2, cfg.J3) if J]


def _orbit_roots(blocks, fixed=()) -> list[Generator]:
    """One root E_ab per orbit of the permutations inside ``blocks`` that
    fix each index of ``fixed``: the orbit of E_ab is read off the classes
    of a and b (a fixed index is a class of its own), so E_ab takes the
    first index of each class, or the first two where both share one."""
    classes = [(a,) for a in fixed]
    classes += [J for J in (tuple(a for a in B if a not in fixed) for B in blocks) if J]
    out = []
    for A in classes:
        for B in classes:
            if A is not B:
                out.append(("e", A[0], B[0]))
            elif len(A) > 1:
                out.append(("e", A[0], A[1]))
    return out


def _orbit_pairs(n: int, blocks):
    """(x, y) for one Chevalley generator x per orbit of the permutations
    inside ``blocks``, with y every h_r and one root per orbit of the
    permutations that fix x (``_orbit_roots``), y != x.  With every index a
    block of its own, that is every Chevalley generator x and every other
    basis element y."""
    block = {a: k for k, J in enumerate(blocks) for a in J}
    seen = set()
    for i in range(1, n):
        for a, b in ((i, i + 1), (i + 1, i)):
            if (block[a], block[b]) in seen:
                continue
            seen.add((block[a], block[b]))
            x = ("e", a, b)
            for y in [("h", r) for r in range(1, n)] + _orbit_roots(blocks, (a, b)):
                if y != x:
                    yield x, y


@cache
def block_permutations_commute(n: int, n1: int, n2: int) -> bool:
    """Whether relabelling the variables by each ``block_transpositions``
    sigma maps every generator's Weyl form to that of the relabelled
    generator (``_applier_admits``): sigma pi(E_ab) sigma^-1 =
    pi(E_{sigma(a), sigma(b)}), on the forms the appliers are packed from.

    Together with ``applier_is_representation`` (every bracket, so every
    Cartan element, is pi of the sl(n) bracket) each permutation sigma
    inside the blocks then conjugates pi(U_k(g)) onto itself, and the
    applier of each root onto that of the relabelled root.  Checked once
    per layout.
    """
    return _applier_admits(n, n1, n2, relabellings(n, block_transpositions(n, n1, n2)))


@cache
def mirror_commutes(n: int, n1: int, n2: int) -> bool:
    """Whether conjugating by the x/y mirror M maps every generator's Weyl
    form to that of its image under E_ab -> -E_{n+1-b, n+1-a}
    (``_applier_admits``): M pi(E_ab) M^-1 = -pi(E_{n+1-b, n+1-a}) and
    M pi(h_r) M^-1 = pi(h_{n-r}), on the forms the appliers are packed
    from.

    That map is an automorphism of sl(n) (minus the transpose, followed by
    the index reversal), so with ``applier_is_representation`` M conjugates
    pi(U_k(g)) onto itself.  Checked once per layout, apart from
    ``block_permutations_commute``, which the annihilator reads alone.
    """
    return _applier_admits(n, n1, n2, relabellings(n, mirror=True))


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
        as ``diagonal_value`` reads only the block of an index;
      * z space: z_{j,i} has weight eps_i + eps_j, the index content of its
        images x_i x_j and y_i y_j under ``detvar``'s evaluations; column 0
        and row n+1 add nothing (z_{n+1,i} evaluates to x_i, z_{j,0} to
        y_j).

    A weight mu is packed as the int sum_a mu_a 2^(B(a-1)), so the weight of
    a product is the sum of the packed weights.  An entry lies in [-d, d]
    for a monomial of degree d, so the packing is one to one with B = 8 for
    the symbols (degree < 128) and B = 16 for the xy and z monomials
    (degree < ``DEGREE_LIMIT``).

    The ``relabellings`` (``Relabelling``, certified by ``admitted``) are
    transpositions and possibly the x/y mirror.  The transpositions (i i+1)
    join the indices into runs (``cuts``, 0-based ranges).  A permutation
    sigma inside the runs moves the entries, sigma(mu)_{sigma(a)} = mu_a,
    and each orbit is represented by its weight with ascending entries
    inside each run.  With no transposition every weight is its own orbit.

    With the mirror, the orbits are those of the group G x| <M> that the
    transpositions' group G and the x/y mirror M generate, where M maps mu
    to -reverse(mu) (``mirrored``), the weight of the mirror image of a
    monomial.  That is sound only where the mirror maps each variable's
    weight so, which ``filtration`` checks, and the transpositions are
    closed under i -> n - i, so that M normalizes G, which ``admitted``
    checks.  An orbit is then G mu
    together with G M(mu), two orbits of G of one size, equal or disjoint:
    it is represented by the smaller of the two ascending weights, and its
    size doubles where they differ.  ``sorter`` and ``order_type``, which
    relabel by permutations alone, refuse such an instance.

    ``Weights.ungraded`` is the one-block grading: every position has
    weight 0 and there are no relabellings, so every monomial lies in the
    one block of weight 0, its own orbit of size 1, and a build by weight
    runs as a whole build, in the same order.  Whether a build has orbits
    (``orbits``) is the only switch a caller reads.
    """

    def __init__(self, cfg: Config, space: Space, relabellings=()):
        n = self.n = cfg.n
        self.space = space
        bits = self.bits = 8 if space.kind == "sym" else 16
        if space.kind == "sym":
            self.position = tuple(
                (1 << bits * (g[1] - 1)) - (1 << bits * (g[2] - 1)) if g[0] == "e" else 0
                for g in generators(n)
            )
        elif space.kind == "z":
            self.position = tuple(
                sum(1 << bits * (a - 1) for a in (j, i) if 1 <= a <= n)
                for j in space.rows
                for i in space.cols
                if (j, i) not in space.excluded
            )
        else:
            self.position = tuple(
                sum(
                    (diagonal_value(cfg, a, unit) - diagonal_value(cfg, a, 0)) << bits * (a - 1)
                    for a in range(1, n + 1)
                )
                for unit in space.unit
            )
        self.transpositions = tuple(s.transposition for s in relabellings if not s.mirror)
        self.mirror = any(s.mirror for s in relabellings)
        self.orbits = bool(relabellings)
        ends = [a for a in range(1, n) if a not in self.transpositions] + [n]
        self.cuts = list(zip([0] + ends[:-1], ends))
        self._half = 1 << (bits - 1)
        self._offset = sum(self._half << bits * a for a in range(n))
        # the fields as little-endian unsigned bytes or shorts
        self._format, self._size = f"<{n}{'B' if bits == 8 else 'H'}", n * bits // 8
        # the bit offsets of the fields of mu_i and mu_{i+1}, per (i i+1)
        self._adjacent = [(bits * (i - 1), bits * i) for i in self.transpositions]
        # index a -> 2^(8 r) for a in the r-th run (entry 0 unused), for order_type
        self._run_unit = [0] + [
            1 << 8 * r for r, (lo, hi) in enumerate(self.cuts) for _a in range(lo, hi)
        ]
        self._sorted: dict = {}
        self._kept: dict = {}  # w -> is_representative(w)
        self._descents: dict = {}  # w -> descent(w)
        self._sizes: dict = {}  # w -> orbit_size(w)
        self._keys: dict = {}  # w -> its key in representative_sums

    @classmethod
    @cache
    def ungraded(cls, cfg: Config, space: Space) -> Weights:
        """The one-block grading of ``space``: every position at weight 0,
        no relabellings.  One instance per layout and space, as its answers
        never change."""
        weights = cls(cfg, space)
        weights.position = (0,) * len(weights.position)
        return weights

    def _fields(self, w: int) -> tuple:
        """mu_a + 2^(B-1) for a = 1..n."""
        return struct.unpack(self._format, (w + self._offset).to_bytes(self._size, "little"))

    def _packed(self, fields) -> int:
        """The weight whose ``_fields`` are ``fields``."""
        return int.from_bytes(struct.pack(self._format, *fields), "little") - self._offset

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
        one per row and per column, so it has the weight of the product of
        the entries e_{rows[k], cols[k]}, read off ``position`` (a diagonal
        entry, a Cartan combination, has weight 0 = eps_j - eps_j).  The
        root e_{j,i} sits at n - 1 + (j - 1)(n - 1) + i - 1 - [i > j] in
        ``generators`` order."""
        n, position = self.n, self.position
        return sum(position[j * (n - 1) + i - 1 - (i > j)] for j, i in zip(rows, cols) if i != j)

    def order_type(self, rows, cols) -> int:
        """A key that two pairs of index sets (rows, cols) share exactly
        when a permutation inside the runs maps one onto the other: per
        run, the numbers of its indices in the rows only, in the columns
        only and in both, packed into one int (8 bits per count, one count
        of each kind per run)."""
        self._permutations_only()
        unit = self._run_unit
        cshift = 8 * len(self.cuts)
        key = 0
        for a in rows:
            key += unit[a] << 2 * cshift if a in cols else unit[a]
        for a in cols:
            if a not in rows:
                key += unit[a] << cshift
        return key

    def _permutations_only(self):
        if self.mirror:
            raise ValueError("the mirror is no permutation of the indices")

    def mirrored(self, w: int) -> int:
        """-reverse(mu), the weight M maps mu to."""
        top = 2 * self._half
        return self._packed([top - v for v in reversed(self._fields(w))])

    def _ascending(self, w: int) -> int:
        """The weight of w's orbit under the transpositions alone whose
        entries ascend inside each run."""
        f = self._fields(w)
        return self._packed([v for lo, hi in self.cuts for v in sorted(f[lo:hi])])

    def representative(self, w: int) -> int:
        """The representative of w's orbit."""
        if not self.orbits:
            return w
        rep = self._ascending(w)
        return min(rep, self._ascending(self.mirrored(w))) if self.mirror else rep

    def sorter(self, w: int) -> tuple:
        """(rep, s): the representative of w's orbit, and a relabelling s of
        the indices that takes w to it (index a to s[a]; s[0] is unused), or
        None where w is its own representative."""
        self._permutations_only()
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
        """Whether w represents its orbit: mu_i <= mu_{i+1} for each of the
        transpositions (i i+1), read off two fields each, and, with the
        mirror, w no larger than the ascending mirror weight; memoized per
        weight."""
        found = self._kept.get(w)
        if found is None:
            t = w + self._offset
            mask = (1 << self.bits) - 1
            found = all((t >> lo) & mask <= (t >> hi) & mask for lo, hi in self._adjacent)
            if found and self.mirror:
                found = w <= self._ascending(self.mirrored(w))
            self._kept[w] = found
        return found

    def representative_sums(self, left: list, right: list):
        """(wa + wb, a, b) for each (wa, a) of ``left`` and (wb, b) of
        ``right`` whose weights add up to a representative weight, in the
        order of ``left``, then of ``right``.

        Each weight gets a key linear in it, its gap mu_{i+1} - mu_i at the
        k-th transposition (i i+1) in the 16-bit field k, so the key of a
        sum is the sum of the keys.  A gap of a sum of two weights of
        monomials lies in (-2^15, 2^15), so offsetting every field by 2^15
        sets its top bit exactly where the gap is nonnegative: one addition
        and one mask test per pair decide whether the sum ascends in every
        run, and ``is_representative`` decides the mirror on those that do.
        """
        top = sum(1 << 16 * k + 15 for k in range(len(self._adjacent)))
        keys, mask, offset = self._keys, (1 << self.bits) - 1, self._offset

        def key(w):
            found = keys.get(w)
            if found is None:
                t = w + offset
                found = keys[w] = sum(
                    (((t >> hi) & mask) - ((t >> lo) & mask)) << 16 * k
                    for k, (lo, hi) in enumerate(self._adjacent)
                )
            return found

        keyed = [(key(wb) + top, wb, b) for wb, b in right]
        keeps = self.is_representative
        for wa, a in left:
            ka = key(wa)
            for kb, wb, b in keyed:
                if (ka + kb) & top == top and keeps(wa + wb):
                    yield wa + wb, a, b

    def descent(self, w: int) -> int:
        """max(max_i ceil(g_i / 2), ceil(sum_i g_i / 4)), where g_i =
        max(0, mu_i - mu_{i+1}) over the transpositions (i i+1): 0 exactly
        on the weights ascending in every run, the representatives of the
        transpositions' orbits.  Memoized per weight.

        A shift by +-eps_a +-eps_b, whose entries add up to at most 2 in
        absolute value, moves each mu_i - mu_{i+1} by at most 2 and their
        sum over the transpositions by at most 4, so each g_i and the sum of
        them alike (the positive part moves no more than its argument): the
        descent moves by at most 1.  ``filtration`` builds the brute-force
        levels by it."""
        found = self._descents.get(w)
        if found is None:
            t = w + self._offset
            mask = (1 << self.bits) - 1
            gaps = [max(0, ((t >> lo) & mask) - ((t >> hi) & mask)) for lo, hi in self._adjacent]
            found = max([(g + 1) // 2 for g in gaps] + [(sum(gaps) + 3) // 4])
            self._descents[w] = found
        return found

    def orbit_size(self, w: int) -> int:
        """The number of weights in w's orbit: per run, the number of
        distinct arrangements of its entries; twice that where the mirror
        takes w to another orbit of the transpositions.  Memoized per
        weight, for the towers that share the instance."""
        if not self.orbits:
            return 1
        size = self._sizes.get(w)
        if size is None:
            f = self._fields(w)
            size = 1
            for lo, hi in self.cuts:
                if hi - lo > 1:
                    size *= factorial(hi - lo)
                    for count in Counter(f[lo:hi]).values():
                        size //= factorial(count)
            if self.mirror and self._ascending(w) != self._ascending(self.mirrored(w)):
                size *= 2
            self._sizes[w] = size
        return size
