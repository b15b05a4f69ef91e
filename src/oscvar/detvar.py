"""Determinantal machinery: z-rings, evaluation maps, minors, 3-chains.

For index blocks J1 and J3 of a configuration, the restricted ring carries
one variable z_{j,i} per (j, i) in J3 x J1, and two evaluations

    phi_x(z_{j,i}) = x_i x_j,      phi_y(z_{j,i}) = y_i y_j.

The extended ring adds a column 0 and a row n+1 (minus the corner (n+1,0))
with the conventions z_{n+1,i} = x_i and z_{j,0} = y_j, and the combined
evaluation

    phi(z_{j,i}) = x_i x_j - y_i y_j,  phi(z_{n+1,i}) = x_i,
    phi(z_{j,0}) = y_j.

The kernel of phi_x (and of phi_y) is the ideal of 2x2 minors of the
restricted matrix; the kernel of phi is the ideal of 3x3 minors of the
extended matrix.  Both statements are verified degree by degree by exact
rank computations.

Each degree is graded by index content (``osc.Weights`` on the z ring):
z_{j,i} has weight eps_i + eps_j, and column 0 and row n+1 add nothing.
Every evaluation sends z_{j,i} to xy monomials of that index content
(x_a and y_a each add eps_a): x_i x_j, y_i y_j, x_i or y_j.  So the images
of monomials of different weights share no xy monomial, and each kernel
is the direct sum of its weight blocks; every minor is homogeneous, so
each ideal piece is graded the same way.  The permutations inside J1 and
inside J3 commute with the evaluations and map the minors to plus or
minus minors, so they map the block of weight mu onto that of sigma(mu):
one block is solved per orbit, at the weight with ascending entries
inside J1 and J3, and each dimension is the sum of |orbit| times the
representative's.  ``_grading`` certifies this on every call: each
variable's image and each minor is homogeneous of its weight, and each
adjacent transposition inside J1 or J3 maps each variable's image to the
image of the relabelled variable and the minor list onto itself up to
sign.  Where the transpositions fail every weight is its own block; where
homogeneity fails the degree is one block.  ``_monomials_by_weight``
groups each degree's monomials by weight in one walk that carries both;
it keeps every weight only at the degrees <= top - t that complete the
t x t minors, and the representative weights above them.
``_ideal_piece`` multiplies a minor only by the monomials that complete it
to a representative weight.  A degree whose images would not fit the
packed monomial (above ``MAX_DEGREE``) is refused before any work.

z monomials, like xy ones, are packed ints (see ``poly``).  The
evaluations are ring homomorphisms, so an ``Evaluation`` computes the
image of a monomial m as image(m - e_v) * image(z_v), with v the last
nonzero position of m (its lowest nonzero field), one term-by-term
product of packed ints per call, checked once against the degree limit.
It memoizes the heads m - e_v it computes along the way, never the
images callers ask for: a degree-k check then holds images of degree < k
only, and the G-set check only proper prefixes of the chain-free
monomials it evaluates (chain-free themselves, a prefix being a
sub-multiset), which bounds the memo without a size knob.  Each
verification builds its evaluations once and drops them when it returns;
``phi`` builds a fresh one per call.  The kernels read the images
through a sized lazy view (``_Images``), so each is built when
elimination reaches it.

A multiset of index pairs contains a 3-chain when some triple is strictly
increasing in both coordinates; monomials whose full pair multiset is
3-chain-free (the G-sets below) map to linearly independent polynomials
under phi, which is the combinatorial engine behind the annihilator
computations.  A G-set is the set of chain-free monomials with given x/y/z
factor counts (k1, k2, k3) and given column and row multisets (I1, I3);
each chain-free monomial of the extended ring lies in exactly one of
them.  ``verify_gset_independence`` ranks one G-set per order type of
(I1, I3).  A permutation of J1 or of J3 commutes with phi, and whether a
monomial has a 3-chain depends only on the order of its indices inside
J1 and inside J3 (column 0 and row n+1 stay fixed).  So the relabelling
that moves the distinct values of I1 and of I3, in order, onto the first
values of J1 and of J3 (``_canonical``) is a bijection between the two
G-sets that keeps the rank of their images, and each tuple reads the rank
of its canonical tuple.  The certificate is ``_grading`` on phi's image
table, the one the ranks' ``Evaluation`` reads: each adjacent
transposition inside J1 or J3 must map each variable's image to the image
of the relabelled variable.  The certified transpositions join the
indices into runs (``_run_starts``), and the relabelling moves values only
inside a run; where the certificate refuses, each index is its own run,
every tuple is its own canonical tuple, and the same walk ranks every
G-set.  ``_gset_buckets`` builds the canonical G-sets of every degree in
one depth-first walk, in the (row asc, col desc) order the chain test
reads: it carries the patience state of the chain test and cuts a branch
at a 3-chain or at a row that leaves a gap in its run, and keeps a node
when its column multiset is canonical too.  ``enumerate_gset``, which
builds one G-set from its index multisets, is the reference the buckets
are tested against.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import lru_cache
from math import comb, inf

from .linalg import EchelonBasis, kernel_of_columns, span_equal
from .osc import Config, Weights, permutes_up_to_sign, transposer
from .poly import (
    DEGREE_LIMIT, FIELD_BITS, Poly, Space, add_term, axpy, determinant, xy_space, z_space,
)


def restricted_ring(cfg: Config) -> Space:
    if not cfg.J1 or not cfg.J3:
        raise ValueError("restricted z ring needs nonempty J1 and J3")
    return z_space(tuple(cfg.J3), tuple(cfg.J1))


def extended_ring(cfg: Config) -> Space:
    rows = tuple(cfg.J3) + (cfg.n + 1,)
    cols = (0,) + tuple(cfg.J1)
    return z_space(rows, cols, frozenset({(cfg.n + 1, 0)}))


def _is_extended(space: Space) -> bool:
    return 0 in space.cols


# A z monomial of degree k has images of degree 2k in x and y, so the
# checks run to this degree at most.
MAX_DEGREE = (DEGREE_LIMIT - 1) // 2


def _check_bound(bound: int) -> None:
    """Refuse a degree bound whose images would not fit the packed
    monomial, before any work."""
    if bound > MAX_DEGREE:
        raise ValueError(
            f"degree {bound} exceeds {MAX_DEGREE}, the largest whose images "
            "fit the packed monomial"
        )


class Evaluation:
    """phi, phi_x or phi_y on one z ring, as a homomorphism on monomials.

    ``evaluation`` is "x" or "y" (phi_x, phi_y; restricted ring only) or
    "phi".  ``self(m)`` is the term dict, in xy_space(n), of the image of
    the packed monomial ``m``: image(m - e_v) times image(z_v), with v the
    last nonzero position of m.  The images of those heads are memoized;
    the images callers ask for are not (see the module docstring), so each
    call returns a fresh dict.
    """

    __slots__ = ("target", "_unit", "_var", "_top", "_memo")

    def __init__(self, n: int, ring: Space, evaluation: str):
        if ring.kind != "z":
            raise ValueError("evaluations expect a z ring")
        if evaluation != "phi" and _is_extended(ring):
            raise ValueError("phi_x/phi_y expect the restricted z ring")
        self.target = xy_space(n)
        images = _z_images(n, ring, evaluation)
        self._unit = ring.unit
        self._var = [list(images[pos].terms.items()) for pos in range(ring.nvars)]
        self._top = [max(images[pos].terms) for pos in range(ring.nvars)]
        self._memo: dict = {}

    def __call__(self, m: int) -> dict:
        if not m:
            return {0: 1}
        low = m & -m  # the lowest set bit lies in the lowest nonzero field
        v = -1 - (low.bit_length() - 1) // FIELD_BITS  # counted from the end
        head = m - self._unit[v]
        if not head:
            return dict(self._var[v])
        image = self._memo.get(head)
        if image is None:
            image = self._memo[head] = self(head)
        self.target.check_degree(max(image) + self._top[v])
        out: dict = {}
        for m2, c2 in self._var[v]:
            for m1, c1 in image.items():
                add_term(out, m1 + m2, c1 * c2)
        return out

    def apply(self, p: Poly) -> Poly:
        """The image of a polynomial of the ring."""
        out: dict = {}
        for m, c in p.terms.items():
            axpy(out, c, self(m))
        return Poly(self.target, out)


def phi(cfg: Config, p: Poly) -> Poly:
    """Combined evaluation on the extended ring."""
    return Evaluation(cfg.n, p.space, "phi").apply(p)


@lru_cache(maxsize=None)
def _z_images(n: int, ring: Space, evaluation: str) -> dict:
    """Images in xy_space(n) of the z variables of ``ring``, by position,
    under ``evaluation``: "x" or "y" (phi_x, phi_y) or "phi".  The images
    depend only on these three, so each table is built once and shared;
    ``Evaluation`` reads its term dicts and never modifies them."""
    target = xy_space(n)

    def mono(*positions) -> int:
        return sum(target.unit[pos] for pos in positions)

    images = {}
    for j in ring.rows:
        for i in ring.cols:
            if (j, i) in ring.excluded:
                continue
            if evaluation == "phi" and j == n + 1:
                terms = {mono(target.x(i)): 1}
            elif evaluation == "phi" and i == 0:
                terms = {mono(target.y(j)): 1}
            else:
                xx = mono(target.x(i), target.x(j))
                yy = mono(target.y(i), target.y(j))
                terms = {"x": {xx: 1}, "y": {yy: 1}, "phi": {xx: 1, yy: -1}}[evaluation]
            images[ring.z(j, i)] = Poly(target, terms)
    return images


def minor_generators(space: Space, t: int) -> list[Poly]:
    """All t x t minors of the z matrix of ``space``.

    Excluded matrix entries count as literal zero.  Row/column subsets are
    enumerated in lexicographic order, so the generator list is
    deterministic.  Empty when t exceeds either set size.
    """
    rows, cols = space.rows, space.cols
    if t > len(rows) or t > len(cols) or t < 1:
        return []
    entry = {
        (j, i): Poly.zero(space) if (j, i) in space.excluded
        else Poly.variable(space, space.z(j, i))
        for j in rows
        for i in cols
    }
    out = []
    for rsub in itertools.combinations(rows, t):
        for csub in itertools.combinations(cols, t):
            det = determinant(space, [[entry[j, i] for i in csub] for j in rsub])
            if det:
                out.append(det)
    return out


# ---------------------------------------------------------------------------
# 3-chains
# ---------------------------------------------------------------------------


def _has_increasing_triple(values) -> bool:
    """True iff ``values`` has a strictly increasing subsequence of length
    3: patience sorting that keeps only the two smallest pile tops."""
    first = second = inf
    for v in values:
        if v <= first:
            first = v
        elif v <= second:
            second = v
        else:
            return True
    return False


def has_3chain(pairs) -> bool:
    """True iff some triple of pairs is strictly increasing in both
    coordinates.

    Sorting by (first asc, second desc) reduces the question to a strictly
    increasing subsequence of length 3 in the second coordinate.
    """
    return _has_increasing_triple(
        p[1] for p in sorted(pairs, key=lambda p: (p[0], -p[1]))
    )


# ---------------------------------------------------------------------------
# G-sets: 3-chain-free monomials with prescribed index multisets
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class GMonomial:
    """A monomial of the extended ring in canonical sorted-factor form.

    ``x_part`` and ``y_part`` are sorted index multisets (columns resp.
    rows); ``z_part`` is the sorted multiset of (row, col) pairs.
    """

    x_part: tuple
    y_part: tuple
    z_part: tuple

    def column_multiset(self) -> tuple:
        return tuple(sorted(self.x_part + tuple(i for _, i in self.z_part)))

    def row_multiset(self) -> tuple:
        return tuple(sorted(self.y_part + tuple(j for j, _ in self.z_part)))

    def index_pairs(self, n: int) -> tuple:
        """The full pair multiset: x factors count as row n+1, y factors as
        column 0."""
        return (
            tuple((n + 1, i) for i in self.x_part)
            + self.z_part
            + tuple((j, 0) for j in self.y_part)
        )

    def exponents(self, space: Space) -> int:
        """The packed monomial of this monomial in the extended ring."""
        n_plus = max(space.rows)
        m = [0] * space.nvars
        for i in self.x_part:
            m[space.z(n_plus, i)] += 1
        for j in self.y_part:
            m[space.z(j, 0)] += 1
        for j, i in self.z_part:
            m[space.z(j, i)] += 1
        return space.pack(m)


def _sub_multisets(ms: tuple, k: int):
    """Distinct size-k sub-multisets (as sorted tuples) with complements."""
    seen = set()
    idx = range(len(ms))
    for combo in itertools.combinations(idx, k):
        sub = tuple(ms[i] for i in combo)
        if sub in seen:
            continue
        seen.add(sub)
        rest = list(ms)
        for i in reversed(combo):
            del rest[i]
        yield sub, tuple(rest)


def _pairings(rows: tuple, cols: tuple, low=None):
    """Distinct multisets of (row, col) pairs matching the two sorted
    multisets, each once and as a sorted tuple.  A row equal to the one
    before it takes only columns >= ``low``, that row's column."""
    if not rows:
        yield ()
        return
    r = rows[0]
    rest_rows = rows[1:]
    repeat = rest_rows[:1] == (r,)
    for pos, c in enumerate(cols):
        if (low is not None and c < low) or (pos and c == cols[pos - 1]):
            continue
        rest_cols = cols[:pos] + cols[pos + 1 :]
        for tail in _pairings(rest_rows, rest_cols, c if repeat else None):
            yield ((r, c),) + tail


def enumerate_gset(
    cfg: Config, k1: int, k2: int, k3: int, i1_multiset, i3_multiset
) -> list[GMonomial]:
    """The 3-chain-free monomials with x/y/z factor counts (k1, k2, k3),
    column multiset i1_multiset and row multiset i3_multiset."""
    I1 = tuple(sorted(i1_multiset))
    I3 = tuple(sorted(i3_multiset))
    if len(I1) != k1 + k3 or len(I3) != k2 + k3:
        raise ValueError("index multiset sizes must be (k1+k3, k2+k3)")
    out = []
    for x_part, z_cols in _sub_multisets(I1, k1):
        for y_part, z_rows in _sub_multisets(I3, k2):
            for z_part in _pairings(z_rows, z_cols):
                g = GMonomial(x_part, y_part, z_part)
                if not has_3chain(g.index_pairs(cfg.n)):
                    out.append(g)
    out.sort(key=lambda g: (g.x_part, g.y_part, g.z_part))
    return out


# ---------------------------------------------------------------------------
# kernel and independence verifications
# ---------------------------------------------------------------------------


def _grading(cfg: Config, space: Space, evaluations, minors: list[Poly]) -> Weights | None:
    """The ``osc.Weights`` that split the kernel checks of ``evaluations``
    and ``minors`` on ``space`` into blocks, or None where the check is one
    block.

    Weights need every variable's image under each evaluation homogeneous
    of the variable's weight (the index content of an xy monomial: x_a and
    y_a each add eps_a), and every minor homogeneous.  Orbits need, besides,
    that each adjacent transposition inside J1 or J3 maps each variable's
    image (relabelled by ``osc.transposer`` on the xy side) to the image of
    the relabelled variable, and the minor list onto itself up to sign.
    """
    weights = Weights(cfg, space)
    n = cfg.n
    target = xy_space(n)
    content = [1 << weights.bits * (pos % n) for pos in range(2 * n)]
    images = [_z_images(n, space, e) for e in evaluations]
    if not all(
        sum(e * c for e, c in zip(target.unpack(m), content)) == weights.position[pos]
        for img in images
        for pos in range(space.nvars)
        for m in img[pos].terms
    ) or any(weights.homogeneous(g.terms) is None for g in minors):
        return None
    at = {u: pos for pos, u in enumerate(space.unit)}
    vectors = [g.terms for g in minors]
    transpositions = [*range(1, cfg.n1), *range(cfg.n2 + 1, n)]  # inside J1, inside J3
    for i in transpositions:
        zswap, xyswap = transposer(space, i), transposer(target, i)
        if not permutes_up_to_sign(vectors, zswap) or any(
            {xyswap(m): c for m, c in img[pos].terms.items()} != img[at[zswap(u)]].terms
            for img in images
            for pos, u in enumerate(space.unit)
        ):
            return Weights(cfg, space)
    return Weights(cfg, space, transpositions)


def _monomials_by_weight(space: Space, position, top: int, kept):
    """For each degree d = 0..top in turn, the packed monomials of degree d
    grouped by weight, {w: [m, ...]}, each list in ``monomials`` order,
    with only the weights w where ``kept(d, w)``.

    One walk extends each monomial of degree d - 1 by the variables at or
    after its last one, carrying its weight (the sum of ``position`` over
    its variables), so no monomial is unpacked.  The top degree is grouped
    as it is walked, never held as a list.
    """
    unit = space.unit
    level = [(0, 0, 0)]  # (monomial, weight, last position)
    for d in range(top + 1):
        if d:
            step = (
                (m + unit[q], w + position[q], q)
                for m, w, last in level
                for q in range(last, len(unit))
            )
            level = step if d == top else list(step)
        groups: dict = {}  # a dropped weight maps to None
        for m, w, _ in level:
            if w not in groups:
                groups[w] = [] if kept(d, w) else None
            ms = groups[w]
            if ms is not None:
                ms.append(m)
        yield {w: ms for w, ms in groups.items() if ms is not None}


def _ideal_piece(space: Space, gens, complements: dict, w: int) -> EchelonBasis:
    """Echelon basis of the weight-w part of an ideal piece: each of
    ``gens``, (generator, weight) pairs of homogeneous generators of one
    degree, times the monomials of the complementary degree, grouped by
    weight in ``complements``, that complete it to weight w."""
    basis = EchelonBasis(space)
    for g, wg in gens:
        for m in complements.get(w - wg, ()):
            basis.insert(g * Poly.monomial(space, m))
    return basis


class _Images:
    """The images of ``domain`` under ``evaluate``, each built when
    elimination reaches it, so no list of all images is ever held.  Sized,
    like the list it stands for."""

    __slots__ = ("domain", "evaluate")

    def __init__(self, domain: list, evaluate):
        self.domain = domain
        self.evaluate = evaluate

    def __len__(self):
        return len(self.domain)

    def __iter__(self):
        return map(self.evaluate, self.domain)


def _kernel_basis(space: Space, domain: list, evaluate: Evaluation) -> EchelonBasis:
    """Echelon basis of the kernel of ``evaluate`` on the span of the
    packed monomials ``domain``."""
    basis = EchelonBasis(space)
    for vec in kernel_of_columns(_Images(domain, evaluate)):
        basis.insert({domain[idx]: c for idx, c in vec.items()})
    return basis


def _graded_kernels(cfg: Config, space: Space, t: int, evaluations, top: int):
    """For each degree d = 0..top: the number of monomials, the dimension
    of the kernel of each of ``evaluations``, the dimension of the t x t
    minor ideal, and whether each kernel equals the ideal.  Solved one
    block per representative weight of ``_grading`` (module docstring):
    the spans are equal exactly when they are equal at every
    representative.
    """
    _check_bound(top)
    minors = minor_generators(space, t)
    weights = _grading(cfg, space, evaluations, minors)
    if weights is None:  # one block: every monomial at weight 0
        position, is_rep, orbit_size = [0] * space.nvars, lambda w: True, lambda w: 1
    else:
        position, is_rep, orbit_size = (
            weights.position, weights.is_representative, weights.orbit_size
        )
    evs = [Evaluation(cfg.n, space, e) for e in evaluations]
    gens = [(g, weights.of(max(g.terms)) if weights else 0) for g in minors]
    # the complements of the ideal pieces: degrees <= top - t, every weight
    complements: list = []
    by_degree = _monomials_by_weight(
        space, position, top, lambda d, w: d <= top - t or is_rep(w)
    )
    for d, by_weight in enumerate(by_degree):
        if d <= top - t:
            complements.append(by_weight)
        dims, dim_ideal, equal = [0] * len(evs), 0, True
        for w, domain in by_weight.items():
            if d <= top - t and not is_rep(w):  # above, only representatives come
                continue
            size = orbit_size(w)
            ideal = _ideal_piece(space, gens, complements[d - t] if d >= t else {}, w)
            dim_ideal += size * ideal.dim
            for k, ev in enumerate(evs):
                kern = _kernel_basis(space, domain, ev)
                dims[k] += size * kern.dim
                equal = equal and span_equal(kern, ideal)
        yield comb(space.nvars + d - 1, d), dims, dim_ideal, equal


def verify_minor2_kernel(cfg: Config, rmax: int) -> dict:
    """Degreewise check that ker phi_x = ker phi_y = the 2-minor ideal."""
    per_degree = [
        {
            "degree": r,
            "dim_domain": dim_domain,
            "dim_kernel_x": kx,
            "dim_kernel_y": ky,
            "dim_ideal": dim_ideal,
            "equal": equal,
        }
        for r, (dim_domain, (kx, ky), dim_ideal, equal) in enumerate(
            _graded_kernels(cfg, restricted_ring(cfg), 2, ("x", "y"), rmax)
        )
    ]
    return {
        "J1": list(cfg.J1),
        "J3": list(cfg.J3),
        "levels": per_degree,
        "all_equal": all(d["equal"] for d in per_degree),
    }


def verify_minor3_kernel(cfg: Config, kmax: int) -> dict:
    """Degreewise check that ker phi = the 3-minor ideal of the extended
    matrix."""
    per_degree = [
        {
            "degree": k,
            "dim_domain": dim_domain,
            "dim_kernel": kern,
            "dim_ideal": dim_ideal,
            "equal": equal,
        }
        for k, (dim_domain, (kern,), dim_ideal, equal) in enumerate(
            _graded_kernels(cfg, extended_ring(cfg), 3, ("phi",), kmax)
        )
    ]
    return {
        "J1_ext": [0] + list(cfg.J1),
        "J3_ext": list(cfg.J3) + [cfg.n + 1],
        "levels": per_degree,
        "all_equal": all(d["equal"] for d in per_degree),
    }


def _run_starts(cfg: Config, space: Space) -> list[int]:
    """start[a] for a = 0..n+1: the first index of a's run.  The runs are
    the indices joined by the transpositions inside J1 and inside J3 that
    ``_grading`` certifies for phi on the extended ring ``space``; every
    other index (column 0, row n+1, J2, and every index where the
    certificate refuses) is its own run."""
    weights = _grading(cfg, space, ("phi",), [])
    start = list(range(cfg.n + 2))
    for a in weights.transpositions if weights else ():
        start[a + 1] = start[a]  # ascending, so a's start is already set
    return start


def _canonical(I: tuple, start) -> tuple:
    """The order type of the sorted multiset I: in each run, its distinct
    values relabelled in order onto the first values of the run."""
    out, prev, c = [], None, None
    for v in I:
        if v != prev:
            c = c + 1 if prev is not None and start[prev] == start[v] else start[v]
            prev = v
        out.append(c)
    return tuple(out)


def _gset_buckets(cfg: Config, space: Space, bound: int, start) -> dict:
    """The canonical G-sets of degree <= ``bound`` at once: every
    3-chain-free monomial of the extended ring ``space`` whose row and
    column multisets are their own ``_canonical`` forms, packed, bucketed
    under its (k1, k2, I1, I3) as ``enumerate_gset`` would return it.

    A depth-first walk over the variables in (row asc, col desc) order, the
    order in which ``has_3chain`` reads a pair multiset, with repetition.
    Each step carries the patience state of ``_has_increasing_triple`` and
    the last row, and a branch ends at a 3-chain or at a row whose
    predecessor in its run is missing (rows come in ascending order, so
    the row support stays a prefix of each run).  Columns come out of
    order, so the column multiset is checked at each node.  Row n+1
    factors are the x part, column 0 factors the y part.
    """
    top = cfg.n + 1
    factors = sorted(
        ((j, i, space.unit[space.z(j, i)]) for j in space.rows for i in space.cols
         if (j, i) not in space.excluded),
        key=lambda f: (f[0], -f[1]),
    )
    buckets: dict = {}

    def walk(q0, m, depth, first, second, last, k1, k2, I1, I3):
        I1 = tuple(sorted(I1))
        if _canonical(I1, start) == I1:
            buckets.setdefault((k1, k2, I1, I3), []).append(m)
        if depth == bound:
            return
        for q in range(q0, len(factors)):
            j, i, u = factors[q]
            if j != last and j != start[j] and j - 1 != last:
                continue
            if i <= first:
                f, s = i, second
            elif i <= second:
                f, s = first, i
            else:
                continue
            walk(
                q, m + u, depth + 1, f, s, j,
                k1 + (j == top), k2 + (i == 0),
                I1 + (i,) if i else I1, I3 if j == top else I3 + (j,),
            )

    walk(0, 0, 0, inf, inf, None, 0, 0, (), ())
    return buckets


def _gset_tuples(cfg: Config, total: int):
    """The (k1, k2, k3, I1, I3) tuples of one total degree, in report
    order."""
    for k1 in range(total + 1):
        for k2 in range(total - k1 + 1):
            k3 = total - k1 - k2
            for I1 in itertools.combinations_with_replacement(cfg.J1, k1 + k3):
                for I3 in itertools.combinations_with_replacement(cfg.J3, k2 + k3):
                    yield k1, k2, k3, I1, I3


def verify_gset_independence(cfg: Config, total_bound: int) -> dict:
    """rank(phi(G-set)) = |G-set| for every factor-count split and every
    index multiset pair within the bound.

    Only the canonical G-sets are built and ranked (``_gset_buckets``):
    each tuple reads the rank of the G-set of its ``_canonical`` tuple,
    the one its relabelling by the runs of ``_run_starts`` maps it onto
    (module docstring).  The tuples are read in ``_gset_tuples`` order, so
    the report is the one a per-tuple ``enumerate_gset`` loop gives.
    """
    _check_bound(total_bound)
    sp = extended_ring(cfg)
    start = _run_starts(cfg, sp)
    ev = Evaluation(cfg.n, sp, "phi")
    ranked = {}
    for key, gset in _gset_buckets(cfg, sp, total_bound, start).items():
        basis = EchelonBasis(xy_space(cfg.n))
        ranked[key] = sum(basis.insert(ev(m)) for m in gset), len(gset)
    canonical = lru_cache(maxsize=None)(lambda I: _canonical(I, start))
    checked = 0
    nonempty = 0
    failures = []
    for total in range(1, total_bound + 1):
        for k1, k2, k3, I1, I3 in _gset_tuples(cfg, total):
            checked += 1
            found = ranked.get((k1, k2, canonical(I1), canonical(I3)))
            if found is None:
                continue
            nonempty += 1
            rank, size = found
            if rank != size:
                failures.append(
                    {
                        "k": [k1, k2, k3],
                        "I1": list(I1),
                        "I3": list(I3),
                        "rank": rank,
                        "size": size,
                    }
                )
    return {
        "bound": total_bound,
        "tuples_checked": checked,
        "tuples_nonempty": nonempty,
        "failures": failures,
        "all_independent": not failures,
    }
