"""Filtrations of the harmonic module by enveloping-algebra degree.

The base space M_0 depends on the parameter regime; its monomials come
from one enumerator, ``osc.enumerate_block_sums``:

  * n1 < n2 with l1 <= 0 or l2 <= 0: the T-image of one block-degree cell,
    picked by the sign pattern of (l1, l2);
  * n1 < n2 = n with l1, l2 > 0: the T-images with zero x-degree over J1;
  * n1 = n2 with l1, l2 <= 0: the monomials of the cell the same signs
    pick, X_{J1}^{-l1} Y_{J3}^{-l2}, not projected;
  * n1 = n2 with l1 <= 0 < l2 (and 1 < n1): products of the quadratics
    (x_p y_q - x_q y_p) over J1 against X_{J1}^{m1}, the cell
    (m1, 0, 0, 0, 0, 0); the regime with the roles of l1 and l2 swapped is
    handled through the x/y mirror symmetry.

Each level M_k = U_k(sl(n))(M_0) is materialized as an echelon basis, two
independent ways: brute-force closure under all generators, and the
explicit spanning sets (T-images of bounded weighted degree together with
products by the alternating quadratics P).  Their exact agreement is the
central span oracle of this package.

Both routes build level k on top of level k-1, and each reuse rests on a
fact of linear algebra or of set inclusion, never on the agreement the
towers are built to check:

  * ``EchelonBasis.copy`` shares the row dicts and ``insert`` never
    rewrites a row, so inserting a vector that already lies in the span
    changes nothing.  Level k may therefore start from a copy of level k-1
    whenever the vectors that built level k-1 are part of level k's own
    insertion sequence; the rows, pivots and row order are exactly those a
    build from scratch gives.
  * Explicit route: the spanning sets nest as sets in the product regimes
    (M_0 * P^{<=k-1} is part of M_0 * P^{<=k}) and in the dprime regime
    (T-images of the dprime levels t <= k-1).  In the T-cell regime only
    the T-image part T(TN levels 0..k) nests; the products
    T(TN level k-i) * P^i do not, so they are inserted afresh at each level
    and ``check_nested`` stays a real check there.
  * Brute-force route (ordered closure): level k-1 is the closure of level
    k-2, so the images of the rows it copied from level k-2 already lie in
    it, and only its new rows are sent through the generators.  Each new
    row is tagged with the generator whose image produced it, and g_b is
    applied only to new rows tagged <= b (rows of M_0 carry no tag): by
    Poincare-Birkhoff-Witt the ordered words span U_k(g) M_0
    (``bruteforce_level``).  That rests on the bracket relations of the
    applier, certified once per layout
    (``osc.applier_is_representation``: the relations of the Chevalley
    generators with every basis element, which imply the rest, and each
    form against the applier on the variables it touches); where they
    fail, no row is tagged and every new row meets every generator.
  * T-images are kept as primitive integer multiples: a span does not
    change under scaling, and the products with them then run in integer
    arithmetic.
  * Explicit route by weight (``build_tower``): every xy monomial is a
    weight vector (``osc.Weights``, read off the linear part of
    ``osc.diagonal_value``) and wt(fg) = wt(f) + wt(g), so a product of
    weight vectors is one.  Elimination combines only rows that share a
    lead, so every stored row is homogeneous: the span of a spanning set
    of weight vectors is the direct sum of its weight components, the
    component of weight mu spanned by the generating products of weight
    mu.  A permutation sigma of the indices inside a block that maps each
    spanning set onto itself up to sign (the base vectors and the
    alternating quadratics, and in the T-cell and dprime regimes each
    monomial level, with T commuting with sigma) maps the component of
    weight mu onto that of sigma(mu).  So each level is built only at one
    representative weight per orbit, from the products of that weight,
    and its dimension is the sum over orbits of |orbit| times the rows
    at the representative; nesting at the representatives is nesting of
    the whole levels.  The transpositions that generate these
    permutations are certified per layout by the one certificate of
    relabellings, ``osc.admitted``, on the spanning sets and the T-series
    forms (``_orbit_generators``), and the tower keeps the subset it
    admits.  The whole levels are the same build by the one-block
    ``osc.Weights.ungraded``: every monomial at weight 0 and no
    relabellings, so each group by weight is the whole list in its order,
    every weight is kept, and the build inserts what a build that never
    weighs inserts, in the same order.
  * The monomial levels are certified cell by cell, never enumerated for
    it.  A TN or dprime level is a union of cells of
    ``osc.enumerate_block_sums`` (``osc.tn_cells``, ``_dprime_cells``): a
    cell is the monomials with six given block sums (a1, a2, a3, b1, b2,
    b3) in which x_{n1+1} and y_{n1+1} are not both present.  A
    transposition inside a block that fixes n1+1 keeps every block sum and
    that exclusion, so it maps each cell onto itself (``_fixes_cells``).
    The mirror below maps the cell (a1, a2, a3, b1, b2, b3) onto (b3, b2,
    b1, a3, a2, a1) and the exclusion at n1+1 onto one at n2, so it maps a
    level onto itself where n1 + 1 = n2 and the level's cells are closed
    under that map (``_mirrors_cells``).
  * Each monomial level is enumerated only where the build reads it, and
    weighed as it is enumerated (``_level_groups``).  An alternating
    quadratic has a root weight eps_{i3} - eps_{i1}, which moves
    ``Weights.descent`` by at most 1 (``_orbit_generators`` checks that its
    entries add up to at most 2 in absolute value), and the representative
    weights have descent 0.  So a product T(TN level j) * P^i of a level
    k <= kmax at a representative weight takes its monomial at a weight of
    descent at most i <= kmax - j, and the T-images of a level are read at
    the representative weights only: TN level j is enumerated at the
    weights of descent at most kmax - j, a dprime level at descent 0
    (``osc.enumerate_cells`` with a ``cone``).  That enumeration lists
    each monomial with its weight, in the order of the whole level, so its
    groups by weight are those of the whole level at the weights kept, in
    the same order, and the build inserts the same products in the same
    order as one that weighs the whole level.  The build knows the weight
    of each product it inserts, and enters it for each accepted row's
    pivot in ``row_weights``, from which the dimensions are counted.
  * ``compare_towers`` reads the brute-force level's rows of
    representative weights inside the explicit level; sigma maps the
    brute-force level onto itself too (M_0 by the certificate, pi(U_k(g))
    by ``osc.applier_is_representation`` and
    ``osc.block_permutations_commute``), so containment at the
    representatives is containment, and with equal dimensions the spans
    are equal.  Where either certificate refuses, it reads the whole
    levels.
  * The x/y mirror M: x_a <-> y_{n+1-a} (``osc.relabellings``) is a
    second orbit generator, a candidate of the same ``osc.admitted``.  It is a
    relabelling of the variables, so an algebra automorphism, and where it
    maps each variable's weight mu to -reverse(mu) it maps the weight
    vectors of weight mu to those of -reverse(mu).  Where it also maps every
    spanning set onto itself up to sign, as the transpositions must, it maps
    the component of weight mu onto that of -reverse(mu), and the dimensions
    of the two agree.  M conjugates (i i+1) to (n-i n+1-i), so where the
    admitted transpositions are closed under i -> n - i, which
    ``osc.admitted`` checks, M normalizes the group G they generate: an
    orbit of G x| <M> is one orbit of G or two of one size, and each is
    built at one representative weight (``osc.Weights`` with ``mirror``).
    On a self-mirror layout (n1 + n2 = n, l1 = l2) that builds about half
    the rows the transpositions alone build.  In the T-cell regime T must
    commute with M, so M must fix the lift x_{n1+1} y_{n1+1} and the reduced
    Laplacian, which omits the d_x d_y summand of n1+1; M takes n1+1 to n2,
    so a T-cell with |J2| > 1 is refused (``_mirrors_cells``), as is every
    dprime layout (n2 = n leaves J3 empty, so no block mirrors J1).
    ``compare_towers`` reads the mirror's representatives only where M also
    conjugates every pi(E_ab) to -pi(E_{n+1-b,n+1-a})
    (``osc.mirror_commutes``), so that it maps pi(U_k(g)) M_0, the
    brute-force level, onto itself; where that refuses, it reads the
    whole levels.
  * Brute-force route by weight (``_bruteforce_tower``): where
    ``compare_towers`` reads the representative rows, it builds each
    brute-force level k only at a set N_k of weights, and the rows there
    are the whole level's, row for row.  Every brute-force row is a weight
    vector of its pivot's weight: the rows of M_0 are (``_orbit_generators``
    checked the base vectors), every term of a root's applier table moves
    the weight by one shift (``_generator_shifts`` checks it per layout;
    h_r moves none), and elimination combines only rows whose leads share
    a weight.  So the rows of level k+1 at weight nu come only from the
    rows of level k at nu and at nu - shift(g).  Where N_{k+1} <= N_k and
    N_{k+1} - shifts <= N_k, a build that forms only the images landing in
    N_{k+1} (``bruteforce_level`` with a ``cone``) inserts at each kept
    weight the same images in the same order as the whole build, so it
    stores the same rows, with the same pivots, dicts and tags.  N_kmax is
    the representative weights (``Weights.is_representative``, the mirror
    among the orbit generators where the explicit tower has it); below it
    N_k is the weights of ``Weights.descent`` at most kmax - k.  The
    descent is 0 on the weights ascending in every run, the representative
    ones among them, and a shift whose entries add up to at most 2 in
    absolute value (eps_a - eps_b for E_ab, which ``_generator_shifts``
    checks) moves it by at most 1: both inclusions follow.  The brute-force
    level is stable under the orbit generators (the certificates
    ``compare_towers`` requires), so its dimension is the sum over orbits
    of |orbit| times its rows at the representative weight, and only its
    rows of a representative weight are read.  At (6,3,3,-1,-1) to depth
    6 the top level keeps 7,857 of 27,027 rows.  Where a certificate or a
    shift fails, the whole levels are built, as one block.
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from functools import cache, cached_property
from math import factorial, gcd, inf

from .linalg import EchelonBasis, canonical_levels, echelon_from
from .osc import (
    Config,
    Table,
    Weights,
    admitted,
    apply_generator,
    apply_generator_terms,
    applier_is_representation,
    block_permutations_commute,
    block_transpositions,
    classify_irreducible,
    enumerate_block_sums,
    enumerate_cells,
    generators,
    mirror_commutes,
    project_T,
    project_T_numerator,
    projection_forms,
    relabellings,
    root_terms,
    tn_cells,
)
from .poly import Poly, parse_poly, render_terms


class UnsupportedRegimeError(ValueError):
    """Raised for parameter regimes with no explicit base-space recipe."""


class FiltrationTower:
    """Nested spans M_0 <= M_1 <= ... <= M_kmax with their dimensions.

    ``built`` holds the levels as built, by the weights ``weights``: whole
    where they have no orbits (``Weights.ungraded`` for a whole build or a
    tower loaded from a dump), and otherwise only at some weights: an
    explicit tower at the representative ones (``build_tower``), a
    brute-force tower at the weights that reach them
    (:func:`_bruteforce_tower`).  A build carries the weight of each row's
    pivot in ``row_weights``.  ``dims`` counts the rows of ``built`` at
    representative weights, and ``check_nested`` reads ``built``;
    ``levels`` are the whole levels of the same method, built at every
    weight when first read, as where a certificate refuses the orbits
    (``compare_towers``).
    """

    def __init__(
        self,
        cfg: Config,
        method: str,
        levels: list[EchelonBasis],
        weights: Weights,
        row_weights: dict | None = None,
    ):
        self.cfg = cfg
        self.method = method  # "bruteforce" | "explicit" | "explicit-dprime" | "product-span"
        self.built = levels
        self.weights = weights
        self.row_weights = row_weights
        self._levels = None if weights.orbits else levels
        # Facts other modules derive from the levels, such as the
        # annihilator's system rows.  They assume the levels do not change
        # after they are derived.
        self.derived: dict = {}

    @property
    def levels(self) -> list[EchelonBasis]:
        if self._levels is None:
            if self.method == "bruteforce":
                whole = Weights.ungraded(self.cfg, self.cfg.space)
                self._levels = _bruteforce_tower(self.cfg, self.depth, whole).built
            else:
                self._levels = build_tower(self.cfg, self.depth, whole=True).built
        return self._levels

    @property
    def dims(self) -> list[int]:
        if self.weights.orbits:
            return self._orbit_dims
        return [b.dim for b in self.built]

    @cached_property
    def _orbit_dims(self) -> list[int]:
        """The dimensions of levels built with orbits: the sum over orbits
        of |orbit| times the rows of the representative weight (every row
        is a weight vector, of the weight its build carried in
        ``row_weights``); rows of other weights count nothing."""
        weights = self.weights
        orbits = {
            w: weights.orbit_size(w) if weights.is_representative(w) else 0
            for w in set(self.row_weights.values())
        }
        size = {piv: orbits[w] for piv, w in self.row_weights.items()}
        return [sum(map(size.__getitem__, level.rows)) for level in self.built]

    @property
    def depth(self) -> int:
        return len(self.built) - 1

    def check_nested(self) -> bool:
        levels = self.built
        return all(_contains_rows(levels[k + 1], levels[k]) for k in range(self.depth))


def _contains_rows(big: EchelonBasis, small: EchelonBasis) -> bool:
    """Whether ``big`` contains every row of ``small``.  A row that ``big``
    stores at the same pivot, the same dict (shared by ``copy``), is
    counted without reducing it."""
    rows = big.rows
    return all(rows.get(piv) is row or big.contains(row) for piv, row in small.rows.items())


def alternating_set(cfg: Config) -> list[Poly]:
    """The quadratics x_{i1} x_{i3} - y_{i1} y_{i3}, one per J1 x J3 pair.

    Each equals minus the representation image of E_{i3,i1} acting on the
    constants, and multiplication by it raises the filtration level by one.
    """
    sp = cfg.space
    out = []
    for i1 in cfg.J1:
        for i3 in cfg.J3:
            m1 = [0] * sp.nvars
            m1[sp.x(i1)] = 1
            m1[sp.x(i3)] = 1
            m2 = [0] * sp.nvars
            m2[sp.y(i1)] = 1
            m2[sp.y(i3)] = 1
            out.append(Poly(sp, {sp.pack(m1): 1, sp.pack(m2): -1}))
    return out


def _regime(cfg: Config) -> str:
    if cfg.n1 < cfg.n2:
        if cfg.l1 <= 0 or cfg.l2 <= 0:
            return "T-cell"
        if cfg.n2 == cfg.n:
            return "dprime"
        raise UnsupportedRegimeError(
            f"no base-space recipe for {cfg.short()} (l1,l2>0 with n2<n)"
        )
    # n1 == n2
    if cfg.l1 <= 0 and cfg.l2 <= 0:
        return "product"
    if cfg.l1 + cfg.l2 <= 0 and cfg.l2 > 0:
        return "product-skew"
    if cfg.l1 + cfg.l2 <= 0 and cfg.l1 > 0:
        return "product-skew-mirror"
    raise UnsupportedRegimeError(
        f"no base-space recipe for {cfg.short()} (n1=n2 with l1+l2>0)"
    )


class _TCache:
    """Per-configuration cache of harmonic projections of monomials.

    Each image is stored as its primitive integer multiple, the integer
    numerator of the series (``osc.project_T_numerator``, a positive
    multiple of T(m)) divided by its content: the images only ever span
    subspaces, which scaling does not change, and products with integer
    images stay out of Fraction arithmetic.
    """

    def __init__(self, cfg: Config):
        self.cfg = cfg
        self.images: dict = {}

    def __call__(self, m: int) -> Poly:
        img = self.images.get(m)
        if img is None:
            terms, _denom = project_T_numerator(self.cfg, m)
            g = gcd(*terms.values())
            if g != 1:
                terms = {mm: c // g for mm, c in terms.items()}
            img = self.images[m] = Poly(self.cfg.space, terms)
        return img


def _dprime_cells(cfg: Config, t: int) -> list[tuple]:
    """The cells of ``osc.enumerate_block_sums`` whose union is the graded
    piece with J1 x-degree exactly t (n2 = n)."""
    return [(t, cfg.l1 + t, 0, b1, cfg.l2 - b1, 0) for b1 in range(cfg.l2 + 1)]


def _dprime_level(cfg: Config, t: int) -> list[int]:
    """Monomials of the graded piece with J1 x-degree exactly t (n2 = n)."""
    return enumerate_cells(cfg, _dprime_cells(cfg, t))


def _mirror_poly(p: Poly, cfg: Config) -> Poly:
    """The x/y mirror x_i <-> y_{n+1-i}: an algebra isomorphism that maps the
    setup with (n1, l1, l2) to the one with (n - n1, l2, l1)."""
    (mirror,) = relabellings(cfg.n, mirror=True)
    return Poly(cfg.space, mirror.image(cfg.space, p.terms))


def _skew_base(cfg: Config) -> list[Poly]:
    """Base vectors prod (x_p y_q - x_q y_p)^{k_pq} * X_{J1}^{m1} for the
    n1 = n2, l1 <= 0 < l2 regime; the X_{J1}^{m1} factors are the block-sum
    cell (m1, 0, 0, 0, 0, 0)."""
    if cfg.n1 < 2:
        raise UnsupportedRegimeError(
            f"{cfg.short()}: skew products need at least two J1 indices"
        )
    sp = cfg.space
    m1, m2 = -cfg.l1 - cfg.l2, cfg.l2
    pairs = list(itertools.combinations(cfg.J1, 2))
    skews = []
    for p, q in pairs:
        t1 = [0] * sp.nvars
        t1[sp.x(p)] = 1
        t1[sp.y(q)] = 1
        t2 = [0] * sp.nvars
        t2[sp.x(q)] = 1
        t2[sp.y(p)] = 1
        skews.append(Poly(sp, {sp.pack(t1): 1, sp.pack(t2): -1}))
    xms = [Poly.monomial(sp, m) for m in enumerate_block_sums(cfg, m1, 0, 0, 0, 0, 0)]
    out = []
    for combo in itertools.combinations_with_replacement(range(len(pairs)), m2):
        prod = Poly.constant(sp, 1)
        for idx in combo:
            prod = prod * skews[idx]
        out.extend(prod * xm for xm in xms)
    return out


def base_space_vectors(cfg: Config, tproj=None) -> list[Poly]:
    """Spanning vectors of M_0 for the applicable regime; ``tproj``, a
    :class:`_TCache` of the layout, serves the T-images where given.

    Where l1 or l2 is nonpositive and the regime is not skew, M_0 is
    spanned by one block-degree cell (``osc.enumerate_block_sums``), picked
    by the signs of (l1, l2): its T-images where n1 < n2, its monomials
    X_{J1}^{-l1} Y_{J3}^{-l2} where n1 = n2.
    """
    regime = _regime(cfg)
    if regime in ("T-cell", "dprime") and tproj is None:
        tproj = _TCache(cfg)
    if regime in ("T-cell", "product"):
        l1, l2 = cfg.l1, cfg.l2
        if l1 <= 0 and l2 <= 0:
            cell = (-l1, 0, 0, 0, 0, -l2)
        elif l1 <= 0 <= l2:
            cell = (-l1, 0, 0, 0, l2, 0)
        else:  # l1 >= 0 >= l2
            cell = (0, l1, 0, 0, 0, -l2)
        monomials = enumerate_block_sums(cfg, *cell)
        if regime == "product":
            return [Poly.monomial(cfg.space, m) for m in monomials]
        return [tproj(m) for m in monomials]
    if regime == "dprime":
        return [tproj(m) for m in _dprime_level(cfg, 0)]
    if regime == "product-skew":
        return _skew_base(cfg)
    # product-skew-mirror: the skew base of the mirrored layout, whose J1 is
    # this J3; with J3 empty there is no mirrored layout (with one J3 index,
    # _skew_base refuses the mirrored layout itself)
    if cfg.n1 == cfg.n:
        raise UnsupportedRegimeError(
            f"{cfg.short()}: mirrored skew products need at least two J3 indices"
        )
    mirrored = Config(cfg.n, cfg.n - cfg.n1, cfg.n - cfg.n1, cfg.l2, cfg.l1)
    return [_mirror_poly(p, cfg) for p in _skew_base(mirrored)]


def build_M0(cfg: Config, warn=None) -> EchelonBasis:
    """Echelon basis of the base space M_0.

    Emits a warning through ``warn`` (a callable taking a string) when the
    configuration fails the irreducibility classification; the tower is
    still built.
    """
    if warn is not None and not classify_irreducible(cfg):
        warn(f"{cfg.short()} fails the irreducibility classification")
    return echelon_from(cfg.space, base_space_vectors(cfg))


def bruteforce_level(
    cfg: Config,
    prev: EchelonBasis,
    fresh: dict | None = None,
    tags: dict | None = None,
    cone: tuple | None = None,
) -> EchelonBasis:
    """span(prev) + the images of its rows under all n^2 - 1 generators,
    at the weights ``cone`` keeps: by default the one-block cone of
    ``osc.Weights.ungraded``, every row at weight 0, no generator moving it
    and every weight kept.

    ``fresh`` maps the pivot of each row new at prev's level to the row's
    tag: the index, in ``generators`` order, of the generator whose image
    produced it, or None for a row with no tag (a row of M_0, or a generator
    the caller added).  None in place of the dict means every row of prev,
    untagged.  Generator g_b is applied to the fresh rows tagged <= b and
    to the untagged ones, in generator order; the pivot of each row this
    call accepts is entered in ``tags`` with b (None where the certificate
    below fails), ready to be the next call's ``fresh``.

    Why the span is exact (Poincare-Birkhoff-Witt): U_k(g) V is spanned by
    the words g_a1 ... g_ai v with i <= k, a1 >= ... >= ai and v an
    untagged row.  By induction on k, such a word with i = k lies in level
    k-1 plus the rows new at level k tagged <= a1: its tail lies in level
    k-2 plus the rows new at level k-1 tagged <= a2 <= a1; g_a1 maps level
    k-2 into level k-1 and was applied to each of those rows, and each
    image was either accepted with tag a1 or lay in the span of the rows
    present then, all tagged <= a1, as the generators run in order.  This
    needs only [pi(a), pi(b)] in span pi(g), which
    ``osc.applier_is_representation`` certifies per layout.  Where it does
    not hold, no accepted row is tagged, and the call is the plain
    semi-naive closure: every generator on every row new at prev's level
    (prev's other rows have their images in prev already).

    ``cone`` is (keeps, shifts, of): the test of the weights the level
    keeps, the weight each generator moves a weight vector by (in
    ``generators`` order) and a dict of the weight of the pivot of every
    row built so far, or None where every weight is 0 (the default, whose
    weights no caller reads).  The image g_b r is formed only where the
    weight of r moved by the shift of g_b is one ``keeps`` accepts, and
    each accepted row's weight is entered in ``of``.  So at a kept weight
    the level inserts what the whole level inserts there, in the same
    order, wherever prev agrees with the whole level at the weights the
    images come from (:func:`_bruteforce_tower`).
    """
    nxt = prev.copy()
    ordered = applier_is_representation(cfg.n, cfg.n1, cfg.n2)
    if fresh is None:
        fresh = dict.fromkeys(prev.rows)
    if cone is None:
        whole = Weights.ungraded(cfg, cfg.space)
        cone = whole.is_representative, (0,) * len(generators(cfg.n)), None
    keeps, shifts, of = cone
    weight = (lambda piv: 0) if of is None else of.__getitem__
    todo = sorted(
        ((-1 if tag is None else tag, prev.rows[piv], weight(piv)) for piv, tag in fresh.items()),
        key=lambda item: item[0],
    )
    verdicts: dict = {}  # weight -> keeps(weight)
    for b, g in enumerate(generators(cfg.n)):
        shift = shifts[b]
        for tag, row, w in todo:
            if tag > b:
                break
            w += shift
            kept = verdicts.get(w)
            if kept is None:
                kept = verdicts[w] = keeps(w)
            if not kept:
                continue
            img = apply_generator_terms(cfg, g, row)
            # an accepted row's pivot is the last key of nxt.rows
            if img and nxt.insert(img):
                piv = next(reversed(nxt.rows))
                if tags is not None:
                    tags[piv] = b if ordered else None
                if of is not None:
                    of[piv] = w
    return nxt


@cache
def _generator_shifts(n: int, n1: int, n2: int) -> tuple | None:
    """The weight each generator moves a weight vector by, in
    ``generators`` order: 0 for h_r, which acts diagonally, and for a root
    the weight of v less that of d over the terms c v d of its applier
    table (``osc.root_terms``).  None where a root has a term that is no
    Weyl monomial, two terms of different shifts, or a shift whose entries
    add up to more than 2 in absolute value (the bound
    ``Weights.descent`` rests on).  Cached per layout: the weights of the
    monomials depend on neither (l1, l2) nor the orbits."""
    cfg = Config(n, n1, n2)
    weights = Weights(cfg, cfg.space)
    decoded = root_terms(n, n1, n2)
    out = []
    for g in generators(n):
        if g[0] == "h":
            out.append(0)
            continue
        terms = decoded[g]
        if terms is None:
            return None
        found = {weights.of(v) - weights.of(d) for v, d in terms}
        if len(found) > 1:
            return None
        shift = found.pop() if found else 0
        if sum(map(abs, weights.entries(shift))) > 2:
            return None
        out.append(shift)
    return tuple(out)


def _cone_keeps(weights: Weights, kmax: int, k: int):
    """The test of N_k, the weights brute-force level k of a tower to depth
    kmax is built at: the representative weights at the top, below it the
    weights of descent at most kmax - k (``Weights.descent``)."""
    if k == kmax:
        return weights.is_representative
    descent, bound = weights.descent, kmax - k
    return lambda w: descent(w) <= bound


def _bruteforce_tower(cfg: Config, kmax: int, weights: Weights) -> FiltrationTower:
    """The brute-force tower M_0 .. M_kmax, each level closing only the
    rows new at the level below (:func:`bruteforce_level`), each level k
    only at the weights N_k of :func:`_cone_keeps`: with the orbits
    ``weights`` of a certified explicit tower, the weights that reach a
    representative one (the module docstring says why the rows there are
    the whole level's).  One block, the whole levels, where ``weights`` has
    no orbits or a root of the applier moves no weight by one shift
    (:func:`_generator_shifts`)."""
    levels = [build_M0(cfg)]
    shifts = _generator_shifts(cfg.n, cfg.n1, cfg.n2) if weights.orbits else None
    if shifts is None:
        weights, shifts = Weights.ungraded(cfg, cfg.space), (0,) * len(generators(cfg.n))
    of = {piv: weights.of(piv) for piv in levels[0].rows}
    fresh = None
    for k in range(kmax):
        tags: dict = {}
        cone = _cone_keeps(weights, kmax, k + 1), shifts, of
        levels.append(bruteforce_level(cfg, levels[k], fresh, tags, cone))
        fresh = tags
    return FiltrationTower(cfg, "bruteforce", levels, weights, of)


def _pset_product(cfg: Config, combo: tuple, cache: dict) -> Poly:
    """The product of the alternating quadratics indexed by ``combo`` (a
    ``combinations_with_replacement`` tuple): the product of its prefix
    ``combo[:-1]`` times the last factor, memoized by size in
    ``cache["products"]``.  A prefix no level read, or one of a size
    evicted, is formed again from its own prefix."""
    if not combo:
        return Poly.constant(cfg.space, 1)
    memo = cache["products"].setdefault(len(combo), {})
    found = memo.get(combo)
    if found is None:
        found = memo[combo] = _pset_product(cfg, combo[:-1], cache) * cache["pset"][combo[-1]]
    return found


# ---------------------------------------------------------------------------
# the explicit route at the weights a build keeps
# ---------------------------------------------------------------------------


def _by_weight(items: list, weights) -> list[tuple]:
    """``items`` grouped by their ``weights`` (a parallel iterable), each
    group in the order of ``items``: a list of (w, [item, ...]), one group
    (0, items) in a one-block build."""
    groups: dict = {}
    for item, w in zip(items, weights):
        groups.setdefault(w, []).append(item)
    return list(groups.items())


def _vector_weights(cache: dict, vectors: list[Poly]) -> list:
    """The weights of generating vectors, each that of its leading monomial
    (the certificate checked that each is a weight vector)."""
    weights = cache["weights"]
    return [weights.of(max(v.terms)) for v in vectors]


def _insert(basis: EchelonBasis, vector, w, cache: dict):
    """Insert ``vector``, a weight vector of weight w, into ``basis``; with
    orbits, enter w as the weight of an accepted row's pivot (the last key
    of ``basis.rows``) in ``cache["row-weights"]``, which a one-block build,
    whose rows are all at weight 0, leaves empty."""
    if basis.insert(vector) and cache["weights"].orbits:
        cache["row-weights"][next(reversed(basis.rows))] = w


def _level_cells(cfg: Config, j: int, regime: str) -> list[tuple]:
    """The cells of ``osc.enumerate_block_sums`` whose union is monomial
    level j: TN level j, or dprime level j in the dprime regime."""
    return _dprime_cells(cfg, j) if regime == "dprime" else tn_cells(cfg, j)


def _level_groups(cfg: Config, j: int, cache: dict) -> list[tuple]:
    """Monomial level j by weight (:func:`_by_weight`), enumerated and
    grouped once: only the weights of ``Weights.descent`` at most the depth
    less j in the T-cell regime and 0 in the dprime regime, each weighed as
    it is enumerated (``osc.enumerate_cells``); the whole level as one group
    in a one-block build, whose every weight has descent 0.  Each group
    keeps the order of the whole level, and the groups come in the order of
    their first monomials there.  A build with orbits reads no level above
    the depth its certificate covered; a one-block build has no such
    depth."""
    groups = cache["tn-groups"]
    if j not in groups:
        cells = _level_cells(cfg, j, cache["regime"])
        depth = cache["depth"]
        if j > depth:
            raise ValueError(f"monomial level {j} lies above the certified depth")
        bound = 0 if cache["regime"] == "dprime" else depth - j
        found: dict = {}
        for w, m in enumerate_cells(cfg, cells, (cache["weights"], bound)):
            found.setdefault(w, []).append(m)
        groups[j] = list(found.items())
    return groups[j]


def _pset_groups(cfg: Config, size: int, cache: dict) -> list[tuple]:
    """The products of ``size`` alternating quadratics (with repetition),
    as their index tuples in ``combinations_with_replacement`` order, by
    weight (:func:`_by_weight`), each the sum of its factors' weights;
    grouped once per size.  No product is formed here
    (:func:`_pset_product`)."""
    groups = cache["pset-groups"]
    if size not in groups:
        combos = list(itertools.combinations_with_replacement(range(len(cache["pset"])), size))
        factor = _vector_weights(cache, cache["pset"])
        groups[size] = _by_weight(combos, (sum(factor[c] for c in combo) for combo in combos))
    return groups[size]


def _tspan(cfg: Config, k: int, cache: dict) -> EchelonBasis:
    """Span of the T-images of the monomial levels 0..k (TN levels in the
    T-cell regime, dprime levels in the dprime regime), at the weights the
    build keeps.

    Level k is a copy of level k-1 plus the T-images of monomial level k,
    kept in ``cache`` for the levels above.
    """
    spans = cache["tspans"]
    tproj = cache["tproj"]
    while len(spans) <= k:
        j = len(spans)
        span = spans[-1].copy() if spans else EchelonBasis(cfg.space)
        for w, level in _level_groups(cfg, j, cache):
            if cache["weights"].is_representative(w):
                for m in level:
                    _insert(span, tproj(m), w, cache)
        spans.append(span)
    return spans[k]


def _insert_tproducts(cfg: Config, basis: EchelonBasis, k: int, i: int, cache: dict):
    """Insert T(TN level k-i) * P^i, the part of S_k with i quadratic
    factors, at the weights the build keeps."""
    tproj = cache["tproj"]
    levels, psets = _level_groups(cfg, k - i, cache), _pset_groups(cfg, i, cache)
    groups = cache["weights"].representative_sums(levels, psets)
    for w, level, combos in groups:
        prods = [_pset_product(cfg, combo, cache) for combo in combos]
        for m in level:
            tm = tproj(m)
            for p in prods:
                _insert(basis, tm * p, w, cache)


def explicit_level(cfg: Config, k: int, cache: dict | None = None) -> EchelonBasis:
    """Level k of the explicit tower: the span of its spanning set S_k, at
    the weights the cache keeps (every weight unless ``cache["weights"]``
    has orbits, see :func:`build_tower`).

    The levels held in ``cache`` are extended up to k, each from the one
    below (see the module docstring for why each reuse is exact), and
    level k is returned; passing the same ``cache`` across calls also
    shares projection images and quadratic products.  The returned basis
    belongs to the cache and must not be modified.
    """
    if cache is None:
        cache = _explicit_cache(cfg)
    built = cache["levels"]
    regime = cache["regime"]
    while len(built) <= k:
        j = len(built)
        if regime == "dprime":
            # S_j = T(dprime levels 0..j)
            basis = _tspan(cfg, j, cache)
        elif regime == "T-cell":
            # S_j = T(TN levels 0..j) + sum_i T(TN level j-i) * P^i
            basis = _tspan(cfg, j, cache).copy()
            for i in range(1, j + 1):
                _insert_tproducts(cfg, basis, j, i, cache)
        else:
            # n1 = n2 product spans: S_j = S_{j-1} + M_0 * P^j
            basis = built[-1].copy() if built else EchelonBasis(cfg.space)
            if "base-groups" not in cache:
                base = cache["base"]
                cache["base-groups"] = _by_weight(base, _vector_weights(cache, base))
            psets = _pset_groups(cfg, j, cache)
            groups = cache["weights"].representative_sums(cache["base-groups"], psets)
            for w, vectors, combos in groups:
                prods = [_pset_product(cfg, combo, cache) for combo in combos]
                for b in vectors:
                    for p in prods:
                        _insert(basis, b * p, w, cache)
            # size j-1 served level j-1 and the prefixes of size j; no level reads it again
            cache["products"].pop(j - 1, None)
        built.append(basis)
    return built[k]


def _explicit_cache(cfg: Config) -> dict:
    regime = _regime(cfg)
    cache: dict = {
        "regime": regime,
        "weights": Weights.ungraded(cfg, cfg.space),  # one block: every weight kept
        "depth": inf,  # a one-block build reads every level
        "row-weights": {},  # pivot -> weight
        "pset": alternating_set(cfg),
        "pset-groups": {},
        "products": {},
        "tn-groups": {},
        "tspans": [],
        "levels": [],
    }
    if regime in ("T-cell", "dprime"):
        cache["tproj"] = _TCache(cfg)
    else:
        cache["base"] = base_space_vectors(cfg)
    return cache


def _fixes_cells(cfg: Config, i: int) -> bool:
    """Whether the transposition (i i+1) maps every cell of
    ``osc.enumerate_block_sums`` onto itself, and so every monomial level:
    it does where i and i+1 lie in one block, so every block sum stays, and
    neither is n1+1, so the exclusion at n1+1 stays."""
    n1, n2 = cfg.n1, cfg.n2
    return 1 <= i < cfg.n and i not in (n1, n2) and n1 + 1 not in (i, i + 1)


def _mirrors_cells(cfg: Config, kmax: int, regime: str) -> bool:
    """Whether the x/y mirror maps each monomial level 0..kmax onto itself.
    Where it maps the blocks onto the blocks (n1 + n2 = n, which the
    weights of the variables show), it maps the cell (a1, a2, a3, b1, b2,
    b3) onto (b3, b2, b1, a3, a2, a1) and the exclusion at n1+1 onto one at
    n2: so it needs n1 + 1 = n2 and the cells of each level closed under
    that map."""
    if cfg.n1 + 1 != cfg.n2:
        return False
    for j in range(kmax + 1):
        cells = set(_level_cells(cfg, j, regime))
        if {cell[::-1] for cell in cells} != cells:
            return False
    return True


def _orbit_generators(cfg: Config, kmax: int, cache: dict) -> list:
    """The relabellings a tower to depth kmax is built with: the block
    transpositions and the x/y mirror that ``osc.admitted`` keeps on the
    base vectors and the alternating quadratics (each set onto itself up to
    sign) and on the Weyl forms of the two T-series operators in the T-cell
    and dprime regimes (each onto itself).  None where one of those
    vectors, or a term of a form, is no weight vector (the terms of weight
    0, so T(m) has the weight of m), or where a quadratic's weight has
    entries adding up to more than 2 in absolute value, so that a factor
    could move ``Weights.descent`` by more than 1 (:func:`_level_groups`
    rests on it); see the module docstring.

    A candidate must also map each monomial level 0..kmax of the T-cell
    and dprime regimes onto itself, a transposition every cell
    (``_fixes_cells``: one that moves n1+1 is refused there, and it moves
    the forms of the T-series too), the mirror every level
    (``_mirrors_cells``); and the mirror must map each variable's weight mu
    to -reverse(mu) (``Weights.mirrored``).  The base vectors read the
    cache's T-images."""
    sp, regime = cfg.space, cache["regime"]
    levels = regime in ("T-cell", "dprime")
    weights = Weights(cfg, sp)
    forms = projection_forms(cfg) if levels else ()
    base = cache["base"] if "base" in cache else base_space_vectors(cfg, cache["tproj"])
    base = [v.terms for v in base]
    pset = [v.terms for v in cache["pset"]]
    found = [weights.homogeneous(v) for v in base + pset]
    if (
        None in found
        or any(sum(map(abs, weights.entries(w))) > 2 for w in found[len(base):])
        or any(weights.of(v) != weights.of(d) for form in forms for v, d in form)
    ):
        return []
    candidates = []
    for sigma in relabellings(cfg.n, block_transpositions(cfg.n, cfg.n1, cfg.n2), mirror=True):
        if sigma.mirror:
            swap = sigma.swap(sp)
            if any(weights.of(swap(u)) != weights.mirrored(weights.of(u)) for u in sp.unit):
                continue
            if levels and not _mirrors_cells(cfg, kmax, regime):
                continue
        elif levels and not _fixes_cells(cfg, sigma.transposition):
            continue
        candidates.append(sigma)
    fixed = Table(None, sp, dict(enumerate(forms)))
    return admitted(candidates, [(sp, base), (sp, pset)], [fixed])


def build_tower(
    cfg: Config, kmax: int, method: str = "explicit", *, whole: bool = False
) -> FiltrationTower:
    """Construct M_0 .. M_kmax by the requested method.

    Each level is built on top of the one below: the explicit route extends
    the levels of one cache, the brute-force route closes only the rows new
    since the level below, each under the generators its tag allows (see
    the module docstring).  The explicit route builds each level only at the
    representative weights of the orbits of the relabellings its certificate
    admits (:func:`_orbit_generators`: block transpositions and the x/y
    mirror), and whole, as one block (``Weights.ungraded``), where it
    admits none; it then enumerates each monomial level only at the
    weights it reads (:func:`_level_groups`) and carries the weight of each
    row's pivot in ``row_weights``.  ``whole``
    builds every weight at once, with no certificate, for a caller that
    reads the rows: the annihilator, a tower dump, and the ``levels`` of a
    tower with orbits, read where a certificate of the applier refuses the
    orbits (``compare_towers``).
    """
    if kmax < 0:
        raise ValueError("kmax must be nonnegative")
    if method == "bruteforce":
        return _bruteforce_tower(cfg, kmax, Weights.ungraded(cfg, cfg.space))
    if method != "explicit":
        raise ValueError(f"unknown tower method {method!r}")
    cache = _explicit_cache(cfg)
    found = [] if whole else _orbit_generators(cfg, kmax, cache)
    if found:
        cache["weights"] = Weights(cfg, cfg.space, found)
        cache["depth"] = kmax
    levels = [explicit_level(cfg, k, cache) for k in range(kmax + 1)]
    name = {"T-cell": "explicit", "dprime": "explicit-dprime"}.get(
        cache["regime"], "product-span"
    )
    return FiltrationTower(cfg, name, levels, cache["weights"], cache["row-weights"])


def compare_towers(cfg: Config, kmax: int) -> dict:
    """Brute-force vs explicit towers: exact two-sided equality per level.

    This is the dual-route oracle for the filtration description.  The two
    constructions share the base space, ``poly``, ``linalg`` and the Weyl-term
    applier of ``osc`` (the generators on one side, T on the other); the
    operators themselves are checked against sympy in the tests.

    A level is equal when the dimensions agree and the brute-force rows
    lie in the explicit level.  Where the explicit tower is built at
    representative weights, only those rows (``built``) are read, and only
    where the brute-force tower is stable under the same relabellings:
    the applier is a representation (``osc.applier_is_representation``)
    that every block permutation conjugates onto itself
    (``osc.block_permutations_commute``), and, where the x/y mirror is
    among the orbit generators, that the mirror conjugates onto itself too
    (``osc.mirror_commutes``); the explicit certificate mapped the base
    vectors onto themselves up to sign.  The brute-force levels are then
    built only at the weights that reach a representative weight
    (:func:`_bruteforce_tower`), where their rows are the whole levels',
    their dimensions are sums over orbits, and only their rows at
    representative weights are looked up in the explicit level: with both
    levels stable under every relabelling, containment at each
    representative weight and equal dimensions give equality at every
    weight.  The weight of a row is the one the cone carried
    (``row_weights``), or its pivot's where a root of the applier moves no
    weight by one shift and the brute-force levels are whole.  Where any
    certificate refuses, both sides are one block (``Weights.ungraded``):
    the whole explicit levels (``levels``) are read and the whole
    brute-force levels built, and every row is looked up.

    Where level k-1 was equal and both towers nest, a brute-force row that
    level k shares with level k-1 (the same dict, shared by
    ``EchelonBasis.copy``) lies in explicit level k-1, so in level k: only
    the rows new at level k are looked up.  Below an unequal level, or
    where a tower does not nest, every row is.
    """
    n, n1, n2 = cfg.n, cfg.n1, cfg.n2
    explicit = build_tower(cfg, kmax, "explicit")
    weights = explicit.weights
    if weights.orbits and not (
        applier_is_representation(n, n1, n2)
        and block_permutations_commute(n, n1, n2)
        and (not weights.mirror or mirror_commutes(n, n1, n2))
    ):
        weights = Weights.ungraded(cfg, cfg.space)
    rows = explicit.built if weights.orbits else explicit.levels
    brute = _bruteforce_tower(cfg, kmax, weights)
    # the weight of a brute-force row: the one its build carried, or its
    # pivot's where the brute-force tower is one block and the explicit not
    of = brute.row_weights.__getitem__ if brute.weights.orbits == weights.orbits else weights.of
    keeps = weights.is_representative
    nested = explicit.check_nested() and brute.check_nested()
    dims, brute_dims = explicit.dims, brute.dims
    per_level = []
    below: dict = {}  # the rows of brute-force level k-1 that lie in explicit level k
    for k in range(kmax + 1):
        level = brute.built[k]
        eq = brute_dims[k] == dims[k]
        if eq:
            for piv, row in level.rows.items():
                if below.get(piv) is row or not keeps(of(piv)):
                    continue
                if not rows[k].contains(row):
                    eq = False
                    break
        below = level.rows if eq and nested else {}
        per_level.append(
            {
                "k": k,
                "dim_bruteforce": brute_dims[k],
                "dim_explicit": dims[k],
                "equal": eq,
            }
        )
    return {
        "cfg": cfg.short(),
        "explicit_method": explicit.method,
        "levels": per_level,
        "all_equal": all(r["equal"] for r in per_level),
        "nested": nested,
    }


def hilbert_sequence(tower: FiltrationTower) -> list[int]:
    """Graded dimensions dim M_0, dim M_1 - dim M_0, ..."""
    dims = tower.dims
    return [dims[0]] + [dims[k] - dims[k - 1] for k in range(1, len(dims))]


# ---------------------------------------------------------------------------
# ladder identities: ordered products of raising/lowering operators versus
# scaled harmonic projections
# ---------------------------------------------------------------------------


def _apply_chain(cfg: Config, ops: list[tuple], v: Poly) -> Poly:
    """Apply root operators right-to-left (ops[0] acts last)."""
    out = v
    for ij in reversed(ops):
        out = apply_generator(cfg, ("e",) + ij, out)
    return out


def _subring_ok(cfg: Config, v0: Poly) -> bool:
    """v0 must avoid x_{n1+1}, y_{n1+1} and use only one of x/y over the rest
    of the middle block."""
    sp = cfg.space
    mid = cfg.n1 + 1
    uses_x_mid = uses_y_mid = False
    for m in v0.terms:
        m = sp.unpack(m)
        if m[sp.x(mid)] or m[sp.y(mid)]:
            return False
        for r in cfg.J2:
            if r == mid:
                continue
            if m[sp.x(r)]:
                uses_x_mid = True
            if m[sp.y(r)]:
                uses_y_mid = True
    return not (uses_x_mid and uses_y_mid)


# Each ladder variant as (side, |i1|, |i3|, c, s) in terms of (k, aux): the
# E-chain acts on v0 * v_{n1+1}^s and yields
# (-1)^{|i1|} k!/c! T(v0 * prod v_i * prod v_j * v_{n1+1}^c), v = x or y by
# side.  "x" and "y" are the two mixed ladders (aux = number of J3 resp. J1
# indices consumed); "cx" and "cy" the one-sided corollary forms (aux = the
# leftover exponent at n1+1).  The sign counts the lowering factors: the
# printed y form carries (-1)^k, which fails already at aux = 0.
LADDER_VARIANTS = {
    "x": lambda k, aux: ("x", k, aux, k - aux, 0),
    "y": lambda k, aux: ("y", aux, k, k - aux, 0),
    "cx": lambda k, aux: ("x", 0, k - aux, aux, k),
    "cy": lambda k, aux: ("y", k - aux, 0, aux, k),
}


def operator_chain_identity(
    cfg: Config,
    variant: str,
    k: int,
    aux: int,
    i1_idx: list[int],
    i3_idx: list[int],
    v0: Poly,
) -> bool:
    """Check one ladder identity relating an ordered product of E-operators
    to a scaled projection of a decorated monomial (``LADDER_VARIANTS``).

    The chain has one lowering factor E_{n1+1,i} per J1 index, each
    contributing a sign, and one raising factor E_{j,n1+1} per J3 index.
    On the x side it lists the raisings reversed, then the lowerings; on
    the y side the lowerings, then the raisings.  Index and regime
    preconditions are enforced.
    """
    if cfg.n1 >= cfg.n2:
        raise UnsupportedRegimeError("ladder identities require n1 < n2")
    if not _subring_ok(cfg, v0):
        raise ValueError("v0 lies outside the admissible subring")
    if aux < 0 or aux > k:
        raise ValueError("need 0 <= aux <= k")
    if variant not in LADDER_VARIANTS:
        raise ValueError(f"unknown ladder variant {variant!r}")
    side, n_i1, n_i3, c, s = LADDER_VARIANTS[variant](k, aux)
    if len(i1_idx) != n_i1 or len(i3_idx) != n_i3:
        raise ValueError(f"variant {variant!r} takes {n_i1} J1 and {n_i3} J3 indices")
    if any(i not in cfg.J1 for i in i1_idx) or any(j not in cfg.J3 for j in i3_idx):
        raise ValueError("ladder indices outside J1/J3")
    sp = cfg.space
    mid = cfg.n1 + 1
    var = sp.x if side == "x" else sp.y

    def mono(indices) -> Poly:
        return Poly.monomial(sp, sum(sp.unit[var(i)] for i in indices))

    lhs = project_T(cfg, v0 * mono([*i1_idx, *i3_idx] + [mid] * c)).scale(
        Fraction((-1) ** n_i1 * factorial(k), factorial(c))
    )
    lowerings = [(mid, i) for i in i1_idx]
    raisings = [(j, mid) for j in i3_idx]
    ops = raisings[::-1] + lowerings if side == "x" else lowerings + raisings
    return lhs == _apply_chain(cfg, ops, v0 * mono([mid] * s))


# ---------------------------------------------------------------------------
# tower interchange format
# ---------------------------------------------------------------------------


def tower_to_dict(tower: FiltrationTower) -> dict:
    """The tower as JSON data: its layout, method, dimensions and the
    canonical rows of each whole level as text (``poly.render_terms``).
    Levels share most of their canonical rows, and rows their monomials, so
    each distinct row and each monomial is rendered once."""
    cfg = tower.cfg
    texts: dict = {}  # the terms of a canonical row -> its text
    monomial_texts: dict = {}

    def render(row: dict) -> str:
        key = frozenset(row.items())
        text = texts.get(key)
        if text is None:
            text = texts[key] = render_terms(cfg.space, row, monomial_texts)
        return text

    return {
        "config": {
            "n": cfg.n,
            "n1": cfg.n1,
            "n2": cfg.n2,
            "l1": cfg.l1,
            "l2": cfg.l2,
        },
        "method": tower.method,
        "dims": tower.dims,
        "levels": [[render(row) for row in rows] for rows in canonical_levels(tower.levels)],
    }


def tower_from_dict(data: dict) -> FiltrationTower:
    try:
        c = data["config"]
        cfg = Config(c["n"], c["n1"], c["n2"], c["l1"], c["l2"])
    except (KeyError, TypeError) as exc:
        raise ValueError(f"malformed tower dump: {exc}") from exc
    if "levels" not in data:
        raise ValueError("tower dump has no basis rows")
    if "dims" not in data:
        raise ValueError("tower dump has no dimensions")
    if not isinstance(data["levels"], list) or not all(
        isinstance(rows, list) and all(isinstance(text, str) for text in rows)
        for rows in data["levels"]
    ):
        raise ValueError("tower dump levels are not lists of polynomial texts")
    levels = []
    for rows in data["levels"]:
        basis = EchelonBasis(cfg.space)
        for text in rows:
            basis.insert(parse_poly(cfg.space, text))
        levels.append(basis)
    whole = Weights.ungraded(cfg, cfg.space)
    tower = FiltrationTower(cfg, data.get("method", "loaded"), levels, whole)
    if tower.dims != data["dims"]:
        raise ValueError("tower dump dimensions do not match its rows")
    return tower
