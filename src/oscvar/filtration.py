"""Filtrations of the harmonic module by enveloping-algebra degree.

The base space M_0 depends on the parameter regime:

  * n1 < n2 with l1 <= 0 or l2 <= 0: the T-image of one block-degree cell,
    picked by the sign pattern of (l1, l2);
  * n1 < n2 = n with l1, l2 > 0: the T-images with zero x-degree over J1;
  * n1 = n2 with l1, l2 <= 0: the monomials X_{J1}^{m1} Y_{J3}^{m2};
  * n1 = n2 with l1 <= 0 < l2 (and 1 < n1): products of the quadratics
    (x_p y_q - x_q y_p) over J1 against X_{J1}^{m1}; the regime with the
    roles of l1 and l2 swapped is handled through the x/y mirror symmetry.

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
    permutations are certified per layout and depth
    (``_admitted_transpositions``); the whole levels are the same build
    with every weight kept.  ``compare_towers`` reads the representative
    rows inside the brute-force level, which sigma maps onto itself too
    (M_0 by the certificate, pi(U_k(g)) by
    ``osc.applier_is_representation`` and
    ``osc.block_permutations_commute``), so every relabelling of them lies
    there; with equal dimensions the spans are equal.  Where either
    certificate refuses, it reads the whole levels.
  * The x/y mirror M: x_a <-> y_{n+1-a} (``osc.mirrorer``) is a second
    orbit generator.  It is a relabelling of the variables, so an algebra
    automorphism, and where it maps each variable's weight mu to
    -reverse(mu) it maps the weight vectors of weight mu to those of
    -reverse(mu).  Where it also maps every spanning set onto itself up to
    sign, as the transpositions must, it maps the component of weight mu
    onto that of -reverse(mu), and the dimensions of the two agree.  M
    conjugates (i i+1) to (n-i n+1-i), so where the admitted
    transpositions are closed under i -> n - i, M normalizes the group G
    they generate: an orbit of G x| <M> is one orbit of G or two of one
    size, and each is built at one representative weight
    (``osc.Weights`` with ``mirror``).  On a self-mirror layout
    (n1 + n2 = n, l1 = l2) that builds about half the rows the
    transpositions alone build.  In the T-cell regime T must commute
    with M, so M must fix the lift x_{n1+1} y_{n1+1} and the reduced
    Laplacian, which omits the d_x d_y summand of n1+1; M takes n1+1 to
    n2, so a T-cell with |J2| > 1 is refused (``_admits_mirror``), as is
    every dprime layout.  ``compare_towers`` reads the mirror's
    representatives only where M also conjugates every pi(E_ab) to
    -pi(E_{n+1-b,n+1-a}) (``osc.mirror_commutes``), so that it maps
    pi(U_k(g)) M_0, the brute-force level, onto itself; where that
    refuses, it reads the whole levels.
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from functools import cached_property
from math import factorial, gcd

from .linalg import EchelonBasis, echelon_from
from .osc import (
    Config,
    Weights,
    _compositions,
    apply_generator,
    apply_generator_terms,
    applier_is_representation,
    block_permutations_commute,
    block_transpositions,
    classify_irreducible,
    enumerate_block_sums,
    enumerate_TN_level,
    generators,
    mirror_commutes,
    mirrorer,
    permutes_up_to_sign,
    project_T,
    project_T_numerator,
    projection_forms,
    transposer,
)
from .poly import Poly, parse_poly


class UnsupportedRegimeError(ValueError):
    """Raised for parameter regimes with no explicit base-space recipe."""


class FiltrationTower:
    """Nested spans M_0 <= M_1 <= ... <= M_kmax with their dimensions.

    ``built`` holds the levels as built: whole, or, where ``build_tower``
    finds orbits of weights on an explicit tower, only at the representative
    weights of ``weights`` (None for whole levels).  ``dims`` and
    ``check_nested`` read ``built``; ``levels`` are the whole levels, built
    at every weight when first read, as where a certificate refuses the
    orbits (``compare_towers``).
    """

    def __init__(self, cfg: Config, method: str, levels: list[EchelonBasis], weights=None):
        self.cfg = cfg
        self.method = method  # "bruteforce" | "explicit" | "explicit-dprime" | "product-span"
        self.built = levels
        self.weights = weights
        self._levels = levels if weights is None else None
        # Facts other modules derive from the levels, such as the
        # annihilator's system rows.  They assume the levels do not change
        # after they are derived.
        self.derived: dict = {}

    @property
    def levels(self) -> list[EchelonBasis]:
        if self._levels is None:
            self._levels = build_tower(self.cfg, self.depth, whole=True).built
        return self._levels

    @property
    def dims(self) -> list[int]:
        if self.weights is None:
            return [b.dim for b in self.built]
        return self._orbit_dims

    @cached_property
    def _orbit_dims(self) -> list[int]:
        """The dimensions of levels built at representative weights: the
        sum over orbits of |orbit| times the rows of the representative
        weight (every row is a weight vector, of the weight of its pivot)."""
        weights = self.weights
        sizes: dict = {}  # pivot -> orbit size of its weight
        orbits: dict = {}  # weight -> orbit size

        def size(piv):
            found = sizes.get(piv)
            if found is None:
                w = weights.of(piv)
                found = orbits.get(w)
                if found is None:
                    found = orbits[w] = weights.orbit_size(w)
                sizes[piv] = found
            return found

        return [sum(map(size, level.rows)) for level in self.built]

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


def _dprime_level(cfg: Config, t: int) -> list[int]:
    """Monomials of the graded piece with J1 x-degree exactly t (n2 = n)."""
    out = []
    for b1 in range(cfg.l2 + 1):
        out.extend(
            enumerate_block_sums(cfg, t, cfg.l1 + t, 0, b1, cfg.l2 - b1, 0)
        )
    return out


def _mirror_poly(p: Poly, cfg: Config) -> Poly:
    """The x/y mirror x_i <-> y_{n+1-i}: an algebra isomorphism that maps the
    setup with (n1, l1, l2) to the one with (n - n1, l2, l1)."""
    swap = mirrorer(cfg.space)
    return Poly(cfg.space, {swap(m): c for m, c in p.terms.items()})


def _skew_base(cfg: Config) -> list[Poly]:
    """Base vectors prod (x_p y_q - x_q y_p)^{k_pq} * X_{J1}^{m1} for the
    n1 = n2, l1 <= 0 < l2 regime."""
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
    out = []
    for combo in itertools.combinations_with_replacement(range(len(pairs)), m2):
        prod = Poly.constant(sp, 1)
        for idx in combo:
            prod = prod * skews[idx]
        for xm in _compositions_over(cfg.J1, m1):
            mono = [0] * sp.nvars
            for i, e in xm:
                mono[sp.x(i)] = e
            out.append(prod * Poly.monomial(sp, sp.pack(mono)))
    return out


def _compositions_over(indices, total):
    idx = list(indices)
    for comp in _compositions(total, len(idx)):
        yield list(zip(idx, comp))


def _product_base(cfg: Config) -> list[Poly]:
    """Monomials X_{J1}^{m1} Y_{J3}^{m2} for the n1 = n2, l1, l2 <= 0 regime."""
    sp = cfg.space
    m1, m2 = -cfg.l1, -cfg.l2
    out = []
    for xm in _compositions_over(cfg.J1, m1):
        for ym in _compositions_over(cfg.J3, m2):
            mono = [0] * sp.nvars
            for i, e in xm:
                mono[sp.x(i)] = e
            for j, e in ym:
                mono[sp.y(j)] = e
            out.append(Poly.monomial(sp, sp.pack(mono)))
    return out


def base_space_vectors(cfg: Config, tproj=None) -> list[Poly]:
    """Spanning vectors of M_0 for the applicable regime; ``tproj``, a
    :class:`_TCache` of the layout, serves the T-images where given."""
    regime = _regime(cfg)
    if regime in ("T-cell", "dprime") and tproj is None:
        tproj = _TCache(cfg)
    if regime == "T-cell":
        l1, l2 = cfg.l1, cfg.l2
        if l1 <= 0 and l2 <= 0:
            cell = (-l1, 0, 0, 0, 0, -l2)
        elif l1 <= 0 <= l2:
            cell = (-l1, 0, 0, 0, l2, 0)
        else:  # l1 >= 0 >= l2
            cell = (0, l1, 0, 0, 0, -l2)
        return [tproj(m) for m in enumerate_block_sums(cfg, *cell)]
    if regime == "dprime":
        return [tproj(m) for m in _dprime_level(cfg, 0)]
    if regime == "product":
        return _product_base(cfg)
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
) -> EchelonBasis:
    """span(prev) + the images of its rows under all n^2 - 1 generators.

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
    """
    nxt = prev.copy()
    ordered = applier_is_representation(cfg.n, cfg.n1, cfg.n2)
    if fresh is None:
        fresh = dict.fromkeys(prev.rows)
    todo = sorted(
        ((-1 if tag is None else tag, prev.rows[piv]) for piv, tag in fresh.items()),
        key=lambda item: item[0],
    )
    for b, g in enumerate(generators(cfg.n)):
        for tag, row in todo:
            if tag > b:
                break
            img = apply_generator_terms(cfg, g, row)
            # an accepted row's pivot is the last key of nxt.rows
            if img and nxt.insert(img) and tags is not None:
                tags[next(reversed(nxt.rows))] = b if ordered else None
    return nxt


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


def _by_weight(items: list, weights=None) -> list[tuple]:
    """``items`` grouped by their ``weights`` (a parallel iterable), each
    group in the order of ``items``: a list of (w, [item, ...]).  Without
    weights, one group [(None, items)]: a build that keeps every weight."""
    if weights is None:
        return [(None, items)]
    groups: dict = {}
    for item, w in zip(items, weights):
        groups.setdefault(w, []).append(item)
    return list(groups.items())


def _vector_weights(cache: dict, vectors: list[Poly]):
    """The weights of generating vectors, each that of its leading monomial
    (the certificate checked that each is a weight vector), or None where
    the build keeps every weight."""
    weights = cache["weights"]
    return None if weights is None else [weights.of(max(v.terms)) for v in vectors]


def _keeps(cache: dict, w) -> bool:
    """Whether the build keeps the weight w: every weight (w is None) where
    it has no orbits, else the representative ones."""
    return w is None or cache["weights"].is_representative(w)


def _kept_products(cache: dict, left: list, right: list):
    """(a, b) for each group a of ``left`` and b of ``right``
    (:func:`_by_weight`) whose products have a weight the build keeps."""
    for wa, a in left:
        for wb, b in right:
            if _keeps(cache, None if wa is None else wa + wb):
                yield a, b


def _monomial_level(cfg: Config, j: int, cache: dict) -> list[int]:
    """TN level j (dprime level j in the dprime regime), enumerated once.
    A build with orbits reads only the levels its certificate enumerated."""
    levels = cache["tn"]
    while len(levels) <= j:
        if cache["weights"] is not None:
            raise ValueError(f"monomial level {len(levels)} lies above the certified depth")
        enumerate_level = _dprime_level if cache["regime"] == "dprime" else enumerate_TN_level
        levels.append(enumerate_level(cfg, len(levels)))
    return levels[j]


def _level_groups(cfg: Config, j: int, cache: dict) -> list[tuple]:
    """:func:`_monomial_level` j by weight (:func:`_by_weight`), grouped once."""
    groups = cache["tn-groups"]
    if j not in groups:
        weights = cache["weights"]
        level = _monomial_level(cfg, j, cache)
        groups[j] = _by_weight(level, None if weights is None else map(weights.of, level))
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
        groups[size] = _by_weight(
            combos, None if factor is None else (sum(factor[c] for c in combo) for combo in combos)
        )
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
            if _keeps(cache, w):
                for m in level:
                    span.insert(tproj(m))
        spans.append(span)
    return spans[k]


def _insert_tproducts(cfg: Config, basis: EchelonBasis, k: int, i: int, cache: dict):
    """Insert T(TN level k-i) * P^i, the part of S_k with i quadratic
    factors, at the weights the build keeps."""
    tproj = cache["tproj"]
    groups = _kept_products(cache, _level_groups(cfg, k - i, cache), _pset_groups(cfg, i, cache))
    for level, combos in groups:
        prods = [_pset_product(cfg, combo, cache) for combo in combos]
        for m in level:
            tm = tproj(m)
            for p in prods:
                basis.insert(tm * p)


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
            groups = _kept_products(cache, cache["base-groups"], _pset_groups(cfg, j, cache))
            for vectors, combos in groups:
                prods = [_pset_product(cfg, combo, cache) for combo in combos]
                for b in vectors:
                    for p in prods:
                        basis.insert(b * p)
            # size j-1 served level j-1 and the prefixes of size j; no level reads it again
            cache["products"].pop(j - 1, None)
        built.append(basis)
    return built[k]


def _explicit_cache(cfg: Config) -> dict:
    regime = _regime(cfg)
    cache: dict = {
        "regime": regime,
        "weights": None,  # every weight kept
        "pset": alternating_set(cfg),
        "pset-groups": {},
        "products": {},
        "tn": [],
        "tn-groups": {},
        "tspans": [],
        "levels": [],
    }
    if regime in ("T-cell", "dprime"):
        cache["tproj"] = _TCache(cfg)
    else:
        cache["base"] = base_space_vectors(cfg)
    return cache


def _spanning_sets(cfg: Config, cache: dict):
    """(forms, base, pset), what a relabelling must map onto itself: the
    Weyl forms of the two T-series operators in the T-cell and dprime
    regimes (else none), and the term dicts of the base vectors and of the
    alternating quadratics; or None where one of those vectors, or a term
    of a form, is no weight vector (the terms of weight 0, so T(m) has the
    weight of m).  Decided once per cache; the base vectors read its
    T-images."""
    if "spanning" not in cache:
        weights = Weights(cfg, cfg.space)
        forms = projection_forms(cfg) if cache["regime"] in ("T-cell", "dprime") else ()
        base = cache["base"] if "base" in cache else base_space_vectors(cfg, cache["tproj"])
        base = [v.terms for v in base]
        pset = [v.terms for v in cache["pset"]]
        if any(weights.homogeneous(v) is None for v in base + pset) or any(
            weights.of(v) != weights.of(d) for form in forms for v, d in form
        ):
            cache["spanning"] = None
        else:
            cache["spanning"] = forms, base, pset
    return cache["spanning"]


def _maps_spanning_sets(cfg: Config, kmax: int, cache: dict, swap) -> bool:
    """Whether relabelling by ``swap`` maps every explicit spanning set
    S_0..S_kmax onto itself up to sign: it fixes the T-series forms, maps
    the base vectors and the alternating set each onto plus or minus
    themselves, and, in the T-cell and dprime regimes, maps each monomial
    level 0..kmax onto itself (T then commutes with it).  Needs
    ``_spanning_sets``; the level sets are built into ``cache`` once."""
    forms, base, pset = cache["spanning"]
    if not (
        all({(swap(v), swap(d)): c for (v, d), c in form.items()} == form for form in forms)
        and permutes_up_to_sign(base, swap)
        and permutes_up_to_sign(pset, swap)
    ):
        return False
    if not forms:  # the product regimes: no monomial levels
        return True
    if "level-sets" not in cache:
        cache["level-sets"] = [set(_monomial_level(cfg, j, cache)) for j in range(kmax + 1)]
    return all(set(map(swap, level)) == level for level in cache["level-sets"])


def _admitted_transpositions(cfg: Config, kmax: int, cache: dict) -> list[int]:
    """The block transpositions (i i+1) (``osc.block_transpositions``) that
    map every explicit spanning set S_0..S_kmax onto itself up to sign
    (``_maps_spanning_sets``), where every generating vector is a weight
    vector (``_spanning_sets``); none where one is not (see the module
    docstring).  A transposition that moves n1+1 moves the forms of the
    T-series, so it is never admitted in the T-cell and dprime regimes.
    The monomial levels are enumerated into ``cache``.
    """
    candidates = block_transpositions(cfg.n, cfg.n1, cfg.n2)
    if not candidates or _spanning_sets(cfg, cache) is None:
        return []
    sp = cfg.space
    return [i for i in candidates if _maps_spanning_sets(cfg, kmax, cache, transposer(sp, i))]


def _admits_mirror(cfg: Config, kmax: int, cache: dict, admitted) -> bool:
    """Whether the x/y mirror M (``osc.mirrorer``) joins the ``admitted``
    transpositions as an orbit generator of the explicit tower: they are
    closed under i -> n - i (M conjugates (i i+1) to (n-i n+1-i), so the
    group is G x| <M>), every generating vector is a weight vector, M maps
    each variable's weight mu to -reverse(mu) (``Weights.mirrored``), and M
    maps every spanning set S_0..S_kmax onto itself up to sign
    (``_maps_spanning_sets``; see the module docstring)."""
    n, sp = cfg.n, cfg.space
    if {n - i for i in admitted} != set(admitted) or _spanning_sets(cfg, cache) is None:
        return False
    weights = Weights(cfg, sp)
    swap = mirrorer(sp)
    if any(weights.of(swap(u)) != weights.mirrored(weights.of(u)) for u in sp.unit):
        return False
    return _maps_spanning_sets(cfg, kmax, cache, swap)


def build_tower(
    cfg: Config, kmax: int, method: str = "explicit", *, whole: bool = False
) -> FiltrationTower:
    """Construct M_0 .. M_kmax by the requested method.

    Each level is built on top of the one below: the explicit route extends
    the levels of one cache, the brute-force route closes only the rows new
    since the level below, each under the generators its tag allows (see
    the module docstring).  The explicit route builds each level only at
    the representative weights of the orbits of the transpositions its
    certificate admits (:func:`_admitted_transpositions`) and of the x/y
    mirror where it admits that too (:func:`_admits_mirror`), and whole
    where it admits none.  ``whole`` builds every weight at once, with no
    certificate, for a caller that reads the rows: the annihilator, a tower
    dump, and the ``levels`` of a tower with orbits, read where a
    certificate of the applier refuses the orbits (``compare_towers``).
    """
    if kmax < 0:
        raise ValueError("kmax must be nonnegative")
    if method == "bruteforce":
        levels = [build_M0(cfg)]
        fresh = None
        for k in range(kmax):
            tags: dict = {}
            levels.append(bruteforce_level(cfg, levels[k], fresh, tags))
            fresh = tags
        return FiltrationTower(cfg, "bruteforce", levels)
    if method != "explicit":
        raise ValueError(f"unknown tower method {method!r}")
    cache = _explicit_cache(cfg)
    if not whole:
        admitted = _admitted_transpositions(cfg, kmax, cache)
        mirror = _admits_mirror(cfg, kmax, cache, admitted)
        if admitted or mirror:
            cache["weights"] = Weights(cfg, cfg.space, admitted, mirror)
    levels = [explicit_level(cfg, k, cache) for k in range(kmax + 1)]
    name = {"T-cell": "explicit", "dprime": "explicit-dprime"}.get(
        cache["regime"], "product-span"
    )
    return FiltrationTower(cfg, name, levels, cache["weights"])


def compare_towers(cfg: Config, kmax: int) -> dict:
    """Brute-force vs explicit towers: exact two-sided equality per level.

    This is the dual-route oracle for the filtration description.  The two
    constructions share the base space, ``poly``, ``linalg`` and the Weyl-term
    applier of ``osc`` (the generators on one side, T on the other); the
    operators themselves are checked against sympy in the tests.

    A level is equal when the dimensions agree and the explicit rows lie
    in the brute-force level.  Where the explicit tower is built at
    representative weights, only those rows (``built``) are read, and only
    where the brute-force tower is stable under the same relabellings:
    the applier is a representation (``osc.applier_is_representation``)
    that every block permutation conjugates onto itself
    (``osc.block_permutations_commute``), and, where the x/y mirror is
    among the orbit generators, that the mirror conjugates onto itself too
    (``osc.mirror_commutes``); the explicit certificate mapped the base
    vectors onto themselves up to sign.  Every relabelling of the rows read
    then lies in the brute-force level too.  Where any of these refuses,
    the whole levels (``levels``) are read.

    An explicit row that level k shares with level k-1 (the same dict,
    shared by ``EchelonBasis.copy``) and that was found in brute-force
    level k-1 is not looked up again: brute-force level k starts as a copy
    of level k-1, so it holds the row too.
    """
    n, n1, n2 = cfg.n, cfg.n1, cfg.n2
    brute = build_tower(cfg, kmax, "bruteforce")
    explicit = build_tower(cfg, kmax, "explicit")
    weights = explicit.weights
    certified = weights is None or (
        applier_is_representation(n, n1, n2)
        and block_permutations_commute(n, n1, n2)
        and (not weights.mirror or mirror_commutes(n, n1, n2))
    )
    rows = explicit.built if certified else explicit.levels
    dims = explicit.dims
    per_level = []
    found: dict = {}  # pivot -> an explicit row of the level below found in the brute level below
    for k in range(kmax + 1):
        level = brute.levels[k]
        eq = level.dim == dims[k]
        held = {}
        if eq:
            for piv, row in rows[k].rows.items():
                if found.get(piv) is not row and not level.contains(row):
                    eq = False
                    break
                held[piv] = row
        found = held
        per_level.append(
            {
                "k": k,
                "dim_bruteforce": level.dim,
                "dim_explicit": dims[k],
                "equal": eq,
            }
        )
    return {
        "cfg": cfg.short(),
        "explicit_method": explicit.method,
        "levels": per_level,
        "all_equal": all(r["equal"] for r in per_level),
        "nested": explicit.check_nested() and brute.check_nested(),
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
    cfg = tower.cfg
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
        "levels": [
            [row.render() for row in basis.sorted_rows()] for basis in tower.levels
        ],
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
    tower = FiltrationTower(cfg, data.get("method", "loaded"), levels)
    if tower.dims != data["dims"]:
        raise ValueError("tower dump dimensions do not match its rows")
    return tower
