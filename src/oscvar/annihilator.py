"""Degree-p annihilator kernels of the associated graded module.

Working over the symmetric algebra on the n^2 - 1 generator symbols,
``poly.symbol_space(n)``, a degree-p element annihilates the graded module
when its action sends every filtration level M_k into M_{k+p-1}.  Every
symbol operator is a ``Poly`` of that space.  Monomials act through a fixed
factor ordering (descending in the generator enumeration, rightmost factor
first): the smallest generator index, the most significant packed field,
acts first.  The residue modulo the lower level is ordering-independent,
which is asserted by test rather than assumed.  An operator identity is
decided on the normal-ordered Weyl form of the operator, built in the same
factor order (:func:`sym_form`): the Weyl algebra acts faithfully on the
polynomials in characteristic 0, so a zero form holds at every degree.

Every system rests on one lemma.  Call the tower g-stable when every
generator maps each M_j into M_{j+1}.  Then M_{j+1} is spanned by M_j,
g M_j and a complement N_{j+1} of their span (N_0 = M_0), and the graded
module is generated by the N_j over the commutative ring S(g) = gr U(g).
A degree-p symbol eta therefore sends every M_k into M_{k+p-1} exactly
when it sends each N_j into M_{j+p-1}: for x_i in g and v in N_j,
eta x_1...x_i v differs from x_1...x_i eta v by an element of
U_{i+p-1}(g) applied to v, which lies in M_{i+j+p-1}.  Likewise a
generator s that maps each N_j into M_j maps every level into itself, and
every monomial containing such an s annihilates without being applied.

Both facts are checked at run time, once per tower, by
:func:`system_rows`, which closes each level under the generators
(``filtration.bruteforce_level``) and compares the closure with the next
level.  A tower that fails, such as a hand-edited dump, is not a g-stable
filtration: the lemma does not apply, and every system refuses it with a
``ValueError`` that names the level.  On a tower that is U_k(g) M_0 the
N_j above M_0 are empty, so every system is solved on the rows of M_0
alone, and the claimed preservers (Cartan and off-L root symbols) that map
M_0 into itself are split off as "coordinate members".

Every check of a computed kernel against a predicted family goes through
one comparison, :func:`_compare_with_prediction`.  It quotients both sides
by the split the lemma granted (``piece.split_symbols``), not by the
claimed preservers: the monomials containing a granted symbol are kernel
members, so the quotients are equal exactly when the full spans are.  The
degree-2 prediction of each sign case comes from one table,
:func:`degree2_families`; a configuration where a 2x2 minor annihilates
only through its power has no two-sided degree check and is reported as
outside the presentation theorem.

Memberships of the predicted generators are read off the same solved
pieces (:class:`_Memberships`): a degree-p symbol annihilates exactly when
its pure part, :func:`project_pure` by the piece's split, lies in the span
of the piece's kernel vectors.  That is exact by the lemma (the terms
containing a split symbol annihilate) and because the kernel vectors span
exactly the pure symbols that annihilate, wherever the piece constrains
the rows :func:`sym_membership` reads: on a tower that is U_k(g) M_0, and
on a tower of depth kmax - 1.  Setting the split symbols to zero is a ring
homomorphism, so a minor's pure part is the minor of the projected
entries, and the whole minor symbol is never expanded there.
:func:`sym_membership`, which applies the whole symbol to the rows, is
kept where no piece of the degree is solved or the rows differ: the 3x3
minors at kmax 2, the powers of :func:`degree2_families`, levels above
M_0 that only the membership reads, and the suite's case-6 supplement.

Certificates are bounded by degree, not by depth.  On a tower that is
U_k(g) M_0 through its depth, the levels above it are taken to be
U_k(g) M_0 as well, so they contribute no rows: the degree-p system at
any kmax is M_0 against M_{p-1}, and the tower need only reach depth
p - 1.  This is the annihilator of the graded module of the good
filtration U_k(g) M_0, which is the module's own when M_0 generates it
(as when the module is irreducible); the associated variety does not
depend on the good filtration used (Vogan 1991).  So
:func:`presentation_tower` builds the explicit tower only to depth 2, all
the degree <= 3 systems read, and to depth kmax - 1 only where that
tower has generating rows above M_0, as on some reducible layouts.  Such
a tower, and a tower dump, must reach kmax - 1, the highest target of a
system at kmax.  :func:`degree2_tower` goes to depth kmax instead, on
those layouts and where a power of degree 2e of ``degree2_families``
reads M_{2e-1}.  Both are :func:`explicit_tower` at their levels.
Inside :func:`shared_towers` (one ``oscvar suite`` run) each such tower is
built once, with the facts derived from it and the pieces solved on it;
outside it every call builds its own.

Each kernel is solved as a direct sum of weight blocks (``osc.Weights``).
The weight of a symbol monomial is the sum of its symbols': e_ab adds
eps_a - eps_b, a Cartan symbol adds 0.  Where the applier is a
representation (``osc.applier_is_representation``) and every Cartan
symbol preserves every level, the kernel is the annihilator of h-stable
levels, so it is stable under ad(h): for an ordered monomial t and v in a
level, h(t v) - t(h v) = wt(t)(h) t v.  It is then the sum of its weight
components, and the kernel of any set of columns that is a union of
weights is the sum of its blocks: solving those columns at once gives
each kernel vector inside one block, the vector one solve of every
column gives.  Otherwise the system is one block: its grading is
``osc.Weights.ungraded``, every symbol at weight 0, so every word lies in
the one block of weight 0, an orbit of size 1.  The grading is decided
once per tower and alphabet (:func:`_grading`).

On a tower that is U_k(g) M_0 only one weight per orbit is solved.  pi is
built from block templates, so a permutation sigma of the indices inside
J1, J2 and J3, relabelling x_i and y_i, conjugates pi(E_ab) to
pi(E_{sigma(a), sigma(b)}) (``osc.block_permutations_commute``, with
``osc.applier_is_representation``).  Where sigma also maps the rows of M_0
to plus or minus rows of M_0, it maps each M_k = U_k(g) M_0 onto itself,
and t annihilates exactly when sigma(t) does.  Where the unknowns are
closed under sigma too, the kernel block of weight sigma(mu) is sigma of
the block of weight mu.  Both are checked by the one certificate of
relabellings, ``osc.admitted``, on every block transposition: the rows of
M_0 as a vector set (:func:`_tower_relabellings`), the unknowns as a
table keyed by their generators (:func:`_grading`).  Unlike the explicit
tower, which refuses a transposition that moves n1+1, the annihilator
keeps every block transposition or none, a larger group.  Only the
representative weights, their entries ascending inside each block, are
walked, against every row of M_0 (:func:`_words_by_weight`), and each
dimension is the sum over orbits of |orbit| times dim(block).  Weight
blocks stay but orbits go at p = 1 (the Cartan symbols, which sigma does
not map to symbols, are unknowns), on a tower with rows above M_0, where
a certificate fails, and where a transposition maps a row of M_0 to
anything but plus or minus a row; every weight is then its own
representative.  The predicted families of every degree, the degree-1
symbols included, are compared one representative weight at a time
(:class:`_Family`), and a membership, a minor's included, is read one
weight component at a time, each moved to the block of its representative
weight by the sigma that sorts it (``AnnihilatorPiece.holds``), so no
other block is ever built.

The stabilization flag compares the kernel with that of the kmax-1
system.  On a tower that is U_k(g) M_0 both are the kernel of M_0, so it
holds exactly when kmax > p; it tests something only where generating
rows sit above M_0.  A system too shallow to decide anything (no level
carries an equation: kmax < p, or M_0 zero with no generating row above
it; or a degree-1 system with no kmax-1 system to compare against) raises
:class:`ShallowSystemError` instead of returning a vacuous kernel.
"""

from __future__ import annotations

import itertools
from contextlib import contextmanager
from fractions import Fraction
from functools import cached_property, lru_cache
from math import comb
from typing import NamedTuple

from .filtration import FiltrationTower, bruteforce_level, build_tower
from .linalg import EchelonBasis, echelon_from, kernel_of_columns, span_equal
from .osc import (
    Config,
    Table,
    Weights,
    admitted,
    applier_is_representation,
    apply_generator_terms,
    block_permutations_commute,
    block_transpositions,
    generators,
    relabellings,
    weyl_forms,
    weyl_mul,
)
from .poly import FIELD_MASK, Poly, Space, axpy, determinant, monomials, symbol_space


class ShallowSystemError(ValueError):
    """The checked depth is too small for a system to say anything."""


class OutOfTheoremError(ValueError):
    """The configuration lies outside the presentation theorem."""


def in_L(cfg: Config, row: int, col: int) -> bool:
    """Membership of the (row, col) pair in the lowering set L."""
    inJ1 = col <= cfg.n1
    inJ2r = cfg.n1 < row <= cfg.n2
    inJ2c = cfg.n1 < col <= cfg.n2
    inJ3 = row > cfg.n2
    return (inJ2r and inJ1) or (inJ3 and inJ2c) or (inJ3 and inJ1)


@lru_cache(maxsize=None)
def gen_index_map(n: int) -> dict:
    """Generator -> its index in ``generators(n)``; one shared dict per n,
    so callers must not mutate it."""
    return {g: idx for idx, g in enumerate(generators(n))}


def predicted_level_preservers(cfg: Config) -> list[int]:
    """Indices of the Cartan symbols and the off-L root symbols."""
    out = []
    for idx, g in enumerate(generators(cfg.n)):
        if g[0] == "h" or not in_L(cfg, g[1], g[2]):
            out.append(idx)
    return out


# ---------------------------------------------------------------------------
# symbol polynomials and their action
# ---------------------------------------------------------------------------


def apply_sym_monomial(cfg: Config, key: tuple, terms: dict, gens) -> dict:
    """Apply the composition with the smallest enumeration index acting
    first; ``key`` is ascending, so iterate it directly."""
    out = terms
    for idx in key:
        out = apply_generator_terms(cfg, gens[idx], out)
        if not out:
            return out
    return out


def sym_words(sym: Poly) -> list:
    """The terms of a symbol operator as (ascending generator indices,
    coefficient) pairs, decoded once for every row it is applied to."""
    positions = sym.space.positions
    return [(positions(m), c) for m, c in sym.terms.items()]


def apply_sym(cfg: Config, words: list, terms: dict, gens) -> dict:
    """The image of ``terms`` under the symbol operator with ``words``."""
    acc: dict = {}
    for key, c in words:
        axpy(acc, c, apply_sym_monomial(cfg, key, terms, gens))
    return acc


def _level_rows(tower: FiltrationTower, k: int) -> list:
    """Rows of level k whose pivot is new at level k (deterministic order).

    Together with level k-1 these span level k; :func:`system_rows` picks
    each N_k of the module lemma from them.
    """
    rows = tower.levels[k].rows
    if k == 0:
        keys = list(rows)
    else:
        prev = tower.levels[k - 1].rows
        keys = [m for m in rows if m not in prev]
    keys.sort(reverse=True)
    return [rows[m] for m in keys]


# ---------------------------------------------------------------------------
# the annihilator pieces
# ---------------------------------------------------------------------------


def _split_mask(space: Space, split) -> int:
    """The packed fields of the symbols in ``split``: a monomial contains
    one of them exactly when it shares a bit with this mask."""
    return sum(FIELD_MASK << space.shift[s] for s in split)


class _SplitMonomials:
    """The packed degree-p monomials of ``space`` that contain a symbol of
    ``split``, in ``poly.monomials`` order, each built when it is read, so
    no list of them is ever held.  Sized, like the list it stands for, and
    equal to that list."""

    __slots__ = ("space", "degree", "split")

    def __init__(self, space: Space, degree: int, split: frozenset):
        self.space = space
        self.degree = degree
        self.split = split

    def __len__(self):
        # all monomials less those on the generators outside the split
        p, ngens = self.degree, self.space.nvars
        return comb(ngens + p - 1, p) - comb(ngens - len(self.split) + p - 1, p)

    def __iter__(self):
        mask = _split_mask(self.space, self.split)
        return (m for m in monomials(self.space, (self.degree,)) if m & mask)

    def __eq__(self, other):
        if isinstance(other, (list, _SplitMonomials)):
            return list(self) == list(other)
        return NotImplemented


def _relabelled(space: Space, terms: dict, s) -> dict:
    """``terms``, symbol monomials on root symbols, with each e_ab renamed
    e_{s[a], s[b]}."""
    gmap = gen_index_map(space.n)
    image = [
        gmap["e", s[g[1]], s[g[2]]] if g[0] == "e" else None for g in generators(space.n)
    ]
    unit = space.unit
    return {sum(unit[image[g]] for g in space.positions(m)): c for m, c in terms.items()}


class AnnihilatorPiece:
    """Exact kernel of the degree-p graded action, certified up to kmax.

    ``coordinate_members`` are the monomials containing a symbol of
    ``split_symbols``, as a sized view that lists them when iterated; each
    annihilates by the module lemma, because its split symbol was checked
    to preserve every level.  The rest of the kernel, over the remaining
    "pure" monomials, is the sum of its weight blocks (``weights``;
    ``Weights.ungraded`` when the system is not graded, one block of weight
    0).  ``blocks`` maps each representative weight to the kernel vectors
    of its block; the block of another weight of its orbit is never built.
    """

    def __init__(
        self,
        degree: int,
        coordinate_members: _SplitMonomials,
        weights: Weights,
        blocks: dict,
        unknown_count: int,
        split_symbols: list,
    ):
        self.degree, self.coordinate_members, self.weights = degree, coordinate_members, weights
        self.blocks, self.unknown_count, self.split_symbols = blocks, unknown_count, split_symbols
        self.stabilized = False
        self._spans: dict = {}

    @property
    def space(self) -> Space:
        return self.coordinate_members.space

    @cached_property
    def mask(self) -> int:
        """The :func:`_split_mask` of the split symbols."""
        return _split_mask(self.space, self.split_symbols)

    @property
    def pure_dim(self) -> int:
        """The dimension of the kernel over the pure monomials: the sum over
        orbits of |orbit| times dim(block)."""
        size = self.weights.orbit_size
        return sum(size(w) * len(vectors) for w, vectors in self.blocks.items())

    @property
    def dim(self) -> int:
        return len(self.coordinate_members) + self.pure_dim

    def span(self, w) -> EchelonBasis:
        """The span of the kernel vectors of the block of representative
        weight ``w``, built when first read."""
        found = self._spans.get(w)
        if found is None:
            found = self._spans[w] = echelon_from(self.space, self.blocks.get(w, ()))
        return found

    def holds(self, sym: Poly) -> bool:
        """Whether the degree-p symbol ``sym`` annihilates: whether the pure
        part of each of its weight components, moved to its representative
        weight by the relabelling that sorts it, lies in that block's span.
        The kernel is the sum of its blocks, so a symbol lies in it exactly
        when each weight component does."""
        pure = project_pure(sym, self.mask).terms
        parts: dict = {}
        for m, c in pure.items():
            parts.setdefault(self.weights.of(m), {})[m] = c
        for w, part in parts.items():
            rep, s = self.weights.sorter(w)
            if s is not None:
                part = _relabelled(self.space, part, s)
            if not self.span(rep).contains(part):
                return False
        return True


def system_rows(tower: FiltrationTower) -> tuple[list, frozenset]:
    """The rows of each N_j of the module lemma, and the generators s with
    s(N_j) <= M_j for every j, which map every level into itself.

    Checked once per tower, from the bottom up, and cached in
    ``tower.derived``.  The closures form their own tower C_j, a basis of
    M_j once the checks below j passed: C_{j+1} is ``bruteforce_level`` of
    C_j, given the rows new in C_j with their tags, plus N_{j+1}.  N_{j+1}
    is picked from the rows of M_{j+1} with a pivot new at that level (with
    the closure they span it), in pivot order, and enters C_{j+1} untagged,
    so every generator is applied to it.  That keeps the induction of
    ``bruteforce_level`` exact: C_j is spanned by the ordered words on
    N_0, ..., N_j, and the closure of C_j is M_j + g M_j whenever the
    layout's bracket certificate holds (the plain semi-naive closure
    where it does not).  The :func:`_split_mask` of the generators is
    cached too, as ``tower.derived["preserver-mask"]``.  Raises
    ``ValueError`` at the first level that does not contain the closure of
    the one below: the tower is then not a g-stable filtration.
    """
    derived = tower.derived
    if "system-rows" not in derived:
        rows, preservers = _system_rows(tower)
        derived["system-rows"] = rows, preservers
        derived["preserver-mask"] = _split_mask(symbol_space(tower.cfg.n), preservers)
    return derived["system-rows"]


def _generated_by_base(tower: FiltrationTower) -> bool:
    """Whether the tower is U_k(g) M_0 through its depth: no N_j above M_0."""
    return not any(system_rows(tower)[0][1:])


# (cfg, depth) -> the whole explicit tower, while a shared_towers() scope
# is open; None outside every scope.
_shared: dict | None = None


@contextmanager
def shared_towers():
    """A scope inside which :func:`explicit_tower` builds the whole tower of
    each ``(cfg, depth)`` once and hands every later call the same object,
    with its ``derived`` facts (:func:`system_rows`, the relabellings, the
    gradings) and its solved pieces (:func:`_solve`).  A scope opened
    inside another shares the outer one's towers.  The towers are dropped
    when the outermost scope closes; outside every scope each call builds
    afresh."""
    global _shared
    outer = _shared
    if outer is None:
        _shared = {}
    try:
        yield
    finally:
        _shared = outer


def _whole_tower(cfg: Config, depth: int) -> FiltrationTower:
    """``build_tower(cfg, depth, whole=True)``, taken from the open
    :func:`shared_towers` scope where there is one."""
    if _shared is None:
        return build_tower(cfg, depth, whole=True)
    tower = _shared.get((cfg, depth))
    if tower is None:
        tower = _shared[cfg, depth] = build_tower(cfg, depth, whole=True)
    return tower


def explicit_tower(cfg: Config, top: int, base_top: int) -> FiltrationTower:
    """The explicit tower through the highest level its checks read:
    ``base_top`` where the tower is U_k(g) M_0, on which a degree-p system
    reads only M_{p-1}, and ``top`` >= base_top on any other.

    Built to depth base_top, and rebuilt to depth top where
    :func:`system_rows` finds rows above M_0.  Inside
    :func:`shared_towers` each depth of a layout is built once and every
    call gets the same object; outside it each call builds its own.
    """
    tower = _whole_tower(cfg, base_top)
    if base_top < top and not _generated_by_base(tower):
        tower = _whole_tower(cfg, top)
    return tower


def presentation_tower(cfg: Config, kmax: int) -> FiltrationTower:
    """The :func:`explicit_tower` the degree <= 3 checks at kmax read: M_2,
    every target M_{p-1} of a degree p <= 3 system and the level the 3x3
    minor memberships read, where it is U_k(g) M_0 (depth kmax below 2),
    and otherwise M_{kmax-1}, the highest target of a system at kmax."""
    return explicit_tower(cfg, max(kmax - 1, min(kmax, 2)), min(kmax, 2))


def degree2_tower(cfg: Config, kmax: int) -> FiltrationTower:
    """The :func:`explicit_tower` the degree-1 and degree-2 checks at kmax
    read: M_kmax where a power of degree 2e of :func:`degree2_families`
    reads M_{2e-1} (2e - 1 <= kmax) or the tower has rows above M_0, and
    elsewhere depth min(kmax, 2), as :func:`presentation_tower`."""
    powers = degree2_families(cfg)["powers"]
    read = any(2 * e - 1 <= kmax for _op, e in powers)
    return explicit_tower(cfg, kmax, kmax if read else min(kmax, 2))


def _system_rows(tower: FiltrationTower) -> tuple[list, frozenset]:
    cfg, levels = tower.cfg, tower.levels
    fresh = [_level_rows(tower, 0)]
    closure, new = levels[0], None
    for j in range(tower.depth):
        tags: dict = {}
        closure = bruteforce_level(cfg, closure, new, tags)
        if not levels[j + 1].contains_span(closure):
            raise ValueError(
                f"level {j + 1} does not contain the generators' images of level "
                f"{j}: the tower is not a g-stable filtration"
            )
        extra = []
        if closure.dim < levels[j + 1].dim:
            for row in _level_rows(tower, j + 1):
                if closure.insert(row):
                    extra.append(row)
                    tags[next(reversed(closure.rows))] = None
        fresh.append(extra)
        new = tags
    preservers = frozenset(
        idx
        for idx, g in enumerate(generators(cfg.n))
        if all(
            levels[j].contains(apply_generator_terms(cfg, g, row))
            for j, rows in enumerate(fresh)
            for row in rows
        )
    )
    return fresh, preservers


def _tower_relabellings(tower: FiltrationTower) -> list:
    """The block transpositions (``osc.relabellings``) that map each level
    of the tower onto itself: all of them or none.  Checked once per tower
    and cached in ``tower.derived``.

    All of them where the tower is U_k(g) M_0 through its depth (no N_j
    above M_0), both certificates of the layout hold
    (``osc.applier_is_representation``, ``osc.block_permutations_commute``)
    and ``osc.admitted`` keeps every transposition on the rows of M_0,
    each mapped to plus or minus a row of M_0.  Then sigma M_0 = M_0, and
    sigma conjugates pi(U_k(g)) onto itself, so sigma M_k = M_k for every
    level.
    """
    derived = tower.derived
    if "relabellings" not in derived:
        cfg = tower.cfg
        n, n1, n2 = cfg.n, cfg.n1, cfg.n2
        candidates = relabellings(n, block_transpositions(n, n1, n2))
        whole = (
            _generated_by_base(tower)
            and applier_is_representation(n, n1, n2)
            and block_permutations_commute(n, n1, n2)
            and admitted(candidates, [(cfg.space, system_rows(tower)[0][0])]) == candidates
        )
        derived["relabellings"] = candidates if whole else []
    return derived["relabellings"]


def _grading(tower: FiltrationTower, alphabet) -> Weights:
    """The ``osc.Weights`` that split the systems of ``tower`` on the
    unknowns ``alphabet``: ``Weights.ungraded``, one block, where the
    system is not graded.  Decided once per alphabet and cached in
    ``tower.derived``, so the pieces of one alphabet share one instance and
    its memo of orbits.

    Weights need the applier to be a representation and every Cartan symbol
    among the preservers of :func:`system_rows`; orbits need, besides, the
    transpositions that map every level onto itself
    (:func:`_tower_relabellings`), all of them, to map the alphabet onto
    itself: ``osc.admitted`` on the alphabet as a table keyed by its
    generators, with nothing to carry but the keys.  An alphabet with a
    Cartan symbol, which they do not map to a symbol, gets no orbits.
    """
    gradings = tower.derived.setdefault("gradings", {})
    key = tuple(alphabet)
    if key in gradings:
        return gradings[key]
    cfg = tower.cfg
    gens, space = generators(cfg.n), symbol_space(cfg.n)
    if not (
        applier_is_representation(cfg.n, cfg.n1, cfg.n2)
        and system_rows(tower)[1].issuperset(range(cfg.n - 1))  # h_1..h_{n-1} lead gens
    ):
        weights = Weights.ungraded(cfg, space)
    else:
        found = []
        if all(gens[g][0] == "e" for g in alphabet):
            found = _tower_relabellings(tower)
            letters = Table("generators", cfg.space, {gens[g]: {} for g in alphabet})
            if admitted(found, tables=[letters]) != found:
                found = []
        weights = Weights(cfg, space, found)
    gradings[key] = weights
    return weights


def _words_by_weight(weights: Weights, alphabet, p: int) -> dict:
    """The degree-p words on ``alphabet`` (ascending generator indices, in
    ``combinations_with_replacement`` order) by weight: the words of each
    representative weight, in ascending weight order (with no orbits every
    weight is its own representative; in one block, all of them at weight
    0).

    The representative weights of degree d are those of r + wt(g), for r a
    representative of degree d - 1 and g in the alphabet: sigma(r) + wt(g)
    is sigma(r + wt(sigma^-1 g)), and the alphabet is closed under sigma.
    The words of one weight are their first p - 2 letters followed by a
    word of degree min(p, 2) read off a table by weight.
    """
    root = weights.position
    reps = {0}
    for _ in range(p):
        reps = set(map(weights.representative, {r + root[g] for r in reps for g in alphabet}))
    tails: dict = {}
    for word in itertools.combinations_with_replacement(alphabet, min(p, 2)):
        tails.setdefault(sum(root[g] for g in word), []).append(word)
    heads = [
        (head, sum(root[g] for g in head), head[-1] if head else -1)
        for head in itertools.combinations_with_replacement(alphabet, max(p - 2, 0))
    ]
    return {
        w: [
            head + tail
            for head, hw, last in heads
            for tail in tails.get(w - hw, ())
            if tail[0] >= last
        ]
        for w in sorted(reps)
    }


def _stacked_columns(tower, p: int, words: list, rows_by_level, gens):
    """The stacked degree-p system on ``words`` (tuples of ascending
    generator indices): one sparse column per word, in order, stacking
    every residue coordinate, and the first equation id contributed by the
    last level (equations below it form the kmax-1 system, for the
    stabilization comparison).

    ``rows_by_level[k]`` are the rows of level k whose residues modulo
    M_{k+p-1} are constrained.  The words form a trie, walked once per row:
    each edge applies one generator to its parent's image, and a zero image
    prunes the whole subtree.  A leaf whose image has no pivot monomial of
    the target is its own normal form.  Equation ids are numbered as
    residues appear; the kernel does not depend on the numbering, because
    ``kernel_of_columns`` picks its pivot columns greedily in column order,
    so it depends on the null space alone.
    """
    cfg = tower.cfg
    trie: dict = {}  # inner nodes are dicts, a leaf is its column index
    for idx, word in enumerate(words):
        node = trie
        for g in word[:-1]:
            node = node.setdefault(g, {})
        node[word[-1]] = idx
    columns: list = [{} for _ in words]
    n_eqs = last_start = 0
    for k, rows in enumerate(rows_by_level):
        last_start = n_eqs
        if not rows:
            continue
        target = tower.levels[k + p - 1]
        pivots = target.rows.keys()
        for row in rows:
            ids: dict = {}
            stack = [(trie, row)]
            while stack:
                node, img = stack.pop()
                for g, child in node.items():
                    out = apply_generator_terms(cfg, gens[g], img)
                    if not out:
                        continue
                    if type(child) is dict:
                        stack.append((child, out))
                        continue
                    if pivots.isdisjoint(out):
                        res, scale = out, 1
                    else:
                        res, scale = target.reduce_scaled(out)
                    col = columns[child]
                    for m, v in res.items():
                        j = ids.get(m)
                        if j is None:
                            j = ids[m] = len(ids)
                        col[n_eqs + j] = v if scale == 1 else Fraction(v, scale)
            n_eqs += len(ids)
    return columns, last_start


def compute_annihilator_piece(
    tower: FiltrationTower,
    p: int,
    kmax: int,
    known_level_preservers: list[int] | None = None,
) -> AnnihilatorPiece:
    """Exact kernel of {eta of degree p : eta(M_k) in M_{k+p-1}, k <= kmax-p}.

    The system constrains the rows of each N_k of the module lemma
    (:func:`system_rows`) for k <= kmax-p; on a tower that is U_k(g) M_0
    that is one system: the rows of M_0 against the target M_{p-1}.  For
    p >= 2, the symbols of ``known_level_preservers`` (the claimed degree-1
    kernel) that preserve every level are split off: monomials containing
    one are listed in ``coordinate_members`` without being applied, and the
    exact kernel is solved on the remaining "pure" monomials, by weight
    block (:func:`_grading`, :func:`_words_by_weight`).  The columns walked
    are solved at once, and each kernel vector, which lies in one block, is
    filed under the weight of its block.

    A tower that is U_k(g) M_0 through its depth is taken to be so above
    it too, so its levels above the depth contribute no rows and it need
    only reach the target M_{p-1}; a tower with generating rows above M_0
    must reach M_{kmax-1}.

    The piece is stabilized when a kmax-1 system exists (kmax - p >= 1) and
    has a kernel of the same dimension.  On a tower that is U_k(g) M_0 the
    lemma gives both systems the kernel of M_0, so that is kmax - p >= 1.
    """
    cfg = tower.cfg
    need = kmax - 1
    if need > tower.depth and tower.levels and _generated_by_base(tower):
        need = min(p, kmax) - 1
    if need > tower.depth:
        raise ValueError(
            f"tower too shallow: the degree-{p} system at kmax={kmax} needs "
            f"levels up to {need}, the tower has {tower.depth}"
        )
    if kmax < p:
        raise ShallowSystemError(
            f"kmax={kmax} leaves no level k <= kmax-{p} for the degree-{p} system"
        )
    gens = generators(cfg.n)
    rows, preservers = system_rows(tower)
    # levels above the depth contribute no rows (checked just above)
    rows = rows[: kmax - p + 1]
    if not any(rows):
        raise ShallowSystemError(
            f"M_0 is zero and no level k <= kmax-{p} has a generating row: "
            f"the degree-{p} system at kmax={kmax} has no equation"
        )
    rows += [[]] * (kmax - p + 1 - len(rows))
    split = preservers.intersection(known_level_preservers or ()) if p >= 2 else frozenset()
    alphabet = [i for i in range(len(gens)) if i not in split]
    weights = _grading(tower, alphabet)
    by_weight = _words_by_weight(weights, alphabet, p)
    words = [word for block in by_weight.values() for word in block]
    columns, last_start = _stacked_columns(tower, p, words, rows, gens)
    vectors = kernel_of_columns(columns)
    unit = symbol_space(cfg.n).unit
    keys = [sum(unit[g] for g in word) for word in words]
    owner = [w for w, block in by_weight.items() for _word in block]
    blocks: dict = {w: [] for w in by_weight}
    for vec in vectors:
        blocks[owner[max(vec)]].append({keys[i]: c for i, c in vec.items()})
    piece = AnnihilatorPiece(
        degree=p,
        coordinate_members=_SplitMonomials(symbol_space(cfg.n), p, split),
        blocks=blocks,
        weights=weights,
        unknown_count=comb(len(gens) + p - 1, p),
        split_symbols=sorted(split),
    )
    if kmax > p:
        trimmed = [
            {eq: v for eq, v in col.items() if eq < last_start} for col in columns
        ]
        piece.stabilized = trimmed == columns or len(kernel_of_columns(trimmed)) == len(vectors)
    return piece


def project_pure(sym: Poly, mask: int) -> Poly:
    """Drop monomials containing a split symbol, given the split's
    :func:`_split_mask` (the quotient modulo the ideal those symbols
    generate, in coordinates)."""
    return Poly(sym.space, {m: c for m, c in sym.terms.items() if not m & mask})


class _Family(NamedTuple):
    """A predicted family that every permutation inside the blocks maps onto
    itself up to sign: the minors ``ops``, whole families of
    :func:`delta_ops`, the products of the minors ``multiplied`` with each
    generator symbol, and the generator symbols ``symbols`` (indices), each
    at its own weight.  A permutation relabels a minor's rows and columns
    inside their blocks, so it maps a minor to plus or minus a minor of the
    same family (the diagonal entries, Cartan combinations, drop out
    wherever orbits are used: the Cartan symbols are split)."""

    ops: list = ()
    multiplied: list = ()
    symbols: list = ()

    def members(self, piece: AnnihilatorPiece) -> dict:
        """The members of the weights ``piece`` solves, projected by its
        split, by weight: each weight is read off the indices before the
        member is expanded.  The blocks are keyed by the representative
        weights of the pure monomials, so a member of any other weight is
        zero once projected or of a weight that represents no orbit."""
        weights, mask, sp = piece.weights, piece.mask, piece.space
        solved = piece.blocks
        out: dict = {}
        for g in self.symbols:
            w = weights.position[g]
            if w in solved:
                out.setdefault(w, []).append(project_pure(Poly.variable(sp, g), mask))
        for op in self.ops:
            w = weights.minor(op.rows, op.cols)
            if w in solved:
                out.setdefault(w, []).append(op.projected(mask))
        pure = [g for g in range(sp.nvars) if not sp.unit[g] & mask]
        for op in self.multiplied:
            w = weights.minor(op.rows, op.cols)
            proj = None
            for g in pure:
                wg = w + weights.position[g]
                if wg in solved:
                    if proj is None:
                        proj = op.projected(mask)
                    out.setdefault(wg, []).append(proj * Poly.variable(sp, g))
        return out


def _compare_with_prediction(
    piece: AnnihilatorPiece, predicted: _Family, lower: _Family = _Family()
):
    """A solved kernel against a predicted family, modulo ``lower``.

    ``piece`` is solved with the Cartan and off-L root symbols claimed as
    preservers (:func:`_solve`), and both sides are projected by
    ``piece.split_symbols``, the split the module lemma granted: whatever
    was granted, the monomials containing a split symbol are kernel
    members, so the projected spans are equal exactly when the full ones
    are.  Returns the dimension of the pure kernel, the dimension of the
    projected prediction plus ``lower``, and whether that span equals the
    pure kernel plus ``lower``.

    Both :class:`_Family` arguments are compared one representative weight
    at a time, at every degree.  Both sides are sums of weight components,
    and the permutations inside the blocks map each of them onto itself, so
    they are equal exactly when they are equal at every representative
    weight, and each dimension is the sum over orbits of |orbit| times the
    dimension at the representative.  At degree 1 there are no orbits, and
    every predicted symbol is compared at its own weight, or in the one
    block of weight 0 where the system is not graded.
    """
    sp = piece.space
    pred = predicted.members(piece)
    low = lower.members(piece)
    dim_predicted, equal = 0, True
    for w, vectors in piece.blocks.items():  # the members' weights are among them
        if not (vectors or w in pred or w in low):
            continue  # both spans are empty
        computed = echelon_from(sp, itertools.chain(low.get(w, ()), vectors))
        expected = echelon_from(sp, itertools.chain(pred.get(w, ()), low.get(w, ())))
        dim_predicted += piece.weights.orbit_size(w) * expected.dim
        equal = equal and span_equal(computed, expected)
    return piece.pure_dim, dim_predicted, equal


def _solve(tower: FiltrationTower, p: int, kmax: int) -> AnnihilatorPiece:
    """The degree-p piece at kmax, with the Cartan and off-L root symbols
    claimed as preservers.

    Solved once per tower and ``(p, kmax)``, and cached in
    ``tower.derived["pieces"]``: the preservers depend only on the layout,
    and a piece is not changed after it is solved, so every check that
    reads it (the suite's degree-1, degree-2, degree-3 and presentation
    checks on one shared tower, :func:`shared_towers`) reads the same
    kernel."""
    pieces = tower.derived.setdefault("pieces", {})
    piece = pieces.get((p, kmax))
    if piece is None:
        piece = pieces[p, kmax] = compute_annihilator_piece(
            tower, p, kmax, predicted_level_preservers(tower.cfg)
        )
    return piece


def _reads_same_rows(tower: FiltrationTower, p: int, kmax: int) -> bool:
    """Whether :func:`sym_membership` of a degree-p symbol on ``tower`` and
    the degree-p piece at kmax constrain the same rows.

    Both send the rows of N_k into M_{k+p-1}: the membership for
    k <= depth - p + 1, the piece for k <= kmax - p.  They agree when both
    bounds admit M_0 and no N_k between them has a row: always on a tower
    that is U_k(g) M_0, and on a tower of depth kmax - 1.
    """
    top = tower.depth - p + 1
    if top < 0 or kmax < p:
        return False
    lo, hi = sorted((top, kmax - p))
    return not any(system_rows(tower)[0][lo + 1 : hi + 1])


class _Memberships:
    """:func:`sym_membership` of minors and symbols, read off solved pieces.

    Where the degree-p piece reads the same rows as the membership
    (:func:`_reads_same_rows`), a degree-p symbol annihilates exactly when
    its pure part (:func:`project_pure` by the piece's split) lies in the
    kernel: its terms that contain a split symbol annihilate by the module
    lemma, and the kernel vectors span exactly the pure symbols that
    annihilate.  Each weight component is read from the block of its
    representative weight, relabelled by the permutation that sorts its
    weight (``AnnihilatorPiece.holds``).  A minor is read the same way;
    its pure part is expanded from projected entries
    (:func:`minor_symbol`), so its whole symbol is never built.  The
    permutations inside the blocks map the piece onto itself and a minor
    to plus or minus the minor of the relabelled rows and columns, so
    minors of one order type (``Weights.order_type``: per block, the
    numbers of their indices in the rows only, the columns only and both)
    share a verdict, and one is decided per order type.  Every other
    degree goes to :func:`sym_membership` with the whole symbol.

    ``spans`` holds the pieces read, by degree.
    """

    def __init__(self, tower: FiltrationTower, kmax: int, pieces):
        self.tower = tower
        self.spans = {
            piece.degree: piece for piece in pieces if _reads_same_rows(tower, piece.degree, kmax)
        }
        self._minors: dict = {}

    def minor(self, op: DeltaOp):
        piece = self.spans.get(len(op.rows))
        if piece is None:
            return sym_membership(op.sym, self.tower)
        key = len(op.rows), piece.weights.order_type(op.rows, op.cols)
        found = self._minors.get(key)
        if found is None:
            found = self._minors[key] = piece.holds(op.projected(piece.mask))
        return found

    def symbol(self, sym: Poly):
        piece = self.spans.get(sym.total_degree())
        if piece is None:
            return sym_membership(sym, self.tower)
        return piece.holds(sym)


def degree1_report(tower: FiltrationTower, kmax: int) -> dict:
    """Computed degree-1 kernel versus Cartan + off-L root coordinates."""
    if kmax < 2:
        raise ShallowSystemError(
            f"kmax={kmax}: the degree-1 kernel needs kmax >= 2 to compare "
            "against the kmax-1 system for stabilization"
        )
    predicted = predicted_level_preservers(tower.cfg)
    piece = _solve(tower, 1, kmax)
    dim_computed, dim_predicted, equal = _compare_with_prediction(piece, _Family(symbols=predicted))
    gens = generators(tower.cfg.n)
    cartan = sum(1 for i in predicted if gens[i][0] == "h")
    return {
        "piece": piece,
        "dim_computed": dim_computed,
        "dim_predicted": dim_predicted,
        "cartan_part": cartan,
        "root_part": len(predicted) - cartan,
        "equal": equal,
        "stabilized": piece.stabilized,
    }


# ---------------------------------------------------------------------------
# minor operators
# ---------------------------------------------------------------------------


@lru_cache(maxsize=None)
def scaled_entries(n: int, mask: int) -> dict:
    """n times each entry of the generator matrix of sl(n), in the symbol
    algebra, by (row, column), each projected by ``mask``
    (:func:`project_pure`; 0 keeps every term).  Integer coefficients: n
    e_{j,i} off the diagonal, and on it n times the traceless part of the
    diagonal matrix unit at (j, j).  One shared dict per (n, mask), so
    callers must not mutate it.

    The scalar remainder of that unit acts by a constant on the whole
    module, hence contributes only lower filtration terms, which every
    residue quotient kills; dropping it keeps the operator inside the
    symmetric algebra on the trace-zero generators.
    """
    sp = symbol_space(n)
    gmap = gen_index_map(n)
    out = {}
    for j in range(1, n + 1):
        for i in range(1, n + 1):
            if j != i:
                terms = {sp.unit[gmap[("e", j, i)]]: n}
            else:
                terms = {}
                for r in range(1, n):
                    c = (1 if r >= j else 0) * n - r
                    if c:
                        terms[sp.unit[gmap[("h", r)]]] = c
            out[j, i] = project_pure(Poly(sp, terms), mask)
    return out


def _divided(p: Poly, d: int) -> Poly:
    """p / d, keeping an int coefficient wherever the quotient is one."""
    out = {}
    for m, c in p.terms.items():
        q, r = divmod(c, d)
        out[m] = Fraction(c, d) if r else q
    return Poly(p.space, out)


def minor_symbol(cfg: Config, rows, cols, mask: int = 0) -> Poly:
    """The t-minor of the generator matrix with the given rows/columns,
    expanded into the symbol algebra (diagonal entries become Cartan
    combinations) and projected by ``mask`` (:func:`project_pure`; 0, the
    default, keeps every term).

    Setting the split symbols to zero is a ring homomorphism, so the
    projection of the minor is the minor of the projected entries, and
    that is what is expanded: with the Cartan symbols split, the diagonal
    entries drop out and every entry left is one symbol or zero.  The
    determinant of the integer matrix n * entries is expanded, and each of
    its terms divided by n^t once at the end."""
    entries = scaled_entries(cfg.n, mask)
    sub = [[entries[j, i] for i in cols] for j in rows]
    return _divided(determinant(symbol_space(cfg.n), sub), cfg.n ** len(rows))


class DeltaOp:
    """A 2x2 or 3x3 minor operator; its symbol polynomial, whole or
    projected, is expanded when first read."""

    def __init__(self, cfg: Config, rows: tuple, cols: tuple):
        self.cfg, self.rows, self.cols = cfg, rows, cols
        self._projected: dict = {}

    @property
    def sym(self) -> Poly:
        """The whole minor symbol."""
        return self.projected(0)

    def projected(self, mask: int) -> Poly:
        """The minor symbol projected by ``mask`` (:func:`minor_symbol`)."""
        out = self._projected.get(mask)
        if out is None:
            out = self._projected[mask] = minor_symbol(self.cfg, self.rows, self.cols, mask)
        return out

    def label(self) -> str:
        return f"D[{','.join(map(str, self.rows))};{','.join(map(str, self.cols))}]"


def delta_ops(cfg: Config, kind: str) -> list[DeltaOp]:
    """Deterministic enumeration of a minor-operator family.

    Kinds: "minor2-L1" (rows J2, cols J1), "minor2-L2" (rows J3, cols J2),
    "minor3" (rows J2 u J3, cols J1 u J2), "minor3-J3J1" (rows J3, cols
    J1).  Identically-zero operators (repeated rows/cols cannot happen;
    single-column blocks give empty lists) are simply absent.  No symbol
    is expanded here (see :class:`DeltaOp`).
    """
    if kind == "minor2-L1":
        rows, cols, t = list(cfg.J2), list(cfg.J1), 2
    elif kind == "minor2-L2":
        rows, cols, t = list(cfg.J3), list(cfg.J2), 2
    elif kind == "minor3":
        rows, cols, t = list(cfg.J2) + list(cfg.J3), list(cfg.J1) + list(cfg.J2), 3
    elif kind == "minor3-J3J1":
        rows, cols, t = list(cfg.J3), list(cfg.J1), 3
    else:
        raise ValueError(f"unknown minor family {kind!r}")
    out = []
    for rsub in itertools.combinations(sorted(rows), t):
        for csub in itertools.combinations(sorted(cols), t):
            out.append(DeltaOp(cfg, rsub, csub))
    return out


def sym_membership(sym: Poly, tower: FiltrationTower):
    """eta(M_k) in M_{k + deg - 1} on every level the tower affords.

    Levels run over k <= depth - deg + 1 (the deepest level whose target
    exists), on the rows of each N_k of the module lemma
    (:func:`system_rows`): the rows of M_0 alone on a tower that is
    U_k(g) M_0.  Terms containing a generator that preserves every level
    annihilate, so only the rest, the pure part, is applied.  The zero
    operator annihilates everything.  Returns None when the tower affords
    no level at all, and raises ``ValueError`` on a tower that is not
    g-stable, whatever the symbol.
    """
    rows_by_level, _ = system_rows(tower)
    if not sym:
        return True
    p = sym.total_degree()
    cfg = tower.cfg
    gens = generators(cfg.n)
    top = tower.depth - p + 1
    if top < 0:
        return None
    words = sym_words(project_pure(sym, tower.derived["preserver-mask"]))
    for k, rows in enumerate(rows_by_level[: top + 1]):
        target = tower.levels[k + p - 1]
        for row in rows:
            img = apply_sym(cfg, words, row, gens)
            if img and not target.contains(img):
                return False
    return True


# ---------------------------------------------------------------------------
# degree-2 and degree-3 structure checks
# ---------------------------------------------------------------------------


def degree2_families(cfg: Config) -> dict:
    """Predicted degree-2 content and power claims per sign case."""
    l1, l2 = cfg.l1, cfg.l2
    fam: dict = {"direct": [], "powers": []}
    d1 = delta_ops(cfg, "minor2-L1")
    d2 = delta_ops(cfg, "minor2-L2")
    if l1 <= 0 and l2 <= 0:
        fam["direct"] = d1 + d2
    elif l1 <= 0 < l2:
        fam["direct"] = d2
        fam["powers"] = [(op, l2 + 1) for op in d1]
    elif l2 <= 0 < l1:
        fam["direct"] = d1
        fam["powers"] = [(op, l1 + 1) for op in d2]
    else:
        fam["direct"] = []
        fam["powers"] = [(op, l2 + 1) for op in d1]
    return fam


def verify_degree2(tower: FiltrationTower, kmax: int, i1=None) -> dict:
    """Membership of the predicted minor family (and its powers), plus
    two-sided exactness of the computed degree-2 kernel modulo the
    degree-1 ideal.

    The direct minors' memberships are read off the solved degree-2 piece
    where it reads the membership's rows (:class:`_Memberships`); each
    power, of a degree no piece is solved at, is applied by
    :func:`sym_membership`."""
    cfg = tower.cfg
    if i1 is None:
        i1 = degree1_report(tower, kmax)
    fam = degree2_families(cfg)
    piece = _solve(tower, 2, kmax)
    members = _Memberships(tower, kmax, [piece])
    membership = [
        {"op": op.label(), "in_kernel": members.minor(op)} for op in fam["direct"]
    ]
    power_membership = []
    for op, e in fam["powers"]:
        powered = op.sym ** e
        deg = 2 * e
        entry = {"op": f"{op.label()}^{e}", "degree": deg}
        if not powered:
            entry["in_kernel"] = True
            entry["vacuous"] = True
        else:
            got = sym_membership(powered, tower)
            if got is None:
                entry["in_kernel"] = None
                entry["skipped"] = "tower too shallow"
            else:
                entry["in_kernel"] = got
        power_membership.append(entry)
    dim_computed, dim_predicted, exact = _compare_with_prediction(piece, _Family(fam["direct"]))
    return {
        "piece": piece,
        "membership": membership,
        "power_membership": power_membership,
        "dim_pure_computed": dim_computed,
        "dim_pure_predicted": dim_predicted,
        "exact_mod_degree1": exact,
        "all_member": all(m["in_kernel"] for m in membership)
        and all(m["in_kernel"] is not False for m in power_membership),
        "i1_equal": i1["equal"],
    }


def classify_minor3(cfg: Config, rows, cols) -> int:
    """Case number (1-6) of a 3x3 minor-operator index pair.

    With sorted rows in J2 u J3 and columns in J1 u J2: case 1 when the
    smallest row and the largest column are not both in J2 (the operator
    vanishes identically); cases 2-5 by the counts of J2 rows and J1
    columns; case 6 when all rows or all columns sit in J2.
    """
    jn2 = sum(1 for j in rows if j in cfg.J2)
    in1 = sum(1 for i in cols if i in cfg.J1)
    if jn2 == 0 or in1 == 3:
        return 1
    if jn2 == 3 or in1 == 0:
        return 6
    if jn2 == 1 and in1 == 2:
        return 2
    if jn2 == 2 and in1 == 2:
        return 3
    if jn2 == 1 and in1 == 1:
        return 4
    return 5


def sym_form(cfg: Config, sym: Poly) -> dict:
    """The normal-ordered Weyl form of a symbol operator, in the factor
    order of :func:`apply_sym_monomial`: the word i_1 <= ... <= i_p is the
    product F_{i_p} ... F_{i_1} of the generators' forms."""
    sp = cfg.space
    gens = generators(cfg.n)
    forms = weyl_forms(cfg.n, cfg.n1, cfg.n2)
    out: dict = {}
    for key, c in sym_words(sym):
        word = {(0, 0): 1}
        for idx in key:
            word = weyl_mul(sp, forms[gens[idx]], word)
        axpy(out, c, word)
    return out


def operator_identically_zero(cfg: Config, sym: Poly) -> bool:
    """Whether the symbol operator is zero as a Weyl-algebra element, which
    is exactly when it kills every polynomial."""
    return not sym_form(cfg, sym)


def verify_degree3(tower: FiltrationTower, kmax: int, i1=None) -> dict:
    """Case-by-case checks of the 3x3 minor family, plus degree-3
    exactness modulo the lower ideal (degree-1 ideal and minor2 multiples).

    Every case-1 minor must be zero as a Weyl-algebra element
    (:func:`operator_identically_zero`, on the whole symbol), an identity
    at every degree; each other case is checked by the membership of one
    representative, read off the solved degree-3 piece where it reads the
    membership's rows (:class:`_Memberships`)."""
    cfg = tower.cfg
    if i1 is None:
        i1 = degree1_report(tower, kmax)
    piece = _solve(tower, 3, kmax)
    members = _Memberships(tower, kmax, [piece])
    ops = delta_ops(cfg, "minor3")
    by_case: dict = {c: [] for c in range(1, 7)}
    for op in ops:
        by_case[classify_minor3(cfg, op.rows, op.cols)].append(op)
    case_results = []
    for c in range(1, 7):
        sel = by_case[c]
        if not sel:
            case_results.append({"case": c, "count": 0, "status": "vacuous"})
            continue
        if c == 1:
            ok = all(operator_identically_zero(cfg, op.sym) for op in sel)
            case_results.append(
                {
                    "case": 1,
                    "count": len(sel),
                    "status": "pass" if ok else "fail",
                    "check": "identically zero as a Weyl-algebra element",
                }
            )
        else:
            ok = members.minor(sel[0])
            case_results.append(
                {
                    "case": c,
                    "count": len(sel),
                    "checked": 1,
                    "status": "pass" if ok else "fail",
                }
            )
    minor2 = delta_ops(cfg, "minor2-L1") + delta_ops(cfg, "minor2-L2")
    dim_computed, dim_predicted, exact = _compare_with_prediction(
        piece, _Family(ops), lower=_Family(multiplied=minor2)
    )
    return {
        "piece": piece,
        "cases": case_results,
        "dim_pure_computed": dim_computed,
        "dim_pure_predicted": dim_predicted,
        "exact_mod_lower": exact,
        "all_cases_pass": all(r["status"] in ("pass", "vacuous") for r in case_results),
        "i1_equal": i1["equal"],
    }


# ---------------------------------------------------------------------------
# the associated-variety presentation
# ---------------------------------------------------------------------------


def _theorem_regime(cfg: Config) -> str:
    if cfg.n1 == cfg.n2:
        return "equal-blocks"
    if cfg.l1 <= 0 or cfg.l2 <= 0:
        if degree2_families(cfg)["powers"]:
            raise OutOfTheoremError(
                f"{cfg.short()}: a 2x2 minor of the positive-sign block is "
                "certified only through its power; not implemented as a "
                "two-sided degree check"
            )
        return "negative"
    if cfg.n2 != cfg.n:
        raise OutOfTheoremError(f"{cfg.short()} is outside the presentation theorem")
    refuse_wide_positive_middle(cfg)
    return "positive-full"


def refuse_wide_positive_middle(cfg: Config) -> None:
    """Raise :class:`OutOfTheoremError` on a positive layout (l1, l2 > 0)
    with n2 = n and a middle block wider than one index, where the Cartan
    plus off-L degree-1 prediction does not hold and the minors are
    certified only through their powers."""
    if cfg.l1 > 0 and cfg.l2 > 0 and cfg.n2 == cfg.n and cfg.n1 + 1 < cfg.n2:
        raise OutOfTheoremError(
            "positive regime with a middle block wider than one is "
            "certified only through minor powers; not implemented as a "
            "two-sided degree check"
        )


def verify_variety_presentation(cfg: Config, kmax: int) -> dict:
    """The full presentation check for the associated variety.

    (i) the degree-1 kernel equals Cartan + off-L coordinates;
    (ii) every substituted generator of the predicted determinantal
         intersection annihilates (residue zero at all checked levels);
    (iii) conversely the computed degree-2/3 kernels lie in the predicted
         ideal at those degrees.

    Degree 1 needs kmax >= 2 and the degree-3 kernel kmax >= 3.  Every
    check runs on :func:`presentation_tower`: where the explicit tower is
    U_k(g) M_0, each degree-p system is M_0 against M_{p-1} and a deeper
    kmax reads no further level; elsewhere the tower reaches kmax - 1.
    Each piece is solved once, and (ii) is read off the piece of the
    generator's degree (:class:`_Memberships`): the 3x3 minors at kmax 2,
    with no degree-3 piece, are applied by :func:`sym_membership`.

    Diagonal matrix entries inside the J2 x J2 block have no root-vector
    counterpart; they substitute to Cartan combinations, which the
    degree-1 comparison already constrains to zero.
    """
    regime = _theorem_regime(cfg)
    tower = presentation_tower(cfg, kmax)
    i1 = degree1_report(tower, kmax)
    checks: list[dict] = []
    checks.append(
        {
            "name": "degree1-kernel-exact",
            "pass": i1["equal"] and i1["stabilized"],
            "dims": {
                "computed": i1["dim_computed"],
                "cartan": i1["cartan_part"],
                "off_L_roots": i1["root_part"],
            },
        }
    )

    d2 = _solve(tower, 2, kmax)
    d3 = _solve(tower, 3, kmax) if kmax >= 3 else None
    members = _Memberships(tower, kmax, [p for p in (i1["piece"], d2, d3) if p is not None])

    minor2 = degree2_families(cfg)["direct"]  # empty outside the negative regime
    minor3, coords = [], []
    if regime == "negative":
        minor3 = delta_ops(cfg, "minor3")
        gmap = gen_index_map(cfg.n)
        sp = symbol_space(cfg.n)
        coords = [
            Poly.variable(sp, gmap[("e", j, i)]) for j in cfg.J2 for i in cfg.J2 if j != i
        ]
    elif regime == "equal-blocks":
        minor3 = delta_ops(cfg, "minor3-J3J1")

    member_results = [
        {"generator": op.label(), "in_kernel": members.minor(op)} for op in minor3 + minor2
    ]
    member_results += [
        {"generator": f"coord-J2xJ2-{idx}", "in_kernel": members.symbol(c)}
        for idx, c in enumerate(coords)
    ]
    checks.append(
        {
            "name": "substituted-generators-annihilate",
            "pass": all(m["in_kernel"] for m in member_results),
            "count": len(member_results),
        }
    )

    dim_computed, dim_predicted, equal = _compare_with_prediction(d2, _Family(minor2))
    checks.append(
        {
            "name": "degree2-kernel-inside-ideal",
            "pass": equal,
            "dims": {"computed_pure": dim_computed, "predicted_pure": dim_predicted},
        }
    )
    stab = {"degree2": d2.stabilized}
    if d3 is not None:
        dim_computed, dim_predicted, equal = _compare_with_prediction(
            d3, _Family(minor3, multiplied=minor2)
        )
        checks.append(
            {
                "name": "degree3-kernel-matches-ideal",
                "pass": equal,
                "dims": {"computed_pure": dim_computed, "predicted_pure": dim_predicted},
            }
        )
        stab["degree3"] = d3.stabilized

    return {
        "cfg": cfg.short(),
        "regime": regime,
        "checks": checks,
        "member_results": member_results,
        "stabilized": stab,
        "overall": all(c["pass"] for c in checks),
    }


# ---------------------------------------------------------------------------
# growth of the Hilbert sequence
# ---------------------------------------------------------------------------


def gkdim_estimate(tower: FiltrationTower) -> tuple[int, bool]:
    """Least d with the (d+1)-st finite difference of the level dimensions
    eventually zero; the flag is set when at least two trailing zero
    differences witness it."""
    dims = tower.dims
    if len(dims) < 7:
        raise ValueError("need tower depth at least 6")
    seq = dims
    for d in range(len(dims) - 1):
        seq = [seq[i + 1] - seq[i] for i in range(len(seq) - 1)]
        if not seq:
            break
        trailing = 0
        for v in reversed(seq):
            if v != 0:
                break
            trailing += 1
        if trailing >= 1:
            return d, trailing >= 2
    return len(dims) - 1, False


def expected_gkdim(cfg: Config) -> int:
    """The closed-form dimension of the associated variety by case."""
    n, n1, n2 = cfg.n, cfg.n1, cfg.n2
    if n2 != n and n1 != n2:
        return 2 * n - 3
    if 1 < n1 == n2 < n - 1:
        return 2 * n - 4
    return n - 1
