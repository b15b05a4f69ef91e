"""Degree-p annihilator kernels of the associated graded module.

Working over the symmetric algebra on the n^2 - 1 generator symbols,
``poly.symbol_space(n)``, a degree-p element annihilates the graded module
when its action sends every filtration level M_k into M_{k+p-1}.  Every
symbol operator is a ``Poly`` of that space.  Monomials act through a fixed
factor ordering (descending in the generator enumeration, rightmost factor
first): the smallest generator index, the most significant packed field,
acts first.  The residue modulo the lower level is ordering-independent,
which is asserted by test rather than assumed.

The degree-1 kernel is computed as an honest stacked linear system.  For
p >= 2 the computation splits off the claimed level preservers (Cartan and
off-L root symbols) by a lemma whose hypotheses are checked at run time
once per tower, by a :class:`SplitCertificate`:

  * each certified preserver s maps M_j into M_j for every j <= top;
  * every generator maps M_j into M_{j+1} for every j < top (g-stability).

By induction on p, any composition of p generators containing a certified
s then maps M_k into M_{k+p-1} whenever k + p - 1 <= top, in any factor
order.  Monomials containing such an s ("coordinate members") therefore
annihilate without being applied, and the exact kernel is solved on the
remaining "pure" monomials only.  A claimed preserver that fails its check
is not split off, and without g-stability nothing is, so the result always
equals the full kernel.

Every check of a computed kernel against a predicted family goes through
one comparison, :func:`_compare_with_prediction`.  It quotients both sides
by the split the certificate granted (``piece.split_symbols``), not by the
claimed preservers: the monomials containing a granted symbol are kernel
members, so the quotients are equal exactly when the full spans are.  The
degree-2 prediction of each sign case comes from one table,
:func:`degree2_families`; a configuration where a 2x2 minor annihilates
only through its power has no two-sided degree check and is reported as
outside the presentation theorem.

Certificates are bounded: a kernel is certified up to the checked level
kmax, with a stabilization flag comparing against the kmax-1 system.  A
system too shallow to decide anything (no level carries an equation, or
a degree-1 system with no kmax-1 system to compare against) raises
:class:`ShallowSystemError` instead of returning a vacuous kernel.
"""

from __future__ import annotations

import itertools
from collections.abc import Iterator
from dataclasses import dataclass, field
from fractions import Fraction
from math import comb

from .filtration import FiltrationTower, build_tower
from .linalg import EchelonBasis, kernel_of_columns, span_equal
from .osc import Config, apply_generator_terms, generators
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


def gen_index_map(cfg: Config) -> dict:
    return {g: idx for idx, g in enumerate(generators(cfg.n))}


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


def act(sym: Poly, tower: FiltrationTower, k: int) -> list[Poly]:
    """Residues of the action on level k rows, modulo level k + deg - 1.

    Rows are taken in decreasing pivot order; residues are exact normal
    forms (empty residue = the row is annihilated in the graded module).
    """
    p = sym.total_degree()
    if k + p - 1 > tower.depth:
        raise ValueError("tower too shallow for this action")
    cfg = tower.cfg
    gens = generators(cfg.n)
    words = sym_words(sym)
    target = tower.levels[k + p - 1]
    out = []
    for piv in sorted(tower.levels[k].rows, reverse=True):
        img = apply_sym(cfg, words, tower.levels[k].rows[piv], gens)
        out.append(target.reduce(Poly(cfg.space, img)))
    return out


def _level_rows(tower: FiltrationTower, k: int) -> list:
    """Rows of level k whose pivot is new at level k (deterministic order).

    Together with level k-1 these span level k, and constraints on the
    lower level are already implied, so they are the only rows a stacked
    annihilator system needs.
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


@dataclass
class AnnihilatorPiece:
    """Exact kernel of the degree-p graded action, certified up to kmax.

    ``coordinate_members`` are the monomials containing a preserver in
    ``split_symbols``, as a sized view that lists them when iterated; each
    annihilates by the split lemma, whose hypotheses the tower's
    :class:`SplitCertificate` checked.
    ``kernel_vectors`` span the rest of the kernel over the remaining
    monomials.  Certification is an over-approximation statement:
    membership is verified only for levels up to ``kmax_checked``.
    """

    degree: int
    coordinate_members: _SplitMonomials | list = field(default_factory=list)
    kernel_vectors: list = field(default_factory=list)
    kmax_checked: int = 0
    stabilized: bool = False
    unknown_count: int = 0
    split_symbols: list = field(default_factory=list)

    @property
    def dim(self) -> int:
        return len(self.coordinate_members) + len(self.kernel_vectors)

    def basis_sym(self) -> list[dict]:
        out = [{key: 1} for key in self.coordinate_members]
        out.extend(dict(v) for v in self.kernel_vectors)
        return out


@dataclass
class SplitCertificate:
    """The two run-time facts behind the coordinate/pure split.

    For one tower and one set of claimed level preservers it records the
    first level j at which a claimed s fails s(M_j) <= M_j, and the first
    level j at which some generator fails g(M_j) <= M_{j+1}, over the
    levels 0..``checked`` examined so far.  Each level is checked on its
    new-pivot rows only; with the facts at level j-1 they cover all of M_j.
    Obtain instances through :func:`split_certificate`, which caches them
    on the tower.
    """

    claimed: frozenset
    checked: int = -1
    failed_at: dict = field(default_factory=dict)  # claimed symbol -> level
    unstable_at: int | None = None

    def preservers(self, top: int) -> list[int]:
        """Claimed symbols preserving M_0..M_top, or none at all when
        g-stability fails below top."""
        if top > self.checked:
            raise ValueError(f"certificate checked only through level {self.checked}")
        if self.unstable_at is not None and self.unstable_at < top:
            return []
        return sorted(s for s in self.claimed if self.failed_at.get(s, top + 1) > top)


def _certify_level(tower: FiltrationTower, cert: SplitCertificate, j: int) -> None:
    """Record the facts of level j that are still undecided in ``cert``."""
    cfg = tower.cfg
    here = tower.levels[j]
    above = None
    if cert.unstable_at is None and j < tower.depth:
        above = tower.levels[j + 1]
    live = set(cert.claimed - cert.failed_at.keys())
    if above is None and not live:
        return
    gens = generators(cfg.n)
    for row in _level_rows(tower, j):
        for idx, g in enumerate(gens):
            claimed = idx in live
            if not claimed and above is None:
                continue
            img = apply_generator_terms(cfg, g, row)
            if not img:
                continue
            if claimed:
                if here.contains(img):
                    continue  # then it lies in M_{j+1} as well
                cert.failed_at[idx] = j
                live.discard(idx)
            if above is not None and not above.contains(img):
                cert.unstable_at = j
                above = None


def split_certificate(tower: FiltrationTower, claimed, top: int) -> SplitCertificate:
    """The tower's certificate for ``claimed``, checked through level ``top``.

    Levels already checked for the same claim are not checked again.
    """
    claimed = frozenset(claimed)
    cert = tower.derived.setdefault(("split-certificate", claimed), SplitCertificate(claimed))
    while cert.checked < top:
        cert.checked += 1
        _certify_level(tower, cert, cert.checked)
    return cert


def _stacked_columns(tower, alphabet, p, levels, gens):
    """The stacked degree-p system over the monomials on ``alphabet``.

    Returns the packed monomial keys in ``combinations_with_replacement``
    order of ``alphabet``, one sparse column per key stacking every residue
    coordinate, and the first equation id contributed by the last level
    (equations below it form the kmax-1 system, for the stabilization
    comparison).  The keys form a trie, walked once per row: each edge
    applies one generator to its parent's image and adds its packed unit
    to the key, and a zero image prunes the whole subtree.  Equation ids
    are numbered as residues appear; the kernel does not depend on the
    numbering, because ``kernel_of_columns`` picks its pivot columns
    greedily in column order.
    """
    cfg = tower.cfg
    sp = symbol_space(cfg.n)
    unit = sp.unit
    monos = [
        sum(unit[g] for g in combo)
        for combo in itertools.combinations_with_replacement(alphabet, p)
    ]
    columns: dict = {key: {} for key in monos}
    full = p << sp.dshift  # the keys below it have degree < p
    n_eqs = last_start = 0
    for k in levels:
        last_start = n_eqs
        target = tower.levels[k + p - 1]
        for row in _level_rows(tower, k):
            eqs: dict = {}
            stack = [(0, row, 0)]
            while stack:
                prefix, img, start = stack.pop()
                for pos in range(start, len(alphabet)):
                    out = apply_generator_terms(cfg, gens[alphabet[pos]], img)
                    if not out:
                        continue
                    key = prefix + unit[alphabet[pos]]
                    if key < full:
                        stack.append((key, out, pos))
                        continue
                    res, scale = target.reduce_scaled(out)
                    col = columns[key]
                    for m, v in res.items():
                        eq = eqs.get(m)
                        if eq is None:
                            eq = eqs[m] = n_eqs
                            n_eqs += 1
                        col[eq] = Fraction(v, scale) if scale != 1 else v
    return monos, list(columns.values()), last_start


def compute_annihilator_piece(
    tower: FiltrationTower,
    p: int,
    kmax: int,
    known_level_preservers: list[int] | None = None,
) -> AnnihilatorPiece:
    """Exact kernel of {eta of degree p : eta(M_k) in M_{k+p-1}, k <= kmax-p}.

    For p >= 2, ``known_level_preservers`` (the claimed degree-1 kernel
    symbols) are split off as far as the tower's certificate through level
    kmax-1 allows: a claimed symbol that fails its own check is kept in
    the solve, and without g-stability every symbol is.  Monomials
    containing a split symbol are listed in ``coordinate_members`` without
    being applied; the exact kernel is solved on the remaining "pure"
    monomials, which with an empty split are all of them.
    """
    cfg = tower.cfg
    if kmax - 1 > tower.depth:
        raise ValueError("tower too shallow: need levels up to kmax-1")
    if kmax < p:
        raise ShallowSystemError(
            f"kmax={kmax} leaves no level k <= kmax-{p} for the degree-{p} system"
        )
    gens = generators(cfg.n)
    split: set = set()
    if known_level_preservers and p >= 2:
        cert = split_certificate(tower, known_level_preservers, kmax - 1)
        split = set(cert.preservers(kmax - 1))
    alphabet = [i for i in range(len(gens)) if i not in split]
    levels = list(range(kmax - p + 1))
    monos, columns, last_start = _stacked_columns(tower, alphabet, p, levels, gens)
    vectors = kernel_of_columns(columns)
    piece = AnnihilatorPiece(
        degree=p,
        coordinate_members=_SplitMonomials(symbol_space(cfg.n), p, frozenset(split)),
        kernel_vectors=[{monos[i]: c for i, c in vec.items()} for vec in vectors],
        kmax_checked=kmax,
        unknown_count=comb(len(gens) + p - 1, p),
        split_symbols=sorted(split),
    )
    if len(levels) > 1:
        trimmed = [
            {eq: v for eq, v in col.items() if eq < last_start} for col in columns
        ]
        piece.stabilized = len(kernel_of_columns(trimmed)) == len(vectors)
    return piece


def project_pure(sym: Poly, split) -> Poly:
    """Drop monomials containing a split symbol (the quotient modulo the
    ideal those symbols generate, in coordinates)."""
    mask = _split_mask(sym.space, split)
    return Poly(sym.space, {m: c for m, c in sym.terms.items() if not m & mask})


def _pure_span(space: Space, syms, split) -> EchelonBasis:
    basis = EchelonBasis(space)
    for s in syms:
        proj = project_pure(s, split)
        if proj:
            basis.insert(proj)
    return basis


def _compare_with_prediction(
    tower: FiltrationTower, p: int, kmax: int, predicted, lower=()
):
    """The degree-p kernel at kmax against a predicted family, modulo ``lower``.

    The kernel is solved with the Cartan and off-L root symbols claimed as
    preservers, and both sides are projected by ``piece.split_symbols``,
    the split its certificate granted: whatever the certificate decided,
    the monomials containing a split symbol are kernel members, so the
    projected spans are equal exactly when the full ones are.  Returns the
    piece, the dimension of its pure kernel, the dimension of the projected
    prediction plus ``lower``, and whether that span equals the pure kernel
    plus ``lower``.
    """
    piece = compute_annihilator_piece(tower, p, kmax, predicted_level_preservers(tower.cfg))
    sp = symbol_space(tower.cfg.n)
    split = piece.split_symbols
    computed = _pure_span(sp, lower, split)
    for v in piece.kernel_vectors:
        computed.insert(v)
    expected = _pure_span(sp, itertools.chain(predicted, lower), split)
    # kernel vectors are independent, so their count is the pure dimension
    return piece, len(piece.kernel_vectors), expected.dim, span_equal(computed, expected)


def degree1_report(tower: FiltrationTower, kmax: int) -> dict:
    """Computed degree-1 kernel versus Cartan + off-L root coordinates."""
    if kmax < 2:
        raise ShallowSystemError(
            f"kmax={kmax}: the degree-1 kernel needs kmax >= 2 to compare "
            "against the kmax-1 system for stabilization"
        )
    predicted = predicted_level_preservers(tower.cfg)
    sp = symbol_space(tower.cfg.n)
    piece, dim_computed, dim_predicted, equal = _compare_with_prediction(
        tower, 1, kmax, [Poly.variable(sp, i) for i in predicted]
    )
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


def cartan_combination(cfg: Config, j: int) -> Poly:
    """Symbol of the traceless part of the diagonal matrix unit at (j, j).

    The scalar remainder acts by a constant on the whole module, hence
    contributes only lower filtration terms, which every residue quotient
    kills; dropping it keeps the operator inside the symmetric algebra on
    the trace-zero generators.
    """
    sp = symbol_space(cfg.n)
    gmap = gen_index_map(cfg)
    out: dict = {}
    for r in range(1, cfg.n):
        c = Fraction((1 if r >= j else 0) * cfg.n - r, cfg.n)
        if c:
            out[sp.unit[gmap[("h", r)]]] = c
    return Poly(sp, out)


def entry_symbol(cfg: Config, j: int, i: int, gmap: dict) -> Poly:
    if j == i:
        return cartan_combination(cfg, j)
    return Poly.variable(symbol_space(cfg.n), gmap[("e", j, i)])


def minor_symbol(cfg: Config, rows, cols) -> Poly:
    """The t-minor of the generator matrix with the given rows/columns,
    expanded into the symbol algebra (diagonal entries become Cartan
    combinations)."""
    gmap = gen_index_map(cfg)
    entries = [[entry_symbol(cfg, j, i, gmap) for i in cols] for j in rows]
    return determinant(symbol_space(cfg.n), entries)


@dataclass(frozen=True)
class DeltaOp:
    """A 2x2 or 3x3 minor operator, realized as a symbol polynomial."""

    rows: tuple
    cols: tuple
    sym: Poly

    def label(self) -> str:
        return f"D[{','.join(map(str, self.rows))};{','.join(map(str, self.cols))}]"


def delta_ops(cfg: Config, kind: str) -> list[DeltaOp]:
    """Deterministic enumeration of a minor-operator family.

    Kinds: "minor2-L1" (rows J2, cols J1), "minor2-L2" (rows J3, cols J2),
    "minor3" (rows J2 u J3, cols J1 u J2), "minor3-J3J1" (rows J3, cols
    J1).  Identically-zero operators (repeated rows/cols cannot happen;
    single-column blocks give empty lists) are simply absent.
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
            out.append(DeltaOp(rsub, csub, minor_symbol(cfg, rsub, csub)))
    return out


def sym_membership(sym: Poly, tower: FiltrationTower):
    """eta(M_k) in M_{k + deg - 1} on every level the tower affords.

    Levels run over k <= depth - deg + 1 (the deepest level whose target
    exists).  Terms containing a Cartan or off-L root symbol that the
    tower's certificate confirms as a preserver through its full depth
    annihilate by the split lemma, so they are dropped before the rest is
    applied.  Returns None when the tower affords no level at all.
    """
    p = sym.total_degree()
    cfg = tower.cfg
    gens = generators(cfg.n)
    top = tower.depth - p + 1
    if top < 0:
        return None
    cert = split_certificate(tower, predicted_level_preservers(cfg), tower.depth)
    words = sym_words(project_pure(sym, cert.preservers(tower.depth)))
    for k in range(top + 1):
        target = tower.levels[k + p - 1]
        for row in _level_rows(tower, k):
            img = apply_sym(cfg, words, row, gens)
            if img and not target.contains(img):
                return False
    return True


def _generator_multiples(family: list[Poly], cfg: Config) -> Iterator[Poly]:
    """Degree+1 multiples of a family by every generator symbol, each
    built when it is read."""
    sp = symbol_space(cfg.n)
    symbols = [Poly.variable(sp, idx) for idx in range(sp.nvars)]
    return (s * g for s in family for g in symbols)


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
    degree-1 ideal."""
    cfg = tower.cfg
    if i1 is None:
        i1 = degree1_report(tower, kmax)
    fam = degree2_families(cfg)
    membership = []
    for op in fam["direct"]:
        membership.append(
            {"op": op.label(), "in_kernel": sym_membership(op.sym, tower)}
        )
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
    piece, dim_computed, dim_predicted, exact = _compare_with_prediction(
        tower, 2, kmax, [op.sym for op in fam["direct"]]
    )
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


def operator_identically_zero(cfg: Config, sym: Poly, maxdeg: int) -> bool:
    """Check an operator identity: zero on every monomial up to maxdeg."""
    gens = generators(cfg.n)
    words = sym_words(sym)
    for m in monomials(cfg.space, range(maxdeg + 1)):
        if apply_sym(cfg, words, {m: 1}, gens):
            return False
    return True


def verify_degree3(
    tower: FiltrationTower, kmax: int, identity_maxdeg: int = 4, i1=None
) -> dict:
    """Case-by-case checks of the 3x3 minor family, one representative per
    nonvanishing case, plus degree-3 exactness modulo the lower ideal
    (degree-1 ideal and minor2 multiples)."""
    cfg = tower.cfg
    if i1 is None:
        i1 = degree1_report(tower, kmax)
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
            ok = all(
                operator_identically_zero(cfg, op.sym, identity_maxdeg)
                for op in sel
            )
            case_results.append(
                {
                    "case": 1,
                    "count": len(sel),
                    "status": "pass" if ok else "fail",
                    "check": f"identically zero on monomials of degree <= {identity_maxdeg}",
                }
            )
        else:
            ok = sym_membership(sel[0].sym, tower)
            case_results.append(
                {
                    "case": c,
                    "count": len(sel),
                    "checked": 1,
                    "status": "pass" if ok else "fail",
                }
            )
    minor2 = delta_ops(cfg, "minor2-L1") + delta_ops(cfg, "minor2-L2")
    piece, dim_computed, dim_predicted, exact = _compare_with_prediction(
        tower, 3, kmax, [op.sym for op in ops],
        lower=list(_generator_multiples([op.sym for op in minor2], cfg)),
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
    if cfg.n1 + 1 < cfg.n2:
        raise OutOfTheoremError(
            "positive regime with a middle block wider than one is "
            "certified only through minor powers; not implemented as a "
            "two-sided degree check"
        )
    return "positive-full"


def verify_variety_presentation(cfg: Config, kmax: int) -> dict:
    """The full presentation check for the associated variety.

    (i) the degree-1 kernel equals Cartan + off-L coordinates;
    (ii) every substituted generator of the predicted determinantal
         intersection annihilates (residue zero at all checked levels);
    (iii) conversely the computed degree-2/3 kernels lie in the predicted
         ideal at those degrees.

    Diagonal matrix entries inside the J2 x J2 block have no root-vector
    counterpart; they substitute to Cartan combinations, which the
    degree-1 comparison already constrains to zero.
    """
    regime = _theorem_regime(cfg)
    tower = build_tower(cfg, kmax, "explicit")
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

    minor2 = degree2_families(cfg)["direct"]  # empty outside the negative regime
    minor3, coords = [], []
    if regime == "negative":
        minor3 = delta_ops(cfg, "minor3")
        gmap = gen_index_map(cfg)
        sp = symbol_space(cfg.n)
        coords = [
            Poly.variable(sp, gmap[("e", j, i)]) for j in cfg.J2 for i in cfg.J2 if j != i
        ]
    elif regime == "equal-blocks":
        minor3 = delta_ops(cfg, "minor3-J3J1")
    # the symbol families are generated as they are read, so none is held
    # while the kernels are solved
    predicted2 = [op.sym for op in minor2]
    substituted = itertools.chain(
        ((op.label(), op.sym) for op in minor3 + minor2),
        ((f"coord-J2xJ2-{idx}", c) for idx, c in enumerate(coords)),
    )

    member_results = []
    for label, sym in substituted:
        ok = sym_membership(sym, tower)
        member_results.append({"generator": label, "in_kernel": ok})
    checks.append(
        {
            "name": "substituted-generators-annihilate",
            "pass": all(m["in_kernel"] for m in member_results),
            "count": len(member_results),
        }
    )

    d2, dim_computed, dim_predicted, equal = _compare_with_prediction(
        tower, 2, kmax, predicted2
    )
    checks.append(
        {
            "name": "degree2-kernel-inside-ideal",
            "pass": equal,
            "dims": {"computed_pure": dim_computed, "predicted_pure": dim_predicted},
        }
    )
    stab = {"degree2": d2.stabilized}
    if kmax >= 3:
        predicted3 = itertools.chain(
            (op.sym for op in minor3), _generator_multiples(predicted2, cfg)
        )
        d3, dim_computed, dim_predicted, equal = _compare_with_prediction(
            tower, 3, kmax, predicted3
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
