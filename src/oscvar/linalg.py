"""Fraction-free exact linear algebra over spans of sparse polynomials.

An :class:`EchelonBasis` keeps a row-echelon presentation of a polynomial
span: one row per pivot (leading) monomial, rows stored as primitive
integer coefficient dictionaries.  Reduction uses integer
cross-multiplication with content stripping, which bounds coefficient
blowup without ever leaving exact arithmetic.  Rows are not inter-reduced
on insertion (that keeps them sparse); the fully reduced canonical rows,
which are independent of insertion order, are computed on demand by
``canonical_rows``.

``kernel_of_columns`` performs the dual computation: exact row reduction
of an image matrix with combination tracking, emitting a basis of the
kernel in coefficient space.

``_eliminate`` is the one elimination step, shared by ``insert``,
``contains``, ``reduce_scaled``, ``canonical_rows`` and
``kernel_of_columns``: it replaces a row r by mr*r - mp*p, which kills
r's coefficient at the pivot monomial of the pivot row p, and returns the
two multipliers.  It works in place, so it only ever runs on a row its
caller owns: a fresh copy of the input, never a stored row.  Stored rows
are shared, not copied, by ``EchelonBasis.copy`` (filtration towers hand
them from level to level), so mutating one would corrupt every basis
holding it.  Every pivot row is stored with a positive leading
coefficient (``_primitive``), so mr is always positive and a scale factor
accumulated from it stays positive.

Keys of the coefficient dictionaries are compared natively: ``max(row)``
is the leading key and ``sorted`` the pivot order, with no key function.
The keys are packed monomials of one space (xy, z or symbol space), whose
int order is the graded-lex order (see ``poly``); ``order_key``, the
identity on them, is kept here as the name of that order.
``kernel_of_columns`` also takes columns keyed by equation ids (ints).

A basis belongs to one space, and every query that takes a polynomial or
another basis checks it: a packed int means different monomials in
different spaces.
"""

from __future__ import annotations

from math import gcd
from typing import Iterable

from .poly import Poly, Space, axpy, check_space, order_key  # noqa: F401


def _content(row: dict) -> int:
    g = 0
    for v in row.values():
        g = gcd(g, v)
        if g == 1:
            return 1
    return g


def _primitive(row: dict, lead) -> dict:
    """Divide by the content and normalize the leading coefficient positive."""
    g = _content(row)
    if row[lead] < 0:
        g = -g
    if g != 1:
        row = {m: v // g for m, v in row.items()}
    return row


def _int_terms(terms: dict) -> tuple[dict, int]:
    """Clear denominators; returns (a new integer row, multiplier used)."""
    lcm = 1
    integral = True
    for c in terms.values():
        if type(c) is not int:
            integral = False
            d = c.denominator
            if d != 1:
                lcm = lcm * d // gcd(lcm, d)
    if integral:
        return dict(terms), 1
    if lcm == 1:
        return {m: int(c) for m, c in terms.items()}, 1
    return {m: int(c * lcm) for m, c in terms.items()}, lcm


def _eliminate(row: dict, pivot_row: dict, mon) -> tuple[int, int]:
    """Kill ``mon`` in the integer ``row`` in place: row = mr*row - mp*pivot_row.

    ``pivot_row`` leads at ``mon`` with a positive coefficient, so the
    returned multipliers (mr, mp) have mr > 0.  ``row`` must belong to
    the caller.
    """
    c = row[mon]
    lead = pivot_row[mon]
    g = gcd(c, lead)
    mr = lead // g
    mp = c // g
    if mr != 1:
        for m, v in row.items():
            row[m] = mr * v
    axpy(row, -mp, pivot_row)
    return mr, mp


class EchelonBasis:
    """A row-echelon basis of a span of polynomials in one space."""

    __slots__ = ("space", "rows")

    def __init__(self, space: Space):
        self.space = space
        # pivot monomial -> primitive integer row, in insertion order
        self.rows: dict = {}

    @property
    def dim(self) -> int:
        return len(self.rows)

    def copy(self) -> "EchelonBasis":
        other = EchelonBasis(self.space)
        other.rows = dict(self.rows)  # rows are never mutated in place
        return other

    def _reduce_leading(self, row: dict) -> dict:
        """Eliminate pivot monomials from the leading position downward.

        The result is zero iff the input lies in the span; otherwise its
        leading monomial is a fresh pivot.
        """
        rows = self.rows
        while row:
            lead = max(row)
            pivot = rows.get(lead)
            if pivot is None:
                return row
            _eliminate(row, pivot, lead)
        return row

    def _terms(self, p) -> dict:
        """The coefficient dict of ``p``, a Poly of this basis's space or a
        raw dict."""
        if isinstance(p, Poly):
            check_space(p.space, self.space, "polynomial and basis in different spaces")
            return p.terms
        return p

    def insert(self, p) -> bool:
        """Grow the span by ``p``; True iff the dimension increased.

        ``p`` may be a Poly or a raw coefficient dict.
        """
        terms = self._terms(p)
        if not terms:
            return False
        row, _ = _int_terms(terms)
        row = self._reduce_leading(row)
        if not row:
            return False
        lead = max(row)
        self.rows[lead] = _primitive(row, lead)
        return True

    def extend(self, polys: Iterable) -> int:
        added = 0
        for p in polys:
            if self.insert(p):
                added += 1
        return added

    def contains(self, p) -> bool:
        terms = self._terms(p)
        if not terms:
            return True
        row, _ = _int_terms(terms)
        return not self._reduce_leading(row)

    def contains_span(self, other: "EchelonBasis") -> bool:
        check_space(other.space, self.space, "bases over different spaces")
        return all(self.contains(row) for row in other.rows.values())

    def reduce_scaled(self, terms: dict) -> tuple[dict, int]:
        """Fraction-free normal form: (integer row r, scale s > 0) with
        r / s the unique representative of the coset having no pivot
        monomials.  Repeatedly eliminates the largest pivot monomial
        present; eliminations only introduce strictly smaller monomials,
        so the process terminates.
        """
        row, scale = _int_terms(terms)
        rows = self.rows
        while row:
            hits = [m for m in row if m in rows]
            if not hits:
                break
            mon = max(hits)
            mr, _ = _eliminate(row, rows[mon], mon)
            scale *= mr
            if row:
                g = gcd(_content(row), scale)
                if g > 1:
                    row = {m: v // g for m, v in row.items()}
                    scale //= g
        return row, scale

    def canonical_rows(self) -> list[dict]:
        """Fully inter-reduced primitive rows in decreasing pivot order.

        This reduced form depends only on the span, not on insertion
        order, and is the form used in dumps and golden comparisons.
        """
        return canonical_levels([self])[0]

    def sorted_rows(self) -> list:
        """Canonical rows as Polys, in decreasing pivot order."""
        return [Poly(self.space, row) for row in self.canonical_rows()]

    def __iter__(self):
        return iter(self.sorted_rows())

    def __repr__(self):
        return f"EchelonBasis(dim={self.dim})"


def canonical_levels(levels) -> list[list[dict]]:
    """``EchelonBasis.canonical_rows`` of each basis of ``levels`` in turn.
    The canonical row at a pivot is the one primitive row of the span with
    a positive lead there and no other pivot monomial, whatever row of the
    span leading there it is reduced from.  A basis that stores every row
    of the one before, the same dicts (as ``copy`` shares them), contains
    its span, so it reduces each pivot they share from the canonical row
    below, which lacks every pivot below already."""
    out, below, prev = [], {}, {}  # below: pivot -> canonical row before
    for basis in levels:
        rows = basis.rows
        start = below if all(rows.get(piv) is row for piv, row in prev.items()) else {}
        reduced: dict = {}
        for piv in sorted(rows):
            row = dict(start.get(piv) or rows[piv])
            while hits := sorted((m for m in row if m != piv and m in reduced), reverse=True):
                for mon in hits:
                    if mon in row:
                        _eliminate(row, reduced[mon], mon)
            reduced[piv] = _primitive(row, piv)
        out.append([reduced[piv] for piv in reversed(reduced)])
        below, prev = reduced, rows
    return out


def span_equal(a: EchelonBasis, b: EchelonBasis) -> bool:
    """Exact span equality.  Stored rows have distinct pivots, so ``dim``
    is the rank, and equal ranks plus one containment suffice."""
    check_space(a.space, b.space, "bases over different spaces")
    return a.dim == b.dim and b.contains_span(a)


def echelon_from(space: Space, polys: Iterable) -> EchelonBasis:
    basis = EchelonBasis(space)
    basis.extend(polys)
    return basis


def kernel_of_columns(columns: Iterable[dict]) -> list[dict]:
    """Kernel of the matrix whose j-th column is the j-th of ``columns``.

    Columns are sparse dicts keyed by packed monomials of one space or by
    equation ids, with int or Fraction values.  They are
    read once, in order, and never modified, so ``columns`` may be a lazy
    view that builds each column when elimination reaches it.  Returns
    primitive integer vectors c (as sparse dicts {column index: coeff})
    with sum_j c_j col_j = 0, in a deterministic order, computed by exact
    row reduction with combination tracking.
    """
    pivots: dict = {}  # key -> (reduced column, tracking vector)
    kernel: list[dict] = []
    for idx, col in enumerate(columns):
        row, mult = _int_terms(col) if col else ({}, 1)
        track = {idx: mult}
        while row:
            lead = max(row)
            hit = pivots.get(lead)
            if hit is None:
                break
            prow, ptrack = hit
            mr, mp = _eliminate(row, prow, lead)
            if mr != 1:
                for m, v in track.items():
                    track[m] = mr * v
            axpy(track, -mp, ptrack)
        if row:
            lead = max(row)
            g = gcd(_content(row), _content(track))
            if row[lead] < 0:
                g = -g
            if g != 1:
                row = {m: v // g for m, v in row.items()}
                track = {m: v // g for m, v in track.items()}
            pivots[lead] = (row, track)
        else:
            kernel.append(_primitive(track, max(track)))
    return kernel
