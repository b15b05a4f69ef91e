"""Exact sparse multivariate polynomial arithmetic over the rationals.

A polynomial is a dictionary mapping monomial exponent tuples to nonzero
exact rational coefficients (int or Fraction; plain ints are kept as ints
for speed and promote automatically when a Fraction enters).  The zero
polynomial is the empty dict.  All ``Poly`` operations are pure: they
return new values and never mutate their inputs.

Two kinds of variable spaces occur:

  * the xy space in 2n variables x_1..x_n, y_1..y_n, ordered
    x_1 > ... > x_n > y_1 > ... > y_n;
  * z spaces with one variable z_{j,i} per (row, column) pair, row-major,
    minus an optional excluded pair set.

The monomial order is graded lexicographic on the exponent tuple in the
variable order above.  Canonical text rendering emits terms in decreasing
monomial order, e.g. ``-3/2*x1^2*x2*y3 + y1``; this is the interchange
format used in JSON reports and golden tests.

``add_term`` and ``axpy`` are the one sparse accumulate of the package:
every sum of term dicts, in this module and the others, goes through
them, so no zero coefficient is ever stored.  Unlike the ``Poly``
arithmetic they update their ``out`` dict in place; keys keep their
insertion order, so results are reproducible term for term.
"""

from __future__ import annotations

import itertools
import re
from fractions import Fraction
from functools import lru_cache
from typing import Iterable, Mapping

Monomial = tuple  # exponent tuple, one entry per variable
Coeff = "int | Fraction"


class SpaceMismatchError(ValueError):
    """Raised when an operation mixes polynomials from different spaces."""


class Space:
    """An ordered set of named variables.

    ``kind`` is ``"xy"`` (2n variables over index 1..n) or ``"z"`` (one
    variable per (row, col) pair, row-major, excluded pairs removed).
    """

    __slots__ = ("kind", "n", "rows", "cols", "excluded", "names", "index")

    def __init__(self, kind, names, *, n=0, rows=(), cols=(), excluded=frozenset()):
        self.kind = kind
        self.n = n
        self.rows = rows
        self.cols = cols
        self.excluded = excluded
        self.names = names
        self.index = {name: i for i, name in enumerate(names)}

    def __eq__(self, other):
        return (
            isinstance(other, Space)
            and self.kind == other.kind
            and self.names == other.names
        )

    def __hash__(self):
        return hash((self.kind, self.names))

    def __repr__(self):
        return f"Space({self.kind}, {len(self.names)} vars)"

    @property
    def nvars(self) -> int:
        return len(self.names)

    # xy spaces: math indices are 1-based
    def x(self, i: int) -> int:
        """Variable position of x_i (1-based i)."""
        if self.kind != "xy" or not 1 <= i <= self.n:
            raise SpaceMismatchError(f"no variable x{i} in {self!r}")
        return i - 1

    def y(self, i: int) -> int:
        """Variable position of y_i (1-based i)."""
        if self.kind != "xy" or not 1 <= i <= self.n:
            raise SpaceMismatchError(f"no variable y{i} in {self!r}")
        return self.n + i - 1

    def z(self, j: int, i: int) -> int:
        """Variable position of z_{j,i} (row j, column i)."""
        name = f"z{j}_{i}"
        pos = self.index.get(name)
        if pos is None:
            raise SpaceMismatchError(f"no variable {name} in {self!r}")
        return pos


@lru_cache(maxsize=None)
def xy_space(n: int) -> Space:
    """The polynomial algebra in x_1..x_n, y_1..y_n (n >= 2)."""
    if n < 2:
        raise ValueError("xy space needs n >= 2")
    names = tuple(f"x{i}" for i in range(1, n + 1)) + tuple(
        f"y{i}" for i in range(1, n + 1)
    )
    return Space("xy", names, n=n)


@lru_cache(maxsize=None)
def z_space(rows: tuple, cols: tuple, excluded: frozenset = frozenset()) -> Space:
    """A ring of z_{j,i} variables over rows x cols minus excluded pairs."""
    rows = tuple(sorted(rows))
    cols = tuple(sorted(cols))
    names = tuple(
        f"z{j}_{i}" for j in rows for i in cols if (j, i) not in excluded
    )
    if not names:
        raise ValueError("empty z space")
    return Space("z", names, rows=rows, cols=cols, excluded=excluded)


def order_key(m: Monomial):
    """Graded-lex sort key; bigger key = bigger monomial."""
    return (sum(m), m)


def add_term(out: dict, m, c) -> None:
    """``out[m] += c`` in place, dropping ``m`` when the sum is zero."""
    s = out.get(m, 0) + c
    if s:
        out[m] = s
    elif m in out:
        del out[m]


def axpy(out: dict, c, terms: Mapping) -> dict:
    """``out += c * terms`` in place, dropping keys whose sum is zero;
    returns ``out``."""
    for m, v in terms.items():
        s = out.get(m, 0) + c * v
        if s:
            out[m] = s
        elif m in out:
            del out[m]
    return out


def monomials(nvars: int, degrees: Iterable[int]):
    """Exponent tuples in ``nvars`` variables for each degree in ``degrees``
    in turn, each degree in ``combinations_with_replacement`` order."""
    for d in degrees:
        for combo in itertools.combinations_with_replacement(range(nvars), d):
            m = [0] * nvars
            for pos in combo:
                m[pos] += 1
            yield tuple(m)


class Poly:
    """A sparse polynomial with exact rational coefficients.

    ``terms`` maps exponent tuples to nonzero coefficients.  Instances are
    treated as immutable; all arithmetic returns fresh objects.
    """

    __slots__ = ("space", "terms")

    def __init__(self, space: Space, terms: dict):
        self.space = space
        self.terms = terms

    # -- constructors -------------------------------------------------

    @classmethod
    def zero(cls, space: Space) -> "Poly":
        return cls(space, {})

    @classmethod
    def constant(cls, space: Space, c) -> "Poly":
        if not c:
            return cls(space, {})
        return cls(space, {(0,) * space.nvars: c})

    @classmethod
    def monomial(cls, space: Space, exps: Iterable[int], coeff=1) -> "Poly":
        m = tuple(exps)
        if len(m) != space.nvars:
            raise SpaceMismatchError("exponent tuple length mismatch")
        if any(e < 0 for e in m):
            raise ValueError("negative exponent")
        if not coeff:
            return cls(space, {})
        return cls(space, {m: coeff})

    @classmethod
    def variable(cls, space: Space, pos: int) -> "Poly":
        m = [0] * space.nvars
        m[pos] = 1
        return cls(space, {tuple(m): 1})

    @classmethod
    def from_terms(cls, space: Space, terms: Mapping) -> "Poly":
        return cls(space, {m: c for m, c in terms.items() if c})

    # -- basic queries -------------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def __bool__(self):
        return bool(self.terms)

    def __len__(self):
        return len(self.terms)

    def total_degree(self) -> int:
        """Maximum total degree; -1 for the zero polynomial."""
        if not self.terms:
            return -1
        return max(sum(m) for m in self.terms)

    def __eq__(self, other):
        if not isinstance(other, Poly):
            return NotImplemented
        return self.space == other.space and self.terms == other.terms

    def __hash__(self):
        return hash((self.space, frozenset(self.terms.items())))

    def _check(self, other: "Poly"):
        # spaces come from cached constructors: identity is the common case
        if self.space is not other.space and self.space != other.space:
            raise SpaceMismatchError("polynomials live in different spaces")

    # -- arithmetic ----------------------------------------------------

    def __add__(self, other: "Poly") -> "Poly":
        self._check(other)
        return Poly(self.space, axpy(dict(self.terms), 1, other.terms))

    def __neg__(self) -> "Poly":
        return Poly(self.space, {m: -c for m, c in self.terms.items()})

    def __sub__(self, other: "Poly") -> "Poly":
        self._check(other)
        return Poly(self.space, axpy(dict(self.terms), -1, other.terms))

    def __mul__(self, other: "Poly") -> "Poly":
        self._check(other)
        out: dict = {}
        a, b = self.terms, other.terms
        if len(a) > len(b):
            a, b = b, a
        for m1, c1 in a.items():
            for m2, c2 in b.items():
                add_term(out, tuple(e1 + e2 for e1, e2 in zip(m1, m2)), c1 * c2)
        return Poly(self.space, out)

    def __pow__(self, k: int) -> "Poly":
        if k < 0:
            raise ValueError("negative power")
        out = Poly.constant(self.space, 1)
        for _ in range(k):
            out = out * self
        return out

    def scale(self, c) -> "Poly":
        if not c:
            return Poly(self.space, {})
        return Poly(self.space, {m: c * v for m, v in self.terms.items()})

    # -- calculus and substitution --------------------------------------

    def diff(self, pos: int) -> "Poly":
        """Exact partial derivative with respect to the variable at ``pos``."""
        if not 0 <= pos < self.space.nvars:
            raise SpaceMismatchError(f"no variable at position {pos}")
        out = {}
        for m, c in self.terms.items():
            e = m[pos]
            if e:
                out[m[:pos] + (e - 1,) + m[pos + 1 :]] = e * c
        return Poly(self.space, out)

    def substitute(self, images: Mapping[int, "Poly"], target: Space) -> "Poly":
        """Simultaneous substitution of variables by polynomials.

        ``images`` maps variable positions of this space to polynomials in
        ``target``.  Unassigned variables must exist in ``target`` under the
        same name.
        """
        n_src = self.space.nvars
        passthrough = {}
        for pos in range(n_src):
            if pos in images:
                space = images[pos].space
                if space is not target and space != target:
                    raise SpaceMismatchError("image not in target space")
            else:
                name = self.space.names[pos]
                tpos = target.index.get(name)
                if tpos is None:
                    raise SpaceMismatchError(
                        f"variable {name} unassigned and absent from target"
                    )
                passthrough[pos] = tpos
        out: dict = {}
        pow_cache: dict = {}
        for m, c in self.terms.items():
            factor = Poly.constant(target, c)
            base = [0] * target.nvars
            for pos, e in enumerate(m):
                if not e:
                    continue
                if pos in passthrough:
                    base[passthrough[pos]] += e
                else:
                    key = (pos, e)
                    p = pow_cache.get(key)
                    if p is None:
                        p = images[pos] ** e
                        pow_cache[key] = p
                    factor = factor * p
            shift = tuple(base)
            terms = factor.terms
            if any(shift):
                terms = {tuple(a + b for a, b in zip(mm, shift)): cc for mm, cc in terms.items()}
            axpy(out, 1, terms)
        return Poly(target, out)

    # -- rendering -------------------------------------------------------

    def sorted_terms(self):
        """Terms in decreasing monomial order (the canonical order)."""
        return sorted(self.terms.items(), key=lambda t: order_key(t[0]), reverse=True)

    def render(self) -> str:
        if not self.terms:
            return "0"
        parts = []
        for m, c in self.sorted_terms():
            frac = Fraction(c)
            mono = render_monomial(self.space, m)
            mag = abs(frac)
            if mono == "1":
                body = str(mag)
            elif mag == 1:
                body = mono
            else:
                body = f"{mag}*{mono}"
            if not parts:
                parts.append(body if frac > 0 else f"-{body}")
            else:
                parts.append(f"+ {body}" if frac > 0 else f"- {body}")
        return " ".join(parts)

    def __str__(self):
        return self.render()

    def __repr__(self):
        return f"Poly({self.render()})"


def render_monomial(space: Space, m: Monomial) -> str:
    factors = []
    for pos, e in enumerate(m):
        if e == 1:
            factors.append(space.names[pos])
        elif e > 1:
            factors.append(f"{space.names[pos]}^{e}")
    return "*".join(factors) if factors else "1"


_TERM_SPLIT = re.compile(r"(?=[+-])")
_FACTOR = re.compile(r"^([A-Za-z][A-Za-z0-9_]*)(?:\^(\d+))?$")


def parse_poly(space: Space, text: str) -> Poly:
    """Parse the canonical text rendering back into a polynomial.

    Accepts the exact output of ``Poly.render`` plus harmless whitespace
    variations; used to read back JSON report payloads and tower dumps.
    """
    text = text.strip()
    if not text or text == "0":
        return Poly.zero(space)
    out: dict = {}
    for raw in _TERM_SPLIT.split(text.replace(" ", "")):
        if not raw:
            continue
        sign = 1
        while raw and raw[0] in "+-":
            if raw[0] == "-":
                sign = -sign
            raw = raw[1:]
        if not raw:
            raise ValueError("dangling sign in polynomial text")
        coeff = Fraction(sign)
        exps = [0] * space.nvars
        for factor in raw.split("*"):
            if re.fullmatch(r"\d+(/\d+)?", factor):
                coeff *= Fraction(factor)
                continue
            fm = _FACTOR.match(factor)
            if fm is None:
                raise ValueError(f"bad factor {factor!r}")
            name, power = fm.group(1), int(fm.group(2) or 1)
            pos = space.index.get(name)
            if pos is None:
                raise SpaceMismatchError(f"unknown variable {name!r}")
            exps[pos] += power
        add_term(out, tuple(exps), int(coeff) if coeff.denominator == 1 else coeff)
    return Poly(space, out)
