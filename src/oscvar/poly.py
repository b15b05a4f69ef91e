"""Exact sparse multivariate polynomial arithmetic over the rationals.

A polynomial is a dictionary mapping packed monomials (below) to nonzero
exact rational coefficients (int or Fraction; plain ints are kept as ints
for speed and promote automatically when a Fraction enters).  The zero
polynomial is the empty dict.  All ``Poly`` operations are pure: they
return new values and never mutate their inputs.

Three kinds of variable spaces occur:

  * the xy space in 2n variables x_1..x_n, y_1..y_n, ordered
    x_1 > ... > x_n > y_1 > ... > y_n;
  * z spaces with one variable z_{j,i} per (row, column) pair, row-major,
    minus an optional excluded pair set;
  * the symbol space of sl(n), the symmetric algebra on its n^2 - 1
    generators h_1..h_{n-1}, then e_{i,j} (i != j) row-major, the order of
    ``osc.generators``.

The monomial order is graded lexicographic on the exponent vector in the
variable order above.  Canonical text rendering emits terms in decreasing
monomial order, e.g. ``-3/2*x1^2*x2*y3 + y1``; this is the interchange
format used in JSON reports and golden tests.

A monomial is packed into one int.  In a space of N variables the
exponent of variable ``pos`` sits in the ``FIELD_BITS``-bit field at bit
``Space.shift[pos] = FIELD_BITS * (N - 1 - pos)``, so x_1 is the most
significant exponent, and the total degree sits above all of them, at
bit ``Space.dshift = FIELD_BITS * N``.  Comparing two packed ints then
compares the degrees first and the exponents in variable order after:
plain int order is the graded-lex order, with no key function.  The
product of monomials is the sum of their ints and a shift by one
variable is the addition of its packed unit (``Space.unit[pos]``, the
field bit plus one degree).

Overflow raises, it never wraps.  Every exponent is at most the total
degree, so while the degree stays below ``DEGREE_LIMIT`` (2^FIELD_BITS)
no field can carry into the next one.  Whatever raises a degree checks
that bound once per call, against its largest key (in a space, a key is
at least ``Space.limit`` exactly when its degree is too large):
``Space.pack``, ``Poly.__mul__``, ``Poly.substitute`` through it, the
raising Weyl terms of ``osc`` and the evaluations of ``detvar``.  A
derivative reads its exponent first and shifts only when that is
nonzero, so no field ever borrows.

``order_key`` is the named sort key of packed monomials: the int itself.
The hot paths compare ints directly; the name stays for callers that
want to spell the order out.

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

Monomial = int  # packed: degree field on top, one exponent field per variable
Coeff = "int | Fraction"

FIELD_BITS = 8
FIELD_MASK = (1 << FIELD_BITS) - 1
DEGREE_LIMIT = 1 << FIELD_BITS  # every packed degree is below this


class SpaceMismatchError(ValueError):
    """Raised when an operation mixes polynomials from different spaces."""


class Space:
    """An ordered set of named variables.

    ``kind`` is ``"xy"`` (2n variables over index 1..n), ``"z"`` (one
    variable per (row, col) pair, row-major, excluded pairs removed) or
    ``"sym"`` (one variable per generator of sl(n)).
    """

    __slots__ = (
        "kind", "n", "rows", "cols", "excluded", "names", "index",
        "shift", "dshift", "unit", "limit",
    )

    def __init__(self, kind, names, *, n=0, rows=(), cols=(), excluded=frozenset()):
        self.kind = kind
        self.n = n
        self.rows = rows
        self.cols = cols
        self.excluded = excluded
        self.names = names
        self.index = {name: i for i, name in enumerate(names)}
        # the packed layout (module docstring)
        nv = len(names)
        self.shift = tuple(FIELD_BITS * (nv - 1 - pos) for pos in range(nv))
        self.dshift = FIELD_BITS * nv
        self.unit = tuple((1 << s) | (1 << self.dshift) for s in self.shift)
        self.limit = DEGREE_LIMIT << self.dshift

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

    # the packed codec
    def pack(self, exps: Iterable[int]) -> Monomial:
        """The packed monomial of an exponent sequence."""
        exps = tuple(exps)
        if len(exps) != self.nvars:
            raise SpaceMismatchError("exponent tuple length mismatch")
        if min(exps) < 0:
            raise ValueError("negative exponent")
        deg = sum(exps)
        if deg >= DEGREE_LIMIT:
            raise OverflowError(f"degree {deg} does not fit the packed monomial")
        return sum(e << s for e, s in zip(exps, self.shift)) | (deg << self.dshift)

    def unpack(self, m: Monomial) -> tuple:
        """The exponent tuple of a packed monomial."""
        return tuple((m >> s) & FIELD_MASK for s in self.shift)

    def exp(self, m: Monomial, pos: int) -> int:
        """The exponent of the variable at ``pos`` in a packed monomial."""
        return (m >> self.shift[pos]) & FIELD_MASK

    def positions(self, m: Monomial) -> tuple:
        """The variable positions of a packed monomial in ascending order,
        each repeated as often as its exponent."""
        return tuple(pos for pos, e in enumerate(self.unpack(m)) for _ in range(e))

    def degree(self, m: Monomial) -> int:
        """The total degree of a packed monomial."""
        return m >> self.dshift

    def check_degree(self, top: Monomial) -> None:
        """Raise OverflowError when the sum of packed monomials ``top`` has
        a degree at or beyond the limit."""
        if top >= self.limit:
            raise OverflowError(
                f"degree {top >> self.dshift} does not fit the packed monomial"
            )


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


@lru_cache(maxsize=None)
def symbol_space(n: int) -> Space:
    """The symmetric algebra on the generators of sl(n) (n >= 2), one
    variable per generator: h1..h{n-1}, then e{i}_{j} for i != j."""
    if n < 2:
        raise ValueError("symbol space needs n >= 2")
    names = tuple(f"h{r}" for r in range(1, n)) + tuple(
        f"e{i}_{j}" for i in range(1, n + 1) for j in range(1, n + 1) if i != j
    )
    return Space("sym", names, n=n)


def check_space(a: Space, b: Space, what: str) -> None:
    """Raise SpaceMismatchError, saying ``what``, unless a and b are the same
    space."""
    # spaces come from cached constructors: identity is the common case
    if a is not b and a != b:
        raise SpaceMismatchError(what)


def order_key(m: Monomial) -> int:
    """Graded-lex sort key of a packed monomial: the monomial itself."""
    return m


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


def monomials(space: Space, degrees: Iterable[int]):
    """Packed monomials of ``space`` for each degree in ``degrees`` in turn,
    each degree in ``combinations_with_replacement`` order of positions."""
    unit = space.unit
    for d in degrees:
        if d >= DEGREE_LIMIT:
            raise OverflowError(f"degree {d} does not fit the packed monomial")
        for combo in itertools.combinations_with_replacement(unit, d):
            yield sum(combo)


def determinant(space: Space, entries) -> "Poly":
    """The determinant of a square matrix (a list of rows) of polynomials
    of ``space``, expanded along the first row; zero entries are
    skipped."""
    if len(entries) == 1:
        return entries[0][0]
    out = Poly.zero(space)
    for col, entry in enumerate(entries[0]):
        if entry:
            minor = [row[:col] + row[col + 1:] for row in entries[1:]]
            term = entry * determinant(space, minor)
            out = out - term if col % 2 else out + term
    return out


class Poly:
    """A sparse polynomial with exact rational coefficients.

    ``terms`` maps packed monomials to nonzero coefficients.  Instances are
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
        return cls(space, {0: c})

    @classmethod
    def monomial(cls, space: Space, m: Monomial, coeff=1) -> "Poly":
        """``coeff`` times the packed monomial ``m``."""
        space.check_degree(m)
        if m < 0 or sum(space.unpack(m)) != space.degree(m):
            raise ValueError(f"{m!r} is not a packed monomial of {space!r}")
        if not coeff:
            return cls(space, {})
        return cls(space, {m: coeff})

    @classmethod
    def variable(cls, space: Space, pos: int) -> "Poly":
        if not 0 <= pos < space.nvars:
            raise SpaceMismatchError(f"no variable at position {pos}")
        return cls(space, {space.unit[pos]: 1})

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
        return self.space.degree(max(self.terms))

    def __eq__(self, other):
        if not isinstance(other, Poly):
            return NotImplemented
        return self.space == other.space and self.terms == other.terms

    def __hash__(self):
        return hash((self.space, frozenset(self.terms.items())))

    def _check(self, other: "Poly"):
        check_space(self.space, other.space, "polynomials live in different spaces")

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
        if not a or not b:
            return Poly(self.space, out)
        self.space.check_degree(max(a) + max(b))
        if len(a) > len(b):
            a, b = b, a
        if len(a) == 1:
            # a shift: distinct monomials stay distinct, nonzero products stay nonzero
            ((m1, c1),) = a.items()
            return Poly(self.space, {m1 + m2: c1 * c2 for m2, c2 in b.items()})
        for m1, c1 in a.items():
            for m2, c2 in b.items():
                add_term(out, m1 + m2, c1 * c2)
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

    # -- substitution ---------------------------------------------------

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
                check_space(images[pos].space, target, "image not in target space")
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
            base = [0] * target.nvars
            factor = None
            for pos, e in enumerate(self.space.unpack(m)):
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
                    factor = p if factor is None else factor * p
            # the passthrough monomial, then the checked product with it
            rest = Poly(target, {target.pack(base): c})
            axpy(out, 1, (rest if factor is None else factor * rest).terms)
        return Poly(target, out)

    # -- rendering -------------------------------------------------------

    def render(self) -> str:
        return render_terms(self.space, self.terms)

    def __str__(self):
        return self.render()

    def __repr__(self):
        return f"Poly({self.render()})"


def render_terms(space: Space, terms: Mapping, texts: dict | None = None) -> str:
    """The canonical text of a term dict (``Poly.render``): its terms in
    decreasing monomial order, each coefficient as ``str`` gives it (an int
    and a Fraction of the same value print alike).  ``texts``, a dict the
    caller keeps across calls, memoizes the text of each monomial."""
    if not terms:
        return "0"
    if texts is None:
        texts = {}
    parts = []
    for m, c in sorted(terms.items(), reverse=True):
        mono = texts.get(m)
        if mono is None:
            mono = texts[m] = render_monomial(space, m)
        mag = abs(c)
        if mono == "1":
            body = str(mag)
        elif mag == 1:
            body = mono
        else:
            body = f"{mag}*{mono}"
        if not parts:
            parts.append(body if c > 0 else f"-{body}")
        else:
            parts.append(f"+ {body}" if c > 0 else f"- {body}")
    return " ".join(parts)


def render_monomial(space: Space, m: Monomial) -> str:
    factors = []
    for pos, e in enumerate(space.unpack(m)):
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
        add_term(out, space.pack(exps), int(coeff) if coeff.denominator == 1 else coeff)
    return Poly(space, out)
