"""Concrete symbolic carriers.

* ``QLine``   -- the rational line as an ell-group under min/max;
* ``QVec``    -- rational n-vectors, coordinatewise order;
* ``C00Space``-- finitely supported rational sequences;
* ``FinCofAlgebra`` -- the algebra of finite and cofinite subsets of the
  atom universe, the integers >= 1, so a cofinite set holds every atom
  past its complement's largest;
* ``EvLinSpace`` -- sequences that are eventually affine in the coordinate
  index, stored as canonical affine pieces with integer coefficients over
  one positive denominator, so that each operation costs O(pieces) integer
  operations, with an extended l1 norm that is +inf exactly when the
  eventual part is nonzero and is summed piece by piece in closed form.

``QLine`` and ``QVec`` elements are ``Fraction``s; the operations of both
run one scalar kernel on each ``Fraction``'s reduced integers,
``sample`` draws seeded elements of these two carriers only, and
``_coordinates`` hands ``truncation``'s ell-group laws a point's
coordinates, which they decide on integers.  ``EvLinSeq``
builds a ``Fraction`` only where one leaves it: ``value`` and one per
``_norm``, which reads the integer ``_scaled_norm``; its repr is the stored
form.

``NO_BOUND`` marks a sup or inf that provably does not exist in a carrier.

All elements are frozen values with structural equality, so lattice
identities can be asserted with ``==``.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cache, reduce
from itertools import repeat
from math import gcd, lcm
from typing import Iterable

from .carriers import Carrier, GroupCarrier
from .exact import EXT_INF, ExtValue, _below, _fraction, check_index, rat


@cache
def _fraction_table() -> tuple[tuple[Fraction, ...], ...]:
    """The reduced n/d, indexed [n + 20][d - 1], for n in [-20, 20] and d
    in [1, 10]."""
    return tuple(tuple(_fraction(n, d) for d in range(1, 11)) for n in range(-20, 21))


def _rand_fraction(rng) -> Fraction:
    """n/d for n uniform in [-20, 20] and d in [1, 10]: the draws of
    ``randint`` over those ranges, n first, read off the table of their
    values, so a draw builds no Fraction."""
    table = _fraction_table()
    return table[_below(rng, 41)][_below(rng, 10)]


# Exact arithmetic on the reduced integers of Fractions (see ``_fraction``);
# on lemma-l5's 5-vectors and the line's Cauchy scans, Fraction's operator
# overhead was most of the time.  With positive denominators, a < b exactly
# when a.n * b.d < b.n * a.d, so min and max pick what ``min`` and ``max``
# pick, the first argument on a tie, and every result is the Fraction the
# operators give.


def _frac_min(a: Fraction, b: Fraction) -> Fraction:
    return b if b._numerator * a._denominator < a._numerator * b._denominator else a


def _frac_max(a: Fraction, b: Fraction) -> Fraction:
    return b if b._numerator * a._denominator > a._numerator * b._denominator else a


def _frac_neg(a: Fraction) -> Fraction:
    return _fraction(-a._numerator, a._denominator)


def _frac_abs(a: Fraction) -> Fraction:
    return a if a._numerator >= 0 else _fraction(-a._numerator, a._denominator)


def _frac_add(a: Fraction, b: Fraction) -> Fraction:
    da, db = a._denominator, b._denominator
    if da == db:
        return _fraction(a._numerator + b._numerator, da)
    return _fraction(a._numerator * db + b._numerator * da, da * db)


def _frac_sub(a: Fraction, b: Fraction) -> Fraction:
    da, db = a._denominator, b._denominator
    if da == db:
        return _fraction(a._numerator - b._numerator, da)
    return _fraction(a._numerator * db - b._numerator * da, da * db)


# ---------------------------------------------------------------------------
# The rational line


class QLine(GroupCarrier):
    def __init__(self):
        super().__init__("qline", distributive=True)
        self.zero = Fraction(0)

    def normalize(self, x):
        if isinstance(x, int) and not isinstance(x, bool):
            return Fraction(x)
        return x

    def contains(self, x) -> bool:
        return isinstance(x, Fraction)

    def _leq(self, x, y) -> bool:
        return x._numerator * y._denominator <= y._numerator * x._denominator

    _meet = staticmethod(_frac_min)
    _join = staticmethod(_frac_max)
    _add = staticmethod(_frac_add)
    _negate = staticmethod(_frac_neg)
    _sub = staticmethod(_frac_sub)
    _abs = _norm = staticmethod(_frac_abs)

    def _coordinates(self, x):
        return (x,)

    def sample(self, rng):
        return _rand_fraction(rng)


# ---------------------------------------------------------------------------
# Rational vectors


class QVec(GroupCarrier):
    def __init__(self, dim: int):
        if dim < 1:
            raise ValueError("dimension must be positive")
        super().__init__(f"qvec{dim}", distributive=True)
        self.dim = dim
        self.zero = tuple(Fraction(0) for _ in range(dim))

    def normalize(self, x):
        if self.contains(x) or not (isinstance(x, (tuple, list)) and len(x) == self.dim):
            return x
        return tuple(Fraction(c) if isinstance(c, int) and not isinstance(c, bool) else c
                     for c in x)

    def contains(self, x) -> bool:
        return (isinstance(x, tuple) and len(x) == self.dim
                and all(map(isinstance, x, repeat(Fraction))))

    def _meet(self, x, y):
        return tuple(map(_frac_min, x, y))

    def _join(self, x, y):
        return tuple(map(_frac_max, x, y))

    def _leq(self, x, y) -> bool:
        return all(a._numerator * b._denominator <= b._numerator * a._denominator
                   for a, b in zip(x, y))

    def _add(self, x, y):
        return tuple(map(_frac_add, x, y))

    def _negate(self, x):
        return tuple(map(_frac_neg, x))

    def _sub(self, x, y):
        return tuple(map(_frac_sub, x, y))

    def _abs(self, x):
        return tuple(map(_frac_abs, x))

    def _norm(self, x):
        return reduce(_frac_add, self._abs(x))

    def _coordinates(self, x):
        return x

    def sample(self, rng):
        """``dim`` draws of ``_rand_fraction``, with ``_below``'s rejection
        loops for 41 and 10 inline: the same draws, leaving ``rng`` in the
        same state."""
        table = _fraction_table()
        bits = rng.getrandbits
        x = []
        for _ in range(self.dim):
            n = bits(6)
            while n >= 41:
                n = bits(6)
            d = bits(4)
            while d >= 10:
                d = bits(4)
            x.append(table[n][d])
        return tuple(x)


# ---------------------------------------------------------------------------
# Finitely supported sequences


@dataclass(frozen=True, slots=True)
class C00Vec:
    """Finitely supported rational sequence; support indices start at 1.

    Stored as (index, value) pairs with strictly increasing int indices and
    nonzero Fraction values, so structural equality coincides with
    pointwise equality; ``C00Space.contains`` accepts only that form.
    """

    entries: tuple[tuple[int, Fraction], ...]

    @staticmethod
    def from_pairs(pairs: Iterable[tuple[int, object]]) -> "C00Vec":
        acc: dict[int, Fraction] = {}
        for i, v in pairs:
            if type(i) is not int or i < 1:
                raise ValueError(f"support indices are integers >= 1, got {i!r}")
            q = rat(v)
            if q != 0:
                acc[i] = acc.get(i, Fraction(0)) + q
        items = tuple(sorted((i, v) for i, v in acc.items() if v != 0))
        return C00Vec(items)

    @staticmethod
    def indicator(support: Iterable[int]) -> "C00Vec":
        return C00Vec.from_pairs((i, 1) for i in support)

    @staticmethod
    def zero() -> "C00Vec":
        return C00Vec(())

    def coordinate(self, i: int) -> Fraction:
        for j, v in self.entries:
            if j == i:
                return v
        return Fraction(0)

    @property
    def support(self) -> tuple[int, ...]:
        return tuple(i for i, _ in self.entries)

    def max_support(self) -> int:
        return self.entries[-1][0] if self.entries else 0

    def pointwise(self, other: "C00Vec", op) -> "C00Vec":
        support = sorted(set(self.support) | set(other.support))
        return C00Vec.from_pairs(
            (i, op(self.coordinate(i), other.coordinate(i))) for i in support)

    def __repr__(self) -> str:
        try:
            inner = ", ".join(f"{i}:{v}" for i, v in self.entries)
        except (TypeError, ValueError):  # not (index, value) pairs
            return f"C00Vec({self.entries!r})"
        return f"C00Vec({{{inner}}})"


class C00Space(GroupCarrier):
    def __init__(self):
        super().__init__("c00", distributive=True)
        self.zero = C00Vec.zero()

    def contains(self, x) -> bool:
        if not (isinstance(x, C00Vec) and type(x.entries) is tuple):
            return False
        last = 0
        for entry in x.entries:
            if type(entry) is not tuple or len(entry) != 2:
                return False
            i, v = entry
            if type(i) is not int or i <= last or not isinstance(v, Fraction) or v == 0:
                return False
            last = i
        return True

    def _meet(self, x, y):
        return x.pointwise(y, min)

    def _join(self, x, y):
        return x.pointwise(y, max)

    def _add(self, x, y):
        return x.pointwise(y, lambda a, b: a + b)

    def _negate(self, x):
        return C00Vec(tuple((i, -v) for i, v in x.entries))

    def _norm(self, x):
        return sum((abs(v) for _, v in x.entries), Fraction(0))


# ---------------------------------------------------------------------------
# Finite / cofinite algebra


@dataclass(frozen=True, slots=True)
class FinCofSet:
    """A finite or cofinite subset of an infinite atom universe.

    ``atoms`` is the finite part; when ``cofinite`` is set the element is the
    complement of ``atoms``.  The representation is unique because the
    universe is infinite, so dataclass equality is set equality.
    """

    atoms: frozenset[int]
    cofinite: bool = False

    @staticmethod
    def finite(atoms: Iterable[int]) -> "FinCofSet":
        return FinCofSet(frozenset(atoms), False)

    @staticmethod
    def cofinite_complement(atoms: Iterable[int]) -> "FinCofSet":
        return FinCofSet(frozenset(atoms), True)

    @staticmethod
    def empty() -> "FinCofSet":
        return FinCofSet(frozenset(), False)

    @staticmethod
    def universe() -> "FinCofSet":
        return FinCofSet(frozenset(), True)

    def complement(self) -> "FinCofSet":
        return FinCofSet(self.atoms, not self.cofinite)

    def intersect(self, other: "FinCofSet") -> "FinCofSet":
        a, b = self, other
        if not a.cofinite and not b.cofinite:
            return FinCofSet(a.atoms & b.atoms, False)
        if not a.cofinite and b.cofinite:
            return FinCofSet(a.atoms - b.atoms, False)
        if a.cofinite and not b.cofinite:
            return FinCofSet(b.atoms - a.atoms, False)
        return FinCofSet(a.atoms | b.atoms, True)

    def union(self, other: "FinCofSet") -> "FinCofSet":
        return self.complement().intersect(other.complement()).complement()

    def __repr__(self) -> str:
        inner = "{" + ",".join(str(a) for a in sorted(self.atoms)) + "}"
        return f"~{inner}" if self.cofinite else inner


class FinCofAlgebra(Carrier):
    """Boolean algebra of finite and cofinite sets; bounded, distributive."""

    def __init__(self):
        super().__init__("fincof", distributive=True,
                         bottom=FinCofSet.empty(), top=FinCofSet.universe())

    def contains(self, x) -> bool:
        return isinstance(x, FinCofSet) and all(type(a) is int and a >= 1 for a in x.atoms)

    def _meet(self, x, y):
        return x.intersect(y)

    def _join(self, x, y):
        return x.union(y)


# ---------------------------------------------------------------------------
# Eventually affine sequences


def _canonical(pieces: list) -> tuple:
    """The one piece list of the sequence that ``pieces`` describes.

    ``pieces`` holds ``(start, c, d)`` triples of integers with strictly
    increasing starts, the first at 1, each law holding from its start up to
    the next start; all laws share one denominator, which this pass never
    reads.  Reading from the right, each canonical piece takes every point
    to its left that fits its law; the law of the next piece is the line
    through the two points left of it, or a constant for the lone point at
    coordinate 1.  That depends on the values alone, so two sequences are
    equal exactly when their canonical pieces are.  Two distinct lines meet
    at most once, so an input piece under another law gives up at most one
    point, and the pass costs O(len(pieces)).
    """
    out = []
    j = len(pieces) - 1
    pos, c, d = pieces[j]
    j -= 1
    while True:
        # pos is the leftmost coordinate that fits (c, d); input piece j now
        # ends at pos - 1
        while j >= 0:
            s, cj, dj = pieces[j]
            if cj == c and dj == d:
                pos = s
            elif dj != d and cj + dj * (pos - 1) == c + d * (pos - 1):
                pos -= 1
                if s < pos:
                    break
            else:
                break
            j -= 1
        out.append((pos, c, d))
        if pos == 1:
            out.reverse()
            return tuple(out)
        e = pos - 1
        s, cj, dj = pieces[j]
        if e == 1:
            c, d = cj + dj, 0
        elif s < e:
            c, d = cj, dj
        else:
            _, cp, dp = pieces[j - 1]
            v = cj + dj * e
            d = v - cp - dp * (e - 1)
            c = v - d * e


def _seq(pieces: list, den: int) -> "EvLinSeq":
    """The sequence of ``pieces`` over ``den`` > 0 in its one stored form:
    canonical pieces, with the common factor of den and every coefficient
    divided out."""
    pieces = _canonical(pieces)
    g = den
    for _, c, d in pieces:
        g = gcd(g, c, d)
    if g != 1:
        pieces = tuple((s, c // g, d // g) for s, c, d in pieces)
        den //= g
    return EvLinSeq(pieces, den)


def _series(c: int, d: int, a: int, b: int) -> int:
    """Sum of c + d*i over a <= i <= b (0 when b < a)."""
    n = b - a + 1
    return c * n + d * ((a + b) * n // 2) if n > 0 else 0


def _abs_series(c: int, d: int, a: int, b: int) -> int:
    """Sum of |c + d*i| over a <= i <= b: c + d*i keeps one sign up to its
    zero and the other past it, so each side is one arithmetic series."""
    if d == 0:
        return abs(c) * (b - a + 1)
    z = min(max(-c // d, a - 1), b)
    return abs(_series(c, d, a, z)) + abs(_series(c, d, z + 1, b))


@dataclass(frozen=True, slots=True)
class EvLinSeq:
    """Rational sequence over coordinates i = 1, 2, ... that is eventually
    affine, stored as affine pieces with integer coefficients over one
    denominator.

    ``pieces`` holds ``(start, c, d)`` triples of integers with increasing
    starts, the first at 1: value(i) = (c + d*i) / den for the last piece
    whose start is at most i, so the last piece is the eventual law.  The
    pieces are canonical (see ``_canonical``), den is positive and has no
    factor in common with every coefficient, which makes equality
    structural; every operation costs O(pieces) integer operations whatever
    the size of the coefficients.  ``value`` builds its Fraction when
    called; ``make`` takes the values before the eventual law c + d*i.
    """

    pieces: tuple[tuple[int, int, int], ...]
    den: int

    @staticmethod
    def make(prefix: Iterable[object], c: object, d: object) -> "EvLinSeq":
        values = [rat(v) for v in prefix]
        c, d = rat(c), rat(d)
        den = lcm(c.denominator, d.denominator, *(v.denominator for v in values))
        pieces = [(i, v.numerator * (den // v.denominator), 0) for i, v in enumerate(values, 1)]
        pieces.append((len(values) + 1, c.numerator * (den // c.denominator),
                       d.numerator * (den // d.denominator)))
        return _seq(pieces, den)

    @staticmethod
    def affine(c: object, d: object) -> "EvLinSeq":
        return EvLinSeq.make((), c, d)

    def value(self, i: int) -> Fraction:
        check_index(i, "a coordinate")
        for s, c, d in reversed(self.pieces):
            if s <= i:
                return _fraction(c + d * i, self.den)


def _runs(x: EvLinSeq, y: EvLinSeq):
    """(start, next start or None, law of x, law of y) for each run of
    coordinates on which neither sequence changes its law."""
    xp, yp = x.pieces, y.pieces
    i = j = 0
    s = 1
    while True:
        xn = xp[i + 1][0] if i + 1 < len(xp) else None
        yn = yp[j + 1][0] if j + 1 < len(yp) else None
        nxt = yn if xn is None else xn if yn is None else min(xn, yn)
        yield s, nxt, xp[i], yp[j]
        if nxt is None:
            return
        if xn == nxt:
            i += 1
        if yn == nxt:
            j += 1
        s = nxt


def _common_den(x: EvLinSeq, y: EvLinSeq) -> tuple[int, int, int]:
    """(m, mx, my): the least common denominator m of x and y, and the
    factors that carry the coefficients of x and of y over to it."""
    m = lcm(x.den, y.den)
    return m, m // x.den, m // y.den


class EvLinSpace(GroupCarrier):
    """Eventually affine sequences as an ell-group under pointwise order."""

    def __init__(self):
        super().__init__("evlinseq", distributive=True)
        self.zero = EvLinSeq.affine(0, 0)

    def contains(self, x) -> bool:
        return isinstance(x, EvLinSeq)

    def _combine(self, x: EvLinSeq, y: EvLinSeq, lower: bool) -> EvLinSeq:
        m, mx, my = _common_den(x, y)
        pieces = []
        for s, nxt, (_, xc, xd), (_, yc, yd) in _runs(x, y):
            xc, xd, yc, yd = xc * mx, xd * mx, yc * my, yd * my
            if xd == yd:
                keep_x = xc <= yc if lower else xc >= yc
                pieces.append((s, xc, xd) if keep_x else (s, yc, yd))
                continue
            # two lines with different slopes cross once; beyond the crossing
            # the comparison is settled by the slopes
            split = max(s, (yc - xc) // (xd - yd) + 1)
            steep, flat = ((xc, xd), (yc, yd)) if xd > yd else ((yc, yd), (xc, xd))
            before, after = (steep, flat) if lower else (flat, steep)
            if split > s:
                pieces.append((s, *before))
            if nxt is None or split < nxt:
                pieces.append((split, *after))
        return _seq(pieces, m)

    def _meet(self, x, y):
        return self._combine(x, y, True)

    def _join(self, x, y):
        return self._combine(x, y, False)

    def _add(self, x, y):
        m, mx, my = _common_den(x, y)
        return _seq([(s, a[1] * mx + b[1] * my, a[2] * mx + b[2] * my)
                     for s, _, a, b in _runs(x, y)], m)

    def _sub(self, x, y):
        m, mx, my = _common_den(x, y)
        return _seq([(s, a[1] * mx - b[1] * my, a[2] * mx - b[2] * my)
                     for s, _, a, b in _runs(x, y)], m)

    def _negate(self, x):
        # negation keeps which points fit which law, so the pieces stay canonical
        return EvLinSeq(tuple((s, -c, -d) for s, c, d in x.pieces), x.den)

    def scale_rat(self, q: object, x: EvLinSeq) -> EvLinSeq:
        q = rat(q)
        x = self.check_element(x)
        p = q.numerator
        return _seq([(s, p * c, p * d) for s, c, d in x.pieces], x.den * q.denominator)

    def _scaled_norm(self, x: EvLinSeq) -> int | None:
        """The extended l1 norm of x times ``x.den``, an int, or None for
        +inf, which it is exactly when the eventual part is nonzero: the one
        norm body, so a caller that only compares the norm stays on
        integers."""
        _, c, d = x.pieces[-1]
        if c or d:
            return None
        return sum(_abs_series(c, d, s, end - 1) for (s, c, d), (end, _, _)
                   in zip(x.pieces, x.pieces[1:]))

    def _norm(self, x) -> ExtValue:
        """Extended l1 norm: ``_scaled_norm`` over ``x.den`` as an ExtValue,
        +inf exactly when the eventual part is nonzero."""
        total = self._scaled_norm(x)
        return EXT_INF if total is None else ExtValue(_fraction(total, x.den))


NO_BOUND = "no-bound-in-algebra"
