"""Exact arithmetic kernel.

Three pieces live here and everything else in the package builds on them:

* ``ExtValue`` -- a nonnegative rational or ``+inf``, the value domain of
  every semimetric and extended norm in the package.
* ``Poly`` -- integer-indexed polynomials with rational coefficients and an
  exact decision procedure for "p(t) >= 0 for every integer t >= t0".  The
  decision isolates the real roots in unit cells by Sturm's theorem on
  integer coefficients and evaluates p only next to them, so its cost
  grows with the degree and the bits of the coefficients, not with the
  size of the roots.
* ``RatAltSeq`` -- closed forms ``(num(k) + (-1)^k * anum(k)) / den(k)`` for
  sequences indexed by k = 1, 2, ...  This class is the tail-reasoning
  engine: sign decisions, monotonicity, limits and clamp indices are all
  decided exactly, never by sampling.  Sums and products divide out the
  common factor of the three polynomials, so a term's degree follows its
  value, not the number of ring operations that built it.

Floats never appear in this module.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from math import gcd, lcm
from typing import Optional, Union

RatLike = Union[int, str, Fraction]

_EXPONENT = re.compile(r"[eE][-+]?\d")


def rat(value: RatLike) -> Fraction:
    """Coerce an int, a 'p/q' string, or a Fraction to an exact Fraction.

    A string with an exponent is refused: ``Fraction`` would expand "1e9999999"
    into an integer of millions of digits.  A plain decimal string is bounded
    by the interpreter's limit on the digits of an integer string."""
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int) and not isinstance(value, bool):
        return Fraction(value)
    if isinstance(value, str):
        if _EXPONENT.search(value):
            raise ValueError(f"{value[:40]!r} has an exponent; write an integer or 'p/q'")
        return Fraction(value)
    raise TypeError(f"not an exact rational: {value!r}")


_new_object = object.__new__


def _fraction(n: int, d: int) -> Fraction:
    """The Fraction n/d for d > 0, reduced by one gcd and built directly
    from its two reduced integers, as ``Fraction._from_coprime_ints`` does
    from Python 3.12 on.  ``Fraction``'s operators dispatch on the other
    operand's type (an abstract-class check) and its constructor parses its
    arguments, before either does the integer work, so inner loops run on
    integers and build their results here."""
    g = gcd(n, d)
    if g != 1:
        n //= g
        d //= g
    f = _new_object(Fraction)
    f._numerator = n
    f._denominator = d
    return f


def _below(rng, n: int) -> int:
    """A uniform int in [0, n), drawn by the rejection loop that
    ``Random.randrange`` runs (``_randbelow_with_getrandbits``): the same
    draws, leaving ``rng`` in the same state, without randrange's argument
    handling.  ``randrange(a, b)`` is ``a + _below(rng, b - a)``."""
    if n < 1:
        raise ValueError(f"empty range for a draw below {n}")
    k = n.bit_length()
    r = rng.getrandbits(k)
    while r >= n:
        r = rng.getrandbits(k)
    return r


def check_index(k, what: str) -> None:
    """Refuse an index that is not an int >= 1: integer code would carry a
    bool, a float or a Fraction on silently."""
    if not isinstance(k, int) or isinstance(k, bool) or k < 1:
        raise ValueError(f"{what} must be an integer >= 1, got {k!r}")


def frac_floor(q: Fraction) -> int:
    return q.numerator // q.denominator


def fmt_frac(q: Fraction) -> str:
    """Render a Fraction as 'p' or 'p/q' (stable, JSON friendly)."""
    if q.denominator == 1:
        return str(q.numerator)
    return f"{q.numerator}/{q.denominator}"


# ---------------------------------------------------------------------------
# Extended nonnegative values


class ExtValue:
    """A nonnegative exact rational or +infinity.

    Behaves like an ordered additive monoid with scalar multiplication:
    finite + finite is exact, anything + inf is inf, and comparisons are
    total.  Negative finite values are rejected at construction.
    """

    __slots__ = ("_v",)

    def __init__(self, value: RatLike | None):
        if value is None:
            self._v: Fraction | None = None
        else:
            v = rat(value)
            if v._numerator < 0:
                raise ValueError(f"ExtValue must be nonnegative, got {v}")
            self._v = v

    @property
    def is_zero(self) -> bool:
        """``self == 0`` read off the stored numerator, without coercing 0."""
        return self._v is not None and self._v._numerator == 0

    # -- arithmetic

    def __add__(self, other: "ExtValue | RatLike") -> "ExtValue":
        other = ext(other)
        if self._v is None or other._v is None:
            return EXT_INF
        return ExtValue(self._v + other._v)

    __radd__ = __add__

    def __mul__(self, scalar: RatLike) -> "ExtValue":
        c = rat(scalar)
        if c < 0:
            raise ValueError("ExtValue scalar must be nonnegative")
        if self._v is None:
            return ExtValue(0) if c == 0 else EXT_INF
        return ExtValue(self._v * c)

    __rmul__ = __mul__

    # -- total order

    def __eq__(self, other: object) -> bool:
        if isinstance(other, str):  # a string is text, even when it reads "1/2"
            return NotImplemented
        try:
            o = ext(other)  # type: ignore[arg-type]
        except (TypeError, ValueError):
            return NotImplemented
        return self._v == o._v

    def __lt__(self, other: "ExtValue | RatLike") -> bool:
        o = ext(other)
        if self._v is None:
            return False
        if o._v is None:
            return True
        return self._v < o._v

    def __le__(self, other: "ExtValue | RatLike") -> bool:
        o = ext(other)
        return self == o or self < o

    def __gt__(self, other: "ExtValue | RatLike") -> bool:
        return not self <= ext(other)

    def __ge__(self, other: "ExtValue | RatLike") -> bool:
        return not self < ext(other)

    def __hash__(self) -> int:
        # the stored value's hash, so that equal values hash alike: an
        # ExtValue equals the int or Fraction it holds, and +inf equals None
        return hash(self._v)

    def __repr__(self) -> str:
        return f"ExtValue({self.to_json()!r})"

    def to_json(self) -> str:
        if self._v is None:
            return "inf"
        return fmt_frac(self._v)


EXT_INF = ExtValue(None)


def ext(value: "ExtValue | RatLike | None") -> ExtValue:
    """Coerce rationals (and None meaning +inf) to an ExtValue."""
    if isinstance(value, ExtValue):
        return value
    if value is None:
        return EXT_INF
    return ExtValue(value)


# ---------------------------------------------------------------------------
# Polynomials with exact integer-domain sign decisions


@dataclass(frozen=True, slots=True)
class Poly:
    """Polynomial with rational coefficients, ascending order, trimmed.

    ``nonneg_from`` and ``last_negative`` run on the primitive integer
    coefficients of a positive multiple of p (``_integer_part``) and read
    their candidates off the root cells of ``_root_cells``."""

    coeffs: tuple[Fraction, ...]

    @staticmethod
    def of(*coeffs: RatLike) -> "Poly":
        cs = [rat(c) for c in coeffs]
        while cs and cs[-1] == 0:
            cs.pop()
        return Poly(tuple(cs))

    @staticmethod
    def const(c: RatLike) -> "Poly":
        return Poly.of(c)

    @staticmethod
    def x() -> "Poly":
        return Poly.of(0, 1)

    @property
    def is_zero(self) -> bool:
        return not self.coeffs

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1  # -1 for the zero polynomial

    @property
    def lead(self) -> Fraction:
        if self.is_zero:
            return Fraction(0)
        return self.coeffs[-1]

    def __add__(self, other: "Poly") -> "Poly":
        n = max(len(self.coeffs), len(other.coeffs))
        cs = [Fraction(0)] * n
        for i, c in enumerate(self.coeffs):
            cs[i] += c
        for i, c in enumerate(other.coeffs):
            cs[i] += c
        return Poly.of(*cs)

    def __neg__(self) -> "Poly":
        return Poly(tuple(-c for c in self.coeffs))

    def __sub__(self, other: "Poly") -> "Poly":
        return self + (-other)

    def __mul__(self, other: "Poly") -> "Poly":
        if self.is_zero or other.is_zero:
            return Poly(())
        cs = [Fraction(0)] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            for j, b in enumerate(other.coeffs):
                cs[i + j] += a * b
        return Poly.of(*cs)

    def eval(self, t: RatLike) -> Fraction:
        q = rat(t)
        acc = Fraction(0)
        for c in reversed(self.coeffs):
            acc = acc * q + c
        return acc

    def compose_affine(self, a: int, b: int) -> "Poly":
        """Return p(a*t + b) as a polynomial in t."""
        inner = Poly.of(b, a)
        acc = Poly(())
        for c in reversed(self.coeffs):
            acc = acc * inner + Poly.const(c)
        return acc

    def nonneg_from(self, t0: int, strict: bool = False) -> tuple[bool, Optional[int]]:
        """Decide p(t) >= 0 (or > 0 when strict) for every integer t >= t0.

        Returns (True, None) or (False, t), t the first failing integer.  The
        first failure is t0 itself or lies just past a real root: in the
        root's unit cell (a, a + 1] when p is negative (or zero) there, or at
        a + 2 when p touches zero at the integer a + 1 and is negative after
        it.  So p is evaluated at t0 and at a + 1 and a + 2 for each cell
        that ``_root_cells`` isolates.
        """
        if self.is_zero:
            return ((True, None) if not strict else (False, t0))
        p = _integer_part(self)[2]
        candidates = {t0}
        for a in _root_cells(p, t0):
            candidates.update((a + 1, a + 2))
        for t in sorted(candidates):
            v = _horner(p, t)
            if v < 0 or (strict and v == 0):
                return (False, t)
        return (True, None)

    def last_negative(self, t0: int) -> Optional[int]:
        """The largest integer t >= t0 with p(t) < 0, or None when there is
        none.  Needs lead >= 0: then p(t + 1) >= 0 at the last negative t, so
        a real root lies in (t, t + 1], and the left ends of the isolated
        root cells are the only candidates.
        """
        if self.lead < 0:
            raise ValueError("p(t) < 0 for every large t")
        if self.is_zero:
            return None
        p = _integer_part(self)[2]
        return next((a for a in reversed(_root_cells(p, t0))
                     if a >= t0 and _horner(p, a) < 0), None)


# ---------------------------------------------------------------------------
# Integer polynomials: lists of int coefficients, highest degree first


def _horner(coeffs: tuple[int, ...], k: int) -> int:
    """The integer polynomial with coefficients ``coeffs``, highest degree
    first, at k."""
    acc = 0
    for c in coeffs:
        acc = acc * k + c
    return acc


def _integer_part(p: Poly) -> tuple[int, int, list[int]]:
    """(n, d, cs) with p = (n/d) * cs, n/d > 0 and cs the primitive integer
    coefficients of p, highest degree first; p is not zero."""
    d = lcm(*(c.denominator for c in p.coeffs))
    cs = [c.numerator * (d // c.denominator) for c in reversed(p.coeffs)]
    n = gcd(*cs)
    return n, d, [c // n for c in cs]


def _primitive(cs: list[int]) -> list[int]:
    """A nonzero integer polynomial divided by its content."""
    n = gcd(*cs)
    return cs if n == 1 else [c // n for c in cs]


def _derivative(cs: list[int]) -> list[int]:
    top = len(cs) - 1
    return [c * (top - i) for i, c in enumerate(cs[:-1])]


def _prem(a: list[int], b: list[int]) -> list[int]:
    """The remainder of a positive multiple of a by b (b not zero): each
    elimination step scales by |lc(b)|, so the sign of the remainder at
    every point is that of the true remainder over the rationals."""
    lb = abs(b[0])
    sb = 1 if b[0] > 0 else -1
    r = list(a)
    while len(r) >= len(b):
        c = r[0] * sb
        r = [lb * x for x in r]
        for i, y in enumerate(b):
            r[i] -= c * y
        while r and r[0] == 0:
            del r[0]
    return r


def _gcd(a: list[int], b: list[int]) -> list[int]:
    """The primitive gcd of two integer polynomials, leading coefficient
    positive: Euclid on primitive pseudo-remainders."""
    while b:
        a, b = b, _prem(a, b)
        if b:
            b = _primitive(b)
    a = _primitive(a)
    return a if a[0] > 0 else [-c for c in a]


def _exquo(a: list[int], b: list[int]) -> list[int]:
    """a / b for primitive integer polynomials where b divides a: the
    quotient has integer coefficients (Gauss's lemma), so every step divides
    exactly."""
    r = list(a)
    q = []
    for i in range(len(a) - len(b) + 1):
        c = r[i] // b[0]
        q.append(c)
        for j, y in enumerate(b):
            r[i + j] -= c * y
    return q


def _variations(chain: list[list[int]], t: int) -> int:
    """Sign changes along the Sturm chain at t, zeros skipped."""
    n, last = 0, 0
    for s in chain:
        v = _horner(s, t)
        if v:
            if last and (v > 0) != (last > 0):
                n += 1
            last = v
    return n


def _root_cells(p: list[int], t0: int) -> list[int]:
    """The integers a >= t0 - 1, ascending, whose unit cell (a, a + 1]
    holds a real root of the integer polynomial p.

    Sturm's theorem on the square-free part q = p / gcd(p, p'): the chain
    q, q', -rem(q, q'), ... changes sign V(a) - V(b) fewer times at b than
    at a, for a < b, where (a, b] holds that many distinct roots.  Every
    root lies in (-B, B) for B past Cauchy's bound, so bisecting (t0 - 1, B]
    down to unit cells isolates them (Collins and Akritas 1976; Yap 2000,
    ch. 7)."""
    dp = _derivative(p)
    q = _exquo(p, _gcd(p, dp)) if dp else [1]
    chain = [q]
    if len(q) > 1:
        chain.append(_primitive(_derivative(q)))
        while len(chain[-1]) > 1:
            chain.append(_primitive([-c for c in _prem(chain[-2], chain[-1])]))
    bound = 2 + max((abs(c) for c in q[1:]), default=0) // abs(q[0])
    lo = max(t0 - 1, -bound)
    cells = []
    stack = [(lo, _variations(chain, lo), bound, _variations(chain, bound))] if lo < bound else []
    while stack:
        a, va, b, vb = stack.pop()
        if va == vb:
            continue
        if b - a == 1:
            cells.append(a)
            continue
        m = (a + b) // 2
        vm = _variations(chain, m)
        stack += ((m, vm, b, vb), (a, va, m, vm))
    return cells


# ---------------------------------------------------------------------------
# Closed-form index sequences


@dataclass(frozen=True)
class RatAltSeq:
    """Exact closed form  k |-> (num(k) + (-1)^k * anum(k)) / den(k).

    den is positive for every k >= 1.  The class is a commutative ring under
    pointwise +, -, * and is closed under index shifts, which is what makes
    monotonicity and tail-sign questions decidable: an even/odd split turns
    each question into polynomial sign decisions on the numerator.  ``+``
    and ``*`` (and so ``-``) divide num, anum and den by their gcd
    (``_reduced``); the constructor takes the three polynomials as given.

    ``eval`` runs on ``_ints``, so a term costs integer Horner steps and
    one Fraction.
    """

    num: Poly
    anum: Poly
    den: Poly

    def __post_init__(self):
        ok, w = self.den.nonneg_from(1, strict=True)
        if not ok:
            raise ValueError(f"denominator must be positive for k >= 1, fails at k={w}")

    @cached_property
    def _ints(self) -> tuple[tuple[int, ...], ...]:
        """The coefficients of num, anum and den as integers over their
        least common denominator, highest degree first.  Built on the first
        ``eval``: most closed forms come out of the ring operations on the
        way to a decision and are never evaluated."""
        polys = (self.num, self.anum, self.den)
        m = lcm(*(c.denominator for p in polys for c in p.coeffs))
        return tuple(tuple(c.numerator * (m // c.denominator) for c in reversed(p.coeffs))
                     for p in polys)

    # -- constructors

    @staticmethod
    def const(c: RatLike) -> "RatAltSeq":
        return RatAltSeq(Poly.const(c), Poly(()), Poly.const(1))

    @staticmethod
    def index() -> "RatAltSeq":
        """The sequence x_k = k."""
        return RatAltSeq(Poly.x(), Poly(()), Poly.const(1))

    @staticmethod
    def inv_index() -> "RatAltSeq":
        """The sequence x_k = 1/k."""
        return RatAltSeq(Poly.const(1), Poly(()), Poly.x())

    @staticmethod
    def alt() -> "RatAltSeq":
        """The sequence x_k = (-1)^k."""
        return RatAltSeq(Poly(()), Poly.const(1), Poly.const(1))

    @staticmethod
    def lift(value: "RatAltSeq | RatLike") -> "RatAltSeq":
        if isinstance(value, RatAltSeq):
            return value
        return RatAltSeq.const(rat(value))

    # -- ring operations

    def __add__(self, other: "RatAltSeq | RatLike") -> "RatAltSeq":
        o = RatAltSeq.lift(other)
        return _reduced(self.num * o.den + o.num * self.den,
                        self.anum * o.den + o.anum * self.den, self.den * o.den)

    __radd__ = __add__

    def __neg__(self) -> "RatAltSeq":
        return RatAltSeq(-self.num, -self.anum, self.den)

    def __sub__(self, other: "RatAltSeq | RatLike") -> "RatAltSeq":
        return self + (-RatAltSeq.lift(other))

    def __rsub__(self, other: "RatAltSeq | RatLike") -> "RatAltSeq":
        return RatAltSeq.lift(other) + (-self)

    def __mul__(self, other: "RatAltSeq | RatLike") -> "RatAltSeq":
        o = RatAltSeq.lift(other)
        # ((-1)^k)^2 = 1 folds the product of the alternating parts into num
        return _reduced(self.num * o.num + self.anum * o.anum,
                        self.num * o.anum + self.anum * o.num, self.den * o.den)

    __rmul__ = __mul__

    def shift(self, h: int) -> "RatAltSeq":
        """The sequence k |-> value(k + h)."""
        anum = self.anum.compose_affine(1, h)
        return RatAltSeq(self.num.compose_affine(1, h), -anum if h % 2 else anum,
                         self.den.compose_affine(1, h))

    # -- evaluation

    def eval(self, k: int) -> Fraction:
        check_index(k, "the index of a closed form")
        num, anum, den = self._ints
        v = _horner(num, k)
        if anum:
            v += _horner(anum, k) if k % 2 == 0 else -_horner(anum, k)
        return _fraction(v, _horner(den, k))

    # -- exact decisions

    def nonneg_from(self, k0: int) -> tuple[bool, Optional[int]]:
        """Decide value(k) >= 0 for every integer k >= max(k0, 1)."""
        bad = []
        for p, t0, r in _parities(self, k0):
            ok, t = p.nonneg_from(t0)
            if not ok:
                bad.append(2 * t + r)
        return (False, min(bad)) if bad else (True, None)

    def nondecreasing_from(self, k0: int) -> tuple[bool, Optional[int]]:
        return (self.shift(1) - self).nonneg_from(k0)

    def nonincreasing_from(self, k0: int) -> tuple[bool, Optional[int]]:
        return (self - self.shift(1)).nonneg_from(k0)

    def limit(self):
        """Exact limit: a Fraction, '+inf', '-inf', or None if oscillating."""

        def over_den(p: Poly):
            if p.is_zero or p.degree < self.den.degree:
                return Fraction(0)
            if p.degree == self.den.degree:
                return p.lead / self.den.lead
            return "+inf" if p.lead > 0 else "-inf"  # den.lead > 0

        if over_den(self.anum) != 0:
            return None
        return over_den(self.num)

    def eventually_geq(self, c: RatLike) -> Optional[int]:
        """Smallest N >= 1 with value(k) >= c for all k >= N, or None."""
        return _eventual_nonneg_index(self - RatAltSeq.const(rat(c)))

    def eventually_leq(self, c: RatLike) -> Optional[int]:
        return _eventual_nonneg_index(RatAltSeq.const(rat(c)) - self)


def _reduced(num: Poly, anum: Poly, den: Poly) -> RatAltSeq:
    """The closed form (num, anum, den) with the gcd g of the three divided
    out.  g and den have positive leading coefficients, so the reduced den
    has one too, and no sign flip can help when g changes sign at some
    k >= 1: then the reduced den is not positive there and the unreduced
    form is kept.  den = (2k - 3)^2 over num = (2k - 3) k would reduce to k
    over 2k - 3, which is -1 at k = 1."""
    parts = [_integer_part(p) if p.coeffs else None for p in (den, num, anum)]
    g = parts[0][2]
    for part in parts[1:]:
        if part and len(g) > 1:
            g = _gcd(g, part[2])
    if len(g) == 1:
        return RatAltSeq(num, anum, den)
    rd, rn, ra = (Poly(()) if part is None else
                  Poly(tuple(_fraction(part[0] * c, part[1])
                             for c in reversed(_exquo(part[2], g))))
                  for part in parts)
    try:
        return RatAltSeq(rn, ra, rd)
    except ValueError:
        return RatAltSeq(num, anum, den)


def _parities(g: RatAltSeq, k0: int):
    """The numerator of g on even and on odd indices k >= max(k0, 1), as
    (p, t0, r): k = 2t + r has the sign of p(t), for every integer t >= t0."""
    k0 = max(k0, 1)
    return (((g.num + g.anum).compose_affine(2, 0), (k0 + 1) // 2, 0),
            ((g.num - g.anum).compose_affine(2, 1), k0 // 2, 1))


def _eventual_nonneg_index(g: RatAltSeq) -> Optional[int]:
    """One past the last index k >= 1 with g(k) < 0 (1 when there is none),
    or None when the negative terms never stop."""
    n = 1
    for p, t0, r in _parities(g, 1):
        if p.lead < 0:
            return None
        t = p.last_negative(t0)
        if t is not None:
            n = max(n, 2 * t + r + 1)
    return n
