"""Exact arithmetic kernel.

Three pieces live here and everything else in the package builds on them:

* ``ExtValue`` -- a nonnegative rational or ``+inf``, the value domain of
  every semimetric and extended norm in the package.
* ``Poly`` -- integer-indexed polynomials with rational coefficients and an
  exact decision procedure for "p(t) >= 0 for every integer t >= t0".
* ``RatAltSeq`` -- closed forms ``(num(k) + (-1)^k * anum(k)) / den(k)`` for
  sequences indexed by k = 1, 2, ...  This class is the tail-reasoning
  engine: sign decisions, monotonicity, limits and clamp indices are all
  decided exactly, never by sampling.

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
            if v < 0:
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
        return hash(("ExtValue", self._v))

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


@dataclass(frozen=True)
class Poly:
    """Polynomial with rational coefficients, ascending order, trimmed."""

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

    def root_bound(self) -> Fraction:
        """Cauchy bound: all real roots have magnitude strictly below this."""
        if self.degree <= 0:
            return Fraction(1)
        lead = abs(self.lead)
        top = max(abs(c) for c in self.coeffs[:-1])
        return 1 + top / lead

    def nonneg_from(self, t0: int, strict: bool = False) -> tuple[bool, Optional[int]]:
        """Decide p(t) >= 0 (or > 0 when strict) for every integer t >= t0.

        Returns (True, None) or (False, witness_t).  Exact: beyond the Cauchy
        root bound the sign equals the sign of the leading coefficient, so a
        finite scan plus the leading sign decides the statement.
        """
        if self.is_zero:
            return ((True, None) if not strict else (False, t0))
        hi = max(t0, frac_floor(self.root_bound()) + 1)
        for t in range(t0, hi + 1):
            v = self.eval(t)
            if v < 0 or (strict and v == 0):
                return (False, t)
        # the scan crossed the root bound, so the tail sign is the lead sign
        if self.lead < 0:  # pragma: no cover - the scan above must catch this
            return (False, hi)
        return (True, None)

    def last_negative(self, t0: int) -> Optional[int]:
        """The largest integer t >= t0 with p(t) < 0, or None when there is
        none.  Needs lead >= 0: from the Cauchy root bound on p keeps the
        sign of its leading coefficient, so the scan runs down from there.
        """
        if self.lead < 0:
            raise ValueError("p(t) < 0 for every large t")
        for t in range(frac_floor(self.root_bound()), t0 - 1, -1):
            if self.eval(t) < 0:
                return t
        return None


# ---------------------------------------------------------------------------
# Closed-form index sequences


@dataclass(frozen=True)
class RatAltSeq:
    """Exact closed form  k |-> (num(k) + (-1)^k * anum(k)) / den(k).

    den is positive for every k >= 1.  The class is a commutative ring under
    pointwise +, -, * and is closed under index shifts, which is what makes
    monotonicity and tail-sign questions decidable: an even/odd split turns
    each question into polynomial sign decisions on the numerator.

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
        return RatAltSeq(self.num * o.den + o.num * self.den,
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
        return RatAltSeq(self.num * o.num + self.anum * o.anum,
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


def _horner(coeffs: tuple[int, ...], k: int) -> int:
    """The integer polynomial with coefficients ``coeffs``, highest degree
    first, at k."""
    acc = 0
    for c in coeffs:
        acc = acc * k + c
    return acc


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
