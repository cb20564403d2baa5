"""Exact arithmetic kernel.

Three pieces live here and everything else in the package builds on them:

* ``ExtValue`` -- a nonnegative rational or ``+inf``, the value domain of
  every semimetric and extended norm in the package.
* ``Poly`` -- integer-indexed polynomials with rational coefficients and an
  exact decision procedure for "p(t) >= 0 for every integer t >= t0".
* ``RatAltSeq`` -- closed forms ``A(k)/B(k) + (-1)^k * C(k)/D(k)`` for
  sequences indexed by k = 1, 2, ...  This class is the tail-reasoning
  engine: sign decisions, monotonicity, limits and clamp indices are all
  decided exactly, never by sampling.

Floats never appear in this module.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Union

RatLike = Union[int, str, Fraction]


def rat(value: RatLike) -> Fraction:
    """Coerce an int, a 'p/q' string, or a Fraction to an exact Fraction."""
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int) and not isinstance(value, bool):
        return Fraction(value)
    if isinstance(value, str):
        return Fraction(value)
    raise TypeError(f"not an exact rational: {value!r}")


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

    # -- queries

    @property
    def is_finite(self) -> bool:
        return self._v is not None

    @property
    def finite(self) -> Fraction:
        if self._v is None:
            raise ValueError("value is infinite")
        return self._v

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

    def _key(self, other: "ExtValue | RatLike") -> "ExtValue":
        return ext(other)

    def __eq__(self, other: object) -> bool:
        try:
            o = ext(other)  # type: ignore[arg-type]
        except (TypeError, ValueError):
            return NotImplemented
        return self._v == o._v

    def __lt__(self, other: "ExtValue | RatLike") -> bool:
        o = self._key(other)
        if self._v is None:
            return False
        if o._v is None:
            return True
        return self._v < o._v

    def __le__(self, other: "ExtValue | RatLike") -> bool:
        o = self._key(other)
        return self == o or self < o

    def __gt__(self, other: "ExtValue | RatLike") -> bool:
        return not self <= self._key(other)

    def __ge__(self, other: "ExtValue | RatLike") -> bool:
        return not self < self._key(other)

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


def ext_sum(values) -> ExtValue:
    total = ExtValue(0)
    for v in values:
        total = total + ext(v)
    return total


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


# ---------------------------------------------------------------------------
# Closed-form index sequences


def _require_positive_den(p: Poly, what: str) -> None:
    ok, w = p.nonneg_from(1, strict=True)
    if not ok:
        raise ValueError(f"{what} must be positive for k >= 1, fails at k={w}")


@dataclass(frozen=True)
class RatAltSeq:
    """Exact closed form  k |-> num(k)/den(k) + (-1)^k * anum(k)/aden(k).

    The class is a commutative ring under pointwise +, -, * and is closed
    under index shifts, which is what makes monotonicity and tail-sign
    questions decidable: an even/odd split turns each question into finitely
    many polynomial sign decisions.
    """

    num: Poly
    den: Poly
    anum: Poly
    aden: Poly

    def __post_init__(self):
        _require_positive_den(self.den, "denominator")
        _require_positive_den(self.aden, "alternating denominator")

    # -- constructors

    @staticmethod
    def const(c: RatLike) -> "RatAltSeq":
        return RatAltSeq(Poly.const(c), Poly.const(1), Poly(()), Poly.const(1))

    @staticmethod
    def index() -> "RatAltSeq":
        """The sequence x_k = k."""
        return RatAltSeq(Poly.x(), Poly.const(1), Poly(()), Poly.const(1))

    @staticmethod
    def inv_index() -> "RatAltSeq":
        """The sequence x_k = 1/k."""
        return RatAltSeq(Poly.const(1), Poly.x(), Poly(()), Poly.const(1))

    @staticmethod
    def alt() -> "RatAltSeq":
        """The sequence x_k = (-1)^k."""
        return RatAltSeq(Poly(()), Poly.const(1), Poly.const(1), Poly.const(1))

    @staticmethod
    def lift(value: "RatAltSeq | RatLike") -> "RatAltSeq":
        if isinstance(value, RatAltSeq):
            return value
        return RatAltSeq.const(rat(value))

    # -- ring operations

    def __add__(self, other: "RatAltSeq | RatLike") -> "RatAltSeq":
        o = RatAltSeq.lift(other)
        num = self.num * o.den + o.num * self.den
        den = self.den * o.den
        anum = self.anum * o.aden + o.anum * self.aden
        aden = self.aden * o.aden
        return RatAltSeq(num, den, anum, aden)

    __radd__ = __add__

    def __neg__(self) -> "RatAltSeq":
        return RatAltSeq(-self.num, self.den, -self.anum, self.aden)

    def __sub__(self, other: "RatAltSeq | RatLike") -> "RatAltSeq":
        return self + (-RatAltSeq.lift(other))

    def __rsub__(self, other: "RatAltSeq | RatLike") -> "RatAltSeq":
        return RatAltSeq.lift(other) + (-self)

    def __mul__(self, other: "RatAltSeq | RatLike") -> "RatAltSeq":
        o = RatAltSeq.lift(other)
        num = self.num * o.num * self.aden * o.aden + self.anum * o.anum * self.den * o.den
        den = self.den * o.den * self.aden * o.aden
        anum = self.num * o.anum * self.aden * o.den + self.anum * o.num * self.den * o.aden
        return RatAltSeq(num, den, anum, den)

    __rmul__ = __mul__

    def shift(self, h: int) -> "RatAltSeq":
        """The sequence k |-> value(k + h)."""
        num = self.num.compose_affine(1, h)
        den = self.den.compose_affine(1, h)
        anum = self.anum.compose_affine(1, h)
        aden = self.aden.compose_affine(1, h)
        if h % 2 == 1:
            anum = -anum
        return RatAltSeq(num, den, anum, aden)

    def subst_affine(self, a: int, b: int) -> "RatAltSeq":
        """The sequence j |-> value(a*j + b).

        A plain shift (a == 1) keeps any alternating part; other slopes are
        accepted only when the alternating part vanishes, since (-1)^(a*j+b)
        is not expressible in this closed form for odd a > 1.
        """
        if a < 1:
            raise ValueError("substitution slope must be a positive integer")
        if a == 1:
            return self.shift(b)
        if not self.anum.is_zero:
            raise ValueError("affine substitution with alternating part needs a == 1")
        return RatAltSeq(
            self.num.compose_affine(a, b),
            self.den.compose_affine(a, b),
            Poly(()),
            Poly.const(1),
        )

    # -- evaluation

    def eval(self, k: int) -> Fraction:
        if k < 1:
            raise ValueError("index sequences start at k = 1")
        v = self.num.eval(k) / self.den.eval(k)
        if not self.anum.is_zero:
            s = -1 if k % 2 else 1
            v += s * self.anum.eval(k) / self.aden.eval(k)
        return v

    # -- exact decisions

    def nonneg_from(self, k0: int, strict: bool = False) -> tuple[bool, Optional[int]]:
        """Decide value(k) >= 0 (or > 0) for every integer k >= max(k0, 1)."""
        k0 = max(k0, 1)
        # common positive denominator den*aden; numerator splits by parity
        base = self.num * self.aden
        wobble = self.anum * self.den
        results: list[tuple[bool, Optional[int]]] = []
        # even k = 2t, t >= ceil(k0/2) and k >= 2
        t0_even = max((k0 + 1) // 2, 1)
        p_even = (base + wobble).compose_affine(2, 0)
        ok, w = p_even.nonneg_from(t0_even, strict)
        results.append((ok, None if w is None else 2 * w))
        # odd k = 2t+1, t >= ceil((k0-1)/2)
        t0_odd = max((k0 - 1 + 1) // 2, 0)
        p_odd = (base - wobble).compose_affine(2, 1)
        ok, w = p_odd.nonneg_from(t0_odd, strict)
        results.append((ok, None if w is None else 2 * w + 1))
        bad = [w for ok, w in results if not ok]
        if bad:
            return (False, min(w for w in bad if w is not None))
        return (True, None)

    def is_zero_from(self, k0: int) -> tuple[bool, Optional[int]]:
        ok1, w1 = self.nonneg_from(k0)
        ok2, w2 = (-self).nonneg_from(k0)
        if ok1 and ok2:
            return (True, None)
        ws = [w for w in (w1, w2) if w is not None]
        return (False, min(ws) if ws else max(k0, 1))

    def nondecreasing_from(self, k0: int) -> tuple[bool, Optional[int]]:
        return (self.shift(1) - self).nonneg_from(k0)

    def nonincreasing_from(self, k0: int) -> tuple[bool, Optional[int]]:
        return (self - self.shift(1)).nonneg_from(k0)

    def constant_value(self) -> Optional[Fraction]:
        v = self.eval(1)
        if (self - RatAltSeq.const(v)).is_zero_from(1)[0]:
            return v
        return None

    def limit(self):
        """Exact limit: a Fraction, '+inf', '-inf', or None if oscillating."""

        def ratio_limit(num: Poly, den: Poly):
            if num.is_zero:
                return Fraction(0)
            dn, dd = num.degree, den.degree
            if dn < dd:
                return Fraction(0)
            if dn == dd:
                return num.lead / den.lead
            return "+inf" if num.lead / den.lead > 0 else "-inf"

        main = ratio_limit(self.num, self.den)
        if self.anum.is_zero:
            return main
        wobble = ratio_limit(self.anum, self.aden)
        if wobble == 0:
            return main
        return None

    def eventually_geq(self, c: RatLike, k0: int = 1) -> Optional[int]:
        """Smallest checked N >= k0 with value(k) >= c for all k >= N, or None."""
        g = self - RatAltSeq.const(rat(c))
        return _eventual_nonneg_index(g, k0)

    def eventually_leq(self, c: RatLike, k0: int = 1) -> Optional[int]:
        g = RatAltSeq.const(rat(c)) - self
        return _eventual_nonneg_index(g, k0)


def _eventual_nonneg_index(g: RatAltSeq, k0: int) -> Optional[int]:
    ok, w = g.nonneg_from(k0)
    if ok:
        return max(k0, 1)
    # scan forward; beyond twice the parity root bounds the sign is settled
    base = g.num * g.aden
    wobble = g.anum * g.den
    bound = 0
    for p in ((base + wobble).compose_affine(2, 0), (base - wobble).compose_affine(2, 1)):
        if not p.is_zero:
            bound = max(bound, 2 * (frac_floor(p.root_bound()) + 1) + 1)
    assert w is not None
    for n in range(w + 1, max(k0, bound) + 2):
        ok, _ = g.nonneg_from(n)
        if ok:
            return n
    return None
