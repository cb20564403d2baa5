"""Truncation operators and their algebra.

For a pair p = (a, b) the two clamps are

    clamp_low_high(p, x)  = (x /\\ b) \\/ a      (meet with b, then join a)
    clamp_high_low(p, x)  = (x \\/ a) /\\ b      (join a, then meet b)

A pair is canonical when a <= b; canonical pairs are the index set for
derived semimetrics.  Non-canonical pairs are deliberately allowed as
values because pair composition can produce them.

The two ell-group laws behind unbounded convergence, the split of
|x - y| /\\ a into two clamp differences (``decompose_abs_meet``) and the
base-point bound (``clamp_difference_bound``), are decided on the carriers
with rational coordinates, ``QLine`` and ``QVec``, one coordinate at a time
on integers: every operation in them commutes with multiplication by a
positive integer, so scaling a coordinate's values by the lcm of their
denominators preserves both = and <=.  Any other carrier is refused with
``ValueError``.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import lcm

from .carriers import Carrier, CheckResult, FiniteLattice, GroupCarrier


@dataclass(frozen=True, slots=True)
class TruncationPair:
    """An ordered pair of carrier elements with a canonicity flag.

    Canonicity (a <= b) is recorded, never required: composing two canonical
    pairs may leave the canonical set, and the composite is still a valid
    description of the composed operator.
    """

    low: object
    high: object
    canonical: bool

    @staticmethod
    def of(L: Carrier, low, high) -> "TruncationPair":
        low, high = L.check_element(low), L.check_element(high)
        return TruncationPair(low, high, L._leq(low, high))


def canonical_pairs(L: Carrier):
    """All canonical pairs of a finite carrier, in element order."""
    elems = L.elements()
    if elems is None:
        raise ValueError("canonical pair enumeration needs a finite carrier")
    return [TruncationPair(a, b, True) for a in elems for b in elems if L._leq(a, b)]


def _clamp(L: Carrier, low, high, x):
    """(x /\\ high) \\/ low on trusted elements: the one clamp body."""
    return L._join(L._meet(x, high), low)


def _clamp_map(L: FiniteLattice, low, high) -> bytes:
    """The clamp of (low, high) on trusted elements of a finite lattice as a
    byte map of element indices, entry i the index of (e_i /\\ high) \\/ low:
    high's meet row read through low's join row by ``bytes.translate``."""
    n, h, lo = L._n, L._index[high], L._index[low]
    return L._meet_table[h * n:(h + 1) * n].translate(
        L._join_table[lo * n:(lo + 1) * n] + bytes(256 - n))


def truncate_f(L: Carrier, p: TruncationPair, x):
    """(x /\\ high) \\/ low, checking x and both ends of p."""
    return _clamp(L, L.check_element(p.low), L.check_element(p.high), L.check_element(x))


def truncate_g(L: Carrier, p: TruncationPair, x):
    """(x \\/ low) /\\ high."""
    return L.meet(L.join(x, p.low), p.high)


def compose_truncations(L: Carrier, outer: TruncationPair, inner: TruncationPair) -> TruncationPair:
    """The pair describing outer-after-inner on a distributive carrier.

    With outer = (a, b) and inner = (c, d) the composite clamp is the clamp
    of the pair (a \\/ (b /\\ c), b /\\ d); distributivity is what makes the
    pointwise identity hold, so nondistributive carriers are rejected.
    Each of the four ends is checked once.
    """
    if not L.distributive:
        raise ValueError(f"carrier {L.name!r} is not distributive; composition law unavailable")
    a, b, c, d = (L.check_element(v) for v in (outer.low, outer.high, inner.low, inner.high))
    low, high = L._join(a, L._meet(b, c)), L._meet(b, d)
    return TruncationPair(low, high, L._leq(low, high))


def is_truncation_hom(L: FiniteLattice, p: TruncationPair) -> CheckResult:
    """Exhaustively decide whether the clamp of p preserves meets and joins.

    Finite lattices only; the witness is the first failing (x, y, op) in
    element order, meet before join.  The pair is checked once and the
    clamp read from its byte map (``_clamp_map``): no element is clamped.
    """
    if not isinstance(L, FiniteLattice):
        raise ValueError("homomorphism check needs a finite carrier")
    f = _clamp_map(L, L.check_element(p.low), L.check_element(p.high))
    n, meet, join, elems = L._n, L._meet_table, L._join_table, L._elements
    for i in range(n):
        row, fi = i * n, f[i] * n
        for j in range(n):
            if f[meet[row + j]] != meet[fi + f[j]]:
                return CheckResult(False, witness=(elems[i], elems[j], "meet"))
            if f[join[row + j]] != join[fi + f[j]]:
                return CheckResult(False, witness=(elems[i], elems[j], "join"))
    return CheckResult(True)


# ---------------------------------------------------------------------------
# The ell-group decomposition behind unbounded convergence


def _coordinate_map(G: Carrier):
    """The carrier's map from a point to its tuple of ``Fraction``
    coordinates; a carrier without one (anything but ``QLine`` and ``QVec``)
    is refused."""
    coordinates = getattr(G, "_coordinates", None)
    if coordinates is None:
        raise ValueError(f"carrier {G.name!r} has no rational coordinates; "
                         "the ell-group laws are decided on QLine and QVec")
    return coordinates


def _check_cap(G: GroupCarrier, a) -> None:
    """Reject a cap that is not a positive element (``a`` is checked)."""
    if not G._leq(G.zero, a):
        raise ValueError("the cap must be a positive element")


def decompose_abs_meet(G: GroupCarrier, x, y, a) -> bool:
    """Whether |x - y| /\\ a splits into clamp differences: with
    p- = (y - a, y) and p+ = (y, y + a),

        |x - y| /\\ a = |f_{p-}(x) - f_{p-}(y)| + |f_{p+}(x) - f_{p+}(y)|

    which holds exactly on every abelian ell-group for a >= 0.

    Decided on ``QLine`` and ``QVec``, one coordinate at a time on integers;
    any other carrier is refused with ``ValueError``.  Every argument is
    validated once at entry (``CarrierMismatch`` for a foreign element,
    ``ValueError`` for a cap that is not positive).
    """
    coordinates = _coordinate_map(G)
    x = G.check_element(x)
    y = G.check_element(y)
    a = G.check_element(a)
    _check_cap(G, a)
    for xi, yi, ai in zip(coordinates(x), coordinates(y), coordinates(a)):
        dx, dy, da = xi._denominator, yi._denominator, ai._denominator
        d = lcm(dx, dy, da)
        x_, y_ = xi._numerator * (d // dx), yi._numerator * (d // dy)
        a_ = ai._numerator * (d // da)
        # |x - y| /\ a
        lhs = x_ - y_ if x_ >= y_ else y_ - x_
        lhs = lhs if lhs <= a_ else a_
        low, high = y_ - a_, y_ + a_
        # |f_{p-}(x) - f_{p-}(y)|, with f_{p-}(y) = (y /\ y) \/ low = y \/ low
        fx = x_ if x_ <= y_ else y_
        fx = fx if fx >= low else low
        fy = y_ if y_ >= low else low
        term_low = fx - fy if fx >= fy else fy - fx
        # |f_{p+}(x) - f_{p+}(y)|
        fx = x_ if x_ <= high else high
        fx = fx if fx >= y_ else y_
        fy = y_ if y_ <= high else high
        fy = fy if fy >= y_ else y_
        term_high = fx - fy if fx >= fy else fy - fx
        if lhs != term_low + term_high:
            return False
    return True


def clamp_difference_bound(G: GroupCarrier, s, x, y, a) -> bool:
    """Whether the clamp over (s, s + a), for a base point s and a cap
    a >= 0, contracts the difference of x and y below |x - y| /\\ a.

    Decided on ``QLine`` and ``QVec``, one coordinate at a time on integers;
    any other carrier is refused with ``ValueError``.  Every argument is
    validated once at entry (``CarrierMismatch`` for a foreign element,
    ``ValueError`` for a cap that is not positive).
    """
    coordinates = _coordinate_map(G)
    s = G.check_element(s)
    x = G.check_element(x)
    y = G.check_element(y)
    a = G.check_element(a)
    _check_cap(G, a)
    for si, xi, yi, ai in zip(coordinates(s), coordinates(x), coordinates(y), coordinates(a)):
        ds, dx, dy, da = si._denominator, xi._denominator, yi._denominator, ai._denominator
        d = lcm(ds, dx, dy, da)
        s_, x_ = si._numerator * (d // ds), xi._numerator * (d // dx)
        y_, a_ = yi._numerator * (d // dy), ai._numerator * (d // da)
        high = s_ + a_
        # |f(x) - f(y)| for the clamp f over (s, s + a)
        fx = x_ if x_ <= high else high
        fx = fx if fx >= s_ else s_
        fy = y_ if y_ <= high else high
        fy = fy if fy >= s_ else s_
        diff = fx - fy if fx >= fy else fy - fx
        # |x - y| /\ a
        cap = x_ - y_ if x_ >= y_ else y_ - x_
        cap = cap if cap <= a_ else a_
        if diff > cap:
            return False
    return True
