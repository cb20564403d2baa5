"""Sequences with closed-form descriptors, order witnesses, certificates.

Sequences are 1-indexed total functions into a carrier.  A descriptor, when
present, is a machine-checkable closed form that licenses exact tail
reasoning: eventually constant, a rational closed form with an alternating
part, or a moving window of atoms (the sliding singletons and unit vectors,
the growing prefixes, and their complements within a cofinite set).
Everything downstream grades its verdicts by whether a descriptor made a
symbolic argument possible.  This is the only module that reads
descriptors; what one proves is decided here: where the tail settles
(``settled``), its clamped image (``clamped_descriptor``), its sup and inf
(``chain_bound``), whether it is monotone (``monotone``) and whether it
stays in the intervals of an O2 witness (``containment``).  The JSON term
grammar (``parse_sequence_term``) is scalar only: a term document is a
closed form on the rational line, and code builds every other sequence.
"""

from __future__ import annotations

import functools
import math
import reprlib
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Optional

from .carriers import Carrier
from .exact import RatAltSeq, check_index, rat
from .spaces import NO_BOUND, C00Space, C00Vec, FinCofAlgebra, FinCofSet, QLine
from .truncation import TruncationPair, truncate_f
from .verdicts import Verdict

# ---------------------------------------------------------------------------
# Descriptors


@dataclass(frozen=True, slots=True)
class EventuallyConstant:
    """term(k) = value for every k >= from_index."""

    value: object
    from_index: int = 1


@dataclass(frozen=True, slots=True)
class TailClosedForm:
    """term(k) = series.eval(k) for every k >= 1 (rational-line carriers)."""

    series: RatAltSeq


@dataclass(frozen=True, slots=True)
class Window:
    """Terms built from the window W(k) = {i >= 1 : lo(k) <= i <= k}, where
    lo(k) = k when sliding and 1 when growing.

    On the finite/cofinite algebra x_k is W(k), or within minus W(k) when
    within is set; on c00 it is the indicator vector of W(k).
    """

    sliding: bool
    within: Optional[FinCofSet] = None

    def term(self, k: int) -> FinCofSet:
        """x_k on the finite/cofinite algebra."""
        window = range(k if self.sliding else 1, k + 1)
        if self.within is None:
            return FinCofSet.finite(window)
        return self.within.intersect(FinCofSet.cofinite_complement(window))


@dataclass(frozen=True, slots=True)
class SequenceFamily:
    """A named 1-indexed sequence in a carrier, with optional closed form."""

    name: str
    carrier: Carrier
    term: Callable[[int], object]
    descriptor: object = None

    def value(self, k: int):
        """The k-th term, checked: the one place a term enters the carrier."""
        check_index(k, "a sequence index")
        return self.carrier.check_element(self.term(k))


# ---------------------------------------------------------------------------
# Factories


def constant_sequence(L: Carrier, value, name: Optional[str] = None) -> SequenceFamily:
    value = L.check_element(value)
    return SequenceFamily(name or f"const({value!r})", L, lambda k: value,
                          EventuallyConstant(value, 1))


def series_sequence(Q: Carrier, series: RatAltSeq, name: str) -> SequenceFamily:
    return SequenceFamily(name, Q, series.eval, TailClosedForm(series))


def window_sequence(L: Carrier, window: Window, name: str) -> SequenceFamily:
    """The window's terms on the finite/cofinite algebra or on c00.

    A complement within a finite set (its terms settle) or on c00 (its terms
    are not finitely supported), or another carrier, is refused: ValueError."""
    if isinstance(L, FinCofAlgebra):
        if window.within is not None and not L.check_element(window.within).cofinite:
            raise ValueError(f"a complement window needs a cofinite within, got {window.within!r}")
        return SequenceFamily(name, L, window.term, window)
    if isinstance(L, C00Space) and window.within is None:
        return SequenceFamily(name, L, lambda k: C00Vec.indicator(window.term(k).atoms), window)
    raise ValueError(f"{window!r} has no terms in the carrier {L.name!r}")


# ---------------------------------------------------------------------------
# Witnesses and certificates


@dataclass(frozen=True, slots=True)
class O1Witness:
    """Sandwich data: lower nondecreasing to the limit, upper nonincreasing."""

    lower: SequenceFamily
    upper: SequenceFamily


@dataclass(frozen=True, slots=True)
class O2Witness:
    """Interval data: x_k lies in [lower(j), upper(j)] once k >= k_of(j),
    with the eventual index k_of(j) = j + offset for an int offset >= 0;
    the symbolic containment arguments read the offset."""

    lower: SequenceFamily
    upper: SequenceFamily
    offset: int

    def __post_init__(self):
        if type(self.offset) is not int or self.offset < 0:
            raise ValueError(f"eventual-index offset must be an integer >= 0, got {self.offset!r}")

    @staticmethod
    def affine(lower: SequenceFamily, upper: SequenceFamily, offset: int) -> "O2Witness":
        """Only the benchmark's closed-forms workload calls this alias."""
        return O2Witness(lower, upper, offset)

    def k_of(self, j: int) -> int:
        return j + self.offset


def o2_from_o1(w: O1Witness) -> "O2Witness":
    """Replay an O1 sandwich as interval data: the witness chains themselves
    bound the tail, with containment from index j onward."""
    return O2Witness(w.lower, w.upper, 0)


@dataclass(frozen=True, slots=True)
class MetricCertificate:
    """modulus(eps, semimetric name) = index N with d(x_k, x) <= eps beyond N;
    an int or a Fraction, read by its exact ceiling."""

    modulus: Callable[[Fraction, str], int | Fraction]

    @staticmethod
    def uniform(fn: Callable[[Fraction], int | Fraction]) -> "MetricCertificate":
        return MetricCertificate(lambda eps, _name: fn(eps))

    def at(self, eps, name: str = "") -> int:
        n = self.modulus(rat(eps), name)
        if type(n) is bool or not isinstance(n, (int, Fraction)):
            raise ValueError(f"a modulus must be an int or a Fraction, got {n!r}")
        return max(math.ceil(n), 1)


# ---------------------------------------------------------------------------
# What a descriptor proves about a tail

NEVER_CONSTANT = object()  # settled(): the terms provably never settle


def settled(seq: SequenceFamily):
    """Where the descriptor proves the sequence settles.

    Returns (i, value) when every term from index i on equals value,
    (1, NEVER_CONSTANT) for a window, whose terms never settle, and None
    when the descriptor proves neither.  Never settling is not diverging:
    the singleton stream {k} order-converges to the empty set.
    """
    d = seq.descriptor
    if isinstance(d, EventuallyConstant):
        return d.from_index, seq.carrier.normalize(d.value)
    if isinstance(d, Window):
        return 1, NEVER_CONSTANT
    return None


def _constant_tail(seq: SequenceFamily):
    """settled(seq), value checked, when it proves seq constant, else None."""
    tail = settled(seq)
    if tail is None or tail[1] is NEVER_CONSTANT:
        return None
    return tail[0], seq.carrier.check_element(tail[1])


def clamped_descriptor(seq: SequenceFamily, p: TruncationPair):
    """The descriptor of k -> clamp_p(x_k) when the clamp's effect on the
    tail is decidable, else None.  On c00 a clamp zeroes every coordinate
    past m, the pair's largest support index, so a window's image settles
    once W(k) & [1, m] stops changing: at m + 1 sliding, max(m, 1) growing."""
    L = seq.carrier
    d = seq.descriptor
    if isinstance(d, EventuallyConstant):
        return EventuallyConstant(truncate_f(L, p, L.normalize(d.value)), d.from_index)
    if isinstance(d, TailClosedForm):
        series, a, b = d.series, rat(p.low), rat(p.high)
        hit_top = series.eventually_geq(b)
        hit_bottom = series.eventually_leq(a)
        if hit_top is not None:
            return EventuallyConstant(L.normalize(b), hit_top)
        if hit_bottom is not None:
            return EventuallyConstant(L.normalize(a), hit_bottom)
        if series.eventually_geq(a) == 1 and series.eventually_leq(b) == 1:
            return d
    if isinstance(d, Window) and isinstance(L, C00Space):
        m = max(p.low.max_support(), p.high.max_support())
        knee = m + 1 if d.sliding else max(m, 1)
        return EventuallyConstant(truncate_f(L, p, seq.value(knee)), knee)
    return None


@dataclass(frozen=True, slots=True)
class BoundClaim:
    """Outcome of a sup/inf query over an enumerated tail {term(k): k >= k0}.

    value is the bound, NO_BOUND when provably absent from the carrier, or
    None when undecided; a decided value rests on a symbolic argument, so
    it is exact.
    """

    value: object
    detail: str = ""

    @property
    def exact(self) -> bool:
        return self.value is not None


def chain_bound(seq: SequenceFamily, kind: str, k0: int = 1) -> BoundClaim:
    """Sup/inf of the tail of a sequence where its descriptor decides it,
    else undecided.

    A window's bounds are the union and the intersection of the tail's
    windows, exact because atoms are the integers >= 1; a complement swaps
    them and meets them with within (De Morgan).  On c00 a cofinite bound
    has no finitely supported counterpart.
    """
    if kind not in ("sup", "inf"):
        raise ValueError("kind must be 'sup' or 'inf'")
    check_index(k0, "k0")
    L = seq.carrier
    d = seq.descriptor

    if isinstance(d, EventuallyConstant):
        fold = L._join if kind == "sup" else L._meet
        values = [seq.value(k) for k in range(k0, max(d.from_index, k0))]
        values.append(L.check_element(d.value))
        return BoundClaim(functools.reduce(fold, values), "eventually constant tail")
    if isinstance(d, TailClosedForm):
        series = d.series
        limit = series.limit()
        if series.nondecreasing_from(k0)[0]:
            if kind == "inf":
                return BoundClaim(L.normalize(series.eval(k0)), "nondecreasing from k0")
            if isinstance(limit, Fraction):
                return BoundClaim(L.normalize(limit), "monotone limit")
            return BoundClaim(NO_BOUND, "increases without bound")
        if series.nonincreasing_from(k0)[0]:
            if kind == "sup":
                return BoundClaim(L.normalize(series.eval(k0)), "nonincreasing from k0")
            if isinstance(limit, Fraction):
                return BoundClaim(L.normalize(limit), "monotone limit")
            return BoundClaim(NO_BOUND, "decreases without bound")
        return BoundClaim(None, "tail is not monotone")
    if isinstance(d, Window):
        union = FinCofSet.cofinite_complement(range(1, k0) if d.sliding else ())
        meet = FinCofSet.finite(() if d.sliding else range(1, k0 + 1))
        if d.within is not None:
            union, meet = (d.within.intersect(meet.complement()),
                           d.within.intersect(union.complement()))
        bound, how = (union, "union") if kind == "sup" else (meet, "intersection")
        if isinstance(L, C00Space):
            bound = NO_BOUND if bound.cofinite else C00Vec.indicator(bound.atoms)
        return BoundClaim(bound, f"{how} of the tail's windows")
    return BoundClaim(None, "no descriptor")


def _series_of(seq: SequenceFamily) -> Optional[RatAltSeq]:
    d = seq.descriptor
    return d.series if isinstance(d, TailClosedForm) else None


def monotone(seq: SequenceFamily) -> Optional[bool]:
    """Whether the terms are monotone from index 1: True or False when the
    descriptor is a closed form, None when the descriptor does not decide."""
    series = _series_of(seq)
    if series is None:
        return None
    return series.nondecreasing_from(1)[0] or series.nonincreasing_from(1)[0]


# ---------------------------------------------------------------------------
# Eventual containment in witness intervals


def _line_containment(seq: SequenceFamily, w: O2Witness) -> Optional[Verdict]:
    """Exact containment on the rational line via single-variable reduction.

    With K(j) = j + c and a nondecreasing lower chain m, the two-variable
    claim (for all j, all k >= j + c: m_j <= x_k) reduces to the
    single-variable tail fact x_{t+c} >= m_t for all t: any j <= k - c has
    m_j <= m_{k-c}.  Dually for the upper chain.
    """
    xs, ms, ns = _series_of(seq), _series_of(w.lower), _series_of(w.upper)
    if xs is None or ms is None or ns is None:
        return None
    c = w.offset
    ok_m, bad_m = ms.nondecreasing_from(1)
    if not ok_m:
        return Verdict.falsified(witness=("lower-monotone", bad_m), detail="lower chain decreased")
    ok_n, bad_n = ns.nonincreasing_from(1)
    if not ok_n:
        return Verdict.falsified(witness=("upper-monotone", bad_n), detail="upper chain increased")
    low_ok, low_bad = (xs.shift(c) - ms).nonneg_from(1)
    if not low_ok:
        return Verdict.falsified(witness=("containment", low_bad, low_bad + c),
                                 detail="term fell below the lower chain")
    high_ok, high_bad = (ns - xs.shift(c)).nonneg_from(1)
    if not high_ok:
        return Verdict.falsified(witness=("containment", high_bad, high_bad + c),
                                 detail="term exceeded the upper chain")
    return Verdict.exact(detail="containment decided symbolically on the line")


def _window_containment(seq: SequenceFamily, w: O2Witness) -> Optional[Verdict]:
    """Exact containment of the sliding window {k} between the empty set
    and the growing complement within minus {1..j}, within = ~S: {k} avoids
    {1..j} and S once k > j and k > max S, which the eventual index
    K(j) = j + c guarantees when c >= 1 and c >= max S."""
    x, upper = seq.descriptor, w.upper.descriptor
    if not (isinstance(x, Window) and x.sliding and x.within is None
            and isinstance(upper, Window) and not upper.sliding
            and upper.within is not None and upper.within.cofinite
            and settled(w.lower) == (1, FinCofSet.empty())
            and w.offset >= max(upper.within.atoms, default=1)):
        return None
    return Verdict.exact(detail="the window avoids the dropped prefix once k > j")


def containment(seq: SequenceFamily, w: O2Witness) -> Optional[Verdict]:
    """Decide x_k in [lower(j), upper(j)] for every j and every k >= K(j)
    from the descriptors: an exact or falsified verdict, or None when no
    symbolic argument applies.

    The arguments, in order: closed forms on the line with an affine K,
    and the sliding window inside a growing complement window.  The chains
    must live on seq's carrier, as ``verify_O2`` checks: terms are compared
    on the trusted order.
    """
    return _line_containment(seq, w) or _window_containment(seq, w)


# ---------------------------------------------------------------------------
# JSON witness term grammar
#
# The grammar is scalar only: every term is a sequence on the rational line.
#   "k"            the index            "1/k"        its reciprocal
#   "alt"          (-1)^k               "p/q"        a rational constant
#   number         an integer constant
#   ["+", t, u]    ["-", t, u]   ["-", t]   ["*", t, u]   compose terms
# A term on any other carrier is refused.  Messages show terms through
# reprlib, which stays short and never recurses deeply.

MAX_TERM_DEPTH = 100


def parse_scalar_series(doc) -> RatAltSeq:
    """Parse a scalar term document into an exact closed-form sequence.

    A term nested more than MAX_TERM_DEPTH levels deep is refused."""
    return _parse_scalar(doc, 0)


def _parse_scalar(doc, depth: int) -> RatAltSeq:
    if depth > MAX_TERM_DEPTH:
        raise ValueError(f"scalar term {reprlib.repr(doc)} nests deeper than {MAX_TERM_DEPTH} levels")
    if isinstance(doc, bool):
        raise ValueError("booleans are not scalar terms")
    if isinstance(doc, int):
        return RatAltSeq.const(doc)
    if isinstance(doc, str):
        if doc == "k":
            return RatAltSeq.index()
        if doc == "1/k":
            return RatAltSeq.inv_index()
        if doc == "alt":
            return RatAltSeq.alt()
        try:
            value = rat(doc)
        except ZeroDivisionError as exc:
            raise ValueError(f"scalar term {reprlib.repr(doc)} divides by zero") from exc
        return RatAltSeq.const(value)
    if isinstance(doc, list) and doc:
        op, *args = doc
        if op == "+" and len(args) == 2:
            return _parse_scalar(args[0], depth + 1) + _parse_scalar(args[1], depth + 1)
        if op == "-" and len(args) == 2:
            return _parse_scalar(args[0], depth + 1) - _parse_scalar(args[1], depth + 1)
        if op == "-" and len(args) == 1:
            return -_parse_scalar(args[0], depth + 1)
        if op == "*" and len(args) == 2:
            return _parse_scalar(args[0], depth + 1) * _parse_scalar(args[1], depth + 1)
    raise ValueError(f"unrecognized scalar term {reprlib.repr(doc)}")


def parse_sequence_term(doc, carrier: Carrier, name: str = "term") -> SequenceFamily:
    """Parse a scalar term document into a sequence on the rational line.

    A malformed term, or any carrier but the rational line, is refused with
    ValueError."""
    series = parse_scalar_series(doc)
    if not isinstance(carrier, QLine):
        raise ValueError(f"term {reprlib.repr(doc)} needs the rational line, "
                         f"not the carrier {carrier.name!r}")
    return series_sequence(carrier, series, name)
