"""The explicit entourage base on the rational line.

U_n relates x and y when |x - y| <= 1/n, or both lie at or above n, or both
lie at or below -n.  The family {U_n} is a base witnessing that far-out
points are uniformly close to each other even though their distance is
large, which is what makes the clamped uniformity strictly coarser than the
metric one while agreeing with it on every order-bounded set.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction

from .exact import _below, _fraction, check_index, rat
from .verdicts import Verdict

DIAG = "diag"
HIGH = "high"
LOW = "low"
CLAUSES = (DIAG, HIGH, LOW)


def _clause(n: int, a: int, b: int, c: int, e: int) -> str | None:
    """Which clause (if any) puts (a/b, c/e) into U_n, for b, e > 0 and a
    trusted index n; the fractions need not be reduced.  |x - y| <= 1/n is
    n*|a*e - c*b| <= b*e, and x >= n is a >= n*b."""
    if n * abs(a * e - c * b) <= b * e:
        return DIAG
    if a >= n * b and c >= n * e:
        return HIGH
    if a <= -n * b and c <= -n * e:
        return LOW
    return None


def entourage_clause(n: int, x, y) -> str | None:
    """Which clause (if any) puts (x, y) into U_n; all comparisons exact,
    made by ``_clause`` on the reduced integers of x and y."""
    check_index(n, "an entourage index")
    x, y = rat(x), rat(y)
    return _clause(n, x._numerator, x._denominator, y._numerator, y._denominator)


def real_entourage_contains(n: int, x, y) -> bool:
    return entourage_clause(n, x, y) is not None


@dataclass(frozen=True, slots=True)
class ComposeCase:
    """One clause combination of the composition U_{2n} o U_{2n} <= U_n.

    facts is a tuple of (description, bool) where every bool is an exact
    rational comparison instantiated at this n; conclusion names the U_n
    clause that absorbs the case, or notes the case is vacuous.
    """

    left: str
    right: str
    conclusion: str
    facts: tuple[tuple[str, bool], ...]

    @property
    def holds(self) -> bool:
        return all(ok for _, ok in self.facts)


def compose_case_analysis(n: int) -> list[ComposeCase]:
    """The nine clause combinations, each reduced to exact rational facts.

    A pair (x, z) is in U_{2n} o U_{2n} through some y; the clause of (x, y)
    and of (y, z) determine which facts force (x, z) into U_n:

    diag/diag   |x-z| <= 1/(2n) + 1/(2n) = 1/n,
    diag/high   y >= 2n pulls x >= 2n - 1/(2n) >= n, and z >= 2n >= n,
    diag/low    mirrored downward,
    high/high   both ends >= 2n >= n,  low/low mirrored,
    high/low    vacuous: y >= 2n and y <= -2n cannot both hold,
    and the two mixed cases with diag on the right are symmetric.
    """
    check_index(n, "an entourage index")
    half = Fraction(1, 2 * n)
    gap_fact = ("1/(2n) + 1/(2n) <= 1/n", half + half <= Fraction(1, n))
    pull_high = ("2n - 1/(2n) >= n", 2 * n - half >= n)
    pull_low = ("-2n + 1/(2n) <= -n", -2 * n + half <= -n)
    nest_high = ("2n >= n", 2 * n >= n)
    nest_low = ("-2n <= -n", -2 * n <= -n)
    disjoint = ("2n > -2n", 2 * n > -2 * n)

    table = {
        (DIAG, DIAG): (DIAG, (gap_fact,)),
        (DIAG, HIGH): (HIGH, (pull_high, nest_high)),
        (DIAG, LOW): (LOW, (pull_low, nest_low)),
        (HIGH, DIAG): (HIGH, (nest_high, pull_high)),
        (HIGH, HIGH): (HIGH, (nest_high,)),
        (HIGH, LOW): ("vacuous", (disjoint,)),
        (LOW, DIAG): (LOW, (nest_low, pull_low)),
        (LOW, HIGH): ("vacuous", (disjoint,)),
        (LOW, LOW): (LOW, (nest_low,)),
    }
    return [ComposeCase(left, right, conclusion, facts)
            for (left, right), (conclusion, facts) in table.items()]


# The draw helpers below give each point as a pair (numerator, denominator)
# with a positive denominator, reduced or not.  Each draw is the rejection
# loop that ``exact._below`` runs, written out: ``_below(rng, span)`` draws
# getrandbits(span.bit_length()) until the value is below span, so the
# generator makes the same draws and ends in the same state.


def _small_step(rng, n: int) -> tuple[int, int]:
    """The step s/(n*m) as the pair (s, n*m), so |step| <= 1/n: s in
    {-1, 0, 1} and m in 1..4, drawn in that order."""
    bits = rng.getrandbits
    s = bits(2)
    while s >= 3:
        s = bits(2)
    m = bits(3)
    while m >= 4:
        m = bits(3)
    return s - 1, n * (1 + m)


def _at_least(rng, bound: int) -> tuple[int, int]:
    """bound + p/q as the pair (bound*q + p, q), for p in [0, 40*bound) and
    q in 1..9, drawn in that order."""
    bits = rng.getrandbits
    span = 40 * bound
    k = span.bit_length()
    p = bits(k)
    while p >= span:
        p = bits(k)
    q = bits(4)
    while q >= 9:
        q = bits(4)
    return bound * (1 + q) + p, 1 + q


def _grid_point(rng, half: int) -> tuple[int, int]:
    """p/q as the pair (p, q), for p in [-half, half] and q in 1..11, drawn
    in that order."""
    bits = rng.getrandbits
    span = 2 * half + 1
    k = span.bit_length()
    p = bits(k)
    while p >= span:
        p = bits(k)
    q = bits(4)
    while q >= 11:
        q = bits(4)
    return p - half, 1 + q


def _conditioned_triple(rng, n: int, left: str, right: str):
    """(x, y, z) with (x, y) in clause left of U_n and (y, z) in clause right,
    sharing the middle element; None when the combination is vacuous.

    Each point is a pair as the draw helpers give it.  y is drawn first: at
    least n, at most -n, or a grid point within 6n, as the clauses need;
    then x and then z, each y plus a small step on the diagonal, or a
    fresh point at least n or at most -n."""
    sides = left, right
    if HIGH in sides:
        if LOW in sides:
            return None
        y = _at_least(rng, n)
    elif LOW in sides:
        a, b = _at_least(rng, n)
        y = -a, b
    else:
        y = _grid_point(rng, 6 * n)
    return _end(rng, n, left, y), y, _end(rng, n, right, y)


def _end(rng, n: int, side: str, y: tuple[int, int]) -> tuple[int, int]:
    """A point related to y by clause side of U_n: y plus a small step on
    the diagonal, else a fresh point at least n or at most -n."""
    if side == DIAG:
        s, m = _small_step(rng, n)
        return y[0] * m + s * y[1], y[1] * m
    a, b = _at_least(rng, n)
    return (a, b) if side == HIGH else (-a, b)


def compose_triple_violation(n: int, x, y, z) -> bool:
    """True when (x, y) and (y, z) are in U_n but (x, z) is not."""
    return (real_entourage_contains(n, x, y)
            and real_entourage_contains(n, y, z)
            and not real_entourage_contains(n, x, z))


def real_entourage_compose_check(n: int, samples: int, rng) -> Verdict:
    """Verify U_{2n} o U_{2n} <= U_n exactly, then corroborate on samples.

    The nine-case clause analysis is the proof; every case's facts are exact
    rational comparisons at this n.  Seeded random triples conditioned into
    each clause combination re-check the conclusion pointwise, and sampled
    (x, y) in U_{2n} with arbitrary z confirm that joins and meets with a
    common element land in U_n.
    """
    for case in compose_case_analysis(n):
        if not case.holds:
            failing = [desc for desc, ok in case.facts if not ok]
            return Verdict.falsified(witness=(case.left, case.right, tuple(failing)),
                                     detail="case analysis fact failed")

    per_case = max(1, samples // 9)
    n2 = 2 * n
    for left, right in itertools.product(CLAUSES, repeat=2):
        for _ in range(per_case):
            triple = _conditioned_triple(rng, n2, left, right)
            if triple is None:
                break
            (a, b), (c, e), (f, g) = triple
            if _clause(n2, a, b, c, e) is None or _clause(n2, c, e, f, g) is None:
                raise RuntimeError(
                    f"conditioned triple {tuple(_fraction(*p) for p in triple)!r} fell "
                    f"outside clauses ({left}, {right}) of U_{n2} at n={n}")
            if _clause(n, a, b, f, g) is None:
                return Verdict.falsified(witness=tuple(_fraction(*p) for p in triple),
                                         detail="sampled triple escaped U_n")
    for _ in range(samples):
        left = CLAUSES[_below(rng, 3)]
        (a, b), (c, e), _ = _conditioned_triple(rng, n2, left, left)
        f, g = _grid_point(rng, 40 * n)
        # the join and meet with z = f/g, a tie kept on the first argument
        # as max and min keep it
        xz = (a, b) if a * g >= f * b else (f, g)
        yz = (c, e) if c * g >= f * e else (f, g)
        if _clause(n, *xz, *yz) is None:
            return Verdict.falsified(
                witness=("join", _fraction(a, b), _fraction(c, e), _fraction(f, g)),
                detail="join with common element escaped U_n")
        xz = (a, b) if a * g <= f * b else (f, g)
        yz = (c, e) if c * g <= f * e else (f, g)
        if _clause(n, *xz, *yz) is None:
            return Verdict.falsified(
                witness=("meet", _fraction(a, b), _fraction(c, e), _fraction(f, g)),
                detail="meet with common element escaped U_n")
    return Verdict.exact(detail=f"nine-case analysis at n={n}")
