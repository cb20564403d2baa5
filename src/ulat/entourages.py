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


def entourage_clause(n: int, x, y) -> str | None:
    """Which clause (if any) puts (x, y) into U_n; all comparisons exact,
    made on the reduced integers a/b = x and c/e = y (b, e > 0):
    |x - y| <= 1/n is n*|a*e - c*b| <= b*e, and x >= n is a >= n*b."""
    check_index(n, "an entourage index")
    x, y = rat(x), rat(y)
    a, b, c, e = x._numerator, x._denominator, y._numerator, y._denominator
    if n * abs(a * e - c * b) <= b * e:
        return DIAG
    if a >= n * b and c >= n * e:
        return HIGH
    if a <= -n * b and c <= -n * e:
        return LOW
    return None


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


def _small_step(rng, n: int) -> Fraction:
    """An exact rational with |step| <= 1/n: s/(n*m) for s in {-1, 0, 1}
    and m in 1..4, drawn in that order."""
    s = _below(rng, 3) - 1
    return _fraction(s, n * (1 + _below(rng, 4)))


def _at_least(rng, bound: int) -> Fraction:
    """bound + p/q for p in [0, 40*bound) and q in 1..9, drawn in that order."""
    p = _below(rng, 40 * bound)
    q = 1 + _below(rng, 9)
    return _fraction(bound * q + p, q)


def _conditioned_triple(rng, n: int, left: str, right: str):
    """(x, y, z) with (x, y) in clause left of U_n and (y, z) in clause right,
    sharing the middle element; None when the combination is vacuous."""
    if {left, right} == {HIGH, LOW}:
        return None
    if HIGH in (left, right):
        y = _at_least(rng, n)
    elif LOW in (left, right):
        y = -_at_least(rng, n)
    else:
        y = _fraction(_below(rng, 12 * n + 1) - 6 * n, 1 + _below(rng, 11))
    x = y + _small_step(rng, n) if left == DIAG else (
        _at_least(rng, n) if left == HIGH else -_at_least(rng, n))
    z = y + _small_step(rng, n) if right == DIAG else (
        _at_least(rng, n) if right == HIGH else -_at_least(rng, n))
    return x, y, z


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
    for left, right in itertools.product(CLAUSES, repeat=2):
        for _ in range(per_case):
            triple = _conditioned_triple(rng, 2 * n, left, right)
            if triple is None:
                break
            x, y, z = triple
            if not (real_entourage_contains(2 * n, x, y)
                    and real_entourage_contains(2 * n, y, z)):
                raise AssertionError("conditioned triple fell outside its clauses")
            if not real_entourage_contains(n, x, z):
                return Verdict.falsified(witness=(x, y, z),
                                         detail="sampled triple escaped U_n")
    for _ in range(samples):
        left = CLAUSES[_below(rng, 3)]
        head = _conditioned_triple(rng, 2 * n, left, left)
        x, y, _ = head
        z = _fraction(_below(rng, 80 * n + 1) - 40 * n, 1 + _below(rng, 11))
        if not real_entourage_contains(n, max(x, z), max(y, z)):
            return Verdict.falsified(witness=("join", x, y, z),
                                     detail="join with common element escaped U_n")
        if not real_entourage_contains(n, min(x, z), min(y, z)):
            return Verdict.falsified(witness=("meet", x, y, z),
                                     detail="meet with common element escaped U_n")
    return Verdict.exact(detail=f"nine-case analysis at n={n}")
