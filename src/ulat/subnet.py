"""Constructive subnet extraction from interval witnesses.

Given a sequence whose clamped images all have interval witnesses, the
enumeration below advances every witness chain one step at a time and picks
sequence indices late enough for every chain's eventual index.  The result
is a subnet prefix carrying, per truncation, increasing lower bounds and
decreasing upper bounds that sandwich the clamped subnet terms, which is
the monotone-sandwich convergence data in constructive form.
"""

from __future__ import annotations

from dataclasses import dataclass

from .carriers import Carrier, CarrierMismatch
from .sequences import SequenceFamily
from .truncation import TruncationPair, _clamp


class SubnetContainmentError(ValueError):
    """A witness chain failed its own containment at a required index."""

    def __init__(self, j: int, k: int, pair: TruncationPair):
        super().__init__(
            f"witness containment violated at chain step j={j}, sequence index k={k} "
            f"for clamp ({pair.low!r}, {pair.high!r})")
        self.j = j
        self.k = k
        self.pair = pair


@dataclass(frozen=True, slots=True)
class SubnetStep:
    """One enumeration step: the chosen sequence index and, per truncation,
    the sandwich (lower bound, clamped term, upper bound)."""

    index: int
    gamma: int
    bounds: tuple[tuple, ...]


@dataclass(frozen=True, slots=True)
class SubnetEnumeration:
    seq: SequenceFamily
    pairs: tuple[TruncationPair, ...]
    steps: tuple[SubnetStep, ...]

    @property
    def phi(self) -> tuple[int, ...]:
        return tuple(s.gamma for s in self.steps)

    def strictly_increasing_phi(self) -> bool:
        phi = self.phi
        return all(a < b for a, b in zip(phi, phi[1:]))

    def final_over_prefix(self) -> bool:
        """phi eventually exceeds any index it has seen: immediate for a
        strictly increasing enumeration starting at or above step count."""
        return all(s.gamma >= s.index for s in self.steps)

    def monotone_bounds(self) -> bool:
        L = self.seq.carrier
        for col in range(len(self.pairs)):
            for prev, cur in zip(self.steps, self.steps[1:]):
                lo_p, _, hi_p = prev.bounds[col]
                lo_c, _, hi_c = cur.bounds[col]
                if not (L._leq(lo_p, lo_c) and L._leq(hi_c, hi_p)):
                    return False
        return True

    def sandwich_holds(self) -> bool:
        L = self.seq.carrier
        return all(L._leq(lo, mid) and L._leq(mid, hi)
                   for step in self.steps for lo, mid, hi in step.bounds)


def build_subnet(seq: SequenceFamily, F, witnesses: dict, steps: int) -> SubnetEnumeration:
    """Enumerate a cofinal chain of the witness-indexed directed set.

    At step i every chain is at position i and the sequence index is
    gamma_i = max(gamma_{i-1} + 1, i + c) with c the largest witness
    offset, past every clamp's eventual index K_f(i) = i + c_f, so each
    clamped term is inside its step-i interval; the containment is checked
    exactly and a violation raises SubnetContainmentError with (j, k).
    """
    L: Carrier = seq.carrier
    pairs = tuple(F)
    if not pairs:
        raise ValueError("subnet extraction needs at least one truncation")
    if steps < 1:
        raise ValueError("need at least one enumeration step")
    ends = [(p, witnesses[p], L.check_element(p.low), L.check_element(p.high)) for p in pairs]
    for _, w, _, _ in ends:
        if w.lower.carrier is not L or w.upper.carrier is not L:
            raise CarrierMismatch("witness chains must live on the sequence's carrier")
    offset = max(w.offset for _, w, _, _ in ends)
    chain = []
    gamma = 0
    for i in range(1, steps + 1):
        gamma = max(gamma + 1, i + offset)
        x = seq.value(gamma)
        bounds = []
        for p, w, low, high in ends:
            lo, hi, mid = w.lower.value(i), w.upper.value(i), _clamp(L, low, high, x)
            if not (L._leq(lo, mid) and L._leq(mid, hi)):
                raise SubnetContainmentError(i, gamma, p)
            bounds.append((lo, mid, hi))
        chain.append(SubnetStep(i, gamma, tuple(bounds)))
    return SubnetEnumeration(seq, pairs, tuple(chain))
