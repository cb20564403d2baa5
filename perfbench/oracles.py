"""Computations the benchmark makes apart from the library, to check it.

Nothing here imports ``ulat``: every answer is worked out with plain
``int``, ``Fraction`` and ``frozenset`` arithmetic.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations


def ceil_div(p: int, q: int) -> int:
    """Ceiling of p/q for integers, q > 0."""
    return -((-p) // q)


def ceil_fraction(x: Fraction) -> int:
    return ceil_div(x.numerator, x.denominator)


def v2(n: int) -> int:
    """2-adic valuation of a positive integer."""
    return (n & -n).bit_length() - 1


def fmt(q: Fraction) -> str:
    return str(q.numerator) if q.denominator == 1 else f"{q.numerator}/{q.denominator}"


# ---------------------------------------------------------------------------
# Scalar term grammar, evaluated directly


def eval_term(doc, k: int) -> Fraction:
    """Value at index k of a scalar term document (the JSON term grammar)."""
    if isinstance(doc, bool):
        raise ValueError("booleans are not terms")
    if isinstance(doc, int):
        return Fraction(doc)
    if isinstance(doc, str):
        if doc == "k":
            return Fraction(k)
        if doc == "1/k":
            return Fraction(1, k)
        if doc == "alt":
            return Fraction(-1 if k % 2 else 1)
        return Fraction(doc)
    op, *args = doc
    vals = [eval_term(a, k) for a in args]
    if op == "+":
        return vals[0] + vals[1]
    if op == "*":
        return vals[0] * vals[1]
    if op == "-":
        return -vals[0] if len(vals) == 1 else vals[0] - vals[1]
    raise ValueError(f"unknown operator {op!r}")


# ---------------------------------------------------------------------------
# The two suite recomputations


def composition_law_tuples():
    """Recompute the clamp composition law on the powerset of {1, 2, 3}:
    f_(a,b)(x) = (x & b) | a, and f_(a,b) after f_(c,d) is the clamp of
    (a | (b & c), b & d).  Returns (tuples checked, first failing tuple)."""
    base = (1, 2, 3)
    subsets = [frozenset(c) for r in range(4) for c in combinations(base, r)]
    total = 0
    for a in subsets:
        for b in subsets:
            for c in subsets:
                for d in subsets:
                    low, high = a | (b & c), b & d
                    for x in subsets:
                        total += 1
                        if (x & high) | low != (((x & d) | c) & b) | a:
                            return total, (a, b, c, d, x)
    return total, None


def clamp_gap(k: int, n: int) -> Fraction:
    """l1 norm of clamp(x + e/n) - clamp(x) for x = (1, 2, 3, ...) and the
    clamp to [-k, k]; coordinates beyond k + 1 clamp to k on both sides."""

    def clamp(t: Fraction) -> Fraction:
        return min(max(t, Fraction(-k)), Fraction(k))

    step = Fraction(1, n)
    return sum((abs(clamp(i + step) - clamp(Fraction(i))) for i in range(1, k + 2)),
               Fraction(0))


# ---------------------------------------------------------------------------
# Finite orders given by covers


class CoverOrder:
    """The reflexive-transitive closure of a cover list, with brute-force
    greatest lower and least upper bounds."""

    def __init__(self, elements, covers):
        self.elements = list(elements)
        succ = {e: [] for e in self.elements}
        for lo, hi in covers:
            succ[lo].append(hi)
        self.up = {}
        for e in self.elements:
            seen = {e}
            stack = [e]
            while stack:
                for nxt in succ[stack.pop()]:
                    if nxt not in seen:
                        seen.add(nxt)
                        stack.append(nxt)
            self.up[e] = frozenset(seen)

    def leq(self, x, y) -> bool:
        return y in self.up[x]

    def meet(self, x, y):
        lows = [z for z in self.elements if x in self.up[z] and y in self.up[z]]
        best = [m for m in lows if all(m in self.up[z] for z in lows)]
        return best[0] if len(best) == 1 else None

    def join(self, x, y):
        highs = self.up[x] & self.up[y]
        best = [m for m in highs if highs <= self.up[m]]
        return best[0] if len(best) == 1 else None

    def distributive_fails_at(self, x, y, z) -> bool:
        return self.meet(x, self.join(y, z)) != self.join(self.meet(x, y), self.meet(x, z))
