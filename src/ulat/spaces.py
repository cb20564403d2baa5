"""Concrete symbolic carriers.

* ``QLine``   -- the rational line as an ell-group under min/max;
* ``QVec``    -- rational n-vectors, coordinatewise order;
* ``C00Space``-- finitely supported rational sequences;
* ``FinCofAlgebra`` -- the algebra of finite and cofinite subsets of an
  inexhaustible atom universe (atoms are integers);
* ``EvLinSpace`` -- sequences that are eventually affine in the coordinate
  index, with an extended l1 norm that is +inf exactly when the eventual
  part is nonzero.

``NO_BOUND`` marks a sup or inf that provably does not exist in a carrier.

All elements are frozen values with structural equality, so lattice
identities can be asserted with ``==``.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable

from .carriers import Carrier, GroupCarrier
from .exact import EXT_INF, ExtValue, frac_floor, rat


def _rand_fraction(rng, num_span: int = 20, den_span: int = 10) -> Fraction:
    return Fraction(rng.randint(-num_span, num_span), rng.randint(1, den_span))


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

    def _meet(self, x, y):
        return min(x, y)

    def _join(self, x, y):
        return max(x, y)

    def _add(self, x, y):
        return x + y

    def _negate(self, x):
        return -x

    def _sub(self, x, y):
        return x - y

    def _abs(self, x):
        return abs(x)

    _norm = _abs

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
                and all(isinstance(c, Fraction) for c in x))

    # ``b if b < a else a`` is ``min(a, b)`` (likewise ``max``) without the
    # builtin call; on 5-vectors of Fractions it takes half the time

    def _meet(self, x, y):
        return tuple(b if b < a else a for a, b in zip(x, y))

    def _join(self, x, y):
        return tuple(b if b > a else a for a, b in zip(x, y))

    def _add(self, x, y):
        return tuple(a + b for a, b in zip(x, y))

    def _negate(self, x):
        return tuple(-a for a in x)

    def _sub(self, x, y):
        return tuple(a - b for a, b in zip(x, y))

    def _abs(self, x):
        return tuple(abs(c) for c in x)

    def _norm(self, x):
        return sum(abs(c) for c in x)

    def sample(self, rng):
        return tuple(_rand_fraction(rng) for _ in range(self.dim))


# ---------------------------------------------------------------------------
# Finitely supported sequences


@dataclass(frozen=True)
class C00Vec:
    """Finitely supported rational sequence; support indices start at 1.

    Stored as sorted (index, value) pairs with zero values dropped, so
    structural equality coincides with pointwise equality.
    """

    entries: tuple[tuple[int, Fraction], ...]

    @staticmethod
    def from_pairs(pairs: Iterable[tuple[int, object]]) -> "C00Vec":
        acc: dict[int, Fraction] = {}
        for i, v in pairs:
            if not isinstance(i, int) or i < 1:
                raise ValueError("support indices are integers >= 1")
            q = rat(v)
            if q != 0:
                acc[i] = acc.get(i, Fraction(0)) + q
        items = tuple(sorted((i, v) for i, v in acc.items() if v != 0))
        return C00Vec(items)

    @staticmethod
    def unit(k: int, value: object = 1) -> "C00Vec":
        return C00Vec.from_pairs([(k, value)])

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
        inner = ", ".join(f"{i}:{v}" for i, v in self.entries)
        return f"C00Vec({{{inner}}})"


class C00Space(GroupCarrier):
    def __init__(self):
        super().__init__("c00", distributive=True)
        self.zero = C00Vec.zero()

    def contains(self, x) -> bool:
        return isinstance(x, C00Vec)

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

    def sample(self, rng):
        n = rng.randint(0, 4)
        return C00Vec.from_pairs(
            (rng.randint(1, 8), _rand_fraction(rng)) for _ in range(n))


# ---------------------------------------------------------------------------
# Finite / cofinite algebra


@dataclass(frozen=True)
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

    @staticmethod
    def singleton(atom: int) -> "FinCofSet":
        return FinCofSet(frozenset({atom}), False)

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
        return isinstance(x, FinCofSet)

    def _meet(self, x, y):
        return x.intersect(y)

    def _join(self, x, y):
        return x.union(y)

    def sample(self, rng):
        atoms = frozenset(rng.randint(1, 8) for _ in range(rng.randint(0, 3)))
        return FinCofSet(atoms, bool(rng.randint(0, 1)))


# ---------------------------------------------------------------------------
# Eventually affine sequences


@dataclass(frozen=True)
class EvLinSeq:
    """Rational sequence over coordinates i = 1, 2, ... that is eventually
    affine: value(i) = prefix[i-1] for i <= len(prefix), else c + d*i.

    The stored prefix is trimmed so entries that already satisfy the eventual
    law are absorbed into it; this makes equality structural.
    """

    prefix: tuple[Fraction, ...]
    c: Fraction
    d: Fraction

    @staticmethod
    def make(prefix: Iterable[object], c: object, d: object) -> "EvLinSeq":
        pre = [rat(v) for v in prefix]
        cc, dd = rat(c), rat(d)
        while pre and pre[-1] == cc + dd * len(pre):
            pre.pop()
        return EvLinSeq(tuple(pre), cc, dd)

    @staticmethod
    def affine(c: object, d: object) -> "EvLinSeq":
        return EvLinSeq.make((), c, d)

    def value(self, i: int) -> Fraction:
        if i < 1:
            raise ValueError("coordinates start at 1")
        if i <= len(self.prefix):
            return self.prefix[i - 1]
        return self.c + self.d * i

    def map_with(self, other: "EvLinSeq", op, tail_c: Fraction, tail_d: Fraction,
                 split_at: int) -> "EvLinSeq":
        n = max(len(self.prefix), len(other.prefix), split_at)
        pre = [op(self.value(i), other.value(i)) for i in range(1, n + 1)]
        return EvLinSeq.make(pre, tail_c, tail_d)

    def __repr__(self) -> str:
        pre = ",".join(str(v) for v in self.prefix)
        return f"EvLinSeq([{pre}]; {self.c}+{self.d}*i)"


class EvLinSpace(GroupCarrier):
    """Eventually affine sequences as an ell-group under pointwise order."""

    def __init__(self):
        super().__init__("evlinseq", distributive=True)
        self.zero = EvLinSeq.affine(0, 0)

    def contains(self, x) -> bool:
        return isinstance(x, EvLinSeq)

    def _combine(self, x: EvLinSeq, y: EvLinSeq, op) -> EvLinSeq:
        if x.d == y.d:
            return x.map_with(y, op, op(x.c, y.c), x.d, 0)
        # two lines with different slopes cross once; beyond the crossing the
        # comparison is settled by the slopes
        t = (y.c - x.c) / (x.d - y.d)
        split = max(0, frac_floor(t) + 1)
        if op is min:
            winner = x if x.d < y.d else y
        else:
            winner = x if x.d > y.d else y
        return x.map_with(y, op, winner.c, winner.d, split)

    def _meet(self, x, y):
        return self._combine(x, y, min)

    def _join(self, x, y):
        return self._combine(x, y, max)

    def _add(self, x, y):
        return x.map_with(y, lambda a, b: a + b, x.c + y.c, x.d + y.d, 0)

    def _negate(self, x):
        return EvLinSeq.make(tuple(-v for v in x.prefix), -x.c, -x.d)

    def scale_rat(self, q: object, x: EvLinSeq) -> EvLinSeq:
        q = rat(q)
        x = self.check_element(x)
        return EvLinSeq.make(tuple(q * v for v in x.prefix), q * x.c, q * x.d)

    def _norm(self, x) -> ExtValue:
        """Extended l1 norm: +inf exactly when the eventual part is nonzero."""
        if x.c != 0 or x.d != 0:
            return EXT_INF
        return ExtValue(sum((abs(v) for v in x.prefix), Fraction(0)))

    def sample(self, rng):
        n = rng.randint(0, 3)
        pre = [_rand_fraction(rng, 8, 4) for _ in range(n)]
        return EvLinSeq.make(pre, _rand_fraction(rng, 4, 3), _rand_fraction(rng, 3, 3))


NO_BOUND = "no-bound-in-algebra"
