"""Lattice carriers: the base protocol, finite lattices, and ell-group mixins.

Design rules shared by every carrier:

* element equality is structural and exact (frozen values, Fractions);
* ``leq`` is derived from ``meet`` rather than stored, so there is one
  source of truth for the order;
* the public operations (``meet``, ``join``, ``leq``, ``add``, ...) validate
  their arguments and reject elements that do not belong to the carrier;
  the underscore operations (``_meet``, ``_join``, ``_add``, ...) trust
  theirs, so a caller that has validated its elements once where they
  enter can run a hot loop on them, or fold them with ``functools.reduce``
  over ``_join`` or ``_meet``, without re-checking.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from typing import Callable, Iterable, Optional, Sequence


class CarrierMismatch(TypeError):
    """An element was passed to a carrier it does not belong to."""


class NotALattice(ValueError):
    """A finite order failed to be a lattice; carries a diagnostic pair."""

    def __init__(self, message: str, pair=None, missing: str | None = None):
        super().__init__(message)
        self.pair = pair
        self.missing = missing


class Carrier:
    """Abstract lattice carrier."""

    name: str
    distributive: bool
    bottom: object
    top: object

    def __init__(self, name: str, distributive: bool,
                 bottom: object = None, top: object = None):
        self.name = name
        self.distributive = distributive
        self.bottom = bottom
        self.top = top

    # -- element handling

    def normalize(self, x):
        return x

    def contains(self, x) -> bool:
        raise NotImplementedError

    def check_element(self, x):
        """x itself after one membership test when it is an element; any
        other value is normalized first and must be an element then."""
        if self.contains(x):
            return x
        y = self.normalize(x)
        if not self.contains(y):
            raise CarrierMismatch(f"{x!r} is not an element of carrier {self.name!r}")
        return y

    def elements(self) -> Optional[Sequence]:
        """Enumerated universe for finite carriers, None for symbolic ones."""
        return None

    @property
    def is_finite(self) -> bool:
        return self.elements() is not None

    # -- lattice structure

    def _meet(self, x, y):
        raise NotImplementedError

    def _join(self, x, y):
        raise NotImplementedError

    def meet(self, x, y):
        return self._meet(self.check_element(x), self.check_element(y))

    def join(self, x, y):
        return self._join(self.check_element(x), self.check_element(y))

    def _leq(self, x, y) -> bool:
        return self._meet(x, y) == x

    def leq(self, x, y) -> bool:
        return self._leq(self.check_element(x), self.check_element(y))

    def __repr__(self) -> str:
        return f"<{type(self).__name__} {self.name!r}>"


class GroupCarrier(Carrier):
    """Lattice-ordered abelian group: adds translation structure and a norm.

    Subclasses supply the trusted ``_add``, ``_negate`` and ``_norm``, the
    norm that every norm-induced distance is derived from.  ``_sub`` and
    ``_abs`` are derived from them and the lattice operations, and a
    subclass may override them with direct formulas giving the same values.
    """

    zero: object

    # -- trusted operations: the arguments are elements already

    def _add(self, x, y):
        raise NotImplementedError

    def _negate(self, x):
        raise NotImplementedError

    def _sub(self, x, y):
        return self._add(x, self._negate(y))

    def _abs(self, x):
        return self._join(x, self._negate(x))

    def _norm(self, x):
        raise NotImplementedError

    # -- public operations: validate, then run the trusted ones

    def add(self, x, y):
        return self._add(self.check_element(x), self.check_element(y))

    def negate(self, x):
        return self._negate(self.check_element(x))

    def sub(self, x, y):
        return self._sub(self.check_element(x), self.check_element(y))

    def abs_(self, x):
        return self._abs(self.check_element(x))

    def norm(self, x):
        return self._norm(self.check_element(x))


# ---------------------------------------------------------------------------
# Finite lattices


MAX_ELEMENTS = 256  # every element index fits in one byte


class FiniteLattice(Carrier):
    """Finite lattice of at most ``MAX_ELEMENTS`` elements, stored as its
    elements plus ``bytes`` tables of their indices.

    Element ``i`` is ``elements()[i]``; the meet table holds the index of
    the meet of elements ``i`` and ``j`` at ``i * n + j``, so each of its
    rows is a map that ``bytes.translate`` composes, and the join table
    likewise.  ``from_leq`` and ``from_covers`` refuse a larger lattice
    with ValueError before building anything.  Distributivity is decided
    once, over the tables, and kept with its witness in ``distributivity``.
    """

    def __init__(self, name: str, elements: Sequence, meet_table: bytes, join_table: bytes):
        self._elements = tuple(elements)
        self._n = n = len(self._elements)
        self._index = {e: i for i, e in enumerate(self._elements)}
        self._meet_table = meet_table
        self._join_table = join_table
        bottom = top = 0
        for i in range(n):
            bottom = meet_table[bottom * n + i]
            top = join_table[top * n + i]
        self.distributivity = _distributivity(self._elements, meet_table, join_table)
        super().__init__(name, self.distributivity.holds,
                         self._elements[bottom], self._elements[top])

    # -- construction

    @staticmethod
    def from_leq(name: str, elements: Sequence, leq: Callable[[object, object], bool]) -> "FiniteLattice":
        """Build the tables from an order relation, evaluating leq once per pair.

        Each element gets a bitmask down-set and up-set.  The meet of i and j
        is the element of down[i] & down[j] whose down-set holds that whole
        set (unique when the order is antisymmetric); the join is found the
        same way with up-sets.  The relation need not be transitive: the
        bounds are then the ones that definition picks out, or the pair is
        reported as having none.
        """
        elems = _listed(elements)
        if len(set(elems)) != len(elems):
            raise NotALattice("duplicate elements")
        for x in elems:
            if not leq(x, x):
                raise NotALattice(f"order not reflexive at {x!r}")
        n = len(elems)
        down = [1 << i for i in range(n)]
        up = list(down)
        for i, x in enumerate(elems):
            for j, y in enumerate(elems):
                if i != j and leq(x, y):
                    up[i] |= 1 << j
                    down[j] |= 1 << i
        for i in range(n):
            both = up[i] & down[i] & ~(1 << i)
            if both:
                pair = (elems[i], elems[_lowest_bit(both)])
                raise NotALattice(f"order not antisymmetric on {pair!r}", pair=pair)
        # antisymmetry leaves no two elements with the same down-set (or up-set)
        by_down = {mask: i for i, mask in enumerate(down)}
        by_up = {mask: i for i, mask in enumerate(up)}
        meet, join = bytearray(n * n), bytearray(n * n)
        for i in range(n):
            meet[i * n + i] = join[i * n + i] = i
            for j in range(i + 1, n):
                m = _bound_in(down[i] & down[j], down, by_down)
                if m is None:
                    pair = (elems[i], elems[j])
                    raise NotALattice(f"pair {pair!r} has no greatest lower bound",
                                      pair=pair, missing="meet")
                u = _bound_in(up[i] & up[j], up, by_up)
                if u is None:
                    pair = (elems[i], elems[j])
                    raise NotALattice(f"pair {pair!r} has no least upper bound",
                                      pair=pair, missing="join")
                meet[i * n + j] = meet[j * n + i] = m
                join[i * n + j] = join[j * n + i] = u
        return FiniteLattice(name, elems, bytes(meet), bytes(join))

    @staticmethod
    def from_covers(name: str, elements: Sequence[str], covers: Iterable[Sequence]) -> "FiniteLattice":
        elems = _listed(elements)
        index = {}
        for e in elems:
            if e in index:
                raise NotALattice(f"duplicate element name {e!r}")
            index[e] = True
        succ: dict = {e: set() for e in elems}
        for cover in covers:
            if not (isinstance(cover, (list, tuple)) and len(cover) == 2):
                raise NotALattice(f"cover {cover!r} is not a pair")
            lo, hi = cover
            try:
                known = lo in index and hi in index
            except TypeError:  # an unhashable entry names no element
                known = False
            if not known:
                raise NotALattice(f"cover {cover!r} mentions an unknown element")
            if lo == hi:
                raise NotALattice(f"cover {cover!r} is reflexive")
            succ[lo].add(hi)
        # reflexive-transitive closure with cycle rejection
        reach: dict = {}
        for e in elems:
            seen = {e}
            stack = [(e, v) for v in succ[e]]
            while stack:
                u, v = stack.pop()
                if v == e:  # the cover (u, e) closes the cycle
                    raise NotALattice(f"cover cycle through {e!r}", pair=(u, e))
                if v in seen:
                    continue
                seen.add(v)
                stack.extend((v, w) for w in succ[v])
            reach[e] = seen
        return FiniteLattice.from_leq(name, elems, lambda a, b: b in reach[a])

    # -- protocol

    def contains(self, x) -> bool:
        """x is a stored element, of its type too: a value that only
        compares equal to one (True for 1, 1.0 for 1) names no element."""
        try:
            e = self._elements[self._index[x]]
        except (KeyError, TypeError):  # no element, or an unhashable value
            return False
        return e is x or type(e) is type(x)

    def elements(self) -> Sequence:
        return list(self._elements)

    def _meet(self, x, y):
        index = self._index
        return self._elements[self._meet_table[index[x] * self._n + index[y]]]

    def _join(self, x, y):
        index = self._index
        return self._elements[self._join_table[index[x] * self._n + index[y]]]

    def _leq(self, x, y) -> bool:
        i = self._index[x]
        return self._meet_table[i * self._n + self._index[y]] == i


def _listed(elements) -> list:
    elems = list(elements)
    if len(elems) > MAX_ELEMENTS:
        raise ValueError(f"a finite lattice has at most {MAX_ELEMENTS} elements, got {len(elems)}")
    return elems


def _lowest_bit(mask: int) -> int:
    return (mask & -mask).bit_length() - 1


def _bound_in(mask: int, cones: list, by_cone: dict) -> Optional[int]:
    """The element of mask whose cone (down-set or up-set) holds all of mask,
    or None.  An element whose cone equals mask is the answer; mask is
    scanned only when there is none, which a non-transitive order allows."""
    m = by_cone.get(mask)
    if m is not None:
        return m
    rest = mask
    while rest:
        m = _lowest_bit(rest)
        if not mask & ~cones[m]:
            return m
        rest &= rest - 1
    return None


def _distributivity(elements: Sequence, meet_table: bytes, join_table: bytes) -> CheckResult:
    """Decide x /\\ (y \\/ z) = (x /\\ y) \\/ (x /\\ z) over the byte tables.

    For each x and y, the row over all z of either side is one table row
    composed with another by a single ``bytes.translate``.  x, y and z run
    in element order and the first triple where the sides differ is the
    witness, the one a loop over all triples in that order would name.
    """
    n = len(elements)
    pad = bytes(256 - n)
    meet_rows = [meet_table[i * n:(i + 1) * n] for i in range(n)]
    join_rows = [join_table[i * n:(i + 1) * n] for i in range(n)]
    join_maps = [row + pad for row in join_rows]
    for x in range(n):
        mx, through = meet_rows[x], meet_rows[x] + pad
        for y in range(n):
            lhs = join_rows[y].translate(through)
            rhs = mx.translate(join_maps[mx[y]])
            if lhs != rhs:
                z = next(z for z in range(n) if lhs[z] != rhs[z])
                return CheckResult(False, witness=(elements[x], elements[y], elements[z]))
    return _HOLDS


# ---------------------------------------------------------------------------
# JSON loading


def load_finite_lattice(doc: dict, name: str = "lattice") -> FiniteLattice:
    """Build a finite lattice from {"elements": [...], "covers": [[lo, hi], ...]}.

    Rejects non-lattices with a diagnostic pair (NotALattice), and more
    than ``MAX_ELEMENTS`` elements with ValueError before any closure.
    """
    if not isinstance(doc, dict):
        raise NotALattice("document must be a JSON object")
    elements = doc.get("elements")
    covers = doc.get("covers")
    if not isinstance(elements, list) or not elements:
        raise NotALattice("'elements' must be a nonempty list")
    if not all(isinstance(e, str) for e in elements):
        raise NotALattice("'elements' must be strings")
    if not isinstance(covers, list):
        raise NotALattice("'covers' must be a list of [lo, hi] pairs")
    return FiniteLattice.from_covers(doc.get("name", name), elements, covers)


# ---------------------------------------------------------------------------
# Builders for the standard finite carriers


def powerset_lattice(n: int) -> FiniteLattice:
    """Boolean lattice of subsets of {1, ..., n} (n <= 4 keeps it desk scale)."""
    if not 1 <= n <= 4:
        raise ValueError("powerset carrier supports 1 <= n <= 4")
    base = list(range(1, n + 1))
    elems = []
    for r in range(n + 1):
        for combo in combinations(base, r):
            elems.append(frozenset(combo))
    return FiniteLattice.from_leq(f"powerset{n}", elems, lambda a, b: a <= b)


def divisor_lattice(n: int = 60) -> FiniteLattice:
    """Divisors of n ordered by divisibility (gcd/lcm lattice)."""
    divs = [d for d in range(1, n + 1) if n % d == 0]
    return FiniteLattice.from_leq(f"divisor{n}", divs, lambda a, b: b % a == 0)


def chain_lattice(n: int) -> FiniteLattice:
    """Total order 0 < 1 < ... < n-1."""
    if n < 1:
        raise ValueError("chain needs at least one element")
    return FiniteLattice.from_leq(f"chain{n}", list(range(n)), lambda a, b: a <= b)


def pentagon_lattice() -> FiniteLattice:
    """The five-element nondistributive lattice with a three-element chain."""
    elems = ["0", "a", "c", "b", "1"]
    order = {
        ("0", "a"), ("0", "b"), ("0", "c"), ("0", "1"),
        ("a", "c"), ("a", "1"), ("c", "1"), ("b", "1"),
    }
    return FiniteLattice.from_leq("n5", elems, lambda x, y: x == y or (x, y) in order)


def diamond_lattice() -> FiniteLattice:
    """The five-element nondistributive lattice with three incomparable atoms."""
    elems = ["0", "a", "b", "c", "1"]
    order = {("0", e) for e in ("a", "b", "c", "1")} | {(e, "1") for e in ("a", "b", "c")}
    return FiniteLattice.from_leq("m3", elems, lambda x, y: x == y or (x, y) in order)


# ---------------------------------------------------------------------------
# Check results and sublattices


@dataclass(frozen=True, slots=True)
class CheckResult:
    holds: bool
    witness: object = None

    def __bool__(self) -> bool:
        return self.holds


_HOLDS = CheckResult(True)


def _is_sublattice(L: Carrier, items: Sequence) -> bool:
    """Is items, a sequence of elements, closed under meet and join?"""
    return all(L._meet(a, b) in items and L._join(a, b) in items
               for a in items for b in items)


def sublattices(L: FiniteLattice):
    """Yield every nonempty sublattice (as a tuple) of a finite lattice."""
    elems = L.elements()
    for r in range(1, len(elems) + 1):
        for combo in combinations(elems, r):
            if _is_sublattice(L, combo):
                yield combo
