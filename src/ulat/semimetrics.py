"""Lattice semimetrics, derived families, kernels, quotients, agreement.

A lattice semimetric is a symmetric, triangle-inequality semimetric that is
additionally contractive under both lattice operations:

    d(x \\/ z, y \\/ z) <= d(x, y)    and    d(x /\\ z, y /\\ z) <= d(x, y).

Uniformities are represented only through generating families of such
semimetrics; entourages {d < eps} are derived objects and never stored as
filters.  Values live in the nonnegative extended rationals so that exact
comparison is always available.
"""

from __future__ import annotations

import itertools
from array import array
from dataclasses import dataclass
from functools import reduce
from typing import Callable, Optional, Sequence

from .carriers import (Carrier, CarrierMismatch, FiniteLattice, GroupCarrier,
                       _is_sublattice, _lowest_bit, load_finite_lattice)
from .exact import EXT_INF, ExtValue, ext, rat
from .truncation import TruncationPair, _clamp, _clamp_map
from .verdicts import Verdict


@dataclass(frozen=True, slots=True)
class LatticeSemimetric:
    """A named distance function on one carrier, valued in [0, +inf].

    ``func`` is trusted.  A call checks both points, the one place a
    distance checks them, then runs ``_dist``; loops over elements call
    ``_dist`` directly.

    A clamp-derived member d_p carries its pair in ``clamp`` and d in
    ``base``, so Cauchy checks can reuse the clamp's tail constancy
    symbolically; both are None on every other semimetric.
    """

    name: str
    carrier: Carrier
    func: Callable[[object, object], object]
    clamp: Optional[TruncationPair] = None
    base: Optional["LatticeSemimetric"] = None

    def __call__(self, x, y) -> ExtValue:
        return self._dist(self.carrier.check_element(x), self.carrier.check_element(y))

    def _dist(self, x, y) -> ExtValue:
        return ext(self.func(x, y))


@dataclass(frozen=True, slots=True)
class SemimetricFamily:
    """A nonempty finite family of semimetrics over a single carrier."""

    name: str
    carrier: Carrier
    members: tuple[LatticeSemimetric, ...]

    def __post_init__(self):
        if not self.members:
            raise ValueError("a semimetric family must have at least one member")
        for d in self.members:
            if d.carrier is not self.carrier:
                raise CarrierMismatch(
                    f"member {d.name!r} lives on {d.carrier.name!r}, family on {self.carrier.name!r}"
                )

    @staticmethod
    def of(name: str, *members: LatticeSemimetric) -> "SemimetricFamily":
        return SemimetricFamily(name, members[0].carrier if members else None, members)

    def check_carrier(self, L: Carrier) -> None:
        """Loops that hand L's elements to ``_dist`` need the family on L."""
        if self.carrier is not L:
            raise CarrierMismatch(f"family {self.name!r} lives on {self.carrier.name!r}, not {L.name!r}")


# ---------------------------------------------------------------------------
# Builders


_ZERO, _ONE = ExtValue(0), ExtValue(1)


def zero_semimetric(L: Carrier) -> LatticeSemimetric:
    return LatticeSemimetric("zero", L, lambda x, y: _ZERO)


def discrete_semimetric(L: Carrier) -> LatticeSemimetric:
    return LatticeSemimetric("discrete", L, lambda x, y: _ZERO if x == y else _ONE)


def norm_semimetric(G: GroupCarrier, name: str = "l1") -> LatticeSemimetric:
    """d(x, y) = ||x - y|| from the carrier's trusted norm and difference;
    the call checks both points, so a foreign point is refused with
    CarrierMismatch."""
    return LatticeSemimetric(name, G, lambda x, y: G._norm(G._sub(x, y)))


def symmetric_difference_semimetric(algebra) -> LatticeSemimetric:
    """d(A, B) = size of the symmetric difference; +inf across the
    finite/cofinite divide."""

    def dist(a, b):
        if a.cofinite != b.cofinite:
            return EXT_INF
        return len(a.atoms ^ b.atoms)

    return LatticeSemimetric("symdiff", algebra, dist)


def pullback_semimetric(name: str, L: Carrier, mapping: Callable, base: LatticeSemimetric) -> LatticeSemimetric:
    """Pull a semimetric back along a lattice homomorphism into base.carrier.

    The pullback of a lattice semimetric along a homomorphism is again a
    lattice semimetric; callers are responsible for mapping actually being a
    homomorphism (validate_semimetric will catch the failure otherwise).
    L must be finite (else ValueError): each image is checked on base's
    carrier once, here, and the distance runs base's ``_dist`` on them.
    """
    if not L.is_finite:
        raise ValueError("a pullback needs a finite carrier")
    image = {x: base.carrier.check_element(mapping(x)) for x in L.elements()}
    return LatticeSemimetric(name, L, lambda x, y: base._dist(image[x], image[y]))


def table_semimetric(name: str, L: FiniteLattice, table: dict) -> LatticeSemimetric:
    """Semimetric given by an explicit symmetric table over a finite carrier.

    table maps index pairs (i, j) with i < j to distances (ExtValue or
    rationals); the diagonal is zero.  The table is compiled once into an
    n x n matrix over element indices: one ExtValue per distinct distance,
    and a row-major table of codes into them: bytes up to 256 distinct values,
    else an ``array("H")`` (at most 256 elements give at most 32,641 codes).
    """
    n = len(L.elements())
    interned: dict = {ExtValue(0): 0}  # distance -> code

    def code(i, j):
        if i == j:
            return 0
        key = (min(i, j), max(i, j))
        if key not in table:
            raise ValueError(f"distance table {name!r} misses the pair {key}")
        return interned.setdefault(ext(table[key]), len(interned))

    flat = [code(i, j) for i in range(n) for j in range(n)]
    matrix = bytes(flat) if len(interned) <= 256 else array("H", flat)
    values, index = tuple(interned), L._index

    def dist(x, y):
        return values[matrix[index[x] * n + index[y]]]

    return LatticeSemimetric(name, L, dist)


# ---------------------------------------------------------------------------
# Validation


def _axiom_verdict(law: str, witness: tuple) -> Verdict:
    return Verdict.falsified(witness=(law,) + witness, detail=f"{law} violated")


def validate_semimetric(d: LatticeSemimetric) -> Verdict:
    """Check the lattice-semimetric axioms on a finite carrier, exhaustively
    over all pairs and triples: exact, or falsified with (law, elements...)
    as the witness.  A symbolic carrier is refused with ValueError.
    """
    L = d.carrier
    elems = L.elements()
    if elems is None:
        raise ValueError("semimetric validation needs a finite carrier")

    dist, join, meet = d._dist, L._join, L._meet
    for x, y, z in itertools.product(elems, repeat=3):
        dxy = dist(x, y)
        if dist(x, x) != 0:
            return _axiom_verdict("zero-diagonal", (x,))
        if dxy != dist(y, x):
            return _axiom_verdict("symmetry", (x, y))
        if dist(x, z) > dxy + dist(y, z):
            return _axiom_verdict("triangle", (x, y, z))
        if dist(join(x, z), join(y, z)) > dxy:
            return _axiom_verdict("join-contraction", (x, y, z))
        if dist(meet(x, z), meet(y, z)) > dxy:
            return _axiom_verdict("meet-contraction", (x, y, z))
    return Verdict.exact(detail=f"exhaustive over {len(elems)}^3 triples")


# ---------------------------------------------------------------------------
# Derived semimetrics and clamp families


def derived_semimetric(d: LatticeSemimetric, p: TruncationPair) -> LatticeSemimetric:
    """d_p(x, y) = d(clamp_p(x), clamp_p(y)) for a canonical pair p.

    Contraction applied twice gives d_p <= d pointwise, so every derived
    member is dominated by its source.  The pair is checked here, once, and
    the clamps run on the points the call has checked.
    """
    if not p.canonical:
        raise ValueError(f"derived semimetric needs a canonical pair, got {p!r}")
    p = TruncationPair.of(d.carrier, p.low, p.high)
    L, low, high = d.carrier, p.low, p.high

    def dist(x, y):
        return d._dist(_clamp(L, low, high, x), _clamp(L, low, high, y))

    return LatticeSemimetric(f"{d.name}[{p.low},{p.high}]", L, dist, clamp=p, base=d)


def ustar_family(D: SemimetricFamily, J: Sequence[TruncationPair]) -> SemimetricFamily:
    """The family {d_p : d in D, p in J} generating the clamped uniformity.

    With J = all canonical pairs of a generating grid this is the unbounded
    modification of the uniformity generated by D.
    """
    pairs = list(J)
    if not pairs:
        raise ValueError("the index set J must be nonempty")
    members = tuple(derived_semimetric(d, p) for d in D.members for p in pairs)
    return SemimetricFamily(f"{D.name}*", D.carrier, members)


# ---------------------------------------------------------------------------
# Zero rows: kernels on a finite carrier as bitmasks


def _zero_rows(L: FiniteLattice) -> Callable[[LatticeSemimetric], list]:
    """The zero rows of semimetrics on L, for one call: ``rows(d)`` holds,
    at element index i, the bitmask of the indices j where d vanishes at
    (e_i, e_j).

    A semimetric's rows take n^2 ``_dist`` calls, made once and kept
    only by the returned function.  A clamp-derived member d_p takes none:
    d_p vanishes at (x, y) exactly when its base d vanishes at the clamped
    pair, so its rows are d's pulled back through the clamp's index map
    (``_pull_back``).  Those rows are rebuilt from the base's on each
    request, so a clamp family holds one member's rows at a time.
    """
    elems = L._elements
    built: dict = {}  # id(d) -> (d, its rows)

    def rows(d: LatticeSemimetric) -> list:
        # d_p's clamp, then its base's, ... down to a plain semimetric; a
        # loop, since a closure that calls itself is a reference cycle and
        # would keep the rows until the cyclic collector runs
        clamps = []
        while d.clamp is not None:
            clamps.append(d.clamp)
            d = d.base
        got = built.get(id(d))
        if got is None:
            dist = d._dist
            got = built[id(d)] = (d, [sum(1 << j for j, y in enumerate(elems) if dist(x, y).is_zero)
                                      for x in elems])
        table = got[1]
        for p in reversed(clamps):
            table = _pull_back(table, _clamp_map(L, p.low, p.high))
        return table

    return rows


def _pull_back(table: list, clamp: bytes) -> list:
    """Zero rows pulled back through an index map: entry i is the bitmask of
    the j with clamp[j] in table's row at clamp[i]."""
    preimage = dict.fromkeys(clamp, 0)  # image index -> bitmask of its preimage
    for i, v in enumerate(clamp):
        preimage[v] |= 1 << i
    # the preimages are disjoint, so their sum is their union
    pulled = {v: sum(mask for j, mask in preimage.items() if table[v] >> j & 1)
              for v in preimage}
    return [pulled[v] for v in clamp]


def _joint_rows(tables) -> list:
    """The joint kernel of one or more tables of zero rows, entry by entry:
    for ``map(rows, D.members)``, bit j of entry i is set when every member
    of D vanishes at (e_i, e_j)."""
    return reduce(lambda joint, rows: [a & b for a, b in zip(joint, rows)], tables)


# ---------------------------------------------------------------------------
# Kernel, congruence, quotient


@dataclass(frozen=True, slots=True)
class KernelRelation:
    """Zero-distance classes of a semimetric family on a finite carrier."""

    carrier: Carrier
    blocks: tuple[tuple, ...]

    def class_index(self, x) -> int:
        """The index of x's class.  x must be an element of the finite
        carrier, of its type too: a value that only compares equal to one
        (True for 1) is refused with CarrierMismatch."""
        if not self.carrier.contains(x):
            raise CarrierMismatch(f"{x!r} is not an element of carrier {self.carrier.name!r}")
        for i, block in enumerate(self.blocks):
            if x in block:
                return i
        raise CarrierMismatch(f"{x!r} is not in any kernel class of {self.carrier.name!r}")


def kernel_partition(L: Carrier, D: SemimetricFamily) -> KernelRelation:
    """Partition a finite carrier into zero-distance classes of D.

    Read from D's joint zero rows, e_i joins the first class whose
    representative e_r has bit r in row i, else opens its own.

    Also verifies that the classes are congruence classes for both lattice
    operations: the class of x \\/ z and of x /\\ z may depend only on the
    classes of the arguments.  A violation means the input was not really a
    family of lattice semimetrics and raises ValueError with a witness.
    """
    D.check_carrier(L)
    elems = L.elements()
    if elems is None:
        raise ValueError("kernel partition needs a finite carrier")

    joint = _joint_rows(map(_zero_rows(L), D.members))
    blocks: list[list[int]] = []  # element indices, representative first
    class_of = []  # element index -> index of its class
    for i, row in enumerate(joint):
        c = next((c for c, block in enumerate(blocks) if row >> block[0] & 1), len(blocks))
        if c == len(blocks):
            blocks.append([])
        blocks[c].append(i)
        class_of.append(c)

    n = len(elems)
    for x, *others in blocks:
        for y in others:
            for z in range(n):
                for table, tag in ((L._join_table, "join"), (L._meet_table, "meet")):
                    if class_of[table[x * n + z]] != class_of[table[y * n + z]]:
                        raise ValueError(
                            f"kernel classes are not a {tag} congruence: "
                            f"witness x={elems[x]!r}, y={elems[y]!r}, z={elems[z]!r}"
                        )
    return KernelRelation(L, tuple(tuple(elems[i] for i in block) for block in blocks))


@dataclass(frozen=True, slots=True)
class QuotientLattice:
    """Finite quotient by a kernel, and whether its elements are separated."""

    carrier: FiniteLattice
    hausdorff: bool


def quotient(L: Carrier, kernel: KernelRelation, D: SemimetricFamily) -> QuotientLattice:
    """Collapse each zero-distance class to its first representative.

    The induced distances are well-defined by the triangle inequality:
    moving either argument inside its class costs zero.  Well-definedness is
    still verified element by element and a violation raises ValueError.
    The induced distances separate distinct classes by construction, so the
    quotient kernel is discrete; this is checked on the representatives'
    joint zero rows, the earlier one first, and recorded in ``hausdorff``.
    """
    if kernel.carrier is not L or D.carrier is not L:
        raise CarrierMismatch("kernel, family, and carrier must agree")
    reps = [block[0] for block in kernel.blocks]

    for d in D.members:
        for bi in kernel.blocks:
            for bj in kernel.blocks:
                base = d._dist(bi[0], bj[0])
                for x in bi:
                    for y in bj:
                        if d._dist(x, y) != base:
                            raise ValueError(
                                "representative-dependence detected: "
                                f"{d.name} at x={x!r}, y={y!r} differs from class value"
                            )

    class_of = {x: kernel.class_index(x) for x in L.elements()}
    Q = FiniteLattice.from_leq(f"{L.name}/ker", reps,
                               lambda rx, ry: class_of[L._meet(rx, ry)] == class_of[rx])
    joint = _joint_rows(map(_zero_rows(L), D.members))
    at = [L._index[r] for r in reps]
    separated = not any(joint[i] >> j & 1 for i, j in itertools.combinations(at, 2))
    return QuotientLattice(Q, separated)


# ---------------------------------------------------------------------------
# Agreement of two families on an order interval


def order_interval(L: Carrier, p: TruncationPair) -> list:
    """All elements between p.low and p.high on a finite carrier."""
    elems = L.elements()
    if elems is None:
        raise ValueError("order intervals are only enumerable on finite carriers")
    if not p.canonical:
        raise ValueError("an order interval needs a canonical pair")
    low, high = L.check_element(p.low), L.check_element(p.high)
    return [x for x in elems if L._leq(low, x) and L._leq(x, high)]


def _dominates(rows, kernel: list, Dv: SemimetricFamily, interval: list) -> tuple:
    """Does the uniformity of a family with joint zero rows ``kernel``
    contain that of Dv on the interval squared?

    On a finite set a finite family generates the filter of its joint kernel
    {max_Du = 0} (take delta below the least positive value), so Du dominates
    Dv iff every d_v vanishes wherever Du does; no triangle inequality is
    used.  Each member's rows are built once, checked against ``kernel``
    on the interval, and folded into Dv's joint rows, returned as (None,
    rows).  The first member that fails gives (witness, None): (d_v name,
    eps, x, y), (x, y) the first kernel pair of the square, row by row in
    element order, where d_v > 0, and eps the least positive value of d_v
    on the square, so d_v >= eps is forced at max_Du = 0.
    """
    L = Dv.carrier
    inside = [L._index[x] for x in interval]
    mask = sum(1 << i for i in inside)
    joint = None
    for dv in Dv.members:
        dv_rows = rows(dv)
        for i in inside:
            bad = kernel[i] & mask & ~dv_rows[i]
            if bad:
                eps = min(v for v in (dv._dist(x, y) for x in interval for y in interval)
                          if not v.is_zero)
                return (dv.name, eps, L._elements[i], L._elements[_lowest_bit(bad)]), None
        joint = dv_rows if joint is None else [a & b for a, b in zip(joint, dv_rows)]
    return None, joint


def interval_agreement(Du: SemimetricFamily, Dv: SemimetricFamily, p: TruncationPair) -> Verdict:
    """Do Du and Dv induce the same uniformity on the interval [p.low, p.high]?

    Both directions of domination are decided exactly from the joint
    kernels on the interval squared, read from zero rows (``_zero_rows``):
    a clamp-derived member's kernel comes from its base's through the
    clamp's index map, so no derived distance is evaluated per pair, and
    each member's rows are built once for both directions.  Exact on
    success; falsified with a witness pair on failure.  Finite carriers
    only.
    """
    if Du.carrier is not Dv.carrier:
        raise CarrierMismatch("both families must live on the same carrier")
    interval = order_interval(Du.carrier, p)
    rows = _zero_rows(Du.carrier)
    kernel = _joint_rows(map(rows, Du.members))
    for u, v in ((Du, Dv), (Dv, Du)):
        witness, kernel = _dominates(rows, kernel, v, interval)
        if witness is not None:
            return Verdict.falsified(witness=witness,
                                     detail=f"{u.name} does not dominate {v.name} on the interval")
    return Verdict.exact(detail=f"mutual domination over {len(interval)}^2 pairs")


# ---------------------------------------------------------------------------
# Hausdorff criterion for clamped uniformities indexed by a sublattice


def ph_criterion(L: FiniteLattice, S: Sequence, D: SemimetricFamily) -> bool:
    """Decide whether the clamp family over index pairs from S is Hausdorff.

    Two independent computations are run and must agree:

    criterion:  D itself is Hausdorff (joint kernel discrete)  AND  every x
                is recovered from S both ways, x = join of s /\\ x and
                x = meet of s \\/ x over s in S;
    kernel:     the joint kernel of {d_p : d in D, p canonical from S} is
                discrete.

    Both are read from zero rows, the second's pulled back through the
    clamp maps; a kernel is discrete when no row i has a bit j > i.  A
    disagreement raises RuntimeError (it would falsify the theory the
    implementation rests on); the shared boolean is returned.  A family on
    another carrier is refused with CarrierMismatch.
    """
    D.check_carrier(L)
    items = [L.check_element(s) for s in S]
    if not items:
        raise ValueError("S must be nonempty")
    if not _is_sublattice(L, items):
        raise ValueError("S is not a sublattice: not closed under meet and join")

    def discrete(rows):
        return not any(row >> (i + 1) for i, row in enumerate(rows))

    joint = _joint_rows(map(_zero_rows(L), D.members))
    by_criterion = discrete(joint) and all(
        reduce(L._join, [L._meet(s, x) for s in items]) == x
        and reduce(L._meet, [L._join(s, x) for s in items]) == x
        for x in L.elements())

    # discreteness of the joint clamp kernel, checked directly: on
    # nondistributive carriers the clamps are not homomorphisms, so the
    # kernel classes need not be congruence classes and kernel_partition
    # would reject them
    kernel_hausdorff = discrete(_joint_rows(_pull_back(joint, _clamp_map(L, a, b))
                                            for a in items for b in items if L._leq(a, b)))

    if by_criterion != kernel_hausdorff:
        raise RuntimeError(
            f"criterion/kernel disagreement on {L.name!r} with S={items!r}: "
            f"criterion says {by_criterion}, kernel says {kernel_hausdorff}"
        )
    return by_criterion


# ---------------------------------------------------------------------------
# JSON distance tables


def load_distance_table(doc: dict, carriers: Optional[dict] = None,
                        name: str = "table") -> LatticeSemimetric:
    """Load {"carrier": ..., "distances": [[i, j, "p/q" | int | "inf"], ...]}.

    The carrier entry is either a name resolved through the carriers mapping
    or an inline lattice document.  Indices refer to the carrier's element
    order.  Values are exact: an integer, a "p/q" string or "inf"; JSON
    floats and booleans are refused.  Symmetric duplicates must agree,
    diagonal entries must be zero, and every off-diagonal pair must be
    covered.
    """
    if not isinstance(doc, dict):
        raise ValueError("distance table must be a JSON object")
    spec_carrier = doc.get("carrier")
    if isinstance(spec_carrier, str):
        if carriers is None or spec_carrier not in carriers:
            raise ValueError(f"unknown carrier name {spec_carrier!r}")
        L = carriers[spec_carrier]
    elif isinstance(spec_carrier, dict):
        L = load_finite_lattice(spec_carrier)
    else:
        raise ValueError("carrier must be a name or an inline lattice document")
    if not isinstance(L, FiniteLattice):
        raise ValueError("distance tables are only supported over finite carriers")

    entries = doc.get("distances")
    if not isinstance(entries, list):
        raise ValueError("distances must be a list of [i, j, value] rows")
    n = len(L.elements())
    table: dict[tuple[int, int], ExtValue] = {}
    for row in entries:
        if not (isinstance(row, list) and len(row) == 3):
            raise ValueError(f"bad distance row {row!r}")
        i, j, raw = row
        if not all(type(k) is int and 0 <= k < n for k in (i, j)):
            raise ValueError(f"distance row {row!r} has out-of-range indices")
        if raw == "inf":
            value = EXT_INF
        else:
            try:
                q = rat(raw)
            except ZeroDivisionError as exc:
                raise ValueError(f"distance row {row!r} divides by zero") from exc
            except (TypeError, ValueError) as exc:
                raise ValueError(f"distance row {row!r} is not an exact rational") from exc
            if q < 0:
                raise ValueError(f"distance row {row!r} is negative")
            value = ExtValue(q)
        if i == j:
            if value != 0:
                raise ValueError(f"nonzero diagonal entry at index {i}")
            continue
        key = (min(i, j), max(i, j))
        if key in table and table[key] != value:
            raise ValueError(f"asymmetric entries for pair {key}: {table[key]!r} vs {value!r}")
        table[key] = value
    missing = [(i, j) for i in range(n) for j in range(i + 1, n) if (i, j) not in table]
    if missing:
        raise ValueError(f"distance table is incomplete: missing pairs {missing[:5]}")
    return table_semimetric(name, L, table)
