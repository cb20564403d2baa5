"""Reference checks and inputs that only the tests use: the lattice, the
lattice-ordered group and the lattice-semimetric axioms over given
elements, the two ell-group laws of ``truncation`` on any group carrier's
trusted operations, distributivity by a loop over all triples and by
join-prime elements, closure under meet and join, an eventually constant
sequence with an arbitrary prefix, the terms of a moving window atom by
atom, seeded draws of the elements of each symbolic carrier, the
polynomial sign decisions by a scan up to Cauchy's root bound, the
closed-form ring operations without reduction, the metric convergence and
Cauchy scans comparing each distance with eps itself, as they did before
eps became one ExtValue per scan, and two term scans that the oracles
answered with before they read descriptors only: eventual constancy up to
a horizon, and interval containment of data that settles, and three
clamp-family checks pair by pair as they ran before clamps became index
maps: domination of one family's uniformity by another's on an order
interval, the closure sets of two families, and the clamp composition law
through ``_clamp``, and the kernel questions as they ran pair by pair before
every one read joint zero rows: whether a family vanishes at a pair or
separates given points, the greedy kernel partition with its congruence
check, whether a quotient's representatives are separated, and the
recovery criterion against the separation of the clamp family. The axiom
and distributivity checks go through the carrier's public, checking
operations and nothing faster; an axiom check's witness is the failing
elements followed by the name of the law. The parts of the recovery
criterion and the family a quotient induces are recomputed here for the
tests that read them."""

import itertools
from fractions import Fraction
from functools import reduce

from ulat.carriers import CheckResult, _is_sublattice
from ulat.convergence import (DEFAULT_EPS_GRID, DEFAULT_HORIZON, _points, _positive_grid,
                              _probe_indices, truncate_sequence)
from ulat.exact import Poly, RatAltSeq
from ulat.semimetrics import (KernelRelation, LatticeSemimetric, SemimetricFamily, order_interval,
                              ustar_family)
from ulat.sequences import EventuallyConstant, SequenceFamily, _constant_tail
from ulat.spaces import (C00Space, C00Vec, EvLinSeq, EvLinSpace, FinCofAlgebra, FinCofSet, QLine,
                         QVec)
from ulat.truncation import TruncationPair, _clamp
from ulat.verdicts import Verdict


def distributivity(L) -> CheckResult:
    """x /\\ (y \\/ z) = (x /\\ y) \\/ (x /\\ z) over every triple of a finite
    carrier, the first failing triple in element order as the witness."""
    elems = L.elements()
    for x in elems:
        for y in elems:
            for z in elems:
                if L.meet(x, L.join(y, z)) != L.join(L.meet(x, y), L.meet(x, z)):
                    return CheckResult(False, witness=(x, y, z))
    return CheckResult(True)


def join_prime_distributivity(L) -> bool:
    """Distributivity by join-primes: a finite lattice is distributive iff
    every join-irreducible element j is join-prime (Davey and Priestley,
    Introduction to Lattices and Order, ch. 5).  j is join-irreducible when
    the elements strictly below it exist and join to less than j, and
    join-prime when the join of the elements not above j is not above j."""
    elems = L.elements()
    for j in elems:
        below = [x for x in elems if x != j and L.leq(x, j)]
        if not below or reduce(L.join, below) == j:
            continue
        rest = [x for x in elems if not L.leq(j, x)]
        if L.leq(j, reduce(L.join, rest)):
            return False
    return True


def check_lattice_axioms(L, xs) -> CheckResult:
    """Commutativity, associativity, idempotence, absorption and the
    meet/leq coherence, over all pairs/triples drawn from xs."""
    xs = [L.check_element(x) for x in xs]
    for x in xs:
        if L.meet(x, x) != x:
            return CheckResult(False, (x, "meet-idempotent"))
        if L.join(x, x) != x:
            return CheckResult(False, (x, "join-idempotent"))
    for x in xs:
        for y in xs:
            if L.meet(x, y) != L.meet(y, x):
                return CheckResult(False, (x, y, "meet-commutative"))
            if L.join(x, y) != L.join(y, x):
                return CheckResult(False, (x, y, "join-commutative"))
            if L.meet(x, L.join(x, y)) != x:
                return CheckResult(False, (x, y, "absorption-meet-join"))
            if L.join(x, L.meet(x, y)) != x:
                return CheckResult(False, (x, y, "absorption-join-meet"))
            if L.leq(x, y) != (L.join(x, y) == y):
                return CheckResult(False, (x, y, "leq-meet-join-coherence"))
    for x in xs:
        for y in xs:
            for z in xs:
                if L.meet(L.meet(x, y), z) != L.meet(x, L.meet(y, z)):
                    return CheckResult(False, (x, y, z, "meet-associative"))
                if L.join(L.join(x, y), z) != L.join(x, L.join(y, z)):
                    return CheckResult(False, (x, y, z, "join-associative"))
    return CheckResult(True)


def pos_part(G, x):
    return G.join(x, G.zero)


def neg_part(G, x):
    return G.join(G.negate(x), G.zero)


def check_group_axioms(G, xs) -> CheckResult:
    """Translation invariance of the order plus the standard decompositions
    x = pos - neg, |x| = pos + neg, pos /\\ neg = 0, over elements of xs."""
    xs = [G.check_element(x) for x in xs]
    for x in xs:
        pos, neg = pos_part(G, x), neg_part(G, x)
        if G.sub(pos, neg) != x:
            return CheckResult(False, (x, "pos-minus-neg"))
        if G.add(pos, neg) != G.abs_(x):
            return CheckResult(False, (x, "abs-as-pos-plus-neg"))
        if G.meet(pos, neg) != G.zero:
            return CheckResult(False, (x, "pos-meet-neg-zero"))
    for x in xs:
        for y in xs:
            for z in xs:
                if G.leq(x, y) != G.leq(G.add(x, z), G.add(y, z)):
                    return CheckResult(False, (x, y, z, "translation-invariance"))
                if G.add(G.meet(x, y), z) != G.meet(G.add(x, z), G.add(y, z)):
                    return CheckResult(False, (x, y, z, "translation-meet"))
                if G.add(G.join(x, y), z) != G.join(G.add(x, z), G.add(y, z)):
                    return CheckResult(False, (x, y, z, "translation-join"))
    return CheckResult(True)


def check_semimetric_axioms(d, triples) -> CheckResult:
    """The lattice-semimetric axioms over the given triples, through the
    checking call d(x, y) and the carrier's public operations."""
    L = d.carrier
    for x, y, z in triples:
        if d(x, x) != 0:
            return CheckResult(False, (x, "zero-diagonal"))
        if d(x, y) != d(y, x):
            return CheckResult(False, (x, y, "symmetry"))
        if d(x, z) > d(x, y) + d(y, z):
            return CheckResult(False, (x, y, z, "triangle"))
        if d(L.join(x, z), L.join(y, z)) > d(x, y):
            return CheckResult(False, (x, y, z, "join-contraction"))
        if d(L.meet(x, z), L.meet(y, z)) > d(x, y):
            return CheckResult(False, (x, y, z, "meet-contraction"))
    return CheckResult(True)


def abs_meet_split(G, x, y, a):
    """|x - y| /\\ a and its two clamp terms around y, with p- = (y - a, y)
    and p+ = (y, y + a), on any group carrier's trusted operations: the
    generic body of ``decompose_abs_meet``, which holds when the first
    equals the sum of the other two."""
    lhs = G._meet(G._abs(G._sub(x, y)), a)
    low, high = G._sub(y, a), G._add(y, a)
    term_low = G._abs(G._sub(_clamp(G, low, y, x), _clamp(G, low, y, y)))
    term_high = G._abs(G._sub(_clamp(G, y, high, x), _clamp(G, y, high, y)))
    return lhs, term_low, term_high


def abs_meet_split_holds(G, x, y, a) -> bool:
    lhs, term_low, term_high = abs_meet_split(G, x, y, a)
    return lhs == G._add(term_low, term_high)


def base_point_bound_holds(G, s, x, y, a) -> bool:
    """The generic body of ``clamp_difference_bound``: the clamp over
    (s, s + a) moves x and y no further apart than |x - y| /\\ a."""
    high = G._add(s, a)
    diff = G._abs(G._sub(_clamp(G, s, high, x), _clamp(G, s, high, y)))
    return G._leq(diff, G._meet(G._abs(G._sub(x, y)), a))


def is_sublattice(L, S) -> bool:
    """Is S, each of its members checked once, closed under meet and join?"""
    return _is_sublattice(L, [L.check_element(s) for s in S])


def recovery_parts(L, S, D):
    """The parts of the recovery criterion for the clamp family over S,
    through the public checking operations: whether D separates L, whether
    every x is the join of s /\\ x over s in S, whether every x is the meet
    of s \\/ x over s in S, and the first x that fails either (None if no
    x fails)."""
    items = [L.check_element(s) for s in S]

    def from_below(x):
        return reduce(L.join, [L.meet(s, x) for s in items]) == x

    def from_above(x):
        return reduce(L.meet, [L.join(s, x) for s in items]) == x

    elems = L.elements()
    failing = next((x for x in elems if not (from_below(x) and from_above(x))), None)
    return (separates(D, elems), all(map(from_below, elems)), all(map(from_above, elems)),
            failing)


def vanishes(D, x, y) -> bool:
    """Does every member of D vanish at (x, y)?"""
    return all(d._dist(x, y).is_zero for d in D.members)


def separates(D, xs) -> bool:
    """Hausdorff on xs, each point checked: no two distinct points of xs,
    the earlier one first, at joint distance 0.  A point listed twice is
    not compared with itself."""
    xs = [D.carrier.check_element(x) for x in xs]
    return not any(x != y and vanishes(D, x, y) for x, y in itertools.combinations(xs, 2))


def kernel_partition(L, D) -> KernelRelation:
    """Each element, in element order, joins the first class whose
    representative r has D vanishing at (x, r), else opens its own; then the
    classes are checked for a join and a meet congruence through
    ``class_index``, ValueError naming the first witness."""
    blocks = []
    for x in L.elements():
        for block in blocks:
            if vanishes(D, x, block[0]):
                block.append(x)
                break
        else:
            blocks.append([x])
    kernel = KernelRelation(L, tuple(tuple(b) for b in blocks))
    for block in kernel.blocks:
        x = block[0]
        for y in block[1:]:
            for z in L.elements():
                for op, tag in ((L.join, "join"), (L.meet, "meet")):
                    if kernel.class_index(op(x, z)) != kernel.class_index(op(y, z)):
                        raise ValueError(
                            f"kernel classes are not a {tag} congruence: "
                            f"witness x={x!r}, y={y!r}, z={z!r}"
                        )
    return kernel


def quotient_hausdorff(kernel, D) -> bool:
    """No two class representatives, the earlier one first, at joint
    distance 0."""
    reps = [block[0] for block in kernel.blocks]
    return not any(vanishes(D, x, y) for x, y in itertools.combinations(reps, 2))


def ph_criterion(L, S, D) -> bool:
    """The recovery criterion (``recovery_parts``) against the separation of
    the clamp family ``ustar_family(D, pairs)`` over the pairs a <= b of S,
    RuntimeError when they disagree."""
    items = [L.check_element(s) for s in S]
    separated, from_below, from_above, _ = recovery_parts(L, items, D)
    by_criterion = separated and from_below and from_above
    pairs = [TruncationPair(a, b, True) for a in items for b in items if L.leq(a, b)]
    kernel_hausdorff = separates(ustar_family(D, pairs), L.elements())
    if by_criterion != kernel_hausdorff:
        raise RuntimeError(
            f"criterion/kernel disagreement on {L.name!r} with S={items!r}: "
            f"criterion says {by_criterion}, kernel says {kernel_hausdorff}"
        )
    return by_criterion


def induced_family(Q, D) -> SemimetricFamily:
    """D's members on the carrier of the quotient Q: the induced distances
    between class representatives."""
    return SemimetricFamily(D.name, Q.carrier, tuple(LatticeSemimetric(d.name, Q.carrier, d.func)
                                                     for d in D.members))


def eventually_constant_sequence(L, prefix, value, name: str) -> SequenceFamily:
    """The terms of prefix, then value from index len(prefix) + 1 on."""
    prefix = tuple(L.check_element(v) for v in prefix)
    value = L.check_element(value)

    def term(k):
        return prefix[k - 1] if k <= len(prefix) else value

    return SequenceFamily(name, L, term, EventuallyConstant(value, len(prefix) + 1))


def window_term(sliding: bool, dropped, k: int, atoms: range) -> frozenset:
    """The k-th term of a window on the given atoms, counted one atom at a
    time: the atoms i with lo(k) <= i <= k, where lo(k) = k when sliding and
    1 when growing, or, when dropped is a set of atoms, the atoms in neither
    that window nor dropped."""
    inside = {i for i in atoms if (i == k if sliding else i <= k)}
    return frozenset(inside if dropped is None else set(atoms) - inside - dropped)


def restrict(x, atoms: range) -> frozenset:
    """The members among atoms of a finite/cofinite set."""
    return frozenset(i for i in atoms if (i in x.atoms) != x.cofinite)


def randint_fraction(rng, num_span=20, den_span=10) -> Fraction:
    return Fraction(rng.randint(-num_span, num_span), rng.randint(1, den_span))


# A carrier per name, and a seeded draw of its elements written with the
# randint calls it makes; ``sample`` on the line and the vectors draws the
# same elements with the same calls.
RANDINT_SAMPLERS = {
    "qline": (QLine(), randint_fraction),
    "qvec3": (QVec(3), lambda rng: tuple(randint_fraction(rng) for _ in range(3))),
    "c00": (C00Space(), lambda rng: C00Vec.from_pairs(
        [(rng.randint(1, 8), randint_fraction(rng)) for _ in range(rng.randint(0, 4))])),
    "fincof": (FinCofAlgebra(), lambda rng: FinCofSet(
        frozenset(rng.randint(1, 8) for _ in range(rng.randint(0, 3))),
        bool(rng.randint(0, 1)))),
    "evlin": (EvLinSpace(), lambda rng: EvLinSeq.make(
        [randint_fraction(rng, 8, 4) for _ in range(rng.randint(0, 3))],
        randint_fraction(rng, 4, 3), randint_fraction(rng, 3, 3))),
}


def cauchy_floor(p: Poly) -> int:
    """The floor of Cauchy's bound 1 + max |c_i| / |lead|, past which p
    keeps the sign of its leading coefficient (1 for a constant)."""
    if p.degree <= 0:
        return 1
    bound = 1 + max(abs(c) for c in p.coeffs[:-1]) / abs(p.lead)
    return bound.numerator // bound.denominator


def scan_nonneg_from(p: Poly, t0: int, strict: bool = False):
    """``Poly.nonneg_from`` by evaluating every integer from t0 past the
    root bound: (True, None) or (False, the first failing integer)."""
    if p.is_zero:
        return (True, None) if not strict else (False, t0)
    for t in range(t0, max(t0, cauchy_floor(p) + 1) + 1):
        v = p.eval(t)
        if v < 0 or (strict and v == 0):
            return (False, t)
    return (True, None)


def scan_last_negative(p: Poly, t0: int):
    """``Poly.last_negative`` by a downward scan from the root bound."""
    if p.lead < 0:
        raise ValueError("p(t) < 0 for every large t")
    return next((t for t in range(cauchy_floor(p), t0 - 1, -1) if p.eval(t) < 0), None)


def raw_add(x: RatAltSeq, y: RatAltSeq) -> RatAltSeq:
    """x + y over the product of the denominators, nothing cancelled."""
    return RatAltSeq(x.num * y.den + y.num * x.den, x.anum * y.den + y.anum * x.den,
                     x.den * y.den)


def raw_mul(x: RatAltSeq, y: RatAltSeq) -> RatAltSeq:
    return RatAltSeq(x.num * y.num + x.anum * y.anum, x.num * y.anum + x.anum * y.num,
                     x.den * y.den)


def scan_metric_converges(seq, x, D, cert, eps_grid=DEFAULT_EPS_GRID,
                          horizon: int = DEFAULT_HORIZON) -> Verdict:
    """``metric_converges``, comparing each distance with the Fraction eps."""
    eps_grid = _positive_grid(eps_grid)
    D.check_carrier(seq.carrier)
    x = seq.carrier.check_element(x)
    tail = _constant_tail(seq)
    parts = []
    for d in D.members:
        for eps in eps_grid:
            start = cert.at(eps, d.name)
            points, exact = _points(seq, tail, start, range(start, horizon + 1))
            hit = next((k for k, v in points if d._dist(v, x) > eps), None)
            if hit is not None:
                parts.append(Verdict.falsified(witness=(d.name, str(eps), hit),
                                               detail="distance exceeded eps beyond the certificate"))
            elif exact:
                parts.append(Verdict.exact(detail=f"{d.name}, eps={eps}: eventually constant tail"))
            else:
                parts.append(Verdict.at_horizon(horizon, detail=f"{d.name}, eps={eps}"))
    return Verdict.weakest(parts)


def scan_metric_cauchy(seq, D, cert=None, eps_grid=DEFAULT_EPS_GRID,
                       horizon: int = DEFAULT_HORIZON) -> Verdict:
    """``metric_cauchy``, comparing each pair distance with the Fraction eps."""
    eps_grid = _positive_grid(eps_grid)
    D.check_carrier(seq.carrier)
    parts = []
    for d in D.members:
        walk, dist, what = seq, d._dist, "tail"
        if d.clamp is not None:
            walk, dist, what = truncate_sequence(seq, d.clamp), d.base._dist, "clamped tail"
        tail = _constant_tail(walk)
        knee = max(tail[0], 1) if d.clamp is not None and tail is not None else 1
        for eps in eps_grid:
            start = cert.at(eps, d.name) if cert is not None else knee
            points, exact = _points(walk, tail, start, _probe_indices(start, horizon, 16))
            hit = next(((a, b) for (a, u), (b, v) in itertools.combinations(points, 2)
                        if dist(u, v) > eps), None)
            if hit is not None:
                parts.append(Verdict.falsified(witness=(d.name, str(eps)) + hit,
                                               detail="pair distance exceeded eps beyond the certificate"))
            elif exact:
                parts.append(Verdict.exact(detail=f"{d.name}, eps={eps}: {what} is eventually constant"))
            else:
                parts.append(Verdict.at_horizon(horizon, detail=f"{d.name}, eps={eps}"))
    return Verdict.weakest(parts)


def scan_eventual_constancy(seq, x, horizon: int) -> Verdict:
    """Eventual constancy at x by a scan of the terms up to the horizon:
    falsified while the terms still change near the horizon, verified at
    the horizon when they end at x, inconclusive when they end elsewhere."""
    prev, last_change = seq.value(1), None
    for k in range(2, horizon + 1):
        cur = seq.value(k)
        if cur != prev:
            last_change, prev = k, cur
    if last_change is not None and last_change > horizon - 2:
        return Verdict.falsified(witness=(last_change - 1, last_change),
                                 detail="still changing at the horizon")
    if prev == x:
        return Verdict.at_horizon(horizon, detail=f"constant from index {last_change or 1} to horizon")
    return Verdict.inconclusive(detail="stable at a different value within the horizon")


def settled_containment(seq, w) -> Verdict:
    """x_k in [lower(j), upper(j)] for every j and every k >= K(j), decided
    exactly when the sequence and both chains settle: past the later knee of
    the chains every j repeats the last, and past the sequence's knee every
    k repeats the last term."""
    tails = [_constant_tail(s) for s in (seq, w.lower, w.upper)]
    k_stop, lower_knee, upper_knee = (t[0] for t in tails)
    L = seq.carrier
    for j in range(1, max(lower_knee, upper_knee) + 2):
        start = w.k_of(j)
        mj, nj = w.lower.value(j), w.upper.value(j)
        for k in range(start, max(k_stop, start) + 1):
            if not (L._leq(mj, seq.value(k)) and L._leq(seq.value(k), nj)):
                return Verdict.falsified(witness=("containment", j, k),
                                         detail="interval containment violated")
    return Verdict.exact(detail="eventually constant containment")


def dominates(Du, Dv, square):
    """Does the uniformity of Du contain that of Dv over the pairs of
    square?  Du's joint kernel is listed pair by pair, and each d_v is
    evaluated on it: (d_v name, eps, x, y) for the first kernel pair where
    d_v > 0, eps the least positive value of d_v on the square, or None."""
    kernel = [(x, y) for x, y in square if vanishes(Du, x, y)]
    for dv in Dv.members:
        bad = next(((x, y) for x, y in kernel if not dv._dist(x, y).is_zero), None)
        if bad is not None:
            eps = min(v for v in (dv._dist(x, y) for x, y in square) if not v.is_zero)
            return (dv.name, eps) + bad
    return None


def interval_agreement(Du, Dv, p) -> Verdict:
    """``semimetrics.interval_agreement`` deciding each direction of
    domination with ``dominates`` on the interval squared."""
    interval = order_interval(Du.carrier, p)
    square = [(x, y) for x in interval for y in interval]
    for u, v in ((Du, Dv), (Dv, Du)):
        witness = dominates(u, v, square)
        if witness is not None:
            return Verdict.falsified(witness=witness,
                                     detail=f"{u.name} does not dominate {v.name} on the interval")
    return Verdict.exact(detail=f"mutual domination over {len(interval)}^2 pairs")


def closure_gap(L, Du, Dv, subsets):
    """(subsets tried, the first subset A whose closure differs between Du
    and Dv, or None), each closure a set built point by point."""
    elems = L.elements()
    for tried, A in enumerate(subsets, 1):
        cl_u = {x for x in elems if any(vanishes(Du, x, a) for a in A)}
        cl_v = {x for x in elems if any(vanishes(Dv, x, a) for a in A)}
        if cl_u != cl_v:
            return tried, A
    return len(subsets), None


def composition_law(L, compose):
    """(tuples tried, first (a, b, c, d, x) where clamping by the pair
    ``compose(L, outer, inner)`` differs from clamping twice, or None),
    every clamp of every x through ``_clamp``."""
    elems = L.elements()
    total = 0
    for a in elems:
        for b in elems:
            outer = TruncationPair.of(L, a, b)
            for c in elems:
                for d in elems:
                    inner = TruncationPair.of(L, c, d)
                    comp = compose(L, outer, inner)
                    for x in elems:
                        total += 1
                        two_step = _clamp(L, a, b, _clamp(L, c, d, x))
                        if _clamp(L, comp.low, comp.high, x) != two_step:
                            return total, (a, b, c, d, x)
    return total, None
