"""Certificate-based convergence oracles.

Each oracle grades its answer: exact when a symbolic or exhaustive argument
decides the claim, verified-at-horizon when only a finite prefix was
checked, falsified with a concrete witness, inconclusive otherwise.  The
descriptors attached to sequences are what make the exact grade reachable;
without one, the oracles degrade honestly instead of overclaiming.
What a descriptor proves is decided in ``sequences``; the oracles here ask
it and never read a descriptor themselves.

A sup or inf claim, eventual constancy and monotonicity are answered from
descriptors alone: where none decides, the answer is inconclusive and its
detail names what was undecided.  Three kinds of check walk terms up to
the horizon: the O1 sandwich (unless all three sequences settle), O2
containment that no symbolic argument decides, and the metric checks of a
walk that does not settle.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Sequence as Seq

from .carriers import CarrierMismatch, GroupCarrier
from .entourages import real_entourage_contains
from .exact import EXT_INF, ExtValue, check_index, frac_floor, rat
from .semimetrics import SemimetricFamily
from .sequences import (NEVER_CONSTANT, BoundClaim, MetricCertificate, O1Witness, O2Witness,
                        SequenceFamily, _constant_tail, chain_bound, clamped_descriptor,
                        containment, monotone, settled)
from .spaces import NO_BOUND, EvLinSeq, EvLinSpace, FinCofAlgebra
from .truncation import TruncationPair, _check_cap, _clamp, truncate_f
from .verdicts import Verdict

DEFAULT_HORIZON = 10_000
DEFAULT_EPS_GRID = tuple(Fraction(1, 2 ** i) for i in range(11))


# ---------------------------------------------------------------------------
# Bound-claim grading shared by the order-convergence oracles


def _grade_bound(seq: SequenceFamily, kind: str, target) -> Verdict:
    """Grade the claim sup/inf {seq(k) : k >= 1} = target: exact or
    falsified where ``chain_bound`` decides the bound, else inconclusive."""
    claim: BoundClaim = chain_bound(seq, kind)
    label = f"{kind} of {seq.name}"
    if claim.value is NO_BOUND:
        return Verdict.falsified(witness=(kind, NO_BOUND), detail=f"{label} does not exist")
    if claim.value is None:
        return Verdict.inconclusive(detail=f"{label} undecided ({claim.detail})")
    if claim.value == target:
        return Verdict.exact(detail=f"{label}: {claim.detail}")
    return Verdict.falsified(witness=(kind, claim.value),
                             detail=f"{label} is {claim.value!r}, not the limit")


# ---------------------------------------------------------------------------
# O1: monotone sandwich


def verify_O1(seq: SequenceFamily, x, w: O1Witness,
              horizon: int = DEFAULT_HORIZON) -> Verdict:
    """Check the sandwich y_k <= x_k <= z_k with monotone y, z and bound
    claims sup y = x = inf z.

    The sandwich and monotonicity are checked index by index up to the
    horizon (exactly, but only on that prefix) unless all three sequences
    provably settle, in which case the check is complete and exact.
    Bound claims go through the carrier's bound oracle.
    """
    L = seq.carrier
    if w.lower.carrier is not L or w.upper.carrier is not L:
        raise CarrierMismatch("witness sequences must live on the sequence's carrier")
    x = L.check_element(x)

    tails = [_constant_tail(s) for s in (seq, w.lower, w.upper)]
    if None not in tails:
        stop = max(t[0] for t in tails) + 1
        grade_on_success = Verdict.exact(detail="eventually constant sandwich")
    else:
        stop = horizon
        grade_on_success = Verdict.at_horizon(horizon, detail="sandwich checked to horizon")

    prev_lo = prev_hi = None
    for k in range(1, stop + 1):
        lo, hi, xv = w.lower.value(k), w.upper.value(k), seq.value(k)
        if prev_lo is not None and not L._leq(prev_lo, lo):
            return Verdict.falsified(witness=("lower-monotone", k), detail="lower witness decreased")
        if prev_hi is not None and not L._leq(hi, prev_hi):
            return Verdict.falsified(witness=("upper-monotone", k), detail="upper witness increased")
        if not (L._leq(lo, xv) and L._leq(xv, hi)):
            return Verdict.falsified(witness=("sandwich", k), detail="sandwich violated")
        if not L._leq(lo, x):
            return Verdict.falsified(witness=("lower-exceeds-limit", k),
                                     detail="lower witness not below the limit")
        if not L._leq(x, hi):
            return Verdict.falsified(witness=("upper-undercuts-limit", k),
                                     detail="upper witness not above the limit")
        prev_lo, prev_hi = lo, hi

    parts = [grade_on_success,
             _grade_bound(w.lower, "sup", x),
             _grade_bound(w.upper, "inf", x)]
    return Verdict.weakest(parts)


# ---------------------------------------------------------------------------
# O2: eventual containment in witness intervals


def verify_O2(seq: SequenceFamily, x, w: O2Witness,
              horizon: int = DEFAULT_HORIZON) -> Verdict:
    """Check sup(lower chain) = x = inf(upper chain) and the eventual
    containment x_k in [m_j, n_j] for k >= K(j).

    Containment is decided by ``sequences.containment`` where the
    descriptors support a symbolic argument; otherwise a budgeted prefix is
    checked and the verdict is graded at the horizon.
    """
    L = seq.carrier
    if w.lower.carrier is not L or w.upper.carrier is not L:
        raise CarrierMismatch("witness chains must live on the sequence's carrier")
    x = L.check_element(x)

    contained = containment(seq, w)
    if contained is None:
        j_budget = min(horizon, 96)
        for j in range(1, j_budget + 1):
            start = w.k_of(j)
            mj, nj = w.lower.value(j), w.upper.value(j)
            for k in _probe_indices(start, horizon, 48):
                xv = seq.value(k)
                if not (L._leq(mj, xv) and L._leq(xv, nj)):
                    return Verdict.falsified(witness=("containment", j, k),
                                             detail="interval containment violated")
        contained = Verdict.at_horizon(horizon, detail="containment checked on a budgeted prefix")
    if not contained.ok:
        return contained

    parts = [contained,
             _grade_bound(w.lower, "sup", x),
             _grade_bound(w.upper, "inf", x)]
    return Verdict.weakest(parts)


# ---------------------------------------------------------------------------
# Eventual constancy as an O1 decision procedure


def decide_O1_eventual_constancy(seq: SequenceFamily, x) -> Verdict:
    """Decide O1-convergence on carriers where it reduces to eventual
    constancy: the finite/cofinite algebra (its order intervals are finite
    in the relevant direction) and finite lattices (monotone witness
    sequences there are eventually constant).

    Exact or falsified when a descriptor settles constancy symbolically,
    inconclusive when none does.
    """
    L = seq.carrier
    if not (isinstance(L, FinCofAlgebra) or L.is_finite):
        raise ValueError(f"eventual-constancy reduction does not apply to {L.name!r}")
    x = L.check_element(x)
    tail = settled(seq)
    if tail is None:
        return Verdict.inconclusive(detail=f"constancy of {seq.name} undecided (no descriptor)")
    i, value = tail
    if value is NEVER_CONSTANT:
        # the tail never settles, so some later term differs from term i
        first, j = seq.value(i), i + 1
        while seq.value(j) == first:
            j += 1
        return Verdict.falsified(witness=(i, j), detail=f"never constant from index {i}")
    if value == x:
        return Verdict.exact(detail=f"constant from index {i}")
    return Verdict.falsified(witness=(i, value),
                             detail="eventually constant at a different value")


# ---------------------------------------------------------------------------
# Truncated sequences and unbounded order convergence


def truncate_sequence(seq: SequenceFamily, p: TruncationPair) -> SequenceFamily:
    """The image sequence k -> clamp_p(x_k), with the clamped descriptor
    whenever the clamp's effect on the tail is decidable."""
    L = seq.carrier
    low, high = L.check_element(p.low), L.check_element(p.high)
    return SequenceFamily(f"clamp({seq.name})", L,
                          lambda k: _clamp(L, low, high, seq.value(k)),
                          clamped_descriptor(seq, p))


def pairs_from_positives(G: GroupCarrier, x, positives) -> list[TruncationPair]:
    """The two clamp pairs per positive cap a: (x - a, x) and (x, x + a)."""
    x = G.check_element(x)
    pairs = []
    for a in positives:
        a = G.check_element(a)
        _check_cap(G, a)
        pairs.append(TruncationPair.of(G, G.sub(x, a), x))
        pairs.append(TruncationPair.of(G, x, G.add(x, a)))
    return pairs


def verify_uO(seq: SequenceFamily, x, truncations: Optional[Seq[TruncationPair]] = None,
              positives: Optional[Seq] = None, witnesses: Optional[dict] = None,
              horizon: int = DEFAULT_HORIZON) -> Verdict:
    """Unbounded order convergence: every clamped image sequence must
    order-converge to the clamped limit.

    On group carriers, positive caps are converted to their two clamp pairs;
    plain lattices supply truncation pairs directly.  A clamped sequence
    that provably settles is decided outright (order limits are unique);
    otherwise witnesses[p], interval (O2) data, is checked.
    The aggregate is the weakest per-pair verdict.
    """
    L = seq.carrier
    x = L.check_element(x)
    pairs = list(truncations or [])
    if positives:
        if not isinstance(L, GroupCarrier):
            raise CarrierMismatch("positive caps need a group carrier")
        pairs.extend(pairs_from_positives(L, x, positives))
    if not pairs:
        raise ValueError("unbounded order convergence needs at least one truncation")
    witnesses = witnesses or {}

    parts = []
    for p in pairs:
        t_seq = truncate_sequence(seq, p)
        t_x = truncate_f(L, p, x)
        tail = settled(t_seq)
        if tail is not None:
            i, value = tail
            if value == t_x:
                parts.append(Verdict.exact(detail=f"clamp {p.low!r},{p.high!r}: eventually the clamped limit"))
            else:
                parts.append(Verdict.falsified(witness=(p.low, p.high, i, value),
                                               detail="clamped tail settles away from the clamped limit"))
            continue
        w = witnesses.get(p)
        if w is None:
            parts.append(Verdict.inconclusive(detail=f"no witness for clamp {p.low!r},{p.high!r}"))
        else:
            parts.append(verify_O2(t_seq, t_x, w, horizon))
    return Verdict.weakest(parts)


# ---------------------------------------------------------------------------
# Metric convergence and Cauchy checks


def _positive_grid(eps_grid) -> list[Fraction]:
    """The grid as exact rationals, each > 0; any other entry is refused
    with a ValueError that names it."""
    grid = []
    for eps in eps_grid:
        try:
            q = rat(eps)
        except (TypeError, ValueError, ZeroDivisionError):
            q = None
        if q is None or q <= 0:
            raise ValueError(f"eps grid entry {eps!r} is not a positive rational")
        grid.append(q)
    return grid


def _points(seq: SequenceFamily, tail, start: int, indices):
    """(points, exact): (index, element) points from start on.  A constant
    tail (i, c) gives the terms before max(i, start), then c, and exact;
    otherwise the terms at indices, computed lazily."""
    if tail is None:
        return ((k, seq.value(k)) for k in indices), False
    knee = max(tail[0], start)
    return [(k, seq.value(k)) for k in range(start, knee)] + [(knee, tail[1])], True


def metric_converges(seq: SequenceFamily, x, D: SemimetricFamily,
                     cert: MetricCertificate, eps_grid=DEFAULT_EPS_GRID,
                     horizon: int = DEFAULT_HORIZON) -> Verdict:
    """d(x_k, x) <= eps for k beyond the certificate, per member and eps."""
    eps_grid = _positive_grid(eps_grid)
    D.check_carrier(seq.carrier)
    x = seq.carrier.check_element(x)
    tail = _constant_tail(seq)
    parts = []
    for d in D.members:
        for eps in eps_grid:
            bound = ExtValue(eps)
            start = cert.at(eps, d.name)
            points, exact = _points(seq, tail, start, range(start, horizon + 1))
            hit = next((k for k, v in points if d._dist(v, x) > bound), None)
            if hit is not None:
                parts.append(Verdict.falsified(witness=(d.name, str(eps), hit),
                                               detail="distance exceeded eps beyond the certificate"))
            elif exact:
                parts.append(Verdict.exact(detail=f"{d.name}, eps={eps}: eventually constant tail"))
            else:
                parts.append(Verdict.at_horizon(horizon, detail=f"{d.name}, eps={eps}"))
    return Verdict.weakest(parts)


def _probe_indices(start: int, horizon: int, window: int) -> list[int]:
    """Budgeted indices in [start, horizon]: the window after start, the
    doublings of start and the last five indices."""
    probes = set(range(start, min(start + window, horizon) + 1))
    step = max(start, 1)
    while step <= horizon:
        probes.add(step)
        step *= 2
    probes.update(h for h in range(horizon - 4, horizon + 1) if h >= start)
    return sorted(probes)


def metric_cauchy(seq: SequenceFamily, D: SemimetricFamily,
                  cert: Optional[MetricCertificate] = None, eps_grid=DEFAULT_EPS_GRID,
                  horizon: int = DEFAULT_HORIZON) -> Verdict:
    """Pairwise d(x_j, x_k) <= eps for j, k beyond the certificate.

    A clamp member d_p walks the clamped terms with its base d, as d_p(x, y)
    = d(clamp x, clamp y); other members walk the terms.  A walk that settles
    is decided exactly; others are probed on a budgeted pair set.  Without a
    certificate a clamp member starts at its clamped tail's constancy index
    and every other member at 1.
    """
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
            bound = ExtValue(eps)
            start = cert.at(eps, d.name) if cert is not None else knee
            points, exact = _points(walk, tail, start, _probe_indices(start, horizon, 16))
            hit = next(((a, b) for (a, u), (b, v) in itertools.combinations(points, 2)
                        if dist(u, v) > bound), None)
            if hit is not None:
                parts.append(Verdict.falsified(witness=(d.name, str(eps)) + hit,
                                               detail="pair distance exceeded eps beyond the certificate"))
            elif exact:
                parts.append(Verdict.exact(detail=f"{d.name}, eps={eps}: {what} is eventually constant"))
            else:
                parts.append(Verdict.at_horizon(horizon, detail=f"{d.name}, eps={eps}"))
    return Verdict.weakest(parts)


def exhaustivity_probe(seq: SequenceFamily, D: SemimetricFamily,
                       cert: Optional[MetricCertificate] = None,
                       eps_grid=DEFAULT_EPS_GRID,
                       horizon: int = DEFAULT_HORIZON) -> Verdict:
    """Cauchy probe of a monotone sequence: the operational form of
    exhaustivity.  Rejects a sequence that its descriptor proves not
    monotone; inconclusive when no descriptor decides monotonicity."""
    ok = monotone(seq)
    if ok is None:
        # refuse what metric_cauchy would refuse before answering
        _positive_grid(eps_grid)
        D.check_carrier(seq.carrier)
        return Verdict.inconclusive(detail=f"monotonicity of {seq.name} undecided (no closed form)")
    if not ok:
        raise ValueError("exhaustivity probe needs a monotone sequence")
    return metric_cauchy(seq, D, cert, eps_grid, horizon)


# ---------------------------------------------------------------------------
# The two flagship counterexamples


def ustar_nonconvergence_on_line(r) -> Verdict:
    """Exact proof that x_k = k leaves every neighborhood of r in the clamp
    base: choose n = floor(|r| + 1) + 1; for every k >= n + 1 the pair
    (k, r) fails all three clauses of U_n."""
    r = rat(r)
    n = frac_floor(abs(r) + 1) + 1
    facts = (
        ("|r| <= n - 1", abs(r) <= n - 1),
        ("gap: (n + 1) - (n - 1) > 1/n", Fraction(2) > Fraction(1, n)),
        ("high clause dead: r < n", r < n),
        ("low clause dead: n + 1 > -n", n + 1 > -n),
    )
    for desc, ok in facts:
        if not ok:
            return Verdict.falsified(witness=(str(r), n, desc), detail="separation fact failed")
    for k in range(n + 1, n + 51):
        if real_entourage_contains(n, k, r):
            return Verdict.falsified(witness=(str(r), n, k),
                                     detail="spot check contradicted the clause analysis")
    return Verdict.exact(detail=f"n={n} separates the tail of (k) from {r}",
                         witness=("n", n))


@dataclass(frozen=True, slots=True)
class SeparationEntry:
    k: int
    n: int
    truncated_gap: ExtValue
    unclamped: ExtValue


@dataclass(frozen=True, slots=True)
class SeparationReport:
    """Outcome of the two-norm separation on eventually linear sequences."""

    cases: int
    truncated: Verdict
    unclamped: Verdict
    samples: tuple[SeparationEntry, ...]


def unbounded_separation_example(k_values=range(1, 51),
                                 n_values=range(1, 201)) -> SeparationReport:
    """With x = (1,2,3,...), e = (1,1,...), x_n = x + (1/n)e and cap a = k e:
    the clamp difference has norm at most k/n (so the clamped distances
    vanish along n), while |x_n - x| /\\ a keeps norm +inf for every (k, n).
    Both facts are checked exactly on the whole grid, k-major, and the first
    failing (k, n) is the witness.

    Each grid is read once, so any iterable will do.  Every k and n must be
    an int >= 1 and neither grid may be empty; anything else is refused with
    ``ValueError`` before any work.  x_n and |x_n - x| depend on n alone and
    are built once per n, the cap +-k e and the clamped x once per k; the
    grid points then combine these values with the trusted operations."""
    k_values, n_values = tuple(k_values), tuple(n_values)
    for k in k_values:
        check_index(k, "k")
    for n in n_values:
        check_index(n, "n")
    if not k_values or not n_values:
        raise ValueError("the separation grid needs at least one k and one n")
    space = EvLinSpace()
    x = EvLinSeq.affine(0, 1)
    e = EvLinSeq.affine(1, 0)
    per_n = []
    for n in n_values:
        xn = space.add(x, space.scale_rat(Fraction(1, n), e))
        per_n.append((n, xn, space.abs_(space.sub(xn, x))))
    samples = []
    cases = 0
    for k in k_values:
        a = space.scale_rat(k, e)
        neg_a = space.negate(a)
        clamped_x = _clamp(space, neg_a, a, x)
        for n, xn, dist in per_n:
            gap = space._norm(space._sub(_clamp(space, neg_a, a, xn), clamped_x))
            unclamped = space._norm(space._meet(dist, a))
            if gap > Fraction(k, n):
                return SeparationReport(cases, Verdict.falsified(
                    witness=(k, n, gap.to_json()), detail="clamp difference exceeded k/n"),
                    Verdict.inconclusive(), tuple(samples))
            if unclamped != EXT_INF:
                return SeparationReport(cases, Verdict.inconclusive(), Verdict.falsified(
                    witness=(k, n, unclamped.to_json()),
                    detail="capped difference unexpectedly had finite norm"), tuple(samples))
            cases += 1
            if (k, n) in ((1, 1), (3, 200)):
                samples.append(SeparationEntry(k, n, gap, unclamped))
    truncated = Verdict.exact(detail=f"clamp difference <= k/n on {cases} grid points")
    unclamped = Verdict.falsified(
        witness=("norm", "inf"),
        detail=f"capped difference norm is +inf on all {cases} grid points")
    return SeparationReport(cases, truncated, unclamped, tuple(samples))
