"""Named check suites and deterministic reports.

Each suite bundles related checks into records graded by the shared verdict
vocabulary.  A record carries an expectation: most claims must verify, and
designated negative controls must falsify with a witness.  Reports are
byte-deterministic for a fixed configuration; wall-clock timings are only
emitted when explicitly requested so canonical output stays reproducible.
"""

from __future__ import annotations

import json
import random
import time
import zlib
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import combinations
from typing import Callable, Optional

from .carriers import sublattices
from .catalog import finite_entries, standard_carriers
from .convergence import (
    DEFAULT_EPS_GRID,
    DEFAULT_HORIZON,
    decide_O1_eventual_constancy,
    exhaustivity_probe,
    unbounded_separation_example,
    ustar_nonconvergence_on_line,
    verify_O1,
    verify_O2,
    verify_uO,
)
from .entourages import compose_triple_violation, real_entourage_compose_check
from .exact import ExtValue, RatAltSeq, _below, _fraction
from .optrees import evaluate, random_tree
from .semimetrics import (
    interval_agreement,
    kernel_partition,
    ph_criterion,
    quotient,
    ustar_family,
    validate_semimetric,
    _joint_rows,
    _zero_rows,
)
from .sequences import (
    MetricCertificate,
    constant_sequence,
    O1Witness,
    O2Witness,
    Window,
    o2_from_o1,
    series_sequence,
    window_sequence,
)
from .spaces import C00Space, C00Vec, FinCofAlgebra, FinCofSet, QLine, QVec
from .subnet import build_subnet
from .truncation import TruncationPair, _clamp, _clamp_map, canonical_pairs, clamp_difference_bound, compose_truncations, decompose_abs_meet, is_truncation_hom
from .verdicts import AT_HORIZON, EXACT, FALSIFIED, Verdict

# expectations a record can carry
EXPECT_OK = "ok"                # exact or verified-at-horizon
EXPECT_EXACT = "exact"          # nothing short of exact
EXPECT_FALSIFIED = "falsified"  # negative control: must fail with a witness


@dataclass(frozen=True, slots=True)
class SuiteConfig:
    seed: int = 0
    horizon: int = DEFAULT_HORIZON
    eps_grid: tuple = DEFAULT_EPS_GRID
    timings: bool = False

    def rng_for(self, suite: str) -> random.Random:
        return random.Random(self.seed * 1_000_003 + zlib.crc32(suite.encode()))


@dataclass(frozen=True, slots=True)
class CheckRecord:
    name: str
    verdict: Verdict
    expect: str = EXPECT_OK
    cases: int = 1

    @property
    def met(self) -> bool:
        status = self.verdict.status
        if self.expect == EXPECT_OK:
            return status in (EXACT, AT_HORIZON)
        if self.expect == EXPECT_EXACT:
            return status == EXACT
        if self.expect == EXPECT_FALSIFIED:
            return status == FALSIFIED
        raise ValueError(f"unknown expectation {self.expect!r}")


@dataclass(slots=True)
class SuiteResult:
    suite: str
    anchor: str
    status: str
    witness: object
    counts: dict
    elapsed: float
    records: list = field(default_factory=list)

    def to_json(self, timings: bool = False) -> dict:
        doc = {
            "suite": self.suite,
            "anchor": self.anchor,
            "status": self.status,
            "witness": self.witness,
            "counts": self.counts,
        }
        if timings:
            doc["elapsed"] = round(self.elapsed, 6)
        return doc


def _witness_json(obj):
    """Render a witness as plain JSON-able data."""
    if obj is None or isinstance(obj, (bool, int, str)):
        return obj
    if isinstance(obj, Fraction):
        return str(obj)
    if isinstance(obj, ExtValue):
        return obj.to_json()
    if isinstance(obj, dict):
        return {str(k): _witness_json(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple, set, frozenset)):
        items = list(obj)
        if isinstance(obj, (set, frozenset)):
            items = sorted(items, key=repr)
        return [_witness_json(v) for v in items]
    return str(obj)


def _aggregate(suite: str, anchor: str, records: list[CheckRecord],
               elapsed: float) -> SuiteResult:
    counts = {
        "cases": sum(r.cases for r in records),
        "checks": len(records),
        "exact": 0,
        "verified-at-horizon": 0,
        "falsified": 0,
        "inconclusive": 0,
        "xfail": 0,
    }
    for r in records:
        counts[r.verdict.status] += 1
        if r.expect == EXPECT_FALSIFIED and r.met:
            counts["xfail"] += 1
    unmet = [r for r in records if not r.met]
    if not unmet:
        status = "pass"
    elif any(r.verdict.status == FALSIFIED or r.expect == EXPECT_FALSIFIED
             for r in unmet):
        status = "fail"
    else:
        status = "inconclusive"
    witness = None
    if unmet:
        first = unmet[0]
        witness = _witness_json(first.verdict.witness)
        if witness is None:
            witness = f"check {first.name!r} ended {first.verdict.status}"
    else:
        for r in records:
            if r.expect == EXPECT_FALSIFIED:
                witness = _witness_json(r.verdict.witness)
                break
    return SuiteResult(suite, anchor, status, witness, counts, elapsed, records)


# ---------------------------------------------------------------------------
# suite bodies


def _suite_lemma_l5(cfg: SuiteConfig) -> list[CheckRecord]:
    """Split |x - y| /\\ a into the two clamp differences and bound the clamp
    difference for arbitrary base points, on rational 5-vectors."""
    G = QVec(5)
    rng = cfg.rng_for("lemma-l5")
    cases = max(1, cfg.horizon)
    split_bad = None
    bound_bad = None
    for _ in range(cases):
        x, y = G.sample(rng), G.sample(rng)
        a = G._abs(G.sample(rng))
        s = G.sample(rng)
        if split_bad is None and not decompose_abs_meet(G, x, y, a):
            split_bad = (x, y, a)
        if bound_bad is None and not clamp_difference_bound(G, s, x, y, a):
            bound_bad = (s, x, y, a)
    records = [
        CheckRecord("abs-meet-split",
                    Verdict.falsified(split_bad) if split_bad
                    else Verdict.at_horizon(cases, "identity holds on sampled triples"),
                    cases=cases),
        CheckRecord("base-point-bound",
                    Verdict.falsified(bound_bad) if bound_bad
                    else Verdict.at_horizon(cases, "clamp difference below capped distance"),
                    cases=cases),
    ]
    return records


def _suite_prop_p1(cfg: SuiteConfig) -> list[CheckRecord]:
    """Exhaustive composition law over all 8^5 tuples on the three-atom
    powerset lattice, canonical or not."""
    total, bad = _composition_law(standard_carriers()["powerset3"].carrier)
    v = Verdict.falsified(bad) if bad else Verdict.exact(
        f"exhaustive over {total} tuples")
    return [CheckRecord("composition-law", v, expect=EXPECT_EXACT, cases=total)]


def _composition_law(L) -> tuple[int, Optional[tuple]]:
    """(tuples tried, first (a, b, c, d, x) where clamping by the composed
    pair differs from clamping twice, or None).

    Each pair's clamp is compiled once into its byte map (``_clamp_map``).
    Clamping twice is the inner map read through the outer one by
    ``bytes.translate``, and x is scanned, in element order, only when
    that differs from the composed pair's map.
    """
    elems = L.elements()
    n = len(elems)
    pairs = {(a, b): TruncationPair.of(L, a, b) for a in elems for b in elems}
    maps = {key: _clamp_map(L, p.low, p.high) for key, p in pairs.items()}
    pad = bytes(256 - n)
    total = 0
    for a in elems:
        for b in elems:
            outer, through = pairs[a, b], maps[a, b] + pad
            for c in elems:
                for d in elems:
                    comp = compose_truncations(L, outer, pairs[c, d])
                    two_step = maps[c, d].translate(through)
                    one_step = maps[comp.low, comp.high]
                    if one_step != two_step:
                        x = next(x for x in range(n) if one_step[x] != two_step[x])
                        return total + x + 1, (a, b, c, d, elems[x])
                    total += n
    return total, None


def _suite_prop_d(cfg: SuiteConfig) -> list[CheckRecord]:
    """Every canonical clamp is a lattice homomorphism exactly on the
    distributive carriers; the two minimal nondistributive lattices must
    each produce a violating pair."""
    cat = standard_carriers()
    records = []
    for name in ("powerset3", "divisor60", "chain2", "chain3", "chain4", "chain5"):
        n, bad = _first_non_hom(cat[name].carrier)
        v = Verdict.falsified(bad) if bad else Verdict.exact(
            f"all {n} canonical clamps are homomorphisms")
        records.append(CheckRecord(f"hom-{name}", v, expect=EXPECT_EXACT, cases=n))
    for name in ("n5", "m3"):
        n, found = _first_non_hom(cat[name].carrier)
        v = (Verdict.falsified(found, "clamp fails to commute with the lattice operations")
             if found else Verdict.exact(f"all {n} clamps are homomorphisms"))
        records.append(CheckRecord(f"hom-gap-{name}", v,
                                   expect=EXPECT_FALSIFIED, cases=n))
    return records


def _first_non_hom(L) -> tuple[int, Optional[tuple]]:
    """(canonical clamps tried, the first one that is no lattice
    homomorphism as (low, high) plus its witness, or None)."""
    n = 0
    for p in canonical_pairs(L):
        n += 1
        res = is_truncation_hom(L, p)
        if not res.holds:
            return n, (p.low, p.high) + tuple(res.witness)
    return n, None


def _exceeds(lhs: Fraction, terms) -> bool:
    """Whether lhs > the sum of w * q over ``terms``, pairs of an int
    w >= 0 and a Fraction q: the sum is carried as one numerator over the
    product of the denominators and compared by cross-multiplying, so no
    Fraction is built."""
    num, den = 0, 1
    for w, q in terms:
        qd = q._denominator
        num, den = num * qd + w * q._numerator * den, den * qd
    return lhs._numerator * den > num * lhs._denominator


def _suite_lemma_l2(cfg: SuiteConfig) -> list[CheckRecord]:
    """Meet/join operator trees contract distances term by term, and moving
    the clamp window perturbs clamped distances by at most twice the window
    displacement.

    Every distance is the l1 member's trusted value, a Fraction, and both
    bounds are decided by ``_exceeds`` on its integers; the tree bound
    reads each variable's distance once, weighted by its number of leaf
    occurrences."""
    d = standard_carriers()["qvec3"].family("l1").members[0]
    V, dist = d.carrier, d.func
    rng = cfg.rng_for("lemma-l2")
    cases = max(1, cfg.horizon // 10)
    tree_bad = None
    for _ in range(cases):
        tree = random_tree(rng, 3, 5)
        xs = [V.sample(rng) for _ in range(3)]
        ys = [V.sample(rng) for _ in range(3)]
        lhs = dist(evaluate(V, tree, xs), evaluate(V, tree, ys))
        leaves = tree.leaves()
        if _exceeds(lhs, [(w, dist(xs[i], ys[i]))
                          for i in range(3) if (w := leaves.count(i))]):
            tree_bad = (tree, xs, ys)
            break
    window_bad = None
    for _ in range(cases):
        s1, s2 = V.sample(rng), V.sample(rng)
        a, b = V._meet(s1, s2), V._join(s1, s2)
        s3, s4 = V.sample(rng), V.sample(rng)
        c, e = V._meet(s3, s4), V._join(s3, s4)
        x, y = V.sample(rng), V.sample(rng)
        lhs = dist(_clamp(V, a, b, x), _clamp(V, a, b, y))
        if _exceeds(lhs, ((1, dist(_clamp(V, c, e, x), _clamp(V, c, e, y))),
                          (2, dist(a, c)), (2, dist(b, e)))):
            window_bad = (a, b, c, e, x, y)
            break
    records = [
        CheckRecord("tree-contraction",
                    Verdict.falsified(tree_bad) if tree_bad
                    else Verdict.at_horizon(cases, "operator trees contract summed distances"),
                    cases=cases),
        CheckRecord("window-perturbation",
                    Verdict.falsified(window_bad) if window_bad
                    else Verdict.at_horizon(cases, "clamp window moves distances by at most twice its displacement"),
                    cases=cases),
    ]
    return records


def _suite_prop_q(cfg: SuiteConfig) -> list[CheckRecord]:
    """On every finite catalog carrier and family: members validate, kernel
    classes form a congruence, and the quotient is Hausdorff."""
    records = []
    for entry in finite_entries(standard_carriers()):
        L = entry.carrier
        for fam_name, D in sorted(entry.families.items()):
            label = f"{entry.name}-{fam_name}"
            try:
                for member in D.members:
                    v = validate_semimetric(member)
                    if not v.ok:
                        raise ValueError(f"member {member.name} invalid: {v.witness!r}")
                ker = kernel_partition(L, D)
                if not quotient(L, ker, D).hausdorff:
                    raise ValueError("quotient kernel is not discrete")
            except ValueError as exc:
                records.append(CheckRecord(label, Verdict.falsified(str(exc)),
                                           expect=EXPECT_EXACT))
                continue
            n = len(L.elements())
            detail = (f"{len(ker.blocks)} classes on {n} elements, "
                      f"quotient Hausdorff")
            records.append(CheckRecord(label, Verdict.exact(detail),
                                       expect=EXPECT_EXACT, cases=n * n))
    return records


def _suite_prop_ph(cfg: SuiteConfig) -> list[CheckRecord]:
    """The recovery criterion for clamp families agrees with the computed
    kernel on every sublattice of every small catalog carrier; the
    agreement is enforced inside the call."""
    records = []
    for entry in finite_entries(standard_carriers()):
        L = entry.carrier
        if len(L.elements()) > 8:
            continue
        subls = list(sublattices(L))
        for fam_name, D in sorted(entry.families.items()):
            n_hausdorff = sum(ph_criterion(L, S, D) for S in subls)
            detail = f"{n_hausdorff} of {len(subls)} sublattice clamp families Hausdorff"
            records.append(CheckRecord(f"{entry.name}-{fam_name}", Verdict.exact(detail),
                                       expect=EXPECT_EXACT, cases=len(subls)))
    return records


def _suite_ex_r(cfg: SuiteConfig) -> list[CheckRecord]:
    """The halved entourage chain composes into itself (exactly, plus random
    corroboration), the unhalved chain does not, the identity sequence is
    Cauchy for the clamp family but not for the plain distance, and it
    eventually leaves every basic neighborhood of every rational."""
    rng = cfg.rng_for("ex-r")
    samples = max(4, -(-cfg.horizon // 64))
    compose = Verdict.weakest(
        real_entourage_compose_check(n, samples=samples, rng=rng)
        for n in range(1, 65))
    records = [CheckRecord("compose-chain", compose, expect=EXPECT_EXACT,
                           cases=64 * samples)]

    control = compose_triple_violation(2, 0, Fraction(1, 2), 1)
    v = (Verdict.falsified((0, "1/2", 1), "relation composed with itself escapes")
         if control else Verdict.exact("no violation at the canonical triple"))
    records.append(CheckRecord("unhalved-control", v, expect=EXPECT_FALSIFIED))

    records += _walk_probes(cfg, RatAltSeq.index(), "clamp-cauchy", "plain-cauchy-control")

    targets = [Fraction(0), Fraction(100), Fraction(-7, 2)]
    targets += [_fraction(_below(rng, 20_001) - 10_000, 1 + _below(rng, 99))
                for _ in range(100)]
    escape = Verdict.weakest(ustar_nonconvergence_on_line(r) for r in targets)
    records.append(CheckRecord("escape-every-neighborhood", escape,
                               expect=EXPECT_EXACT, cases=len(targets)))
    return records


def _suite_ex(cfg: SuiteConfig) -> list[CheckRecord]:
    """Perturbing the unbounded staircase by 1/n shrinks every clamped
    distance to zero while the uncapped lattice gap stays infinite."""
    rep = unbounded_separation_example()
    return [
        CheckRecord("clamped-vanishing", rep.truncated,
                    expect=EXPECT_EXACT, cases=rep.cases),
        CheckRecord("unclamped-gap", rep.unclamped,
                    expect=EXPECT_FALSIFIED, cases=rep.cases),
    ]


def _suite_o1o2(cfg: SuiteConfig) -> list[CheckRecord]:
    """Order convergence with sandwich witnesses versus eventual-interval
    witnesses, on the rational line, the finite/cofinite algebra, and the
    finitely supported sequences."""
    records = []
    Q = QLine()
    alt = series_sequence(Q, RatAltSeq.alt() * RatAltSeq.inv_index(), "altharmonic")
    lower = series_sequence(Q, RatAltSeq.inv_index() * -1, "rising")
    upper = series_sequence(Q, RatAltSeq.inv_index(), "falling")
    w1 = O1Witness(lower, upper)
    records.append(CheckRecord("line-sandwich",
                               verify_O1(alt, 0, w1, horizon=cfg.horizon),
                               cases=cfg.horizon))
    # eventual index K(j) = j + 1: |x_k| = 1/k < 1/j once k >= j + 1
    w2 = O2Witness(lower, upper, 1)
    records.append(CheckRecord("line-intervals",
                               verify_O2(alt, 0, w2, horizon=cfg.horizon),
                               expect=EXPECT_EXACT))
    records.append(CheckRecord("line-replay",
                               verify_O2(alt, 0, o2_from_o1(w1), horizon=cfg.horizon),
                               expect=EXPECT_EXACT))

    A = FinCofAlgebra()
    atoms = window_sequence(A, Window(sliding=True), "A_k")
    lo = constant_sequence(A, FinCofSet.empty(), "empty")
    hi = window_sequence(A, Window(sliding=False, within=FinCofSet.universe()), "N_j")
    wf = O2Witness(lo, hi, 1)
    records.append(CheckRecord("atoms-intervals",
                               verify_O2(atoms, FinCofSet.empty(), wf, horizon=cfg.horizon),
                               expect=EXPECT_EXACT))
    records.append(CheckRecord("atoms-no-constancy",
                               decide_O1_eventual_constancy(atoms, FinCofSet.empty()),
                               expect=EXPECT_FALSIFIED))

    C = C00Space()
    units = window_sequence(C, Window(sliding=True), "e_k")
    cap = C00Vec.from_pairs([(1, 1), (2, Fraction(1, 2))])
    records.append(CheckRecord("units-unbounded-order",
                               verify_uO(units, C00Vec.zero(), positives=[cap],
                                         horizon=cfg.horizon),
                               expect=EXPECT_EXACT))
    walk = series_sequence(Q, RatAltSeq.index(), "walk")
    records.append(CheckRecord("walk-control",
                               verify_uO(walk, 0, positives=[1], horizon=cfg.horizon),
                               expect=EXPECT_FALSIFIED))
    return records


def _suite_subnet_t3(cfg: SuiteConfig) -> list[CheckRecord]:
    """Hundred-step subnet enumerations with exact sandwich containment on
    the rational line and the finite/cofinite algebra."""
    steps = 100
    records = []

    Q = QLine()
    x = series_sequence(Q, RatAltSeq.alt() * RatAltSeq.inv_index(), "altharmonic")
    p = TruncationPair.of(Q, Fraction(-1), Fraction(1))
    w = O2Witness(
        series_sequence(Q, RatAltSeq.inv_index() * -1, "rising"),
        series_sequence(Q, RatAltSeq.inv_index(), "falling"), 1)
    net = build_subnet(x, [p], {p: w}, steps=steps)
    records.append(CheckRecord("line-subnet", _subnet_verdict(net), expect=EXPECT_EXACT,
                               cases=steps))

    A = FinCofAlgebra()
    B = FinCofSet.cofinite_complement({1})
    atoms = window_sequence(A, Window(sliding=True), "A_k")
    pf = TruncationPair.of(A, FinCofSet.empty(), B)
    wf = O2Witness(
        constant_sequence(A, FinCofSet.empty(), "empty"),
        window_sequence(A, Window(sliding=False, within=B), "N_j"), 1)
    netf = build_subnet(atoms, [pf], {pf: wf}, steps=steps)
    records.append(CheckRecord("atoms-subnet", _subnet_verdict(netf), expect=EXPECT_EXACT,
                               cases=steps))
    return records


def _subnet_verdict(net) -> Verdict:
    checks = (
        ("strictly-increasing", net.strictly_increasing_phi()),
        ("cofinal", net.final_over_prefix()),
        ("monotone-bounds", net.monotone_bounds()),
        ("sandwich", net.sandwich_holds()),
    )
    for label, ok in checks:
        if not ok:
            return Verdict.falsified(label)
    return Verdict.exact(f"{len(net.steps)} steps, all invariants hold")


def _suite_exhaustive_t2(cfg: SuiteConfig) -> list[CheckRecord]:
    """Monotone Cauchy probes: the clamp family exhausts the line on the
    descending walk while the plain distance does not, and a bounded
    monotone climb verifies at the horizon under an explicit modulus."""
    records = _walk_probes(cfg, -RatAltSeq.index(), "clamp-family", "plain-distance-control")
    abs_family = standard_carriers()["qline"].family("abs")
    Q = abs_family.carrier
    climb = series_sequence(Q, RatAltSeq.const(1) - RatAltSeq.inv_index(), "climb")
    cert = MetricCertificate.uniform(lambda eps: int(1 / eps) + 1)
    records.append(CheckRecord("bounded-climb", exhaustivity_probe(
        climb, abs_family, cert=cert, eps_grid=cfg.eps_grid,
        horizon=cfg.horizon), cases=len(cfg.eps_grid)))
    return records


def _walk_probes(cfg: SuiteConfig, steps: RatAltSeq, clamp_name: str,
                 plain_name: str) -> list[CheckRecord]:
    """The walk x_k = steps(k) on the line, x_k = k or x_k = -k, is Cauchy
    for the clamp family over the windows [-n, n], n <= 8, and not for the
    plain distance."""
    abs_family = standard_carriers()["qline"].family("abs")
    Q = abs_family.carrier
    walk = series_sequence(Q, steps, "walk")
    star = ustar_family(abs_family,
                        [TruncationPair.of(Q, -n, n) for n in range(1, 9)])
    return [
        CheckRecord(clamp_name, exhaustivity_probe(
            walk, star, eps_grid=cfg.eps_grid, horizon=cfg.horizon),
            expect=EXPECT_EXACT, cases=len(star.members)),
        CheckRecord(plain_name, exhaustivity_probe(
            walk, abs_family, eps_grid=cfg.eps_grid, horizon=cfg.horizon),
            expect=EXPECT_FALSIFIED),
    ]


def _suite_closure_t4(cfg: SuiteConfig) -> list[CheckRecord]:
    """On bounded finite carriers the clamp family reproduces the original
    uniformity: exact mutual domination on the full interval and identical
    closure sets for every probed subset."""
    disagreements = []
    interval_checks = 0
    closure_checks = 0
    bad = None
    for entry in finite_entries(standard_carriers()):
        L = entry.carrier
        elems = L.elements()
        full = TruncationPair.of(L, L.bottom, L.top)
        J = list(canonical_pairs(L))
        subsets = [(e,) for e in elems] + list(combinations(elems, 2))
        for fam_name, D in sorted(entry.families.items()):
            star = ustar_family(D, J)
            v = interval_agreement(D, star, full)
            interval_checks += 1
            if not v.status == EXACT:
                disagreements.append(CheckRecord(f"interval-{entry.name}-{fam_name}", v,
                                                 expect=EXPECT_EXACT))
            if bad is not None or len(elems) > 8:
                continue
            tried, gap = _closure_gap(L, D, star, subsets)
            closure_checks += tried
            if gap is not None:
                bad = (entry.name, fam_name, gap)
    collapse = CheckRecord(
        "interval-collapse",
        Verdict.exact(f"{interval_checks} family pairs agree on the full interval"),
        expect=EXPECT_EXACT, cases=interval_checks)
    v = Verdict.falsified(bad) if bad else Verdict.exact(
        f"{closure_checks} subset closures agree")
    closure = CheckRecord("closure-sets", v, expect=EXPECT_EXACT, cases=closure_checks)
    return [collapse] + disagreements + [closure]


def _closure_gap(L, Du, Dv, subsets) -> tuple[int, Optional[tuple]]:
    """(subsets tried, the first subset A whose closure differs between Du
    and Dv, or None).  The closure of A under a family is the set of x at
    joint distance 0 from some point of A: x is in it when x's joint zero
    row (``_joint_rows``) meets A."""
    rows = _zero_rows(L)
    kernel_u, kernel_v = (_joint_rows(map(rows, D.members)) for D in (Du, Dv))
    for tried, A in enumerate(subsets, 1):
        hit = sum(1 << L._index[a] for a in A)
        if [bool(k & hit) for k in kernel_u] != [bool(k & hit) for k in kernel_v]:
            return tried, A
    return len(subsets), None


# ---------------------------------------------------------------------------
# registry and runners

REGISTRY: dict[str, tuple[str, Callable[[SuiteConfig], list[CheckRecord]]]] = {
    "lemma-l5": ("l5", _suite_lemma_l5),
    "prop-p1": ("p1", _suite_prop_p1),
    "prop-d": ("d", _suite_prop_d),
    "lemma-l2": ("l2", _suite_lemma_l2),
    "prop-q": ("q", _suite_prop_q),
    "prop-ph": ("ph", _suite_prop_ph),
    "ex-r": ("r", _suite_ex_r),
    "ex": ("ex", _suite_ex),
    "o1o2": ("o1o2", _suite_o1o2),
    "subnet-t3": ("t3", _suite_subnet_t3),
    "exhaustive-t2": ("t2", _suite_exhaustive_t2),
    "closure-t4-finite": ("t4", _suite_closure_t4),
}


def suite_names() -> list[str]:
    return sorted(REGISTRY)


def run_suite(name: str, cfg: Optional[SuiteConfig] = None) -> SuiteResult:
    if name not in REGISTRY:
        raise KeyError(f"unknown suite {name!r}; known: {', '.join(suite_names())}")
    cfg = cfg or SuiteConfig()
    anchor, body = REGISTRY[name]
    start = time.perf_counter()
    try:
        records = body(cfg)
    except Exception as exc:  # a crashed suite is a failed suite
        elapsed = time.perf_counter() - start
        res = _aggregate(name, anchor, [], elapsed)
        res.status = "fail"
        res.witness = f"error: {type(exc).__name__}: {exc}"
        return res
    return _aggregate(name, anchor, records, time.perf_counter() - start)


def run_suites(names, cfg: Optional[SuiteConfig] = None) -> dict:
    cfg = cfg or SuiteConfig()
    results = [run_suite(n, cfg) for n in sorted(set(names))]
    return {
        "version": 1,
        "suites": [r.to_json(timings=cfg.timings) for r in results],
    }


def render_json(report: dict) -> str:
    return json.dumps(report, separators=(",", ":"), sort_keys=False) + "\n"


def render_markdown(report: dict) -> str:
    """The report as a Markdown table, with an elapsed column when timed."""
    timed = any("elapsed" in rec for rec in report["suites"])
    lines = [
        "| suite | anchor | status | cases | exact | at-horizon | falsified | inconclusive | xfail |"
        + (" elapsed s |" if timed else ""),
        "|---|---|---|---|---|---|---|---|---|" + ("---|" if timed else ""),
    ]
    for rec in report["suites"]:
        c = rec["counts"]
        lines.append(
            f"| {rec['suite']} | {rec['anchor']} | {rec['status']} | {c['cases']} "
            f"| {c['exact']} | {c['verified-at-horizon']} | {c['falsified']} "
            f"| {c['inconclusive']} | {c['xfail']} |"
            + (f" {rec['elapsed']:.3f} |" if timed else ""))
    failing = [r for r in report["suites"] if r["status"] != "pass"]
    for rec in failing:
        lines.append("")
        lines.append(f"- `{rec['suite']}` {rec['status']}: witness {rec['witness']!r}")
    return "\n".join(lines) + "\n"
