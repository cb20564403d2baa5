"""Convergence oracles: order sandwiches, interval data, metric checks."""

import re
from fractions import Fraction as F

import pytest
from hypothesis import given
from hypothesis import strategies as st

from reference import (eventually_constant_sequence, scan_eventual_constancy, scan_metric_cauchy,
                       scan_metric_converges, settled_containment)
import ulat.convergence as convergence
from ulat.carriers import CarrierMismatch
from ulat.convergence import (
    _grade_bound,
    decide_O1_eventual_constancy,
    exhaustivity_probe,
    metric_cauchy,
    metric_converges,
    pairs_from_positives,
    truncate_sequence,
    unbounded_separation_example,
    ustar_nonconvergence_on_line,
    verify_O1,
    verify_O2,
    verify_uO,
)
from ulat.exact import Poly, RatAltSeq
from ulat.semimetrics import SemimetricFamily, norm_semimetric, ustar_family
from ulat.sequences import (
    EventuallyConstant,
    MetricCertificate,
    O1Witness,
    O2Witness,
    SequenceFamily,
    TailClosedForm,
    Window,
    constant_sequence,
    containment,
    parse_sequence_term,
    series_sequence,
    settled,
    window_sequence,
)
from ulat.spaces import NO_BOUND, C00Space, C00Vec, FinCofAlgebra, FinCofSet, QLine, QVec
from ulat.truncation import TruncationPair

Q = QLine()
A = FinCofAlgebra()
V = C00Space()

ALT_HARMONIC = RatAltSeq.alt() * RatAltSeq.inv_index()


def altharm():
    return series_sequence(Q, ALT_HARMONIC, "altharm")


def atoms_stream():
    return window_sequence(A, Window(sliding=True), "A_k")


def shrinking_chain():
    return window_sequence(A, Window(sliding=False, within=FinCofSet.universe()), "N_j")


def units():
    return window_sequence(V, Window(sliding=True), "e_k")


def harmonic_pair():
    lo = series_sequence(Q, -RatAltSeq.inv_index(), "lo")
    hi = series_sequence(Q, RatAltSeq.inv_index(), "hi")
    return lo, hi


# ---------------------------------------------------------------------------
# O1 / O2


def test_o1_sandwich_is_graded_at_the_horizon():
    lo, hi = harmonic_pair()
    v = verify_O1(altharm(), F(0), O1Witness(lo, hi), horizon=400)
    assert v.status == "verified-at-horizon"
    assert v.horizon == 400


def test_o1_catches_a_broken_sandwich():
    _, hi = harmonic_pair()
    bad_lo = series_sequence(Q, RatAltSeq.inv_index(), "shrinking-lo")
    v = verify_O1(altharm(), F(0), O1Witness(bad_lo, hi), horizon=50)
    assert v.status == "falsified"
    assert v.witness == ("sandwich", 1)


@pytest.mark.parametrize("seq, lower, upper, witness", [
    # the lower chain steps from 0 down to -1
    ("0", ["*", -1, ["*", ["+", 1, "alt"], "1/k"]], "1/k", ("lower-monotone", 2)),
    # the upper chain steps from 0 up to 1
    ("0", ["-", "1/k"], ["*", ["+", 1, "alt"], "1/k"], ("upper-monotone", 2)),
    # the lower chain 1 - 1/k passes the limit 0 at k = 2
    ("1", ["-", 1, "1/k"], "2", ("lower-exceeds-limit", 2)),
    # the upper chain 1/k - 1 falls below the limit 0 at k = 2
    ("-1", "-2", ["-", "1/k", 1], ("upper-undercuts-limit", 2)),
], ids=["lower-monotone", "upper-monotone", "lower-exceeds-limit", "upper-undercuts-limit"])
def test_o1_names_the_first_broken_sandwich_fact(seq, lower, upper, witness):
    x, lo, hi = (parse_sequence_term(t, Q, name)
                 for t, name in ((seq, "x"), (lower, "lo"), (upper, "hi")))
    v = verify_O1(x, F(0), O1Witness(lo, hi), horizon=50)
    assert (v.status, v.witness) == ("falsified", witness)


def test_o1_refuses_witnesses_on_another_carrier():
    lo, hi = harmonic_pair()
    foreign = series_sequence(QLine(), RatAltSeq.inv_index(), "hi")
    with pytest.raises(CarrierMismatch, match="witness sequences"):
        verify_O1(altharm(), F(0), O1Witness(lo, foreign))


def test_o1_eventually_constant_data_is_exact():
    seq = eventually_constant_sequence(Q, (F(3),), F(1), "settle")
    lo = eventually_constant_sequence(Q, (F(0),), F(1), "lo")
    hi = eventually_constant_sequence(Q, (F(3),), F(1), "hi")
    v = verify_O1(seq, F(1), O1Witness(lo, hi))
    assert v.status == "exact"


def test_o2_line_containment_is_symbolic():
    lo, hi = harmonic_pair()
    v = verify_O2(altharm(), F(0), O2Witness.affine(lo, hi, 0))
    assert v.status == "exact"
    assert "symbolically" in v.detail


# k / (k^2 + 4) rises from 1/5 to 1/4 at k = 2 and falls from there on
HUMP = RatAltSeq(Poly.of(0, 1), Poly.of(0), Poly.of(4, 0, 1))


def test_o2_line_lower_chain_must_not_decrease():
    _, hi = harmonic_pair()
    v = verify_O2(altharm(), F(0), O2Witness.affine(series_sequence(Q, HUMP, "hump"), hi, 0))
    assert v.status == "falsified"
    assert v.witness == ("lower-monotone", 2)
    assert v.detail == "lower chain decreased"


def test_o2_line_upper_chain_must_not_increase():
    lo, _ = harmonic_pair()
    v = verify_O2(altharm(), F(0), O2Witness.affine(lo, series_sequence(Q, -HUMP, "dip"), 0))
    assert v.status == "falsified"
    assert v.witness == ("upper-monotone", 2)
    assert v.detail == "upper chain increased"


@pytest.mark.parametrize("scale, detail", [(-2, "term fell below the lower chain"),
                                           (2, "term exceeded the upper chain")])
def test_o2_line_containment_names_the_shifted_term(scale, detail):
    # x_k = ±2/k against ∓1/j with K(j) = j + 2: 2/(t + 2) <= 1/t holds
    # exactly for t <= 2, so the first failure is t = 3 at k = 5
    lo, hi = harmonic_pair()
    x = series_sequence(Q, RatAltSeq.inv_index() * scale, "x")
    v = verify_O2(x, F(0), O2Witness.affine(lo, hi, 2))
    assert v.status == "falsified"
    assert v.witness == ("containment", 3, 5)
    assert v.detail == detail


def test_o2_without_a_descriptor_is_scanned():
    # a sequence without a descriptor is scanned, even a constant vector
    plane = QVec(2)
    x = SequenceFamily("x", plane, lambda k: (F(0), F(1)))
    point = constant_sequence(plane, (F(0), F(1)), "point")
    v = verify_O2(x, (F(0), F(1)), O2Witness.affine(point, point, 0), horizon=200)
    assert (v.status, v.horizon) == ("verified-at-horizon", 200)
    assert v.detail == "containment checked on a budgeted prefix"
    # (-1)^k / k is below the lower chain 0 at k = 1, the first index scanned
    line = QVec(1)
    y = SequenceFamily("y", line, lambda k: (F((-1) ** k, k),))
    zero = constant_sequence(line, (F(0),), "zero")
    hi = SequenceFamily("hi", line, lambda k: (F(1, k),))
    v = verify_O2(y, (F(0),), O2Witness.affine(zero, hi, 0), horizon=200)
    assert (v.status, v.witness) == ("falsified", ("containment", 1, 1))
    assert v.detail == "interval containment violated"


def test_o2_refuses_chains_on_another_carrier():
    lo, hi = harmonic_pair()
    foreign = series_sequence(QLine(), RatAltSeq.inv_index(), "hi")
    for w in (O2Witness.affine(lo, foreign, 0), O2Witness.affine(foreign, hi, 0)):
        with pytest.raises(CarrierMismatch, match="witness chains"):
            verify_O2(altharm(), F(0), w)


def test_o2_singleton_stream_inside_cofinite_chain_is_exact():
    atoms = atoms_stream()
    empty = constant_sequence(A, FinCofSet.empty(), "empty")
    chain = shrinking_chain()
    v = verify_O2(atoms, FinCofSet.empty(), O2Witness.affine(empty, chain, 1))
    assert v.status == "exact"


def test_o2_rejects_a_lying_eventual_index():
    # with offset 0 the singleton {j} is claimed inside [empty, N_j] at k = j,
    # but {j} is exactly the atom N_j drops
    atoms = atoms_stream()
    empty = constant_sequence(A, FinCofSet.empty(), "empty")
    chain = shrinking_chain()
    v = verify_O2(atoms, FinCofSet.empty(), O2Witness.affine(empty, chain, 0),
                  horizon=300)
    assert v.status == "falsified"
    assert v.witness == ("containment", 1, 1)


# ---------------------------------------------------------------------------
# eventual constancy


def test_constancy_decision_on_the_atom_stream():
    v = decide_O1_eventual_constancy(atoms_stream(), FinCofSet.empty())
    assert v.status == "falsified"
    assert v.witness == (1, 2)


@pytest.mark.parametrize("term", [Window(sliding=False),
                                  Window(sliding=False, within=FinCofSet.universe())])
def test_constancy_decision_on_the_set_chains_needs_no_horizon(term):
    # term: the window that lays down the growing or the shrinking chain
    v = decide_O1_eventual_constancy(window_sequence(A, term, "x"), FinCofSet.empty())
    assert (v.status, v.witness, v.horizon) == ("falsified", (1, 2), None)


def test_constancy_decision_is_exact_with_a_descriptor():
    seq = eventually_constant_sequence(
        A, (FinCofSet.finite({1}),), FinCofSet.empty(), "settle")
    assert decide_O1_eventual_constancy(seq, FinCofSet.empty()).status == "exact"
    wrong = decide_O1_eventual_constancy(seq, FinCofSet.finite({2}))
    assert wrong.status == "falsified"
    assert wrong.witness == (2, FinCofSet.empty())


def test_constancy_witness_names_two_different_terms():
    seq = atoms_stream()
    v = decide_O1_eventual_constancy(seq, FinCofSet.finite({1}))
    assert v.status == "falsified" and v.witness == (1, 2)
    assert seq.value(1) != seq.value(2)


def test_constancy_witness_skips_equal_terms():
    # the sliding window within ~{1, 2} drops the atoms 1 and 2, which that
    # set lacks already, so the first two terms are equal and the third is not
    within = FinCofSet.cofinite_complement({1, 2})
    seq = window_sequence(A, Window(sliding=True, within=within), "x")
    v = decide_O1_eventual_constancy(seq, FinCofSet.empty())
    assert (v.status, v.witness) == ("falsified", (1, 3))
    assert seq.value(1) == seq.value(2) != seq.value(3)


def test_constancy_without_a_descriptor_is_inconclusive():
    # settling at {2} or drifting forever: without a descriptor neither is
    # decided, and no term is read
    read = []
    late = SequenceFamily("late", A, lambda k: read.append(k) or FinCofSet.finite({1} if k < 4 else {2}))
    v = decide_O1_eventual_constancy(late, FinCofSet.finite({2}))
    assert (v.status, v.detail) == ("inconclusive", "constancy of late undecided (no descriptor)")
    drift = SequenceFamily("drift", A, lambda k: read.append(k) or FinCofSet.finite({k}))
    assert decide_O1_eventual_constancy(drift, FinCofSet.empty()).status == "inconclusive"
    assert read == []
    with pytest.raises(CarrierMismatch):
        decide_O1_eventual_constancy(late, F(0))


def test_constancy_of_a_clamped_window_is_inconclusive():
    # the clamp of a window on the algebra has no descriptor: the singletons
    # clamped into [{}, {1, 2}] are {1}, {2}, then {} from index 3 on, and
    # inside [{}, everything] the clamp changes nothing
    atoms = atoms_stream()
    for high in (FinCofSet.finite({1, 2}), FinCofSet.universe()):
        capped = truncate_sequence(atoms, TruncationPair.of(A, FinCofSet.empty(), high))
        assert settled(capped) is None
        for x in (FinCofSet.empty(), FinCofSet.finite({1})):
            assert decide_O1_eventual_constancy(capped, x).status == "inconclusive"


fincof_sets = st.builds(FinCofSet, st.frozensets(st.integers(1, 6), max_size=3), st.booleans())
# sequences on the algebra with a descriptor: a window, or a prefix then a constant
fincof_sequences = st.one_of(
    st.builds(Window, st.booleans(), st.one_of(
        st.none(), st.frozensets(st.integers(1, 6), max_size=3).map(FinCofSet.cofinite_complement))
    ).map(lambda term: window_sequence(A, term, "x")),
    st.tuples(st.lists(fincof_sets, max_size=3), fincof_sets).map(
        lambda pv: eventually_constant_sequence(A, pv[0], pv[1], "x")))


@given(fincof_sequences, fincof_sets)
def test_constancy_decision_agrees_with_the_horizon_scan(seq, x):
    # every knee and every atom a window skips lies below 8, so a scan to 40
    # sees the descriptor's answer: exact where it ends at x, and falsified
    # where the terms still change or settle elsewhere
    v = decide_O1_eventual_constancy(seq, x)
    scan = scan_eventual_constancy(seq, x, 40)
    assert v.status in ("exact", "falsified")
    assert (v.status == "exact") == (scan.status == "verified-at-horizon")


def test_constancy_reduction_rejects_the_line():
    with pytest.raises(ValueError):
        decide_O1_eventual_constancy(constant_sequence(Q, 0), F(0))


# ---------------------------------------------------------------------------
# truncated sequences


def test_truncation_rewrites_closed_forms_that_hit_a_bound():
    walk = series_sequence(Q, RatAltSeq.index(), "walk")
    up = truncate_sequence(walk, TruncationPair.of(Q, F(0), F(5)))
    assert up.descriptor == EventuallyConstant(F(5), 5)
    assert [up.value(k) for k in (1, 4, 5, 6)] == [F(1), F(4), F(5), F(5)]
    down = truncate_sequence(series_sequence(Q, -RatAltSeq.index(), "-walk"),
                             TruncationPair.of(Q, F(-3), F(0)))
    assert down.descriptor == EventuallyConstant(F(-3), 3)


def test_truncation_keeps_closed_forms_inside_the_window():
    harm = truncate_sequence(series_sequence(Q, RatAltSeq.inv_index(), "1/k"),
                             TruncationPair.of(Q, F(0), F(1)))
    assert harm.descriptor == TailClosedForm(RatAltSeq.inv_index())
    assert harm.value(7) == F(1, 7)


def test_truncation_drops_undecidable_closed_forms():
    alt = truncate_sequence(altharm(), TruncationPair.of(Q, F(0), F(1)))
    assert alt.descriptor is None
    assert [alt.value(k) for k in (1, 2, 3)] == [F(0), F(1, 2), F(0)]


def test_truncation_clamps_constant_values():
    seq = eventually_constant_sequence(Q, (F(9),), F(7), "settle")
    t = truncate_sequence(seq, TruncationPair.of(Q, F(0), F(2)))
    assert t.descriptor == EventuallyConstant(F(2), 2)


def test_truncation_of_unit_vectors_settles_past_the_cap_support():
    high = C00Vec.from_pairs([(1, 1), (2, 1)])
    t = truncate_sequence(units(), TruncationPair.of(V, C00Vec.zero(), high))
    assert t.descriptor == EventuallyConstant(C00Vec.zero(), 3)
    assert t.value(1) == C00Vec.indicator([1])
    assert t.value(2) == C00Vec.indicator([2])
    assert t.value(3) == C00Vec.zero()


# ---------------------------------------------------------------------------
# unbounded order convergence


def test_uo_unit_vectors_converge_to_zero():
    cap = C00Vec.from_pairs([(1, 1), (2, 1)])
    v = verify_uO(units(), C00Vec.zero(), positives=[cap])
    assert v.status == "exact"


def test_uo_of_the_atom_stream_without_witness_is_inconclusive():
    # clamping a window on the algebra gives no descriptor, so no settled
    # value is mistaken for a limit
    pair = TruncationPair.of(A, FinCofSet.empty(), FinCofSet.cofinite_complement({1}))
    v = verify_uO(atoms_stream(), FinCofSet.empty(), truncations=[pair])
    assert v.status == "inconclusive"


def test_uo_walk_fails_at_the_first_cap():
    walk = series_sequence(Q, RatAltSeq.index(), "walk")
    v = verify_uO(walk, F(0), positives=[F(1)])
    assert v.status == "falsified"
    assert v.witness == (F(0), F(1), 1, F(1))


def test_uo_without_witness_degrades_honestly():
    seq = altharm()
    pair = TruncationPair.of(Q, F(0), F(1))
    v = verify_uO(seq, F(0), truncations=[pair])
    assert v.status == "inconclusive"
    # the clamped sequence loses its closed form, so even a correct witness
    # can only be checked on a prefix
    w = O2Witness.affine(series_sequence(Q, RatAltSeq.const(0), "zero"),
                         series_sequence(Q, RatAltSeq.inv_index(), "hi"), 0)
    decided = verify_uO(seq, F(0), truncations=[pair], witnesses={pair: w})
    assert decided.status == "verified-at-horizon"


def test_uo_argument_validation():
    with pytest.raises(ValueError):
        verify_uO(altharm(), F(0))
    with pytest.raises(CarrierMismatch, match="positive caps need a group carrier"):
        verify_uO(atoms_stream(), FinCofSet.empty(), positives=[FinCofSet.finite({1})])
    with pytest.raises(ValueError):
        pairs_from_positives(Q, F(0), [F(-1)])
    pairs = pairs_from_positives(Q, F(2), [F(1)])
    assert [(p.low, p.high) for p in pairs] == [(F(1), F(2)), (F(2), F(3))]


# ---------------------------------------------------------------------------
# metric oracles


ABS = SemimetricFamily.of("abs", norm_semimetric(Q, "abs"))
CERT = MetricCertificate.uniform(lambda eps: int(1 / eps) + 1)


def test_metric_convergence_of_the_harmonic_tail():
    harm = series_sequence(Q, RatAltSeq.inv_index(), "1/k")
    v = metric_converges(harm, F(0), ABS, CERT, horizon=3000)
    assert v.status == "verified-at-horizon"


def test_metric_convergence_rejects_the_wrong_limit():
    harm = series_sequence(Q, RatAltSeq.inv_index(), "1/k")
    v = metric_converges(harm, F(1), ABS, CERT, eps_grid=(F(1, 4),), horizon=200)
    assert v.status == "falsified"
    assert v.witness == ("abs", "1/4", 5)


def test_metric_convergence_of_constant_tails_is_exact():
    settle = eventually_constant_sequence(Q, (F(9),), F(2), "settle")
    assert metric_converges(settle, F(2), ABS, CERT).status == "exact"
    wrong = metric_converges(settle, F(3), ABS, CERT, eps_grid=(F(1, 2),))
    assert wrong.status == "falsified"
    assert wrong.witness == ("abs", "1/2", 3)


def test_clamped_cauchy_check_is_exact_on_the_walk():
    walk = series_sequence(Q, RatAltSeq.index(), "walk")
    U = ustar_family(ABS, [TruncationPair.of(Q, F(-n), F(n)) for n in range(1, 9)])
    assert len(U.members) == 8
    v = exhaustivity_probe(walk, U, horizon=600)
    assert v.status == "exact"


def test_plain_cauchy_check_falsifies_the_walk():
    walk = series_sequence(Q, RatAltSeq.index(), "walk")
    v = metric_cauchy(walk, ABS, CERT, eps_grid=(F(1, 2),), horizon=400)
    assert v.status == "falsified"
    assert v.witness == ("abs", "1/2", 3, 4)


def test_a_rational_modulus_is_not_truncated():
    # N(eps) = 1/eps is a valid certificate for 1/k; read as int(3/2) = 1 it
    # would let the pair (1, 4) falsify the claim at eps = 2/3
    harm = series_sequence(Q, RatAltSeq.inv_index(), "1/k")
    cert = MetricCertificate(lambda eps, _: 1 / eps)
    v = metric_cauchy(harm, ABS, cert, eps_grid=(F(2, 3),), horizon=50)
    assert (v.status, v.horizon) == ("verified-at-horizon", 50)
    v = metric_converges(harm, F(0), ABS, cert, eps_grid=(F(2, 3), F(2, 7)), horizon=50)
    assert v.status == "verified-at-horizon"


@pytest.mark.parametrize("horizon", [0, -5, True])
def test_a_horizon_below_one_is_refused(horizon):
    lo, hi = harmonic_pair()
    with pytest.raises(ValueError, match="a horizon must be an integer >= 1"):
        verify_O1(altharm(), F(0), O1Witness(lo, hi), horizon=horizon)
    line = QVec(1)
    point = constant_sequence(line, (F(0),), "point")
    opaque = SequenceFamily("x", line, lambda k: (F(0),))
    with pytest.raises(ValueError, match="a horizon must be an integer >= 1"):
        verify_O2(opaque, (F(0),), O2Witness.affine(point, point, 0), horizon=horizon)
    # the constancy decision reads descriptors only, so it takes no horizon
    still = SequenceFamily("still", A, lambda k: FinCofSet.finite({2}))
    assert decide_O1_eventual_constancy(still, FinCofSet.finite({2})).status == "inconclusive"
    with pytest.raises(TypeError):
        decide_O1_eventual_constancy(still, FinCofSet.finite({2}), horizon=horizon)
    harm = series_sequence(Q, RatAltSeq.inv_index(), "1/k")
    with pytest.raises(ValueError, match="a horizon must be an integer >= 1"):
        metric_cauchy(harm, ABS, CERT, horizon=horizon)


@pytest.mark.parametrize("eps", [0, -1, 0.5])
def test_an_eps_that_is_not_a_positive_rational_is_refused(eps):
    x = series_sequence(Q, RatAltSeq.const(2) + 3 * RatAltSeq.inv_index(), "x")
    for check in (lambda: metric_cauchy(x, ABS, eps_grid=(F(1, 2), eps)),
                  lambda: metric_cauchy(x, ABS, CERT, eps_grid=(eps,)),
                  lambda: metric_converges(x, F(2), ABS, CERT, eps_grid=(eps,)),
                  lambda: exhaustivity_probe(x, ABS, eps_grid=(eps,))):
        with pytest.raises(ValueError, match=re.escape(f"eps grid entry {eps!r} is not")):
            check()


def test_exhaustivity_probe_requires_monotonicity():
    U = ustar_family(ABS, [TruncationPair.of(Q, F(-1), F(1))])
    with pytest.raises(ValueError):
        exhaustivity_probe(altharm(), U)


def test_plain_cauchy_check_of_a_settling_sequence_is_exact():
    settle = eventually_constant_sequence(Q, (F(9), F(5)), F(2), "settle")
    assert metric_cauchy(settle, ABS, MetricCertificate.uniform(lambda eps: 3)).status == "exact"
    assert metric_cauchy(settle, ABS).witness == ("abs", "1", 1, 2)


def test_cauchy_probe_computes_each_probed_term_once():
    calls = []
    climb = SequenceFamily("climb", Q, lambda k: calls.append(k) or 1 - F(1, k))
    for eps in (F(1, 2), F(1, 8)):
        calls.clear()
        v = metric_cauchy(climb, ABS, CERT, eps_grid=(eps,), horizon=300)
        assert v.status == "verified-at-horizon"
        probes = convergence._probe_indices(CERT.at(eps), 300, 16)
        assert sorted(calls) == probes


def test_o1_checks_each_term_once_and_the_limit_once(monkeypatch):
    checks = []
    real = Q.check_element
    monkeypatch.setattr(Q, "check_element", lambda x: checks.append(x) or real(x))
    terms = []

    def counted(seq):
        return SequenceFamily(seq.name, Q, lambda k: terms.append(k) or seq.term(k),
                              seq.descriptor)

    lo, hi = harmonic_pair()
    v = verify_O1(counted(altharm()), F(0), O1Witness(counted(lo), counted(hi)), horizon=50)
    assert v.status == "verified-at-horizon"
    assert len(terms) == 150
    assert len(checks) == len(terms) + 1


def test_a_cauchy_check_makes_one_check_per_term_evaluation(monkeypatch):
    checks = []
    real = Q.check_element
    monkeypatch.setattr(Q, "check_element", lambda x: checks.append(x) or real(x))
    terms = []
    climb = SequenceFamily("climb", Q, lambda k: terms.append(k) or 1 - F(1, k))
    assert metric_cauchy(climb, ABS, CERT, horizon=300).status == "verified-at-horizon"
    assert terms and len(checks) == len(terms)


def test_a_foreign_settled_value_is_refused_by_the_metric_oracles():
    bad = SequenceFamily("bad", Q, lambda k: F(0), EventuallyConstant("junk", 2))
    with pytest.raises(CarrierMismatch):
        metric_converges(bad, 0, ABS, CERT)
    with pytest.raises(CarrierMismatch):
        metric_cauchy(bad, ABS)


def test_the_metric_oracles_refuse_a_family_on_another_carrier():
    climb = series_sequence(Q, RatAltSeq.const(1) - RatAltSeq.inv_index(), "climb")
    plane = SemimetricFamily.of("l1", norm_semimetric(QVec(2)))
    with pytest.raises(CarrierMismatch):
        metric_converges(climb, 1, plane, CERT)
    with pytest.raises(CarrierMismatch):
        metric_cauchy(climb, plane, CERT)


def test_bounded_climb_is_cauchy_at_the_horizon():
    climb = series_sequence(Q, RatAltSeq.const(1) - RatAltSeq.inv_index(), "climb")
    v = metric_cauchy(climb, ABS, CERT, horizon=2000)
    assert v.status == "verified-at-horizon"


# closed forms on the line from the ring operations on the four basic sequences
line_forms = st.recursive(
    st.one_of(st.integers(min_value=-3, max_value=3).map(RatAltSeq.const),
              st.sampled_from([RatAltSeq.index(), RatAltSeq.inv_index(), RatAltSeq.alt()])),
    lambda inner: st.one_of(st.tuples(inner, inner).map(lambda xy: xy[0] + xy[1]),
                            st.tuples(inner, inner).map(lambda xy: xy[0] * xy[1])),
    max_leaves=4)
small = st.fractions(min_value=-4, max_value=4, max_denominator=6)
# (sequence, its limit or 0): a closed form, or a prefix then a constant, whose
# constant tail takes the exact branch
line_sequences = st.one_of(
    line_forms.map(lambda form: (series_sequence(Q, form, "x"),
                                 form.limit() if isinstance(form.limit(), F) else F(0))),
    st.tuples(st.lists(small, max_size=3), small).map(
        lambda pv: (eventually_constant_sequence(Q, pv[0], pv[1], "x"), pv[1])))
eps_grids = st.lists(st.fractions(min_value=F(1, 64), max_value=3, max_denominator=64),
                     min_size=1, max_size=3)
certificates = st.one_of(st.none(), st.fractions(min_value=0, max_value=6, max_denominator=4).map(
    lambda c: MetricCertificate.uniform(lambda eps: c / eps)))


def _abs_and_clamps(windows):
    """abs, then the clamp member of abs for each window."""
    pairs = [TruncationPair.of(Q, min(a, b), max(a, b)) for a, b in windows]
    clamps = ustar_family(ABS, pairs).members if pairs else ()
    return SemimetricFamily.of("abs+", ABS.members[0], *clamps)


def _scans(family, eps):
    """The whole family over the whole grid, then each member over each
    eps alone, so that the parts the weakest verdict hides are compared."""
    yield family, eps
    for d in family.members:
        for e in eps:
            yield SemimetricFamily.of(d.name, d), (e,)


@given(line_sequences, eps_grids, certificates, st.lists(st.tuples(small, small), max_size=2),
       st.integers(min_value=1, max_value=120))
def test_cauchy_scan_with_one_bound_per_eps_matches_the_fraction_scan(seq_limit, eps, cert,
                                                                      windows, horizon):
    seq, _ = seq_limit
    for family, grid in _scans(_abs_and_clamps(windows), eps):
        assert (metric_cauchy(seq, family, cert, eps_grid=grid, horizon=horizon)
                == scan_metric_cauchy(seq, family, cert, eps_grid=grid, horizon=horizon))


@given(line_sequences, eps_grids, certificates, st.lists(st.tuples(small, small), max_size=2),
       st.one_of(st.none(), small), st.integers(min_value=1, max_value=120))
def test_convergence_scan_with_one_bound_per_eps_matches_the_fraction_scan(seq_limit, eps, cert,
                                                                           windows, x, horizon):
    seq, limit = seq_limit
    x, cert = limit if x is None else x, cert or CERT
    for family, grid in _scans(_abs_and_clamps(windows), eps):
        assert (metric_converges(seq, x, family, cert, eps_grid=grid, horizon=horizon)
                == scan_metric_converges(seq, x, family, cert, eps_grid=grid, horizon=horizon))


# ---------------------------------------------------------------------------
# flagship counterexamples


def test_the_walk_escapes_every_clamp_neighborhood():
    for r, n in ((0, 2), (100, 102), (F(-7, 2), 5)):
        v = ustar_nonconvergence_on_line(r)
        assert v.status == "exact"
        assert v.witness == ("n", n)
        assert f"n={n} separates the tail of (k)" in v.detail


def test_two_norm_separation_report():
    rep = unbounded_separation_example(k_values=range(1, 4), n_values=range(1, 201))
    assert rep.cases == 600
    assert rep.truncated.status == "exact"
    assert rep.unclamped.status == "falsified"
    assert rep.unclamped.witness == ("norm", "inf")
    by_key = {(s.k, s.n): s for s in rep.samples}
    first = by_key[(1, 1)]
    assert first.truncated_gap.to_json() == "0"
    assert first.truncated_gap <= F(1)
    assert first.unclamped.to_json() == "inf"
    late = by_key[(3, 200)]
    assert late.truncated_gap.to_json() == "1/100"
    assert late.truncated_gap <= F(3, 200)


def test_separation_reads_each_grid_once():
    ranged = unbounded_separation_example(k_values=range(1, 3), n_values=range(1, 4))
    assert ranged.cases == 6
    assert unbounded_separation_example(k_values=(k for k in range(1, 3)),
                                        n_values=(n for n in range(1, 4))) == ranged
    assert unbounded_separation_example(k_values=iter([1, 2]), n_values=iter([1, 2, 3])) == ranged


@pytest.mark.parametrize("k_values, n_values, bad", [
    ((1,), (0,), "n must be an integer >= 1, got 0"),
    ((-1,), (1,), "k must be an integer >= 1, got -1"),
    ((1,), (1, -2), "n must be an integer >= 1, got -2"),
    ((0,), (1,), "k must be an integer >= 1, got 0"),
    ((True,), (1,), "k must be an integer >= 1, got True"),
    ((1,), (True,), "n must be an integer >= 1, got True"),
    ((1,), (F(1),), "n must be an integer >= 1, got Fraction(1, 1)"),
    ((), (1,), "at least one k and one n"),
    ((1,), (), "at least one k and one n"),
], ids=["n-zero", "k-negative", "n-negative", "k-zero", "k-bool", "n-bool", "n-fraction",
        "no-k", "no-n"])
def test_separation_refuses_an_out_of_domain_grid(monkeypatch, k_values, n_values, bad):
    # refused before any work: no element of the space is built
    monkeypatch.setattr(convergence, "EvLinSpace", None)
    with pytest.raises(ValueError, match=re.escape(bad)):
        unbounded_separation_example(k_values=k_values, n_values=n_values)


def test_separation_builds_the_n_terms_once_per_n(monkeypatch):
    abs_calls = []
    abs_ = convergence.EvLinSpace.abs_

    def counted(self, x):
        abs_calls.append(x)
        return abs_(self, x)

    monkeypatch.setattr(convergence.EvLinSpace, "abs_", counted)
    rep = unbounded_separation_example()
    assert rep.cases == 50 * 200
    assert len(abs_calls) == 200


# ---------------------------------------------------------------------------
# clamp members carry their pair


def _walk_star():
    walk = series_sequence(Q, RatAltSeq.index(), "walk")
    return walk, ustar_family(ABS, [TruncationPair.of(Q, F(-n), F(n)) for n in range(1, 9)])


def _climb_star():
    # windows the climb 1 - 1/k leaves at k = 2, at k = 4, and never
    climb = series_sequence(Q, RatAltSeq.const(1) - RatAltSeq.inv_index(), "climb")
    windows = [(F(0), F(1, 2)), (F(0), F(3, 4)), (F(-1), F(2))]
    return climb, ustar_family(ABS, [TruncationPair.of(Q, a, b) for a, b in windows])


def _name_keyed_certificate(seq, star):
    """Each clamp member's modulus is its clamped tail's constancy index,
    looked up by member name; every other member starts at 1."""
    knees = {}
    for m in star.members:
        tail = settled(truncate_sequence(seq, m.clamp))
        if tail is not None:
            knees[m.name] = tail[0]
    return MetricCertificate(lambda _eps, name: knees.get(name, 1))


@pytest.mark.parametrize("family", [_walk_star, _climb_star], ids=["walk", "climb"])
def test_probe_without_certificate_matches_the_name_keyed_one(family):
    seq, star = family()
    v = exhaustivity_probe(seq, star, horizon=300)
    assert v == metric_cauchy(seq, star, _name_keyed_certificate(seq, star), horizon=300)
    assert v == metric_cauchy(seq, star, horizon=300)


def test_climb_family_mixes_settled_and_probed_windows():
    seq, star = _climb_star()
    knees = [settled(truncate_sequence(seq, m.clamp)) for m in star.members]
    assert [k if k is None else k[0] for k in knees] == [2, 4, None]
    # the window the climb never leaves has no modulus, so its probe starts
    # at 1 and the early terms are too far apart
    v = exhaustivity_probe(seq, star, horizon=300)
    assert v.status == "falsified"
    assert v.witness[0] == star.members[2].name


def test_probe_clamps_each_member_once(monkeypatch):
    seq, star = _walk_star()
    calls = []
    real = convergence.truncate_sequence
    monkeypatch.setattr(convergence, "truncate_sequence",
                        lambda s, p: calls.append(p) or real(s, p))
    assert exhaustivity_probe(seq, star, horizon=300).status == "exact"
    assert len(calls) == len(star.members) == 8


def test_probe_without_a_closed_form_is_inconclusive():
    # only a closed form decides monotonicity: a flip, a climb and settling
    # steps without one are all undecided, and no term is read
    line = QVec(1)
    U = ustar_family(SemimetricFamily.of("l1", norm_semimetric(line)),
                     [TruncationPair.of(line, (F(-1),), (F(1),))])
    read = []
    flip = SequenceFamily("flip", line, lambda k: read.append(k) or (F((-1) ** k),))
    climb = SequenceFamily("climb", line, lambda k: read.append(k) or (1 - F(1, k),))
    for seq in (flip, climb):
        v = exhaustivity_probe(seq, U, CERT, horizon=300)
        assert (v.status, v.detail) == (
            "inconclusive", f"monotonicity of {seq.name} undecided (no closed form)")
    assert read == []
    steps = eventually_constant_sequence(Q, (F(0), F(1, 2)), F(1), "steps")
    clamps = ustar_family(ABS, [TruncationPair.of(Q, F(-1), F(1))])
    assert exhaustivity_probe(steps, clamps).status == "inconclusive"
    # an undecided probe still refuses what the Cauchy check refuses
    with pytest.raises(ValueError, match="eps grid entry 0 is not"):
        exhaustivity_probe(steps, clamps, eps_grid=(0,))
    with pytest.raises(CarrierMismatch):
        exhaustivity_probe(flip, clamps)
    # a closed form that is not monotone is refused
    with pytest.raises(ValueError, match="monotone"):
        exhaustivity_probe(series_sequence(Q, RatAltSeq.alt(), "flip"), clamps)


# ---------------------------------------------------------------------------
# bound grading and containment of settled data


def test_bound_grading_without_a_bound_falsifies():
    walk = series_sequence(Q, RatAltSeq.index(), "walk")
    v = _grade_bound(walk, "sup", F(0))
    assert v.status == "falsified"
    assert v.witness == ("sup", NO_BOUND)


def test_bound_grading_of_a_decided_bound_is_exact_or_falsified():
    climb = parse_sequence_term(["-", 1, "1/k"], Q, "climb")
    assert _grade_bound(climb, "sup", F(1)).status == "exact"
    v = _grade_bound(climb, "sup", F(0))
    assert (v.status, v.witness) == ("falsified", ("sup", F(1)))
    assert v.detail == "sup of climb is Fraction(1, 1), not the limit"


def test_bound_grading_of_an_undecided_bound_is_inconclusive():
    # the terms of (-1)^k / k are all at most 1/2, so no term falsifies 1/2
    v = _grade_bound(parse_sequence_term(["*", "alt", "1/k"], Q, "x"), "sup", F(1, 2))
    assert v.status == "inconclusive"
    assert v.detail == "sup of x undecided (tail is not monotone)"


def test_bound_grading_without_a_descriptor_reads_no_term():
    # term 3 lies above the claimed supremum, but only a descriptor decides
    read = []
    seq = SequenceFamily("blip", Q, lambda k: read.append(k) or (F(1) if k == 3 else F(0)))
    v = _grade_bound(seq, "sup", F(0))
    assert (v.status, v.detail) == ("inconclusive", "sup of blip undecided (no descriptor)")
    assert _grade_bound(seq, "inf", F(1, 2)).status == "inconclusive"
    assert read == []


def test_o2_on_set_terms_is_decided_by_their_settled_values():
    # settled data has no symbolic containment argument: the budgeted scan
    # compares the terms, and the settled chains decide the bounds exactly
    x = constant_sequence(A, FinCofSet.finite({1, 2}), "x")
    lo = constant_sequence(A, FinCofSet.finite({1}), "lo")
    hi = constant_sequence(A, FinCofSet.cofinite_complement({3}), "hi")
    assert containment(x, O2Witness.affine(lo, hi, 0)) is None
    v = verify_O2(x, FinCofSet.finite({1, 2}), O2Witness.affine(x, x, 1), horizon=50)
    assert (v.status, v.horizon) == ("verified-at-horizon", 50)
    v = verify_O2(x, FinCofSet.finite({1, 2}), O2Witness.affine(lo, constant_sequence(
        A, FinCofSet.cofinite_complement({2}), "hi"), 0))
    assert (v.status, v.witness) == ("falsified", ("containment", 1, 1))


@given(st.tuples(st.lists(small, max_size=3), small), st.tuples(st.lists(small, max_size=3), small),
       st.tuples(st.lists(small, max_size=3), small), st.integers(0, 3))
def test_o2_on_settled_data_agrees_with_the_exact_settled_scan(xs, lows, highs, offset):
    # the budgeted prefix covers every knee, so it fails where the exact
    # scan fails, at the same (j, k), and passes where it passes
    seq, lo, hi = (eventually_constant_sequence(Q, prefix, value, name)
                   for (prefix, value), name in ((xs, "x"), (lows, "lo"), (highs, "hi")))
    w = O2Witness.affine(lo, hi, offset)
    exact = settled_containment(seq, w)
    v = verify_O2(seq, xs[1], w, horizon=60)
    if exact.status == "falsified":
        assert v == exact
    else:
        assert v.status != "falsified" or v.witness[0] in ("sup", "inf")


def test_o2_on_settled_data_is_checked_on_a_budgeted_prefix():
    seq = eventually_constant_sequence(Q, (F(3),), F(1), "settle")
    lo = eventually_constant_sequence(Q, (F(0),), F(1), "lo")
    hi = eventually_constant_sequence(Q, (F(3),), F(1), "hi")
    v = verify_O2(seq, F(1), O2Witness.affine(lo, hi, 0), horizon=50)
    assert (v.status, v.horizon) == ("verified-at-horizon", 50)
    assert v.detail == "containment checked on a budgeted prefix"
    tight = constant_sequence(Q, F(1), "tight")
    v = verify_O2(seq, F(1), O2Witness.affine(lo, tight, 0))
    assert v.status == "falsified"
    assert v.witness == ("containment", 1, 1)
