"""Sequence descriptors, what they prove (settling points, clamped images,
bound claims), witnesses, and the term grammar."""

import time
from fractions import Fraction as F

import pytest

from reference import eventually_constant_sequence
from ulat.carriers import CarrierMismatch, chain_lattice
from ulat.exact import RatAltSeq
from ulat.sequences import (
    NEVER_CONSTANT,
    AtomPrefixSets,
    CofiniteFilterChain,
    EventuallyConstant,
    MetricCertificate,
    O1Witness,
    O2Witness,
    SequenceFamily,
    SingletonAtoms,
    TailClosedForm,
    UnitVectors,
    chain_bound,
    cofinite_chain_sequence,
    constant_sequence,
    containment,
    monotone,
    o2_from_o1,
    parse_scalar_series,
    parse_sequence_term,
    series_sequence,
    settled,
    singleton_atom_sequence,
    unit_vector_sequence,
)
from ulat.spaces import (
    NO_BOUND,
    C00Space,
    C00Vec,
    FinCofAlgebra,
    FinCofSet,
    QLine,
    QVec,
)

Q = QLine()
A = FinCofAlgebra()
V = C00Space()


def test_sequences_are_one_indexed():
    s = constant_sequence(Q, 3)
    assert s.value(1) == F(3)
    with pytest.raises(ValueError):
        s.value(0)


def test_a_term_enters_the_carrier_checked():
    ints = SequenceFamily("ints", Q, lambda k: k)
    assert ints.value(3) == F(3) and isinstance(ints.value(3), F)
    stray = SequenceFamily("stray", Q, lambda k: "seven" if k == 2 else F(k))
    assert stray.value(1) == F(1)
    with pytest.raises(CarrierMismatch):
        stray.value(2)


def test_eventually_constant_factory():
    s = eventually_constant_sequence(Q, (F(5), F(4)), F(1), "settle")
    assert [s.value(k) for k in (1, 2, 3, 9)] == [F(5), F(4), F(1), F(1)]
    assert s.descriptor == EventuallyConstant(F(1), 3)


def test_series_and_builtin_streams_match_descriptors():
    harmonic = series_sequence(Q, RatAltSeq.inv_index(), "1/k")
    assert harmonic.value(4) == F(1, 4)
    assert harmonic.descriptor == TailClosedForm(RatAltSeq.inv_index())

    units = unit_vector_sequence(V)
    assert units.value(3) == C00Vec.unit(3)
    assert units.descriptor == UnitVectors()

    atoms = singleton_atom_sequence(A)
    assert atoms.value(5) == FinCofSet.singleton(5)
    assert atoms.descriptor == SingletonAtoms()

    chain = cofinite_chain_sequence(A)
    assert chain.value(3) == FinCofSet.cofinite_complement({1, 2, 3})
    assert chain.descriptor == CofiniteFilterChain()


# ---------------------------------------------------------------------------
# settled


def test_settled_eventually_constant():
    s = eventually_constant_sequence(Q, (F(5), F(4)), 1, "settle")
    assert settled(s) == (3, F(1))


def test_settled_tail_closed_form_is_undecided():
    # 1/k never settles, but the descriptor alone does not say so
    assert settled(series_sequence(Q, RatAltSeq.inv_index(), "1/k")) is None
    assert settled(series_sequence(Q, RatAltSeq.const(2), "two")) is None


def test_settled_unit_vectors_is_undecided():
    assert settled(unit_vector_sequence(V)) is None


def test_settled_singleton_atoms_never_constant():
    assert settled(singleton_atom_sequence(A)) == (1, NEVER_CONSTANT)


def test_settled_set_chains_are_undecided():
    assert settled(parse_sequence_term(["atom-prefix"], A)) is None
    assert settled(cofinite_chain_sequence(A)) is None


def test_settled_without_descriptor_is_undecided():
    assert settled(SequenceFamily("opaque", Q, lambda k: F(1))) is None


# ---------------------------------------------------------------------------
# chain_bound


def test_bound_of_bounded_climb_is_exact():
    # x_k = 1 - 1/k climbs to 1; the sup is the limit, the inf the first term
    climb = series_sequence(Q, RatAltSeq.const(1) - RatAltSeq.inv_index(), "climb")
    up = chain_bound(climb, "sup")
    assert (up.value, up.exact) == (F(1), True)
    assert up.detail == "monotone limit"
    lo = chain_bound(climb, "inf")
    assert (lo.value, lo.exact) == (F(0), True)
    assert chain_bound(climb, "inf", k0=3).value == F(2, 3)


def test_unbounded_walk_has_no_bound_in_carrier():
    walk = series_sequence(Q, RatAltSeq.index(), "walk")
    up = chain_bound(walk, "sup")
    assert up.value is NO_BOUND
    assert up.exact and up.detail == "increases without bound"
    assert chain_bound(walk, "inf").value == F(1)
    down = chain_bound(series_sequence(Q, -RatAltSeq.index(), "-walk"), "inf")
    assert down.value is NO_BOUND and down.detail == "decreases without bound"


@pytest.mark.parametrize("term, sup, inf", [
    (["+", ["*", "1/7", "1/k"], ["*", 20, ["*", "1/k", "1/k"]]], F(141, 7), F(0)),
    (["+", ["+", "1/k", ["*", "1/k", "1/k"]], ["*", ["*", "1/k", "1/k"], "1/k"]], F(3), F(0)),
])
def test_bounds_of_composed_harmonic_terms(term, sup, inf):
    x = parse_sequence_term(term, Q, "x")
    for kind, want in (("sup", sup), ("inf", inf)):
        claim = chain_bound(x, kind)
        assert (claim.value, claim.exact) == (want, True)


def test_a_fold_folds_at_least_term_k0_and_checks_each_term_once(monkeypatch):
    L = chain_lattice(3)
    ramp = SequenceFamily("ramp", L, lambda k: min(k - 1, 2))
    claim = chain_bound(ramp, "sup", k0=70)
    assert (claim.value, claim.exact, claim.detail) == (2, False, "fold of terms 70..70")
    assert chain_bound(ramp, "inf", k0=2, horizon=1).detail == "fold of terms 2..2"
    checks = []
    real = L.check_element
    monkeypatch.setattr(L, "check_element", lambda x: checks.append(x) or real(x))
    claim = chain_bound(ramp, "inf", horizon=100)
    assert (claim.value, claim.detail) == (0, "fold of terms 1..100")
    assert len(checks) == 100


def test_a_foreign_descriptor_value_is_refused_by_the_bound():
    bad = SequenceFamily("bad", chain_lattice(3), lambda k: 0, EventuallyConstant(7, 2))
    with pytest.raises(CarrierMismatch):
        chain_bound(bad, "sup")


def test_alternating_tail_is_undecided_without_monotonicity():
    alt = series_sequence(Q, RatAltSeq.alt() * RatAltSeq.inv_index(), "alt-harmonic")
    claim = chain_bound(alt, "sup")
    assert claim.value is None


def test_fincof_tail_bounds_use_the_set_oracle():
    chain = cofinite_chain_sequence(A)
    assert chain_bound(chain, "inf").value == FinCofSet.empty()
    assert chain_bound(chain, "sup", k0=5).value == FinCofSet.cofinite_complement(
        {1, 2, 3, 4, 5}
    )
    atoms = singleton_atom_sequence(A)
    assert chain_bound(atoms, "sup", k0=5).value == FinCofSet.cofinite_complement(
        {1, 2, 3, 4}
    )
    assert chain_bound(atoms, "inf").value == FinCofSet.empty()


class TestSetChainBounds:
    """chain_bound on the set chains of the finite/cofinite algebra."""

    def test_shrinking_chain(self):
        chain = cofinite_chain_sequence(A)
        assert chain.descriptor == CofiniteFilterChain()
        assert chain_bound(chain, "inf").value == FinCofSet.empty()
        assert chain_bound(chain, "sup").value == chain.value(1)
        assert chain_bound(chain, "sup", k0=3).value == chain.value(3)
        assert chain_bound(chain, "inf").exact and chain_bound(chain, "sup").exact

    def test_chain_terms_shrink_within(self):
        B = FinCofSet.cofinite_complement({1})
        chain = cofinite_chain_sequence(A, within=B)
        assert chain.descriptor == CofiniteFilterChain(B)
        assert chain.value(2) == FinCofSet.cofinite_complement({1, 2})
        assert chain_bound(chain, "inf").value == FinCofSet.empty()

    def test_atom_streams(self):
        # every atom occurs, so the universe is the only upper bound
        atoms = singleton_atom_sequence(A)
        assert atoms.descriptor == SingletonAtoms()
        assert chain_bound(atoms, "sup").value == FinCofSet.universe()
        assert chain_bound(atoms, "sup", k0=4).value == \
            FinCofSet.cofinite_complement({1, 2, 3})
        assert chain_bound(atoms, "inf").value == FinCofSet.empty()
        prefix = parse_sequence_term(["atom-prefix"], A)
        assert prefix.descriptor == AtomPrefixSets()
        assert chain_bound(prefix, "sup").value == FinCofSet.universe()
        assert chain_bound(prefix, "inf", k0=3).value == FinCofSet.finite({1, 2, 3})
        # a descriptor chain_bound does not know stays undecided
        opaque = SequenceFamily("opaque", A, FinCofSet.singleton)
        assert chain_bound(opaque, "sup").value is None

    def test_rejects_bad_arguments(self):
        atoms = singleton_atom_sequence(A)
        with pytest.raises(ValueError):
            chain_bound(atoms, "max")
        with pytest.raises(ValueError):
            chain_bound(atoms, "sup", k0=0)
        # k0 >= 1 holds for every descriptor, not only the set chains
        with pytest.raises(ValueError):
            chain_bound(constant_sequence(Q, 0), "inf", k0=0)

    def test_no_bound_sentinel_is_exported(self):
        assert NO_BOUND == "no-bound-in-algebra"


def test_unit_vector_bounds():
    units = unit_vector_sequence(V)
    assert chain_bound(units, "inf").value == C00Vec.zero()
    assert chain_bound(units, "sup").value is NO_BOUND


def test_descriptorless_fold_on_finite_carrier_is_inexact():
    L = chain_lattice(4)
    seq = SequenceFamily("capped", L, lambda k: min(k, 2))
    claim = chain_bound(seq, "sup", horizon=8)
    assert claim.value == 2 and not claim.exact
    assert "fold" in claim.detail


def test_descriptorless_infinite_carrier_is_undecided():
    seq = SequenceFamily("opaque", Q, lambda k: F(1, k))
    claim = chain_bound(seq, "sup")
    assert claim.value is None and not claim.exact


def test_chain_bound_rejects_unknown_kind():
    with pytest.raises(ValueError):
        chain_bound(constant_sequence(Q, 0), "max")


# ---------------------------------------------------------------------------
# witnesses and certificates


def test_o2_replay_shifts_the_sandwich_start():
    lower = series_sequence(Q, -RatAltSeq.inv_index(), "lo")
    upper = series_sequence(Q, RatAltSeq.inv_index(), "hi")
    replay = o2_from_o1(O1Witness(lower, upper, start_index=3))
    assert replay.offset == 2
    assert replay.k_of(1) == 3
    assert replay.lower.value(1) == lower.value(3)
    assert replay.upper.value(4) == upper.value(6)
    assert isinstance(replay.upper.descriptor, TailClosedForm)
    assert replay.upper.descriptor.series.eval(1) == F(1, 3)


def test_monotone_is_decided_by_closed_forms_only():
    assert monotone(series_sequence(Q, RatAltSeq.inv_index(), "1/k")) is True
    assert monotone(series_sequence(Q, RatAltSeq.alt(), "alt")) is False
    assert monotone(eventually_constant_sequence(Q, (F(0),), F(1), "step")) is None


def test_containment_leaves_undecided_witnesses_to_the_caller():
    lo = series_sequence(Q, -RatAltSeq.inv_index(), "lo")
    hi = series_sequence(Q, RatAltSeq.inv_index(), "hi")
    x = series_sequence(Q, RatAltSeq.const(0), "zero")
    assert containment(x, O2Witness(lo, hi, lambda j: j)) is None
    assert containment(x, O2Witness.affine(lo, hi, 0)).status == "exact"
    atoms = singleton_atom_sequence(A)
    empty = constant_sequence(A, FinCofSet.empty(), "empty")
    assert containment(atoms, O2Witness.affine(empty, cofinite_chain_sequence(A), 0)) is None


def test_o2_replay_from_the_start_keeps_terms():
    lower = constant_sequence(Q, -1)
    upper = constant_sequence(Q, 1)
    replay = o2_from_o1(O1Witness(lower, upper))
    assert replay.offset == 0
    assert replay.lower is lower and replay.upper is upper


def test_affine_witness_rejects_negative_offset():
    lower = constant_sequence(Q, 0)
    with pytest.raises(ValueError):
        O2Witness.affine(lower, lower, -1)
    with pytest.raises(ValueError, match="offset must be nonnegative"):
        O2Witness(lower, lower, lambda j: j - 1, -1)


def test_metric_certificate_clamps_to_one():
    cert = MetricCertificate.uniform(lambda eps: int(1 / eps) - 5)
    assert cert.at(F(1, 2)) == 1
    assert cert.at(F(1, 100)) == 95
    assert cert.at("1/100") == 95
    named = MetricCertificate(lambda eps, name: 7 if name == "abs" else 1)
    assert named.at(F(1), "abs") == 7


# ---------------------------------------------------------------------------
# term grammar


def test_scalar_grammar_round_trips():
    assert parse_scalar_series("k").eval(7) == F(7)
    assert parse_scalar_series("1/k").eval(4) == F(1, 4)
    assert parse_scalar_series("alt").eval(3) == F(-1)
    assert parse_scalar_series("2/3").eval(9) == F(2, 3)
    assert parse_scalar_series(5).eval(2) == F(5)
    combo = parse_scalar_series(["+", "k", ["*", "alt", "1/k"]])
    assert combo.eval(2) == F(5, 2)
    assert parse_scalar_series(["-", "k"]).eval(3) == F(-3)
    assert parse_scalar_series(["-", "k", 1]).eval(3) == F(2)


def test_scalar_grammar_rejects_junk():
    with pytest.raises(ValueError):
        parse_scalar_series(True)
    with pytest.raises(ValueError):
        parse_scalar_series(["/", "k", 2])
    with pytest.raises(ValueError):
        parse_scalar_series([])
    with pytest.raises(ValueError):
        parse_scalar_series("q")
    with pytest.raises(ValueError, match="divides by zero"):
        parse_scalar_series("1/0")
    with pytest.raises(ValueError, match="divides by zero"):
        parse_scalar_series(["+", "k", "3/0"])
    with pytest.raises(ValueError):
        parse_scalar_series(0.5)
    with pytest.raises(ValueError, match=r"unrecognized scalar term \['\+', 'k', 'k', 'zz'\]"):
        parse_scalar_series(["+", "k", "k", "zz"])


def test_a_scalar_term_with_an_exponent_is_refused_at_once():
    start = time.perf_counter()
    with pytest.raises(ValueError, match="has an exponent"):
        parse_sequence_term("1e10000000", Q)
    assert time.perf_counter() - start < 0.1


def test_a_deeply_nested_scalar_term_is_refused():
    term = "k"
    for _ in range(3000):
        term = ["-", term]
    with pytest.raises(ValueError, match=r"scalar term \['-', .* nests deeper than"):
        parse_scalar_series(term)
    with pytest.raises(ValueError, match="unrecognized scalar term"):
        parse_scalar_series(["/", term])


@pytest.mark.parametrize("term", [["set", 5], ["set", ["x", 1.5]], ["coset", [True]],
                                  ["coset", {"1": 2}]])
def test_set_terms_need_integer_atoms(term):
    with pytest.raises(ValueError, match=f"{term[0]} term needs a list of integer atoms"):
        parse_sequence_term(term, A)


def test_sequence_terms_build_carrier_streams():
    atoms = parse_sequence_term(["singleton-atoms"], A)
    assert atoms.value(2) == FinCofSet.singleton(2)
    prefix = parse_sequence_term(["atom-prefix"], A)
    assert prefix.value(3) == FinCofSet.finite({1, 2, 3})
    drop = parse_sequence_term(["drop-atom-prefix"], A)
    assert drop.value(2) == FinCofSet.cofinite_complement({1, 2})
    const = parse_sequence_term(["set", [2, 4]], A)
    assert const.value(9) == FinCofSet.finite({2, 4})
    coset = parse_sequence_term(["coset", [1]], A)
    assert coset.value(1) == FinCofSet.cofinite_complement({1})
    units = parse_sequence_term(["unit-vectors"], V)
    assert units.value(2) == C00Vec.unit(2)


@pytest.mark.parametrize("term, carrier, needs", [
    (["singleton-atoms"], Q, "the finite/cofinite algebra"),
    ("k", A, "the rational line"),
    (["vec", "k"], QVec(2), "rational vectors of dimension 1"),
], ids=["set-term-on-line", "scalar-on-fincof", "short-vec"])
def test_terms_are_refused_on_a_carrier_they_do_not_fit(term, carrier, needs):
    with pytest.raises(ValueError, match=f"needs {needs}, not the carrier '{carrier.name}'"):
        parse_sequence_term(term, carrier)


def test_vector_terms_and_scalar_fallback():
    plane = QVec(2)
    vec = parse_sequence_term(["vec", "1/k", ["-", "1/k"]], plane)
    assert vec.value(2) == (F(1, 2), F(-1, 2))
    scalar = parse_sequence_term("1/k", Q, "harmonic")
    assert scalar.value(5) == F(1, 5)
    assert scalar.name == "harmonic"
    with pytest.raises(ValueError):
        parse_sequence_term(["spiral"], Q)


@pytest.mark.parametrize("term, carrier, takes", [
    (["set"], A, "1 argument"),
    (["coset"], A, "1 argument"),
    (["set", [1], [2]], A, "1 argument"),
    (["singleton-atoms", 5], A, "no arguments"),
    (["atom-prefix", 1], A, "no arguments"),
    (["drop-atom-prefix", "x"], A, "no arguments"),
    (["unit-vectors", 3], V, "no arguments"),
], ids=["set-bare", "coset-bare", "set-two-lists", "singleton-atoms-extra", "atom-prefix-extra",
        "drop-atom-prefix-extra", "unit-vectors-extra"])
def test_builtins_refuse_a_wrong_argument_count(term, carrier, takes):
    with pytest.raises(ValueError, match=f"builtin '{term[0]}' takes {takes}, got {len(term) - 1}"):
        parse_sequence_term(term, carrier)
