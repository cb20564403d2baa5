"""Sequence descriptors, what they prove (settling points, clamped images,
bound claims), witnesses, and the term grammar."""

import functools
import time
from fractions import Fraction as F

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from reference import eventually_constant_sequence, restrict, window_term
from ulat.carriers import CarrierMismatch, chain_lattice
from ulat.exact import RatAltSeq
from ulat.sequences import (
    NEVER_CONSTANT,
    EventuallyConstant,
    MetricCertificate,
    O1Witness,
    O2Witness,
    SequenceFamily,
    TailClosedForm,
    Window,
    chain_bound,
    clamped_descriptor,
    constant_sequence,
    containment,
    monotone,
    o2_from_o1,
    parse_scalar_series,
    parse_sequence_term,
    series_sequence,
    settled,
    window_sequence,
)
from ulat.spaces import (
    NO_BOUND,
    C00Space,
    C00Vec,
    EvLinSpace,
    FinCofAlgebra,
    FinCofSet,
    QLine,
    QVec,
)
from ulat.truncation import TruncationPair

Q = QLine()
A = FinCofAlgebra()
V = C00Space()

SLIDING = Window(sliding=True)
GROWING = Window(sliding=False)
DROPPING = Window(sliding=False, within=FinCofSet.universe())


def units():
    return window_sequence(V, SLIDING, "e_k")


def atoms_stream():
    return window_sequence(A, SLIDING, "A_k")


def shrinking_chain(within=FinCofSet.universe()):
    return window_sequence(A, Window(sliding=False, within=within), "N_j")


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

    assert units().value(3) == C00Vec.indicator([3])
    assert units().descriptor == SLIDING

    atoms = atoms_stream()
    assert atoms.value(5) == FinCofSet.finite({5})
    assert atoms.descriptor == SLIDING

    chain = shrinking_chain()
    assert chain.value(3) == FinCofSet.cofinite_complement({1, 2, 3})
    assert chain.descriptor == DROPPING


# ---------------------------------------------------------------------------
# settled


def test_settled_eventually_constant():
    s = eventually_constant_sequence(Q, (F(5), F(4)), 1, "settle")
    assert settled(s) == (3, F(1))


def test_settled_tail_closed_form_is_undecided():
    # 1/k never settles, but the descriptor alone does not say so
    assert settled(series_sequence(Q, RatAltSeq.inv_index(), "1/k")) is None
    assert settled(series_sequence(Q, RatAltSeq.const(2), "two")) is None


def test_settled_unit_vectors_never_constant():
    assert settled(units()) == (1, NEVER_CONSTANT)
    assert settled(window_sequence(V, GROWING, "1_[1,k]")) == (1, NEVER_CONSTANT)


def test_settled_singleton_atoms_never_constant():
    assert settled(atoms_stream()) == (1, NEVER_CONSTANT)


def test_settled_set_chains_never_constant():
    assert settled(window_sequence(A, GROWING, "1..k")) == (1, NEVER_CONSTANT)
    assert settled(shrinking_chain()) == (1, NEVER_CONSTANT)
    assert settled(shrinking_chain(FinCofSet.cofinite_complement({1, 2}))) == \
        (1, NEVER_CONSTANT)


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


@pytest.mark.parametrize("k0", [True, F(3, 2), 2.5, 0, -3])
def test_a_bound_from_an_index_that_is_not_an_int_from_one_is_refused(k0):
    sequences = (series_sequence(Q, RatAltSeq.const(2) + 3 * RatAltSeq.inv_index(), "x"),
                 eventually_constant_sequence(Q, (F(9),), F(2), "settle"),
                 shrinking_chain(), SequenceFamily("opaque", Q, lambda k: F(k)))
    for seq in sequences:
        for kind in ("sup", "inf"):
            with pytest.raises(ValueError, match="k0 must be an integer >= 1"):
                chain_bound(seq, kind, k0)


def test_a_long_sum_parses_small_and_bounds_at_once():
    doc = "1/k"
    for _ in range(39):
        doc = ["+", "1/k", doc]
    x = parse_sequence_term(doc, Q, "x")
    series = x.descriptor.series
    assert (series.num.degree, series.den.degree) == (0, 1)
    start = time.perf_counter()
    claim = chain_bound(x, "sup")
    assert time.perf_counter() - start < 0.05
    assert (claim.value, claim.exact) == (F(40), True)


def test_the_inf_of_a_high_power_is_decided_at_once():
    power = RatAltSeq.const(1)
    for _ in range(31):
        power = power * RatAltSeq.index()
    start = time.perf_counter()
    claim = chain_bound(series_sequence(Q, power, "k^31"), "inf")
    assert time.perf_counter() - start < 0.5
    assert (claim.value, claim.detail) == (F(1), "nondecreasing from k0")


def test_a_foreign_descriptor_value_is_refused_by_the_bound():
    bad = SequenceFamily("bad", chain_lattice(3), lambda k: 0, EventuallyConstant(7, 2))
    with pytest.raises(CarrierMismatch):
        chain_bound(bad, "sup")


def test_alternating_tail_is_undecided_without_monotonicity():
    alt = series_sequence(Q, RatAltSeq.alt() * RatAltSeq.inv_index(), "alt-harmonic")
    claim = chain_bound(alt, "sup")
    assert claim.value is None


def test_fincof_tail_bounds_use_the_set_oracle():
    chain = shrinking_chain()
    assert chain_bound(chain, "inf").value == FinCofSet.empty()
    assert chain_bound(chain, "sup", k0=5).value == FinCofSet.cofinite_complement(
        {1, 2, 3, 4, 5}
    )
    atoms = atoms_stream()
    assert chain_bound(atoms, "sup", k0=5).value == FinCofSet.cofinite_complement(
        {1, 2, 3, 4}
    )
    assert chain_bound(atoms, "inf").value == FinCofSet.empty()


class TestSetChainBounds:
    """chain_bound on the set chains of the finite/cofinite algebra."""

    def test_shrinking_chain(self):
        chain = shrinking_chain()
        assert chain.descriptor == DROPPING
        assert chain_bound(chain, "inf").value == FinCofSet.empty()
        assert chain_bound(chain, "sup").value == chain.value(1)
        assert chain_bound(chain, "sup", k0=3).value == chain.value(3)
        assert chain_bound(chain, "inf").exact and chain_bound(chain, "sup").exact

    def test_chain_terms_shrink_within(self):
        B = FinCofSet.cofinite_complement({1})
        chain = shrinking_chain(B)
        assert chain.descriptor == Window(sliding=False, within=B)
        assert chain.value(2) == FinCofSet.cofinite_complement({1, 2})
        assert chain_bound(chain, "inf").value == FinCofSet.empty()

    def test_atom_streams(self):
        # every atom occurs, so the universe is the only upper bound
        atoms = atoms_stream()
        assert chain_bound(atoms, "sup").value == FinCofSet.universe()
        assert chain_bound(atoms, "sup", k0=4).value == \
            FinCofSet.cofinite_complement({1, 2, 3})
        assert chain_bound(atoms, "inf").value == FinCofSet.empty()
        prefix = window_sequence(A, GROWING, "1..k")
        assert prefix.descriptor == GROWING
        assert chain_bound(prefix, "sup").value == FinCofSet.universe()
        assert chain_bound(prefix, "inf", k0=3).value == FinCofSet.finite({1, 2, 3})
        # a descriptor chain_bound does not know stays undecided
        opaque = SequenceFamily("opaque", A, lambda k: FinCofSet.finite({k}))
        assert chain_bound(opaque, "sup").value is None

    def test_rejects_bad_arguments(self):
        atoms = atoms_stream()
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
    assert chain_bound(units(), "inf").value == C00Vec.zero()
    assert chain_bound(units(), "sup").value is NO_BOUND


# ---------------------------------------------------------------------------
# windows against a dense reference
#
# A window is drawn as (sliding, dropped): a complement is taken in the
# cofinite set ~dropped.  The reference counts atoms 1..n+1 with terms up to
# n+2, n past every endpoint, atom and support index, so each bound has a
# witness term in range and every atom past n behaves like atom n+1.

windows = st.tuples(st.booleans(), st.none() | st.frozensets(st.integers(1, 8), max_size=4))
c00_points = st.lists(st.tuples(st.integers(1, 8), st.fractions(-2, 2, max_denominator=3)),
                      max_size=4).map(C00Vec.from_pairs)


def _window(sliding, dropped) -> Window:
    return Window(sliding, None if dropped is None else FinCofSet.cofinite_complement(dropped))


def _indicator(atoms) -> C00Vec:
    return C00Vec.from_pairs((i, 1) for i in atoms)


@given(windows, st.integers(1, 20))
def test_window_answers_on_the_algebra_match_a_dense_reference(window, k0):
    sliding, dropped = window
    n = max(k0, *(dropped or [1]))
    atoms = range(1, n + 2)
    seq = window_sequence(A, _window(*window), "x")
    for k in range(1, n + 3):
        assert restrict(seq.value(k), atoms) == window_term(sliding, dropped, k, atoms)
        assert seq.value(k).cofinite == (dropped is not None)
    tail = [window_term(sliding, dropped, k, atoms) for k in range(k0, n + 3)]
    for kind, fold in (("sup", frozenset.union), ("inf", frozenset.intersection)):
        claim, want = chain_bound(seq, kind, k0), functools.reduce(fold, tail)
        assert claim.exact and restrict(claim.value, atoms) == want
        assert claim.value.cofinite == (n + 1 in want)
    wide = range(1, n + 3)
    terms = [window_term(sliding, dropped, k, wide) for k in range(1, n + 3)]
    assert all(any(t != terms[i] for t in terms[i + 1:]) for i in range(n + 1))
    assert settled(seq) == (1, NEVER_CONSTANT)
    assert clamped_descriptor(seq, TruncationPair.of(A, FinCofSet.empty(), FinCofSet.universe())) \
        is None


@given(st.booleans(), st.integers(1, 20), c00_points, c00_points)
def test_window_answers_on_c00_match_a_dense_reference(sliding, k0, low, high):
    m = max(low.max_support(), high.max_support())
    n = max(k0, m, 1)
    atoms = range(1, n + 2)
    seq = window_sequence(V, Window(sliding), "x")
    for k in range(1, n + 3):
        assert seq.value(k) == _indicator(window_term(sliding, None, k, range(1, k + 1)))
    tail = [window_term(sliding, None, k, atoms) for k in range(k0, n + 3)]
    union, meet = frozenset.union(*tail), frozenset.intersection(*tail)
    assert chain_bound(seq, "sup", k0).value == (NO_BOUND if n + 1 in union else _indicator(union))
    assert chain_bound(seq, "inf", k0).value == _indicator(meet)
    assert settled(seq) == (1, NEVER_CONSTANT)

    # the clamp keeps coordinates 1..m only; the image settles where W(k) & [1, m] does
    seen = [window_term(sliding, None, k, range(1, m + 1)) for k in range(1, n + 3)]
    knee = min(k for k in range(1, n + 3) if all(s == seen[k - 1] for s in seen[k - 1:]))

    def clamp(x):
        return C00Vec.from_pairs(
            (i, max(min(x.coordinate(i), high.coordinate(i)), low.coordinate(i)))
            for i in range(1, n + 3))

    image = clamped_descriptor(seq, TruncationPair.of(V, low, high))
    assert image == EventuallyConstant(clamp(seq.value(knee)), knee)
    assert all(clamp(seq.value(k)) == image.value for k in range(knee, n + 3))


@settings(max_examples=300)
@given(windows, windows, st.booleans(), st.integers(0, 10))
@example((True, None), (False, frozenset({3})), True, 2)
def test_window_containment_matches_a_dense_reference(window, upper, empty_lower, c):
    (sliding, dropped), (up_sliding, up_dropped) = window, upper
    n = max(*(dropped or [1]), *(up_dropped or [1]))
    atoms = range(1, n + c + 4)
    lower = frozenset() if empty_lower else frozenset({1})
    w = O2Witness.affine(constant_sequence(A, FinCofSet.finite(lower), "m"),
                         window_sequence(A, _window(*upper), "n"), c)
    verdict = containment(window_sequence(A, _window(*window), "x"), w)
    holds = all(lower <= window_term(sliding, dropped, k, atoms)
                <= window_term(up_sliding, up_dropped, j, atoms)
                for j in range(1, n + 2) for k in range(j + c, n + c + 3))
    decided = (sliding and dropped is None and not up_sliding and up_dropped is not None
               and empty_lower and c >= max(up_dropped, default=1))
    assert (verdict is not None) == decided
    if decided:
        assert verdict.status == "exact" and holds


def test_a_window_is_refused_where_it_has_no_terms():
    with pytest.raises(ValueError, match="has no terms in the carrier 'c00'"):
        window_sequence(V, DROPPING, "x")
    with pytest.raises(ValueError, match="has no terms in the carrier 'qline'"):
        window_sequence(Q, SLIDING, "x")
    with pytest.raises(ValueError, match="needs a cofinite within"):
        window_sequence(A, Window(sliding=True, within=FinCofSet.finite({3})), "x")
    with pytest.raises(CarrierMismatch):
        window_sequence(A, Window(sliding=True, within=FinCofSet.cofinite_complement({0})), "x")


def test_atoms_are_positive_integers_so_window_bounds_are_exact():
    # ~{} is the least upper bound of the singletons only because ~{-1} is
    # no element; likewise {} is the greatest lower bound of the shrinking
    # chain only because {-1} is none
    assert chain_bound(atoms_stream(), "sup").value == FinCofSet.universe()
    with pytest.raises(CarrierMismatch):
        A.check_element(FinCofSet.cofinite_complement({-1}))
    assert chain_bound(shrinking_chain(), "inf").value == FinCofSet.empty()
    with pytest.raises(CarrierMismatch):
        A.check_element(FinCofSet.finite({-1}))


@pytest.mark.parametrize("x", [FinCofSet.finite([0]), FinCofSet.finite([True]),
                               FinCofSet(frozenset({"a"})), FinCofSet.finite([F(2)]),
                               FinCofSet.cofinite_complement([1, 2.0 + 0.5])])
def test_the_algebra_refuses_atoms_that_are_not_positive_integers(x):
    assert not A.contains(x)
    with pytest.raises(CarrierMismatch):
        A.check_element(x)


@pytest.mark.parametrize("index", [1.5, 2.0, True, F(2)])
def test_a_sequence_index_must_be_an_integer(index):
    for seq in (atoms_stream(), shrinking_chain(), constant_sequence(Q, 0)):
        with pytest.raises(ValueError, match="a sequence index must be an integer >= 1"):
            seq.value(index)


def test_descriptorless_infinite_carrier_is_undecided():
    seq = SequenceFamily("opaque", Q, lambda k: F(1, k))
    claim = chain_bound(seq, "sup")
    assert claim.value is None and not claim.exact
    assert claim.detail == "no descriptor"


def test_a_bound_is_exact_exactly_when_it_is_decided():
    claims = [chain_bound(parse_sequence_term(t, Q), kind)
              for t in ("k", "1/k", ["*", "alt", "1/k"]) for kind in ("sup", "inf")]
    capped = SequenceFamily("capped", chain_lattice(4), lambda k: min(k, 2))
    claims.append(chain_bound(capped, "sup"))
    assert [c.value for c in claims] == [NO_BOUND, F(1), F(1), F(0), None, None, None]
    assert all(c.exact == (c.value is not None) for c in claims)


def test_chain_bound_rejects_unknown_kind():
    with pytest.raises(ValueError):
        chain_bound(constant_sequence(Q, 0), "max")


# ---------------------------------------------------------------------------
# witnesses and certificates


def test_monotone_is_decided_by_closed_forms_only():
    assert monotone(series_sequence(Q, RatAltSeq.inv_index(), "1/k")) is True
    assert monotone(series_sequence(Q, RatAltSeq.alt(), "alt")) is False
    assert monotone(eventually_constant_sequence(Q, (F(0),), F(1), "step")) is None


def test_containment_leaves_undecided_witnesses_to_the_caller():
    lo = series_sequence(Q, -RatAltSeq.inv_index(), "lo")
    hi = series_sequence(Q, RatAltSeq.inv_index(), "hi")
    x = series_sequence(Q, RatAltSeq.const(0), "zero")
    assert containment(x, O2Witness.affine(lo, hi, 0)).status == "exact"
    plane = QVec(2)
    point = constant_sequence(plane, (F(0), F(0)))
    opaque = SequenceFamily("opaque", plane, lambda k: (F(0), F(0)))
    assert containment(opaque, O2Witness.affine(point, point, 0)) is None
    empty = constant_sequence(A, FinCofSet.empty(), "empty")
    assert containment(atoms_stream(), O2Witness.affine(empty, shrinking_chain(), 0)) is None


def test_o2_replay_from_the_start_keeps_terms():
    lower = constant_sequence(Q, -1)
    upper = constant_sequence(Q, 1)
    replay = o2_from_o1(O1Witness(lower, upper))
    assert replay == O2Witness(lower, upper, 0)
    assert replay.lower is lower and replay.upper is upper


def test_affine_witness_rejects_negative_offset():
    lower = constant_sequence(Q, 0)
    for offset in (-1, True, 1.0, F(1), None):
        with pytest.raises(ValueError, match="offset must be an integer >= 0"):
            O2Witness.affine(lower, lower, offset)
    w = O2Witness(lower, lower, 3)
    assert w == O2Witness.affine(lower, lower, 3) and w.k_of(2) == 5


def test_metric_certificate_clamps_to_one():
    cert = MetricCertificate.uniform(lambda eps: int(1 / eps) - 5)
    assert cert.at(F(1, 2)) == 1
    assert cert.at(F(1, 100)) == 95
    assert cert.at("1/100") == 95
    named = MetricCertificate(lambda eps, name: 7 if name == "abs" else 1)
    assert named.at(F(1), "abs") == 7


def test_a_rational_modulus_is_read_by_its_ceiling():
    cert = MetricCertificate.uniform(lambda eps: 1 / eps)
    assert [cert.at(e) for e in (F(2, 3), F(1, 2), F(3, 7), F(2))] == [2, 2, 3, 1]
    assert MetricCertificate.uniform(lambda eps: F(-5, 2)).at(1) == 1


@pytest.mark.parametrize("modulus", [True, 2.0, 1.5, "3", None])
def test_a_modulus_that_is_not_an_int_or_a_fraction_is_refused(modulus):
    with pytest.raises(ValueError, match="a modulus must be an int or a Fraction"):
        MetricCertificate.uniform(lambda eps: modulus).at(F(1, 2))


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


REMOVED_FORMS = [["vec", "k"], ["set", [1]], ["coset", [1]], ["singleton-atoms"],
                 ["atom-prefix"], ["drop-atom-prefix"], ["unit-vectors"]]


@pytest.mark.parametrize("term", REMOVED_FORMS, ids=[t[0] for t in REMOVED_FORMS])
def test_removed_term_forms_are_refused_on_every_carrier(term):
    # the grammar is scalar only: a former builtin is no scalar term
    for carrier in (Q, A, V, QVec(1), QVec(2), EvLinSpace(), chain_lattice(3)):
        with pytest.raises(ValueError, match="unrecognized scalar term"):
            parse_sequence_term(term, carrier)


@pytest.mark.parametrize("term, carrier, message", [
    (["singleton-atoms"], Q, r"unrecognized scalar term \['singleton-atoms'\]"),
    ("k", A, "needs the rational line, not the carrier 'fincof'"),
    (["vec", "k"], QVec(2), r"unrecognized scalar term \['vec', 'k'\]"),
    ("1/k", V, "needs the rational line, not the carrier 'c00'"),
    (["*", "alt", "1/k"], QVec(1), "needs the rational line, not the carrier 'qvec1'"),
    (3, EvLinSpace(), "needs the rational line, not the carrier 'evlinseq'"),
    ("k", chain_lattice(3), "needs the rational line, not the carrier 'chain3'"),
], ids=["set-term-on-line", "scalar-on-fincof", "short-vec", "scalar-on-c00", "scalar-on-vectors",
        "scalar-on-evlin", "scalar-on-a-finite-lattice"])
def test_terms_are_refused_on_a_carrier_they_do_not_fit(term, carrier, message):
    with pytest.raises(ValueError, match=message):
        parse_sequence_term(term, carrier)


def test_vector_terms_and_scalar_fallback():
    # a vector term is refused on the plane; a scalar term parses on the line
    with pytest.raises(ValueError, match="unrecognized scalar term"):
        parse_sequence_term(["vec", "1/k", ["-", "1/k"]], QVec(2))
    scalar = parse_sequence_term("1/k", Q, "harmonic")
    assert scalar.value(5) == F(1, 5)
    assert scalar.name == "harmonic"
    with pytest.raises(ValueError):
        parse_sequence_term(["spiral"], Q)
