import itertools
import random
import re
from fractions import Fraction as F
from unittest import mock

import pytest
from hypothesis import given
from hypothesis import strategies as st

from reference import (abs_meet_split, abs_meet_split_holds, base_point_bound_holds, neg_part,
                       pos_part)
import ulat.exact as exact
import ulat.spaces as spaces
import ulat.truncation as truncation
from ulat.carriers import (
    CarrierMismatch,
    CheckResult,
    FiniteLattice,
    GroupCarrier,
    diamond_lattice,
    divisor_lattice,
    pentagon_lattice,
    powerset_lattice,
)
from ulat.catalog import finite_entries, standard_carriers
from ulat.convergence import truncate_sequence
from ulat.optrees import MEET, OpTree, evaluate
from ulat.semimetrics import derived_semimetric, discrete_semimetric
from ulat.sequences import SequenceFamily, constant_sequence
from ulat.spaces import C00Space, EvLinSpace, FinCofAlgebra, QLine, QVec
from ulat.truncation import (
    TruncationPair,
    canonical_pairs,
    clamp_difference_bound,
    compose_truncations,
    decompose_abs_meet,
    is_truncation_hom,
    truncate_f,
    truncate_g,
)

P3 = powerset_lattice(3)


def s(*atoms):
    return frozenset(atoms)


class TestClamp:
    def test_clamp_lands_in_the_window(self):
        p = TruncationPair.of(P3, s(1), s(1, 2))
        assert truncate_f(P3, p, s(3)) == s(1)
        assert truncate_f(P3, p, s(2, 3)) == s(1, 2)
        assert truncate_f(P3, p, s(1, 2)) == s(1, 2)

    def test_f_and_g_agree_on_canonical_pairs(self):
        for p in canonical_pairs(P3):
            for x in P3.elements():
                assert truncate_f(P3, p, x) == truncate_g(P3, p, x)

    def test_canonical_pair_count(self):
        # pairs (a, b) with a below b in the three-atom powerset: 3^3
        assert sum(1 for _ in canonical_pairs(P3)) == 27
        assert all(p.canonical for p in canonical_pairs(P3))

    def test_canonical_flag(self):
        assert TruncationPair.of(P3, s(1), s(1, 2)).canonical
        assert not TruncationPair.of(P3, s(1), s(2)).canonical


class TestCompose:
    def test_frozen_example(self):
        outer = TruncationPair.of(P3, s(1), s(1, 2))
        inner = TruncationPair.of(P3, s(2), s(2, 3))
        comp = compose_truncations(P3, outer, inner)
        assert comp.low == s(1, 2) and comp.high == s(2)
        assert not comp.canonical
        # both paths agree even though the composite is non-canonical
        for x in P3.elements():
            assert truncate_f(P3, comp, x) == truncate_f(
                P3, outer, truncate_f(P3, inner, x))

    def test_exhaustive_on_divisor_lattice(self):
        L = divisor_lattice(12)
        elems = L.elements()
        for a in elems:
            for b in elems:
                outer = TruncationPair.of(L, a, b)
                for c in elems:
                    for d in elems:
                        inner = TruncationPair.of(L, c, d)
                        comp = compose_truncations(L, outer, inner)
                        for x in elems:
                            assert truncate_f(L, comp, x) == truncate_f(
                                L, outer, truncate_f(L, inner, x))

    def test_rejected_on_nondistributive_carriers(self):
        N5 = pentagon_lattice()
        p = TruncationPair.of(N5, "0", "1")
        with pytest.raises(ValueError):
            compose_truncations(N5, p, p)


class TestHomDichotomy:
    def test_distributive_carriers_make_every_clamp_a_hom(self):
        for L in (P3, divisor_lattice(60)):
            for p in canonical_pairs(L):
                assert is_truncation_hom(L, p).holds

    def test_pentagon_has_a_violating_clamp_with_witness(self):
        N5 = pentagon_lattice()
        violations = [(p, res) for p in canonical_pairs(N5)
                      for res in [is_truncation_hom(N5, p)] if not res.holds]
        assert violations
        p, res = violations[0]
        x, y, law = res.witness
        f = lambda v: truncate_f(N5, p, v)
        if law == "join":
            assert f(N5.join(x, y)) != N5.join(f(x), f(y))
        else:
            assert f(N5.meet(x, y)) != N5.meet(f(x), f(y))


class TestAbsMeetSplit:
    def test_frozen_plane_example(self):
        G = QVec(2)
        x, y, a = (F(3), F(-1)), (F(1), F(2)), (F(2), F(2))
        assert decompose_abs_meet(G, x, y, a)
        assert abs_meet_split(G, x, y, a) == ((F(2), F(2)), (F(0), F(2)), (F(2), F(0)))

    def test_requires_positive_cap(self):
        G = QVec(2)
        with pytest.raises(ValueError):
            decompose_abs_meet(G, (F(0), F(0)), (F(1), F(1)), (F(1), F(-1)))

    def test_base_point_bound_on_the_line(self):
        Q = QLine()
        assert clamp_difference_bound(Q, F(10), F(0), F(1), F(3))
        assert clamp_difference_bound(Q, F(-5), F(7), F(-2), F(1, 2))

    @given(st.integers(min_value=-8, max_value=8),
           st.integers(min_value=-8, max_value=8),
           st.integers(min_value=0, max_value=8),
           st.integers(min_value=-8, max_value=8))
    def test_split_and_bound_on_the_line(self, xi, yi, ai, si):
        Q = QLine()
        x, y, a, s = F(xi), F(yi), F(ai), F(si)
        assert decompose_abs_meet(Q, x, y, a)
        assert clamp_difference_bound(Q, s, x, y, a)


def test_split_holds_on_random_vectors():
    G = QVec(5)
    rng = random.Random(11)
    for _ in range(300):
        x, y = G.sample(rng), G.sample(rng)
        a = G.abs_(G.sample(rng))
        assert decompose_abs_meet(G, x, y, a)
        # the two split terms reassemble the capped distance exactly
        lhs, term_low, term_high = abs_meet_split(G, x, y, a)
        assert G.add(term_low, term_high) == lhs


# ---------------------------------------------------------------------------
# validation at entry, and the trusted path against the public operations

V5 = QVec(5)
LINE = QLine()
GOOD = {V5: tuple(F(i) for i in range(5)), LINE: F(2)}
FOREIGN = {
    V5: [(F(1), F(2)), (F(1), F(2), F(3), 0.5, F(0)), "1"],
    LINE: [(F(1), F(2)), 0.5, "1"],
}


@pytest.mark.parametrize("G", [V5, LINE], ids=["qvec5", "qline"])
@pytest.mark.parametrize("bad_index", range(3), ids=["wrong-dim", "float", "string"])
def test_foreign_elements_raise_carrier_mismatch(G, bad_index):
    bad = FOREIGN[G][bad_index]
    good = GOOD[G]
    for slot in range(3):
        args = [good, good, good]
        args[slot] = bad
        with pytest.raises(CarrierMismatch):
            decompose_abs_meet(G, *args)
    for slot in range(4):
        args = [good, good, good, good]
        args[slot] = bad
        with pytest.raises(CarrierMismatch):
            clamp_difference_bound(G, *args)
    p = TruncationPair.of(G, good, good)
    with pytest.raises(CarrierMismatch):
        truncate_f(G, p, bad)
    with pytest.raises(CarrierMismatch):
        truncate_g(G, p, bad)


def _public_split(G, x, y, a):
    """|x - y| /\\ a and its two clamp terms from public operations only."""
    def sub(u, v):
        return G.add(u, G.negate(v))

    def abs_(u):
        return G.join(u, G.negate(u))

    def clamp(low, high, u):
        return G.join(G.meet(u, high), low)

    lhs = G.meet(abs_(sub(x, y)), a)
    low, high = sub(y, a), G.add(y, a)
    term_low = abs_(sub(clamp(low, y, x), clamp(low, y, y)))
    term_high = abs_(sub(clamp(y, high, x), clamp(y, high, y)))
    return lhs, term_low, term_high


@pytest.mark.parametrize("G", [V5, LINE], ids=["qvec5", "qline"])
def test_trusted_path_matches_public_operations(G):
    rng = random.Random(17)
    for _ in range(200):
        x, y, s = G.sample(rng), G.sample(rng), G.sample(rng)
        a = G.abs_(G.sample(rng))
        lhs, term_low, term_high = _public_split(G, x, y, a)
        assert decompose_abs_meet(G, x, y, a) == (lhs == G.add(term_low, term_high))
        p = TruncationPair.of(G, s, G.add(s, a))
        diff = G.abs_(G.sub(truncate_f(G, p, x), truncate_f(G, p, y)))
        cap = G.meet(G.abs_(G.sub(x, y)), a)
        assert clamp_difference_bound(G, s, x, y, a) == G.leq(diff, cap)


# Rationals with denominators up to 10 or up to 10^9, and caps of either
# sign.  Past the cap check a negative cap coordinate breaks both laws and a
# positive cap keeps them, so a boolean answer shows a scaling fault only
# where it turns a negative cap coordinate into 0: a cap whose denominator
# exceeds those of the points.
RATIONALS = st.one_of(st.fractions(max_denominator=10), st.fractions(max_denominator=10**9))
CAPS = st.one_of(st.just(F(0)), RATIONALS)
LAW_CARRIERS = [LINE] + [QVec(n) for n in range(1, 6)]


@st.composite
def _law_cases(draw):
    """(G, s, x, y, a) with each coordinate of x free, equal to y, or at an
    end of one of the two clamps' windows."""
    G = draw(st.sampled_from(LAW_CARRIERS))
    columns = []
    for _ in range(1 if G is LINE else G.dim):
        s, y, a = draw(RATIONALS), draw(RATIONALS), draw(CAPS)
        x = draw(st.one_of(RATIONALS, st.sampled_from([y, y - a, y + a, s, s + a])))
        columns.append((s, x, y, a))
    points = zip(*columns)
    return (G, *(p[0] for p in points)) if G is LINE else (G, *points)


@given(_law_cases())
def test_laws_match_the_reference_bodies(case):
    G, s, x, y, a = case
    with mock.patch.object(truncation, "_check_cap", lambda G, a: None):
        assert decompose_abs_meet(G, x, y, a) == abs_meet_split_holds(G, x, y, a)
        assert clamp_difference_bound(G, s, x, y, a) == base_point_bound_holds(G, s, x, y, a)
    if G._leq(G.zero, a):
        assert decompose_abs_meet(G, x, y, a) and clamp_difference_bound(G, s, x, y, a)
    else:
        with pytest.raises(ValueError, match="positive"):
            decompose_abs_meet(G, x, y, a)
        with pytest.raises(ValueError, match="positive"):
            clamp_difference_bound(G, s, x, y, a)


TIE_GRID = sorted({F(n, d) for n in range(-2, 3) for d in (1, 2)})


def test_laws_match_the_reference_bodies_on_every_tie():
    """Every x, y, a, s in {-2, ..., 2}/{1, 2} on the line, caps of either
    sign: the grid holds each equality the integer bodies branch on (x = y,
    x = y +- a, a = 0, x = s, x = s + a), and with the cap check off a
    negative cap makes both laws fail, so the answers are not all True."""
    answers = set()
    with mock.patch.object(truncation, "_check_cap", lambda G, a: None):
        for x, y, a in itertools.product(TIE_GRID, repeat=3):
            split = decompose_abs_meet(LINE, x, y, a)
            assert split == abs_meet_split_holds(LINE, x, y, a), (x, y, a)
            answers.add(split)
            for s in TIE_GRID:
                bound = clamp_difference_bound(LINE, s, x, y, a)
                assert bound == base_point_bound_holds(LINE, s, x, y, a), (s, x, y, a)
                answers.add(bound)
    assert answers == {True, False}


@pytest.mark.parametrize("G", [C00Space(), EvLinSpace(), FinCofAlgebra(), P3],
                         ids=["c00", "evlin", "fincof", "finite-lattice"])
def test_laws_refuse_a_carrier_without_rational_coordinates(G):
    e = G.zero if isinstance(G, GroupCarrier) else G.bottom
    named = re.escape(f"carrier {G.name!r}")
    with pytest.raises(ValueError, match=named):
        decompose_abs_meet(G, e, e, e)
    with pytest.raises(ValueError, match=named):
        clamp_difference_bound(G, e, e, e, e)


def test_laws_build_no_fraction(monkeypatch):
    calls = []

    def counted(n, d):
        calls.append((n, d))
        return fraction(n, d)

    fraction = exact._fraction
    monkeypatch.setattr(exact, "_fraction", counted)
    monkeypatch.setattr(spaces, "_fraction", counted)
    s, x, y = (F(1, 3), F(-7, 2), F(0), F(5), F(2, 9)), V5.zero, tuple(F(i, 7) for i in range(5))
    a = (F(1, 2), F(3), F(0), F(7, 10), F(11, 6))
    assert decompose_abs_meet(V5, x, y, a) and clamp_difference_bound(V5, s, x, y, a)
    assert calls == []


@pytest.mark.parametrize("G", [V5, LINE], ids=["qvec5", "qline"])
def test_coordinatewise_overrides_match_group_derivations(G):
    rng = random.Random(23)
    for _ in range(200):
        x, y = G.sample(rng), G.sample(rng)
        assert G._sub(x, y) == GroupCarrier._sub(G, x, y)
        assert G._abs(x) == GroupCarrier._abs(G, x)
        assert G.sub(x, y) == G.add(x, G.negate(y))
        assert G.abs_(x) == G.join(x, G.negate(x))
        assert x == G.sub(pos_part(G, x), neg_part(G, x))
        assert G.abs_(x) == G.add(pos_part(G, x), neg_part(G, x))
        if G is LINE:
            assert (G.meet(x, y), G.join(x, y)) == (min(x, y), max(x, y))
        else:
            assert G.meet(x, y) == tuple(map(min, x, y))
            assert G.join(x, y) == tuple(map(max, x, y))


# ---------------------------------------------------------------------------
# One clamp, checked once


def _public_is_truncation_hom(L, p):
    """The homomorphism check on public operations: four truncate_f calls
    per pair (x, y), each checking its pair and point again."""
    for x in L.elements():
        for y in L.elements():
            fx = truncate_f(L, p, x)
            fy = truncate_f(L, p, y)
            if truncate_f(L, p, L.meet(x, y)) != L.meet(fx, fy):
                return CheckResult(False, witness=(x, y, "meet"))
            if truncate_f(L, p, L.join(x, y)) != L.join(fx, fy):
                return CheckResult(False, witness=(x, y, "join"))
    return CheckResult(True)


FINITE = [e.carrier for e in finite_entries(standard_carriers())]


@pytest.mark.parametrize("L", FINITE, ids=[L.name for L in FINITE])
def test_trusted_hom_check_matches_the_public_one(L):
    pairs = canonical_pairs(L)
    assert pairs == [TruncationPair.of(L, a, b) for a in L.elements()
                     for b in L.elements() if L.leq(a, b)]
    results = [is_truncation_hom(L, p) for p in pairs]
    assert results == [_public_is_truncation_hom(L, p) for p in pairs]
    assert all(results) == L.distributive  # n5 and m3 carry witnesses


def _shuffled(L, seed):
    elems = L.elements()
    random.Random(seed).shuffle(elems)
    return FiniteLattice.from_leq(L.name, elems, L.leq)


@pytest.mark.parametrize("L", [diamond_lattice(), pentagon_lattice(), _shuffled(P3, 1),
                               _shuffled(pentagon_lattice(), 2)],
                         ids=["m3", "n5", "powerset3-shuffled", "n5-shuffled"])
def test_hom_check_matches_the_public_one_on_every_pair(L):
    # non-canonical pairs too: their clamps are other maps of the tables
    for a in L.elements():
        for b in L.elements():
            p = TruncationPair(a, b, L.leq(a, b))
            assert is_truncation_hom(L, p) == _public_is_truncation_hom(L, p)


def _recorded_checks(L):
    """The list of points one fresh carrier instance checks from now on."""
    calls = []
    check = L.check_element
    L.check_element = lambda x: calls.append(x) or check(x)
    return calls


def test_truncate_f_checks_its_pair_and_point_once():
    L = powerset_lattice(2)
    p = TruncationPair.of(L, s(), s(1))
    checks = _recorded_checks(L)
    assert truncate_f(L, p, s(1, 2)) == s(1)
    assert len(checks) == 3


def test_composition_checks_each_end_once():
    L = powerset_lattice(3)
    outer = TruncationPair.of(L, s(1), s(1, 2))
    inner = TruncationPair.of(L, s(2), s(2, 3))
    checks = _recorded_checks(L)
    comp = compose_truncations(L, outer, inner)
    assert checks == [s(1), s(1, 2), s(2), s(2, 3)]
    assert (comp.low, comp.high, comp.canonical) == (s(1, 2), s(2), False)
    with pytest.raises(CarrierMismatch):
        compose_truncations(L, outer, TruncationPair(s(2), s(4), True))


def test_hom_check_clamps_no_element(monkeypatch):
    L = powerset_lattice(3)
    p = TruncationPair.of(L, s(1), s(1, 2))
    clamps = []
    real = truncation._clamp
    monkeypatch.setattr(truncation, "_clamp", lambda *args: clamps.append(args) or real(*args))
    checks = _recorded_checks(L)
    assert is_truncation_hom(L, p).holds
    assert checks == [s(1), s(1, 2)]
    assert clamps == []  # the clamp is read from its byte map


@pytest.mark.parametrize("L", [powerset_lattice(2), LINE], ids=["powerset2", "qline"])
def test_foreign_pairs_raise_at_entry(L):
    good = L.bottom if L.is_finite else F(0)
    p = TruncationPair(good, "not-an-element", True)
    d = discrete_semimetric(L)
    with pytest.raises(CarrierMismatch):
        truncate_f(L, p, good)
    with pytest.raises(CarrierMismatch):
        derived_semimetric(d, p)
    with pytest.raises(CarrierMismatch):
        truncate_sequence(constant_sequence(L, good), p)
    if L.is_finite:
        with pytest.raises(CarrierMismatch):
            is_truncation_hom(L, p)


def test_foreign_points_still_raise():
    L = powerset_lattice(2)
    p = TruncationPair.of(L, s(), s(1))
    with pytest.raises(CarrierMismatch):
        truncate_f(L, p, s(3))
    dp = derived_semimetric(discrete_semimetric(L), p)
    with pytest.raises(CarrierMismatch):
        dp(s(), s(3))
    with pytest.raises(CarrierMismatch):
        dp(s(3), s())
    clamped = truncate_sequence(SequenceFamily("atoms", L, lambda k: s(k)), p)
    assert clamped.value(1) == s(1)
    with pytest.raises(CarrierMismatch):
        clamped.value(3)
    tree = OpTree.node(MEET, OpTree.leaf(0), OpTree.leaf(1))
    assert evaluate(L, tree, [s(1), s(1, 2)]) == s(1)
    with pytest.raises(CarrierMismatch):
        evaluate(L, tree, [s(1), s(3)])
    with pytest.raises(CarrierMismatch):
        evaluate(L, OpTree.leaf(0), [s(3)])
