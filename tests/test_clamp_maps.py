"""Clamps on finite lattices as index maps: the clamp-family kernels of
``interval_agreement`` and of the closure sets, and the clamp composition
law, against the pair-by-pair bodies kept in ``reference``; the structural
guards that the suites evaluate no clamp per tuple and no derived distance
per pair; and the element checks those tables rely on."""

from fractions import Fraction as F
from itertools import combinations

import pytest
from hypothesis import given
from hypothesis import strategies as st

import ulat.suites as suites
import ulat.truncation as truncation
from reference import (closure_gap, composition_law, interval_agreement as reference_agreement,
                       separates)
from ulat.carriers import (CarrierMismatch, FiniteLattice, diamond_lattice, divisor_lattice,
                           pentagon_lattice)
from ulat.catalog import standard_carriers
from ulat.exact import EXT_INF
from ulat.semimetrics import (LatticeSemimetric, SemimetricFamily, interval_agreement,
                              kernel_partition, table_semimetric, ustar_family)
from ulat.suites import SuiteConfig, _closure_gap, _composition_law, run_suite
from ulat.truncation import TruncationPair, _clamp, _clamp_map, canonical_pairs, compose_truncations

NAMED = (pentagon_lattice(), diamond_lattice())


@st.composite
def finite_lattices(draw):
    """n5, m3, or the sets of a random closure system on {1, 2, 3} (the full
    set and any sets drawn, closed under intersection) ordered by
    inclusion: distributive or not, 1 to 8 elements, listed in any order."""
    if draw(st.integers(0, 3)) == 0:
        L = draw(st.sampled_from(NAMED))
        return FiniteLattice.from_leq(L.name, draw(st.permutations(L.elements())), L._leq)
    ground = frozenset((1, 2, 3))
    sets = {ground} | set(draw(st.lists(st.frozensets(st.sampled_from(sorted(ground))),
                                        max_size=6)))
    while True:
        more = {a & b for a in sets for b in sets} - sets
        if not more:
            break
        sets |= more
    elems = draw(st.permutations(sorted(sets, key=sorted)))
    return FiniteLattice.from_leq("closure", elems, lambda a, b: a <= b)


# zero is drawn often: the kernels are what the tables decide
VALUES = st.sampled_from((F(0), F(0), F(1, 2), F(1), EXT_INF))


def table_family(draw, L, tag):
    """1 or 2 symmetric tables with zero entries, semimetrics or not."""
    n = len(L.elements())
    members = [table_semimetric(f"{tag}{m}", L, {(i, j): draw(VALUES)
                                                 for i in range(n) for j in range(i + 1, n)})
               for m in range(draw(st.integers(1, 2)))]
    return SemimetricFamily.of(tag, *members)


def clamp_family(draw, D, tag):
    """D's clamp family over a nonempty set of canonical pairs, its members
    clamped once more when drawn so (a derived member whose base is
    derived)."""
    pairs = canonical_pairs(D.carrier)
    J = draw(st.lists(st.sampled_from(pairs), min_size=1, max_size=6))
    star = ustar_family(D, J)
    if draw(st.booleans()):
        star = ustar_family(star, draw(st.lists(st.sampled_from(pairs), min_size=1, max_size=2)))
    return SemimetricFamily(tag, star.carrier, star.members)


@st.composite
def agreement_cases(draw):
    """(Du, Dv, p): a table family, a second table family or (two times in
    three) a clamp family of either, and a canonical pair for the interval,
    the whole lattice half of the time."""
    L = draw(finite_lattices())
    Du = table_family(draw, L, "u")
    Dv = table_family(draw, L, "v")
    if draw(st.integers(0, 2)):
        Dv = clamp_family(draw, draw(st.sampled_from((Du, Dv))), "s")
    whole = TruncationPair(L.bottom, L.top, True)
    p = draw(st.one_of(st.just(whole), st.sampled_from(canonical_pairs(L))))
    return Du, Dv, p


@given(agreement_cases())
def test_interval_agreement_matches_the_pair_by_pair_body(case):
    Du, Dv, p = case
    assert interval_agreement(Du, Dv, p) == reference_agreement(Du, Dv, p)
    assert interval_agreement(Dv, Du, p) == reference_agreement(Dv, Du, p)


@given(agreement_cases(), st.data())
def test_closure_sets_match_the_pair_by_pair_body(case, data):
    Du, Dv, _ = case
    L = Du.carrier
    elems = L.elements()
    subsets = data.draw(st.permutations([(e,) for e in elems] + list(combinations(elems, 2))))
    assert _closure_gap(L, Du, Dv, subsets) == closure_gap(L, Du, Dv, subsets)


def unchecked_compose(L, outer, inner):
    """compose_truncations's pair without its distributivity check: on a
    nondistributive lattice the law it describes can fail."""
    low = L._join(outer.low, L._meet(outer.high, inner.low))
    high = L._meet(outer.high, inner.high)
    return TruncationPair(low, high, L._leq(low, high))


@given(finite_lattices())
def test_composition_law_matches_the_pair_by_pair_body(L):
    if L.distributive:
        assert _composition_law(L) == composition_law(L, compose_truncations)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(suites, "compose_truncations", unchecked_compose)
        assert _composition_law(L) == composition_law(L, unchecked_compose)


def test_composition_law_names_a_first_witness_on_the_nondistributive_lattices():
    # listed top first, the law fails first at the top, element index 0
    reversed_named = [FiniteLattice.from_leq(L.name, L.elements()[::-1], L._leq) for L in NAMED]
    for L in NAMED + tuple(reversed_named):
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(suites, "compose_truncations", unchecked_compose)
            total, bad = _composition_law(L)
        assert bad is not None
        assert (total, bad) == composition_law(L, unchecked_compose)


def test_clamp_map_is_the_clamp_on_indices():
    for L in NAMED + (divisor_lattice(60),):
        elems = L.elements()
        for a in elems:
            for b in elems:
                assert [elems[i] for i in _clamp_map(L, a, b)] == [_clamp(L, a, b, x) for x in elems]


# ---------------------------------------------------------------------------
# Structural guards: counted calls, not timings


def _count(monkeypatch, owner, attr, keep=lambda *args: True):
    calls = []
    real = getattr(owner, attr)

    def counted(*args):
        if keep(*args):
            calls.append(args)
        return real(*args)

    monkeypatch.setattr(owner, attr, counted)
    return calls


def test_composition_law_suite_clamps_no_tuple(monkeypatch):
    calls = _count(monkeypatch, truncation, "_clamp")
    calls += _count(monkeypatch, suites, "_clamp")
    result = run_suite("prop-p1", SuiteConfig())
    assert result.status == "pass" and result.counts["cases"] == 8 ** 5
    assert calls == []


def test_closure_suite_evaluates_no_derived_distance(monkeypatch):
    derived = _count(monkeypatch, LatticeSemimetric, "_dist", lambda d, x, y: d.clamp is not None)
    assert run_suite("closure-t4-finite", SuiteConfig()).status == "pass"
    assert derived == []


# ---------------------------------------------------------------------------
# Element checks


def test_separates_compares_distinct_points_only():
    D = standard_carriers()["chain3"].family("discrete")
    assert separates(D, [0, 0])
    assert separates(D, [0, 1, 0])
    assert not separates(standard_carriers()["chain3"].family("zero"), [0, 1, 0])


@pytest.mark.parametrize("name", ["chain3", "divisor60"])
def test_finite_carriers_refuse_hash_equal_non_elements(name):
    entry = standard_carriers()[name]
    L = entry.carrier
    for value in (True, 1.0, F(1)):
        assert not L.contains(value)
        with pytest.raises(CarrierMismatch):
            L.check_element(value)
    assert L.contains(1) and L.check_element(1) == 1
    kernel = kernel_partition(L, entry.family("discrete"))
    assert kernel.blocks[kernel.class_index(1)] == (1,)
    with pytest.raises(CarrierMismatch):
        kernel.class_index(True)
