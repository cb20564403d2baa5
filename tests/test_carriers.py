import itertools
import random
from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from reference import (
    check_group_axioms,
    check_lattice_axioms,
    distributivity,
    is_sublattice,
    join_prime_distributivity,
    neg_part,
    pos_part,
)
from ulat.carriers import (
    CarrierMismatch,
    FiniteLattice,
    NotALattice,
    chain_lattice,
    diamond_lattice,
    divisor_lattice,
    load_finite_lattice,
    pentagon_lattice,
    powerset_lattice,
    sublattices,
)
from ulat.semimetrics import load_distance_table
from ulat.spaces import QVec
from ulat.truncation import TruncationPair, _clamp_map


def brute_force_from_leq(elems, leq):
    """The glb/lub search by exhaustive scan, kept as the oracle for
    FiniteLattice.from_leq: (meet, join, bottom, top) as dicts keyed by
    element pairs, or NotALattice with the same diagnostic."""
    if len(set(elems)) != len(elems):
        raise NotALattice("duplicate elements")
    for x in elems:
        if not leq(x, x):
            raise NotALattice(f"order not reflexive at {x!r}")
    for x in elems:
        for y in elems:
            if x != y and leq(x, y) and leq(y, x):
                raise NotALattice(f"order not antisymmetric on {(x, y)!r}", pair=(x, y))
    meet, join = {}, {}
    for x in elems:
        for y in elems:
            lows = [z for z in elems if leq(z, x) and leq(z, y)]
            glb = [m for m in lows if all(leq(z, m) for z in lows)]
            if len(glb) != 1:
                raise NotALattice(f"pair {(x, y)!r} has no greatest lower bound",
                                  pair=(x, y), missing="meet")
            highs = [z for z in elems if leq(x, z) and leq(y, z)]
            lub = [m for m in highs if all(leq(m, z) for z in highs)]
            if len(lub) != 1:
                raise NotALattice(f"pair {(x, y)!r} has no least upper bound",
                                  pair=(x, y), missing="join")
            meet[(x, y)], join[(x, y)] = glb[0], lub[0]
    bottom = top = elems[0]
    for x in elems:
        bottom, top = meet[(bottom, x)], join[(top, x)]
    return meet, join, bottom, top


M3_DOC = (["0", "a", "b", "c", "1"],
          [["0", "a"], ["0", "b"], ["0", "c"], ["a", "1"], ["b", "1"], ["c", "1"]])
N5_DOC = (["0", "a", "c", "b", "1"],
          [["0", "a"], ["a", "c"], ["c", "1"], ["0", "b"], ["b", "1"]])
SQUARE_DOC = (["0", "x", "y", "1"], [["0", "x"], ["0", "y"], ["x", "1"], ["y", "1"]])
CHAIN_DOC = (["0", "1", "2"], [["0", "1"], ["1", "2"]])


def ordinal_sum(blocks):
    """Stack (elements, covers) blocks, gluing each bottom to the top below."""
    elements, covers, below = [], [], None
    for i, (elems, cov) in enumerate(blocks):
        rename = {e: f"{i}:{e}" for e in elems}
        if below is not None:
            rename[elems[0]] = below
        elements += [rename[e] for e in elems if rename[e] != below]
        covers += [[rename[a], rename[b]] for a, b in cov]
        below = rename[elems[-1]]
    return elements, covers


class TestStandardLattices:
    def test_powerset_shape(self):
        L = powerset_lattice(3)
        assert len(L.elements()) == 8
        assert L.bottom == frozenset()
        assert L.top == frozenset({1, 2, 3})
        assert L.meet(frozenset({1, 2}), frozenset({2, 3})) == frozenset({2})
        assert L.join(frozenset({1}), frozenset({3})) == frozenset({1, 3})
        assert L.leq(frozenset({1}), frozenset({1, 2}))

    def test_divisor_lattice_is_gcd_lcm(self):
        L = divisor_lattice(60)
        assert len(L.elements()) == 12
        assert L.bottom == 1 and L.top == 60
        assert L.meet(12, 10) == 2
        assert L.join(4, 6) == 12

    def test_chain(self):
        L = chain_lattice(4)
        assert L.elements() == [0, 1, 2, 3]
        assert L.meet(1, 3) == 1 and L.join(1, 3) == 3

    def test_pentagon_and_diamond_are_not_distributive(self):
        for L in (pentagon_lattice(), diamond_lattice()):
            assert not L.distributive
            assert L.distributivity == distributivity(L)
            assert L.distributivity.witness is not None
        for L in (powerset_lattice(3), divisor_lattice(60), chain_lattice(5)):
            assert L.distributive and distributivity(L).holds

    def test_lattice_axioms_hold_exhaustively_on_small_carriers(self):
        for L in (powerset_lattice(2), pentagon_lattice(), diamond_lattice()):
            assert check_lattice_axioms(L, L.elements()).holds


class TestConstruction:
    def test_from_leq_divisibility(self):
        L = FiniteLattice.from_leq("div6", [1, 2, 3, 6], lambda a, b: b % a == 0)
        assert L.meet(2, 3) == 1 and L.join(2, 3) == 6

    def test_from_leq_rejects_non_lattice(self):
        # two maximal elements: pair {b, c} has no join
        with pytest.raises(NotALattice) as info:
            FiniteLattice.from_leq("vee", ["a", "b", "c"],
                                   lambda x, y: x == y or x == "a")
        assert info.value.pair == ("b", "c")
        assert info.value.missing == "join"

    def test_load_finite_lattice_roundtrip(self):
        doc = {
            "name": "square",
            "elements": ["bot", "x", "y", "top"],
            "covers": [["bot", "x"], ["bot", "y"], ["x", "top"], ["y", "top"]],
        }
        L = load_finite_lattice(doc)
        assert L.name == "square"
        assert L.meet("x", "y") == "bot"
        assert L.join("x", "y") == "top"

    def test_load_finite_lattice_diagnostics(self):
        with pytest.raises(NotALattice):
            load_finite_lattice({"elements": [], "covers": []})
        with pytest.raises(NotALattice):
            load_finite_lattice({"elements": ["a", "b", "c"],
                                 "covers": [["a", "b"], ["a", "c"]]})
        with pytest.raises(NotALattice):
            load_finite_lattice(["not", "an", "object"])

    @pytest.mark.parametrize("doc, error", [
        ({"elements": ["a", None], "covers": []}, "'elements' must be strings"),
        ({"elements": ["a"], "covers": "a"}, "'covers' must be a list of [lo, hi] pairs"),
        ({"elements": ["a", "b", "a"], "covers": []}, "duplicate element name 'a'"),
        ({"elements": ["a", "b"], "covers": [["a", "b"], ["b", "b"]]},
         "cover ['b', 'b'] is reflexive"),
    ], ids=["non-string-element", "covers-not-a-list", "duplicate-element", "reflexive-cover"])
    def test_load_finite_lattice_names_a_malformed_document(self, doc, error):
        with pytest.raises(NotALattice) as info:
            load_finite_lattice(doc)
        assert str(info.value) == error

    @pytest.mark.parametrize("covers, pair", [
        ([["a", "b"], ["b", "a"]], ("b", "a")),
        ([["a", "b"], ["b", "c"], ["c", "a"]], ("c", "a")),
    ])
    def test_load_finite_lattice_refuses_cover_cycles(self, covers, pair):
        with pytest.raises(NotALattice, match="cover cycle through 'a'") as info:
            load_finite_lattice({"elements": ["a", "b", "c"], "covers": covers})
        assert info.value.pair == pair


class TestSublattices:
    def test_every_nonempty_chain_subset_is_a_sublattice(self):
        L = chain_lattice(3)
        found = sorted(sublattices(L))
        assert len(found) == 7  # all nonempty subsets of a 3-chain

    def test_enumeration_matches_direct_closure_scan(self):
        L = diamond_lattice()
        elems = L.elements()
        direct = set()
        for r in range(1, len(elems) + 1):
            for subset in itertools.combinations(elems, r):
                closed = all(
                    L.meet(a, b) in subset and L.join(a, b) in subset
                    for a in subset for b in subset)
                if closed:
                    direct.add(tuple(sorted(subset)))
        yielded = {tuple(sorted(S)) for S in sublattices(L)}
        assert yielded == direct

    def test_enumeration_checks_nothing_and_the_public_test_checks_once(self):
        L = chain_lattice(3)
        calls = []
        check = L.check_element
        L.check_element = lambda x: calls.append(x) or check(x)
        assert len(list(sublattices(L))) == 7
        assert calls == []
        assert is_sublattice(L, [0, 2])
        assert calls == [0, 2]
        with pytest.raises(CarrierMismatch):
            is_sublattice(L, [0, 3])


class TestGroupCarrier:
    def test_qvec_group_axioms(self):
        G = QVec(3)
        rng = random.Random(5)
        xs = [G.sample(rng) for _ in range(12)]
        assert check_group_axioms(G, xs).holds

    def test_abs_and_parts(self):
        G = QVec(2)
        x = (F(3), F(-2))
        assert G.abs_(x) == (F(3), F(2))
        assert pos_part(G, x) == (F(3), F(0))
        assert neg_part(G, x) == (F(0), F(2))
        assert G.sub(pos_part(G, x), neg_part(G, x)) == x


@given(st.lists(st.sampled_from(divisor_lattice(60).elements()),
                min_size=1, max_size=6))
def test_divisor_lattice_axioms_on_sampled_tuples(xs):
    L = divisor_lattice(60)
    assert check_lattice_axioms(L, xs).holds


@given(st.sets(st.integers(min_value=1, max_value=4)),
       st.sets(st.integers(min_value=1, max_value=4)),
       st.sets(st.integers(min_value=1, max_value=4)))
def test_powerset_distributive_identity(a, b, c):
    L = powerset_lattice(4)
    x, y, z = frozenset(a), frozenset(b), frozenset(c)
    assert L.meet(x, L.join(y, z)) == L.join(L.meet(x, y), L.meet(x, z))


@st.composite
def reflexive_relations(draw):
    """(elements, leq) for a reflexive relation on at most 7 elements,
    antisymmetric or not, transitive or not, bounded or not."""
    n = draw(st.integers(min_value=1, max_value=7))
    pairs = draw(st.sets(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1))
                         .filter(lambda p: p[0] != p[1])))
    if draw(st.booleans()):  # antisymmetric: keep the upward pairs only
        pairs = {(i, j) for i, j in pairs if i < j}
    if draw(st.booleans()):
        pairs |= {(0, j) for j in range(1, n)} | {(i, n - 1) for i in range(n - 1)}
    if draw(st.booleans()):  # transitive closure
        grown = True
        while grown:
            more = {(i, k) for i, j in pairs for j2, k in pairs if j == j2 and i != k}
            grown = not more <= pairs
            pairs |= more
    labels = draw(st.permutations([f"e{i}" for i in range(n)]))
    order = {(labels[i], labels[j]) for i, j in pairs}
    elems = draw(st.permutations(labels))
    return elems, lambda x, y: x == y or (x, y) in order


@settings(max_examples=400)
@given(reflexive_relations())
def test_from_leq_agrees_with_the_brute_force_search(relation):
    elems, leq = relation
    try:
        meet, join, bottom, top = brute_force_from_leq(elems, leq)
    except NotALattice as want:
        with pytest.raises(NotALattice) as got:
            FiniteLattice.from_leq("r", elems, leq)
        assert (str(got.value), got.value.pair, got.value.missing) == \
            (str(want), want.pair, want.missing)
        return
    L = FiniteLattice.from_leq("r", elems, leq)
    assert L.elements() == elems
    assert (L.bottom, L.top) == (bottom, top)
    for x in elems:
        for y in elems:
            assert L.meet(x, y) == meet[(x, y)] and L.join(x, y) == join[(x, y)]
            assert L.leq(x, y) == (meet[(x, y)] == x)


def test_from_leq_diagnoses_a_relation_that_is_not_reflexive():
    leq = lambda x, y: x <= y and x != 2  # noqa: E731
    with pytest.raises(NotALattice) as info:
        FiniteLattice.from_leq("r", [0, 1, 2, 3], leq)
    assert str(info.value) == "order not reflexive at 2"


@pytest.mark.parametrize("seed", range(8))
def test_table_distributivity_names_the_generic_witness(seed):
    rng = random.Random(seed)
    blocks = [rng.choice((M3_DOC, N5_DOC, SQUARE_DOC, CHAIN_DOC)) for _ in range(4)]
    blocks.append(rng.choice((M3_DOC, N5_DOC)))
    elements, covers = ordinal_sum(blocks)
    rng.shuffle(elements)
    L = FiniteLattice.from_covers("sum", elements, covers)
    generic = distributivity(L)
    assert not generic.holds
    assert L.distributivity == generic
    assert L.distributive is False


BLOCKS = (M3_DOC, N5_DOC, SQUARE_DOC, CHAIN_DOC)


@st.composite
def small_ordinal_sums(draw):
    """(elements, covers) of an ordinal sum of n5, m3, square and chain
    blocks with at most 9 elements, in shuffled element order."""
    blocks = draw(st.lists(st.sampled_from(BLOCKS), min_size=1, max_size=3)
                  .filter(lambda bs: sum(len(b[0]) - 1 for b in bs) < 9))
    elements, covers = ordinal_sum(blocks)
    return draw(st.permutations(elements)), covers


@settings(max_examples=150)
@given(small_ordinal_sums())
def test_three_distributivity_oracles_agree(lattice):
    L = FiniteLattice.from_covers("sum", *lattice)
    want = distributivity(L)
    assert L.distributivity == want  # the witness too
    assert L.distributive == want.holds == join_prime_distributivity(L)


class _Untouched(list):
    """A list of covers that fails the test when it is read."""

    def __iter__(self):
        pytest.fail("covers read for a lattice above the size limit")


def _chain_doc(n):
    elements = [str(i) for i in range(n)]
    return {"elements": elements,
            "covers": _Untouched([a, b] for a, b in zip(elements, elements[1:]))}


def test_from_leq_refuses_more_than_256_elements_before_any_leq_call():
    def leq(x, y):
        pytest.fail("leq called for a lattice above the size limit")

    with pytest.raises(ValueError, match=r"^a finite lattice has at most 256 elements, got 257$"):
        FiniteLattice.from_leq("wide", range(257), leq)


@pytest.mark.parametrize("n", [257, 100_000])
def test_covers_above_256_elements_are_refused_before_the_closure(n):
    doc = _chain_doc(n)
    for build in (lambda: FiniteLattice.from_covers("wide", doc["elements"], doc["covers"]),
                  lambda: load_finite_lattice(doc)):
        with pytest.raises(ValueError) as info:
            build()
        assert type(info.value) is ValueError  # a size refusal, no NotALattice
        assert str(info.value) == f"a finite lattice has at most 256 elements, got {n}"


def test_a_distance_table_over_257_inline_elements_is_refused():
    with pytest.raises(ValueError, match="at most 256 elements, got 257"):
        load_distance_table({"carrier": _chain_doc(257), "distances": []})


def test_the_largest_lattices_still_build_on_byte_tables():
    chain = load_finite_lattice({"elements": [str(i) for i in range(256)],
                                 "covers": [[str(i), str(i + 1)] for i in range(255)]})
    cube = FiniteLattice.from_leq("2^8", range(256), lambda a, b: a & b == a)
    for L in (chain, cube):
        assert len(L.elements()) == 256 and L.distributive
        assert type(L._meet_table) is type(L._join_table) is bytes
    assert (chain.bottom, chain.top, chain.join("3", "200")) == ("0", "255", "200")
    assert (cube.bottom, cube.top, cube.meet(3, 200), cube.join(3, 200)) == (0, 255, 0, 203)
    clamp = _clamp_map(cube, 1, 7)
    assert type(clamp) is bytes and [clamp[x] for x in (0, 6, 255)] == [1, 7, 7]


def test_a_carrier_shows_its_kind_and_name():
    assert repr(chain_lattice(2)) == "<FiniteLattice 'chain2'>"
    assert repr(QVec(3)) == "<QVec 'qvec3'>"


def test_chain64_and_divisor5040_tables():
    for n in (1, 2, 64):
        L = chain_lattice(n)
        assert (L.bottom, L.top) == (0, n - 1) and L.distributive
    L = divisor_lattice(5040)
    assert len(L.elements()) == 60 and L.distributive
    assert L.meet(48, 180) == 12 and L.join(48, 180) == 720


def test_a_finite_lattice_refuses_foreign_values():
    """An unhashable value is refused like any other foreign value."""
    L = divisor_lattice(60)
    assert L.check_element(12) == 12
    for foreign in (7, "1", [1], {}):
        assert not L.contains(foreign)
        with pytest.raises(CarrierMismatch):
            L.check_element(foreign)
        with pytest.raises(CarrierMismatch):
            L.meet(foreign, 1)
        with pytest.raises(CarrierMismatch):
            TruncationPair.of(L, foreign, 60)


@pytest.mark.parametrize("cover, message", [
    (["0", "1", "1"], "cover ['0', '1', '1'] is not a pair"),
    ("01", "cover '01' is not a pair"),
    (["0", "2"], "cover ['0', '2'] mentions an unknown element"),
])
def test_malformed_covers_are_named(cover, message):
    with pytest.raises(NotALattice) as info:
        load_finite_lattice({"elements": ["0", "1"], "covers": [cover]})
    assert str(info.value) == message
