"""Verdict grading, operator trees, and the carrier catalog."""

import random

import pytest

from ulat.carriers import powerset_lattice
from ulat.catalog import finite_entries, standard_carriers
from ulat.optrees import JOIN, MEET, OpTree, evaluate, random_tree
from ulat.verdicts import Verdict


# ---------------------------------------------------------------------------
# verdicts


def test_verdict_vocabulary_is_closed():
    with pytest.raises(ValueError):
        Verdict("unsure")
    with pytest.raises(ValueError):
        Verdict("falsified")  # no witness


def test_verdict_ok_covers_both_positive_grades():
    assert Verdict.exact().ok
    assert Verdict.at_horizon(100).ok
    assert not Verdict.falsified(witness=3).ok
    assert not Verdict.inconclusive().ok
    assert Verdict.at_horizon(100).horizon == 100


@pytest.mark.parametrize("horizon", [0, -5, True, 2.0, None])
def test_a_verdict_horizon_is_an_integer_of_at_least_one(horizon):
    with pytest.raises(ValueError, match="a horizon must be an integer >= 1"):
        Verdict.at_horizon(horizon)
    if horizon is not None:
        with pytest.raises(ValueError, match="a horizon must be an integer >= 1"):
            Verdict("falsified", witness=1, horizon=horizon)
    # only a verified-at-horizon verdict is built with a horizon
    assert Verdict.falsified(witness=1).horizon is None
    with pytest.raises(TypeError):
        Verdict.falsified(witness=1, horizon=1)


def test_weakest_keeps_the_losing_witness():
    picked = Verdict.weakest([
        Verdict.exact(detail="fine"),
        Verdict.falsified(witness=("bad", 1), detail="broke"),
        Verdict.at_horizon(10),
    ])
    assert picked.status == "falsified"
    assert picked.witness == ("bad", 1)
    assert Verdict.weakest([]).status == "inconclusive"
    first = Verdict.weakest([Verdict.exact(detail="a"), Verdict.exact(detail="b")])
    assert first.detail == "a"


# ---------------------------------------------------------------------------
# operator trees


def _depth(tree: OpTree) -> int:
    if tree.op is None:
        return 0
    return 1 + max(_depth(tree.left), _depth(tree.right))


def test_tree_construction_and_shape():
    t = OpTree.node(MEET, OpTree.leaf(0), OpTree.node(JOIN, OpTree.leaf(1), OpTree.leaf(0)))
    assert t.leaves() == [0, 1, 0]
    assert _depth(t) == 2
    assert _depth(OpTree.leaf(2)) == 0
    with pytest.raises(ValueError):
        OpTree.node("xor", OpTree.leaf(0), OpTree.leaf(1))


def test_tree_evaluation_matches_hand_computation():
    L = powerset_lattice(2)
    a, b = frozenset({1}), frozenset({2})
    t = OpTree.node(JOIN, OpTree.leaf(0), OpTree.node(MEET, OpTree.leaf(1), OpTree.leaf(0)))
    # a join (b meet a) = a by absorption
    assert evaluate(L, t, (a, b)) == a


def test_tree_evaluation_checks_each_value_once(monkeypatch):
    L = powerset_lattice(2)
    a, b = frozenset({1}), frozenset({2})
    calls = []
    check = type(L).check_element
    monkeypatch.setattr(type(L), "check_element", lambda self, x: calls.append(x) or check(self, x))
    # the leaf 0 occurs twice, and is checked once
    t = OpTree.node(MEET, OpTree.leaf(0), OpTree.node(JOIN, OpTree.leaf(1), OpTree.leaf(0)))
    assert evaluate(L, t, (a, b)) == a
    assert calls == [a, b]


def _randrange_tree(rng, n_vars, max_depth):
    """random_tree written with the randrange call it draws its leaves as."""
    if max_depth <= 0 or rng.random() < 0.25:
        return OpTree.leaf(rng.randrange(n_vars))
    op = MEET if rng.random() < 0.5 else JOIN
    return OpTree.node(op, _randrange_tree(rng, n_vars, max_depth - 1),
                       _randrange_tree(rng, n_vars, max_depth - 1))


def test_random_trees_are_the_draws_of_randrange():
    for seed in range(200):
        mine, ref = random.Random(seed), random.Random(seed)
        for n_vars in (1, 3, 5):
            assert random_tree(mine, n_vars, 5) == _randrange_tree(ref, n_vars, 5)
        assert mine.getstate() == ref.getstate()


def test_random_trees_are_seeded_and_bounded():
    first = [random_tree(random.Random(3), n_vars=3, max_depth=4) for _ in range(20)]
    second = [random_tree(random.Random(3), n_vars=3, max_depth=4) for _ in range(20)]
    assert first == second
    for t in first:
        assert _depth(t) <= 4
        assert all(0 <= v < 3 for v in t.leaves())


# ---------------------------------------------------------------------------
# catalog


def test_catalog_contents():
    catalog = standard_carriers()
    assert len(catalog) == 18
    assert set(catalog) == {
        "powerset1", "powerset2", "powerset3", "powerset4", "divisor60",
        "chain2", "chain3", "chain4", "chain5", "n5", "m3", "fincof",
        "qline", "qvec2", "qvec3", "qvec5", "c00", "evlinseq",
    }
    for entry in catalog.values():
        assert entry.families, f"{entry.name} has no families"
        for family in entry.families.values():
            assert family.carrier is entry.carrier


def test_catalog_family_lookup():
    catalog = standard_carriers()
    assert catalog["qline"].family("abs").name == "abs"
    assert set(catalog["fincof"].families) == {"symdiff", "discrete"}
    with pytest.raises(KeyError):
        catalog["qline"].family("l1")


def test_chain4_carries_the_collapse_family():
    catalog = standard_carriers()
    collapse = catalog["chain4"].family("collapse")
    member = collapse.members[0]
    assert member(1, 2) == 0
    assert member(0, 1) == 1
    assert "collapse" not in catalog["chain5"].families


def test_finite_entries_filter():
    catalog = standard_carriers()
    finite = {e.name for e in finite_entries(catalog)}
    assert finite == {"powerset1", "powerset2", "powerset3", "powerset4",
                      "divisor60", "chain2", "chain3", "chain4", "chain5",
                      "n5", "m3"}
