"""Entourage base on the rational line: clauses, composition, controls."""

import itertools
import random
from fractions import Fraction as F

import pytest
from hypothesis import given
from hypothesis import strategies as st

import ulat.entourages as entourages
from ulat.entourages import (
    CLAUSES,
    DIAG,
    HIGH,
    LOW,
    _at_least,
    _small_step,
    compose_case_analysis,
    compose_triple_violation,
    entourage_clause,
    real_entourage_compose_check,
    real_entourage_contains,
)

rationals = st.fractions(
    min_value=F(-50), max_value=F(50), max_denominator=12
)


def test_clause_names_and_examples():
    assert entourage_clause(3, F(1, 3), F(2, 3)) == DIAG
    assert entourage_clause(3, 3, 100) == HIGH
    assert entourage_clause(3, -7, -3) == LOW
    assert entourage_clause(3, 0, 1) is None
    # diag wins when several clauses apply
    assert entourage_clause(1, 5, 5) == DIAG


def test_clause_rejects_nonpositive_index():
    with pytest.raises(ValueError):
        entourage_clause(0, 0, 0)
    with pytest.raises(ValueError):
        real_entourage_contains(-1, 0, 0)


def test_clause_takes_an_integer_index():
    for bad in (True, F(3, 2), 2.0):
        with pytest.raises(ValueError):
            entourage_clause(bad, 0, "1/3")


def _clause_by_fractions(n, x, y):
    """The three clauses of U_n on Fraction's operators."""
    if abs(x - y) <= F(1, n):
        return DIAG
    if x >= n and y >= n:
        return HIGH
    if x <= -n and y <= -n:
        return LOW
    return None


@given(x=rationals, y=rationals,
       step=st.fractions(min_value=F(-1), max_value=F(1), max_denominator=60))
def test_clause_matches_the_fraction_formula(x, y, step):
    for n in range(1, 51):
        assert entourage_clause(n, x, y) == _clause_by_fractions(n, x, y)
        assert entourage_clause(n, x, x + step) == _clause_by_fractions(n, x, x + step)


def test_draws_give_the_fraction_formulas_values():
    for seed in range(200):
        mine, ref = random.Random(seed), random.Random(seed)
        for n in (1, 2, 3, 7, 59):
            step, high = _small_step(mine, n), _at_least(mine, n)
            assert step == F(ref.randrange(-1, 2), 1) * F(1, n) / ref.randrange(1, 5)
            assert high == n + F(ref.randrange(0, 40 * n), ref.randrange(1, 10))
            assert type(step) is F and type(high) is F
        assert mine.getstate() == ref.getstate()


def _randrange_triple(rng, n, left, right):
    """The conditioned triple written with the randrange calls it draws as."""
    if {left, right} == {HIGH, LOW}:
        return None

    def step():
        return F(rng.randrange(-1, 2), n * rng.randrange(1, 5))

    def at_least():
        p = rng.randrange(0, 40 * n)
        return n + F(p, rng.randrange(1, 10))

    if HIGH in (left, right):
        y = at_least()
    elif LOW in (left, right):
        y = -at_least()
    else:
        y = F(rng.randrange(-6 * n, 6 * n + 1), rng.randrange(1, 12))
    ends = [y + step() if side == DIAG else (at_least() if side == HIGH else -at_least())
            for side in (left, right)]
    return ends[0], y, ends[1]


def _randrange_compose_memberships(rng, n, samples):
    """The membership tests of the sampled compose check, in order, drawn
    with randrange."""
    tests = []
    for left, right in itertools.product(CLAUSES, repeat=2):
        for _ in range(max(1, samples // 9)):
            triple = _randrange_triple(rng, 2 * n, left, right)
            if triple is None:
                break
            x, y, z = triple
            tests += [(2 * n, x, y), (2 * n, y, z), (n, x, z)]
    for _ in range(samples):
        left = CLAUSES[rng.randrange(3)]
        x, y, _ = _randrange_triple(rng, 2 * n, left, left)
        z = F(rng.randrange(-40 * n, 40 * n + 1), rng.randrange(1, 12))
        tests += [(n, max(x, z), max(y, z)), (n, min(x, z), min(y, z))]
    return tests


def test_compose_check_samples_the_randrange_formulas(monkeypatch):
    tests = []
    monkeypatch.setattr(entourages, "real_entourage_contains",
                        lambda n, x, y: tests.append((n, x, y)) or True)
    for seed in range(200):
        for n in (1, 7):
            mine, ref = random.Random(seed), random.Random(seed)
            tests.clear()
            real_entourage_compose_check(n, samples=18, rng=mine)
            assert tests == _randrange_compose_memberships(ref, n, 18)
            assert mine.getstate() == ref.getstate()


def test_membership_matches_clause():
    assert real_entourage_contains(4, F(1, 8), F(1, 4))
    assert real_entourage_contains(4, 4, 9)
    assert real_entourage_contains(4, -4, -100)
    assert not real_entourage_contains(4, 0, 1)
    assert real_entourage_contains(4, "1/8", "1/4")


def test_membership_is_symmetric_and_reflexive():
    pts = [F(0), F(1, 5), F(7), F(-9), F(13, 3)]
    for x in pts:
        assert real_entourage_contains(5, x, x)
        for y in pts:
            assert real_entourage_contains(5, x, y) == real_entourage_contains(5, y, x)


def test_nine_case_analysis_holds_at_small_and_large_n():
    for n in (1, 2, 3, 64, 10**6):
        cases = compose_case_analysis(n)
        assert len(cases) == 9
        assert {(c.left, c.right) for c in cases} == {
            (a, b) for a in CLAUSES for b in CLAUSES
        }
        assert all(c.holds for c in cases)
        vacuous = {(c.left, c.right) for c in cases if c.conclusion == "vacuous"}
        assert vacuous == {(HIGH, LOW), (LOW, HIGH)}


def test_case_facts_are_exact_comparisons():
    (diag_case,) = [
        c for c in compose_case_analysis(2) if (c.left, c.right) == (DIAG, DIAG)
    ]
    assert diag_case.conclusion == DIAG
    assert diag_case.facts == (("1/(2n) + 1/(2n) <= 1/n", True),)


def test_compose_check_is_exact():
    rng = random.Random(7)
    for n in (1, 2, 64):
        verdict = real_entourage_compose_check(n, samples=90, rng=rng)
        assert verdict.status == "exact"
        assert f"n={n}" in verdict.detail


def test_unhalved_index_admits_a_violation():
    # (0, 1/2) and (1/2, 1) sit in U_2 but (0, 1) does not: composing U_2
    # with itself escapes U_2, so the index really must be halved.
    assert compose_triple_violation(2, 0, F(1, 2), 1)
    assert not compose_triple_violation(2, 0, F(1, 4), F(1, 2))


def test_violation_requires_both_legs_inside():
    assert not compose_triple_violation(2, 0, 10, 1)


@given(
    x=rationals,
    y=rationals,
    z=rationals,
    n=st.integers(min_value=1, max_value=9),
)
def test_halved_composition_never_escapes(x, y, z, n):
    if real_entourage_contains(2 * n, x, y) and real_entourage_contains(2 * n, y, z):
        assert real_entourage_contains(n, x, z)


@given(
    x=rationals,
    y=rationals,
    z=rationals,
    n=st.integers(min_value=1, max_value=9),
)
def test_lattice_ops_with_common_element_stay_inside(x, y, z, n):
    if real_entourage_contains(n, x, y):
        assert real_entourage_contains(n, max(x, z), max(y, z))
        assert real_entourage_contains(n, min(x, z), min(y, z))
