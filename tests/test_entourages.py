"""Entourage base on the rational line: clauses, composition, controls."""

import itertools
import random
from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import reference
import ulat.entourages as entourages
from ulat.convergence import ustar_nonconvergence_on_line
from ulat.entourages import (
    CLAUSES,
    DIAG,
    HIGH,
    LOW,
    _at_least,
    _clause,
    _grid_point,
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


@given(x=rationals, y=rationals,
       step=st.fractions(min_value=F(-1), max_value=F(1), max_denominator=60))
def test_clause_matches_the_fraction_formula(x, y, step):
    for n in range(1, 51):
        assert entourage_clause(n, x, y) == reference.entourage_clause(n, x, y)
        assert entourage_clause(n, x, x + step) == reference.entourage_clause(n, x, x + step)


@given(x=rationals, y=rationals, scale=st.integers(min_value=1, max_value=7),
       n=st.integers(min_value=1, max_value=50))
def test_clause_reads_unreduced_pairs(x, y, scale, n):
    a, b, c, e = x.numerator, x.denominator, y.numerator, y.denominator
    assert _clause(n, a * scale, b * scale, c, e) == reference.entourage_clause(n, x, y)
    assert _clause(n, a, b, c * scale, e * scale) == reference.entourage_clause(n, x, y)


def _is_pair(pair):
    return (type(pair) is tuple and len(pair) == 2 and all(type(v) is int for v in pair)
            and pair[1] > 0)


def test_draws_give_the_fraction_formulas_values():
    for seed in range(200):
        mine, ref = random.Random(seed), random.Random(seed)
        for n in (1, 2, 3, 7, 59):
            step, high, point = _small_step(mine, n), _at_least(mine, n), _grid_point(mine, n)
            assert all(map(_is_pair, (step, high, point)))
            assert entourages._fraction(*step) == (
                F(ref.randrange(-1, 2), 1) * F(1, n) / ref.randrange(1, 5))
            assert entourages._fraction(*high) == n + F(ref.randrange(0, 40 * n),
                                                         ref.randrange(1, 10))
            assert entourages._fraction(*point) == F(ref.randrange(-n, n + 1),
                                                     ref.randrange(1, 12))
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

    def accept(n, a, b, c, e):
        assert _is_pair((a, b)) and _is_pair((c, e))
        tests.append((n, F(a, b), F(c, e)))
        return DIAG

    monkeypatch.setattr(entourages, "_clause", accept)
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


def test_a_conditioned_pair_outside_its_clause_is_an_invariant_breach(monkeypatch):
    clause = entourages._clause
    monkeypatch.setattr(entourages, "_clause",
                        lambda n, *points: None if n == 6 else clause(n, *points))
    with pytest.raises(RuntimeError) as breach:
        real_entourage_compose_check(3, samples=9, rng=random.Random(0))
    triple = reference.conditioned_triple(random.Random(0), 6, DIAG, DIAG)
    assert all(type(v) is F for v in triple)
    assert str(breach.value) == (
        f"conditioned triple {triple!r} fell outside clauses (diag, diag) of U_6 at n=3")


def _refuse_nth(contains, n, nth):
    """contains, except that its nth test at index n (counted from 0) is
    refused."""
    calls = itertools.count()

    def refusing(k, *points):
        if k == n and next(calls) == nth:
            return None
        return contains(k, *points)
    return refusing


WITNESS_DETAILS = {
    "sampled": "sampled triple escaped U_n",
    "join": "join with common element escaped U_n",
    "meet": "meet with common element escaped U_n",
}


@settings(max_examples=200)
@given(seed=st.integers(min_value=0, max_value=2**64),
       n=st.integers(min_value=1, max_value=64),
       samples=st.integers(min_value=1, max_value=200),
       path=st.sampled_from((None, *WITNESS_DETAILS)),
       at=st.integers(min_value=0, max_value=10**4))
def test_compose_check_matches_the_fraction_reference(seed, n, samples, path, at):
    """The verdict and the generator's end state agree with the Fraction
    reference; refusing the same membership test at index n on both sides
    forces each witness path, whose witness must agree too."""
    triples = 7 * max(1, samples // 9)  # the conditioned loop's tests at index n
    nth = None if path is None else {"sampled": at % triples,
                                     "join": triples + 2 * (at % samples),
                                     "meet": triples + 2 * (at % samples) + 1}[path]
    mine, ref = random.Random(seed), random.Random(seed)
    with pytest.MonkeyPatch.context() as patch:
        if nth is not None:
            patch.setattr(entourages, "_clause", _refuse_nth(entourages._clause, n, nth))
            patch.setattr(reference, "entourage_contains",
                          _refuse_nth(reference.entourage_contains, n, nth))
        got = real_entourage_compose_check(n, samples, mine)
        want = reference.compose_check(n, samples, ref)
    assert (got.status, repr(got.witness), got.detail) == (
        want.status, repr(want.witness), want.detail)
    assert mine.getstate() == ref.getstate()
    assert got.detail == (f"nine-case analysis at n={n}" if path is None
                          else WITNESS_DETAILS[path])


def test_passing_compose_and_spot_checks_build_no_fraction(monkeypatch):
    calls = []
    fraction, rat = entourages._fraction, entourages.rat
    monkeypatch.setattr(entourages, "_fraction", lambda *pair: calls.append(pair) or fraction(*pair))
    monkeypatch.setattr(entourages, "rat", lambda x: calls.append(x) or rat(x))
    for n in (1, 64):
        assert real_entourage_compose_check(n, 157, random.Random(n)).status == "exact"
    assert ustar_nonconvergence_on_line(F(-7, 2)).status == "exact"
    assert calls == []
