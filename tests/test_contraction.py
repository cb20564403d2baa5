"""The contraction suite ``lemma-l2`` against ``reference.lemma_l2``, which
compares the same distances as ExtValues: the same records and the same
draws on every path, and no ExtValue built by a passing run."""

from fractions import Fraction as F

import pytest
from hypothesis import given
from hypothesis import strategies as st

import reference
import ulat.suites as suites
from ulat.catalog import standard_carriers
from ulat.exact import ExtValue
from ulat.suites import SuiteConfig, _suite_lemma_l2, run_suite

# l1 distance 10**6 or more from every sample: samples have |coordinates| <= 20
FAR = 10**6


def _l1(p, q):
    return sum((abs(a - b) for a, b in zip(p, q)), F(0))


def _shift(p, t):
    """p moved by t along the first coordinate: l1 distance t from p."""
    return (p[0] + t,) + p[1:]


def _far_at(fn, nth):
    """fn, except that its call number nth (from 0) returns a point FAR
    from every sample."""
    calls = []

    def patched(*args):
        calls.append(None)
        return (F(FAR), F(0), F(0)) if len(calls) == nth + 1 else fn(*args)

    return patched


def _tight_evaluate(evaluate):
    """evaluate, called in pairs (xs, ys) as both bodies do, except that the
    ys call returns a point exactly the tree bound away from the xs call's
    value, so each tree's lhs equals its bound."""
    pending = []

    def patched(L, tree, values):
        if not pending:
            pending.append((evaluate(L, tree, values), values))
            return pending[0][0]
        value, xs = pending.pop()
        return _shift(value, sum((_l1(xs[i], values[i]) for i in tree.leaves()), F(0)))

    return patched


def _tight_clamp(clamp):
    """_clamp, called four times a case as both bodies do (the lhs at x and
    y, then the rhs at x and y), except that the lhs pair is FAR apart and
    the rhs pair FAR - 2 d(a, c) - 2 d(b, e) apart, so each lhs equals its
    bound."""
    windows = []  # (low, high) of every call
    firsts = []   # the value of each pair's first call

    def patched(L, low, high, x):
        windows.append((low, high))
        phase = len(windows) % 4
        if phase in (1, 3):
            firsts.append(clamp(L, low, high, x))
            return firsts[-1]
        if phase == 2:
            return _shift(firsts[-1], FAR)
        (a, b), (c, e) = windows[-4], windows[-1]
        return _shift(firsts[-1], FAR - 2 * _l1(a, c) - 2 * _l1(b, e))

    return patched


def _rows(records):
    return [(r.name, r.verdict.status, repr(r.verdict.witness), r.verdict.detail, r.cases)
            for r in records]


@given(seed=st.integers(0, 2**64), horizon=st.integers(1, 400),
       path=st.sampled_from([None, "tree", "window", "tight-tree", "tight-window"]),
       at=st.integers(0, 4 * 40))
def test_lemma_l2_matches_the_extvalue_reference(seed, horizon, path, at):
    """Records and the generator's end state agree with the reference.
    Making call ``at`` of ``evaluate`` or ``_clamp`` return a far point on
    both sides forces each witness path; the tight patches put every lhs
    exactly on its bound, where a lost occurrence count, a lost factor 2 or
    a strict comparison would falsify."""
    cfg = SuiteConfig(seed=seed, horizon=horizon)
    cases = max(1, horizon // 10)
    name, wrap = {None: (None, None),
                  "tree": ("evaluate", lambda fn: _far_at(fn, at % (2 * cases))),
                  "window": ("_clamp", lambda fn: _far_at(fn, at % (4 * cases))),
                  "tight-tree": ("evaluate", _tight_evaluate),
                  "tight-window": ("_clamp", _tight_clamp)}[path]
    rngs = []
    rng_for = SuiteConfig.rng_for
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(SuiteConfig, "rng_for", lambda c, s: rngs.append(rng_for(c, s)) or rngs[-1])
        if name is not None:
            patch.setattr(suites, name, wrap(getattr(suites, name)))
            patch.setattr(reference, name, wrap(getattr(reference, name)))
        got = _suite_lemma_l2(cfg)
        want = reference.lemma_l2(cfg)
    assert _rows(got) == _rows(want)
    assert got == want
    mine, ref = rngs
    assert mine.getstate() == ref.getstate()
    # the far point lands in the lhs on every evaluate call and on the first
    # two of each case's four _clamp calls
    falsified = {None: (False, False), "tree": (True, False),
                 "window": (False, at % (4 * cases) % 4 < 2),
                 "tight-tree": (False, False), "tight-window": (False, False)}[path]
    assert tuple(r.verdict.status == "falsified" for r in got) == falsified


def test_a_passing_run_builds_no_extvalue(monkeypatch):
    standard_carriers()  # the catalog, built once per process
    built = []
    init = ExtValue.__init__
    monkeypatch.setattr(ExtValue, "__init__",
                        lambda self, value: built.append(value) or init(self, value))
    assert run_suite("lemma-l2").status == "pass"
    assert built == []
