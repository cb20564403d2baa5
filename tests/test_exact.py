import random
import time
from fractions import Fraction as F

import pytest
from hypothesis import given
from hypothesis import strategies as st

from reference import raw_add, raw_mul, scan_last_negative, scan_nonneg_from
from ulat.exact import EXT_INF, ExtValue, Poly, RatAltSeq, _below, ext, rat

rationals = st.fractions(max_denominator=50)
small_ints = st.integers(min_value=-30, max_value=30)


class TestExtValue:
    def test_construction_and_json(self):
        assert ExtValue(F(3, 4)).to_json() == "3/4"
        assert ExtValue(2).to_json() == "2"
        assert EXT_INF.to_json() == "inf"
        assert EXT_INF == ExtValue(None) != ExtValue(0)
        with pytest.raises(ValueError):
            ExtValue(F(-1, 2))

    def test_order_is_total_with_infinity_on_top(self):
        assert ExtValue(1) < ExtValue(F(3, 2)) < EXT_INF
        assert EXT_INF <= EXT_INF
        assert ExtValue(2) == 2
        assert max(ExtValue(5), EXT_INF) == EXT_INF

    def test_arithmetic(self):
        assert ExtValue(F(1, 3)) + ExtValue(F(1, 6)) == F(1, 2)
        assert ExtValue(1) + EXT_INF == EXT_INF
        assert ExtValue(F(2, 3)) * 3 == 2
        assert EXT_INF * 0 == 0

    @given(rationals.map(abs), rationals.map(abs))
    def test_addition_matches_fractions(self, a, b):
        assert ExtValue(a) + ExtValue(b) == ExtValue(a + b)

    def test_ext_coercion(self):
        assert ext(None) == EXT_INF
        assert ext(F(1, 2)) == ExtValue(F(1, 2))
        assert ext(ExtValue(3)) == 3

    @given(rationals.map(abs))
    def test_is_zero_is_equality_with_zero(self, a):
        assert ExtValue(a).is_zero == (ExtValue(a) == 0) == (a == 0)

    def test_infinity_is_not_zero(self):
        assert not EXT_INF.is_zero and not EXT_INF == 0
        assert ExtValue(0).is_zero and ExtValue(F(0, 7)).is_zero and ExtValue("0/3").is_zero

    def test_hash_agrees_with_equality(self):
        assert len({ExtValue(1), 1, F(1)}) == 1
        assert 1 in {ExtValue(1)} and ExtValue(F(1, 2)) in {F(1, 2)}
        assert len({EXT_INF, ExtValue(None)}) == 1 and EXT_INF == None  # noqa: E711
        assert hash(EXT_INF) == hash(None)

    @given(rationals.map(abs))
    def test_equal_values_hash_alike(self, a):
        assert ExtValue(a) == a and hash(ExtValue(a)) == hash(a)
        if a.denominator == 1:
            assert ExtValue(a) == a.numerator and hash(ExtValue(a)) == hash(a.numerator)

    def test_a_string_is_not_a_value(self):
        assert ExtValue(F(1, 2)) != "1/2" and not ExtValue(F(1, 2)) == "1/2"
        assert ExtValue(1) != "1" and EXT_INF != "inf"
        assert ExtValue(F(1, 2)) == ext("1/2")

    @given(rationals)
    def test_construction_refuses_exactly_the_negatives(self, a):
        if a < 0:
            with pytest.raises(ValueError):
                ExtValue(a)
        else:
            assert ExtValue(a).to_json() == (str(a.numerator) if a.denominator == 1 else str(a))


class TestBelow:
    # n = 1 and the powers of two and their neighbours sit at the edges of
    # the rejection loop; the large n span several 32-bit words
    SIZES = (1, 2, 3, 4, 5, 7, 8, 9, 11, 12, 41, 99, 1024, 1025, 20_001,
             2**32 - 1, 2**32, 2**32 + 1, 2**64 + 3, 10**30)

    def test_below_draws_what_randrange_draws(self):
        for seed in range(200):
            mine, ref = random.Random(seed), random.Random(seed)
            for n in self.SIZES:
                assert _below(mine, n) == ref.randrange(n)
            assert mine.getstate() == ref.getstate()

    def test_a_draw_below_one_consumes_bits(self):
        rng = random.Random(0)
        before = rng.getstate()
        assert _below(rng, 1) == 0
        assert rng.getstate() != before

    def test_an_empty_range_is_refused(self):
        for n in (0, -1, -8):
            with pytest.raises(ValueError):
                _below(random.Random(0), n)


class TestPoly:
    def test_evaluation_and_ring_ops(self):
        p = Poly.of(1, 2)  # 1 + 2k
        q = Poly.of(0, 0, 1)  # k^2
        assert p.eval(3) == 7
        assert (p * q).eval(2) == 5 * 4
        assert (p + q).eval(2) == 9
        assert (p - p).eval(10) == 0

    def test_compose_affine(self):
        p = Poly.of(0, 1)  # k
        assert p.compose_affine(2, 3).eval(5) == 13  # k -> 2k + 3

    def test_nonneg_from_via_root_bound(self):
        p = Poly.of(-100, 1)  # k - 100
        ok, counter = p.nonneg_from(1)
        assert not ok and counter == 1
        assert p.nonneg_from(100) == (True, None)
        assert Poly.of(5).nonneg_from(1) == (True, None)
        assert Poly.of(0).nonneg_from(1) == (True, None)
        assert Poly.of(0).nonneg_from(1, strict=True) == (False, 1)

    @given(small_ints, small_ints, st.integers(min_value=1, max_value=40))
    def test_nonneg_from_agrees_with_sampling(self, a, b, k0):
        p = Poly.of(a, b)
        ok, counter = p.nonneg_from(k0)
        probe = all(p.eval(k) >= 0 for k in range(k0, k0 + 100))
        if ok:
            assert probe
        else:
            assert p.eval(counter) < 0 and counter >= k0


class TestRatAltSeq:
    def test_eval_basic_streams(self):
        alt_harmonic = RatAltSeq.alt() * RatAltSeq.inv_index()
        assert [alt_harmonic.eval(k) for k in (1, 2, 3, 4)] == [
            F(-1), F(1, 2), F(-1, 3), F(1, 4)]
        assert RatAltSeq.index().eval(7) == 7
        assert RatAltSeq.const(F(2, 5)).eval(99) == F(2, 5)

    def test_a_rational_minus_a_sequence(self):
        x = 1 - RatAltSeq.inv_index()
        assert x == RatAltSeq.const(1) - RatAltSeq.inv_index()
        assert [x.eval(k) for k in (1, 2, 4)] == [0, F(1, 2), F(3, 4)]

    def test_eval_takes_an_integer_index(self):
        for bad in (True, 2.0, F(3, 2), 0):
            with pytest.raises(ValueError):
                RatAltSeq.index().eval(bad)

    def test_ring_operations(self):
        x = RatAltSeq.inv_index() + RatAltSeq.const(1)
        assert x.eval(4) == F(5, 4)
        y = RatAltSeq.alt() * RatAltSeq.alt()
        assert y.eval(3) == 1 and y.eval(8) == 1
        z = RatAltSeq.index() - RatAltSeq.index()
        assert z.nonneg_from(1) == (True, None)
        assert (-z).nonneg_from(1) == (True, None)

    def test_shift_rejects_negative_offsets(self):
        with pytest.raises(ValueError):
            RatAltSeq.inv_index().shift(-1)
        shifted = RatAltSeq.inv_index().shift(2)
        assert shifted.eval(1) == F(1, 3)

    def test_nonneg_from_parity_split(self):
        x = RatAltSeq.alt() * RatAltSeq.inv_index() + RatAltSeq.inv_index()
        # (-1)^k/k + 1/k: zero at odd k, 2/k at even k
        assert x.nonneg_from(1) == (True, None)
        bad = RatAltSeq.alt()  # -1 at odd k
        ok, counter = bad.nonneg_from(1)
        assert not ok and counter == 1

    def test_monotonicity(self):
        assert RatAltSeq.inv_index().nonincreasing_from(1) == (True, None)
        assert RatAltSeq.index().nondecreasing_from(1) == (True, None)
        alt = RatAltSeq.alt()
        ok, counter = alt.nondecreasing_from(1)
        assert not ok and counter is not None

    def test_limits(self):
        assert RatAltSeq.inv_index().limit() == 0
        assert (RatAltSeq.const(3) + RatAltSeq.inv_index()).limit() == 3
        assert RatAltSeq.index().limit() == "+inf"
        assert (RatAltSeq.index() * -1).limit() == "-inf"
        assert (RatAltSeq.alt() * RatAltSeq.inv_index()).limit() == 0
        assert RatAltSeq.alt().limit() is None

    def test_eventually_geq_returns_minimal_index(self):
        x = RatAltSeq.index()  # k
        assert x.eventually_geq(5) == 5
        assert x.eventually_leq(5) is None
        y = RatAltSeq.inv_index()
        assert y.eventually_leq(F(1, 10)) == 10
        assert y.eventually_geq(F(1, 10)) is None

    @given(small_ints, st.integers(min_value=1, max_value=20),
           st.integers(min_value=0, max_value=5))
    def test_shift_matches_pointwise(self, num, den, h):
        x = RatAltSeq.inv_index() * F(num, den) + RatAltSeq.alt()
        shifted = x.shift(h)
        for k in range(1, 20):
            assert shifted.eval(k) == x.eval(k + h)

    def test_the_eventual_index_of_a_long_walk(self):
        assert RatAltSeq.index().eventually_geq(10**12) == 10**12

    def test_a_sum_cancels_its_common_factors(self):
        x = RatAltSeq.inv_index()
        s = x + x * x + x * x * x
        assert s == RatAltSeq(Poly.of(1, 1, 1), Poly(()), Poly.of(0, 0, 0, 1))
        assert (RatAltSeq.const(1) + x) - x == RatAltSeq.const(1)

    def test_a_reduction_that_breaks_the_denominator_is_not_made(self):
        # (2k - 3) k / (2k - 3)^2 would reduce to k / (2k - 3), -1 at k = 1
        y = RatAltSeq(Poly.of(0, -3, 2), Poly(()), Poly.of(9, -12, 4))
        assert y + 0 == y * 1 == y
        assert [(y + 0).eval(k) for k in (1, 2, 3)] == [-1, 2, 1]


def _timed(decide):
    start = time.perf_counter()
    answer = decide()
    return answer, time.perf_counter() - start


class TestGrowth:
    """The sign decisions cost the number of roots and the bits of the
    coefficients, not the size of the root bound."""

    def test_a_wide_root_bound_is_decided_at_once(self):
        p = Poly.of(10**6, 0, 1)
        for decide, want in ((lambda: p.nonneg_from(0), (True, None)),
                             (lambda: p.last_negative(0), None)):
            answer, seconds = _timed(decide)
            assert answer == want and seconds < 0.05

    def test_roots_at_plus_and_minus_a_million(self):
        p = Poly.of(-10**12, 0, 1)
        assert p.nonneg_from(0) == (False, 0)
        assert p.nonneg_from(10**6) == (True, None)
        assert p.nonneg_from(-10**6) == (False, -999999)
        assert p.nonneg_from(-10**6, strict=True) == (False, -10**6)
        assert p.nonneg_from(10**6, strict=True) == (False, 10**6)
        assert p.nonneg_from(10**6 + 1, strict=True) == (True, None)
        assert p.last_negative(0) == 999999
        assert p.last_negative(10**6) is None


def _both(reduced, raw):
    """A ring operation on (reduced, unreduced) pairs of one closed form."""
    return lambda xy: (reduced(xy[0][0], xy[1][0]), raw(xy[0][1], xy[1][1]))


# closed forms built by the ring operations from the four basic sequences,
# each with the same form built by the unreduced operations
closed_form_pairs = st.recursive(
    st.one_of(st.integers(min_value=-3, max_value=3).map(RatAltSeq.const),
              st.sampled_from([RatAltSeq.index(), RatAltSeq.inv_index(), RatAltSeq.alt()])
              ).map(lambda x: (x, x)),
    lambda inner: st.one_of(
        st.tuples(inner, inner).map(_both(lambda x, y: x + y, raw_add)),
        st.tuples(inner, inner).map(_both(lambda x, y: x - y, lambda x, y: raw_add(x, -y))),
        st.tuples(inner, inner).map(_both(lambda x, y: x * y, raw_mul)),
        st.tuples(inner, st.integers(min_value=0, max_value=3)).map(
            lambda xh: (xh[0][0].shift(xh[1]), xh[0][1].shift(xh[1])))),
    max_leaves=5)
closed_forms = closed_form_pairs.map(lambda pair: pair[0])
TAIL = 200


class TestClosedFormDecisions:
    @given(closed_forms, st.integers(min_value=0, max_value=6))
    def test_nonneg_witness_is_the_first_failing_index(self, x, k0):
        ok, w = x.nonneg_from(k0)
        start = max(k0, 1)
        if ok:
            assert w is None
            assert all(x.eval(k) >= 0 for k in range(start, start + TAIL))
        else:
            assert w >= start and x.eval(w) < 0
            assert all(x.eval(k) >= 0 for k in range(start, w))

    @given(closed_forms)
    def test_eval_agrees_with_the_fraction_formula(self, x):
        for k in range(1, 41):
            alt = x.anum.eval(k) if k % 2 == 0 else -x.anum.eval(k)
            v = x.eval(k)
            assert type(v) is F and v == (x.num.eval(k) + alt) / x.den.eval(k)

    @given(closed_forms, st.integers(min_value=1, max_value=20))
    def test_eventual_index_is_one_past_the_last_failure(self, x, m):
        c = x.eval(m)  # a level the sequence reaches, so that crossings are common
        for n, right_side in ((x.eventually_geq(c), lambda v: v >= c),
                              (x.eventually_leq(c), lambda v: v <= c)):
            if n is None:
                continue
            assert n >= 1
            if n > 1:
                assert not right_side(x.eval(n - 1))
            assert all(right_side(x.eval(k)) for k in range(n, n + TAIL))


class TestAgainstTheScans:
    """The root isolation against the scans up to the root bound, and the
    reduced ring operations against the unreduced ones."""

    polys = st.lists(st.fractions(min_value=-20, max_value=20, max_denominator=6),
                     max_size=7).map(lambda cs: Poly.of(*cs))
    starts = st.integers(min_value=-12, max_value=12)
    # (t0, p): p a product of up to five linear factors with integer roots
    # near t0, so roots repeat and fall on t0 - 1, t0 and t0 + 1; roots of
    # magnitude up to 6 keep the oracles' scans under 10**4 steps
    products = st.tuples(
        st.integers(min_value=-3, max_value=3), st.lists(st.integers(min_value=-3, max_value=3), max_size=5),
        st.sampled_from([1, -1, 2, F(-1, 3)])).map(
        lambda t: (t[0], Poly.of(t[2]) * _product(Poly.of(-t[0] - o, 1) for o in t[1])))

    @given(polys, starts)
    def test_random_polynomials(self, p, t0):
        self._agree(p, t0)

    @given(products)
    def test_products_of_linear_factors(self, t0_p):
        self._agree(t0_p[1], t0_p[0])

    @staticmethod
    def _agree(p, t0):
        for strict in (False, True):
            assert p.nonneg_from(t0, strict) == scan_nonneg_from(p, t0, strict)
        up = -p if p.lead < 0 else p
        assert up.last_negative(t0) == scan_last_negative(up, t0)

    @given(closed_form_pairs, st.integers(min_value=0, max_value=6),
           st.integers(min_value=1, max_value=20))
    def test_reduced_and_unreduced_closed_forms_decide_alike(self, pair, k0, m):
        x, raw = pair
        assert x.den.degree <= raw.den.degree
        assert all(x.eval(k) == raw.eval(k) for k in range(1, TAIL + 1))
        assert x.nonneg_from(k0) == raw.nonneg_from(k0)
        c = x.eval(m)
        assert x.eventually_geq(c) == raw.eventually_geq(c)
        assert x.eventually_leq(c) == raw.eventually_leq(c)
        assert x.limit() == raw.limit()


def _product(factors):
    acc = Poly.of(1)
    for f in factors:
        acc = acc * f
    return acc


def test_rat_parses_strings_and_ints():
    assert rat("3/4") == F(3, 4)
    assert rat(5) == 5
    assert rat(F(1, 3)) == F(1, 3)


@pytest.mark.parametrize("text", ["1e10000000", "1E-10000000", "2.5e+3"])
def test_rat_refuses_an_exponent_at_once(text):
    start = time.perf_counter()
    with pytest.raises(ValueError, match="has an exponent"):
        rat(text)
    assert time.perf_counter() - start < 0.1


def test_rat_keeps_decimals_and_the_fraction_diagnostics():
    assert rat("0.25") == F(1, 4)
    assert rat(" -7 ") == -7
    with pytest.raises(ValueError, match="Invalid literal for Fraction: 'one'"):
        rat("one")
