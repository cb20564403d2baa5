import math
import random
import time
from fractions import Fraction as F

import pytest
from hypothesis import given
from hypothesis import strategies as st

from reference import RANDINT_SAMPLERS, randint_fraction
from ulat.carriers import CarrierMismatch
from ulat.exact import EXT_INF
from ulat.spaces import (
    C00Space,
    C00Vec,
    EvLinSeq,
    EvLinSpace,
    FinCofAlgebra,
    FinCofSet,
    QLine,
    QVec,
    _rand_fraction,
)

finite_sets = st.sets(st.integers(min_value=1, max_value=9), max_size=5)
fincof_sets = st.builds(
    lambda atoms, cof: FinCofSet.cofinite_complement(atoms) if cof
    else FinCofSet.finite(atoms),
    finite_sets, st.booleans())


def _has_atom(x: FinCofSet, atom: int) -> bool:
    """Membership read off the representation, independent of the lattice ops."""
    return (atom in x.atoms) != x.cofinite


class TestQLineAndQVec:
    def test_line_ops(self):
        Q = QLine()
        assert Q.meet(F(1, 2), F(1, 3)) == F(1, 3)
        assert Q.join(-1, 4) == 4
        assert Q.abs_(F(-7, 2)) == F(7, 2)
        with pytest.raises(CarrierMismatch):
            Q.check_element("seven")

    def test_vector_lattice_is_coordinatewise(self):
        V = QVec(3)
        x, y = (F(1), F(5), F(-2)), (F(2), F(0), F(-1))
        assert V.meet(x, y) == (F(1), F(0), F(-2))
        assert V.join(x, y) == (F(2), F(5), F(-1))
        assert V.add(x, y) == (F(3), F(5), F(-3))
        assert V.sub(x, y) == (F(-1), F(5), F(-1))
        with pytest.raises(CarrierMismatch):
            V.check_element((F(1), F(2)))  # wrong dimension

    @given(st.lists(st.tuples(st.fractions(max_denominator=12),
                              st.fractions(max_denominator=12)), min_size=3, max_size=3))
    def test_vector_operations_agree_with_fraction_operators(self, pairs):
        V = QVec(3)
        x, y = tuple(a for a, _ in pairs), tuple(b for _, b in pairs)
        assert V.meet(x, y) == tuple(min(a, b) for a, b in pairs)
        assert V.join(x, y) == tuple(max(a, b) for a, b in pairs)
        assert V.add(x, y) == tuple(a + b for a, b in pairs)
        assert V.sub(x, y) == tuple(a - b for a, b in pairs)
        assert V.negate(x) == tuple(-a for a in x)
        assert V.abs_(x) == tuple(abs(a) for a in x)
        assert V.leq(x, y) == all(a <= b for a, b in pairs)
        assert V.norm(x) == sum(abs(a) for a in x)
        assert all(type(c) is F for c in V.add(x, y) + V.abs_(x) + V.negate(x) + (V.norm(x),))

    # zero, small values and numerators and denominators past 2**64
    line_values = st.builds(
        F, st.one_of(st.just(0), st.integers(min_value=-12, max_value=12),
                     st.integers(min_value=-2**80, max_value=2**80)),
        st.one_of(st.integers(min_value=1, max_value=12),
                  st.integers(min_value=1, max_value=2**70)))

    @given(line_values, line_values, st.booleans())
    def test_line_operations_agree_with_fraction_operators(self, x, y, tie):
        Q = QLine()
        if tie:  # an equal value held by another object
            y = F(x.numerator * 3, x.denominator * 3)
        assert Q._meet(x, y) == min(x, y) and Q._meet(x, y) is min(x, y)
        assert Q._join(x, y) == max(x, y) and Q._join(x, y) is max(x, y)
        assert Q._add(x, y) == x + y and Q._sub(x, y) == x - y
        assert Q._negate(x) == -x and Q._abs(x) == abs(x) and Q._norm(x) == abs(x)
        assert Q.meet(x, y) == min(x, y) and Q.abs_(x) == abs(x)
        results = (Q._meet(x, y), Q._join(x, y), Q._add(x, y), Q._sub(x, y), Q._negate(x),
                   Q._abs(x), Q._norm(x))
        assert all(type(r) is F and r.denominator > 0
                   and math.gcd(r.numerator, r.denominator) == 1 for r in results)
        if tie:
            assert Q._meet(x, y) is x and Q._join(x, y) is x and Q._meet(y, x) is y

    def test_samples_are_the_draws_of_randint(self):
        for seed in range(200):
            mine, plain = random.Random(seed), random.Random(seed)
            for _ in range(10):
                q = _rand_fraction(mine)
                assert q == randint_fraction(plain)
                assert type(q) is F and q.denominator > 0
            assert mine.getstate() == plain.getstate()

    @given(st.fractions(max_denominator=30), st.fractions(max_denominator=30),
           st.integers(min_value=1, max_value=9))
    def test_line_order_is_the_fraction_order(self, x, y, k):
        Q = QLine()
        for a, b in ((x, y), (y, x), (x, x), (x, F(x.numerator * k, x.denominator * k))):
            assert Q._leq(a, b) == (a <= b)
            assert Q.leq(a, b) == (a <= b)

    def test_vector_membership_is_the_generator_test(self):
        class Sub(F):
            pass

        V = QVec(3)
        cases = [((F(1), F(5), F(-2)), True), ((F(1), Sub(5), F(-2)), True),
                 ([F(1), F(5), F(-2)], False), ((F(1), F(5)), False),
                 ((F(1), F(5), F(-2), F(0)), False), ((), False),
                 ((1, F(5), F(-2)), False), ((F(1), True, F(-2)), False),
                 ((F(1), F(5), -2.0), False), ((F(1), F(5), "1/2"), False),
                 (F(1), False), (None, False), ("abc", False)]
        for x, member in cases:
            assert V.contains(x) is member
            assert member == (isinstance(x, tuple) and len(x) == V.dim
                              and all(isinstance(c, F) for c in x))

    def test_vector_normalize_keeps_an_element_as_it_is(self):
        V = QVec(3)
        x = (F(1), F(5), F(-2))
        assert V.normalize(x) is x
        assert V.normalize([1, F(5), -2]) == x
        assert V.normalize((1, 5, -2)) == x

    def test_vector_check_scans_an_element_once(self):
        V = QVec(3)
        scans = []
        contains = V.contains
        V.contains = lambda x: scans.append(x) or contains(x)
        x = (F(1), F(5), F(-2))
        assert V.check_element(x) is x
        assert scans == [x]
        assert V.check_element([1, F(5), -2]) == x
        for bad in ((F(1), F(2)), (True, F(5), F(-2)), (1.0, F(5), F(-2)),
                    ("1", F(5), F(-2))):
            with pytest.raises(CarrierMismatch):
                V.check_element(bad)


class TestC00:
    def test_vectors_normalize_support(self):
        v = C00Vec.from_pairs([(3, F(1, 2)), (1, 0), (3, F(1, 2))])
        assert v.entries == ((3, F(1)),)
        assert v.support == (3,)
        assert C00Vec.zero().entries == ()
        assert C00Vec.indicator([4]).max_support() == 4

    def test_lattice_and_group_structure(self):
        C = C00Space()
        e1, e2 = C00Vec.indicator([1]), C00Vec.indicator([2])
        both = C.add(e1, e2)
        assert both.entries == ((1, F(1)), (2, F(1)))
        assert C.meet(e1, e2) == C00Vec.zero()
        assert C.join(e1, e2) == both
        assert C.sub(both, e1) == e2
        neg = C.negate(e1)
        assert C.meet(neg, C00Vec.zero()) == neg

    def test_rejects_bad_support(self):
        for index in (0, -3, True, 1.0, F(1), "1"):
            with pytest.raises(ValueError, match="support indices are integers >= 1"):
                C00Vec.from_pairs([(index, 1)])

    @pytest.mark.parametrize("entries", [
        ((0, F(1)),), ((-3, F(1)),), ((True, F(1)),), ((1, F(0)),), ((2, F(1)), (1, F(1))),
        ((1, F(1)), (1, F(2))), ((1, 1),), ((1, 0.5),), ((1.0, F(1)),), ((1,),), (1, 2), None],
        ids=["index-0", "index-minus-3", "index-true", "stored-zero", "unsorted", "repeated",
             "int-value", "float-value", "float-index", "short-entry", "bare-ints", "none"])
    def test_only_the_stored_form_is_an_element(self, entries):
        C = C00Space()
        assert not C.contains(C00Vec(entries))
        with pytest.raises(CarrierMismatch):
            C.check_element(C00Vec(entries))
        assert C.contains(C00Vec(((1, F(1)), (3, F(-1, 2)))))


class TestFinCof:
    def test_construction_and_complement(self):
        a = FinCofSet.finite({1, 2})
        b = a.complement()
        assert b.cofinite and b.atoms == frozenset({1, 2})
        assert b.complement() == a
        assert FinCofSet.universe() == FinCofSet.empty().complement()

    def test_meet_join_cases(self):
        A = FinCofAlgebra()
        fin = FinCofSet.finite({1, 2, 3})
        cof = FinCofSet.cofinite_complement({3, 4})
        assert A.meet(fin, cof) == FinCofSet.finite({1, 2})
        assert A.join(fin, cof) == FinCofSet.cofinite_complement({4})
        assert A.meet(cof, cof) == cof
        assert A.bottom == FinCofSet.empty()
        assert A.top == FinCofSet.universe()

    def test_membership_and_order(self):
        cof = FinCofSet.cofinite_complement({2})
        assert _has_atom(cof, 1) and not _has_atom(cof, 2)
        A = FinCofAlgebra()
        assert A.leq(FinCofSet.finite({1}), cof)
        assert A.leq(FinCofSet.finite({1}), FinCofSet.universe())

    @given(fincof_sets, fincof_sets, fincof_sets)
    def test_boolean_laws(self, x, y, z):
        A = FinCofAlgebra()
        assert A.meet(x, A.join(y, z)) == A.join(A.meet(x, y), A.meet(x, z))
        assert A.join(x, A.meet(y, z)) == A.meet(A.join(x, y), A.join(x, z))
        assert A.meet(x, x.complement()) == FinCofSet.empty()
        assert A.join(x, x.complement()) == FinCofSet.universe()

    @given(fincof_sets, fincof_sets)
    def test_order_agrees_with_atom_semantics(self, x, y):
        A = FinCofAlgebra()
        probe = set(x.atoms) | set(y.atoms) | {997}
        if A.leq(x, y):
            assert all(_has_atom(y, i) for i in probe if _has_atom(x, i))


fracs = st.builds(F, st.integers(-4, 4), st.integers(1, 3))
prefixes = st.lists(fracs, max_size=5)
laws = st.tuples(fracs, fracs)

# Past every breakpoint: prefixes end by 5, two laws cross by 8 / (1/6) = 48
# and a law meets zero by 4 / (1/3) = 12.
HORIZON = 60


# denominators up to 7, so that the operands' denominators rarely agree
wide_fracs = st.builds(F, st.integers(-9, 9), st.integers(1, 7))
wide_prefixes = st.lists(wide_fracs, max_size=5)
wide_laws = st.tuples(wide_fracs, wide_fracs)


def _dense(prefix, law):
    """A sequence as a plain function of its coordinate."""
    c, d = law
    return lambda i: prefix[i - 1] if i <= len(prefix) else c + d * i


def _tail_meet(lx, ly, lower):
    if lx[1] == ly[1]:
        return min(lx, ly) if lower else max(lx, ly)
    steeper = lx if lx[1] > ly[1] else ly
    flatter = ly if steeper is lx else lx
    return flatter if lower else steeper


def _law(z, i):
    """(c, d) of the line c + d*i through the values of z at i and i + 1."""
    d = z.value(i + 1) - z.value(i)
    return z.value(i) - d * i, d


def _agrees(z, f, law):
    """z equals the sequence f with eventual law ``law``, pointwise and
    structurally."""
    values = [f(i) for i in range(1, HORIZON + 1)]
    return ([z.value(i) for i in range(1, HORIZON + 1)] == values
            and _law(z, HORIZON) == law and z == EvLinSeq.make(values, *law))


class TestEvLin:
    @given(prefixes, laws, prefixes, laws, st.booleans())
    def test_operations_match_a_dense_reference(self, px, lx, py, ly, same_tail):
        if same_tail:
            ly = lx
        E = EvLinSpace()
        x, y = EvLinSeq.make(px, *lx), EvLinSeq.make(py, *ly)
        fx, fy = _dense(px, lx), _dense(py, ly)
        assert _agrees(x, fx, lx) and _agrees(y, fy, ly)
        assert _agrees(E.meet(x, y), lambda i: min(fx(i), fy(i)), _tail_meet(lx, ly, True))
        assert _agrees(E.join(x, y), lambda i: max(fx(i), fy(i)), _tail_meet(lx, ly, False))
        assert _agrees(E.add(x, y), lambda i: fx(i) + fy(i), (lx[0] + ly[0], lx[1] + ly[1]))
        diff = (lx[0] - ly[0], lx[1] - ly[1])
        assert _agrees(E.sub(x, y), lambda i: fx(i) - fy(i), diff)
        up = lx[1] > 0 or (lx[1] == 0 and lx[0] >= 0)
        assert _agrees(E.abs_(x), lambda i: abs(fx(i)), lx if up else (-lx[0], -lx[1]))
        gap = E.norm(E.sub(x, y))
        if diff == (0, 0):
            n = max(len(px), len(py))
            assert gap == sum((abs(fx(i) - fy(i)) for i in range(1, n + 1)), F(0))
        else:
            assert gap == EXT_INF
        pointwise = all(fx(i) == fy(i) for i in range(1, HORIZON + 1)) and lx == ly
        assert (x == y) == pointwise

    @given(wide_prefixes, wide_laws, wide_prefixes, wide_laws, wide_fracs)
    def test_integer_operations_agree_with_fraction_arithmetic(self, px, lx, py, ly, q):
        E = EvLinSpace()
        x, y = EvLinSeq.make(px, *lx), EvLinSeq.make(py, *ly)
        fx, fy = _dense(px, lx), _dense(py, ly)
        cases = [
            (E.meet(x, y), lambda i: min(fx(i), fy(i)), _tail_meet(lx, ly, True)),
            (E.join(x, y), lambda i: max(fx(i), fy(i)), _tail_meet(lx, ly, False)),
            (E.add(x, y), lambda i: fx(i) + fy(i), (lx[0] + ly[0], lx[1] + ly[1])),
            (E.sub(x, y), lambda i: fx(i) - fy(i), (lx[0] - ly[0], lx[1] - ly[1])),
            # x less its eventual law: a finite norm, summed across sign changes
            (E.sub(x, EvLinSeq.affine(*lx)), lambda i: fx(i) - lx[0] - lx[1] * i, (0, 0)),
            (E.negate(x), lambda i: -fx(i), (-lx[0], -lx[1])),
            (E.scale_rat(q, x), lambda i: q * fx(i), (q * lx[0], q * lx[1])),
        ]
        # two laws with different slopes have crossed by this coordinate
        crossing = int(abs((lx[0] - ly[0]) / (lx[1] - ly[1]))) + 1 if lx[1] != ly[1] else 1
        for z, f, law in cases:
            assert z.den > 0 and all(type(v) is int for piece in z.pieces for v in piece)
            assert math.gcd(z.den, *(v for _, c, d in z.pieces for v in (c, d))) == 1
            coords = range(1, max(x.pieces[-1][0], y.pieces[-1][0], z.pieces[-1][0], crossing) + 4)
            assert [z.value(i) for i in coords] == [f(i) for i in coords]
            assert _law(z, coords[-2]) == law
            norm = sum((abs(f(i)) for i in coords), F(0)) if law == (0, 0) else EXT_INF
            assert E.norm(z) == norm

    @given(wide_prefixes, wide_laws, wide_prefixes, wide_laws, wide_fracs,
           st.lists(st.sampled_from(["meet", "join", "add", "sub", "abs", "negate", "scale"]),
                    max_size=6))
    def test_scaled_norm_is_the_norm_times_den(self, px, lx, py, ly, q, ops):
        """On sequences built by chains of the space's operations, and on
        each less its eventual law, ``_scaled_norm`` is None exactly when
        ``_norm`` is +inf, and otherwise an int that ``den`` divides into
        ``_norm`` and into the summed absolute values."""
        E = EvLinSpace()
        z, y = EvLinSeq.make(px, *lx), EvLinSeq.make(py, *ly)
        steps = {"meet": lambda: E.meet(z, y), "join": lambda: E.join(z, y),
                 "add": lambda: E.add(z, y), "sub": lambda: E.sub(z, y),
                 "abs": lambda: E.abs_(z), "negate": lambda: E.negate(z),
                 "scale": lambda: E.scale_rat(q, z)}
        for op in ops:
            z = steps[op]()
        _, c, d = z.pieces[-1]
        for w in (z, E.sub(z, EvLinSeq.affine(F(c, z.den), F(d, z.den)))):
            total = E._scaled_norm(w)
            if w.pieces[-1][1:] != (0, 0):
                assert total is None and E._norm(w) == EXT_INF
                continue
            summed = sum((abs(w.value(i)) for i in range(1, w.pieces[-1][0])), F(0))
            assert type(total) is int and F(total, w.den) == summed == E._norm(w)

    def test_a_large_coefficient_costs_no_more_pieces(self):
        E = EvLinSpace()
        start = time.perf_counter()
        m = E.meet(EvLinSeq.affine(0, 1), EvLinSeq.affine(10**6, 0))
        below, above = E.sub(m, EvLinSeq.affine(0, 1)), E.sub(EvLinSeq.affine(10**6, 0), m)
        assert E.norm(below) == EXT_INF
        assert E.norm(above) == 999_999 * 10**6 // 2
        assert time.perf_counter() - start < 0.05
        assert m.pieces == ((1, F(0), F(1)), (10**6, F(10**6), F(0)))
        assert len(below.pieces) <= 3 and len(above.pieces) <= 3
        assert m.value(999_999) == 999_999 and m.value(10**9) == 10**6

    def test_value_takes_an_integer_coordinate(self):
        x = EvLinSeq.affine(0, 1)
        for bad in (2.0, True, F(3, 2), 0):
            with pytest.raises(ValueError):
                x.value(bad)

    def test_values_and_trimming(self):
        x = EvLinSeq.make((1, 2, 3), 0, 1)  # equals i everywhere
        assert x == EvLinSeq.affine(0, 1)
        assert len(x.pieces) == 1
        assert [x.value(i) for i in (1, 2, 5)] == [1, 2, 5]

    def test_meet_with_constant_clamps_the_slope(self):
        E = EvLinSpace()
        x = EvLinSeq.affine(0, 1)
        m = E.meet(x, EvLinSeq.affine(3, 0))
        assert [m.value(i) for i in (1, 2, 3, 4, 10)] == [1, 2, 3, 3, 3]
        assert m == EvLinSeq.make((1, 2), 3, 0)
        j = E.join(x, EvLinSeq.affine(3, 0))
        assert j.value(2) == 3 and j.value(5) == 5

    def test_norm_and_distance(self):
        E = EvLinSpace()
        assert E.norm(EvLinSeq.affine(0, F(1, 7))) == EXT_INF
        assert E.norm(EvLinSeq.make((1, -2), 0, 0)) == 3
        x = EvLinSeq.make((1, -2), 0, 0)
        assert E.norm(E.sub(x, EvLinSeq.affine(0, 0))) == 3
        assert E.norm(E.scale_rat(F(1, 3), x)) == 1

    def test_group_ops(self):
        E = EvLinSpace()
        x = EvLinSeq.affine(1, 2)
        assert E.add(x, E.negate(x)) == EvLinSeq.affine(0, 0)
        y = E.sub(x, EvLinSeq.affine(0, 2))
        assert y == EvLinSeq.affine(1, 0)


@pytest.mark.parametrize("name", ["qline", "qvec3"])
def test_samples_are_the_draws_of_the_randint_formulas(name):
    carrier, formula = RANDINT_SAMPLERS[name]
    for seed in range(200):
        mine, ref = random.Random(seed), random.Random(seed)
        for _ in range(5):
            assert carrier.sample(mine) == formula(ref)
        assert mine.getstate() == ref.getstate()


def test_samples_stay_in_carrier():
    rng = random.Random(3)
    for carrier in (QLine(), QVec(2)):
        for _ in range(20):
            x = carrier.sample(rng)
            assert carrier.check_element(x) == x
    for carrier in (C00Space(), FinCofAlgebra(), EvLinSpace()):
        assert not hasattr(carrier, "sample")
