import random
from fractions import Fraction as F

import pytest
from hypothesis import given
from hypothesis import strategies as st

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

    def test_vector_normalize_keeps_an_element_as_it_is(self):
        V = QVec(3)
        x = (F(1), F(5), F(-2))
        assert V.normalize(x) is x
        assert V.normalize([1, F(5), -2]) == x
        assert V.normalize((1, 5, -2)) == x


class TestC00:
    def test_vectors_normalize_support(self):
        v = C00Vec.from_pairs([(3, F(1, 2)), (1, 0), (3, F(1, 2))])
        assert v.entries == ((3, F(1)),)
        assert v.support == (3,)
        assert C00Vec.zero().entries == ()
        assert C00Vec.unit(4).max_support() == 4

    def test_lattice_and_group_structure(self):
        C = C00Space()
        e1, e2 = C00Vec.unit(1), C00Vec.unit(2)
        both = C.add(e1, e2)
        assert both.entries == ((1, F(1)), (2, F(1)))
        assert C.meet(e1, e2) == C00Vec.zero()
        assert C.join(e1, e2) == both
        assert C.sub(both, e1) == e2
        neg = C.negate(e1)
        assert C.meet(neg, C00Vec.zero()) == neg

    def test_rejects_bad_support(self):
        with pytest.raises(ValueError):
            C00Vec.from_pairs([(0, 1)])


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


class TestEvLin:
    def test_values_and_trimming(self):
        x = EvLinSeq.make((1, 2, 3), 0, 1)  # equals i everywhere
        assert x == EvLinSeq.affine(0, 1)
        assert x.prefix == ()
        assert [x.value(i) for i in (1, 2, 5)] == [1, 2, 5]

    def test_meet_with_constant_clamps_the_slope(self):
        E = EvLinSpace()
        x = EvLinSeq.affine(0, 1)
        m = E.meet(x, EvLinSeq.affine(3, 0))
        assert m.prefix == (F(1), F(2))
        assert (m.c, m.d) == (F(3), F(0))
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


def test_samples_stay_in_carrier():
    rng = random.Random(3)
    for carrier in (QLine(), QVec(2), C00Space(), FinCofAlgebra(), EvLinSpace()):
        for _ in range(20):
            x = carrier.sample(rng)
            assert carrier.check_element(x) == x
