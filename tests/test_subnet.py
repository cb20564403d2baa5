"""Subnet extraction: enumeration invariants and containment checking."""

from fractions import Fraction as F

import pytest

from ulat.carriers import CarrierMismatch
from ulat.exact import RatAltSeq
from ulat.sequences import (
    O2Witness,
    Window,
    constant_sequence,
    series_sequence,
    window_sequence,
)
from ulat.spaces import FinCofAlgebra, FinCofSet, QLine
from ulat.subnet import SubnetContainmentError, build_subnet
from ulat.truncation import TruncationPair

Q = QLine()
A = FinCofAlgebra()


def line_fixture():
    seq = series_sequence(Q, RatAltSeq.alt() * RatAltSeq.inv_index(), "altharm")
    pair = TruncationPair.of(Q, F(-1), F(1))
    lo = series_sequence(Q, -RatAltSeq.inv_index(), "lo")
    hi = series_sequence(Q, RatAltSeq.inv_index(), "hi")
    return seq, pair, O2Witness.affine(lo, hi, 1)


def test_witness_chains_must_share_the_carrier():
    seq, pair, w = line_fixture()
    foreign = QLine()
    lo = series_sequence(foreign, -RatAltSeq.inv_index(), "lo")
    with pytest.raises(CarrierMismatch):
        build_subnet(seq, [pair], {pair: O2Witness.affine(lo, w.upper, 1)}, 3)


def test_line_subnet_enumeration():
    seq, pair, w = line_fixture()
    net = build_subnet(seq, [pair], {pair: w}, 100)
    assert len(net.steps) == 100
    assert net.phi[:4] == (2, 3, 4, 5)
    assert net.phi[99] == 101
    assert net.strictly_increasing_phi()
    assert net.final_over_prefix()
    assert net.monotone_bounds()
    assert net.sandwich_holds()
    lo0, mid0, hi0 = net.steps[0].bounds[0]
    assert (lo0, mid0, hi0) == (F(-1), F(1, 2), F(1))


def test_fincof_subnet_enumeration():
    atoms = window_sequence(A, Window(sliding=True), "A_k")
    pair = TruncationPair.of(A, FinCofSet.empty(), FinCofSet.universe())
    empty = constant_sequence(A, FinCofSet.empty(), "empty")
    chain = window_sequence(A, Window(sliding=False, within=FinCofSet.universe()), "N_j")
    net = build_subnet(atoms, [pair], {pair: O2Witness.affine(empty, chain, 1)}, 40)
    assert net.phi[:3] == (2, 3, 4)
    assert net.strictly_increasing_phi()
    assert net.monotone_bounds()
    assert net.sandwich_holds()
    assert net.steps[1].bounds[0][2] == FinCofSet.cofinite_complement({1, 2})


def test_lying_eventual_index_is_caught():
    seq, pair, _ = line_fixture()
    lo3 = series_sequence(Q, -RatAltSeq.inv_index().shift(3), "lo3")
    hi3 = series_sequence(Q, RatAltSeq.inv_index().shift(3), "hi3")
    # honest containment in [-1/(j + 3), 1/(j + 3)] needs k >= j + 3; claiming
    # k >= j + 2 puts the step-1 term -1/3 below the lower bound -1/4
    with pytest.raises(SubnetContainmentError) as info:
        build_subnet(seq, [pair], {pair: O2Witness.affine(lo3, hi3, 2)}, 10)
    err = info.value
    assert (err.j, err.k) == (1, 3)
    assert err.pair == pair
    assert "j=1" in str(err) and "k=3" in str(err)

    honest = O2Witness.affine(lo3, hi3, 3)
    net = build_subnet(seq, [pair], {pair: honest}, 12)
    assert net.phi[:5] == (4, 5, 6, 7, 8)
    assert net.strictly_increasing_phi()
    assert net.sandwich_holds()


def test_argument_validation():
    seq, pair, w = line_fixture()
    with pytest.raises(ValueError):
        build_subnet(seq, [], {}, 5)
    with pytest.raises(ValueError):
        build_subnet(seq, [pair], {pair: w}, 0)
