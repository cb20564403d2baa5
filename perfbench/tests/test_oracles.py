"""Tests of the benchmark's own oracles and output.

    python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import json
import math
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import closed_forms  # noqa: E402
import harness  # noqa: E402
import lattice_docs  # noqa: E402
from oracles import CoverOrder, clamp_gap, composition_law_tuples, eval_term, v2  # noqa: E402

PREFIX = closed_forms.WIDE_SCAN + 100


def brute_clamp_index(term, low, high, value):
    """First index from which the clamp (x_k /\\ high) \\/ low stays at value,
    by a prefix scan; None when the prefix never settles."""
    clamped = [max(min(eval_term(term, k), high), low) for k in range(1, PREFIX + 1)]
    if clamped[-1] != value:
        return None
    k = len(clamped)
    while k > 1 and clamped[k - 2] == value:
        k -= 1
    return k


@pytest.mark.parametrize("seed", [0, 1, 7])
def test_closed_form_answers_match_prefix_scan(seed):
    for doc, expected in closed_forms.generate_docs(seed)[:-2]:
        term = doc["term"]
        xs = [eval_term(term, k) for k in range(1, PREFIX + 1)]
        for dec, want in zip(doc["decisions"], expected):
            if want[0] == "const":
                low, high = Fraction(dec["low"]), Fraction(dec["high"])
                assert brute_clamp_index(term, low, high, want[1]) == want[2], (term, dec)
            elif want[0] == "nobound":
                assert all(a < b for a, b in zip(xs, xs[1:]))
            elif want[0] == "value":
                tail = xs[dec["k0"] - 1:]
                if dec["kind"] == "sup":
                    assert all(x <= want[1] for x in tail)
                    assert want[1] == max(tail) or want[1] - max(tail) < abs(xs[0] - xs[1])
                else:
                    assert all(x >= want[1] for x in tail)
                    assert want[1] == min(tail) or min(tail) - want[1] < abs(xs[0] - xs[1])
            elif want[0] == "undecided":
                diffs = [b - a for a, b in zip(xs, xs[1:])]
                assert any(d > 0 for d in diffs) and any(d < 0 for d in diffs)
            elif dec["kind"] == "uo":
                lo, hi, index, value = want[2]
                assert brute_clamp_index(term, lo, hi, value) == index
                assert value != lo


def test_hsum_terms_evaluate_to_their_collapsed_form():
    """R + S/k from k0 on: one bound is attained at k0, the other is the limit."""
    rng = closed_forms.random.Random(3)
    for depth in (2, 3, 4):
        doc, expected = closed_forms.hsum_doc(rng, depth)
        k0 = doc["decisions"][0]["k0"]
        tail = [eval_term(doc["term"], k) for k in range(k0, 200)]
        sup, inf = expected[0][1], expected[1][1]
        assert max(tail) <= sup and min(tail) >= inf
        assert tail[0] in (sup, inf)
        limit = inf if tail[0] == sup else sup
        assert abs(tail[-1] - limit) <= abs(tail[0] - limit) * k0 / 199


def test_suite_recomputations():
    assert composition_law_tuples() == (32768, None)
    assert clamp_gap(1, 1) == 0
    assert clamp_gap(3, 200) == Fraction(2, 200)
    assert all(clamp_gap(k, n) <= Fraction(k, n) for k in range(1, 8) for n in range(1, 9))


def _doc(lattice):
    elements, covers, bottom, top, distributive = lattice
    return CoverOrder(elements, covers), elements, bottom, top, distributive


def test_glb_lub_on_pentagon_and_diamond():
    n5, *_ = _doc(lattice_docs.pentagon())
    assert n5.meet("a", "b") == "0" and n5.join("a", "b") == "1"
    assert n5.meet("c", "b") == "0" and n5.join("a", "c") == "c"
    assert n5.distributive_fails_at("c", "a", "b")
    m3, *_ = _doc(lattice_docs.diamond())
    for x, y in (("a", "b"), ("b", "c"), ("a", "c")):
        assert m3.meet(x, y) == "0" and m3.join(x, y) == "1"
    assert m3.distributive_fails_at("a", "b", "c")


@pytest.mark.parametrize("n", [60, 72, 210])
def test_glb_lub_on_divisor_lattices(n):
    order, elements, bottom, top, _ = _doc(lattice_docs.divisor_lattice(n))
    for x in elements:
        for y in elements:
            assert order.meet(x, y) == str(math.gcd(int(x), int(y)))
            assert order.join(x, y) == str(math.lcm(int(x), int(y)))
    assert (bottom, top) == ("1", str(n))


def _brute_facts(order, elements):
    """bottom, top and distributivity by exhaustive search."""
    bottom = [b for b in elements if all(order.leq(b, x) for x in elements)]
    top = [t for t in elements if all(order.leq(x, t) for x in elements)]
    distributive = not any(order.distributive_fails_at(x, y, z)
                           for x in elements for y in elements for z in elements)
    return bottom, top, distributive


@pytest.mark.parametrize("seed", [0, 5])
def test_lattice_documents_match_their_construction(seed):
    docs = lattice_docs.generate_documents(seed)
    lattices = [d for d in docs if d[0] == "lattice" and "count" in d[2]]
    sizes = [size for _, size in lattice_docs.LATTICE_SLOTS]
    assert [e["count"] for _, _, e in lattices] == sizes
    for (_, doc, expected), (family, size) in zip(lattices, lattice_docs.LATTICE_SLOTS):
        assert len(doc["elements"]) == size
        if size > 30:
            continue
        order = CoverOrder(doc["elements"], doc["covers"])
        bottom, top, distributive = _brute_facts(order, doc["elements"])
        assert bottom == [expected["bottom"]] and top == [expected["top"]]
        assert distributive == expected["distributive"] == (family != "glued")


def test_valuation_tables_have_v2_plus_one_classes():
    rng = lattice_docs.random.Random(2)
    for n in (48, 60, 120, 162):
        doc, expected = lattice_docs.valuation_table(rng, n)
        assert len(set(expected["values"])) == v2(n) + 1
        rows = {(i, j): Fraction(v) for i, j, v in doc["distances"]}
        vals = expected["values"]
        for (i, j), d in rows.items():
            assert (d == 0) == (vals[i] == vals[j])


def test_speed_probes_are_left_out_of_the_clock():
    speed = harness.Speed()
    speed.start()
    try:
        w0, c0 = time.perf_counter(), harness.clock()
        while time.perf_counter() - w0 < 0.5:
            pass
        wall, work = time.perf_counter() - w0, harness.clock() - c0
    finally:
        speed.stop()
    assert len(speed.probes) >= 3
    assert math.isclose(wall - work, sum(speed.probes), abs_tol=1e-3)
    assert harness.clock() == pytest.approx(time.perf_counter(), abs=1e-3)
    speed.probes = [harness.REFERENCE_PROBE_S, harness.REFERENCE_PROBE_S / 3]
    assert speed.factor() == pytest.approx(2.0)
    assert speed.factor(1) == pytest.approx(3.0)
    assert speed.factor(2) == speed.factor()


@pytest.fixture(scope="module")
def declared():
    return json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


@pytest.mark.parametrize("trace, section", [(0, "end_to_end"), (1, "per_layer")])
def test_output_names_every_declared_metric(declared, trace, section):
    out = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", "closed-forms", "--seed", "3",
         "--seconds", "1", "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=170, check=True)
    result = json.loads(out.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert {m["name"]: m["unit"] for m in declared[section]} == {
        name: m["unit"] for name, m in result["metrics"].items()}
