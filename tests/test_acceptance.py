"""Acceptance gate: eleven headline claims, one pass/fail line each, and
the golden report.

Every criterion runs the corresponding named suite at the default
configuration and checks suite status, the decisive per-record verdicts,
the advertised case counts, and the stated runtime budgets.  All numeric
claims are exact (rational arithmetic); there are no tolerances.  The
canonical report of all twelve suites must match the reference report in
``perfbench/reference_report.json`` byte for byte.
"""

import json
from pathlib import Path

from ulat.suites import SuiteConfig, render_json, run_suite, suite_names
from ulat.verdicts import EXACT, FALSIFIED

REFERENCE = Path(__file__).resolve().parents[1] / "perfbench" / "reference_report.json"

_RESULTS = {}


def suite(name):
    if name not in _RESULTS:
        _RESULTS[name] = run_suite(name, SuiteConfig())
    return _RESULTS[name]


def records(result):
    return {rec.name: rec for rec in result.records}


def conclude(num, label, failures):
    ok = not failures
    print(f"criterion {num:2d}: {'PASS' if ok else 'FAIL'} - {label}", flush=True)
    assert ok, f"criterion {num} ({label}): " + "; ".join(failures)


def check(failures, condition, message):
    if not condition:
        failures.append(message)


def test_criterion_01_abs_meet_identity():
    label = "clamp split of |x-y| and a, 10^4 random 5-vector cases, < 5 s"
    failures = []
    res = suite("lemma-l5")
    recs = records(res)
    check(failures, res.status == "pass", f"suite status {res.status}")
    check(failures, recs["abs-meet-split"].met, "identity record unmet")
    check(failures, recs["abs-meet-split"].cases == 10_000,
          f"{recs['abs-meet-split'].cases} identity cases")
    check(failures, recs["base-point-bound"].met, "base-point bound unmet")
    check(failures, recs["base-point-bound"].cases == 10_000,
          f"{recs['base-point-bound'].cases} bound cases")
    check(failures, res.elapsed < 5.0, f"took {res.elapsed:.2f}s")
    conclude(1, label, failures)


def test_criterion_02_composition_law():
    label = "clamp composition law, exhaustive 8^5 tuples on powerset(3), < 5 s"
    failures = []
    res = suite("prop-p1")
    recs = records(res)
    check(failures, res.status == "pass", f"suite status {res.status}")
    check(failures, recs["composition-law"].verdict.status == EXACT,
          "composition record not exact")
    check(failures, recs["composition-law"].cases == 8 ** 5,
          f"{recs['composition-law'].cases} tuples")
    check(failures, res.elapsed < 5.0, f"took {res.elapsed:.2f}s")
    conclude(2, label, failures)


def test_criterion_03_homomorphism_dichotomy():
    label = "clamps are homs exactly on distributive carriers, with witnesses"
    failures = []
    res = suite("prop-d")
    recs = records(res)
    check(failures, res.status == "pass", f"suite status {res.status}")
    for name in ("hom-powerset3", "hom-divisor60", "hom-chain2", "hom-chain3",
                 "hom-chain4", "hom-chain5"):
        check(failures, recs[name].verdict.status == EXACT, f"{name} not exact")
    for name in ("hom-gap-n5", "hom-gap-m3"):
        check(failures, recs[name].verdict.status == FALSIFIED,
              f"{name} found no violation")
        check(failures, recs[name].verdict.witness is not None,
              f"{name} carries no witness")
    conclude(3, label, failures)


def test_criterion_04_contraction_bounds():
    label = "semimetric contraction bounds on 10^3 random operator trees"
    failures = []
    res = suite("lemma-l2")
    recs = records(res)
    check(failures, res.status == "pass", f"suite status {res.status}")
    check(failures, recs["tree-contraction"].met, "tree bound unmet")
    check(failures, recs["tree-contraction"].cases == 1_000,
          f"{recs['tree-contraction'].cases} trees")
    check(failures, recs["window-perturbation"].met, "window bound unmet")
    check(failures, recs["window-perturbation"].cases == 1_000,
          f"{recs['window-perturbation'].cases} perturbations")
    conclude(4, label, failures)


def test_criterion_05_line_entourage_example():
    label = "halved composition, clamp-Cauchy walk, escape from every target"
    failures = []
    res = suite("ex-r")
    recs = records(res)
    check(failures, res.status == "pass", f"suite status {res.status}")
    check(failures, recs["compose-chain"].verdict.status == EXACT,
          "composition chain not exact")
    check(failures, recs["compose-chain"].cases >= 10_000,
          f"only {recs['compose-chain'].cases} sampled triples")
    check(failures, recs["unhalved-control"].verdict.status == FALSIFIED,
          "unhalved control failed to fail")
    check(failures, recs["clamp-cauchy"].verdict.status == EXACT,
          "walk not exactly Cauchy for the clamp family")
    check(failures, recs["plain-cauchy-control"].verdict.status == FALSIFIED,
          "walk not falsified for the plain distance")
    check(failures, recs["escape-every-neighborhood"].verdict.status == EXACT,
          "escape argument not exact")
    check(failures, recs["escape-every-neighborhood"].cases == 103,
          f"{recs['escape-every-neighborhood'].cases} escape targets")
    conclude(5, label, failures)


def test_criterion_06_two_norm_separation():
    label = "clamped distances vanish while capped-norm stays infinite, < 10 s"
    failures = []
    res = suite("ex")
    recs = records(res)
    check(failures, res.status == "pass", f"suite status {res.status}")
    check(failures, recs["clamped-vanishing"].verdict.status == EXACT,
          "clamped record not exact")
    check(failures, recs["clamped-vanishing"].cases == 50 * 200,
          f"{recs['clamped-vanishing'].cases} grid points")
    check(failures, recs["unclamped-gap"].verdict.status == FALSIFIED,
          "unclamped control failed to fail")
    check(failures, res.witness == ["norm", "inf"],
          f"unexpected witness {res.witness!r}")
    check(failures, res.elapsed < 10.0, f"took {res.elapsed:.2f}s")
    conclude(6, label, failures)


def test_criterion_07_interval_vs_sandwich_separation():
    label = "atom stream accepted by interval data, rejected by constancy"
    failures = []
    res = suite("o1o2")
    recs = records(res)
    check(failures, res.status == "pass", f"suite status {res.status}")
    check(failures, recs["atoms-intervals"].verdict.status == EXACT,
          "interval acceptance not exact")
    check(failures, recs["atoms-no-constancy"].verdict.status == FALSIFIED,
          "constancy rejection missing")
    check(failures, recs["atoms-no-constancy"].verdict.witness == (1, 2),
          "constancy witness changed")
    conclude(7, label, failures)


def test_criterion_08_constructive_subnets():
    label = "100-step subnet enumerations with every invariant exact"
    failures = []
    res = suite("subnet-t3")
    recs = records(res)
    check(failures, res.status == "pass", f"suite status {res.status}")
    for name in ("line-subnet", "atoms-subnet"):
        check(failures, recs[name].verdict.status == EXACT, f"{name} not exact")
        check(failures, recs[name].cases == 100, f"{name} ran {recs[name].cases} steps")
    conclude(8, label, failures)


def test_criterion_09_kernels_quotients_recovery():
    label = "kernel congruences, Hausdorff quotients, recovery criterion agreement"
    failures = []
    for name in ("prop-q", "prop-ph"):
        res = suite(name)
        check(failures, res.status == "pass", f"{name} status {res.status}")
        for rec in res.records:
            check(failures, rec.verdict.status == EXACT,
                  f"{name}/{rec.name} not exact")
    conclude(9, label, failures)


def test_criterion_10_bounded_collapse():
    label = "full-interval clamp family matches the base family on bounded carriers"
    failures = []
    res = suite("closure-t4-finite")
    recs = records(res)
    check(failures, res.status == "pass", f"suite status {res.status}")
    check(failures, recs["interval-collapse"].verdict.status == EXACT,
          "interval agreement not exact")
    check(failures, recs["closure-sets"].verdict.status == EXACT,
          "closure comparison not exact")
    conclude(10, label, failures)


def test_criterion_11_exhaustivity_contrast():
    label = "walk is Cauchy for the clamp family, not for the plain distance"
    failures = []
    res = suite("exhaustive-t2")
    recs = records(res)
    check(failures, res.status == "pass", f"suite status {res.status}")
    check(failures, recs["clamp-family"].verdict.status == EXACT,
          "clamp family record not exact")
    check(failures, recs["plain-distance-control"].verdict.status == FALSIFIED,
          "plain distance control failed to fail")
    check(failures, recs["bounded-climb"].met, "bounded climb unmet")
    conclude(11, label, failures)


def test_canonical_report_matches_the_reference():
    # every status, count and witness of every suite; a PR that raises a
    # grade regenerates the file with `python3 perfbench/run.py --make-reference`
    report = render_json({"version": 1,
                          "suites": [suite(name).to_json() for name in suite_names()]})
    reference = json.loads(REFERENCE.read_text(encoding="utf-8"))["report"]
    assert report == reference
