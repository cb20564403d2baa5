"""Workload ``suites``: the twelve named suites at the default config.

One round runs every suite once, in an order drawn from the seed, exactly as
``ulat suite run`` runs them (the seed does not reach the suites: the
config stays the default one).  The checks:

* every suite passes;
* the canonical report of every round is byte-identical, and identical to
  the reference report unless a record's grade rose;
* no record of the reference report is missing, lost cases, or fell in
  grade (``python3 perfbench/run.py --make-reference`` rewrites the
  reference from the current code);
* the ``prop-p1`` composition law is recomputed with ``frozenset``
  operations, and the ``ex`` clamp gaps with plain ``Fraction`` sums.
"""

from __future__ import annotations

import json
import random
import statistics
from fractions import Fraction
from pathlib import Path

from harness import clock
from oracles import clamp_gap, composition_law_tuples

REFERENCE = Path(__file__).resolve().parent / "reference_report.json"
BUDGETED = {"ex_s": ("ex",), "lemma_l5_s": ("lemma-l5",), "prop_p1_s": ("prop-p1",),
            "finite_suites_s": ("closure-t4-finite", "prop-q", "prop-ph", "prop-d",
                                "prop-p1")}
_RANK = {"falsified": 0, "inconclusive": 1, "verified-at-horizon": 2, "exact": 3}


def canonical_report(U, results: dict) -> str:
    return U.render_json({"version": 1,
                          "suites": [results[n].to_json() for n in sorted(results)]})


def record_table(results: dict) -> dict:
    return {name: [[r.name, r.expect, r.verdict.status, r.cases] for r in res.records]
            for name, res in sorted(results.items())}


def make_reference(U) -> dict:
    results = {n: U.run_suite(n, U.SuiteConfig()) for n in U.suite_names()}
    return {"report": canonical_report(U, results), "records": record_table(results)}


def compare_grades(reference: dict, results: dict) -> tuple:
    """(problems, rises) of the current records against the reference."""
    problems, rises = [], []
    now = record_table(results)
    for suite, records in reference["records"].items():
        current = {r[0]: r for r in now.get(suite, [])}
        for name, expect, status, cases in records:
            got = current.get(name)
            if got is None:
                problems.append(f"{suite}: record {name!r} disappeared")
                continue
            if got[3] < cases:
                problems.append(f"{suite}: record {name!r} lost cases ({got[3]} < {cases})")
            if expect == "falsified":
                if got[2] != "falsified":
                    problems.append(f"{suite}: control {name!r} no longer falsifies")
            elif _RANK[got[2]] < _RANK[status]:
                problems.append(f"{suite}: record {name!r} fell from {status} to {got[2]}")
            elif _RANK[got[2]] > _RANK[status]:
                rises.append(f"{suite}/{name}")
    return problems, rises


class SuitesWorkload:
    name = "suites"

    def generate(self, U, catalog, seed: int) -> dict:
        order = list(U.suite_names())
        random.Random(seed).shuffle(order)
        return {"order": order, "config": U.SuiteConfig(),
                "reference": json.loads(REFERENCE.read_text(encoding="utf-8"))}

    def run_round(self, U, inputs, record) -> dict:
        results, seconds = {}, {}
        for name in inputs["order"]:
            t0 = clock()
            results[name] = U.run_suite(name, inputs["config"])
            seconds[name] = clock() - t0
            record(seconds[name])
        return {"results": results, "seconds": seconds}

    def items(self, outputs: dict) -> int:
        return sum(r.counts["cases"] for r in outputs["results"].values())

    def check(self, U, inputs, outputs: dict) -> list:
        results = outputs["results"]
        problems = [f"suite {n} ended {r.status}: {r.witness!r}"
                    for n, r in sorted(results.items()) if r.status != "pass"]
        more, rises = compare_grades(inputs["reference"], results)
        if canonical_report(U, results) != inputs["reference"]["report"] and not rises:
            more.append("canonical report differs from the reference with no grade rise")
        return problems + more

    def finish(self, U, inputs, rounds: list) -> tuple:
        problems = []
        reports = [canonical_report(U, r["results"]) for r in rounds]
        if any(rep != reports[0] for rep in reports[1:]):
            problems.append("canonical reports differ between rounds of one run")
        first = rounds[0]["results"]
        problems += check_prop_p1(first["prop-p1"])
        problems += check_ex(U, first["ex"])
        suite_s = {n: statistics.median(r["seconds"][n] for r in rounds)
                   for n in sorted(inputs["order"])}
        info = {key: sum(suite_s[n] for n in names) for key, names in BUDGETED.items()}
        info["suite_s"] = suite_s
        return problems, info


def check_prop_p1(result) -> list:
    total, bad = composition_law_tuples()
    rec = result.records[0]
    problems = []
    if bad is not None:
        problems.append(f"prop-p1: the recomputed composition law fails at {bad}")
    if rec.verdict.status != "exact" or rec.cases != total:
        problems.append(f"prop-p1: {rec.verdict.status} over {rec.cases} tuples, "
                        f"recomputed over {total}")
    return problems


def check_ex(U, result) -> list:
    problems = []
    points = 0
    for k in range(1, 51):
        for n in range(1, 201):
            points += 1
            if clamp_gap(k, n) > Fraction(k, n):
                problems.append(f"ex: recomputed clamp gap exceeds k/n at {(k, n)}")
    vanishing = {r.name: r for r in result.records}["clamped-vanishing"]
    if vanishing.verdict.status != "exact" or vanishing.cases != points:
        problems.append(f"ex: clamped-vanishing is {vanishing.verdict.status} over "
                        f"{vanishing.cases} points, recomputed on {points}")
    rep = U.unbounded_separation_example(k_values=(1, 3), n_values=(1, 200))
    if len(rep.samples) != 2:
        problems.append(f"ex: expected 2 sample points, got {len(rep.samples)}")
    for s in rep.samples:
        if s.truncated_gap != U.ExtValue(clamp_gap(s.k, s.n)):
            problems.append(f"ex: gap at {(s.k, s.n)} is {s.truncated_gap!r}, "
                            f"recomputed {clamp_gap(s.k, s.n)}")
        if s.unclamped != U.EXT_INF:
            problems.append(f"ex: capped norm at {(s.k, s.n)} is finite")
    return problems
