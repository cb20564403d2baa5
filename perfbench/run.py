"""Benchmark for ulat.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --make-reference

Run from the root of a checkout; the library is imported from ``src``.
With ``--trace 0`` the last line of standard output is a JSON object with
the end-to-end metrics; with ``--trace 1`` it holds the per-layer metrics
of a traced run (see README.md).  Lines before it name the workload's
inputs and the figures behind the metrics.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import harness  # noqa: E402
from closed_forms import ClosedFormsWorkload  # noqa: E402
from lattice_docs import LatticeDocsWorkload  # noqa: E402
from suites_wl import REFERENCE, SuitesWorkload, make_reference  # noqa: E402
from tracer import Tracer  # noqa: E402

WORKLOADS = {w.name: w for w in (SuitesWorkload(), ClosedFormsWorkload(),
                                 LatticeDocsWorkload())}


def traced_run(workload, seed: int, seconds: float) -> dict:
    """The same rounds untraced, then traced; per-layer metrics only."""
    t0 = time.perf_counter()
    U, inputs = harness.setup(workload, seed)
    plain = harness.run_rounds(workload, U, inputs, seconds / 2)
    plain_wall = time.perf_counter() - t0
    problems, _ = harness.check_rounds(workload, U, inputs, plain)

    tracer = Tracer(str(HERE), str(ROOT / "src" / "ulat"))
    tracer.start_sampling()
    try:
        t1, c1 = time.perf_counter(), time.process_time()
        U, inputs = harness.setup(workload, seed, on_import=tracer.install)
        traced = harness.run_rounds(workload, U, inputs, 0, at_least=len(plain),
                                    at_most=len(plain))
        traced_wall, traced_cpu = time.perf_counter() - t1, time.process_time() - c1
    finally:
        tracer.stop_sampling()
        tracer.restore()
    more, _ = harness.check_rounds(workload, U, inputs, traced)

    ops = sum(r[0].attempted for r in traced)
    lattice_ops = tracer.count("carriers.lattice_ops.calls")
    metrics = {f"{layer}.self_s": (s, "s")
               for layer, s in tracer.self_seconds(traced_cpu).items()}
    for name in ("carriers.check_element.calls", "carriers.lattice_ops.calls",
                 "exact.ExtValue.calls", "semimetrics.distance.calls",
                 "carriers.from_leq.calls", "catalog.standard_carriers.calls",
                 "spaces.EvLinSeq.value.calls", "spaces.QVec.normalize.calls",
                 "truncation.truncate_f.calls", "exact.Poly.eval.calls",
                 "exact.Poly.nonneg_from.calls", "exact.RatAltSeq.calls",
                 "fractions.Fraction.calls"):
        metrics[name] = (tracer.count(name), "count")
    metrics["carriers.checks_per_op"] = (
        tracer.count("carriers.check_element.calls") / lattice_ops if lattice_ops else 0.0,
        "ratio")
    metrics["exact.evals_per_decision"] = (tracer.count("exact.scanned") / ops, "ratio")
    metrics["exact.parsed_degree.max"] = (
        workload.parsed_degree(U, inputs) if hasattr(workload, "parsed_degree") else 0,
        "degree")
    for name in ("carriers.from_leq.s", "convergence.truncate_sequence.s"):
        metrics[name] = (tracer.seconds(name), "s")
    metrics["trace.overhead_x"] = (traced_wall / plain_wall, "x")
    samples = sum(tracer.samples.values())
    return {
        "attempted": ops + sum(r[0].attempted for r in plain),
        "failed": sum(r[0].failed for r in traced + plain),
        "problems": problems + more,
        "metrics": metrics,
        "info": {"rounds": len(plain), "untraced_wall_s": plain_wall,
                 "traced_wall_s": traced_wall, "samples": samples,
                 "counting_share": tracer.samples.get("trace", 0) / (samples or 1)},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.strip().splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--make-reference", action="store_true",
                        help="rewrite the suites reference report from the current code")
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "ulat" / "__init__.py").is_file():
        print(f"perfbench: no library sources at {ROOT / 'src' / 'ulat'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    if args.make_reference:
        REFERENCE.write_text(json.dumps(make_reference(harness.import_ulat()), indent=1) + "\n",
                             encoding="utf-8")
        print(f"wrote {REFERENCE.relative_to(ROOT)}")
        return 0
    if args.workload is None:
        parser.error("--workload is required")

    workload = WORKLOADS[args.workload]
    if args.trace:
        result = traced_run(workload, args.seed, args.seconds)
    else:
        result = harness.measure(workload, args.seed, args.seconds)
    for problem in result["problems"]:
        print(f"wrong: {problem}")
    print(f"{args.workload} seed={args.seed} info={json.dumps(result['info'], default=str)}")
    print(json.dumps({
        "correct": not result["problems"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in result["metrics"].items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
