"""Shared measurement loop for every workload.

A workload object provides

* ``generate(U, catalog, seed)`` -> inputs, built from the seed only;
* ``run_round(U, inputs, record)`` -> outputs of one round, calling
  ``record(seconds, failed)`` once per operation with its latency;
* ``check(U, inputs, outputs)`` -> list of problems found in one round;
* ``finish(U, inputs, rounds)`` -> (problems, info) once per run, for checks
  that are too costly to repeat every round;
* ``items(outputs)`` -> the work units a round completed (cases,
  decisions or documents).

``setup`` imports the library afresh, builds the standard catalog and
generates the inputs; it is timed as the benchmark's set-up.  The timed
set-ups are spread over the run (before the first round, between rounds
and after the last), so that their median does not hang on one moment of
the host's speed.

The host's speed swings by up to a factor of two, in phases of seconds to
minutes, and no run length averages that out.  So the untraced run scales
every time it reports to a reference speed.  ``Speed`` times a fixed probe
every ``PROBE_EVERY_S`` seconds of wall time, from a ``SIGALRM`` handler,
so the probes fall inside long operations too.  The probe is plain Python
integer, tuple and dictionary work that shares no code with the library
or the standard library, so no change to either moves it.  The benchmark's
clocks (``clock`` and ``cpu_clock``) leave the probes' own time out.

A round's wall and CPU times and its latencies are scaled by the mean of
``REFERENCE_PROBE_S`` over each probe's time, over the probes taken during
the round.  An operation long enough to hold ``OWN_FACTOR_PROBES`` probes
has its latency scaled by its own probes instead, and each batch of
set-ups by the probes taken during the batch.  CPU time is scaled by the
probes' wall time: on the reference host the process CPU clock advances in
clock ticks longer than a probe, and a probe is pure computation, so its
wall and CPU time agree unless the process waits for a core.  The raw
times are printed on the ``info=`` line.
"""

from __future__ import annotations

import gc
import importlib
import resource
import signal
import statistics
import sys
import time

SETUP_REPEATS = 30
SETUPS_BETWEEN_ROUNDS = 4
PROBE_EVERY_S = 0.1
OWN_FACTOR_PROBES = 20
# about the median time of one probe pass within a run on the reference
# host (2 CPUs, Python 3.11.7); it fixes the scale of every reported time,
# so changing it (or the probe) makes figures incomparable across commits
REFERENCE_PROBE_S = 0.0018


def _probe_pass() -> int:
    """Fixed work: exact partial sums of k/(k+1) in integers, then look-ups."""
    num, den = 0, 1
    table = {}
    for k in range(1, 121):
        n, d = num * (k + 1) + den * k, den * (k + 1)
        a, b = n, d
        while b:
            a, b = b, a % b
        num, den = n // a, d // a
        table[(k % 13, k % 17)] = num & 1
    hits = 0
    for i in range(4000):
        if table.get((i % 13, i % 17)):
            hits += 1
    return hits


class Speed:
    """Probes of the host's speed, taken while it is started."""

    def __init__(self):
        self.probes = []
        self.spent = 0.0
        self._old = None

    def start(self) -> None:
        global _ACTIVE
        _ACTIVE = self
        self._old = signal.signal(signal.SIGALRM, self._probe)
        signal.setitimer(signal.ITIMER_REAL, PROBE_EVERY_S, PROBE_EVERY_S)

    def stop(self) -> None:
        global _ACTIVE
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._old)
        _ACTIVE = None

    def _probe(self, signum, frame) -> None:
        """One probe pass, with the garbage collector off so that the heap
        of the run does not weigh on it."""
        enabled = gc.isenabled()
        gc.disable()
        t0 = time.perf_counter()
        try:
            _probe_pass()
        finally:
            seconds = time.perf_counter() - t0
            self.spent += seconds
            if enabled:
                gc.enable()
        self.probes.append(seconds)

    def factor(self, first: int = 0) -> float:
        """Scale factor from the probes since probes[first], or from all
        probes if there are none since."""
        probes = self.probes[first:] or self.probes
        if not probes:
            return 1.0
        return statistics.fmean(REFERENCE_PROBE_S / p for p in probes)


_ACTIVE: Speed | None = None


def clock() -> float:
    """Wall time without the time spent in probes."""
    return time.perf_counter() - (_ACTIVE.spent if _ACTIVE is not None else 0.0)


def cpu_clock() -> float:
    """Process CPU time without the (wall) time spent in probes."""
    return time.process_time() - (_ACTIVE.spent if _ACTIVE is not None else 0.0)


def import_ulat():
    """Import the library from scratch and return its package module."""
    for name in [m for m in sys.modules if m == "ulat" or m.startswith("ulat.")]:
        del sys.modules[name]
    U = importlib.import_module("ulat")
    importlib.import_module("ulat.cli")
    return U


def setup(workload, seed: int, on_import=None):
    """Import, build the catalog, generate inputs; return (U, inputs)."""
    U = import_ulat()
    if on_import is not None:
        on_import(U)
    catalog = U.standard_carriers()
    return U, workload.generate(U, catalog, seed)


def timed_setup(workload, seed: int) -> float:
    """Time one more set-up, then put back the library the rounds use.  The
    garbage of earlier rounds is collected first, outside the timing."""
    kept = {m: mod for m, mod in sys.modules.items() if m == "ulat" or m.startswith("ulat.")}
    gc.collect()
    t0 = clock()
    setup(workload, seed)
    seconds = clock() - t0
    sys.modules.update(kept)
    return seconds


def tail(samples: list) -> float:
    """Highest percentile with at least ten samples beyond it.  With fewer
    than forty samples there is no such percentile, and the slowest
    operation stands in (on ``suites``, the slowest of the twelve suites)."""
    ordered = sorted(samples)
    if len(ordered) < 40:
        return ordered[-1]
    return ordered[len(ordered) - 11]


class Round:
    """Latencies and failures of one round, filled by ``record``, and its
    times: ``wall`` and ``cpu`` scaled, ``raw_wall`` and ``raw_cpu`` not.
    ``scaled`` holds the latencies of operations that held enough probes
    to be scaled by their own; ``run_rounds`` scales the rest."""

    def __init__(self, speed: Speed | None = None):
        self.speed = speed
        self.latencies = []
        self.scaled = []
        self.attempted = 0
        self.failed = 0
        self.wall = self.cpu = self.raw_wall = self.raw_cpu = 0.0
        self.mark = len(speed.probes) if speed is not None else 0

    def record(self, seconds: float, failed: bool = False) -> None:
        self.attempted += 1
        if failed:
            self.failed += 1
        elif self.speed is not None and len(self.speed.probes) - self.mark >= OWN_FACTOR_PROBES:
            self.scaled.append(seconds * self.speed.factor(self.mark))
        else:
            self.latencies.append(seconds)
        if self.speed is not None:
            self.mark = len(self.speed.probes)


def run_rounds(workload, U, inputs, seconds: float, at_least: int = 1,
               at_most: int | None = None, between=None, speed: Speed | None = None):
    """Run whole rounds while the next one is expected to end within the
    measured time, calling between() after each.  With a started ``speed``,
    each round's times and latencies are scaled by the probes taken during
    it.  Returns a list of (round, outputs, wall, cpu)."""
    done = []
    start = time.perf_counter()
    while True:
        if done and between is not None:
            between()
        rnd = Round(speed)
        first = rnd.mark
        w0, c0 = clock(), cpu_clock()
        outputs = workload.run_round(U, inputs, rnd.record)
        rnd.raw_wall, rnd.raw_cpu = clock() - w0, cpu_clock() - c0
        f = speed.factor(first) if speed is not None else 1.0
        rnd.wall, rnd.cpu = rnd.raw_wall * f, rnd.raw_cpu * f
        rnd.latencies = [s * f for s in rnd.latencies] + rnd.scaled
        done.append((rnd, outputs, rnd.wall, rnd.cpu))
        if at_most is not None and len(done) >= at_most:
            break
        elapsed = time.perf_counter() - start
        expected = statistics.median(d[0].raw_wall for d in done)
        if len(done) >= at_least and elapsed + expected > seconds:
            break
    return done


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def check_rounds(workload, U, inputs, rounds) -> list:
    problems = []
    for i, (_, outputs, _, _) in enumerate(rounds):
        problems.extend(f"round {i + 1}: {p}" for p in workload.check(U, inputs, outputs))
    more, info = workload.finish(U, inputs, [r[1] for r in rounds])
    return problems + more, info


def measure(workload, seed: int, seconds: float) -> dict:
    """The untraced run: whole rounds, with the timed set-ups spread over it,
    every time scaled to the reference speed."""
    speed = Speed()
    setups = []  # (scaled, raw) seconds of each timed set-up

    def timed_setups(count: int, mark: int, raw: list) -> None:
        """Time count more set-ups after those in raw, and scale the batch
        by the probes taken since probes[mark]."""
        raw += [timed_setup(workload, seed) for _ in range(count)]
        f = speed.factor(mark)
        setups.extend((s * f, s) for s in raw)

    speed.start()
    try:
        mark, t0 = len(speed.probes), clock()
        U, inputs = setup(workload, seed)
        timed_setups(SETUPS_BETWEEN_ROUNDS, mark, [clock() - t0])

        def between():
            timed_setups(min(SETUPS_BETWEEN_ROUNDS, SETUP_REPEATS - len(setups)),
                         len(speed.probes), [])

        rounds = run_rounds(workload, U, inputs, seconds, between=between, speed=speed)
        timed_setups(SETUP_REPEATS - len(setups), len(speed.probes), [])
    finally:
        speed.stop()
    problems, info = check_rounds(workload, U, inputs, rounds)
    latencies = [s for r in rounds for s in r[0].latencies]
    wall_total = sum(r[2] for r in rounds)
    items = sum(workload.items(r[1]) for r in rounds)
    metrics = {
        "setup_s": (statistics.median(s[0] for s in setups), "s"),
        "wall_s": (statistics.median(r[2] for r in rounds), "s"),
        "cpu_s": (statistics.median(r[3] for r in rounds), "s"),
        "peak_rss_mb": (peak_rss_mb(), "MB"),
        "throughput_per_s": (items / wall_total, "1/s"),
        "latency_tail_ms": (1000 * tail(latencies), "ms"),
    }
    info["rounds"] = len(rounds)
    info["latency_samples"] = len(latencies)
    info["latency_p50_ms"] = 1000 * statistics.median(latencies)
    info["raw_setup_s"] = statistics.median(s[1] for s in setups)
    info["raw_wall_s"] = statistics.median(r[0].raw_wall for r in rounds)
    info["raw_cpu_s"] = statistics.median(r[0].raw_cpu for r in rounds)
    info["probe_ms"] = 1000 * statistics.median(speed.probes)
    info["probes"] = len(speed.probes)
    return {
        "attempted": sum(r[0].attempted for r in rounds),
        "failed": sum(r[0].failed for r in rounds),
        "problems": problems,
        "metrics": metrics,
        "info": info,
    }
