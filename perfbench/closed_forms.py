"""Workload ``closed-forms``: closed-form term documents through the tail
oracles.

Each document is a scalar term in the JSON term grammar plus the questions
asked about it: clamp windows, bound queries, witness chains, caps and
Cauchy certificates.  The program parses it with ``parse_sequence_term``
and answers through ``truncate_sequence``, ``chain_bound``, ``verify_O1``,
``verify_O2``, ``verify_uO``, ``exhaustivity_probe`` and ``metric_cauchy``,
each call one decision under a deadline.

The generator knows every answer by construction.  A round is a fixed
template of slots (family, scan length or depth, order of magnitude); the
seed fills in the coefficients, so every seed asks for the same amount of
work.  Two documents do not depend on the seed and fail today:

* ``1/k + 1/k^2 + 1/k^3``, whose bound query misses the deadline because
  ``RatAltSeq`` never cancels common factors and ``Poly.nonneg_from``
  scans every integer up to its Cauchy bound;
* the scalar term ``"1/0"``, which escapes the parser as
  ``ZeroDivisionError`` instead of being rejected with a ``ValueError``.
"""

from __future__ import annotations

import random
import signal
from fractions import Fraction

from harness import clock
from oracles import ceil_fraction, eval_term, fmt

DEADLINE_S = 1.0

# (scan length N, order of magnitude of the slope or numerator)
WALK_SLOTS = tuple(zip((1, 3, 10, 30, 100, 300, 2, 7, 20, 60, 150, 250),
                       (-3, 2, -1, 3, 0, 1, 1, -2, 2, -3, 0, -1)))
HARMONIC_SLOTS = tuple(zip((1, 3, 10, 30, 100, 200, 2, 7, 20, 60, 150, 5),
                           (0, -2, 3, -1, 2, 1, -3, 0, 1, 2, -1, 3)))
# walks whose clamp window is reached only after WIDE_SCAN steps: the
# slowest decisions of a round, alike in cost, so the latency tail is a
# percentile inside this class rather than the single slowest decision
WIDE_SCAN = 1000
WIDE_SLOTS = (-3, -2, -1, 0, 1, 2, 3, -3, -1, 1, 3, 0)
ALTERNATING_SLOTS = (-2, -1, 0, 1, 2, 3, -3, 0)
HSUM_DEPTHS = (2, 2, 3, 3, 3, 3, 2, 2)

FIXED_COMPOSED = ["+", ["+", "1/k", ["*", "1/k", "1/k"]],
                  ["*", ["*", "1/k", "1/k"], "1/k"]]
FIXED_ZERO_DEN = "1/0"


class DeadlineExceeded(BaseException):
    """Raised when a decision has used DEADLINE_S of CPU time (the
    ``ITIMER_PROF`` timer); a BaseException so that no handler in the
    library can swallow it."""


def _alarm(signum, frame):
    raise DeadlineExceeded()


def magnitude(rng: random.Random, exponent: int) -> Fraction:
    """A positive rational of size about 10**exponent."""
    mantissa = Fraction(rng.randint(10, 99), 10 * rng.randint(1, 9))
    return mantissa * Fraction(10) ** exponent


def jitter(rng: random.Random) -> Fraction:
    return Fraction(rng.randint(0, 9), 10)


def harmonic_term(r: Fraction, s: Fraction, alternating: bool = False):
    tail = ["*", "alt", "1/k"] if alternating else "1/k"
    return ["+", fmt(r), ["*", fmt(s), tail]]


# ---------------------------------------------------------------------------
# Document generation: (document, expected answers)


def walk_doc(rng, n_scan: int, exponent: int):
    """x_k = m*k + r, increasing without bound."""
    m = magnitude(rng, exponent)
    r = m * Fraction(rng.randint(-20, 20), 10)
    x = lambda k: m * k + r  # noqa: E731
    delta = Fraction(rng.randint(1, 10), 10)
    high = r + m * (n_scan - 1 + delta)
    low = r + m * (delta - Fraction(rng.randint(1, 30), 10))
    k0 = rng.randint(1, 5)
    # scan lengths are fixed by the slot; only the digits come from the seed
    u1 = Fraction(n_scan, 4) + jitter(rng)
    u2 = Fraction(n_scan, 4) + jitter(rng)
    limit, cap = r + m * u1, m * u2
    reach = max(1, ceil_fraction((limit + cap - r) / m))
    wide = min(n_scan, 50)
    windows = [r + m * (Fraction(wide, 2) + 2 + jitter(rng)),
               r + m * (wide + 2 + jitter(rng))]
    eps = [fmt(4 * m), fmt(m / 2)]
    horizon = rng.randint(16, 64)
    doc = {"term": ["+", ["*", fmt(m), "k"], fmt(r)], "decisions": [
        {"kind": "clamp", "low": fmt(low), "high": fmt(high)},
        {"kind": "sup", "k0": 1},
        {"kind": "inf", "k0": k0},
        {"kind": "uo", "limit": fmt(limit), "cap": fmt(cap), "horizon": horizon},
        {"kind": "exhaust", "windows": [fmt(c) for c in windows], "eps": eps,
         "horizon": horizon},
        {"kind": "exhaust", "windows": [], "eps": eps, "horizon": horizon},
    ]}
    expected = [
        ("const", high, max(1, ceil_fraction((high - r) / m))),
        ("nobound",),
        ("value", x(k0)),
        ("status", "falsified", (limit, limit + cap, reach, limit + cap)),
        ("status", "exact"),
        ("status", "falsified"),
    ]
    return doc, expected


def wide_clamp_doc(rng, exponent: int):
    doc, expected = walk_doc(rng, WIDE_SCAN, exponent)
    doc["decisions"], expected = doc["decisions"][:1], expected[:1]
    return doc, expected


def harmonic_doc(rng, n_scan: int, exponent: int):
    """x_k = r + s/k, monotone with limit r."""
    s = magnitude(rng, exponent) * rng.choice((1, -1))
    r = magnitude(rng, rng.randint(-2, 2)) * rng.choice((1, -1))
    x = lambda k: r + s / k  # noqa: E731
    delta = Fraction(rng.randint(1, 10), 10)
    step = abs(s) / (n_scan - 1 + delta)
    if s > 0:   # decreasing: the clamp floor is reached
        low, high, hit = r + step, r + 2 * s + step, r + step
    else:       # increasing: the clamp ceiling is reached
        low, high, hit = r + 2 * s - step, r - step, r - step
    k0 = rng.randint(1, 5)
    sup, inf = (x(k0), r) if s > 0 else (r, x(k0))
    bound = harmonic_term(r, abs(s))
    lower = ["-", fmt(r), ["*", fmt(abs(s)), "1/k"]]
    eps = [fmt(abs(s) / 4), fmt(abs(s) / 64)]
    doc = {"term": harmonic_term(r, s), "decisions": [
        {"kind": "clamp", "low": fmt(low), "high": fmt(high)},
        {"kind": "sup", "k0": k0},
        {"kind": "inf", "k0": k0},
        {"kind": "o1", "limit": fmt(r), "lower": lower, "upper": bound,
         "horizon": rng.randint(32, 96)},
        {"kind": "o2", "limit": fmt(r), "lower": lower, "upper": bound,
         "offset": rng.randint(0, 3), "horizon": 128},
        {"kind": "cauchy", "scale": fmt(abs(s)), "eps": eps, "horizon": 128},
        {"kind": "cauchy", "scale": None, "eps": eps, "horizon": 128},
    ]}
    expected = [
        ("const", hit, max(1, ceil_fraction(abs(s) / abs(hit - r)))),
        ("value", sup),
        ("value", inf),
        ("status", "verified-at-horizon"),
        ("status", "exact"),
        ("status", "verified-at-horizon"),
        ("status", "falsified"),
    ]
    return doc, expected


def alternating_doc(rng, exponent: int):
    """x_k = r + (-1)^k s/k: not monotone, interval-convergent to r."""
    s = magnitude(rng, exponent) * rng.choice((1, -1))
    r = magnitude(rng, rng.randint(-2, 2)) * rng.choice((1, -1))
    lower = ["-", fmt(r), ["*", fmt(abs(s)), "1/k"]]
    upper = harmonic_term(r, abs(s))
    doc = {"term": harmonic_term(r, s, alternating=True), "decisions": [
        {"kind": "sup", "k0": rng.randint(1, 5)},
        {"kind": "o1", "limit": fmt(r), "lower": lower, "upper": upper,
         "horizon": rng.randint(32, 96)},
        {"kind": "o2", "limit": fmt(r), "lower": lower, "upper": upper,
         "offset": rng.randint(0, 3), "horizon": 128},
        {"kind": "cauchy", "scale": fmt(2 * abs(s)), "eps": [fmt(abs(s) / 2), fmt(abs(s) / 32)],
         "horizon": 128},
    ]}
    expected = [("undecided",), ("status", "verified-at-horizon"), ("status", "exact"),
                ("status", "verified-at-horizon")]
    return doc, expected


def hsum_doc(rng, depth: int):
    """A sum of depth harmonic pieces built through the grammar; its value is
    R + S/k, but the parsed closed form carries every factor of k."""
    sign = rng.choice((1, -1))
    pieces = [(magnitude(rng, rng.randint(-2, 2)) * rng.choice((1, -1)),
               magnitude(rng, rng.randint(-2, 2)) * sign) for _ in range(depth)]
    term = harmonic_term(*pieces[0])
    for r, s in pieces[1:]:
        term = ["+", term, harmonic_term(r, s)]
    R, S = sum(p[0] for p in pieces), sum(p[1] for p in pieces)
    k0 = rng.randint(1, 5)
    sup, inf = (R + S / k0, R) if S > 0 else (R, R + S / k0)
    doc = {"term": term, "decisions": [
        {"kind": "sup", "k0": k0},
        {"kind": "inf", "k0": k0},
        {"kind": "o2", "limit": fmt(R), "lower": ["-", fmt(R), ["*", fmt(abs(S)), "1/k"]],
         "upper": harmonic_term(R, abs(S)), "offset": rng.randint(0, 3), "horizon": 128},
    ]}
    return doc, [("value", sup), ("value", inf), ("status", "exact")]


def fixed_docs():
    """The two seed-independent documents that fail today."""
    return [
        ({"term": FIXED_COMPOSED, "decisions": [{"kind": "sup", "k0": 1}]},
         [("value", Fraction(3))]),
        ({"term": FIXED_ZERO_DEN, "decisions": [{"kind": "reject"}]},
         [("rejected",)]),
    ]


def generate_docs(seed: int):
    rng = random.Random(seed)
    docs = [walk_doc(rng, n, e) for n, e in WALK_SLOTS]
    docs += [wide_clamp_doc(rng, e) for e in WIDE_SLOTS]
    docs += [harmonic_doc(rng, n, e) for n, e in HARMONIC_SLOTS]
    docs += [alternating_doc(rng, e) for e in ALTERNATING_SLOTS]
    docs += [hsum_doc(rng, d) for d in HSUM_DEPTHS]
    docs += fixed_docs()
    return docs


# ---------------------------------------------------------------------------
# Running decisions through the library


def parse(U, Q, doc):
    chains = {}
    for i, dec in enumerate(doc["decisions"]):
        if "lower" in dec:
            chains[i] = (U.parse_sequence_term(dec["lower"], Q, "lower"),
                         U.parse_sequence_term(dec["upper"], Q, "upper"))
    return U.parse_sequence_term(doc["term"], Q, "x"), chains


def decide(U, Q, abs_family, seq, chains, i, dec):
    kind = dec["kind"]
    if kind == "clamp":
        pair = U.TruncationPair.of(Q, U.rat(dec["low"]), U.rat(dec["high"]))
        return U.truncate_sequence(seq, pair).descriptor
    if kind in ("sup", "inf"):
        return U.chain_bound(seq, kind, dec["k0"])
    if kind == "o1":
        return U.verify_O1(seq, U.rat(dec["limit"]), U.O1Witness(*chains[i]),
                           horizon=dec["horizon"])
    if kind == "o2":
        return U.verify_O2(seq, U.rat(dec["limit"]),
                           U.O2Witness.affine(*chains[i], dec["offset"]),
                           horizon=dec["horizon"])
    if kind == "uo":
        return U.verify_uO(seq, U.rat(dec["limit"]), positives=[U.rat(dec["cap"])],
                           horizon=dec["horizon"])
    eps = tuple(U.rat(e) for e in dec["eps"])
    if kind == "exhaust":
        family = abs_family
        if dec["windows"]:
            pairs = [U.TruncationPair.of(Q, -U.rat(c), U.rat(c)) for c in dec["windows"]]
            family = U.ustar_family(abs_family, pairs)
        return U.exhaustivity_probe(seq, family, eps_grid=eps, horizon=dec["horizon"])
    if kind == "cauchy":
        scale = None if dec["scale"] is None else U.rat(dec["scale"])
        cert = U.MetricCertificate.uniform(
            (lambda e: ceil_fraction(scale / e)) if scale is not None else (lambda e: 1))
        return U.metric_cauchy(seq, abs_family, cert, eps_grid=eps, horizon=dec["horizon"])
    raise ValueError(f"unknown decision kind {kind!r}")


class ClosedFormsWorkload:
    name = "closed-forms"

    def generate(self, U, catalog, seed: int) -> dict:
        entry = catalog["qline"]
        return {"docs": generate_docs(seed), "Q": entry.carrier,
                "abs": entry.family("abs")}

    def run_round(self, U, inputs, record) -> list:
        """outputs[d][i] is ("ok", answer), ("missed", None) or
        ("error", exception) for decision i of document d."""
        Q, abs_family = inputs["Q"], inputs["abs"]
        old = signal.signal(signal.SIGPROF, _alarm)
        outputs = []
        try:
            for doc, _ in inputs["docs"]:
                if doc["decisions"][0]["kind"] == "reject":
                    outputs.append([self._reject(U, Q, doc, record)])
                    continue
                seq, chains = parse(U, Q, doc)
                answers = []
                for i, dec in enumerate(doc["decisions"]):
                    t0 = clock()
                    try:
                        signal.setitimer(signal.ITIMER_PROF, DEADLINE_S)
                        try:
                            answer = ("ok", decide(U, Q, abs_family, seq, chains, i, dec))
                        finally:
                            signal.setitimer(signal.ITIMER_PROF, 0)
                    except DeadlineExceeded:
                        answer = ("missed", None)
                    except Exception as exc:  # reported as a wrong answer by check()
                        answer = ("error", exc)
                    record(clock() - t0, failed=answer[0] != "ok")
                    answers.append(answer)
                outputs.append(answers)
        finally:
            signal.signal(signal.SIGPROF, old)
        return outputs

    @staticmethod
    def _reject(U, Q, doc, record):
        """A malformed term must be refused with a ValueError."""
        t0 = clock()
        try:
            U.parse_sequence_term(doc["term"], Q, "x")
            answer = ("accepted", None)
        except ValueError as exc:
            answer = ("ok", exc)
        except Exception as exc:  # escaped without a diagnostic: the named fault
            answer = ("escaped", exc)
        record(clock() - t0, failed=answer[0] != "ok")
        return answer

    def items(self, outputs: list) -> int:
        return sum(len(answers) for answers in outputs)

    def parsed_degree(self, U, inputs) -> int:
        """Highest degree of a parsed term's numerator or denominator."""
        best = 0
        for doc, _ in inputs["docs"]:
            if doc["decisions"][0]["kind"] != "reject":
                series = U.parse_sequence_term(doc["term"], inputs["Q"], "x").descriptor.series
                best = max(best, series.num.degree, series.den.degree)
        return best

    def check(self, U, inputs, outputs: list) -> list:
        problems = []
        no_bound = U.spaces.NO_BOUND
        for d, ((doc, expected), answers) in enumerate(zip(inputs["docs"], outputs)):
            for i, (want, (state, got)) in enumerate(zip(expected, answers)):
                where = f"document {d} decision {i} ({doc['decisions'][i]['kind']})"
                if state == "error":
                    problems.append(f"{where}: raised {type(got).__name__}: {got}")
                elif state == "ok":
                    problems += [f"{where}: {p}" for p in
                                 check_answer(U, no_bound, doc, doc["decisions"][i], want, got)]
        return problems

    def finish(self, U, inputs, rounds: list) -> tuple:
        problems = []
        if any(_shape(r) != _shape(rounds[0]) for r in rounds[1:]):
            problems.append("rounds of one run failed on different decisions")
        return problems, {"deadline_s": DEADLINE_S}


def _shape(outputs):
    return [[state for state, _ in answers] for answers in outputs]


def check_answer(U, no_bound, doc, dec, want, got) -> list:
    tag = want[0]
    if tag == "rejected":
        return []
    if tag == "const":
        if not (isinstance(got, U.EventuallyConstant) and got.value == want[1]
                and got.from_index == want[2]):
            return [f"clamped tail is {got!r}, expected constant {want[1]} from {want[2]}"]
        return []
    if tag in ("value", "nobound", "undecided"):
        if tag == "value" and not (got.exact and got.value == want[1]):
            return [f"bound is {got!r}, expected exact {want[1]}"]
        if tag == "nobound" and not (got.exact and got.value is no_bound):
            return [f"bound is {got!r}, expected no bound"]
        if tag == "undecided" and (got.value is not None or got.exact):
            return [f"bound is {got!r}, expected undecided"]
        return []
    if got.status != want[1]:
        return [f"verdict {got.status} ({got.detail}), expected {want[1]}"]
    if got.status != "falsified":
        return []
    if dec["kind"] == "uo":
        return check_uo_witness(doc["term"], want[2], got.witness)
    return check_pair_witness(doc["term"], dec, got.witness)


def check_uo_witness(term, want, witness) -> list:
    """The clamp (low, high) of the sequence settles at value from index n
    on, away from the clamped limit: re-checked by direct evaluation."""
    if tuple(witness) != want:
        return [f"witness {witness!r}, expected {want!r}"]
    low, high, n, value = want
    clamp = lambda t: max(min(t, high), low)  # noqa: E731
    problems = []
    if clamp(eval_term(term, n)) != value or value == clamp(low):
        problems.append(f"witness {witness!r} does not hold at index {n}")
    if n > 1 and clamp(eval_term(term, n - 1)) == value:
        problems.append(f"witness index {n} is not the first settled index")
    return problems


def check_pair_witness(term, dec, witness) -> list:
    """A Cauchy counterexample (name, eps, a, b): |x_a - x_b| > eps."""
    _, eps, a, b = witness
    if not (1 <= a <= dec["horizon"] and 1 <= b <= dec["horizon"]):
        return [f"witness indices {(a, b)} outside 1..{dec['horizon']}"]
    if not abs(eval_term(term, a) - eval_term(term, b)) > Fraction(eps):
        return [f"witness {witness!r} does not exceed eps"]
    return []
