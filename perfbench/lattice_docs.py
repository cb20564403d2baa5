"""Workload ``lattice-docs``: lattice and distance-table documents.

Lattice documents (10 to 60 elements: divisor lattices, products of chains,
and ordinal sums with N5 or M3 glued in) go through
``ulat.cli.main(["lattice", "check", path])``.  Distance tables go through
``load_distance_table``, ``validate_semimetric``, ``kernel_partition`` and
``quotient``.  Every document is read from a file the set-up writes under
``perfbench/.work``.  A round is a fixed template of slots, each fixing a
lattice up to isomorphism; the seed picks the labels (which integer of a
prime signature, the order of chain factors, N5 or M3 for each glued
block), the element and cover order and the distance scale, so every seed
asks for the same amount of work.

Checks made apart from the library: element counts, bottom, top and
distributivity are known from the construction; a non-distributivity
witness is re-checked with the benchmark's own glb/lub; the 2-adic
valuation distance on the divisors of n has v2(n)+1 kernel classes;
broken-triangle tables must be falsified naming the triangle law; and
posets with two maximal elements must be refused naming a pair with no
join.

Four documents do not depend on the seed and must be rejected with a
diagnostic; today none of them is:

* a distance table with the JSON float 0.1 (accepted as a binary fraction);
* a distance table with the value "1/0" (``ZeroDivisionError`` escapes);
* a lattice whose covers hold ``5`` (``TypeError`` from ``len()`` escapes);
* a lattice whose covers hold ``[["0"], "1"]`` (``TypeError``: unhashable).
"""

from __future__ import annotations

import contextlib
import io
import json
import random
import shutil
from fractions import Fraction
from itertools import product as cartesian
from pathlib import Path

from harness import clock
from oracles import CoverOrder, fmt, v2

WORK_DIR = Path(__file__).resolve().parent / ".work" / "lattice-docs"

# Each slot fixes the lattice up to isomorphism, so every seed asks for the
# same work: divisor lattices of integers with one prime signature (and, for
# distance tables, one 2-adic valuation), chain products with fixed factors,
# and ordinal sums with a fixed stack of blocks ("nd" is N5 or M3).
DIVISOR_CANDIDATES = {
    10: (48, 80, 112, 176, 208), 12: (60, 84, 132, 156), 16: (120, 168, 264, 312),
    20: (240, 336, 528, 560, 624), 24: (360, 504, 540, 600),
    32: (840, 1320, 1560, 1848), 48: (2520, 3780, 3960, 4200, 4680),
    60: (5040, 7920, 8400, 9360, 11088),
}
PRODUCT_DIMS = {12: (3, 4), 18: (2, 3, 3), 24: (2, 3, 4), 27: (3, 3, 3), 36: (3, 3, 4)}
GLUED_STACKS = {
    15: ("nd", (2, 3), "nd", (2,)),
    20: ("nd", (3, 3), "nd", (3,), (2,)),
    30: ("nd", (3, 3), "nd", (2, 3), "nd", (4,), (2,)),
    40: ("nd", (3, 3), "nd", (3, 3), "nd", (2, 3), "nd", (3,)),
    54: ("nd", (3, 3), "nd", (3, 3), "nd", (3, 3), "nd", (2, 3), "nd", (2,), (2, 2)),
}
# The extra slots of 24 to 40 elements (and the extra 12-element tables) fill
# the middle of the cost range.  The three 48-element divisor lattices are
# the costliest documents after the single 60-element one; being alike, they
# keep the latency tail inside one class however many rounds a run makes.
LATTICE_SLOTS = (("divisor", 10), ("product", 12), ("glued", 15), ("divisor", 16),
                 ("product", 18), ("glued", 20), ("divisor", 24), ("product", 27),
                 ("glued", 30), ("divisor", 32), ("product", 36), ("glued", 40),
                 ("divisor", 48), ("divisor", 48), ("glued", 54), ("divisor", 60),
                 ("product", 24), ("glued", 30), ("glued", 40), ("divisor", 24),
                 ("product", 24), ("glued", 40), ("divisor", 48))
TABLE_SIZES = (10, 12, 12, 12, 16, 20)
CONTROL_SIZES = (12, 24)

FIXED_MALFORMED = (
    ("table", {"carrier": {"elements": ["0", "1", "2"], "covers": [["0", "1"], ["1", "2"]]},
               "distances": [[0, 1, 0.1], [1, 2, 0.1], [0, 2, "1/5"]]}),
    ("table", {"carrier": {"elements": ["0", "1", "2"], "covers": [["0", "1"], ["1", "2"]]},
               "distances": [[0, 1, "1/0"], [1, 2, "1"], [0, 2, "1"]]}),
    ("lattice", {"elements": ["0", "1"], "covers": [5]}),
    ("lattice", {"elements": ["0", "1"], "covers": [[["0"], "1"]]}),
)


# ---------------------------------------------------------------------------
# Lattices by construction: (elements, covers, bottom, top, distributive)


def divisor_lattice(n: int):
    divs = [d for d in range(1, n + 1) if n % d == 0]
    primes = [p for p in divs[1:] if all(p % q for q in range(2, p))]
    covers = [[str(d), str(d * p)] for d in divs for p in primes if n % (d * p) == 0]
    return [str(d) for d in divs], covers, "1", str(n), True


def chain_product(dims):
    points = list(cartesian(*(range(d) for d in dims)))
    name = lambda p: ".".join(map(str, p))  # noqa: E731
    covers = []
    for p in points:
        for axis, d in enumerate(dims):
            if p[axis] + 1 < d:
                q = p[:axis] + (p[axis] + 1,) + p[axis + 1:]
                covers.append([name(p), name(q)])
    return ([name(p) for p in points], covers, name(points[0]), name(points[-1]), True)


def pentagon():
    return (["0", "a", "c", "b", "1"],
            [["0", "a"], ["a", "c"], ["c", "1"], ["0", "b"], ["b", "1"]], "0", "1", False)


def diamond():
    return (["0", "a", "b", "c", "1"],
            [["0", x] for x in "abc"] + [[x, "1"] for x in "abc"], "0", "1", False)


def ordinal_sum(blocks):
    """Stack lattices, gluing each block's bottom onto the previous top."""
    elements, covers = [], []
    distributive = True
    below = None
    for i, (elems, cov, bot, top, dist) in enumerate(blocks):
        rename = {e: f"{i}:{e}" for e in elems}
        if below is not None:
            rename[bot] = below
        elements += [rename[e] for e in elems if not (below is not None and e == bot)]
        covers += [[rename[a], rename[b]] for a, b in cov]
        distributive = distributive and dist
        below = rename[top]
    return elements, covers, elements[0], below, distributive


def glued_lattice(rng, size: int):
    """The slot's stack of blocks, each "nd" block N5 or M3 by the seed."""
    blocks = [rng.choice((pentagon, diamond))() if b == "nd" else chain_product(b)
              for b in GLUED_STACKS[size]]
    return ordinal_sum(blocks)


def permuted(rng, dims):
    dims = list(dims)
    rng.shuffle(dims)
    return tuple(dims)


def lattice_slot(rng, family: str, size: int):
    if family == "divisor":
        return divisor_lattice(rng.choice(DIVISOR_CANDIDATES[size]))
    if family == "product":
        return chain_product(permuted(rng, PRODUCT_DIMS[size]))
    return glued_lattice(rng, size)


def lattice_document(rng, lattice) -> tuple:
    elements, covers, bottom, top, distributive = lattice
    elements, covers = list(elements), list(covers)
    rng.shuffle(elements)
    rng.shuffle(covers)
    doc = {"elements": elements, "covers": covers}
    return doc, {"count": len(elements), "bottom": bottom, "top": top,
                 "distributive": distributive}


def nonlattice_document(rng, size: int) -> tuple:
    """A chain product with its top removed: two maximal elements."""
    elements, covers, _, top, _ = chain_product(permuted(rng, PRODUCT_DIMS[size]))
    elements = [e for e in elements if e != top]
    covers = [c for c in covers if top not in c]
    rng.shuffle(elements)
    return {"elements": elements, "covers": covers}, {}


def valuation_table(rng, n: int, squared: bool = False) -> tuple:
    """c * |v2(x) - v2(y)| (a lattice semimetric on the divisors of n), or
    its square, which keeps every axiom but the triangle inequality."""
    elements, covers, _, _, _ = divisor_lattice(n)
    scale = Fraction(rng.randint(1, 9), rng.randint(1, 9))
    vals = [v2(int(e)) for e in elements]
    gap = (lambda a, b: abs(a - b) ** 2) if squared else (lambda a, b: abs(a - b))
    rows = [[i, j, fmt(scale * gap(vals[i], vals[j]))]
            for i in range(len(elements)) for j in range(i + 1, len(elements))]
    doc = {"carrier": {"elements": elements, "covers": covers}, "distances": rows}
    return doc, {"n": n, "values": vals, "scale": scale, "squared": squared}


def named_table(rng) -> tuple:
    """The valuation distance over the catalog's divisor60 carrier."""
    divs = [d for d in range(1, 61) if 60 % d == 0]
    vals = [v2(d) for d in divs]
    scale = Fraction(rng.randint(1, 9), rng.randint(1, 9))
    rows = [[i, j, fmt(scale * abs(vals[i] - vals[j]))]
            for i in range(len(divs)) for j in range(i + 1, len(divs))]
    return ({"carrier": "divisor60", "distances": rows},
            {"n": 60, "values": vals, "scale": scale, "squared": False})


def generate_documents(seed: int) -> list:
    """[(kind, document, expected)] for one round, in processing order."""
    rng = random.Random(seed)
    docs = [("lattice",) + lattice_document(rng, lattice_slot(rng, fam, size))
            for fam, size in LATTICE_SLOTS]
    docs += [("nonlattice",) + nonlattice_document(rng, size) for size in CONTROL_SIZES]
    docs += [("table",) + valuation_table(rng, rng.choice(DIVISOR_CANDIDATES[size]))
             for size in TABLE_SIZES]
    docs.append(("table",) + named_table(rng))
    docs.append(("table",) + valuation_table(rng, rng.choice(DIVISOR_CANDIDATES[12]),
                                             squared=True))
    docs += [(kind, doc, {"malformed": True}) for kind, doc in FIXED_MALFORMED]
    return docs


# ---------------------------------------------------------------------------
# Running documents through the library


def check_lattice_file(U, path: str) -> tuple:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = U.cli.main(["lattice", "check", path])
    return code, out.getvalue(), err.getvalue()


def process_table(U, path: str, carriers: dict) -> tuple:
    with open(path, encoding="utf-8") as fh:
        doc = json.load(fh)
    d = U.load_distance_table(doc, carriers=carriers)
    verdict = U.validate_semimetric(d)
    if not verdict.ok:
        return d, verdict, None, None
    family = U.SemimetricFamily.of(d.name, d)
    kernel = U.kernel_partition(d.carrier, family)
    return d, verdict, kernel, U.quotient(d.carrier, kernel, family)


class LatticeDocsWorkload:
    name = "lattice-docs"

    def generate(self, U, catalog, seed: int) -> dict:
        docs = generate_documents(seed)
        shutil.rmtree(WORK_DIR, ignore_errors=True)
        WORK_DIR.mkdir(parents=True)
        paths = []
        for i, (kind, doc, _) in enumerate(docs):
            path = WORK_DIR / f"{i:02d}-{kind}.json"
            path.write_text(json.dumps(doc), encoding="utf-8")
            paths.append(str(path))
        return {"docs": docs, "paths": paths,
                "carriers": {"divisor60": catalog["divisor60"].carrier}}

    def run_round(self, U, inputs, record) -> list:
        outputs = []
        for (kind, _, expected), path in zip(inputs["docs"], inputs["paths"]):
            t0 = clock()
            try:
                if kind == "table":
                    answer = ("ok", process_table(U, path, inputs["carriers"]))
                else:
                    answer = ("ok", check_lattice_file(U, path))
            except ValueError as exc:
                answer = ("refused", exc)
            except Exception as exc:  # an escaped exception is judged in check()
                answer = ("error", exc)
            seconds = clock() - t0
            record(seconds, failed=not self._met(kind, expected, answer))
            outputs.append(answer)
        return outputs

    @staticmethod
    def _met(kind, expected, answer) -> bool:
        """Did a malformed document get its diagnostic?  Others always count."""
        if not expected.get("malformed"):
            return True
        if kind == "table":
            return answer[0] == "refused"
        return answer[0] == "ok" and answer[1][0] in (1, 2)

    def items(self, outputs: list) -> int:
        return len(outputs)

    def check(self, U, inputs, outputs: list) -> list:
        problems = []
        for i, ((kind, doc, expected), answer) in enumerate(zip(inputs["docs"], outputs)):
            where = f"document {i} ({kind})"
            if expected.get("malformed"):
                continue
            if answer[0] != "ok":
                problems.append(f"{where}: {type(answer[1]).__name__}: {answer[1]}")
            elif kind == "lattice":
                problems += [f"{where}: {p}" for p in check_lattice(doc, expected, *answer[1])]
            elif kind == "nonlattice":
                problems += [f"{where}: {p}" for p in check_nonlattice(doc, *answer[1])]
            else:
                problems += [f"{where}: {p}" for p in check_table(U, expected, *answer[1])]
        return problems

    def finish(self, U, inputs, rounds: list) -> tuple:
        shutil.rmtree(WORK_DIR.parent, ignore_errors=True)
        return [], {"documents_per_round": len(inputs["docs"])}


def check_lattice(doc, expected, code, out, err) -> list:
    if code != 0:
        return [f"exit code {code}: {out or err}"]
    got = json.loads(out)
    problems = [f"{key} is {got.get(key)!r}, expected {expected[want]!r}"
                for key, want in (("elements", "count"), ("bottom", "bottom"),
                                  ("top", "top"), ("distributive", "distributive"))
                if got.get(key) != expected[want]]
    witness = got.get("distributivity-witness")
    if expected["distributive"]:
        if witness is not None:
            problems.append(f"distributive lattice given a witness {witness!r}")
    elif witness is None or not CoverOrder(doc["elements"], doc["covers"]).distributive_fails_at(*witness):
        problems.append(f"witness {witness!r} does not break distributivity")
    return problems


def check_nonlattice(doc, code, out, err) -> list:
    if code != 1:
        return [f"exit code {code}, expected 1 for a poset with two maximal elements"]
    got = json.loads(out)
    order = CoverOrder(doc["elements"], doc["covers"])
    missing, pair = got.get("missing"), got.get("pair")
    if missing not in ("meet", "join") or pair is None:
        return [f"diagnostic {got!r} names no missing bound"]
    bound = order.meet(*pair) if missing == "meet" else order.join(*pair)
    if bound is not None:
        return [f"pair {pair!r} has the {missing} {bound!r}"]
    return []


def check_table(U, expected, d, verdict, kernel, quotient) -> list:
    vals, scale = expected["values"], expected["scale"]
    if expected["squared"]:
        if verdict.status != "falsified" or verdict.witness[0] != "triangle":
            return [f"broken triangle judged {verdict.status} {verdict.witness!r}"]
        _, x, y, z = verdict.witness
        elems = d.carrier.elements()
        vx, vy, vz = (vals[elems.index(e)] for e in (x, y, z))
        dist = lambda a, b: scale * (a - b) ** 2  # noqa: E731
        if not dist(vx, vz) > dist(vx, vy) + dist(vy, vz):
            return [f"triangle witness {verdict.witness!r} does not break the triangle"]
        return []
    problems = []
    if verdict.status != "exact":
        return [f"valuation distance judged {verdict.status} {verdict.witness!r}"]
    classes = v2(expected["n"]) + 1
    elems = d.carrier.elements()
    by_value = {frozenset(e for e, v in zip(elems, vals) if v == c) for c in set(vals)}
    if len(kernel.blocks) != classes or {frozenset(b) for b in kernel.blocks} != by_value:
        problems.append(f"kernel has {len(kernel.blocks)} classes, expected {classes} by v2")
    if len(quotient.carrier.elements()) != classes or not quotient.hausdorff:
        problems.append(f"quotient has {len(quotient.carrier.elements())} elements, "
                        f"hausdorff={quotient.hausdorff}")
    return problems
