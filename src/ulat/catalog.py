"""Named carriers and their stock semimetric families.

The catalog is built once per process, and every caller gets the same
dict, which must not be mutated.  Every carrier in it is a single shared
instance so that families built here compare carriers by identity.  Finite
lattices carry the discrete and the zero family; the four element chain
additionally carries a pullback family that glues its two middle elements
together, which is the standard example of a non-Hausdorff kernel.
Symbolic carriers each carry their natural norm-induced family.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cache

from .carriers import (
    Carrier,
    chain_lattice,
    diamond_lattice,
    divisor_lattice,
    pentagon_lattice,
    powerset_lattice,
)
from .semimetrics import (
    SemimetricFamily,
    discrete_semimetric,
    norm_semimetric,
    pullback_semimetric,
    symmetric_difference_semimetric,
    zero_semimetric,
)
from .spaces import C00Space, EvLinSpace, FinCofAlgebra, QLine, QVec


@dataclass(frozen=True, slots=True)
class CatalogEntry:
    name: str
    carrier: Carrier
    families: dict[str, SemimetricFamily] = field(default_factory=dict)

    def family(self, name: str) -> SemimetricFamily:
        return self.families[name]


def _finite_families(L: Carrier) -> dict[str, SemimetricFamily]:
    return {
        "discrete": SemimetricFamily.of("discrete", discrete_semimetric(L)),
        "zero": SemimetricFamily.of("zero", zero_semimetric(L)),
    }


def _chain4_collapse(L: Carrier) -> SemimetricFamily:
    # identify the two middle elements of 0 < 1 < 2 < 3
    target = chain_lattice(3)
    fold = {0: 0, 1: 1, 2: 1, 3: 2}
    member = pullback_semimetric("collapse", L, lambda x: fold[x],
                                 discrete_semimetric(target))
    return SemimetricFamily.of("collapse", member)


@cache
def standard_carriers() -> dict[str, CatalogEntry]:
    entries: dict[str, CatalogEntry] = {}

    def add(name: str, carrier: Carrier, families: dict[str, SemimetricFamily]):
        entries[name] = CatalogEntry(name, carrier, families)

    for n in (1, 2, 3, 4):
        L = powerset_lattice(n)
        add(f"powerset{n}", L, _finite_families(L))
    L = divisor_lattice(60)
    add("divisor60", L, _finite_families(L))
    for n in (2, 3, 4, 5):
        L = chain_lattice(n)
        families = _finite_families(L)
        if n == 4:
            families["collapse"] = _chain4_collapse(L)
        add(f"chain{n}", L, families)
    L = pentagon_lattice()
    add("n5", L, _finite_families(L))
    L = diamond_lattice()
    add("m3", L, _finite_families(L))

    A = FinCofAlgebra()
    add("fincof", A, {
        "symdiff": SemimetricFamily.of(
            "symdiff", symmetric_difference_semimetric(A)),
        "discrete": SemimetricFamily.of("discrete", discrete_semimetric(A)),
    })

    def add_normed(name: str, G, family: str = "l1"):
        add(name, G, {family: SemimetricFamily.of(family, norm_semimetric(G, family))})

    add_normed("qline", QLine(), "abs")
    for n in (2, 3, 5):
        add_normed(f"qvec{n}", QVec(n))
    add_normed("c00", C00Space())
    add_normed("evlinseq", EvLinSpace())
    return entries


def finite_entries(catalog: dict[str, CatalogEntry]) -> list[CatalogEntry]:
    return [e for e in catalog.values() if e.carrier.is_finite]
