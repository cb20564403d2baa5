"""Verdicts returned by every checking oracle in the package.

The status vocabulary is deliberately small:

* ``exact``                -- decided by a symbolic or exhaustive argument
* ``verified-at-horizon``  -- all checks up to a finite horizon passed
* ``falsified``            -- a concrete witness violates the claim
* ``inconclusive``         -- the oracle could not decide either way

A ``falsified`` verdict always carries a reproducible witness.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Optional

EXACT = "exact"
AT_HORIZON = "verified-at-horizon"
FALSIFIED = "falsified"
INCONCLUSIVE = "inconclusive"

_RANK = {FALSIFIED: 0, INCONCLUSIVE: 1, AT_HORIZON: 2, EXACT: 3}


@dataclass(frozen=True, slots=True)
class Verdict:
    status: str
    witness: object = None
    detail: str = ""
    horizon: Optional[int] = None

    def __post_init__(self):
        if self.status not in _RANK:
            raise ValueError(f"unknown verdict status: {self.status!r}")
        if self.status == FALSIFIED and self.witness is None:
            raise ValueError("a falsified verdict needs a witness")
        if (self.status == AT_HORIZON or self.horizon is not None) and not (
                type(self.horizon) is int and self.horizon >= 1):
            raise ValueError(f"a horizon must be an integer >= 1, got {self.horizon!r}")

    @property
    def ok(self) -> bool:
        return self.status in (EXACT, AT_HORIZON)

    @staticmethod
    def exact(detail: str = "", witness: object = None) -> "Verdict":
        return Verdict(EXACT, witness=witness, detail=detail)

    @staticmethod
    def at_horizon(horizon: int, detail: str = "") -> "Verdict":
        return Verdict(AT_HORIZON, detail=detail, horizon=horizon)

    @staticmethod
    def falsified(witness: object, detail: str = "") -> "Verdict":
        return Verdict(FALSIFIED, witness=witness, detail=detail)

    @staticmethod
    def inconclusive(detail: str = "") -> "Verdict":
        return Verdict(INCONCLUSIVE, detail=detail)

    @staticmethod
    def weakest(verdicts: Iterable["Verdict"]) -> "Verdict":
        """Combine component verdicts; the weakest status wins and carries
        its witness/detail forward.  Empty input is inconclusive."""
        picked: Optional[Verdict] = None
        for v in verdicts:
            if picked is None or _RANK[v.status] < _RANK[picked.status]:
                picked = v
        return picked if picked is not None else Verdict.inconclusive("no components")
