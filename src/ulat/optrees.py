"""Random meet/join operator trees over a carrier.

A tree is either a leaf (variable index) or an operation node with two
subtrees.  Evaluating the same tree on two tuples of inputs can move the
result by at most the summed input distances, one term per leaf occurrence,
because both lattice operations are contractive in each argument.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from .carriers import Carrier
from .exact import _below

MEET = "meet"
JOIN = "join"


@dataclass(frozen=True, slots=True)
class OpTree:
    op: Optional[str]
    var: Optional[int] = None
    left: Optional["OpTree"] = None
    right: Optional["OpTree"] = None

    @staticmethod
    def leaf(index: int) -> "OpTree":
        return OpTree(None, var=index)

    @staticmethod
    def node(op: str, left: "OpTree", right: "OpTree") -> "OpTree":
        if op not in (MEET, JOIN):
            raise ValueError(f"unknown operation {op!r}")
        return OpTree(op, left=left, right=right)

    def leaves(self) -> list[int]:
        if self.op is None:
            return [self.var]
        return self.left.leaves() + self.right.leaves()


def random_tree(rng, n_vars: int, max_depth: int) -> OpTree:
    if max_depth <= 0 or rng.random() < 0.25:
        return OpTree.leaf(_below(rng, n_vars))
    op = MEET if rng.random() < 0.5 else JOIN
    return OpTree.node(op, random_tree(rng, n_vars, max_depth - 1),
                       random_tree(rng, n_vars, max_depth - 1))


def evaluate(L: Carrier, tree: OpTree, values) -> object:
    """The tree at the given values, each checked once here however often
    its leaf occurs; the recursion runs on the trusted operations."""
    return _evaluate(L, tree, [L.check_element(v) for v in values])


def _evaluate(L: Carrier, tree: OpTree, values: list) -> object:
    if tree.op is None:
        return values[tree.var]
    left = _evaluate(L, tree.left, values)
    right = _evaluate(L, tree.right, values)
    return L._meet(left, right) if tree.op == MEET else L._join(left, right)
