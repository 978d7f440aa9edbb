"""Functional determination rules and the closure they induce.

A rule (determinants, target) states that the target node is a function of
the determinant nodes.  Conditioning on a set z then effectively conditions
on determined_set(table, z), the least fixpoint of firing rules.
rule_masks and mask_closure compute the same fixpoint on bitmasks.
"""

from __future__ import annotations

from typing import Iterable

from .errors import StructureError
from .graph import VARIABLE, ChainGraph, error_name


class DeterminationTable:
    """Immutable set of (determinants, target) rules."""

    __slots__ = ("rules",)

    def __init__(self, rules: Iterable = ()):
        frozen = set()
        for determinants, target in rules:
            dets = frozenset(determinants)
            if not dets:
                raise ValueError(f"rule for {target} has no determinants")
            if target in dets:
                raise ValueError(f"rule target {target} appears in its own determinants")
            frozen.add((dets, target))
        self.rules = frozenset(frozen)

    def __eq__(self, other):
        return isinstance(other, DeterminationTable) and self.rules == other.rules

    def __hash__(self):
        return hash(self.rules)

    def __bool__(self):
        return bool(self.rules)

    def __repr__(self):
        return f"DeterminationTable({len(self.rules)} rules)"


def determined_set(table: DeterminationTable, z: Iterable[str]) -> frozenset:
    """Least fixpoint of z under the table: z plus every node a fired rule yields."""
    out = set(z)
    changed = True
    while changed:
        changed = False
        for dets, target in table.rules:
            if target not in out and dets <= out:
                out.add(target)
                changed = True
    return frozenset(out)


def rule_masks(table: DeterminationTable, pos) -> tuple:
    """The rules as (determinant mask, target bit) pairs over the positions
    in pos, and the names outside pos, each mapped to the position past them it takes."""
    outside: dict = {}

    def bit(v):
        p = pos.get(v)
        if p is None:
            p = outside.setdefault(v, len(pos) + len(outside))
        return 1 << p

    return [(sum(map(bit, dets)), bit(target)) for dets, target in table.rules], outside


def mask_closure(rules, m: int) -> int:
    """Least fixpoint of mask m under the (determinant mask, target bit) rules."""
    grew = True
    while grew:
        grew = False
        for dets, bit in rules:
            if not (dets & ~m or bit & m):
                m |= bit
                grew = True
    return m


def eamp_rules(g: ChainGraph) -> DeterminationTable:
    """Determination rules of an error-augmented graph.

    For each variable node a present together with its own error node,
    eps(a) is determined by {a} plus a's other direct parents.  Determinants
    may mention error nodes once variables have been marginalized away.
    Error nodes whose variable is gone keep no rule.
    """
    rules = []
    for a in g.variables:
        eps = error_name(a)
        if eps not in g.nodes:
            raise StructureError(f"variable {a} has no error node {eps}")
        if eps not in g.dir_parents[a]:
            raise StructureError(f"error node {eps} is not a parent of {a}")
        rules.append(((g.dir_parents[a] - {eps}) | {a}, eps))
    return DeterminationTable(rules)
