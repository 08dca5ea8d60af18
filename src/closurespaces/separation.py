"""Separation relations and reconstruction of closure tables from them.

A separation relation is a set of unordered pairs of subsets, stored as one
bitmask row per subset: bit B of ``rows[A]`` is set iff {A, B} is related,
so the rows are symmetric.  A pair may relate a subset to itself (the pair
{∅, ∅} in particular is forced whenever the reconstruction conditions hold).
Rows are Python integers of 2**n bits, so any carrier size fits; the batch
kernels of ``_kernels`` use the same rows as int64 words.

With this format the conditions are word operations (Knuth, TAOCP 4A
§7.1.3): ``nb[A]``, the points whose singleton is not related to A, is the
closure of A that the relation determines, and the conditions compare rows
and ``nb``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

from .core import (
    ClosureSpaceError,
    GroundSet,
    MaskOutOfRange,
    Space,
    make_space,
)


class ConditionsViolated(ClosureSpaceError):
    """Relation fails the reconstruction conditions; carries the report."""

    def __init__(self, report: "ConditionReport") -> None:
        super().__init__(f"relation violates reconstruction conditions: {report}")
        self.report = report


@dataclass(frozen=True)
class SeparationRelation:
    """Related pairs as symmetric bitmask rows, one row per subset."""

    ground: GroundSet
    rows: tuple[int, ...]

    @property
    def pairs(self) -> frozenset[tuple[int, int]]:
        """The related pairs as canonical (lo, hi) tuples with lo <= hi."""
        size = len(self.rows)
        return frozenset(
            (a, b) for a, row in enumerate(self.rows) for b in range(a, size) if row >> b & 1
        )

    # the package does not call contains: perfbench/spans.py wraps it to count
    # relation lookups, and the benchmark re-pin (ROADMAP item 1) removes it
    def contains(self, a: int, b: int) -> bool:
        return bool(self.rows[a] >> b & 1)


@dataclass(frozen=True)
class ConditionReport:
    """Outcome of the two reconstruction conditions.

    witness1 is a triple (A, B, C) with A ⊆ B, {B, C} related but {A, C}
    not; witness2 is a pair (A, B) whose singleton hypotheses hold while
    {A, B} is missing.  Witnesses are the first found in ascending numeric
    order, so failures are reproducible.
    """

    condition1: bool
    condition2: bool
    witness1: tuple[int, int, int] | None = None
    witness2: tuple[int, int] | None = None

    @property
    def ok(self) -> bool:
        return self.condition1 and self.condition2


def make_relation(gset: GroundSet, pairs: Iterable[tuple[int, int]]) -> SeparationRelation:
    """Build a relation from pairs given in either order."""
    rows = [0] * gset.size
    for a, b in pairs:
        if not 0 <= a <= gset.full or not 0 <= b <= gset.full:
            raise MaskOutOfRange(f"relation pair out of range: ({a}, {b})")
        rows[a] |= 1 << b
        rows[b] |= 1 << a
    return SeparationRelation(gset, tuple(rows))


def separated_pairs(space: Space) -> SeparationRelation:
    """The relation of all separated pairs of the space, pairs with A = B
    included: A ∩ cl(B) = ∅ and cl(A) ∩ B = ∅."""
    table = space.table
    rows = tuple(
        sum(1 << b for b, tb in enumerate(table) if not a & tb and not ta & b)
        for a, ta in enumerate(table)
    )
    return SeparationRelation(space.ground, rows)


def _neighbourhoods(rel: SeparationRelation) -> list[int]:
    # nb[A] = {x : bit {x} of rows[A] clear}, the closure of A the relation
    # determines
    n = rel.ground.n
    return [sum(1 << x for x in range(n) if not row >> (1 << x) & 1) for row in rel.rows]


def _lowest_member(mask: int) -> int:
    return (mask & -mask).bit_length() - 1


def check_relation_conditions(rel: SeparationRelation) -> ConditionReport:
    """Check the two conditions a relation must satisfy to define a closure.

    Condition 1: shrinking either member of a related pair keeps it related,
    so rows[B] ⊆ rows[A] for A ⊆ B.  Condition 2: if every singleton of A is
    related to B and every singleton of B is related to A, that is if
    A ∩ nb[B] = ∅ and B ∩ nb[A] = ∅, then {A, B} is related.  Both
    quantifiers include the empty set, whose singleton hypotheses hold
    vacuously.
    """
    rows = rel.rows
    size = len(rows)

    witness1 = next(
        (
            (a, b, _lowest_member(rows[b] & ~rows[a]))
            for a in range(size)
            for b in range(size)
            if not a & ~b and rows[b] & ~rows[a]
        ),
        None,
    )

    nb = _neighbourhoods(rel)
    witness2 = next(
        (
            (a, b)
            for a in range(size)
            for b in range(a, size)
            if not rows[a] >> b & 1 and not a & nb[b] and not b & nb[a]
        ),
        None,
    )

    return ConditionReport(witness1 is None, witness2 is None, witness1, witness2)


def closure_from_relation(rel: SeparationRelation) -> Space:
    """Reconstruct the closure table: cl(A) = {x : {{x}, A} not related}.

    Requires both reconstruction conditions; the result is always isotonic
    and pointwise-symmetric, and its separated pairs are exactly ``rel``.
    """
    report = check_relation_conditions(rel)
    if not report.ok:
        raise ConditionsViolated(report)
    return make_space(rel.ground, _neighbourhoods(rel))
