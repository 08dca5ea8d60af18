"""Finite generalized closure spaces as explicit powerset tables.

A space is a carrier of n labeled elements (n <= 16) together with a table
assigning an arbitrary subset to each of the 2**n subsets.  Subsets are bit
masks: bit i set means element i is a member.  Nothing is assumed about the
table, so a space may violate any of the closure axioms; every axiom and
separation property is decided by evaluating its definition over the table.

All values here are immutable and all operations are pure, so spaces can be
shared freely across threads.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

MAX_ELEMENTS = 16

_ALPHABET = "abcdefghijklmnop"


class ClosureSpaceError(Exception):
    """Base class for errors raised by this package."""


class LengthMismatch(ClosureSpaceError):
    """Closure table length is not 2**n."""


class MaskOutOfRange(ClosureSpaceError):
    """Subset mask has bits outside the ground set."""


class ElementOutOfRange(ClosureSpaceError):
    """Element index is not < n."""


@dataclass(frozen=True)
class GroundSet:
    """Ordered finite carrier; element i is bit i of every subset mask."""

    labels: tuple[str, ...]

    def __post_init__(self) -> None:
        if not 1 <= len(self.labels) <= MAX_ELEMENTS:
            raise ValueError(
                f"carrier size must be between 1 and {MAX_ELEMENTS}, got {len(self.labels)}"
            )
        if len(set(self.labels)) != len(self.labels):
            raise ValueError("element labels must be pairwise distinct")

    @property
    def n(self) -> int:
        return len(self.labels)

    @property
    def size(self) -> int:
        """Number of subsets, 2**n."""
        return 1 << len(self.labels)

    @property
    def full(self) -> int:
        """Mask of the whole carrier."""
        return (1 << len(self.labels)) - 1


def ground(n: int) -> GroundSet:
    """Ground set with the default labels a, b, c, ..."""
    return GroundSet(tuple(_ALPHABET[:n]))


@dataclass(frozen=True)
class Space:
    """A carrier plus a closure table: entry at index m is cl(m).

    Construct through :func:`make_space`, which validates the table.
    """

    ground: GroundSet
    table: tuple[int, ...]


@dataclass(frozen=True)
class AxiomProfile:
    grounded: bool
    isotonic: bool
    enlarging: bool
    idempotent: bool
    sublinear: bool


@dataclass(frozen=True)
class SymmetryProfile:
    pointwise_symmetric: bool
    r0: bool
    exterior_separated: bool


def make_space(gset: GroundSet, table: Sequence[int] | Iterable[int]) -> Space:
    """Build a space from a closure table.  No axiom is assumed or checked."""
    entries = tuple(int(v) for v in table)
    if len(entries) != gset.size:
        raise LengthMismatch(
            f"closure table must have {gset.size} entries, got {len(entries)}"
        )
    for m, v in enumerate(entries):
        if not 0 <= v <= gset.full:
            raise MaskOutOfRange(f"table entry for subset {m} is out of range: {v}")
    return Space(gset, entries)


def _check_mask(space: Space, mask: int) -> None:
    if not 0 <= mask <= space.ground.full:
        raise MaskOutOfRange(f"subset mask out of range: {mask}")


def closure(space: Space, a: int) -> int:
    """cl(A), straight table lookup."""
    _check_mask(space, a)
    return space.table[a]


def interior(space: Space, a: int) -> int:
    """int(A) = X - cl(X - A)."""
    _check_mask(space, a)
    full = space.ground.full
    return full ^ space.table[full ^ a]


def exterior(space: Space, a: int) -> int:
    """ext(A) = X - cl(A)."""
    _check_mask(space, a)
    return space.ground.full ^ space.table[a]


def is_neighborhood(space: Space, n_set: int, x: int) -> bool:
    """N is a neighborhood of x iff x lies in int(N)."""
    if not 0 <= x < space.ground.n:
        raise ElementOutOfRange(f"element index out of range: {x}")
    return (interior(space, n_set) >> x) & 1 == 1


def are_separated(space: Space, a: int, b: int) -> bool:
    """A and B are separated iff A ∩ cl(B) = ∅ and cl(A) ∩ B = ∅."""
    _check_mask(space, a)
    _check_mask(space, b)
    return (a & space.table[b]) == 0 and (space.table[a] & b) == 0


def axiom_profile(space: Space) -> AxiomProfile:
    """Evaluate the five closure axioms on the full table.

    Isotonicity uses the single-bit-drop test, which costs O(2**n * n)
    instead of the all-pairs O(4**n) sweep; the two agree on every table,
    which the claim 'axioms-equiv-check' audits against the all-pairs kernel.
    """
    t = space.table
    n = space.ground.n
    size = space.ground.size

    grounded = t[0] == 0

    isotonic = True
    for a in range(size):
        ca = t[a]
        for x in range(n):
            bit = 1 << x
            if a & bit and t[a ^ bit] & ~ca:
                isotonic = False
                break
        if not isotonic:
            break

    enlarging = all(a & ~t[a] == 0 for a in range(size))
    idempotent = all(t[t[a]] == t[a] for a in range(size))

    sublinear = True
    for a in range(size):
        ta = t[a]
        for b in range(a, size):
            if t[a | b] & ~(ta | t[b]):
                sublinear = False
                break
        if not sublinear:
            break

    return AxiomProfile(grounded, isotonic, enlarging, idempotent, sublinear)


def _in_every_neighborhood(interiors: list[int], x: int, y: int) -> bool:
    """True iff x belongs to every neighborhood of y (vacuously true when y
    has no neighborhoods); ``interiors[N]`` is int(N)."""
    for n_set, inner in enumerate(interiors):
        if (inner >> y) & 1 and not (n_set >> x) & 1:
            return False
    return True


def symmetry_profile(space: Space) -> SymmetryProfile:
    """Evaluate the three separation-style properties by their definitions.

    r0 is evaluated by the literal double neighborhood quantifier, so that
    spaces violating isotonicity are judged faithfully.
    """
    t = space.table
    n = space.ground.n
    size = space.ground.size
    full = space.ground.full

    pointwise_symmetric = True
    for x in range(n):
        cx = t[1 << x]
        for y in range(n):
            if (t[1 << y] >> x) & 1 and not (cx >> y) & 1:
                pointwise_symmetric = False
                break
        if not pointwise_symmetric:
            break

    interiors = [full ^ t[full ^ n_set] for n_set in range(size)]
    r0 = True
    for x in range(n):
        for y in range(n):
            if _in_every_neighborhood(interiors, x, y) and not _in_every_neighborhood(
                interiors, y, x
            ):
                r0 = False
                break
        if not r0:
            break

    # for x outside cl(A), {x} and A are separated iff cl({x}) misses A
    exterior_separated = True
    for a in range(size):
        ext = full ^ t[a]
        for x in range(n):
            if (ext >> x) & 1 and t[1 << x] & a:
                exterior_separated = False
                break
        if not exterior_separated:
            break

    return SymmetryProfile(pointwise_symmetric, r0, exterior_separated)
