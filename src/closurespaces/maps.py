"""Total functions between closure spaces and the four morphism predicates.

Each predicate is evaluated by its definition over all subsets of the
relevant carrier (O(4**n) pairs in the worst case), never via the
implications between them, so those implications stay independently
checkable.  Quantifiers include the empty and full subsets.  A predicate
lists the images of every domain subset, or the preimages of every codomain
subset, once, and then reads that list.  Both separation predicates run one
loop, :func:`_reflects`: nonseparating pairs the domain subsets with their
images, preimage separation the preimages with the codomain subsets.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from .core import ElementOutOfRange, MaskOutOfRange, Space, _separated


@dataclass(frozen=True)
class SpaceMap:
    """Total function between carriers: assignment[i] is the index of f(i)."""

    domain: Space
    codomain: Space
    assignment: tuple[int, ...]


@dataclass(frozen=True)
class MapProfile:
    closure_preserving: bool
    continuous: bool
    nonseparating: bool
    preimage_separating: bool


def make_map(domain: Space, codomain: Space, assignment: Sequence[int]) -> SpaceMap:
    entries = tuple(int(v) for v in assignment)
    if len(entries) != domain.ground.n:
        raise ElementOutOfRange(
            f"assignment must cover all {domain.ground.n} domain elements, got {len(entries)}"
        )
    for i, v in enumerate(entries):
        if not 0 <= v < codomain.ground.n:
            raise ElementOutOfRange(f"assignment for element {i} is out of range: {v}")
    return SpaceMap(domain, codomain, entries)


def image(mp: SpaceMap, a: int) -> int:
    """f(A) as a codomain mask."""
    if not 0 <= a <= mp.domain.ground.full:
        raise MaskOutOfRange(f"subset mask out of range: {a}")
    m = 0
    for i in range(mp.domain.ground.n):
        if (a >> i) & 1:
            m |= 1 << mp.assignment[i]
    return m


def preimage(mp: SpaceMap, b: int) -> int:
    """f⁻¹(B) as a domain mask."""
    if not 0 <= b <= mp.codomain.ground.full:
        raise MaskOutOfRange(f"subset mask out of range: {b}")
    m = 0
    for i in range(mp.domain.ground.n):
        if (b >> mp.assignment[i]) & 1:
            m |= 1 << i
    return m


def _images(mp: SpaceMap) -> list[int]:
    """f(A) for every domain subset A, indexed by A."""
    return [image(mp, a) for a in range(mp.domain.ground.size)]


def _preimages(mp: SpaceMap) -> list[int]:
    """f⁻¹(B) for every codomain subset B, indexed by B."""
    return [preimage(mp, b) for b in range(mp.codomain.ground.size)]


def _reflects(mp: SpaceMap, xs: Sequence[int], ys: Sequence[int]) -> bool:
    """For every i <= j with ys[i], ys[j] separated in the codomain,
    xs[i], xs[j] are separated in the domain."""
    tx = mp.domain.table
    ty = mp.codomain.table
    for i, (a, c) in enumerate(zip(xs, ys)):
        for j in range(i, len(ys)):
            if _separated(ty, c, ys[j]) and not _separated(tx, a, xs[j]):
                return False
    return True


def is_closure_preserving(mp: SpaceMap) -> bool:
    """f(cl(A)) ⊆ cl(f(A)) for every domain subset A."""
    tx = mp.domain.table
    ty = mp.codomain.table
    images = _images(mp)
    return not any(images[tx[a]] & ~ty[fa] for a, fa in enumerate(images))


def is_continuous(mp: SpaceMap) -> bool:
    """cl(f⁻¹(B)) ⊆ f⁻¹(cl(B)) for every codomain subset B."""
    tx = mp.domain.table
    ty = mp.codomain.table
    preimages = _preimages(mp)
    return not any(tx[pb] & ~preimages[ty[b]] for b, pb in enumerate(preimages))


def is_nonseparating(mp: SpaceMap) -> bool:
    """Pairs with separated images were already separated in the domain."""
    return _reflects(mp, range(mp.domain.ground.size), _images(mp))


def preimage_separation(mp: SpaceMap) -> bool:
    """Preimages of separated codomain pairs are separated in the domain."""
    return _reflects(mp, _preimages(mp), range(mp.codomain.ground.size))


def map_profile(mp: SpaceMap) -> MapProfile:
    return MapProfile(
        is_closure_preserving(mp),
        is_continuous(mp),
        is_nonseparating(mp),
        preimage_separation(mp),
    )
