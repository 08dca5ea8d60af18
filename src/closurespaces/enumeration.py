"""Exhaustive and sampled generators for spaces and maps at desk scale.

Exhaustive streams are deterministic and lexicographic over table entries
(entry for subset 0 most significant).  Two class families avoid filtering the
full (2**n)**(2**n) universe.  Each family has one vectorized assembler, shared
by its exhaustive stream, its seeded sampler and its class count; only the
source of the parameters differs (every combination, or seeded draws):

* isotonic tables factor into one upward-closed family of subsets per output
  bit.  :func:`_isotonic_rows` builds tables from one up-set pick per bit.
  The enlarging isotonic tables are the picks, for bit x, among the up-sets
  that contain {x}.
* exterior-separated tables are exactly those whose singleton rows form a
  symmetric matrix R and whose entry for each A contains the forced mask
  {x : R(x) meets A}.  :func:`_matrix_rows` turns matrix bits into the rows R
  and :func:`_forced` gives the forced masks; the stream adds every
  combination of extra bits, the sampler one uniform draw per entry.

The isotonic samplers draw one pick per output bit, so a seed always selects
the same tables.  The exterior-separated sampler draws all matrix bits in one
call and then all extra bits in one call.  Its distribution is that of the
earlier per-table draws, but a seed now selects different tables.

Both constructions are cross-checked against filter-based oracles in the
test suite.
"""

from __future__ import annotations

import itertools
from functools import lru_cache, partial
from typing import Callable, Iterator

import numpy as np

from . import _kernels
from .core import ClosureSpaceError, Space, ground
from .maps import SpaceMap, make_map

CLASSES = (
    "all",
    "isotonic",
    "isotonic_pointwise_symmetric",
    "exterior_separated",
    "enlarging_isotonic",
)

DEFAULT_TABLE_BUDGET = 200_000
DEFAULT_MAP_BUDGET = 1_000_000
SAMPLE_MAX_N = 4


class UniverseTooLarge(ClosureSpaceError):
    """Requested exhaustive stream exceeds the table budget."""


class UnknownClass(ClosureSpaceError):
    """Generator class tag not in CLASSES."""


def _check_class(cls: str) -> None:
    if cls not in CLASSES:
        raise UnknownClass(f"unknown generator class: {cls!r}")


@lru_cache(maxsize=None)
def upset_families(n: int) -> tuple[int, ...]:
    """All upward-closed families of subsets of an n-element set.

    A family is a bitmask over the 2**n subsets: bit A set means A belongs.
    Found by filtering all families; counts are 3, 6, 20, 168 for n=1..4.
    """
    size = 1 << n
    fams = np.arange(1 << size, dtype=np.int64)
    ok = np.ones(fams.shape[0], bool)
    for a in range(size):
        for x in range(n):
            if (a >> x) & 1:
                continue
            b = a | (1 << x)
            ok &= ~((((fams >> a) & 1) == 1) & (((fams >> b) & 1) == 0))
    return tuple(int(f) for f in fams[ok])


def _isotonic_rows(fams, picks: np.ndarray, n: int) -> np.ndarray:
    """One table per row of ``picks``: bit j of entry A is set iff A belongs
    to the up-set ``fams[j][picks[:, j]]``."""
    subsets = np.arange(1 << n)
    rows = np.zeros((picks.shape[0], 1 << n), np.int64)
    for j in range(n):
        chosen = np.asarray(fams[j], np.int64)[picks[:, j]]
        rows |= ((chosen[:, None] >> subsets) & 1) << j
    return rows


@lru_cache(maxsize=8)
def isotonic_tables(n: int) -> np.ndarray:
    """All isotonic tables on n elements, lexicographic, as an int64 array."""
    if n > 3:
        raise UniverseTooLarge(f"isotonic enumeration is limited to n <= 3, got {n}")
    fams = upset_families(n)
    picks = np.indices((len(fams),) * n).reshape(n, -1).T
    rows = _isotonic_rows((fams,) * n, picks, n)
    ordered = rows[np.lexsort(rows.T[::-1])]
    ordered.setflags(write=False)  # cached and shared; callers must not mutate
    return ordered


def _matrix_count(n: int) -> int:
    """Number of symmetric boolean n x n matrices (diagonal free)."""
    return 1 << (n * (n + 1) // 2)


def _matrix_rows(bits: np.ndarray, n: int) -> np.ndarray:
    """(count, n) per-element row masks of symmetric boolean matrices; bit k
    of ``bits`` fills the k-th slot (x, y), x <= y, in row-major order."""
    rows = np.zeros((bits.shape[0], n), np.int64)
    for k, (x, y) in enumerate(itertools.combinations_with_replacement(range(n), 2)):
        bit = (bits >> k) & 1
        rows[:, x] |= bit << y
        rows[:, y] |= bit << x
    return rows


def _forced(rows: np.ndarray, n: int) -> np.ndarray:
    """(count, 2**n) forced masks {x : rows[x] meets A}; by symmetry the mask
    of a singleton {x} is row x itself."""
    subsets = np.arange(1 << n)
    forced = np.zeros((rows.shape[0], 1 << n), np.int64)
    for x in range(n):
        forced |= ((rows[:, x, None] & subsets) != 0).astype(np.int64) << x
    return forced


def _free_entries(n: int) -> list[int]:
    """Subsets whose entry may hold extra bits: all but the singletons,
    whose entries the matrix fixes."""
    return [a for a in range(1 << n) if a & (a - 1) or a == 0]


_MATRIX_BATCH = 1 << 14


def extsep_count(n: int) -> int:
    """Exact number of exterior-separated tables on n elements.

    Each symmetric matrix contributes 2**k tables, k being the number of bits
    outside the forced masks of its free entries.  Matrices go in batches, so
    the working set stays at (batch, 2**n) entries for every n.
    """
    full = (1 << n) - 1
    popcount = np.array([bin(m).count("1") for m in range(1 << n)])
    free = _free_entries(n)
    total = 0
    for start in range(0, _matrix_count(n), _MATRIX_BATCH):
        bits = np.arange(start, min(start + _MATRIX_BATCH, _matrix_count(n)))
        forced = _forced(_matrix_rows(bits, n), n)
        free_bits = popcount[full ^ forced[:, free]].sum(axis=1)
        total += sum(int(c) << f for f, c in enumerate(np.bincount(free_bits)))
    return total


@lru_cache(maxsize=8)
def extsep_tables(n: int) -> np.ndarray:
    """All exterior-separated tables on n elements, lexicographic."""
    if n > 3:
        raise UniverseTooLarge(
            f"exterior-separated enumeration is limited to n <= 3, got {n}"
        )
    size = 1 << n
    full = size - 1
    # by_rank[f, d] is the d-th submask of f in ascending order
    by_rank = np.zeros((size, size), np.int64)
    choices = np.zeros(size, np.int64)
    for f in range(size):
        subs = [s for s in range(size) if s & ~f == 0]
        by_rank[f, : len(subs)] = subs
        choices[f] = len(subs)
    tables = _forced(_matrix_rows(np.arange(_matrix_count(n)), n), n)
    for a in _free_entries(n):
        # one copy of each table per choice of extra bits at entry a
        free = full ^ tables[:, a]
        reps = choices[free]
        tables = np.repeat(tables, reps, axis=0)
        rank = np.arange(tables.shape[0]) - np.repeat(np.cumsum(reps) - reps, reps)
        tables[:, a] |= by_rank[np.repeat(free, reps), rank]
    ordered = tables[np.lexsort(tables.T[::-1])]
    ordered.setflags(write=False)  # cached and shared; callers must not mutate
    return ordered


def class_size(n: int, cls: str) -> int | None:
    """Exact class size where it is known without filtering, else None."""
    _check_class(cls)
    size = 1 << n
    if cls == "all":
        return size**size
    if cls == "isotonic":
        return len(upset_families(n)) ** n
    if cls == "exterior_separated":
        return extsep_count(n)
    return None


def all_tables_block(n: int, start: int, stop: int) -> np.ndarray:
    """Rows start..stop of the full lexicographic table universe at size n.

    Row m lists the 2**n base-2**n digits of m, most significant first; a
    digit is n bits wide, so entry pos is (m >> n*(2**n - 1 - pos)) & (2**n - 1).
    The array is the transpose of a C-ordered (2**n, stop - start) array, so
    each entry's column is contiguous, as the kernels read it.
    """
    size = 1 << n
    m = np.arange(start, stop, dtype=np.int64)
    shifts = n * np.arange(size - 1, -1, -1, dtype=np.int64)
    return ((m >> shifts[:, None]) & (size - 1)).T


def slice_loaders(tables: np.ndarray, chunk_size: int) -> list[Callable[[], np.ndarray]]:
    """Loaders of consecutive ``chunk_size``-row slices of an array in memory."""
    return [
        partial(tables.__getitem__, slice(start, start + chunk_size))
        for start in range(0, tables.shape[0], chunk_size)
    ]


def chunk_loaders(
    n: int,
    cls: str = "all",
    budget: int | None = None,
    chunk_size: int = 1 << 14,
) -> list[Callable[[], np.ndarray]]:
    """The class universe as loaders of consecutive chunks, in lexicographic
    order; calling a loader returns its chunk as an int64 table array.

    The universe is checked against ``budget`` here, before any chunk is
    loaded: raises UniverseTooLarge when the universe (the unfiltered base
    universe, for the filtered classes) exceeds ``budget`` tables.  A loader
    of class 'all' decodes its rows only when called, so a caller holds only
    the chunks it is evaluating; the other classes are cached arrays, sliced.
    """
    _check_class(cls)
    limit = DEFAULT_TABLE_BUDGET if budget is None else int(budget)

    if cls == "all":
        total = class_size(n, "all")
        if total > limit:
            raise UniverseTooLarge(
                f"class 'all' at n={n} has {total} tables, over the budget of {limit}"
            )
        return [
            partial(all_tables_block, n, start, min(start + chunk_size, total))
            for start in range(0, total, chunk_size)
        ]

    # the generated families stop at n = 3; refuse before counting them
    if n > 3:
        raise UniverseTooLarge(f"class {cls!r} enumeration is limited to n <= 3, got {n}")

    if cls == "exterior_separated":
        total = extsep_count(n)
        if total > limit:
            raise UniverseTooLarge(
                f"class 'exterior_separated' at n={n} has {total} tables, "
                f"over the budget of {limit}"
            )
        tables = extsep_tables(n)
    else:  # the isotonic family
        if class_size(n, "isotonic") > limit:
            raise UniverseTooLarge(
                f"isotonic base universe at n={n} exceeds the budget of {limit}"
            )
        tables = isotonic_tables(n)
        if cls == "isotonic_pointwise_symmetric":
            flags = _kernels.kernel("symmetry_flags")(tables, n)
            tables = tables[flags[:, 0] == 1]
        elif cls == "enlarging_isotonic":
            flags = _kernels.kernel("axiom_flags")(tables, n)
            tables = tables[flags[:, 2] == 1]
    return slice_loaders(tables, chunk_size)


def iter_table_chunks(
    n: int,
    cls: str = "all",
    budget: int | None = None,
    chunk_size: int = 1 << 14,
) -> Iterator[np.ndarray]:
    """Stream the class universe as int64 table arrays in lexicographic order.

    Raises UniverseTooLarge when the universe (the unfiltered base universe,
    for the filtered classes) exceeds ``budget`` tables.
    """
    for load in chunk_loaders(n, cls, budget, chunk_size):
        yield load()


def spaces_from_tables(n: int, tables: np.ndarray) -> Iterator[Space]:
    g = ground(n)
    for row in tables:
        yield Space(g, tuple(int(v) for v in row))


def enumerate_spaces(
    n: int, cls: str = "all", budget: int | None = None
) -> Iterator[Space]:
    """Every space of the class at carrier size n, exactly once, in
    lexicographic table order."""
    for chunk in iter_table_chunks(n, cls, budget):
        yield from spaces_from_tables(n, chunk)


# ---------------------------------------------------------------------------
# seeded samplers
# ---------------------------------------------------------------------------


def _sample_tables(n: int, cls: str, count: int, seed: int) -> np.ndarray:
    size = 1 << n
    rng = np.random.default_rng(seed)

    if cls == "all":
        return rng.integers(0, size, size=(count, size), dtype=np.int64)

    if cls == "isotonic":
        fams = upset_families(n)
        picks = rng.integers(0, len(fams), size=(count, n))
        return _isotonic_rows((fams,) * n, picks, n)

    if cls == "isotonic_pointwise_symmetric":
        # rejection from the isotonic sampler, checked definitionally
        rows = np.zeros((count, size), np.int64)
        got = 0
        attempt = 0
        while got < count:
            batch = _sample_tables(n, "isotonic", max(count, 64), seed + 7919 * attempt)
            flags = _kernels.kernel("symmetry_flags")(batch, n)
            keep = batch[flags[:, 0] == 1]
            take = min(count - got, keep.shape[0])
            rows[got : got + take] = keep[:take]
            got += take
            attempt += 1
            if attempt > 10_000:
                raise RuntimeError("rejection sampling failed to converge")
        return rows

    if cls == "enlarging_isotonic":
        # the family of bit x must contain {x}, hence every subset with x;
        # these up-sets are in the order of the up-sets of the n - 1 other
        # elements they restrict to
        fams = [tuple(f for f in upset_families(n) if (f >> (1 << x)) & 1) for x in range(n)]
        picks = rng.integers(0, len(fams[0]), size=(count, n))
        return _isotonic_rows(fams, picks, n)

    # remaining class: exterior_separated
    forced = _forced(_matrix_rows(rng.integers(0, _matrix_count(n), size=count), n), n)
    extra = rng.integers(0, size, size=(count, size), dtype=np.int64)
    extra[:, [1 << x for x in range(n)]] = 0  # singleton entries are fixed
    return forced | extra


def sample_spaces(n: int, cls: str, count: int, seed: int) -> Iterator[Space]:
    """Exactly ``count`` class members, deterministic for a fixed seed."""
    yield from spaces_from_tables(n, sample_tables(n, cls, count, seed))


def sample_tables(n: int, cls: str, count: int, seed: int) -> np.ndarray:
    """Array form of :func:`sample_spaces`, for the sweep kernels."""
    _check_class(cls)
    if n > SAMPLE_MAX_N:
        raise UniverseTooLarge(f"sampling is limited to n <= {SAMPLE_MAX_N}, got {n}")
    return _sample_tables(n, cls, count, seed)


# ---------------------------------------------------------------------------
# maps
# ---------------------------------------------------------------------------


def all_assignments(nx: int, ny: int) -> np.ndarray:
    """Every total assignment of nx domain elements into ny targets, lex."""
    rows = np.array(list(itertools.product(range(ny), repeat=nx)), np.int64)
    return rows.reshape(-1, nx)


def enumerate_maps(x: Space, y: Space, budget: int | None = None) -> Iterator[SpaceMap]:
    """All total maps from x to y in lexicographic assignment order."""
    limit = DEFAULT_MAP_BUDGET if budget is None else int(budget)
    total = y.ground.n ** x.ground.n
    if total > limit:
        raise UniverseTooLarge(
            f"{total} maps from {x.ground.n} into {y.ground.n} elements, "
            f"over the budget of {limit}"
        )
    for combo in itertools.product(range(y.ground.n), repeat=x.ground.n):
        yield make_map(x, y, combo)
