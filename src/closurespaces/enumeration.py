"""Exhaustive and sampled table generators for the four classes at desk scale.

Exhaustive streams are deterministic and lexicographic over table entries
(entry for subset 0 most significant).  No class is found by filtering a
larger universe.  Each class has one vectorized assembler, shared by its
exhaustive stream, its seeded sampler and its count in :func:`class_size`;
only the source of the parameters differs (every combination, or seeded
draws):

* all: table m lists the base-2**n digits of m (:func:`all_tables_block`).
* isotonic tables factor into one upward-closed family of subsets (up-set)
  per output bit.  :func:`_isotonic_rows` builds tables from one up-set pick
  per bit.
* isotonic pointwise-symmetric tables are the picks whose singleton
  signature M[x][y] = [{y} in U_x] is a symmetric matrix.
  :func:`_pws_rows` numbers them: matrix by matrix, M owning as many numbers
  as there are picks of an up-set with signature M[x] for every x.
* exterior-separated tables are exactly those whose singleton rows form a
  symmetric matrix R and whose entry for each A contains the forced mask
  {x : R(x) meets A}.  :func:`_matrix_rows` turns matrix bits into the rows R
  and :func:`_forced` gives the forced masks; the stream adds every
  combination of extra bits, the sampler one uniform draw per entry.

The isotonic sampler draws one pick per output bit.  The
pointwise-symmetric sampler draws uniform table numbers, so it draws M with
weight the number of its tables and then one uniform up-set per bit.  It
replaced a rejection loop over isotonic samples: the distribution, uniform
over the class, is the same, but a seed now selects different tables.  The
exterior-separated sampler draws all matrix bits in one call and then all
extra bits in one call.

All constructions are cross-checked against filter-based oracles in the
test suite.
"""

from __future__ import annotations

import itertools
from functools import lru_cache, partial
from typing import Callable, Iterator

import numpy as np

from .core import ClosureSpaceError

CLASSES = (
    "all",
    "isotonic",
    "isotonic_pointwise_symmetric",
    "exterior_separated",
)

SAMPLE_MAX_N = 4
# every class streams up to n = 3: the streams of the generated classes are
# arrays in memory (the 168**4 isotonic tables at n = 4 would take 102 GB),
# and class 'all' has 16**16 tables at n = 4
_STREAM_MAX_N = 3


class UniverseTooLarge(ClosureSpaceError):
    """Requested stream or sample lies beyond the n its generator supports."""


class UnknownClass(ClosureSpaceError):
    """Generator class tag not in CLASSES."""


def _check_class(cls: str) -> None:
    if cls not in CLASSES:
        raise UnknownClass(f"unknown generator class: {cls!r}")


def _check_stream(n: int, cls: str) -> None:
    if n > _STREAM_MAX_N:
        raise UniverseTooLarge(
            f"class {cls!r} enumeration is limited to n <= {_STREAM_MAX_N}, got {n}"
        )


@lru_cache(maxsize=None)
def upset_families(n: int) -> tuple[int, ...]:
    """All upward-closed families of subsets of an n-element set.

    A family is a bitmask over the 2**n subsets: bit A set means A belongs.
    Found by filtering all 2**2**n families; counts are 3, 6, 20, 168 for
    n=1..4.  Above n = 4 the filter would not fit in memory.
    """
    if n > SAMPLE_MAX_N:
        raise UniverseTooLarge(f"up-set families are limited to n <= {SAMPLE_MAX_N}, got {n}")
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
    to the up-set ``fams[picks[:, j]]``."""
    subsets = np.arange(1 << n)
    chosen = np.asarray(fams, np.int64)[picks]
    rows = np.zeros((picks.shape[0], 1 << n), np.int64)
    for j in range(n):
        rows |= ((chosen[:, j, None] >> subsets) & 1) << j
    return rows


def _lexicographic(rows: np.ndarray) -> np.ndarray:
    ordered = rows[np.lexsort(rows.T[::-1])]
    ordered.setflags(write=False)  # cached and shared; callers must not mutate
    return ordered


@lru_cache(maxsize=8)
def isotonic_tables(n: int) -> np.ndarray:
    """All isotonic tables on n elements, lexicographic, as an int64 array."""
    _check_stream(n, "isotonic")
    fams = upset_families(n)
    picks = np.indices((len(fams),) * n).reshape(n, -1).T
    return _lexicographic(_isotonic_rows(fams, picks, n))


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


@lru_cache(maxsize=None)
def _pws_parts(n: int):
    """Parameters of the isotonic pointwise-symmetric tables.

    Returns the up-sets sorted by singleton signature {y : {y} in U}
    (ascending within a signature); for each signature r, the index of its
    first up-set and its number c(r) of up-sets; the rows of every symmetric
    matrix M; and each M's table count, the product of c(M[x]) over x.
    """
    fams = upset_families(n)
    sig = [sum(((f >> (1 << y)) & 1) << y for y in range(n)) for f in fams]
    order = sorted(range(len(fams)), key=sig.__getitem__)
    counts = np.bincount(sig, minlength=1 << n)
    rows = _matrix_rows(np.arange(_matrix_count(n)), n)
    weights = counts[rows].prod(axis=1)
    parts = (np.cumsum(counts) - counts, counts, rows, weights)
    for part in parts:
        part.setflags(write=False)  # cached and shared; callers must not mutate
    return (tuple(fams[i] for i in order), *parts)


def _pws_rows(index: np.ndarray, n: int) -> np.ndarray:
    """The isotonic pointwise-symmetric tables numbered ``index``.

    The matrices own consecutive runs of numbers, in matrix-bits order.
    Within the run of M, the remainder's digits in mixed radix c(M[0]), ...,
    c(M[n-1]) (bit 0 most significant) pick, for each bit x, one of the
    up-sets with signature M[x].
    """
    fams, starts, counts, rows, weights = _pws_parts(n)
    ends = np.cumsum(weights)
    m = np.searchsorted(ends, index, side="right")
    rest = index - (ends - weights)[m]
    sig = rows[m]
    picks = np.empty_like(sig)
    for x in reversed(range(n)):
        radix = counts[sig[:, x]]
        picks[:, x] = starts[sig[:, x]] + rest % radix
        rest = rest // radix
    return _isotonic_rows(fams, picks, n)


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
    _check_stream(n, "exterior_separated")
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
    return _lexicographic(tables)


@lru_cache(maxsize=8)
def _pws_tables(n: int) -> np.ndarray:
    """All isotonic pointwise-symmetric tables, lexicographic."""
    return _lexicographic(_pws_rows(np.arange(class_size(n, "isotonic_pointwise_symmetric")), n))


def class_size(n: int, cls: str) -> int:
    """Exact number of tables of the class on n elements."""
    _check_class(cls)
    size = 1 << n
    if cls == "all":
        return size**size
    if cls == "isotonic":
        return len(upset_families(n)) ** n
    if cls == "isotonic_pointwise_symmetric":
        *_, weights = _pws_parts(n)
        return int(weights.sum())
    return extsep_count(n)


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
    n: int, cls: str, *, chunk_size: int = 1 << 14
) -> list[Callable[[], np.ndarray]]:
    """The class universe as loaders of consecutive chunks, in lexicographic
    order; calling a loader returns its chunk as an int64 table array.

    Raises UniverseTooLarge when n > 3, for every class.  Whether a universe
    is worth sweeping is the caller's decision, made from :func:`class_size`.
    A loader of class 'all' decodes its rows only when called, so a caller
    holds only the chunks it is evaluating; the other classes are cached
    arrays, sliced.
    """
    _check_class(cls)
    _check_stream(n, cls)  # before counting, which may not fit in memory
    if cls == "all":
        total = class_size(n, cls)
        return [
            partial(all_tables_block, n, start, min(start + chunk_size, total))
            for start in range(0, total, chunk_size)
        ]
    if cls == "isotonic":
        tables = isotonic_tables(n)
    elif cls == "exterior_separated":
        tables = extsep_tables(n)
    else:
        tables = _pws_tables(n)
    return slice_loaders(tables, chunk_size)


def iter_table_chunks(n: int, cls: str, *, chunk_size: int = 1 << 14) -> Iterator[np.ndarray]:
    """Stream the class universe as int64 table arrays in lexicographic
    order: the chunks of :func:`chunk_loaders`, loaded one at a time."""
    for load in chunk_loaders(n, cls, chunk_size=chunk_size):
        yield load()


# ---------------------------------------------------------------------------
# seeded samplers
# ---------------------------------------------------------------------------


def sample_tables(n: int, cls: str, count: int, seed: int) -> np.ndarray:
    """Exactly ``count`` class members as an int64 table array,
    deterministic for a fixed seed."""
    _check_class(cls)
    if n > SAMPLE_MAX_N:
        raise UniverseTooLarge(f"sampling is limited to n <= {SAMPLE_MAX_N}, got {n}")
    size = 1 << n
    rng = np.random.default_rng(seed)

    if cls == "all":
        return rng.integers(0, size, size=(count, size), dtype=np.int64)

    if cls == "isotonic":
        fams = upset_families(n)
        picks = rng.integers(0, len(fams), size=(count, n))
        return _isotonic_rows(fams, picks, n)

    if cls == "isotonic_pointwise_symmetric":
        return _pws_rows(rng.integers(0, class_size(n, cls), size=count), n)

    # remaining class: exterior_separated
    forced = _forced(_matrix_rows(rng.integers(0, _matrix_count(n), size=count), n), n)
    extra = rng.integers(0, size, size=(count, size), dtype=np.int64)
    extra[:, [1 << x for x in range(n)]] = 0  # singleton entries are fixed
    return forced | extra


def all_assignments(nx: int, ny: int) -> np.ndarray:
    """Every total assignment of nx domain elements into ny targets, lex."""
    rows = np.array(list(itertools.product(range(ny), repeat=nx)), np.int64)
    return rows.reshape(-1, nx)
