"""Exhaustive and sampled table generators for the four classes at desk scale.

Exhaustive streams are deterministic and lexicographic over table entries
(entry for subset 0 most significant).  Every table array they and the
samplers return has the logical shape (count, 2**n) in column-major memory,
so each subset's column is contiguous; a row slice keeps that.  No class is
found by filtering a larger universe.  Each class but 'all' has one
vectorized assembler, shared by its exhaustive stream, its seeded sampler
and its count in :func:`class_size`; only the source of the parameters
differs (every combination, or seeded draws).  The four classes:

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
  {x : R(x) meets A}.  :func:`_extsep_rows` numbers them matrix by matrix
  too, R owning 2**k numbers, k being the number of bits outside the forced
  masks of the entries that are not singletons.

Both matrix-built classes keep one cached parts table per n (the matrices'
parameters and table counts) and one decoder from table numbers, which
finds the owning matrix through :func:`_runs`.  That decoder serves the
class three ways: its stream is the sorted decode of every number, its
sample the decode of uniform numbers, and its size, in :func:`class_size`,
the sum of its run lengths.  So every sampler is uniform over its class: the
'all' sampler draws every entry uniformly, the isotonic sampler one pick
per output bit, and the matrix-built samplers uniform table numbers.

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
# the rows of a chunk: the streams' default, and the sweep chunk of claims
_CHUNK = 1 << 14


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


def _monotone(cols, n):
    # cols[:, a ^ (1 << x)] ⊆ cols[:, a] for every a and every point x of a;
    # dropping one point at a time reaches every subset, so these pairs say
    # that cols[:, a] grows with a
    ok = np.ones(cols.shape[0], bool)
    for a in range(1 << n):
        for x in range(n):
            if a >> x & 1:
                ok &= (cols[:, a ^ (1 << x)] & ~cols[:, a]) == 0
    return ok


@lru_cache(maxsize=None)
def upset_families(n: int) -> tuple[int, ...]:
    """All upward-closed families of subsets of an n-element set.

    A family is a bitmask over the 2**n subsets: bit A set means A belongs.
    Found by filtering all 2**2**n families for those whose membership grows
    with the subset, by the single-point test :func:`_monotone` that the
    isotonic tables, reconstruction condition 1 and the rebuilt table's
    isotonicity are checked with too;
    counts are 3, 6, 20, 168 for n=1..4.  Above n = 4 the filter would not
    fit in memory.
    """
    if n > SAMPLE_MAX_N:
        raise UniverseTooLarge(f"up-set families are limited to n <= {SAMPLE_MAX_N}, got {n}")
    # members[a, f] = [subset a belongs to family f]: column-major once
    # transposed, and int32, which halves its 8 MB of int64 at n = 4
    fams = np.arange(1 << (1 << n), dtype=np.int32)
    members = (fams >> np.arange(1 << n, dtype=np.int32)[:, None]) & 1
    return tuple(int(f) for f in fams[_monotone(members.T, n)])


def _isotonic_rows(fams, picks: np.ndarray, n: int) -> np.ndarray:
    """One table per row of ``picks``: bit j of entry A is set iff A belongs
    to the up-set ``fams[picks[:, j]]``."""
    subsets = np.arange(1 << n)[:, None]
    chosen = np.asarray(fams, np.int64)[picks]
    cols = np.zeros((1 << n, picks.shape[0]), np.int64)
    for j in range(n):
        cols |= ((chosen[:, j] >> subsets) & 1) << j
    return cols.T


def _lexicographic(rows: np.ndarray) -> np.ndarray:
    # one key per row, its number in the lexicographic universe of all
    # tables: the entries as base-2**n digits (below 2**24 at n = 3)
    digits = rows.shape[1] ** np.arange(rows.shape[1] - 1, -1, -1)
    ordered = rows.T.take(np.argsort(rows @ digits), axis=1).T
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
    rows = np.zeros((bits.shape[0], n), np.int64, order="F")
    for k, (x, y) in enumerate(itertools.combinations_with_replacement(range(n), 2)):
        bit = (bits >> k) & 1
        rows[:, x] |= bit << y
        rows[:, y] |= bit << x
    return rows


def _runs(counts: np.ndarray, index: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The matrix owning each table number, matrix m owning the ``counts[m]``
    numbers after those of the matrices before it, and the number's offset
    in that run."""
    ends = np.cumsum(counts)
    m = np.searchsorted(ends, index, side="right")
    return m, index - (ends - counts)[m]


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
    m, rest = _runs(weights, index)
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


@lru_cache(maxsize=None)
def _extsep_parts(n: int):
    """Parameters of the exterior-separated tables.

    Returns, for each symmetric matrix R in matrix-bits order, the forced
    masks of :func:`_forced`; the free masks, the bits outside them (none at
    the singletons, whose entries R fixes); and the table count, 2 to the
    number of free bits.  Above n = 4 a count would overflow int64.
    """
    if n > SAMPLE_MAX_N:
        raise UniverseTooLarge(
            f"exterior-separated tables are limited to n <= {SAMPLE_MAX_N}, got {n}"
        )
    forced = _forced(_matrix_rows(np.arange(_matrix_count(n)), n), n)
    free = ((1 << n) - 1) ^ forced
    free[:, [1 << x for x in range(n)]] = 0
    popcount = np.array([bin(f).count("1") for f in range(1 << n)], np.int64)
    parts = (forced, free, np.int64(1) << popcount[free].sum(axis=1))
    for part in parts:
        part.setflags(write=False)  # cached and shared; callers must not mutate
    return parts


def _extsep_rows(index: np.ndarray, n: int) -> np.ndarray:
    """The exterior-separated tables numbered ``index``.

    The matrices own consecutive runs of numbers, in matrix-bits order.
    Within the run of R, the remainder's bits, least significant first, set
    the free bits of R's entries in subset order, each entry's from bit 0 up.
    """
    forced, free, counts = _extsep_parts(n)
    m, rest = _runs(counts, index)
    cols = forced.T.take(m, axis=1)  # cols[a]: entry a of every table
    for a in np.flatnonzero(free.any(axis=0)):  # every entry but the singletons
        mask = free[m, a]
        for x in range(n):
            bit = (mask >> x) & 1
            cols[a] |= (rest & bit) << x
            rest >>= bit
    return cols.T


@lru_cache(maxsize=8)
def extsep_tables(n: int) -> np.ndarray:
    """All exterior-separated tables on n elements, lexicographic."""
    _check_stream(n, "exterior_separated")
    return _lexicographic(_extsep_rows(np.arange(class_size(n, "exterior_separated")), n))


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
    parts = _pws_parts(n) if cls == "isotonic_pointwise_symmetric" else _extsep_parts(n)
    return int(parts[-1].sum())


def all_tables_block(n: int, start: int, stop: int) -> np.ndarray:
    """Rows start..stop of the full lexicographic table universe at size n.

    Row m lists the 2**n base-2**n digits of m, most significant first; a
    digit is n bits wide, so entry pos is (m >> n*(2**n - 1 - pos)) & (2**n - 1).
    The block is built entry by entry and returned transposed, so it is
    column-major like every table array here.
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
    n: int, cls: str, *, chunk_size: int = _CHUNK
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


def iter_table_chunks(n: int, cls: str, *, chunk_size: int = _CHUNK) -> Iterator[np.ndarray]:
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
        return np.asfortranarray(rng.integers(0, size, size=(count, size), dtype=np.int64))

    if cls == "isotonic":
        fams = upset_families(n)
        picks = rng.integers(0, len(fams), size=(count, n))
        return _isotonic_rows(fams, picks, n)

    decode = _pws_rows if cls == "isotonic_pointwise_symmetric" else _extsep_rows
    return decode(rng.integers(0, class_size(n, cls), size=count), n)


def all_assignments(nx: int, ny: int) -> np.ndarray:
    """Every total assignment of nx domain elements into ny targets, lex."""
    rows = np.array(list(itertools.product(range(ny), repeat=nx)), np.int64)
    return rows.reshape(-1, nx)
