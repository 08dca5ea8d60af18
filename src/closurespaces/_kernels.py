"""Batch kernels behind the enumeration sweeps.

Each kernel evaluates one family of predicates for a whole batch of
instances at once: numpy operations run over the instance axis while Python
loops run only over subsets and points, whose number depends on n alone.
``python3 perfbench/run.py`` times the kernels inside the sweeps that use
them.

Tables arrive as int64 arrays of shape (count, 2**n) in column-major
memory, the one layout of every table and separation-row array the package
builds (``_separation_rows`` writes it too): each subset's column
``t[:, a]``, which the kernels read one at a time, is contiguous.  A kernel
never reorders its input; a row-major one gives the same flags, only more
slowly.  Flag outputs are bool with one row per instance.  Kernels are
pure: they never write their inputs.

``symmetry_flags`` works on byte lanes (broadword code, Knuth, TAOCP 4A
§7.1.3).  It copies the columns once into uint8 and views them as uint64,
so each word holds eight tables, one byte each, and every later step is a
bitwise operation or a right shift by y < n <= 8.  Only bit 0 of a lane is
read at the end, and after a shift by y it is bit y of the same lane, so
tables never mix.  Pointwise symmetry and r0 each say that an n x n bit
matrix is symmetric, so they test each pair x < y once, with one XOR;
exterior separation, the first matrix inside the transpose of the second,
tests all n**2 ordered pairs.  A byte holds masks of at most 8 points.

The relation kernels hold separated pairs in the row format of
``separation.SeparationRelation``: an int64 array of shape (count, 2**n)
whose bit b of ``rows[s, a]`` is set iff subsets a and b are separated in
space s, or related in relation s.  A row holds 2**n bits, so these kernels
accept n <= MAX_ROW_N = 6; the sweeps stop at n = 4.  The formula,
criteria and round-trip kernels derive the rows from tables, and read the
closure the separated pairs determine off them as one route, the
neighbourhoods nb[a] = {x : {x} and a are not separated};
``reconstruct_flags`` takes separation rows, not tables: it checks the two
reconstruction conditions on each relation and the table the relation
rebuilds.

A row takes no loop over pairs.  Subsets a and b are separated iff b misses
cl(a) and cl(b) misses a.  The first part depends on the value cl(a) alone,
so it is one gather from a lookup of 2**n words, ``disjoint[m]`` = the
subsets that miss m.  The second part is the AND, over the points x of a,
of the word z[x] = {b : x not in cl(b)}: n packs per table, then one AND
per subset.  The rows of the table nb that a relation rebuilds turn
reconstruction condition 2 into one word test: its hypothesis for (a, b),
a ∩ nb[b] = ∅ and b ∩ nb[a] = ∅, says that nb separates a and b, so the
condition reads "rebuilt rows ⊆ rows".

Each morphism predicate of a map f: X -> Y says that cl_X(A) misses a set
outside[A] for every A ⊆ X, and outside depends on the codomain table and
f alone.  ``build_map_tables`` packs these sets into one bound word per
codomain table, assignment and predicate: the nx-bit field of subset A sits
at bit offset nx * A, so a word holds nx * 2**nx bits, which fit 64 for
nx <= 4 (larger nx raises UniverseTooLarge).  The ``map_flags`` kernel packs
each domain table the same way and reads predicate p as
``(table word & bound word) == 0``.  The split lets a sweep build the bounds
once per codomain block, then check every domain chunk against them with
one broadcast AND.
"""

from __future__ import annotations

import functools

import numpy as np

from .enumeration import UniverseTooLarge, _monotone

# perfbench records these and fails any run whose backend is not numpy.
BACKEND = "numpy"
HAVE_NUMBA = False

# 2**6 = 64 bits, the width of an int64 separation row
MAX_ROW_N = 6


def _incomparable_pairs(n):
    # the subset pairs a < b where neither contains the other
    size = 1 << n
    return [(a, b) for a in range(size) for b in range(a + 1, size) if a & b not in (a, b)]


def _axiom_flags(tables, n):
    count = tables.shape[0]
    size = 1 << n

    grounded = tables[:, 0] == 0
    isotonic = _monotone(tables, n)

    enlarging = np.ones(count, bool)
    for a in range(size):
        enlarging &= (a & ~tables[:, a]) == 0

    rows = np.arange(count)
    idempotent = np.ones(count, bool)
    for a in range(size):
        ta = tables[:, a]
        idempotent &= tables[rows, ta] == ta

    # cl(a | b) ⊆ cl(a) | cl(b) holds trivially when one of a, b contains
    # the other
    sublinear = np.ones(count, bool)
    for a, b in _incomparable_pairs(n):
        sublinear &= (tables[:, a | b] & ~(tables[:, a] | tables[:, b])) == 0

    return np.stack([grounded, isotonic, enlarging, idempotent, sublinear], axis=1)


def _isotonic_all_pairs(tables, n):
    # definitional all-pairs isotonicity: the reference that the
    # axioms-equiv-check audit holds the single-point test _monotone to
    size = 1 << n
    iso = np.ones(tables.shape[0], bool)
    for b in range(size):
        cb = tables[:, b]
        a = b
        while True:
            iso &= (tables[:, a] & ~cb) == 0
            if a == 0:
                break
            a = (a - 1) & b
    return iso


def _symmetry_flags(tables, n):
    if n > 8:
        raise ValueError(f"a mask of {n} points does not fit a byte lane")
    count, size = tables.shape
    # cols[a]: cl(a) of eight tables per uint64 word, one byte lane each,
    # zero-padded to whole words.  Only bit 0 of a lane is read at the end,
    # and after a right shift by y < 8 it is bit y of the same lane, on
    # either byte order, so tables never mix
    lanes = np.zeros((size, -(-count // 8) * 8), np.uint8)
    lanes[:, :count] = tables.T
    cols = lanes.view(np.uint64)

    # out[x]: the complement of inter[x], the intersection of cl(A) over
    # every A that contains x.
    # * r0.  A neighborhood N of y misses x exactly when y is not in cl(A)
    #   for A = X \ N, a set that contains x.  So x lies in every
    #   neighborhood of y iff y is in inter[x], and r0 reads:
    #   y in inter[x] => x in inter[y].
    # * Exterior separation: x not in cl(A) => cl({x}) and A are disjoint,
    #   for every A.  cl({x}) meets A exactly when some y in A lies in
    #   cl({x}), so it reads: y in cl({x}) => x in inter[y].
    out = [
        ~functools.reduce(np.bitwise_and, (cols[a] for a in range(size) if a >> x & 1))
        for x in range(n)
    ]

    # near[x][y] and far[x][y]: cl({x}) and out[x] shifted right by y, each
    # copy built once; the shift operands stay uint64 for numpy 1.24
    ys = np.arange(n, dtype=np.uint64)
    near = [[cols[1 << x] >> y if y else cols[1 << x] for y in ys] for x in range(n)]
    far = [[w >> y if y else w for y in ys] for w in out]

    # bit 0 of bad[k] is set once some pair (x, y) fails property k.
    # Pointwise symmetry and r0 say that the bit matrices [y in cl({x})]
    # and [y in inter[x]] are symmetric, so they take one XOR per pair
    # x < y; exterior separation takes every ordered pair
    bad = np.zeros((3, cols.shape[1]), np.uint64)
    for x in range(n):
        for y in range(n):
            bad[2] |= near[x][y] & far[y][x]
            if x < y:
                bad[0] |= near[x][y] ^ near[y][x]
                bad[1] |= far[x][y] ^ far[y][x]
    return ((bad.view(np.uint8)[:, :count] & 1) == 0).T


def _pack(fields, xs, nx, dtype):
    # one word per row of the leading axes: fields[..., u] in the nx-bit
    # field of subset xs[..., u], ORed over the last axis; with nx = 1 and
    # xs = 0..k-1, bit b of each word is fields[..., b]
    shifts = (nx * xs).astype(dtype)
    return np.bitwise_or.reduce(fields.astype(dtype) << shifts, axis=-1)


def _disjoint_words(n):
    # disjoint[m]: the word of the subsets that miss m
    subsets = np.arange(1 << n)
    return _pack((subsets[:, None] & subsets) == 0, subsets, 1, np.int64)


def _separation_rows(tables, n):
    # rows[s, a]: bit b set iff subsets a and b are separated in space s,
    # that is, b misses cl(a) and cl(b) misses a
    if n > MAX_ROW_N:
        raise ValueError(f"a separation row of 2**{n} bits does not fit an int64")
    # z[x]: the word of the b whose closure misses x, for every table; at
    # n = 6 the int64 sum wraps into bit 63 as a shift would
    weights = np.int64(1) << np.arange(1 << n)
    missing = ~tables
    z = [(missing >> x & 1) @ weights for x in range(n)]
    # apart[s, a]: the AND of z[x] over the points x of a.  The subsets whose
    # highest point is x are the subsets of the lower points, each plus x, so
    # one slice per point fills them
    apart = np.empty(tables.shape, np.int64, order="F")
    apart[:, 0] = -1
    for x in range(n):
        np.bitwise_and(apart[:, : 1 << x], z[x][:, None], out=apart[:, 1 << x : 2 << x])
    return np.bitwise_and(apart, _disjoint_words(n)[tables], out=apart)


def _neighbourhoods(rows, n):
    # nb[s, a] = {x : bit {x} of rows[s, a] clear}: the closure of a that the
    # separated pairs determine
    nb = np.zeros_like(rows)
    for x in range(n):
        nb |= (~rows >> (1 << x) & 1) << x
    return nb


def _formula_flags(tables, n):
    # does cl(A) equal {x : {x} and A are not separated}, for every A?
    return (_neighbourhoods(_separation_rows(tables, n), n) == tables).all(axis=1)


def _criteria_flags(tables, n):
    count = tables.shape[0]
    size = 1 << n
    rows = _separation_rows(tables, n)
    nb = _neighbourhoods(rows, n)

    grounded_crit = nb[:, 0] == 0

    # related pairs must be disjoint: rows[a] may name only subsets missing a
    enlarging_crit = ((rows & ~_disjoint_words(n)) == 0).all(axis=1)

    # whatever is related to b and to c is related to b | c; this holds
    # trivially when one of b, c contains the other
    sublinear_crit = np.ones(count, bool)
    for b, c in _incomparable_pairs(n):
        sublinear_crit &= (rows[:, b] & rows[:, c] & ~rows[:, b | c]) == 0

    # the sufficiency condition: b inside nb[a] forces nb[b] inside nb[a].
    # g[m], the union of nb[b] over every b ⊆ m, must then lie inside m = nb[a].
    # One OR per point builds g; the reshape splits only the subset axis, so
    # it is a view of g in any layout.  Masks are narrowed to uint8 words
    nb = nb.astype(np.min_scalar_type(size - 1))
    g = nb.copy(order="F")
    for x in range(n):
        halves = g.reshape(count, size >> (x + 1), 2, 1 << x)
        halves[:, :, 1] |= halves[:, :, 0]
    idem_sufficient = ((np.take_along_axis(g, nb, axis=1) | nb) == nb).all(axis=1)

    return np.stack([grounded_crit, enlarging_crit, sublinear_crit, idem_sufficient], axis=1)


def _roundtrip_flags(tables, n):
    rows = _separation_rows(tables, n)
    # condition 2 asks that the rows of the table nb rebuilds lie inside rows;
    # when nb equals the table, those rows are rows itself.  Condition 1 asks
    # rows[b] ⊆ rows[a] for a ⊆ b: the complemented rows grow with the subset
    rebuilds_table = (_neighbourhoods(rows, n) == tables).all(axis=1)
    return rebuilds_table & _monotone(~rows, n)


def _reconstruct_flags(rows, n):
    # the conditions on the relations, then what the table nb they rebuild
    # is: isotonic, pointwise-symmetric, separating exactly the given pairs.
    # Condition 1 is as in _roundtrip_flags.  Condition 2 (a ∩ nb[b] = ∅ and
    # b ∩ nb[a] = ∅ force {a, b} related) reads: the pairs nb separates are
    # related
    nb = _neighbourhoods(rows, n)
    rebuilt = _separation_rows(nb, n)
    return np.stack(
        [
            _monotone(~rows, n) & ((rebuilt & ~rows) == 0).all(axis=1),
            _monotone(nb, n),
            _symmetry_flags(nb, n)[:, 0],
            (rebuilt == rows).all(axis=1),
        ],
        axis=1,
    )


def _closure_bound(ty, pres, ys, xs, nx, dtype):
    # X \ f⁻¹(cl_Y(ys[f, u])) in the field of xs[f, u]
    pre_cl = pres[np.arange(pres.shape[0])[:, None], ty[:, ys]]  # (sy, F, k)
    return _pack(~pre_cl & ((1 << nx) - 1), xs, nx, dtype)


def _separation_bound(rows, ys, xs, nx, dtype):
    # xs[f, v] in the field of xs[f, u], for every pair (u, v) whose
    # codomain sets ys[f, u] and ys[f, v] are separated in Y
    fields = np.stack(
        [
            np.bitwise_or.reduce((rows[:, ys[:, u], None] >> ys & 1) * xs, axis=-1)
            for u in range(ys.shape[1])
        ],
        axis=-1,
    )
    return _pack(fields, xs, nx, dtype)


def _map_flags(tx_block, ty, fmaps, bounds, nx, ny):
    # predicate p of map (i, j, f) holds iff the word of table i misses the
    # bound word bounds[j, f, p]; ny only names the size pair
    if bounds.shape != (ty.shape[0], fmaps.shape[0], 4):
        raise ValueError(
            f"bounds of shape {bounds.shape} do not cover {ty.shape[0]} codomain "
            f"tables and {fmaps.shape[0]} assignments"
        )
    words = _pack(tx_block, np.arange(1 << nx), nx, bounds.dtype)
    return (words[:, None, None, None] & bounds) == 0


_KERNELS = {
    "axiom_flags": _axiom_flags,
    "isotonic_all_pairs": _isotonic_all_pairs,
    "symmetry_flags": _symmetry_flags,
    "formula_flags": _formula_flags,
    "criteria_flags": _criteria_flags,
    "roundtrip_flags": _roundtrip_flags,
    "reconstruct_flags": _reconstruct_flags,
    "map_flags": _map_flags,
}


def kernel(name: str):
    """Fetch a kernel by name."""
    return _KERNELS[name]


def build_map_tables(ty: np.ndarray, fmaps: np.ndarray, nx: int, ny: int) -> np.ndarray:
    """Bound words of the maps from nx points into the codomain tables ``ty``
    under the assignments ``fmaps``, an array of shape (len(ty), len(fmaps), 4)
    with one column per morphism predicate, in ``MapProfile`` field order.
    The field of A ⊆ X in each word is the set cl_X(A) must miss:

    * closure-preserving: the complement of f⁻¹(cl_Y(f(A)));
    * continuous: the complement of f⁻¹(cl_Y(B)), ORed over every B with
      f⁻¹(B) = A;
    * nonseparating: every B ⊆ X such that f(A) and f(B) are separated in Y;
    * preimage-separating: f⁻¹(D), ORed over every separated pair (C, D)
      of Y with f⁻¹(C) = A.

    The temporaries hold 2**max(nx, ny) int64 entries per word, so a large
    codomain is best passed a slice at a time.  Raises UniverseTooLarge
    when the nx * 2**nx bits of a word exceed 64."""
    if nx << nx > 64:
        raise UniverseTooLarge(f"a map bound word of {nx} * 2**{nx} bits does not fit 64 bits")
    dtype = np.min_scalar_type((1 << (nx << nx)) - 1)
    points = np.arange(nx)
    # xs[f, a] = A and ys[f, b] = B; imgs[f, a] = f(A) and pres[f, b] = f⁻¹(B)
    xs = np.broadcast_to(np.arange(1 << nx), (fmaps.shape[0], 1 << nx))
    ys = np.broadcast_to(np.arange(1 << ny), (fmaps.shape[0], 1 << ny))
    imgs = np.bitwise_or.reduce((xs[..., None] >> points & 1) << fmaps[:, None, :], axis=-1)
    pres = np.bitwise_or.reduce((ys[..., None] >> fmaps[:, None, :] & 1) << points, axis=-1)
    rows = _separation_rows(ty, ny)
    return np.stack(
        [
            _closure_bound(ty, pres, imgs, xs, nx, dtype),
            _closure_bound(ty, pres, ys, pres, nx, dtype),
            _separation_bound(rows, imgs, xs, nx, dtype),
            _separation_bound(rows, ys, pres, nx, dtype),
        ],
        axis=-1,
    )
