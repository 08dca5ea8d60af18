"""Batch kernels behind the enumeration sweeps.

Each kernel evaluates one family of predicates for a whole batch of
instances at once: numpy operations run over the instance axis while Python
loops run only over subsets and points, whose number depends on n alone.
``python3 perfbench/run.py`` times the kernels inside the sweeps that use
them.

Tables arrive as integer arrays of shape (count, 2**n) whose entries are
n-bit masks: the enumerators and samplers build int64 ones, and
``_reconstruct_flags`` passes the uint8 table it rebuilds to
``_separation_rows``, ``_symmetry_flags`` and ``_monotone``, which read any
integer dtype.  Every table and separation-row array the package builds is
column-major (``_separation_rows`` writes it too): each subset's column
``t[:, a]``, which the kernels read one at a time, is contiguous.  A kernel
never reorders its input; a row-major one gives the same flags, only more
slowly.  Flag outputs are bool with one row per instance.  Kernels are
pure: they never write their inputs.

A flag kernel of several columns takes an optional third argument,
``columns``: the indices of the columns to return, in the order given, all
of them by default.  The axiom, criteria and reconstruction kernels skip
the work of each column not asked for, as ``build_map_tables`` does for
its bound words; the symmetry kernel computes its three together and
returns those asked for.

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
``separation.SeparationRelation``: an array of shape (count, 2**n) whose
bit b of ``rows[s, a]`` is set iff subsets a and b are separated in space
s, or related in relation s.  A row is held in the unsigned dtype of its
2**n bits, ``_row_dtype(n)``: uint8 up to n = 3, uint16 at n = 4, up to
uint64 at n = 6 = MAX_ROW_N, beyond which these kernels refuse; the sweeps
stop at n = 4.  Every row array the package builds has that dtype, and the
neighbourhood masks read off rows are uint8.  The formula, criteria and
round-trip kernels derive the rows from tables, and read the closure the
separated pairs determine off them as one route, the neighbourhoods
nb[a] = {x : {x} and a are not separated};
``reconstruct_flags`` takes separation rows, not tables: it checks the two
reconstruction conditions on each relation and the table the relation
rebuilds.

A row takes no loop over pairs.  Subsets a and b are separated iff b misses
cl(a) and cl(b) misses a.  The first part depends on the value cl(a) alone,
so it is one gather from a lookup of 2**n words, ``disjoint[m]`` = the
subsets that miss m, indexed by the table cast once to bytes.  The second
part is the AND, over the points x of a, of the word z[x] = {b : x not in
cl(b)}: n shift-and-OR packs per table, then one AND per subset.  The rows
of the table nb that a relation rebuilds turn reconstruction condition 2
into one word test: its hypothesis for (a, b), a ∩ nb[b] = ∅ and
b ∩ nb[a] = ∅, says that nb separates a and b, so the condition reads
"rebuilt rows ⊆ rows".

Each morphism predicate of a map f: X -> Y says that cl_X(A) misses a set
outside[A] for every A ⊆ X, and outside depends on the codomain table and
f alone.  ``build_map_tables`` packs these sets into one bound word per
codomain table, assignment and predicate asked for (a sweep step asks for
the predicates its implications read): the nx-bit field of subset A sits
at bit offset nx * A, so a word holds nx * 2**nx bits, which fit 64 for
nx <= 4 (larger nx raises UniverseTooLarge).  Every field of the four
words is f⁻¹(S) for a codomain subset S, or an OR of such, so all four take
one route and no loop over pairs: a uint8 gather of the subsets S, one
gather of their preimages, then a pack that ORs those sharing a field.
Since f is total, f⁻¹(Y∖S) = X∖f⁻¹(S), so the closure words gather the
complements Y∖cl_Y(B) of the codomain table; the separation words gather
unions of codomain subsets from one cached lookup ``unions[w]``, the union
of the subsets whose bits are set in the row word w.  The lookup has
2**2**ny entries, so the builder refuses ny > 4, where the sweeps stop.
The ``map_flags`` kernel packs each domain table the same way and reads
predicate p as ``(table word & bound word) == 0``.  The split lets a sweep
build the bounds once per codomain block, then check every domain chunk
against them with one broadcast AND.
"""

from __future__ import annotations

import functools

import numpy as np

from .enumeration import UniverseTooLarge, _monotone

# perfbench records these and fails any run whose backend is not numpy.
BACKEND = "numpy"
HAVE_NUMBA = False

# 2**6 = 64 bits, the widest separation row, a uint64
MAX_ROW_N = 6


def _incomparable_pairs(n):
    # the subset pairs a < b where neither contains the other
    size = 1 << n
    return [(a, b) for a in range(size) for b in range(a + 1, size) if a & b not in (a, b)]


def _all_hold(flags, count):
    # the AND of a stream of bool columns over count instances
    ok = np.ones(count, bool)
    for flag in flags:
        ok &= flag
    return ok


def _axiom_flags(tables, n, columns=(0, 1, 2, 3, 4)):
    count = tables.shape[0]
    size = 1 << n

    def idempotent():
        rows = np.arange(count)
        return _all_hold((tables[rows, tables[:, a]] == tables[:, a] for a in range(size)), count)

    def sublinear():
        # cl(a | b) ⊆ cl(a) | cl(b) holds trivially when one of a, b contains
        # the other
        pairs = _incomparable_pairs(n)
        holds = ((tables[:, a | b] & ~(tables[:, a] | tables[:, b])) == 0 for a, b in pairs)
        return _all_hold(holds, count)

    flags = (
        lambda: tables[:, 0] == 0,
        lambda: _monotone(tables, n),
        lambda: _all_hold(((a & ~tables[:, a]) == 0 for a in range(size)), count),
        idempotent,
        sublinear,
    )
    return np.stack([flags[c]() for c in columns], axis=1)


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


def _symmetry_flags(tables, n, columns=(0, 1, 2)):
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
    flags = ((bad.view(np.uint8)[:, :count] & 1) == 0).T
    # all three, as the all-tables sweep asks, stay a view: a gather copies
    return flags if columns == (0, 1, 2) else flags[:, columns]


def _pack(fields, xs, nx, dtype):
    # one word per row of the leading axes: fields[..., u] in the nx-bit
    # field of subset xs[..., u], ORed over the last axis; with nx = 1 and
    # xs = 0..k-1, bit b of each word is fields[..., b]
    shifts = (nx * xs).astype(dtype)
    return np.bitwise_or.reduce(fields.astype(dtype, copy=False) << shifts, axis=-1)


def _row_dtype(n):
    # the unsigned dtype of a 2**n-bit separation row: uint8 up to n = 3
    return np.dtype(f"uint{max(8, 1 << n)}")


@functools.cache
def _disjoint_words(n):
    # disjoint[m]: the word of the subsets that miss m
    subsets = np.arange(1 << n)
    disjoint = _pack((subsets[:, None] & subsets) == 0, subsets, 1, _row_dtype(n))
    disjoint.setflags(write=False)  # cached and shared
    return disjoint


@functools.cache
def _unions(n):
    # unions[w]: the union of the subsets whose bits are set in the row word
    # w; the words below 2**(b + 1) are those below 2**b, then each plus b
    unions = np.zeros(1, np.uint8)
    for b in range(1 << n):
        unions = np.concatenate([unions, unions | b])
    unions.setflags(write=False)  # cached and shared
    return unions


def _separation_rows(tables, n):
    # rows[s, a]: bit b set iff subsets a and b are separated in space s,
    # that is, b misses cl(a) and cl(b) misses a
    if n > MAX_ROW_N:
        raise ValueError(f"a separation row of 2**{n} bits does not fit 64 bits")
    dtype = _row_dtype(n)
    cols = tables.astype(np.uint8)  # a mask of n <= 6 points fits a byte
    # z[x]: the word of the b whose closure misses x, for every table
    subsets = np.arange(1 << n)
    missing = (~cols).astype(dtype, copy=False)
    z = [_pack(missing >> x & 1, subsets, 1, dtype) for x in range(n)]
    # apart[s, a]: the AND of z[x] over the points x of a.  The subsets whose
    # highest point is x are the subsets of the lower points, each plus x, so
    # one slice per point fills them
    apart = np.empty(tables.shape, dtype, order="F")
    apart[:, 0] = np.iinfo(dtype).max
    for x in range(n):
        np.bitwise_and(apart[:, : 1 << x], z[x][:, None], out=apart[:, 1 << x : 2 << x])
    return np.bitwise_and(apart, _disjoint_words(n)[cols], out=apart)


def _neighbourhoods(rows, n):
    # nb[s, a] = {x : bit {x} of rows[s, a] clear}: the closure of a that the
    # separated pairs determine, as uint8 masks
    related = np.zeros(rows.shape, np.uint8, order="F")
    for x in range(n):
        related |= (rows >> (1 << x) & 1).astype(np.uint8) << x
    return related ^ np.uint8((1 << n) - 1)


def _formula_flags(tables, n):
    # does cl(A) equal {x : {x} and A are not separated}, for every A?
    return (_neighbourhoods(_separation_rows(tables, n), n) == tables).all(axis=1)


def _criteria_flags(tables, n, columns=(0, 1, 2, 3)):
    count = tables.shape[0]
    size = 1 << n
    rows = _separation_rows(tables, n)
    # only the groundedness and sufficiency criteria read the neighbourhoods
    nb = functools.cache(functools.partial(_neighbourhoods, rows, n))

    def idem_sufficient():
        # b inside nb[a] forces nb[b] inside nb[a].  g[m], the union of nb[b]
        # over every b ⊆ m, must then lie inside m = nb[a].  One OR per point
        # builds g; the reshape splits only the subset axis, so it is a view
        # of g in any layout
        masks = nb()
        g = masks.copy(order="F")
        for x in range(n):
            halves = g.reshape(count, size >> (x + 1), 2, 1 << x)
            halves[:, :, 1] |= halves[:, :, 0]
        return ((np.take_along_axis(g, masks, axis=1) | masks) == masks).all(axis=1)

    flags = (
        lambda: nb()[:, 0] == 0,
        # related pairs must be disjoint: rows[a] may name only subsets missing a
        lambda: ((rows & ~_disjoint_words(n)) == 0).all(axis=1),
        # whatever is related to b and to c is related to b | c; this holds
        # trivially when one of b, c contains the other
        lambda: _all_hold(
            ((rows[:, b] & rows[:, c] & ~rows[:, b | c]) == 0 for b, c in _incomparable_pairs(n)),
            count,
        ),
        idem_sufficient,
    )
    return np.stack([flags[c]() for c in columns], axis=1)


def _roundtrip_flags(tables, n):
    rows = _separation_rows(tables, n)
    # condition 2 asks that the rows of the table nb rebuilds lie inside rows;
    # when nb equals the table, those rows are rows itself.  Condition 1 asks
    # rows[b] ⊆ rows[a] for a ⊆ b: the complemented rows grow with the subset
    rebuilds_table = (_neighbourhoods(rows, n) == tables).all(axis=1)
    return rebuilds_table & _monotone(~rows, n)


def _reconstruct_flags(rows, n, columns=(0, 1, 2, 3)):
    # the conditions on the relations, then what the table nb they rebuild
    # is: isotonic, pointwise-symmetric, separating exactly the given pairs.
    # Condition 1 is as in _roundtrip_flags.  Condition 2 (a ∩ nb[b] = ∅ and
    # b ∩ nb[a] = ∅ force {a, b} related) reads: the pairs nb separates are
    # related
    nb = _neighbourhoods(rows, n)
    rebuilt = _separation_rows(nb, n)
    flags = (
        lambda: _monotone(~rows, n) & ((rebuilt & ~rows) == 0).all(axis=1),
        lambda: _monotone(nb, n),
        lambda: _symmetry_flags(nb, n)[:, 0],
        lambda: (rebuilt == rows).all(axis=1),
    )
    return np.stack([flags[c]() for c in columns], axis=1)


def _map_flags(tx_block, ty, fmaps, bounds, nx, ny):
    # predicate p of map (i, j, f) holds iff the word of table i misses the
    # bound word bounds[j, f, p], for each column p the bounds hold; ny only
    # names the size pair
    if bounds.shape[:2] != (ty.shape[0], fmaps.shape[0]):
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


def build_map_tables(
    ty: np.ndarray, fmaps: np.ndarray, nx: int, ny: int, columns: tuple[int, ...] = (0, 1, 2, 3)
) -> np.ndarray:
    """Bound words of the maps from nx points into the codomain tables ``ty``
    under the assignments ``fmaps``, an array of shape (len(ty), len(fmaps),
    len(columns)): one column per morphism predicate that ``columns`` names,
    by its index in ``MapProfile`` field order, in the order given.  Only the
    words asked for are built, and the codomain's separation rows only for a
    separation word.  The field of A ⊆ X in each word is the set cl_X(A)
    must miss:

    * closure-preserving: the complement of f⁻¹(cl_Y(f(A)));
    * continuous: the complement of f⁻¹(cl_Y(B)), ORed over every B with
      f⁻¹(B) = A;
    * nonseparating: every B ⊆ X such that f(A) and f(B) are separated in Y;
    * preimage-separating: f⁻¹(D), ORed over every separated pair (C, D)
      of Y with f⁻¹(C) = A.

    Each field is f⁻¹(S) for a codomain subset S, or an OR of such, so
    every word is one uint8 gather of the subsets S, one gather of their
    preimages from pres, and a pack.  As f is total, X∖f⁻¹(S) = f⁻¹(Y∖S):
    the closure words gather Y∖cl_Y(f(A)) and Y∖cl_Y(B) from the
    complemented codomain table.  The separation words gather from
    ``_unions(ny)``: the B ⊆ X with f(B) = C have union f⁻¹(C) when
    C ⊆ f(X), and none otherwise, so the nonseparating field of A is f⁻¹ of
    the union of the C ⊆ f(X) separated from f(A); the preimage-separating
    field of f⁻¹(C) is f⁻¹ of the union of the D separated from C.  The
    temporaries hold 2**max(nx, ny) entries per word, so a large codomain
    is best passed a slice at a time.  Raises UniverseTooLarge when the
    nx * 2**nx bits of a word exceed 64, or when ny > 4."""
    if nx << nx > 64:
        raise UniverseTooLarge(f"a map bound word of {nx} * 2**{nx} bits does not fit 64 bits")
    if ny > 4:
        raise UniverseTooLarge(f"a union lookup of 2**2**{ny} words is too large")
    dtype = np.min_scalar_type((1 << (nx << nx)) - 1)
    points = np.arange(nx)
    # xs[f, a] = A and ys[f, b] = B; imgs[f, a] = f(A) and pres[f, b] = f⁻¹(B)
    xs = np.broadcast_to(np.arange(1 << nx), (fmaps.shape[0], 1 << nx))
    ys = np.broadcast_to(np.arange(1 << ny), (fmaps.shape[0], 1 << ny))
    imgs = np.bitwise_or.reduce((xs[..., None] >> points & 1) << fmaps[:, None, :], axis=-1)
    pres = np.bitwise_or.reduce((ys[..., None] >> fmaps[:, None, :] & 1) << points, axis=-1)
    fs = np.arange(fmaps.shape[0])[:, None]

    def field(cs, at):
        # f⁻¹(cs[..., f, u]) in the field of at[f, u]
        return _pack(pres[fs, cs], at, nx, dtype)

    full = (1 << ny) - 1
    # outside[s, b] = Y \ cl_Y(b), whose preimage is X \ f⁻¹(cl_Y(b))
    outside = (ty ^ full).astype(np.uint8)
    rows = functools.cache(functools.partial(_separation_rows, ty, ny))
    # the words of the subsets of f(X): those that miss its complement
    onto = _disjoint_words(ny)[imgs[:, -1] ^ full][:, None]
    words = (
        lambda: field(outside[:, imgs], xs),
        lambda: field(outside[:, None], pres),
        lambda: field(_unions(ny)[rows()[:, imgs] & onto], xs),
        lambda: field(_unions(ny)[rows()][:, None], pres),
    )
    return np.stack([words[c]() for c in columns], axis=-1)
