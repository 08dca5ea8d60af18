"""Every batch kernel must agree with the set-based oracles of
tests/oracles.py, and with the plain per-space library evaluation."""

import itertools
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import closurespaces as cs
import oracles
from closurespaces import _kernels, claims, enumeration


def _near(n, classes, count):
    # samples of the classes on which most flags hold, and copies of those
    # with one closure bit flipped, which miss a property by a single entry
    near = np.concatenate([enumeration.sample_tables(n, cls, count, seed=5) for cls in classes])
    flipped = near.copy()
    rng = np.random.default_rng(5)
    rows = np.arange(flipped.shape[0])
    flipped[rows, rng.integers(0, 1 << n, rows.size)] ^= 1 << rng.integers(0, n, rows.size)
    return np.concatenate([near, flipped])


def _universe(n):
    if n <= 2:
        size = 1 << n
        return enumeration.all_tables_block(n, 0, size**size)
    # a sample of all tables holds almost no isotonic ones
    classes = ("isotonic", "isotonic_pointwise_symmetric", "exterior_separated")
    alls = enumeration.sample_tables(n, "all", 400, seed=5)
    return np.concatenate([alls, _near(n, classes, 100)])


# the classes whose n = 4 samples the sweeps feed to each kernel
_N4_CLASSES = {
    "axiom_flags": ("isotonic_pointwise_symmetric", "exterior_separated"),
    "criteria_flags": ("isotonic_pointwise_symmetric", "exterior_separated"),
    "formula_flags": ("isotonic_pointwise_symmetric", "exterior_separated"),
    "roundtrip_flags": ("isotonic_pointwise_symmetric", "exterior_separated"),
    "symmetry_flags": ("isotonic", "isotonic_pointwise_symmetric", "exterior_separated"),
}


def _as_sets(row, n):
    """(universe, closure dict) of one table row, elements labelled 0..n-1."""

    def to_set(mask):
        return frozenset(x for x in range(n) if (mask >> x) & 1)

    return frozenset(range(n)), {to_set(a): to_set(int(row[a])) for a in range(1 << n)}


def _axioms(u, cl):
    return (
        oracles.grounded(u, cl),
        oracles.isotonic(u, cl),
        oracles.enlarging(u, cl),
        oracles.idempotent(u, cl),
        oracles.sublinear(u, cl),
    )


def _symmetry(u, cl):
    return (
        oracles.pointwise_symmetric(u, cl),
        oracles.r0(u, cl),
        oracles.exterior_separated(u, cl),
    )


def _formula(u, cl):
    return oracles.reconstructed_closure(u, oracles.separated_pairs(u, cl)) == cl


def _criteria(u, cl):
    return oracles.criteria(u, oracles.separated_pairs(u, cl))


def _roundtrip(u, cl):
    pairs = oracles.separated_pairs(u, cl)
    return all(oracles.conditions(u, pairs)) and oracles.reconstructed_closure(u, pairs) == cl


SPACE_ORACLES = {
    "axiom_flags": _axioms,
    "isotonic_all_pairs": oracles.isotonic,
    "symmetry_flags": _symmetry,
    "formula_flags": _formula,
    "criteria_flags": _criteria,
    "roundtrip_flags": _roundtrip,
}


def _flags_in_either_layout(name, x, n):
    # the kernel's output, which must not depend on the memory layout of its
    # input: the package builds column-major arrays, row-major ones are
    # checked too
    by_layout = [
        _kernels.kernel(name)(layout(x), n) for layout in (np.ascontiguousarray, np.asfortranarray)
    ]
    assert np.array_equal(*by_layout), name
    return by_layout[0]


def _oracle_tables(n, name):
    # the tables kernel ``name`` is checked on against the oracles at n
    if n < 4:
        return _universe(n)
    tables = _near(n, _N4_CLASSES[name], 20)
    if name in ("criteria_flags", "formula_flags", "roundtrip_flags"):
        # the rows these kernels build assume no axiom of the table
        tables = np.concatenate([tables, enumeration.sample_tables(4, "all", 40, seed=5)])
    return tables


@pytest.mark.parametrize(
    "n,name",
    [(n, name) for n in (1, 2, 3) for name in sorted(SPACE_ORACLES)]
    # separation rows use bits up to 15 at n = 4; the symmetry kernel packs
    # eight tables into each uint64 word, one byte lane per table
    + [(4, "criteria_flags"), (4, "formula_flags"), (4, "roundtrip_flags"), (4, "symmetry_flags")],
)
def test_space_kernel_matches_oracle(n, name):
    tables = _oracle_tables(n, name)
    got = _flags_in_either_layout(name, tables, n).reshape(tables.shape[0], -1)
    for i in range(tables.shape[0]):
        want = SPACE_ORACLES[name](*_as_sets(tables[i], n))
        want = want if isinstance(want, tuple) else (want,)
        assert tuple(bool(v) for v in got[i]) == want, (name, tables[i].tolist())


@pytest.mark.parametrize(
    "n,name",
    [
        (n, name)
        for n in (1, 2, 3, 4)
        for name in ("axiom_flags", "criteria_flags", "symmetry_flags", "reconstruct_flags")
    ],
)
def test_flag_kernel_returns_the_columns_asked_for(n, name):
    # a sweep step asks a kernel for the columns it reads: every non-empty
    # sorted subset, and all of them reversed, must be the same columns of
    # the kernel's whole output, in the order asked for
    x = _relations(n) if name == "reconstruct_flags" else _oracle_tables(n, name)
    kernel = _kernels.kernel(name)
    full = kernel(x, n)
    width = full.shape[1]
    subsets = [c for r in range(1, width + 1) for c in itertools.combinations(range(width), r)]
    for columns in subsets + [tuple(reversed(range(width)))]:
        got = kernel(x, n, columns)
        assert got.dtype == bool and np.array_equal(got, full[:, columns]), columns


def _wide_tables(n):
    # at n = 5 and 6, beyond the samplers: the discrete and the empty
    # closure, whose rows fill every word bit up to 2**n - 1, and closures
    # of a few random points each beyond the subset itself
    size = 1 << n
    rng = np.random.default_rng(5)
    subsets = np.arange(size)
    extra = rng.integers(0, size, (6, size)) & rng.integers(0, size, (6, size))
    return np.concatenate([subsets[None], np.zeros((1, size), np.int64), subsets | extra])


# the unsigned dtype of 2**n bits that holds every separation row at n
_ROW_DTYPES = {1: np.uint8, 2: np.uint8, 3: np.uint8, 4: np.uint16, 5: np.uint32, 6: np.uint64}


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6])
def test_separation_rows_match_oracle(n):
    # every table up to n = 2; at n = 3 and 4, near misses of the classes
    # the sweeps feed and uniform tables, which fail every axiom; beyond,
    # a few tables whose rows reach the top bit of the word
    if n == 4:
        classes = ("isotonic", "isotonic_pointwise_symmetric", "exterior_separated")
        tables = np.concatenate(
            [_near(4, classes, 20), enumeration.sample_tables(4, "all", 200, seed=5)]
        )
    elif n > 4:
        tables = _wide_tables(n)
    else:
        tables = _universe(n)
    rows = _kernels._separation_rows(tables, n)
    size = 1 << n
    assert rows.shape == tables.shape and rows.dtype == _ROW_DTYPES[n]
    assert int(rows.max()) >> size == 0
    nb = _kernels._neighbourhoods(rows, n)
    assert nb.dtype == np.uint8
    ps = [frozenset(x for x in range(n) if a >> x & 1) for a in range(size)]
    for i in range(tables.shape[0]):
        u, cl = _as_sets(tables[i], n)
        want = oracles.separated_pairs(u, cl)
        got = [[int(rows[i, a]) >> b & 1 for b in range(size)] for a in range(size)]
        assert got == [[int(frozenset({pa, pb}) in want) for pb in ps] for pa in ps], tables[i].tolist()
        assert _as_sets(nb[i], n)[1] == oracles.reconstructed_closure(u, want)


@pytest.mark.parametrize("name", sorted(SPACE_ORACLES))
def test_space_kernel_takes_an_empty_batch(name):
    for n in (1, 3):
        out = _kernels.kernel(name)(np.zeros((0, 1 << n), np.int64), n)
        assert out.shape[0] == 0 and out.dtype == bool


def test_separation_rows_refuse_more_than_64_bits():
    with pytest.raises(ValueError, match="does not fit"):
        _kernels._separation_rows(np.zeros((1, 1 << 7), np.int64), 7)


def test_symmetry_flags_refuse_more_than_8_points():
    # a byte lane holds masks of at most 8 points
    with pytest.raises(ValueError, match="does not fit a byte lane"):
        _kernels.kernel("symmetry_flags")(np.zeros((1, 1 << 9), np.int64), 9)


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_symmetry_lanes_never_mix(n):
    # a table's flags must not depend on which tables share its uint64 word
    # or on the padding lanes of the last word: slices of 1, 7, 8 and 9 rows
    # start at every offset within a word
    tables = _universe(n)
    if n == 4:
        tables = np.concatenate([tables, _near(4, _N4_CLASSES["symmetry_flags"], 20)])
    whole = _flags_in_either_layout("symmetry_flags", tables, n)
    pieces = np.split(tables, np.cumsum([1, 7, 8, 9]))
    sliced = np.concatenate([_flags_in_either_layout("symmetry_flags", p, n) for p in pieces])
    assert np.array_equal(sliced, whole)


def test_symmetry_flags_over_all_n3_tables():
    # the all-tables sweep's chunks against the generators: exterior
    # separation holds exactly on the table numbers of extsep_tables(3), and
    # pointwise symmetry on 8**5 * 2**6 tables: the closures of the five
    # subsets that are not singletons are free, and the singleton closures
    # must form a symmetric bit matrix, whose 3 diagonal bits and 3 pairs
    # off the diagonal are free
    n, size, chunk = 3, 8, 1 << 14
    extsep, pws = [], 0
    for start in range(0, size**size, chunk):
        flags = _kernels.kernel("symmetry_flags")(
            enumeration.all_tables_block(n, start, start + chunk), n
        )
        extsep.append(start + np.flatnonzero(flags[:, 2]))
        pws += int(flags[:, 0].sum())
    digits = n * np.arange(size - 1, -1, -1, dtype=np.int64)
    numbers = (enumeration.extsep_tables(n) << digits).sum(axis=1)
    assert numbers.size == 51040
    assert np.array_equal(np.concatenate(extsep), np.sort(numbers))
    assert pws == 8**5 * 2**6 == 2**21


def _relations(n):
    """Separation rows: every relation up to n = 2; at n = 3 the relations
    the default sweep samples and 1,000 uniform ones; at n = 4 the rows of
    20 isotonic pointwise-symmetric samples and their flipped copies."""
    size = 1 << n
    npairs = size * (size + 1) // 2
    dtype = _kernels._row_dtype(n)  # the sweeps hold relations in it
    if n <= 2:
        return enumeration._matrix_rows(np.arange(1 << npairs), size).astype(dtype)
    sampled = claims._relation_sample(n, 5000 if n == 3 else 40, seed=0)
    if n == 4:
        return sampled
    uniform = np.random.default_rng(5).integers(0, 1 << npairs, 1000)
    return np.concatenate([sampled, enumeration._matrix_rows(uniform, size).astype(dtype)])


def _reconstruction(row, n):
    # the relation's conditions, then the closure it rebuilds: isotonic,
    # pointwise-symmetric, and separating exactly the relation's pairs
    u = frozenset(range(n))

    def mask(subset):
        return sum(1 << x for x in subset)

    subsets = oracles.powerset(u)
    pairs = {
        frozenset({a, b}) for a in subsets for b in subsets if int(row[mask(a)]) >> mask(b) & 1
    }
    cl = oracles.reconstructed_closure(u, pairs)
    return (
        all(oracles.conditions(u, pairs)),
        oracles.isotonic(u, cl),
        oracles.pointwise_symmetric(u, cl),
        oracles.separated_pairs(u, cl) == pairs,
    )


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_relation_kernel_matches_oracle(n):
    rows = _relations(n)
    got = _flags_in_either_layout("reconstruct_flags", rows, n)
    for i in range(rows.shape[0]):
        assert tuple(bool(v) for v in got[i]) == _reconstruction(rows[i], n), rows[i].tolist()


def _map_side(n, rng):
    # 20 tables of _universe(n); beyond n = 2, 20 more from isotonic and
    # pointwise-symmetric samples and their one-bit-flipped near misses, on
    # which the map predicates hold often enough to be checked both ways
    pools = [_universe(n)]
    if n > 2:
        pools.append(_near(n, ("isotonic", "isotonic_pointwise_symmetric"), 10))
    return np.concatenate(
        [pool[rng.choice(pool.shape[0], size=min(pool.shape[0], 20), replace=False)] for pool in pools]
    )


# (4, 1) fills all 64 bits of a bound word; at ny = 4 the separation words
# read 16-bit rows and the union lookup of 2**16 words
@pytest.mark.parametrize(
    "nx,ny",
    [(1, 1), (1, 2), (2, 1), (2, 2), (2, 3), (3, 2), (1, 3), (3, 3), (4, 1), (1, 4), (2, 4)],
)
def test_map_kernel_matches_oracle(nx, ny):
    rng = np.random.default_rng(7)
    tx, ty = _map_side(nx, rng), _map_side(ny, rng)
    fmaps = enumeration.all_assignments(nx, ny)
    bounds = _kernels.build_map_tables(ty, fmaps, nx, ny)
    assert bounds.dtype == np.min_scalar_type((1 << (nx << nx)) - 1)
    out = _kernels.kernel("map_flags")(tx, ty, fmaps, bounds, nx, ny)
    # every predicate both holds and fails somewhere in the sample
    columns = out.reshape(-1, 4)
    assert columns.max(axis=0).all() and not columns.min(axis=0).any()
    xs = [_as_sets(row, nx) for row in tx]
    ys = [_as_sets(row, ny) for row in ty]
    for k in range(fmaps.shape[0]):
        f = {x: int(fmaps[k, x]) for x in range(nx)}
        for i, (ux_i, clx) in enumerate(xs):
            for j, (uy_j, cly) in enumerate(ys):
                sides = (ux_i, clx, uy_j, cly, f)
                want = (
                    oracles.closure_preserving(*sides),
                    oracles.continuous(*sides),
                    oracles.nonseparating(*sides),
                    oracles.preimage_separation(*sides),
                )
                assert tuple(bool(v) for v in out[i, j, k]) == want


@pytest.mark.parametrize("nx,ny", [(1, 1), (2, 2), (1, 3), (3, 1), (2, 3)])
def test_map_bounds_hold_the_columns_asked_for(nx, ny):
    # a step builds only the bound words its implications read; map_flags
    # then gives the same columns of the maps' flags
    rng = np.random.default_rng(7)
    tx, ty = _map_side(nx, rng), _map_side(ny, rng)
    fmaps = enumeration.all_assignments(nx, ny)
    full = _kernels.build_map_tables(ty, fmaps, nx, ny)
    map_flags = _kernels.kernel("map_flags")
    flags = map_flags(tx, ty, fmaps, full, nx, ny)
    for columns in [(c,) for c in range(4)] + list(itertools.permutations(range(4), 2)):
        bounds = _kernels.build_map_tables(ty, fmaps, nx, ny, columns)
        assert np.array_equal(bounds, full[..., columns]), columns
        if len(columns) == 2:
            got = map_flags(tx, ty, fmaps, bounds, nx, ny)
            assert np.array_equal(got, flags[..., columns]), columns


@pytest.mark.parametrize("n", [1, 2])
def test_flag_kernels_match_library_exhaustively(n):
    tables = _universe(n)
    g = cs.ground(n)
    ax = _kernels.kernel("axiom_flags")(tables, n)
    sym = _kernels.kernel("symmetry_flags")(tables, n)
    for i in range(tables.shape[0]):
        sp = cs.Space(g, tuple(int(v) for v in tables[i]))
        prof = cs.axiom_profile(sp)
        assert tuple(bool(v) for v in ax[i]) == (
            prof.grounded,
            prof.isotonic,
            prof.enlarging,
            prof.idempotent,
            prof.sublinear,
        )
        s = cs.symmetry_profile(sp)
        assert tuple(bool(v) for v in sym[i]) == (
            s.pointwise_symmetric,
            s.r0,
            s.exterior_separated,
        )


def test_map_kernel_matches_library_on_sample():
    rng = np.random.default_rng(11)
    tables = _universe(2)
    tx = tables[rng.integers(0, 256, size=25)]
    ty = tables[rng.integers(0, 256, size=25)]
    fmaps = enumeration.all_assignments(2, 2)
    bounds = _kernels.build_map_tables(ty, fmaps, 2, 2)
    out = _kernels.kernel("map_flags")(tx, ty, fmaps, bounds, 2, 2)
    g = cs.ground(2)
    for i in range(tx.shape[0]):
        for j in range(ty.shape[0]):
            for k in range(fmaps.shape[0]):
                mp = cs.make_map(
                    cs.Space(g, tuple(int(v) for v in tx[i])),
                    cs.Space(g, tuple(int(v) for v in ty[j])),
                    tuple(int(v) for v in fmaps[k]),
                )
                prof = cs.map_profile(mp)
                assert tuple(bool(v) for v in out[i, j, k]) == (
                    prof.closure_preserving,
                    prof.continuous,
                    prof.nonseparating,
                    prof.preimage_separating,
                )


def test_map_bounds_refuse_more_than_64_bits():
    # 5 * 2**5 = 160 bits per bound word
    ty = enumeration.all_tables_block(1, 0, 4)
    with pytest.raises(enumeration.UniverseTooLarge):
        _kernels.build_map_tables(ty, enumeration.all_assignments(5, 1), 5, 1)


def test_map_bounds_refuse_a_codomain_of_more_than_4_points():
    # the union lookup of a 2**ny-bit row word has 2**2**ny entries
    ty = np.zeros((1, 1 << 5), np.int64)
    with pytest.raises(enumeration.UniverseTooLarge, match="union lookup"):
        _kernels.build_map_tables(ty, enumeration.all_assignments(1, 5), 1, 5)


def test_map_flags_refuses_bounds_of_other_tables():
    tables = enumeration.all_tables_block(2, 0, 16)
    fmaps = enumeration.all_assignments(2, 2)
    bounds = _kernels.build_map_tables(tables[:4], fmaps, 2, 2)
    with pytest.raises(ValueError, match="do not cover"):
        _kernels.kernel("map_flags")(tables, tables[:5], fmaps, bounds, 2, 2)
    with pytest.raises(ValueError, match="do not cover"):
        _kernels.kernel("map_flags")(tables, tables[:4], fmaps[:3], bounds, 2, 2)


def test_sweeps_run_with_numba_unimportable():
    code = (
        "import sys\n"
        "sys.modules['numba'] = None\n"
        "from closurespaces.cli import main\n"
        "sys.exit(main(['--quiet', 'verify', '--claim', 'cor-r0', '--n', '2']))\n"
    )
    src = str(Path(cs.__file__).resolve().parents[1])
    proc = subprocess.run(
        [sys.executable, "-c", code],
        env=dict(os.environ, PYTHONPATH=src),
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "claim=cor-r0 n=2 checked=256 violations=0 exhaustive=true\n"
