import itertools

import numpy as np
import pytest

import closurespaces as cs
import oracles
from closurespaces import _kernels, claims, enumeration


def _stream(n, cls):
    """Every table of the class as a tuple, in stream order."""
    return [
        tuple(row) for chunk in enumeration.iter_table_chunks(n, cls) for row in chunk.tolist()
    ]


def _spaces(tables, n):
    return [cs.make_space(cs.ground(n), table) for table in tables]


def test_all_stream_count_n2():
    assert len(_stream(2, "all")) == 256
    assert cs.class_size(2, "all") == 256


def test_all_stream_is_lexicographic_and_complete():
    seen = _stream(2, "all")
    expected = [tuple(t) for t in itertools.product(range(4), repeat=4)]
    assert seen == expected


def test_isotonic_count_n2_against_filter_oracle():
    by_filter = []
    for sp in _spaces(_stream(2, "all"), 2):
        universe, cl = oracles.from_space(sp)
        if oracles.isotonic(universe, cl):
            by_filter.append(sp.table)
    stream = _stream(2, "isotonic")
    assert len(stream) == 36
    assert sorted(stream) == sorted(by_filter)
    assert stream == sorted(stream)


def test_upset_families_counted_by_independent_filter():
    # up-closed families, found by the definition over explicit subset lists
    for n, expected in [(1, 3), (2, 6), (3, 20), (4, 168)]:
        assert len(oracles.upset_families(n)) == expected
        assert list(enumeration.upset_families(n)) == oracles.upset_families(n)


def test_isotonic_count_n3():
    stream = enumeration.isotonic_tables(3)
    assert stream.shape[0] == 8000 == len(enumeration.upset_families(3)) ** 3
    # strictly increasing lexicographic rows, hence no duplicates
    as_tuples = [tuple(int(v) for v in r) for r in stream]
    assert all(a < b for a, b in zip(as_tuples, as_tuples[1:]))
    # class exactness on a deterministic slice, against the set oracle
    for row in as_tuples[::971]:
        sp = cs.make_space(cs.ground(3), row)
        universe, cl = oracles.from_space(sp)
        assert oracles.isotonic(universe, cl)


def test_extsep_stream_matches_filter_oracle():
    for n in (1, 2):
        by_filter = set()
        for sp in _spaces(_stream(n, "all"), n):
            universe, cl = oracles.from_space(sp)
            if oracles.exterior_separated(universe, cl):
                by_filter.add(sp.table)
        stream = _stream(n, "exterior_separated")
        assert set(stream) == by_filter
        assert len(stream) == len(by_filter) == cs.class_size(n, "exterior_separated")
    assert cs.class_size(1, "exterior_separated") == 4
    assert cs.class_size(2, "exterior_separated") == 52


def test_extsep_n3_count_and_exactness():
    tables = enumeration.extsep_tables(3)
    assert tables.shape[0] == cs.class_size(3, "exterior_separated") == 51040
    # strictly increasing rows, all members: with the count, the exact class
    as_tuples = [tuple(r) for r in tables.tolist()]
    assert all(a < b for a, b in zip(as_tuples, as_tuples[1:]))
    assert _kernels.kernel("symmetry_flags")(tables, 3)[:, 2].all()
    for row in tables[::4993]:
        sp = cs.make_space(cs.ground(3), [int(v) for v in row])
        assert cs.symmetry_profile(sp).exterior_separated


def test_extsep_count_matches_literal_count():
    for n in (1, 2, 3, 4):
        assert cs.class_size(n, "exterior_separated") == oracles.exterior_separated_count(n)


def test_filtered_classes_are_exact():
    for sp in _spaces(_stream(2, "isotonic_pointwise_symmetric"), 2):
        assert cs.axiom_profile(sp).isotonic
        assert cs.symmetry_profile(sp).pointwise_symmetric


def test_stream_determinism():
    first = _stream(2, "isotonic")
    second = _stream(2, "isotonic")
    assert first == second


def test_universe_too_large():
    # every class streams up to n = 3 and no further, 'all' included
    for cls in ("all", "isotonic"):
        with pytest.raises(cs.UniverseTooLarge):
            enumeration.chunk_loaders(4, cls)
        with pytest.raises(cs.UniverseTooLarge):
            _stream(4, cls)
    # the n=3 full universe streams, decoded a chunk at a time
    chunks = enumeration.iter_table_chunks(3, "all")
    first = next(chunks)
    assert first.shape == (1 << 14, 8)
    assert [int(v) for v in first[0]] == [0] * 8


def test_chunk_size_is_keyword_only():
    # enumeration takes no budget: a positional count is refused, not read
    # as a chunk size
    for stream in (enumeration.chunk_loaders, enumeration.iter_table_chunks):
        with pytest.raises(TypeError):
            list(stream(2, "all", 200_000))
    assert len(enumeration.chunk_loaders(2, "all", chunk_size=100)) == 3


@pytest.mark.parametrize("cls", ["isotonic", "isotonic_pointwise_symmetric", "exterior_separated"])
def test_generated_streams_are_in_lexsort_order(cls):
    # the one-key sort orders each stream as a sort by every entry, entry
    # for subset 0 most significant
    for n in (1, 2, 3):
        rows = np.concatenate([load() for load in enumeration.chunk_loaders(n, cls)])
        assert np.array_equal(rows, rows[np.lexsort(rows.T[::-1])])


def _column_major(a, n):
    # each subset's column is contiguous, in the logical (count, 2**n) shape
    return a.ndim == 2 and a.shape[1] == 1 << n and a.strides[0] == a.itemsize


def test_every_producer_is_column_major(monkeypatch):
    for n in (1, 2, 3):
        for cls in cs.CLASSES:
            for load in enumeration.chunk_loaders(n, cls, chunk_size=1000):
                assert _column_major(load(), n), (n, cls)
    for n in (1, 2, 3, 4):
        for cls in cs.CLASSES:
            tables = enumeration.sample_tables(n, cls, 50, seed=n)
            assert _column_major(tables, n), (n, cls)
            assert _column_major(_kernels._separation_rows(tables, n), n), (n, cls)
    for n in (3, 4):
        assert _column_major(claims._relation_sample(n, 51, seed=0), n)
    # the relation rows and the map codomain that the plan builds at n <= 2
    codomains = []
    step = claims._step
    monkeypatch.setattr(
        claims, "_step", lambda nx, ny, impls, ty=None: codomains.append(ty) or step(nx, ny, impls, ty)
    )
    impls = claims.CATALOG["thm-reconstruct"].implications + claims.CATALOG["thm-cp-cont"].implications
    for n in (1, 2):
        for impl in impls:  # the relations, and codomain classes isotonic and 'all'
            loaders, _, _, exhaustive = claims._plan(n, [impl], 10**8, 0, 0)
            assert exhaustive
            built = loaders[0]() if impl.universe == "relations" else codomains[-1]
            assert _column_major(built, n), (n, impl.universe)


def test_unknown_class():
    with pytest.raises(enumeration.UnknownClass):
        _stream(2, "open")


def _samples(n, cls, count, seed):
    return _spaces(enumeration.sample_tables(n, cls, count, seed).tolist(), n)


def test_sample_spaces_deterministic_and_exact():
    for cls in cs.CLASSES:
        a = [sp.table for sp in _samples(2, cls, 25, seed=1)]
        b = [sp.table for sp in _samples(2, cls, 25, seed=1)]
        c = [sp.table for sp in _samples(2, cls, 25, seed=2)]
        assert a == b
        assert len(a) == 25
        assert a != c  # almost surely; seeds must matter


def test_sample_spaces_class_membership_n4():
    for sp in _samples(4, "isotonic", 40, seed=7):
        assert cs.axiom_profile(sp).isotonic
    for sp in _samples(4, "exterior_separated", 40, seed=7):
        assert cs.symmetry_profile(sp).exterior_separated
    for sp in _samples(4, "isotonic_pointwise_symmetric", 10, seed=7):
        assert cs.axiom_profile(sp).isotonic
        assert cs.symmetry_profile(sp).pointwise_symmetric
    with pytest.raises(cs.UniverseTooLarge):
        enumeration.sample_tables(5, "all", 1, seed=0)


@pytest.mark.parametrize("cls", cs.CLASSES)
def test_samples_cover_exactly_the_enumerated_class_n2(cls):
    # catches sampled non-members and class members the sampler never draws
    sampled = {tuple(row) for row in enumeration.sample_tables(2, cls, 5000, seed=3).tolist()}
    assert sampled == set(_stream(2, cls))


_ORACLE_MEMBERSHIP = {
    "all": (),
    "isotonic": (oracles.isotonic,),
    "isotonic_pointwise_symmetric": (oracles.isotonic, oracles.pointwise_symmetric),
    "exterior_separated": (oracles.exterior_separated,),
}


@pytest.mark.parametrize("n", [3, 4])
@pytest.mark.parametrize("cls", cs.CLASSES)
def test_sampled_tables_pass_the_oracle_predicates(cls, n):
    for sp in _samples(n, cls, 30, seed=n):
        universe, cl = oracles.from_space(sp)
        for predicate in _ORACLE_MEMBERSHIP[cls]:
            assert predicate(universe, cl)


_LITERAL_SAMPLES = {
    "isotonic": oracles.isotonic_sample,
    "isotonic_pointwise_symmetric": oracles.isotonic_pointwise_symmetric_sample,
    "exterior_separated": oracles.exterior_separated_sample,
}


# the isotonic oracles filter all 2**16 up-set candidates at n = 4, so only
# the exterior-separated sampler is pinned there
@pytest.mark.parametrize(
    "cls,n",
    [(cls, n) for cls in _LITERAL_SAMPLES for n in (1, 2, 3)] + [("exterior_separated", 4)],
)
def test_isotonic_samples_match_the_literal_assembly(cls, n):
    # pins which tables a seed selects
    for seed in (0, 5):
        got = enumeration.sample_tables(n, cls, 40, seed)
        assert got.tolist() == _LITERAL_SAMPLES[cls](n, 40, seed)


def test_no_generator_calls_a_kernel(monkeypatch):
    # every class is assembled directly, never filtered through a kernel
    def refuse(name):
        raise AssertionError(f"generator called the {name} kernel")

    monkeypatch.setattr(_kernels, "kernel", refuse)
    for fn in vars(enumeration).values():
        if hasattr(fn, "cache_clear"):
            fn.cache_clear()  # so nothing is served from an earlier build
    for n in (1, 2, 3):
        for cls in cs.CLASSES:
            for load in enumeration.chunk_loaders(n, cls):
                load()
    for n in (3, 4):
        for cls in cs.CLASSES:
            assert enumeration.sample_tables(n, cls, 50, seed=n).shape == (50, 1 << n)


@pytest.mark.parametrize("cls", cs.CLASSES)
def test_class_size_is_exact_for_every_class(cls):
    for n in (1, 2, 3):
        size = cs.class_size(n, cls)
        assert type(size) is int
        if (cls, n) != ("all", 3):
            assert size == len(_stream(n, cls))
    size = cs.class_size(4, cls)
    assert type(size) is int
    expected = {
        "all": 16**16,
        "isotonic": 168**4,
        "isotonic_pointwise_symmetric": 240_496_704,
        "exterior_separated": 290_507_588_066_992,
    }
    assert size == expected[cls]


@pytest.mark.parametrize("cls", cs.CLASSES)
def test_class_size_counts_the_one_empty_table_at_n0(cls):
    assert cs.class_size(0, cls) == 1


@pytest.mark.parametrize("cls", ["isotonic", "isotonic_pointwise_symmetric", "exterior_separated"])
def test_class_size_refuses_n5_before_building_the_up_sets(cls):
    # filtering the 2**32 up-set candidates at n = 5 would take a 32 GiB array,
    # and an exterior-separated matrix's table count would overflow int64
    with pytest.raises(cs.UniverseTooLarge):
        cs.class_size(5, cls)


@pytest.mark.parametrize("n,per_table", [(2, 2000), (3, 200)])
def test_pointwise_symmetric_sampler_is_uniform(n, per_table):
    # per_table draws per class member on average; a fixed seed, so the
    # bound of 5 standard deviations sqrt(per_table) is a fixed outcome
    tables = _stream(n, "isotonic_pointwise_symmetric")
    assert len(tables) == {2: 18, 3: 1736}[n]
    draws = enumeration.sample_tables(
        n, "isotonic_pointwise_symmetric", len(tables) * per_table, seed=11
    )
    # a table's number in the lexicographic all-tables universe
    size = 1 << n
    weights = size ** np.arange(size - 1, -1, -1, dtype=np.int64)
    seen, counts = np.unique(draws @ weights, return_counts=True)
    assert seen.tolist() == (np.array(tables) @ weights).tolist()
    assert np.abs(counts - per_table).max() <= 5 * per_table**0.5


@pytest.mark.parametrize(
    "cls,n,cells,draws",
    [
        (cls, 2, "tables", 2000 * cs.class_size(2, cls))
        for cls in cs.CLASSES
        if cls != "isotonic_pointwise_symmetric"
    ]
    + [("exterior_separated", 3, "matrices", 200_000)],
)
def test_samplers_are_uniform(cls, n, cells, draws):
    # every cell, a class member or a singleton matrix, gets its share of the
    # draws within 5 binomial standard deviations; a fixed seed, so the bound
    # is a fixed outcome
    tables = enumeration.sample_tables(n, cls, draws, seed=11)
    if cells == "tables":
        # a table's number in the lexicographic all-tables universe
        size = 1 << n
        digits = size ** np.arange(size - 1, -1, -1, dtype=np.int64)
        members = np.array(_stream(n, cls)) @ digits
        seen, counts = np.unique(tables @ digits, return_counts=True)
        assert seen.tolist() == members.tolist()
        share = 1 / len(members)
    else:
        # a table's singleton rows as a matrix number: bit k fills the k-th
        # slot (x, y), x <= y, the order in which _extsep_parts lists them
        slots = itertools.combinations_with_replacement(range(n), 2)
        number = sum(((tables[:, 1 << x] >> y) & 1) << k for k, (x, y) in enumerate(slots))
        weights = enumeration._extsep_parts(n)[-1]
        counts = np.bincount(number, minlength=len(weights))
        share = weights / weights.sum()
    assert np.all(np.abs(counts - draws * share) <= 5 * np.sqrt(draws * share * (1 - share)))


def test_all_assignments_counts():
    assert enumeration.all_assignments(2, 2).shape == (4, 2)
    assert enumeration.all_assignments(1, 3).shape == (3, 1)
    assert enumeration.all_assignments(3, 2).shape == (8, 3)


def test_all_assignments_are_total_and_lexicographic(d2):
    # the order in which the hunts try maps, hence which witness comes first
    rows = [tuple(r) for r in enumeration.all_assignments(2, 2).tolist()]
    assert rows == [(0, 0), (0, 1), (1, 0), (1, 1)]
    assert [tuple(r) for r in enumeration.all_assignments(3, 2).tolist()] == list(
        itertools.product(range(2), repeat=3)
    )
    for row in rows:
        m = cs.make_map(d2, d2, row)
        assert m.domain is d2 and m.codomain is d2


def test_all_tables_block_agrees_with_product():
    block = enumeration.all_tables_block(2, 10, 20)
    expected = list(itertools.product(range(4), repeat=4))[10:20]
    assert [tuple(int(v) for v in r) for r in block] == expected


@pytest.mark.parametrize(
    "n,start",
    [(3, 0), (3, 8**8 // 2), (3, 8**8 - (1 << 14)), (4, 123_456_789_012_345)],
)
def test_all_tables_block_lists_the_base_2n_digits(n, start):
    # row m holds the 2**n digits of m in base 2**n, most significant first
    size = 1 << n
    stop = start + (1 << 14)
    block = enumeration.all_tables_block(n, start, stop)
    assert block.dtype == np.int64 and block.shape == (stop - start, size)
    expected = [
        [(m // size ** (size - 1 - pos)) % size for pos in range(size)]
        for m in range(start, stop)
    ]
    assert block.tolist() == expected
