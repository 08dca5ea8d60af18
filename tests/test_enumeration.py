import itertools

import numpy as np
import pytest

import closurespaces as cs
import oracles
from closurespaces import _kernels, enumeration


def test_all_stream_count_n2():
    assert sum(1 for _ in cs.enumerate_spaces(2, "all")) == 256
    assert cs.class_size(2, "all") == 256


def test_all_stream_is_lexicographic_and_complete():
    seen = [sp.table for sp in cs.enumerate_spaces(2, "all")]
    expected = [tuple(t) for t in itertools.product(range(4), repeat=4)]
    assert seen == expected


def test_isotonic_count_n2_against_filter_oracle():
    by_filter = []
    for sp in cs.enumerate_spaces(2, "all"):
        universe, cl = oracles.from_space(sp)
        if oracles.isotonic(universe, cl):
            by_filter.append(sp.table)
    stream = [sp.table for sp in cs.enumerate_spaces(2, "isotonic")]
    assert len(stream) == 36
    assert sorted(stream) == sorted(by_filter)
    assert stream == sorted(stream)


def test_upset_families_counted_by_independent_filter():
    # up-closed families, found by the definition over explicit subset lists
    for n, expected in [(1, 3), (2, 6), (3, 20)]:
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
        for sp in cs.enumerate_spaces(n, "all"):
            universe, cl = oracles.from_space(sp)
            if oracles.exterior_separated(universe, cl):
                by_filter.add(sp.table)
        stream = [sp.table for sp in cs.enumerate_spaces(n, "exterior_separated")]
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
        assert enumeration.extsep_count(n) == oracles.exterior_separated_count(n)


def test_filtered_classes_are_exact():
    for sp in cs.enumerate_spaces(2, "isotonic_pointwise_symmetric"):
        assert cs.axiom_profile(sp).isotonic
        assert cs.symmetry_profile(sp).pointwise_symmetric
    for sp in cs.enumerate_spaces(2, "enlarging_isotonic"):
        prof = cs.axiom_profile(sp)
        assert prof.isotonic and prof.enlarging


def test_stream_determinism():
    first = [sp.table for sp in cs.enumerate_spaces(2, "isotonic")]
    second = [sp.table for sp in cs.enumerate_spaces(2, "isotonic")]
    assert first == second


def test_universe_too_large():
    with pytest.raises(cs.UniverseTooLarge):
        list(cs.enumerate_spaces(3, "all"))
    with pytest.raises(cs.UniverseTooLarge):
        list(cs.enumerate_spaces(4, "isotonic"))
    # the n=3 full universe opens up behind an explicit budget
    chunks = enumeration.iter_table_chunks(3, "all", budget=8**8)
    first = next(chunks)
    assert first.shape[1] == 8
    assert [int(v) for v in first[0]] == [0] * 8


def test_unknown_class():
    with pytest.raises(enumeration.UnknownClass):
        list(cs.enumerate_spaces(2, "open"))


def test_sample_spaces_deterministic_and_exact():
    for cls in cs.CLASSES:
        a = [sp.table for sp in cs.sample_spaces(2, cls, 25, seed=1)]
        b = [sp.table for sp in cs.sample_spaces(2, cls, 25, seed=1)]
        c = [sp.table for sp in cs.sample_spaces(2, cls, 25, seed=2)]
        assert a == b
        assert len(a) == 25
        assert a != c  # almost surely; seeds must matter


def test_sample_spaces_class_membership_n4():
    for sp in cs.sample_spaces(4, "isotonic", 40, seed=7):
        assert cs.axiom_profile(sp).isotonic
    for sp in cs.sample_spaces(4, "exterior_separated", 40, seed=7):
        assert cs.symmetry_profile(sp).exterior_separated
    for sp in cs.sample_spaces(4, "isotonic_pointwise_symmetric", 10, seed=7):
        assert cs.axiom_profile(sp).isotonic
        assert cs.symmetry_profile(sp).pointwise_symmetric
    for sp in cs.sample_spaces(4, "enlarging_isotonic", 40, seed=7):
        prof = cs.axiom_profile(sp)
        assert prof.isotonic and prof.enlarging
    with pytest.raises(cs.UniverseTooLarge):
        list(cs.sample_spaces(5, "all", 1, seed=0))


@pytest.mark.parametrize("cls", cs.CLASSES)
def test_samples_cover_exactly_the_enumerated_class_n2(cls):
    # catches sampled non-members and class members the sampler never draws
    sampled = {tuple(row) for row in enumeration.sample_tables(2, cls, 5000, seed=3).tolist()}
    assert sampled == {sp.table for sp in cs.enumerate_spaces(2, cls)}


_ORACLE_MEMBERSHIP = {
    "all": (),
    "isotonic": (oracles.isotonic,),
    "isotonic_pointwise_symmetric": (oracles.isotonic, oracles.pointwise_symmetric),
    "exterior_separated": (oracles.exterior_separated,),
    "enlarging_isotonic": (oracles.isotonic, oracles.enlarging),
}


@pytest.mark.parametrize("n", [3, 4])
@pytest.mark.parametrize("cls", cs.CLASSES)
def test_sampled_tables_pass_the_oracle_predicates(cls, n):
    for sp in cs.sample_spaces(n, cls, 30, seed=n):
        universe, cl = oracles.from_space(sp)
        for predicate in _ORACLE_MEMBERSHIP[cls]:
            assert predicate(universe, cl)


_LITERAL_SAMPLES = {
    "isotonic": oracles.isotonic_sample,
    "isotonic_pointwise_symmetric": oracles.isotonic_pointwise_symmetric_sample,
    "enlarging_isotonic": oracles.enlarging_isotonic_sample,
}


@pytest.mark.parametrize("n", [1, 2, 3])
@pytest.mark.parametrize("cls", list(_LITERAL_SAMPLES))
def test_isotonic_samples_match_the_literal_assembly(cls, n):
    # pins which tables a seed selects
    for seed in (0, 5):
        got = enumeration.sample_tables(n, cls, 40, seed)
        assert got.tolist() == _LITERAL_SAMPLES[cls](n, 40, seed)


def test_enumerate_maps_counts(d2, p1):
    p3 = cs.make_space(cs.ground(3), [0] * 8)
    assert sum(1 for _ in cs.enumerate_maps(d2, d2)) == 4
    assert sum(1 for _ in cs.enumerate_maps(p1, p3)) == 3
    assert sum(1 for _ in cs.enumerate_maps(p3, d2)) == 8
    with pytest.raises(cs.UniverseTooLarge):
        list(cs.enumerate_maps(d2, d2, budget=3))


def test_enumerate_maps_are_total_and_lexicographic(d2):
    maps = list(cs.enumerate_maps(d2, d2))
    assert [m.assignment for m in maps] == [(0, 0), (0, 1), (1, 0), (1, 1)]
    for m in maps:
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
