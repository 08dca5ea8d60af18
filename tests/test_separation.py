import pytest
from hypothesis import given
from hypothesis import strategies as st

import closurespaces as cs
import oracles
from closurespaces import enumeration

from test_core import spaces

A, B, AB = 1, 2, 3


def test_separated_pairs_d2(d2):
    # exactly the disjoint pairs, self-pairs included
    assert sorted(cs.separated_pairs(d2).pairs) == [(0, 0), (0, 1), (0, 2), (0, 3), (1, 2)]


def test_separated_pairs_i2(i2):
    assert cs.separated_pairs(i2).pairs == frozenset({(0, 0)})


def test_separated_pairs_single_point(p1):
    assert sorted(cs.separated_pairs(p1).pairs) == [(0, 0), (0, 1)]


@given(spaces())
def test_separated_pairs_match_oracle(sp):
    universe, cl = oracles.from_space(sp)
    assert oracles.relation_pairs_from(sp, cs.separated_pairs(sp)) == oracles.separated_pairs(
        universe, cl
    )


def test_relation_canonicalization(d2):
    rel = cs.make_relation(d2.ground, [(B, A), (A, B), (0, 0)])
    assert rel.pairs == frozenset({(A, B), (0, 0)})
    assert rel.contains(B, A) and rel.contains(A, B)
    with pytest.raises(cs.MaskOutOfRange):
        cs.make_relation(d2.ground, [(0, 4)])


def test_conditions_hold_for_d2_relation(d2):
    report = cs.check_relation_conditions(cs.separated_pairs(d2))
    assert report.ok
    assert report.witness1 is None and report.witness2 is None


def test_condition1_witness(d2):
    # {{a},{b}} alone: dropping {a} to the empty set must stay related
    rel = cs.make_relation(d2.ground, [(A, B)])
    report = cs.check_relation_conditions(rel)
    assert not report.condition1
    assert report.witness1 == (0, A, B)
    # the witness really violates the condition when re-checked
    a, b, c = report.witness1
    assert a & ~b == 0 and rel.contains(b, c) and not rel.contains(a, c)


def test_condition2_witness(d2):
    # all singleton hypotheses toward the full set hold, yet {0, full} is missing
    rel = cs.make_relation(d2.ground, [(0, 0), (0, A), (0, B)])
    report = cs.check_relation_conditions(rel)
    assert report.condition1
    assert not report.condition2
    assert report.witness2 == (0, AB)


def test_condition2_forces_empty_self_pair(p1):
    # with both sides empty the hypotheses are vacuous, so {0,0} is required
    rel = cs.make_relation(p1.ground, [])
    report = cs.check_relation_conditions(rel)
    assert not report.condition2
    assert report.witness2 == (0, 0)


@given(spaces(max_n=2))
def test_conditions_match_oracle_on_space_relations(sp):
    rel = cs.separated_pairs(sp)
    universe, _ = oracles.from_space(sp)
    pairs = oracles.relation_pairs_from(sp, rel)
    cond1, cond2 = oracles.conditions(universe, pairs)
    report = cs.check_relation_conditions(rel)
    assert (report.condition1, report.condition2) == (cond1, cond2)


def test_closure_from_relation_roundtrips_d2(d2):
    rebuilt = cs.closure_from_relation(cs.separated_pairs(d2))
    assert rebuilt.table == d2.table


def test_closure_from_relation_single_point(p1):
    rel = cs.make_relation(p1.ground, [(0, 0), (0, 1)])
    assert cs.closure_from_relation(rel).table == (0, 1)


def test_closure_from_relation_rejects_empty_relation(p1):
    rel = cs.make_relation(p1.ground, [])
    with pytest.raises(cs.ConditionsViolated) as err:
        cs.closure_from_relation(rel)
    assert err.value.report.witness2 == (0, 0)


def test_reconstruction_matches_oracle_formula(d2):
    rel = cs.separated_pairs(d2)
    universe, _ = oracles.from_space(d2)
    expected = oracles.reconstructed_closure(universe, oracles.relation_pairs_from(d2, rel))
    rebuilt = cs.closure_from_relation(rel)
    for mask in range(d2.ground.size):
        subset = oracles.mask_to_set(d2, mask)
        assert oracles.mask_to_set(rebuilt, rebuilt.table[mask]) == expected[subset]


@pytest.mark.parametrize("n", [1, 2])
def test_every_relation_matches_oracles(n):
    # all 2**(number of pairs) relations: 8 at n = 1, 1024 at n = 2
    g = cs.ground(n)
    size = g.size
    universe = frozenset(range(n))
    canonical = [(a, b) for a in range(size) for b in range(a, size)]

    def to_set(mask):
        return frozenset(x for x in range(n) if (mask >> x) & 1)

    for bits in range(1 << len(canonical)):
        chosen = [p for k, p in enumerate(canonical) if (bits >> k) & 1]
        rel = cs.make_relation(g, chosen)
        pairs = {frozenset({to_set(a), to_set(b)}) for a, b in chosen}
        report = cs.check_relation_conditions(rel)
        assert (report.condition1, report.condition2) == oracles.conditions(universe, pairs)
        witnesses = oracles.first_witnesses(n, {frozenset(p) for p in chosen})
        assert (report.witness1, report.witness2) == witnesses
        if not report.ok:
            with pytest.raises(cs.ConditionsViolated):
                cs.closure_from_relation(rel)
            continue
        rebuilt = cs.closure_from_relation(rel)
        expected = oracles.reconstructed_closure(universe, pairs)
        assert {to_set(a): to_set(c) for a, c in enumerate(rebuilt.table)} == expected


def _class_spaces(n, cls):
    for chunk in enumeration.iter_table_chunks(n, cls):
        for table in chunk.tolist():
            yield cs.make_space(cs.ground(n), table)


def test_separated_pairs_downward_closed_on_isotonic_spaces():
    # shrinking either member of a separated pair keeps it separated
    for sp in _class_spaces(2, "isotonic"):
        assert cs.check_relation_conditions(cs.separated_pairs(sp)).condition1


def test_roundtrip_ok(d2, c2):
    assert cs.closure_from_relation(cs.separated_pairs(d2)) == d2
    # c2 is not pointwise-symmetric, so its separated pairs fail the
    # conditions or rebuild a different space
    try:
        rebuilt = cs.closure_from_relation(cs.separated_pairs(c2))
    except cs.ConditionsViolated:
        rebuilt = None
    assert rebuilt != c2


def test_roundtrip_holds_on_small_isotonic_pws_spaces():
    for sp in _class_spaces(2, "isotonic_pointwise_symmetric"):
        assert cs.closure_from_relation(cs.separated_pairs(sp)) == sp


@given(spaces(max_n=2), st.integers(0, 1023))
def test_random_relations_reconstruct_iff_conditions(sp, bits):
    size = sp.ground.size
    universe_pairs = [(a, b) for a in range(size) for b in range(a, size)]
    chosen = [p for k, p in enumerate(universe_pairs) if (bits >> k) & 1]
    rel = cs.make_relation(sp.ground, chosen)
    report = cs.check_relation_conditions(rel)
    try:
        rebuilt = cs.closure_from_relation(rel)
        succeeded = True
    except cs.ConditionsViolated:
        rebuilt = None
        succeeded = False
    assert succeeded == report.ok
    if rebuilt is not None:
        assert cs.axiom_profile(rebuilt).isotonic
        assert cs.symmetry_profile(rebuilt).pointwise_symmetric
        assert cs.separated_pairs(rebuilt).pairs == rel.pairs
