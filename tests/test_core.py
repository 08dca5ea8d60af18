import types

import pytest
from hypothesis import given
from hypothesis import strategies as st

import closurespaces as cs
import oracles
from closurespaces import enumeration

A, B, AB = 1, 2, 3


@st.composite
def spaces(draw, max_n=3):
    n = draw(st.integers(1, max_n))
    size = 1 << n
    table = draw(st.lists(st.integers(0, size - 1), min_size=size, max_size=size))
    return cs.make_space(cs.ground(n), table)


def test_ground_set_validation():
    with pytest.raises(ValueError):
        cs.GroundSet(())
    with pytest.raises(ValueError):
        cs.GroundSet(tuple("abcdefghijklmnopq"))
    with pytest.raises(ValueError):
        cs.GroundSet(("a", "a"))
    assert cs.ground(3).labels == ("a", "b", "c")
    assert cs.ground(2).full == 3


def test_make_space(d2):
    assert d2.table == (0, 1, 2, 3)
    with pytest.raises(cs.LengthMismatch):
        cs.make_space(cs.ground(2), [0, 1, 2])
    with pytest.raises(cs.MaskOutOfRange):
        cs.make_space(cs.ground(2), [0, 1, 2, 4])
    constant_full = cs.make_space(cs.ground(1), [1, 1])
    assert not cs.axiom_profile(constant_full).grounded


def test_closure_lookup(d2, i2, c2):
    assert cs.closure(d2, A) == A
    assert cs.closure(i2, 0) == AB
    assert cs.closure(c2, AB) == 0
    with pytest.raises(cs.MaskOutOfRange):
        cs.closure(d2, 4)


def test_interior(d2, i2, c2):
    assert cs.interior(d2, A) == A
    assert cs.interior(i2, AB) == 0
    assert cs.interior(c2, 0) == AB


def test_exterior(d2, i2, c2):
    assert cs.exterior(d2, A) == B
    assert all(cs.exterior(i2, m) == 0 for m in range(4))
    assert cs.exterior(c2, AB) == AB


def test_is_neighborhood(d2, i2, c2):
    assert cs.is_neighborhood(d2, A, 0)
    assert not cs.is_neighborhood(i2, AB, 0)
    # deliberately pathological non-isotonic case: int(empty) is the carrier
    assert cs.is_neighborhood(c2, 0, 0)
    with pytest.raises(cs.ElementOutOfRange):
        cs.is_neighborhood(d2, A, 2)


def test_are_separated(d2, i2):
    assert cs.are_separated(d2, A, B)
    assert not cs.are_separated(d2, A, A)
    assert cs.are_separated(i2, 0, 0)
    # a constant-full closure leaves nothing separated from a nonempty set
    assert not cs.are_separated(i2, 0, A)
    assert not cs.are_separated(i2, A, B)


def test_axiom_profiles(d2, i2, c2):
    assert cs.axiom_profile(d2) == cs.AxiomProfile(True, True, True, True, True)
    assert cs.axiom_profile(i2) == cs.AxiomProfile(False, True, True, True, True)
    assert cs.axiom_profile(c2) == cs.AxiomProfile(True, False, False, True, True)


def test_symmetry_profiles(d2, i2, c2):
    assert cs.symmetry_profile(d2) == cs.SymmetryProfile(True, True, True)
    assert cs.symmetry_profile(i2) == cs.SymmetryProfile(True, True, True)
    assert cs.symmetry_profile(c2) == cs.SymmetryProfile(True, True, False)


def test_fixture_profiles_match_oracle(d2, i2, c2, p1):
    for sp in (d2, i2, c2, p1):
        universe, cl = oracles.from_space(sp)
        prof = cs.axiom_profile(sp)
        assert prof.grounded == oracles.grounded(universe, cl)
        assert prof.isotonic == oracles.isotonic(universe, cl)
        assert prof.enlarging == oracles.enlarging(universe, cl)
        assert prof.idempotent == oracles.idempotent(universe, cl)
        assert prof.sublinear == oracles.sublinear(universe, cl)
        sym = cs.symmetry_profile(sp)
        assert sym.pointwise_symmetric == oracles.pointwise_symmetric(universe, cl)
        assert sym.r0 == oracles.r0(universe, cl)
        assert sym.exterior_separated == oracles.exterior_separated(universe, cl)


@given(spaces())
def test_separation_is_symmetric(sp):
    size = sp.ground.size
    for a in range(size):
        for b in range(size):
            assert cs.are_separated(sp, a, b) == cs.are_separated(sp, b, a)


@given(spaces())
def test_separation_exterior_form(sp):
    # separated iff each side sits inside the other's exterior
    size = sp.ground.size
    for a in range(size):
        for b in range(size):
            via_ext = a & ~cs.exterior(sp, b) == 0 and b & ~cs.exterior(sp, a) == 0
            assert cs.are_separated(sp, a, b) == via_ext


@given(spaces())
def test_interior_exterior_complements(sp):
    full = sp.ground.full
    for a in range(sp.ground.size):
        assert cs.interior(sp, a) == full ^ cs.closure(sp, full ^ a)
        assert cs.exterior(sp, a) == full ^ cs.closure(sp, a)


def _assert_profiles_match_oracle(sp):
    universe, cl = oracles.from_space(sp)
    prof = cs.axiom_profile(sp)
    assert prof.isotonic == oracles.isotonic(universe, cl)
    assert prof.sublinear == oracles.sublinear(universe, cl)
    sym = cs.symmetry_profile(sp)
    assert sym.pointwise_symmetric == oracles.pointwise_symmetric(universe, cl)
    assert sym.r0 == oracles.r0(universe, cl)
    assert sym.exterior_separated == oracles.exterior_separated(universe, cl)


@given(spaces())
def test_profiles_match_oracle(sp):
    _assert_profiles_match_oracle(sp)


def test_profiles_match_oracle_on_every_table_up_to_n2():
    # all 4 + 256 tables, so every r0 verdict at these sizes is pinned
    for n in (1, 2):
        size = 1 << n
        for table in enumeration.all_tables_block(n, 0, size**size).tolist():
            _assert_profiles_match_oracle(cs.make_space(cs.ground(n), table))


@given(spaces())
def test_operations_are_pure(sp):
    first = [cs.closure(sp, a) for a in range(sp.ground.size)]
    again = [cs.closure(sp, a) for a in range(sp.ground.size)]
    assert first == again
    assert cs.axiom_profile(sp) == cs.axiom_profile(sp)


def test_exports_are_sorted_and_complete():
    # every public name the package binds is exported, and nothing else
    bound = {
        name
        for name, value in vars(cs).items()
        if not name.startswith("_") and not isinstance(value, types.ModuleType)
    }
    assert cs.__all__ == sorted(cs.__all__)
    assert set(cs.__all__) == bound
