from dataclasses import astuple

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import closurespaces as cs
import oracles
from closurespaces import enumeration

from test_core import spaces

A, B, AB = 1, 2, 3


@st.composite
def space_maps(draw, max_n=3):
    dom = draw(spaces(max_n))
    cod = draw(spaces(max_n))
    assignment = draw(
        st.lists(
            st.integers(0, cod.ground.n - 1),
            min_size=dom.ground.n,
            max_size=dom.ground.n,
        )
    )
    return cs.make_map(dom, cod, assignment)


def identity_map(sp):
    return cs.make_map(sp, sp, range(sp.ground.n))


def test_make_map_validation(d2, p1):
    with pytest.raises(cs.ElementOutOfRange):
        cs.make_map(d2, p1, [0, 1])
    with pytest.raises(cs.ElementOutOfRange):
        cs.make_map(d2, p1, [0])


def test_image(d2):
    ident = identity_map(d2)
    const = cs.make_map(d2, d2, [0, 0])
    assert cs.image(ident, A) == A
    assert cs.image(const, AB) == A
    assert cs.image(const, 0) == 0
    with pytest.raises(cs.MaskOutOfRange):
        cs.image(ident, 4)


def test_preimage(d2):
    ident = identity_map(d2)
    const = cs.make_map(d2, d2, [0, 0])
    assert cs.preimage(ident, B) == B
    assert cs.preimage(const, A) == AB
    assert cs.preimage(const, B) == 0


def test_identity_on_d2_has_every_property(d2):
    prof = cs.map_profile(identity_map(d2))
    assert prof == cs.MapProfile(True, True, True, True)


def test_constant_on_d2_has_every_property(d2):
    prof = cs.map_profile(cs.make_map(d2, d2, [0, 0]))
    assert prof == cs.MapProfile(True, True, True, True)


def test_identity_into_c2_has_no_property(d2, c2):
    mp = cs.make_map(d2, c2, [0, 1])
    # the full set witnesses every failure: cl_Y collapses it to nothing
    assert not cs.is_closure_preserving(mp)
    assert not cs.is_continuous(mp)
    assert not cs.is_nonseparating(mp)
    assert not cs.preimage_separation(mp)
    assert cs.map_profile(mp) == cs.MapProfile(False, False, False, False)


def test_constant_into_i2_is_nonseparating(d2, i2):
    mp = cs.make_map(d2, i2, [0, 0])
    assert cs.is_nonseparating(mp)


@given(space_maps())
def test_map_predicates_match_oracle(mp):
    ux, clx, uy, cly, f = oracles.from_map(mp)
    assert cs.is_closure_preserving(mp) == oracles.closure_preserving(ux, clx, uy, cly, f)
    assert cs.is_continuous(mp) == oracles.continuous(ux, clx, uy, cly, f)
    assert cs.is_nonseparating(mp) == oracles.nonseparating(ux, clx, uy, cly, f)
    assert cs.preimage_separation(mp) == oracles.preimage_separation(ux, clx, uy, cly, f)


@given(space_maps())
def test_image_preimage_composition(mp):
    for bmask in range(mp.codomain.ground.size):
        assert cs.image(mp, cs.preimage(mp, bmask)) & ~bmask == 0
    for amask in range(mp.domain.ground.size):
        assert amask & ~cs.preimage(mp, cs.image(mp, amask)) == 0


@given(space_maps(max_n=2))
def test_two_way_theorem_at_desk_scale(mp):
    # spot form of the catalog claims, against the plain library predicates
    if cs.is_closure_preserving(mp) and cs.axiom_profile(mp.codomain).isotonic:
        assert cs.is_continuous(mp)
    if cs.is_continuous(mp) and cs.axiom_profile(mp.domain).isotonic:
        assert cs.is_closure_preserving(mp)
    if cs.is_closure_preserving(mp):
        assert cs.is_nonseparating(mp)


def _sample_spaces(n, rng):
    """The discrete space, the discrete table with point 0 added to every
    entry (so 0 has no neighborhood), four uniform tables and, up to the
    samplers' n, three sampled tables of each class."""
    size = 1 << n
    rows = [list(range(size)), [a | 1 for a in range(size)]]
    rows += rng.integers(0, size, size=(4, size)).tolist()
    if n <= enumeration.SAMPLE_MAX_N:
        for k, cls in enumerate(enumeration.CLASSES):
            rows += enumeration.sample_tables(n, cls, 3, seed=k).tolist()
    return [cs.make_space(cs.ground(n), row) for row in rows]


# sizes space_maps(max_n=3) never draws, past the nx = ny = 3 corner
@pytest.mark.parametrize("nx,ny", [(4, 1), (1, 4), (4, 2), (5, 3)])
def test_map_predicates_match_oracle_past_hypothesis_sizes(nx, ny):
    rng = np.random.default_rng(7)
    xs, ys = _sample_spaces(nx, rng), _sample_spaces(ny, rng)
    assignments = [[i % ny for i in range(nx)], [0] * nx, [ny - 1] * nx]
    assignments += rng.integers(0, ny, size=(3, nx)).tolist()
    seen = set()
    for i, dom in enumerate(xs):
        for j, cod in enumerate(ys):
            mp = cs.make_map(dom, cod, assignments[(i + j) % len(assignments)])
            sides = oracles.from_map(mp)
            got = cs.map_profile(mp)
            assert got == cs.MapProfile(
                oracles.closure_preserving(*sides),
                oracles.continuous(*sides),
                oracles.nonseparating(*sides),
                oracles.preimage_separation(*sides),
            ), (dom.table, cod.table, mp.assignment)
            seen.update(enumerate(astuple(got)))
    # every predicate both holds and fails somewhere in the sample
    assert seen == {(k, v) for k in range(4) for v in (False, True)}


@pytest.mark.parametrize("n", [4, 5])
def test_symmetry_profile_matches_oracle_past_hypothesis_sizes(n):
    spaces = _sample_spaces(n, np.random.default_rng(7))
    r0s = set()
    for sp in spaces:
        universe, cl = oracles.from_space(sp)
        prof = cs.symmetry_profile(sp)
        assert prof == cs.SymmetryProfile(
            oracles.pointwise_symmetric(universe, cl),
            oracles.r0(universe, cl),
            oracles.exterior_separated(universe, cl),
        ), sp.table
        r0s.add(prof.r0)
    assert r0s == {False, True}
