"""The map-class facts behind checked declarations, against a sampled reference.

MapFamily checks its declarations structurally: maps of one ``kind`` commute,
``isometric`` maps preserve distances, and a period means equal maps.  The
reference here samples those facts on the maps themselves, on a grid, so the
class attributes cannot drift from what the maps do.
"""

from fractions import Fraction
from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from naads import (
    CORPUS_NAMES,
    CircleRotation,
    Composite,
    PowerMap,
    Reflection,
    Space,
    block_family,
    corpus,
    metric,
    uniform_grid,
)
from naads.cli import _inline_family

TOL = 1e-9


def _commute_deviation(space, f, g, grid=17):
    """Largest distance between f(g(x)) and g(f(x)) over a uniform grid."""
    return max(
        metric(space, f.forward(g.forward(x)), g.forward(f.forward(x)))
        for x in uniform_grid(space, grid)
    )


def _isometry_deviation(space, h, grid=17):
    """Largest change of a distance under h over the pairs of a uniform grid."""
    pts = uniform_grid(space, grid)
    return max(
        abs(metric(space, h.forward(x), h.forward(y)) - metric(space, x, y))
        for x, y in combinations(pts, 2)
    )


def _periodic(space, f, g, grid=17):
    """f and g agree exactly, forward and inverse, on a uniform grid."""
    return all(
        f.forward(x) == g.forward(x) and f.inverse(x) == g.inverse(x)
        for x in uniform_grid(space, grid)
    )


_ANGLE = st.one_of(
    st.fractions(min_value=-2, max_value=2, max_denominator=1000),
    st.floats(min_value=-2, max_value=2, allow_nan=False),
)
_EXPONENT = st.fractions(min_value=Fraction(1, 4), max_value=4, max_denominator=16)


def _maps_of(leaf):
    """A leaf map, or a Composite of one to three of them."""
    return st.one_of(leaf, st.lists(leaf, min_size=1, max_size=3).map(Composite))


_ROTATION = _maps_of(_ANGLE.map(CircleRotation))
_POWER = _maps_of(_EXPONENT.map(PowerMap))


class TestClassFacts:
    @settings(max_examples=60, deadline=None)
    @given(f=_ROTATION, g=_ROTATION)
    def test_rotations_commute(self, f, g):
        assert f.kind == g.kind == "rotation"
        assert _commute_deviation(Space.CIRCLE, f, g) <= TOL

    @settings(max_examples=60, deadline=None)
    @given(f=_POWER, g=_POWER)
    def test_powers_commute(self, f, g):
        assert f.kind == g.kind == "power"
        assert _commute_deviation(Space.UNIT_INTERVAL, f, g) <= TOL

    @settings(max_examples=60, deadline=None)
    @given(h=st.one_of(
        _ROTATION.map(lambda h: (Space.CIRCLE, h)),
        _maps_of(st.sampled_from([PowerMap(1), Reflection()])).map(
            lambda h: (Space.UNIT_INTERVAL, h)),
    ))
    def test_isometric_maps_preserve_distances(self, h):
        space, h = h
        assert h.isometric
        assert _isometry_deviation(space, h) <= TOL

    @settings(max_examples=30, deadline=None)
    @given(e=_EXPONENT.filter(lambda e: e != 1))
    def test_other_powers_are_not_isometric(self, e):
        h = PowerMap(e)
        assert not h.isometric and not Composite([h, Reflection()]).isometric
        assert _isometry_deviation(Space.UNIT_INTERVAL, h) > TOL

    def test_mixed_composites_have_no_kind(self):
        assert Composite([PowerMap(2), Reflection()]).kind is None
        assert Composite([PowerMap(2), CircleRotation(0.5)]).kind is None
        assert Reflection().kind is None


def test_corpus_declarations_match_reference():
    for name in CORPUS_NAMES:
        fam = corpus(name).family
        space, maps = fam.space, [fam.map_at(n) for n in range(1, 9)]
        commute = all(_commute_deviation(space, f, g) <= TOL
                      for f, g in combinations(maps, 2))
        assert commute == fam.declared_commutative, name
        isometric = all(_isometry_deviation(space, h) <= TOL for h in maps)
        assert isometric == fam.declared_isometric, name
        p = fam.declared_period
        if p:
            assert all(_periodic(space, maps[n], maps[n + p])
                       for n in range(len(maps) - p)), name


_INLINE = st.one_of(
    st.fixed_dictionaries({
        "kind": st.just("rotations"),
        "angles": st.lists(_ANGLE.map(str), min_size=1, max_size=5),
    }),
    st.fixed_dictionaries({
        "kind": st.just("powers"),
        "exponents": st.lists(_EXPONENT.map(str), min_size=1, max_size=5),
    }),
)


class TestFamiliesBuild:
    """Every shipped family, and its block families, keeps its declarations over 64 maps."""

    @pytest.mark.parametrize("name", CORPUS_NAMES)
    def test_corpus_and_blocks(self, name):
        for r in range(1, 5):
            block_family(corpus(name).family, r).map_at(64)

    @settings(max_examples=60, deadline=None)
    @given(spec=_INLINE, r=st.integers(min_value=1, max_value=4))
    def test_inline_specs(self, spec, r):
        block_family(_inline_family(spec), r).map_at(64)
