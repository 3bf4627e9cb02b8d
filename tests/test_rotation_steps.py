"""Rotation families built from their exact view against the per-map rule.

A rotation family with no rule reads its steps as coprime int pairs, takes
its float turns from them, and builds a map only when asked for one.  Each
test here compares such a family with a reference family whose rule builds a
CircleRotation from the same Fraction at every index and which has no exact
view: values must agree bit for bit (``repr``), forward and backward, and
every error must come at the same time index.  A block family is a rotation
family on its exact block steps, so its reference rotates by those steps.
"""

import math
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from naads import exact
from naads import (
    BudgetError,
    CircleRotation,
    Composite,
    ConstructionError,
    DomainError,
    FlowCache,
    MapFamily,
    RationalAngle,
    RationalRotationFamily,
    Space,
    Verdict,
    block_family,
    corpus,
    omega,
    r_transitivity_check,
)
from naads.cli import _inline_family

# the corpus families that are rotation families with no rule
ROTATION_NAMES = ("circle_settling", "circle_ex4", "circle_harmonic")


def _reference(angle_of) -> MapFamily:
    """The rotations by ``angle_of(n)``: a CircleRotation per index, no exact view."""
    return MapFamily(Space.CIRCLE, lambda n: CircleRotation(angle_of(n)), "reference",
                     declared_commutative=True, declared_isometric=True)


def _cycle(angles):
    """An inline rotation cycle as the CLI builds it, and its reference."""
    fam = _inline_family({"kind": "rotations", "angles": [str(a) for a in angles]})
    return fam, _reference(lambda n: angles[(n - 1) % len(angles)])


def _corpus(name):
    """A corpus rotation family, and a reference over a second copy's exact steps."""
    steps = corpus(name).exact
    return corpus(name).family, _reference(steps.step)


def _outcome(f, *args):
    """Each value's type and repr (keeping -0.0 and nan apart), or the error raised."""
    try:
        y = f(*args)
    except (DomainError, BudgetError) as exc:
        return type(exc), str(exc)
    if isinstance(y, list):
        return [(type(v), repr(v)) for v in y]
    return type(y), repr(y)


def _same_accesses(fam, ref, x, accesses):
    """Windows and single times of ``fam`` equal the reference's, in this order."""
    cache, ref_cache = FlowCache(fam), FlowCache(ref)
    for kind, n in accesses:
        if kind == "window":
            assert _outcome(cache.window, x, n) == _outcome(ref_cache.window, x, n), n
        else:
            got = _outcome(cache.omega, n, x)
            assert got == _outcome(ref_cache.omega, n, x), n
            assert got == _outcome(omega, ref, n, x), n  # one forward/inverse per map


_ANGLE = st.one_of(
    st.fractions(min_value=-2, max_value=2, max_denominator=1 << 20),
    st.sampled_from([Fraction(0), Fraction(1, 2**80), Fraction(-1, 2**80),
                     Fraction(3, 4), Fraction(1, 3)]),
)

_POINT = st.one_of(
    st.floats(min_value=0, max_value=1, exclude_max=True),
    st.sampled_from([0.0, -0.0, 1 - 2**-53, -1e-20, 1 + 1e-10]),
    st.fractions(min_value=0, max_value=1, max_denominator=64),
    # outside the circle coordinates: both families raise the same DomainError
    st.sampled_from([1.5, -0.5, math.nan]),
)

_ACCESS = st.lists(
    st.one_of(
        st.tuples(st.just("omega"), st.integers(min_value=-40, max_value=40)),
        st.tuples(st.just("window"), st.integers(min_value=0, max_value=30)),
    ),
    min_size=1,
    max_size=6,
)


class TestRandomCycles:
    @settings(max_examples=150, deadline=None)
    @given(angles=st.lists(_ANGLE, min_size=1, max_size=5), x=_POINT, accesses=_ACCESS)
    @example(angles=[Fraction(1, 2**80)], x=0.0, accesses=[("omega", -3)])
    @example(angles=[Fraction(-1, 2**80), Fraction(1, 3)], x=-1e-20,
             accesses=[("window", 4), ("omega", 9)])
    def test_windows_match(self, angles, x, accesses):
        _same_accesses(*_cycle(angles), x, accesses)

    @settings(max_examples=60, deadline=None)
    @given(angles=st.lists(_ANGLE, min_size=1, max_size=5), x=_POINT,
           r=st.sampled_from([2, 3, 4, 10]), accesses=_ACCESS)
    @example(angles=[Fraction(1, 10), Fraction(7, 10)], x=0.3, r=2,
             accesses=[("omega", -5)])  # a block inverse subtracts the block's one turn
    def test_block_windows_match(self, angles, x, r, accesses):
        # the reference reads a second copy's exact block steps
        ref = _reference(_cycle(angles)[0].exact.block(r).step)
        _same_accesses(block_family(_cycle(angles)[0], r), ref, x, accesses)


class TestCorpusFamilies:
    @pytest.mark.parametrize("name", ROTATION_NAMES)
    def test_windows_to_2000(self, name):
        fam, ref = _corpus(name)
        for x in (0.3, 0.0, 1 - 2**-53):
            _same_accesses(fam, ref, x,
                           [("omega", 7), ("window", 2000), ("omega", -2000)])

    @pytest.mark.parametrize("name", ROTATION_NAMES)
    @pytest.mark.parametrize("r", [2, 3, 4, 10])
    def test_block_windows(self, name, r):
        _same_accesses(block_family(corpus(name).family, r),
                       _reference(corpus(name).exact.block(r).step), 0.3,
                       [("window", 2000 // r), ("omega", 5), ("omega", -7)])

    @settings(max_examples=40, deadline=None)
    @given(name=st.sampled_from(ROTATION_NAMES),
           x=st.fractions(min_value=0, max_value=1, max_denominator=1000).filter(
               lambda x: x < 1),
           n=st.integers(min_value=0, max_value=60))
    def test_fraction_points_through_the_maps(self, name, x, n):
        fam, ref = _corpus(name)
        _same_accesses(fam, ref, x, [("window", n)])
        got = FlowCache(fam).window(x, n)
        assert all(type(v) is Fraction for v in got)
        # the maps built on demand hold the exact steps' values
        assert all(fam.map_at(k).angle == fam.exact.step(k)
                   for k in range(1, n + 1))

    def test_harmonic_budget_at_the_same_index(self, monkeypatch):
        # a smaller budget keeps the reference's 2,000-odd exact steps cheap
        monkeypatch.setattr(exact, "DENOMINATOR_BIT_BUDGET", 2048)
        h, k = Fraction(0), 0
        while h.denominator.bit_length() <= 2048:  # H_k is the step of f_{2k-1}
            k += 1
            h += Fraction(1, k)
        fam, ref = _corpus("circle_harmonic")
        times = (2 * k - 1, 2 * k - 2)
        got, want = ([_outcome(FlowCache(f).omega, n, 0.3) for n in times]
                     for f in (fam, ref))
        assert got == want
        assert got[0] == (BudgetError, "denominator exceeds 2048 bits")
        assert got[1][0] is float


class TestBlockFamilies:
    """A rotation family's block family rotates by its exact block steps."""

    @pytest.mark.parametrize("r", [2, 4, 10])
    @pytest.mark.parametrize("x", [0.0, 0.3, 1 - 2**-53])
    def test_identity_blocks_fix_every_point(self, r, x):
        # each even-length harmonic block is exactly the identity
        blocks = block_family(corpus("circle_harmonic").family, r)
        assert FlowCache(blocks).window(x, 50) == [x] * 101

    def test_identity_blocks_have_no_dense_orbit(self):
        # every orbit is its start point, farther than eps from one of 3 centers
        rep = r_transitivity_check(corpus("circle_harmonic").family, 2, eps=1 / 3,
                                   n_max=10, grid=8)
        assert rep.details["identity_blocks"] is True
        assert rep.details["dense_orbit"] is False
        assert rep.verdict is Verdict.INCONCLUSIVE_BUDGET

    @pytest.mark.parametrize("name", ROTATION_NAMES)
    @pytest.mark.parametrize("r", [2, 3, 10])
    def test_block_maps_are_rotations_by_the_block_steps(self, name, r):
        blocks = block_family(corpus(name).family, r)
        steps = corpus(name).exact.block(r)
        for k in (1, 2, 7, 20):  # maps compare by type and attributes
            assert blocks.map_at(k) == CircleRotation(steps.step(k))


class TestDeclarations:
    def test_needs_a_rule_or_an_exact_view(self):
        with pytest.raises(ConstructionError, match="rule or an exact view"):
            MapFamily(Space.CIRCLE, None, "nothing")

    def test_period_checked_on_the_pairs(self):
        steps = {n: (1, 3) for n in range(1, 9)} | {5: (2, 3)}
        fam = MapFamily(Space.CIRCLE, None, "broken", declared_commutative=True,
                        declared_period=1,
                        exact=RationalRotationFamily(steps.__getitem__, "broken"))
        assert FlowCache(fam).omega(4, 0.0) == omega(fam, 4, 0.0)
        for _ in range(2):
            with pytest.raises(ConstructionError, match="f_5 differs from f_4"):
                FlowCache(fam).window(0.3, 6)
            with pytest.raises(ConstructionError, match="f_5 differs from f_4"):
                fam.map_at(5)


class TestWork:
    """A float window of a rotation family builds no map and no angle."""

    @pytest.fixture
    def built(self, monkeypatch):
        counts = dict.fromkeys(("CircleRotation", "Composite", "RationalAngle"), 0)
        for cls in (CircleRotation, Composite, RationalAngle):
            def counted(self, *args, _init=cls.__init__, _name=cls.__name__):
                counts[_name] += 1
                _init(self, *args)
            monkeypatch.setattr(cls, "__init__", counted)
        return counts

    def test_harmonic_window(self, built):
        FlowCache(corpus("circle_harmonic").family).window(0.3, 500)
        assert built == {"CircleRotation": 0, "Composite": 0, "RationalAngle": 0}

    def test_harmonic_block_window(self, built):
        FlowCache(block_family(corpus("circle_harmonic").family, 10)).window(0.3, 50)
        assert built == {"CircleRotation": 0, "Composite": 0, "RationalAngle": 0}
