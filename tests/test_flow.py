"""Flow evaluation, caching, block families, hull sampling, checked declarations."""

import gc
import weakref
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from naads import (
    BudgetError,
    CircleRotation,
    Composite,
    ConstructionError,
    FlowCache,
    Homeomorphism,
    MapFamily,
    PiecewiseLinear,
    PowerMap,
    PreconditionError,
    Reflection,
    SchemaError,
    Space,
    block_family,
    corpus,
    exact_hull_displacements,
    hull_closure_equality,
    hull_sample,
    metric,
    omega,
    r_transitivity_check,
)
from naads.flow import DEDUP_EPS


def _noncommuting() -> MapFamily:
    f1 = PiecewiseLinear([(0, 0), (0.5, 0.25), (1, 1)])
    f2 = PowerMap(2)
    return MapFamily(
        space=Space.UNIT_INTERVAL,
        rule=lambda n: f1 if n % 2 == 1 else f2,
        name="pl_then_square",
    )


def _bits(v):
    """Type and exact value: 0.0 and -0.0, or 0.5 and Fraction(1, 2), differ."""
    return type(v), repr(v)


def _assert_window_literal(fam, cache, x, n_max):
    win = cache.window(x, n_max)
    assert [_bits(v) for v in win] == [
        _bits(omega(fam, n, x)) for n in range(-n_max, n_max + 1)]


class TestOmega:
    def test_time_zero_is_identity(self):
        fam = corpus("example2_powers").family
        assert omega(fam, 0, 0.37) == 0.37

    def test_forward_matches_manual_composition(self):
        fam = _noncommuting()
        f1, f2 = fam.map_at(1), fam.map_at(2)
        x = 0.8
        assert omega(fam, 1, x) == f1.forward(x)
        assert omega(fam, 2, x) == f2.forward(f1.forward(x))
        assert omega(fam, 3, x) == f1.forward(f2.forward(f1.forward(x)))

    def test_backward_literal_order_for_noncommutative(self):
        # omega_{-2} must be f_1^{-1} o f_2^{-1}, never the other order
        fam = _noncommuting()
        f1, f2 = fam.map_at(1), fam.map_at(2)
        x = 0.49
        assert omega(fam, -2, x) == f1.inverse(f2.inverse(x))
        assert omega(fam, -2, x) != f2.inverse(f1.inverse(x))

    def test_backward_inverts_forward(self):
        for name in ("example1_tent_sqrt", "example2_powers", "circle_harmonic"):
            fam = corpus(name).family
            for x in (0.1, 0.35, 0.8):
                for n in (1, 2, 5, 17):
                    y = omega(fam, n, x)
                    assert metric(fam.space, omega(fam, -n, y), x) < 1e-12

    def test_map_index_validation(self):
        fam = _noncommuting()
        with pytest.raises(ConstructionError):
            fam.map_at(0)

    def test_horizon_budget(self):
        fam = MapFamily(
            Space.UNIT_INTERVAL, lambda n: PowerMap(1), "short", horizon=10
        )
        assert omega(fam, 10, 0.5) == 0.5
        with pytest.raises(BudgetError):
            omega(fam, 11, 0.5)
        with pytest.raises(BudgetError):
            omega(fam, -11, 0.5)


class TestFlowCache:
    @pytest.mark.parametrize(
        "name", ["example1_tent_sqrt", "example2_powers", "circle_settling"]
    )
    def test_cache_matches_fresh_evaluation_exactly(self, name):
        fam = corpus(name).family
        cache = FlowCache(fam)
        for x in (0.2, 0.7):
            for n in (-9, -5, -1, 0, 1, 4, 9):
                assert cache.omega(n, x) == omega(fam, n, x)
                # repeated lookups are stable
                assert cache.omega(n, x) == cache.omega(n, x)

    def test_fraction_and_float_keys_kept_apart(self):
        # Fraction(1, 2) == 0.5 and both hash alike, yet their orbits differ
        fam = corpus("circle_harmonic").family
        cache = FlowCache(fam)
        for n in (3, -3):
            assert isinstance(cache.omega(n, Fraction(1, 2)), Fraction)
            got = cache.omega(n, 0.5)
            assert type(got) is float and got == omega(fam, n, 0.5)
        fam = corpus("example1_tent_sqrt").family  # backward memo path
        cache = FlowCache(fam)
        cache.omega(-2, Fraction(1, 2))
        assert repr(cache.omega(-2, 0.5)) == repr(omega(fam, -2, 0.5))

    def test_window_indexing(self):
        fam = corpus("circle_ex4").family
        cache = FlowCache(fam)
        win = cache.window(0.1, 5)
        assert len(win) == 11
        for i, n in enumerate(range(-5, 6)):
            assert win[i] == cache.omega(n, 0.1)

    @pytest.mark.parametrize("name", ["circle_ex4", "example1_tent_sqrt"])
    def test_store_makes_no_reference_cycle(self, name):
        # the store is plain data on the family: with the cyclic collector
        # off, a served family is freed as soon as its last name is deleted
        gc.disable()
        try:
            fam = corpus(name).family
            FlowCache(fam).window(0.3, 50)
            hull_sample(fam, 0.3, order_k=2, depth=2)
            ref = weakref.ref(fam)
            del fam
            assert ref() is None
        finally:
            gc.enable()

    def test_window_centre_and_bad_size(self):
        fam = corpus("example2_powers").family
        win = FlowCache(fam).window(0.5, 3)
        assert len(win) == 7 and win[3] == 0.5
        with pytest.raises(ValueError):
            FlowCache(fam).window(0.5, -1)


class TestPeriodicStore:
    """Periodic backward trajectories reproduce the literal omega bit for bit."""

    @pytest.mark.parametrize("bad", [0, -2, 2.0, True, "2", Fraction(2)])
    def test_declared_period_must_be_positive_int(self, bad):
        with pytest.raises(ConstructionError):
            MapFamily(Space.UNIT_INTERVAL, lambda n: PowerMap(1), "bad",
                      declared_period=bad)

    def test_example1_declares_period_2(self):
        fam = corpus("example1_tent_sqrt").family
        assert fam.declared_period == 2 and not fam.declared_commutative

    def test_one_trajectory_store(self):
        fam = corpus("example1_tent_sqrt").family
        cache = FlowCache(fam)
        cache.window(0.3, 7)
        cache.omega(-9, Fraction(1, 3))
        assert vars(cache) == {"family": fam}  # the view keeps no state of its own
        # one forward and two residue trajectories per base point
        assert {k[2] for k in fam._traj if k[1] == 0.3} == {"+", 0, 1}

    @pytest.mark.parametrize("x", [0, 0.0, Fraction(1, 2), 0.5, 0.3])
    def test_example1_windows_and_times(self, x):
        fam = corpus("example1_tent_sqrt").family
        cache = FlowCache(fam)
        for n in (-7, 3, -1, 0, -8, 12, -13):
            assert _bits(cache.omega(n, x)) == _bits(omega(fam, n, x))
        for n_max in (0, 1, 2, 5, 30):
            _assert_window_literal(fam, cache, x, n_max)

    def test_window_validates_size(self):
        fam = corpus("example1_tent_sqrt").family
        cache = FlowCache(fam)
        with pytest.raises(ValueError):
            cache.window(0.3, -1)
        with pytest.raises(BudgetError):
            cache.window(0.3, fam.horizon + 1)

    def test_undeclared_family_reads_omega(self):
        fam = _noncommuting()
        cache = FlowCache(fam)
        _assert_window_literal(fam, cache, 0.45, 9)
        assert _bits(cache.omega(-4, 0.45)) == _bits(omega(fam, -4, 0.45))

    @pytest.mark.parametrize("r, period", [(2, 1), (3, 2), (4, 1)])
    def test_block_family_period_and_windows(self, r, period):
        blocks = block_family(corpus("example1_tent_sqrt").family, r)
        assert blocks.declared_period == period
        blocks.map_at(20)  # each block equals the one a period before it
        cache = FlowCache(blocks)
        for x in (0, 0.3, Fraction(1, 2)):
            cache.omega(-5, x)
            _assert_window_literal(blocks, cache, x, 11)

    def test_block_family_without_period(self):
        assert block_family(_noncommuting(), 3).declared_period is None


_PL_NODE = st.floats(min_value=0.01, max_value=0.99, allow_nan=False)


@st.composite
def _cycle_map(draw):
    if draw(st.booleans()):
        k = draw(st.integers(min_value=1, max_value=3))
        xs = sorted(draw(st.lists(_PL_NODE, min_size=k, max_size=k, unique=True)))
        ys = sorted(draw(st.lists(_PL_NODE, min_size=k, max_size=k, unique=True)))
        return PiecewiseLinear([(0, 0), *zip(xs, ys), (1, 1)])
    e = draw(st.fractions(min_value=Fraction(1, 4), max_value=4))
    return Composite([PowerMap(e), Reflection()])


_ACCESS = st.lists(
    st.one_of(
        st.tuples(st.just("omega"), st.integers(min_value=-40, max_value=40)),
        st.tuples(st.just("window"), st.integers(min_value=0, max_value=25)),
    ),
    min_size=1,
    max_size=8,
)

_BASE = st.one_of(
    st.floats(min_value=0, max_value=1, allow_nan=False),
    st.fractions(min_value=0, max_value=1, max_denominator=64),
)


def _replay_accesses(fam, x, accesses):
    cache = FlowCache(fam)
    for kind, n in accesses:
        if kind == "omega":
            assert _bits(cache.omega(n, x)) == _bits(omega(fam, n, x)), n
        else:
            _assert_window_literal(fam, cache, x, n)


class TestPeriodicDifferential:
    @settings(max_examples=60, deadline=None)
    @given(cycle=st.lists(_cycle_map(), min_size=1, max_size=4), x=_BASE,
           accesses=_ACCESS)
    def test_random_periodic_cycles(self, cycle, x, accesses):
        fam = MapFamily(
            Space.UNIT_INTERVAL,
            lambda n: cycle[(n - 1) % len(cycle)],
            "random_cycle",
            declared_period=len(cycle),
        )
        _replay_accesses(fam, x, accesses)

    @settings(max_examples=30, deadline=None)
    @given(x=st.sampled_from([0, 0.0, Fraction(1, 2), 0.5, 0.3]), accesses=_ACCESS)
    def test_example1(self, x, accesses):
        _replay_accesses(corpus("example1_tent_sqrt").family, x, accesses)


class TestBlockFamily:
    def test_block_flow_equals_strided_flow(self):
        # non-commutative backward flows use the literal inverse order, which
        # the blocked composition reproduces operation for operation
        fam = corpus("example1_tent_sqrt").family
        for r in (2, 3):
            blocks = block_family(fam, r)
            for x in (0.15, 0.6):
                for k in (-4, -1, 1, 2, 5):
                    assert omega(blocks, k, x) == omega(fam, k * r, x)
        # commutative backward flows regroup the inverse factors; equality is
        # then mathematical, up to float associativity
        fam = corpus("circle_harmonic").family
        for r in (2, 3):
            blocks = block_family(fam, r)
            for x in (0.15, 0.6):
                for k in (-4, -1, 1, 2, 5):
                    d = metric(fam.space, omega(blocks, k, x), omega(fam, k * r, x))
                    assert d < 1e-12

    def test_r1_is_identity_operation(self):
        fam = corpus("example2_powers").family
        assert block_family(fam, 1) is fam
        with pytest.raises(ValueError):
            block_family(fam, 0)

    def test_block_exact_view(self):
        fam = corpus("circle_harmonic").family
        blocks = block_family(fam, 2)
        # every two-step harmonic block rotates by zero, exactly
        for k in range(1, 30):
            assert blocks.exact.displacement(k) == 0

    def test_block_horizon_shrinks(self):
        fam = corpus("circle_ex4").family
        blocks = block_family(fam, 4)
        assert blocks.horizon == fam.horizon // 4


class TestHullSample:
    def test_square_sqrt_hull_of_half(self):
        fam = corpus("interval_square_sqrt").family
        hs = hull_sample(fam, 0.5, order_k=1, depth=2)
        expected = sorted([2 ** -4, 2 ** -2, 2 ** -1, 2 ** -0.5, 2 ** -0.25])
        got = sorted(hs.points)
        assert len(got) == len(expected)
        for g, e in zip(got, expected):
            assert abs(g - e) < 1e-12
        assert not hs.budget_exhausted

    def test_points_are_separated(self):
        fam = corpus("circle_ex4").family
        hs = hull_sample(fam, 0.3, order_k=4, depth=4)
        for i, p in enumerate(hs.points):
            for q in hs.points[i + 1:]:
                assert metric(fam.space, p, q) >= DEDUP_EPS == 1e-9

    def test_fixed_point_hull_stabilizes(self):
        fam = corpus("interval_square_sqrt").family
        hs = hull_sample(fam, 0.0, order_k=3, depth=5)
        assert hs.points == [0.0]
        assert hs.stabilized and not hs.budget_exhausted

    def test_budget_env_cap(self, monkeypatch):
        fam = corpus("circle_harmonic").family
        monkeypatch.setenv("NAADS_BUDGET_POINTS", "4")
        hs = hull_sample(fam, 0.1, order_k=6, depth=6)
        assert hs.budget_exhausted
        assert len(hs.points) <= 4

    @pytest.mark.parametrize("env", ["abc", "0", "-5", "2.5", " "])
    def test_bad_budget_env_rejected(self, monkeypatch, env):
        monkeypatch.setenv("NAADS_BUDGET_POINTS", env)
        fam = corpus("circle_harmonic").family
        with pytest.raises(SchemaError):
            hull_sample(fam, 0.1, order_k=2, depth=2)
        with pytest.raises(SchemaError):
            exact_hull_displacements(fam.exact, 2, 2)

    def test_parameter_validation(self):
        fam = corpus("identity").family
        with pytest.raises(ValueError):
            hull_sample(fam, 0.5, order_k=0, depth=1)
        with pytest.raises(ValueError):
            hull_sample(fam, 0.5, order_k=1, depth=0)


class TestDeclarations:
    """A map that breaks its family's declaration raises ConstructionError when built."""

    def test_example1_declared_commutative(self):
        rule = corpus("example1_tent_sqrt").family.rule
        fam = MapFamily(Space.UNIT_INTERVAL, rule, "ex1", declared_commutative=True)
        with pytest.raises(ConstructionError, match="f_1 has kind None"):
            omega(fam, -2, 0.3)

    def test_example2_declared_isometric(self):
        rule = corpus("example2_powers").family.rule
        with pytest.raises(PreconditionError):
            hull_closure_equality(corpus("example2_powers").family, 0.3, 0.1)
        fam = MapFamily(Space.UNIT_INTERVAL, rule, "ex2", declared_commutative=True,
                        declared_isometric=True)
        with pytest.raises(ConstructionError, match="f_1 is not"):
            hull_closure_equality(fam, 0.3, 0.1)

    def test_period_altered_at_5(self):
        odd = PiecewiseLinear([(0, 0), (0.5, 0.25), (1, 1)])
        even = Composite([PowerMap(Fraction(1, 2)), Reflection()])
        altered = PiecewiseLinear([(0, 0), (0.5, 0.3), (1, 1)])
        fam = MapFamily(
            Space.UNIT_INTERVAL,
            lambda n: altered if n == 5 else (odd if n % 2 else even),
            "altered_at_5",
            declared_period=2,
        )
        assert omega(fam, -4, 0.3) == omega(corpus("example1_tent_sqrt").family, -4, 0.3)
        for _ in range(2):  # the breaking map is never kept
            with pytest.raises(ConstructionError, match="f_5 differs from f_3"):
                FlowCache(fam).window(0.3, 5)

    def test_period_has_no_tolerance(self):
        f = PiecewiseLinear([(0, 0), (0.5, 0.5), (1, 1)])
        g = PiecewiseLinear([(0, 0), (0.5, 0.5 + 2 ** -40), (1, 1)])
        fam = MapFamily(Space.UNIT_INTERVAL, lambda n: g if n == 3 else f, "tiny",
                        declared_period=1)
        fam.map_at(2)
        with pytest.raises(ConstructionError, match="f_3 differs from f_2"):
            omega(fam, 4, 0.3)

    # a rule may build a fresh map for each index: block maps are composites
    # of such maps, so the period check must compare their parts by value
    @pytest.mark.parametrize("commutative", [True, False])
    @pytest.mark.parametrize("space, rule", [
        (Space.CIRCLE, lambda n: CircleRotation(Fraction(1, 3) if n % 2 else Fraction(1, 5))),
        (Space.UNIT_INTERVAL, lambda n: PowerMap(2 if n % 2 else Fraction(1, 2))),
    ], ids=["rotations", "powers"])
    def test_fresh_maps_keep_the_period_in_blocks(self, space, rule, commutative):
        fam = MapFamily(space, rule, "fresh", declared_commutative=commutative,
                        declared_period=2)
        r_transitivity_check(fam, 3, eps=0.25, n_max=10, grid=4)
        blocks = block_family(fam, 3)
        blocks.map_at(20)
        cache = FlowCache(blocks)
        for x in (0.3, Fraction(1, 2)):
            _assert_window_literal(blocks, cache, x, 11)

    def test_mixed_kinds_declared_commutative(self):
        fam = MapFamily(
            Space.CIRCLE,
            lambda n: CircleRotation(Fraction(1, 4)) if n % 2 else PowerMap(2),
            "mixed",
            declared_commutative=True,
        )
        omega(fam, 1, 0.3)
        with pytest.raises(ConstructionError, match="f_2 has kind 'power'"):
            omega(fam, 2, 0.3)

    def test_map_without_kind_declared_commutative(self):
        class Shift(Homeomorphism):
            def forward(self, x):
                return (x + 0.25) % 1.0

            def inverse(self, x):
                return (x - 0.25) % 1.0

        fam = MapFamily(Space.CIRCLE, lambda n: Shift(), "plain",
                        declared_commutative=True)
        with pytest.raises(ConstructionError, match="f_1 has kind None"):
            omega(fam, 1, 0.3)
