"""Property-based invariants over random inputs (hypothesis)."""

from fractions import Fraction

from hypothesis import example, given, settings
from hypothesis import strategies as st

from naads import (
    CircleRotation,
    FlowCache,
    MapFamily,
    PiecewiseLinear,
    PowerMap,
    RationalAngle,
    Space,
    Verdict,
    corpus,
    exact_density_gap,
    hull_sample,
    li_yorke_classify,
    metric,
    nearest_distance,
    net_centers,
    omega,
    periodicity_check,
    replay_witness,
    return_time_set,
)
from naads.checkers import _eps_dense, _scan_times

unit = st.floats(min_value=0.0, max_value=1.0, allow_nan=False)
circle_pt = st.floats(min_value=0.0, max_value=0.999999, allow_nan=False)
interior = st.floats(min_value=0.01, max_value=0.99)
small_frac = st.fractions(min_value=Fraction(-5), max_value=Fraction(5))
corpus_name = st.sampled_from(
    ["identity", "example1_tent_sqrt", "example2_powers", "circle_settling",
     "circle_ex4", "circle_harmonic", "interval_square_sqrt"]
)


class TestMapInvariants:
    @given(e=st.fractions(min_value=Fraction(1, 8), max_value=Fraction(8)), x=unit)
    def test_power_map_roundtrip(self, e, x):
        h = PowerMap(e)
        assert abs(h.inverse(h.forward(x)) - x) < 1e-9

    @given(angle=small_frac, x=circle_pt)
    def test_rotation_roundtrip(self, angle, x):
        h = CircleRotation(angle)
        y = h.forward(x)
        assert 0 <= y < 1
        assert metric(Space.CIRCLE, h.inverse(y), x) < 1e-12

    @given(
        mid=st.tuples(
            st.floats(min_value=0.05, max_value=0.95),
            st.floats(min_value=0.05, max_value=0.95),
        ),
        x=unit,
    )
    def test_piecewise_linear_roundtrip(self, mid, x):
        h = PiecewiseLinear([(0, 0), mid, (1, 1)])
        assert abs(h.inverse(h.forward(x)) - x) < 1e-9

    @given(x=circle_pt, y=circle_pt, z=circle_pt)
    def test_circle_metric_axioms(self, x, y, z):
        d = metric(Space.CIRCLE, x, y)
        assert 0 <= d <= 0.5
        assert d == metric(Space.CIRCLE, y, x)
        assert d <= metric(Space.CIRCLE, x, z) + metric(Space.CIRCLE, z, y) + 1e-12


class TestExactInvariants:
    @given(a=small_frac, b=small_frac)
    def test_angle_group_inverse(self, a, b):
        x, y = RationalAngle(a), RationalAngle(b)
        assert x + y - y == x
        assert (x + (-x)).is_zero

    @given(a=small_frac, b=small_frac)
    def test_angle_distance_matches_float_metric(self, a, b):
        x, y = RationalAngle(a), RationalAngle(b)
        d = x.distance(y)
        assert 0 <= d <= Fraction(1, 2)
        assert abs(float(d) - metric(Space.CIRCLE, float(x), float(y))) < 1e-12

    @given(q=st.integers(min_value=1, max_value=60))
    def test_density_gap_of_uniform_subgroup(self, q):
        angles = [RationalAngle(Fraction(m, q)) for m in range(q)]
        assert exact_density_gap(angles) == Fraction(1, q)


class TestFlowInvariants:
    @settings(max_examples=25, deadline=None)
    @given(name=corpus_name, x=interior, n=st.integers(min_value=-40, max_value=40))
    def test_cache_agrees_with_direct_evaluation(self, name, x, n):
        fam = corpus(name).family
        if fam.space is Space.CIRCLE:
            x = x % 1.0
        assert FlowCache(fam).omega(n, x) == omega(fam, n, x)

    @settings(max_examples=25, deadline=None)
    @given(name=corpus_name, x=interior, n=st.integers(min_value=1, max_value=40))
    def test_backward_undoes_forward(self, name, x, n):
        fam = corpus(name).family
        y = omega(fam, n, x)
        assert metric(fam.space, omega(fam, -n, y), x) < 1e-9

    @settings(max_examples=15, deadline=None)
    @given(name=corpus_name, x=interior, n_max=st.integers(min_value=1, max_value=15))
    def test_return_times_contain_zero_and_stay_sorted(self, name, x, n_max):
        rts = return_time_set(corpus(name).family, x, 0.25, n_max)
        assert 0 in rts.times
        assert rts.times == sorted(rts.times)
        assert all(-n_max <= t <= n_max for t in rts.times)

    @settings(max_examples=10, deadline=None)
    @given(
        name=st.sampled_from(["circle_settling", "circle_ex4", "circle_harmonic"]),
        x=interior,
        n_max=st.integers(min_value=1, max_value=15),
    )
    def test_rotation_return_times_are_symmetric(self, name, x, n_max):
        # the displacement at -n is the exact negation, so returns pair up
        rts = return_time_set(corpus(name).family, x, 0.2, n_max)
        assert sorted(-t for t in rts.times) == rts.times

    @settings(max_examples=10, deadline=None)
    @given(name=corpus_name, x=interior)
    def test_hull_contains_base_and_respects_dedup(self, name, x):
        fam = corpus(name).family
        hs = hull_sample(fam, x, order_k=2, depth=2, dedup_eps=1e-6)
        assert hs.points[0] == x
        for i, p in enumerate(hs.points):
            for q in hs.points[i + 1:]:
                assert metric(fam.space, p, q) >= 1e-6


class TestWitnessReplay:
    @settings(max_examples=20, deadline=None)
    @given(x=interior, y=interior)
    def test_li_yorke_witnesses_replay(self, x, y):
        fam = corpus("example2_powers").family
        rep = li_yorke_classify(fam, x, y, 40)
        for w in rep.witnesses:
            replayed = replay_witness(fam, w)
            assert all(
                abs(a - b) < 1e-12 for a, b in zip(replayed, w.distances)
            )

    @settings(max_examples=20, deadline=None)
    @given(x=circle_pt)
    def test_periodicity_refutation_witnesses_replay(self, x):
        fam = corpus("circle_settling").family
        rep = periodicity_check(fam, x, 2)
        assert rep.verdict is Verdict.REFUTED
        (w,) = rep.witnesses
        replayed = replay_witness(fam, w)
        assert all(abs(a - b) < 1e-12 for a, b in zip(replayed, w.distances))


# points on both spaces, with the boundary values and near-duplicates drawn often
edge_float = st.sampled_from([0.0, 0.5, 1.0 - 2 ** -53, 1e-17, 0.1 + 0.2, 0.3])
float_pt = st.one_of(unit, edge_float)
frac_pt = st.fractions(min_value=0, max_value=1, max_denominator=64)


class TestNearestDistance:
    @given(
        space=st.sampled_from(list(Space)),
        pts=st.lists(float_pt, min_size=1, max_size=12),
        q=float_pt,
        dup=st.booleans(),
    )
    @example(space=Space.CIRCLE, pts=[0.5, 0.9], q=0.0, dup=False)  # wraps at 1
    @example(space=Space.CIRCLE, pts=[0.9], q=0.05, dup=False)  # a single point
    def test_float_index_equals_full_scan(self, space, pts, q, dup):
        if space is Space.CIRCLE:
            pts, q = [p for p in pts if p < 1] or [0.0], q % 1.0
        if dup:
            pts = pts + pts[:2]
        got = nearest_distance(space, sorted(pts), q)
        assert repr(got) == repr(min(metric(space, q, p) for p in pts))

    @given(
        space=st.sampled_from(list(Space)),
        pts=st.lists(frac_pt, min_size=1, max_size=12),
        q=frac_pt,
    )
    def test_fraction_index_equals_full_scan(self, space, pts, q):
        if space is Space.CIRCLE:
            pts, q = [p % 1 for p in pts], q % 1
        got = nearest_distance(space, sorted(pts), q)
        assert got == min(metric(space, q, p) for p in pts)
        assert isinstance(got, Fraction)


def _reference_hull(family, x, order_k, depth, dedup_eps, cap):
    """hull_sample's rule written as the plain all-points scan."""
    cache = FlowCache(family)
    points, frontier = [x], [x]
    for _ in range(depth):
        new = []
        for y in frontier:
            for r in range(-order_k, order_k + 1):
                z = cache.omega(r, y)
                if all(metric(family.space, z, p) >= dedup_eps for p in points):
                    points.append(z)
                    new.append(z)
                    if len(points) >= cap:
                        return points, True, False
        if not new:
            return points, False, True
        frontier = new
    return points, False, False


class TestHullDedupMatchesScan:
    @settings(max_examples=40, deadline=None)
    @given(
        angles=st.lists(
            st.one_of(
                st.fractions(min_value=-1, max_value=1, max_denominator=12),
                st.floats(min_value=-1, max_value=1, allow_nan=False),
            ),
            min_size=1, max_size=4,
        ),
        x=circle_pt,
        order_k=st.integers(min_value=1, max_value=4),
        depth=st.integers(min_value=1, max_value=4),
        dedup_eps=st.sampled_from([1e-12, 1e-9, 1e-3, 0.05, 0.2]),
        cap=st.sampled_from([5, 60, 4096]),
    )
    def test_rotation_cycles(self, angles, x, order_k, depth, dedup_eps, cap):
        fam = MapFamily(
            Space.CIRCLE,
            lambda n: CircleRotation(angles[(n - 1) % len(angles)]),
            "cycle",
            declared_commutative=True,
        )
        hs = hull_sample(fam, x, order_k, depth, dedup_eps, max_points=cap)
        points, exhausted, stabilized = _reference_hull(
            fam, x, order_k, depth, dedup_eps, cap)
        assert hs.points == points
        assert [type(p) for p in hs.points] == [type(p) for p in points]
        assert (hs.budget_exhausted, hs.stabilized) == (exhausted, stabilized)


def _reference_eps_dense(cache, x, eps, n_max):
    """_eps_dense as the full scan: every center against every time."""
    space = cache.family.space
    window = cache.window(x, n_max)
    worst_c, worst_d, worst_t = None, -1.0, 0
    for c in net_centers(space, eps):
        best_d, best_t = None, 0
        for n in _scan_times(n_max):
            d = metric(space, window[n + n_max], c)
            if best_d is None or d < best_d:
                best_d, best_t = d, n
        if best_d > worst_d:
            worst_c, worst_d, worst_t = c, best_d, best_t
    return worst_d <= eps, worst_c, worst_d, worst_t


class TestEpsDenseMatchesScan:
    @settings(max_examples=40, deadline=None)
    @given(
        case=st.sampled_from([
            ("example1_tent_sqrt", 0.0),  # orbit {0, 1}: every time ties
            ("example1_tent_sqrt", 1.0),
            ("example1_tent_sqrt", 0.5),
            ("identity", 0.25),
            ("circle_ex4", 0.0),
            ("circle_ex4", 0.125),
            ("circle_harmonic", 0.3),
        ]),
        eps=st.sampled_from([0.01, 0.1, 0.125, 0.25, 0.3, 0.5, 1.0]),
        n_max=st.integers(min_value=0, max_value=30),
    )
    def test_corpus_orbits(self, case, eps, n_max):
        name, x = case
        cache = FlowCache(corpus(name).family)
        got = _eps_dense(cache, x, eps, n_max)
        assert repr(got) == repr(_reference_eps_dense(cache, x, eps, n_max))

    @settings(max_examples=40, deadline=None)
    @given(
        q=st.integers(min_value=1, max_value=9),
        j=st.integers(min_value=0, max_value=8),
        eps=st.sampled_from([0.05, 0.1, 0.2, 0.5]),
        n_max=st.integers(min_value=0, max_value=20),
    )
    def test_periodic_rotation_orbits(self, q, j, eps, n_max):
        # rotation by 1/q from j/q: a q-periodic orbit, so times tie in groups
        fam = MapFamily(Space.CIRCLE, lambda n: CircleRotation(Fraction(1, q)),
                        "rot", declared_commutative=True)
        cache = FlowCache(fam)
        x = (j % q) / q
        got = _eps_dense(cache, x, eps, n_max)
        assert repr(got) == repr(_reference_eps_dense(cache, x, eps, n_max))
