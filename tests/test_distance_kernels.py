"""The inline distance kernels against the metric calls they replace.

``space.distances`` is one row of ``metric`` values, and the hull enumeration
and the checker time scans read distance rows and flow windows where they
called ``metric`` and ``FlowCache.omega`` once per time.  Each test compares
one of them, value for value (``repr`` keeps -0.0 and the float/Fraction
type), with a copy of the per-call loop it replaces.
"""

import os
from bisect import bisect_left, insort
from contextlib import contextmanager
from fractions import Fraction
from unittest import mock

from hypothesis import example, given, settings
from hypothesis import strategies as st

from naads import (
    CircleRotation,
    FlowCache,
    MapFamily,
    Space,
    corpus,
    hull_sample,
    metric,
    nearest_distance,
    proximal_liminf,
)
from naads.checkers import _first_far_time, _scan_times
from naads.exact import points_budget
from naads.space import BOUNDARY_TOL, distances

# the circle's edge values, and floats just past 1 that the boundary slack admits
edge = st.sampled_from([0.0, 0.5, 1 - 2 ** -53, 2 ** -53, 0.25, 0.75, 1.0])
past_one = st.floats(min_value=1.0, max_value=1 + BOUNDARY_TOL, exclude_max=True)
float_pt = st.one_of(edge, past_one, st.floats(min_value=0.0, max_value=1.0))
frac_pt = st.fractions(min_value=0, max_value=1, max_denominator=64)
any_pt = st.one_of(float_pt, frac_pt)


def _reprs(values):
    return [repr(v) for v in values]


class TestDistances:
    @given(space=st.sampled_from(list(Space)),
           pairs=st.lists(st.tuples(any_pt, any_pt), max_size=20))
    @example(space=Space.CIRCLE, pairs=[(0.0, 0.5), (0.0, 1 - 2 ** -53), (0.25, 0.75)])
    @example(space=Space.CIRCLE,
             pairs=[(Fraction(1, 3), 0.0), (Fraction(1, 4), Fraction(3, 4))])
    def test_row_equals_metric_calls(self, space, pairs):
        xs, ys = [x for x, _ in pairs], [y for _, y in pairs]
        assert _reprs(distances(space, xs, ys)) == _reprs(
            [metric(space, x, y) for x, y in pairs])

    # one kind of point per list: a Fraction and a float distance may tie
    @given(space=st.sampled_from(list(Space)), q=any_pt,
           pts=st.one_of(st.lists(float_pt, min_size=1, max_size=12),
                         st.lists(frac_pt, min_size=1, max_size=12)))
    @example(space=Space.CIRCLE, q=0.95, pts=[0.02, 0.5])  # the first, across 0
    @example(space=Space.CIRCLE, q=0.05, pts=[0.5, 0.98])  # the last, across 0
    @example(space=Space.CIRCLE, q=0.01, pts=[0.3, 0.6])  # below every point: i == 0
    @example(space=Space.CIRCLE, q=0.99, pts=[0.3, 0.6])  # above every point: i == len
    @example(space=Space.UNIT_INTERVAL, q=1.0, pts=[0.3, 0.6])
    @example(space=Space.CIRCLE, q=0.7, pts=[0.2])  # one point
    @example(space=Space.UNIT_INTERVAL, q=Fraction(1, 3), pts=[Fraction(1, 3)])
    @example(space=Space.CIRCLE, q=0.5, pts=[0.25, 0.5, 0.75])  # q is a point
    @example(space=Space.CIRCLE, q=-0.0, pts=[0.0, 0.5])
    @example(space=Space.UNIT_INTERVAL, q=0.0, pts=[-0.0, 0.5])
    def test_nearest_distance_over_both_types(self, space, q, pts):
        got = nearest_distance(space, sorted(pts), q)
        assert repr(got) == repr(min(metric(space, q, p) for p in pts))

    # a mixed list may tie a Fraction and a float distance: the kernel must
    # return the first least candidate, in the reference's candidate order
    @given(space=st.sampled_from(list(Space)), q=any_pt,
           pts=st.lists(any_pt, min_size=1, max_size=12))
    @example(space=Space.UNIT_INTERVAL, q=0.5, pts=[0.25, Fraction(3, 4)])
    @example(space=Space.UNIT_INTERVAL, q=0.5, pts=[Fraction(1, 4), 0.75])
    @example(space=Space.CIRCLE, q=Fraction(1, 2), pts=[0.0, Fraction(1, 4), 0.75])
    @example(space=Space.CIRCLE, q=0.5, pts=[Fraction(1, 2), 0.5])  # equal, both types
    @example(space=Space.CIRCLE, q=Fraction(1, 8), pts=[0.0, Fraction(1, 4), 1.0])
    def test_nearest_distance_on_mixed_lists(self, space, q, pts):
        pts = sorted(pts)
        assert repr(nearest_distance(space, pts, q)) == repr(
            _reference_nearest(space, pts, q))


def _reference_nearest(space, sorted_points, q):
    i = bisect_left(sorted_points, q)
    near = sorted_points[i - 1:i + 1] if i else sorted_points[:1]
    if space is Space.CIRCLE:
        near += (sorted_points[0], sorted_points[-1])
    return min([metric(space, q, p) for p in near])


def _reference_hull(family, x, order_k, depth, dedup_eps, max_points, tally=None):
    """hull_sample with one cache.omega call per word letter and metric calls.

    ``tally``, if given, counts the candidates under "candidates" and those
    equal to a point already kept under "repeats".
    """
    cap = points_budget(max_points, 4096)
    cache = FlowCache(family)
    points, index, frontier = [x], [x], [x]
    tally = {} if tally is None else tally
    tally.update(candidates=0, repeats=0)
    for _ in range(depth):
        new = []
        for y in frontier:
            for r in range(-order_k, order_k + 1):
                z = cache.omega(r, y)
                tally["candidates"] += 1
                tally["repeats"] += any(z == p for p in points)
                if _reference_nearest(family.space, index, z) >= dedup_eps:
                    points.append(z)
                    insort(index, z)
                    new.append(z)
                    if len(points) >= cap:
                        return points, True, False
        if not new:
            return points, False, True
        frontier = new
    return points, False, False


@contextmanager
def _points_env(value):
    with mock.patch.dict(os.environ):
        os.environ.pop("NAADS_BUDGET_POINTS", None)
        if value is not None:
            os.environ["NAADS_BUDGET_POINTS"] = value
        yield


def _check_hull(family, x, order_k, depth, dedup_eps, max_points, env):
    with _points_env(env):
        hs = hull_sample(family, x, order_k, depth, dedup_eps, max_points)
        points, exhausted, stabilized = _reference_hull(
            family, x, order_k, depth, dedup_eps, max_points)
    assert _reprs(hs.points) == _reprs(points)
    assert (hs.budget_exhausted, hs.stabilized) == (exhausted, stabilized)


hull_args = dict(
    order_k=st.integers(min_value=1, max_value=4),
    depth=st.integers(min_value=1, max_value=4),
    dedup_eps=st.sampled_from([1e-12, 1e-9, 1e-3, 0.05]),
    max_points=st.sampled_from([None, 3, 40]),
    env=st.sampled_from([None, "1", "5", "60"]),
)


def _cycle(angles):
    return MapFamily(Space.CIRCLE,
                     lambda n: CircleRotation(angles[(n - 1) % len(angles)]),
                     "cycle", declared_commutative=True, declared_isometric=True)


class TestHullWindowMatchesOmegaLoop:
    @settings(max_examples=60, deadline=None)
    @given(
        angles=st.lists(st.one_of(
            st.fractions(min_value=-1, max_value=1, max_denominator=12),
            st.floats(min_value=-1, max_value=1, allow_nan=False)),
            min_size=1, max_size=4),
        x=st.one_of(st.floats(min_value=0.0, max_value=0.999999),
                    frac_pt.map(lambda f: f % 1)),
        **hull_args,
    )
    # exact repeats: a period-2 cycle returns to x and to its first image, as
    # floats and as Fractions; a Fraction x meets float angles; and at the
    # least dedup_eps only an exact repeat is rejected
    @example(angles=[0.3, -0.3], x=0.1, order_k=3, depth=4, dedup_eps=1e-9,
             max_points=None, env=None)
    @example(angles=[Fraction(1, 3), Fraction(-1, 3)], x=Fraction(1, 5), order_k=3,
             depth=4, dedup_eps=1e-9, max_points=None, env=None)
    @example(angles=[0.5, 0.25], x=Fraction(1, 2), order_k=2, depth=3, dedup_eps=1e-9,
             max_points=None, env=None)
    @example(angles=[0.3, -0.3], x=0.1, order_k=2, depth=3, dedup_eps=5e-324,
             max_points=None, env=None)
    @example(angles=[0.1, 0.2, 0.3], x=0.0, order_k=2, depth=3, dedup_eps=5e-324,
             max_points=40, env=None)
    def test_rotation_cycles(self, angles, x, order_k, depth, dedup_eps, max_points, env):
        _check_hull(_cycle(angles), x, order_k, depth, dedup_eps, max_points, env)

    # an exact repeat never reaches the nearest-point kernel; every other
    # candidate still does
    @settings(max_examples=30, deadline=None)
    @given(
        angles=st.lists(st.one_of(
            st.fractions(min_value=-1, max_value=1, max_denominator=12),
            st.sampled_from([0.5, -0.5, 0.25, 0.3, -0.3, 0.1])),
            min_size=1, max_size=3),
        x=st.one_of(st.sampled_from([0.0, 0.1, 0.5]), frac_pt.map(lambda f: f % 1)),
        order_k=st.integers(min_value=1, max_value=4),
        depth=st.integers(min_value=1, max_value=4),
        dedup_eps=st.sampled_from([5e-324, 1e-9, 0.05]),
    )
    @example(angles=[0.3, -0.3], x=0.1, order_k=3, depth=4, dedup_eps=1e-9)
    @example(angles=[Fraction(1, 3), Fraction(-1, 3)], x=Fraction(1, 5), order_k=3,
             depth=4, dedup_eps=1e-9)
    def test_exact_repeats_skip_the_kernel(self, angles, x, order_k, depth, dedup_eps):
        family = _cycle(angles)
        tally = {}
        with _points_env(None):
            _reference_hull(family, x, order_k, depth, dedup_eps, None, tally)
            with mock.patch("naads.flow.nearest_distance",
                            wraps=nearest_distance) as kernel:
                hull_sample(family, x, order_k, depth, dedup_eps)
        assert kernel.call_count == tally["candidates"] - tally["repeats"]

    @settings(max_examples=60, deadline=None)
    @given(name=st.sampled_from(["example1_tent_sqrt", "example2_powers"]),
           x=st.one_of(st.sampled_from([0.0, 0.25, 0.5, 1.0]),
                       st.floats(min_value=0.0, max_value=1.0)),
           **hull_args)
    def test_interval_families(self, name, x, order_k, depth, dedup_eps, max_points, env):
        # example1 reads periodic backward windows, example2 commutative ones
        _check_hull(corpus(name).family, x, order_k, depth, dedup_eps, max_points, env)


def _reference_first_far(space, cache, a, b, w, eps, done=-1):
    """_first_far_time with one metric call per time of each window."""
    m = min(w, max(8, 2 * done))
    while True:
        wa, wb = cache.window(a, m), cache.window(b, m)
        for k in range(done + 1, m + 1):
            d = metric(space, wa[m + k], wb[m + k])
            if d >= eps:
                return k, d
            if k:
                d = metric(space, wa[m - k], wb[m - k])
                if d >= eps:
                    return -k, d
        if m == w:
            return None
        done, m = m, min(w, 2 * m)


def _reference_proximal(family, x, y, n_max):
    """proximal_liminf with two cache.omega calls per time."""
    space, cache = family.space, FlowCache(family)
    best = worst = metric(space, x, y)
    t_best = t_worst = 0
    for n in _scan_times(n_max):
        d = metric(space, cache.omega(n, x), cache.omega(n, y))
        if d < best:
            best, t_best = d, n
        if d > worst:
            worst, t_worst = d, n
    return best, t_best, worst, t_worst


scan_family = st.sampled_from(["example1_tent_sqrt", "example2_powers",
                               "interval_square_sqrt", "circle_harmonic", "identity"])


class TestTimeScansMatchMetricCalls:
    @settings(max_examples=80, deadline=None)
    @given(name=scan_family, a=st.floats(0.01, 0.99), b=st.floats(0.01, 0.99),
           eps=st.sampled_from([1e-3, 0.05, 0.25, 0.5]),
           w=st.integers(min_value=0, max_value=40), done=st.integers(-1, 39))
    # the pair sits at exactly eps at every time: the scan must stop at time 0
    @example(name="identity", a=0.25, b=0.5, eps=0.25, w=3, done=-1)
    # closer than eps at times 0 and 1, exactly eps at time -1 (square roots)
    @example(name="interval_square_sqrt", a=0.0625, b=0.25, eps=0.25, w=5, done=-1)
    def test_first_far_time(self, name, a, b, eps, w, done):
        fam = corpus(name).family
        done = min(done, w - 1)
        got = _first_far_time(fam, a, b, w, eps, done)
        # a fresh family: the reference reads no trajectory the kernel stored
        fresh = corpus(name).family
        want = _reference_first_far(fresh.space, FlowCache(fresh), a, b, w, eps, done)
        assert repr(got) == repr(want)

    @settings(max_examples=60, deadline=None)
    @given(name=scan_family, x=st.floats(0.0, 1.0), y=st.floats(0.0, 1.0),
           n_max=st.integers(min_value=0, max_value=40))
    @example(name="identity", x=0.5, y=0.5, n_max=3)  # every time ties
    def test_proximal_liminf(self, name, x, y, n_max):
        fam = corpus(name).family
        ext = proximal_liminf(fam, x, y, n_max)
        got = (ext.min_distance, ext.argmin_time, ext.max_distance, ext.argmax_time)
        assert repr(got) == repr(_reference_proximal(fam, x, y, n_max))
