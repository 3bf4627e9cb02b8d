"""The inline distance kernels against the metric calls they replace.

``space.distances`` is one row of ``metric`` values and
``space.nearest_distances`` one sweep of nearest-point queries; the hull
enumeration and the checker time scans read distance rows and flow windows
where they called ``metric`` and ``FlowCache.omega`` once per time, and hull
deduplication compares within buckets where it queried a sorted index.  Each
test compares one of them, value for value (``repr`` keeps -0.0 and the
float/Fraction type), with a copy of the per-call loop it replaces.
"""

import os
from bisect import bisect_left, insort
from contextlib import contextmanager
from fractions import Fraction
from unittest import mock

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from naads import (
    CircleRotation,
    DomainError,
    FlowCache,
    HullSample,
    MapFamily,
    Reflection,
    Space,
    block_family,
    corpus,
    hull_sample,
    metric,
    nearest_distance,
    periodicity_check,
    proximal_liminf,
)
from naads.checkers import _first_far_time, _hausdorff, _scan_times
from naads.corpus import rotation_family
from naads.exact import RationalRotationFamily, points_budget
from naads.flow import DEDUP_EPS
from naads.space import BOUNDARY_TOL, distances, nearest_distances

# the circle's edge values, and floats just past 1 or below 0 that the
# boundary slack admits: two of them may lie more than 1 apart
edge = st.sampled_from([0.0, 0.5, 1 - 2 ** -53, 2 ** -53, 0.25, 0.75, 1.0])
past_one = st.floats(min_value=1.0, max_value=1 + BOUNDARY_TOL, exclude_max=True)
below_zero = st.floats(min_value=-BOUNDARY_TOL, max_value=0.0)
float_pt = st.one_of(edge, past_one, below_zero, st.floats(min_value=0.0, max_value=1.0))
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
    # the last point is more than 1 above q, and the one before it is nearest
    @example(space=Space.CIRCLE, q=0.0, pts=[0.5, 1 - 2 ** -53, 1.000000001])
    @example(space=Space.CIRCLE, q=1.0000000005, pts=[0.0, 1e-10, 0.5])
    def test_nearest_distance_on_mixed_lists(self, space, q, pts):
        pts = sorted(pts)
        assert repr(nearest_distance(space, pts, q)) == repr(
            _reference_nearest(space, pts, q))


class TestNoNegativeCircleDistance:
    """Coordinates within the boundary slack may lie more than 1 apart."""

    def test_metric_folds_past_one(self):
        d = metric(Space.CIRCLE, 1.0000000005, 3e-10)
        assert 0 < d == (1.0000000005 - 3e-10) - 1 < 3e-10
        assert metric(Space.CIRCLE, Fraction(-1, 10 ** 10), Fraction(1) + Fraction(
            1, 10 ** 10)) == Fraction(2, 10 ** 10)

    def test_nearest_distance_reads_the_point_past_the_fold(self):
        # 1e-10 is neither a neighbour of q nor an extreme
        pts = [0.0, 1e-10, 0.5]
        got = nearest_distance(Space.CIRCLE, pts, 1.0000000005)
        assert 0 < got == metric(Space.CIRCLE, 1.0000000005, 1e-10)
        assert got < metric(Space.CIRCLE, 1.0000000005, 0.0)

    def test_an_exact_point_off_the_circle_is_rejected(self):
        for run in (
            lambda x: periodicity_check(corpus("circle_harmonic").family, x, 3, horizon=3),
            lambda x: hull_sample(corpus("circle_ex4").family, x, 2, 3),
        ):
            with pytest.raises(DomainError, match="outside circle coordinates"):
                run(Fraction(5, 2))
        hs = hull_sample(corpus("circle_ex4").family, Fraction(1, 2), 2, 3)
        assert hs.points == [Fraction(1, 2), 0]


def _reference_nearest(space, sorted_points, q):
    """min of metric over nearest_distance's candidates, in its order.

    An extreme more than 1 from q is followed by the last point on its side
    still more than 1 away and the next one towards q.
    """
    i = bisect_left(sorted_points, q)
    near = sorted_points[i - 1:i + 1] if i else sorted_points[:1]
    if space is Space.CIRCLE:
        for end in sorted_points[0], sorted_points[-1]:
            near.append(end)
            if abs(q - end) > 1:
                side = [p for p in sorted_points if (p < q) == (end < q)]
                far = [p for p in side if abs(q - p) > 1]
                close = [p for p in side if not abs(q - p) > 1]
                near += far[-1:] + close[:1] if end < q else close[-1:] + far[:1]
    return min([metric(space, q, p) for p in near])


def _reference_hull(family, x, order_k, depth, tally=None):
    """hull_sample with one cache.omega call per word letter and metric calls.

    ``tally``, if given, counts the candidates under "candidates" and those
    equal to a point already kept under "repeats".
    """
    cap = points_budget(4096)
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
                if _reference_nearest(family.space, index, z) >= DEDUP_EPS:
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


def _check_hull(family, x, order_k, depth, env):
    with _points_env(env):
        hs = hull_sample(family, x, order_k, depth)
        points, exhausted, stabilized = _reference_hull(family, x, order_k, depth)
    assert _reprs(hs.points) == _reprs(points)
    assert (hs.budget_exhausted, hs.stabilized) == (exhausted, stabilized)


hull_args = dict(
    order_k=st.integers(min_value=1, max_value=4),
    depth=st.integers(min_value=1, max_value=4),
    env=st.sampled_from([None, "1", "3", "5", "40", "60"]),
)


def _cycle(angles):
    return MapFamily(Space.CIRCLE,
                     lambda n: CircleRotation(angles[(n - 1) % len(angles)]),
                     "cycle", declared_commutative=True, declared_isometric=True)


class _Counted:
    """A point type that counts its floor divisions and records its subtractions."""

    log: dict = {}

    def __floordiv__(self, other):
        _Counted.log["keys"] += 1
        return super().__floordiv__(other)

    def __sub__(self, other):
        _Counted.log["pairs"].append((self, other))
        return super().__sub__(other)


class _CountedFloat(_Counted, float):
    pass


class _CountedFraction(_Counted, Fraction):
    pass


def _counted(v):
    return (_CountedFraction if isinstance(v, Fraction) else _CountedFloat)(v)


class _CountedRotation(CircleRotation):
    def forward(self, x):
        return _counted(super().forward(x))

    def inverse(self, x):
        return _counted(super().inverse(x))


def _rule_less(angles, r=1, commutative=True, horizon=100_000):
    """A fresh rotation family with no rule on the cycle ``angles``, in blocks of r."""
    steps = [(Fraction(a) % 1).as_integer_ratio() for a in angles]
    exact = RationalRotationFamily(lambda n: steps[(n - 1) % len(steps)], "cycle")
    family = rotation_family("cycle", exact.rule) if commutative else MapFamily(
        Space.CIRCLE, None, "cycle", declared_isometric=True, exact=exact)
    family.horizon = horizon
    return block_family(family, r)


# x values at and past the ends of the circle's coordinates, and Fractions;
# a point outside [-BOUNDARY_TOL, 1 + BOUNDARY_TOL), exact or float, is rejected
# by its first window read
edge_x = st.one_of(
    st.sampled_from([-0.0, 0.0, 1.0, 1 - 2 ** -53, 0.5, -5e-10]), past_one,
    st.floats(min_value=0.0, max_value=1.0), frac_pt,
    st.sampled_from([Fraction(5, 2), Fraction(-1, 3), Fraction(3, 2), Fraction(-7),
                     Fraction(-10 ** 400)]))  # past float range: no key for it


def _outcome(f, *args):
    """``f(*args)``, or the repr of what it raised."""
    try:
        return f(*args)
    except Exception as exc:  # noqa: BLE001 - the type and message are compared
        return repr(exc)


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
    # floats and as Fractions; a Fraction x meets float angles
    @example(angles=[0.3, -0.3], x=0.1, order_k=3, depth=4, env=None)
    @example(angles=[Fraction(1, 3), Fraction(-1, 3)], x=Fraction(1, 5), order_k=3,
             depth=4, env=None)
    @example(angles=[0.5, 0.25], x=Fraction(1, 2), order_k=2, depth=3, env=None)
    @example(angles=[0.1, 0.2, 0.3], x=0.0, order_k=2, depth=3, env="40")
    # a NaN angle makes NaN candidates: no key finds their neighbours, and the
    # scan over every kept point drops them, as nearest_distance's NaN did
    @example(angles=[float("nan")], x=0.3, order_k=1, depth=2, env=None)
    def test_rotation_cycles(self, angles, x, order_k, depth, env):
        _check_hull(_cycle(angles), x, order_k, depth, env)

    # an exact repeat never reaches the dedup kernel: the points themselves count
    # their bucket keys (//) and record each distance they enter (-)
    @settings(max_examples=30, deadline=None)
    @given(
        angles=st.lists(st.one_of(
            st.fractions(min_value=-1, max_value=1, max_denominator=12),
            st.sampled_from([0.5, -0.5, 0.25, 0.3, -0.3, 0.1])),
            min_size=1, max_size=3),
        x=st.one_of(st.sampled_from([0.0, 0.1, 0.5]), frac_pt.map(lambda f: f % 1)),
        order_k=st.integers(min_value=1, max_value=4),
        depth=st.integers(min_value=1, max_value=4),
    )
    @example(angles=[0.3, -0.3], x=0.1, order_k=3, depth=4)
    @example(angles=[Fraction(1, 3), Fraction(-1, 3)], x=Fraction(1, 5), order_k=3, depth=4)
    def test_exact_repeats_skip_the_kernel(self, angles, x, order_k, depth):
        tally, log = {}, {"keys": 0, "pairs": []}
        _Counted.log = log
        with _points_env(None):
            points, _, _ = _reference_hull(_cycle(angles), x, order_k, depth, tally)
            counted = MapFamily(Space.CIRCLE,
                                lambda n: _CountedRotation(angles[(n - 1) % len(angles)]),
                                "counted", declared_commutative=True)
            hs = hull_sample(counted, _counted(x), order_k, depth)
        assert hs.points == points
        # one key for x, then one per candidate that is not an exact repeat
        assert log["keys"] == 1 + tally["candidates"] - tally["repeats"]
        assert all(z != p for z, p in log["pairs"])

    # rotation families with no rule: a declared-commutative one and its block
    # families read each round's windows in one batch over their turns; one not
    # declared commutative reads its backward windows through omega
    @settings(max_examples=80, deadline=None)
    @given(
        angles=st.lists(st.fractions(min_value=-1, max_value=1, max_denominator=12),
                        min_size=1, max_size=4),
        r=st.sampled_from([1, 2, 3]),
        commutative=st.booleans(),
        x=edge_x,
        order_k=st.integers(min_value=1, max_value=4),
        depth=st.integers(min_value=1, max_value=4),
        env=st.sampled_from([None, "1", "3", "40", "60"]),
    )
    @example(angles=[Fraction(1, 3)], r=1, commutative=True, x=1 - 2 ** -53, order_k=2,
             depth=3, env=None)
    @example(angles=[Fraction(1, 7), Fraction(-1, 7)], r=1, commutative=True,
             x=1.0000000005, order_k=3, depth=3, env=None)
    @example(angles=[Fraction(1, 7), Fraction(1, 5)], r=2, commutative=False, x=-0.0,
             order_k=2, depth=3, env=None)
    # x = 5/2 is off the circle's coordinates: both reads reject it
    @example(angles=[Fraction(1, 4)], r=1, commutative=True, x=Fraction(5, 2), order_k=2,
             depth=3, env=None)
    def test_rule_less_families(self, angles, r, commutative, x, order_k, depth, env):
        family = _rule_less(angles, r, commutative)
        with _points_env(env):
            hs = _outcome(hull_sample, family, x, order_k, depth)
            want = _outcome(_reference_hull, _rule_less(angles, r, commutative), x,
                            order_k, depth)
        if not -BOUNDARY_TOL <= x < 1 + BOUNDARY_TOL:
            assert hs == want and hs.startswith("DomainError(")
            return
        points, exhausted, stabilized = want
        assert _reprs(hs.points) == _reprs(points)
        assert (hs.budget_exhausted, hs.stabilized) == (exhausted, stabilized)
        # the batch stores no trajectory; a lazy read stores the ones it reads
        batch = commutative and type(x) is float
        assert (family._traj == {}) == batch

    # a circle family whose maps reach 1.0, which is 0.0: its key wraps to 0's
    @pytest.mark.parametrize("x", [0.0, 0.3, 1.0, 1 - 2 ** -53])
    def test_circle_points_past_one(self, x):
        def flip():
            return MapFamily(Space.CIRCLE, lambda n: Reflection(), "flip",
                             declared_isometric=True)
        hs = hull_sample(flip(), x, 2, 3)
        points, exhausted, stabilized = _reference_hull(flip(), x, 2, 3)
        assert _reprs(hs.points) == _reprs(points)
        assert (hs.budget_exhausted, hs.stabilized) == (exhausted, stabilized)

    # a point off the circle's coordinates, a broken declaration, the horizon and
    # the denominator budget end hull_sample as they end its first window read
    @pytest.mark.parametrize("make", [
        lambda: _rule_less([Fraction(1, 3)]),
        lambda: _rule_less([Fraction(1, 3)], horizon=3),
        lambda: _rule_less([Fraction(1, 3)], r=2, horizon=5),
        lambda: MapFamily(Space.CIRCLE, None, "bad_period", declared_commutative=True,
                          declared_period=1, exact=RationalRotationFamily(
                              lambda n: (1, n + 1), "bad_period")),
        lambda: rotation_family("huge", lambda n: (1, 2 ** (5000 * n))),
        lambda: _cycle([0.25, float("nan")]),
    ])
    @pytest.mark.parametrize("x", [0.3, Fraction(1, 3), 1.5, -0.5, 1 + 2e-9, float("inf"),
                                   float("nan"), Fraction(5, 2)])
    def test_errors_match_the_first_window(self, make, x):
        want = _outcome(FlowCache(make()).window, x, 4)
        got = _outcome(hull_sample, make(), x, 4, 2)
        assert got == want if isinstance(want, str) else isinstance(got, HullSample)

    @settings(max_examples=60, deadline=None)
    @given(name=st.sampled_from(["example1_tent_sqrt", "example2_powers"]),
           x=st.one_of(st.sampled_from([0.0, 0.25, 0.5, 1.0]),
                       st.floats(min_value=0.0, max_value=1.0)),
           **hull_args)
    def test_interval_families(self, name, x, order_k, depth, env):
        # example1 reads periodic backward windows, example2 commutative ones
        _check_hull(corpus(name).family, x, order_k, depth, env)


def _single_type(*lists):
    return len({type(p) for ps in lists for p in ps}) == 1


def _brute_nearest(space, pts, q):
    return min(metric(space, q, p) for p in pts)


class TestHausdorffSweep:
    """The one-sweep kernel and _hausdorff against per-query scans, by repr.

    On lists of one type each value is the brute-force min over all points.
    On mixed lists a Fraction and a float distance may tie, and the value's
    type is that of nearest_distance's first least candidate, as the
    reference reads them.
    """

    @given(space=st.sampled_from(list(Space)),
           pts=st.one_of(st.lists(float_pt, min_size=1, max_size=10),
                         st.lists(frac_pt, min_size=1, max_size=10),
                         st.lists(any_pt, min_size=1, max_size=10)),
           queries=st.lists(any_pt, max_size=10))
    @example(space=Space.CIRCLE, pts=[0.99], queries=[0.01, 0.5, 0.98])  # across 0
    @example(space=Space.CIRCLE, pts=[0.01, 0.99], queries=[0.0, 0.01, 0.99, 1.0])
    @example(space=Space.CIRCLE, pts=[0.5, Fraction(1, 2), 0.5], queries=[0.5, 0.5])
    @example(space=Space.UNIT_INTERVAL, pts=[0.25, Fraction(3, 4)],
             queries=[Fraction(1, 2), 0.5, Fraction(1, 2)])
    @example(space=Space.CIRCLE, pts=[Fraction(1, 4), 0.75], queries=[Fraction(1, 2)])
    def test_kernel_equals_per_query_scans(self, space, pts, queries):
        pts, queries = sorted(pts), sorted(queries)
        got = list(nearest_distances(space, pts, queries))
        assert _reprs(got) == _reprs([_reference_nearest(space, pts, q) for q in queries])
        if _single_type(pts, queries):
            assert _reprs(got) == _reprs([_brute_nearest(space, pts, q) for q in queries])

    @given(space=st.sampled_from(list(Space)),
           a=st.one_of(st.lists(float_pt, min_size=1, max_size=10),
                       st.lists(frac_pt, min_size=1, max_size=10),
                       st.lists(any_pt, min_size=1, max_size=10)),
           b=st.one_of(st.lists(float_pt, min_size=1, max_size=10),
                       st.lists(frac_pt, min_size=1, max_size=10),
                       st.lists(any_pt, min_size=1, max_size=10)))
    @example(space=Space.CIRCLE, a=[0.99], b=[0.01])  # a wrap pair: 0.02 apart
    @example(space=Space.CIRCLE, a=[0.99, 0.99, 0.5], b=[0.01, 0.5, 0.5])  # duplicates
    # both directions tie at 1/4: a Fraction and a float, the first in query order
    @example(space=Space.CIRCLE, a=[Fraction(1, 4), 0.75], b=[Fraction(1, 2), 0.5])
    @example(space=Space.CIRCLE, a=[0.75, Fraction(1, 4)], b=[Fraction(1, 2), 0.5])
    @example(space=Space.UNIT_INTERVAL, a=[0.5, Fraction(1, 2)], b=[0.25, Fraction(3, 4)])
    def test_hausdorff_equals_brute_force(self, space, a, b):
        if _single_type(a, b):
            want = max(max(_brute_nearest(space, b, p) for p in a),
                       max(_brute_nearest(space, a, q) for q in b))
        else:
            want = max(max(_reference_nearest(space, sorted(b), p) for p in a),
                       max(_reference_nearest(space, sorted(a), q) for q in b))
        assert repr(_hausdorff(space, a, b)) == repr(want)


def _reference_first_far(space, cache, a, b, w, eps):
    """_first_far_time with one metric call per time of the whole window."""
    wa, wb = cache.window(a, w), cache.window(b, w)
    for k in _scan_times(w):
        d = metric(space, wa[w + k], wb[w + k])
        if d >= eps:
            return k, d
    return None


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
           w=st.integers(min_value=0, max_value=40))
    # the pair sits at exactly eps at every time: the scan must stop at time 0
    @example(name="identity", a=0.25, b=0.5, eps=0.25, w=3)
    # closer than eps at times 0 and 1, exactly eps at time -1 (square roots)
    @example(name="interval_square_sqrt", a=0.0625, b=0.25, eps=0.25, w=5)
    def test_first_far_time(self, name, a, b, eps, w):
        fam = corpus(name).family
        got = _first_far_time(fam, a, b, w, eps)
        # a fresh family: the reference reads no trajectory the kernel stored
        fresh = corpus(name).family
        want = _reference_first_far(fresh.space, FlowCache(fresh), a, b, w, eps)
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
