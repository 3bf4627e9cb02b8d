"""Property-based invariants over random inputs (hypothesis)."""

import math
import os
from fractions import Fraction
from unittest import mock

import pytest
from hypothesis import event, example, given, settings
from hypothesis import strategies as st

from naads import (
    CircleRotation,
    DomainError,
    FlowCache,
    MapFamily,
    PiecewiseLinear,
    PowerMap,
    PreconditionError,
    PropertyReport,
    RationalRotationFamily,
    Space,
    Verdict,
    almost_periodicity_report,
    block_family,
    corpus,
    equicontinuity_modulus,
    hull_periodicity_property,
    hull_sample,
    li_yorke_classify,
    metric,
    nearest_distance,
    net_centers,
    omega,
    orbit_density,
    periodicity_check,
    replay_witness,
    return_time_set,
    sensitivity_at_point,
    transitivity_scan,
    uniform_ap_report,
)
from naads.checkers import _ball_samples, _nearby_pairs, _records_call, _scan_times
from naads.flow import DEDUP_EPS
from naads.space import BOUNDARY_TOL, diameter, spread_exceeds, uniform_grid

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


def _reference_angle(angle):
    if isinstance(angle, (int, str, Fraction)):
        return Fraction(angle) % 1
    return float(angle) % 1.0


def _reference_rotate(angle, x, inverse=False):
    """CircleRotation.forward / inverse as the general path computes them.

    A copy of the constructor as it reduced with ``% 1``, of ``_shift`` and of
    the float branch of ``wrap_circle``; CircleRotation must match it bit for bit.
    """
    angle = _reference_angle(angle)
    amount, amount_float = angle, float(angle)
    if inverse:
        amount, amount_float = -amount, -amount_float
    if not (-BOUNDARY_TOL <= x < 1 + BOUNDARY_TOL):
        raise DomainError(f"point {x!r} outside circle coordinates")
    if isinstance(x, Fraction) and isinstance(angle, Fraction):
        return (x + amount) % 1
    y = (x + amount_float) % 1.0
    if y >= 1.0:
        y -= 1.0
    return y


def _outcome(f, *args):
    try:
        y = f(*args)
    except DomainError:
        return DomainError
    return type(y), repr(y)


kernel_angle = st.one_of(
    st.floats(min_value=-3, max_value=3),
    st.fractions(min_value=-3, max_value=3, max_denominator=1 << 20),
    st.integers(min_value=-3, max_value=3),
)
kernel_pt = st.one_of(
    st.floats(min_value=-BOUNDARY_TOL, max_value=1 + BOUNDARY_TOL, exclude_max=True),
    st.sampled_from([-0.0, 0.0, 1 - 2**-53, -1e-20, -5e-324, -BOUNDARY_TOL,
                     1 + BOUNDARY_TOL, math.nextafter(1 + BOUNDARY_TOL, 0)]),
    st.floats(),  # mostly outside the circle coordinates, nan and inf included
    st.integers(min_value=-2, max_value=2),
    st.fractions(min_value=-2, max_value=2, max_denominator=1 << 20),
)


class TestRotationKernel:
    @settings(max_examples=400, deadline=None)
    @given(angle=kernel_angle, x=kernel_pt)
    # (x + angle) % 1.0 rounds up to 1.0 and is folded back to 0.0
    @example(angle=0.0, x=-1e-20)
    @example(angle=0.25, x=math.nextafter(0.25, 0))
    @example(angle=Fraction(1, 4), x=math.nextafter(0.25, 0))
    @example(angle=0.75, x=math.nextafter(0.25, 0))
    @example(angle=Fraction(1, 3), x=Fraction(5, 2))  # an exact point is range-checked too
    def test_matches_general_path(self, angle, x):
        h = CircleRotation(angle)
        ref = _reference_angle(angle)
        assert (type(h.angle), repr(h.angle)) == (type(ref), repr(ref))
        assert _outcome(h.forward, x) == _outcome(_reference_rotate, angle, x)
        assert _outcome(h.inverse, x) == _outcome(_reference_rotate, angle, x, True)

    @given(angle=kernel_angle, x=st.one_of(
        st.floats(max_value=-2 * BOUNDARY_TOL), st.floats(min_value=1 + BOUNDARY_TOL),
        st.just(math.nan), st.integers(min_value=2), st.integers(max_value=-1),
        st.fractions(min_value=1 + BOUNDARY_TOL),
        st.fractions(max_value=-2 * BOUNDARY_TOL)))
    def test_out_of_range_points_raise(self, angle, x):
        h = CircleRotation(angle)
        with pytest.raises(DomainError):
            h.forward(x)
        with pytest.raises(DomainError):
            h.inverse(x)


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
        hs = hull_sample(fam, x, order_k=2, depth=2)
        assert hs.points[0] == x
        for i, p in enumerate(hs.points):
            for q in hs.points[i + 1:]:
                assert metric(fam.space, p, q) >= DEDUP_EPS


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


class TestSpreadExceeds:
    @given(
        space=st.sampled_from(list(Space)),
        pts=st.lists(float_pt, max_size=10),
        delta=st.one_of(st.sampled_from([0.0, 0.125, 0.25, 0.5 - 2 ** -53, 0.5, -1.0]),
                        unit),
    )
    @example(space=Space.CIRCLE, pts=[0.05, 0.95], delta=0.125)  # close across 0
    @example(space=Space.CIRCLE, pts=[0.0, 0.5, 0.95], delta=0.25)
    @example(space=Space.UNIT_INTERVAL, pts=[0.3], delta=-1.0)  # no pair at all
    @example(space=Space.CIRCLE, pts=[0.0, 0.75], delta=0.25)  # 1 - d ties delta
    @example(space=Space.UNIT_INTERVAL, pts=[0.5, 0.25, 0.375], delta=0.25)
    def test_float_points_equal_all_pairs(self, space, pts, delta):
        if space is Space.CIRCLE:
            pts = [p % 1.0 for p in pts]
        pairs = [(p, q) for i, p in enumerate(pts) for q in pts[i + 1:]]
        assert spread_exceeds(space, pts, delta) == any(
            metric(space, p, q) > delta for p, q in pairs)

    @given(
        space=st.sampled_from(list(Space)),
        pts=st.lists(frac_pt, max_size=10),
        delta=st.fractions(min_value=0, max_value=Fraction(1, 2), max_denominator=16),
    )
    def test_fraction_points_equal_all_pairs(self, space, pts, delta):
        if space is Space.CIRCLE:
            pts = [p % 1 for p in pts]
        pairs = [(p, q) for i, p in enumerate(pts) for q in pts[i + 1:]]
        assert spread_exceeds(space, pts, delta) == any(
            metric(space, p, q) > delta for p, q in pairs)

    # the boundary slack admits pairs more than 1 apart, at distance d - 1
    @given(
        pts=st.lists(st.one_of(
            st.floats(min_value=-BOUNDARY_TOL, max_value=1 + BOUNDARY_TOL, exclude_max=True),
            st.sampled_from([-5e-10, -BOUNDARY_TOL, 1 + 5e-10, 1e-10, 0.0, 1.0])),
            max_size=10),
        delta=st.sampled_from([0.0, 1e-10, 5e-10, 8e-10, 1e-9, 0.25]),
    )
    @example(pts=[-5e-10, 1e-10, 1 + 5e-10], delta=8e-10)  # only the widest pair
    def test_slack_points_equal_all_pairs(self, pts, delta):
        pairs = [(p, q) for i, p in enumerate(pts) for q in pts[i + 1:]]
        assert spread_exceeds(Space.CIRCLE, pts, delta) == any(
            metric(Space.CIRCLE, p, q) > delta for p, q in pairs)


def _reference_equicontinuity(family, eps, n_max, pair_grid):
    """equicontinuity_modulus's scan with one cache.omega call per time."""
    space, cache = family.space, FlowCache(family)
    grid_pts = uniform_grid(space, pair_grid)
    deltas, witness = [], None
    for w in (n_max, 2 * n_max, 4 * n_max):
        found = 0.0
        for delta in [eps / 2 ** i for i in range(21)]:
            fail = None
            for a, b in _nearby_pairs(space, grid_pts, delta):
                for n in _scan_times(w):
                    d = metric(space, cache.omega(n, a), cache.omega(n, b))
                    if d >= eps:
                        fail = (a, b, n, d)
                        break
                if fail:
                    break
            if fail is None:
                found = delta
                break
            witness = fail
        deltas.append(found)
    return deltas, witness


def _reference_sensitivity(family, x, radii, samples, n_max):
    """sensitivity_at_point's scan over every pair at every time."""
    space, cache = family.space, FlowCache(family)
    delta = diameter(space) / 4
    hits = []
    for radius in radii:
        pts = _ball_samples(space, x, radius, samples)
        wins = [cache.window(p, n_max) for p in pts]
        hit = next(((pts[i], pts[j], k, d) for k in _scan_times(n_max)
                    for i in range(len(pts)) for j in range(i + 1, len(pts))
                    if (d := metric(space, wins[i][k + n_max], wins[j][k + n_max]))
                    > delta), None)
        hits.append(hit)
        if hit is None:
            break
    return hits


# families whose pairs separate (example1, example2, square_sqrt) and
# isometries whose pairs never do
scan_family = st.sampled_from(
    ["example1_tent_sqrt", "example2_powers", "interval_square_sqrt",
     "circle_harmonic", "circle_ex4", "identity"])


class TestWindowScansMatchTimeScans:
    @settings(max_examples=30, deadline=None)
    @given(
        name=scan_family,
        eps=st.sampled_from([0.01, 0.05, 0.1, 0.3]),
        n_max=st.integers(min_value=1, max_value=12),
        pair_grid=st.integers(min_value=2, max_value=6),
    )
    def test_equicontinuity_modulus(self, name, eps, n_max, pair_grid):
        fam = corpus(name).family
        rep = equicontinuity_modulus(fam, eps, n_max, pair_grid)
        deltas, witness = _reference_equicontinuity(fam, eps, n_max, pair_grid)
        assert repr([d for _, d in rep.details["trend"]]) == repr(deltas)
        got = None
        if rep.witnesses:
            (w,) = rep.witnesses
            got = (*w.points, *w.times, *w.distances)
        assert repr(got) == repr(witness)

    @settings(max_examples=30, deadline=None)
    @given(
        name=scan_family,
        x=interior,
        radii=st.sampled_from([(0.1, 0.01), (0.3,), (0.01, 0.001)]),
        samples=st.integers(min_value=2, max_value=9),
        n_max=st.integers(min_value=0, max_value=25),
    )
    def test_sensitivity_at_point(self, name, x, radii, samples, n_max):
        fam = corpus(name).family
        rep = sensitivity_at_point(fam, x, radii=radii, samples=samples, n_max=n_max)
        hits = _reference_sensitivity(fam, x, radii, samples, n_max)
        got = [(*w.points, *w.times, *w.distances) for w in rep.witnesses]
        if hits[-1] is None:  # the unexpanded radius is reported without witnesses
            assert rep.verdict is Verdict.EVIDENCE_AGAINST
            assert rep.details["unexpanded_radius"] == radii[len(hits) - 1]
            hits = []
        assert repr(got) == repr(hits)

    @settings(max_examples=30, deadline=None)
    @given(name=scan_family, x=interior, eps=st.sampled_from([0.01, 0.1, 0.3]),
           n_max=st.integers(min_value=1, max_value=25))
    def test_return_time_set(self, name, x, eps, n_max):
        fam = corpus(name).family
        cache = FlowCache(fam)
        times = [n for n in range(-n_max, n_max + 1)
                 if metric(fam.space, cache.omega(n, x), x) < eps]
        assert return_time_set(fam, x, eps, n_max).times == times


@_records_call
def _reference_transitivity_scan(family, eps, n_max, grid=16):
    """transitivity_scan read eagerly: every center's worst time, every ball built."""
    space, cache = family.space, FlowCache(family)
    dense_point = next((g for g in uniform_grid(space, grid)
                        if _reference_eps_dense(cache, g, eps, n_max)[0]), None)
    centers = net_centers(space, eps)
    ball = {}
    for c in centers:
        pts = []
        for off in (0.0, 0.5 * eps, -0.5 * eps, 0.9 * eps, -0.9 * eps):
            p = (c + off) % 1.0 if space is Space.CIRCLE else min(1.0, max(0.0, c + off))
            if metric(space, p, c) < eps and all(q != p for q in pts):
                pts.append(p)
        ball[c] = sorted(z for p in pts for z in cache.window(p, n_max))
    unmet = next(((u, v) for u in centers for v in centers
                  if nearest_distance(space, ball[u], v) >= eps), None)
    sub_a, sub_b = dense_point is not None, unmet is None
    verdict = (Verdict.EVIDENCE_FOR if sub_a and sub_b else
               Verdict.EVIDENCE_AGAINST if not sub_a and not sub_b else
               Verdict.INCONCLUSIVE_BUDGET)
    return PropertyReport("transitivity", verdict, details={
        "dense_orbit": sub_a, "dense_orbit_point": dense_point,
        "open_set_scan": sub_b, "unmet_pair": unmet})


def _reference_gap(family, x, eps, n):
    """The gap bound of a return-time scan of its own window n: internal or censored."""
    times = return_time_set(family, x, eps, n).times
    internal = max((b - a for a, b in zip(times, times[1:])), default=0)
    return max(internal, times[0] + n, n - times[-1])


@_records_call
def _reference_almost_periodicity_report(family, x, eps, n_max):
    """almost_periodicity_report with one return-time scan per window."""
    windows = [n_max, 2 * n_max, 4 * n_max]
    gaps = [_reference_gap(family, x, eps, w) for w in windows]
    trend = list(zip(windows, gaps))
    if gaps[2] > gaps[0]:
        return PropertyReport("almost_periodicity", Verdict.EVIDENCE_AGAINST,
                              details={"trend": trend})
    return PropertyReport("almost_periodicity", Verdict.EVIDENCE_FOR,
                          details={"M": gaps[2], "trend": trend})


@_records_call
def _reference_uniform_ap_report(family, eps, n_max, grid_size=64):
    """uniform_ap_report with one return-time scan per window."""
    worst_m = 0
    for g in uniform_grid(family.space, grid_size):
        g1 = _reference_gap(family, g, eps, n_max)
        g2 = _reference_gap(family, g, eps, 2 * n_max)
        if g2 > g1:
            return PropertyReport("uniform_almost_periodicity", Verdict.EVIDENCE_AGAINST,
                                  details={"worst_point": g,
                                           "gap_trend": [(n_max, g1), (2 * n_max, g2)]})
        worst_m = max(worst_m, g2)
    return PropertyReport("uniform_almost_periodicity", Verdict.EVIDENCE_FOR,
                          details={"M": worst_m})


# a way to build a fresh family: a corpus family (example1_tent_sqrt among
# them) or an inline rotation cycle
lazy_family = st.one_of(
    corpus_name.map(lambda name: lambda: corpus(name).family),
    st.lists(st.fractions(min_value=-1, max_value=1, max_denominator=40),
             min_size=1, max_size=4).map(lambda angles: lambda: _rotation_cycle(angles)[0]),
)


class TestLazyScansMatchEagerScans:
    """Each scan stops at its first decisive answer; the reports stay the same."""

    @settings(max_examples=40, deadline=None)
    @given(make=lazy_family, eps=st.sampled_from([0.05, 0.1, 0.2, 0.3, 0.6]),
           n_max=st.integers(min_value=0, max_value=60),
           grid=st.integers(min_value=2, max_value=6))
    def test_transitivity_scan(self, make, eps, n_max, grid):
        got = transitivity_scan(make(), eps, n_max, grid)
        want = _reference_transitivity_scan(make(), eps, n_max, grid)
        assert got.render() == want.render()

    @settings(max_examples=30, deadline=None)
    @given(make=lazy_family, r=st.integers(min_value=2, max_value=4),
           eps=st.sampled_from([0.05, 0.1, 0.2, 0.3]),
           n_max=st.integers(min_value=0, max_value=40),
           grid=st.integers(min_value=2, max_value=6))
    # a ball that misses a center through 16 block steps and meets it by 40
    @example(make=lambda: corpus("circle_harmonic").family, r=3, eps=0.05, n_max=40,
             grid=2)
    def test_block_transitivity_scan(self, make, r, eps, n_max, grid):
        # the scan r_transitivity_check runs
        got = transitivity_scan(block_family(make(), r), eps, n_max, grid)
        want = _reference_transitivity_scan(block_family(make(), r), eps, n_max, grid)
        assert got.render() == want.render()

    @settings(max_examples=40, deadline=None)
    @given(make=lazy_family, x=interior, eps=st.sampled_from([0.01, 0.05, 0.1, 0.3]),
           n_max=st.integers(min_value=1, max_value=15))
    def test_almost_periodicity_report(self, make, x, eps, n_max):
        got = almost_periodicity_report(make(), x, eps, n_max)
        want = _reference_almost_periodicity_report(make(), x, eps, n_max)
        assert got.render() == want.render()

    @settings(max_examples=40, deadline=None)
    @given(make=lazy_family, eps=st.sampled_from([0.01, 0.05, 0.1, 0.3]),
           n_max=st.integers(min_value=1, max_value=12),
           grid_size=st.integers(min_value=2, max_value=8))
    def test_uniform_ap_report(self, make, eps, n_max, grid_size):
        got = uniform_ap_report(make(), eps, n_max, grid_size)
        want = _reference_uniform_ap_report(make(), eps, n_max, grid_size)
        assert got.render() == want.render()


def _reference_hull(family, x, order_k, depth, cap):
    """hull_sample's rule written as the plain all-points scan."""
    cache = FlowCache(family)
    points, frontier = [x], [x]
    for _ in range(depth):
        new = []
        for y in frontier:
            for r in range(-order_k, order_k + 1):
                z = cache.omega(r, y)
                if all(metric(family.space, z, p) >= DEDUP_EPS for p in points):
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
        cap=st.sampled_from([5, 60, 4096]),
    )
    def test_rotation_cycles(self, angles, x, order_k, depth, cap):
        fam = MapFamily(
            Space.CIRCLE,
            lambda n: CircleRotation(angles[(n - 1) % len(angles)]),
            "cycle",
            declared_commutative=True,
        )
        with mock.patch.dict(os.environ, {"NAADS_BUDGET_POINTS": str(cap)}):
            hs = hull_sample(fam, x, order_k, depth)
        points, exhausted, stabilized = _reference_hull(fam, x, order_k, depth, cap)
        assert hs.points == points
        assert [type(p) for p in hs.points] == [type(p) for p in points]
        assert (hs.budget_exhausted, hs.stabilized) == (exhausted, stabilized)


def _reference_eps_dense(cache, x, eps, n_max):
    """orbit_density's scan in full: every center against every time.

    Returns (dense, worst_center, worst_distance, worst_time).
    """
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


def _density_facts(rep):
    """(dense, worst_center, worst_distance), and the witness time if not dense."""
    facts = (rep.verdict is Verdict.EVIDENCE_FOR, rep.details["worst_center"],
             rep.details["max_center_distance"])
    return facts + rep.witnesses[0].times if rep.witnesses else facts


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
        got = _density_facts(orbit_density(corpus(name).family, x, eps, n_max))
        want = _reference_eps_dense(FlowCache(corpus(name).family), x, eps, n_max)
        assert repr(got) == repr(want[:3] if want[0] else want)

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
        x = (j % q) / q
        got = _density_facts(orbit_density(fam, x, eps, n_max))
        want = _reference_eps_dense(FlowCache(fam), x, eps, n_max)
        assert repr(got) == repr(want[:3] if want[0] else want)


def _rotation_cycle(angles):
    """The inline rotation family of ``angles`` and the same maps without ``exact``."""
    steps = [(Fraction(a) % 1).as_integer_ratio() for a in angles]
    exact_fam = MapFamily(
        Space.CIRCLE,
        None,
        "cycle",
        declared_commutative=True,
        declared_isometric=True,
        exact=RationalRotationFamily(lambda n: steps[(n - 1) % len(steps)], "cycle"),
    )
    float_fam = MapFamily(Space.CIRCLE,
                          lambda n: CircleRotation(angles[(n - 1) % len(angles)]), "cycle",
                          declared_commutative=True, declared_isometric=True)
    return exact_fam, float_fam


class TestExactMatchesFloatPeriodicity:
    @settings(max_examples=40, deadline=None)
    @given(
        angles=st.lists(st.fractions(min_value=-1, max_value=1, max_denominator=12),
                        min_size=1, max_size=3),
        closed=st.booleans(),
        mult=st.integers(min_value=1, max_value=2),
        x=circle_pt,
        order_k=st.integers(min_value=1, max_value=3),
        depth=st.integers(min_value=1, max_value=3),
    )
    def test_rotation_cycles(self, angles, closed, mult, x, order_k, depth):
        if closed:  # the cycle sums to a whole turn: period len(angles)
            angles = angles + [-sum(angles)]
        r, horizon = len(angles) * mult, 6
        exact_fam, float_fam = _rotation_cycle(angles)
        exact_rep = periodicity_check(exact_fam, x, r, horizon)
        event(exact_rep.verdict.value)
        float_rep = periodicity_check(float_fam, x, r, horizon)
        expected = {Verdict.CERTIFIED: Verdict.EVIDENCE_FOR,
                    Verdict.REFUTED: Verdict.REFUTED}[exact_rep.verdict]
        assert float_rep.verdict is expected
        if expected is Verdict.REFUTED:
            for fam in (exact_fam, float_fam):
                with pytest.raises(PreconditionError):
                    hull_periodicity_property(fam, x, r, order_k, depth, horizon)
            return
        exact_hull = hull_periodicity_property(exact_fam, x, r, order_k, depth, horizon)
        float_hull = hull_periodicity_property(float_fam, x, r, order_k, depth, horizon)
        assert exact_hull.verdict is float_hull.verdict is Verdict.EVIDENCE_FOR
        assert exact_hull.details["failing_points"] == 0
        assert float_hull.details == exact_hull.details
