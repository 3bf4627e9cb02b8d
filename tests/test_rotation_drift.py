"""The drift bound of rotation windows, and the checkers that skip windows by it.

Float window entry n of a rotation family lies within |n| * 2**-51 of its
exact rotation, and ``flow.rotation_drift`` turns that into a slack on
distances.  ``equicontinuity_modulus``, ``sensitivity_at_point`` (and so
``dichotomy_scan``) and ``uniform_ap_report`` decide from that slack, without
reading the windows, what a scan of them would find.  Each must render the
report that the scan renders on the same steps built as a rule family of
``CircleRotation`` maps, which has no exact view and so always scans;
near-ties within the bound must fall back to the scan.  One gate,
``MapFamily.rides_turns``, says which points run the inline loop; hull
enumeration's batch and the drift slack both ask it.
"""

import math
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from naads import (
    BudgetError,
    CircleRotation,
    ConstructionError,
    FlowCache,
    MapFamily,
    RationalRotationFamily,
    Space,
    Verdict,
    block_family,
    corpus,
    dichotomy_scan,
    equicontinuity_modulus,
    exact,
    hull_closure_equality,
    metric,
    sensitivity_at_point,
    uniform_ap_report,
)
from naads.corpus import rotation_family
from naads.flow import _windows, rotation_drift
from naads.space import BOUNDARY_TOL


@st.composite
def _step(draw):
    """A coprime pair (a, b), 0 <= a < b <= 2**40."""
    b = draw(st.integers(min_value=1, max_value=2 ** 40))
    return Fraction(draw(st.integers(min_value=0, max_value=b - 1)), b).as_integer_ratio()


_CYCLE = st.lists(_step(), min_size=1, max_size=5)
_POINT = st.floats(min_value=0, max_value=1, exclude_max=True)
# steps declared of period 1, but f_5 differs from f_4
_BROKEN = [(1, 3)] * 4 + [(2, 3)] + [(1, 3)] * 3


def _inline(steps, name="cycle", **declared) -> MapFamily:
    """The rotation cycle as its exact view: windows run the inline loop."""
    return MapFamily(Space.CIRCLE, None, name, declared_commutative=True,
                     declared_isometric=True, **declared,
                     exact=RationalRotationFamily(lambda n: steps[(n - 1) % len(steps)],
                                                  name))


def _as_rule(fam: MapFamily) -> MapFamily:
    """The same steps as CircleRotation maps from a rule, which has no exact view.

    The maps read the steps of a fresh copy of the exact view, so its
    denominator budget and declared period fire at the same index.
    """
    steps = RationalRotationFamily(fam.exact.rule, fam.name)
    return MapFamily(fam.space, lambda n: CircleRotation(steps.step(n)), fam.name,
                     declared_commutative=fam.declared_commutative,
                     declared_isometric=fam.declared_isometric, horizon=fam.horizon,
                     declared_period=fam.declared_period)


def _outcome(checker, fam, *args, **kwargs):
    """The rendered report, or the error raised."""
    try:
        return checker(fam, *args, **kwargs).render()
    except (BudgetError, ConstructionError, ValueError) as exc:
        return type(exc), str(exc)


def _same_reports(steps, checker, *args, **kwargs):
    inline = _inline(steps)
    assert _outcome(checker, inline, *args, **kwargs) == _outcome(
        checker, _as_rule(inline), *args, **kwargs)


def _circle_distance(a, b):
    d = abs(a - b) % 1
    return min(d, 1 - d)


class TestDriftBound:
    @settings(max_examples=80, deadline=None)
    @given(steps=_CYCLE, r=st.integers(min_value=1, max_value=7),
           n=st.integers(min_value=0, max_value=400), x=_POINT)
    @example(steps=[(1, 3)], r=7, n=400, x=0.9999999999999999)
    def test_window_entries_lie_within_the_drift(self, steps, r, n, x):
        # the specification's bound: |t| * 2**-51 at time t, a block per turn
        fam = _inline(steps)
        blocks = block_family(fam, r)
        window = FlowCache(blocks).window(x, n)
        for t, y in zip(range(-n, n + 1), window):
            want = (Fraction(x) + fam.exact.displacement(t * r)) % 1
            assert _circle_distance(Fraction(y), want) <= abs(t) * 2 ** -51, t

    def test_one_bound_per_turn(self):
        fam = _inline([(1, 3), (2, 5)])
        slack = 2 * (2 * 10 * 2 ** -51 + 2 ** -50)  # twice the drift, plus rounding, doubled
        assert rotation_drift(fam, [0.0, 0.5], 10) == slack
        # a block family turns once per block, by its exact block step
        assert rotation_drift(block_family(fam, 3), [0.5], 10) == slack
        ref = _as_rule(fam)
        assert rotation_drift(ref, [0.5], 10) is None
        assert rotation_drift(block_family(ref, 2), [0.5], 10) is None
        # the bound starts from floats in [0, 1)
        for p in 1.0, -5e-10, 1 + 5e-10, Fraction(1, 2), 0:
            assert rotation_drift(fam, [0.5, p], 10) is None
        assert rotation_drift(corpus("identity").family, [0.5], 10) is None

    def test_the_budget_errors_of_a_full_read(self):
        fam = _inline([(1, 3)])
        with pytest.raises(ValueError, match="window size must be >= 0"):
            rotation_drift(fam, [0.5], -1)
        with pytest.raises(BudgetError, match="time -100001 exceeds horizon 100000"):
            rotation_drift(fam, [0.5], 100_001)
        with pytest.raises(ConstructionError, match="f_5 differs from f_4"):
            rotation_drift(_inline(_BROKEN, declared_period=1), [0.5], 8)
        with pytest.raises(ConstructionError, match="f_5 differs from f_4"):
            _inline(_BROKEN, declared_period=1).rides_turns([0.5], 8)


# every kind of point: floats in [0, 1) and at its edges, within the boundary
# slack, ints and Fractions
_ANY_POINT = st.one_of(
    _POINT, st.sampled_from([-0.0, 1.0, 1 + 5e-10, -5e-10]),
    st.integers(min_value=0, max_value=1),
    st.fractions(min_value=0, max_value=1, max_denominator=12))
_KINDS = {
    "rule-less": lambda steps: _inline(steps),
    "rule": lambda steps: _as_rule(_inline(steps)),
    "blocks": lambda steps: block_family(_inline(steps), 2),
    "rule blocks": lambda steps: block_family(_as_rule(_inline(steps)), 2),
}


class TestOneGate:
    """rides_turns, _windows' batch and rotation_drift answer from one test."""

    @settings(max_examples=80, deadline=None)
    @given(steps=_CYCLE, kind=st.sampled_from(sorted(_KINDS)),
           points=st.lists(_ANY_POINT, min_size=1, max_size=4),
           n=st.integers(min_value=0, max_value=12))
    # 0.0 and -0.0 are equal and hash alike, but their windows differ at time 0
    @example(steps=[(1, 3)], kind="rule-less", points=[0.0, -0.0], n=2)
    def test_gate_batch_and_drift_agree(self, steps, kind, points, n):
        make = _KINDS[kind]
        fam = make(steps)
        rides = fam.rides_turns(points, n)
        floats = all(type(p) is float for p in points)
        assert rides == (fam.rule is None and floats
                         and all(-BOUNDARY_TOL <= p < 1 + BOUNDARY_TOL for p in points))
        # every family here is declared commutative: the batch, which stores no
        # trajectory, runs exactly where the gate passes, and reads what
        # FlowCache.window reads point by point
        batched = make(steps)
        rows = [[repr(y) for y in w] for w in _windows(batched, points, n)]
        assert (batched._traj == {}) == rides
        lazy = FlowCache(make(steps))
        assert rows == [[repr(y) for y in lazy.window(p, n)] for p in points]
        drift = rotation_drift(fam, points, n)
        assert (drift is not None) == (rides and all(0.0 <= p < 1.0 for p in points))


class TestSameReports:
    """Each checker against the scan of the same steps built by a rule."""

    @settings(max_examples=40, deadline=None)
    @given(steps=_CYCLE, n=st.integers(min_value=0, max_value=20),
           eps=st.sampled_from([0.1, 0.05, 1e-12, 3e-13, 4e-16, 3e-16, Fraction(1, 20), 1]),
           pair_grid=st.integers(min_value=2, max_value=5))
    def test_equicontinuity_modulus(self, steps, n, eps, pair_grid):
        _same_reports(steps, equicontinuity_modulus, eps, n_max=n, pair_grid=pair_grid)

    @settings(max_examples=60, deadline=None)
    @given(steps=_CYCLE, x=_POINT, n=st.integers(min_value=0, max_value=60),
           radius=st.sampled_from([0.01, 0.05, 0.1, 1 / 3]),
           tie=st.one_of(st.integers(min_value=-40, max_value=40), st.just(None)),
           samples=st.integers(min_value=2, max_value=8))
    def test_sensitivity_at_point(self, steps, x, n, radius, tie, samples):
        # a tie puts delta within a few ulps of the ball's diameter 2 * radius
        delta = 0.125 if tie is None else 2 * radius + tie * 2 ** -56
        _same_reports(steps, sensitivity_at_point, x, delta=delta, radii=(radius,),
                      samples=samples, n_max=n)

    @settings(max_examples=40, deadline=None)
    @given(steps=_CYCLE, n=st.integers(min_value=1, max_value=40),
           tie=st.one_of(st.tuples(st.integers(min_value=1, max_value=80),
                                   st.integers(min_value=-3, max_value=3)),
                         st.sampled_from([0.05, 0.1, 0.3])))
    def test_uniform_ap_report(self, steps, n, tie):
        eps = tie
        if isinstance(tie, tuple):  # eps within ulps of a return distance of 0.0
            t, ulps = tie
            row = FlowCache(_inline(steps)).window(0.0, 2 * n)
            eps = metric(Space.CIRCLE, row[2 * n + t % (2 * n + 1)], 0.0)
            for _ in range(abs(ulps)):
                eps = math.nextafter(eps, math.copysign(math.inf, ulps))
            if not eps > 0:
                eps = 0.5
        _same_reports(steps, uniform_ap_report, eps, n, grid_size=8)

    @settings(max_examples=25, deadline=None)
    @given(steps=_CYCLE, n=st.integers(min_value=1, max_value=20),
           eps=st.sampled_from([0.05, 0.0625, 0.1, Fraction(1, 25), 4e-16]),
           tie=st.one_of(st.integers(min_value=-40, max_value=40), st.just(None)))
    def test_dichotomy_scan(self, steps, n, eps, tie):
        # radii are eps and eps / 4; a tie puts delta at the first ball's diameter
        delta = None if tie is None else 2 * float(eps) + tie * 2 ** -56
        _same_reports(steps, dichotomy_scan, eps, delta=delta, grid=4, n_max=n)

    def test_harmonic_reports(self):
        fam = corpus("circle_harmonic").family
        ref = _as_rule(corpus("circle_harmonic").family)
        for checker, args, kwargs in [
            (equicontinuity_modulus, (0.1,), {"n_max": 100, "pair_grid": 9}),
            (sensitivity_at_point, (0.3,), {"n_max": 100}),
            (uniform_ap_report, (0.05, 100), {"grid_size": 16}),
            (dichotomy_scan, (0.1,), {"n_max": 30}),
        ]:
            assert _outcome(checker, fam, *args, **kwargs) == _outcome(
                checker, ref, *args, **kwargs)

    def test_budget_errors_fire_as_the_scan_fires_them(self, monkeypatch):
        # a smaller budget keeps the harmonic steps cheap; both reads pass it
        monkeypatch.setattr(exact, "DENOMINATOR_BIT_BUDGET", 2048)
        for checker, args, kwargs in [
            (equicontinuity_modulus, (0.1,), {"n_max": 800, "pair_grid": 3}),
            (sensitivity_at_point, (0.3,), {"radii": (0.01,), "n_max": 3000}),
        ]:
            fam = corpus("circle_harmonic").family
            got = _outcome(checker, fam, *args, **kwargs)
            assert got == (BudgetError, "denominator exceeds 2048 bits")
            assert got == _outcome(checker, _as_rule(fam), *args, **kwargs)
            fam = _inline(_BROKEN, declared_period=1)
            got = _outcome(checker, fam, *args, **{**kwargs, "n_max": 8})
            assert got[0] is ConstructionError
            assert got == _outcome(checker, _as_rule(fam), *args, **{**kwargs, "n_max": 8})


class TestWindowsSkipped:
    @pytest.mark.parametrize("eps", [0.05, 0.04, 0.03125, Fraction(1, 20)])
    @pytest.mark.parametrize("primes", [(2, 3), (5, 7, 11), (2, 5, 7, 13)])
    def test_isometric_dichotomy_reads_no_window(self, primes, eps):
        # inline rotations by the fractional parts of surds, as the CLI reads them
        steps = [Fraction(repr(math.sqrt(p) % 1.0)).as_integer_ratio() for p in primes]
        fam = rotation_family("inline_rotations", lambda n: steps[(n - 1) % len(steps)])
        rep = dichotomy_scan(fam, eps, n_max=80)
        assert rep.verdict is Verdict.EVIDENCE_FOR
        assert rep.details["sensitive_points"] == []
        assert all(len(traj) == 1 for traj in fam._traj.values())

    def test_uniform_ap_reads_one_window(self):
        fam = corpus("circle_harmonic").family
        rep = uniform_ap_report(fam, 0.05, 100, grid_size=16)
        assert rep.verdict is Verdict.EVIDENCE_FOR
        assert {x for _, x, _, _ in fam._traj} == {0.0}


# The hull closure check takes N only for its equicontinuity precondition;
# a negative N is bad input, a large one on a declared isometry is never read.
def test_hull_closure_checks_the_sign_of_n_only():
    fam = corpus("circle_harmonic").family
    with pytest.raises(ValueError, match="^N must be >= 0$"):
        hull_closure_equality(fam, 0.3, 0.2, n_max=-1)
    rep = hull_closure_equality(fam, 0.3, 0.2, n_max=10 ** 30)
    assert rep.verdict in (Verdict.EVIDENCE_FOR, Verdict.EVIDENCE_AGAINST)
