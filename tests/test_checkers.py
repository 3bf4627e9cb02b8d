"""Checker-level tests with frozen oracle values per corpus family."""

import math
from fractions import Fraction

import pytest

from naads import checkers
from naads import (
    BudgetError,
    CircleRotation,
    Composite,
    DomainError,
    MapFamily,
    PiecewiseLinear,
    PowerMap,
    PreconditionError,
    Reflection,
    Verdict,
    Witness,
    almost_periodicity_report,
    ap_propagation_check,
    corpus,
    dichotomy_scan,
    equicontinuity_modulus,
    hull_closure_equality,
    hull_periodicity_property,
    li_yorke_classify,
    minimality_certificate,
    orbit_density,
    periodicity_check,
    proximal_liminf,
    r_transitivity_check,
    replay_witness,
    return_time_set,
    sensitivity_at_point,
    transitivity_scan,
    uniform_ap_report,
)


@pytest.fixture(scope="module")
def fam():
    return {name: corpus(name).family for name in (
        "identity", "example1_tent_sqrt", "example2_powers", "circle_settling",
        "circle_ex4", "circle_harmonic", "interval_square_sqrt",
    )}


class TestPeriodicity:
    def test_exact_certificates(self, fam):
        for name in ("circle_ex4", "circle_harmonic"):
            rep = periodicity_check(fam[name], 0.3, 2)
            assert rep.verdict is Verdict.CERTIFIED
            assert rep.details["mode"] == "exact"
            assert rep.details["max_deviation"] <= 1e-12

    def test_exact_refutation_with_witness(self, fam):
        rep = periodicity_check(fam["circle_settling"], 0.3, 2)
        assert rep.verdict is Verdict.REFUTED
        (w,) = rep.witnesses
        assert w.kind == "point_return" and w.times == (2,)
        assert replay_witness(fam["circle_settling"], w) == pytest.approx(
            w.distances, abs=1e-12
        )

    def test_float_evidence(self, fam):
        rep = periodicity_check(fam["example2_powers"], 0.3, 2)
        assert rep.verdict is Verdict.EVIDENCE_FOR
        assert rep.details["mode"] == "float"
        assert rep.details["max_deviation"] <= 1e-12

    def test_float_refutation_smallest_time(self, fam):
        rep = periodicity_check(fam["example2_powers"], 0.3, 1)
        assert rep.verdict is Verdict.REFUTED
        (w,) = rep.witnesses
        assert w.times == (1,)
        assert w.distances[0] == pytest.approx(0.3 - 0.09, abs=1e-12)

    def test_bad_period(self, fam):
        with pytest.raises(ValueError):
            periodicity_check(fam["identity"], 0.5, 0)


class TestReturnTimes:
    def test_settling_window(self, fam):
        rts = return_time_set(fam["circle_settling"], 0.0, 0.3, 20)
        assert rts.times == [-3, -2, 0, 2, 3]
        assert rts.max_internal_gap == 2
        assert rts.censored_left_gap == 17
        assert rts.censored_right_gap == 17

    def test_identity_returns_everywhere(self, fam):
        rts = return_time_set(fam["identity"], 0.4, 0.1, 5)
        assert rts.times == list(range(-5, 6))
        assert rts.max_internal_gap == 1
        assert rts.censored_left_gap == 0 and rts.censored_right_gap == 0

    def test_validation(self, fam):
        with pytest.raises(ValueError):
            return_time_set(fam["identity"], 0.5, 0.0, 10)

    @pytest.mark.parametrize("name", ["identity", "example2_powers"])
    def test_nan_point_rejected_before_the_flow(self, name):
        # a nan point returns nowhere, so the return list would be empty
        family = corpus(name).family
        with pytest.raises(ValueError, match="not a number"):
            return_time_set(family, math.nan, 0.1, 3)
        assert family._traj == {} and family._maps == []


class TestNanBasePoint:
    """A nan point is in no space and no map takes it, so no checker gives it a
    verdict, not even from a window or horizon of 0, where no map is applied."""

    @pytest.mark.parametrize("name", ["identity", "circle_ex4"])
    @pytest.mark.parametrize("check", [
        lambda fam: periodicity_check(fam, math.nan, 2),
        lambda fam: periodicity_check(fam, math.nan, 2, horizon=0),
        lambda fam: hull_periodicity_property(fam, math.nan, 2),
        lambda fam: orbit_density(fam, math.nan, 0.1, 0),
        lambda fam: orbit_density(fam, math.nan, 0.1, 10),
        lambda fam: proximal_liminf(fam, 0.3, math.nan, 0),
        lambda fam: li_yorke_classify(fam, math.nan, 0.3, 0),
        lambda fam: sensitivity_at_point(fam, math.nan, n_max=10),
    ], ids=["periodicity", "periodicity-h0", "hull-periodicity", "density-N0",
            "density-N10", "proximal-N0", "li-yorke-N0", "sensitivity"])
    def test_rejected(self, name, check):
        family = corpus(name).family
        with pytest.raises(DomainError, match="not a number"):
            check(family)
        assert family._traj == {} and family._maps == []


class TestAlmostPeriodicity:
    def test_harmonic_for_with_gap_two(self, fam):
        rep = almost_periodicity_report(fam["circle_harmonic"], 0.2, 0.1, 25)
        assert rep.verdict is Verdict.EVIDENCE_FOR
        # even times always return exactly, so the syndetic bound is 2
        assert rep.details["M"] == 2

    def test_settling_against_with_growing_gap(self, fam):
        rep = almost_periodicity_report(fam["circle_settling"], 0.2, 0.1, 25)
        assert rep.verdict is Verdict.EVIDENCE_AGAINST
        gaps = [g for _, g in rep.details["trend"]]
        assert gaps[2] > gaps[0]

    def test_uniform_identity(self, fam):
        rep = uniform_ap_report(fam["identity"], 0.1, 20)
        assert rep.verdict is Verdict.EVIDENCE_FOR
        assert rep.details["M"] == 1

    def test_uniform_settling_names_offender(self, fam):
        rep = uniform_ap_report(fam["circle_settling"], 0.3, 20)
        assert rep.verdict is Verdict.EVIDENCE_AGAINST
        assert rep.details["worst_point"] == 0.0


class TestEquicontinuity:
    def test_isometry_keeps_first_candidate(self, fam):
        rep = equicontinuity_modulus(fam["circle_harmonic"], 0.1)
        assert rep.verdict is Verdict.EVIDENCE_FOR
        assert rep.details["delta"] == 0.1

    def test_square_sqrt_dyadic_modulus(self, fam):
        # two-sided flow values are x^2, x, sqrt(x); near zero sqrt dominates,
        # forcing delta below eps^2/0.75 = 0.0133..; the dyadic answer is eps/8
        rep = equicontinuity_modulus(fam["interval_square_sqrt"], 0.1)
        assert rep.verdict is Verdict.EVIDENCE_FOR
        assert rep.details["delta"] == 0.0125
        assert [d for _, d in rep.details["trend"]] == [0.0125] * 3

    def test_example2_fails_at_every_scale(self, fam):
        # backward roots push any interior point toward 1 while 0 stays put
        rep = equicontinuity_modulus(fam["example2_powers"], 0.1, n_max=25)
        assert rep.verdict is Verdict.EVIDENCE_AGAINST
        assert [d for _, d in rep.details["trend"]] == [0.0, 0.0, 0.0]
        (w,) = rep.witnesses
        assert replay_witness(fam["example2_powers"], w) == pytest.approx(
            w.distances, abs=1e-12
        )


class TestPairBehaviour:
    def test_proximal_extremes_example2(self, fam):
        ext = proximal_liminf(fam["example2_powers"], 0.3, 0.6, 30)
        # high forward powers collapse the pair; even times restore |x - y|
        assert ext.min_distance < 1e-6
        assert ext.argmin_time == 29
        assert ext.max_distance == pytest.approx(0.3, abs=1e-12)

    def test_li_yorke_example2(self, fam):
        rep = li_yorke_classify(fam["example2_powers"], 0.3, 0.6, 200, high_tol=0.25)
        assert rep.verdict is Verdict.EVIDENCE_FOR
        (w,) = rep.witnesses
        assert replay_witness(fam["example2_powers"], w) == pytest.approx(
            w.distances, abs=1e-12
        )

    def test_li_yorke_isometry_against(self, fam):
        rep = li_yorke_classify(fam["circle_harmonic"], 0.1, 0.3, 50)
        assert rep.verdict is Verdict.EVIDENCE_AGAINST
        assert rep.details["min_distance"] == pytest.approx(0.2, abs=1e-12)

    def test_tolerance_ordering(self, fam):
        with pytest.raises(ValueError):
            li_yorke_classify(fam["identity"], 0.1, 0.2, 10, low_tol=0.5, high_tol=0.4)


class TestSensitivity:
    def test_example2_sensitive_at_zero(self, fam):
        rep = sensitivity_at_point(fam["example2_powers"], 0.0, n_max=50)
        assert rep.verdict is Verdict.EVIDENCE_FOR
        for w in rep.witnesses:
            assert replay_witness(fam["example2_powers"], w) == pytest.approx(
                w.distances, abs=1e-12
            )

    def test_example2_interior_balls_contract(self, fam):
        rep = sensitivity_at_point(fam["example2_powers"], 0.5, n_max=50)
        assert rep.verdict is Verdict.EVIDENCE_AGAINST

    def test_isometry_never_expands(self, fam):
        rep = sensitivity_at_point(fam["circle_harmonic"], 0.25)
        assert rep.verdict is Verdict.EVIDENCE_AGAINST
        # the 0.1 ball has sampled diameter 0.2 > delta at time 0 already;
        # the small ball is the one an isometry can never expand
        assert rep.details["unexpanded_radius"] == 0.01

    @pytest.mark.parametrize("radii", [(math.nan,), (0.1, math.nan), (0.1, 0.0),
                                       (0.1, math.inf)])
    def test_radius_must_be_positive(self, fam, radii):
        with pytest.raises(ValueError, match="^radii must be positive and finite$"):
            sensitivity_at_point(fam["example2_powers"], 0.3, radii=radii, n_max=10)

    def test_second_call_reads_the_family_store(self, monkeypatch):
        fam = corpus("example1_tent_sqrt").family
        first = sensitivity_at_point(fam, 0.3, n_max=30)
        calls = []
        for cls in (PiecewiseLinear, PowerMap, Reflection, Composite):
            for attr in ("forward", "inverse"):
                def counted(self, x, _method=getattr(cls, attr)):
                    calls.append(_method)
                    return _method(self, x)
                monkeypatch.setattr(cls, attr, counted)
        again = sensitivity_at_point(fam, 0.3, n_max=30)
        assert calls == []
        assert again.render() == first.render()
        # the counter sees the maps: a fresh family applies them again
        sensitivity_at_point(corpus("example1_tent_sqrt").family, 0.3, n_max=30)
        assert calls


class TestDensityTransitivity:
    def test_harmonic_orbit_dense(self, fam):
        rep = orbit_density(fam["circle_harmonic"], 0.0, 0.05, 120)
        assert rep.verdict is Verdict.EVIDENCE_FOR

    def test_ex4_orbit_not_dense(self, fam):
        rep = orbit_density(fam["circle_ex4"], 0.0, 0.05, 120)
        assert rep.verdict is Verdict.EVIDENCE_AGAINST
        (w,) = rep.witnesses
        assert replay_witness(fam["circle_ex4"], w) == pytest.approx(
            w.distances, abs=1e-12
        )

    def test_negative_window_rejected(self, fam):
        with pytest.raises(ValueError):
            orbit_density(fam["circle_ex4"], 0.0, 0.05, -3)
        with pytest.raises(ValueError):
            transitivity_scan(fam["circle_ex4"], 0.05, -3)

    def test_transitivity_verdicts(self, fam):
        rep = transitivity_scan(fam["circle_harmonic"], 0.05, 120)
        assert rep.verdict is Verdict.EVIDENCE_FOR
        rep = transitivity_scan(fam["circle_ex4"], 0.05, 120)
        assert rep.verdict is Verdict.EVIDENCE_AGAINST
        assert rep.details["dense_orbit"] is False
        assert rep.details["open_set_scan"] is False
        rep = transitivity_scan(fam["identity"], 0.2, 20)
        assert rep.verdict is Verdict.EVIDENCE_AGAINST

    def test_r_transitivity_identity_blocks(self, fam):
        rep = r_transitivity_check(fam["circle_harmonic"], 2)
        assert rep.verdict is Verdict.EVIDENCE_AGAINST
        assert rep.details["identity_blocks"] is True
        assert rep.parameters["r"] == 2


class TestScansStopEarly:
    """Work counts: the trajectories a scan leaves in its family's store."""

    def test_transitivity_reads_one_ball(self):
        # the first center's ball already misses a center: 16 grid points
        # and that ball's 5 points (the center 0 is also a grid point)
        family = corpus("circle_ex4").family
        rep = transitivity_scan(family, 0.05, 100)
        assert rep.details["unmet_pair"][0] == 0.0
        assert len({x for _, x, _ in family._traj}) <= 21

    def test_transitivity_reads_met_balls_short(self):
        # every ball meets every center within 16 steps, so its windows stop
        # there; only the dense grid point 0.0 is read through N (the full
        # read of every ball would leave 42,898 entries)
        family = corpus("circle_harmonic").family
        rep = transitivity_scan(family, 0.05, 240)
        assert rep.verdict is Verdict.EVIDENCE_FOR
        long = {key: len(traj) for key, traj in family._traj.items() if len(traj) != 17}
        assert long == {(float, 0.0, "+"): 241, (float, 0.0, "-"): 241}
        assert sum(len(traj) for traj in family._traj.values()) == 3474

    def test_transitivity_window_past_the_horizon_is_a_budget_error(self):
        # a ball met inside the short read must not hide the budget
        family = corpus("circle_harmonic").family
        n = family.horizon + 1
        with pytest.raises(BudgetError, match=f"time -{n} exceeds horizon"):
            transitivity_scan(family, 0.05, n)

    def test_sensitivity_reads_short_windows_first(self):
        # example1's balls expand at times 3 and 10, inside the 16-time read
        family = corpus("example1_tent_sqrt").family
        rep = sensitivity_at_point(family, 0, samples=10, n_max=200)
        assert rep.verdict is Verdict.EVIDENCE_FOR
        assert [w.times for w in rep.witnesses] == [(3,), (10,)]
        assert max(len(traj) for traj in family._traj.values()) == 17

    def test_sensitivity_window_past_the_horizon_is_a_budget_error(self):
        # a hit inside the short read must not hide the budget
        family = corpus("example1_tent_sqrt").family
        with pytest.raises(BudgetError, match="exceeds horizon"):
            sensitivity_at_point(family, 0, n_max=family.horizon + 1)


class TestMinimality:
    def test_ex4_exact_certificate(self, fam):
        rep = minimality_certificate(fam["circle_ex4"], Fraction(1, 8),
                                     order_cap=9, depth=8)
        assert rep.verdict is Verdict.CERTIFIED
        assert rep.details["k"] == 9
        assert rep.details["mode"] == "exact"

    def test_settling_exact_certificate(self, fam):
        rep = minimality_certificate(fam["circle_settling"], Fraction(1, 8),
                                     order_cap=6, depth=8)
        assert rep.verdict is Verdict.CERTIFIED
        assert rep.details["k"] == 4

    def test_square_sqrt_refuted_at_fixed_point(self, fam):
        rep = minimality_certificate(fam["interval_square_sqrt"], 0.1)
        assert rep.verdict is Verdict.REFUTED
        (w,) = rep.witnesses
        assert w.kind == "hull_miss"
        assert w.points[0] == 0.0
        assert replay_witness(
            fam["interval_square_sqrt"], w, rep.parameters
        ) == pytest.approx(w.distances, abs=1e-12)

    @pytest.mark.parametrize("record, missing", [
        ({"depth": 3}, "order_cap or order_k"),
        ({"order_cap": 2}, "depth"),
        ({}, "order_cap or order_k and depth"),
        (None, "order_cap or order_k and depth"),
    ])
    def test_hull_miss_replay_names_the_missing_parameter(self, fam, record, missing):
        w = Witness("hull_miss", (0.0, 0.5), (), (0.5,))
        with pytest.raises(ValueError, match=f"needs {missing} from"):
            replay_witness(fam["interval_square_sqrt"], w, record)

    def test_truncated_claim_refuted_when_hull_stabilizes(self, fam):
        # order-1 harmonic hulls are single points (the first displacement is
        # a full turn), so the truncated covering claim is genuinely false
        rep = minimality_certificate(fam["circle_harmonic"], Fraction(1, 20),
                                     order_cap=1, depth=1)
        assert rep.verdict is Verdict.REFUTED

    def test_exhausted_depth_is_inconclusive(self, fam):
        # depth 1 at order 3 neither stabilizes nor covers at eps = 1/20
        rep = minimality_certificate(fam["circle_harmonic"], Fraction(1, 20),
                                     order_cap=3, depth=1)
        assert rep.verdict is Verdict.INCONCLUSIVE_BUDGET

    def test_validation(self, fam):
        with pytest.raises(ValueError):
            minimality_certificate(fam["identity"], 0)


class TestHullProperties:
    def test_hull_periodicity_ex4(self, fam):
        rep = hull_periodicity_property(fam["circle_ex4"], 0.3, 2)
        assert rep.verdict is Verdict.EVIDENCE_FOR
        assert rep.details["failing_points"] == 0

    def test_certified_base_covers_the_hull(self, monkeypatch):
        # one exact certificate on a rotation family; one check per hull
        # point on the same maps without the exact view
        exact_fam = corpus("circle_ex4").family
        float_fam = MapFamily(exact_fam.space,
                              lambda n: CircleRotation(exact_fam.exact.step(n)),
                              exact_fam.name,
                              declared_commutative=True, declared_isometric=True)
        calls = []

        def counted(*args):
            calls.append(args)
            return periodicity_check(*args)

        monkeypatch.setattr(checkers, "periodicity_check", counted)
        rep = hull_periodicity_property(exact_fam, 0.3, 2, order_k=3, depth=3)
        assert len(calls) == 1
        del calls[:]
        float_rep = hull_periodicity_property(float_fam, 0.3, 2, order_k=3, depth=3)
        assert len(calls) == 1 + rep.details["hull_size"]
        assert float_rep.details == rep.details

    def test_hull_periodicity_requires_commutativity(self, fam):
        with pytest.raises(PreconditionError):
            hull_periodicity_property(fam["example1_tent_sqrt"], 0.5, 2)

    def test_hull_periodicity_requires_periodic_base(self, fam):
        with pytest.raises(PreconditionError):
            hull_periodicity_property(fam["circle_settling"], 0.3, 2)

    def test_ap_propagation_harmonic(self, fam):
        rep = ap_propagation_check(fam["circle_harmonic"], 0.2, 0.1)
        assert rep.verdict is Verdict.EVIDENCE_FOR
        assert rep.details["common_M"] >= 2

    def test_ap_propagation_requires_ap_base(self, fam):
        with pytest.raises(PreconditionError):
            ap_propagation_check(fam["circle_settling"], 0.2, 0.1)

    def test_hull_closure_equality_positive(self, fam):
        rep = hull_closure_equality(fam["interval_square_sqrt"], 0.5, 0.1)
        assert rep.verdict is Verdict.EVIDENCE_FOR

    def test_hull_closure_breaks_at_closure_limit(self, fam):
        # 0 is a closure point of hulls but not an orbit point: its hull is a
        # fixed point, far from the hull of 1/2
        rep = hull_closure_equality(fam["interval_square_sqrt"], 0.5, 0.1, y=0.0)
        assert rep.verdict is Verdict.EVIDENCE_AGAINST
        assert rep.details["hausdorff_distance"] > 0.4

    def test_hull_closure_requires_equicontinuity(self, fam):
        with pytest.raises(PreconditionError):
            hull_closure_equality(fam["example2_powers"], 0.5, 0.1)


class TestDichotomy:
    def test_identity_clean_equicontinuous(self, fam):
        rep = dichotomy_scan(fam["identity"], 0.1)
        assert rep.verdict is Verdict.EVIDENCE_FOR
        assert rep.details["sensitive_points"] == []

    def test_example2_clean_sensitive(self, fam):
        rep = dichotomy_scan(fam["example2_powers"], 0.1)
        assert rep.verdict is Verdict.EVIDENCE_FOR
        assert rep.details["equicontinuity"] is Verdict.EVIDENCE_AGAINST
        assert rep.details["sensitive_points"] != []
        assert rep.details["propagation_holds"] is True

    def test_harmonic_clean_equicontinuous(self, fam):
        rep = dichotomy_scan(fam["circle_harmonic"], 0.1)
        assert rep.verdict is Verdict.EVIDENCE_FOR

    def test_requires_commutativity(self, fam):
        with pytest.raises(PreconditionError):
            dichotomy_scan(fam["example1_tent_sqrt"], 0.1)
