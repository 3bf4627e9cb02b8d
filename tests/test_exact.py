"""Exact rational circle arithmetic: angles, displacement sums, certificates."""

from fractions import Fraction

import pytest

from naads import (
    BudgetError,
    RationalAngle,
    RationalRotationFamily,
    corpus,
    exact_hull_displacements,
    exact_periodicity,
)


class TestRationalAngle:
    def test_normalization_mod_one(self):
        assert RationalAngle(Fraction(5, 4)).value == Fraction(1, 4)
        assert RationalAngle(Fraction(-1, 4)).value == Fraction(3, 4)
        assert RationalAngle(3).value == 0

    def test_group_operations(self):
        a = RationalAngle(Fraction(1, 3))
        b = RationalAngle(Fraction(5, 6))
        assert (a + b).value == Fraction(1, 6)
        assert (a - b).value == Fraction(1, 2)
        assert (-a).value == Fraction(2, 3)
        assert a + b - b == a

    def test_distance_is_circle_metric(self):
        a = RationalAngle(Fraction(1, 8))
        b = RationalAngle(Fraction(7, 8))
        assert a.distance(b) == Fraction(1, 4)
        assert a.distance(b) == b.distance(a)
        assert a.distance(a) == 0

    def test_parse(self):
        assert RationalAngle.parse("3/4").value == Fraction(3, 4)
        assert RationalAngle.parse("-1/4").value == Fraction(3, 4)

    def test_immutable_and_hashable(self):
        a = RationalAngle(Fraction(1, 3))
        with pytest.raises(AttributeError):
            a.value = Fraction(1, 2)
        assert len({RationalAngle(Fraction(1, 3)), a}) == 1

    def test_denominator_budget(self):
        with pytest.raises(BudgetError):
            RationalAngle(Fraction(1, 1 << 20000))


class TestDisplacements:
    def test_ex4_prefix_sums(self):
        fam = corpus("circle_ex4").exact
        expected = {
            1: Fraction(1, 2), 2: Fraction(0), 3: Fraction(1, 2), 4: Fraction(0),
            5: Fraction(1, 4), 6: Fraction(0), 7: Fraction(3, 4), 8: Fraction(0),
            9: Fraction(1, 8),
        }
        for n, v in expected.items():
            assert fam.displacement(n).value == v % 1
            # negative times negate exactly
            assert fam.displacement(-n).value == (-v) % 1

    def test_settling_prefix_sums(self):
        fam = corpus("circle_settling").exact
        expected = {
            1: Fraction(1, 2), 2: Fraction(1, 4), 3: Fraction(3, 4),
            4: Fraction(3, 8), 5: Fraction(5, 8), 6: Fraction(7, 16),
        }
        for n, v in expected.items():
            assert fam.displacement(n).value == v

    def test_harmonic_prefix_sums(self):
        fam = corpus("circle_harmonic").exact
        # even prefixes vanish; odd ones are harmonic numbers mod 1
        for k in range(1, 15):
            assert fam.displacement(2 * k).is_zero
        assert fam.displacement(1).is_zero  # H_1 = 1 is a full turn
        assert fam.displacement(3).value == Fraction(1, 2)
        assert fam.displacement(5).value == Fraction(5, 6)
        assert fam.displacement(7).value == Fraction(1, 12)

    def test_block_displacements(self):
        fam = corpus("circle_ex4").exact
        blocks = fam.block(4)
        # a full four-step block is a net-zero rotation
        for k in range(1, 10):
            assert blocks.displacement(k).is_zero
        assert fam.block(1) is fam
        with pytest.raises(ValueError):
            fam.block(0)


    def test_each_step_built_once(self):
        calls = []

        def rule(n):
            calls.append(n)
            return 1, n + 1

        fam = RationalRotationFamily(rule, "counted")
        fam.displacement(-6)
        assert fam.step(4) is fam.step(4)
        fam.step(9)
        fam.displacement(9)
        assert sorted(calls) == list(range(1, 10))

    def test_harmonic_budget_boundary(self):
        # H_11383 is the first harmonic number whose denominator passes the budget
        exact = corpus("circle_harmonic").exact
        assert exact.step(22764).value.denominator.bit_length() <= 16384
        with pytest.raises(BudgetError, match="denominator exceeds 16384 bits"):
            exact.step(22765)
        with pytest.raises(BudgetError, match="denominator exceeds 16384 bits"):
            corpus("circle_harmonic").family.map_at(22765)

    def test_corpus_maps_share_the_step_value(self):
        # the float map of a rotation family holds the exact step's Fraction
        entry = corpus("circle_harmonic")
        for n in range(1, 12):
            assert entry.family.map_at(n).angle is entry.exact.step(n).value


class TestExactPeriodicity:
    def test_ex4_period_two_certificate(self):
        fam = corpus("circle_ex4").exact
        res = exact_periodicity(fam, 2, 50)
        assert res.certified and res.period == 2 and res.horizon == 50

    def test_ex4_period_one_refuted(self):
        res = exact_periodicity(corpus("circle_ex4").exact, 1, 50)
        assert not res.certified
        assert res.witness_time == 1
        assert res.witness_displacement.value == Fraction(1, 2)

    def test_harmonic_refutation_skips_vanishing_times(self):
        # displacements at times 1 and 2 vanish; the first true witness is 3
        res = exact_periodicity(corpus("circle_harmonic").exact, 1, 50)
        assert not res.certified
        assert res.witness_time == 3
        assert res.witness_displacement.value == Fraction(1, 2)

    def test_settling_period_two_refuted(self):
        res = exact_periodicity(corpus("circle_settling").exact, 2, 50)
        assert not res.certified
        assert res.witness_time == 2
        assert res.witness_displacement.value == Fraction(1, 4)

    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            exact_periodicity(corpus("circle_ex4").exact, 0, 10)


class TestExactHull:
    def test_ex4_order9_hull_is_eighths(self):
        fam = corpus("circle_ex4").exact
        hull = exact_hull_displacements(fam, order_k=9, depth=8)
        assert {a.value for a in hull.angles} == {Fraction(m, 8) for m in range(8)}
        assert hull.stabilized and not hull.budget_exhausted

    def test_ex4_order8_hull_is_quarters(self):
        fam = corpus("circle_ex4").exact
        hull = exact_hull_displacements(fam, order_k=8, depth=8)
        assert {a.value for a in hull.angles} == {Fraction(m, 4) for m in range(4)}

    def test_angles_sorted(self):
        hull = exact_hull_displacements(corpus("circle_settling").exact, 3, 4)
        assert list(hull.angles) == sorted(hull.angles)

    def test_budget_cap(self, monkeypatch):
        monkeypatch.setenv("NAADS_BUDGET_POINTS", "3")
        hull = exact_hull_displacements(corpus("circle_harmonic").exact, 5, 5)
        assert hull.budget_exhausted
        assert len(hull.angles) <= 3

