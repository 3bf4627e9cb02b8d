"""Exact rational circle arithmetic: displacement sums, certificates, hull angles."""

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
            assert fam.displacement(n) == v % 1
            # negative times negate exactly
            assert fam.displacement(-n) == (-v) % 1

    def test_settling_prefix_sums(self):
        fam = corpus("circle_settling").exact
        expected = {
            1: Fraction(1, 2), 2: Fraction(1, 4), 3: Fraction(3, 4),
            4: Fraction(3, 8), 5: Fraction(5, 8), 6: Fraction(7, 16),
        }
        for n, v in expected.items():
            assert fam.displacement(n) == v

    def test_harmonic_prefix_sums(self):
        fam = corpus("circle_harmonic").exact
        # even prefixes vanish; odd ones are harmonic numbers mod 1
        for k in range(1, 15):
            assert fam.displacement(2 * k) == 0
        assert fam.displacement(1) == 0  # H_1 = 1 is a full turn
        assert fam.displacement(3) == Fraction(1, 2)
        assert fam.displacement(5) == Fraction(5, 6)
        assert fam.displacement(7) == Fraction(1, 12)

    def test_steps_and_displacements_are_reduced_fractions(self):
        fam = corpus("circle_settling").exact
        for n in range(-9, 10):
            d = fam.displacement(n)
            assert type(d) is Fraction and 0 <= d < 1
            if n > 0:
                s = fam.step(n)
                assert type(s) is Fraction and 0 <= s < 1
                assert s == Fraction(*fam.pairs(n)[n - 1])

    def test_block_displacements(self):
        fam = corpus("circle_ex4").exact
        blocks = fam.block(4)
        # a full four-step block is a net-zero rotation
        for k in range(1, 10):
            assert blocks.displacement(k) == 0
        assert fam.block(1) is fam
        with pytest.raises(ValueError):
            fam.block(0)

    def test_each_rule_read_once(self):
        calls = []

        def rule(n):
            calls.append(n)
            return 1, n + 1

        fam = RationalRotationFamily(rule, "counted")
        fam.displacement(-6)
        assert fam.step(4) == fam.step(4) == Fraction(1, 5)
        fam.step(9)
        fam.displacement(9)
        assert sorted(calls) == list(range(1, 10))

    def test_harmonic_budget_boundary(self):
        # H_11383 is the first harmonic number whose denominator passes the budget
        exact = corpus("circle_harmonic").exact
        assert exact.step(22764).denominator.bit_length() <= 16384
        with pytest.raises(BudgetError, match="denominator exceeds 16384 bits"):
            exact.step(22765)
        with pytest.raises(BudgetError, match="denominator exceeds 16384 bits"):
            corpus("circle_harmonic").family.map_at(22765)

    def test_corpus_maps_hold_the_step_value(self):
        # the float map of a rotation family holds the exact step's Fraction
        entry = corpus("circle_harmonic")
        for n in range(1, 12):
            assert entry.family.map_at(n).angle == entry.exact.step(n)


class TestExactPeriodicity:
    def test_ex4_period_two_certificate(self):
        fam = corpus("circle_ex4").exact
        assert exact_periodicity(fam, 2, 50) is None

    def test_ex4_period_one_refuted(self):
        fam = corpus("circle_ex4").exact
        assert exact_periodicity(fam, 1, 50) == 1
        assert fam.displacement(1) == Fraction(1, 2)

    def test_harmonic_refutation_skips_vanishing_times(self):
        # displacements at times 1 and 2 vanish; the first true witness is 3
        fam = corpus("circle_harmonic").exact
        assert exact_periodicity(fam, 1, 50) == 3
        assert fam.displacement(3) == Fraction(1, 2)

    def test_settling_period_two_refuted(self):
        fam = corpus("circle_settling").exact
        assert exact_periodicity(fam, 2, 50) == 2
        assert fam.displacement(2) == Fraction(1, 4)

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

    def test_budget_cap(self, monkeypatch):
        monkeypatch.setenv("NAADS_BUDGET_POINTS", "3")
        hull = exact_hull_displacements(corpus("circle_harmonic").exact, 5, 5)
        assert hull.budget_exhausted
        assert len(hull.angles) <= 3

