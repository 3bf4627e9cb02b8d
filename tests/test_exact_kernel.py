"""The integer exact kernel against reference copies of the Fraction code it replaced.

Each reference below is the earlier implementation written out in plain
Fraction arithmetic: angles re-reduced with ``% 1`` on every operation, flow
prefix sums that add one reduced step at a time, hull enumeration over sets of
reduced angles, and the cover test that sorts a translated hull per grid point
and scans it with the circle metric.
"""

import math
import os
from contextlib import contextmanager
from fractions import Fraction
from unittest import mock

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from naads import (
    BudgetError,
    CircleRotation,
    MapFamily,
    RationalAngle,
    RationalRotationFamily,
    Space,
    Verdict,
    checkers,
    corpus,
    exact_hull_displacements,
    exact_periodicity,
    minimality_certificate,
    periodicity_check,
    r_transitivity_check,
)
from naads.exact import DENOMINATOR_BIT_BUDGET
from naads.space import metric

# Denominators with 16384 bits (inside the budget) and 16385 bits (over it);
# P and Q share only the factor 3, so a sum of 1/P and 1/Q is over the budget.
P = (1 << DENOMINATOR_BIT_BUDGET) - 1
Q = (1 << (DENOMINATOR_BIT_BUDGET - 1)) + 1
OVER = (1 << DENOMINATOR_BIT_BUDGET) + 1


def _reference_value(value):
    """RationalAngle's value as the earlier constructor computed it."""
    v = Fraction(value) % 1
    if v.denominator.bit_length() > DENOMINATOR_BIT_BUDGET:
        raise BudgetError(f"denominator exceeds {DENOMINATOR_BIT_BUDGET} bits")
    return v


def _outcome(f, *args):
    try:
        v = f(*args)
    except BudgetError as exc:
        return BudgetError, str(exc)
    return type(v), v


def _angle_value(value):
    return RationalAngle(value).value


# Big denominators are named, and built inside the test, so that no example
# holds an integer too long to print.
BIG = {"2^20": 1 << 20, "P": P, "Q": Q, "OVER": OVER}

# (kind, turns, offset, denominator): the value (turns * den + offset) / den
angle_spec = st.tuples(
    st.sampled_from(["fraction", "int", "str"]),
    st.integers(min_value=-3, max_value=3),
    st.one_of(st.integers(min_value=-3, max_value=3),
              st.integers(min_value=-(1 << 64), max_value=1 << 64)),
    st.one_of(st.integers(min_value=1, max_value=60), st.sampled_from(list(BIG))),
)


def _value(spec):
    kind, turns, offset, den = spec
    den = BIG.get(den, den)
    num = turns * den + offset
    if kind == "int":
        return num
    if kind == "str" and den < 1 << 20:
        return f"{num}/{den}"
    return Fraction(num, den)


class TestRationalAngleConstruction:
    @settings(max_examples=300, deadline=None)
    @given(spec=angle_spec)
    @example(spec=("fraction", 1, -1, "P"))  # just below one turn, inside the budget
    @example(spec=("fraction", 0, 1, "OVER"))  # over the budget
    @example(spec=("fraction", -1, 1, "OVER"))  # negative, over the budget
    def test_construction(self, spec):
        v = _value(spec)
        assert _outcome(_angle_value, v) == _outcome(_reference_value, v)

    def test_reduced_fraction_is_kept(self):
        v = Fraction(3, 7)
        assert RationalAngle(v).value is v
        assert CircleRotation(v).angle is v


def _reference_hull(fam, order_k, depth, cap):
    """exact_hull_displacements as the earlier breadth-first search over reduced angles."""
    generators = {_reference_value(fam.displacement(r))
                  for r in range(-order_k, order_k + 1)}
    current, frontier = {Fraction(0)}, {Fraction(0)}
    exhausted = stabilized = False
    for _ in range(depth):
        new = set()
        for a in sorted(frontier):
            for g in sorted(generators):
                s = _reference_value(a + g)
                if s not in current and s not in new:
                    if len(current) + len(new) >= cap:
                        exhausted = True
                        break
                    new.add(s)
            if exhausted:
                break
        if exhausted:
            current |= new
            break
        if not new:
            stabilized = True
            break
        current |= new
        frontier = new
    return sorted(current), exhausted, stabilized


def _reference_cover_miss(points, grid, eps):
    """The earlier cover test: translate, sort and scan the hull per grid point."""
    m = math.ceil(1 / eps)
    centers = [Fraction(i, m) for i in range(m)]
    for x in [Fraction(j, grid) for j in range(grid)]:
        translated = sorted((x + a) % 1 for a in points)
        for c in centers:
            dmin = min(metric(Space.CIRCLE, c, p) for p in translated)
            if dmin >= eps:
                return x, c, dmin
    return None


def _reference_minimality(fam, eps, order_cap, depth, grid, cap):
    """(verdict, k, hull size, witness) of the earlier exact minimality certificate."""
    for k in range(1, order_cap + 1):
        points, exhausted, stabilized = _reference_hull(fam, k, depth, cap)
        miss = _reference_cover_miss(points, grid, eps)
        if miss is None:
            return Verdict.CERTIFIED, k, len(points), None
    if stabilized and not exhausted:
        return Verdict.REFUTED, None, None, tuple(float(v) for v in miss)
    return Verdict.INCONCLUSIVE_BUDGET, None, None, None


def _rule(values):
    """The step rule of a cycle of ``values``: each value mod 1 as a coprime pair."""
    steps = [(Fraction(v) % 1).as_integer_ratio() for v in values]
    return lambda n: steps[(n - 1) % len(steps)]


def _cycle(angles):
    return RationalRotationFamily(_rule(angles), "cycle")


def _inline_cycle(angles):
    return MapFamily(
        Space.CIRCLE,
        None,
        "cycle",
        declared_commutative=True,
        declared_isometric=True,
        exact=_cycle(angles),
    )


@contextmanager
def _points_env(value):
    env = {} if value is None else {"NAADS_BUDGET_POINTS": value}
    with mock.patch.dict(os.environ, env):
        if value is None:
            os.environ.pop("NAADS_BUDGET_POINTS", None)
        yield


cycle_angles = st.lists(
    st.fractions(min_value=-1, max_value=1, max_denominator=30), min_size=1, max_size=3)
points_env = st.sampled_from([None, "1", "4", "25"])


class TestHullEnumeration:
    @settings(max_examples=150, deadline=None)
    @given(
        angles=cycle_angles,
        order_k=st.integers(min_value=1, max_value=4),
        depth=st.integers(min_value=1, max_value=5),
        env=st.sampled_from([None, "1", "2", "4", "7", "25", "40"]),
    )
    def test_matches_fraction_search(self, angles, order_k, depth, env):
        fam = _cycle(angles)
        with _points_env(env):
            hull = exact_hull_displacements(fam, order_k, depth)
        points, exhausted, stabilized = _reference_hull(fam, order_k, depth,
                                                        int(env or 65536))
        assert [Fraction(n, hull.denominator) for n in hull.numerators] == points
        assert [a.value for a in hull.angles] == points
        assert (hull.budget_exhausted, hull.stabilized) == (exhausted, stabilized)

    @pytest.mark.parametrize("depth, cap, raises", [
        (1, None, False),  # depth 1 builds only the generators 0, +-1/P, +-1/Q
        (2, 5, False),  # the cap stops the search at 1/P + 1/P, before 1/P + 1/Q
        (2, 6, True),  # 1/P + 1/P is kept, then 1/P + 1/Q is over the budget
        (2, None, True),
    ])
    def test_budget_error_at_the_same_sum(self, depth, cap, raises):
        # every generator is inside the budget; their lcm and the sum 1/P + 1/Q are not
        fam = _cycle([Fraction(1, P), Fraction(-1, P), Fraction(1, Q)])
        env = None if cap is None else str(cap)
        if raises:
            with pytest.raises(BudgetError, match="denominator exceeds"):
                _reference_hull(fam, 3, depth, cap or 65536)
            with pytest.raises(BudgetError, match="denominator exceeds"), _points_env(env):
                exact_hull_displacements(fam, 3, depth)
            return
        points, exhausted, stabilized = _reference_hull(fam, 3, depth, cap or 65536)
        with _points_env(env):
            hull = exact_hull_displacements(fam, 3, depth)
        assert [a.value for a in hull.angles] == points
        assert (hull.budget_exhausted, hull.stabilized) == (exhausted, stabilized)


class TestMinimalityCoverTest:
    @settings(max_examples=150, deadline=None)
    @given(
        angles=cycle_angles,
        eps=st.fractions(min_value=Fraction(1, 40), max_value=Fraction(3, 4),
                         max_denominator=48),
        as_float=st.booleans(),
        order_cap=st.integers(min_value=1, max_value=3),
        depth=st.integers(min_value=1, max_value=4),
        grid=st.sampled_from([2, 3, 7, 16]),
        env=points_env,
    )
    @example(angles=[Fraction(1, 4)], eps=Fraction(1, 16), as_float=False,
             order_cap=2, depth=4, grid=16, env=None)  # dmin == eps exactly
    @example(angles=[Fraction(1, 4)], eps=Fraction(1, 16), as_float=True,
             order_cap=2, depth=4, grid=16, env=None)
    # G is the hull's widest circular gap, in units of 1/L: floor(G/2) = eps * L
    # exactly, so the pair loop runs, and it finds dmin = eps at q = 1/8
    @example(angles=[Fraction(1, 4)], eps=Fraction(1, 8), as_float=False,
             order_cap=2, depth=4, grid=16, env=None)
    # floor(G/2) = eps * L, but the gap's midpoint 1/2 is no lattice point c - x
    @example(angles=[Fraction(1, 6)], eps=Fraction(1, 3), as_float=False,
             order_cap=1, depth=1, grid=3, env=None)
    # floor(G/2) > eps * L, and every lattice point is within eps of the hull
    @example(angles=[Fraction(1, 4)], eps=Fraction(2, 9), as_float=False,
             order_cap=1, depth=1, grid=3, env=None)
    def test_matches_sorted_scan(self, angles, eps, as_float, order_cap, depth, grid, env):
        if as_float:
            eps = float(eps)
        fam = _inline_cycle(angles)
        with _points_env(env):
            rep = minimality_certificate(fam, eps, order_cap, depth, grid)
        verdict, k, size, witness = _reference_minimality(
            fam.exact, eps, order_cap, depth, grid, int(env or 65536))
        assert rep.verdict is verdict
        assert rep.details.get("k") == k
        assert rep.details.get("hull_size") == size
        got = rep.witnesses[0] if rep.witnesses else None
        assert (None if got is None else (*got.points, *got.distances)) == witness


class _ReferencePrefix:
    """RationalRotationFamily's displacements as the earlier Fraction loop built them.

    Each prefix is the previous one plus the next step, reduced mod 1 and
    checked against the budget; negative times negate.
    """

    def __init__(self, rule):
        self.rule = rule
        self.steps = {}
        self.prefix = [Fraction(0)]

    def step(self, n):
        if n not in self.steps:
            self.steps[n] = _reference_value(Fraction(*self.rule(n)))
        return self.steps[n]

    def displacement(self, n):
        m = abs(n)
        while len(self.prefix) <= m:
            k = len(self.prefix)
            self.prefix.append(_reference_value(self.prefix[-1] + self.step(k)))
        d = self.prefix[m]
        return _reference_value(-d) if n < 0 else d

    def block(self, r):
        def rule(k):
            v = _reference_value(self.displacement(k * r) - self.displacement((k - 1) * r))
            return v.numerator, v.denominator
        return _ReferencePrefix(rule)

    def periodicity(self, r, horizon):
        """(certified, witness time, witness displacement) of exact_periodicity."""
        for j in range(1, horizon + 1):
            d = self.displacement(j * r)
            if d != 0:
                return False, j * r, d
        return True, None, None


def _periodicity_outcome(fam, r, horizon):
    """exact_periodicity's witness time, with its displacement, as the reference gives it."""
    w = exact_periodicity(fam, r, horizon)
    return (True, None, None) if w is None else (False, w, fam.displacement(w))


def _same_displacement(fam, ref, n):
    """fam.displacement(n) equals the reference, or raises the same BudgetError."""
    got, want = _outcome(fam.displacement, n), _outcome(ref.displacement, n)
    if want[0] is BudgetError:
        assert got == want
        return
    assert got[0] is Fraction and got[1] == want[1]


def _primes(count):
    """The first ``count`` primes."""
    limit = 16 * count  # the count-th prime is below this for count >= 6
    sieve = bytearray([1]) * limit
    sieve[:2] = b"\0\0"
    for p in range(2, math.isqrt(limit) + 1):
        if sieve[p]:
            sieve[p * p::p] = bytearray(len(range(p * p, limit, p)))
    return [p for p in range(limit) if sieve[p]][:count]


# negative steps, steps of one turn or more, and integer steps
step_value = st.one_of(
    st.fractions(min_value=-3, max_value=3, max_denominator=40),
    st.integers(min_value=-3, max_value=3),
)
signed_times = st.lists(st.integers(min_value=-60, max_value=60), min_size=1, max_size=12)


class TestPrefixSums:
    @settings(max_examples=200, deadline=None)
    @given(values=st.lists(step_value, min_size=1, max_size=8), times=signed_times)
    @example(values=[Fraction(1, 2)], times=[2, -4, 3])  # prefixes of exactly one turn
    @example(values=[Fraction(1, 3), 1, Fraction(-1, 3)], times=[-3, 1])
    def test_matches_fraction_loop(self, values, times):
        calls = []
        rule = _rule(values)
        fam = RationalRotationFamily(lambda n: calls.append(n) or rule(n), "cycle")
        ref = _ReferencePrefix(rule)
        for n in times:
            _same_displacement(fam, ref, n)
        assert calls == list(range(1, max(map(abs, times)) + 1))  # each index once

    @settings(max_examples=100, deadline=None)
    @given(values=st.lists(step_value, min_size=1, max_size=6),
           r=st.integers(min_value=1, max_value=6),
           horizon=st.integers(min_value=0, max_value=12))
    @example(values=[Fraction(1, 4), Fraction(-1, 4)], r=2, horizon=5)  # certified
    @example(values=[Fraction(1, 2), 0, Fraction(1, 3)], r=1, horizon=4)  # zero prefixes skipped
    def test_periodicity_results(self, values, r, horizon):
        calls = []
        rule = _rule(values)
        fam = RationalRotationFamily(lambda n: calls.append(n) or rule(n), "cycle")
        ref = _ReferencePrefix(rule)
        got = _periodicity_outcome(fam, r, horizon)
        assert got == ref.periodicity(r, horizon)
        if not got[0]:  # a refutation at w reads at most 2w steps
            assert len(calls) <= 2 * got[1]

    @settings(max_examples=60, deadline=None)
    @given(values=st.lists(step_value, min_size=1, max_size=6), times=signed_times)
    def test_block_displacements(self, values, times):
        fam = _cycle(values)
        ref = _ReferencePrefix(_rule(values))
        for r in range(2, 6):
            block, ref_block = fam.block(r), ref.block(r)
            for n in times[:6]:
                _same_displacement(block, ref_block, n)

    @pytest.mark.parametrize("values", [
        [Fraction(1, P), Fraction(-1, P), Fraction(1, Q), Fraction(-1, Q)],  # lcm over, prefixes not
        [Fraction(1, P), Fraction(1, Q)],  # the second prefix is over the budget
        [Fraction(1, 3), Fraction(1, P), Fraction(-1, 3), Fraction(1, Q), Fraction(-1, P)],
    ])
    def test_budget_on_big_denominators(self, values):
        fam = _cycle(values)
        ref = _ReferencePrefix(_rule(values))
        for n in (*range(2 * len(values) + 1), -1, -3):
            _same_displacement(fam, ref, n)

    def test_budget_error_at_the_same_index(self):
        # every step 1/p is small, while the prefix at m has the product of the
        # first m primes as its denominator: over the budget first at m = 1387
        primes = _primes(1400)
        assert math.prod(primes[:1386]).bit_length() <= DENOMINATOR_BIT_BUDGET
        assert math.prod(primes[:1387]).bit_length() > DENOMINATOR_BIT_BUDGET
        rule = lambda n: (1, primes[n - 1])  # noqa: E731
        fam, ref = RationalRotationFamily(rule, "primes"), _ReferencePrefix(rule)
        message = f"denominator exceeds {DENOMINATOR_BIT_BUDGET} bits"
        for n in (1386, 1387, -1387, 1390):
            _same_displacement(fam, ref, n)
        assert _outcome(fam.displacement, 1387) == (BudgetError, message)
        for n in (1386, 1000, -1386, 1):  # smaller times still answer after the error
            _same_displacement(fam, ref, n)
        assert fam.displacement(1386) == sum(Fraction(1, p) for p in primes[:1386]) % 1

    @pytest.mark.parametrize("r", [1386, 1387])
    def test_periodicity_at_the_budget_edge(self, r):
        # the family above: the scan of multiples 1..2 overflows at prefix 1387,
        # and still refutes at 1386 when r = 1386; r = 1387 raises as before
        primes = _primes(2 * 1387)
        calls = []
        rule = lambda n: (1, primes[n - 1])  # noqa: E731
        fam = RationalRotationFamily(lambda n: calls.append(n) or rule(n), "primes")
        ref = _ReferencePrefix(rule)
        got = _outcome(_periodicity_outcome, fam, r, 5)
        want = _outcome(ref.periodicity, r, 5)
        assert got == want
        if r == 1386:
            assert want[1][:2] == (False, 1386)
            assert len(calls) <= 2 * 1386
        else:
            assert want == (BudgetError, f"denominator exceeds {DENOMINATOR_BIT_BUDGET} bits")

    @pytest.mark.parametrize("values, r", [
        ([Fraction(1, 2), Fraction(1, OVER)], 1),  # refuted at 1, step 2 over the budget
        ([0, Fraction(1, 3), 0, Fraction(1, OVER)], 2),  # refuted at 2, step 4 over
        ([0, Fraction(1, OVER), Fraction(1, 2)], 1),  # step 2 over, before any witness
    ])
    def test_periodicity_with_a_step_over_the_budget(self, values, r):
        calls = []
        rule = _rule(values)
        fam = RationalRotationFamily(lambda n: calls.append(n) or rule(n), "cycle")
        got = _outcome(_periodicity_outcome, fam, r, 5)
        assert got == _outcome(_ReferencePrefix(rule).periodicity, r, 5)
        if got[0] is tuple:  # refuted, with at most 2w steps read
            assert not got[1][0] and len(calls) <= 2 * got[1][1]


def _reference_identity_blocks(family, r, probe):
    """The earlier probe: every block displacement up to ``probe`` vanishes."""
    blocks = _ReferencePrefix(family.exact.rule).block(r)
    return all(blocks.displacement(k) == 0 for k in range(1, probe + 1))


class TestIdentityBlockProbe:
    @settings(max_examples=40, deadline=None)
    @given(angles=st.lists(st.fractions(min_value=-1, max_value=1, max_denominator=12),
                           min_size=1, max_size=4),
           r=st.integers(min_value=1, max_value=6),
           n_max=st.integers(min_value=0, max_value=12))
    @example(angles=[Fraction(1, 3), Fraction(-1, 3)], r=4, n_max=6)  # identity blocks
    @example(angles=[Fraction(1, 2)], r=3, n_max=5)  # r odd: no block vanishes
    def test_inline_cycles(self, angles, r, n_max):
        rep = r_transitivity_check(_inline_cycle(angles), r, eps=0.25, n_max=n_max, grid=2)
        want = _reference_identity_blocks(_inline_cycle(angles), r, min(n_max, 200))
        assert rep.details["identity_blocks"] is want

    @pytest.mark.parametrize("name", ["circle_ex4", "circle_harmonic"])
    @pytest.mark.parametrize("r", range(1, 7))
    def test_corpus_families(self, name, r):
        rep = r_transitivity_check(corpus(name).family, r, eps=0.25, n_max=20, grid=2)
        want = _reference_identity_blocks(corpus(name).family, r, 20)
        assert rep.details["identity_blocks"] is want
        assert rep.details["identity_block_probe"] == 20


def _count_calls(monkeypatch, owner, name):
    """The argument tuples of each call of ``owner.name`` from here on; the calls still run."""
    calls = []
    fn = getattr(owner, name)

    def counted(*args):
        calls.append(args)
        return fn(*args)

    monkeypatch.setattr(owner, name, counted)
    return calls


class TestWorkCounts:
    def test_periodicity_reduces_only_the_witness(self, monkeypatch):
        entry = corpus("circle_harmonic")
        fam = entry.exact
        calls = _count_calls(monkeypatch, RationalRotationFamily, "displacement")
        assert exact_periodicity(fam, 2, 1000) is None
        assert exact_periodicity(fam, 3, 1000) == 3
        assert calls == []
        rep = periodicity_check(entry.family, 0.3, 3, 1000)
        assert rep.details["witness_displacement"] == Fraction(1, 2)
        assert calls == [(fam, 3)]

    def test_certifying_cover_evaluates_no_pair(self, monkeypatch):
        # one bisection per (grid point, center) pair the cover test evaluates
        pairs = _count_calls(monkeypatch, checkers, "bisect_left")
        per_order = []
        cover = checkers._exact_cover_miss

        def counted_cover(*args):
            before = len(pairs)
            miss = cover(*args)
            per_order.append(len(pairs) - before)
            return miss

        monkeypatch.setattr(checkers, "_exact_cover_miss", counted_cover)
        rep = minimality_certificate(corpus("circle_ex4").family, Fraction(1, 8), 9, 8, 32)
        assert (rep.verdict, rep.details["k"]) == (Verdict.CERTIFIED, 9)
        # orders 1..8 miss at their second pair; order 9's widest gap decides it
        assert per_order == [2] * 8 + [0]
