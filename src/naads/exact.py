"""Exact rational arithmetic on the circle group Q/Z.

Rotation families admit certificate-grade verdicts: displacements of the
two-sided flow are exact prefix sums, so periodicity and hull density can be
decided (within a finite horizon) instead of merely evidenced.  Angles are in
turns; arbitrary-precision numerators and denominators come from
fractions.Fraction, with a denominator-bit budget guarding pathological
requests.  Steps are coprime int pairs a/b in [0, 1), and flow prefix sums
and hulls integer numerators over one denominator; a step or a displacement
is read out as a reduced Fraction in [0, 1).
"""

from __future__ import annotations

import math
import os
from collections.abc import Callable
from dataclasses import dataclass
from functools import cached_property
from fractions import Fraction

from .errors import BudgetError, SchemaError

# Harmonic prefix sums have denominators around lcm(1..k); 1 << 14 bits covers
# horizons of a few thousand steps before aborting.
DENOMINATOR_BIT_BUDGET = 1 << 14


def _check_denominator(den: int) -> None:
    if den.bit_length() > DENOMINATOR_BIT_BUDGET:
        raise BudgetError(f"denominator exceeds {DENOMINATOR_BIT_BUDGET} bits")


class RationalAngle:
    """An exact circle point: a rational in [0, 1) turns, checked on the budget."""

    __slots__ = ("value",)

    def __init__(self, value):
        if type(value) is Fraction and 0 <= value.numerator < value.denominator:
            v = value
        else:
            v = Fraction(value)
            v -= v.numerator // v.denominator  # Fraction - int skips a gcd
        _check_denominator(v.denominator)
        object.__setattr__(self, "value", v)

    def __setattr__(self, name, value):
        raise AttributeError("RationalAngle is immutable")

    def __eq__(self, other):
        return isinstance(other, RationalAngle) and self.value == other.value

    def __hash__(self):
        return hash(self.value)

    def __float__(self):
        return float(self.value)

    def __repr__(self):
        return f"RationalAngle({self.value})"

    def __str__(self):
        return str(self.value)


class RationalRotationFamily:
    """Indexed sequence n -> exact rotation amount of the n-th map.

    ``rule(n)`` returns the step of f_n, n >= 1, as a coprime int pair (a, b)
    with 0 <= a < b; ``pairs`` reads them in index order, once each, checking
    each denominator against the budget.  Flow displacements (prefix sums mod
    1) are kept as integers: ``_num[n]`` over ``_den[n]``, where ``_den[n]`` is
    the running lcm of the step denominators, so a step costs one multiply-add
    and at most one gcd, with no Fraction.  ``displacement`` reduces a prefix
    to a Fraction once per index; negative times negate.
    """

    def __init__(self, rule: Callable[[int], tuple[int, int]], name: str):
        self.rule = rule
        self.name = name
        self._pairs: list[tuple[int, int]] = []  # _pairs[n - 1] = step of f_n
        self._num = [0]  # displacement of omega_n is _num[n] / _den[n] in [0, 1)
        self._den = [1]
        self._reduced: dict[int, Fraction] = {}

    def pairs(self, n: int) -> list[tuple[int, int]]:
        """The step list, read through f_n; a BudgetError keeps those before it."""
        for k in range(len(self._pairs) + 1, n + 1):
            _check_denominator((p := self.rule(k))[1])
            self._pairs.append(p)
        return self._pairs

    def step(self, n: int) -> Fraction:
        if n < 1:
            raise ValueError("step index must be >= 1")
        return Fraction(*self.pairs(n)[n - 1])

    def _extend(self, m: int) -> None:
        """Prefix sums up to index m."""
        nums, dens = self._num, self._den
        N, L = nums[-1], dens[-1]
        for a, d in self.pairs(m)[len(nums) - 1:m]:
            q, rem = divmod(L, d)
            if rem:  # L grows to lcm(L, d); gcd(L, d) = gcd(rem, d)
                f = d // math.gcd(rem, d)
                N *= f
                L *= f
                q = L // d
            N += a * q
            if N >= L:
                N -= L
            # a prefix's reduced denominator divides L
            if L.bit_length() > DENOMINATOR_BIT_BUDGET:
                _check_denominator(L // math.gcd(N, L))
            nums.append(N)
            dens.append(L)

    def displacement(self, n: int) -> Fraction:
        """Exact displacement of the flow at signed time n, in [0, 1); 0 at n = 0."""
        m = abs(n)
        if m >= len(self._num):
            self._extend(m)
        d = self._reduced.get(m)
        if d is None:
            d = self._reduced[m] = Fraction(self._num[m], self._den[m])
        return 1 - d if n < 0 and d else d

    def block(self, r: int) -> "RationalRotationFamily":
        """Exact view, and source of the float turns, of the r-step block family."""
        if r < 1:
            raise ValueError("block size must be >= 1")
        if r == 1:
            return self

        def rule(k: int) -> tuple[int, int]:
            v = self.displacement(k * r) - self.displacement((k - 1) * r)
            return (v + 1 if v < 0 else v).as_integer_ratio()

        return RationalRotationFamily(rule, f"{self.name}|blocks[r={r}]")


def exact_periodicity(fam: RationalRotationFamily, r: int, horizon: int) -> int | None:
    """The first time j*r, 1 <= j <= horizon, at which the flow moves, else None.

    None certifies that every point has period r at all |j| <= horizon.  A
    rotation flow fixes every point or none, so the check is
    point-independent: certificate iff the displacement at j*r vanishes for
    all j.  Displacements at -n are exact negations, hence zero iff the
    positive side is; scanning positive j covers both signs.  The refutation
    witness is the smallest failing time (indices with vanishing displacement
    are skipped, they do not witness periodicity failure).

    The scan reads the integer prefix numerators, extended in chunks of
    multiples j..2j, so a refutation at time w reads at most 2w steps.  A
    chunk that hits the budget is read again one multiple at a time, so the
    outcome, a witness before the overflow or the BudgetError, is that of
    reading displacement(j * r) for each j.
    """
    if r < 1:
        raise ValueError("period must be >= 1")
    nums = fam._num
    j = 1
    while j <= horizon:
        hi = min(horizon, 2 * j)
        try:
            fam._extend(hi * r)
        except BudgetError:
            hi = next(i for i in range(j, hi + 1) if fam.displacement(i * r))
        w = next((t for t in range(j * r, hi * r + 1, r) if nums[t]), None)
        if w is not None:
            return w
        j = hi + 1
    return None


@dataclass(frozen=True)
class HullDisplacements:
    """Exact displacement set of a truncated hull, with budget metadata.

    The set is ``numerators`` (ascending) over ``denominator``; ``angles``, the
    same set as RationalAngles, is built on first use.
    """

    numerators: tuple[int, ...]
    denominator: int
    budget_exhausted: bool
    stabilized: bool

    @cached_property
    def angles(self) -> tuple[RationalAngle, ...]:
        return tuple(RationalAngle(Fraction(n, self.denominator)) for n in self.numerators)


def points_budget(default: int) -> int:
    """``default``, lowered by NAADS_BUDGET_POINTS if set."""
    env = os.environ.get("NAADS_BUDGET_POINTS")
    if env:
        if not env.strip().isdecimal() or int(env) < 1:
            raise SchemaError(f"NAADS_BUDGET_POINTS={env!r} is not a positive integer")
        return min(default, int(env))
    return default


def exact_hull_displacements(
    fam: RationalRotationFamily, order_k: int, depth: int
) -> HullDisplacements:
    """All sums of <= depth flow displacements with |time| <= order_k, mod 1.

    For a rotation family the order-k hull of x is exactly x plus this set.
    The set is exact (no dedup tolerance); growth is capped at 65536 points
    (lowered by NAADS_BUDGET_POINTS), reported via budget_exhausted.
    Sums run on numerators over D, the lcm of the generators' denominators,
    in the angles' own order; a sum's reduced denominator divides D, so only a
    D over the bit budget needs each sum checked, as its angle would be.
    """
    if order_k < 1 or depth < 1:
        raise ValueError("order_k and depth must be >= 1")
    cap = points_budget(65536)
    gens = {fam.displacement(r) for r in range(-order_k, order_k + 1)}
    D = math.lcm(*(g.denominator for g in gens))
    generators = sorted(g.numerator * (D // g.denominator) for g in gens)
    check_budget = D.bit_length() > DENOMINATOR_BIT_BUDGET

    def hull(sums, exhausted=False, stabilized=False):
        return HullDisplacements(tuple(sorted(sums)), D, exhausted, stabilized)

    current, frontier = {0}, {0}
    for _ in range(depth):
        new = set()
        for a in sorted(frontier):
            for g in generators:
                s = a + g
                if s >= D:
                    s -= D
                if check_budget:
                    _check_denominator(D // math.gcd(s, D))
                if s not in current and s not in new:
                    if len(current) + len(new) >= cap:
                        return hull(current | new, exhausted=True)
                    new.add(s)
        if not new:
            return hull(current, stabilized=True)
        current |= new
        frontier = new
    return hull(current)

