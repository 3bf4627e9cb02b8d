"""Two-sided flow evaluation for indexed families of homeomorphisms.

The flow at time n >= 1 is the composition f_n o ... o f_1; time 0 is the
identity; time -n is the inverse of the time-n flow, i.e.
f_1^{-1} o ... o f_n^{-1}.  For families declared commutative the inverse
factors are applied in ascending index order instead (mathematically equal,
and it makes backward windows incremental); non-commutative families use the
literal descending order.  A family's declarations (commutative, isometric,
period) are checked on every map it builds, so a flow never rests on a false
one.  Each family holds one trajectory store.  A FlowCache holds only the
family, and one routine of it finds, starts and extends every stored
trajectory, reproducing these operation orders exactly:
ascending for commutative families, blocks of one period for families with a
declared period; other families' backward values come from omega itself.
A rotation family with no rule moves float points by one inline loop over the
float turns of its exact steps and builds no map until one is asked for; its
block families are such families too, on their exact block steps.  One gate,
MapFamily.rides_turns, decides which points take that loop, for a trajectory,
for hull enumeration's batch over a frontier and for the drift slack
(rotation_drift).  A family with a rule, and its block families, apply each
map's forward/inverse.
"""

from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass, field
from math import copysign, gcd
from operator import attrgetter

from .errors import BudgetError, ConstructionError
from .exact import RationalRotationFamily, points_budget
from .maps import CircleRotation, Composite, Homeomorphism
from .space import BOUNDARY_TOL, Space, metric

DEFAULT_HORIZON = 100_000
# hull_sample keeps no two points closer than this
DEDUP_EPS = 1e-9
# hull_sample keeps at most this many points (lowered by NAADS_BUDGET_POINTS)
HULL_POINTS = 4096
# The dedup bucket width: the least power of two at least twice DEDUP_EPS and
# BOUNDARY_TOL, so a point within DEDUP_EPS lies in its bucket or the next.
_BUCKET = 2.0 ** -28


class MapFamily:
    """A state space plus the rule n -> f_n generating the flow.

    ``rule(n)`` must be defined for every n >= 1 up to the horizon; maps are
    built in index order on first use and kept in one list.  The declarations
    are checked on every map built, and a map that breaks one raises
    ConstructionError at its first use:

    * ``declared_commutative``: f_n has a ``kind`` (maps of one kind commute)
      and it is f_1's;
    * ``declared_isometric``: f_n is ``isometric``;
    * ``declared_period`` (a p >= 1, or None): for n > p, f_n equals f_{n-p}
      (maps compare by type and attributes).

    ``exact`` optionally carries the exact rational view of a rotation family.
    With ``rule=None`` the family is that view: f_n rotates by the n-th step
    pair (a, b), and a map is built only when asked for.  Flows run only these
    turns a / b inline, one per map; a rule's maps, CircleRotation too, go
    through forward/inverse.
    The family also holds the trajectory store that its FlowCache views share.
    """

    def __init__(
        self,
        space: Space,
        rule: Callable[[int], Homeomorphism] | None,
        name: str,
        declared_commutative: bool = False,
        declared_isometric: bool = False,
        horizon: int = DEFAULT_HORIZON,
        exact: RationalRotationFamily | None = None,
        declared_period: int | None = None,
    ):
        if declared_period is not None and (
            not isinstance(declared_period, int)
            or isinstance(declared_period, bool)
            or declared_period < 1
        ):
            raise ConstructionError(
                f"declared_period must be a positive int, got {declared_period!r}"
            )
        if rule is None and exact is None:
            raise ConstructionError("a family needs a rule or an exact view")
        self.space = space
        self.rule = rule
        self.name = name
        self.declared_commutative = declared_commutative
        self.declared_isometric = declared_isometric
        self.horizon = horizon
        self.exact = exact
        self.declared_period = declared_period
        self._maps: list[Homeomorphism] = []  # _maps[n - 1] = f_n
        # the float turns of f_1, f_2, ..., read off the exact steps with no rule,
        # and in _back the same turns negated; None (per-map path) with a rule
        self._turns: list[float] | None = None if rule else []
        self._back: list[float] = []
        self._traj: dict = {}  # FlowCache's store: plain data, never a FlowCache

    def map_at(self, n: int) -> Homeomorphism:
        if n < 1:
            raise ConstructionError("map indices start at 1")
        return self._maps_through(n)[n - 1]

    def _maps_through(self, n: int) -> list[Homeomorphism]:
        """The map list through f_n, each new map checked against the declarations."""
        maps, p = self._maps, self.declared_period
        rule = self.rule or (lambda k: CircleRotation(self.exact.step(k)))
        for k in range(len(maps) + 1, n + 1):
            h = rule(k)
            if self.declared_commutative and (
                    h.kind is None or maps and h.kind != maps[0].kind):
                raise ConstructionError(
                    f"{self.name!r} is declared commutative, but f_{k} has kind "
                    f"{h.kind!r}, not one kind shared with f_1")
            if self.declared_isometric and not h.isometric:
                raise ConstructionError(
                    f"{self.name!r} is declared isometric, but f_{k} is not")
            if p and k > p and h is not maps[k - p - 1] and h != maps[k - p - 1]:
                raise ConstructionError(
                    f"{self.name!r} declares period {p}, but f_{k} differs "
                    f"from f_{k - p}")
            maps.append(h)
        return maps

    def rides_turns(self, points, n: int) -> bool:
        """Whether the inline loop moves every point through f_n: the family has
        no rule and each point is a float in CircleRotation's range.  The turns
        are then read through n, so their budget and period errors fire here.
        """
        if self._turns is None:
            return False
        for y in points:
            if type(y) is not float or not -BOUNDARY_TOL <= y < 1 + BOUNDARY_TOL:
                return False
        self._turns_through(n)
        return True

    def _turns_through(self, n: int) -> list[float] | None:
        """The float turns, read through f_n, or None for the per-map path."""
        turns = self._turns
        if turns is None or n <= len(turns):
            return turns
        pairs, p = self.exact.pairs(n), self.declared_period
        for k in range(max(len(turns), p or n), n):  # pairs[k] is the step of f_{k+1}
            if pairs[k] != pairs[k - p]:
                raise ConstructionError(f"{self.name!r} declares period {p}, but "
                                        f"f_{k + 1} differs from f_{k + 1 - p}")
        turns += (new := [a / b for a, b in pairs[len(turns):n]])
        self._back += [-a for a in new]
        return turns

    def __repr__(self):
        return f"MapFamily({self.name!r}, space={self.space.value})"


def check_window(family: MapFamily, n_max: int, time: int | None = None) -> None:
    """The flow's one budget gate, for a read that reaches n_max steps each way.

    A negative n_max raises ValueError first; an n_max past the family's
    horizon then raises BudgetError, naming ``time`` (by default -n_max, the
    first time of a window).  A signed time n is the read of reach |n|.
    """
    if n_max < 0:
        raise ValueError("window size must be >= 0")
    if n_max > family.horizon:
        raise BudgetError(f"time {-n_max if time is None else time} exceeds horizon "
                          f"{family.horizon}")


def omega(family: MapFamily, n: int, x):
    """State of the flow at signed time n started from x."""
    check_window(family, abs(n), n)
    if n == 0:
        return x
    maps = family._maps_through(abs(n))
    if n > 0:
        for h in maps[:n]:
            x = h.forward(x)
        return x
    m = -n
    for h in maps[:m] if family.declared_commutative else maps[m - 1::-1]:
        x = h.inverse(x)
    return x


def _extend(family: MapFamily, traj: list, n: int, inverse: bool) -> None:
    """Extend ``traj`` through entry n, entry k being f_k (or f_k^{-1}) of entry k - 1.

    A float circle point moves along the family's turns, one per map, or for an
    inverse its _back turns, with CircleRotation's float operations in its order:
    wrap_circle(y + a), where y - a is y + (-a) in IEEE arithmetic.  Once y is
    in [0, 1), the range check of the first step holds at every later one.
    """
    lo, y, append = len(traj), traj[-1], traj.append
    if not family.rides_turns((y,), n):
        step = attrgetter("inverse" if inverse else "forward")
        for f in map(step, family._maps_through(n)[lo - 1:n]):
            y = f(y)
            append(y)
        return
    for a in (family._back if inverse else family._turns)[lo - 1:n]:
        y = (y + a) % 1.0
        if y >= 1.0:
            y -= 1.0
        append(y)


def rotation_drift(family: MapFamily, points, n_max: int) -> float | None:
    """How far a float distance between window rows may stray over |n| <= n_max.

    From a float start in [0, 1), each turn of _extend's inline loop rounds
    a / b once (at most 2**-54) and its sum at most twice (2**-53 each), so
    entry n lies within |n| * 2**-51 of x + disp(n); a block family turns once
    per block.  A rotation keeps exact distances, so a distance at time n is
    within twice that drift, plus the metric's and the caller's rounding, of
    its value at time 0; the sum is doubled rather than argued to the ulp.
    None unless the circle points are floats in [0, 1) that ride the turns
    (MapFamily.rides_turns).  check_window runs first, as in a full read.
    """
    check_window(family, n_max)
    points = list(points)
    if (family.space is not Space.CIRCLE or not all(0.0 <= p < 1.0 for p in points)
            or not family.rides_turns(points, n_max)):
        return None
    return 2 * (2 * n_max * 2 ** -51 + 2 ** -50)


class FlowCache:
    """Memoized flow evaluation; cached values equal fresh omega() bit-for-bit.

    A FlowCache is a view that holds only its family: every trajectory lives
    in the family's one store, so all views of a family read and extend the
    same trajectories.  The store has no cap and lives as long as the family.
    It holds every value, keyed by (type(x), x, tag, the sign of a zero x):
    Fraction(1, 2) and 0.5, or 0.0 and -0.0, are equal and hash alike but have
    different trajectories.  Tag "+" is the forward trajectory [x, omega_1(x), ...],
    extended one map at a time as omega's loop does, inline over the family's
    turns where it has them (see _extend).  Backward values use one of two
    strategies, chosen from the family's declarations:

    * commutative ascending (tag "-"): entry m is omega_{-m}(x), extended by
      f_m^{-1} -- the ascending order omega itself uses for these families --
      by the same routine as the forward trajectory;
    * periodic blocks (declared_period p, tags 0 <= s < p): with m = jp + s,
      omega_{-m}(x) is entry j of the trajectory that starts at
      omega(-s, x) and is extended by f_p^{-1}, then ..., then f_1^{-1}.
      omega's descending loop applies f_m^{-1}, ..., f_1^{-1}; as
      f_{k+p} = f_k, its first s maps are f_s^{-1}, ..., f_1^{-1} and the
      rest are j copies of that block, so both paths make the same float
      operations in the same order and agree bit for bit.

    Any other family's backward values come from omega itself, uncached.
    ``omega`` and ``window`` both read the trajectories through ``_traj``.
    Confine a family, views and all, to one worker, or wrap it yourself.
    """

    def __init__(self, family: MapFamily):
        self.family = family

    def _traj(self, x, tag, i: int) -> list:
        """x's trajectory under ``tag``, started if missing and extended through entry i."""
        fam = self.family
        traj = fam._traj.get(key := (type(x), x, tag, copysign(1, x) if x == 0 else 1))
        if traj is None:
            traj = fam._traj[key] = [x if tag in ("+", "-") else omega(fam, -tag, x)]
        if len(traj) > i:
            return traj
        if tag in ("+", "-"):
            _extend(fam, traj, i, tag == "-")
            return traj
        block = [fam.map_at(k).inverse for k in range(fam.declared_period, 0, -1)]
        y = traj[-1]
        while len(traj) <= i:
            for inverse in block:
                y = inverse(y)
            traj.append(y)
        return traj

    def omega(self, n: int, x):
        fam = self.family
        check_window(fam, abs(n), n)
        if n == 0:
            return x
        if n > 0:
            return self._traj(x, "+", n)[n]
        if fam.declared_commutative:
            return self._traj(x, "-", -n)[-n]
        if p := fam.declared_period:
            i, s = divmod(-n, p)
            return self._traj(x, s, i)[i]
        return omega(fam, n, x)

    def window(self, x, n_max: int) -> list:
        """Flow values at times -n_max..n_max, index i holding time i - n_max."""
        fam = self.family
        check_window(fam, n_max)
        forward = self._traj(x, "+", n_max)[:n_max + 1]
        if fam.declared_commutative:
            return self._traj(x, "-", n_max)[n_max:0:-1] + forward
        if p := fam.declared_period:
            back = [None] * (n_max + 1)  # back[m] = omega_{-m}(x)
            for s in range(min(p, n_max + 1)):
                j = (n_max - s) // p
                back[s::p] = self._traj(x, s, j)[:j + 1]
            return back[n_max:0:-1] + forward
        return [omega(fam, -m, x) for m in range(n_max, 0, -1)] + forward


def block_family(family: MapFamily, r: int) -> MapFamily:
    """The family whose k-th map is the composite of the k-th length-r block.

    Block k applies f_{(k-1)r+1} first and f_{kr} last, so the block flow at
    time k equals the original flow at time k*r.  A declared period p becomes
    p // gcd(p, r).  r = 1 returns the family unchanged.  A family with no rule
    gets a rotation family on its exact block steps (``exact.block(r)``), one
    float turn per block; a family with a rule gets the composites.
    """
    if r < 1:
        raise ValueError("block size must be >= 1")
    if r == 1:
        return family

    def rule(k: int) -> Homeomorphism:
        return Composite([family.map_at((k - 1) * r + j) for j in range(1, r + 1)])

    return MapFamily(
        space=family.space,
        rule=rule if family.rule else None,
        name=f"{family.name}|blocks[r={r}]",
        declared_commutative=family.declared_commutative,
        declared_isometric=family.declared_isometric,
        horizon=family.horizon // r,
        exact=family.exact.block(r) if family.exact is not None else None,
        declared_period=p // gcd(p, r) if (p := family.declared_period) else None,
    )


@dataclass
class HullSample:
    """Finite deduplicated approximation of an order-k truncated hull.

    ``points`` lists points in discovery order (breadth-first by word length,
    then by flow index ascending), no two closer than DEDUP_EPS.
    ``stabilized`` records that an expansion round added nothing, i.e. the
    sample is closed under the truncated flow at this tolerance.
    """

    points: list = field(default_factory=list)
    budget_exhausted: bool = False
    stabilized: bool = False


def _windows(family: MapFamily, points: list, n_max: int):
    """Each point's window at times -n_max..n_max, as FlowCache.window reads it.

    Where _extend's inline loop runs both ways (the family is declared
    commutative and its points ride the turns, MapFamily.rides_turns), each
    turn moves all points in one list pass, storing nothing; else the store is
    read lazily, point by point.  check_window and the turns' read raise
    first, as in a window read.
    """
    check_window(family, n_max)
    if not (family.declared_commutative and family.rides_turns(points, n_max)):
        cache = FlowCache(family)
        return (cache.window(y, n_max) for y in points)
    fwd, back = [points], [points]
    for rows, turns in (fwd, family._turns), (back, family._back):
        for a in turns[:n_max]:
            rows.append([z - 1.0 if (z := (y + a) % 1.0) >= 1.0 else z for y in rows[-1]])
    return zip(*back[:0:-1], *fwd)


def hull_sample(family: MapFamily, x, order_k: int, depth: int) -> HullSample:
    """Breadth-first enumeration of flow words applied to x.

    Words are compositions of flow maps at times r in {-order_k, .., order_k}
    (time 0 is the identity and is harmless), at most ``depth`` letters long.
    Each point's 2k + 1 successors are its flow window, in time order; a round
    reads its frontier's windows in one batch (_windows).  Deduplication keeps
    the first representative within DEDUP_EPS.  A candidate equal to a kept
    point (a set lookup; on rotation cycles, most candidates) is at distance 0
    and skipped at once.  Any other is compared, with metric's operations, only
    with the kept points in its bucket and the two next to it (around the
    circle).  Buckets are _BUCKET wide, so no point of another bucket is within
    DEDUP_EPS; an x off the space's range shares one bucket with all.  Hitting
    the points budget (HULL_POINTS, lowered by NAADS_BUDGET_POINTS) sets
    budget_exhausted; truncation is reported, never silent.
    """
    if order_k < 1 or depth < 1:
        raise ValueError("order_k and depth must be >= 1")
    cap = points_budget(HULL_POINTS)
    space = family.space
    circle = space is Space.CIRCLE
    inside = -BOUNDARY_TOL <= x <= 1 + BOUNDARY_TOL
    width, k = (_BUCKET, x // _BUCKET) if inside else (2.0, 0.0)
    turn = 1 / width  # buckets around the circle
    # key -> the kept points of that bucket and of the two next to it
    buckets = {key % turn if circle else key: [x] for key in (k - 1, k, k + 1)}
    points, kept, frontier = [x], {x}, [x]
    for _ in range(depth):
        new = []
        for window in _windows(family, frontier, order_k):  # times -order_k..order_k
            for z in window:
                if z in kept:
                    continue
                k = z // width % turn if circle else z // width
                for p in buckets.get(k, ()):
                    d = abs(z - p)
                    if circle and (e := 1 - d) < d:
                        d = abs(e)
                    if not d >= DEDUP_EPS:
                        break
                else:
                    if k != k and not all(metric(space, z, p) >= DEDUP_EPS for p in points):
                        continue  # a NaN or infinite z has a NaN key: test every point
                    kept.add(z)
                    points.append(z)
                    new.append(z)
                    for key in k - 1, k, k + 1:
                        buckets.setdefault(key % turn if circle else key, []).append(z)
                    if len(points) >= cap:
                        return HullSample(points=points, budget_exhausted=True)
        if not new:
            return HullSample(points=points, stabilized=True)
        frontier = new
    return HullSample(points=points)
