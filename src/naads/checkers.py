"""Finite-scale property checkers for non-autonomous flows.

Every checker is a pure function of (family, parameters) returning a
PropertyReport (or a small result record); its parameters are checked against
_RULES before it runs, and a report's parameters are the record of its call
(see _records_call).  Infinite-time notions can never
be Certified from finite data except through exact rotation structure, so
most verdicts are EvidenceFor / EvidenceAgainst at the given budget; the
witness in a report always re-verifies through the flow (see replay_witness).

Search tie-breaking is deterministic everywhere: times are scanned in the
order 0, 1, -1, 2, -2, ... so the reported witness has least absolute time,
positive before negative.
"""

from __future__ import annotations

import functools
import inspect
import math
import operator
from bisect import bisect_left, bisect_right
from fractions import Fraction
from itertools import chain, repeat

from .errors import DomainError, PreconditionError
from .exact import exact_hull_displacements, exact_periodicity, points_budget
from .flow import (HULL_POINTS, FlowCache, MapFamily, block_family, check_window,
                   hull_sample, rotation_drift)
from .report import ProximalExtremes, PropertyReport, ReturnTimeSet, Verdict, Witness
from .space import (
    Space,
    check_grid_size,
    diameter,
    distances,
    metric,
    nearest_distance,
    nearest_distances,
    net_centers,
    net_size,
    spread_exceeds,
    uniform_grid,
)

FLOW_TOL = 1e-9
LI_YORKE_LOW_TOL = 1e-3
LI_YORKE_HIGH_TOL = 0.3
# Windows are read this far first, and to N only if that prefix decides nothing:
# 16 steps decide most corpus balls cheaply.  A cost, not a parameter.
SHORT_READ = 16


# The public name of a checker parameter, in report records and on the command line.
PUBLIC_NAME = {"n_max": "N"}


def _positive(v):
    return 0 < v < math.inf


def _at_least(low):
    return f"must be >= {low}", lambda v: v >= low


# The domain of each checker parameter, by public name: (rule, test).  No
# test holds on nan.  The base points x and y have no rule here: a nan one is
# a point of no space, and raises DomainError instead.
_RULES = {
    "eps": ("must be positive and finite", _positive),
    "delta": ("must be positive and finite", lambda v: v is None or _positive(v)),
    "radii": ("must be positive and finite", lambda vs: all(map(_positive, vs))),
    **dict.fromkeys(("tol", "N", "horizon"), _at_least(0)),
    **dict.fromkeys(("r", "order_cap", "order_k", "depth"), _at_least(1)),
    **dict.fromkeys(("grid", "grid_size", "pair_grid", "samples"), _at_least(2)),
}


def _records_call(checker):
    """Check each call's parameters against ``_RULES``, then record them.

    The record holds every parameter of ``checker``, passed or defaulted,
    under its public name.  Before the checker runs, so before any flow work,
    each value must keep its rule, else ValueError("<name> <rule>"), and a nan
    ``x`` or ``y`` raises DomainError.  A returned PropertyReport gets the
    record as its ``parameters``, with ``family`` as the family's name; a value
    the checker resolves itself (a default ``delta``) it puts in the report,
    and that value is kept.  This is the one reader of checker signatures, once
    each; the wrapper keeps what the command line's task table reads: ``params``
    (public names in signature order), ``arg_of`` (the checker argument each one
    feeds), ``defaults`` and ``gives_verdict`` (it returns a PropertyReport).
    """
    sig = inspect.signature(checker, eval_str=True)
    _family, *params = sig.parameters.values()
    public = {p.name: PUBLIC_NAME.get(p.name, p.name) for p in params}
    positional = tuple(public.values())
    defaults = {public[p.name]: p.default for p in params if p.default is not p.empty}
    rules = [(name, *_RULES[name]) for name in positional if name in _RULES]
    points = [name for name in positional if name in ("x", "y")]

    @functools.wraps(checker)
    def call(family, *args, **kwargs):
        record = {**defaults, **dict(zip(positional, args)),
                  **{public.get(k, k): v for k, v in kwargs.items()}}
        for name, rule, holds in rules:
            if name in record and not holds(record[name]):
                raise ValueError(f"{name} {rule}")
        for p in map(record.get, points):
            if p != p:
                raise DomainError(f"base point {p!r} is not a number")
        rep = checker(family, *args, **kwargs)
        if isinstance(rep, PropertyReport):
            rep.parameters = {**record, "family": family.name, **rep.parameters}
        return rep

    call.params, call.defaults = positional, defaults
    call.arg_of = dict(zip(positional, public))
    call.gives_verdict = sig.return_annotation is PropertyReport
    return call


def _reads(family: MapFamily, n: int) -> list:
    """The window sizes a scan through n reads in turn: min(n, SHORT_READ), then n.

    n's budget is checked first, so a short read that decides hides no BudgetError.
    """
    check_window(family, n)
    return sorted({min(n, SHORT_READ), n})


def _scan_times(n_max: int):
    yield 0
    for n in range(1, n_max + 1):
        yield n
        yield -n


# ---------------------------------------------------------------------------
# periodicity and return times


@_records_call
def periodicity_check(
    family: MapFamily, x, r: int, horizon: int = 25, tol: float = FLOW_TOL
) -> PropertyReport:
    """Does x return to itself at every multiple of r within the horizon?

    Exact rotation families yield Certified/Refuted; otherwise the verdict is
    EvidenceFor (max deviation <= tol at all |j| <= horizon) or Refuted with
    the smallest failing time.
    """
    cache = FlowCache(family)

    if family.exact is not None:
        # a witness past the family horizon would abort below all the same
        n = exact_periodicity(family.exact, r, min(horizon, family.horizon // r))
        if n is None:
            row = cache.window(x, horizon * r)[::r]  # times j * r, |j| <= horizon
            max_dev = max(distances(family.space, row, repeat(x)))
            return PropertyReport(
                "periodicity",
                Verdict.CERTIFIED,
                details={"max_deviation": max_dev, "mode": "exact"},
            )
        dev = metric(family.space, cache.omega(n, x), x)
        return PropertyReport(
            "periodicity",
            Verdict.REFUTED,
            witnesses=[Witness("point_return", (x,), (n,), (dev,))],
            details={
                "mode": "exact",
                "witness_displacement": family.exact.displacement(n),
            },
        )

    max_dev = 0.0
    for j in range(1, horizon + 1):
        for n in (j * r, -j * r):
            dev = metric(family.space, cache.omega(n, x), x)
            if dev > tol:
                return PropertyReport(
                    "periodicity",
                    Verdict.REFUTED,
                    witnesses=[Witness("point_return", (x,), (n,), (dev,))],
                    details={"mode": "float"},
                )
            max_dev = max(max_dev, dev)
    return PropertyReport(
        "periodicity",
        Verdict.EVIDENCE_FOR,
        details={"max_deviation": max_dev, "mode": "float"},
    )


@_records_call
def return_time_set(family: MapFamily, x, eps, n_max: int) -> ReturnTimeSet:
    """Times |n| <= n_max with d(omega_n(x), x) < eps, plus gap statistics."""
    if n_max < 1:
        raise ValueError("N must be >= 1")
    row = distances(family.space, FlowCache(family).window(x, n_max), repeat(x))
    times = [n for n, d in zip(range(-n_max, n_max + 1), row) if d < eps]
    internal, left, right = _gaps(times, n_max)
    return ReturnTimeSet(base=x, eps=eps, window_n=n_max, times=times,
                         max_internal_gap=internal, censored_left_gap=left,
                         censored_right_gap=right)


def _gaps(times: list, n: int) -> tuple:
    """(internal, left, right): the return gaps of the sorted ``times`` within |t| <= n.

    Edge gaps are censored at -n and n.  Time 0 is a return, so none is empty.
    """
    ts = times[bisect_left(times, -n):bisect_right(times, n)]
    return max((b - a for a, b in zip(ts, ts[1:])), default=0), ts[0] + n, n - ts[-1]


@_records_call
def almost_periodicity_report(
    family: MapFamily, x, eps, n_max: int
) -> PropertyReport:
    """Syndetic-return evidence over doubling windows n_max, 2n, 4n.

    A stable gap bound M across the doublings is evidence for almost
    periodicity; a growing (censored) gap is evidence against -- a finite
    window cannot certify unboundedness, so the trend is the signal.  One
    return-time scan, of the window 4n, gives all three bounds.
    """
    windows = [n_max, 2 * n_max, 4 * n_max]
    times = return_time_set(family, x, eps, windows[-1]).times
    gaps = [max(_gaps(times, w)) for w in windows]
    trend = list(zip(windows, gaps))
    if gaps[2] > gaps[0]:
        return PropertyReport("almost_periodicity", Verdict.EVIDENCE_AGAINST,
                              details={"trend": trend})
    return PropertyReport("almost_periodicity", Verdict.EVIDENCE_FOR,
                          details={"M": gaps[2], "trend": trend})


@_records_call
def uniform_ap_report(
    family: MapFamily, eps, n_max: int, grid_size: int = 64
) -> PropertyReport:
    """One syndetic bound M for every grid point, or the worst offender.

    Each grid point, in order, gets one return-time scan of the window 2N,
    which gives its bounds at N and 2N; the first bound that grows ends the scan.
    On a rotation the return distance at time n is ||disp(n)|| from every
    point, so when no entry of the first point's row lies within the drift
    slack of eps (flow.rotation_drift), every grid point has its return times and
    that one window decides the report.
    """
    worst_m = 0
    grid = uniform_grid(family.space, grid_size)
    for g in grid:
        times = return_time_set(family, g, eps, 2 * n_max).times
        g1, g2 = max(_gaps(times, n_max)), max(_gaps(times, 2 * n_max))
        if g2 > g1:
            trend = [(n_max, g1), (2 * n_max, g2)]
            return PropertyReport("uniform_almost_periodicity", Verdict.EVIDENCE_AGAINST,
                                  details={"worst_point": g, "gap_trend": trend})
        worst_m = max(worst_m, g2)
        if g is grid[0] and (slack := rotation_drift(family, grid, 2 * n_max)) is not None:
            row = distances(family.space, FlowCache(family).window(g, 2 * n_max), repeat(g))
            if all(abs(d - eps) > slack for d in row):
                break
    return PropertyReport("uniform_almost_periodicity", Verdict.EVIDENCE_FOR,
                          details={"M": worst_m})


# ---------------------------------------------------------------------------
# equicontinuity and sensitivity


def _nearby_pairs(space: Space, grid_pts, delta):
    off = 0.75 * delta
    pairs = []
    for x in grid_pts:
        if space is Space.CIRCLE:
            pairs.append((x, (x + off) % 1.0))
            pairs.append((x, (x - off) % 1.0))
        else:
            if x + off <= 1:
                pairs.append((x, x + off))
            if x - off >= 0:
                pairs.append((x, x - off))
    return pairs


def _first_far_time(family: MapFamily, a, b, w: int, eps):
    """First (n, d) in _scan_times(w) order with d(omega_n a, omega_n b) >= eps.

    None if the pair stays eps-close for |n| <= w.  The pair's windows are
    read at each of _reads(family, w), one distance row per read, so a pair that
    separates early costs short windows only.
    """
    space, window = family.space, FlowCache(family).window
    for m in _reads(family, w):
        row = distances(space, window(a, m), window(b, m))  # index i holds time i - m
        for k in _scan_times(m):
            if (d := row[k + m]) >= eps:
                return k, d
    return None


@_records_call
def equicontinuity_modulus(
    family: MapFamily, eps, n_max: int = 50, pair_grid: int = 17
) -> PropertyReport:
    """Largest dyadic delta keeping sampled nearby pairs eps-close for |n| <= N.

    Candidates are eps, eps/2, ..., eps/2^20; pairs sit at distance
    0.75*delta around a uniform grid.  The modulus is recomputed at windows
    N, 2N, 4N: a strictly shrinking trend (or no passing candidate) is
    evidence against equicontinuity.  Each pair's first far time is read once,
    at 4N: the scan orders are prefixes of each other, so the pair fails
    window w iff that time has |n| <= w.  On a rotation, when every pair of the
    first candidate is closer than eps by the drift slack (flow.rotation_drift),
    that candidate passes at every window with no window read.
    """
    check_window(family, 4 * n_max, 4 * n_max)  # no window may reach past the family
    space = family.space
    grid_pts = uniform_grid(space, pair_grid)
    candidates = [eps / 2 ** i for i in range(21)]
    windows = [n_max, 2 * n_max, 4 * n_max]

    deltas = []
    witness = None
    far = {}  # (a, b) -> its first far (n, d) through 4N, or None
    # the turns are read only where the first candidate's pairs are eps-close at time 0
    pairs = _nearby_pairs(space, grid_pts, candidates[0])
    d0 = max((metric(space, a, b) for a, b in pairs), default=eps)
    slack = rotation_drift(family, chain(*pairs), windows[-1]) if d0 < eps else None
    if slack is not None and d0 < eps - slack:
        far = dict.fromkeys(pairs)
    for w in windows:
        found = 0.0
        for delta in candidates:
            fail = None
            for pair in _nearby_pairs(space, grid_pts, delta):
                if pair not in far:
                    far[pair] = _first_far_time(family, *pair, windows[-1], eps)
                if far[pair] is not None and abs(far[pair][0]) <= w:
                    fail = (*pair, *far[pair])
                    break
            if fail is None:
                found = delta
                break
            witness = fail
        deltas.append(found)

    trend = list(zip(windows, deltas))
    shrinking = (deltas[0] > deltas[1] > deltas[2]) or deltas[2] == 0.0
    details = {"delta": deltas[0], "trend": trend}
    witnesses = []
    if witness is not None:
        a, b, n, d = witness
        witnesses = [Witness("pair_orbit", (a, b), (n,), (d,))]
    verdict = Verdict.EVIDENCE_AGAINST if shrinking else Verdict.EVIDENCE_FOR
    return PropertyReport("equicontinuity", verdict, witnesses=witnesses, details=details)


@_records_call
def proximal_liminf(family: MapFamily, x, y, n_max: int) -> ProximalExtremes:
    """Min/max pair distance with witnessing times over |n| <= n_max."""
    cache = FlowCache(family)
    row = distances(family.space, cache.window(x, n_max), cache.window(y, n_max))
    best = worst = row[n_max]  # time 0
    t_best = t_worst = 0
    for n in _scan_times(n_max):
        d = row[n + n_max]
        if d < best:
            best, t_best = d, n
        if d > worst:
            worst, t_worst = d, n
    return ProximalExtremes(best, t_best, worst, t_worst)


@_records_call
def li_yorke_classify(
    family: MapFamily,
    x,
    y,
    n_max: int,
    low_tol: float = LI_YORKE_LOW_TOL,
    high_tol: float = LI_YORKE_HIGH_TOL,
) -> PropertyReport:
    """Evidence that (x, y) gets both low_tol-close and high_tol-separated."""
    if not low_tol < high_tol:  # also rejects a nan tolerance
        raise ValueError("low_tol must be below high_tol")
    ext = proximal_liminf(family, x, y, n_max)
    ok = ext.min_distance < low_tol and ext.max_distance > high_tol
    return PropertyReport(
        "li_yorke_pair",
        Verdict.EVIDENCE_FOR if ok else Verdict.EVIDENCE_AGAINST,
        witnesses=[
            Witness(
                "pair_orbit",
                (x, y),
                (ext.argmin_time, ext.argmax_time),
                (ext.min_distance, ext.max_distance),
            )
        ],
        details={
            "min_distance": ext.min_distance,
            "max_distance": ext.max_distance,
        },
    )


def _ball_samples(space: Space, x, radius, count: int):
    pts = []
    for i in range(check_grid_size(count)):
        off = radius * (2 * i / (count - 1) - 1)
        p = (x + off) % 1.0 if space is Space.CIRCLE else min(1.0, max(0.0, x + off))
        if all(q != p for q in pts):
            pts.append(p)
    return pts


def _first_expansion(space: Space, pts, wins, n: int, delta):
    """First (a, b, k, d), |k| <= n, with d(omega_k a, omega_k b) > delta.

    ``wins`` are the windows of ``pts`` at n; times go in _scan_times order,
    pairs in sample order.
    """
    for k in _scan_times(n):
        idx = k + n
        if spread_exceeds(space, [win[idx] for win in wins], delta):  # some pair does
            return next((pts[i], pts[j], k, d) for i in range(len(pts))
                        for j in range(i + 1, len(pts))
                        if (d := metric(space, wins[i][idx], wins[j][idx])) > delta)
    return None


@_records_call
def sensitivity_at_point(
    family: MapFamily,
    x,
    delta: float | None = None,
    radii=(0.1, 0.01),
    samples: int = 16,
    n_max: int = 100,
) -> PropertyReport:
    """Does every listed neighborhood of x expand past delta under the flow?

    Each ball is probed with boundary-and-interior samples; the sampled
    diameter is a lower bound on the true one, so EvidenceFor is safe and a
    refusal is conservative.  delta defaults to a quarter of the space
    diameter.

    Radii go in order, and the first ball that does not expand ends the scan.
    A ball's sample windows are read at min(N, SHORT_READ), and at N only if no
    pair separates there, so a witness is the first separation in time order.  On
    a rotation a ball whose samples lie within delta by the drift slack
    (flow.rotation_drift) at time 0 never expands, and its windows are not read.
    """
    space = family.space
    if delta is None:
        delta = diameter(space) / 4
    cache = FlowCache(family)
    witnesses = []
    for radius in radii:
        pts = _ball_samples(space, x, radius, samples)
        # a ball split at time 0 keeps its scan, which reads no turn past the short read
        slack = None if spread_exceeds(space, pts, delta) else rotation_drift(
            family, pts, n_max)
        hit = None
        if slack is None or spread_exceeds(space, pts, delta - slack):
            for n in _reads(family, n_max):
                hit = _first_expansion(space, pts, [cache.window(p, n) for p in pts],
                                       n, delta)
                if hit is not None:
                    break
        if hit is None:
            return PropertyReport("sensitivity_at_point", Verdict.EVIDENCE_AGAINST,
                                  {"delta": delta}, details={"unexpanded_radius": radius})
        a, b, k, d = hit
        witnesses.append(Witness("pair_orbit", (a, b), (k,), (d,), f"radius={radius!r}"))
    return PropertyReport(
        "sensitivity_at_point", Verdict.EVIDENCE_FOR, {"delta": delta}, witnesses
    )


# ---------------------------------------------------------------------------
# density, transitivity, minimality


def _center_distances(family: MapFamily, x, eps, n_max: int):
    """The orbit window [-N, N] of x, and its distance to each eps-net center.

    The distances come lazily, as (center, distance) pairs in center order.
    """
    space = family.space
    window = FlowCache(family).window(x, n_max)
    centers = net_centers(space, eps)
    return window, zip(centers, nearest_distances(space, sorted(window), centers))


@_records_call
def orbit_density(family: MapFamily, x, eps, n_max: int) -> PropertyReport:
    """Is the orbit window [-N, N] of x eps-dense in the space?

    Only a window that misses its worst center is scanned for a witness time.
    """
    window, dists = _center_distances(family, x, eps, n_max)
    c, d = max(dists, key=lambda cd: cd[1])  # the first maximum
    details = {"max_center_distance": d, "worst_center": c}
    if d <= eps:
        return PropertyReport("orbit_density", Verdict.EVIDENCE_FOR, details=details)
    space = family.space
    t = next(n for n in _scan_times(n_max) if metric(space, window[n + n_max], c) == d)
    return PropertyReport(
        "orbit_density",
        Verdict.EVIDENCE_AGAINST,
        witnesses=[Witness("point_target", (x, c), (t,), (d,))],
        details=details,
    )


@_records_call
def transitivity_scan(
    family: MapFamily, eps, n_max: int, grid: int = 16
) -> PropertyReport:
    """Two finite-scale transitivity probes that must agree for commutative families.

    (a) dense-orbit search: some grid point has an eps-dense orbit window;
    (b) open-set scan: every ordered pair of eps-net balls (U, V) is linked
    by some sampled time |k| <= N.  Both true -> EvidenceFor; both false ->
    EvidenceAgainst; a disagreement means the scales are mismatched and the
    scan is inconclusive.

    Each probe stops at its first decisive answer: (a) at the first dense
    window, each window at its first missed center; (b) scans pairs u-major,
    reads the five sampled windows of u's ball on reaching u, and stops at the
    first unmet pair.  (b) reads a ball's windows at min(N, SHORT_READ) first,
    and at N only if some center is unmet there: a window is a prefix of the
    longer one, so a center met early is met at N.
    """
    space = family.space
    cache = FlowCache(family)

    dense_point = None
    for g in uniform_grid(space, grid):
        if all(d <= eps for _, d in _center_distances(family, g, eps, n_max)[1]):
            dense_point = g
            break
    sub_a = dense_point is not None

    centers = net_centers(space, eps)
    offsets = (0.0, 0.5 * eps, -0.5 * eps, 0.9 * eps, -0.9 * eps)
    unmet = None
    for u in centers:
        pts = []
        for off in offsets:
            p = (u + off) % 1.0 if space is Space.CIRCLE else min(1.0, max(0.0, u + off))
            if all(q != p for q in pts):
                pts.append(p)
        # every value the sampled ball reaches at some time |k| <= n
        for n in _reads(family, n_max):
            ball = [z for p in pts for z in cache.window(p, n)]
            if (missed := _hull_meets_all(space, ball, centers, eps)) is None:
                break
        if missed is not None:
            unmet = (u, missed[0])
            break
    sub_b = unmet is None

    details = {
        "dense_orbit": sub_a,
        "dense_orbit_point": dense_point,
        "open_set_scan": sub_b,
        "unmet_pair": unmet,
    }
    if sub_a and sub_b:
        verdict = Verdict.EVIDENCE_FOR
    elif not sub_a and not sub_b:
        verdict = Verdict.EVIDENCE_AGAINST
    else:
        verdict = Verdict.INCONCLUSIVE_BUDGET
    return PropertyReport("transitivity", verdict, details=details)


@_records_call
def r_transitivity_check(
    family: MapFamily, r: int, eps=0.05, n_max: int = 120, grid: int = 16
) -> PropertyReport:
    """Transitivity of the r-step block family.

    For exact rotation families the block displacements are additionally
    checked exactly; all-zero blocks (identity block family) are flagged.
    """
    rep = transitivity_scan(block_family(family, r), eps, n_max, grid)
    if family.exact is not None:
        probe = min(n_max, 200)
        # block k is disp(kr) - disp((k-1)r), so all blocks vanish iff every disp(kr) does
        identity = exact_periodicity(family.exact, r, probe) is None
        rep.details["identity_blocks"] = identity
        rep.details["identity_block_probe"] = probe
    return PropertyReport("r_transitivity", rep.verdict, witnesses=rep.witnesses,
                          details=rep.details)


def _hull_meets_all(space, points, centers, eps):
    """First (center, min distance) the points miss by eps, or None if all are met."""
    for c, dmin in zip(centers, nearest_distances(space, sorted(points), centers)):
        if dmin >= eps:
            return c, dmin
    return None


def _exact_cover_miss(hull, grid: int, m: int, eps):
    """First (grid point, center, distance) whose eps-ball an exact hull misses.

    On Q/Z d(c, x + a) = d(c - x, a), so each grid point x = j/grid queries the
    one sorted set at (c - x) mod 1, in integers over L = lcm(D, grid, m).
    Every q in Z_L lies within floor(G/2) of the hull, G its widest circular
    gap, so a hull whose floor(G/2) is under eps * L misses no pair.
    """
    L = math.lcm(hull.denominator, grid, m)
    pts = [n * (L // hull.denominator) for n in hull.numerators]
    e = Fraction(eps)
    gap = max([pts[0] + L - pts[-1], *map(operator.sub, pts[1:], pts)])
    if gap // 2 * e.denominator < e.numerator * L:
        return None
    for j in range(grid):
        for i in range(m):
            q = (i * (L // m) - j * (L // grid)) % L
            k = bisect_left(pts, q)
            dmin = L  # over nearest_distance's candidates: the neighbours and both ends
            for p in (*pts[max(k - 1, 0):k + 1], pts[0], pts[-1]):
                dmin = min(dmin, abs(q - p), L - abs(q - p))
            if dmin * e.denominator >= e.numerator * L:
                return Fraction(j, grid), Fraction(i, m), Fraction(dmin, L)
    return None


@_records_call
def minimality_certificate(
    family: MapFamily,
    eps,
    order_cap: int = 6,
    depth: int = 8,
    grid: int = 16,
) -> PropertyReport:
    """Smallest hull order k whose truncation meets every eps-ball from every grid point.

    Exact rotation families get a Certified(k) (hull displacements are exact
    prefix-sum combinations, checked in rational arithmetic); other families
    get EvidenceFor(k).  A grid point whose hull stabilizes under the full
    budget while missing some ball refutes; otherwise the budget was
    exhausted inconclusively.
    """
    if family.exact is not None and family.space is Space.CIRCLE:
        m = net_size(eps)
        check_grid_size(grid)
        check_window(family, order_cap)  # the float path's first hull reads this window
        for k in range(1, order_cap + 1):
            hull = exact_hull_displacements(family.exact, k, depth)
            miss = _exact_cover_miss(hull, grid, m, eps)
            if miss is None:
                return PropertyReport(
                    "minimality",
                    Verdict.CERTIFIED,
                    details={
                        "k": k,
                        "mode": "exact",
                        "hull_size": len(hull.numerators),
                        "budget_exhausted": hull.budget_exhausted,
                    },
                )
        if hull.stabilized and not hull.budget_exhausted:  # the order_cap hull
            x, c, dmin = miss
            return PropertyReport(
                "minimality",
                Verdict.REFUTED,
                witnesses=[Witness("hull_miss", (float(x), float(c)), (), (float(dmin),),
                                   note=f"order_k={order_cap}")],
                details={"mode": "exact"},
            )
        return PropertyReport(
            "minimality", Verdict.INCONCLUSIVE_BUDGET, details={"mode": "exact"})

    space = family.space
    centers = net_centers(space, eps)
    grid_pts = uniform_grid(space, grid)
    full = {}
    for x in grid_pts:
        hs = hull_sample(family, x, order_cap, depth)
        full[x] = hs
        if hs.stabilized and not hs.budget_exhausted:
            missed = _hull_meets_all(space, hs.points, centers, eps)
            if missed is not None:
                c, dmin = missed
                return PropertyReport(
                    "minimality",
                    Verdict.REFUTED,
                    witnesses=[
                        Witness(
                            "hull_miss",
                            (x, c),
                            (),
                            (dmin,),
                            note=f"order_k={order_cap}",
                        )
                    ],
                    details={"mode": "float", "hull_size": len(hs.points)},
                )
    for k in range(1, order_cap + 1):
        hulls = full if k == order_cap else {
            x: hull_sample(family, x, k, depth) for x in grid_pts}
        if all(
            _hull_meets_all(space, hulls[x].points, centers, eps) is None
            for x in grid_pts
        ):
            return PropertyReport(
                "minimality",
                Verdict.EVIDENCE_FOR,
                details={"k": k, "mode": "float"},
            )
    return PropertyReport(
        "minimality", Verdict.INCONCLUSIVE_BUDGET, details={"mode": "float"}
    )


# ---------------------------------------------------------------------------
# propagation properties over hulls


def _require_commutative(family: MapFamily, op: str):
    if not family.declared_commutative:
        raise PreconditionError(
            f"{op} requires a commutative family; {family.name!r} is not declared "
            "commutative (the property genuinely fails without commutativity)"
        )


@_records_call
def hull_periodicity_property(
    family: MapFamily,
    x,
    r: int,
    order_k: int = 8,
    depth: int = 6,
    horizon: int = 25,
    tol: float = FLOW_TOL,
) -> PropertyReport:
    """Every sampled hull point of a periodic point should share its period.

    Rejected for non-commutative families, where the property genuinely
    fails; a failing hull point on a commutative family is therefore a
    refutation witness (and in practice a bug indicator).

    A Certified base check covers every hull point: it comes from the exact
    displacements alone, which do not depend on the point (a rotation flow
    fixes every point or none), so each point's check would repeat it with
    the same arguments.  So no hull is sampled: ``hull_size`` is the exact
    count, capped and gated as hull_sample caps and gates (points, then window).
    Float families sample the hull and check each sampled point.
    """
    _require_commutative(family, "hull_periodicity_property")
    base = periodicity_check(family, x, r, horizon, tol)
    if base.verdict not in (Verdict.CERTIFIED, Verdict.EVIDENCE_FOR):
        raise PreconditionError(
            f"base point {x!r} is not period-{r} at horizon {horizon}"
        )
    if base.verdict is Verdict.CERTIFIED:  # only an exact view certifies
        cap = points_budget(HULL_POINTS)
        check_window(family, order_k)
        size = len(exact_hull_displacements(family.exact, order_k, depth).numerators)
        return PropertyReport("hull_periodicity", Verdict.EVIDENCE_FOR,
                              details={"hull_size": min(size, cap), "failing_points": 0})
    hs = hull_sample(family, x, order_k, depth)
    for p in hs.points:
        rep = periodicity_check(family, p, r, horizon, tol)
        if rep.verdict not in (Verdict.CERTIFIED, Verdict.EVIDENCE_FOR):
            return PropertyReport(
                "hull_periodicity",
                Verdict.REFUTED,
                witnesses=list(rep.witnesses),
                details={"failing_point": p, "hull_size": len(hs.points)},
            )
    return PropertyReport(
        "hull_periodicity",
        Verdict.EVIDENCE_FOR,
        details={"hull_size": len(hs.points), "failing_points": 0},
    )


@_records_call
def ap_propagation_check(
    family: MapFamily,
    x,
    eps,
    n_max: int = 40,
    order_k: int = 4,
    depth: int = 3,
) -> PropertyReport:
    """Almost periodicity of x should propagate to its sampled hull points.

    Hull points are tested at 3*eps, the bound the triangle inequality gives
    when transporting returns from a nearby hull representative.
    """
    _require_commutative(family, "ap_propagation_check")
    if not 3 * eps < math.inf:
        raise ValueError("eps must leave 3*eps, its hull points' return radius, finite")
    base = almost_periodicity_report(family, x, eps, n_max)
    if base.verdict is not Verdict.EVIDENCE_FOR:
        raise PreconditionError(
            f"base point {x!r} shows no almost-periodicity evidence at eps={eps}"
        )
    hs = hull_sample(family, x, order_k, depth)
    bounds = []
    for p in hs.points:
        rep = almost_periodicity_report(family, p, 3 * eps, n_max)
        if rep.verdict is not Verdict.EVIDENCE_FOR:
            return PropertyReport(
                "almost_periodicity_propagation",
                Verdict.EVIDENCE_AGAINST,
                details={"failing_point": p, "hull_size": len(hs.points)},
            )
        bounds.append(rep.details["M"])
    return PropertyReport(
        "almost_periodicity_propagation",
        Verdict.EVIDENCE_FOR,
        details={"common_M": max(bounds), "hull_size": len(hs.points)},
    )


def _hausdorff(space: Space, a_pts, b_pts) -> float:
    """max over both ways of max(nearest_distance(space, index, q) for q in queries).

    Each way is one sweep of the sorted queries.  max keeps the first of equal
    values, so on a Fraction/float tie the type follows the queries' own order.
    """
    a_index, b_index = sorted(a_pts), sorted(b_pts)
    worst = []
    for index, queries, ordered in (b_index, a_pts, a_index), (a_index, b_pts, b_index):
        ds = list(nearest_distances(space, index, ordered))
        d = max(ds)
        if ds.count(d) > 1 and len({type(e) for e in ds if e == d}) > 1:
            d = max(nearest_distance(space, index, q) for q in queries)
        worst.append(d)
    return max(worst)


@_records_call
def hull_closure_equality(
    family: MapFamily,
    x,
    eps,
    n_max: int = 40,
    order_k: int = 4,
    depth: int = 3,
    y=None,
) -> PropertyReport:
    """Hulls of orbit points of x should match the hull of x within eps.

    Sampled y values come from the orbit of x unless an explicit ``y`` is
    given (supplying a closure limit instead of an orbit point is the known
    negative configuration: the match can fail there).  Requires
    equicontinuity evidence, short-circuited for declared isometries.
    """
    if not family.declared_isometric:
        eq = equicontinuity_modulus(family, eps, n_max=25, pair_grid=9)
        if eq.verdict is not Verdict.EVIDENCE_FOR:
            raise PreconditionError(
                f"{family.name!r} shows no equicontinuity evidence at eps={eps}"
            )
    hx = hull_sample(family, x, order_k, depth)
    if y is not None:
        ys = [y]
    else:
        ys = []
        for n in (1, -1, 2, -2, 3, -3):
            p = FlowCache(family).omega(n, x)
            if all(q != p for q in ys):
                ys.append(p)
    worst_y, worst_d = None, -1.0
    for p in ys:
        hp = hull_sample(family, p, order_k, depth)
        d = _hausdorff(family.space, hx.points, hp.points)
        if d > worst_d:
            worst_y, worst_d = p, d
    details = {
        "worst_orbit_point": worst_y,
        "hausdorff_distance": worst_d,
        "hull_size": len(hx.points),
    }
    verdict = Verdict.EVIDENCE_FOR if worst_d <= eps else Verdict.EVIDENCE_AGAINST
    return PropertyReport("hull_closure_equality", verdict, details=details)


@_records_call
def dichotomy_scan(
    family: MapFamily,
    eps,
    delta: float | None = None,
    grid: int = 8,
    order_k: int = 3,
    depth: int = 2,
    n_max: int = 50,
) -> PropertyReport:
    """Equicontinuity evidence vs. sensitive grid points, with propagation.

    Reports (a) the equicontinuity verdict, (b) grid points showing
    sensitivity evidence, and (c) whether sensitivity propagates to sampled
    orbit points of each sensitive point.  A clean one-sided outcome is
    EvidenceFor the dichotomy; mixed signals are inconclusive at this budget.
    """
    _require_commutative(family, "dichotomy_scan")
    if not eps / 4 > 0:
        raise ValueError("eps must leave eps/4, its second sensitivity radius, positive")
    space = family.space
    if delta is None:
        delta = diameter(space) / 4
    eq = equicontinuity_modulus(family, eps, n_max=n_max, pair_grid=9)

    radii = (eps, eps / 4)
    sensitive = []
    for g in uniform_grid(space, grid):
        rep = sensitivity_at_point(
            family, g, delta=delta, radii=radii, samples=8, n_max=n_max
        )
        if rep.verdict is Verdict.EVIDENCE_FOR:
            sensitive.append(g)

    propagation = True
    cache = FlowCache(family)
    for p in sensitive[:3]:
        for n in (1, -1, 2):
            q = cache.omega(n, p)
            rep = sensitivity_at_point(
                family, q, delta=delta, radii=radii, samples=8, n_max=n_max
            )
            if rep.verdict is not Verdict.EVIDENCE_FOR:
                propagation = False
                break
        if not propagation:
            break

    details = {
        "equicontinuity": eq.verdict,
        "delta_modulus": eq.details["delta"],
        "sensitive_points": sensitive,
        "propagation_holds": propagation,
    }
    equi = eq.verdict is Verdict.EVIDENCE_FOR
    if equi and not sensitive:
        verdict = Verdict.EVIDENCE_FOR
    elif not equi and sensitive and propagation:
        verdict = Verdict.EVIDENCE_FOR
    else:
        verdict = Verdict.INCONCLUSIVE_BUDGET
    return PropertyReport("dichotomy", verdict, {"delta": delta}, details=details)


# ---------------------------------------------------------------------------
# witness replay


def replay_witness(family: MapFamily, witness: Witness, parameters: dict | None = None):
    """Recompute a witness's distances through the flow.

    Reports are trustworthy only if their witnesses reproduce: the returned
    tuple should match witness.distances within 1e-12.
    """
    space = family.space
    cache = FlowCache(family)
    kind = witness.kind
    if kind == "pair_orbit":
        a, b = witness.points
        return tuple(
            metric(space, cache.omega(t, a), cache.omega(t, b)) for t in witness.times
        )
    if kind == "point_return":
        (a,) = witness.points
        return tuple(metric(space, cache.omega(t, a), a) for t in witness.times)
    if kind == "point_target":
        a, b = witness.points
        return tuple(metric(space, cache.omega(t, a), b) for t in witness.times)
    if kind == "hull_miss":
        record = parameters or {}
        order_k = record.get("order_cap", record.get("order_k"))
        missing = [key for key, value in (("order_cap or order_k", order_k),
                                          ("depth", record.get("depth"))) if value is None]
        if missing:
            raise ValueError(f"hull_miss replay needs {' and '.join(missing)} "
                             "from the report's parameter record")
        hs = hull_sample(family, witness.points[0], order_k, record["depth"])
        return (min(metric(space, p, witness.points[1]) for p in hs.points),)
    raise ValueError(f"unknown witness kind {kind!r}")
