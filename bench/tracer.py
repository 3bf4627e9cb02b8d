"""In-place tracing of naads' layer functions, from outside the package.

``Tracer.install`` replaces the public functions and methods of each layer
with timing wrappers, rebinding every module attribute that refers to the
original (``checkers`` and ``flow`` import ``metric``, ``omega`` and
``hull_sample`` by name).  ``Tracer.uninstall`` restores the originals.

Coarse calls (cli, corpus, checkers, hull enumeration, exact hulls, report
rendering) are kept as spans ``(name, start, end, parent, job)``.  Hot calls
(map applications, metric, flow evaluation, exact displacements) are only
counted, but they still take part in the self-time roll-up: every traced
call adds its duration to the enclosing call's child time, and self time is
duration minus child time.
"""

from __future__ import annotations

import json
import sys
import time

# Budgets the headroom figures are measured against: the default points cap
# of hull enumeration and exact.DENOMINATOR_BIT_BUDGET.
HULL_POINTS_CAP = 4096
DENOMINATOR_BITS = 16384

CHECKERS = (
    "almost_periodicity_report",
    "ap_propagation_check",
    "dichotomy_scan",
    "equicontinuity_modulus",
    "hull_closure_equality",
    "hull_periodicity_property",
    "li_yorke_classify",
    "minimality_certificate",
    "orbit_density",
    "periodicity_check",
    "proximal_liminf",
    "r_transitivity_check",
    "return_time_set",
    "sensitivity_at_point",
    "transitivity_scan",
    "uniform_ap_report",
)


def _naads_modules():
    return [m for name, m in sys.modules.items()
            if (name == "naads" or name.startswith("naads.")) and m is not None]


class Tracer:
    def __init__(self):
        self.clock = time.perf_counter
        self.stack = []  # open frames: [start, child_time]
        self.spans = []  # (name, start, end, parent span index, job)
        self.open_spans = []
        self.job = None
        self.stats = {}  # name -> [calls, self_s, total_s]
        self.count = {
            "map_apps": 0, "cache_hits": 0, "hull_points": 0, "hull_kept": 0,
            "hull_omega": 0, "hull_exhausted": 0, "hull_max_points": 0,
            "exact_hull_size": 0, "prefix_len_max": 0, "den_bits_max": 0,
            "render_bytes": 0, "toplevel_checkers": 0,
        }
        self._in_map = False
        self._in_cache = False
        self._checker_depth = 0
        self._undo = []

    # -- wrappers -----------------------------------------------------------

    def _stat(self, name):
        return self.stats.setdefault(name, [0, 0.0, 0.0])

    def _leaf(self, name, fn, is_map=False):
        """Wrapper for a call that makes no traced calls of its own."""
        st, stack, clock, count = self._stat(name), self.stack, self.clock, self.count
        tracer = self

        if is_map:
            def wrapper(m, x):
                # a Composite's parts belong to the outermost application
                if tracer._in_map:
                    return fn(m, x)
                tracer._in_map = True
                start = clock()
                try:
                    return fn(m, x)
                finally:
                    dur = clock() - start
                    tracer._in_map = False
                    st[0] += 1
                    st[1] += dur
                    st[2] += dur
                    count["map_apps"] += 1
                    if stack:
                        stack[-1][1] += dur
            return wrapper

        def wrapper(*args):
            start = clock()
            try:
                return fn(*args)
            finally:
                dur = clock() - start
                st[0] += 1
                st[1] += dur
                st[2] += dur
                if stack:
                    stack[-1][1] += dur
        return wrapper

    def _span(self, name, fn, record=True, enter=None, leave=None):
        """Wrapper that opens a frame; ``enter`` returns a token for ``leave``."""
        st, stack, clock = self._stat(name), self.stack, self.clock
        spans, open_spans = self.spans, self.open_spans
        tracer = self

        def wrapper(*args, **kwargs):
            token = enter() if enter else None
            frame = [clock(), 0.0]
            stack.append(frame)
            if record:
                idx = len(spans)
                spans.append(None)
                parent = open_spans[-1] if open_spans else -1
                open_spans.append(idx)
            result = None
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                end = clock()
                stack.pop()
                dur = end - frame[0]
                st[0] += 1
                st[1] += dur - frame[1]
                st[2] += dur
                if stack:
                    stack[-1][1] += dur
                if record:
                    open_spans.pop()
                    spans[idx] = (name, frame[0], end, parent, tracer.job)
                if leave:
                    leave(token, args, result)
        return wrapper

    # -- hooks --------------------------------------------------------------

    def _cache_omega(self, fn):
        count, tracer = self.count, self

        def enter():
            tracer._in_cache = True
            return count["map_apps"]

        def leave(apps, args, result):
            tracer._in_cache = False
            if count["map_apps"] == apps:
                count["cache_hits"] += 1

        return self._span("flow.cache_omega", fn, record=False, enter=enter, leave=leave)

    def _omega(self, fn):
        inner = self._span("flow.omega", fn, record=False)
        tracer = self

        def wrapper(family, n, x):
            # an omega that FlowCache.omega delegates to is part of that call
            if tracer._in_cache:
                return fn(family, n, x)
            return inner(family, n, x)
        return wrapper

    def _hull(self, fn):
        count, stats = self.count, self.stats

        def enter():
            return stats.get("flow.cache_omega", [0])[0]

        def leave(omega_before, args, result):
            if result is None:
                return
            n = len(result.points)
            count["hull_points"] += n
            count["hull_kept"] += n - 1
            count["hull_omega"] += stats.get("flow.cache_omega", [0])[0] - omega_before
            count["hull_exhausted"] += bool(result.budget_exhausted)
            count["hull_max_points"] = max(count["hull_max_points"], n)
        return self._span("flow.hull_sample", fn, enter=enter, leave=leave)

    def _exact_hull(self, fn):
        count = self.count

        def leave(_, args, result):
            if result is not None:
                count["exact_hull_size"] += len(result.angles)
        return self._span("exact.hull", fn, leave=leave)

    def _displacement(self, fn):
        count = self.count

        def leave(_, args, result):
            count["prefix_len_max"] = max(count["prefix_len_max"], abs(args[1]))
        return self._span("exact.displacement", fn, record=False, leave=leave)

    def _angle_init(self, fn):
        """RationalAngle construction is where the denominator budget is checked."""
        count = self.count

        def wrapper(angle, value):
            fn(angle, value)
            bits = angle.value.denominator.bit_length()
            if bits > count["den_bits_max"]:
                count["den_bits_max"] = bits
        return wrapper

    def _checker(self, name, fn):
        tracer, count = self, self.count

        def enter():
            if tracer._checker_depth == 0:
                count["toplevel_checkers"] += 1
            tracer._checker_depth += 1

        def leave(_, args, result):
            tracer._checker_depth -= 1
        return self._span(f"checkers.{name}", fn, enter=enter, leave=leave)

    def _render(self, name, fn):
        count = self.count

        def leave(_, args, result):
            if isinstance(result, str):
                count["render_bytes"] += len(result.encode())
        return self._span(name, fn, leave=leave)

    # -- install ------------------------------------------------------------

    def _rebind(self, original, wrapper):
        for module in _naads_modules():
            for attr, value in list(vars(module).items()):
                if value is original:
                    setattr(module, attr, wrapper)
                    self._undo.append((module, attr, original))

    def _patch_method(self, cls, attr, make):
        original = cls.__dict__.get(attr)
        if original is None:
            return
        setattr(cls, attr, make(original))
        self._undo.append((cls, attr, original))

    def install(self):
        mods = sys.modules
        maps, space, flow = mods["naads.maps"], mods["naads.space"], mods["naads.flow"]
        exact, checkers = mods["naads.exact"], mods["naads.checkers"]
        report, corpus, cli = mods["naads.report"], mods["naads.corpus"], mods["naads.cli"]

        for cls in vars(maps).values():
            if isinstance(cls, type) and issubclass(cls, maps.Homeomorphism):
                for attr in ("forward", "inverse"):
                    self._patch_method(
                        cls, attr, lambda f, c=cls: self._leaf("maps." + c.__name__, f, is_map=True))
        self._rebind(space.metric, self._leaf("space.metric", space.metric))
        self._rebind(flow.omega, self._omega(flow.omega))
        self._patch_method(flow.FlowCache, "omega", self._cache_omega)
        self._rebind(flow.hull_sample, self._hull(flow.hull_sample))
        self._rebind(exact.exact_hull_displacements,
                     self._exact_hull(exact.exact_hull_displacements))
        self._rebind(exact.exact_periodicity,
                     self._span("exact.periodicity", exact.exact_periodicity))
        self._patch_method(exact.RationalRotationFamily, "displacement", self._displacement)
        self._patch_method(exact.RationalAngle, "__init__", self._angle_init)
        for name in CHECKERS:
            fn = getattr(checkers, name, None)
            if fn is not None:
                self._rebind(fn, self._checker(name, fn))
        for cls in (report.PropertyReport, report.ReturnTimeSet):
            self._patch_method(cls, "render",
                               lambda f, c=cls: self._render("report." + c.__name__, f))
        self._rebind(corpus.corpus, self._span("corpus.corpus", corpus.corpus))
        self._rebind(cli.main, self._span("cli.main", cli.main))

    def uninstall(self):
        for target, attr, original in reversed(self._undo):
            setattr(target, attr, original)
        self._undo.clear()

    # -- roll-up ------------------------------------------------------------

    def _sum(self, prefix, field):
        return sum(v[field] for k, v in self.stats.items() if k.startswith(prefix))

    def metrics(self, passes: int, overhead_frac: float, output_bytes: int) -> dict:
        """Per-layer metrics per traced pass over the job pool."""
        c, s = self.count, self.stats

        def calls(name):
            return s.get(name, [0])[0] / passes

        def self_s(name):
            return s.get(name, [0, 0.0])[1] / passes

        cache_calls = s.get("flow.cache_omega", [0])[0]
        out = {
            "maps.applications": c["map_apps"] / passes,
            "maps.self_s": self._sum("maps.", 1) / passes,
            "space.metric_calls": calls("space.metric"),
            "space.metric_self_s": self_s("space.metric"),
            "flow.omega_calls": calls("flow.cache_omega") + calls("flow.omega"),
            "flow.omega_self_s": self_s("flow.cache_omega") + self_s("flow.omega"),
            "flow.omega_hit_ratio": c["cache_hits"] / cache_calls if cache_calls else 0.0,
            "flow.hull_calls": calls("flow.hull_sample"),
            "flow.hull_self_s": self_s("flow.hull_sample"),
            "flow.hull_points": c["hull_points"] / passes,
            "flow.hull_keep_ratio": c["hull_kept"] / c["hull_omega"] if c["hull_omega"] else 0.0,
            "flow.hull_exhausted": c["hull_exhausted"] / passes,
            "flow.hull_cap_headroom_min": HULL_POINTS_CAP - c["hull_max_points"],
            "exact.hull_calls": calls("exact.hull"),
            "exact.hull_self_s": self_s("exact.hull"),
            "exact.hull_size": c["exact_hull_size"] / passes,
            "exact.periodicity_self_s": self_s("exact.periodicity"),
            "exact.displacement_calls": calls("exact.displacement"),
            "exact.displacement_self_s": self_s("exact.displacement"),
            "exact.prefix_len_max": c["prefix_len_max"],
            "exact.den_bits_max": c["den_bits_max"],
            "exact.den_bits_headroom": DENOMINATOR_BITS - c["den_bits_max"],
        }
        for name in CHECKERS:
            out[f"checkers.{name}.calls"] = calls(f"checkers.{name}")
            out[f"checkers.{name}.self_s"] = self_s(f"checkers.{name}")
        out.update({
            "report.render_calls": self._sum("report.", 0) / passes,
            "report.render_self_s": self._sum("report.", 1) / passes,
            "report.bytes": c["render_bytes"] / passes,
            "cli.self_s": self_s("cli.main"),
            # each job names one checker; top-level calls beyond it are re-runs
            "cli.checker_reruns": (c["toplevel_checkers"] - s.get("cli.main", [0])[0]) / passes,
            "cli.output_bytes": output_bytes / passes,
            "corpus.build_calls": calls("corpus.corpus"),
            "corpus.build_s": s.get("corpus.corpus", [0, 0.0, 0.0])[2] / passes,
            "trace.overhead_frac": overhead_frac,
        })
        return out

    def write_spans(self, path):
        with open(path, "w") as fh:
            for span in self.spans:
                name, start, end, parent, job = span
                fh.write(json.dumps({"name": name, "start": start, "end": end,
                                     "parent": parent, "job": job}) + "\n")
