"""Scenario-driven command line: load a family, run a checker, emit reports.

Subcommands:
    naads run <scenario.json>          run a scenario file
    naads corpus list                  list built-in families
    naads check <family> <task> [--param k=v ...]

Scenario files are JSON objects::

    {"family": "circle_ex4",
     "task": "minimality_certificate",
     "params": {"eps": "1/8", "order_cap": 9, "depth": 8},
     "expect": "Certified",
     "outputs": [{"kind": "report", "path": "out.txt"}]}

``family`` is a corpus name or an inline spec such as
{"kind": "rotations", "angles": ["1/2", "-1/4"]} (angles cycle) or
{"kind": "powers", "exponents": ["2", "1/2"]}.  Rational parameters are
accepted as "p/q" strings so exact tasks never pass through floats.

Exit codes: 0 verdict matches (or no expectation), 1 expectation mismatch,
2 inconclusive-at-budget / budget abort, 64 usage or schema errors.
"""

from __future__ import annotations

import argparse
import csv
import json
import sys
from datetime import datetime, timezone
from fractions import Fraction

from . import checkers
from .corpus import CORPUS_NAMES, corpus
from .errors import BudgetError, NaadsError, SchemaError
from .exact import RationalAngle, RationalRotationFamily
from .flow import FlowCache, MapFamily
from .maps import CircleRotation, PowerMap
from .report import PropertyReport, ReturnTimeSet, Verdict, format_value
from .space import Space

OUTPUT_KINDS = ("report", "orbit_csv", "return_raster", "modulus_curve")

EXIT_OK = 0
EXIT_MISMATCH = 1
EXIT_INCONCLUSIVE = 2
EXIT_USAGE = 64


def _parse_value(text):
    if isinstance(text, (int, float, bool)):
        return text
    s = str(text).strip()
    if s.lower() in ("true", "false"):
        return s.lower() == "true"
    if "/" in s:
        try:
            return Fraction(s)
        except ValueError:
            pass
        except ZeroDivisionError:
            raise SchemaError(f"zero denominator in {s!r}") from None
    try:
        return int(s)
    except ValueError:
        pass
    try:
        return float(s)
    except ValueError:
        pass
    if "," in s:
        return [_parse_value(part) for part in s.split(",")]
    return s


def _pt(v) -> float:
    try:
        x = float(Fraction(v)) if isinstance(v, str) else float(v)
    except (TypeError, ValueError, ArithmeticError):
        raise SchemaError(f"expected a number, got {v!r}") from None
    if x != x:
        raise SchemaError(f"expected a number, got {v!r}")
    return x


def _int(v) -> int:
    try:
        if int(v) == Fraction(v):
            return int(v)
    except (TypeError, ValueError, ArithmeticError):
        pass
    raise SchemaError(f"expected an integer, got {v!r}")


def _rat(v):
    """Keep exact rationals exact; floats pass through."""
    if isinstance(v, float):
        return v
    try:
        return Fraction(v)
    except (TypeError, ValueError, ArithmeticError):
        raise SchemaError(f"expected a number, got {v!r}") from None


def _radii(v):
    if isinstance(v, (list, tuple)):
        return tuple(_pt(e) for e in v)
    return (_pt(v),)


def _g(params, key, default=None, required=False):
    if key in params:
        return params[key]
    if required:
        raise SchemaError(f"missing required parameter {key!r}")
    return default


# Each adapter maps a public parameter record onto one checker call.
TASKS = {
    "periodicity_check": lambda f, p: checkers.periodicity_check(
        f, _pt(_g(p, "x", required=True)), _int(_g(p, "r", required=True)),
        _int(_g(p, "horizon", 25)), _pt(_g(p, "tol", checkers.FLOW_TOL))),
    "return_time_set": lambda f, p: checkers.return_time_set(
        f, _pt(_g(p, "x", required=True)), _pt(_g(p, "eps", required=True)),
        _int(_g(p, "N", required=True))),
    "almost_periodicity_report": lambda f, p: checkers.almost_periodicity_report(
        f, _pt(_g(p, "x", required=True)), _pt(_g(p, "eps", required=True)),
        _int(_g(p, "N", required=True))),
    "uniform_ap_report": lambda f, p: checkers.uniform_ap_report(
        f, _pt(_g(p, "eps", required=True)), _int(_g(p, "N", required=True)),
        _int(_g(p, "grid_size", 64))),
    "equicontinuity_modulus": lambda f, p: checkers.equicontinuity_modulus(
        f, _pt(_g(p, "eps", required=True)), _int(_g(p, "N", 50)),
        _int(_g(p, "pair_grid", 17))),
    "proximal_liminf": lambda f, p: checkers.proximal_liminf(
        f, _pt(_g(p, "x", required=True)), _pt(_g(p, "y", required=True)),
        _int(_g(p, "N", required=True))),
    "li_yorke_classify": lambda f, p: checkers.li_yorke_classify(
        f, _pt(_g(p, "x", required=True)), _pt(_g(p, "y", required=True)),
        _int(_g(p, "N", required=True)),
        _pt(_g(p, "low_tol", checkers.LI_YORKE_LOW_TOL)),
        _pt(_g(p, "high_tol", checkers.LI_YORKE_HIGH_TOL))),
    "sensitivity_at_point": lambda f, p: checkers.sensitivity_at_point(
        f, _pt(_g(p, "x", required=True)),
        None if _g(p, "delta") is None else _pt(p["delta"]),
        _radii(_g(p, "radii", (0.1, 0.01))), _int(_g(p, "samples", 16)),
        _int(_g(p, "N", 100))),
    "orbit_density": lambda f, p: checkers.orbit_density(
        f, _pt(_g(p, "x", required=True)), _pt(_g(p, "eps", required=True)),
        _int(_g(p, "N", required=True))),
    "transitivity_scan": lambda f, p: checkers.transitivity_scan(
        f, _pt(_g(p, "eps", required=True)), _int(_g(p, "N", required=True)),
        _int(_g(p, "grid", 16))),
    "r_transitivity_check": lambda f, p: checkers.r_transitivity_check(
        f, _int(_g(p, "r", required=True)), _pt(_g(p, "eps", 0.05)),
        _int(_g(p, "N", 120)), _int(_g(p, "grid", 16))),
    "minimality_certificate": lambda f, p: checkers.minimality_certificate(
        f, _rat(_g(p, "eps", required=True)), _int(_g(p, "order_cap", 6)),
        _int(_g(p, "depth", 8)), _int(_g(p, "grid", 16))),
    "hull_periodicity_property": lambda f, p: checkers.hull_periodicity_property(
        f, _pt(_g(p, "x", required=True)), _int(_g(p, "r", required=True)),
        _int(_g(p, "order_k", 8)), _int(_g(p, "depth", 6)),
        _int(_g(p, "horizon", 25)), _pt(_g(p, "tol", checkers.FLOW_TOL))),
    "ap_propagation_check": lambda f, p: checkers.ap_propagation_check(
        f, _pt(_g(p, "x", required=True)), _pt(_g(p, "eps", required=True)),
        _int(_g(p, "N", 40)), _int(_g(p, "order_k", 4)), _int(_g(p, "depth", 3))),
    "hull_closure_equality": lambda f, p: checkers.hull_closure_equality(
        f, _pt(_g(p, "x", required=True)), _pt(_g(p, "eps", required=True)),
        _int(_g(p, "N", 40)), _int(_g(p, "order_k", 4)), _int(_g(p, "depth", 3)),
        None if _g(p, "y") is None else _pt(p["y"])),
    "dichotomy_scan": lambda f, p: checkers.dichotomy_scan(
        f, _pt(_g(p, "eps", required=True)),
        None if _g(p, "delta") is None else _pt(p["delta"]),
        _int(_g(p, "grid", 8)), _int(_g(p, "order_k", 3)),
        _int(_g(p, "depth", 2)), _int(_g(p, "N", 50))),
}


def _inline_family(spec: dict) -> MapFamily:
    kind = spec.get("kind")
    name = spec.get("name", f"inline_{kind}")
    if kind == "rotations":
        angles = [Fraction(a) for a in spec.get("angles", [])]
        if not angles:
            raise SchemaError("inline rotations need a non-empty 'angles' list")
        exact = RationalRotationFamily(
            lambda n: RationalAngle(angles[(n - 1) % len(angles)]), name
        )
        return MapFamily(
            space=Space.CIRCLE,
            rule=lambda n: CircleRotation(angles[(n - 1) % len(angles)]),
            name=name,
            declared_commutative=True,
            declared_isometric=True,
            exact=exact,
        )
    if kind == "powers":
        exps = [Fraction(e) for e in spec.get("exponents", [])]
        if not exps:
            raise SchemaError("inline powers need a non-empty 'exponents' list")
        return MapFamily(
            space=Space.UNIT_INTERVAL,
            rule=lambda n: PowerMap(exps[(n - 1) % len(exps)]),
            name=name,
            declared_commutative=True,
        )
    raise SchemaError(f"unknown inline family kind {spec.get('kind')!r}")


def _load_family(spec) -> MapFamily:
    if isinstance(spec, str):
        return corpus(spec).family
    if isinstance(spec, dict):
        return _inline_family(spec)
    raise SchemaError("'family' must be a corpus name or an inline spec object")


def _render_result(result, family, task, timestamp):
    ts = datetime.now(timezone.utc).isoformat() if timestamp else None
    if isinstance(result, (PropertyReport, ReturnTimeSet)):
        header = f"family: {family.name}\ntask: {task}\n"
        return header + result.render(timestamp=ts)
    if isinstance(result, checkers.ProximalExtremes):
        lines = ["schema: naads-proximal/1"]
        if ts is not None:
            lines.append(f"timestamp: {ts}")
        lines.append(f"family: {family.name}")
        lines.append(f"task: {task}")
        lines.append(f"min_distance: {format_value(result.min_distance)}")
        lines.append(f"argmin_time: {result.argmin_time}")
        lines.append(f"max_distance: {format_value(result.max_distance)}")
        lines.append(f"argmax_time: {result.argmax_time}")
        return "\n".join(lines) + "\n"
    raise TypeError(f"cannot render {type(result)!r}")


def _task_result(name, task, result, family, params):
    """Checker ``name``'s result: the task's own when the task is ``name``."""
    return result if task == name else TASKS[name](family, params)


def _write_outputs(outputs, rendered, family, task, params, result):
    for out in outputs:
        kind = out.get("kind")
        path = out.get("path")
        if kind not in OUTPUT_KINDS or not path:
            raise SchemaError(f"bad output entry {out!r}")
        if kind == "report":
            with open(path, "w") as fh:
                fh.write(rendered)
            continue
        if kind == "orbit_csv":
            x = _pt(_g(params, "x", required=True))
            n = _int(_g(params, "N", required=True))
            window = FlowCache(family).window(x, n)
            with open(path, "w", newline="") as fh:
                writer = csv.writer(fh)
                writer.writerow(["n", "x"])
                for t, y in zip(range(-n, n + 1), window):
                    writer.writerow([t, repr(y)])
            continue
        if kind == "return_raster":
            rts = _task_result("return_time_set", task, result, family, params)
            returns = set(rts.times)
            with open(path, "w", newline="") as fh:
                writer = csv.writer(fh)
                writer.writerow(["n", "is_return"])
                for t in range(-rts.window_n, rts.window_n + 1):
                    writer.writerow([t, 1 if t in returns else 0])
            continue
        # modulus_curve
        rep = _task_result("equicontinuity_modulus", task, result, family, params)
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["N", "delta"])
            for w, delta in rep.details["trend"]:
                writer.writerow([w, repr(delta)])


def _exit_code(result, expect: str | None) -> int:
    if not isinstance(result, PropertyReport):
        if expect is not None:
            raise SchemaError("'expect' is only valid for verdict-producing tasks")
        return EXIT_OK
    if expect is not None:
        try:
            expected = Verdict(expect)
        except ValueError:
            raise SchemaError(f"unknown expected verdict {expect!r}") from None
        if result.verdict is expected:
            return EXIT_OK
        if result.verdict is Verdict.INCONCLUSIVE_BUDGET:
            return EXIT_INCONCLUSIVE
        return EXIT_MISMATCH
    if result.verdict is Verdict.INCONCLUSIVE_BUDGET:
        return EXIT_INCONCLUSIVE
    return EXIT_OK


def run_scenario(path: str, timestamp: bool = True) -> int:
    """Execute one scenario file; returns the process exit code."""
    try:
        with open(path) as fh:
            scenario = json.load(fh)
    except (OSError, ValueError) as exc:
        print(f"error: cannot read scenario: {exc}", file=sys.stderr)
        return EXIT_USAGE
    return _run_guarded(scenario, timestamp)


def _run_guarded(scenario, timestamp: bool) -> int:
    """Run a scenario; budget errors exit 2, bad input (any ValueError) 64."""
    try:
        return _run_scenario_dict(scenario, timestamp)
    except BudgetError as exc:
        print(f"error: budget exceeded: {exc}", file=sys.stderr)
        return EXIT_INCONCLUSIVE
    except (NaadsError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


def _run_scenario_dict(scenario: dict, timestamp: bool) -> int:
    if not isinstance(scenario, dict):
        raise SchemaError("scenario must be a JSON object")
    unknown = set(scenario) - {"family", "task", "params", "expect", "outputs", "name"}
    if unknown:
        raise SchemaError(f"unknown scenario keys: {sorted(unknown)}")
    if "family" not in scenario or "task" not in scenario:
        raise SchemaError("scenario needs 'family' and 'task'")
    task = scenario["task"]
    if task not in TASKS:
        raise SchemaError(
            f"unknown task {task!r}; known: {', '.join(sorted(TASKS))}"
        )
    params = scenario.get("params", {})
    if not isinstance(params, dict):
        raise SchemaError("'params' must be an object")
    params = {k: _parse_value(v) for k, v in params.items()}
    outputs = scenario.get("outputs", [])
    if not isinstance(outputs, list):
        raise SchemaError("'outputs' must be a list")
    for out in outputs:
        if not isinstance(out, dict) or out.get("kind") not in OUTPUT_KINDS:
            raise SchemaError(f"bad output entry {out!r}")

    family = _load_family(scenario["family"])
    result = TASKS[task](family, params)
    rendered = _render_result(result, family, task, timestamp)
    _write_outputs(outputs, rendered, family, task, params, result)
    if not any(out.get("kind") == "report" for out in outputs):
        sys.stdout.write(rendered)
    else:
        if isinstance(result, PropertyReport):
            print(f"verdict: {result.verdict.value}")
    return _exit_code(result, scenario.get("expect"))


def list_corpus() -> str:
    lines = []
    for name in CORPUS_NAMES:
        lines.append(f"{name}\t{corpus(name).description}")
    return "\n".join(lines) + "\n"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="naads",
        description="Finite-scale property lab for non-autonomous interval "
        "and circle dynamics",
    )
    parser.add_argument(
        "--no-timestamp",
        action="store_true",
        help="omit the timestamp field so reports are byte-reproducible",
    )
    parser.add_argument(
        "--seed",
        type=int,
        default=None,
        help="accepted and ignored: all sampling is a fixed low-discrepancy "
        "scheme, and the seed is not written to the report",
    )
    sub = parser.add_subparsers(dest="command")

    p_run = sub.add_parser("run", help="run a scenario file")
    p_run.add_argument("scenario")

    p_corpus = sub.add_parser("corpus", help="corpus utilities")
    p_corpus.add_argument("action", choices=["list"])

    p_check = sub.add_parser("check", help="run one checker directly")
    p_check.add_argument("family")
    p_check.add_argument("task")
    p_check.add_argument(
        "--param", action="append", default=[], metavar="KEY=VALUE"
    )
    p_check.add_argument("--expect", default=None)

    args = parser.parse_args(argv)
    if args.command is None:
        parser.print_usage(sys.stderr)
        return EXIT_USAGE

    if args.command == "run":
        return run_scenario(args.scenario, timestamp=not args.no_timestamp)

    if args.command == "corpus":
        sys.stdout.write(list_corpus())
        return EXIT_OK

    # check
    params = {}
    for item in args.param:
        if "=" not in item:
            print(f"error: bad --param {item!r}, expected KEY=VALUE", file=sys.stderr)
            return EXIT_USAGE
        key, _, value = item.partition("=")
        params[key] = value
    scenario = {"family": args.family, "task": args.task, "params": params}
    if args.expect is not None:
        scenario["expect"] = args.expect
    return _run_guarded(scenario, timestamp=not args.no_timestamp)


if __name__ == "__main__":
    sys.exit(main())
