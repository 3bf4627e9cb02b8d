"""Scenario-driven command line: load a family, run a checker, emit reports.

Command lines, read directly against these three forms:
    naads [--no-timestamp] run SCENARIO      run a scenario file
    naads [--no-timestamp] corpus list       list built-in families
    naads [--no-timestamp] check FAMILY TASK [--param KEY=VALUE]... [--expect VERDICT]

``-h`` or ``--help`` anywhere prints ``USAGE`` to stdout and exits 0.
``--no-timestamp`` (which may repeat) stands before the command.  ``--param``
and ``--expect`` may stand before, between or after FAMILY and TASK, with the
value as the next argument (not starting with ``-``) or joined by ``=``
(``--param=x=0.3``); ``--param`` repeats and the last ``--expect`` wins.
Options are spelled in full, so ``--no-time`` is an unknown option.  Any
other command line prints ``USAGE`` and one ``naads: error:`` line to stderr
and exits 64.

Scenario files are JSON objects::

    {"family": "circle_ex4",
     "task": "minimality_certificate",
     "params": {"eps": "1/8", "order_cap": 9, "depth": 8},
     "expect": "Certified",
     "outputs": [{"kind": "report", "path": "out.txt"}]}

``family`` is a corpus name or an inline spec such as
{"kind": "rotations", "angles": ["1/2", "-1/4"]} (angles cycle) or
{"kind": "powers", "exponents": ["2", "1/2"]}.  A parameter value, JSON or
command-line text, is converted once, by its public parameter name:
text spells an int, a float or a "p/q" rational, which exact tasks keep
exact; only ``radii`` takes a list, a JSON one or comma-separated text.

Each task is the checker of that name.  Its parameter names, required
parameters and defaults are the checker's, as checkers._records_call read
them from its signature, with ``N`` for ``n_max``.  A task takes an
``expect`` only if its checker returns a PropertyReport.  A task accepts its
checker's parameters and the ones its requested outputs read, and nothing
else.  A report's ``param.*`` lines are the checker's call record under the
same public names: every checker parameter, passed or defaulted, and the
family.

Exit codes: 0 verdict matches (or no expectation), 1 expectation mismatch,
2 inconclusive-at-budget / budget abort, 64 usage or schema errors
(including an unknown parameter key or command-line option).
"""

from __future__ import annotations

import csv
import json
import sys
from datetime import datetime, timezone
from fractions import Fraction

from . import checkers
from .corpus import CORPUS_NAMES, corpus, rotation_family
from .errors import BudgetError, NaadsError, SchemaError
from .flow import FlowCache, MapFamily
from .maps import PowerMap
from .report import PropertyReport, Verdict
from .space import Space

EXIT_OK = 0
EXIT_MISMATCH = 1
EXIT_INCONCLUSIVE = 2
EXIT_USAGE = 64

USAGE = """\
usage: naads [-h] [--no-timestamp] run SCENARIO
       naads [-h] [--no-timestamp] corpus list
       naads [-h] [--no-timestamp] check FAMILY TASK [--param KEY=VALUE]... [--expect VERDICT]

  -h, --help         print this help and exit
  --no-timestamp     omit the report timestamp, for byte-identical reruns
  --param KEY=VALUE  a task parameter, repeatable; also --param=KEY=VALUE
  --expect VERDICT   the expected verdict, the last one wins; also --expect=VERDICT
Options are spelled in full; --param and --expect may stand anywhere after check.
"""

# The operands each command takes, as USAGE names them.
_OPERANDS = {"run": ("SCENARIO",), "corpus": ("list",), "check": ("FAMILY", "TASK")}


def _number(v):
    """Text as the int, float or p/q Fraction it spells, else stripped; a JSON value as is."""
    if not isinstance(v, str):
        return v
    s = v.strip()
    for parse in (int, float, Fraction):
        try:
            return parse(s)
        except ValueError:
            pass
        except ZeroDivisionError:
            raise SchemaError(f"zero denominator in {s!r}") from None
    return s


def _pt(v) -> float:
    v = _number(v)
    if isinstance(v, bool):  # no checker parameter is boolean
        raise SchemaError(f"expected a number, got {v!r}")
    try:
        x = float(v)
    except (TypeError, ValueError, ArithmeticError):
        raise SchemaError(f"expected a number, got {v!r}") from None
    if x != x:
        raise SchemaError(f"expected a number, got {v!r}")
    return x


def _int(v) -> int:
    v = _number(v)
    try:
        if not isinstance(v, bool) and int(v) == Fraction(v):
            return int(v)
    except (TypeError, ValueError, ArithmeticError):
        pass
    raise SchemaError(f"expected an integer, got {v!r}")


def _rat(v):
    """Keep exact rationals exact; floats pass through."""
    v = _number(v)
    if isinstance(v, float):
        return v
    if isinstance(v, bool):
        raise SchemaError(f"expected a number, got {v!r}")
    try:
        return Fraction(v)
    except (TypeError, ValueError, ArithmeticError):
        raise SchemaError(f"expected a number, got {v!r}") from None


def _radii(v):
    """A JSON list, or comma-separated text, of radii; or one radius."""
    if isinstance(v, str):
        v = v.split(",")
    return tuple(map(_pt, v)) if isinstance(v, (list, tuple)) else (_pt(v),)


def _g(params, key):
    if key not in params:
        raise SchemaError(f"missing required parameter {key!r}")
    return params[key]


# Coercion of a parameter value, by public name (the key space of checkers._RULES).
_COERCE = {
    **dict.fromkeys(("x", "y", "eps", "delta", "tol", "low_tol", "high_tol"), _pt),
    **dict.fromkeys(("r", "N", "horizon", "grid", "grid_size", "pair_grid",
                     "samples", "order_cap", "order_k", "depth"), _int),
    "radii": _radii,
}
# minimality_certificate decides its cover in exact arithmetic
_EXACT_PARAMS = {("minimality_certificate", "eps"): _rat}

# Each task is the checker of that name, kept here for the signature metadata
# checkers._records_call leaves on it: params, arg_of, defaults, gives_verdict.
TASKS = {name: getattr(checkers, name) for name in (
    "periodicity_check", "return_time_set", "almost_periodicity_report",
    "uniform_ap_report", "equicontinuity_modulus", "proximal_liminf",
    "li_yorke_classify", "sensitivity_at_point", "orbit_density",
    "transitivity_scan", "r_transitivity_check", "minimality_certificate",
    "hull_periodicity_property", "ap_propagation_check",
    "hull_closure_equality", "dichotomy_scan",
)}


def _call(task, family, params):
    """Checker ``task`` on public ``params``: each passed or required one coerced.

    It is looked up at call time: a wrapper put on ``checkers.<task>`` is honoured.
    """
    spec = TASKS[task]
    kwargs = {
        spec.arg_of[key]: (_EXACT_PARAMS.get((task, key)) or _COERCE[key])(_g(params, key))
        for key in spec.params if key in params or key not in spec.defaults
    }
    return getattr(checkers, task)(family, **kwargs)


# The parameters each output kind reads beside the task's own.
_OUTPUT_PARAMS = {
    "report": (),
    "orbit_csv": ("x", "N"),
    "return_raster": TASKS["return_time_set"].params,
    "modulus_curve": TASKS["equicontinuity_modulus"].params,
}
OUTPUT_KINDS = tuple(_OUTPUT_PARAMS)


def _inline_family(spec: dict) -> MapFamily:
    kind = spec.get("kind")
    name = spec.get("name", f"inline_{kind}")
    if not isinstance(name, str):
        raise SchemaError(f"inline family 'name' must be a string, got {name!r}")
    if kind == "rotations":
        steps = [(Fraction(a) % 1).as_integer_ratio() for a in spec.get("angles", [])]
        if not steps:
            raise SchemaError("inline rotations need a non-empty 'angles' list")
        return rotation_family(name, lambda n: steps[(n - 1) % len(steps)])
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
    return result.render(ts, head=(("family", family.name), ("task", task)))


def _task_result(name, task, result, family, params):
    """Checker ``name``'s result: the task's own when the task is ``name``."""
    return result if task == name else _call(name, family, params)


def _write_outputs(outputs, rendered, family, task, params, result):
    for out in outputs:  # each a checked entry: a known kind and a path
        kind, path = out["kind"], out["path"]
        if kind == "report":
            with open(path, "w") as fh:
                fh.write(rendered)
            continue
        if kind == "orbit_csv":
            x, n = _pt(_g(params, "x")), _int(_g(params, "N"))
            window = FlowCache(family).window(x, n)
            header, rows = ["n", "x"], zip(range(-n, n + 1), map(repr, window))
        elif kind == "return_raster":
            rts = _task_result("return_time_set", task, result, family, params)
            returns = set(rts.times)
            header = ["n", "is_return"]
            rows = ((t, int(t in returns)) for t in range(-rts.window_n, rts.window_n + 1))
        else:  # modulus_curve
            rep = _task_result("equicontinuity_modulus", task, result, family, params)
            header, rows = ["N", "delta"], ((w, repr(d)) for w, d in rep.details["trend"])
        with open(path, "w", newline="") as fh:  # opened last: an error leaves no file
            writer = csv.writer(fh)
            writer.writerow(header)
            writer.writerows(rows)


def _exit_code(result, expected: Verdict | None) -> int:
    if not isinstance(result, PropertyReport):
        return EXIT_OK
    if result.verdict is Verdict.INCONCLUSIVE_BUDGET and expected is not result.verdict:
        return EXIT_INCONCLUSIVE
    return EXIT_OK if expected in (None, result.verdict) else EXIT_MISMATCH


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
    outputs = scenario.get("outputs", [])
    if not isinstance(outputs, list):
        raise SchemaError("'outputs' must be a list")
    for out in outputs:
        if not (isinstance(out, dict) and out.get("kind") in OUTPUT_KINDS
                and isinstance(out.get("path"), str) and out["path"]):
            raise SchemaError(f"bad output entry {out!r}")
    known = set(TASKS[task].params).union(
        *(_OUTPUT_PARAMS[out["kind"]] for out in outputs))
    if not known.issuperset(params):
        raise SchemaError(f"unknown parameters {sorted(set(params) - known)} "
                          f"for {task}; known: {', '.join(sorted(known))}")

    expected = scenario.get("expect")
    if expected is not None:  # before the run, which a bad value would waste
        try:
            expected = Verdict(expected)
        except ValueError:
            raise SchemaError(f"unknown expected verdict {expected!r}") from None
        if not TASKS[task].gives_verdict:
            raise SchemaError("'expect' is only valid for verdict-producing tasks")
    family = _load_family(scenario["family"])
    result = _call(task, family, params)
    rendered = _render_result(result, family, task, timestamp)
    _write_outputs(outputs, rendered, family, task, params, result)
    if not any(out.get("kind") == "report" for out in outputs):
        sys.stdout.write(rendered)
    else:
        if isinstance(result, PropertyReport):
            print(f"verdict: {result.verdict.value}")
    return _exit_code(result, expected)


def list_corpus() -> str:
    lines = []
    for name in CORPUS_NAMES:
        lines.append(f"{name}\t{corpus(name).description}")
    return "\n".join(lines) + "\n"


class _UsageError(Exception):
    """A command line outside the grammar in USAGE."""


def _parse(args):
    """``(timestamp, command, operands, params, expect)`` of a command line.

    The grammar is the module docstring's; anything else raises _UsageError.
    """
    timestamp, command = True, None
    operands, params, expect = [], {}, None
    rest = iter(args)
    for arg in rest:
        if command is None:
            if arg == "--no-timestamp":
                timestamp = False
            elif arg in _OPERANDS:
                command = arg
            elif arg.startswith("-"):
                raise _UsageError(f"unrecognized option {arg!r}")
            else:
                raise _UsageError(f"unknown command {arg!r}; expected run, corpus or check")
            continue
        if not arg.startswith("-") or arg == "-":
            operands.append(arg)
            continue
        name, eq, value = arg.partition("=")
        if command != "check" or name not in ("--param", "--expect"):
            raise _UsageError(f"unrecognized option {arg!r} for {command}")
        if not eq:
            value = next(rest, "-")
            if value.startswith("-"):
                raise _UsageError(f"option {name} expects a value")
        if name == "--expect":
            expect = value
            continue
        key, eq, value = value.partition("=")
        if not eq:
            raise _UsageError(f"bad --param {key!r}, expected KEY=VALUE")
        params[key] = value
    if command is None:
        raise _UsageError("missing command: run, corpus or check")
    arity = _OPERANDS[command]
    if len(operands) != len(arity) or (command == "corpus" and operands != ["list"]):
        raise _UsageError(f"{command} takes {' '.join(arity)}, got {operands}")
    return timestamp, command, operands, params, expect


def main(argv=None) -> int:
    args = sys.argv[1:] if argv is None else argv
    if "-h" in args or "--help" in args:
        sys.stdout.write(USAGE)
        return EXIT_OK
    try:
        timestamp, command, operands, params, expect = _parse(args)
    except _UsageError as exc:
        sys.stderr.write(f"{USAGE}naads: error: {exc}\n")
        return EXIT_USAGE
    if command == "run":
        return run_scenario(operands[0], timestamp=timestamp)
    if command == "corpus":
        sys.stdout.write(list_corpus())
        return EXIT_OK
    family, task = operands
    scenario = {"family": family, "task": task, "params": params}
    if expect is not None:
        scenario["expect"] = expect
    return _run_guarded(scenario, timestamp=timestamp)


if __name__ == "__main__":
    sys.exit(main())
