"""Scenario runner: schema validation, outputs, exit codes, determinism."""

import argparse
import contextlib
import csv
import io
import json
import math
import re
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from naads import (
    CORPUS_NAMES,
    DomainError,
    MapFamily,
    NaadsError,
    PropertyReport,
    checkers,
    cli,
    corpus,
    format_value,
)
from naads.cli import (
    EXIT_INCONCLUSIVE,
    EXIT_MISMATCH,
    EXIT_OK,
    EXIT_USAGE,
    TASKS,
    _render_result,
    main,
)


def _scenario(tmp_path, payload, name="scenario.json"):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return str(path)


class TestRun:
    def test_certified_expectation(self, tmp_path, capsys):
        path = _scenario(tmp_path, {
            "family": "circle_ex4",
            "task": "minimality_certificate",
            "params": {"eps": "1/8", "order_cap": 9, "depth": 8},
            "expect": "Certified",
        })
        assert main(["--no-timestamp", "run", path]) == EXIT_OK
        out = capsys.readouterr().out
        assert "verdict: Certified" in out
        assert "param.eps: 1/8" in out

    def test_expectation_mismatch(self, tmp_path):
        path = _scenario(tmp_path, {
            "family": "circle_settling",
            "task": "periodicity_check",
            "params": {"x": 0.3, "r": 2},
            "expect": "Certified",
        })
        assert main(["--no-timestamp", "run", path]) == EXIT_MISMATCH

    def test_report_output_file(self, tmp_path, capsys):
        out_file = tmp_path / "report.txt"
        path = _scenario(tmp_path, {
            "family": "circle_harmonic",
            "task": "periodicity_check",
            "params": {"x": 0.1, "r": 2},
            "outputs": [{"kind": "report", "path": str(out_file)}],
        })
        assert main(["--no-timestamp", "run", path]) == EXIT_OK
        text = out_file.read_text()
        assert text.startswith("family: circle_harmonic\ntask: periodicity_check\n")
        assert "schema: naads-report/1" in text
        assert "timestamp:" not in text

    def test_timestamp_present_by_default(self, tmp_path):
        out_file = tmp_path / "report.txt"
        path = _scenario(tmp_path, {
            "family": "circle_harmonic",
            "task": "periodicity_check",
            "params": {"x": 0.1, "r": 2},
            "outputs": [{"kind": "report", "path": str(out_file)}],
        })
        assert main(["run", path]) == EXIT_OK
        assert "timestamp:" in out_file.read_text()

    def test_orbit_csv(self, tmp_path):
        out_file = tmp_path / "orbit.csv"
        path = _scenario(tmp_path, {
            "family": "example2_powers",
            "task": "return_time_set",
            "params": {"x": 0.5, "eps": 0.1, "N": 5},
            "outputs": [{"kind": "orbit_csv", "path": str(out_file)}],
        })
        assert main(["--no-timestamp", "run", path]) == EXIT_OK
        with open(out_file) as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["n", "x"]
        assert len(rows) == 12
        assert rows[1][0] == "-5"
        assert rows[6] == ["0", "0.5"]

    def test_return_raster(self, tmp_path):
        out_file = tmp_path / "raster.csv"
        path = _scenario(tmp_path, {
            "family": "circle_settling",
            "task": "return_time_set",
            "params": {"x": 0, "eps": 0.3, "N": 20},
            "outputs": [{"kind": "return_raster", "path": str(out_file)}],
        })
        assert main(["--no-timestamp", "run", path]) == EXIT_OK
        with open(out_file) as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["n", "is_return"]
        marked = {int(n) for n, flag in rows[1:] if flag == "1"}
        assert marked == {-3, -2, 0, 2, 3}

    def test_modulus_curve(self, tmp_path):
        out_file = tmp_path / "modulus.csv"
        path = _scenario(tmp_path, {
            "family": "circle_harmonic",
            "task": "equicontinuity_modulus",
            "params": {"eps": 0.1, "N": 10},
            "outputs": [{"kind": "modulus_curve", "path": str(out_file)}],
        })
        assert main(["--no-timestamp", "run", path]) == EXIT_OK
        with open(out_file) as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["N", "delta"]
        assert [r[0] for r in rows[1:]] == ["10", "20", "40"]
        assert all(r[1] == "0.1" for r in rows[1:])

    def test_inline_rotation_family(self, tmp_path, capsys):
        path = _scenario(tmp_path, {
            "family": {"kind": "rotations", "angles": ["1/2"], "name": "half"},
            "task": "periodicity_check",
            "params": {"x": 0.2, "r": 2},
            "expect": "Certified",
        })
        assert main(["--no-timestamp", "run", path]) == EXIT_OK
        assert "family: half" in capsys.readouterr().out

    def test_inline_power_family(self, tmp_path):
        path = _scenario(tmp_path, {
            "family": {"kind": "powers", "exponents": ["2", "1/2"]},
            "task": "periodicity_check",
            "params": {"x": 0.3, "r": 2},
            "expect": "EvidenceFor",
        })
        assert main(["--no-timestamp", "run", path]) == EXIT_OK

    def test_json_list_for_tuple_parameter(self, tmp_path, capsys):
        path = _scenario(tmp_path, {
            "family": "identity", "task": "sensitivity_at_point",
            "params": {"x": 0.3, "radii": [0.1, "1/100"], "N": 5},
        })
        assert main(["--no-timestamp", "run", path]) == EXIT_OK
        assert "param.radii: [0.1, 0.01]\n" in capsys.readouterr().out

    def test_budget_abort_exit_code(self, tmp_path):
        # block size pushes the blocked horizon below the scan window
        path = _scenario(tmp_path, {
            "family": {"kind": "rotations", "angles": ["1/3"]},
            "task": "r_transitivity_check",
            "params": {"r": 20000, "N": 120},
        })
        assert main(["--no-timestamp", "run", path]) == EXIT_INCONCLUSIVE


class TestSchemaErrors:
    def test_missing_file(self, tmp_path):
        assert main(["run", str(tmp_path / "nope.json")]) == EXIT_USAGE

    def test_invalid_json(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        assert main(["run", str(path)]) == EXIT_USAGE

    def test_unknown_task(self, tmp_path):
        path = _scenario(tmp_path, {"family": "identity", "task": "frobnicate"})
        assert main(["run", path]) == EXIT_USAGE

    def test_unknown_family(self, tmp_path):
        path = _scenario(tmp_path, {
            "family": "nope", "task": "periodicity_check",
            "params": {"x": 0, "r": 1},
        })
        assert main(["run", path]) == EXIT_USAGE

    def test_unknown_keys_rejected(self, tmp_path):
        path = _scenario(tmp_path, {
            "family": "identity", "task": "periodicity_check",
            "params": {"x": 0, "r": 1}, "bogus": 1,
        })
        assert main(["run", path]) == EXIT_USAGE

    def test_missing_required_param(self, tmp_path):
        path = _scenario(tmp_path, {
            "family": "identity", "task": "periodicity_check", "params": {"x": 0},
        })
        assert main(["run", path]) == EXIT_USAGE

    def test_bad_output_kind(self, tmp_path):
        path = _scenario(tmp_path, {
            "family": "identity", "task": "periodicity_check",
            "params": {"x": 0, "r": 1},
            "outputs": [{"kind": "hologram", "path": "x"}],
        })
        assert main(["run", path]) == EXIT_USAGE

    def test_expect_on_non_verdict_task(self, tmp_path):
        path = _scenario(tmp_path, {
            "family": "identity", "task": "return_time_set",
            "params": {"x": 0, "eps": 0.1, "N": 5}, "expect": "Certified",
        })
        assert main(["run", path]) == EXIT_USAGE

    @pytest.mark.parametrize("task, params", [
        # at N=100000 the run itself would exit 2, on the denominator budget
        ("return_time_set", {"x": 0.3, "eps": 0.1, "N": 100000}),
        ("proximal_liminf", {"x": 0.3, "y": 0.5, "N": 10}),
    ])
    def test_expect_on_non_verdict_task_exits_before_the_run(
            self, tmp_path, capsys, monkeypatch, task, params):
        def fail(*args, **kwargs):
            pytest.fail("the family was built or the checker ran")

        monkeypatch.setattr(checkers, task, fail)
        monkeypatch.setattr(cli, "_load_family", fail)
        path = _scenario(tmp_path, {
            "family": "circle_ex4", "task": task, "params": params, "expect": "Certified",
        })
        assert main(["--no-timestamp", "run", path]) == EXIT_USAGE
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: 'expect' is only valid for verdict-producing tasks\n"

    @pytest.mark.parametrize("params", [
        {"x": [0.3], "N": 5},
        {"x": 0.3, "N": [5]},
        {"x": 0.3, "radii": [[0.1]], "N": 5},
        {"x": 0.3, "radii": [0.1, "abc"], "N": 5},
    ])
    def test_bad_json_list_is_usage_error(self, tmp_path, capsys, params):
        path = _scenario(tmp_path, {
            "family": "identity", "task": "sensitivity_at_point", "params": params,
        })
        assert main(["run", path]) == EXIT_USAGE
        assert "Traceback" not in capsys.readouterr().err

    @pytest.mark.parametrize("name", [True, 7, None, ["a"], {"a": 1}])
    def test_inline_family_name_must_be_a_string(self, tmp_path, capsys, name):
        path = _scenario(tmp_path, {
            "family": {"kind": "rotations", "angles": ["1/2"], "name": name},
            "task": "periodicity_check", "params": {"x": 0.2, "r": 2},
        })
        assert main(["--no-timestamp", "run", path]) == EXIT_USAGE
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "'name' must be a string" in captured.err

    _TASK = {"task": "periodicity_check", "params": {"x": 0.2, "r": 2}}

    @pytest.mark.parametrize("scenario, message", [
        ([1, 2], "scenario must be a JSON object"),
        ({"task": "periodicity_check"}, "scenario needs 'family' and 'task'"),
        ({"family": "identity", "task": "periodicity_check", "params": [0.2, 2]},
         "'params' must be an object"),
        ({"family": "identity", **_TASK, "outputs": {"kind": "report"}},
         "'outputs' must be a list"),
        ({"family": {"kind": "rotations", "angles": []}, **_TASK},
         "inline rotations need a non-empty 'angles' list"),
        ({"family": {"kind": "powers"}, **_TASK},
         "inline powers need a non-empty 'exponents' list"),
        ({"family": {"kind": "cubes"}, **_TASK}, "unknown inline family kind 'cubes'"),
        ({"family": 7, **_TASK},
         "'family' must be a corpus name or an inline spec object"),
    ], ids=["not-object", "no-family", "params", "outputs", "angles", "exponents",
            "kind", "family-type"])
    def test_schema_error(self, tmp_path, capsys, scenario, message):
        assert cli.run_scenario(_scenario(tmp_path, scenario)) == EXIT_USAGE
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: {message}\n"

    def test_unknown_expected_verdict(self, tmp_path):
        path = _scenario(tmp_path, {
            "family": "identity", "task": "periodicity_check",
            "params": {"x": 0, "r": 1}, "expect": "Probably",
        })
        assert main(["run", path]) == EXIT_USAGE

    @pytest.mark.parametrize("entry", [
        {"expect": "Bogus"},
        {"expect": ["Certified"]},
        {"outputs": [{"kind": "report"}]},
        {"outputs": [{"kind": "orbit_csv", "path": ""}]},
        {"outputs": [{"kind": "report", "path": True}]},
    ], ids=["verdict", "verdict-list", "no-path", "empty-path", "bool-path"])
    def test_bad_entry_exits_before_the_run(self, tmp_path, capsys, monkeypatch, entry):
        def checker(*args, **kwargs):
            pytest.fail("the checker ran")

        monkeypatch.setattr(checkers, "periodicity_check", checker)
        path = _scenario(tmp_path, {
            "family": "circle_harmonic", "task": "periodicity_check",
            "params": {"x": 0.3, "r": 2}, **entry,
        })
        assert main(["--no-timestamp", "run", path]) == EXIT_USAGE
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err.startswith("error: ")

    _NOT_NUMBERS = "must be numbers or numeric strings"

    @pytest.mark.parametrize("family, message", [
        ({"kind": "powers", "exponents": ["1e400"]},
         "exponent near 2**1328 or its inverse overflows a float"),
        ({"kind": "powers", "exponents": ["1e-400"]},
         "exponent near 2**-1328 or its inverse overflows a float"),
        ({"kind": "powers", "exponents": ["5e-324"]},
         "exponent near 2**-1073 or its inverse overflows a float"),
        ({"kind": "powers", "exponents": [None]}, f"inline powers 'exponents' {_NOT_NUMBERS}"),
        ({"kind": "powers", "exponents": [[]]}, f"inline powers 'exponents' {_NOT_NUMBERS}"),
        ({"kind": "rotations", "angles": [None]}, f"inline rotations 'angles' {_NOT_NUMBERS}"),
        ({"kind": "powers", "exponents": 2},
         "inline powers need a non-empty 'exponents' list"),
        ({"kind": "rotations", "angles": [math.inf]},
         f"inline rotations 'angles' {_NOT_NUMBERS}"),
        # a string in place of the list, and a boolean value, used to run
        ({"kind": "powers", "exponents": "2"},
         "inline powers need a non-empty 'exponents' list"),
        ({"kind": "rotations", "angles": "1/3"},
         "inline rotations need a non-empty 'angles' list"),
        ({"kind": "powers", "exponents": [True]}, f"inline powers 'exponents' {_NOT_NUMBERS}"),
        ({"kind": "rotations", "angles": ["1/2", False]},
         f"inline rotations 'angles' {_NOT_NUMBERS}"),
    ], ids=["exp-1e400", "exp-1e-400", "exp-5e-324", "exp-null", "exp-nested", "angle-null",
            "exp-int", "angle-inf", "exp-string", "angle-string", "exp-bool", "angle-bool"])
    def test_bad_inline_values(self, tmp_path, capsys, family, message):
        path = _scenario(tmp_path, {"family": family, **self._TASK})
        assert main(["--no-timestamp", "run", path]) == EXIT_USAGE
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: {message}\n"

    def test_inline_string_values_stay_exact_decimals(self, tmp_path, capsys):
        # "0.1" is the decimal 1/10, not the float 0.1: ten steps return exactly
        path = _scenario(tmp_path, {"family": {"kind": "rotations", "angles": ["0.1"]},
                                    "task": "periodicity_check",
                                    "params": {"x": "1/3", "r": 10},
                                    "expect": "Certified"})
        assert main(["--no-timestamp", "run", path]) == EXIT_OK

    def test_bad_expectation_exits_before_a_hostile_horizon(self, capsys):
        # the run would end in exit 2, on the denominator budget
        code = main(["check", "circle_harmonic", "periodicity_check", "--param", "x=0.3",
                     "--param", "r=2", "--param", "horizon=1000000000000",
                     "--expect", "Bogus"])
        assert code == EXIT_USAGE
        assert capsys.readouterr().err == "error: unknown expected verdict 'Bogus'\n"


class TestCheckAndCorpus:
    def test_corpus_list(self, capsys):
        assert main(["corpus", "list"]) == EXIT_OK
        out = capsys.readouterr().out
        for name in ("identity", "circle_ex4", "interval_square_sqrt"):
            assert name in out

    def test_check_subcommand(self, capsys):
        code = main([
            "--no-timestamp", "check", "circle_settling", "return_time_set",
            "--param", "x=0", "--param", "eps=0.3", "--param", "N=20",
        ])
        assert code == EXIT_OK
        assert "times: [-3, -2, 0, 2, 3]" in capsys.readouterr().out

    def test_check_with_expectation(self):
        code = main([
            "--no-timestamp", "check", "circle_harmonic", "periodicity_check",
            "--param", "x=0.1", "--param", "r=2", "--expect", "Certified",
        ])
        assert code == EXIT_OK

    def test_check_bad_param_syntax(self):
        code = main(["check", "identity", "periodicity_check", "--param", "x0.5"])
        assert code == EXIT_USAGE

    def test_no_command(self):
        assert main([]) == EXIT_USAGE

    def test_seed_flag_is_usage_error(self):
        code = main([
            "--no-timestamp", "--seed", "7", "check", "circle_harmonic",
            "periodicity_check", "--param", "x=0.1", "--param", "r=2",
        ])
        assert code == EXIT_USAGE

    @pytest.mark.parametrize("argv", [
        ["check", "circle_ex4"],
        ["corpus", "bogus"],
        ["--bogus", "run", "x.json"],
    ])
    def test_argparse_usage_error_exits_64(self, capsys, argv):
        assert main(argv) == EXIT_USAGE
        assert "usage: naads" in capsys.readouterr().err

    def test_help_exits_0(self, capsys):
        assert main(["--help"]) == EXIT_OK
        assert "usage: naads" in capsys.readouterr().out

    def test_unknown_param_key(self, capsys):
        code = main([
            "--no-timestamp", "check", "circle_harmonic", "periodicity_check",
            "--param", "x=0.3", "--param", "r=2", "--param", "horzon=5000",
        ])
        assert code == EXIT_USAGE
        assert "horzon" in capsys.readouterr().err

    @pytest.mark.parametrize("outputs, code", [
        ([], EXIT_USAGE),
        ([{"kind": "orbit_csv", "path": "o.csv"}], EXIT_OK),
    ])
    def test_params_read_by_outputs_accepted(self, tmp_path, monkeypatch, outputs, code):
        # orbit_csv reads N, which periodicity_check does not take
        monkeypatch.chdir(tmp_path)
        path = _scenario(tmp_path, {
            "family": "circle_harmonic", "task": "periodicity_check",
            "params": {"x": 0.3, "r": 2, "N": 3}, "outputs": outputs,
        })
        assert main(["--no-timestamp", "run", path]) == code


def _reference_parse(argv):
    """What ``main`` did with ``argv`` when it read it with argparse.

    The parser is the one ``main`` built on every call before it read argv
    directly.  Returns ``("run", path, timestamp)``, ``("corpus",)`` or
    ``("check", scenario, timestamp)`` for what ``main`` went on to call, or
    the exit code of help (0) and of a usage error (64).
    """
    parser = argparse.ArgumentParser(prog="naads")
    parser.add_argument("--no-timestamp", action="store_true")
    sub = parser.add_subparsers(dest="command", required=True)
    sub.add_parser("run").add_argument("scenario")
    sub.add_parser("corpus").add_argument("action", choices=["list"])
    p_check = sub.add_parser("check")
    p_check.add_argument("family")
    p_check.add_argument("task")
    p_check.add_argument("--param", action="append", default=[], metavar="KEY=VALUE")
    p_check.add_argument("--expect", default=None)
    try:
        with contextlib.redirect_stderr(io.StringIO()), \
                contextlib.redirect_stdout(io.StringIO()):
            args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_OK if exc.code == 0 else EXIT_USAGE
    if args.command == "run":
        return ("run", args.scenario, not args.no_timestamp)
    if args.command == "corpus":
        return ("corpus",)
    params = {}
    for item in args.param:
        if "=" not in item:
            return EXIT_USAGE
        key, _, value = item.partition("=")
        params[key] = value
    scenario = {"family": args.family, "task": args.task, "params": params}
    if args.expect is not None:
        scenario["expect"] = args.expect
    return ("check", scenario, not args.no_timestamp)


def _reached(monkeypatch, argv):
    """What ``main`` calls for ``argv``, in ``_reference_parse``'s terms, and stderr."""
    calls = []
    monkeypatch.setattr(cli, "run_scenario", lambda path, timestamp: calls.append(
        ("run", path, timestamp)) or EXIT_OK)
    monkeypatch.setattr(cli, "_run_guarded", lambda scenario, timestamp: calls.append(
        ("check", scenario, timestamp)) or EXIT_OK)
    monkeypatch.setattr(cli, "list_corpus", lambda: calls.append(("corpus",)) or "")
    err = io.StringIO()
    with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
        code = main(argv)
    if calls:
        assert code == EXIT_OK and len(calls) == 1
        return calls[0], err.getvalue()
    return code, err.getvalue()


_CHECK = ["check", "identity", "periodicity_check"]

# Command lines on which main must do what the argparse parser led it to do.
_ARGV = [
    # each accepted form
    ["run", "s.json"],
    ["--no-timestamp", "run", "s.json"],
    ["corpus", "list"],
    ["--no-timestamp", "corpus", "list"],
    _CHECK,
    ["--no-timestamp", *_CHECK, "--param", "x=0.3", "--param", "r=2",
     "--expect", "Certified"],
    # check options before, between and after the operands
    ["check", "--param", "x=0.3", "identity", "periodicity_check"],
    ["check", "identity", "--expect", "Refuted", "periodicity_check", "--param", "r=2"],
    ["check", "--expect", "Certified", "--param", "x=0.3", "identity",
     "--param", "r=2", "periodicity_check"],
    # joined values, repeats, values holding '=' or '-', empty values
    [*_CHECK, "--param=x=0.3", "--expect=Certified"],
    [*_CHECK, "--param", "x=a=b", "--param", "r=-2"],
    [*_CHECK, "--expect", "Refuted", "--expect", "Certified"],
    [*_CHECK, "--param", "r=2", "--param", "r=3"],
    [*_CHECK, "--param", "x=", "--expect="],
    ["--no-timestamp", "--no-timestamp", "run", "s.json"],
    # help
    ["--help"],
    ["-h"],
    [*_CHECK, "-h"],
    ["run", "s.json", "--help"],
    # usage errors
    [],
    ["--no-timestamp"],
    ["bogus"],
    ["--bogus", "run", "s.json"],
    ["--no-timestamp=1", "run", "s.json"],
    ["corpus"],
    ["corpus", "bogus"],
    ["corpus", "list", "extra"],
    ["run"],
    ["run", "a.json", "b.json"],
    ["run", "s.json", "--param", "x=1"],
    ["check", "identity"],
    [*_CHECK, "extra"],
    ["--seed", "7", *_CHECK],
    [*_CHECK, "--seed", "7"],
    [*_CHECK, "--param"],
    [*_CHECK, "--expect"],
    [*_CHECK, "--param", "--expect", "Certified"],
    [*_CHECK, "--param", "x0.3"],
    [*_CHECK, "--param="],
    ["run", "--no-timestamp", "s.json"],
    [*_CHECK, "--no-timestamp"],
]


class TestCommandLine:
    """``main`` reads argv as the argparse parser it replaced did."""

    @pytest.mark.parametrize("argv", _ARGV, ids=" ".join)
    def test_same_as_reference_parser(self, monkeypatch, argv):
        expected = _reference_parse(argv)
        assert _reached(monkeypatch, argv)[0] == expected

    @pytest.mark.parametrize("argv", [a for a in _ARGV if _reference_parse(a) == EXIT_USAGE],
                             ids=" ".join)
    def test_usage_error_prints_usage_and_one_error_line(self, monkeypatch, argv):
        code, err = _reached(monkeypatch, argv)
        assert code == EXIT_USAGE
        assert err.startswith(cli.USAGE)
        assert err[len(cli.USAGE):].startswith("naads: error: ")
        assert err.count("\n", len(cli.USAGE)) == 1 and err.endswith("\n")
        assert "error:" not in cli.USAGE

    # Deliberate departures from the argparse parser, each with its reason.
    @pytest.mark.parametrize("argv, reference, now", [
        # argparse took any unambiguous prefix of an option; options are now
        # spelled in full, as the README gives them
        (["--no-time", "run", "s.json"], ("run", "s.json", False), EXIT_USAGE),
        ([*_CHECK, "--par", "x=0.3"],
         ("check", {"family": "identity", "task": "periodicity_check",
                    "params": {"x": "0.3"}}, True), EXIT_USAGE),
        ([*_CHECK, "--exp", "Certified"],
         ("check", {"family": "identity", "task": "periodicity_check", "params": {},
                    "expect": "Certified"}, True), EXIT_USAGE),
        # '--' ended argparse's options; no documented form needs it
        (["run", "--", "s.json"], ("run", "s.json", True), EXIT_USAGE),
        # argparse took a negative number as an option's value; a value that
        # starts with '-' now needs the joined form (--expect=-1), and was
        # never a verdict anyway
        ([*_CHECK, "--expect", "-1"],
         ("check", {"family": "identity", "task": "periodicity_check", "params": {},
                    "expect": "-1"}, True), EXIT_USAGE),
        # -h or --help anywhere asks for help, also where argparse read it as
        # a missing option value
        ([*_CHECK, "--param", "-h"], EXIT_USAGE, EXIT_OK),
    ], ids=["abbreviated-no-timestamp", "abbreviated-param", "abbreviated-expect",
            "double-dash", "dash-value", "help-as-value"])
    def test_departures(self, monkeypatch, argv, reference, now):
        assert _reference_parse(argv) == reference
        assert _reached(monkeypatch, argv)[0] == now

    def test_no_parser_is_built(self, monkeypatch):
        def build(*args, **kwargs):
            raise AssertionError("an ArgumentParser was built")

        monkeypatch.setattr(argparse.ArgumentParser, "__init__", build)
        assert _reached(monkeypatch, ["--no-timestamp", *_CHECK, "--param", "x=0.3"])[0][0] \
            == "check"
        assert _reached(monkeypatch, ["--seed"])[0] == EXIT_USAGE

    def test_import_needs_no_argparse_gettext_or_typing(self):
        # -S: without it, site hooks import typing on Python 3.11
        src = str(Path(cli.__file__).resolve().parents[1])
        code = (f"import sys; sys.path.insert(0, {src!r}); import naads.cli; "
                "print(sorted({'argparse', 'gettext', 'typing'} & set(sys.modules)))")
        proc = subprocess.run([sys.executable, "-I", "-S", "-c", code],
                              capture_output=True, text=True, check=True)
        assert proc.stdout == "[]\n"


class TestBadInputExits64:
    @pytest.mark.parametrize("task, params", [
        ("orbit_density", ["x=0.1", "eps=0", "N=10"]),
        ("orbit_density", ["x=abc", "eps=0.1", "N=10"]),
        ("orbit_density", ["x=0.1", "eps=0.1", "N=-3"]),
        ("orbit_density", ["x=1/0", "eps=0.1", "N=10"]),
        ("orbit_density", ["x=0.1,0.2", "eps=0.1", "N=10"]),
        ("orbit_density", ["x=0.1", "eps=inf", "N=10"]),
        ("periodicity_check", ["x=0.1", "r=two"]),
        ("periodicity_check", ["x=0.1", "r=inf"]),
        ("periodicity_check", ["x=0.1", "r=2.5"]),
        ("minimality_certificate", ["eps=abc"]),
        ("minimality_certificate", ["eps=0"]),
    ])
    def test_check(self, capsys, task, params):
        argv = ["--no-timestamp", "check", "circle_harmonic", task]
        for item in params:
            argv += ["--param", item]
        assert main(argv) == EXIT_USAGE
        assert capsys.readouterr().err.startswith("error: ")

    @pytest.mark.parametrize("env", ["abc", "0", "-3"])
    def test_bad_budget_env(self, tmp_path, monkeypatch, capsys, env):
        monkeypatch.setenv("NAADS_BUDGET_POINTS", env)
        path = _scenario(tmp_path, {
            "family": "circle_harmonic",
            "task": "hull_periodicity_property",
            "params": {"x": 0.1, "r": 2},
        })
        assert main(["--no-timestamp", "run", path]) == EXIT_USAGE
        assert "NAADS_BUDGET_POINTS" in capsys.readouterr().err

    def test_checker_argument_check_in_scenario(self, tmp_path, capsys):
        path = _scenario(tmp_path, {
            "family": "circle_ex4",
            "task": "orbit_density",
            "params": {"x": 0, "eps": 0, "N": 10},
        })
        assert main(["--no-timestamp", "run", path]) == EXIT_USAGE
        assert capsys.readouterr().err == "error: eps must be positive and finite\n"


class TestHostileParameters:
    """Inputs that used to end in a traceback or an unbounded loop."""

    @pytest.mark.parametrize("family, task, params, code", [
        # nan slipped past `eps <= 0` and emptied the return-time list
        ("identity", "return_time_set", ["x=0.3", "eps=nan", "N=3"], EXIT_USAGE),
        ("identity", "almost_periodicity_report", ["x=0.3", "eps=-3", "N=3"], EXIT_USAGE),
        ("identity", "uniform_ap_report", ["eps=0.1", "N=-3"], EXIT_USAGE),
        ("identity", "orbit_density", ["x=nan", "eps=0.1", "N=3"], EXIT_USAGE),
        # sizes of 10**30 ended in an attempt to build the grid
        ("identity", "uniform_ap_report", ["eps=0.1", "N=3", f"grid_size={10**30}"],
         EXIT_INCONCLUSIVE),
        ("identity", "sensitivity_at_point", ["x=0.3", f"samples={2**64}"],
         EXIT_INCONCLUSIVE),
        ("circle_ex4", "minimality_certificate", ["eps=1/8", f"grid={10**30}"],
         EXIT_INCONCLUSIVE),
        ("identity", "orbit_density", ["x=0.3", "eps=1e-30", "N=3"], EXIT_INCONCLUSIVE),
        # the exact prefix sums ran on toward time 10**30
        ("circle_harmonic", "periodicity_check", ["x=0.3", f"r={10**30}"],
         EXIT_INCONCLUSIVE),
        # windows past the horizon built exact maps up to the denominator budget
        ("circle_harmonic", "equicontinuity_modulus", ["eps=0.1", f"N={10**30}"],
         EXIT_INCONCLUSIVE),
        ("circle_harmonic", "proximal_liminf", ["x=0.3", "y=0.6", f"N={2**64}"],
         EXIT_INCONCLUSIVE),
    ])
    def test_exit_code(self, capsys, family, task, params, code):
        argv = ["--no-timestamp", "check", family, task]
        for item in params:
            argv += ["--param", item]
        assert main(argv) == code
        assert capsys.readouterr().err.startswith("error: ")

    # inf left the exact path no net centers to miss, so it certified
    @pytest.mark.parametrize("family", ["circle_harmonic", "identity"])
    @pytest.mark.parametrize("eps", ["inf", "nan"])
    def test_minimality_eps_must_be_finite(self, capsys, family, eps):
        argv = ["check", family, "minimality_certificate", "--param", f"eps={eps}"]
        assert main(argv) == EXIT_USAGE
        assert capsys.readouterr().err == "error: eps must be positive and finite\n"

    # a non-positive delta counted every pair as separated, and a negative
    # window or horizon left nothing (or only time 0) to scan
    @pytest.mark.parametrize("family, task, params, message", [
        ("circle_harmonic", "sensitivity_at_point", ["x=0.1", "N=5", "delta=0"],
         "delta must be positive and finite"),
        ("circle_harmonic", "sensitivity_at_point", ["x=0.1", "N=5", "delta=-1"],
         "delta must be positive and finite"),
        ("circle_harmonic", "sensitivity_at_point", ["x=0.1", "N=5", "delta=inf"],
         "delta must be positive and finite"),
        ("circle_harmonic", "dichotomy_scan", ["eps=0.1", "N=5", "delta=-1"],
         "delta must be positive and finite"),
        ("circle_harmonic", "equicontinuity_modulus", ["eps=0.1", "N=-5"],
         "N must be >= 0"),
        ("circle_harmonic", "li_yorke_classify", ["x=0.1", "y=0.2", "N=-1"],
         "N must be >= 0"),
        ("circle_harmonic", "proximal_liminf", ["x=0.1", "y=0.2", "N=-1"],
         "N must be >= 0"),
        ("identity", "periodicity_check", ["x=0.1", "r=2", "horizon=-3"],
         "horizon must be >= 0"),
        ("circle_harmonic", "periodicity_check", ["x=0.1", "r=2", "horizon=-3"],
         "horizon must be >= 0"),
        ("circle_harmonic", "hull_periodicity_property", ["x=0.1", "r=2", "horizon=-3"],
         "horizon must be >= 0"),
        # a negative tolerance refuted the identity's period 2 at distance 0.0
        ("identity", "periodicity_check", ["x=0.3", "r=2", "tol=-1"], "tol must be >= 0"),
        ("circle_harmonic", "periodicity_check", ["x=0.3", "r=2", "tol=-1"],
         "tol must be >= 0"),
        ("circle_harmonic", "hull_periodicity_property", ["x=0.3", "r=2", "tol=-1"],
         "tol must be >= 0"),
        # declared isometries skipped the equicontinuity scan that rejects eps
        ("circle_ex4", "hull_closure_equality", ["x=0.3", "eps=-1"],
         "eps must be positive and finite"),
        ("circle_ex4", "hull_closure_equality", ["x=0.3", "eps=0"],
         "eps must be positive and finite"),
        ("identity", "hull_closure_equality", ["x=0.3", "eps=0"],
         "eps must be positive and finite"),
        # an infinite eps or radius gave verdicts on identity and a nan point
        # on circles; dichotomy_scan, which passes eps on as a radius, exited 2
        ("identity", "equicontinuity_modulus", ["eps=inf"],
         "eps must be positive and finite"),
        ("example2_powers", "equicontinuity_modulus", ["eps=inf"],
         "eps must be positive and finite"),
        ("circle_harmonic", "equicontinuity_modulus", ["eps=inf"],
         "eps must be positive and finite"),
        ("identity", "dichotomy_scan", ["eps=inf", "N=5"],
         "eps must be positive and finite"),
        ("identity", "sensitivity_at_point", ["x=0.3", "radii=inf"],
         "radii must be positive and finite"),
        ("example2_powers", "sensitivity_at_point", ["x=0.3", "radii=inf"],
         "radii must be positive and finite"),
        ("circle_harmonic", "sensitivity_at_point", ["x=0.3", "radii=0.1,inf"],
         "radii must be positive and finite"),
        # a value the checker derives from eps is checked as eps, by the
        # checker: eps/4 underflows to 0, and 3*eps overflows to inf
        ("circle_ex4", "dichotomy_scan", ["eps=5e-324", "N=5"],
         "eps must leave eps/4, its second sensitivity radius, positive"),
        ("circle_ex4", "ap_propagation_check", ["x=0.3", "eps=1e308", "N=5"],
         "eps must leave 3*eps, its hull points' return radius, finite"),
    ])
    def test_empty_scans_are_usage_errors(self, capsys, family, task, params, message):
        argv = ["--no-timestamp", "check", family, task]
        for item in params:
            argv += ["--param", item]
        assert main(argv) == EXIT_USAGE
        assert capsys.readouterr().err == f"error: {message}\n"

    # dichotomy_scan rejects delta before its equicontinuity scan, which used
    # to run in full first; the message and the exit code are unchanged
    @pytest.mark.parametrize("delta", [-1, 0, math.nan, "-1", "0"],
                             ids=["-1", "0", "nan", "cli-1", "cli0"])
    def test_dichotomy_rejects_delta_before_scanning(self, capsys, monkeypatch, delta):
        def scan(*args, **kwargs):
            raise AssertionError("equicontinuity_modulus ran")

        monkeypatch.setattr(checkers, "equicontinuity_modulus", scan)
        if not isinstance(delta, str):  # nan does not parse on the command line
            family = corpus("circle_harmonic").family
            with pytest.raises(ValueError, match="^delta must be positive and finite$"):
                checkers.dichotomy_scan(family, 0.1, delta=delta)
            return
        argv = ["check", "circle_harmonic", "dichotomy_scan",
                "--param", "eps=0.1", "--param", f"delta={delta}"]
        assert main(argv) == EXIT_USAGE
        assert capsys.readouterr().err == "error: delta must be positive and finite\n"

    # an eps whose derived radius leaves the gate's domain is rejected by the
    # checker before any flow work
    @pytest.mark.parametrize("task, args, message", [
        ("dichotomy_scan", (5e-324,), "eps/4, its second sensitivity radius, positive"),
        ("ap_propagation_check", (0.3, 1e308),
         "3*eps, its hull points' return radius, finite"),
    ])
    def test_derived_eps_is_rejected_before_flow_work(self, task, args, message):
        family = corpus("circle_ex4").family
        with pytest.raises(ValueError, match=f"^eps must leave {re.escape(message)}$"):
            getattr(checkers, task)(family, *args, n_max=5)
        assert family._traj == {} and family._maps == []

    # nan does not parse on the command line; the library call rejects it too
    @pytest.mark.parametrize("family", ["circle_ex4", "example2_powers"])
    def test_hull_closure_rejects_nan_eps(self, family):
        with pytest.raises(ValueError, match="^eps must be positive and finite$"):
            checkers.hull_closure_equality(corpus(family).family, 0.3, math.nan)

    # nan does not parse on the command line; a library call must not get a
    # verdict, nor may inf, which gave one on identity and a nan point on circles
    @pytest.mark.parametrize("eps", [math.nan, math.inf], ids=["nan", "inf"])
    @pytest.mark.parametrize("family", ["circle_harmonic", "example2_powers"])
    def test_equicontinuity_rejects_nan_eps(self, family, eps):
        with pytest.raises(ValueError, match="^eps must be positive and finite$"):
            checkers.equicontinuity_modulus(corpus(family).family, eps)

    # a nan tolerance orders below nothing, so no verdict can rest on it
    @pytest.mark.parametrize("tols", [{"low_tol": math.nan}, {"high_tol": math.nan}])
    def test_li_yorke_rejects_nan_tolerance(self, tols):
        family = corpus("example2_powers").family
        with pytest.raises(ValueError, match="^low_tol must be below high_tol$"):
            checkers.li_yorke_classify(family, 0.3, 0.6, 10, **tols)

    # nan does not parse on the command line; a library call must not get a verdict
    @pytest.mark.parametrize("family, task", [
        ("identity", "periodicity_check"),
        ("circle_harmonic", "periodicity_check"),
        ("circle_harmonic", "hull_periodicity_property"),
    ])
    def test_periodicity_rejects_nan_tolerance(self, family, task):
        with pytest.raises(ValueError, match="^tol must be >= 0$"):
            getattr(checkers, task)(corpus(family).family, 0.3, 2, tol=math.nan)

    # the witness H_11001 has a 15,871-bit denominator, inside the budget, whose
    # decimal form is past Python's int-string limit: it used to exit 64
    def test_refutation_with_a_long_witness(self, capsys):
        argv = ["--no-timestamp", "check", "circle_harmonic", "periodicity_check",
                "--param", "x=0.3", "--param", "r=22001", "--param", "horizon=1",
                "--expect", "Refuted"]
        assert main(argv) == EXIT_OK
        lines = dict(line.split(": ", 1) for line in capsys.readouterr().out.splitlines())
        num, den = lines["detail.witness_displacement"].split("/")
        assert num.startswith("0x") and den.startswith("0x")
        witness = Fraction(int(num, 16), int(den, 16))
        assert witness == corpus("circle_harmonic").exact.displacement(22001)
        assert witness.denominator.bit_length() == 15871

    def test_fraction_rendering(self):
        # decimal wherever Python prints it, hexadecimal past its int-string limit
        assert format_value(Fraction(5, 6)) == "5/6"
        assert format_value(Fraction(7)) == "7"
        assert format_value(Fraction(1, 3 ** 10000)) == f"0x1/{3 ** 10000:#x}"

    # a boolean ran as 1: r=true refuted the period 2 that r=2 certifies
    @pytest.mark.parametrize("task, params", [
        ("periodicity_check", ["x=0.3", "r=true"]),
        ("orbit_density", ["x=true", "eps=0.1", "N=true"]),
        ("minimality_certificate", ["eps=true"]),
        ("sensitivity_at_point", ["x=0.3", "radii=0.1,false"]),
    ])
    def test_boolean_is_not_a_number(self, capsys, task, params):
        argv = ["--no-timestamp", "check", "circle_harmonic", task]
        for item in params:
            argv += ["--param", item]
        assert main(argv) == EXIT_USAGE
        assert re.fullmatch(r"error: expected an? (number|integer), got '(true|false)'\n",
                            capsys.readouterr().err)

    def test_boolean_scenario_value_is_not_a_number(self, tmp_path, capsys):
        path = _scenario(tmp_path, {"family": "circle_harmonic", "task": "periodicity_check",
                                    "params": {"x": 0.3, "r": True}})
        assert main(["--no-timestamp", "run", path]) == EXIT_USAGE
        assert capsys.readouterr().err == "error: expected an integer, got True\n"

    # a negative window is bad input at any size: the parameter gate tests the
    # sign before any flow work, so also where no window of N is read
    # (hull_closure_equality on a declared isometry)
    @pytest.mark.parametrize("n", [-1, -10 ** 30], ids=["-1", "-10**30"])
    @pytest.mark.parametrize("task", sorted(
        name for name, task in TASKS.items() if "N" in task.params))
    def test_negative_window_is_bad_input_at_any_size(self, capsys, task, n):
        small = {"x": "0.3", "y": "0.7", "eps": "0.125", "r": "2", "N": str(n)}
        argv = ["--no-timestamp", "check", "circle_harmonic", task]
        for key in TASKS[task].params:
            if key in small:
                argv += ["--param", f"{key}={small[key]}"]
        assert main(argv) == EXIT_USAGE
        assert capsys.readouterr().err == "error: N must be >= 0\n"

    # an order past the horizon is a budget error at once on the exact path,
    # with the float path's message; the exact path used to run past 30 s
    @pytest.mark.parametrize("family", ["circle_harmonic", "circle_ex4", "identity"])
    def test_minimality_order_past_the_horizon(self, capsys, family):
        argv = ["check", family, "minimality_certificate",
                "--param", "eps=1/65536", "--param", "order_cap=1000000"]
        start = time.perf_counter()
        assert main(argv) == EXIT_INCONCLUSIVE
        assert time.perf_counter() - start < 1.0
        assert capsys.readouterr().err == \
            "error: budget exceeded: time -1000000 exceeds horizon 100000\n"

    # N = 0 and horizon = 0 stay valid: time 0 alone is scanned
    @pytest.mark.parametrize("task, params", [
        ("equicontinuity_modulus", ["eps=0.1", "N=0"]),
        ("proximal_liminf", ["x=0.1", "y=0.2", "N=0"]),
        ("periodicity_check", ["x=0.1", "r=2", "horizon=0"]),
    ])
    def test_zero_window_and_horizon_stay_valid(self, capsys, task, params):
        argv = ["--no-timestamp", "check", "circle_harmonic", task]
        for item in params:
            argv += ["--param", item]
        assert main(argv) == EXIT_OK


# Values that break each rule of checkers._RULES, as library values; nan
# breaks every rule.  A radius breaks its rule inside a valid tuple.
_BREAK_POSITIVE = (0.0, -1.0, math.inf, math.nan)
_BREAKS = {
    **dict.fromkeys(("eps", "delta"), _BREAK_POSITIVE),
    "radii": tuple((0.1, v) for v in _BREAK_POSITIVE),
    **dict.fromkeys(("tol", "N", "horizon"), (-1, math.nan)),
    **dict.fromkeys(("r", "order_cap", "order_k", "depth"), (0, -1, math.nan)),
    **dict.fromkeys(("grid", "grid_size", "pair_grid", "samples"), (1, 0, math.nan)),
}
# Valid values of the required parameters.
_GATE_VALID = {"x": 0.3, "y": 0.6, "eps": 0.125, "r": 2, "N": 5}


def _gate_cases():
    for task in sorted(TASKS):
        for key in TASKS[task].params:
            values = (math.nan,) if key in ("x", "y") else _BREAKS.get(key, ())
            for value in values:
                yield pytest.param(task, key, value, id=f"{task}-{key}-{value}")


class TestParameterGate:
    """Every checker parameter is checked by name before any flow work."""

    @pytest.mark.parametrize("task, key, value", _gate_cases())
    def test_every_rule_is_enforced(self, capsys, task, key, value):
        if key in ("x", "y"):
            error, message = DomainError, "base point nan is not a number"
        else:
            error, message = ValueError, f"{key} {checkers._RULES[key][0]}"
        checker = TASKS[task]
        params = {public: _GATE_VALID[public]
                  for public in checker.params if public not in checker.defaults}
        params[key] = value
        family = corpus("circle_harmonic").family
        kwargs = {checker.arg_of[public]: v for public, v in params.items()}
        with pytest.raises(error, match=f"^{re.escape(message)}$"):
            getattr(checkers, task)(family, **kwargs)
        assert family._traj == {} and family._maps == []

        texts = {public: ",".join(map(str, v)) if isinstance(v, tuple) else str(v)
                 for public, v in params.items()}
        argv = ["--no-timestamp", "check", "circle_harmonic", task]
        for public, text in texts.items():
            argv += ["--param", f"{public}={text}"]
        assert main(argv) == EXIT_USAGE
        err = capsys.readouterr().err
        # nan parses only as an exact parameter (minimality_certificate's eps)
        assert err == f"error: {message}\n" or "nan" in texts[key] and re.fullmatch(
            r"error: expected an? (number|integer), got .*nan.*\n", err)

    def test_every_parameter_has_a_rule(self):
        params = {key for task in TASKS.values() for key in task.params}
        assert params - set(checkers._RULES) == {"x", "y", "low_tol", "high_tol"}

    def test_coercions_are_keyed_by_public_name(self):
        assert set(cli._COERCE) == {key for task in TASKS.values() for key in task.params}


# The parameters each task accepts: its checker's, with N for n_max.
_TASK_PARAMS = {
    "periodicity_check": ("x", "r", "horizon", "tol"),
    "return_time_set": ("x", "eps", "N"),
    "almost_periodicity_report": ("x", "eps", "N"),
    "uniform_ap_report": ("eps", "N", "grid_size"),
    "equicontinuity_modulus": ("eps", "N", "pair_grid"),
    "proximal_liminf": ("x", "y", "N"),
    "li_yorke_classify": ("x", "y", "N", "low_tol", "high_tol"),
    "sensitivity_at_point": ("x", "delta", "radii", "samples", "N"),
    "orbit_density": ("x", "eps", "N"),
    "transitivity_scan": ("eps", "N", "grid"),
    "r_transitivity_check": ("r", "eps", "N", "grid"),
    "minimality_certificate": ("eps", "order_cap", "depth", "grid"),
    "hull_periodicity_property": ("x", "r", "order_k", "depth", "horizon", "tol"),
    "ap_propagation_check": ("x", "eps", "N", "order_k", "depth"),
    "hull_closure_equality": ("x", "eps", "N", "order_k", "depth", "y"),
    "dichotomy_scan": ("eps", "delta", "grid", "order_k", "depth", "N"),
}

# Small public parameters under which every task runs on circle_ex4.
_RECORD_PARAMS = {
    "periodicity_check": {"x": 0.3, "r": 2, "horizon": 5},
    "return_time_set": {"x": 0.3, "eps": 0.1, "N": 10},
    "almost_periodicity_report": {"x": 0.3, "eps": 0.1, "N": 10},
    "uniform_ap_report": {"eps": 0.1, "N": 10, "grid_size": 4},
    "equicontinuity_modulus": {"eps": 0.1, "N": 5, "pair_grid": 3},
    "proximal_liminf": {"x": 0.1, "y": 0.6, "N": 10},
    "li_yorke_classify": {"x": 0.1, "y": 0.6, "N": 10},
    "sensitivity_at_point": {"x": 0.3, "samples": 4, "N": 10},
    "orbit_density": {"x": 0.3, "eps": 0.1, "N": 10},
    "transitivity_scan": {"eps": 0.2, "N": 10, "grid": 4},
    "r_transitivity_check": {"r": 2, "eps": 0.2, "N": 10, "grid": 4},
    "minimality_certificate": {"eps": Fraction(1, 4), "order_cap": 2, "depth": 2},
    "hull_periodicity_property": {"x": 0.3, "r": 2, "order_k": 2, "depth": 2,
                                  "horizon": 5},
    "ap_propagation_check": {"x": 0.3, "eps": 0.1, "N": 10, "order_k": 2, "depth": 2},
    "hull_closure_equality": {"x": 0.3, "eps": 0.1, "N": 10, "order_k": 2, "depth": 2},
    "dichotomy_scan": {"eps": 0.1, "grid": 2, "order_k": 1, "depth": 1, "N": 5},
}


# A report's parameters are its checker's call record: every task parameter
# under its public name, passed or defaulted, and the family's name.
@pytest.mark.parametrize("task", sorted(TASKS))
def test_report_parameters_record_the_call(task):
    family = corpus("circle_ex4").family
    passed = _RECORD_PARAMS[task]
    result = cli._call(task, family, passed)
    if not isinstance(result, PropertyReport):
        assert task in ("return_time_set", "proximal_liminf")
        return
    record = result.parameters
    assert set(record) == {"family", *TASKS[task].params}
    assert record["family"] == family.name
    assert {key: record[key] for key in passed} == passed

    # the same call spelled positionally and by keyword, every argument given
    checker = getattr(checkers, task)
    names = [TASKS[task].arg_of[public] for public in TASKS[task].params]
    values = [record[public] for public in TASKS[task].params]
    by_position = checker(family, *values)
    by_keyword = checker(family, **dict(zip(names, values)))
    assert by_position.parameters == by_keyword.parameters == record
    assert by_position == by_keyword == result


_HOSTILE = ("", "abc", "1/0", "-3", "0", "inf", "-inf", "nan", str(10 ** 30), str(2 ** 64))

# Small valid values, so that a drawn job stays fast.
_SMALL = {
    "x": ("0", "0.3", "1/2"), "y": ("0.7", "1/3"), "eps": ("0.1", "1/8", "0.3"),
    "N": ("1", "4", "8"), "r": ("1", "2", "3"), "horizon": ("2", "5"),
    "tol": ("1e-9",), "grid_size": ("2", "4"), "pair_grid": ("3", "5"),
    "low_tol": ("0.001",), "high_tol": ("0.3",), "delta": ("0.25",),
    "radii": ("0.1", "0.1,0.01"), "samples": ("2", "4"), "grid": ("2", "4"),
    "order_cap": ("1", "2"), "depth": ("1", "2"), "order_k": ("1", "2"),
}


@st.composite
def _check_argv(draw):
    task = draw(st.sampled_from(sorted(TASKS)))
    argv = ["--no-timestamp", "check", draw(st.sampled_from(CORPUS_NAMES)), task]
    for key in _TASK_PARAMS[task]:
        value = draw(st.one_of(
            st.none(), st.sampled_from(_SMALL[key]), st.sampled_from(_HOSTILE)))
        if value is not None:
            argv += ["--param", f"{key}={value}"]
    expect = draw(st.sampled_from((None, "EvidenceFor", "Refuted")))
    if expect is not None:
        argv += ["--expect", expect]
    unknown = draw(st.sampled_from((None, "horzon", "n_max", "seed", "X")))
    if unknown is not None:
        argv += ["--param", f"{unknown}=1"]
    return argv, expect, unknown


def test_task_params_cover_the_task_table():
    assert set(_TASK_PARAMS) == set(TASKS)


@pytest.mark.parametrize("task", sorted(_TASK_PARAMS))
def test_task_params_come_from_the_checker_signature(task):
    assert TASKS[task].params == _TASK_PARAMS[task]


@settings(max_examples=100, deadline=None)
@given(job=_check_argv())
def test_check_fuzz_exit_codes(job):
    argv, expect, unknown = job
    err = io.StringIO()
    with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
        code = main(argv)  # an exception here would reach the user as a traceback
    allowed = {EXIT_OK, EXIT_INCONCLUSIVE, EXIT_USAGE}
    if expect is not None:
        allowed.add(EXIT_MISMATCH)
    if unknown is not None:
        allowed = {EXIT_USAGE}
    assert code in allowed, (argv, err.getvalue())
    assert "Traceback" not in err.getvalue()


# One parameter record for every task; each task reads the parameters it has.
_SHARED_PARAMS = {"x": 0.3, "y": 0.7, "eps": 0.125, "r": 2, "N": 20, "horizon": 10,
                  "grid": 4, "grid_size": 4, "pair_grid": 5, "samples": 4,
                  "order_cap": 3, "order_k": 3, "depth": 3}


def _undeclared_example1():
    """example1's maps with no declared period: backward values are memoized per time."""
    fam = corpus("example1_tent_sqrt").family
    return MapFamily(fam.space, fam.rule, "example1_undeclared")


_STORE_FAMILIES = {
    "circle_ex4": lambda: corpus("circle_ex4").family,  # commutative
    "example1_tent_sqrt": lambda: corpus("example1_tent_sqrt").family,  # periodic
    "example1_undeclared": _undeclared_example1,
}


def _task_outcome(family, task):
    """The task's rendered report, or the error it raises."""
    try:
        return _render_result(cli._call(task, family, _SHARED_PARAMS), family, task, False)
    except NaadsError as exc:
        return f"{type(exc).__name__}: {exc}"


@pytest.mark.parametrize("name", list(_STORE_FAMILIES))
def test_shared_store_changes_no_report(name):
    # every task on a fresh family, and on one whose trajectory store holds
    # what every other task computed
    make = _STORE_FAMILIES[name]
    for task in TASKS:
        warm = make()
        for other in TASKS:
            if other != task:
                _task_outcome(warm, other)
        assert _task_outcome(warm, task) == _task_outcome(make(), task), task


class TestDeterminism:
    def test_byte_identical_reports(self, tmp_path):
        payload = {
            "family": "circle_ex4",
            "task": "minimality_certificate",
            "params": {"eps": "1/8", "order_cap": 9, "depth": 8},
        }
        outputs = []
        for i in range(2):
            out_file = tmp_path / f"rep{i}.txt"
            path = _scenario(tmp_path, dict(
                payload, outputs=[{"kind": "report", "path": str(out_file)}]
            ), name=f"s{i}.json")
            assert main(["--no-timestamp", "run", path]) == EXIT_OK
            outputs.append(out_file.read_bytes())
        assert outputs[0] == outputs[1]


# Golden report bytes, one job per result kind.  "{ts}" marks the line that
# only a timestamped report has; its value is masked before comparing.
_GOLDEN = {
    ("circle_settling", "periodicity_check", ("x=0.3", "r=2")): """\
family: circle_settling
task: periodicity_check
schema: naads-report/1
{ts}property: periodicity
verdict: Refuted
param.family: circle_settling
param.horizon: 25
param.r: 2
param.tol: 1e-09
param.x: 0.3
detail.mode: exact
detail.witness_displacement: 1/4
witness.1.kind: point_return
witness.1.points: [0.3]
witness.1.times: [2]
witness.1.distances: [0.25000000000000006]
""",
    ("example1_tent_sqrt", "sensitivity_at_point", ("x=0", "N=20", "samples=4")): """\
family: example1_tent_sqrt
task: sensitivity_at_point
schema: naads-report/1
{ts}property: sensitivity_at_point
verdict: EvidenceFor
param.N: 20
param.delta: 0.25
param.family: example1_tent_sqrt
param.radii: [0.1, 0.01]
param.samples: 4
param.x: 0.0
witness.1.kind: pair_orbit
witness.1.points: [0.0, 0.1]
witness.1.times: [3]
witness.1.distances: [0.3354101966249684]
witness.1.note: radius=0.1
witness.2.kind: pair_orbit
witness.2.points: [0.0, 0.01]
witness.2.times: [10]
witness.2.distances: [0.2575102137227089]
witness.2.note: radius=0.01
""",
    # no benchmark job runs these two, so nothing else freezes their param lines
    ("circle_ex4", "almost_periodicity_report", ("x=0.3", "eps=0.1", "N=20")): """\
family: circle_ex4
task: almost_periodicity_report
schema: naads-report/1
{ts}property: almost_periodicity
verdict: EvidenceFor
param.N: 20
param.eps: 0.1
param.family: circle_ex4
param.x: 0.3
detail.M: 2
detail.trend: [[20, 2], [40, 2], [80, 2]]
""",
    ("circle_ex4", "ap_propagation_check",
     ("x=0.3", "eps=0.1", "N=20", "order_k=2", "depth=2")): """\
family: circle_ex4
task: ap_propagation_check
schema: naads-report/1
{ts}property: almost_periodicity_propagation
verdict: EvidenceFor
param.N: 20
param.depth: 2
param.eps: 0.1
param.family: circle_ex4
param.order_k: 2
param.x: 0.3
detail.common_M: 2
detail.hull_size: 2
""",
    # an explicit y, which the benchmark jobs leave at its default
    ("circle_ex4", "hull_closure_equality",
     ("x=0.3", "eps=0.1", "y=0.5", "order_k=2", "depth=2")): """\
family: circle_ex4
task: hull_closure_equality
schema: naads-report/1
{ts}property: hull_closure_equality
verdict: EvidenceAgainst
param.N: 40
param.depth: 2
param.eps: 0.1
param.family: circle_ex4
param.order_k: 2
param.x: 0.3
param.y: 0.5
detail.hausdorff_distance: 0.2
detail.hull_size: 2
detail.worst_orbit_point: 0.5
""",
    ("circle_settling", "return_time_set", ("x=0", "eps=0.3", "N=8")): """\
family: circle_settling
task: return_time_set
schema: naads-return-times/1
{ts}base: 0.0
eps: 0.3
window_n: 8
times: [-3, -2, 0, 2, 3]
max_internal_gap: 2
censored_left_gap: 5
censored_right_gap: 5
""",
    # the one layout with family and task after the schema line
    ("example2_powers", "proximal_liminf", ("x=0.1", "y=0.6", "N=6")): """\
schema: naads-proximal/1
{ts}family: example2_powers
task: proximal_liminf
min_distance: 0.04665499999999999
argmin_time: 5
max_distance: 0.5000000000000001
argmax_time: -2
""",
}


@pytest.mark.parametrize("timestamp", [False, True])
@pytest.mark.parametrize("job", list(_GOLDEN), ids=lambda job: job[1])
def test_golden_report_bytes(capsys, job, timestamp):
    family, task, params = job
    argv = [] if timestamp else ["--no-timestamp"]
    argv += ["check", family, task]
    for item in params:
        argv += ["--param", item]
    assert main(argv) == EXIT_OK
    out = capsys.readouterr().out
    if timestamp:
        out, masked = re.subn(r"(?m)^timestamp: \S+\n", "{ts}", out)
        assert masked == 1
    assert out == (_GOLDEN[job] if timestamp else _GOLDEN[job].replace("{ts}", ""))


# Golden bytes of the exact minimality cover test on inline rotations.  The
# Refuted case misses a center at distance exactly eps, so the miss test must
# be ">=": a ">" would certify.  The benchmark digests cover only Certified.
_GOLDEN_EXACT_MINIMALITY = {
    "refuted_at_eps": (
        {"angles": ["1/4"], "params": {"eps": "1/16", "order_cap": 2, "depth": 4}},
        EXIT_OK,
        """\
family: inline_rotations
task: minimality_certificate
schema: naads-report/1
{ts}property: minimality
verdict: Refuted
param.depth: 4
param.eps: 1/16
param.family: inline_rotations
param.grid: 16
param.order_cap: 2
detail.mode: exact
witness.1.kind: hull_miss
witness.1.points: [0.0, 0.0625]
witness.1.times: []
witness.1.distances: [0.0625]
witness.1.note: order_k=2
""",
    ),
    "inconclusive_float_eps": (
        {"angles": ["1/97", "3/101"], "params": {"eps": 0.01, "order_cap": 2, "depth": 2}},
        EXIT_INCONCLUSIVE,
        """\
family: inline_rotations
task: minimality_certificate
schema: naads-report/1
{ts}property: minimality
verdict: InconclusiveBudget
param.depth: 2
param.eps: 0.01
param.family: inline_rotations
param.grid: 16
param.order_cap: 2
detail.mode: exact
""",
    ),
}


@pytest.mark.parametrize("timestamp", [False, True])
@pytest.mark.parametrize("case", list(_GOLDEN_EXACT_MINIMALITY))
def test_golden_exact_minimality_bytes(tmp_path, capsys, case, timestamp):
    spec, code, golden = _GOLDEN_EXACT_MINIMALITY[case]
    path = _scenario(tmp_path, {
        "family": {"kind": "rotations", "angles": spec["angles"]},
        "task": "minimality_certificate",
        "params": spec["params"],
    })
    argv = [] if timestamp else ["--no-timestamp"]
    assert main(argv + ["run", path]) == code
    out = capsys.readouterr().out
    if timestamp:
        out, masked = re.subn(r"(?m)^timestamp: \S+\n", "{ts}", out)
        assert masked == 1
    assert out == (golden if timestamp else golden.replace("{ts}", ""))
