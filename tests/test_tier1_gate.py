"""The tier-1 gate passes only on the documented outcome of the suite."""

import importlib.util
from pathlib import Path

_PATH = Path(__file__).resolve().parent.parent / "scripts" / "tier1_gate.py"
_spec = importlib.util.spec_from_file_location("tier1_gate", _PATH)
gate = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(gate)

RED = sorted(gate.EXPECTED_RED)
GREEN = "tests.test_cli.TestExitCodes::test_run_requires_config"


def results(**changes):
    out = {GREEN: "passed", **dict.fromkeys(RED, "failed")}
    out.update(changes)
    return out


def test_documented_outcome_passes():
    assert gate.verdict(results()) == []


def test_any_other_failure_error_or_skip_fails():
    for outcome in ("failed", "error", "skipped"):
        assert gate.verdict(results(**{GREEN: outcome})) == [f"{GREEN} {outcome}"]


def test_a_red_item_that_passes_fails():
    assert gate.verdict(results(**{RED[0]: "passed"})) == [
        f"{RED[0]} passed; it is documented as red"]


def test_a_red_item_that_errors_skips_or_is_missing_fails():
    assert len(gate.verdict(results(**{RED[1]: "skipped"}))) == 1
    assert len(gate.verdict(results(**{RED[1]: "error"}))) == 1
    missing = results()
    del missing[RED[0]]
    assert gate.verdict(missing) == [f"{RED[0]} did not run"]


def test_junit_report_is_read(tmp_path):
    report = tmp_path / "r.xml"
    report.write_text(
        '<testsuites><testsuite name="pytest">'
        '<testcase classname="tests.a" name="test_ok"/>'
        '<testcase classname="tests.a" name="test_bad"><failure message="x"/></testcase>'
        '<testcase classname="tests.a" name="test_err"><error message="x"/></testcase>'
        '<testcase classname="tests.a" name="test_skip"><skipped message="x"/></testcase>'
        '</testsuite></testsuites>')
    assert gate.outcomes(report) == {
        "tests.a::test_ok": "passed", "tests.a::test_bad": "failed",
        "tests.a::test_err": "error", "tests.a::test_skip": "skipped"}


def test_slowest_tests_are_read_from_the_report(tmp_path):
    report = tmp_path / "r.xml"
    report.write_text(
        '<testsuites><testsuite name="pytest">'
        '<testcase classname="tests.a" name="test_quick" time="0.010"/>'
        '<testcase classname="tests.a" name="test_slow" time="6.500">'
        '<failure message="x"/></testcase>'
        '<testcase classname="tests.b" name="test_mid" time="1.250"/>'
        '<testcase classname="tests.b" name="test_untimed"/>'
        '</testsuite></testsuites>')
    assert gate.slowest(report, 2) == [("tests.a::test_slow", 6.5), ("tests.b::test_mid", 1.25)]
    assert gate.slowest(report) == [("tests.a::test_slow", 6.5), ("tests.b::test_mid", 1.25),
                                    ("tests.a::test_quick", 0.01), ("tests.b::test_untimed", 0.0)]
    assert gate.SLOWEST == 10
