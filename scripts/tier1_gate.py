"""Run the tier-1 test suite and pass only on its documented outcome.

    python scripts/tier1_gate.py

Runs the tier-1 command (`python -m pytest -q --continue-on-collection-errors`
with `src` on PYTHONPATH) and reads its JUnit report. Exits 0 only when the
red tests are exactly the documented red acceptance items (see "Acceptance
tests" in the README) and no test was skipped. Any other failure or error,
any skipped test, and any documented red item that starts to pass all exit 1:
a red item that turns green is news, and its entry here must go. It also
prints the slowest tests with their seconds, read from the same report; they
do not change the verdict.
"""

from __future__ import annotations

import os
import subprocess
import sys
import tempfile
import xml.etree.ElementTree as ET
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

# Red on purpose: the mean transforms of log, poly:2 and semicircle are not
# convex (exact witnesses in margin_lab.witnesses).
EXPECTED_RED = {
    "tests.test_acceptance::test_07_general_loss_bound_and_transform_identities",
    "tests.test_acceptance::test_08_inequality_suite_has_zero_failures",
}

SLOWEST = 10  # tests whose seconds the gate prints


def outcomes(report: Path) -> dict[str, str]:
    """Test id -> passed | failed | error | skipped, from a JUnit XML file."""
    result = {}
    for case in ET.parse(report).getroot().iter("testcase"):
        test_id = f"{case.get('classname')}::{case.get('name')}"
        kinds = {child.tag for child in case}
        if "failure" in kinds:
            result[test_id] = "failed"
        elif "error" in kinds:
            result[test_id] = "error"
        elif "skipped" in kinds:
            result[test_id] = "skipped"
        else:
            result[test_id] = "passed"
    return result


def slowest(report: Path, count: int = SLOWEST) -> list[tuple[str, float]]:
    """The ``count`` slowest test ids and their seconds, from a JUnit XML file."""
    times = [(f"{case.get('classname')}::{case.get('name')}", float(case.get("time", 0.0)))
             for case in ET.parse(report).getroot().iter("testcase")]
    return sorted(times, key=lambda item: -item[1])[:count]


def verdict(results: dict[str, str]) -> list[str]:
    """The reasons the run does not match the documented outcome; empty if it does."""
    problems = []
    if not results:
        problems.append("the report holds no tests")
    for test_id, outcome in sorted(results.items()):
        if outcome == "passed" and test_id in EXPECTED_RED:
            problems.append(f"{test_id} passed; it is documented as red")
        elif outcome != "passed" and test_id not in EXPECTED_RED:
            problems.append(f"{test_id} {outcome}")
        elif outcome in ("error", "skipped"):
            problems.append(f"{test_id} {outcome}; it is documented as failing")
    for test_id in sorted(EXPECTED_RED - results.keys()):
        problems.append(f"{test_id} did not run")
    return problems


def main() -> int:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
    with tempfile.TemporaryDirectory() as tmp:
        report = Path(tmp) / "tier1.xml"
        cmd = [sys.executable, "-m", "pytest", "-q", "--continue-on-collection-errors",
               f"--junitxml={report}"]
        subprocess.run(cmd, cwd=ROOT, env=env, check=False)
        if not report.is_file():
            print("tier1 gate: pytest wrote no report", file=sys.stderr)
            return 1
        results = outcomes(report)
        print(f"tier1 gate: the {SLOWEST} slowest tests")
        for test_id, seconds in slowest(report):
            print(f"  {seconds:7.2f} s  {test_id}")
    problems = verdict(results)
    for line in problems:
        print(f"tier1 gate: {line}", file=sys.stderr)
    if problems:
        return 1
    red = sum(1 for o in results.values() if o != "passed")
    print(f"tier1 gate: {len(results) - red} passed, {red} documented red; as expected")
    return 0


if __name__ == "__main__":
    sys.exit(main())
