"""The sample count n has one home, Dataset.n: a LossSpec holds none, and
the repository's own code and docs never bind one to a spec."""

import dataclasses
import re
from pathlib import Path

import margin_lab
from margin_lab import descent
from margin_lab.losses import EXP, LOG, LossSpec, poly

ROOT = Path(__file__).resolve().parent.parent

BINDS_N = re.compile(r"\.with_n\(")


def test_nothing_binds_n_to_a_spec():
    """src/, tests/ and the README call no with_n; this file names it."""
    files = [ROOT / "README.md"] + sorted(
        path for top in ("src", "tests") for path in (ROOT / top).rglob("*.py")
        if path.resolve() != Path(__file__).resolve())
    calls = [f"{path.relative_to(ROOT)}:{number}: {line.strip()}"
             for path in files
             for number, line in enumerate(path.read_text().splitlines(), start=1)
             if BINDS_N.search(line)]
    assert not calls, "\n".join(calls)


def test_the_pattern_matches_each_call():
    for line in ("EXP.with_n(ds.n)", "loss.with_aggregation(agg).with_n(100)", "x.with_n( n )"):
        assert BINDS_N.search(line), line
    for line in ("`LossSpec.with_n` returns the spec", "def with_n(self, n):", "with_n_rows(3)"):
        assert not BINDS_N.search(line), line


def test_a_spec_holds_no_sample_count():
    assert [f.name for f in dataclasses.fields(LossSpec)] == ["kind", "k", "aggregation"]
    for spec in (EXP, LOG.with_aggregation("sum"), poly(2.0)):
        assert spec.with_n(12) is spec  # kept for outside callers; binds nothing
    for name in ("_check_sum_n", "log_adaptive_stepsize"):
        assert not hasattr(descent, name) and not hasattr(margin_lab, name), name
