"""What the repository's own code and docs read of a Trajectory, what a
Trajectory still offers to read, and the README's Quick start run as
written."""

import math
import re
from pathlib import Path

import numpy as np
import pytest

from margin_lab.datasets import gen_random_separable
from margin_lab.descent import GDConfig, run_gd
from margin_lab.losses import EXP

ROOT = Path(__file__).resolve().parent.parent

# A read of the per-row views: points, final, or column() of a derived name.
VIEW_READ = re.compile(r"""\.points\b|\.final\b|\.column\(\s*["'](risk|avg_risk|stepsize)["']\s*\)""")
# descent.py defines the views; this file names them in VIEW_READ.
EXEMPT = {ROOT / "src" / "margin_lab" / "descent.py", Path(__file__).resolve()}


def test_nothing_reads_the_per_row_views():
    """A trajectory is read through its columns: src/, scripts/, tests/ and
    the README read no per-row view."""
    files = [ROOT / "README.md"] + sorted(
        path for top in ("src", "scripts", "tests") for path in (ROOT / top).rglob("*.py"))
    reads = [f"{path.relative_to(ROOT)}:{number}: {line.strip()}"
             for path in files if path.resolve() not in EXEMPT
             for number, line in enumerate(path.read_text().splitlines(), start=1)
             if VIEW_READ.search(line)]
    assert not reads, "\n".join(reads)


def test_the_view_pattern_matches_each_read():
    for line in ("traj.points[-1].t", "for p in traj.points:", "traj.final.min_margin",
                 'traj.column("risk")', "traj.column('avg_risk')", 'traj.column("stepsize")'):
        assert VIEW_READ.search(line), line
    for line in ('traj.columns["t"][-1]', 'traj.column("log_risk")', 'traj.column("w")',
                 "_probe_points(rng, ds, 3)", "self.finalize()"):
        assert not VIEW_READ.search(line), line


def test_column_reads_the_recorded_columns_only():
    """column(name) is columns[name] as an array; the derived names are
    neither columns nor attributes of a point."""
    traj = run_gd(gen_random_separable(5, 20, 0.2, seed=11), GDConfig(loss=EXP, eta=1.0, steps=3))
    for name, values in traj.columns.items():
        assert traj.column(name).tobytes() == np.array(values).tobytes(), name
    point = traj.points[-1]
    assert (point.t, point.w.tobytes()) == (3, traj.columns["w"][-1].tobytes())
    for name in ("risk", "avg_risk", "stepsize"):
        with pytest.raises(KeyError):
            traj.column(name)
        assert not hasattr(point, name)


def test_a_run_without_rows_has_empty_columns():
    """A run that diverges at t = 0, here from an init whose margins
    overflow, records no row: every column reads as an empty array."""
    ds = gen_random_separable(5, 20, 0.2, seed=11)
    traj = run_gd(ds, GDConfig(loss=EXP, eta=1.0, steps=5, init=np.full(ds.d, 1.7e308)))
    assert traj.diverged_at == 0 and len(traj.points) == 0
    for name in ("t", "w", "log_risk", "avg_min_margin"):
        assert traj.column(name).shape == (0,), name


def test_the_readme_quick_start_runs(capsys):
    blocks = re.findall(r"```python\n(.*?)```", (ROOT / "README.md").read_text(), re.S)
    assert len(blocks) == 1
    exec(compile(blocks[0], "README.md", "exec"), {})
    log_avg_risk, min_margin = map(float, capsys.readouterr().out.split())
    assert math.isfinite(log_avg_risk) and math.isfinite(min_margin)
