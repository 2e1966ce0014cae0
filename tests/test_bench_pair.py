"""The paired-measurement script: its comparison rule and its usage errors."""

import importlib.util
import json
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

import numpy as np

import pytest

_PATH = Path(__file__).resolve().parent.parent / "scripts" / "bench_pair.py"
_spec = importlib.util.spec_from_file_location("bench_pair", _PATH)
bench_pair = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_pair)


def test_a_float_key_gives_medians_quartiles_ratio_and_pairs_won():
    before = [{"s": 2.0}, {"s": 4.0}, {"s": 6.0}]
    after = [{"s": 1.0}, {"s": 5.0}, {"s": 3.0}]  # won, lost, won
    metric = bench_pair.compare(before, after)["s"]
    assert metric["before"] == {"median": 4.0, "q1": 3.0, "q3": 5.0, "n": 3,
                                "runs": [2.0, 4.0, 6.0]}
    assert metric["after"] == {"median": 3.0, "q1": 2.0, "q3": 4.0, "n": 3,
                               "runs": [1.0, 5.0, 3.0]}
    assert metric["after_over_before"] == 0.75
    assert metric["after_lower_in_pairs"] == 2


def test_a_tie_is_not_a_pair_won():
    metric = bench_pair.compare([{"s": 1.0}, {"s": 2.0}], [{"s": 1.0}, {"s": 3.0}])["s"]
    assert metric["after_lower_in_pairs"] == 0
    assert metric["after_over_before"] == 2.0 / 1.5


def test_a_zero_median_before_gives_no_ratio():
    # a phase whose peak RSS does not rise reads 0.0 MB on both lean trees
    metric = bench_pair.compare([{"mb": 0.0}, {"mb": 0.0}], [{"mb": 0.0}, {"mb": 0.5}])["mb"]
    assert metric["after_over_before"] is None


def test_an_integer_key_gives_each_sides_distinct_values():
    before = [{"steps": 7, "s": 1.0}, {"steps": 5, "s": 1.0}, {"steps": 7, "s": 1.0}]
    after = [{"steps": 6, "s": 1.0}, {"steps": 6, "s": 1.0}, {"steps": 6, "s": 1.0}]
    metrics = bench_pair.compare(before, after)
    assert metrics["steps"] == {"before": [5, 7], "after": [6]}
    assert "median" in metrics["s"]["before"]


def test_a_key_with_one_float_sample_is_summarised():
    metrics = bench_pair.compare([{"x": 0}, {"x": 1}], [{"x": 0.5}, {"x": 1}])
    assert metrics["x"]["before"]["median"] == 0.5
    assert metrics["x"]["after_lower_in_pairs"] == 0


def test_the_cases():
    assert sorted(bench_pair.CASES) == ["averaged-blocks", "import-path", "lean-datasets",
                                        "run-constants", "separated-log", "stacked-probes"]


def test_the_separated_log_margins_are_in_their_regimes():
    names = {}
    exec(bench_pair.SEPARATED_RUNS, names)
    margins = names["margins"]
    assert all(z.shape == (100,) for z in margins.values())
    assert (margins["above 700"] > 700.0).all()
    assert (margins["at or below 700"] <= 700.0).all()
    assert (margins["mixed"] > 700.0).any() and (margins["mixed"] <= 700.0).any()
    assert {(c.eta, c.steps, c.record_every) for c in names["runs"].values()} == {
        (400.0, 20_000, 1), (400.0, 20_000, 20_000)}


def test_the_run_constants_runs_are_recorded_log_runs_on_a_plain_and_a_weighted_set():
    names = {}
    exec(bench_pair.CONSTANTS_RUNS, names)
    plain, weighted = names["datasets"].values()
    assert plain.weights is None and (plain.n, plain.d) == (100, 10)
    assert weighted.weights is not None and weighted.n == 64 and weighted.n_rows < 64
    cfg = names["cfg"]
    assert (cfg.loss.kind, cfg.mode, cfg.eta, cfg.steps, cfg.record_every) == (
        "log", "adaptive", 400.0, 20_000, 1)


def test_a_per_step_key_is_the_fastest_of_its_runs():
    """separated-log and run-constants time RUNS calls of a run and keep
    the fastest, per step; the result returned is the last call's."""
    names = {}
    exec(bench_pair.FASTEST, names)
    runs = names["RUNS"]
    assert runs == 9
    seconds = [5.0, 3.0, 4.0, 9.0, 2.5, 7.0, 3.0, 6.0, 8.0]
    ticks = iter(t for i, d in enumerate(seconds) for t in (10.0 * i, 10.0 * i + d))
    names["time"] = SimpleNamespace(perf_counter=lambda: next(ticks))
    calls = []

    def run():
        calls.append(None)
        return len(calls)

    fastest, result = names["fastest_us_per_step"](run, 10**6)
    assert fastest == pytest.approx(min(seconds))  # s per 1e6 steps = us per step
    assert result == len(calls) == runs
    for child in (bench_pair.SEPARATED_CHILD, bench_pair.CONSTANTS_CHILD):
        assert bench_pair.FASTEST in child


def _child(code: str, held_mb: int = 0) -> dict:
    """The JSON object that a fresh interpreter running `code` prints. It
    is spawned from an interpreter holding `held_mb` MB, as bench_pair.py's
    children are spawned from bench_pair.py: Linux starts a child's
    ru_maxrss at its spawner's RSS, while VmHWM, which the memory keys
    read, starts at the child's own exec."""
    spawn = (f"import subprocess, sys; held = b'1' * ({held_mb} << 20); "
             "sys.exit(subprocess.run(sys.argv[1:]).returncode)")
    proc = subprocess.run([sys.executable, "-c", spawn, sys.executable, "-c", code],
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout)


def _phase_memory(before: str, phase: str, held_mb: int = 0) -> dict:
    """measure's keys for `phase`, in a fresh interpreter that runs
    `before` first."""
    return _child(bench_pair.PHASE_MEMORY + before + (
        "\nimport json\nimport numpy as np\n"
        f"print(json.dumps(measure('p', lambda: {phase})))\n"), held_mb)


def test_a_phase_that_sets_the_high_water_mark_reads_its_allocation_over_its_start():
    """peak_over_start_mb reads the 32 MB; rss_rise_mb reads less by what
    the numpy import peaked above what it left held."""
    got = _phase_memory("", "np.ones(4 << 20)")
    assert sorted(got) == ["p peak_over_start_mb", "p rss_rise_mb", "p s"]
    assert 31.0 <= got["p peak_over_start_mb"] <= 36.0
    # the kernel's RSS counters lag by a few pages, so the two reads differ a little
    assert got["p rss_rise_mb"] <= got["p peak_over_start_mb"] + 1.0


def test_a_phase_under_an_earlier_peak_reads_no_rise_and_that_peak_over_its_start():
    """rss_rise_mb misses a phase that stays under an earlier peak;
    peak_over_start_mb reads that peak over the phase's start, an upper
    bound on what the phase held."""
    got = _phase_memory("import numpy as np\nnp.ones(16 << 20).sum()\n",  # 128 MB, freed
                        "np.ones(4 << 20)")
    assert got["p rss_rise_mb"] < 4.0
    assert got["p peak_over_start_mb"] >= 120.0


def test_a_child_of_a_large_spawner_reads_its_own_peak():
    """Spawned from an interpreter holding 200 MB, a phase still reads its
    32 MB and an import its own peak, not the spawner's 200 MB."""
    got = _phase_memory("", "np.ones(4 << 20)", held_mb=200)
    assert 31.0 <= got["p peak_over_start_mb"] <= 36.0
    imported = _child(bench_pair.IMPORT_CHILD.format(module="json", key="json"), held_mb=200)
    assert imported["json_rss_mb"] < 100.0


def test_the_averaged_blocks_target_run_stops_at_its_first_passage():
    """The target run charges the steps dropped past a first passage only if
    it passes its target within the budget."""
    runs = {}
    exec(bench_pair.AVERAGED_RUNS, runs)
    cfg = runs["cases"]["exp adaptive target"]
    traj = runs["run_gd"](runs["ds"], cfg)
    assert traj.columns["t"][-1] < cfg.steps
    assert traj.columns["log_avg_risk"][-1] <= cfg.target_log_avg_risk


@pytest.mark.parametrize("argv", [
    ["no-such-case", "a/src", "b/src", "out.json"],
    ["import-path", "a/src", "b/src"],
    ["import-path", "a/src", "b/src", "out.json", "10", "extra"],
    [],
    ["import-path", "a/src", "b/src", "out.json", "ten"],
    ["import-path", "a/src", "b/src", "out.json", "1"],
])
def test_usage_errors_exit_2_before_running_anything(argv, tmp_path, capsys, monkeypatch):
    def no_child(*args, **kwargs):
        raise AssertionError("a child was started")

    monkeypatch.setattr(bench_pair.subprocess, "run", no_child)
    monkeypatch.chdir(tmp_path)
    assert bench_pair.main(argv) == 2
    assert "bench_pair.py CASE BEFORE_SRC AFTER_SRC OUT.json [PAIRS]" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []
