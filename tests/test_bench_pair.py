"""The paired-measurement script: its comparison rule and its usage errors."""

import importlib.util
from pathlib import Path

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
                                        "stacked-probes"]


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
