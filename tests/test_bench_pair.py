"""The paired-measurement script: its comparison rule and its usage errors."""

import dataclasses
import importlib.util
import json
import math
import os
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
    assert sorted(bench_pair.CASES) == ["averaged-blocks", "bench-command", "branch-once",
                                        "cold-log-run", "constant-step", "import-path",
                                        "lean-datasets", "run-constants", "separated-log",
                                        "stacked-probes", "step-overhead"]


def test_the_branch_once_runs_are_run_large_and_small_poly_and_semicircle_runs(monkeypatch):
    """branch-once times perfbench run-large's unit (its dataset and
    GDConfig at seed 0) and adaptive poly:2 and semicircle runs at d = 10,
    n = 100, the fastest of RUNS calls each."""
    import margin_lab.datasets

    made = []

    def recording(d, n, gamma, seed):
        made.append((d, n, gamma, seed))
        return f"random d={d} n={n}"

    monkeypatch.setattr(margin_lab.datasets, "gen_random_separable", recording)
    names = {}
    exec(bench_pair.BRANCH_ONCE_RUNS, names)
    assert made == [(10, 100, 0.1, 0), (1000, 10_000, 0.1, 0)]
    assert {name: (ds, c.loss.name, c.mode, c.eta, c.steps, c.record_every)
            for name, (ds, c) in names["runs"].items()} == {
        "log run-large": ("random d=1000 n=10000", "log", "adaptive", 400.0, 50, 50),
        "poly:2 adaptive": ("random d=10 n=100", "poly:2", "adaptive", 50.0, 2000, 2000),
        "semicircle adaptive": ("random d=10 n=100", "semicircle", "adaptive", 50.0, 2000,
                                2000)}
    assert bench_pair.FASTEST in bench_pair.BRANCH_ONCE_CHILD
    assert bench_pair.CASES["branch-once"].children == ((bench_pair.BRANCH_ONCE_CHILD,),)


def test_the_constant_step_runs_are_benchs_constant_cell(monkeypatch):
    """The constant-step case's first run is the GDConfig bench's constant
    method passes to run_gd, on bench's default dataset at seed 0; its
    second records every step; its third is the GDConfig of bench's
    small-adaptive method."""
    from margin_lab import cli

    names = {}
    exec(bench_pair.CONSTANT_STEP_RUNS, names)
    cfg = cli.parse_config("", "bench")
    (gamma,) = cfg["gammas"]
    ds = cli.make_dataset(cli.DatasetSpec("random", {"d": cfg["d"], "n": cfg["n"],
                                                     "gamma": gamma}), 0)
    assert ds.features.tobytes() == names["ds"].features.tobytes()
    given = []
    monkeypatch.setattr(cli, "run_gd", lambda ds, config: given.append(config) or SimpleNamespace(
        columns={"t": [], "log_avg_risk": []}, diverged_at=None))
    cli._bench_gd(cfg, ds, "constant", gamma, cfg["epsilons"], "constant", cfg["eta_constant"])
    cli._bench_gd(cfg, ds, "small-adaptive", gamma, cfg["epsilons"], "adaptive",
                  cfg["eta_small"])
    bench, recorded, small_adaptive = names["runs"].values()
    assert given == [bench, small_adaptive]
    assert recorded == dataclasses.replace(bench, record_every=1)


def test_the_cold_run_is_an_adaptive_log_run(tmp_path):
    """The config the cold-log-run child runs: log, adaptive:400, 50 steps
    on d = 10, n = 100."""
    from margin_lab.cli import parse_config

    subprocess.run([sys.executable, "-c", bench_pair.COLD_RUN_INPUTS, str(tmp_path)],
                   check=True, timeout=60)
    cfg = parse_config((tmp_path / "log.cfg").read_text(), "run")
    assert (cfg["loss"].name, cfg["stepsize"], cfg["steps"], cfg["dataset"].kind,
            cfg["dataset"].params) == ("log", ("adaptive", 400.0), 50, "random",
                                       {"d": 10, "n": 100, "gamma": 0.1})


def test_the_step_overhead_runs_are_benchs_and_run_recordeds():
    """bench's two GD runs as bench made them before it recorded only its
    first passages (every step recorded, one target: the smallest
    epsilon's), and run-recorded's run and run-nn, read off the GDConfig
    each run is given."""
    names = {}
    exec(bench_pair.STEP_RUNS, names)
    ds = names["ds"]
    assert ds.weights is None and (ds.n, ds.d, ds.gamma) == (100, 10, 0.1)
    configs = {}
    names["run_gd"] = lambda ds, cfg: configs.setdefault("gd", []).append(cfg)
    names["run_gd_nn"] = lambda ds, net, cfg: configs.update(nn=(net, cfg))
    for run in names["runs"].values():
        run()
    assert [(c.loss.kind, c.mode, c.eta, c.steps, c.record_every, c.target_log_avg_risk)
            for c in configs["gd"]] == [
        ("exp", "constant", 1.0, 20_000, 1, math.log(1e-12)),
        ("exp", "adaptive", 1.0, 20_000, 1, math.log(1e-12)),
        ("log", "adaptive", 400.0, 20_000, 1, None)]
    net, cfg = configs["nn"]
    assert (net.m, net.activation.name, cfg.loss.kind, cfg.eta, cfg.steps) == (
        16, "leakyrelu:0.5", "exp", 400.0, 5000)
    assert bench_pair.FASTEST in bench_pair.STEP_CHILD


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


def test_src_sha256_names_the_package_bytes_only(tmp_path):
    """Two copies of one tree hash alike, one changed byte changes the
    hash, and a __pycache__ file does not."""
    import shutil

    src = _PATH.parent.parent / "src"
    a, b = tmp_path / "a", tmp_path / "b"
    for copy in (a, b):
        shutil.copytree(src, copy, ignore=shutil.ignore_patterns("__pycache__"))
    base = bench_pair.src_sha256(str(a))
    assert bench_pair.src_sha256(str(b)) == base and len(base) == 64
    losses = b / "margin_lab" / "losses.py"
    data = bytearray(losses.read_bytes())
    data[0] ^= 1
    losses.write_bytes(bytes(data))
    assert bench_pair.src_sha256(str(b)) != base
    cache = a / "margin_lab" / "__pycache__"
    cache.mkdir()
    (cache / "losses.cpython-311.pyc").write_bytes(b"\0" * 16)
    (cache / "stray.py").write_text("x = 1\n")
    assert bench_pair.src_sha256(str(a)) == base


def test_the_bench_command_child_times_nine_runs_after_a_warm_one(tmp_path):
    """The child calls cli.main with the default bench ten times, the first
    untimed, and prints the fastest and the median of the other nine and
    its peak RSS. Run here against a stand-in margin_lab.cli."""
    fake = tmp_path / "fake" / "margin_lab"
    fake.mkdir(parents=True)
    (fake / "__init__.py").write_text("")
    (fake / "cli.py").write_text(
        "calls = []\n"
        "def main(argv):\n"
        "    calls.append(argv)\n"
        "    if len(calls) == 10:\n"
        "        print(repr(calls))\n"
        "    return 0\n")
    proc = subprocess.run([sys.executable, "-c", bench_pair.BENCH_COMMAND_CHILD, str(tmp_path)],
                          env={**os.environ, "PYTHONPATH": str(fake.parent)},
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    calls, line = proc.stdout.splitlines()
    assert eval(calls) == [["bench", "--out", f"{tmp_path}/bench"]] * 10
    out = json.loads(line)
    assert sorted(out) == ["bench_fastest_s", "bench_median_s", "bench_peak_rss_mb"]
    assert 0.0 <= out["bench_fastest_s"] <= out["bench_median_s"]
    assert bench_pair.CASES["bench-command"].children == ((bench_pair.BENCH_COMMAND_CHILD,),)


def _git(root, *args):
    return subprocess.run(["git", "-c", "user.name=t", "-c", "user.email=t@example.com",
                           "-c", "commit.gpgsign=false", *args], cwd=root, check=True,
                          capture_output=True, text=True, timeout=60).stdout.strip()


def test_a_src_that_differs_from_its_commit_is_marked_dirty(tmp_path):
    """A clean checkout gives its HEAD, an edit or a new file under src
    gives "<sha>+dirty", and a tree without .git gives "unknown"."""
    src = tmp_path / "repo" / "src"
    (src / "margin_lab").mkdir(parents=True)
    module = src / "margin_lab" / "m.py"
    module.write_text("x = 1\n")
    (tmp_path / "repo" / "notes.txt").write_text("outside src\n")
    _git(src.parent, "init", "-q")
    _git(src.parent, "add", "-A")
    _git(src.parent, "commit", "-q", "-m", "one")
    sha = _git(src.parent, "rev-parse", "HEAD")
    assert bench_pair.commit_of(str(src)) == sha
    (tmp_path / "repo" / "notes.txt").write_text("an edit outside src\n")
    assert bench_pair.commit_of(str(src)) == sha
    module.write_text("x = 2\n")
    assert bench_pair.commit_of(str(src)) == f"{sha}+dirty"
    module.write_text("x = 1\n")
    (src / "margin_lab" / "new.py").write_text("")
    assert bench_pair.commit_of(str(src)) == f"{sha}+dirty"
    bare = tmp_path / "bare" / "src"
    bare.mkdir(parents=True)
    assert bench_pair.commit_of(str(bare)) == "unknown"
