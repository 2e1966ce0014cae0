"""Self-tests of the benchmark, at the tiny size except for run-large's
check, which is tested where it is measured (about two minutes).

    python3 -m pytest -q perfbench
"""

from __future__ import annotations

import copy
import json
import shutil
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

import check  # noqa: E402
import run  # noqa: E402
import tracer  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


def _run(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, "perfbench/run.py", *args], capture_output=True,
                          text=True, cwd=cwd, timeout=170)


@pytest.fixture(scope="module", params=sorted(WORKLOADS))
def tiny_work(request, tmp_path_factory):
    refs = check.load_references(run.REFERENCES / f"tiny-{request.param}.json")
    work = WORKLOADS[request.param](0, "tiny", tmp_path_factory.mktemp(request.param))
    work.setup()
    work.warm_up()
    work.unit()
    return work, refs["0"]


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_each_workload_reports_every_named_metric(name, trace):
    proc = _run("--workload", name, "--seed", "5", "--seconds", "1", "--trace", str(trace),
                "--size", "tiny")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    expected = run.metric_units()[trace]
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
    if not trace:
        assert all(v["value"] > 0 for v in result["metrics"].values())


def test_reference_matches_a_fresh_unit(tiny_work):
    work, ref = tiny_work
    assert check.compare(ref, work.summary()) == []


def _corrupt(summary: dict, pick) -> dict:
    bad = copy.deepcopy(summary)
    key = next(k for k in sorted(bad) if pick(k, bad[k]))
    entry = bad[key]
    if "x" in entry:
        value = entry["x"]
        if isinstance(value, bool):
            entry["x"] = not value
        elif isinstance(value, int):
            entry["x"] = value + 1
        elif value == "pass":
            entry["x"] = "fail"
        elif value == "fail":
            entry["x"] = "pass"
        else:
            entry["x"] = str(int(value) + 1)  # a bench step count
    else:
        entry["f"] = check._val(entry["f"]) + 10 * check.RTOL[entry["tol"]] * check._val(entry["scale"])
    return bad


@pytest.mark.parametrize("what", ["bench step count", "verdict", "row count", "late float",
                                  "prefix float"])
def test_check_rejects_a_corrupted_output(what, tiny_work):
    work, ref = tiny_work
    summary = work.summary()
    picks = {
        "bench step count": (lambda k, e: k.endswith(".steps") and e["x"].isdigit(), "bench-grid"),
        "verdict": (lambda k, e: k.endswith(".verdict"), "verify-suite"),
        "row count": (lambda k, e: k.endswith(".rows"), None),
        "late float": (lambda k, e: e.get("tol") == "loose", None),
        "prefix float": (lambda k, e: e.get("tol") == "tight", None),
    }
    pick, only = picks[what]
    if only not in (None, work.name) or not any(pick(k, e) for k, e in summary.items()):
        pytest.skip(f"{work.name} has no {what}")
    assert check.compare(ref, _corrupt(summary, pick)) != []


def test_check_accepts_rounding_changes(tiny_work):
    work, ref = tiny_work
    summary = copy.deepcopy(work.summary())
    for entry in summary.values():
        if "f" in entry and isinstance(entry["f"], float):
            entry["f"] *= 1.0 + 4e-16
    assert check.compare(ref, summary) == []


@pytest.fixture(scope="module")
def full_run_large(tmp_path_factory):
    refs = check.load_references(run.REFERENCES / "full-run-large.json")
    work = WORKLOADS["run-large"](0, "full", tmp_path_factory.mktemp("run-large-full"))
    work.setup()
    return work, refs["0"]


def _faulty_grad_phi(fault: str):
    from margin_lab import descent

    original, calls = descent.grad_phi, []

    def grad_phi(w, ds, loss):
        calls.append(None)
        g = original(w, ds, loss)
        if fault == "one update dropped":
            return 0.0 * g if len(calls) == 25 else g
        return 0.99 * g

    return grad_phi


@pytest.mark.parametrize("fault", ["one update dropped", "gradient scaled by 0.99"])
def test_run_large_check_rejects_a_wrong_run(fault, full_run_large, monkeypatch):
    from margin_lab import descent

    work, ref = full_run_large
    monkeypatch.setattr(descent, "grad_phi", _faulty_grad_phi(fault))
    work.unit()
    assert check.compare(ref, work.summary()) != []


def test_run_large_check_accepts_a_one_ulp_input_change(full_run_large):
    work, ref = full_run_large
    work.unit()
    assert check.compare(ref, work.summary()) == []
    nudged = copy.copy(work)
    nudged.ds = replace(work.ds, features=np.nextafter(work.ds.features, np.inf))
    nudged.unit()
    assert nudged.fingerprint() != work.fingerprint()
    assert check.compare(ref, nudged.summary()) == []


def test_steps_are_counted_from_each_runs_result(tiny_work):
    work, ref = tiny_work
    run.clock.use_floor_matrix(work.floor_matrix())
    counter = tracer.Tracer()
    counter.install(only=tracer.RUNNERS)
    try:
        phase = run.Phase(work, ref, counter, work.probe).run(0.0, min_units=2)
    finally:
        counter.uninstall()
    assert phase.failed == 0 and len(phase.steps) == 2
    assert phase.steps[0] == phase.steps[1] > 0
    if work.name == "run-large":
        assert phase.steps == [50, 50]


def test_sampler_scales_by_the_probe_speed_and_takes_probes_out(monkeypatch):
    import signal
    import time

    import clock

    def slow_probe(kind):
        time.sleep(0.01)
        return 0.5

    monkeypatch.setattr(clock, "core_speed", slow_probe)
    handler = signal.getsignal(signal.SIGALRM)
    with clock.Sampler() as timed:
        time.sleep(0.35)  # resumed after each probe, to the same deadline
    assert signal.getsignal(signal.SIGALRM) is handler
    assert len(timed.speeds) >= 4  # before, at least two samples, after
    assert 0.2 < timed.raw_s <= 0.35 - 0.01 * (len(timed.speeds) - 2) + 5e-3
    assert timed.seconds == pytest.approx(0.5 * timed.raw_s)
    with clock.Sampler(None) as raw:
        time.sleep(0.05)
    assert raw.speeds == [] and raw.seconds == raw.raw_s


def test_tracing_leaves_outputs_identical(tiny_work):
    work, _ = tiny_work
    plain = work.fingerprint()
    tr = tracer.Tracer()
    tr.install()
    try:
        work.unit()
    finally:
        tr.uninstall()
    assert tr.mark() > 0
    assert work.fingerprint() == plain


def test_uninstall_restores_every_original():
    import margin_lab
    from margin_lab import cli, datasets, descent

    before = (margin_lab.run_gd, cli.run_gd, descent.run_gd, datasets.Dataset.margins)
    tr = tracer.Tracer()
    tr.install()
    assert cli.run_gd is descent.run_gd is margin_lab.run_gd is not before[0]
    tr.uninstall()
    assert (margin_lab.run_gd, cli.run_gd, descent.run_gd, datasets.Dataset.margins) == before


def test_self_time_subtracts_children():
    tr = tracer.Tracer()
    tr.span_name.extend([0, 0])
    tr.span_parent.extend([-1, 0])
    tr.span_start.extend([0.0, 1.0])
    tr.span_end.extend([10.0, 4.0])
    tr.names.append("descent.run_gd")
    tr._ids["descent.run_gd"] = 0
    s = tr.summary()["descent.run_gd"]
    assert (s["calls"], s["total_s"], s["self_s"]) == (2, 13.0, 10.0)


def test_tail_keeps_ten_samples_beyond_but_not_below_the_median():
    assert run.tail([float(i) for i in range(30)]) == (19.0, 100.0 * 20 / 30, 10)
    assert run.tail([float(i) for i in range(12)]) == (6.0, 100.0 * 7 / 12, 5)
    assert run.tail([3.0, 1.0, 2.0]) == (2.0, 100.0 * 2 / 3, 1)
    assert run.tail([5.0]) == (5.0, 100.0, 0)


def test_bare_directory_fails_without_a_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = _run("--workload", "run-large", "--seed", "0", "--seconds", "1", "--trace", "0",
                cwd=tmp_path)
    assert proc.returncode != 0
    assert "correct" not in proc.stdout
