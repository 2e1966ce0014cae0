"""margin-lab benchmark: four closed-loop workloads, end-to-end and per-layer metrics.

One workload, one process:

    python3 perfbench/run.py --workload bench-grid --seed 0 --seconds 20 --trace 0

``--trace 0`` measures the end-to-end metrics with only tracer.RUNNERS wrapped,
to count the steps each run completed. Times are normalised to a fixed host
speed by probes interleaved with the work (clock.py). ``--trace 1`` first
repeats that untraced pass, then a traced pass of the same length that wraps
every public margin_lab function (tracer.py) and reports the per-layer
metrics and ``trace_overhead``, in raw seconds. Every unit's output is
checked against the reference recorded for its input seed (check.py); the
last line of stdout is the JSON result, and the full result with provenance
goes to perfbench/out/.

Everything, one line per metric with its unit, plus the correctness check:

    python3 perfbench/run.py --all [--seconds 20] [--trace 1]

Only the rows of the ROADMAP baseline table:

    python3 perfbench/run.py --baseline

Record references (only at a commit whose outputs are known good):

    python3 perfbench/run.py --record-references --workload run-large --size full
"""

from __future__ import annotations

import os
import sys


def clear_thread_env() -> None:
    """Keep the caller's thread settings out of the numbers: BLAS runs at its
    default thread count and the library's own knob is unset."""
    for key in list(os.environ):
        if key.endswith("_NUM_THREADS") or key == "MARGIN_LAB_THREADS":
            del os.environ[key]


if __name__ == "__main__":
    clear_thread_env()  # before numpy is imported

import argparse  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

import clock  # noqa: E402
from check import compare, load_references, save_references  # noqa: E402
from provenance import matvec_pair_s, provenance  # noqa: E402
from tracer import LOSS_KERNELS, RUNNERS, Tracer, steps  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
REFERENCES = HERE / "reference"

# Input seeds with recorded references. Any other --seed n runs input seed
# n % len(DEV_SEEDS); HOLDOUT_SEED is recorded but never reached that way,
# so it stays unseen while a change is written and can back its claim.
DEV_SEEDS = {"full": range(20), "tiny": range(2)}
HOLDOUT_SEED = 1000

SETUP_REPEATS = 3  # fresh interpreters timed for setup_s
IMPORT_REPEATS = 17  # fresh-interpreter imports for import_s: the setup ones plus import-only ones

CHECKS = ("check_averaged_risk_bound", "check_stepsize_cap", "check_batch_hard_instance",
          "check_chain_hard_instance", "check_online_hard_instance",
          "check_risk_implies_separation", "check_gradient_inequalities",
          "check_network_inequalities", "check_general_loss_bound")
LOSS_METHODS = ("log_value", "log_abs_deriv", "log_neg_inv_deriv", "deriv", "inverse")


def metric_units() -> tuple[dict, dict]:
    """(end-to-end, per-layer) metric name -> unit, as BENCHMARK.json declares them."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return ({m["name"]: m["unit"] for m in spec["end_to_end"]},
            {m["name"]: m["unit"] for m in spec["per_layer"]})


# ---------------------------------------------------------------------------
# child processes
# ---------------------------------------------------------------------------

def _child_env(**extra) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join([str(SRC), env.get("PYTHONPATH", "")]).rstrip(os.pathsep)
    env.update(extra)
    return env


def _child(*args: str, python_flags=(), env=None, timeout=120) -> tuple[dict, str]:
    proc = subprocess.run([sys.executable, *python_flags, str(HERE / "child.py"), *args],
                          capture_output=True, text=True, timeout=timeout,
                          env=env or _child_env(), cwd=ROOT)
    if proc.returncode != 0:
        raise RuntimeError(f"child {args} failed:\n{proc.stderr[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1]), proc.stderr


def scipy_optimize_import_s() -> float:
    """Cumulative import time of scipy.optimize from ``-X importtime``."""
    _, stderr = _child("import", python_flags=("-X", "importtime"))
    for line in stderr.splitlines():
        parts = [p.strip() for p in line.split("|")]
        if len(parts) == 3 and parts[2] == "scipy.optimize":
            return int(parts[1]) * 1e-6
    return 0.0


# ---------------------------------------------------------------------------
# measurement
# ---------------------------------------------------------------------------

def tail(times: list[float]) -> tuple[float, float, int]:
    """(value, percentile, samples beyond): the highest percentile with at
    least ten samples above it, but never below the median. With fewer than
    22 samples no percentile has both, so the upper median is reported with
    the count that lies beyond it."""
    s = sorted(times)
    n = len(s)
    i = max(n - 11, n // 2)
    return s[i], 100.0 * (i + 1) / n, n - 1 - i


class Phase:
    """One closed loop of units under a time budget, each output checked.

    ``counter`` is an installed Tracer whose RUNNERS hooks count the steps
    each unit completed. ``times`` are normalised to the reference host speed
    by the clock.py probe named ``probe``, or raw if it is None; ``raw_times``
    are raw.
    """

    def __init__(self, work, reference: dict, counter: Tracer, probe: str | None):
        self.work = work
        self.reference = reference
        self.counter = counter
        self.probe = probe
        self.times: list[float] = []
        self.raw_times: list[float] = []
        self.speeds: list[float] = []
        self.steps: list[int] = []
        self.attempted = 0
        self.failed = 0
        self.fingerprints: set[str] = set()
        self.output_bytes = 0

    def run(self, seconds: float, min_units: int = 1) -> "Phase":
        start = time.perf_counter()
        while self.attempted < 100_000:
            self.attempted += 1
            try:
                before = steps(self.counter.extra)
                with clock.Sampler(self.probe) as timed:
                    self.work.unit()
                done = steps(self.counter.extra) - before
                problems = compare(self.reference, self.work.summary())
                self.fingerprints.add(self.work.fingerprint())
                self.output_bytes += sum(p.stat().st_size for p in self.work.output_files())
            except Exception:  # a failed operation is counted, the loop goes on
                traceback.print_exc(file=sys.stderr)
                self.failed += 1
            else:
                self.times.append(timed.seconds)
                self.raw_times.append(timed.raw_s)
                self.speeds.append(timed.speed)
                self.steps.append(done)
                if problems:
                    self.failed += 1
                    print(f"{self.work.name}: output differs from the reference:",
                          *problems[:10], sep="\n  ", file=sys.stderr)
            elapsed = time.perf_counter() - start
            typical = statistics.median(self.raw_times) if self.raw_times else 0.0
            if elapsed + typical > seconds and len(self.times) >= min_units:
                break
        return self

    @property
    def wall_s(self) -> float:
        return statistics.median(self.times) if self.times else 0.0

    @property
    def raw_wall_s(self) -> float:
        return statistics.median(self.raw_times) if self.raw_times else 0.0

    @property
    def steps_per_s(self) -> float:
        """Median over units of the steps a unit completed per second."""
        return statistics.median(n / t for n, t in zip(self.steps, self.times))


def _gen_seconds(summary: dict) -> tuple[int, float]:
    calls = sum(v["calls"] for k, v in summary.items() if k.startswith("datasets.gen_"))
    secs = sum(v["total_s"] for k, v in summary.items() if k.startswith("datasets.gen_"))
    return calls, secs


def layer_metrics(tr, begin: int, end: int, extra: dict, units: int, setup: dict,
                  floor: dict, traced: Phase, untraced: Phase) -> dict:
    s = tr.summary(begin, end)
    zero = {"calls": 0, "total_s": 0.0, "self_s": 0.0}

    def get(name):
        return s.get(name, zero)

    m = {}
    for fn in ("run_gd", "risk", "grad_phi", "grad_risk"):
        m[f"descent.{fn}.calls"] = get(f"descent.{fn}")["calls"] / units
        m[f"descent.{fn}.self_s"] = get(f"descent.{fn}")["self_s"] / units
    gd = s["_gd"]
    step_s = get("descent.run_gd")["total_s"] / gd["steps"] if gd["steps"] else 0.0
    m["descent.steps"] = gd["steps"] / units
    m["descent.us_per_step"] = step_s * 1e6
    m["descent.step_over_floor"] = step_s / floor["default"]
    m["datasets.passes_per_step"] = gd["passes"] / gd["steps"] if gd["steps"] else 0.0
    margins = get("datasets.margins")
    m["datasets.margins.calls"] = margins["calls"] / units
    m["datasets.margins.self_s"] = margins["self_s"] / units
    m["datasets.min_margin.calls"] = get("datasets.min_margin")["calls"] / units
    m["datasets.gbps_computed"] = (extra["datasets.margins.bytes"] / margins["self_s"] / 1e9
                                   if margins["self_s"] else 0.0)
    gen_calls, gen_s = _gen_seconds(s)
    setup_calls, setup_s = _gen_seconds(setup)
    m["datasets.gen.calls"] = setup_calls + gen_calls / units
    m["datasets.gen.s"] = setup_s + gen_s / units
    m["floor.matvec_pair_s"] = floor["default"]
    m["floor.matvec_pair_1t_s"] = floor["single_thread"]
    for fn in LOSS_METHODS:
        m[f"losses.{fn}.calls"] = get(f"losses.{fn}")["calls"] / units
        m[f"losses.{fn}.self_s"] = get(f"losses.{fn}")["self_s"] / units
    kernel_s = sum(get(f"losses.{fn}")["self_s"] for fn in LOSS_KERNELS)
    m["losses.elements"] = extra["losses.elements"] / units
    m["losses.ns_per_elem"] = kernel_s / extra["losses.elements"] * 1e9 if extra["losses.elements"] else 0.0
    m["online.run_perceptron.calls"] = get("online.run_perceptron")["calls"] / units
    m["online.run_perceptron.self_s"] = get("online.run_perceptron")["self_s"] / units
    online_s = get("online.run_perceptron")["total_s"] + get("online.run_online_sgd")["total_s"]
    m["online.presentations"] = extra["online.presentations"] / units
    m["online.us_per_presentation"] = (online_s / extra["online.presentations"] * 1e6
                                       if extra["online.presentations"] else 0.0)
    for fn in ("run_gd_nn", "nn_risk", "nn_grad_phi"):
        m[f"two_layer.{fn}.calls"] = get(f"two_layer.{fn}")["calls"] / units
        m[f"two_layer.{fn}.self_s"] = get(f"two_layer.{fn}")["self_s"] / units
    m["two_layer.leaky_blend.calls"] = get("two_layer.leaky_blend")["calls"] / units
    m["two_layer.leaky_blend.s"] = get("two_layer.leaky_blend")["total_s"] / units
    for fn in CHECKS:
        owner = "online" if fn == "check_online_hard_instance" else "verify"
        m[f"verify.{fn}.calls"] = get(f"{owner}.{fn}")["calls"] / units
        m[f"verify.{fn}.s"] = get(f"{owner}.{fn}")["total_s"] / units
    m["cli.self_s"] = sum(v["self_s"] for k, v in s.items() if k.startswith("cli.")) / units
    m["cli.output_bytes"] = traced.output_bytes / units
    m["trace.spans"] = (end - begin) / units
    m["trace_overhead"] = traced.raw_wall_s - untraced.raw_wall_s
    return m


def run_workload(name: str, seed: int, seconds: float, trace: bool, size: str,
                 min_units: int = 1) -> dict:
    from workloads import WORKLOADS

    refs = load_references(REFERENCES / f"{size}-{name}.json")
    input_seed = seed if str(seed) in refs else seed % len(DEV_SEEDS[size])
    if str(input_seed) not in refs:
        raise SystemExit(f"no reference outputs for {name} input seed {input_seed} at size {size}")
    work = WORKLOADS[name](input_seed, size, OUT / name)

    # In-process set-up: makes the inputs this process measures with (and
    # compiles the library's bytecode before the timed fresh interpreters).
    tr = Tracer() if trace else None
    if tr:
        tr.install()
    work.setup()
    clock.use_floor_matrix(work.floor_matrix())
    setup_spans = tr.summary() if tr else {}
    if tr:
        tr.uninstall()
    work.warm_up()

    children = [_child("setup", name, str(input_seed), size, str(OUT / f"{name}.setup{i}"))[0]
                for i in range(SETUP_REPEATS)]
    children += [_child("import")[0] for _ in range(IMPORT_REPEATS - SETUP_REPEATS)]
    setups = [c["setup_s"] for c in children if "setup_s" in c]
    floor_shape = work.floor_shape
    floor = {
        "shape": list(floor_shape),
        "default": matvec_pair_s(work.floor_matrix()),
        "single_thread": _child("floor", *map(str, floor_shape),
                                env=_child_env(OPENBLAS_NUM_THREADS="1"))[0]["matvec_pair_s"],
    }

    # Only the runners are wrapped while the end-to-end metrics are
    # measured: one span per optimisation run, to count its steps.
    counter = Tracer()
    counter.install(only=RUNNERS)
    try:
        untraced = Phase(work, refs[str(input_seed)], counter, work.probe).run(seconds, min_units)
    finally:
        counter.uninstall()
    phases = [untraced]
    layers = None
    if tr:
        tr.install()
        before = dict(tr.extra)
        begin = tr.mark()
        traced = Phase(work, refs[str(input_seed)], tr, None).run(seconds, min_units)
        end = tr.mark()
        tr.uninstall()
        extra = {k: tr.extra[k] - before.get(k, 0.0) for k in tr.extra}
        if traced.fingerprints and traced.fingerprints != untraced.fingerprints:
            traced.failed += 1
            print(f"{name}: traced output differs from the untraced output", file=sys.stderr)
        phases.append(traced)
        layers = layer_metrics(tr, begin, end, extra, max(len(traced.times), 1),
                               setup_spans, floor, traced, untraced)
        layers["import.scipy_optimize_s"] = statistics.median(
            scipy_optimize_import_s() for _ in range(SETUP_REPEATS))
        tr.save(OUT / f"{name}.trace.npz")

    times = untraced.times
    if not times:
        raise SystemExit(f"{name}: no unit of work completed")
    tail_value, tail_pct, beyond = tail(times)
    e2e = {
        "wall_s": untraced.wall_s,
        "wall_s_tail": tail_value,
        "steps_per_s": untraced.steps_per_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "import_s": statistics.median(c["import_s"] for c in children),
        "setup_s": statistics.median(setups),
    }
    attempted = sum(p.attempted for p in phases)
    failed = sum(p.failed for p in phases)
    return {
        "workload": name, "seed": seed, "input_seed": input_seed, "size": size,
        "seconds": seconds, "trace": trace,
        "end_to_end": e2e, "per_layer": layers,
        "units": len(times), "unit_steps": untraced.steps, "unit_s": times,
        "probe": work.probe, "unit_raw_s": untraced.raw_times,
        "unit_host_speed": untraced.speeds, "wall_raw_s": untraced.raw_wall_s,
        "import_raw_s": statistics.median(c["import_raw_s"] for c in children),
        "probe_ref_s": {kind: p.ref_s for kind, p in clock.PROBES.items()},
        "traced_unit_raw_s": phases[1].raw_times if trace else None,
        "wall_s_tail_percentile": tail_pct, "wall_s_tail_beyond": beyond,
        "error_rate": failed / attempted, "attempted": attempted, "failed": failed,
        "floor": floor, "array_bytes": int(math.prod(floor_shape) * 8),
        "provenance": provenance(ROOT),
    }


def report(result: dict) -> dict:
    """Print the human-readable block and return the final JSON line's object."""
    e2e_units, layer_units = metric_units()
    print(f"workload {result['workload']}  seed {result['seed']} (input seed "
          f"{result['input_seed']})  size {result['size']}  {result['units']} units, "
          f"median {statistics.median(result['unit_steps']):.0f} steps each")
    for key, value in result["end_to_end"].items():
        line = f"  {key:<14} {value:.6g} {e2e_units[key]}"
        if key == "wall_s_tail":
            line += (f"  (p{result['wall_s_tail_percentile']:.0f} of {result['units']} samples, "
                     f"{result['wall_s_tail_beyond']} beyond)")
        print(line)
    print(f"  (times at the reference host speed by the {result['probe']} probe; raw wall_s "
          f"{result['wall_raw_s']:.6g} s, median host speed "
          f"{statistics.median(result['unit_host_speed']):.3g})")
    print(f"  error_rate     {result['error_rate']:.6g}  ({result['failed']} of "
          f"{result['attempted']} failed)")
    floor = result["floor"]
    print(f"  floor Z@w+c@Z  {floor['default']:.4g} s default threads, "
          f"{floor['single_thread']:.4g} s one thread, shape {floor['shape']}, "
          f"{result['array_bytes']} bytes")
    print("  provenance     " + json.dumps(result["provenance"], sort_keys=True))
    if result["per_layer"] is not None:
        for key, value in result["per_layer"].items():
            print(f"  {key:<44} {value:.6g} {layer_units[key]}")
    OUT.mkdir(parents=True, exist_ok=True)
    path = OUT / f"result-{result['workload']}-seed{result['seed']}-trace{int(result['trace'])}.json"
    path.write_text(json.dumps(result, indent=1, sort_keys=True) + "\n")

    values, units = ((result["end_to_end"], e2e_units) if result["per_layer"] is None
                     else (result["per_layer"], layer_units))
    if set(values) != set(units):
        raise SystemExit(f"measured metrics {sorted(set(values) ^ set(units))} disagree "
                         "with BENCHMARK.json")
    metrics = {k: {"value": v, "unit": units[k]} for k, v in values.items()}
    return {"correct": result["failed"] == 0, "attempted": result["attempted"],
            "failed": result["failed"], "metrics": metrics}


# ---------------------------------------------------------------------------
# other modes
# ---------------------------------------------------------------------------

def run_all(seconds: float, seed: int, trace: int, size: str) -> int:
    from workloads import WORKLOADS

    ok = True
    for name in WORKLOADS:
        proc = subprocess.run([sys.executable, str(HERE / "run.py"), "--workload", name,
                               "--seed", str(seed), "--seconds", str(seconds),
                               "--trace", str(trace), "--size", size],
                              capture_output=True, text=True, cwd=ROOT)
        if proc.returncode != 0:
            print(f"{name}: exited {proc.returncode}\n{proc.stderr[-2000:]}")
            ok = False
            continue
        lines = proc.stdout.strip().splitlines()
        result = json.loads(lines[-1])
        print("\n".join(lines[:-1]))
        print(f"  correct        {result['correct']}\n")
        ok = ok and result["correct"]
    return 0 if ok else 1


def record_references(name: str, size: str, seeds) -> None:
    from workloads import WORKLOADS

    path = REFERENCES / f"{size}-{name}.json"
    refs = {}
    for seed in seeds:
        work = WORKLOADS[name](seed, size, OUT / f"{name}.record")
        work.setup()
        work.unit()
        refs[str(seed)] = work.summary()
        print(f"recorded {name} seed {seed}: {len(refs[str(seed)])} entries", flush=True)
    REFERENCES.mkdir(parents=True, exist_ok=True)
    save_references(path, refs)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "tiny"), default="full")
    parser.add_argument("--all", action="store_true", help="run every workload, print every metric")
    parser.add_argument("--baseline", action="store_true", help="print the ROADMAP baseline rows")
    parser.add_argument("--record-references", action="store_true")
    args = parser.parse_args(argv)

    if not (SRC / "margin_lab" / "__init__.py").is_file():
        print(f"margin_lab sources not found under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import margin_lab

    if Path(margin_lab.__file__).resolve().parent != (SRC / "margin_lab").resolve():
        print(f"imported margin_lab from {margin_lab.__file__}, not from {SRC}", file=sys.stderr)
        return 2

    if args.baseline:
        from baseline import main as baseline_main
        return baseline_main(HERE)
    if args.all:
        return run_all(args.seconds, args.seed, args.trace, args.size)

    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        parser.error(f"--workload must be one of {', '.join(WORKLOADS)}")
    if args.record_references:
        seeds = [*DEV_SEEDS[args.size], *([HOLDOUT_SEED] if args.size == "full" else [])]
        record_references(args.workload, args.size, seeds)
        return 0
    result = run_workload(args.workload, args.seed, args.seconds, bool(args.trace), args.size)
    print(json.dumps(report(result)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
