"""Measure a change against its parent: one named case, in alternating pairs.

    python scripts/bench_pair.py CASE BEFORE_SRC AFTER_SRC OUT.json [PAIRS]

BEFORE_SRC and AFTER_SRC are the `src` directories of two checkouts. A
sample runs the case's child programs in fresh interpreters, the tree on
PYTHONPATH. The trees alternate, the one that goes first flipping from pair
to pair (PAIRS pairs, at least 2, default 10). Values are raw: the host's
speed drifts, so only the alternating pairs are comparable.

Each case replaces the script named with it; a `BENCH_*.json` that says
"regenerate with" that script is regenerated by the case, same arguments:

- `import-path` (was `scripts/bench_import_path.py`): `import margin_lab`
  and `import margin_lab.cli`, each the seconds of the import statement,
  the peak RSS after it and whether it loaded `scipy.optimize` and
  `scipy.special`; seconds per `poly(2).inverse(u)` call on u > 1 (median
  of 5 sweeps over 2000 u); wall seconds of `python -m margin_lab.cli
  verify`, interpreter start included.
- `averaged-blocks` (was `scripts/bench_averaged_blocks.py`): microseconds
  per `run_gd` step on `gen_random_separable(10, 100, 0.1, seed=0)`, the
  median of 5 runs, and the steps the run reports, for log loss, adaptive
  eta = 400, 2000 steps, every step recorded; exp loss, adaptive eta = 1 to
  `margin-lab bench`'s target ln 1e-12 within 20000 steps, passed mid-block
  at t = 5007 (steps computed past the first passage and dropped count
  against it); log loss as the first, recording only t = 0 and the last
  step. The committed `BENCH_averaged_blocks.json` predates the target run's
  switch from constant to adaptive eta: its key `exp constant target` names
  a run that never reached the target.
- `lean-datasets` (was `scripts/bench_lean_datasets.py`): on
  `gen_random_separable(1000, 10_000, 0.1, seed=0)` (80 MB of features),
  which AFTER_SRC writes once as .npy arrays and as a dataset file, one
  interpreter per phase: `gen`; `validate`, `verify.dataset_fingerprint`
  and `save_dataset` on the arrays read back; `load_dataset` on the file.
  Each gives the phase's seconds and two memory keys, in MB:
  - `<phase> rss_rise_mb`, the rise of the process's high-water mark
    (`VmHWM` in `/proc/self/status`) over the phase: the phase's peak
    minus the highest RSS before it. It reads low, down to 0, when the
    imports or the input load peaked above what they left held, so sub-MB
    differences in it follow the memory freed before the phase, not the
    phase's code.
  - `<phase> peak_over_start_mb`, `VmHWM` after the phase minus the
    current RSS before it (`/proc/self/statm`): the most the phase held
    above its start, whenever the phase sets the high-water mark. If an
    earlier peak stands, it reads that peak over the start, an upper bound.
    Both reads come from the kernel's RSS counters, which lag by a few
    pages, so a phase that holds nothing new can read slightly below 0.
  Every memory key, `import_rss_mb` too, reads `VmHWM`, the child's own
  peak since its exec. `ru_maxrss` would not do: Linux starts a child's
  `ru_maxrss` at the RSS of the process that spawned it (about 29 MB for
  this script), so it cannot read below that.
- `stacked-probes`: the milliseconds of each probe check as `default_suite`
  calls it on seed 0 (`check_gradient_inequalities` on exp, log, poly:2 and
  semicircle with 300 probes; `check_network_inequalities` on leakyrelu:0.5
  with exp and leaky-gelu:0.9 with log; `check_risk_implies_separation` on
  the 201 iterates of an exp run), each the median of 5 calls; wall seconds
  of `python -m margin_lab.cli verify`, as in `import-path`.
- `separated-log`: microseconds per `run_gd` step of log loss at adaptive
  eta = 400 on `gen_random_separable(10, 100, 0.1, seed=0)`, 20 000 steps,
  every step recorded and only t = 0 and the last recorded (the fastest
  of 9 runs each, see below), with the count of recorded steps whose
  smallest margin, and whose averaged iterate's, exceeds 700; microseconds
  per call of `LOG.log_value` and `LOG.log_abs_deriv` on 100 margins all
  above 700, all at or below 700 and mixed (median of 5 sweeps of 2000
  calls).
- `run-constants`: microseconds per `run_gd` step of log loss at adaptive
  eta = 400, 20 000 steps, every step recorded (the fastest of 9 runs), on
  `gen_random_separable(10, 100, 0.1, seed=0)` and on the weighted
  `gen_batch_hard(0.1, 64, weighted=True)`, whose n is a sum of weights.
- `step-overhead`: microseconds per step (the fastest of 9 runs, over the
  steps the run reports) on `gen_random_separable(10, 100, 0.1, seed=0)`,
  every step recorded, for two runs of `margin-lab bench`'s GD methods as
  bench made them before it recorded only its first passages (exp loss at
  constant and at adaptive eta = 1 to the one target ln 1e-12 within
  20 000 steps, every step recorded; bench itself is timed by
  `bench-command`), and for `margin-lab run`'s and `run-nn`'s runs in
  perfbench's run-recorded workload: log loss at adaptive eta = 400,
  20 000 steps, and `run_gd_nn` with exp loss, width 16, leakyrelu:0.5,
  adaptive eta = 400, 5000 steps. The keys keep their names, so
  `BENCH_step_overhead.json` stays comparable.
- `constant-step`: microseconds per step (the fastest of 9 runs, over the
  steps the run reports) of `margin-lab bench`'s constant cell as bench
  makes it, on `gen_random_separable(10, 100, 0.1, seed=0)`: exp loss at
  constant eta = 1, the targets ln 1e-2, ln 1e-6 and ln 1e-12, none of
  which it reaches in its 20 000 steps, and `record_every = 20 000`; the
  same run recording every step; and bench's small-adaptive cell as bench
  makes it, the first run at adaptive eta = 1, which stops at ln 1e-12's
  first passage, t = 5007.
- `cold-log-run`: a cold `margin-lab run` of log loss at adaptive
  eta = 400, 50 steps, on `random:d=10,n=100,gamma=0.1`, through `cli.main`
  in a fresh interpreter: the seconds from before `import margin_lab.cli`
  to the return of `main` (interpreter start left out), the peak RSS after
  it and whether it loaded `scipy.special`. Its margins stay at or below
  700, so the log kernels take their full branch.
- `branch-once`: microseconds per `run_gd` step (the fastest of 9 runs,
  over the steps the run reports) of three runs whose loss kernels decide
  their branch once per iterate: perfbench's run-large (log loss,
  `gen_random_separable(1000, 10_000, 0.1, seed=0)`, adaptive eta = 400,
  50 steps, `record_every = 50`), whose margins lie in (0, 700] after
  t = 0; poly:2 and semicircle at adaptive eta = 50 on
  `gen_random_separable(10, 100, 0.1, seed=0)`, 2000 steps recording
  only t = 0 and the last, with the count of steps whose every margin is
  nonnegative (the kernels' right branch), read off a run recording every
  step.
- `bench-command`: the default `margin-lab bench` through `cli.main` in a
  fresh interpreter, after one warm run in it: the fastest and the median
  of 9 timed runs, in wall seconds from the call of `main` to its return,
  and the child's peak RSS (`VmHWM`) after them. It goes through the CLI
  only, so it runs on any tree that has the command.

The per-step keys of `separated-log`, `run-constants` and `step-overhead`
take the minimum over 9 runs within a sample (`FASTEST`), not a median: a
shared host only ever adds time to a run, so the fastest run is the one
least disturbed.
It removes noise within a sample, not shifts of the host's speed between
samples; the A/A runs behind this choice are in `CHANGES.md`.

OUT.json holds, per key of the samples: for a key whose samples are all
integers, each side's distinct values; for any other key, each side's
median, quartiles and runs, the after/before ratio of the medians and the
pairs the change won (lower is better for every key). It also holds the
machine (perfbench's provenance), each side's git commit ("unknown" for a
tree without .git, such as one unpacked from `git archive`, and
"<sha>+dirty" when its `src` differs from that commit; see `commit_of`)
and each side's `src_sha256` (see `src_sha256`), which matches a tree to a
commit whether or not it has .git.
"""

from __future__ import annotations

import hashlib
import json
import os
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "perfbench"))
from provenance import git_commit, provenance  # noqa: E402

DEFAULT_PAIRS = 10

# The process's own RSS high-water mark in kB (VmHWM), which starts at its
# exec; ru_maxrss does not (see the docstring).
HWM = """
def _hwm_kb():
    with open("/proc/self/status") as status:
        return next(int(line.split()[1]) for line in status if line.startswith("VmHWM:"))
"""

# Every child prints one JSON object; its last argument is the inputs directory.
IMPORT_CHILD = HWM + """
import sys, time
t = time.perf_counter()
import {module}
dt = time.perf_counter() - t
rss_mb = _hwm_kb() / 1024.0
optimize = int("scipy.optimize" in sys.modules)
special = int("scipy.special" in sys.modules)
import json  # not before the import timed: json loads re, which margin_lab imports too
print(json.dumps({{"{key}_s": dt, "{key}_rss_mb": rss_mb,
                  "{key}_loads_scipy_optimize": optimize,
                  "{key}_loads_scipy_special": special}}))
"""

INVERSE_CHILD = """
import json, statistics, time
from margin_lab.losses import poly
spec = poly(2.0)
us = [1.01 + 499.0 * i / 1999 for i in range(2000)]
sweeps = []
for _ in range(5):
    t = time.perf_counter()
    for u in us:
        spec.inverse(u)
    sweeps.append((time.perf_counter() - t) / len(us))
print(json.dumps({"poly_inverse_us_per_call": statistics.median(sweeps) * 1e6}))
"""

VERIFY_CHILD = """
import json, subprocess, sys, tempfile, time
with tempfile.TemporaryDirectory() as out:
    t = time.perf_counter()
    proc = subprocess.run([sys.executable, "-m", "margin_lab.cli", "verify", "--out", out],
                          capture_output=True)
    wall = time.perf_counter() - t
if proc.returncode not in (0, 1):  # 1: a check failed, which is expected
    sys.exit(proc.stderr.decode()[-2000:])
print(json.dumps({"verify_wall_s": wall}))
"""

# The runs of the averaged-blocks case: ds and cases, name -> GDConfig.
AVERAGED_RUNS = """
import math
from margin_lab.datasets import gen_random_separable
from margin_lab.descent import GDConfig, run_gd
from margin_lab.losses import EXP, LOG

ds = gen_random_separable(10, 100, 0.1, seed=0)
cases = {
    "log adaptive recorded": GDConfig(loss=LOG, eta=400.0, steps=2000, record_every=1),
    "exp adaptive target": GDConfig(loss=EXP, eta=1.0, steps=20000,
                                    target_log_avg_risk=math.log(1e-12)),
    "log unrecorded": GDConfig(loss=LOG, eta=400.0, steps=2000, record_every=2000),
}
"""

AVERAGED_CHILD = AVERAGED_RUNS + """
import json, statistics, time
out = {}
for name, cfg in cases.items():
    runs = []
    for _ in range(5):
        start = time.perf_counter()
        traj = run_gd(ds, cfg)
        runs.append((time.perf_counter() - start) / traj.columns["t"][-1] * 1e6)
    out[name + " us_per_step"] = statistics.median(runs)
    out[name + " steps"] = traj.columns["t"][-1]
print(json.dumps(out))
"""

PROBES_CHILD = """
import json, statistics, time
import numpy as np
from margin_lab.datasets import gen_random_separable
from margin_lab.descent import GDConfig, run_gd
from margin_lab.losses import EXP, LOG, SEMICIRCLE, poly
from margin_lab.two_layer import leaky_blend, leaky_relu
from margin_lab.verify import (check_gradient_inequalities, check_network_inequalities,
                               check_risk_implies_separation)

ds = gen_random_separable(10, 100, 0.1, seed=0)
ds_nn = gen_random_separable(10, 100, 0.2, seed=0)
losses = (EXP, LOG, poly(2.0), SEMICIRCLE)
relu, gelu = leaky_relu(0.5), leaky_blend("gelu", 0.9)
iterates = np.array(run_gd(ds, GDConfig(loss=EXP, eta=4.0, steps=200)).columns["w"])
checks = {
    "check_gradient_inequalities": lambda: [
        check_gradient_inequalities(ds, loss, probes=300, seed=0) for loss in losses],
    "check_network_inequalities": lambda: (
        check_network_inequalities(ds_nn, relu, seed=0),
        check_network_inequalities(ds_nn, gelu, seed=0, loss=LOG)),
    "check_risk_implies_separation": lambda: check_risk_implies_separation(ds, EXP, iterates),
}
out = {}
for name, run in checks.items():
    runs = []
    for _ in range(5):
        start = time.perf_counter()
        run()
        runs.append(time.perf_counter() - start)
    out[name + " ms"] = statistics.median(runs) * 1e3
print(json.dumps(out))
"""

# fastest_us_per_step(run, steps): the fastest of RUNS calls of run(), in
# microseconds per step, and the last call's result.
FASTEST = """
import time

RUNS = 9


def fastest_us_per_step(run, steps):
    times = []
    for _ in range(RUNS):
        start = time.perf_counter()
        result = run()
        times.append((time.perf_counter() - start) / steps * 1e6)
    return min(times), result
"""

# The runs and margins of the separated-log case: ds, runs (name -> GDConfig)
# and margins (regime -> 100 margins).
SEPARATED_RUNS = """
import numpy as np
from margin_lab.datasets import gen_random_separable
from margin_lab.descent import GDConfig, run_gd
from margin_lab.losses import LOG

ds = gen_random_separable(10, 100, 0.1, seed=0)
runs = {"recorded": GDConfig(loss=LOG, eta=400.0, steps=20_000, record_every=1),
        "unrecorded": GDConfig(loss=LOG, eta=400.0, steps=20_000, record_every=20_000)}
margins = {"above 700": np.linspace(701.0, 5000.0, 100),
           "at or below 700": np.linspace(-5.0, 700.0, 100),
           "mixed": np.linspace(-5.0, 1600.0, 100)}
"""

SEPARATED_CHILD = SEPARATED_RUNS + FASTEST + """
import json, statistics, timeit
out = {}
for name, cfg in runs.items():
    out[f"log {name} us_per_step"], traj = fastest_us_per_step(lambda: run_gd(ds, cfg),
                                                               cfg.steps)
    if name == "recorded":
        out["steps past 700"] = int((traj.column("min_margin") > 700.0).sum())
        out["averaged steps past 700"] = int((traj.column("avg_min_margin") > 700.0).sum())
for regime, z in margins.items():
    for kernel in ("log_value", "log_abs_deriv"):
        call = getattr(LOG, kernel)
        sweeps = timeit.repeat(lambda: call(z), number=2000, repeat=5)
        out[f"{kernel} {regime} us_per_call"] = statistics.median(sweeps) / 2000 * 1e6
print(json.dumps(out))
"""

# The runs of the run-constants case: datasets (name -> Dataset) and cfg.
CONSTANTS_RUNS = """
from margin_lab.datasets import gen_batch_hard, gen_random_separable
from margin_lab.descent import GDConfig, run_gd
from margin_lab.losses import LOG

datasets = {"random": gen_random_separable(10, 100, 0.1, seed=0),
            "batch-hard weighted": gen_batch_hard(0.1, 64, weighted=True)}
cfg = GDConfig(loss=LOG, eta=400.0, steps=20_000, record_every=1)
"""

# The runs of the step-overhead case: ds and runs, name -> a call that makes one.
STEP_RUNS = """
import math
from margin_lab.datasets import gen_random_separable
from margin_lab.descent import GDConfig, run_gd
from margin_lab.losses import EXP, LOG
from margin_lab.two_layer import leaky_relu, make_net, run_gd_nn

ds = gen_random_separable(10, 100, 0.1, seed=0)
bench = dict(loss=EXP, eta=1.0, steps=20_000, target_log_avg_risk=math.log(1e-12))
net = make_net(ds.d, 16, leaky_relu(0.5))
runs = {
    "bench exp constant": lambda: run_gd(ds, GDConfig(mode="constant", **bench)),
    "bench exp adaptive": lambda: run_gd(ds, GDConfig(**bench)),
    "run log adaptive": lambda: run_gd(ds, GDConfig(loss=LOG, eta=400.0, steps=20_000)),
    "run-nn exp": lambda: run_gd_nn(ds, net, GDConfig(loss=EXP, eta=400.0, steps=5000)),
}
"""

STEP_CHILD = STEP_RUNS + FASTEST + """
import json
out = {}
for name, run in runs.items():
    steps = run().columns["t"][-1]
    out[f"{name} us_per_step"], _ = fastest_us_per_step(run, steps)
    out[f"{name} steps"] = steps
print(json.dumps(out))
"""

# The runs of the branch-once case: runs, name -> (dataset, GDConfig).
BRANCH_ONCE_RUNS = """
from margin_lab.datasets import gen_random_separable
from margin_lab.descent import GDConfig, run_gd
from margin_lab.losses import LOG, SEMICIRCLE, poly

small = gen_random_separable(10, 100, 0.1, seed=0)
runs = {
    "log run-large": (gen_random_separable(1000, 10_000, 0.1, seed=0),
                      GDConfig(loss=LOG, eta=400.0, steps=50, record_every=50)),
    "poly:2 adaptive": (small, GDConfig(loss=poly(2.0), eta=50.0, steps=2000,
                                        record_every=2000)),
    "semicircle adaptive": (small, GDConfig(loss=SEMICIRCLE, eta=50.0, steps=2000,
                                            record_every=2000)),
}
"""

BRANCH_ONCE_CHILD = BRANCH_ONCE_RUNS + FASTEST + """
import dataclasses, json
out = {}
for name, (ds, cfg) in runs.items():
    out[f"{name} us_per_step"], _ = fastest_us_per_step(lambda: run_gd(ds, cfg), cfg.steps)
    if ds is small:
        rows = run_gd(ds, dataclasses.replace(cfg, record_every=1))
        out[f"{name} steps nonnegative"] = int((rows.column("min_margin") >= 0.0).sum())
print(json.dumps(out))
"""

# The runs of the constant-step case: ds and runs, name -> GDConfig.
CONSTANT_STEP_RUNS = """
import math
from margin_lab.datasets import gen_random_separable
from margin_lab.descent import GDConfig, run_gd
from margin_lab.losses import EXP

ds = gen_random_separable(10, 100, 0.1, seed=0)
bench = dict(loss=EXP, eta=1.0, steps=20_000, mode="constant",
             target_log_avg_risk=tuple(math.log(eps) for eps in (1e-2, 1e-6, 1e-12)))
runs = {"bench exp constant": GDConfig(record_every=20_000, **bench),
        "bench exp constant recorded": GDConfig(record_every=1, **bench),
        "bench exp small-adaptive": GDConfig(record_every=20_000,
                                             **dict(bench, mode="adaptive"))}
"""

CONSTANT_STEP_CHILD = CONSTANT_STEP_RUNS + FASTEST + """
import json
out = {}
for name, cfg in runs.items():
    steps = run_gd(ds, cfg).columns["t"][-1]
    out[f"{name} us_per_step"], _ = fastest_us_per_step(lambda: run_gd(ds, cfg), steps)
    out[f"{name} steps"] = steps
print(json.dumps(out))
"""

CONSTANTS_CHILD = CONSTANTS_RUNS + FASTEST + """
import json
out = {}
for name, ds in datasets.items():
    out[f"{name} us_per_step"], _ = fastest_us_per_step(lambda: run_gd(ds, cfg), cfg.steps)
print(json.dumps(out))
"""

D, N, GAMMA, SEED = 1000, 10_000, 0.1, 0

LEAN_INPUTS = f"""
import sys
import numpy as np
from margin_lab.datasets import gen_random_separable, save_dataset
ds = gen_random_separable({D}, {N}, {GAMMA}, seed={SEED})
for name in ("features", "labels", "w_star"):
    np.save(f"{{sys.argv[1]}}/{{name}}.npy", getattr(ds, name))
save_dataset(ds, f"{{sys.argv[1]}}/dataset.txt")
"""

# measure(phase, run): the phase's seconds and memory keys (see the docstring).
PHASE_MEMORY = HWM + """
import os, time


def _rss_kb():
    with open("/proc/self/statm") as statm:
        return int(statm.read().split()[1]) * os.sysconf("SC_PAGE_SIZE") // 1024


def measure(phase, run):
    start_kb = _rss_kb()
    peak_kb = _hwm_kb()
    start = time.perf_counter()
    run()
    seconds = time.perf_counter() - start
    after_kb = _hwm_kb()
    return {f"{phase} s": seconds, f"{phase} rss_rise_mb": (after_kb - peak_kb) / 1024.0,
            f"{phase} peak_over_start_mb": (after_kb - start_kb) / 1024.0}
"""

LEAN_CHILD = PHASE_MEMORY + f"""
import json, sys
import numpy as np
from margin_lab.datasets import Dataset, gen_random_separable, load_dataset, save_dataset, validate
from margin_lab.verify import dataset_fingerprint

phase, inputs = sys.argv[1], sys.argv[2]
if phase in ("validate", "fingerprint", "save"):
    ds = Dataset(*(np.load(f"{{inputs}}/{{name}}.npy") for name in ("features", "labels")),
                 gamma={GAMMA}, w_star=np.load(f"{{inputs}}/w_star.npy"))
run = {{
    "gen": lambda: gen_random_separable({D}, {N}, {GAMMA}, seed={SEED}),
    "validate": lambda: validate(ds),
    "fingerprint": lambda: dataset_fingerprint(ds),
    "save": lambda: save_dataset(ds, f"{{inputs}}/saved.txt"),
    "load": lambda: load_dataset(f"{{inputs}}/dataset.txt"),
}}[phase]
print(json.dumps(measure(phase, run)))
"""


COLD_RUN_INPUTS = """
import sys
from pathlib import Path
Path(sys.argv[1], "log.cfg").write_text("dataset = random:d=10,n=100,gamma=0.1\\nloss = log\\n"
                                        "stepsize = adaptive:400\\nsteps = 50\\n")
"""

COLD_RUN_CHILD = HWM + """
import sys, time
t = time.perf_counter()
from margin_lab.cli import main
code = main(["run", "--config", sys.argv[1] + "/log.cfg", "--out", sys.argv[1] + "/out"])
dt = time.perf_counter() - t
rss_mb = _hwm_kb() / 1024.0
special = int("scipy.special" in sys.modules)
if code:
    sys.exit(f"margin-lab run exited {code}")
import json
print(json.dumps({"cold_log_run_s": dt, "cold_log_run_rss_mb": rss_mb,
                  "cold_log_run_loads_scipy_special": special}))
"""

BENCH_COMMAND_CHILD = HWM + """
import json, statistics, sys, time
from margin_lab.cli import main

argv = ["bench", "--out", sys.argv[1] + "/bench"]
walls = []
for run in range(10):  # one warm run, then 9 timed
    start = time.perf_counter()
    code = main(argv)
    wall = time.perf_counter() - start
    if code:
        sys.exit(f"margin-lab bench exited {code}")
    if run:
        walls.append(wall)
print(json.dumps({"bench_fastest_s": min(walls), "bench_median_s": statistics.median(walls),
                  "bench_peak_rss_mb": _hwm_kb() / 1024.0}))
"""


class Case(NamedTuple):
    children: tuple  # (code, *args) of each child, run in this order per sample
    inputs: str | None = None  # run once by AFTER_SRC, given the inputs directory


CASES = {
    "import-path": Case(((IMPORT_CHILD.format(module="margin_lab", key="import"),),
                         (IMPORT_CHILD.format(module="margin_lab.cli", key="import_cli"),),
                         (INVERSE_CHILD,), (VERIFY_CHILD,))),
    "averaged-blocks": Case(((AVERAGED_CHILD,),)),
    "lean-datasets": Case(tuple((LEAN_CHILD, phase)
                                for phase in ("gen", "validate", "fingerprint", "save", "load")),
                          LEAN_INPUTS),
    "stacked-probes": Case(((PROBES_CHILD,), (VERIFY_CHILD,))),
    "separated-log": Case(((SEPARATED_CHILD,),)),
    "run-constants": Case(((CONSTANTS_CHILD,),)),
    "step-overhead": Case(((STEP_CHILD,),)),
    "constant-step": Case(((CONSTANT_STEP_CHILD,),)),
    "branch-once": Case(((BRANCH_ONCE_CHILD,),)),
    "cold-log-run": Case(((COLD_RUN_CHILD,),), COLD_RUN_INPUTS),
    "bench-command": Case(((BENCH_COMMAND_CHILD,),)),
}


def _python(src: str, code: str, *args: str) -> str:
    proc = subprocess.run([sys.executable, "-c", code, *args],
                          env=dict(os.environ, PYTHONPATH=src),
                          capture_output=True, text=True, timeout=900)
    if proc.returncode:
        raise RuntimeError(f"a child on {src} exited {proc.returncode}:\n{proc.stderr[-2000:]}")
    return proc.stdout


def _sample(case: Case, src: str, inputs: str) -> dict:
    """One sample of every key of the case on one tree."""
    row = {}
    for code, *args in case.children:
        row.update(json.loads(_python(src, code, *args, inputs)))
    return row


def _summary(runs: list) -> dict:
    q1, med, q3 = statistics.quantiles(runs, n=4, method="inclusive")
    return {"median": med, "q1": q1, "q3": q3, "n": len(runs), "runs": runs}


def compare(before: list[dict], after: list[dict]) -> dict:
    """The metrics of paired samples, before[i] and after[i] from pair i."""
    metrics = {}
    for key in before[0]:
        b = [row[key] for row in before]
        a = [row[key] for row in after]
        if all(isinstance(x, int) for x in b + a):
            metrics[key] = {"before": sorted(set(b)), "after": sorted(set(a))}
            continue
        sb, sa = _summary(b), _summary(a)
        metrics[key] = {
            "before": sb, "after": sa,
            "after_over_before": sa["median"] / sb["median"] if sb["median"] else None,
            "after_lower_in_pairs": sum(x < y for x, y in zip(a, b))}
    return metrics


def src_sha256(src: str) -> str:
    """sha256 of the package in a `src` directory: for each margin_lab/*.py
    file, sorted by its path relative to src (POSIX, UTF-8), the path, a
    NUL, the byte count in decimal, a NUL and the bytes; __pycache__ is left
    out. The tree that `git archive <commit> src` unpacks gives the same
    hash as a checkout of that commit."""
    root = Path(src)
    files = sorted((path.relative_to(root).as_posix(), path)
                   for path in (root / "margin_lab").rglob("*.py")
                   if "__pycache__" not in path.relative_to(root).parts)
    digest = hashlib.sha256()
    for name, path in files:
        data = path.read_bytes()
        digest.update(b"%s\0%d\0" % (name.encode(), len(data)) + data)
    return digest.hexdigest()


def commit_of(src: str) -> str:
    """The commit of the checkout that a `src` directory sits in:
    "unknown" without .git, and "<sha>+dirty" when `git status --porcelain
    -- src` lists anything (an edit, a deletion or an untracked file)."""
    root = Path(src).parent
    sha = git_commit(root)
    if sha == "unknown":
        return sha
    status = subprocess.run(["git", "status", "--porcelain", "--", Path(src).name], cwd=root,
                            capture_output=True, text=True, check=True, timeout=60)
    return f"{sha}+dirty" if status.stdout.strip() else sha


def main(argv: list[str]) -> int:
    pairs_ok = len(argv) == 4 or (len(argv) == 5 and argv[4].isdigit() and int(argv[4]) >= 2)
    if not pairs_ok or argv[0] not in CASES:
        print(__doc__, file=sys.stderr)
        return 2
    name, out = argv[0], argv[3]
    case = CASES[name]
    trees = {"before": str(Path(argv[1]).resolve()), "after": str(Path(argv[2]).resolve())}
    pairs = int(argv[4]) if len(argv) == 5 else DEFAULT_PAIRS
    rows = {"before": [], "after": []}
    with tempfile.TemporaryDirectory() as inputs:
        if case.inputs is not None:
            _python(trees["after"], case.inputs, inputs)
        for i in range(pairs):
            for side in ("before", "after") if i % 2 == 0 else ("after", "before"):
                rows[side].append(_sample(case, trees[side], inputs))
            print(f"pair {i + 1}/{pairs}", file=sys.stderr)

    machine = provenance(ROOT)
    del machine["git_commit"]  # the commits measured are each side's, below
    result = {
        "case": name,
        "method": (f"{pairs} alternating pairs of fresh interpreters, the tree that goes "
                   f"first flipping each pair; raw values; regenerate with: python "
                   f"scripts/bench_pair.py {name} <parent>/src <change>/src OUT.json {pairs}"),
        "machine": machine,
        "commits": {side: commit_of(src) for side, src in trees.items()},
        "src_sha256": {side: src_sha256(src) for side, src in trees.items()},
        "metrics": compare(rows["before"], rows["after"]),
    }
    Path(out).write_text(json.dumps(result, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
