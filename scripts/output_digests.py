"""Print sha256 digests of every output the library and the CLI produce.

    python scripts/output_digests.py > digests.txt

Run it on two checkouts and diff the outputs: an empty diff means the two
trees give bit-identical trajectories and byte-identical CLI outputs. The
script digests the tree it sits in (`src` and `tests` next to its
`scripts` directory), so a copy placed in another checkout's `scripts`
directory digests that checkout with this script's cases. CI runs the base
commit's script and the head's script each on both trees and diffs each
pair, so a change may add cases without dropping any of the base's.

One line per run or file:

- `run_gd` on the 416 configurations of `tests/test_descent.py`
  (`FUSED_GRID` x `FUSED_DATASETS` x target on/off x `record_every` 1/7),
  and on 8 log/sum runs of 300 steps at eta 400 whose margins all pass
  700 mid-run (the random and the weighted batch-hard set, target on/off,
  `record_every` 1/7), and on 48 runs of 300 steps whose one target sits
  at row 250's `log_avg_risk` or one ulp either side, where the convexity
  screen must not clear the passage (exp and log, constant and adaptive
  at eta 1, the random and the weighted batch-hard set, `record_every` 7
  and 300), and on 28 runs of 300 steps whose iterates change the branch
  of their loss's kernel pair mid-run (log margins entering (0, 700] for
  good, leaving and re-entering it, or straddling 700 above 0; poly:2
  and semicircle margins turning all nonnegative; mean and sum,
  `record_every` 1/7);
- `run_gd_nn` on the 60 configurations of `tests/test_two_layer.py`'s
  network grid widened to every activation record (leakyrelu and the four
  leaky blends, exp and log, `NN_DATASETS`, `record_every` 1/7), and on
  24 runs of 150 steps at eta 50 whose rows cross the 64-step blocks of
  `descent.block_size` and whose risk is not monotone (leakyrelu and
  leaky-gelu, exp and log, `NN_DATASETS`, `record_every` 1/7);
- the JSON reports of the probe checks on shapes beyond `default_suite`'s,
  on seeds 0, 3 and 1000: `check_gradient_inequalities` on log with sum
  aggregation, on a weighted batch-hard set and on a random set with
  n = 101; `check_network_inequalities` with leaky-silu and leaky-softplus;
  `check_risk_implies_separation` on a stack of 300 iterates;
- the stacked evaluators on stacks that span several blocks of
  `descent._stacked`, over `gen_random_separable(10, 20_000, 0.1)` on
  seeds 0, 3 and 1000, which takes 3 vectors or 1 net of width 4 at a
  time: `risk`, `phi`, `grad_phi` and `grad_risk` (exp, log, poly:2) on 10
  probe vectors (seven random at scales 1e-3 .. 10^2.5, and w* times 10,
  1000 and -1000), `nn_margins`, `nn_risk` and `nn_risk_and_grad_phi` (exp
  and log) on 3 leakyrelu nets of width 4, and the JSON report of
  `check_risk_implies_separation` (exp and log) on the 10 vectors;
- stacks whose rows take different branches of their loss's kernel pair,
  on seeds 0, 3 and 1000: `LossSpec.log_value` and `log_abs_deriv` (log,
  poly:2, poly:0.5, semicircle) on seven rows of 100 margins, one per
  regime of the pairs, and on the same with a nan margin; `risk` and
  `grad_phi` (the same losses, mean and sum) on w* times 1000, 2, 0.5,
  -0.5 and -2 over `gen_random_separable(10, 100, 0.1)`, and on those
  with a nan row; hinge `risk` and `grad_risk` on w* times 1000, 2 and
  0.5, where every loss vanishes, and on those with w* times -0.5;
- `run_perceptron` and `run_online_sgd` (hinge at stepsizes 1 and 0.5,
  log at 2) on a cyclic order of 20 000 and a random order of 5000 over
  `gen_random_separable(10, 100, 0.1)` and `gen_online_hard(0.2, 30)`, on
  seeds 0, 3 and 1000: iterates, mistakes and `separated_at`;
- the CLI outputs of `run`, `run-nn` (among them a log `run` and a log
  `run-nn` whose smallest margin passes 700 mid-run, a log `run` on
  2000 rows of 300 features whose margins all stay at or below 700, a log
  `run` of 10 steps on 20 rows of 100 000 features, whose trajectory.json
  still carries the iterates, log `run`s whose margins stay in (0, 700]
  (adaptive and constant, 1000 rows of 50 features) or straddle 700
  above 0, a poly:2 and a semicircle `run` whose margins turn all
  nonnegative mid-run, and five constant-stepsize `run`s of 300 steps whose rows cross the 64-step
  blocks: exp and log at `constant:1`, each recording every step and every
  7th, and log at `constant:400` on the two-point set, whose risk rises on
  40 steps, so `descent_violated` takes both values), `verify`
  (`reports.json` and stdout)
  and `bench` (`bench.csv` without its `wall_time` column; the defaults,
  and five grids that pin its first passages: four epsilons per run with
  one that constant GD misses, unsorted and repeated epsilons, a diverging
  run, `max_steps = 1`, three log-loss passages inside one 64-step block,
  and the defaults with `loss = log` over all four methods), `gen` for all
  six dataset sources (`file:` on a saved file, a saved weighted file and a
  copy of the first with CRLF line ends, comment lines and blank lines) and
  `perceptron` for the cyclic, `random:<seed>` and `file:` orders, on seeds
  0, 3 and 1000, with each command's exit code;
- the stderr of configs the CLI refuses (exit 2). Only those: warnings on
  stderr carry file paths. The CLI runs with the work directory as its
  current directory and every path relative, so no message names a
  temporary directory.
"""

from __future__ import annotations

import contextlib
import dataclasses
import hashlib
import io
import json
import math
import os
import struct
import sys
import tempfile
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests")]

from margin_lab import cli  # noqa: E402
from margin_lab.datasets import (gen_batch_hard, gen_online_hard,  # noqa: E402
                                 gen_random_separable, save_dataset)
from margin_lab.descent import (GDConfig, _exp_or_inf, _risk_from_log, grad_phi,  # noqa: E402
                                grad_risk, phi, risk, run_gd)
from margin_lab.losses import EXP, HINGE, LOG, SEMICIRCLE, poly  # noqa: E402
from margin_lab.online import (cyclic_order, random_order, run_online_sgd,  # noqa: E402
                               run_perceptron)
from margin_lab.two_layer import (TwoLayerNet, leaky_relu, make_net,  # noqa: E402
                                  nn_margins, nn_risk, nn_risk_and_grad_phi,
                                  parse_activation, run_gd_nn)
from margin_lab.verify import (check_gradient_inequalities,  # noqa: E402
                               check_network_inequalities, check_risk_implies_separation)

from test_descent import FUSED_DATASETS, FUSED_GRID  # noqa: E402
from test_two_layer import NN_DATASETS  # noqa: E402

GD_COLUMNS = ("t", "w", "avg_w", "log_risk", "log_avg_risk", "phi", "stepsize",
              "log_stepsize", "min_margin", "avg_min_margin", "descent_violated")
GD_FIELDS = ("t", "w", "avg_w", "risk", "avg_risk", "phi", "stepsize", "log_stepsize",
             "min_margin", "avg_min_margin", "descent_violated")
NN_COLUMNS = ("t", "weights", "log_risk", "phi", "stepsize", "log_stepsize",
              "min_margin", "min_log_risk", "min_risk_t", "descent_violated")
NN_FIELDS = ("t", "weights", "risk", "phi", "stepsize", "log_stepsize", "min_margin",
             "min_log_risk", "min_risk_t", "descent_violated")
# A derived field: (the log column it is computed from, how).
DERIVED = {"risk": ("log_risk", _risk_from_log), "avg_risk": ("log_avg_risk", _risk_from_log),
           "stepsize": ("log_stepsize", _exp_or_inf)}
NN_ACTIVATIONS = ("leakyrelu:0.5", "leaky-gelu:0.9", "leaky-softplus:0.9", "leaky-silu:0.9",
                  "leaky-relu-variant:0.7")
# the activations of the runs long enough to cross a block of rows
NN_BLOCK_ACTIVATIONS = ("leakyrelu:0.5", "leaky-gelu:0.9")

SEEDS = (0, 3, 1000)
CLI_CONFIGS = {
    "run-log-adaptive": ("run", ["dataset = random:d=10,n=100,gamma=0.1", "loss = log",
                                 "stepsize = adaptive:400", "steps = 2000"]),
    # every margin stays at or below 700 (at most 420 by t = 50): the
    # log kernels' full branch on 2000 margins and on stacks of iterates
    "run-log-adaptive-wide": ("run", ["dataset = random:d=300,n=2000,gamma=0.1",
                                      "loss = log", "stepsize = adaptive:400",
                                      "steps = 50"]),
    "run-exp-constant-diverges": ("run", ["dataset = two-point:gamma=0.05", "loss = exp",
                                          "stepsize = constant:1000", "steps = 50"]),
    "run-poly-weighted": ("run", ["dataset = batch-hard:gamma=0.1,n=64,weighted=true",
                                  "loss = poly:2", "stepsize = adaptive:8", "steps = 300",
                                  "record_every = 7"]),
    "run-hinge-constant": ("run", ["dataset = random:d=5,n=40,gamma=0.2", "loss = hinge",
                                   "stepsize = constant:1", "steps = 200"]),
    # constant runs whose rows cross the 64-step blocks
    "run-exp-constant-300": ("run", ["dataset = random:d=10,n=100,gamma=0.1", "loss = exp",
                                     "stepsize = constant:1", "steps = 300"]),
    "run-exp-constant-300-every7": ("run", ["dataset = random:d=10,n=100,gamma=0.1",
                                            "loss = exp", "stepsize = constant:1",
                                            "steps = 300", "record_every = 7"]),
    "run-log-constant-300": ("run", ["dataset = random:d=10,n=100,gamma=0.1", "loss = log",
                                     "stepsize = constant:1", "steps = 300"]),
    "run-log-constant-300-every7": ("run", ["dataset = random:d=10,n=100,gamma=0.1",
                                            "loss = log", "stepsize = constant:1",
                                            "steps = 300", "record_every = 7"]),
    # its risk rises on 40 of its steps, before t = 64
    "run-log-constant-rises": ("run", ["dataset = two-point:gamma=0.05", "loss = log",
                                       "stepsize = constant:400", "steps = 300"]),
    "run-semicircle-no-iterates": ("run", ["dataset = random:d=1000,n=50,gamma=0.1",
                                           "loss = semicircle", "stepsize = adaptive:50",
                                           "steps = 1001", "record_every = 10"]),
    # long rows: d * steps = 10**6, so trajectory.json still carries the iterates
    "run-log-long-rows": ("run", ["dataset = random:d=100000,n=20,gamma=0.1", "loss = log",
                                  "stepsize = adaptive:400", "steps = 10"]),
    # every margin in (0, 700] from t = 2 on: ln |l'| reuses ln l's softplus
    "run-log-adaptive-positive": ("run", ["dataset = random:d=50,n=1000,gamma=0.1",
                                          "loss = log", "stepsize = adaptive:50",
                                          "steps = 300"]),
    "run-log-constant-positive": ("run", ["dataset = random:d=50,n=1000,gamma=0.1",
                                          "loss = log", "stepsize = constant:1",
                                          "steps = 300", "record_every = 7"]),
    # margins that straddle 700 with every one above 0 on many iterates
    "run-log-straddles-700": ("run", ["dataset = random:d=20,n=300,gamma=0.1,seed=0",
                                      "loss = log", "stepsize = adaptive:400",
                                      "steps = 300"]),
    # every margin nonnegative from t = 182 (poly) and t = 112 (semicircle) on
    "run-poly-turns-nonnegative": ("run", ["dataset = random:d=10,n=100,gamma=0.1,seed=3",
                                           "loss = poly:2", "stepsize = adaptive:50",
                                           "steps = 300"]),
    "run-semicircle-turns-nonnegative": ("run", [
        "dataset = random:d=10,n=100,gamma=0.1,seed=3", "loss = semicircle",
        "stepsize = constant:1", "steps = 300", "record_every = 7"]),
    # log runs that pass min margin 700 mid-run: both log kernels then negate
    "run-log-separates-weighted": ("run", ["dataset = batch-hard:gamma=0.1,n=64,weighted=true",
                                           "loss = log", "stepsize = adaptive:400",
                                           "steps = 300", "record_every = 7"]),
    "run-nn-log-separates": ("run-nn", ["dataset = random:d=10,n=100,gamma=0.2", "loss = log",
                                        "stepsize = adaptive:400", "steps = 200", "width = 4",
                                        "activation = leakyrelu:0.5"]),
    "run-nn-exp-leakyrelu": ("run-nn", ["dataset = random:d=10,n=100,gamma=0.1",
                                        "loss = exp", "stepsize = adaptive:400",
                                        "steps = 500", "width = 16",
                                        "activation = leakyrelu:0.5", "record_every = 3"]),
    "run-nn-log-gelu": ("run-nn", ["dataset = batch-hard:gamma=0.1,n=64", "loss = log",
                                   "stepsize = adaptive:8", "steps = 200", "width = 4",
                                   "activation = leaky-gelu:0.9"]),
    # the CSV header carries the blend's measured alpha and kappa
    "run-nn-exp-silu": ("run-nn", ["dataset = random:d=6,n=40,gamma=0.15", "loss = exp",
                                   "stepsize = adaptive:20", "steps = 100", "width = 8",
                                   "activation = leaky-silu:0.7", "record_every = 5"]),
    "verify": ("verify", []),
    "bench": ("bench", []),
    # bench's first passages: four per run, one of them missed by constant
    "bench-four-passages": ("bench", ["epsilons = 0.5, 0.3, 0.1, 0.01",
                                      "methods = constant,small-adaptive", "max_steps = 3000",
                                      "eta_constant = 4"]),
    "bench-unsorted-repeated": ("bench", ["epsilons = 1e-6, 1e-2, 1e-6, 0.9",
                                          "methods = small-adaptive,large-adaptive",
                                          "max_steps = 2000"]),
    "bench-diverges": ("bench", ["methods = small-adaptive,constant", "eta_small = 1e308",
                                 "max_steps = 50"]),
    "bench-one-step": ("bench", ["max_steps = 1", "epsilons = 0.9,0.5"]),
    # three first passages inside one 64-step block
    "bench-log-one-block": ("bench", ["loss = log", "methods = constant",
                                      "epsilons = 0.6,0.59,0.58,0.5", "eta_constant = 3",
                                      "max_steps = 500"]),
    "bench-log-all-methods": ("bench", ["loss = log", "methods = constant,small-adaptive,"
                                        "large-adaptive,perceptron"]),
    "gen-random": ("gen", ["dataset = random:d=6,n=40,gamma=0.15"]),
    "gen-random-seeded": ("gen", ["dataset = random:d=3,n=9,gamma=0.3,seed=7"]),
    "gen-two-point": ("gen", ["dataset = two-point:gamma=0.05"]),
    "gen-batch-hard": ("gen", ["dataset = batch-hard:gamma=0.1,n=64"]),
    "gen-batch-hard-materialized": ("gen", ["dataset = batch-hard:gamma=0.1,n=16,weighted=false"]),
    "gen-online-hard": ("gen", ["dataset = online-hard:gamma=0.25,n=20"]),
    "gen-chain-hard": ("gen", ["dataset = chain-hard:gamma=0.05,n=30"]),
    "gen-file": ("gen", ["dataset = file:source.txt"]),
    "gen-file-weighted": ("gen", ["dataset = file:weighted.txt"]),
    "gen-file-crlf-comments": ("gen", ["dataset = file:crlf.txt"]),
    "perceptron-cyclic": ("perceptron", ["dataset = random:d=10,n=100,gamma=0.1",
                                         "steps = 3000"]),
    "perceptron-random": ("perceptron", ["dataset = online-hard:gamma=0.2,n=30",
                                         "order = random:5", "steps = 500"]),
    "perceptron-file": ("perceptron", ["dataset = file:source.txt", "order = file:order.txt"]),
    # refused configs: exit 2, stderr digested
    "refused-no-config": ("run", None),
    "refused-missing-keys": ("run", ["loss = exp"]),
    "refused-lines": ("bench", ["methods = sgd", "epsilons = 0", "color = blue", "no pair",
                                "gammas = 0.1", "gammas = 0.2", "command = run"]),
    "refused-cross-keys": ("run-nn", ["dataset = two-point:gamma=0.05", "loss = poly:2",
                                      "stepsize = constant:1", "steps = 5", "width = 4",
                                      "activation = leakyrelu:0.5"]),
    "refused-perceptron-steps": ("perceptron", ["dataset = two-point:gamma=0.05"]),
    "refused-generator-range": ("gen", ["dataset = two-point:gamma=0.2"]),
    "refused-source-params": ("gen", ["dataset = random:d=3,gamma=0.1,k=2"]),
    "refused-bad-file": ("gen", ["dataset = file:malformed.txt"]),
    "refused-order-range": ("perceptron", ["dataset = two-point:gamma=0.05",
                                           "order = file:order.txt"]),
}

# Input files the configs above name, written into the work directory.
INPUTS = {
    "order.txt": "0 1 2 3 4 5 6 7 8\n3 3 1 0\n",
    "malformed.txt": "margin-lab-dataset v1 n=2 d=2 gamma=0.5\nwstar: 1 0\n+1 abc 0\n",
}


def _encode(value) -> bytes:
    """Exact bytes of a recorded value: arrays by dtype, shape and buffer,
    floats by their IEEE bits, anything else by repr."""
    if isinstance(value, np.ndarray):
        return f"{value.dtype.str}{value.shape}".encode() + np.ascontiguousarray(value).tobytes()
    if dataclasses.is_dataclass(value):
        return b"|".join(_encode(getattr(value, f.name)) for f in dataclasses.fields(value))
    if isinstance(value, (float, np.floating)):
        return struct.pack("<d", float(value))
    return repr(value).encode()


def _values(traj, name) -> list:
    """The column of that name, or the one derived from its log column:
    risk and avg_risk are RiskValues, stepsize is exp(log_stepsize). A
    trajectory without rows has no columns; any other lacking the name
    raises KeyError."""
    if not traj.columns:
        return []
    if name in DERIVED:
        source, derive = DERIVED[name]
        return [derive(v) for v in traj.columns[source]]
    return traj.columns[name]


def trajectory_digest(traj, columns, fields) -> str:
    h = hashlib.sha256()
    h.update(repr(getattr(traj, "diverged_at", None)).encode())
    for name in columns:
        h.update(name.encode() + _encode(np.array(_values(traj, name))))
    rows = list(zip(*(_values(traj, name) for name in fields), strict=True))
    h.update(repr(len(rows)).encode())
    for row in rows:
        for name, value in zip(fields, row):
            h.update(name.encode() + _encode(value))
    return h.hexdigest()


def gd_lines():
    for loss, agg, mode, etas in FUSED_GRID:
        for ds_name, make in FUSED_DATASETS.items():
            ds = make()
            spec = loss.with_aggregation(agg)
            for eta in etas:
                base = GDConfig(loss=spec, eta=eta, steps=30, mode=mode)
                full = run_gd(ds, base)
                logs = full.columns["log_avg_risk"]
                target = logs[len(logs) // 2]
                for tgt in (None, target):
                    for every in (1, 7):
                        cfg = dataclasses.replace(base, record_every=every,
                                                  target_log_avg_risk=tgt)
                        traj = run_gd(ds, cfg)
                        case = (f"{spec.name}-{agg} {mode} eta={eta:g} {ds_name} "
                                f"target={'on' if tgt is not None else 'off'} every={every}")
                        yield f"run_gd {case} {trajectory_digest(traj, GD_COLUMNS, GD_FIELDS)}"
    # every margin passes 700 mid-run (for good from t = 107 on the random
    # set, 46 on batch-hard): the coefficients read ln |l'| off the state's
    # a, with the dataset's weights, under the sum the CLI refuses
    spec = LOG.with_aggregation("sum")
    for ds_name in ("random", "batch-hard-weighted"):
        ds = FUSED_DATASETS[ds_name]()
        base = GDConfig(loss=spec, eta=400.0, steps=300)
        target = run_gd(ds, base).columns["log_avg_risk"][200]
        for tgt in (None, target):
            for every in (1, 7):
                traj = run_gd(ds, dataclasses.replace(base, record_every=every,
                                                      target_log_avg_risk=tgt))
                case = (f"{spec.name}-sum adaptive eta=400 {ds_name} steps=300 "
                        f"target={'on' if tgt is not None else 'off'} every={every}")
                yield f"run_gd {case} {trajectory_digest(traj, GD_COLUMNS, GD_FIELDS)}"
    # a target at a late row's own value and one ulp either side
    for ds_name in ("random", "batch-hard-weighted"):
        ds = FUSED_DATASETS[ds_name]()
        for loss in (EXP, LOG):
            for mode in ("constant", "adaptive"):
                base = GDConfig(loss=loss, eta=1.0, steps=300, mode=mode)
                late = run_gd(ds, base).columns["log_avg_risk"][250]
                for ulps, tgt in zip((-1, 0, 1), (math.nextafter(late, -math.inf), late,
                                                  math.nextafter(late, math.inf))):
                    for every in (7, 300):
                        traj = run_gd(ds, dataclasses.replace(base, record_every=every,
                                                              target_log_avg_risk=tgt))
                        case = (f"{loss.name} {mode} eta=1 {ds_name} steps=300 "
                                f"target=row250{ulps:+d}ulp every={every}")
                        yield f"run_gd {case} {trajectory_digest(traj, GD_COLUMNS, GD_FIELDS)}"
    # iterates that change the branch of their kernel pair mid-run: log margins
    # entering (0, 700] for good at t = 203 (constant), leaving and re-entering
    # it (adaptive, d = 10), straddling 700 above 0 under the sum (d = 50);
    # poly:2 and semicircle margins turning all nonnegative
    for loss, mode, eta, d, n, seed in ((LOG, "constant", 1.0, 10, 100, 0),
                                        (LOG, "adaptive", 50.0, 10, 100, 0),
                                        (LOG, "adaptive", 50.0, 50, 1000, 0),
                                        (poly(2.0), "constant", 0.1, 10, 100, 3),
                                        (poly(2.0), "adaptive", 50.0, 10, 100, 3),
                                        (SEMICIRCLE, "constant", 1.0, 10, 100, 3),
                                        (SEMICIRCLE, "adaptive", 50.0, 10, 100, 3)):
        ds = gen_random_separable(d, n, 0.1, seed=seed)
        for agg in ("mean", "sum"):
            for every in (1, 7):
                cfg = GDConfig(loss=loss.with_aggregation(agg), eta=eta, steps=300, mode=mode,
                               record_every=every)
                case = (f"{loss.name}-{agg} {mode} eta={eta:g} random:d={d},n={n},seed={seed} "
                        f"steps=300 every={every}")
                yield f"run_gd {case} {trajectory_digest(run_gd(ds, cfg), GD_COLUMNS, GD_FIELDS)}"


def nn_lines():
    runs = ([(act, 30, 8.0) for act in NN_ACTIVATIONS]
            + [(act, 150, 50.0) for act in NN_BLOCK_ACTIVATIONS])
    for act, steps, eta in runs:
        length = "" if steps == 30 else f" steps={steps} eta={eta:g}"
        for loss in (EXP, LOG):
            for ds_name, make in NN_DATASETS.items():
                ds = make()
                net = make_net(ds.d, 4, parse_activation(act))
                for every in (1, 7):
                    cfg = GDConfig(loss=loss, eta=eta, steps=steps, record_every=every)
                    traj = run_gd_nn(ds, net, cfg)
                    case = f"{act} {loss.name} {ds_name}{length} every={every}"
                    yield f"run_gd_nn {case} {trajectory_digest(traj, NN_COLUMNS, NN_FIELDS)}"


def check_lines():
    for seed in SEEDS:
        ds = gen_random_separable(10, 100, 0.1, seed=seed)
        ds_nn = gen_random_separable(10, 100, 0.2, seed=seed)
        iterates = run_gd(ds, GDConfig(loss=EXP, eta=4.0, steps=299)).column("w")
        reports = {
            "gradient log/sum random": check_gradient_inequalities(
                ds, LOG.with_aggregation("sum"), probes=300, seed=seed),
            "gradient log batch-hard-weighted": check_gradient_inequalities(
                gen_batch_hard(0.1, 64, weighted=True), LOG, probes=300, seed=seed),
            "gradient poly:2 random-n101": check_gradient_inequalities(
                gen_random_separable(10, 101, 0.1, seed=seed), poly(2.0), probes=300, seed=seed),
            "network exp leaky-silu": check_network_inequalities(
                ds_nn, parse_activation("leaky-silu:0.9"), seed=seed),
            "network log leaky-softplus": check_network_inequalities(
                ds_nn, parse_activation("leaky-softplus:0.9"), seed=seed, loss=LOG),
            "separation exp 300-iterates": check_risk_implies_separation(ds, EXP, iterates),
        }
        for name, report in reports.items():
            text = json.dumps(report.to_dict(), sort_keys=True)
            yield f"check {name} seed={seed} {hashlib.sha256(text.encode()).hexdigest()}"


def _value_digest(value) -> str:
    """sha256 of a stacked result: an array, a list of floats or RiskValues,
    or a tuple of them."""
    h = hashlib.sha256()
    for part in value if isinstance(value, tuple) else (value,):
        for item in part if isinstance(part, list) else (part,):
            h.update(_encode(item))
    return h.hexdigest()


def stack_lines():
    for seed in SEEDS:
        ds = gen_random_separable(10, 20_000, 0.1, seed=seed)
        rng = np.random.default_rng(seed)
        probes = np.vstack([rng.standard_normal((7, ds.d)) * 10.0 ** rng.uniform(-3.0, 2.5, (7, 1)),
                            np.outer([10.0, 1000.0, -1000.0], ds.w_star)])
        for loss in (EXP, LOG, poly(2.0)):
            for fn in (risk, phi, grad_phi, grad_risk):
                yield (f"stack {fn.__name__} {loss.name} seed={seed} "
                       f"{_value_digest(fn(probes, ds, loss))}")
        activation = leaky_relu(0.5)
        weights = rng.standard_normal((3, 4, ds.d)) * 10.0 ** rng.uniform(-1.5, 1.5, (3, 1, 1))
        nets = TwoLayerNet(weights, make_net(ds.d, 4, activation).signs, activation)
        yield f"stack nn_margins seed={seed} {_value_digest(nn_margins(nets, ds))}"
        for loss in (EXP, LOG):
            for fn in (nn_risk, nn_risk_and_grad_phi):
                yield (f"stack {fn.__name__} {loss.name} seed={seed} "
                       f"{_value_digest(fn(nets, ds, loss))}")
            text = json.dumps(check_risk_implies_separation(ds, loss, probes).to_dict(),
                              sort_keys=True)
            yield (f"stack check_risk_implies_separation {loss.name} seed={seed} "
                   f"{hashlib.sha256(text.encode()).hexdigest()}")


def _regime_stack(n_rows: int, seed: int) -> np.ndarray:
    """Seven rows of margins, one per regime of the kernel pairs: (0, 600],
    negative, around 0, past 700, around 700, zeros and [0, 1e4]."""
    rng = np.random.default_rng(seed)
    return np.stack([rng.uniform(1e-3, 600.0, n_rows), rng.uniform(-50.0, -1e-3, n_rows),
                     rng.uniform(-5.0, 5.0, n_rows), rng.uniform(701.0, 2000.0, n_rows),
                     rng.uniform(600.0, 800.0, n_rows), np.zeros(n_rows),
                     rng.uniform(0.0, 1e4, n_rows)])


def branch_stack_lines():
    for seed in SEEDS:
        regimes = _regime_stack(100, seed)
        with_nan = regimes.copy()
        with_nan[-1, 50] = math.nan
        for spec in (LOG, poly(2.0), poly(0.5), SEMICIRCLE):
            for case, z in (("regimes", regimes), ("nan-row", with_nan)):
                for fn in (spec.log_value, spec.log_abs_deriv):
                    yield (f"branch-stack {fn.__name__} {spec.name} {case} seed={seed} "
                           f"{_value_digest(fn(z))}")
        ds = gen_random_separable(10, 100, 0.1, seed=seed)
        multiples = np.outer([1000.0, 2.0, 0.5, -0.5, -2.0], ds.w_star)
        with_nan = np.vstack([multiples, np.full((1, ds.d), math.nan)])
        for loss in (LOG, poly(2.0), poly(0.5), SEMICIRCLE):
            for spec in (loss, loss.with_aggregation("sum")):
                for case, w in (("w-star-multiples", multiples), ("nan-row", with_nan)):
                    for fn in (risk, grad_phi):
                        yield (f"branch-stack {fn.__name__} {spec.name} {case} seed={seed} "
                               f"{_value_digest(fn(w, ds, spec))}")
        # every row separating (top -inf), and the same with one that is not
        for case, w in (("separating", multiples[:3]), ("one-not-separating", multiples[:4])):
            for fn in (risk, grad_risk):
                yield (f"branch-stack {fn.__name__} hinge {case} seed={seed} "
                       f"{_value_digest(fn(w, ds, HINGE))}")


def online_lines():
    methods = {
        "perceptron": run_perceptron,
        "hinge-1": lambda ds, order: run_online_sgd(ds, order, HINGE, 1.0),
        "hinge-0.5": lambda ds, order: run_online_sgd(ds, order, HINGE, 0.5),
        "log-2": lambda ds, order: run_online_sgd(ds, order, LOG, 2.0),
    }
    for seed in SEEDS:
        for ds_name, ds in (("random", gen_random_separable(10, 100, 0.1, seed=seed)),
                            ("online-hard", gen_online_hard(0.2, 30))):
            orders = {"cyclic": cyclic_order(ds.n_rows, 20_000),
                      "random": random_order(ds.n_rows, 5_000, seed)}
            for order_name, order in orders.items():
                for name, method in methods.items():
                    run = method(ds, order)
                    data = _encode(run.iterates) + _encode(run.mistakes) + _encode(
                        run.separated_at)
                    yield (f"online {name} {ds_name} {order_name} seed={seed} "
                           f"{hashlib.sha256(data).hexdigest()}")


def _file_digest(path: Path) -> str:
    data = path.read_bytes()
    if path.name == "bench.csv":  # wall_time is the last column, and not reproducible
        lines = data.decode().splitlines()
        data = "\n".join(ln if ln.startswith("#") else ln.rpartition(",")[0]
                         for ln in lines).encode()
    return hashlib.sha256(data).hexdigest()


def cli_lines():
    """The CLI cases, run in the current directory."""
    save_dataset(gen_random_separable(5, 30, 0.2, seed=11), "source.txt")
    save_dataset(gen_batch_hard(0.1, 64, weighted=True), "weighted.txt")
    source = Path("source.txt").read_text().splitlines()
    crlf = ["# a comment", ""] + source[:2] + ["  ", "\t# an indented comment"] + source[2:]
    Path("crlf.txt").write_bytes(("\r\n".join(crlf) + "\r\n").encode())
    for name, text in INPUTS.items():
        Path(name).write_text(text)
    for name, (command, lines) in CLI_CONFIGS.items():
        for seed in SEEDS:
            out = Path(f"{name}-{seed}")
            argv = [command, "--out", str(out), "--seed", str(seed)]
            if lines is not None:
                config = Path(f"{name}-{seed}.cfg")
                config.write_text("\n".join(lines) + "\n")
                argv += ["--config", str(config)]
            stdout, stderr = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
                code = cli.main(argv)
            yield f"cli {name} seed={seed} exit={code}"
            for path in sorted(out.iterdir()) if out.is_dir() else ():
                yield f"cli {name} seed={seed} {path.name} {_file_digest(path)}"
            if stdout.getvalue():
                digest = hashlib.sha256(stdout.getvalue().encode()).hexdigest()
                yield f"cli {name} seed={seed} stdout {digest}"
            if code == 2:
                digest = hashlib.sha256(stderr.getvalue().encode()).hexdigest()
                yield f"cli {name} seed={seed} stderr {digest}"


def main() -> int:
    with np.errstate(all="ignore"):
        for line in gd_lines():
            print(line)
        for line in nn_lines():
            print(line)
        for line in check_lines():
            print(line)
        for line in stack_lines():
            print(line)
        for line in branch_stack_lines():
            print(line)
        for line in online_lines():
            print(line)
    cwd = os.getcwd()
    with tempfile.TemporaryDirectory() as tmp:
        os.chdir(tmp)
        try:
            for line in cli_lines():
                print(line)
        finally:
            os.chdir(cwd)
    return 0


if __name__ == "__main__":
    sys.exit(main())
