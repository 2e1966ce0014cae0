"""Print sha256 digests of every output the library and the CLI produce.

    python scripts/output_digests.py > digests.txt

Run it on two checkouts and diff the outputs: an empty diff means the two
trees give bit-identical trajectories and byte-identical CLI outputs.

One line per run or file:

- `run_gd` on the 416 configurations of `tests/test_descent.py`
  (`FUSED_GRID` x `FUSED_DATASETS` x target on/off x `record_every` 1/7);
- `run_gd_nn` on the 24 configurations of `tests/test_two_layer.py`'s
  network grid (two activations, exp and log, `NN_DATASETS`, `record_every`
  1/7);
- the CLI outputs of `run`, `run-nn`, `verify` (`reports.json` and stdout)
  and `bench` (`bench.csv` without its `wall_time` column) on seeds 0, 3
  and 1000, with each command's exit code.

Trajectories are read only through `points` and `column(name)`, with the
attribute and column names both the row-object and the columnar forms of
`Trajectory` provide, so the script runs unchanged on either.
"""

from __future__ import annotations

import contextlib
import dataclasses
import hashlib
import io
import struct
import sys
import tempfile
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests")]

from margin_lab import cli  # noqa: E402
from margin_lab.descent import GDConfig, run_gd  # noqa: E402
from margin_lab.losses import EXP, LOG  # noqa: E402
from margin_lab.two_layer import make_net, parse_activation, run_gd_nn  # noqa: E402

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
NN_ACTIVATIONS = ("leakyrelu:0.5", "leaky-gelu:0.9")

SEEDS = (0, 3, 1000)
CLI_CONFIGS = {
    "run-log-adaptive": ("run", ["dataset = random:d=10,n=100,gamma=0.1", "loss = log",
                                 "stepsize = adaptive:400", "steps = 2000"]),
    "run-exp-constant-diverges": ("run", ["dataset = two-point:gamma=0.05", "loss = exp",
                                          "stepsize = constant:1000", "steps = 50"]),
    "run-poly-weighted": ("run", ["dataset = batch-hard:gamma=0.1,n=64,weighted=true",
                                  "loss = poly:2", "stepsize = adaptive:8", "steps = 300",
                                  "record_every = 7"]),
    "run-hinge-constant": ("run", ["dataset = random:d=5,n=40,gamma=0.2", "loss = hinge",
                                   "stepsize = constant:1", "steps = 200"]),
    "run-semicircle-no-iterates": ("run", ["dataset = random:d=1000,n=50,gamma=0.1",
                                           "loss = semicircle", "stepsize = adaptive:50",
                                           "steps = 1001", "record_every = 10"]),
    "run-nn-exp-leakyrelu": ("run-nn", ["dataset = random:d=10,n=100,gamma=0.1",
                                        "loss = exp", "stepsize = adaptive:400",
                                        "steps = 500", "width = 16",
                                        "activation = leakyrelu:0.5", "record_every = 3"]),
    "run-nn-log-gelu": ("run-nn", ["dataset = batch-hard:gamma=0.1,n=64", "loss = log",
                                   "stepsize = adaptive:8", "steps = 200", "width = 4",
                                   "activation = leaky-gelu:0.9"]),
    "verify": ("verify", []),
    "bench": ("bench", []),
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


def trajectory_digest(traj, columns, fields) -> str:
    h = hashlib.sha256()
    h.update(repr(getattr(traj, "diverged_at", None)).encode())
    for name in columns:
        h.update(name.encode() + _encode(traj.column(name)))
    h.update(repr(len(traj.points)).encode())
    for p in traj.points:
        for name in fields:
            h.update(name.encode() + _encode(getattr(p, name)))
    return h.hexdigest()


def gd_lines():
    for loss, agg, mode, etas in FUSED_GRID:
        for ds_name, make in FUSED_DATASETS.items():
            ds = make()
            spec = loss.with_aggregation(agg).with_n(ds.n)
            for eta in etas:
                base = GDConfig(loss=spec, eta=eta, steps=30, mode=mode)
                full = run_gd(ds, base)
                target = full.points[len(full.points) // 2].avg_risk.log_value
                for tgt in (None, target):
                    for every in (1, 7):
                        cfg = dataclasses.replace(base, record_every=every,
                                                  target_log_avg_risk=tgt)
                        traj = run_gd(ds, cfg)
                        case = (f"{spec.name}-{agg} {mode} eta={eta:g} {ds_name} "
                                f"target={'on' if tgt is not None else 'off'} every={every}")
                        yield f"run_gd {case} {trajectory_digest(traj, GD_COLUMNS, GD_FIELDS)}"


def nn_lines():
    for act in NN_ACTIVATIONS:
        for loss in (EXP, LOG):
            for ds_name, make in NN_DATASETS.items():
                ds = make()
                net = make_net(ds.d, 4, parse_activation(act))
                for every in (1, 7):
                    cfg = GDConfig(loss=loss, eta=8.0, steps=30, record_every=every)
                    traj = run_gd_nn(ds, net, cfg)
                    case = f"{act} {loss.name} {ds_name} every={every}"
                    yield f"run_gd_nn {case} {trajectory_digest(traj, NN_COLUMNS, NN_FIELDS)}"


def _file_digest(path: Path) -> str:
    data = path.read_bytes()
    if path.name == "bench.csv":  # wall_time is the last column, and not reproducible
        lines = data.decode().splitlines()
        data = "\n".join(ln if ln.startswith("#") else ln.rpartition(",")[0]
                         for ln in lines).encode()
    return hashlib.sha256(data).hexdigest()


def cli_lines(work: Path):
    for name, (command, lines) in CLI_CONFIGS.items():
        for seed in SEEDS:
            out = work / f"{name}-{seed}"
            config = work / f"{name}-{seed}.cfg"
            config.write_text("\n".join(lines) + "\n")
            stdout = io.StringIO()
            with contextlib.redirect_stdout(stdout):
                code = cli.main([command, "--config", str(config), "--out", str(out),
                                 "--seed", str(seed)])
            yield f"cli {name} seed={seed} exit={code}"
            for path in sorted(out.iterdir()):
                yield f"cli {name} seed={seed} {path.name} {_file_digest(path)}"
            if stdout.getvalue():
                digest = hashlib.sha256(stdout.getvalue().encode()).hexdigest()
                yield f"cli {name} seed={seed} stdout {digest}"


def main() -> int:
    with np.errstate(all="ignore"):
        for line in gd_lines():
            print(line)
        for line in nn_lines():
            print(line)
    with tempfile.TemporaryDirectory() as tmp:
        for line in cli_lines(Path(tmp)):
            print(line)
    return 0


if __name__ == "__main__":
    sys.exit(main())
