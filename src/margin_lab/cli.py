"""Command-line harness: datasets, GD and Perceptron runs, checks, benchmark.

Subcommands: gen | run | run-nn | perceptron | verify | bench, each taking
``--config <path>`` (line-oriented ``key = value`` text), ``--out <dir>``
(default "."), and ``--seed <int>`` (overrides the config's seed key).
Output is data-only CSV/JSON. Every output file carries a provenance header
(library version, config hash, effective seed); identical config + seed give
byte-identical outputs, except for the wall_time column of bench.

Exit codes: 0 success, 1 verification failure, 2 config error.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import __version__
from .datasets import (
    Dataset,
    gen_batch_hard,
    gen_chain_hard,
    gen_online_hard,
    gen_random_separable,
    gen_two_point,
    load_dataset,
    save_dataset,
)
from .descent import GDConfig, run_gd
from .losses import EXP, LossSpec, parse_loss
from .online import cyclic_order, random_order, run_perceptron
from .two_layer import NN_LOSS_KINDS, make_net, parse_activation, run_gd_nn
from .verify import dataset_fingerprint, default_suite, render_table

COMMANDS = ("gen", "run", "run-nn", "perceptron", "verify", "bench")
BENCH_METHODS = ("constant", "small-adaptive", "large-adaptive", "perceptron")

DATASET_KINDS = ("random", "two-point", "batch-hard", "online-hard", "chain-hard", "file")


class ConfigError(Exception):
    """One or more config problems; each entry is (line_number, message).

    Line number 0 marks file-level problems (missing keys, missing file).
    """

    def __init__(self, errors):
        self.errors = sorted(errors)
        super().__init__("; ".join(f"line {ln}: {msg}" for ln, msg in self.errors))


@dataclass(frozen=True)
class DatasetSpec:
    kind: str
    params: dict


@dataclass
class ExperimentConfig:
    command: str
    values: dict
    text: str = ""

    @property
    def sha(self) -> str:
        return hashlib.sha256(self.text.encode()).hexdigest()[:12]


# ---------------------------------------------------------------------------
# Value parsers (each raises ValueError with a user-facing message)
# ---------------------------------------------------------------------------

def _parse_int(raw: str, name: str, minimum: int | None = None) -> int:
    try:
        v = int(raw)
    except ValueError:
        raise ValueError(f"{name} must be an integer, got {raw!r}") from None
    if minimum is not None and v < minimum:
        raise ValueError(f"{name} must be >= {minimum}, got {v}")
    return v


def _parse_float(raw: str, name: str) -> float:
    try:
        v = float(raw)
    except ValueError:
        raise ValueError(f"{name} must be a number, got {raw!r}") from None
    if not math.isfinite(v):
        raise ValueError(f"{name} must be finite, got {v}")
    return v


def _parse_gamma(raw: str, name: str = "gamma") -> float:
    v = _parse_float(raw, name)
    if not (0.0 < v < 1.0):
        raise ValueError(f"{name} must be in (0, 1), got {v}")
    return v


def _parse_bool(raw: str, name: str) -> bool:
    low = raw.lower()
    if low in ("true", "false"):
        return low == "true"
    raise ValueError(f"{name} must be true or false, got {raw!r}")


def _split_params(rest: str) -> dict:
    params = {}
    if not rest:
        return params
    for item in rest.split(","):
        key, eq, value = item.partition("=")
        key, value = key.strip(), value.strip()
        if not eq or not key:
            raise ValueError(f"bad dataset parameter {item!r} (expected key=value)")
        if key in params:
            raise ValueError(f"duplicate dataset parameter {key!r}")
        params[key] = value
    return params


def _take(params: dict, spec_kind: str, required: dict, optional: dict) -> dict:
    typed = {}
    for key, parser in required.items():
        if key not in params:
            raise ValueError(f"{spec_kind} source needs {key}=<value>")
        typed[key] = parser(params.pop(key))
    for key, parser in optional.items():
        if key in params:
            typed[key] = parser(params.pop(key))
    if params:
        bad = ", ".join(sorted(params))
        raise ValueError(f"unknown parameter(s) for {spec_kind} source: {bad}")
    return typed


def _is_file(path) -> bool:
    """Whether path names an existing file; a path the OS refuses to look
    up (a name too long, say) names none."""
    try:
        return Path(path).is_file()
    except OSError:
        return False


def parse_dataset_source(value: str) -> DatasetSpec:
    """Parse a dataset source string into a validated DatasetSpec.

    Forms: random:d=..,n=..,gamma=..[,seed=..] | two-point:gamma=.. |
    batch-hard:gamma=..,n=..[,weighted=true|false] | online-hard:gamma=..,n=..
    | chain-hard:gamma=..,n=.. | file:<path>. Referenced files must exist.
    """
    kind, sep, rest = value.partition(":")
    if kind not in DATASET_KINDS:
        known = ", ".join(DATASET_KINDS)
        raise ValueError(f"unknown dataset source {kind!r} (known: {known})")
    if kind == "file":
        if not sep or not rest:
            raise ValueError("file source needs a path: file:<path>")
        if not _is_file(rest):
            raise ValueError(f"dataset file not found: {rest}")
        return DatasetSpec(kind, {"path": rest})
    params = _split_params(rest)
    count = lambda raw: _parse_int(raw, "n", minimum=1)  # noqa: E731
    if kind == "random":
        typed = _take(params, kind,
                      required={"d": lambda r: _parse_int(r, "d", minimum=1),
                                "n": count, "gamma": _parse_gamma},
                      optional={"seed": lambda r: _parse_int(r, "seed")})
    elif kind == "two-point":
        typed = _take(params, kind, required={"gamma": _parse_gamma}, optional={})
    elif kind == "batch-hard":
        typed = _take(params, kind,
                      required={"gamma": _parse_gamma, "n": count},
                      optional={"weighted": lambda r: _parse_bool(r, "weighted")})
    else:  # online-hard | chain-hard
        typed = _take(params, kind,
                      required={"gamma": _parse_gamma, "n": count}, optional={})
    return DatasetSpec(kind, typed)


def parse_stepsize(value: str) -> tuple[str, float]:
    mode, sep, raw = value.partition(":")
    if mode not in ("adaptive", "constant") or not sep:
        raise ValueError(
            f"stepsize must be adaptive:<eta> or constant:<eta>, got {value!r}"
        )
    try:
        eta = float(raw)
    except ValueError:
        raise ValueError(f"bad eta {raw!r} in stepsize {value!r}") from None
    if not (math.isfinite(eta) and eta > 0.0):
        raise ValueError("eta must be positive")
    return mode, eta


def parse_order_spec(value: str) -> tuple[str, object]:
    if value == "cyclic":
        return ("cyclic", None)
    if value.startswith("random:"):
        return ("random", _parse_int(value[len("random:"):], "order seed"))
    if value.startswith("file:"):
        path = value[len("file:"):]
        if not _is_file(path):
            raise ValueError(f"order file not found: {path}")
        return ("file", path)
    raise ValueError(
        f"order must be cyclic, random:<seed>, or file:<path>, got {value!r}"
    )


def _parse_list(raw: str, name: str, item_parser) -> tuple:
    items = [s.strip() for s in raw.split(",") if s.strip()]
    if not items:
        raise ValueError(f"{name} must be a non-empty comma-separated list")
    return tuple(item_parser(s) for s in items)


def _parse_methods(raw: str) -> tuple:
    methods = _parse_list(raw, "methods", str)
    for m in methods:
        if m not in BENCH_METHODS:
            known = ", ".join(BENCH_METHODS)
            raise ValueError(f"unknown bench method {m!r} (known: {known})")
    return methods


def _parse_epsilon(raw: str) -> float:
    v = _parse_float(raw, "epsilon")
    if v <= 0.0:
        raise ValueError(f"epsilon must be positive, got {v}")
    return v


def _parse_positive_float(raw: str, name: str) -> float:
    v = _parse_float(raw, name)
    if v <= 0.0:
        raise ValueError(f"{name} must be positive, got {v}")
    return v


# ---------------------------------------------------------------------------
# Config schema
# ---------------------------------------------------------------------------

_SCHEMAS = {
    "gen": ({"dataset"}, {"command", "seed"}),
    "run": ({"dataset", "loss", "stepsize", "steps"},
            {"command", "seed", "record_every"}),
    "run-nn": ({"dataset", "loss", "stepsize", "steps", "width", "activation"},
               {"command", "seed", "record_every"}),
    "perceptron": ({"dataset"}, {"command", "seed", "order", "steps"}),
    "verify": (set(), {"command", "seed"}),
    "bench": (set(), {"command", "seed", "gammas", "epsilons", "methods",
                      "d", "n", "loss", "max_steps", "eta_constant",
                      "eta_small"}),
}


def _typed_value(command: str, key: str, raw: str):
    if key == "command":
        if raw != command:
            raise ValueError(f"config says command = {raw}, but {command} was invoked")
        return raw
    if key == "dataset":
        return parse_dataset_source(raw)
    if key == "loss":
        return parse_loss(raw)
    if key == "stepsize":
        return parse_stepsize(raw)
    if key == "activation":
        return parse_activation(raw)
    if key == "order":
        return parse_order_spec(raw)
    if key in ("steps", "max_steps"):
        return _parse_int(raw, key, minimum=1)
    if key in ("width", "record_every", "d", "n"):
        return _parse_int(raw, key, minimum=1)
    if key == "seed":
        return _parse_int(raw, "seed")
    if key == "gammas":
        return _parse_list(raw, "gammas", lambda s: _parse_gamma(s, "gamma"))
    if key == "epsilons":
        return _parse_list(raw, "epsilons", _parse_epsilon)
    if key == "methods":
        return _parse_methods(raw)
    if key in ("eta_constant", "eta_small"):
        return _parse_positive_float(raw, key)
    raise AssertionError(f"no parser for key {key}")


def _cross_checks(command: str, values: dict, lines: dict) -> list:
    """Validation that spans several keys; returns (line, message) errors."""
    errors = []

    def line_of(key):
        return lines.get(key, 0)

    loss = values.get("loss")
    stepsize = values.get("stepsize")
    if command == "run" and loss is not None and stepsize is not None:
        if not loss.ops.smooth and stepsize[0] == "adaptive":
            errors.append((line_of("loss"),
                           f"{loss.kind} loss has no inverse; use stepsize = constant:<eta>"))
    if command == "run-nn":
        if stepsize is not None and stepsize[0] != "adaptive":
            errors.append((line_of("stepsize"),
                           "run-nn trains with adaptive stepsizes only"))
        if loss is not None and loss.kind not in NN_LOSS_KINDS:
            errors.append((line_of("loss"),
                           f"run-nn supports exp or log loss, got {loss.name}"))
    if command == "perceptron":
        order = values.get("order", ("cyclic", None))
        if order[0] != "file" and "steps" not in values:
            errors.append((0, "steps is required unless order = file:<path>"))
    if command == "bench":
        if loss is not None and not loss.ops.smooth:
            errors.append((line_of("loss"), "bench GD methods need a smooth loss"))
    return errors


def parse_config(text: str, command: str) -> ExperimentConfig:
    """Parse and fully validate a config; raises ConfigError with line numbers."""
    if command not in _SCHEMAS:
        raise ConfigError([(0, f"unknown command {command!r}")])
    required, optional = _SCHEMAS[command]
    allowed = required | optional

    pairs: dict[str, tuple[str, int]] = {}
    errors: list[tuple[int, str]] = []
    for i, raw_line in enumerate(text.splitlines(), start=1):
        line = raw_line.strip()
        if not line or line.startswith("#"):
            continue
        key, eq, value = line.partition("=")
        key, value = key.strip(), value.strip()
        if not eq or not key:
            errors.append((i, f"expected 'key = value', got {line!r}"))
            continue
        if key in pairs:
            errors.append((i, f"duplicate key {key!r}"))
            continue
        pairs[key] = (value, i)

    values: dict = {}
    lines: dict[str, int] = {}
    for key, (raw, line) in pairs.items():
        if key not in allowed:
            errors.append((line, f"unknown key {key!r} for command {command}"))
            continue
        lines[key] = line
        try:
            values[key] = _typed_value(command, key, raw)
        except ValueError as exc:
            errors.append((line, str(exc)))
    for key in sorted(required):
        if key not in pairs:
            errors.append((0, f"missing required key {key!r}"))
    if not errors:
        errors.extend(_cross_checks(command, values, lines))
    if errors:
        raise ConfigError(errors)
    return ExperimentConfig(command=command, values=values, text=text)


# ---------------------------------------------------------------------------
# Execution helpers
# ---------------------------------------------------------------------------

def _fmt(x: float) -> str:
    return f"{x:.17g}"


def make_dataset(spec: DatasetSpec, default_seed: int) -> Dataset:
    """The dataset a source names; a file that breaks the dataset contract,
    or parameters outside the generator's range, are a config error."""
    p = spec.params
    try:
        if spec.kind == "file":
            return load_dataset(p["path"])
        if spec.kind == "random":
            seed = p.get("seed", default_seed)
            return gen_random_separable(p["d"], p["n"], p["gamma"], seed=seed)
        if spec.kind == "two-point":
            return gen_two_point(p["gamma"])
        if spec.kind == "batch-hard":
            return gen_batch_hard(p["gamma"], p["n"], weighted=p.get("weighted", True))
        if spec.kind == "online-hard":
            return gen_online_hard(p["gamma"], p["n"])
        return gen_chain_hard(p["gamma"], p["n"])
    except ValueError as exc:
        # load_dataset's messages already start with the path
        where = " " if spec.kind == "file" else " source: "
        raise ConfigError([(0, f"bad dataset {spec.kind}{where}{exc}")]) from None


def _provenance_line(cfg: ExperimentConfig, seed: int) -> str:
    return f"# margin-lab v{__version__} config_sha256={cfg.sha} seed={seed}"


def _provenance_obj(cfg: ExperimentConfig, seed: int) -> dict:
    return {"version": __version__, "config_sha256": cfg.sha, "seed": seed}


def _write_text(path: Path, lines) -> None:
    path.write_text("\n".join(lines) + "\n")


def _columns(traj, header: str) -> dict:
    """The trajectory columns a CSV header names (log_eta_t is the
    trajectory's log_stepsize), with flags as 0/1."""
    return {h: [int(v) if isinstance(v, bool) else v
                for v in traj.columns.get("log_stepsize" if h == "log_eta_t" else h, [])]
            for h in header.split(",")}


def _csv(header: str, columns: dict) -> list:
    """One format per row: %d (as str) for int columns, %.17g (as _fmt) else."""
    fmt = ",".join("%d" if values and isinstance(values[0], int) else "%.17g"
                   for values in columns.values())
    return [header] + [fmt % row for row in zip(*columns.values())]


# ---------------------------------------------------------------------------
# Commands
# ---------------------------------------------------------------------------

def cmd_gen(cfg: ExperimentConfig, out: Path, seed: int) -> int:
    ds = make_dataset(cfg.values["dataset"], seed)
    save_dataset(ds, out / "dataset.txt",
                 comments=(_provenance_line(cfg, seed),))
    return 0


def cmd_run(cfg: ExperimentConfig, out: Path, seed: int) -> int:
    ds = make_dataset(cfg.values["dataset"], seed)
    mode, eta = cfg.values["stepsize"]
    steps = cfg.values["steps"]
    record_every = cfg.values.get("record_every", 1)
    loss = cfg.values["loss"].with_n(ds.n)
    traj = run_gd(ds, GDConfig(loss=loss, eta=eta, steps=steps, mode=mode,
                               record_every=record_every))

    header = ("t,log_eta_t,log_risk,log_avg_risk,phi,min_margin,avg_min_margin,"
              "descent_violated")
    columns = _columns(traj, header)
    rows = [_provenance_line(cfg, seed)]
    if traj.diverged_at is not None:
        rows.append(f"# diverged_at={traj.diverged_at}")
    _write_text(out / "trajectory.csv", rows + _csv(header, columns))

    payload = {
        "provenance": _provenance_obj(cfg, seed),
        "dataset": dataset_fingerprint(ds),
        "loss": loss.name,
        "mode": mode,
        "eta": eta,
        "steps": steps,
        "record_every": record_every,
        "diverged_at": traj.diverged_at,
        "columns": columns,
    }
    if ds.d * steps <= 10**6:
        payload["iterates"] = traj.column("w").tolist()
        payload["avg_iterates"] = traj.column("avg_w").tolist()
    (out / "trajectory.json").write_text(json.dumps(payload, sort_keys=True))
    return 0


def cmd_run_nn(cfg: ExperimentConfig, out: Path, seed: int) -> int:
    ds = make_dataset(cfg.values["dataset"], seed)
    _, eta = cfg.values["stepsize"]
    steps = cfg.values["steps"]
    record_every = cfg.values.get("record_every", 1)
    loss = cfg.values["loss"].with_n(ds.n)
    net = make_net(ds.d, cfg.values["width"], cfg.values["activation"])
    traj = run_gd_nn(ds, net, GDConfig(loss=loss, eta=eta, steps=steps,
                                       record_every=record_every))

    header = "t,log_eta_t,log_risk,min_log_risk,min_risk_t,phi,min_margin,descent_violated"
    rows = [_provenance_line(cfg, seed),
            f"# activation={net.activation.name} alpha={_fmt(net.activation.alpha)}"
            f" kappa={_fmt(net.activation.kappa)} width={net.m}"]
    _write_text(out / "trajectory_nn.csv", rows + _csv(header, _columns(traj, header)))
    return 0


def _read_text(path, what: str) -> str:
    """A UTF-8 text file the user named; any other bytes are a config error."""
    try:
        return Path(path).read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise ConfigError([(0, f"{what} {path} is not UTF-8 text "
                               f"(byte {exc.start}: {exc.reason})")]) from None


def _read_order_file(path: str, n_rows: int) -> np.ndarray:
    tokens = _read_text(path, "order file").split()
    try:
        idx = np.array([int(t) for t in tokens], dtype=np.int64)
    except ValueError:
        raise ConfigError([(0, f"order file {path} must contain integers")]) from None
    if idx.size == 0:
        raise ConfigError([(0, f"order file {path} is empty")])
    if idx.min() < 0 or idx.max() >= n_rows:
        raise ConfigError(
            [(0, f"order file {path} has indices outside [0, {n_rows})")]
        )
    return idx


def cmd_perceptron(cfg: ExperimentConfig, out: Path, seed: int) -> int:
    ds = make_dataset(cfg.values["dataset"], seed)
    kind, param = cfg.values.get("order", ("cyclic", None))
    if kind == "cyclic":
        order = cyclic_order(ds.n_rows, cfg.values["steps"])
    elif kind == "random":
        order = random_order(ds.n_rows, cfg.values["steps"], seed=param)
    else:
        order = _read_order_file(param, ds.n_rows)
    run = run_perceptron(ds, order)

    sep = "none" if run.separated_at is None else str(run.separated_at)
    rows = [_provenance_line(cfg, seed),
            f"# separated_at={sep} total_mistakes={run.total_mistakes}",
            "t,mistakes"]
    for t, count in enumerate(run.mistakes):
        rows.append(f"{t},{int(count)}")
    _write_text(out / "mistakes.csv", rows)
    return 0


def cmd_verify(cfg: ExperimentConfig, out: Path, seed: int) -> int:
    reports = default_suite(seed=seed)
    payload = {
        "provenance": _provenance_obj(cfg, seed),
        "reports": [r.to_dict() for r in reports],
    }
    (out / "reports.json").write_text(
        json.dumps(payload, sort_keys=True, indent=2) + "\n"
    )
    print(render_table(reports))
    return 1 if any(r.verdict != "pass" for r in reports) else 0


def _bench_gd(ds: Dataset, method: str, gamma: float, epsilons: tuple,
              loss: LossSpec, max_steps: int, mode: str, eta: float) -> list:
    """One GD run that stops at the first passage below the smallest epsilon,
    and a row per epsilon read off it, with the run's time as wall_time. An
    epsilon never reached reads None, or diverged_at=<t> if the run diverged."""
    start = time.perf_counter()
    traj = run_gd(ds, GDConfig(loss=loss.with_n(ds.n), eta=eta, steps=max_steps,
                               mode=mode,
                               target_log_avg_risk=math.log(min(epsilons))))
    steps, logs = traj.columns["t"], traj.columns["log_avg_risk"]
    miss = None if traj.diverged_at is None else f"diverged_at={traj.diverged_at}"
    hits = [next((t for t, log in zip(steps, logs) if t >= 1 and log <= math.log(eps)), miss)
            for eps in epsilons]
    wall_time = time.perf_counter() - start
    return [{"method": method, "gamma": gamma, "epsilon": eps,
             "epsilon_col": _fmt(eps), "steps": hit, "wall_time": wall_time}
            for eps, hit in zip(epsilons, hits)]


def _bench_perceptron(ds: Dataset, gamma: float, max_steps: int) -> dict:
    start = time.perf_counter()
    run = run_perceptron(ds, cyclic_order(ds.n_rows, max_steps))
    return {"method": "perceptron", "gamma": gamma, "epsilon": float(ds.n),
            "epsilon_col": str(ds.n), "steps": run.separated_at,
            "wall_time": time.perf_counter() - start}


def cmd_bench(cfg: ExperimentConfig, out: Path, seed: int) -> int:
    v = cfg.values
    gammas = v.get("gammas", (0.1,))
    epsilons = v.get("epsilons", (1e-2, 1e-6, 1e-12))
    methods = v.get("methods", BENCH_METHODS)
    d = v.get("d", 10)
    n = v.get("n", 100)
    loss = v.get("loss", EXP)
    max_steps = v.get("max_steps", 20000)
    eta_constant = v.get("eta_constant", 1.0)
    eta_small = v.get("eta_small", 1.0)

    # The constant and small-adaptive trajectories do not depend on epsilon,
    # so one run per (method, gamma) serves every target. large-adaptive
    # derives its eta from epsilon and runs once per target.
    results = []
    for gamma in gammas:
        ds = make_dataset(DatasetSpec("random", {"d": d, "n": n, "gamma": gamma}), seed)
        for method in methods:
            if method == "perceptron":
                results.append(_bench_perceptron(ds, gamma, max_steps))
            elif method == "large-adaptive":
                for eps in epsilons:
                    eta = 4.0 * math.log(1.0 / eps) / gamma**2 + 4.0
                    results += _bench_gd(ds, method, gamma, (eps,), loss,
                                         max_steps, "adaptive", eta)
            else:
                mode, eta = (("constant", eta_constant) if method == "constant"
                             else ("adaptive", eta_small))
                results += _bench_gd(ds, method, gamma, epsilons, loss,
                                     max_steps, mode, eta)

    results.sort(key=lambda r: (r["method"], r["gamma"], r["epsilon"]))
    rows = [_provenance_line(cfg, seed), "method,gamma,epsilon,steps,wall_time"]
    for r in results:
        steps = r["steps"]
        steps_col = f">{max_steps}" if steps is None else str(steps)
        rows.append(",".join([
            r["method"], _fmt(r["gamma"]), r["epsilon_col"], steps_col,
            f"{r['wall_time']:.6f}",
        ]))
    _write_text(out / "bench.csv", rows)
    return 0


# ---------------------------------------------------------------------------
# Entry point
# ---------------------------------------------------------------------------

_DISPATCH = {
    "gen": cmd_gen,
    "run": cmd_run,
    "run-nn": cmd_run_nn,
    "perceptron": cmd_perceptron,
    "verify": cmd_verify,
    "bench": cmd_bench,
}

_NEEDS_CONFIG = ("gen", "run", "run-nn", "perceptron")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="margin-lab",
        description="Adaptive-stepsize GD on separable data: runs, checks, benchmarks.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    helps = {
        "gen": "write a dataset file from a generator spec",
        "run": "GD on a linear model; trajectory to CSV/JSON",
        "run-nn": "adaptive GD on a two-layer net; trajectory to CSV",
        "perceptron": "online run; cumulative mistakes to CSV",
        "verify": "run the check suite; table to stdout, reports to JSON",
        "bench": "step-complexity benchmark grid to CSV",
    }
    for name in COMMANDS:
        p = sub.add_parser(name, help=helps[name])
        p.add_argument("--config", type=Path, default=None,
                       help="key = value config file")
        p.add_argument("--out", type=Path, default=Path("."),
                       help="output directory (default: current)")
        p.add_argument("--seed", type=int, default=None,
                       help="seed override (default: config seed, else 0)")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if args.config is not None:
            if not _is_file(args.config):
                raise ConfigError([(0, f"config file not found: {args.config}")])
            text = _read_text(args.config, "config file")
        elif args.command in _NEEDS_CONFIG:
            raise ConfigError([(0, f"{args.command} requires --config")])
        else:
            text = ""
        cfg = parse_config(text, args.command)
        seed = args.seed if args.seed is not None else cfg.values.get("seed", 0)
        try:
            args.out.mkdir(parents=True, exist_ok=True)
        except OSError as exc:
            raise ConfigError([(0, f"cannot use --out {args.out}: {exc.strerror}")]) from None
        return _DISPATCH[args.command](cfg, args.out, seed)
    except ConfigError as exc:
        for line, msg in exc.errors:
            where = f"line {line}: " if line else ""
            print(f"config error: {where}{msg}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
