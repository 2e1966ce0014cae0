"""Command-line harness: datasets, GD and Perceptron runs, checks, benchmark.

Subcommands: gen | run | run-nn | perceptron | verify | bench, each taking
``--config <path>`` (line-oriented ``key = value`` text), ``--out <dir>``
(default "."), and ``--seed <int>`` (overrides the config's seed key).
Output is data-only CSV/JSON. Every output file carries a provenance header
(library version, config hash, effective seed); identical config + seed give
byte-identical outputs, except for the wall_time column of bench.

Three tables hold what the harness knows: COMMANDS (one record per
subcommand), CONFIG_KEYS (one parser per config key) and DATASET_SOURCES
(one record per dataset source). A subcommand needs ``--config`` exactly
when it has a required key.

Exit codes: 0 success, 1 verification failure, 2 config error.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import sys
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

from . import __version__
from .datasets import (
    Dataset,
    _fmt,
    gen_batch_hard,
    gen_chain_hard,
    gen_online_hard,
    gen_random_separable,
    gen_two_point,
    load_dataset,
    save_dataset,
)
from .descent import GDConfig, run_gd
from .losses import EXP, parse_loss
from .online import cyclic_order, random_order, run_perceptron
from .two_layer import NN_LOSS_KINDS, make_net, parse_activation, run_gd_nn
from .verify import dataset_fingerprint, default_suite, render_table

BENCH_METHODS = ("constant", "small-adaptive", "large-adaptive", "perceptron")

# Marks a config key a command cannot run without.
REQUIRED = object()


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
    """A parsed config: values holds only what the text set; cfg[key] is that
    value, else the command's default."""

    command: str
    values: dict
    text: str = ""

    @property
    def sha(self) -> str:
        return hashlib.sha256(self.text.encode()).hexdigest()[:12]

    def __getitem__(self, key: str):
        return self.values[key] if key in self.values else COMMANDS[self.command].keys[key]


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


def _parse_gamma(raw: str) -> float:
    v = _parse_float(raw, "gamma")
    if not (0.0 < v < 1.0):
        raise ValueError(f"gamma must be in (0, 1), got {v}")
    return v


def _parse_bool(raw: str, name: str) -> bool:
    low = raw.lower()
    if low in ("true", "false"):
        return low == "true"
    raise ValueError(f"{name} must be true or false, got {raw!r}")


def _count(name: str):
    """Parser of an integer >= 1 named name."""
    return lambda raw: _parse_int(raw, name, minimum=1)


def _is_file(path) -> bool:
    """Whether path names an existing file; a path the OS refuses to look
    up (a name too long, say) names none."""
    try:
        return Path(path).is_file()
    except OSError:
        return False


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
        return ("random", _parse_int(value[len("random:"):], "order seed", minimum=0))
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


def _parse_positive_float(raw: str, name: str) -> float:
    v = _parse_float(raw, name)
    if v <= 0.0:
        raise ValueError(f"{name} must be positive, got {v}")
    return v


# ---------------------------------------------------------------------------
# Dataset sources and config keys
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Source:
    """A dataset source ``kind:rest``: parse(kind, rest) -> typed params;
    build(params, CLI seed) -> Dataset, calling its generator by this
    module's name at call time (so a wrapper installed there sees it); and
    the prefixes, formatted with kind and the params, of the messages of a
    ValueError and of a MemoryError from build."""

    parse: Callable[[str, str], dict]
    build: Callable[[dict, int], Dataset]
    prefix: str = "{kind} source: "
    memory_prefix: str = "{kind} source: "


def _params(required: dict, optional: dict | None = None):
    """parse for a ``key=value,...`` source: the parsers of its required and
    optional parameters."""

    def parse(kind: str, rest: str) -> dict:
        given, typed = {}, {}
        for item in rest.split(",") if rest else ():
            key, eq, value = item.partition("=")
            key, value = key.strip(), value.strip()
            if not eq or not key:
                raise ValueError(f"bad dataset parameter {item!r} (expected key=value)")
            if key in given:
                raise ValueError(f"duplicate dataset parameter {key!r}")
            given[key] = value
        for key, parser in required.items():
            if key not in given:
                raise ValueError(f"{kind} source needs {key}=<value>")
            typed[key] = parser(given.pop(key))
        for key, parser in (optional or {}).items():
            if key in given:
                typed[key] = parser(given.pop(key))
        if given:
            bad = ", ".join(sorted(given))
            raise ValueError(f"unknown parameter(s) for {kind} source: {bad}")
        return typed

    return parse


def _path(kind: str, rest: str) -> dict:
    """parse for ``file:<path>``; the file must exist."""
    if not rest:
        raise ValueError("file source needs a path: file:<path>")
    if not _is_file(rest):
        raise ValueError(f"dataset file not found: {rest}")
    return {"path": rest}


_HARD = {"gamma": _parse_gamma, "n": _count("n")}

DATASET_SOURCES = {
    "random": Source(
        _params({"d": _count("d"), "n": _count("n"), "gamma": _parse_gamma},
                {"seed": lambda raw: _parse_int(raw, "seed")}),
        lambda p, seed: gen_random_separable(p["d"], p["n"], p["gamma"],
                                             seed=p.get("seed", seed))),
    "two-point": Source(_params({"gamma": _parse_gamma}),
                        lambda p, seed: gen_two_point(p["gamma"])),
    # weighted by default here; gen_batch_hard's own default is weighted=False
    "batch-hard": Source(
        _params(_HARD, {"weighted": lambda raw: _parse_bool(raw, "weighted")}),
        lambda p, seed: gen_batch_hard(p["gamma"], p["n"], weighted=p.get("weighted", True))),
    "online-hard": Source(_params(_HARD), lambda p, seed: gen_online_hard(p["gamma"], p["n"])),
    "chain-hard": Source(_params(_HARD), lambda p, seed: gen_chain_hard(p["gamma"], p["n"])),
    # load_dataset's messages start with the path
    "file": Source(_path, lambda p, seed: load_dataset(p["path"]), "file ", "file {path}: "),
}

DATASET_KINDS = tuple(DATASET_SOURCES)


def parse_dataset_source(value: str) -> DatasetSpec:
    """Parse ``kind:rest``, a source of DATASET_SOURCES, into a validated
    DatasetSpec; a file it names must exist."""
    kind, _, rest = value.partition(":")
    if kind not in DATASET_SOURCES:
        known = ", ".join(DATASET_KINDS)
        raise ValueError(f"unknown dataset source {kind!r} (known: {known})")
    return DatasetSpec(kind, DATASET_SOURCES[kind].parse(kind, rest))


def make_dataset(spec: DatasetSpec, default_seed: int) -> Dataset:
    """The dataset a source names; a file that breaks the dataset contract,
    parameters outside the generator's range, or a dataset that cannot be
    allocated are a config error."""
    source = DATASET_SOURCES[spec.kind]
    try:
        return source.build(spec.params, default_seed)
    except ValueError as exc:
        prefix, detail = source.prefix, str(exc)
    except MemoryError as exc:
        prefix, detail = source.memory_prefix, _does_not_fit(exc)
    prefix = prefix.format(kind=spec.kind, **spec.params)
    raise ConfigError([(0, f"bad dataset {prefix}{detail}")])


def _does_not_fit(exc: MemoryError) -> str:
    shape = getattr(exc, "shape", None)  # numpy names the array it could not allocate
    what = "" if shape is None else f" (an array of shape {tuple(shape)})"
    return f"does not fit in memory{what}"


CONFIG_KEYS = {
    "command": str,  # checked against the invoked command in parse_config
    "seed": lambda raw: _parse_int(raw, "seed"),
    "dataset": parse_dataset_source,
    "loss": parse_loss,
    "stepsize": parse_stepsize,
    "steps": _count("steps"),
    "record_every": _count("record_every"),
    "width": _count("width"),
    "activation": parse_activation,
    "order": parse_order_spec,
    "gammas": lambda raw: _parse_list(raw, "gammas", _parse_gamma),
    "epsilons": lambda raw: _parse_list(
        raw, "epsilons", lambda s: _parse_positive_float(s, "epsilon")),
    "methods": _parse_methods,
    "d": _count("d"),
    "n": _count("n"),
    "max_steps": _count("max_steps"),
    "eta_constant": lambda raw: _parse_positive_float(raw, "eta_constant"),
    "eta_small": lambda raw: _parse_positive_float(raw, "eta_small"),
}


def parse_config(text: str, command: str) -> ExperimentConfig:
    """Parse and fully validate a config; raises ConfigError with line numbers."""
    if command not in COMMANDS:
        raise ConfigError([(0, f"unknown command {command!r}")])
    keys = COMMANDS[command].keys

    seen: set[str] = set()
    values: dict = {}
    lines: dict[str, int] = {}  # line of each known key
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
        if key in seen:
            errors.append((i, f"duplicate key {key!r}"))
            continue
        seen.add(key)
        if key not in keys:
            errors.append((i, f"unknown key {key!r} for command {command}"))
            continue
        lines[key] = i
        try:
            values[key] = CONFIG_KEYS[key](value)
        except ValueError as exc:
            errors.append((i, str(exc)))
    if values.get("command", command) != command:
        errors.append((lines["command"],
                       f"config says command = {values['command']}, but {command} was invoked"))
    for key in sorted(k for k, default in keys.items() if default is REQUIRED):
        if key not in lines:
            errors.append((0, f"missing required key {key!r}"))
    cfg = ExperimentConfig(command=command, values=values, text=text)
    if not errors:
        errors.extend(COMMANDS[command].check(cfg, lines))
    if errors:
        raise ConfigError(errors)
    return cfg


# ---------------------------------------------------------------------------
# Execution helpers
# ---------------------------------------------------------------------------

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
    ds = make_dataset(cfg["dataset"], seed)
    save_dataset(ds, out / "dataset.txt",
                 comments=(_provenance_line(cfg, seed),))
    return 0


def _gd_config(cfg: ExperimentConfig, ds: Dataset) -> GDConfig:
    mode, eta = cfg["stepsize"]
    return GDConfig(loss=cfg["loss"].with_n(ds.n), eta=eta, steps=cfg["steps"], mode=mode,
                    record_every=cfg["record_every"])


def cmd_run(cfg: ExperimentConfig, out: Path, seed: int) -> int:
    ds = make_dataset(cfg["dataset"], seed)
    gd = _gd_config(cfg, ds)
    traj = run_gd(ds, gd)

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
        "loss": gd.loss.name,
        "mode": gd.mode,
        "eta": gd.eta,
        "steps": gd.steps,
        "record_every": gd.record_every,
        "diverged_at": traj.diverged_at,
        "columns": columns,
    }
    if ds.d * gd.steps <= 10**6:
        payload["iterates"] = traj.column("w").tolist()
        payload["avg_iterates"] = traj.column("avg_w").tolist()
    (out / "trajectory.json").write_text(json.dumps(payload, sort_keys=True))
    return 0


def cmd_run_nn(cfg: ExperimentConfig, out: Path, seed: int) -> int:
    ds = make_dataset(cfg["dataset"], seed)
    try:
        net = make_net(ds.d, cfg["width"], cfg["activation"])
        traj = run_gd_nn(ds, net, _gd_config(cfg, ds))
    except MemoryError as exc:
        raise ConfigError([(0, f"network run {_does_not_fit(exc)}")]) from None

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
        values = [int(t) for t in tokens]
    except ValueError:
        raise ConfigError([(0, f"order file {path} must contain integers")]) from None
    if not values:
        raise ConfigError([(0, f"order file {path} is empty")])
    if min(values) < 0 or max(values) >= n_rows:
        raise ConfigError(
            [(0, f"order file {path} has indices outside [0, {n_rows})")]
        )
    return np.array(values, dtype=np.int64)


def cmd_perceptron(cfg: ExperimentConfig, out: Path, seed: int) -> int:
    ds = make_dataset(cfg["dataset"], seed)
    kind, param = cfg["order"]
    try:
        if kind == "cyclic":
            order = cyclic_order(ds.n_rows, cfg["steps"])
        elif kind == "random":
            order = random_order(ds.n_rows, cfg["steps"], seed=param)
        else:
            order = _read_order_file(param, ds.n_rows)
        run = run_perceptron(ds, order)
    except MemoryError as exc:
        raise ConfigError([(0, f"perceptron run {_does_not_fit(exc)}")]) from None

    sep = "none" if run.separated_at is None else str(run.separated_at)
    rows = [_provenance_line(cfg, seed),
            f"# separated_at={sep} total_mistakes={run.total_mistakes}",
            "t,mistakes"]
    for t, count in enumerate(run.mistakes):
        rows.append(f"{t},{int(count)}")
    _write_text(out / "mistakes.csv", rows)
    return 0


def cmd_verify(cfg: ExperimentConfig, out: Path, seed: int) -> int:
    if seed < 0:  # the suite draws its probes from the seed
        raise ConfigError([(0, f"seed must be >= 0 for verify, got {seed}")])
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


def _bench_gd(cfg: ExperimentConfig, ds: Dataset, method: str, gamma: float,
              epsilons: tuple, mode: str, eta: float) -> list:
    """One GD run that stops at the first passage below the smallest epsilon,
    and a row per epsilon read off it, with the run's time as wall_time. An
    epsilon never reached reads None, or diverged_at=<t> if the run diverged."""
    start = time.perf_counter()
    traj = run_gd(ds, GDConfig(loss=cfg["loss"].with_n(ds.n), eta=eta,
                               steps=cfg["max_steps"], mode=mode,
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
    """One cyclic Perceptron run of max_steps presentations; a run that
    cannot be allocated is a config error, as in cmd_perceptron."""
    start = time.perf_counter()
    try:
        run = run_perceptron(ds, cyclic_order(ds.n_rows, max_steps))
    except MemoryError as exc:
        raise ConfigError([(0, f"perceptron run {_does_not_fit(exc)}")]) from None
    return {"method": "perceptron", "gamma": gamma, "epsilon": float(ds.n),
            "epsilon_col": str(ds.n), "steps": run.separated_at,
            "wall_time": time.perf_counter() - start}


def _large_adaptive_eta(gamma: float, eps: float) -> float:
    """The eta of bench's large-adaptive method, 4 ln(1/eps)/gamma^2 + 4;
    ValueError unless it is a positive finite float."""
    eta = 4.0 * math.log(1.0 / eps) / gamma**2 + 4.0 if gamma**2 > 0.0 else math.nan
    if not (math.isfinite(eta) and eta > 0.0):
        raise ValueError("large-adaptive eta = 4 ln(1/epsilon)/gamma^2 + 4 is not a positive "
                         f"finite float at gamma {gamma}, epsilon {eps}")
    return eta


def cmd_bench(cfg: ExperimentConfig, out: Path, seed: int) -> int:
    epsilons, max_steps = cfg["epsilons"], cfg["max_steps"]
    # The constant and small-adaptive trajectories do not depend on epsilon,
    # so one run per (method, gamma) serves every target. large-adaptive
    # derives its eta from epsilon and runs once per target.
    results = []
    for gamma in cfg["gammas"]:
        spec = DatasetSpec("random", {"d": cfg["d"], "n": cfg["n"], "gamma": gamma})
        ds = make_dataset(spec, seed)
        for method in cfg["methods"]:
            if method == "perceptron":
                results.append(_bench_perceptron(ds, gamma, max_steps))
            elif method == "large-adaptive":
                for eps in epsilons:
                    eta = _large_adaptive_eta(gamma, eps)
                    results += _bench_gd(cfg, ds, method, gamma, (eps,), "adaptive", eta)
            else:
                mode, eta = (("constant", cfg["eta_constant"]) if method == "constant"
                             else ("adaptive", cfg["eta_small"]))
                results += _bench_gd(cfg, ds, method, gamma, epsilons, mode, eta)

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

def _check_run(cfg: ExperimentConfig, lines: dict):
    loss = cfg["loss"]
    if not loss.ops.smooth and cfg["stepsize"][0] == "adaptive":
        yield lines["loss"], f"{loss.kind} loss has no inverse; use stepsize = constant:<eta>"


def _check_run_nn(cfg: ExperimentConfig, lines: dict):
    if cfg["stepsize"][0] != "adaptive":
        yield lines["stepsize"], "run-nn trains with adaptive stepsizes only"
    if cfg["loss"].kind not in NN_LOSS_KINDS:
        yield lines["loss"], f"run-nn supports exp or log loss, got {cfg['loss'].name}"


def _check_perceptron(cfg: ExperimentConfig, lines: dict):
    if cfg["order"][0] == "file" and cfg["steps"] is not None:
        yield lines["steps"], "the order file fixes the length; drop steps"
    elif cfg["order"][0] != "file" and cfg["steps"] is None:
        yield 0, "steps is required unless order = file:<path>"


def _check_bench(cfg: ExperimentConfig, lines: dict):
    if not cfg["loss"].ops.smooth:
        yield lines["loss"], "bench GD methods need a smooth loss"
    if "large-adaptive" in cfg["methods"]:
        for gamma in cfg["gammas"]:
            for eps in cfg["epsilons"]:
                try:
                    _large_adaptive_eta(gamma, eps)
                except ValueError as exc:
                    # an epsilon below 1 makes ln(1/epsilon) positive: only gamma can fail
                    yield lines.get("epsilons" if eps >= 1.0 else "gammas", 0), str(exc)


@dataclass(frozen=True)
class Command:
    """A subcommand: help text; handler run(cfg, out, seed) -> exit code; its
    config keys besides command and seed, each REQUIRED or the default
    cfg[key] reads; and check(cfg, lines), yielding (line, message) for the
    rules that span keys once every key has parsed."""

    help: str
    run: Callable[[ExperimentConfig, Path, int], int]
    own_keys: dict
    check: Callable = lambda cfg, lines: ()

    @property
    def keys(self) -> dict:
        return {"command": None, "seed": 0, **self.own_keys}

    @property
    def needs_config(self) -> bool:
        return any(default is REQUIRED for default in self.own_keys.values())


_GD_KEYS = {"dataset": REQUIRED, "loss": REQUIRED, "stepsize": REQUIRED, "steps": REQUIRED,
            "record_every": 1}

COMMANDS = {
    "gen": Command("write a dataset file from a generator spec", cmd_gen,
                   {"dataset": REQUIRED}),
    "run": Command("GD on a linear model; trajectory to CSV/JSON", cmd_run, _GD_KEYS,
                   _check_run),
    "run-nn": Command("adaptive GD on a two-layer net; trajectory to CSV", cmd_run_nn,
                      {**_GD_KEYS, "width": REQUIRED, "activation": REQUIRED},
                      _check_run_nn),
    # steps has no default: it is required unless an order file fixes the length
    "perceptron": Command("online run; cumulative mistakes to CSV", cmd_perceptron,
                          {"dataset": REQUIRED, "order": ("cyclic", None), "steps": None},
                          _check_perceptron),
    "verify": Command("run the check suite; table to stdout, reports to JSON", cmd_verify,
                      {}),
    "bench": Command("step-complexity benchmark grid to CSV", cmd_bench,
                     {"gammas": (0.1,), "epsilons": (1e-2, 1e-6, 1e-12),
                      "methods": BENCH_METHODS, "d": 10, "n": 100, "loss": EXP,
                      "max_steps": 20000, "eta_constant": 1.0, "eta_small": 1.0},
                     _check_bench),
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="margin-lab",
        description="Adaptive-stepsize GD on separable data: runs, checks, benchmarks.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, command in COMMANDS.items():
        p = sub.add_parser(name, help=command.help)
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
        elif COMMANDS[args.command].needs_config:
            raise ConfigError([(0, f"{args.command} requires --config")])
        else:
            text = ""
        cfg = parse_config(text, args.command)
        seed = args.seed if args.seed is not None else cfg["seed"]
        try:
            args.out.mkdir(parents=True, exist_ok=True)
        except OSError as exc:
            raise ConfigError([(0, f"cannot use --out {args.out}: {exc.strerror}")]) from None
        return COMMANDS[args.command].run(cfg, args.out, seed)
    except ConfigError as exc:
        for line, msg in exc.errors:
            where = f"line {line}: " if line else ""
            print(f"config error: {where}{msg}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
