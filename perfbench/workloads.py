"""The four benchmark workloads.

Each workload is a closed loop in one process: set up once, then repeat one
unit of work, each unit starting only after the previous one returned. A
unit's output is reduced to a summary (``check.py``) that the harness
compares with the reference recorded for the same input seed, and to a
digest that must not change when tracing is on.

``full`` is the measured size. ``tiny`` runs the same code paths in about a
second for the self-tests. run-large is not chaotic at the full size, so its
every row is held to the tight tolerance there; at the tiny size it is
chaotic, and its later rows get the loose one (check.py).
"""

from __future__ import annotations

import contextlib
import io
import json
from dataclasses import replace
from pathlib import Path

import numpy as np

import margin_lab
from margin_lab import cli

from check import close, digest, exact, summarize_columns

SIZES = {
    "full": {"bench_max_steps": None, "large_d": 1000, "large_n": 10_000,
             "large_steps": 50, "large_late_tol": "tight", "run_steps": 20_000,
             "nn_steps": 5000},
    "tiny": {"bench_max_steps": 300, "large_d": 50, "large_n": 500,
             "large_steps": 50, "large_late_tol": "loose", "run_steps": 400,
             "nn_steps": 100},
}


def run_cli(argv) -> tuple[int, str]:
    """cli.main in this process, stdout captured: (exit code, stdout)."""
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        rc = cli.main(argv)
    return rc, buf.getvalue()


def _read_csv(path: Path) -> tuple[list[str], list[str], list[list[str]]]:
    """(comment lines, header fields, rows of fields)."""
    lines = path.read_text().splitlines()
    comments = [ln for ln in lines if ln.startswith("#")]
    body = [ln for ln in lines if not ln.startswith("#")]
    return comments, body[0].split(","), [ln.split(",") for ln in body[1:]]


class Workload:
    name = ""
    floor_shape = (100, 10)  # (rows, d) of the matrix one step passes over
    probe = "numpy"  # the clock.py probe that times a unit at the reference host speed

    def __init__(self, seed: int, size: str, out: Path):
        self.seed = seed
        self.size = SIZES[size]
        self.out = out
        out.mkdir(parents=True, exist_ok=True)

    def setup(self) -> None:
        """Make the inputs (datasets, config files)."""

    def warm_up(self) -> None:
        """Run the unit's code paths once at a small size."""

    def unit(self) -> None:
        raise NotImplementedError

    def summary(self) -> dict:
        raise NotImplementedError

    def fingerprint(self) -> str:
        """Digest of the last unit's full output, wall-clock fields removed."""
        raise NotImplementedError

    def output_files(self) -> list[Path]:
        return []

    def floor_matrix(self) -> np.ndarray:
        """A matrix of the shape one step passes over, for the BLAS floor."""
        return np.random.default_rng(0).standard_normal(self.floor_shape)

    def _cli(self, *argv: str, expect: int = 0) -> str:
        rc, stdout = run_cli([*argv, "--out", str(self.out), "--seed", str(self.seed)])
        if rc != expect:
            raise RuntimeError(f"margin-lab {argv[0]} exited {rc}, expected {expect}")
        return stdout


class BenchGrid(Workload):
    """`margin-lab bench` with its defaults, in process: exp loss, d=10, n=100,
    three targets x four methods, 20000 steps per GD cell."""

    name = "bench-grid"

    def setup(self):
        self.config = None
        if self.size["bench_max_steps"] is not None:
            self.config = self.out / "bench.cfg"
            self.config.write_text(f"max_steps = {self.size['bench_max_steps']}\n")
        self.warm = self.out / "bench-warm.cfg"
        self.warm.write_text("max_steps = 100\n")

    def warm_up(self):
        self._cli("bench", "--config", str(self.warm))

    def unit(self):
        args = ["bench"] if self.config is None else ["bench", "--config", str(self.config)]
        self._cli(*args)

    def _rows(self):
        comments, header, rows = _read_csv(self.out / "bench.csv")
        keep = [header.index(c) for c in ("method", "gamma", "epsilon", "steps")]
        return comments, [[r[i] for i in keep] for r in rows]

    def summary(self):
        comments, rows = self._rows()
        out = {"bench.seed_stamp": exact(comments[0].rsplit(" ", 1)[-1]),
               "bench.rows": exact(len(rows))}
        for method, gamma, eps, steps in rows:
            out[f"bench.{method}.{gamma}.{eps}.steps"] = exact(steps)
        return out

    def fingerprint(self):
        comments, rows = self._rows()
        return digest(np.frombuffer(json.dumps([comments, rows]).encode(), np.uint8))

    def output_files(self):
        return [self.out / "bench.csv"]


class RunLarge(Workload):
    """Library `run_gd`: log loss, d=1000, n=1e4 (80 MB of features),
    adaptive eta=400, recording every 50th step; 50 steps a unit."""

    name = "run-large"
    probe = "floor"  # memory-bound: follows the BLAS passes, not the small probes

    @property
    def floor_shape(self):
        return (self.size["large_n"], self.size["large_d"])

    def setup(self):
        d, n = self.size["large_d"], self.size["large_n"]
        self.ds = margin_lab.gen_random_separable(d, n, 0.1, seed=self.seed)
        self.config = margin_lab.GDConfig(loss=margin_lab.LOG.with_n(n), eta=400.0,
                                          steps=self.size["large_steps"], record_every=50)

    def floor_matrix(self):
        return self.ds.features

    def warm_up(self):
        margin_lab.run_gd(self.ds, replace(self.config, steps=2))

    def unit(self):
        self.traj = margin_lab.run_gd(self.ds, self.config)

    def _columns(self):
        traj = self.traj
        return {
            "log_eta_t": traj.column("log_stepsize"),
            "log_risk": traj.column("log_risk"),
            "log_avg_risk": traj.column("log_avg_risk"),
            "phi": traj.column("phi"),
            "min_margin": traj.column("min_margin"),
            "avg_min_margin": traj.column("avg_min_margin"),
            "descent_violated": traj.column("descent_violated").astype(float),
            "w_norm": np.array([np.linalg.norm(p.w) for p in traj.points]),
            "avg_w_norm": np.array([np.linalg.norm(p.avg_w) for p in traj.points]),
        }

    def summary(self):
        out = summarize_columns("run_gd", self.traj.column("t"), self._columns(),
                                ints=("descent_violated",), late=self.size["large_late_tol"])
        out["run_gd.diverged_at"] = exact(self.traj.diverged_at)
        return out

    def fingerprint(self):
        pts = self.traj.points
        arrays = [np.stack([p.w for p in pts]), np.stack([p.avg_w for p in pts]),
                  *self._columns().values()]
        return digest(np.concatenate([np.ravel(a) for a in arrays]))


class VerifySuite(Workload):
    """`margin-lab verify` in process, stdout captured; exit 1 is expected."""

    name = "verify-suite"

    def warm_up(self):
        self._cli("verify", expect=1)

    def unit(self):
        self.stdout = self._cli("verify", expect=1)

    def summary(self):
        reports = json.loads((self.out / "reports.json").read_text())["reports"]
        out = {"verify.exit": exact(1), "verify.checks": exact(len(reports)),
               "verify.table_last_line": exact(self.stdout.rstrip().splitlines()[-1])}
        for i, r in enumerate(reports):
            nums = [abs(v) for row in r["steps"] for v in row[1:]
                    if isinstance(v, (int, float)) and np.isfinite(v)]
            slack = r["worst_slack"]
            scale = max(([abs(slack)] if np.isfinite(slack) else []) + nums, default=1.0)
            out[f"verify.{i}.claim"] = exact(r["claim"])
            out[f"verify.{i}.verdict"] = exact(r["verdict"])
            out[f"verify.{i}.rows"] = exact(len(r["steps"]))
            out[f"verify.{i}.worst_slack"] = close(slack, scale, "loose")
        return out

    def fingerprint(self):
        blob = (self.out / "reports.json").read_bytes() + self.stdout.encode()
        return digest(np.frombuffer(blob, np.uint8))

    def output_files(self):
        return [self.out / "reports.json"]


class RunRecorded(Workload):
    """`margin-lab run` (log, adaptive:400, 20000 steps, every step recorded),
    then `margin-lab run-nn` (exp, width 16, leakyrelu:0.5, 5000 steps), both
    on the same dataset."""

    name = "run-recorded"
    dataset = "random:d=10,n=100,gamma=0.1"

    def _config(self, path: Path, command: str, steps: int) -> Path:
        lines = [f"command = {command}", f"dataset = {self.dataset}",
                 f"loss = {'log' if command == 'run' else 'exp'}",
                 "stepsize = adaptive:400", f"steps = {steps}"]
        if command == "run-nn":
            lines += ["width = 16", "activation = leakyrelu:0.5"]
        path.write_text("\n".join(lines) + "\n")
        return path

    def setup(self):
        self.run_cfg = self._config(self.out / "run.cfg", "run", self.size["run_steps"])
        self.nn_cfg = self._config(self.out / "run-nn.cfg", "run-nn", self.size["nn_steps"])
        self.warm_run = self._config(self.out / "run-warm.cfg", "run", 50)
        self.warm_nn = self._config(self.out / "run-nn-warm.cfg", "run-nn", 20)

    def warm_up(self):
        self._cli("run", "--config", str(self.warm_run))
        self._cli("run-nn", "--config", str(self.warm_nn))

    def unit(self):
        self._cli("run", "--config", str(self.run_cfg))
        self._cli("run-nn", "--config", str(self.nn_cfg))

    def summary(self):
        out = {}
        comments, header, rows = _read_csv(self.out / "trajectory.csv")
        table = np.array(rows, dtype=float)
        cols = {h: table[:, j] for j, h in enumerate(header)}
        t = cols.pop("t")
        out.update(summarize_columns("run", t, cols, ints=("descent_violated",)))

        payload = json.loads((self.out / "trajectory.json").read_text())
        out["run.diverged_at"] = exact(payload["diverged_at"])
        same = all(np.array_equal(np.asarray(payload["columns"][h], dtype=float),
                                  table[:, j], equal_nan=True) for j, h in enumerate(header))
        out["run.json_columns_match_csv"] = exact(same)
        w = np.asarray(payload["iterates"])
        avg = np.asarray(payload["avg_iterates"])
        out.update(summarize_columns("run.iterates", t, {
            "w_norm": np.linalg.norm(w, axis=1), "avg_w_norm": np.linalg.norm(avg, axis=1),
            "w_sum": w.sum(axis=1), "avg_w_sum": avg.sum(axis=1)}))

        comments, header, rows = _read_csv(self.out / "trajectory_nn.csv")
        table = np.array(rows, dtype=float)
        cols = {h: table[:, j] for j, h in enumerate(header)}
        t = cols.pop("t")
        out["run_nn.activation"] = exact(comments[1])
        out.update(summarize_columns("run_nn", t, cols,
                                     ints=("descent_violated", "min_risk_t")))
        return out

    def fingerprint(self):
        blob = b"".join((self.out / f).read_bytes() for f in
                        ("trajectory.csv", "trajectory.json", "trajectory_nn.csv"))
        return digest(np.frombuffer(blob, np.uint8))

    def output_files(self):
        return [self.out / f for f in ("trajectory.csv", "trajectory.json", "trajectory_nn.csv")]


WORKLOADS = {w.name: w for w in (BenchGrid, RunLarge, VerifySuite, RunRecorded)}
