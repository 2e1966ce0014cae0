"""Measure the cost of starting margin-lab, before and after a change.

    python scripts/bench_import_path.py BEFORE_SRC AFTER_SRC OUT.json [PAIRS]

BEFORE_SRC and AFTER_SRC are the `src` directories of two checkouts. Every
measurement runs in fresh interpreters, the two trees alternating and the
one that goes first flipping from pair to pair (PAIRS pairs, default 15):

- `import margin_lab` and `import margin_lab.cli`: raw seconds of the import
  statement, and the peak RSS of the interpreter after it;
- seconds per `poly(2).inverse(u)` call on u > 1, the left branch solved
  numerically (median of 5 sweeps over 2000 values of u per process);
- wall seconds of `python -m margin_lab.cli verify`, interpreter start
  included.

Writes medians, quartiles and every run for both trees, the after/before
ratio of the medians, the pairs the change won, and numpy/scipy/BLAS/CPU
information. Times are raw wall seconds; the host's speed drifts, so only
the alternating pairs are comparable.
"""

from __future__ import annotations

import json
import os
import platform
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

IMPORT_CHILD = """
import resource, sys, time
t = time.perf_counter()
import {module}
dt = time.perf_counter() - t
rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
print(dt, rss_mb, int('scipy.optimize' in sys.modules))
"""

INVERSE_CHILD = """
import statistics, time
from margin_lab.losses import poly
spec = poly(2.0)
us = [1.01 + 499.0 * i / 1999 for i in range(2000)]
sweeps = []
for _ in range(5):
    t = time.perf_counter()
    for u in us:
        spec.inverse(u)
    sweeps.append((time.perf_counter() - t) / len(us))
print(statistics.median(sweeps))
"""


def _python(src: str, args: list[str], **kwargs) -> subprocess.CompletedProcess:
    env = dict(os.environ, PYTHONPATH=src)
    return subprocess.run([sys.executable, *args], env=env, capture_output=True,
                          text=True, check=True, timeout=300, **kwargs)


def _verify_wall(src: str) -> float:
    with tempfile.TemporaryDirectory() as out:
        t = time.perf_counter()
        proc = subprocess.run([sys.executable, "-m", "margin_lab.cli", "verify", "--out", out],
                              env=dict(os.environ, PYTHONPATH=src), capture_output=True,
                              timeout=300)
        wall = time.perf_counter() - t
    if proc.returncode not in (0, 1):  # 1: a check failed, which is expected
        raise RuntimeError(proc.stderr.decode()[-2000:])
    return wall


def _measures(src: str) -> dict[str, float]:
    """One fresh-interpreter sample of every metric for one tree."""
    row = {}
    for module, key in (("margin_lab", "import"), ("margin_lab.cli", "import_cli")):
        dt, rss, optimize = _python(src, ["-c", IMPORT_CHILD.format(module=module)]).stdout.split()
        row[f"{key}_s"] = float(dt)
        row[f"{key}_rss_mb"] = float(rss)
        row[f"{key}_loads_scipy_optimize"] = int(optimize)
    row["poly_inverse_us_per_call"] = float(_python(src, ["-c", INVERSE_CHILD]).stdout) * 1e6
    row["verify_wall_s"] = _verify_wall(src)
    return row


def _summary(runs: list[float]) -> dict:
    q1, med, q3 = statistics.quantiles(runs, n=4, method="inclusive")
    return {"median": med, "q1": q1, "q3": q3, "n": len(runs), "runs": runs}


def _machine() -> dict:
    import numpy as np
    import scipy

    cpu = "unknown"
    cpuinfo = Path("/proc/cpuinfo")
    if cpuinfo.exists():
        for line in cpuinfo.read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {"python": platform.python_version(), "numpy": np.__version__,
            "scipy": scipy.__version__, "cpu": cpu, "cores": os.cpu_count(),
            "blas": {k: blas.get(k) for k in ("name", "version", "openblas configuration")}}


def main(argv: list[str]) -> int:
    if len(argv) not in (3, 4):
        print(__doc__, file=sys.stderr)
        return 2
    before, after, out = str(Path(argv[0]).resolve()), str(Path(argv[1]).resolve()), argv[2]
    pairs = int(argv[3]) if len(argv) == 4 else 15
    rows = {"before": [], "after": []}
    for i in range(pairs):
        order = [("before", before), ("after", after)]
        for side, src in order if i % 2 == 0 else order[::-1]:
            rows[side].append(_measures(src))
        print(f"pair {i + 1}/{pairs}", file=sys.stderr)

    metrics = {}
    for key in rows["before"][0]:
        b = [r[key] for r in rows["before"]]
        a = [r[key] for r in rows["after"]]
        metrics[key] = {"before": _summary(b), "after": _summary(a)}
        if not key.endswith("loads_scipy_optimize"):
            metrics[key]["after_over_before"] = (metrics[key]["after"]["median"]
                                                 / metrics[key]["before"]["median"])
            metrics[key]["after_lower_in_pairs"] = sum(x < y for x, y in zip(a, b))
    result = {
        "method": (f"{pairs} alternating pairs of fresh interpreters, the tree that goes "
                   "first flipping each pair; raw wall seconds; see "
                   "scripts/bench_import_path.py"),
        "machine": _machine(), "metrics": metrics,
    }
    Path(out).write_text(json.dumps(result, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
