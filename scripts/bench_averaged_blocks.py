"""Measure the cost of a descent step that evaluates its averaged iterate,
before and after a change.

    python scripts/bench_averaged_blocks.py BEFORE_SRC AFTER_SRC OUT.json [PAIRS]

BEFORE_SRC and AFTER_SRC are the `src` directories of two checkouts. Each
sample is a fresh interpreter that times `run_gd` on
`gen_random_separable(10, 100, 0.1, seed=0)` (d = 10, n = 100) and prints
microseconds per step, the median of 5 runs, for three cases:

- `log adaptive recorded`: log loss, adaptive eta = 400, 2000 steps,
  every step recorded (the averaged iterate at every row);
- `exp constant target`: exp loss, constant eta = 1, the target
  ln 1e-12 of `margin-lab bench`, up to 20000 steps; divided by the steps
  the run reports (`points[-1].t`), so steps computed past the first
  passage and dropped count against it;
- `log unrecorded`: log loss, adaptive eta = 400, 2000 steps, only t = 0
  and the last step recorded; no averaged iterate on the way, so it should
  not move.

The two trees alternate, the one that goes first flipping from pair to pair
(PAIRS pairs, default 10). Writes medians, quartiles and every sample for
both trees, the after/before ratio of the medians, the pairs the change
won, and numpy/BLAS/CPU information. Raw times: the host's speed drifts,
so only the alternating pairs are comparable.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
from bench_import_path import _machine, _summary  # noqa: E402

CHILD = """
import json, math, statistics, time
from margin_lab.datasets import gen_random_separable
from margin_lab.descent import GDConfig, run_gd
from margin_lab.losses import EXP, LOG

ds = gen_random_separable(10, 100, 0.1, seed=0)
cases = {
    "log adaptive recorded": GDConfig(loss=LOG, eta=400.0, steps=2000, record_every=1),
    "exp constant target": GDConfig(loss=EXP, eta=1.0, steps=20000, mode="constant",
                                    target_log_avg_risk=math.log(1e-12)),
    "log unrecorded": GDConfig(loss=LOG, eta=400.0, steps=2000, record_every=2000),
}
out = {}
for name, cfg in cases.items():
    runs = []
    for _ in range(5):
        start = time.perf_counter()
        traj = run_gd(ds, cfg)
        runs.append((time.perf_counter() - start) / traj.points[-1].t * 1e6)
    out[name] = statistics.median(runs)
    out[name + " steps"] = traj.points[-1].t
print(json.dumps(out))
"""


def _sample(src: str) -> dict[str, float]:
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.run([sys.executable, "-c", CHILD], env=env, capture_output=True,
                          text=True, check=True, timeout=600)
    return json.loads(proc.stdout)


def main(argv: list[str]) -> int:
    if len(argv) not in (3, 4):
        print(__doc__, file=sys.stderr)
        return 2
    before, after, out = str(Path(argv[0]).resolve()), str(Path(argv[1]).resolve()), argv[2]
    pairs = int(argv[3]) if len(argv) == 4 else 10
    rows = {"before": [], "after": []}
    for i in range(pairs):
        order = [("before", before), ("after", after)]
        for side, src in order if i % 2 == 0 else order[::-1]:
            rows[side].append(_sample(src))
        print(f"pair {i + 1}/{pairs}", file=sys.stderr)

    metrics = {}
    for key in rows["before"][0]:
        b = [r[key] for r in rows["before"]]
        a = [r[key] for r in rows["after"]]
        if key.endswith(" steps"):
            metrics[key] = {"before": sorted(set(b)), "after": sorted(set(a))}
            continue
        metrics[key + " us_per_step"] = {
            "before": _summary(b), "after": _summary(a),
            "after_over_before": _summary(a)["median"] / _summary(b)["median"],
            "after_lower_in_pairs": sum(x < y for x, y in zip(a, b))}
    result = {
        "method": (f"{pairs} alternating pairs of fresh interpreters, the tree that goes "
                   "first flipping each pair; each sample the median of 5 runs; raw "
                   "microseconds per step; see scripts/bench_averaged_blocks.py"),
        "machine": _machine(), "metrics": metrics,
    }
    Path(out).write_text(json.dumps(result, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
