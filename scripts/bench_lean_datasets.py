"""Measure the memory and time of the dataset layer, before and after a change.

    python scripts/bench_lean_datasets.py BEFORE_SRC AFTER_SRC OUT.json [PAIRS]

BEFORE_SRC and AFTER_SRC are the `src` directories of two checkouts. The
dataset is `gen_random_separable(1000, 10_000, 0.1, seed=0)` (d = 1000,
n = 1e4, 80 MB of features), made once by AFTER_SRC and stored as .npy
arrays and as a dataset file (the two trees write the same bytes). Each
sample is one fresh interpreter that runs one phase:

- `gen`: `gen_random_separable` itself;
- `validate`, `fingerprint`, `save`: `validate`, `verify.dataset_fingerprint`
  and `save_dataset` on the dataset read back from the .npy arrays;
- `load`: `load_dataset` on the dataset file.

A sample records the phase's raw wall seconds and the rise of `ru_maxrss`
over the phase (MB): the process's peak after the phase less its peak
before it, once the imports and the inputs are in. A phase run in its own
process keeps an earlier phase's peak from hiding its own. The two trees
alternate, the one that goes first flipping from pair to pair (PAIRS pairs,
default 10). Writes medians, quartiles and every sample for both trees,
the after/before ratio of the medians, the pairs the change won, and
numpy/BLAS/CPU information. Raw times: the host's speed drifts, so only the
alternating pairs are comparable.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
from bench_import_path import _machine, _summary  # noqa: E402

D, N, GAMMA, SEED = 1000, 10_000, 0.1, 0
PHASES = ("gen", "validate", "fingerprint", "save", "load")

MAKE_INPUTS = f"""
import sys
import numpy as np
from margin_lab.datasets import gen_random_separable, save_dataset
ds = gen_random_separable({D}, {N}, {GAMMA}, seed={SEED})
for name in ("features", "labels", "w_star"):
    np.save(f"{{sys.argv[1]}}/{{name}}.npy", getattr(ds, name))
save_dataset(ds, f"{{sys.argv[1]}}/dataset.txt")
"""

CHILD = f"""
import json, resource, sys, time
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
peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
start = time.perf_counter()
run()
seconds = time.perf_counter() - start
rise_mb = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss - peak_kb) / 1024.0
print(json.dumps({{"s": seconds, "rss_rise_mb": rise_mb}}))
"""


def _python(src: str, code: str, *args: str) -> str:
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.run([sys.executable, "-c", code, *args], env=env, capture_output=True,
                          text=True, check=True, timeout=900)
    return proc.stdout


def _sample(src: str, inputs: str) -> dict[str, float]:
    out = {}
    for phase in PHASES:
        row = json.loads(_python(src, CHILD, phase, inputs))
        out[f"{phase} s"] = row["s"]
        out[f"{phase} rss_rise_mb"] = row["rss_rise_mb"]
    return out


def main(argv: list[str]) -> int:
    if len(argv) not in (3, 4):
        print(__doc__, file=sys.stderr)
        return 2
    before, after, out = str(Path(argv[0]).resolve()), str(Path(argv[1]).resolve()), argv[2]
    pairs = int(argv[3]) if len(argv) == 4 else 10
    rows = {"before": [], "after": []}
    with tempfile.TemporaryDirectory() as inputs:
        _python(after, MAKE_INPUTS, inputs)
        for i in range(pairs):
            order = [("before", before), ("after", after)]
            for side, src in order if i % 2 == 0 else order[::-1]:
                rows[side].append(_sample(src, inputs))
            print(f"pair {i + 1}/{pairs}", file=sys.stderr)

    metrics = {}
    for key in rows["before"][0]:
        b = [r[key] for r in rows["before"]]
        a = [r[key] for r in rows["after"]]
        metrics[key] = {
            "before": _summary(b), "after": _summary(a),
            "after_over_before": _summary(a)["median"] / _summary(b)["median"],
            "after_lower_in_pairs": sum(x < y for x, y in zip(a, b))}
    result = {
        "method": (f"{pairs} alternating pairs, the tree that goes first flipping each "
                   f"pair; one fresh interpreter per phase and sample; d={D}, n={N}, "
                   f"gamma={GAMMA}, seed={SEED}; raw wall seconds and ru_maxrss rise (MB) "
                   "over the phase; see scripts/bench_lean_datasets.py"),
        "machine": _machine(), "metrics": metrics,
    }
    Path(out).write_text(json.dumps(result, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
