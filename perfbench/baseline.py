"""The rows of the ROADMAP baseline table, measured again (about two minutes).

    python3 perfbench/run.py --baseline

The import, verify, bench and passes-per-step rows come from the workloads
themselves (run.run_workload, at least five units each, output checked).
Only the per-step rows at the table's own sizes, which no workload runs, are
timed here. Every time is a median of at least five repeats.
"""

from __future__ import annotations

import json
import statistics
import time
from dataclasses import replace
from pathlib import Path

import margin_lab

from provenance import matvec_pair_s, provenance

REPEATS = 5


def _per_step(ds, loss, steps: int, record_every: int) -> float:
    config = margin_lab.GDConfig(loss=loss.with_n(ds.n), eta=400.0, steps=steps,
                                 record_every=record_every)
    margin_lab.run_gd(ds, replace(config, steps=2))
    times = []
    for _ in range(REPEATS):
        t0 = time.perf_counter()
        margin_lab.run_gd(ds, config)
        times.append(time.perf_counter() - t0)
    return statistics.median(times) / steps


def main(here: Path) -> int:
    from run import run_workload

    rows = []
    small = margin_lab.gen_random_separable(10, 100, 0.1, seed=0)
    for loss in (margin_lab.EXP, margin_lab.LOG, margin_lab.poly(2.0)):
        us = _per_step(small, loss, 2000, 1) * 1e6
        rows.append((f"run_gd {loss.name}, d=10 n=100, adaptive:400, record every step",
                     f"{us:.1f} us/step", ""))
    rows.append(("  floor Z@w + c@Z, 100x10", f"{matvec_pair_s(small.features) * 1e6:.2f} us", ""))

    large = margin_lab.gen_random_separable(1000, 10_000, 0.1, seed=0)
    for every in (1, 1000):
        ms = _per_step(large, margin_lab.EXP, 20, every) * 1e3
        rows.append((f"run_gd exp, d=1000 n=1e4, adaptive:400, record every {every}",
                     f"{ms:.2f} ms/step", ""))
    rows.append(("  floor Z@w + c@Z, 10000x1000", f"{matvec_pair_s(large.features) * 1e3:.2f} ms",
                 f"{large.features.nbytes} bytes"))
    del large

    results = {name: run_workload(name, 0, 1.0, trace, "full", min_units=REPEATS)
               for name, trace in (("run-large", True), ("verify-suite", False),
                                   ("bench-grid", False))}
    bad = [f"{name}: {r['failed']} of {r['attempted']} failed"
           for name, r in results.items() if r["failed"]]
    passes = results["run-large"]["per_layer"]["datasets.passes_per_step"]
    rows.append(("passes over the data per step, run-large (log, record every 50)",
                 f"{passes:.2f}", "floor: 2 (3 with avg_w)"))
    rows.append(("import margin_lab (fresh interpreter)",
                 f"{results['run-large']['import_raw_s']:.3f} s", "raw"))
    for name, what, note in (("verify-suite", "margin-lab verify", "exit 1 expected"),
                             ("bench-grid", "margin-lab bench (defaults)", "")):
        r = results[name]
        rows.append((what, f"{r['wall_raw_s']:.2f} s",
                     f"raw, median of {r['units']}" + (f", {note}" if note else "")))

    width = max(len(r[0]) for r in rows)
    for what, measured, note in rows:
        print(f"{what:<{width}}  {measured:<28}  {note}")
    print("provenance " + json.dumps(provenance(here.parent), sort_keys=True))
    if bad:
        print("output check failed: " + "; ".join(bad))
        return 1
    return 0
