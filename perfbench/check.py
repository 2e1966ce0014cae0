"""Output correctness: reduce each workload's output to its meaning, compare.

A summary is a flat dict ``key -> entry``. An entry is either exact
(``{"x": value}``: integers, verdicts, labels, row counts) or a float with
the scale it is judged against (``{"f": value, "scale": s, "tol": "tight" |
"loose"}``). Two summaries agree when they have the same keys, every exact
entry is equal, and every float differs from the reference by at most
``RTOL[tol] * scale`` (non-finite floats must match exactly).

Why two tolerances: adaptive GD at the large stepsizes these workloads use
(eta = 400 and up) is chaotic on small datasets. A one-ulp change in the
features stays below 1e-8 of the column scale for the first 25 steps, then
grows and saturates near 2e-3 of the scale by step 200 (measured on
d=10, n=100, seeds 3 and 7, exp and log losses). So by default rows with
t <= PREFIX_T are held to TIGHT, and later rows, column means and check
slacks to LOOSE, which is ten times the saturated drift. That default
cannot see a single dropped step, which moves a late row by less than the
drift does.

A workload whose run is not chaotic passes ``late="tight"`` and holds every
row to TIGHT. run-large at its full size is one: a one-ulp change in its
features moves its t=50 row by at most 1e-15 of the value (seeds 0-2),
while one dropped update moves it by 2e-2 and a gradient scaled by 0.99 by
1e-2 (``test_perfbench.py`` checks that both are rejected).
"""

from __future__ import annotations

import hashlib
import json
import math

import numpy as np

RTOL = {"tight": 1e-9, "loose": 2e-2}
PREFIX_T = 25
CHECKPOINT_EVERY = 2000


def _num(v: float):
    v = float(v)
    return v if math.isfinite(v) else repr(v)


def _val(v) -> float:
    return float(v) if isinstance(v, str) else v


def exact(value) -> dict:
    return {"x": value}


def close(value: float, scale: float, tol: str) -> dict:
    return {"f": _num(value), "scale": _num(scale), "tol": tol}


def digest(values) -> str:
    return hashlib.sha256(np.ascontiguousarray(values).tobytes()).hexdigest()[:16]


def summarize_columns(prefix: str, t: np.ndarray, columns: dict, ints=(),
                      late: str = "loose") -> dict:
    """Summary of a trajectory table: t exactly; per column the rows with
    t <= PREFIX_T (held to TIGHT), checkpoint rows every CHECKPOINT_EVERY
    steps and the final row, and the column mean (held to ``late``).

    Columns named in ``ints`` are integer flags: exact in the prefix, and
    judged by their mean (as a float) afterwards.
    """
    t = np.asarray(t, dtype=np.int64)
    out = {f"{prefix}.rows": exact(int(t.size)), f"{prefix}.t": exact(digest(t))}
    later = (t > PREFIX_T) & ((t % CHECKPOINT_EVERY == 0) | (np.arange(t.size) == t.size - 1))
    for name, col in columns.items():
        col = np.asarray(col, dtype=float)
        finite = col[np.isfinite(col)]
        scale = float(np.max(np.abs(finite))) if finite.size else 0.0
        scale = max(scale, 1e-300)
        for i in np.flatnonzero(t <= PREFIX_T):
            key = f"{prefix}.{name}@{t[i]}"
            out[key] = exact(int(col[i])) if name in ints else close(col[i], scale, "tight")
        if name not in ints:
            for i in np.flatnonzero(later):
                out[f"{prefix}.{name}@{t[i]}"] = close(col[i], scale, late)
        mean = float(np.mean(finite)) if finite.size else math.nan
        out[f"{prefix}.{name}.mean"] = close(mean, scale, late)
    return out


def compare(reference: dict, got: dict) -> list[str]:
    """Problems found, as human-readable lines; empty means the output agrees."""
    problems = []
    for key in sorted(set(reference) | set(got)):
        if key not in got:
            problems.append(f"{key}: missing from output")
            continue
        if key not in reference:
            problems.append(f"{key}: not in the reference")
            continue
        ref, out = reference[key], got[key]
        if "x" in ref:
            if out.get("x") != ref["x"]:
                problems.append(f"{key}: {out.get('x')!r} != reference {ref['x']!r}")
            continue
        a, b = _val(out.get("f", math.nan)), _val(ref["f"])
        if not (math.isfinite(a) and math.isfinite(b)):
            if not (a == b or (math.isnan(a) and math.isnan(b))):
                problems.append(f"{key}: {a!r} != reference {b!r}")
            continue
        limit = RTOL[ref["tol"]] * _val(ref["scale"])
        if abs(a - b) > limit:
            problems.append(f"{key}: {a!r} differs from reference {b!r} by more than {limit:.3g}")
    return problems


def load_references(path) -> dict:
    try:
        with open(path) as fh:
            return json.load(fh)
    except FileNotFoundError:
        return {}


def save_references(path, refs: dict) -> None:
    with open(path, "w") as fh:
        json.dump(refs, fh, sort_keys=True, separators=(",", ":"))
        fh.write("\n")
