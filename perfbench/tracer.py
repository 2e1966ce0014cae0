"""Span tracing of margin_lab from outside the library.

Every public function of the traced modules (and the hot methods of
``Dataset`` and ``LossSpec``) is replaced by a wrapper that records one span:
name, start, end and the index of the enclosing span. The wrapper is
installed at every import site that holds the original object, for example
``margin_lab.cli.run_gd`` as well as ``margin_lab.descent.run_gd``, so calls
through either name are seen. No library source is changed; ``uninstall``
puts every original back.

Spans live in four flat arrays while the run goes on (24 bytes a span) and
are written once, by ``save``, when the run ends. Self time is a span's
duration minus the durations of its direct children.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import time
from array import array

import numpy as np

MODULES = ("losses", "datasets", "descent", "online", "two_layer", "verify", "cli")

# Methods that carry the per-row work; module-level functions are found by
# inspection, methods have to be named.
METHODS = {
    "datasets": {"Dataset": ("margins", "min_margin")},
    "losses": {"LossSpec": ("value", "deriv", "second_deriv", "log_value",
                            "log_abs_deriv", "inverse", "neg_inv_deriv",
                            "log_neg_inv_deriv", "lipschitz_const")},
}

LOSS_KERNELS = ("value", "deriv", "second_deriv", "log_value", "log_abs_deriv")


def _elements(extra, args, kwargs, result):
    z = args[1] if len(args) > 1 else kwargs["z"]
    extra["losses.elements"] += np.size(z)


def _matrix_bytes(extra, args, kwargs, result):
    extra["datasets.margins.bytes"] += args[0].features.nbytes


def _presentations(extra, args, kwargs, result):
    extra["online.presentations"] += result.order.size


def _gd_steps(extra, args, kwargs, result):
    # updates applied: the last recorded iterate (run_gd always records its
    # final one), or the step a diverged run stopped at
    if result.diverged_at is not None:
        extra["steps.gd"] += result.diverged_at
    elif result.points:
        extra["steps.gd"] += result.points[-1].t


def _nn_steps(extra, args, kwargs, result):
    if result.points:
        extra["steps.nn"] += result.points[-1].t


# Functions that run whole optimisations; the steps they completed are read
# off their results, so installing only these costs one span per run.
RUNNERS = {"descent.run_gd", "two_layer.run_gd_nn", "online.run_perceptron",
           "online.run_online_sgd"}


def steps(extra: dict) -> int:
    """GD, network and online steps completed, counted by the RUNNERS hooks."""
    return int(extra["steps.gd"] + extra["steps.nn"] + extra["online.presentations"])


# Extra counters, updated after a call of the named span returns.
HOOKS = {
    "datasets.margins": _matrix_bytes,
    "online.run_perceptron": _presentations,
    "online.run_online_sgd": _presentations,
    "descent.run_gd": _gd_steps,
    "two_layer.run_gd_nn": _nn_steps,
    **{f"losses.{kernel}": _elements for kernel in LOSS_KERNELS},
}
COUNTERS = ("losses.elements", "datasets.margins.bytes", "online.presentations",
            "steps.gd", "steps.nn")


def _column(values: array, dtype) -> np.ndarray:
    return np.frombuffer(values, dtype=dtype).copy() if len(values) else np.zeros(0, dtype)


class Tracer:
    """Records spans of the wrapped margin_lab functions while installed."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.span_name = array("i")
        self.span_parent = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self.extra: dict[str, float] = dict.fromkeys(COUNTERS, 0.0)
        self._stack = [-1]
        self._patches: list[tuple[object, str, object]] = []

    # -- recording --------------------------------------------------------

    def _wrap(self, short: str, fn):
        if short not in self._ids:
            self._ids[short] = len(self.names)
            self.names.append(short)
        nid = self._ids[short]
        hook = HOOKS.get(short)
        names, parents = self.span_name, self.span_parent
        starts, ends, stack = self.span_start, self.span_end, self._stack
        extra = self.extra
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(names)
            names.append(nid)
            parents.append(stack[-1])
            starts.append(0.0)
            ends.append(0.0)
            stack.append(idx)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                starts[idx] = t0
                ends[idx] = t1
            if hook is not None:
                hook(extra, args, kwargs, result)
            return result

        return wrapper

    def install(self, only: set[str] | None = None) -> None:
        """Wrap every traced function (or just the short names in ``only``)."""
        modules = {m: importlib.import_module(f"margin_lab.{m}") for m in MODULES}
        holders = [importlib.import_module("margin_lab"), *modules.values()]
        for mod_name, module in modules.items():
            for attr, fn in list(vars(module).items()):
                if (attr.startswith("_") or not inspect.isfunction(fn)
                        or fn.__module__ != module.__name__):
                    continue
                short = f"{mod_name}.{attr}"
                if only is not None and short not in only:
                    continue
                wrapper = self._wrap(short, fn)
                for holder in holders:
                    for name, value in list(vars(holder).items()):
                        if value is fn:
                            self._patch(holder, name, wrapper)
            for cls_name, methods in METHODS.get(mod_name, {}).items():
                cls = getattr(module, cls_name)
                for meth in methods:
                    short = f"{mod_name}.{meth}"
                    if only is not None and short not in only:
                        continue
                    self._patch(cls, meth, self._wrap(short, vars(cls)[meth]))

    def _patch(self, owner, name: str, value) -> None:
        self._patches.append((owner, name, vars(owner)[name]))
        setattr(owner, name, value)

    def uninstall(self) -> None:
        for owner, name, original in reversed(self._patches):
            setattr(owner, name, original)
        self._patches.clear()

    def mark(self) -> int:
        """Index of the next span; spans from here on belong to a new phase."""
        return len(self.span_name)

    # -- analysis ---------------------------------------------------------

    def arrays(self):
        """Copies of the span columns: name id, parent index, start, end."""
        return (_column(self.span_name, np.int32), _column(self.span_parent, np.int32),
                _column(self.span_start, np.float64), _column(self.span_end, np.float64))

    def summary(self, begin: int = 0, end: int | None = None) -> dict:
        """Per-name calls, inclusive seconds and self seconds over a span range.

        Also counts GD steps (gradient calls made directly by run_gd) and the
        margins/gradient passes made inside run_gd.
        """
        name, parent, start, stop = self.arrays()
        if end is None:
            end = len(name)
        dur = stop - start
        has_parent = parent >= 0
        child = np.bincount(parent[has_parent], weights=dur[has_parent], minlength=len(name))
        self_time = dur - child
        sl = slice(begin, end)
        k = len(self.names)
        calls = np.bincount(name[sl], minlength=k)
        total = np.bincount(name[sl], weights=dur[sl], minlength=k)
        own = np.bincount(name[sl], weights=self_time[sl], minlength=k)
        out = {n: {"calls": int(calls[i]), "total_s": float(total[i]), "self_s": float(own[i])}
               for i, n in enumerate(self.names)}

        ids = self._ids
        gd = ids.get("descent.run_gd", -1)
        grads = {ids[g] for g in ("descent.grad_phi", "descent.grad_risk") if g in ids}
        sub_name, sub_parent = name[sl], parent[sl]
        parent_name = np.where(sub_parent >= 0, name[np.maximum(sub_parent, 0)], -1)
        is_grad = np.isin(sub_name, list(grads))
        steps = int(np.sum(is_grad & (parent_name == gd)))
        # spans below some run_gd span: propagate the flag down parent links
        under = np.zeros(len(name), dtype=bool)
        under[: end] = name[: end] == gd
        for _ in range(64):
            nxt = under | (has_parent & under[np.maximum(parent, 0)])
            if np.array_equal(nxt, under):
                break
            under = nxt
        inside = under[sl] & (sub_name != gd)
        margins = ids.get("datasets.margins", -1)
        passes = int(np.sum(inside & (sub_name == margins)) + np.sum(inside & is_grad))
        out["_gd"] = {"steps": steps, "passes": passes}
        return out

    def save(self, path) -> None:
        """Write every span once, as arrays plus the name table."""
        name, parent, start, end = self.arrays()
        np.savez(path, name=name, parent=parent, start=start, end=end,
                 names=np.array(self.names))
