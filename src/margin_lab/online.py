"""Perceptron and single-example first-order updates with mistake counting.

Every run goes through one loop, ``w -= eta * l'(y x.w) * y x`` on the
presented example. The Perceptron is hinge SGD (l'(0) := -1) at stepsize 1
through that loop, whose step is then exactly ``w + y x`` on a nonpositive
margin. ``tests/_oracles.full_loop_online`` keeps the Perceptron's own rule
``w + y x`` as the independent reference.

A "mistake" at a step is defined by the presented example's margin being
nonpositive before the update (ties count as mistakes), independent of
whether the method actually moves.  Cumulative counts are tracked per step.

Row orders are 0-based index sequences into the dataset; repeats are allowed
(multi-pass training is an order that cycles).

The hinge loss never moves on a positive margin, so a hinge run (the
Perceptron included) that has separated, with every row left in its order at
positive margin by the step's own arithmetic, stays where it is: the run
stops there and fills the rest of its trace with that iterate and mistake
count, the same arrays the remaining steps would have written. A smooth loss
still moves and runs every step.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, Optional, Sequence, Union

import numpy as np

from .datasets import Dataset, gen_online_hard
from .losses import HINGE, LossSpec

if TYPE_CHECKING:  # import cycle: verify builds on this module
    from .verify import BoundReport

OnlineMethod = Callable[[Dataset, np.ndarray, Optional[np.ndarray]], "OnlineRun"]


@dataclass(frozen=True)
class OnlineRun:
    """Trace of an online run over a fixed presentation order.

    ``iterates[k]`` is the weight vector after k steps (row 0 is the start),
    ``mistakes[k]`` the number of nonpositive-margin presentations among the
    first k steps, and ``separated_at`` the first k at which ``iterates[k]``
    has strictly positive margin on the whole dataset (None if that never
    happens within the run).
    """

    order: np.ndarray
    iterates: np.ndarray
    mistakes: np.ndarray
    separated_at: Optional[int]

    @property
    def total_mistakes(self) -> int:
        return int(self.mistakes[-1])


def _prepare(
    ds: Dataset, order: Union[Sequence[int], np.ndarray], w0: Optional[np.ndarray]
) -> tuple[np.ndarray, np.ndarray]:
    order = np.asarray(order, dtype=np.int64)
    if order.ndim != 1:
        raise ValueError("order must be a 1-d index sequence")
    if order.size and (order.min() < 0 or order.max() >= ds.n_rows):
        raise ValueError(
            f"order indices must lie in [0, {ds.n_rows}), got "
            f"range [{order.min()}, {order.max()}]"
        )
    if w0 is None:
        w0 = np.zeros(ds.d)
    else:
        w0 = np.asarray(w0, dtype=float)
        if w0.shape != (ds.d,):
            raise ValueError(f"w0 must have shape ({ds.d},), got {w0.shape}")
    return order, w0


def _at_rest(ds: Dataset, rows: np.ndarray, w: np.ndarray) -> bool:
    """Whether every row in ``rows`` has ``y * x.w > 0`` by the step's own
    arithmetic (the gemv of ``min_margin`` can round differently)."""
    return all(float(ds.labels[idx]) * float(ds.features[idx] @ w) > 0.0
               for idx in np.unique(rows))


def _run(
    ds: Dataset, order: np.ndarray, w0: np.ndarray, loss: LossSpec, eta: float
) -> OnlineRun:
    """The online loop: ``w -= eta * l'(z) * y x`` with ``z = y x.w``.

    The hinge loss neither moves nor counts a mistake on a row of positive
    margin. So once a hinge run separates and every row left in the order
    has positive margin, the iterate is a fixed point: the rest of
    ``iterates`` and ``mistakes`` is filled in without running those steps.
    """
    rests = loss.kind == "hinge"
    w = w0.copy()
    iterates = np.empty((order.size + 1, ds.d))
    iterates[0] = w
    mistakes = np.zeros(order.size + 1, dtype=np.int64)
    count = 0
    separated_at: Optional[int] = 0 if ds.min_margin(w) > 0.0 else None
    k = 0
    if not (separated_at == 0 and rests and _at_rest(ds, order, w)):
        for k, idx in enumerate(order, start=1):
            x, y = ds.features[idx], float(ds.labels[idx])
            z = y * float(x @ w)
            count += z <= 0.0
            # the kind's kernel on the float: the bits of LossSpec.deriv
            # without its round trip through a 0-d array
            scale = eta * float(loss.ops.deriv(loss, z))
            if scale != 0.0:
                w = w - scale * (y * x)
            iterates[k] = w
            mistakes[k] = count
            if separated_at is None and scale != 0.0 and ds.min_margin(w) > 0.0:
                separated_at = k
                if rests and _at_rest(ds, order[k:], w):
                    break
    iterates[k + 1:] = w  # the fixed point's steps; empty if the loop ran out
    mistakes[k + 1:] = count
    return OnlineRun(
        order=order, iterates=iterates, mistakes=mistakes, separated_at=separated_at
    )


def run_perceptron(
    ds: Dataset,
    order: Union[Sequence[int], np.ndarray],
    w0: Optional[np.ndarray] = None,
) -> OnlineRun:
    """Run the Perceptron over ``order`` (0-based row indices, repeats ok).

    The Perceptron is hinge SGD at stepsize 1 through the one online loop,
    so it shares :func:`run_online_sgd`'s arithmetic bit for bit.
    """
    return _run(ds, *_prepare(ds, order, w0), HINGE, 1.0)


def run_online_sgd(
    ds: Dataset,
    order: Union[Sequence[int], np.ndarray],
    loss: LossSpec,
    eta: float,
    w0: Optional[np.ndarray] = None,
) -> OnlineRun:
    """Single-example gradient steps ``w -= eta * l'(y x.w) * y x``.

    With the hinge loss and ``eta == 1`` this is :func:`run_perceptron`: both
    run the same loop.  Mistakes are counted by the presented margin's sign,
    whether or not the step moves.
    """
    if not (eta >= 0.0) or not math.isfinite(eta):
        raise ValueError(f"eta must be finite and >= 0, got {eta}")
    return _run(ds, *_prepare(ds, order, w0), loss, eta)


def check_online_hard_instance(
    gamma: float,
    n: int,
    method: Optional[OnlineMethod] = None,
) -> "BoundReport":
    """Mistake and separation-time floors on the sequential hard instance.

    Runs ``method`` (default: Perceptron) over one pass of the hard online
    dataset, starting from 0 and from e_1 (a direction no example touches),
    and checks that after every step t the cumulative mistake count is at
    least min(1/(2 gamma^2), t) and that full separation takes at least
    min(1/(2 gamma^2), n) steps, the generator's separation_floor.
    """
    from .verify import make_report

    if method is None:
        method = run_perceptron
    ds = gen_online_hard(gamma, n)
    order = np.arange(n, dtype=np.int64)
    floor = ds.metadata["separation_floor"]

    rows: list[tuple[str, float, float]] = []
    context: dict = {"gamma": gamma, "n": n, "separation_floor": floor}
    for scale, tag in ((0.0, "from_zero"), (1.0, "from_e1")):
        w0 = np.zeros(ds.d)
        w0[0] = scale
        run = method(ds, order, w0)
        for t in range(1, n + 1):
            # min(floor, t) = min(1/(2 gamma^2), t), as t <= n
            rows.append((f"mistakes|{tag}|t={t}", float(run.mistakes[t]), min(floor, float(t))))
        sep = math.inf if run.separated_at is None else float(run.separated_at)
        rows.append((f"separated-at|{tag}", sep, floor))
        context[tag] = {
            "total_mistakes": run.total_mistakes,
            "separated_at": None if run.separated_at is None else run.separated_at,
        }

    return make_report(
        claim="sequential hard instance forces min(1/(2g^2), t) early mistakes",
        rows=rows,
        tolerance=0.0,
        context=context,
        direction=">=",
    )


def _check_order(n: int, steps: int) -> None:
    if n <= 0 or steps < 0:
        raise ValueError("need n > 0 and steps >= 0")
    # numpy's arange takes its length through a float64, exact up to 2**53;
    # an order that long is 64 PiB of int64, more than any host can allocate
    if steps > 2**53:
        raise MemoryError(f"an order of {steps} steps is past numpy's exact array lengths")


def cyclic_order(n: int, steps: int) -> np.ndarray:
    """Row order 0,1,..,n-1,0,1,.. of the given length, or MemoryError."""
    _check_order(n, steps)
    return np.arange(steps, dtype=np.int64) % n


def random_order(n: int, steps: int, seed: int) -> np.ndarray:
    """IID uniform row order of the given length, or MemoryError."""
    _check_order(n, steps)
    return np.random.default_rng(seed).integers(0, n, size=steps, dtype=np.int64)
