"""Batch gradient descent with risk-scaled adaptive stepsizes.

The adaptive scheme multiplies a base stepsize eta by the inverse decay rate
of the loss evaluated at the current empirical risk:

    eta_t = eta * (-l^{-1})'(L(w_t)),    w_{t+1} = w_t - eta_t * grad L(w_t).

That update is algebraically identical to a constant-eta step on the
transformed objective phi(w) = -l^{-1}(L(w)), whose gradient

    grad phi(w) = (-l^{-1})'(L(w)) * grad L(w)

has norm at most the loss's lipschitz_const on unit-ball data. With the
loss's aggregation set to "sum" the transform is phi_sum = -l^{-1}(n L(w))
and the stepsize eta_t = eta * n * (-l^{-1})'(n L(w_t)); the risk, the
bounds and everything recorded as a risk stay the mean L. All adaptive
iterations here step along grad phi directly: it is the numerically stable
route, exact in log space even when the risk itself underflows float64.
Constant-stepsize mode keeps raw-risk arithmetic on purpose (it is the
baseline being compared against). A run diverges at the first iterate with
log risk +inf or nan (diverged_at = t), or once the running sum of the
iterates is not finite (diverged_at = t + 1), which a non-finite iterate
causes too; in adaptive mode only an eta near the float maximum gets there.

Risks are carried as (value, log_value) pairs. Gradient coefficients are
assembled as integer_weight * exp(log terms), never exp(log terms + log
weight): keeping multiplicity weights outside the exponential preserves
exact factor-of-two ratios between repeated rows, which the hard-instance
span checks rely on down to the last bit.

One loop, _descend, runs both the linear model (run_gd) and the two-layer
network (two_layer.run_gd_nn). A model is a forward pass (current
parameters -> a cache and the margins z) and a backward pass (cache, margin
state -> gradient); the linear backward is the module attribute grad_phi
(grad_risk in constant mode), looked up at every step. Each iterate builds
one MarginState from z: the log loss kernel and its weighted log-sum-exp run
once, and the risk, the smallest margin and the gradient coefficients are
all read off it. Passes over the data: the margins and the gradient c @ X
(Dataset.margins and Dataset.signed_sum), so an unrecorded linear step
makes 2. The run is stored as a columnar Trajectory.

Rows reach the trajectory one way, for both models: a step that is
recorded, or a linear step that checks the target, is queued in a block,
its iterate and margins copied into (B, *params.shape) and (B, R) arrays.
A block holds B = block_size(max(n_rows, params.size)) steps (64 at 100
rows and d = 10, 6 at 10 000 rows, 1 at d = 10**6), and is flushed when
full and when the run ends: one exact min(axis=1) gives every smallest
margin, and the rows extend the trajectory's columns a column at a time.
A linear row carries the running average, kept in a (B, d) array: one
stacked pass ds.margins, one loss.log_value call and one log-sum-exp give
every queued averaged risk and smallest margin, bit for bit as one
evaluation per step would. A network row carries the best iterate so
far. A row's phi and log_stepsize are read off its risk alone
(phi_from_risk, and log_adaptive_stepsize or ln eta). B changes no bit.
With a target, the loop runs to the end of the block that holds the first
passage, keeps the rows up to it and drops the up to B - 1 steps behind
it, with a diverged_at they may have stamped. A dropped step still went
through grad_phi, so a stand-in for it sees those steps too; run_gd keeps
overflow quiet, so they leave no warning either.

Stacks. risk, phi, phi_coefficients, grad_phi and grad_risk take a (k, d)
stack of parameter vectors as well as one vector, and MarginState the
(k, R) margins of such a stack, with one body for both shapes: the passes
over the data are Dataset.margins and Dataset.signed_sum, one gemv per
row; the elementwise kernels and _log_sum_exp run once on the (k, R)
array; the scalar tail (the risk from its log, ln (-l^{-1})' of it, phi
with poly's _brentq) runs row by row. Row j of every stacked result has
the bits of the call on row j alone, which the checks of verify rely on to
score a whole probe set in one call. A stack's risk is a list of
RiskValue, its phi a list of floats.

What stays scalar: loss kernels called on a float go through a 0-d array
and numpy's scalar math, which can round differently from the array loop.
Measured with numpy 2.4: poly's log_value on 45 000 floats (+-1e-3 ..
+-1e3, log-spaced) differs from the same values in one array on 303 of
them for poly:2 and on 376 for poly:0.5, and on 19 of the 10 500 bound
arguments of acceptance item 7's grid for poly:2 (numpy's scalar **
against the array loop); exp, log and semicircle showed no
difference on any of these sets. So a loop that calls a kernel on one
float per row (general_loss_risk_log_bound per recorded row, as
verify.check_general_loss_bound and acceptance item 7 call it, and the
floor rows of verify.check_stepsize_cap) keeps doing so: vectorising it
would change bits.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass
from types import SimpleNamespace

import numpy as np

from .datasets import BLOCK_ELEMENTS, Dataset
from .losses import LossSpec


@dataclass(frozen=True)
class RiskValue:
    """Empirical risk as a (value, log_value) pair.

    log_value is authoritative; value is exp(log_value) clipped to the float
    range (0.0 after underflow, inf after overflow).
    """

    value: float
    log_value: float


def _exp_or_inf(x: float) -> float:
    """exp(x), or inf once x is past the float range."""
    return math.inf if x > 709.0 else math.exp(x)


def _risk_from_log(log_value: float) -> RiskValue:
    return RiskValue(_exp_or_inf(log_value), log_value)


def _log_sum_exp(a: np.ndarray, weights: np.ndarray | None) -> tuple:
    """lse = ln sum_i m_i exp(a_i), a = ln l(z), for one iterate (a 1-D a)
    or for each row of a stack of iterates (a 2-D a).

    lse is max + ln total, where total sums the shifted exponentials
    e_i = m_i exp(a_i - max); the multiplicities m_i stay outside the
    exponential. A row whose max is not finite (some l(z_i) = inf, every
    l(z_i) = 0 as for a separated hinge, or a nan margin) has e and total
    nan and lse = max. Returns (e, total, lse): for one iterate total and
    lse are floats; for a stack total is a (k, 1) column, so that e / total
    divides each row by its own, and lse a list with a float per row. Both
    shapes run the same numpy operations and math.log on each row's total,
    so a row of a stack has the bits of its iterate on its own; one
    iterate, the per-step case, takes scalar reductions and skips the
    masking.
    """
    if a.ndim == 1:
        top = float(a.max())
        if not math.isfinite(top):
            return np.full(a.shape, math.nan), math.nan, top
        e = np.exp(a - top)
        if weights is not None:
            e = weights * e
        total = float(e.sum())
        return e, total, top + math.log(total)
    top = a.max(axis=1, keepdims=True)
    finite = np.isfinite(top)
    shifted = np.where(finite, a - np.where(finite, top, 0.0), 0.0)
    e = np.where(finite, np.exp(shifted), math.nan)
    if weights is not None:
        e = weights * e
    totals = e.sum(axis=1, keepdims=True)
    lses = [m + math.log(s) if math.isfinite(m) else m
            for m, s in zip(top.ravel().tolist(), totals.ravel().tolist())]
    return e, totals, lses


class MarginState:
    """The margins z of one iterate, or the (k, R) margins of a stack of
    iterates, and what their risk and their gradient coefficients share.

    e, total and lse = ln sum_i m_i l(z_i) come from _log_sum_exp; for exp
    the e_i are the numerators of the softmax coefficients. risk is the
    weighted mean loss, lse - ln n: a RiskValue, or a list of one per row.
    """

    __slots__ = ("z", "e", "total", "lse", "risk")

    def __init__(self, z: np.ndarray, ds: Dataset, loss: LossSpec):
        e, total, lse = _log_sum_exp(loss.log_value(z), ds.weights)
        self.z, self.e, self.total, self.lse = z, e, total, lse
        log_n = math.log(ds.n)
        self.risk = (_risk_from_log(lse - log_n) if z.ndim == 1
                     else [_risk_from_log(v - log_n) for v in lse])


def risk(w: np.ndarray, ds: Dataset, loss: LossSpec):
    """Weighted mean loss over the dataset at parameter w, a RiskValue; at
    a (k, d) stack, a list of one per row."""
    return MarginState(ds.margins(w), ds, loss).risk


def grad_risk(w, ds: Dataset, loss: LossSpec) -> np.ndarray:
    """Raw-domain gradient (1/n) sum_i w_i l'(z_i) y_i x_i at parameter w
    (or a (k, d) stack, giving (k, d)), or at the margins of a MarginState
    passed in its place.

    May overflow for losses with exploding derivatives at very negative
    margins; that is intentional in constant-stepsize mode.
    """
    z = w.z if isinstance(w, MarginState) else ds.margins(w)
    coef = loss.deriv(z)
    if ds.weights is not None:
        coef = ds.weights * coef
    return ds.signed_sum(coef) / ds.n


def _check_sum_n(loss: LossSpec, ds: Dataset):
    if loss.aggregation == "sum" and loss.n != ds.n:
        raise ValueError(
            f"sum aggregation needs the loss bound to the dataset size "
            f"(loss.n = {loss.n}, dataset n = {ds.n}); use loss.with_n(ds.n)")


def _transform_argument(loss: LossSpec, r: RiskValue) -> RiskValue:
    """The argument u of phi = -l^{-1}(u): the mean risk r itself, or
    loss.n * r under sum aggregation."""
    if loss.aggregation == "sum":
        return _risk_from_log(r.log_value + math.log(loss.n))
    return r


def _log_neg_inv_deriv(loss: LossSpec, u) -> float | np.ndarray:
    """ln (-l^{-1})'(u) at a RiskValue u; at a stack's list of them, a
    (k, 1) column with a row each, taken row by row."""
    if isinstance(u, list):
        return np.array([loss.log_neg_inv_deriv(v.value, v.log_value) for v in u])[:, None]
    return loss.log_neg_inv_deriv(u.value, u.log_value)


def phi_coefficients(z, ds: Dataset, loss: LossSpec) -> np.ndarray:
    """Per-row weights c_i >= 0 of grad phi = -sum_i c_i y_i x_i at margins z
    (an array, or the MarginState built from it); (k, R) margins of a stack
    give a (k, R) array, one row of coefficients per iterate.

    c_i = m_i (-l^{-1})'(u) |l'(z_i)| / n under the mean (u = L) and the
    same without the 1/n under the sum (u = n L); for exp both are the
    softmax m_i e^{-z_i} / sum_j m_j e^{-z_j}. Assembled in log space, so
    always finite for the smooth losses, and summing to at most the loss's
    lipschitz_const. The multiplicities m_i multiply the exponentials rather
    than entering them as ln m_i: a power-of-two m_i scales its row's
    coefficient exactly.
    """
    state = z if isinstance(z, MarginState) else MarginState(z, ds, loss)
    if loss.ops.softmax:
        # softmax of -z with multiplicities; exact ratio preservation matters
        return state.e / state.total
    if loss.aggregation == "sum":
        _check_sum_n(loss, ds)
        lse = state.lse
        u = [_risk_from_log(v) for v in lse] if isinstance(lse, list) else _risk_from_log(lse)
        lnid = _log_neg_inv_deriv(loss, u)
        coef = np.exp(lnid + loss.log_abs_deriv(state.z))
    else:
        lnid = _log_neg_inv_deriv(loss, state.risk)
        coef = np.exp(lnid + loss.log_abs_deriv(state.z) - math.log(ds.n))
    if ds.weights is not None:
        coef = ds.weights * coef
    return coef


def grad_phi(w, ds: Dataset, loss: LossSpec) -> np.ndarray:
    """Gradient of the transformed objective phi = -l^{-1}(u) at parameter
    w (or a (k, d) stack, giving (k, d)), or at the margins of a
    MarginState passed in its place (how the descent loop calls it, so the
    step reuses the iterate's margins).

    The exp gradient is a softmax under either aggregation (ln of n L and
    of L differ by the constant ln n). See phi_coefficients.
    """
    state = w if isinstance(w, MarginState) else MarginState(ds.margins(w), ds, loss)
    return -ds.signed_sum(phi_coefficients(state, ds, loss))


def _phi(loss: LossSpec, r: RiskValue) -> float:
    r = _transform_argument(loss, r)
    return loss.ops.phi(loss, r.value, r.log_value)


def phi_from_risk(loss: LossSpec, r):
    """phi = -l^{-1}(u) from the (value, log_value) pair of the mean risk,
    or a list of phi from a stack's list of them; u is the mean risk, or n
    times it under sum aggregation."""
    if isinstance(r, list):
        return [_phi(loss, v) for v in r]
    return _phi(loss, r)


def phi(w: np.ndarray, ds: Dataset, loss: LossSpec):
    """phi at parameter w, a float; at a (k, d) stack, a list of one per
    row."""
    _check_sum_n(loss, ds)
    return phi_from_risk(loss, risk(w, ds, loss))


def log_adaptive_stepsize(loss: LossSpec, r: RiskValue, eta: float) -> float:
    """ln eta_t = ln eta + ln (-l^{-1})'(risk); always finite.

    Under sum aggregation eta_t = eta * n * (-l^{-1})'(n * risk), so that
    eta_t * grad L = eta * grad phi_sum. For exp (a softmax kind) the factor
    n cancels exactly and the mean formula is used.
    """
    if not eta > 0.0:
        raise ValueError(f"eta must be positive, got {eta}")
    if loss.aggregation == "sum" and not loss.ops.softmax:
        u = _transform_argument(loss, r)
        return (math.log(eta) + math.log(loss.n)
                + loss.log_neg_inv_deriv(u.value, u.log_value))
    return math.log(eta) + loss.log_neg_inv_deriv(r.value, r.log_value)


@dataclass(frozen=True)
class GDConfig:
    loss: LossSpec
    eta: float
    steps: int
    mode: str = "adaptive"  # "adaptive" | "constant"
    init: np.ndarray | None = None
    record_every: int = 1
    target_log_avg_risk: float | None = None  # stop at the first t >= 1 at or below it

    def __post_init__(self):
        if self.mode not in ("adaptive", "constant"):
            raise ValueError(f"mode must be adaptive or constant, got {self.mode!r}")
        if self.mode == "adaptive" and not self.loss.ops.smooth:
            raise ValueError(f"adaptive mode needs an invertible loss; {self.loss.kind} has none")
        if not self.eta > 0.0:
            raise ValueError(f"eta must be positive, got {self.eta}")
        if not (isinstance(self.steps, int) and self.steps >= 0):
            raise ValueError(f"steps must be a nonnegative integer, got {self.steps!r}")
        if not (isinstance(self.record_every, int) and self.record_every >= 1):
            raise ValueError(f"record_every must be a positive integer, got {self.record_every!r}")
        if self.target_log_avg_risk is not None and math.isnan(self.target_log_avg_risk):
            raise ValueError("target_log_avg_risk must be a number or None, got nan")


class Trajectory:
    """The recorded steps of one run, stored as columns.

    columns maps each name to one value per recorded step: t, the
    parameters (w for the linear model, weights for a network), log_risk,
    phi, log_stepsize (ln eta_t about to be applied), min_margin and
    descent_violated (the risk went up from the previous iterate); then
    avg_w, log_avg_risk and avg_min_margin of the running average of
    w_0 .. w_t (linear), or min_log_risk and min_risk_t of the best iterate
    so far (network).

    column(name) returns one as an array, an empty one for a run without
    rows; a derived value is computed where it is read (_risk_from_log or
    _exp_or_inf of its log column). points, per-row views of the raw
    columns, remain only for perfbench's tracer.py and workloads.py; they
    go once perfbench reads columns.
    """

    def __init__(self):
        self.columns: dict[str, list] = {}
        self.diverged_at: int | None = None

    @property
    def points(self) -> "_Points":
        return _Points(self.columns)

    def column(self, name: str) -> np.ndarray:
        return np.array(self.columns[name] if self.columns else [])


class _Points(Sequence):
    """The rows of a Trajectory, each built when it is read."""

    def __init__(self, columns: dict):
        self._columns = columns

    def __len__(self) -> int:
        return len(self._columns["t"]) if self._columns else 0

    def __getitem__(self, i: int) -> SimpleNamespace:
        if not -len(self) <= i < len(self):
            raise IndexError("trajectory point index out of range")
        return SimpleNamespace(**{name: values[i] for name, values in self._columns.items()})


_BLOCK_MAX = 64


def block_size(row: int) -> int:
    """B = max(1, min(64, 65 536 // row)): how many steps _descend queues
    in a block. With row = max(n_rows, params.size), each of the block's
    arrays stays within datasets.BLOCK_ELEMENTS = 65 536 floats (512 KiB),
    the budget of the dataset passes' row blocks too, unless one row of it
    is longer."""
    return max(1, min(_BLOCK_MAX, BLOCK_ELEMENTS // row))


class _Block:
    """Steps queued until their rows are built together.

    push copies step t's iterate and its margins into the block's
    preallocated (B, *params.shape) and (B, R) arrays, and, when the rows
    carry the running average, that average into a (B, d) array; it queues
    the step's risk and the running best (best_log, best_t). flush takes
    every smallest margin from one min(axis=1) on the margins, evaluates
    the queued averages with one stacked margins pass, one loss.log_value
    call and one _log_sum_exp, then extends the trajectory's columns by the
    rows that are kept.
    """

    def __init__(self, ds: Dataset, loss: LossSpec, target, params: np.ndarray, name: str,
                 averaged: bool):
        self.ds, self.loss, self.target, self.name = ds, loss, target, name
        self.log_n = math.log(ds.n)
        self.steps: list = []
        size = block_size(max(ds.n_rows, params.size))
        self.iterates = np.empty((size, *params.shape))
        self.margins = np.empty((size, ds.n_rows))
        self.avg = np.empty((size, params.size)) if averaged else None

    def push(self, t: int, params: np.ndarray, total: np.ndarray, state: MarginState,
             violated: bool, record: bool, best: tuple) -> bool:
        """Queue step t; True once the block is full."""
        j = len(self.steps)
        self.iterates[j] = params
        self.margins[j] = state.z
        if self.avg is not None:
            np.divide(total, t + 1, out=self.avg[j])
        self.steps.append((t, state.risk, violated, record, best))
        return j + 1 == len(self.iterates)

    def flush(self, traj: Trajectory, phi, log_stepsize) -> bool:
        """Append the queued rows that are recorded or at the first passage
        below the target, and drop the steps queued behind that passage.
        phi(risk) and log_stepsize(risk) give those columns of a row. True
        if the passage was found."""
        count = len(self.steps)
        if not count:
            return False
        steps, iterates, avg = self.steps, self.iterates[:count], self.avg
        # the kept rows are views of these arrays, so the next block takes new ones
        self.steps = []
        self.iterates = np.empty_like(self.iterates)
        if avg is not None:
            avg, self.avg = avg[:count], np.empty_like(avg)
            avg_z = self.ds.margins(avg)
            _, _, lses = _log_sum_exp(self.loss.log_value(avg_z), self.ds.weights)
            log_avgs = [v - self.log_n for v in lses]
        kept, passed = [], False
        for j, (t, _, _, record, _) in enumerate(steps):
            passed = self.target is not None and t >= 1 and log_avgs[j] <= self.target
            if passed or record:
                kept.append(j)
            if passed:
                break
        if not kept:
            return False
        if len(kept) < count:  # hold no memory for the rows that are dropped
            iterates, avg = iterates[kept], avg if avg is None else avg[kept]
        mins = self.margins[:count].min(axis=1).tolist()
        risks = [steps[j][1] for j in kept]
        columns = {
            "t": [steps[j][0] for j in kept],
            self.name: list(iterates),
            "log_risk": [r.log_value for r in risks],
            "phi": [phi(r) for r in risks],
            "log_stepsize": [log_stepsize(r) for r in risks],
            "min_margin": [mins[j] for j in kept],
            "descent_violated": [steps[j][2] for j in kept],
        }
        if avg is None:
            columns["min_log_risk"] = [steps[j][4][0] for j in kept]
            columns["min_risk_t"] = [steps[j][4][1] for j in kept]
        else:
            avg_mins = avg_z.min(axis=1).tolist()
            columns["avg_w"] = list(avg)
            columns["log_avg_risk"] = [log_avgs[j] for j in kept]
            columns["avg_min_margin"] = [avg_mins[j] for j in kept]
        for key, values in columns.items():
            traj.columns.setdefault(key, []).extend(values)
        return passed


def _descend(ds: Dataset, config: GDConfig, params: np.ndarray, forward, backward, *,
             name: str = "w", scale: float = 1, averaged: bool = True) -> Trajectory:
    """The descent loop of every model.

    forward() returns (cache, z) at the current params; backward(cache,
    state) returns the gradient, and params -= eta * scale * gradient steps
    them in place. Every row goes through a _Block. With averaged (the
    linear model) the rows carry the running average of the iterates and
    the run honours config.target_log_avg_risk; without it they carry the
    best iterate so far, and the caller refuses a target. The module
    docstring says how a block ends a run at a first passage.
    """
    loss, eta, smooth = config.loss, config.eta, config.loss.ops.smooth
    adaptive = config.mode == "adaptive"
    log_eta = math.log(eta)
    target = config.target_log_avg_risk
    traj = Trajectory()
    total = params.copy()
    prev_log = best_log = math.inf
    best_t = 0
    block = _Block(ds, loss, target, params, name, averaged)

    def phi(r):
        return phi_from_risk(loss, r) if smooth else math.nan

    def log_stepsize(r):
        return log_adaptive_stepsize(loss, r, eta) if adaptive else log_eta

    for t in range(config.steps + 1):
        cache, z = forward()
        state = MarginState(z, ds, loss)
        r = state.risk
        # log_value of -inf means exactly zero risk (possible for hinge only),
        # which is success; +inf or nan means true blow-up
        if r.log_value == math.inf or math.isnan(r.log_value):
            traj.diverged_at = t
            break
        violated = r.log_value > prev_log
        if r.log_value < best_log:
            best_log, best_t = r.log_value, t
        record = t % config.record_every == 0 or t == config.steps
        if record or (target is not None and t >= 1):
            if (block.push(t, params, total, state, violated, record, (best_log, best_t))
                    and block.flush(traj, phi, log_stepsize)):
                return traj  # at the first passage
        prev_log = r.log_value
        if t == config.steps:
            break
        params -= (eta * scale) * backward(cache, state)
        total += params
        if not np.isfinite(total).all():
            traj.diverged_at = t + 1
            break
    if block.flush(traj, phi, log_stepsize):
        traj.diverged_at = None  # stamped after the first passage
    return traj


def run_gd(ds: Dataset, config: GDConfig) -> Trajectory:
    """Run (adaptive or constant stepsize) gradient descent and record the
    trajectory of iterates and running averages.

    Recording happens every record_every steps and always at the final step.
    With config.target_log_avg_risk set, the run stops at the first t >= 1
    whose averaged iterate has log risk at or below it, and records that
    point even off the record_every grid, so columns["t"][-1] is the number
    of steps made. Every point it records is bit-identical to the same point of
    the run without a target. The check evaluates the averaged risk at every
    step, recorded or not.

    Averaged iterates are evaluated B = block_size(max(ds.n_rows, ds.d))
    steps at a time (see the module docstring). A run with a target therefore computes
    up to B - 1 steps past its first passage and drops them: they leave no
    row, no diverged_at and no warning, but each went through the gradient.

    Each step calls descent.grad_phi (grad_risk in constant mode) as
    (state, ds, loss), with the iterate's MarginState in the w slot.

    A diverged run (see the module docstring) stamps diverged_at; run_gd
    does not warn on the overflow that gets there. Adaptive mode diverges
    only by overflow, with eta near the float range: its step length is
    capped by eta times the loss's lipschitz_const.
    """
    loss = config.loss
    _check_sum_n(loss, ds)
    w = np.zeros(ds.d) if config.init is None else np.array(config.init, dtype=float)
    if w.shape != (ds.d,):
        raise ValueError(f"init has shape {w.shape}, dataset needs ({ds.d},)")
    if config.mode == "adaptive":
        backward = lambda _, state: grad_phi(state, ds, loss)  # noqa: E731
    else:
        backward = lambda _, state: grad_risk(state, ds, loss)  # noqa: E731
    # diverged_at reports an overflow, here and in the dropped steps
    with np.errstate(over="ignore", invalid="ignore"):
        return _descend(ds, config, w, lambda: (None, ds.margins(w)), backward)


def _check_bound_args(gamma: float, eta: float, t: int) -> None:
    if not (0.0 < gamma < 1.0):
        raise ValueError(f"need 0 < gamma < 1, got {gamma}")
    if not eta > 0.0:
        raise ValueError(f"eta must be positive, got {eta}")
    if not (isinstance(t, (int, np.integer)) and t >= 1):
        raise ValueError(f"the bound needs an integer t >= 1, got {t!r}")


def averaged_risk_log_bound(gamma: float, eta: float, t: int) -> float:
    """Log-domain bound on the averaged iterate of adaptive GD started at
    zero on gamma-margin unit-ball data:

        ln L(avg w_t) <= -((g^2 - 1) / (4 g)) * eta,   g = gamma^2 (t + 1),

    for every t >= 1. Once g >= 1 (t >= 1/gamma^2) the right side is at
    most -gamma^2 eta / 4.

    Derivation, for a convex phi with gradient coefficients summing to at
    most C (here C = 1): take u = u1 + u2 with u1 = lam w*,
    u2 = (C eta / (2 gamma)) w*. Convexity gives
    |w_{s+1} - u|^2 <= |w_s - u|^2 - 2 eta (phi(w_s) - phi(u1)) once the
    step-alignment inequality (check_gradient_inequalities) removes the u2
    and eta^2 terms. Summing s = 0..t from w_0 = 0, Jensen, and
    phi(u1) <= -lam gamma give, with lam = mu eta / gamma,

        phi(avg w_t) <= eta * ((mu + C/2)^2 / (2 g) - mu),

    whose minimum over mu >= 0 is at most the closed form for every g when
    C = 1.

    Status per (loss, aggregation):
      * exp, mean or sum: derived as above (phi = ln L is log-sum-exp; the
        iterates are the same under both aggregations).
      * log, mean: refuted. phi is not convex (exact witness: the log pair
        of witnesses.MIDPOINT_WITNESSES), and witnesses.DECAY_REPLAY is a
        cell where the 50-digit replay sits about 79 above the bound.
      * log, sum: only measured. phi_sum is convex, but its derived C is
        n, not 1 (LossSpec.lipschitz_const); the C = 1 bound holds on the
        45 log cells of acceptance item 1's grid, worst slack -2.51.
    """
    _check_bound_args(gamma, eta, t)
    g = gamma * gamma * (t + 1.0)
    return -((g * g - 1.0) / (4.0 * g)) * eta


def general_loss_risk_log_bound(loss: LossSpec, gamma: float, eta: float, t: int) -> float:
    """Closed-form averaged-iterate bound for a smooth loss, in the log
    domain (safe when the bound value underflows):

        ln L(avg w_t) <= ln l(((g^2 - C) / (4 g)) * eta),   g = gamma^2 (t + 1),

    where C = loss.lipschitz_const() (which depends on loss.n; bind it to the
    dataset size first). For the exp loss, C = 1, this is exactly
    averaged_risk_log_bound. The bound is weaker than l(0) while
    g < sqrt(C) and informative after.

    The averaging argument in averaged_risk_log_bound needs phi convex and
    gives phi(avg w_t) <= eta * ((mu + C/2)^2 / (2 g) - mu) for mu >= 0. For
    C >= 2 its minimum over mu is at most this closed form only where
    g >= C + sqrt(C^2 - C) (the larger root of g^2 - 2 g C + C); below it
    the closed form is not derived here.

    Status per (loss, aggregation):
      * exp, mean or sum: derived (C = 1).
      * log, mean: refuted; witnesses.DECAY_REPLAY lies far above it too.
      * poly:k, mean: not derived. phi is not convex (exact witness: the
        poly:2 pair of witnesses.MIDPOINT_WITNESSES), and C = n^{1/k} = 10
        at n = 100, k = 2, needs g >= 19.5. Measured: it fails on 16 of 45
        cells of acceptance item 7's grid (g <= 4.04).
      * semicircle, mean: not derived (semicircle pair of the witnesses).
        C = n + 1 = 101 exceeds every g^2 <= 16.3 on item 7's grid, so the
        bound sits above l(0) in every cell there: it passes, and it says
        nothing about decay.
      * log, poly, semicircle, sum: not derived. phi_sum is convex, but its
        C is n, so at n = 100 the bound is above l(0) on the acceptance grids.
    """
    if not loss.ops.smooth:
        raise ValueError(f"no risk bound for the {loss.kind} loss")
    _check_bound_args(gamma, eta, t)
    g = gamma * gamma * (t + 1.0)
    c = loss.lipschitz_const()
    x = ((g * g - c) / (4.0 * g)) * eta
    return float(loss.log_value(x))
