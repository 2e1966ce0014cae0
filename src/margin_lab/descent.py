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
all read off it. Passes over the data: the margins and the gradient c @ X,
so an unrecorded linear step makes 2. A recorded step, or one that checks
the target, makes a third, ds.margins(avg_w), for both the averaged risk and
its smallest margin. The run is stored as a columnar Trajectory.
"""

from __future__ import annotations

import contextlib
import math
from collections.abc import Sequence
from dataclasses import dataclass
from types import SimpleNamespace

import numpy as np

from .datasets import Dataset
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


class MarginState:
    """The margins z of one iterate and what its risk and its gradient
    coefficients share.

    lse = ln sum_i m_i l(z_i) is computed as max + ln total, where total sums
    the shifted exponentials e_i = m_i exp(ln l(z_i) - max); for exp these
    are the numerators of the softmax coefficients. The multiplicities m_i
    stay outside the exponential. risk is the weighted mean loss, lse - ln n.
    """

    __slots__ = ("z", "e", "total", "lse", "risk", "n")

    def __init__(self, z: np.ndarray, ds: Dataset, loss: LossSpec, n: int):
        a = loss.log_value(z)
        m = float(a.max())
        if math.isfinite(m):
            e = np.exp(a - m)
            if ds.weights is not None:
                e = ds.weights * e
            total = float(e.sum())
            lse = m + math.log(total)
        else:  # some l(z_i) = inf, every l(z_i) = 0 (hinge), or a nan margin
            e, total, lse = np.full(np.shape(a), math.nan), math.nan, m
        self.z, self.e, self.total, self.lse, self.n = z, e, total, lse, n
        self.risk = _risk_from_log(lse - math.log(n))


def risk(w: np.ndarray, ds: Dataset, loss: LossSpec) -> RiskValue:
    """Weighted mean loss over the dataset at parameter w."""
    return MarginState(ds.margins(w), ds, loss, ds.n).risk


def grad_risk(w, ds: Dataset, loss: LossSpec) -> np.ndarray:
    """Raw-domain gradient (1/n) sum_i w_i l'(z_i) y_i x_i at parameter w,
    or at the margins of a MarginState passed in its place.

    May overflow for losses with exploding derivatives at very negative
    margins; that is intentional in constant-stepsize mode.
    """
    z, n = (w.z, w.n) if isinstance(w, MarginState) else (ds.margins(w), ds.n)
    coef = loss.deriv(z) * ds.labels
    if ds.weights is not None:
        coef = ds.weights * coef
    return (coef @ ds.features) / n


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


def phi_coefficients(z, ds: Dataset, loss: LossSpec) -> np.ndarray:
    """Per-row weights c_i >= 0 of grad phi = -sum_i c_i y_i x_i at margins z
    (an array, or the MarginState built from it).

    c_i = m_i (-l^{-1})'(u) |l'(z_i)| / n under the mean (u = L) and the
    same without the 1/n under the sum (u = n L); for exp both are the
    softmax m_i e^{-z_i} / sum_j m_j e^{-z_j}. Assembled in log space, so
    always finite for the smooth losses, and summing to at most the loss's
    lipschitz_const. The multiplicities m_i multiply the exponentials rather
    than entering them as ln m_i: a power-of-two m_i scales its row's
    coefficient exactly.
    """
    state = z if isinstance(z, MarginState) else MarginState(z, ds, loss, ds.n)
    if loss.ops.softmax:
        # softmax of -z with multiplicities; exact ratio preservation matters
        return state.e / state.total
    if loss.aggregation == "sum":
        _check_sum_n(loss, ds)
        u = _risk_from_log(state.lse)
        coef = np.exp(loss.log_neg_inv_deriv(u.value, u.log_value) + loss.log_abs_deriv(state.z))
    else:
        r = state.risk
        lnid = loss.log_neg_inv_deriv(r.value, r.log_value)
        coef = np.exp(lnid + loss.log_abs_deriv(state.z) - math.log(state.n))
    if ds.weights is not None:
        coef = ds.weights * coef
    return coef


def grad_phi(w, ds: Dataset, loss: LossSpec) -> np.ndarray:
    """Gradient of the transformed objective phi = -l^{-1}(u) at parameter
    w, or at the margins of a MarginState passed in its place (how the
    descent loop calls it, so the step reuses the iterate's margins).

    The exp gradient is a softmax under either aggregation (ln of n L and
    of L differ by the constant ln n). See phi_coefficients.
    """
    state = w if isinstance(w, MarginState) else MarginState(ds.margins(w), ds, loss, ds.n)
    return -((phi_coefficients(state, ds, loss) * ds.labels) @ ds.features)


def phi_from_risk(loss: LossSpec, r: RiskValue) -> float:
    """phi = -l^{-1}(u) from the (value, log_value) pair of the mean risk;
    u is the mean risk, or n times it under sum aggregation."""
    r = _transform_argument(loss, r)
    return loss.ops.phi(loss, r.value, r.log_value)


def phi(w: np.ndarray, ds: Dataset, loss: LossSpec) -> float:
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

    points, final and column(name) are views. A point has one attribute per
    column, plus risk and avg_risk rebuilt from their log columns (every
    recorded risk is exp of its log, clipped) and stepsize = exp(log_stepsize).
    """

    def __init__(self, config: GDConfig):
        self.config = config
        self.columns: dict[str, list] = {}
        self.diverged_at: int | None = None

    def append(self, row: dict) -> None:
        if not self.columns:
            self.columns = {name: [] for name in row}
        for name in row:
            self.columns[name].append(row[name])

    @property
    def points(self) -> "_Points":
        return _Points(self.columns)

    @property
    def final(self) -> SimpleNamespace:
        return self.points[-1]

    def column(self, name: str) -> np.ndarray:
        values = self.columns.get(name)
        return np.array(values if values is not None else [getattr(p, name) for p in self.points])


class _Points(Sequence):
    """The rows of a Trajectory, each built when it is read."""

    def __init__(self, columns: dict):
        self._columns = columns

    def __len__(self) -> int:
        return len(self._columns["t"]) if self._columns else 0

    def __getitem__(self, i):
        if isinstance(i, slice):
            return [self[j] for j in range(*i.indices(len(self)))]
        if not -len(self) <= i < len(self):
            raise IndexError("trajectory point index out of range")
        p = SimpleNamespace(**{name: values[i] for name, values in self._columns.items()})
        p.risk = _risk_from_log(p.log_risk)
        p.stepsize = _exp_or_inf(p.log_stepsize)
        if hasattr(p, "log_avg_risk"):
            p.avg_risk = _risk_from_log(p.log_avg_risk)
        return p


def _descend(ds: Dataset, config: GDConfig, params: np.ndarray, forward, backward, *,
             name: str = "w", scale: float = 1, average=None) -> Trajectory:
    """The descent loop of every model.

    forward() returns (cache, z) at the current params; backward(cache,
    state) returns the gradient, and params -= eta * scale * gradient steps
    them in place. With average (the margins function of a parameter
    vector) the rows carry the running average of the iterates and the run
    honours config.target_log_avg_risk; without it they carry the best
    iterate so far and the target is not checked.
    """
    loss, eta, n, smooth = config.loss, config.eta, ds.n, config.loss.ops.smooth
    target = config.target_log_avg_risk if average is not None else None
    traj = Trajectory(config)
    total = params.copy()
    prev_log = best_log = math.inf
    best_t = 0
    for t in range(config.steps + 1):
        cache, z = forward()
        state = MarginState(z, ds, loss, n)
        r = state.risk
        # log_value of -inf means exactly zero risk (possible for hinge only),
        # which is success; +inf or nan means true blow-up
        if r.log_value == math.inf or math.isnan(r.log_value):
            traj.diverged_at = t
            break
        if r.log_value < best_log:
            best_log, best_t = r.log_value, t
        check = target is not None and t >= 1
        record = t % config.record_every == 0 or t == config.steps
        if average is not None and (check or record):
            avg = total / (t + 1)
            avg_z = average(avg)
            avg_r = MarginState(avg_z, ds, loss, n).risk
        passed = check and avg_r.log_value <= target
        if passed or record:
            row = {"t": t, name: params.copy(), "log_risk": r.log_value,
                   "phi": phi_from_risk(loss, r) if smooth else math.nan,
                   "log_stepsize": (log_adaptive_stepsize(loss, r, eta)
                                    if config.mode == "adaptive" else math.log(eta)),
                   "min_margin": float(z.min()), "descent_violated": r.log_value > prev_log}
            if average is not None:
                row.update(avg_w=avg, log_avg_risk=avg_r.log_value,
                           avg_min_margin=float(avg_z.min()))
            else:
                row.update(min_log_risk=best_log, min_risk_t=best_t)
            traj.append(row)
        prev_log = r.log_value
        if passed or t == config.steps:
            break
        params -= (eta * scale) * backward(cache, state)
        total += params
        if not np.isfinite(total).all():
            traj.diverged_at = t + 1
            break
    return traj


def run_gd(ds: Dataset, config: GDConfig) -> Trajectory:
    """Run (adaptive or constant stepsize) gradient descent and record the
    trajectory of iterates and running averages.

    Recording happens every record_every steps and always at the final step.
    With config.target_log_avg_risk set, the run stops at the first t >= 1
    whose averaged iterate has log risk at or below it, and records that
    point even off the record_every grid, so points[-1].t is the number of
    steps made. Every point it records is bit-identical to the same point of
    the run without a target. The check evaluates the averaged risk at every
    step, recorded or not.

    Each step calls descent.grad_phi (grad_risk in constant mode) as
    (state, ds, loss), with the iterate's MarginState in the w slot.

    A diverged run (see the module docstring) stamps diverged_at. Adaptive
    mode diverges only by overflow, with eta near the float range: its step
    length is capped by eta times the loss's lipschitz_const.
    """
    loss = config.loss
    _check_sum_n(loss, ds)
    w = np.zeros(ds.d) if config.init is None else np.array(config.init, dtype=float)
    if w.shape != (ds.d,):
        raise ValueError(f"init has shape {w.shape}, dataset needs ({ds.d},)")
    if config.mode == "adaptive":
        quiet = contextlib.nullcontext()
        backward = lambda _, state: grad_phi(state, ds, loss)  # noqa: E731
    else:  # the raw-risk baseline may overflow on its way to diverging
        quiet = np.errstate(over="ignore", invalid="ignore")
        backward = lambda _, state: grad_risk(state, ds, loss)  # noqa: E731
    with quiet:
        return _descend(ds, config, w, lambda: (None, ds.margins(w)), backward,
                        average=ds.margins)


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
