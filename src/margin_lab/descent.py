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
baseline being compared against) and reports divergence instead of switching
representations.

Risks are carried as (value, log_value) pairs. Gradient coefficients are
assembled as integer_weight * exp(log terms), never exp(log terms + log
weight): keeping multiplicity weights outside the exponential preserves
exact factor-of-two ratios between repeated rows, which the hard-instance
span checks rely on down to the last bit.

Passes over the data: the risk, the phi coefficients and the smallest
margin are all functions of the margin vector z = y * (X w), so run_gd
computes z = ds.margins(w) once per iterate and reads all three off it;
the gradient c @ X is the second pass. An unrecorded step
makes 2 passes. A recorded step, or one that checks the target, makes a
third, ds.margins(avg_w), for both the averaged risk and its smallest margin.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, fields

import numpy as np

from .datasets import Dataset
from .losses import LossSpec, log1mexp


@dataclass(frozen=True)
class RiskValue:
    """Empirical risk as a (value, log_value) pair.

    log_value is authoritative; value is exp(log_value) clipped to the float
    range (0.0 after underflow, inf after overflow).
    """

    value: float
    log_value: float


def _risk_from_log(log_value: float) -> RiskValue:
    if log_value > 709.0:
        return RiskValue(math.inf, log_value)
    return RiskValue(math.exp(log_value), log_value)


def _weighted_lse(a: np.ndarray, weights: np.ndarray | None) -> float:
    """log(sum_i w_i e^{a_i}) with the usual max shift; weights stay outside
    the exponential."""
    m = float(np.max(a))
    if not math.isfinite(m):
        return m
    e = np.exp(a - m)
    if weights is not None:
        e = weights * e
    return m + math.log(float(np.sum(e)))


def _risk_at(z: np.ndarray, ds: Dataset, loss: LossSpec) -> RiskValue:
    """Weighted mean loss at the margins z = ds.margins(w)."""
    return _risk_from_log(_weighted_lse(loss.log_value(z), ds.weights) - math.log(ds.n))


def risk(w: np.ndarray, ds: Dataset, loss: LossSpec) -> RiskValue:
    """Weighted mean loss over the dataset at parameter w."""
    return _risk_at(ds.margins(w), ds, loss)


def grad_risk(w: np.ndarray, ds: Dataset, loss: LossSpec) -> np.ndarray:
    """Raw-domain gradient (1/n) sum_i w_i l'(z_i) y_i x_i.

    May overflow for losses with exploding derivatives at very negative
    margins; that is intentional in constant-stepsize mode.
    """
    z = ds.margins(w)
    coef = loss.deriv(z) * ds.labels
    if ds.weights is not None:
        coef = ds.weights * coef
    return (coef @ ds.features) / ds.n


class _KnownMargins(Dataset):
    """ds with the margins z of one iterate w already computed.

    margins(w) returns z for that very array and makes the pass over the
    data for any other. run_gd hands this to grad_phi and grad_risk, which
    keep their (w, ds, loss) form, so that the gradient reuses the margins
    the step has already read its risk from.
    """

    def __init__(self, ds: Dataset):
        super().__init__(**{f.name: getattr(ds, f.name) for f in fields(ds)})
        self.w: np.ndarray | None = None
        self.z: np.ndarray | None = None

    def margins(self, w: np.ndarray) -> np.ndarray:
        return self.z if w is self.w else super().margins(w)


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


def phi_coefficients(z: np.ndarray, ds: Dataset, loss: LossSpec) -> np.ndarray:
    """Per-row weights c_i >= 0 of grad phi = -sum_i c_i y_i x_i at margins z.

    c_i = m_i (-l^{-1})'(u) |l'(z_i)| / n under the mean (u = L) and the
    same without the 1/n under the sum (u = n L); for exp both are the
    softmax m_i e^{-z_i} / sum_j m_j e^{-z_j}. Assembled in log space, so
    always finite for the smooth losses, and summing to at most the loss's
    lipschitz_const. The multiplicities m_i multiply the exponentials rather
    than entering them as ln m_i: a power-of-two m_i scales its row's
    coefficient exactly.
    """
    if loss.kind == "exp":
        # softmax of -z with multiplicities; exact ratio preservation matters
        s = -z
        m = float(np.max(s))
        e = np.exp(s - m)
        if ds.weights is not None:
            e = ds.weights * e
        return e / float(np.sum(e))
    lse = _weighted_lse(loss.log_value(z), ds.weights)
    if loss.aggregation == "sum":
        _check_sum_n(loss, ds)
        u = _risk_from_log(lse)
        coef = np.exp(loss.log_neg_inv_deriv(u.value, u.log_value) + loss.log_abs_deriv(z))
    else:
        r = _risk_from_log(lse - math.log(ds.n))
        lnid = loss.log_neg_inv_deriv(r.value, r.log_value)
        coef = np.exp(lnid + loss.log_abs_deriv(z) - math.log(ds.n))
    if ds.weights is not None:
        coef = ds.weights * coef
    return coef


def grad_phi(w: np.ndarray, ds: Dataset, loss: LossSpec) -> np.ndarray:
    """Gradient of the transformed objective phi = -l^{-1}(u).

    The exp gradient is a softmax under either aggregation (ln of n L and
    of L differ by the constant ln n). See phi_coefficients.
    """
    z = ds.margins(w)
    return -((phi_coefficients(z, ds, loss) * ds.labels) @ ds.features)


def phi_from_risk(loss: LossSpec, r: RiskValue) -> float:
    """phi = -l^{-1}(u) from the (value, log_value) pair of the mean risk;
    u is the mean risk, or n times it under sum aggregation."""
    r = _transform_argument(loss, r)
    u, lu = r.value, r.log_value
    if loss.kind == "exp":
        return lu
    if loss.kind == "log":
        # ln(e^u - 1) = u + ln(1 - e^{-u}); for tiny u this is ln u + u/2 + ...
        if u > 1e-8:
            return u + float(log1mexp(u))
        return lu + u / 2.0
    if loss.kind == "semicircle":
        if u > 1e-150:
            return u - 1.0 / u
        with np.errstate(over="ignore"):
            return float(-np.exp(-lu))
    if loss.kind == "poly":
        if u > 1.0:
            return -loss.inverse(u)
        with np.errstate(over="ignore"):
            return float(1.0 - np.exp(-lu / loss.k))
    raise ValueError(f"phi is undefined for the {loss.kind} loss")


def phi(w: np.ndarray, ds: Dataset, loss: LossSpec) -> float:
    _check_sum_n(loss, ds)
    return phi_from_risk(loss, risk(w, ds, loss))


def log_adaptive_stepsize(loss: LossSpec, r: RiskValue, eta: float) -> float:
    """ln eta_t = ln eta + ln (-l^{-1})'(risk); always finite.

    Under sum aggregation eta_t = eta * n * (-l^{-1})'(n * risk), so that
    eta_t * grad L = eta * grad phi_sum. For exp the factor n cancels
    exactly and the mean formula is used.
    """
    if not eta > 0.0:
        raise ValueError(f"eta must be positive, got {eta}")
    if loss.aggregation == "sum" and loss.kind != "exp":
        u = _transform_argument(loss, r)
        return (math.log(eta) + math.log(loss.n)
                + loss.log_neg_inv_deriv(u.value, u.log_value))
    return math.log(eta) + loss.log_neg_inv_deriv(r.value, r.log_value)

def adaptive_stepsize(loss: LossSpec, r: RiskValue, eta: float) -> float:
    """eta_t = eta * (-l^{-1})'(risk), inf when it exceeds the float range.

    Callers that need the always-finite representation should use
    log_adaptive_stepsize; trajectories record both.
    """
    ls = log_adaptive_stepsize(loss, r, eta)
    if ls > 709.0:
        return math.inf
    return math.exp(ls)


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
        if self.mode == "adaptive" and self.loss.kind == "hinge":
            raise ValueError("adaptive mode needs an invertible loss; hinge has none")
        if not self.eta > 0.0:
            raise ValueError(f"eta must be positive, got {self.eta}")
        if not (isinstance(self.steps, int) and self.steps >= 0):
            raise ValueError(f"steps must be a nonnegative integer, got {self.steps!r}")
        if not (isinstance(self.record_every, int) and self.record_every >= 1):
            raise ValueError(f"record_every must be a positive integer, got {self.record_every!r}")
        if self.target_log_avg_risk is not None and math.isnan(self.target_log_avg_risk):
            raise ValueError("target_log_avg_risk must be a number or None, got nan")


@dataclass(frozen=True)
class TrajectoryPoint:
    t: int
    w: np.ndarray
    risk: RiskValue
    phi: float
    stepsize: float  # eta_t about to be applied at this iterate
    log_stepsize: float
    min_margin: float
    avg_w: np.ndarray  # running average of w_0 .. w_t
    avg_risk: RiskValue
    avg_min_margin: float
    descent_violated: bool  # risk went up relative to the previous iterate


@dataclass
class Trajectory:
    config: GDConfig
    points: list[TrajectoryPoint] = field(default_factory=list)
    diverged_at: int | None = None

    @property
    def final(self) -> TrajectoryPoint:
        return self.points[-1]

    def column(self, name: str) -> np.ndarray:
        if name == "log_risk":
            return np.array([p.risk.log_value for p in self.points])
        if name == "log_avg_risk":
            return np.array([p.avg_risk.log_value for p in self.points])
        return np.array([getattr(p, name) for p in self.points])


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

    Each iterate costs one pass over the data for its margins, from which
    the risk, min_margin and the gradient coefficients are all read, and one
    for the gradient. The averaged iterate costs one more, for both its risk
    and its min_margin, at recorded points and target checks only.

    In constant mode a non-finite iterate stops the run and stamps
    diverged_at with the offending step index; adaptive mode cannot diverge
    (its step length is capped by eta times the loss's lipschitz_const).
    """
    loss = config.loss
    _check_sum_n(loss, ds)
    w = np.zeros(ds.d) if config.init is None else np.array(config.init, dtype=float)
    if w.shape != (ds.d,):
        raise ValueError(f"init has shape {w.shape}, dataset needs ({ds.d},)")

    traj = Trajectory(config=config)
    wsum = w.copy()
    prev_log_risk = math.inf
    target = config.target_log_avg_risk
    known = _KnownMargins(ds)

    for t in range(config.steps + 1):
        z = ds.margins(w)
        r = _risk_at(z, ds, loss)
        # log_value of -inf means exactly zero risk (possible for hinge only),
        # which is success; +inf or nan means true blow-up
        if r.log_value == math.inf or math.isnan(r.log_value):
            traj.diverged_at = t
            break
        check = target is not None and t >= 1
        record = t % config.record_every == 0 or t == config.steps
        if check or record:
            avg_w = wsum / (t + 1)
            avg_z = ds.margins(avg_w)
            avg_r = _risk_at(avg_z, ds, loss)
        passed = check and avg_r.log_value <= target
        if passed or record:
            if loss.kind == "hinge":
                log_eta_t = math.log(config.eta)
            elif config.mode == "adaptive":
                log_eta_t = log_adaptive_stepsize(loss, r, config.eta)
            else:
                log_eta_t = math.log(config.eta)
            traj.points.append(
                TrajectoryPoint(
                    t=t,
                    w=w.copy(),
                    risk=r,
                    phi=phi_from_risk(loss, r) if loss.kind != "hinge" else math.nan,
                    stepsize=math.inf if log_eta_t > 709.0 else math.exp(log_eta_t),
                    log_stepsize=log_eta_t,
                    min_margin=float(z.min()),
                    avg_w=avg_w,
                    avg_risk=avg_r,
                    avg_min_margin=float(avg_z.min()),
                    descent_violated=bool(r.log_value > prev_log_risk),
                )
            )
        prev_log_risk = r.log_value
        if passed or t == config.steps:
            break

        known.w, known.z = w, z
        if config.mode == "adaptive":
            w = w - config.eta * grad_phi(w, known, loss)
        else:
            with np.errstate(over="ignore", invalid="ignore"):
                w = w - config.eta * grad_risk(w, known, loss)
        if not np.all(np.isfinite(w)):
            traj.diverged_at = t + 1
            break
        wsum += w

    return traj


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
    if not (0.0 < gamma < 1.0):
        raise ValueError(f"need 0 < gamma < 1, got {gamma}")
    if not eta > 0.0:
        raise ValueError(f"eta must be positive, got {eta}")
    if not (isinstance(t, (int, np.integer)) and t >= 1):
        raise ValueError(f"the bound needs an integer t >= 1, got {t!r}")
    g = gamma * gamma * (t + 1.0)
    return -((g * g - 1.0) / (4.0 * g)) * eta


def general_loss_risk_log_bound(loss: LossSpec, gamma: float, eta: float, t: int) -> float:
    """Log of general_loss_risk_bound, safe when the bound value underflows.

    The status of the claim per (loss, aggregation) is listed in
    general_loss_risk_bound.
    """
    if loss.kind not in ("exp", "log", "poly", "semicircle"):
        raise ValueError(f"no risk bound for the {loss.kind} loss")
    if not (0.0 < gamma < 1.0):
        raise ValueError(f"need 0 < gamma < 1, got {gamma}")
    if not eta > 0.0:
        raise ValueError(f"eta must be positive, got {eta}")
    if not (isinstance(t, (int, np.integer)) and t >= 1):
        raise ValueError(f"the bound needs an integer t >= 1, got {t!r}")
    g = gamma * gamma * (t + 1.0)
    c = loss.lipschitz_const()
    x = ((g * g - c) / (4.0 * g)) * eta
    return float(loss.log_value(x))


def general_loss_risk_bound(loss: LossSpec, gamma: float, eta: float, t: int) -> float:
    """Closed-form averaged-iterate bound for a smooth loss, in the loss's
    value domain:

        L(avg w_t) <= l(((g^2 - C) / (4 g)) * eta),   g = gamma^2 (t + 1),

    where C = loss.lipschitz_const() (which depends on loss.n; bind it to the
    dataset size first). For the exp loss, C = 1, this is exactly the
    exponential of averaged_risk_log_bound. The bound is weaker than l(0)
    while g < sqrt(C) and informative after.

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
    lb = general_loss_risk_log_bound(loss, gamma, eta, t)
    if lb > 709.0:
        return math.inf
    return math.exp(lb)
