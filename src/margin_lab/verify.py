"""Numerical checks for every bound and inequality the library relies on.

Each check runs a concrete experiment and compares observed quantities
against the claimed bound at every probed step, producing a BoundReport.
Checks never raise on a violated bound (that is a *fail* verdict); they only
raise when called outside their stated preconditions.

Comparison conventions:

  * rows are (step, observed, bound) triples; a report has a single
    direction, "<=" (observed must stay below bound) or ">=";
  * report.tolerance is the uniform additive slack applied to every row;
    rows with a row-specific threshold fold it into the bound column and
    the report carries tolerance 0;
  * quantities that are naturally lower bounds inside a "<=" report are
    stored negated, with a note in the context.

Default tolerances follow the library-wide conventions: 1e-6 for log-domain
bound comparisons, 1e-14 for algebraic zero patterns, 1e-12 for inequality
slacks, 1e-10 for convexity midpoints, 1e-5 relative for finite differences.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass, field, replace
from typing import Optional, Sequence

import numpy as np

from .datasets import (
    Dataset,
    gen_batch_hard,
    gen_chain_hard,
    gen_random_separable,
    gen_two_point,
    mean_signed_feature,
)
from .descent import (
    GDConfig,
    averaged_risk_log_bound,
    general_loss_risk_log_bound,
    grad_phi,
    phi_from_risk,
    risk,
    run_gd,
)
from .losses import EXP, LOG, LossSpec
from .two_layer import (
    NN_LOSS_KINDS,
    Activation,
    TwoLayerNet,
    leaky_blend,
    make_net,
    nn_grad_phi,
    nn_risk,
)

LOG_TOL = 1e-6        # log-domain bound comparisons
ZERO_TOL = 1e-14      # algebraic zero patterns
SLACK_TOL = 1e-12     # inequality slacks
MIDPOINT_TOL = 1e-10  # convexity midpoint slack
FD_TOL = 1e-5         # relative error of finite-difference gradient checks


@dataclass(frozen=True)
class BoundReport:
    """Outcome of one check: per-step (observed, bound) rows and a verdict.

    verdict is "pass" iff every row satisfies
    ``observed <= bound + tolerance`` (or ``>= bound - tolerance`` when
    direction is ">=").  worst_slack is the smallest margin by which rows
    pass; negative means a violation.
    """

    claim: str
    steps: list
    verdict: str
    worst_slack: float
    context: dict = field(default_factory=dict)
    tolerance: float = 0.0
    direction: str = "<="

    def to_dict(self) -> dict:
        return {
            "claim": self.claim,
            "direction": self.direction,
            "tolerance": self.tolerance,
            "verdict": self.verdict,
            "worst_slack": self.worst_slack,
            "steps": [[_py(s), _py(o), _py(b)] for s, o, b in self.steps],
            "context": {k: _py(v) for k, v in self.context.items()},
        }


def _py(v):
    """Coerce numpy scalars/containers to plain Python for JSON output."""
    if isinstance(v, (np.floating, np.integer)):
        return v.item()
    if isinstance(v, np.ndarray):
        return [_py(x) for x in v.tolist()]
    if isinstance(v, dict):
        return {k: _py(x) for k, x in v.items()}
    if isinstance(v, (list, tuple)):
        return [_py(x) for x in v]
    if isinstance(v, float) and math.isnan(v):
        return "nan"
    return v


def make_report(
    claim: str,
    rows: Sequence[tuple],
    tolerance: float,
    context: dict,
    direction: str = "<=",
) -> BoundReport:
    """Compute slacks and verdict for the given rows."""
    if direction not in ("<=", ">="):
        raise ValueError(f"direction must be '<=' or '>=', got {direction!r}")
    worst = math.inf
    for _, observed, bound in rows:
        if direction == "<=":
            s = bound - observed
        else:
            s = observed - bound
        if math.isnan(s):
            s = -math.inf
        worst = min(worst, s)
    verdict = "pass" if worst >= -tolerance else "fail"
    return BoundReport(
        claim=claim,
        steps=list(rows),
        verdict=verdict,
        worst_slack=worst,
        context=context,
        tolerance=tolerance,
        direction=direction,
    )


def dataset_fingerprint(ds: Dataset) -> dict:
    """Small reproducibility stamp: shape, margin, and a content hash."""
    h = hashlib.sha256()
    h.update(ds.features.tobytes())
    h.update(ds.labels.tobytes())
    h.update(ds.w_star.tobytes())
    if ds.weights is not None:
        h.update(ds.weights.tobytes())
    info = {
        "n": ds.n,
        "rows": ds.n_rows,
        "d": ds.d,
        "gamma": ds.gamma,
        "sha256": h.hexdigest()[:12],
    }
    gen = ds.metadata.get("generator")
    if gen is not None:
        info["generator"] = gen
    return info


# ---------------------------------------------------------------------------
# Averaged-iterate risk bound
# ---------------------------------------------------------------------------

def check_averaged_risk_bound(
    ds: Dataset,
    loss: LossSpec,
    eta: float,
    steps: int,
    init: Optional[np.ndarray] = None,
    record_every: int = 1,
) -> BoundReport:
    """Adaptive GD from zero: log avg-risk <= closed-form bound at every t >= 1.

    Only exp/log losses qualify, under either aggregation, and the start
    must be the zero vector (the bound's derivation anchors there); anything
    else is refused with a ValueError. The bound is derived for exp, refuted
    for log under the mean, and only measured for log under the sum; see
    descent.averaged_risk_log_bound.
    """
    if loss.kind not in ("exp", "log"):
        raise ValueError(
            f"refused: averaged-risk bound is stated for exp/log losses, got {loss.name}"
        )
    if init is not None and np.any(np.asarray(init) != 0.0):
        raise ValueError("refused: averaged-risk bound requires starting from zero")
    traj = run_gd(
        ds,
        GDConfig(loss=loss, eta=eta, steps=steps, record_every=record_every),
    )
    rows = []
    for p in traj.points:
        if p.t >= 1:
            bound = averaged_risk_log_bound(ds.gamma, eta, p.t)
            rows.append((p.t, p.avg_risk.log_value, bound))
    return make_report(
        claim="averaged-iterate log risk stays under the closed-form decay bound",
        rows=rows,
        tolerance=LOG_TOL,
        context={
            "dataset": dataset_fingerprint(ds),
            "loss": loss.name,
            "eta": eta,
            "steps": steps,
            "diverged_at": traj.diverged_at,
        },
    )


# ---------------------------------------------------------------------------
# Stable-regime stepsize cap on the two-point instance
# ---------------------------------------------------------------------------

def check_stepsize_cap(
    gamma: float,
    eta_grid: Sequence[float],
    steps: int,
    loss: LossSpec = EXP,
) -> BoundReport:
    """Two-point instance: monotone risk forces a bounded stepsize.

    For each eta in the grid, runs adaptive GD and records:
      * if the risk never increases, the row (eta, eta, cap) with
        cap = l(0)/(q*r), r=0.1, q=0.5 (monotone descent implies the cap);
      * unconditional floor rows: log-risk at t can be no smaller than
        log l(eta*t) - log n (norm growth is at most eta per step), stored
        negated to fit the "<=" direction;
      * unconditional norm rows ||w_t|| <= eta*t;
      * the exact first step w_1 = eta * mean signed feature.
    A final run at 10x the cap must show a risk increase somewhere.
    """
    if loss.kind not in ("exp", "log"):
        raise ValueError(f"refused: stable-regime check expects exp/log, got {loss.name}")
    ds = gen_two_point(gamma)
    r_frac, q_frac = 0.1, 0.5
    cap = loss.value(0.0) / (q_frac * r_frac)
    ln_n = math.log(ds.n)
    xbar = mean_signed_feature(ds)

    rows = []
    monotone_etas = []
    for eta in eta_grid:
        traj = run_gd(ds, GDConfig(loss=loss, eta=eta, steps=steps))
        logs = traj.column("log_risk")
        if np.all(np.diff(logs) <= 0.0):
            monotone_etas.append(eta)
            rows.append((f"cap|eta={eta:g}", eta, cap))
        for p in traj.points:
            if p.t >= 1:
                floor = loss.log_value(eta * p.t) - ln_n
                rows.append(
                    (f"floor|eta={eta:g}|t={p.t}", -p.risk.log_value, -floor + SLACK_TOL)
                )
                norm_cap = eta * p.t * (1.0 + 1e-12) + 1e-15
                rows.append(
                    (f"norm|eta={eta:g}|t={p.t}", float(np.linalg.norm(p.w)), norm_cap)
                )
        w1 = traj.points[1].w if len(traj.points) > 1 else traj.final.w
        dev = float(np.max(np.abs(w1 - eta * xbar)))
        rows.append((f"first-step|eta={eta:g}", dev, 1e-12 * max(1.0, eta)))

    eta_big = 10.0 * cap
    traj = run_gd(ds, GDConfig(loss=loss, eta=eta_big, steps=min(steps, 50)))
    logs = traj.column("log_risk")
    max_inc = float(np.max(np.diff(logs))) if logs.size > 1 else -math.inf
    if traj.diverged_at is not None:
        # blow-up counts as the risk increasing
        max_inc = math.inf
    rows.append((f"must-increase|eta={eta_big:g}", -max_inc, -1e-6))

    return make_report(
        claim="monotone risk on the two-point instance caps the stepsize",
        rows=rows,
        tolerance=0.0,
        context={
            "dataset": dataset_fingerprint(ds),
            "loss": loss.name,
            "eta_grid": list(eta_grid),
            "steps": steps,
            "cap": cap,
            "monotone_etas": monotone_etas,
            "note": "floor and must-increase rows store negated values",
        },
    )


# ---------------------------------------------------------------------------
# Hard-instance span structure and separation thresholds
# ---------------------------------------------------------------------------

def _allowed_coords(t: int, k: int, d: int) -> np.ndarray:
    """Boolean mask of coordinates reachable after t steps from span{e_1}.

    0-based: coordinate 0 plus the low frontier 1..t and the high frontier
    k+2-t..k+1.
    """
    mask = np.zeros(d, dtype=bool)
    mask[0] = True
    mask[1 : min(t, d - 1) + 1] = True
    lo = max(k + 2 - t, 0)
    mask[lo : k + 2] = True
    return mask


def _check_hard_instance(ds: Dataset, config: GDConfig, claim: str) -> BoundReport:
    k = int(ds.metadata["k"])
    span_max = max(1, int(ds.metadata["span_horizon"]) - 2)
    threshold = float(ds.metadata["no_separation_before"])
    margin_max = max(0, math.ceil(threshold - 1e-12) - 1)
    steps = max(span_max, margin_max, 1)
    w0 = np.zeros(ds.d)
    w0[0] = 1.0
    traj = run_gd(ds, replace(config, init=w0, steps=steps, record_every=1))

    rows = []
    for p in traj.points:
        if p.t <= span_max:
            mask = _allowed_coords(p.t, k, ds.d)
            out = float(np.max(np.abs(p.w[~mask]))) if np.any(~mask) else 0.0
            rows.append((f"span|t={p.t}", out, ZERO_TOL))
        if p.t <= margin_max:
            rows.append((f"margin|t={p.t}", p.min_margin, 0.0))
    return make_report(
        claim=claim,
        rows=rows,
        tolerance=0.0,
        context={
            "dataset": dataset_fingerprint(ds),
            "loss": config.loss.name,
            "mode": config.mode,
            "eta": config.eta,
            "k": k,
            "span_checked_to": span_max,
            "separation_threshold": threshold,
            "margin_checked_to": margin_max,
        },
    )


def check_batch_hard_instance(
    gamma: float,
    n: int,
    config: Optional[GDConfig] = None,
    weighted: bool = True,
) -> BoundReport:
    """Doubling-block instance: GD stays in the proven span and cannot
    separate before the step threshold."""
    if config is None:
        config = GDConfig(loss=EXP, eta=1.0, steps=1)
    ds = gen_batch_hard(gamma, n, weighted=weighted)
    return _check_hard_instance(
        ds, config, "doubling-block instance pins GD spans and delays separation"
    )


def check_chain_hard_instance(
    gamma: float,
    n: int,
    config: Optional[GDConfig] = None,
) -> BoundReport:
    """Chain instance: same span confinement and separation delay."""
    if config is None:
        config = GDConfig(loss=EXP, eta=1.0, steps=1)
    ds = gen_chain_hard(gamma, n)
    return _check_hard_instance(
        ds, config, "chain instance pins GD spans and delays separation"
    )


# ---------------------------------------------------------------------------
# Risk below l(0)/n forces separation
# ---------------------------------------------------------------------------

def check_risk_implies_separation(
    ds: Dataset, loss: LossSpec, w: np.ndarray
) -> BoundReport:
    """Every vector with risk below l(0)/n must strictly separate.

    w may be a single vector or a (T, d) stack of iterates; rows are emitted
    only for vectors below the risk threshold (stored as negated margins so
    "observed <= 0" means separation), others are counted in the context.
    """
    w = np.atleast_2d(np.asarray(w, dtype=float))
    if w.shape[1] != ds.d:
        raise ValueError(f"iterates must have {ds.d} columns, got {w.shape[1]}")
    log_threshold = loss.log_value(0.0) - math.log(ds.n)
    rows = []
    above = 0
    for i, wi in enumerate(w):
        r = risk(wi, ds, loss)
        if r.log_value < log_threshold:
            rows.append((i, -float(ds.min_margin(wi)), 0.0))
        else:
            above += 1
    return make_report(
        claim="risk below l(0)/n certifies a strict separator",
        rows=rows,
        tolerance=0.0,
        context={
            "dataset": dataset_fingerprint(ds),
            "loss": loss.name,
            "log_threshold": log_threshold,
            "vectors_checked": int(w.shape[0]),
            "vectors_above_threshold": above,
            "note": "rows store negated min-margins; strict positivity required",
        },
    )


# ---------------------------------------------------------------------------
# Pointwise inequalities for the transformed objective
# ---------------------------------------------------------------------------

def _probe_points(rng: np.random.Generator, ds: Dataset, count: int) -> np.ndarray:
    """Random probe vectors at varied scales, plus a few aligned with w*."""
    scales = 10.0 ** rng.uniform(-2.0, 2.0, size=count)
    dirs = rng.standard_normal((count, ds.d))
    dirs /= np.maximum(np.linalg.norm(dirs, axis=1, keepdims=True), 1e-300)
    pts = dirs * scales[:, None]
    aligned = np.outer(np.array([1.0, -1.0, 10.0, -10.0]), ds.w_star)
    return np.vstack([pts, aligned, np.zeros((1, ds.d))])


def check_gradient_inequalities(
    ds: Dataset,
    loss: LossSpec,
    probes: int = 200,
    seed: int = 0,
    etas: Sequence[float] = (0.5, 4.0, 400.0),
) -> BoundReport:
    """Pointwise inequalities behind the descent analysis, on random probes.

    Rows (each aggregated over all probes, worst case kept):
      * gradient norm of the transformed objective <= C + 1e-9;
      * step alignment 2<grad, u2> + eta*||grad||^2 <= 0 for each eta, with
        u2 = (C*eta/(2*gamma)) w*;
      * midpoint convexity of the transformed objective;
      * the curvature ratio r = l'^2/(l*l'') never increases along a z-grid;
      * finite-difference agreement of the gradient (relative error).

    The transform follows the loss's aggregation, with C from
    LossSpec.lipschitz_const. What each row rests on:
      * grad-norm: derived for exp, the log mean and every sum form
        (lipschitz_const); for the mean forms of poly and semicircle C is
        stated there and measured here.
      * step-align: follows from the grad-norm argument. With s = sum of
        the gradient coefficients <= C, <grad, w*> <= -gamma s and
        |grad| <= s give 2<grad, u2> + eta |grad|^2 <= eta (s^2 - C s) <= 0.
      * midpoint-convexity, mean: derived for exp (phi is log-sum-exp minus
        ln n); refuted for log, poly:2 and semicircle by the exact witness
        pairs (check_transform_convexity_exact).
      * midpoint-convexity, sum: derived from the curvature-ratio row. With
        psi(x) = l(-x) and x_i = -z_i, phi_sum = psi^{-1}(sum_i m_i psi(x_i))
        (m_i the multiplicities) has a positive semidefinite Hessian iff
        sum_i m_i psi'(x_i)^2 / psi''(x_i) <= psi'(F)^2 / psi''(F) at
        F = phi_sum. Every x_i <= F, so if r is nonincreasing in z the left
        side is at most r(-F) sum_i m_i psi(x_i) = r(-F) psi(F), the right
        side. Under the mean, x_i <= F fails, and only a constant r (exp)
        saves the argument.
      * curvature-ratio: derived for exp (r = 1), log (r = a / ln(1 + a),
        a = e^{-z}, increasing in a), semicircle (r = h (h - z) / 4 with
        h = sqrt(z^2 + 4), dr/dz = -(h - z)^2 / (4 h)) and poly's right
        branch (r = k / (k + 1)); poly's left branch is only measured, on
        this row's z-grid.
    """
    if not loss.ops.smooth:
        raise ValueError(f"refused: need a smooth loss, got {loss.name}")
    loss = loss.with_n(ds.n)
    c_lip = loss.lipschitz_const()
    rng = np.random.default_rng(seed)
    pts = _probe_points(rng, ds, probes)

    grads = np.array([grad_phi(w, ds, loss) for w in pts])
    norms = np.linalg.norm(grads, axis=1)
    rows = [("grad-norm", float(norms.max()), c_lip + 1e-9)]

    for eta in etas:
        u2 = (c_lip * eta / (2.0 * ds.gamma)) * ds.w_star
        align = 2.0 * grads @ u2 + eta * norms**2
        rows.append((f"step-align|eta={eta:g}", float(align.max()), SLACK_TOL))

    phis = np.array([phi_from_risk(loss, risk(w, ds, loss)) for w in pts])
    half = len(pts) // 2
    mids = []
    for i in range(half):
        wa, wb = pts[i], pts[i + half]
        mid = phi_from_risk(loss, risk(0.5 * (wa + wb), ds, loss))
        mids.append(mid - 0.5 * (phis[i] + phis[i + half]))
    rows.append(("midpoint-convexity", float(np.max(mids)), MIDPOINT_TOL))

    zgrid = np.linspace(-40.0, 40.0, 4001)
    ratio = loss.deriv(zgrid) ** 2 / (loss.value(zgrid) * loss.second_deriv(zgrid))
    rows.append(("curvature-ratio-increase", float(np.max(np.diff(ratio))), SLACK_TOL))

    fd_worst = 0.0
    for w in pts[rng.choice(len(pts), size=min(5, len(pts)), replace=False)]:
        g = grad_phi(w, ds, loss)
        fd = np.empty_like(g)
        h = 1e-6 * max(1.0, float(np.linalg.norm(w)))
        for j in range(ds.d):
            e = np.zeros(ds.d)
            e[j] = h
            fp = phi_from_risk(loss, risk(w + e, ds, loss))
            fm = phi_from_risk(loss, risk(w - e, ds, loss))
            fd[j] = (fp - fm) / (2.0 * h)
        denom = max(float(np.linalg.norm(g)), 1e-12)
        fd_worst = max(fd_worst, float(np.linalg.norm(fd - g)) / denom)
    rows.append(("fd-gradient-rel-err", fd_worst, FD_TOL))

    return make_report(
        claim="transformed-objective inequalities hold at random probes",
        rows=rows,
        tolerance=0.0,
        context={
            "dataset": dataset_fingerprint(ds),
            "loss": loss.name,
            "lipschitz_const": c_lip,
            "probes": int(len(pts)),
            "seed": seed,
            "etas": list(etas),
        },
    )


def check_network_inequalities(
    ds: Dataset,
    activation: Activation,
    m: int = 4,
    probes: int = 100,
    seed: int = 0,
    etas: Sequence[float] = (8.0, 80.0),
    loss: LossSpec = EXP,
) -> BoundReport:
    """Network analogs of the alignment inequalities, on random probe nets.

    Rows:
      * per-block gradient norm ||m * grad_j|| <= 1 + 1e-9;
      * 2<m*grad, U2> + eta*||m*grad||_F^2 <= 0 with U2 blocks
        (a_j*eta/(2*gamma)) w*;
      * <grad, U1 - W> <= kappa - (alpha*gamma/m) * sum_j ||u1_j|| - phi(W)
        for U1 blocks c_j*a_j*w*, c_j >= 0;
      * finite-difference agreement of the block gradient on a smooth
        activation (relative error).

    Mean aggregation only: these rows have no derivation for the sum form
    here. The log loss fails alignment-to-value, which leans on convexity
    of phi that the mean log transform lacks (exact witness: the log pair
    in check_transform_convexity_exact).
    """
    if loss.kind not in NN_LOSS_KINDS:
        raise ValueError(f"refused: network checks support exp/log, got {loss.name}")
    if loss.aggregation != "mean":
        raise ValueError(f"refused: network checks support mean aggregation, got {loss.name}")
    rng = np.random.default_rng(seed)
    net = make_net(ds.d, m, activation)
    alpha, kappa = activation.alpha, activation.kappa

    block_worst = -math.inf
    align_worst = {eta: -math.inf for eta in etas}
    value_worst = -math.inf
    for _ in range(probes):
        net.weights[:] = rng.standard_normal((m, ds.d)) * 10.0 ** rng.uniform(-1.5, 1.5)
        g = nn_grad_phi(net, ds, loss)
        norms = np.linalg.norm(m * g, axis=1)
        block_worst = max(block_worst, float(norms.max()))
        for eta in etas:
            u2 = (eta / (2.0 * ds.gamma)) * net.signs[:, None] * ds.w_star[None, :]
            i2 = 2.0 * float(np.sum((m * g) * u2)) + eta * float(np.sum((m * g) ** 2))
            align_worst[eta] = max(align_worst[eta], i2)
        coefs = rng.uniform(0.0, 10.0, size=m)
        u1 = coefs[:, None] * net.signs[:, None] * ds.w_star[None, :]
        lhs = float(np.sum(g * (u1 - net.weights)))
        phi_w = phi_from_risk(loss, nn_risk(net, ds, loss))
        rhs = kappa - (alpha * ds.gamma / m) * float(np.sum(np.linalg.norm(u1, axis=1))) - phi_w
        value_worst = max(value_worst, lhs - rhs)

    rows = [("block-grad-norm", block_worst, 1.0 + 1e-9)]
    for eta in etas:
        rows.append((f"step-align|eta={eta:g}", align_worst[eta], SLACK_TOL))
    rows.append(("alignment-to-value", value_worst, SLACK_TOL))

    smooth = leaky_blend("gelu", 0.8)
    probe = TwoLayerNet(rng.standard_normal((3, ds.d)) * 0.5,
                        np.array([1.0, -1.0, 1.0]), smooth)
    g = nn_grad_phi(probe, ds, loss)
    fd = np.empty_like(g)
    h = 1e-6
    for j in range(probe.m):
        for c in range(ds.d):
            wp = probe.weights.copy()
            wp[j, c] += h
            fp = phi_from_risk(loss, nn_risk(TwoLayerNet(wp, probe.signs, smooth), ds, loss))
            wp[j, c] -= 2.0 * h
            fm = phi_from_risk(loss, nn_risk(TwoLayerNet(wp, probe.signs, smooth), ds, loss))
            fd[j, c] = (fp - fm) / (2.0 * h)
    denom = max(float(np.linalg.norm(g)), 1e-12)
    rows.append(("fd-block-gradient-rel-err", float(np.linalg.norm(fd - g)) / denom, FD_TOL))

    return make_report(
        claim="network-block inequalities hold at random probe nets",
        rows=rows,
        tolerance=0.0,
        context={
            "dataset": dataset_fingerprint(ds),
            "loss": loss.name,
            "activation": activation.name,
            "alpha": alpha,
            "kappa": kappa,
            "m": m,
            "probes": probes,
            "seed": seed,
            "etas": list(etas),
        },
    )


# ---------------------------------------------------------------------------
# General-loss bound
# ---------------------------------------------------------------------------

def check_general_loss_bound(
    ds: Dataset,
    loss: LossSpec,
    eta: float,
    steps: int,
    record_every: int = 1,
) -> BoundReport:
    """Adaptive GD under a general smooth loss: log avg-risk under the
    general closed-form bound at every recorded t >= 1."""
    if not loss.ops.smooth:
        raise ValueError(f"refused: need a smooth loss, got {loss.name}")
    loss = loss.with_n(ds.n)
    traj = run_gd(
        ds, GDConfig(loss=loss, eta=eta, steps=steps, record_every=record_every)
    )
    rows = []
    for p in traj.points:
        if p.t >= 1:
            bound = general_loss_risk_log_bound(loss, ds.gamma, eta, p.t)
            rows.append((p.t, p.avg_risk.log_value, bound))
    return make_report(
        claim="general-loss averaged risk stays under its closed-form bound",
        rows=rows,
        tolerance=LOG_TOL,
        context={
            "dataset": dataset_fingerprint(ds),
            "loss": loss.name,
            "lipschitz_const": loss.lipschitz_const(),
            "eta": eta,
            "steps": steps,
            "diverged_at": traj.diverged_at,
        },
    )


# ---------------------------------------------------------------------------
# Exact-arithmetic witnesses (not in the default suite; needs mpmath)
# ---------------------------------------------------------------------------

class _ExactObjective:
    """phi(w) = -l^{-1}(u) and its gradient on a dataset, in mpmath.

    u is sum_i c_i l(z_i) with c_i = mult_i / n (mean) or mult_i (sum); the
    float data enter exactly, since every float is an mpf.
    """

    def __init__(self, mp, ds: Dataset, loss: LossSpec):
        self.mp = mp
        self.value, self.deriv, self.neg_inverse = loss.ops.mpmath(loss, mp)
        mult = np.ones(ds.n_rows) if ds.weights is None else ds.weights
        scale = mp.mpf(1) if loss.aggregation == "sum" else mp.mpf(1) / ds.n
        self.c = [mp.mpf(float(m)) * scale for m in mult]
        self.rows = [[mp.mpf(float(y)) * mp.mpf(float(x)) for x in row]
                     for y, row in zip(ds.labels, ds.features)]

    def margins(self, w):
        return [self.mp.fsum(a * b for a, b in zip(row, w)) for row in self.rows]

    def _u(self, z):
        return self.mp.fsum(c * self.value(zi) for c, zi in zip(self.c, z))

    def aggregate(self, w):
        return self._u(self.margins(w))

    def phi(self, w):
        return self.neg_inverse(self.aggregate(w))

    def grad_phi(self, w):
        z = self.margins(w)
        # grad phi = -(sum_i c_i l'(z_i) y_i x_i) / l'(l^{-1}(u))
        scale = -1 / self.deriv(-self.neg_inverse(self._u(z)))
        coef = [scale * c * self.deriv(zi) for c, zi in zip(self.c, z)]
        return [self.mp.fsum(a * row[j] for a, row in zip(coef, self.rows))
                for j in range(len(w))]


def witness_dataset() -> Dataset:
    """The dataset every committed midpoint witness lives on."""
    from .witnesses import WITNESS_DATASET as spec

    return gen_random_separable(spec["d"], spec["n"], spec["gamma"], seed=spec["seed"])


def check_transform_convexity_exact(loss: LossSpec, dps: int = 50) -> BoundReport:
    """Midpoint convexity of the transformed objective at the committed
    witness pairs (witnesses.MIDPOINT_WITNESSES), in dps-digit arithmetic.

    One row per pair: phi((a + b)/2) - (phi(a) + phi(b))/2 against 0, with
    the exact midpoint. Verdicts at 50 digits:
      * mean transform: exp passes (phi is log-sum-exp minus ln n); log,
        poly:2 and semicircle fail, each on the pair found for it, with the
        gap the float check reports to 12 digits;
      * sum transform: all four pass (see check_gradient_inequalities for
        why phi_sum is convex).
    mpmath is imported here, not at package import.
    """
    import mpmath

    from .witnesses import MIDPOINT_WITNESSES, WITNESS_DATASET

    ds = witness_dataset()
    fp = dataset_fingerprint(ds)
    if fp["sha256"] != WITNESS_DATASET["sha256"]:
        raise ValueError(f"witness dataset regenerated differently: {fp['sha256']}")
    loss = loss.with_n(ds.n)
    rows = []
    with mpmath.workdps(dps):
        obj = _ExactObjective(mpmath.mp, ds, loss)
        for wit in MIDPOINT_WITNESSES:
            a = [mpmath.mpf(x) for x in wit.a]
            b = [mpmath.mpf(x) for x in wit.b]
            mid = [(x + y) / 2 for x, y in zip(a, b)]
            gap = obj.phi(mid) - (obj.phi(a) + obj.phi(b)) / 2
            rows.append((f"{wit.loss}#{wit.pair}", float(gap), 0.0))
    return make_report(
        claim="transformed objective is midpoint convex at the exact witnesses",
        rows=rows,
        tolerance=0.0,
        context={"dataset": fp, "loss": loss.name, "dps": dps},
    )


def replay_averaged_log_risk_exact(
    ds: Dataset, loss: LossSpec, eta: float, steps: int, dps: int = 50
) -> list[float]:
    """Adaptive GD from zero, w_{t+1} = w_t - eta * grad phi(w_t), replayed
    in dps-digit arithmetic; returns ln L(avg of w_0..w_t) for t = 0..steps.

    Compared with run_gd's log_avg_risk column, it tells float error apart
    from what the method itself does. mpmath is imported here.
    """
    import mpmath

    loss = loss.with_n(ds.n)
    mean = loss.with_aggregation("mean")
    out = []
    with mpmath.workdps(dps):
        mp = mpmath.mp
        obj = _ExactObjective(mp, ds, loss)
        risk_of = _ExactObjective(mp, ds, mean).aggregate
        w = [mp.mpf(0)] * ds.d
        wsum = list(w)
        for t in range(steps + 1):
            out.append(float(mp.log(risk_of([x / (t + 1) for x in wsum]))))
            if t == steps:
                break
            g = obj.grad_phi(w)
            w = [x - eta * gx for x, gx in zip(w, g)]
            wsum = [s + x for s, x in zip(wsum, w)]
    return out


# ---------------------------------------------------------------------------
# Suite runner
# ---------------------------------------------------------------------------

def default_suite(seed: int = 0) -> list[BoundReport]:
    """The standard grid of checks; deterministic given the seed."""
    from .online import check_online_hard_instance, run_online_sgd
    from .two_layer import leaky_relu

    reports: list[BoundReport] = []
    ds = gen_random_separable(10, 100, 0.1, seed=seed)

    for loss in (EXP, LOG):
        for eta in (4.0, 400.0):
            reports.append(check_averaged_risk_bound(ds, loss, eta, steps=400))

    for loss in (EXP, LOG):
        reports.append(
            check_stepsize_cap(0.05, eta_grid=(0.01, 1.0, 5.0), steps=60, loss=loss)
        )

    for mode in ("adaptive", "constant"):
        cfg = GDConfig(loss=EXP, eta=1.0, steps=1, mode=mode)
        reports.append(check_batch_hard_instance(0.05, 2**20, config=cfg))
        reports.append(check_chain_hard_instance(0.001, 100, config=cfg))

    reports.append(check_online_hard_instance(0.4, 10))
    reports.append(
        check_online_hard_instance(
            0.4, 10, method=lambda d, o, w0: run_online_sgd(d, o, LOG, 2.0, w0)
        )
    )

    traj = run_gd(ds, GDConfig(loss=EXP, eta=4.0, steps=200))
    iterates = np.array([p.w for p in traj.points])
    reports.append(check_risk_implies_separation(ds, EXP, iterates))

    from .losses import SEMICIRCLE, poly

    for loss in (EXP, LOG, poly(2.0), SEMICIRCLE):
        reports.append(check_gradient_inequalities(ds, loss, probes=300, seed=seed))

    ds_nn = gen_random_separable(10, 100, 0.2, seed=seed)
    reports.append(check_network_inequalities(ds_nn, leaky_relu(0.5), seed=seed))
    reports.append(
        check_network_inequalities(ds_nn, leaky_blend("gelu", 0.9), seed=seed, loss=LOG)
    )

    for loss in (poly(2.0), SEMICIRCLE):
        reports.append(check_general_loss_bound(ds, loss, eta=4.0, steps=200))

    return reports


def _context_tag(report: BoundReport) -> str:
    """Compact disambiguator for table rows sharing a claim string."""
    parts = []
    for key in ("loss", "activation", "mode"):
        v = report.context.get(key)
        if v is not None:
            parts.append(str(v))
    eta = report.context.get("eta")
    if eta is not None:
        parts.append(f"eta={eta:g}")
    return " ".join(parts)


def render_table(reports: Sequence[BoundReport]) -> str:
    """Fixed-width summary, one line per report."""
    tags = [_context_tag(r) for r in reports]
    cwidth = max((len(r.claim) for r in reports), default=5)
    twidth = max((len(t) for t in tags), default=6)
    lines = [f"{'claim':<{cwidth}}  {'params':<{twidth}}  {'verdict':7}  {'rows':>5}  worst_slack"]
    for r, tag in zip(reports, tags):
        lines.append(
            f"{r.claim:<{cwidth}}  {tag:<{twidth}}  {r.verdict:7}  "
            f"{len(r.steps):>5}  {r.worst_slack:.3e}"
        )
    failed = sum(r.verdict != "pass" for r in reports)
    lines.append(f"{failed} of {len(reports)} checks failed" if failed
                 else f"all {len(reports)} checks passed")
    return "\n".join(lines)
