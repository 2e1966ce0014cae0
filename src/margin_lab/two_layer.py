"""Two-layer networks with leaky activations trained by adaptive-stepsize GD.

The network is f(x) = (1/m) sum_j a_j sigma(<w_j, x>) with frozen signs
a_j in {-1, +1} and trainable first-layer rows w_j. Supported activations
satisfy two properties on the probe grid:

    slope window:      sigma'(z) in [alpha, 1]
    curvature defect:  |sigma(z) - sigma'(z) z| <= kappa

LeakyReLU has kappa = 0 exactly. The "leaky blend" family
sigma(z) = c z + ((1-c)/4) sigma*(z) for a base sigma* (gelu, softplus,
silu, relu) and 0.5 < c < 1 gets alpha and kappa measured on the grid (with
10% headroom on kappa for off-grid points).

Training steps the rows along the transformed-objective gradient with a
width-normalized stepsize:

    w_j <- w_j - eta * m * d phi / d w_j
         = w_j + eta * a_j * (1/n) sum_i c_i sigma'(s_ij) y_i x_i,

where c_i are the same positive per-row coefficients as in the linear case.
With m = 1 and slope ~1 this reduces exactly to linear adaptive GD. The
guarantee tracks the best iterate so far: for exp or log loss, zero
initialization, and gamma-margin data,

    min_{k <= t} ln L(net_k) <= kappa - ((A^2 - 1) / (4 gamma^2 (t+1))) * eta,

with A = alpha gamma^2 (t+1), valid for t >= 1.

run_gd_nn runs descent's one descent loop with the network as its model:
the forward pass is X W^T and the margins it gives, the backward pass
_grad_blocks, and the rows record the weights and the best iterate so far
in a descent.Trajectory.

A TwoLayerNet may hold a (k, m, d) stack of first layers sharing its signs
and activation: k nets. nn_margins, nn_risk, nn_grad_phi and
nn_risk_and_grad_phi take such a stack with the same body as one net,
matmul batching the forward and gradient gemms one net at a time, so
every net of a stack gets the bits of its call on its own (the descent
stacks, see descent's docstring). run_gd_nn trains one net.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
from scipy.special import erf, expit

from .datasets import Dataset
from .descent import (MarginState, RiskValue, Trajectory, _check_bound_args, _descend,
                      phi_coefficients)
from .losses import LossSpec

# The loss kinds a network trains with and the network checks accept.
NN_LOSS_KINDS = ("exp", "log")

_GRID = None


def _probe_grid() -> np.ndarray:
    global _GRID
    if _GRID is None:
        _GRID = np.linspace(-1000.0, 1000.0, 200001)
    return _GRID


def _gelu(z):
    cdf = 0.5 * (1.0 + erf(z / math.sqrt(2.0)))
    pdf = np.exp(-0.5 * z * z) / math.sqrt(2.0 * math.pi)
    return z * cdf, cdf + z * pdf


def _silu(z):
    s = expit(z)
    return z * s, s * (1.0 + z * (1.0 - s))


# Each blend base: its CLI label and its (value, derivative) pair.
_BASES = {
    "gelu": ("leaky-gelu", _gelu),
    "softplus": ("leaky-softplus", lambda z: (np.logaddexp(0.0, z), expit(z))),
    "silu": ("leaky-silu", _silu),
    "relu": ("leaky-relu-variant", lambda z: (np.maximum(z, 0.0), np.where(z >= 0, 1.0, 0.0))),
}


@dataclass(frozen=True)
class Activation:
    name: str
    alpha: float  # infimum of the slope on the probe grid
    kappa: float  # bound on |sigma(z) - sigma'(z) z|
    _tag: str = field(repr=False, default="leakyrelu")
    _c: float = field(repr=False, default=math.nan)

    def value(self, z):
        z = np.asarray(z, dtype=float)
        if self._tag == "leakyrelu":
            out = np.where(z >= 0, z, self.alpha * z)
        else:
            base_v, _ = _BASES[self._tag][1](z)
            out = self._c * z + ((1.0 - self._c) / 4.0) * base_v
        return float(out) if out.ndim == 0 else out

    def deriv(self, z):
        z = np.asarray(z, dtype=float)
        if self._tag == "leakyrelu":
            # the kink derivative is fixed from the right: sigma'(0) = 1
            out = np.where(z >= 0, 1.0, self.alpha)
        else:
            _, base_d = _BASES[self._tag][1](z)
            out = self._c + ((1.0 - self._c) / 4.0) * base_d
        return float(out) if out.ndim == 0 else out


def leaky_relu(alpha: float) -> Activation:
    if not (0.0 < alpha <= 1.0):
        raise ValueError(f"leakyrelu slope must be in (0, 1], got {alpha}")
    return Activation(name=f"leakyrelu:{alpha:g}", alpha=float(alpha), kappa=0.0,
                      _tag="leakyrelu", _c=math.nan)


def leaky_blend(base: str, c: float) -> Activation:
    """Blend c*z + ((1-c)/4)*base(z); alpha and kappa measured on the grid."""
    if not (0.5 < c < 1.0):
        raise ValueError(f"blend coefficient must be in (0.5, 1), got {c}")
    if base not in _BASES:
        raise ValueError(f"unknown blend base {base!r}")
    label, pair = _BASES[base]
    z = _probe_grid()
    base_v, base_d = pair(z)
    slope = c + ((1.0 - c) / 4.0) * base_d
    defect = np.abs((c * z + ((1.0 - c) / 4.0) * base_v) - slope * z)
    alpha = float(slope.min())
    kappa = 1.1 * float(defect.max())  # headroom for off-grid points
    return Activation(name=f"{label}:{c:g}", alpha=alpha, kappa=kappa, _tag=base, _c=float(c))


def parse_activation(name: str) -> Activation:
    name = name.strip()
    if ":" not in name:
        raise ValueError(f"activation name needs a parameter, got {name!r}")
    head, _, raw = name.rpartition(":")
    try:
        param = float(raw)
    except ValueError:
        raise ValueError(f"bad activation parameter {raw!r} in {name!r}") from None
    if head == "leakyrelu":
        return leaky_relu(param)
    bases = {label: base for base, (label, _) in _BASES.items()}
    if head in bases:
        return leaky_blend(bases[head], param)
    raise ValueError(f"unknown activation {name!r}")


@dataclass
class TwoLayerNet:
    weights: np.ndarray  # (m, d) first-layer rows, or a (k, m, d) stack of k nets
    signs: np.ndarray  # (m,) fixed second layer, entries +-1
    activation: Activation

    def __post_init__(self):
        if self.weights.ndim not in (2, 3):
            raise ValueError("weights must be an (m, d) matrix or a (k, m, d) stack")
        if self.signs.shape != (self.weights.shape[-2],):
            raise ValueError("signs must have one entry per hidden unit")
        if not np.all(np.isin(self.signs, (-1.0, 1.0))):
            raise ValueError("signs must be exactly +-1")

    @property
    def m(self) -> int:
        return self.weights.shape[-2]

    @property
    def d(self) -> int:
        return self.weights.shape[-1]


def make_net(d: int, m: int, activation: Activation) -> TwoLayerNet:
    """Zero-initialized net with alternating signs +1, -1, ..."""
    return TwoLayerNet(np.zeros((m, d)), np.where(np.arange(m) % 2 == 0, 1.0, -1.0), activation)


def _forward_pass(net: TwoLayerNet, ds: Dataset, head: np.ndarray):
    """Hidden pre-activations s = X W^T, shape (R, m), and the margins
    z = y * (sigma(s) @ head), head = net.signs / net.m: the one pass over the
    data that the risk, the smallest margin and the gradient share. A stack
    of k nets gives (k, R, m) and (k, R)."""
    s = ds.features @ net.weights.swapaxes(-1, -2)
    return s, ds.labels * (net.activation.value(s) @ head)


def nn_margins(net: TwoLayerNet, ds: Dataset) -> np.ndarray:
    return _forward_pass(net, ds, net.signs / net.m)[1]


def _check_nn_loss(loss: LossSpec):
    if loss.kind not in NN_LOSS_KINDS:
        raise ValueError(f"network training supports exp or log loss, got {loss.kind}")
    if loss.aggregation != "mean":
        raise ValueError(f"network training supports mean aggregation only, got {loss.name}")


def nn_risk(net: TwoLayerNet, ds: Dataset, loss: LossSpec) -> RiskValue | list:
    """Weighted mean loss of the net, a RiskValue; a list of one per net
    for a stack."""
    _check_nn_loss(loss)
    return MarginState(nn_margins(net, ds), ds, loss, ds.n).risk


def _grad_blocks(net: TwoLayerNet, ds: Dataset, s, coef, head) -> np.ndarray:
    """d phi / d w_j from pre-activations s, phi coefficients coef, head = signs / m."""
    slopes = net.activation.deriv(s)  # (R, m), or (k, R, m)
    signed = coef * ds.labels  # (R,), or (k, R)
    return -head[:, None] * ((slopes * signed[..., None]).swapaxes(-1, -2) @ ds.features)


def nn_risk_and_grad_phi(net: TwoLayerNet, ds: Dataset, loss: LossSpec) -> tuple:
    """(nn_risk, nn_grad_phi) of the net from one forward pass."""
    _check_nn_loss(loss)
    head = net.signs / net.m
    s, z = _forward_pass(net, ds, head)
    state = MarginState(z, ds, loss, ds.n)
    return state.risk, _grad_blocks(net, ds, s, phi_coefficients(state, ds, loss), head)


def nn_grad_phi(net: TwoLayerNet, ds: Dataset, loss: LossSpec) -> np.ndarray:
    """Blocks d phi / d w_j, shape (m, d), or (k, m, d) for a stack; each
    satisfies |m * block| <= 1."""
    return nn_risk_and_grad_phi(net, ds, loss)[1]


def run_gd_nn(ds: Dataset, net: TwoLayerNet, config) -> Trajectory:
    """Adaptive-stepsize GD on the first layer of a two-layer net.

    config is a descent.GDConfig with mode="adaptive" and exp or log loss;
    the run starts at net.weights and makes every step, so a config.init or
    target_log_avg_risk that is set raises ValueError. The update applies
    stepsize eta * m to the gradient blocks (which carry a 1/m factor), so a
    width-1 net reproduces the linear algorithm exactly. The rows carry the
    weights and the running best (minimum) log-risk, which the guarantee
    controls. The loop is descent's: each iterate makes one forward pass
    X W^T, from which its risk, smallest margin and gradient are all read,
    and _grad_blocks makes one gradient pass.
    """
    _check_nn_loss(config.loss)
    if net.weights.ndim != 2:
        raise ValueError("run_gd_nn trains one net, not a stack of weights")
    if config.mode != "adaptive":
        raise ValueError("network training is defined for adaptive mode only")
    for field_name in ("init", "target_log_avg_risk"):
        if getattr(config, field_name) is not None:
            raise ValueError(f"network training does not use GDConfig.{field_name}; leave it None")
    if net.d != ds.d:
        raise ValueError(f"net dimension {net.d} does not match dataset {ds.d}")
    loss = config.loss
    work = TwoLayerNet(net.weights.copy(), net.signs, net.activation)
    head = work.signs / work.m
    return _descend(
        ds, config, work.weights, lambda: _forward_pass(work, ds, head),
        lambda s, state: _grad_blocks(work, ds, s, phi_coefficients(state, ds, loss), head),
        name="weights", scale=work.m)


def network_min_risk_log_bound(
    alpha: float, kappa: float, gamma: float, eta: float, t: int
) -> float:
    """Guarantee on the best iterate of run_gd_nn from zero initialization:

        min_{k <= t} ln L(net_k) <= kappa - ((A^2 - 1) / (4 gamma^2 (t+1))) eta

    with A = alpha gamma^2 (t+1), for exp or log loss on gamma-margin data.
    After the burn-in t + 1 >= 2 / (alpha gamma^2) the right side is at most
    kappa - alpha^2 gamma^2 eta / 4.
    """
    if not (0.0 < alpha <= 1.0):
        raise ValueError(f"need slope floor alpha in (0, 1], got {alpha}")
    if kappa < 0.0:
        raise ValueError(f"need kappa >= 0, got {kappa}")
    _check_bound_args(gamma, eta, t)
    a = alpha * gamma * gamma * (t + 1.0)
    return kappa - ((a * a - 1.0) / (4.0 * gamma * gamma * (t + 1.0))) * eta
