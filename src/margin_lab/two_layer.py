"""Two-layer networks with leaky activations trained by adaptive-stepsize GD.

The network is f(x) = (1/m) sum_j a_j sigma(<w_j, x>) with frozen signs
a_j in {-1, +1} and trainable first-layer rows w_j. Supported activations
satisfy two properties on the probe grid:

    slope window:      sigma'(z) in [alpha, 1]
    curvature defect:  |sigma(z) - sigma'(z) z| <= kappa

Each activation is one Activation record: name, alpha, kappa and one
function pair(z) -> (sigma(z), sigma'(z)). LeakyReLU has kappa = 0 exactly.
The "leaky blend" family sigma(z) = c z + ((1-c)/4) sigma*(z) for a base
sigma* (gelu, softplus, silu, relu) and 0.5 < c < 1 gets alpha and kappa
measured on the grid once per (base, c) in a process (10% headroom on kappa).
The gelu, silu and softplus bases call scipy.special (erf, expit), which
loads at the first such call (see _special); leakyrelu and the relu blend
never load it.

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
the forward pass is one pair call on X W^T per iterate, giving the margins
and the slopes the backward pass _grad_blocks reads. The output weights
signs / m and their negated column are computed once per run. Its rows,
the weights and the best iterate so far, go through descent's block as the
linear model's do, into a descent.Trajectory.

A TwoLayerNet may hold a (k, m, d) stack of first layers sharing its signs
and activation: k nets. nn_margins, nn_risk, nn_grad_phi and
nn_risk_and_grad_phi take such a stack with the same body as one net,
matmul batching the forward and gradient gemms one net at a time, so
every net of a stack gets the bits of its call on its own (the descent
stacks, see descent's docstring). All four share one forward helper,
_on_nets, that takes a long stack a block of datasets.block_rows(R m)
nets at a time by descent._stacked's rule, so nn_margins too holds no
(nets, R, m) array of more than BLOCK_ELEMENTS floats, unless one net's
is larger. run_gd_nn trains one net.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from . import _special
from .datasets import Dataset
from .descent import (MarginState, RiskValue, Trajectory, _check_bound_args, _descend,
                      _stacked, phi_coefficients)
from .losses import LossSpec

# The loss kinds a network trains with and the network checks accept.
NN_LOSS_KINDS = ("exp", "log")


def _probe_grid() -> np.ndarray:
    return np.linspace(-1000.0, 1000.0, 200001)


def _gelu(z):
    cdf = 0.5 * (1.0 + _special.erf(z / math.sqrt(2.0)))
    pdf = np.exp(-0.5 * z * z) / math.sqrt(2.0 * math.pi)
    return z * cdf, cdf + z * pdf


def _silu(z):
    s = _special.expit(z)
    return z * s, s * (1.0 + z * (1.0 - s))


# Each blend base: its CLI label and its (value, derivative) pair.
_BASES = {
    "gelu": ("leaky-gelu", _gelu),
    "softplus": ("leaky-softplus", lambda z: (np.logaddexp(0.0, z), _special.expit(z))),
    "silu": ("leaky-silu", _silu),
    "relu": ("leaky-relu-variant", lambda z: (np.maximum(z, 0.0), np.where(z >= 0, 1.0, 0.0))),
}


@dataclass(frozen=True)
class Activation:
    name: str
    alpha: float  # infimum of the slope on the probe grid
    kappa: float  # bound on |sigma(z) - sigma'(z) z|
    pair: Callable = field(compare=False, repr=False)  # z -> (sigma(z), sigma'(z))


def leaky_relu(alpha: float) -> Activation:
    if not (0.0 < alpha <= 1.0):
        raise ValueError(f"leakyrelu slope must be in (0, 1], got {alpha}")
    alpha = float(alpha)

    def pair(z):
        # the kink derivative is fixed from the right: sigma'(0) = 1
        right = z >= 0
        return np.where(right, z, alpha * z), np.where(right, 1.0, alpha)

    return Activation(name=f"leakyrelu:{alpha:g}", alpha=alpha, kappa=0.0, pair=pair)


def _blend_pair(base: str, c: float, z):
    """The pair of c*z + ((1-c)/4)*base(z)."""
    base_v, base_d = _BASES[base][1](z)
    return c * z + ((1.0 - c) / 4.0) * base_v, c + ((1.0 - c) / 4.0) * base_d


@functools.cache
def _measured(base: str, c: float) -> tuple[float, float]:
    """alpha and kappa of a blend on the probe grid, computed once per
    (base, c); kappa has 10% headroom for off-grid points."""
    z = _probe_grid()
    value, slope = _blend_pair(base, c, z)
    return float(slope.min()), 1.1 * float(np.abs(value - slope * z).max())


def leaky_blend(base: str, c: float) -> Activation:
    """Blend c*z + ((1-c)/4)*base(z); alpha and kappa measured on the grid."""
    if not (0.5 < c < 1.0):
        raise ValueError(f"blend coefficient must be in (0.5, 1), got {c}")
    if base not in _BASES:
        raise ValueError(f"unknown blend base {base!r}")
    alpha, kappa = _measured(base, c)
    return Activation(name=f"{_BASES[base][0]}:{c:g}", alpha=alpha, kappa=kappa,
                      pair=functools.partial(_blend_pair, base, c))


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
    """Zero-initialized net with alternating signs +1, -1, ...; MemoryError
    when numpy cannot index its (m, d) weights (it would raise ValueError)."""
    if m * d > np.iinfo(np.intp).max // 8:
        raise MemoryError(f"{m} x {d} weights are past numpy's array size limit")
    return TwoLayerNet(np.zeros((m, d)), np.where(np.arange(m) % 2 == 0, 1.0, -1.0), activation)


def _forward_pass(ds: Dataset, hidden_t: np.ndarray, pair, out: np.ndarray):
    """The slopes sigma'(s) at the hidden pre-activations s = X W^T, shape
    (R, m), and the margins z = y * (sigma(s) @ out), from one pair call:
    the one pass over the data that the risk, the smallest margin and the
    gradient share. hidden_t is W^T (W.swapaxes(-1, -2)) and out the output
    weights signs / m. A stack of k nets gives (k, R, m) and (k, R)."""
    values, slopes = pair(ds.features @ hidden_t)
    return slopes, ds.labels * (values @ out)


def _on_nets(net: TwoLayerNet, ds: Dataset, fn):
    """fn(slopes, z, out) on the _forward_pass of a net or a stack, out its
    output weights signs / m; a stack goes through descent._stacked with
    row = R m, a block of datasets.block_rows(R m) nets at a time."""
    out, pair = net.signs / net.m, net.activation.pair
    return _stacked(lambda w: fn(*_forward_pass(ds, w.swapaxes(-1, -2), pair, out), out),
                    net.weights, net.weights.ndim == 3, ds.n_rows * net.m)


def nn_margins(net: TwoLayerNet, ds: Dataset) -> np.ndarray:
    return _on_nets(net, ds, lambda slopes, z, out: z)


def _check_nn_loss(loss: LossSpec):
    if loss.kind not in NN_LOSS_KINDS:
        raise ValueError(f"network training supports exp or log loss, got {loss.kind}")
    if loss.aggregation != "mean":
        raise ValueError(f"network training supports mean aggregation only, got {loss.name}")


def nn_risk(net: TwoLayerNet, ds: Dataset, loss: LossSpec) -> RiskValue | list:
    """Weighted mean loss of the net, a RiskValue; a list of one per net
    for a stack."""
    _check_nn_loss(loss)
    return _on_nets(net, ds, lambda slopes, z, out: MarginState(z, ds, loss).risk)


def _grad_blocks(ds: Dataset, slopes, coef, scale: np.ndarray) -> np.ndarray:
    """d phi / d w_j from the forward pass's slopes, (R, m) or (k, R, m),
    the phi coefficients coef and the column scale = -(signs / m)[:, None]."""
    grad = (slopes * (coef * ds.labels)[..., None]).swapaxes(-1, -2) @ ds.features
    return scale * grad


def nn_risk_and_grad_phi(net: TwoLayerNet, ds: Dataset, loss: LossSpec) -> tuple:
    """(nn_risk, nn_grad_phi) of the net from one forward pass."""
    _check_nn_loss(loss)

    def one(slopes, z, out):
        state = MarginState(z, ds, loss)
        return (state.risk,
                _grad_blocks(ds, slopes, phi_coefficients(state, ds, loss), -out[:, None]))
    return _on_nets(net, ds, one)


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
    X W^T with one pair call, from which its risk, smallest margin and
    gradient are all read, and _grad_blocks makes one gradient pass. The
    output weights signs / m, their negated column and the view W^T of the
    weights stepped in place are bound once per run. Rows are made B =
    descent.block_size(max(R, m d)) recorded steps at a time.
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
    loss, pair = config.loss, net.activation.pair
    weights = net.weights.copy()
    hidden_t, out = weights.T, net.signs / net.m
    scale = -out[:, None]
    return _descend(
        ds, config, weights, lambda: _forward_pass(ds, hidden_t, pair, out), MarginState,
        lambda slopes, state: _grad_blocks(ds, slopes, phi_coefficients(state, ds, loss), scale),
        name="weights", scale=net.m, averaged=False)


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
