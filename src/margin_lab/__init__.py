"""Gradient descent with large adaptive stepsizes on linearly separable data.

The package bundles the loss toolbox, dataset generators (random separable
data plus the hard lower-bound instances), the adaptive/constant GD driver
and its closed-form risk bounds, a two-layer network variant, Perceptron and
online SGD, and a verification suite that re-checks every bound numerically.
"""

__version__ = "0.1.0"

from .datasets import (
    Dataset,
    gen_batch_hard,
    gen_chain_hard,
    gen_online_hard,
    gen_random_separable,
    gen_two_point,
    load_dataset,
    save_dataset,
    validate,
)
from .descent import (
    GDConfig,
    Trajectory,
    averaged_risk_log_bound,
    general_loss_risk_log_bound,
    grad_phi,
    grad_risk,
    phi,
    risk,
    run_gd,
)
from .losses import EXP, HINGE, LOG, SEMICIRCLE, LossSpec, parse_loss, poly
from .online import (
    OnlineRun,
    cyclic_order,
    random_order,
    run_online_sgd,
    run_perceptron,
)
from .two_layer import (
    Activation,
    TwoLayerNet,
    leaky_blend,
    leaky_relu,
    make_net,
    network_min_risk_log_bound,
    nn_risk,
    parse_activation,
    run_gd_nn,
)
from .verify import BoundReport, dataset_fingerprint, default_suite, render_table
