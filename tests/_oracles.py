"""Independent reference implementations used to freeze expected test values.

Everything here is written from the loss definitions directly, in the most
naive way that is numerically adequate on the probe ranges, and deliberately
avoids importing margin_lab. Tests compare package outputs against these
dual-route computations, or against constants frozen from them.
"""

from __future__ import annotations

import dataclasses
import math

import numpy as np


def naive_loss(kind: str, z: float, k: float = float("nan")) -> float:
    z = float(z)
    if kind == "exp":
        return math.exp(-z)
    if kind == "log":
        return math.log(1.0 + math.exp(-z)) if z > -30 else -z
    if kind == "poly":
        if z >= 0:
            return (1.0 + z) ** (-k)
        return -2.0 * k * z + (1.0 - z) ** (-k)
    if kind == "semicircle":
        return (math.sqrt(z * z + 4.0) - z) / 2.0
    if kind == "hinge":
        return max(0.0, -z)
    raise ValueError(kind)


def fd_deriv(kind: str, z: float, k: float = float("nan"), h: float = 1e-6) -> float:
    """Central finite difference of the naive loss value."""
    step = h * max(1.0, abs(z))
    return (naive_loss(kind, z + step, k) - naive_loss(kind, z - step, k)) / (2.0 * step)


def bisect_inverse(kind: str, u: float, k: float = float("nan")) -> float:
    """Solve loss(z) = u by pure bisection on an adaptively grown bracket."""
    lo, hi = -1.0, 1.0
    while naive_loss(kind, lo, k) <= u:
        lo *= 2.0
        if lo < -1e307:
            raise RuntimeError("no lower bracket")
    while naive_loss(kind, hi, k) > u:
        hi *= 2.0
        if hi > 1e300:
            raise RuntimeError("no upper bracket")
    for _ in range(400):
        mid = 0.5 * (lo + hi)
        if naive_loss(kind, mid, k) > u:
            lo = mid
        else:
            hi = mid
        if hi - lo < 1e-14 * max(1.0, abs(lo)):
            break
    return 0.5 * (lo + hi)


def fd_grad(f, w: np.ndarray, h: float = 1e-6) -> np.ndarray:
    """Central finite-difference gradient of a scalar function of a vector."""
    w = np.asarray(w, dtype=float)
    g = np.zeros_like(w)
    for i in range(w.size):
        e = np.zeros_like(w)
        e[i] = h
        g[i] = (f(w + e) - f(w - e)) / (2.0 * h)
    return g


def fd_grad_matrix(f, W: np.ndarray, h: float = 1e-6) -> np.ndarray:
    """Same as fd_grad but for a matrix-valued parameter."""
    W = np.asarray(W, dtype=float)
    G = np.zeros_like(W)
    for idx in np.ndindex(*W.shape):
        E = np.zeros_like(W)
        E[idx] = h
        G[idx] = (f(W + E) - f(W - E)) / (2.0 * h)
    return G


def row_permutation(n_rows: int, seed: int = 0) -> np.ndarray:
    """The seeded order of permute_rows: its row j is the old row perm[j]."""
    return np.random.default_rng(seed).permutation(n_rows)


def permute_rows(ds, seed: int = 0):
    """The same dataset with its rows (and their weights) in a seeded random
    order."""
    perm = row_permutation(ds.n_rows, seed)
    return dataclasses.replace(ds, features=ds.features[perm], labels=ds.labels[perm],
                               weights=None if ds.weights is None else ds.weights[perm])


def max_relative_gap(a: np.ndarray, b: np.ndarray) -> float:
    """Largest ||a_t - b_t|| / ||a_t|| over the iterates stacked along axis 0;
    an iterate that is zero in a must be zero in b."""
    a, b = a.reshape(len(a), -1), b.reshape(len(b), -1)
    scale = np.linalg.norm(a, axis=1)
    gap = np.linalg.norm(a - b, axis=1)
    assert np.all(gap[scale == 0.0] == 0.0)
    return float(np.max(gap[scale > 0.0] / scale[scale > 0.0], initial=0.0))


def array_log1mexp(u):
    """log(1 - e^{-u}) in the array form margin_lab.losses.log1mexp had
    before it took floats only: both branches through np.where, warnings
    off. The scalar function must return the same bits."""
    u = np.asarray(u, dtype=float)
    small = u < math.log(2.0)
    with np.errstate(divide="ignore", invalid="ignore"):
        out = np.where(
            small,
            np.log(-np.expm1(-np.where(small, u, 1.0))),
            np.log1p(-np.exp(-np.where(small, 1.0, u))),
        )
    return float(out) if out.ndim == 0 else out


def log_loss_log_value(z):
    """ln softplus(-z), the log loss's log_value, in the form it had with a
    zeroed argument past z = 700 and the divide warning off; past 700 it is
    -z. The capped kernel must return the same bits."""
    z = np.asarray(z, dtype=float)
    big = z > 700.0
    with np.errstate(divide="ignore"):
        plain = np.log(np.logaddexp(0.0, -np.where(big, 0.0, z)))
    out = np.where(big, -z, plain)
    return float(out) if out.ndim == 0 else out
