"""Independent reference implementations used to freeze expected test values.

Everything here is written from the loss definitions directly, in the most
naive way that is numerically adequate on the probe ranges, and deliberately
avoids importing margin_lab. Tests compare package outputs against these
dual-route computations, or against constants frozen from them.

The one exception is at the end: the probe checks of margin_lab.verify as
they were written before they scored each probe set in one stacked call,
one solo call per probe. They import margin_lab when called, and the
stacked checks must give the same reports to the bit.
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


def negate_rows(ds):
    """The same dataset with every (x, y) replaced by (-x, -y): each margin
    y <x, w> and each gradient term y x is the same float."""
    return dataclasses.replace(ds, features=-ds.features, labels=-ds.labels)


def random_rotation(d: int, seed: int = 0) -> np.ndarray:
    """A seeded random d x d orthogonal matrix."""
    q, r = np.linalg.qr(np.random.default_rng(seed).standard_normal((d, d)))
    return q * np.sign(np.diag(r))


def rotate(ds, q: np.ndarray):
    """The dataset with every row x and the certificate w_star mapped to q x."""
    return dataclasses.replace(ds, features=ds.features @ q.T, w_star=q @ ds.w_star)


def max_relative_gap(a: np.ndarray, b: np.ndarray) -> float:
    """Largest ||a_t - b_t|| / ||a_t|| over the iterates stacked along axis 0;
    an iterate that is zero in a must be zero in b."""
    a, b = a.reshape(len(a), -1), b.reshape(len(b), -1)
    scale = np.linalg.norm(a, axis=1)
    gap = np.linalg.norm(a - b, axis=1)
    assert np.all(gap[scale == 0.0] == 0.0)
    return float(np.max(gap[scale > 0.0] / scale[scale > 0.0], initial=0.0))


def append_row(traj, row: dict) -> None:
    """Add one recorded step to a trajectory's columns, a value per column
    name: how the reference descent loops record their rows."""
    for name, value in row.items():
        traj.columns.setdefault(name, []).append(value)


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


def unbranched_log_value(spec, z):
    """The log loss's log_value kernel as one expression on every margin:
    -z past 700, the capped softplus log at or below it. The branched
    kernel must return the same bits."""
    return np.where(z > 700.0, -z, np.log(np.logaddexp(0.0, -np.minimum(z, 700.0))))


def unbranched_log_abs_deriv(spec, z):
    """The log loss's log_abs_deriv kernel as scipy's log_expit(-z) on
    every margin. The branched kernel must return the same bits."""
    from scipy.special import log_expit

    return log_expit(-z)


def whole_matrix_random_separable(d: int, n: int, gamma: float, seed: int):
    """(features, labels, w_star) of margin_lab's random separable generator
    as it was before it worked in row blocks: every step on the whole
    (n, d) matrix, with its n x d temporaries. The block form must return
    the same bits."""
    rng = np.random.default_rng(seed)
    w_star = rng.standard_normal(d)
    w_star /= np.linalg.norm(w_star)

    dirs = rng.standard_normal((n, d))
    dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
    radii = rng.random(n) ** (1.0 / d)
    x = dirs * radii[:, None]

    align = x @ w_star
    y = np.where(align >= 0.0, 1.0, -1.0)
    m = y * align
    low = m < gamma
    if np.any(low):
        x_par = m[:, None] * (y[:, None] * w_star[None, :])
        x_perp = x - x_par
        perp_norm = np.linalg.norm(x_perp, axis=1)
        cap = math.sqrt(max(0.0, 1.0 - gamma * gamma))
        with np.errstate(divide="ignore", invalid="ignore"):
            scale = np.where(perp_norm > 0, np.minimum(1.0, cap / perp_norm), 0.0)
        projected = scale[:, None] * x_perp + gamma * (y[:, None] * w_star[None, :])
        x = np.where(low[:, None], projected, x)
    return x, y, w_star


def joined_dataset_text(features, labels, w_star, gamma: float, n: int, weights=None,
                        comments: tuple = ()) -> str:
    """The text of a dataset file as the writer built it before it streamed
    rows: every line formatted with f"{v:.17g}", then all joined."""
    def fmt(v) -> str:
        return f"{v:.17g}"

    version = "v1" if weights is None else "v1w"
    lines = [f"# {c}" if not c.startswith("#") else c for c in comments]
    lines.append(f"margin-lab-dataset {version} n={n} d={len(w_star)} gamma={fmt(gamma)}")
    lines.append("wstar: " + " ".join(fmt(v) for v in w_star))
    for i in range(len(labels)):
        cols = ["+1" if labels[i] > 0 else "-1"]
        if weights is not None:
            cols.append(str(int(weights[i])))
        cols.extend(fmt(v) for v in features[i])
        lines.append(" ".join(cols))
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# The probe checks, one solo call per probe
# ---------------------------------------------------------------------------

def full_loop_online(features, labels, order, w0, hinge_eta=None):
    """Every presentation of ``order`` run, fixed point or not: the
    Perceptron (``hinge_eta`` None) or single-example SGD on the hinge loss
    with l'(0) := -1 at stepsize ``hinge_eta``, with the online steps'
    arithmetic. Returns (iterates, mistakes, separated_at) as an OnlineRun
    holds them; separated_at is the first moved-to iterate of positive
    minimum margin (0 for a separating start), or None.
    """
    w = np.array(w0, dtype=float)
    iterates = np.empty((len(order) + 1, w.size))
    iterates[0] = w
    mistakes = np.zeros(len(order) + 1, dtype=np.int64)
    count = 0
    separated_at = 0 if float((labels * (features @ w)).min()) > 0.0 else None
    for k, idx in enumerate(order, start=1):
        x, y = features[idx], float(labels[idx])
        z = y * float(x @ w)
        if hinge_eta is None:
            moved = z <= 0.0
            if moved:
                w = w + y * x
        else:
            scale = hinge_eta * (-1.0 if z <= 0.0 else 0.0)
            moved = scale != 0.0
            if moved:
                w = w - scale * (y * x)
        count += z <= 0.0
        iterates[k] = w
        mistakes[k] = count
        if separated_at is None and moved and float((labels * (features @ w)).min()) > 0.0:
            separated_at = k
    return iterates, mistakes, separated_at


def per_probe_gradient_inequalities(ds, loss, probes: int = 200, seed: int = 0):
    """margin_lab.verify.check_gradient_inequalities with one grad_phi and
    one phi call per probe, midpoint and finite-difference step."""
    from margin_lab import verify
    from margin_lab.descent import grad_phi, phi

    loss = loss.with_n(ds.n)
    c_lip = loss.lipschitz_const()
    rng = np.random.default_rng(seed)
    pts = verify._probe_points(rng, ds, probes)
    etas = (0.5, 4.0, 400.0)

    grads = np.array([grad_phi(w, ds, loss) for w in pts])
    norms = np.linalg.norm(grads, axis=1)
    rows = [("grad-norm", float(norms.max()), c_lip + 1e-9)]

    for eta in etas:
        u2 = (c_lip * eta / (2.0 * ds.gamma)) * ds.w_star
        align = 2.0 * grads @ u2 + eta * norms**2
        rows.append((f"step-align|eta={eta:g}", float(align.max()), verify.SLACK_TOL))

    phis = np.array([phi(w, ds, loss) for w in pts])
    half = len(pts) // 2
    mids = []
    for i in range(half):
        wa, wb = pts[i], pts[i + half]
        mid = phi(0.5 * (wa + wb), ds, loss)
        mids.append(mid - 0.5 * (phis[i] + phis[i + half]))
    rows.append(("midpoint-convexity", float(np.max(mids)), verify.MIDPOINT_TOL))

    zgrid = np.linspace(-40.0, 40.0, 4001)
    ratio = loss.deriv(zgrid) ** 2 / (loss.value(zgrid) * loss.second_deriv(zgrid))
    rows.append(("curvature-ratio-increase", float(np.max(np.diff(ratio))), verify.SLACK_TOL))

    fd_worst = 0.0
    for w in pts[rng.choice(len(pts), size=min(5, len(pts)), replace=False)]:
        g = grad_phi(w, ds, loss)
        fd = np.empty_like(g)
        h = 1e-6 * max(1.0, float(np.linalg.norm(w)))
        for j in range(ds.d):
            e = np.zeros(ds.d)
            e[j] = h
            fp = phi(w + e, ds, loss)
            fm = phi(w - e, ds, loss)
            fd[j] = (fp - fm) / (2.0 * h)
        denom = max(float(np.linalg.norm(g)), 1e-12)
        fd_worst = max(fd_worst, float(np.linalg.norm(fd - g)) / denom)
    rows.append(("fd-gradient-rel-err", fd_worst, verify.FD_TOL))

    return verify.make_report(
        claim="transformed-objective inequalities hold at random probes",
        rows=rows, tolerance=0.0,
        context={"dataset": verify.dataset_fingerprint(ds), "loss": loss.name,
                 "lipschitz_const": c_lip, "probes": int(len(pts)), "seed": seed,
                 "etas": list(etas)})


def per_probe_network_inequalities(ds, activation, probes: int = 100, seed: int = 0,
                                   loss=None):
    """margin_lab.verify.check_network_inequalities with one nn_grad_phi
    and one nn_risk call per probe net and per finite-difference net."""
    from margin_lab import verify
    from margin_lab.descent import phi_from_risk
    from margin_lab.losses import EXP
    from margin_lab.two_layer import TwoLayerNet, leaky_blend, make_net, nn_grad_phi, nn_risk

    loss = EXP if loss is None else loss
    rng = np.random.default_rng(seed)
    m, etas = 4, (8.0, 80.0)
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
        rows.append((f"step-align|eta={eta:g}", align_worst[eta], verify.SLACK_TOL))
    rows.append(("alignment-to-value", value_worst, verify.SLACK_TOL))

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
    rows.append(("fd-block-gradient-rel-err", float(np.linalg.norm(fd - g)) / denom,
                 verify.FD_TOL))

    return verify.make_report(
        claim="network-block inequalities hold at random probe nets",
        rows=rows, tolerance=0.0,
        context={"dataset": verify.dataset_fingerprint(ds), "loss": loss.name,
                 "activation": activation.name, "alpha": alpha, "kappa": kappa, "m": m,
                 "probes": probes, "seed": seed, "etas": list(etas)})


def per_probe_risk_implies_separation(ds, loss, w):
    """margin_lab.verify.check_risk_implies_separation with one risk and
    one min_margin call per vector."""
    from margin_lab import verify
    from margin_lab.descent import risk

    w = np.atleast_2d(np.asarray(w, dtype=float))
    log_threshold = loss.log_value(0.0) - math.log(ds.n)
    rows = []
    above = 0
    for i, wi in enumerate(w):
        r = risk(wi, ds, loss)
        if r.log_value < log_threshold:
            rows.append((i, -float(ds.min_margin(wi)), 0.0))
        else:
            above += 1
    return verify.make_report(
        claim="risk below l(0)/n certifies a strict separator",
        rows=rows, tolerance=0.0,
        context={"dataset": verify.dataset_fingerprint(ds), "loss": loss.name,
                 "log_threshold": log_threshold, "vectors_checked": int(w.shape[0]),
                 "vectors_above_threshold": above,
                 "note": "rows store negated min-margins; strict positivity required"})
