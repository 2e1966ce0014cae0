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
parameters -> a cache and the margins z), an evaluation (margins -> a
MarginState) and a backward pass (cache, margin state -> gradient); the
caller binds the last two together, once per run. Adaptive mode evaluates
MarginState in full and steps along grad_phi (run_gd, and run_gd_nn with
its own backward); constant mode needs no risk to step, so run_gd
evaluates MarginState.deferred (no log-sum-exp, log_risk None) and steps
along grad_risk. The linear backward is the module attribute grad_phi or
grad_risk, looked up at every step. A step makes each numpy call it needs
once: the margins y * np.dot(X, w) (Dataset.margins, the first pass over
the data); a = ln l(z) from one call of the loss's kernel pair
(loss.ops.log_pair, which for log, poly and semicircle decides the branch
once, from the smallest margin and, when that does not decide, the
largest) and the ufunc reduction max(a), the top that tells divergence;
in adaptive mode also the rest of a's log-sum-exp (a - max, exp and the
ufunc reduction sum), that the risk and the coefficients are read off;
the coefficients (e / total for exp, the log-space assembly otherwise,
whose ln |l'(z)| is the pair's second callable on the branch already
taken, with no second decision: for the log loss a itself when every
margin is past 700, and -z - s on (0, 700], s the softplus whose log is
a, see phi_coefficients; in constant mode -exp(a) for exp, loss.deriv(z)
otherwise) and the gradient pass np.dot(c y, X) (Dataset.signed_sum, the
second pass); the update, the running sum and one sum of it (a finite sum
has every entry finite; only a non-finite one takes the exact test). The
run is stored as a columnar Trajectory.

Rows reach the trajectory one way, for both models: a step that is
recorded, or a linear step that checks the targets and that the convexity
screen does not clear, is queued in a block, its iterate, margins and
(linear) running sum copied into (B, *params.shape), (B, R) and (B, d)
arrays; the first push of a block allocates the two that its rows are
views of. A block holds B =
block_size(max(n_rows, params.size)) steps (64 at 100 rows and d = 10, 6
at 10 000 rows, 1 at d = 10**6), and is flushed when full and when the
run ends: one exact min(axis=1) gives every smallest margin, and the rows
extend the trajectory's columns a column at a time. A linear row carries
the running average: one division by t + 1, one stacked pass ds.margins
and one MarginState of the stack (one kernel pair call, deciding row by
row, and one log-sum-exp) give every queued average, its risk and its
smallest margin, bit for bit as one evaluation per step would. A network row carries the
best iterate so far. A row's phi and log_stepsize are read off its log
risk alone, by functions bound once per run with the dataset's n (the
bits of phi_from_risk, and of _log_stepsize_of_log or ln eta).
B changes no bit.

A block keeps every row by one rule, whatever the evaluation. A push
queues the log risk the step left (None for a deferred state) and its
predecessor's, which descent_violated compares with: inf at t = 0; None
when the predecessor is the block's previous row and left none; otherwise
the predecessor's own, from the log-sum-exp of its a if it left none. A
flush fills every None among the kept rows and their predecessors in the
block from one stacked MarginState of their margins, whose row j has the
bits of step j's own full state, and skips that evaluation when nothing
is missing. So an adaptive step's risk is computed once, at the step, and
a constant run computes only the risks of the rows it keeps and of the
steps before them.

With a target, or several, every linear step t >= 1 is checked: queued
unless the convexity screen below clears it, and the flush keeps, besides
the recorded rows, the row of each target's first passage: one pass over
the block's averaged log risks, against the targets not yet passed, sorted
once per run (a log risk at or below a target is at or below every higher
one, so the higher targets pass first and several may pass in one block).
The loop runs to the end of the block that holds the lowest target's
first passage, keeps the rows up to it and drops the up to B - 1 steps
behind it, with a diverged_at they may have stamped. A dropped step still
went through grad_phi, so a stand-in for it sees those steps too; run_gd
keeps overflow quiet, so they leave no warning either.

The convexity screen. The risk L is convex in w, so one evaluated averaged
row bounds every later averaged log risk from below. A linear run with
targets of a kind whose record has unit_log_slopes (exp and log: |d ln
l/dz| <= 1 and |d ln |l'|/dz| <= 1, hence |l'| <= l; poly, semicircle and
hinge are not screened) keeps a reference after each flush that leaves
targets pending, at the block's last averaged row v_s: its computed log
risk f_s and g = grad L(v_s) / L(v_s) = -sum_i p_i y_i x_i, p_i = m_i
|l'(z_i)| / sum_j m_j l(z_j), from one signed_sum of one coefficient row
(e / total for exp; m_i exp(ln |l'(z_i)| - lse) for log, on numpy alone).
A checked step t that is not recorded, met while the block is empty, is
not queued when

    |S_t|^2 <= (c (t + 1))^2 / 2   and   <g, S_t> / (t + 1) - <g, v_s> - slack > least,

S_t the running sum, c = 4 |v_s| + 4, least >= expm1(T - f_s + budget)
and T the highest pending target. One gemv of the (2, d) pair whose first
row is g and whose second is the running sum itself gives <g, S_t> and
|S_t|^2. Every other step is queued and flushed as before, so a block
still holds consecutive steps from the first one the screen cannot clear,
and a run still stops fewer than B steps past its passage.

Why a cleared step t is no passage: the flush computes the log risk f'_t
of v_t = fl(S_t / (t + 1)), and f'_t > T is to be shown. Let u = 2^-53,
gamma_k = k u / (1 - k u), F = ln L, rho the largest row norm (rounded
up, from one stack of row dots at the start of a screened run), R the
rows, and take exp, log, log1p and expm1 within 1 ulp, sqrt correctly
rounded, and the standard bound gamma_k sum |a_i b_i| on a k-term dot or
sum in any order.
1. Convexity: L(v_t) >= L(v_s) + <grad L(v_s), v_t - v_s> = L(v_s) (1 + q),
   q = <g, v_t - v_s>; so F(v_t) >= F(v_s) + log1p(q) when q > -1.
2. The flush's rounding: |f'(v) - F(v)| <= eps(v) = u ((d + 6) Z + R
   + 6 ln n + 14), Z = rho |v|. The margins are off by gamma_d Z, and
   with slope at most 1 each ln l(z_i) and the log-sum-exp move no more
   (d Z); the log kernel adds 2 Z + 7 (|ln l(z_i)| <= Z + 1; exp adds
   nothing); the shifted exponentials and their sum 2 Z + R + 5 in
   relative terms (argument, exp, weight, underflow, R - 1 additions),
   ln total 2 ln n, top + ln total Z + 1 + ln n, and ln n's rounding and
   the subtraction Z + 1 + 3 ln n.
3. g's rounding: the computed g is within rho eta_g of g, eta_g = u ((2 d
   + 12) Z_s + 2 R + 4 ln n + 24), Z_s = rho |v_s|: each p_i is off by
   (2 d + 12) Z_s + R + 24 + 4 ln n in relative terms (the margins move ln
   |l'(z_i)| and the log-sum-exp by d Z_s each, the kernels, the
   log-sum-exp, the subtraction, exp, the weight and underflow the rest),
   sum_i p_i <= 1 since |l'| <= l, and signed_sum adds gamma_R.
4. The dots: with |v_t| <= N and |v_s| <= a, the computed <g, S_t> / (t +
   1) - <g, v_s> is within rho (N + a) (eta_g + (d + 3) u) of q (g's error,
   gamma_d on each dot, and the division, the rounding of v_t and the
   subtraction).
5. The budgets: slack = 2 rho (eta_g + (d + 4) u) (c + a) and budget =
   eps(v_s) + eps(v_t) + 8 u (|f_s| + |T| + 1), each first-order constant
   doubled and taken at |v_t| <= c, which the norm test gives; least is
   expm1's result raised by 4 u of itself. While every part stays below
   2^-21 (the screen keeps no reference otherwise), the doubling covers the
   second-order remainders and the few roundings of the screen's own
   scalar arithmetic.
So the computed left side x of the test lies at or below q, and x > least
gives q > -1 and log1p(q) > T - f_s + budget; by 1 and 2, f'_t >= F(v_t) -
eps(v_t) >= f'_s - eps(v_s) + log1p(q) - eps(v_t) > T.

Stacks. risk, phi, phi_coefficients, grad_phi and grad_risk take a (k, d)
stack of parameter vectors as well as one vector, and MarginState the
(k, R) margins of such a stack, with one body for both shapes: the passes
over the data are Dataset.margins and Dataset.signed_sum, one gemv per
row; the elementwise kernels, whose kernel pair makes one branch decision
for the whole array, and _log_sum_exp run once on the (k, R) array; the
scalar tail (the risk from its log, ln (-l^{-1})' of it, phi with poly's
_brentq) runs row by row. Row j of every stacked result has the bits of
the call on row j alone, which the checks of verify rely on to score a
whole probe set in one call. A stack's risk is a list of
RiskValue, its phi a list of floats. risk, phi, grad_phi and grad_risk
take a long stack a block at a time by the one rule of _stacked, which
two_layer's stacked evaluators (nn_margins among them) and
verify.check_risk_implies_separation follow too.

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

import bisect
import math
from collections.abc import Sequence
from dataclasses import dataclass
from types import SimpleNamespace

import numpy as np

from .datasets import Dataset, block_rows, row_blocks
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
    """exp(x), or inf once x is past the float range (x > 709.78)."""
    try:
        return math.exp(x)
    except OverflowError:
        return math.inf


def _risk_from_log(log_value: float) -> RiskValue:
    return RiskValue(_exp_or_inf(log_value), log_value)


def _log_sum_exp(a: np.ndarray, weights: np.ndarray | None) -> tuple:
    """lse = ln sum_i m_i exp(a_i), a = ln l(z), for one iterate (a 1-D a)
    or for each row of a stack of iterates (a 2-D a).

    lse is max + ln total, where total sums the shifted exponentials
    e_i = m_i exp(a_i - max); the multiplicities m_i stay outside the
    exponential. A row whose max is not finite (some l(z_i) = inf, every
    l(z_i) = 0 as for a separated hinge, or a nan margin) has e and total
    nan and lse = max. Returns (max, e, total, lse): for one iterate max,
    total and lse are floats; for a stack max and total are (k, 1) columns,
    so that e / total divides each row by its own, and lse a list with a
    float per row. Both shapes run the same numpy operations and math.log
    on each row's total, so a row of a stack has the bits of its iterate on
    its own; one iterate, the per-step case, takes the reductions as ufunc
    calls (the ones a.max() and a.sum() make) and returns early on a top
    that is not finite, where a stack sets that row to nan.
    """
    if a.ndim == 1:
        top = float(np.maximum.reduce(a))
        if not math.isfinite(top):
            return top, np.full(a.shape, math.nan), math.nan, top
        e = np.exp(a - top)
        if weights is not None:
            e = weights * e
        total = float(np.add.reduce(e))
        return top, e, total, top + math.log(total)
    top = a.max(axis=1, keepdims=True)
    with np.errstate(invalid="ignore"):  # inf - inf in a row whose top is not finite
        e = np.exp(a - top)
    e[~np.isfinite(top[:, 0])] = math.nan
    if weights is not None:
        e = weights * e
    totals = e.sum(axis=1, keepdims=True)
    lses = [m + math.log(s) if math.isfinite(m) else m
            for m, s in zip(top.ravel().tolist(), totals.ravel().tolist())]
    return top, e, totals, lses


class MarginState:
    """The margins z of one iterate, or the (k, R) margins of a stack of
    iterates, and what their risk and their gradient coefficients share.

    a = ln l(z) comes from the one call of the loss's kernel pair
    (loss.ops.log_pair), whose second callable, log_abs_deriv, gives ln
    |l'(z)| on the branch a took; top = max_i a_i, e, total and lse = ln
    sum_i m_i l(z_i) come from _log_sum_exp, and for exp the e_i are the
    numerators of the softmax coefficients. log_risk = lse - ln n is the
    log of the weighted mean loss (a list of one per row for a stack), and
    risk its RiskValue, built when it is read.

    The risk of one iterate can be deferred (MarginState.deferred, which
    run_gd binds with grad_risk in constant mode; the module docstring says
    how a block fills the risks it needs): such a state holds z, a and top
    only (no log_abs_deriv), and its log_risk is None. top tells divergence on its own: the
    log risk is +inf or nan exactly when top is. A nan margin or an
    infinite loss makes top nan or +inf, and the log risk is then top. With
    a finite top, lse adds ln total to it, and total lies in [1, n]: its
    top term is m_i exp(0) >= 1, and no term exceeds its m_i. Adding at
    most ln n cannot overflow a finite float, so the log risk is finite
    too. A top of -inf (every l(z_i) = 0, a separated hinge) gives log risk
    -inf: zero risk, which is success.
    """

    __slots__ = ("z", "a", "log_abs_deriv", "top", "e", "total", "lse", "log_risk")

    def __init__(self, z: np.ndarray, ds: Dataset, loss: LossSpec):
        self.z = z
        value, self.log_abs_deriv = loss.ops.log_pair(loss, z)
        self.a = value()
        self.top, self.e, self.total, self.lse = _log_sum_exp(self.a, ds.weights)
        log_n = math.log(ds.n)
        self.log_risk = (self.lse - log_n if z.ndim == 1
                         else [v - log_n for v in self.lse])

    @classmethod
    def deferred(cls, z: np.ndarray, ds: Dataset, loss: LossSpec) -> "MarginState":
        """The state of one iterate without its log-sum-exp: z, a and top,
        and log_risk None. grad_risk reads nothing else."""
        state = cls.__new__(cls)
        state.z, state.a, state.log_risk = z, loss.ops.log_pair(loss, z)[0](), None
        state.top = float(np.maximum.reduce(state.a))
        return state

    @property
    def risk(self):
        log = self.log_risk
        return [_risk_from_log(v) for v in log] if isinstance(log, list) else _risk_from_log(log)


def _stacked(one, params, stacked: bool, row: int):
    """one(params), a parameter stack taken datasets.block_rows(row) entries
    at a time: the one rule by which every stacked evaluator of descent and
    two_layer bounds its memory.

    row is the floats one entry's largest array holds: n_rows for a linear
    vector (its margins), n_rows m for a net of width m (its
    pre-activations). One entry (stacked false) and a stack that fits in one
    block go to one call as they are. A longer stack goes to one call per
    block of consecutive entries (datasets.row_blocks), and the parts are
    joined: lists chained, arrays concatenated, a tuple part by part. So no
    array a call holds has more than BLOCK_ELEMENTS floats, unless one
    entry's does, and every entry keeps the bits of its solo call.
    """
    if not stacked or len(params) <= block_rows(row):
        return one(params)

    def joined(parts):
        if isinstance(parts[0], tuple):
            return tuple(map(joined, zip(*parts)))
        if isinstance(parts[0], list):
            return [v for part in parts for v in part]
        return np.concatenate(parts)
    return joined([one(params[rows]) for rows in row_blocks(len(params), row)])


def risk(w: np.ndarray, ds: Dataset, loss: LossSpec):
    """Weighted mean loss over the dataset at parameter w, a RiskValue; at
    a (k, d) stack, a list of one per row."""
    return _stacked(lambda v: MarginState(ds.margins(v), ds, loss).risk, w, np.ndim(w) == 2,
                    ds.n_rows)


def grad_risk(w, ds: Dataset, loss: LossSpec) -> np.ndarray:
    """Raw-domain gradient (1/n) sum_i w_i l'(z_i) y_i x_i at parameter w
    (or a (k, d) stack, giving (k, d)), or at the margins of a MarginState
    passed in its place.

    May overflow for losses with exploding derivatives at very negative
    margins; that is intentional in constant-stepsize mode.
    """
    if not isinstance(w, MarginState):
        def one(v):
            coef = loss.deriv(ds.margins(v))
            return ds.signed_sum(coef if ds.weights is None else ds.weights * coef) / ds.n
        return _stacked(one, w, np.ndim(w) == 2, ds.n_rows)
    # exp: l' = -e^{-z} = -e^a, the bits of loss.deriv
    coef = -np.exp(w.a) if loss.ops.softmax else loss.deriv(w.z)
    return ds.signed_sum(coef if ds.weights is None else ds.weights * coef) / ds.n


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
    coefficient exactly. ln (-l^{-1})'(u) is taken from u's pair, one per
    row of a stack.

    ln |l'(z)| is the second callable of the state's kernel pair
    (losses._Kind.log_pair): it evaluates the branch that a = ln l(z) took,
    decided once when the state was built (once for a whole stack), reusing
    what a computed, with no second decision and no log_abs_deriv call. For
    the log loss that is a itself when every margin is past 700, and -z - s
    on (0, 700], s the softplus whose log is a; each branch has the bits of
    the full expression (losses._Log).
    """
    state = z if isinstance(z, MarginState) else MarginState(z, ds, loss)
    if loss.ops.softmax:
        # softmax of -z with multiplicities; exact ratio preservation matters
        return state.e / state.total
    summed = loss.aggregation == "sum"
    log_u = state.lse if summed else state.log_risk
    if isinstance(log_u, list):
        lnid = np.array([loss.log_neg_inv_deriv(_exp_or_inf(v), v) for v in log_u])[:, None]
    else:
        lnid = loss.log_neg_inv_deriv(_exp_or_inf(log_u), log_u)
    coef = lnid + state.log_abs_deriv()
    coef = np.exp(coef if summed else coef - math.log(ds.n))
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
    if not isinstance(w, MarginState):
        return _stacked(lambda v: -ds.signed_sum(phi_coefficients(ds.margins(v), ds, loss)), w,
                        np.ndim(w) == 2, ds.n_rows)
    return -ds.signed_sum(phi_coefficients(w, ds, loss))


def _of_u(fn, loss: LossSpec, n: int, summed: bool):
    """fn(loss, u, ln u) as a function of the log of the mean risk L, bound
    once: u = L, or u = n L when summed (n the dataset's sample count),
    from u's (value, log_value) pair."""
    if summed:
        ln_n = math.log(n)

        def of_log(log):
            u = log + ln_n
            return fn(loss, _exp_or_inf(u), u)
        return of_log
    return lambda log: fn(loss, _exp_or_inf(log), log)


def _phi_of_log(loss: LossSpec, n: int):
    """phi = -l^{-1}(u) as a function of the log of the mean risk, bound
    once: u = L, or u = n L under sum aggregation."""
    return _of_u(loss.ops.phi, loss, n, loss.aggregation == "sum")


def _log_stepsize_of_log(loss: LossSpec, eta: float, n: int):
    """ln eta_t = ln eta + ln (-l^{-1})'(risk) as a function of the log of
    the mean risk, bound once; always finite.

    Under sum aggregation eta_t = eta * n * (-l^{-1})'(n * risk), so that
    eta_t * grad L = eta * grad phi_sum. For exp (a softmax kind) the factor
    n cancels exactly and the mean formula is used.
    """
    summed = loss.aggregation == "sum" and not loss.ops.softmax
    lnid = _of_u(loss.ops.log_neg_inv_deriv, loss, n, summed)
    log_eta = math.log(eta) + math.log(n) if summed else math.log(eta)
    return lambda log: log_eta + lnid(log)


def phi_from_risk(loss: LossSpec, r, n: int):
    """phi = -l^{-1}(u) from the mean risk over n samples, or a list of phi
    from a stack's list of them; u is the mean risk, or n times it under sum
    aggregation. Read off log_value, which a RiskValue holds
    authoritatively."""
    phi = _phi_of_log(loss, n)
    return [phi(v.log_value) for v in r] if isinstance(r, list) else phi(r.log_value)


def phi(w: np.ndarray, ds: Dataset, loss: LossSpec):
    """phi at parameter w, a float; at a (k, d) stack, a list of one per
    row."""
    return phi_from_risk(loss, risk(w, ds, loss), ds.n)


@dataclass(frozen=True)
class GDConfig:
    """One descent run: the loss, the base stepsize eta, the number of
    steps, the mode, the initial iterate (zero if None) and the steps
    recorded (every record_every-th and the last).

    target_log_avg_risk is None, a float or a nonempty tuple of floats. The
    run keeps each target's first passage t >= 1 (the averaged iterate's log
    risk at or below it) as a row and stops at the lowest target's; see
    run_gd. A nan target or an empty tuple raises ValueError.
    """

    loss: LossSpec
    eta: float
    steps: int
    mode: str = "adaptive"  # "adaptive" | "constant"
    init: np.ndarray | None = None
    record_every: int = 1
    target_log_avg_risk: float | tuple | None = None

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
        target = self.target_log_avg_risk
        if isinstance(target, tuple):
            if not target or any(math.isnan(v) for v in target):
                raise ValueError("target_log_avg_risk must be a number, a nonempty tuple of "
                                 f"numbers or None, got {target!r}")
        elif target is not None and math.isnan(target):
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
_U = 2.0**-53  # the unit roundoff of float64
_SCREEN_LIMIT = 2.0**-21  # the largest budget part the screen's first-order bounds take


def block_size(row: int) -> int:
    """B = min(64, datasets.block_rows(row)): how many steps _descend
    queues in a block. With row = max(n_rows, params.size), each of the
    block's arrays stays within datasets.BLOCK_ELEMENTS floats, the one
    budget of every row block, unless one row of it is longer."""
    return min(_BLOCK_MAX, block_rows(row))


class _Block:
    """Steps queued until their rows are built together.

    The first push of a block allocates its (B, *params.shape) array and,
    when the rows carry the running average, its (B, d) array; the (B, R)
    margins array serves every block. Each push copies step t's iterate,
    margins and running sum into them and queues the step's log risk, its
    predecessor's and the running best (best_log, best_t), by the rule of
    the module docstring. flush divides the sums by t + 1 in place, takes
    every smallest margin from one min(axis=1) on the margins, evaluates
    the averages with one stacked margins pass and one MarginState of the
    stack, finds the first passages of the targets still pending
    (ascending; the highest goes first, and a passage drops it and every
    target it passed), fills the missing log risks the kept rows need,
    then extends the trajectory's columns by the rows that are kept: the
    recorded ones and the passages. Those rows are views of the block's
    iterate and average arrays, so the next block takes new ones. In a
    screened run (the convexity screen of the module docstring) a flush
    that leaves targets pending keeps its last averaged row as the basis of
    the next reference, which clears builds at its first call.
    """

    def __init__(self, ds: Dataset, config: GDConfig, params: np.ndarray, name: str,
                 averaged: bool):
        self.ds, self.loss, self.name, self.averaged = ds, config.loss, name, averaged
        target = config.target_log_avg_risk
        self.pending = ([] if target is None
                        else sorted(target if isinstance(target, tuple) else (target,)))
        # a row's phi and log_stepsize are read off its own log risk
        self.phi = _phi_of_log(self.loss, ds.n) if self.loss.ops.smooth else lambda log: math.nan
        log_eta = math.log(config.eta)
        self.log_stepsize = (_log_stepsize_of_log(self.loss, config.eta, ds.n)
                             if config.mode == "adaptive" else lambda log: log_eta)
        self.log_n = math.log(ds.n)
        self.size = block_size(max(ds.n_rows, params.size))
        self.margins = np.empty((self.size, ds.n_rows))  # no row is a view of it
        self.steps: list = []
        # the convexity screen (module docstring), with its per-run budgets
        self.screens = averaged and bool(self.pending) and self.loss.ops.unit_log_slopes
        self.basis = self.reference = None
        if self.screens:
            d, x = ds.d, ds.features
            self.pair = np.zeros((2, d))
            self.norm_up = 1.0 + (d + 4) * _U
            # |x_i|^2 as a stack of one-row dots (einsum raised bench's peak RSS 0.3 MB)
            square = np.matmul(x[:, None, :], x[:, :, None]).max()
            self.row_norm = math.sqrt(float(square)) * self.norm_up
            self.eps0 = 2.0 * _U * (ds.n_rows + 6.0 * self.log_n + 14.0)
            self.eps1 = 2.0 * _U * (d + 6) * self.row_norm

    def running_sum(self, params: np.ndarray) -> np.ndarray:
        """A copy of params, the running sum the loop adds each iterate to;
        for a screened run, the second row of the (2, d) pair whose first
        row is the reference's g, so that one gemv gives <g, S_t> and
        |S_t|^2."""
        if not self.screens:
            return params.copy()
        self.pair[1] = params
        return self.pair[1]

    def clears(self, t: int, total: np.ndarray) -> bool:
        """True when the convexity screen proves that step t, met while the
        block is empty, is no first passage (see the module docstring);
        total is the running sum S_t, the second row of the pair."""
        if self.steps:
            return False
        if self.basis is not None:
            self._refer()
        if self.reference is None:
            return False
        cap, shift, least = self.reference
        dot, square = np.dot(self.pair, total).tolist()  # <g, S_t> and |S_t|^2
        k = t + 1.0
        return square <= cap * k * k and dot / k - shift > least

    def _refer(self):
        """Build the screen's reference from the basis the last flush left:
        the block's last averaged row avg_s and its stacked state. g = grad
        L / L at avg_s goes to the pair's first row; the reference holds
        (cap, shift, least) of the module docstring, or is None, and the
        screen then clears nothing, unless every budget is finite and
        within _SCREEN_LIMIT."""
        state, avg = self.basis  # avg_s is the stack's last row
        self.basis = self.reference = None
        ds, u, rho, eps1 = self.ds, _U, self.row_norm, self.eps1
        if self.loss.ops.softmax:
            p = state.e[-1] / state.total[-1, 0]
        else:
            p = np.exp(state.log_abs_deriv()[-1] - state.lse[-1])
            if ds.weights is not None:
                p = ds.weights * p
        g = np.negative(ds.signed_sum(p), out=self.pair[0])
        norm = math.sqrt(float(np.dot(avg, avg))) * self.norm_up  # at least |avg_s|
        reach = 4.0 * norm + 4.0  # the largest |avg_t| screened
        grad_err = u * ((2 * ds.d + 12) * rho * norm + 2 * ds.n_rows + 4 * self.log_n + 24)
        slack = 2.0 * rho * (grad_err + (ds.d + 4) * u) * (reach + norm)
        fixed = eps1 * (norm + reach) + 2.0 * self.eps0
        log, target = state.log_risk[-1], self.pending[-1]
        drop = target - log + fixed + 8.0 * u * (abs(log) + abs(target) + 1.0)
        if not (max(slack, fixed) <= _SCREEN_LIMIT and drop <= 700.0):  # also refuses a nan
            return
        least = math.expm1(drop)
        self.reference = (reach * reach / 2.0, float(np.dot(g, avg)) + slack,
                          least + 4.0 * u * abs(least))

    def push(self, t: int, params: np.ndarray, total: np.ndarray, state: MarginState,
             prev: MarginState | None, record: bool, best_log: float, best_t: int) -> bool:
        """Queue step t, prev being the state of step t - 1 (None at t = 0);
        True once the block is full."""
        j = len(self.steps)
        if not j:
            self.iterates = np.empty((self.size, *params.shape))
            self.sums = np.empty((self.size, params.size)) if self.averaged else None
        self.iterates[j] = params
        self.margins[j] = state.z
        if self.averaged:
            self.sums[j] = total
        before = math.inf if prev is None else prev.log_risk
        if before is None and not (j and self.steps[-1][0] == t - 1):
            before = _log_sum_exp(prev.a, self.ds.weights)[3] - self.log_n
        self.steps.append((t, state.log_risk, before, record, best_log, best_t))
        return j + 1 == self.size

    def flush(self, traj: Trajectory) -> bool:
        """Append the queued rows that are recorded or at a target's first
        passage, and drop the steps queued behind the lowest target's. True
        if that passage was found."""
        count = len(self.steps)
        if not count:
            return False
        ts, logs, befores, records, best_logs, best_ts = zip(*self.steps)
        self.steps = []
        iterates, avg = self.iterates[:count], None
        if self.averaged:
            # t + 1 is exact as a float: the bits of total / (t + 1) at each step
            avg = np.divide(self.sums[:count], np.add(ts, 1.0)[:, None], out=self.sums[:count])
            avg_state = MarginState(self.ds.margins(avg), self.ds, self.loss)
            log_avgs = avg_state.log_risk
        passages, stop, pending = set(), None, self.pending
        if pending:
            for j, (t, log) in enumerate(zip(ts, log_avgs)):
                if t >= 1 and log <= pending[-1]:
                    passages.add(j)
                    del pending[bisect.bisect_left(pending, log):]
                    if not pending:
                        stop = j
                        break
            if self.screens and pending:  # the next reference: the last averaged row
                self.basis = (avg_state, avg[-1])
        end = count if stop is None else stop + 1
        kept = [j for j in range(end) if records[j] or j in passages]
        if not kept:
            return False
        missing = sorted({j for j in kept if logs[j] is None}
                         | {j - 1 for j in kept if befores[j] is None})
        if missing:  # row j of the stack has the bits of step j's own state
            logs, filled = list(logs), MarginState(self.margins[missing], self.ds, self.loss)
            for j, log in zip(missing, filled.log_risk):
                logs[j] = log
            befores = [logs[j - 1] if v is None else v for j, v in enumerate(befores)]
        if len(kept) == count:
            def pick(values):
                return values
        else:  # hold no memory for the rows that are dropped
            iterates, avg = iterates[kept], avg if avg is None else avg[kept]

            def pick(values):
                return [values[j] for j in kept]
        logs = pick(logs)
        columns = {
            "t": pick(ts),
            self.name: list(iterates),
            "log_risk": logs,
            "phi": [self.phi(v) for v in logs],
            "log_stepsize": [self.log_stepsize(v) for v in logs],
            "min_margin": pick(np.minimum.reduce(self.margins[:count], axis=1).tolist()),
            "descent_violated": [log > before for log, before in zip(logs, pick(befores))],
        }
        if self.averaged:
            columns["avg_w"] = list(avg)
            columns["log_avg_risk"] = pick(log_avgs)
            columns["avg_min_margin"] = pick(np.minimum.reduce(avg_state.z, axis=1).tolist())
        else:
            columns["min_log_risk"] = pick(best_logs)
            columns["min_risk_t"] = pick(best_ts)
        for key, values in columns.items():
            traj.columns.setdefault(key, []).extend(values)
        return stop is not None


def _descend(ds: Dataset, config: GDConfig, params: np.ndarray, forward, evaluate, backward,
             *, name: str = "w", scale: float = 1, averaged: bool = True) -> Trajectory:
    """The descent loop of every model.

    forward() returns (cache, z) at the current params; evaluate(z, ds,
    loss) returns the step's margin state, MarginState or
    MarginState.deferred as the caller binds it with backward (see the
    module docstring); backward(cache, state) returns the gradient, and
    params -= eta * scale * gradient steps them in place. Every row goes
    through a _Block. Divergence is tested on the state's top, which is
    +inf or nan exactly when its log risk is (see MarginState). With
    averaged (the linear model) the rows carry the running average of the
    iterates and the run honours config.target_log_avg_risk, one target or
    a tuple; without it they carry the best iterate so far, tracked for
    them alone, and the caller refuses a target. The module docstring says
    which calls a step makes, and how a block ends a run at a first
    passage.
    """
    loss, last, every = config.loss, config.steps, config.record_every
    checks = config.target_log_avg_risk is not None
    step = config.eta * scale
    traj = Trajectory()
    best_log, best_t, prev = math.inf, 0, None
    block = _Block(ds, config, params, name, averaged)
    total = block.running_sum(params)
    for t in range(last + 1):
        cache, z = forward()
        state = evaluate(z, ds, loss)
        # top is +inf or nan, true blow-up, exactly when the log risk is; a log
        # risk of -inf means exactly zero risk (hinge only), which is success
        if not state.top < math.inf:
            traj.diverged_at = t
            break
        if not averaged and state.log_risk < best_log:
            best_log, best_t = state.log_risk, t
        record = t % every == 0 or t == last
        if ((record or checks and t and not block.clears(t, total))
                and block.push(t, params, total, state, prev, record, best_log, best_t)
                and block.flush(traj)):
            return traj  # at the first passage
        prev = state
        if t == last:
            break
        params -= step * backward(cache, state)
        total += params
        # a finite sum has every entry finite; an overflowed one needs the exact test
        if not math.isfinite(np.add.reduce(total, None)) and not np.isfinite(total).all():
            traj.diverged_at = t + 1
            break
    if block.flush(traj):
        traj.diverged_at = None  # stamped after the first passage
    return traj


def run_gd(ds: Dataset, config: GDConfig) -> Trajectory:
    """Run (adaptive or constant stepsize) gradient descent and record the
    trajectory of iterates and running averages.

    Recording happens every record_every steps and always at the final step.
    With config.target_log_avg_risk set, the run stops at the first t >= 1
    whose averaged iterate has log risk at or below it, and records that
    point even off the record_every grid, so columns["t"][-1] is the number
    of steps made. A tuple of targets records each one's first passage t >=
    1 (one row for targets that pass at the same step) and stops at the
    lowest one's, where that target alone would stop; a target never passed
    adds no row. Every point it records is bit-identical to the same point
    of the run without a target. The check covers every step, recorded or
    not, so record_every = steps with a tuple of targets gives each first
    passage without building the rows between. A checked step's averaged
    risk is evaluated in its block unless, for exp and log, the convexity
    screen clears it: from the last averaged row evaluated, the convexity
    of L and a floating-point error budget prove its log averaged risk
    above every pending target, at the cost of one small gemv per step (the
    module docstring gives the screen and its proof). It changes no row.

    Averaged iterates are evaluated B = block_size(max(ds.n_rows, ds.d))
    steps at a time (see the module docstring). A run with a target therefore computes
    up to B - 1 steps past its first passage and drops them: they leave no
    row, no diverged_at and no warning, but each went through the gradient.

    Each step calls descent.grad_phi (grad_risk in constant mode) as
    (state, ds, loss), with the iterate's MarginState in the w slot; in
    constant mode that state is MarginState.deferred, and the log risks the
    rows need are filled when they are built, with the bits one evaluation
    per step would give (the module docstring binds the modes).

    A diverged run (see the module docstring) stamps diverged_at; run_gd
    does not warn on the overflow that gets there. Adaptive mode diverges
    only by overflow, with eta near the float range: its step length is
    capped by eta times the loss's lipschitz_const.
    """
    loss = config.loss
    w = np.zeros(ds.d) if config.init is None else np.array(config.init, dtype=float)
    if w.shape != (ds.d,):
        raise ValueError(f"init has shape {w.shape}, dataset needs ({ds.d},)")
    if config.mode == "adaptive":
        evaluate = MarginState
        backward = lambda _, state: grad_phi(state, ds, loss)  # noqa: E731
    else:
        evaluate = MarginState.deferred
        backward = lambda _, state: grad_risk(state, ds, loss)  # noqa: E731
    # diverged_at reports an overflow, here and in the dropped steps
    with np.errstate(over="ignore", invalid="ignore"):
        return _descend(ds, config, w, lambda: (None, ds.margins(w)), evaluate, backward)


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


def general_loss_risk_log_bound(loss: LossSpec, gamma: float, eta: float, t: int,
                                n: int) -> float:
    """Closed-form averaged-iterate bound for a smooth loss, in the log
    domain (safe when the bound value underflows):

        ln L(avg w_t) <= ln l(((g^2 - C) / (4 g)) * eta),   g = gamma^2 (t + 1),

    where C = loss.lipschitz_const(n), n the sample count of the dataset the
    run fits. For the exp loss, C = 1, this is exactly
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
    c = loss.lipschitz_const(n)
    x = ((g * g - c) / (4.0 * g)) * eta
    return float(loss.log_value(x))
