"""Loss functions for margin-based classification.

Every loss here maps a signed margin z = y * <w, x> to a nonnegative penalty.
The smooth losses (all except hinge) are strictly decreasing and convex with
range (0, inf), so they admit an inverse on z-space and a well-defined
"inverse decay rate" (-l^{-1})'(u), the quantity that scales adaptive
stepsizes. Supported kinds:

    exp         l(z) = e^{-z}
    log         l(z) = ln(1 + e^{-z})
    poly:k      l(z) = (1+z)^{-k} for z >= 0, and -2kz + (1-z)^{-k} for z < 0
    semicircle  l(z) = (sqrt(z^2+4) - z) / 2
    hinge       l(z) = max(0, -z), with l'(0) := -1 (subgradient fixed from
                the left so that unit-stepsize SGD reproduces the perceptron)

The poly branch for z < 0 keeps the loss 1-Lipschitz-like with slope in
(-2k, -k], which is what makes its inverse decay rate bounded there.

A LossSpec also names how the per-row losses are aggregated into the
objective whose transform phi = -l^{-1}(u) adaptive descent follows:
"mean" (u = L, the mean risk; the default) or "sum" (u = n L). The loss
functions themselves do not depend on it.

Scalar helpers return floats; array inputs broadcast elementwise. The
log-domain variants (log_value, log_abs_deriv, log_neg_inv_deriv) are exact
continuations of the plain ones into regimes where the values themselves
underflow or overflow a float64.

scipy.special (expit) loads at the first call of a log-loss deriv, not at
import (see _special), so no other kernel pays for it. The log loss's
log_value, log_abs_deriv and second_deriv run on numpy alone: ln sigmoid is
_log_expit, which has scipy's log_expit bits.

log_value and log_abs_deriv are one kernel pair per kind (_Kind.log_pair),
which descent.MarginState calls once per iterate: two callables, for ln
l(z) and ln |l'(z)|, that share what both need. The log, poly and
semicircle pairs decide their branch once per call, whatever the shape,
from the smallest and the largest margin (_branched), and evaluate only
that branch; every branch has the bits of the kind's full np.where
expressions on the margins it takes. Past the burn-in of a large-stepsize
log run every margin exceeds 700, and both logs of the log loss are then
one negation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from . import _special

AGGREGATIONS = ("mean", "sum")
_LN2 = math.log(2.0)


def log1mexp(u: float) -> float:
    """Compute log(1 - e^{-u}) for a float u > 0 without cancellation.

    Splits at u = ln 2: below it, 1 - e^{-u} is small and expm1 keeps the
    digits; above it, e^{-u} is small and log1p does. The numpy ufuncs run
    on the float itself (the same loops, so the same bits, as on an array);
    math.log, math.exp and math.expm1 can round differently. Gives -inf at
    u = 0 and nan for u < 0 or nan.
    """
    if not u > 0.0:
        return -math.inf if u == 0.0 else math.nan
    if u < _LN2:
        return float(np.log(-np.expm1(-u)))
    return float(np.log1p(-np.exp(-u)))


def _brentq(f, xa: float, xb: float, xtol: float, rtol: float, maxiter: int = 100) -> float:
    """A root of f in [xa, xb], where f(xa) and f(xb) differ in sign.

    Brent's method, ported line for line from scipy's
    scipy/optimize/Zeros/brentq.c (BSD-3-Clause, Copyright (c) 2001-2002
    Enthought, Inc., 2003 SciPy Developers), so that on the same f, bracket
    and tolerances it returns the same bits as scipy.optimize.brentq. Like
    scipy it raises ValueError when f returns NaN or the signs do not differ;
    where scipy raises RuntimeError after maxiter iterations, this raises
    ValueError, the one error type of the inverse.
    """
    xpre, xcur = xa, xb
    xblk = fblk = spre = scur = 0.0
    fpre = f(xpre)
    fcur = f(xcur)
    for x, fx in ((xpre, fpre), (xcur, fcur)):
        if math.isnan(fx):
            raise ValueError(f"the function value at x={x} is NaN; solver cannot continue")
    if fpre == 0.0:
        return xpre
    if fcur == 0.0:
        return xcur
    if math.copysign(1.0, fpre) == math.copysign(1.0, fcur):
        raise ValueError("f(a) and f(b) must have different signs")
    for _ in range(maxiter):
        if fpre != 0.0 and fcur != 0.0 and math.copysign(1.0, fpre) != math.copysign(1.0, fcur):
            xblk = xpre
            fblk = fpre
            spre = scur = xcur - xpre
        if abs(fblk) < abs(fcur):
            xpre, xcur, xblk = xcur, xblk, xcur
            fpre, fcur, fblk = fcur, fblk, fcur

        delta = (xtol + rtol * abs(xcur)) / 2.0
        sbis = (xblk - xcur) / 2.0
        if fcur == 0.0 or abs(sbis) < delta:
            return xcur

        if abs(spre) > delta and abs(fcur) < abs(fpre):
            if xpre == xblk:
                # interpolate
                stry = -fcur * (xcur - xpre) / (fcur - fpre)
            else:
                # extrapolate
                dpre = (fpre - fcur) / (xpre - xcur)
                dblk = (fblk - fcur) / (xblk - xcur)
                stry = -fcur * (fblk * dblk - fpre * dpre) / (dblk * dpre * (fblk - fpre))
            if 2.0 * abs(stry) < min(abs(spre), 3.0 * abs(sbis) - delta):
                # good short step
                spre = scur
                scur = stry
            else:
                spre = scur = sbis
        else:
            spre = scur = sbis

        xpre, fpre = xcur, fcur
        if abs(scur) > delta:
            xcur += scur
        else:
            xcur += delta if sbis > 0.0 else -delta
        fcur = f(xcur)
        if math.isnan(fcur):
            raise ValueError(f"the function value at x={xcur} is NaN; solver cannot continue")
    raise ValueError(f"brentq failed to converge after {maxiter} iterations, value is {xcur}")


def _positive(u, what: str) -> float:
    u = float(u)
    if not (u > 0.0) or math.isnan(u):
        raise ValueError(f"{what} needs u > 0, got {u}")
    return u


def _refusal(what: str):
    def refuse(spec, *args):
        raise ValueError(f"{what} is undefined for the {spec.kind} loss")
    return refuse


class _Kind:
    """One loss kind's record: plain functions, each taking the LossSpec
    first, that LossSpec's methods of the same names call; records are never
    instantiated. Kernels get z as a float array, inverse and neg_inv_deriv
    a float u > 0. log_pair(spec, z) is the kind's kernel pair: two
    callables, for ln l(z) and ln |l'(z)|, that share what both need;
    log_value and log_abs_deriv each call one. A kind with branches
    takes _branched as its log_pair and names branch(lo, high), which picks
    one of its branch pairs, once per call, from the smallest margin lo and
    high(), the largest, read only when lo does not decide. phi(spec, u, log_u) is
    -l^{-1}(u) from u's pair; it stays finite where u underflows for exp and
    log, while semicircle gives -inf once -ln u passes 709.78 and poly:k
    once -ln u / k does, since -l^{-1}(u) is itself past the float range
    there. mpmath(spec, mp) is (l, l', -l^{-1}) in the caller's mpmath
    context. softmax: the phi coefficients are the softmax of ln l(z_i)
    under either aggregation. unit_log_slopes: |d ln l/dz| <= 1 and |d ln
    |l'|/dz| <= 1 at every z (so |l'| <= l), the slope bounds of descent's
    convexity screen. The smooth operations refuse here, and hinge keeps
    the refusals (smooth is False for it).
    """

    softmax = False
    unit_log_slopes = False
    inverse = _refusal("inverse")
    neg_inv_deriv = _refusal("neg_inv_deriv")
    log_neg_inv_deriv = _refusal("log_neg_inv_deriv")
    phi = _refusal("phi")
    lipschitz_const = _refusal("lipschitz_const")
    mpmath = _refusal("the mpmath form")

    def __init_subclass__(cls):
        cls.smooth = cls.inverse is not _Kind.inverse

    def log_value(spec, z):
        return spec.ops.log_pair(spec, z)[0]()

    def log_abs_deriv(spec, z):
        return spec.ops.log_pair(spec, z)[1]()


def _branched(kind, spec, z):
    """The kernel pair of a kind with branches (its record's log_pair, as a
    classmethod), from one branch decision per call, whatever z's shape:
    kind.branch(lo, high), lo the smallest margin and high() the largest.
    Each branch has the bits of the full expressions on the margins it
    takes, so a stack whose rows would take different branches takes full,
    and every row has the bits of its solo call. A nan margin makes lo and
    high() nan, which only the full branch takes, and so does an empty z.
    A call makes one reduction when lo decides, two otherwise."""
    branch = kind.branch
    if not z.size:
        return branch(math.nan, lambda: math.nan)(spec, z)
    return branch(float(np.minimum.reduce(z, axis=None)),
                  lambda: float(np.maximum.reduce(z, axis=None)))(spec, z)


class _Exp(_Kind):
    softmax = True
    unit_log_slopes = True  # ln l = ln |l'| = -z

    def value(spec, z):
        return np.exp(-z)
    second_deriv = value  # l'' = l

    def deriv(spec, z):
        return -np.exp(-z)

    def log_pair(spec, z):
        a = -z
        value = lambda: a  # noqa: E731
        return value, value  # ln |l'| = ln l

    def inverse(spec, u):
        return -math.log(u)

    def neg_inv_deriv(spec, u):
        return 1.0 / u

    def log_neg_inv_deriv(spec, value, log_value):
        return -log_value

    def phi(spec, u, log_u):
        return log_u

    def lipschitz_const(spec, n):
        return 1.0

    def mpmath(spec, mp):
        return (lambda z: mp.exp(-z)), (lambda z: -mp.exp(-z)), mp.log


def _log_expit(x):
    """ln sigmoid(x) = -ln(1 + e^{-x}) on a float array, with the bits of
    scipy.special.log_expit (scipy 1.17, xsf), which computes
    x - log1p(exp(x)) for x < 0 and -log1p(exp(-x)) otherwise.

    This is -logaddexp(0, -x). numpy's npy_logaddexp(a, b) returns
    a + LOGE2 when a == b; otherwise, with tmp = a - b, a + log1p(exp(-tmp))
    for tmp > 0, b + log1p(exp(tmp)) for tmp <= 0, and tmp itself for a nan.
    At a = 0, b = -x:
    - x > 0: tmp = x, and 0 + log1p(exp(-x)) is log1p(exp(-x)), which is
      never -0; negated, scipy's expression.
    - x < 0: tmp = 0 - (-x) = x exactly, giving -x + log1p(exp(x)), a sum
      above 0. Round-to-nearest is symmetric in sign, so its negation is the
      rounded x - log1p(exp(x)), scipy's expression.
    - x = +-0: a == b gives 0 + LOGE2, the rounded ln 2, which is what libm's
      log1p(1) returns; negated, scipy's -log1p(exp(-0)).
    - x = inf gives -(0 + log1p(0)) = -0.0, and x = -inf gives -(inf + 0)
      = -inf, as scipy does. A nan comes back as tmp, sign and payload as
      scipy's, and logaddexp warns 'invalid' on it, as in log_value.
    Both libraries call exp and log1p from the process's one libm, on the
    same arguments. tests/test_losses.py compares the bytes with scipy's.
    """
    return -np.logaddexp(0.0, -x)


class _Log(_Kind):
    # d ln l/dz = -sigmoid(-z)/l(z), in [-1, 0) as sigmoid(-z) <= ln(1 + e^{-z});
    # d ln |l'|/dz = -sigmoid(z), in (-1, 0)
    unit_log_slopes = True

    def value(spec, z):
        return np.logaddexp(0.0, -z)

    def deriv(spec, z):
        return -_special.expit(-z)  # -sigmoid(-z)

    def second_deriv(spec, z):
        # sigmoid(z) * sigmoid(-z), assembled in log space to avoid underflow
        return np.exp(_log_expit(z) + _log_expit(-z))

    log_pair = classmethod(_branched)

    def branch(lo, high):
        if lo > 700.0:
            return _Log.past_700
        if high() <= 700.0:
            return _Log.positive if lo > 0.0 else _Log.at_or_below_700
        return _Log.full

    def past_700(spec, z):
        """Every margin past 700: both logs are -z to the last bit. ln l(z) is
        the full expression's -z branch. ln |l'(z)| is _log_expit(-z), which
        at x = -z < 0 is x - log1p(e^x) (scipy's log_expit expression), and
        log1p(e^x) < 1e-304 is far below half an ulp of |x| >= 700."""
        a = -z
        value = lambda: a  # noqa: E731
        return value, value

    def at_or_below_700(spec, z):
        # every margin at or below 700: the cap of the full expression is idle
        return (lambda: np.log(np.logaddexp(0.0, -z))), (lambda: _log_expit(-z))

    def positive(spec, z):
        """Every margin in (0, 700]: ln |l'(z)| = -z - s with s the softplus
        logaddexp(0, -z) that ln l(z) = ln s takes, to the bit of
        _log_expit(-z) = -logaddexp(0, z). By _log_expit's docstring, at z >
        0 s is log1p(exp(-z)) and logaddexp(0, z) is z + log1p(exp(-z)), the
        same log1p on the same argument; the rounded -z - s is the negated
        rounded z + s, rounding being symmetric in sign."""
        s = np.logaddexp(0.0, -z)
        return (lambda: np.log(s)), (lambda: -z - s)

    def full(spec, z):
        # ln softplus(-z), -z past 700; the cap keeps softplus above 0, so the
        # log never sees 0
        return ((lambda: np.where(z > 700.0, -z,
                                  np.log(np.logaddexp(0.0, -np.minimum(z, 700.0))))),
                (lambda: _log_expit(-z)))

    def inverse(spec, u):
        # -ln(e^u - 1) = -(u + log(1 - e^{-u})), stable for u tiny and huge
        return -(u + log1mexp(u))

    def neg_inv_deriv(spec, u):
        return 1.0 / (-math.expm1(-u))

    def log_neg_inv_deriv(spec, value, log_value):
        # -ln(1 - e^{-u}); for u below ~1e-8, ln(1-e^{-u}) = ln u - u/2 + O(u^2)
        if value > 1e-8:
            return -log1mexp(value)
        return -(log_value + math.log1p(-value / 2.0))

    def phi(spec, u, log_u):
        # ln(e^u - 1) = u + ln(1 - e^{-u}); for tiny u this is ln u + u/2 + ...
        if u > 1e-8:
            return u + log1mexp(u)
        return log_u + u / 2.0

    def lipschitz_const(spec, n):
        return float(n) if spec.aggregation == "sum" else 1.0

    def mpmath(spec, mp):
        return ((lambda z: mp.log1p(mp.exp(-z))), (lambda z: -1 / (1 + mp.exp(z))),
                (lambda u: mp.log(mp.expm1(u))))


class _Signed(_Kind):
    """A kind whose kernel pair branches at z = 0: right takes margins that
    are all >= 0, left margins that are all < 0, and full any others as one
    np.where of the two."""

    log_pair = classmethod(_branched)

    @classmethod
    def branch(cls, lo, high):
        if lo >= 0.0:
            return cls.right
        if high() < 0.0:
            return cls.left
        return cls.full

    @classmethod
    def full(cls, spec, z):
        # left on z with -1 where z >= 0 (a nan margin goes left and stays
        # nan), right on z with 0 where z < 0, then one np.where
        on_right = z >= 0
        left = cls.left(spec, np.where(on_right, -1.0, z))
        right = cls.right(spec, np.where(on_right, z, 0.0))
        return ((lambda: np.where(on_right, right[0](), left[0]())),
                (lambda: np.where(on_right, right[1](), left[1]())))


class _Poly(_Signed):
    def value(spec, z):
        k = spec.k
        neg = z < 0
        return np.where(neg, -2.0 * k * z + (1.0 - np.where(neg, z, 0.0)) ** (-k),
                        (1.0 + np.where(neg, 0.0, z)) ** (-k))

    def deriv(spec, z):
        k = spec.k
        neg = z < 0
        return np.where(neg, -2.0 * k + k * (1.0 - np.where(neg, z, 0.0)) ** (-k - 1.0),
                        -k * (1.0 + np.where(neg, 0.0, z)) ** (-k - 1.0))

    def second_deriv(spec, z):
        k = spec.k
        base = np.where(z < 0, 1.0 - z, 1.0 + z)
        return k * (k + 1.0) * base ** (-k - 2.0)

    def right(spec, z):
        # l = (1 + z)^-k: both logs read one log1p
        k = spec.k
        log1p = np.log1p(z)
        return (lambda: -k * log1p), (lambda: math.log(k) - (k + 1.0) * log1p)

    def left(spec, z):
        # l = -2kz + (1 - z)^-k
        k = spec.k
        base = 1.0 - z
        return ((lambda: np.log(-2.0 * k * z + base ** (-k))),
                (lambda: math.log(k) + np.log(2.0 - base ** (-k - 1.0))))

    def inverse(spec, u):
        """Closed form on the right branch (u <= 1). The left branch is
        solved by Brent's method (_brentq, a port of scipy's brentq) on the
        bracket [-(u/(2k)) - 1, 0], its lower end moved out by a few ulps
        where rounding has cost it its sign change."""
        k = spec.k
        if u <= 1.0:
            try:
                return u ** (-1.0 / k) - 1.0
            except OverflowError:  # k < 1.05 and u tiny: z is past the float range
                return math.inf

        def gap(t: float) -> float:
            # value(spec, t) - u in plain floats, the same operations in the
            # same order, without a 0-d array per call
            if t < 0.0:
                return -2.0 * k * t + (1.0 - t) ** (-k) - u
            return (1.0 + t) ** (-k) - u

        lo = -(u / (2.0 * k)) - 1.0  # l(lo) >= -2k*lo > u, brackets the root with 0
        if lo == -math.inf:
            return -math.inf  # u = inf, or a root beyond the float range
        while gap(lo) < 0.0:
            # once |lo| >= 2^53 the -1 is lost and -2k*lo can round below u;
            # the root then lies a few ulps further out
            lo = math.nextafter(lo, -math.inf)
        return _brentq(gap, lo, 0.0, xtol=1e-15, rtol=8.9e-16)

    def neg_inv_deriv(spec, u):
        k = spec.k
        if u <= 1.0:
            try:
                return (1.0 / k) * u ** (-(k + 1.0) / k)
            except OverflowError:  # u tiny: past the float range
                return math.inf
        z = _Poly.inverse(spec, u)
        # l'(z) in plain floats, the same operations in the same order as deriv
        if z < 0.0:
            return -1.0 / (-2.0 * k + k * (1.0 - z) ** (-k - 1.0))
        return -1.0 / (-k * (1.0 + z) ** (-k - 1.0))

    def log_neg_inv_deriv(spec, value, log_value):
        k = spec.k
        if value > 1.0:
            return math.log(_Poly.neg_inv_deriv(spec, float(value)))
        return -math.log(k) - ((k + 1.0) / k) * log_value

    def phi(spec, u, log_u):
        if u > 1.0:
            return -spec.inverse(u)
        with np.errstate(over="ignore"):
            return float(1.0 - np.exp(-log_u / spec.k))

    def lipschitz_const(spec, n):
        return float(n) if spec.aggregation == "sum" else n ** (1.0 / spec.k)

    def mpmath(spec, mp):
        k = mp.mpf(spec.k)

        def value(z):
            return (1 + z) ** -k if z >= 0 else -2 * k * z + (1 - z) ** -k

        def deriv(z):
            return -k * (1 + z) ** (-k - 1) if z >= 0 else -2 * k + k * (1 - z) ** (-k - 1)

        def neg_inverse(u):
            if u <= 1:
                return 1 - u ** (-1 / k)
            lo = -u / (2 * k) - 1  # l(lo) > u > l(0): the root lies in (lo, 0)
            return -mp.findroot(lambda t: value(t) - u, (lo, mp.mpf(0)), solver="anderson")

        return value, deriv, neg_inverse


class _Semicircle(_Signed):
    def value(spec, z):
        h = np.hypot(z, 2.0)
        # (h - z)/2 cancels for large positive z; 2/(h+z) does not.
        return np.where(z >= 0, 2.0 / (h + np.abs(z)), (h - z) / 2.0)

    def deriv(spec, z):
        h = np.hypot(z, 2.0)
        # (z/h - 1)/2 cancels for large positive z; -2/(h(h+z)) is exact there
        return np.where(z >= 0, -2.0 / (h * (h + np.abs(z))), (z / h - 1.0) / 2.0)

    def second_deriv(spec, z):
        return 2.0 / np.hypot(z, 2.0)**3

    def right(spec, z):
        # l = 2 / (h + |z|), h = hypot(z, 2): both logs read h and ln(h + |z|)
        h = np.hypot(z, 2.0)
        log_sum = np.log(h + np.abs(z))
        return (lambda: _LN2 - log_sum), (lambda: _LN2 - np.log(h) - log_sum)

    def left(spec, z):
        # l = (h - z) / 2, and |l'| = (1 - z/h) / 2
        h = np.hypot(z, 2.0)
        return (lambda: np.log((h - z) / 2.0)), (lambda: np.log((1.0 - z / h) / 2.0))

    def inverse(spec, u):
        return 1.0 / u - u

    def neg_inv_deriv(spec, u):
        uu = u * u  # 0.0 below u = 1.6e-162, where 1 + 1/u^2 is far past the float range
        return 1.0 + 1.0 / uu if uu else math.inf

    def log_neg_inv_deriv(spec, value, log_value):
        # ln(1 + 1/u^2) = ln(1 + e^{-2 ln u})
        return float(np.logaddexp(0.0, -2.0 * log_value))

    def phi(spec, u, log_u):
        if u > 1e-150:
            return u - 1.0 / u
        with np.errstate(over="ignore"):
            return float(-np.exp(-log_u))

    def lipschitz_const(spec, n):
        return float(n) if spec.aggregation == "sum" else n + 1.0

    def mpmath(spec, mp):
        return ((lambda z: (mp.sqrt(z * z + 4) - z) / 2),
                (lambda z: (z / mp.sqrt(z * z + 4) - 1) / 2), (lambda u: u - 1 / u))


class _Hinge(_Kind):
    def value(spec, z):
        return np.maximum(0.0, -z)

    def deriv(spec, z):
        return np.where(z <= 0, -1.0, 0.0)  # the subgradient with l'(0) := -1

    def second_deriv(spec, z):
        return np.zeros_like(z)

    def log_pair(spec, z):
        # -inf where the loss vanishes; the log never sees 0
        return ((lambda: np.where(z < 0, np.log(np.maximum(-z, 1e-300)), -np.inf)),
                (lambda: np.where(z <= 0, 0.0, -np.inf)))


_KINDS = {"exp": _Exp, "log": _Log, "poly": _Poly, "semicircle": _Semicircle, "hinge": _Hinge}


def _elementwise(kernel, spec, z):
    """kernel(spec, z) on z as a float array; a float z gives a float back."""
    z = np.asarray(z, dtype=float)
    out = kernel(spec, z)
    return float(out) if z.ndim == 0 else out


@dataclass(frozen=True)
class LossSpec:
    """A loss kind plus its parameters.

    k is only meaningful for kind="poly" (exponent, k >= 1). aggregation
    picks the argument of the transform phi = -l^{-1}(u): "mean" takes
    u = L, "sum" takes u = n L (see descent.phi_from_risk). The sample count
    n is not a field: it is the dataset's (Dataset.n), and what needs it
    (lipschitz_const, the sum transform) takes it as an argument.
    """

    kind: str
    k: float = math.nan
    aggregation: str = "mean"

    def __post_init__(self):
        if self.kind not in _KINDS:
            raise ValueError(f"unknown loss kind {self.kind!r}, expected one of {tuple(_KINDS)}")
        if self.kind == "poly" and not (math.isfinite(self.k) and self.k > 0.0):
            raise ValueError(f"poly loss: k must be > 0 (finite), got {self.k}")
        if self.aggregation not in AGGREGATIONS:
            raise ValueError(
                f"unknown aggregation {self.aggregation!r}, expected one of {AGGREGATIONS}")
        if self.aggregation == "sum" and not self.ops.smooth:
            raise ValueError(f"the {self.kind} loss has no transform to aggregate")

    @property
    def name(self) -> str:
        base = f"poly:{self.k:g}" if self.kind == "poly" else self.kind
        return f"{base}/sum" if self.aggregation == "sum" else base

    @property
    def ops(self) -> type[_Kind]:
        """The record of the kind's operations, which the methods below call."""
        return _KINDS[self.kind]

    def with_n(self, n: int) -> "LossSpec":
        """This spec unchanged (n is the dataset's); kept for callers that still bind n."""
        return self

    def with_aggregation(self, aggregation: str) -> "LossSpec":
        return replace(self, aggregation=aggregation)

    def value(self, z):
        return _elementwise(_KINDS[self.kind].value, self, z)

    def deriv(self, z):
        return _elementwise(_KINDS[self.kind].deriv, self, z)

    def second_deriv(self, z):
        return _elementwise(_KINDS[self.kind].second_deriv, self, z)

    def log_value(self, z):
        return _elementwise(_KINDS[self.kind].log_value, self, z)

    def log_abs_deriv(self, z):
        return _elementwise(_KINDS[self.kind].log_abs_deriv, self, z)

    def inverse(self, u: float) -> float:
        """Solve l(z) = u for z; ValueError for u <= 0."""
        return _KINDS[self.kind].inverse(self, _positive(u, "inverse"))

    def neg_inv_deriv(self, u: float) -> float:
        """(-l^{-1})'(u): the derivative of the negated inverse, always positive."""
        return _KINDS[self.kind].neg_inv_deriv(self, _positive(u, "neg_inv_deriv"))

    def log_neg_inv_deriv(self, value: float, log_value: float) -> float:
        """ln((-l^{-1})'(u)) from the (value, log_value) pair of u.

        Works even when value has underflowed to 0.0; log_value is then the
        authoritative representation of u.
        """
        return _KINDS[self.kind].log_neg_inv_deriv(self, value, log_value)

    def lipschitz_const(self, n: int) -> float:
        """Uniform bound C on the transformed-objective gradient norm over a
        dataset of sample count n (Dataset.n, a positive integer).

        Mean aggregation: exp and log give C = 1 regardless of n, derived:
        the coefficients c_i = mult_i |l'(z_i)| / (n |l'(l^{-1}(L))|) sum to
        1 for exp (a softmax), and for log |l'(z)| = 1 - e^{-l(z)} is
        concave in l, so Jensen gives sum_i c_i <= 1. poly's n^{1/k} and
        semicircle's n + 1 are measured on probes, not derived:
        check_gradient_inequalities finds the gradient norm below them (its
        grad-norm and step-align rows), and nothing more is claimed.

        Sum aggregation: exp gives C = 1 (its gradient is the same softmax
        as under the mean); the others give C = n. Derivation: grad phi is
        sum_i c_i y_i x_i with c_i = mult_i l'(z_i) / l'(l^{-1}(S)), S = n L.
        Every l(z_i) <= S, so l^{-1}(S) <= z_i, and a convex decreasing loss
        has |l'(l^{-1}(S))| >= |l'(z_i)|; each c_i <= mult_i, and unit-ball
        rows give |grad phi| <= n. The log loss comes close to it (c_i -> 1
        as every z_i -> -inf).
        """
        if not (isinstance(n, int) and n >= 1):
            raise ValueError(f"sample count n must be a positive integer, got {n!r}")
        return _KINDS[self.kind].lipschitz_const(self, n)


def parse_loss(name: str) -> LossSpec:
    """Parse a CLI-style loss name: exp | log | poly:<k> | semicircle | hinge."""
    name = name.strip()
    if name.startswith("poly:"):
        raw = name[len("poly:"):]
        try:
            k = float(raw)
        except ValueError:
            raise ValueError(f"bad poly exponent {raw!r} in loss name {name!r}") from None
        return LossSpec("poly", k=k)
    if name in _KINDS and name != "poly":
        return LossSpec(name)
    raise ValueError(f"unknown loss name {name!r}")


EXP = LossSpec("exp")
LOG = LossSpec("log")
SEMICIRCLE = LossSpec("semicircle")
HINGE = LossSpec("hinge")


def poly(k: float) -> LossSpec:
    return LossSpec("poly", k=float(k))
