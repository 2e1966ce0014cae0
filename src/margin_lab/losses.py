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
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np
from scipy.special import expit, log_expit

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
    a float u > 0. phi(spec, u, log_u) is -l^{-1}(u) from u's pair, finite
    where u underflows; mpmath(spec, mp) is (l, l', -l^{-1}) in the caller's
    mpmath context. softmax: the phi coefficients are the softmax of
    ln l(z_i) under either aggregation. The smooth operations refuse here,
    and hinge keeps the refusals (smooth is False for it).
    """

    softmax = False
    inverse = _refusal("inverse")
    neg_inv_deriv = _refusal("neg_inv_deriv")
    log_neg_inv_deriv = _refusal("log_neg_inv_deriv")
    phi = _refusal("phi")
    lipschitz_const = _refusal("lipschitz_const")
    mpmath = _refusal("the mpmath form")

    def __init_subclass__(cls):
        cls.smooth = cls.inverse is not _Kind.inverse


class _Exp(_Kind):
    softmax = True

    def value(spec, z):
        return np.exp(-z)
    second_deriv = value  # l'' = l

    def deriv(spec, z):
        return -np.exp(-z)

    def log_value(spec, z):
        return -z
    log_abs_deriv = log_value  # ln |l'| = ln l

    def inverse(spec, u):
        return -math.log(u)

    def neg_inv_deriv(spec, u):
        return 1.0 / u

    def log_neg_inv_deriv(spec, value, log_value):
        return -log_value

    def phi(spec, u, log_u):
        return log_u

    def lipschitz_const(spec):
        return 1.0

    def mpmath(spec, mp):
        return (lambda z: mp.exp(-z)), (lambda z: -mp.exp(-z)), mp.log


class _Log(_Kind):
    def value(spec, z):
        return np.logaddexp(0.0, -z)

    def deriv(spec, z):
        return -expit(-z)  # -sigmoid(-z)

    def second_deriv(spec, z):
        # sigmoid(z) * sigmoid(-z), assembled in log space to avoid underflow
        return np.exp(log_expit(z) + log_expit(-z))

    def log_value(spec, z):
        # ln softplus(-z); for z beyond exp underflow, softplus(-z) ~ e^{-z}.
        # The cap keeps softplus above 0, so the log never sees 0.
        return np.where(z > 700.0, -z, np.log(np.logaddexp(0.0, -np.minimum(z, 700.0))))

    def log_abs_deriv(spec, z):
        return log_expit(-z)

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

    def lipschitz_const(spec):
        return float(spec.n) if spec.aggregation == "sum" else 1.0

    def mpmath(spec, mp):
        return ((lambda z: mp.log1p(mp.exp(-z))), (lambda z: -1 / (1 + mp.exp(z))),
                (lambda u: mp.log(mp.expm1(u))))


class _Poly(_Kind):
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

    def log_value(spec, z):
        k = spec.k
        neg = z < 0
        zneg = np.where(neg, z, 0.0)
        return np.where(neg, np.log(-2.0 * k * zneg + (1.0 - zneg) ** (-k)),
                        -k * np.log1p(np.where(neg, 0.0, z)))

    def log_abs_deriv(spec, z):
        k = spec.k
        neg = z < 0
        zneg = np.where(neg, z, 0.0)
        return np.where(neg, math.log(k) + np.log(2.0 - (1.0 - zneg) ** (-k - 1.0)),
                        math.log(k) - (k + 1.0) * np.log1p(np.where(neg, 0.0, z)))

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

    def lipschitz_const(spec):
        n = float(spec.n)
        return n if spec.aggregation == "sum" else n ** (1.0 / spec.k)

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


class _Semicircle(_Kind):
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

    def log_value(spec, z):
        h = np.hypot(z, 2.0)
        zneg = np.where(z < 0, z, -1.0)
        return np.where(z >= 0, _LN2 - np.log(h + np.abs(z)),
                        np.log((np.hypot(zneg, 2.0) - zneg) / 2.0))

    def log_abs_deriv(spec, z):
        h = np.hypot(z, 2.0)
        zneg = np.where(z < 0, z, -1.0)
        return np.where(z >= 0, _LN2 - np.log(h) - np.log(h + np.abs(z)),
                        np.log((1.0 - zneg / np.hypot(zneg, 2.0)) / 2.0))

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

    def lipschitz_const(spec):
        n = float(spec.n)
        return n if spec.aggregation == "sum" else n + 1.0

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

    def log_value(spec, z):
        # -inf where the loss vanishes; the log never sees 0
        return np.where(z < 0, np.log(np.maximum(-z, 1e-300)), -np.inf)

    def log_abs_deriv(spec, z):
        return np.where(z <= 0, 0.0, -np.inf)


_KINDS = {"exp": _Exp, "log": _Log, "poly": _Poly, "semicircle": _Semicircle, "hinge": _Hinge}


def _elementwise(kernel, spec, z):
    """kernel(spec, z) on z as a float array; a float z gives a float back."""
    z = np.asarray(z, dtype=float)
    out = kernel(spec, z)
    return float(out) if z.ndim == 0 else out


@dataclass(frozen=True)
class LossSpec:
    """A loss kind plus its parameters.

    k is only meaningful for kind="poly" (exponent, k >= 1). n is the sample
    count and enters through lipschitz_const and the sum aggregation; it
    defaults to 1 and can be rebound with with_n once the dataset size is
    known. aggregation picks the argument of the transform phi = -l^{-1}(u):
    "mean" takes u = L, "sum" takes u = n L (see descent.phi_from_risk).
    """

    kind: str
    k: float = math.nan
    n: int = 1
    aggregation: str = "mean"

    def __post_init__(self):
        if self.kind not in _KINDS:
            raise ValueError(f"unknown loss kind {self.kind!r}, expected one of {tuple(_KINDS)}")
        if self.kind == "poly" and not (math.isfinite(self.k) and self.k > 0.0):
            raise ValueError(f"poly loss: k must be > 0 (finite), got {self.k}")
        if not (isinstance(self.n, int) and self.n >= 1):
            raise ValueError(f"sample count n must be a positive integer, got {self.n!r}")
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
        return replace(self, n=int(n))

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

    def lipschitz_const(self) -> float:
        """Uniform bound C on the transformed-objective gradient norm.

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

        Scales with the sample count set via with_n.
        """
        return _KINDS[self.kind].lipschitz_const(self)


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
