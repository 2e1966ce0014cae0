"""Unit and property tests for margin_lab.losses.

Expected values marked as oracle-frozen were computed with the independent
naive implementations in _oracles.py (finite differences and bisection) and
then pinned as constants.
"""

import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import margin_lab
from margin_lab.cli import ConfigError, parse_config
from margin_lab.descent import GDConfig, RiskValue, general_loss_risk_log_bound, phi_from_risk
from margin_lab.losses import (
    EXP,
    HINGE,
    LOG,
    SEMICIRCLE,
    LossSpec,
    _brentq,
    log1mexp,
    parse_loss,
    poly,
)

from _oracles import array_log1mexp, bisect_inverse, fd_deriv, log_loss_log_value

SMOOTH = [EXP, LOG, poly(1.0), poly(2.0), poly(3.5), SEMICIRCLE]
ALL = SMOOTH + [HINGE]

moderate_z = st.floats(min_value=-30.0, max_value=30.0, allow_nan=False)
wide_z = st.floats(min_value=-700.0, max_value=700.0, allow_nan=False)


class TestPinnedValues:
    def test_value_at_zero(self):
        assert EXP.value(0.0) == 1.0
        assert LOG.value(0.0) == pytest.approx(math.log(2.0), rel=1e-15)
        assert SEMICIRCLE.value(0.0) == 1.0
        assert poly(2.0).value(0.0) == 1.0
        assert HINGE.value(0.0) == 0.0

    def test_hinge_values(self):
        assert HINGE.value(-3.0) == 3.0
        assert HINGE.value(2.0) == 0.0
        assert HINGE.deriv(-1.0) == -1.0
        assert HINGE.deriv(0.0) == -1.0  # fixed subgradient at the kink
        assert HINGE.deriv(0.5) == 0.0

    def test_deriv_pinned(self):
        assert EXP.deriv(0.0) == -1.0
        assert LOG.deriv(0.0) == pytest.approx(-0.5, rel=1e-15)
        # oracle-frozen: central FD of the left-branch poly formula, k=1, z=-1
        assert poly(1.0).deriv(-1.0) == pytest.approx(-1.75, abs=1e-12)

    def test_inverse_pinned(self):
        assert EXP.inverse(1.0) == 0.0
        assert SEMICIRCLE.inverse(1.0) == 0.0
        assert poly(2.0).inverse(0.25) == pytest.approx(1.0, rel=1e-12)
        assert LOG.inverse(math.log(2.0)) == pytest.approx(0.0, abs=1e-15)

    def test_neg_inv_deriv_pinned(self):
        assert EXP.neg_inv_deriv(0.5) == 2.0
        assert LOG.neg_inv_deriv(math.log(2.0)) == pytest.approx(2.0, rel=1e-14)
        assert SEMICIRCLE.neg_inv_deriv(1.0) == 2.0

    def test_lipschitz_const_pinned(self):
        assert LOG.with_n(100).lipschitz_const() == 1.0
        assert EXP.with_n(7).lipschitz_const() == 1.0
        assert poly(2.0).with_n(16).lipschitz_const() == 4.0
        assert SEMICIRCLE.with_n(9).lipschitz_const() == 10.0

    def test_parse_loss(self):
        assert parse_loss("exp") == EXP
        assert parse_loss("log") == LOG
        assert parse_loss("semicircle") == SEMICIRCLE
        assert parse_loss("hinge") == HINGE
        assert parse_loss("poly:2") == poly(2.0)
        assert parse_loss("poly:3.5").k == 3.5
        with pytest.raises(ValueError):
            parse_loss("gauss")
        with pytest.raises(ValueError):
            parse_loss("poly:abc")
        assert parse_loss("poly:0.5").k == 0.5  # any k > 0 is a valid degree
        with pytest.raises(ValueError, match="k must be > 0"):
            parse_loss("poly:0")

    def test_spec_validation(self):
        with pytest.raises(ValueError):
            LossSpec("nope")
        with pytest.raises(ValueError):
            LossSpec("poly", k=0.0)
        with pytest.raises(ValueError):
            LossSpec("exp", n=0)
        assert poly(2.0).name == "poly:2"
        assert EXP.with_n(12).n == 12

    def test_aggregation(self):
        assert LOG.aggregation == "mean"
        summed = LOG.with_aggregation("sum")
        assert summed.name == "log/sum" and summed.kind == "log"
        assert summed.with_n(9).aggregation == "sum"
        assert poly(2.0).with_aggregation("sum").name == "poly:2/sum"
        with pytest.raises(ValueError, match="aggregation"):
            LossSpec("log", aggregation="max")
        with pytest.raises(ValueError):
            HINGE.with_aggregation("sum")

    def test_lipschitz_const_sum(self):
        # sum transform: C = n, except exp whose gradient is the same softmax
        assert EXP.with_n(7).with_aggregation("sum").lipschitz_const() == 1.0
        for spec in (LOG, poly(2.0), SEMICIRCLE):
            assert spec.with_n(16).with_aggregation("sum").lipschitz_const() == 16.0

    def test_unsupported_for_hinge(self):
        # every operation the hinge record lacks refuses, each with its own text
        r = RiskValue(0.5, math.log(0.5))
        for call, message in (
            (lambda: HINGE.inverse(0.5), "inverse is undefined for the hinge loss"),
            (lambda: HINGE.neg_inv_deriv(0.5), "neg_inv_deriv is undefined for the hinge loss"),
            (lambda: HINGE.log_neg_inv_deriv(0.5, math.log(0.5)),
             "log_neg_inv_deriv is undefined for the hinge loss"),
            (lambda: HINGE.lipschitz_const(), "lipschitz_const is undefined for the hinge loss"),
            (lambda: phi_from_risk(HINGE, r), "phi is undefined for the hinge loss"),
            (lambda: HINGE.ops.mpmath(HINGE, None),
             "the mpmath form is undefined for the hinge loss"),
            (lambda: general_loss_risk_log_bound(HINGE, 0.1, 8.0, 10),
             "no risk bound for the hinge loss"),
            (lambda: GDConfig(loss=HINGE, eta=1.0, steps=3),
             "adaptive mode needs an invertible loss; hinge has none"),
            (lambda: HINGE.with_aggregation("sum"), "the hinge loss has no transform to aggregate"),
        ):
            with pytest.raises(ValueError) as info:
                call()
            assert str(info.value) == message
        assert not HINGE.ops.smooth and all(spec.ops.smooth for spec in SMOOTH)
        # the CLI refuses what needs them: adaptive hinge runs, hinge benches
        run = "dataset = two-point:gamma=0.05\nloss = hinge\nstepsize = adaptive:1\nsteps = 3\n"
        for text, command, error in (
            (run, "run", (2, "hinge loss has no inverse; use stepsize = constant:<eta>")),
            ("loss = hinge\n", "bench", (1, "bench GD methods need a smooth loss")),
        ):
            with pytest.raises(ConfigError) as info:
                parse_config(text, command)
            assert info.value.errors == [error]

    def test_inverse_domain_errors(self):
        for spec in SMOOTH:
            with pytest.raises(ValueError):
                spec.inverse(0.0)
            with pytest.raises(ValueError):
                spec.inverse(-1.0)
            with pytest.raises(ValueError):
                spec.neg_inv_deriv(0.0)

    @pytest.mark.parametrize("k", [0.5, 1.0, 2.0, 3.0, 7.5])
    def test_poly_limits_at_infinite_u(self, k):
        # the limits of l^{-1} and of -1/l'(z) as z -> -inf, where l' -> -2k
        spec = poly(k)
        assert spec.inverse(math.inf) == -math.inf
        assert spec.neg_inv_deriv(math.inf) == 1.0 / (2.0 * k)
        assert spec.log_neg_inv_deriv(math.inf, math.inf) == pytest.approx(
            -math.log(2.0 * k), rel=1e-15, abs=1e-15)
        overflowed = RiskValue(math.inf, 800.0)
        assert phi_from_risk(spec.with_n(3), overflowed) == math.inf

    @pytest.mark.parametrize("spec", SMOOTH + [poly(0.5)], ids=lambda s: s.name)
    def test_tiny_u_past_the_float_range_gives_inf(self, spec):
        # (-l^{-1})'(u) and poly's l^{-1}(u) grow past the float range as
        # u -> 0: inf there, and the log forms stay finite
        for u in (1e-8, 1e-200, 1e-300, 5e-324):
            lnid = spec.log_neg_inv_deriv(u, math.log(u))
            assert math.isfinite(lnid)
            if lnid > math.log(sys.float_info.max):
                assert spec.neg_inv_deriv(u) == math.inf
            else:
                assert spec.neg_inv_deriv(u) == pytest.approx(math.exp(lnid), rel=1e-12)
        assert poly(0.5).inverse(1e-200) == math.inf
        assert poly(1.0).inverse(5e-324) == math.inf

    def test_other_kinds_limits_at_infinite_u(self):
        assert EXP.inverse(math.inf) == -math.inf
        assert LOG.inverse(math.inf) == -math.inf
        assert SEMICIRCLE.inverse(math.inf) == -math.inf
        assert LOG.neg_inv_deriv(math.inf) == 1.0
        assert SEMICIRCLE.neg_inv_deriv(math.inf) == 1.0


# (k, u) on poly's left branch: u just above 1, moderate, and >= 1e300
SOLVER_GRID = [
    (k, u)
    for k in (0.5, 1.0, 2.0, 3.0, 7.5)
    for u in (math.nextafter(1.0, 2.0), 1.0 + 1e-12, 1.0 + 1e-6, 1.001, 1.5, 2.5, 9.0,
              1e3, 1e8, 1e12, 1e300, 1e305)
]

# Points where |lo| >= 2^53 swallows the -1 of the bracket lo = -(u/(2k)) - 1
# and l(lo) rounds below u, so the bracket [lo, 0] has no sign change: scipy's
# brentq refuses it, and _inverse widens lo by a few ulps first.
ROUNDED_BRACKETS = [
    (1.5, 8.076795365522423e18),
    (3.0, 1.1311278765939214e24),
    (3.5, 2.5511965247533405e17),
    (10.0, 4.0439887303682963e17),
]


def _scipy_left_branch(spec, u, lo):
    from scipy.optimize import brentq

    return brentq(lambda t: spec.value(t) - u, lo, 0.0, xtol=1e-15, rtol=8.9e-16)


class TestPolyLeftBranchSolver:
    """poly's inverse for u > 1 runs margin_lab's own Brent solver."""

    @pytest.mark.parametrize("k,u", SOLVER_GRID)
    def test_bit_identical_to_scipy_brentq(self, k, u):
        spec = poly(k)
        want = _scipy_left_branch(spec, u, -(u / (2.0 * k)) - 1.0)
        got = spec.inverse(u)
        assert got == want and math.copysign(1.0, got) == math.copysign(1.0, want)

    @pytest.mark.parametrize("k,u", SOLVER_GRID + ROUNDED_BRACKETS)
    def test_agrees_with_bisection(self, k, u):
        # rel 1e-12, or 1e-14 absolute near z = 0: there l(z) is computed to
        # about 1e-16 absolute, which fixes z only to about 1e-16 / k, and
        # the bisection stops at a bracket width of 1e-14
        want = bisect_inverse("poly", u, k=k)
        assert poly(k).inverse(u) == pytest.approx(want, rel=1e-12, abs=1e-14)

    @pytest.mark.parametrize("k,u", ROUNDED_BRACKETS)
    def test_widens_a_bracket_lost_to_rounding(self, k, u):
        spec = poly(k)
        with pytest.raises(ValueError, match="different signs"):
            _scipy_left_branch(spec, u, -(u / (2.0 * k)) - 1.0)
        z = spec.inverse(u)
        assert z < -(u / (2.0 * k)) - 1.0
        assert spec.value(z) == pytest.approx(u, rel=1e-15)

    @pytest.mark.parametrize("k,u", SOLVER_GRID)
    def test_neg_inv_deriv_matches_the_array_slope(self, k, u):
        spec = poly(k)
        assert spec.neg_inv_deriv(u) == -1.0 / spec.deriv(spec.inverse(u))

    def test_solver_errors(self):
        with pytest.raises(ValueError, match="NaN"):
            _brentq(lambda t: math.nan if t < 0.5 else t - 0.75, 0.0, 1.0, 1e-15, 8.9e-16)
        with pytest.raises(ValueError, match="NaN"):
            _brentq(lambda t: math.nan if 0.0 < t < 1.0 else t - 0.5, 0.0, 1.0, 1e-15, 8.9e-16)
        with pytest.raises(ValueError, match="different signs"):
            _brentq(lambda t: t + 1.0, 0.0, 1.0, 1e-15, 8.9e-16)
        with pytest.raises(ValueError, match="converge"):
            _brentq(lambda t: t ** 3 - 2.0, 0.0, 5.0, 1e-15, 8.9e-16, maxiter=2)
        assert _brentq(lambda t: t - 0.25, 0.25, 1.0, 1e-15, 8.9e-16) == 0.25

    @pytest.mark.parametrize("module", ["margin_lab", "margin_lab.cli"])
    def test_import_leaves_out_scipy_optimize(self, module):
        src = str(Path(margin_lab.__file__).resolve().parent.parent)
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
        code = (f"import sys, {module}; "
                "print(sorted(m for m in sys.modules if m.startswith('scipy.optimize')))")
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                              text=True, env=env, timeout=120)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "[]"


class TestOracleRoutes:
    """Dual-route agreement with the naive oracle implementations."""

    @pytest.mark.parametrize("spec", SMOOTH, ids=lambda s: s.name)
    def test_fd_derivative_agrees(self, spec):
        for z in [-5.0, -1.0, -0.3, 0.17, 1.0, 4.0, 12.0]:
            want = fd_deriv(spec.kind, z, k=spec.k)
            got = spec.deriv(z)
            assert got == pytest.approx(want, rel=1e-5, abs=1e-9)

    @pytest.mark.parametrize("spec", SMOOTH, ids=lambda s: s.name)
    def test_bisection_inverse_agrees(self, spec):
        for u in [0.05, 0.4, 1.0, 2.5, 9.0]:
            want = bisect_inverse(spec.kind, u, k=spec.k)
            got = spec.inverse(u)
            assert got == pytest.approx(want, rel=1e-8, abs=1e-8)

    @pytest.mark.parametrize("spec", SMOOTH, ids=lambda s: s.name)
    def test_neg_inv_deriv_is_reciprocal_slope(self, spec):
        # (-l^{-1})'(u) must equal -1 / l'(l^{-1}(u))
        for u in [0.03, 0.5, 1.0, 3.0, 20.0]:
            z = spec.inverse(u)
            want = -1.0 / spec.deriv(z)
            assert spec.neg_inv_deriv(u) == pytest.approx(want, rel=1e-10)


class TestProperties:
    @pytest.mark.parametrize("spec", SMOOTH, ids=lambda s: s.name)
    @given(z=moderate_z)
    @settings(max_examples=60, deadline=None)
    def test_positive_and_decreasing(self, spec, z):
        v = spec.value(z)
        assert v > 0.0
        assert spec.deriv(z) < 0.0
        assert spec.value(z + 0.5) < v

    @pytest.mark.parametrize("spec", SMOOTH, ids=lambda s: s.name)
    @given(z=moderate_z)
    @settings(max_examples=60, deadline=None)
    def test_convexity(self, spec, z):
        assert spec.second_deriv(z) >= 0.0
        a, b = z - 0.7, z + 0.9
        mid = spec.value((a + b) / 2.0)
        assert mid <= (spec.value(a) + spec.value(b)) / 2.0 + 1e-12

    @pytest.mark.parametrize("spec", SMOOTH, ids=lambda s: s.name)
    @given(z=st.floats(min_value=-25.0, max_value=25.0, allow_nan=False))
    @settings(max_examples=60, deadline=None)
    def test_inverse_round_trip(self, spec, z):
        u = spec.value(z)
        back = spec.inverse(u)
        assert back == pytest.approx(z, rel=1e-10, abs=1e-10)

    @pytest.mark.parametrize("spec", SMOOTH, ids=lambda s: s.name)
    @given(z=wide_z)
    @settings(max_examples=60, deadline=None)
    def test_log_value_consistent(self, spec, z):
        lv = spec.log_value(z)
        v = spec.value(z)
        if 0.0 < v < math.inf:
            assert lv == pytest.approx(math.log(v), rel=1e-12, abs=1e-12)
        assert math.isfinite(lv) or lv == math.inf

    @pytest.mark.parametrize("spec", ALL, ids=lambda s: s.name)
    @given(z=st.floats(min_value=-600.0, max_value=600.0, allow_nan=False))
    @settings(max_examples=60, deadline=None)
    def test_log_abs_deriv_consistent(self, spec, z):
        lad = spec.log_abs_deriv(z)
        d = spec.deriv(z)
        if d != 0.0 and math.isfinite(d):
            assert lad == pytest.approx(math.log(abs(d)), rel=1e-12, abs=1e-12)
        if d == 0.0:
            assert lad == -math.inf

    @pytest.mark.parametrize("spec", SMOOTH, ids=lambda s: s.name)
    @given(u=st.floats(min_value=1e-6, max_value=1e6, allow_nan=False))
    @settings(max_examples=60, deadline=None)
    def test_log_neg_inv_deriv_consistent(self, spec, u):
        want = spec.neg_inv_deriv(u)
        got = spec.log_neg_inv_deriv(u, math.log(u))
        assert got == pytest.approx(math.log(want), rel=1e-10, abs=1e-10)

    @pytest.mark.parametrize("spec", SMOOTH, ids=lambda s: s.name)
    def test_curvature_ratio_nonincreasing(self, spec):
        zs = np.linspace(-40.0, 40.0, 4001)
        ratio = spec.deriv(zs) ** 2 / (spec.value(zs) * spec.second_deriv(zs))
        assert np.all(np.diff(ratio) <= 1e-12)


class TestDeepTails:
    """Log-domain continuations where plain float64 under/overflows."""

    def test_exp_deep(self):
        assert EXP.log_value(1000.0) == -1000.0
        assert EXP.value(1000.0) == 0.0
        assert EXP.log_neg_inv_deriv(0.0, -1000.0) == 1000.0

    def test_log_loss_deep(self):
        # softplus(-z) ~ e^{-z} for huge z: log_value must track -z
        assert LOG.log_value(800.0) == pytest.approx(-800.0, rel=1e-12)
        assert LOG.log_value(50.0) == pytest.approx(
            math.log(math.log1p(math.exp(-50.0))), rel=1e-12
        )
        # inverse decay rate explodes like 1/u as u -> 0
        got = LOG.log_neg_inv_deriv(0.0, -900.0)
        assert got == pytest.approx(900.0, rel=1e-12)

    def test_log1mexp_branches(self):
        mp = pytest.importorskip("mpmath")
        mp.mp.dps = 50
        for u in [1e-12, 1e-3, 0.5, math.log(2.0), 1.0, 5.0, 50.0]:
            want = float(mp.log(1 - mp.exp(-mp.mpf(u))))
            assert log1mexp(u) == pytest.approx(want, rel=1e-13)
        assert log1mexp(1e-300) == pytest.approx(math.log(1e-300), rel=1e-12)

    def test_log1mexp_matches_the_array_form_bit_for_bit(self):
        ln2 = math.log(2.0)
        special = [ln2, math.nextafter(ln2, 0.0), math.nextafter(ln2, math.inf),
                   5e-324, 2.2250738585072014e-309, 1e-300, 745.0, math.inf]
        rng = np.random.default_rng(0)
        sweep = np.exp(rng.uniform(math.log(1e-310), math.log(800.0), 20000))
        for u in special + sweep.tolist():
            got = log1mexp(u)
            assert type(got) is float
            assert np.float64(got).tobytes() == np.float64(array_log1mexp(u)).tobytes(), u

    def test_log1mexp_off_its_domain_is_quiet(self):
        with np.errstate(all="raise", under="ignore"):
            assert log1mexp(0.0) == -math.inf
            assert log1mexp(-0.0) == -math.inf
            assert math.isnan(log1mexp(-1.0))
            assert math.isnan(log1mexp(math.nan))
        assert math.isnan(array_log1mexp(-1.0)) and math.isnan(array_log1mexp(math.nan))
        assert array_log1mexp(0.0) == -math.inf

    def test_log_value_of_log_matches_the_uncapped_kernel(self):
        edge = [700.0, math.nextafter(700.0, math.inf), 745.0, 1e308, math.inf,
                -math.inf, math.nan, -745.0, 0.0, -0.0, 36.0, -1e308]
        z = np.array(edge + np.linspace(-800.0, 800.0, 4001).tolist())
        # the old form silenced divide; the cap must make that unneeded. A nan
        # margin warns "invalid" in logaddexp in both forms.
        with np.errstate(divide="raise", over="raise", invalid="ignore"):
            assert LOG.log_value(z).tobytes() == log_loss_log_value(z).tobytes()
            for x in edge:  # a 0-d input gives a float
                got = LOG.log_value(np.array(x))
                assert type(got) is float
                assert np.float64(got).tobytes() == np.float64(log_loss_log_value(x)).tobytes(), x

    def test_semicircle_no_overflow(self):
        z = 1e200  # z*z would overflow; hypot must keep this finite
        assert SEMICIRCLE.log_value(z) == pytest.approx(math.log(2.0) - math.log(2e200), rel=1e-10)
        assert math.isfinite(SEMICIRCLE.log_abs_deriv(z))

    def test_vectorized_matches_scalar(self):
        zs = np.array([-3.0, -0.5, 0.0, 0.5, 3.0])
        for spec in ALL:
            vec = spec.value(zs)
            assert isinstance(vec, np.ndarray)
            for i, z in enumerate(zs):
                assert vec[i] == spec.value(float(z))


# Margins and risks on both sides of 0 and of l(0) = 1, out to where the
# values leave the float range
MP_SPECS = [EXP, LOG, poly(2.0), poly(0.5), SEMICIRCLE]
MP_Z = [0.0] + [s * x for s in (-1.0, 1.0)
                for x in (1e-12, 1e-6, 0.01, 0.3, 1.0, 2.5, 10.0, 40.0, 300.0)]
MP_U = [1e-300, 1e-30, 1e-8, 1e-3, 0.25, 0.5, 0.9, 1.0 - 1e-12, 1.0, 1.0 + 1e-12, 1.1,
        2.0, 10.0, 1e3, 1e8, 1e300]


class TestMpmathForm:
    """Each kind's mpmath form, the arithmetic of verify's exact checks,
    against its float kernels at 50 digits.

    Measured worst gaps on this grid: 3.5e-16 relative for l and l'
    (semicircle's l' at z = 40), 1.2e-16 relative for -l^{-1}(u) away from
    u = 1, and 2.2e-16 absolute next to it, where -l^{-1}(u) is near 0 and
    its float forms cancel. The tolerances are 1e-15 relative (4.5 ulp) and
    1e-15 absolute.
    """

    @pytest.mark.parametrize("spec", MP_SPECS, ids=lambda s: s.name)
    def test_agrees_with_the_float_kernels(self, spec):
        import mpmath

        with mpmath.workdps(50):
            value, deriv, neg_inverse = spec.ops.mpmath(spec, mpmath.mp)
            for z in MP_Z:
                assert spec.value(z) == pytest.approx(float(value(mpmath.mpf(z))), rel=1e-15), z
                assert spec.deriv(z) == pytest.approx(float(deriv(mpmath.mpf(z))), rel=1e-15), z
            for u in MP_U:
                want, got = neg_inverse(mpmath.mpf(u)), -spec.inverse(u)
                if abs(want) > sys.float_info.max:  # poly:0.5 at u = 1e-300
                    assert got == -math.inf, u
                else:
                    assert got == pytest.approx(float(want), rel=1e-15, abs=1e-15), u
