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
from hypothesis import given, seed, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

import margin_lab
from margin_lab.cli import ConfigError, parse_config
from margin_lab.descent import GDConfig, RiskValue, general_loss_risk_log_bound, phi_from_risk
from margin_lab.losses import (
    EXP,
    HINGE,
    LOG,
    SEMICIRCLE,
    LossSpec,
    _branched,
    _brentq,
    _log_expit,
    log1mexp,
    parse_loss,
    poly,
)

from _oracles import (UNBRANCHED, array_log1mexp, bisect_inverse, fd_deriv, log_loss_log_value,
                      unbranched_log_abs_deriv, unbranched_log_value)

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

    def test_hinge_second_deriv_is_zero(self):
        got = HINGE.second_deriv(np.array([-2.0, 0.0, 3.0]))
        assert got.dtype == float and got.tolist() == [0.0, 0.0, 0.0]
        assert type(HINGE.second_deriv(0.5)) is float and HINGE.second_deriv(0.5) == 0.0

    def test_lipschitz_const_pinned(self):
        assert LOG.lipschitz_const(100) == 1.0
        assert EXP.lipschitz_const(7) == 1.0
        assert poly(2.0).lipschitz_const(16) == 4.0
        assert SEMICIRCLE.lipschitz_const(9) == 10.0

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
        for n in (0, -3, 2.5):
            with pytest.raises(ValueError, match="sample count n must be a positive integer"):
                EXP.lipschitz_const(n)
        assert poly(2.0).name == "poly:2"

    def test_aggregation(self):
        assert LOG.aggregation == "mean"
        summed = LOG.with_aggregation("sum")
        assert summed.name == "log/sum" and summed.kind == "log"
        assert poly(2.0).with_aggregation("sum").name == "poly:2/sum"
        with pytest.raises(ValueError, match="aggregation"):
            LossSpec("log", aggregation="max")
        with pytest.raises(ValueError):
            HINGE.with_aggregation("sum")

    def test_lipschitz_const_sum(self):
        # sum transform: C = n, except exp whose gradient is the same softmax
        assert EXP.with_aggregation("sum").lipschitz_const(7) == 1.0
        for spec in (LOG, poly(2.0), SEMICIRCLE):
            assert spec.with_aggregation("sum").lipschitz_const(16) == 16.0

    def test_unsupported_for_hinge(self):
        # every operation the hinge record lacks refuses, each with its own text
        r = RiskValue(0.5, math.log(0.5))
        for call, message in (
            (lambda: HINGE.inverse(0.5), "inverse is undefined for the hinge loss"),
            (lambda: HINGE.neg_inv_deriv(0.5), "neg_inv_deriv is undefined for the hinge loss"),
            (lambda: HINGE.log_neg_inv_deriv(0.5, math.log(0.5)),
             "log_neg_inv_deriv is undefined for the hinge loss"),
            (lambda: HINGE.lipschitz_const(1), "lipschitz_const is undefined for the hinge loss"),
            (lambda: phi_from_risk(HINGE, r, 1), "phi is undefined for the hinge loss"),
            (lambda: HINGE.ops.mpmath(HINGE, None),
             "the mpmath form is undefined for the hinge loss"),
            (lambda: general_loss_risk_log_bound(HINGE, 0.1, 8.0, 10, 1),
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
        assert phi_from_risk(spec, overflowed, 3) == math.inf

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
        code = (f"import sys, {module}; "
                "print(sorted(m for m in sys.modules if m.startswith('scipy.optimize')))")
        assert _fresh_python(code) == "[]"

    @pytest.mark.parametrize("module", ["margin_lab", "margin_lab.cli"])
    def test_import_leaves_out_scipy_special(self, module):
        code = (f"import sys, {module}; "
                "print(sorted(m for m in sys.modules if m.startswith('scipy.special')))")
        assert _fresh_python(code) == "[]"


def _fresh_python(code: str, cwd=None) -> str:
    """The stdout of ``code`` run in a fresh interpreter on this margin_lab."""
    src = str(Path(margin_lab.__file__).resolve().parent.parent)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, env=env, cwd=cwd, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.strip()


# The kernels with scipy.special's bits, by name: LOG's deriv (which calls
# scipy.special), second_deriv and log_abs_deriv (which run on numpy alone),
# and the value and slope of the gelu, silu and softplus blends (c = 0.77),
# with the same expressions written out on scipy.special's ufuncs. Run in a
# fresh process.
SPECIAL_KERNELS = """
import math, sys
import numpy as np
from margin_lab import _special
from margin_lab.losses import LOG
from margin_lab.two_layer import _blend_pair

z = np.concatenate([np.linspace(-800.0, 800.0, 4001), [-0.0, 1e-300, -1e-300, np.inf, -np.inf]])
c = 0.77
KERNELS = {
    "deriv": lambda: LOG.deriv(z),
    "second_deriv": lambda: LOG.second_deriv(z),
    "log_abs_deriv": lambda: LOG.log_abs_deriv(z),
    **{f"{base}:{i}": (lambda base=base, i=i: _blend_pair(base, c, z)[i])
       for base in ("gelu", "silu", "softplus") for i in (0, 1)},
}


def direct():
    from scipy.special import erf, expit, log_expit
    cdf = 0.5 * (1.0 + erf(z / math.sqrt(2.0)))
    pdf = np.exp(-0.5 * z * z) / math.sqrt(2.0 * math.pi)
    s = expit(z)
    bases = {"gelu": (z * cdf, cdf + z * pdf), "silu": (z * s, s * (1.0 + z * (1.0 - s))),
             "softplus": (np.logaddexp(0.0, z), expit(z))}
    out = {"deriv": -expit(-z), "second_deriv": np.exp(log_expit(z) + log_expit(-z)),
           "log_abs_deriv": log_expit(-z)}
    for base, (v, d) in bases.items():
        out[f"{base}:0"] = c * z + ((1.0 - c) / 4.0) * v
        out[f"{base}:1"] = c + ((1.0 - c) / 4.0) * d
    return out
"""


class TestScipySpecialOnFirstUse:
    """scipy.special loads at the first kernel that calls it (LOG's
    second_deriv and log_abs_deriv do not), and the kernels give the bits of
    the ufuncs called directly, before that load and after it."""

    @pytest.mark.parametrize("first", ["deriv", "log_abs_deriv", "second_deriv", "gelu:0"])
    def test_kernels_equal_direct_ufunc_calls_before_and_after_the_load(self, first):
        loads = first not in ("log_abs_deriv", "second_deriv")
        code = SPECIAL_KERNELS + f"""
assert "scipy.special" not in sys.modules
got = {{"{first}": KERNELS["{first}"]()}}
assert ("scipy.special" in sys.modules) is {loads}
got.update((name, kernel()) for name, kernel in KERNELS.items() if name not in got)
again = {{name: kernel() for name, kernel in KERNELS.items()}}
want = direct()
import scipy.special
print(sorted(name for name in KERNELS if not got[name].tobytes() == again[name].tobytes()
             == want[name].tobytes()),
      all(vars(_special)[n] is getattr(scipy.special, n) for n in ("erf", "expit")),
      "log_expit" in vars(_special))
"""
        assert _fresh_python(code) == "[] True False"

    def test_a_kernel_call_after_the_load_runs_no_other_python_function(self):
        """log_abs_deriv goes through the kind's kernel pair and its branch
        decision (lo = -5 reads high(), and z <= 700 takes at_or_below_700),
        and it and second_deriv call _log_expit."""
        from margin_lab import _special
        from margin_lab.two_layer import _BASES

        def lambdas(fn):
            return [c for c in fn.__code__.co_consts
                    if isinstance(c, type(fn.__code__)) and c.co_name == "<lambda>"]

        z = np.linspace(-5.0, 5.0, 11)
        log_expit = [_log_expit.__code__]
        branch = LOG.ops.at_or_below_700
        ops = LossSpec.ops.fget.__code__
        pair = [ops, _branched.__code__, LOG.ops.branch.__code__, lambdas(_branched)[1],
                branch.__code__, lambdas(branch)[1]]
        kernels = [(LOG.ops.deriv, (LOG, z), []),
                   (LOG.ops.second_deriv, (LOG, z), log_expit * 2),
                   (LOG.ops.log_abs_deriv, (LOG, z), pair + log_expit)]
        kernels += [(_BASES[base][1], (z,), []) for base in ("gelu", "silu", "softplus")]
        for kernel, args, _ in kernels:
            kernel(*args)  # loads scipy.special if this process has not yet
        assert {"erf", "expit"} <= vars(_special).keys()
        for kernel, args, helpers in kernels:
            calls = []
            sys.setprofile(lambda frame, event, arg: calls.append(frame.f_code)
                           if event == "call" else None)
            try:
                kernel(*args)
            finally:
                sys.setprofile(None)
            assert calls == [kernel.__code__] + helpers

    def test_only_its_two_ufuncs_are_read(self):
        from margin_lab import _special

        for name in ("gamma", "log_expit"):
            with pytest.raises(AttributeError, match=name):
                getattr(_special, name)

    @staticmethod
    def commands_then_loaded(tmp_path, configs: dict) -> list:
        """'<name> <exit code> <scipy.special loaded>' after each of the
        named (command, config text) pairs, run in turn in one fresh
        interpreter."""
        for name, (_, text) in configs.items():
            (tmp_path / f"{name}.cfg").write_text(text)
        runs = [(name, command) for name, (command, _) in configs.items()]
        code = (
            "import sys\nfrom margin_lab.cli import main\n"
            f"for name, command in {runs!r}:\n"
            "    code = main([command, '--config', name + '.cfg', '--out', name])\n"
            "    print(name, code, 'scipy.special' in sys.modules)\n")
        return _fresh_python(code, cwd=tmp_path).splitlines()

    def test_commands_that_call_no_such_kernel_leave_it_out(self, tmp_path):
        """The adaptive log run's smallest margin stays at or below 700 at
        every step here, so each step runs log_abs_deriv's full branch."""
        data = "dataset = random:d=10,n=100,gamma=0.1,seed=7\n"
        configs = {
            "bench": ("bench", "max_steps = 200\n"),
            "gen": ("gen", data),
            "run": ("run", "loss = exp\nstepsize = adaptive:100\nsteps = 200\n" + data),
            "run-log": ("run", "loss = log\nstepsize = adaptive:400\nsteps = 200\n" + data),
            "perceptron": ("perceptron", data + "steps = 2000\n"),
            "run-nn": ("run-nn", "loss = exp\nstepsize = adaptive:100\nsteps = 50\nwidth = 4\n"
                                 "activation = leakyrelu:0.5\n"
                                 "dataset = random:d=10,n=100,gamma=0.2,seed=7\n"),
            "run-nn-log": ("run-nn", "loss = log\nstepsize = adaptive:100\nsteps = 50\n"
                                     "width = 4\nactivation = leakyrelu:0.5\n"
                                     "dataset = random:d=10,n=100,gamma=0.2,seed=7\n"),
        }
        assert self.commands_then_loaded(tmp_path, configs) == [
            f"{name} 0 False" for name in configs]
        columns = (tmp_path / "run-log" / "trajectory.csv").read_text().splitlines()[2:]
        assert max(float(row.split(",")[5]) for row in columns) <= 700.0  # min_margin

    def test_a_constant_log_run_loads_it(self, tmp_path):
        """Constant-stepsize GD takes l', the log loss's deriv: expit."""
        configs = {"run-log-constant": ("run", "loss = log\nstepsize = constant:1\nsteps = 20\n"
                                               "dataset = random:d=10,n=100,gamma=0.1,seed=7\n")}
        assert self.commands_then_loaded(tmp_path, configs) == ["run-log-constant 0 True"]


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

    def test_semicircle_phi_below_u_1e_150(self):
        # phi = -1/u is read off ln u there, and is -inf once -ln u passes
        # 709.78: -l^{-1}(u) is itself past the float range
        import mpmath

        with mpmath.workdps(50):
            _, _, neg_inverse = SEMICIRCLE.ops.mpmath(SEMICIRCLE, mpmath.mp)
            want = float(neg_inverse(mpmath.exp(-400)))
        got = phi_from_risk(SEMICIRCLE, RiskValue(math.exp(-400.0), -400.0), 1)
        assert got == want == -5.221469689764144e+173
        assert phi_from_risk(SEMICIRCLE, RiskValue(0.0, -800.0), 1) == -math.inf

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


_ABOVE_700 = [math.nextafter(700.0, math.inf), 700.5, 745.0, 1e4, 1e308, sys.float_info.max,
              math.inf]
_AT_OR_BELOW_700 = [700.0, math.nextafter(700.0, 0.0), 36.0, 1e-300, 0.0, -0.0, -745.0,
                    -1e308, -math.inf]


def _regime(elements, min_size=1):
    return hnp.arrays(np.float64, hnp.array_shapes(min_dims=1, max_dims=2, min_side=min_size,
                                                   max_side=70), elements=elements)


_REGIMES = {
    "above": _regime(st.floats(min_value=700.0, exclude_min=True)),
    "at-or-below": _regime(st.floats(max_value=700.0)),
    "near-700": _regime(st.floats(min_value=690.0, max_value=760.0)),
    "any": _regime(st.floats(), min_size=0),
}
# the regimes of 700 and of the sign, each branch point of the kernel pairs
_PAIR_REGIMES = {
    **_REGIMES,
    "positive": _regime(st.floats(min_value=0.0, exclude_min=True)),
    "negative": _regime(st.floats(max_value=0.0, exclude_max=True)),
}


class TestLogKernelBranches:
    """The log loss's log_value and log_abs_deriv take -z when every margin
    exceeds 700 (one shared test of the first and the smallest margin);
    both branches have the bits of the unbranched expressions (_oracles),
    shape and dtype included, and a float gives a float."""

    @staticmethod
    def assert_same_bits(z):
        z = np.asarray(z, dtype=float)
        with np.errstate(invalid="ignore"):  # a nan margin warns in logaddexp
            pairs = [(LOG.log_value(z), unbranched_log_value(LOG, z)),
                     (LOG.log_abs_deriv(z), unbranched_log_abs_deriv(LOG, z))]
        for got, want in pairs:
            if z.ndim == 0:
                assert type(got) is float
                got, want = np.float64(got), np.float64(want)
            assert got.dtype == want.dtype and got.shape == want.shape
            assert got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("z", [
        _ABOVE_700, _AT_OR_BELOW_700, _ABOVE_700 + _AT_OR_BELOW_700,
        _AT_OR_BELOW_700[::-1] + _ABOVE_700[::-1], [700.0, 700.5, 745.0], [745.0, 700.0],
        [math.nan], [800.0, math.nan], [0.0, math.nan], [math.nan, 800.0], [math.nan, 0.0],
        [math.nan, math.inf, -math.inf], [], [[]],
    ], ids=["above", "at-or-below", "straddle", "straddle-reversed", "straddle-near-700",
            "straddle-near-700-reversed", "nan", "above-nan",
            "below-nan", "nan-above", "nan-below", "nan-infs", "empty", "empty-2d"])
    def test_pinned_arrays(self, z):
        self.assert_same_bits(z)

    @pytest.mark.parametrize("x", _ABOVE_700 + _AT_OR_BELOW_700 + [math.nan])
    def test_a_float(self, x):
        self.assert_same_bits(x)

    @pytest.mark.parametrize("low,high", [(700.0, 1e6), (-50.0, 700.0), (-50.0, 1e6)],
                             ids=["above", "at-or-below", "straddle"])
    def test_a_block_of_64_iterates(self, low, high):
        rng = np.random.default_rng(0)
        z = np.nextafter(rng.uniform(low, high, (64, 100)), math.inf)
        self.assert_same_bits(z)
        self.assert_same_bits(z[:, ::3])  # not contiguous

    def test_log_expit_is_the_negation_past_700(self):
        from scipy.special import log_expit

        z = np.concatenate([np.geomspace(700.0, 1e308, 200_001)[1:],
                            700.0 + np.arange(1, 2001) * np.spacing(700.0),
                            [sys.float_info.max, np.inf]])
        assert (z > 700.0).all()
        assert log_expit(-z).tobytes() == (-z).tobytes()
        assert LOG.log_abs_deriv(z).tobytes() == (-z).tobytes()
        assert LOG.log_value(z).tobytes() == (-z).tobytes()

    @settings(max_examples=300, deadline=None)
    @given(st.sampled_from(sorted(_REGIMES)).flatmap(lambda name: _REGIMES[name]))
    def test_random_arrays(self, z):
        self.assert_same_bits(z)

    def test_margins_past_700_leave_scipy_special_unloaded(self):
        code = ("import sys\nimport numpy as np\nfrom margin_lab.losses import LOG\n"
                "z = np.array([[800.0, 1e308], [np.inf, 701.0]])\n"
                "LOG.log_abs_deriv(z)\nprint('scipy.special' in sys.modules)\n"
                "LOG.log_abs_deriv(np.array([800.0, 700.0]))\n"
                "print('scipy.special' in sys.modules)\n"
                "LOG.deriv(np.array([800.0, 700.0]))\n"
                "print('scipy.special' in sys.modules)")
        assert _fresh_python(code).split() == ["False", "False", "True"]


_BRANCHED = [LOG, poly(2.0), poly(0.5), SEMICIRCLE]
_TINY = 5e-324
# Signed zeros, the subnormals next to them, 700 and its neighbours, both
# infinities and a nan, on each side of the branch points of every kind
_PAIR_EDGES = {
    "positive": [_TINY, 1e-300, 0.5, 36.0, math.nextafter(700.0, 0.0), 700.0],
    "nonnegative": [0.0, -0.0, _TINY, 3.0, 1e4, 1e308],
    "negative": [-_TINY, -1e-300, -0.5, -36.0, -700.0, -1e308],
    "past-700": [math.nextafter(700.0, math.inf), 745.0, 1e4, sys.float_info.max],
    "at-or-below-700": [700.0, math.nextafter(700.0, 0.0), 0.0, -0.0, -5.0, -math.inf],
    "straddle-700": [5.0, 700.0, math.nextafter(700.0, math.inf), 1e4],
    "signed-zeros": [0.0, -0.0],
    "mixed": [-0.0, 0.0, _TINY, -_TINY, 700.0, math.nextafter(700.0, math.inf),
              math.nextafter(700.0, 0.0), -700.0, math.inf, -math.inf],
    "inf": [math.inf],
    "minus-inf": [-math.inf],
    "infs": [math.inf, -math.inf],
    "nan": [math.nan],
    "nan-positive": [3.0, math.nan],
    "nan-negative": [math.nan, -3.0],
    "nan-past-700": [800.0, math.nan, 900.0],
    "empty": [],
}


class TestKernelPairs:
    """Each branched kind's kernel pair decides its branch once per call,
    from the smallest and the largest margin, and both of
    its kernels, through LossSpec and through the pair, have the bytes of
    the unbranched np.where kernels (_oracles.UNBRANCHED), shape and dtype
    included, in every regime."""

    @staticmethod
    def assert_same_bits(spec, z):
        z = np.asarray(z, dtype=float)
        value, abs_deriv = UNBRANCHED[spec.kind]
        # a nan margin warns in logaddexp, and margins near the float max overflow
        with np.errstate(invalid="ignore", over="ignore"):
            pair = spec.ops.log_pair(spec, z)
            got = [spec.log_value(z), spec.log_abs_deriv(z), pair[0](), pair[1]()]
            want = [value(spec, z), abs_deriv(spec, z)] * 2
        for i, (g, w) in enumerate(zip(got, want)):
            if z.ndim == 0:
                assert i >= 2 or type(g) is float  # LossSpec gives a float a float
                g, w = np.float64(g), np.float64(w)
            assert g.dtype == w.dtype and g.shape == w.shape
            assert g.tobytes() == w.tobytes()

    @pytest.mark.parametrize("edges", list(_PAIR_EDGES))
    @pytest.mark.parametrize("spec", _BRANCHED, ids=lambda s: s.name)
    def test_pinned_arrays(self, spec, edges):
        z = np.array(_PAIR_EDGES[edges])
        self.assert_same_bits(spec, z)
        self.assert_same_bits(spec, z[::-1])
        self.assert_same_bits(spec, z[None, :])  # a stack of one row
        for x in z:
            self.assert_same_bits(spec, np.array(x))  # 0-d
            self.assert_same_bits(spec, float(x))

    @pytest.mark.parametrize("spec", _BRANCHED, ids=lambda s: s.name)
    def test_empty_stacks(self, spec):
        for shape in ((0,), (1, 0), (3, 0), (0, 5), (2, 0, 3)):
            self.assert_same_bits(spec, np.zeros(shape))

    @pytest.mark.parametrize("spec,lo,hi,branch", [
        (LOG, 700.5, 800.0, "past_700"), (LOG, _TINY, 700.0, "positive"),
        (LOG, 0.0, 700.0, "at_or_below_700"), (LOG, -5.0, -1.0, "at_or_below_700"),
        (LOG, 700.0, 700.5, "full"), (LOG, 1.0, math.inf, "full"),
        (LOG, math.nan, math.nan, "full"),
        (poly(2.0), -0.0, 5.0, "right"), (poly(2.0), -5.0, -_TINY, "left"),
        (poly(2.0), -5.0, 0.0, "full"), (poly(2.0), math.nan, math.nan, "full"),
        (SEMICIRCLE, -0.0, math.inf, "right"), (SEMICIRCLE, -math.inf, -_TINY, "left"),
        (SEMICIRCLE, -_TINY, 0.0, "full"), (SEMICIRCLE, math.nan, math.nan, "full"),
    ])
    def test_the_branch_of_the_smallest_and_the_largest_margin(self, spec, lo, hi, branch):
        highs = []
        pick = spec.ops.branch(lo, lambda: highs.append(None) or hi)
        # ==, not is: the signed kinds' full is a classmethod, bound anew at each read
        assert pick == getattr(spec.ops, branch)
        # the smallest margin alone decides the branches that need no other
        assert len(highs) == (0 if branch in ("past_700", "right") else 1)

    @pytest.mark.parametrize("spec", _BRANCHED, ids=lambda s: s.name)
    def test_a_stack_makes_one_reduction_when_lo_decides_and_two_otherwise(self, spec):
        """A (k, R) stack is decided as one iterate is: np.minimum.reduce over
        the whole array, and np.maximum.reduce only when the smallest margin
        does not decide. A stack whose rows alone take different branches
        takes full."""
        rng = np.random.default_rng(0)
        # (lo, hi) of rows that lo decides, of rows that it does not, and their branches
        decides, does_not, branches = (((701.0, 2000.0), (1.0, 600.0), ("past_700", "positive"))
                                       if spec.kind == "log" else
                                       ((0.0, 50.0), (-50.0, -1.0), ("right", "left")))
        decided, undecided = rng.uniform(*decides, (3, 50)), rng.uniform(*does_not, (3, 50))
        mixed = np.stack([decided[0], undecided[1], decided[2]])
        reductions = (np.minimum.reduce, np.maximum.reduce)
        for z, branch, count in ((decided, branches[0], 1), (undecided, branches[1], 2),
                                 (mixed, "full", 2)):
            calls, picks, pick_branch = [], [], spec.ops.branch

            def counting(frame, event, arg):
                if event == "c_call" and arg in reductions:
                    calls.append(arg)

            def deciding(lo, high):
                picks.append(pick_branch(lo, high))
                return picks[-1]
            with pytest.MonkeyPatch.context() as mp:
                mp.setattr(spec.ops, "branch", deciding)
                sys.setprofile(counting)
                try:
                    spec.ops.log_pair(spec, z)
                finally:
                    sys.setprofile(None)
            assert calls == list(reductions[:count])
            assert picks == [getattr(spec.ops, branch)]
            self.assert_same_bits(spec, z)

    @pytest.mark.parametrize("n_rows", [7, 100, 101])
    @pytest.mark.parametrize("spec", _BRANCHED, ids=lambda s: s.name)
    def test_a_stack_of_mixed_rows_has_each_rows_solo_bits(self, spec, n_rows):
        rng = np.random.default_rng(n_rows)
        rows = [rng.uniform(1e-3, 600.0, n_rows), rng.uniform(-50.0, -1e-3, n_rows),
                rng.uniform(-5.0, 5.0, n_rows), rng.uniform(701.0, 2000.0, n_rows),
                rng.uniform(600.0, 800.0, n_rows), np.zeros(n_rows),
                rng.uniform(0.0, 1e4, n_rows)]
        rows[-1][n_rows // 2] = math.nan
        z = np.stack(rows + rows[::-1])
        with np.errstate(invalid="ignore"):
            stacked = [kernel() for kernel in spec.ops.log_pair(spec, z)]
            for j, row in enumerate(z):
                solo = [kernel() for kernel in spec.ops.log_pair(spec, row)]
                for got, want in zip(stacked, solo):
                    assert got[j].tobytes() == want.tobytes()
        self.assert_same_bits(spec, z)
        self.assert_same_bits(spec, z[:, ::3])  # not contiguous

    @seed(15)
    @settings(max_examples=300, deadline=None)
    @given(st.sampled_from(_BRANCHED),
           st.sampled_from(sorted(_PAIR_REGIMES)).flatmap(lambda name: _PAIR_REGIMES[name]))
    def test_random_arrays(self, spec, z):
        self.assert_same_bits(spec, z)
        self.assert_same_bits(spec, -z)


def _nan(bits: int) -> float:
    return float(np.array([bits], dtype=np.uint64).view(np.float64)[0])


# Signed zeros, the smallest subnormal, a subnormal, exp's overflow point,
# where e^{-x} leaves the subnormals, one past it, the float max, infinities
# and nans of both signs, two with a payload
_EXPIT_EDGES = [s * x for x in (0.0, 5e-324, 1e-310, 709.78, 745.13, 746.0,
                                sys.float_info.max, math.inf, math.nan) for s in (1.0, -1.0)]
_EXPIT_EDGES += [_nan(0x7FF8000000000123), _nan(0xFFF8000000000456), 1.0, -1.0, 33.27, -33.27]


class TestLogExpit:
    """_log_expit has the bits of scipy's log_expit on every float, and the
    log loss's log_abs_deriv and second_deriv, built on it, have the bits of
    their expressions on scipy's log_expit (scipy imported here only)."""

    @staticmethod
    def assert_same_bits(x):
        from scipy.special import log_expit

        x = np.asarray(x, dtype=float)
        with np.errstate(invalid="ignore"):  # a nan warns in logaddexp
            pairs = [(_log_expit(x), log_expit(x)), (LOG.log_abs_deriv(x), log_expit(-x)),
                     (LOG.second_deriv(x), np.exp(log_expit(x) + log_expit(-x)))]
        for got, want in pairs:
            if x.ndim == 0:
                got, want = np.float64(got), np.float64(want)
            assert got.dtype == want.dtype and got.shape == want.shape
            assert got.tobytes() == want.tobytes()

    def test_pinned_arrays(self):
        edges = np.array(_EXPIT_EDGES)
        self.assert_same_bits(edges)
        self.assert_same_bits(edges[::3])  # strided
        self.assert_same_bits(edges[:24].reshape(4, 6))
        self.assert_same_bits(edges[:24].reshape(6, 4).T)  # 2-d, not contiguous
        for x in edges:
            self.assert_same_bits(np.array(x))  # 0-d

    def test_nan_payloads_and_signs_pass_through(self):
        edges = np.array(_EXPIT_EDGES)
        with np.errstate(invalid="ignore"):
            got = _log_expit(edges)
        nan = np.isnan(edges)
        assert nan.sum() == 4
        assert got[nan].tobytes() == edges[nan].tobytes()

    @settings(max_examples=300, deadline=None)
    @given(st.sampled_from(sorted(_REGIMES)).flatmap(lambda name: _REGIMES[name]))
    def test_random_arrays(self, x):
        self.assert_same_bits(x)
        self.assert_same_bits(-x)
        self.assert_same_bits(x[..., ::2])

    @settings(max_examples=300, deadline=None)
    @given(st.floats(width=64))
    def test_a_float(self, x):
        self.assert_same_bits(x)
        with np.errstate(invalid="ignore"):
            assert type(LOG.log_abs_deriv(x)) is float
            assert type(LOG.second_deriv(x)) is float

    @pytest.mark.parametrize("z", [[math.nan], [0.0, math.nan], math.nan, [-math.nan],
                                   [800.0, math.nan], [math.nan, 800.0],
                                   [math.inf, -math.inf], [0.0, 1.0, -1.0], [800.0, 900.0]],
                             ids=["nan", "below-nan", "nan-0d", "minus-nan", "above-nan",
                                  "nan-above", "infs", "finite", "above"])
    def test_a_nan_margin_warns_as_in_log_value(self, z):
        """log_abs_deriv warns on a margin exactly when log_value does:
        numpy's logaddexp warns 'invalid' on a nan, once per call."""
        import warnings

        def seen(kernel):
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                kernel(np.array(z, dtype=float))
            return [(w.category, str(w.message)) for w in caught]

        assert seen(LOG.log_abs_deriv) == seen(LOG.log_value)
        has_nan = bool(np.isnan(z).any())
        assert seen(LOG.log_value) == (
            [(RuntimeWarning, "invalid value encountered in logaddexp")] if has_nan else [])


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
