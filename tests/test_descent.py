"""Tests for risk evaluation, transformed-objective gradients, the GD loop,
and the averaged-iterate bounds."""

import dataclasses
import math
import sys
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from margin_lab import descent, losses
from margin_lab.datasets import (
    Dataset,
    gen_batch_hard,
    gen_online_hard,
    gen_random_separable,
    gen_two_point,
    mean_signed_feature,
)
from margin_lab.descent import (
    GDConfig,
    RiskValue,
    Trajectory,
    averaged_risk_log_bound,
    general_loss_risk_log_bound,
    grad_phi,
    grad_risk,
    phi,
    phi_coefficients,
    phi_from_risk,
    risk,
    run_gd,
)
from margin_lab.losses import EXP, HINGE, LOG, SEMICIRCLE, LossSpec, poly
from margin_lab.two_layer import leaky_relu, make_net, run_gd_nn

from _oracles import (append_row, fd_grad, max_relative_gap, negate_rows, permute_rows,
                      random_rotation, rotate, unbranched_pair)

SMOOTH = [EXP, LOG, poly(2.0), SEMICIRCLE]


def small_ds(seed=11):
    return gen_random_separable(5, 20, 0.2, seed=seed)


def log_stepsize(loss, r, eta, n):
    """ln eta_t at risk r on a dataset of n samples, as a run binds it."""
    return descent._row_tail(loss, n, eta)(r.log_value)[1]


class TestRisk:
    def test_pinned_at_zero(self):
        ds = gen_two_point(0.05)
        assert risk(np.zeros(2), ds, EXP).value == pytest.approx(1.0, rel=1e-15)
        assert risk(np.zeros(2), ds, LOG).value == pytest.approx(math.log(2.0), rel=1e-15)

    def test_pinned_two_point(self):
        # both margins are exactly gamma at w = w*, so the risk is l(gamma)
        ds = gen_two_point(0.05)
        r = risk(np.array([1.0, 0.0]), ds, EXP)
        assert r.value == pytest.approx(math.exp(-0.05), rel=1e-14)
        assert r.value == pytest.approx(0.951229424500714, rel=1e-14)

    def test_value_is_exp_of_log_value(self):
        ds = small_ds()
        w = np.full(5, 0.3)
        for loss in SMOOTH:
            r = risk(w, ds, loss)
            assert r.value == math.exp(r.log_value)

    def test_deep_underflow_keeps_log(self):
        ds = gen_two_point(0.05)
        w = np.array([40000.0, 0.0])  # margins 2000, exp risk e^-2000
        r = risk(w, ds, EXP)
        assert r.value == 0.0
        assert r.log_value == pytest.approx(-2000.0, rel=1e-12)

    def test_value_is_inf_only_past_the_float_range(self):
        # math.exp is finite up to ln(float max) = 709.78: a log risk of 709.5
        # has a finite value, and so has phi where -l^{-1} is finite there
        big = math.exp(709.5)
        assert descent._exp_or_inf(709.5) == big < math.inf
        assert descent._risk_from_log(709.5) == RiskValue(big, 709.5)
        assert descent._exp_or_inf(709.79) == math.inf
        assert descent._exp_or_inf(-math.inf) == 0.0 and math.isnan(descent._exp_or_inf(math.nan))
        assert phi_from_risk(LOG, RiskValue(big, 709.5), 1) == big  # u + ln(1 - e^-u) = u
        assert phi_from_risk(SEMICIRCLE, RiskValue(big, 709.5), 1) == big  # u - 1/u = u

    def test_weighted_matches_materialized(self):
        a = gen_batch_hard(0.1, 32)
        b = gen_batch_hard(0.1, 32, weighted=True)
        w = np.linspace(-0.2, 0.3, a.d)
        for loss in SMOOTH:
            ra, rb = risk(w, a, loss), risk(w, b, loss)
            assert ra.log_value == pytest.approx(rb.log_value, rel=1e-14)
            np.testing.assert_allclose(
                grad_phi(w, a, loss), grad_phi(w, b, loss), rtol=1e-13, atol=1e-16
            )
            np.testing.assert_allclose(
                grad_risk(w, a, loss), grad_risk(w, b, loss), rtol=1e-13, atol=1e-16
            )


def _shifted_risk_sum(loss, z, weights):
    """sum_i m_i e^{a_i - max a}, a = ln l(z): the sum behind the risk's
    log-sum-exp and the exp loss's softmax."""
    a = loss.log_value(z)
    e = np.exp(a - np.max(a))
    return float(np.sum(e if weights is None else weights * e))


class TestSumTransform:
    """phi_sum = -l^{-1}(n L): the opt-in sum aggregation."""

    def test_exp_trajectory_is_bit_identical_under_both_aggregations(self):
        ds = gen_random_separable(10, 100, 0.1, seed=3)
        for eta in (4.0, 400.0):
            a = run_gd(ds, GDConfig(loss=EXP, eta=eta, steps=200))
            b = run_gd(ds, GDConfig(loss=EXP.with_aggregation("sum"), eta=eta, steps=200))
            assert len(a.columns["t"]) == len(b.columns["t"]) == 201
            for name in ("w", "avg_w", "log_risk", "log_avg_risk", "log_stepsize",
                         "min_margin", "avg_min_margin"):
                assert np.array_equal(a.column(name), b.column(name)), name
            # phi_sum = ln(n L) = phi + ln n
            assert b.column("phi") == pytest.approx(a.column("phi") + math.log(ds.n), abs=1e-12)

    def test_weighted_matches_materialized_bit_for_bit(self):
        # The multiplicity m multiplies the exponential, so a block of m
        # identical rows and its weighted row get coefficients exactly m
        # apart whenever the two risk sums agree. The sums add the same terms
        # in different orders and may differ in the last bit; the gradients
        # then agree to rounding.
        a = gen_batch_hard(0.1, 32)
        b = gen_batch_hard(0.1, 32, weighted=True)
        mult = b.weights.astype(int)
        starts = np.cumsum(mult) - mult
        rng = np.random.default_rng(9)
        exact = 0
        for base in SMOOTH:
            loss = base.with_aggregation("sum")
            for w in rng.standard_normal((10, a.d)):
                za, zb = a.margins(w), b.margins(w)
                np.testing.assert_array_equal(za[starts], zb)
                ca = phi_coefficients(za, a, loss)
                cb = phi_coefficients(zb, b, loss)
                np.testing.assert_allclose(
                    grad_phi(w, a, loss), grad_phi(w, b, loss), rtol=1e-13, atol=1e-15)
                if _shifted_risk_sum(loss, za, None) != _shifted_risk_sum(loss, zb, b.weights):
                    continue
                exact += 1
                assert phi(w, a, loss) == phi(w, b, loss)
                for j, (s, m) in enumerate(zip(starts, mult)):
                    assert np.all(ca[s:s + m] == ca[s])
                    assert cb[j] == m * ca[s]
        assert exact >= 20  # of 40 points, seed fixed: the bitwise branch ran

    @pytest.mark.parametrize("loss", SMOOTH, ids=lambda s: s.name)
    def test_grad_fd_norm_cap_and_stepsize(self, loss):
        ds = small_ds()
        loss = loss.with_aggregation("sum")
        rng = np.random.default_rng(6)
        for _ in range(3):
            w = rng.standard_normal(ds.d) * 0.8
            g = grad_phi(w, ds, loss)
            np.testing.assert_allclose(g, fd_grad(lambda v: phi(v, ds, loss), w),
                                       rtol=1e-5, atol=1e-8)
            assert np.linalg.norm(g) <= loss.lipschitz_const(ds.n) + 1e-9
            # eta_t * grad L = eta * grad phi_sum
            r = risk(w, ds, loss)
            np.testing.assert_allclose(
                math.exp(log_stepsize(loss, r, 3.7, ds.n)) * grad_risk(w, ds, loss), 3.7 * g,
                rtol=1e-8)

    def test_log_sum_phi_closed_form(self):
        # phi_sum = ln(prod_i (1 + e^{-z_i}) - 1) for the log loss
        ds = small_ds()
        w = np.full(ds.d, 0.3)
        loss = LOG.with_aggregation("sum")
        z = ds.margins(w)
        want = math.log(math.prod(1.0 + math.exp(-zi) for zi in z) - 1.0)
        assert phi(w, ds, loss) == pytest.approx(want, rel=1e-12)

    @pytest.mark.parametrize("base", SMOOTH, ids=lambda s: s.name)
    def test_a_sum_spec_reads_n_from_the_dataset(self, base):
        """A sum-form spec carries no sample count: one spec runs on the
        random set (n = 100) and on the weighted batch-hard set (n = 64, in
        fewer rows) with the bits of the reference loop on each."""
        loss = base.with_aggregation("sum")
        for ds_name in ("random", "batch-hard-weighted"):
            ds = FUSED_DATASETS[ds_name]()
            cfg = GDConfig(loss=loss, eta=50.0, steps=30)
            assert_same_run(run_gd(ds, cfg), reference_run_gd(ds, cfg), ds_name)


class TestGradients:
    @pytest.mark.parametrize("loss", SMOOTH, ids=lambda s: s.name)
    def test_grad_risk_fd(self, loss):
        ds = small_ds()
        rng = np.random.default_rng(5)
        for _ in range(3):
            w = rng.standard_normal(ds.d) * 0.8
            want = fd_grad(lambda v: risk(v, ds, loss).value, w)
            got = grad_risk(w, ds, loss)
            np.testing.assert_allclose(got, want, rtol=1e-5, atol=1e-8)

    @pytest.mark.parametrize("loss", SMOOTH, ids=lambda s: s.name)
    def test_grad_phi_fd(self, loss):
        ds = small_ds()
        rng = np.random.default_rng(6)
        for _ in range(3):
            w = rng.standard_normal(ds.d) * 0.8
            want = fd_grad(lambda v: phi(v, ds, loss), w)
            got = grad_phi(w, ds, loss)
            np.testing.assert_allclose(got, want, rtol=1e-5, atol=1e-8)

    def test_grad_risk_at_zero_is_mean_feature(self):
        # |l'(0)| = 1 for exp, so grad L(0) = -mean of y_i x_i exactly
        ds = small_ds()
        np.testing.assert_allclose(
            grad_risk(np.zeros(ds.d), ds, EXP), -mean_signed_feature(ds), rtol=1e-14
        )

    @pytest.mark.parametrize("loss", SMOOTH, ids=lambda s: s.name)
    def test_two_path_consistency(self, loss):
        # one adaptive step via grad_phi equals eta_t * grad_risk
        ds = small_ds()
        rng = np.random.default_rng(7)
        for _ in range(3):
            w = rng.standard_normal(ds.d)
            r = risk(w, ds, loss)
            assert r.value > 1e-200
            eta = 3.7
            a = eta * grad_phi(w, ds, loss)
            b = math.exp(log_stepsize(loss, r, eta, ds.n)) * grad_risk(w, ds, loss)
            np.testing.assert_allclose(a, b, rtol=1e-8)

    @pytest.mark.parametrize("loss", SMOOTH, ids=lambda s: s.name)
    def test_grad_phi_norm_capped(self, loss):
        ds = small_ds()
        bound = loss.lipschitz_const(ds.n)
        rng = np.random.default_rng(8)
        for _ in range(20):
            w = rng.standard_normal(ds.d) * rng.uniform(0.1, 30.0)
            assert np.linalg.norm(grad_phi(w, ds, loss)) <= bound + 1e-9


class TestAdaptiveStepsize:
    def test_pinned(self):
        u = math.log(2.0)
        for loss, r in ((EXP, RiskValue(0.5, math.log(0.5))), (LOG, RiskValue(u, math.log(u))),
                        (SEMICIRCLE, RiskValue(1.0, 0.0))):
            assert math.exp(log_stepsize(loss, r, 1.0, 1)) == pytest.approx(2.0, rel=1e-14)

    def test_log_domain_overflow(self):
        # eta_t = e^800 is past the float range; its log is not
        r = RiskValue(0.0, -800.0)
        assert log_stepsize(EXP, r, 1.0, 1) == pytest.approx(800.0, rel=1e-15)

    def test_eta_validation(self):
        with pytest.raises(ValueError):
            descent._row_tail(EXP, 1, 0.0)


class TestRowTail:
    def test_a_recorded_poly_run_solves_once_per_row(self, monkeypatch):
        # a row's phi and log stepsize share one solve of l(z) = u, so recording
        # every step at most doubles the solves the steps make: 751 here
        # against 376 at record_every 1000 (a solve for each of the two made 1127)
        solves, brentq = [], losses._brentq

        def counting_brentq(*args, **kwargs):
            solves.append(None)
            return brentq(*args, **kwargs)
        monkeypatch.setattr(losses, "_brentq", counting_brentq)
        ds = gen_random_separable(10, 100, 0.1, seed=0)
        counts = []
        for every in (1, 1000):
            solves.clear()
            run_gd(ds, GDConfig(loss=poly(2.0), eta=400.0, steps=400, record_every=every))
            counts.append(len(solves))
        assert 0 < counts[0] <= 2 * counts[1]


class TestRunGD:
    @pytest.mark.parametrize("loss", SMOOTH, ids=lambda s: s.name)
    def test_first_step_is_eta_mean_feature(self, loss):
        # (-l^{-1})'(l(0)) * |l'(0)| = 1 for every supported loss, so
        # w_1 = eta * mean(y x) regardless of the loss
        ds = small_ds()
        eta = 3.0
        traj = run_gd(ds, GDConfig(loss=loss, eta=eta, steps=1))
        np.testing.assert_allclose(
            traj.columns["w"][1], eta * mean_signed_feature(ds), rtol=1e-13, atol=1e-16
        )

    def test_running_average_matches_iterates(self):
        ds = small_ds()
        traj = run_gd(ds, GDConfig(loss=EXP, eta=1.0, steps=40))
        iters = traj.column("w")
        for t, avg_w in enumerate(traj.columns["avg_w"]):
            np.testing.assert_allclose(avg_w, iters[: t + 1].mean(axis=0), rtol=1e-12, atol=1e-15)

    def test_phi_matches_inverse(self):
        ds = small_ds()
        for loss in SMOOTH:
            traj = run_gd(ds, GDConfig(loss=loss, eta=1.0, steps=30))
            for log_risk, phi_t in zip(traj.columns["log_risk"], traj.columns["phi"],
                                       strict=True):
                value = descent._exp_or_inf(log_risk)
                if 0.0 < value < math.inf:
                    want = -loss.inverse(value)
                    assert phi_t == pytest.approx(want, rel=1e-8, abs=1e-10)

    def test_record_every_subsamples_and_keeps_last(self):
        ds = small_ds()
        traj = run_gd(ds, GDConfig(loss=EXP, eta=1.0, steps=25, record_every=10))
        assert traj.columns["t"] == [0, 10, 20, 25]

    def test_small_step_monotone(self):
        ds = small_ds()
        traj = run_gd(ds, GDConfig(loss=EXP, eta=0.05, steps=60))
        logs = traj.column("log_risk")
        assert np.all(np.diff(logs) < 0)
        assert not any(traj.columns["descent_violated"])

    def test_deep_regime_stays_finite(self):
        ds = gen_random_separable(10, 100, 0.1, seed=0)
        traj = run_gd(ds, GDConfig(loss=EXP, eta=4000.0, steps=150))
        logs = traj.column("log_risk")
        assert np.all(np.isfinite(logs))
        assert traj.columns["log_avg_risk"][-1] < -500.0
        # underflowed, log-domain carries on
        assert descent._exp_or_inf(traj.columns["log_risk"][-1]) == 0.0
        # stepsize blows past the float range but its log stays finite
        assert descent._exp_or_inf(traj.columns["log_stepsize"][-1]) == math.inf
        assert math.isfinite(traj.columns["log_stepsize"][-1])
        assert traj.diverged_at is None

    def test_constant_mode_can_diverge(self):
        ds = gen_two_point(0.05)
        traj = run_gd(ds, GDConfig(loss=EXP, eta=1000.0, steps=50, mode="constant"))
        assert traj.diverged_at is not None
        assert len(traj.columns["t"]) <= traj.diverged_at + 1

    @pytest.mark.filterwarnings("ignore:overflow encountered in add:RuntimeWarning")
    def test_adaptive_mode_diverges_when_the_sum_of_iterates_overflows(self):
        # each step has length up to eta = 1e308; the running sum of the
        # iterates overflows in the step to t = 4, while the iterate stays finite
        ds = gen_random_separable(10, 100, 0.1, seed=0)
        traj = run_gd(ds, GDConfig(loss=EXP, eta=1e308, steps=5))
        assert traj.diverged_at == 4
        assert traj.columns["t"] == [0, 1, 2, 3]
        assert np.all(np.isfinite(traj.column("log_avg_risk")))
        assert np.all(np.isfinite(traj.column("avg_min_margin")))

    def test_constant_mode_moderate_converges(self):
        ds = small_ds()
        traj = run_gd(ds, GDConfig(loss=LOG, eta=1.0, steps=200, mode="constant"))
        assert traj.diverged_at is None
        assert traj.columns["log_risk"][-1] < risk(np.zeros(ds.d), ds, LOG).log_value

    def test_nonzero_init(self):
        ds = small_ds()
        w0 = np.full(ds.d, 0.1)
        traj = run_gd(ds, GDConfig(loss=EXP, eta=0.5, steps=3, init=w0))
        np.testing.assert_array_equal(traj.columns["w"][0], w0)
        with pytest.raises(ValueError):
            run_gd(ds, GDConfig(loss=EXP, eta=0.5, steps=3, init=np.zeros(999)))

    def test_config_validation(self):
        with pytest.raises(ValueError):
            GDConfig(loss=EXP, eta=-1.0, steps=5)
        with pytest.raises(ValueError):
            GDConfig(loss=EXP, eta=1.0, steps=5, mode="momentum")
        with pytest.raises(ValueError):
            GDConfig(loss=HINGE, eta=1.0, steps=5)  # adaptive + hinge
        with pytest.raises(ValueError):
            GDConfig(loss=EXP, eta=1.0, steps=5, record_every=0)

    def test_hinge_constant_mode_runs(self):
        ds = small_ds()
        traj = run_gd(ds, GDConfig(loss=HINGE, eta=1.0, steps=50, mode="constant"))
        assert traj.diverged_at is None
        # hinge risk hits exactly zero once separated
        assert descent._exp_or_inf(traj.columns["log_risk"][-1]) == 0.0
        assert traj.columns["min_margin"][-1] > 0.0


def assert_same_rows(got, want, rows=None):
    """got's rows are want's rows at the indices rows (every row by
    default), in every column: arrays bit for bit, scalars as floats
    (0.0 == -0.0, nan == nan). The risk, avg_risk and stepsize derived from
    the log columns then agree bit for bit too."""
    assert got.columns.keys() == want.columns.keys()
    for name, values in got.columns.items():
        theirs = want.columns[name]
        if rows is not None:
            theirs = [theirs[i] for i in rows]
        assert len(values) == len(theirs) == len(got.columns["t"]), name
        for x, y in zip(values, theirs):
            if isinstance(x, np.ndarray):
                assert x.tobytes() == y.tobytes(), name
            else:
                assert x == y or (x != x and y != y), name


def first_passage(traj, target):
    return next(t for t, log in zip(traj.columns["t"], traj.columns["log_avg_risk"],
                                    strict=True)
                if t >= 1 and log <= target)


class TestNanIterate:
    """A nan iterate has nan risk under every smooth kind, and a run from a
    nan init stops at diverged_at = 0 with no row (MarginState's top is nan
    exactly when the log risk is)."""

    @pytest.mark.parametrize("agg", ["mean", "sum"])
    @pytest.mark.parametrize("base", SMOOTH + [poly(0.5)], ids=lambda s: s.name)
    def test_the_risk_of_a_nan_iterate_is_nan(self, base, agg):
        ds = small_ds()
        loss = base.with_aggregation(agg)
        with np.errstate(invalid="ignore"):  # a nan margin warns in logaddexp
            r = risk(np.full(ds.d, math.nan), ds, loss)
            kernels = (loss.log_value(math.nan), loss.log_abs_deriv(math.nan))
        assert math.isnan(r.value) and math.isnan(r.log_value)
        assert all(math.isnan(v) for v in kernels)

    @pytest.mark.parametrize("mode", ["adaptive", "constant"])
    @pytest.mark.parametrize("agg", ["mean", "sum"])
    @pytest.mark.parametrize("base", SMOOTH + [poly(0.5)], ids=lambda s: s.name)
    def test_a_nan_init_diverges_at_zero_with_no_rows(self, base, agg, mode):
        ds = small_ds()
        cfg = GDConfig(loss=base.with_aggregation(agg), eta=1.0, steps=5, mode=mode,
                       init=np.full(ds.d, math.nan))
        traj = run_gd(ds, cfg)
        assert traj.diverged_at == 0
        assert traj.columns == {}


class TestTargetStop:
    @pytest.mark.parametrize("mode,eta", [("adaptive", 50.0), ("constant", 1.0)])
    @pytest.mark.parametrize("loss", [EXP, LOG], ids=lambda s: s.name)
    def test_stopped_run_is_a_prefix_ending_at_first_passage(self, loss, mode, eta):
        ds = small_ds()
        full = run_gd(ds, GDConfig(loss=loss, eta=eta, steps=80, mode=mode))
        target = full.columns["log_avg_risk"][40]
        hit = first_passage(full, target)
        stopped = run_gd(ds, GDConfig(loss=loss, eta=eta, steps=80, mode=mode,
                                      target_log_avg_risk=target))
        assert stopped.columns["t"] == list(range(hit + 1))
        assert_same_rows(stopped, full, range(hit + 1))
        logs = stopped.columns["log_avg_risk"]
        assert logs[-1] <= target
        assert all(log > target for log in logs[1:-1])
        assert stopped.diverged_at is None

    def test_unreached_target_changes_nothing(self):
        ds = small_ds()
        full = run_gd(ds, GDConfig(loss=LOG, eta=50.0, steps=60))
        stopped = run_gd(ds, GDConfig(loss=LOG, eta=50.0, steps=60,
                                      target_log_avg_risk=-1e9))
        assert len(stopped.columns["t"]) == len(full.columns["t"]) == 61
        assert_same_rows(stopped, full)

    def test_stop_point_is_recorded_off_the_grid(self):
        ds = small_ds()
        full = run_gd(ds, GDConfig(loss=EXP, eta=50.0, steps=200))
        target = full.columns["log_avg_risk"][33]
        hit = first_passage(full, target)
        assert hit % 7 != 0
        stopped = run_gd(ds, GDConfig(loss=EXP, eta=50.0, steps=200, record_every=7,
                                      target_log_avg_risk=target))
        want = list(range(0, hit, 7)) + [hit]
        assert stopped.columns["t"] == want
        assert_same_rows(stopped, full, want)  # full records every step: row t is step t

    def test_t0_never_stops(self):
        # the averaged iterate at t = 0 is w_0 itself; the first step counts
        ds = small_ds()
        traj = run_gd(ds, GDConfig(loss=EXP, eta=0.5, steps=10,
                                   target_log_avg_risk=math.inf))
        assert traj.columns["t"] == [0, 1]

    def test_nan_target_is_refused(self):
        with pytest.raises(ValueError):
            GDConfig(loss=EXP, eta=1.0, steps=5, target_log_avg_risk=math.nan)


def reference_run_gd(ds, config):
    """run_gd written out from the public per-quantity functions, each of
    which makes its own pass over the data: the loop the fused step must
    reproduce bit for bit."""
    loss = config.loss
    w = np.zeros(ds.d) if config.init is None else np.array(config.init, dtype=float)
    traj = Trajectory()
    wsum = w.copy()
    prev_log_risk = math.inf
    target = config.target_log_avg_risk
    for t in range(config.steps + 1):
        r = risk(w, ds, loss)
        if r.log_value == math.inf or math.isnan(r.log_value):
            traj.diverged_at = t
            break
        avg_r = None
        passed = False
        if target is not None and t >= 1:
            avg_w = wsum / (t + 1)
            avg_r = risk(avg_w, ds, loss)
            passed = avg_r.log_value <= target
        if passed or t % config.record_every == 0 or t == config.steps:
            if config.mode == "adaptive":
                log_eta_t = log_stepsize(loss, r, config.eta, ds.n)
            else:
                log_eta_t = math.log(config.eta)
            if avg_r is None:
                avg_w = wsum / (t + 1)
                avg_r = risk(avg_w, ds, loss)
            append_row(traj, dict(
                t=t, w=w.copy(), log_risk=r.log_value,
                phi=phi_from_risk(loss, r, ds.n) if loss.kind != "hinge" else math.nan,
                log_stepsize=log_eta_t, min_margin=ds.min_margin(w), avg_w=avg_w,
                log_avg_risk=avg_r.log_value, avg_min_margin=ds.min_margin(avg_w),
                descent_violated=bool(r.log_value > prev_log_risk)))
        prev_log_risk = r.log_value
        if passed or t == config.steps:
            break
        if config.mode == "adaptive":
            w = w - config.eta * grad_phi(w, ds, loss)
        else:
            with np.errstate(over="ignore", invalid="ignore"):
                w = w - config.eta * grad_risk(w, ds, loss)
        wsum += w
        if not np.all(np.isfinite(wsum)):  # a non-finite w or an overflowed sum
            traj.diverged_at = t + 1
            break
    return traj


FUSED_DATASETS = {
    "batch-hard-weighted": lambda: gen_batch_hard(0.1, 64, weighted=True),
    "batch-hard-materialized": lambda: gen_batch_hard(0.1, 64, weighted=False),
    "two-point": lambda: gen_two_point(0.05),
    "random": lambda: gen_random_separable(10, 100, 0.1, seed=3),
}

# (loss, aggregation, mode, etas); hinge has no sum transform and no
# adaptive mode. eta 400 in constant mode makes some runs diverge.
FUSED_GRID = [
    (loss, agg, mode, (50.0,) if mode == "adaptive" else (1.0, 400.0))
    for loss in SMOOTH for agg in ("mean", "sum") for mode in ("adaptive", "constant")
] + [(HINGE, "mean", "constant", (1.0, 400.0))]


def count_blocks(monkeypatch):
    """Count, from now on, the steps _Block queues ("pushes") and the
    flushes that find rows queued ("flushes"), in the dict returned."""
    counts = {"pushes": 0, "flushes": 0}
    push, flush = descent._Block.push, descent._Block.flush

    def counting_push(self, *args):
        counts["pushes"] += 1
        return push(self, *args)

    def counting_flush(self, traj):
        counts["flushes"] += bool(self.steps)
        return flush(self, traj)

    monkeypatch.setattr(descent._Block, "push", counting_push)
    monkeypatch.setattr(descent._Block, "flush", counting_flush)
    return counts


class TestFusedStep:
    @pytest.mark.parametrize("loss,agg,mode,etas", FUSED_GRID,
                             ids=[f"{c[0].name}-{c[1]}-{c[2]}" for c in FUSED_GRID])
    def test_bit_identical_to_the_unfused_loop(self, loss, agg, mode, etas):
        for ds_name, make in FUSED_DATASETS.items():
            ds = make()
            spec = loss.with_aggregation(agg)
            for eta in etas:
                base = GDConfig(loss=spec, eta=eta, steps=30, mode=mode)
                full = reference_run_gd(ds, base)
                # a target the run passes, unless it diverges first
                logs = full.columns["log_avg_risk"]
                target = logs[len(logs) // 2]
                for tgt in (None, target):
                    for every in (1, 7):
                        cfg = dataclasses.replace(base, record_every=every,
                                                  target_log_avg_risk=tgt)
                        case = f"{ds_name} eta={eta} target={tgt} record_every={every}"
                        with np.errstate(all="ignore"):
                            want = reference_run_gd(ds, cfg)
                            got = run_gd(ds, cfg)
                        assert got.diverged_at == want.diverged_at, case
                        assert len(got.columns["t"]) == len(want.columns["t"]), case
                        assert_same_rows(got, want)

    @pytest.mark.parametrize("mode,loss", [("adaptive", LOG), ("constant", EXP)])
    @pytest.mark.parametrize("target", [False, True])
    def test_one_margins_pass_per_iterate(self, monkeypatch, mode, loss, target):
        """ds.margins runs once per iterate computed, plus once per block of
        averaged iterates flushed (one stacked pass each). The gradient runs
        once per step made; with a target, also once per step computed past
        the first passage and dropped, fewer than B of them. A block holds
        B pushes but the last; with a target, the convexity screen decides
        which checked steps are pushed."""
        ds = small_ds()
        size = descent.block_size(ds.n_rows)
        cfg = GDConfig(loss=loss, eta=50.0 if mode == "adaptive" else 1.0, steps=500,
                       mode=mode, record_every=7)
        if target:
            full = run_gd(ds, dataclasses.replace(cfg, record_every=1))
            cfg = dataclasses.replace(cfg, target_log_avg_risk=full.columns["log_avg_risk"][100])
        counts = {"margins": 0, "grad": 0}
        margins = Dataset.margins
        grad_name = "grad_phi" if mode == "adaptive" else "grad_risk"
        grad = getattr(descent, grad_name)

        def counting_margins(self, w):
            counts["margins"] += 1
            return margins(self, w)

        def counting_grad(*args, **kwargs):
            counts["grad"] += 1
            return grad(*args, **kwargs)

        monkeypatch.setattr(Dataset, "margins", counting_margins)
        monkeypatch.setattr(descent, grad_name, counting_grad)
        queued = count_blocks(monkeypatch)
        traj = run_gd(ds, cfg)
        made = traj.columns["t"][-1]
        assert traj.diverged_at is None
        if target:
            assert made < cfg.steps
            assert made <= counts["grad"] < made + size
            assert queued["pushes"] < 1 + counts["grad"]  # the screen clears some steps
        else:
            assert counts["grad"] == made
            assert queued["pushes"] == len(traj.columns["t"])
        blocks = queued["flushes"]
        assert blocks == -(-queued["pushes"] // size) and blocks >= 2
        assert counts["margins"] == (counts["grad"] + 1) + blocks

    @pytest.mark.parametrize("mode,grad_name", [("adaptive", "grad_phi"),
                                                ("constant", "grad_risk")])
    def test_steps_go_through_the_public_gradient(self, monkeypatch, mode, grad_name):
        """run_gd takes each step from descent.grad_phi / grad_risk called
        with three positional arguments, the iterate's margin state in the w
        slot, so a stand-in with the (w, ds, loss) signature sees every step
        and its result is the step taken."""
        ds = small_ds()
        cfg = GDConfig(loss=LOG, eta=50.0 if mode == "adaptive" else 1.0, steps=20, mode=mode)
        clean = run_gd(ds, cfg)
        grad, calls = getattr(descent, grad_name), []

        def scaled(w, ds, loss):
            calls.append(None)
            return 0.99 * grad(w, ds, loss)

        monkeypatch.setattr(descent, grad_name, scaled)
        faulty = run_gd(ds, cfg)
        assert len(calls) == cfg.steps
        assert not np.array_equal(faulty.columns["w"][-1], clean.columns["w"][-1])

    @pytest.mark.parametrize("target", [False, True])
    @pytest.mark.parametrize("agg", ["mean", "sum"])
    @pytest.mark.parametrize("loss", SMOOTH, ids=lambda s: s.name)
    def test_one_log_kernel_call_per_iterate(self, monkeypatch, loss, agg, target):
        """The risk and the gradient coefficients of an iterate read one
        margin state, so the kind's kernel pair (loss.ops.log_pair) runs once
        per iterate computed, plus once per block of averaged iterates (one
        2-D call each). With a
        target the iterates computed include the steps dropped behind the
        first passage, and a block keeps the passage rows off the record
        grid without evaluating again the risks their steps left."""
        ds = small_ds()
        size = descent.block_size(ds.n_rows)
        cfg = GDConfig(loss=loss.with_aggregation(agg), eta=50.0, steps=500, record_every=7)
        if target:
            full = run_gd(ds, dataclasses.replace(cfg, record_every=1))
            cfg = dataclasses.replace(cfg, target_log_avg_risk=full.columns["log_avg_risk"][100])
        calls, grads = [], []
        log_pair, grad = loss.ops.log_pair, descent.grad_phi

        def counting(spec, z):
            calls.append(None)
            return log_pair(spec, z)

        def counting_grad(*args):
            grads.append(None)
            return grad(*args)

        monkeypatch.setattr(loss.ops, "log_pair", counting)
        monkeypatch.setattr(descent, "grad_phi", counting_grad)
        queued = count_blocks(monkeypatch)
        traj = run_gd(ds, cfg)
        made, computed = traj.columns["t"][-1], len(grads) + 1
        if target:
            assert made < cfg.steps and made % cfg.record_every  # a passage row is kept
            assert made < computed <= made + size
            # t = 0 is recorded; the screen may clear checked steps of exp and log
            assert (queued["pushes"] <= computed if loss.ops.unit_log_slopes
                    else queued["pushes"] == computed)
        else:
            assert computed == cfg.steps + 1
            assert queued["pushes"] == len(traj.columns["t"])
        blocks = queued["flushes"]
        assert blocks == -(-queued["pushes"] // size) and blocks >= 2
        assert len(calls) == computed + blocks


def assert_same_run(got, want, case=""):
    """Two trajectories agree row for row, bit for bit, and in diverged_at."""
    assert got.diverged_at == want.diverged_at, case
    assert got.columns["t"] == want.columns["t"], case
    assert_same_rows(got, want)


def _unit_ball_dataset(n_rows, d, seed=0):
    """Random rows on the unit sphere with random labels: only the shape
    matters to the margins pass."""
    rng = np.random.default_rng(seed)
    x = rng.standard_normal((n_rows, d))
    x /= np.sqrt(np.einsum("ij,ij->i", x, x))[:, None]
    w_star = np.zeros(d)
    w_star[0] = 1.0
    return Dataset(x, np.where(rng.random(n_rows) < 0.5, -1.0, 1.0), 0.1, w_star)


def _one_row_peak(model):
    """A 1-step exp run, linear or a width-4 network, on a one-row set with
    d = 10**6: its trajectory, and its tracemalloc peak in rows of its
    parameters (vectors of d floats, or of 4 d floats)."""
    ds = gen_online_hard(0.001, 1)
    assert (ds.n_rows, ds.d) == (1, 10**6)
    cfg = GDConfig(loss=EXP, eta=1.0, steps=1)
    if model == "linear":
        row, run = ds.d, lambda: run_gd(ds, cfg)
    else:
        net = make_net(ds.d, 4, leaky_relu(0.5))
        row, run = net.weights.size, lambda: run_gd_nn(ds, net, cfg)
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        traj = run()
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    return traj, peak / (8 * row)


class TestAveragedBlocks:
    """Rows are built a block of B = block_size(max(n_rows, params.size))
    steps at a time, averaged iterates evaluated together; rows,
    diverged_at and warnings are those of the loop that evaluates them one
    step at a time (reference_run_gd)."""

    def test_block_size(self):
        assert [descent.block_size(r) for r in (1, 20, 100, 1024, 1025, 10_000, 65_536,
                                                 10**6)] == [64, 64, 64, 64, 63, 6, 1, 1]

    @pytest.mark.parametrize("model", ["linear", "network"])
    def test_a_long_iterate_shrinks_the_block(self, model):
        """A one-row set with d = 10**6: the block is sized by the iterate,
        not by the one margin, so it holds one step. The linear run of 1
        step peaks near 6 vectors of d floats (258 with a block of 64 steps); the
        width-4 network's near 5 rows of 4 d floats."""
        traj, rows = _one_row_peak(model)
        assert traj.columns["t"] == [0, 1]
        assert rows < 10

    @pytest.mark.parametrize("model,bound", [("linear", 6.5), ("network", 5.5)])
    def test_a_block_allocates_its_arrays_at_its_first_push(self, model, bound):
        """The runs above hold no array for a block that never starts. The
        linear run peaks at 6 vectors: w, the running sum, and its result's
        2 rows of w and avg_w; the network's at 5 rows: the weights, the
        running sum, row 0, and a gradient and its scaled copy. A spare pair
        of arrays after each flush would add 2 vectors, a spare iterate
        array 1 row."""
        assert _one_row_peak(model)[1] < bound

    @pytest.mark.parametrize("name", list(FUSED_DATASETS))
    def test_stacked_margins_equal_one_pass_per_iterate(self, name):
        ds = FUSED_DATASETS[name]()
        rng = np.random.default_rng(0)
        size = descent.block_size(ds.n_rows)
        stack = rng.standard_normal((size, ds.d)) * 10.0 ** rng.uniform(-3, 3, (size, 1))
        stacked = ds.margins(stack)
        assert stacked.shape == (size, ds.n_rows)
        for j in range(size):
            assert stacked[j].tobytes() == ds.margins(stack[j]).tobytes(), j
        assert ds.margins(stack[:1])[0].tobytes() == ds.margins(stack[0]).tobytes()

    def test_stacked_margins_at_the_run_large_shape(self):
        ds = _unit_ball_dataset(10_000, 1000)
        size = descent.block_size(ds.n_rows)
        assert size == 6
        stack = np.random.default_rng(1).standard_normal((size, ds.d))
        stacked = ds.margins(stack)
        for j in range(size):
            assert stacked[j].tobytes() == ds.margins(stack[j]).tobytes(), j

    @pytest.mark.parametrize("every", [1, 7])
    @pytest.mark.parametrize("offset", [-1, 0, 1])
    @pytest.mark.parametrize("make", [small_ds, lambda: gen_random_separable(5, 16384, 0.2, 11)],
                             ids=["B=64", "B=4"])
    @pytest.mark.parametrize("loss,mode,eta", [(EXP, "adaptive", 50.0), (LOG, "constant", 1.0)],
                             ids=["exp-adaptive", "log-constant"])
    def test_first_passage_at_the_block_edge(self, loss, mode, eta, make, offset, every):
        ds = make()
        size = descent.block_size(ds.n_rows)
        hit = size + offset
        base = GDConfig(loss=loss, eta=eta, steps=size + 40, mode=mode)
        target = reference_run_gd(ds, base).columns["log_avg_risk"][hit]
        cfg = dataclasses.replace(base, record_every=every, target_log_avg_risk=target)
        want = reference_run_gd(ds, cfg)
        assert want.columns["t"][-1] == hit
        assert_same_run(run_gd(ds, cfg), want)

    @pytest.mark.parametrize("mode,eta", [("adaptive", 400.0), ("constant", 1.0)])
    @pytest.mark.parametrize("agg", ["mean", "sum"])
    @pytest.mark.parametrize("loss", [EXP, LOG, poly(2.0)], ids=lambda s: s.name)
    def test_runs_across_full_blocks_keep_their_bits(self, loss, agg, mode, eta):
        """Runs that fill 64-step blocks and flush again after them have the
        rows of reference_run_gd, bit for bit, on the random and the
        weighted batch-hard sets. A run that queues every step (record_every
        1, or a target) makes 150 steps, and a target is first passed after
        t = 128, two full blocks in (never, where the averaged risk grows);
        one that queues every 7th step makes 7 * 65, a full block of rows
        and a last flush. Each row t is row t of the reference run that
        records every step (see TestTargetStop)."""
        for ds_name in ("random", "batch-hard-weighted"):
            ds = FUSED_DATASETS[ds_name]()
            assert descent.block_size(ds.n_rows) == 64
            base = GDConfig(loss=loss.with_aggregation(agg), eta=eta, steps=150, mode=mode)
            full = reference_run_gd(ds, dataclasses.replace(base, steps=7 * 65))
            assert full.diverged_at is None
            logs = full.columns["log_avg_risk"][:151]
            late = min(logs[129:])
            target = late if late < min(logs[1:129]) else min(logs) - 1.0
            passage = next((t for t in range(1, 151) if logs[t] <= target), 150)
            for every, steps, tgt, last in ((1, 150, None, 150), (7, 7 * 65, None, 7 * 65),
                                            (1, 150, target, passage), (7, 150, target, passage)):
                cfg = dataclasses.replace(base, steps=steps, record_every=every,
                                          target_log_avg_risk=tgt)
                rows = sorted({*range(0, last, every), last})
                got = run_gd(ds, cfg)
                assert got.diverged_at is None and got.columns["t"] == rows, f"{ds_name} {cfg}"
                assert_same_rows(got, full, rows)

    def test_passage_then_divergence_in_one_block(self):
        """The steps after the passage overflow (eta = 1e308); they are
        dropped with their diverged_at and leave no warning."""
        ds = gen_random_separable(10, 100, 0.1, seed=0)
        base = GDConfig(loss=EXP, eta=1e308, steps=10)
        with np.errstate(all="ignore"):
            target = reference_run_gd(ds, base).columns["log_avg_risk"][1]
            want = reference_run_gd(ds, dataclasses.replace(base, target_log_avg_risk=target))
        cfg = dataclasses.replace(base, target_log_avg_risk=target)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = run_gd(ds, cfg)
        assert got.columns["t"] == [0, 1]
        assert got.diverged_at is None
        assert_same_run(got, want)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert run_gd(ds, base).diverged_at == 4  # the run without a target

    @pytest.mark.parametrize("loss,mode", [(EXP, "adaptive"), (LOG, "adaptive"),
                                           (EXP, "constant")],
                             ids=["exp-adaptive", "log-adaptive", "exp-constant"])
    def test_a_block_with_no_kept_row_lets_the_run_go_on(self, loss, mode):
        """With a target and record_every 150 > B = 64, a block such as
        t = 64..127 queues steps for the target check alone, keeps none of
        them and must not end the run. It ends at the passage, t = 2000,
        with the rows of the run that records every step."""
        ds = gen_random_separable(10, 100, 0.1, seed=0)
        assert descent.block_size(ds.n_rows) == 64
        base = GDConfig(loss=loss, eta=1.0, steps=3000, mode=mode)
        full = run_gd(ds, base)
        cfg = dataclasses.replace(base, record_every=150,
                                  target_log_avg_risk=full.columns["log_avg_risk"][2000])
        got = run_gd(ds, cfg)
        rows = [*range(0, 2000, 150), 2000]
        assert got.diverged_at is None and got.columns["t"] == rows
        assert_same_rows(got, full, rows)


def first_passages(logs, targets):
    """{target: the first t >= 1 with logs[t] <= target} over the log
    averaged risks of a run that records every step, for the targets it
    passes."""
    return {x: next(t for t in range(1, len(logs)) if logs[t] <= x)
            for x in targets if any(log <= x for log in logs[1:])}


class TestSeveralTargets:
    """A tuple of targets keeps each target's first passage t >= 1 as a row,
    off the record_every grid, and stops at the lowest target's. Every row
    is row t of reference_run_gd recording every step."""

    STEPS = 150

    @pytest.mark.parametrize("every", [1, 7, STEPS])
    @pytest.mark.parametrize("loss,mode,eta", [(EXP, "adaptive", 50.0), (LOG, "adaptive", 50.0),
                                               (EXP, "constant", 1.0), (LOG, "constant", 1.0)],
                             ids=["exp-adaptive", "log-adaptive", "exp-constant",
                                  "log-constant"])
    @pytest.mark.parametrize("ds_name", ["random", "batch-hard-weighted"])
    def test_rows_are_the_recorded_ones_and_each_first_passage(self, ds_name, loss, mode, eta,
                                                               every):
        ds = FUSED_DATASETS[ds_name]()
        base = GDConfig(loss=loss, eta=eta, steps=self.STEPS, mode=mode)
        full = reference_run_gd(ds, base)
        assert full.diverged_at is None
        logs = full.columns["log_avg_risk"]
        targets = (logs[60], logs[120], logs[3], logs[60], logs[10])  # unsorted, one repeated
        passages = first_passages(logs, targets)
        stop = passages[min(targets)]
        rows = sorted({*range(0, stop, every), *passages.values()})
        assert rows[-1] == stop and len(set(passages.values())) >= 3
        runs = [run_gd(ds, dataclasses.replace(base, record_every=every,
                                               target_log_avg_risk=order))
                for order in (targets, tuple(sorted(targets)), tuple(sorted(set(targets)))[::-1])]
        for got in runs:
            assert got.diverged_at is None and got.columns["t"] == rows, f"{ds_name} {every}"
            assert_same_rows(got, full, rows)
        # the lowest target alone stops at the same step with the same last row
        alone = run_gd(ds, dataclasses.replace(base, record_every=every,
                                               target_log_avg_risk=min(targets)))
        assert alone.columns["t"][-1] == stop
        assert_same_rows(alone, full, alone.columns["t"])

    @pytest.mark.parametrize("every", [1, 7, STEPS])
    def test_a_target_never_reached_leaves_the_final_row(self, every):
        ds = FUSED_DATASETS["random"]()
        base = GDConfig(loss=LOG, eta=50.0, steps=self.STEPS)
        full = reference_run_gd(ds, base)
        logs = full.columns["log_avg_risk"]
        passage = first_passage(full, logs[20])
        got = run_gd(ds, dataclasses.replace(base, record_every=every,
                                             target_log_avg_risk=(-1e9, logs[20])))
        rows = sorted({*range(0, self.STEPS, every), passage, self.STEPS})
        assert got.diverged_at is None and got.columns["t"] == rows
        assert_same_rows(got, full, rows)

    @pytest.mark.parametrize("every", [1, 7, STEPS])
    @pytest.mark.parametrize("loss,mode,eta", [(EXP, "adaptive", 50.0), (LOG, "constant", 1.0)],
                             ids=["exp-adaptive", "log-constant"])
    def test_a_one_element_tuple_gives_the_rows_of_the_float(self, loss, mode, eta, every):
        ds = FUSED_DATASETS["batch-hard-weighted"]()
        base = GDConfig(loss=loss, eta=eta, steps=self.STEPS, mode=mode, record_every=every)
        target = reference_run_gd(ds, dataclasses.replace(base, record_every=1)).columns[
            "log_avg_risk"][90]
        want = reference_run_gd(ds, dataclasses.replace(base, target_log_avg_risk=target))
        for tgt in (target, (target,)):
            assert_same_run(run_gd(ds, dataclasses.replace(base, target_log_avg_risk=tgt)), want)

    def test_divergence_before_or_after_the_lowest_passage(self):
        """eta = 1e308 overflows the running sum at t = 4. A lowest target
        first passed at t = 1 stops the run there, and the divergence behind
        it is dropped; one never passed leaves diverged_at = 4, and the
        passage of the higher target stays a row."""
        ds = gen_random_separable(10, 100, 0.1, seed=0)
        base = GDConfig(loss=EXP, eta=1e308, steps=10)
        with np.errstate(all="ignore"):
            full = reference_run_gd(ds, base)
        assert full.diverged_at == 4
        logs = full.columns["log_avg_risk"]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            passed = run_gd(ds, dataclasses.replace(
                base, target_log_avg_risk=(logs[1] + 1.0, logs[1])))
            for every, rows in ((1, [0, 1, 2, 3]), (10, [0, 1])):
                missed = run_gd(ds, dataclasses.replace(base, record_every=every,
                                                        target_log_avg_risk=(-1e9, logs[1])))
                assert missed.diverged_at == 4 and missed.columns["t"] == rows
                assert_same_rows(missed, full, rows)
        assert passed.diverged_at is None and passed.columns["t"] == [0, 1]
        assert_same_rows(passed, full, [0, 1])

    @pytest.mark.parametrize("target", [(), (math.nan,), (math.nan, 0.0), (0.0, -1.0, math.nan),
                                        (0.0, math.nan, -1.0)])
    def test_an_empty_tuple_or_a_nan_anywhere_is_refused(self, target):
        with pytest.raises(ValueError, match="target_log_avg_risk"):
            GDConfig(loss=EXP, eta=1.0, steps=5, target_log_avg_risk=target)


def bench_ds():
    """margin-lab bench's default dataset at seed 0."""
    return gen_random_separable(10, 100, 0.1, seed=0)


SCREEN_DATASETS = {"bench": bench_ds,
                   "batch-hard-weighted": lambda: gen_batch_hard(0.05, 2**20, weighted=True)}
BENCH_TARGETS = tuple(math.log(eps) for eps in (1e-2, 1e-6, 1e-12))


def ulps_around(x):
    """x and the floats one ulp below and above it."""
    return (math.nextafter(x, -math.inf), x, math.nextafter(x, math.inf))


class TestConvexityScreen:
    """With targets, a linear exp or log run skips the checked steps the
    convexity screen clears (see the descent module docstring). Its rows,
    diverged_at and stopping step stay those of reference_run_gd, which
    evaluates every averaged iterate, down to targets at a row's own value."""

    STEPS = 200

    @pytest.mark.parametrize("every", [1, 7, STEPS])
    @pytest.mark.parametrize("mode", ["constant", "adaptive"])
    @pytest.mark.parametrize("loss", [EXP, LOG], ids=lambda s: s.name)
    @pytest.mark.parametrize("ds_name", list(SCREEN_DATASETS))
    def test_targets_at_a_rows_value_and_one_ulp_either_side(self, ds_name, loss, mode, every):
        """Targets at the computed log_avg_risk of an early, a middle and a
        late row (t = 70, 130, 190; the first block flushes at t = 63, so
        the screen has a reference before each), and one ulp either side."""
        ds = SCREEN_DATASETS[ds_name]()
        base = GDConfig(loss=loss, eta=1.0, steps=self.STEPS, mode=mode, record_every=every)
        logs = run_gd(ds, dataclasses.replace(base, record_every=1)).columns["log_avg_risk"]
        for row in (70, 130, 190):
            for target in ulps_around(logs[row]):
                cfg = dataclasses.replace(base, target_log_avg_risk=target)
                assert_same_run(run_gd(ds, cfg), reference_run_gd(ds, cfg), f"{row} {target}")

    @pytest.mark.parametrize("mode,eta", [("constant", 1e5), ("adaptive", 1e-12)])
    @pytest.mark.parametrize("loss", [EXP, LOG], ids=lambda s: s.name)
    def test_a_flat_stretch_where_only_the_budget_holds(self, loss, mode, eta):
        """From 400 w_star every margin is past 40, and these etas move the
        averaged log risk by about 1e-15 to 1e-14 a step: the tangent is
        exact to far below the rounding of the flush, so only the error
        budget keeps the screen from clearing a passage. Targets at every
        fifth row's value from t = 70 and one ulp either side; without the
        budget, 178 of 528 such runs (every third row) stop elsewhere."""
        ds = bench_ds()
        base = GDConfig(loss=loss, eta=eta, steps=self.STEPS, mode=mode,
                        init=400.0 * ds.w_star, record_every=self.STEPS)
        full = run_gd(ds, dataclasses.replace(base, record_every=1))
        logs = full.columns["log_avg_risk"]
        for row in range(70, self.STEPS, 5):
            for target in ulps_around(logs[row]):
                got = run_gd(ds, dataclasses.replace(base, target_log_avg_risk=target))
                stop = first_passages(logs, [target])[target]
                assert got.columns["t"] == [0, stop] and got.diverged_at is None, (row, target)
                assert_same_rows(got, full, [0, stop])

    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(gamma=st.floats(0.02, 0.5), eta=st.floats(0.1, 200.0),
           mode=st.sampled_from(["constant", "adaptive"]), loss=st.sampled_from([EXP, LOG]),
           every=st.sampled_from([1, 7, 150]), seed=st.integers(0, 3),
           picks=st.lists(st.tuples(st.integers(1, 150), st.integers(-2, 2)),
                          min_size=1, max_size=3))
    def test_targets_near_the_runs_own_rows(self, gamma, eta, mode, loss, every, seed, picks):
        """Targets a few ulps from the log averaged risks of rows the run
        makes: the rows are the recorded ones and each first passage, those
        of reference_run_gd recording every step."""
        ds = gen_random_separable(5, 40, gamma, seed=seed)
        base = GDConfig(loss=loss, eta=eta, steps=150, mode=mode)
        with np.errstate(all="ignore"):
            full = reference_run_gd(ds, base)
        logs = full.columns["log_avg_risk"]
        targets = []
        for row, ulps in picks:
            x = logs[min(row, len(logs) - 1)]
            for _ in range(abs(ulps)):
                x = math.nextafter(x, math.copysign(math.inf, ulps))
            targets.append(x)
        got = run_gd(ds, dataclasses.replace(base, record_every=every,
                                             target_log_avg_risk=tuple(targets)))
        passages = first_passages(logs, targets)
        last = len(logs) - 1
        stop = passages.get(min(targets), last)
        rows = sorted({*range(0, stop, every), *passages.values(), stop})
        assert got.columns["t"] == rows
        assert got.diverged_at == (full.diverged_at if min(targets) not in passages else None)
        assert_same_rows(got, full, rows)

    @pytest.mark.parametrize("mode,pushes,flushes", [("constant", 385, 7),
                                                      ("adaptive", 1472, 23)])
    def test_benchs_cells_queue_few_steps(self, monkeypatch, mode, pushes, flushes):
        """bench's constant cell (eta 1, never at a target in 20 000 steps)
        and its small-adaptive cell (eta 1, at ln 1e-12 at t = 5007) as
        bench runs them: the screen clears all but the steps pinned here,
        and the rows are those of the run that records every step."""
        ds = bench_ds()
        cfg = GDConfig(loss=EXP, eta=1.0, steps=20_000, mode=mode, record_every=20_000,
                       target_log_avg_risk=BENCH_TARGETS)
        full = run_gd(ds, dataclasses.replace(cfg, record_every=1, target_log_avg_risk=None))
        queued = count_blocks(monkeypatch)
        got = run_gd(ds, cfg)
        assert queued == {"pushes": pushes, "flushes": flushes}
        logs = full.columns["log_avg_risk"]
        passages = first_passages(logs, BENCH_TARGETS)
        stop = passages.get(min(BENCH_TARGETS), cfg.steps)
        rows = sorted({0, *passages.values(), stop})
        assert got.columns["t"] == rows and got.diverged_at is None
        assert_same_rows(got, full, rows)

    @pytest.mark.parametrize("every", [7, 150])
    @pytest.mark.parametrize("loss,mode", [(EXP, "constant"), (EXP, "adaptive"),
                                           (LOG, "constant"), (LOG, "adaptive")],
                             ids=["exp-constant", "exp-adaptive", "log-constant", "log-adaptive"])
    def test_a_block_holds_consecutive_steps(self, monkeypatch, loss, mode, every):
        """The screen clears a step only while the block is empty: each
        block holds the consecutive steps from its first, and the run stops
        fewer than B steps past its last passage, after clearing some."""
        ds = bench_ds()
        size = descent.block_size(ds.n_rows)
        blocks, push, flush = [[]], descent._Block.push, descent._Block.flush

        def recording_push(self, t, *args):
            blocks[-1].append(t)
            return push(self, t, *args)

        def recording_flush(self, traj):
            if blocks[-1]:
                blocks.append([])
            return flush(self, traj)

        monkeypatch.setattr(descent._Block, "push", recording_push)
        monkeypatch.setattr(descent._Block, "flush", recording_flush)
        traj = run_gd(ds, GDConfig(loss=loss, eta=1.0, steps=3000, mode=mode, record_every=every,
                                   target_log_avg_risk=BENCH_TARGETS))
        blocks.pop()
        assert len(blocks) >= 3
        for ts in blocks:
            assert ts == list(range(ts[0], ts[0] + len(ts)))
        assert sum(map(len, blocks)) < 3001
        assert blocks[-1][-1] < traj.columns["t"][-1] + size

    @pytest.mark.parametrize("loss,mode", [(poly(2.0), "adaptive"), (poly(2.0), "constant"),
                                           (SEMICIRCLE, "adaptive"), (SEMICIRCLE, "constant"),
                                           (HINGE, "constant")],
                             ids=lambda x: getattr(x, "name", x))
    def test_other_kinds_queue_every_checked_step(self, monkeypatch, loss, mode):
        """poly, semicircle and hinge lack the slope bounds: every iterate
        computed is queued, t = 0 recorded and every t >= 1 checked. The
        runs start at -w_star with eta 0.01, so that none passes the target
        (the hinge risk would reach 0, log -inf, within 64 steps from 0)."""
        ds = bench_ds()
        grad_name = "grad_phi" if mode == "adaptive" else "grad_risk"
        grad, grads = getattr(descent, grad_name), []

        def counting_grad(*args):
            grads.append(None)
            return grad(*args)

        monkeypatch.setattr(descent, grad_name, counting_grad)
        queued = count_blocks(monkeypatch)
        traj = run_gd(ds, GDConfig(loss=loss, eta=0.01, steps=300, mode=mode, init=-ds.w_star,
                                   record_every=300, target_log_avg_risk=-1e9))
        assert traj.columns["t"] == [0, 300]
        assert queued["pushes"] == len(grads) + 1 == 301
        assert queued["flushes"] == -(-queued["pushes"] // descent.block_size(ds.n_rows))


class TestDeferredRisk:
    """A constant-stepsize step evaluates no log-sum-exp: the flush computes
    the log risk of each kept row and of its predecessor, which
    descent_violated compares it with. Runs of 200 steps, which cross
    64-step blocks, keep the rows and diverged_at of reference_run_gd,
    which evaluates every step."""

    STEPS = 200

    @pytest.mark.parametrize("loss,agg", [(loss, agg) for loss in SMOOTH
                                          for agg in ("mean", "sum")] + [(HINGE, "mean")],
                             ids=lambda x: getattr(x, "name", x))
    def test_long_constant_runs_keep_the_reference_rows(self, loss, agg):
        spec = loss.with_aggregation(agg)
        for ds_name, make in FUSED_DATASETS.items():
            ds = make()
            for eta in (1.0, 400.0):  # 400 makes some runs diverge
                base = GDConfig(loss=spec, eta=eta, steps=self.STEPS, mode="constant")
                with np.errstate(all="ignore"):
                    logs = reference_run_gd(ds, base).columns["log_avg_risk"]
                for target in (None, logs[len(logs) * 3 // 4]):
                    for every in (1, 7, self.STEPS):
                        cfg = dataclasses.replace(base, record_every=every,
                                                  target_log_avg_risk=target)
                        with np.errstate(all="ignore"):
                            want = reference_run_gd(ds, cfg)
                        assert_same_run(run_gd(ds, cfg), want,
                                        f"{ds_name} eta={eta} target={target} every={every}")

    @pytest.mark.parametrize("every", [1, 7, STEPS])
    @pytest.mark.parametrize("target", [False, True])
    def test_a_risk_that_rises_at_block_starts(self, target, every):
        """Log loss at constant eta 200 on 100 rows with random labels, which
        no vector separates: the risk rises on about half the steps, among
        them t = 64 and 128, the first rows of blocks, whose predecessor is
        the previous block's last."""
        ds = _unit_ball_dataset(100, 10)
        base = GDConfig(loss=LOG, eta=200.0, steps=self.STEPS, mode="constant")
        full = reference_run_gd(ds, base)
        violated = full.columns["descent_violated"]
        assert violated[64] and violated[128] and 50 < sum(violated) < 150
        cfg = dataclasses.replace(base, record_every=every, target_log_avg_risk=(
            full.columns["log_avg_risk"][150] if target else None))
        got = run_gd(ds, cfg)
        assert_same_run(got, reference_run_gd(ds, cfg))
        if every < self.STEPS:
            assert set(got.columns["descent_violated"]) == {True, False}

    @pytest.mark.parametrize("every", [1, 7])
    @pytest.mark.parametrize("target", [None, -math.inf])  # the target queues every step
    @pytest.mark.parametrize("make,loss,step,through_sum", [
        (lambda: gen_two_point(0.05), poly(2.0), 2, False),
        (lambda: gen_random_separable(10, 100, 0.1, seed=3), EXP, 2, True),
        (lambda: gen_random_separable(10, 100, 0.1, seed=3), LOG, 22, True)],
        ids=["at-t", "at-t+1-exp", "at-t+1-log"])
    def test_divergence_at_eta_1e308(self, make, loss, step, through_sum, target, every):
        """At eta 1e308 a run diverges at t = step: at t, when the log risk
        of w_t is +inf (its largest ln l(z_i) is), or at t + 1, when the
        running sum of w_0 .. w_{t+1} overflows. Both keep the reference's
        diverged_at and rows, and warn of nothing."""
        ds = make()
        cfg = GDConfig(loss=loss, eta=1e308, steps=self.STEPS, mode="constant",
                       record_every=every, target_log_avg_risk=target)
        with np.errstate(all="ignore"):
            full = reference_run_gd(ds, dataclasses.replace(cfg, record_every=1))
            last = full.columns["w"][-1]
            after = last - cfg.eta * grad_risk(last, ds, loss)
            total = np.sum(full.columns["w"], axis=0) + after
            log_after = risk(after, ds, loss).log_value
            want = reference_run_gd(ds, cfg)
        assert full.diverged_at == want.diverged_at == step
        assert np.isfinite(total).all() != through_sum
        assert through_sum or log_after == math.inf
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = run_gd(ds, cfg)
        assert_same_run(got, want)

    @pytest.mark.parametrize("every", [1, 7])
    @pytest.mark.parametrize("loss,mode", [(EXP, "constant"), (LOG, "constant"),
                                           (EXP, "adaptive"), (LOG, "adaptive")],
                             ids=lambda x: getattr(x, "name", x))
    def test_finite_runs_past_the_dots_range_keep_the_reference(self, loss, mode, every):
        """From init = 1e200 w* every margin is past 1e199: the running sum
        and, for a constant step, the log losses a = ln l(z) are finite, but
        their dots with themselves overflow, so each divergence test takes
        its exact fallback. The runs keep the reference's rows and
        diverged_at None, and warn of nothing."""
        ds = gen_random_separable(10, 100, 0.1, seed=3)
        cfg = GDConfig(loss=loss, eta=1.0, steps=self.STEPS, mode=mode, record_every=every,
                       init=1e200 * ds.w_star)
        want = reference_run_gd(ds, cfg)
        a = loss.log_value(ds.margins(cfg.init))
        total = np.sum(want.columns["w"], axis=0)
        assert np.isfinite(a).all() and np.isfinite(total).all()
        assert np.vdot(a, a) == np.vdot(total, total) == math.inf
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = run_gd(ds, cfg)
        assert got.diverged_at is None
        assert_same_run(got, want)

    def test_a_step_that_does_not_diverge_makes_no_reduction_for_its_tests(self):
        """A constant exp step that does not diverge settles both of its
        divergence tests with dots: the np.maximum.reduce and np.add.reduce
        calls of a run, counted under sys.setprofile, do not grow with its
        steps (they come from the rows at t = 0 and at the end)."""
        ds = small_ds()
        reductions = (np.maximum.reduce, np.add.reduce)

        def count(steps):
            calls = []

            def counting(frame, event, arg):
                if event == "c_call" and arg in reductions:
                    calls.append(arg)
            cfg = GDConfig(loss=EXP, eta=1.0, steps=steps, mode="constant", record_every=steps)
            sys.setprofile(counting)
            try:
                traj = run_gd(ds, cfg)
            finally:
                sys.setprofile(None)
            assert traj.diverged_at is None and traj.columns["t"] == [0, steps]
            return len(calls)
        assert count(20) == count(40)

    @pytest.mark.parametrize("mode", ["constant", "adaptive"])
    def test_log_sum_exp_runs_for_the_kept_rows(self, monkeypatch, mode):
        """descent._log_sum_exp, one entry per call (1 for one iterate, k for
        a stack of k): a constant run recording t = 0 and t = steps only
        evaluates step t - 1 at the push of t = steps, then at the flush the
        two averages and the two kept rows; an adaptive run evaluates every
        step, then the averages."""
        ds = small_ds()
        steps = 150
        cfg = GDConfig(loss=LOG, eta=1.0, steps=steps, mode=mode, record_every=steps)
        rows, log_sum_exp = [], descent._log_sum_exp

        def counting(a, weights):
            rows.append(len(a) if a.ndim == 2 else 1)
            return log_sum_exp(a, weights)

        monkeypatch.setattr(descent, "_log_sum_exp", counting)
        traj = run_gd(ds, cfg)
        assert traj.columns["t"] == [0, steps]
        assert rows == ([1, 2, 2] if mode == "constant" else [1] * (steps + 1) + [2])


def assert_same_columns(got, want):
    """Two trajectories have the same columns, bit for bit, and the same
    diverged_at."""
    assert got.diverged_at == want.diverged_at
    assert list(got.columns) == list(want.columns)
    for name, values in got.columns.items():
        assert np.array(values).tobytes() == np.array(want.columns[name]).tobytes(), name


def unbranched_log_kernels(monkeypatch, kinds=("log",)):
    """Replace the kernel pair of each named kind (the log loss's by
    default) by one from its unbranched kernels (_oracles.UNBRANCHED)."""
    for kind in kinds:
        monkeypatch.setattr(losses._KINDS[kind], "log_pair", unbranched_pair)


class TestSeparatedLog:
    """Past the burn-in of a large-stepsize log run every margin exceeds
    700, where both log kernels of the log loss are one negation. The runs
    keep the bits of the unbranched kernels."""

    @pytest.mark.parametrize("target", [False, True])
    @pytest.mark.parametrize("every", [1, 7])
    @pytest.mark.parametrize("agg", ["mean", "sum"])
    def test_a_run_entering_the_regime_mid_block_keeps_its_bits(
            self, monkeypatch, agg, every, target):
        ds = gen_batch_hard(0.1, 64, weighted=True)
        cfg = GDConfig(loss=LOG.with_aggregation(agg), eta=400.0, steps=300,
                       record_every=every)
        full = run_gd(ds, dataclasses.replace(cfg, record_every=1))
        margins, avg_margins = full.column("min_margin"), full.column("avg_min_margin")
        entered = int(np.argmax(avg_margins > 700.0))
        assert (margins[:entered] <= 700.0).any() and (margins[entered:] > 700.0).all()
        assert entered % descent.block_size(ds.n_rows) != 0  # inside a block
        if target:
            cfg = dataclasses.replace(
                cfg, target_log_avg_risk=full.columns["log_avg_risk"][entered + 20])
        got = run_gd(ds, cfg)
        if target:
            assert got.columns["t"][-1] < cfg.steps
        unbranched_log_kernels(monkeypatch)
        assert_same_columns(got, run_gd(ds, cfg))

    @pytest.mark.parametrize("agg", ["mean", "sum"])
    def test_a_recorded_rows_log_stepsize_is_read_off_its_risk(self, monkeypatch, agg):
        """A recorded row's log_stepsize has the bits of ln eta + ln
        (-l^{-1})' at the row's risk, and a stand-in for grad_phi that builds its own
        MarginState from the step's margins leaves every column unchanged."""
        ds = gen_batch_hard(0.1, 64, weighted=True)
        loss = LOG.with_aggregation(agg)
        cfg = GDConfig(loss=loss, eta=400.0, steps=200, record_every=3)
        clean = run_gd(ds, cfg)
        want = [log_stepsize(loss, descent._risk_from_log(log), cfg.eta, ds.n)
                for log in clean.columns["log_risk"]]
        assert np.array(clean.columns["log_stepsize"]).tobytes() == np.array(want).tobytes()
        grad, calls = descent.grad_phi, []

        def stand_in(state, ds, loss):
            calls.append(None)
            return grad(descent.MarginState(state.z, ds, loss), ds, loss)

        monkeypatch.setattr(descent, "grad_phi", stand_in)
        assert_same_columns(run_gd(ds, cfg), clean)
        assert len(calls) == cfg.steps


def _margins_from(low, n_rows):
    """n_rows margins falling from low + 50 to low: the first is not the
    smallest."""
    return low + np.linspace(50.0, 0.0, n_rows)


REGIME_LOWS = {"700": 700.0, "above-700": np.nextafter(700.0, np.inf),
               "below-700": np.nextafter(700.0, -np.inf)}


class TestSharedRegime:
    """phi_coefficients reads ln |l'| from the state's kernel pair, whose
    branch is decided once, when the state builds a = ln l(z): past 700
    (every margin, the state's top below -700) ln |l'| is a itself, and no
    log_abs_deriv call is made on either route. Either way its
    coefficients, and grad_phi, have the bytes of the unbranched
    log_abs_deriv (scipy's log_expit)."""

    DATASETS = {
        "random": lambda: gen_random_separable(10, 100, 0.1, seed=3),
        "random-weighted": lambda: _weighted(gen_random_separable(10, 101, 0.1, seed=2)),
        "batch-hard-weighted": lambda: gen_batch_hard(0.1, 64, weighted=True),
    }

    @staticmethod
    def coefficients_and_grad(z, ds, loss):
        """phi_coefficients and grad_phi at margins z, the number of
        log_abs_deriv calls they made and the branches they decided on."""
        calls, picks = [], []
        log_abs_deriv, branch = LossSpec.log_abs_deriv, losses._Log.branch

        def counting(self, margins):
            calls.append(None)
            return log_abs_deriv(self, margins)

        def deciding(lo, high):
            pick = branch(lo, high)
            picks.append(pick.__name__)
            return pick

        with pytest.MonkeyPatch.context() as mp, np.errstate(invalid="ignore"):
            mp.setattr(LossSpec, "log_abs_deriv", counting)
            mp.setattr(losses._Log, "branch", deciding)
            coef = phi_coefficients(z, ds, loss)
            grad = grad_phi(descent.MarginState(z, ds, loss), ds, loss)
        return coef, grad, len(calls), picks

    @staticmethod
    def oracle(z, ds, loss):
        """The same with the unbranched kernels."""
        with pytest.MonkeyPatch.context() as mp, np.errstate(invalid="ignore"):
            unbranched_log_kernels(mp)
            return (phi_coefficients(z, ds, loss),
                    grad_phi(descent.MarginState(z, ds, loss), ds, loss))

    def assert_oracle_bytes(self, z, ds, loss, branch):
        """branch: the one branch z takes, for 1-D margins and a stack alike."""
        coef, grad, calls, picks = self.coefficients_and_grad(z, ds, loss)
        want_coef, want_grad = self.oracle(z, ds, loss)
        assert coef.tobytes() == want_coef.tobytes()
        assert grad.tobytes() == want_grad.tobytes()
        assert calls == 0
        assert picks == [branch] * 2  # one decision per MarginState built

    @pytest.mark.parametrize("agg", ["mean", "sum"])
    @pytest.mark.parametrize("low", list(REGIME_LOWS))
    @pytest.mark.parametrize("name", list(DATASETS))
    def test_the_smallest_margin_at_700(self, name, low, agg):
        ds = self.DATASETS[name]()
        z = _margins_from(REGIME_LOWS[low], ds.n_rows)
        assert z.min() == REGIME_LOWS[low] and z[0] != z.min()
        assert bool(LOG.log_value(z).max() < -700.0) is (low == "above-700")
        self.assert_oracle_bytes(z, ds, LOG.with_aggregation(agg),
                                 "past_700" if low == "above-700" else "full")

    @pytest.mark.parametrize("agg", ["mean", "sum"])
    @pytest.mark.parametrize("name", list(DATASETS))
    def test_a_nan_margin_takes_the_kernel(self, name, agg):
        ds = self.DATASETS[name]()
        for at in (0, ds.n_rows - 1):
            z = _margins_from(800.0, ds.n_rows)
            z[at] = math.nan
            self.assert_oracle_bytes(z, ds, LOG.with_aggregation(agg), "full")

    @pytest.mark.parametrize("agg", ["mean", "sum"])
    @pytest.mark.parametrize("name", list(DATASETS))
    def test_each_row_of_a_stack_takes_its_own_branch(self, name, agg):
        """Rows past 700 around one at or below it: each row alone takes its
        own branch, and in the stack, which makes one decision and so takes
        full, it has the bytes of that solo call."""
        ds, loss = self.DATASETS[name](), LOG.with_aggregation(agg)
        above = [_margins_from(low, ds.n_rows)
                 for low in (np.nextafter(700.0, np.inf), 701.0, 2000.0)]
        for low, branch in ((700.0, "full"), (np.nextafter(700.0, -np.inf), "full"),
                            (3.0, "positive")):
            z = np.stack([above[0], _margins_from(low, ds.n_rows), *above[1:]])
            self.assert_oracle_bytes(z, ds, loss, "full")
            coef, grad, _, _ = self.coefficients_and_grad(z, ds, loss)
            for j, row in enumerate(z):
                solo_coef, solo_grad, calls, picks = self.coefficients_and_grad(row, ds, loss)
                assert calls == 0 and picks == [branch if j == 1 else "past_700"] * 2
                assert coef[j].tobytes() == solo_coef.tobytes()
                assert grad[j].tobytes() == solo_grad.tobytes()
        self.assert_oracle_bytes(np.stack(above), ds, loss, "past_700")

    @pytest.mark.parametrize("agg", ["mean", "sum"])
    def test_a_run_tests_the_regime_once_per_iterate_past_it(self, monkeypatch, agg):
        """A run whose margins all pass 700 mid-run makes one branch decision
        per iterate, from one reduction (its smallest margin) past the
        regime and two before it, and one per block of averaged iterates,
        whose stack takes one kernel pair call."""
        ds = gen_batch_hard(0.1, 64, weighted=True)
        cfg = GDConfig(loss=LOG.with_aggregation(agg), eta=400.0, steps=300)
        calls, decisions = [], []
        log_pair, branch = losses._Log.log_pair, losses._Log.branch

        def pairing(spec, z):
            calls.append(z.ndim)
            return log_pair(spec, z)

        def deciding(lo, high):
            asked = []

            def counted():
                asked.append(None)
                return high()
            pick = branch(lo, counted)
            decisions.append((calls[-1], lo > 700.0, len(asked)))
            return pick

        monkeypatch.setattr(losses._Log, "log_pair", pairing)
        monkeypatch.setattr(losses._Log, "branch", deciding)
        traj = run_gd(ds, cfg)
        inside = int((traj.column("min_margin") > 700.0).sum())
        outside = cfg.steps + 1 - inside
        assert inside > 100 and outside > 10
        assert traj.column("min_margin")[-1] > 700.0
        blocks = -(-(cfg.steps + 1) // descent.block_size(ds.n_rows))
        assert calls.count(1) == cfg.steps + 1 and calls.count(2) == blocks
        assert decisions.count((1, True, 0)) == inside
        assert decisions.count((1, False, 1)) == outside
        assert sum(ndim == 2 for ndim, _, _ in decisions) == blocks
        assert len(decisions) == cfg.steps + 1 + blocks


# Runs whose iterates change branch mid-block (name -> loss, mode, eta, on
# gen_random_separable(10, 100, 0.1) with the seed): log margins enter (0,
# 700] for good at t = 203 (constant), or leave and re-enter it, straddling
# 700 above 0 in between (adaptive); poly:2 and semicircle margins turn all
# nonnegative at t = 70 and 182 (poly), 112 and 20 (semicircle) under the
# mean, and within the first block under the sum
BRANCH_RUNS = {
    "log-constant": (LOG, "constant", 1.0, 0),
    "log-adaptive": (LOG, "adaptive", 50.0, 0),
    "poly:2-constant": (poly(2.0), "constant", 0.1, 3),
    "poly:2-adaptive": (poly(2.0), "adaptive", 50.0, 3),
    "semicircle-constant": (SEMICIRCLE, "constant", 1.0, 3),
    "semicircle-adaptive": (SEMICIRCLE, "adaptive", 50.0, 3),
}


def branch_run(name, agg, **changes):
    """The dataset and the GDConfig of a BRANCH_RUNS run, 300 steps."""
    loss, mode, eta, seed = BRANCH_RUNS[name]
    ds = gen_random_separable(10, 100, 0.1, seed=seed)
    cfg = GDConfig(loss=loss.with_aggregation(agg), eta=eta, steps=300, mode=mode)
    return ds, dataclasses.replace(cfg, **changes)


def deciding(monkeypatch, kind):
    """Record each kernel pair call of the kind's record (the shape of its
    margins) and each branch decision (the branch's name and the ndim of the
    call that made it)."""
    pairs, decisions = [], []
    log_pair, branch = kind.log_pair, kind.branch

    def pairing(spec, z):
        pairs.append(z.shape)
        return log_pair(spec, z)

    def choosing(lo, high):
        pick = branch(lo, high)
        decisions.append((len(pairs[-1]), pick.__name__))
        return pick

    monkeypatch.setattr(kind, "log_pair", pairing)
    monkeypatch.setattr(kind, "branch", choosing)
    return pairs, decisions


class TestBranchedRuns:
    """A run whose iterates change branch inside a block keeps the bits of
    the unbranched kernels, for log, poly:2 and semicircle, under the mean
    and the sum, in both modes."""

    @pytest.mark.parametrize("target", [False, True])
    @pytest.mark.parametrize("every", [1, 7])
    @pytest.mark.parametrize("agg", ["mean", "sum"])
    @pytest.mark.parametrize("name", list(BRANCH_RUNS))
    def test_a_run_changing_branch_mid_block_keeps_its_bits(
            self, monkeypatch, name, agg, every, target):
        ds, cfg = branch_run(name, agg, record_every=every)
        with pytest.MonkeyPatch.context() as mp:
            _, decisions = deciding(mp, cfg.loss.ops)
            full = run_gd(ds, dataclasses.replace(cfg, record_every=1))
        picks = [pick for ndim, pick in decisions if ndim == 1]  # one per iterate
        assert len(picks) == cfg.steps + 1 and len(set(picks)) >= 2
        last = max(t for t in range(1, len(picks)) if picks[t] != picks[t - 1])
        assert last % descent.block_size(ds.n_rows) != 0  # inside a block
        if target:
            row = min(last + 20, cfg.steps - 20)
            cfg = dataclasses.replace(cfg, target_log_avg_risk=full.columns["log_avg_risk"][row])
        got = run_gd(ds, cfg)
        if target:
            assert got.columns["t"][-1] < cfg.steps
        unbranched_log_kernels(monkeypatch, kinds=("log", "poly", "semicircle"))
        assert_same_columns(got, run_gd(ds, cfg))


class TestBranchOnce:
    """Each kernel pair call decides its branch once, for one iterate and a
    stack of them alike; the coefficients read the pair's second callable
    and decide nothing again, and no LossSpec kernel runs in the loop. An
    adaptive run makes one pair call on one iterate per iterate computed."""

    @pytest.mark.parametrize("agg", ["mean", "sum"])
    @pytest.mark.parametrize("name", list(BRANCH_RUNS))
    def test_at_most_one_branch_decision_per_iterate_per_kernel_pair(
            self, monkeypatch, name, agg):
        ds, cfg = branch_run(name, agg, record_every=7)
        public = []
        for kernel in ("log_value", "log_abs_deriv"):
            monkeypatch.setattr(LossSpec, kernel, lambda *args: public.append(args))
        pairs, decisions = deciding(monkeypatch, cfg.loss.ops)
        traj = run_gd(ds, cfg)
        assert traj.diverged_at is None and traj.columns["t"][-1] == cfg.steps
        assert not public
        assert len(decisions) == len(pairs)
        iterates = [shape for shape in pairs if len(shape) == 1]
        assert len(iterates) == cfg.steps + 1
        blocks = -(-len(traj.columns["t"]) // descent.block_size(ds.n_rows))
        stacks = len(pairs) - len(iterates)
        # the averages of each block; in constant mode also the risks it fills
        assert stacks == blocks if cfg.mode == "adaptive" else blocks <= stacks <= 2 * blocks


def _weighted(ds, seed=0):
    """ds with integer multiplicities 1..8 on its rows."""
    weights = np.random.default_rng(seed).integers(1, 9, ds.n_rows).astype(float)
    return dataclasses.replace(ds, weights=weights)


# n_rows 7, 100 and 101, so that stacked rows do not always start on a SIMD
# lane boundary, each plain and weighted, and the weighted batch-hard set
STACK_DATASETS = {
    **{f"random-{n}": (lambda n=n: gen_random_separable(10, n, 0.1, seed=n))
       for n in (7, 100, 101)},
    **{f"random-{n}-weighted": (lambda n=n: _weighted(gen_random_separable(10, n, 0.1, seed=n)))
       for n in (7, 100, 101)},
    "batch-hard-weighted": lambda: gen_batch_hard(0.1, 64, weighted=True),
}
STACK_LOSSES = [EXP, LOG, poly(2.0), poly(0.5), SEMICIRCLE]


def _bits(x) -> bytes:
    """The bytes of a float, an array, a RiskValue or a list of them."""
    if isinstance(x, RiskValue):
        x = (x.value, x.log_value)
    elif isinstance(x, list) and x and isinstance(x[0], RiskValue):
        x = [(r.value, r.log_value) for r in x]
    return np.asarray(x, dtype=float).tobytes()


def _probe_stack(d: int, seed: int = 0) -> np.ndarray:
    """Vectors at scales 1e-3 .. 10^2.5, so that poly's risk passes 1 (its
    left branch and _brentq), plus the zero vector."""
    rng = np.random.default_rng(seed)
    stack = rng.standard_normal((23, d)) * 10.0 ** rng.uniform(-3.0, 2.5, (23, 1))
    return np.vstack([stack, np.zeros((1, d))])


class TestStacks:
    """risk, phi, phi_coefficients, grad_phi, grad_risk and the Dataset
    passes take a (k, d) stack with one body for both shapes; every stacked
    row has the bits of the call on that row alone."""

    @pytest.mark.parametrize("weights", [None, np.array([1.0, 3.0, 2.0])],
                             ids=["plain", "weighted"])
    def test_log_sum_exp_rows_whose_top_is_not_finite(self, weights):
        """Rows whose top is +inf, -inf or nan have e and total nan and lse =
        top, as one iterate has, next to a finite row; the stack warns
        nothing."""
        a = np.array([[0.5, -1.0, 2.0], [0.5, math.inf, 2.0], [-math.inf] * 3,
                      [0.5, math.nan, 2.0]])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            top, e, totals, lses = descent._log_sum_exp(a, weights)
        for j, row in enumerate(a):
            solo = descent._log_sum_exp(row, weights)
            assert _bits([top[j, 0], totals[j, 0], lses[j]]) == _bits([solo[0], solo[2], solo[3]])
            assert e[j].tobytes() == solo[1].tobytes()

    @pytest.mark.parametrize("agg", ["mean", "sum"])
    @pytest.mark.parametrize("base", STACK_LOSSES, ids=lambda s: s.name)
    @pytest.mark.parametrize("name", list(STACK_DATASETS))
    def test_each_row_has_its_solo_bits(self, name, base, agg):
        ds = STACK_DATASETS[name]()
        loss = base.with_aggregation(agg)
        stack = _probe_stack(ds.d)
        z = ds.margins(stack)
        with np.errstate(over="ignore"):
            stacked = {"risk": risk(stack, ds, loss), "phi": phi(stack, ds, loss),
                       "grad_phi": grad_phi(stack, ds, loss),
                       "grad_risk": grad_risk(stack, ds, loss),
                       "phi_coefficients": phi_coefficients(z, ds, loss)}
            assert isinstance(stacked["risk"], list) and isinstance(stacked["phi"], list)
            assert stacked["grad_phi"].shape == stacked["grad_risk"].shape == stack.shape
            assert stacked["phi_coefficients"].shape == z.shape
            for j, w in enumerate(stack):
                solo = {"risk": risk(w, ds, loss), "phi": phi(w, ds, loss),
                        "grad_phi": grad_phi(w, ds, loss), "grad_risk": grad_risk(w, ds, loss),
                        "phi_coefficients": phi_coefficients(ds.margins(w), ds, loss)}
                for fn, value in solo.items():
                    assert _bits(stacked[fn][j]) == _bits(value), (fn, j)
        if base.kind == "poly":  # the stack reaches the left branch
            assert max(r.value for r in stacked["risk"]) > 1.0

    @pytest.mark.parametrize("name", list(STACK_DATASETS))
    def test_signed_sum_rows_have_their_solo_bits(self, name):
        ds = STACK_DATASETS[name]()
        coef = np.random.default_rng(1).standard_normal((13, ds.n_rows))
        stacked = ds.signed_sum(coef)
        assert stacked.shape == (13, ds.d)
        for j in range(len(coef)):
            assert stacked[j].tobytes() == ds.signed_sum(coef[j]).tobytes(), j

    def test_signed_sum_is_the_gradient_pass(self):
        ds = _weighted(gen_random_separable(10, 101, 0.1, seed=2))
        coef = np.random.default_rng(2).random(ds.n_rows)
        assert ds.signed_sum(coef).tobytes() == ((coef * ds.labels) @ ds.features).tobytes()
        w = _probe_stack(ds.d)[5]
        want = -((phi_coefficients(ds.margins(w), ds, LOG) * ds.labels) @ ds.features)
        assert grad_phi(w, ds, LOG).tobytes() == want.tobytes()

    @pytest.mark.parametrize("loss", [EXP, LOG, poly(2.0)], ids=lambda s: s.name)
    def test_a_stack_over_several_blocks_keeps_its_solo_bits(self, loss):
        """20 000 rows take a stack block_rows(20 000) = 3 vectors at a time."""
        ds = gen_random_separable(10, 20_000, 0.1, seed=5)
        stack = _probe_stack(ds.d)
        with np.errstate(over="ignore", invalid="ignore"):  # grad_risk of exp overflows
            for fn in (risk, phi, grad_phi, grad_risk):
                stacked = fn(stack, ds, loss)
                assert len(stacked) == len(stack)
                assert _bits(stacked) == _bits([fn(w, ds, loss) for w in stack]), fn.__name__

    def test_a_long_stack_peaks_at_a_block(self):
        """phi on 2000 vectors over 4000 rows takes them block_rows(4000) =
        16 at a time, so its arrays of margins hold 64 000 floats each,
        where one (2000, 4000) array would hold 8 million (64 MB)."""
        ds = gen_random_separable(10, 4000, 0.1, seed=6)
        stack = np.random.default_rng(6).standard_normal((2000, ds.d))
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            stacked = phi(stack, ds, LOG)
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        assert peak < 4 * 2**20
        assert _bits(stacked) == _bits([phi(w, ds, LOG) for w in stack])

    @pytest.mark.parametrize("agg", ["mean", "sum"])
    @pytest.mark.parametrize("loss", STACK_LOSSES, ids=lambda s: s.name)
    def test_an_empty_stack(self, loss, agg):
        ds = gen_random_separable(10, 101, 0.1, seed=4)
        loss, stack = loss.with_aggregation(agg), np.zeros((0, ds.d))
        assert risk(stack, ds, loss) == [] and phi(stack, ds, loss) == []
        assert grad_phi(stack, ds, loss).shape == grad_risk(stack, ds, loss).shape == (0, ds.d)
        assert phi_coefficients(ds.margins(stack), ds, loss).shape == (0, ds.n_rows)

    def test_a_stack_of_one_is_the_solo_call(self):
        ds = gen_random_separable(10, 101, 0.1, seed=4)
        w = _probe_stack(ds.d)[3]
        for loss in (EXP, LOG, poly(2.0)):
            assert _bits(risk(w[None], ds, loss)) == _bits([risk(w, ds, loss)])
            assert _bits(grad_phi(w[None], ds, loss)[0]) == _bits(grad_phi(w, ds, loss))


class TestMetamorphic:
    @pytest.mark.parametrize("loss", SMOOTH, ids=lambda s: s.name)
    def test_row_permutation_leaves_the_iterates(self, loss):
        ds = gen_random_separable(10, 100, 0.1, seed=3)
        cfg = GDConfig(loss=loss, eta=8.0, steps=30)
        a, b = run_gd(ds, cfg), run_gd(permute_rows(ds), cfg)
        for name in ("w", "avg_w"):
            assert max_relative_gap(a.column(name), b.column(name)) <= 1e-12, name

    @pytest.mark.parametrize("mode,eta", [("adaptive", 50.0), ("constant", 1.0)])
    @pytest.mark.parametrize("loss", SMOOTH, ids=lambda s: s.name)
    def test_negated_rows_leave_every_column(self, loss, mode, eta):
        """(x, y) -> (-x, -y) gives the same margins and gradient terms, so
        every row is bit-identical, with the target on. (The margins of
        w = 0 are zeros whose signs follow the labels, so min_margin at
        t = 0 is compared as a float: 0.0 == -0.0.)"""
        for ds in (gen_random_separable(10, 100, 0.1, seed=3), gen_batch_hard(0.1, 64)):
            base = GDConfig(loss=loss, eta=eta, steps=30, mode=mode)
            target = run_gd(ds, base).columns["log_avg_risk"][15]
            cfg = dataclasses.replace(base, record_every=7, target_log_avg_risk=target)
            a = run_gd(ds, cfg)
            assert a.columns["t"][-1] < base.steps
            assert_same_run(run_gd(negate_rows(ds), cfg), a)

    @pytest.mark.parametrize("loss", SMOOTH, ids=lambda s: s.name)
    def test_joint_rotation_rotates_the_iterates(self, loss):
        ds = gen_random_separable(10, 100, 0.1, seed=3)
        q = random_rotation(ds.d, seed=5)
        cfg = GDConfig(loss=loss, eta=8.0, steps=30)
        a, b = run_gd(ds, cfg), run_gd(rotate(ds, q), cfg)
        for name in ("w", "avg_w"):
            assert max_relative_gap(a.column(name), b.column(name) @ q) <= 1e-12, name
        assert np.max(np.abs(a.column("log_risk") - b.column("log_risk"))) <= 1e-12


class TestBounds:
    def test_averaged_risk_log_bound_pinned(self):
        # gamma=0.1, eta=8, t=199: g = 2, bound = -(3/8)*8 = -3
        assert averaged_risk_log_bound(0.1, 8.0, 199) == pytest.approx(-3.0, rel=1e-12)

    def test_bound_after_burn_in(self):
        for gamma in [0.05, 0.1, 0.2]:
            for eta in [0.5, 4.0, 400.0]:
                t = math.ceil(1.0 / gamma**2)
                assert averaged_risk_log_bound(gamma, eta, t) <= -(gamma**2) * eta / 4.0

    def test_general_bound_pinned(self):
        # g = 2 with C = 4 zeroes the argument: bound = ln l(0) = 0
        assert general_loss_risk_log_bound(poly(2.0), 0.1, 8.0, 199, 16) == pytest.approx(
            0.0, abs=1e-10)

    def test_general_bound_reduces_to_exp(self):
        for t in [1, 10, 500]:
            a = general_loss_risk_log_bound(EXP, 0.1, 40.0, t, 100)
            b = averaged_risk_log_bound(0.1, 40.0, t)
            assert a == pytest.approx(b, rel=1e-12)

    def test_parameter_errors(self):
        with pytest.raises(ValueError):
            averaged_risk_log_bound(0.1, 8.0, 0)
        with pytest.raises(ValueError):
            averaged_risk_log_bound(1.5, 8.0, 10)
        with pytest.raises(ValueError):
            averaged_risk_log_bound(0.1, 0.0, 10)
        with pytest.raises(ValueError):
            general_loss_risk_log_bound(HINGE, 0.1, 8.0, 10, 1)

    def test_phi_from_risk_deep_tails(self):
        # log loss: phi tracks log risk when the risk underflows
        assert phi_from_risk(LOG, RiskValue(0.0, -900.0), 1) == pytest.approx(-900.0, rel=1e-12)
        # exp: phi is exactly the log risk
        assert phi_from_risk(EXP, RiskValue(0.0, -1234.5), 1) == -1234.5
        # semicircle: phi = u - 1/u
        assert phi_from_risk(SEMICIRCLE, RiskValue(2.0, math.log(2.0)), 1) == pytest.approx(1.5)
        # poly above l(0) = 1 uses the numeric branch: phi = -inverse(u)
        p = poly(2.0)
        assert phi_from_risk(p, RiskValue(5.0, math.log(5.0)), 1) == pytest.approx(
            -p.inverse(5.0), rel=1e-12
        )
