"""Tests for risk evaluation, transformed-objective gradients, the GD loop,
and the averaged-iterate bounds."""

import dataclasses
import math

import numpy as np
import pytest

from margin_lab import descent
from margin_lab.datasets import (
    Dataset,
    gen_batch_hard,
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
    log_adaptive_stepsize,
    phi,
    phi_coefficients,
    phi_from_risk,
    risk,
    run_gd,
)
from margin_lab.losses import EXP, HINGE, LOG, SEMICIRCLE, LossSpec, poly

from _oracles import fd_grad, max_relative_gap, permute_rows

SMOOTH = [EXP, LOG, poly(2.0), SEMICIRCLE]


def small_ds(seed=11):
    return gen_random_separable(5, 20, 0.2, seed=seed)


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
        mean = EXP.with_n(ds.n)
        for eta in (4.0, 400.0):
            a = run_gd(ds, GDConfig(loss=mean, eta=eta, steps=200))
            b = run_gd(ds, GDConfig(loss=mean.with_aggregation("sum"), eta=eta, steps=200))
            assert len(a.points) == len(b.points) == 201
            for p, q in zip(a.points, b.points):
                assert np.array_equal(p.w, q.w) and np.array_equal(p.avg_w, q.avg_w)
                assert p.risk == q.risk and p.avg_risk == q.avg_risk
                assert p.log_stepsize == q.log_stepsize
                assert p.min_margin == q.min_margin
                assert p.avg_min_margin == q.avg_min_margin
                # phi_sum = ln(n L) = phi + ln n
                assert q.phi == pytest.approx(p.phi + math.log(ds.n), abs=1e-12)

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
            loss = base.with_n(a.n).with_aggregation("sum")
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
        loss = loss.with_n(ds.n).with_aggregation("sum")
        rng = np.random.default_rng(6)
        for _ in range(3):
            w = rng.standard_normal(ds.d) * 0.8
            g = grad_phi(w, ds, loss)
            np.testing.assert_allclose(g, fd_grad(lambda v: phi(v, ds, loss), w),
                                       rtol=1e-5, atol=1e-8)
            assert np.linalg.norm(g) <= loss.lipschitz_const() + 1e-9
            # eta_t * grad L = eta * grad phi_sum
            r = risk(w, ds, loss)
            np.testing.assert_allclose(
                math.exp(log_adaptive_stepsize(loss, r, 3.7)) * grad_risk(w, ds, loss), 3.7 * g,
                rtol=1e-8)

    def test_log_sum_phi_closed_form(self):
        # phi_sum = ln(prod_i (1 + e^{-z_i}) - 1) for the log loss
        ds = small_ds()
        w = np.full(ds.d, 0.3)
        loss = LOG.with_n(ds.n).with_aggregation("sum")
        z = ds.margins(w)
        want = math.log(math.prod(1.0 + math.exp(-zi) for zi in z) - 1.0)
        assert phi(w, ds, loss) == pytest.approx(want, rel=1e-12)

    def test_needs_loss_bound_to_dataset_size(self):
        ds = small_ds()
        loss = LOG.with_aggregation("sum")
        for call in (lambda: grad_phi(np.zeros(ds.d), ds, loss),
                     lambda: phi(np.zeros(ds.d), ds, loss),
                     lambda: run_gd(ds, GDConfig(loss=loss, eta=1.0, steps=2))):
            with pytest.raises(ValueError, match="with_n"):
                call()


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
            b = math.exp(log_adaptive_stepsize(loss, r, eta)) * grad_risk(w, ds, loss)
            np.testing.assert_allclose(a, b, rtol=1e-8)

    @pytest.mark.parametrize("loss", SMOOTH, ids=lambda s: s.name)
    def test_grad_phi_norm_capped(self, loss):
        ds = small_ds()
        bound = loss.with_n(ds.n).lipschitz_const()
        rng = np.random.default_rng(8)
        for _ in range(20):
            w = rng.standard_normal(ds.d) * rng.uniform(0.1, 30.0)
            assert np.linalg.norm(grad_phi(w, ds, loss)) <= bound + 1e-9


class TestAdaptiveStepsize:
    def test_pinned(self):
        u = math.log(2.0)
        for loss, r in ((EXP, RiskValue(0.5, math.log(0.5))), (LOG, RiskValue(u, math.log(u))),
                        (SEMICIRCLE, RiskValue(1.0, 0.0))):
            assert math.exp(log_adaptive_stepsize(loss, r, 1.0)) == pytest.approx(2.0, rel=1e-14)

    def test_log_domain_overflow(self):
        # eta_t = e^800 is past the float range; its log is not
        r = RiskValue(0.0, -800.0)
        assert log_adaptive_stepsize(EXP, r, 1.0) == pytest.approx(800.0, rel=1e-15)

    def test_eta_validation(self):
        with pytest.raises(ValueError):
            log_adaptive_stepsize(EXP, RiskValue(1.0, 0.0), 0.0)


class TestRunGD:
    @pytest.mark.parametrize("loss", SMOOTH, ids=lambda s: s.name)
    def test_first_step_is_eta_mean_feature(self, loss):
        # (-l^{-1})'(l(0)) * |l'(0)| = 1 for every supported loss, so
        # w_1 = eta * mean(y x) regardless of the loss
        ds = small_ds()
        eta = 3.0
        traj = run_gd(ds, GDConfig(loss=loss, eta=eta, steps=1))
        np.testing.assert_allclose(
            traj.points[1].w, eta * mean_signed_feature(ds), rtol=1e-13, atol=1e-16
        )

    def test_running_average_matches_iterates(self):
        ds = small_ds()
        traj = run_gd(ds, GDConfig(loss=EXP, eta=1.0, steps=40))
        iters = np.stack([p.w for p in traj.points])
        for t, p in enumerate(traj.points):
            np.testing.assert_allclose(p.avg_w, iters[: t + 1].mean(axis=0), rtol=1e-12, atol=1e-15)

    def test_phi_matches_inverse(self):
        ds = small_ds()
        for loss in SMOOTH:
            traj = run_gd(ds, GDConfig(loss=loss, eta=1.0, steps=30))
            for p in traj.points:
                if 0.0 < p.risk.value < math.inf:
                    want = -loss.inverse(p.risk.value)
                    assert p.phi == pytest.approx(want, rel=1e-8, abs=1e-10)

    def test_record_every_subsamples_and_keeps_last(self):
        ds = small_ds()
        traj = run_gd(ds, GDConfig(loss=EXP, eta=1.0, steps=25, record_every=10))
        assert [p.t for p in traj.points] == [0, 10, 20, 25]

    def test_small_step_monotone(self):
        ds = small_ds()
        traj = run_gd(ds, GDConfig(loss=EXP, eta=0.05, steps=60))
        logs = traj.column("log_risk")
        assert np.all(np.diff(logs) < 0)
        assert not any(p.descent_violated for p in traj.points)

    def test_deep_regime_stays_finite(self):
        ds = gen_random_separable(10, 100, 0.1, seed=0)
        traj = run_gd(ds, GDConfig(loss=EXP, eta=4000.0, steps=150))
        logs = traj.column("log_risk")
        assert np.all(np.isfinite(logs))
        assert traj.final.avg_risk.log_value < -500.0
        assert traj.final.risk.value == 0.0  # underflowed, log-domain carries on
        # stepsize blows past the float range but its log stays finite
        assert traj.final.stepsize == math.inf
        assert math.isfinite(traj.final.log_stepsize)
        assert traj.diverged_at is None

    def test_constant_mode_can_diverge(self):
        ds = gen_two_point(0.05)
        traj = run_gd(ds, GDConfig(loss=EXP, eta=1000.0, steps=50, mode="constant"))
        assert traj.diverged_at is not None
        assert len(traj.points) <= traj.diverged_at + 1

    @pytest.mark.filterwarnings("ignore:overflow encountered in add:RuntimeWarning")
    def test_adaptive_mode_diverges_when_the_sum_of_iterates_overflows(self):
        # each step has length up to eta = 1e308; the running sum of the
        # iterates overflows in the step to t = 4, while the iterate stays finite
        ds = gen_random_separable(10, 100, 0.1, seed=0)
        traj = run_gd(ds, GDConfig(loss=EXP, eta=1e308, steps=5))
        assert traj.diverged_at == 4
        assert [p.t for p in traj.points] == [0, 1, 2, 3]
        assert np.all(np.isfinite(traj.column("log_avg_risk")))
        assert np.all(np.isfinite(traj.column("avg_min_margin")))

    def test_constant_mode_moderate_converges(self):
        ds = small_ds()
        traj = run_gd(ds, GDConfig(loss=LOG, eta=1.0, steps=200, mode="constant"))
        assert traj.diverged_at is None
        assert traj.final.risk.log_value < risk(np.zeros(ds.d), ds, LOG).log_value

    def test_nonzero_init(self):
        ds = small_ds()
        w0 = np.full(ds.d, 0.1)
        traj = run_gd(ds, GDConfig(loss=EXP, eta=0.5, steps=3, init=w0))
        np.testing.assert_array_equal(traj.points[0].w, w0)
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
        assert traj.final.risk.value == 0.0
        assert traj.final.min_margin > 0.0


def assert_same_point(a, b):
    """Every field of two trajectory points agrees bit for bit."""
    assert vars(a).keys() == vars(b).keys()
    for name, x in vars(a).items():
        y = getattr(b, name)
        if isinstance(x, np.ndarray):
            assert x.tobytes() == y.tobytes(), name
        else:
            assert x == y or (x != x and y != y), name


def first_passage(traj, target):
    return next(p.t for p in traj.points
                if p.t >= 1 and p.avg_risk.log_value <= target)


class TestTargetStop:
    @pytest.mark.parametrize("mode,eta", [("adaptive", 50.0), ("constant", 1.0)])
    @pytest.mark.parametrize("loss", [EXP, LOG], ids=lambda s: s.name)
    def test_stopped_run_is_a_prefix_ending_at_first_passage(self, loss, mode, eta):
        ds = small_ds()
        full = run_gd(ds, GDConfig(loss=loss, eta=eta, steps=80, mode=mode))
        target = full.points[40].avg_risk.log_value
        hit = first_passage(full, target)
        stopped = run_gd(ds, GDConfig(loss=loss, eta=eta, steps=80, mode=mode,
                                      target_log_avg_risk=target))
        assert [p.t for p in stopped.points] == list(range(hit + 1))
        for a, b in zip(stopped.points, full.points):
            assert_same_point(a, b)
        assert stopped.final.avg_risk.log_value <= target
        assert all(p.avg_risk.log_value > target for p in stopped.points[1:-1])
        assert stopped.diverged_at is None

    def test_unreached_target_changes_nothing(self):
        ds = small_ds()
        full = run_gd(ds, GDConfig(loss=LOG, eta=50.0, steps=60))
        stopped = run_gd(ds, GDConfig(loss=LOG, eta=50.0, steps=60,
                                      target_log_avg_risk=-1e9))
        assert len(stopped.points) == len(full.points) == 61
        for a, b in zip(stopped.points, full.points):
            assert_same_point(a, b)

    def test_stop_point_is_recorded_off_the_grid(self):
        ds = small_ds()
        full = run_gd(ds, GDConfig(loss=EXP, eta=50.0, steps=200))
        target = full.points[33].avg_risk.log_value
        hit = first_passage(full, target)
        assert hit % 7 != 0
        stopped = run_gd(ds, GDConfig(loss=EXP, eta=50.0, steps=200, record_every=7,
                                      target_log_avg_risk=target))
        want = list(range(0, hit, 7)) + [hit]
        assert [p.t for p in stopped.points] == want
        for p in stopped.points:
            assert_same_point(p, full.points[p.t])

    def test_t0_never_stops(self):
        # the averaged iterate at t = 0 is w_0 itself; the first step counts
        ds = small_ds()
        traj = run_gd(ds, GDConfig(loss=EXP, eta=0.5, steps=10,
                                   target_log_avg_risk=math.inf))
        assert [p.t for p in traj.points] == [0, 1]

    def test_nan_target_is_refused(self):
        with pytest.raises(ValueError):
            GDConfig(loss=EXP, eta=1.0, steps=5, target_log_avg_risk=math.nan)


def reference_run_gd(ds, config):
    """run_gd written out from the public per-quantity functions, each of
    which makes its own pass over the data: the loop the fused step must
    reproduce bit for bit."""
    loss = config.loss
    w = np.zeros(ds.d) if config.init is None else np.array(config.init, dtype=float)
    traj = Trajectory(config=config)
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
                log_eta_t = log_adaptive_stepsize(loss, r, config.eta)
            else:
                log_eta_t = math.log(config.eta)
            if avg_r is None:
                avg_w = wsum / (t + 1)
                avg_r = risk(avg_w, ds, loss)
            traj.append(dict(
                t=t, w=w.copy(), log_risk=r.log_value,
                phi=phi_from_risk(loss, r) if loss.kind != "hinge" else math.nan,
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


class TestFusedStep:
    @pytest.mark.parametrize("loss,agg,mode,etas", FUSED_GRID,
                             ids=[f"{c[0].name}-{c[1]}-{c[2]}" for c in FUSED_GRID])
    def test_bit_identical_to_the_unfused_loop(self, loss, agg, mode, etas):
        for ds_name, make in FUSED_DATASETS.items():
            ds = make()
            spec = loss.with_aggregation(agg).with_n(ds.n)
            for eta in etas:
                base = GDConfig(loss=spec, eta=eta, steps=30, mode=mode)
                full = reference_run_gd(ds, base)
                # a target the run passes, unless it diverges first
                target = full.points[len(full.points) // 2].avg_risk.log_value
                for tgt in (None, target):
                    for every in (1, 7):
                        cfg = dataclasses.replace(base, record_every=every,
                                                  target_log_avg_risk=tgt)
                        case = f"{ds_name} eta={eta} target={tgt} record_every={every}"
                        with np.errstate(all="ignore"):
                            want = reference_run_gd(ds, cfg)
                            got = run_gd(ds, cfg)
                        assert got.diverged_at == want.diverged_at, case
                        assert len(got.points) == len(want.points), case
                        for a, b in zip(got.points, want.points):
                            assert_same_point(a, b)

    @pytest.mark.parametrize("mode,loss", [("adaptive", LOG), ("constant", EXP)])
    @pytest.mark.parametrize("target", [False, True])
    def test_one_margins_pass_per_iterate(self, monkeypatch, mode, loss, target):
        """ds.margins runs once per iterate, plus once for the averaged
        iterate at each recorded point or target check; the gradient
        function runs once per step made."""
        ds = small_ds()
        cfg = GDConfig(loss=loss, eta=50.0 if mode == "adaptive" else 1.0, steps=40,
                       mode=mode, record_every=7)
        if target:
            full = run_gd(ds, dataclasses.replace(cfg, record_every=1))
            cfg = dataclasses.replace(cfg, target_log_avg_risk=full.points[20].avg_risk.log_value)
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
        traj = run_gd(ds, cfg)
        made = traj.final.t
        assert traj.diverged_at is None
        if target:
            assert made < cfg.steps
            avg_passes = 1 + made  # t = 0 is recorded, t >= 1 is checked
        else:
            avg_passes = len(traj.points)
        assert counts["margins"] == (made + 1) + avg_passes
        assert counts["grad"] == made

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
        assert not np.array_equal(faulty.final.w, clean.final.w)

    @pytest.mark.parametrize("agg", ["mean", "sum"])
    @pytest.mark.parametrize("loss", SMOOTH, ids=lambda s: s.name)
    def test_one_log_kernel_call_per_iterate(self, monkeypatch, loss, agg):
        """The risk and the gradient coefficients of an iterate read one
        margin state, so loss.log_value runs once per iterate, plus once per
        averaged-iterate evaluation."""
        ds = small_ds()
        cfg = GDConfig(loss=loss.with_aggregation(agg).with_n(ds.n), eta=50.0, steps=40,
                       record_every=7)
        calls = []
        log_value = LossSpec.log_value

        def counting(self, z):
            calls.append(None)
            return log_value(self, z)

        monkeypatch.setattr(LossSpec, "log_value", counting)
        traj = run_gd(ds, cfg)
        assert len(calls) == (cfg.steps + 1) + len(traj.points)


class TestMetamorphic:
    @pytest.mark.parametrize("loss", SMOOTH, ids=lambda s: s.name)
    def test_row_permutation_leaves_the_iterates(self, loss):
        ds = gen_random_separable(10, 100, 0.1, seed=3)
        cfg = GDConfig(loss=loss.with_n(ds.n), eta=8.0, steps=30)
        a, b = run_gd(ds, cfg), run_gd(permute_rows(ds), cfg)
        for name in ("w", "avg_w"):
            assert max_relative_gap(a.column(name), b.column(name)) <= 1e-12, name


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
        loss = poly(2.0).with_n(16)
        assert general_loss_risk_log_bound(loss, 0.1, 8.0, 199) == pytest.approx(0.0, abs=1e-10)

    def test_general_bound_reduces_to_exp(self):
        loss = EXP.with_n(100)
        for t in [1, 10, 500]:
            a = general_loss_risk_log_bound(loss, 0.1, 40.0, t)
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
            general_loss_risk_log_bound(HINGE, 0.1, 8.0, 10)

    def test_phi_from_risk_deep_tails(self):
        # log loss: phi tracks log risk when the risk underflows
        assert phi_from_risk(LOG, RiskValue(0.0, -900.0)) == pytest.approx(-900.0, rel=1e-12)
        # exp: phi is exactly the log risk
        assert phi_from_risk(EXP, RiskValue(0.0, -1234.5)) == -1234.5
        # semicircle: phi = u - 1/u
        assert phi_from_risk(SEMICIRCLE, RiskValue(2.0, math.log(2.0))) == pytest.approx(1.5)
        # poly above l(0) = 1 uses the numeric branch: phi = -inverse(u)
        p = poly(2.0)
        assert phi_from_risk(p, RiskValue(5.0, math.log(5.0))) == pytest.approx(
            -p.inverse(5.0), rel=1e-12
        )
