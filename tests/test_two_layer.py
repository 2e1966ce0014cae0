"""Tests for two-layer nets: activations, gradients, training, the bound."""

import dataclasses
import inspect
import math
import struct

import numpy as np
import pytest

from margin_lab import two_layer
from margin_lab.datasets import (Dataset, gen_batch_hard, gen_random_separable,
                                 mean_signed_feature)
from margin_lab.descent import GDConfig, Trajectory, phi_from_risk, run_gd
from margin_lab.losses import EXP, LOG, LossSpec, poly
from margin_lab.two_layer import (
    TwoLayerNet,
    leaky_blend,
    leaky_relu,
    make_net,
    network_min_risk_log_bound,
    nn_grad_phi,
    nn_margins,
    nn_risk,
    nn_risk_and_grad_phi,
    parse_activation,
    run_gd_nn,
    _probe_grid,
)

from _oracles import append_row, fd_grad_matrix, max_relative_gap, permute_rows
from test_descent import assert_same_columns, assert_same_run, unbranched_log_kernels

BLENDS = ["gelu", "softplus", "silu", "relu"]


class TestActivations:
    def test_leaky_relu_pinned(self):
        act = leaky_relu(0.5)
        assert act.pair(2.0)[0] == 2.0
        assert act.pair(-2.0)[0] == -1.0
        assert act.pair(-1.0)[1] == 0.5
        assert act.pair(0.0)[1] == 1.0  # kink fixed from the right
        assert act.alpha == 0.5 and act.kappa == 0.0
        assert act.name == "leakyrelu:0.5"

    @pytest.mark.parametrize("base", BLENDS)
    @pytest.mark.parametrize("c", [0.6, 0.9])
    def test_blend_grid_properties(self, base, c):
        act = leaky_blend(base, c)
        z = _probe_grid()
        values, slopes = act.pair(z)
        assert 0.0 < act.alpha < 1.0
        assert slopes.min() >= act.alpha
        assert slopes.max() <= 1.0
        defect = np.abs(values - slopes * z)
        assert defect.max() <= act.kappa + 1e-15
        assert np.all(np.isfinite(values))

    def test_blend_kappa_pinned(self):
        # softplus defect peaks at z = 0 with value ln 2, scaled by (1-c)/4
        act = leaky_blend("softplus", 0.6)
        assert act.kappa == pytest.approx(1.1 * 0.1 * math.log(2.0), rel=1e-9)
        # relu blends are positively homogeneous: defect is fp noise only
        assert leaky_blend("relu", 0.7).kappa <= 1e-10
        # gelu defect is z^2 * normal_pdf(z), maximized near sqrt(2)
        act = leaky_blend("gelu", 0.6)
        want = 1.1 * 0.1 * (2.0 * math.exp(-1.0) / math.sqrt(2.0 * math.pi))
        assert act.kappa == pytest.approx(want, rel=1e-3)

    @pytest.mark.parametrize("base", BLENDS)
    def test_blend_measured_once_per_process(self, monkeypatch, base):
        """A repeated leaky_blend(base, c) reads the measurement of the first
        call, bit for bit, without measuring the grid again; leaky_blend
        itself stays a plain function, which a tracer can wrap."""
        grids = []
        probe_grid = two_layer._probe_grid
        monkeypatch.setattr(two_layer, "_probe_grid", lambda: grids.append(1) or probe_grid())
        two_layer._measured.cache_clear()
        first = leaky_blend(base, 0.77)
        again = leaky_blend(base, 0.77)
        assert len(grids) == 1
        assert (struct.pack("<dd", first.alpha, first.kappa)
                == struct.pack("<dd", again.alpha, again.kappa))
        assert first == again
        assert inspect.isfunction(two_layer.leaky_blend)

    def test_parse_round_trip(self):
        for name in [
            "leakyrelu:0.5",
            "leaky-gelu:0.9",
            "leaky-softplus:0.7",
            "leaky-silu:0.8",
            "leaky-relu-variant:0.6",
        ]:
            assert parse_activation(name).name == name

    def test_parse_errors(self):
        for bad in ["relu", "leakyrelu:0", "leakyrelu:1.5", "leaky-gelu:0.5",
                    "leaky-gelu:1", "leaky-tanh:0.9", "leakyrelu:x"]:
            with pytest.raises(ValueError):
                parse_activation(bad)


class TestForwardAndGrad:
    def test_forward_pinned(self):
        net = TwoLayerNet(
            weights=np.array([[1.0, 0.0], [0.0, 1.0]]),
            signs=np.array([1.0, -1.0]),
            activation=leaky_relu(0.5),
        )
        ds = Dataset(features=np.array([[2.0, -2.0], [2.0, -2.0]]), labels=np.array([1.0, -1.0]),
                     gamma=0.5, w_star=np.array([1.0, 0.0]))
        # s = (2, -2), sigma = (2, -1), f = (2*1 + (-1)*(-1)) / 2 = 1.5; z = y f
        assert nn_margins(net, ds).tolist() == pytest.approx([1.5, -1.5], rel=1e-15)

    def test_zero_net_risk(self):
        ds = gen_random_separable(6, 30, 0.2, seed=1)
        net = make_net(ds.d, 4, leaky_relu(0.5))
        assert nn_risk(net, ds, EXP).value == pytest.approx(1.0, rel=1e-15)
        assert nn_risk(net, ds, LOG).value == pytest.approx(math.log(2.0), rel=1e-15)

    @pytest.mark.parametrize("lossname", ["exp", "log"])
    def test_grad_blocks_fd_smooth_activation(self, lossname):
        from margin_lab.descent import phi_from_risk
        from margin_lab.losses import parse_loss

        loss = parse_loss(lossname)
        ds = gen_random_separable(4, 12, 0.2, seed=3)
        act = leaky_blend("gelu", 0.8)  # C^1, safe for finite differences
        rng = np.random.default_rng(4)
        net = TwoLayerNet(rng.standard_normal((3, 4)) * 0.7,
                          np.array([1.0, -1.0, 1.0]), act)

        def phi_of(W):
            probe = TwoLayerNet(W, net.signs, act)
            r = nn_risk(probe, ds, loss)
            return phi_from_risk(loss, r)

        want = fd_grad_matrix(phi_of, net.weights, h=1e-6)
        got = nn_grad_phi(net, ds, loss)
        np.testing.assert_allclose(got, want, rtol=2e-5, atol=1e-9)

    def test_grad_blocks_fd_leaky_relu_off_kink(self):
        from margin_lab.descent import phi_from_risk

        ds = gen_random_separable(4, 12, 0.2, seed=5)
        rng = np.random.default_rng(6)
        net = None
        while net is None:
            W = rng.standard_normal((3, 4))
            s = ds.features @ W.T
            if np.abs(s).min() > 1e-2:  # keep FD probes away from the kink
                net = TwoLayerNet(W, np.array([1.0, -1.0, 1.0]), leaky_relu(0.5))
        want = fd_grad_matrix(
            lambda W: phi_from_risk(EXP, nn_risk(TwoLayerNet(W, net.signs, net.activation), ds, EXP)),
            net.weights,
            h=1e-3,
        )
        got = nn_grad_phi(net, ds, EXP)
        np.testing.assert_allclose(got, want, rtol=1e-4, atol=1e-8)

    def test_refuses_sum_aggregation(self):
        ds = gen_random_separable(4, 20, 0.2, seed=0)
        net = make_net(ds.d, 2, leaky_relu(0.5))
        loss = LOG.with_n(ds.n).with_aggregation("sum")
        with pytest.raises(ValueError, match="mean aggregation"):
            nn_grad_phi(net, ds, loss)
        with pytest.raises(ValueError, match="mean aggregation"):
            run_gd_nn(ds, net, GDConfig(loss=loss, eta=1.0, steps=2))

    def test_block_norm_cap(self):
        ds = gen_random_separable(6, 40, 0.2, seed=7)
        rng = np.random.default_rng(8)
        net = make_net(ds.d, 4, leaky_relu(0.5))
        for _ in range(25):
            net.weights[:] = rng.standard_normal((4, 6)) * rng.uniform(0.1, 20.0)
            for loss in (EXP, LOG):
                blocks = nn_grad_phi(net, ds, loss)
                norms = np.linalg.norm(net.m * blocks, axis=1)
                assert norms.max() <= 1.0 + 1e-9

    def test_loss_restriction(self):
        ds = gen_random_separable(4, 10, 0.2, seed=9)
        net = make_net(ds.d, 2, leaky_relu(0.5))
        with pytest.raises(ValueError):
            nn_risk(net, ds, poly(2.0))
        with pytest.raises(ValueError):
            nn_grad_phi(net, ds, poly(2.0))


class TestTraining:
    def test_first_step_structure(self):
        # zero init, leakyrelu slope 1 at 0: every row moves to eta*a_j*xbar
        ds = gen_random_separable(5, 20, 0.2, seed=10)
        net = make_net(ds.d, 4, leaky_relu(0.5))
        eta = 2.0
        cfg = GDConfig(loss=EXP, eta=eta, steps=1)
        traj = run_gd_nn(ds, net, cfg)
        xbar = mean_signed_feature(ds)
        want = eta * cfg.loss.value(0.0) * net.signs[:, None] * xbar[None, :]
        np.testing.assert_allclose(traj.columns["weights"][1], want, rtol=1e-13, atol=1e-16)

    def test_width_one_degenerates_to_linear(self):
        ds = gen_random_separable(8, 60, 0.2, seed=11)
        act = leaky_relu(0.999999)
        net = TwoLayerNet(np.zeros((1, ds.d)), np.array([1.0]), act)
        cfg = GDConfig(loss=EXP, eta=1.0, steps=40)
        nn_traj = run_gd_nn(ds, net, cfg)
        lin_traj = run_gd(ds, cfg)
        nn, lin = nn_traj.columns, lin_traj.columns
        for w_nn, w_lin in zip(nn["weights"], lin["w"], strict=True):
            assert np.max(np.abs(w_nn[0] - w_lin)) <= 1e-4
        for log_nn, log_lin in zip(nn["log_risk"], lin["log_risk"], strict=True):
            assert log_nn == pytest.approx(log_lin, abs=1e-4)

    def test_min_risk_channel_monotone(self):
        ds = gen_random_separable(10, 100, 0.2, seed=0)
        net = make_net(ds.d, 4, leaky_relu(0.5))
        traj = run_gd_nn(ds, net, GDConfig(loss=EXP, eta=80.0, steps=60))
        mins = traj.column("min_log_risk")
        assert np.all(np.diff(mins) <= 0)
        logs = traj.column("log_risk")
        assert np.all(mins <= logs + 1e-15)

    def test_bound_holds_on_moderate_run(self):
        ds = gen_random_separable(10, 100, 0.2, seed=0)
        net = make_net(ds.d, 4, leaky_relu(0.5))
        eta = 8.0
        traj = run_gd_nn(ds, net, GDConfig(loss=EXP, eta=eta, steps=100))
        act = net.activation
        for t, min_log_risk in zip(traj.columns["t"], traj.columns["min_log_risk"],
                                   strict=True):
            if t >= 1:
                bound = network_min_risk_log_bound(act.alpha, act.kappa, 0.2, eta, t)
                assert min_log_risk <= bound + 1e-6

    def test_mode_and_dim_validation(self):
        ds = gen_random_separable(5, 10, 0.2, seed=12)
        net = make_net(ds.d, 2, leaky_relu(0.5))
        with pytest.raises(ValueError):
            run_gd_nn(ds, net, GDConfig(loss=EXP, eta=1.0, steps=2, mode="constant"))
        bad = make_net(ds.d + 1, 2, leaky_relu(0.5))
        with pytest.raises(ValueError):
            run_gd_nn(ds, bad, GDConfig(loss=EXP, eta=1.0, steps=2))

    @pytest.mark.parametrize("field, value", [("init", np.ones(5)),
                                              ("target_log_avg_risk", 10.0)])
    def test_unused_config_fields_are_refused(self, field, value):
        ds = gen_random_separable(5, 10, 0.2, seed=12)
        net = make_net(ds.d, 2, leaky_relu(0.5))
        config = GDConfig(loss=EXP, eta=1.0, steps=3, **{field: value})
        with pytest.raises(ValueError, match=field):
            run_gd_nn(ds, net, config)

    def test_sign_validation(self):
        with pytest.raises(ValueError):
            TwoLayerNet(np.zeros((2, 3)), np.array([1.0, 0.5]), leaky_relu(0.5))


def reference_run_gd_nn(ds, net, config):
    """run_gd_nn written out from nn_risk, nn_margins and nn_grad_phi, each
    of which makes its own forward pass: the loop the fused step must
    reproduce bit for bit."""
    loss = config.loss
    W = net.weights.copy()
    work = TwoLayerNet(W, net.signs, net.activation)
    traj = Trajectory()
    best_log, best_t = math.inf, 0
    prev_log = math.inf
    for t in range(config.steps + 1):
        r = nn_risk(work, ds, loss)
        if r.log_value < best_log:
            best_log, best_t = r.log_value, t
        if t % config.record_every == 0 or t == config.steps:
            log_eta_t = math.log(config.eta) + loss.log_neg_inv_deriv(r.value, r.log_value)
            append_row(traj, dict(
                t=t, weights=W.copy(), log_risk=r.log_value, phi=phi_from_risk(loss, r),
                log_stepsize=log_eta_t, min_margin=float(nn_margins(work, ds).min()),
                min_log_risk=best_log, min_risk_t=best_t,
                descent_violated=bool(r.log_value > prev_log)))
        prev_log = r.log_value
        if t == config.steps:
            break
        W -= (config.eta * work.m) * nn_grad_phi(work, ds, loss)
    return traj


NN_DATASETS = {
    "batch-hard-weighted": lambda: gen_batch_hard(0.1, 64, weighted=True),
    "batch-hard-materialized": lambda: gen_batch_hard(0.1, 64, weighted=False),
    "random": lambda: gen_random_separable(10, 100, 0.1, seed=3),
}


class TestFusedStep:
    @pytest.mark.parametrize("act", ["leakyrelu:0.5", "leaky-gelu:0.9"])
    @pytest.mark.parametrize("loss", [EXP, LOG], ids=lambda s: s.name)
    def test_bit_identical_to_the_unfused_loop(self, loss, act):
        """150 steps recorded every step fill two blocks of 64 rows and
        part of a third. At eta 50 the risk goes up on about 60 of them, so
        the best iterate so far is not the current one."""
        for ds_name, make in NN_DATASETS.items():
            ds = make()
            net = make_net(ds.d, 4, parse_activation(act))
            for steps, eta in ((30, 8.0), (150, 50.0)):
                for every in (1, 7):
                    cfg = GDConfig(loss=loss, eta=eta, steps=steps, record_every=every)
                    want = reference_run_gd_nn(ds, net, cfg)
                    got = run_gd_nn(ds, net, cfg)
                    assert_same_run(got, want, f"{ds_name} steps={steps} every={every}")

    def test_one_forward_pass_per_iterate(self):
        """The activation's pair runs on the hidden pre-activations once per
        iterate: the gradient reads the slopes of the forward pass."""
        calls = []
        act = leaky_relu(0.5)

        def counting_pair(z):
            calls.append(z.shape)
            return act.pair(z)

        ds = gen_random_separable(10, 100, 0.2, seed=0)
        net = make_net(ds.d, 4, dataclasses.replace(act, pair=counting_pair))
        traj = run_gd_nn(ds, net, GDConfig(loss=LOG, eta=8.0, steps=40, record_every=7))
        assert traj.columns["t"][-1] == 40
        assert calls == [(100, 4)] * 41

    @pytest.mark.parametrize("loss", [EXP, LOG], ids=lambda s: s.name)
    def test_one_log_kernel_call_per_iterate(self, monkeypatch, loss):
        """The risk and the gradient coefficients of an iterate read one
        margin state, and no averaged iterate is evaluated: loss.log_value
        runs once per iterate."""
        calls = []
        log_value = LossSpec.log_value

        def counting(self, z):
            calls.append(None)
            return log_value(self, z)

        ds = gen_random_separable(10, 100, 0.2, seed=0)
        net = make_net(ds.d, 4, leaky_relu(0.5))
        monkeypatch.setattr(LossSpec, "log_value", counting)
        run_gd_nn(ds, net, GDConfig(loss=loss, eta=8.0, steps=40, record_every=7))
        assert len(calls) == 41


class TestSeparatedLog:
    @pytest.mark.parametrize("every", [1, 7])
    @pytest.mark.parametrize("act", ["leakyrelu:0.5", "leaky-gelu:0.9"])
    def test_a_run_reaching_every_margin_past_700_keeps_its_bits(self, monkeypatch, act, every):
        """Past the burn-in both log kernels of the log loss are one
        negation; the run keeps the bits of the unbranched kernels."""
        ds = gen_random_separable(10, 100, 0.2, seed=0)
        net = make_net(ds.d, 4, parse_activation(act))
        cfg = GDConfig(loss=LOG, eta=400.0, steps=200, record_every=every)
        got = run_gd_nn(ds, net, cfg)
        margins = got.column("min_margin")
        assert (margins <= 700.0).any() and (margins > 700.0).any()
        unbranched_log_kernels(monkeypatch)
        assert_same_columns(got, run_gd_nn(ds, net, cfg))


STACK_ACTIVATIONS = ["leakyrelu:0.5"] + [f"leaky-{b}:0.8" for b in
                                          ("gelu", "softplus", "silu", "relu-variant")]


class TestStacks:
    """A net holding a (k, m, d) stack of first layers is k nets: each net's
    risk, margins and gradient blocks have the bits of its call alone."""

    @pytest.mark.parametrize("loss", [EXP, LOG], ids=lambda s: s.name)
    @pytest.mark.parametrize("act", STACK_ACTIVATIONS)
    def test_each_net_has_its_solo_bits(self, act, loss):
        activation = parse_activation(act)
        rng = np.random.default_rng(0)
        for ds_name, make in NN_DATASETS.items():
            ds = make()
            signs = make_net(ds.d, 4, activation).signs
            weights = rng.standard_normal((9, 4, ds.d)) * 10.0 ** rng.uniform(-1.5, 1.5, (9, 1, 1))
            nets = TwoLayerNet(weights, signs, activation)
            assert (nets.m, nets.d) == (4, ds.d)
            risks, grads = nn_risk_and_grad_phi(nets, ds, loss)
            margins, alone = nn_margins(nets, ds), nn_risk(nets, ds, loss)
            assert grads.shape == weights.shape and len(risks) == len(alone) == 9
            assert nn_grad_phi(nets, ds, loss).tobytes() == grads.tobytes()
            for j in range(len(weights)):
                net = TwoLayerNet(weights[j], signs, activation)
                r = nn_risk(net, ds, loss)
                for got in (risks[j], alone[j]):
                    assert (got.value, got.log_value) == (r.value, r.log_value), (ds_name, j)
                assert margins[j].tobytes() == nn_margins(net, ds).tobytes(), (ds_name, j)
                assert grads[j].tobytes() == nn_grad_phi(net, ds, loss).tobytes(), (ds_name, j)

    def test_run_gd_nn_refuses_a_stack(self):
        ds = gen_random_separable(10, 100, 0.1, seed=3)
        nets = TwoLayerNet(np.zeros((2, 4, ds.d)), np.array([1.0, -1.0, 1.0, -1.0]),
                           leaky_relu(0.5))
        with pytest.raises(ValueError, match="one net"):
            run_gd_nn(ds, nets, GDConfig(loss=EXP, eta=8.0, steps=3))


class TestMetamorphic:
    @pytest.mark.parametrize("act", ["leakyrelu:0.5", "leaky-gelu:0.9"])
    @pytest.mark.parametrize("loss", [EXP, LOG], ids=lambda s: s.name)
    def test_row_permutation_leaves_the_iterates(self, loss, act):
        ds = gen_random_separable(10, 100, 0.1, seed=3)
        net = make_net(ds.d, 4, parse_activation(act))
        cfg = GDConfig(loss=loss, eta=8.0, steps=30)
        a, b = run_gd_nn(ds, net, cfg), run_gd_nn(permute_rows(ds), net, cfg)
        assert max_relative_gap(a.column("weights"), b.column("weights")) <= 1e-12

    @pytest.mark.parametrize("loss", [EXP, LOG], ids=lambda s: s.name)
    def test_weighted_batch_hard_matches_materialized(self, loss):
        """Weighted rows and their materialized copies give the same
        iterates, for the smooth leaky-gelu.

        leakyrelu is left out: the two forms add the same terms in different
        orders, so their iterates may differ in the last bits (2.2e-15 at
        t = 1 with exp loss, eta 8, width 4). On this instance that puts a
        hidden pre-activation on the other side of the kink, where the slope
        jumps from 1 to alpha, and the iterates differ by 1.64 at t = 2. The
        gap is a discontinuity of the activation, not a rounding error, so
        no tolerance covers it.
        """
        weighted = gen_batch_hard(0.1, 64, weighted=True)
        materialized = gen_batch_hard(0.1, 64, weighted=False)
        net = make_net(weighted.d, 4, parse_activation("leaky-gelu:0.9"))
        cfg = GDConfig(loss=loss, eta=8.0, steps=30)
        a, b = run_gd_nn(weighted, net, cfg), run_gd_nn(materialized, net, cfg)
        assert max_relative_gap(a.column("weights"), b.column("weights")) <= 1e-12


class TestBound:
    def test_pinned(self):
        # A = 0.5 * 0.04 * 100 = 2: bound = 0 - (3 / 16) * 8 = -1.5
        got = network_min_risk_log_bound(0.5, 0.0, 0.2, 8.0, 99)
        assert got == pytest.approx(-1.5, rel=1e-12)

    def test_burn_in_form(self):
        alpha, gamma = 0.5, 0.2
        for eta in [8.0, 400.0]:
            t = math.ceil(2.0 / (alpha * gamma * gamma)) - 1
            got = network_min_risk_log_bound(alpha, 0.0, gamma, eta, t)
            assert got <= -(alpha**2) * gamma**2 * eta / 4.0 + 1e-12

    def test_parameter_errors(self):
        with pytest.raises(ValueError):
            network_min_risk_log_bound(0.0, 0.0, 0.2, 8.0, 10)
        with pytest.raises(ValueError):
            network_min_risk_log_bound(0.5, -0.1, 0.2, 8.0, 10)
        with pytest.raises(ValueError):
            network_min_risk_log_bound(0.5, 0.0, 0.2, 8.0, 0)
