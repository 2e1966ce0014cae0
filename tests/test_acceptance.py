"""Acceptance suite: the numbered end-to-end guarantees this library ships.

One test per numbered item; ``pytest tests/test_acceptance.py -v`` prints one
pass/fail line each. Grids, tolerances, and runtime caps are fixed here. A
guarantee that does not hold on part of its stated grid fails loudly with the
offending cells in the message; the grid is never shrunk to make it pass.
Known-red items and the measured violations behind them are documented in the
README's check-suite section.

The transform phi = -l^{-1}(u) that adaptive GD descends is convex for exp
under either aggregation, and for every smooth loss under the sum
(u = n L, ``LossSpec.with_aggregation("sum")``), but not for log, poly:2 or
semicircle under the mean (u = L). The exact 50-digit witnesses of that are
committed in ``margin_lab.witnesses`` and recomputed by
``tests/test_witnesses.py``. Accordingly:

* item 1 checks the log half on the sum transform (the C = 1 bound there is
  a measured claim, see ``averaged_risk_log_bound``); the mean-form log run
  at eta = 400 stays pinned failing by
  ``test_verify.py::TestAveragedRiskBound::test_log_large_eta_fails_honestly``
  and by the replay cell ``witnesses.DECAY_REPLAY``;
* item 7 stays red: poly:2 fails at large eta (witness: the poly:2 midpoint
  pair; the same run is pinned failing by
  ``test_verify.py::TestGeneralLossBound::test_poly_large_eta_fails_honestly``);
* item 8 runs the gradient checks of the non-exp losses on the sum
  transform and stays red on the one row with no sum-form derivation, the
  log network alignment-to-value row (witness: the log midpoint pair; pinned
  by ``test_verify.py::TestNetworkInequalities::test_log_fails_alignment_to_value_only``).
"""

from __future__ import annotations

import functools
import math
import time
from dataclasses import dataclass

import numpy as np
import pytest

from margin_lab import (
    EXP,
    HINGE,
    LOG,
    SEMICIRCLE,
    Dataset,
    GDConfig,
    LossSpec,
    Trajectory,
    averaged_risk_log_bound,
    cyclic_order,
    gen_batch_hard,
    gen_chain_hard,
    gen_online_hard,
    gen_random_separable,
    gen_two_point,
    general_loss_risk_log_bound,
    grad_phi,
    make_net,
    network_min_risk_log_bound,
    parse_activation,
    poly,
    run_gd,
    run_gd_nn,
    run_online_sgd,
    run_perceptron,
)
from margin_lab.online import check_online_hard_instance
from margin_lab.two_layer import leaky_relu
from margin_lab.witnesses import MIDPOINT_WITNESSES
from margin_lab.verify import (
    check_batch_hard_instance,
    check_gradient_inequalities,
    check_network_inequalities,
    check_stepsize_cap,
)

D, N = 10, 100
LOG_SUM = LOG.with_aggregation("sum")
GAMMAS = (0.05, 0.1, 0.2)
SEEDS = (0, 1, 2)
ETAS = (0.5, 4.0, 40.0, 400.0, 4000.0)
LOG_TOL = 1e-6
LOG_WITNESS, POLY_WITNESS, _ = MIDPOINT_WITNESSES


def _dataset(gamma: float, seed: int) -> Dataset:
    return gen_random_separable(D, N, gamma, seed=seed)


def _failing_rows(rep, limit: int = 6) -> list:
    """(label, slack) for every report row that violates its bound."""
    rows = []
    for label, observed, bound in rep.steps:
        s = bound - observed if rep.direction == "<=" else observed - bound
        if math.isnan(s):
            s = -math.inf
        if s < -rep.tolerance:
            rows.append((label, s))
    return rows[:limit]


@dataclass(frozen=True)
class GridRun:
    loss: LossSpec  # bound to the dataset size
    gamma: float
    seed: int
    eta: float
    ds: Dataset
    traj: Trajectory
    seconds: float  # wall time of this run


def _grid_runs(losses) -> tuple[list[GridRun], float]:
    start = time.perf_counter()
    runs = []
    for gamma in GAMMAS:
        steps = math.ceil(4.0 / gamma**2)
        for seed in SEEDS:
            ds = _dataset(gamma, seed)
            for loss in losses:
                for eta in ETAS:
                    run_start = time.perf_counter()
                    traj = run_gd(ds, GDConfig(loss=loss, eta=eta, steps=steps))
                    runs.append(GridRun(loss, gamma, seed, eta, ds, traj,
                                        time.perf_counter() - run_start))
    return runs, time.perf_counter() - start


@pytest.fixture(scope="module")
def exp_log_grid():
    """Adaptive-GD trajectories on the exp/log grid, mean transform (item 1
    takes its exp half; item 9 takes all of it)."""
    return _grid_runs((EXP, LOG))


@pytest.fixture(scope="module")
def log_sum_grid():
    """The same grid for the log loss on the sum transform (items 1 and 9)."""
    return _grid_runs((LOG_SUM,))


@pytest.fixture(scope="module")
def passage_runs():
    """Runs sized for first-passage measurement (shared by items 2 and 9)."""
    gamma, budget = 0.1, 110
    start = time.perf_counter()
    runs = []
    for loss in (EXP, LOG):
        for eps in (1e-2, 1e-6, 1e-12):
            eta = 4.0 * math.log(1.0 / eps) / gamma**2 + 4.0
            for seed in SEEDS:
                ds = _dataset(gamma, seed)
                run_start = time.perf_counter()
                traj = run_gd(ds, GDConfig(loss=loss, eta=eta, steps=budget))
                seconds = time.perf_counter() - run_start
                target = math.log(eps)
                cols = traj.columns
                first = next(
                    (t for t, log_avg in zip(cols["t"], cols["log_avg_risk"])
                     if t >= 1 and log_avg <= target),
                    None,
                )
                runs.append(
                    (GridRun(loss, gamma, seed, eta, ds, traj, seconds), eps, first))
    return runs, time.perf_counter() - start


def test_01_averaged_iterate_decay_bound_on_the_grid(exp_log_grid, log_sum_grid):
    """log risk of the averaged iterate <= -((g^2-1)/(4g)) eta + 1e-6, g = gamma^2 (t+1).

    exp runs on the mean transform (its iterates are the same under the
    sum), log on the sum transform, where phi is convex.
    """
    runs = [r for r in exp_log_grid[0] if r.loss.kind == "exp"] + log_sum_grid[0]
    elapsed = sum(r.seconds for r in runs)
    scan_start = time.perf_counter()
    violations = []
    cells_by_loss = {"exp": 0, "log": 0}
    bad_cells_by_loss = {"exp": 0, "log": 0}
    for r in runs:
        cells_by_loss[r.loss.kind] += 1
        worst = -math.inf
        ts, log_avgs = r.traj.columns["t"], r.traj.columns["log_avg_risk"]
        for t, log_avg in zip(ts, log_avgs):
            if t < 1:
                continue
            slack = log_avg - averaged_risk_log_bound(r.gamma, r.eta, t)
            worst = max(worst, slack)
        # spot value at the burn-in step: bound tightens to -gamma^2 eta / 4
        t_star = math.ceil(1.0 / r.gamma**2)
        assert ts[t_star] == t_star
        star_slack = log_avgs[t_star] - (-r.gamma**2 * r.eta / 4.0)
        worst = max(worst, star_slack)
        if worst > LOG_TOL:
            bad_cells_by_loss[r.loss.kind] += 1
            violations.append(
                (r.loss.kind, r.gamma, r.seed, r.eta, worst))
    elapsed += time.perf_counter() - scan_start
    assert elapsed < 30.0, f"grid took {elapsed:.1f}s, cap is 30s"
    assert not violations, (
        f"decay bound violated in {len(violations)} of {len(runs)} cells "
        f"(exp: {bad_cells_by_loss['exp']}/{cells_by_loss['exp']}, "
        f"log/sum: {bad_cells_by_loss['log']}/{cells_by_loss['log']}); worst "
        f"cells: {sorted(violations, key=lambda v: -v[4])[:4]}"
    )


def test_02_step_count_to_target_risk_is_epsilon_independent(passage_runs):
    """With eta = 4 ln(1/eps)/gamma^2 + 4 the first passage below eps is <= 100."""
    runs, elapsed = passage_runs
    assert elapsed < 10.0, f"runs took {elapsed:.1f}s, cap is 10s"
    late = [(r.loss.kind, eps, r.seed, first)
            for r, eps, first in runs if first is None or first > 100]
    assert not late, f"first passage exceeded 100 steps in cells: {late}"
    assert len(runs) == 18  # 2 losses x 3 eps x 3 seeds all measured


def test_03_monotone_risk_caps_the_stepsize_on_two_point_data():
    """Monotone risk forces eta <= 20 l(0); 10x that cap must overshoot."""
    start = time.perf_counter()
    cap = 20.0 * float(EXP.value(0.0))
    report = check_stepsize_cap(
        0.05, eta_grid=(0.5, 2.0, 8.0, 15.0, 19.0, 10.0 * cap),
        steps=200, loss=EXP)
    elapsed = time.perf_counter() - start
    assert elapsed < 5.0, f"took {elapsed:.1f}s, cap is 5s"
    assert report.verdict == "pass", f"failed rows: {_failing_rows(report)}"


def test_04_doubling_block_instance_confines_and_delays_gd():
    """Span confinement below 1e-14 and nonpositive margin below the threshold."""
    start = time.perf_counter()
    reports = [
        check_batch_hard_instance(0.05, 2**20),
        check_batch_hard_instance(0.05, 2**20, mode="constant"),
    ]
    elapsed = time.perf_counter() - start
    assert elapsed < 10.0, f"took {elapsed:.1f}s, cap is 10s"
    thr = min(math.log(2**20) / (8.0 * math.log(2.0)), 1.0 / (30.0 * 0.05**2))
    for rep in reports:
        assert rep.context["separation_threshold"] == pytest.approx(thr)
        assert rep.verdict == "pass", (
            f"{rep.context['mode']} mode failed rows: {_failing_rows(rep)}")


def test_05_perceptron_floors_caps_and_sgd_equivalence():
    """Hard-instance mistake floor, 1/gamma^2 mistake cap, hinge-SGD identity."""
    start = time.perf_counter()
    floor_report = check_online_hard_instance(0.4, 10)
    assert floor_report.verdict == "pass", (
        f"mistake floor failed: worst slack {floor_report.worst_slack}")

    # classical mistake cap on unit-ball certificate datasets
    grid: list[tuple[str, Dataset]] = [
        (f"random g={g} s={s}", _dataset(g, s)) for g in GAMMAS for s in SEEDS
    ]
    grid += [
        ("two-point", gen_two_point(0.05)),
        ("online-hard", gen_online_hard(0.4, 10)),
        ("chain-hard", gen_chain_hard(0.1, 50)),
        ("batch-hard", gen_batch_hard(0.05, 2**20, weighted=True)),
    ]
    over_cap = []
    never_separated = []
    for name, ds in grid:
        cap = 1.0 / ds.gamma**2
        budget = (math.ceil(cap) + 2) * ds.n_rows
        run = run_perceptron(ds, cyclic_order(ds.n_rows, budget))
        if run.separated_at is None:
            never_separated.append(name)
        if run.total_mistakes > cap:
            over_cap.append((name, run.total_mistakes, cap))
    assert not over_cap, f"mistake cap exceeded: {over_cap}"
    assert not never_separated, (
        f"no separation within (1/gamma^2 + 2) passes on: {never_separated}")

    # hinge SGD at eta = 1 retraces the Perceptron bit for bit
    for ds in (gen_online_hard(0.4, 10), _dataset(0.1, 0)):
        order = cyclic_order(ds.n_rows, 5 * ds.n_rows)
        a = run_perceptron(ds, order)
        b = run_online_sgd(ds, order, HINGE, eta=1.0)
        assert np.array_equal(a.iterates, b.iterates)
        assert np.array_equal(a.mistakes, b.mistakes)
        assert a.separated_at == b.separated_at
    elapsed = time.perf_counter() - start
    assert elapsed < 5.0, f"took {elapsed:.1f}s, cap is 5s"


def test_06_two_layer_min_risk_bound_and_activation_grid():
    """Best-so-far net risk beats the width-free bound; variants keep (alpha, kappa)."""
    start = time.perf_counter()
    gamma, steps = 0.2, 200
    act = leaky_relu(0.5)
    assert act.alpha == 0.5 and act.kappa == 0.0
    violations = []
    for loss in (EXP, LOG):
        for seed in SEEDS:
            ds = _dataset(gamma, seed)
            for eta in (8.0, 80.0, 800.0):
                net = make_net(ds.d, 4, act)
                traj = run_gd_nn(
                    ds, net, GDConfig(loss=loss, eta=eta, steps=steps))
                for t, min_log_risk in zip(traj.columns["t"],
                                           traj.columns["min_log_risk"], strict=True):
                    if t < 1:
                        continue
                    bound = network_min_risk_log_bound(
                        act.alpha, act.kappa, gamma, eta, t)
                    if min_log_risk > bound + LOG_TOL:
                        violations.append(
                            (loss.kind, seed, eta, t,
                             min_log_risk - bound))
                        break
    assert not violations, (
        f"network bound violated in {len(violations)} cells: {violations[:4]}")

    # measured slope floor and offset bound survive a fresh probe grid
    fresh = np.concatenate([
        np.linspace(-999.995, 999.995, 100001),
        np.linspace(-5.0, 5.0, 50001),
    ])
    for name in ("leaky-gelu:0.6", "leaky-gelu:0.8", "leaky-softplus:0.75",
                 "leaky-silu:0.9", "leaky-relu-variant:0.7"):
        a = parse_activation(name)
        assert 0.0 < a.alpha <= 1.0 and a.kappa >= 0.0
        value, slope = a.pair(fresh)
        defect = np.abs(value - slope * fresh)
        assert float(slope.min()) >= a.alpha - 1e-6, name
        assert float(defect.max()) <= a.kappa + 1e-9, name
    elapsed = time.perf_counter() - start
    assert elapsed < 30.0, f"took {elapsed:.1f}s, cap is 30s"


def test_07_general_loss_bound_and_transform_identities():
    """Closed-form risk bound for poly:2 and semicircle; transform identities."""
    runs, elapsed = _grid_runs((poly(2), SEMICIRCLE))

    # identities first: the gradient-bound constants and the inverse formulas
    assert poly(2).lipschitz_const(N) == pytest.approx(math.sqrt(N))
    assert SEMICIRCLE.lipschitz_const(N) == pytest.approx(N + 1)
    for loss in (poly(2), SEMICIRCLE):
        for x in np.linspace(-30.0, 30.0, 601):
            v = float(loss.value(x))
            assert abs(loss.inverse(v) - x) <= 1e-8 * max(1.0, abs(x))

    rng = np.random.default_rng(0)
    ds = _dataset(0.1, 0)
    for loss in (poly(2), SEMICIRCLE):
        c = loss.lipschitz_const(ds.n)
        for scale in (0.1, 1.0, 10.0):
            for _ in range(50):
                w = scale * rng.standard_normal(ds.d)
                assert float(np.linalg.norm(grad_phi(w, ds, loss))) <= c + 1e-8

    scan_start = time.perf_counter()
    # the bound does not depend on the seed: one call per (loss, gamma, eta, t, n)
    log_bound = functools.cache(general_loss_risk_log_bound)
    violations = []
    cells = {"poly:2": 0, "semicircle": 0}
    bad = {"poly:2": 0, "semicircle": 0}
    for r in runs:
        cells[r.loss.name] += 1
        worst = -math.inf
        cols = r.traj.columns
        for t, log_avg in zip(cols["t"], cols["log_avg_risk"]):
            if t < 1:
                continue
            slack = log_avg - log_bound(r.loss, r.gamma, r.eta, t, r.ds.n)
            worst = max(worst, slack)
        if worst > LOG_TOL:
            bad[r.loss.name] += 1
            violations.append((r.loss.name, r.gamma, r.seed, r.eta, worst))
    elapsed += time.perf_counter() - scan_start
    assert elapsed < 30.0, f"took {elapsed:.1f}s, cap is 30s"
    assert not violations, (
        f"general-loss bound violated in {len(violations)} of {len(runs)} cells "
        f"(poly:2 {bad['poly:2']}/{cells['poly:2']}, "
        f"semicircle {bad['semicircle']}/{cells['semicircle']}); worst cells: "
        f"{sorted(violations, key=lambda v: -v[4])[:4]}. The mean poly:2 "
        f"transform is not convex: exact witness witnesses.MIDPOINT_WITNESSES "
        f"poly:2 pair {POLY_WITNESS.pair}, gap {POLY_WITNESS.gap:.12g} at 50 "
        f"digits (tests/test_witnesses.py), and with C = sqrt(n) = 10 the "
        f"closed form is derived only for g >= 19.5, beyond this grid "
        f"(general_loss_risk_log_bound); the cell gamma=0.2 seed=0 eta=400 is "
        f"pinned failing by test_verify.py::TestGeneralLossBound::"
        f"test_poly_large_eta_fails_honestly"
    )


def test_08_inequality_suite_has_zero_failures():
    """Gradient-norm, alignment, midpoint, network, and finite-difference rows.

    The non-exp gradient checks run on the sum transform, with its derived
    C = n; the network checks have no sum-form derivation and stay on the mean.
    """
    ds = _dataset(0.1, 0)
    ds_nn = _dataset(0.2, 0)
    reports = [
        # 5000 probes per loss: 10^4 unit-norm gradient probes across exp+log
        check_gradient_inequalities(ds, EXP, probes=5000),
        check_gradient_inequalities(ds, LOG_SUM, probes=5000),
        check_gradient_inequalities(ds, poly(2).with_aggregation("sum"), probes=1000),
        check_gradient_inequalities(ds, SEMICIRCLE.with_aggregation("sum"), probes=1000),
        check_network_inequalities(ds_nn, leaky_relu(0.5), loss=EXP),
        check_network_inequalities(
            ds_nn, parse_activation("leaky-gelu:0.9"), loss=LOG),
    ]
    failed = []
    for rep in reports:
        if rep.verdict != "pass":
            failed.append((rep.claim.split()[0], rep.context.get("loss"),
                           _failing_rows(rep, limit=3)))
    assert not failed, (
        f"{len(failed)} of {len(reports)} checks failed: {failed}. The network "
        f"rows lean on convexity of the mean transform, which the log loss "
        f"lacks: exact witness witnesses.MIDPOINT_WITNESSES log pair "
        f"{LOG_WITNESS.pair}, gap {LOG_WITNESS.gap:.12g} at 50 digits "
        f"(tests/test_witnesses.py); the same log network check is pinned "
        f"failing by test_verify.py::TestNetworkInequalities::"
        f"test_log_fails_alignment_to_value_only"
    )


def test_09_small_risk_forces_separation_everywhere(exp_log_grid, log_sum_grid,
                                                     passage_runs):
    """Risk below l(0)/n at any recorded iterate implies a positive min margin."""
    grid_runs = exp_log_grid[0] + log_sum_grid[0]
    psg_runs = [r for r, _, _ in passage_runs[0]]
    counterexamples = []
    points = 0
    for r in grid_runs + psg_runs:
        thr = float(r.loss.log_value(0.0)) - math.log(r.ds.n)
        c = r.traj.columns
        for t, log_risk, margin, log_avg_risk, avg_margin in zip(
                c["t"], c["log_risk"], c["min_margin"], c["log_avg_risk"],
                c["avg_min_margin"], strict=True):
            points += 2
            if log_risk < thr and not margin > 0.0:
                counterexamples.append((r.loss.kind, r.gamma, r.seed, r.eta, t))
            if log_avg_risk < thr and not avg_margin > 0.0:
                counterexamples.append(
                    (r.loss.kind, r.gamma, r.seed, r.eta, t, "avg"))
    assert points > 100000  # the sweep really covered the grids
    assert not counterexamples, (
        f"{len(counterexamples)} counterexamples: {counterexamples[:5]}")
