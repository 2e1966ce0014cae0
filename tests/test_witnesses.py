"""Exact-arithmetic witnesses for the checks that fail on purpose.

The midpoint gaps of the mean transform and the averaged-iterate replay of
acceptance item 1's log cell are recomputed at 50 digits and compared with
the committed values (margin_lab.witnesses) and with the float code paths.
"""

import math

import numpy as np
import pytest

from margin_lab import EXP, LOG, SEMICIRCLE, GDConfig, gen_random_separable, parse_loss, poly, run_gd
from margin_lab.descent import averaged_risk_log_bound, phi_from_risk, risk
from margin_lab.verify import (
    _probe_points,
    check_gradient_inequalities,
    check_transform_convexity_exact,
    replay_averaged_log_risk_exact,
    witness_dataset,
)
from margin_lab.witnesses import DECAY_REPLAY, MIDPOINT_WITNESSES

pytest.importorskip("mpmath")

SMOOTH = [EXP, LOG, poly(2.0), SEMICIRCLE]


def _gaps(rep) -> dict:
    return {label: observed for label, observed, _ in rep.steps}


@pytest.mark.parametrize("wit", MIDPOINT_WITNESSES, ids=lambda w: w.loss)
def test_mean_transform_gap_is_exact(wit):
    rep = check_transform_convexity_exact(parse_loss(wit.loss))
    assert rep.verdict == "fail"
    gap = _gaps(rep)[f"{wit.loss}#{wit.pair}"]
    assert gap == pytest.approx(wit.gap, abs=1e-10)
    assert gap > 0.02


@pytest.mark.parametrize("wit", MIDPOINT_WITNESSES, ids=lambda w: w.loss)
def test_float_check_finds_the_same_pair_and_gap(wit):
    # the committed pair is the worst pair of the float check's probe set,
    # and the float gap there agrees with the 50-digit one
    ds = witness_dataset()
    loss = parse_loss(wit.loss).with_n(ds.n)
    pts = _probe_points(np.random.default_rng(0), ds, wit.probes)
    half = len(pts) // 2
    np.testing.assert_array_equal(pts[wit.pair], wit.a)
    np.testing.assert_array_equal(pts[wit.pair + half], wit.b)
    rep = check_gradient_inequalities(ds, loss, probes=wit.probes, seed=0)
    assert _gaps(rep)["midpoint-convexity"] == pytest.approx(wit.gap, abs=1e-10)

    a, b = np.array(wit.a), np.array(wit.b)
    float_gap = phi_from_risk(loss, risk(0.5 * (a + b), ds, loss)) - 0.5 * (
        phi_from_risk(loss, risk(a, ds, loss)) + phi_from_risk(loss, risk(b, ds, loss)))
    assert float_gap == pytest.approx(wit.gap, abs=1e-10)


def test_exp_mean_transform_has_no_gap():
    rep = check_transform_convexity_exact(EXP)
    assert rep.verdict == "pass"
    assert len(rep.steps) == len(MIDPOINT_WITNESSES)


@pytest.mark.parametrize("loss", SMOOTH, ids=lambda s: s.name)
def test_sum_transform_has_no_gap(loss):
    rep = check_transform_convexity_exact(loss.with_aggregation("sum"))
    assert rep.verdict == "pass"
    assert rep.context["loss"].endswith("/sum")
    assert all(gap < 0.0 for gap in _gaps(rep).values())


def test_decay_replay_refutes_the_mean_log_bound():
    cell = DECAY_REPLAY
    ds = gen_random_separable(cell.d, cell.n, cell.gamma, seed=cell.seed)
    loss = parse_loss(cell.loss).with_n(ds.n)
    exact = replay_averaged_log_risk_exact(ds, loss, cell.eta, cell.t)
    assert exact[cell.t] == pytest.approx(cell.log_avg_risk, abs=1e-10)

    traj = run_gd(ds, GDConfig(loss=loss, eta=cell.eta, steps=cell.t))
    np.testing.assert_allclose(traj.column("log_avg_risk"), exact, rtol=0, atol=1e-10)

    assert cell.t == math.ceil(1.0 / cell.gamma**2)
    bound = averaged_risk_log_bound(cell.gamma, cell.eta, cell.t)
    assert bound == cell.log_bound
    assert cell.log_avg_risk - bound > 79.0
    # above ln l(0): the averaged iterate has not separated the data yet
    assert cell.log_avg_risk > math.log(float(loss.value(0.0)))
    assert traj.columns["avg_min_margin"][-1] <= 0.0
