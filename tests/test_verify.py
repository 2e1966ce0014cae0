"""Tests for the verification suite (report mechanics plus each check)."""

import hashlib
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import margin_lab
from margin_lab.datasets import gen_batch_hard, gen_random_separable, gen_two_point
from margin_lab.descent import GDConfig, run_gd
from margin_lab.losses import EXP, HINGE, LOG, SEMICIRCLE, poly
from margin_lab.two_layer import leaky_blend, leaky_relu, parse_activation
from margin_lab.verify import (
    BoundReport,
    check_averaged_risk_bound,
    check_batch_hard_instance,
    check_chain_hard_instance,
    check_general_loss_bound,
    check_gradient_inequalities,
    check_network_inequalities,
    check_risk_implies_separation,
    check_stepsize_cap,
    dataset_fingerprint,
    default_suite,
    make_report,
    render_table,
)

from _oracles import (per_probe_gradient_inequalities, per_probe_network_inequalities,
                      per_probe_risk_implies_separation)


class TestMakeReport:
    def test_pass_and_worst_slack(self):
        rep = make_report("c", [(1, 0.5, 1.0), (2, 0.9, 1.0)], 0.0, {})
        assert rep.verdict == "pass"
        assert rep.worst_slack == pytest.approx(0.1)

    def test_fail_on_single_violation(self):
        rep = make_report("c", [(1, 0.5, 1.0), (2, 1.5, 1.0)], 0.0, {})
        assert rep.verdict == "fail"
        assert rep.worst_slack == pytest.approx(-0.5)

    def test_tolerance_rescues_small_violations(self):
        rep = make_report("c", [(1, 1.0 + 1e-8, 1.0)], 1e-6, {})
        assert rep.verdict == "pass"
        assert rep.worst_slack < 0.0

    def test_ge_direction(self):
        rep = make_report("c", [(1, 5.0, 3.0)], 0.0, {}, direction=">=")
        assert rep.verdict == "pass"
        assert rep.worst_slack == pytest.approx(2.0)
        rep = make_report("c", [(1, 2.0, 3.0)], 0.0, {}, direction=">=")
        assert rep.verdict == "fail"

    def test_nan_observed_fails(self):
        rep = make_report("c", [(1, math.nan, 1.0)], 1e9, {})
        assert rep.verdict == "fail"
        assert rep.worst_slack == -math.inf

    def test_empty_rows_pass_vacuously(self):
        rep = make_report("c", [], 0.0, {})
        assert rep.verdict == "pass"
        assert rep.worst_slack == math.inf

    def test_bad_direction(self):
        with pytest.raises(ValueError):
            make_report("c", [], 0.0, {}, direction="==")

    def test_to_dict_is_json_serializable(self):
        rows = [("t=1", np.float64(0.5), np.float64(1.0))]
        ctx = {"arr": np.arange(3), "nanval": math.nan, "i": np.int64(7)}
        rep = make_report("c", rows, 0.0, ctx)
        blob = json.dumps(rep.to_dict(), sort_keys=True)
        back = json.loads(blob)
        assert back["verdict"] == "pass"
        assert back["context"]["nanval"] == "nan"
        assert back["context"]["arr"] == [0, 1, 2]


class TestFingerprint:
    def test_deterministic_and_content_sensitive(self):
        a = dataset_fingerprint(gen_random_separable(4, 20, 0.2, seed=0))
        b = dataset_fingerprint(gen_random_separable(4, 20, 0.2, seed=0))
        c = dataset_fingerprint(gen_random_separable(4, 20, 0.2, seed=1))
        assert a == b
        assert a["sha256"] != c["sha256"]
        assert a["n"] == 20 and a["d"] == 4
        assert a["generator"] == "random"

    def test_weighted_rows_counted(self):
        ds = gen_batch_hard(0.05, 2**20, weighted=True)
        fp = dataset_fingerprint(ds)
        assert fp["n"] == 2**20
        assert fp["rows"] < 30

    @pytest.mark.parametrize("weighted", [False, True], ids=["plain", "weighted"])
    def test_hash_is_sha256_of_the_tobytes_copies(self, weighted):
        """Every array is hashed from its own buffer (an F-ordered input
        hashes alike: TestHeldArrays in tests/test_datasets.py)."""
        ds = (gen_batch_hard(0.05, 2**20, weighted=True) if weighted
              else gen_random_separable(20, 7000, 0.1, seed=0))
        arrays = [ds.features, ds.labels, ds.w_star] + ([ds.weights] if weighted else [])
        want = hashlib.sha256(b"".join(a.tobytes() for a in arrays)).hexdigest()[:12]
        assert dataset_fingerprint(ds)["sha256"] == want


class TestAveragedRiskBound:
    def test_exp_passes_small_and_large_eta(self):
        ds = gen_random_separable(10, 100, 0.1, seed=0)
        for eta in (0.5, 400.0):
            rep = check_averaged_risk_bound(ds, EXP, eta, steps=150)
            assert rep.verdict == "pass"
            assert rep.steps[0][0] == 1

    def test_log_passes_moderate_eta(self):
        ds = gen_random_separable(10, 100, 0.1, seed=0)
        rep = check_averaged_risk_bound(ds, LOG, 4.0, steps=150)
        assert rep.verdict == "pass"

    def test_log_large_eta_fails_honestly(self):
        # Genuine violation of the claimed bound: the log-loss trajectory
        # stalls in an edge-of-stability oscillation while the bound keeps
        # decaying. The check must report it, not smooth it over.
        ds = gen_random_separable(10, 100, 0.1, seed=0)
        rep = check_averaged_risk_bound(ds, LOG, 400.0, steps=250)
        assert rep.verdict == "fail"
        assert rep.worst_slack < -1.0

    def test_log_sum_transform_passes_large_eta(self):
        # the same run as test_log_large_eta_fails_honestly, on the convex
        # sum transform (the C = 1 bound is a measured claim there)
        ds = gen_random_separable(10, 100, 0.1, seed=0)
        loss = LOG.with_aggregation("sum")
        rep = check_averaged_risk_bound(ds, loss, 400.0, steps=250)
        assert rep.verdict == "pass"
        assert rep.context["loss"] == "log/sum"

    def test_refuses_nonzero_init_and_bad_loss(self):
        ds = gen_random_separable(4, 20, 0.2, seed=0)
        with pytest.raises(ValueError, match="exp/log"):
            check_averaged_risk_bound(ds, poly(2.0), 1.0, steps=5)
        with pytest.raises(ValueError):
            check_averaged_risk_bound(ds, HINGE, 1.0, steps=5)


class TestStepsizeCap:
    def test_exp_and_log_pass(self):
        for loss in (EXP, LOG):
            rep = check_stepsize_cap(0.05, eta_grid=(0.01, 1.0, 5.0), steps=60, loss=loss)
            assert rep.verdict == "pass"
            assert rep.context["cap"] == pytest.approx(20.0 * loss.value(0.0))

    def test_monotone_etas_recorded(self):
        rep = check_stepsize_cap(0.05, eta_grid=(0.01, 1.0), steps=60)
        assert 0.01 in rep.context["monotone_etas"]

    def test_cap_rows_only_for_monotone_runs(self):
        rep = check_stepsize_cap(0.05, eta_grid=(15.0,), steps=60)
        labels = [s[0] for s in rep.steps]
        # eta=15 is under the exp cap of 20 but produces oscillation, so no
        # cap row may be emitted for it; floor and norm rows always are.
        assert f"cap|eta=15" not in labels
        assert any(label.startswith("floor|eta=15") for label in labels)

    def test_refuses_other_losses(self):
        with pytest.raises(ValueError):
            check_stepsize_cap(0.05, eta_grid=(1.0,), steps=10, loss=SEMICIRCLE)


class TestHardInstances:
    def test_batch_spans_and_margins(self):
        rep = check_batch_hard_instance(0.05, 2**20)
        assert rep.verdict == "pass"
        span_rows = [s for s in rep.steps if str(s[0]).startswith("span|")]
        margin_rows = [s for s in rep.steps if str(s[0]).startswith("margin|")]
        assert span_rows and margin_rows
        # confinement holds far below the 1e-14 contract (rounding remainders
        # of the paired-cancellation design are O(1e-18))
        assert max(s[1] for s in span_rows) < 1e-16
        assert all(s[1] <= 0.0 for s in margin_rows)

    def test_batch_constant_mode_also_confined(self):
        rep = check_batch_hard_instance(0.05, 2**20, mode="constant")
        assert rep.verdict == "pass"
        assert rep.context["mode"] == "constant"

    def test_chain_spans_and_margins(self):
        rep = check_chain_hard_instance(0.001, 100)
        assert rep.verdict == "pass"
        assert rep.context["margin_checked_to"] == 12

    def test_log_loss_also_confined(self):
        assert check_batch_hard_instance(0.05, 2**12, loss=LOG, eta=2.0).verdict == "pass"


class TestRiskImpliesSeparation:
    def test_trajectory_iterates(self):
        ds = gen_random_separable(10, 100, 0.2, seed=1)
        traj = run_gd(ds, GDConfig(loss=EXP, eta=4.0, steps=150))
        iterates = traj.column("w")
        rep = check_risk_implies_separation(ds, EXP, iterates)
        assert rep.verdict == "pass"
        assert rep.context["vectors_checked"] == len(iterates)
        # deep into the run the risk is far below l(0)/n, so rows exist
        assert len(rep.steps) > 0
        assert rep.context["vectors_above_threshold"] + len(rep.steps) == len(iterates)

    def test_single_vector_above_threshold_emits_no_row(self):
        ds = gen_random_separable(4, 20, 0.2, seed=0)
        rep = check_risk_implies_separation(ds, EXP, np.zeros(4))
        assert rep.steps == []
        assert rep.verdict == "pass"

    def test_shape_error(self):
        ds = gen_random_separable(4, 20, 0.2, seed=0)
        with pytest.raises(ValueError):
            check_risk_implies_separation(ds, EXP, np.zeros(5))


class TestGradientInequalities:
    def test_exp_all_rows_pass(self):
        ds = gen_random_separable(10, 100, 0.1, seed=0)
        rep = check_gradient_inequalities(ds, EXP, probes=150, seed=0)
        assert rep.verdict == "pass"
        labels = [s[0] for s in rep.steps]
        assert "grad-norm" in labels
        assert "midpoint-convexity" in labels
        assert "curvature-ratio-increase" in labels
        assert "fd-gradient-rel-err" in labels
        assert any(label.startswith("step-align|") for label in labels)

    @pytest.mark.parametrize("loss", [LOG, poly(2.0), SEMICIRCLE])
    def test_sum_transform_passes_every_row(self, loss):
        ds = gen_random_separable(10, 100, 0.1, seed=0)
        rep = check_gradient_inequalities(
            ds, loss.with_aggregation("sum"), probes=150, seed=0)
        assert rep.verdict == "pass"
        assert rep.context["lipschitz_const"] == 100.0

    @pytest.mark.parametrize("loss", [LOG, poly(2.0), SEMICIRCLE])
    def test_non_exp_losses_fail_midpoint_only(self, loss):
        # The mean-aggregated transformed objective is convex only for the
        # exp loss; the midpoint row records the genuine defect while every
        # other inequality still holds.
        ds = gen_random_separable(10, 100, 0.1, seed=0)
        rep = check_gradient_inequalities(ds, loss, probes=150, seed=0)
        assert rep.verdict == "fail"
        by_label = {s[0]: s for s in rep.steps}
        assert by_label["midpoint-convexity"][1] > by_label["midpoint-convexity"][2]
        for label, obs, bound in rep.steps:
            if label != "midpoint-convexity":
                assert obs <= bound, label

    def test_grad_norm_respects_lipschitz_const(self):
        ds = gen_random_separable(10, 100, 0.1, seed=0)
        rep = check_gradient_inequalities(ds, SEMICIRCLE, probes=150, seed=0)
        assert rep.context["lipschitz_const"] == 101.0

    def test_refuses_hinge(self):
        ds = gen_random_separable(4, 20, 0.2, seed=0)
        with pytest.raises(ValueError):
            check_gradient_inequalities(ds, HINGE)


class TestNetworkInequalities:
    def test_exp_passes(self):
        ds = gen_random_separable(10, 100, 0.2, seed=0)
        rep = check_network_inequalities(ds, leaky_relu(0.5), probes=60, seed=0)
        assert rep.verdict == "pass"
        labels = [s[0] for s in rep.steps]
        assert "block-grad-norm" in labels
        assert "alignment-to-value" in labels
        assert "fd-block-gradient-rel-err" in labels

    def test_log_fails_alignment_to_value_only(self):
        # Same root cause as the midpoint row: the value-form alignment
        # inequality leans on convexity of the transformed objective, which
        # the log loss does not have under mean aggregation.
        ds = gen_random_separable(10, 100, 0.2, seed=0)
        rep = check_network_inequalities(
            ds, leaky_blend("gelu", 0.9), probes=60, seed=0, loss=LOG
        )
        assert rep.verdict == "fail"
        for label, obs, bound in rep.steps:
            if label != "alignment-to-value":
                assert obs <= bound, label

    def test_refuses_general_losses(self):
        ds = gen_random_separable(4, 20, 0.2, seed=0)
        with pytest.raises(ValueError):
            check_network_inequalities(ds, leaky_relu(0.5), loss=poly(2.0))
        with pytest.raises(ValueError, match="mean aggregation"):
            check_network_inequalities(
                ds, leaky_relu(0.5), loss=LOG.with_aggregation("sum"))


def _json(report: BoundReport) -> str:
    return json.dumps(report.to_dict(), sort_keys=True)


SEEDS = (0, 3, 1000)
PROBE_DATASETS = {
    "random": lambda seed: gen_random_separable(10, 100, 0.1, seed=seed),
    "random-101": lambda seed: gen_random_separable(7, 101, 0.15, seed=seed),
    "batch-hard-weighted": lambda seed: gen_batch_hard(0.1, 64, weighted=True),
}


class TestStackedChecksMatchPerProbe:
    """The probe checks score each probe set in one stacked call; their
    reports are those of one solo call per probe (tests/_oracles.py), to
    the byte of their JSON."""

    @pytest.mark.parametrize("seed", SEEDS)
    @pytest.mark.parametrize("name", list(PROBE_DATASETS))
    @pytest.mark.parametrize("loss", [EXP, LOG, poly(2.0), poly(0.5), SEMICIRCLE,
                                      LOG.with_aggregation("sum")], ids=lambda s: s.name)
    def test_gradient_inequalities(self, loss, name, seed):
        ds = PROBE_DATASETS[name](seed)
        want = per_probe_gradient_inequalities(ds, loss, probes=120, seed=seed)
        assert _json(check_gradient_inequalities(ds, loss, probes=120, seed=seed)) == _json(want)

    @pytest.mark.parametrize("seed", SEEDS)
    @pytest.mark.parametrize("loss", [EXP, LOG], ids=lambda s: s.name)
    @pytest.mark.parametrize("act", ["leakyrelu:0.5", "leaky-gelu:0.9", "leaky-silu:0.7",
                                     "leaky-softplus:0.8", "leaky-relu-variant:0.6"])
    def test_network_inequalities(self, act, loss, seed):
        ds = gen_random_separable(10, 100, 0.2, seed=seed)
        activation = parse_activation(act)
        want = per_probe_network_inequalities(ds, activation, seed=seed, loss=loss)
        assert _json(check_network_inequalities(ds, activation, seed=seed, loss=loss)) == _json(want)

    @pytest.mark.parametrize("seed", SEEDS)
    @pytest.mark.parametrize("loss", [EXP, LOG, poly(2.0)], ids=lambda s: s.name)
    def test_risk_implies_separation(self, loss, seed):
        ds = gen_random_separable(10, 100, 0.1, seed=seed)
        iterates = np.array(run_gd(ds, GDConfig(loss=loss, eta=4.0, steps=300)).columns["w"])
        want = per_probe_risk_implies_separation(ds, loss, iterates)
        assert len(want.steps) > 0 and want.context["vectors_above_threshold"] > 0
        assert _json(check_risk_implies_separation(ds, loss, iterates)) == _json(want)
        single = iterates[-1]
        assert (_json(check_risk_implies_separation(ds, loss, single))
                == _json(per_probe_risk_implies_separation(ds, loss, single)))

    def test_risk_implies_separation_over_several_blocks(self):
        """20 000 rows take the iterates block_rows(20 000) = 3 at a time."""
        ds = gen_random_separable(10, 20_000, 0.1, seed=1)
        iterates = np.array(run_gd(ds, GDConfig(loss=EXP, eta=50.0, steps=40)).columns["w"])
        want = per_probe_risk_implies_separation(ds, EXP, iterates)
        assert len(want.steps) > 0 and want.context["vectors_above_threshold"] > 0
        assert _json(check_risk_implies_separation(ds, EXP, iterates)) == _json(want)

    def test_empty_probe_sets(self):
        ds = gen_random_separable(10, 100, 0.2, seed=0)
        assert (_json(check_network_inequalities(ds, leaky_relu(0.5), probes=0))
                == _json(per_probe_network_inequalities(ds, leaky_relu(0.5), probes=0)))
        none = np.zeros((0, ds.d))
        assert (_json(check_risk_implies_separation(ds, EXP, none))
                == _json(per_probe_risk_implies_separation(ds, EXP, none)))


class TestGeneralLossBound:
    def test_poly_and_semicircle_pass_moderate_eta(self):
        ds = gen_random_separable(10, 100, 0.1, seed=0)
        for loss in (poly(2.0), SEMICIRCLE):
            rep = check_general_loss_bound(ds, loss, eta=4.0, steps=200)
            assert rep.verdict == "pass"

    def test_exp_matches_averaged_risk_check(self):
        ds = gen_random_separable(10, 100, 0.1, seed=0)
        a = check_general_loss_bound(ds, EXP, eta=4.0, steps=50)
        b = check_averaged_risk_bound(ds, EXP, 4.0, steps=50)
        for (ta, oa, ba), (tb, ob, bb) in zip(a.steps, b.steps):
            assert ta == tb and oa == ob
            assert ba == pytest.approx(bb, abs=1e-12)

    def test_poly_large_eta_fails_honestly(self):
        ds = gen_random_separable(10, 100, 0.2, seed=0)
        rep = check_general_loss_bound(ds, poly(2.0), eta=400.0, steps=100)
        assert rep.verdict == "fail"

    def test_refuses_hinge(self):
        ds = gen_random_separable(4, 20, 0.2, seed=0)
        with pytest.raises(ValueError):
            check_general_loss_bound(ds, HINGE, eta=1.0, steps=5)


class TestSuite:
    def test_default_suite_shape_and_known_verdicts(self):
        reports = default_suite(seed=0)
        assert len(reports) == 21
        failing = [r for r in reports if r.verdict != "pass"]
        # Exactly the five rows whose underlying claims are genuinely false:
        # log averaged-risk at eta=400, three midpoint-convexity rows
        # (log, poly:2, semicircle), and the log network value inequality.
        assert len(failing) == 5
        kinds = sorted(
            (r.claim.split()[0], r.context.get("loss", "")) for r in failing
        )
        assert kinds == [
            ("averaged-iterate", "log"),
            ("network-block", "log"),
            ("transformed-objective", "log"),
            ("transformed-objective", "poly:2"),
            ("transformed-objective", "semicircle"),
        ]

    def test_render_table(self):
        reports = default_suite(seed=0)
        table = render_table(reports)
        lines = table.splitlines()
        assert len(lines) == len(reports) + 2
        assert "5 of 21 checks failed" in lines[-1]
        assert "worst_slack" in lines[0]

    def test_exact_check_stays_out_and_mpmath_is_not_imported(self):
        names = {r.claim for r in default_suite(seed=0)}
        assert not any("exact" in name for name in names)
        code = "import sys, margin_lab; print('mpmath' in sys.modules)"
        src = str(Path(margin_lab.__file__).parents[1])
        env = {**os.environ, "PYTHONPATH": src}
        out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                             text=True, check=True, env=env)
        assert out.stdout.strip() == "False"

    def test_reports_serialize(self):
        reports = default_suite(seed=0)
        blob = json.dumps([r.to_dict() for r in reports], sort_keys=True)
        assert json.loads(blob)[0]["claim"]
