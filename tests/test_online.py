"""Tests for the Perceptron / online-SGD module."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from margin_lab import online
from margin_lab.datasets import Dataset, gen_online_hard, gen_random_separable
from margin_lab.losses import EXP, HINGE, LOG, SEMICIRCLE, poly
from margin_lab.online import (
    cyclic_order,
    random_order,
    run_online_sgd,
    run_perceptron,
)

from _oracles import full_loop_online, negate_rows, permute_rows, row_permutation


def _one_row(x, y):
    x = np.asarray(x, dtype=float)
    return Dataset(features=x[None, :], labels=np.array([y]), gamma=0.5,
                   w_star=y * x / np.linalg.norm(x))


def _step(w0, x, y):
    """One Perceptron update as run_perceptron makes it: (new w, mistake)."""
    run = run_perceptron(_one_row(x, y), [0], w0=np.asarray(w0, dtype=float))
    return run.iterates[1], bool(run.mistakes[1])


class TestStep:
    """Single updates: run_perceptron over a one-row order."""

    def test_pinned(self):
        w, hit = _step([0.0, 0.0], [1.0, 0.0], 1.0)
        assert hit and np.array_equal(w, [1.0, 0.0])
        w, hit = _step([1.0, 0.0], [1.0, 0.0], 1.0)
        assert not hit and np.array_equal(w, [1.0, 0.0])
        w, hit = _step([1.0, 0.0], [1.0, 0.0], -1.0)
        assert hit and np.array_equal(w, [0.0, 0.0])

    def test_zero_margin_is_mistake(self):
        w, hit = _step([0.0, 1.0], [1.0, 0.0], 1.0)
        assert hit and np.array_equal(w, [1.0, 1.0])

    def test_errors(self):
        ds = _one_row([1.0, 0.0], 1.0)
        with pytest.raises(ValueError, match="w0 must have shape"):
            run_perceptron(ds, [0], w0=np.zeros(3))
        with pytest.raises(ValueError, match="1-d index sequence"):
            run_perceptron(ds, [[0]])


class TestPerceptron:
    def test_novikoff_on_random_data(self):
        for gamma, seed in [(0.25, 0), (0.1, 1), (0.4, 2)]:
            ds = gen_random_separable(6, 50, gamma, seed=seed)
            run = run_perceptron(ds, cyclic_order(ds.n_rows, 10_000))
            assert run.total_mistakes <= math.floor(1.0 / gamma**2)
            assert run.separated_at is not None

    def test_novikoff_arbitrary_long_order(self):
        ds = gen_random_separable(5, 40, 0.25, seed=3)
        run = run_perceptron(ds, random_order(ds.n_rows, 100_000, seed=4))
        assert run.total_mistakes <= 16

    def test_mistakes_cumulative_and_monotone(self):
        ds = gen_random_separable(4, 30, 0.2, seed=5)
        run = run_perceptron(ds, cyclic_order(30, 500))
        assert run.mistakes[0] == 0
        assert np.all(np.diff(run.mistakes) >= 0)
        assert np.all(np.diff(run.mistakes) <= 1)

    def test_separating_start_makes_no_mistakes(self):
        ds = gen_random_separable(4, 30, 0.2, seed=6)
        run = run_perceptron(ds, cyclic_order(30, 200), w0=5.0 * ds.w_star)
        assert run.total_mistakes == 0
        assert run.separated_at == 0
        assert np.array_equal(run.iterates[-1], 5.0 * ds.w_star)

    def test_hard_instance_mistake_floor(self):
        ds = gen_online_hard(0.4, 10)
        run = run_perceptron(ds, np.arange(10))
        for t in range(1, 11):
            assert run.mistakes[t] >= min(1.0 / (2 * 0.4**2), float(t))
        assert run.total_mistakes >= 4  # 3.125 rounded up by integrality

    def test_hard_instance_coordinate_one_untouched(self):
        ds = gen_online_hard(0.4, 10)
        w0 = np.zeros(ds.d)
        w0[0] = -0.5
        run = run_perceptron(ds, np.arange(10), w0=w0)
        assert np.all(run.iterates[:, 0] == -0.5)

    def test_bad_order(self):
        ds = gen_random_separable(4, 10, 0.2, seed=7)
        with pytest.raises(ValueError):
            run_perceptron(ds, [0, 10])
        with pytest.raises(ValueError):
            run_perceptron(ds, [-1])
        with pytest.raises(ValueError):
            run_perceptron(ds, [0], w0=np.zeros(5))


    @pytest.mark.parametrize("make", [lambda: gen_random_separable(10, 100, 0.1, seed=4),
                                      lambda: gen_online_hard(0.1, 9)],
                             ids=["random", "online-hard"])
    def test_row_permutation_with_the_order_mapped(self, make):
        # permute_rows puts old row i at position inv[i]; presenting inv[order]
        # shows the permuted set the same rows in the same sequence
        ds = make()
        order = random_order(ds.n_rows, 5 * ds.n_rows, seed=1)
        inv = np.argsort(row_permutation(ds.n_rows, seed=2))
        a = run_perceptron(ds, order)
        b = run_perceptron(permute_rows(ds, seed=2), inv[order])
        assert a.total_mistakes > 0
        np.testing.assert_array_equal(a.mistakes, b.mistakes)
        assert a.iterates.tobytes() == b.iterates.tobytes()
        assert a.separated_at == b.separated_at

    @pytest.mark.parametrize("make", [lambda: gen_random_separable(10, 100, 0.1, seed=4),
                                      lambda: gen_online_hard(0.1, 9)],
                             ids=["random", "online-hard"])
    def test_negated_rows_leave_the_run(self, make):
        # (x, y) -> (-x, -y): the same margin y <x, w> and update y x, bit for bit
        ds = make()
        order = random_order(ds.n_rows, 5 * ds.n_rows, seed=1)
        a = run_perceptron(ds, order)
        b = run_perceptron(negate_rows(ds), order)
        assert a.total_mistakes > 0
        np.testing.assert_array_equal(a.mistakes, b.mistakes)
        assert a.iterates.tobytes() == b.iterates.tobytes()
        assert a.separated_at == b.separated_at


class TestFixedPoint:
    """A Perceptron or hinge-SGD run that reaches a fixed point stops there
    and fills in the rest of its trace: the arrays of the full loop, bit for
    bit, after separation too."""

    CASES = [(seed, start) for seed in (0, 1, 2) for start in ("zero", "w_star")]

    @staticmethod
    def _assert_full_loop(run, ds, order, w0, hinge_eta=None):
        iterates, mistakes, separated_at = full_loop_online(
            ds.features, ds.labels, order, w0, hinge_eta)
        assert run.iterates.tobytes() == iterates.tobytes()
        np.testing.assert_array_equal(run.mistakes, mistakes)
        assert run.separated_at == separated_at

    @pytest.mark.parametrize("seed,start", CASES)
    def test_long_cyclic_order(self, seed, start):
        ds = gen_random_separable(10, 100, 0.1, seed=seed)
        order = cyclic_order(ds.n_rows, 20_000)
        w0 = np.zeros(ds.d) if start == "zero" else ds.w_star
        perceptron = run_perceptron(ds, order, w0=w0)
        hinge = run_online_sgd(ds, order, HINGE, 1.0, w0=w0)
        assert perceptron.separated_at < 2_000  # most of the order is at rest
        self._assert_full_loop(perceptron, ds, order, w0)
        self._assert_full_loop(hinge, ds, order, w0, hinge_eta=1.0)
        assert hinge.iterates.tobytes() == perceptron.iterates.tobytes()
        half = run_online_sgd(ds, order, HINGE, 0.5, w0=w0)
        self._assert_full_loop(half, ds, order, w0, hinge_eta=0.5)

    def test_random_order_whose_tail_skips_rows(self):
        ds = gen_random_separable(10, 100, 0.1, seed=3)
        order = np.concatenate([random_order(ds.n_rows, 3_000, seed=5),
                                np.full(500, 7, dtype=np.int64)])
        w0 = np.zeros(ds.d)
        self._assert_full_loop(run_perceptron(ds, order, w0=w0), ds, order, w0)

    def test_a_separation_the_steps_do_not_see_keeps_looping(self, monkeypatch):
        # min_margin says separated once w moves off 0; after the first step
        # w = x_0, and of the rows left only the last, x_6, the steps see at
        # a nonpositive margin: the run goes on as the full loop does
        features = np.array([[1.0, 0.0], [0.9, 0.1], [0.8, 0.2], [0.7, 0.3], [0.9, 0.0],
                             [0.8, 0.0], [0.6, 0.8]])
        labels = np.array([1.0, 1.0, 1.0, 1.0, 1.0, 1.0, -1.0])
        w_star = np.array([1.0, -2.0]) / math.sqrt(5.0)
        ds = Dataset(features=features, labels=labels, gamma=0.1, w_star=w_star)
        order = cyclic_order(ds.n_rows, 700)
        w0 = np.zeros(ds.d)
        monkeypatch.setattr(Dataset, "min_margin", lambda self, w: 1.0 if w.any() else 0.0)
        run = run_perceptron(ds, order, w0=w0)
        monkeypatch.undo()
        iterates, mistakes, _ = full_loop_online(ds.features, ds.labels, order, w0)
        assert run.separated_at == 1
        assert mistakes[-1] > 1
        assert run.iterates.tobytes() == iterates.tobytes()
        np.testing.assert_array_equal(run.mistakes, mistakes)

    def test_log_sgd_still_moves_after_separation(self):
        ds = gen_random_separable(10, 100, 0.1, seed=0)
        run = run_online_sgd(ds, cyclic_order(ds.n_rows, 3_000), LOG, 2.0)
        assert run.separated_at is not None
        tail = run.iterates[run.separated_at:]
        assert np.all(np.any(tail[1:] != tail[:-1], axis=1))


class TestOnlineSgd:
    def test_hinge_eta_one_bit_identical_to_perceptron(self):
        for seed in range(3):
            ds = gen_random_separable(6, 40, 0.2, seed=seed)
            order = random_order(40, 2_000, seed=seed + 10)
            a = run_perceptron(ds, order)
            b = run_online_sgd(ds, order, HINGE, eta=1.0)
            assert np.array_equal(a.iterates, b.iterates)
            assert np.array_equal(a.mistakes, b.mistakes)
            assert a.separated_at == b.separated_at

    def test_hinge_identity_on_hard_instance(self):
        ds = gen_online_hard(0.3, 12)
        order = np.arange(12)
        a = run_perceptron(ds, order)
        b = run_online_sgd(ds, order, HINGE, eta=1.0)
        assert np.array_equal(a.iterates, b.iterates)

    def test_perceptron_does_not_call_run_online_sgd(self, monkeypatch):
        # a tracer that wraps both public names would count each
        # presentation twice if one called the other
        ds = gen_random_separable(6, 40, 0.2, seed=1)
        order = random_order(40, 2_000, seed=11)
        want = run_perceptron(ds, order)

        def refuse(*args, **kwargs):
            raise AssertionError("run_perceptron went through run_online_sgd")

        monkeypatch.setattr(online, "run_online_sgd", refuse)
        got = online.run_perceptron(ds, order)
        assert got.iterates.tobytes() == want.iterates.tobytes()
        assert got.mistakes.tobytes() == want.mistakes.tobytes()
        assert got.separated_at == want.separated_at

    @pytest.mark.parametrize("loss", [EXP, LOG, SEMICIRCLE, HINGE, poly(2.0), poly(0.5)],
                             ids=lambda loss: loss.name)
    def test_the_kernel_on_a_float_has_the_bits_of_deriv(self, loss):
        # the online loop calls loss.ops.deriv on a float margin in place of
        # LossSpec.deriv, which goes through a 0-d array
        side = np.logspace(-3.0, 3.0, 2001)
        margins = np.concatenate([-side[::-1], side]).tolist()
        with np.errstate(over="ignore"):  # exp's derivative is -inf at z = -1000
            got = np.array([float(loss.ops.deriv(loss, z)) for z in margins])
            want = np.array([loss.deriv(z) for z in margins])
        assert got.tobytes() == want.tobytes()

    def test_zero_eta_freezes(self):
        ds = gen_random_separable(4, 20, 0.2, seed=8)
        run = run_online_sgd(ds, cyclic_order(20, 50), LOG, eta=0.0)
        assert np.all(run.iterates == 0.0)
        assert run.total_mistakes == 50  # every margin is 0 at w = 0

    def test_log_sgd_separates_hard_instance_late(self):
        gamma, n = 0.4, 10
        ds = gen_online_hard(gamma, n)
        run = run_online_sgd(ds, np.arange(n), LOG, eta=2.0)
        floor = min(1.0 / (2 * gamma**2), float(n))
        assert run.separated_at is None or run.separated_at >= floor
        for t in range(1, n + 1):
            assert run.mistakes[t] >= min(1.0 / (2 * gamma**2), float(t))

    def test_exp_sgd_mistake_floor(self):
        gamma, n = 0.3, 11
        ds = gen_online_hard(gamma, n)
        run = run_online_sgd(ds, np.arange(n), EXP, eta=1.0)
        for t in range(1, n + 1):
            assert run.mistakes[t] >= min(1.0 / (2 * gamma**2), float(t))

    def test_eta_validation(self):
        ds = gen_random_separable(4, 10, 0.2, seed=9)
        with pytest.raises(ValueError):
            run_online_sgd(ds, [0], LOG, eta=-1.0)
        with pytest.raises(ValueError):
            run_online_sgd(ds, [0], LOG, eta=math.inf)


class TestOrders:
    def test_cyclic(self):
        assert np.array_equal(cyclic_order(3, 7), [0, 1, 2, 0, 1, 2, 0])

    def test_random_deterministic(self):
        a = random_order(10, 100, seed=0)
        b = random_order(10, 100, seed=0)
        assert np.array_equal(a, b)
        assert a.min() >= 0 and a.max() < 10

    @pytest.mark.parametrize("make", [cyclic_order, lambda n, steps: random_order(n, steps, 3)],
                             ids=["cyclic", "random"])
    @given(st.integers(1, 20), st.integers(0, 200))
    @settings(max_examples=30, deadline=None)
    def test_cyclic_contract(self, make, n, steps):
        order = make(n, steps)
        assert order.size == steps
        if steps:
            assert order.min() >= 0 and order.max() < n

    # numpy's arange gives 2**53 + 1 entries as 2**53 and 2**63 - 1 as none,
    # and refuses longer orders with a ValueError; each of these is refused
    # before anything is allocated
    @pytest.mark.parametrize("steps", [2**53 + 1, 2**60 - 1, 2**60, 2**63 - 1, 2**63, 10**23])
    @pytest.mark.parametrize("make", [cyclic_order, lambda n, steps: random_order(n, steps, 3)],
                             ids=["cyclic", "random"])
    def test_an_order_too_long_to_index_raises_rather_than_come_back_short(self, make, steps):
        with pytest.raises(MemoryError):
            make(5, steps)

    def test_errors(self):
        with pytest.raises(ValueError):
            cyclic_order(0, 5)
        with pytest.raises(ValueError):
            random_order(3, -1, seed=0)
