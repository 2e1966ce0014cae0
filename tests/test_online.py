"""Tests for the Perceptron / online-SGD module."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from margin_lab.datasets import gen_online_hard, gen_random_separable
from margin_lab.losses import EXP, HINGE, LOG
from margin_lab.online import (
    cyclic_order,
    perceptron_step,
    random_order,
    run_online_sgd,
    run_perceptron,
)

from _oracles import permute_rows, row_permutation


class TestStep:
    def test_pinned(self):
        w, hit = perceptron_step(np.zeros(2), np.array([1.0, 0.0]), 1.0)
        assert hit and np.array_equal(w, [1.0, 0.0])
        w, hit = perceptron_step(np.array([1.0, 0.0]), np.array([1.0, 0.0]), 1.0)
        assert not hit and np.array_equal(w, [1.0, 0.0])
        w, hit = perceptron_step(np.array([1.0, 0.0]), np.array([1.0, 0.0]), -1.0)
        assert hit and np.array_equal(w, [0.0, 0.0])

    def test_zero_margin_is_mistake(self):
        _, hit = perceptron_step(np.array([0.0, 1.0]), np.array([1.0, 0.0]), 1.0)
        assert hit

    def test_errors(self):
        with pytest.raises(ValueError):
            perceptron_step(np.zeros(2), np.zeros(3), 1.0)
        with pytest.raises(ValueError):
            perceptron_step(np.zeros(2), np.zeros(2), 0.5)


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
        assert np.array_equal(run.final, 5.0 * ds.w_star)

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

    @given(st.integers(1, 20), st.integers(0, 200))
    @settings(max_examples=30, deadline=None)
    def test_cyclic_contract(self, n, steps):
        order = cyclic_order(n, steps)
        assert order.size == steps
        if steps:
            assert order.max() < n

    def test_errors(self):
        with pytest.raises(ValueError):
            cyclic_order(0, 5)
        with pytest.raises(ValueError):
            random_order(3, -1, seed=0)
