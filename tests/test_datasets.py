"""Tests for dataset generators, validation, and serialization."""

import functools
import math
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from margin_lab.datasets import (
    Dataset,
    gen_batch_hard,
    gen_chain_hard,
    gen_online_hard,
    gen_random_separable,
    gen_two_point,
    load_dataset,
    mean_signed_feature,
    save_dataset,
    stepsize_cap_fraction,
    validate,
)


class TestTwoPoint:
    def test_margin_exact(self):
        ds = gen_two_point(0.05)
        assert ds.n == 2 and ds.d == 2
        report = validate(ds)
        assert report.ok
        assert report.realized_margin == 0.05  # exact: w* = e1 picks out gamma

    def test_cap_premise(self):
        # half the (weighted) sample must sit below alignment -0.1 with the
        # mean signed feature, for every gamma in the supported range
        for gamma in [0.001, 0.02, 0.05, 0.09, 0.099]:
            ds = gen_two_point(gamma)
            assert stepsize_cap_fraction(ds, r=0.1) == 0.5
            xbar = mean_signed_feature(ds)
            assert float(ds.features[0] @ xbar) < -0.1

    def test_parameter_errors(self):
        for bad in [0.0, 0.1, 0.15, -0.05]:
            with pytest.raises(ValueError):
                gen_two_point(bad)


class TestBatchHard:
    def test_pinned_shape(self):
        ds = gen_batch_hard(0.1, 32)
        assert ds.d == 20
        assert ds.metadata["k"] == 5
        assert ds.n == 32 and ds.n_rows == 32
        assert validate(ds).ok
        assert validate(ds).realized_margin == pytest.approx(0.1, rel=1e-15)

    def test_pinned_multiplicities(self):
        ds = gen_batch_hard(0.1, 32, weighted=True)
        assert ds.n_rows == 6  # 5 blocks + residual
        assert list(ds.weights) == [16.0, 8.0, 4.0, 2.0, 1.0, 1.0]
        assert ds.n == 32
        assert validate(ds).ok

    def test_weighted_matches_materialized(self):
        a = gen_batch_hard(0.1, 32)
        b = gen_batch_hard(0.1, 32, weighted=True)
        np.testing.assert_array_equal(
            mean_signed_feature(a), mean_signed_feature(b)
        )

    def test_block_structure(self):
        ds = gen_batch_hard(0.1, 32)
        f = 1.0 / math.sqrt(5.0)
        # first block: 16 copies of (2f) e2 - f e3 (0-based coords 1, 2)
        row = ds.features[0]
        assert row[1] == 2.0 * f and row[2] == -f
        np.testing.assert_array_equal(ds.features[:16], np.tile(row, (16, 1)))
        # residual: final row is f e7 (0-based coord 6)
        assert ds.features[-1][6] == f
        assert np.count_nonzero(ds.features[-1]) == 1
        # doubling is exact in floats, which downstream span checks rely on
        assert ds.features[0][1] == 2.0 * (-ds.features[0][2])

    def test_huge_n_weighted(self):
        ds = gen_batch_hard(0.05, 2**20, weighted=True)
        assert ds.d == 80
        assert ds.metadata["k"] == 20
        assert ds.n == 2**20
        assert ds.n_rows == 21
        assert ds.metadata["span_horizon"] == 10
        assert ds.metadata["no_separation_before"] == pytest.approx(2.5)
        assert validate(ds).ok

    def test_parameter_errors(self):
        with pytest.raises(ValueError):
            gen_batch_hard(0.2, 32)
        with pytest.raises(ValueError):
            gen_batch_hard(1.0 / 6.0, 32)
        with pytest.raises(ValueError):
            gen_batch_hard(0.1, 1)


class TestOnlineHard:
    def test_pinned_shape(self):
        ds = gen_online_hard(0.4, 10)
        assert ds.d == 6
        assert ds.metadata["k"] == 5
        assert validate(ds).ok
        assert validate(ds).realized_margin == 1.0 / math.sqrt(6.0)

    def test_structure(self):
        ds = gen_online_hard(0.4, 10)
        # fresh coordinates e2..e6 then repeats of e6; e1 untouched
        for i in range(5):
            assert ds.features[i][i + 1] == 1.0
        for i in range(5, 10):
            assert ds.features[i][5] == 1.0
        assert np.all(ds.features[:, 0] == 0.0)
        assert ds.metadata["separation_floor"] == pytest.approx(3.125)

    def test_parameter_errors(self):
        with pytest.raises(ValueError):
            gen_online_hard(0.6, 10)
        with pytest.raises(ValueError):
            gen_online_hard(0.5, 10)
        with pytest.raises(ValueError):
            gen_online_hard(0.4, 0)


class TestChainHard:
    def test_pinned_shape(self):
        ds = gen_chain_hard(0.1, 8)
        assert ds.d == 4
        assert ds.metadata["k"] == 2
        assert validate(ds).ok
        assert validate(ds).realized_margin == pytest.approx(
            math.sqrt(1.0 / 60.0), rel=1e-14
        )

    def test_structure(self):
        ds = gen_chain_hard(0.1, 8)
        r = 1.0 / math.sqrt(2.0)
        assert ds.features[0][1] == -r and ds.features[0][2] == r
        assert ds.features[1][2] == -r and ds.features[1][3] == r
        for i in range(2, 8):
            assert ds.features[i][3] == r
            assert np.count_nonzero(ds.features[i]) == 1
        assert ds.metadata["no_separation_before"] == pytest.approx(0.1 ** (-2.0 / 3.0) / 8.0)

    def test_certificate_is_ramp(self):
        ds = gen_chain_hard(0.01, 50)
        assert ds.d == 21
        diffs = np.diff(ds.w_star)
        assert np.allclose(diffs, diffs[0])
        assert np.linalg.norm(ds.w_star) == pytest.approx(1.0, rel=1e-14)

    def test_parameter_errors(self):
        with pytest.raises(ValueError):
            gen_chain_hard(0.2, 8)
        with pytest.raises(ValueError):
            gen_chain_hard(0.125, 8)


class TestRandomSeparable:
    def test_deterministic(self):
        a = gen_random_separable(10, 100, 0.1, seed=7)
        b = gen_random_separable(10, 100, 0.1, seed=7)
        np.testing.assert_array_equal(a.features, b.features)
        np.testing.assert_array_equal(a.labels, b.labels)
        c = gen_random_separable(10, 100, 0.1, seed=8)
        assert not np.array_equal(a.features, c.features)

    @given(
        d=st.integers(min_value=2, max_value=12),
        n=st.integers(min_value=1, max_value=64),
        gamma=st.floats(min_value=0.01, max_value=0.9),
        seed=st.integers(min_value=0, max_value=2**31),
    )
    @settings(max_examples=40, deadline=None)
    def test_contract(self, d, n, gamma, seed):
        ds = gen_random_separable(d, n, gamma, seed)
        report = validate(ds)
        assert report.ok
        assert report.realized_margin >= gamma - 1e-12
        assert np.all(np.linalg.norm(ds.features, axis=1) <= 1.0 + 1e-12)

    def test_parameter_errors(self):
        with pytest.raises(ValueError):
            gen_random_separable(1, 10, 0.1, 0)
        with pytest.raises(ValueError):
            gen_random_separable(5, 0, 0.1, 0)
        with pytest.raises(ValueError):
            gen_random_separable(5, 10, 1.0, 0)


class TestSerialization:
    def test_round_trip_plain(self, tmp_path):
        ds = gen_random_separable(7, 23, 0.2, seed=3)
        path = tmp_path / "ds.txt"
        save_dataset(ds, path)
        back = load_dataset(path)
        np.testing.assert_array_equal(ds.features, back.features)
        np.testing.assert_array_equal(ds.labels, back.labels)
        np.testing.assert_array_equal(ds.w_star, back.w_star)
        assert back.gamma == ds.gamma
        assert back.weights is None

    def test_round_trip_weighted(self, tmp_path):
        ds = gen_batch_hard(0.05, 2**20, weighted=True)
        path = tmp_path / "ds.txt"
        save_dataset(ds, path)
        text = path.read_text()
        assert text.startswith("margin-lab-dataset v1w n=1048576 d=80 gamma=")
        back = load_dataset(path)
        np.testing.assert_array_equal(ds.features, back.features)
        np.testing.assert_array_equal(ds.weights, back.weights)
        assert back.n == 2**20

    def test_header_format(self, tmp_path):
        ds = gen_batch_hard(0.1, 32)
        path = tmp_path / "ds.txt"
        save_dataset(ds, path)
        first = path.read_text().splitlines()[0]
        assert first == "margin-lab-dataset v1 n=32 d=20 gamma=0.10000000000000001"

    def test_load_errors(self, tmp_path):
        p = tmp_path / "bad.txt"
        p.write_text("not a dataset\n")
        with pytest.raises(ValueError):
            load_dataset(p)
        p.write_text("margin-lab-dataset v1 n=2 d=3 gamma=0.1\nwstar: 1 0 0\n+1 1 0\n")
        with pytest.raises(ValueError):
            load_dataset(p)  # row has 2 coords, d = 3
        p.write_text("margin-lab-dataset v1 n=5 d=2 gamma=0.1\nwstar: 1 0\n+1 1 0\n")
        with pytest.raises(ValueError):
            load_dataset(p)  # header n disagrees with rows

    def test_validate_flags_bad_data(self):
        ds = Dataset(
            features=np.array([[2.0, 0.0]]),  # outside the unit ball
            labels=np.array([1.0]),
            gamma=0.5,
            w_star=np.array([1.0, 0.0]),
        )
        report = validate(ds)
        assert not report.ok
        failed = [name for name, passed, _ in report.checks if not passed]
        assert "unit_ball" in failed


# Pieces of the file format, numbers at and past the float range, and a
# byte that is not UTF-8, spliced into saved files by the fuzz below
_FORMAT_TOKENS = [b" ", b"\n", b"#", b"-", b"+", b".", b"0", b"1", b"2", b"e", b"9" * 20,
                  b"nan", b"inf", b"-inf", b"1e309", b"1e-400", b"-0", b"0.5", b"+1", b"-1",
                  b"v1", b"v1w", b"n=", b"d=", b"gamma=", b"wstar: ", b"\xff"]


@functools.cache
def _saved_files() -> tuple:
    """The bytes of two saved valid files: plain (v1) and weighted (v1w)."""
    with tempfile.TemporaryDirectory() as tmp:
        out = []
        for name, ds in (("plain", gen_random_separable(3, 6, 0.2, seed=1)),
                         ("weighted", gen_batch_hard(0.1, 16, weighted=True))):
            path = Path(tmp) / name
            save_dataset(ds, path)
            out.append(path.read_bytes())
    return tuple(out)


def _loads_valid_or_raises_value_error(data: bytes) -> None:
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "fuzz.txt"
        path.write_bytes(data)
        try:
            ds = load_dataset(path)
        except ValueError:
            return
    assert isinstance(ds, Dataset) and validate(ds).ok


class TestLoadFuzz:
    """Whatever the bytes, load_dataset gives a Dataset that passes validate
    or raises ValueError. Numbers past the float range print numpy
    RuntimeWarnings on their way to being refused."""

    @settings(max_examples=200, deadline=None)
    @given(data=st.one_of(st.binary(max_size=300), st.text(max_size=300).map(str.encode)))
    def test_any_bytes(self, data):
        _loads_valid_or_raises_value_error(data)

    @settings(max_examples=400, deadline=None)
    @given(data=st.data())
    def test_any_mutation_of_a_saved_file(self, data):
        text = data.draw(st.sampled_from(_saved_files()), label="file")
        for _ in range(data.draw(st.integers(1, 3), label="edits")):
            i = data.draw(st.integers(0, len(text)), label="at")
            j = data.draw(st.integers(i, min(len(text), i + 12)), label="to")
            piece = data.draw(st.one_of(st.sampled_from(_FORMAT_TOKENS), st.binary(max_size=6)),
                              label="insert")
            text = text[:i] + piece + text[j:]
        _loads_valid_or_raises_value_error(text)
