"""Tests for dataset generators, validation, and serialization."""

import dataclasses
import functools
import math
import tempfile
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from margin_lab.datasets import (
    BLOCK_ELEMENTS,
    Dataset,
    block_rows,
    gen_batch_hard,
    gen_chain_hard,
    gen_online_hard,
    gen_random_separable,
    gen_two_point,
    load_dataset,
    mean_signed_feature,
    row_blocks,
    save_dataset,
    stepsize_cap_fraction,
    validate,
)
from margin_lab.verify import dataset_fingerprint

from _oracles import joined_dataset_text, whole_matrix_random_separable


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

    @pytest.mark.parametrize("weighted", [True, False])
    def test_n_beyond_2_53_is_refused(self, weighted):
        # the weight load_dataset would refuse, and past float sums' integers
        assert gen_batch_hard(0.05, 2**53, weighted=True).n == 2**53
        for n in (2**53 + 1, 2**60 + 1, 10**400):
            with pytest.raises(ValueError, match=r"need n <= 2\^53"):
                gen_batch_hard(0.05, n, weighted=weighted)


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

    @pytest.mark.parametrize("n, d", [(7000, 20), (3, 70_000)])
    def test_round_trip_across_row_blocks(self, n, d, tmp_path):
        """Several row blocks, the last one short (7000 rows of d = 20 are
        three blocks of 3276), and one row per block past 65 536 columns."""
        ds = gen_random_separable(d, n, 0.1, seed=3)
        path = tmp_path / "ds.txt"
        save_dataset(ds, path)
        back = load_dataset(path)
        np.testing.assert_array_equal(ds.features, back.features)
        np.testing.assert_array_equal(ds.labels, back.labels)
        assert back.features.flags.c_contiguous and back.n == n

    def test_files_match_the_joined_writer_byte_for_byte(self, tmp_path):
        plain = gen_random_separable(20, 7000, 0.1, seed=1000)
        odd = Dataset(features=np.array([[-0.0, 5e-324], [np.nan, -np.inf], [0.1, 1.0 / 3.0]]),
                      labels=np.array([1.0, -1.0, 0.0]), gamma=0.5,
                      w_star=np.array([1.0, -0.0]))
        weighted = gen_batch_hard(0.05, 2**20, weighted=True)
        comments = ("margin-lab v0 config_sha256=abc seed=3", "# kept as written")
        for ds in (plain, odd, weighted):
            path = tmp_path / "ds.txt"
            save_dataset(ds, path, comments=comments)
            assert path.read_text() == joined_dataset_text(
                ds.features, ds.labels, ds.w_star, ds.gamma, ds.n, ds.weights, comments)

    def test_a_weight_int_refuses_writes_no_file(self, tmp_path):
        ds = gen_batch_hard(0.1, 16, weighted=True)
        ds.weights.setflags(write=True)
        ds.weights[-1] = np.nan
        path = tmp_path / "ds.txt"
        with pytest.raises(ValueError):
            save_dataset(ds, path)
        assert not path.exists()

    def test_non_utf8_byte_outranks_an_earlier_format_error(self, tmp_path):
        path = tmp_path / "bad.txt"
        body = "margin-lab-dataset v1 n=2 d=2 gamma=0.5\nwstar: 1 0\n+1 abc 0\n"
        path.write_bytes(body.encode() + b"-1 -0.6 0.1\n" * 2000 + b"\xff\n")
        with pytest.raises(ValueError, match="not UTF-8"):
            load_dataset(path)
        path.write_bytes(body.encode() + b"-1 -0.6 0.1\n" * 2000)
        with pytest.raises(ValueError, match="non-numeric token in row 1"):
            load_dataset(path)

    @pytest.mark.parametrize("tail, at, reason", [
        (b"\xff\n", 20011, "invalid start byte"),
        (b"\xe2\x82\n", 20011, "invalid continuation byte"),
        (b"\xe2\x82", 20011, "unexpected end of data"),
    ])
    def test_non_utf8_byte_offset_counts_from_the_start_of_the_file(self, tmp_path,
                                                                    tail, at, reason):
        head = b"margin-lab-dataset v1 n=2 d=2 gamma=0.5\nwstar: 1 0\n"
        data = head + b"# " + b"x" * (at - len(head) - 3) + b"\n" + tail
        assert data.index(tail[:1]) == at
        path = tmp_path / "bad.txt"
        path.write_bytes(data)
        with pytest.raises(ValueError) as info:
            load_dataset(path)
        assert str(info.value) == f"{path}: not UTF-8 text (byte {at}: {reason})"

    @pytest.mark.parametrize("newline", [b"\r\n", b"\r"])
    def test_crlf_and_cr_line_ends_load_as_newlines(self, tmp_path, newline):
        ds = gen_batch_hard(0.1, 16, weighted=True)
        path = tmp_path / "ds.txt"
        save_dataset(ds, path, comments=("# a comment",))
        path.write_bytes(path.read_bytes().replace(b"\n", newline))
        back = load_dataset(path)
        for name in ("features", "labels", "weights", "w_star"):
            assert np.array_equal(getattr(back, name), getattr(ds, name))

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

    @pytest.mark.parametrize("key", ["n", "d"])
    def test_header_count_past_int_digit_limit_names_the_file(self, key, tmp_path):
        counts = {"n": "2", "d": "2", key: "1" * 5000}
        p = tmp_path / "long.txt"
        p.write_text(f"margin-lab-dataset v1 n={counts['n']} d={counts['d']} gamma=0.5\n"
                     "wstar: 1 0\n+1 0.6 0\n-1 -0.6 0.1\n")
        with pytest.raises(ValueError) as exc:
            load_dataset(p)
        assert str(exc.value) == f"{p}: header {key}= has 5000 digits, too many to read"

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


# Weights 2^53 and 1: their float sum rounds to 2^53, their exact sum does not.
PAST_2_53 = ("margin-lab-dataset v1w n=9007199254740993 d=2 gamma=0.5\n"
             "wstar: 1 0\n"
             "+1 9007199254740992 0.5 0\n"
             "+1 1 0.75 0.25\n")


class TestExactN:
    """n is the exact integer sum of the weights, fixed when the frozen
    Dataset is built."""

    def test_a_file_past_2_53_loads_with_its_exact_n(self, tmp_path):
        path = tmp_path / "ds.txt"
        path.write_text(PAST_2_53)
        assert load_dataset(path).n == 2**53 + 1

    def test_a_file_past_2_53_saves_back_byte_for_byte(self, tmp_path):
        path, back = tmp_path / "ds.txt", tmp_path / "back.txt"
        path.write_text(PAST_2_53)
        save_dataset(load_dataset(path), back)
        assert back.read_bytes() == path.read_bytes()

    def test_fields_cannot_be_assigned(self):
        ds = gen_two_point(0.05)
        with pytest.raises(dataclasses.FrozenInstanceError):
            ds.features = ds.features[:1]
        with pytest.raises(dataclasses.FrozenInstanceError):
            ds.n = 3
        assert ds.n == 2

    def test_replace_recomputes_n(self):
        ds = gen_batch_hard(0.05, 2**20, weighted=True)
        assert ds.n == 2**20
        ones = dataclasses.replace(ds, weights=np.ones(ds.n_rows))
        assert ones.n == ds.n_rows
        big = np.ones(ds.n_rows)
        big[0] = 2.0**53
        assert dataclasses.replace(ds, weights=big).n == 2**53 + ds.n_rows - 1
        assert dataclasses.replace(ds, weights=None).n == ds.n_rows

    def test_weights_refuse_writes_and_n_holds(self):
        weights = np.ones(5)
        ds = Dataset(np.zeros((5, 2)), np.ones(5), 0.1, np.array([1.0, 0.0]), weights=weights)
        weights[0] = 7.0  # the caller's array is not the dataset's
        with pytest.raises(ValueError, match="read-only"):
            ds.weights[0] = 3.0
        assert ds.n == 5 and ds.weights.tolist() == [1.0] * 5

    def test_a_nan_weight_raises_at_construction(self):
        ds = gen_batch_hard(0.05, 64, weighted=True)
        weights = ds.weights.copy()
        weights[-1] = np.nan
        with pytest.raises(ValueError):
            dataclasses.replace(ds, weights=weights)


GENERATORS = {
    "random": lambda: gen_random_separable(10, 101, 0.1, seed=3),
    "two-point": lambda: gen_two_point(0.05),
    "batch-hard": lambda: gen_batch_hard(0.1, 64),
    "batch-hard-weighted": lambda: gen_batch_hard(0.1, 64, weighted=True),
    "online-hard": lambda: gen_online_hard(0.2, 30),
    "chain-hard": lambda: gen_chain_hard(0.05, 40),
}


class TestHeldArrays:
    """features, labels and w_star are held read-only, C-contiguous and
    float64: a view of an input that is so already, one copy of any other."""

    @pytest.mark.parametrize("name", ["features", "labels", "w_star"])
    def test_writes_raise(self, name):
        ds = gen_random_separable(5, 20, 0.2, seed=0)
        with pytest.raises(ValueError, match="read-only"):
            getattr(ds, name)[0] = 0.0
        with pytest.raises(ValueError, match="read-only"):
            getattr(ds, name)[...] *= 2.0

    def test_a_c_contiguous_float64_input_is_not_copied(self):
        x, y, w = np.eye(3)[:, :2].copy(), np.ones(3), np.array([1.0, 0.0])
        ds = Dataset(x, y, 0.5, w)
        for given, held in ((x, ds.features), (y, ds.labels), (w, ds.w_star)):
            assert np.shares_memory(given, held)
            assert given.flags.writeable and not held.flags.writeable
        again = dataclasses.replace(ds, gamma=0.25)
        assert np.shares_memory(again.features, x)

    @pytest.mark.parametrize("layout", ["F", "strided", "float32"])
    def test_any_other_input_is_copied_once(self, layout):
        ds = gen_random_separable(200, 2000, 0.1, seed=1)
        given = {"F": lambda: np.asfortranarray(ds.features),
                 "strided": lambda: np.repeat(ds.features, 2, axis=0)[::2],
                 "float32": lambda: ds.features.astype(np.float32)}[layout]()
        made = []
        peak = _traced_peak(lambda: made.append(dataclasses.replace(ds, features=given)))
        held = made[0].features
        assert not np.shares_memory(held, given)
        assert held.flags.c_contiguous and held.dtype == np.float64
        assert not held.flags.writeable
        assert ds.features.nbytes <= peak <= 1.1 * ds.features.nbytes  # one copy
        if layout != "float32":  # the same values, so the same outputs
            assert held.tobytes() == ds.features.tobytes()
            w = np.random.default_rng(1).standard_normal(ds.d)
            assert made[0].margins(w).tobytes() == ds.margins(w).tobytes()

    def test_an_f_ordered_input_gives_the_c_inputs_report_and_fingerprint(self):
        """An F-ordered input is held as a C-ordered copy of the same values,
        so validate and verify.dataset_fingerprint see the dataset that the
        C-ordered input makes, plain or weighted."""
        for ds in (gen_random_separable(20, 7000, 0.1, seed=0),
                   gen_batch_hard(0.05, 2**20, weighted=True)):
            given = dataclasses.replace(ds, features=np.asfortranarray(ds.features))
            assert validate(given) == validate(ds)
            assert dataset_fingerprint(given) == dataset_fingerprint(ds)

    @pytest.mark.parametrize("name", list(GENERATORS))
    def test_the_one_vector_passes_equal_matmul(self, name):
        ds = GENERATORS[name]()
        rng = np.random.default_rng(7)
        for w in (rng.standard_normal(ds.d), ds.w_star, np.zeros(ds.d)):
            assert ds.margins(w).tobytes() == (ds.labels * (ds.features @ w)).tobytes()
        for c in (rng.standard_normal(ds.n_rows), rng.random(ds.n_rows)):
            assert ds.signed_sum(c).tobytes() == ((c * ds.labels) @ ds.features).tobytes()


class TestRowBlocks:
    """The passes over a whole feature matrix work in blocks of
    block_rows(d) = max(1, BLOCK_ELEMENTS // d) rows."""

    def test_block_rows_and_slices(self):
        assert [block_rows(d) for d in (0, 1, 20, 500, 65_536, 70_000)] == [
            65_536, 65_536, 3276, 131, 1, 1]
        parts = list(row_blocks(7000, 20))
        assert [(p.start, p.stop) for p in parts] == [(0, 3276), (3276, 6552), (6552, 7000)]
        assert list(row_blocks(0, 20)) == []

    # (n, d, gamma): several blocks with a short last one, and of the rows
    # below the margin; one row per block past 65 536 columns; one block
    @pytest.mark.parametrize("n, d, gamma", [(7000, 20, 0.5), (1000, 500, 0.1),
                                             (3, 70_000, 0.1), (5, 2, 0.3)])
    @pytest.mark.parametrize("seed", [0, 3, 1000])
    def test_generator_matches_the_whole_matrix_oracle(self, n, d, gamma, seed):
        ds = gen_random_separable(d, n, gamma, seed)
        x, y, w_star = whole_matrix_random_separable(d, n, gamma, seed)
        assert ds.features.tobytes() == x.tobytes()
        assert ds.labels.tobytes() == y.tobytes()
        assert ds.w_star.tobytes() == w_star.tobytes()


def _traced_peak(fn) -> int:
    """Bytes fn allocates at its peak, above what is allocated before it."""
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        fn()
        return tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()


class TestBoundedMemory:
    """tracemalloc peaks (numpy reports its buffers to it). One block is
    BLOCK_ELEMENTS floats; "a vector" is one float per row. The writer and
    loader run at a smaller shape: tracemalloc slows their Python objects."""

    BLOCK = BLOCK_ELEMENTS * 8

    def test_generation_peaks_near_the_features(self):
        made = []
        peak = _traced_peak(lambda: made.append(gen_random_separable(500, 4000, 0.1, seed=0)))
        assert peak <= 1.25 * made[0].features.nbytes

    def test_validate_and_fingerprint_hold_one_block(self):
        ds = gen_random_separable(500, 4000, 0.1, seed=0)
        bound = self.BLOCK + 8 * (8 * ds.n_rows)  # one block and eight vectors
        assert _traced_peak(lambda: validate(ds)) <= bound
        assert _traced_peak(lambda: dataset_fingerprint(ds)) <= bound

    def test_save_holds_a_row_and_load_one_feature_matrix(self, tmp_path):
        ds = gen_random_separable(100, 1000, 0.1, seed=0)
        path = tmp_path / "ds.txt"
        assert _traced_peak(lambda: save_dataset(ds, path)) <= 0.25 * ds.features.nbytes
        # the features, what validate holds (one block and a few vectors)
        # and a line: its text, its fields and their floats
        bound = ds.features.nbytes + self.BLOCK + 8 * (8 * ds.n_rows) + 64 * ds.d
        assert _traced_peak(lambda: load_dataset(path)) <= bound

    def test_rows_claimed_past_the_file_size_allocate_nothing_for_them(self, tmp_path):
        # 1.25 MB: a wstar line of d coordinates, then d one-field rows. Room
        # for all d rows would be 466 GiB of features; a row of d + 1 fields
        # needs 2 (d + 1) bytes, so the loader makes room for 3 rows.
        d = 250_000
        path = tmp_path / "crafted.txt"
        path.write_text(f"margin-lab-dataset v1 n={d} d={d} gamma=0.5\n"
                        "wstar: " + " ".join(["0"] * d) + "\n" + "+1\n" * d)

        def load():
            with pytest.raises(ValueError, match=f"row 1 has 1 fields, expected {d + 1}$"):
                load_dataset(path)

        # the wstar line's fields and floats, and 3 rows of 2 MB each
        assert _traced_peak(load) <= 16 * path.stat().st_size


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
    or raises ValueError."""

    @pytest.mark.parametrize("w_star,row,failed", [
        ([1.0, 0.0], [0.5, math.inf], ["unit_ball", "certificate_margin"]),
        ([1.0, 0.0], [1e200, 0.0], ["unit_ball"]),
        ([1.0, 1e200], [0.5, 0.0], ["certificate_unit"]),
    ], ids=["inf-feature", "overflowing-norm", "overflowing-certificate"])
    def test_validate_warns_nothing_past_the_float_range(self, w_star, row, failed):
        """An inf feature, an overflowing row norm and an overflowing
        certificate norm fail their checks, whose details report inf or
        nan, with no numpy warning on the way."""
        ds = Dataset(features=np.array([row]), labels=np.array([1.0]), gamma=0.1,
                     w_star=np.array(w_star))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            report = validate(ds)
        assert not report.ok
        assert [name for name, passed, _ in report.checks if not passed] == failed
        assert all("inf" in detail or "nan" in detail
                   for _, passed, detail in report.checks if not passed)

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
