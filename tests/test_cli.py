"""CLI tests: config parsing with line-numbered errors, subcommand outputs,
provenance headers, byte-identity, exit codes."""

from __future__ import annotations

import dataclasses
import hashlib
import json
import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from margin_lab import __version__, load_dataset
from margin_lab.cli import (
    COMMANDS,
    CONFIG_KEYS,
    ConfigError,
    ExperimentConfig,
    main,
    make_dataset,
    parse_config,
    parse_dataset_source,
    parse_order_spec,
    parse_stepsize,
)
from margin_lab.datasets import gen_random_separable
from margin_lab.descent import GDConfig, run_gd
from margin_lab.losses import EXP, LOG
from margin_lab.online import cyclic_order, run_perceptron

RUN_CFG = (
    "command = run\n"
    "loss = exp\n"
    "stepsize = adaptive:100\n"
    "steps = 200\n"
    "dataset = random:d=10,n=100,gamma=0.1,seed=7\n"
)

# 300 seeded random bytes, which are not UTF-8 text
NOT_UTF8 = np.random.default_rng(0).integers(0, 256, 300, dtype=np.uint8).tobytes()

PROVENANCE_RE = re.compile(
    rf"^# margin-lab v{re.escape(__version__)} config_sha256=[0-9a-f]{{12}} seed=-?\d+$"
)


def errors_of(text: str, command: str) -> list:
    with pytest.raises(ConfigError) as info:
        parse_config(text, command)
    return info.value.errors


class TestParseConfig:
    def test_reference_run_config_parses(self):
        cfg = parse_config(RUN_CFG, "run")
        assert cfg.command == "run"
        assert cfg.values["loss"].name == "exp"
        assert cfg.values["stepsize"] == ("adaptive", 100.0)
        assert cfg.values["steps"] == 200
        ds = cfg.values["dataset"]
        assert ds.kind == "random"
        assert ds.params == {"d": 10, "n": 100, "gamma": 0.1, "seed": 7}

    def test_negative_eta_is_rejected_with_line_number(self):
        text = RUN_CFG.replace("adaptive:100", "adaptive:-1")
        assert (3, "eta must be positive") in errors_of(text, "run")

    def test_poly_zero_is_rejected(self):
        text = RUN_CFG.replace("loss = exp", "loss = poly:0")
        errs = errors_of(text, "run")
        assert any(line == 2 and "k must be > 0" in msg for line, msg in errs)

    def test_unknown_key_names_the_line(self):
        errs = errors_of(RUN_CFG + "color = blue\n", "run")
        assert (6, "unknown key 'color' for command run") in errs

    def test_duplicate_key_names_the_second_line(self):
        errs = errors_of(RUN_CFG + "loss = log\n", "run")
        assert (6, "duplicate key 'loss'") in errs

    def test_missing_required_keys_report_line_zero(self):
        errs = errors_of("loss = exp\n", "run")
        missing = {msg for line, msg in errs if line == 0}
        assert "missing required key 'steps'" in missing
        assert "missing required key 'dataset'" in missing
        assert "missing required key 'stepsize'" in missing

    def test_malformed_line_is_an_error(self):
        errs = errors_of("just some words\n" + RUN_CFG, "run")
        assert any(line == 1 and "expected 'key = value'" in msg for line, msg in errs)

    def test_comments_and_blank_lines_are_skipped(self):
        text = "# a comment\n\n" + RUN_CFG
        cfg = parse_config(text, "run")
        assert cfg.values["steps"] == 200

    def test_command_key_must_match_invocation(self):
        errs = errors_of("command = run\ndataset = two-point:gamma=0.1\n", "gen")
        assert any("command = run" in msg and "gen was invoked" in msg
                   for _, msg in errs)

    def test_adaptive_hinge_is_rejected_constant_is_not(self):
        text = RUN_CFG.replace("loss = exp", "loss = hinge")
        errs = errors_of(text, "run")
        assert any("hinge" in msg and "constant" in msg for _, msg in errs)
        ok = text.replace("adaptive:100", "constant:1")
        assert parse_config(ok, "run").values["stepsize"] == ("constant", 1.0)

    def test_run_nn_requires_adaptive_and_exp_or_log(self):
        base = (
            "dataset = random:d=4,n=20,gamma=0.2\n"
            "loss = {loss}\nstepsize = {step}\nsteps = 10\n"
            "width = 4\nactivation = leakyrelu:0.5\n"
        )
        errs = errors_of(base.format(loss="exp", step="constant:1"), "run-nn")
        assert any("adaptive stepsizes only" in msg for _, msg in errs)
        errs = errors_of(base.format(loss="poly:2", step="adaptive:8"), "run-nn")
        assert any("exp or log" in msg for _, msg in errs)
        parse_config(base.format(loss="log", step="adaptive:8"), "run-nn")

    def test_perceptron_needs_steps_unless_order_is_a_file(self, tmp_path):
        errs = errors_of("dataset = online-hard:gamma=0.4,n=10\n", "perceptron")
        assert (0, "steps is required unless order = file:<path>") in errs
        order = tmp_path / "order.txt"
        order.write_text("0 1 2\n")
        cfg = parse_config(
            f"dataset = online-hard:gamma=0.4,n=10\norder = file:{order}\n",
            "perceptron",
        )
        assert cfg.values["order"] == ("file", str(order))

    def test_verify_and_bench_accept_empty_config(self):
        assert parse_config("", "verify").values == {}
        assert parse_config("", "bench").values == {}


class TestDatasetSources:
    def test_all_generator_forms_parse(self):
        cases = {
            "random:d=3,n=7,gamma=0.2": ("random", {"d": 3, "n": 7, "gamma": 0.2}),
            "two-point:gamma=0.05": ("two-point", {"gamma": 0.05}),
            "batch-hard:gamma=0.05,n=1024": (
                "batch-hard", {"gamma": 0.05, "n": 1024}),
            "batch-hard:gamma=0.05,n=16,weighted=false": (
                "batch-hard", {"gamma": 0.05, "n": 16, "weighted": False}),
            "online-hard:gamma=0.4,n=10": ("online-hard", {"gamma": 0.4, "n": 10}),
            "chain-hard:gamma=0.01,n=50": ("chain-hard", {"gamma": 0.01, "n": 50}),
        }
        for text, (kind, params) in cases.items():
            spec = parse_dataset_source(text)
            assert spec.kind == kind
            assert spec.params == params

    def test_unknown_source_and_bad_params(self):
        with pytest.raises(ValueError, match="unknown dataset source"):
            parse_dataset_source("gaussian:d=2")
        with pytest.raises(ValueError, match="needs gamma"):
            parse_dataset_source("two-point:")
        with pytest.raises(ValueError, match="unknown parameter"):
            parse_dataset_source("two-point:gamma=0.1,d=3")
        with pytest.raises(ValueError, match="duplicate dataset parameter"):
            parse_dataset_source("random:d=2,d=3,n=5,gamma=0.1")
        with pytest.raises(ValueError, match="gamma must be in"):
            parse_dataset_source("two-point:gamma=1.5")

    def test_file_source_must_exist(self, tmp_path):
        with pytest.raises(ValueError, match="not found"):
            parse_dataset_source(f"file:{tmp_path/'missing.txt'}")
        p = tmp_path / "ds.txt"
        p.write_text("placeholder")
        assert parse_dataset_source(f"file:{p}").params == {"path": str(p)}

    def test_random_seed_defaults_to_cli_seed(self):
        spec = parse_dataset_source("random:d=3,n=5,gamma=0.1")
        a = make_dataset(spec, 11)
        b = make_dataset(spec, 11)
        c = make_dataset(spec, 12)
        assert np.array_equal(a.features, b.features)
        assert not np.array_equal(a.features, c.features)


class TestStepsizeAndOrder:
    def test_stepsize_forms(self):
        assert parse_stepsize("adaptive:0.5") == ("adaptive", 0.5)
        assert parse_stepsize("constant:4e3") == ("constant", 4000.0)
        with pytest.raises(ValueError, match="eta must be positive"):
            parse_stepsize("adaptive:0")
        with pytest.raises(ValueError, match="adaptive:<eta> or constant"):
            parse_stepsize("warmup:1")

    def test_order_forms(self, tmp_path):
        assert parse_order_spec("cyclic") == ("cyclic", None)
        assert parse_order_spec("random:9") == ("random", 9)
        assert parse_order_spec("random:0") == ("random", 0)
        with pytest.raises(ValueError, match="order seed must be >= 0, got -1"):
            parse_order_spec("random:-1")
        with pytest.raises(ValueError, match="order file not found"):
            parse_order_spec(f"file:{tmp_path/'no.txt'}")


class TestBenchConfig:
    def test_lists_parse(self):
        cfg = parse_config(
            "gammas = 0.05, 0.1\nepsilons = 1e-2,1e-6\nmethods = perceptron\n",
            "bench",
        )
        assert cfg.values["gammas"] == (0.05, 0.1)
        assert cfg.values["epsilons"] == (0.01, 1e-6)
        assert cfg.values["methods"] == ("perceptron",)

    def test_bad_entries(self):
        assert any("unknown bench method" in m
                   for _, m in errors_of("methods = sgd\n", "bench"))
        assert any("epsilon must be positive" in m
                   for _, m in errors_of("epsilons = 0\n", "bench"))
        assert any("smooth loss" in m
                   for _, m in errors_of("loss = hinge\n", "bench"))


# One accepted config per command; the fuzz below permutes, drops and
# appends lines to these, so that some texts parse and most do not.
_VALID_LINES = {
    "gen": ["command = gen", "dataset = two-point:gamma=0.5", "seed = 3"],
    "run": ["command = run", "dataset = random:d=10,n=100,gamma=0.1", "loss = poly:2",
            "stepsize = adaptive:400", "steps = 20", "record_every = 5"],
    "run-nn": ["command = run-nn", "dataset = batch-hard:gamma=0.1,n=8,weighted=false",
               "loss = exp", "stepsize = adaptive:1", "steps = 5", "width = 4",
               "activation = leakyrelu:0.5"],
    "perceptron": ["command = perceptron", "dataset = online-hard:gamma=0.1,n=4",
                   "order = random:3", "steps = 10"],
    "verify": ["command = verify", "seed = 1"],
    "bench": ["command = bench", "gammas = 0.1, 0.2", "epsilons = 1e-2", "d = 5",
              "methods = constant,perceptron", "n = 20", "loss = log", "max_steps = 9",
              "eta_constant = 1", "eta_small = 0.5"],
}
_ODD_VALUES = [
    "", "0", "-1", "nan", "inf", "1e400", "9" * 5000, "x", ",", "0.1,,nan",
    "poly:0", "poly:nan", "hinge", "constant:-1", "adaptive:inf", "file:", "file:.",
    "file:" + "x" * 4000, "random:", "random:d=0,n=1,gamma=1", "chain-hard:gamma=nan,n=4",
    "batch-hard:gamma=0.1,n=8,weighted=maybe", "leaky-silu:x", "relu", "perceptron,bogus",
]
_KEYS = sorted(CONFIG_KEYS)
_odd_line = st.one_of(
    st.builds("{} = {}".format, st.sampled_from(_KEYS),
              st.one_of(st.sampled_from(_ODD_VALUES), st.text(max_size=20))),
    st.sampled_from(["# comment", "=", "= x", "key", "command = gen"]),
    st.text(max_size=30),
)


def _config_texts(command):
    mutated = st.builds(
        lambda lines, drop, extra: "\n".join(list(lines[drop:]) + extra),
        st.permutations(_VALID_LINES[command]),
        st.integers(0, len(_VALID_LINES[command])),
        st.lists(_odd_line, max_size=3),
    )
    return st.one_of(mutated, st.text())


class TestConfigFuzz:
    @pytest.mark.parametrize("command", sorted(COMMANDS))
    @settings(max_examples=60, deadline=None)
    @given(data=st.data())
    def test_any_text_parses_or_is_a_config_error(self, command, data):
        text = data.draw(_config_texts(command), label="text")
        try:
            cfg = parse_config(text, command)
        except ConfigError as exc:
            assert exc.errors
        else:
            assert isinstance(cfg, ExperimentConfig) and cfg.command == command


class TestExitCodes:
    def test_missing_config_file(self, tmp_path, capsys):
        rc = main(["run", "--config", str(tmp_path / "nope.cfg")])
        assert rc == 2
        assert "config file not found" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["gen", "run", "run-nn", "perceptron"])
    def test_run_requires_config(self, command, capsys):
        assert main([command]) == 2
        assert f"{command} requires --config" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["verify", "bench"])
    def test_verify_and_bench_run_without_config(self, command, tmp_path, capsys,
                                                 monkeypatch):
        # no required key, so no --config; the handler is stubbed to keep it quick
        seen = []
        stub = dataclasses.replace(COMMANDS[command],
                                   run=lambda cfg, out, seed: seen.append((cfg, seed)) or 0)
        monkeypatch.setitem(COMMANDS, command, stub)
        assert main([command, "--out", str(tmp_path)]) == 0
        assert capsys.readouterr().err == ""
        (cfg, seed), = seen
        assert (cfg.command, cfg.values, cfg.text, seed) == (command, {}, "", 0)

    def test_parse_errors_reach_stderr_with_line_numbers(self, tmp_path, capsys):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("stepsize = adaptive:-1\n")
        rc = main(["run", "--config", str(cfg), "--out", str(tmp_path)])
        assert rc == 2
        err = capsys.readouterr().err
        assert "config error: line 1: eta must be positive" in err
        assert "missing required key" in err

    def test_overlong_paths_are_config_errors(self, tmp_path, capsys):
        # a name longer than the OS allows is a missing file, not an OSError
        name = "x" * 4000
        assert main(["run", "--config", str(tmp_path / name)]) == 2
        assert "config file not found" in capsys.readouterr().err
        errors = errors_of(f"dataset = file:{name}\n", "gen")
        assert errors == [(1, f"dataset file not found: {name}")]
        errors = errors_of(f"dataset = two-point:gamma=0.5\norder = file:{name}\n",
                           "perceptron")
        assert errors == [(2, f"order file not found: {name}")]

    def test_non_utf8_config_is_a_config_error(self, tmp_path, capsys):
        cfg = tmp_path / "bad.cfg"
        cfg.write_bytes(NOT_UTF8)
        out = tmp_path / "out"
        assert main(["run", "--config", str(cfg), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: ") and "not UTF-8" in err
        assert "Traceback" not in err
        assert not out.exists()

    # sources that parse but fall outside their generator's range
    @pytest.mark.parametrize("source", [
        "random:d=1,n=10,gamma=0.1",
        "two-point:gamma=0.1",
        "batch-hard:gamma=0.16666666666666666,n=8",
        "batch-hard:gamma=0.1,n=1",
        "online-hard:gamma=0.5,n=4",
        "chain-hard:gamma=0.125,n=4",
    ])
    def test_dataset_outside_the_generator_range_is_a_config_error(self, source, tmp_path,
                                                                   capsys):
        cfg = tmp_path / "c.cfg"
        cfg.write_text(f"dataset = {source}\nloss = exp\nstepsize = adaptive:1\nsteps = 5\n")
        out = tmp_path / "out"
        assert main(["run", "--config", str(cfg), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: bad dataset ") and "need" in err
        assert "Traceback" not in err
        assert list(out.iterdir()) == []

    @pytest.mark.parametrize("weighted", ["true", "false"])
    @pytest.mark.parametrize("n", [2**60 + 1, 10**400], ids=["2^60+1", "401-digits"])
    @pytest.mark.parametrize("command", ["gen", "run"])
    def test_batch_hard_n_beyond_2_53_is_a_config_error(self, command, n, weighted, tmp_path,
                                                        capsys):
        cfg = tmp_path / "c.cfg"
        cfg.write_text(f"dataset = batch-hard:gamma=0.05,n={n},weighted={weighted}\n"
                       + ("loss = exp\nstepsize = adaptive:1\nsteps = 5\n" if command == "run"
                          else ""))
        out = tmp_path / "out"
        assert main([command, "--config", str(cfg), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err == f"config error: bad dataset batch-hard source: need n <= 2^53, got {n}\n"
        assert not out.exists() or list(out.iterdir()) == []

    # gamma^2 underflows to 0 at 1e-200, and 1/gamma^2 overflows to inf at 1e-155
    @pytest.mark.parametrize("source, formula", [
        ("online-hard:gamma={gamma},n=3", "1/gamma^2"),
        ("batch-hard:gamma={gamma},n=4", "1/(5 gamma^2)")], ids=["online-hard", "batch-hard"])
    @pytest.mark.parametrize("gamma", ["1e-200", "1e-155"])
    @pytest.mark.parametrize("command", ["gen", "run", "run-nn", "perceptron"])
    def test_a_hard_instance_gamma_whose_dimension_is_no_finite_float_is_a_config_error(
            self, source, formula, gamma, command, tmp_path, capsys):
        rest = {"gen": "", "perceptron": "steps = 5\n",
                "run": "loss = exp\nstepsize = adaptive:1\nsteps = 5\n",
                "run-nn": "loss = exp\nstepsize = adaptive:1\nsteps = 5\nwidth = 2\n"
                          "activation = leakyrelu:0.5\n"}[command]
        cfg = tmp_path / "c.cfg"
        cfg.write_text(f"dataset = {source.format(gamma=gamma)}\n" + rest)
        out = tmp_path / "out"
        assert main([command, "--config", str(cfg), "--out", str(out)]) == 2
        kind = source.partition(":")[0]
        assert capsys.readouterr().err == (f"config error: bad dataset {kind} source: need "
                                           f"{formula} to be a finite float, got gamma {gamma}\n")
        assert list(out.iterdir()) == []

    def test_dataset_that_cannot_be_allocated_is_a_config_error(self, tmp_path, capsys):
        # d = 1/gamma^2 = 111 111 111 111 columns: 0.8 PiB of features, past
        # any 64-bit host's address space whatever its overcommit setting
        cfg = tmp_path / "c.cfg"
        cfg.write_text("dataset = online-hard:gamma=0.000003,n=1000\nloss = exp\n"
                       "stepsize = adaptive:1\nsteps = 5\n")
        out = tmp_path / "out"
        assert main(["run", "--config", str(cfg), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: bad dataset online-hard source: "
                              "does not fit in memory (an array of shape (1000, 111111111111))")
        assert "Traceback" not in err
        assert list(out.iterdir()) == []

    def test_dataset_file_that_cannot_be_loaded_is_a_config_error(self, tmp_path, capsys,
                                                                 monkeypatch):
        data = tmp_path / "ds.txt"
        data.write_text(_HEAD + _WSTAR + _ROWS)

        def out_of_memory(path):
            raise MemoryError

        monkeypatch.setattr("margin_lab.cli.load_dataset", out_of_memory)
        cfg = write_cfg(tmp_path, f"dataset = file:{data}\n")
        assert main(["gen", "--config", cfg, "--out", str(tmp_path / "out")]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"config error: bad dataset file {data}: does not fit in memory")
        assert "Traceback" not in err

    # Sizes numpy cannot index: it refuses them with a ValueError, or its
    # arange returns an empty array at 2**63 - 1. None of them allocates.
    # (width = 1e23 as written is refused as not an integer; 10**23 in
    # digits parses.)
    @pytest.mark.parametrize("command,text,message", [
        ("perceptron", f"order = cyclic\nsteps = {2**63 - 1}\n", "perceptron run"),
        ("perceptron", f"order = cyclic\nsteps = {10**23}\n", "perceptron run"),
        ("perceptron", f"order = random:3\nsteps = {2**63}\n", "perceptron run"),
        ("bench", f"methods = perceptron\nmax_steps = {2**63 - 1}\n", "perceptron run"),
        ("run-nn", f"width = {10**23}\n", "network run"),
        ("run-nn", f"width = {2**63 - 1}\n", "network run"),
    ], ids=["cyclic-2**63-1", "cyclic-10**23", "random-2**63", "bench-2**63-1",
            "width-10**23", "width-2**63-1"])
    def test_a_size_numpy_cannot_index_is_a_config_error(self, command, text, message,
                                                         tmp_path, capsys):
        dataset = {"perceptron": "dataset = online-hard:gamma=0.1,n=5\n",
                   "bench": "",
                   "run-nn": ("dataset = random:d=5,n=20,gamma=0.1\nloss = exp\n"
                              "stepsize = adaptive:1\nsteps = 3\n"
                              "activation = leakyrelu:0.5\n")}[command]
        cfg = write_cfg(tmp_path, dataset + text)
        out = tmp_path / "out"
        assert main([command, "--config", cfg, "--out", str(out)]) == 2
        assert capsys.readouterr().err == f"config error: {message} does not fit in memory\n"
        assert list(out.iterdir()) == []

    def test_an_order_file_index_past_int64_is_a_config_error(self, tmp_path, capsys):
        order = tmp_path / "order.txt"
        order.write_text("0 99999999999999999999\n")
        cfg = write_cfg(tmp_path, f"dataset = online-hard:gamma=0.1,n=5\norder = file:{order}\n")
        out = tmp_path / "out"
        assert main(["perceptron", "--config", cfg, "--out", str(out)]) == 2
        assert capsys.readouterr().err == (
            f"config error: order file {order} has indices outside [0, 5)\n")
        assert list(out.iterdir()) == []

    def test_bench_with_d_1_is_a_config_error(self, tmp_path, capsys):
        cfg = tmp_path / "c.cfg"
        cfg.write_text("d = 1\n")
        out = tmp_path / "out"
        assert main(["bench", "--config", str(cfg), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert "need d >= 2" in err and "Traceback" not in err
        assert list(out.iterdir()) == []

    @pytest.mark.parametrize("under", [False, True], ids=["file", "under-a-file"])
    def test_out_that_is_or_lies_under_a_file_is_a_config_error(self, under, tmp_path,
                                                                capsys):
        blocker = tmp_path / "blocker"
        blocker.write_text("keep\n")
        out = blocker / "sub" if under else blocker
        assert main(["verify", "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"config error: cannot use --out {out}: ")
        assert "Traceback" not in err
        assert blocker.read_text() == "keep\n"


_HEAD = "margin-lab-dataset v1 n=2 d=2 gamma=0.5\n"
_HEAD_W = "margin-lab-dataset v1w n=3 d=2 gamma=0.5\n"
_WSTAR = "wstar: 1 0\n"
_ROWS = "+1 0.6 0\n-1 -0.6 0.1\n"

# name -> (file body, words the error message must carry)
BAD_DATASET_FILES = {
    "header-only": (_HEAD, "missing wstar"),
    "no-wstar": (_HEAD + _ROWS, "missing wstar"),
    "no-rows": (_HEAD + _WSTAR, "no data rows"),
    "short-row": (_HEAD + _WSTAR + "+1 0.6\n-1 -0.6 0.1\n", "row 1 has 2 fields"),
    "label-only-weighted-row": (_HEAD_W + _WSTAR + "+1\n-1 1 -0.6 0.1\n",
                                "row 1 has 1 fields"),
    "non-numeric-feature": (_HEAD + _WSTAR + "+1 abc 0\n-1 -0.6 0.1\n", "non-numeric"),
    "non-numeric-weight": (_HEAD_W + _WSTAR + "+1 two 0.6 0\n-1 1 -0.6 0.1\n",
                           "weight must be an integer"),
    "label-2": (_HEAD + _WSTAR + "2 0.6 0\n-1 -0.6 0.1\n", "labels_pm1"),
    "row-norm-5": (_HEAD + _WSTAR + "+1 5 0\n-1 -0.6 0.1\n", "unit_ball"),
    "nan-feature": (_HEAD + _WSTAR + "+1 nan 0\n-1 -0.6 0.1\n", "unit_ball"),
    "certificate-not-unit": (_HEAD + "wstar: 2 0\n" + _ROWS, "certificate_unit"),
    "margin-below-gamma": (_HEAD + "wstar: 0 1\n" + _ROWS, "certificate_margin"),
    "zero-weight": (_HEAD_W + _WSTAR + "+1 0 0.6 0\n-1 3 -0.6 0.1\n",
                    "weights_positive_integer"),
    "not-utf8": (NOT_UTF8, "not UTF-8"),
    "header-n-5000-digits": ("margin-lab-dataset v1 n=" + "1" * 5000 + " d=2 gamma=0.5\n"
                             + _WSTAR + _ROWS, "header n= has 5000 digits"),
}


def write_cfg(tmp_path, text, name="exp.cfg"):
    p = tmp_path / name
    p.write_text(text)
    return str(p)


class TestGenCommand:
    def test_written_dataset_loads_back(self, tmp_path):
        cfg = write_cfg(tmp_path, "dataset = two-point:gamma=0.05\n")
        assert main(["gen", "--config", cfg, "--out", str(tmp_path)]) == 0
        out = tmp_path / "dataset.txt"
        first = out.read_text().splitlines()[0]
        assert PROVENANCE_RE.match(first)
        ds = load_dataset(out)
        assert ds.n == 2 and ds.gamma == 0.05

    def test_a_weighted_file_past_2_53_is_written_back_with_its_exact_n(self, tmp_path):
        """Weights 2^53 and 1, whose float sum rounds to the header's n - 1."""
        data = tmp_path / "ds.txt"
        data.write_text("margin-lab-dataset v1w n=9007199254740993 d=2 gamma=0.5\n"
                        "wstar: 1 0\n+1 9007199254740992 0.5 0\n+1 1 0.75 0.25\n")
        cfg = write_cfg(tmp_path, f"dataset = file:{data}\n")
        out = tmp_path / "out"
        assert main(["gen", "--config", cfg, "--out", str(out)]) == 0
        assert load_dataset(out / "dataset.txt").n == 2**53 + 1

    def test_provenance_sha_matches_config_bytes(self, tmp_path):
        text = "dataset = two-point:gamma=0.05\n"
        cfg = write_cfg(tmp_path, text)
        main(["gen", "--config", cfg, "--out", str(tmp_path), "--seed", "3"])
        first = (tmp_path / "dataset.txt").read_text().splitlines()[0]
        sha = hashlib.sha256(text.encode()).hexdigest()[:12]
        assert first == f"# margin-lab v{__version__} config_sha256={sha} seed=3"

    @pytest.mark.parametrize("form", ["flag", "source"])
    def test_negative_seed_for_a_random_source_is_a_config_error(self, form, tmp_path,
                                                                 capsys):
        source = "random:d=3,n=5,gamma=0.1" + (",seed=-3" if form == "source" else "")
        cfg = write_cfg(tmp_path, f"dataset = {source}\n")
        out = tmp_path / "out"
        args = ["gen", "--config", cfg, "--out", str(out)]
        assert main(args + (["--seed", "-2"] if form == "flag" else [])) == 2
        seed = -2 if form == "flag" else -3
        assert capsys.readouterr().err == (
            f"config error: bad dataset random source: need seed >= 0, got {seed}\n")
        assert not out.exists() or list(out.iterdir()) == []


class TestRunCommand:
    def test_outputs_and_byte_identity(self, tmp_path):
        cfg = write_cfg(tmp_path, RUN_CFG)
        out1, out2 = tmp_path / "a", tmp_path / "b"
        assert main(["run", "--config", cfg, "--out", str(out1)]) == 0
        assert main(["run", "--config", cfg, "--out", str(out2)]) == 0
        csv1 = (out1 / "trajectory.csv").read_bytes()
        assert csv1 == (out2 / "trajectory.csv").read_bytes()
        json1 = (out1 / "trajectory.json").read_bytes()
        assert json1 == (out2 / "trajectory.json").read_bytes()

        lines = csv1.decode().splitlines()
        assert PROVENANCE_RE.match(lines[0])
        assert lines[1] == ("t,log_eta_t,log_risk,log_avg_risk,phi,min_margin,"
                            "avg_min_margin,descent_violated")
        assert len(lines) == 2 + 201  # t = 0 .. 200
        last = lines[-1].split(",")
        assert last[0] == "200"
        assert last[7] in ("0", "1")

    def test_diverged_run_names_the_step_in_the_csv(self, tmp_path):
        cfg = write_cfg(tmp_path, RUN_CFG.replace("adaptive:100", "constant:1e300"))
        assert main(["run", "--config", cfg, "--out", str(tmp_path)]) == 0
        data = json.loads((tmp_path / "trajectory.json").read_text())
        assert data["diverged_at"] == 2
        lines = (tmp_path / "trajectory.csv").read_text().splitlines()
        assert PROVENANCE_RE.match(lines[0])
        assert lines[1] == "# diverged_at=2"
        assert lines[2].startswith("t,log_eta_t,")
        assert [row.split(",")[0] for row in lines[3:]] == ["0", "1"]

    @pytest.mark.filterwarnings("ignore:overflow encountered in add:RuntimeWarning")
    def test_adaptive_run_near_the_float_range_reports_its_overflow(self, tmp_path):
        cfg = write_cfg(tmp_path, "command = run\nloss = exp\nstepsize = adaptive:1e308\n"
                                  "steps = 5\ndataset = random:d=10,n=100,gamma=0.1\n")
        assert main(["run", "--config", cfg, "--out", str(tmp_path)]) == 0
        assert json.loads((tmp_path / "trajectory.json").read_text())["diverged_at"] == 4
        lines = (tmp_path / "trajectory.csv").read_text().splitlines()
        assert lines[1] == "# diverged_at=4"
        rows = [row.split(",") for row in lines[3:]]
        assert [row[0] for row in rows] == ["0", "1", "2", "3"]
        assert all(math.isfinite(float(row[3])) for row in rows)  # log_avg_risk

    def test_run_that_does_not_diverge_has_no_diverged_line(self, tmp_path):
        cfg = write_cfg(tmp_path, RUN_CFG.replace("adaptive:100", "constant:1"))
        assert main(["run", "--config", cfg, "--out", str(tmp_path)]) == 0
        assert json.loads((tmp_path / "trajectory.json").read_text())["diverged_at"] is None
        text = (tmp_path / "trajectory.csv").read_text()
        assert "diverged_at" not in text
        assert [ln for ln in text.splitlines() if ln.startswith("#")] == \
            [text.splitlines()[0]]

    def test_poly_run_with_risk_past_2_to_the_53(self, tmp_path):
        # the risk reaches about 1.4e17 after one step, where the inverse's
        # first bracket for poly:1.5 loses its sign change to rounding
        cfg = write_cfg(tmp_path, RUN_CFG.replace("loss = exp", "loss = poly:1.5")
                        .replace("adaptive:100", "constant:2.0068781676649623e21")
                        .replace("steps = 200", "steps = 3"))
        assert main(["run", "--config", cfg, "--out", str(tmp_path)]) == 0
        phis = json.loads((tmp_path / "trajectory.json").read_text())["columns"]["phi"]
        assert len(phis) == 4 and all(math.isfinite(p) for p in phis)

    def test_json_carries_iterates_when_small(self, tmp_path):
        cfg = write_cfg(tmp_path, RUN_CFG)
        main(["run", "--config", cfg, "--out", str(tmp_path)])
        data = json.loads((tmp_path / "trajectory.json").read_text())
        assert data["provenance"]["version"] == __version__
        assert data["dataset"]["n"] == 100
        assert len(data["columns"]["log_avg_risk"]) == 201
        assert len(data["iterates"]) == 201
        assert len(data["iterates"][0]) == 10
        assert data["diverged_at"] is None

    def test_iterates_keep_the_per_element_float_encoding(self, tmp_path):
        # trajectory.json must stay byte-identical to the encoding that
        # wrote each coordinate as float(v)
        cfg = write_cfg(tmp_path, RUN_CFG)
        assert main(["run", "--config", cfg, "--out", str(tmp_path)]) == 0
        text = (tmp_path / "trajectory.json").read_text()
        ds = gen_random_separable(10, 100, 0.1, seed=7)
        traj = run_gd(ds, GDConfig(loss=EXP.with_n(ds.n), eta=100.0, steps=200))
        data = json.loads(text)
        data["iterates"] = [[float(v) for v in w] for w in traj.columns["w"]]
        data["avg_iterates"] = [[float(v) for v in w] for w in traj.columns["avg_w"]]
        assert json.dumps(data, sort_keys=True) == text

    def test_large_state_json_omits_iterates(self, tmp_path):
        text = (
            "loss = exp\nstepsize = adaptive:4\nsteps = 250\n"
            "dataset = random:d=5001,n=10,gamma=0.2,seed=0\n"
        )
        cfg = write_cfg(tmp_path, text)
        assert main(["run", "--config", cfg, "--out", str(tmp_path)]) == 0
        data = json.loads((tmp_path / "trajectory.json").read_text())
        assert "iterates" not in data and "avg_iterates" not in data
        assert len(data["columns"]["t"]) == 251

    def test_record_every_thins_rows(self, tmp_path):
        text = RUN_CFG + "record_every = 50\n"
        cfg = write_cfg(tmp_path, text)
        main(["run", "--config", cfg, "--out", str(tmp_path)])
        lines = (tmp_path / "trajectory.csv").read_text().splitlines()
        ts = [int(r.split(",")[0]) for r in lines[2:]]
        assert ts == [0, 50, 100, 150, 200]

    def test_seed_flag_overrides_config_seed(self, tmp_path):
        text = (
            "loss = exp\nstepsize = adaptive:4\nsteps = 5\n"
            "dataset = random:d=4,n=20,gamma=0.1\nseed = 3\n"
        )
        cfg = write_cfg(tmp_path, text)
        outs = {}
        for tag, args in {
            "cfgseed": [],
            "same": ["--seed", "3"],
            "other": ["--seed", "4"],
        }.items():
            out = tmp_path / tag
            main(["run", "--config", cfg, "--out", str(out)] + args)
            body = (out / "trajectory.csv").read_text().splitlines()[1:]
            outs[tag] = body
        assert outs["cfgseed"] == outs["same"]
        assert outs["cfgseed"] != outs["other"]

    def test_file_dataset_reproduces_generator_run(self, tmp_path):
        gen_cfg = write_cfg(
            tmp_path, "dataset = random:d=10,n=100,gamma=0.1,seed=7\n", "g.cfg")
        main(["gen", "--config", gen_cfg, "--out", str(tmp_path)])
        file_run = RUN_CFG.replace(
            "random:d=10,n=100,gamma=0.1,seed=7",
            f"file:{tmp_path / 'dataset.txt'}",
        )
        cfg_a = write_cfg(tmp_path, RUN_CFG, "a.cfg")
        cfg_b = write_cfg(tmp_path, file_run, "b.cfg")
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        assert main(["run", "--config", cfg_a, "--out", str(out_a)]) == 0
        assert main(["run", "--config", cfg_b, "--out", str(out_b)]) == 0
        rows_a = (out_a / "trajectory.csv").read_text().splitlines()[1:]
        rows_b = (out_b / "trajectory.csv").read_text().splitlines()[1:]
        assert rows_a == rows_b

    def test_corrupt_dataset_file_is_a_config_error(self, tmp_path, capsys):
        bad = tmp_path / "ds.txt"
        bad.write_text("not a dataset\n")
        text = RUN_CFG.replace(
            "random:d=10,n=100,gamma=0.1,seed=7", f"file:{bad}")
        cfg = write_cfg(tmp_path, text)
        assert main(["run", "--config", cfg, "--out", str(tmp_path)]) == 2
        assert "bad dataset file" in capsys.readouterr().err

    @pytest.mark.parametrize("body,why", list(BAD_DATASET_FILES.values()),
                             ids=list(BAD_DATASET_FILES))
    def test_malformed_dataset_file_exits_2(self, tmp_path, capsys, body, why):
        bad = tmp_path / "ds.txt"
        bad.write_bytes(body if isinstance(body, bytes) else body.encode())
        text = RUN_CFG.replace(
            "random:d=10,n=100,gamma=0.1,seed=7", f"file:{bad}")
        cfg = write_cfg(tmp_path, text)
        assert main(["run", "--config", cfg, "--out", str(tmp_path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"config error: bad dataset file {bad}: ") and why in err
        assert err.count(str(bad)) == 1
        assert "Traceback" not in err
        assert not (tmp_path / "trajectory.csv").exists()

    def test_well_formed_files_of_every_generator_load(self, tmp_path):
        for source in ("random:d=4,n=9,gamma=0.2", "two-point:gamma=0.05",
                       "batch-hard:gamma=0.1,n=64", "online-hard:gamma=0.4,n=10",
                       "chain-hard:gamma=0.01,n=20"):
            cfg = write_cfg(tmp_path, f"dataset = {source}\n")
            assert main(["gen", "--config", cfg, "--out", str(tmp_path)]) == 0
            load_dataset(tmp_path / "dataset.txt")


class TestRunNNCommand:
    def test_trajectory_csv_shape(self, tmp_path):
        text = (
            "dataset = random:d=10,n=50,gamma=0.2,seed=1\n"
            "loss = exp\nstepsize = adaptive:8\nsteps = 40\n"
            "width = 4\nactivation = leakyrelu:0.5\n"
        )
        cfg = write_cfg(tmp_path, text)
        assert main(["run-nn", "--config", cfg, "--out", str(tmp_path)]) == 0
        lines = (tmp_path / "trajectory_nn.csv").read_text().splitlines()
        assert PROVENANCE_RE.match(lines[0])
        assert lines[1].startswith("# activation=leakyrelu:0.5 alpha=0.5 kappa=0")
        assert lines[2] == ("t,log_eta_t,log_risk,min_log_risk,min_risk_t,phi,"
                            "min_margin,descent_violated")
        assert len(lines) == 3 + 41
        # min over k <= t of log risk is nonincreasing along the rows
        mins = [float(r.split(",")[3]) for r in lines[3:]]
        assert all(b <= a + 1e-15 for a, b in zip(mins, mins[1:]))

    def test_width_that_cannot_be_allocated_is_a_config_error(self, tmp_path, capsys):
        # 10^15 x 5 float64 weights are 36 PiB, past any 64-bit host's
        # address space whatever its overcommit setting
        width = 10**15
        text = ("dataset = random:d=5,n=20,gamma=0.1\nloss = exp\nstepsize = adaptive:1\n"
                f"steps = 3\nwidth = {width}\nactivation = leakyrelu:0.5\n")
        cfg = write_cfg(tmp_path, text)
        out = tmp_path / "out"
        assert main(["run-nn", "--config", cfg, "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err == ("config error: network run does not fit in memory "
                       f"(an array of shape ({width}, 5))\n")
        assert list(out.iterdir()) == []

    def test_negative_seed_runs_where_nothing_is_drawn(self, tmp_path):
        text = ("dataset = two-point:gamma=0.05\nloss = exp\nstepsize = adaptive:1\n"
                "steps = 3\nwidth = 2\nactivation = leakyrelu:0.5\n")
        cfg = write_cfg(tmp_path, text)
        assert main(["run-nn", "--config", cfg, "--out", str(tmp_path), "--seed", "-5"]) == 0
        first = (tmp_path / "trajectory_nn.csv").read_text().splitlines()[0]
        assert PROVENANCE_RE.match(first) and first.endswith(" seed=-5")


class TestPerceptronCommand:
    def test_cyclic_matches_library_run(self, tmp_path):
        text = "dataset = online-hard:gamma=0.4,n=10\nsteps = 10\n"
        cfg = write_cfg(tmp_path, text)
        assert main(["perceptron", "--config", cfg, "--out", str(tmp_path)]) == 0
        lines = (tmp_path / "mistakes.csv").read_text().splitlines()
        assert PROVENANCE_RE.match(lines[0])

        spec = parse_dataset_source("online-hard:gamma=0.4,n=10")
        ds = make_dataset(spec, 0)
        run = run_perceptron(ds, cyclic_order(ds.n_rows, 10))
        sep = "none" if run.separated_at is None else str(run.separated_at)
        assert lines[1] == f"# separated_at={sep} total_mistakes={run.total_mistakes}"
        assert lines[2] == "t,mistakes"
        got = [tuple(map(int, r.split(","))) for r in lines[3:]]
        assert got == [(t, int(c)) for t, c in enumerate(run.mistakes)]

    def test_order_file_is_respected(self, tmp_path):
        order = [0, 0, 3, 2, 1, 4]
        order_path = tmp_path / "order.txt"
        order_path.write_text(" ".join(map(str, order)) + "\n")
        text = (
            "dataset = online-hard:gamma=0.4,n=10\n"
            f"order = file:{order_path}\n"
        )
        cfg = write_cfg(tmp_path, text)
        assert main(["perceptron", "--config", cfg, "--out", str(tmp_path)]) == 0
        lines = (tmp_path / "mistakes.csv").read_text().splitlines()
        assert len(lines) == 3 + len(order) + 1

        ds = make_dataset(parse_dataset_source("online-hard:gamma=0.4,n=10"), 0)
        run = run_perceptron(ds, np.array(order))
        got = [int(r.split(",")[1]) for r in lines[3:]]
        assert got == [int(c) for c in run.mistakes]

    def test_steps_with_an_order_file_is_a_config_error(self, tmp_path, capsys):
        # the 13 indices of the file fix the run's length, which steps = 3 contradicts
        order_path = tmp_path / "order.txt"
        order_path.write_text(" ".join(str(i % 10) for i in range(13)) + "\n")
        text = (
            "dataset = online-hard:gamma=0.4,n=10\n"
            f"order = file:{order_path}\n"
            "steps = 3\n"
        )
        cfg = write_cfg(tmp_path, text)
        assert main(["perceptron", "--config", cfg, "--out", str(tmp_path)]) == 2
        err = capsys.readouterr().err
        assert err == "config error: line 3: the order file fixes the length; drop steps\n"
        assert not (tmp_path / "mistakes.csv").exists()

    def test_out_of_range_order_file_is_a_config_error(self, tmp_path, capsys):
        order_path = tmp_path / "order.txt"
        order_path.write_text("0 99\n")
        text = (
            "dataset = online-hard:gamma=0.4,n=10\n"
            f"order = file:{order_path}\n"
        )
        cfg = write_cfg(tmp_path, text)
        assert main(["perceptron", "--config", cfg, "--out", str(tmp_path)]) == 2
        assert "indices outside" in capsys.readouterr().err

    def test_non_utf8_order_file_is_a_config_error(self, tmp_path, capsys):
        order_path = tmp_path / "order.txt"
        order_path.write_bytes(NOT_UTF8)
        text = (
            "dataset = online-hard:gamma=0.4,n=10\n"
            f"order = file:{order_path}\n"
        )
        cfg = write_cfg(tmp_path, text)
        out = tmp_path / "out"
        assert main(["perceptron", "--config", cfg, "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"config error: order file {order_path} is not UTF-8")
        assert "Traceback" not in err
        assert not (out / "mistakes.csv").exists()

    @pytest.mark.parametrize("order", ["cyclic", "random:3"])
    def test_order_that_cannot_be_allocated_is_a_config_error(self, order, tmp_path, capsys):
        # 10^15 int64 indices are 7.1 PiB, past any 64-bit host's address
        # space whatever its overcommit setting
        steps = 10**15
        text = f"dataset = online-hard:gamma=0.1,n=10\norder = {order}\nsteps = {steps}\n"
        cfg = write_cfg(tmp_path, text)
        out = tmp_path / "out"
        assert main(["perceptron", "--config", cfg, "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err == ("config error: perceptron run does not fit in memory "
                       f"(an array of shape ({steps},))\n")
        assert list(out.iterdir()) == []

    def test_negative_order_seed_is_a_config_error(self, tmp_path, capsys):
        text = "dataset = online-hard:gamma=0.4,n=10\norder = random:-1\nsteps = 10\n"
        cfg = write_cfg(tmp_path, text)
        out = tmp_path / "out"
        assert main(["perceptron", "--config", cfg, "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err == "config error: line 2: order seed must be >= 0, got -1\n"
        assert not out.exists()


class TestVerifyCommand:
    def test_exit_one_table_and_reports(self, tmp_path, capsys):
        rc = main(["verify", "--out", str(tmp_path)])
        captured = capsys.readouterr()
        # the default suite has known-red rows, so the command reports failure
        assert rc == 1
        assert "5 of 21 checks failed" in captured.out
        data = json.loads((tmp_path / "reports.json").read_text())
        assert data["provenance"]["version"] == __version__
        assert len(data["reports"]) == 21
        verdicts = {r["verdict"] for r in data["reports"]}
        assert verdicts == {"pass", "fail"}

    @pytest.mark.parametrize("how", ["flag", "config"])
    def test_negative_seed_is_a_config_error(self, how, tmp_path, capsys):
        """The suite draws its probes from the seed: a negative one is
        refused before any check runs."""
        args = ["verify", "--out", str(tmp_path)]
        if how == "flag":
            args += ["--seed", "-1"]
        else:
            args += ["--config", write_cfg(tmp_path, "seed = -1\n")]
        assert main(args) == 2
        captured = capsys.readouterr()
        assert captured.err == "config error: seed must be >= 0 for verify, got -1\n"
        assert captured.out == ""
        assert not (tmp_path / "reports.json").exists()


class TestBenchCommand:
    def test_schema_budget_and_sorting(self, tmp_path):
        text = (
            "gammas = 0.1\nepsilons = 1e-2,1e-12\n"
            "methods = constant,large-adaptive\nmax_steps = 60\n"
        )
        cfg = write_cfg(tmp_path, text)
        assert main(["bench", "--config", cfg, "--out", str(tmp_path)]) == 0
        lines = (tmp_path / "bench.csv").read_text().splitlines()
        assert PROVENANCE_RE.match(lines[0])
        assert lines[1] == "method,gamma,epsilon,steps,wall_time"
        rows = [r.split(",") for r in lines[2:]]
        assert [r[0] for r in rows] == ["constant", "constant",
                                        "large-adaptive", "large-adaptive"]
        # epsilon sorted ascending within a method
        assert [float(r[2]) for r in rows[:2]] == [1e-12, 1e-2]
        by_key = {(r[0], float(r[2])): r[3] for r in rows}
        # constant eta=1 cannot reach 1e-12 within 60 steps
        assert by_key[("constant", 1e-12)] == ">60"
        # large-adaptive hits each target within ~1/gamma^2 steps
        assert int(by_key[("large-adaptive", 1e-2)]) <= 60
        assert int(by_key[("large-adaptive", 1e-12)]) <= 60
        for r in rows:
            float(r[4])  # wall_time column parses

    @pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
    def test_a_diverged_run_is_not_a_run_out_of_steps(self, tmp_path):
        # eta_small = 1e308 overflows the running sum of the iterates within a
        # few steps: its rows name the divergence, not the step budget
        text = "methods = small-adaptive,constant\neta_small = 1e308\nmax_steps = 50\n"
        cfg = write_cfg(tmp_path, text)
        assert main(["bench", "--config", cfg, "--out", str(tmp_path)]) == 0
        rows = [r.split(",") for r in (tmp_path / "bench.csv").read_text().splitlines()[2:]]
        ds = gen_random_separable(10, 100, 0.1, seed=0)
        t = run_gd(ds, GDConfig(loss=EXP.with_n(ds.n), eta=1e308, steps=50)).diverged_at
        assert t is not None and t < 50
        assert [r[3] for r in rows if r[0] == "small-adaptive"] == [f"diverged_at={t}"] * 3
        assert [r[3] for r in rows if r[0] == "constant"] == [">50"] * 3

    def test_perceptron_rows_carry_n(self, tmp_path):
        text = "gammas = 0.2\nmethods = perceptron\nmax_steps = 2000\nn = 40\n"
        cfg = write_cfg(tmp_path, text)
        main(["bench", "--config", cfg, "--out", str(tmp_path)])
        row = (tmp_path / "bench.csv").read_text().splitlines()[2].split(",")
        assert row[0] == "perceptron"
        assert row[2] == "40"
        assert row[3] != ">2000"  # cyclic passes separate gamma=0.2, n=40

    def test_perceptron_order_that_cannot_be_allocated_is_a_config_error(self, tmp_path,
                                                                         capsys):
        # 10^15 int64 indices are 7.1 PiB, past any 64-bit host's address
        # space whatever its overcommit setting
        steps = 10**15
        cfg = write_cfg(tmp_path, f"methods = perceptron\nmax_steps = {steps}\n")
        out = tmp_path / "out"
        assert main(["bench", "--config", cfg, "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err == ("config error: perceptron run does not fit in memory "
                       f"(an array of shape ({steps},))\n")
        assert list(out.iterdir()) == []

    # epsilon >= e^{gamma^2} makes eta <= 0; gamma^2 underflowing to 0 divides
    # by zero; 1/gamma^2 overflowing to inf makes eta inf
    @pytest.mark.parametrize("text, line, gamma, epsilon", [
        ("epsilons = 1.0101\n", 1, "0.1", "1.0101"),
        ("methods = large-adaptive\ngammas = 1e-200\n", 2, "1e-200", "0.01"),
        ("gammas = 1e-160\nmethods = large-adaptive\n", 1, "1e-160", "0.01")],
        ids=["epsilon-above-e^gamma^2", "gamma-squared-underflows", "eta-overflows"])
    def test_a_large_adaptive_eta_that_is_no_positive_finite_float_is_a_config_error(
            self, text, line, gamma, epsilon, tmp_path, capsys):
        cfg = write_cfg(tmp_path, text)
        out = tmp_path / "out"
        assert main(["bench", "--config", cfg, "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith(
            f"config error: line {line}: large-adaptive eta = 4 ln(1/epsilon)/gamma^2 + 4 "
            f"is not a positive finite float at gamma {gamma}, epsilon {epsilon}\n")
        assert "Traceback" not in err
        assert not out.exists()  # refused when the config parses

    def test_methods_without_large_adaptive_take_any_epsilon(self, tmp_path):
        cfg = write_cfg(tmp_path, "epsilons = 1.0101\nmethods = constant\nmax_steps = 5\n")
        assert main(["bench", "--config", cfg, "--out", str(tmp_path)]) == 0

    def test_gammas_share_nothing_but_the_config(self, tmp_path):
        # one dataset and one shared run per (method, gamma): a two-gamma grid
        # gives the rows of its two one-gamma grids, apart from wall_time
        base = "epsilons = 1e-2\nmethods = small-adaptive,perceptron\nmax_steps = 400\n"
        strip = lambda r: r.rsplit(",", 1)[0]  # noqa: E731
        rows = {}
        for name, gammas in (("both", "0.05,0.1"), ("g1", "0.05"), ("g2", "0.1")):
            cfg = write_cfg(tmp_path, f"gammas = {gammas}\n" + base, f"{name}.cfg")
            assert main(["bench", "--config", cfg, "--out", str(tmp_path / name)]) == 0
            lines = (tmp_path / name / "bench.csv").read_text().splitlines()[2:]
            rows[name] = [strip(r) for r in lines]
        assert len(rows["both"]) == 4
        assert sorted(rows["both"]) == sorted(rows["g1"] + rows["g2"])

    def test_rows_match_a_full_run_per_cell(self, tmp_path):
        # the old rule: a full max_steps run per (method, gamma, epsilon) cell,
        # then a scan for the first t >= 1 with log avg risk <= ln epsilon
        gammas, epsilons, max_steps, d, n = (0.1, 0.3), (0.3, 1e-3, 1e-9), 300, 5, 30
        text = (f"gammas = {gammas[0]},{gammas[1]}\n"
                f"epsilons = {','.join(map(repr, epsilons))}\n"
                f"max_steps = {max_steps}\nd = {d}\nn = {n}\nloss = log\n"
                "eta_constant = 2\neta_small = 3\n")
        cfg = write_cfg(tmp_path, text)
        assert main(["bench", "--config", cfg, "--out", str(tmp_path), "--seed", "4"]) == 0
        lines = (tmp_path / "bench.csv").read_text().splitlines()[2:]
        got = [r.rsplit(",", 1)[0] for r in lines]

        want = []
        loss = LOG.with_n(n)
        for gamma in gammas:
            ds = gen_random_separable(d, n, gamma, seed=4)
            run = run_perceptron(ds, cyclic_order(ds.n_rows, max_steps))
            sep = run.separated_at
            want.append(("perceptron", gamma, float(n), str(n),
                         f">{max_steps}" if sep is None else str(sep)))
            for eps in epsilons:
                for method, mode, eta in (
                        ("constant", "constant", 2.0),
                        ("small-adaptive", "adaptive", 3.0),
                        ("large-adaptive", "adaptive",
                         4.0 * math.log(1.0 / eps) / gamma**2 + 4.0)):
                    traj = run_gd(ds, GDConfig(loss=loss, eta=eta, steps=max_steps,
                                               mode=mode))
                    hit = next((t for t, log in zip(traj.columns["t"],
                                                    traj.columns["log_avg_risk"], strict=True)
                                if t >= 1 and log <= math.log(eps)), None)
                    want.append((method, gamma, eps, f"{eps:.17g}",
                                 f">{max_steps}" if hit is None else str(hit)))
        want.sort(key=lambda r: r[:3])
        assert got == [f"{m},{g:.17g},{e},{s}" for m, g, _, e, s in want]
        steps = {r.split(",")[-1] for r in got}
        assert f">{max_steps}" in steps and len(steps) > 4  # hits and misses
