import concurrent.futures
import hashlib
import importlib.util
import json
import os
import resource
import shlex
import shutil
import subprocess
import sys
import warnings
from dataclasses import fields
from datetime import date, timedelta
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import multifract
from multifract import cli, mfdfa, synth
from multifract.cli import (
    EXIT_CONFIG,
    EXIT_DATA,
    EXIT_NUMERIC,
    EXIT_OK,
    RunConfig,
    compare_orders,
    main,
    run_pipeline,
)
from multifract.errors import AllBoxesDegenerate
from multifract.ingest import load_price_csv, log_returns
from multifract.mftest import width_test_size
from multifract.surrogate import IaaftConfig, derive_seed, iaaft
from multifract.synth import (
    KINDS,
    MAX_POINTS,
    CascadeSpec,
    NoiseSpec,
    binomial_cascade,
    parse_synth_spec,
)


class TestSynthSpecParsing:
    def test_kind_only(self):
        assert parse_synth_spec("noise") == NoiseSpec(n=16384, seed=0)

    def test_params(self):
        assert parse_synth_spec("cascade:levels=12,p=0.3,seed=1") == \
            CascadeSpec(levels=12, p=0.3, seed=1)

    def test_series_kinds(self):
        cascade, _ = parse_synth_spec("cascade:levels=10,p=0.3").series()
        assert len(cascade) == 1024 and abs(cascade.sum() - 1.0) < 1e-12
        fbm_inc, _ = parse_synth_spec("fbm:n=1024,hurst=0.7,seed=2").series()
        assert len(fbm_inc) == 1024
        noise, _ = parse_synth_spec("noise:n=500,seed=1").series()
        assert len(noise) == 500

    def test_unknown_kind(self):
        with pytest.raises(ValueError):
            parse_synth_spec("brownian:n=10")

    def test_uncast_value_names_key_value_and_spec(self):
        with pytest.raises(ValueError) as info:
            parse_synth_spec("noise:n=abc")
        assert str(info.value) == "synth spec 'noise:n=abc': n='abc' is not a valid int"

    def test_cascade_seed_shuffles(self):
        one, _ = parse_synth_spec("cascade:levels=8,p=0.3,seed=1").series()
        two, _ = parse_synth_spec("cascade:levels=8,p=0.3,seed=2").series()
        again, _ = parse_synth_spec("cascade:levels=8,p=0.3,seed=1").series()
        assert not np.array_equal(one, two)
        assert np.array_equal(one, again)
        assert np.array_equal(np.sort(one), np.sort(two))

    def test_unseeded_cascade_is_deterministic(self):
        masses, _ = parse_synth_spec("cascade:levels=8,p=0.3").series()
        assert np.array_equal(masses, binomial_cascade(CascadeSpec(8, 0.3)))


class TestRunConfig:
    def test_requires_input_or_synth(self):
        for given in ({}, {"input_path": "prices.csv", "synth_spec": "noise"}):
            with pytest.raises(ValueError, match="exactly one of an input path and a synth"):
                RunConfig(**given)

    def test_rejects_tiny_ensemble(self):
        with pytest.raises(ValueError):
            RunConfig(synth_spec="noise", surrogates=1)

    def test_rejects_bad_order(self):
        with pytest.raises(ValueError):
            RunConfig(synth_spec="noise", detrend_orders=(3,))

    @pytest.mark.parametrize("step", [0.0, -0.25, float("nan")])
    def test_rejects_non_positive_q_step(self, step):
        with pytest.raises(ValueError):
            RunConfig(synth_spec="noise", q_step=step)

    def test_rejects_scale_grid_short_of_s_count(self):
        with pytest.raises(ValueError, match="round to 8 distinct"):
            RunConfig(synth_spec="noise", s_min=5, s_max=12, s_count=30)

    def test_detrend_orders_sorted_without_repeats(self):
        assert RunConfig(synth_spec="noise", detrend_orders=(2, 1, 1)).detrend_orders == (1, 2)

    def test_analysis_config_grids(self):
        cfg = RunConfig(synth_spec="noise", q_step=0.5, s_min=10, s_max=100)
        acfg = cfg.analysis_config(2)
        assert acfg.detrend_order == 2
        assert acfg.q_grid[0] == -5.0 and acfg.q_grid[-1] == 5.0
        assert acfg.scale_grid[0] == 10 and acfg.scale_grid[-1] == 100


ANALYZE_ARGS = [
    "analyze", "--synth", "noise:n=2048,seed=5",
    "--surrogates", "16", "--seed", "3",
    "--s-min", "10", "--s-max", "256", "--s-count", "12",
]


REPORT = {"label": "x", "detrend_order": 1, "verdict": "none",
          "hurst": {"H2": 0.5}, "width_test": {"delta_alpha": 0.1, "p_value": 0.5},
          "spectrum_difference_test": {"delta_f": 0.1, "p_value": 0.5}}


class TestPipeline:
    def test_analyze_artifacts(self, tmp_path, capsys):
        out = tmp_path / "run"
        assert main(ANALYZE_ARGS + ["--out", str(out)]) == EXIT_OK
        for name in [
            "surface_l1.tsv", "spectrum_l1.tsv", "ensemble_stats_l1.tsv",
            "delta_alpha_samples_l1.tsv", "delta_f_samples_l1.tsv",
            "report_l1.json", "report_l1.txt", "manifest.json",
        ]:
            assert (out / name).exists(), name
        assert not (out / "INCOMPLETE").exists()
        report = json.loads((out / "report_l1.json").read_text())
        assert report["verdict"] in ("intrinsic multifractality", "apparent only", "none")
        assert "Verdict:" in capsys.readouterr().out

    def test_determinism_byte_identical(self, tmp_path):
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        assert main(ANALYZE_ARGS + ["--out", str(out_a)]) == EXIT_OK
        assert main(ANALYZE_ARGS + ["--out", str(out_b)]) == EXIT_OK
        for name in [
            "surface_l1.tsv", "spectrum_l1.tsv", "ensemble_stats_l1.tsv",
            "delta_alpha_samples_l1.tsv", "delta_f_samples_l1.tsv",
            "report_l1.json",
        ]:
            assert (out_a / name).read_bytes() == (out_b / name).read_bytes(), name

    def test_both_orders_and_compare(self, tmp_path, capsys):
        out = tmp_path / "run"
        args = ANALYZE_ARGS + ["--detrend-order", "1", "--detrend-order", "2",
                               "--out", str(out)]
        assert main(args) == EXIT_OK
        assert (out / "report_l2.json").exists()
        assert main(["compare", "--run-dir", str(out),
                     "--out", str(tmp_path / "cmp.txt")]) == EXIT_OK
        text = capsys.readouterr().out
        assert "delta_alpha" in text and "verdicts:" in text
        assert (tmp_path / "cmp.txt").read_text().startswith("Series:")

    def test_compare_missing_reports(self, tmp_path):
        assert main(["compare", "--run-dir", str(tmp_path)]) == EXIT_DATA

    def test_compare_rejects_mixed_labels(self):
        from multifract.errors import DataError
        with pytest.raises(DataError):
            compare_orders(REPORT, dict(REPORT, label="y"))

    def test_incomplete_marker_left_on_failure(self, tmp_path, monkeypatch):
        # the observed series is loaded and analysed before the run directory
        # exists, so the marker covers only faults in the ensemble, the tests
        # and the export; here the ensemble raises
        def failing(*args, **kwargs):
            raise AllBoxesDegenerate()

        monkeypatch.setattr(cli, "ensemble_spectra", failing)
        out = tmp_path / "run"
        code = main(["analyze", "--synth", "noise:n=2048,seed=1",
                     "--surrogates", "4", "--out", str(out)])
        assert code == EXIT_NUMERIC
        assert (out / "INCOMPLETE").exists()
        assert not (out / "manifest.json").exists()

    @pytest.mark.parametrize("command", ["analyze", "spectrum"])
    def test_incomplete_marker_left_on_failed_write(self, tmp_path, command):
        # a directory where spectrum_l1.tsv goes makes the export fail
        out = tmp_path / "run"
        (out / "spectrum_l1.tsv").mkdir(parents=True)
        ensemble = ["--surrogates", "4"] if command == "analyze" else []
        assert main([command, "--synth", "noise:n=2048,seed=1", *ensemble,
                     "--out", str(out)]) == EXIT_DATA
        assert (out / "INCOMPLETE").read_text() == "run did not complete\n"
        assert not (out / "manifest.json").exists()


# every key of every synth kind, with a valid value other than its default:
# half of it, or 1 where the default is 0 or None
SPEC_KEYS = [
    pytest.param(kind, field.name,
                 field.default / 2 if field.type is float else field.default // 2 if field.default else 1,
                 id=f"{kind}-{field.name}")
    for kind, spec in KINDS.items() for field in fields(spec)
]


class TestSynthCommand:
    @pytest.mark.parametrize("kind, key, value", SPEC_KEYS)
    def test_flag_writes_the_series_the_spec_analyses(self, tmp_path, kind, key, value):
        path = tmp_path / "prices.csv"
        assert main(["synth", "--kind", kind, f"--{key}", str(value),
                     "--out", str(path)]) == EXIT_OK
        expected, _ = cli.load_returns(RunConfig(synth_spec=f"{kind}:{key}={value}"))
        assert not np.array_equal(expected, KINDS[kind]().series()[0])
        recovered = log_returns(load_price_csv(path, "date", "value")).values
        np.testing.assert_allclose(recovered, expected, rtol=0, atol=1e-12)

    def test_round_trip_through_csv_loader(self, tmp_path):
        path = tmp_path / "prices.csv"
        assert main(["synth", "--kind", "noise", "--n", "512",
                     "--seed", "3", "--out", str(path)]) == EXIT_OK
        series = load_price_csv(path, "date", "value")
        assert len(series) == 513
        recovered = log_returns(series).values
        expected, _ = parse_synth_spec("noise:n=512,seed=3").series()
        np.testing.assert_allclose(recovered, expected, atol=1e-9)

    def test_cascade_csv(self, tmp_path):
        path = tmp_path / "cascade.csv"
        assert main(["synth", "--kind", "cascade", "--levels", "8",
                     "--out", str(path)]) == EXIT_OK
        assert len(path.read_text().splitlines()) == 258  # header + 257 rows

    def test_cascade_seed_flag(self, tmp_path):
        def recovered(*flags):
            path = tmp_path / "cascade.csv"
            assert main(["synth", "--kind", "cascade", "--levels", "8",
                         *flags, "--out", str(path)]) == EXIT_OK
            return log_returns(load_price_csv(path, "date", "value")).values

        unseeded = binomial_cascade(CascadeSpec(8, 0.3))
        np.testing.assert_allclose(recovered(), unseeded, atol=1e-12)
        seeded, _ = parse_synth_spec("cascade:levels=8,p=0.3,seed=4").series()
        np.testing.assert_allclose(recovered("--seed", "4"), seeded, atol=1e-12)
        assert not np.allclose(seeded, unseeded)

    def test_walk_past_float_range_is_centred(self, tmp_path):
        # this fbm's log prices from ln 100 fall to -911, below the normal floats
        path = tmp_path / "fbm.csv"
        assert main(["synth", "--kind", "fbm", "--n", "16384", "--hurst", "0.7",
                     "--seed", "1", "--out", str(path)]) == EXIT_OK
        series = load_price_csv(path, "date", "value")
        assert np.all(series.values >= np.finfo(float).tiny)
        expected, _ = parse_synth_spec("fbm:n=16384,hurst=0.7,seed=1").series()
        np.testing.assert_allclose(log_returns(series).values, expected, atol=1e-9)

    def test_walk_too_wide_for_float_prices_is_config_error(self, tmp_path, capsys):
        out = tmp_path / "sub"
        assert main(["synth", "--kind", "noise", "--n", str(2 ** 20),
                     "--out", str(out / "noise.csv")]) == EXIT_CONFIG
        assert "n = 1048576 returns span 1447" in capsys.readouterr().err
        assert not out.exists()

    def test_flag_the_kind_does_not_take_is_config_error(self, tmp_path, capsys):
        path = tmp_path / "noise.csv"
        assert main(["synth", "--kind", "noise", "--hurst", "0.7",
                     "--out", str(path)]) == EXIT_CONFIG
        assert "takes no key 'hurst'" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []

    def test_analyze_reads_synth_file(self, tmp_path):
        path = tmp_path / "prices.csv"
        main(["synth", "--kind", "noise", "--n", "2048", "--seed", "4",
              "--out", str(path)])
        out = tmp_path / "run"
        code = main(["analyze", "--input", str(path), "--value-col", "value",
                     "--surrogates", "8", "--s-min", "10", "--s-max", "256",
                     "--s-count", "10", "--out", str(out)])
        assert code == EXIT_OK
        assert (out / "report_l1.json").exists()


class TestReadmeExamples:
    def test_synth_examples_load(self, tmp_path, monkeypatch, capsys):
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
        commands = [shlex.split(line) for line in readme.splitlines()
                    if line.startswith("multifract synth ")]
        assert len(commands) == 2
        monkeypatch.chdir(tmp_path)
        for argv in commands:
            path = argv[argv.index("--out") + 1]
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                assert main(argv[1:]) == EXIT_OK
                assert main(["spectrum", "--input", path, "--out", f"spec-{path}"]) == EXIT_OK
            assert caught == []
            assert "error" not in capsys.readouterr().err


class TestSpectrumCommand:
    def test_spectrum_only(self, tmp_path, capsys):
        out = tmp_path / "spec"
        code = main(["spectrum", "--synth", "fbm:n=4096,hurst=0.5,seed=2",
                     "--s-min", "10", "--s-max", "512", "--out", str(out)])
        assert code == EXIT_OK
        assert (out / "spectrum_l1.tsv").exists()
        assert not (out / "INCOMPLETE").exists()
        assert "H(2)=" in capsys.readouterr().out

    def test_manifest_times_the_load(self, tmp_path, capsys):
        path = tmp_path / "prices.csv"
        assert main(["synth", "--kind", "noise", "--n", "2048", "--seed", "4",
                     "--out", str(path)]) == EXIT_OK
        out = tmp_path / "spec"
        assert main(["spectrum", "--input", str(path), "--s-min", "10", "--s-max", "256",
                     "--detrend-order", "1", "--detrend-order", "2",
                     "--out", str(out)]) == EXIT_OK
        manifest = json.loads((out / "manifest.json").read_text())
        assert set(manifest["timings_s"]) == {"load", "mfdfa_l1", "mfdfa_l2"}
        assert manifest["timings_s"]["load"] > 0
        assert manifest["input_fingerprint"] == hashlib.sha256(path.read_bytes()).hexdigest()
        assert manifest["config"]["input_path"] == str(path)
        assert manifest["config"]["detrend_orders"] == [1, 2]
        assert not {"surrogates", "seed", "alpha_level", "workers"} & set(manifest["config"])
        assert manifest["version"] == cli.__version__

    def test_fingerprint_hashes_the_whole_file(self, tmp_path):
        path = tmp_path / "big.csv"
        path.write_bytes(bytes(range(256)) * 10_000)  # 2.56 MB, past one read
        assert cli._fingerprint(cli.RunConfig(input_path=str(path))) == \
            hashlib.sha256(path.read_bytes()).hexdigest()


class TestExitCodes:
    @pytest.mark.parametrize("command", ["analyze", "spectrum"])
    @pytest.mark.parametrize("spec", [
        "nope:n=10", "noise:nn=4096", "noise:n=abc", "cascade:levels=8,hurst=0.5",
        "cascade:shuffle_seed=1", "cascade:levels=12,p=0.7", "fbm:n=1000",
    ])
    def test_unknown_synth_kind(self, tmp_path, capsys, command, spec):
        # a bad kind, key, value or range is found before any output is made
        out = tmp_path / "r"
        assert main([command, "--synth", spec, "--out", str(out)]) == EXIT_CONFIG
        assert "config error:" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("command", ["analyze", "spectrum"])
    @pytest.mark.parametrize("flags", [["--q-max=inf"], ["--q-min=-inf"], ["--q-max=nan"]],
                             ids=["q_max_inf", "q_min_inf", "q_max_nan"])
    def test_non_finite_q_bounds_rejected_before_output(self, tmp_path, capsys, command, flags):
        out = tmp_path / "r"
        assert main([command, "--synth", "noise:n=4096", *flags,
                     "--out", str(out)]) == EXIT_CONFIG
        assert "config error: q bounds" in capsys.readouterr().err
        assert not out.exists()

    def test_bad_csv_row_leaves_no_run_directory(self, tmp_path, capsys):
        path = tmp_path / "prices.csv"
        path.write_text("date,value\n2020-01-01,100\n2020-01-02,abc\n")
        out = tmp_path / "r"
        assert main(["analyze", "--input", str(path), "--out", str(out)]) == EXIT_DATA
        assert "data error: line 3:" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("command", ["analyze", "spectrum"])
    def test_input_with_synth_is_config_error(self, tmp_path, capsys, command):
        # one would be analysed and the other fingerprinted in the manifest
        path = tmp_path / "prices.csv"
        path.write_text("date,value\n2020-01-01,100\n2020-01-02,101\n")
        out = tmp_path / "r"
        assert main([command, "--input", str(path), "--synth", "noise:n=4096,seed=1",
                     "--out", str(out)]) == EXIT_CONFIG
        assert "config error: exactly one of" in capsys.readouterr().err
        assert not out.exists()

    def test_missing_input_file(self, tmp_path):
        assert main(["analyze", "--input", str(tmp_path / "missing.csv"),
                     "--out", str(tmp_path / "r")]) == EXIT_DATA

    @pytest.mark.parametrize("command", ["analyze", "spectrum"])
    def test_directory_input_is_data_error(self, tmp_path, capsys, command):
        assert main([command, "--input", str(tmp_path),
                     "--out", str(tmp_path / "r")]) == EXIT_DATA
        assert "data error:" in capsys.readouterr().err

    def test_tiny_ensemble_rejected(self, tmp_path):
        assert main(["analyze", "--synth", "noise:n=2048",
                     "--surrogates", "1", "--out", str(tmp_path)]) == EXIT_CONFIG

    @pytest.mark.parametrize("flags", [["--workers", "0"], ["--alpha-level", "7"],
                                       ["--alpha-level", "0"], ["--alpha-level", "1"]])
    def test_out_of_range_ensemble_flags_rejected(self, tmp_path, flags):
        out = tmp_path / "r"
        assert main(ANALYZE_ARGS + flags + ["--out", str(out)]) == EXIT_CONFIG
        assert not out.exists()

    @pytest.mark.parametrize("command", ["analyze", "spectrum"])
    def test_flag_defaults_are_run_config_defaults(self, command):
        args = cli.build_parser().parse_args([command, "--synth", "noise"])
        assert cli._run_config_from_args(args) == RunConfig(synth_spec="noise")


    @pytest.mark.parametrize("command", ["analyze", "spectrum"])
    @pytest.mark.parametrize("step", ["0", "-0.5"])
    def test_non_positive_q_step_rejected_before_output(self, tmp_path, command, step):
        out = tmp_path / "r"
        assert main([command, "--synth", "noise:n=2048", "--q-step", step,
                     "--out", str(out)]) == EXIT_CONFIG
        assert not out.exists()

    def test_short_scale_grid_rejected_before_output(self, tmp_path, capsys):
        out = tmp_path / "r"
        assert main(["analyze", "--synth", "noise:n=2048", "--s-min", "5",
                     "--s-max", "12", "--s-count", "30", "--out", str(out)]) == EXIT_CONFIG
        assert "round to 8 distinct" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("command", ["analyze", "spectrum"])
    @pytest.mark.parametrize("q_range", [("1", "5"), ("-5", "1")])
    def test_q_grid_without_0_or_2_rejected_before_output(self, tmp_path, command,
                                                          q_range):
        out = tmp_path / "r"
        assert main([command, "--synth", "noise:n=4096", "--q-min", q_range[0],
                     "--q-max", q_range[1], "--out", str(out)]) == EXIT_CONFIG
        assert not out.exists()

    @pytest.mark.parametrize("command", ["analyze", "spectrum"])
    def test_huge_q_range_refused_before_linspace(self, tmp_path, capsys, monkeypatch,
                                                 command):
        # each cap must act on the point count, before any grid is allocated
        real_linspace = np.linspace

        def linspace(start, stop, num=50, **kwargs):
            if num > max(mfdfa.MAX_Q_POINTS, mfdfa.MAX_SCALE_POINTS):
                raise AssertionError(f"np.linspace reached with {num} points")
            return real_linspace(start, stop, num, **kwargs)

        monkeypatch.setattr(np, "linspace", linspace)
        for flags, message in [
            (["--q-max", "1e12"], "give 4000000000021 points, more than 1001"),
            (["--s-count", "1000000000"], "s count 1000000000 is more than 1001"),
            (["--s-count", "1001"],
             "scales 20..316 round to 297 distinct integers at most, fewer than s count 1001"),
            (["--s-max", "10000000000000000000"],
             "s max 10000000000000000000 is above 2**53 = 9007199254740992"),
            # a range that holds 10^9 integer scales
            (["--s-max", "9007199254740992", "--s-count", "1000000000"],
             "s count 1000000000 is more than 1001"),
        ]:
            out = tmp_path / "-".join(flags).lstrip("-")
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                code = main([command, "--synth", "noise:n=4096", *flags, "--out", str(out)])
            assert code == EXIT_CONFIG
            assert message in capsys.readouterr().err
            assert not out.exists()

    def test_bad_detrend_order_rejected_before_output(self, tmp_path, capsys):
        out = tmp_path / "r"
        assert main(ANALYZE_ARGS + ["--detrend-order", "3", "--out", str(out)]) == EXIT_CONFIG
        assert "detrend_order must be 1 or 2" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("command", ["analyze", "spectrum"])
    @pytest.mark.parametrize("step", ["1", "2"])
    def test_q_grid_short_of_quadratic_fit_rejected_before_output(self, tmp_path, capsys,
                                                                  command, step):
        out = tmp_path / "r"
        extra = ["--surrogates", "4"] if command == "analyze" else []
        assert main([command, "--synth", "noise:n=4096", "--q-min", "0", "--q-max", "2",
                     "--q-step", step, *extra, "--out", str(out)]) == EXIT_CONFIG
        assert "the 4 points the quadratic tau(q) fit needs" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("command", [["analyze", "--surrogates", "4"], ["spectrum"]])
    def test_constant_prices_are_data_error(self, tmp_path, capsys, command):
        path = tmp_path / "flat.csv"
        days = (date(2000, 1, 1) + timedelta(days=i) for i in range(3000))
        path.write_text("date,value\n" + "".join(f"{day},100\n" for day in days))
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code = main(command + ["--input", str(path), "--out", str(tmp_path / "r")])
        assert code == EXIT_DATA and caught == []
        assert "every return is zero" in capsys.readouterr().err

    @pytest.mark.parametrize("command", [["analyze", "--surrogates", "4"], ["spectrum"]])
    def test_flat_profile_is_data_error(self, tmp_path, capsys, command):
        # 100, then 200 every day after: the returns are [ln 2, 0, 0, ...]
        path = tmp_path / "step.csv"
        days = [date(2000, 1, 1) + timedelta(days=i) for i in range(5000)]
        path.write_text("date,value\n" + "".join(f"{day},{200 if i else 100}\n"
                                                 for i, day in enumerate(days)))
        out = tmp_path / "r"
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code = main(command + ["--input", str(path), "--out", str(out)])
        assert code == EXIT_DATA and caught == []
        assert "every return is zero after the first" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("command", [["analyze", "--surrogates", "4"], ["spectrum"]])
    def test_every_box_below_floor_leaves_no_run_directory(self, tmp_path, capsys, command):
        # geometric prices: a log return of 0.01 every day, so the profile is
        # a line and every detrended box is rounding noise below the floor
        path = tmp_path / "geometric.csv"
        days = (date(2000, 1, 1) + timedelta(days=i) for i in range(3000))
        path.write_text("date,value\n" + "".join(f"{day},{100 * np.exp(0.01 * i):.17g}\n"
                                                 for i, day in enumerate(days)))
        out = tmp_path / "r"
        assert main(command + ["--input", str(path), "--out", str(out)]) == EXIT_NUMERIC
        assert "numeric failure:" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("command", [["analyze", "--surrogates", "4"], ["spectrum"]])
    def test_constant_returns_are_data_error(self, tmp_path, capsys, command):
        # every cell of an unshuffled p = 0.5 cascade is 2^-11, so the profile
        # is a ramp that each box's fit removes
        out = tmp_path / "r"
        assert main(command + ["--synth", "cascade:levels=11,p=0.5",
                               "--out", str(out)]) == EXIT_DATA
        assert capsys.readouterr().err == (
            "data error: every return is 0.00048828125: the profile is a straight line, "
            "which every detrend order removes\n")
        assert not out.exists()

    def test_observed_series_profiled_and_checked_once(self, tmp_path, monkeypatch):
        calls = {"make_profile": 0, "validate_profile": 0}

        def counted(module, name):
            original = getattr(module, name)

            def wrapper(*args, **kwargs):
                calls[name] += 1
                return original(*args, **kwargs)
            monkeypatch.setattr(module, name, wrapper)

        counted(cli, "make_profile")
        counted(mfdfa, "make_profile")
        counted(mfdfa.AnalysisConfig, "validate_profile")
        assert main(["spectrum", "--synth", "noise:n=2048,seed=1", "--detrend-order", "1",
                     "--detrend-order", "2", "--out", str(tmp_path / "r")]) == EXIT_OK
        assert calls == {"make_profile": 1, "validate_profile": 2}

    @pytest.mark.parametrize("texts", [
        ("{}", "{}"), ("[1]", "[1]"), ('{"label": "x"', '{"label": "x"'),
        (json.dumps(REPORT), json.dumps(dict(REPORT, label="y"))),
    ], ids=["empty_object", "list", "truncated", "mixed_labels"])
    def test_malformed_compare_input_is_data_error(self, tmp_path, capsys, texts):
        for order, text in zip((1, 2), texts):
            (tmp_path / f"report_l{order}.json").write_text(text)
        assert main(["compare", "--run-dir", str(tmp_path)]) == EXIT_DATA
        assert "data error:" in capsys.readouterr().err

    def test_series_short_of_scale_grid_is_data_error(self, tmp_path, capsys):
        path = tmp_path / "prices.csv"
        path.write_text("date,value\n2020-01-01,100\n2020-01-02,101\n2020-01-03,99\n")
        for command in (["analyze", "--surrogates", "4"], ["spectrum"]):
            out = tmp_path / command[0]
            assert main(command + ["--input", str(path), "--out", str(out)]) == EXIT_DATA
            err = capsys.readouterr().err
            assert "2 returns" in err and "largest scale 316" in err
            assert not out.exists()

    @pytest.mark.parametrize("tail", [b'"' + b"1" * 140_000 + b'"', b"10\xff1"],
                             ids=["long_field", "not_utf8"])
    def test_loader_faults_are_data_errors(self, tmp_path, capsys, tail):
        # a field past csv's limit and a byte that is not UTF-8
        path = tmp_path / "prices.csv"
        path.write_bytes(b"date,value\n2020-01-01,100\n2020-01-02," + tail + b"\n")
        assert main(["spectrum", "--input", str(path),
                     "--out", str(tmp_path / "r")]) == EXIT_DATA
        assert "data error: line 3:" in capsys.readouterr().err

    def test_zero_s_count_is_config_error(self, tmp_path, capsys):
        # the H(q) fit needs 3 scales, so 1 or 2 is refused before the load
        for count, message in (("0", "must be positive"), ("1", "has 1 scales"),
                               ("2", "has 2 scales, fewer than the 3")):
            assert main(["spectrum", "--synth", "noise:n=4096", "--s-count", count,
                         "--out", str(tmp_path / "r")]) == EXIT_CONFIG
            assert message in capsys.readouterr().err
            assert not (tmp_path / "r").exists()

    @staticmethod
    def assert_loads_no(package, call, *args):
        # no command loads a scipy module: iaaft loads only pocketfft's
        # extension, from its file; multiprocessing loads only with a pool
        # of workers, and numpy.ma with np.unique, which the scale grid
        # does without
        code = (f"import sys, multifract.cli as cli; {call}; "
                f"loaded = [m for m in sys.modules if (m + '.').startswith({package + '.'!r})]; "
                "assert not loaded, loaded")
        src = str(Path(cli.__file__).resolve().parents[1])
        subprocess.run([sys.executable, "-c", code, *args], check=True,
                       env=dict(os.environ, PYTHONPATH=src), stdout=subprocess.DEVNULL)

    def test_import_does_not_load_scipy_fft(self):
        self.assert_loads_no("scipy", "cli.build_parser()")

    def test_parser_loads_no_logging(self):
        # ingest imports logging only when its row loop skips a row
        self.assert_loads_no("logging", "cli.build_parser()")

    def test_missing_scipy_is_config_error(self, tmp_path, capsys, monkeypatch):
        find_spec = importlib.util.find_spec

        def absent(name, *args):
            return None if name == "scipy" else find_spec(name, *args)

        monkeypatch.setattr(importlib.util, "find_spec", absent)
        out = tmp_path / "r"
        assert main(["analyze", "--synth", "noise:n=2048", "--surrogates", "4",
                     "--out", str(out)]) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert "Traceback" not in err
        assert err == "config error: scipy is not installed: IAAFT runs on its pocketfft extension\n"
        assert not out.exists()

    def test_missing_pocketfft_extension_is_config_error(self, tmp_path, capsys, monkeypatch):
        # found by the extension's lookup before the input is read
        find_spec = importlib.util.find_spec

        def elsewhere(name, *args):
            if name == "scipy":
                return SimpleNamespace(submodule_search_locations=[str(tmp_path / "scipy")])
            return find_spec(name, *args)

        monkeypatch.setattr(importlib.util, "find_spec", elsewhere)
        out = tmp_path / "r"
        assert main(["analyze", "--synth", "noise:n=2048", "--surrogates", "4",
                     "--out", str(out)]) == EXIT_CONFIG
        err = capsys.readouterr().err
        where = tmp_path / "scipy" / "fft" / "_pocketfft"
        assert err.startswith(f"config error: no pypocketfft extension in {where} (scipy ")
        assert "Traceback" not in err and err.count("\n") == 1
        assert not out.exists()

    def test_pool_parent_loads_no_pocketfft(self, tmp_path):
        # the lookup before the run loads nothing: only the workers load the
        # extension and set the heap pad
        code = ("import sys, multifract.cli as cli, multifract.surrogate as surrogate; "
                "assert cli.main(['analyze', '--synth', 'noise:n=2048', '--surrogates', '16', "
                "'--workers', '2', '--out', sys.argv[1]]) == 0; "
                "assert surrogate._pocketfft.cache_info().currsize == 0")
        src = str(Path(cli.__file__).resolve().parents[1])
        subprocess.run([sys.executable, "-c", code, str(tmp_path / "r")], check=True,
                       env=dict(os.environ, PYTHONPATH=src), stdout=subprocess.DEVNULL)

    def test_spectrum_loads_no_scipy(self, tmp_path):
        self.assert_loads_no(
            "scipy",
            "assert cli.main(['spectrum', '--synth', 'noise:n=4096', '--out', sys.argv[1]]) == 0",
            str(tmp_path / "r"))

    @pytest.mark.parametrize("workers", ["1", "2"])
    def test_analyze_loads_no_scipy(self, tmp_path, workers):
        # 16 members are two chunks of 8, so "2" runs a pool of two workers
        self.assert_loads_no(
            "scipy",
            "assert cli.main(['analyze', '--synth', 'noise:n=2048', '--surrogates', '16', "
            f"'--workers', '{workers}', '--out', sys.argv[1]]) == 0",
            str(tmp_path / "r"))

    @pytest.mark.parametrize("call", [
        "cli.build_parser()",
        "assert cli.main(['spectrum', '--synth', 'noise:n=4096', '--out', sys.argv[1]]) == 0",
        "assert cli.main(['analyze', '--synth', 'noise:n=2048', '--surrogates', '4', "
        "'--workers', '1', '--out', sys.argv[1]]) == 0",
    ], ids=["parser", "spectrum", "analyze_one_worker"])
    def test_run_without_a_pool_loads_no_multiprocessing(self, tmp_path, call):
        self.assert_loads_no("multiprocessing", call, str(tmp_path / "r"))

    def test_spectrum_loads_no_numpy_ma(self, tmp_path):
        self.assert_loads_no(
            "numpy.ma",
            "assert cli.main(['spectrum', '--synth', 'noise:n=4096', '--out', sys.argv[1]]) == 0",
            str(tmp_path / "r"))

    @pytest.mark.parametrize("preset, threads", [(None, "1"), ("2", "2")])
    def test_openblas_defaults_to_one_thread(self, preset, threads):
        # set on import of the package, before numpy loads OpenBLAS; a
        # caller's own setting is kept
        env = {k: v for k, v in os.environ.items() if k != "OPENBLAS_NUM_THREADS"}
        if preset:
            env["OPENBLAS_NUM_THREADS"] = preset
        env["PYTHONPATH"] = str(Path(cli.__file__).resolve().parents[1])
        code = "import os, multifract; print(os.environ['OPENBLAS_NUM_THREADS'])"
        out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                             capture_output=True, text=True).stdout
        assert out.strip() == threads

    @pytest.mark.parametrize("command", ["analyze", "spectrum"])
    def test_q_max_below_q_min_names_both_bounds(self, tmp_path, capsys, command):
        out = tmp_path / "r"
        assert main([command, "--synth", "noise:n=4096", "--q-min", "5", "--q-max", "-5",
                     "--out", str(out)]) == EXIT_CONFIG
        assert "config error: q bounds 5.0..-5.0: q max -5.0 is below q min 5.0" in \
            capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("command", ["analyze", "spectrum"])
    def test_s_max_below_s_min_names_both_bounds(self, tmp_path, capsys, command):
        out = tmp_path / "r"
        assert main([command, "--synth", "noise:n=8192", "--s-min", "316", "--s-max", "20",
                     "--out", str(out)]) == EXIT_CONFIG
        assert "config error: scales 316..20: s max 20 is below s min 316" in \
            capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("argv, target, name", [
        (["synth", "--kind", "cascade", "--levels", "80"], synth, "binomial_cascade"),
        (["analyze", "--synth", "cascade:levels=80"], synth, "binomial_cascade"),
        (["spectrum", "--synth", "fbm:n=1099511627776"], synth, "fbm"),
        (["synth", "--kind", "noise", "--n", "100000000000"], np.random, "default_rng"),
        (["spectrum", "--synth", "noise:n=100000000000"], np.random, "default_rng"),
    ])
    def test_huge_generator_refused_before_allocation(self, tmp_path, capsys, monkeypatch,
                                                      argv, target, name):
        # the cap must act on the requested length, before the generator runs
        def reached(*args, **kwargs):
            raise AssertionError(f"{name} reached")

        monkeypatch.setattr(target, name, reached)
        out = tmp_path / "r"
        path = out / "x.csv" if argv[0] == "synth" else out
        assert main(argv + ["--out", str(path)]) == EXIT_CONFIG
        assert f"more than synth.MAX_POINTS = {MAX_POINTS}" in capsys.readouterr().err
        assert not out.exists()

    def test_version_flag(self, capsys):
        # argparse's SystemExit is translated into a return code
        assert main(["--version"]) == EXIT_OK
        assert capsys.readouterr().out.strip() == "0.1.0"

    def test_pyproject_takes_the_package_version(self):
        pyprojecttoml = pytest.importorskip("setuptools.config.pyprojecttoml")
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")  # setuptools calls its [tool] table beta
            config = pyprojecttoml.read_configuration(
                Path(__file__).resolve().parents[1] / "pyproject.toml")
        assert config["project"]["version"] == multifract.__version__

    def test_multifract_environment_is_ignored(self, tmp_path):
        # flags are the only way to set a run; a variable named like a flag
        # changes no command's exit code, output or files
        src = str(Path(cli.__file__).resolve().parents[1])
        base = {k: v for k, v in os.environ.items() if not k.startswith("MULTIFRACT_")}
        commands = [["--version"],
                    ["synth", "--kind", "noise", "--n", "512", "--seed", "3",
                     "--out", "prices.csv"],
                    ["spectrum", "--synth", "noise:n=4096,seed=1", "--out", "spec"]]
        runs = {}
        for name, extra in (("unset", {}),
                            ("set", {"MULTIFRACT_SURROGATES": "abc", "MULTIFRACT_S_MAX": "128"})):
            cwd = tmp_path / name
            cwd.mkdir()
            results = [subprocess.run([sys.executable, "-m", "multifract.cli", *argv],
                                      cwd=cwd, env=dict(base, PYTHONPATH=src, **extra),
                                      capture_output=True, text=True)
                       for argv in commands]
            runs[name] = ([(r.returncode, r.stdout, r.stderr) for r in results],
                          (cwd / "prices.csv").read_bytes(),
                          (cwd / "spec" / "spectrum_l1.tsv").read_bytes())
        assert [code for code, _, _ in runs["unset"][0]] == [EXIT_OK] * 3
        assert runs["set"] == runs["unset"]


class TestRunPipelineApi:
    def test_reports_keyed_by_order(self, tmp_path):
        cfg = RunConfig(synth_spec="noise:n=2048,seed=6", surrogates=4,
                        s_min=10, s_max=256, s_count=10,
                        detrend_orders=(1, 2), out_dir=str(tmp_path / "r"))
        reports = run_pipeline(cfg)
        assert set(reports) == {1, 2}
        assert reports[1].detrend_order == 1
        assert reports[2].detrend_order == 2


# sha256 of each artifact of a run_pipeline run with orders 1 and 2, 16
# surrogates and seed 11, and of the manifest's iaaft block as sorted JSON.
# Captured with numpy 2.4.6 and scipy 1.17.1; a numerics change re-pins them
# and says why. The report_l*.json digests were last re-pinned when the OLS
# p-values moved from scipy.special to mftest's own t and F tails (at most
# 2.7e-14 relative apart here); every other digest is unchanged by that.
GOLDEN_RUNS = {
    "noise:n=4096,seed=1": {
        "surface_l1.tsv": "4dd016a9e82c0e1b99cd667d6a0e6176e530888723c5bf26c6e38e007c61ad89",
        "surface_l2.tsv": "b1d308f58088614d2c8bbc992df3bc5a953940739b17110c52d9011e99ca38b4",
        "spectrum_l1.tsv": "8a2276941c202f112edcc78608f8e5d58a16d7fd84f5456bc94fdfdf68c07ea7",
        "spectrum_l2.tsv": "f8ce16c9c7a660164c0f65f0b67dc65308b9eb9a406be68b0a6931f702b453b3",
        "ensemble_stats_l1.tsv": "2e47d05fd532493bf40d51e2b9cf62ed077983948a47829dcd9c287ce0804752",
        "ensemble_stats_l2.tsv": "07fb8b4cb23120545b0e4530fd38a3990ba0ad5ec9d903338dc6a04f69b61557",
        "delta_alpha_samples_l1.tsv": "f1404a6643afcbc1e50c9ad1fddf78b0d4ff9a4b603aad3376b4a6c53e445128",
        "delta_alpha_samples_l2.tsv": "9a6378856eccab147ca53f2f58e97d56c2a805806ed5c23d935c7eda0d462897",
        "delta_f_samples_l1.tsv": "b378ab314523e98fe827166ad7fbb832e981d7603be7a9190112dd350efc8dfc",
        "delta_f_samples_l2.tsv": "e2e67f294c7d9020ec5544d8e161e95f3d7f56e40d274cc00495cfdcf18b7f8a",
        "report_l1.txt": "beb6a60e6139f6de403dbbd904e5b294adee5822a3adf50872042ae5fda5a1e7",
        "report_l2.txt": "ed15d66517bebf0a316308d83e27cd3c21b4c4fad507f2b98afc1eb01141262c",
        "report_l1.json": "cca090cb31209bacc8e11be39ae4dd6fde19ecebd15f56f07e5b39aa9cb8bd5c",
        "report_l2.json": "671d21655d5dd7e1bbe8b7ee36ea942c4a899d707ff22c53d603785ec0aa9f58",
        "iaaft": "b1116a501fc22b69630ab98c334f732b1c9665aa38f0f46e5cee445c80bb131e",
    },
    "cascade:levels=12,p=0.3,seed=5": {
        "surface_l1.tsv": "5a9e3831ce6a1f60bc0b3d572901e280dc5e06b8ca5b3ca77463e740384fa240",
        "surface_l2.tsv": "4c259f951daf0d0b050877583c9b54e53a9b7bd6d73f92e7e113fd8184a8313e",
        "spectrum_l1.tsv": "76f32c58039feb8881d2a449476fd1f404d924300f62e2e9d830d63f68ad247f",
        "spectrum_l2.tsv": "2d2fec35015a2a2078e1f491cacb9d7a2de88465b559c4c5aedf05e465dd90c3",
        "ensemble_stats_l1.tsv": "ddaa5f01e85cf4dc2d57b58e1a53d8fe860ac930bd25910bbf39062f0c44b464",
        "ensemble_stats_l2.tsv": "6da48bb0130ea136918abf600bf5ff3d8e1302f51eae9022bf73f59b87be460c",
        "delta_alpha_samples_l1.tsv": "6162d86386b989cb17758bc6d7bb163639ac1256c75e31e101ae8d459aeff092",
        "delta_alpha_samples_l2.tsv": "325ee8ac749ade7904731775757a3efd7bc655f7bbfb0e967a8500583d61e4fc",
        "delta_f_samples_l1.tsv": "25fc83f238ed347ed8d6d1be8079eca0a1af9d6fe10c15bbd0ebfdd146828ec0",
        "delta_f_samples_l2.tsv": "11f6e355125f730681dc59aab8fb66d3bdb151989841ac4f9da4d67607ce1137",
        "report_l1.txt": "90dfb737fe3ee5c68a07e9363adb049d531695a4f9135b4e065da73f487ac002",
        "report_l2.txt": "1ec0613bb81d59d76140063b480dd12a1d49d77e318a5c04831ab9fcd7bd1352",
        "report_l1.json": "a9520d133e587ebd0e22c2ce588cdbe0526fdd7a146462c01ceb68bd16d23aeb",
        "report_l2.json": "ac95bd9b2366a78dd8d577ad968efbb2ead6ea19a5f535bb2252a624c7948e53",
        "iaaft": "5f18e6634a122f1b7447eb0819ef1f4dc513edc7e3d3d4d0e0d08005222cf084",
    },
}


class TestGoldenRun:
    @pytest.mark.parametrize("spec", sorted(GOLDEN_RUNS))
    def test_artifact_digests(self, tmp_path, spec):
        run_pipeline(RunConfig(synth_spec=spec, detrend_orders=(1, 2), surrogates=16,
                               seed=11, out_dir=str(tmp_path)))
        digests = {name: hashlib.sha256((tmp_path / name).read_bytes()).hexdigest()
                   for name in GOLDEN_RUNS[spec] if name != "iaaft"}
        iaaft_block = json.dumps(_manifest_iaaft(tmp_path), sort_keys=True)
        digests["iaaft"] = hashlib.sha256(iaaft_block.encode()).hexdigest()
        assert digests == GOLDEN_RUNS[spec]


class TestBenchmarkTraceHooks:
    # bench/spans.py wraps these names where cli and mfdfa look them up;
    # deleting one, or moving the ensemble's iaaft lookup out of cli, blinds it
    @staticmethod
    def traced_main(argv):
        path = Path(__file__).resolve().parents[1] / "bench" / "spans.py"
        spec = importlib.util.spec_from_file_location("bench_spans", path)
        spans = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(spans)
        tracer = spans.Tracer()
        spans.install(tracer, cli, mfdfa)
        try:
            code = main(argv)
        finally:
            tracer.restore()
        assert code == EXIT_OK
        assert tracer.failures == []
        return tracer, spans.layer_metrics(tracer.spans)

    def test_spans_of_an_analyze_run(self, tmp_path):
        tracer, metrics = self.traced_main(["analyze", "--synth", "noise:n=2048,seed=1",
                                            "--surrogates", "2", "--out", str(tmp_path / "r")])
        assert metrics["surrogate.iaaft_calls"] == 2
        assert metrics["surrogate.useful_member_ratio"] == 1.0
        # the observed surface and one per member
        assert metrics["mfdfa.surface_calls"] == 3
        assert [s["name"] for s in tracer.spans].count("cli.run_pipeline") == 1

    def test_spans_of_a_spectrum_run(self, tmp_path):
        # the surface annotation reads the profile's .values
        tracer, metrics = self.traced_main(["spectrum", "--synth", "noise:n=2048,seed=1",
                                            "--detrend-order", "1", "--detrend-order", "2",
                                            "--out", str(tmp_path / "r")])
        assert metrics["mfdfa.surface_calls"] == 2
        assert [s["name"] for s in tracer.spans].count("cli._cmd_spectrum") == 1


ENSEMBLE_ARTIFACTS = [
    "surface_l1.tsv", "spectrum_l1.tsv", "ensemble_stats_l1.tsv",
    "delta_alpha_samples_l1.tsv", "delta_f_samples_l1.tsv",
    "report_l1.json", "report_l1.txt",
]


def _pipeline(tmp_path, name, orders, workers=1, surrogates=6):
    cfg = RunConfig(synth_spec="noise:n=2048,seed=8", surrogates=surrogates, seed=11,
                    s_min=10, s_max=256, s_count=10, detrend_orders=orders,
                    workers=workers, out_dir=str(tmp_path / name))
    run_pipeline(cfg)
    return tmp_path / name


class TestSharedEnsemble:
    def test_one_iaaft_per_member_across_orders(self, tmp_path, monkeypatch):
        seeds = []
        original = cli.iaaft

        def counting(values, cfg):
            seeds.append(cfg.rng_seed)
            return original(values, cfg)

        monkeypatch.setattr(cli, "iaaft", counting)
        out = _pipeline(tmp_path, "r", (1, 2))
        assert len(seeds) == 6 and len(set(seeds)) == 6
        timings = json.loads((out / "manifest.json").read_text())["timings_s"]
        assert set(timings) == {"load", "mfdfa_l1", "mfdfa_l2", "ensemble", "tests", "export"}

    def test_order_artifacts_independent_of_other_orders(self, tmp_path):
        both = _pipeline(tmp_path, "both", (1, 2))
        alone = _pipeline(tmp_path, "alone", (1,))
        for name in ENSEMBLE_ARTIFACTS:
            assert (both / name).read_bytes() == (alone / name).read_bytes(), name

    def test_pool_matches_serial(self, tmp_path):
        serial = _pipeline(tmp_path, "serial", (1, 2))
        pooled = _pipeline(tmp_path, "pooled", (1, 2), workers=2)
        names = ENSEMBLE_ARTIFACTS + [n.replace("_l1", "_l2") for n in ENSEMBLE_ARTIFACTS]
        for name in names:
            assert (serial / name).read_bytes() == (pooled / name).read_bytes(), name
        assert _manifest_iaaft(serial) == _manifest_iaaft(pooled)

    def test_two_worker_pool_matches_serial(self, tmp_path):
        # 9 members are two chunks of at most 8, so the pool gets 2 workers
        serial = _pipeline(tmp_path, "serial", (1,), surrogates=9)
        pooled = _pipeline(tmp_path, "pooled", (1,), workers=2, surrogates=9)
        for name in ENSEMBLE_ARTIFACTS:
            assert (serial / name).read_bytes() == (pooled / name).read_bytes(), name
        assert _manifest_iaaft(serial) == _manifest_iaaft(pooled)

    @pytest.mark.parametrize("workers", [1, 2])
    def test_manifest_records_resources(self, tmp_path, workers):
        # the pool's workers are reaped before the manifest is written, so
        # their faults reach the children's count; a serial run adds none
        before = resource.getrusage(resource.RUSAGE_CHILDREN).ru_minflt
        out = _pipeline(tmp_path, "r", (1,), workers=workers, surrogates=9)
        block = json.loads((out / "manifest.json").read_text())["resources"]
        assert set(block) == {"self", "children"}
        for usage in block.values():
            assert set(usage) == {"minor_faults", "peak_rss_mb"}
        assert block["self"]["minor_faults"] > 0 and block["self"]["peak_rss_mb"] > 0
        assert (block["children"]["minor_faults"] > before) == (workers > 1)

    @pytest.mark.parametrize("size, workers, asked",
                             [(16, 64, 2), (17, 64, 3), (6, 2, 1), (0, 2, 1)])
    def test_pool_has_no_more_workers_than_chunks(self, monkeypatch, size, workers, asked):
        # the executor forks every worker it is given at the first submit;
        # the stand-in records the request and starts no process
        requests = []

        class Refused(Exception):
            pass

        def stand_in(max_workers):
            requests.append(max_workers)
            raise Refused

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", stand_in)
        with pytest.raises(Refused):
            cli.ensemble_spectra(np.zeros(4), size, 0, (), workers=workers)
        assert requests == [asked]

    def test_manifest_iaaft_block(self, tmp_path):
        block = _manifest_iaaft(_pipeline(tmp_path, "r", (1, 2)))
        values, _ = parse_synth_spec("noise:n=2048,seed=8").series()
        results = [iaaft(values, IaaftConfig(rng_seed=derive_seed(11, i)))
                   for i in range(6)]
        assert block["iterations_total"] == sum(r.iterations for r in results)
        assert sum(block["stop_reasons"].values()) == 6
        residuals = [r.spectrum_residual for r in results]
        assert block["residual_median"] == float(np.median(residuals))
        assert block["residual_max"] == max(residuals)


class TestWidthTestSize:
    # with p = k/N and k uniform on 0..N under the null, the width test
    # rejects with probability ceil(alpha N)/(N + 1)
    @pytest.mark.parametrize("surrogates, size, warned", [
        (16, 1 / 17, True), (20, 1 / 21, False),
    ], ids=["n16_warns", "n20_silent"])
    def test_manifest_records_size_and_warns_above_alpha(self, tmp_path, capsys,
                                                          surrogates, size, warned):
        out = tmp_path / "r"
        assert main(["analyze", "--synth", "noise:n=2048,seed=3", "--surrogates",
                     str(surrogates), "--s-min", "10", "--s-max", "256", "--s-count", "10",
                     "--out", str(out)]) == EXIT_OK
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["width_test_size"] == size
        assert len(manifest["warnings"]) == warned
        lines = [line for line in capsys.readouterr().err.splitlines()
                 if line.startswith("warning:")]
        assert len(lines) == warned
        if warned:
            assert f"{size:.4g}" in lines[0] and "0.05" in lines[0]

    # 0.07 * 100 rounds to just above 7, yet k/N < alpha admits only k = 0..6,
    # as the test itself decides
    @pytest.mark.parametrize("n, alpha, size", [
        (1000, 0.05, 50 / 1001), (12, 0.05, 1 / 13), (3, 0.05, 1 / 4), (100, 0.07, 7 / 101),
    ])
    def test_size_formula(self, n, alpha, size):
        assert width_test_size(n, alpha) == pytest.approx(size, rel=1e-15)


def _manifest_iaaft(out):
    return json.loads((out / "manifest.json").read_text())["iaaft"]


CSV_CELLS = st.sampled_from([
    "date", "value", "2000-01-03", "2000-01-04", "03/01/2000", "2000-1-5",
    "2000-W01-1", "100", "101.5", "1,234.5", '"1,234.5"', "1 234.5", "0", "-3",
    "nan", "inf", "", " ", '"', '""', '"a\nb"', "\ufeff", "\x00", "é",
    '"' + "9" * 131_100 + '"',
])


@st.composite
def csv_bytes(draw):
    """Price files with mixed delimiters, quotes, BOMs, long fields and
    bytes that are not UTF-8."""
    delimiter = draw(st.sampled_from([",", ";", "\t", "|"]))
    newline = draw(st.sampled_from(["\n", "\r\n", "\r"]))
    rows = draw(st.lists(st.lists(CSV_CELLS, max_size=4), max_size=8))
    text = newline.join(delimiter.join(row) for row in rows)
    data = (b"\xef\xbb\xbf" if draw(st.booleans()) else b"") + text.encode()
    junk = draw(st.binary(max_size=3))
    at = draw(st.integers(0, len(data)))
    return data[:at] + junk + data[at:]


class TestLoaderFuzz:
    @settings(max_examples=300, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(data=st.one_of(csv_bytes(), st.binary(max_size=64)))
    def test_every_input_maps_to_an_exit_code(self, tmp_path, capsys, data):
        path = tmp_path / "fuzz.csv"
        path.write_bytes(data)
        code = main(["spectrum", "--input", str(path), "--out", str(tmp_path / "r")])
        assert code in (EXIT_OK, EXIT_CONFIG, EXIT_DATA, EXIT_NUMERIC)
        capsys.readouterr()


# values per key, sizes bounded (levels <= 12, n <= 4096) so no draw allocates much
SYNTH_VALUES = {
    "levels": ["0", "1", "8", "12", "-3", "1.5", "abc", ""],
    "n": ["0", "1", "1000", "1024", "4096", "-1", "abc", ""],
    "p": ["0", "0.3", "0.5", "0.7", "nan", "inf", "abc"],
    "hurst": ["0", "0.5", "0.7", "1", "nan", "abc"],
    "seed": ["0", "1", "7", "-1", "1.5", "abc", ""],
    "nn": ["4096"],
    "": ["1"],
}


@st.composite
def synth_specs(draw):
    """--synth specs over known and unknown kinds, keys and values. Each
    starts with a bounded size key, since the defaults (2^16 cascade cells,
    16,384 points) are larger than the bound."""
    kind = draw(st.sampled_from(["cascade", "fbm", "noise", "nope", ""]))
    size = "levels" if kind == "cascade" else "n"
    keys = [size] + draw(st.lists(st.sampled_from(sorted(SYNTH_VALUES)), max_size=3))
    return f"{kind}:" + ",".join(f"{key}={draw(st.sampled_from(SYNTH_VALUES[key]))}"
                                 for key in keys)


class TestSynthSpecFuzz:
    @settings(max_examples=100, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(spec=synth_specs())
    def test_every_spec_maps_to_an_exit_code(self, tmp_path, capsys, spec):
        out = tmp_path / "r"
        shutil.rmtree(out, ignore_errors=True)
        code = main(["spectrum", "--synth", spec, "--out", str(out)])
        assert code in (EXIT_OK, EXIT_CONFIG, EXIT_DATA, EXIT_NUMERIC)
        assert code != EXIT_CONFIG or not out.exists()
        capsys.readouterr()
