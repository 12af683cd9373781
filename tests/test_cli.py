import hashlib
import importlib.util
import json
import os
import shutil
import subprocess
import sys
import warnings
from datetime import date, timedelta
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from multifract import cli, mfdfa
from multifract.cli import (
    EXIT_CONFIG,
    EXIT_DATA,
    EXIT_NUMERIC,
    EXIT_OK,
    RunConfig,
    compare_orders,
    main,
    parse_synth_spec,
    run_pipeline,
    synth_series,
)
from multifract.ingest import load_price_csv, log_returns
from multifract.surrogate import IaaftConfig, derive_seed, iaaft
from multifract.synth import CascadeSpec, binomial_cascade


class TestSynthSpecParsing:
    def test_kind_only(self):
        assert parse_synth_spec("noise") == ("noise", {"n": 16384, "seed": 0})

    def test_params(self):
        kind, params = parse_synth_spec("cascade:levels=12,p=0.3,seed=1")
        assert kind == "cascade"
        assert params == {"levels": 12, "p": 0.3, "seed": 1}

    def test_series_kinds(self):
        cascade, _ = synth_series("cascade:levels=10,p=0.3")
        assert len(cascade) == 1024 and abs(cascade.sum() - 1.0) < 1e-12
        fbm_inc, _ = synth_series("fbm:n=1024,hurst=0.7,seed=2")
        assert len(fbm_inc) == 1024
        noise, _ = synth_series("noise:n=500,seed=1")
        assert len(noise) == 500

    def test_unknown_kind(self):
        with pytest.raises(ValueError):
            synth_series("brownian:n=10")

    def test_cascade_seed_shuffles(self):
        one, _ = synth_series("cascade:levels=8,p=0.3,seed=1")
        two, _ = synth_series("cascade:levels=8,p=0.3,seed=2")
        again, _ = synth_series("cascade:levels=8,p=0.3,seed=1")
        assert not np.array_equal(one, two)
        assert np.array_equal(one, again)
        assert np.array_equal(np.sort(one), np.sort(two))

    def test_unseeded_cascade_is_deterministic(self):
        masses, _ = synth_series("cascade:levels=8,p=0.3")
        assert np.array_equal(masses, binomial_cascade(CascadeSpec(8, 0.3)))


class TestRunConfig:
    def test_requires_input_or_synth(self):
        with pytest.raises(ValueError):
            RunConfig()

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

    def test_incomplete_marker_left_on_failure(self, tmp_path):
        out = tmp_path / "run"
        # default s_max=316 exceeds N/4 for a 512-point series, a data fault
        # found once the series is loaded, inside the run directory
        code = main(["analyze", "--synth", "noise:n=512,seed=1",
                     "--surrogates", "4", "--out", str(out)])
        assert code == EXIT_DATA
        assert (out / "INCOMPLETE").exists()
        assert not (out / "manifest.json").exists()


class TestSynthCommand:
    def test_round_trip_through_csv_loader(self, tmp_path):
        path = tmp_path / "prices.csv"
        assert main(["synth", "--kind", "noise", "--n", "512",
                     "--seed", "3", "--out", str(path)]) == EXIT_OK
        series = load_price_csv(path, "date", "value")
        assert len(series) == 513
        recovered = log_returns(series).values
        expected, _ = synth_series("noise:n=512,seed=3")
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
        seeded, _ = synth_series("cascade:levels=8,p=0.3,seed=4")
        np.testing.assert_allclose(recovered("--seed", "4"), seeded, atol=1e-12)
        assert not np.allclose(seeded, unseeded)

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


class TestSpectrumCommand:
    def test_spectrum_only(self, tmp_path, capsys):
        out = tmp_path / "spec"
        code = main(["spectrum", "--synth", "fbm:n=4096,hurst=0.5,seed=2",
                     "--s-min", "10", "--s-max", "512", "--out", str(out)])
        assert code == EXIT_OK
        assert (out / "spectrum_l1.tsv").exists()
        assert "H(2)=" in capsys.readouterr().out


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
    @pytest.mark.parametrize("flags, env", [
        (["--q-max=inf"], {}), (["--q-min=-inf"], {}), (["--q-max=nan"], {}),
        ([], {"MULTIFRACT_Q_MAX": "inf"}),
    ], ids=["q_max_inf", "q_min_inf", "q_max_nan", "env_q_max_inf"])
    def test_non_finite_q_bounds_rejected_before_output(self, tmp_path, capsys, monkeypatch,
                                                        command, flags, env):
        for name, value in env.items():
            monkeypatch.setenv(name, value)
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

    def test_env_var_defaults(self, tmp_path, monkeypatch):
        monkeypatch.setenv("MULTIFRACT_S_MAX", "128")
        monkeypatch.setenv("MULTIFRACT_S_MIN", "10")
        out = tmp_path / "env"
        code = main(["spectrum", "--synth", "noise:n=512,seed=1",
                     "--out", str(out)])
        assert code == EXIT_OK

    def test_bad_env_default_is_config_error(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setenv("MULTIFRACT_SURROGATES", "abc")
        code = main(["analyze", "--synth", "noise:n=2048", "--out", str(tmp_path / "r")])
        assert code == EXIT_CONFIG
        assert "config error: MULTIFRACT_SURROGATES='abc'" in capsys.readouterr().err

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
            # analyze leaves its INCOMPLETE marker; spectrum leaves nothing
            assert out.exists() == (command[0] == "analyze")

    @pytest.mark.parametrize("tail", [b'"' + b"1" * 140_000 + b'"', b"10\xff1"],
                             ids=["long_field", "not_utf8"])
    def test_loader_faults_are_data_errors(self, tmp_path, capsys, tail):
        # a field past csv's limit and a byte that is not UTF-8
        path = tmp_path / "prices.csv"
        path.write_bytes(b"date,value\n2020-01-01,100\n2020-01-02," + tail + b"\n")
        assert main(["spectrum", "--input", str(path),
                     "--out", str(tmp_path / "r")]) == EXIT_DATA
        assert "data error: line 3:" in capsys.readouterr().err

    def test_zero_s_count_is_config_error(self, tmp_path):
        assert main(["spectrum", "--synth", "noise:n=2048", "--s-count", "0",
                     "--out", str(tmp_path / "r")]) == EXIT_CONFIG

    def test_import_does_not_load_scipy_fft(self):
        # scipy.fft is imported inside iaaft, so commands that never run it
        # do not pay for loading it
        code = ("import sys, multifract.cli as cli; cli.build_parser(); "
                "assert 'scipy.fft' not in sys.modules, 'scipy.fft imported'")
        src = str(Path(cli.__file__).resolve().parents[1])
        subprocess.run([sys.executable, "-c", code], check=True,
                       env=dict(os.environ, PYTHONPATH=src))

    def test_version_flag(self, capsys):
        # argparse's SystemExit is translated into a return code
        assert main(["--version"]) == EXIT_OK
        assert capsys.readouterr().out.strip() == "0.1.0"


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
# and says why.
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
        "report_l1.json": "64bf20006ac7c88f789dd22d25e3db2f2ab347aec82f00fcd77fc8cf5b56b826",
        "report_l2.json": "19569dc635079d488f80cd213020636a9bcd8fa13cf2c9de246be00d37e582db",
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
        "report_l1.json": "cdf13184e4893f5a9823d7e989f2b28c235066f5dca230d7939f18a1578337ad",
        "report_l2.json": "1e940d566601a16be733e9b06f66ecb71850dba99666eff41d66dc8287beff27",
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
    def test_spans_of_an_analyze_run(self, tmp_path):
        # bench/spans.py wraps these names where cli and mfdfa look them up;
        # deleting one, or moving the ensemble's iaaft lookup out of cli, blinds it
        path = Path(__file__).resolve().parents[1] / "bench" / "spans.py"
        spec = importlib.util.spec_from_file_location("bench_spans", path)
        spans = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(spans)
        tracer = spans.Tracer()
        spans.install(tracer, cli, mfdfa)
        try:
            code = main(["analyze", "--synth", "noise:n=2048,seed=1", "--surrogates", "2",
                         "--out", str(tmp_path / "r")])
        finally:
            tracer.restore()
        assert code == EXIT_OK
        assert tracer.failures == []
        metrics = spans.layer_metrics(tracer.spans)
        assert metrics["surrogate.iaaft_calls"] == 2
        assert metrics["surrogate.useful_member_ratio"] == 1.0
        # the observed surface and one per member
        assert metrics["mfdfa.surface_calls"] == 3
        assert [s["name"] for s in tracer.spans].count("cli.run_pipeline") == 1


ENSEMBLE_ARTIFACTS = [
    "surface_l1.tsv", "spectrum_l1.tsv", "ensemble_stats_l1.tsv",
    "delta_alpha_samples_l1.tsv", "delta_f_samples_l1.tsv",
    "report_l1.json", "report_l1.txt",
]


def _pipeline(tmp_path, name, orders, workers=1):
    cfg = RunConfig(synth_spec="noise:n=2048,seed=8", surrogates=6, seed=11,
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
        assert set(timings) == {"load", "mfdfa_l1", "mfdfa_l2", "ensemble"}

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

    def test_manifest_iaaft_block(self, tmp_path):
        block = _manifest_iaaft(_pipeline(tmp_path, "r", (1, 2)))
        values, _ = synth_series("noise:n=2048,seed=8")
        results = [iaaft(values, IaaftConfig(rng_seed=derive_seed(11, i)))
                   for i in range(6)]
        assert block["iterations_total"] == sum(r.iterations for r in results)
        assert sum(block["stop_reasons"].values()) == 6
        residuals = [r.spectrum_residual for r in results]
        assert block["residual_median"] == float(np.median(residuals))
        assert block["residual_max"] == max(residuals)


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
