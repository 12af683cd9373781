import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from multifract import cli
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
        assert parse_synth_spec("noise") == ("noise", {})

    def test_params(self):
        kind, params = parse_synth_spec("cascade:levels=12,p=0.3,shuffle_seed=1")
        assert kind == "cascade"
        assert params == {"levels": "12", "p": "0.3", "shuffle_seed": "1"}

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
        a = {"label": "x", "detrend_order": 1, "verdict": "none",
             "hurst": {"H2": 0.5}, "width_test": {"delta_alpha": 0.1, "p_value": 0.5},
             "spectrum_difference_test": {"delta_f": 0.1, "p_value": 0.5}}
        b = dict(a, label="y")
        from multifract.errors import MultifractError
        with pytest.raises(MultifractError):
            compare_orders(a, b)

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
    def test_unknown_synth_kind(self, tmp_path):
        assert main(["analyze", "--synth", "nope:n=10",
                     "--out", str(tmp_path)]) == EXIT_CONFIG

    def test_missing_input_file(self, tmp_path):
        assert main(["analyze", "--input", str(tmp_path / "missing.csv"),
                     "--out", str(tmp_path / "r")]) == EXIT_DATA

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

    def test_series_short_of_scale_grid_is_data_error(self, tmp_path, capsys):
        path = tmp_path / "prices.csv"
        path.write_text("date,value\n2020-01-01,100\n2020-01-02,101\n2020-01-03,99\n")
        assert main(["analyze", "--input", str(path), "--surrogates", "4",
                     "--out", str(tmp_path / "r")]) == EXIT_DATA
        err = capsys.readouterr().err
        assert "2 returns" in err and "largest scale 316" in err

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
