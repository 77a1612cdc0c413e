import csv
import datetime as dt
import io
import json

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from farkit import cli, evaluate
from farkit.cli import build_parser, main
from farkit.evaluate import BenchmarkConfig, parse_method
from farkit.preprocess import RollingConfig
from farkit.grid import uniform_grid

HEADER = "date," + ",".join(f"h{i:02d}" for i in range(1, 49))


def read_csv_rows(path):
    return path.read_text().strip().split("\n")


class TestSimulateCommand:
    def test_shape_and_metadata(self, tmp_path):
        out = tmp_path / "sim"
        assert main(["simulate", "--regime", "I", "--n", "100", "--seed", "7",
                     "--out", str(out)]) == 0
        rows = read_csv_rows(out / "sample.csv")
        assert len(rows) == 100
        assert len(rows[0].split(",")) == 101
        meta = json.loads((out / "sample.meta.json").read_text())
        assert meta["schema_version"] == 1
        assert meta["regime"] == "I" and meta["n"] == 100 and meta["seed"] == 7
        assert len(meta["grid_points"]) == 101

    def test_byte_identical_reruns(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        for out in (a, b):
            main(["simulate", "--regime", "II", "--n", "50", "--seed", "3",
                  "--out", str(out)])
        assert (a / "sample.csv").read_bytes() == (b / "sample.csv").read_bytes()

    def test_unknown_regime_fails(self, tmp_path):
        code = main(["simulate", "--regime", "IV", "--n", "10", "--seed", "1",
                     "--out", str(tmp_path / "x")])
        assert code == 2


def spectrum_sample_csv(path, shares, m=12, n=40, seed=5):
    """Sample whose weighted covariance has exactly the given eigenvalue shares."""
    rng = np.random.default_rng(seed)
    g = uniform_grid(m)
    raw = rng.standard_normal((n, m))
    raw -= raw.mean(axis=0)  # columns orthogonal to the constant direction
    u, _ = np.linalg.qr(raw)
    v, _ = np.linalg.qr(rng.standard_normal((m, m)))
    lam = np.zeros(m)
    lam[: len(shares)] = shares
    z = np.sqrt(n) * u[:, :m] * np.sqrt(lam) @ v.T
    values = z / np.sqrt(g.weights)
    path.write_text(
        "\n".join(",".join(repr(float(x)) for x in row) for row in values) + "\n"
    )


class TestFitCommand:
    def test_fpca_threshold_on_known_spectrum(self, tmp_path):
        sample = tmp_path / "sample.csv"
        spectrum_sample_csv(sample, [0.804, 0.091, 0.043, 0.03, 0.012, 0.008, 0.007, 0.005])
        out = tmp_path / "fit"
        assert main(["fit", "--input", str(sample), "--method", "fpca:0.90",
                     "--out", str(out)]) == 0
        meta = json.loads((out / "fit.meta.json").read_text())
        assert meta["tuning"]["k"] == 3
        kernel_rows = read_csv_rows(out / "kernel.csv")
        assert len(kernel_rows) == 12 and len(kernel_rows[0].split(",")) == 12

    @pytest.mark.parametrize("method", ["fpca:K=3", "fpca:0.9"])
    def test_truncation_level_written_as_integer(self, tmp_path, method):
        sample = tmp_path / "sample.csv"
        spectrum_sample_csv(sample, [0.804, 0.091, 0.043, 0.03, 0.012, 0.008, 0.007, 0.005])
        out = tmp_path / "fit"
        assert main(["fit", "--input", str(sample), "--method", method, "--out", str(out)]) == 0
        tuning = json.loads((out / "fit.meta.json").read_text())["tuning"]
        assert tuning["k"] == 3 and type(tuning["k"]) is int

    def test_tikhonov_fixed_alpha(self, tmp_path):
        sample = tmp_path / "sample.csv"
        spectrum_sample_csv(sample, [0.7, 0.2, 0.1])
        out = tmp_path / "fit"
        assert main(["fit", "--input", str(sample), "--method", "tikhonov:0.1",
                     "--out", str(out)]) == 0
        meta = json.loads((out / "fit.meta.json").read_text())
        assert meta["tuning"]["alpha"] == 0.1
        assert "cv_curve" not in meta

    def test_tikhonov_cv_writes_curve(self, tmp_path):
        sim = tmp_path / "sim"
        main(["simulate", "--regime", "I", "--n", "200", "--seed", "11",
              "--out", str(sim)])
        out = tmp_path / "fit"
        assert main(["fit", "--input", str(sim / "sample.csv"), "--method",
                     "tikhonov:cv", "--out", str(out)]) == 0
        meta = json.loads((out / "fit.meta.json").read_text())
        assert len(meta["cv_curve"]) == 25
        assert meta["cv_scheme"] == "holdout"
        assert meta["tuning"]["alpha"] > 0
        assert list(meta["tuning"]) == ["alpha", "selected_by"]
        assert meta["tuning"]["selected_by"] == "holdout"

    def test_estimator_error_surfaces(self, tmp_path):
        sample = tmp_path / "sample.csv"
        sample.write_text("\n".join(["0.0,0.0,0.0"] * 10) + "\n")
        out = tmp_path / "fit"
        code = main(["fit", "--input", str(sample), "--method", "fpca:0.90",
                     "--out", str(out)])
        assert code == 1
        meta = json.loads((out / "fit.meta.json").read_text())
        assert meta["kind"] == "error" and meta["error"]

    # a warning printed before the error line fails the test
    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize(
        "scale, message",
        [(None, "{path}: no curves"), (1e200, "GridError: c0 contains non-finite entries")],
        ids=["empty", "overflowing-moments"],
    )
    def test_unfittable_input_prints_one_error_line(self, tmp_path, capsys, scale, message):
        sample = tmp_path / "sample.csv"
        if scale is None:
            sample.write_text("")
        else:
            values = np.random.default_rng(3).standard_normal((60, 5)) * scale
            np.savetxt(sample, values, delimiter=",")
        code = main(["fit", "--input", str(sample), "--method", "fpca:0.90",
                     "--out", str(tmp_path / "fit")])
        assert code == 1
        assert capsys.readouterr().err == f"error: {message.format(path=sample)}\n"

    # JSON true is a bool and "0.5" a string: neither is a grid point
    @pytest.mark.parametrize(
        "points",
        [[0, True, 2], ["0", "0.5", "1"], "012", [1, 2, "x", 4, 5], [0, 1, 10**400]],
        ids=["bool", "strings", "string", "list-with-string", "int-beyond-doubles"],
    )
    def test_grid_points_not_a_list_of_numbers(self, tmp_path, capsys, points):
        sample = tmp_path / "sample.csv"
        spectrum_sample_csv(sample, [0.6, 0.3, 0.1], m=3, n=40)
        sidecar = tmp_path / "sample.meta.json"
        sidecar.write_text(json.dumps({"schema_version": 1, "grid_points": points}))
        code = main(["fit", "--input", str(sample), "--method", "fpca:0.90",
                     "--out", str(tmp_path / "fit")])
        assert code == 1
        error = f"{sidecar}: grid_points must be a list of numbers"
        assert capsys.readouterr().err == f"error: {error}\n"
        meta = json.loads((tmp_path / "fit" / "fit.meta.json").read_text())
        assert meta == {"schema_version": 1, "kind": "error", "error": error}

    def test_rejects_stale_schema(self, tmp_path):
        sample = tmp_path / "sample.csv"
        spectrum_sample_csv(sample, [0.9, 0.1], m=6, n=20)
        (tmp_path / "sample.meta.json").write_text(json.dumps({"schema_version": 99}))
        code = main(["fit", "--input", str(sample), "--method", "tikhonov:0.1",
                     "--out", str(tmp_path / "fit")])
        assert code == 1


class TestBenchmarkCommand:
    def test_smoke_config_produces_all_tables(self, tmp_path):
        cfg = tmp_path / "config.json"
        cfg.write_text(json.dumps({"replications": 2, "n_values": [100, 200]}))
        out = tmp_path / "bench"
        assert main(["benchmark", "--config", str(cfg), "--out", str(out)]) == 0
        records = read_csv_rows(out / "records.csv")
        assert records[0] == "regime,n,method,replication,misfe,tuning,error"
        assert len(records) - 1 == 3 * 2 * 6 * 2  # regimes x n x methods x reps
        for name in ("regret.csv", "worst_case.csv", "tuning.csv", "summary.json"):
            assert (out / name).exists()
        summary = json.loads((out / "summary.json").read_text())
        assert summary["wall_clock_seconds"] > 0
        assert "rate_slope_log10_alpha_vs_log10_n" in summary
        assert summary["single_member_refits"] == 0
        assert set(summary["cv_edge_selections"]) == {"I", "II", "III"}
        fits = {f"fit:{label}" for label in BenchmarkConfig.methods}
        assert set(summary["stage_seconds"]) == {"simulate", "decompose", *fits, "score", "write"}
        assert all(seconds >= 0 for seconds in summary["stage_seconds"].values())

    def test_every_method_laps_its_fit_and_fit_seconds_are_gone(self, tmp_path):
        # K=60 exceeds the 40 coefficients of regime I, so that method fails every fit
        methods = ["fpca:0.90", "fpca:K=60", "tikhonov:cv"]
        cfg = tmp_path / "config.json"
        cfg.write_text(json.dumps({"replications": 2, "n_values": [100], "regimes": ["I"],
                                   "methods": methods}))
        out = tmp_path / "bench"
        assert main(["benchmark", "--config", str(cfg), "--out", str(out)]) == 0
        summary = json.loads((out / "summary.json").read_text())
        assert summary["failures_by_class"] == {"SingularSystemError": 2}
        assert set(summary["stage_seconds"]) == {
            "simulate", "decompose", *(f"fit:{m}" for m in methods), "score", "write"
        }
        assert set(summary) == {
            "schema_version", "kind", "config", "rate_slope_log10_alpha_vs_log10_n",
            "wall_clock_seconds", "failed_fits", "failures_by_class", "span_ranks",
            "single_member_refits", "cv_edge_selections", "stage_seconds",
        }

    @pytest.mark.parametrize("table", ["mean_misfe_table", "tuning_summary"])
    def test_each_table_is_derived_once(self, tmp_path, monkeypatch, table):
        calls, derive = [], getattr(evaluate, table)

        def counted(report):
            calls.append(report)
            return derive(report)

        # every binding that holds the function
        for module in (evaluate, cli):
            monkeypatch.setattr(module, table, counted)
        cfg = tmp_path / "config.json"
        cfg.write_text(json.dumps({"replications": 2, "n_values": [100, 200]}))
        out = tmp_path / "b"
        assert main(["benchmark", "--config", str(cfg), "--out", str(out)]) == 0
        assert len(calls) == 1
        # the slope is read from the one tuning table
        summary = json.loads((out / "summary.json").read_text())
        assert summary["rate_slope_log10_alpha_vs_log10_n"] is not None

    def test_wall_clock_is_the_stages_before_writing(self, tmp_path):
        cfg = tmp_path / "config.json"
        cfg.write_text(json.dumps({"replications": 2, "n_values": [100], "regimes": ["I"]}))
        out = tmp_path / "bench"
        assert main(["benchmark", "--config", str(cfg), "--out", str(out)]) == 0
        summary = json.loads((out / "summary.json").read_text())
        stages = summary["stage_seconds"]
        # the stages are summed in another order than the command's
        assert summary["wall_clock_seconds"] == pytest.approx(
            sum(seconds for stage, seconds in stages.items() if stage != "write"), rel=1e-12
        )

    def test_flag_overrides_and_thread_invariance(self, tmp_path):
        cfg = tmp_path / "config.json"
        cfg.write_text(json.dumps({"replications": 5, "n_values": [100],
                                   "regimes": ["I"], "methods": ["fpca:0.90", "tikhonov:cv"]}))
        a, b = tmp_path / "a", tmp_path / "b"
        assert main(["benchmark", "--config", str(cfg), "--out", str(a),
                     "--replications", "2", "--seed", "4"]) == 0
        config_echo = json.loads((a / "summary.json").read_text())["config"]
        assert config_echo["replications"] == 2 and config_echo["master_seed"] == 4
        # the retired threads key and flag are accepted as 1 and change nothing
        legacy = tmp_path / "legacy.json"
        legacy.write_text(json.dumps({**json.loads(cfg.read_text()), "threads": 1}))
        assert main(["benchmark", "--config", str(legacy), "--out", str(b),
                     "--replications", "2", "--seed", "4", "--threads", "1"]) == 0
        assert (a / "records.csv").read_bytes() == (b / "records.csv").read_bytes()

    def test_threads_flag_other_than_one_is_usage_error(self, tmp_path, capsys):
        out = tmp_path / "bench"
        assert exit_code(["benchmark", "--threads", "2", "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert "--threads" in err and "Traceback" not in err
        assert not out.exists()

    @pytest.mark.parametrize(
        "text",
        [
            None,
            "{not json",
            "[1, 2]",
            json.dumps({"replicas": 2}),
            json.dumps({"replications": "2"}),
            json.dumps({"replications": 0}),
            json.dumps({"methods": ["fpca:K=0"]}),
            json.dumps({"regimes": ["I", "I"], "n_values": [40], "replications": 1}),
            json.dumps({"n_values": [40, 40]}),
            json.dumps({"methods": ["fpca:0.9", "fpca:0.9"]}),
            json.dumps({"threads": 2}),
            json.dumps({"threads": True}),
        ],
        ids=["missing-file", "invalid-json", "array", "unknown-key", "string-count",
             "zero-replications", "bad-method-id", "duplicate-regime", "duplicate-n",
             "duplicate-method", "threads-2", "threads-bool"],
    )
    def test_config_error_is_usage_error(self, tmp_path, capsys, text):
        cfg = tmp_path / "config.json"
        if text is not None:
            cfg.write_text(text)
        out = tmp_path / "bench"
        assert main(["benchmark", "--config", str(cfg), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert not out.exists()

    def test_no_cross_validated_method_gives_no_rate_slope(self, tmp_path, capsys):
        cfg = tmp_path / "config.json"
        cfg.write_text(json.dumps({"regimes": ["II"], "n_values": [100, 400], "replications": 4,
                                   "methods": ["fpca:0.9", "tikhonov:0.01"], "master_seed": 5}))
        out = tmp_path / "bench"
        assert main(["benchmark", "--config", str(cfg), "--out", str(out)]) == 0
        summary = json.loads((out / "summary.json").read_text())
        assert summary["rate_slope_log10_alpha_vs_log10_n"] is None
        assert "rate slope n/a" in capsys.readouterr().out

    def test_cells_without_results_are_nan(self, tmp_path):
        cfg = tmp_path / "config.json"
        cfg.write_text(json.dumps({"regimes": ["I"], "n_values": [100],
                                   "methods": ["fpca:0.90", "fpca:K=200"], "replications": 2}))
        out = tmp_path / "bench"
        assert main(["benchmark", "--config", str(cfg), "--out", str(out)]) == 0
        regret = [r.split(",") for r in read_csv_rows(out / "regret.csv")[1:]]
        assert regret[0][:3] == ["I", "100", "fpca:0.90"] and regret[0][5] == "0.0"
        assert regret[1] == ["I", "100", "fpca:K=200", "nan", "0", "nan"]
        worst = [r.split(",") for r in read_csv_rows(out / "worst_case.csv")[1:]]
        assert worst[1] == ["fpca:K=200", "100", "nan"]
        summary = json.loads((out / "summary.json").read_text())
        assert summary["failed_fits"] == 2
        assert summary["failures_by_class"] == {"SingularSystemError": 2}
        # K=200 raised for the stack of both paths, which were refitted alone
        assert summary["single_member_refits"] == 2


def write_raw_days(path, count=150, level=6.0):
    """Synthetic half-hourly file: consecutive in-season days, no exclusions.

    ``level=0`` writes readings that are all zero.
    """
    rows = []
    date = dt.date(2020, 1, 8)
    written = 0
    rng = np.random.default_rng(17)
    slots = np.arange(48)
    while written < count:
        if date.month in (10, 11, 12, 1, 2, 3) and not (
            (date.month == 12 and date.day >= 28) or (date.month == 1 and date.day <= 7)
        ):
            day_level = 6.0 + np.sin(written / 9.0)
            values = (day_level + np.sin(2 * np.pi * slots / 48) + 0.1 * rng.standard_normal(48)) ** 2
            values *= level / 6.0
            rows.append(f"{date.isoformat()}," + ",".join(f"{v:.6f}" for v in values))
            written += 1
        date += dt.timedelta(days=1)
    path.write_text("\n".join([HEADER] + rows) + "\n")


class TestRollingCommand:
    def test_defaults_come_from_the_configs(self):
        args = build_parser().parse_args(["rolling", "--raw", "raw.csv", "--out", "roll"])
        assert args.window == RollingConfig.window
        assert args.refit == RollingConfig.refit_interval
        assert args.gap_policy == RollingConfig.gap_policy
        assert args.methods.split(",") == list(BenchmarkConfig.methods)

    def test_synthetic_150_day_run(self, tmp_path):
        raw = tmp_path / "raw.csv"
        write_raw_days(raw, 150)
        out = tmp_path / "roll"
        assert main(["rolling", "--raw", str(raw), "--out", str(out),
                     "--gap-policy", "contiguous"]) == 0
        summary = read_csv_rows(out / "summary.csv")
        assert summary[0] == "method,mean_ise,median_ise,regret_pct,evaluations,failures"
        assert len(summary) - 1 == 6  # six default methods
        regrets = [float(r.split(",")[3]) for r in summary[1:]]
        assert min(regrets) == 0.0
        forecasts = read_csv_rows(out / "forecasts.csv")
        assert len(forecasts) - 1 == 6 * 50  # 150 days, window 100
        weekday = read_csv_rows(out / "weekday_means.csv")
        assert len(weekday) - 1 == 7
        assert len(weekday[1].split(",")) == 49
        meta = json.loads((out / "rolling.meta.json").read_text())
        assert meta["single_member_refits"] == 0
        edges = {s["method"]: s["cv_edge_selections"] for s in meta["summary"]
                 if "cv_edge_selections" in s}
        assert list(edges) == ["tikhonov:cv"] and 0 <= edges["tikhonov:cv"] <= 3
        fits = {f"fit:{label}" for label in BenchmarkConfig.methods}
        assert set(meta["stage_seconds"]) == {
            "load", "filter", "smooth", "decompose", *fits, "score", "write"
        }
        assert all(seconds >= 0 for seconds in meta["stage_seconds"].values())

    def test_a_failing_method_still_laps_its_fit(self, tmp_path):
        raw = tmp_path / "raw.csv"
        write_raw_days(raw, 150)
        out = tmp_path / "roll"
        # K=60 exceeds the usable directions of a 100-curve window of smoothed curves
        assert main(["rolling", "--raw", str(raw), "--out", str(out), "--methods",
                     "fpca:0.9,fpca:K=60", "--gap-policy", "contiguous"]) == 0
        meta = json.loads((out / "rolling.meta.json").read_text())
        # failures are counted per forecast day: 150 days, window 100
        assert [s["failures_by_class"] for s in meta["summary"]] == [
            {}, {"SingularSystemError": 50}
        ]
        assert set(meta["stage_seconds"]) == {
            "load", "filter", "smooth", "decompose", "fit:fpca:0.9", "fit:fpca:K=60", "score",
            "write",
        }

    def test_single_method_refit_flags(self, tmp_path):
        raw = tmp_path / "raw.csv"
        write_raw_days(raw, 150)
        out = tmp_path / "roll"
        assert main(["rolling", "--raw", str(raw), "--out", str(out),
                     "--methods", "tikhonov:cv", "--gap-policy", "contiguous"]) == 0
        rows = read_csv_rows(out / "forecasts.csv")[1:]
        flags = [r.split(",")[4] for r in rows]
        assert [i for i, f in enumerate(flags) if f == "1"] == [0, 20, 40]


    @pytest.mark.parametrize(
        "methods", [None, "fpca:\n0.8,tikhonov:cv"], ids=["default", "label-csv-quotes"]
    )
    def test_forecasts_render_as_the_csv_writer_does(self, tmp_path, methods):
        raw = tmp_path / "raw.csv"
        write_raw_days(raw, 150)
        out = tmp_path / "roll"
        flags = [] if methods is None else ["--methods", methods]
        assert main(["rolling", "--raw", str(raw), "--out", str(out), *flags]) == 0
        text = (out / "forecasts.csv").read_bytes()
        with open(out / "forecasts.csv", newline="") as handle:
            rows = list(csv.reader(handle))
        labels = json.loads((out / "rolling.meta.json").read_text())["methods"]
        assert [row[1] for row in rows[1:]] == [label for label in labels for _ in range(50)]
        rendered = io.StringIO(newline="")
        csv.writer(rendered, lineterminator="\n").writerows(rows)
        assert text == rendered.getvalue().encode()
        if methods is not None:
            assert labels[0] == "fpca:\n0.8" and b'"fpca:\n0.8"' in text

    def test_k_beyond_directions_recorded_as_failures(self, tmp_path):
        raw = tmp_path / "raw.csv"
        write_raw_days(raw, 130)
        out = tmp_path / "roll"
        assert main(["rolling", "--raw", str(raw), "--out", str(out), "--refit", "10",
                     "--methods", "fpca:K=5000,fpca:K=50,fpca:0.9",
                     "--gap-policy", "contiguous"]) == 0
        meta = json.loads((out / "rolling.meta.json").read_text())
        assert meta["span_rank"] == 10  # the 10-function B-spline span
        by_method = {s["method"]: s for s in meta["summary"]}
        for label in ("fpca:K=5000", "fpca:K=50"):
            assert by_method[label]["evaluations"] == 0
            assert by_method[label]["failures_by_class"] == {"SingularSystemError": 30}
        assert by_method["fpca:0.9"]["failures_by_class"] == {}
        # every window's K=5000 step raised in its stack and was refit alone
        assert meta["single_member_refits"] == 3
        rows = [r.split(",") for r in read_csv_rows(out / "forecasts.csv")[1:]]
        assert [r[2] for r in rows if r[1] == "fpca:K=5000"] == ["nan"] * 30

    def test_method_failing_on_some_blocks(self, tmp_path):
        raw = tmp_path / "raw.csv"
        write_raw_days(raw, 130)
        # zero readings on the first 40 days: centred by the weekday profiles, those
        # curves take one of seven shapes, so a window of them has at most 6 directions
        lines = raw.read_text().split("\n")
        lines[1:41] = [line.split(",")[0] + ",0" * 48 for line in lines[1:41]]
        raw.write_text("\n".join(lines))
        out = tmp_path / "roll"
        assert main(["rolling", "--raw", str(raw), "--out", str(out), "--window", "20",
                     "--refit", "7", "--methods", "fpca:K=7,fpca:0.9"]) == 0
        forecasts = [r.split(",") for r in read_csv_rows(out / "forecasts.csv")[1:]]
        summary = {r[0]: r for r in (r.split(",") for r in read_csv_rows(out / "summary.csv")[1:])}
        meta = json.loads((out / "rolling.meta.json").read_text())
        by_method = {s["method"]: s for s in meta["summary"]}
        for label in ("fpca:K=7", "fpca:0.9"):
            rows = [r for r in forecasts if r[1] == label]
            # a failed day has neither an error nor a tuning value
            assert [r[2] == "nan" for r in rows] == [r[3] == "nan" for r in rows]
            scored = [float(r[2]) for r in rows if r[2] != "nan"]
            failures = len(rows) - len(scored)
            assert summary[label][4:] == [str(len(scored)), str(failures)]
            assert summary[label][1] == repr(float(np.mean(scored)))
            expected = {"SingularSystemError": failures} if failures else {}
            assert by_method[label]["failures_by_class"] == expected
        # K=7 fails on the three blocks whose windows hold zero days only
        assert summary["fpca:K=7"][5] == "21" and summary["fpca:0.9"][5] == "0"
        assert int(summary["fpca:K=7"][4]) > 0

    def test_all_methods_failing_writes_nan_regret(self, tmp_path):
        raw = tmp_path / "raw.csv"
        write_raw_days(raw, 150)
        out = tmp_path / "roll"
        # forward 5-fold CV needs 35 curves, so every refit on 20 fails
        assert main(["rolling", "--raw", str(raw), "--out", str(out), "--window", "20",
                     "--methods", "tikhonov:cv", "--gap-policy", "contiguous"]) == 0
        summary = read_csv_rows(out / "summary.csv")
        assert summary[1].split(",") == ["tikhonov:cv", "nan", "nan", "nan", "0", "130"]
        meta = json.loads((out / "rolling.meta.json").read_text())
        assert meta["summary"][0]["failures_by_class"] == {"InsufficientDataError": 130}

    def test_zero_best_mean_gives_nan_regret(self, tmp_path):
        raw = tmp_path / "raw.csv"
        write_raw_days(raw, 120, level=0.0)
        out = tmp_path / "roll"
        assert main(["rolling", "--raw", str(raw), "--out", str(out),
                     "--methods", "tikhonov:0.1,fpca:0.9", "--gap-policy", "contiguous"]) == 0
        summary = [r.split(",") for r in read_csv_rows(out / "summary.csv")[1:]]
        # zero curves: the ridge forecasts them exactly, truncation has no spectrum
        assert summary[0][:4] == ["tikhonov:0.1", "0.0", "0.0", "nan"]
        assert summary[1][:4] == ["fpca:0.9", "nan", "nan", "nan"]

    @pytest.mark.parametrize(
        "label", ["fpca:K=0", "fpca:K=-2", "tikhonov:nan", "tikhonov:inf", "fpca:abc"]
    )
    def test_bad_method_id_is_usage_error(self, tmp_path, capsys, label):
        raw = tmp_path / "raw.csv"
        write_raw_days(raw, 120)
        out = tmp_path / "roll"
        code = main(["rolling", "--raw", str(raw), "--out", str(out),
                     "--methods", f"fpca:0.9,{label}"])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1 and label in err
        assert not out.exists()

    @pytest.mark.parametrize(
        "edit",
        [
            lambda text: text.replace("h48", "h49", 1),  # header
            lambda text: text.replace("\n2020-01-08,", "\n2020-01-08,x", 1),  # reading
            lambda text: text + text.split("\n")[1] + "\n",  # duplicate date
            None,  # missing file
            # a cell beyond the csv module's 131072-character field limit
            lambda text: text.replace("\n2020-01-08,", "\n2020-01-08," + "1" * 200000, 1),
        ],
        ids=["header", "reading", "duplicate-date", "missing-file", "long-cell"],
    )
    def test_bad_raw_file_is_usage_error(self, tmp_path, capsys, edit):
        raw = tmp_path / "raw.csv"
        if edit is not None:
            write_raw_days(raw, 120)
            raw.write_text(edit(raw.read_text()))
        code = main(["rolling", "--raw", str(raw), "--out", str(tmp_path / "roll")])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1


class TestVerifyCommand:
    def test_default_suite_passes(self, tmp_path):
        out = tmp_path / "verify"
        assert main(["verify", "--out", str(out)]) == 0
        report = json.loads((out / "verify.json").read_text())
        assert report["checks"] and all(c["passed"] for c in report["checks"])

    def test_corrupted_envelope_fails_with_named_check(self, tmp_path, capsys):
        probes = tmp_path / "probes.json"
        probes.write_text(json.dumps({"probes": [{"beta": 2.0, "eigen_scale": 4.0}]}))
        out = tmp_path / "verify"
        code = main(["verify", "--out", str(out), "--probes", str(probes)])
        assert code == 1
        captured = capsys.readouterr()
        assert "FAIL" in captured.out and "bias-bound beta=2" in captured.out

    def test_integer_probe_parameters_accepted(self, tmp_path):
        probes = tmp_path / "probes.json"
        probes.write_text(json.dumps({"probes": [{"beta": 1, "n_components": 5, "rho": 1}]}))
        out = tmp_path / "verify"
        assert main(["verify", "--out", str(out), "--probes", str(probes)]) == 0

    def test_empty_probe_list_is_config_error(self, tmp_path):
        probes = tmp_path / "probes.json"
        probes.write_text(json.dumps({"probes": []}))
        code = main(["verify", "--out", str(tmp_path / "v"), "--probes", str(probes)])
        assert code == 2


VERIFY = ["verify", "--probes", "probes.json"]
FIT = ["fit", "--method", "fpca:0.9", "--input", "sample.csv"]


@pytest.mark.parametrize(
    "argv, files, code",
    [
        (["simulate", "--regime", "I", "--n", "10", "--seed", "-1"], {}, 2),
        (VERIFY, {"probes.json": 5}, 2),
        (VERIFY, {"probes.json": {"probes": [[1, 2]]}}, 2),
        (VERIFY, {"probes.json": {"probes": [{"beta": None}]}}, 2),
        (VERIFY, {"probes.json": {"probes": [{"beta": float("nan")}]}}, 2),
        (VERIFY, {"probes.json": {"probes": [{"beta": True}]}}, 2),
        (VERIFY, {"probes.json": {"probes": [{"beta": "0.5"}]}}, 2),
        (VERIFY, {"probes.json": {"probes": [{"beta": 1.0, "n_components": 2.7}]}}, 2),
        (VERIFY, {"probes.json": {"probes": [{"beta": 1.0, "n_components": True}]}}, 2),
        (VERIFY, {"probes.json": {"probes": [{"beta": 1.0, "gamma": 2.0}]}}, 2),
        (VERIFY, {"probes.json": {"probes": [{"rho": 1.0}]}}, 2),
        (VERIFY, {"probes.json": {"probes": [{"beta": 1, "rho": 0}]}}, 2),
        (VERIFY, {"probes.json": {"probes": [{"beta": 1, "eigen_decay": -5000}]}}, 2),
        (FIT, {"sample.meta.json": {"schema_version": 1, "grid_points": {"a": 1}}}, 1),
    ],
    ids=["negative-seed", "probes-not-object", "probe-not-object", "probe-null",
         "probe-nan", "probe-bool", "probe-string", "probe-fractional-components",
         "probe-bool-components", "probe-unknown-key", "probe-no-beta", "probe-zero-rho",
         "probe-overflowing-eigenvalues", "grid-points-object"],
)
def test_bad_outside_input_exits_cleanly(tmp_path, monkeypatch, capsys, argv, files, code):
    monkeypatch.chdir(tmp_path)
    spectrum_sample_csv(tmp_path / "sample.csv", [0.6, 0.3, 0.1], m=6, n=40)
    for name, payload in files.items():
        (tmp_path / name).write_text(json.dumps(payload))
    assert main(argv + ["--out", "out"]) == code
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    if argv[0] == "fit":
        assert json.loads((tmp_path / "out" / "fit.meta.json").read_text())["kind"] == "error"


# every token of the method-id grammar, recombined at random, plus ids that
# keep the grammar's shape so that valid ones are drawn too
METHOD_ID_TOKENS = ["fpca:", "tikhonov:", "K=", *"0123456789", ".", "-", "cv", "nan", "inf"]
METHOD_IDS = st.one_of(
    st.lists(st.sampled_from(METHOD_ID_TOKENS), max_size=8).map("".join),
    st.tuples(
        st.sampled_from(["fpca:", "tikhonov:"]),
        st.sampled_from(["", "K="]),
        st.one_of(st.text(alphabet="0123456789.-", min_size=1, max_size=6),
                  st.sampled_from(["cv", "nan", "inf"])),
    ).map("".join),
)


@pytest.fixture(scope="module")
def fuzz_inputs(tmp_path_factory):
    root = tmp_path_factory.mktemp("fuzz")
    spectrum_sample_csv(root / "sample.csv", [0.6, 0.3, 0.1], m=6, n=40)
    write_raw_days(root / "raw.csv", 45)
    return root


def exit_code(argv) -> int:
    """The process exit status of ``farkit ARGV``, argparse's usage exits included."""
    try:
        return main(argv)
    except SystemExit as exc:
        return exc.code


@settings(derandomize=True, max_examples=80, deadline=None)
@given(label=METHOD_IDS)
@example(label="--")  # argparse passed this value on as an empty list
@example(label="fpca:1")
@example(label="tikhonov:cv")
def test_fuzzed_method_ids_exit_cleanly(fuzz_inputs, label):
    try:
        parse_method(label)
        valid = True
    except ValueError:
        valid = False
    fit_code = exit_code(["fit", "--input", str(fuzz_inputs / "sample.csv"),
                          f"--method={label}", "--out", str(fuzz_inputs / "fit")])
    # a rejected id: 1 from the fit command, 2 if argparse refuses it first
    assert fit_code in ((0, 1) if valid else (1, 2))
    roll_code = exit_code(["rolling", "--raw", str(fuzz_inputs / "raw.csv"), "--window", "20",
                           f"--methods={label}", "--gap-policy", "contiguous",
                           "--out", str(fuzz_inputs / "roll")])
    assert roll_code == (0 if valid else 2)


# benchmark configs small enough to run in milliseconds: a valid config with
# at most one field redrawn from a wider range, so that about half stay valid
FUZZ_METHODS = ["fpca:0.9", "fpca:K=2", "fpca:K=80", "tikhonov:0.1", "tikhonov:cv"]
VALID_CONFIGS = st.fixed_dictionaries(
    {
        "regimes": st.lists(st.sampled_from(["I", "II", "III"]), min_size=1, max_size=3,
                            unique=True),
        "n_values": st.lists(st.integers(2, 60), min_size=1, max_size=2, unique=True),
        "replications": st.integers(1, 2),
        "test_length": st.integers(2, 20),
        "methods": st.lists(st.sampled_from(FUZZ_METHODS), min_size=1, max_size=3, unique=True),
    }
)
REDRAWN_FIELDS = {
    "regimes": st.lists(st.sampled_from(["I", "II", "III"]), max_size=3),
    "n_values": st.lists(st.integers(0, 60), max_size=3),
    "replications": st.integers(0, 2),
    "test_length": st.integers(0, 20),
    "methods": st.lists(METHOD_IDS, max_size=3),
}
BENCHMARK_CONFIGS = st.builds(
    lambda config, redrawn: {**config, **redrawn},
    VALID_CONFIGS,
    st.one_of(
        st.just({}), *(st.fixed_dictionaries({k: v}) for k, v in REDRAWN_FIELDS.items())
    ),
)


@settings(derandomize=True, max_examples=30, deadline=None)
@given(config=BENCHMARK_CONFIGS)
@example(config={"regimes": ["I", "I"], "n_values": [40], "replications": 1,
                 "test_length": 20, "methods": ["fpca:0.9"]})
@example(config={"regimes": ["II"], "n_values": [2, 60], "replications": 2,
                 "test_length": 2, "methods": ["fpca:K=1", "tikhonov:cv"]})
def test_fuzzed_benchmark_configs_exit_cleanly(tmp_path_factory, config):
    try:
        BenchmarkConfig.from_dict(config)
        valid = True
    except ValueError:
        valid = False
    path = tmp_path_factory.mktemp("config") / "config.json"
    path.write_text(json.dumps(config))
    code = exit_code(["benchmark", "--config", str(path), "--out", str(path.parent / "out")])
    assert code == (0 if valid else 2)


def fuzz_row(date, readings, edit):
    """A raw CSV row with at most one edit: a cell replaced, or a reading count."""
    cells = [date.isoformat()] + [repr(v) for v in readings]
    if isinstance(edit, int):
        cells = (cells + ["1.0"])[: 1 + edit]
    elif edit is not None:
        index, text = edit
        cells[index] = text
    return ",".join(cells)


# rows in season before the fixture file's first day, mostly left well
# formed: about three in four fuzzed files are still valid
RAW_ROWS = st.builds(
    fuzz_row,
    date=st.dates(dt.date(2019, 10, 1), dt.date(2019, 12, 27)),
    readings=st.lists(st.floats(0.0, 100.0), min_size=48, max_size=48),
    edit=st.one_of(
        st.none(),
        st.tuples(st.integers(1, 48), st.sampled_from(
            ["", " ", "nan", "-0.0", "1e300", " 2.5 ", "inf", "-1", "abc"])),
        st.tuples(st.just(0), st.sampled_from(["", "2020-13-01", "2019-11-31", "2020-01-08"])),
        st.sampled_from([47, 49]),
    ),
)


@settings(derandomize=True, max_examples=40, deadline=None)
@given(
    rows=st.lists(RAW_ROWS, min_size=1, max_size=2, unique_by=lambda row: row.split(",")[0]),
    at=st.integers(0, 45),
)
def test_fuzzed_raw_rows_exit_cleanly(fuzz_inputs, rows, at):
    lines = (fuzz_inputs / "raw.csv").read_text().splitlines()
    lines[1 + at : 1 + at] = rows
    raw = fuzz_inputs / "fuzzed.csv"
    raw.write_text("\n".join(lines) + "\n")
    code = exit_code(["rolling", "--raw", str(raw), "--window", "20",
                      "--methods", "fpca:0.9,tikhonov:0.1", "--gap-policy", "contiguous",
                      "--out", str(fuzz_inputs / "roll")])
    assert code in (0, 2)
