"""Tests for the command-line interface."""

import csv
import json
import os
import subprocess
import sys
from collections import Counter

import numpy as np
import pytest

from mnri import cli, glm
from mnri.cli import CompareReport, main


def write_csv(path, header, rows):
    with open(path, "w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(header)
        writer.writerows(rows)


@pytest.fixture
def demo_csv(tmp_path):
    rng = np.random.default_rng(2468)
    n = 240
    x = rng.standard_normal(n)
    z = rng.standard_normal(n)
    marker = np.exp(rng.standard_normal(n) * 0.4 + 1.0)
    probs = 1.0 / (1.0 + np.exp(-(-0.4 + 0.9 * x)))
    y = (rng.random(n) < probs).astype(int)
    path = tmp_path / "demo.csv"
    write_csv(
        path,
        ["status", "age", "noise", "marker"],
        [[y[i], x[i], z[i], marker[i]] for i in range(n)],
    )
    return str(path)


def run(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestCompare:
    def test_report_round_trips(self, demo_csv, capsys):
        code, out, _ = run(
            capsys,
            ["compare", demo_csv, "--outcome", "status", "--base", "age", "--new", "noise"],
        )
        assert code == 0
        report = CompareReport.from_json(out)
        assert report.to_json() + "\n" == out
        assert report == CompareReport.from_json(report.to_json())
        assert report.mode == "single"
        assert report.n == 240
        assert report.columns["outcome"] == "status"
        assert 0.0 <= report.mnri_test["p_value"] <= 1.0
        assert "invalid" in report.nri_test_legacy["notes"]

    def test_deterministic_output(self, demo_csv, capsys):
        argv = ["compare", demo_csv, "--outcome", "status", "--base", "age", "--new", "noise"]
        _, out1, _ = run(capsys, argv)
        _, out2, _ = run(capsys, argv)
        assert out1 == out2

    def test_test_file_same_data_collapses_to_single(self, demo_csv, capsys, tmp_path):
        single_code, single_out, _ = run(
            capsys,
            ["compare", demo_csv, "--outcome", "status", "--base", "age", "--new", "noise"],
        )
        pair_code, pair_out, _ = run(
            capsys,
            [
                "compare", demo_csv, "--outcome", "status", "--base", "age",
                "--new", "noise", "--test-file", demo_csv,
            ],
        )
        assert single_code == pair_code == 0
        single = CompareReport.from_json(single_out)
        paired = CompareReport.from_json(pair_out)
        assert paired.mode == "train_test"
        assert paired.n_train == 240
        assert paired.mnri_test["statistic"] == pytest.approx(
            single.mnri_test["statistic"], abs=1e-12
        )

    def test_classical_scale_doubles_statistics(self, demo_csv, capsys):
        argv = ["compare", demo_csv, "--outcome", "status", "--base", "age", "--new", "noise"]
        _, half_out, _ = run(capsys, argv)
        _, classical_out, _ = run(capsys, argv + ["--classical-scale"])
        half = CompareReport.from_json(half_out)
        classical = CompareReport.from_json(classical_out)
        assert half.scale == "half" and classical.scale == "classical"
        for name in ("nri_hard", "nri_smooth", "mnri_hard", "mnri_smooth", "scaled_mad"):
            assert getattr(classical, name) == pytest.approx(2 * getattr(half, name))
        assert classical.mad == half.mad
        # test statistics stay on the half scale
        assert classical.mnri_test == half.mnri_test

    def test_spline_expansion_runs(self, demo_csv, capsys):
        code, out, _ = run(
            capsys,
            [
                "compare", demo_csv, "--outcome", "status", "--base", "age",
                "--new", "marker", "--spline", "marker=4",
            ],
        )
        assert code == 0
        report = CompareReport.from_json(out)
        assert report.columns["spline"] == {"marker": 4}

    def test_missing_column_is_data_error(self, demo_csv, capsys):
        code, _, err = run(
            capsys,
            ["compare", demo_csv, "--outcome", "status", "--base", "age", "--new", "ghost"],
        )
        assert code == 2
        assert "ghost" in err

    def test_non_binary_outcome_is_data_error(self, demo_csv, capsys):
        code, _, _ = run(
            capsys,
            ["compare", demo_csv, "--outcome", "age", "--base", "marker", "--new", "noise"],
        )
        assert code == 2

    def test_constant_column_is_data_error(self, tmp_path, capsys):
        rng = np.random.default_rng(11)
        path = tmp_path / "const.csv"
        write_csv(
            path,
            ["y", "a", "b"],
            [[i % 2, 1.0, rng.standard_normal()] for i in range(80)],
        )
        code, _, err = run(
            capsys, ["compare", str(path), "--outcome", "y", "--base", "a", "--new", "b"]
        )
        assert code == 2
        assert "constant" in err

    def test_missing_value_is_data_error(self, tmp_path, capsys):
        rng = np.random.default_rng(12)
        path = tmp_path / "gaps.csv"
        rows = [[i % 2, rng.standard_normal(), rng.standard_normal()] for i in range(80)]
        rows[13][1] = ""
        write_csv(path, ["y", "a", "b"], rows)
        code, _, err = run(
            capsys, ["compare", str(path), "--outcome", "y", "--base", "a", "--new", "b"]
        )
        assert code == 2
        assert "missing value" in err

    @pytest.mark.parametrize(
        "cell, message",
        [
            ("", "missing value in column 'a' (row 15)"),
            ("NA", "missing value in column 'a' (row 15)"),
            (" nan ", "missing value in column 'a' (row 15)"),
            ("NULL", "missing value in column 'a' (row 15)"),
            ("abc", "non-numeric value 'abc' in column 'a' (row 15)"),
            ("inf", "non-finite value in column 'a'"),
        ],
    )
    def test_bad_cell_message(self, tmp_path, capsys, cell, message):
        rng = np.random.default_rng(15)
        path = tmp_path / "bad.csv"
        rows = [[i % 2, *rng.standard_normal(2)] for i in range(80)]
        rows[13][1] = cell
        write_csv(path, ["y", "a", "b"], rows)
        code, out, err = run(
            capsys, ["compare", str(path), "--outcome", "y", "--base", "a", "--new", "b"]
        )
        assert code == 2
        assert out == ""
        assert err == f"error: {path}: {message}\n"

    def test_each_column_converted_once(self, tmp_path, capsys, monkeypatch):
        rng = np.random.default_rng(16)
        path = tmp_path / "cohort.csv"
        write_csv(
            path,
            ["status", "age", "marker"],
            [[i % 2, *rng.standard_normal(2)] for i in range(200)],
        )
        converted = Counter()
        numeric_column = cli._numeric_column

        def counting(columns, name, path):
            converted[name] += 1
            return numeric_column(columns, name, path)

        monkeypatch.setattr(cli, "_numeric_column", counting)
        code, _, _ = run(
            capsys,
            ["compare", str(path), "--outcome", "status", "--base", "age",
             "--new", "marker", "--spline", "marker=4"],
        )
        assert code == 0
        assert converted == {"status": 1, "age": 1, "marker": 1}

    @pytest.mark.parametrize(
        "content, cause",
        [
            ("évent,a,b\n1,0.5,0.25\n".encode("latin-1"), "can't decode"),
            (("y,a,b\n1,0.5," + "7" * (csv.field_size_limit() + 1) + "\n").encode(),
             "field larger than field limit"),
        ],
        ids=["latin-1", "oversized-field"],
    )
    def test_unparseable_file_is_data_error(self, tmp_path, capsys, content, cause):
        path = tmp_path / "unparseable.csv"
        path.write_bytes(content)
        code, out, err = run(
            capsys, ["compare", str(path), "--outcome", "y", "--base", "a", "--new", "b"]
        )
        assert code == 2
        assert out == ""
        assert err.startswith(f"error: cannot read {path}: ")
        assert cause in err

    def test_duplicate_covariate_is_fit_error(self, tmp_path, capsys):
        rng = np.random.default_rng(13)
        path = tmp_path / "dup.csv"
        rows = []
        for i in range(100):
            v = rng.standard_normal()
            rows.append([i % 2, v, v])
        write_csv(path, ["y", "a", "acopy"], rows)
        code, _, err = run(
            capsys, ["compare", str(path), "--outcome", "y", "--base", "a", "--new", "acopy"]
        )
        assert code == 3
        assert "expanded" in err
        assert "design matrix is rank deficient (collinear columns)" in err

    def test_degenerate_outcome_exit_code(self, tmp_path, capsys):
        rng = np.random.default_rng(14)
        path = tmp_path / "allones.csv"
        write_csv(
            path,
            ["y", "a", "b"],
            [[1, rng.standard_normal(), rng.standard_normal()] for _ in range(80)],
        )
        code, _, _ = run(
            capsys, ["compare", str(path), "--outcome", "y", "--base", "a", "--new", "b"]
        )
        assert code == 4

    @pytest.mark.parametrize("command", ["compare", "plotdata"])
    def test_header_only_file_is_data_error(self, tmp_path, capsys, command):
        path = tmp_path / "header.csv"
        write_csv(path, ["y", "a", "b"], [])
        code, _, err = run(
            capsys, [command, str(path), "--outcome", "y", "--base", "a", "--new", "b"]
        )
        assert code == 2
        assert err == f"error: {path}: no data rows\n"

    def test_too_few_rows_is_data_error(self, tmp_path, capsys):
        path = tmp_path / "short.csv"
        write_csv(path, ["y", "a", "b"], [[0, 0.1, 1.0], [1, -0.4, 2.0], [0, 0.9, 0.5]])
        code, _, err = run(
            capsys, ["compare", str(path), "--outcome", "y", "--base", "a", "--new", "b"]
        )
        assert code == 2
        assert err == f"error: {path}: too few rows for the covariate dimensions\n"

    @pytest.mark.parametrize("paired, passes", [(False, 1), (True, 2)])
    def test_statistics_passes(self, demo_csv, capsys, half_nris_calls, paired, passes):
        # Single mode: one report feeds both tests. Train/test mode: one
        # pass for the pair's tests, one for the test sample's report.
        argv = ["compare", demo_csv, "--outcome", "status", "--base", "age", "--new", "noise"]
        code, _, _ = run(capsys, argv + (["--test-file", demo_csv] if paired else []))
        assert code == 0
        assert len(half_nris_calls) == passes

    def test_iteration_cap_is_fit_error(self, demo_csv, capsys, monkeypatch):
        monkeypatch.setattr(glm, "_MAX_ITER", 1)
        code, _, err = run(
            capsys,
            ["compare", demo_csv, "--outcome", "status", "--base", "age", "--new", "noise"],
        )
        assert code == 3
        assert err == (
            "fit error: expanded model: Fisher scoring did not converge in 1 iterations\n"
        )

    def test_mismatched_test_header(self, demo_csv, tmp_path, capsys):
        other = tmp_path / "other.csv"
        write_csv(other, ["status", "age", "noise"], [[0, 0.0, 0.0]])
        code, _, _ = run(
            capsys,
            [
                "compare", demo_csv, "--outcome", "status", "--base", "age",
                "--new", "noise", "--test-file", str(other),
            ],
        )
        assert code == 2


class TestPlotData:
    def test_row_count_and_columns(self, demo_csv, capsys):
        code, out, _ = run(
            capsys,
            ["plotdata", demo_csv, "--outcome", "status", "--base", "age", "--new", "noise"],
        )
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "id,y,prob_base,prob_expanded"
        assert len(lines) == 241

    def test_empty_new_gives_identical_probabilities(self, demo_csv, capsys):
        code, out, _ = run(
            capsys, ["plotdata", demo_csv, "--outcome", "status", "--base", "age"]
        )
        assert code == 0
        for line in out.strip().splitlines()[1:]:
            _, _, pb, pe = line.split(",")
            assert pb == pe

    def test_null_marker_probabilities_hug_diagonal(self, demo_csv, capsys):
        _, out, _ = run(
            capsys,
            ["plotdata", demo_csv, "--outcome", "status", "--base", "age", "--new", "noise"],
        )
        rows = [line.split(",") for line in out.strip().splitlines()[1:]]
        gaps = [abs(float(pb) - float(pe)) for _, _, pb, pe in rows]
        assert float(np.mean(gaps)) <= 0.05


class TestSplineCommand:
    def test_adds_three_columns_for_four_knots(self, demo_csv, capsys):
        code, out, _ = run(capsys, ["spline", demo_csv, "--column", "marker", "--knots", "4"])
        assert code == 0
        lines = out.splitlines()
        assert lines[0].startswith("# knots: ")
        assert len(lines[0].split(",")) == 4
        header = lines[1].split(",")
        assert header[-3:] == ["marker_rcs1", "marker_rcs2", "marker_rcs3"]
        assert len(lines) == 2 + 240

    def test_value_at_first_knot_zeroes_nonlinear_columns(self, tmp_path, capsys):
        values = np.linspace(0.0, 10.0, 60)
        path = tmp_path / "grid.csv"
        write_csv(path, ["y", "v"], [[i % 2, values[i]] for i in range(60)])
        code, out, _ = run(capsys, ["spline", str(path), "--column", "v", "--knots", "4"])
        assert code == 0
        lines = out.splitlines()
        knots = [float(v) for v in lines[0].removeprefix("# knots: ").split(",")]
        reader = list(csv.DictReader(lines[1:]))
        at_first = min(reader, key=lambda row: abs(float(row["v"]) - knots[0]))
        if float(at_first["v"]) <= knots[0]:
            assert float(at_first["v_rcs2"]) == 0.0
            assert float(at_first["v_rcs3"]) == 0.0

    def test_round_trip_matches_in_process_expansion(self, demo_csv, capsys, tmp_path):
        expanded_path = tmp_path / "expanded.csv"
        code, out, _ = run(
            capsys,
            ["spline", demo_csv, "--column", "marker", "--knots", "4",
             "--out", str(expanded_path)],
        )
        assert code == 0
        # strip the knot comment so the file is a plain CSV again
        lines = expanded_path.read_text().splitlines()
        expanded_path.write_text("\n".join(lines[1:]) + "\n")

        _, out_inproc, _ = run(
            capsys,
            ["compare", demo_csv, "--outcome", "status", "--base", "age",
             "--new", "marker", "--spline", "marker=4"],
        )
        _, out_pre, _ = run(
            capsys,
            ["compare", str(expanded_path), "--outcome", "status", "--base", "age",
             "--new", "marker_rcs1,marker_rcs2,marker_rcs3"],
        )
        inproc = CompareReport.from_json(out_inproc)
        pre = CompareReport.from_json(out_pre)
        assert pre.mnri_test["statistic"] == pytest.approx(
            inproc.mnri_test["statistic"], rel=1e-9
        )
        assert pre.mnri_hard == pytest.approx(inproc.mnri_hard, rel=1e-9)

    def test_too_few_distinct_values(self, tmp_path, capsys):
        path = tmp_path / "flat.csv"
        write_csv(path, ["y", "v"], [[i % 2, 1.0] for i in range(40)])
        code, _, _ = run(capsys, ["spline", str(path), "--column", "v"])
        assert code == 2

    @pytest.mark.parametrize(
        "command, flags, message",
        [
            ("compare", ["--new", "marker", "--spline", "marker=7"], "--spline knot count"
             " must be one of [3, 4, 5], got 7"),
            ("plotdata", ["--new", "marker", "--spline", "marker=2"], "--spline knot count"
             " must be one of [3, 4, 5], got 2"),
            ("spline", ["--column", "marker", "--knots", "6"], "--knots knot count"
             " must be one of [3, 4, 5], got 6"),
        ],
    )
    def test_bad_knot_count_is_data_error(self, demo_csv, capsys, command, flags, message):
        model = ["--outcome", "status", "--base", "age"] if command != "spline" else []
        code, out, err = run(capsys, [command, demo_csv, *model, *flags])
        assert code == 2
        assert out == ""
        assert err == f"error: {message}\n"


class TestSimulateCommand:
    BASE = [
        "simulate", "--n", "200", "--pi0", "0.5", "--mu-x", "0.25",
        "--rho", "0", "--reps", "40", "--seed", "99",
    ]

    def test_csv_shape(self, capsys):
        code, out, _ = run(capsys, self.BASE)
        assert code == 0
        lines = out.strip().splitlines()
        assert len(lines) == 2
        header = lines[0].split(",")
        assert "mnri_rejection_rate" in header and "redraws" in header

    def test_identical_bytes_for_same_seed(self, capsys):
        _, out1, _ = run(capsys, self.BASE)
        _, out2, _ = run(capsys, self.BASE)
        assert out1 == out2

    def test_single_replicate_rates_degenerate(self, capsys):
        argv = [a if a != "40" else "1" for a in self.BASE]
        code, out, _ = run(capsys, argv)
        assert code == 0
        row = out.strip().splitlines()[1].split(",")
        header = out.strip().splitlines()[0].split(",")
        rate = float(row[header.index("mnri_rejection_rate")])
        assert rate in (0.0, 1.0)

    def test_grid_order(self, capsys):
        argv = [
            "simulate", "--n", "200,300", "--pi0", "0.25,0.5", "--mu-x", "0.25",
            "--rho", "0", "--reps", "5", "--seed", "1",
        ]
        code, out, _ = run(capsys, argv)
        assert code == 0
        rows = [line.split(",")[:2] for line in out.strip().splitlines()[1:]]
        assert rows == [["200", "0.25"], ["200", "0.5"], ["300", "0.25"], ["300", "0.5"]]

    def test_invalid_grid_exit_two(self, capsys):
        code, _, _ = run(
            capsys,
            ["simulate", "--n", "10", "--pi0", "0.5", "--mu-x", "0.25",
             "--rho", "0", "--reps", "5"],
        )
        assert code == 2

    def test_excessive_fit_failures_exit_three(self, capsys):
        # At n = 50 and pi0 = 0.02 many draws have no event or separate,
        # far more redraws than the 1% budget allows.
        code, out, err = run(
            capsys,
            ["simulate", "--n", "50", "--pi0", "0.02", "--mu-x", "1",
             "--rho", "0", "--reps", "20"],
        )
        assert code == 3
        assert out == ""
        assert err.startswith("fit error: ") and "budget" in err

    @pytest.mark.parametrize("mu_x", ["nan", "inf"])
    def test_non_finite_mu_x_exit_two(self, capsys, mu_x):
        code, out, err = run(
            capsys,
            ["simulate", "--n", "200", "--pi0", "0.5", "--mu-x", mu_x,
             "--rho", "0", "--reps", "5"],
        )
        assert code == 2
        assert out == ""
        assert err == "error: invalid simulation grid: mu_x must be finite\n"

    @pytest.mark.parametrize("workers", ["0", "-2"])
    def test_non_positive_workers_exit_two(self, capsys, workers):
        code, out, err = run(capsys, self.BASE + ["--workers", workers])
        assert code == 2
        assert out == ""
        assert err == f"error: --workers must be at least 1, got {workers}\n"

    def test_empty_grid_exit_two(self, capsys):
        code, _, _ = run(
            capsys,
            ["simulate", "--n", "", "--pi0", "0.5", "--mu-x", "0.25", "--rho", "0"],
        )
        assert code == 2


def test_out_flag_writes_file(demo_csv, tmp_path, capsys):
    target = tmp_path / "report.json"
    code, out, _ = run(
        capsys,
        ["compare", demo_csv, "--outcome", "status", "--base", "age",
         "--new", "noise", "--out", str(target)],
    )
    assert code == 0
    assert out == ""
    report = CompareReport.from_json(target.read_text())
    assert report.version == json.loads(target.read_text())["version"]


def test_import_defers_quadrature():
    # scipy.integrate is only needed by the train/test mixture tail, so
    # starting the CLI must not pay for importing it.
    import mnri

    src = os.path.dirname(os.path.dirname(mnri.__file__))
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = {**os.environ, "PYTHONPATH": path}
    probe = "import sys, mnri.cli; print('scipy.integrate' in sys.modules)"
    out = subprocess.run(
        [sys.executable, "-c", probe], env=env, capture_output=True, text=True, check=True
    )
    assert out.stdout.strip() == "False"
