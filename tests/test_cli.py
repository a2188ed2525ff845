"""Tests for the command-line interface."""

import contextlib
import csv
import dataclasses
import io
import json
import math
import os
import subprocess
import sys
import warnings
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mnri import __version__, cli, glm, inference, numerics, reclass
from mnri.cli import main
from mnri.errors import ExcessiveFitFailures
from mnri.glm import Dataset
from mnri.spline import default_knots, rcs_basis
from mixture_reference import two_pair_tail


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


def write_marker_cohorts(tmp_path):
    """Training and test CSVs of 300 rows each: outcome y, base age and
    two informative markers m1, m2."""
    paths = []
    for name, seed in (("train.csv", 101), ("test.csv", 201)):
        rng = np.random.default_rng(seed)
        age, m1, m2 = rng.standard_normal((3, 300))
        probs = 1.0 / (1.0 + np.exp(-(-0.3 + 0.5 * age + 1.2 * m1 - 1.0 * m2)))
        y = (rng.random(300) < probs).astype(int)
        write_csv(tmp_path / name, ["y", "age", "m1", "m2"], zip(y, age, m1, m2))
        paths.append(str(tmp_path / name))
    return paths


# Two rows: enough for every check that fails before the data are fitted.
GOOD_CSV = "y,x,z\n0,0.5,1.5\n1,-0.5,2.5\n"


def run(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_fallback(capsys, monkeypatch, argv):
    """``run`` with the fast CSV path always falling back to the string parser."""
    with monkeypatch.context() as patch:
        patch.setattr(cli, "_read_numeric", lambda path: None)
        return run(capsys, argv)


def cli_env():
    """The environment of a subprocess that imports this checkout's mnri."""
    import mnri

    src = os.path.dirname(os.path.dirname(mnri.__file__))
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    return {**os.environ, "PYTHONPATH": path}


# The compare report's top-level keys, in the order the JSON lists them.
REPORT_KEYS = [
    "nri_hard", "nri_smooth", "mnri_hard", "mnri_smooth", "mad", "scaled_mad",
    "mad_cross_term", "sign_inner", "sign_norm", "ties", "scale", "mnri_test",
    "nri_test_legacy", "mode", "n", "n_events", "n_train", "link", "columns", "version",
]


class TestCompare:
    def test_report_round_trips(self, demo_csv, capsys):
        code, out, _ = run(
            capsys,
            ["compare", demo_csv, "--outcome", "status", "--base", "age", "--new", "noise"],
        )
        assert code == 0
        report = json.loads(out)
        assert json.dumps(report, indent=2) + "\n" == out
        assert list(report) == REPORT_KEYS
        for block in ("mnri_test", "nri_test_legacy"):
            assert list(report[block]) == ["statistic", "reference", "p_value", "notes"]
        assert list(report["columns"]) == ["outcome", "base", "new", "spline"]
        assert report["mode"] == "single"
        assert report["n"] == 240
        assert report["columns"]["outcome"] == "status"
        assert 0.0 <= report["mnri_test"]["p_value"] <= 1.0
        assert "invalid" in report["nri_test_legacy"]["notes"]

    @pytest.mark.parametrize("case", ["single", "single-negative", "train_test-q1",
                                      "train_test-q2"])
    def test_references_give_p_values(self, case, tmp_path, capsys, monkeypatch):
        # Each reference is pinned in its written key order, and its p-value
        # is recomputed from the parsed JSON by the README's recipe, exactly.
        # No fit tried gives a negative single-sample statistic, so one is
        # made by negating the statistics the report is built from.
        train, test = write_marker_cohorts(tmp_path)
        q = 2 if case.endswith("q2") else 1
        argv = ["compare", train, "--outcome", "y", "--base", "age",
                "--new", "m1,m2" if q == 2 else "m1"]
        if case.startswith("train_test"):
            argv += ["--test-file", test]
        if case == "single-negative":
            build_report = reclass.build_report

            def negated(fits):
                stats = build_report(fits)
                return dataclasses.replace(stats, mnri_smooth=-stats.mnri_smooth)

            monkeypatch.setattr(reclass, "build_report", negated)
        code, out, _ = run(capsys, argv)
        assert code == 0
        report = json.loads(out)
        mnri_kind = "chisq_mixture" if case.startswith("train_test") else "scaled_chisq"
        kinds = {"mnri_test": mnri_kind, "nri_test_legacy": "normal"}
        for block, kind in kinds.items():
            t, reference = report[block]["statistic"], report[block]["reference"]
            assert reference["kind"] == kind
            if kind == "scaled_chisq":
                assert list(reference) == ["kind", "k", "q"]
                assert type(reference["q"]) is int
                assert reference["q"] == q
                assert (t < 0) == (case == "single-negative")
                p_value = numerics.chisq_sf(max(t, 0) / reference["k"], reference["q"])
            elif kind == "chisq_mixture":
                assert list(reference) == ["kind", "scale", "weights"]
                assert len(reference["weights"]) == 2 * q
                p_value = numerics.mixture_tail(t, reference["weights"], reference["scale"])
            else:
                assert list(reference) == ["kind", "variance"]
                p_value = 2 * numerics.norm_cdf(-abs(t) / math.sqrt(reference["variance"]))
            assert p_value == report[block]["p_value"]

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
        single = json.loads(single_out)
        paired = json.loads(pair_out)
        assert paired["mode"] == "train_test"
        assert paired["n_train"] == 240
        assert paired["mnri_test"]["statistic"] == pytest.approx(
            single["mnri_test"]["statistic"], abs=1e-12
        )
        # One sample on both sides: equal gamma covariances give the exact
        # +/-1 pair, and the training coefficients are the test fits' own.
        assert paired["mnri_test"]["reference"]["weights"] == [1.0, -1.0]
        for name in ("nri_hard", "nri_smooth", "mnri_hard", "mnri_smooth"):
            assert paired[name] == pytest.approx(single[name], rel=1e-12, abs=1e-15)
        for test in ("mnri_test", "nri_test_legacy"):
            assert paired[test]["statistic"] == pytest.approx(
                single[test]["statistic"], rel=1e-12
            )

    def test_two_new_columns_train_test_tail(self, tmp_path, capsys):
        # Two new covariates give two +/- pairs of mixture weights; with a
        # strong signal the p-value lies far below 1e-12.
        paths = write_marker_cohorts(tmp_path)
        code, out, _ = run(capsys, ["compare", paths[0], "--outcome", "y", "--base", "age",
                                    "--new", "m1,m2", "--test-file", paths[1]])
        assert code == 0
        result = json.loads(out)["mnri_test"]
        statistic, reference = result["statistic"], result["reference"]
        scale, weights = reference["scale"], reference["weights"]
        assert weights[1] == -weights[0] and weights[3] == -weights[2]
        exact = two_pair_tail(statistic, scale * weights[0], scale * weights[2])
        assert 0.0 < result["p_value"] < 1e-12
        assert abs(result["p_value"] - exact) <= 1e-9 * exact

    def test_classical_scale_doubles_statistics(self, demo_csv, capsys):
        argv = ["compare", demo_csv, "--outcome", "status", "--base", "age", "--new", "noise"]
        _, half_out, _ = run(capsys, argv)
        _, classical_out, _ = run(capsys, argv + ["--classical-scale"])
        half = json.loads(half_out)
        classical = json.loads(classical_out)
        assert half["scale"] == "half" and classical["scale"] == "classical"
        for name in ("nri_hard", "nri_smooth", "mnri_hard", "mnri_smooth", "scaled_mad"):
            assert classical[name] == pytest.approx(2 * half[name])
        assert classical["mad"] == half["mad"]
        # test statistics stay on the half scale
        assert classical["mnri_test"] == half["mnri_test"]

    def test_spline_expansion_runs(self, demo_csv, capsys):
        code, out, _ = run(
            capsys,
            [
                "compare", demo_csv, "--outcome", "status", "--base", "age",
                "--new", "marker", "--spline", "marker=4",
            ],
        )
        assert code == 0
        report = json.loads(out)
        assert report["columns"]["spline"] == {"marker": 4}

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

    @pytest.mark.parametrize(
        "content, argv, message",
        [
            ("", [], "{path}: empty file"),
            ("y,x,x\n0,1,2\n", [], "{path}: duplicate column names in header"),
            ("y,x,z\n0,1,2\n1,2\n", [], "{path}:3: expected 3 fields"),
            (GOOD_CSV, ["--new", ""], "compare needs at least one --new column"),
            (GOOD_CSV, ["--new", "x"], "outcome, base, and new column names must be distinct"),
            (GOOD_CSV, ["--spline", "w=4"], "spline column 'w' is not among the base/new columns"),
            (GOOD_CSV, ["--spline", "x4"], "--spline expects COL=KNOTS, got 'x4'"),
            (GOOD_CSV, ["--spline", "x=four"],
             "--spline knot count must be an integer, got 'four'"),
            (None, ["simulate", "--n", "200,abc", "--pi0", "0.5", "--mu-x", "0.25", "--rho", "0"],
             "expected a comma-separated list of integers, got '200,abc'"),
        ],
        ids=[
            "empty-file", "duplicate-header", "ragged-row", "no-new", "names-not-distinct",
            "spline-outside-model", "spline-no-equals", "spline-non-integer", "simulate-bad-n",
        ],
    )
    def test_data_error_message(self, tmp_path, capsys, content, argv, message):
        path = tmp_path / "f.csv"
        if content is not None:
            path.write_text(content)
            argv = ["compare", str(path), "--outcome", "y", "--base", "x", "--new", "z", *argv]
        code, out, err = run(capsys, argv)
        assert code == 2
        assert out == ""
        assert err == "error: " + message.format(path=path) + "\n"

    @pytest.mark.parametrize("flags", [["marker=4,marker=5"], ["marker=4", "marker=4"]])
    def test_spline_column_named_twice(self, demo_csv, capsys, flags):
        argv = ["compare", demo_csv, "--outcome", "status", "--base", "age", "--new", "marker"]
        for flag in flags:
            argv += ["--spline", flag]
        code, out, err = run(capsys, argv)
        assert code == 2
        assert out == ""
        assert err == "error: --spline names column 'marker' twice\n"

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

    def test_collinear_test_columns_are_fit_error(self, tmp_path, capsys):
        # The test file's new columns are nearly collinear at 1/1000 of the
        # training file's scale. The test file compares alone, but in the
        # training sample's scale its information fails the pivot rule.
        paths = []
        for name, seed, collinear in (("train", 1, False), ("test", 2, True)):
            rng = np.random.default_rng(seed)
            x, z1, noise = rng.standard_normal((3, 2000))
            y = (rng.random(2000) < 1.0 / (1.0 + np.exp(-x))).astype(float)
            z2 = 1e-3 * (z1 + 3e-4 * noise) if collinear else z1 + 0.5 * noise
            columns = {"y": y, "x": x, "z1": z1, "z2": z2}
            paths.append(write_columns(tmp_path / f"{name}.csv", columns))
        options = ["--outcome", "y", "--base", "x", "--new", "z1,z2"]
        assert run(capsys, ["compare", paths[1], *options])[0] == 0
        code, out, err = run(capsys, ["compare", paths[0], *options, "--test-file", paths[1]])
        assert (code, out) == (3, "")
        assert err.startswith("fit error: expanded model: ")
        assert "Cholesky pivot" in err

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

    def test_train_test_spline_takes_training_knots(self, tmp_path, capsys):
        # The marker's quantiles differ between the files, so knots placed on
        # the test file would give another design; the report must be the
        # one built on the training file's knots, to the last bit.
        rng = np.random.default_rng(303)
        samples = {}
        for name, (centre, spread) in {"train": (0.0, 1.0), "test": (3.0, 2.0)}.items():
            age, noise = rng.standard_normal((2, 400))
            marker = centre + spread * noise
            probs = 1.0 / (1.0 + np.exp(-(-0.3 + 0.6 * age + 0.4 * noise + 0.5 * noise**2)))
            y = (rng.random(400) < probs).astype(float)
            samples[name] = {"y": y, "age": age, "marker": marker}
        paths = [write_columns(tmp_path / f"{name}.csv", cols) for name, cols in samples.items()]
        code, out, err = run(capsys, [
            "compare", paths[0], "--outcome", "y", "--base", "age", "--new", "marker",
            "--spline", "marker=4", "--test-file", paths[1],
        ])
        assert (code, err) == (0, "")
        report = json.loads(out)

        knots = default_knots(samples["train"]["marker"], 4)
        assert (abs(knots - default_knots(samples["test"]["marker"], 4)) > 0.5).all()
        train_fits, test_fits = (
            glm.fit_nested(Dataset(
                y=cols["y"], x=np.column_stack([np.ones(400), cols["age"]]),
                z=rcs_basis(cols["marker"], knots),
            ), glm.LOGIT)
            for cols in samples.values()
        )
        pair = reclass.TrainTestPair(train_fits=train_fits, test_fits=test_fits)
        stats = reclass.half_nris(pair)
        for block, result in (
            ("mnri_test", inference.test_mnri_train_test(pair, stats)),
            ("nri_test_legacy", inference.test_nri_normal_legacy(pair, stats)),
        ):
            assert report[block] == json.loads(json.dumps(dataclasses.asdict(result)))
        assert len(report["mnri_test"]["reference"]["weights"]) == 6

    @pytest.mark.parametrize("offset", [1e6, 1.7e9])
    def test_offset_base_column_in_train_test_mode(self, tmp_path, capsys, offset):
        # A base column offset far beyond its unit spread fits in standardized
        # columns, where the train/test reference also reads the information.
        # The shifted ages themselves round at offset * eps, so only the
        # smaller offset is held to the unshifted p-value.
        p_values = []
        for shift in (0.0, offset):
            paths = [
                write_columns(tmp_path / f"{tag}_{shift}.csv", {**cols, "age": cols["age"] + shift})
                for tag, cols in (("train", invariance_cohort(7)), ("test", invariance_cohort(8)))
            ]
            code, out, err = run(capsys, [
                "compare", paths[0], "--outcome", "y", "--base", "age,bmi", "--new", "m1,m2",
                "--test-file", paths[1],
            ])
            assert (code, err) == (0, "")
            report = json.loads(out)
            assert report["mode"] == "train_test"
            p_values.append(report["mnri_test"]["p_value"])
        if offset == 1e6:
            assert abs(p_values[1] - p_values[0]) <= 1e-8 * p_values[0], p_values

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


def cohort_lines(rows=400):
    """Header and data lines of an ID, a 0/1 outcome and two covariates; 400
    rows take the file past 8 KiB."""
    rng = np.random.default_rng(17)
    cells = rng.standard_normal((rows, 2))
    return ["id,y,a,b"] + [f"{i + 1},{i % 2},{a:.6f},{b:.6f}" for i, (a, b) in enumerate(cells)]


def as_bytes(lines, end="\n"):
    return "".join(line + end for line in lines).encode()


def with_cell(lines, line, field, value):
    """``lines`` with field ``field`` of line ``line`` (0 is the header) replaced."""
    fields = lines[line].split(",")
    fields[field] = value
    return [*lines[:line], ",".join(fields), *lines[line + 1:]]


def cell_file(value):
    return lambda lines: as_bytes(with_cell(lines, 12, 2, value))


def latin1_past_8k(lines):
    head = as_bytes(lines[:-1])
    assert len(head) > 8192
    return head + b"\xe9" + as_bytes(lines[-1:])


# name: (file content from cohort_lines(), whether the fast path vouches for it)
FAST_PATH_INPUTS = {
    "plain": (as_bytes, True),
    "crlf": (lambda lines: as_bytes(lines, "\r\n"), True),
    "utf8-bom": (lambda lines: b"\xef\xbb\xbf" + as_bytes(lines), True),
    "blank-line-mid": (lambda lines: as_bytes([*lines[:50], "", *lines[50:]]), False),
    "blank-line-end": (lambda lines: as_bytes([*lines, ""]), False),
    "cr-only": (lambda lines: as_bytes(lines, "\r"), False),
    "mixed-newlines": (
        lambda lines: "".join(
            line + ("\r" if i % 5 == 3 else "\n") for i, line in enumerate(lines)
        ).encode(),
        False,
    ),
    "no-final-newline": (lambda lines: as_bytes(lines)[:-1], True),
    "trailing-cr": (lambda lines: as_bytes(lines) + b"\r", False),
    "quoted-numbers": (
        lambda lines: as_bytes(with_cell(with_cell(lines, 12, 2, '"0.25"'), 13, 1, '"0"')),
        False,
    ),
    "quoted-embedded-newline": (cell_file('"0.25\n"'), False),
    "nan": (cell_file("nan"), False),
    "-Infinity": (cell_file("-Infinity"), False),
    "1e400": (cell_file("1e400"), False),
    "underscore": (cell_file("1_000"), False),
    "arabic-indic-digits": (cell_file("\u0661\u0662"), False),
    "em-space-padded": (cell_file("\u20030.25\u2003"), False),
    "unit-separator-padded": (cell_file("0.25\x1f"), False),
    "empty-field": (cell_file(""), False),
    "blank-field": (cell_file("  "), False),
    "short-row": (lambda lines: as_bytes([*lines[:12], "13,0,0.5", *lines[13:]]), False),
    "long-row": (lambda lines: as_bytes([*lines[:12], lines[12] + ",0.5", *lines[13:]]), False),
    "open-quote-header": (lambda lines: as_bytes(['id,y,a,"b', *lines[1:]]), False),
    "text-id": (lambda lines: as_bytes([lines[0], *("s" + line for line in lines[1:])]), False),
    "latin-1-past-8k": (latin1_past_8k, False),
    "header-only": (lambda lines: as_bytes(lines[:1]), False),
    "oversized-field": (cell_file("0" * csv.field_size_limit() + "1"), False),
}


def column_first(lines, j):
    """``lines`` with field ``j`` of every line moved to the front."""
    rows = [line.split(",") for line in lines]
    return [",".join([row[j], *row[:j], *row[j + 1:]]) for row in rows]


class TestByteOrderMark:
    """A UTF-8 byte-order mark, as Excel's "CSV UTF-8" writes, is not part
    of the first column's name."""

    @pytest.mark.parametrize("text_id", [False, True], ids=["fast-path", "text-column"])
    def test_first_column_is_found(self, tmp_path, capsys, text_id):
        lines = column_first(cohort_lines(), 1)  # y, id, a, b
        if text_id:
            lines = with_cell(lines, 7, 1, "s7")
        plain, marked = tmp_path / "plain.csv", tmp_path / "marked.csv"
        plain.write_bytes(as_bytes(lines))
        marked.write_bytes(b"\xef\xbb\xbf" + as_bytes(lines))
        assert (cli._read_numeric(str(marked)) is None) == text_id
        args = ["--outcome", "y", "--base", "a", "--new", "b"]
        code, out, err = run(capsys, ["compare", str(marked), *args])
        assert (code, err) == (0, "")
        assert out == run(capsys, ["compare", str(plain), *args])[1]

    def test_spline_on_first_column(self, tmp_path, capsys):
        lines = column_first(cohort_lines(60), 2)  # a, id, y, b
        plain, marked = tmp_path / "plain.csv", tmp_path / "marked.csv"
        plain.write_bytes(as_bytes(lines))
        marked.write_bytes(b"\xef\xbb\xbf" + as_bytes(lines))
        code, out, err = run(capsys, ["spline", str(marked), "--column", "a", "--knots", "4"])
        assert (code, err) == (0, "")
        assert out == run(capsys, ["spline", str(plain), "--column", "a", "--knots", "4"])[1]


def read_fast(directory, cells):
    """The fast path's read of a file whose column v holds ``cells``."""
    path = directory / "cells.csv"
    rows = "".join(f"{i % 2},{cell}\n" for i, cell in enumerate(cells))
    path.write_bytes(("y,v\n" + rows).encode())
    return cli._read_numeric(str(path))


def assert_same_doubles(got, cells):
    expected = np.array([float(cell) for cell in cells])
    assert got.flags["C_CONTIGUOUS"]
    np.testing.assert_array_equal(got.view(np.uint64), expected.view(np.uint64))


class TestFastPath:
    @pytest.mark.parametrize("name", list(FAST_PATH_INPUTS))
    def test_matches_string_parser(self, tmp_path, capsys, monkeypatch, name):
        build, vouches = FAST_PATH_INPUTS[name]
        path = tmp_path / "cohort.csv"
        path.write_bytes(build(cohort_lines()))
        assert (cli._read_numeric(str(path)) is not None) == vouches
        argv = ["compare", str(path), "--outcome", "y", "--base", "a", "--new", "b"]
        assert run(capsys, argv) == run_fallback(capsys, monkeypatch, argv)

    def test_columns_are_float_arrays(self, tmp_path):
        path = tmp_path / "cohort.csv"
        path.write_bytes(as_bytes(cohort_lines(5)))
        header, columns = cli._read_table(str(path))
        assert header == ["id", "y", "a", "b"]
        assert columns["id"].tolist() == [1.0, 2.0, 3.0, 4.0, 5.0]
        assert all(column.flags["C_CONTIGUOUS"] for column in columns.values())
        assert cli._numeric_column(columns, "a", str(path)) is columns["a"]

    def test_columns_do_not_share_memory(self, tmp_path):
        # A Dataset keeps the outcome column; it must not keep the whole table.
        path = tmp_path / "cohort.csv"
        path.write_bytes(as_bytes(cohort_lines(5)))
        columns = list(cli._read_numeric(str(path))[1].values())
        for i, column in enumerate(columns):
            assert column.base is None
            assert not any(np.shares_memory(column, other) for other in columns[i + 1:])

    @pytest.mark.parametrize(
        "content",
        [b"y,a,b\n", b"y,a,b\r", b"y,a,b\n\n\n", b"y,a,b\r0,1,2\r1,2,3\r"],
        ids=["header-only", "header-only-cr", "blank-lines-only", "cr-only"],
    )
    def test_no_loader_warning(self, tmp_path, capsys, monkeypatch, content):
        path = tmp_path / "f.csv"
        path.write_bytes(content)
        argv = ["compare", str(path), "--outcome", "y", "--base", "a", "--new", "b"]
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            shipped = run(capsys, argv)
        assert [str(w.message) for w in caught] == []
        assert shipped == run_fallback(capsys, monkeypatch, argv)

    @pytest.mark.parametrize(
        "content, message",
        [(b"y,a,b\n", "{path}: no data rows"), (b"y,a,b\n\n", "{path}:2: expected 3 fields")],
        ids=["header-only", "blank-lines-only"],
    )
    def test_stderr_is_the_error_alone(self, tmp_path, content, message):
        path = tmp_path / "f.csv"
        path.write_bytes(content)
        argv = ["compare", str(path), "--outcome", "y", "--base", "a", "--new", "b"]
        done = subprocess.run(
            [sys.executable, "-m", "mnri.cli", *argv], env=cli_env(), capture_output=True,
            text=True,
        )
        assert done.returncode == 2
        assert done.stdout == ""
        assert done.stderr == "error: " + message.format(path=path) + "\n"

    @settings(max_examples=200, deadline=None)
    @given(
        values=st.lists(
            st.floats(allow_nan=False, allow_infinity=False), min_size=1, max_size=20
        ),
        style=st.sampled_from([repr, "%.17g".__mod__, "%.6g".__mod__, "%e".__mod__]),
    )
    def test_formatted_floats_parse_as_float_does(self, tmp_path_factory, values, style):
        cells = [style(value) for value in values]
        table = read_fast(tmp_path_factory.mktemp("formatted"), cells)
        assert table is not None
        assert_same_doubles(table[1]["v"], cells)

    @settings(max_examples=300, deadline=None)
    @given(cells=st.lists(st.text(alphabet="0123456789+-.eE \t", max_size=6), min_size=1,
                          max_size=8))
    def test_vouches_exactly_where_float_parses(self, tmp_path_factory, cells):
        table = read_fast(tmp_path_factory.mktemp("cells"), cells)
        try:
            finite = all(math.isfinite(float(cell)) for cell in cells)
        except ValueError:
            finite = False
        assert (table is not None) == finite
        if finite:
            assert_same_doubles(table[1]["v"], cells)


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
        inproc = json.loads(out_inproc)
        pre = json.loads(out_pre)
        assert pre["mnri_test"]["statistic"] == pytest.approx(
            inproc["mnri_test"]["statistic"], rel=1e-9
        )
        assert pre["mnri_hard"] == pytest.approx(inproc["mnri_hard"], rel=1e-9)

    def test_echoes_raw_cells(self, tmp_path, capsys):
        cells = [f"{1.5 + 0.25 * i:.4f}" for i in range(40)] + ["62.0", "1.5000"]
        rows = [[str(i % 2), cell] for i, cell in enumerate(cells)]
        path = tmp_path / "raw.csv"
        write_csv(path, ["y", "v"], rows)
        code, out, _ = run(capsys, ["spline", str(path), "--column", "v"])
        assert code == 0
        assert [row[:2] for row in csv.reader(out.splitlines()[2:])] == rows
        assert "\n0,62.0,62.0," in out and "\n1,1.5000,1.5," in out

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

    def test_identical_bytes_across_workers(self, capsys):
        argv = [
            "simulate", "--n", "200,300", "--pi0", "0.25,0.5", "--mu-x", "0.25",
            "--rho", "0", "--reps", "6", "--seed", "3",
        ]
        code, out1, _ = run(capsys, argv + ["--workers", "1"])
        assert code == 0
        _, out2, _ = run(capsys, argv + ["--workers", "2"])
        assert out1 == out2

    # The CSV text of one small grid per mode, recorded before the simulate
    # chunks became stacked arrays: a nearly separated n = 60 cell with
    # redraws inside the 1% budget, rho != 0, and a second n. Rates are counts
    # over replicates, so the text does not hang on the last bits of a fit.
    PINNED = {
        "single": (("0.2", "2.0"), [
            "60,0.2,2.0,0.3,single,enforced,200,0.05,901,0.05,0.28,"
            "0.015411035007422441,0.03174901573277509,2",
            "200,0.2,2.0,0.3,single,enforced,200,0.05,901,0.04,0.23,"
            "0.013856406460551017,0.02975735203273302,0",
        ]),
        "train_test": (("0.15", "1.8"), [
            "60,0.15,1.8,0.3,train_test,enforced,200,0.05,901,0.04,0.215,"
            "0.013856406460551017,0.029049526674285075,2",
            "200,0.15,1.8,0.3,train_test,enforced,200,0.05,901,0.04,0.11,"
            "0.013856406460551017,0.022124646889837587,0",
        ]),
    }

    @pytest.mark.parametrize("workers", ["1", "2"])
    @pytest.mark.parametrize("mode", ["single", "train_test"])
    def test_pinned_grid_text(self, capsys, mode, workers):
        (pi0, mu_x), rows = self.PINNED[mode]
        code, out, _ = run(capsys, [
            "simulate", "--mode", mode, "--n", "60,200", "--pi0", pi0, "--mu-x", mu_x,
            "--rho", "0.3", "--reps", "200", "--seed", "901", "--workers", workers,
        ])
        assert code == 0
        header = ("n,pi0,mu_x,rho,mode,null_style,replicates,alpha,seed,mnri_rejection_rate,"
                  "nri_normal_rejection_rate,mnri_mc_se,nri_mc_se,redraws")
        assert out == "\n".join([header, *rows]) + "\n"

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

    @pytest.mark.parametrize("existing", [None, b"kept\n"], ids=["new", "existing"])
    def test_failed_run_leaves_out_as_it_was(self, tmp_path, capsys, existing):
        target = tmp_path / "sim.csv"
        if existing is not None:
            target.write_bytes(existing)
        code, out, _ = run(
            capsys,
            ["simulate", "--n", "50", "--pi0", "0.02", "--mu-x", "0",
             "--rho", "0", "--reps", "20", "--out", str(target)],
        )
        assert code == 3
        assert out == ""
        if existing is None:
            assert not target.exists()
        else:
            assert target.read_bytes() == existing

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

    def test_unwritable_out_fails_before_the_grid_runs(self, monkeypatch, tmp_path, capsys):
        def never(*args, **kwargs):
            raise AssertionError("run_grid called")

        monkeypatch.setattr(cli.sim, "run_grid", never)
        target = tmp_path / "missing" / "x.csv"
        code, out, err = run(capsys, self.BASE + ["--out", str(target)])
        assert code == 2
        assert out == ""
        assert err == (
            f"error: cannot write {target}: [Errno 2] No such file or directory: '{target}'\n"
        )

    def test_failed_run_leaves_existing_out_untouched(self, monkeypatch, tmp_path, capsys):
        def fail(*args, **kwargs):
            raise ExcessiveFitFailures("too many redraws")

        monkeypatch.setattr(cli.sim, "run_grid", fail)
        target = tmp_path / "rates.csv"
        target.write_bytes(b"previous,run\n1,2\n")
        code, out, err = run(capsys, self.BASE + ["--out", str(target)])
        assert code == 3
        assert out == ""
        assert err == "fit error: too many redraws\n"
        assert target.read_bytes() == b"previous,run\n1,2\n"


def invariance_cohort(seed, n=400):
    """Columns of a cohort with two base and two new covariates, one of them
    informative, by name in file order."""
    rng = np.random.default_rng(seed)
    age, bmi, m1, m2 = rng.standard_normal((4, n))
    probs = 1.0 / (1.0 + np.exp(-(-0.4 + 0.8 * age + 0.3 * bmi + 0.6 * m1)))
    y = (rng.random(n) < probs).astype(int)
    return {"y": y, "age": age, "bmi": bmi, "m1": m1, "m2": m2}


def write_columns(path, columns, rows=None):
    """Write ``columns`` as a CSV, its rows in the order ``rows`` gives."""
    table = np.column_stack(list(columns.values()))
    write_csv(path, list(columns), (table if rows is None else table[rows]).tolist())
    return str(path)


def invariant_numbers(out):
    """The four half-NRIs and the mNRI test's statistic and p-value."""
    report = json.loads(out)
    test = report["mnri_test"]
    return [report[name] for name in ("nri_hard", "nri_smooth", "mnri_hard", "mnri_smooth")] + [
        test["statistic"], test["p_value"],
    ]


def assert_same_numbers(out, expected_out):
    for got, want in zip(invariant_numbers(out), invariant_numbers(expected_out)):
        assert abs(got - want) <= 1e-10 * abs(want), (got, want)


# A change of units and origin a * value + b: |a| from 1e-4 to 1e4, either
# sign, and an origin up to 1e4 spreads of the recoded column away.
AFFINE_RECODING = st.builds(
    lambda sign, power, origin: (sign * 10.0**power, origin * 10.0**power),
    st.sampled_from([-1.0, 1.0]), st.floats(-4.0, 4.0), st.floats(-1e4, 1e4),
)


@pytest.mark.parametrize("link", ["logit", "probit"])
class TestCompareInvariance:
    """``compare`` gives the same statistics and mNRI test whatever the row
    order, the order and names of the columns, the labelling of the
    outcome (y -> 1 - y negates both the residuals and the score change)
    and the units and origin of each covariate."""

    def compare(self, path, link, outcome="y", base="age,bmi", new="m1,m2", test_file=None,
                extra=()):
        argv = ["compare", path, "--outcome", outcome, "--base", base, "--new", new,
                "--link", link, *extra]
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv + (["--test-file", test_file] if test_file else []))
        assert (code, err.getvalue()) == (0, "")
        return out.getvalue()

    # Each covariate recoded as a * value + b, as a change of units and origin
    # (a calendar year, a marker in other units) recodes it.
    AFFINE = {"age": (1.0, 2000.0), "bmi": (1e4, 50.0), "m1": (1e-4, 0.0), "m2": (1.0, -300.0)}
    # New covariates whose units differ by 10^12, which puts the diagonals of
    # their information far apart.
    WIDE = {"m1": (1e6, 0.0), "m2": (1e-6, 0.0)}

    def recode(self, columns, affine=AFFINE):
        return {**columns, **{name: a * columns[name] + b for name, (a, b) in affine.items()}}

    @settings(max_examples=20, deadline=None)
    @given(draw=st.data())
    @pytest.mark.parametrize(
        "change", ["shuffle-rows", "permute-columns", "relabel-outcome", "affine"]
    )
    def test_single_sample(self, tmp_path_factory, link, change, draw):
        columns = invariance_cohort(draw.draw(st.integers(0, 2**16), label="cohort"))
        directory = tmp_path_factory.mktemp("single")
        expected = self.compare(write_columns(directory / "a.csv", columns), link)
        path, names = directory / "b.csv", {}
        if change == "shuffle-rows":
            write_columns(path, columns, draw.draw(st.permutations(range(400)), label="rows"))
        elif change == "permute-columns":
            order = draw.draw(st.permutations(list(columns)), label="order")
            write_columns(path, {f"c_{name}": columns[name] for name in order})
            names = dict(outcome="c_y", base="c_bmi,c_age", new="c_m2,c_m1")
        elif change == "relabel-outcome":
            write_columns(path, {**columns, "y": 1 - columns["y"]})
        else:
            affine = {name: draw.draw(AFFINE_RECODING, label=name)
                      for name in ("age", "bmi", "m1", "m2")}
            write_columns(path, self.recode(columns, affine))
        assert_same_numbers(self.compare(str(path), link, **names), expected)

    @pytest.mark.parametrize("mode", ["single", "train_test"])
    def test_affine_with_spline(self, tmp_path, link, mode):
        spline = ["--spline", "age=4"]
        train, test = invariance_cohort(7), invariance_cohort(8)
        outs = []
        for tag, recode in (("raw", dict), ("recoded", self.recode)):
            test_file = None
            if mode == "train_test":
                test_file = write_columns(tmp_path / f"test_{tag}.csv", recode(test))
            path = write_columns(tmp_path / f"train_{tag}.csv", recode(train))
            outs.append(self.compare(path, link, test_file=test_file, extra=spline))
        assert json.loads(outs[1])["mode"] == mode
        assert_same_numbers(outs[1], outs[0])

    def test_train_test_wide_units(self, tmp_path, link):
        train, test = invariance_cohort(7), invariance_cohort(8)
        outs = []
        for tag, affine in (("raw", {}), ("wide", self.WIDE)):
            outs.append(self.compare(
                write_columns(tmp_path / f"train_{tag}.csv", self.recode(train, affine)),
                link, test_file=write_columns(tmp_path / f"test_{tag}.csv", self.recode(test, affine)),
            ))
        assert json.loads(outs[1])["mode"] == "train_test"
        assert_same_numbers(outs[1], outs[0])

    def test_library_weights_match_compare(self, tmp_path, link):
        # mixture_weights takes the raw information blocks, in any units,
        # and gives the weights compare writes, bit for bit.
        train, test = (self.recode(invariance_cohort(seed), self.WIDE) for seed in (7, 8))
        out = self.compare(
            write_columns(tmp_path / "train.csv", train), link,
            test_file=write_columns(tmp_path / "test.csv", test),
        )

        def fits(columns):
            y, n = columns["y"], len(columns["y"])
            x = np.column_stack([np.ones(n), columns["age"], columns["bmi"]])
            z = np.column_stack([columns["m1"], columns["m2"]])
            return glm.fit_nested(Dataset(y=y, x=x, z=z), glm.Link(link))

        weights = inference.mixture_weights(
            glm.information_blocks(fits(test)), glm.information_blocks(fits(train))
        )
        assert weights.tolist() == json.loads(out)["mnri_test"]["reference"]["weights"]

    @settings(max_examples=20, deadline=None)
    @given(draw=st.data())
    def test_train_test_shuffled(self, tmp_path_factory, link, draw):
        seed = draw.draw(st.integers(0, 2**16), label="cohort")
        train, test = invariance_cohort(seed), invariance_cohort(seed + 1)
        directory = tmp_path_factory.mktemp("train_test")
        expected = self.compare(
            write_columns(directory / "train.csv", train), link,
            test_file=write_columns(directory / "test.csv", test),
        )
        rows = st.permutations(range(400))
        out = self.compare(
            write_columns(directory / "train_b.csv", train, draw.draw(rows, label="train rows")),
            link,
            test_file=write_columns(directory / "test_b.csv", test, draw.draw(rows, label="test rows")),
        )
        assert json.loads(out)["mode"] == "train_test"
        assert_same_numbers(out, expected)



def test_out_flag_writes_file(demo_csv, tmp_path, capsys):
    target = tmp_path / "report.json"
    code, out, _ = run(
        capsys,
        ["compare", demo_csv, "--outcome", "status", "--base", "age",
         "--new", "noise", "--out", str(target)],
    )
    assert code == 0
    assert out == ""
    assert json.loads(target.read_text())["version"] == __version__


@pytest.mark.parametrize("command", ["compare", "simulate"])
@pytest.mark.parametrize(
    "target, cause",
    [("missing/out.txt", "No such file or directory"), (".", "Is a directory")],
    ids=["missing-directory", "directory"],
)
def test_unwritable_out_is_data_error(demo_csv, tmp_path, capsys, command, target, cause):
    target = tmp_path / target
    if command == "compare":
        argv = ["compare", demo_csv, "--outcome", "status", "--base", "age", "--new", "noise"]
    else:
        argv = ["simulate", "--n", "200", "--pi0", "0.5", "--mu-x", "0.25", "--rho", "0",
                "--reps", "2"]
    code, out, err = run(capsys, argv + ["--out", str(target)])
    assert code == 2
    assert out == ""
    assert err.startswith(f"error: cannot write {target}: ")
    assert cause in err


def test_import_defers_quadrature():
    # The mixture tails need neither scipy's quadrature nor its root finders,
    # so starting the CLI must not pay for importing them.
    probe = ("import sys, mnri.cli; "
             "print([m in sys.modules for m in ('scipy.integrate', 'scipy.optimize')])")
    out = subprocess.run(
        [sys.executable, "-c", probe], env=cli_env(), capture_output=True, text=True,
        check=True,
    )
    assert out.stdout.strip() == "[False, False]"
