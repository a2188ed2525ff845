"""Self-test of the benchmark at a tiny workload size (about two minutes):

    python3 -m pytest bench/test_bench.py -q
"""
import csv
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH))

import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((BENCH.parent / "BENCHMARK.json").read_text(encoding="utf-8"))


def _units(section):
    return {metric["name"]: metric["unit"] for metric in SPEC[section]}


def _bench(workload, trace, cwd=BENCH.parent, script=BENCH / "run.py"):
    return subprocess.run(
        [sys.executable, str(script), "--workload", workload, "--seed", "5", "--seconds", "1",
         "--trace", str(trace), "--tiny"],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


def test_spec_names_what_the_benchmark_measures():
    assert [w["name"] for w in SPEC["workloads"]] == list(workloads.BENCHMARKED)
    assert _units("end_to_end") == run.END_TO_END
    assert _units("per_layer") == run.PER_LAYER


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_every_metric_is_printed_with_its_unit(workload, trace):
    proc = _bench(workload, trace)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    wanted = _units("per_layer" if trace else "end_to_end")
    assert {k: v["unit"] for k, v in result["metrics"].items()} == wanted
    for name, unit in wanted.items():
        assert any(line.startswith(f"{name} ") and line.endswith(f" {unit}") for line in lines)
    assert any(line.startswith("failed_frac 0 ") for line in lines)


def _corrupt_compare(path):
    report = json.loads(path.read_text(encoding="utf-8"))
    report["mnri_smooth"] *= 1.0 + 1e-6
    path.write_text(json.dumps(report), encoding="utf-8")


def _corrupt_simulate(path):
    with open(path, newline="", encoding="utf-8") as handle:
        rows = list(csv.DictReader(handle))
    reps = int(rows[0]["replicates"])
    rows[0]["mnri_rejection_rate"] = repr(float(rows[0]["mnri_rejection_rate"]) + 2 / reps)
    with open(path, "w", newline="", encoding="utf-8") as handle:
        writer = csv.DictWriter(handle, fieldnames=list(rows[0]))
        writer.writeheader()
        writer.writerows(rows)


@pytest.mark.parametrize(
    "workload, corrupt",
    [("compare_large", _corrupt_compare), ("sim_single", _corrupt_simulate)],
)
def test_one_corrupted_output_is_one_failure(workload, corrupt, monkeypatch, capsys):
    check = run.check_output
    corrupted = []

    def corrupt_first(call, path):
        if not corrupted:
            corrupt(path)
            corrupted.append(path)
        return check(call, path)

    monkeypatch.setattr(run, "check_output", corrupt_first)
    code = run.main(["--workload", workload, "--seed", "5", "--seconds", "1", "--tiny"])
    result = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert code == 1 and not result["correct"]
    assert result["failed"] == 1
    assert result["metrics"]["success_frac"]["value"] == 1 - 1 / result["attempted"] < 1


def test_p_value_tolerance_passes_tail_fixes_and_fails_broken_tests():
    want = {"statistic": 5e3, "reference": {"kind": "normal", "variance": 1.0}, "p_value": 0.0}
    fixed = dict(want, p_value=1e-300)
    assert workloads._check_test("t", fixed, want) == []
    broken = dict(want, p_value=0.5)
    assert workloads._check_test("t", broken, want)
    assert workloads._check_test("t", dict(want, p_value=-1e-300), want)


def test_self_time_excludes_other_layers_only():
    tree = [
        spans.Span("1.1", None, "cli.main", 0.0, 10.0, True, None),
        spans.Span("1.2", "1.1", "cli._read_table", 0.0, 2.0, True, 100),
        spans.Span("1.3", "1.1", "glm.fit_nested", 3.0, 9.0, True, None),
        spans.Span("1.4", "1.3", "glm.fit", 3.0, 5.0, True, 4),
        spans.Span("1.5", "1.4", "numerics.solve_spd", 4.0, 5.0, True, None),
        spans.Span("1.6", "1.5", "numerics.cholesky_spd", 4.0, 4.5, True, None),
    ]
    own = spans.self_times(tree)
    assert own == {"1.1": 4.0, "1.2": 2.0, "1.3": 5.0, "1.4": 1.0, "1.5": 1.0, "1.6": 0.5}
    metrics, problems = spans.layer_metrics(tree, workers=1)
    assert metrics["cli.self_s"] == 4.0 and metrics["numerics.solve_spd.self_s"] == 1.0
    assert metrics["cli.ingest_rows_per_s"] == 50.0
    assert problems == ["glm.fit calls in completed fit_nested calls (1) != 3 x 1"]


def test_refuses_to_run_without_the_sources(tmp_path):
    shutil.copytree(BENCH, tmp_path / BENCH.name, ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(BENCH.parent / "BENCHMARK.json", tmp_path)
    proc = _bench("sim_single", 0, cwd=tmp_path, script=tmp_path / BENCH.name / "run.py")
    assert proc.returncode != 0
    assert not proc.stdout.strip()
