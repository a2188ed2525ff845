"""Benchmark of the mnri CLI: simulate and compare throughput, with
outside-in layer tracing.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1 [--tiny]
    python3 -m pytest bench/test_bench.py -q       # self-test, tiny sizes

Run from the root of a source checkout: the package is imported from
``src``, nothing is installed or built. Workloads are defined in
``workloads.py``. Each run

1. measures set-up: a fresh interpreter importing ``mnri.cli``, several
   times (``--trace 1``: the ``-X importtime`` split instead);
2. writes the workload's inputs, made from ``--seed``, into a temporary
   directory inside the checkout, with the reference results they imply;
3. starts one fresh process (``child.py``) that repeats the workload's unit
   of ``cli.main`` calls until ``--seconds`` have passed; with
   ``--trace 1`` untraced and traced units alternate and the traced ones
   give the per-layer metrics (``tracer.py``, ``spans.py``);
4. checks every output against the reference, prints one line per metric
   with its unit, then the result as one JSON line, and writes the full
   record (host, raw samples, problems) to ``.bench_out/``. The exit code
   is 0 when every check passed.

End-to-end metrics (``--trace 0``). Times are normalized to a reference
host speed (``hostspeed.py``), because this kind of shared host drifts by
up to 2x; the raw wall-clock figures are printed and recorded beside them.

* ``setup_s``: median over fresh interpreters of ``import mnri.cli``.
* ``reps_per_s``: nested comparisons completed per second of ``cli.main``
  (a simulate replicate, or one ``compare`` call); each call of the unit
  counts with its median time over the run.
* ``rows_per_s``: data rows fitted per second of ``cli.main`` (input CSV
  rows for ``compare``; replicates x n, twice for train/test, for
  ``simulate``), timed the same way.
* ``peak_rss_mb``: peak resident memory of the process running the calls.
* ``success_frac``: 1 - failed_frac, where failed_frac is the share of
  calls that exited nonzero or failed their output check (printed too;
  a ratio that is 0 when all is well cannot carry a relative bound).

Children run with BLAS/OpenMP threads capped so that pool workers x BLAS
threads <= the CPUs this process may use. The host record (CPUs, CPU
model, L3 size, Python, numpy, scipy and BLAS versions) is printed first.
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import scipy

import hostspeed
import spans
import workloads

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SOURCE = ROOT / "src"

SETUP_IMPORTS = 5
IMPORTTIME_RUNS = 3
CHILD_SLACK_S = 150  # beyond --seconds, before a hung child is killed

END_TO_END = {
    "setup_s": "s",
    "reps_per_s": "replicates/s",
    "rows_per_s": "rows/s",
    "peak_rss_mb": "MiB",
    "success_frac": "ratio",
}
PER_LAYER = {
    "setup.scipy_import_s": "s",
    "setup.modules_loaded": "count",
    "cli.self_s": "s",
    "cli.ingest_rows_per_s": "rows/s",
    "sim.run_cell.calls": "count",
    "sim.run_cell.self_s": "s",
    "sim.gen_replicate.self_s": "s",
    "sim.redraws": "count",
    "sim.useful_attempt_ratio": "ratio",
    "sim.worker_busy_frac": "ratio",
    "glm.fit.calls": "count",
    "glm.fit.self_s": "s",
    "glm.fit.iterations_per_fit": "count",
    "glm.fit_nested.calls": "count",
    "glm.fit_nested.p50_ms": "ms",
    "glm.fit_nested.p90_ms": "ms",
    "numerics.solve_spd.calls": "count",
    "numerics.solve_spd.self_s": "s",
    "numerics.mixture_tail.calls": "count",
    "numerics.mixture_tail.self_s": "s",
    "numerics.mixture_tail.p50_ms": "ms",
    "numerics.mixture_tail.p90_ms": "ms",
    "glm.information_blocks.self_s": "s",
    "inference.test_mnri_single.self_s": "s",
    "inference.test_mnri_train_test.self_s": "s",
    "inference.test_nri_normal_legacy.self_s": "s",
    "inference.mixture_weights.self_s": "s",
    "reclass.self_s": "s",
    "reclass.calls": "count",
    "spline.rcs_basis.self_s": "s",
    "trace.overhead_frac": "ratio",
}
# Known call shapes: does the workload reach the mixture tail at all?
USES_MIXTURE_TAIL = {
    "sim_single": False,
    "sim_train_test": True,
    "sim_grid_parallel": False,
    "compare_large": True,
}


def cpu_count() -> int:
    return len(os.sched_getaffinity(0))


def host_record() -> dict:
    def first_line(path, prefix=""):
        try:
            with open(path, encoding="utf-8") as handle:
                for line in handle:
                    if line.startswith(prefix):
                        return line.split(":", 1)[-1].strip() if prefix else line.strip()
        except OSError:
            pass
        return "unknown"

    blas = np.__config__.CONFIG.get("Build Dependencies", {}).get("blas", {})
    return {
        "nproc": cpu_count(),
        "cpu_model": first_line("/proc/cpuinfo", "model name"),
        "l3_cache": first_line("/sys/devices/system/cpu/cpu0/cache/index3/size"),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name', 'unknown')} {blas.get('version', '')}".strip(),
    }


def child_env(workers: int) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SOURCE)
    threads = str(max(1, cpu_count() // max(1, workers)))
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = threads
    return env


def run_process(cmd, env, timeout=CHILD_SLACK_S) -> tuple[int, float, str]:
    """Run ``cmd`` in its own session; returns (exit code, wall s, stderr).
    On timeout the whole session, pool workers included, is killed."""
    start = time.perf_counter()
    proc = subprocess.Popen(
        cmd, env=env, cwd=ROOT, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE,
        start_new_session=True,
    )
    try:
        _, err = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        _, err = proc.communicate()
        return -1, time.perf_counter() - start, "timed out"
    except BaseException:  # interrupted: take the child's session down too
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        raise
    return proc.returncode, time.perf_counter() - start, err.decode(errors="replace")


def measure_setup() -> tuple[float, float]:
    """Median wall time of a fresh interpreter importing mnri.cli, at
    reference host speed and raw."""
    cmd = [sys.executable, "-c", "import mnri.cli"]
    env = child_env(1)
    raw, norm = [], []
    hostspeed.reference_s("small")  # warm up: the first run pays one-off costs
    reference = hostspeed.reference_s("small")
    for _ in range(SETUP_IMPORTS):
        code, wall, err = run_process(cmd, env)
        if code != 0:
            raise RuntimeError(f"import mnri.cli failed: {err.strip()}")
        reference_after = hostspeed.reference_s("small")
        raw.append(wall)
        norm.append(hostspeed.normalized(wall, reference, reference_after))
        reference = reference_after
    return statistics.median(norm), statistics.median(raw)


def measure_importtime() -> dict:
    """Self time of scipy's modules and the number of modules loaded by
    ``import mnri.cli``, from ``-X importtime`` (medians over runs)."""
    cmd = [sys.executable, "-X", "importtime", "-c", "import mnri.cli"]
    scipy_s, loaded = [], []
    for _ in range(IMPORTTIME_RUNS):
        code, _, err = run_process(cmd, child_env(1))
        if code != 0:
            raise RuntimeError(f"import mnri.cli failed: {err.strip()}")
        rows = [
            line.split("|")
            for line in err.splitlines()
            if line.startswith("import time:") and "imported package" not in line
        ]
        names = [row[2].strip() for row in rows]
        self_us = [int(row[0].split(":")[1]) for row in rows]
        scipy_s.append(
            sum(us for us, name in zip(self_us, names) if name.split(".")[0] == "scipy") / 1e6
        )
        loaded.append(len(rows))
    return {
        "setup.scipy_import_s": statistics.median(scipy_s),
        "setup.modules_loaded": statistics.median(loaded),
    }


def check_output(call: workloads.Call, path: Path) -> list[str]:
    return call.check(path)


def run_child(name: str, unit, workdir: Path, seconds: float, trace: int, workers: int):
    """Run the unit repeatedly in one fresh process, then check every
    output. Returns the units run and the child's peak RSS in KiB."""
    plan = workdir / "plan.json"
    plan.write_text(
        json.dumps(
            {"unit": [list(c.args) for c in unit], "seconds": seconds, "trace": trace,
             "reference": workloads.REFERENCE_MIX[name], "work_dir": str(workdir)}
        ),
        encoding="utf-8",
    )
    cmd = [sys.executable, str(BENCH / "child.py"), str(plan)]
    code, _, err = run_process(cmd, child_env(workers), timeout=seconds + CHILD_SLACK_S)
    stats_path = workdir / "stats.json"
    if code != 0 or not stats_path.is_file():
        failure = {"exit": code, "main_s": 0.0, "problems": [f"child exited {code}: {err[-800:]}"]}
        return [{"traced": False, "calls": [failure], "index": 0}], 0
    stats = json.loads(stats_path.read_text(encoding="utf-8"))
    ordered = [result for record in stats["units"] for result in record["calls"]]
    after = [result["reference_s"] for result in ordered[1:]] + [stats["reference_after_s"]]
    for result, reference_after in zip(ordered, after):
        result["norm_s"] = hostspeed.normalized(
            result["main_s"], result["reference_s"], reference_after
        )
    foreign = not Path(stats["module"]).resolve().is_relative_to(SOURCE.resolve())
    units = []
    for index, record in enumerate(stats["units"]):
        for i, (call, result) in enumerate(zip(unit, record["calls"])):
            result["problems"] = problems = []
            if foreign:
                problems.append(f"mnri imported from {stats['module']}, not {SOURCE}")
            if result["exit"] != 0:
                problems.append(f"exit code {result['exit']}: {result['error'] or ''}")
                continue
            try:
                problems += check_output(call, workdir / f"u{index}c{i}.out")
            except (OSError, ValueError, KeyError, TypeError) as exc:
                problems.append(f"unreadable output: {exc!r}")
        units.append(dict(record, index=index))
    return units, stats["maxrss_kb"]


def _complete(units, traced: bool, key: str = "norm_s"):
    """(unit, seconds) for each unit of this kind whose calls all passed."""
    return [
        (u, sum(r[key] for r in u["calls"]))
        for u in units
        if u["traced"] == traced and not any(r["problems"] for r in u["calls"])
    ]


def throughput(units, unit, key: str = "norm_s") -> dict:
    """Replicates and rows per second of ``cli.main``. Over the untraced
    units whose calls all passed, each call of the unit takes its median
    time, and the unit the sum of those."""
    timed = [u for u, _ in _complete(units, traced=False, key=key)]
    if not timed:
        return {}
    seconds = sum(statistics.median(u["calls"][i][key] for u in timed) for i in range(len(unit)))
    return {
        "reps_per_s": sum(call.reps for call in unit) / seconds,
        "rows_per_s": sum(call.rows for call in unit) / seconds,
    }


def per_layer(name: str, units, workdir: Path, workers: int) -> tuple[dict, list[str]]:
    traced = _complete(units, traced=True)
    plain = _complete(units, traced=False)
    if not traced or not plain:
        return {}, ["no complete traced and untraced unit pair"]
    samples, problems = [], []
    for record, _ in traced:
        found = spans.load(workdir / f"trace-{record['index']}")
        if not found:
            problems.append(f"no spans recorded for unit {record['index']}")
            continue
        metrics, shape = spans.layer_metrics(found, workers=workers)
        problems += shape
        samples.append(metrics)
    if not samples:
        return {}, problems
    out = {key: statistics.median(s[key] for s in samples) for key in samples[0]}
    out["trace.overhead_frac"] = (
        statistics.median(seconds for _, seconds in traced)
        / statistics.median(seconds for _, seconds in plain)
        - 1.0
    )
    tail_calls = out["numerics.mixture_tail.calls"]
    if USES_MIXTURE_TAIL[name] and tail_calls == 0:
        problems.append("numerics.mixture_tail was never called")
    if not USES_MIXTURE_TAIL[name] and tail_calls != 0:
        problems.append(f"numerics.mixture_tail called {tail_calls} times")
    return out, sorted(set(problems))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--tiny", action="store_true", help="shrink replicates and rows (self-test size)"
    )
    args = parser.parse_args(argv)

    if not (SOURCE / "mnri" / "cli.py").is_file():
        print(f"error: no mnri sources under {SOURCE}", file=sys.stderr)
        return 2

    workers = getattr(workloads.SIM_GRIDS.get(args.workload), "workers", 1)
    host = dict(host_record(), blas_threads=max(1, cpu_count() // workers))
    print("host " + json.dumps(host), flush=True)

    raw = {}
    if args.trace:
        setup = measure_importtime()
    else:
        setup_s, raw_setup_s = measure_setup()
        setup = {"setup_s": setup_s}

    scratch = ROOT / ".bench_tmp"
    scratch.mkdir(exist_ok=True)
    workdir = scratch / f"{args.workload}-{args.seed}-{os.getpid()}"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir()
    try:
        unit = workloads.make_unit(args.workload, args.seed, workdir, tiny=args.tiny)
        units, maxrss_kb = run_child(
            args.workload, unit, workdir, args.seconds, args.trace, workers
        )
        calls = [c for u in units for c in u["calls"]]
        attempted = len(calls)
        failed = sum(1 for c in calls if c["problems"])
        problems = [p for c in calls for p in c["problems"]]
        if args.trace:
            layers, shape = per_layer(args.workload, units, workdir, workers)
            problems += shape
            metrics = {**setup, **layers}
            wanted = PER_LAYER
        else:
            metrics = {
                "setup_s": setup_s,
                **throughput(units, unit),
                "peak_rss_mb": maxrss_kb / 1024.0,
                "success_frac": 1.0 - failed / attempted,
            }
            wanted = END_TO_END
            raw = {"setup_s": raw_setup_s, **throughput(units, unit, key="main_s")}
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    correct = not problems and set(metrics) == set(wanted)
    for problem in problems:
        print(f"problem: {problem}", file=sys.stderr)
    print(f"failed_frac {failed / attempted:.6g} ratio ({failed} of {attempted} calls)")
    for key, unit_name in wanted.items():
        if key in metrics:
            print(f"{key} {metrics[key]:.6g} {unit_name}")
    if raw:
        print("raw wall-clock " + json.dumps(raw))

    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "tiny": args.tiny, "host": host, "problems": problems,
        "metrics": metrics, "raw": raw, "units": units,
    }
    out_dir = ROOT / ".bench_out"
    out_dir.mkdir(exist_ok=True)
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    with open(out_dir / name, "w", encoding="utf-8") as handle:
        json.dump(record, handle, indent=1, default=str)

    result = {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            key: {"value": float(metrics[key]), "unit": unit_name}
            for key, unit_name in wanted.items()
            if key in metrics
        },
    }
    print(json.dumps(result), flush=True)
    return 0 if correct else 1


if __name__ == "__main__":
    # Let SIGTERM unwind like Ctrl-C, so children are killed and the
    # temporary directory is removed.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    sys.exit(main())
