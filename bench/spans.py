"""Per-layer metrics from the spans ``tracer.py`` writes.

A layer is an mnri module. A span's self time is its duration minus the
part of it covered by the spans it causes in *other* layers (reached
through calls within its own layer); calls inside one module are not a
layer boundary and count as that module's own work. So
``numerics.solve_spd`` includes its Cholesky factorization, and
``cli.self_s`` is ``cli.main`` minus the wrapped calls into other layers.
Spans of forked pool workers hang under the call that forked them, and
all processes share one monotonic clock, so ``sim.run_cell`` self time
excludes the time covered by any worker's fitting.
"""
from __future__ import annotations

import json
from collections import defaultdict
from dataclasses import dataclass
from pathlib import Path

import numpy as np


@dataclass(frozen=True)
class Span:
    id: str
    parent: str | None
    name: str
    start: float
    end: float
    ok: bool
    value: object

    @property
    def layer(self) -> str:
        return self.name.split(".", 1)[0]

    @property
    def duration(self) -> float:
        return self.end - self.start


def load(directory: Path) -> list[Span]:
    """All spans written into ``directory`` (one file per process)."""
    spans = []
    for path in sorted(directory.glob("spans-*.json")):
        with open(path, encoding="utf-8") as handle:
            spans += [Span(*row) for row in json.load(handle)["spans"]]
    return spans


def _covered(intervals, lo, hi) -> float:
    total, reach = 0.0, lo
    for start, end in sorted(intervals):
        start, end = max(start, reach), min(end, hi)
        if end > start:
            total += end - start
            reach = end
    return total


def self_times(spans: list[Span]) -> dict[str, float]:
    children = defaultdict(list)
    for span in spans:
        children[span.parent].append(span)
    out = {}
    for span in spans:
        boundary, frontier = [], list(children[span.id])
        while frontier:
            child = frontier.pop()
            if child.layer == span.layer:
                frontier += children[child.id]
            else:
                boundary.append((child.start, child.end))
        out[span.id] = span.duration - _covered(boundary, span.start, span.end)
    return out


def _quantile_ms(values, q) -> float:
    return float(np.quantile(values, q)) * 1e3 if values else 0.0


def layer_metrics(spans: list[Span], *, workers: int) -> tuple[dict[str, float], list[str]]:
    """Per-layer metrics of one traced unit, and every call-shape problem."""
    by_name = defaultdict(list)
    for span in spans:
        by_name[span.name].append(span)
    ids = {span.id: span for span in spans}
    own = self_times(spans)

    def self_of(name):
        return sum(own[s.id] for s in by_name[name])

    def layer_self(layer):
        # Outermost spans of the layer; nested same-layer time is in them.
        return sum(
            own[s.id]
            for s in spans
            if s.layer == layer and (s.parent not in ids or ids[s.parent].layer != layer)
        )

    def durations(name):
        return [s.duration for s in by_name[name]]

    ingest_rows = sum(s.value for s in by_name["cli._read_table"] if s.ok)
    ingest_s = sum(durations("cli._read_table")) + sum(durations("cli._numeric_column"))
    cells = [s.value for s in by_name["sim.run_cell"] if s.ok]
    reps = sum(c[0] for c in cells)
    redraws = sum(c[1] for c in cells)
    cell_s = sum(durations("sim.run_cell"))
    task_s = sum(durations("sim._replicate_rejections"))
    fits = [s for s in by_name["glm.fit"] if s.ok]

    m = {
        "cli.self_s": layer_self("cli"),
        "cli.ingest_rows_per_s": ingest_rows / ingest_s if ingest_s else 0.0,
        "sim.run_cell.calls": len(by_name["sim.run_cell"]),
        "sim.run_cell.self_s": self_of("sim.run_cell"),
        "sim.gen_replicate.self_s": self_of("sim.gen_replicate"),
        "sim.redraws": redraws,
        "sim.useful_attempt_ratio": reps / (reps + redraws) if reps else 0.0,
        "sim.worker_busy_frac": task_s / (workers * cell_s) if cell_s else 0.0,
        "glm.fit.calls": len(by_name["glm.fit"]),
        "glm.fit.self_s": self_of("glm.fit"),
        "glm.fit.iterations_per_fit": (
            sum(s.value for s in fits) / len(fits) if fits else 0.0
        ),
        "glm.fit_nested.calls": len(by_name["glm.fit_nested"]),
        "glm.fit_nested.p50_ms": _quantile_ms(durations("glm.fit_nested"), 0.5),
        "glm.fit_nested.p90_ms": _quantile_ms(durations("glm.fit_nested"), 0.9),
        "numerics.solve_spd.calls": len(by_name["numerics.solve_spd"]),
        "numerics.solve_spd.self_s": self_of("numerics.solve_spd"),
        "numerics.mixture_tail.calls": len(by_name["numerics.mixture_tail"]),
        "numerics.mixture_tail.self_s": self_of("numerics.mixture_tail"),
        "numerics.mixture_tail.p50_ms": _quantile_ms(durations("numerics.mixture_tail"), 0.5),
        "numerics.mixture_tail.p90_ms": _quantile_ms(durations("numerics.mixture_tail"), 0.9),
        "glm.information_blocks.self_s": self_of("glm.information_blocks"),
        "inference.test_mnri_single.self_s": self_of("inference.test_mnri_single"),
        "inference.test_mnri_train_test.self_s": self_of("inference.test_mnri_train_test"),
        "inference.test_nri_normal_legacy.self_s": self_of("inference.test_nri_normal_legacy"),
        "inference.mixture_weights.self_s": self_of("inference.mixture_weights"),
        "reclass.self_s": layer_self("reclass"),
        "reclass.calls": sum(1 for s in spans if s.layer == "reclass"),
        "spline.rcs_basis.self_s": self_of("spline.rcs_basis"),
    }

    problems = []
    nested_ok = [s for s in by_name["glm.fit_nested"] if s.ok]
    nested_ids = {s.id for s in nested_ok}
    fits_in_ok = sum(1 for s in fits if s.parent in nested_ids)
    if fits_in_ok != 3 * len(nested_ok):
        problems.append(
            f"glm.fit calls in completed fit_nested calls ({fits_in_ok}) != 3 x {len(nested_ok)}"
        )
    stray = sum(1 for s in by_name["glm.fit"] if ids.get(s.parent, s).name != "glm.fit_nested")
    if stray:
        problems.append(f"{stray} glm.fit calls outside glm.fit_nested")
    tasks = len(by_name["sim._replicate_rejections"])
    if cells and tasks != reps:
        problems.append(f"{tasks} replicate tasks traced for {reps} replicates")
    return m, problems
