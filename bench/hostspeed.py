"""Host speed: a fixed reference computation timed between measurements.

On a shared machine the speed of a CPU drifts, here by up to 2x within
minutes, with little of it visible as steal time; wall and CPU times of
identical work drift with it. So every timed interval is bracketed by runs
of ``reference_s`` and divided by the mean of the two, times
``REFERENCE_S``. A normalized time reads as seconds on this host running
at the speed where the reference takes ``REFERENCE_S``; a faster program
lowers it and a slower host does not. Raw times are kept beside the
normalized ones.

The reference imitates the kind of work it normalizes, because contention
slows kinds of work unequally (streaming large arrays suffers most):
``"small"`` is Fisher scoring on a 200 x 3 design, as in simulate
replicates and interpreter start-up; ``"ingest"`` parses CSV text and
streams a 200k-element array, as ``compare`` on a large file does.
"""
from __future__ import annotations

import csv
import io
import statistics
import time

import numpy as np

REFERENCE_S = 0.01

_RNG = np.random.default_rng(0)
_X = _RNG.standard_normal((200, 3))
_Y = (_RNG.random(200) < 0.3).astype(float)
_LARGE = _RNG.standard_normal(200_000)
_CSV = "\n".join(f"{i % 2},{i * 0.37:.4f},{i * 1.3:.1f},{i / 7:.4f}" for i in range(1500))


def _small() -> None:
    for _ in range(50):
        beta = np.zeros(3)
        for _ in range(6):
            prob = 1.0 / (1.0 + np.exp(-(_X @ beta)))
            weight = prob * (1.0 - prob)
            beta = beta + np.linalg.solve(_X.T @ (_X * weight[:, None]), _X.T @ (_Y - prob))


def _ingest() -> None:
    for _ in range(2):
        for row in csv.reader(io.StringIO(_CSV)):
            [float(value) for value in row]
    float(np.exp(-0.5 * _LARGE * _LARGE) @ _LARGE)


MIXES = {"small": _small, "ingest": _ingest}


def _once(work) -> float:
    start = time.perf_counter()
    work()
    return time.perf_counter() - start


def reference_s(mix: str) -> float:
    """Wall time of the reference computation ``mix`` (median of three
    runs, so a single preemption does not skew it)."""
    work = MIXES[mix]
    return statistics.median(_once(work) for _ in range(3))


def normalized(seconds: float, before: float, after: float) -> float:
    """``seconds`` measured between reference runs ``before`` and ``after``,
    scaled to the reference speed."""
    return seconds * REFERENCE_S / (0.5 * (before + after))
