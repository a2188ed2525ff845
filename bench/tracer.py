"""In-memory span tracer for the mnri package, installed from outside it.

``install`` wraps every public function of the working modules (plus a
few private layer boundaries listed in ``EXTRA``) and rebinds the wrapper
under every name that refers to the original in any loaded ``mnri``
module, so calls through from-imports and through module globals are both
seen. It then checks that no original is left bound anywhere.

A span is ``(id, parent, name, start, end, ok, value)``: ids are
``"<pid>.<n>"``, ``parent`` is the id of the enclosing traced call (in a
forked pool worker, the call that forked it), times are
``time.perf_counter`` readings (the system-wide monotonic clock on Linux,
so spans of different processes share one time axis), ``ok`` is False if
the call raised, and ``value`` is a per-function measurement taken from
the result (see ``MEASURES``). Spans stay in memory and are written as one
JSON file per process: the CLI process calls ``flush`` itself, forked pool
workers flush from a multiprocessing finalizer because they leave through
``os._exit`` without running ``atexit`` handlers. ``restore`` undoes
``install``.
"""
from __future__ import annotations

import functools
import json
import os
import sys
import time
import types
from multiprocessing import util as mp_util

LAYERS = ("cli", "sim", "glm", "reclass", "inference", "numerics", "spline")

# Private functions that mark a layer boundary the public API does not:
# the CSV ingest inside ``cli`` and the per-replicate task a pool worker runs.
EXTRA = ("cli._read_table", "cli._numeric_column", "sim._replicate_rejections")

# Span values: what each call did, read from its result.
MEASURES = {
    "cli._read_table": lambda result: len(next(iter(result[1].values()), ())),
    "glm.fit": lambda result: result.iterations,
    "sim.run_cell": lambda result: [result.config.replicates, result.redraws],
}


class Tracer:
    def __init__(self, out_dir: str, op: str):
        self.out_dir = out_dir
        self.op = op
        self.stack: list[str] = []
        self.bindings: list[tuple] = []  # (module, attribute, original)
        self._start_process()

    def _start_process(self) -> None:
        self.pid = os.getpid()
        self.spans: list[tuple] = []
        self.count = 0

    def _adopt_fork(self) -> None:
        # A forked worker inherits the parent's spans; drop them and keep the
        # stack, whose top is the parent call that forked this process.
        self._start_process()
        mp_util.Finalize(None, self.flush, exitpriority=100)

    def wrap(self, name: str, fn):
        tracer = self
        stack = self.stack
        measure = MEASURES.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if os.getpid() != tracer.pid:
                tracer._adopt_fork()
            tracer.count += 1
            span_id = f"{tracer.pid}.{tracer.count}"
            parent = stack[-1] if stack else None
            stack.append(span_id)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                end = time.perf_counter()
                stack.pop()
                tracer.spans.append((span_id, parent, name, start, end, False, None))
                raise
            end = time.perf_counter()
            stack.pop()
            value = measure(result) if measure else None
            tracer.spans.append((span_id, parent, name, start, end, True, value))
            return result

        return traced

    def flush(self) -> None:
        path = os.path.join(self.out_dir, f"spans-{self.pid}.json")
        with open(path, "w", encoding="utf-8") as handle:
            json.dump({"op": self.op, "pid": self.pid, "spans": self.spans}, handle)

    def restore(self) -> None:
        """Put the original functions back."""
        for module, attr, original in self.bindings:
            setattr(module, attr, original)


def _mnri_modules() -> list[types.ModuleType]:
    return [
        module
        for name, module in sorted(sys.modules.items())
        if name == "mnri" or name.startswith("mnri.")
    ]


def install(out_dir: str, op: str) -> Tracer:
    """Wrap the mnri layers' functions; call after ``import mnri.cli``."""
    tracer = Tracer(out_dir, op)
    wrappers = {}
    for layer in LAYERS:
        module = sys.modules[f"mnri.{layer}"]
        for attr, value in vars(module).items():
            name = f"{layer}.{attr}"
            if (
                isinstance(value, types.FunctionType)
                and value.__module__ == module.__name__
                and (not attr.startswith("_") or name in EXTRA)
            ):
                wrappers[value] = tracer.wrap(name, value)
    missing = set(EXTRA) - {f"{fn.__module__[5:]}.{fn.__name__}" for fn in wrappers}
    if missing:
        raise RuntimeError(f"layer boundaries not found: {sorted(missing)}")

    for module in _mnri_modules():
        for attr, value in list(vars(module).items()):
            if isinstance(value, types.FunctionType) and value in wrappers:
                setattr(module, attr, wrappers[value])
                tracer.bindings.append((module, attr, value))

    for module in _mnri_modules():
        for attr, value in vars(module).items():
            bound = [value]
            if isinstance(value, type):
                bound = list(vars(value).values())
            if any(isinstance(v, types.FunctionType) and v in wrappers for v in bound):
                raise RuntimeError(f"{module.__name__}.{attr} still binds an untraced function")
    return tracer
