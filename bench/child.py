"""Run a benchmark's ``mnri`` CLI calls in one fresh process.

    python3 child.py PLAN_JSON

PLAN_JSON holds ``{"unit": [[args...], ...], "seconds": S, "trace": 0|1,
"reference": MIX, "work_dir": DIR}``. The unit of calls is repeated until
S seconds have passed (at least once, or twice when tracing); each call is
``cli.main(args + ["--out", FILE])`` with FILE ``DIR/u<unit>c<call>.out``.
With ``trace`` set, every second unit runs with the mnri layers traced
(``tracer.py``), its spans going to ``DIR/trace-<unit>/``; the others run
with the original functions, so the two kinds of unit give the tracing
overhead.

Writes ``DIR/stats.json``: per call the exit code, the wall time of
``cli.main`` alone, the host's reference time (``hostspeed.py``, mix MIX)
taken just before it and any uncaught exception; the reference time after
the last call; the process's peak resident memory and where ``mnri`` was
imported from.
"""
import json
import os
import resource
import sys
import time
import traceback

import hostspeed


def run_call(cli, args, mix: str) -> dict:
    reference = hostspeed.reference_s(mix)
    start = time.perf_counter()
    error = None
    try:
        code = cli.main(args)
    except Exception:  # a crashing call is recorded as a failure, like the CLI's exit 1
        code, error = 1, traceback.format_exc(limit=5)
    main_s = time.perf_counter() - start
    return {"exit": code, "main_s": main_s, "reference_s": reference, "error": error}


def main() -> int:
    with open(sys.argv[1], encoding="utf-8") as handle:
        plan = json.load(handle)
    work_dir = plan["work_dir"]
    from mnri import cli

    mix = plan["reference"]
    hostspeed.reference_s(mix)  # warm up: the first run pays one-off costs
    units = []
    least = 2 if plan["trace"] else 1  # a traced run needs one unit of each kind
    deadline = time.perf_counter() + plan["seconds"]
    while len(units) < least or time.perf_counter() < deadline:
        index = len(units)
        tracer = None
        if plan["trace"] and index % 2 == 1:
            import tracer as tracing

            trace_dir = os.path.join(work_dir, f"trace-{index}")
            os.mkdir(trace_dir)
            tracer = tracing.install(trace_dir, f"unit-{index}")
        calls = [
            run_call(cli, [*args, "--out", os.path.join(work_dir, f"u{index}c{i}.out")], mix)
            for i, args in enumerate(plan["unit"])
        ]
        if tracer is not None:
            tracer.flush()
            tracer.restore()
        units.append({"traced": tracer is not None, "calls": calls})

    stats = {
        "units": units,
        "reference_after_s": hostspeed.reference_s(mix),
        "maxrss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        "module": cli.__file__,
    }
    with open(os.path.join(work_dir, "stats.json"), "w", encoding="utf-8") as handle:
        json.dump(stats, handle)
    return 0


if __name__ == "__main__":
    sys.exit(main())
