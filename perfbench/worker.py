"""Run one workload in this process and print its result as one JSON line.

Started by run.py with one BLAS thread and PYTHONPATH pointing at the
checkout's src/. The first pass is an untimed warm-up whose outputs also feed
the reference checks; timed passes follow until --seconds is used up, and
every pass must reproduce the first pass's outputs exactly. With --trace 1
the layer functions are wrapped (spans.py) and the spans are written to
perfbench/out/.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
MIN_TIMED_PASSES = 2


def import_program():
    """Import g2knot and refuse a copy that does not come from this checkout."""
    import g2knot
    if not Path(g2knot.__file__).resolve().is_relative_to(SRC.resolve()):
        sys.exit(f"g2knot was imported from {g2knot.__file__}, not from {SRC}")
    return g2knot


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    g2knot = import_program()
    import spans
    from workloads import WORKLOADS

    tracer = None
    if args.trace:
        tracer = spans.Tracer()
        tracer.install()
        tracer.recording = True
        g2knot.algebra.standard_g2()
        tracer.recording = False
        setup_window = tracer.window(0)

    workload = WORKLOADS[args.workload](args.seed)
    attempted = failed = 0
    problems: list[str] = []

    def one_pass():
        nonlocal attempted, failed
        mark = len(tracer.spans) if tracer else 0
        if tracer:
            tracer.recording = True
        start = time.perf_counter()
        try:
            out = workload.run_pass()
        except Exception:
            out = None
            problems.append(traceback.format_exc(limit=3))
        elapsed = time.perf_counter() - start
        if tracer:
            tracer.recording = False
        attempted += workload.items
        if out is None:
            failed += workload.items
        else:
            f, p = workload.check_pass(out)
            failed += f
            problems.extend(p)
        return elapsed, out, (tracer.window(mark) if tracer else None)

    with workload.capture():
        first_s, first_out, _ = one_pass()
    reference = None if first_out is None else json.dumps(workload.record(first_out))
    mismatches = 0

    times, windows = [], []
    window_start = time.perf_counter()
    while (len(times) < MIN_TIMED_PASSES
           or time.perf_counter() - window_start + times[-1] <= args.seconds):
        elapsed, out, window = one_pass()
        times.append(elapsed)
        if window is not None:
            windows.append(window)
        if out is not None and json.dumps(workload.record(out)) != reference:
            mismatches += 1
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6

    check_problems = []
    if mismatches:
        check_problems.append(f"{mismatches} passes did not reproduce the first pass's outputs")
    if first_out is not None:
        check_problems.extend(workload.deep_check(first_out))
    problems.extend(check_problems)

    result = {
        "correct": not check_problems and first_out is not None and failed == 0,
        "attempted": attempted,
        "failed": failed,
        "first_pass_s": first_s,
        "pass_times": times,
        "pass_s": statistics.median(times),
        "peak_rss_mb": peak_rss_mb,
        "make_up": workload.make_up(),
        "problems": problems,
    }
    if tracer:
        result["layers"], trace_problems = spans.layer_metrics(setup_window, windows)
        result["correct"] = result["correct"] and not trace_problems
        problems.extend(trace_problems)
        out_dir = HERE / "out"
        out_dir.mkdir(exist_ok=True)
        tracer.dump(str(out_dir / f"trace-{args.workload}-seed{args.seed}.jsonl"))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
