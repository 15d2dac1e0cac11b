"""Benchmark entry point: time to a checked report for one workload.

    python3 perfbench/run.py --workload kahler --seed 1 --seconds 20 --trace 0

Run from the root of a checkout of the repository; the program is imported
from its src/ directory. With --trace 0 the last line of standard output is
a JSON object with the end-to-end metrics setup_s, pass_s and peak_rss_mb;
with --trace 1 it carries the per-layer metrics of a traced run instead.
Diagnostics (pass times, input make-up, failed checks) go to standard error.

setup_s is the median over fresh interpreters of importing g2knot and
building the first standard_g2(), half of them probed before the workload and
half after it, so that they sample the whole run; the workload itself runs in
one more process (worker.py) with one BLAS thread and G2KNOT_THREADS unset.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
WORKLOADS = ("kahler", "twistor", "algebraic", "fixtures")
SETUP_PROBES = 6  # timed probes before the workload, and again after it
DEADLINE_S = 170.0

SETUP_SNIPPET = """
import pathlib, sys, time
start = time.perf_counter()
import g2knot
g2knot.standard_g2()
elapsed = time.perf_counter() - start
if not pathlib.Path(g2knot.__file__).resolve().is_relative_to(pathlib.Path(sys.argv[1]).resolve()):
    sys.exit("g2knot was imported from outside " + sys.argv[1])
print(repr(elapsed))
"""


def child_env() -> dict:
    """Environment of every child: the checkout's sources, one BLAS thread,
    and the program's own defaults (G2KNOT_THREADS unset)."""
    env = dict(os.environ)
    env.pop("G2KNOT_THREADS", None)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    env["PYTHONPATH"] = str(SRC)
    return env


def setup_probes(env: dict, deadline: float, count: int) -> list[float]:
    """Set-up times of `count` fresh interpreters."""
    samples = []
    for _ in range(count):
        proc = subprocess.run([sys.executable, "-c", SETUP_SNIPPET, str(SRC)], env=env,
                              capture_output=True, text=True,
                              timeout=max(deadline - time.monotonic(), 1.0))
        if proc.returncode != 0:
            raise RuntimeError(f"set-up probe failed: {proc.stderr.strip()}")
        samples.append(float(proc.stdout.split()[-1]))
    return samples


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    deadline = time.monotonic() + DEADLINE_S
    # SystemExit unwinds subprocess.run, which then kills and reaps its child.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))

    if not (SRC / "g2knot" / "__init__.py").is_file():
        print(f"error: no g2knot sources under {SRC}", file=sys.stderr)
        return 2
    env = child_env()
    probes = 0 if args.trace else SETUP_PROBES
    try:
        # The first probe is untimed: it leaves the bytecode cache written.
        setup = setup_probes(env, deadline, probes + 1)[1:]
        proc = subprocess.run(
            [sys.executable, str(HERE / "worker.py"), "--workload", args.workload,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)],
            env=env, capture_output=True, text=True,
            timeout=max(deadline - time.monotonic(), 1.0))
        setup += setup_probes(env, deadline, probes)
    except (RuntimeError, subprocess.TimeoutExpired) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    sys.stderr.write(proc.stderr)
    if proc.returncode != 0 or not proc.stdout.strip():
        print(f"error: worker exited with code {proc.returncode}", file=sys.stderr)
        return 1
    worker = json.loads(proc.stdout.strip().splitlines()[-1])

    for problem in worker["problems"]:
        print(f"check: {problem}", file=sys.stderr)
    print(f"{args.workload} seed {args.seed}: make-up {json.dumps(worker['make_up'])}",
          file=sys.stderr)
    print(f"first pass {worker['first_pass_s']:.4f} s, {len(worker['pass_times'])} timed passes: "
          + " ".join(f"{t:.4f}" for t in worker["pass_times"]), file=sys.stderr)

    if args.trace:
        metrics = worker["layers"]
    else:
        metrics = {"setup_s": {"value": statistics.median(setup), "unit": "s"},
                   "pass_s": {"value": worker["pass_s"], "unit": "s"},
                   "peak_rss_mb": {"value": worker["peak_rss_mb"], "unit": "MB"}}
    print(json.dumps({"correct": worker["correct"], "attempted": worker["attempted"],
                      "failed": worker["failed"], "metrics": metrics}))
    return 0 if worker["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
