"""Steadiness check: run the whole benchmark repeatedly on the same code.

    python3 perfbench/steady.py                # 10 seeds x every workload
    python3 perfbench/steady.py --sets 2 --trace-pairs

Reads BENCHMARK.json at the root of the checkout and runs its command with
`--workload <w> --seed <n> --seconds <run_seconds> --trace 0`, one seed per
run. For every workload and end-to-end metric it prints the median, the
quartiles, the spread (Q3 - Q1) / median against the metric's bound, and the
operations attempted and failed. Every spread must stay within its bound
("SPREAD" otherwise). With --sets 2 it repeats the runs (seeds continue) and
checks that the second set's median is not worse than the first's by more
than the bound and that the failed share matches.
With --trace-pairs it makes two traced runs of one seed per workload and
checks that every .calls count repeats exactly. The raw results go to
perfbench/out/steady.json.
"""

from __future__ import annotations

import argparse
import json
import signal
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def run_once(bench: dict, workload: str, seed: int, trace: int) -> dict:
    cmd = bench["command"] + ["--workload", workload, "--seed", str(seed),
                              "--seconds", str(bench["run_seconds"]), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.exit(f"{' '.join(cmd)} failed with code {proc.returncode}:\n{proc.stderr}")
    return json.loads(lines[-1])


def spread(values: list[float]) -> tuple[float, float, float, float]:
    q1, med, q3 = statistics.quantiles(values, n=4)
    return med, q1, q3, (q3 - q1) / med


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--runs", type=int, default=10, help="seeds per workload and set")
    parser.add_argument("--sets", type=int, choices=(1, 2), default=1)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--trace-pairs", action="store_true")
    args = parser.parse_args()
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))

    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in bench["workloads"]]
    metrics = bench["end_to_end"]
    ok = True
    raw = {}
    seed = args.first_seed
    print(f"{'workload':10} {'set':>3} {'metric':12} {'unit':5} {'median':>10} {'q1':>10} "
          f"{'q3':>10} {'spread':>7} {'bound':>6}  verdict   attempted  failed")
    medians = {}
    for s in range(args.sets if args.runs >= 2 else 0):
        for name in names:
            results = []
            for _ in range(args.runs):
                results.append(run_once(bench, name, seed, 0))
                seed += 1
            raw.setdefault(name, []).append(results)
            attempted = sum(r["attempted"] for r in results)
            failed = sum(r["failed"] for r in results)
            if not all(r["correct"] for r in results):
                ok = False
                print(f"{name}: a run reported incorrect outputs")
            for m in metrics:
                values = [r["metrics"][m["name"]]["value"] for r in results]
                med, q1, q3, sp = spread(values)
                verdict = "SPREAD" if sp > m["bound"] else "ok"
                if s == 1:
                    before = medians[(name, m["name"])]
                    worse = (med - before) / before if m["better"] == "lower" else (before - med) / before
                    if worse > m["bound"]:
                        verdict = "DRIFT"
                medians[(name, m["name"])] = med
                ok = ok and verdict == "ok"
                print(f"{name:10} {s + 1:>3} {m['name']:12} {m['unit']:5} {med:10.4f} {q1:10.4f} "
                      f"{q3:10.4f} {sp:7.3f} {m['bound']:6.3f}  {verdict:8} {attempted:10} {failed:7}")
            if s == 1:
                shares = [sum(r["failed"] for r in rs) / sum(r["attempted"] for r in rs)
                          for rs in raw[name]]
                if shares[0] != shares[1]:
                    ok = False
                    print(f"{name}: failed share differs between sets: {shares}")

    if args.trace_pairs:
        for name in names:
            pair = [run_once(bench, name, args.first_seed, 1) for _ in range(2)]
            raw.setdefault(f"{name}.traced", []).append(pair)
            calls = [{k: v["value"] for k, v in r["metrics"].items() if k.endswith(".calls")}
                     for r in pair]
            same = calls[0] == calls[1]
            ok = ok and same and all(r["correct"] for r in pair)
            print(f"{name:10} traced pair, seed {args.first_seed}: {len(calls[0])} call counts "
                  f"{'repeat exactly' if same else 'DIFFER'}")

    out = HERE / "out"
    out.mkdir(exist_ok=True)
    (out / "steady.json").write_text(json.dumps(raw, indent=1))
    print("steady" if ok else "NOT steady")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
