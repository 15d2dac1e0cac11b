#!/usr/bin/env python3
"""Per-layer timings of g2knot, taken in process and written to BENCH_<pr>.json.

    python bench_layers.py --pr 26               # from the root of a checkout
    python bench_layers.py --pr 26 --rounds 3    # a cheaper look

Each name is one call into the program on inputs drawn from fixed seeds,
grouped by the layers of the ROADMAP's first aim:

    L0  G2 tensor kernels: cross product, 3-form and 4-form fields, the
        2-form operator L, the Hodge star
    L1  spectral loop calculus: FFT derivative, trigonometric interpolation
        (white noise and `loop gen` loops at N = 512 and 2048), arclength
        reparametrization
    L2  knot-space operators: omega, G, I, d omega (exact and by finite
        differences), the Nijenhuis tensor (FD and closed form)
    L3  twistor operators: the lift, the complex 3-form, xi~, d Omega vs xi,
        the Cartan pairing, the nondegeneracy probe
    L4  each suite at its default configuration (seed 7)
    L5  `g2knot verify all --seed 7`, and the Tier-1 pytest run as a child
        process

Inputs are built before any timing. A round times every name once, and the
rounds alternate the order of the names (forward, then reversed), so a drift
in the host's speed falls on all names alike. A sample is the mean time of
a call over a batch of back-to-back calls, the batch sized in a warm-up to
take about 50 ms (one call for L4 and L5). Per name the file holds the
minimum, the median and the interquartile range of the samples, in seconds
per call, with the core count, the Python and numpy versions and the BLAS
thread variables. The BLAS variables default to 1, as in perfbench. The
script reads no residual and gates nothing.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import platform
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
BATCH_SECONDS = 0.05


def build_cases() -> list[tuple[str, object]]:
    """(name, zero-argument call) for every timed name, inputs prepared."""
    import numpy as np

    from g2knot import algebra, cli, forms, knots, loops, twistor, verify
    from g2knot.verify import VerifyConfig, random_loop, random_normal_field

    g2 = algebra.standard_g2()
    loop = random_loop(np.random.default_rng(7), 512, 5)
    lift = twistor.lknot_lift(loop)
    base = lift.base
    chart = knots.KnotChart(base)
    rng = np.random.default_rng(8)
    X, Y, Z, T = (random_normal_field(rng, base) for _ in range(4))
    splits = [twistor.SplitTangent(loops.normal_project(base, random_normal_field(rng, base)), F)
              for F in (X, Y, Z, T)]
    cases = [
        ("L0.cross_field", lambda: algebra.cross_field(g2, X, Y)),
        ("L0.rho_field", lambda: algebra.rho_field(g2, X, Y, Z)),
        ("L0.rho_star_field", lambda: algebra.rho_star_field(g2, X, Y, Z, T)),
        ("L0.two_form_operator_matrix", lambda: algebra.two_form_operator_matrix(g2)),
        ("L0.hodge_star", lambda: forms.hodge_star(g2.rho, g2.metric, g2.vol_coeff)),
        ("L1.spectral_derivative.512", lambda: loops.spectral_derivative(loop.samples)),
    ]
    for n in (512, 2048):
        noise = np.random.default_rng(n).standard_normal((n, 7))
        points = np.random.default_rng(n + 1).uniform(0.0, 2.0 * np.pi, n)
        gen = loop if n == 512 else random_loop(np.random.default_rng(n), n, 5)
        at = loops.arclength_params(gen)
        cases += [
            (f"L1.trig_interpolate.noise.{n}",
             lambda noise=noise, points=points: loops.trig_interpolate(noise, points)),
            (f"L1.trig_interpolate.loop.{n}",
             lambda gen=gen, at=at: loops.trig_interpolate(gen.samples, at)),
            (f"L1.arclength_params.{n}", lambda gen=gen: loops.arclength_params(gen)),
            (f"L1.unit_speed_reparam.{n}", lambda gen=gen: loops.unit_speed_reparam(gen)),
        ]
    config = VerifyConfig(seed=7)

    def verify_all():
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            cli.run(["verify", "all", "--seed", "7", "-o", os.devnull])

    def tier1():
        env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
        subprocess.run([sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
                        "--continue-on-collection-errors"], cwd=ROOT, env=env,
                       stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL, check=False)

    cases += [
        ("L2.omega", lambda: knots.omega(base, X, Y)),
        ("L2.hermitian_metric", lambda: knots.hermitian_metric(base, X, Y)),
        ("L2.acs_apply", lambda: knots.acs_apply(base, X)),
        ("L2.d_omega", lambda: knots.d_omega(chart, X, Y, Z)),
        ("L2.d_omega_fd", lambda: knots.d_omega_fd(chart, X, Y, Z, 1e-4)),
        ("L2.nijenhuis", lambda: knots.nijenhuis(chart, X, Y, 1e-4)),
        ("L2.nijenhuis_exact", lambda: knots.nijenhuis_exact(chart, X, Y)),
        ("L3.lknot_lift", lambda: twistor.lknot_lift(loop)),
        ("L3.omega3_eval", lambda: twistor.omega3_eval(lift, X, Y, Z)),
        ("L3.xi_tilde", lambda: twistor.xi_tilde(lift, X, Y, Z, T)),
        ("L3.d_omega3_vs_xi", lambda: twistor.d_omega3_vs_xi(lift, *splits, h=1e-4)),
        ("L3.cartan_check", lambda: twistor.cartan_check(lift, X, Y, Z, T)),
        ("L3.nondegeneracy_table", lambda: verify._nondegeneracy_table(lift, X)),
        ("L4.suite_kahler", lambda: verify.suite_kahler(config)),
        ("L4.suite_twistor", lambda: verify.suite_twistor(config)),
        ("L4.suite_associative", lambda: verify.suite_associative(config)),
        ("L4.suite_instanton", lambda: verify.suite_instanton(config)),
        ("L5.verify_all", verify_all),
        ("L5.tier1_pytest", tier1),
    ]
    return cases


def batch_size(name: str, call) -> int:
    """Calls per sample: one for L4 and L5, else enough for BATCH_SECONDS."""
    call()  # fills caches and lazy set-up
    if name.startswith(("L4.", "L5.")):
        return 1
    start = time.perf_counter()
    call()
    once = time.perf_counter() - start
    return max(1, min(1000, round(BATCH_SECONDS / max(once, 1e-9))))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--pr", type=int, required=True, help="writes BENCH_<pr>.json")
    parser.add_argument("--rounds", type=int, default=7)
    args = parser.parse_args(argv)
    if args.rounds < 1:
        parser.error("--rounds must be at least 1")
    for var in BLAS_VARS:
        os.environ.setdefault(var, "1")
    sys.path.insert(0, str(ROOT / "src"))
    import numpy as np

    import g2knot
    if Path(g2knot.__file__).resolve().parent != ROOT / "src" / "g2knot":
        raise SystemExit(f"imported g2knot from {g2knot.__file__}, not from this checkout")

    cases = build_cases()
    batches = {name: batch_size(name, call) for name, call in cases}
    samples = {name: [] for name, _ in cases}
    for r in range(args.rounds):
        for name, call in (cases if r % 2 == 0 else cases[::-1]):
            start = time.perf_counter()
            for _ in range(batches[name]):
                call()
            samples[name].append((time.perf_counter() - start) / batches[name])
        print(f"round {r + 1}/{args.rounds} done", file=sys.stderr)

    names = {}
    for name, _ in cases:
        q1, median, q3 = np.percentile(samples[name], [25, 50, 75])
        names[name] = {"layer": name.split(".")[0], "calls_per_sample": batches[name],
                       "min": min(samples[name]), "median": float(median),
                       "iqr": float(q3 - q1)}
    doc = {
        "pr": args.pr,
        "unit": "s per call",
        "rounds": args.rounds,
        "environment": {
            "cores": os.cpu_count(),
            "machine": platform.machine(),
            "python": platform.python_version(),
            "numpy": np.__version__,
            "blas_threads": {var: os.environ.get(var) for var in BLAS_VARS},
        },
        "names": names,
    }
    out = ROOT / f"BENCH_{args.pr}.json"
    out.write_text(json.dumps(doc, indent=1) + "\n")
    width = max(map(len, names))
    for name, row in names.items():
        print(f"{name:<{width}}  median {row['median']:.3e} s  min {row['min']:.3e} s"
              f"  iqr {row['iqr']:.1e} s")
    print(f"wrote {out}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
