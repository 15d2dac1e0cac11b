"""The four workloads: their seeded inputs, one pass over them, and the checks
that compare each pass's outputs with the reference computations in oracle.

A pass is one whole round over a workload's fixed inputs. `run_pass` is the
timed part; everything else here runs outside the timed region. Operations
are the ensemble items a pass takes through its checks: loops (kahler,
twistor), curvature samples, families and CLI queries (algebraic), and loop
round trips (fixtures).
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import re
import sys

import numpy as np

import oracle
from g2knot import algebra, cli, knots, loops, twistor, verify

N = 512
# Ceiling for the twistor lift_oracle residual: its suite tolerance is 1e-6,
# which a known fault exceeds on a few seeds (2.7e-6 at worst over 800 loops).
LIFT_ORACLE_CEILING = 1e-4


def run_cli(argv: list[str], stdin_text: str = "") -> tuple[int, str, str]:
    """Run `g2knot <argv>` in-process, feeding stdin and capturing the output."""
    out, err = io.StringIO(), io.StringIO()
    saved = sys.stdin
    sys.stdin = io.StringIO(stdin_text)
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.run(argv)
    finally:
        sys.stdin = saved
    return code, out.getvalue(), err.getvalue()


def _case_problems(report, must_pass, finite_only=()) -> list[str]:
    cases = {c["name"]: c for c in report.cases}
    problems = [f"{report.suite}: case {name} failed (residual {cases[name]['residual']:.3e})"
                for name in must_pass if not cases[name]["pass"]]
    problems += [f"{report.suite}: case {name} is not finite"
                 for name in finite_only if not math.isfinite(cases[name]["residual"])]
    return problems


def _rel(a, b) -> float:
    return float(np.abs(np.asarray(a) - np.asarray(b)).max()
                 / max(np.abs(np.asarray(b)).max(), 1e-300))


class Workload:
    """Base: subclasses set `items` and implement run_pass and check_pass."""

    items = 0

    def __init__(self, seed: int):
        self.seed = seed

    def make_up(self) -> dict:
        return {}

    def run_pass(self):
        raise NotImplementedError

    def record(self, out):
        """A JSON-able copy of the outputs; every pass must reproduce it exactly."""
        return out

    def check_pass(self, out) -> tuple[int, list[str]]:
        """(failed operations, problems) for one pass's outputs."""
        raise NotImplementedError

    def capture(self):
        """Context for the untimed first pass that records what deep_check needs."""
        return contextlib.nullcontext()

    def deep_check(self, out) -> list[str]:
        """Checks against reference computations, run once on the first pass."""
        return []


class Kahler(Workload):
    """verify.suite_kahler on a fixed loop ensemble."""

    LOOPS, FIELDS = 6, 3

    def __init__(self, seed):
        super().__init__(seed)
        self.config = verify.VerifyConfig(seed=seed, n=N, loops=self.LOOPS, fields=self.FIELDS)
        self.items = self.LOOPS

    def make_up(self):
        c = self.config
        return {"n": c.n, "loops": c.loops, "fields": c.fields, "max_mode": c.max_mode, "h": c.h}

    def run_pass(self):
        return verify.suite_kahler(self.config)

    def record(self, out):
        return out.to_dict()

    def check_pass(self, report):
        # The Nijenhuis residual is a genuine obstruction (see README): it is
        # recorded, and must only be finite.
        problems = _case_problems(report, ("d_omega_exact", "d_omega_fd", "compatibility"),
                                  ("nijenhuis",))
        return (self.items if problems else 0), problems

    def deep_check(self, report):
        cfg = self.config
        rng = np.random.default_rng(cfg.seed)
        loop = verify.random_loop(rng, cfg.n, cfg.max_mode)
        X, Y, Z = (verify.random_normal_field(rng, loop, cfg.max_mode) for _ in range(3))
        chart = knots.KnotChart(loop)
        problems = []

        # omega and G from phi0's seven terms, a separate derivative and cross product
        dt = 2.0 * math.pi / cfg.n
        k = np.fft.fftfreq(cfg.n, d=1.0 / cfg.n)
        k[cfg.n // 2] = 0.0
        velocity = np.fft.ifft(1j * k[:, None] * np.fft.fft(loop.samples, axis=0), axis=0).real
        speeds = np.linalg.norm(velocity, axis=1)
        T = velocity / speeds[:, None]
        om_ref = float(oracle.evaluate(oracle.PHI0, X, Y, velocity).sum() * dt)
        XN = X - (X * T).sum(1)[:, None] * T
        IX = np.array([oracle.cross(t, x) for t, x in zip(T, XN)])
        g_ref = float(((IX * Y).sum(1) * speeds).sum() * dt)
        # |omega|, |G| <= integral of |X| |Y| |gamma'| dt
        scale = float((np.linalg.norm(X, axis=1) * np.linalg.norm(Y, axis=1) * speeds).sum() * dt)
        om = knots.omega(loop, X, Y)
        g = knots.hermitian_metric(loop, knots.acs_apply(loop, X), Y)
        for label, got, ref in (("omega", om, om_ref), ("G(IX,Y)", g, g_ref),
                                ("omega(X,Y) - G(IX,Y) reference", om_ref, g_ref)):
            if abs(got - ref) > 1e-12 * scale:
                problems.append(f"kahler: {label} off by {abs(got - ref) / scale:.3e} relative")

        for u in (np.zeros_like(X), 0.05 * Y / np.abs(Y).max()):
            if _rel(chart.acs(u, chart.acs(u, X)), -X) > 1e-12:
                problems.append("kahler: I^2 != -1 on a chart tangent")

        cube = max(np.linalg.norm(X), np.linalg.norm(Y), np.linalg.norm(Z)) ** 3
        if abs(knots.d_omega(chart, X, Y, Z)) / cube >= cfg.tol("d_omega_exact"):
            problems.append("kahler: exact d omega does not vanish")
        if abs(knots.d_omega_fd(chart, X, Y, Z, cfg.h)) / cube >= cfg.tol("d_omega_fd"):
            problems.append("kahler: finite-difference d omega does not vanish")

        # The three steps differ by the O(h^2) truncation of the centered
        # differences (about 1e-6 relative, 4.8e-6 at worst over 600 seeds);
        # their Richardson extrapolations must agree far more closely (1.8e-9
        # at worst), so the residual has a step-free limit.
        nij = [knots.nijenhuis(chart, X, Y, h) for h in verify.NIJENHUIS_STEPS]
        h = verify.NIJENHUIS_STEPS
        extrapolated = [(b * (h[i] / h[i + 1]) ** 2 - a) / ((h[i] / h[i + 1]) ** 2 - 1.0)
                        for i, (a, b) in enumerate(zip(nij, nij[1:]))]
        if not all(np.all(np.isfinite(v)) for v in nij):
            problems.append("kahler: Nijenhuis tensor is not finite")
        elif max(_rel(v, nij[0]) for v in nij[1:]) > 1e-4:
            problems.append("kahler: Nijenhuis tensor changes with the step")
        elif _rel(extrapolated[1], extrapolated[0]) > 1e-7:
            problems.append("kahler: Nijenhuis extrapolations to h = 0 disagree")
        elif _rel(knots.nijenhuis(chart, Y, X, cfg.h), -nij[1]) > 1e-6:
            problems.append("kahler: Nijenhuis tensor is not antisymmetric")
        return problems


class Twistor(Workload):
    """verify.suite_twistor on a fixed loop ensemble."""

    LOOPS = 2

    def __init__(self, seed):
        super().__init__(seed)
        self.config = verify.VerifyConfig(seed=seed, n=N, loops=self.LOOPS)
        self.items = self.LOOPS
        self.lifts = []

    def make_up(self):
        c = self.config
        return {"n": c.n, "loops": c.loops, "fields": "4 horizontal + 4 vertical per loop",
                "max_mode": c.max_mode, "h": c.h}

    def run_pass(self):
        return verify.suite_twistor(self.config)

    def record(self, out):
        return out.to_dict()

    def check_pass(self, report):
        # The Cartan pairing tracks the Nijenhuis obstruction: finite only.
        # lift_oracle is held to LIFT_ORACLE_CEILING, not to its tolerance: a
        # wrong splitting leaves a residual of order one.
        problems = _case_problems(
            report, ("xi_tilde", "d_omega3_vs_xi", "type30", "nondegeneracy"),
            ("cartan", "lift_oracle"))
        lift = next(c for c in report.cases if c["name"] == "lift_oracle")["residual"]
        if lift > LIFT_ORACLE_CEILING:
            problems.append(f"{report.suite}: lift_oracle residual {lift:.3e} exceeds "
                            f"{LIFT_ORACLE_CEILING:g}")
        return (self.items if problems else 0), problems

    @contextlib.contextmanager
    def capture(self):
        inner = twistor.lknot_lift

        def recording(loop):
            lift = inner(loop)
            self.lifts.append((loop.samples.copy(), lift))
            return lift
        twistor.lknot_lift = recording
        try:
            yield
        finally:
            twistor.lknot_lift = inner

    def deep_check(self, report):
        if len(self.lifts) != self.LOOPS:
            return [f"twistor: {len(self.lifts)} lifts for {self.LOOPS} loops"]
        problems = []
        for samples, lift in self.lifts:
            # Constant speed: the base must sample the exact arclength
            # reparametrization of the input's Fourier curve. (Its FFT speed
            # is constant only to the resolution of that non-band-limited
            # curve at N=512, up to 2.5e-6 near the speed-ratio floor.)
            cos, sin, tail = oracle.fourier_coeffs(samples, self.config.max_mode)
            ref, _ = oracle.arclength_reparam(cos, sin, self.config.n)
            if tail > 1e-12 or _rel(lift.base.samples, ref) > 1e-10:
                problems.append("twistor: lifted base differs from the arclength reference")
            length, base_length = oracle.loop_length(samples), oracle.loop_length(lift.base.samples)
            if abs(length - base_length) > 1e-10 * length:
                problems.append("twistor: lifted base changed the length")

        g2 = algebra.standard_g2()
        rng = np.random.default_rng(self.seed)
        v = self.lifts[0][1].sphere_curve[::64]
        A, B, C = (rng.standard_normal(v.shape) for _ in range(3))
        got = twistor.omega3_integrand(g2, v, A, B, C)
        ref = (oracle.evaluate(oracle.PHI0, A, B, C)
               - 1j * oracle.evaluate(oracle.PSI0, v, A, B, C))
        if _rel(got, ref) > 1e-12:
            problems.append("twistor: omega3_integrand differs from the phi0/psi0 evaluation")
        return problems


def _form_arg(coeffs: dict) -> str:
    return " ".join(f"{'-' if c < 0 else '+'}{abs(c):g}*{''.join(str(i + 1) for i in idx)}"
                    for idx, c in coeffs.items())


_FORM_TERM = re.compile(r"([+-])(?:([0-9.eE+-]+)\*)?([1-7]+)")


def _parse_form(text: str) -> dict:
    out = {}
    for sign, mag, digits in _FORM_TERM.findall(text):
        val = float(mag) if mag else 1.0
        out[tuple(int(d) - 1 for d in digits)] = -val if sign == "-" else val
    return out


def _vec_arg(v: np.ndarray) -> str:
    return ",".join(repr(float(x)) for x in v)


class Algebraic(Workload):
    """The instanton and associative suites plus a batch of `g2knot algebra`
    queries, all on single vectors and 21-coefficient forms."""

    LOOPS, SAMPLES = 8, 8
    DECOMPOSE, RANDOM_PLANES = 6, 5

    def __init__(self, seed):
        super().__init__(seed)
        self.config = verify.VerifyConfig(seed=seed, n=N, loops=self.LOOPS,
                                          instanton_samples=self.SAMPLES)
        self.families = max(4, self.LOOPS // 2)
        rng = np.random.default_rng(seed)
        table = oracle.cross_table()
        queries = []
        for i in range(7):
            for j in range(7):
                k, s = table.get((i, j), (None, 0))
                want = "0" if k is None else f"{'-' if s < 0 else ''}e{k + 1}"
                queries.append(("cross", [f"--x=e{i + 1}", f"--y=e{j + 1}"], want))
        for _ in range(self.DECOMPOSE):
            beta = {idx: round(float(rng.uniform(-2.0, 2.0)), 2) or 0.5
                    for idx in ((a, b) for a in range(7) for b in range(a + 1, 7))}
            queries.append(("decompose", ["--form=" + _form_arg(beta)], beta))
        planes = [[np.eye(7)[a], np.eye(7)[b], np.eye(7)[c]] for (a, b, c) in oracle.PHI0]
        for _ in range(self.RANDOM_PLANES):
            u, v = rng.standard_normal(7), rng.standard_normal(7)
            planes.append([u, v, oracle.cross(u, v) + rng.standard_normal() * u])
            planes.append([u, v, rng.standard_normal(7)])
        for u, v, w in planes:
            # "--u=" keeps argparse from reading a leading minus sign as an option
            queries.append(("associative", [f"--u={_vec_arg(u)}", f"--v={_vec_arg(v)}",
                                            f"--w={_vec_arg(w)}"], self._plane(u, v, w)))
        self.queries = queries
        self.items = self.SAMPLES + self.families + len(queries)

    @staticmethod
    def _plane(u, v, w):
        ortho = []
        for a in (u, v, w):
            for e in ortho:
                a = a - (a @ e) * e
            ortho.append(a / np.linalg.norm(a))
        p = oracle.cross(ortho[0], ortho[1])
        residual = p - sum((p @ e) * e for e in ortho)
        return bool(np.linalg.norm(residual) < 1e-8), float(oracle.evaluate(oracle.PHI0, *ortho))

    def make_up(self):
        c = self.config
        kinds = [q[0] for q in self.queries]
        return {"n": c.n, "loops": c.loops, "instanton_samples": c.instanton_samples,
                "families": self.families, "max_mode": c.max_mode,
                "cli_queries": {k: kinds.count(k) for k in sorted(set(kinds))}}

    def run_pass(self):
        return (verify.suite_instanton(self.config), verify.suite_associative(self.config),
                [run_cli(["algebra", kind] + argv) for kind, argv, _ in self.queries])

    def record(self, out):
        inst, assoc, answers = out
        return [inst.to_dict(), assoc.to_dict(), answers]

    def check_pass(self, out):
        inst, assoc, answers = out
        problems = []
        cases = {c["name"]: c for c in inst.cases}
        failed = int(cases["equivalence_mismatches"]["residual"])
        if failed:
            problems.append(f"instanton: {failed} equivalence mismatches")
        problems += _case_problems(inst, ("pure_seven_residual",))
        if "skipped_zero_curvature" in cases:
            failed += int(cases["skipped_zero_curvature"]["residual"])
            problems.append("instanton: zero-curvature samples skipped")
        assoc_problems = _case_problems(assoc, ("calibration", "control"))
        skipped = int(assoc.meta.get("skipped_families", 0))
        failed += self.families if assoc_problems else skipped
        problems += assoc_problems + (["associative: families skipped"] if skipped else [])
        for (kind, argv, want), (code, text, err) in zip(self.queries, answers):
            problem = self._check_answer(kind, want, code, text, err)
            if problem:
                failed += 1
                problems.append(f"algebra {kind} {' '.join(argv)}: {problem}")
        return failed, problems

    @staticmethod
    def _check_answer(kind, want, code, text, err):
        if code != 0:
            return f"exit code {code}: {err.strip()}"
        lines = text.splitlines()
        if kind == "cross":
            return None if text.strip() == want else f"got {text.strip()!r}, want {want!r}"
        if kind == "decompose":
            beta7 = _parse_form(lines[0].split(":", 1)[1].split("(")[0])
            beta14 = _parse_form(lines[1].split(":", 1)[1].split("(")[0])
            # The CLI prints six significant digits, so each printed
            # coefficient c carries a rounding error of up to 5e-6 |c|; the
            # tolerances are twice that bound, plus the 1e-12 below which
            # terms are not printed.
            for i, c in want.items():
                b7, b14 = beta7.get(i, 0.0), beta14.get(i, 0.0)
                if abs(b7 + b14 - c) > 1e-5 * (abs(b7) + abs(b14)) + 1e-12:
                    return f"beta7 + beta14 differs from beta at {i}"
            leak = oracle.wedge(beta14, oracle.PSI0)
            if any(abs(c) > 1e-5 * sum(map(abs, beta14.values())) + 1e-12
                   for c in leak.values()):
                return "beta14 ^ *phi0 does not vanish"
            if oracle.lambda27_residual(beta7) > 1e-5 * sum(map(abs, beta7.values())) + 1e-12:
                return "beta7 does not lie in the span of the e_i _| phi0"
            return None
        flag, calib = want
        got_flag = lines[0].split(":")[1].strip() == "True"
        got_calib = float(lines[1].split(":")[1])
        if got_flag != flag or abs(got_calib - calib) > 1e-10:
            return f"got ({got_flag}, {got_calib}), want ({flag}, {calib:.12g})"
        return None


class Fixtures(Workload):
    """`g2knot loop gen` then `loop reparam` JSON round trips at N=2048."""

    LOOPS, N = 3, 2048

    def __init__(self, seed):
        super().__init__(seed)
        rng = np.random.default_rng(seed)
        self.loop_seeds = [int(s) for s in rng.integers(0, 2 ** 31, self.LOOPS)]
        self.items = self.LOOPS

    def make_up(self):
        return {"n": self.N, "loops": self.LOOPS, "max_mode": 5,
                "commands": ["loop gen --seed <s> --n 2048", "loop reparam"]}

    def run_pass(self):
        out = []
        for s in self.loop_seeds:
            gen = run_cli(["loop", "gen", "--seed", str(s), "--n", str(self.N)])
            out.append((gen, run_cli(["loop", "reparam"], gen[1])))
        return out

    def check_pass(self, out):
        problems = [f"loop {i}: exit codes {g[0]}, {r[0]}: {(g[2] + r[2]).strip()}"
                    for i, (g, r) in enumerate(out) if g[0] != 0 or r[0] != 0]
        return len(problems), problems

    def deep_check(self, out):
        problems = []
        for i, ((_, gen_text, _), (_, rep_text, _)) in enumerate(out):
            gen, rep = json.loads(gen_text), json.loads(rep_text)
            samples = np.array(gen["samples"])
            again = json.loads(loops.loop_to_json(loops.loop_from_json(gen_text)))
            if again["samples"] != gen["samples"] or not again["n"] == gen["n"] == self.N:
                problems.append(f"loop {i}: JSON round trip is not exact")
            cos, sin = np.array(gen["fourier"]["cos"]), np.array(gen["fourier"]["sin"])
            grid = 2.0 * math.pi * np.arange(self.N) / self.N
            if _rel(samples, oracle.fourier_eval(cos, sin, grid)) > 1e-12:
                problems.append(f"loop {i}: samples differ from the Fourier block")
            fixed = np.array(rep["samples"])
            speed = oracle.spectral_speed(fixed)
            if speed.max() - speed.min() > 1e-10 * speed.mean():
                problems.append(f"loop {i}: reparametrized loop is not constant speed")
            ref, tail = oracle.arclength_reparam(cos, sin, self.N)
            if tail > 1e-15:
                problems.append(f"loop {i}: reference speed series not resolved ({tail:.1e})")
            if _rel(fixed, ref) > 1e-10:
                problems.append(f"loop {i}: reparametrized samples differ from the "
                                f"arclength reference by {_rel(fixed, ref):.3e}")
        return problems


WORKLOADS = {"kahler": Kahler, "twistor": Twistor, "algebraic": Algebraic,
             "fixtures": Fixtures}
