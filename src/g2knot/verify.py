"""Verification suites: Kaehler structure, lifted twistor forms, associative
families, and instanton equivalence, over seeded random ensembles of smooth
Fourier loops, with convergence tables and JSON/CSV report output.
"""

from __future__ import annotations

import csv
import io
import json
from dataclasses import dataclass, field
from functools import partial

import numpy as np

from . import knots, twistor
from .algebra import (cross_field, is_associative, rho_covector, standard_g2,
                      two_form_decompose)
from .errors import ConfigError, ImmersionViolation, ZeroCurvature
from .forms import AltForm, contract
from .instanton import (INSTANTON_TOL, LIFTED_TOL, is_g2_instanton,
                        lifted_curvature_type_residual)
from .knots import H_MIN, H_MAX, KnotChart
from .loops import (FourierLoopSpec, Loop7, MIN_SAMPLES, TWO_PI,
                    loop_from_fourier, normal_project)

DEFAULT_TOLERANCES = {
    "d_omega_exact": 1e-10,
    "d_omega_fd": 1e-6,
    "compatibility": 1e-10,
    "nijenhuis": 1e-6,
    "xi_tilde": 1e-8,
    "d_omega3_vs_xi": 1e-5,
    "cartan": 1e-6,
    "type30": 1e-10,
    "lift_oracle": 1e-6,
    "nondegeneracy_floor": 0.1,
    "calibration": 1e-10,
    "control_ceiling": 0.999,
    "instanton": INSTANTON_TOL,
    "lifted_instanton": LIFTED_TOL,
}

NIJENHUIS_STEPS = (2e-4, 1e-4, 5e-5)
CONVERGENCE_SAMPLE_COUNTS = (64, 128, 256, 512)


@dataclass
class VerifyConfig:
    """Shared configuration for verification suites."""

    seed: int = 7
    n: int = 512
    h: float = 1e-4
    loops: int = 20
    fields: int = 10
    instanton_samples: int = 50
    max_mode: int = 5
    tolerances: dict = field(default_factory=dict)

    def __post_init__(self):
        if self.n < MIN_SAMPLES:
            raise ConfigError(f"n = {self.n} below the floor {MIN_SAMPLES}")
        if not H_MIN <= self.h <= H_MAX:
            raise ConfigError(f"h = {self.h} outside [{H_MIN}, {H_MAX}]")
        if self.loops < 1 or self.fields < 1 or self.instanton_samples < 1:
            raise ConfigError("ensemble sizes must be positive")
        if self.max_mode < 1 or self.n <= 2 * self.max_mode:
            raise ConfigError("need max_mode >= 1 and n > 2 * max_mode")
        unknown = set(self.tolerances) - set(DEFAULT_TOLERANCES)
        if unknown:
            raise ConfigError(f"unknown tolerance keys: {sorted(unknown)}")
        merged = dict(DEFAULT_TOLERANCES)
        merged.update(self.tolerances)
        for key, val in merged.items():
            # bool is an int subclass; nan fails both comparisons
            if isinstance(val, bool) or not (isinstance(val, (int, float)) and 0 < val < np.inf):
                raise ConfigError(f"tolerance {key} must be positive and finite, got {val!r}")
        self.tolerances = merged

    def tol(self, key: str) -> float:
        return float(self.tolerances[key])

    def rng(self) -> np.random.Generator:
        return np.random.default_rng(self.seed)


@dataclass
class SuiteReport:
    """Result of one verification suite."""

    suite: str
    cases: list = field(default_factory=list)
    convergence: list = field(default_factory=list)
    meta: dict = field(default_factory=dict)

    @property
    def passed(self) -> bool:
        return all(c["pass"] for c in self.cases)

    def add_case(self, name: str, residual: float, tolerance: float,
                 inputs: str = "", skipped: bool = False,
                 passed: bool | None = None):
        ok = bool(residual < tolerance) if passed is None else bool(passed)
        self.cases.append({
            "name": name,
            "residual": float(residual),
            "tolerance": float(tolerance),
            "pass": ok,
            "skipped": bool(skipped),
            "inputs": inputs,
        })

    def to_dict(self) -> dict:
        return {
            "suite": self.suite,
            "pass": self.passed,
            "cases": self.cases,
            "convergence": self.convergence,
            "meta": self.meta,
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2)

    def convergence_csv(self) -> str:
        buf = io.StringIO()
        writer = csv.DictWriter(buf, fieldnames=["study", "parameter", "value", "residual"])
        writer.writeheader()
        for row in self.convergence:
            writer.writerow(row)
        return buf.getvalue()


def random_fourier_spec(rng: np.random.Generator, n: int, max_mode: int = 5) -> FourierLoopSpec:
    """Random smooth loop spectrum: coefficients ~ N(0, 1/(1+k^2))."""
    k = np.arange(max_mode + 1)
    scale = 1.0 / (1.0 + k.astype(float) ** 2)
    cos = rng.standard_normal((max_mode + 1, 7)) * scale[:, None]
    sin = rng.standard_normal((max_mode + 1, 7)) * scale[:, None]
    return FourierLoopSpec(cos, sin, n)


# Ensemble conditioning: loops whose speed dips far below its mean need more
# than the configured resolution for spectrally accurate arclength calculus,
# so the ensemble rejects them along with outright immersion failures, up to
# LOOP_TRIES draws per loop.
SPEED_RATIO_FLOOR = 0.5
LOOP_TRIES = 50


def random_fourier_loop(rng: np.random.Generator, n: int,
                        max_mode: int = 5) -> tuple[Loop7, FourierLoopSpec]:
    """Random smooth loop and its spectrum, rejecting samples below the
    immersion floor or the speed-conditioning floor."""
    for _ in range(LOOP_TRIES):
        spec = random_fourier_spec(rng, n, max_mode)
        try:
            loop = loop_from_fourier(spec)
        except ImmersionViolation:
            continue
        if loop.speeds.min() / loop.speeds.mean() >= SPEED_RATIO_FLOOR:
            return loop, spec
    raise ImmersionViolation("could not sample a well-conditioned immersed loop")


def random_loop(rng: np.random.Generator, n: int, max_mode: int = 5) -> Loop7:
    """Random smooth loop from random_fourier_loop, without its spectrum."""
    return random_fourier_loop(rng, n, max_mode)[0]


def random_normal_field(rng: np.random.Generator, loop: Loop7,
                        max_mode: int = 5) -> np.ndarray:
    """Random smooth normal field along a loop, from the same spectral family."""
    spec = random_fourier_spec(rng, loop.n, max_mode)
    return normal_project(loop, spec.sample())


def _run(suite: str, config: VerifyConfig, items: list, evaluate, cases,
         digest: str, skip: tuple[str, str] | None = None) -> SuiteReport:
    """Evaluate pre-drawn items in order and record one case per row of
    `cases`.

    evaluate(item) returns a dict of metrics keyed by case name, or None
    for a skipped item. A row is (case, tolerance key or fixed bound,
    reduction over the evaluated items' metric, floor); a floor case passes
    above its bound, any other below. skip = (case, meta key) records how many
    items were skipped.
    """
    results = [evaluate(item) for item in items]
    done = [r for r in results if r is not None]
    meta = {key: getattr(config, key)
            for key in ("seed", "n", "h", "loops", "fields", "max_mode")}
    report = SuiteReport(suite=suite, meta=meta)
    for name, bound, reduce, floor in cases:
        value = reduce([r[name] for r in done])
        tol = config.tol(bound) if isinstance(bound, str) else bound
        report.add_case(name, value, tol, digest, passed=value > tol if floor else None)
    if skip is not None:
        skipped = len(results) - len(done)
        if skipped:
            report.add_case(skip[0], float(skipped), float("inf"), digest,
                            skipped=True, passed=True)
        report.meta[skip[1]] = skipped
    return report


def suite_kahler(config: VerifyConfig) -> SuiteReport:
    """Closedness of the 2-form, metric/2-form/complex-structure compatibility,
    and the Nijenhuis residual of the knot-space almost complex structure, in
    closed form on the ensemble and by finite differences against it."""
    rng = config.rng()
    items = []
    for _ in range(config.loops):
        loop = random_loop(rng, config.n, config.max_mode)
        triples = [tuple(random_normal_field(rng, loop, config.max_mode)
                         for _ in range(3)) for _ in range(config.fields)]
        items.append((loop, triples))

    def evaluate(item):
        loop, triples = item
        chart = KnotChart(loop)
        m_exact = m_fd = m_compat = m_nij = 0.0
        for fi, (X, Y, Z) in enumerate(triples):
            scale = max(np.linalg.norm(X), np.linalg.norm(Y), np.linalg.norm(Z)) ** 3
            m_exact = max(m_exact, abs(knots.d_omega(chart, X, Y, Z)) / scale)
            m_fd = max(m_fd, abs(knots.d_omega_fd(chart, X, Y, Z, config.h)) / scale)
            IX = knots.acs_apply(loop, X)
            IY = knots.acs_apply(loop, Y)
            pair_scale = np.linalg.norm(X) * np.linalg.norm(Y)
            w = knots.omega(loop, X, Y)
            m_compat = max(m_compat,
                           abs(w - knots.hermitian_metric(loop, IX, Y)) / pair_scale,
                           abs(knots.omega(loop, IX, IY) - w) / pair_scale)
            if fi < 2:  # the first two field pairs of each loop
                nij = knots.nijenhuis_exact(chart, X, Y)
                m_nij = max(m_nij, np.abs(nij).max() / (np.abs(X).max() * np.abs(Y).max()))
        return {"d_omega_exact": m_exact, "d_omega_fd": m_fd,
                "compatibility": m_compat, "nijenhuis": m_nij}

    cases = [(name, name, max, False)
             for name in ("d_omega_exact", "d_omega_fd", "compatibility", "nijenhuis")]
    report = _run("kahler", config, items, evaluate, cases,
                  f"{config.loops} loops x {config.fields} fields, seed {config.seed}")

    # convergence of the finite-difference d(omega) route in N
    conv_rng = np.random.default_rng(config.seed + 1)
    spec_big = random_fourier_spec(conv_rng, max(CONVERGENCE_SAMPLE_COUNTS), config.max_mode)
    for n_val in CONVERGENCE_SAMPLE_COUNTS:
        spec = FourierLoopSpec(spec_big.cos_coeffs, spec_big.sin_coeffs, n_val)
        loop = loop_from_fourier(spec)
        chart = KnotChart(loop)
        f_rng = np.random.default_rng(config.seed + 2)
        fields = [random_normal_field(f_rng, loop, config.max_mode) for _ in range(3)]
        res = abs(knots.d_omega_fd(chart, *fields, config.h))
        report.convergence.append(
            {"study": "d_omega_fd_vs_n", "parameter": "n", "value": n_val, "residual": res})

    # Nijenhuis residual versus the finite-difference step
    loop = random_loop(np.random.default_rng(config.seed + 3), config.n, config.max_mode)
    chart = KnotChart(loop)
    f_rng = np.random.default_rng(config.seed + 4)
    X = random_normal_field(f_rng, loop, config.max_mode)
    Y = random_normal_field(f_rng, loop, config.max_mode)
    fd = [knots.nijenhuis(chart, X, Y, h_val) for h_val in NIJENHUIS_STEPS]
    for h_val, nij in zip(NIJENHUIS_STEPS, fd):
        report.convergence.append({"study": "nijenhuis_vs_h", "parameter": "h",
                                   "value": h_val, "residual": float(np.abs(nij).max())})
    # Richardson over the two smallest steps against the closed form; the
    # bound 1e-7 was fixed before measuring (worst 9.7e-10, seeds 7-26)
    (h1, h2), exact = NIJENHUIS_STEPS[-2:], knots.nijenhuis_exact(chart, X, Y)
    r = (h1 / h2) ** 2
    gap = np.abs((r * fd[-1] - fd[-2]) / (r - 1.0) - exact).max() / np.abs(exact).max()
    report.add_case("nijenhuis_fd_vs_exact", gap, 1e-7,
                    f"nijenhuis_vs_h loop, h = {h1:g} and {h2:g}")
    return report


def _nondegeneracy_table(lift: twistor.LKnotLift,
                         X: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The complex 3-form on the real normal field X and the seven projected
    constant basis fields P e_j, P = 1 - T T^t: table[j, k] = Omega(X, P e_j,
    P e_k), with the scale max|X| max|P e_j| max|P e_k| (each P e_j factor
    floored at 1e-12). Omega has type (3,0), so it reads each real normal
    field as its (1,0) part: this is the table of the (1,0) parts too."""
    g2, base, T = standard_g2(), lift.base, lift.sphere_curve
    # with S = Omega_T(X, ., .) at t_n: S is antisymmetric and psi vanishes
    # on T twice, so T^t S = w = rho(X, T, .), S T = -w and P S P =
    # S - T w^t + w T^t. Integrated, S gives (sum X) . rho - i (T^t X) . psi,
    # two real contractions, and the rank-two terms T^t W - W^t T
    TW = T.T @ rho_covector(g2, X, T)
    S = (X.sum(axis=0) @ g2.rho_tensor.reshape(7, 49)
         - 1j * ((T.T @ X).reshape(49) @ g2.rho_star_tensor.reshape(49, 49)))
    table = (S.reshape(7, 7) - (TW - TW.T)) * (TWO_PI / base.n)
    # row j of the symmetric P[n] is P e_j at t_n
    P = np.eye(7) - np.einsum("nj,nk->njk", T, T)
    norms = np.maximum(np.abs(P).max(axis=0).max(axis=1), 1e-12)
    return table, np.abs(X).max() * norms[:, None] * norms[None, :]


def suite_twistor(config: VerifyConfig) -> SuiteReport:
    """Lift splitting against its finite-difference oracle, vanishing of the
    4-form pairing on tangent-lifted knots, the exterior-derivative identity,
    the Cartan bracket pairing, and type/non-degeneracy of the complex 3-form."""
    rng = config.rng()
    items = []
    for _ in range(config.loops):
        loop = random_loop(rng, config.n, config.max_mode)
        lift = twistor.lknot_lift(loop)
        Xs = [random_normal_field(rng, lift.base, config.max_mode) for _ in range(4)]
        Vs = [random_normal_field(rng, lift.base, config.max_mode) for _ in range(4)]
        items.append((lift, Xs, Vs))

    def evaluate(item):
        lift, Xs, Vs = item
        base = lift.base
        scales = [np.abs(X).max() for X in Xs]

        # splitting versus finite differences
        st = twistor.lift_tangent(lift, Xs[0])
        fd = twistor.lift_tangent_fd(lift, Xs[0])
        m_lift = float(np.abs(st.vertical - fd.vertical).max()) / scales[0]

        # integrated 4-form pairing on the tangent lift
        xi_scale = float(np.prod(scales))
        m_xi = abs(twistor.xi_tilde(lift, *Xs)) / xi_scale

        # d(3-form) = i * (4-form pairing) on split fields with random verticals
        ws = [twistor.SplitTangent(normal_project(base, V), X) for X, V in zip(Xs, Vs)]
        lhs, rhs = twistor.d_omega3_vs_xi(lift, *ws, h=config.h)
        m_dvs = abs(lhs - rhs) / max(abs(rhs), 1.0)

        # Cartan pairing of the 3-form with a bracket of (0,1)-fields
        cc = twistor.cartan_check(lift, Xs[0], Xs[1], Xs[2], Xs[3])
        m_cartan = abs(cc) / xi_scale

        # (3,0)-type identity and non-degeneracy probe of the 3-form
        val = twistor.omega3_eval(lift, *Xs[:3])
        rotated = twistor.omega3_eval(lift, knots.acs_apply(base, Xs[0]), *Xs[1:3])
        m_type = abs(rotated - 1j * val) / float(np.prod(scales[:3]))

        table, denom = _nondegeneracy_table(lift, Xs[0])
        upper = np.triu(denom >= 1e-10, k=1)
        best = float((np.abs(table[upper]) / denom[upper]).max(initial=0.0))
        return {"lift_oracle": m_lift, "xi_tilde": m_xi, "d_omega3_vs_xi": m_dvs,
                "cartan": m_cartan, "type30": m_type, "nondegeneracy": best}

    cases = [(name, name, max, False)
             for name in ("lift_oracle", "xi_tilde", "d_omega3_vs_xi", "cartan", "type30")]
    cases.append(("nondegeneracy", "nondegeneracy_floor", min, True))
    return _run("twistor", config, items, evaluate, cases,
                f"{config.loops} loops, seed {config.seed}")


def _family_calibrations(loop: Loop7, X: np.ndarray, Y: np.ndarray,
                         steps: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Calibration values of the planes (X_N, T ⋆ X_N, T) and of the control
    planes (X_N, P Y, T), P the normal projection, at 16 sampled points of
    each loop in the family flowed by s * X: one stacked associativity test,
    after every flowed loop is built and so checked for immersion."""
    g2 = standard_g2()
    idx = slice(0, None, max(1, loop.n // 16))
    moved = [loop if s == 0 else Loop7(loop.samples + s * X) for s in steps]
    X_N = np.array([normal_project(lp, X)[idx] for lp in moved])
    Y_N = np.array([normal_project(lp, Y)[idx] for lp in moved])
    T = np.array([lp.unit_tangent[idx] for lp in moved])
    partners = np.array([cross_field(g2, T, X_N), Y_N])
    calibration, control = is_associative(g2, X_N, partners, T)[1]
    return calibration.ravel(), control.ravel()


def suite_associative(config: VerifyConfig) -> SuiteReport:
    """Associativity of the planes spanned by a normal field, its rotation by
    the complex structure, and the knot tangent, along flowed families; control
    families with an unrelated second field must lose calibration."""
    rng = config.rng()
    steps = np.linspace(-0.1, 0.1, 5)
    n_families = max(4, config.loops // 2)
    items = []
    for _ in range(n_families):
        loop = random_loop(rng, config.n, config.max_mode)
        X = random_normal_field(rng, loop, config.max_mode)
        # a vanishing field spans no plane: its family is skipped before the control draw
        Y = None if np.abs(X).max() < 1e-12 else random_normal_field(rng, loop, config.max_mode)
        items.append((loop, X, Y))

    def evaluate(item):
        loop, X, Y = item
        if Y is None:
            return None
        try:
            calib, control = _family_calibrations(loop, X, Y, steps)
        except ImmersionViolation:
            return None
        return {"calibration": float(np.abs(calib - 1.0).max()),
                "control": float(np.abs(control).min())}

    cases = [("calibration", "calibration", partial(max, default=0.0), False),
             ("control", "control_ceiling", partial(min, default=1.0), False)]
    return _run("associative", config, items, evaluate, cases,
                f"{n_families} families, seed {config.seed}",
                skip=("skipped_families", "skipped_families"))


def suite_instanton(config: VerifyConfig) -> SuiteReport:
    """Equivalence of the algebraic instanton flag with the vanishing of the
    lifted curvature trace along a loop ensemble."""
    rng = config.rng()
    loops = [random_loop(rng, config.n, config.max_mode)
             for _ in range(min(config.loops, 10))]
    betas = [rng.standard_normal(21) for _ in range(config.instanton_samples)]
    weights = [0.0, 1e-3, 1.0]
    g2 = standard_g2()
    counts = {"flagged_samples": 0, "vanishing_samples": 0}

    def evaluate(item):
        i, coeffs = item
        beta7, beta14 = two_form_decompose(g2, AltForm(2, coeffs))
        w = weights[i % len(weights)]
        form = AltForm(2, beta14.coeffs + w * beta7.coeffs)
        try:
            flag, _ = is_g2_instanton(g2, form, config.tol("instanton"))
            lifted = lifted_curvature_type_residual(form, loops)
        except ZeroCurvature:
            return None
        vanishing = lifted < config.tol("lifted_instanton")
        counts["flagged_samples"] += flag
        counts["vanishing_samples"] += vanishing
        return {"equivalence_mismatches": float(flag != vanishing)}

    digest = f"{config.instanton_samples} samples, weights {weights}, seed {config.seed}"
    report = _run("instanton", config, list(enumerate(betas)), evaluate,
                  [("equivalence_mismatches", 1.0, sum, False)], digest,
                  skip=("skipped_zero_curvature", "zero_curvature_cases"))
    report.meta.update(counts)
    res7 = lifted_curvature_type_residual(contract(g2.rho, np.eye(7)[0]), loops)
    report.add_case("pure_seven_residual", res7, 0.1, digest, passed=res7 > 0.1)
    # zero mismatches are vacuous when the flag never fires or the trace
    # never vanishes: the smaller class must hold at least one sample
    fewer = min(counts.values())
    report.add_case("both_classes", fewer, 0.0, digest, passed=fewer > 0)
    report.cases[1:] = report.cases[-2:] + report.cases[1:-2]  # ahead of the skip case, if any
    return report


SUITES = {
    "kahler": suite_kahler,
    "twistor": suite_twistor,
    "associative": suite_associative,
    "instanton": suite_instanton,
}


def run_suites(names, config: VerifyConfig) -> list[SuiteReport]:
    """Run the named suites in order: a list of names or one name, where
    'all' expands to every suite."""
    if isinstance(names, str):
        names = [names]
    if names == ["all"]:
        names = list(SUITES)
    reports = []
    for name in names:
        if name not in SUITES:
            raise ConfigError(f"unknown suite {name!r}")
        reports.append(SUITES[name](config))
    return reports


def reports_to_json(reports: list[SuiteReport]) -> str:
    return json.dumps([r.to_dict() for r in reports], indent=2)
