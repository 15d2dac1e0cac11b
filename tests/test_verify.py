"""Verification suite plumbing: configuration validation, determinism,
report schema, convergence tables, and suite outcomes at reduced scale."""

import csv
import io
import json
import os
import subprocess
import sys

import numpy as np
import pytest

from g2knot import knots, twistor, verify
from g2knot.algebra import G2Structure, cross_field, is_associative, standard_g2
from g2knot.errors import ConfigError, ImmersionViolation
from g2knot.forms import AltForm
from g2knot.instanton import LIFTED_TOL, is_g2_instanton, lifted_curvature_type_residual
from g2knot.loops import Loop7, normal_project
from g2knot.verify import (SuiteReport, VerifyConfig, _family_calibrations,
                           _nondegeneracy_table, random_loop, random_normal_field,
                           reports_to_json, run_suites, suite_associative,
                           suite_instanton, suite_kahler, suite_twistor)
from test_algebra import ref_is_associative
from test_twistor import omega3_trilinear

SMALL = dict(loops=3, fields=2, n=256, instanton_samples=9)


@pytest.fixture(scope="module")
def kahler_report():
    return suite_kahler(VerifyConfig(**SMALL))


@pytest.fixture(scope="module")
def twistor_report():
    # the lift-oracle tolerance needs the full spectral resolution
    return suite_twistor(VerifyConfig(**dict(SMALL, n=512)))


def case(report, name):
    return next(c for c in report.cases if c["name"] == name)


class TestConfig:
    def test_defaults_are_valid(self):
        cfg = VerifyConfig()
        assert cfg.tol("nijenhuis") == 1e-6

    def test_sample_floor(self):
        with pytest.raises(ConfigError):
            VerifyConfig(n=8)

    def test_step_range(self):
        with pytest.raises(ConfigError):
            VerifyConfig(h=1.0)
        with pytest.raises(ConfigError):
            VerifyConfig(h=1e-9)

    def test_ensemble_sizes(self):
        with pytest.raises(ConfigError):
            VerifyConfig(loops=0)
        with pytest.raises(ConfigError):
            VerifyConfig(fields=-1)

    def test_tolerance_overrides(self):
        cfg = VerifyConfig(tolerances={"nijenhuis": 0.5})
        assert cfg.tol("nijenhuis") == 0.5
        with pytest.raises(ConfigError):
            VerifyConfig(tolerances={"nijenhuis": -1.0})
        with pytest.raises(ConfigError):
            VerifyConfig(tolerances={"no_such_key": 1.0})
        # a boolean is not a tolerance, and an infinite or nan one never decides
        for bad in (True, float("inf"), float("nan")):
            with pytest.raises(ConfigError):
                VerifyConfig(tolerances={"cartan": bad})


class TestEnsemble:
    def test_random_loop_is_well_conditioned(self):
        rng = np.random.default_rng(11)
        loop = random_loop(rng, 256)
        assert loop.speeds.min() / loop.speeds.mean() >= 0.5

    def test_random_field_is_normal(self):
        rng = np.random.default_rng(11)
        loop = random_loop(rng, 256)
        X = random_normal_field(rng, loop)
        dots = np.einsum("ni,ni->n", X, loop.unit_tangent)
        assert np.abs(dots).max() < 1e-12


class TestReportSchema:
    def test_json_schema(self, kahler_report):
        doc = json.loads(kahler_report.to_json())
        assert set(doc) == {"suite", "pass", "cases", "convergence", "meta"}
        for c in doc["cases"]:
            assert {"name", "residual", "tolerance", "pass", "skipped", "inputs"} <= set(c)
        assert doc["meta"]["seed"] == 7

    def test_convergence_csv(self, kahler_report):
        rows = list(csv.DictReader(io.StringIO(kahler_report.convergence_csv())))
        assert len(rows) == len(kahler_report.convergence) > 0
        assert set(rows[0]) == {"study", "parameter", "value", "residual"}

    def test_reports_to_json(self, kahler_report):
        doc = json.loads(reports_to_json([kahler_report]))
        assert isinstance(doc, list) and doc[0]["suite"] == "kahler"


class TestDeterminism:
    def test_identical_seeds_identical_reports(self):
        a = suite_instanton(VerifyConfig(**SMALL)).to_json()
        b = suite_instanton(VerifyConfig(**SMALL)).to_json()
        assert a == b

    def test_blas_threads_do_not_change_results(self, tmp_path):
        # the G2 field kernels run through BLAS matrix products
        src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
        outputs = []
        for threads in ("1", "2"):
            out = tmp_path / f"report-{threads}.json"
            env = dict(os.environ, OPENBLAS_NUM_THREADS=threads, PYTHONPATH=src)
            subprocess.run([sys.executable, "-m", "g2knot.cli", "verify", "twistor",
                            "--loops", "1", "--n", "128", "--seed", "7", "-o", str(out)],
                           env=env, capture_output=True, timeout=300)
            outputs.append(out.read_bytes())
        assert outputs[0] and outputs[0] == outputs[1]


class TestNondegeneracyProbe:
    @pytest.fixture(scope="class")
    def probe(self):
        rng = np.random.default_rng(31)
        lift = twistor.lknot_lift(random_loop(rng, 256, 5))
        X = random_normal_field(rng, lift.base, 5)
        Pe = [normal_project(lift.base, np.tile(e, (256, 1))) for e in np.eye(7)]
        return lift, X, Pe, _nondegeneracy_table(lift, X)

    @staticmethod
    def assert_close(table, ref):
        # both triangles and the diagonal
        assert np.abs(table - ref).max() <= 1e-13 * np.abs(ref).max()

    def test_table_is_antisymmetric(self, probe):
        *_, (table, _) = probe
        scale = np.abs(table).max()
        assert np.abs(table + table.T).max() <= 1e-13 * scale
        assert np.abs(np.diag(table)).max() <= 1e-13 * scale

    def test_table_matches_per_pair_evaluation(self, probe):
        lift, X, Pe, (table, denom) = probe
        ref = np.zeros((7, 7), dtype=complex)
        for j in range(7):
            for k in range(7):
                ref[j, k] = twistor.omega3_eval(lift, X, Pe[j], Pe[k])
                assert denom[j, k] == np.abs(X).max() * np.abs(Pe[j]).max() * np.abs(Pe[k]).max()
        self.assert_close(table, ref)

    def test_table_equals_type_10_route(self, probe):
        # the former route: Omega on the (1,0) parts A = (X - i IX)/2 and
        # F_j = (P e_j - i T ⋆ e_j)/2, which the (3,0) type makes equal to
        # Omega on the real fields
        lift, X, Pe, (table, _) = probe
        base = lift.base

        def type_10(F):
            return 0.5 * (F - 1j * knots.acs_apply(base, F))
        A, F = type_10(X), [type_10(P) for P in Pe]
        assert np.abs(F[0].imag).max() > 0.1  # the route is genuinely complex
        ref = np.zeros((7, 7), dtype=complex)
        for j in range(7):
            for k in range(7):
                ref[j, k] = omega3_trilinear(lift, A, F[j], F[k])
        self.assert_close(table, ref)


class TestKahlerSuite:
    def test_closedness_and_compatibility_pass(self, kahler_report):
        assert case(kahler_report, "d_omega_exact")["pass"]
        assert case(kahler_report, "d_omega_fd")["pass"]
        assert case(kahler_report, "compatibility")["pass"]

    def test_nijenhuis_obstruction_is_reported(self, kahler_report):
        # the almost complex structure has a genuine order-one Nijenhuis
        # residual (see the circle witness in the knot tests), so this case
        # fails by construction and the suite reports it honestly
        c = case(kahler_report, "nijenhuis")
        assert not c["pass"]
        assert c["residual"] > 0.1

    def test_nijenhuis_residual_is_step_independent(self, kahler_report):
        rows = [r for r in kahler_report.convergence if r["study"] == "nijenhuis_vs_h"]
        vals = [r["residual"] for r in rows]
        assert len(vals) == 3
        assert max(vals) / min(vals) < 1.01

    def test_quadrature_convergence_in_n(self, kahler_report):
        rows = sorted((r for r in kahler_report.convergence
                       if r["study"] == "d_omega_fd_vs_n"), key=lambda r: r["value"])
        residuals = [r["residual"] for r in rows]
        assert residuals[-1] < 1e-8 < residuals[0]


class TestTwistorSuite:
    def test_identities_pass(self, twistor_report):
        for name in ("lift_oracle", "d_omega3_vs_xi", "type30", "xi_tilde"):
            assert case(twistor_report, name)["pass"], name

    def test_cartan_obstruction_is_reported(self, twistor_report):
        c = case(twistor_report, "cartan")
        assert not c["pass"]
        assert c["residual"] > 1e-3

    def test_nondegeneracy(self, twistor_report):
        assert case(twistor_report, "nondegeneracy")["pass"]


class TestOtherSuites:
    def test_associative_suite_passes(self):
        report = suite_associative(VerifyConfig(**SMALL))
        assert report.passed
        assert case(report, "calibration")["residual"] < 1e-10
        assert case(report, "control")["residual"] < 0.999

    @pytest.mark.parametrize("partner", ["rotated", "control"])
    def test_family_calibrations_match_per_point_reference(self, partner):
        # the calibration array pairs X_N with T × X_N, the control array with Y_N
        rng = np.random.default_rng(23)
        loop = random_loop(rng, 256)
        X, Y = random_normal_field(rng, loop), random_normal_field(rng, loop)
        g2 = standard_g2()
        partner_field = {"rotated": lambda lp, xn: cross_field(g2, lp.unit_tangent, xn),
                         "control": lambda lp, xn: normal_project(lp, Y)}[partner]
        steps = np.linspace(-0.1, 0.1, 5)
        ref = []
        for s in steps:
            moved = Loop7(loop.samples + s * X)
            X_N = normal_project(moved, X)
            P, T = partner_field(moved, X_N), moved.unit_tangent
            ref += [ref_is_associative(g2, X_N[t], P[t], T[t])[1] for t in range(0, 256, 16)]
        calib, control = _family_calibrations(loop, X, Y, steps)
        got = {"rotated": calib, "control": control}[partner]
        assert calib.shape == control.shape == (5 * 16,)
        assert np.abs(got - np.asarray(ref)).max() <= 1e-14

    def test_immersion_failure_at_one_step_skips_its_family(self, monkeypatch):
        original = verify._family_calibrations

        def run_recording_families():
            families = []

            def record(*args):
                families.append(original(*args))
                return families[-1]

            monkeypatch.setattr(verify, "_family_calibrations", record)
            return families, suite_associative(VerifyConfig(**SMALL))

        clean_families, clean = run_recording_families()
        assert clean.meta["skipped_families"] == 0 and len(clean_families) == 4

        builds = []

        def failing_loop(samples):
            builds.append(samples)
            if len(builds) == 4:  # s = 0.1 of the first family; s = 0 builds nothing
                raise ImmersionViolation("planted at a nonzero flow step")
            return Loop7(samples)

        monkeypatch.setattr(verify, "Loop7", failing_loop)
        families, report = run_recording_families()
        assert report.meta["skipped_families"] == 1
        assert case(report, "skipped_families")["residual"] == 1.0
        assert len(families) == 3
        for (calib, control), (ref_calib, ref_control) in zip(families, clean_families[1:]):
            assert np.array_equal(calib, ref_calib) and np.array_equal(control, ref_control)
        assert case(report, "calibration")["residual"] == max(
            float(np.abs(c - 1.0).max()) for c, _ in families)
        assert case(report, "control")["residual"] == min(
            float(np.abs(c).min()) for _, c in families)

    def test_associative_suite_call_counts(self, monkeypatch):
        # one stacked associativity test per family, and the flowed loops built
        # once each, the s = 0 member being the drawn loop itself
        calls = {"is_associative": 0, "Loop7": 0}

        def counted(name, fn):
            def wrapper(*args):
                calls[name] += 1
                return fn(*args)
            return wrapper

        monkeypatch.setattr(verify, "is_associative", counted("is_associative", is_associative))
        monkeypatch.setattr(verify, "Loop7", counted("Loop7", Loop7))
        report = suite_associative(VerifyConfig(**SMALL))
        assert report.meta["skipped_families"] == 0
        assert calls["is_associative"] == 4  # families at SMALL
        assert calls["Loop7"] <= 4 * 4

    def test_instanton_suite_passes(self):
        report = suite_instanton(VerifyConfig(**SMALL))
        assert report.passed
        assert case(report, "equivalence_mismatches")["residual"] == 0.0
        assert case(report, "pure_seven_residual")["residual"] > 0.1

    @pytest.mark.parametrize("seed", [7, 8, 410])
    def test_instanton_suite_sees_both_classes(self, monkeypatch, seed):
        # zero mismatches would also follow from a flag that never fires and
        # a trace that never vanishes; with the true psi, 17 of 50 do each
        flags, lifted = [], []

        def count_flags(*args):
            flag, residual = is_g2_instanton(*args)
            flags.append(flag)
            return flag, residual

        def count_lifted(*args):
            lifted.append(lifted_curvature_type_residual(*args))
            return lifted[-1]

        monkeypatch.setattr(verify, "is_g2_instanton", count_flags)
        monkeypatch.setattr(verify, "lifted_curvature_type_residual", count_lifted)
        report = suite_instanton(VerifyConfig(seed=seed))
        samples = lifted[:-1]  # the last call is pure_seven_residual
        assert len(flags) == len(samples) == 50
        assert sum(flags) == report.meta["flagged_samples"] == 17
        assert sum(r < LIFTED_TOL for r in samples) == report.meta["vanishing_samples"] == 17

    def test_instanton_report_counts_both_classes(self):
        report = suite_instanton(VerifyConfig(**SMALL))
        # weights cycle through 0, 1e-3 and 1: samples 0, 3 and 6 are pure 14
        assert report.meta["flagged_samples"] == report.meta["vanishing_samples"] == 3
        assert [c["name"] for c in report.cases] == [
            "equivalence_mismatches", "pure_seven_residual", "both_classes"]
        assert case(report, "both_classes")["residual"] == 3.0
        assert case(report, "both_classes")["pass"]

    def test_both_classes_fails_with_flipped_psi(self, monkeypatch):
        # a flipped psi flags no sample and lets no lifted trace vanish, so
        # equivalence_mismatches passes vacuously; both_classes must not
        g2 = standard_g2()
        flipped = G2Structure(rho=g2.rho, metric=g2.metric, vol_coeff=g2.vol_coeff,
                              rho_star=AltForm(4, -g2.rho_star.coeffs))
        monkeypatch.setattr(verify, "standard_g2", lambda: flipped)
        report = suite_instanton(VerifyConfig(**SMALL))
        assert case(report, "equivalence_mismatches")["pass"]
        assert report.meta["flagged_samples"] == report.meta["vanishing_samples"] == 0
        assert not case(report, "both_classes")["pass"]
        assert not report.passed


def nan_on_call(fn, k, poison):
    """fn, with its k-th call's result passed through poison."""
    calls = []

    def wrapper(*args, **kwargs):
        calls.append(None)
        out = fn(*args, **kwargs)
        return poison(out) if len(calls) == k else out
    return wrapper


def scalar_nan(out):
    return np.nan


class TestNonFiniteResiduals:
    """A NaN from one operator on an item after the first reads NaN and fails
    its case, floor cases included: a builtin max or min keeps a NaN only when
    it comes first, and a running max from 0.0 keeps none."""

    @pytest.mark.parametrize("suite, module, name, k, poison, names", [
        # kahler: 2 triples a loop; omega is called twice per triple
        ("kahler", knots, "d_omega", 4, scalar_nan, ["d_omega_exact"]),
        ("kahler", knots, "omega", 5, scalar_nan, ["compatibility"]),
        ("twistor", twistor, "xi_tilde", 3, scalar_nan, ["xi_tilde"]),
        # a NaN field leaves both the table and its scale NaN
        ("twistor", verify, "_nondegeneracy_table", 3,
         lambda out: (out[0] * np.nan, out[1] * np.nan), ["nondegeneracy"]),
        ("associative", verify, "is_associative", 2,
         lambda out: (out[0], out[1] * np.nan), ["calibration", "control"]),
        ("instanton", verify, "lifted_curvature_type_residual", 2, scalar_nan,
         ["equivalence_mismatches"]),
    ], ids=["d_omega_exact", "compatibility", "xi_tilde", "nondegeneracy",
            "calibration_and_control", "equivalence_mismatches"])
    def test_nan_on_a_later_item_fails(self, monkeypatch, suite, module, name, k,
                                       poison, names):
        monkeypatch.setattr(module, name, nan_on_call(getattr(module, name), k, poison))
        report, = run_suites(suite, VerifyConfig(seed=7, loops=5, fields=2, n=512,
                                                 instanton_samples=9))
        for c in (case(report, n) for n in names):
            assert np.isnan(c["residual"]) and not c["pass"], c
        assert not report.passed
        assert "NaN" in report.to_json()


class TestResidualScale:
    def test_a_planted_defect_reads_alike_at_every_n(self, monkeypatch):
        # G off by 1e-8 relative reads about 2.75e-8 on the sup-norm scale at
        # either N; a Frobenius pair scale grows as N and hid it (4.3e-11 and
        # 2.2e-11 against the 1e-10 tolerance, seed 7)
        metric = knots.hermitian_metric
        monkeypatch.setattr(knots, "hermitian_metric",
                            lambda *args: metric(*args) * (1.0 + 1e-8))
        low, high = (case(suite_kahler(VerifyConfig(seed=7, loops=3, fields=3, n=n)),
                          "compatibility") for n in (512, 1024))
        assert not low["pass"] and not high["pass"]
        assert abs(low["residual"] - high["residual"]) <= 0.01 * high["residual"]


class TestRunSuites:
    def test_all_expansion(self):
        reports = run_suites("all", VerifyConfig(**dict(SMALL, loops=2, fields=1)))
        assert [r.suite for r in reports] == ["kahler", "twistor", "associative", "instanton"]

    def test_single_suite_name_as_string(self):
        reports = run_suites("instanton", VerifyConfig(**SMALL))
        assert [r.suite for r in reports] == ["instanton"]

    def test_unknown_suite_rejected(self):
        with pytest.raises(ConfigError):
            run_suites(["nope"], VerifyConfig(**SMALL))

    def test_report_overall_pass_semantics(self):
        rep = SuiteReport(suite="demo")
        rep.add_case("a", 0.0, 1.0)
        assert rep.passed
        rep.add_case("b", 2.0, 1.0)
        assert not rep.passed
