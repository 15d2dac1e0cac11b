"""The package namespace and the cost of building the standard structure."""

import g2knot
from g2knot import algebra, forms

EXPORTS = [
    "AltForm", "ConfigError", "DegenerateForm", "DegenerateSpan",
    "FourierLoopSpec", "G2KnotError", "G2Structure", "ImmersionViolation", "KnotChart",
    "LKnotLift", "Loop7", "NonUnitAxis", "Octonion", "SplitTangent", "StepOutOfRange",
    "SuiteReport", "UnderResolved", "VerifyConfig", "ZeroCurvature", "acs_apply", "algebra",
    "arclength_params", "cartan_check", "chart_bracket", "circle_loop",
    "complex_structure_apply", "contract", "covariant_split", "cross", "cross_field",
    "d_omega", "d_omega3_vs_xi", "d_omega_fd", "errors", "forms", "hermitian_metric",
    "hermitian_trace_vector", "hodge_star", "instanton", "integrate", "is_associative",
    "is_g2_instanton", "knots", "lie_action_on_rho", "lift_tangent", "lift_tangent_fd",
    "lifted_curvature_type_residual", "lknot_lift", "loop_from_fourier", "loop_from_json",
    "loop_to_json", "loops", "metric_from_three_form", "nijenhuis", "nijenhuis_exact",
    "normal_project", "octonion_mul", "omega", "omega3_eval", "random_loop",
    "random_normal_field", "run_suites", "spectral_derivative", "spectral_tail",
    "standard_g2", "standard_phi", "suite_associative", "suite_instanton", "suite_kahler",
    "suite_twistor", "trig_interpolate", "twistor", "two_form_decompose",
    "two_form_operator_matrix", "unit_speed_reparam", "verify", "wedge", "xi_eval",
    "xi_tilde",
]


def test_standard_structure_is_built_without_wedge_or_hodge_star(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("standard_g2 derived its forms instead of using literals")

    for module in (algebra, forms):
        monkeypatch.setattr(module, "wedge", refuse)
        monkeypatch.setattr(module, "hodge_star", refuse)
    g2 = algebra.standard_g2.__wrapped__()  # bypass the cache: build it afresh
    assert g2.vol_coeff == 1.0


def test_every_export_resolves():
    listed = dir(g2knot)
    for name in EXPORTS:
        assert getattr(g2knot, name) is not None, name
        assert name in listed, name
    namespace = {}
    exec(f"from g2knot import {', '.join(EXPORTS)}", namespace)
    assert namespace["KnotChart"] is g2knot.knots.KnotChart
    from g2knot import KnotChart, circle_loop, nijenhuis, omega  # the README example
    assert (KnotChart, circle_loop, nijenhuis, omega) == (
        g2knot.KnotChart, g2knot.circle_loop, g2knot.nijenhuis, g2knot.omega)
