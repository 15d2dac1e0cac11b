"""Numerical verification of the Kaehler-type structure on the knot space of
flat R^7 with its standard G2 structure: exterior algebra, the vector cross
product, spectral loop calculus, knot-space forms, sphere-bundle lifts,
instanton conditions, and orchestrated verification suites.
"""

from .algebra import (G2Structure, Octonion, cross, cross_field,
                      complex_structure_apply, hermitian_trace_vector,
                      is_associative, lie_action_on_rho, metric_from_three_form,
                      octonion_mul, standard_g2,
                      standard_phi, two_form_decompose,
                      two_form_operator_matrix)
from .errors import (ConfigError, DegenerateForm, DegenerateSpan, G2KnotError,
                     ImmersionViolation, NonUnitAxis, StepOutOfRange,
                     UnderResolved, ZeroCurvature)
from .forms import AltForm, contract, hodge_star, wedge
from .instanton import is_g2_instanton, lifted_curvature_type_residual
from .knots import (KnotChart, acs_apply, chart_bracket, d_omega, d_omega_fd,
                    hermitian_metric, nijenhuis, nijenhuis_exact, omega)
from .loops import (FourierLoopSpec, Loop7, arclength_params, circle_loop,
                    integrate, loop_from_fourier, loop_from_json, loop_to_json,
                    normal_project, spectral_derivative, spectral_tail,
                    trig_interpolate, unit_speed_reparam)
from .twistor import (LKnotLift, SplitTangent, cartan_check, covariant_split,
                      d_omega3_vs_xi, lift_tangent, lift_tangent_fd,
                      lknot_lift, omega3_eval, xi_eval, xi_tilde)
from .verify import (SuiteReport, VerifyConfig, random_loop,
                     random_normal_field, run_suites, suite_associative,
                     suite_instanton, suite_kahler, suite_twistor)

__version__ = "0.1.0"
