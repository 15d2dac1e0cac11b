"""The instanton condition for a constant curvature 2-form F on flat R^7
(F lies in Lambda^2_14), and its lift to knots: the trace of F against the
complex structure of the knot tangent must vanish along every knot.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from .algebra import G2Structure, hermitian_trace_vector, standard_g2, two_form_decompose
from .errors import ZeroCurvature
from .forms import AltForm
from .loops import Loop7

INSTANTON_TOL = 1e-10
LIFTED_TOL = 1e-6


def is_g2_instanton(g2: G2Structure, form: AltForm,
                    tol: float = INSTANTON_TOL) -> tuple[bool, float]:
    """Instanton test: the 2-form lies in Lambda^2_14.

    Returns (flag, residual) with residual = |beta_7| / |F|; raises
    ZeroCurvature when the 2-form vanishes.
    """
    norm = form.norm()
    if norm == 0.0:
        raise ZeroCurvature("curvature 2-form is identically zero")
    beta7, _ = two_form_decompose(g2, form)
    residual = beta7.norm() / norm
    return residual < tol, residual


def lifted_curvature_type_residual(form: AltForm, loops: Sequence[Loop7]) -> float:
    """Trace of the curvature 2-form against the knot complex structures.

    For each loop the complex structure at parameter t is J_{T(t)} on the
    normal space; the lifted curvature has pure type (1,1) there exactly when
    its trace against the Kaehler form of J_{T(t)} vanishes.  That trace is
    tau · T(t) with tau = hermitian_trace_vector(F), so the residual is
    sup over loops and t of |tau · T(t)| / |F|, and it vanishes for all loops
    exactly when F lies in Lambda^2_14.
    """
    norm = form.norm()
    if norm == 0.0:
        raise ZeroCurvature("curvature 2-form is identically zero")
    if len(loops) == 0:
        raise ValueError("need at least one loop")
    tau = hermitian_trace_vector(standard_g2(), form)
    return float(np.max([np.abs(loop.unit_tangent @ tau).max() for loop in loops])) / norm
