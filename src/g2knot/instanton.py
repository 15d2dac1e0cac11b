"""Constant-curvature samples of gauge fields on flat R^7, the instanton
condition (curvature in Lambda^2_14), and its lift to knots: the trace of the
curvature against the complex structure of the knot tangent must vanish
along every knot.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .algebra import G2Structure, hermitian_trace_vector, standard_g2, two_form_decompose
from .errors import ZeroCurvature
from .forms import AltForm
from .loops import Loop7

INSTANTON_TOL = 1e-10
LIFTED_TOL = 1e-6
MAX_GENERATOR_DIM = 4


@dataclass
class CurvatureSample:
    """Curvature F = form ⊗ generator of a gauge field with constant
    coefficients: a 2-form on R^7 times a fixed skew generator matrix."""

    form: AltForm
    generator: np.ndarray

    def __post_init__(self):
        if self.form.degree != 2:
            raise ValueError("curvature form must be a 2-form")
        gen = np.asarray(self.generator, dtype=float)
        if gen.ndim != 2 or gen.shape[0] != gen.shape[1]:
            raise ValueError("generator must be a square matrix")
        if gen.shape[0] > MAX_GENERATOR_DIM:
            raise ValueError(f"generator dimension exceeds {MAX_GENERATOR_DIM}")
        if np.abs(gen + gen.T).max() > 1e-12 * max(np.abs(gen).max(), 1.0):
            raise ValueError("generator must be skew-symmetric")
        if np.linalg.norm(gen) == 0.0:
            raise ValueError("generator must be nonzero")
        self.generator = gen


def is_g2_instanton(g2: G2Structure, sample: CurvatureSample,
                    tol: float = INSTANTON_TOL) -> tuple[bool, float]:
    """Instanton test: the 2-form part lies in Lambda^2_14.

    Returns (flag, residual) with residual = |beta_7| / |F|; raises
    ZeroCurvature when the 2-form vanishes.
    """
    norm = sample.form.norm()
    if norm == 0.0:
        raise ZeroCurvature("curvature 2-form is identically zero")
    beta7, _ = two_form_decompose(g2, sample.form)
    residual = beta7.norm() / norm
    return residual < tol, residual


def lifted_curvature_type_residual(sample: CurvatureSample, loops: Sequence[Loop7]) -> float:
    """Trace of the curvature against the knot complex structures.

    For each loop the complex structure at parameter t is J_{T(t)} on the
    normal space; the lifted curvature has pure type (1,1) there exactly when
    its trace against the Kaehler form of J_{T(t)} vanishes.  That trace is
    tau · T(t) with tau = hermitian_trace_vector(F), so the residual is
    sup over loops and t of |tau · T(t)| / |F|, and it vanishes for all loops
    exactly when F lies in Lambda^2_14.
    """
    norm = sample.form.norm()
    if norm == 0.0:
        raise ZeroCurvature("curvature 2-form is identically zero")
    if len(loops) == 0:
        raise ValueError("need at least one loop")
    tau = hermitian_trace_vector(standard_g2(), sample.form)
    worst = max(float(np.abs(loop.unit_tangent @ tau).max()) for loop in loops)
    return worst / norm
