"""Lifts of knots into the unit tangent sphere bundle S^6 x R^7 over flat R^7,
the splitting of lifted tangents, the complex 3-form on lifted knot spaces,
the 4-form pairing with its exterior derivative, and the Cartan bracket check.

The sphere-bundle point over a knot point is the unit tangent v = T(t); the
canonical lift of a knot uses its own unit tangent ("tangent lift" below).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .algebra import omega3_integrand, rho_star_covector, standard_g2
from .knots import KnotChart, _centered, _check_step, _real, nijenhuis_exact
from .loops import (Loop7, integrate, normal_project, spectral_derivative,
                    unit_speed_reparam)

FD_EPS = 1e-5


@dataclass
class LKnotLift:
    """A knot lifted into S^6 x R^7 by its own unit tangent: base is constant
    speed, and sphere_curve[j] = T(t_j) is its unit tangent at sample j."""

    base: Loop7

    @property
    def sphere_curve(self) -> np.ndarray:
        return self.base.unit_tangent

    @property
    def speed(self) -> float:
        return float(self.base.speeds.mean())


@dataclass
class SplitTangent:
    """Tangent vector to the lifted knot space, split into the sphere-fiber
    (vertical) component, pointwise orthogonal to v, and the R^7 (horizontal)
    component."""

    vertical: np.ndarray
    horizontal: np.ndarray

    def __post_init__(self):
        self.vertical = np.asarray(self.vertical)
        self.horizontal = np.asarray(self.horizontal)
        if self.vertical.shape != self.horizontal.shape:
            raise ValueError("vertical/horizontal shape mismatch")


def lknot_lift(loop: Loop7) -> LKnotLift:
    """Lift a knot by its unit tangent, after constant-speed resampling."""
    return LKnotLift(unit_speed_reparam(loop))


def lift_tangent(lift: LKnotLift, X1: np.ndarray) -> SplitTangent:
    """Split the lift of a normal variation field X1 of the base knot.

    The deformed loop gamma + eps*X1 (at fixed parametrization) has unit
    tangent v + eps*P(X1')/|gamma'|, so the vertical component is the
    projection of X1'/|gamma'| onto v-perp, with the pointwise speed, and the
    horizontal component is X1 itself.  A complex X1 is refused.  Matches the
    finite-difference oracle lift_tangent_fd to O(eps^2).
    """
    X1 = _real(X1)
    dX = normal_project(lift.base, spectral_derivative(X1))
    return SplitTangent(vertical=dX / lift.base.speeds[:, None], horizontal=X1)


def lift_tangent_fd(lift: LKnotLift, X1: np.ndarray) -> SplitTangent:
    """Independent oracle for lift_tangent: finite difference, with step
    FD_EPS, of the deformed loop's unit tangent at fixed parametrization."""
    X1 = _real(X1)
    vp = Loop7(lift.base.samples + FD_EPS * X1).unit_tangent
    vm = Loop7(lift.base.samples - FD_EPS * X1).unit_tangent
    return SplitTangent(vertical=(vp - vm) / (2.0 * FD_EPS), horizontal=X1)


def covariant_split(lift: LKnotLift, X1: np.ndarray) -> SplitTangent:
    """Covariant-derivative splitting (-X1'/c, X1) of a real lifted field.

    The fiber component is the unprojected parameter derivative; it is the
    splitting for which the 4-form integrand below telescopes into a total
    t-derivative.  It differs from lift_tangent by the component of X1'/c
    along v, which is generically of order one.
    """
    X1 = _real(X1)
    return SplitTangent(vertical=-spectral_derivative(X1) / lift.speed, horizontal=X1)


def omega3_eval(lift: LKnotLift, A: np.ndarray, B: np.ndarray,
                C: np.ndarray) -> complex:
    """The complex 3-form on the horizontal parts A, B, C ((N, 7) fields) of
    three lifted tangents; vertical parts do not contribute, so none is
    taken. A complex field is refused.

    Evaluates ∫ [rho(A,B,C) - i rho*(v,A,B,C)] dt.  The sign of the
    imaginary part is fixed so the form has type (3,0): replacing A by
    J_v A multiplies the value by i.
    """
    vals = omega3_integrand(standard_g2(), lift.sphere_curve, _real(A), _real(B), _real(C))
    return complex(integrate(lift.base, vals))


def _psi_covectors(args: list[SplitTangent]) -> list[np.ndarray]:
    """rho*(., B, C, D) for each argument, on the horizontal parts of the
    other three in order."""
    return [rho_star_covector(standard_g2(), *(W.horizontal for W in args[:a] + args[a + 1:]))
            for a in range(4)]


def _pairing(verticals, covectors) -> np.ndarray:
    """The alternating sum -sum_a (-1)^a V_a . q_a of each vertical against
    its covector from _psi_covectors, pointwise."""
    vals = 0.0  # takes the fields' dtype: real on the program's split fields
    for a, (V, q) in enumerate(zip(verticals, covectors)):
        vals = vals - (-1) ** a * np.sum(V * q, axis=-1)
    return vals


def xi_eval(W1: SplitTangent, W2: SplitTangent, W3: SplitTangent,
            W4: SplitTangent) -> np.ndarray:
    """Pointwise 4-form pairing d(complex 3-form) with the tangent splitting.

    For each argument the fiber slot contributes -rho*(W_a^ver, ., ., .) as a
    3-form, evaluated on the horizontal parts of the other three arguments,
    alternated over the four arguments.  Returns the (N,) array of pointwise
    values; vanishes whenever two or more arguments are purely vertical or
    all four are horizontal.
    """
    args = [W1, W2, W3, W4]
    return _pairing([W.vertical for W in args], _psi_covectors(args))


def xi_tilde(lift: LKnotLift, X1, X2, X3, X4) -> float:
    """Integral of the 4-form pairing over the tangent-lifted knot.

    Uses the covariant splitting (-X'/c, X), for which the integrand is the
    total derivative -(1/c) d/dt rho*(X1,...,X4) and the integral vanishes to
    quadrature accuracy.  With the orthogonally projected vertical of
    lift_tangent the integral is generically of order one; see the twistor
    tests for the measured gap.
    """
    ws = [covariant_split(lift, X) for X in (X1, X2, X3, X4)]
    vals = xi_eval(*ws)
    return float(integrate(lift.base, vals))


def cartan_check(lift: LKnotLift, X, Y, Z, T) -> complex:
    """Cartan pairing Omega(X^{1,0}, Y^{1,0}, [Z^{0,1}, T^{0,1}]) of the
    complex 3-form with a bracket of (0,1)-fields, in closed form.

    For chart-constant (0,1)-fields the (1,0) part of the bracket is
    N(Z, T)/4, and a form of type (3,0) reads a real normal A as its (1,0)
    part, so the pairing is Omega(X_N, Y_N, N(Z, T))/4 with N from
    nijenhuis_exact. The magnitude measures the integrability obstruction of
    the knot-space almost complex structure.
    """
    base = lift.base
    nij = nijenhuis_exact(KnotChart(base), Z, T)
    return omega3_eval(lift, normal_project(base, X), normal_project(base, Y), nij) / 4


def d_omega3_vs_xi(lift: LKnotLift, W1: SplitTangent, W2: SplitTangent,
                   W3: SplitTangent, W4: SplitTangent, h: float) -> tuple[complex, complex]:
    """Compare the finite-difference exterior derivative of the complex 3-form
    with i times the integrated 4-form pairing, on four chart-constant split
    fields over the sphere-bundle chart (fiber and base displaced
    independently, fiber points renormalized to the unit sphere).
    """
    _check_step(h)
    base_v = lift.sphere_curve
    args = [W1, W2, W3, W4]

    def omega_at(dv, q):
        # only -i rho*(v, A, B, C) = -i v . q moves with the fiber point: the
        # centered difference of the rho(A, B, C) part is exactly 0, so it is
        # not taken, and q = rho*(., A, B, C) is contracted once per direction
        # and shared with the right-hand side
        v = base_v + dv
        v = v / np.linalg.norm(v, axis=1)[:, None]
        return -1j * integrate(lift.base, np.sum(v * q, axis=1))

    qs = _psi_covectors(args)
    lhs = 0.0 + 0.0j
    for a, q in enumerate(qs):
        lhs += (-1) ** a * _centered(lambda dv: omega_at(dv, q), args[a].vertical, h)
    rhs = 1j * integrate(lift.base, _pairing([W.vertical for W in args], qs))
    return lhs, complex(rhs)
