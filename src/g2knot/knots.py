"""Discretized geometry of the knot space of flat R^7: the almost complex
structure, the symplectic 2-form, the Hermitian metric, chart brackets and
the Nijenhuis tensor.

A chart at a base loop consists of variation fields u normal to the base;
u represents the loop base + u.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .algebra import cross_field, rho_covector, rho_field, standard_g2
from .errors import StepOutOfRange
from .loops import Loop7, integrate, normal_project, spectral_derivative

H_MIN, H_MAX = 1e-6, 1e-2


def acs_apply(loop: Loop7, X: np.ndarray) -> np.ndarray:
    """Almost complex structure: (I X)(t) = T(t) ⋆ X_N(t); complex-linear."""
    return cross_field(standard_g2(), loop.unit_tangent, normal_project(loop, X))


def omega(loop: Loop7, X: np.ndarray, Y: np.ndarray):
    """Symplectic form omega(X, Y) = ∫ rho(X(t), Y(t), γ'(t)) dt.

    As a line integral of rho this is invariant under reparametrization, so
    no unit-speed normalization is needed.
    """
    return integrate(loop, rho_field(standard_g2(), X, Y, loop.velocity))


def hermitian_metric(loop: Loop7, X: np.ndarray, Y: np.ndarray):
    """Hermitian metric G(X, Y) = ∫ g(X_N, Y_N) |γ'| dt (arclength integral).

    The speed weight makes G reparametrization invariant and equal to the
    constant-speed-chart value ∫ g(X_N, Y_N) dt up to the fixed speed factor.
    """
    vals = np.einsum("ni,ni->n", normal_project(loop, X), normal_project(loop, Y))
    return integrate(loop, vals * loop.speeds)


@dataclass
class KnotChart:
    """Normal-bundle chart of the knot space at a constant-speed base loop."""

    base: Loop7

    def loop_at(self, u: np.ndarray) -> Loop7:
        """The loop base + u; the base itself when u is all zeros."""
        u = np.asarray(u, dtype=float)
        return Loop7(self.base.samples + u) if np.any(u) else self.base

    def to_chart_tangent(self, loop: Loop7, W: np.ndarray) -> np.ndarray:
        """Quotient identification: shift W along the loop tangent so it is
        pointwise normal to the base (tangential shifts are reparametrizations).
        """
        tau = loop.unit_tangent
        T_b = self.base.unit_tangent
        num = np.einsum("ni,ni->n", np.asarray(W), T_b)
        den = np.einsum("ni,ni->n", tau, T_b)
        return W - (num / den)[:, None] * tau

    def acs(self, u: np.ndarray, X: np.ndarray) -> np.ndarray:
        """The almost complex structure in chart coordinates at the point u.

        Applies the pointwise cross-product structure at the loop base + u and
        maps the result back to a base-normal chart tangent; satisfies
        acs(u, acs(u, X)) = -X exactly on chart tangents.
        """
        loop = self.loop_at(u)
        return self.to_chart_tangent(loop, acs_apply(loop, X))


def _check_step(h: float):
    if not H_MIN <= h <= H_MAX:
        raise StepOutOfRange(f"step {h} outside [{H_MIN}, {H_MAX}]")


def _centered(f, d: np.ndarray, h: float):
    """Centered difference (f(s d) - f(-s d)) / 2s with step s = h / max|d|
    along a real direction d; a zero direction gives zeros shaped like f.
    """
    d = _real(d)
    scale = np.abs(d).max()
    if scale == 0.0:
        return np.zeros_like(f(d))
    step = h / scale
    return (f(step * d) - f(-step * d)) / (2.0 * step)


def chart_bracket(chart: KnotChart, A, B, h: float) -> np.ndarray:
    """Commutator [A, B] at the base of two chart field maps u -> field, by
    centered differences."""
    _check_step(h)
    zero = np.zeros((chart.base.n, 7))
    return _centered(B, A(zero), h) - _centered(A, B(zero), h)


def _real(F) -> np.ndarray:
    """F as a float array. The knot-space operators below are real-only: a
    complex field is refused rather than cut to its real part."""
    if np.iscomplexobj(F):
        raise ValueError("expected a real field, got a complex one")
    return np.asarray(F, dtype=float)


def nijenhuis(chart: KnotChart, X: np.ndarray, Y: np.ndarray, h: float) -> np.ndarray:
    """Nijenhuis tensor N(X, Y) = [X,Y] + I[IX,Y] + I[X,IY] - [IX,IY] at u = 0
    for chart-constant normal fields X, Y; [X,Y] = 0 by construction, and a
    constant field has no derivative, so [IX,Y] = -D_Y(IX) and [X,IY] = D_X(IY).
    """
    X = normal_project(chart.base, _real(X))
    Y = normal_project(chart.base, _real(Y))
    zero = np.zeros_like(X)
    # as chart maps u -> field, IX and IY turn with I_u
    IX, IY = (lambda u: chart.acs(u, X)), (lambda u: chart.acs(u, Y))
    turned = chart_bracket(chart, IX, IY, h)  # checks h first
    return (chart.acs(zero, -_centered(IX, Y, h))
            + chart.acs(zero, _centered(IY, X, h))
            - turned)


def nijenhuis_exact(chart: KnotChart, X: np.ndarray, Y: np.ndarray) -> np.ndarray:
    """Closed form of `nijenhuis`, with no step and no displaced loop.

    I_u moves with u only through the unit tangent, whose first variation
    along D is P D'/|γ'| (as in twistor.lift_tangent), and to first order
    to_chart_tangent is the normal projection P. So the variation of I along
    D is (δ_D I) Z = P((P D'/|γ'|) ⋆ Z), and with the bracket convention of
    `nijenhuis`, N(X, Y) = I((δ_X I) Y - (δ_Y I) X) + (δ_{IY} I) X - (δ_{IX} I) Y,
    where I = T ⋆ P(·) absorbs the inner projection.
    """
    base = chart.base
    g2 = standard_g2()
    X = normal_project(base, _real(X))
    Y = normal_project(base, _real(Y))
    IX, IY = acs_apply(base, X), acs_apply(base, Y)
    derivs = spectral_derivative(np.hstack([X, Y, IX, IY]))
    derivs /= base.speeds[:, None]
    dX, dY, dIX, dIY = (normal_project(base, D) for D in np.hsplit(derivs, 4))
    inner = cross_field(g2, dX, Y) - cross_field(g2, dY, X)
    outer = cross_field(g2, dIY, X) - cross_field(g2, dIX, Y)
    return acs_apply(base, inner) + normal_project(base, outer)


def d_omega(chart: KnotChart, X: np.ndarray, Y: np.ndarray, Z: np.ndarray) -> float:
    """Exterior derivative of omega on chart-constant fields, via the exact
    linearity of u -> omega_{base+u}: X·omega(Y,Z) = ∫ rho(Y, Z, X') dt.
    """
    def term(A, B, C):
        dC = spectral_derivative(_real(C))
        return integrate(chart.base, rho_field(standard_g2(), _real(A), _real(B), dC))

    return term(Y, Z, X) - term(X, Z, Y) + term(X, Y, Z)


def d_omega_fd(chart: KnotChart, X: np.ndarray, Y: np.ndarray, Z: np.ndarray,
               h: float) -> float:
    """Finite-difference route for d_omega, used as the independent oracle."""
    _check_step(h)

    def deriv(direction, A, B):
        q = rho_covector(standard_g2(), A, B)  # fixed in u: contracted once per direction
        return _centered(lambda u: integrate(chart.base, np.sum(q * chart.loop_at(u).velocity, -1)),
                         _real(direction), h)

    return deriv(X, Y, Z) - deriv(Y, X, Z) + deriv(Z, X, Y)
