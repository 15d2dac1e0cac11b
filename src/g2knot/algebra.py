"""The G2 structure on R^7: metric from a 3-form, cross product, octonions,
the pointwise complex structures J_v and complex 3-forms Omega_v, the 7+14
split of 2-forms, and associativity of 3-planes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property, lru_cache

import numpy as np

from .errors import DegenerateForm, DegenerateSpan, NonUnitAxis
from .forms import DIM, AltForm, contract, hodge_star, table, wedge

UNIT_AXIS_TOL = 1e-12
ASSOCIATIVE_TOL = 1e-8


def standard_phi() -> AltForm:
    """The reference G2 3-form
    phi0 = e123 + e145 + e167 + e246 - e257 - e347 - e356  (1-based indices).
    """
    return AltForm.from_terms(3, {
        (0, 1, 2): 1.0,
        (0, 3, 4): 1.0,
        (0, 5, 6): 1.0,
        (1, 3, 5): 1.0,
        (1, 4, 6): -1.0,
        (2, 3, 6): -1.0,
        (2, 4, 5): -1.0,
    })


@dataclass(frozen=True)
class G2Structure:
    """A non-degenerate 3-form with its induced metric, volume and 4-form,
    and the dense tensors of rho, rho* and the cross product, built once;
    the 2-form operator L is built on first use."""

    rho: AltForm
    metric: np.ndarray          # 7x7 symmetric positive definite
    vol_coeff: float            # volume form = vol_coeff * e^{1...7}
    rho_star: AltForm           # *rho under (metric, vol)
    metric_inv: np.ndarray = field(init=False, repr=False)
    rho_tensor: np.ndarray = field(init=False, repr=False)
    rho_star_tensor: np.ndarray = field(init=False, repr=False)
    cross_tensor: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        object.__setattr__(self, "metric_inv", np.linalg.inv(self.metric))
        object.__setattr__(self, "rho_tensor", self.rho.tensor())
        object.__setattr__(self, "rho_star_tensor", self.rho_star.tensor())
        # (x*y)^k = g^{kl} rho_{ijl} x^i y^j
        ct = np.tensordot(self.rho_tensor, self.metric_inv, axes=([2], [0]))
        object.__setattr__(self, "cross_tensor", ct)

    @cached_property
    def two_form_operator(self) -> np.ndarray:
        """two_form_operator_matrix of this structure, read-only."""
        L = two_form_operator_matrix(self)
        L.flags.writeable = False
        return L

    def inner(self, x, y) -> float:
        return float(np.asarray(x) @ self.metric @ np.asarray(y))

    def vnorm(self, x) -> float:
        return math.sqrt(max(self.inner(x, x), 0.0))


def metric_from_three_form(rho: AltForm) -> G2Structure:
    """Recover the metric, volume and 4-form from a non-degenerate 3-form.

    b(x,y) vol0 = (1/6) (rho ⌟ x) ∧ (rho ⌟ y) ∧ rho with vol0 = e^{1...7};
    then vol = |det b|^{1/9} vol0 and g = (sign-fixed b) / |det b|^{1/9}.
    Raises DegenerateForm for degenerate or split forms.
    """
    if rho.degree != 3:
        raise ValueError("expected a 3-form")
    contractions = [contract(rho, np.eye(DIM)[i]) for i in range(DIM)]
    b = np.empty((DIM, DIM))
    for i in range(DIM):
        for j in range(i, DIM):
            b[i, j] = b[j, i] = wedge(wedge(contractions[i], contractions[j]), rho).coeffs[0]
    b /= 6.0
    eigvals = np.linalg.eigvalsh(b)
    scale_ref = np.max(np.abs(eigvals))
    if scale_ref == 0.0 or np.min(np.abs(eigvals)) < 1e-12 * scale_ref:
        raise DegenerateForm("contraction pairing is rank deficient")
    sign = 1.0 if np.all(eigvals > 0) else (-1.0 if np.all(eigvals < 0) else 0.0)
    if sign == 0.0:
        raise DegenerateForm("split 3-form: contraction pairing is indefinite")
    det = float(np.linalg.det(b))
    scale = abs(det) ** (1.0 / 9.0)
    metric = sign * b / scale
    vol_coeff = scale
    rho_star = hodge_star(rho, metric, vol_coeff)
    return G2Structure(rho=rho, metric=metric, vol_coeff=vol_coeff, rho_star=rho_star)


@lru_cache(maxsize=1)
def standard_g2() -> G2Structure:
    """The flat G2 structure of standard_phi: identity metric, unit volume and
    psi0 = *phi0 = e4567 + e2367 + e2345 + e1357 - e1346 - e1256 - e1247
    (1-based), written out; metric_from_three_form(standard_phi()) derives
    the same structure through 56 wedges and a Hodge star.
    """
    psi0 = AltForm.from_terms(4, {
        (3, 4, 5, 6): 1.0, (1, 2, 5, 6): 1.0, (1, 2, 3, 4): 1.0, (0, 2, 4, 6): 1.0,
        (0, 2, 3, 5): -1.0, (0, 1, 4, 5): -1.0, (0, 1, 3, 6): -1.0,
    })
    return G2Structure(rho=standard_phi(), metric=np.eye(DIM), vol_coeff=1.0, rho_star=psi0)


def _pairs(a, b) -> np.ndarray:
    """Pointwise pair products a_i b_j of two fields, flattened to (..., 49).

    Every field contraction with rho, rho* or the cross product multiplies
    these by a (49, .) view of the cached tensor, so it runs as one matmul.
    einsum's outer product is about twice as fast as the broadcast product on
    real (N, 7) fields, and bit-identical to it on real operands (and on the
    real x complex pairs that only the tests pass).
    """
    p = np.einsum("...i,...j->...ij", a, b)
    return p.reshape(p.shape[:-2] + (DIM * DIM,))


def cross(g2: G2Structure, x, y) -> np.ndarray:
    """Vector product x ⋆ y = rho(x, y, ·)^sharp."""
    return cross_field(g2, np.asarray(x, dtype=float), np.asarray(y, dtype=float))


def cross_field(g2: G2Structure, X, Y) -> np.ndarray:
    """Pointwise vector product for (7,) or (N,7) arrays of vectors; complex-linear."""
    return _pairs(X, Y) @ g2.cross_tensor.reshape(DIM * DIM, DIM)


def rho_covector(g2: G2Structure, A, B) -> np.ndarray:
    """Pointwise covector rho(A, B, .) on (7,) or (N,7) argument arrays."""
    return _pairs(A, B) @ g2.rho_tensor.reshape(DIM * DIM, DIM)


def rho_field(g2: G2Structure, A, B, C) -> np.ndarray:
    """Pointwise rho(A, B, C) on (7,) or (N,7) argument arrays."""
    return np.sum(rho_covector(g2, A, B) * np.asarray(C), axis=-1)


def rho_star_covector(g2: G2Structure, B, C, D) -> np.ndarray:
    """Pointwise covector rho*(., B, C, D) on (7,) or (N,7) argument arrays:
    the (C, D) pairs against rho* give rho*(., ., C, D), applied to B."""
    slots = _pairs(C, D) @ g2.rho_star_tensor.reshape(DIM * DIM, DIM * DIM).T
    return np.einsum("...ij,...j->...i", slots.reshape(slots.shape[:-1] + (DIM, DIM)), B)


def rho_star_field(g2: G2Structure, A, B, C, D) -> np.ndarray:
    """Pointwise rho*(A, B, C, D) on (7,) or (N,7) argument arrays."""
    return np.sum(A * rho_star_covector(g2, B, C, D), axis=-1)


@dataclass(frozen=True)
class Octonion:
    """Octonion as imaginary part in R^7 plus a real part."""

    imag: np.ndarray
    real: float

    def __post_init__(self):
        object.__setattr__(self, "imag", np.asarray(self.imag, dtype=float))

    def norm(self) -> float:
        return math.sqrt(float(self.imag @ self.imag) + self.real ** 2)


def octonion_mul(a: Octonion, b: Octonion, g2: G2Structure) -> Octonion:
    """(x,t)(y,t') = (t y + t' x + x ⋆ y, t t' - g(x,y)).

    The scalar part carries -g(x,y); only this sign yields a composition
    algebra (|ab| = |a||b|).
    """
    imag = a.real * b.imag + b.real * a.imag + cross(g2, a.imag, b.imag)
    real = a.real * b.real - g2.inner(a.imag, b.imag)
    return Octonion(imag=imag, real=real)


def complex_structure_apply(g2: G2Structure, v, x) -> np.ndarray:
    """J_v(x) = v ⋆ (x - g(x,v) v) for a unit axis v."""
    v, x = np.asarray(v, dtype=float), np.asarray(x, dtype=float)
    if abs(g2.vnorm(v) - 1.0) > UNIT_AXIS_TOL:
        raise NonUnitAxis(f"|v| = {g2.vnorm(v)!r} is not 1 within {UNIT_AXIS_TOL}")
    return cross(g2, v, x - g2.inner(x, v) * v)


def omega3_integrand(g2: G2Structure, v: np.ndarray, A: np.ndarray,
                     B: np.ndarray, C: np.ndarray) -> np.ndarray:
    """Pointwise values rho(A,B,C) - i rho*(v,A,B,C) on (7,) or (N,7) argument
    arrays, as two contractions that stay real on real fields."""
    return rho_field(g2, A, B, C) - 1j * rho_star_field(g2, v, A, B, C)


def two_form_operator_matrix(g2: G2Structure) -> np.ndarray:
    """Matrix of L(beta) = *(rho ∧ beta) on the 21 basis 2-forms.

    L maps e^{kl} to psi_{ij}^{kl} e^{ij} with psi = *rho, so the matrix is
    psi on increasing pairs (i<j), (k<l), its last two indices raised.
    """
    flat = table(2).increasing
    raised = (g2.rho_star_tensor.reshape(DIM * DIM, DIM * DIM)
              @ np.kron(g2.metric_inv, g2.metric_inv))
    return raised[np.ix_(flat, flat)]


def two_form_decompose(g2: G2Structure, beta: AltForm) -> tuple[AltForm, AltForm]:
    """Split a 2-form into its Lambda^2_7 and Lambda^2_14 components.

    Spectral projection of L = *(rho ∧ ·), which has eigenvalues 2 on the
    7-dimensional part and -1 on the 14-dimensional part.
    """
    if beta.degree != 2:
        raise ValueError("expected a 2-form")
    L = g2.two_form_operator
    c = beta.coeffs
    beta7 = AltForm(2, (L @ c + c) / 3.0)
    beta14 = AltForm(2, (2.0 * c - L @ c) / 3.0)
    return beta7, beta14


def hermitian_trace_vector(g2: G2Structure, beta: AltForm) -> np.ndarray:
    """The covector tau with tau · v = (1/2) sum_i beta(e_i, J_v e_i).

    For each unit axis v this is the trace of beta against the Kaehler form of
    J_v on v^perp.  tau = 0 exactly on Lambda^2_14, and tau is proportional to
    x for beta = rho(x, ., .), so tau detects the Lambda^2_7 component
    pointwise along any family of axes.
    """
    if beta.degree != 2:
        raise ValueError("expected a 2-form")
    return 0.5 * np.einsum("kij,ij->k", g2.cross_tensor, beta.tensor())


def lie_action_on_rho(g2: G2Structure, beta: AltForm) -> AltForm:
    """Action of the skew endomorphism of beta on rho as a Lie-algebra element.

    Vanishes exactly when beta lies in Lambda^2_14 (the g2 subalgebra).
    """
    A = g2.metric_inv @ beta.tensor()  # g(A x, y) = beta(x, y)
    t = g2.rho_tensor
    acted = (np.einsum("il,ljk->ijk", A, t)
             + np.einsum("jl,ilk->ijk", A, t)
             + np.einsum("kl,ijl->ijk", A, t))
    return AltForm(3, acted.take(table(3).increasing))


def is_associative(g2: G2Structure, u, v, w):
    """Test whether span(u,v,w) is an associative 3-plane, batched over the
    leading axes of (7,) or (..., 7) arguments that broadcast together.

    Returns (flag, calibration) where calibration = rho on the orthonormalized
    triple and flag is True when the plane is closed under the vector product
    to ASSOCIATIVE_TOL: a Python (bool, float) for one triple, arrays for a
    stack. DegenerateSpan if any det(gram) < 1e-12 g_uu g_vv g_ww.
    """
    vecs = [np.asarray(a, dtype=float) for a in (u, v, w)]
    for name, a in zip("uvw", vecs):
        if a.shape[-1:] != (DIM,) or not np.all(np.isfinite(a)):
            raise ValueError(f"{name} must be a finite (..., {DIM}) array, got shape {a.shape}")
    try:
        vecs = np.broadcast_arrays(*vecs)
    except ValueError:
        raise ValueError(f"u, v, w do not broadcast: shapes {[a.shape for a in vecs]}") from None

    def inner(a, b):  # a batched matmul sums in the order of the (7,) dot product
        return ((a @ g2.metric)[..., None, :] @ b[..., None])[..., 0, 0]
    gram = np.array([[inner(a, b) for b in vecs] for a in vecs])  # (3, 3, ...)
    det = np.linalg.det(np.moveaxis(gram, (0, 1), (-2, -1)))
    # strict: a zero vector (0 > 0) and an overflowed Gram matrix (inf, nan) fail too
    if not np.all(det > 1e-12 * gram[0, 0] * gram[1, 1] * gram[2, 2]):
        raise DegenerateSpan("vectors do not span a 3-plane")
    # Gram-Schmidt in the g metric, preserving order/orientation
    ortho = []
    for a in vecs:
        for e in ortho:
            a = a - inner(a, e)[..., None] * e
        ortho.append(a / np.sqrt(np.maximum(inner(a, a), 0.0))[..., None])
    u1, v1, w1 = ortho
    calibration = rho_field(g2, u1, v1, w1)
    p = cross_field(g2, u1, v1)
    residual = p - sum(inner(p, e)[..., None] * e for e in ortho)
    flag = np.sqrt(np.maximum(inner(residual, residual), 0.0)) < ASSOCIATIVE_TOL
    return (bool(flag), float(calibration)) if u1.ndim == 1 else (flag, calibration)
