"""Alternating forms on R^7: dense multi-index storage, wedge, contraction, Hodge star.

A degree-k form is stored as its C(7,k) coefficients on strictly increasing
multi-indices over {0,...,6}, ordered lexicographically (the order produced by
itertools.combinations).
"""

from __future__ import annotations

import itertools
import math
from functools import lru_cache

import numpy as np

DIM = 7


@lru_cache(maxsize=None)
def multi_indices(degree: int) -> tuple[tuple[int, ...], ...]:
    """All strictly increasing multi-indices of the given degree."""
    return tuple(itertools.combinations(range(DIM), degree))


@lru_cache(maxsize=None)
def index_position(degree: int) -> dict[tuple[int, ...], int]:
    """Map from increasing multi-index to its storage slot."""
    return {idx: p for p, idx in enumerate(multi_indices(degree))}


def _perm_sign(seq) -> int:
    """Sign of the permutation sorting seq; 0 if entries repeat."""
    seq = list(seq)
    if len(set(seq)) != len(seq):
        return 0
    sign = 1
    for i in range(len(seq)):
        for j in range(i + 1, len(seq)):
            if seq[i] > seq[j]:
                sign = -sign
    return sign


class AltForm:
    """Alternating k-form on R^7 with dense increasing-multi-index storage."""

    __slots__ = ("degree", "coeffs")

    def __init__(self, degree: int, coeffs=None):
        if not 0 <= degree <= DIM:
            raise ValueError(f"degree must be in 0..{DIM}, got {degree}")
        self.degree = degree
        n = math.comb(DIM, degree)
        if coeffs is None:
            self.coeffs = np.zeros(n)
        else:
            coeffs = np.asarray(coeffs, dtype=float)
            if coeffs.shape != (n,):
                raise ValueError(f"degree-{degree} form needs {n} coefficients")
            if not np.all(np.isfinite(coeffs)):
                raise ValueError("non-finite form coefficients")
            self.coeffs = coeffs.copy()

    @classmethod
    def from_terms(cls, degree: int, terms: dict) -> "AltForm":
        """Build a form from {multi-index: coefficient} with 0-based indices."""
        form = cls(degree)
        pos = index_position(degree)
        for idx, val in terms.items():
            idx = tuple(idx)
            sign = _perm_sign(idx)
            if sign == 0:
                raise ValueError(f"repeated index in {idx}")
            form.coeffs[pos[tuple(sorted(idx))]] += sign * val
        return form

    def __getitem__(self, idx) -> float:
        idx = tuple(idx)
        sign = _perm_sign(idx)
        if sign == 0:
            return 0.0
        return sign * self.coeffs[index_position(self.degree)[tuple(sorted(idx))]]

    def __add__(self, other: "AltForm") -> "AltForm":
        if self.degree != other.degree:
            raise ValueError("degree mismatch")
        return AltForm(self.degree, self.coeffs + other.coeffs)

    def __sub__(self, other: "AltForm") -> "AltForm":
        if self.degree != other.degree:
            raise ValueError("degree mismatch")
        return AltForm(self.degree, self.coeffs - other.coeffs)

    def __mul__(self, scalar: float) -> "AltForm":
        return AltForm(self.degree, self.coeffs * float(scalar))

    __rmul__ = __mul__

    def __neg__(self) -> "AltForm":
        return AltForm(self.degree, -self.coeffs)

    def norm(self) -> float:
        """Euclidean norm of the coefficient vector."""
        return float(np.linalg.norm(self.coeffs))

    def tensor(self) -> np.ndarray:
        """Full antisymmetric coefficient tensor of shape (7,)*degree."""
        k = self.degree
        out = np.zeros((DIM,) * k)
        for pos, idx in enumerate(multi_indices(k)):
            c = self.coeffs[pos]
            if c == 0.0:
                continue
            for perm in itertools.permutations(idx):
                out[perm] = _perm_sign(perm) * c
        return out

    def __call__(self, *vectors) -> float:
        """Evaluate on `degree` vectors."""
        k = self.degree
        if len(vectors) != k:
            raise ValueError(f"expected {k} vectors")
        if k == 0:
            return float(self.coeffs[0])
        mat = np.asarray(vectors, dtype=float)
        total = 0.0
        for pos, idx in enumerate(multi_indices(k)):
            c = self.coeffs[pos]
            if c == 0.0:
                continue
            total += c * np.linalg.det(mat[:, idx])
        return total


def wedge(a: AltForm, b: AltForm) -> AltForm:
    """Exterior product a ∧ b."""
    k, l = a.degree, b.degree
    if k + l > DIM:
        raise ValueError(f"wedge degree {k}+{l} exceeds {DIM}")
    out = AltForm(k + l)
    pos_a = index_position(k)
    pos_b = index_position(l)
    for pos, idx in enumerate(multi_indices(k + l)):
        acc = 0.0
        for sub in itertools.combinations(idx, k):
            rest = tuple(i for i in idx if i not in sub)
            sign = _perm_sign(sub + rest)
            acc += sign * a.coeffs[pos_a[sub]] * b.coeffs[pos_b[rest]]
        out.coeffs[pos] = acc
    return out


def contract(a: AltForm, x: np.ndarray) -> AltForm:
    """Interior product ι_x a, inserting x into the first slot."""
    k = a.degree
    if k == 0:
        raise ValueError("cannot contract a 0-form")
    x = np.asarray(x, dtype=float)
    out = AltForm(k - 1)
    pos_full = index_position(k)
    for pos, idx in enumerate(multi_indices(k - 1)):
        acc = 0.0
        for i in range(DIM):
            if i in idx:
                continue
            full = tuple(sorted((i,) + idx))
            # sign moving i to the front of the sorted multi-index
            sign = (-1) ** full.index(i)
            acc += x[i] * sign * a.coeffs[pos_full[full]]
        out.coeffs[pos] = acc
    return out


def hodge_star(a: AltForm, metric: np.ndarray, vol_coeff: float) -> AltForm:
    """Hodge star of a w.r.t. a metric and the volume form vol_coeff * e^{1...7}.

    Defined by beta ∧ *a = <beta, a>_g vol for every beta of the same degree.
    """
    k = a.degree
    ginv = np.linalg.inv(metric)
    raised = a.tensor()
    for axis in range(k):
        raised = np.tensordot(raised, ginv, axes=([0], [0]))
        # tensordot moves the contracted axis to the end; k moves restore order
    # (*a)_{I^c} = sign(I, I^c) a^{I} vol_coeff for each increasing I
    out = AltForm(DIM - k)
    pos = index_position(DIM - k)
    for idx in multi_indices(k):
        rest = tuple(i for i in range(DIM) if i not in idx)
        out.coeffs[pos[rest]] = _perm_sign(idx + rest) * raised[idx] * vol_coeff
    return out


def basis_form(degree: int, idx) -> AltForm:
    """The basis form e^{i1...ik} for a strictly increasing multi-index (0-based)."""
    return AltForm.from_terms(degree, {tuple(idx): 1.0})
