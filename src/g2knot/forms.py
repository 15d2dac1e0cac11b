"""Alternating forms on R^7: dense multi-index storage, wedge, contraction, Hodge star.

A degree-k form is stored as its C(7,k) coefficients on strictly increasing
multi-indices over {0,...,6}, ordered lexicographically (the order produced by
itertools.combinations). Every operation reads one cached table per degree
that gives each ordered multi-index its storage slot and sorting sign.
"""

from __future__ import annotations

import itertools
import math
from functools import lru_cache
from typing import NamedTuple

import numpy as np

DIM = 7


@lru_cache(maxsize=None)
def multi_indices(degree: int) -> tuple[tuple[int, ...], ...]:
    """All strictly increasing multi-indices of the given degree."""
    return tuple(itertools.combinations(range(DIM), degree))


class Table(NamedTuple):
    """Every ordered multi-index of distinct entries of one degree, by slot,
    then in itertools.permutations order (the increasing one first)."""

    slots: np.ndarray       # storage slot of each row's sorted multi-index
    signs: np.ndarray       # sign of each row's sorting permutation
    flat: np.ndarray        # position of each row in a flattened (7,)*k tensor
    increasing: np.ndarray  # flat position of each slot's increasing multi-index
    lookup: dict            # row tuple -> (slot, sign)


@lru_cache(maxsize=None)
def table(degree: int) -> Table:
    """The table of a degree: one permutation table of range(degree),
    indexed into the increasing multi-indices."""
    combos = np.array(multi_indices(degree), dtype=np.intp)
    perms = np.array(list(itertools.permutations(range(degree))), dtype=np.intp)
    inversions = np.triu(perms[:, :, None] > perms[:, None, :], 1).sum(axis=(1, 2))
    slots = np.repeat(np.arange(len(combos)), len(perms))
    signs = np.tile(1 - 2 * (inversions % 2), len(combos))
    rows = combos[:, perms].reshape(slots.size, degree)
    flat = rows @ DIM ** np.arange(degree - 1, -1, -1)
    lookup = dict(zip(map(tuple, rows.tolist()), zip(slots.tolist(), signs.tolist())))
    return Table(slots, signs, flat, flat[::len(perms)], lookup)


@lru_cache(maxsize=None)
def shuffles(k: int, l: int) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """The (k, l)-shuffles: rows of the degree-(k+l) table whose first k and
    last l entries both increase, as (slot, sign, head slot, tail slot).
    Within one slot they come in combinations order of the head."""
    t, heads, tails = table(k + l), table(k).increasing, table(l).increasing
    head, tail = np.divmod(t.flat, DIM ** l)
    keep = np.isin(head, heads) & np.isin(tail, tails)
    return (t.slots[keep], t.signs[keep],
            np.searchsorted(heads, head[keep]), np.searchsorted(tails, tail[keep]))


def _entry(degree: int, idx) -> tuple[int, int]:
    """(slot, sign) of an ordered multi-index; sign 0 if an index repeats."""
    idx = tuple(idx)
    if len(idx) != degree or not set(idx) <= set(range(DIM)):
        raise ValueError(f"{idx} is not a degree-{degree} multi-index over 0..{DIM - 1}")
    return table(degree).lookup.get(idx, (0, 0))


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
        for idx, val in terms.items():
            slot, sign = _entry(degree, idx)
            if not sign:
                raise ValueError(f"repeated index in {tuple(idx)}")
            form.coeffs[slot] += sign * val
        return form

    def __getitem__(self, idx) -> float:
        slot, sign = _entry(self.degree, idx)
        return sign * self.coeffs[slot] if sign else 0.0

    def __mul__(self, scalar: float) -> "AltForm":
        return AltForm(self.degree, self.coeffs * float(scalar))

    __rmul__ = __mul__

    def norm(self) -> float:
        """Euclidean norm of the coefficient vector."""
        return float(np.linalg.norm(self.coeffs))

    def tensor(self) -> np.ndarray:
        """Full antisymmetric coefficient tensor of shape (7,)*degree."""
        t = table(self.degree)
        values = self.coeffs[t.slots]
        nonzero = values != 0.0  # zero coefficients, signed or not, stay +0.0
        out = np.zeros((DIM,) * self.degree)
        out.put(t.flat[nonzero], t.signs[nonzero] * values[nonzero])
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
    slots, signs, head, tail = shuffles(k, l)
    return AltForm(k + l, np.bincount(slots, signs * a.coeffs[head] * b.coeffs[tail]))


def contract(a: AltForm, x: np.ndarray) -> AltForm:
    """Interior product ι_x a, inserting x into the first slot."""
    k = a.degree
    if k == 0:
        raise ValueError("cannot contract a 0-form")
    x = np.asarray(x, dtype=float)
    if x.shape != (DIM,) or not np.all(np.isfinite(x)):
        raise ValueError(f"expected a finite ({DIM},) vector, got shape {x.shape}")
    # row (i, J) of the (1, k-1)-shuffles: i moved in front of the sorted i + J
    slots, signs, head, tail = shuffles(1, k - 1)
    return AltForm(k - 1, np.bincount(tail, x[head] * signs * a.coeffs[slots]))


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
    _, signs, head, tail = shuffles(k, DIM - k)
    out = AltForm(DIM - k)
    out.coeffs[tail] = signs * raised.take(table(k).increasing[head]) * vol_coeff
    return out

