"""Reference computations for the benchmark's correctness checks.

Everything here is written from the definitions with numpy alone and imports
nothing from g2knot, so each check compares the program against a route that
shares none of its code: forms are dicts {increasing 0-based multi-index:
coefficient}, evaluated through determinants rather than dense tensors.
"""

from __future__ import annotations

import itertools
import math

import numpy as np

DIM = 7

# phi0 = e123 + e145 + e167 + e246 - e257 - e347 - e356 (1-based indices)
PHI0 = {(0, 1, 2): 1.0, (0, 3, 4): 1.0, (0, 5, 6): 1.0, (1, 3, 5): 1.0,
        (1, 4, 6): -1.0, (2, 3, 6): -1.0, (2, 4, 5): -1.0}


def perm_sign(seq) -> int:
    """Sign of the permutation that sorts seq; 0 if an entry repeats."""
    seq = list(seq)
    if len(set(seq)) != len(seq):
        return 0
    inversions = sum(1 for i in range(len(seq)) for j in range(i + 1, len(seq))
                     if seq[i] > seq[j])
    return -1 if inversions % 2 else 1


def hodge(form: dict) -> dict:
    """Euclidean Hodge star with volume e1...7: *e^I = sign(I, I^c) e^{I^c}."""
    out = {}
    for idx, c in form.items():
        rest = tuple(i for i in range(DIM) if i not in idx)
        out[rest] = out.get(rest, 0.0) + perm_sign(idx + rest) * c
    return out


PSI0 = hodge(PHI0)


def wedge(a: dict, b: dict) -> dict:
    """Exterior product of two forms given as term dicts."""
    out = {}
    for ia, ca in a.items():
        for ib, cb in b.items():
            sign = perm_sign(ia + ib)
            if sign:
                key = tuple(sorted(ia + ib))
                out[key] = out.get(key, 0.0) + sign * ca * cb
    return out


def evaluate(form: dict, *vectors: np.ndarray) -> np.ndarray:
    """alpha(v1, ..., vk) = sum_I alpha_I det[v_a[I_b]], pointwise over a
    leading sample axis when the vectors have shape (n, 7)."""
    mat = np.stack([np.asarray(v) for v in vectors], axis=-2)  # (..., k, 7)
    total = 0.0
    for idx, c in form.items():
        total = total + c * np.linalg.det(mat[..., list(idx)])
    return total


def interior(i: int, form: dict) -> dict:
    """Interior product of the basis vector e_i with a form."""
    out = {}
    for idx, c in form.items():
        if i in idx:
            pos = idx.index(i)
            rest = idx[:pos] + idx[pos + 1:]
            out[rest] = out.get(rest, 0.0) + (-1) ** pos * c
    return out


def lambda27_residual(beta: dict) -> float:
    """Largest coefficient of beta left over after a least-squares fit by the
    seven forms e_i _| phi0, which span Lambda^2_7."""
    pairs = [(a, b) for a in range(DIM) for b in range(a + 1, DIM)]
    basis = np.array([[interior(i, PHI0).get(p, 0.0) for p in pairs] for i in range(DIM)]).T
    target = np.array([beta.get(p, 0.0) for p in pairs])
    coef = np.linalg.lstsq(basis, target, rcond=None)[0]
    return float(np.abs(target - basis @ coef).max())


def cross_table() -> dict:
    """Fano-plane table {(i, j): (k, sign)} with e_i x e_j = sign e_k, read off
    the seven terms of phi0 (e_a x e_b = phi0(e_a, e_b, .))."""
    table = {}
    for (a, b, c), s in PHI0.items():
        for (i, j, k) in ((a, b, c), (b, c, a), (c, a, b)):
            table[(i, j)] = (k, int(s))
            table[(j, i)] = (k, -int(s))
    return table


def cross(u: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Vector product through the Fano table."""
    out = np.zeros(DIM)
    for (i, j), (k, s) in cross_table().items():
        out[k] += s * u[i] * v[j]
    return out


def spectral_speed(samples: np.ndarray) -> np.ndarray:
    """|gamma'| of periodic samples over [0, 2*pi) by FFT differentiation."""
    n = samples.shape[0]
    k = np.fft.fftfreq(n, d=1.0 / n)
    k[n // 2] = 0.0
    vel = np.fft.ifft(1j * k[:, None] * np.fft.fft(samples, axis=0), axis=0).real
    return np.linalg.norm(vel, axis=1)


def loop_length(samples: np.ndarray) -> float:
    """Trapezoid-rule length of a periodic sampled curve."""
    return float(spectral_speed(samples).sum() * 2.0 * math.pi / samples.shape[0])


def fourier_eval(cos: np.ndarray, sin: np.ndarray, t: np.ndarray, deriv: bool = False):
    """A trigonometric-polynomial curve (or its t-derivative) at the points t."""
    k = np.arange(cos.shape[0])
    ct, st = np.cos(np.outer(t, k)), np.sin(np.outer(t, k))
    if deriv:
        return (ct * k) @ sin - (st * k) @ cos
    return ct @ cos + st @ sin


def fourier_coeffs(samples: np.ndarray, max_mode: int):
    """cos/sin coefficients (modes 0..max_mode) of uniformly sampled periodic
    data, and the largest coefficient above max_mode relative to the data."""
    n = samples.shape[0]
    spec = np.fft.rfft(samples, axis=0) / n
    cos = 2.0 * spec[:max_mode + 1].real
    cos[0] /= 2.0
    sin = -2.0 * spec[:max_mode + 1].imag
    sin[0] = 0.0
    return cos, sin, float(np.abs(spec[max_mode + 1:]).max() / np.abs(samples).max())


def arclength_reparam(cos: np.ndarray, sin: np.ndarray, n: int,
                      fine: int = 8192, modes: int = 256) -> np.ndarray:
    """Samples gamma(t_j) of the analytic Fourier curve with s(t_j) = L j / n.

    The exact speed is sampled on a fine grid and its Fourier series integrated
    term by term; the series is truncated where its coefficients have decayed
    below double precision, which the caller can confirm from the returned
    tail ratio. Newton's method then solves s(t_j) = L j / n.
    """
    t_fine = 2.0 * math.pi * np.arange(fine) / fine
    speed = np.linalg.norm(fourier_eval(cos, sin, t_fine, deriv=True), axis=1)
    spec = np.fft.rfft(speed) / fine
    tail = float(np.abs(spec[modes + 1:]).max() / abs(spec[0]))
    c0 = spec[0].real
    k = np.arange(1, modes + 1)
    ck = spec[1:modes + 1]
    total = 2.0 * math.pi * c0
    targets = total * np.arange(n) / n
    t = 2.0 * math.pi * np.arange(n) / n
    for _ in range(30):
        e = np.exp(1j * np.outer(t, k))
        s = c0 * t + 2.0 * ((e - 1.0) @ (ck / (1j * k))).real
        sp = c0 + 2.0 * (e @ ck).real
        step = (s - targets) / sp
        t = t - step
        if np.abs(step).max() < 1e-12:
            break
    return fourier_eval(cos, sin, t), tail
