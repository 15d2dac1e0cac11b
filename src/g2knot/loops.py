"""Discretized closed curves in R^7 and periodic spectral calculus.

A loop is sampled at the uniform parameters t_j = 2*pi*j/N; derivatives are
computed by FFT (exact for trigonometric polynomials) and integrals by the
periodic trapezoid rule.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from .errors import ImmersionViolation

MIN_SAMPLES = 16
IMMERSION_FLOOR = 1e-6
TWO_PI = 2.0 * np.pi


def spectral_derivative(values: np.ndarray) -> np.ndarray:
    """d/dt of periodic samples over [0, 2*pi), along axis 0."""
    n = values.shape[0]
    k = np.fft.fftfreq(n, d=1.0 / n)
    if n % 2 == 0:
        k[n // 2] = 0.0  # Nyquist mode has no well-defined odd derivative
    spec = np.fft.fft(values, axis=0)
    shape = (n,) + (1,) * (values.ndim - 1)
    out = np.fft.ifft(1j * k.reshape(shape) * spec, axis=0)
    return out.real if np.isrealobj(values) else out


# Evaluation points per cos/sin table: a table holds at most
# _ROW_BLOCK x (N//2 + 1) entries, however many points are asked for.
_ROW_BLOCK = 256


def _cos_sin_coeffs(values: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Coefficients a_k, b_k (k = 0..N//2, along axis 0) of the real
    trigonometric interpolant sum_k a_k cos(k t) + b_k sin(k t) of real
    periodic samples. For even N the Nyquist mode is split evenly between
    +-N/2, which halves its cosine and leaves no sine: the interpolant stays
    real between the samples."""
    n = values.shape[0]
    spec = np.fft.rfft(values, axis=0) / n
    a = 2.0 * spec.real
    b = -2.0 * spec.imag
    a[0] *= 0.5
    b[0] = 0.0
    if n % 2 == 0:
        a[-1] *= 0.5
        b[-1] = 0.0
    return a, b


def _trig_eval(a: np.ndarray, b: np.ndarray, t: np.ndarray) -> np.ndarray:
    """sum_k a[k, c] cos(k t) + b[k, c] sin(k t) at each t for every column c
    of the (M, C) coefficients; one cos/sin table per block of rows."""
    t = np.ravel(np.asarray(t, dtype=float))
    k = np.arange(a.shape[0])
    out = np.empty((t.size, a.shape[1]))
    for start in range(0, t.size, _ROW_BLOCK):
        rows = slice(start, start + _ROW_BLOCK)
        angles = np.outer(t[rows], k)
        out[rows] = np.cos(angles) @ a + np.sin(angles) @ b
    return out


def trig_interpolate(values: np.ndarray, t_new: np.ndarray) -> np.ndarray:
    """Evaluate the trigonometric interpolant of periodic samples at t_new."""
    values = np.asarray(values)
    if np.iscomplexobj(values):
        return trig_interpolate(values.real, t_new) + 1j * trig_interpolate(values.imag, t_new)
    a, b = _cos_sin_coeffs(values.reshape(values.shape[0], -1))
    out = _trig_eval(a, b, t_new)
    return out.reshape(out.shape[:1] + values.shape[1:])


class Loop7:
    """Closed discretized curve in R^7 with spectral tangent data."""

    def __init__(self, samples: np.ndarray, immersion_floor: float = IMMERSION_FLOOR):
        samples = np.asarray(samples, dtype=float)
        if samples.ndim != 2 or samples.shape[1] != 7:
            raise ValueError("samples must have shape (N, 7)")
        if samples.shape[0] < MIN_SAMPLES:
            raise ValueError(f"need at least {MIN_SAMPLES} samples")
        if not np.all(np.isfinite(samples)):
            raise ValueError("non-finite loop samples")
        self.samples = samples
        self.n = samples.shape[0]
        self.params = TWO_PI * np.arange(self.n) / self.n
        self.velocity = spectral_derivative(samples)
        self.speeds = np.linalg.norm(self.velocity, axis=1)
        if self.speeds.min() <= immersion_floor:
            raise ImmersionViolation(
                f"minimum speed {self.speeds.min():.3e} at or below floor {immersion_floor:.1e}")
        self.unit_tangent = self.velocity / self.speeds[:, None]

    @property
    def length(self) -> float:
        return float(integrate(self, self.speeds))

    def is_constant_speed(self, rtol: float = 1e-8) -> bool:
        mean = self.speeds.mean()
        return float(self.speeds.max() - self.speeds.min()) < rtol * mean


@dataclass
class FourierLoopSpec:
    """Trigonometric-polynomial loop: coordinate m is
    sum_k cos_coeffs[k, m] cos(k t) + sin_coeffs[k, m] sin(k t), k = 0..K."""

    cos_coeffs: np.ndarray  # (K+1, 7)
    sin_coeffs: np.ndarray  # (K+1, 7)
    n: int

    def __post_init__(self):
        self.cos_coeffs = np.atleast_2d(np.asarray(self.cos_coeffs, dtype=float))
        self.sin_coeffs = np.atleast_2d(np.asarray(self.sin_coeffs, dtype=float))
        if self.cos_coeffs.shape != self.sin_coeffs.shape or self.cos_coeffs.shape[1] != 7:
            raise ValueError("coefficient arrays must both have shape (K+1, 7)")
        k_max = self.cos_coeffs.shape[0] - 1
        if self.n <= 2 * k_max:
            raise ValueError(f"need n > 2K = {2 * k_max} samples to avoid aliasing")

    @property
    def max_mode(self) -> int:
        return self.cos_coeffs.shape[0] - 1

    def evaluate(self, t: np.ndarray) -> np.ndarray:
        return _trig_eval(self.cos_coeffs, self.sin_coeffs, t)

    def derivative(self, t: np.ndarray) -> np.ndarray:
        k = np.arange(self.max_mode + 1)[:, None]
        return _trig_eval(k * self.sin_coeffs, -k * self.cos_coeffs, t)


def loop_from_fourier(spec: FourierLoopSpec) -> Loop7:
    """Sample a trigonometric-polynomial loop at its uniform grid."""
    t = TWO_PI * np.arange(spec.n) / spec.n
    return Loop7(spec.evaluate(t))


def integrate(loop: Loop7, f) -> float:
    """Periodic trapezoid rule: sum f(t_j) * (2*pi/N)."""
    f = np.asarray(f)
    if f.shape[0] != loop.n:
        raise ValueError("integrand length mismatch")
    total = np.sum(f, axis=0) * (TWO_PI / loop.n)
    return float(total) if np.ndim(total) == 0 and not np.iscomplexobj(f) else total


def arclength_params(loop: Loop7) -> np.ndarray:
    """Parameters t(s_j) at which arclength is uniform, via Newton on the
    spectrally integrated speed."""
    n = loop.n
    a, b = _cos_sin_coeffs(loop.speeds)
    # Column 0 is the speed, column 1 the periodic part of its antiderivative;
    # a_0 t + sum_k b_k / k completes the arclength from t = 0. The k = 0
    # entries drop out (b_0 = 0, sin 0 = 0), so any nonzero k serves there.
    k = np.maximum(np.arange(a.shape[0]), 1)
    cos_coeffs = np.stack([a, -b / k], axis=1)
    sin_coeffs = np.stack([b, a / k], axis=1)
    offset = np.sum(b / k)

    total = loop.length
    targets = total * np.arange(n) / n
    t = TWO_PI * np.arange(n) / n  # initial guess: uniform parameter
    for _ in range(60):
        speed, periodic = _trig_eval(cos_coeffs, sin_coeffs, t).T
        resid = a[0] * t + periodic + offset - targets
        t = t - resid / np.maximum(speed, 1e-12)
        if np.max(np.abs(resid)) < 1e-14 * max(total, 1.0):
            break
    return t


def unit_speed_reparam(loop: Loop7) -> Loop7:
    """Resample the loop so its speed is constant (= length / 2*pi)."""
    if loop.is_constant_speed(rtol=1e-12):
        return loop
    t = arclength_params(loop)
    return Loop7(trig_interpolate(loop.samples, t))


def normal_project(loop: Loop7, field: np.ndarray) -> np.ndarray:
    """Pointwise projection X - (X·T) T onto the normal spaces of the loop;
    complex-linear, so complex fields project without splitting."""
    field = np.asarray(field)
    if field.shape != (loop.n, 7):
        raise ValueError("field must have shape (N, 7)")
    T = loop.unit_tangent
    return field - np.einsum("ni,ni->n", field, T)[:, None] * T


def loop_to_json(loop: Loop7, spec: FourierLoopSpec | None = None) -> str:
    doc = {"n": loop.n, "samples": loop.samples.tolist()}
    if spec is not None:
        doc["fourier"] = {
            "cos": spec.cos_coeffs.tolist(),
            "sin": spec.sin_coeffs.tolist(),
        }
    return json.dumps(doc)


def loop_from_json(text: str) -> Loop7:
    doc = json.loads(text)
    if not isinstance(doc, dict) or not isinstance(doc.get("n"), int):
        raise ValueError("loop JSON must be an object with an integer 'n'")
    if doc.get("samples") is not None:
        samples = np.asarray(doc["samples"], dtype=float)
        if samples.shape[:1] != (doc["n"],):
            raise ValueError("sample count disagrees with 'n'")
        return Loop7(samples)
    fourier = doc.get("fourier")
    if fourier is not None:
        if not isinstance(fourier, dict) or not {"cos", "sin"} <= fourier.keys():
            raise ValueError("loop JSON 'fourier' needs 'cos' and 'sin'")
        spec = FourierLoopSpec(
            cos_coeffs=np.asarray(fourier["cos"], dtype=float),
            sin_coeffs=np.asarray(fourier["sin"], dtype=float),
            n=int(doc["n"]),
        )
        return loop_from_fourier(spec)
    raise ValueError("loop JSON needs 'samples' or 'fourier'")


def circle_loop(n: int = 256, axes: tuple[int, int] = (0, 1), radius: float = 1.0) -> Loop7:
    """Planar circle fixture in the given coordinate plane."""
    cos = np.zeros((2, 7))
    sin = np.zeros((2, 7))
    cos[1, axes[0]] = radius
    sin[1, axes[1]] = radius
    return loop_from_fourier(FourierLoopSpec(cos, sin, n))
