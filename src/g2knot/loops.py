"""Discretized closed curves in R^7 and periodic spectral calculus.

A loop is sampled at the uniform parameters t_j = 2*pi*j/N; derivatives are
computed by FFT (exact for trigonometric polynomials) and integrals by the
periodic trapezoid rule.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import ImmersionViolation, UnderResolved

MIN_SAMPLES = 16
IMMERSION_FLOOR = 1e-6
# Largest spectral_tail of the samples or the speeds that `loop reparam`
# accepts: an energy fraction of 1e-8 leaves about 1e-4 of the amplitude in
# the top eighth of the spectrum. Over 300 `loop gen` seeds (max mode 5) the
# worst speed tail is 2e-11 at N = 128 and 2e-17 at N = 256, and 83% of the
# N = 64 draws pass; white noise puts 2e-4 to 0.17 there.
RESOLVED_TAIL = 1e-8
TWO_PI = 2.0 * np.pi


def spectral_derivative(values: np.ndarray) -> np.ndarray:
    """d/dt of real periodic samples over [0, 2*pi), along axis 0, through the
    half spectrum (rfft/irfft); complex samples raise TypeError."""
    n = values.shape[0]
    k = np.arange(n // 2 + 1.0)
    if n % 2 == 0:
        k[n // 2] = 0.0  # Nyquist mode has no well-defined odd derivative
    spec = np.fft.rfft(values, axis=0)
    spec *= 1j * k.reshape(k.shape + (1,) * (values.ndim - 1))  # in place: one spectrum fewer
    return np.fft.irfft(spec, n, axis=0)


def spectral_tail(values: np.ndarray, with_mean: bool = False) -> float:
    """Fraction of the energy of periodic samples that lies in the top eighth
    of the half spectrum (modes k > N/2 - N/16), summed over all columns; 0.0
    when that energy is 0. The mean mode counts towards the energy only
    with_mean: a position's mean is a translation, but a speed's mean is its
    scale, and without it a constant speed's tail is all rounding noise."""
    n = values.shape[0]
    power = (np.abs(np.fft.rfft(values.reshape(n, -1), axis=0)) ** 2).sum(axis=1)
    power[1:(n + 1) // 2] *= 2.0  # modes +-k; an even N's Nyquist mode is one mode
    total = power.sum() if with_mean else power[1:].sum()
    return float(power[n // 2 - n // 16 + 1:].sum() / total) if total > 0 else 0.0


# Up to _DIRECT_MODES modes (every ensemble draw) _trig_eval takes the direct
# products that the tests pin bit for bit. Past it the Taylor series was
# faster from N = 256 on; at N = 64 and 128 its 13 to 18 FFTs cost more.
_DIRECT_MODES = 32
_TWO_PI_LO = 2.4492935982947064e-16  # 2 pi - fl(2 pi)


@lru_cache(maxsize=None)
def _smooth_size(n: int) -> int:
    """Smallest 2^i 3^j 5^k >= n: an inverse FFT of 2049 points took about
    six times as long as one of 2160."""
    top = range(n.bit_length() + 1)
    return min(s for s in (2 ** i * 3 ** j * 5 ** k for i in top for j in top for k in top)
               if s >= n)


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


@lru_cache(maxsize=8)
def _grid_table(n: int, m: int) -> np.ndarray:
    """Read-only (2, n, m) table of cos(k t_j) and sin(k t_j) on the uniform
    grid t_j = 2 pi j / n for k < m: the cos/sin block of _trig_eval on that
    grid, computed once for every loop and field sampled there."""
    angles = np.outer(TWO_PI * np.arange(n) / n, np.arange(m))
    table = np.stack((np.cos(angles), np.sin(angles)))
    table.flags.writeable = False
    return table


def _trig_eval(a: np.ndarray, b: np.ndarray, t) -> np.ndarray:
    """sum_k a[k, c] cos(k t) + b[k, c] sin(k t) at each t for every column c
    of the (M, C) coefficients; an int t = n means the grid 2 pi j / n, j < n.
    Every t must be finite and within +-2^30: up to there the reduction
    below errs by at most ulp(t) / 8, far beyond by a whole node spacing.

    Up to 32 modes this is cos(k t) @ a + sin(k t) @ b. Past 32 modes it is
    the Taylor series sum_{p <= P} f^(p)(t_j) delta^p / p! about the nearest
    node t_j of a 5-smooth grid of g >= 2 M - 1 points, one inverse FFT per
    derivative, with the least P whose Lagrange remainder sum_k (|a_k| +
    |b_k|) (k max|delta|)^(P+1) / (P+1)! is at most 2^-53 sum_k (|a_k| + |b_k|)
    in every column."""
    m = a.shape[0]
    grid = isinstance(t, (int, np.integer))
    if grid and m <= _DIRECT_MODES:
        cos, sin = _grid_table(int(t), m)
        return cos @ a + sin @ b
    t = TWO_PI * np.arange(t) / t if grid else np.ravel(np.asarray(t, dtype=float))
    if not np.all(np.abs(t) <= 2.0 ** 30):  # also false for nan
        raise ValueError("t must be finite and within +-2**30")
    if m <= _DIRECT_MODES:
        angles = np.outer(t, np.arange(m))
        return np.cos(angles) @ a + np.sin(angles) @ b

    g = _smooth_size(2 * m - 1)  # mode M - 1 stays below the Nyquist mode
    # Cody-Waite: j * head, head * g and t - j * head are exact, and j * tail
    # rounds by at most 2^(bits - 53) ulp(t)
    j = np.rint(t * (g / TWO_PI))
    bits = int(max(g, np.abs(j).max(initial=0.0))).bit_length() + 1
    mant, exp = np.frexp(TWO_PI / g)
    head = np.ldexp(np.floor(np.ldexp(mant, 53 - bits)), int(exp) - 53 + bits)
    delta = (t - j * head) - j * ((TWO_PI - head * g + _TWO_PI_LO) / g)
    reach = np.abs(delta).max(initial=0.0)
    weight = np.abs(a) + np.abs(b)
    x = np.arange(m) * reach
    remainder, order = x.copy(), 0  # (k reach)^(P+1) / (P+1)! at P = order
    while np.any(remainder @ weight > 2.0 ** -53 * weight.sum(axis=0)):
        order += 1
        remainder *= x / (order + 1)

    # row c is the spectrum of column c's f^(p) reach^p / p!, so each term
    # takes a power of delta / reach, in [-1, 1]
    nodes = np.mod(j, g).astype(np.intp)
    spec = (0.5 * g) * (a - 1j * b).T
    spec[:, 0] = g * a[0]
    out = np.fft.irfft(spec, g)[:, nodes]
    power = np.ones_like(delta)
    for p in range(1, order + 1):
        spec *= 1j * x / p
        power *= delta / reach
        out += np.fft.irfft(spec, g)[:, nodes] * power
    return np.ascontiguousarray(out.T)


def trig_interpolate(values: np.ndarray, t_new: np.ndarray) -> np.ndarray:
    """Evaluate the trigonometric interpolant of real periodic samples at t_new."""
    values = np.asarray(values)
    if np.iscomplexobj(values):
        raise ValueError("trig_interpolate takes real samples")
    out = _trig_eval(*_cos_sin_coeffs(values.reshape(values.shape[0], -1)), t_new)
    return out.reshape(out.shape[:1] + values.shape[1:])


class Loop7:
    """Closed discretized curve in R^7 with spectral tangent data."""

    def __init__(self, samples: np.ndarray):
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
        if self.speeds.min() <= IMMERSION_FLOOR:
            raise ImmersionViolation(
                f"minimum speed {self.speeds.min():.3e} at or below floor {IMMERSION_FLOOR:.1e}")
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
        if (self.cos_coeffs.shape != self.sin_coeffs.shape or self.cos_coeffs.shape[1] != 7
                or self.cos_coeffs.shape[0] == 0):
            raise ValueError("coefficient arrays must both have shape (K+1, 7) with K >= 0")
        k_max = self.cos_coeffs.shape[0] - 1
        if self.n <= 2 * k_max:
            raise ValueError(f"need n > 2K = {2 * k_max} samples to avoid aliasing")

    @property
    def max_mode(self) -> int:
        return self.cos_coeffs.shape[0] - 1

    def evaluate(self, t: np.ndarray) -> np.ndarray:
        return _trig_eval(self.cos_coeffs, self.sin_coeffs, t)

    def sample(self) -> np.ndarray:
        """The values at the n uniform grid points 2 pi j / n, as evaluate
        gives them there."""
        return _trig_eval(self.cos_coeffs, self.sin_coeffs, self.n)

    def derivative(self, t: np.ndarray) -> np.ndarray:
        k = np.arange(self.max_mode + 1)[:, None]
        return _trig_eval(k * self.sin_coeffs, -k * self.cos_coeffs, t)


def loop_from_fourier(spec: FourierLoopSpec) -> Loop7:
    """Sample a trigonometric-polynomial loop at its uniform grid."""
    return Loop7(spec.sample())


def integrate(loop: Loop7, f) -> float:
    """Periodic trapezoid rule: sum f(t_j) * (2*pi/N)."""
    f = np.asarray(f)
    if f.shape[0] != loop.n:
        raise ValueError("integrand length mismatch")
    total = np.sum(f, axis=0) * (TWO_PI / loop.n)
    return float(total) if np.ndim(total) == 0 and not np.iscomplexobj(f) else total


def _arclength_solve(loop: Loop7, values: np.ndarray | None = None):
    """Newton for the parameters t(s_j) of uniform arclength s_j = L j / N,
    and the trigonometric interpolant of `values` at them ((N, 0) without).

    Every evaluation carries the sample columns with the speed and the
    arclength; the t returned is the one whose residual passed, with the
    samples evaluated there. On `loop gen` loops the septic warm start
    passes at the first evaluation from N = 512 on (at N = 512 almost
    always); at N = 64 to 256 one or two Newton steps follow. Each
    evaluation is one _trig_eval Taylor series: 9 inverse FFTs at N = 2048."""
    n = loop.n
    a, b = _cos_sin_coeffs(loop.speeds)
    # Column 0 is the speed, column 1 the periodic part of its antiderivative;
    # a_0 t + sum_k b_k / k completes the arclength from t = 0. The k = 0
    # entries drop out (b_0 = 0, sin 0 = 0), so any nonzero k serves there.
    k = np.maximum(np.arange(a.shape[0]), 1)
    coeffs = np.stack([a, -b / k], axis=1), np.stack([b, a / k], axis=1)
    offset = np.sum(b / k)
    total = loop.length
    targets = total * np.arange(n) / n

    # Warm start: the arclength on the grid is one irfft of the periodic
    # column (k = 0 dropped; an even N's Nyquist sine vanishes there). The
    # nodes (s_j, t_j), closed by (L, 2 pi), with dt/ds = 1/v,
    # d2t/ds2 = -v'/v^3 and d3t/ds3 = (3 v'^2 - v v'')/v^5 give a septic
    # Hermite inverse, accurate to O(h^8).
    half = 0.5 * n * (coeffs[0][:, 1] - 1j * coeffs[1][:, 1])
    half[0] = 0.0
    s = np.append(a[0] * loop.params + np.fft.irfft(half, n) + offset, total)
    nodes = np.append(loop.params, TWO_PI)
    v = loop.speeds
    dv = spectral_derivative(v)
    slopes = np.stack([1.0 / v, -dv / v ** 3,
                       (3.0 * dv * dv - v * spectral_derivative(dv)) / v ** 5])
    slopes = np.append(slopes, slopes[:, :1], axis=1)
    j = np.clip(np.searchsorted(s, targets, side="right") - 1, 0, n - 1)
    h = s[j + 1] - s[j]
    x = (targets - s[j]) / h
    # d, c, e: the first three x-derivatives of t at either end, x = 0 and 1
    powers = np.stack([h, h * h, h * h * h])
    (d0, c0, e0), (d1, c1, e1) = powers * slopes[:, j], powers * slopes[:, j + 1]
    rise = nodes[j + 1] - nodes[j]
    A = rise - d0 - 0.5 * c0 - e0 / 6.0
    B = d1 - d0 - c0 - 0.5 * e0
    C = c1 - c0 - e0
    D = e1 - e0
    # t = nodes[j] + p(x), p the septic with p(0) = 0, p(1) = rise and
    # p', p'', p''' = d, c, e at both ends, in powers of x
    t = nodes[j] + x * (d0 + x * (0.5 * c0 + x * (e0 / 6.0 + x * (
        35.0 * A - 15.0 * B + 2.5 * C - D / 6.0 + x * (
            -84.0 * A + 39.0 * B - 7.0 * C + 0.5 * D + x * (
                70.0 * A - 34.0 * B + 6.5 * C - 0.5 * D + x * (
                    -20.0 * A + 10.0 * B - 2.0 * C + D / 6.0)))))))

    if values is not None:
        coeffs = tuple(np.concatenate(pair, axis=1)
                       for pair in zip(coeffs, _cos_sin_coeffs(values)))
    tol = 1e-14 * max(total, 1.0)
    for _ in range(60):
        out = _trig_eval(*coeffs, t)
        resid = a[0] * t + out[:, 1] + offset - targets
        worst = np.max(np.abs(resid))
        if worst < tol:
            return t, out[:, 2:]
        t = t - resid / np.maximum(out[:, 0], 1e-12)
    raise UnderResolved(
        f"arclength Newton did not converge in 60 steps: residual {worst:.1e} against"
        f" {tol:.1e}; the loop is under-resolved")


def arclength_params(loop: Loop7) -> np.ndarray:
    """Parameters t(s_j) at which arclength is uniform: Newton on the
    spectrally integrated speed from a septic Hermite inverse of the grid
    arclength. Raises UnderResolved when Newton does not converge."""
    return _arclength_solve(loop)[0]


def unit_speed_reparam(loop: Loop7) -> Loop7:
    """Resample the loop so its speed is constant (= length / 2*pi)."""
    if loop.is_constant_speed(rtol=1e-12):
        return loop
    return Loop7(_arclength_solve(loop, loop.samples)[1])


def require_resolved(loop: Loop7) -> None:
    """Raise UnderResolved when the samples (mean left out) or the speeds
    (mean counted) of a loop put more than RESOLVED_TAIL of their energy in
    the top eighth of the spectrum."""
    for name, values, with_mean in (("samples", loop.samples, False),
                                    ("speed", loop.speeds, True)):
        tail = spectral_tail(values, with_mean)
        if tail > RESOLVED_TAIL:
            raise UnderResolved(
                f"loop is under-resolved: {tail:.1e} of the energy of its {name} lies in the"
                f" top eighth of the spectrum (limit {RESOLVED_TAIL:.0e}); sample it more finely")


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
    if not isinstance(doc, dict) or type(doc.get("n")) is not int:  # bool is an int subclass
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


def circle_loop(n: int = 256) -> Loop7:
    """Unit circle fixture in the e1-e2 plane."""
    cos = np.zeros((2, 7))
    sin = np.zeros((2, 7))
    cos[1, 0] = sin[1, 1] = 1.0
    return loop_from_fourier(FourierLoopSpec(cos, sin, n))
