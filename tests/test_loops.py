"""Spectral loop calculus: derivatives, interpolation, quadrature, arclength
reparametrization, serialization, and validation."""

import json
import tracemalloc

import numpy as np
import pytest

from g2knot import loops
from g2knot.cli import run
from g2knot.errors import ImmersionViolation, UnderResolved
from g2knot.loops import (RESOLVED_TAIL, FourierLoopSpec, Loop7,
                          arclength_params, circle_loop, integrate,
                          loop_from_fourier, loop_from_json, loop_to_json,
                          normal_project, require_resolved, spectral_derivative,
                          spectral_tail, trig_interpolate, unit_speed_reparam)
from g2knot.verify import random_loop


def random_spec(rng, n=128, k_max=4):
    k = np.arange(k_max + 1)
    scale = 1.0 / (1.0 + k.astype(float) ** 2)
    return FourierLoopSpec(rng.standard_normal((k_max + 1, 7)) * scale[:, None],
                           rng.standard_normal((k_max + 1, 7)) * scale[:, None],
                           n)


def dense_interpolant(values, t):
    """Reference interpolant of real samples: one complex exponential per FFT
    mode, with an even N's Nyquist coefficient split evenly between +N/2 and
    -N/2.

    The phases k t are formed and exponentiated in extended precision
    (np.longdouble, 64-bit mantissa on x86-64), 256 points at a time. In
    doubles, rounding k t alone moves a term by up to ulp(1024 * 2 pi) / 2 =
    4.5e-13 at N = 2048, as large as the evaluator's own error."""
    n = values.shape[0]
    spec = np.fft.fft(values, axis=0) / n
    k = np.fft.fftfreq(n, d=1.0 / n)
    if n % 2 == 0:
        spec = np.concatenate([spec, spec[n // 2: n // 2 + 1]], axis=0)
        spec[n // 2] *= 0.5
        spec[-1] *= 0.5
        k = np.concatenate([k, [n // 2]])
    t = np.asarray(t, dtype=np.longdouble)
    k = k.astype(np.longdouble)
    out = np.concatenate([np.tensordot(np.exp(1j * np.outer(t[i:i + 256], k)), spec, axes=(1, 0))
                          for i in range(0, t.size, 256)]).astype(complex)
    return out.real


def dense_arclength_params(loop):
    """Independent reference Newton solve for uniform arclength on dense
    exponentials, 256 points at a time. It starts from the uniform grid, not
    from arclength_params' Hermite warm start, and keeps the same step cap
    and stopping rule."""
    n = loop.n
    spec = np.fft.fft(loop.speeds) / n
    k = np.fft.fftfreq(n, d=1.0 / n)
    km, cm = k[k != 0], spec[k != 0]
    total = loop.length
    targets = total * np.arange(n) / n
    t = 2 * np.pi * np.arange(n) / n
    periodic, speed = np.empty(n), np.empty(n)
    for _ in range(60):
        for i in range(0, n, 256):
            exps = np.exp(1j * np.outer(t[i:i + 256], km))
            periodic[i:i + 256] = ((exps - 1.0) @ (cm / (1j * km))).real
            speed[i:i + 256] = spec[0].real + (exps @ cm).real
        resid = spec[0].real * t + periodic - targets
        t = t - resid / np.maximum(speed, 1e-12)
        if np.max(np.abs(resid)) < 1e-14 * max(total, 1.0):
            break
    return t


class TestTrigEvaluator:
    """The trigonometric interpolant against dense exponentials: direct cos/sin
    products up to 32 modes, past them the spectral Taylor series about the
    nearest node of a 5-smooth grid."""

    @pytest.mark.parametrize("n", [16, 17, 256, 257])
    def test_matches_dense_reference(self, rng, n):
        # N = 16, 17: M = N//2 + 1 <= 32, the direct products; N = 256, 257:
        # M = 129, the Taylor series on a grid of 270 points
        values = rng.standard_normal((n, 7))  # white noise: every mode present
        t = np.concatenate([2 * np.pi * np.arange(n) / n,
                            rng.uniform(-np.pi, 3 * np.pi, 300)])
        out = trig_interpolate(values, t)
        assert out.shape == (t.size, 7) and np.isrealobj(out)
        assert np.abs(out - dense_interpolant(values, t)).max() < 1e-12
        assert np.abs(out[:n] - values).max() < 1e-12

    @pytest.mark.skipif(np.finfo(np.longdouble).eps >= np.finfo(float).eps,
                        reason="np.longdouble is float64: a double reference rounds k t by"
                               " up to 4.5e-13 and differs by up to 1.1e-12")
    def test_padded_last_giant_step(self, rng):
        # N = 2048: M = 1025 modes, up to the Nyquist mode 1024, on a Taylor
        # grid of 2160 points. The offsets from the nodes are reduced in two
        # parts, so they carry no rounding beyond that of t itself.
        # The grid values differ from the samples by about 1.3e-12 through
        # the FFT alone, so only the dense reference is checked there.
        n = 2048
        values = rng.standard_normal((n, 7))
        t = np.concatenate([2 * np.pi * np.arange(n) / n, rng.uniform(0, 2 * np.pi, 300)])
        out = trig_interpolate(values, t)
        assert out.shape == (t.size, 7)
        assert np.abs(out - dense_interpolant(values, t)).max() < 1e-12

    def test_nyquist_mode_at_n_2048(self, rng):
        n = 2048
        grid = 2 * np.pi * np.arange(n) / n
        t = rng.uniform(0, 2 * np.pi, 300)
        out = trig_interpolate(np.cos(n * grid / 2), t)
        assert np.abs(out - np.cos(n * t / 2)).max() < 1e-12
        assert np.abs(out - dense_interpolant(np.cos(n * grid / 2), t)).max() < 1e-12

    def test_fourier_spec_bit_identical_to_dense_tables(self, rng):
        # A max-mode-5 spec takes the direct route: evaluate and derivative
        # are exactly the two products cos(k t) @ a + sin(k t) @ b.
        spec = random_spec(rng, n=512, k_max=5)
        t = np.concatenate([2 * np.pi * np.arange(512) / 512, rng.uniform(-np.pi, 3 * np.pi, 300)])
        k = np.arange(6)
        out = np.empty((t.size, 7))
        dout = np.empty((t.size, 7))
        for start in range(0, t.size, 256):
            angles = np.outer(t[start:start + 256], k)
            cos, sin = np.cos(angles), np.sin(angles)
            out[start:start + 256] = cos @ spec.cos_coeffs + sin @ spec.sin_coeffs
            dout[start:start + 256] = (cos @ (k[:, None] * spec.sin_coeffs)
                                       + sin @ (-k[:, None] * spec.cos_coeffs))
        assert np.array_equal(spec.evaluate(t), out)
        assert np.array_equal(spec.derivative(t), dout)

    @pytest.mark.parametrize("n, m", [(n, m) for n in (16, 64, 512, 2048)
                                      for m in (1, 6, 32, 33) if n > 2 * (m - 1)])
    def test_sample_is_evaluate_on_the_grid(self, n, m):
        # up to 32 modes the cos/sin block comes from the cached grid table;
        # 33 modes take the Taylor series from the points
        rng = np.random.default_rng(n + m)
        spec = FourierLoopSpec(rng.standard_normal((m, 7)), rng.standard_normal((m, 7)), n)
        assert spec.sample().tobytes() == spec.evaluate(2 * np.pi * np.arange(n) / n).tobytes()

    @pytest.mark.skipif(np.finfo(np.longdouble).eps >= np.finfo(float).eps,
                        reason="np.longdouble is float64: a double reference rounds k t by"
                               " up to 1.5e-11 at |t| = 40 pi")
    @pytest.mark.parametrize("n, bound", [(256, 1e-12), (2048, 1e-11)])
    def test_points_over_many_periods(self, rng, n, bound):
        # Each t is reduced to an offset from its node with no rounding beyond
        # its own, so twenty periods out cost no accuracy.
        values = rng.standard_normal((n, 7))
        t = rng.uniform(-40 * np.pi, 40 * np.pi, 300)
        assert np.abs(trig_interpolate(values, t) - dense_interpolant(values, t)).max() < bound

    def test_reparam_fft_count(self, monkeypatch):
        # The warm start, the Taylor series of the one evaluation and the
        # resampled loop's derivative, at N = 2048 on a `loop gen` loop.
        calls = []
        irfft = np.fft.irfft
        monkeypatch.setattr(np.fft, "irfft", lambda *args, **kw: calls.append(1) or irfft(*args, **kw))
        unit_speed_reparam(random_loop(np.random.default_rng(2048), 2048, 5))
        assert 0 < len(calls) <= 16

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, -2.0 ** 31])
    @pytest.mark.parametrize("m", [6, 40])
    def test_points_out_of_range_are_refused(self, rng, bad, m):
        # one bad point would spoil the Taylor order of every row
        spec = FourierLoopSpec(rng.standard_normal((m, 7)), rng.standard_normal((m, 7)), 128)
        t = np.linspace(0.0, 1.0, 5)
        t[2] = bad
        for evaluate in (spec.evaluate, spec.derivative,
                         lambda t: trig_interpolate(spec.sample(), t)):
            with pytest.raises(ValueError, match="t must be finite"):
                evaluate(t)

    def test_grid_table_is_read_only(self):
        table = loops._grid_table(64, 6)
        with pytest.raises(ValueError):
            table[0, 1, 1] = 0.0

    def test_nyquist_mode_stays_real(self, rng):
        n = 256
        grid = 2 * np.pi * np.arange(n) / n
        t = rng.uniform(0, 2 * np.pi, 300)
        out = trig_interpolate(np.cos(n * grid / 2), t)
        assert np.isrealobj(out)
        assert np.abs(out - np.cos(n * t / 2)).max() < 1e-12
        assert np.abs(out - dense_interpolant(np.cos(n * grid / 2), t)).max() < 1e-12

    def test_rejects_complex_samples(self):
        with pytest.raises(ValueError, match="real samples"):
            trig_interpolate(np.ones((16, 3), dtype=complex), np.zeros(4))

    @pytest.mark.parametrize("n", [64, 256, 257, 2048])
    def test_arclength_params_match_dense_newton(self, rng, n):
        loop = loop_from_fourier(random_spec(rng, n=n))
        t = arclength_params(loop)
        ref = dense_arclength_params(loop)
        assert np.abs(t - ref).max() < 1e-13 * np.abs(ref).max()

    def test_reparam_memory_is_bounded(self):
        # Dense N x N exponentials at N = 2048 peak above 130 MB, full-width
        # 256 x 1025 cos/sin tables near 4.4 MB; the Taylor series holds one
        # spectrum and one grid of derivative values at a time, and the
        # traced peak stays near 1.4 MB.
        loop = random_loop(np.random.default_rng(2048), 2048, 5)
        tracemalloc.start()
        try:
            unit_speed_reparam(loop)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 32 * 2 ** 20


class TestSpectralCalculus:
    def test_derivative_exact_on_trig_polynomials(self, rng):
        spec = random_spec(rng)
        t = 2 * np.pi * np.arange(spec.n) / spec.n
        numeric = spectral_derivative(spec.evaluate(t))
        assert np.allclose(numeric, spec.derivative(t), atol=1e-12)

    @pytest.mark.parametrize("n", [63, 65])
    def test_derivative_exact_at_odd_n(self, rng, n):
        # every mode up to (N - 1) / 2 is resolved: an odd N has no Nyquist mode
        spec = random_spec(rng, n, (n - 1) // 2)
        t = 2 * np.pi * np.arange(n) / n
        exact = spec.derivative(t)
        assert np.abs(spectral_derivative(spec.evaluate(t)) - exact).max() <= 1e-12 * np.abs(exact).max()

    def test_derivative_of_one_column(self):
        t = 2 * np.pi * np.arange(64) / 64
        got = spectral_derivative(np.sin(3 * t) + 0.5)
        assert got.shape == (64,)
        assert np.abs(got - 3 * np.cos(3 * t)).max() <= 1e-12

    def test_nyquist_mode_differentiates_to_zero(self):
        n = 64
        t = 2 * np.pi * np.arange(n) / n
        vals = np.cos(n * t / 2)[:, None] * np.arange(1.0, 8.0)
        assert np.abs(spectral_derivative(vals)).max() <= 1e-12

    def test_complex_samples_are_refused(self, rng):
        # the half-spectrum route takes real samples only; complex ones raise
        # instead of losing their imaginary parts
        vals = rng.standard_normal((64, 7)) + 1j * rng.standard_normal((64, 7))
        with pytest.raises(TypeError):
            spectral_derivative(vals)

    def test_derivative_of_constant_is_zero(self):
        vals = np.ones((64, 7)) * 3.5
        assert np.allclose(spectral_derivative(vals), 0.0, atol=1e-13)

    def test_interpolation_reproduces_samples(self, rng):
        spec = random_spec(rng)
        t = 2 * np.pi * np.arange(spec.n) / spec.n
        vals = spec.evaluate(t)
        assert np.allclose(trig_interpolate(vals, t), vals, atol=1e-12)

    def test_interpolation_exact_off_grid(self, rng):
        spec = random_spec(rng)
        t = 2 * np.pi * np.arange(spec.n) / spec.n
        t_new = rng.uniform(0, 2 * np.pi, 17)
        assert np.allclose(trig_interpolate(spec.evaluate(t), t_new),
                           spec.evaluate(t_new), atol=1e-12)

    def test_quadrature_exact_for_smooth_periodic(self):
        n = 64
        t = 2 * np.pi * np.arange(n) / n
        loop = circle_loop(n)
        # ∫ (1 + cos t)^2 dt = 3 pi
        vals = (1 + np.cos(t)) ** 2
        assert integrate(loop, vals[:n]) == pytest.approx(3 * np.pi, rel=1e-13)


class TestLoop7:
    def test_circle_geometry(self):
        loop = circle_loop(128)
        assert loop.length == pytest.approx(2 * np.pi, rel=1e-12)
        assert loop.is_constant_speed()
        expected_tangent = np.zeros((128, 7))
        expected_tangent[:, 0] = -np.sin(loop.params)
        expected_tangent[:, 1] = np.cos(loop.params)
        assert np.allclose(loop.unit_tangent, expected_tangent, atol=1e-12)

    def test_validation(self):
        with pytest.raises(ValueError):
            Loop7(np.zeros((10, 7)))  # too few samples
        with pytest.raises(ValueError):
            Loop7(np.zeros((32, 3)))  # wrong width
        with pytest.raises(ValueError):
            Loop7(np.full((32, 7), np.inf))

    def test_immersion_violation(self):
        samples = np.zeros((32, 7))
        samples[:, 0] = 1.0  # constant loop: zero velocity
        with pytest.raises(ImmersionViolation):
            Loop7(samples)

    def test_fourier_aliasing_guard(self, rng):
        with pytest.raises(ValueError):
            FourierLoopSpec(np.zeros((9, 7)), np.zeros((9, 7)), 16)
        with pytest.raises(ValueError):  # empty spectrum: no modes at all
            FourierLoopSpec(np.zeros((0, 7)), np.zeros((0, 7)), 64)


class TestReparametrization:
    def test_arclength_params_on_circle_are_identity(self):
        loop = circle_loop(64)
        t = arclength_params(loop)
        assert np.allclose(t, loop.params, atol=1e-12)

    def test_unit_speed_reparam(self, rng):
        spec = random_spec(rng, n=256)
        loop = loop_from_fourier(spec)
        fixed = unit_speed_reparam(loop)
        spread = (fixed.speeds.max() - fixed.speeds.min()) / fixed.speeds.mean()
        assert spread < 1e-8
        assert fixed.length == pytest.approx(loop.length, rel=1e-10)

    @pytest.mark.parametrize("n, least, most",
                             [(64, 2, 3), (128, 2, 3), (256, 2, 3), (512, 1, 1), (2048, 1, 1)])
    def test_reparam_evaluation_count(self, monkeypatch, n, least, most):
        # Each evaluation also carries the samples. The septic warm start
        # passes the residual test at the first evaluation at N = 512 and 2048.
        calls = []
        evaluate = loops._trig_eval
        monkeypatch.setattr(loops, "_trig_eval", lambda *args: calls.append(1) or evaluate(*args))
        for seed in range(1000, 1004):
            loop = random_loop(np.random.default_rng(seed), n, 5)
            calls.clear()
            unit_speed_reparam(loop)
            assert least <= len(calls) <= most

    @pytest.mark.parametrize("n", [64, 512, 2048])
    def test_fused_samples_match_trig_interpolate(self, n):
        loop = random_loop(np.random.default_rng(n), n, 5)
        fixed = unit_speed_reparam(loop).samples
        ref = trig_interpolate(loop.samples, arclength_params(loop))
        assert np.abs(fixed - ref).max() <= 1e-14 * np.abs(ref).max()

    def test_newton_without_convergence_is_under_resolved(self, monkeypatch, tmp_path, capsys):
        # The arclength column jumps by +-1e-3 between evaluations, so the
        # residual never settles below the 1e-14 L test.
        evaluate = loops._trig_eval
        calls = []

        def unsettled(a, b, t):
            out = evaluate(a, b, t)
            calls.append(1)
            out[:, 1] += (-1) ** len(calls) * 1e-3
            return out
        monkeypatch.setattr(loops, "_trig_eval", unsettled)
        loop = random_loop(np.random.default_rng(5), 256, 5)
        with pytest.raises(UnderResolved, match="did not converge in 60 steps: residual"):
            arclength_params(loop)
        path = tmp_path / "loop.json"
        path.write_text(loop_to_json(loop))
        assert run(["loop", "reparam", "-i", str(path)]) == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: arclength Newton did not converge")


class TestResolution:
    def test_spectral_tail_of_single_modes(self):
        n = 64
        t = 2 * np.pi * np.arange(n) / n
        assert spectral_tail(np.cos(3 * t)) < 1e-30
        assert spectral_tail(np.sin(29 * t)) == pytest.approx(1.0)  # 29 > 32 - 4
        assert spectral_tail(np.sin(28 * t)) < 1e-25
        # energy is the mean square: 1/2 for cos 3t, 1 for the Nyquist mode (-1)^j
        assert spectral_tail(np.cos(3 * t) + np.cos(32 * t)) == pytest.approx(2 / 3)
        assert spectral_tail(np.full(n, 2.0)) == 0.0
        # with the mean counted: mean square 4 + 1/2 for 2 + cos 30t
        assert spectral_tail(2.0 + np.cos(30 * t), with_mean=True) == pytest.approx(1 / 9)
        assert spectral_tail(np.full(n, 2.0), with_mean=True) == 0.0

    def test_spectral_tail_sums_columns(self):
        n = 64
        t = 2 * np.pi * np.arange(n) / n
        values = np.stack([np.cos(2 * t), np.cos(30 * t)], axis=1)
        assert spectral_tail(values) == pytest.approx(0.5)

    def test_generated_loops_pass_from_n_256(self):
        for seed in range(20):
            require_resolved(random_loop(np.random.default_rng(seed), 256, 5))

    @pytest.mark.parametrize("n", [16, 64, 2048])
    def test_constant_speed_passes(self, n):
        # the circle's speed varies by rounding only; without the mean in its
        # energy that noise filled the top eighth (tail 0.17 to 0.26)
        require_resolved(circle_loop(n))

    @pytest.mark.parametrize("n", [256, 2048])
    def test_reparametrized_loops_pass(self, n):
        require_resolved(unit_speed_reparam(random_loop(np.random.default_rng(3), n, 5)))

    def test_white_noise_is_under_resolved(self, rng):
        loop = Loop7(rng.standard_normal((64, 7)))
        assert spectral_tail(loop.samples) > 1e6 * RESOLVED_TAIL
        with pytest.raises(UnderResolved, match="samples"):
            require_resolved(loop)

    def test_coarse_speed_is_under_resolved(self):
        # at N = 32 a max-mode-5 loop has exact samples but not an exact speed
        loop = random_loop(np.random.default_rng(3), 32, 5)
        assert spectral_tail(loop.samples) < 1e-25
        with pytest.raises(UnderResolved, match="speed"):
            require_resolved(loop)


class TestNormalProjection:
    def test_projection_is_pointwise_orthogonal(self, rng):
        loop = loop_from_fourier(random_spec(rng, n=128))
        field = rng.standard_normal((128, 7))
        proj = normal_project(loop, field)
        dots = np.einsum("ni,ni->n", proj, loop.unit_tangent)
        assert np.abs(dots).max() < 1e-12

    def test_projection_idempotent(self, rng):
        loop = loop_from_fourier(random_spec(rng, n=128))
        field = rng.standard_normal((128, 7))
        once = normal_project(loop, field)
        assert np.allclose(normal_project(loop, once), once, atol=1e-12)


class TestSerialization:
    def test_samples_roundtrip(self, rng):
        loop = loop_from_fourier(random_spec(rng, n=64))
        back = loop_from_json(loop_to_json(loop))
        assert np.allclose(back.samples, loop.samples)

    def test_fourier_roundtrip(self, rng):
        spec = random_spec(rng, n=64)
        loop = loop_from_fourier(spec)
        doc = json.loads(loop_to_json(loop, spec))
        del doc["samples"]
        back = loop_from_json(json.dumps(doc))
        assert np.allclose(back.samples, loop.samples, atol=1e-12)

    def test_malformed_json_rejected(self):
        with pytest.raises(ValueError):
            loop_from_json(json.dumps({"n": 64}))
