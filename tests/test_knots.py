"""Knot-space geometry: the almost complex structure, the 2-form and metric,
chart brackets, and the Nijenhuis tensor with its explicit nonzero witness."""

import numpy as np
import pytest

from g2knot.algebra import cross_field
from g2knot.errors import StepOutOfRange
from g2knot.knots import (KnotChart, acs_apply, chart_bracket, d_omega,
                          d_omega_fd, hermitian_metric, nijenhuis,
                          nijenhuis_exact, omega)
from g2knot.loops import (FourierLoopSpec, Loop7, circle_loop,
                          loop_from_fourier, normal_project, spectral_derivative,
                          trig_interpolate, unit_speed_reparam)
from g2knot.verify import random_loop, random_normal_field

N = 256


@pytest.fixture(scope="module")
def circle():
    return circle_loop(N)


def smooth_loop(rng, n=N, k_max=4):
    k = np.arange(k_max + 1)
    scale = 1.0 / (1.0 + k.astype(float) ** 2)
    while True:
        spec = FourierLoopSpec(rng.standard_normal((k_max + 1, 7)) * scale[:, None],
                               rng.standard_normal((k_max + 1, 7)) * scale[:, None], n)
        try:
            loop = loop_from_fourier(spec)
        except Exception:
            continue
        if loop.speeds.min() / loop.speeds.mean() > 0.5:
            return loop


def smooth_field(rng, loop, k_max=4):
    k = np.arange(k_max + 1)
    scale = 1.0 / (1.0 + k.astype(float) ** 2)
    spec = FourierLoopSpec(rng.standard_normal((k_max + 1, 7)) * scale[:, None],
                           rng.standard_normal((k_max + 1, 7)) * scale[:, None], loop.n)
    return normal_project(loop, spec.evaluate(loop.params))


def const_field(loop, axis):
    return np.tile(np.eye(7)[axis], (loop.n, 1))


def rel_sup(a, b):
    return np.abs(a - b).max() / np.abs(b).max()


class TestAlmostComplexStructure:
    def test_circle_oracle(self, circle, g2):
        # on the (e1, e2)-circle, I e3 = T * e3 with T = (-sin, cos, 0, ...)
        out = acs_apply(circle, const_field(circle, 2))
        oracle = cross_field(g2, circle.unit_tangent, const_field(circle, 2))
        assert np.allclose(out, oracle, atol=1e-12)
        # at t = 0 the tangent is e2 and e2 * e3 = e1
        assert np.allclose(out[0], np.eye(7)[0], atol=1e-12)

    def test_squares_to_minus_identity_pointwise(self, rng):
        loop = smooth_loop(rng)
        X = smooth_field(rng, loop)
        twice = acs_apply(loop, acs_apply(loop, X))
        assert np.allclose(twice, -X, atol=1e-10 * max(1.0, np.abs(X).max()))

    def test_chart_acs_squares_to_minus_identity(self, rng):
        loop = smooth_loop(rng)
        chart = KnotChart(loop)
        X = smooth_field(rng, loop)
        u = 0.05 * smooth_field(rng, loop)
        twice = chart.acs(u, chart.acs(u, X))
        assert np.allclose(twice, -X, atol=1e-10 * max(1.0, np.abs(X).max()))

    def test_chart_point_zero_is_the_base(self, rng):
        loop = smooth_loop(rng)
        chart = KnotChart(loop)
        assert chart.loop_at(np.zeros((loop.n, 7))) is loop
        X = smooth_field(rng, loop)
        assert np.array_equal(chart.acs(np.zeros_like(X), X),
                              chart.to_chart_tangent(loop, acs_apply(loop, X)))

    def test_isometry_on_normal_fields(self, rng):
        loop = smooth_loop(rng)
        X = smooth_field(rng, loop)
        IX = acs_apply(loop, X)
        assert hermitian_metric(loop, IX, IX) == pytest.approx(
            hermitian_metric(loop, X, X), rel=1e-10)


class TestTwoForm:
    def test_antisymmetry(self, rng):
        loop = smooth_loop(rng)
        X, Y = smooth_field(rng, loop), smooth_field(rng, loop)
        assert omega(loop, X, Y) == pytest.approx(-omega(loop, Y, X), rel=1e-12)

    def test_reparametrization_invariance(self, rng):
        loop = smooth_loop(rng)
        X, Y = smooth_field(rng, loop), smooth_field(rng, loop)
        val = omega(loop, X, Y)
        fixed = unit_speed_reparam(loop)
        from g2knot.loops import arclength_params
        t = arclength_params(loop)
        Xr = trig_interpolate(X, t)
        Yr = trig_interpolate(Y, t)
        assert omega(fixed, Xr, Yr) == pytest.approx(val, rel=1e-8)

    def test_compatibility_with_metric(self, rng):
        loop = smooth_loop(rng)
        X, Y = smooth_field(rng, loop), smooth_field(rng, loop)
        IX = acs_apply(loop, X)
        # omega(X, Y) = +G(I X, Y): the sign is +1
        assert omega(loop, X, Y) == pytest.approx(
            hermitian_metric(loop, IX, Y), rel=1e-10)

    def test_invariance_under_acs(self, rng):
        loop = smooth_loop(rng)
        X, Y = smooth_field(rng, loop), smooth_field(rng, loop)
        IX = acs_apply(loop, X)
        IY = acs_apply(loop, Y)
        assert omega(loop, IX, IY) == pytest.approx(omega(loop, X, Y), rel=1e-10)

    def test_closedness_exact_route(self, rng):
        loop = smooth_loop(rng)
        chart = KnotChart(loop)
        X, Y, Z = (smooth_field(rng, loop) for _ in range(3))
        assert abs(d_omega(chart, X, Y, Z)) < 1e-10

    def test_closedness_fd_route_matches(self, rng):
        loop = smooth_loop(rng)
        chart = KnotChart(loop)
        X, Y, Z = (smooth_field(rng, loop) for _ in range(3))
        assert abs(d_omega_fd(chart, X, Y, Z, 1e-4)) < 1e-6

    def test_step_validation(self, rng):
        loop = smooth_loop(rng)
        chart = KnotChart(loop)
        X, Y, Z = (smooth_field(rng, loop) for _ in range(3))
        with pytest.raises(StepOutOfRange):
            d_omega_fd(chart, X, Y, Z, 1.0)
        with pytest.raises(StepOutOfRange):
            nijenhuis(chart, X, Y, 1.0)


class TestChartBracket:
    def test_constant_fields_commute(self, rng):
        loop = smooth_loop(rng)
        chart = KnotChart(loop)
        X = smooth_field(rng, loop)
        Y = smooth_field(rng, loop)
        br = chart_bracket(chart, lambda u: X, lambda u: Y, 1e-4)
        assert np.abs(br).max() < 1e-12

    def test_linear_field_bracket_oracle(self, rng):
        # [X, f X] = (X f) X for a chart-linear scalar coefficient
        loop = smooth_loop(rng)
        chart = KnotChart(loop)
        X = smooth_field(rng, loop)
        W = smooth_field(rng, loop)
        # f(u) = <W, u> integrated: A = X constant, B(u) = f(u) X
        def f(u):
            return float(np.sum(W * u)) / loop.n
        br = chart_bracket(chart, lambda u: X, lambda u: f(u) * X, 1e-4)
        expected = (float(np.sum(W * X)) / loop.n) * X
        assert np.allclose(br, expected, atol=1e-6 * max(1.0, np.abs(expected).max()))


class TestNijenhuis:
    def test_circle_witness_is_nonzero(self, g2, circle):
        # explicit witness: on the unit circle the Nijenhuis tensor applied to
        # the constant normal fields e3, e4 equals -(T * e4), with unit sup
        # norm, so the almost complex structure is not formally integrable
        chart = KnotChart(circle)
        X = const_field(circle, 2)
        Y = const_field(circle, 3)
        nij = nijenhuis(chart, X, Y, 1e-4)
        expected = -cross_field(g2, circle.unit_tangent, Y)
        assert np.allclose(nij, expected, atol=1e-6)
        assert np.abs(nij).max() == pytest.approx(1.0, abs=1e-7)

    def test_witness_is_step_independent(self, circle):
        # the residual is a genuine tensor value, not a discretization artifact
        chart = KnotChart(circle)
        X = const_field(circle, 2)
        Y = const_field(circle, 3)
        sups = [np.abs(nijenhuis(chart, X, Y, h)).max() for h in (2e-4, 1e-4, 5e-5)]
        assert np.allclose(sups, 1.0, atol=1e-6)

    def test_antisymmetry(self, rng):
        loop = smooth_loop(rng)
        chart = KnotChart(loop)
        X = smooth_field(rng, loop)
        Y = smooth_field(rng, loop)
        nxy = nijenhuis(chart, X, Y, 1e-4)
        nyx = nijenhuis(chart, Y, X, 1e-4)
        assert np.allclose(nxy, -nyx, atol=1e-5 * max(1.0, np.abs(nxy).max()))

    def test_vanishes_on_parallel_arguments(self, circle):
        chart = KnotChart(circle)
        X = const_field(circle, 2)
        nij = nijenhuis(chart, X, 2.0 * X, 1e-4)
        assert np.abs(nij).max() < 1e-6



class TestNijenhuisExact:
    """The closed form against the finite-difference route, its witnesses and
    the identities every Nijenhuis tensor satisfies."""

    @pytest.fixture(scope="class")
    def drawn(self):
        rng = np.random.default_rng(7)
        loop = smooth_loop(rng)
        chart = KnotChart(loop)
        X, Y = smooth_field(rng, loop), smooth_field(rng, loop)
        return loop, chart, X, Y, nijenhuis_exact(chart, X, Y)

    def test_fd_gap_falls_as_h_squared(self, drawn):
        _, chart, X, Y, exact = drawn
        gaps = [rel_sup(nijenhuis(chart, X, Y, h), exact) for h in (1e-3, 1e-4)]
        assert 80.0 < gaps[0] / gaps[1] < 120.0
        assert gaps[1] < 1e-6

    def test_circle_witness(self, g2, circle):
        chart = KnotChart(circle)
        nij = nijenhuis_exact(chart, const_field(circle, 2), const_field(circle, 3))
        expected = -cross_field(g2, circle.unit_tangent, const_field(circle, 3))
        assert np.abs(nij - expected).max() <= 1e-11

    def test_vanishes_in_the_associative_plane(self):
        # span(e1, e2, e3) is associative: for a loop in it, with fields valued
        # in it, I is the rotation of Brylinski's rank-2 normal bundle
        rng = np.random.default_rng(3)
        while True:
            loop = smooth_loop(rng)
            flat = Loop7(loop.samples * (np.arange(7) < 3))
            if flat.speeds.min() / flat.speeds.mean() > 0.5:
                break
        X, Y = (normal_project(flat, smooth_field(rng, loop) * (np.arange(7) < 3))
                for _ in range(2))
        nij = nijenhuis_exact(KnotChart(flat), X, Y)
        assert np.abs(nij).max() <= 1e-12 * np.abs(X).max() * np.abs(Y).max()

    def test_complex_antilinear_identities(self, drawn):
        # N(IX, Y) = N(X, IY) = -I N(X, Y)
        loop, chart, X, Y, exact = drawn
        minus_I_N = -acs_apply(loop, exact)
        assert rel_sup(nijenhuis_exact(chart, acs_apply(loop, X), Y), minus_I_N) <= 1e-12
        assert rel_sup(nijenhuis_exact(chart, X, acs_apply(loop, Y)), minus_I_N) <= 1e-12

    def test_normal_to_the_loop(self, drawn):
        loop, _, _, _, exact = drawn
        tangential = np.einsum("ni,ni->n", exact, loop.unit_tangent)
        assert np.abs(tangential).max() <= 1e-13 * np.abs(exact).max()

    def test_antisymmetry(self, drawn):
        _, chart, X, Y, exact = drawn
        assert rel_sup(nijenhuis_exact(chart, Y, X), -exact) <= 1e-14

    @pytest.mark.parametrize("seed", [7, 8, 410])
    def test_associator_form(self, g2, seed):
        # a second closed form, through chi(a, b, c) = a*(b*c) + g(a, b)c
        # - g(a, c)b, which vanishes when a, b, c span an associative 3-plane:
        # with x = PX'/v, y = PY'/v and the curvature kappa = PT'/v,
        # N(X, Y) = 2[chi(T, x, Y) - chi(T, y, X)] + 2P chi(kappa, X, Y)
        #   + g(kappa, X)Y - g(kappa, Y)X + g(kappa, IY)IX - g(kappa, IX)IY.
        # The routes apply the product rule in different places, which the
        # spectral derivative obeys only to resolution; at N = 512 that gap
        # is rounding
        rng = np.random.default_rng(seed)
        loop = random_loop(rng, 512, 5)
        X, Y = (random_normal_field(rng, loop, 5) for _ in range(2))
        T, v = loop.unit_tangent, loop.speeds[:, None]

        def g(a, b):
            return np.einsum("ni,ni->n", a, b)[:, None]

        def chi(a, b, c):
            return cross_field(g2, a, cross_field(g2, b, c)) + g(a, b) * c - g(a, c) * b

        x, y, kappa = (normal_project(loop, spectral_derivative(F)) / v for F in (X, Y, T))
        IX, IY = acs_apply(loop, X), acs_apply(loop, Y)
        assoc = (2.0 * (chi(T, x, Y) - chi(T, y, X))
                 + 2.0 * normal_project(loop, chi(kappa, X, Y))
                 + g(kappa, X) * Y - g(kappa, Y) * X + g(kappa, IY) * IX - g(kappa, IX) * IY)
        assert rel_sup(assoc, nijenhuis_exact(KnotChart(loop), X, Y)) <= 1e-10


class TestRealOnly:
    """The knot-space operators that cast to real refuse complex fields
    instead of dropping their imaginary parts."""

    @pytest.fixture(scope="class")
    def drawn(self):
        rng = np.random.default_rng(5)
        loop = smooth_loop(rng, n=64)
        X, Y, Z = (smooth_field(rng, loop) for _ in range(3))
        return KnotChart(loop), X, Y, Z

    @pytest.mark.parametrize("op", [
        lambda chart, A, B, C: nijenhuis(chart, A, B, 1e-4),
        lambda chart, A, B, C: nijenhuis_exact(chart, A, B),
        lambda chart, A, B, C: d_omega(chart, A, B, C),
        lambda chart, A, B, C: d_omega_fd(chart, A, B, C, 1e-4),
        lambda chart, A, B, C: chart_bracket(chart, lambda u: A, lambda u: B, 1e-4),
    ], ids=["nijenhuis", "nijenhuis_exact", "d_omega", "d_omega_fd", "chart_bracket"])
    def test_complex_field_is_refused(self, drawn, op):
        chart, X, Y, Z = drawn
        for args in [(X + 1j * Y, Y, Z), (X, Y + 1j * Z, Z)]:
            with pytest.raises(ValueError, match="complex"):
                op(chart, *args)
