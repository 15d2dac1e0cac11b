"""G2 algebra on R^7: metric reconstruction, cross product and octonions,
pointwise complex structures, the complex 3-forms Omega_v, and the 7+14
decomposition of 2-forms with its three characterizations."""

import numpy as np
import pytest

from g2knot import algebra, knots, twistor
from g2knot.algebra import (G2Structure, Octonion, cross,
                            cross_field, complex_structure_apply,
                            hermitian_trace_vector, is_associative,
                            lie_action_on_rho, metric_from_three_form,
                            octonion_mul, omega3_integrand, rho_covector,
                            rho_field, rho_star_covector,
                            standard_g2,
                            standard_phi, two_form_decompose,
                            two_form_operator_matrix)
from g2knot.errors import DegenerateForm, DegenerateSpan, NonUnitAxis
from g2knot.forms import AltForm, contract, hodge_star, multi_indices, wedge
from g2knot.loops import integrate, spectral_derivative
from g2knot.verify import random_loop


def random_unit(rng, g2):
    v = rng.standard_normal(7)
    return v / g2.vnorm(v)


class TestMetricReconstruction:
    @pytest.fixture(scope="class")
    def derived(self):
        return metric_from_three_form(standard_phi())

    def test_standard_form_gives_identity(self, derived):
        assert np.allclose(derived.metric, np.eye(7), atol=1e-12)
        assert derived.vol_coeff == pytest.approx(1.0, abs=1e-12)

    def test_literal_standard_structure_matches_derivation(self, g2, derived):
        # standard_g2 writes its metric, volume and 4-form out; the general
        # route must land on exactly the same structure
        for name in ("metric", "metric_inv", "rho_tensor", "rho_star_tensor", "cross_tensor"):
            assert getattr(g2, name).tobytes() == getattr(derived, name).tobytes(), name
        assert g2.vol_coeff == derived.vol_coeff
        assert g2.rho.coeffs.tobytes() == derived.rho.coeffs.tobytes()
        # The Hodge route leaves 19 signed zeros among the 4-form coefficients
        # where the literal has 3, so only the values compare equal; the dense
        # tensors above agree bytewise because AltForm.tensor skips zeros.
        assert np.array_equal(g2.rho_star.coeffs, derived.rho_star.coeffs)

    def test_scaling_law(self):
        # g(lambda^3 rho) = lambda^2 g(rho)
        base = standard_g2()
        for lam in (0.5, 2.0, 3.0):
            scaled = metric_from_three_form(lam ** 3 * standard_phi())
            assert np.allclose(scaled.metric, lam ** 2 * base.metric, atol=1e-12)

    def test_four_form_consistency(self, derived):
        # rho* = *rho has the known 4-form expansion for the standard form
        expected = AltForm.from_terms(4, {
            (3, 4, 5, 6): 1.0,
            (1, 2, 5, 6): 1.0,
            (1, 2, 3, 4): 1.0,
            (0, 2, 4, 6): 1.0,
            (0, 2, 3, 5): -1.0,
            (0, 1, 4, 5): -1.0,
            (0, 1, 3, 6): -1.0,
        })
        assert np.allclose(derived.rho_star.coeffs, expected.coeffs, atol=1e-12)

    def test_degenerate_form_rejected(self):
        with pytest.raises(DegenerateForm):
            metric_from_three_form(AltForm.from_terms(3, {(0, 1, 2): 1.0}))


class TestCrossProduct:
    def test_table_examples(self, g2):
        e = np.eye(7)
        assert np.allclose(cross(g2, e[0], e[1]), e[2])
        assert np.allclose(cross(g2, e[0], e[3]), e[4])
        assert np.allclose(cross(g2, e[1], e[3]), e[5])

    def test_orthogonality_battery(self, g2, rng):
        for _ in range(1000):
            x, y = rng.standard_normal((2, 7))
            p = cross(g2, x, y)
            assert abs(g2.inner(p, x)) < 1e-12 * (1 + g2.vnorm(x) ** 2 * g2.vnorm(y))
            assert abs(g2.inner(p, y)) < 1e-12 * (1 + g2.vnorm(y) ** 2 * g2.vnorm(x))

    def test_norm_law_battery(self, g2, rng):
        # |x * y|^2 = |x|^2 |y|^2 - g(x, y)^2
        for _ in range(1000):
            x, y = rng.standard_normal((2, 7))
            lhs = g2.inner(cross(g2, x, y), cross(g2, x, y))
            rhs = g2.inner(x, x) * g2.inner(y, y) - g2.inner(x, y) ** 2
            assert lhs == pytest.approx(rhs, rel=1e-12, abs=1e-12)

    def test_double_cross_battery(self, g2, rng):
        # x * (x * y) = -|x|^2 y + g(x, y) x
        for _ in range(1000):
            x, y = rng.standard_normal((2, 7))
            lhs = cross(g2, x, cross(g2, x, y))
            rhs = -g2.inner(x, x) * y + g2.inner(x, y) * x
            assert np.allclose(lhs, rhs, atol=1e-12 * max(1.0, np.abs(rhs).max()))


class TestOctonions:
    def test_composition_battery(self, g2, rng):
        for _ in range(1000):
            a = Octonion(rng.standard_normal(7), rng.standard_normal())
            b = Octonion(rng.standard_normal(7), rng.standard_normal())
            prod = octonion_mul(a, b, g2)
            assert prod.norm() == pytest.approx(a.norm() * b.norm(), rel=1e-12)

    def test_alternativity_battery(self, g2, rng):
        # a(ab) = (aa)b
        for _ in range(1000):
            a = Octonion(rng.standard_normal(7), rng.standard_normal())
            b = Octonion(rng.standard_normal(7), rng.standard_normal())
            lhs = octonion_mul(a, octonion_mul(a, b, g2), g2)
            rhs = octonion_mul(octonion_mul(a, a, g2), b, g2)
            scale = max(1.0, np.abs(rhs.imag).max(), abs(rhs.real))
            assert np.allclose(lhs.imag, rhs.imag, atol=1e-11 * scale)
            assert lhs.real == pytest.approx(rhs.real, abs=1e-11 * scale)

    def test_imaginary_square(self, g2):
        e1 = Octonion(np.eye(7)[0], 0.0)
        sq = octonion_mul(e1, e1, g2)
        assert np.allclose(sq.imag, 0.0)
        assert sq.real == pytest.approx(-1.0)


class TestComplexStructures:
    def test_squares_to_minus_identity_battery(self, g2, rng):
        for _ in range(1000):
            v = random_unit(rng, g2)
            x = rng.standard_normal(7)
            x_perp = x - g2.inner(x, v) * v
            jx = complex_structure_apply(g2, v, x)
            jjx = complex_structure_apply(g2, v, jx)
            assert np.allclose(jjx, -x_perp, atol=1e-12 * max(1.0, np.abs(x_perp).max()))

    def test_isometry_on_perp(self, g2, rng):
        v = random_unit(rng, g2)
        x = rng.standard_normal(7)
        x_perp = x - g2.inner(x, v) * v
        jx = complex_structure_apply(g2, v, x)
        assert g2.vnorm(jx) == pytest.approx(g2.vnorm(x_perp), rel=1e-12)
        assert abs(g2.inner(jx, v)) < 1e-12

    def test_non_unit_axis_rejected(self, g2):
        with pytest.raises(NonUnitAxis):
            complex_structure_apply(g2, 2.0 * np.eye(7)[0], np.eye(7)[1])


class TestHolomorphicVolumeForm:
    """Omega_v = rho - i rho*(v, ...) through omega3_integrand, on arguments
    projected to v^perp."""

    def test_type_identity(self, g2, rng):
        # Omega_v(J_v a, b, c) = i Omega_v(a, b, c)
        for _ in range(20):
            v = random_unit(rng, g2)
            a, b, c = (x - g2.inner(x, v) * v for x in rng.standard_normal((3, 7)))
            ja = complex_structure_apply(g2, v, a)
            assert (complex(omega3_integrand(g2, v, ja, b, c))
                    == pytest.approx(1j * complex(omega3_integrand(g2, v, a, b, c)), abs=1e-10))

    def test_nondegenerate_on_perp(self, g2):
        e = np.eye(7)
        assert abs(complex(omega3_integrand(g2, e[0], e[1], e[3], e[5]))) > 0.5


class TestTwoFormDecomposition:
    def test_operator_spectrum(self, g2):
        eigvals = np.sort(np.linalg.eigvalsh(two_form_operator_matrix(g2)))
        expected = np.sort(np.concatenate([np.full(14, -1.0), np.full(7, 2.0)]))
        assert np.allclose(eigvals, expected, atol=1e-10)

    def test_decomposition_is_eigensplit(self, g2, rng):
        L = two_form_operator_matrix(g2)
        beta = AltForm(2, rng.standard_normal(21))
        beta7, beta14 = two_form_decompose(g2, beta)
        assert np.allclose(L @ beta7.coeffs, 2.0 * beta7.coeffs, atol=1e-10)
        assert np.allclose(L @ beta14.coeffs, -beta14.coeffs, atol=1e-10)
        assert np.allclose(beta7.coeffs + beta14.coeffs, beta.coeffs)

    def test_seven_part_is_contraction_image(self, g2, rng):
        x = rng.standard_normal(7)
        beta7, beta14 = two_form_decompose(g2, contract(g2.rho, x))
        assert np.allclose(beta14.coeffs, 0.0, atol=1e-12)

    def test_three_characterizations_agree(self, g2, rng):
        # decomposition vs Lie-algebra annihilator vs trace vector, 200 forms
        for _ in range(200):
            beta = AltForm(2, rng.standard_normal(21))
            beta7, beta14 = two_form_decompose(g2, beta)
            in_14 = beta7.norm() < 1e-10 * beta.norm()
            annihilates = lie_action_on_rho(g2, beta).norm() < 1e-10 * beta.norm()
            traceless = (np.linalg.norm(hermitian_trace_vector(g2, beta))
                         < 1e-10 * beta.norm())
            assert in_14 == annihilates == traceless
            # and the projected 14-part satisfies both other characterizations
            assert lie_action_on_rho(g2, beta14).norm() < 1e-10 * max(beta.norm(), 1.0)
            assert np.linalg.norm(hermitian_trace_vector(g2, beta14)) < 1e-10

    def test_trace_vector_recovers_contraction_axis(self, g2, rng):
        x = rng.standard_normal(7)
        tau = hermitian_trace_vector(g2, contract(g2.rho, x))
        assert np.allclose(tau, 3.0 * x, atol=1e-12 * max(1.0, np.abs(x).max()))


def wedge_hodge_operator(g2):
    """L = *(rho ∧ .) built column by column from wedge and Hodge star: the
    route independent of the psi slice in two_form_operator_matrix."""
    mat = np.empty((21, 21))
    for col, idx in enumerate(multi_indices(2)):
        basis = AltForm.from_terms(2, {idx: 1.0})
        image = hodge_star(wedge(g2.rho, basis), g2.metric, g2.vol_coeff)
        mat[:, col] = image.coeffs
    return mat


def pulled_back_phi(M):
    """The standard 3-form pulled back by the linear map M."""
    t = np.einsum("abc,ai,bj,ck->ijk", standard_phi().tensor(), M, M, M)
    return AltForm(3, np.array([t[idx] for idx in multi_indices(3)]))


class TestOperatorRoutes:
    @pytest.mark.parametrize("rho", [
        standard_phi(),
        8.0 * standard_phi(),
        pulled_back_phi(np.eye(7) + 0.1 * np.random.default_rng(0).standard_normal((7, 7))),
    ], ids=["standard", "scaled", "pulled_back"])
    def test_psi_slice_matches_wedge_hodge(self, rho):
        g2 = metric_from_three_form(rho)
        ref = wedge_hodge_operator(g2)
        assert np.abs(two_form_operator_matrix(g2) - ref).max() <= 1e-15 * np.abs(ref).max()

    @pytest.mark.parametrize("build", [standard_g2, lambda: metric_from_three_form(standard_phi())],
                             ids=["standard_g2", "from_three_form"])
    def test_cached_operator_is_read_only_fresh_copy(self, build):
        g2 = build()
        L = g2.two_form_operator
        assert g2.two_form_operator is L
        assert not L.flags.writeable
        assert np.array_equal(L, two_form_operator_matrix(g2))

    def test_operator_built_on_first_use(self, monkeypatch):
        g2 = metric_from_three_form(standard_phi())
        assert "two_form_operator" not in vars(g2)
        calls = []

        def counted(g2):
            calls.append(g2)
            return two_form_operator_matrix(g2)

        monkeypatch.setattr(algebra, "two_form_operator_matrix", counted)
        beta = AltForm(2, np.arange(21.0))
        for _ in range(3):
            two_form_decompose(g2, beta)
        assert calls == [g2]


def assert_rel(got, ref, tol=1e-13):
    assert np.shape(got) == np.shape(ref)
    assert np.abs(got - ref).max() <= tol * np.abs(ref).max()


class TestKernelReference:
    """The pair-product kernels against the single einsum over the dense G2
    tensor that each of them replaced."""

    N = 257

    @pytest.fixture(params=[False, True], ids=["real", "complex"])
    def draw(self, request):
        rng = np.random.default_rng(2024)

        def field(*shape):
            x = rng.standard_normal(shape)
            return x + 1j * rng.standard_normal(shape) if request.param else x
        return field

    @pytest.fixture(scope="class")
    def loop(self):
        return random_loop(np.random.default_rng(5), self.N, 5)

    def test_real_pairs_are_the_broadcast_product(self):
        # the einsum outer product repeats the broadcast product bit for bit on
        # real operands, also where one operand broadcasts over a stack, and on
        # a real v against a complex field
        rng = np.random.default_rng(11)
        pairs = [(rng.standard_normal(sa), rng.standard_normal(sb))
                 for sa, sb in [((7,), (7,)), ((self.N, 7), (self.N, 7)),
                                ((self.N, 7), (4, self.N, 7)), ((4, self.N, 7), (self.N, 7))]]
        v, re, im = (rng.standard_normal((self.N, 7)) for _ in range(3))
        pairs.append((v, re + 1j * im))
        for a, b in pairs:
            ref = a[..., :, None] * b[..., None, :]
            got = algebra._pairs(a, b)
            assert got.shape == ref.shape[:-2] + (49,)
            assert got.tobytes() == ref.tobytes()

    def test_cross_field(self, g2, draw):
        for shape in [(7,), (self.N, 7)]:
            X, Y = draw(*shape), draw(*shape)
            assert_rel(cross_field(g2, X, Y),
                       np.einsum("ijk,...i,...j->...k", g2.cross_tensor, X, Y))

    def test_rho_covector(self, g2, draw):
        # rho_field is built on the covector; the reference contracts the
        # dense tensor directly
        for shape in [(7,), (self.N, 7)]:
            A, B = draw(*shape), draw(*shape)
            assert_rel(rho_covector(g2, A, B), np.einsum("ijk,...i,...j->...k", g2.rho_tensor, A, B))

    def test_rho_star_covector(self, g2, draw):
        # the reference contracts the dense tensor directly, not through
        # rho_star_field, which is built on the covector
        for shape in [(7,), (self.N, 7)]:
            A, B, C, D = (draw(*shape) for _ in range(4))
            ref = np.einsum("ijkl,...i,...j,...k,...l->...", g2.rho_star_tensor, A, B, C, D)
            assert_rel(np.sum(A * rho_star_covector(g2, B, C, D), axis=-1), ref)

    def test_omega3_integrand(self, g2, draw, loop):
        v = loop.unit_tangent
        A, B, C = (draw(self.N, 7) for _ in range(3))
        re = np.einsum("ijk,ni,nj,nk->n", g2.rho_tensor, A, B, C)
        im = -np.einsum("ijkl,ni,nj,nk,nl->n", g2.rho_star_tensor, v, A, B, C)
        assert_rel(omega3_integrand(g2, v, A, B, C), re + 1j * im)

    def test_omega(self, g2, draw, loop):
        for shape in [(7,), (self.N, 7)]:
            # a constant X broadcasts along the loop; with Y constant too omega is 0
            X, Y = draw(*shape), draw(self.N, 7)
            vals = np.einsum("ijk,...i,...j,...k->...", g2.rho_tensor, X, Y, loop.velocity)
            assert_rel(knots.omega(loop, X, Y), integrate(loop, vals))

    def test_d_omega(self, g2, loop):
        rng = np.random.default_rng(9)
        X, Y, Z = (rng.standard_normal((self.N, 7)) for _ in range(3))

        def term(A, B, C):
            vals = np.einsum("ijk,ni,nj,nk->n", g2.rho_tensor, A, B, spectral_derivative(C))
            return integrate(loop, vals)
        ref = term(Y, Z, X) - term(X, Z, Y) + term(X, Y, Z)
        got = knots.d_omega(knots.KnotChart(loop), X, Y, Z)
        assert abs(got - ref) <= 1e-13 * max(abs(term(Y, Z, X)), abs(term(X, Y, Z)))

    def test_xi_eval(self, g2, draw, loop):
        args = [twistor.SplitTangent(draw(self.N, 7), draw(self.N, 7)) for _ in range(4)]
        ref = 0.0
        for a in range(4):
            others = [args[b] for b in range(4) if b != a]
            q = -np.einsum("ijkl,ni->njkl", g2.rho_star_tensor, args[a].vertical)
            ref = ref + (-1) ** a * np.einsum("njkl,nj,nk,nl->n", q, *(o.horizontal for o in others))
        assert_rel(twistor.xi_eval(*args), ref)


class TestAssociativePlanes:
    def test_canonical_plane(self, g2):
        e = np.eye(7)
        flag, calib = is_associative(g2, e[0], e[1], e[2])
        assert flag and calib == pytest.approx(1.0, abs=1e-12)

    def test_orientation_reversal(self, g2):
        e = np.eye(7)
        flag, calib = is_associative(g2, e[1], e[0], e[2])
        assert flag and calib == pytest.approx(-1.0, abs=1e-12)

    def test_non_associative_plane(self, g2):
        e = np.eye(7)
        flag, calib = is_associative(g2, e[0], e[1], e[3])
        assert not flag and abs(calib) < 0.5

    def test_invariant_under_span_changes(self, g2, rng):
        e = np.eye(7)
        u = 2.0 * e[0] + 0.3 * e[1]
        v = e[1] - 0.7 * e[0]
        w = e[2] + 0.1 * e[0]
        flag, calib = is_associative(g2, u, v, w)
        assert flag and calib == pytest.approx(1.0, abs=1e-10)

    def test_degenerate_span_rejected(self, g2):
        e = np.eye(7)
        with pytest.raises(DegenerateSpan):
            is_associative(g2, e[0], e[1], e[0] + e[1])


def ref_is_associative(g2, u, v, w):
    """The per-vector associativity test that the stacked one replaced, kept
    as the reference route (absolute Gram-determinant bound included)."""
    vecs = [np.asarray(u, dtype=float), np.asarray(v, dtype=float), np.asarray(w, dtype=float)]
    gram = np.array([[g2.inner(a, b) for b in vecs] for a in vecs])
    if np.linalg.det(gram) < 1e-12:
        raise DegenerateSpan("vectors do not span a 3-plane")
    ortho = []
    for a in vecs:
        for e in ortho:
            a = a - g2.inner(a, e) * e
        ortho.append(a / g2.vnorm(a))
    u1, v1, w1 = ortho
    calibration = float(rho_field(g2, u1, v1, w1))
    p = cross(g2, u1, v1)
    residual = p - sum(g2.inner(p, e) * e for e in ortho)
    return g2.vnorm(residual) < 1e-8, calibration


def associative_mix(g2, rng, m):
    """m seeded triples; every other one spans an associative plane."""
    U, V, W = rng.standard_normal((3, m, 7))
    W[::2] = cross_field(g2, U[::2], V[::2]) + rng.standard_normal((len(W[::2]), 1)) * U[::2]
    return U, V, W


class TestAssociativeStacks:
    """The stacked is_associative against the per-vector reference route."""

    @pytest.mark.parametrize("m", [1, 16, 80])
    def test_rows_match_reference(self, g2, m):
        U, V, W = associative_mix(g2, np.random.default_rng(m), m)
        flags, calibs = is_associative(g2, U, V, W)
        assert flags.shape == calibs.shape == (m,)
        for i in range(m):
            ref_flag, ref_calib = ref_is_associative(g2, U[i], V[i], W[i])
            assert flags[i] == ref_flag
            assert abs(calibs[i] - ref_calib) <= 1e-15
        assert flags[::2].all()

    def test_multi_axis_stack_matches_reference(self, g2):
        # the associative suite's shape: (calibration/control, step, point, 7)
        U, V, W = (a.reshape(2, 5, 16, 7)
                   for a in associative_mix(g2, np.random.default_rng(24), 160))
        flags, calibs = is_associative(g2, U, V, W)
        assert flags.shape == calibs.shape == (2, 5, 16)
        for i in np.ndindex(2, 5, 16):
            ref_flag, ref_calib = ref_is_associative(g2, U[i], V[i], W[i])
            assert flags[i] == ref_flag
            assert abs(calibs[i] - ref_calib) <= 1e-15
        assert flags.reshape(-1)[::2].all()

    @pytest.mark.parametrize("row", [(0, 0, 0), (0, 3, 9), (1, 4, 15)])
    def test_degenerate_row_in_multi_axis_stack_rejected(self, g2, row):
        U, V, W = (a.reshape(2, 5, 16, 7)
                   for a in associative_mix(g2, np.random.default_rng(24), 160))
        W[row] = 2.0 * U[row] - V[row]
        with pytest.raises(DegenerateSpan):
            is_associative(g2, U, V, W)

    def test_stack_broadcasts_against_one_vector(self, g2):
        rng = np.random.default_rng(7)
        U, W = rng.standard_normal((2, 16, 7))
        v = rng.standard_normal(7)
        flags, calibs = is_associative(g2, U, v, W)
        for i in range(16):
            ref_flag, ref_calib = ref_is_associative(g2, U[i], v, W[i])
            assert flags[i] == ref_flag
            assert abs(calibs[i] - ref_calib) <= 1e-15

    def test_single_triple_returns_python_scalars(self, g2):
        e = np.eye(7)
        flag, calib = is_associative(g2, e[0], e[1], e[2])
        assert type(flag) is bool and type(calib) is float

    def test_degenerate_row_in_stack_rejected(self, g2):
        U, V, W = associative_mix(g2, np.random.default_rng(3), 16)
        W[5] = 2.0 * U[5] - V[5]
        with pytest.raises(DegenerateSpan):
            is_associative(g2, U, V, W)

    def test_degeneracy_bound_is_scale_free(self, g2):
        e = np.eye(7)
        flag, calib = is_associative(g2, 1e-3 * e[0], 1e-3 * e[1], 1e-3 * e[2])
        assert flag and calib == pytest.approx(1.0, abs=1e-12)
        with pytest.raises(DegenerateSpan):
            is_associative(g2, 1e4 * e[0], 1e4 * e[1], 1e4 * (e[0] + 1e-7 * e[2]))
        with pytest.raises(DegenerateSpan):
            is_associative(g2, 0.0 * e[0], e[1], e[2])

    @pytest.mark.parametrize("message,u,v,w", [
        ("^u must", np.full(7, np.nan), np.eye(7)[1], np.eye(7)[2]),
        ("^v must", np.eye(7)[0], np.eye(7)[1][:3], np.eye(7)[2]),
        ("^w must", np.eye(7)[0], np.eye(7)[1], [np.inf] + [0.0] * 6),
        ("^u, v, w do not broadcast", np.ones((2, 7)), np.ones((3, 7)), np.eye(7)[2]),
    ], ids=["nan_u", "short_v", "inf_w", "no_broadcast"])
    def test_bad_input_rejected(self, g2, message, u, v, w):
        with pytest.raises(ValueError, match=message):
            is_associative(g2, u, v, w)


def test_acceptance_1_battery_runtime(g2, rng):
    # spot-check the battery cost stays well under the budget
    import time
    start = time.time()
    for _ in range(200):
        x, y = rng.standard_normal((2, 7))
        cross(g2, x, y)
    assert time.time() - start < 5.0
