"""Instanton conditions on constant curvature 2-forms and the equivalence
with the vanishing of the lifted curvature trace along knots."""

from types import SimpleNamespace

import numpy as np
import pytest

from g2knot.algebra import two_form_decompose, two_form_operator_matrix
from g2knot.errors import ZeroCurvature
from g2knot.forms import AltForm, contract
from g2knot.instanton import is_g2_instanton, lifted_curvature_type_residual
from g2knot.verify import random_loop

# nonzero, so that the degree check is reached before the zero-curvature guard
THREE_FORM = AltForm.from_terms(3, {(0, 1, 2): 1.0})


@pytest.fixture(scope="module")
def loops():
    rng = np.random.default_rng(5)
    return [random_loop(rng, 256) for _ in range(10)]


class TestInstantonFlag:
    def test_fourteen_part_basis_is_instanton(self, g2, rng):
        # project a random form onto the -1 eigenspace via the operator
        L = two_form_operator_matrix(g2)
        c = rng.standard_normal(21)
        c14 = (2.0 * c - L @ c) / 3.0
        flag, residual = is_g2_instanton(g2, AltForm(2, c14))
        assert flag and residual < 1e-12

    def test_seven_part_is_not(self, g2):
        form = contract(g2.rho, np.eye(7)[0])
        flag, residual = is_g2_instanton(g2, form)
        assert not flag
        assert residual == pytest.approx(1.0, abs=1e-12)

    def test_mixed_residual_matches_decomposition(self, g2, rng):
        beta = AltForm(2, rng.standard_normal(21))
        beta7, _ = two_form_decompose(g2, beta)
        _, residual = is_g2_instanton(g2, beta)
        assert residual == pytest.approx(beta7.norm() / beta.norm(), rel=1e-12)

    def test_zero_curvature_guard(self, g2):
        with pytest.raises(ZeroCurvature):
            is_g2_instanton(g2, AltForm(2))

    def test_non_two_form_rejected(self, g2):
        with pytest.raises(ValueError, match="2-form"):
            is_g2_instanton(g2, THREE_FORM)


class TestLiftedResidual:
    def test_fourteen_part_vanishes_along_loops(self, g2, loops, rng):
        L = two_form_operator_matrix(g2)
        c = rng.standard_normal(21)
        c14 = (2.0 * c - L @ c) / 3.0
        res = lifted_curvature_type_residual(AltForm(2, c14), loops)
        assert res < 1e-8

    def test_seven_part_is_visible(self, g2, loops):
        form = contract(g2.rho, np.eye(7)[0])
        res = lifted_curvature_type_residual(form, loops)
        assert res > 0.1

    def test_equivalence_battery(self, g2, loops, rng):
        weights = [0.0, 1e-3, 1.0]
        for i in range(50):
            beta = AltForm(2, rng.standard_normal(21))
            beta7, beta14 = two_form_decompose(g2, beta)
            w = weights[i % 3]
            form = AltForm(2, beta14.coeffs + w * beta7.coeffs)
            flag, _ = is_g2_instanton(g2, form)
            lifted = lifted_curvature_type_residual(form, loops)
            assert flag == (lifted < 1e-6)

    def test_nan_on_a_later_loop_is_kept(self, g2, loops):
        # a builtin max over loops would return the first loop's value
        form = contract(g2.rho, np.eye(7)[0])
        bad = SimpleNamespace(unit_tangent=np.full((8, 7), np.nan))
        assert np.isnan(lifted_curvature_type_residual(form, [loops[0], bad]))

    def test_zero_curvature_guard(self, g2, loops):
        with pytest.raises(ZeroCurvature):
            lifted_curvature_type_residual(AltForm(2), loops)

    def test_non_two_form_rejected(self, loops):
        with pytest.raises(ValueError, match="2-form"):
            lifted_curvature_type_residual(THREE_FORM, loops)

    def test_empty_ensemble_rejected(self, g2):
        form = contract(g2.rho, np.eye(7)[0])
        with pytest.raises(ValueError):
            lifted_curvature_type_residual(form, [])
