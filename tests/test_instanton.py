"""Instanton conditions on constant curvature samples and the equivalence
with the vanishing of the lifted curvature trace along knots."""

import numpy as np
import pytest

from g2knot.algebra import two_form_decompose, two_form_operator_matrix
from g2knot.errors import ZeroCurvature
from g2knot.forms import AltForm, contract
from g2knot.instanton import (CurvatureSample, is_g2_instanton,
                              lifted_curvature_type_residual)
from g2knot.verify import random_loop

GEN = np.array([[0.0, 1.0], [-1.0, 0.0]])


@pytest.fixture(scope="module")
def loops():
    rng = np.random.default_rng(5)
    return [random_loop(rng, 256) for _ in range(10)]


class TestCurvatureSample:
    def test_validation(self):
        form = AltForm.from_terms(2, {(0, 1): 1.0})
        with pytest.raises(ValueError):
            CurvatureSample(AltForm(3), GEN)
        with pytest.raises(ValueError):
            CurvatureSample(form, np.eye(2))  # not skew
        with pytest.raises(ValueError):
            CurvatureSample(form, np.zeros((2, 2)))  # zero generator
        with pytest.raises(ValueError):
            CurvatureSample(form, np.zeros((5, 5)))  # too large


class TestInstantonFlag:
    def test_fourteen_part_basis_is_instanton(self, g2, rng):
        # project a random form onto the -1 eigenspace via the operator
        L = two_form_operator_matrix(g2)
        c = rng.standard_normal(21)
        c14 = (2.0 * c - L @ c) / 3.0
        flag, residual = is_g2_instanton(g2, CurvatureSample(AltForm(2, c14), GEN))
        assert flag and residual < 1e-12

    def test_seven_part_is_not(self, g2):
        form = contract(g2.rho, np.eye(7)[0])
        flag, residual = is_g2_instanton(g2, CurvatureSample(form, GEN))
        assert not flag
        assert residual == pytest.approx(1.0, abs=1e-12)

    def test_mixed_residual_matches_decomposition(self, g2, rng):
        beta = AltForm(2, rng.standard_normal(21))
        beta7, _ = two_form_decompose(g2, beta)
        _, residual = is_g2_instanton(g2, CurvatureSample(beta, GEN))
        assert residual == pytest.approx(beta7.norm() / beta.norm(), rel=1e-12)

    def test_zero_curvature_guard(self, g2):
        with pytest.raises(ZeroCurvature):
            is_g2_instanton(g2, CurvatureSample(AltForm(2), GEN))


class TestLiftedResidual:
    def test_fourteen_part_vanishes_along_loops(self, g2, loops, rng):
        L = two_form_operator_matrix(g2)
        c = rng.standard_normal(21)
        c14 = (2.0 * c - L @ c) / 3.0
        res = lifted_curvature_type_residual(CurvatureSample(AltForm(2, c14), GEN), loops)
        assert res < 1e-8

    def test_seven_part_is_visible(self, g2, loops):
        form = contract(g2.rho, np.eye(7)[0])
        res = lifted_curvature_type_residual(CurvatureSample(form, GEN), loops)
        assert res > 0.1

    def test_equivalence_battery(self, g2, loops, rng):
        weights = [0.0, 1e-3, 1.0]
        for i in range(50):
            beta = AltForm(2, rng.standard_normal(21))
            beta7, beta14 = two_form_decompose(g2, beta)
            w = weights[i % 3]
            sample = CurvatureSample(AltForm(2, beta14.coeffs + w * beta7.coeffs), GEN)
            flag, _ = is_g2_instanton(g2, sample)
            lifted = lifted_curvature_type_residual(sample, loops)
            assert flag == (lifted < 1e-6)

    def test_zero_curvature_guard(self, g2, loops):
        with pytest.raises(ZeroCurvature):
            lifted_curvature_type_residual(CurvatureSample(AltForm(2), GEN), loops)

    def test_empty_ensemble_rejected(self, g2):
        form = contract(g2.rho, np.eye(7)[0])
        with pytest.raises(ValueError):
            lifted_curvature_type_residual(CurvatureSample(form, GEN), [])
