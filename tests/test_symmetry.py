"""G2 equivariance of the closed-form operators, and the sample-roll and
orientation-reversal rules of the knot-space operators.

G2 is the stabilizer of phi0 and its Lie algebra is Lambda^2_14, so R = exp(A)
with A the Lambda^2_14 part of a 2-form lies in G2. Rotating every loop and
field by R must leave each scalar output unchanged and rotate each vector
output by R. A generic rotation Q of SO(7), the exponential of a whole 2-form,
must break every operator that reads phi0 or psi0; the operators that read
only the metric commute with it too.

The finite-difference routes are left out of the rotation tests: _centered
scales its step by the largest component, which a rotation changes, so they
agree only to about 1e-8. The Cartan pairing is in: it is the closed form
Omega(X_N, Y_N, N(Z, T))/4 and takes no step. d_omega is left out because it
vanishes identically, so no rotation breaks it.

Rolling the samples relabels them, which every operator must commute with.
Reversing the orientation (samples j -> -j, so t = 0 stays) flips the unit
tangent: omega and I change sign, while G and the Nijenhuis tensor, which
reads I twice, do not.
"""

from types import SimpleNamespace

import numpy as np
import pytest

from g2knot import algebra, knots, twistor, verify
from g2knot.algebra import (hermitian_trace_vector, is_associative, standard_g2,
                            two_form_decompose)
from g2knot.forms import AltForm
from g2knot.loops import Loop7
from g2knot.verify import random_loop, random_normal_field

N = 512
EQUIVARIANT = 1e-10  # largest relative change under R in G2
BROKEN = 1e-2        # least relative change under Q where Q can break the operator


def expm_skew(A):
    """exp(A) of a real skew matrix, from the eigenvectors of the Hermitian iA."""
    w, V = np.linalg.eigh(1j * A)
    return ((V * np.exp(-1j * w)) @ V.conj().T).real


@pytest.fixture(scope="module")
def c():
    g2 = standard_g2()
    rng = np.random.default_rng(7)
    beta = AltForm(2, rng.standard_normal(21))
    loop = random_loop(rng, N)
    lift = twistor.lknot_lift(loop)
    return SimpleNamespace(
        g2=g2,
        R=expm_skew(two_form_decompose(g2, beta)[1].tensor()),
        Q=expm_skew(beta.tensor()),
        loop=loop,
        loop_fields=[random_normal_field(rng, loop) for _ in range(2)],
        lift_fields=[random_normal_field(rng, lift.base) for _ in range(3)],
        two_form=AltForm(2, rng.standard_normal(21)).tensor(),
        triples=rng.standard_normal((3, 16, 7)),
    )


def on_loop(c, M):
    """The loop and its two normal fields, rotated by M."""
    return Loop7(c.loop.samples @ M.T), *(F @ M.T for F in c.loop_fields)


def on_lift(c, M):
    """The tangent lift of the rotated loop and three normal fields on it."""
    return twistor.lknot_lift(Loop7(c.loop.samples @ M.T)), *(F @ M.T for F in c.lift_fields)


def omega(c, M):
    return knots.omega(*on_loop(c, M))


def hermitian_metric(c, M):
    return knots.hermitian_metric(*on_loop(c, M))


def acs_apply(c, M):
    loop, X, _ = on_loop(c, M)
    return knots.acs_apply(loop, X)


def nijenhuis_exact(c, M):
    loop, X, Y = on_loop(c, M)
    return knots.nijenhuis_exact(knots.KnotChart(loop), X, Y)


def lift_tangent(c, M):
    lift, U, _, _ = on_lift(c, M)
    split = twistor.lift_tangent(lift, U)
    return np.stack([split.vertical, split.horizontal])


def omega3_eval(c, M):
    lift, *fields = on_lift(c, M)
    return twistor.omega3_eval(lift, *fields)


def rho_star_covector(c, M):
    return algebra.rho_star_covector(c.g2, *(F @ M.T for F in c.lift_fields))


def cartan_check(c, M):
    lift, U, V, W = on_lift(c, M)
    return twistor.cartan_check(lift, U, V, W, U)


def nondegeneracy_table(c, M):
    # rows and columns are indexed by the basis vectors e_j, which stay fixed:
    # rotating the inputs by M turns the table into M table M^t
    lift, U, _, _ = on_lift(c, M)
    return M.T @ verify._nondegeneracy_table(lift, U)[0] @ M


def trace_vector(c, M):
    rotated = M @ c.two_form @ M.T
    return hermitian_trace_vector(c.g2, AltForm(2, rotated[np.triu_indices(7, 1)]))


def calibration(c, M):
    return is_associative(c.g2, *(v @ M.T for v in c.triples))[1]


# (operator of the inputs rotated by M, whether its output rotates with M)
READS_G2 = [
    (omega, False),
    (acs_apply, True),
    (nijenhuis_exact, True),
    (omega3_eval, False),
    (rho_star_covector, True),
    (cartan_check, False),
    (nondegeneracy_table, False),
    (trace_vector, True),
    (calibration, False),
]
METRIC_ONLY = [
    (hermitian_metric, False),
    (lift_tangent, True),
]


def relative_change(c, op, M, covariant):
    """max |op(M inputs) - expected| / max |expected|, where expected is
    op(inputs), rotated by M when the output is a vector."""
    before = np.asarray(op(c, np.eye(7)))
    expected = before @ M.T if covariant else before
    return np.abs(np.asarray(op(c, M)) - expected).max() / np.abs(expected).max()


def ids(rows):
    return [row[0].__name__ for row in rows]


def test_rotations(c):
    rho = c.g2.rho_tensor
    for M in (c.R, c.Q):
        assert np.abs(M.T @ M - np.eye(7)).max() < 1e-13
        assert np.linalg.det(M) == pytest.approx(1.0, abs=1e-12)
    assert np.abs(np.einsum("ai,bj,ck,ijk->abc", c.R, c.R, c.R, rho) - rho).max() < 1e-13
    assert np.abs(np.einsum("ai,bj,ck,ijk->abc", c.Q, c.Q, c.Q, rho) - rho).max() > 0.1


@pytest.mark.parametrize("op, covariant", READS_G2 + METRIC_ONLY, ids=ids(READS_G2 + METRIC_ONLY))
def test_g2_rotation_commutes(c, op, covariant):
    assert relative_change(c, op, c.R, covariant) <= EQUIVARIANT


@pytest.mark.parametrize("op, covariant", READS_G2, ids=ids(READS_G2))
def test_generic_rotation_breaks(c, op, covariant):
    assert relative_change(c, op, c.Q, covariant) >= BROKEN


@pytest.mark.parametrize("op, covariant", METRIC_ONLY, ids=ids(METRIC_ONLY))
def test_metric_operators_commute_with_every_rotation(c, op, covariant):
    assert relative_change(c, op, c.Q, covariant) <= EQUIVARIANT


SEEDS = (7, 8, 410)
CLOSED_FORM = 1e-10  # largest relative change of a closed form under the rule
FD = 1e-8            # the same for the finite-difference Nijenhuis tensor
TRANSFORMS = {
    "roll": lambda A: np.roll(A, 37, axis=0),
    "reversal": lambda A: np.roll(A[::-1], 1, axis=0),
}
# (operator of a loop and two normal fields, its sign under reversal, bound)
SAMPLE_RULES = [
    (knots.omega, -1.0, CLOSED_FORM),
    (knots.hermitian_metric, 1.0, CLOSED_FORM),
    (lambda loop, X, Y: knots.acs_apply(loop, X), -1.0, CLOSED_FORM),
    (lambda loop, X, Y: knots.nijenhuis_exact(knots.KnotChart(loop), X, Y), 1.0, CLOSED_FORM),
    (lambda loop, X, Y: knots.nijenhuis(knots.KnotChart(loop), X, Y, 1e-4), 1.0, FD),
]
SAMPLE_IDS = ["omega", "hermitian_metric", "acs_apply", "nijenhuis_exact", "nijenhuis"]


@pytest.fixture(scope="module", params=SEEDS)
def drawn(request):
    rng = np.random.default_rng(request.param)
    loop = random_loop(rng, N)
    return loop, random_normal_field(rng, loop), random_normal_field(rng, loop)


@pytest.mark.parametrize("transform", list(TRANSFORMS))
@pytest.mark.parametrize("op, reversal_sign, bound", SAMPLE_RULES, ids=SAMPLE_IDS)
def test_sample_transform_rule(drawn, transform, op, reversal_sign, bound):
    """op on the transformed samples and fields equals sign times the
    transformed op, and the opposite sign is off by at least the output's
    size, so the check cannot pass on a vanishing output."""
    T = TRANSFORMS[transform]
    loop, X, Y = drawn
    before = op(loop, X, Y)
    after = op(Loop7(T(loop.samples)), T(X), T(Y))
    expected = T(before) if np.ndim(before) else before
    sign = reversal_sign if transform == "reversal" else 1.0
    scale = np.abs(expected).max()
    assert np.abs(after - sign * expected).max() <= bound * scale
    assert np.abs(after + sign * expected).max() >= scale
