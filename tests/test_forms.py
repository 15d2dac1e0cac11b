"""Exterior algebra on R^7: storage, evaluation, wedge, contraction, Hodge star."""

import itertools

import numpy as np
import pytest

from g2knot.forms import AltForm, contract, hodge_star, multi_indices, wedge


def random_form(rng, degree):
    return AltForm(degree, rng.standard_normal(len(multi_indices(degree))))


def test_from_terms_antisymmetry():
    a = AltForm.from_terms(2, {(0, 1): 1.0})
    b = AltForm.from_terms(2, {(1, 0): -1.0})
    assert np.allclose(a.coeffs, b.coeffs)
    assert a[(0, 1)] == 1.0
    assert a[(1, 0)] == -1.0
    assert a[(1, 1)] == 0.0


def test_from_terms_rejects_repeated_index():
    with pytest.raises(ValueError):
        AltForm.from_terms(2, {(1, 1): 1.0})


def test_evaluation_matches_tensor_contraction(rng):
    for degree in (1, 2, 3, 4):
        form = random_form(rng, degree)
        vecs = rng.standard_normal((degree, 7))
        via_call = form(*vecs)
        t = form.tensor()
        for v in vecs:
            t = np.tensordot(t, v, axes=([0], [0]))
        assert float(t) == pytest.approx(via_call)


def test_evaluation_antisymmetry(rng):
    form = random_form(rng, 3)
    u, v, w = rng.standard_normal((3, 7))
    assert form(u, v, w) == pytest.approx(-form(v, u, w))
    assert form(u, u, w) == pytest.approx(0.0, abs=1e-14)


def test_wedge_graded_commutativity(rng):
    for k, l in [(1, 1), (1, 2), (2, 2), (2, 3), (3, 3)]:
        a = random_form(rng, k)
        b = random_form(rng, l)
        ab = wedge(a, b)
        ba = wedge(b, a)
        assert np.allclose(ab.coeffs, (-1.0) ** (k * l) * ba.coeffs)


def test_wedge_against_determinant_oracle(rng):
    # (a ∧ b)(x, y) = a(x) b(y) - a(y) b(x) for 1-forms
    a = random_form(rng, 1)
    b = random_form(rng, 1)
    x, y = rng.standard_normal((2, 7))
    expected = a(x) * b(y) - a(y) * b(x)
    assert wedge(a, b)(x, y) == pytest.approx(expected)


def test_contract_is_evaluation_in_first_slot(rng):
    form = random_form(rng, 3)
    x, u, v = rng.standard_normal((3, 7))
    assert contract(form, x)(u, v) == pytest.approx(form(x, u, v))


def test_contract_squares_to_zero(rng):
    form = random_form(rng, 4)
    x = rng.standard_normal(7)
    assert np.allclose(contract(contract(form, x), x).coeffs, 0.0, atol=1e-14)


def test_hodge_star_involution_euclidean(rng):
    # on an odd-dimensional Riemannian space ** = id in every degree
    eye = np.eye(7)
    for degree in range(8):
        form = random_form(rng, degree)
        twice = hodge_star(hodge_star(form, eye, 1.0), eye, 1.0)
        assert np.allclose(twice.coeffs, form.coeffs, atol=1e-12)


def test_hodge_star_basis_example():
    star = hodge_star(AltForm.from_terms(2, {(0, 1): 1.0}), np.eye(7), 1.0)
    expected = AltForm.from_terms(5, {(2, 3, 4, 5, 6): 1.0})
    assert np.allclose(star.coeffs, expected.coeffs)


def test_hodge_star_defining_property(rng):
    # beta ∧ *a = <beta, a> vol for same-degree forms (Euclidean metric)
    a = random_form(rng, 3)
    beta = random_form(rng, 3)
    lhs = wedge(beta, hodge_star(a, np.eye(7), 1.0)).coeffs[0]
    assert lhs == pytest.approx(float(beta.coeffs @ a.coeffs))


def test_form_validation():
    with pytest.raises(ValueError):
        AltForm(8)
    with pytest.raises(ValueError):
        AltForm(2, np.zeros(5))
    with pytest.raises(ValueError):
        AltForm(2, np.full(21, np.nan))
    with pytest.raises(ValueError):
        wedge(AltForm(4), AltForm(4))


@pytest.mark.parametrize("idx", [(0, 9), (-1, 2), (0, 1, 2), (0,)],
                         ids=["out_of_range", "negative", "too_long", "too_short"])
def test_from_terms_rejects_bad_multi_index(idx):
    with pytest.raises(ValueError, match="not a degree-2 multi-index"):
        AltForm.from_terms(2, {idx: 1.0})


@pytest.mark.parametrize("idx", [(0, 9), (-1, 2), (0, 1, 2), (0,)],
                         ids=["out_of_range", "negative", "too_long", "too_short"])
def test_getitem_rejects_bad_multi_index(idx):
    a = AltForm.from_terms(2, {(0, 1): 1.0})
    assert a[(3, 3)] == 0.0
    with pytest.raises(ValueError, match="not a degree-2 multi-index"):
        a[idx]


@pytest.mark.parametrize("x", [np.ones(3), np.ones((7, 2)), np.full(7, np.nan),
                               np.r_[np.inf, np.zeros(6)]], ids=["short", "matrix", "nan", "inf"])
def test_contract_rejects_bad_vector(x):
    with pytest.raises(ValueError, match="finite"):
        contract(AltForm.from_terms(3, {(0, 1, 2): 1.0}), x)


# The loop implementation of the exterior algebra that the table-driven one
# replaced: one permutation sign per term, summed in the same order.

def ref_perm_sign(seq):
    seq = list(seq)
    if len(set(seq)) != len(seq):
        return 0
    sign = 1
    for i in range(len(seq)):
        for j in range(i + 1, len(seq)):
            if seq[i] > seq[j]:
                sign = -sign
    return sign


def ref_position(degree):
    return {idx: p for p, idx in enumerate(multi_indices(degree))}


def ref_tensor(a):
    out = np.zeros((7,) * a.degree)
    for pos, idx in enumerate(multi_indices(a.degree)):
        c = a.coeffs[pos]
        if c == 0.0:
            continue
        for perm in itertools.permutations(idx):
            out[perm] = ref_perm_sign(perm) * c
    return out


def ref_wedge(a, b):
    k, l = a.degree, b.degree
    pos_a, pos_b = ref_position(k), ref_position(l)
    out = np.zeros(len(multi_indices(k + l)))
    for pos, idx in enumerate(multi_indices(k + l)):
        acc = 0.0
        for sub in itertools.combinations(idx, k):
            rest = tuple(i for i in idx if i not in sub)
            acc += ref_perm_sign(sub + rest) * a.coeffs[pos_a[sub]] * b.coeffs[pos_b[rest]]
        out[pos] = acc
    return out


def ref_contract(a, x):
    k = a.degree
    pos_full = ref_position(k)
    out = np.zeros(len(multi_indices(k - 1)))
    for pos, idx in enumerate(multi_indices(k - 1)):
        acc = 0.0
        for i in range(7):
            if i in idx:
                continue
            full = tuple(sorted((i,) + idx))
            acc += x[i] * (-1) ** full.index(i) * a.coeffs[pos_full[full]]
        out[pos] = acc
    return out


def ref_hodge_star(a, metric, vol_coeff):
    k = a.degree
    ginv = np.linalg.inv(metric)
    raised = ref_tensor(a)
    for _ in range(k):
        raised = np.tensordot(raised, ginv, axes=([0], [0]))
    pos = ref_position(7 - k)
    out = np.zeros(len(multi_indices(7 - k)))
    for idx in multi_indices(k):
        rest = tuple(i for i in range(7) if i not in idx)
        out[pos[rest]] = ref_perm_sign(idx + rest) * raised[idx] * vol_coeff
    return out


def signed_zero_form(rng, degree):
    """A seeded form with some coefficients +0.0 and some -0.0."""
    c = rng.standard_normal(len(multi_indices(degree)))
    c[rng.random(c.size) < 0.3] = 0.0
    c[rng.random(c.size) < 0.3] = -0.0
    return AltForm(degree, c)


class TestReferenceRoute:
    """Bytewise equality with the loop implementation above, so that every
    report built on the forms stays byte-identical."""

    @pytest.mark.parametrize("degree", range(8))
    def test_tensor_and_getitem(self, degree):
        a = signed_zero_form(np.random.default_rng(degree), degree)
        t = a.tensor()
        assert t.tobytes() == ref_tensor(a).tobytes()
        pos = ref_position(degree)
        for perm in itertools.permutations(range(7), degree):
            ref = ref_perm_sign(perm) * a.coeffs[pos[tuple(sorted(perm))]]
            assert np.float64(a[perm]).tobytes() == np.float64(ref).tobytes()

    @pytest.mark.parametrize("k,l", [(k, l) for k in range(8) for l in range(8 - k)])
    def test_wedge(self, k, l):
        rng = np.random.default_rng(10 * k + l)
        a, b = signed_zero_form(rng, k), signed_zero_form(rng, l)
        assert wedge(a, b).coeffs.tobytes() == ref_wedge(a, b).tobytes()

    @pytest.mark.parametrize("degree", range(1, 8))
    def test_contract(self, degree):
        rng = np.random.default_rng(100 + degree)
        a = signed_zero_form(rng, degree)
        x = rng.standard_normal(7)
        x[[1, 4]] = 0.0, -0.0
        assert contract(a, x).coeffs.tobytes() == ref_contract(a, x).tobytes()

    @pytest.mark.parametrize("degree", range(8))
    def test_hodge_star(self, degree):
        rng = np.random.default_rng(200 + degree)
        a = signed_zero_form(rng, degree)
        m = rng.standard_normal((7, 7))
        metric = m @ m.T + 7.0 * np.eye(7)
        for g, vol in ((np.eye(7), 1.0), (metric, 1.7)):
            assert hodge_star(a, g, vol).coeffs.tobytes() == ref_hodge_star(a, g, vol).tobytes()
