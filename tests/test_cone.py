"""Cone classification, exact signatures, level normalization, tangent
frames, and the Hodge metric."""

import warnings
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kcurv import fixtures
from kcurv.cone import (
    CLASSES,
    CODE_DEGENERATE,
    INDEX_CONE,
    OUTSIDE,
    POSITIVE_ONLY,
    char_poly_exact,
    classify,
    classify_exact,
    classify_many,
    exact_signature,
    signature_codes,
    metric,
    metric_gram,
    normalize_to_level,
    orthonormal_frame,
    tangent_basis,
)
from kcurv.errors import (
    NearDegenerate,
    NonFiniteInput,
    NonpositiveValue,
    NotInIndexCone,
    ZeroGradient,
    ZeroVector,
)
from kcurv.symform import Form

XYZ6 = fixtures.triple_product()
NODAL = fixtures.nodal_cubic()
LOR3 = fixtures.lorentzian(3)
DIAG = fixtures.diagonal(3, 3)


class TestClassify:
    def test_triple_product_identity_point(self):
        cp = classify(XYZ6, [1.0, 1.0, 1.0])
        assert cp.classification == INDEX_CONE
        assert cp.signature == (1, 2)
        eigs = np.sort(np.linalg.eigvalsh(cp.Q))
        assert np.allclose(eigs, [-1.0, -1.0, 2.0])

    def test_nodal_index_point(self):
        cp = classify(NODAL, [1.0, -0.5, 0.1])
        assert cp.classification == INDEX_CONE and not cp.flipped

    def test_positive_cone_only(self):
        # nodal at (1,1,1): F = 1 > 0 but wrong signature
        cp = classify(NODAL, [1.0, 1.0, 1.0])
        assert cp.classification == POSITIVE_ONLY

    def test_outside(self):
        cp = classify(LOR3, [0.1, 1.0, 0.0])
        assert cp.classification == OUTSIDE

    def test_antipodal_flip_odd_degree(self):
        cp = classify(XYZ6, [-1.0, -1.0, -1.0])
        assert cp.flipped and cp.classification == INDEX_CONE
        assert np.allclose(cp.x, [1.0, 1.0, 1.0])

    def test_no_flip_even_degree(self):
        cp = classify(LOR3, [-2.0, 0.0, 0.0])
        assert not cp.flipped and cp.classification == INDEX_CONE

    def test_zero_vector(self):
        with pytest.raises(ZeroVector):
            classify(XYZ6, [0.0, 0.0, 0.0])

    def test_near_degenerate_raises(self):
        # on the wall x = 0 of the triple product cone the Hessian drops rank
        with pytest.raises(NearDegenerate):
            classify(XYZ6, [0.0, 1.0, 1.0])

    @given(st.floats(min_value=0.1, max_value=10.0))
    @settings(max_examples=25, deadline=None)
    def test_scale_invariance(self, s):
        a = classify(XYZ6, [1.0, 2.0, 3.0])
        b = classify(XYZ6, [s, 2.0 * s, 3.0 * s])
        assert a.classification == b.classification
        assert a.signature == b.signature

    @given(st.integers(min_value=-3, max_value=3),
           st.integers(min_value=-3, max_value=3),
           st.integers(min_value=-3, max_value=3))
    @settings(max_examples=40, deadline=None)
    def test_antipodal_consistency_random(self, a, b, c):
        if a == b == c == 0:
            return
        x = np.array([a, b, c], dtype=float)
        try:
            p = classify(NODAL, x)
            m = classify(NODAL, -x)
        except NearDegenerate:
            return
        assert p.classification == m.classification
        assert p.flipped != m.flipped or p.classification == OUTSIDE or (
            NODAL.eval(x) == 0)


class TestClassifyMany:
    """classify_many agrees row by row with classify, bit for bit."""

    @pytest.mark.parametrize("F", [NODAL, XYZ6, fixtures.lorentzian(4),
                                   fixtures.hermitian_det(3)],
                             ids=["nodal", "xyz", "lorentzian4", "hermdet3"])
    def test_rows_match_classify(self, F, rng):
        X = rng.normal(size=(60, F.dim))
        X[7] = 0.0                          # the zero vector
        X[11] = -X[10]                      # an antipodal pair
        if F is XYZ6:
            X[12] = [0.0, 1.0, 1.0]         # on the wall: the Hessian drops rank
            X[13] = [0.0, -2.0, 1.5]
        batch = classify_many(F, X)
        codes = set()
        for i, x in enumerate(X):
            codes.add(int(batch.code[i]))
            try:
                cp = classify(F, x)
            except (NearDegenerate, ZeroVector):
                assert batch.code[i] == CODE_DEGENERATE
                continue
            assert CLASSES[batch.code[i]] == cp.classification
            assert np.array_equal(batch.x[i], cp.x)
            assert batch.value[i] == cp.value
            assert np.array_equal(batch.Q[i], cp.Q)
            assert (batch.npos[i], batch.nneg[i]) == cp.signature
            assert bool(batch.flipped[i]) == cp.flipped
        assert CODE_DEGENERATE in codes
        if F.degree % 2:
            assert batch.flipped.any() and not batch.flipped.all()

    def test_wall_rows_are_degenerate(self):
        batch = classify_many(XYZ6, [[0.0, 1.0, 1.0], [1.0, 1.0, 1.0], [0.0, 0.0, 0.0]])
        assert [CLASSES[c] for c in batch.code] == ["near_degenerate", INDEX_CONE,
                                                     "near_degenerate"]

    def test_flip_applied_to_rows(self):
        batch = classify_many(XYZ6, [[-1.0, -1.0, -1.0], [1.0, 2.0, 3.0]])
        assert batch.flipped.tolist() == [True, False]
        assert np.array_equal(batch.x, [[1.0, 1.0, 1.0], [1.0, 2.0, 3.0]])
        assert (batch.value > 0).all()

    def test_non_finite_rows_are_degenerate(self, rng):
        # one NaN or infinite row must not sink the batch; finite rows keep
        # their bits
        F = fixtures.cicy1_form()
        X = np.abs(rng.normal(size=(6, 3)))
        X[1, 0] = np.nan
        X[3] = [np.inf, 1.0, 1.0]
        X[4, 2] = -np.inf
        finite = [0, 2, 5]
        batch = classify_many(F, X)
        ref = classify_many(F, X[finite])
        assert batch.code.tolist() == [0, CODE_DEGENERATE, 0, CODE_DEGENERATE,
                                       CODE_DEGENERATE, 0]
        assert np.array_equal(batch.code[finite], ref.code)
        assert np.array_equal(batch.Q[finite], ref.Q)
        assert np.array_equal(batch.npos[finite], ref.npos)
        assert np.array_equal(batch.nneg[finite], ref.nneg)

    @pytest.mark.parametrize("F,row", [(NODAL, [1.0, -np.inf, 1.0]),
                                       (LOR3, [np.inf, np.inf, 1.0])],
                             ids=["nodal", "lorentzian3"])
    def test_infinite_row_does_not_warn(self, F, row):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            batch = classify_many(F, np.array([row, [2.0, 1.0, 0.5]]))
        assert batch.code[0] == CODE_DEGENERATE

    def test_signature_codes_scale_invariant(self):
        Q = np.array([[[2.0, 0.0], [0.0, -1.0]], [[1.0, 0.0], [0.0, 1e-12]],
                      [[np.nan, 0.0], [0.0, -1.0]]])
        code, npos, nneg = signature_codes(np.ones(3), Q)
        assert code.tolist() == [0, CODE_DEGENERATE, CODE_DEGENERATE]
        assert np.array_equal(signature_codes(np.ones(3), 1e6 * Q)[0], code)
        assert (npos.tolist(), nneg.tolist()) == ([1, 1, 0], [1, 0, 0])

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_classify_names_non_finite_point(self, bad):
        for fn in (classify, normalize_to_level):
            with pytest.raises(NonFiniteInput, match=r"non-finite point \[.*, 1.0, 1.0\]"):
                fn(fixtures.cicy1_form(), [bad, 1.0, 1.0])

    def test_rejects_single_point_and_low_degree(self):
        with pytest.raises(ValueError):
            classify_many(XYZ6, [1.0, 1.0, 1.0])
        with pytest.raises(ValueError):
            classify_many(Form(1, 2, {(1, 0): 1}), [[1.0, 0.0]])


class TestExactRoutes:
    def test_char_poly_known(self):
        M = [[Fraction(2), Fraction(0)], [Fraction(0), Fraction(3)]]
        # det(tI - M) = t^2 - 5t + 6, ascending: [6, -5, 1]
        assert char_poly_exact(M) == [Fraction(6), Fraction(-5), Fraction(1)]

    def test_exact_signature_cases(self):
        D = lambda *d: [[Fraction(v) if i == j else Fraction(0)
                         for j, v in enumerate(d)] for i, _ in enumerate(d)]
        assert exact_signature(D(1, -1, -1)) == (1, 2, 0)
        assert exact_signature(D(1, 1, 0)) == (2, 0, 1)
        assert exact_signature(D(0, 0, 0)) == (0, 0, 3)
        assert exact_signature(D(-2, 5, 7)) == (2, 1, 0)

    def test_exact_signature_nondiagonal(self):
        M = [[Fraction(0), Fraction(1)], [Fraction(1), Fraction(0)]]
        assert exact_signature(M) == (1, 1, 0)

    def test_classify_exact_matches_float(self):
        p = [Fraction(1), Fraction(-1, 2), Fraction(1, 10)]
        ec = classify_exact(NODAL, p)
        assert ec.classification == INDEX_CONE
        assert ec.signature == (1, 2, 0)

    def test_classify_exact_boundary_honest_zero(self):
        ec = classify_exact(XYZ6, [Fraction(0), Fraction(1), Fraction(1)])
        assert ec.signature[2] > 0

    def test_classify_exact_rejects_floats(self):
        with pytest.raises(TypeError):
            classify_exact(XYZ6, [1.0, 1.0, 1.0])


class TestNormalize:
    def test_scales_to_level_one(self):
        xn = normalize_to_level(XYZ6, np.array([2.0, 1.0, 1.0]))
        assert abs(XYZ6.eval(xn) - 1.0) < 1e-14

    def test_flips_odd_degree(self):
        xn = normalize_to_level(XYZ6, np.array([-2.0, -1.0, -1.0]))
        assert xn[0] > 0 and abs(XYZ6.eval(xn) - 1.0) < 1e-14

    def test_nonpositive_value(self):
        with pytest.raises(NonpositiveValue):
            normalize_to_level(LOR3, np.array([0.1, 1.0, 0.0]))


class TestTangentAndMetric:
    def test_tangent_basis_annihilates_gradient(self, rng):
        x = rng.exponential(1.0, 3) + 0.1
        B = tangent_basis(XYZ6, x)
        g = np.asarray(XYZ6.gradient(x), dtype=float)
        assert B.shape == (2, 3)
        assert np.allclose(B @ g, 0.0, atol=1e-12)
        assert np.allclose(B @ B.T, np.eye(2), atol=1e-12)

    def test_tangent_basis_zero_gradient(self):
        with pytest.raises(ZeroGradient):
            tangent_basis(Form(3, 3, {(3, 0, 0): 1}), [0.0, 1.0, 0.0])

    def test_metric_exact_and_float_agree(self):
        x = [Fraction(1), Fraction(1), Fraction(1)]
        L = [Fraction(1), Fraction(-1), Fraction(0)]
        exact = metric(XYZ6, x, L, L)
        approx = metric(XYZ6, [1.0, 1.0, 1.0], np.array([1.0, -1.0, 0]),
                        np.array([1.0, -1.0, 0]))
        assert isinstance(exact, Fraction)
        assert abs(float(exact) - approx) < 1e-12

    def test_lorentzian_metric_value(self):
        # G(e1, e1) = -H_11/2 = 1 at the apex point
        assert metric(LOR3, [Fraction(1), 0, 0], [0, Fraction(1), 0],
                      [0, Fraction(1), 0]) == 1

    def test_metric_gram_spd_inside_cone(self, rng):
        x = normalize_to_level(XYZ6, rng.exponential(1.0, 3) + 0.1)
        B = tangent_basis(XYZ6, x)
        G = metric_gram(XYZ6, x, B)
        eig = np.linalg.eigvalsh(G)
        assert eig[0] > 0

    def test_orthonormal_frame(self):
        x = normalize_to_level(XYZ6, np.array([1.0, 2.0, 0.7]))
        fr = orthonormal_frame(XYZ6, x)
        G = metric_gram(XYZ6, x, fr.vectors)
        assert np.allclose(G, np.eye(2), atol=1e-10)
        g = np.asarray(XYZ6.gradient(x))
        assert np.allclose(fr.vectors @ g, 0.0, atol=1e-10)

    def test_orthonormal_frame_seed_mixing_stays_orthonormal(self):
        x = normalize_to_level(XYZ6, np.array([1.0, 2.0, 0.7]))
        fr = orthonormal_frame(XYZ6, x, seed=5)
        G = metric_gram(XYZ6, x, fr.vectors)
        assert np.allclose(G, np.eye(2), atol=1e-10)

    def test_orthonormal_frame_outside_cone(self):
        with pytest.raises(NotInIndexCone):
            orthonormal_frame(NODAL, np.array([1.0, 1.0, 1.0]))

    def test_diagonal_interior_frame(self):
        x = normalize_to_level(DIAG, np.array([2.0, 1.0, 1.0]))
        fr = orthonormal_frame(DIAG, x)
        assert fr.vectors.shape == (2, 3)
