"""Exact sparse-form arithmetic: construction, evaluation, polarization,
derivatives, Hessian determinants, coordinate changes, serialization."""

import json
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import random_form_strategy, rational_vectors
from kcurv import fixtures
from kcurv.errors import DimensionMismatch, WrongArgumentCount
from kcurv.symform import Form, StackedPolys, load_form, save_form

NODAL = Form(3, 3, {(0, 3, 0): 1, (1, 2, 0): 1, (1, 0, 2): -1})
XYZ6 = Form(3, 3, {(1, 1, 1): 6})
DIAG = Form(3, 3, {(3, 0, 0): 1, (0, 3, 0): -1, (0, 0, 3): -1})


class TestConstruction:
    def test_terms_canonicalized_and_merged(self):
        f = Form(2, 2, {(1, 1): Fraction(1, 2)})
        g = Form(2, 2, {(1, 1): 1}) * Fraction(1, 2)
        assert f == g and hash(f) == hash(g)

    def test_zero_coefficients_dropped(self):
        assert Form(2, 2, {(2, 0): 0, (1, 1): 1}).terms == {(1, 1): Fraction(1)}

    def test_wrong_total_degree_rejected(self):
        with pytest.raises(ValueError):
            Form(3, 2, {(1, 1): 1})

    def test_wrong_exponent_length_rejected(self):
        with pytest.raises(DimensionMismatch):
            Form(2, 3, {(1, 1): 1})

    def test_negative_exponent_rejected(self):
        with pytest.raises(ValueError):
            Form(2, 2, {(3, -1): 1})

    def test_arithmetic(self):
        x2 = Form(2, 2, {(2, 0): 1})
        y2 = Form(2, 2, {(0, 2): 1})
        assert (x2 + y2) - x2 == y2
        assert -(x2 - y2) == y2 - x2
        assert 3 * x2 == x2 * 3
        assert (x2 * y2).degree == 4
        assert x2 ** 3 == Form(6, 2, {(6, 0): 1})
        assert (x2 ** 0).eval_exact([Fraction(5), Fraction(7)]) == 1

    def test_product_dimension_mismatch(self):
        with pytest.raises(DimensionMismatch):
            Form(2, 2, {(2, 0): 1}) * Form(2, 3, {(2, 0, 0): 1})


class TestEvaluation:
    def test_eval_exact_matches_float(self):
        x = [Fraction(3, 7), Fraction(-2, 5), Fraction(1, 3)]
        exact = NODAL.eval_exact(x)
        approx = NODAL.eval(np.array([float(v) for v in x]))
        assert abs(float(exact) - approx) < 1e-12

    @given(random_form_strategy(3, 3), rational_vectors(3))
    @settings(max_examples=60, deadline=None)
    def test_eval_exact_vs_float_random(self, F, x):
        exact = float(F.eval_exact(x))
        approx = F.eval(np.array([float(v) for v in x]))
        assert abs(exact - approx) <= 1e-12 * max(1.0, abs(exact))

    def test_eval_batch_matches_single(self, rng):
        X = rng.normal(size=(40, 3))
        batch = NODAL.eval(X)
        single = np.array([NODAL.eval(row) for row in X])
        assert np.allclose(batch, single, atol=0, rtol=1e-15)

    def test_negative_base_integer_exponents(self):
        # even/odd powers of negative coordinates must keep their signs
        f = Form(5, 2, {(5, 0): 1, (0, 5): 1})
        assert f.eval(np.array([-2.0, -1.0])) == -33.0

    def test_stacked_polys_includes_empty_segment(self):
        zero = Form(2, 2, {})
        one = Form(2, 2, {(2, 0): 1})
        sp = StackedPolys([zero, one, zero], 2)
        out = sp.eval_many(np.array([[3.0, 1.0], [2.0, 0.0]]))
        assert out.shape == (2, 3)
        assert np.allclose(out[:, 0], 0) and np.allclose(out[:, 2], 0)
        assert np.allclose(out[:, 1], [9.0, 4.0])


def _direct_eval_many(sp, X):
    """The direct kernel: one pow per (row, term, variable), then reduceat."""
    P = np.prod(X[:, None, :] ** sp.E[None, :, :], axis=2) * sp.c
    return np.add.reduceat(P, sp.starts, axis=1)


KERNEL_FORMS = {"hermdet3": fixtures.hermitian_det(3), "cicy1": fixtures.cicy1_form(),
                "nodal": NODAL, "quartic": fixtures.quadric_power(4)}


class TestPowerTableKernel:
    """The power-table kernel is bitwise equal to the direct product."""

    @pytest.mark.parametrize("name", sorted(KERNEL_FORMS))
    @pytest.mark.parametrize("which", ["grad", "hess", "full"])
    @pytest.mark.parametrize("n", [0, 1, 25])
    def test_stacks_bitwise_equal(self, name, which, n, rng):
        F = KERNEL_FORMS[name]
        sp = F._stack(which)
        X = 3.0 * rng.normal(size=(n, F.dim))
        assert np.array_equal(sp.eval_many(X), _direct_eval_many(sp, X))

    def test_chunk_boundary(self, rng, monkeypatch):
        sp = fixtures.hermitian_det(3)._stack("full")
        # 7 rows per slice, so 25 rows span four slices
        monkeypatch.setattr(StackedPolys, "_CHUNK", 7 * sp.E.shape[0] * sp.dim)
        X = rng.normal(size=(25, sp.dim))
        out = sp.eval_many(X)
        assert out.shape == (25, sp.count)
        assert np.array_equal(out, _direct_eval_many(sp, X))

    def test_stack_with_empty_polynomial(self, rng):
        sp = StackedPolys([NODAL, Form(3, 3, {}), NODAL.partial(1), Form(2, 3, {})], 3)
        X = rng.normal(size=(25, 3))
        out = sp.eval_many(X)
        assert np.array_equal(out, _direct_eval_many(sp, X))
        assert not out[:, 1].any() and not out[:, 3].any()

    @pytest.mark.parametrize("name", sorted(KERNEL_FORMS))
    def test_form_eval_bitwise_equal(self, name, rng):
        F = KERNEL_FORMS[name]
        E, c = F._numeric()[:2]
        X = rng.normal(size=(25, F.dim))
        direct = (np.prod(X[..., None, :] ** E, axis=-1) * c).sum(axis=-1)
        assert np.array_equal(F.eval(X), direct)
        assert F.eval(X[3]) == direct[3]
        assert F.eval(X.reshape(5, 5, F.dim)).shape == (5, 5)


class TestCalculus:
    def test_gradient_exact(self):
        g = NODAL.gradient([Fraction(1), Fraction(-1, 2), Fraction(1, 10)])
        # dF = (y^2 - z^2, 3y^2 + 2xy, -2xz)
        assert g == [Fraction(6, 25), Fraction(-1, 4), Fraction(-1, 5)]

    def test_euler_identity_gradient(self, rng):
        x = rng.normal(size=3)
        g = np.asarray(NODAL.gradient(x))
        assert abs(g @ x - 3 * NODAL.eval(x)) < 1e-12

    @given(random_form_strategy(4, 3), rational_vectors(3, 3, 2))
    @settings(max_examples=40, deadline=None)
    def test_euler_identity_hessian(self, F, x):
        # Hess(x) . x = (d-1) grad(x) for homogeneous F
        H = F.hessian_matrix(x)
        g = F.gradient(x)
        for i in range(3):
            assert sum(H[i][j] * x[j] for j in range(3)) == 3 * g[i]

    def test_hessian_symmetric_float(self, rng):
        x = rng.normal(size=3)
        H = np.asarray(NODAL.hessian_matrix(x))
        assert np.allclose(H, H.T)


class TestPolarization:
    def test_wrong_argument_count(self):
        with pytest.raises(WrongArgumentCount):
            NODAL.polarize([1, 0, 0], [0, 1, 0])

    def test_diagonal_recovers_form(self):
        v = [Fraction(2), Fraction(-1), Fraction(3)]
        assert NODAL.polarize(v, v, v) == NODAL.eval_exact(v)

    @given(rational_vectors(3, 2, 2), rational_vectors(3, 2, 2),
           rational_vectors(3, 2, 2))
    @settings(max_examples=40, deadline=None)
    def test_symmetry_and_multilinearity(self, a, b, c):
        f = NODAL
        assert f.polarize(a, b, c) == f.polarize(b, a, c) == f.polarize(c, b, a)
        two_a = [2 * v for v in a]
        assert f.polarize(two_a, b, c) == 2 * f.polarize(a, b, c)
        a_plus_b = [u + v for u, v in zip(a, b)]
        assert (f.polarize(a_plus_b, b, c)
                == f.polarize(a, b, c) + f.polarize(b, b, c))

    def test_contract_euler_chain(self):
        # F~(x^{d-1}, L) = grad F(x) . L / d
        x = [Fraction(1), Fraction(2), Fraction(-1)]
        L = [Fraction(0), Fraction(1), Fraction(1)]
        g = NODAL.gradient(x)
        assert NODAL.contract(x, L) == sum(gi * li for gi, li in zip(g, L)) / 3

    def test_contract_hessian_chain(self):
        x = [Fraction(1), Fraction(2), Fraction(-1)]
        L = [Fraction(0), Fraction(1), Fraction(1)]
        M = [Fraction(1), Fraction(0), Fraction(2)]
        H = NODAL.hessian_matrix(x)
        quad = sum(L[i] * H[i][j] * M[j] for i in range(3) for j in range(3))
        assert NODAL.contract(x, L, M) == quad / 6

    def test_third_contract_matches_polarize(self, rng):
        a = rng.normal(size=3)
        b = rng.normal(size=3)
        x = rng.normal(size=3)
        w = NODAL.third_contract(x, a, b)
        for k in range(3):
            e = np.zeros(3); e[k] = 1.0
            # w_k = sum_ij d^3F_ijk a_i b_j = 6 F~(a, b, e_k) for cubics
            assert abs(w[k] - 6 * float(NODAL.polarize(a, b, e))) < 1e-10

    def test_third_contract_quartic(self, rng):
        F = Form(4, 3, {(2, 2, 0): 1, (1, 1, 2): -2, (4, 0, 0): 1})
        x = rng.normal(size=3)
        a = rng.normal(size=3)
        b = rng.normal(size=3)
        w = F.third_contract(x, a, b)
        # compare against finite differences of the Hessian quadratic form
        h = 1e-5
        for k in range(3):
            e = np.zeros(3); e[k] = h
            Hp = np.asarray(F.hessian_matrix(x + e))
            Hm = np.asarray(F.hessian_matrix(x - e))
            fd = a @ ((Hp - Hm) / (2 * h)) @ b
            assert abs(w[k] - fd) < 1e-6


class TestHessianDeterminant:
    def test_nodal(self):
        want = Form(3, 3, {(1, 2, 0): 8, (0, 1, 2): -24, (1, 0, 2): -8})
        assert NODAL.hessian_det_poly() == want

    def test_triple_product(self):
        assert XYZ6.hessian_det_poly() == Form(3, 3, {(1, 1, 1): 432})

    def test_diagonal(self):
        # product of diagonal entries 6x * (-6y) * (-6z)
        assert DIAG.hessian_det_poly() == Form(3, 3, {(1, 1, 1): 216})


class TestChangeOfVariables:
    def test_identity(self):
        eye = [[1, 0, 0], [0, 1, 0], [0, 0, 1]]
        assert NODAL.change_of_variables(eye) == NODAL

    def test_two_variable_example(self):
        F = Form(2, 2, {(2, 0): 1, (0, 2): -1})
        M = [[1, 1], [1, -1]]
        assert F.change_of_variables(M) == Form(2, 2, {(1, 1): 4})

    @given(random_form_strategy(3, 3),
           st.lists(st.integers(min_value=-2, max_value=2), min_size=9, max_size=9))
    @settings(max_examples=30, deadline=None)
    def test_composition_preserves_degree_and_euler(self, F, entries):
        M = [entries[0:3], entries[3:6], entries[6:9]]
        G = F.change_of_variables(M)
        assert G.degree == F.degree and G.dim == F.dim
        x = [Fraction(1), Fraction(-2), Fraction(3)]
        Mx = [sum(M[i][j] * x[j] for j in range(3)) for i in range(3)]
        assert G.eval_exact(x) == F.eval_exact(Mx)

    def test_hessian_determinant_covariance(self):
        # H(F o M) = det(M)^2 * H(F) o M for ternary cubics
        M = [[2, 1, 0], [0, 1, 1], [1, 0, 3]]
        detM = Fraction(7)
        G = NODAL.change_of_variables(M)
        lhs = G.hessian_det_poly()
        rhs = detM ** 2 * NODAL.hessian_det_poly().change_of_variables(M)
        assert lhs == rhs


class TestSerialization:
    def test_round_trip(self, tmp_path):
        p = tmp_path / "f.json"
        save_form(NODAL, p)
        assert load_form(p) == NODAL

    def test_fraction_coefficients_preserved(self, tmp_path):
        F = Form(2, 2, {(1, 1): Fraction(22, 7)})
        p = tmp_path / "f.json"
        save_form(F, p)
        assert load_form(p).terms[(1, 1)] == Fraction(22, 7)

    def test_canonical_json_stable(self):
        a = Form(2, 2, {(1, 1): 2, (2, 0): 1})
        b = Form(2, 2, {(2, 0): 1, (1, 1): 2})
        assert a.canonical_json() == b.canonical_json()
        assert a.content_hash() == b.content_hash()

    def test_schema_shape(self, tmp_path):
        p = tmp_path / "f.json"
        save_form(NODAL, p)
        data = json.loads(p.read_text())
        assert set(data) == {"degree", "dim", "terms"}
        assert all(set(t) == {"exps", "num", "den"} for t in data["terms"])
