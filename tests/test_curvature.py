"""Tests for the finite-difference curvature engine and surface cross-check."""

from fractions import Fraction

import numpy as np
import pytest

from kcurv.aronhold import sectional_curvature_closed
from kcurv.cone import normalize_to_level, orthonormal_frame, tangent_basis
from kcurv.curvature import (
    ChartMetric,
    FDConfig,
    curvature_tensor_numeric,
    sectional_curvature_numeric,
    sectional_curvature_surface,
)
from kcurv.errors import DegeneratePlane, IllConditioned, NotInIndexCone
from kcurv.fixtures import diagonal, hermitian_det, lorentzian, quadric_power
from kcurv.symform import Form


def frac_vec(*vals):
    return [Fraction(v) for v in vals]


def lorentzian_point(rng, r):
    """Random point in the index cone of the Lorentzian quadric."""
    y = rng.normal(size=r - 1)
    x = np.empty(r)
    x[0] = np.sqrt(1.0 + y @ y) + rng.exponential(0.5)
    x[1:] = y
    return x


def default_plane(F, x):
    fr = orthonormal_frame(F, np.asarray(x, dtype=float))
    return fr.vectors[0], fr.vectors[1]


class TestChartMetric:
    def test_hand_computed_value(self):
        # Lorentzian r=3 at x=(1,0,0): chart metric at u=(0.5, 0) is
        # diag(16/9, 4/3) by direct computation from the level-set chart.
        F = lorentzian(3)
        x = np.array([1.0, 0.0, 0.0])
        frame = tangent_basis(F, x)
        cm = ChartMetric(F, x, frame)
        g = cm.matrix(np.array([0.5, 0.0]))
        expected = np.array([[16.0 / 9.0, 0.0], [0.0, 4.0 / 3.0]])
        assert np.allclose(g, expected, atol=1e-12)

    def test_origin_matches_ambient_metric(self):
        # At u=0 the chart metric equals the ambient Hodge metric restricted
        # to the frame: g_ij(0) = -L_i^T Hess L_j / (d(d-1)).
        F = diagonal(3, 3)
        x = normalize_to_level(F, np.array([2.0, 1.0, 1.0]))
        frame = tangent_basis(F, x)
        cm = ChartMetric(F, x, frame)
        g0 = cm.matrix(np.zeros(2))
        H = F.hessian_matrix(x)
        expected = -(frame @ H @ frame.T) / (F.degree * (F.degree - 1))
        assert np.allclose(g0, expected, atol=1e-12)

    def test_batched_matches_single(self, rng):
        F = diagonal(3, 3)
        x = normalize_to_level(F, np.array([2.0, 1.0, 1.0]))
        frame = tangent_basis(F, x)
        cm = ChartMetric(F, x, frame)
        U = rng.normal(scale=0.05, size=(7, 2))
        batch = cm.values(U)
        for k in range(U.shape[0]):
            assert np.allclose(batch[k], cm.matrix(U[k]), atol=1e-13)


class TestPlaneFrame:
    def test_rejects_dependent_vectors(self):
        F = lorentzian(4)
        x = np.array([2.0, 1.0, 0.5, 0.5])
        v = np.array([0.0, 1.0, 0.0, 0.0])
        with pytest.raises(DegeneratePlane):
            sectional_curvature_numeric(F, x, v, 2.0 * v)

    def test_rejects_radial_plane(self):
        # A plane containing only the radial direction projects to rank < 2.
        F = lorentzian(3)
        x = np.array([2.0, 1.0, 1.0])
        with pytest.raises(DegeneratePlane):
            sectional_curvature_numeric(F, x, x, 1.000001 * x)

    def test_radial_component_is_projected_out(self, rng):
        # Adding a radial component to the spanning vectors does not change K.
        F = lorentzian(4)
        x = lorentzian_point(rng, 4)
        v1 = rng.normal(size=4)
        v2 = rng.normal(size=4)
        s1 = sectional_curvature_numeric(F, x, v1, v2)
        s2 = sectional_curvature_numeric(F, x, v1 + 0.7 * x, v2 - 1.3 * x)
        assert abs(s1.K - s2.K) < 1e-7


class TestCalibration:
    def test_lorentzian_is_hyperbolic_r3(self, rng):
        F = lorentzian(3)
        for _ in range(5):
            x = lorentzian_point(rng, 3)
            s = sectional_curvature_numeric(F, x, *default_plane(F, x))
            assert abs(s.K + 1.0) < 1e-6
            assert s.err_estimate < 1e-6
            assert s.method == "finite_difference"

    def test_lorentzian_is_hyperbolic_r5(self, rng):
        F = lorentzian(5)
        for _ in range(3):
            x = lorentzian_point(rng, 5)
            v1, v2 = rng.normal(size=5), rng.normal(size=5)
            s = sectional_curvature_numeric(F, x, v1, v2)
            assert abs(s.K + 1.0) < 1e-6

    def test_linear_change_of_variables_invariance(self, rng):
        # K is invariant under GL pullback: pulling the quadric back through
        # a random rational map must still give K = -1 everywhere.
        F = lorentzian(3)
        M = [
            [Fraction(1), Fraction(1, 2), Fraction(0)],
            [Fraction(0), Fraction(1), Fraction(1, 3)],
            [Fraction(1, 4), Fraction(0), Fraction(1)],
        ]
        G = F.change_of_variables(M)
        Mf = np.array([[float(c) for c in row] for row in M])
        for _ in range(3):
            x = lorentzian_point(rng, 3)
            # G(y) = F(M y); if x is in the cone of F then y = M^{-1} x works.
            y = np.linalg.solve(Mf, x)
            s = sectional_curvature_numeric(G, y, *default_plane(G, y))
            assert abs(s.K + 1.0) < 1e-6


class TestConstantCurvatureFamilies:
    @pytest.mark.parametrize("n,r", [(3, 3), (4, 3), (3, 4)])
    def test_diagonal_family(self, rng, n, r):
        F = diagonal(n, r)
        expected = -((n / 2.0) ** 2)
        for _ in range(3):
            x = np.empty(r)
            x[0] = 2.0 + rng.exponential(1.0)
            x[1:] = rng.exponential(0.5, size=r - 1)
            s = sectional_curvature_numeric(F, x, *default_plane(F, x))
            assert abs(s.K - expected) < 1e-5

    @pytest.mark.parametrize("d,expected", [(4, -3.0), (6, -5.0)])
    def test_quadric_power(self, rng, d, expected):
        F = quadric_power(d)
        for _ in range(2):
            x = lorentzian_point(rng, 4)
            s = sectional_curvature_numeric(F, x, *default_plane(F, x))
            assert abs(s.K - expected) < 1e-4


class TestAgainstClosedForm:
    NODAL = Form(3, 3, {(0, 3, 0): 1, (1, 2, 0): 1, (1, 0, 2): -1})

    def test_nodal_cubic_pinned_point(self):
        x = frac_vec(1, Fraction(-1, 2), Fraction(1, 10))
        K_exact = sectional_curvature_closed(self.NODAL, x)
        assert K_exact == Fraction(-518, 289)
        xf = np.array([1.0, -0.5, 0.1])
        s = sectional_curvature_numeric(self.NODAL, xf, *default_plane(self.NODAL, xf))
        assert abs(s.K - float(K_exact)) < 1e-6

    def test_nodal_cubic_more_points(self):
        for pt in (["2", "-1", "1/4"], ["1", "-2/5", "3/10"], ["3", "-3/2", "1/5"]):
            x_exact = [Fraction(c) for c in pt]
            K_exact = float(sectional_curvature_closed(self.NODAL, x_exact))
            xf = np.array([float(Fraction(c)) for c in pt])
            s = sectional_curvature_numeric(self.NODAL, xf, *default_plane(self.NODAL, xf))
            assert abs(s.K - K_exact) < max(1e-4, 10.0 * s.err_estimate)

    def test_product_form_is_flat(self):
        F = Form(3, 3, {(1, 1, 1): 6})
        for pt in ([1.0, 1.0, 1.0], [2.0, 0.7, 1.3]):
            x = np.array(pt)
            s = sectional_curvature_numeric(F, x, *default_plane(F, x))
            assert abs(s.K) < 1e-6


class TestCurvatureTensor:
    def test_symmetries_and_bianchi(self):
        F = diagonal(3, 4)
        x = np.array([2.5, 1.0, 0.8, 1.2])
        xn = normalize_to_level(F, x)
        res = curvature_tensor_numeric(F, xn, orthonormal_frame(F, xn))
        R = res.tensor
        m = R.shape[0]
        assert m == 3
        # Antisymmetry in the first and last index pairs.
        assert np.allclose(R, -np.transpose(R, (1, 0, 2, 3)), atol=1e-6)
        assert np.allclose(R, -np.transpose(R, (0, 1, 3, 2)), atol=1e-6)
        # Pair-exchange symmetry.
        assert np.allclose(R, np.transpose(R, (2, 3, 0, 1)), atol=1e-6)
        # First Bianchi identity over the last three slots.
        bianchi = (
            R
            + np.transpose(R, (0, 2, 3, 1))
            + np.transpose(R, (0, 3, 1, 2))
        )
        assert np.max(np.abs(bianchi)) < 1e-6

    def test_constant_curvature_tensor(self):
        # For constant curvature K and an orthonormal frame,
        # <R(e_i,e_j)e_k, e_l> = K (d_jk d_il - d_ik d_jl).
        F = lorentzian(4)
        x = normalize_to_level(F, np.array([2.0, 1.0, 0.5, 0.5]))
        res = curvature_tensor_numeric(F, x, orthonormal_frame(F, x))
        R = res.tensor
        m = R.shape[0]
        eye = np.eye(m)
        model = -1.0 * (
            np.einsum("jk,il->ijkl", eye, eye)
            - np.einsum("ik,jl->ijkl", eye, eye)
        )
        assert np.allclose(R, model, atol=1e-6)
        assert res.err_estimate < 1e-6

    def test_matches_plane_sectional(self):
        F = diagonal(3, 3)
        x = normalize_to_level(F, np.array([2.0, 1.0, 1.0]))
        fr = orthonormal_frame(F, x)
        res = curvature_tensor_numeric(F, x, fr)
        # K(e_0, e_1) = <R(e_0,e_1)e_1, e_0> in an orthonormal frame.
        K01 = res.tensor[0, 1, 1, 0]
        s = sectional_curvature_numeric(F, x, fr.vectors[0], fr.vectors[1])
        assert abs(K01 - s.K) < 1e-6


class TestSurfaceCrossCheck:
    def test_lorentzian_surface(self):
        F = lorentzian(3)
        x = np.array([1.0, 0.0, 0.0])
        s = sectional_curvature_surface(F, x, *default_plane(F, x))
        assert abs(s.K + 1.0) < 1e-3
        assert s.method == "surface_expansion"

    def test_diagonal_cubic_surface_vs_fd(self):
        F = diagonal(3, 3)
        x = normalize_to_level(F, np.array([2.0, 1.0, 1.0]))
        v1, v2 = default_plane(F, x)
        s_fd = sectional_curvature_numeric(F, x, v1, v2)
        s_surf = sectional_curvature_surface(F, x, v1, v2)
        assert abs(s_fd.K - s_surf.K) < 1e-3


class TestErrorPaths:
    def test_not_in_index_cone(self):
        # F > 0 but the Hessian has the wrong signature there.
        F = diagonal(3, 3)
        x = np.array([1.0, -2.0, -2.0])
        with pytest.raises(NotInIndexCone):
            sectional_curvature_numeric(
                F, x, np.array([0.0, 1.0, 0.0]), np.array([0.0, 0.0, 1.0])
            )

    def test_tensor_not_in_index_cone(self):
        F = diagonal(3, 3)
        x = np.array([1.0, -2.0, -2.0])
        with pytest.raises(NotInIndexCone):
            curvature_tensor_numeric(F, x, np.eye(3)[:2])

    def test_overtight_error_budget_raises(self):
        # An absurdly tight error ceiling forces the Richardson comparison
        # to fail, which must surface as IllConditioned, not a wrong number.
        F = diagonal(5, 3)
        x = np.array([2.0, 1.0, 1.0])
        cfg = FDConfig(max_err=1e-16)
        with pytest.raises(IllConditioned):
            sectional_curvature_numeric(F, x, *default_plane(F, x), cfg=cfg)

    def test_custom_step_still_accurate(self):
        F = lorentzian(3)
        x = np.array([2.0, 1.0, 1.0])
        cfg = FDConfig(h=5e-4)
        s = sectional_curvature_numeric(F, x, *default_plane(F, x), cfg=cfg)
        assert abs(s.K + 1.0) < 1e-6


def test_near_wall_frame_is_reorthonormalized():
    """hermitian_det(3), ball scan seed 11024, sample 24: metric Gram-Schmidt
    leaves the frame 1.2e-8 off orthonormal, which used to be refused as
    "frame drifted".  The reference K is Totaro's Hessian-metric formula
    evaluated at the same point and plane."""
    x = [0.5695035724334703, 0.6278875556556078, 0.2157119676259812,
         0.15659686960313995, -0.26552490623630187, -0.3358699839168054,
         0.08392605637191468, -0.08916669995652585, -0.10982832350725905]
    v1 = [-2.2969234371772553, -0.39222449292444206, 0.2789749251205625,
          -0.5196945290612653, -0.314064715556272, -1.0473715613305623,
          -0.1654752559939943, 0.14538102336930508, -0.05331234511506248]
    v2 = [2.696843280968752, -0.9717728492713037, -1.5312566741197278,
          0.31007196204578125, 0.37066559471512683, -1.0012276965795304,
          -0.26480818285889035, -0.31359316670566106, -0.3712656373606314]
    s = sectional_curvature_numeric(hermitian_det(3), np.array(x), np.array(v1),
                                    np.array(v2))
    assert abs(s.K - (-2.2501431)) < 1e-5
