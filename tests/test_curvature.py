"""Tests for the finite-difference curvature engine and surface cross-check."""

from fractions import Fraction

import numpy as np
import pytest

from kcurv import geodesic
from kcurv.aronhold import sectional_curvature_closed
from kcurv.cli import _draw_points
from kcurv.cone import classify, normalize_to_level, orthonormal_frame, tangent_basis
from kcurv.curvature import (
    W1_OFFSETS,
    W1_WEIGHTS,
    W2_OFFSETS,
    W2_WEIGHTS,
    ChartMetric,
    FDConfig,
    _analytic_K,
    _prepare,
    _riemann_at_step,
    curvature_tensor_numeric,
    sectional_curvature_analytic,
    sectional_curvature_numeric,
    sectional_curvature_surface,
)
from kcurv.errors import (
    DegeneratePlane,
    DimensionMismatch,
    IllConditioned,
    KcurvError,
    NotInIndexCone,
)
from kcurv.fixtures import (
    cicy1_form,
    cicy2_form,
    coords_from_hermitian,
    diagonal,
    elliptic_cubic,
    hermitian_det,
    lorentzian,
    nodal_cubic,
    quadric_power,
    triple_product,
)
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


def scan_draws(F, region, seed, samples):
    """(point, v1, v2) of every scan sample that finds a point: the draws of
    ``scan(F, region, samples, seed)`` before any curvature refusal."""
    rngs = [np.random.default_rng(np.random.SeedSequence([seed, i])) for i in range(samples)]
    points, _ = _draw_points(F, rngs, region, 100)
    return [(x, rng.standard_normal(F.dim), rng.standard_normal(F.dim))
            for x, rng in zip(points, rngs) if x is not None]


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

    def test_symmetries_and_sectional_at_m8(self):
        """hermitian_det(3) has r = 9, so the frame has 8 vectors."""
        F = hermitian_det(3)
        x = normalize_to_level(F, HERM3_POINT)
        fr = orthonormal_frame(F, x, seed=7)
        R = curvature_tensor_numeric(F, x, fr).tensor
        assert R.shape == (8, 8, 8, 8)
        assert np.allclose(R, -np.transpose(R, (1, 0, 2, 3)), atol=1e-6)
        assert np.allclose(R, -np.transpose(R, (0, 1, 3, 2)), atol=1e-6)
        assert np.allclose(R, np.transpose(R, (2, 3, 0, 1)), atol=1e-6)
        bianchi = R + np.transpose(R, (0, 2, 3, 1)) + np.transpose(R, (0, 3, 1, 2))
        assert np.max(np.abs(bianchi)) < 1e-6
        s = sectional_curvature_numeric(F, x, fr.vectors[0], fr.vectors[1])
        assert abs(R[0, 1, 1, 0] - s.K) < 1e-6


def _ref_diffs(cm, h, pairs):
    """Loop-built stencil of the earlier engine: (g0, dg, {pair: d2g})."""
    m = cm.m
    offsets = {(): 0}
    rows = [np.zeros(m)]

    def row_for(steps):
        key = tuple(sorted(steps.items()))
        if key not in offsets:
            u = np.zeros(m)
            for axis, k in steps.items():
                u[axis] = k * h
            offsets[key] = len(rows)
            rows.append(u)
        return offsets[key]

    for a in range(m):
        for k in W1_OFFSETS:
            row_for({a: k})
    for (a, b) in pairs:
        if a != b:
            for ka in W1_OFFSETS:
                for kb in W1_OFFSETS:
                    row_for({a: ka, b: kb})
    vals = cm.values(np.asarray(rows))

    def at(steps):
        return vals[offsets[tuple(sorted(steps.items()))]]

    G1 = np.zeros((m, m, m))
    for a in range(m):
        acc = np.zeros((m, m))
        for k, w in zip(W1_OFFSETS, W1_WEIGHTS):
            acc += w * at({a: k})
        G1[a] = acc / h
    G2 = {}
    for (a, b) in pairs:
        acc = np.zeros((m, m))
        if a == b:
            for k, w in zip(W2_OFFSETS, W2_WEIGHTS):
                acc += w * (vals[0] if k == 0 else at({a: k}))
        else:
            for ka, wa in zip(W1_OFFSETS, W1_WEIGHTS):
                for kb, wb in zip(W1_OFFSETS, W1_WEIGHTS):
                    acc += wa * wb * at({a: ka, b: kb})
        G2[(a, b)] = G2[(b, a)] = acc / h ** 2
    return vals[0], G1, G2


def _ref_dgamma(G1, G2, Gamma, a, l, j, k):
    """d_a Gamma^l_jk at u = 0 (identity metric, so dg^{-1} = -dg)."""
    corr = -np.dot(G1[a][l], Gamma[:, j, k])
    return corr + 0.5 * (G2[(a, j)][k, l] + G2[(a, k)][j, l] - G2[(a, l)][j, k])


def _ref_christoffels(G1):
    return 0.5 * (np.einsum("jkl->ljk", G1) + np.einsum("kjl->ljk", G1) - G1)


def _ref_K(cm, h):
    """Sectional curvature of the (e0, e1) plane, term by term."""
    _, G1, G2 = _ref_diffs(cm, h, [(0, 0), (1, 1), (0, 1)])
    Gamma = _ref_christoffels(G1)
    quad = Gamma[:, 1, 1] @ Gamma[0, 0, :] - Gamma[:, 0, 1] @ Gamma[0, 1, :]
    return (_ref_dgamma(G1, G2, Gamma, 0, 0, 1, 1)
            - _ref_dgamma(G1, G2, Gamma, 1, 0, 0, 1) + quad)


def _ref_tensor(cm, h):
    """R_ijkl = R^l_ijk from d_a Gamma^l_jk filled one entry at a time."""
    m = cm.m
    _, G1, G2 = _ref_diffs(cm, h, [(a, b) for a in range(m) for b in range(a, m)])
    Gamma = _ref_christoffels(G1)
    dG = np.zeros((m, m, m, m))
    for a in range(m):
        for l in range(m):
            for j in range(m):
                for k in range(m):
                    dG[a, l, j, k] = _ref_dgamma(G1, G2, Gamma, a, l, j, k)
    return (np.einsum("iljk->ijkl", dG) - np.einsum("jlik->ijkl", dG)
            + np.einsum("sjk,lis->ijkl", Gamma, Gamma)
            - np.einsum("sik,ljs->ijkl", Gamma, Gamma))


HERM3_POINT = coords_from_hermitian(np.array([[2.0, 0.3 + 0.1j, -0.2j],
                                              [0.3 - 0.1j, 1.5, 0.4],
                                              [0.2j, 0.4, 1.0]]))
REFERENCE_CASES = {
    "lorentzian4": (lorentzian(4), [2.0, 1.0, 0.5, 0.5]),
    "cicy1": (cicy1_form(), [2.0, 1.0, 1.0]),
    "quadric_power4": (quadric_power(4), [2.0, 1.0, 0.5, 0.5]),
    "hermdet3": (hermitian_det(3), HERM3_POINT),
}


class TestRiemannRoutine:
    """_riemann_at_step against the earlier loop-built Christoffel engine."""

    @pytest.fixture(params=sorted(REFERENCE_CASES))
    def chart(self, request):
        F, x = REFERENCE_CASES[request.param]
        xn = normalize_to_level(F, np.asarray(x))
        return ChartMetric(F, xn, orthonormal_frame(F, xn, seed=3).vectors)

    @pytest.mark.parametrize("h", [1e-3, 5e-4])
    def test_sectional_matches_reference(self, chart, h):
        R = _riemann_at_step(chart, h, ((0, 0), (1, 1), (0, 1)))
        assert abs(R[0, 1, 1, 0] - _ref_K(chart, h)) < 1e-8

    @pytest.mark.parametrize("h", [1e-3, 5e-4])
    def test_tensor_matches_reference(self, chart, h):
        m = chart.m
        R = _riemann_at_step(chart, h, [(a, b) for a in range(m) for b in range(a, m)])
        assert np.max(np.abs(R - _ref_tensor(chart, h))) < 1e-8


def _ref_gram_schmidt(G, rows, frame=(), floor=1e-12, size=None):
    """Metric Gram-Schmidt of the earlier frame builders."""
    out = list(frame)
    for row in rows:
        if size is not None and len(out) >= size:
            break
        w = np.array(row, dtype=float)
        for u in out:
            w -= (w @ G @ u) * u
        nn = w @ G @ w
        if nn >= floor:
            out.append(w / np.sqrt(nn))
    return out


def _ref_prepare(F, x, L1, L2, cfg=FDConfig()):
    """Earlier plane-frame builder: radial projection, two metric Gram-Schmidt
    passes over the plane and then the tangent basis, and a Cholesky
    whitening when the result drifts off orthonormal by more than 1e-8."""
    xn = normalize_to_level(F, x)
    cp = classify(F, xn)
    if cp.classification != "index_cone":
        raise NotInIndexCone(cp.classification)
    G, basis = -cp.Q, tangent_basis(F, xn)
    eig = np.linalg.eigvalsh(basis @ G @ basis.T)
    if eig[0] <= 0 or eig[0] / eig[-1] < cfg.gram_condition_floor:
        raise IllConditioned("tangent Gram conditioning below floor")
    P = []
    for L in (L1, L2):
        w = L - xn * ((cp.grad @ L) / (cp.grad @ xn))
        if np.linalg.norm(w) < 1e-14:
            raise DegeneratePlane("plane vector projects to zero")
        P.append(w / np.linalg.norm(w))
    P = np.asarray(P)
    if np.linalg.det(P @ G @ P.T) < 1e-12:
        raise DegeneratePlane("projected plane Gram determinant")
    frame = _ref_gram_schmidt(G, P)
    if len(frame) < 2:
        raise DegeneratePlane("projected plane vectors are metrically dependent")
    frame = np.asarray(_ref_gram_schmidt(G, basis, frame, floor=1e-10, size=len(basis)))
    if len(frame) != len(basis):
        raise DegeneratePlane("could not complete the plane to a full frame")
    gram = frame @ G @ frame.T
    if np.max(np.abs(gram - np.eye(len(frame)))) > 1e-8:
        frame = np.linalg.solve(np.linalg.cholesky(gram), frame)
    return xn, frame, P, G


FRAME_CASES = {
    "lorentzian4": (lorentzian(4), "ball"),
    "cicy1": (cicy1_form(), "orthant"),
    "nodal": (nodal_cubic(), "ball"),
    "hermitian_det3": (hermitian_det(3), "ball"),
}


class TestFrames:
    """The QR + Cholesky frames against the earlier Gram-Schmidt builders,
    on the draws a scan makes (SeedSequence([999, i]) substreams)."""

    @pytest.fixture(params=sorted(FRAME_CASES), scope="class")
    def draws(self, request):
        F, region = FRAME_CASES[request.param]
        return F, scan_draws(F, region, 999, 200)

    def test_plane_frame_matches_reference(self, draws):
        F, samples = draws
        # one batched call over every draw, checked row by row
        X, V1, V2 = (np.array(col) for col in zip(*samples))
        _, frames, refusals = _prepare(F, X, V1, V2)
        accepted = 0
        for (x, v1, v2), frame, refusal in zip(samples, frames, refusals):
            try:
                xn, ref, P, G = _ref_prepare(F, x, v1, v2)
            except KcurvError as exc:
                assert type(refusal) is type(exc)
                continue
            assert refusal is None
            accepted += 1
            m = F.dim - 1
            assert np.max(np.abs(frame @ G @ frame.T - np.eye(m))) < 1e-11
            grad = classify(F, xn).grad
            assert np.max(np.abs(frame @ grad)) < 1e-12 * np.linalg.norm(grad) * np.max(
                np.linalg.norm(frame, axis=1))
            # row 1 is fixed by the plane only up to rounding amplified by
            # 1/sin of the metric angle between the spanning vectors, in
            # both builders alike
            M = P @ G @ P.T
            sin_angle = np.sqrt(np.linalg.det(M) / (M[0, 0] * M[1, 1]))
            for k, tol in ((0, 1e-10), (1, 1e-10 / sin_angle)):
                gap = min(np.linalg.norm(frame[k] - ref[k]), np.linalg.norm(frame[k] + ref[k]))
                assert gap < tol * np.linalg.norm(ref[k])
        assert accepted >= 10

    @pytest.mark.parametrize("seed", [0, 7])
    def test_orthonormal_frame_matches_gram_schmidt(self, draws, seed):
        F, samples = draws
        for x, _, _ in samples:
            cp = classify(F, normalize_to_level(F, x))
            B = tangent_basis(F, cp.x)
            if seed:
                B = np.random.default_rng(seed).standard_normal((len(B), len(B))) @ B
            G = -cp.Q
            ref = np.asarray(_ref_gram_schmidt(G, B))
            frame = orthonormal_frame(F, cp.x, seed=seed).vectors
            m = len(B)
            assert np.max(np.abs(frame @ G @ frame.T - np.eye(m))) < 1e-11
            # both are the triangular orthogonalisation of B; rounding moves
            # it by about eps * cond(B G B^T), which seed mixing inflates
            tol = max(1e-12, 1e-14 * np.linalg.cond(B @ G @ B.T))
            assert np.max(np.abs(frame - ref)) < tol * max(1.0, np.max(np.abs(ref)))


def analytic_scan(F, region, seed, samples):
    """(points on W1, frames, K) of the draws of ``scan(F, region, samples,
    seed)`` that _prepare accepts, from one batched _prepare and _analytic_K."""
    X, V1, V2 = (np.array(col) for col in zip(*scan_draws(F, region, seed, samples)))
    Xn, frames, refusals = _prepare(F, X, V1, V2)
    ok = np.array([refusal is None for refusal in refusals])
    Xn, frames = Xn[ok], frames[ok]
    return Xn, frames, _analytic_K(F, Xn, frames[:, 0], frames[:, 1])


class TestAnalytic:
    """The closed form of the Hessian-metric curvature against exact
    constants, the Aronhold closed form and the FD engine."""

    @pytest.mark.parametrize("F,K,region", [
        (diagonal(3, 3), -2.25, "orthant"),
        (diagonal(4, 3), -4.0, "ball"),
        (diagonal(3, 5), -2.25, "orthant"),
        (lorentzian(4), -1.0, "ball"),
    ], ids=["diagonal33", "diagonal43", "diagonal35", "lorentzian4"])
    def test_constant_curvature_is_exact(self, F, K, region):
        # diagonal forms: every C_kl carries a diagonal entry of w, which is
        # exactly zero; quadrics have no third derivative
        _, _, Ks = analytic_scan(F, region, 1, 300)
        assert len(Ks) > 250
        assert np.all(Ks == K)

    def test_triple_product_is_flat(self):
        _, _, Ks = analytic_scan(triple_product(), "orthant", 1, 300)
        assert len(Ks) > 250
        assert np.max(np.abs(Ks)) < 1e-14

    def test_quadric_power_error_follows_hessian_conditioning(self):
        # (x0^2 - |y|^2)^2 has K = -3; the rounding of C is amplified by
        # H^-1, so the error grows with cond(H): 1e-5 at 4.6e7 on these draws
        F = quadric_power(4)
        Xn, _, Ks = analytic_scan(F, "ball", 1, 2000)
        kappa = np.linalg.cond(F.hessian_many(Xn))
        assert kappa.max() > 4e7
        assert np.all(np.abs(Ks + 3.0) <= 1e-13 + 1e-15 * kappa ** 1.5)

    @pytest.mark.parametrize("F", [nodal_cubic(), elliptic_cubic(), cicy1_form(), cicy2_form()],
                             ids=["nodal", "elliptic", "cicy1", "cicy2"])
    @pytest.mark.parametrize("region", ["orthant", "ball"])
    def test_ternary_cubics_match_closed_form(self, F, region):
        Xn, _, Ks = analytic_scan(F, region, 2, 300)
        assert len(Ks) > 250
        R = np.array([float(sectional_curvature_closed(F, x)) for x in Xn])
        assert np.all(np.abs(Ks - R) <= 1e-9 * np.maximum(1.0, np.abs(R)))

    def test_hermitian_det_matches_fd(self):
        F = hermitian_det(3)
        compared = 0
        for x, v1, v2 in scan_draws(F, "ball", 4, 150):
            try:
                s = sectional_curvature_numeric(F, x, v1, v2)
            except KcurvError:
                continue
            compared += 1
            assert abs(sectional_curvature_analytic(F, x, v1, v2).K - s.K) < 1e-5
        assert compared >= 20

    def test_ill_conditioned_diagonal_sample(self):
        # diagonal(3, 3), orthant scan seed 5, sample 162: cond(H) = 5.4e5.
        # u(a,a) H^-1 u(b,b) - u(a,b) H^-1 u(a,b) cancels there and gives
        # -2.250651; the w form has no cancellation
        x, v1, v2 = scan_draws(diagonal(3, 3), "orthant", 5, 163)[162]
        s = sectional_curvature_analytic(diagonal(3, 3), x, v1, v2)
        assert abs(s.K + 2.25) <= 1e-12

    def test_one_row_is_the_batch_row(self):
        F = cicy1_form()
        samples = scan_draws(F, "orthant", 6, 20)
        Xn, frames, Ks = analytic_scan(F, "orthant", 6, 20)
        for (x, v1, v2), xn, frame, K in zip(samples, Xn, frames, Ks):
            s = sectional_curvature_analytic(F, x, v1, v2)
            assert s.K == K and s.err_estimate == 0.0 and s.method == "analytic"
            assert np.array_equal(s.point, xn)
            assert np.array_equal(s.plane[0], frame[0]) and np.array_equal(s.plane[1], frame[1])

    def test_refusals_match_fd(self):
        F, x = cicy1_form(), np.array([2.0, 1.0, 1.0])
        v = np.array([0.0, 1.0, -1.0])
        for L1, L2, error in ((v, 2.0 * v, DegeneratePlane), (x, v, DegeneratePlane),
                              ([0.0, 1.0], v, DimensionMismatch)):
            for fn in (sectional_curvature_numeric, sectional_curvature_analytic):
                with pytest.raises(error):
                    fn(F, x, L1, L2)
        for fn in (sectional_curvature_numeric, sectional_curvature_analytic):
            with pytest.raises(NotInIndexCone):
                fn(nodal_cubic(), np.array([1.0, -2.0, 0.0]), v, [1.0, 0.0, 0.0])


class TestSurfaceCrossCheck:
    def test_lorentzian_surface(self):
        F = lorentzian(3)
        x = np.array([1.0, 0.0, 0.0])
        s = sectional_curvature_surface(F, x, *default_plane(F, x))
        assert abs(s.K + 1.0) < 1e-3
        assert s.method == "surface_expansion"

    def test_shoots_only_the_nodes_the_stencils_read(self, monkeypatch):
        shots, exp_map = [], geodesic.exp_map

        def recording_exp_map(F, x0, v, steps=None):
            shots.append(np.asarray(v, dtype=float))
            return exp_map(F, x0, v, steps=steps)

        monkeypatch.setattr(geodesic, "exp_map", recording_exp_map)
        F = lorentzian(3)
        x = np.array([1.0, 0.0, 0.0])
        e1, e2 = default_plane(F, x)
        s = sectional_curvature_surface(F, x, e1, e2)
        assert abs(s.K + 1.0) < 1e-3
        nodes = {tuple(np.rint(np.linalg.lstsq(np.array([e1, e2]).T, v, rcond=None)[0]
                               / 0.02).astype(int)) for v in shots}
        assert len(shots) == len(nodes) == 64
        assert all(min(abs(i), abs(j)) <= 2 and max(abs(i), abs(j)) <= 4 for i, j in nodes)

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

    @pytest.mark.parametrize("L1,L2,message", [
        ([0.0, 1.0], [0.0, 0.0, 1.0], "plane vector L1 has shape (2,), expected (3,)"),
        ([0.0, 1.0, 0.0], [0.0, 0.0, 1.0, 0.0], "plane vector L2 has shape (4,), expected (3,)"),
    ])
    def test_wrong_length_plane_vector(self, L1, L2, message):
        with pytest.raises(DimensionMismatch) as info:
            sectional_curvature_numeric(cicy1_form(), np.array([2.0, 1.0, 1.0]), L1, L2)
        assert str(info.value) == message

    def test_custom_step_still_accurate(self):
        F = lorentzian(3)
        x = np.array([2.0, 1.0, 1.0])
        cfg = FDConfig(h=5e-4)
        s = sectional_curvature_numeric(F, x, *default_plane(F, x), cfg=cfg)
        assert abs(s.K + 1.0) < 1e-6


def test_near_wall_frame_is_reorthonormalized():
    """hermitian_det(3), ball scan seed 11024, sample 24: two passes of metric
    Gram-Schmidt left the frame 1.2e-8 off orthonormal there, which was once
    refused as "frame drifted".  The reference K is Totaro's Hessian-metric
    formula evaluated at the same point and plane."""
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
