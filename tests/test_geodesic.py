"""Tests for the geodesic integrator against exact oracles."""

import numpy as np
import pytest
from scipy.optimize import minimize_scalar

from kcurv import fixtures
from kcurv.cone import CODE_INDEX, classify_many, metric_gram, normalize_to_level, tangent_basis
from kcurv.errors import (
    GeodesicFailure,
    LeftIndexCone,
    NonFiniteInput,
    NonpositiveValue,
    NotInIndexCone,
    StepRejected,
)
from kcurv.fixtures import diagonal, hermitian_det, lorentzian, quadric_power
from kcurv.geodesic import Trajectory, _field, exp_map, geodesic_integrate


def hyperboloid_start():
    """Point and Hodge-unit tangent on the r=3 hyperboloid W1."""
    x0 = np.array([np.sqrt(2.0), 1.0, 0.0])
    v0 = np.array([1.0, np.sqrt(2.0), 0.0])  # Minkowski-orthogonal, unit
    return x0, v0


def hyperboloid_exact(x0, v0, t):
    """Exact unit-speed geodesic on {x0^2 - x1^2 - x2^2 = 1}."""
    return np.cosh(t) * x0 + np.sinh(t) * v0


class TestHyperboloidOracle:
    def test_endpoint_matches_exact(self):
        F = lorentzian(3)
        x0, v0 = hyperboloid_start()
        T = 1.0
        traj = geodesic_integrate(F, x0, v0, T)
        exact = hyperboloid_exact(x0, v0, T)
        assert np.linalg.norm(traj.endpoint - exact) < 1e-6

    def test_whole_trajectory_matches_exact(self):
        F = lorentzian(3)
        x0, v0 = hyperboloid_start()
        traj = geodesic_integrate(F, x0, v0, 1.5)
        worst = max(
            np.linalg.norm(traj.points[i] - hyperboloid_exact(x0, v0, traj.times[i]))
            for i in range(0, len(traj.times), 50)
        )
        assert worst < 1e-6

    def test_generic_direction(self):
        F = lorentzian(3)
        x0, _ = hyperboloid_start()
        th = 0.7
        v0 = np.cos(th) * np.array([1.0, np.sqrt(2.0), 0.0]) + np.sin(th) * np.array(
            [0.0, 0.0, 1.0]
        )
        traj = geodesic_integrate(F, x0, v0, 1.0)
        exact = hyperboloid_exact(x0, v0, 1.0)
        assert np.linalg.norm(traj.endpoint - exact) < 1e-6

    def test_reversibility(self):
        F = lorentzian(3)
        x0, v0 = hyperboloid_start()
        fwd = geodesic_integrate(F, x0, v0, 1.0)
        back = geodesic_integrate(F, fwd.endpoint, -fwd.velocities[-1], 1.0)
        assert np.linalg.norm(back.endpoint - fwd.points[0]) < 1e-7

    def test_step_halving_is_fourth_order(self):
        # Doubling the step count must shrink the endpoint error by at
        # least 8x (RK4 converges at fourth order, so ~16x is typical).
        F = lorentzian(3)
        x0, v0 = hyperboloid_start()
        exact = hyperboloid_exact(x0, v0, 1.0)
        errs = []
        for steps in (40, 80):
            traj = geodesic_integrate(F, x0, v0, 1.0, steps=steps)
            errs.append(np.linalg.norm(traj.endpoint - exact))
        assert errs[0] > 1e-12  # coarse error is resolvable, not noise
        assert errs[0] / errs[1] >= 8.0

    def test_conservation(self):
        F = lorentzian(3)
        x0, v0 = hyperboloid_start()
        traj = geodesic_integrate(F, x0, v0, 2.0)
        assert np.max(np.abs(traj.speeds - traj.speeds[0])) < 1e-8
        assert np.max(traj.level_drifts) < 1e-8


class TestDiagonalCubicIsometry:
    """The positive patch of {x0^3 - x1^3 - x2^3 = 1} maps onto the
    hyperboloid {y0^2 - y1^2 - y2^2 = 1} by y_i = x_i^(3/2), scaling the
    metric by 4/9.  A Hodge-unit geodesic therefore pushes forward to an
    exact speed-3/2 hyperboloid geodesic, giving a closed-form oracle."""

    def setup_method(self):
        self.F = diagonal(3, 3)
        self.x0 = normalize_to_level(self.F, np.array([1.5, 0.9, 0.7]))
        rng = np.random.default_rng(3)
        raw = rng.normal(size=3)
        B = tangent_basis(self.F, self.x0)
        # Project onto the tangent space and normalize to unit Hodge speed.
        g = self.F.gradient(self.x0)
        v = raw - self.x0 * ((g @ raw) / (g @ self.x0))
        gram = metric_gram(self.F, self.x0, v[None, :])
        self.v0 = v / np.sqrt(gram[0, 0])
        assert B.shape == (2, 3)

    def oracle(self, t):
        y0 = self.x0 ** 1.5
        w = 1.5 * np.sqrt(self.x0) * self.v0
        y = np.cosh(1.5 * t) * y0 + np.sinh(1.5 * t) * (w / 1.5)
        return y ** (2.0 / 3.0)

    def test_trajectory_matches_isometry_oracle(self):
        traj = geodesic_integrate(self.F, self.x0, self.v0, 0.25)
        worst = max(
            np.linalg.norm(traj.points[i] - self.oracle(traj.times[i]))
            for i in range(0, len(traj.times), 25)
        )
        assert worst < 1e-9

    def test_conservation(self):
        traj = geodesic_integrate(self.F, self.x0, self.v0, 0.25)
        assert abs(traj.speeds[0] - 1.0) < 1e-12
        assert np.max(np.abs(traj.speeds - traj.speeds[0])) < 1e-8
        assert np.max(traj.level_drifts) < 1e-8

    def test_wall_is_detected(self):
        # This trajectory leaves the positive patch at t ~ 0.36 (the chart
        # is geodesically incomplete); the integrator must refuse to
        # continue rather than report garbage, and say where it stopped.
        with pytest.raises(GeodesicFailure) as info:
            geodesic_integrate(self.F, self.x0, self.v0, 0.6)
        exc = info.value
        assert isinstance(exc.step, int) and 300 < exc.step < 360
        assert exc.t == pytest.approx(exc.step * 0.6 / 600, abs=1e-15)
        assert f"step {exc.step}" in str(exc)


class TestHermitianDeterminant:
    def test_one_parameter_subgroup_is_geodesic(self):
        # For the 2x2 hermitian determinant, the curve exp(sA) with A
        # traceless hermitian stays on W1 (det exp(sA) = e^{s tr A} = 1)
        # and is the geodesic through the identity.  A^2 = mu^2 I gives
        # exp(sA) = cosh(s mu) I + sinh(s mu)/mu A in closed form; the
        # integrated trajectory must stay on that curve (set distance).
        F = hermitian_det(2)
        x0 = fixtures.coords_from_hermitian(np.eye(2))
        A = np.array([[0.3, 0.2 - 0.4j], [0.2 + 0.4j, -0.3]])
        v0 = fixtures.coords_from_hermitian(A)
        mu = np.sqrt(0.3**2 + 0.2**2 + 0.4**2)

        def curve(s):
            M = np.cosh(s * mu) * np.eye(2) + (np.sinh(s * mu) / mu) * A
            return fixtures.coords_from_hermitian(M)

        traj = geodesic_integrate(F, x0, v0, 1.0)
        dmax = 0.0
        for i in range(0, len(traj.times), 100):
            p = traj.points[i]
            res = minimize_scalar(
                lambda s: np.linalg.norm(p - curve(s)),
                bounds=(-0.5, 3.0),
                method="bounded",
            )
            dmax = max(dmax, res.fun)
        assert dmax < 1e-5

    def test_conservation(self):
        F = hermitian_det(2)
        x0 = fixtures.coords_from_hermitian(np.eye(2))
        A = np.array([[0.3, 0.2 - 0.4j], [0.2 + 0.4j, -0.3]])
        v0 = fixtures.coords_from_hermitian(A)
        traj = geodesic_integrate(F, x0, v0, 1.0)
        assert np.max(np.abs(traj.speeds - traj.speeds[0])) < 1e-8
        assert np.max(traj.level_drifts) < 1e-8


class TestExpMap:
    def test_zero_vector_returns_normalized_start(self):
        F = lorentzian(3)
        x = np.array([2.0 * np.sqrt(2.0), 2.0, 0.0])  # F(x) = 4
        out = exp_map(F, x, np.zeros(3))
        assert np.allclose(out, x / 2.0, atol=1e-14)
        F = fixtures.cicy1_form()
        out = exp_map(F, [2.0, 1.0, 1.0], np.zeros(3))
        assert np.allclose(out, normalize_to_level(F, [2.0, 1.0, 1.0]), atol=1e-14)
        assert abs(F.eval(out) - 1.0) < 1e-14

    def test_zero_vector_keeps_start_checks(self):
        # a zero velocity goes through the same start checks as any other
        with pytest.raises(NonFiniteInput, match="start point"):
            exp_map(fixtures.cicy1_form(), [np.nan, 1.0, 1.0], np.zeros(3))
        with pytest.raises(NotInIndexCone):
            exp_map(fixtures.nodal_cubic(), [1.0, 1.0, 1.0], np.zeros(3))

    def test_matches_unit_time_integration(self):
        F = lorentzian(3)
        x0, v0 = hyperboloid_start()
        v = 0.3 * v0
        out = exp_map(F, x0, v)
        traj = geodesic_integrate(F, x0, v, 1.0)
        assert np.linalg.norm(out - traj.endpoint) < 1e-9

    def test_additivity_along_rays(self):
        # exp_x((a+b)v) equals the exponential at exp_x(av) of the
        # parallel-transported remainder; along a single geodesic this
        # reduces to exp_x((a+b)v) = gamma(a+b), checkable via the oracle.
        F = lorentzian(3)
        x0, v0 = hyperboloid_start()
        out = exp_map(F, x0, 0.8 * v0)
        assert np.linalg.norm(out - hyperboloid_exact(x0, v0, 0.8)) < 1e-6


class TestEntryErrors:
    def test_nonpositive_start_value(self):
        F = lorentzian(3)
        with pytest.raises(NonpositiveValue):
            geodesic_integrate(F, np.array([0.1, 2.0, 0.0]), np.eye(3)[1], 1.0)

    def test_start_outside_index_cone(self):
        F = diagonal(3, 3)
        # F > 0 here but the Hessian has signature (3, 0).
        with pytest.raises(NotInIndexCone):
            geodesic_integrate(F, np.array([1.0, -2.0, -2.0]), np.eye(3)[1], 0.1)

    def test_bad_steps(self):
        F = lorentzian(3)
        x0, v0 = hyperboloid_start()
        with pytest.raises(ValueError):
            geodesic_integrate(F, x0, v0, 1.0, steps=0)

    def test_trajectory_shapes(self):
        F = lorentzian(3)
        x0, v0 = hyperboloid_start()
        traj = geodesic_integrate(F, x0, v0, 0.5, steps=100)
        assert isinstance(traj, Trajectory)
        assert traj.times.shape == (101,)
        assert traj.points.shape == (101, 3)
        assert traj.velocities.shape == (101, 3)
        assert traj.speeds.shape == (101,)
        assert traj.level_drifts.shape == (101,)
        assert traj.times[0] == 0.0 and abs(traj.times[-1] - 0.5) < 1e-15


def reference_accel(F, x, v):
    """The geodesic field as the tangent-frame construction computes it:
    re-centre (x, v) onto (W1, tangent), then solve for the tangent part of
    the acceleration in a QR tangent basis under the Hodge Gram matrix and
    add the normal part (d - 1) G(v, v) x.  An independent route to
    -1/2 phi_2^-1 phi_3(v, v)."""
    d = F.degree
    f = F.eval(x)
    xh = x * f ** (-1.0 / d)
    g = F.gradient(xh)
    vh = v - xh * ((g @ v) / (g @ xh))
    H = np.asarray(F.hessian_matrix(xh))
    scale = d * (d - 1)
    Gvv = -(vh @ H @ vh) / scale
    if d == 2:
        return Gvv * xh
    B = tangent_basis(F, xh)
    gram = -(B @ H @ B.T) / scale
    c = np.linalg.solve(gram, B @ F.third_contract(xh, vh, vh))
    return (c @ B) / (2 * scale) + (d - 1) * Gvv * xh


def positive_hermitian(rng, n):
    M = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    return fixtures.coords_from_hermitian(M @ M.conj().T + 0.5 * np.eye(n))


def shifted_first(rng, r):
    x = rng.standard_normal(r)
    x[0] = 2.0 + abs(x[0])
    return x


# fixture name -> (form, seeded draw of candidate points)
FIELD_FIXTURES = {
    "cicy1": (fixtures.cicy1_form, lambda rng: np.abs(rng.standard_normal(3))),
    "diagonal43": (lambda: diagonal(4, 3), lambda rng: shifted_first(rng, 3)),
    "quadric_power4": (lambda: quadric_power(4), lambda rng: shifted_first(rng, 4)),
    "hermdet3": (lambda: hermitian_det(3), lambda rng: positive_hermitian(rng, 3)),
    "lorentzian4": (lambda: lorentzian(4), lambda rng: shifted_first(rng, 4)),
    "hermdet2": (lambda: hermitian_det(2), lambda rng: positive_hermitian(rng, 2)),
}


def index_cone_points(name, n, seed):
    """The form and n index-cone points of a seeded draw, scaled off W1,
    each with a random ambient direction."""
    make, draw = FIELD_FIXTURES[name]
    F = make()
    rng = np.random.default_rng(seed)
    X = np.array([draw(rng) for _ in range(4 * n)])
    pts = X[classify_many(F, X).code == CODE_INDEX][:n]
    assert len(pts) == n
    return F, pts * rng.uniform(0.5, 2.0, (n, 1)), rng.standard_normal((n, F.dim))


class TestAnalyticField:
    @pytest.mark.parametrize("name", sorted(FIELD_FIXTURES))
    def test_matches_reference_field(self, name):
        F, X, V = index_cone_points(name, 8, 11)
        for x, v in zip(X, V):
            a = _field(F, x, v)[4]
            ref = reference_accel(F, x, v)
            assert np.linalg.norm(a - ref) <= 1e-10 * np.linalg.norm(ref)

    @pytest.mark.parametrize("name", ["cicy1", "diagonal43", "quadric_power4", "hermdet3"])
    def test_acceleration_keeps_tangency(self, name):
        # d/dt (grad F(x) . x') = x'^T H x' + grad F . x'' vanishes on the flow
        F, X, V = index_cone_points(name, 8, 12)
        for x, v in zip(X, V):
            f, xh, vh, H, a = _field(F, x, v)
            g = F.gradient(xh)
            vHv = vh @ H @ vh
            assert abs(F.eval(xh) - 1.0) < 1e-12 and abs(g @ vh) < 1e-12 * np.linalg.norm(g)
            assert abs(g @ a + vHv) <= 1e-10 * (np.linalg.norm(g) * np.linalg.norm(a) + abs(vHv))

    def test_quartic_power_follows_the_hyperboloid(self):
        # W1 of q^2 is the hyperboloid q = 1 with a constant multiple of its
        # Minkowski metric: x(t) = cosh(st) x0 + sinh(st)/s v0, s^2 = -q(v0).
        F = quadric_power(4)
        x0 = np.array([np.sqrt(1.0 + 0.5**2 + 0.2**2 + 0.1**2), 0.5, 0.2, 0.1])
        w = np.array([0.3, -0.8, 0.4, 0.6])
        mink = np.array([1.0, -1.0, -1.0, -1.0])
        v0 = w - ((w * mink) @ x0) * x0
        s = np.sqrt(-((v0 * mink) @ v0))
        traj = geodesic_integrate(F, x0, v0, 1.0)
        exact = np.cosh(s) * x0 + np.sinh(s) / s * v0
        assert np.max(np.abs(traj.endpoint - exact)) < 1e-9
        assert np.max(traj.level_drifts) < 1e-9


class TestNonFinite:
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_start_point(self, bad):
        with pytest.raises(NonFiniteInput, match="start point"):
            geodesic_integrate(lorentzian(3), [bad, 1.0, 0.0], [0.0, 1.0, 0.0], 0.1)

    def test_direction(self):
        x0, _ = hyperboloid_start()
        with pytest.raises(NonFiniteInput, match="direction"):
            geodesic_integrate(lorentzian(3), x0, [0.0, np.nan, 0.0], 0.1)

    def test_state_overflowing_mid_run_leaves_the_cone(self):
        x0, v0 = hyperboloid_start()
        with np.errstate(all="ignore"), pytest.raises(LeftIndexCone) as info:
            geodesic_integrate(lorentzian(3), x0, v0, 1e200, steps=2)
        assert info.value.step == 1 and info.value.t == 5e199


class TestStructuredFailure:
    def test_fields_default_to_none(self):
        assert GeodesicFailure("x").step is None and StepRejected("x").t is None
