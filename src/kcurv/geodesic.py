"""Geodesic flow on the unit level set W1 = {F = 1} under the Hodge metric.

On the index cone the Hessian metric of phi = -log F splits the cone as
R x W1 with W1 totally geodesic, and restricts to W1 as d(d-1) times the
Hodge metric (Wilson, "Sectional curvatures of Kahler moduli", arXiv
math/0307260; Totaro, "The curvature of a Hessian metric", IJM 2004).  So
geodesics of W1 solve x'' = -Gamma(x', x') with Gamma = 1/2 phi_2^-1 phi_3.
At F(x) = 1, with g = grad F, H = Hess F and v = x' tangent (g . v = 0),

    phi_2 = -H + g g^T,    phi_3(v, v) = -D^3F(v, v) + (v^T H v) g,

so the acceleration costs one evaluation of F, g and H (D^3F is constant
for cubics) and one r x r solve.  The exact flow keeps F = 1 and tangency:
phi_2 x = g gives g . x'' = -v^T H v.

Fixed-step RK4 integrates the flow.  Every stage re-centres its input by
homogeneity: with s = F(x)^(-1/d), x moves to s x, where g and H are
s^(d-1) and s^(d-2) times their values at x, and v loses its radial part.
The stage-1 evaluation of each step also checks the step just taken: the
level drift |F - 1| before renormalisation (recorded; it stays near the RK4
local truncation error), the index-cone test and the conserved speed.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .cone import CLASSES, CODE_DEGENERATE, CODE_INDEX, INDEX_CONE, classify, signature_codes
from .errors import (GeodesicFailure, LeftIndexCone, NonFiniteInput, NonpositiveValue,
                     NotInIndexCone, StepRejected)
from .symform import Form

__all__ = ["Trajectory", "geodesic_integrate", "exp_map"]

DEFAULT_STEPS_PER_UNIT_TIME = 1000
SPEED_DRIFT_TOL = 1e-6


@dataclass(frozen=True, eq=False)
class Trajectory:
    """Sampled geodesic: node times, points on W1, tangent velocities,
    Hodge speeds, and the per-step level drift |F(x) - 1| measured before
    renormalization (index 0 is trivially zero)."""

    times: np.ndarray
    points: np.ndarray
    velocities: np.ndarray
    speeds: np.ndarray
    level_drifts: np.ndarray

    @property
    def endpoint(self):
        return self.points[-1]


def _field(F: Form, x, v, where="is nonpositive"):
    """(F(x), x^, v^, Hess F(x^), -1/2 phi_2^-1 phi_3(v^, v^)) from one stacked
    evaluation at x, where (x^, v^) is (x, v) re-centred onto (W1, tangent).
    Raises LeftIndexCone when F(x) <= 0 (message ending in ``where``) or the
    state is not finite."""
    d, r = F.degree, F.dim
    out = F._stack("full").eval_many(x[None, :])[0]
    f = out[0]
    if f <= 0:
        raise LeftIndexCone(f"form value {f:g} {where}")
    if not (np.isfinite(out).all() and np.isfinite(v).all()):
        raise LeftIndexCone("the state is not finite")
    s = f ** (-1.0 / d)
    xh = x * s
    g = out[1:1 + r] * s ** (d - 1)
    H = F._unpack_hessian(out[None, 1 + r:])[0] * s ** (d - 2)
    vh = v - xh * ((g @ v) / (g @ xh))
    phi3 = (vh @ H @ vh) * g - F.third_contract(xh, vh, vh)
    return f, xh, vh, H, np.linalg.solve(g[:, None] * g - H, -0.5 * phi3)


def geodesic_integrate(F: Form, x0, v0, T: float, steps: int | None = None) -> Trajectory:
    """Integrate the geodesic through x0 with initial velocity v0 for time T.

    x0 is normalized onto W1 and v0 projected onto its tangent space first
    (a documented convenience; pass exact data to skip any adjustment).
    Fixed-step RK4 with ``steps`` steps, defaulting to 1000 per unit time.
    Raises NonFiniteInput for a NaN or infinite start, LeftIndexCone if the
    trajectory exits the index cone and StepRejected if the conserved Hodge
    speed drifts beyond tolerance; mid-run failures carry ``step`` and ``t``.
    """
    x0 = np.asarray(x0, dtype=float)
    v0 = np.asarray(v0, dtype=float)
    for name, arr in (("start point", x0), ("direction", v0)):
        if not np.isfinite(arr).all():
            raise NonFiniteInput(f"{name} {arr.tolist()} is not finite")
    try:
        _, x, v, H, a = _field(F, x0, v0)
    except LeftIndexCone as exc:
        raise NonpositiveValue(str(exc)) from exc
    cp = classify(F, x)
    if cp.classification != INDEX_CONE:
        raise NotInIndexCone(f"classification is {cp.classification}")

    if steps is None:
        steps = max(1, int(round(DEFAULT_STEPS_PER_UNIT_TIME * abs(T))))
    if steps < 1:
        raise ValueError("steps must be a positive integer")
    h = T / steps
    scale = F.degree * (F.degree - 1)

    G0 = -(v @ H @ v) / scale
    times = np.empty(steps + 1)
    points = np.empty((steps + 1, F.dim))
    velocities = np.empty_like(points)
    speeds = np.empty(steps + 1)
    drifts = np.zeros(steps + 1)
    times[0], points[0], velocities[0] = 0.0, x, v
    speeds[0] = np.sqrt(max(G0, 0.0))

    for n in range(steps):
        try:
            k2x = v + 0.5 * h * a
            k2v = _field(F, x + 0.5 * h * v, k2x)[4]
            k3x = v + 0.5 * h * k2v
            k3v = _field(F, x + 0.5 * h * k2x, k3x)[4]
            k4x = v + h * k3v
            k4v = _field(F, x + h * k3x, k4x)[4]
            x_new = x + (h / 6.0) * (v + 2 * k2x + 2 * k3x + k4x)
            v_new = v + (h / 6.0) * (a + 2 * k2v + 2 * k3v + k4v)
            # stage 1 of the next step: recentres and checks this one
            f_pre, x, v, H, a = _field(F, x_new, v_new, f"after step {n + 1}")
            code = signature_codes(f_pre, H[None])[0][0]
            if code != CODE_INDEX:
                what = ("near-degenerate Hessian" if code == CODE_DEGENERATE
                        else f"classification {CLASSES[code]}")
                raise LeftIndexCone(f"{what} after step {n + 1}")
            G_now = -(v @ H @ v) / scale
            if abs(G_now - G0) > SPEED_DRIFT_TOL * max(1.0, abs(G0)):
                raise StepRejected(
                    f"speed^2 drifted by {abs(G_now - G0):g} at step {n + 1}")
        except GeodesicFailure as exc:
            exc.step, exc.t = n + 1, (n + 1) * h
            raise
        times[n + 1] = (n + 1) * h
        points[n + 1] = x
        velocities[n + 1] = v
        speeds[n + 1] = np.sqrt(max(G_now, 0.0))
        drifts[n + 1] = abs(f_pre - 1.0)

    return Trajectory(times=times, points=points, velocities=velocities,
                      speeds=speeds, level_drifts=drifts)


def exp_map(F: Form, x0, v, steps: int | None = None) -> np.ndarray:
    """Riemannian exponential: endpoint of the unit-time geodesic from x0
    with initial velocity v."""
    if steps is None:
        speed = float(np.linalg.norm(np.asarray(v, dtype=float)))
        steps = max(1, int(round(DEFAULT_STEPS_PER_UNIT_TIME * max(speed, 1e-3))))
    return geodesic_integrate(F, x0, v, 1.0, steps=steps).endpoint
