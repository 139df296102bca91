"""Numeric sectional curvature of the unit level set W1 under the Hodge metric.

Strategy: at an index-cone point x on W1 with metric-orthonormal tangent
frame L_1, ..., L_m (m = r-1), the radial chart

    phi(u) = X / F(X)^(1/d),   X = x + sum_k u_k L_k,

pulls the metric back to the closed form

    g_ij(u) = -F~(X^(d-2), L_i, L_j) / F(X)
              + (grad F(X).L_i)(grad F(X).L_j) / (d^2 F(X)^2),

verified symbolically against -F~(phi^(d-2), d_i phi, d_j phi) before being
relied on (a one-page multilinearity computation using
F~(X^(d-1), L) = grad F(X).L / d).  Curvature then comes from first and
second central finite differences of g at u = 0 with fourth-order stencils
at steps h and h/2 plus Richardson extrapolation, so the spread of the two
estimates divided by 15 is the textbook error estimate.

The sign convention is calibrated, not assumed: with the curvature operator
R(X,Y)Z = nabla_X nabla_Y Z - nabla_Y nabla_X Z - nabla_[X,Y] Z and
K = g(R(e1,e2)e2, e1), Lorentzian quadratics come out at K = -1 exactly as
required, so no global flip is applied.

An independent cross-check builds the geodesic surface exp_x(t1 L1 + t2 L2)
on a small grid and extracts its Gauss curvature at the origin by the
Brioschi formula, which classically equals the ambient sectional curvature.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .cone import INDEX_CONE, classify, normalize_to_level, tangent_basis
from .errors import (
    ChartExit,
    DegeneratePlane,
    IllConditioned,
    NotInIndexCone,
)
from .symform import Form

__all__ = [
    "FDConfig", "SurfaceConfig", "ChartMetric", "CurvatureSample",
    "sectional_curvature_numeric", "curvature_tensor_numeric",
    "sectional_curvature_surface",
]

# fourth-order central first-derivative stencil at offsets (-2, -1, 1, 2)
W1_OFFSETS = (-2, -1, 1, 2)
W1_WEIGHTS = (1.0 / 12.0, -8.0 / 12.0, 8.0 / 12.0, -1.0 / 12.0)
# fourth-order central second-derivative stencil at offsets (-2, -1, 0, 1, 2)
W2_OFFSETS = (-2, -1, 0, 1, 2)
W2_WEIGHTS = (-1.0 / 12.0, 16.0 / 12.0, -30.0 / 12.0, 16.0 / 12.0, -1.0 / 12.0)
# largest max|g(0) - I| accepted for a metric-orthonormal chart frame
FRAME_TOL = 1e-8


@dataclass(frozen=True)
class FDConfig:
    h: float = 1e-3
    max_err: float = 1e-3
    gram_condition_floor: float = 1e-6  # eigmin/eigmax floor of the tangent Gram


@dataclass(frozen=True)
class SurfaceConfig:
    spacing: float = 0.02          # chart-coordinate grid spacing
    steps_per_unit: int = 1500     # geodesic integrator resolution
    min_steps: int = 60
    err_nominal: float = 1e-3      # tolerance class of the two-layer numerics


@dataclass(frozen=True, eq=False)
class CurvatureSample:
    point: np.ndarray
    plane: tuple
    K: float
    err_estimate: float
    method: str


class ChartMetric:
    """Batched evaluation of the radial-chart metric around a frame."""

    def __init__(self, F: Form, x, frame_vectors):
        self.F = F
        self.x = np.asarray(x, dtype=float)
        self.L = np.asarray(frame_vectors, dtype=float)  # (m, r)
        self.m = self.L.shape[0]
        self._stack = F._stack("full")

    def values(self, U):
        """Metric matrices g(u) for u in the rows of U; shape (n, m, m)."""
        U = np.asarray(U, dtype=float)
        X = self.x[None, :] + U @ self.L
        d = self.F.degree
        r = self.F.dim
        out = self._stack.eval_many(X)
        f = out[:, 0]
        if np.any(f <= 0):
            raise ChartExit("form value nonpositive inside the chart stencil")
        grad = out[:, 1:1 + r]
        H = self.F._unpack_hessian(out[:, 1 + r:])
        A = np.einsum("nab,ia,jb->nij", H, self.L, self.L) / (d * (d - 1))
        b = grad @ self.L.T
        return (-A / f[:, None, None]
                + (b[:, :, None] * b[:, None, :]) / ((d * f) ** 2)[:, None, None])

    def matrix(self, u):
        return self.values(np.asarray(u, dtype=float)[None, :])[0]


def _plane_frame(F, x, L1, L2, grad, H, basis):
    """Metric-orthonormal frame with slots 0, 1 spanning the projected plane.

    ``grad``, ``H`` and ``basis`` are the gradient, Hessian and
    :func:`tangent_basis` at x.  Projection to the tangent space is radial
    (along x), which commutes with linear pullback; completion runs metric
    Gram-Schmidt over the tangent basis, skipping dependent directions.
    Near the cone wall Gram-Schmidt can lose orthonormality; a frame whose
    metric Gram is off the identity by more than FRAME_TOL is whitened once
    by the Gram's Cholesky factor, which keeps slots 0 and 1 spanning the
    plane.
    """
    d = F.degree
    scale = d * (d - 1)

    def g(a, b):
        return -(a @ H @ b) / scale

    gx = grad @ x
    P = []
    for L in (L1, L2):
        L = np.asarray(L, dtype=float)
        w = L - x * ((grad @ L) / gx)
        nw = np.linalg.norm(w)
        if nw < 1e-14:
            raise DegeneratePlane("plane vector projects to zero")
        P.append(w / nw)
    gram = np.array([[g(P[0], P[0]), g(P[0], P[1])],
                     [g(P[1], P[0]), g(P[1], P[1])]])
    if np.linalg.det(gram) < 1e-12:
        raise DegeneratePlane(f"projected plane Gram determinant {np.linalg.det(gram):g}")
    frame = []
    for w in P:
        v = w.copy()
        for u in frame:
            v = v - g(v, u) * u
        nn = g(v, v)
        if nn < 1e-12:
            raise DegeneratePlane("projected plane vectors are metrically dependent")
        frame.append(v / np.sqrt(nn))
    for cand in basis:
        if len(frame) == F.dim - 1:
            break
        v = cand.copy()
        for u in frame:
            v = v - g(v, u) * u
        nn = g(v, v)
        if nn < 1e-10:
            continue
        frame.append(v / np.sqrt(nn))
    if len(frame) != F.dim - 1:
        raise DegeneratePlane("could not complete the plane to a full frame")
    frame = np.asarray(frame)
    gram = -(frame @ H @ frame.T) / scale
    if np.max(np.abs(gram - np.eye(len(frame)))) > FRAME_TOL:
        frame = np.linalg.solve(np.linalg.cholesky(gram), frame)
    return frame


def _prepare(F, x, L1, L2, cfg):
    xn = normalize_to_level(F, x)
    cp = classify(F, xn)
    if cp.classification != INDEX_CONE:
        raise NotInIndexCone(f"classification is {cp.classification}")
    H = np.asarray(F.hessian_matrix(xn))
    basis = tangent_basis(F, xn)
    gram = -(basis @ H @ basis.T) / (F.degree * (F.degree - 1))
    eig = np.linalg.eigvalsh(gram)
    if eig[0] <= 0 or eig[0] / eig[-1] < cfg.gram_condition_floor:
        raise IllConditioned(
            f"tangent Gram conditioning {eig[0]:.3g}/{eig[-1]:.3g} below floor")
    frame = _plane_frame(F, xn, L1, L2, cp.grad, H, basis)
    return xn, frame


def _first_and_second_diffs(cm: ChartMetric, h: float, pairs):
    """dg/du_a for all a, and d2g/du_a du_b for the requested pairs.

    Returns (G1, G2) with G1 of shape (m, m, m) and G2 a dict over pairs.
    One batched metric evaluation covers the whole stencil.
    """
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
        if a == b:
            for k in W1_OFFSETS:
                row_for({a: k})
        else:
            for ka in W1_OFFSETS:
                for kb in W1_OFFSETS:
                    row_for({a: ka, b: kb})
    vals = cm.values(np.asarray(rows))
    g0 = vals[0]

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
                acc += w * (g0 if k == 0 else at({a: k}))
            G2[(a, b)] = acc / h ** 2
        else:
            for ka, wa in zip(W1_OFFSETS, W1_WEIGHTS):
                for kb, wb in zip(W1_OFFSETS, W1_WEIGHTS):
                    acc += wa * wb * at({a: ka, b: kb})
            G2[(a, b)] = acc / h ** 2
    return g0, G1, G2


def _christoffels(G1):
    """Gamma[l, j, k] = Gamma^l_jk at u = 0, where g(0) = identity."""
    # Gamma^l_jk = 1/2 (d_j g_kl + d_k g_jl - d_l g_jk)
    return 0.5 * (np.einsum("jkl->ljk", G1) + np.einsum("kjl->ljk", G1)
                  - np.einsum("ljk->ljk", G1))


def _dgamma(G1, G2, Gamma, a, l, j, k):
    """d_a Gamma^l_jk at u = 0 (identity metric, so dg^{-1} = -dg)."""
    corr = -np.dot(G1[a][l], Gamma[:, j, k])
    second = 0.5 * (_g2(G2, a, j)[k, l] + _g2(G2, a, k)[j, l] - _g2(G2, a, l)[j, k])
    return corr + second


def _g2(G2, a, b):
    return G2[(a, b)] if (a, b) in G2 else G2[(b, a)]


def _K_at_step(cm, h):
    """Sectional curvature of the (e0, e1) chart plane from one step size."""
    m = cm.m
    pairs = [(0, 0), (1, 1), (0, 1)]
    g0, G1, G2 = _first_and_second_diffs(cm, h, pairs)
    if np.max(np.abs(g0 - np.eye(m))) > FRAME_TOL:
        raise IllConditioned("chart metric at 0 is not the identity; frame drifted")
    Gamma = _christoffels(G1)
    d0_G011 = _dgamma(G1, G2, Gamma, 0, 0, 1, 1)
    d1_G001 = _dgamma(G1, G2, Gamma, 1, 0, 0, 1)
    quad = float(Gamma[:, 1, 1] @ Gamma[0, 0, :] - Gamma[:, 0, 1] @ Gamma[0, 1, :])
    return d0_G011 - d1_G001 + quad


def sectional_curvature_numeric(F: Form, x, L1, L2, cfg: FDConfig = FDConfig()) -> CurvatureSample:
    """Sectional curvature K(span{L1, L2}) at x (normalized onto W1).

    Richardson-extrapolated from steps h and h/2; err_estimate is
    |K_h - K_{h/2}| / 15 and must stay below cfg.max_err.
    """
    xn, frame = _prepare(F, x, L1, L2, cfg)
    cm = ChartMetric(F, xn, frame)
    K_h = _K_at_step(cm, cfg.h)
    K_h2 = _K_at_step(cm, cfg.h / 2)
    K = (16.0 * K_h2 - K_h) / 15.0
    err = abs(K_h - K_h2) / 15.0
    if err > cfg.max_err:
        raise IllConditioned(f"Richardson error estimate {err:g} exceeds {cfg.max_err:g}")
    return CurvatureSample(point=xn, plane=(frame[0], frame[1]), K=float(K),
                           err_estimate=float(err), method="finite_difference")


@dataclass(frozen=True, eq=False)
class TensorResult:
    tensor: np.ndarray  # R[i, j, k, l] = g(R(e_i, e_j) e_k, e_l)
    err_estimate: float
    frame: np.ndarray
    point: np.ndarray


def _tensor_at_step(cm, h):
    m = cm.m
    pairs = [(a, b) for a in range(m) for b in range(a, m)]
    g0, G1, G2 = _first_and_second_diffs(cm, h, pairs)
    if np.max(np.abs(g0 - np.eye(m))) > FRAME_TOL:
        raise IllConditioned("chart metric at 0 is not the identity; frame drifted")
    Gamma = _christoffels(G1)
    dG = np.zeros((m, m, m, m))  # dG[a, l, j, k] = d_a Gamma^l_jk
    for a in range(m):
        for l in range(m):
            for j in range(m):
                for k in range(m):
                    dG[a, l, j, k] = _dgamma(G1, G2, Gamma, a, l, j, k)
    # R^l_ijk = d_i Gamma^l_jk - d_j Gamma^l_ik + Gamma^s_jk Gamma^l_is - Gamma^s_ik Gamma^l_js
    Rup = (np.einsum("iljk->ijkl", dG) - np.einsum("jlik->ijkl", dG)
           + np.einsum("sjk,lis->ijkl", Gamma, Gamma)
           - np.einsum("sik,ljs->ijkl", Gamma, Gamma))
    return Rup  # with g = identity, R_{ijkl} = R^l_ijk as stored


def curvature_tensor_numeric(F: Form, x, frame, cfg: FDConfig = FDConfig()) -> TensorResult:
    """Full curvature tensor R_{ijkl} = g(R(e_i,e_j)e_k, e_l) over the frame.

    ``frame`` is a TangentFrame (or an (m, r) array of metric-orthonormal
    tangent vectors at x, which must already lie on W1 in the index cone).
    """
    vectors = getattr(frame, "vectors", frame)
    xn = normalize_to_level(F, x)
    cp = classify(F, xn)
    if cp.classification != INDEX_CONE:
        raise NotInIndexCone(f"classification is {cp.classification}")
    cm = ChartMetric(F, xn, vectors)
    R_h = _tensor_at_step(cm, cfg.h)
    R_h2 = _tensor_at_step(cm, cfg.h / 2)
    R = (16.0 * R_h2 - R_h) / 15.0
    err = float(np.max(np.abs(R_h - R_h2)) / 15.0)
    if err > cfg.max_err:
        raise IllConditioned(f"Richardson error estimate {err:g} exceeds {cfg.max_err:g}")
    return TensorResult(tensor=R, err_estimate=err, frame=np.asarray(vectors), point=xn)


def sectional_curvature_surface(F: Form, x, L1, L2,
                                cfg: SurfaceConfig = SurfaceConfig(),
                                fd_cfg: FDConfig = FDConfig()) -> CurvatureSample:
    """Sectional curvature via the exponential surface, independent of the chart.

    Shoots geodesics exp_x(t1 e1 + t2 e2) on a 9x9 grid, forms the first
    fundamental form E, F, G at the inner 5x5 nodes from finite-difference
    tangents and the ambient metric, and evaluates the Brioschi formula at
    the center with fourth-order stencils.
    """
    from .geodesic import exp_map  # local import; geodesic depends on cone only

    xn, frame = _prepare(F, x, L1, L2, fd_cfg)
    e1, e2 = frame[0], frame[1]
    delta = cfg.spacing
    span = range(-4, 5)
    pts = {}
    for i in span:
        for j in span:
            v = (i * delta) * e1 + (j * delta) * e2
            speed = delta * float(np.hypot(i, j))
            steps = max(cfg.min_steps, int(round(cfg.steps_per_unit * speed)))
            pts[(i, j)] = xn.copy() if (i == 0 and j == 0) else exp_map(F, xn, v, steps=steps)

    w = np.array(W1_WEIGHTS) / delta
    inner = range(-2, 3)
    d = F.degree
    scale = d * (d - 1)
    EFG = {}
    for i in inner:
        for j in inner:
            Su = sum(wk * pts[(i + k, j)] for k, wk in zip(W1_OFFSETS, w))
            Sv = sum(wk * pts[(i, j + k)] for k, wk in zip(W1_OFFSETS, w))
            H = np.asarray(F.hessian_matrix(pts[(i, j)]))
            EFG[(i, j)] = (-(Su @ H @ Su) / scale,
                           -(Su @ H @ Sv) / scale,
                           -(Sv @ H @ Sv) / scale)

    def center_stencils(idx):
        vals = {k: v[idx] for k, v in EFG.items()}
        w1 = np.array(W1_WEIGHTS) / delta
        w2 = np.array(W2_WEIGHTS) / delta ** 2
        du = sum(wk * vals[(k, 0)] for k, wk in zip(W1_OFFSETS, w1))
        dv = sum(wk * vals[(0, k)] for k, wk in zip(W1_OFFSETS, w1))
        duu = sum(wk * vals[(k, 0)] for k, wk in zip(W2_OFFSETS, w2))
        dvv = sum(wk * vals[(0, k)] for k, wk in zip(W2_OFFSETS, w2))
        duv = sum(wa * wb * vals[(ka, kb)]
                  for ka, wa in zip(W1_OFFSETS, w1)
                  for kb, wb in zip(W1_OFFSETS, w1))
        return vals[(0, 0)], du, dv, duu, dvv, duv

    E0, E_u, E_v, _, E_vv, _ = center_stencils(0)
    F0, F_u, F_v, _, _, F_uv = center_stencils(1)
    G0, G_u, G_v, G_uu, _, _ = center_stencils(2)

    M1 = np.array([
        [-0.5 * E_vv + F_uv - 0.5 * G_uu, 0.5 * E_u, F_u - 0.5 * E_v],
        [F_v - 0.5 * G_u, E0, F0],
        [0.5 * G_v, F0, G0],
    ])
    M2 = np.array([
        [0.0, 0.5 * E_v, 0.5 * G_u],
        [0.5 * E_v, E0, F0],
        [0.5 * G_u, F0, G0],
    ])
    K = (np.linalg.det(M1) - np.linalg.det(M2)) / (E0 * G0 - F0 ** 2) ** 2
    return CurvatureSample(point=xn, plane=(e1, e2), K=float(K),
                           err_estimate=cfg.err_nominal, method="surface_expansion")
