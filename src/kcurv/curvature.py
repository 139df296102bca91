"""Numeric sectional curvature of the unit level set W1 under the Hodge metric.

Strategy: at an index-cone point x on W1 with metric-orthonormal tangent
frame L_1, ..., L_m (m = r-1), the radial chart

    phi(u) = X / F(X)^(1/d),   X = x + sum_k u_k L_k,

pulls the metric back to the closed form

    g_ij(u) = -F~(X^(d-2), L_i, L_j) / F(X)
              + (grad F(X).L_i)(grad F(X).L_j) / (d^2 F(X)^2),

verified symbolically against -F~(phi^(d-2), d_i phi, d_j phi) before being
relied on (a one-page multilinearity computation using
F~(X^(d-1), L) = grad F(X).L / d).  One routine, ``_riemann_at_step``,
evaluates g on a fourth-order central stencil around u = 0 in a single
batch, takes dg on every axis and d2g on the requested axis pairs, and
since g(0) = I reads the whole tensor off one closed formula:

    R_ijkl = 1/2 (d_i d_k g_jl - d_i d_l g_jk - d_j d_k g_il + d_j d_l g_ik)
             - d_i g_lp Gamma^p_jk + d_j g_lp Gamma^p_ik
             + Gamma^s_jk Gamma^l_is - Gamma^s_ik Gamma^l_js,

with Gamma^l_jk = 1/2 (d_j g_kl + d_k g_jl - d_l g_jk).  The sectional
curvature of the (e_0, e_1) plane is R_0110 and needs d2g on three pairs
only; the full tensor needs every pair.  Both run at steps h and h/2 and
are Richardson-extrapolated, so the spread of the two estimates divided by
15 is the textbook error estimate.

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

from .cone import INDEX_CONE, _gram_schmidt, classify, normalize_to_level, tangent_basis
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


def _plane_frame(x, L1, L2, grad, G, basis):
    """Metric-orthonormal frame with slots 0, 1 spanning the projected plane.

    ``grad``, ``G`` and ``basis`` are the gradient, the Hodge metric matrix
    ``-ConePoint.Q`` and :func:`tangent_basis` at x.  Projection to the
    tangent space is radial (along x), which commutes with linear pullback;
    completion runs metric Gram-Schmidt over the tangent basis, skipping
    dependent directions.  Near the cone wall Gram-Schmidt can lose
    orthonormality; a frame whose metric Gram is off the identity by more
    than FRAME_TOL is whitened once by the Gram's Cholesky factor, which
    keeps slots 0 and 1 spanning the plane.
    """
    gx = grad @ x
    P = []
    for L in (L1, L2):
        L = np.asarray(L, dtype=float)
        w = L - x * ((grad @ L) / gx)
        nw = np.linalg.norm(w)
        if nw < 1e-14:
            raise DegeneratePlane("plane vector projects to zero")
        P.append(w / nw)
    P = np.asarray(P)
    det = np.linalg.det(P @ G @ P.T)
    if det < 1e-12:
        raise DegeneratePlane(f"projected plane Gram determinant {det:g}")
    frame = _gram_schmidt(G, P)
    if len(frame) < 2:
        raise DegeneratePlane("projected plane vectors are metrically dependent")
    frame = _gram_schmidt(G, basis, frame, floor=1e-10, size=len(basis))
    if len(frame) != len(basis):
        raise DegeneratePlane("could not complete the plane to a full frame")
    frame = np.asarray(frame)
    gram = frame @ G @ frame.T
    if np.max(np.abs(gram - np.eye(len(frame)))) > FRAME_TOL:
        frame = np.linalg.solve(np.linalg.cholesky(gram), frame)
    return frame


def _prepare(F, x, L1, L2, cfg):
    xn = normalize_to_level(F, x)
    cp = classify(F, xn)
    if cp.classification != INDEX_CONE:
        raise NotInIndexCone(f"classification is {cp.classification}")
    G = -cp.Q
    basis = tangent_basis(F, xn)
    eig = np.linalg.eigvalsh(basis @ G @ basis.T)
    if eig[0] <= 0 or eig[0] / eig[-1] < cfg.gram_condition_floor:
        raise IllConditioned(
            f"tangent Gram conditioning {eig[0]:.3g}/{eig[-1]:.3g} below floor")
    return xn, _plane_frame(xn, L1, L2, cp.grad, G, basis)


def _riemann_at_step(cm: ChartMetric, h: float, pairs):
    """R[i, j, k, l] = g(R(e_i, e_j) e_k, e_l) at u = 0 from one step size h.

    One batched metric evaluation covers the stencil: the origin, 4 rows per
    axis and 16 rows per mixed pair of ``pairs``.  dg comes from every axis,
    d2g only from ``pairs`` (other blocks stay zero, so only the entries that
    need no other second derivative are meaningful).
    """
    m = cm.m
    eye = np.eye(m)
    k = np.array(W1_OFFSETS) * h
    diag = [a for a, b in pairs if a == b]
    mixed = [(a, b) for a, b in pairs if a != b]
    rows = [np.zeros((1, m)), (k[None, :, None] * eye[:, None, :]).reshape(4 * m, m)]
    rows += [(k[:, None, None] * eye[a] + k[None, :, None] * eye[b]).reshape(16, m)
             for a, b in mixed]
    V = cm.values(np.concatenate(rows))
    g0 = V[0]
    if np.max(np.abs(g0 - eye)) > FRAME_TOL:
        raise IllConditioned("chart metric at 0 is not the identity; frame drifted")
    w1, w2 = np.array(W1_WEIGHTS), np.array(W2_WEIGHTS)
    Vax = V[1:1 + 4 * m].reshape(m, 4, m, m)
    dg = np.einsum("k,akij->aij", w1, Vax) / h  # dg[a, i, j] = d_a g_ij
    d2g = np.zeros((m, m, m, m))                # d2g[a, b, i, j] = d_a d_b g_ij
    d2g[diag, diag] = (np.einsum("k,akij->aij", w2[[0, 1, 3, 4]], Vax[diag])
                       + w2[2] * g0) / h ** 2
    if mixed:
        a, b = np.array(mixed).T
        Vmix = V[1 + 4 * m:].reshape(len(mixed), 4, 4, m, m)
        d2g[a, b] = d2g[b, a] = np.einsum("k,l,pklij->pij", w1, w1, Vmix) / h ** 2
    # Gam[l, j, k] = Gamma^l_jk = 1/2 (d_j g_kl + d_k g_jl - d_l g_jk)
    Gam = 0.5 * (np.einsum("jkl->ljk", dg) + np.einsum("kjl->ljk", dg) - dg)
    return (0.5 * (np.einsum("ikjl->ijkl", d2g) - np.einsum("iljk->ijkl", d2g)
                   - np.einsum("jkil->ijkl", d2g) + np.einsum("jlik->ijkl", d2g))
            - np.einsum("ilp,pjk->ijkl", dg, Gam) + np.einsum("jlp,pik->ijkl", dg, Gam)
            + np.einsum("sjk,lis->ijkl", Gam, Gam) - np.einsum("sik,ljs->ijkl", Gam, Gam))


def _extrapolate(cm, cfg, pairs, part=...):
    """Richardson extrapolation of ``_riemann_at_step(cm, h, pairs)[part]``
    from steps h and h/2; the error estimate max|R_h - R_{h/2}| / 15 must
    stay below cfg.max_err."""
    R_h = _riemann_at_step(cm, cfg.h, pairs)[part]
    R_h2 = _riemann_at_step(cm, cfg.h / 2, pairs)[part]
    err = float(np.max(np.abs(R_h - R_h2)) / 15.0)
    if err > cfg.max_err:
        raise IllConditioned(f"Richardson error estimate {err:g} exceeds {cfg.max_err:g}")
    return (16.0 * R_h2 - R_h) / 15.0, err


def sectional_curvature_numeric(F: Form, x, L1, L2, cfg: FDConfig = FDConfig()) -> CurvatureSample:
    """Sectional curvature K(span{L1, L2}) at x (normalized onto W1).

    K = R[0, 1, 1, 0] over a frame whose first two slots span the plane,
    Richardson-extrapolated from steps h and h/2; err_estimate is
    |K_h - K_{h/2}| / 15 and must stay below cfg.max_err.
    """
    xn, frame = _prepare(F, x, L1, L2, cfg)
    K, err = _extrapolate(ChartMetric(F, xn, frame), cfg, ((0, 0), (1, 1), (0, 1)),
                          (0, 1, 1, 0))
    return CurvatureSample(point=xn, plane=(frame[0], frame[1]), K=float(K),
                           err_estimate=err, method="finite_difference")


@dataclass(frozen=True, eq=False)
class TensorResult:
    tensor: np.ndarray  # R[i, j, k, l] = g(R(e_i, e_j) e_k, e_l)
    err_estimate: float
    frame: np.ndarray
    point: np.ndarray


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
    R, err = _extrapolate(cm, cfg, [(a, b) for a in range(cm.m) for b in range(a, cm.m)])
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
