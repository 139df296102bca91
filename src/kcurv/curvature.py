"""Sectional curvature of the unit level set W1 under the Hodge metric.

Two routes share one plane frame (``_prepare``).  The analytic route reads K
off the curvature of the Hessian metric of phi = -log F, which splits the
index cone as R x W1 with W1 totally geodesic and restricts to W1 as
d(d-1) times the Hodge metric (Wilson, arXiv math/0307260; Totaro, "The
curvature of a Hessian metric", IJM 2004).  Totaro's
4R(a,b,b,a) = phi3(a,b) phi2^-1 phi3(a,b) - phi3(a,a) phi2^-1 phi3(b,b)
becomes, for a and b tangent at x (any scale, by homogeneity), with
phi2^-1 = -H^-1 + x x^T/(d-1) at F = 1 and the Euler identities,

    K = d(d-1)/4 F tr(H^-1 C) / tr(H w H w^T) - d^2/4,
    C_kl = tr(T_k w T_l w^T),   w = a b^T - b a^T,

where H = Hess F and T_k = d_k Hess F.  It needs no d-th root, frame or
division by F.  The same numerator written as 1/2 tr(H^-1 C) =
u(a,a) H^-1 u(b,b) - u(a,b) H^-1 u(a,b), u(p,q) = D^3F(p,q,.), cancels at
about eps cond(H)^2; the w form does not: on diagonal forms every C_kl
carries a diagonal entry of w, which is exactly zero, so K = -d^2/4 comes
out exactly.  The scan uses this route, batched over samples.

The finite-difference route is the independent oracle.  At an index-cone
point x on W1 with metric-orthonormal tangent frame L_1, ..., L_m
(m = r-1), the radial chart

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

from .cone import (
    CLASSES,
    CODE_DEGENERATE,
    CODE_INDEX,
    DEFAULT_TOL,
    INDEX_CONE,
    classify,
    normalize_to_level,
    signature_codes,
)
from .errors import (
    ChartExit,
    DegeneratePlane,
    DimensionMismatch,
    IllConditioned,
    NearDegenerate,
    NotInIndexCone,
)
from .symform import Form

__all__ = [
    "FDConfig", "ChartMetric", "CurvatureSample",
    "sectional_curvature_numeric", "curvature_tensor_numeric",
    "sectional_curvature_surface", "sectional_curvature_analytic",
]

# fourth-order central first-derivative stencil at offsets (-2, -1, 1, 2)
W1_OFFSETS = (-2, -1, 1, 2)
W1_WEIGHTS = (1.0 / 12.0, -8.0 / 12.0, 8.0 / 12.0, -1.0 / 12.0)
# fourth-order central second-derivative stencil at offsets (-2, -1, 0, 1, 2)
W2_OFFSETS = (-2, -1, 0, 1, 2)
W2_WEIGHTS = (-1.0 / 12.0, 16.0 / 12.0, -30.0 / 12.0, 16.0 / 12.0, -1.0 / 12.0)
# largest max|g(0) - I| accepted for a metric-orthonormal chart frame
FRAME_TOL = 1e-8
# exponential-surface cross-check: grid spacing, RK4 steps per unit length
# (at least SURFACE_MIN_STEPS) and the nominal error of the two-layer numerics
SURFACE_SPACING = 0.02
SURFACE_STEPS_PER_UNIT = 1500
SURFACE_MIN_STEPS = 60
SURFACE_ERR = 1e-3


@dataclass(frozen=True)
class FDConfig:
    h: float = 1e-3
    max_err: float = 1e-3
    gram_condition_floor: float = 1e-6  # eigmin/eigmax floor of the tangent Gram


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


def _prepare(F, X, L1, L2, cfg: FDConfig = FDConfig()):
    """(rows of X on W1, metric-orthonormal frames, refusals) for the planes
    span{L1[n], L2[n]} at the points X[n], over a batch of rows.

    The rows of L1 and L2 are projected radially (along x) onto the tangent
    space, which commutes with linear pullback.  One QR of [grad, L1, L2, I]
    gives a Euclidean-orthonormal tangent basis B whose rows 0 and 1 span
    the plane; the Cholesky factor C of its Hodge Gram B G B^T whitens it,
    and since C^-1 is lower triangular, rows 0 and 1 of C^-1 B still span
    the plane.  refusals[n] is None or the first refusal of row n, in check
    order: NearDegenerate (classifier band at the normalized point),
    DegeneratePlane (zero projection), IllConditioned (tangent Gram below
    cfg.gram_condition_floor), DegeneratePlane (plane Gram determinant
    below 1e-12); a refused row's frame is meaningless.  A row that is
    cleanly outside the index cone raises NotInIndexCone.
    """
    X = normalize_to_level(F, X)
    n, r = X.shape
    d = F.degree
    for name, L in (("plane vector L1", L1), ("plane vector L2", L2)):
        if np.shape(L)[1:] != (r,):
            raise DimensionMismatch(f"{name} has shape {np.shape(L)[1:]}, expected ({r},)")
    out = F._stack("full").eval_many(X)
    grad = out[:, 1:1 + r]
    Q = F._unpack_hessian(out[:, 1 + r:]) / (d * (d - 1))
    code = signature_codes(out[:, 0], Q)[0]
    outside = np.flatnonzero((code != CODE_INDEX) & (code != CODE_DEGENERATE))
    if outside.size:
        raise NotInIndexCone(f"classification is {CLASSES[code[outside[0]]]}")
    refusals = [None] * n

    def refuse(rows, make):
        for i in np.flatnonzero(rows):
            if refusals[i] is None:
                refusals[i] = make(i)

    refuse(code == CODE_DEGENERATE, lambda i: NearDegenerate(
        f"eigenvalue within {DEFAULT_TOL:g} relative band of zero at {X[i].tolist()}"))
    G = -Q
    P = np.stack([L1, L2], axis=1).astype(float)
    P -= (P @ grad[:, :, None] / np.einsum("ni,ni->n", grad, X)[:, None, None]) * X[:, None, :]
    norms = np.linalg.norm(P, axis=2)
    zero = norms.min(axis=1) < 1e-14
    refuse(zero, lambda i: DegeneratePlane("plane vector projects to zero"))
    P /= np.where(zero[:, None], 1.0, norms)[:, :, None]
    basis = np.concatenate([grad[:, :, None], P.transpose(0, 2, 1),
                            np.broadcast_to(np.eye(r), (n, r, r))], axis=2)
    B = np.linalg.qr(basis)[0][:, :, 1:r].transpose(0, 2, 1)
    gram = B @ G @ B.transpose(0, 2, 1)
    eig = np.linalg.eigvalsh(gram)
    lo, hi = eig[:, 0], eig[:, -1]
    ill = (lo <= 0) | (lo / np.where(lo > 0, hi, 1.0) < cfg.gram_condition_floor)
    refuse(ill, lambda i: IllConditioned(
        f"tangent Gram conditioning {lo[i]:.3g}/{hi[i]:.3g} below floor"))
    det = np.linalg.det(P @ G @ P.transpose(0, 2, 1))
    refuse(det < 1e-12, lambda i: DegeneratePlane(f"projected plane Gram determinant {det[i]:g}"))
    ok = np.array([e is None for e in refusals], dtype=bool)
    gram[~ok] = np.eye(r - 1)
    return X, np.linalg.solve(np.linalg.cholesky(gram), B), refusals


def _prepare_row(F, x, L1, L2, cfg: FDConfig = FDConfig()):
    """:func:`_prepare` on one point: (x on W1, frame), raising the refusal."""
    X, frames, refusals = _prepare(F, np.asarray(x, dtype=float)[None], [L1], [L2], cfg)
    if refusals[0] is not None:
        raise refusals[0]
    return X[0], frames[0]


def _analytic_K(F, X, A, B):
    """Hodge sectional curvature of span{A[n], B[n]} at the index-cone points
    X[n] (any scale; A and B tangent there), from the curvature of the
    Hessian metric of phi = -log F (see the module docstring):

        K = d(d-1)/4 F tr(H^-1 C) / tr(H w H w^T) - d^2/4,
        C_kl = tr(T_k w T_l w^T),   w = a b^T - b a^T,

    with H = Hess F and T_k = d_k Hess F.  w^T = -w turns both traces into
    contractions of the products T_k w and H w.
    """
    d, r = F.degree, F.dim
    if d < 3:
        return np.full(len(X), -d * d / 4.0)
    out = F._stack("full").eval_many(X)
    H = F._unpack_hessian(out[:, 1 + r:])
    W = A[:, :, None] * B[:, None, :] - B[:, :, None] * A[:, None, :]
    HW = H @ W
    den = -np.einsum("nij,nji->n", HW, HW)
    stack, gather = F._third_stack()
    TW = stack.eval_many(X).take(gather, axis=1) @ W[:, None]
    C = -np.einsum("nkim,nlmi->nkl", TW, TW)
    num = np.einsum("nii->n", np.linalg.solve(H, C))
    return d * (d - 1) / 4.0 * out[:, 0] * num / den - d * d / 4.0


def sectional_curvature_analytic(F: Form, x, L1, L2) -> CurvatureSample:
    """Sectional curvature K(span{L1, L2}) at x (normalized onto W1) from the
    closed form of :func:`_analytic_K`; the plane frame and its refusals
    are those of the finite-difference engine, and err_estimate is 0."""
    xn, frame = _prepare_row(F, x, L1, L2)
    K = _analytic_K(F, xn[None], frame[None, 0], frame[None, 1])[0]
    return CurvatureSample(point=xn, plane=(frame[0], frame[1]), K=float(K),
                           err_estimate=0.0, method="analytic")


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
    xn, frame = _prepare_row(F, x, L1, L2, cfg)
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


def sectional_curvature_surface(F: Form, x, L1, L2) -> CurvatureSample:
    """Sectional curvature via the exponential surface, independent of the chart.

    Shoots geodesics exp_x(t1 e1 + t2 e2) to the nodes of a 9x9 grid that
    the stencils read (the 16 corners with min(|i|, |j|) > 2 are skipped),
    forms the first fundamental form E, F, G at the inner 5x5 nodes from
    finite-difference tangents and the ambient metric, and evaluates the
    Brioschi formula at the center with fourth-order stencils.
    """
    from .geodesic import exp_map  # local import; geodesic depends on cone only

    xn, frame = _prepare_row(F, x, L1, L2)
    e1, e2 = frame[0], frame[1]
    delta = SURFACE_SPACING
    span = range(-4, 5)
    pts = {}
    for i in span:
        for j in span:
            if min(abs(i), abs(j)) > 2:
                continue
            v = (i * delta) * e1 + (j * delta) * e2
            speed = delta * float(np.hypot(i, j))
            steps = max(SURFACE_MIN_STEPS, int(round(SURFACE_STEPS_PER_UNIT * speed)))
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
                           err_estimate=SURFACE_ERR, method="surface_expansion")
