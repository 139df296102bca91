"""Cone classification, level-set normalization, tangent frames.

A point x is *positive* when F(x) > 0 and lies in the *index cone* when
additionally the quadratic form Q = Hess F(x)/(d(d-1)) has signature
(1, r-1).  On the unit level set W1 = {F = 1} the bilinear form
G(L1, L2) = -F~(x^(d-2), L1, L2) is then positive definite on the tangent
space {L : grad F(x) . L = 0}, and is the metric everything else uses.

Two classification routes live here: a floating-point one built on a
symmetric eigensolver with a relative tolerance band (near-band points are
a hard error, since curvature is ill-conditioned at the cone boundary),
batched over rows by :func:`classify_many` with :func:`classify` as its
one-point case; and an exact one for rational points that counts
eigenvalue signs through the characteristic polynomial (Descartes' rule is
exact for the real-rooted characteristic polynomial of a symmetric matrix).
"""

from __future__ import annotations

from contextlib import nullcontext
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .errors import (
    DegenerateMetric,
    NearDegenerate,
    NonFiniteInput,
    NonpositiveValue,
    NotInIndexCone,
    ZeroGradient,
    ZeroVector,
)
from .symform import Form, is_exact_vector

__all__ = [
    "ConePoint", "ConeBatch", "TangentFrame", "ExactClassification",
    "classify", "classify_many", "classify_exact", "normalize_to_level",
    "signature_codes",
    "tangent_basis", "metric", "metric_gram", "orthonormal_frame",
    "exact_signature", "char_poly_exact",
]

INDEX_CONE = "index_cone"
POSITIVE_ONLY = "positive_cone_only"
OUTSIDE = "outside"

# row codes of classify_many; CLASSES[code] is the classification string
CODE_INDEX, CODE_POSITIVE, CODE_OUTSIDE, CODE_DEGENERATE = range(4)
CLASSES = (INDEX_CONE, POSITIVE_ONLY, OUTSIDE, "near_degenerate")

DEFAULT_TOL = 1e-9


@dataclass(frozen=True, eq=False)
class ConePoint:
    """Classification record for one point (after any antipodal flip)."""
    x: np.ndarray
    value: float
    grad: np.ndarray
    Q: np.ndarray
    signature: tuple
    classification: str
    flipped: bool = False


@dataclass(frozen=True, eq=False)
class ConeBatch:
    """Row-wise classification of a batch of points (rows after any flip)."""
    code: np.ndarray       # (n,) one of the CODE_* values
    x: np.ndarray          # (n, r)
    value: np.ndarray      # (n,) F(x)
    Q: np.ndarray          # (n, r, r) Hess F(x) / (d(d-1))
    npos: np.ndarray       # (n,) eigenvalues of Q above the band
    nneg: np.ndarray       # (n,) eigenvalues of Q below minus the band
    flipped: np.ndarray    # (n,) bool


@dataclass(frozen=True, eq=False)
class TangentFrame:
    """Metric-orthonormal tangent frame at a W1 base point."""
    base: ConePoint
    vectors: np.ndarray  # shape (r-1, r), rows are frame vectors


@dataclass(frozen=True)
class ExactClassification:
    """Exact-arithmetic classification of a rational point."""
    value_sign: int
    signature: tuple  # (n_plus, n_minus, n_zero) of the Hessian
    classification: str
    flipped: bool


def signature_codes(value, Q, tol: float = DEFAULT_TOL):
    """(code, npos, nneg) for form values ``value`` (n,) and quadratic forms
    ``Q`` (n, r, r): the CODE_* of each row and its eigenvalue counts above
    ``tol * max|eigenvalue|`` and below minus that band.  A row with an
    eigenvalue inside the band, or with a non-finite Q (eigensolved as
    zero), gets CODE_DEGENERATE.  The rule is scale-invariant in Q.
    """
    finite = np.isfinite(Q).all(axis=(1, 2))
    if not finite.all():
        Q = np.where(finite[:, None, None], Q, 0.0)
    eig = np.linalg.eigvalsh(Q)
    band = tol * np.abs(eig).max(axis=1, keepdims=True)
    npos = (eig > band).sum(axis=1)
    nneg = (eig < -band).sum(axis=1)
    # an eigenvalue counted on neither side lies in the band (all do when Q = 0)
    code = np.where(value > 0, np.where(npos == 1, CODE_INDEX, CODE_POSITIVE),
                    CODE_OUTSIDE)
    code[npos + nneg < Q.shape[-1]] = CODE_DEGENERATE
    return code, npos, nneg


def classify_many(F: Form, X, tol: float = DEFAULT_TOL) -> ConeBatch:
    """Classify each row of X against the positive/index cone (floating point).

    For odd degree, rows with F(x) < 0 are classified at -x and marked
    flipped.  A row whose Q has an eigenvalue within ``tol * max|eigenvalue|``
    of zero (see :func:`signature_codes`), the zero vector and a row with a
    non-finite coordinate get CODE_DEGENERATE.  One evaluation
    of F and of the Hessian stack and one batched eigensolve cover all rows.
    """
    X = np.asarray(X, dtype=float)
    if X.ndim != 2:
        raise ValueError("classify_many expects an (n, dim) array")
    d = F.degree
    bad = ~np.isfinite(X).all(axis=1)
    # a non-finite row may sum inf - inf; it is coded degenerate, not warned about
    with np.errstate(invalid="ignore") if bad.any() else nullcontext():
        value = F.eval(X)
        flipped = value < 0 if d % 2 == 1 else np.zeros(len(X), dtype=bool)
        if flipped.any():
            X = np.where(flipped[:, None], -X, X)
            value = np.where(flipped, -value, value)
        Q = F.hessian_many(X) / (d * (d - 1))
    code, npos, nneg = signature_codes(value, Q, tol)
    code[~X.any(axis=1) | bad] = CODE_DEGENERATE
    return ConeBatch(code=code, x=X, value=value, Q=Q, npos=npos, nneg=nneg,
                     flipped=flipped)


def classify(F: Form, x, tol: float = DEFAULT_TOL) -> ConePoint:
    """Classify x against the positive/index cone: :func:`classify_many` on
    one row, raising :class:`NearDegenerate` for a degenerate row (and
    :class:`NonFiniteInput` for a NaN or infinite coordinate) and adding
    the gradient at the (possibly flipped) point.
    """
    x = np.asarray(x, dtype=float)
    if x.ndim != 1:
        raise ValueError("classify expects a single point")
    if not x.any():
        raise ZeroVector("cannot classify the zero vector")
    if not np.isfinite(x).all():
        raise NonFiniteInput(f"cannot classify the non-finite point {x.tolist()}")
    b = classify_many(F, x[None, :], tol)
    x = b.x[0]
    code = int(b.code[0])
    if code == CODE_DEGENERATE:
        raise NearDegenerate(
            f"eigenvalue within {tol:g} relative band of zero at {x.tolist()}")
    grad = np.asarray(F.gradient(x), dtype=float)
    return ConePoint(x=x, value=float(b.value[0]), grad=grad, Q=b.Q[0],
                     signature=(int(b.npos[0]), int(b.nneg[0])),
                     classification=CLASSES[code], flipped=bool(b.flipped[0]))


def char_poly_exact(M):
    """Coefficients [c_0, ..., c_r] of det(tI - M), exact, via trace power sums.

    Newton's identities on p_k = tr(M^k) give the elementary symmetric
    functions e_k of the eigenvalues; det(tI - M) = sum (-1)^k e_k t^(r-k).
    """
    r = len(M)
    M = [[Fraction(v) for v in row] for row in M]
    powers = []
    cur = M
    for _ in range(r):
        powers.append(cur)
        cur = [[sum(cur[i][k] * M[k][j] for k in range(r)) for j in range(r)]
               for i in range(r)]
    p = [sum(powers[k - 1][i][i] for i in range(r)) for k in range(1, r + 1)]
    e = [Fraction(1)]
    for k in range(1, r + 1):
        s = sum((-1) ** (i - 1) * e[k - i] * p[i - 1] for i in range(1, k + 1))
        e.append(s / k)
    coeffs = [Fraction(0)] * (r + 1)
    for k in range(r + 1):
        coeffs[r - k] = (-1) ** k * e[k]
    return coeffs


def exact_signature(M):
    """(n_plus, n_minus, n_zero) of a symmetric rational matrix, exactly."""
    r = len(M)
    coeffs = char_poly_exact(M)
    n_zero = 0
    while n_zero <= r and coeffs[n_zero] == 0:
        n_zero += 1
    seq = [c for c in coeffs[n_zero:] if c != 0]
    n_plus = sum(1 for a, b in zip(seq, seq[1:]) if (a > 0) != (b > 0))
    return (n_plus, r - n_zero - n_plus, n_zero)


def classify_exact(F: Form, x) -> ExactClassification:
    """Exact classification of a rational point (no tolerance band).

    A zero eigenvalue shows up as n_zero > 0 in the signature, honestly
    reported instead of erroring: exact arithmetic has no near-degenerate
    ambiguity.  Used by the region grid and rational point searches.
    """
    if not is_exact_vector(x):
        raise TypeError("classify_exact needs a rational point")
    xs = [Fraction(c) for c in x]
    if all(c == 0 for c in xs):
        raise ZeroVector("cannot classify the zero vector")
    d = F.degree
    value = F.eval_exact(xs)
    flipped = False
    if d % 2 == 1 and value < 0:
        xs = [-c for c in xs]
        value = -value
        flipped = True
    sig = exact_signature(F.hessian_matrix(xs))
    vsign = (value > 0) - (value < 0)
    if vsign > 0 and sig == (1, F.dim - 1, 0):
        cls = INDEX_CONE
    elif vsign > 0:
        cls = POSITIVE_ONLY
    else:
        cls = OUTSIDE
    return ExactClassification(value_sign=vsign, signature=sig,
                               classification=cls, flipped=flipped)


def normalize_to_level(F: Form, x):
    """Scale x radially onto W1 = {F = 1} (after the odd-degree antipodal flip)."""
    x = np.asarray(x, dtype=float)
    if not np.isfinite(x).all():
        raise NonFiniteInput(f"cannot normalize the non-finite point {x.tolist()}")
    value = F.eval(x)
    if F.degree % 2 == 1 and value < 0:
        x = -x
        value = -value
    if value <= 0:
        raise NonpositiveValue(f"F(x) = {value:g} is not positive")
    return x * value ** (-1.0 / F.degree)


def tangent_basis(F: Form, x):
    """Euclidean-orthonormal basis of {L : grad F(x) . L = 0}, deterministic.

    Built by completing the gradient direction with the standard basis and
    orthogonalizing (QR); the trailing r-1 columns span the kernel.
    """
    x = np.asarray(x, dtype=float)
    g = np.asarray(F.gradient(x), dtype=float)
    ng = np.linalg.norm(g)
    if ng == 0.0:
        raise ZeroGradient("gradient vanishes; no tangent space here")
    q, _ = np.linalg.qr(np.column_stack([g / ng, np.eye(F.dim)]))
    return q[:, 1:F.dim].T.copy()


def metric(F: Form, x, L1, L2):
    """Hodge metric G(L1, L2) = -F~(x^(d-2), L1, L2); exact on rational input."""
    if is_exact_vector(x) and is_exact_vector(L1) and is_exact_vector(L2):
        return -F.contract(x, L1, L2)
    d = F.degree
    H = np.asarray(F.hessian_matrix(np.asarray(x, float)))
    return float(-np.asarray(L1, float) @ H @ np.asarray(L2, float) / (d * (d - 1)))


def metric_gram(F: Form, x, vectors):
    """Gram matrix of the Hodge metric over rows of ``vectors`` (float path)."""
    d = F.degree
    H = np.asarray(F.hessian_matrix(np.asarray(x, float)))
    B = np.asarray(vectors, dtype=float)
    return -(B @ H @ B.T) / (d * (d - 1))


def _gram_schmidt(G, rows, frame=(), floor: float = 1e-12, size=None):
    """Modified Gram-Schmidt of ``rows`` under the metric matrix G, extending
    the metric-orthonormal ``frame``: a row whose pivot w.G.w falls below
    ``floor`` is skipped, and the run stops once ``size`` vectors are held.
    Returns the list of frame vectors; callers decide what a short list means.
    """
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


def orthonormal_frame(F: Form, x, seed: int = 0) -> TangentFrame:
    """Metric-orthonormal tangent frame at a W1 index-cone point.

    Gram-Schmidt of :func:`tangent_basis` under the Hodge metric.  With
    seed = 0 the basis is used as-is (so simple fixtures get the obvious
    frame); a nonzero seed first mixes the basis with a seeded random
    matrix, giving reproducible but varied frames.
    """
    cp = classify(F, x)
    if cp.classification != INDEX_CONE:
        raise NotInIndexCone(f"classification is {cp.classification}")
    B = np.asarray(tangent_basis(F, cp.x))
    if seed:
        rng = np.random.default_rng(seed)
        B = rng.standard_normal((B.shape[0], B.shape[0])) @ B
    frame = _gram_schmidt(-cp.Q, B)
    if len(frame) < len(B):
        raise DegenerateMetric("Gram-Schmidt pivot below 1e-12")
    return TangentFrame(base=cp, vectors=np.asarray(frame))
