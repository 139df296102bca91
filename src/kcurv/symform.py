"""Exact homogeneous forms and their differential calculus.

A :class:`Form` is a homogeneous polynomial of degree ``d`` in ``r``
variables with exact rational coefficients, stored sparsely as a map from
exponent tuples to :class:`fractions.Fraction`.  Everything downstream
(cone classification, curvature, ternary-cubic invariants, geodesics)
reduces to a handful of operations implemented here: evaluation,
gradient, Hessian, polarization, Hessian determinant, and linear change
of variables.

Exact operations stay in rational arithmetic end to end.  Floating-point
evaluation is vectorized over the sparse terms via cached numpy arrays;
:class:`StackedPolys` batches many polynomials over many points at once,
which is the hot path of the finite-difference curvature engine and of
the scan sampler's batched cone test.
"""

from __future__ import annotations

import hashlib
import json
import math
from fractions import Fraction
from itertools import permutations

import numpy as np

from .errors import DimensionMismatch, WrongArgumentCount

__all__ = ["Form", "StackedPolys", "is_exact_vector", "load_form", "save_form"]


def is_exact_vector(x) -> bool:
    """True when every entry is an integer or Fraction, so exact arithmetic applies."""
    return all(isinstance(c, (int, Fraction, np.integer)) for c in x)


def _exact(x):
    return [Fraction(c) for c in x]


def _power_index(E):
    """(exponents 0..k-1, gather index) for :func:`_monomials` over exponents E."""
    k = int(E.max(initial=0)) + 1
    return np.arange(k, dtype=float), E + k * np.arange(E.shape[1])


def _monomials(X, powers, index):
    """Monomial values prod_i X[n, i] ** E[t, i], shape (n, T).

    The powers X[n, i] ** e come from one table, so the work is n*r*k
    ``pow`` calls instead of n*T*r; gathering the same factors and
    multiplying them in the same order keeps the result bit-identical to
    ``np.prod(X[:, None, :] ** E, axis=2)``.
    """
    n, r = X.shape
    table = np.power(X[:, :, None], powers).reshape(n, r * len(powers))
    return np.multiply.reduce(table.take(index, axis=1), axis=2)


class Form:
    """Sparse homogeneous polynomial with exact rational coefficients.

    ``terms`` maps exponent tuples (length ``dim``, entries summing to
    ``degree``) to nonzero Fractions, kept in lexicographic order.  Forms
    are immutable by convention: no method mutates ``terms`` after
    construction, so instances are freely shareable across threads (the
    lazy numeric caches are derived data and idempotent to rebuild).
    """

    def __init__(self, degree, dim, terms):
        degree = int(degree)
        dim = int(dim)
        if degree < 0 or dim < 1:
            raise ValueError("degree must be >= 0 and dim >= 1")
        clean = {}
        for exps, c in dict(terms).items():
            e = tuple(int(k) for k in exps)
            if len(e) != dim:
                raise DimensionMismatch(
                    f"exponent tuple {e} has length {len(e)}, expected {dim}")
            if any(k < 0 for k in e) or sum(e) != degree:
                raise ValueError(f"exponents {e} do not give a degree-{degree} monomial")
            c = Fraction(c)
            if c:
                clean[e] = clean.get(e, Fraction(0)) + c
        self.degree = degree
        self.dim = dim
        self.terms = {e: c for e, c in sorted(clean.items()) if c}
        self._lazy = {}

    # ---------------------------------------------------------------- basics

    def is_zero(self) -> bool:
        return not self.terms

    def __eq__(self, other):
        if not isinstance(other, Form):
            return NotImplemented
        return (self.degree == other.degree and self.dim == other.dim
                and self.terms == other.terms)

    def __hash__(self):
        return hash((self.degree, self.dim, tuple(self.terms.items())))

    def __repr__(self):
        return f"Form(degree={self.degree}, dim={self.dim}, nterms={len(self.terms)})"

    def __add__(self, other):
        if not isinstance(other, Form):
            return NotImplemented
        if self.dim != other.dim or self.degree != other.degree:
            raise DimensionMismatch("can only add forms of equal degree and dimension")
        out = dict(self.terms)
        for e, c in other.terms.items():
            out[e] = out.get(e, Fraction(0)) + c
        return Form(self.degree, self.dim, out)

    def __neg__(self):
        return Form(self.degree, self.dim, {e: -c for e, c in self.terms.items()})

    def __sub__(self, other):
        if not isinstance(other, Form):
            return NotImplemented
        return self + (-other)

    def __mul__(self, other):
        if isinstance(other, Form):
            if self.dim != other.dim:
                raise DimensionMismatch("can only multiply forms in the same variables")
            out = {}
            for e1, c1 in self.terms.items():
                for e2, c2 in other.terms.items():
                    e = tuple(a + b for a, b in zip(e1, e2))
                    out[e] = out.get(e, Fraction(0)) + c1 * c2
            return Form(self.degree + other.degree, self.dim, out)
        c = Fraction(other)
        return Form(self.degree, self.dim, {e: c * v for e, v in self.terms.items()})

    __rmul__ = __mul__

    def __pow__(self, n):
        n = int(n)
        if n < 0:
            raise ValueError("negative powers are not forms")
        out = Form(0, self.dim, {(0,) * self.dim: 1})
        for _ in range(n):
            out = out * self
        return out

    # ------------------------------------------------------------ evaluation

    def _numeric(self):
        cached = self._lazy.get("numeric")
        if cached is None:
            if self.terms:
                E = np.array(list(self.terms.keys()), dtype=np.int64)
                c = np.array([float(v) for v in self.terms.values()])
            else:
                E = np.zeros((0, self.dim), dtype=np.int64)
                c = np.zeros(0)
            cached = self._lazy["numeric"] = (E, c, *_power_index(E))
        return cached

    def eval(self, x):
        """Floating-point evaluation; accepts a single point or an (n, dim) batch."""
        X = np.asarray(x, dtype=float)
        if X.shape[-1] != self.dim:
            raise DimensionMismatch(f"point has length {X.shape[-1]}, expected {self.dim}")
        E, c, powers, index = self._numeric()
        if E.shape[0] == 0:
            return 0.0 if X.ndim == 1 else np.zeros(X.shape[:-1])
        M = _monomials(X.reshape(-1, self.dim), powers, index)
        vals = (M * c).sum(axis=-1).reshape(X.shape[:-1])
        return float(vals) if X.ndim == 1 else vals

    def eval_exact(self, x) -> Fraction:
        """Exact evaluation at a rational point."""
        if len(x) != self.dim:
            raise DimensionMismatch(f"point has length {len(x)}, expected {self.dim}")
        xs = _exact(x)
        total = Fraction(0)
        for e, c in self.terms.items():
            v = c
            for xi, k in zip(xs, e):
                if k:
                    v *= xi ** k
            total += v
        return total

    # --------------------------------------------------------------- calculus

    def partial(self, i) -> "Form":
        """Partial derivative with respect to variable ``i``, as a Form."""
        key = ("partial", i)
        cached = self._lazy.get(key)
        if cached is None:
            out = {}
            for e, c in self.terms.items():
                k = e[i]
                if k:
                    ne = e[:i] + (k - 1,) + e[i + 1:]
                    out[ne] = out.get(ne, Fraction(0)) + c * k
            cached = self._lazy[key] = Form(max(self.degree - 1, 0), self.dim, out)
        return cached

    def directional_derivative(self, v) -> "Form":
        """D_v F for an exact vector v, as a Form of degree d-1."""
        if len(v) != self.dim:
            raise DimensionMismatch(f"direction has length {len(v)}, expected {self.dim}")
        vs = _exact(v)
        out = {}
        for e, c in self.terms.items():
            for i, k in enumerate(e):
                if k and vs[i]:
                    ne = e[:i] + (k - 1,) + e[i + 1:]
                    out[ne] = out.get(ne, Fraction(0)) + c * k * vs[i]
        return Form(max(self.degree - 1, 0), self.dim, out)

    def gradient(self, x):
        """Gradient at x: exact Fractions for rational x, ndarray otherwise."""
        if len(x) != self.dim:
            raise DimensionMismatch(f"point has length {len(x)}, expected {self.dim}")
        if is_exact_vector(x):
            return [self.partial(i).eval_exact(x) for i in range(self.dim)]
        vals = self._stack("grad").eval_many(np.asarray(x, float)[None, :])[0]
        return vals

    def hessian_matrix(self, x):
        """Matrix of second partials at x; exact (list of lists) for rational x."""
        if self.degree < 2:
            raise ValueError("hessian_matrix needs degree >= 2")
        if len(x) != self.dim:
            raise DimensionMismatch(f"point has length {len(x)}, expected {self.dim}")
        r = self.dim
        if is_exact_vector(x):
            vals = {}
            for i in range(r):
                for j in range(i, r):
                    vals[(i, j)] = self.partial(i).partial(j).eval_exact(x)
            return [[vals[(min(i, j), max(i, j))] for j in range(r)] for i in range(r)]
        return self.hessian_many(np.asarray(x, float)[None, :])[0]

    def hessian_many(self, X):
        """Float Hessian matrices at the rows of X (n, dim); shape (n, dim, dim)."""
        if self.degree < 2:
            raise ValueError("hessian_matrix needs degree >= 2")
        return self._unpack_hessian(self._stack("hess").eval_many(X))

    def _unpack_hessian(self, flat):
        """Symmetric (n, dim, dim) matrices from upper-triangle rows, in the
        row-major order of the 'hess' stack, by one gather through the
        cached (dim, dim) map from entry (i, j) to its triangle position."""
        triu = self._lazy.get("triu")
        if triu is None:
            iu, ju = np.triu_indices(self.dim)
            triu = self._lazy["triu"] = np.empty((self.dim, self.dim), dtype=np.intp)
            triu[iu, ju] = triu[ju, iu] = np.arange(len(iu))
        return flat.take(triu, axis=1)

    def polarize(self, *vs):
        """Full polarization F~(v_1, ..., v_d), symmetric and multilinear.

        Computed by iterated exact directional differentiation.  Float
        inputs are lifted to their exact dyadic values, so the result is
        exact whenever the inputs are; it is returned as a float if any
        input vector contained floats.
        """
        if len(vs) != self.degree:
            raise WrongArgumentCount(
                f"polarize needs exactly {self.degree} vectors, got {len(vs)}")
        exact_in = all(is_exact_vector(v) for v in vs)
        g = self
        for v in vs:
            g = g.directional_derivative([Fraction(c) for c in np.asarray(v).tolist()]
                                         if not is_exact_vector(v) else v)
        const = g.terms.get((0,) * self.dim, Fraction(0))
        val = const / math.factorial(self.degree)
        return val if exact_in else float(val)

    def contract(self, D, *Ls):
        """F~(D^(d-k), L_1, ..., L_k) for k = len(Ls) directional slots."""
        k = len(Ls)
        if k > self.degree:
            raise WrongArgumentCount(f"contract got {k} vectors for degree {self.degree}")
        exact_in = is_exact_vector(D) and all(is_exact_vector(v) for v in Ls)
        g = self
        for v in Ls:
            g = g.directional_derivative([Fraction(c) for c in np.asarray(v).tolist()]
                                         if not is_exact_vector(v) else v)
        scale = Fraction(math.factorial(self.degree - k), math.factorial(self.degree))
        if exact_in:
            return g.eval_exact(D) * scale
        return g.eval(np.asarray(D, float)) * float(scale)

    def third_contract(self, x, a, b):
        """Vector w with w_k = sum_ij (d^3 F / dx_i dx_j dx_k)(x) a_i b_j.

        Used by the geodesic equation; returns zeros for degree < 3.  For
        cubics the third-derivative tensor is constant and cached densely.
        """
        r = self.dim
        if self.degree < 3:
            return np.zeros(r)
        T = self._lazy.get("T3")
        if T is None:
            stack, gather = self._third_stack()
            T = stack.eval_many(np.asarray(x, float)[None, :])[0].take(gather)
            if self.degree == 3:
                self._lazy["T3"] = T
        return np.einsum("ijk,i,j->k", T, np.asarray(a, float), np.asarray(b, float))

    def _third_stack(self):
        """Cached (stacked third partials over sorted triples i <= j <= k,
        (dim, dim, dim) map from each index triple to its sorted position)."""
        cached = self._lazy.get("third")
        if cached is None:
            r = self.dim
            forms, gather = [], np.empty((r, r, r), dtype=np.intp)
            for i in range(r):
                for j in range(i, r):
                    pij = self.partial(i).partial(j)
                    for k in range(j, r):
                        for p in permutations((i, j, k)):
                            gather[p] = len(forms)
                        forms.append(pij.partial(k))
            cached = self._lazy["third"] = (StackedPolys(forms, r), gather)
        return cached

    def _stack(self, which) -> "StackedPolys":
        """Cached stacked evaluator: 'grad', 'hess' (upper triangle), or 'full'
        ([F] + gradient + upper-triangle Hessian, in that order)."""
        cached = self._lazy.get(("stack", which))
        if cached is None:
            r = self.dim
            grad = [self.partial(i) for i in range(r)]
            hess = [self.partial(i).partial(j) for i in range(r) for j in range(i, r)]
            forms = {"grad": grad, "hess": hess, "full": [self] + grad + hess}[which]
            cached = self._lazy[("stack", which)] = StackedPolys(forms, r)
        return cached

    # ------------------------------------------------- determinant, pullback

    def hessian_det_poly(self) -> "Form":
        """Determinant of the matrix of second-partial polynomials, exactly.

        Laplace expansion with a column-subset table: det of the top-k rows
        against each k-subset of columns, built up by popcount.  Exponential
        in dim, which is fine for the ternary work this feeds.
        """
        if self.degree < 2:
            raise ValueError("hessian_det_poly needs degree >= 2")
        cached = self._lazy.get("hessdet")
        if cached is not None:
            return cached
        r = self.dim
        H = [[self.partial(i).partial(j) for j in range(r)] for i in range(r)]
        ddeg = max(self.degree - 2, 0)
        table = {0: Form(0, r, {(0,) * r: 1})}
        for mask in range(1, 1 << r):
            cols = [j for j in range(r) if mask >> j & 1]
            row = len(cols) - 1
            acc = Form(len(cols) * ddeg, r, {})
            for t, j in enumerate(cols):
                entry = H[row][j]
                if entry.is_zero():
                    continue
                piece = entry * table[mask & ~(1 << j)]
                acc = acc + piece if (row + t) % 2 == 0 else acc - piece
            table[mask] = acc
        out = table[(1 << r) - 1]
        self._lazy["hessdet"] = out
        return out

    def change_of_variables(self, M) -> "Form":
        """The form G with G(x) = F(Mx), for an exact square matrix M."""
        r = self.dim
        if len(M) != r or any(len(row) != r for row in M):
            raise DimensionMismatch(f"matrix must be {r}x{r}")
        rows = [_exact(row) for row in M]
        lin = [Form(1, r, {tuple(int(j == k) for k in range(r)): rows[i][j]
                           for j in range(r) if rows[i][j]})
               for i in range(r)]
        out = Form(self.degree, r, {})
        pows = [{0: Form(0, r, {(0,) * r: 1})} for _ in range(r)]
        for e, c in self.terms.items():
            piece = Form(0, r, {(0,) * r: c})
            for i, k in enumerate(e):
                if k:
                    if k not in pows[i]:
                        p = max(kk for kk in pows[i] if kk < k)
                        while p < k:
                            pows[i][p + 1] = pows[i][p] * lin[i]
                            p += 1
                    piece = piece * pows[i][k]
            out = out + piece
        return out

    # -------------------------------------------------------- serialization

    def to_json_dict(self) -> dict:
        return {
            "degree": self.degree,
            "dim": self.dim,
            "terms": [{"exps": list(e), "num": str(c.numerator), "den": str(c.denominator)}
                      for e, c in self.terms.items()],
        }

    @classmethod
    def from_json_dict(cls, data) -> "Form":
        terms = {tuple(t["exps"]): Fraction(int(t["num"]), int(t["den"]))
                 for t in data["terms"]}
        return cls(data["degree"], data["dim"], terms)

    def canonical_json(self) -> str:
        return json.dumps(self.to_json_dict(), sort_keys=True, separators=(",", ":"))

    def content_hash(self) -> str:
        """Short stable identifier derived from the canonical serialization."""
        return hashlib.sha256(self.canonical_json().encode()).hexdigest()[:12]


def load_form(path) -> Form:
    with open(path, "r", encoding="utf-8") as fh:
        return Form.from_json_dict(json.load(fh))


def save_form(form: Form, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(form.to_json_dict(), fh, indent=2, sort_keys=True)
        fh.write("\n")


class StackedPolys:
    """Batched float evaluation of several polynomials over shared points.

    All terms of all polynomials are concatenated into one exponent matrix,
    so evaluating P polynomials at n points is one gathered product over a
    table of coordinate powers plus a segmented sum.  Empty polynomials get
    a zero-coefficient dummy row to keep the segment arithmetic valid.
    """

    _CHUNK = 4_000_000  # cap on rows*terms*dim handled per slice

    def __init__(self, forms, dim):
        rows, coeffs, lengths = [], [], []
        for f in forms:
            if f.terms:
                rows.extend(f.terms.keys())
                coeffs.extend(float(c) for c in f.terms.values())
                lengths.append(len(f.terms))
            else:
                rows.append((0,) * dim)
                coeffs.append(0.0)
                lengths.append(1)
        self.dim = dim
        self.count = len(forms)
        self.E = np.array(rows, dtype=np.int64).reshape(-1, dim)
        self.c = np.array(coeffs)
        self.starts = np.zeros(len(lengths), dtype=np.intp)
        np.cumsum(lengths[:-1], out=self.starts[1:])
        self._powers, self._index = _power_index(self.E)

    def eval_many(self, X):
        """X of shape (n, dim) -> values of shape (n, count)."""
        X = np.asarray(X, dtype=float)
        n = X.shape[0]
        step = max(1, self._CHUNK // max(1, self.E.shape[0] * self.dim))
        outs = []
        for lo in range(0, max(n, 1), step):  # one empty slice when n = 0
            P = _monomials(X[lo:lo + step], self._powers, self._index) * self.c
            outs.append(np.add.reduceat(P, self.starts, axis=1))
        return np.concatenate(outs, axis=0) if len(outs) > 1 else outs[0]
