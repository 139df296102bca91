"""Command-line workflows: invariant reports, curvature evaluation, bound
scans, witness search, region grids, intersection-form generation, and
geodesic traces.

Exit code contract (stable): 0 = success / no violations, 1 = violations
found (scan) or witness not found, 2 = input error.  Reports with identical
inputs (form, region, samples, seed) are byte-identical; scan sample i
draws all its randomness from its own substream SeedSequence([seed, i]).
"""

from __future__ import annotations

import argparse
import json
import sys
from fractions import Fraction
from math import lcm

import numpy as np

from . import aronhold, cicy, cone, curvature, geodesic
from .errors import (
    ChartExit,
    CrossCheckError,
    DegeneratePlane,
    IllConditioned,
    KcurvError,
    NearDegenerate,
    RegionEmpty,
)
from .symform import Form, load_form, save_form

SCHEMA_VERSION = "1"

__all__ = ["report_invariants", "scan", "witness", "region_grid", "main"]


# ---------------------------------------------------------------- formatting

def _var_names(r):
    return ["x", "y", "z"][:r] if r <= 3 else [f"x{i}" for i in range(r)]


def format_form(F: Form) -> str:
    """Human-readable exact rendering, canonical monomial order."""
    names = _var_names(F.dim)
    if not F.terms:
        return "0"
    parts = []
    for exps, c in F.terms.items():
        mono = "*".join(
            n if e == 1 else f"{n}^{e}" for n, e in zip(names, exps) if e
        )
        mag = abs(c)
        coeff = "" if (mag == 1 and mono) else str(mag)
        body = "*".join(p for p in (coeff, mono) if p) or str(mag)
        parts.append((("- " if c < 0 else "+ "), body))
    first_sign, first_body = parts[0]
    out = ("-" if first_sign == "- " else "") + first_body
    for sign, body in parts[1:]:
        out += f" {sign}{body}"
    return out


def _dump_json(obj) -> str:
    return json.dumps(obj, sort_keys=True, indent=2) + "\n"


# ------------------------------------------------------------- invariants

def report_invariants(F: Form) -> str:
    """Exact S, Hessian determinant, and bound polynomials for a ternary cubic."""
    if F.degree != 3 or F.dim != 3:
        raise KcurvError("invariants report requires a ternary cubic (degree 3, dim 3)")
    S = aronhold.aronhold_S(F)
    H = F.hessian_det_poly()
    lines = [f"F = {format_form(F)}", f"S = {S}"]
    if H.is_zero():
        lines.append("H = 0")
        lines.append("index cone empty: the Hessian determinant vanishes identically")
        return "\n".join(lines) + "\n"
    lines.append(f"H = {format_form(H)}   ({len(H.terms)} monomials)")
    bp = aronhold.bound_polynomials(F)
    for name in ("P_upper", "P_lower"):
        P = bp[name]
        lines.append(f"{name} = {format_form(P)}   ({len(P.terms)} monomials)")
    Pu = bp["P_upper"]
    neg = sum(1 for c in Pu.terms.values() if c < 0)
    pos = sum(1 for c in Pu.terms.values() if c > 0)
    lines.append(f"P_upper sign summary: {neg} negative, {pos} positive coefficients")
    return "\n".join(lines) + "\n"


# ------------------------------------------------------------------- scan

def _draw_point(F, rng, region, budget):
    """Draw until a draw lands in the index cone; (point or None, draws used).

    Draws are classified in batches of 1, 4, 16, 64, ... rows, capped by the
    rest of the budget.  A batch of n rows is the same stream as n single
    draws, and after a hit at draw k the generator is rewound to exactly k
    draws in, so the point, the count and the generator state are those of
    drawing and classifying one point at a time.  The cone test is
    invariant under positive scaling, so ball rows are classified raw and
    only the accepted one is normalized.  The point is returned after the
    odd-degree flip.
    """
    if region == "orthant":
        def draw(n):
            return rng.exponential(1.0, (n, F.dim))
    elif region == "ball":
        def draw(n):
            return rng.standard_normal((n, F.dim))
    else:
        raise KcurvError(f"unknown region {region!r}")
    used, size = 0, 1
    while used < budget:
        n = min(size, budget - used)
        state = rng.bit_generator.state
        X = draw(n)
        batch = cone.classify_many(F, X)
        hits = np.flatnonzero(batch.code == cone.CODE_INDEX)
        if hits.size:
            j = int(hits[0])
            if j + 1 < n:
                rng.bit_generator.state = state
                draw(j + 1)
            x = X[j].copy()
            if region == "ball":
                x = x / np.linalg.norm(x)
            return (-x if batch.flipped[j] else x), used + j + 1
        used += n
        size *= 4
    return None, budget


def scan(F: Form, region: str, samples: int, seed: int,
         fd_cfg: curvature.FDConfig = curvature.FDConfig()) -> dict:
    """Sample index-cone points and planes, check the conjectured bounds
    -d(d-1)/2 <= K <= 0, and return a deterministic report dict.

    Determinism: sample i derives all randomness from SeedSequence([seed, i]),
    so results are independent of evaluation order.
    """
    if samples < 1:
        raise KcurvError("samples must be >= 1")
    d = F.degree
    lower = -0.5 * d * (d - 1)
    per_sample_budget = 100

    crosscheck = (d == 3 and F.dim == 3)
    if crosscheck:
        S_float = float(aronhold.aronhold_S(F))
        H_poly = F.hessian_det_poly()
        if H_poly.is_zero():
            raise RegionEmpty("index cone empty: Hessian determinant is identically zero")

    def run_sample(i):
        rng = np.random.default_rng(np.random.SeedSequence([seed, i]))
        x, draws = _draw_point(F, rng, region, per_sample_budget)
        if x is None:
            return {"status": "no_point", "draws": draws}
        v1 = rng.standard_normal(F.dim)
        v2 = rng.standard_normal(F.dim)
        try:
            s = curvature.sectional_curvature_numeric(F, x, v1, v2, fd_cfg)
        except (DegeneratePlane, IllConditioned, NearDegenerate, ChartExit) as exc:
            return {"status": "skipped", "reason": type(exc).__name__, "draws": draws}
        if crosscheck:
            R = -2.25 + 11664.0 * S_float / float(H_poly.eval(s.point)) ** 2
            if abs(s.K - R) > max(1e-4, 10.0 * s.err_estimate):
                raise CrossCheckError(
                    f"closed-form curvature {R:.8g} vs finite-difference {s.K:.8g} "
                    f"at {s.point.tolist()}")
        tol = max(1e-6, 10.0 * s.err_estimate)
        violation = (s.K < lower - tol) or (s.K > 0.0 + tol)
        return {"status": "ok", "K": s.K, "err": s.err_estimate,
                "point": [float(v) for v in s.point],
                "plane": [[float(v) for v in s.plane[0]],
                          [float(v) for v in s.plane[1]]],
                "violation": violation, "draws": draws}

    results = [run_sample(i) for i in range(samples)]

    accepted = [r for r in results if r["status"] == "ok"]
    if not accepted and all(r["status"] == "no_point" for r in results):
        raise RegionEmpty(
            f"no index-cone point found in {samples * per_sample_budget} draws")

    violations = [{"point": r["point"], "plane": r["plane"],
                   "K": r["K"], "err": r["err"]}
                  for r in results if r["status"] == "ok" and r["violation"]]
    Ks = [r["K"] for r in accepted]
    return {
        "schema_version": SCHEMA_VERSION,
        "form": {"hash": F.content_hash(), "degree": F.degree, "dim": F.dim},
        "region": region,
        "samples": samples,
        "seed": seed,
        "K_min": min(Ks) if Ks else None,
        "K_max": max(Ks) if Ks else None,
        "violations": violations,
        "skipped": sum(1 for r in results if r["status"] != "ok"),
        "bounds_used": {"lower": lower, "upper": 0.0,
                        "tolerance_rule": "max(1e-06, 10*err_estimate)"},
    }


# ---------------------------------------------------------------- witness

def witness(F: Form, budget: int, seed: int) -> dict:
    """Search for an index-cone point whose closed-form curvature satisfies
    -3 <= R <= 0 (ternary cubics).  Samples are biased toward the surface
    F = 0, where R approaches -9/4 from the closed formula; every fifth
    attempt examines an unbiased gaussian point as well.
    """
    if F.degree != 3 or F.dim != 3:
        raise KcurvError("witness search requires a ternary cubic (degree 3, dim 3)")
    H = F.hessian_det_poly()
    if H.is_zero():
        return {"schema_version": SCHEMA_VERSION, "status": "not_found",
                "reason": "index cone empty", "examined": 0}
    S = float(aronhold.aronhold_S(F))
    rng = np.random.default_rng(seed)
    examined = 0

    def examine(x):
        nonlocal examined
        examined += 1
        try:
            cp = cone.classify(F, x)
        except (NearDegenerate, KcurvError):
            return None
        if cp.classification != cone.INDEX_CONE:
            return None
        xn = cone.normalize_to_level(F, cp.x)
        h = float(H.eval(xn))
        if h == 0.0:
            return None
        R = -2.25 + 11664.0 * S / h ** 2
        if -3.0 <= R <= 0.0:
            return {"schema_version": SCHEMA_VERSION, "status": "found",
                    "point": [float(v) for v in xn], "R": R,
                    "examined": examined}
        return None

    attempt = 0
    while examined < budget:
        attempt += 1
        P = rng.standard_normal(3)
        Q = rng.standard_normal(3)
        # roots of t -> F(P + tQ): candidates near the surface F = 0
        c3 = float(F.polarize(Q, Q, Q))
        c2 = 3.0 * float(F.polarize(P, Q, Q))
        c1 = 3.0 * float(F.polarize(P, P, Q))
        c0 = float(F.polarize(P, P, P))
        coeffs = np.array([c3, c2, c1, c0])
        if not np.any(coeffs[:-1]):
            continue
        for t_root in np.roots(coeffs):
            if abs(t_root.imag) > 1e-9:
                continue
            t = t_root.real
            for delta in (0.05, 0.15, 0.4):
                step = delta * (1.0 + abs(t))
                for sgn in (1.0, -1.0):
                    if examined >= budget:
                        break
                    hit = examine(P + (t + sgn * step) * Q)
                    if hit:
                        return hit
        if attempt % 5 == 0 and examined < budget:
            hit = examine(rng.standard_normal(3))
            if hit:
                return hit
    return {"schema_version": SCHEMA_VERSION, "status": "not_found",
            "reason": "budget exhausted", "examined": examined}


# ------------------------------------------------------------- region grid

def _sign(v) -> int:
    return (v > 0) - (v < 0)


def _clear_denominators(point):
    """Scale a rational vector by the positive lcm of denominators."""
    mult = lcm(*(f.denominator for f in point))
    return [int(f * mult) for f in point]


def region_grid(F: Form, fix: int, window, res: int):
    """Exact sign data of F, H, P_upper, P_lower and index-cone membership on
    an affine grid (coordinate ``fix`` pinned to 1), as CSV rows.

    Grid coordinates are exact rationals; every evaluation clears
    denominators first and runs in integer arithmetic, so the signs and the
    signature-based cone test carry no floating-point error.
    """
    if F.degree != 3 or F.dim != 3:
        raise KcurvError("region grid requires a ternary cubic (degree 3, dim 3)")
    if not (0 <= fix < 3):
        raise KcurvError("--fix must be 0, 1, or 2")
    if res < 2:
        raise KcurvError("--res must be at least 2")
    x0, x1, y0, y1 = (Fraction(str(w)) for w in window)
    H = F.hessian_det_poly()
    # P_upper = 6^6 S F^2 - 9 H^2 and P_lower = 6^6 S F^2 + 3 H^2 (see
    # aronhold.bound_polynomials) take their signs from F(p), H(p) and S
    S = aronhold.aronhold_S(F)
    num, den = aronhold.SIX_TO_6 * S.numerator, S.denominator
    free = [i for i in range(3) if i != fix]
    odd = F.degree % 2 == 1

    rows = ["x,y,signF,signH,in_index_cone,signPupper,signPlower"]
    for i in range(res):
        u = x0 + (x1 - x0) * i / (res - 1)
        for j in range(res):
            v = y0 + (y1 - y0) * j / (res - 1)
            point = [Fraction(0)] * 3
            point[fix] = Fraction(1)
            point[free[0]], point[free[1]] = u, v
            p = _clear_denominators(point)
            fval = F.eval_exact(p)
            sF = _sign(fval)
            hval = H.eval_exact(p)
            sH = _sign(hval)
            sPu = _sign(num * fval * fval - 9 * den * hval * hval)
            sPl = _sign(num * fval * fval + 3 * den * hval * hval)
            in_cone = 0
            if sF > 0 or (sF < 0 and odd):
                # classify_exact applies the antipodal lift for odd degree
                # and reports the signature at the lifted representative.
                ec = cone.classify_exact(F, p)
                in_cone = int(ec.classification == cone.INDEX_CONE)
            rows.append(f"{u},{v},{sF},{sH},{in_cone},{sPu},{sPl}")
    return "\n".join(rows) + "\n"


# ------------------------------------------------------------------ parsing

def _parse_floats(text):
    return np.array([float(p) for p in text.split(",")], dtype=float)


def _parse_fractions(text):
    return [Fraction(p.strip()) for p in text.split(",")]


def _read_form(path) -> Form:
    try:
        return load_form(path)
    except (OSError, json.JSONDecodeError, KeyError, ValueError) as exc:
        raise KcurvError(f"cannot load form from {path}: {exc}") from exc


# --------------------------------------------------------------- subcommands

def _cmd_invariants(args):
    sys.stdout.write(report_invariants(_read_form(args.form)))
    return 0


def _cmd_curvature(args):
    F = _read_form(args.form)
    out = {"schema_version": SCHEMA_VERSION, "method": args.method}
    if args.method == "closed":
        try:
            point = _parse_fractions(args.point)
        except ValueError:
            point = _parse_floats(args.point)
        R = aronhold.sectional_curvature_closed(F, point)
        out["K"] = float(R)
        if isinstance(R, Fraction):
            out["K_exact"] = str(R)
        out["point"] = [float(v) for v in point]
    else:
        point = _parse_floats(args.point)
        if args.plane:
            parts = args.plane.split(";")
            if len(parts) != 2:
                raise KcurvError("--plane must be two ';'-separated vectors")
            L1, L2 = (_parse_floats(p) for p in parts)
        elif F.dim == 3:
            cp = cone.classify(F, point)
            frame = cone.orthonormal_frame(F, cone.normalize_to_level(F, cp.x))
            L1, L2 = frame.vectors[0], frame.vectors[1]
        else:
            raise KcurvError("--plane is required when the form has more than 3 variables")
        fn = (curvature.sectional_curvature_surface if args.method == "surface"
              else curvature.sectional_curvature_numeric)
        s = fn(F, point, L1, L2)
        out.update(K=s.K, err_estimate=s.err_estimate, method=s.method,
                   point=[float(v) for v in s.point],
                   plane=[[float(v) for v in s.plane[0]],
                          [float(v) for v in s.plane[1]]])
    sys.stdout.write(_dump_json(out))
    return 0


def _cmd_scan(args):
    F = _read_form(args.form)
    report = scan(F, args.region, args.samples, args.seed)
    with open(args.out, "w") as fh:
        fh.write(_dump_json(report))
    n_viol = len(report["violations"])
    print(f"wrote {args.out}: {args.samples} samples ({report['skipped']} skipped), "
          f"K in [{report['K_min']}, {report['K_max']}], {n_viol} violation(s)")
    return 1 if n_viol else 0


def _cmd_witness(args):
    F = _read_form(args.form)
    result = witness(F, args.budget, args.seed)
    sys.stdout.write(_dump_json(result))
    return 0 if result["status"] == "found" else 1


def _cmd_region(args):
    F = _read_form(args.form)
    window = [p for p in args.window.split(",")]
    if len(window) != 4:
        raise KcurvError("--window must be xmin,xmax,ymin,ymax")
    csv_text = region_grid(F, args.fix, window, args.res)
    with open(args.out, "w") as fh:
        fh.write(csv_text)
    print(f"wrote {args.out}: {args.res}x{args.res} grid")
    return 0


def _cmd_cicy(args):
    ambient = tuple(int(p) for p in args.ambient.split(","))
    columns = tuple(tuple(int(v) for v in col.split(","))
                    for col in args.columns.split(";")) if args.columns else ()
    cfg = cicy.CicyConfig(ambient=ambient, columns=columns)
    info = cicy.validate(cfg)
    F = cicy.intersection_form(cfg)
    save_form(F, args.out)
    print(f"wrote {args.out}: degree {F.degree}, dim {F.dim}, "
          f"{len(F.terms)} terms, calabi_yau={info['cy']}")
    return 0


def _cmd_geodesic(args):
    F = _read_form(args.form)
    x0 = _parse_floats(args.point)
    v0 = _parse_floats(args.dir)
    traj = geodesic.geodesic_integrate(F, x0, v0, args.time, steps=args.steps)
    r = F.dim
    header = "t," + ",".join(f"x{i + 1}" for i in range(r)) + ",speed,Fdrift"
    lines = [header]
    for k in range(len(traj.times)):
        coords = ",".join(repr(float(c)) for c in traj.points[k])
        lines.append(f"{float(traj.times[k])!r},{coords},{float(traj.speeds[k])!r},"
                     f"{float(traj.level_drifts[k])!r}")
    with open(args.out, "w") as fh:
        fh.write("\n".join(lines) + "\n")
    print(f"wrote {args.out}: {len(traj.times)} nodes, "
          f"max level drift {traj.level_drifts.max():g}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="kcurv",
        description="Curvature of unit level sets of homogeneous intersection forms")
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("invariants", help="exact invariant report for a ternary cubic")
    p.add_argument("--form", required=True)
    p.set_defaults(fn=_cmd_invariants)

    p = sub.add_parser("curvature", help="sectional curvature at a point")
    p.add_argument("--form", required=True)
    p.add_argument("--point", required=True, help="comma-separated coordinates")
    p.add_argument("--plane", help="two ';'-separated direction vectors")
    p.add_argument("--method", choices=["fd", "closed", "surface"], default="fd")
    p.set_defaults(fn=_cmd_curvature)

    p = sub.add_parser("scan", help="sample curvatures and check the bounds")
    p.add_argument("--form", required=True)
    p.add_argument("--region", choices=["orthant", "ball"], default="orthant")
    p.add_argument("--samples", type=int, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(fn=_cmd_scan)

    p = sub.add_parser("witness", help="search for a bound-satisfying index-cone point")
    p.add_argument("--form", required=True)
    p.add_argument("--budget", type=int, default=10000)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(fn=_cmd_witness)

    p = sub.add_parser("region", help="exact sign/cone grid over an affine window")
    p.add_argument("--form", required=True)
    p.add_argument("--fix", type=int, required=True, help="coordinate pinned to 1")
    p.add_argument("--window", required=True, help="xmin,xmax,ymin,ymax")
    p.add_argument("--res", type=int, required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(fn=_cmd_region)

    p = sub.add_parser("cicy", help="intersection form of a complete-intersection configuration")
    p.add_argument("--ambient", required=True, help="projective factor dimensions, e.g. 3,2,2")
    p.add_argument("--columns", default="", help="';'-separated degree columns, e.g. 1,1,0;2,0,1")
    p.add_argument("--out", required=True)
    p.set_defaults(fn=_cmd_cicy)

    p = sub.add_parser("geodesic", help="integrate a geodesic and write the trajectory CSV")
    p.add_argument("--form", required=True)
    p.add_argument("--point", required=True)
    p.add_argument("--dir", required=True)
    p.add_argument("--time", type=float, default=1.0)
    p.add_argument("--steps", type=int, default=None)
    p.add_argument("--out", required=True)
    p.set_defaults(fn=_cmd_geodesic)
    return ap


_VECTOR_FLAGS = {"--window", "--point", "--dir", "--plane", "--time"}


def _merge_vector_flags(argv):
    """Join e.g. ``--window -1.5,1.5,...`` into ``--window=-1.5,1.5,...`` so
    argparse does not mistake a leading minus sign for an option."""
    out, i = [], 0
    while i < len(argv):
        tok = argv[i]
        if tok in _VECTOR_FLAGS and i + 1 < len(argv) and argv[i + 1].startswith("-"):
            out.append(f"{tok}={argv[i + 1]}")
            i += 2
        else:
            out.append(tok)
            i += 1
    return out


def main(argv=None) -> int:
    argv = list(sys.argv[1:]) if argv is None else list(argv)
    args = build_parser().parse_args(_merge_vector_flags(argv))
    try:
        return args.fn(args)
    except KcurvError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
