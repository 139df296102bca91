#!/usr/bin/env python3
"""Sweep the fixture catalogue and report sectional-curvature ranges.

For each fixture this runs the deterministic scan: sample index-cone
points in a region, draw random tangent planes, compute K by finite
differences, and compare against the conjectured window
-d(d-1)/2 <= K <= 0 for a degree-d form.  Constant-curvature families
also report the worst deviation from the expected constant.

The two singular ternary cubics (nodal, elliptic) are included
deliberately: their index cones contain a subcone of positive curvature,
so the window does NOT hold for them — the scan reports those violations
honestly and this sweep labels them as expected.

Usage:
    python3 scripts/bounds_sweep.py [--samples N] [--seed S]
"""

from __future__ import annotations

import argparse
import time

from kcurv import cli, fixtures
from kcurv.errors import RegionEmpty


def sweep_rows():
    """(label, form, region, expected constant K or None, violations expected)."""
    return [
        ("lorentzian r=3", fixtures.random_lorentzian(3, seed=7), "ball", -1.0, False),
        ("lorentzian r=6", fixtures.random_lorentzian(6, seed=7), "ball", -1.0, False),
        ("diagonal n=3 r=3", fixtures.diagonal(3, 3), "orthant", -2.25, False),
        ("diagonal n=3 r=4", fixtures.diagonal(3, 4), "orthant", -2.25, False),
        ("diagonal n=4 r=3", fixtures.diagonal(4, 3), "orthant", -4.0, False),
        ("quadric power d=4", fixtures.quadric_power(4), "ball", -3.0, False),
        ("quadric power d=6", fixtures.quadric_power(6), "ball", -5.0, False),
        ("triple product 6xyz", fixtures.triple_product(), "orthant", 0.0, False),
        ("cicy (3,2,2) ambient", fixtures.cicy1_form(), "orthant", None, False),
        ("cicy (2,2,1) ambient", fixtures.cicy2_form(), "orthant", None, False),
        ("hermitian det 3x3", fixtures.hermitian_det(3), "ball", None, False),
        ("nodal cubic", fixtures.nodal_cubic(), "orthant", None, True),
        ("elliptic cubic", fixtures.elliptic_cubic(), "ball", None, True),
    ]


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--samples", type=int, default=200,
                    help="scan samples per fixture (default 200)")
    ap.add_argument("--seed", type=int, default=0, help="scan seed (default 0)")
    args = ap.parse_args()

    hdr = (f"{'fixture':22s} {'d':>2s} {'r':>2s} {'region':8s} {'kept':>5s} "
           f"{'K_min':>12s} {'K_max':>12s} {'const dev':>10s} {'viol':>5s}  window")
    print(hdr)
    print("-" * len(hdr))

    t0 = time.time()
    for label, F, region, const, viol_expected in sweep_rows():
        try:
            rep = cli.scan(F, region, args.samples, args.seed)
        except RegionEmpty as exc:
            # a thin cone can starve a small scan; report it and go on
            print(f"{label:22s} {F.degree:2d} {F.dim:2d} {region:8s} {0:5d}  {exc}")
            continue
        kept = rep["samples"] - rep["skipped"]
        nviol = len(rep["violations"])
        dev = ""
        if const is not None:
            dev = f"{max(abs(rep['K_min'] - const), abs(rep['K_max'] - const)):.2e}"
        if nviol == 0:
            window = "holds"
        elif viol_expected:
            window = "violated (known positive-curvature subcone)"
        else:
            window = "VIOLATED — unexpected"
        print(f"{label:22s} {F.degree:2d} {F.dim:2d} {region:8s} {kept:5d} "
              f"{rep['K_min']:12.6f} {rep['K_max']:12.6f} {dev:>10s} {nviol:5d}  {window}")

    print(f"\ntotal {time.time() - t0:.1f}s; window = [-d(d-1)/2, 0] "
          f"at the scan's tolerance rule")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
