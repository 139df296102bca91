#!/usr/bin/env python3
"""kcurv benchmark: seeded CLI workloads, end-to-end metrics, output checks
against independent references, and a traced run for per-layer metrics.

    python3 bench/run.py --workload scan-cicy1 --seed 0 --seconds 30 --trace 0
    python3 bench/run.py --workload all --seed 0 --seconds 30 --trace 1

Every operation is a ``kcurv.cli.main`` call in this process, on inputs
made from ``--seed``; ``KCURV_THREADS`` is unset and BLAS runs one thread.
The last line of stdout is one JSON object with the keys correct,
attempted, failed and metrics.  bench/README.md describes the workloads,
metrics and checks.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"

THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
SETUP_PROBES = 10           # fresh processes timed per run for setup_s
K_TOL = 1e-3                # |K - reference|: FDConfig.max_err, the largest error the FD engine
                            # accepts (its Richardson estimate can understate the true error)
ENDPOINT_TOL = 1e-6         # max-norm geodesic endpoint error against the reference RK4
LEVEL_DRIFT_TOL = 1e-9      # |F(x) - 1| before renormalisation, as the README states
REF_GEODESIC_STEPS = 200    # reference RK4 steps per trace (agrees to ~1e-8 at T = 1)

CICY1_ARGS = ["--ambient", "3,2,2", "--columns", "1,1,0;1,1,0;2,1,1;0,0,2"]
# the cicy1 intersection form as the README documents it
CICY1_TERMS = {(3, 0, 0): 2, (2, 1, 0): 12, (2, 0, 1): 24, (1, 2, 0): 6,
               (1, 1, 1): 60, (0, 2, 1): 12}


@dataclass
class Check:
    ok: bool
    units: float = 0.0
    msg: str = ""
    extra: dict = field(default_factory=dict)


@dataclass
class Op:
    argv: list
    check: object            # fn(rc, stdout) -> Check
    label: str = ""


# ---------------------------------------------------------------- workloads


class Workload:
    """One set of seeded inputs.  ``op(k)`` is the k-th timed CLI call;
    ``setup_steps`` are the cheap subcommands that precede the timed ones."""

    name = ""
    units = ""

    def __init__(self, seed: int, work: Path):
        self.seed = seed
        self.work = work

    def prepare(self):
        """Write the input files the benchmark makes itself."""

    def setup_steps(self, d: Path) -> list:
        """Set-up subcommands writing into directory ``d``; each is checked
        by ``check_setup(argv, rc, stdout)``."""
        return []

    def form_path(self, d: Path) -> Path:
        raise NotImplementedError

    def op(self, k: int) -> Op:
        raise NotImplementedError

    def rng(self, k: int):
        return np.random.default_rng([self.seed, k])


def _cicy_check(argv, rc, out) -> Check:
    path = argv[argv.index("--out") + 1]
    data = json.loads(Path(path).read_text())
    terms = oracle.read_terms(data)
    want = {e: Fraction(c) for e, c in CICY1_TERMS.items()}
    ok = rc == 0 and data["dim"] == 3 and terms == want
    return Check(ok, msg="" if ok else f"cicy form {terms} != documented {want}")


def _invariants_check(terms):
    def check(argv, rc, out) -> Check:
        lines = [ln for ln in out.splitlines() if ln.startswith("S = ")]
        S_ref = oracle.aronhold_S(terms)
        ok = rc == 0 and len(lines) == 1 and Fraction(lines[0][4:]) == S_ref
        return Check(ok, msg="" if ok else f"invariants S line {lines} != S = {S_ref}")
    return check


class ScanWorkload(Workload):
    units = "scan samples"
    region = ""
    samples = 0

    def _scan_argv(self, form, samples, seed, out):
        return ["scan", "--form", str(form), "--region", self.region,
                "--samples", str(samples), "--seed", str(seed), "--out", str(out)]

    def scan_seed(self, k):
        return 1000 * self.seed + k

    def op(self, k):
        seed = self.scan_seed(k)
        out = self.work / f"scan-{k}.json"
        argv = self._scan_argv(self.form_path(self.work), self.samples, seed, out)
        return Op(argv, lambda rc, stdout: self.check_scan(rc, out, self.samples, seed),
                  f"scan seed {seed}")

    def check_scan(self, rc, out, samples, seed) -> Check:
        form = json.loads(self.form_path(self.work).read_text())
        T = oracle.cubic_tensor(oracle.read_terms(form), form["dim"])
        ref = oracle.scan_reference(T, self.region, samples, seed, lower=-3.0)  # -d(d-1)/2
        rep = json.loads(Path(out).read_text())
        problems = []
        if rc != (1 if ref["violations"] else 0):
            problems.append(f"exit {rc}")
        if rep["samples"] != samples or rep["seed"] != seed:
            problems.append("report echoes wrong samples/seed")
        slack = ref["borderline"]
        if abs(rep["skipped"] - ref["skipped"]) > slack:
            problems.append(f"skipped {rep['skipped']} != reference {ref['skipped']}")
        if abs(len(rep["violations"]) - ref["violations"]) > slack:
            problems.append(f"violations {len(rep['violations'])} != reference {ref['violations']}")
        for key in ("K_min", "K_max"):
            a, b = rep[key], ref[key]
            if (a is None) != (b is None) or (a is not None and abs(a - b) > K_TOL):
                problems.append(f"{key} {a} vs reference {b}")
        accepted = samples - rep["skipped"]
        return Check(not problems, samples, "; ".join(problems),
                     {"accepted": accepted, "samples": samples})


class ScanCicy1(ScanWorkload):
    name = "scan-cicy1"
    region = "orthant"
    samples = 500

    def form_path(self, d):
        return d / "cicy1.json"

    def setup_steps(self, d):
        return [["cicy", *CICY1_ARGS, "--out", str(d / "cicy1.json")],
                ["invariants", "--form", str(d / "cicy1.json")]]

    def check_setup(self, argv, rc, out):
        if argv[0] == "cicy":
            return _cicy_check(argv, rc, out)
        return _invariants_check(CICY1_TERMS)(argv, rc, out)

    def determinism(self, invoke) -> Check:
        """One scan report, byte for byte, across a rerun and KCURV_THREADS=1/2."""
        seed = self.scan_seed(0)
        blobs = []
        for i, threads in enumerate((None, "1", "2")):
            out = self.work / f"det-{i}.json"
            argv = self._scan_argv(self.form_path(self.work), 200, seed, out)
            if threads is not None:
                os.environ["KCURV_THREADS"] = threads
            try:
                rc, _, _, _ = invoke(argv)
            finally:
                os.environ.pop("KCURV_THREADS", None)
            if rc != 0:
                return Check(False, msg=f"determinism scan exited {rc}")
            blobs.append(out.read_bytes())
        ok = blobs[0] == blobs[1] == blobs[2]
        return Check(ok, msg="" if ok else "scan reports differ across reruns/thread counts")


class ScanHermdet3(ScanWorkload):
    name = "scan-hermdet3"
    region = "ball"
    samples = 100

    def form_path(self, d):
        return self.work / "hermdet3.json"

    def prepare(self):
        kcurv.save_form(kcurv.fixtures.hermitian_det(3), self.form_path(self.work))


class RegionNodal(Workload):
    name = "region-nodal"
    units = "grid nodes"
    res = 40

    def form_path(self, d):
        return self.work / "nodal.json"

    def prepare(self):
        kcurv.save_form(kcurv.fixtures.nodal_cubic(), self.form_path(self.work))
        self.terms = oracle.read_terms(json.loads(self.form_path(self.work).read_text()))
        self.S = oracle.aronhold_S(self.terms)

    def setup_steps(self, d):
        form = str(self.form_path(d))
        return [["invariants", "--form", form],
                ["witness", "--form", form, "--budget", "10000", "--seed", str(self.seed)]]

    def check_setup(self, argv, rc, out):
        if argv[0] == "invariants":
            return _invariants_check(self.terms)(argv, rc, out)
        res = json.loads(out)
        if rc != 0 or res.get("status") != "found":
            return Check(False, msg=f"witness exit {rc}: {res}")
        T = oracle.cubic_tensor(self.terms, 3)
        x = np.array(res["point"], dtype=float)
        _, in_cone, _ = oracle.classify(T, x[None])
        g = 0.5 * (6.0 * np.einsum("ijk,k->ij", T, x)) @ x
        a, b = np.cross(g, [1.0, 0, 0]), np.cross(g, [0, 1.0, 0])
        K = oracle.sectional_K(T, x[None], a[None], b[None])[0]
        ok = bool(in_cone[0]) and -3.0 <= res["R"] <= 0.0 and abs(K - res["R"]) < K_TOL
        return Check(ok, msg="" if ok else f"witness R {res['R']} vs reference {K}")

    def window(self, k):
        if (self.seed, k) == (0, 0):
            return ["-1.5", "1.5", "-1.5", "1.5"]
        rng = self.rng(k)
        cx, cy = rng.integers(-5, 6, 2) / 20
        w = rng.integers(25, 36) / 20
        return [f"{v:.2f}" for v in (cx - w, cx + w, cy - w, cy + w)]

    def op(self, k):
        win = self.window(k)
        out = self.work / f"region-{k}.csv"
        argv = ["region", "--form", str(self.form_path(self.work)), "--fix", "0",
                "--window=" + ",".join(win), "--res", str(self.res), "--out", str(out)]

        def check(rc, stdout):
            ref = oracle.region_csv(self.terms, self.S, 0, win, self.res)
            ok = rc == 0 and out.read_text() == ref
            return Check(ok, self.res ** 2, "" if ok else f"region CSV differs, window {win}")
        return Op(argv, check, f"window {win}")


class GeodesicCicy1(Workload):
    name = "geodesic-cicy1"
    units = "RK4 steps"
    steps = 1000
    time = 1.0

    def form_path(self, d):
        return d / "cicy1.json"

    def setup_steps(self, d):
        return [["cicy", *CICY1_ARGS, "--out", str(d / "cicy1.json")]]

    def check_setup(self, argv, rc, out):
        return _cicy_check(argv, rc, out)

    def start(self, k, T):
        """(point, direction, reference endpoint) of trace k: the README
        trace for seed 0, else an orthant start with Hodge speed in
        [0.5, 2] whose reference path keeps a relative Hessian gap >= 0.01."""
        if (self.seed, k) == (0, 0):
            x0, v0 = np.array([2.0, 1.0, 1.0]), np.array([0.0, 1.0, -1.0])
            end, _ = oracle.geodesic_path(T, x0, v0, self.time, REF_GEODESIC_STEPS)
            return "2,1,1", "0,1,-1", end
        rng = self.rng(k)
        while True:
            x0 = np.round(rng.exponential(1.0, 3) + 0.2, 3)
            v = rng.standard_normal(3)
            x = x0 / np.cbrt(np.einsum("ijk,i,j,k->", T, x0, x0, x0))
            H = 6.0 * np.einsum("ijk,k->ij", T, x)
            g = 0.5 * H @ x
            v = v - x * (g @ v) / (g @ x)
            v0 = np.round(v / np.sqrt(-(v @ H @ v) / 6.0) * rng.uniform(0.5, 2.0), 3)
            end, margin = oracle.geodesic_path(T, x0, v0, self.time, REF_GEODESIC_STEPS)
            if margin >= 0.01:
                return ",".join(map(repr, x0.tolist())), ",".join(map(repr, v0.tolist())), end

    def op(self, k):
        T = oracle.cubic_tensor(CICY1_TERMS, 3)
        point, direction, end = self.start(k, T)
        out = self.work / f"geodesic-{k}.csv"
        argv = ["geodesic", "--form", str(self.form_path(self.work)), "--point", point,
                "--dir", direction, "--time", repr(self.time), "--steps", str(self.steps),
                "--out", str(out)]

        def check(rc, stdout):
            if rc != 0:
                return Check(False, msg=f"geodesic exit {rc}")
            rows = np.loadtxt(out, delimiter=",", skiprows=1, ndmin=2)
            drift = float(np.abs(rows[:, -1]).max())
            speed = rows[:, -2]
            err = float(np.abs(rows[-1, 1:4] - end).max())
            problems = []
            if rows.shape[0] != self.steps + 1 or abs(rows[-1, 0] - self.time) > 1e-12:
                problems.append(f"{rows.shape[0]} rows ending at t={rows[-1, 0]}")
            if drift > LEVEL_DRIFT_TOL:
                problems.append(f"level drift {drift:g}")
            if err > ENDPOINT_TOL:
                problems.append(f"endpoint off the reference by {err:g}")
            return Check(not problems, self.steps, "; ".join(problems),
                         {"level_drift": drift,
                          "speed_drift": float(np.abs(speed - speed[0]).max() / speed[0])})
        return Op(argv, check, f"point {point} dir {direction}")


WORKLOADS = {w.name: w for w in (ScanCicy1, ScanHermdet3, RegionNodal, GeodesicCicy1)}


# ---------------------------------------------------------------- running


class Ledger:
    """Operations attempted and failed; a failure is a nonzero exit the
    check did not expect, an exception, or a failed output check."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0

    def record(self, label, fn):
        self.attempted += 1
        try:
            chk = fn()
        except Exception:
            self.failed += 1
            print(f"FAIL {label}:\n{traceback.format_exc()}", file=sys.stderr)
            return None
        if not chk.ok:
            self.failed += 1
            print(f"FAIL {label}: {chk.msg}", file=sys.stderr)
        return chk


def invoke(argv):
    """One ``kcurv.cli.main`` call with its output captured; returns
    (exit code, seconds, stdout, stderr)."""
    out, err = io.StringIO(), io.StringIO()
    t0 = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = kcurv.cli.main(argv)
    except SystemExit as exc:      # argparse rejects arguments this way
        rc = exc.code if isinstance(exc.code, int) else 2
    return rc, time.perf_counter() - t0, out.getvalue(), err.getvalue()


def run_setup(wl, ledger):
    for argv in wl.setup_steps(wl.work):
        def step(argv=argv):
            rc, _, out, _ = invoke(argv)
            return wl.check_setup(argv, rc, out)
        ledger.record(f"set-up {argv[0]}", step)


def timed_op(wl, op, ledger, walls, checks):
    """Run one op; its wall time is kept only if it returned an exit code."""
    def go():
        rc, dt, out, _ = invoke(op.argv)
        walls.append(dt)
        chk = op.check(rc, out)
        checks.append(chk)
        return chk
    ledger.record(f"{wl.name} {op.label}", go)


class SetupProbe:
    """Cold set-up timed in a fresh process: import kcurv, the workload's
    set-up subcommands, loading its form."""

    def __init__(self, wl):
        d = wl.work / "probe"
        d.mkdir(exist_ok=True)
        self.spec = json.dumps({"src": str(SRC), "steps": wl.setup_steps(d),
                                "form": str(wl.form_path(d))})
        self.times = []

    def run(self):
        res = subprocess.run([sys.executable, str(BENCH / "setup_probe.py"), self.spec],
                             capture_output=True, text=True, timeout=120)
        if res.returncode != 0:
            return Check(False, msg=f"set-up probe exited {res.returncode}: {res.stderr[-500:]}")
        self.times.append(float(res.stdout.strip().splitlines()[-1]))
        return Check(True)


def end_to_end(wl, ledger, seconds):
    """Timed calls until their wall times add up to ``seconds``.  Set-up
    probes are spaced evenly over the timed work, so both samples cover the
    whole run and see the same machine conditions."""
    walls, checks = [], []
    probe = SetupProbe(wl)
    k = 0
    next_probe = 0.0
    while sum(walls) < seconds or not walls:
        before = len(walls)
        timed_op(wl, wl.op(k), ledger, walls, checks)
        k += 1
        if len(walls) == before:        # the call raised before it was timed
            break
        if sum(walls) >= next_probe:
            ledger.record("set-up probe", probe.run)
            next_probe += seconds / SETUP_PROBES
    while len(probe.times) < SETUP_PROBES:
        chk = ledger.record("set-up probe", probe.run)
        if chk is None or not chk.ok:
            break
    rates = [c.units / w for w, c in zip(walls, checks) if c.ok]
    metrics = {
        "throughput": (statistics.median(rates) if rates else 0.0, "1/s"),
        "wall_s": (statistics.median(walls) if walls else 0.0, "s"),
        "setup_s": (statistics.median(probe.times) if probe.times else 0.0, "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }
    quality = {"fail_share": (ledger.failed / ledger.attempted, "ratio")}
    if isinstance(wl, ScanWorkload):
        samples = sum(c.extra.get("samples", 0) for c in checks)
        acc = sum(c.extra.get("accepted", 0) for c in checks)
        quality["accepted_share"] = (acc / samples if samples else 0.0, "ratio")
        quality["accepted_per_s"] = (acc / sum(walls), "1/s")
    if isinstance(wl, GeodesicCicy1):
        quality["level_drift_max"] = (max((c.extra.get("level_drift", 0.0) for c in checks),
                                          default=0.0), "1")
        quality["speed_drift_max"] = (max((c.extra.get("speed_drift", 0.0) for c in checks),
                                          default=0.0), "1")
    notes = {"throughput": f"{wl.units} per second, median of {len(rates)} timed calls",
             "wall_s": f"median of {len(walls)} timed calls",
             "setup_s": f"median of {len(probe.times)} fresh processes"}
    return metrics, quality, notes, {"ops": k, "walls": walls, "setup": probe.times}


# ---------------------------------------------------------------- tracing


def _probes():
    def scan(args, rep):
        return rep["samples"], 0.0

    def region(args, csv):
        return csv.count("\n") - 1, 0.0

    return {
        "symform.eval_many": lambda args, res: (len(args[1]), len(args[1]) * len(args[0].c)),
        "cone.classify": lambda args, cp: (float(cp.classification == "index_cone"), 0.0),
        "cli.scan": scan,
        "cli.region_grid": region,
        "geodesic.geodesic_integrate": lambda args, tr: (len(tr.times) - 1, 0.0),
    }


CURVATURE_SKIPS = ("DegeneratePlane", "IllConditioned", "NearDegenerate", "ChartExit")


def layer_metrics(tracer, setup_end, n_ops):
    """Per-layer numbers for one pass of the workload: the traced set-up
    once plus the mean of the traced timed calls."""
    A = tracer.arrays()
    n = len(A["fn"])
    setup = np.arange(n) < setup_end
    ones = np.ones(n)
    names = tracer.names

    def mask(name):
        return A["fn"] == names.index(name) if name in names else np.zeros(n, bool)

    def per_pass(values, m):
        # summing before dividing keeps counts of identical calls exact
        return float(values[m & setup].sum() + values[m & ~setup].sum() / max(n_ops, 1))

    def calls(m):
        return per_pass(ones, m)

    def total(key, m):
        return per_pass(A[key], m)

    def child_of(m_child, m_parent):
        par = A["parent"]
        ok = par >= 0
        out = np.zeros(n, bool)
        out[ok] = m_parent[par[ok]]
        return m_child & out

    M = {}
    cur = mask("curvature.sectional_curvature_numeric")
    c = calls(cur)
    durs = A["dur"][cur]
    M["curvature.sectional_curvature_numeric.calls"] = (c, "count")
    M["curvature.sectional_curvature_numeric.self_s"] = (total("self", cur), "s")
    M["curvature.sectional_curvature_numeric.p50_ms"] = (
        float(np.percentile(durs, 50) * 1e3) if durs.size else 0.0, "ms")
    M["curvature.sectional_curvature_numeric.p90_ms"] = (
        float(np.percentile(durs, 90) * 1e3) if durs.size else 0.0, "ms")
    M["curvature.sectional_curvature_numeric.ok_share"] = (
        calls(cur & (A["status"] == 0)) / c if c else 0.0, "ratio")
    raised = cur & (A["status"] > 0)
    known = np.zeros(n, bool)
    for ename in CURVATURE_SKIPS:
        m = raised & (A["status"] == (tracer.errors.index(ename) + 1
                                      if ename in tracer.errors else -1))
        known |= m
        M[f"curvature.sectional_curvature_numeric.raised.{ename}"] = (calls(m), "count")
    M["curvature.sectional_curvature_numeric.raised.other"] = (calls(raised & ~known), "count")

    em = mask("symform.eval_many")
    M["symform.eval_many.calls"] = (calls(em), "count")
    M["symform.eval_many.rows"] = (total("work_a", em), "count")
    M["symform.eval_many.term_rows"] = (total("work_b", em), "count")
    M["symform.eval_many.self_s"] = (total("self", em), "s")

    cl = mask("cone.classify")
    M["cone.classify.calls"] = (calls(cl), "count")
    M["cone.classify.self_s"] = (total("self", cl), "s")
    M["cone.classify.index_share"] = (total("work_a", cl) / calls(cl) if calls(cl) else 0.0,
                                      "ratio")
    sc = mask("cli.scan")
    samples = total("work_a", sc)
    M["cli.scan.draws_per_sample"] = (calls(child_of(cl, sc)) / samples if samples else 0.0,
                                      "draws/sample")
    M["cli.scan.no_point"] = (samples - calls(child_of(cur, sc)), "count")

    for name in ("cone.classify_exact", "symform.eval_exact", "geodesic.geodesic_integrate",
                 "cone.tangent_basis", "symform.third_contract", "symform.hessian_matrix",
                 "symform.eval", "symform.gradient"):
        m = mask(name)
        M[f"{name}.calls"] = (calls(m), "count")
        M[f"{name}.self_s"] = (total("self", m), "s")
    rg = mask("cli.region_grid")
    nodes = total("work_a", rg)
    M["cli.region_grid.node_ms"] = (total("dur", rg) / nodes * 1e3 if nodes else 0.0, "ms")
    gi = mask("geodesic.geodesic_integrate")
    steps = total("work_a", gi)
    M["geodesic.step_ms"] = (total("dur", gi) / steps * 1e3 if steps else 0.0, "ms")
    for name in ("symform.hessian_det_poly", "aronhold.aronhold_S", "aronhold.bound_polynomials",
                 "cicy.intersection_form", "cli.report_invariants", "cli.witness"):
        M[f"{name}.self_s"] = (total("self", mask(name)), "s")
    for layer in tracer_mod.LAYERS:
        m = np.isin(A["fn"], [i for i, nm in enumerate(names) if nm.split(".")[0] == layer])
        M[f"layer.{layer}.self_s"] = (total("self", m), "s")
    M["trace.spans"] = (calls(np.ones(n, bool)), "count")
    return M


def traced_run(wl, ledger, seconds):
    """Set-up once under tracing, then op 0 repeatedly in untraced/traced
    pairs (alternating which goes first) until ``seconds`` have passed."""
    tracer = tracer_mod.Tracer(_probes())
    tracer.install(kcurv)
    try:
        run_setup(wl, ledger)
    finally:
        tracer.uninstall()
    setup_end = len(tracer)
    op = wl.op(0)
    plain, traced, checks = [], [], []
    t_start = time.perf_counter()
    pair = 0
    while time.perf_counter() - t_start < seconds or not traced:
        for traced_now in ((False, True) if pair % 2 == 0 else (True, False)):
            if traced_now:
                tracer.install(kcurv)
                try:
                    timed_op(wl, op, ledger, traced, checks)
                finally:
                    tracer.uninstall()
            else:
                timed_op(wl, op, ledger, plain, checks)
        pair += 1
        if ledger.failed:
            break
    M = layer_metrics(tracer, setup_end, len(traced))
    over = statistics.median(traced) - statistics.median(plain) if plain and traced else 0.0
    M["trace.traced_wall_s"] = (statistics.median(traced) if traced else 0.0, "s")
    M["trace.untraced_wall_s"] = (statistics.median(plain) if plain else 0.0, "s")
    M["trace.overhead_s"] = (over, "s")
    M["trace.overhead_share"] = (over / statistics.median(plain) if plain else 0.0, "ratio")
    return M, tracer


# ---------------------------------------------------------------- metadata


def metadata(args, env_before):
    blas = {}
    with contextlib.suppress(Exception):
        deps = np.show_config(mode="dicts")["Build Dependencies"]
        blas = {k: deps[k].get("name", "") + " " + deps[k].get("version", "")
                for k in ("blas", "lapack") if k in deps}
    commit = "unknown"
    if (ROOT / ".git").exists():
        with contextlib.suppress(Exception):
            commit = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                                    capture_output=True, text=True, timeout=30,
                                    check=True).stdout.strip()
    src_lines = sum(len(p.read_text().splitlines()) for p in (SRC / "kcurv").glob("*.py"))
    return {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "python": platform.python_version(),
        "numpy": np.__version__, "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "blas": blas, "env_before": env_before,
        "env_used": {v: os.environ.get(v) for v in THREAD_VARS + ("KCURV_THREADS",)},
        "commit": commit, "src_kcurv_lines": src_lines,
    }


# ---------------------------------------------------------------- main


def run_one(args):
    # numpy and kcurv load only here: after the BLAS thread variables are set
    # and with this checkout's src/ first on the path
    global np, kcurv, oracle, tracer_mod
    if not (SRC / "kcurv" / "__init__.py").is_file():
        print(f"error: kcurv sources not found under {SRC}", file=sys.stderr)
        return 2
    env_before = {v: os.environ.get(v) for v in THREAD_VARS + ("KCURV_THREADS",)}
    for v in THREAD_VARS:
        os.environ[v] = "1"
    os.environ.pop("KCURV_THREADS", None)
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(BENCH))
    import numpy as np
    import kcurv
    import kcurv.cli
    import oracle
    import tracer as tracer_mod
    if Path(kcurv.__file__).resolve().parent != (SRC / "kcurv").resolve():
        print(f"error: imported kcurv from {kcurv.__file__}, not {SRC}", file=sys.stderr)
        return 2

    OUT.mkdir(exist_ok=True)
    work = OUT / f"work-{os.getpid()}"
    work.mkdir()
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    try:
        wl = WORKLOADS[args.workload](args.seed, work)
        wl.prepare()
        ledger = Ledger()
        if args.trace == 0:
            run_setup(wl, ledger)
            if isinstance(wl, ScanCicy1):
                ledger.record("determinism", lambda: wl.determinism(invoke))
            metrics, quality, notes, detail = end_to_end(wl, ledger, args.seconds)
        else:
            metrics, tracer = traced_run(wl, ledger, args.seconds)
            quality, notes, detail = {}, {}, {}
            tracer.dump(OUT / f"spans-{tag}.csv.gz")
    finally:
        shutil.rmtree(work, ignore_errors=True)

    meta = metadata(args, env_before)
    print(f"workload {wl.name} seed {args.seed} trace {args.trace}")
    for name, (value, unit) in {**metrics, **quality}.items():
        note = notes.get(name, "")
        print(f"  {name:<56} {value:>14.6g} {unit:<12} {note}")
    print(f"  operations: {ledger.attempted} attempted, {ledger.failed} failed")
    print("meta " + json.dumps(meta, sort_keys=True))
    (OUT / f"result-{tag}.json").write_text(json.dumps(
        {"metrics": metrics, "quality": quality, "meta": meta, "detail": detail},
        indent=1, sort_keys=True))
    result = {"correct": ledger.failed == 0, "attempted": ledger.attempted,
              "failed": ledger.failed,
              "metrics": {n: {"value": v, "unit": u} for n, (v, u) in metrics.items()}}
    print(json.dumps(result))
    return 0


def run_all(args):
    """Each workload in its own process, then one combined result line."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOADS:
        res = subprocess.run([sys.executable, str(Path(__file__).resolve()),
                              "--workload", name, "--seed", str(args.seed),
                              "--seconds", str(args.seconds), "--trace", str(args.trace)],
                             capture_output=True, text=True, timeout=900)
        sys.stderr.write(res.stderr)
        lines = res.stdout.strip().splitlines()
        if res.returncode != 0 or not lines:
            print(f"error: workload {name} exited {res.returncode}", file=sys.stderr)
            return 2
        print("\n".join(lines[:-1]))
        one = json.loads(lines[-1])
        combined["correct"] &= one["correct"]
        combined["attempted"] += one["attempted"]
        combined["failed"] += one["failed"]
        for metric, val in one["metrics"].items():
            combined["metrics"][f"{name}.{metric}"] = val
    print(json.dumps(combined))
    return 0


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = ap.parse_args(argv)
    return run_all(args) if args.workload == "all" else run_one(args)


if __name__ == "__main__":
    sys.exit(main())
