"""The experiment scripts run end to end against the current package."""

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def run_script(name, *args):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
    return subprocess.run([sys.executable, str(ROOT / "scripts" / name), *args],
                          capture_output=True, text=True, env=env, timeout=300)


def test_bounds_sweep():
    proc = run_script("bounds_sweep.py", "--samples", "5")
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    assert lines[0].split()[:3] == ["fixture", "d", "r"]
    rows = {line[:22].strip(): line for line in lines[2:15]}
    assert len(rows) == 13
    assert rows["lorentzian r=3"].endswith("holds")
    assert rows["cicy (3,2,2) ambient"].endswith("holds")
    # five samples are too few for the thin r = 9 cone; the row says so
    assert rows["hermitian det 3x3"].endswith("no index-cone point found in 500 draws")
    assert rows["nodal cubic"].endswith("violated (known positive-curvature subcone)")
    assert not any("VIOLATED" in row for row in rows.values())
    assert lines[-1].startswith("total ") and "window = [-d(d-1)/2, 0]" in lines[-1]


def test_nodal_region_study(tmp_path):
    out = tmp_path / "region.csv"
    proc = run_script("nodal_region_study.py", "--res", "20", "--budget", "500",
                      "--out", str(out))
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    assert "S        = 1/81" in lines
    assert lines[6].startswith(f"wrote {out}: 400 grid points (20x20")
    assert "in-cone grid points: 176" in lines
    assert ("exact (R <= 0) <=> (P_upper <= 0) at every in-cone point: "
            "0 mismatches out of 176") in lines
    assert lines[-3].startswith("witness nodal cubic            found")
    assert lines[-1].startswith("witness concurrent lines 6xyz  not found")
    assert len(out.read_text().splitlines()) == 401
