"""End-to-end tests for the command-line interface (via kcurv.cli.main)."""

import csv
import json
from fractions import Fraction

import numpy as np
import pytest

from kcurv import aronhold, cli, cone, geodesic
from kcurv.cli import _draw_points, _merge_vector_flags, main, region_grid, scan
from kcurv.errors import CrossCheckError, GeodesicFailure, KcurvError, NearDegenerate
from kcurv.fixtures import (
    cicy1_form,
    concurrent_lines,
    elliptic_cubic,
    hermitian_det,
    lorentzian,
    nodal_cubic,
    triple_product,
)
from kcurv.symform import Form


@pytest.fixture()
def nodal_path(tmp_path):
    path = tmp_path / "nodal.json"
    path.write_text(nodal_cubic().canonical_json())
    return str(path)


@pytest.fixture()
def xyz_path(tmp_path):
    path = tmp_path / "xyz.json"
    path.write_text(triple_product().canonical_json())
    return str(path)


@pytest.fixture()
def lorentz_path(tmp_path):
    path = tmp_path / "lor.json"
    F = Form(2, 3, {(2, 0, 0): 1, (0, 2, 0): -1, (0, 0, 2): -1})
    path.write_text(F.canonical_json())
    return str(path)


class TestArgvPreprocessing:
    def test_negative_vector_values_merge(self):
        argv = ["region", "--window", "-1.5,1.5,-1.5,1.5", "--res", "4"]
        merged = _merge_vector_flags(argv)
        assert merged == ["region", "--window=-1.5,1.5,-1.5,1.5", "--res", "4"]

    def test_non_negative_values_untouched(self):
        argv = ["curvature", "--point", "1,2,3"]
        assert _merge_vector_flags(argv) == argv

    def test_equals_form_untouched(self):
        argv = ["curvature", "--point=-1,2,3"]
        assert _merge_vector_flags(argv) == argv


class TestCicyCommand:
    def test_writes_form_json(self, tmp_path, capsys):
        out = tmp_path / "f.json"
        rc = main(
            [
                "cicy",
                "--ambient",
                "3,2,2",
                "--columns",
                "1,1,0;1,1,0;2,1,1;0,0,2",
                "--out",
                str(out),
            ]
        )
        assert rc == 0
        data = json.loads(out.read_text())
        assert data["degree"] == 3 and data["dim"] == 3
        line = capsys.readouterr().out
        assert "calabi_yau=True" in line
        assert "degree 3" in line

    def test_round_trips_through_curvature(self, tmp_path, capsys):
        out = tmp_path / "f.json"
        main(["cicy", "--ambient", "3,2,2",
              "--columns", "1,1,0;1,1,0;2,1,1;0,0,2", "--out", str(out)])
        capsys.readouterr()
        rc = main(["curvature", "--form", str(out), "--point", "1,1,1",
                   "--method", "closed"])
        assert rc == 0
        rep = json.loads(capsys.readouterr().out)
        assert -2.25 <= rep["K"] <= 0.0


class TestInvariantsCommand:
    def test_nodal_report(self, nodal_path, capsys):
        rc = main(["invariants", "--form", nodal_path])
        assert rc == 0
        text = capsys.readouterr().out
        assert "S = 1/81" in text
        assert "P_upper" in text and "P_lower" in text
        assert "H = " in text

    def test_triple_product_report(self, xyz_path, capsys):
        rc = main(["invariants", "--form", xyz_path])
        assert rc == 0
        text = capsys.readouterr().out
        assert "S = 1" in text

    def test_rejects_non_ternary_cubic(self, lorentz_path, capsys):
        rc = main(["invariants", "--form", lorentz_path])
        assert rc == 2


class TestCurvatureCommand:
    def test_fd_and_closed_agree(self, nodal_path, capsys):
        rc = main(["curvature", "--form", nodal_path,
                   "--point", "1,-0.5,0.1", "--method", "fd"])
        assert rc == 0
        fd = json.loads(capsys.readouterr().out)
        rc = main(["curvature", "--form", nodal_path,
                   "--point", "1,-1/2,1/10", "--method", "closed"])
        assert rc == 0
        closed = json.loads(capsys.readouterr().out)
        assert closed["K_exact"] == "-518/289"
        assert abs(fd["K"] - closed["K"]) < 1e-6
        assert fd["method"] == "finite_difference"

    @pytest.mark.parametrize("plane", [None, "0,1,-1;1,0,-2"])
    def test_analytic_method(self, tmp_path, capsys, plane):
        path = tmp_path / "cicy1.json"
        path.write_text(cicy1_form().canonical_json())
        extra = [] if plane is None else ["--plane", plane]
        outs = {}
        for method in ("fd", "analytic"):
            rc = main(["curvature", "--form", str(path), "--point", "2,1,1",
                       "--method", method, *extra])
            assert rc == 0
            outs[method] = json.loads(capsys.readouterr().out)
        fd, an = outs["fd"], outs["analytic"]
        assert set(an) == set(fd)
        assert an["method"] == "analytic" and an["err_estimate"] == 0.0
        assert an["point"] == fd["point"] and an["plane"] == fd["plane"]
        closed = float(aronhold.sectional_curvature_closed(cicy1_form(), [2, 1, 1]))
        assert abs(an["K"] - closed) < 1e-12
        assert abs(fd["K"] - an["K"]) < 1e-6

    def test_surface_method(self, lorentz_path, capsys):
        rc = main(["curvature", "--form", lorentz_path,
                   "--point", "1,0,0", "--method", "surface"])
        assert rc == 0
        rep = json.loads(capsys.readouterr().out)
        assert abs(rep["K"] + 1.0) < 1e-3

    def test_explicit_plane(self, lorentz_path, capsys):
        rc = main(["curvature", "--form", lorentz_path,
                   "--point", "2,1,1", "--plane", "0,1,0;0,0,1"])
        assert rc == 0
        rep = json.loads(capsys.readouterr().out)
        assert abs(rep["K"] + 1.0) < 1e-5

    def test_point_outside_cone_is_input_error(self, nodal_path, capsys):
        # (1,-2,0) classifies as positive_cone_only for the nodal cubic.
        rc = main(["curvature", "--form", nodal_path, "--point", "1,-2,0"])
        assert rc == 2
        assert capsys.readouterr().err != ""


class TestScanCommand:
    def test_flat_form_scan_passes(self, xyz_path, tmp_path, capsys):
        out = tmp_path / "r.json"
        rc = main(["scan", "--form", xyz_path, "--region", "orthant",
                   "--samples", "40", "--seed", "7", "--out", str(out)])
        assert rc == 0
        rep = json.loads(out.read_text())
        assert rep["samples"] == 40
        assert rep["violations"] == []
        assert abs(rep["K_min"]) < 1e-6 and abs(rep["K_max"]) < 1e-6
        assert rep["region"] == "orthant"
        assert set(rep["bounds_used"]) == {"lower", "upper", "tolerance_rule"}

    def test_byte_identical_reruns(self, xyz_path, tmp_path):
        out1, out2 = tmp_path / "a.json", tmp_path / "b.json"
        for out in (out1, out2):
            main(["scan", "--form", xyz_path, "--region", "ball",
                  "--samples", "25", "--seed", "3", "--out", str(out)])
        assert out1.read_bytes() == out2.read_bytes()

    def test_samples_do_not_depend_on_the_sample_count(self):
        # sample i draws from its own SeedSequence([seed, i]) substream, so a
        # shorter scan reports a prefix of a longer one
        F = nodal_cubic()
        short, full = scan(F, "ball", 30, 4), scan(F, "ball", 60, 4)
        assert len(short["violations"]) > 0
        assert short["violations"] == full["violations"][:len(short["violations"])]
        assert full["K_min"] <= short["K_min"] <= short["K_max"] <= full["K_max"]

    def test_seed_changes_output(self, xyz_path, tmp_path):
        out1, out2 = tmp_path / "a.json", tmp_path / "b.json"
        main(["scan", "--form", xyz_path, "--region", "ball",
              "--samples", "10", "--seed", "1", "--out", str(out1)])
        main(["scan", "--form", xyz_path, "--region", "ball",
              "--samples", "10", "--seed", "2", "--out", str(out2)])
        assert out1.read_bytes() != out2.read_bytes()

    def test_violations_exit_code(self, nodal_path, tmp_path, capsys):
        # The nodal cubic has a genuine positive-curvature subregion near
        # the Hessian wall, so a broad orthant scan must report violations
        # and exit 1 (exit codes: 0 clean, 1 violations, 2 input error).
        out = tmp_path / "r.json"
        rc = main(["scan", "--form", nodal_path, "--region", "orthant",
                   "--samples", "200", "--seed", "0", "--out", str(out)])
        rep = json.loads(out.read_text())
        assert rc == 1
        assert len(rep["violations"]) > 0
        v = rep["violations"][0]
        assert set(v) == {"point", "plane", "K"}

    def test_report_schema(self):
        rep = scan(hermitian_det(3), "ball", 40, 0)
        assert rep["schema_version"] == "2"
        assert rep["bounds_used"] == {"lower": -3.0, "upper": 0.0, "tolerance_rule": "1e-06"}
        reasons = rep["skipped_by_reason"]
        assert set(reasons) == {"no_point", "NearDegenerate", "DegeneratePlane",
                                "IllConditioned"}
        assert reasons["no_point"] > 0
        assert rep["skipped"] == sum(reasons.values())

    def test_slice_size_does_not_change_the_report(self, monkeypatch):
        # rounds and curvature batches are cut into slices of at most SLICE
        # rows; every per-row result is independent of the cut.  Sample 374
        # of the cicy1 scan draws two nearly parallel plane vectors and is
        # refused, so with one-row slices a slice has no accepted row.
        cases = [(nodal_cubic(), "ball", 120, 0), (hermitian_det(3), "ball", 40, 1),
                 (cicy1_form(), "orthant", 375, 805024)]
        reports = []
        for size in (1, 7, 128):
            monkeypatch.setattr(cli, "SLICE", size)
            reports.append([json.dumps(scan(*case), sort_keys=True) for case in cases])
        assert reports[0] == reports[1] == reports[2]
        assert json.loads(reports[0][2])["skipped_by_reason"]["DegeneratePlane"] == 1

    @pytest.mark.parametrize("seed", [30, 32])
    def test_crosscheck_is_relative(self, seed):
        # these nodal scans reach K ~ 2e9 near the Hessian wall, where an
        # absolute tolerance on K would fail on rounding alone
        rep = scan(nodal_cubic(), "ball", 300, seed)
        assert rep["K_max"] > 1e9

    def test_crosscheck_catches_a_wrong_curvature(self, monkeypatch):
        analytic = cli.curvature._analytic_K
        monkeypatch.setattr(cli.curvature, "_analytic_K",
                            lambda *args: analytic(*args) * (1.0 + 1e-7))
        with pytest.raises(CrossCheckError):
            scan(cicy1_form(), "orthant", 20, 0)

    def test_empty_region(self, tmp_path, capsys):
        path = tmp_path / "lines.json"
        path.write_text(concurrent_lines().canonical_json())
        out = tmp_path / "r.json"
        rc = main(["scan", "--form", str(path), "--region", "orthant",
                   "--samples", "10", "--seed", "0", "--out", str(out)])
        assert rc == 2


def _draw_one_at_a_time(F, rng, region, budget):
    """Reference sampler: one draw, normalized, then classified, per step."""
    for used in range(1, budget + 1):
        if region == "orthant":
            x = rng.exponential(1.0, F.dim)
        else:
            x = rng.standard_normal(F.dim)
            n = np.linalg.norm(x)
            if n == 0.0:
                continue
            x = x / n
        try:
            cp = cone.classify(F, x)
        except (NearDegenerate, KcurvError):
            continue
        if cp.classification == cone.INDEX_CONE:
            return cp.x, used
    return None, budget


SAMPLER_FORMS = {"nodal": nodal_cubic(), "lorentzian4": lorentzian(4),
                 "hermdet3": hermitian_det(3)}


class TestBatchedSampler:
    """_draw_points over many generators at once matches drawing and
    classifying one point at a time with each generator."""

    def _compare(self, F, region, seed, samples, budget=100):
        seqs = [np.random.SeedSequence([seed, i]) for i in samples]
        got_rngs = [np.random.default_rng(s) for s in seqs]
        ref_rngs = [np.random.default_rng(s) for s in seqs]
        points, used = _draw_points(F, got_rngs, region, budget)
        outcomes = []
        for x, n, got, ref in zip(points, used, got_rngs, ref_rngs):
            x_ref, used_ref = _draw_one_at_a_time(F, ref, region, budget)
            assert n == used_ref
            assert (x is None) == (x_ref is None)
            if x is not None:
                assert np.array_equal(x, x_ref)
            assert got.bit_generator.state == ref.bit_generator.state
            outcomes.append((n, x is None))
        return outcomes

    @pytest.mark.parametrize("name", sorted(SAMPLER_FORMS))
    @pytest.mark.parametrize("region", ["orthant", "ball"])
    def test_matches_one_at_a_time(self, name, region):
        outcomes = self._compare(SAMPLER_FORMS[name], region, 3, range(12))
        assert any(not missed for _, missed in outcomes)

    def test_first_draw_hits(self):
        # a hit on the first draw ends a one-row round, so nothing is redrawn
        outcomes = self._compare(lorentzian(4), "ball", 2, range(12))
        assert (1, False) in outcomes

    def test_covers_every_batch_and_exhaustion(self, monkeypatch):
        # r = 9 ball: most samples use several rounds or the whole budget;
        # a slice of 7 rows splits every round into several classify calls
        monkeypatch.setattr(cli, "SLICE", 7)
        outcomes = self._compare(hermitian_det(3), "ball", 0, range(40))
        used = [u for u, missed in outcomes if not missed]
        assert any(missed for _, missed in outcomes)
        assert max(used) > 1 + 4 + 16
        # a hit before the last row of its round rewinds the generator
        assert any(u not in (1, 5, 21, 85) for u in used)

    @pytest.mark.parametrize("budget", [1, 3, 7])
    def test_small_budgets(self, budget):
        self._compare(hermitian_det(3), "ball", 5, range(10), budget)

    def test_point_is_returned_after_the_flip(self):
        # about half the ball draws have F < 0 and are classified at -x
        F = nodal_cubic()
        rngs = [np.random.default_rng(np.random.SeedSequence([1, i])) for i in range(30)]
        points, _ = _draw_points(F, rngs, "ball", 100)
        flips = 0
        for x in points:
            if x is not None:
                assert F.eval(x) > 0
                flips += cone.classify(F, x).flipped
        assert flips == 0

    def test_unknown_region(self):
        with pytest.raises(KcurvError):
            _draw_points(nodal_cubic(), [np.random.default_rng(0)], "cube", 10)


class TestWitnessCommand:
    def test_nodal_witness_found(self, nodal_path, capsys):
        rc = main(["witness", "--form", nodal_path, "--budget", "10000",
                   "--seed", "0"])
        assert rc == 0
        rep = json.loads(capsys.readouterr().out)
        assert rep["status"] == "found"
        assert -3.0 <= rep["R"] <= 0.0
        assert rep["examined"] <= 10000

    def test_empty_cone_not_found(self, tmp_path, capsys):
        path = tmp_path / "lines.json"
        path.write_text(concurrent_lines().canonical_json())
        rc = main(["witness", "--form", str(path)])
        assert rc == 1
        rep = json.loads(capsys.readouterr().out)
        assert rep["status"] == "not_found"
        assert rep["reason"] == "index cone empty"
        assert rep["examined"] == 0


class TestRegionCommand:
    def test_grid_csv(self, nodal_path, tmp_path, capsys):
        out = tmp_path / "grid.csv"
        rc = main(["region", "--form", nodal_path, "--fix", "0",
                   "--window", "-1.5,1.5,-1.5,1.5", "--res", "6",
                   "--out", str(out)])
        assert rc == 0
        rows = list(csv.reader(out.open()))
        assert rows[0] == ["x", "y", "signF", "signH", "in_index_cone",
                          "signPupper", "signPlower"]
        assert len(rows) == 1 + 36
        # Coordinates are exact Fractions evaluated on the affine slice.
        xs = sorted({Fraction(r[0]) for r in rows[1:]})
        assert xs[0] == Fraction(-3, 2) and xs[-1] == Fraction(3, 2)
        # Spot-check one row exactly: x0=1 fixed, (x1, x2) = (-3/2, -3/2):
        # F = x1^3 + x1^2 - x2^2 = -27/8 + 9/4 - 9/4 < 0.
        row = next(r for r in rows[1:]
                   if r[0] == "-3/2" and r[1] == "-3/2")
        assert row[2] == "-1"

    def test_in_cone_rows_have_negative_upper_bound_poly(self, nodal_path, tmp_path):
        out = tmp_path / "grid.csv"
        main(["region", "--form", nodal_path, "--fix", "0",
              "--window", "-1.5,-0.5,-0.5,0.5", "--res", "8",
              "--out", str(out)])
        rows = list(csv.DictReader(out.open()))
        in_cone = [r for r in rows if r["in_index_cone"] == "1"]
        assert in_cone, "window should intersect the index cone"
        for r in in_cone:
            assert r["signPupper"] == "-1"

    @pytest.mark.parametrize("F", [nodal_cubic(), cicy1_form(), elliptic_cubic(),
                                   Form(3, 3, {(3, 0, 0): Fraction(1, 3), (0, 2, 1): -1,
                                               (1, 1, 1): Fraction(5, 2),
                                               (0, 0, 3): Fraction(-2, 7)})],
                             ids=["nodal", "cicy1", "elliptic", "rational"])
    def test_bound_signs_match_bound_polynomials(self, F):
        # the grid takes the P_upper / P_lower signs from F(p), H(p) and S
        bp = aronhold.bound_polynomials(F)
        rows = list(csv.DictReader(region_grid(F, 1, (-2, 2, -1.5, 1.5), 7).splitlines()))
        assert len(rows) == 49
        signs = set()
        for r in rows:
            p = [Fraction(r["x"]), Fraction(1), Fraction(r["y"])]
            for col, P in (("signPupper", bp["P_upper"]), ("signPlower", bp["P_lower"])):
                value = P.eval_exact(p)
                assert int(r[col]) == (value > 0) - (value < 0)
                signs.add(int(r[col]))
        assert {-1, 1} <= signs

    def test_rejects_bad_fix_index(self, nodal_path, tmp_path):
        rc = main(["region", "--form", nodal_path, "--fix", "5",
                   "--window", "-1,1,-1,1", "--res", "4",
                   "--out", str(tmp_path / "g.csv")])
        assert rc == 2


class TestGeodesicCommand:
    def test_trajectory_csv(self, lorentz_path, tmp_path, capsys):
        out = tmp_path / "traj.csv"
        rc = main(["geodesic", "--form", lorentz_path, "--point", "1,0,0",
                   "--dir", "0,0.6,0.8", "--time", "1.0", "--out", str(out)])
        assert rc == 0
        rows = list(csv.reader(out.open()))
        assert rows[0] == ["t", "x1", "x2", "x3", "speed", "Fdrift"]
        assert len(rows) == 1 + 1001
        last = rows[-1]
        assert abs(float(last[0]) - 1.0) < 1e-12
        # Exact endpoint: cosh(1) x0 + sinh(1) v.
        import numpy as np

        exact = np.cosh(1.0) * np.array([1, 0, 0]) + np.sinh(1.0) * np.array(
            [0, 0.6, 0.8]
        )
        got = np.array([float(last[1]), float(last[2]), float(last[3])])
        assert np.linalg.norm(got - exact) < 1e-6
        assert abs(float(last[4]) - 1.0) < 1e-8

    def test_wall_exit_is_input_error(self, tmp_path, capsys):
        # A long run on the diagonal cubic exits the cone; the CLI reports
        # the failure on stderr and returns the input-error code.
        path = tmp_path / "diag.json"
        diag = Form(3, 3, {(3, 0, 0): 1, (0, 3, 0): -1, (0, 0, 3): -1})
        path.write_text(diag.canonical_json())
        rc = main(["geodesic", "--form", str(path), "--point", "1.5,0.9,0.7",
                   "--dir", "0,0,-1", "--time", "5.0",
                   "--out", str(tmp_path / "t.csv")])
        assert rc == 2
        err = capsys.readouterr().err
        # the same run through the library says where it stopped; the CLI
        # message is the exception's text
        with pytest.raises(GeodesicFailure) as info:
            geodesic.geodesic_integrate(diag, [1.5, 0.9, 0.7], [0.0, 0.0, -1.0], 5.0)
        exc = info.value
        assert 1 <= exc.step < 5000 and exc.t == pytest.approx(exc.step / 1000)
        assert err == f"error: {exc}\n" and f"step {exc.step}" in err

    @pytest.mark.parametrize("flag,value", [("--point", "nan,1,1"),
                                            ("--dir", "0,inf,-1")])
    def test_non_finite_input_is_named(self, tmp_path, capsys, flag, value):
        path = tmp_path / "cicy1.json"
        path.write_text(cicy1_form().canonical_json())
        args = {"--point": "2,1,1", "--dir": "0,1,-1", flag: value}
        rc = main(["geodesic", "--form", str(path), "--point", args["--point"],
                   "--dir", args["--dir"], "--out", str(tmp_path / "t.csv")])
        assert rc == 2
        err = capsys.readouterr().err
        assert "is not finite" in err and "LinAlgError" not in err
        assert ("start point" if flag == "--point" else "direction") in err

    @pytest.mark.parametrize("point,direction,message", [
        ("2,1", "0,1,-1", "start point has shape (2,), expected (3,)"),
        ("2,1,1", "1,0", "direction has shape (2,), expected (3,)"),
    ])
    def test_wrong_length_vector_is_input_error(self, tmp_path, capsys, point, direction,
                                                message):
        path = tmp_path / "cicy1.json"
        path.write_text(cicy1_form().canonical_json())
        rc = main(["geodesic", "--form", str(path), "--point", point, "--dir", direction,
                   "--out", str(tmp_path / "t.csv")])
        assert rc == 2
        assert capsys.readouterr().err == f"error: {message}\n"


class TestInputErrors:
    def test_missing_file(self, capsys):
        rc = main(["invariants", "--form", "/nonexistent/f.json"])
        assert rc == 2
        assert capsys.readouterr().err != ""

    @pytest.mark.parametrize("extra", [[], ["--plane", "0,1,-1;1,0,-2"],
                                       ["--method", "surface"]])
    def test_non_finite_curvature_point(self, tmp_path, capsys, extra):
        path = tmp_path / "cicy1.json"
        path.write_text(cicy1_form().canonical_json())
        rc = main(["curvature", "--form", str(path), "--point", "2,1,nan", *extra])
        assert rc == 2
        assert "non-finite point [2.0, 1.0, nan]" in capsys.readouterr().err

    def test_malformed_point(self, nodal_path, capsys):
        rc = main(["curvature", "--form", nodal_path, "--point", "1,spam,3"])
        assert rc == 2

    def test_wrong_point_length(self, nodal_path, capsys):
        rc = main(["curvature", "--form", nodal_path, "--point", "1,2"])
        assert rc == 2

    @pytest.mark.parametrize("method", ["fd", "analytic", "surface"])
    def test_wrong_length_plane_vector(self, tmp_path, capsys, method):
        path = tmp_path / "cicy1.json"
        path.write_text(cicy1_form().canonical_json())
        rc = main(["curvature", "--form", str(path), "--point", "2,1,1",
                   "--plane", "0,1;0,0,1", "--method", method])
        assert rc == 2
        assert capsys.readouterr().err == (
            "error: plane vector L1 has shape (2,), expected (3,)\n")

    def test_malformed_json(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        rc = main(["invariants", "--form", str(path)])
        assert rc == 2
