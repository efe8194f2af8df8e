import json

import numpy as np
import pytest

from discrepkit import DiscreteMeasure, PointSet, midpoint_set
from discrepkit.cli import (ParseError, read_marginals, read_measure,
                            read_pointset, run_command, write_measure,
                            write_pointset)


def run(argv):
    return run_command(argv)


class TestPointSetFormat:
    def test_single_line(self, tmp_path):
        p = tmp_path / "pts.txt"
        p.write_text("0.5 0.5\n")
        X = read_pointset(str(p))
        assert X.n == 1 and X.d == 2

    def test_comments_and_midpoints(self, tmp_path):
        p = tmp_path / "pts.txt"
        p.write_text("# d=1\n0.25\n0.75\n")
        X = read_pointset(str(p))
        assert X.points.tolist() == midpoint_set(2).points.tolist()

    def test_range_error_names_line(self, tmp_path):
        p = tmp_path / "pts.txt"
        p.write_text("1.5 0.2\n")
        with pytest.raises(ParseError) as exc:
            read_pointset(str(p))
        assert ":1:" in str(exc.value)

    def test_roundtrip_exact(self, tmp_path):
        rng = np.random.default_rng(5)
        X = PointSet(rng.random((17, 3)))
        p = tmp_path / "pts.txt"
        write_pointset(str(p), X)
        Y = read_pointset(str(p))
        assert np.array_equal(X.points, Y.points)


class TestMeasureFormat:
    def test_roundtrip(self, tmp_path):
        from discrepkit import DiscreteMeasure
        rng = np.random.default_rng(2)
        atoms = rng.random((5, 2))
        probs = rng.random(5)
        probs /= probs.sum()
        P = DiscreteMeasure(atoms, probs)
        p = tmp_path / "m.txt"
        write_measure(str(p), P)
        Q = read_measure(str(p))
        assert np.array_equal(P.atoms, Q.atoms)
        assert np.array_equal(P.probabilities, Q.probabilities)

    def test_probability_sum_check(self, tmp_path):
        p = tmp_path / "m.txt"
        p.write_text("0.7 0.2\n0.7 0.4\n")
        with pytest.raises(ParseError):
            read_measure(str(p))


class TestMarginalsFormat:
    def test_identity_like(self, tmp_path):
        p = tmp_path / "g.txt"
        p.write_text("0 0 1 1\n0 0 0.5 0.25 1 1\n")
        G = read_marginals(str(p))
        assert G.d == 2
        assert G.marginal(1, 0.5) == 0.25

    def test_rejects_bad_endpoint(self, tmp_path):
        p = tmp_path / "g.txt"
        p.write_text("0 0.1 1 1\n")
        with pytest.raises(ParseError):
            read_marginals(str(p))


class TestCommands:
    def test_gen_then_disc_midpoint(self, tmp_path):
        out = tmp_path / "pts.txt"
        code, rep = run(["gen", "--type", "midpoint", "--n", "4",
                         "--out", str(out)])
        assert code == 0
        code, rep = run(["disc", "--input", str(out), "--measure", "star-linf"])
        assert code == 0
        rec = rep.records[0]
        assert rec["value"] == 0.125
        assert rec["method"] == "1d"

    def test_disc_star_l2_squared_flag(self, tmp_path):
        out = tmp_path / "pts.txt"
        out.write_text("0.5\n")
        code, rep = run(["disc", "--input", str(out), "--measure", "star-l2"])
        assert code == 0
        rec = rep.records[0]
        assert rec["value"] == pytest.approx(1 / 12, abs=1e-15)
        assert rec["squared"] is True

    def test_budget_exit_code(self, tmp_path):
        rng = np.random.default_rng(0)
        out = tmp_path / "pts.txt"
        write_pointset(str(out), PointSet(rng.random((200, 15))))
        code, rep = run(["disc", "--input", str(out), "--measure", "star-linf"])
        assert code == 3

    def test_cover_upper_honours_budget(self, tmp_path):
        # a delta = 0.1 cover in d = 4 has 40^4 = 2.56M corners
        out = tmp_path / "pts.txt"
        write_pointset(str(out), PointSet(np.random.default_rng(1).random((64, 4))))
        code, rep = run(["disc", "--input", str(out), "--measure", "cover-upper",
                         "--delta", "0.1", "--budget", "1000"])
        assert code == 3

    def test_explicit_dem_honours_budget(self, tmp_path):
        # DEM's estimate at n = 64, d = 4 is 64^3 = 262144 box evaluations
        out = tmp_path / "pts.txt"
        write_pointset(str(out), PointSet(np.random.default_rng(1).random((64, 4))))
        code, rep = run(["disc", "--input", str(out), "--measure", "star-linf",
                         "--method", "dem", "--budget", "1000"])
        assert code == 3
        err = rep.records[-1]["error"]
        assert "2.62e+05 box evaluations" in err and "budget of 1000" in err

    @pytest.mark.parametrize("method", ["auto", "2d"])
    def test_2d_honours_budget(self, tmp_path, method):
        # 64 distinct points in d = 2: the augmented grid has 65^2 = 4225 corners
        out = tmp_path / "pts.txt"
        write_pointset(str(out), PointSet(np.random.default_rng(1).random((64, 2))))
        code, rep = run(["disc", "--input", str(out), "--measure", "star-linf",
                         "--method", method, "--budget", "1000"])
        assert code == 3
        assert "4225 corners" in rep.records[-1]["error"]

    def test_usage_error_exit_code(self):
        code, rep = run(["disc", "--measure", "star-linf"])  # missing --input
        assert code == 2

    def test_parse_error_exit_code(self, tmp_path):
        bad = tmp_path / "pts.txt"
        bad.write_text("1.5 0.5\n")
        code, rep = run(["disc", "--input", str(bad), "--measure", "star-linf"])
        assert code == 2

    def test_nan_gstar_knot_is_usage_error(self, tmp_path):
        pts = tmp_path / "pts.txt"
        write_pointset(str(pts), PointSet([[0.125, 0.5], [0.375, 0.25], [0.625, 0.75]]))
        g = tmp_path / "g.txt"
        g.write_text("0 0 nan 0.5 1 1\n0 0 1 1\n")
        code, rep = run(["disc", "--input", str(pts), "--measure", "star-linf",
                         "--gstar", str(g)])
        assert code == 2
        assert "finite" in rep.records[0]["error"]

    def test_nan_probability_is_usage_error(self, tmp_path):
        m = tmp_path / "m.txt"
        m.write_text("nan 0.1\n0.5 0.4\n0.5 0.6\n")
        code, rep = run(["reduce", "--input", str(m), "--n", "1",
                         "--method", "forward", "--out", str(tmp_path / "red.txt")])
        assert code == 2
        assert "finite" in rep.records[0]["error"]

    def test_gstar_identity_matches_plain(self, tmp_path):
        pts = tmp_path / "pts.txt"
        write_pointset(str(pts), midpoint_set(4))
        g = tmp_path / "g.txt"
        g.write_text("0 0 1 1\n")
        code, rep = run(["disc", "--input", str(pts), "--measure", "star-linf",
                         "--gstar", str(g)])
        assert code == 0
        assert rep.records[0]["value"] == 0.125

    @pytest.mark.parametrize("method, code", [("1d", 2), ("2d", 2), ("3d", 2), ("dem", 2),
                                              ("auto", 0), ("grid", 0)])
    def test_gstar_allows_only_grid_methods(self, tmp_path, method, code):
        pts = tmp_path / "pts.txt"
        write_pointset(str(pts), midpoint_set(4))
        g = tmp_path / "g.txt"
        g.write_text("0 0 1 1\n")
        got, rep = run(["disc", "--input", str(pts), "--measure", "star-linf",
                        "--gstar", str(g), "--method", method])
        assert got == code
        if code:
            err = rep.records[0]["error"]
            assert "--gstar" in err and f"--method {method}" in err
        else:
            assert rep.records[0]["method"] == "grid"

    def test_stable_flag_selects_the_same_formula(self, tmp_path):
        pts = tmp_path / "pts.txt"
        write_pointset(str(pts), PointSet(np.random.default_rng(3).random((50, 3))))
        values = []
        for extra in ([], ["--stable"]):
            code, rep = run(["disc", "--input", str(pts), "--measure", "star-l2", *extra])
            assert code == 0
            values.append(rep.records[0]["value"])
        assert values[0] == values[1]

    def test_ta_lower_requires_seed_in_json(self, tmp_path):
        pts = tmp_path / "pts.txt"
        write_pointset(str(pts), midpoint_set(4))
        code, rep = run(["--format", "json", "disc", "--input", str(pts),
                         "--measure", "ta-lower", "--iterations", "50"])
        assert code == 2

    def test_ta_lower_reproducible(self, tmp_path):
        rng = np.random.default_rng(4)
        pts = tmp_path / "pts.txt"
        write_pointset(str(pts), PointSet(rng.random((12, 3))))
        argv = ["disc", "--input", str(pts), "--measure", "ta-lower",
                "--iterations", "300", "--seed", "11", "--restarts", "2"]
        _, a = run(argv)
        _, b = run(argv)
        strip = lambda recs: [{k: v for k, v in r.items() if k != "wall_time"}
                              for r in recs]
        assert strip(a.records) == strip(b.records)

    def test_ga_lower_runs(self, tmp_path):
        pts = tmp_path / "pts.txt"
        write_pointset(str(pts), midpoint_set(6))
        code, rep = run(["disc", "--input", str(pts), "--measure", "ga-lower",
                         "--mu", "4", "--lambda-c", "4", "--lambda-m", "4",
                         "--stagnation", "6", "--seed", "2"])
        assert code == 0
        assert 0 < rep.records[0]["lower"] <= 1.0

    def test_cover_upper(self, tmp_path):
        pts = tmp_path / "pts.txt"
        write_pointset(str(pts), midpoint_set(4))
        code, rep = run(["disc", "--input", str(pts), "--measure",
                         "cover-upper", "--delta", "0.1"])
        assert code == 0
        rec = rep.records[0]
        assert rec["lower"] <= 0.125 <= rec["upper"]

    def test_lp_even(self, tmp_path):
        pts = tmp_path / "pts.txt"
        pts.write_text("0.5\n")
        code, rep = run(["disc", "--input", str(pts), "--measure", "lp-even",
                         "--p", "4"])
        assert code == 0
        assert rep.records[0]["value"] == pytest.approx(0.0125, abs=1e-13)

    def test_reduce_roundtrip(self, tmp_path):
        m = tmp_path / "m.txt"
        m.write_text("0.25 0.1\n0.25 0.4\n0.25 0.6\n0.25 0.9\n")
        out = tmp_path / "red.txt"
        code, rep = run(["reduce", "--input", str(m), "--n", "2",
                         "--method", "forward", "--exact-inner",
                         "--out", str(out)])
        assert code == 0
        rec = rep.records[0]
        assert rec["distance"] == pytest.approx(rec["recomputed_distance"], abs=1e-9)
        red = read_measure(str(out))
        assert red.n == 2

    @pytest.mark.parametrize("method", ["forward", "backward"])
    def test_reduce_nearest_mass_recomputes_exactly(self, tmp_path, method):
        m = tmp_path / "m.txt"
        write_measure(str(m), DiscreteMeasure.uniform(
            np.random.default_rng(41).random((12, 2))))
        code, rep = run(["reduce", "--input", str(m), "--n", "4", "--method", method])
        assert code == 0
        rec = rep.records[0]
        assert rec["recomputed_distance"] == rec["distance"]

    def test_optimize_perms(self):
        code, rep = run(["optimize-perms", "--d", "2", "--points", "16",
                         "--mu", "3", "--lambda", "4", "--generations", "2",
                         "--seed", "1"])
        assert code == 0
        rec = rep.records[0]
        assert rec["fitness"] <= rec["identity_fitness"] + 1e-15

    def test_report_manifest(self, tmp_path):
        pts = tmp_path / "mid.txt"
        write_pointset(str(pts), midpoint_set(8))
        man = tmp_path / "manifest.txt"
        man.write_text(f"mid8 {pts}\n")
        code, rep = run(["report", "--manifest", str(man),
                         "--measures", "star-linf,star-l2", "--seed", "3"])
        assert code == 0
        star = [r for r in rep.records if r.get("measure") == "star-linf"][0]
        assert star["value"] == 0.0625

    def test_report_values_reproducible(self, tmp_path):
        rng = np.random.default_rng(9)
        pts = tmp_path / "x.txt"
        write_pointset(str(pts), PointSet(rng.random((10, 4))))
        man = tmp_path / "manifest.txt"
        man.write_text(f"x {pts}\n")
        argv = ["report", "--manifest", str(man), "--measures", "star-linf",
                "--seed", "3", "--budget", "10", "--iterations", "200"]
        _, a = run(argv)
        _, b = run(argv)
        ka = [{k: v for k, v in r.items() if k != "wall_time"} for r in a.records]
        kb = [{k: v for k, v in r.items() if k != "wall_time"} for r in b.records]
        assert ka == kb

    def test_selftest_passes(self):
        code, rep = run(["selftest", "--instances", "8", "--seed", "5"])
        assert code == 0

    def test_json_rendering(self, tmp_path):
        pts = tmp_path / "pts.txt"
        pts.write_text("0.5\n")
        code, rep = run(["--format", "json", "disc", "--input", str(pts),
                         "--measure", "star-l2"])
        blob = json.loads(rep.render_json())
        assert blob["format_version"] == 1
        assert blob["records"][0]["value"] == pytest.approx(1 / 12)

    def test_text_rendering_stable(self, tmp_path):
        pts = tmp_path / "pts.txt"
        pts.write_text("0.5\n")
        _, rep = run(["disc", "--input", str(pts), "--measure", "star-l2"])
        text = rep.render_text()
        assert text.splitlines()[0] == "format_version=1"
        assert "value=0.0833333333333333" in text
