import argparse
import json

import numpy as np
import pytest

from discrepkit import (DiscreteMeasure, Graph, PointSet, TAConfig, cover_bounds,
                        dominating_set_instance, ga_lower_bound, halton, l2, lp,
                        midpoint_set, rank1_lattice, star_dem, star_exact, star_grid_enum)
from discrepkit.applications import MEASURES
from discrepkit.cli import (ParseError, _build_parser, _pointset_text, read_marginals,
                            read_measure, read_pointset, run_command, write_measure,
                            write_pointset)
from discrepkit.linf_approx import _best_ta
from discrepkit.linf_exact import star_by_method


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

    def test_auto_from_d4_records_grid_or_dem(self, tmp_path):
        # 32 Halton points in d = 4 have 33^4 grid corners, which fit the
        # default budget; 100 uniform points have 101^4, which do not
        out = tmp_path / "pts.txt"
        for X, method in ((halton(32, 4), "grid"),
                          (PointSet(np.random.default_rng(1).random((100, 4))), "dem")):
            write_pointset(str(out), X)
            code, rep = run(["disc", "--input", str(out), "--measure", "star-linf"])
            assert code == 0
            assert rep.records[0]["method"] == method
            assert rep.records[0]["value"] == star_dem(X).value

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
            res = star_grid_enum(midpoint_set(4), read_marginals(str(g)))
            assert res.method == "grid"
            assert _fields(rep.records[0]) == dict(task="disc", measure="star-linf",
                                                   **_star(res))

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


GOOD_POINTS = "0.125 0.5\n0.375 0.25\n0.625 0.75\n"
GOOD_MEASURE = "0.25 0.1\n0.25 0.4\n0.5 0.6\n"
DISC = ["disc", "--input", "{in}", "--measure", "star-l2"]
REDUCE = ["reduce", "--input", "{in}", "--n", "1"]
GSTAR = ["disc", "--input", "{good}", "--measure", "star-linf", "--gstar", "{in}"]
REPORT = ["report", "--manifest", "{in}", "--measures", "star-l2", "--seed", "1"]

# (case, argv, text of the file {in}, what the error must contain); {good} is
# a valid point set, {missing} a path that does not exist, {dir} a directory
# and {nowhere} a file in a directory that does not exist
INPUT_FAULTS = [
    ("points bad token", DISC, "# d=2\n0.1 0.2\n0.3 x\n", "{in}:3: "),
    ("points short row", DISC, "0.1 0.2\n\n0.3\n", "{in}:3: "),
    ("points out of range", DISC, "0.1 0.2\n0.3 1.0\n", "{in}:2: "),
    ("points nan", DISC, "0.1 0.2\n0.3 nan\n", "{in}:2: "),
    ("points no data", DISC, "# only a comment\n\n", "{in}: no data lines"),
    ("measure bad token", REDUCE, "0.5 0.1\n0.5 0..2\n", "{in}:2: "),
    ("measure short row", REDUCE, "0.5 0.1 0.2\n0.5 0.3\n", "{in}:2: "),
    ("measure out of range", REDUCE, "0.5 0.1\n0.5 1.5\n", "{in}:2: "),
    ("measure nan coordinate", REDUCE, "0.5 0.1\n0.5 nan\n", "{in}:2: "),
    ("negative probability", REDUCE, "0.5 0.1\n# c\n-0.5 0.2\n1.0 0.3\n", "{in}:3: "),
    ("probability sum", REDUCE, "0.7 0.2\n0.7 0.4\n", "{in}: probabilities sum"),
    ("marginals odd count", GSTAR, "0 0 1 1\n0 0 0.5\n", "{in}:2: "),
    ("marginals bad token", GSTAR, "0 0 1 1\n0 0 one 1\n", "{in}:2: "),
    ("manifest field count", REPORT, "a {good} extra\n", "{in}:1: "),
    ("manifest duplicate name", REPORT, "a {good}\n# c\na {good}\n", "{in}:3: "),
    ("manifest bad set", REPORT, "a {in}\n", "{in}:1: "),
    ("points missing", DISC[:2] + ["{missing}"] + DISC[3:], None, "'{missing}'"),
    ("measure directory", REDUCE[:2] + ["{dir}"] + REDUCE[3:], None, "'{dir}'"),
    ("marginals missing", GSTAR[:-1] + ["{missing}"], None, "'{missing}'"),
    ("manifest missing", REPORT[:2] + ["{missing}"] + REPORT[3:], None, "'{missing}'"),
    ("manifest names a missing set", REPORT, "a {missing}\n", "'{missing}'"),
    ("gen unwritable out", ["gen", "--type", "midpoint", "--n", "4", "--out", "{nowhere}"],
     None, "'{nowhere}'"),
    ("reduce unwritable out", REDUCE + ["--out", "{nowhere}"], GOOD_MEASURE, "'{nowhere}'"),
]


@pytest.mark.parametrize("argv, text, want", [c[1:] for c in INPUT_FAULTS],
                         ids=[c[0] for c in INPUT_FAULTS])
def test_input_fault_exits_2_naming_its_line(tmp_path, argv, text, want):
    paths = {"in": tmp_path / "in.txt", "good": tmp_path / "good.txt",
             "missing": tmp_path / "missing.txt", "dir": tmp_path,
             "nowhere": tmp_path / "absent" / "out.txt"}
    paths["good"].write_text(GOOD_POINTS)
    if text is not None:
        paths["in"].write_text(text.format(**paths))
    code, rep = run([a.format(**paths) for a in argv])
    assert code == 2
    assert rep.records[-1]["exit_code"] == 2
    assert want.format(**paths) in rep.records[-1]["error"]


def test_pointset_reader_keeps_float_bits(tmp_path):
    rng = np.random.default_rng(12)
    tokens = ["0." + "".join(map(str, rng.integers(0, 10, int(k))))
              for k in rng.integers(17, 40, 96)]
    tokens += ["1e-3", "2.5E-1", "9.999999999999999e-01", "0.000001e+2", "0.1_2",
               "0.333_333_333_333_333_333_3", repr(0.1), "0.9999999999999999",
               "-0.0", "4.9406564584124654e-324", ".5", "\u0660.\u0665"]
    p = tmp_path / "pts.txt"
    p.write_text("\n".join(" ".join(tokens[i:i + 4]) for i in range(0, len(tokens), 4)),
                 encoding="utf-8")
    got = read_pointset(str(p)).points.reshape(-1)
    want = np.array([float(t) for t in tokens])
    assert got.view(np.int64).tolist() == want.view(np.int64).tolist()


def test_written_measure_text(tmp_path):
    p = tmp_path / "m.txt"
    write_measure(str(p), DiscreteMeasure([[0.5, 0.1], [0.25, 1.0]], [0.75, 0.25]))
    assert p.read_text() == "# d=2 atoms=2\n0.75 0.5 0.1\n0.25 0.25 1.0\n"


def test_empty_manifest_reports_no_cells(tmp_path):
    man = tmp_path / "manifest.txt"
    man.write_text("# no sets\n\n")
    code, rep = run(["report", "--manifest", str(man), "--seed", "1"])
    assert code == 0
    assert not [r for r in rep.records if "set" in r]


def test_measure_total_adds_left_to_right(tmp_path):
    # np.sum's pairwise order gives another total for these probabilities,
    # and so other bits after renormalisation
    rng = np.random.default_rng(0)
    probs = rng.random(40)
    probs = probs / probs.sum() * (1 + 3e-10)
    atoms = rng.random((40, 2))
    m = tmp_path / "m.txt"
    m.write_text("".join(f"{p!r} {a!r} {b!r}\n"
                         for p, (a, b) in zip(probs.tolist(), atoms.tolist())))
    total = sum(probs.tolist())
    assert total != np.sum(probs)
    got = read_measure(str(m)).probabilities
    assert got.view(np.int64).tolist() == (probs / total).view(np.int64).tolist()


# ---------------------------------------------------------------------------
# every record's keys, key order and values, against the library calls
# ---------------------------------------------------------------------------

def _disc(tmp_path, X, *argv):
    pts = tmp_path / "pts.txt"
    write_pointset(str(pts), X)
    return run(["disc", "--input", str(pts), *argv])


def _fields(rec):
    return {k: v for k, v in rec.items() if k != "wall_time"}


def _star(res):
    """The fields a star-linf record takes from its result."""
    return dict(method=res.method, value=res.value, witness=res.witness.tolist(),
                witness_kind=res.kind)


def _bound(res, **options):
    """The fields a bound record takes from its result, and its options."""
    return dict(lower=res.lower, upper=res.upper, witness=res.witness.tolist(), **options)


X35 = PointSet(np.random.default_rng(35).random((12, 3)))

# (measure and options, the record's keys in order, its fields from the library)
DISC_RECORDS = [
    (["star-linf"], ["method", "value", "witness", "witness_kind"],
     lambda: _star(star_grid_enum(X35))),
    (["star-l2"], ["value", "squared"],
     lambda: dict(value=l2.warnock_star_l2_sq(X35), squared=True)),
    (["extreme-l2"], ["value", "squared"],
     lambda: dict(value=l2.extreme_l2_sq(X35), squared=True)),
    (["modified-l2"], ["value", "squared"],
     lambda: dict(value=l2.modified_l2_sq(X35), squared=True)),
    (["weighted-l2", "--gamma", "1,0.5,0.25"], ["value", "squared"],
     lambda: dict(value=l2.weighted_star_l2_sq(X35, [1.0, 0.5, 0.25]), squared=True)),
    (["lp-even", "--p", "4"], ["p", "value", "squared", "power"],
     lambda: dict(p=4, value=lp.weighted_star_lp_pow(X35, np.ones(3), 4), squared=False,
                  power=4)),
    (["cover-upper", "--delta", "0.25"], ["lower", "upper", "delta", "witness"],
     lambda: _bound(cover_bounds(X35, 0.25), delta=0.25)),
    (["ta-lower", "--iterations", "120", "--restarts", "2", "--seed", "5",
      "--variant", "basic"],
     ["variant", "lower", "upper", "iterations", "seed", "restarts", "witness"],
     lambda: _bound(_best_ta(X35, TAConfig(120, mc=2, k=8, seed=5), 2, "basic"),
                    variant="basic", iterations=120, seed=5, restarts=2)),
    (["ga-lower", "--mu", "4", "--lambda-c", "3", "--lambda-m", "2", "--stagnation", "5",
      "--seed", "7"],
     ["lower", "upper", "mu", "lambda_c", "lambda_m", "stagnation", "seed", "witness"],
     lambda: _bound(ga_lower_bound(X35, 4, 3, 2, 5, 7), mu=4, lambda_c=3, lambda_m=2,
                    stagnation=5, seed=7)),
]


@pytest.mark.parametrize("argv, keys, want", DISC_RECORDS, ids=[c[0][0] for c in DISC_RECORDS])
def test_disc_record_keys_and_values(tmp_path, argv, keys, want):
    code, rep = _disc(tmp_path, X35, "--measure", *argv)
    assert code == 0
    [rec] = rep.records
    assert list(rec) == ["task", "measure", *keys, "wall_time"]
    assert _fields(rec) == dict(task="disc", measure=argv[0], **want())
    assert rec["wall_time"] >= 0.0


@pytest.mark.parametrize("argv, keys, want", DISC_RECORDS, ids=[c[0][0] for c in DISC_RECORDS])
def test_disc_record_renders_in_both_formats(tmp_path, argv, keys, want):
    _, rep = _disc(tmp_path, X35, "--measure", *argv)
    assert json.loads(rep.render_json())["records"] == rep.records
    lines = rep.render_text().splitlines()
    assert lines[:2] == ["format_version=1", f"command={rep.command}"]
    [line] = lines[2:]
    text = dict(tok.split("=", 1) for tok in line.split())
    assert list(text) == list(rep.records[0])
    for k, v in rep.records[0].items():
        assert text[k] == (",".join(map(repr, v)) if isinstance(v, list)
                           else repr(v) if isinstance(v, float) else str(v))


def test_seed_note_comes_before_the_disc_record(tmp_path):
    code, rep = _disc(tmp_path, X35, "--measure", "ta-lower", "--iterations", "50")
    assert code == 0
    note, rec = rep.records
    assert list(note) == ["note", "seed"] and note["note"] == "seed drawn from clock"
    assert rec["seed"] == note["seed"]
    assert list(rec)[:2] == ["task", "measure"]


def test_weighted_l2_needs_gamma(tmp_path):
    code, rep = _disc(tmp_path, X35, "--measure", "weighted-l2")
    assert code == 2
    assert rep.records == [{"error": "weighted-l2 needs --gamma", "exit_code": 2}]


GEN_CASES = [
    (["halton", "--n", "9", "--d", "3"], lambda: halton(9, 3)),
    (["lattice", "--n", "8", "--z", "1,3"], lambda: rank1_lattice(8, [1, 3])),
    (["domset", "--vertices", "3", "--edges", "0-1,1-2", "--alpha", "0.25"],
     lambda: dominating_set_instance(Graph(3, [(0, 1), (1, 2)]), 0.25, 0.0)),
]


@pytest.mark.parametrize("argv, want", GEN_CASES, ids=[c[0][0] for c in GEN_CASES])
def test_gen_record_and_points(argv, want):
    X = want()
    code, rep = run(["gen", "--type", *argv])
    assert code == 0
    assert rep.records == [{"task": "gen", "type": argv[0], "n": X.n, "d": X.d}]
    assert list(rep.records[0]) == ["task", "type", "n", "d"]
    assert rep.raw_payload == _pointset_text(X)


@pytest.mark.parametrize("argv, error", [
    (["halton", "--n", "9"], "gen --type halton needs --n and --d"),
    (["lattice", "--n", "8"], "gen --type lattice needs --n and --z"),
    (["domset", "--edges", "0-1"], "gen --type domset needs --vertices"),
], ids=["halton", "lattice", "domset"])
def test_gen_usage_errors(argv, error):
    code, rep = run(["gen", "--type", *argv])
    assert code == 2
    assert rep.records == [{"error": error, "exit_code": 2}]
    assert rep.raw_payload is None


@pytest.mark.parametrize("measure, method, value", [
    ("extreme-l2", "direct", lambda X: l2.extreme_l2_sq(X)),
    ("modified-l2", "warnock-weighted", lambda X: l2.modified_l2_sq(X)),
    ("lp-even", "direct-p4", lambda X: lp.weighted_star_lp_pow(X, np.ones(X.d), 4)),
])
def test_report_cell_keys_and_values(tmp_path, measure, method, value):
    pts = tmp_path / "x.txt"
    write_pointset(str(pts), X35)
    man = tmp_path / "manifest.txt"
    man.write_text(f"x {pts}\n")
    code, rep = run(["report", "--manifest", str(man), "--measures", measure,
                     "--seed", "1"])
    assert code == 0
    [rec] = rep.records
    assert list(rec) == ["set", "measure", "method", "value", "wall_time"]
    assert _fields(rec) == {"set": "x", "measure": measure, "method": method,
                            "value": value(X35)}


# ---------------------------------------------------------------------------
# method= names the algorithm that ran
# ---------------------------------------------------------------------------

# (set, --method, --budget, the algorithm that runs)
METHOD_CASES = [
    (midpoint_set(5), "auto", 50_000_000, "1d"),
    (midpoint_set(5), "1d", 50_000_000, "1d"),
    (midpoint_set(5), "grid", 50_000_000, "grid"),
    (midpoint_set(5), "dem", 50_000_000, "dem"),
    (halton(20, 2), "auto", 50_000_000, "grid"),
    (halton(20, 2), "2d", 50_000_000, "grid"),
    (halton(20, 2), "dem", 50_000_000, "dem"),
    (X35, "auto", 50_000_000, "grid"),
    (X35, "3d", 50_000_000, "grid"),
    (X35, "grid", 50_000_000, "grid"),
    (X35, "dem", 50_000_000, "dem"),
    (halton(32, 4), "auto", 50_000_000, "grid"),
    (halton(32, 4), "auto", 33 ** 4 - 1, "dem"),  # the grid's 33^4 corners do not fit
    (halton(32, 4), "dem", 50_000_000, "dem"),
]


@pytest.mark.parametrize("X, method, budget, ran", METHOD_CASES,
                         ids=[f"d{c[0].d}-{c[1]}-{c[3]}" for c in METHOD_CASES])
def test_disc_method_names_what_ran(tmp_path, X, method, budget, ran):
    res = star_by_method(X, method, budget)
    assert res.method == ran
    code, rep = _disc(tmp_path, X, "--measure", "star-linf", "--method", method,
                      "--budget", str(budget))
    assert code == 0
    assert _fields(rep.records[0]) == dict(task="disc", measure="star-linf", **_star(res))


@pytest.mark.parametrize("X, budget, ran", [
    (midpoint_set(5), 50_000_000, "1d"),
    (halton(20, 2), 50_000_000, "grid"),
    (halton(32, 4), 50_000_000, "grid"),
    (halton(32, 4), 33 ** 4 - 1, "dem"),
], ids=["1d", "grid-2d", "grid-4d", "dem"])
def test_report_star_cell_names_what_ran(tmp_path, X, budget, ran):
    pts = tmp_path / "x.txt"
    write_pointset(str(pts), X)
    man = tmp_path / "manifest.txt"
    man.write_text(f"x {pts}\n")
    res = star_exact(X, budget)
    assert res.method == ran
    code, rep = run(["report", "--manifest", str(man), "--measures", "star-linf",
                     "--seed", "1", "--budget", str(budget)])
    assert code == 0
    assert _fields(rep.records[0]) == {"set": "x", "measure": "star-linf",
                                       "method": ran, "value": res.value}


# ---------------------------------------------------------------------------
# one measure table behind disc and report
# ---------------------------------------------------------------------------

def test_disc_measure_choices_are_the_table():
    [sub] = [a for a in _build_parser()._actions if isinstance(a, argparse._SubParsersAction)]
    [measure] = [a for a in sub.choices["disc"]._actions if a.dest == "measure"]
    assert list(measure.choices) == list(MEASURES)


@pytest.mark.parametrize("measure", list(MEASURES))
def test_report_cell_equals_the_disc_record(tmp_path, measure):
    pts = tmp_path / "x.txt"
    write_pointset(str(pts), X35)
    man = tmp_path / "manifest.txt"
    man.write_text(f"x {pts}\n")
    code, rep = run(["report", "--manifest", str(man), "--measures", measure, "--seed", "5"])
    assert code == 0
    [cell] = rep.records
    # report's own options: --iterations 2000, --restarts 3 and p = 4; the rest are disc's
    code, disc = _disc(tmp_path, X35, "--measure", measure, "--seed", "5",
                       "--iterations", "2000", "--restarts", "3", "--p", "4")
    if measure == "weighted-l2":  # report has no --gamma, so both refuse alike
        assert code == 2 and cell["error"] == "ValueError: " + disc.records[0]["error"]
        return
    assert code == 0
    [rec] = disc.records
    assert "error" not in cell
    assert cell["method"] == rec.get("method", MEASURES[measure].label)
    for key in ("value", "lower", "upper"):
        assert cell.get(key) == rec.get(key)
