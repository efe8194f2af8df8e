"""Seeded fingerprint of the heuristics, snapping, critical corners, reductions,
CLI records, Halton generators, permutation search and direct L2 values.

Every value below comes from a fixed seed, so a refactor of the shared
geometry or of the generators must leave it bit for bit unchanged.  Floats
are compared through ``float.hex``.  The pinned values live in
``fingerprint.json`` next to this file; ``PYTHONPATH=src python
tests/test_fingerprint.py`` prints the current fingerprint in that format.
The ``l2`` section pins the five direct L2 formulas (Warnock under its plain
and its ``_stable`` name, extreme, weighted, modified), so a refactor of the
pair kernel must keep their rounding too; a deliberate change of that rounding (say, pair
products in extended precision) re-pins this section and may change the
``perms`` section, whose search ranks candidates by L2 values.
The ``dem`` section pins the value, kind and witness of the decomposition
``star_dem`` on seeded sets in d = 2 to 6 (uniform points, tied levels with
zero among them, zero-heavy coordinates, duplicate points), so a rewrite of
the decomposition must keep which of several tied corners it reports; a
deliberate change of that tie-break re-pins this section only.
"""

import json
import sys
import tempfile
from pathlib import Path

import numpy as np

from discrepkit import (DiscreteMeasure, PermutationConfig, PointSet, TAConfig,
                        backward_selection, enumerate_critical, extreme_l2_sq,
                        forward_selection, ga_lower_bound, halton, modified_l2_sq,
                        optimize_halton_permutations, radical_inverse,
                        random_permutation, reverse_permutation,
                        scrambled_radical_inverse, snap_down, snap_up, star_dem,
                        ta_basic, ta_improved, warnock_star_l2_sq,
                        warnock_star_l2_sq_stable, weighted_star_l2_sq)
from discrepkit.cli import run_command, write_pointset

PINNED = Path(__file__).with_name("fingerprint.json")


def _hex(v):
    if isinstance(v, float):
        return float(v).hex()
    if isinstance(v, (list, tuple)):
        return [_hex(c) for c in v]
    if isinstance(v, dict):
        return {k: _hex(c) for k, c in v.items()}
    return v


def _floats(arr):
    return [float(c).hex() for c in np.asarray(arr, dtype=np.float64).reshape(-1)]


def _tied(rng, n, d, levels):
    """Coordinates drawn from a few levels, zero among them: many ties."""
    return PointSet(rng.choice(levels, size=(n, d)))


def _sets():
    rng = np.random.default_rng(4711)
    return {
        "random-3d": PointSet(rng.random((20, 3))),
        "random-5d": PointSet(rng.random((32, 5))),
        "tied-4d": _tied(rng, 16, 4, np.array([0.0, 0.25, 0.5, 0.75])),
        "tied-2d": _tied(rng, 9, 2, np.array([0.0, 0.3, 0.6])),
    }


def _large_sets():
    """Hundreds of points, and more points than one block of the rank-bitset
    workspace holds."""
    rng = np.random.default_rng(4712)
    return {
        "random-5d-300": PointSet(rng.random((300, 5))),
        "tied-7d-500": _tied(rng, 500, 7, np.arange(16) / 16),
        "random-4d-4500": PointSet(rng.random((4500, 4))),
    }


def _bound(res):
    return {"lower": float(res.lower).hex(), "witness": _floats(res.witness)}


def _snaps(X):
    rng = np.random.default_rng(14)
    snaps = []
    for t in range(12):
        y = rng.random(X.d)
        if t % 3 == 0:  # corners on the grid and at its edges
            y = X.points[t % X.n].copy()
            y[t % X.d] = 1.0 if t % 2 else 0.0
        snaps.append(_floats(snap_down(y, X)) + _floats(snap_up(y, X, 1000 + t)))
    return snaps


def _cli_records(tmp: Path):
    rng = np.random.default_rng(99)
    small, big = tmp / "small.txt", tmp / "big.txt"
    write_pointset(str(small), PointSet(rng.random((12, 2))))
    write_pointset(str(big), PointSet(rng.random((24, 5))))
    (tmp / "manifest.txt").write_text(f"small {small}\nbig {big}\n")
    runs = {
        "disc-ta-improved": ["--format", "json", "disc", "--input", str(big),
                             "--measure", "ta-lower", "--iterations", "300",
                             "--restarts", "3", "--seed", "5"],
        "disc-ta-basic": ["--format", "json", "disc", "--input", str(big),
                          "--measure", "ta-lower", "--variant", "basic",
                          "--iterations", "300", "--restarts", "3", "--seed", "6"],
        "report": ["--format", "json", "report", "--manifest", str(tmp / "manifest.txt"),
                   "--measures", "star-linf,ta-lower,cover-upper", "--seed", "8",
                   "--budget", "1000", "--delta", "0.25", "--iterations", "200"],
    }
    out = {}
    for name, argv in runs.items():
        code, rep = run_command(argv)
        recs = json.loads(rep.render_json())["records"]
        for rec in recs:
            rec.pop("wall_time", None)
        out[name] = {"exit": code, "records": _hex(recs)}
    return out


def _halton():
    configs = {"plain": None, "reverse": PermutationConfig.reverse(8),
               "random": PermutationConfig.random(8, 3)}
    out = {name: _floats(halton(300, 8, cfg).points) for name, cfg in configs.items()}
    scalar = []
    for p in (2, 3, 5, 7, 11, 19):
        rev, rnd = reverse_permutation(p), random_permutation(p, p)
        for i in (1, 2, p - 1, p, p * p + 1, 12345, 123456789, 999999937, 10 ** 9):
            scalar.append([i, p] + _floats([radical_inverse(i, p),
                                            scrambled_radical_inverse(i, p, rev),
                                            scrambled_radical_inverse(i, p, rnd)]))
    out["scalar"] = scalar
    return out


def _l2():
    """The five direct L2 formulas on seeded sets: one block and several
    (the 4,096 Halton points in d = 4 span 16 blocks), ties and zeros."""
    rng = np.random.default_rng(4713)
    sets = {f"random-{d}d-{n}": PointSet(rng.random((n, d)))
            for d in range(1, 9) for n in (1, 2, 37, 300)}
    sets["tied-3d-64"] = _tied(rng, 64, 3, np.array([0.0, 0.25, 0.5, 0.75]))
    zeros = rng.random((50, 5))
    zeros[rng.random((50, 5)) < 0.3] = 0.0
    sets["zeros-5d-50"] = PointSet(zeros)
    sets["halton-4d-4096"] = halton(4096, 4)
    out = {}
    for name, X in sets.items():
        gamma = 0.8 ** np.arange(X.d)
        out[name] = _floats([warnock_star_l2_sq(X), warnock_star_l2_sq_stable(X),
                             extreme_l2_sq(X), weighted_star_l2_sq(X, gamma),
                             modified_l2_sq(X)])
    return out


def _dem():
    """``star_dem`` on uniform, tied (four levels and eighths), zero-heavy and
    duplicated sets, three sizes per dimension: kind, value and witness.  The
    seed is one for which a non-strict comparison in either the cell DP or
    the running best moves some witness, so the section sees tie-breaks."""
    rng = np.random.default_rng(4715)
    levels = np.array([0.0, 0.25, 0.5, 0.75])
    out = {}
    for d, n in ((2, 8), (2, 24), (2, 64), (3, 8), (3, 20), (3, 48), (4, 8), (4, 16),
                 (4, 36), (5, 8), (5, 12), (5, 22), (6, 6), (6, 9), (6, 14)):
        zeros = rng.random((n, d))
        zeros[rng.random((n, d)) < 0.3] = 0.0
        half = rng.random((n // 2, d))
        sets = {"uniform": PointSet(rng.random((n, d))),
                "tied": _tied(rng, n, d, levels),
                "eighths": _tied(rng, n, d, np.arange(8) / 8),
                "zeros": PointSet(zeros),
                "duplicates": PointSet(np.vstack([half, half[::-1]]))}
        for name, X in sets.items():
            res = star_dem(X)
            out[f"{name}-{d}d-{n}"] = ([res.kind, float(res.value).hex()]
                                       + _floats(res.witness))
    return out


def _reduction(res):
    return {"support": list(res.support_idx),
            "distance": float(res.distance).hex(),
            "trace": [[s, float(t).hex()] for s, t in res.trace],
            "probabilities": _floats(res.measure.probabilities)}


def _reduce_large():
    """Nearest-mass reductions of a 100-atom measure in d = 2 and of a
    weighted d = 3 measure on a coarse lattice (ties, atoms at 0 and 1)."""
    rng = np.random.default_rng(16)
    levels = np.arange(5) / 4
    cells = rng.choice(5 ** 3, size=40, replace=False)
    measures = {
        "uniform-2d-100": (DiscreteMeasure.uniform(rng.random((100, 2))), 10, 90),
        "tied-3d-40": (DiscreteMeasure(levels[np.array(np.unravel_index(cells, (5,) * 3)).T],
                                       rng.dirichlet(np.ones(40))), 6, 34),
    }
    out = {}
    for name, (P, n_fwd, n_bwd) in measures.items():
        out[f"{name}/forward_selection/{n_fwd}"] = _reduction(forward_selection(P, n_fwd))
        out[f"{name}/backward_selection/{n_bwd}"] = _reduction(backward_selection(P, n_bwd))
    return out


def fingerprint(tmp: Path) -> dict:
    sets = _sets()
    fp: dict = {"ta_basic": {}, "ta_improved": {}, "ga": {}, "snap": {},
                "critical": {}}
    for name, X in sets.items():
        fp["ta_basic"][name] = _bound(ta_basic(X, TAConfig(400, mc=2, k=3, seed=11)))
        fp["ta_improved"][name] = _bound(ta_improved(X, TAConfig(400, seed=12)))
        fp["ga"][name] = _bound(ga_lower_bound(X, 6, 4, 4, 8, seed=13))
        fp["snap"][name] = _snaps(X)
        if X.n <= 16:
            fp["critical"][name] = [[c.kind, c.count] + _floats(c.corner)
                                    for c in enumerate_critical(X)]
    fp["large"] = {}
    for name, X in _large_sets().items():
        fp["large"][name] = {
            "ta_basic": _bound(ta_basic(X, TAConfig(300, mc=2, k=3, seed=21))),
            "ta_improved": _bound(ta_improved(X, TAConfig(300, seed=22))),
            "ga": _bound(ga_lower_bound(X, 6, 4, 4, 8, seed=23)),
            "snap": _snaps(X),
        }

    rng = np.random.default_rng(15)
    measures = {
        "uniform-2d": DiscreteMeasure.uniform(rng.random((6, 2))),
        "tied-2d": DiscreteMeasure.uniform(
            np.array([[0.0, 0.5], [0.5, 0.5], [0.5, 0.0], [0.25, 1.0], [1.0, 0.25],
                      [0.75, 0.75]])),
        "weighted-3d": DiscreteMeasure(rng.random((5, 3)),
                                       rng.dirichlet(np.ones(5))),
    }
    fp["reduce"] = {}
    for name, P in measures.items():
        for fn in (forward_selection, backward_selection):
            for exact in (False, True):
                for n in (1, 3, P.n):
                    res = fn(P, n, exact_inner=exact)
                    key = f"{name}/{fn.__name__}/{'exact' if exact else 'nearest'}/{n}"
                    fp["reduce"][key] = {
                        "support": list(res.support_idx),
                        "distance": float(res.distance).hex(),
                        "trace": [[s, float(t).hex()] for s, t in res.trace],
                        "probabilities": _floats(res.measure.probabilities),
                        "atoms": _floats(res.measure.atoms),
                    }
    fp["reduce_large"] = _reduce_large()
    fp["cli"] = _cli_records(tmp)
    fp["halton"] = _halton()
    best = optimize_halton_permutations(5, 64, 4, 8, 4, seed=7)
    fp["perms"] = [[int(v) for v in pi] for pi in best.permutations]
    fp["l2"] = _l2()
    fp["dem"] = _dem()
    return fp


def test_seeded_fingerprint_unchanged(tmp_path):
    want = json.loads(PINNED.read_text())
    got = json.loads(json.dumps(fingerprint(tmp_path)))
    for section in want:
        assert got[section] == want[section], section
    assert got.keys() == want.keys()


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as tmp:
        json.dump(fingerprint(Path(tmp)), sys.stdout, indent=1, sort_keys=True)
    sys.stdout.write("\n")
