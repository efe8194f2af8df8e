import itertools
import zlib

import numpy as np
import pytest

import oracles
from conftest import random_pointset
from discrepkit import (BudgetExceededError, DiscreteMeasure, PermutationConfig,
                        PointSet, applications, backward_selection,
                        forward_selection, ga_lower_bound, halton, midpoint_set,
                        modified_l2_sq,
                        optimal_inner_weights, optimize_halton_permutations,
                        quality_report, star_dem, two_measure_star_disc)
from discrepkit import pointset
from discrepkit._simplex import LPError, _pivot, solve_lp
from discrepkit.cli import run_command, write_measure


class TestSimplex:
    def test_tiny_lp(self):
        # min -x1 - x2  s.t.  x1 + x2 + s = 1, from the slack basis
        x, obj, reduced = solve_lp([-1.0, -1.0, 0.0], [[1.0, 1.0, 1.0]], [1.0], [2])
        assert obj == pytest.approx(-1.0, abs=1e-12)
        assert reduced.tolist() == [0.0, 0.0, 1.0]

    def test_infeasible(self):
        # the caller's starting basis is checked: a singular one (a repeated
        # column) and an infeasible one (x2 = -1) are both refused
        A = [[1.0, 1.0, 1.0, 0.0], [1.0, 2.0, 0.0, 1.0]]
        with pytest.raises(LPError, match="singular"):
            solve_lp([1.0, 1.0, 0.0, 0.0], A, [1.0, 1.0], [2, 2])
        with pytest.raises(LPError, match="infeasible"):
            solve_lp([1.0, 1.0, 0.0, 0.0], A, [1.0, 0.0], [0, 1])

    def test_pivot_matches_row_loop(self):
        # signed zeros planted in the pivot column and elsewhere: the rank-1
        # update must skip the same rows and round every entry the same way
        rng = np.random.default_rng(31)
        for _ in range(300):
            rows, cols = int(rng.integers(3, 10)), int(rng.integers(2, 12))
            T = rng.normal(size=(rows, cols))
            T[rng.random(T.shape) < 0.25] = 0.0
            T[rng.random(T.shape) < 0.15] = -0.0
            row, col = int(rng.integers(rows)), int(rng.integers(cols))
            others = np.delete(np.arange(rows), row)
            T[rng.choice(others, size=2, replace=False), col] = [0.0, -0.0]
            T[row, col] = rng.choice([-1.0, 1.0]) * (0.5 + rng.random())
            basis = rng.integers(0, cols, size=rows)
            want_T, want_basis = T.copy(), basis.copy()
            oracles.pivot_row_loop(want_T, want_basis, row, col)
            _pivot(T, basis, row, col)
            assert np.array_equal(basis, want_basis)
            assert np.array_equal(T, want_T)
            assert np.array_equal(np.signbit(T), np.signbit(want_T))

    def test_matches_scipy_on_random_instances(self):
        # [A' | I] x = b with b >= 0: the slack columns are a feasible basis
        from scipy.optimize import linprog
        rng = np.random.default_rng(7)
        unbounded = 0
        for _ in range(25):
            m, k = int(rng.integers(1, 6)), int(rng.integers(1, 7))
            A = np.hstack([rng.normal(size=(m, k)), np.eye(m)])
            b = rng.random(m)
            c = rng.normal(size=k + m)
            ref = linprog(c, A_eq=A, b_eq=b, bounds=(0, None), method="highs")
            assert ref.status in (0, 3)  # optimal or unbounded
            if ref.status == 3:
                unbounded += 1
                with pytest.raises(LPError, match="unbounded"):
                    solve_lp(c, A, b, np.arange(k, k + m))
                continue
            x, obj, reduced = solve_lp(c, A, b, np.arange(k, k + m))
            assert obj == pytest.approx(ref.fun, rel=1e-7, abs=1e-7)
            assert np.allclose(A @ x, b, atol=1e-7)
            assert np.all(x >= -1e-9)
            # the reduced costs certify optimality: dual feasible,
            # complementary, and the duals y of the identity columns
            # (reduced = c - y there) reach the optimum
            assert np.all(reduced >= -1e-9)
            assert np.all(np.abs(x * reduced) <= 1e-9)
            y = c[k:] - reduced[k:]
            assert b @ y == pytest.approx(ref.fun, rel=1e-7, abs=1e-7)
        assert 0 < unbounded < 25


class TestDiscreteMeasure:
    def test_validation(self):
        with pytest.raises(ValueError):
            DiscreteMeasure([[0.2], [0.2]], [0.5, 0.5])  # duplicate atoms
        with pytest.raises(ValueError):
            DiscreteMeasure([[0.2], [0.4]], [0.7, 0.7])  # sums to 1.4
        with pytest.raises(ValueError):
            DiscreteMeasure([[0.2], [0.4]], [1.5, -0.5])

    def test_rejects_non_finite_input(self):
        with pytest.raises(ValueError, match="finite"):
            DiscreteMeasure([[0.2], [0.4]], [np.nan, 1.0])
        with pytest.raises(ValueError, match="finite"):
            DiscreteMeasure([[0.2], [np.nan]], [0.5, 0.5])

    def test_uniform(self):
        P = DiscreteMeasure.uniform([[0.25], [0.75]])
        assert P.probabilities.tolist() == [0.5, 0.5]


class TestTwoMeasureDistance:
    def test_identical_measures(self):
        P = DiscreteMeasure.uniform([[0.2, 0.3], [0.6, 0.9]])
        assert two_measure_star_disc(P, P) == 0.0

    def test_point_mass_example(self):
        P = DiscreteMeasure.uniform([[0.25], [0.75]])
        Q = DiscreteMeasure([[0.25]], [1.0])
        assert two_measure_star_disc(P, Q) == pytest.approx(0.5, abs=1e-15)

    def test_permutation_invariance(self):
        atoms = [[0.1, 0.2], [0.5, 0.6], [0.9, 0.1]]
        P = DiscreteMeasure.uniform(atoms)
        Q = DiscreteMeasure.uniform(atoms[::-1])
        assert two_measure_star_disc(P, Q) == 0.0

    def test_matches_brute(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            d = int(rng.integers(1, 3))
            np_, nq = int(rng.integers(1, 7)), int(rng.integers(1, 7))
            ap = rng.random((np_, d))
            aq = rng.random((nq, d))
            pp = rng.random(np_)
            pp /= pp.sum()
            pq = rng.random(nq)
            pq /= pq.sum()
            P = DiscreteMeasure(ap, pp)
            Q = DiscreteMeasure(aq, pq)
            want = oracles.two_measure_disc_brute(ap, pp, aq, pq)
            assert two_measure_star_disc(P, Q) == pytest.approx(want, abs=1e-12)
        # the edge cases of enumerating closed boxes only: d up to 3,
        # coordinates tied on multiples of 1/4 with atoms at 0 and at 1, and
        # Q on a subset of P's atoms in every other case
        levels = np.arange(5) / 4
        for i in range(60):
            d = 1 + i % 3
            ap = np.unique(rng.choice(levels, size=(int(rng.integers(1, 9)), d)), axis=0)
            if i % 2:
                aq = ap[rng.choice(len(ap), size=int(rng.integers(1, len(ap) + 1)),
                                   replace=False)]
            else:
                aq = np.unique(rng.choice(levels, size=(int(rng.integers(1, 9)), d)), axis=0)
            pp, pq = rng.dirichlet(np.ones(len(ap))), rng.dirichlet(np.ones(len(aq)))
            want = oracles.two_measure_disc_brute(ap, pp, aq, pq)
            got = two_measure_star_disc(DiscreteMeasure(ap, pp), DiscreteMeasure(aq, pq))
            assert got == pytest.approx(want, abs=1e-12)


class TestInnerWeights:
    def test_full_support_is_exact(self):
        rng = np.random.default_rng(5)
        atoms = rng.random((5, 2))
        p = rng.random(5)
        p /= p.sum()
        P = DiscreteMeasure(atoms, p)
        q, t = optimal_inner_weights(P, range(5))
        assert t == pytest.approx(0.0, abs=1e-9)
        assert np.allclose(q, p, atol=1e-8)

    def test_single_atom_support_1d(self):
        P = DiscreteMeasure.uniform([[0.2], [0.5], [0.8]])
        q, t = optimal_inner_weights(P, [1])
        assert q.tolist() == [1.0]
        # forced weights: distance of P to a unit mass at 0.5
        want = oracles.two_measure_disc_brute(P.atoms, P.probabilities, [[0.5]], [1.0])
        assert t == pytest.approx(want, abs=1e-9)
        assert t == pytest.approx(1 / 3, abs=1e-9)

    def test_self_consistency_with_distance(self):
        rng = np.random.default_rng(11)
        for _ in range(10):
            d = int(rng.integers(1, 3))
            N = int(rng.integers(2, 8))
            atoms = rng.random((N, d))
            p = rng.random(N)
            p /= p.sum()
            P = DiscreteMeasure(atoms, p)
            k = int(rng.integers(1, N + 1))
            sel = sorted(rng.choice(N, size=k, replace=False).tolist())
            q, t = optimal_inner_weights(P, sel)
            Q = DiscreteMeasure(atoms[sel], q)
            assert t == pytest.approx(two_measure_star_disc(P, Q), abs=1e-9)

    def test_never_worse_than_uniform_weights(self):
        rng = np.random.default_rng(13)
        for _ in range(10):
            N, d = 6, 2
            P = DiscreteMeasure.uniform(rng.random((N, d)))
            sel = sorted(rng.choice(N, size=3, replace=False).tolist())
            q, t = optimal_inner_weights(P, sel)
            uni = DiscreteMeasure(P.atoms[sel], np.full(3, 1 / 3))
            assert t <= two_measure_star_disc(P, uni) + 1e-9

    def test_matches_highs_optimum(self):
        # the optimum of an independent LP over the whole union grid
        levels = np.arange(9) / 8
        rng = np.random.default_rng(37)
        for kind in ("uniform", "weighted", "quantized"):
            for d in (1, 2, 3):
                for _ in range(4):
                    N = int(rng.integers(2, 8))
                    if kind == "quantized":  # atoms at 0 and at 1 included
                        cells = [0, 9 ** d - 1] + rng.choice(
                            np.arange(1, 9 ** d - 1), size=N - 2, replace=False).tolist()
                        atoms = levels[np.array(np.unravel_index(cells, (9,) * d)).T]
                    else:
                        atoms = rng.random((N, d))
                    P = (DiscreteMeasure(atoms, rng.dirichlet(np.ones(N)))
                         if kind == "weighted" else DiscreteMeasure.uniform(atoms))
                    k = int(rng.integers(1, N + 1))
                    sel = sorted(rng.choice(N, size=k, replace=False).tolist())
                    q, t = optimal_inner_weights(P, sel)
                    _, want = oracles.inner_optimum_highs(P.atoms, P.probabilities, sel)
                    assert abs(t - want) <= 1e-9
                    assert np.all(q >= 0.0) and abs(q.sum() - 1.0) <= 1e-12
                    Q = DiscreteMeasure(P.atoms[sel], q)
                    assert abs(two_measure_star_disc(P, Q) - t) <= 1e-9

    def test_supporting_boxes_do_not_depend_on_chunks(self, monkeypatch):
        # one-row chunks put a chunk boundary between every two rows
        rng = np.random.default_rng(41)
        measures = []
        for d in (1, 2, 3):
            for _ in range(6):
                atoms = np.unique(rng.choice([0.0, 0.25, 0.5, 1.0], size=(10, d)), axis=0)
                measures.append(DiscreteMeasure(atoms, rng.dirichlet(np.ones(len(atoms)))))
        want = [applications._supporting_boxes(P, 2_000_000) for P in measures]
        monkeypatch.setattr(pointset, "_CHUNK", 1)
        for P, (member, mass) in zip(measures, want):
            got_member, got_mass = applications._supporting_boxes(P, 2_000_000)
            assert got_member.tobytes() == member.tobytes() and got_member.shape == member.shape
            assert got_mass.tobytes() == mass.tobytes()


def exhaustive_best_subset(P, n):
    """Best achievable distance over all supports of size n, exact inner LP."""
    best = None
    for sel in itertools.combinations(range(P.n), n):
        _, t = optimal_inner_weights(P, sel)
        if best is None or t < best[0]:
            best = (t, sel)
    return best


class TestSelection:
    def test_forward_full_support(self):
        P = DiscreteMeasure.uniform([[0.2], [0.5], [0.8]])
        res = forward_selection(P, 3, exact_inner=True)
        assert res.distance == pytest.approx(0.0, abs=1e-9)

    def test_backward_identity(self):
        P = DiscreteMeasure.uniform([[0.2], [0.5], [0.8]])
        res = backward_selection(P, 3, exact_inner=True)
        assert res.distance == pytest.approx(0.0, abs=1e-9)
        assert res.support_idx == (0, 1, 2)

    def test_forward_two_atoms_1d(self):
        P = DiscreteMeasure.uniform([[0.25], [0.75]])
        res = forward_selection(P, 1, exact_inner=True)
        assert res.distance == pytest.approx(0.5, abs=1e-9)
        assert res.measure.n == 1

    def test_forward_single_and_full_are_optimal(self):
        # n=1 scans every singleton and n=N keeps everything, so both are
        # exhaustive by construction
        rng = np.random.default_rng(17)
        for _ in range(6):
            N = int(rng.integers(2, 7))
            P = DiscreteMeasure.uniform(np.sort(rng.random(N)).reshape(-1, 1))
            for n in (1, N):
                res = forward_selection(P, n, exact_inner=True)
                best_t, _ = exhaustive_best_subset(P, n)
                assert res.distance == pytest.approx(best_t, abs=1e-9)

    def test_forward_gap_to_exhaustive_reported(self):
        # greedy selection is a heuristic: it can miss the best subset (the
        # best singleton need not be contained in the best pair), so the gap
        # is measured and bounded, not asserted to vanish
        rng = np.random.default_rng(17)
        gaps = []
        for _ in range(8):
            N = int(rng.integers(2, 7))
            P = DiscreteMeasure.uniform(np.sort(rng.random(N)).reshape(-1, 1))
            n = int(rng.integers(1, N + 1))
            res = forward_selection(P, n, exact_inner=True)
            best_t, _ = exhaustive_best_subset(P, n)
            assert res.distance >= best_t - 1e-9
            gaps.append(res.distance - best_t)
        assert max(gaps) <= 0.5  # sanity ceiling; observed worst is ~0.2

    def test_backward_single_removal_matches_exhaustive(self):
        rng = np.random.default_rng(19)
        for _ in range(5):
            N = int(rng.integers(3, 7))
            P = DiscreteMeasure.uniform(rng.random((N, 2)))
            res = backward_selection(P, N - 1, exact_inner=True)
            best_t, _ = exhaustive_best_subset(P, N - 1)
            assert res.distance == pytest.approx(best_t, abs=1e-9)

    def test_trace_recorded_and_feasible(self):
        rng = np.random.default_rng(23)
        P = DiscreteMeasure.uniform(rng.random((8, 2)))
        res = forward_selection(P, 4, exact_inner=False)
        assert [s for s, _ in res.trace] == [1, 2, 3, 4]
        assert set(res.support_idx) <= set(range(8))
        assert res.measure.probabilities.sum() == pytest.approx(1.0, abs=1e-12)
        # reported distance recomputes through the public metric, bit for bit
        assert res.distance == two_measure_star_disc(P, res.measure)
        # and is the distance of the last greedy step, not a second solve
        assert res.distance == res.trace[-1][1]

    def test_fast_and_exact_agree_on_easy_instance(self):
        P = DiscreteMeasure.uniform([[0.1], [0.5], [0.9]])
        fast = forward_selection(P, 3, exact_inner=False)
        exact = forward_selection(P, 3, exact_inner=True)
        assert fast.distance == pytest.approx(exact.distance, abs=1e-9)

    def test_forward_backward_agree_n4_to_2(self):
        # observed on this seeded family: both greedy directions land on
        # tie-equivalent distances for N=4, n=2 in one dimension
        rng = np.random.default_rng(42)
        for _ in range(20):
            P = DiscreteMeasure.uniform(np.sort(rng.random(4)).reshape(-1, 1))
            f = forward_selection(P, 2, exact_inner=True)
            b = backward_selection(P, 2, exact_inner=True)
            assert f.distance == pytest.approx(b.distance, abs=1e-9)

    def test_supports_ignore_lp_rounding_noise(self, monkeypatch):
        # tied candidates must not be told apart by the LP's last bits: six
        # uniform atoms in d = 3 reduced backward to one atom end on two
        # singletons both 5/6 away, and equispaced 1-d atoms tie throughout
        family = [DiscreteMeasure.uniform(np.random.default_rng(s).random((6, 3)))
                  for s in range(3)]
        family.append(DiscreteMeasure.uniform([[0.1], [0.3], [0.5], [0.7], [0.9]]))
        runs = [(P, fn, n) for P in family
                for fn in (forward_selection, backward_selection)
                for n in range(1, P.n)]
        want = [fn(P, n, exact_inner=True).support_idx for P, fn, n in runs]
        inner = applications._inner_lp
        for sign in (1.0, -1.0):
            def noisy(member, mass):  # at most 1e-12, fixed per support
                q, t = inner(member, mass)
                h = zlib.crc32(np.ascontiguousarray(member).tobytes()) / 2 ** 32
                return q, t + sign * 1e-12 * h

            monkeypatch.setattr(applications, "_inner_lp", noisy)
            got = [fn(P, n, exact_inner=True).support_idx for P, fn, n in runs]
            assert got == want

    def test_exact_inner_lp_honours_budget(self, tmp_path, monkeypatch):
        # 200 atoms in d = 2: the grid has 201^2 = 40401 corners, well within
        # the default budget, but P has 10236 closed critical boxes and the
        # dual simplex tableau would hold (N+2)(2B+N+3) = 4176350 entries
        def no_lp(*args):
            raise AssertionError("the tableau must be refused before it is built")

        monkeypatch.setattr(applications, "_inner_lp", no_lp)
        P = DiscreteMeasure.uniform(np.random.default_rng(29).random((200, 2)))
        with pytest.raises(BudgetExceededError, match="4176350 simplex tableau entries"):
            forward_selection(P, 5, exact_inner=True)
        path = tmp_path / "measure.txt"
        write_measure(str(path), P)
        code, rep = run_command(["reduce", "--input", str(path), "--n", "5",
                                 "--exact-inner"])
        assert code == 3
        assert "exceeding the budget of 2000000" in rep.records[-1]["error"]

    def test_exact_inner_lp_admits_dual_tableau(self):
        # 40 atoms in d = 2: 385 closed boxes give a dual tableau of 34146
        # entries; a tableau with two rows per box, (2B+2)(N+2B+2), would
        # be refused at the default budget
        P = DiscreteMeasure.uniform(np.random.default_rng(29).random((40, 2)))
        res = forward_selection(P, 3, exact_inner=True)
        _, want = oracles.inner_optimum_highs(P.atoms, P.probabilities, res.support_idx)
        assert abs(res.distance - want) <= 1e-9
        # a full support reaches distance zero, and +0.0 rather than -0.0
        full = forward_selection(DiscreteMeasure.uniform(P.atoms[:6]), 6, exact_inner=True)
        assert full.distance == 0.0 and not np.signbit(full.distance)

    def test_nearest_mass_reduction_reaches_positive_zero(self, tmp_path):
        # a full support reaches distance zero, and +0.0 rather than -0.0,
        # in both directions and in the reduce command's record
        P = DiscreteMeasure(np.random.default_rng(43).random((9, 2)),
                            np.random.default_rng(44).dirichlet(np.ones(9)))
        for fn in (forward_selection, backward_selection):
            res = fn(P, P.n)
            assert res.distance == 0.0 and not np.signbit(res.distance)
        path = tmp_path / "measure.txt"
        write_measure(str(path), P)
        for method in ("forward", "backward"):
            code, rep = run_command(["reduce", "--input", str(path), "--n", str(P.n),
                                     "--method", method])
            assert code == 0
            dist = rep.records[0]["distance"]
            assert dist == 0.0 and not np.signbit(dist)

    def test_trace_nonincreasing_observed(self):
        # empirical property of the greedy trace on this seeded family; the
        # general claim is not guaranteed, so the seeds stay pinned
        rng = np.random.default_rng(20240911)
        for _ in range(20):
            N = int(rng.integers(3, 10))
            d = int(rng.integers(1, 3))
            P = DiscreteMeasure.uniform(rng.random((N, d)))
            res = forward_selection(P, N, exact_inner=False)
            dists = [x for _, x in res.trace]
            assert all(b <= a + 1e-12 for a, b in zip(dists, dists[1:]))


def nearest_mass_family():
    """Measures whose nearest-mass steps meet argmin ties: d = 1-3, uniform
    random, equidistant and lattice atoms with atoms at 0 and 1, uniform
    and Dirichlet weights."""
    rng = np.random.default_rng(20261020)
    out = []
    for i in range(18):
        d, kind = 1 + i % 3, (i // 3) % 3
        if kind == 0:
            atoms = rng.random((int(rng.integers(2, 12)), d))
        elif kind == 1:  # equidistant on each axis, 0 and 1 included
            atoms = np.unique(rng.integers(0, 5, size=(int(rng.integers(2, 12)), d)) / 4, axis=0)
        else:  # a full lattice: every atom has tied neighbours
            atoms = np.array(list(itertools.product(*[np.linspace(0, 1, 3)] * d)))
        w = rng.dirichlet(np.ones(len(atoms))) if i % 2 else np.full(len(atoms), 1 / len(atoms))
        out.append(DiscreteMeasure(atoms, w))
    return out


class TestNearestMassSteps:
    """Every candidate of every nearest-mass step, forward and backward,
    against the pure-Python oracle and the public distance, bitwise, with
    candidates scored one lane per walk, seven, or as many as fit."""

    @pytest.mark.parametrize("lanes", [1, 7, None])
    def test_every_candidate_matches_oracle(self, lanes, monkeypatch):
        steps = []
        scorer = applications._support_scorer

        def recording(P, exact_inner, budget):
            score = scorer(P, exact_inner, budget)

            def run(kept, cands, grow):
                got = list(score(kept, cands, grow))
                steps.append((P, list(kept), list(cands), grow, got))
                return iter(got)

            return run

        monkeypatch.setattr(applications, "_support_scorer", recording)
        for P in nearest_mass_family():
            if lanes is not None:  # the grid is one chunk: 7 lanes are 7 grids
                grid = np.prod([len(np.unique(a)) for a in P.atoms.T])
                monkeypatch.setattr(pointset, "_LANES", lanes * int(grid))
                assert pointset._lanes(tuple(len(np.unique(a)) for a in P.atoms.T)) == lanes
            forward_selection(P, P.n)
            backward_selection(P, 1)
            backward_selection(P, P.n)  # the full support, as one growing step
        assert len(steps) == 2 * sum(P.n for P in nearest_mass_family())
        for P, kept, cands, grow, got in steps:
            assert len(got) == len(cands)
            for c, (q, t) in zip(cands, got):
                support = sorted(kept + [c]) if grow else [i for i in kept if i != c]
                want = np.array(oracles.nearest_mass(P.atoms, P.probabilities, support))
                assert q.view(np.int64).tolist() == want.view(np.int64).tolist()
                Q = DiscreteMeasure(P.atoms[support], q)
                assert t.hex() == two_measure_star_disc(P, Q).hex()

    def test_lane_tensor_within_budget(self, monkeypatch):
        # 200 atoms in d = 2: a grid of 40,000 corners walks in chunks of
        # 163 rows, so 8 candidates share a walk and a step needs 25 walks
        sizes = []

        def recording(shape, cells, w):
            for r0, H in _grid_rows(shape, cells, w):
                sizes.append(H.shape)
                yield r0, H

        _grid_rows = applications._grid_rows
        monkeypatch.setattr(applications, "_grid_rows", recording)
        P = DiscreteMeasure.uniform(np.random.default_rng(47).random((200, 2)))
        forward_selection(P, 2)
        assert max(np.prod(s) for s in sizes) <= pointset._LANES
        assert {s[-1] for s in sizes} == {8, 7}  # 200 and 199 candidates, 8 a walk
        assert len(sizes) == 2 * (25 + 25)  # two chunks per walk


class TestPermutationOptimizer:
    def test_d1_forced_identity(self):
        cfg = optimize_halton_permutations(1, 8, mu=2, lam=2, generations=2, seed=0)
        assert cfg.permutations[0] == (0, 1)

    def test_never_worse_than_identity(self):
        for seed in range(3):
            cfg = optimize_halton_permutations(3, 32, mu=4, lam=6,
                                               generations=4, seed=seed)
            fit = modified_l2_sq(halton(32, 3, cfg))
            fit_id = modified_l2_sq(halton(32, 3))
            assert fit <= fit_id + 1e-15

    def test_reproducible(self):
        a = optimize_halton_permutations(3, 16, mu=3, lam=4, generations=3, seed=9)
        b = optimize_halton_permutations(3, 16, mu=3, lam=4, generations=3, seed=9)
        assert a.permutations == b.permutations

    def test_improves_plain_halton_d4(self):
        cfg = optimize_halton_permutations(4, 64, mu=6, lam=10,
                                           generations=8, seed=4)
        fit = modified_l2_sq(halton(64, 4, cfg))
        fit_id = modified_l2_sq(halton(64, 4))
        assert fit < fit_id


class TestQualityReport:
    def test_midpoint_star(self):
        cells = quality_report({"mid8": midpoint_set(8)}, ["star-linf"])
        cell = cells[0]
        assert cell.value == pytest.approx(1 / 16, abs=1e-15)
        assert cell.method == "1d"
        assert cell.error is None

    def test_d4_cell_records_the_grid_search(self):
        X = halton(32, 4)
        cell = quality_report({"h": X}, ["star-linf"])[0]
        assert cell.method == "grid" and cell.error is None
        assert cell.value == star_dem(X).value

    def test_budget_fallback_interval(self):
        rng = np.random.default_rng(2)
        X = PointSet(rng.random((40, 6)))
        cells = quality_report({"big": X}, ["star-linf"], exact_budget=1000,
                               ta_iterations=300, restarts=2, seed=5)
        cell = cells[0]
        assert cell.value is None
        assert cell.lower is not None and cell.upper is not None
        assert cell.lower <= cell.upper

    def test_errors_recorded_not_raised(self):
        cells = quality_report({"m": midpoint_set(2)}, ["no-such-measure"])
        assert cells[0].error is not None

    def test_lp_even_cell_honours_the_budget(self):
        X = PointSet(np.random.default_rng(35).random((12, 3)))
        cell = quality_report({"x": X}, ["lp-even"], exact_budget=1000)[0]
        assert (cell.value, cell.method) == (None, "lp-even")
        assert cell.error == ("BudgetExceededError: direct L_p evaluation needs about 85683 "
                              "operations, exceeding the budget of 1000")

    def test_ga_lower_cell_runs_with_the_disc_defaults(self):
        X = PointSet(np.random.default_rng(35).random((12, 3)))
        cell = quality_report({"x": X}, ["ga-lower"], seed=4)[0]
        res = ga_lower_bound(X, 8, 8, 8, 50, 4)  # mu, lambda_c, lambda_m, stagnation, seed
        assert (cell.value, cell.lower, cell.upper) == (None, res.lower, res.upper)
        assert (cell.method, cell.seed, cell.error) == ("ga", 4, None)

    def test_weighted_l2_cell_needs_gamma(self):
        cell = quality_report({"m": midpoint_set(2)}, ["weighted-l2"])[0]
        assert (cell.method, cell.seed) == ("weighted-l2", None)
        assert cell.error == "ValueError: weighted-l2 needs --gamma"

    def test_deterministic_given_seed(self):
        rng = np.random.default_rng(31)
        X = PointSet(rng.random((12, 5)))
        a = quality_report({"x": X}, ["star-linf", "star-l2"], exact_budget=10,
                           ta_iterations=200, restarts=2, seed=7)
        b = quality_report({"x": X}, ["star-linf", "star-l2"], exact_budget=10,
                           ta_iterations=200, restarts=2, seed=7)
        for ca, cb in zip(a, b):
            assert ca.value == cb.value and ca.lower == cb.lower and ca.upper == cb.upper
