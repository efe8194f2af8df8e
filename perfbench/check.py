"""Independent references and output checks.

Every reference here is computed by the benchmark's own code from the
generated inputs: grid maxima by its own enumeration of the induced grids,
L2-type values from the closed forms evaluated in extended precision, the
even-p L_p expansion by brute force over all tuples, anchored-box distances
of two discrete measures over every corner of their union grid, and inner
optima by scipy's HiGHS solver on a formulation over all those corners.
Nothing is compared with a stored copy of the program's output.
"""

from __future__ import annotations

import json
import math
from functools import cached_property

import numpy as np

import inputs

ABS = 1e-12     # star discrepancies and local values: recomputed counts
REL_L2 = 1e-10  # L2-type closed forms
REL_LP = 1e-9   # even-p expansion: sums of ~n^p terms of size ~1 cancel
ABS_LP = 1e-8   # HiGHS optimum vs the program's simplex
ABS_DIST = 1e-9  # reported distance vs the distance of the written measure


class CheckError(Exception):
    pass


def _need(cond: bool, msg: str) -> None:
    if not cond:
        raise CheckError(msg)


# ---------------------------------------------------------------------------
# references
# ---------------------------------------------------------------------------

def _mu(tables, j: int, x):
    if tables is None:
        return np.asarray(x, dtype=np.float64)
    knots, values = tables[j]
    return np.interp(x, knots, values)


def local_values(pts: np.ndarray, y, tables=None) -> tuple[float, float]:
    """(open, closed) local discrepancy of pts at the corner y."""
    y = np.asarray(y, dtype=np.float64)
    mu = 1.0
    for j in range(pts.shape[1]):
        mu *= float(_mu(tables, j, y[j]))
    n = pts.shape[0]
    return (mu - int(np.count_nonzero(np.all(pts < y, axis=1))) / n,
            int(np.count_nonzero(np.all(pts <= y, axis=1))) / n - mu)


def grid_max(pts: np.ndarray, tables=None) -> float:
    """Star discrepancy by enumerating every corner of the induced grids.

    Open boxes are maximized over the coordinate values plus 1, closed boxes
    over the coordinate values; the count at each corner comes from a
    histogram of first-counted corners summed along every axis.
    """
    n, d = pts.shape
    best = -np.inf
    for side in ("open", "closed"):
        if side == "open":
            axes = [np.union1d(pts[:, j], [1.0]) for j in range(d)]
        else:
            axes = [np.unique(pts[:, j]) for j in range(d)]
        first = [np.searchsorted(axes[j], pts[:, j], "right" if side == "open" else "left")
                 for j in range(d)]
        counts = np.zeros([len(a) for a in axes], dtype=np.int64)
        np.add.at(counts, tuple(first), 1)
        for ax in range(d):
            counts = np.cumsum(counts, axis=ax)
        mu = np.ones(counts.shape)
        for j in range(d):
            shape = [1] * d
            shape[j] = -1
            mu = mu * _mu(tables, j, axes[j]).reshape(shape)
        vals = mu - counts / n if side == "open" else counts / n - mu
        best = max(best, float(vals.max()))
    return best


def _pair_sum(factor, a: np.ndarray) -> np.longdouble:
    """sum over all pairs (i, k) of prod_j factor(j, a[i, j], a[k, j])."""
    total = np.longdouble(0.0)
    for s in range(0, a.shape[0], 256):
        blk = a[s:s + 256]
        M = factor(0, blk[:, None, 0], a[None, :, 0])
        for j in range(1, a.shape[1]):
            M = M * factor(j, blk[:, None, j], a[None, :, j])
        total += np.sum(M, dtype=np.longdouble)
    return total


def l2_closed_form(pts: np.ndarray, form: str, gamma=None) -> float:
    """Squared L2-type discrepancy from its closed form."""
    n, d = pts.shape
    L = np.longdouble
    if form == "warnock":
        t1 = L(3.0) ** -d
        t2 = np.sum(np.prod(1.0 - pts ** 2, axis=1), dtype=L) * L(2.0) ** (1 - d)
        t3 = _pair_sum(lambda j, u, v: np.minimum(1.0 - u, 1.0 - v), pts)
    elif form == "extreme":
        # boxes [y, z) with y <= z under dy dz; E of x in [y, z) is x(1-x)/2
        t1 = L(12.0) ** -d
        t2 = np.sum(np.prod(pts * (1.0 - pts) / 2.0, axis=1), dtype=L) * 2
        t3 = _pair_sum(lambda j, u, v: np.minimum(u, v) * (1.0 - np.maximum(u, v)), pts)
    else:  # weighted: coordinate j carries the product weight gamma_j^2
        g2 = np.asarray(gamma, dtype=np.float64) ** 2
        t1 = np.prod(1.0 + g2.astype(L) / 3)
        t2 = np.sum(np.prod(1.0 + g2 * (1.0 - pts ** 2) / 2.0, axis=1), dtype=L) * 2
        t3 = _pair_sum(lambda j, u, v: 1.0 + g2[j] * np.minimum(1.0 - u, 1.0 - v), pts)
    return float(t1 - t2 / n + t3 / (L(n) * n))


def lp_pow(pts: np.ndarray, p: int, gamma) -> float:
    """p-th power of the weighted L_p star discrepancy, even p, by summing the
    Leobacher-Pillichshammer expansion over every tuple of points."""
    n, d = pts.shape
    g = np.asarray(gamma, dtype=np.float64)
    total = []
    for level in range(p + 1):
        q = p - level + 1
        m = np.zeros((1, d))
        for _ in range(level):
            m = np.maximum(m[:, None, :], pts[None, :, :]).reshape(-1, d)
        terms = np.prod(1.0 + g * (1.0 - m ** q) / q, axis=1)
        total.append(math.comb(p, level) * (-1.0 / n) ** level * math.fsum(terms))
    return math.fsum(total)


def box_distance(p_atoms, p_w, q_atoms, q_w) -> float:
    """sup over anchored boxes of |P(B) - Q(B)|, over every union-grid corner."""
    pts = np.vstack([p_atoms, q_atoms])
    w = np.concatenate([p_w, -np.asarray(q_w)])
    best = 0.0
    for corners, rel in _union_corners(pts):
        for s in range(0, len(corners), 2048):
            y = corners[s:s + 2048]
            inside = np.all(rel(pts[None, :, :], y[:, None, :]), axis=2)
            best = max(best, float(np.max(np.abs(inside @ w))))
    return best


def _union_corners(pts: np.ndarray):
    d = pts.shape[1]
    aug = [np.union1d(pts[:, j], [1.0]) for j in range(d)]
    plain = [np.unique(pts[:, j]) for j in range(d)]
    yield np.array(np.meshgrid(*aug, indexing="ij")).reshape(d, -1).T, np.less
    yield np.array(np.meshgrid(*plain, indexing="ij")).reshape(d, -1).T, np.less_equal


def inner_optimum(p_atoms, p_w, support) -> float:
    """min over probabilities q on the support of the box distance, by HiGHS,
    with one pair of constraints per corner of the union grids."""
    from scipy.optimize import linprog

    Y = p_atoms[list(support)]
    m = Y.shape[0]
    rows, rhs = [], []
    for corners, rel in _union_corners(p_atoms):
        a = np.all(rel(Y[None, :, :], corners[:, None, :]), axis=2).astype(float)
        pb = np.all(rel(p_atoms[None, :, :], corners[:, None, :]), axis=2) @ p_w
        rows.append(a)
        rhs.append(pb)
    A = np.vstack(rows)
    b = np.concatenate(rhs)
    ones = np.ones((A.shape[0], 1))
    A_ub = np.vstack([np.hstack([A, -ones]), np.hstack([-A, -ones])])
    b_ub = np.concatenate([b, -b])
    c = np.zeros(m + 1)
    c[m] = 1.0
    A_eq = np.zeros((1, m + 1))
    A_eq[0, :m] = 1.0
    res = linprog(c, A_ub=A_ub, b_ub=b_ub, A_eq=A_eq, b_eq=[1.0],
                  bounds=[(0, None)] * (m + 1), method="highs")
    if res.status != 0:
        raise CheckError(f"reference LP failed: {res.message}")
    return float(res.fun)


def modified_l2_of_halton(points: int, d: int, perms=None) -> float:
    return l2_closed_form(inputs.halton_points(1, points, d, perms), "weighted", [1.0] * d)


# ---------------------------------------------------------------------------
# checks
# ---------------------------------------------------------------------------

def _records(out: dict) -> list:
    _need(out.get("exit") == 0, f"exit code {out.get('exit')}: {out.get('error', out.get('records'))}")
    _need(isinstance(out.get("records"), list) and out["records"], "no records")
    return out["records"]


def _close(a: float, b: float, rel: float = 0.0, ab: float = 0.0) -> bool:
    return abs(a - b) <= max(ab, rel * abs(b))


class Checker:
    """Checks the outputs of one pass of one workload against references."""

    def __init__(self, w: inputs.Workload):
        self.w = w
        self._refs: dict = {}
        self._memo: dict = {}
        self.ta_over_ref: list = []  # TA lower bound over the exact value, per command

    def ref(self, key, fn):
        if key not in self._refs:
            self._refs[key] = fn()
        return self._refs[key]

    def exact_ref(self, s: str, g=None) -> float:
        tables = None if g is None else self.w.marginals[g]
        return self.ref(("grid", s, g), lambda: grid_max(self.w.pointsets[s], tables))

    @cached_property
    def exact_refs(self) -> dict:
        """Exact values of the sets that bound commands are held to."""
        return {s: self.exact_ref(s) for s in self.w.exact_sets}

    def check_pass(self, outputs: list) -> list:
        """(ok, reason) per operation, for the outputs of one pass."""
        key = tuple(outputs)
        if key not in self._memo:
            parsed = {op.name: json.loads(o) for op, o in zip(self.w.ops, outputs)}
            res = []
            for op in self.w.ops:
                try:
                    getattr(self, "_" + op.check[0])(op.name, parsed, *op.check[1:])
                    res.append((True, ""))
                except CheckError as exc:
                    res.append((False, f"{op.name}: {exc}"))
                except (KeyError, IndexError, TypeError, ValueError) as exc:
                    res.append((False, f"{op.name}: malformed output ({type(exc).__name__}: {exc})"))
            self._memo[key] = res
        return self._memo[key]

    # -- exact ------------------------------------------------------------

    def _star_linf(self, name, parsed, s, g):
        rec = _records(parsed[name])[0]
        pts = self.w.pointsets[s]
        tables = None if g is None else self.w.marginals[g]
        op, cl = local_values(pts, rec["witness"], tables)
        local = op if rec["witness_kind"] == "open" else cl
        _need(_close(rec["value"], local, ab=ABS),
              f"value {rec['value']!r} but {local!r} at the witness")
        ref = self.exact_ref(s, g)
        _need(_close(rec["value"], ref, ab=ABS),
              f"value {rec['value']!r} but the grid maximum is {ref!r}")

    def _l2(self, name, parsed, s, form, gamma):
        v = _records(parsed[name])[0]["value"]
        ref = self.ref(("l2", s, form, repr(gamma)),
                       lambda: l2_closed_form(self.w.pointsets[s], form, gamma))
        _need(_close(v, ref, rel=REL_L2), f"value {v!r} but the closed form gives {ref!r}")

    def _lp(self, name, parsed, s, p, gamma):
        v = _records(parsed[name])[0]["value"]
        ref = self.ref(("lp", s, p, repr(gamma)),
                       lambda: lp_pow(self.w.pointsets[s], p, gamma))
        _need(_close(v, ref, rel=REL_LP), f"value {v!r} but the expansion gives {ref!r}")

    def _lp_p2(self, name, parsed, s, gamma):
        # documented identity: L_2 with weights gamma^2 is weighted L2 with gamma
        v = _records(parsed[name])[0]["value"]
        ref = self.ref(("l2", s, "weighted", repr(gamma)),
                       lambda: l2_closed_form(self.w.pointsets[s], "weighted", gamma))
        _need(_close(v, ref, rel=REL_L2), f"p=2 value {v!r} but weighted L2 is {ref!r}")

    # -- bounds -----------------------------------------------------------

    def _lower(self, name, parsed, s):
        out = parsed[name]
        rec = _records(out)[0]
        lo = rec["lower"]
        _need(lo > 0.0, f"lower bound {lo!r} is not positive")
        local = max(local_values(self.w.pointsets[s], rec["witness"]))
        _need(_close(lo, local, ab=ABS), f"lower {lo!r} but {local!r} at the witness")
        if s in self.exact_refs:
            _need(lo <= self.exact_refs[s] + ABS,
                  f"lower {lo!r} exceeds the exact value {self.exact_refs[s]!r}")
        cover = _records(parsed[f"cover-{s}"])[0]
        _need(lo <= cover["upper"] + ABS, f"lower {lo!r} exceeds the cover upper bound")
        if name.endswith("-rerun"):
            first = parsed[name[: -len("-rerun")]]
            _need(first == out, "rerun with the same seed gave a different output")
        if name.startswith("ta-") and s in self.exact_refs:
            self.ta_over_ref.append(lo / self.exact_refs[s])

    def _cover(self, name, parsed, s, delta):
        rec = _records(parsed[name])[0]
        lo, up = rec["lower"], rec["upper"]
        _need(lo > 0.0, f"lower bound {lo!r} is not positive")
        local = max(local_values(self.w.pointsets[s], rec["witness"]))
        _need(_close(lo, local, ab=ABS), f"lower {lo!r} but {local!r} at the witness")
        _need(_close(up - lo, delta, ab=ABS), f"interval width {up - lo!r}, not {delta!r}")
        if s in self.exact_refs:
            ref = self.exact_refs[s]
            _need(lo <= ref + ABS <= up + 2 * ABS, f"[{lo!r}, {up!r}] misses {ref!r}")

    # -- applications -----------------------------------------------------

    def _reduce(self, name, parsed, m, n, method, exact):
        recs = _records(parsed[name])
        head = recs[0]
        probs, atoms = self.w.measures[m]
        support = [int(t) for t in head["support"].split(",")]
        _need(len(set(support)) == n and all(0 <= i < len(probs) for i in support),
              f"support {support} is not {n} distinct atoms")
        q_rows = np.array([[float(t) for t in line.split()]
                           for line in parsed[name].get("written", "").splitlines()
                           if line.strip() and not line.startswith("#")])
        _need(q_rows.shape == (n, atoms.shape[1] + 1), "written measure has the wrong shape")
        q_w, q_atoms = q_rows[:, 0], q_rows[:, 1:]
        _need(np.array_equal(q_atoms, atoms[support]), "written atoms are not the support")
        _need(np.all(q_w >= 0.0) and abs(q_w.sum() - 1.0) <= 1e-12,
              "written weights are not a probability vector")
        dist = box_distance(atoms, probs, q_atoms, q_w)
        for field in ("distance", "recomputed_distance"):
            _need(_close(head[field], dist, ab=ABS_DIST),
                  f"{field} {head[field]!r} but the written measure is at {dist!r}")
        if exact:
            opt = self.ref(("lp", m, tuple(support)),
                           lambda: inner_optimum(atoms, probs, support))
            _need(_close(head["distance"], opt, ab=ABS_LP),
                  f"distance {head['distance']!r} but the optimum on the support is {opt!r}")
            trace = [(r["trace_size"], r["trace_distance"]) for r in recs if "trace_size" in r]
            sizes = [t[0] for t in trace]
            dists = [t[1] for t in trace]
            if method == "forward":
                _need(sizes == list(range(1, n + 1)), f"trace sizes {sizes}")
                _need(all(b <= a + ABS for a, b in zip(dists, dists[1:])),
                      "forward trace increases")
            else:
                _need(sizes == list(range(len(probs), n - 1, -1)), f"trace sizes {sizes}")
                _need(all(b >= a - ABS for a, b in zip(dists, dists[1:])),
                      "backward trace decreases")

    def _perms(self, name, parsed, d, points):
        recs = _records(parsed[name])
        head = recs[0]
        perms = {r["base_index"]: [int(t) for t in r["permutation"].split(",")]
                 for r in recs if "base_index" in r}
        _need(sorted(perms) == list(range(d)), "not one permutation per coordinate")
        for j in range(d):
            pi = perms[j]
            _need(sorted(pi) == list(range(inputs.PRIMES[j])) and pi[0] == 0,
                  f"permutation {j} is not a zero-fixing permutation of 0..{inputs.PRIMES[j] - 1}")
        perm_list = [perms[j] for j in range(d)]
        fit = self.ref(("perm", tuple(map(tuple, perm_list))),
                       lambda: modified_l2_of_halton(points, d, perm_list))
        fit_id = self.ref(("perm", None), lambda: modified_l2_of_halton(points, d))
        _need(_close(head["fitness"], fit, rel=REL_L2),
              f"fitness {head['fitness']!r} but {fit!r} recomputed")
        _need(_close(head["identity_fitness"], fit_id, rel=REL_L2),
              f"identity fitness {head['identity_fitness']!r} but {fit_id!r} recomputed")
        _need(fit <= fit_id * (1 + REL_L2), f"fitness {fit!r} worse than identity {fit_id!r}")

    def _report(self, name, parsed, manifest):
        recs = _records(parsed[name])
        names = self.w.manifests[manifest]
        cells = {(r["set"], r["measure"]): r for r in recs if "set" in r}
        _need(sorted(cells) == sorted((s, m) for s in names for m in ("star-linf", "star-l2")),
              "report does not have one cell per set and measure")
        for (s, m), r in cells.items():
            _need("error" not in r, f"cell {s}/{m} failed: {r.get('error')}")
            if m == "star-l2":
                ref = self.ref(("l2", s, "warnock", "None"),
                               lambda: l2_closed_form(self.w.pointsets[s], "warnock"))
                _need(_close(r["value"], ref, rel=REL_L2), f"cell {s}/{m} {r['value']!r} vs {ref!r}")
            elif "value" in r:
                _need(s in self.exact_refs, f"cell {s}/{m} exact where no reference exists")
                ref = self.exact_refs[s]
                _need(_close(r["value"], ref, ab=ABS), f"cell {s}/{m} {r['value']!r} vs {ref!r}")
            else:
                _need(0.0 < r["lower"] <= r["upper"], f"cell {s}/{m} interval is not ordered")
                if s in self.exact_refs:
                    _need(r["lower"] <= self.exact_refs[s] + ABS <= r["upper"] + 2 * ABS,
                          f"cell {s}/{m} interval misses the exact value")
