"""Spans around the calls into discrepkit's public functions.

``Tracer.install`` replaces each traced function by a wrapper in every
``discrepkit`` namespace that holds it by name (the defining module, the
package, and every module that imported it with ``from ... import``), so
calls made through module attributes, through imported names and from inside
the defining module are all seen.  ``Tracer.uninstall`` puts every original
back.  A span is (name, start, end, parent span, command id, work count);
spans stay in memory until the run ends.  The wrapper's own bookkeeping
(the work count) runs before the span starts and is charged to no layer.

Private kernels are not wrapped; their time is in the public caller's span.
"""

from __future__ import annotations

import json
import math
import sys
import time
from collections import defaultdict

import numpy as np


# Work counts, computed from a call's arguments: {count metric: value}.

def _grid_corners(nu, *a, **k):
    pts = nu.points
    plain = aug = 1
    for j in range(pts.shape[1]):
        u = np.unique(pts[:, j])
        plain *= len(u)
        aug *= len(u) + (0 if u[-1] == 1.0 else 1)
    return {"linf_exact.grid_corners": plain + aug}


def _dem_cost(X, *a, **k):  # the formula of linf_exact.dem_cost_estimate
    return {"linf_exact.dem_cost": float(X.n) ** (X.d / 2.0 + 1.0)}


def _ta_moves(X, cfg, *a, **k):
    return {"linf_approx.ta_moves": cfg.iterations}


def _cover_corners(X, delta, *a, **k):
    return {"linf_approx.cover_corners": math.ceil(X.d / delta) ** X.d}


def _pair_terms(X, *a, **k):
    return {"l2.pair_terms": X.n * X.n * X.d}


def _tuple_ops(X, gamma, p, *a, **k):  # the formula of lp.lp_cost_estimate
    return {"lp.tuple_ops": X.d * sum(math.comb(p, l) * X.n ** l for l in range(p + 1))}


def _lp_shape(c, A, b, *a, **k):
    rows, cols = np.shape(A)
    return {"simplex.lp_rows": rows, "simplex.lp_cols": cols}


# (module, function) -> (self-time metric, work-count function or None).
# Metric names start with a letter, so _simplex is named simplex.
TRACED = {
    ("cli", "main"): ("cli.self_s", None),
    ("cli", "run_command"): ("cli.self_s", None),
    ("cli", "read_pointset"): ("cli.read_s", None),
    ("cli", "read_measure"): ("cli.read_s", None),
    ("cli", "read_marginals"): ("cli.read_s", None),
    ("generators", "halton"): ("generators.halton_s", None),
    ("linf_exact", "star_2d"): ("linf_exact.star_2d_s", None),
    ("linf_exact", "star_3d"): ("linf_exact.star_3d_s", None),
    ("linf_exact", "star_dem"): ("linf_exact.star_dem_s", _dem_cost),
    ("linf_exact", "star_grid_enum"): ("linf_exact.star_grid_enum_s", _grid_corners),
    ("linf_approx", "ta_improved"): ("linf_approx.ta_improved_s", _ta_moves),
    ("linf_approx", "ta_basic"): ("linf_approx.ta_basic_s", _ta_moves),
    ("linf_approx", "ga_lower_bound"): ("linf_approx.ga_lower_bound_s", None),
    ("linf_approx", "cover_bounds"): ("linf_approx.cover_bounds_s", _cover_corners),
    ("l2", "warnock_star_l2_sq"): ("l2.warnock_s", _pair_terms),
    ("l2", "warnock_star_l2_sq_stable"): ("l2.warnock_s", _pair_terms),
    ("l2", "extreme_l2_sq"): ("l2.extreme_s", _pair_terms),
    ("l2", "weighted_star_l2_sq"): ("l2.weighted_s", _pair_terms),
    ("l2", "star_l2_sq_fast"): ("l2.heinrich_s", None),
    ("l2", "heinrich_D"): ("l2.heinrich_s", None),
    ("lp", "weighted_star_lp_pow"): ("lp.lp_pow_s", _tuple_ops),
    ("applications", "forward_selection"): ("applications.forward_selection_s", None),
    ("applications", "backward_selection"): ("applications.backward_selection_s", None),
    ("applications", "optimal_inner_weights"): ("applications.optimal_inner_weights_s", None),
    ("applications", "two_measure_star_disc"): ("applications.two_measure_star_disc_s", None),
    ("applications", "optimize_halton_permutations"):
        ("applications.optimize_halton_permutations_s", None),
    ("applications", "quality_report"): ("applications.quality_report_s", None),
    ("_simplex", "solve_lp"): ("simplex.solve_lp_s", _lp_shape),
}

# call-count metric -> traced function
CALLS = {"generators.halton_calls": "generators.halton",
         "applications.optimal_inner_weights_calls": "applications.optimal_inner_weights",
         "applications.two_measure_star_disc_calls": "applications.two_measure_star_disc",
         "simplex.solve_lp_calls": "_simplex.solve_lp"}

# rate metric -> (count metric, the self-time metrics the work is done in)
RATES = {
    "linf_exact.grid_corners_per_s": ("linf_exact.grid_corners", ("linf_exact.star_grid_enum_s",)),
    "linf_exact.dem_cost_per_s": ("linf_exact.dem_cost", ("linf_exact.star_dem_s",)),
    "linf_approx.ta_moves_per_s": ("linf_approx.ta_moves",
                                   ("linf_approx.ta_improved_s", "linf_approx.ta_basic_s")),
    "linf_approx.cover_corners_per_s": ("linf_approx.cover_corners",
                                        ("linf_approx.cover_bounds_s",)),
    "l2.pair_terms_per_s": ("l2.pair_terms", ("l2.warnock_s", "l2.extreme_s", "l2.weighted_s")),
    "lp.tuple_ops_per_s": ("lp.tuple_ops", ("lp.lp_pow_s",)),
}


class Tracer:
    def __init__(self):
        self.spans: list = []   # [name, enter, start, end, parent, op, work]
        self.stack: list = []
        self.op = -1
        self._saved: list = []

    def _wrap(self, key, fn):
        count = TRACED[key][1]
        name = ".".join(key)

        def traced(*args, **kwargs):
            enter = time.perf_counter()
            work = count(*args, **kwargs) if count is not None else None
            span = [name, enter, 0.0, 0.0, self.stack[-1] if self.stack else -1, self.op, work]
            self.stack.append(len(self.spans))
            self.spans.append(span)
            span[2] = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                span[3] = time.perf_counter()
                self.stack.pop()

        traced.__wrapped__ = fn
        return traced

    def install(self) -> None:
        mods = [m for n, m in list(sys.modules.items())
                if m is not None and (n == "discrepkit" or n.startswith("discrepkit."))]
        for key in TRACED:
            fn = getattr(sys.modules["discrepkit." + key[0]], key[1])
            wrapper = self._wrap(key, fn)
            for mod in mods:
                for attr, val in list(vars(mod).items()):
                    if val is fn:
                        self._saved.append((mod, attr, fn))
                        setattr(mod, attr, wrapper)

    def uninstall(self) -> None:
        for mod, attr, fn in reversed(self._saved):
            setattr(mod, attr, fn)
        self._saved.clear()
        for key in TRACED:
            fn = getattr(sys.modules["discrepkit." + key[0]], key[1])
            if hasattr(fn, "__wrapped__"):
                raise RuntimeError(f"discrepkit.{'.'.join(key)} still wrapped")

    def dump(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"fields": ["name", "enter", "start", "end", "parent", "op", "work"],
                       "spans": self.spans}, fh)


def layer_totals(spans: list, lo: int = 0) -> dict:
    """Self times, work counts, call counts and rates of spans[lo:].

    A span's self time is its duration minus the time its child spans cover,
    each child counted from its wrapper entry.  A rate is its count over the
    self time the work is done in, 0 where that time is 0.
    """
    child: dict = defaultdict(float)
    for s in spans[lo:]:
        if s[4] >= 0:
            child[s[4]] += s[3] - s[1]
    calls = {name: metric for metric, name in CALLS.items()}
    out: dict = defaultdict(float)
    for i in range(lo, len(spans)):
        name, _, start, end, _, _, work = spans[i]
        out[TRACED[tuple(name.split(".", 1))][0]] += (end - start) - child[i]
        for metric, value in (work or {}).items():
            out[metric] += value
        if name in calls:
            out[calls[name]] += 1
    for rate, (count, times) in RATES.items():
        t = sum(out[m] for m in times)
        out[rate] = out[count] / t if t > 0 else 0.0
    return dict(out)
