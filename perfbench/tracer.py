"""Per-layer spans and counts, recorded from outside the package.

The tracer wraps the public entry points of each driftcalc module inside the
benchmark's worker process.  A function is replaced under every module
namespace that binds it (``pricing``, ``mcoracle`` and ``cli`` import
``drift`` by name), so calls between modules are seen too.  Spans
(name, start, end, parent, op id) and counts stay in memory until the run
ends.  A layer's self time is the duration of its spans minus the time
their child spans cover; spans opened on Monte Carlo pool threads have no
parent, because they overlap the span of the op that started them.
"""

from __future__ import annotations

import functools
import json
import sys
import threading
from collections import Counter
from time import perf_counter

import numpy as np

CALCULUS_REPS = (
    "rep_identity", "rep_coord", "rep_zero", "rep_ratio", "rep_log_return", "rep_exp_affine",
    "rep_power", "rep_exp_utility", "rep_memm_integrand", "rep_margrabe", "girsanov_adjust",
)
# (module, function); the span is named "<module>.<function>"
FUNCTIONS = (
    *(("calculus", name) for name in CALCULUS_REPS),
    ("models", "integrate"),
    ("models", "jump_drift_correction"),
    ("drift", "drift"),
    ("drift", "drift_q"),
    ("pricing", "cumulant"),
    ("pricing", "memm_cumulant"),
    ("pricing", "optimize_exp_utility"),
    ("pricing", "utility_drift"),
    ("pricing", "minimize_scalar"),
    ("pricing", "margrabe_price"),
    ("pricing", "margrabe_kappa"),
    ("mcoracle", "mc_stoch_exp"),
    ("mcoracle", "mc_sum"),
    ("mcoracle", "mc_margrabe"),
    ("mcoracle", "mc_reweighted"),
    ("modelio", "load_model"),
    ("cli", "main"),
)
# (class, method, span name) in driftcalc.repfn
METHODS = (
    ("RepFn", "__post_init__", "repfn.build"),
    ("RepFn", "eval_batch", "repfn.eval"),
    ("RepFn", "jet_at_zero", "repfn.jet"),
)


def _package_modules():
    return [m for name, m in sys.modules.items() if name == "driftcalc" or name.startswith("driftcalc.")]


class Tracer:
    def __init__(self):
        self.spans = []
        self.counts = Counter()
        self.op_id = -1
        self._lock = threading.Lock()
        self._local = threading.local()
        self._patches = []

    # -- recording --------------------------------------------------------

    def add(self, key, n=1):
        with self._lock:
            self.counts[key] += n

    def _wrap(self, name, fn, before=None, after=None):
        spans, local, lock = self.spans, self._local, self._lock

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if before is not None:
                args, kwargs = before(args, kwargs)
            stack = local.__dict__.setdefault("stack", [])
            with lock:
                idx = len(spans)
                spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                stack.pop()
                spans[idx] = (name, t0, t1, parent, self.op_id)
            if after is not None:
                after(args, kwargs, result)
            return result

        return wrapper

    # -- count hooks ------------------------------------------------------

    def _hooks(self, models):
        def eval_points(args, kwargs):
            self.add("repfn.eval_points", len(args[1]))
            return args, kwargs

        def quadrature(args, kwargs):
            measure, g = args[0], args[1]
            if isinstance(measure, models.FiniteAtoms):
                return args, kwargs

            def counted(X):
                if len(X):
                    self.add("models.quad_levels")
                    self.add("models.quad_nodes", len(X))
                return g(X)

            self.add("models.quad_integrals")
            return (measure, counted, *args[2:]), kwargs

        def kappa_points(args, kwargs):
            self.add("pricing.kappa_points", int(np.size(args[0])))
            return args, kwargs

        def optimizer(args, kwargs):
            fn = args[0]

            def counted(x):
                self.add("pricing.optimizer_evals")
                return fn(x)

            return (counted, *args[1:]), kwargs

        def price(args, kwargs, result):
            diags = result[1]
            self.add("pricing.contour_nodes", diags.nodes)
            with self._lock:
                self.counts["pricing.u_max_used"] = max(self.counts["pricing.u_max_used"], diags.u_max_used)

        def paths(args, kwargs, est):
            cfg = kwargs.get("cfg", args[-1])
            self.add("mcoracle.paths", cfg.n_paths)
            self.add("mcoracle.effective_paths", est.n_effective)
            self.add("mcoracle.nonfinite_paths", est.n_nonfinite)

        return {
            "repfn.eval": (eval_points, None),
            "models.integrate": (quadrature, None),
            "pricing.margrabe_kappa": (kappa_points, None),
            "pricing.minimize_scalar": (optimizer, None),
            "pricing.margrabe_price": (None, price),
            **{f"mcoracle.{n}": (None, paths) for n in ("mc_stoch_exp", "mc_sum", "mc_margrabe", "mc_reweighted")},
        }

    # -- installation -----------------------------------------------------

    def install(self):
        import driftcalc.models
        import driftcalc.repfn

        hooks = self._hooks(driftcalc.models)
        modules = _package_modules()
        for cls_name, method, name in METHODS:
            cls = getattr(driftcalc.repfn, cls_name)
            original = cls.__dict__[method]
            self._patches.append((cls, method, original))
            setattr(cls, method, self._wrap(name, original, *hooks.get(name, (None, None))))
        for mod_name, attr in FUNCTIONS:
            name = f"{mod_name}.{attr}"
            original = getattr(sys.modules[f"driftcalc.{mod_name}"], attr)
            wrapper = self._wrap(name, original, *hooks.get(name, (None, None)))
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._patches.append((mod, key, original))
                        setattr(mod, key, wrapper)

    def uninstall(self):
        for owner, key, original in reversed(self._patches):
            setattr(owner, key, original)
        self._patches.clear()

    # -- reporting --------------------------------------------------------

    def write(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"fields": ["name", "start", "end", "parent", "op"], "spans": self.spans}, fh)

    def summary(self, passes: int) -> dict:
        """Per-layer metrics for one pass of the workload."""
        child = np.zeros(len(self.spans))
        for name, t0, t1, parent, _op in self.spans:
            if parent >= 0:
                child[parent] += t1 - t0
        count, incl, self_s = Counter(), Counter(), Counter()
        for i, (name, t0, t1, _parent, _op) in enumerate(self.spans):
            count[name] += 1
            incl[name] += t1 - t0
            self_s[name.split(".")[0]] += t1 - t0 - child[i]
        c = self.counts

        def per(x):
            return x / passes

        def ms(x):
            return 1e3 * x / passes

        mc_s = sum(v for k, v in incl.items() if k.startswith("mcoracle."))
        return {
            "repfn.trees_built": per(count["repfn.build"]),
            "repfn.build_ms": ms(incl["repfn.build"]),
            "repfn.jets": per(count["repfn.jet"]),
            "repfn.jet_ms": ms(incl["repfn.jet"]),
            "repfn.eval_calls": per(count["repfn.eval"]),
            "repfn.eval_points": per(c["repfn.eval_points"]),
            "repfn.eval_ms": ms(incl["repfn.eval"]),
            "repfn.eval_ns_per_point": 1e9 * incl["repfn.eval"] / max(c["repfn.eval_points"], 1),
            "calculus.rep_calls": per(sum(v for k, v in count.items() if k.startswith("calculus."))),
            "calculus.self_ms": ms(self_s["calculus"]),
            "models.integrals": per(count["models.integrate"]),
            "models.quad_levels": per(c["models.quad_levels"]),
            "models.quad_nodes": per(c["models.quad_nodes"]),
            "models.nodes_per_integral": c["models.quad_nodes"] / max(c["models.quad_integrals"], 1),
            "models.self_ms": ms(self_s["models"]),
            "drift.calls": per(count["drift.drift"]),
            "drift.self_ms": ms(self_s["drift"]),
            "pricing.prices": per(count["pricing.margrabe_price"]),
            "pricing.contour_nodes": per(c["pricing.contour_nodes"]),
            "pricing.nodes_per_price": c["pricing.contour_nodes"] / max(count["pricing.margrabe_price"], 1),
            "pricing.u_max_used": c["pricing.u_max_used"],
            "pricing.kappa_points": per(c["pricing.kappa_points"]),
            "pricing.kappa_ms": ms(incl["pricing.margrabe_kappa"]),
            "pricing.self_ms": ms(self_s["pricing"]),
            "pricing.optimizer_evals": per(c["pricing.optimizer_evals"]),
            "pricing.optimizer_ms": ms(incl["pricing.minimize_scalar"]),
            "mcoracle.paths": per(c["mcoracle.paths"]),
            "mcoracle.paths_per_s": c["mcoracle.paths"] / mc_s if mc_s else 0.0,
            "mcoracle.nonfinite_paths": per(c["mcoracle.nonfinite_paths"]),
            "mcoracle.useful_frac": c["mcoracle.effective_paths"] / c["mcoracle.paths"] if c["mcoracle.paths"] else 0.0,
            "mcoracle.self_ms": ms(self_s["mcoracle"]),
            "modelio.load_ms": ms(incl["modelio.load_model"]),
            "cli.self_ms": ms(self_s["cli"]),
        }
