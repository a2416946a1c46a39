"""Time two source trees against each other in one process.

    python tools/ab_inprocess.py PARENT CHANGE [--workload W] [--seed S] [--rounds N]

Each directory is a checkout with the package under ``src``.  The script
loads each tree's package under its own name (``ab_parent`` and
``ab_change``), so both run in one process on the same interpreter and
allocator.  On each side it builds the ops of one pass of a ``perfbench``
workload (default ``drift_nd``, seed 7), as ``perfbench/workloads.py`` and
``perfbench/worker.py`` of this checkout generate and run them, and the
fixed cases of ``cases``: the 1-d Merton drift of ``rep_exp_affine(0.5)``,
one 2-d power drift, the exponential-utility optimum of the 1-d Merton
model on the bracket (0, 8), the walks alone of those two drifts (one
``eval_batch`` of each tree on fixed points as many as a level-0 walk
holds, so that a drift's time splits into its walks and its glue), the
builds alone of two trees, the one-value slope tree of the utility
optimiser's Newton steps and ``rep_exp_affine(0.5)``, ``parse_model`` of a
fixed 1-d Gaussian + atoms document, one Monte Carlo block of 8 192
paths of ``rep_exp_affine(0.5)``'s stochastic exponential on the Merton
model at T = 1 and 1 worker, and the same estimate of two blocks, 16 384
paths, at 2 workers.  After
one warm-up pass per side, each of N rounds (default 15) times one whole
pass on each side, then CASE_REPS calls of each fixed case on each side;
the side that goes first alternates from round to round.

An op's output or a fixed case's result may differ between the two sides
only in its numbers, each by at most MAX_MOVE (1 + |x|), the move of x as
``tools/compare_outputs.py`` measures it; a Monte Carlo estimate may move
its mean by a z = |mean' - mean| / hypot(se, se') of at most MC_Z_BOUND,
and its error and kurtosis freely, every other field held equal, as that
script judges it.  The script exits 1, naming the
op, on any other difference on any pass.  Otherwise it prints JSON: for the
pass (in ms), for the pass's p90 op latency (in ms; the nearest-rank 90th
percentile of its ops' wall times, a failing op counting by its time), for
the ops of each label summed over a pass (in ms) and for each fixed case
(in microseconds per call), the best and the median time of each side, the
median over rounds of the pair ratio parent/change (above 1 when the change
is faster), and in how many rounds the change was faster; each side's
median minor page faults and voluntary context switches per pass, read
from ``resource.getrusage`` of this process (all its threads); and the moved
outputs: how many ops moved, the worst move and its op, and the largest z
of a moved estimate and its op.  It is a
development tool, not part of the package.
"""

from __future__ import annotations

import argparse
import dataclasses
import gc
import importlib
import importlib.util
import json
import math
import resource
import statistics
import sys
import tempfile
from pathlib import Path
from time import perf_counter
from types import SimpleNamespace

import numpy as np

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "perfbench"))
import worker  # noqa: E402  (the benchmark's op runner, imported read-only)
import workloads  # noqa: E402
from compare_outputs import MC_Z_BOUND, mc_z, move  # noqa: E402

SIDES = ("parent", "change")
MODULES = ("calculus", "cli", "drift", "mcoracle", "modelio", "models", "pricing", "repfn")
#: calls per timed sample of a fixed case
CASE_REPS = 500
#: largest move of a number, relative to 1 + |x|, an output may show
MAX_MOVE = 1e-15
#: a Merton (1976) jump diffusion: lognormal jumps, no atoms
MERTON = {
    "type": "levy", "dim": 1, "b": [0.05], "c": [[0.04]], "truncation": ["unit_clip"],
    "jumps": [{"kind": "gaussian_push", "lambda": 0.8, "mean": [-0.05], "cov": [[0.04]]}],
}
#: fixed jump points of the walk cases, one per node of a level-0 walk on d
#: axes: 7^d nodes, 2d probe points and 15^d nodes
WALK_POINTS = {d: np.expm1(np.random.default_rng(d).normal(-0.05, 0.2, (7**d + 2 * d + 15**d, d)))
               for d in (1, 2)}
#: a 1-d Gaussian body and two atoms, as most ``grid_1d`` models hold
MIXED_1D = {
    "type": "levy", "dim": 1, "b": [0.02], "c": [[0.09]], "truncation": ["unit_clip"],
    "jumps": [{"kind": "gaussian_push", "lambda": 0.5, "mean": [-0.1], "cov": [[0.0225]]},
              {"kind": "atoms", "atoms": [{"x": [0.2], "intensity": 0.3}, {"x": [-0.4], "intensity": 0.1}]}],
}
#: a 2-d Gaussian body like those of ``drift_nd``
BODY_2D = {
    "type": "levy", "dim": 2, "b": [0.03, 0.01], "c": [[0.04, 0.01], [0.01, 0.09]],
    "truncation": ["identity", "identity"],
    "jumps": [{"kind": "gaussian_push", "lambda": 0.6, "mean": [-0.08, 0.02],
               "cov": [[0.01, 0.004], [0.004, 0.0225]]}],
}


def load(tree: Path, name: str) -> SimpleNamespace:
    """The modules of the package under ``tree/src``, imported as ``name``."""
    src = tree / "src" / "driftcalc"
    spec = importlib.util.spec_from_file_location(name, src / "__init__.py",
                                                  submodule_search_locations=[str(src)])
    package = importlib.util.module_from_spec(spec)
    sys.modules[name] = package
    spec.loader.exec_module(package)
    return SimpleNamespace(**{m: importlib.import_module(f"{name}.{m}") for m in MODULES})


def cases(M) -> dict:
    """Label -> zero-argument call of each fixed case, returning its drift
    total, for the optimum the array of (lam*, u(lam*)), for a walk the
    tree's values, for a build the tree, for a parse the model and for a
    Monte Carlo block the estimate."""
    merton, body = M.modelio.parse_model(MERTON), M.modelio.parse_model(BODY_2D)
    exp_affine = M.calculus.rep_exp_affine(0.5)
    power = M.repfn.from_prefix(worker.power_tree([0.7, -1.2]))
    return {
        "merton_1d_us": lambda: M.drift.drift(exp_affine, merton).total,
        "power_2d_us": lambda: M.drift.drift(power, body).total,
        "utility_opt_us": lambda: np.array(M.pricing.optimize_exp_utility(merton, (0.0, 8.0))),
        "walk_1d_us": lambda: exp_affine.eval_batch(WALK_POINTS[1]),
        "walk_2d_us": lambda: power.eval_batch(WALK_POINTS[2]),
        "slope_build_us": lambda: M.calculus._rep_exp_utility_slope(1.3),
        "exp_affine_build_us": lambda: M.calculus.rep_exp_affine(0.5),
        "parse_model_us": lambda: M.modelio.parse_model(MIXED_1D),
        "mc_block_us": lambda: M.mcoracle.mc_stoch_exp(exp_affine, merton, 1.0, M.mcoracle.SimConfig(8192, 7)),
        "mc_2w_us": lambda: M.mcoracle.mc_stoch_exp(exp_affine, merton, 1.0,
                                                     M.mcoracle.SimConfig(16384, 7, workers=2)),
    }


def digest(M, out) -> str:
    """A fixed case's result as text: a tree's jet, a model's document with
    each Gaussian body's covariance factor, an estimate's fields or an
    array's numbers."""
    if isinstance(out, M.repfn.RepFn):
        jet = out.jet_at_zero()
        return repr([jet.value.tolist(), jet.jacobian.tolist(), jet.hessian.tolist()])
    if isinstance(out, M.models.LevyTriplet):
        parts = getattr(out.jumps, "parts", (out.jumps,))
        factors = [p._factor.tolist() for p in parts if isinstance(p, M.models.GaussianPush)]
        return json.dumps([M.modelio.serialize_model(out), factors], sort_keys=True)
    if isinstance(out, M.mcoracle.McEstimate):
        return json.dumps({k: repr(v) for k, v in dataclasses.asdict(out).items()})
    return repr(out.tolist())


def run_pass(calls) -> tuple:
    """(seconds, seconds of each op, outputs, (minor page faults, voluntary
    context switches)) of one whole pass."""
    outputs, times = [], []
    before = resource.getrusage(resource.RUSAGE_SELF)
    start = perf_counter()
    for call in calls:
        t0 = perf_counter()
        outputs.append(worker.run_op(call))
        times.append(perf_counter() - t0)
    seconds, after = perf_counter() - start, resource.getrusage(resource.RUSAGE_SELF)
    return seconds, times, outputs, (after.ru_minflt - before.ru_minflt, after.ru_nvcsw - before.ru_nvcsw)


def p90(times) -> float:
    """The nearest-rank 90th percentile, as ``perfbench/run.py`` ranks latencies."""
    return sorted(times)[max(math.ceil(0.9 * len(times)) - 1, 0)]


class Moves:
    """The worst move and the largest estimate z of the outputs seen so far,
    and the ops that moved."""

    def __init__(self):
        self.worst, self.where, self.ops = 0.0, None, set()
        self.z, self.z_where = 0.0, None

    def check(self, what, a: str, b: str) -> bool:
        """Record the move from text a to text b; False, naming ``what`` on
        stderr, if they differ other than in numbers, or by more than
        MAX_MOVE, or for an estimate by a z above MC_Z_BOUND or in a field
        that does not move with its draws."""
        if a == b:
            return True
        m, z = move(a, b), mc_z(a, b)
        if m is None or (m > MAX_MOVE if z is None else not z <= MC_Z_BOUND):
            print(f"DIFFERS: {what}: {a} -> {b}", file=sys.stderr)
            return False
        self.ops.add(what)
        if z is not None and z >= self.z:
            self.z, self.z_where = z, what
        elif z is None and m >= self.worst:
            self.worst, self.where = m, what
        return True


def time_case(call) -> tuple:
    """(seconds per call over CASE_REPS calls, the last result)."""
    t0 = perf_counter()
    for _ in range(CASE_REPS):
        out = call()
    return (perf_counter() - t0) / CASE_REPS, out


def summary(times: dict, scale: float) -> dict:
    """Each side's best and median time (seconds times ``scale``), the median
    pair ratio parent/change and the rounds the change won, from the
    per-round seconds of each side in ``times``."""
    ratios = [p / c for p, c in zip(times["parent"], times["change"])]
    out = {f"{side}_{stat}": round(fn(times[side]) * scale, 3)
           for side in SIDES for stat, fn in (("best", min), ("median", statistics.median))}
    out["ratio_median"] = round(statistics.median(ratios), 4)
    out["change_wins"] = f"{sum(r > 1.0 for r in ratios)}/{len(ratios)}"
    return out


def main(argv) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent", type=Path)
    parser.add_argument("change", type=Path)
    parser.add_argument("--workload", default="drift_nd", choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--rounds", type=int, default=15)
    args = parser.parse_args(argv)
    if args.rounds < 1:
        parser.error("--rounds must be at least 1")
    plan = workloads.generate(args.workload, args.seed)
    plan["mc_workers"] = workloads.MC_WORKERS
    with tempfile.TemporaryDirectory() as tmp:
        plan["model_paths"] = {}
        for m, doc in plan["models"].items():
            path = Path(tmp) / f"{m}.json"
            path.write_text(json.dumps(doc), encoding="utf-8")
            plan["model_paths"][m] = str(path)
        side = {}
        for name, tree in zip(SIDES, (args.parent, args.change)):
            M = load(tree.resolve(), f"ab_{name}")
            side[name] = ([worker.make_call(M, plan, spec) for spec in plan["ops"]], cases(M), M)
        labels = sorted({op["label"] for op in plan["ops"]})
        passes, p90s, usage = ({name: [] for name in SIDES} for _ in range(3))
        by_label = {label: {name: [] for name in SIDES} for label in labels}
        fixed = {label: {name: [] for name in SIDES} for label in side["parent"][1]}
        moves = Moves()
        for r in range(args.rounds + 1):  # round 0 is the warm-up
            order = SIDES if r % 2 else SIDES[::-1]
            outputs, totals = {}, {}
            for name in order:
                gc.collect()
                dt, times, outputs[name], used = run_pass(side[name][0])
                if r:
                    passes[name].append(dt)
                    usage[name].append(used)
                    p90s[name].append(p90(times))
                    for label in labels:
                        by_label[label][name].append(
                            sum(t for t, op in zip(times, plan["ops"]) if op["label"] == label))
            for label in fixed:
                for name in order:
                    gc.collect()
                    dt, totals[name] = time_case(side[name][1][label])
                    if r:
                        fixed[label][name].append(dt)
                if not moves.check(f"{label} case", *[digest(side[name][2], totals[name]) for name in SIDES]):
                    return 1
            for i, (a, b) in enumerate(zip(outputs["parent"], outputs["change"])):
                if not moves.check(f"op {i} ({plan['ops'][i]['label']})", json.dumps(a, sort_keys=True),
                                   json.dumps(b, sort_keys=True)):
                    return 1
    result = {"workload": args.workload, "seed": args.seed, "rounds": args.rounds,
              "ops_per_pass": len(plan["ops"]), "pass_ms": summary(passes, 1e3),
              "op_p90_ms": summary(p90s, 1e3),
              "pass_usage": {f"{name}_median_{what}": statistics.median(u[i] for u in usage[name])
                             for name in SIDES for i, what in enumerate(("minflt", "nvcsw"))},
              "label_ms": {label: summary(times, 1e3) for label, times in by_label.items()},
              "moved": {"ops": len(moves.ops), "worst": moves.worst, "worst_op": moves.where,
                        "bound": MAX_MOVE, "worst_z": moves.z, "worst_z_op": moves.z_where,
                        "z_bound": MC_Z_BOUND}}
    result.update({label: summary(times, 1e6) for label, times in fixed.items()})
    print(json.dumps(result, indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
