"""Compare the outputs of the benchmark's ops between two source trees.

    python tools/compare_outputs.py PARENT_DIR CHANGE_DIR

Each directory is a checkout with the package under ``src``.  For seeds 1,
7 and 11 the script runs, in one subprocess per tree, every ``grid_1d`` op
through ``cli.main``, every ``drift_nd`` drift (its full report), every
``price_margrabe`` price, every ``mc_verify`` estimate (all its fields)
at 1 and at 2 workers, and the price of every ``mc_verify`` exchange model,
as ``perfbench/workloads.py`` of this checkout generates them.  It also
runs, through ``cli.main``, the grids of GRIDS, whose rows fail in part, as
no ``grid_1d`` op's do.  It prints how many ops are identical and how many
moved, with the worst move of a number x to x' by op label: |x' - x| / spot1
for a price, else |x' - x| / (1 + |x|); a ``grid_1d`` label names the jump
kinds of its model, an ``mc_verify`` label its worker count.  It exits 1 if
any exit code or stderr differs, if an output differs other than in its
numbers, if a grid row's error status differs at all, or if a tree's
estimate at 2 workers differs from its estimate at 1.  It is a development
tool, not part of the package.
"""

from __future__ import annotations

import dataclasses
import functools
import importlib
import json
import math
import os
import re
import subprocess
import sys
import tempfile
from collections import defaultdict
from pathlib import Path
from types import SimpleNamespace

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "perfbench"))
import worker  # noqa: E402  (the benchmark's op runner, imported read-only)
import workloads  # noqa: E402

SEEDS = (1, 7, 11)
MC_WORKERS = (1, 2)
NUMBER = re.compile(r"[-+]?(?:(?:\d+\.?\d*|\.\d+)(?:[eE][-+]?\d+)?|nan|inf)")

#: the one-dimensional marginal of the levy example in docs/model-schema.md
DOCS_MARGINAL = {
    "type": "levy", "dim": 1, "b": [0.05], "c": [[0.04]], "truncation": ["unit_clip"],
    "jumps": [{"kind": "atoms", "atoms": [{"x": [0.1], "intensity": 0.25}]},
              {"kind": "gaussian_push", "lambda": 0.4, "mean": [-0.1], "cov": [[0.0625]]}],
}
MERTON = {
    "type": "levy", "dim": 1, "b": [0.05], "c": [[0.04]], "truncation": ["unit_clip"],
    "jumps": [{"kind": "gaussian_push", "lambda": 0.8, "mean": [-0.05], "cov": [[0.04]]},
              {"kind": "atoms", "atoms": [{"x": [0.25], "intensity": 0.1}]}],
}
#: (label, model, command and flags, v-grid): the four 128-point docs-marginal
#: grids, three of them with failing rows, and a 300-point Merton grid whose
#: last point alone, v = 2.99, is not integrable (e^{vx} is up to v = 2.9837)
GRIDS = [
    ("memm [-4,3]", DOCS_MARGINAL, ["memm", "--lambda-star", "0.7"], {"start": -4, "stop": 3, "count": 128}),
    ("memm [-4,30]", DOCS_MARGINAL, ["memm", "--lambda-star", "0.7"], {"start": -4, "stop": 30, "count": 128}),
    ("cumulant [-4,30]", DOCS_MARGINAL, ["cumulant"], {"start": -4, "stop": 30, "count": 128}),
    ("cumulant [-4,3]", DOCS_MARGINAL, ["cumulant"], {"start": -4, "stop": 3, "count": 128}),
    ("merton cumulant [0,2.99]", MERTON, ["cumulant"], {"start": 0, "stop": 2.99, "count": 300}),
]


def _model_kind(doc) -> str:
    """``discrete``, or the jump kinds of a levy model, such as ``atoms+gaussian_push``."""
    if doc["type"] == "levy":
        return "+".join(sorted({part["kind"] for part in doc["jumps"]}))
    return doc["type"]


def _drift_call(M, plan, op):
    model = M.modelio.parse_model(plan["models"][op["model"]])
    rep = op["rep"]
    xi = M.calculus.rep_ratio() if rep == "ratio" else M.repfn.from_prefix(worker.power_tree(rep))
    parts = ("total", "linear_part", "quadratic_part", "jump_part")

    def call():
        report = M.drift.drift(xi, model)
        return {p: [repr(complex(z)) for z in getattr(report, p)] for p in parts}

    return call


def _mc_call(M, plan, op, workers):
    """An ``mc_verify`` op at a worker count; its output is every field of
    the estimate as its exact repr, the kurtosis too, which the benchmark's
    own output leaves out."""
    mc = M.mcoracle
    model = M.modelio.parse_model(plan["models"][op["model"]])
    cfg = mc.SimConfig(n_paths=op["n_paths"], seed=op["seed"], workers=workers)
    if op["kind"] == "mc_margrabe":
        estimate = functools.partial(mc.mc_margrabe, model, cfg)
    elif op["kind"] == "mc_stoch_exp":
        estimate = functools.partial(mc.mc_stoch_exp, M.calculus.rep_exp_affine(op["v"]), model, op["T"], cfg)
    else:
        xi, eta = M.calculus.rep_exp_affine(op["v"]), M.calculus.rep_exp_utility(op["lambda"])
        estimate = functools.partial(mc.mc_reweighted, xi, eta, model, op["T"], cfg)
    return lambda: {k: repr(v) for k, v in dataclasses.asdict(estimate()).items()}


def _runs(M, name, seed, i, plan, op):
    """(key, label, call, spot1 of a price or None) of each run of the i-th
    op of a plan."""
    key, label = f"{name}/{seed}/{i}", f"{name} {op['label']}"
    if name == "mc_verify":
        return [(f"{key}/{w}w", f"{label} {w}w", _mc_call(M, plan, op, w), None) for w in MC_WORKERS]
    if op["kind"] == "cli":
        label += f" ({_model_kind(plan['models'][op['check']['model']])})"
    call = _drift_call(M, plan, op) if op["kind"] == "drift" else worker.make_call(M, plan, op)
    return [(key, label, call, plan["models"][op["model"]]["spot1"] if op["kind"] == "price" else None)]


def _price_runs(M, seed, plan):
    """The price run of each exchange model of an ``mc_verify`` plan."""
    return [(f"mc_verify/{seed}/{m}/price", "mc_verify price",
             worker.make_call(M, plan, {"kind": "price", "model": m}), doc["spot1"])
            for m, doc in plan["models"].items() if doc["type"] == "margrabe"]


def run_tree():
    """Every op's label, exit code, stdout and stderr on the tree on sys.path;
    an op that is not a CLI call prints its result as JSON, or exits 1 with
    its exception as stderr."""
    import driftcalc

    # the modules themselves: the package's ``drift`` attribute is the function
    M = SimpleNamespace(**{name: importlib.import_module(f"driftcalc.{name}") for name in
                           ("calculus", "cli", "drift", "mcoracle", "modelio", "pricing", "repfn")})
    records = []
    with tempfile.TemporaryDirectory() as tmp:
        for name in ("grid_1d", "drift_nd", "price_margrabe", "mc_verify"):
            for seed in SEEDS:
                plan = workloads.generate(name, seed)
                plan["model_paths"] = {}
                for m, doc in plan["models"].items():
                    path = Path(tmp) / f"{name}-{seed}-{m}.json"
                    path.write_text(json.dumps(doc), encoding="utf-8")
                    plan["model_paths"][m] = str(path)
                runs = [run for i, op in enumerate(plan["ops"]) for run in _runs(M, name, seed, i, plan, op)]
                if name == "mc_verify":
                    runs += _price_runs(M, seed, plan)
                for key, label, call, spot1 in runs:
                    res = worker.run_op(call)
                    if "rc" in res:
                        rc, out, err = res["rc"], res["out"], res["err"]
                    elif "raise" in res:
                        rc, out, err = 1, "", f"{res['raise']}: {res['msg']}"
                    else:
                        rc, out, err = 0, json.dumps(res), ""
                    records.append({"key": key, "label": label, "rc": rc, "spot1": spot1,
                                    "out": out.replace(tmp, "<dir>"), "err": err.replace(tmp, "<dir>")})
        for i, (label, doc, command, axis) in enumerate(GRIDS):
            path = Path(tmp) / f"grid-{i}.json"
            path.write_text(json.dumps(doc), encoding="utf-8")
            argv = [command[0], "--model", str(path), "--v-grid", json.dumps({"re": axis}), *command[1:]]
            res = worker.run_op(worker.make_call(M, {}, {"kind": "cli", "argv": argv}))
            records.append({"key": f"grids/{i}", "label": f"grids {label}", "rc": res["rc"], "spot1": None,
                            "out": res["out"], "err": res["err"].replace(tmp, "<dir>")})
    return {"package": driftcalc.__file__, "records": records}


def collect(tree: Path) -> list:
    env = dict(os.environ, PYTHONPATH=str(tree / "src"))
    proc = subprocess.run([sys.executable, __file__, "--run"], env=env, capture_output=True,
                          text=True, check=True)
    result = json.loads(proc.stdout)
    if not Path(result["package"]).is_relative_to(tree / "src"):
        raise SystemExit(f"{tree}: imported the package from {result['package']}")
    return result["records"]


def _error_rows(text: str) -> list:
    """The rows of a grid's CSV output whose status is an error."""
    return [line for line in text.splitlines() if ",error: " in line]


def move(a: str, b: str, spot1=None) -> float:
    """The worst move between the numbers of two texts that differ only in
    their numbers, outside any grid row's error status, relative to 1 + |x|
    or in units of ``spot1`` if given; None if the texts differ otherwise."""
    if NUMBER.sub("#", a) != NUMBER.sub("#", b) or _error_rows(a) != _error_rows(b):
        return None
    worst = 0.0
    for x, y in zip(NUMBER.findall(a), NUMBER.findall(b)):
        x, y = float(x), float(y)
        if x == y or (math.isnan(x) and math.isnan(y)):
            continue
        scale = spot1 or 1.0 + abs(x)
        worst = max(worst, abs(y - x) / scale if math.isfinite(x - y) else math.inf)
    return worst


def main(argv) -> int:
    if argv == ["--run"]:
        json.dump(run_tree(), sys.stdout)
        return 0
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    old, new = (collect(Path(a).resolve()) for a in argv)
    if [r["key"] for r in old] != [r["key"] for r in new]:
        print("the two trees ran different ops", file=sys.stderr)
        return 1
    rows = defaultdict(lambda: [0, 0, 0.0, None])  # identical, moved, worst, worst op
    failures = []
    for a, b in zip(old, new):
        row = rows[a["label"]]
        if (a["rc"], a["err"]) != (b["rc"], b["err"]):
            failures.append(f"{a['key']} ({a['label']}): exit {a['rc']} -> {b['rc']}, "
                            f"stderr {a['err']!r} -> {b['err']!r}")
        if a["out"] == b["out"]:
            row[0] += 1
            continue
        row[1] += 1
        m = move(a["out"], b["out"], a["spot1"])
        if m is None:
            failures.append(f"{a['key']} ({a['label']}): output text differs")
        elif m >= row[2]:
            row[2], row[3] = m, a["key"]
    print(f"{'label':<42} {'identical':>9} {'moved':>6}  worst move (op)")
    for label in sorted(rows):
        same, moved, worst, key = rows[label]
        where = f"{worst:.3g} ({key})" if moved else "-"
        print(f"{label:<42} {same:>9} {moved:>6}  {where}")
    for tree, records in zip(argv, (old, new)):
        runs = {r["key"]: (r["rc"], r["out"], r["err"]) for r in records}
        failures += [f"{tree}: {key} differs from its run at 1 worker" for key, run in runs.items()
                     if key.endswith("/2w") and run != runs[key[:-2] + "1w"]]
    for line in failures:
        print("DIFFERS:", line)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
