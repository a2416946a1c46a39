"""Compare the outputs of the benchmark's ops between two source trees.

    python tools/compare_outputs.py PARENT_DIR CHANGE_DIR

Each directory is a checkout with the package under ``src``.  For seeds 1,
7 and 11 the script runs, in one subprocess per tree, every ``grid_1d`` op
through ``cli.main``, every ``drift_nd`` drift (its full report), every
``price_margrabe`` price and every ``mc_verify`` estimate (all its fields)
at 1 and at 2 workers, as ``perfbench/workloads.py`` of this checkout
generates them.  It prints how many ops are identical and how many moved,
with the worst move of a number x to x', |x' - x| / (1 + |x|), by op label;
a ``grid_1d`` label names the jump kinds of its model, an ``mc_verify``
label its worker count.  It exits 1 if any exit code or stderr differs, if
an output differs other than in its numbers, or if a tree's estimate at 2
workers differs from its estimate at 1.  It is a development tool, not part
of the package.
"""

from __future__ import annotations

import dataclasses
import functools
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
    """(key, label, call) of each run of the i-th op of a plan."""
    key, label = f"{name}/{seed}/{i}", f"{name} {op['label']}"
    if name == "mc_verify":
        return [(f"{key}/{w}w", f"{label} {w}w", _mc_call(M, plan, op, w)) for w in MC_WORKERS]
    if op["kind"] == "cli":
        label += f" ({_model_kind(plan['models'][op['check']['model']])})"
    call = _drift_call(M, plan, op) if op["kind"] == "drift" else worker.make_call(M, plan, op)
    return [(key, label, call)]


def run_tree():
    """Every op's label, exit code, stdout and stderr on the tree on sys.path;
    an op that is not a CLI call prints its result as JSON, or exits 1 with
    its exception as stderr."""
    import driftcalc
    from driftcalc import calculus, cli, drift, mcoracle, modelio, pricing, repfn

    M = SimpleNamespace(calculus=calculus, cli=cli, drift=drift, mcoracle=mcoracle,
                        modelio=modelio, pricing=pricing, repfn=repfn)
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
                for i, op in enumerate(plan["ops"]):
                    for key, label, call in _runs(M, name, seed, i, plan, op):
                        res = worker.run_op(call)
                        if op["kind"] == "cli":
                            rc, out, err = res["rc"], res["out"], res["err"]
                        elif "raise" in res:
                            rc, out, err = 1, "", f"{res['raise']}: {res['msg']}"
                        else:
                            rc, out, err = 0, json.dumps(res), ""
                        records.append({"key": key, "label": label, "rc": rc,
                                        "out": out.replace(tmp, "<dir>"), "err": err.replace(tmp, "<dir>")})
    return {"package": driftcalc.__file__, "records": records}


def collect(tree: Path) -> list:
    env = dict(os.environ, PYTHONPATH=str(tree / "src"))
    proc = subprocess.run([sys.executable, __file__, "--run"], env=env, capture_output=True,
                          text=True, check=True)
    result = json.loads(proc.stdout)
    if not Path(result["package"]).is_relative_to(tree / "src"):
        raise SystemExit(f"{tree}: imported the package from {result['package']}")
    return result["records"]


def move(a: str, b: str) -> float:
    """The worst relative move between the numbers of two texts that differ
    only in their numbers; None if the texts differ otherwise."""
    if NUMBER.sub("#", a) != NUMBER.sub("#", b):
        return None
    worst = 0.0
    for x, y in zip(NUMBER.findall(a), NUMBER.findall(b)):
        x, y = float(x), float(y)
        if x == y or (math.isnan(x) and math.isnan(y)):
            continue
        worst = max(worst, abs(y - x) / (1.0 + abs(x)) if math.isfinite(x - y) else math.inf)
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
        m = move(a["out"], b["out"])
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
