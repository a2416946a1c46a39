"""Compare the outputs of the benchmark's ops between two source trees.

    python tools/compare_outputs.py PARENT_DIR CHANGE_DIR

Each directory is a checkout with the package under ``src``.  For seeds 1,
7 and 11 the script runs, in one subprocess per tree, every ``grid_1d`` op
through ``cli.main``, every ``drift_nd`` drift (its full report), every
``price_margrabe`` price, every ``mc_verify`` estimate (all its fields)
at 1 and at 2 workers, and the price of every ``mc_verify`` exchange model,
as ``perfbench/workloads.py`` of this checkout generates them.  It also
runs, through ``cli.main``, the grids of GRIDS, whose rows fail in part, as
no ``grid_1d`` op's do, and the utility optimum on the (0, 800) bracket;
the discrete optimum of a trinomial law; the Gaussian-body node sets of
NODE_SETS; the failing drifts of VERDICTS, each as its error's class and
message and every entry of its ``faults``; the ``mc-verify`` calls of
MC_VERIFY_TARGETS, through ``cli.main`` at 1 and at 2 workers, on MERTON
and on the trinomial law; and every field of ``mc_stoch_exp`` and
``mc_reweighted``, at 1 and at 2 workers, on the trinomial law and each
``grid_1d`` discrete model at
T = 3 and 250, on ATOMS and on DOCS_MARGINAL at DOCS_SPARSE_T and
DOCS_LONG_T, whose blocks span several row chunks, below and above
``mcoracle.DENSE`` jumps a path, and on the pushforward of WIDE through
e^{0.7x} - 1, whose jump law is a mapped Gaussian body.  It prints how
many ops are identical and how many moved, with the worst move of a number
x to x' by op label: |x' - x| / spot1 for a price, else |x' - x| / (1 + |x|).
A moved Monte Carlo estimate, an estimate's fields or an ``mc-verify``
report, is judged instead by z = |mean' - mean| / hypot(se, se'), its two
means' distance in standard errors, its other fields than mean, error,
kurtosis and z score held equal, and the label shows its largest z; a
``grid_1d`` label names the jump kinds of its model, an ``mc_verify``
label its worker count.  Then it prints, by label, the ``drift.drift``
calls of each tree per op, counted through every module of the package
that binds the function, and the ``RepFn`` builds of each tree per op,
counted through ``RepFn.__post_init__`` as ``perfbench/tracer.py`` counts
them.  It exits 1 if any exit code or stderr differs, if an output
differs other than in its numbers, if a node set or a failing drift's
verdict differs at all, if a grid row's error status differs at all, or
if a tree's estimate at 2 workers differs from its estimate at 1, or if a
Monte Carlo estimate moved by a z above the benchmark's MC_Z_BOUND or in
another field than those.  It is
a development tool, not part of the package.
"""

from __future__ import annotations

import dataclasses
import functools
import hashlib
import importlib
import itertools
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
from check import MC_Z_BOUND  # noqa: E402
from reference import parse_complex  # noqa: E402

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
#: a Gaussian body whose utility drift grows like e^{c lam}: Newton steps
#: from the middle of (0, 800) are about 2 long
WIDE = {
    "type": "levy", "dim": 1, "b": [0.05], "c": [[0.04]], "truncation": ["identity"],
    "jumps": [{"kind": "gaussian_push", "lambda": 0.4, "mean": [-0.1], "cov": [[0.04]]}],
}
TRINOMIAL = {"type": "discrete", "support": [{"x": [math.log(1.1)], "p": 0.4}, {"x": [0.0], "p": 0.4},
                                             {"x": [math.log(0.9)], "p": 0.2}]}
#: an atom law of about 100 jumps per path at T = 2: a block of 8192 paths
#: draws about 800 000 jumps, some 25 chunks of 2^15 rows
ATOMS = {"type": "levy", "dim": 1, "b": [0.01], "c": [[0.01]], "truncation": ["identity"],
         "jumps": [{"kind": "atoms", "atoms": [{"x": [0.01], "intensity": 30.0},
                                               {"x": [-0.012], "intensity": 20.0}]}]}
#: the horizon of the long DOCS_MARGINAL estimates: lambda T = 16.25, so a
#: block of 8192 paths draws about 133 000 jumps, some 4 chunks of 2^15 rows
DOCS_LONG_T = 25.0
#: a DOCS_MARGINAL horizon below mcoracle.DENSE: lambda T = 7.8, so a block
#: of 8192 paths folds about 64 000 sorted-label jumps in two slices
DOCS_SPARSE_T = 12.0
#: paths of each estimate beyond the benchmark's: three full blocks and a partial one
MC_EXTRA_PATHS = 3 * 8192 + 77
#: (target, flags) of the ``mc-verify`` calls run through ``cli.main`` on
#: MERTON and on TRINOMIAL, at each worker count; the cumulant and memm
#: targets refuse the discrete law, with exit 2
MC_VERIFY_TARGETS = [
    ("cumulant", ["--v", "0.5+1i"]),
    ("memm", ["--v", "0.5", "--lambda-star", "0.7"]),
    ("stoch-exp", ["--xi", "exp_affine", "--xi-params", '{"v": "0.3"}']),
]
#: a Gaussian body whose 7-node rule, tail probe and 15-node rule are the
#: rows 0-6, 7-8 and 9-23 of its level-0 node set
BODY = {"kind": "gaussian_push", "lambda": 1.0, "mean": [-0.3], "cov": [[0.16]]}
BODY_2D = {"kind": "gaussian_push", "lambda": 0.6, "mean": [-0.08, 0.02], "cov": [[0.01, 0.004], [0.004, 0.0225]]}
ATOM = {"kind": "atoms", "atoms": [{"x": [1.0], "intensity": 0.5}]}
#: e^{vx} - 1, which outgrows the tail of BODY for v = 0.5 and overflows at
#: an atom at 1 for v = 800
EXP = "(sub (exp (mul (const {v}) (x 0))) (const 1))"
#: x / (x - c): undefined at the node c alone
POLE = "(div (x 0) (sub (x 0) (const {c!r})))"
#: e^{800 * 1{x = c}} - 1: +inf at the node c, 0 elsewhere
SPIKE = "(sub (exp (mul (const 800) (ind eq {c!r} (x 0)))) (const 1))"


def _levy(*jumps, dim=1):
    """A levy model document with a small diffusion and the identity truncation."""
    return {"type": "levy", "dim": dim, "b": [0.0] * dim, "c": [[0.04 if i == j else 0.0 for j in range(dim)]
                                                               for i in range(dim)],
            "truncation": ["identity"] * dim, "jumps": list(jumps)}


def _node(M, body, row, level=0):
    """Coordinate 0 of row ``row`` of a body's node set of ``level``, as the
    package builds it."""
    gp = M.models.GaussianPush(body["lambda"], body["mean"], body["cov"])
    return float(gp._build_nodes(level).points[row, 0])


#: (label, model, representation: prefix text, or a function of the package
#: returning it) of drifts that fail, one or more in each verdict class, and
#: of one that nearly does
VERDICTS = [
    ("nan at a rung-0 node", _levy(BODY), lambda M: f"(repfn 1 {POLE.format(c=_node(M, BODY, 0))})"),
    ("nan at rung-1 nodes only", _levy(BODY), lambda M: f"(repfn 1 {POLE.format(c=_node(M, BODY, 9))})"),
    ("nan at a probe point only", _levy(BODY), lambda M: f"(repfn 1 {POLE.format(c=_node(M, BODY, 8))})"),
    # a node of the 31-node rule only, met on the second walk
    ("nan at a rung-2 node", _levy(BODY), lambda M: f"(repfn 1 {POLE.format(c=_node(M, BODY, 20, level=2))})"),
    ("probe growth", _levy(BODY), f"(repfn 1 {EXP.format(v=0.5)})"),
    ("inf at nodes", _levy(BODY), "(repfn 1 (sub (pow -400 (add (const 1) (x 0))) (const 1)))"),
    # not a failure: rung 0's sum is not finite but holds no NaN, and the
    # 31-node rule, which lacks the node, settles it
    ("inf at a rung-0 node", _levy(BODY), lambda M: f"(repfn 1 {SPIKE.format(c=_node(M, BODY, 0))})"),
    ("non-convergence", _levy(BODY), "(repfn 1 (ind abs_le 0.5 (add (x 0) (const 1))))"),
    ("atom overflow", _levy(ATOM), f"(repfn 1 {EXP.format(v=800)})"),
    ("two outputs failing apart", _levy(BODY),
     lambda M: f"(repfn 1 {POLE.format(c=_node(M, BODY, 3))} {EXP.format(v=0.5)})"),
    ("mixed measure, first part failing", _levy(ATOM, BODY),
     lambda M: f"(repfn 1 {EXP.format(v=800)} {POLE.format(c=_node(M, BODY, 12))} (x 0))"),
    ("2-d body", _levy(BODY_2D, dim=2),
     lambda M: f"(repfn 2 {POLE.format(c=_node(M, BODY_2D, 10))} {EXP.format(v=40)})"),
]
#: (mean, cov) of the bodies whose node sets at levels 0 and 2 are compared
NODE_SETS = [([-0.05], [[0.04]]), ([-0.1, 0.02], [[0.04, 0.01], [0.01, 0.02]]),
             ([-0.1, -0.05, 0.02], [[0.04, 0.0, 0.0], [0.0, 0.04, 0.0], [0.0, 0.0, 0.04]])]


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


def _fields(estimate):
    """A call returning every field of ``estimate()`` as its exact repr."""
    return lambda: {k: repr(v) for k, v in dataclasses.asdict(estimate()).items()}


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
    return _fields(estimate)


def _node_sets(M, mean, cov):
    """The node sets of levels 0 and 2 of a fresh body, as a digest spelt in
    capitals only, which hold no number: a changed bit reads as changed text."""
    def call():
        gp = M.models.GaussianPush(0.5, mean, cov)
        digest = hashlib.sha256(b"".join(a.tobytes() for level in (0, 2) for a in gp._build_nodes(level)))
        return {"sha256": digest.hexdigest().upper().translate(str.maketrans("0123456789", "GHIJKLMNOP"))}

    return call


def _verdict(M, doc, rep):
    """A failing drift, as its error's class and message and each output's
    entry of ``faults``; a drift that does not fail returns its total."""
    model = M.modelio.parse_model(doc)
    xi = M.repfn.from_prefix(rep if isinstance(rep, str) else rep(M))

    def call():
        try:
            return {"total": [repr(complex(z)) for z in M.drift.drift(xi, model).total]}
        except M.errors.EngineError as exc:
            return {"raise": type(exc).__name__, "msg": str(exc),
                    "faults": [[j, type(e).__name__, str(e)] for j, e in sorted(exc.faults.items())]}

    return call


def _mc_extra_runs(M):
    """(key, label, call, None) of each discrete, ATOMS, pushforward and
    docs-marginal estimate."""
    parse = M.modelio.parse_model
    pushforward = M.calculus.pushforward_characteristics(
        M.calculus.rep_exp_affine(0.7), parse(WIDE), M.models.TruncationSpec.identity(1))
    models = [("trinomial", parse(TRINOMIAL), "discrete", (3.0, 250.0)), ("atoms", parse(ATOMS), "atoms", (2.0,)),
              ("pushforward", pushforward, "mapped gaussian_push", (1.3,)),
              ("docs", parse(DOCS_MARGINAL), _model_kind(DOCS_MARGINAL), (DOCS_SPARSE_T, DOCS_LONG_T))]
    for seed in SEEDS:
        docs = workloads.generate("grid_1d", seed)["models"]
        models += [(f"grid_1d-{seed}-{m}", parse(doc), "discrete", (3.0, 250.0)) for m, doc in docs.items()
                   if doc["type"] == "discrete"]
    mc, xi, eta = M.mcoracle, M.calculus.rep_exp_affine(0.3), M.calculus.rep_exp_utility(0.7)
    runs = []
    for name, model, kind, horizons in models:
        for T in horizons:
            for w in MC_WORKERS:
                cfg = mc.SimConfig(n_paths=MC_EXTRA_PATHS, seed=5, workers=w)
                for op, args in (("mc_stoch_exp", (xi,)), ("mc_reweighted", (xi, eta))):
                    call = _fields(functools.partial(getattr(mc, op), *args, model, T, cfg))
                    runs.append((f"mc/{name}/{op}/{T:g}/{w}w", f"mc {op} {kind} T={T:g} {w}w", call, None))
    return runs


def _extra_runs(M, tmp):
    """(key, label, call, None) of each run beyond the benchmark's ops."""
    runs = []
    for i, (label, doc, command, axis) in enumerate(GRIDS):
        path = Path(tmp) / f"grid-{i}.json"
        path.write_text(json.dumps(doc), encoding="utf-8")
        argv = [command[0], "--model", str(path), "--v-grid", json.dumps({"re": axis}), *command[1:]]
        runs.append((f"grids/{i}", f"grids {label}", worker.make_call(M, {}, {"kind": "cli", "argv": argv}), None))
    path = Path(tmp) / "wide.json"
    path.write_text(json.dumps(WIDE), encoding="utf-8")
    argv = ["utility", "--model", str(path), "--bracket=0,800"]
    runs.append(("optima/wide", "optima utility (0,800)", worker.make_call(M, {}, {"kind": "cli", "argv": argv}), None))
    trinomial = M.modelio.parse_model(TRINOMIAL)
    runs.append(("optima/discrete", "optima discrete (-2,10)",
                 lambda: dict(zip(("lambda_star", "value"), map(repr, M.pricing.optimize_discrete_exp_utility(
                     trinomial, (-2.0, 10.0))))), None))
    runs += [(f"nodes/{len(mean)}d", f"node sets {len(mean)}d", _node_sets(M, mean, cov), None)
             for mean, cov in NODE_SETS]
    runs += [(f"verdicts/{i}", f"verdict {label}", _verdict(M, doc, rep), None)
             for i, (label, doc, rep) in enumerate(VERDICTS)]
    for name, doc in (("levy", MERTON), ("discrete", TRINOMIAL)):
        path = Path(tmp) / f"mc-verify-{name}.json"
        path.write_text(json.dumps(doc), encoding="utf-8")
        for (target, flags), w in itertools.product(MC_VERIFY_TARGETS, MC_WORKERS):
            argv = ["mc-verify", "--model", str(path), "--target", target, *flags, "-T", "3",
                    "--n-paths", str(MC_EXTRA_PATHS), "--seed", "5", "--threads", str(w)]
            runs.append((f"mc-verify/{name}/{target}/{w}w", f"mc-verify {target} {name} {w}w",
                         worker.make_call(M, {}, {"kind": "cli", "argv": argv}), None))
    return runs + _mc_extra_runs(M)


def _record(counts, key, label, call, spot1, tmp):
    """One run's record: exit code, stdout and stderr (``tmp`` written as
    <dir>), and its ``drift.drift`` calls and ``RepFn`` builds."""
    before = dict(counts)
    res = worker.run_op(call)
    if "rc" in res:
        rc, out, err = res["rc"], res["out"], res["err"]
    elif "raise" in res:
        rc, out, err = 1, "", f"{res['raise']}: {res['msg']}"
    else:
        rc, out, err = 0, json.dumps(res), ""
    return {"key": key, "label": label, "rc": rc, "spot1": spot1,
            **{name: n - before[name] for name, n in counts.items()},
            "out": out.replace(tmp, "<dir>"), "err": err.replace(tmp, "<dir>")}


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
    """Every op's label, exit code, stdout, stderr, ``drift.drift`` calls
    and ``RepFn`` builds on the tree on sys.path; an op that is not a CLI
    call prints its result as JSON, or exits 1 with its exception as
    stderr."""
    import driftcalc

    # the modules themselves: the package's ``drift`` attribute is the function
    M = SimpleNamespace(**{name: importlib.import_module(f"driftcalc.{name}") for name in
                           ("calculus", "cli", "drift", "errors", "mcoracle", "modelio", "models", "pricing",
                            "repfn")})
    counts, drift, build = {"drifts": 0, "builds": 0}, M.drift.drift, M.repfn.RepFn.__post_init__

    def counted(*args, **kwargs):
        counts["drifts"] += 1
        return drift(*args, **kwargs)

    def counted_build(self):
        counts["builds"] += 1
        return build(self)

    M.repfn.RepFn.__post_init__ = counted_build

    # every module that binds the function, as perfbench/tracer.py installs
    # its wrappers, so a drift taken through any of them is counted
    for name, module in list(sys.modules.items()):
        if name == "driftcalc" or name.startswith("driftcalc."):
            for key, value in list(vars(module).items()):
                if value is drift:
                    setattr(module, key, counted)
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
                records += [_record(counts, *run, tmp) for run in runs]
        records += [_record(counts, *run, tmp) for run in _extra_runs(M, tmp)]
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


#: the fields of a Monte Carlo output that move with its draws; every other
#: field, a path count, a seed or an analytic value, must stay the same
MC_MOVING = frozenset({"mean", "mc_mean", "std_error", "se", "kurtosis", "z_score"})


def mc_z(a: str, b: str):
    """|mean' - mean| / hypot(se, se') between two Monte Carlo outputs, an
    estimate's fields, an ``mc-verify`` report or a ``perfbench`` estimate,
    or inf if they differ in a field outside MC_MOVING; None for any other
    output."""
    try:
        x, y = json.loads(a), json.loads(b)
    except json.JSONDecodeError:
        return None
    if not (isinstance(x, dict) and isinstance(y, dict)):
        return None
    mean = next((k for k in ("mean", "mc_mean") if k in x and k in y), None)
    se = next((k for k in ("std_error", "se") if k in x and k in y), None)
    if mean is None or se is None:
        return None
    if any(x.get(k) != y.get(k) for k in (x.keys() | y.keys()) - MC_MOVING):
        return math.inf
    # a mean as the text "(a+bj)" or "a+bi", or as the pair [a, b]
    (m1, s1), (m2, s2) = ((complex(*v[mean]) if isinstance(v[mean], list) else parse_complex(v[mean]),
                           float(v[se])) for v in (x, y))
    scale, shift = math.hypot(s1, s2), abs(m2 - m1)
    return shift / scale if scale > 0 else 0.0 if shift == 0 else math.inf


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
    rows = defaultdict(lambda: [0, 0, 0.0, None, ""])  # identical, moved, worst, worst op, "z " if z
    failures = []
    for a, b in zip(old, new):
        row = rows[a["label"]]
        if (a["rc"], a["err"]) != (b["rc"], b["err"]):
            failures.append(f"{a['key']} ({a['label']}): exit {a['rc']} -> {b['rc']}, "
                            f"stderr {a['err']!r} -> {b['err']!r}")
        if a["out"] == b["out"]:
            row[0] += 1
            continue
        if a["key"].startswith("verdicts/"):
            failures.append(f"{a['key']} ({a['label']}): verdict differs: {a['out']} -> {b['out']}")
        row[1] += 1
        m, z = move(a["out"], b["out"], a["spot1"]), mc_z(a["out"], b["out"])
        if m is None:
            failures.append(f"{a['key']} ({a['label']}): output text differs")
            continue
        if z is not None:
            m, row[4] = z, "z "
            if not z <= MC_Z_BOUND:
                failures.append(f"{a['key']} ({a['label']}): estimate moved by z = {z:.3g} > {MC_Z_BOUND:g}"
                                " or in a field that does not move with its draws")
        if m >= row[2]:
            row[2], row[3] = m, a["key"]
    print(f"{'label':<50} {'identical':>9} {'moved':>6}  worst move or z of an estimate (op)")
    for label in sorted(rows):
        same, moved, worst, key, z = rows[label]
        where = f"{z}{worst:.3g} ({key})" if moved else "-"
        print(f"{label:<50} {same:>9} {moved:>6}  {where}")
    for tree, records in zip(argv, (old, new)):
        runs = {r["key"]: (r["rc"], r["out"], r["err"]) for r in records}
        failures += [f"{tree}: {key} differs from its run at 1 worker" for key, run in runs.items()
                     if key.endswith("/2w") and run != runs[key[:-2] + "1w"]]
    print(f"\n{'per op':<50} {'drift calls':>19} {'RepFn builds':>19}")
    print(f"{'':<50} {'parent':>9} {'change':>9} {'parent':>9} {'change':>9}")
    ops, calls = defaultdict(int), defaultdict(lambda: [0, 0, 0, 0])
    for a, b in zip(old, new):
        ops[a["label"]] += 1
        for i, n in enumerate((a["drifts"], b["drifts"], a["builds"], b["builds"])):
            calls[a["label"]][i] += n
    for label in sorted(label for label, n in calls.items() if any(n)):
        print(f"{label:<50}", *[f"{n / ops[label]:>9.2f}" for n in calls[label]])
    for line in failures:
        print("DIFFERS:", line)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
