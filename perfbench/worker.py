"""Run one workload's ops in a fresh process; started by run.py.

    python perfbench/worker.py PLAN.json MODE SECONDS

with ``src`` on PYTHONPATH.  The worker imports the package, builds every
model and representation of the pass, makes one warm-up call and prints
``READY``: that is the end of set-up.  In mode ``setup`` it exits there.  In
mode ``e2e`` it repeats whole passes, one op at a time (a closed loop with a
single client), until SECONDS have passed and at least MIN_PASSES passes ran.  In
mode ``trace`` it alternates untraced and traced passes for SECONDS in all,
then times the fixed baseline rows.  After each pass it prints ``PASS`` and
waits for a line on standard input.  The last line of output is
``RESULT <json>``.
"""

from __future__ import annotations

import contextlib
import importlib
import io
import json
import resource
import statistics
import sys
from time import perf_counter
from types import SimpleNamespace

import numpy as np

MIN_PASSES = 3
_REF_SMALL = np.linspace(0.0, 1.0, 24)
_REF_LARGE = np.linspace(-1.0, 1.0, 32768)


def reference_kernel():
    """A fixed computation that uses numpy only, never the package: small
    complex ufunc calls in a Python loop (like the pricer's panels and the
    tree evaluator) and one pass over a medium array (like the Monte Carlo
    blocks).  Its wall time, taken next to every op, says how fast the
    machine was running just then."""
    total = 0j
    for _ in range(100):
        v = -0.5 + 1j * _REF_SMALL
        total += np.sum(np.exp(0.3 * v) / (v * (v - 1.0)))
    return total + float(np.sum(np.exp(_REF_LARGE)))


def reference_time() -> float:
    t0 = perf_counter()
    reference_kernel()
    return perf_counter() - t0


def _pair(z):
    return [float(z.real), float(z.imag)]


def _estimate(est):
    return {"mean": _pair(est.mean), "se": est.std_error, "n_eff": est.n_effective,
            "nonfinite": est.n_nonfinite}


def power_tree(powers) -> str:
    """Prefix expression of prod (1 + x_i)^{a_i} - 1."""
    prod = None
    for i, a in enumerate(powers):
        factor = f"(pow {a:.6f} (add (const 1) (x {i})))"
        prod = factor if prod is None else f"(mul {prod} {factor})"
    return f"(repfn {len(powers)} (sub {prod} (const 1)))"


def make_call(M, plan, spec, workers=None):
    """A zero-argument callable running one op; package functions are looked
    up at call time so that a tracer's wrappers take effect."""
    kind = spec["kind"]
    if kind == "cli":
        argv = [plan["model_paths"][a[1:]] if a.startswith("@") else a for a in spec["argv"]]

        def call():
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                try:
                    rc = M.cli.main(argv)
                except SystemExit as exc:
                    rc = exc.code if isinstance(exc.code, int) else 2
            return {"rc": rc, "out": out.getvalue(), "err": err.getvalue()}

        return call

    model = M.modelio.parse_model(plan["models"][spec["model"]])
    if kind == "drift":
        rep = spec["rep"]
        xi = M.calculus.rep_ratio() if rep == "ratio" else M.repfn.from_prefix(power_tree(rep))
        return lambda: {"total": _pair(M.drift.drift(xi, model).total[0])}
    if kind == "price":

        def call():
            price, diags = M.pricing.margrabe_price(model)
            return {"price": float(price), "nodes": diags.nodes, "u_max": diags.u_max_used}

        return call
    cfg = M.mcoracle.SimConfig(n_paths=spec["n_paths"], seed=spec["seed"],
                               workers=workers or plan["mc_workers"])
    if kind == "mc_margrabe":
        return lambda: _estimate(M.mcoracle.mc_margrabe(model, cfg))
    xi = M.calculus.rep_exp_affine(spec["v"])
    if kind == "mc_stoch_exp":
        return lambda: _estimate(M.mcoracle.mc_stoch_exp(xi, model, spec["T"], cfg))
    eta = M.calculus.rep_exp_utility(spec["lambda"])
    return lambda: _estimate(M.mcoracle.mc_reweighted(xi, eta, model, spec["T"], cfg))


def run_op(call):
    try:
        return call()
    except Exception as exc:  # an op failure is a result to report, not a crash
        return {"raise": type(exc).__name__, "msg": str(exc)}


class Phase:
    """Records of whole passes: (op index, latency s, index of its distinct
    output, reference-kernel time s) per op, and the wall time of each pass.
    The reference time of an op is the mean of the kernel runs just before
    and just after it; the kernel runs are not part of the op's latency."""

    def __init__(self, calls):
        self.calls = calls
        self.records, self.pass_times = [], []
        self._uniq = [{} for _ in calls]

    def run_pass(self, tracer=None):
        start = perf_counter()
        ref_before = reference_time()
        for i, call in enumerate(self.calls):
            if tracer is not None:
                tracer.op_id = len(self.records)
            t0 = perf_counter()
            out = run_op(call)
            dt = perf_counter() - t0
            ref_after = reference_time()
            key = json.dumps(out, sort_keys=True)
            self.records.append((i, dt, self._uniq[i].setdefault(key, len(self._uniq[i])),
                                 0.5 * (ref_before + ref_after)))
            ref_before = ref_after
        self.pass_times.append(perf_counter() - start)

    def result(self):
        return {"records": self.records, "pass_times": self.pass_times,
                "outputs": [[json.loads(k) for k in u] for u in self._uniq]}


def between_passes():
    """Hand the machine to the parent, which may time a fresh process now;
    the pause is not part of any pass."""
    print("PASS", flush=True)
    sys.stdin.readline()


def timed_phase(calls, seconds, min_passes):
    """Whole passes over ``calls`` until both limits are met."""
    phase = Phase(calls)
    while sum(phase.pass_times) < seconds or len(phase.pass_times) < min_passes:
        phase.run_pass()
        between_passes()
    return phase.result()


def traced_phases(calls, seconds, tracer):
    """Alternate untraced and traced passes, so that both see the same
    machine; each side gets at least two passes and SECONDS/2 of wall time."""
    plain, traced = Phase(calls), Phase(calls)
    while min(sum(plain.pass_times), sum(traced.pass_times)) < seconds / 2 or len(traced.pass_times) < 2:
        plain.run_pass()
        tracer.install()
        try:
            traced.run_pass(tracer)
        finally:
            tracer.uninstall()
        between_passes()
    return plain.result(), traced.result()


def _median_ms(fn, reps):
    times = []
    for _ in range(reps):
        t0 = perf_counter()
        result = fn()
        times.append(perf_counter() - t0)
    return 1e3 * statistics.median(times), result


def baseline_rows(M, docs) -> dict:
    """The fixed cases of the ROADMAP baseline table, timed untraced."""
    merton = M.modelio.parse_model(docs["merton_1d"])
    rows = {}
    rows["baseline.cumulant_ms"], _ = _median_ms(lambda: M.pricing.cumulant(0.5, merton), 21)
    grid = np.linspace(0.0, 2.0, 101)
    rows["baseline.grid101_ms"], _ = _median_ms(lambda: [M.pricing.cumulant(v, merton) for v in grid], 5)
    rows["baseline.optimizer_ms"], _ = _median_ms(
        lambda: M.pricing.optimize_exp_utility(merton, (0.0, 8.0)), 5)
    q3 = M.modelio.parse_model(docs["drift_3d"])
    xi3 = M.repfn.from_prefix(power_tree(docs["drift_3d_powers"]))
    rows["baseline.drift3d_ms"], _ = _median_ms(lambda: M.drift.drift(xi3, q3), 1)
    for name, reps in (("margrabe_jump", 5), ("margrabe_near", 3), ("margrabe_defaults", 1)):
        mm = M.modelio.parse_model(docs[name])
        rows[f"baseline.{name}_ms"], (_, diags) = _median_ms(lambda: M.pricing.margrabe_price(mm), reps)
        rows[f"baseline.{name}_nodes"] = diags.nodes
    xi = M.calculus.rep_exp_affine(0.5)
    mm = M.modelio.parse_model(docs["margrabe_jump"])
    for w in (1, 2):
        cfg = M.mcoracle.SimConfig(n_paths=400_000, seed=20240801, workers=w)
        rows[f"baseline.mc_stoch_exp_{w}w_ms"], _ = _median_ms(
            lambda: M.mcoracle.mc_stoch_exp(xi, merton, 1.0, cfg), 3)
        rows[f"baseline.mc_margrabe_{w}w_ms"], _ = _median_ms(lambda: M.mcoracle.mc_margrabe(mm, cfg), 3)
    rows["mcoracle.speedup_2w"] = (
        (rows["baseline.mc_stoch_exp_1w_ms"] + rows["baseline.mc_margrabe_1w_ms"])
        / (rows["baseline.mc_stoch_exp_2w_ms"] + rows["baseline.mc_margrabe_2w_ms"])
    )
    return rows


def main(argv):
    plan_path, mode, seconds = argv[0], argv[1], float(argv[2])
    M = SimpleNamespace(**{
        name: importlib.import_module(f"driftcalc.{name}")
        for name in ("cli", "calculus", "drift", "mcoracle", "modelio", "pricing", "repfn")
    })
    with open(plan_path, encoding="utf-8") as fh:
        plan = json.load(fh)
    calls = [make_call(M, plan, spec) for spec in plan["ops"]]
    run_op(calls[plan["warmup"]])
    print("READY", flush=True)
    if mode == "setup":
        return

    result = {}
    if mode == "e2e":
        result["timed"] = timed_phase(calls, seconds, MIN_PASSES)
        first_mc = next((i for i, s in enumerate(plan["ops"]) if s["kind"].startswith("mc_")), None)
        if first_mc is not None:
            # bit-identity across worker counts (acceptance criteria 7e/7f)
            one = run_op(make_call(M, plan, plan["ops"][first_mc], workers=1))
            result["identity"] = {"op": first_mc, "workers_1": one,
                                  "workers_n": result["timed"]["outputs"][first_mc]}
    else:
        from tracer import Tracer

        tracer = Tracer()
        result["untraced"], result["traced"] = traced_phases(calls, seconds, tracer)
        result["layer"] = tracer.summary(len(result["traced"]["pass_times"]))
        tracer.write(plan["spans_path"])
        result["layer"].update(baseline_rows(M, plan["baseline"]))
    result["maxrss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    print("RESULT " + json.dumps(result), flush=True)


if __name__ == "__main__":
    main(sys.argv[1:])
