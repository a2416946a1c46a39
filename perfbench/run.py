"""driftcalc benchmark: one workload, one seed, one run.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of a checkout; it imports the package from ``src``.
Workloads are listed in ``workloads.py`` and ``perfbench/README.md``.

With ``--trace 0`` the run measures the end-to-end metrics named in
BENCHMARK.json: set-up time of fresh worker processes (median of several)
and a closed loop of whole passes for S seconds in one worker.  With
``--trace 1`` it alternates untraced and traced passes in one worker and
reports the per-layer metrics, the tracing overhead, fresh
``python -m driftcalc.cli`` processes running the workload's representative
command, and the rows of the ROADMAP baseline table.  Timings are taken
at reference speed (see ``REF_S``).  Every op is checked against the
benchmark's own references (``check.py``).  Human-readable lines come
first; the last line of standard output is one JSON object.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

import numpy as np

import check
import workloads

HERE = Path(__file__).resolve().parent
SETUP_SAMPLES = 16  # set-up-only workers per end-to-end run, besides the measuring worker
PROCESS_SAMPLES = 8  # CLI and import processes per traced run
RUN_LIMIT_S = 170.0
# Timings are reported at reference speed: scaled to a machine on which the
# reference kernel (worker.reference_kernel) takes exactly REF_S.
REF_S = 1e-3


class BenchError(RuntimeError):
    pass


def last_level_cache() -> str:
    best = (0, "unknown")
    for index in Path("/sys/devices/system/cpu/cpu0/cache").glob("index*"):
        try:
            level = int((index / "level").read_text())
            best = max(best, (level, f"L{level} {(index / 'size').read_text().strip()}"))
        except (OSError, ValueError):
            continue
    return best[1]


def machine_info() -> dict:
    return {"nproc": os.cpu_count(), "python": platform.python_version(), "numpy": np.__version__,
            "llc": last_level_cache(), "machine": platform.machine()}


class Runner:
    def __init__(self, root: Path, args):
        self.root = root
        self.args = args
        self.deadline = time.monotonic() + RUN_LIMIT_S
        self.env = dict(os.environ)
        src = str(root / "src")
        self.env["PYTHONPATH"] = src + (os.pathsep + self.env["PYTHONPATH"] if self.env.get("PYTHONPATH") else "")
        self.work = HERE / ".work" / f"{args.workload}-{os.getpid()}"

    def remaining(self) -> float:
        left = self.deadline - time.monotonic()
        if left <= 0:
            raise BenchError(f"run exceeded {RUN_LIMIT_S:.0f} s")
        return left

    def write_plan(self, plan) -> Path:
        self.work.mkdir(parents=True, exist_ok=True)
        plan["model_paths"] = {}
        for name, doc in plan["models"].items():
            path = self.work / f"{name}.json"
            path.write_text(json.dumps(doc), encoding="utf-8")
            plan["model_paths"][name] = str(path)
        plan["mc_workers"] = workloads.MC_WORKERS
        plan["baseline"] = workloads.BASELINE
        plan["spans_path"] = str(HERE / ".work" / f"spans-{self.args.workload}.json")
        path = self.work / "plan.json"
        path.write_text(json.dumps(plan), encoding="utf-8")
        return path

    def worker(self, plan_path, mode, between=None):
        """Start a worker; return (seconds from spawn to READY, its result).
        ``between`` runs each time the worker pauses between two passes."""
        cmd = [sys.executable, str(HERE / "worker.py"), str(plan_path), mode, str(self.args.seconds)]
        t0 = time.perf_counter()
        proc = subprocess.Popen(cmd, cwd=self.root, env=self.env, stdin=subprocess.PIPE,
                                stdout=subprocess.PIPE, text=True)
        timer = threading.Timer(self.remaining(), proc.kill)
        timer.start()
        result = None
        try:
            first = proc.stdout.readline()
            ready = time.perf_counter() - t0
            for line in proc.stdout:
                if line == "PASS\n":
                    if between is not None:
                        between()
                    proc.stdin.write("GO\n")
                    proc.stdin.flush()
                elif line.startswith("RESULT "):
                    result = json.loads(line[len("RESULT "):])
            rc = proc.wait()
        finally:
            timer.cancel()
            if proc.poll() is None:
                proc.kill()
                proc.wait()
            proc.stdin.close()
            proc.stdout.close()
        if first.strip() != "READY" or rc != 0:
            raise BenchError(f"worker ({mode}) exited with code {rc} before finishing: {first.strip()!r}")
        if mode != "setup" and result is None:
            raise BenchError(f"worker ({mode}) printed no result")
        return ready, result

    def process(self, argv):
        """Wall time and output of a fresh interpreter running ``argv``."""
        t0 = time.perf_counter()
        cp = subprocess.run([sys.executable, *argv], cwd=self.root, env=self.env, capture_output=True,
                            text=True, timeout=self.remaining())
        return time.perf_counter() - t0, {"rc": cp.returncode, "out": cp.stdout, "err": cp.stderr}

    def cleanup(self):
        shutil.rmtree(self.work, ignore_errors=True)


# ---------------------------------------------------------------------------
# judging and summarising
# ---------------------------------------------------------------------------


def judge(plan, checker, phase):
    """Verdicts for every distinct output of every op spec in a phase."""
    return [[checker.verdict(spec, out) for out in outs] for spec, outs in zip(plan["ops"], phase["outputs"])]


def nearest_rank(sorted_values, q):
    return sorted_values[max(math.ceil(q * len(sorted_values)) - 1, 0)]


def phase_stats(phase, verdicts, scaled=True):
    """Metrics of one phase over every op execution in it.

    Latencies are nearest-rank percentiles over all executions; an
    execution whose output fails its check ranks as slowest.  The rate is
    correctly completed executions per second of op time.  With ``scaled``
    every latency is taken at reference speed: its wall time times REF_S
    over the reference-kernel time measured around it.
    """
    records = phase["records"]
    lat, ok_runs, busy = [], 0, 0.0
    for i, dt, k, ref in records:
        if scaled:
            dt *= REF_S / ref
        ok = verdicts[i][k][0] == "ok"
        ok_runs += ok
        busy += dt
        lat.append(dt if ok else math.inf)
    lat.sort()
    n = len(records)
    return {
        "attempted": n,
        "ok": ok_runs,
        "ops_per_s": ok_runs / busy,
        "p50_ms": 1e3 * nearest_rank(lat, 0.5),
        "p90_ms": 1e3 * nearest_rank(lat, 0.9),
        "beyond_p90": n - math.ceil(0.9 * n),
        "elapsed": sum(phase["pass_times"]),
        "passes": len(phase["pass_times"]),
        "busy_s": busy,
        "ref_s": statistics.median(r[3] for r in records),
    }


def report_verdicts(plan, verdicts, records):
    """Print every non-ok verdict once, with how often it occurred; return
    (number of non-ok ops, whether all of them are known defects)."""
    counts = {}
    for i, _dt, k, _ref in records:
        counts[(i, k)] = counts.get((i, k), 0) + 1
    bad, all_known = 0, True
    for (i, k), n in sorted(counts.items()):
        verdict, detail = verdicts[i][k]
        if verdict == "ok":
            continue
        bad += n
        all_known &= verdict.startswith("known:")
        spec = plan["ops"][i]
        what = " ".join(spec["argv"]) if spec["kind"] == "cli" else json.dumps({key: val for key, val in spec.items() if key != "label"})
        print(f"  {verdict} x{n}: {what}\n      -> {detail}")
    return bad, all_known


def run_spread(runner, plan_path, mode, samplers):
    """Run the measuring worker; take one sample between each two of its
    passes and the rest afterwards, so that the samples meet more than one
    CPU-speed regime of the host."""
    due = list(samplers)

    def between():
        if due:
            due.pop(0)()

    sample = runner.worker(plan_path, mode, between)
    while due:
        due.pop(0)()
    return sample


def run_e2e(runner, plan, plan_path, checker):
    setup = []
    ready, result = run_spread(runner, plan_path, "e2e", [
        lambda: setup.append(runner.worker(plan_path, "setup")[0])] * SETUP_SAMPLES)
    setup.append(ready)

    timed = result["timed"]
    verdicts = judge(plan, checker, timed)
    stats = phase_stats(timed, verdicts)
    wall = phase_stats(timed, verdicts, scaled=False)
    identity_ok = True
    if "identity" in result:
        ident = result["identity"]
        identity_ok = [ident["workers_1"]] == ident["workers_n"]
        print(f"MC bit-identity, op {ident['op']} at workers=1 vs {workloads.MC_WORKERS}: "
              f"{'identical' if identity_ok else 'DIFFERENT'}")

    print(f"workload {runner.args.workload} seed {runner.args.seed}: {stats['attempted']} ops in "
          f"{stats['elapsed']:.2f} s ({stats['passes']} passes of {len(plan['ops'])}), "
          f"{stats['beyond_p90']} ops beyond p90")
    bad, all_known = report_verdicts(plan, verdicts, timed["records"])
    print(f"failed_frac {bad / stats['attempted']:.4f} ({bad} of {stats['attempted']})")
    if bad and all_known:
        print(f"every failure is a known defect: {json.dumps(check.KNOWN_DEFECTS)}")
    print(f"set-up samples (s): {[round(x, 4) for x in setup]}")
    print(f"wall time, unscaled: ops_per_s {wall['ops_per_s']:.4f}, op_p50_ms {wall['p50_ms']:.4f}, "
          f"op_p90_ms {wall['p90_ms']:.4f}, setup_s {statistics.median(setup):.4f}; "
          f"median reference kernel {1e3 * stats['ref_s']:.4f} ms (REF_S = {1e3 * REF_S} ms)")
    metrics = {
        # a fresh process is too short and too unlike the kernel to be scaled
        # by the kernel runs next to it: scale by the run's median kernel time
        "setup_s": statistics.median(setup) * REF_S / stats["ref_s"],
        "ops_per_s": stats["ops_per_s"],
        "op_p50_ms": stats["p50_ms"],
        "op_p90_ms": stats["p90_ms"],
        "ok_frac": stats["ok"] / stats["attempted"],
        "peak_rss_mb": result["maxrss_kb"] / 1024.0,
    }
    return metrics, all_known and identity_ok, stats["attempted"], bad


def run_trace(runner, plan, plan_path, checker):
    cli_argv = ["-m", "driftcalc.cli"] + [
        plan["model_paths"][a[1:]] if a.startswith("@") else a for a in plan["cli"]]
    cli_times, import_times, cli_ok = [], [], True

    def cli_sample():
        nonlocal cli_ok
        dt, out = runner.process(cli_argv)
        cli_times.append(dt)
        verdict, detail = checker.cli(plan["cli_check"], out)
        if verdict != "ok":
            cli_ok = False
            print(f"  cli {verdict}: {detail}")

    def import_sample():
        dt, out = runner.process(["-c", "import driftcalc"])
        if out["rc"] != 0:
            raise BenchError(f"python -c 'import driftcalc' failed: {out['err'].strip()}")
        import_times.append(dt)

    _ready, result = run_spread(runner, plan_path, "trace", [cli_sample, import_sample] * PROCESS_SAMPLES)
    correct, attempted, failed = cli_ok, 0, 0
    busy = {}
    for phase_name in ("untraced", "traced"):
        phase = result[phase_name]
        verdicts = judge(plan, checker, phase)
        stats = phase_stats(phase, verdicts)
        print(f"{phase_name}: {stats['attempted']} ops in {stats['elapsed']:.2f} s ({stats['passes']} passes)")
        bad, all_known = report_verdicts(plan, verdicts, phase["records"])
        correct &= all_known
        attempted += stats["attempted"]
        failed += bad
        busy[phase_name] = stats["busy_s"]
    print(f"cli samples (s): {[round(x, 4) for x in cli_times]}; "
          f"import samples (s): {[round(x, 4) for x in import_times]}")
    metrics = dict(result["layer"])
    metrics["cli.process_ms"] = 1e3 * statistics.median(cli_times)
    metrics["cli.import_ms"] = 1e3 * statistics.median(import_times)
    metrics["trace.overhead_frac"] = busy["traced"] / busy["untraced"] - 1.0
    return metrics, correct, attempted, failed


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = Path.cwd()
    if not (root / "src" / "driftcalc" / "__init__.py").is_file():
        print(f"perfbench: no driftcalc sources under {root / 'src'}; run from a checkout root", file=sys.stderr)
        return 2
    spec = json.loads((root / "BENCHMARK.json").read_text(encoding="utf-8"))
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]

    plan = workloads.generate(args.workload, args.seed)
    runner = Runner(root, args)
    try:
        plan_path = runner.write_plan(plan)
        checker = check.Checker(plan)
        metrics, correct, attempted, failed = (run_trace if args.trace else run_e2e)(runner, plan, plan_path, checker)
    except (BenchError, subprocess.TimeoutExpired) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    finally:
        runner.cleanup()

    missing = [m["name"] for m in wanted if m["name"] not in metrics]
    if missing:
        print(f"perfbench: metrics not produced: {', '.join(missing)}", file=sys.stderr)
        return 1
    print(f"machine: {json.dumps(machine_info())}")
    print(f"mix shares: {json.dumps(workloads.mix_shares(plan))}")
    for m in wanted:
        print(f"  {m['name']:<36} {metrics[m['name']]:>16.6g} {m['unit']}")
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]} for m in wanted},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
