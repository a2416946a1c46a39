"""Command-line frontend: load model files, run computations, emit reports.

Commands
--------
  drift           decomposed drift of a catalog representation on a model
  cumulant        exponent function kappa(v) on a grid of complex v (CSV)
  utility         optimal exponential-utility exposure on a bracket
  memm            measure-changed cumulant on a grid of complex v (CSV)
  price-margrabe  exchange-option price: default mass plus a Poisson series
  discrete        discrete-time compensators and one-period products
  mc-verify       analytic value vs Monte Carlo estimate with a z-score

Exit codes: 0 success, 1 computation diagnostic or an output pipe its reader
closed (then nothing on stderr), 2 usage or parse error.
All numeric output is printed with 17 significant digits; complex numbers
are rendered as "a+bi" strings.  Seeds make every Monte Carlo figure
reproducible; ``--threads`` (or the DRIFTCALC_THREADS environment variable)
caps worker counts without changing any output bit.

Expression grammar
------------------
Custom representations can be given in prefix notation instead of a catalog
name, via ``--xi-tree`` / ``--eta-tree``:

    repfn  := (repfn D expr+)          D = input dimension, one expr per output
    expr   := (x I)                    input coordinate, 0-based
            | (const C)                complex constant
            | (add expr expr) | (sub expr expr)
            | (mul expr expr) | (div expr expr)
            | (neg expr) | (exp expr) | (log expr)
            | (pow C expr)             principal-branch power with constant exponent
            | (ind OP C expr)          indicator factor, OP in {eq, ne, abs_le, abs_gt}
            | (param C C ...)          parameter axis: K values, a column each
    C      := real or complex literal, e.g. 2, -0.5, 1+2i

A tree with param leaves, all of one K, has K columns per output: column
k K + j is output k at the j-th values.

Parentheses nest at most 256 levels deep, the outer repfn included, so a
tree built in Python round-trips through this notation only up to that depth.
Example: (repfn 1 (sub (exp (mul (const 2) (x 0))) (const 1))) is e^{2x}-1.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import os
import sys

import numpy as np

from .calculus import build_catalog_fn, girsanov_adjust, rep_exp_affine, rep_exp_utility
from .drift import (
    discrete_compensator,
    discrete_q_stoch_exp,
    discrete_stoch_exp,
    drift,
    expectation_stoch_exp,
)
from .errors import EngineError
from .mcoracle import SimConfig, mc_margrabe, mc_reweighted, mc_stoch_exp
from .models import DiscreteModel, LevyTriplet, QuadratureConfig, TruncationSpec, retruncate
from .modelio import ModelFormatError, load_model, parse_grid, serialize_model
from .pricing import (
    MargrabeModel,
    _require_1d,
    cumulant,
    margrabe_price,
    memm_cumulant,
    optimize_exp_utility,
)
from .repfn import RepFn, format_complex, from_prefix, parse_complex

#: grid points per batched cumulant or memm call: one tree with a column per
#: point; bounds the working arrays
GRID_CHUNK = 128


def _fmt(x: float) -> str:
    return f"{float(x):.17g}"


def _fmt_c(z: complex) -> str:
    z = complex(z)
    if z.imag == 0.0:
        return _fmt(z.real)
    sign = "+" if z.imag >= 0 else "-"
    return f"{_fmt(z.real)}{sign}{_fmt(abs(z.imag))}i"


def _emit(args, text: str):
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text)
            if not text.endswith("\n"):
                fh.write("\n")
    else:
        sys.stdout.write(text)
        if not text.endswith("\n"):
            sys.stdout.write("\n")
        sys.stdout.flush()  # a closed pipe raises here, where main catches it, not at exit


def _emit_json(args, payload: dict):
    _emit(args, json.dumps(payload, indent=2))


def _resolve_repfn(name, params_json, tree, what: str) -> RepFn:
    if tree:
        if name:
            raise ValueError(f"give either --{what} or --{what}-tree, not both")
        return from_prefix(tree)
    if not name:
        raise ValueError(f"missing --{what} (catalog name) or --{what}-tree (prefix expression)")
    params = json.loads(params_json) if params_json else {}
    return build_catalog_fn(name, params)


def _require_model(model, kind, what: str):
    if not isinstance(model, kind):
        raise ValueError(f"this command needs a {what} model file")
    return model


def _report_payload(report) -> dict:
    return {
        "total": [_fmt_c(z) for z in report.total],
        "linear_part": [_fmt_c(z) for z in report.linear_part],
        "quadratic_part": [_fmt_c(z) for z in report.quadratic_part],
        "jump_part": [_fmt_c(z) for z in report.jump_part],
        "quadrature_error": _fmt(report.quadrature_error),
    }


def _quad_from_args(args) -> QuadratureConfig:
    if args.tol is None:
        return QuadratureConfig()
    return QuadratureConfig(rel_tol=args.tol)


def _parse_bracket(text: str):
    """The --bracket flag: two finite numbers "lo,hi" with lo < hi."""
    try:
        lo, hi = (float(s) for s in text.split(","))
    except ValueError:
        lo = hi = math.nan
    if not (math.isfinite(lo) and math.isfinite(hi) and lo < hi):
        raise ValueError(f"--bracket needs two finite numbers lo,hi with lo < hi, got {text!r}")
    return lo, hi


def _parse_lambda_star(text: str) -> float:
    """The --lambda-star flag: a finite number."""
    try:
        lam = float(text)
    except ValueError:
        lam = math.nan
    if not math.isfinite(lam):
        raise argparse.ArgumentTypeError(f"needs a finite number, got {text!r}")
    return lam


def _parse_horizon(text: str) -> float:
    """The -T flag: a finite number T >= 0."""
    try:
        T = float(text)
    except ValueError:
        T = math.nan
    if not 0 <= T < math.inf:
        raise argparse.ArgumentTypeError(f"needs a finite number >= 0, got {text!r}")
    return T


def _cmd_drift(args) -> int:
    model = _require_model(load_model(args.model), LevyTriplet, "levy")
    if args.truncation:
        model = retruncate(model, TruncationSpec.from_names(args.truncation.split(",")))
    xi = _resolve_repfn(args.xi, args.xi_params, args.xi_tree, "xi")
    report = drift(xi, model, _quad_from_args(args))
    _emit_json(args, _report_payload(report))
    return 0


def _grid_rows(grid, fn):
    """(v, value, status) rows of a grid and the number of failed points.

    ``fn`` maps up to GRID_CHUNK points to their values by one drift whose
    outputs each stop and fail on their own, as a one-point call does.  A
    failing drift names its failing rows in the error's ``faults``, and one
    more drift values the others (a third if one of those overflows in a sum).
    """
    rows = []
    for start in range(0, len(grid), GRID_CHUNK):
        chunk = grid[start:start + GRID_CHUNK]
        values, status = np.full(len(chunk), complex("nan+nanj")), ["ok"] * len(chunk)
        todo = np.arange(len(chunk))
        while todo.size:
            try:
                values[todo] = fn(chunk[todo])
                break
            except EngineError as exc:
                # an error of no single output fails every row left
                faults = exc.faults or dict.fromkeys(range(todo.size), exc)
            for j, fault in faults.items():
                # the status column must stay CSV-safe
                status[todo[j]] = "error: " + str(fault).replace(",", ";").replace("\n", " ")
            todo = np.delete(todo, list(faults))
        rows.extend(zip(chunk, values, status))
    return rows, sum(s != "ok" for *_, s in rows)


def _emit_grid(args, rows, value_name: str):
    if getattr(args, "format", "csv") == "json":
        records = [
            {"v": _fmt_c(v), value_name: _fmt_c(k), "status": status}
            for v, k, status in rows
        ]
        _emit(args, json.dumps(records, indent=2))
        return
    lines = [f"re_v,im_v,re_{value_name},im_{value_name},status"]
    for v, k, status in rows:
        # _fmt's format, in one formatting call per row
        lines.append("%.17g,%.17g,%.17g,%.17g,%s" % (v.real, v.imag, k.real, k.imag, status))
    _emit(args, "\n".join(lines))


def _cmd_cumulant(args) -> int:
    model = _require_model(load_model(args.model), LevyTriplet, "levy")
    grid = parse_grid(json.loads(args.v_grid))
    quad = _quad_from_args(args)
    rows, failures = _grid_rows(grid, lambda v: cumulant(v, model, quad))
    _emit_grid(args, rows, "kappa")
    return 1 if failures else 0


def _cmd_utility(args) -> int:
    model = _require_model(load_model(args.model), LevyTriplet, "levy")
    lam, value = optimize_exp_utility(model, _parse_bracket(args.bracket), _quad_from_args(args))
    _emit_json(args, {"lambda_star": _fmt(lam), "value": _fmt(value)})
    return 0


def _cmd_memm(args) -> int:
    model = _require_model(load_model(args.model), LevyTriplet, "levy")
    quad = _quad_from_args(args)
    if args.lambda_star is not None:
        lam = args.lambda_star
    else:
        lam, _ = optimize_exp_utility(model, _parse_bracket(args.bracket), quad)
    grid = parse_grid(json.loads(args.v_grid))
    rows, failures = _grid_rows(grid, lambda v: memm_cumulant(v, lam, model, quad))
    _emit_grid(args, rows, "kappa_q")
    return 1 if failures else 0


def _cmd_price_margrabe(args) -> int:
    model = _require_model(load_model(args.model), MargrabeModel, "margrabe")
    price, diags = margrabe_price(model, 1e-9 if args.tol is None else args.tol)
    _emit_json(
        args,
        {
            "price": _fmt(price),
            "kappa0": _fmt_c(diags.kappa0),
            "lambda2_Q1": _fmt(diags.lambda2_q1),
            "lambda1_Q2": _fmt(diags.lambda1_q2),
            "tail_mass": _fmt(diags.tail_mass),
            "terms": diags.terms,
        },
    )
    return 0


def _cmd_discrete(args) -> int:
    model = _require_model(load_model(args.model), DiscreteModel, "discrete")
    xi = _resolve_repfn(args.xi, args.xi_params, args.xi_tree, "xi")
    if args.op == "compensator":
        value = discrete_compensator(xi, model, args.T)
        _emit_json(args, {"value": [_fmt_c(z) for z in value]})
        return 0
    if args.op == "stoch-exp":
        value = discrete_stoch_exp(xi, model, args.T)
    else:
        eta = _resolve_repfn(args.eta, args.eta_params, args.eta_tree, "eta")
        value = discrete_q_stoch_exp(xi, eta, model, args.T)
    _emit_json(args, {"value": _fmt_c(value)})
    return 0


def _threads(args) -> int:
    """--threads, else DRIFTCALC_THREADS, else 1; read when the command runs."""
    if args.threads is not None:
        return args.threads
    try:
        return int(os.environ.get("DRIFTCALC_THREADS", "1"))
    except ValueError as exc:
        raise ValueError(f"DRIFTCALC_THREADS must be an integer: {exc}") from None


def _cmd_mc_verify(args) -> int:
    model = load_model(args.model)
    cfg = SimConfig(
        n_paths=args.n_paths, seed=args.seed, workers=_threads(args), antithetic=args.antithetic
    )
    quad = _quad_from_args(args)
    T = args.T

    if args.target == "margrabe":
        mm = _require_model(model, MargrabeModel, "margrabe")
        analytic, _ = margrabe_price(mm)
        est = mc_margrabe(mm, cfg)
    elif args.target == "memm":
        t = _require_model(model, LevyTriplet, "levy")
        if args.lambda_star is None:
            raise ValueError("--lambda-star is required for the memm target")
        _require_1d(t, "measure-changed cumulant")
        xi = rep_exp_affine(parse_complex(args.v))
        eta = rep_exp_utility(args.lambda_star)
        analytic = expectation_stoch_exp(girsanov_adjust(xi, eta), t, T, quad)
        est = mc_reweighted(xi, eta, t, T, cfg)
    else:  # cumulant or stoch-exp: the mean stochastic exponential of xi o X at T
        if args.target == "cumulant":
            model = _require_model(model, LevyTriplet, "levy")
            _require_1d(model, "cumulant")
            xi = rep_exp_affine(parse_complex(args.v))
        else:
            model = _require_model(model, (LevyTriplet, DiscreteModel), "levy or discrete")
            xi = _resolve_repfn(args.xi, args.xi_params, args.xi_tree, "xi")
        if isinstance(model, DiscreteModel):
            analytic = discrete_stoch_exp(xi, model, T)
        else:
            analytic = expectation_stoch_exp(xi, model, T, quad)
        est = mc_stoch_exp(xi, model, T, cfg)

    z = est.z_score(complex(analytic))
    _emit_json(
        args,
        {
            "target": args.target,
            "analytic": _fmt_c(complex(analytic)),
            "mc_mean": _fmt_c(complex(est.mean)),
            "std_error": _fmt(est.std_error),
            "z_score": _fmt(z),
            "n_paths": args.n_paths,
            "n_nonfinite": est.n_nonfinite,
            "seed": args.seed,
        },
    )
    return 0


def _cmd_roundtrip(args) -> int:
    model = load_model(args.model)
    _emit_json(args, serialize_model(model))
    return 0


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="driftcalc",
        description="drift engine for increment representations",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, mc=False, tol="quadrature relative tolerance"):
        p.add_argument("--model", required=True, help="path to a JSON model file")
        p.add_argument("--out", default=None, help="output path (default: stdout)")
        if tol:
            p.add_argument("--tol", type=float, default=None, help=tol)
        if mc:
            p.add_argument("--seed", type=int, default=20240801)
            p.add_argument("--n-paths", type=int, default=100_000)
            p.add_argument("--threads", type=int, default=None)
            p.add_argument("--antithetic", action="store_true")

    def repfn_args(p, what):
        p.add_argument(f"--{what}", default=None, help=f"catalog name for {what}")
        p.add_argument(f"--{what}-params", default=None, help="JSON parameters")
        p.add_argument(f"--{what}-tree", default=None, help="prefix expression")

    p = sub.add_parser("drift", help="decomposed drift of a representation")
    common(p)
    repfn_args(p, "xi")
    p.add_argument("--truncation", default=None, help="comma list: zero|identity|unit_clip")
    p.set_defaults(fn=_cmd_drift)

    p = sub.add_parser("cumulant", help="exponent function on a v-grid")
    common(p)
    p.add_argument("--v-grid", required=True, help='{"re": {...}, "im": {...}} axis spec')
    p.add_argument("--format", choices=["csv", "json"], default="csv")
    p.set_defaults(fn=_cmd_cumulant)

    p = sub.add_parser("utility", help="optimal exponential-utility exposure")
    common(p)
    p.add_argument("--bracket", required=True,
                   help="lo,hi search bracket (write --bracket=-5,15 for a negative lo)")
    p.set_defaults(fn=_cmd_utility)

    p = sub.add_parser("memm", help="measure-changed cumulant on a v-grid")
    common(p)
    p.add_argument("--v-grid", required=True)
    p.add_argument("--format", choices=["csv", "json"], default="csv")
    p.add_argument("--lambda-star", type=_parse_lambda_star, default=None)
    p.add_argument("--bracket", default="-1,8", help="used when --lambda-star is absent")
    p.set_defaults(fn=_cmd_memm)

    p = sub.add_parser("price-margrabe", help="exchange-option price")
    common(p, tol="tail tolerance of the jump-body series: it stops where its tail "
                  "bound is at most min(tol, 1e-16), so only values below 1e-16 tighten it")
    p.set_defaults(fn=_cmd_price_margrabe)

    p = sub.add_parser("discrete", help="discrete-time compensators and products")
    common(p, tol=None)
    p.add_argument("--op", required=True, choices=["compensator", "stoch-exp", "q-stoch-exp"])
    repfn_args(p, "xi")
    repfn_args(p, "eta")
    p.add_argument("-T", type=_parse_horizon, required=True, help="time horizon")
    p.set_defaults(fn=_cmd_discrete)

    p = sub.add_parser("mc-verify", help="analytic vs Monte Carlo with z-score")
    common(p, mc=True)
    p.add_argument("--target", required=True, choices=["cumulant", "memm", "margrabe", "stoch-exp"])
    p.add_argument("--v", default="1", help='complex argument, e.g. "0.5+2i"')
    p.add_argument("--lambda-star", type=_parse_lambda_star, default=None)
    repfn_args(p, "xi")
    p.add_argument("-T", type=_parse_horizon, default=1.0, help="time horizon")
    p.set_defaults(fn=_cmd_mc_verify)

    p = sub.add_parser("roundtrip", help="parse a model file and re-serialise it")
    common(p, tol=None)
    p.set_defaults(fn=_cmd_roundtrip)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except BrokenPipeError:
        # the reader has gone: stdout points at devnull, so the flush at
        # exit has nowhere to fail (the SIGPIPE note of Python's signal docs)
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1
    except (ModelFormatError, ValueError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (EngineError, MemoryError) as exc:
        if isinstance(exc, MemoryError):
            exc = f"out of memory in the {args.command} command" + (f" ({exc})" if str(exc) else "")
        print(f"computation failed: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
