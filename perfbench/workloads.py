"""Seeded inputs for the benchmark workloads.

Every model, grid, bracket and exponent is drawn from the workload seed; the
program only ever sees the generated model documents and arguments.  A
workload is one *pass*: a fixed list of operation specs that the worker
repeats, whole, until the run's time is used up.  Parameters are drawn inside
fixed strata (each kind of op has a fixed count per pass), so the cost of a
pass depends on the code under test, not on the luck of the draw.

Parameter ranges keep every integral that the engine computes well defined:
Gaussian jump bodies are narrow enough that e^{v x} with v <= 2 stays
negligible beyond the quadrature's outer nodes, and every utility optimum
lies well inside the brackets used.  The documented default brackets
(-1,8) and (-5,15) are still run on Gaussian bodies, where they fail today
(a known defect, see ``check.KNOWN_DEFECTS``).

This module imports numpy only, never the package under test.
"""

from __future__ import annotations

import json

import numpy as np

WORKLOADS = ("grid_1d", "drift_nd", "price_margrabe", "mc_verify")

MC_PATHS = 65536  # 8 Philox blocks of 8192 paths
MC_WORKERS = 2


def _u(rng, lo, hi):
    return float(rng.uniform(lo, hi))


# ---------------------------------------------------------------------------
# model documents (schema: docs/model-schema.md)
# ---------------------------------------------------------------------------


def _gauss_jump(rng, lam=(0.2, 1.0), mean=(-0.12, 0.04), sd=(0.06, 0.15)):
    return {
        "kind": "gaussian_push",
        "lambda": _u(rng, *lam),
        "mean": [_u(rng, *mean)],
        "cov": [[_u(rng, *sd) ** 2]],
    }


def _atoms(rng, k):
    # one atom per equal-width cell of (-0.3, 0.3): distinct by construction
    edges = np.linspace(-0.3, 0.3, k + 1)
    return {
        "kind": "atoms",
        "atoms": [
            {"x": [_u(rng, edges[i], edges[i + 1])], "intensity": _u(rng, 0.2, 1.5)}
            for i in range(k)
        ],
    }


def _jump_mean(jumps):
    """int x F(dx) of a one-dimensional jump list."""
    total = 0.0
    for part in jumps:
        if part["kind"] == "atoms":
            total += sum(a["intensity"] * a["x"][0] for a in part["atoms"])
        else:
            total += part["lambda"] * np.expm1(part["mean"][0] + 0.5 * part["cov"][0][0])
    return float(total)


def _levy_1d(rng, truncation, jumps, vol=(0.15, 0.3)):
    # b is drawn as the drift relative to the identity truncation and then
    # re-expressed, so every truncation gives the same range of optima
    b = _u(rng, 0.02, 0.07)
    if truncation == "zero":
        b -= _jump_mean(jumps)
    return {
        "type": "levy",
        "dim": 1,
        "b": [b],
        "c": [[_u(rng, *vol) ** 2]],
        "truncation": [truncation],
        "jumps": jumps,
    }


def _discrete(rng, k):
    edges = np.linspace(-0.15, 0.15, k + 1)
    x = [_u(rng, edges[i], edges[i + 1]) for i in range(k)]
    p = rng.dirichlet(np.full(k, 3.0))
    p = p / p.sum()
    return {"type": "discrete", "support": [{"x": [xi], "p": float(pi)} for xi, pi in zip(x, p)]}


def _gauss_push_nd(rng, d, truncation):
    sd = rng.uniform(0.08, 0.25, d)
    corr = np.eye(d)
    for i in range(d):
        for j in range(i):
            corr[i, j] = corr[j, i] = _u(rng, -0.3, 0.5)
    cov = corr * np.outer(sd, sd)
    vol = rng.uniform(0.1, 0.3, d)
    c = np.diag(vol**2)
    for i in range(d):
        for j in range(i):
            c[i, j] = c[j, i] = _u(rng, -0.3, 0.6) * vol[i] * vol[j]
    return {
        "type": "levy",
        "dim": d,
        "b": rng.uniform(-0.05, 0.1, d).tolist(),
        "c": c.tolist(),
        "truncation": [truncation] * d,
        "jumps": [
            {
                "kind": "gaussian_push",
                "lambda": _u(rng, 0.2, 1.0),
                "mean": rng.uniform(-0.15, 0.1, d).tolist(),
                "cov": cov.tolist(),
            }
        ],
    }


def _margrabe(rng, kind):
    """Exchange-option model of one cost class.

    normal: diffusion with sigma_eff^2 in [0.01, 0.1], jump body, default atom.
    near:   sigma_eff^2 T in a narrow stratum near zero (the contour length
            depends on the product), jump body and default atom.
    zero:   sigma_eff^2 = 0 and no jump body, with a fixed shape (spot
            ratio 2.5, T = 1.5, default intensity 0.015; 309 600 contour
            nodes); only the spot level and the kind of zero-sigma_eff
            diffusion are drawn, because for this class the contour's node
            count jumps by factors of two under small changes of ratio,
            maturity or intensity, and the price scales with the spot level.
    """
    doc = {"type": "margrabe", "maturity": 1.0}
    s1 = _u(rng, 50.0, 150.0)
    if kind == "zero":
        # no diffusion, or two perfectly correlated equal-volatility assets
        var = _u(rng, 0.01, 0.06) if rng.uniform() < 0.5 else 0.0
        doc.update(spot1=s1, spot2=2.5 * s1, maturity=1.5,
                   diffusion={"sigma1_sq": var, "sigma12": var, "sigma2_sq": var})
        doc["defaults"] = [{"x": [0.0, -1.0], "intensity": 0.015}]
        return doc
    doc.update(spot1=s1, spot2=s1 * _u(rng, 0.7, 1.4), maturity=_u(rng, 0.5, 2.0))
    if kind == "normal":
        v1, v2 = _u(rng, 0.01, 0.06), _u(rng, 0.01, 0.06)
        rho = _u(rng, -0.3, 0.6)
        doc["diffusion"] = {"sigma1_sq": v1, "sigma12": rho * (v1 * v2) ** 0.5, "sigma2_sq": v2}
    else:
        eff = kind[1] / doc["maturity"]
        doc["diffusion"] = {"sigma1_sq": eff, "sigma12": 0.0, "sigma2_sq": 0.0}
    sd1, sd2 = _u(rng, 0.15, 0.3), _u(rng, 0.15, 0.3)
    r = _u(rng, 0.0, 0.6)
    doc["jump"] = {
        "lambda": _u(rng, 0.1, 0.6),
        "mean": [_u(rng, -0.15, 0.05), _u(rng, -0.15, 0.05)],
        "cov": [[sd1 * sd1, r * sd1 * sd2], [r * sd1 * sd2, sd2 * sd2]],
    }
    if rng.uniform() < 0.75:
        doc["defaults"] = [{"x": [0.0, -1.0], "intensity": _u(rng, 0.005, 0.04)}]
    return doc


# ---------------------------------------------------------------------------
# workloads
# ---------------------------------------------------------------------------


def _fmt(x) -> str:
    return repr(float(x))


def _axis(start, stop, count):
    return {"start": start, "stop": stop, "count": count}


def _grid_op(label, fn, model, grid, lam=None, bracket=None):
    argv = [fn, "--model", "@" + model, "--v-grid", json.dumps(grid)]
    if lam is not None:
        argv += ["--lambda-star", _fmt(lam)]
    if bracket is not None:
        argv.append(f"--bracket={_fmt(bracket[0])},{_fmt(bracket[1])}")
    check = {"what": fn, "model": model, "grid": grid, "lambda": lam, "bracket": bracket}
    if fn == "memm" and lam is None and bracket is None:
        check["bracket"] = [-1.0, 8.0]  # the memm command's default
    return {"kind": "cli", "label": label, "argv": argv, "check": check}


def _utility_op(label, model, bracket):
    argv = ["utility", "--model", "@" + model, f"--bracket={_fmt(bracket[0])},{_fmt(bracket[1])}"]
    return {"kind": "cli", "label": label, "argv": argv,
            "check": {"what": "utility", "model": model, "bracket": bracket}}


def _discrete_op(model, op, xi, eta, T):
    argv = ["discrete", "--model", "@" + model, "--op", op,
            "--xi", xi[0], "--xi-params", json.dumps(xi[1])]
    if eta is not None:
        argv += ["--eta", eta[0], "--eta-params", json.dumps(eta[1])]
    argv += ["-T", _fmt(T)]
    return {"kind": "cli", "label": "discrete", "argv": argv,
            "check": {"what": "discrete", "model": model, "op": op, "xi": xi, "eta": eta, "T": T}}


README_GRID = {"re": _axis(0, 2, 9)}


def _grid_block(rng, tag, models):
    """Half of the grid_1d pass: 13 models and 50 CLI ops on them."""
    truncs = ("unit_clip", "identity", "unit_clip", "zero")
    for k in range(4):
        # G2 and G3 carry the documented default brackets: a typical Merton
        # body width, at which the scan at lambda < 0 overflows at any seed
        sd = (0.1, 0.15) if k in (1, 2) else (0.06, 0.15)
        models[f"G{k + 1}{tag}"] = _levy_1d(rng, truncs[k], [_gauss_jump(rng, sd=sd)])
    for k in range(3):
        models[f"A{k + 1}{tag}"] = _levy_1d(rng, truncs[k + 1], [_atoms(rng, 2 + k)], vol=(0.1, 0.25))
    for k in range(2):
        models[f"S{k + 1}{tag}"] = _levy_1d(rng, truncs[k], [_gauss_jump(rng), _atoms(rng, 2)])
    for k in range(4):
        models[f"D{k + 1}{tag}"] = _discrete(rng, 3 + k % 3)

    def m(name):
        return name + tag

    ops = []
    # cumulant grids: the README grid on every 1-d model, the 101-point grid
    # of the ROADMAP baseline, complex grids and a seeded real grid
    ops += [_grid_op("cumulant", "cumulant", m(n), README_GRID)
            for n in ("G1", "G2", "G3", "G4", "A1", "A2", "A3", "S1", "S2")]
    ops += [_grid_op("cumulant", "cumulant", m(n), {"re": _axis(0, 2, 101)}) for n in ("G1", "A1", "S1")]
    for n in ("G2", "G4", "A2", "S2"):
        grid = {"re": round(_u(rng, 0.2, 1.0), 6), "im": _axis(-5, 5, 11)}
        ops.append(_grid_op("cumulant", "cumulant", m(n), grid))
    for n in ("G3", "A3"):
        ops.append(_grid_op("cumulant", "cumulant", m(n), {"re": _axis(round(_u(rng, -1, 0), 6), 1.5, 33)}))
    # memm grids at a given lambda*, and with lambda* optimised on a bracket
    for n in ("G1", "G2", "G3", "G4", "A1", "A2", "S1"):
        grid = {"re": _axis(-0.5, 1.5, 11)} if n[0] != "A" else {"re": 1, "im": _axis(-3, 3, 13)}
        ops.append(_grid_op("memm", "memm", m(n), grid, lam=_u(rng, 0.5, 3.0)))
    for n in ("G1", "S2"):
        ops.append(_grid_op("memm_opt", "memm", m(n), {"re": _axis(0, 1, 5)}, bracket=[0.0, 8.0]))
    for n in ("A1", "A3", "G2"):  # the memm command's default bracket (-1,8)
        ops.append(_grid_op("memm_opt", "memm", m(n), {"re": _axis(0, 1, 5)}))
    # utility optima: (0,8) on Gaussian bodies, the README's (-5,15) elsewhere
    ops += [_utility_op("utility", m(n), [0.0, 8.0]) for n in ("G1", "G2", "G3", "G4", "S1", "S2")]
    ops += [_utility_op("utility", m(n), [-5.0, 15.0]) for n in ("A1", "A2", "A3", "G3")]
    # discrete-time one-period products
    for k in range(4):
        n = m(f"D{k + 1}")
        lam = {"lambda": round(_u(rng, 0.5, 3.0), 6)}
        T = float(rng.integers(1, 13))
        if k < 3:
            ops.append(_discrete_op(n, "compensator", ("exp_affine", {"v": _fmt(_u(rng, -1, 2))}), None, T))
        ops.append(_discrete_op(n, "stoch-exp", ("exp_utility", lam), None, T))
        ops.append(_discrete_op(n, "q-stoch-exp", ("power", {"v": _fmt(_u(rng, -1, 2))}),
                                ("exp_utility", lam), T))
    return ops


def grid_1d(rng):
    models = {}
    ops = _grid_block(rng, "a", models) + _grid_block(rng, "b", models)
    cli = ["cumulant", "--model", "@G1a", "--v-grid", json.dumps(README_GRID)]
    return {"models": models, "ops": ops, "warmup": 0, "cli": cli,
            "cli_check": {"what": "cumulant", "model": "G1a", "grid": README_GRID, "lambda": None,
                          "bracket": None}}


def drift_nd(rng):
    models = {}
    truncs = ("identity", "unit_clip", "zero")
    ops = []
    # The d = 3 op is memory-bound and the most sensitive to other tenants of
    # the host; 396 d = 2 ops keep it to about half of a pass.
    for k in range(11):
        name = f"P{k + 1}"
        models[name] = _gauss_push_nd(rng, 2, truncs[k % 3])
        ops.append({"kind": "drift", "label": "drift_2d", "model": name, "rep": "ratio"})
        for _ in range(35):
            powers = [round(_u(rng, -1.5, 1.5), 6) for _ in range(2)]
            ops.append({"kind": "drift", "label": "drift_2d", "model": name, "rep": powers})
    models["Q1"] = _gauss_push_nd(rng, 3, "unit_clip")
    ops.append({"kind": "drift", "label": "drift_3d", "model": "Q1",
                "rep": [round(_u(rng, -1.0, 1.0), 6) for _ in range(3)]})
    cli = ["drift", "--model", "@P1", "--xi", "ratio"]
    return {"models": models, "ops": ops, "warmup": 0, "cli": cli,
            "cli_check": {"what": "drift", "model": "P1", "rep": "ratio"}}


def price_margrabe(rng):
    models, ops = {}, []

    def add(label, kind):
        name = f"M{len(models) + 1}"
        models[name] = _margrabe(rng, kind)
        ops.append({"kind": "price", "label": label, "model": name})

    # the p90 (rank 91 of 101) falls inside the group of 15 near-degenerate
    # ops, which all take 40 800 contour nodes in this stratum
    for _ in range(85):
        add("price_normal", "normal")
    for _ in range(15):
        add("price_near", ("near", _u(rng, 0.8e-5, 1.2e-5)))
    add("price_zero", "zero")
    cli = ["price-margrabe", "--model", "@M1"]
    return {"models": models, "ops": ops, "warmup": 0, "cli": cli,
            "cli_check": {"what": "price", "model": "M1"}}


def _near(rng, x, jitter=0.03):
    """x within a narrow band: a stratum of fixed cost."""
    return x * _u(rng, 1.0 - jitter, 1.0 + jitter)


def _scale_atoms(part, mass):
    total = sum(a["intensity"] for a in part["atoms"])
    for a in part["atoms"]:
        a["intensity"] *= mass / total
    return part


def mc_verify(rng):
    """The cost of a Monte Carlo op grows with the expected number of jumps
    per path, jump mass times T.  Each op slot therefore has a fixed mass and
    maturity up to a few per cent; shapes, signs, drifts and exponents are
    drawn freely."""
    models = {}
    levy = []
    for k, lam in enumerate((0.3, 0.5, 0.7, 0.9, 0.4, 0.8)):
        kind = ("unit_clip", "identity", "zero")[k % 3]
        levy.append(f"G{k + 1}")
        lam = _near(rng, lam)
        models[levy[-1]] = _levy_1d(rng, kind, [_gauss_jump(rng, lam=(lam, lam))])
    for k in range(2):
        levy.append(f"A{k + 1}")
        atoms = _scale_atoms(_atoms(rng, 3 + k), _near(rng, 2.0 + k))
        models[levy[-1]] = _levy_1d(rng, "identity", [atoms])
        levy.append(f"S{k + 1}")
        lam = _near(rng, 0.5)
        jumps = [_gauss_jump(rng, lam=(lam, lam)), _scale_atoms(_atoms(rng, 2), _near(rng, 0.6))]
        models[levy[-1]] = _levy_1d(rng, "unit_clip", jumps)
    margrabe = []
    for k in range(15):
        doc = _margrabe(rng, "normal")
        doc["maturity"] = _near(rng, (0.6, 1.0, 1.4, 1.8, 1.2)[k % 5])
        if "jump" in doc:
            doc["jump"]["lambda"] = _near(rng, (0.2, 0.4, 0.6)[k % 3])
        if k % 3 == 1:  # no jump body: Margrabe with default mass
            doc.pop("jump")
            doc["defaults"] = [{"x": [0.0, -1.0], "intensity": _u(rng, 0.01, 0.05)},
                               {"x": [-1.0, 0.0], "intensity": _u(rng, 0.01, 0.05)}]
        elif k % 3 == 2:  # jump body, no defaults: Merton-style series
            doc.pop("defaults", None)
        margrabe.append(f"M{k + 1}")
        models[margrabe[-1]] = doc
    seeds = iter(rng.integers(1, 2**62, size=128).tolist())
    # maturities per op slot: a fixed ladder over [0.5, 2], permuted so that
    # each model meets several of them
    ladder = [0.5 + 1.5 * ((7 * k) % 40) / 39 for k in range(40)]
    ops = []
    for k in range(40):
        ops.append({"kind": "mc_stoch_exp", "label": "mc_stoch_exp", "model": levy[k % len(levy)],
                    "v": round(_u(rng, 0.1, 1.0), 6), "T": round(_near(rng, ladder[k]), 6),
                    "n_paths": MC_PATHS, "seed": next(seeds)})
    for k in range(30):
        ops.append({"kind": "mc_margrabe", "label": "mc_margrabe", "model": margrabe[k % len(margrabe)],
                    "n_paths": MC_PATHS, "seed": next(seeds)})
    for k in range(30):
        ops.append({"kind": "mc_reweighted", "label": "mc_reweighted", "model": levy[k % len(levy)],
                    "v": round(_u(rng, 0.1, 1.0), 6), "lambda": round(_u(rng, 0.3, 2.0), 6),
                    "T": round(_near(rng, ladder[(k + 13) % 40]), 6), "n_paths": MC_PATHS,
                    "seed": next(seeds)})
    cli = ["mc-verify", "--model", "@G1", "--target", "cumulant", "--v", "0.5", "-T", "1",
           "--n-paths", str(MC_PATHS), "--threads", str(MC_WORKERS), "--seed", str(next(seeds))]
    return {"models": models, "ops": ops, "warmup": 0, "cli": cli,
            "cli_check": {"what": "mc_verify_cumulant", "model": "G1", "v": 0.5, "T": 1.0}}


# The fixed cases of the ROADMAP baseline table (the test-suite fixtures).
_JUMP_2D = {"lambda": 0.4, "mean": [-0.1, -0.05], "cov": [[0.0625, 0.02], [0.02, 0.0625]]}
_DEFAULT_2 = [{"x": [0.0, -1.0], "intensity": 0.02}]
BASELINE = {
    "merton_1d": {"type": "levy", "dim": 1, "b": [0.05], "c": [[0.04]], "truncation": ["unit_clip"],
                  "jumps": [{"kind": "gaussian_push", "lambda": 0.8, "mean": [-0.05], "cov": [[0.04]]}]},
    "drift_3d": {"type": "levy", "dim": 3, "b": [0.0, 0.0, 0.0],
                 "c": [[0.01, 0.0, 0.0], [0.0, 0.01, 0.0], [0.0, 0.0, 0.01]], "truncation": ["identity"] * 3,
                 "jumps": [{"kind": "gaussian_push", "lambda": 0.4, "mean": [-0.1, -0.05, 0.02],
                            "cov": [[0.04, 0.0, 0.0], [0.0, 0.04, 0.0], [0.0, 0.0, 0.04]]}]},
    "drift_3d_powers": [0.5, -0.3, 0.7],
    "margrabe_jump": {"type": "margrabe", "spot1": 100.0, "spot2": 100.0, "maturity": 1.0,
                      "diffusion": {"sigma1_sq": 0.04, "sigma12": 0.006, "sigma2_sq": 0.01},
                      "jump": _JUMP_2D, "defaults": _DEFAULT_2},
    "margrabe_near": {"type": "margrabe", "spot1": 100.0, "spot2": 100.0, "maturity": 1.0,
                      "diffusion": {"sigma1_sq": 1e-5, "sigma12": 0.0, "sigma2_sq": 0.0},
                      "jump": _JUMP_2D, "defaults": _DEFAULT_2},
    "margrabe_defaults": {"type": "margrabe", "spot1": 100.0, "spot2": 100.0, "maturity": 1.0,
                          "diffusion": {"sigma1_sq": 0.0, "sigma12": 0.0, "sigma2_sq": 0.0},
                          "defaults": _DEFAULT_2},
}


def generate(name: str, seed: int) -> dict:
    """The pass, models and representative CLI command of one workload."""
    if name not in WORKLOADS:
        raise ValueError(f"unknown workload {name!r}; known: {', '.join(WORKLOADS)}")
    rng = np.random.default_rng([int(seed), WORKLOADS.index(name)])
    return globals()[name](rng)


def mix_shares(plan: dict) -> dict:
    """Share of each op label in one pass."""
    labels = [op["label"] for op in plan["ops"]]
    return {lab: round(labels.count(lab) / len(labels), 4) for lab in sorted(set(labels))}
