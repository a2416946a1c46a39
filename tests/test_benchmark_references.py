"""The engine against the benchmark's own references, on benchmark inputs.

``perfbench/reference.py`` computes drifts, cumulants and exchange-option
prices without the package (closed forms, composite Gauss-Legendre in the
jump log-size, a Poisson series), and ``perfbench/workloads.py`` draws the
models the benchmark runs.  They are loaded read-only, so a quadrature or a
contour that converges to a wrong value fails here rather than only in a
benchmark run.
"""

import importlib.util
from pathlib import Path

import driftcalc as dc
from driftcalc.modelio import parse_grid, parse_model

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
SEED = 7
TOL = 1e-8  # the benchmark's tolerance for quadrature results, relative to 1 + |reference|


def _load(name):
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


WORKLOADS = _load("workloads")
REFERENCE = _load("reference")
WORKER = _load("worker")  # for the prefix trees the benchmark runs


def _close(got, expect):
    return abs(complex(got) - complex(expect)) <= TOL * (1.0 + abs(complex(expect)))


def test_drift_nd_drifts_match_the_closed_form():
    plan = WORKLOADS.generate("drift_nd", SEED)
    models = {name: parse_model(doc) for name, doc in plan["models"].items()}
    for spec in plan["ops"]:
        powers = [1.0, -1.0] if spec["rep"] == "ratio" else spec["rep"]
        xi = dc.rep_ratio() if spec["rep"] == "ratio" else dc.from_prefix(WORKER.power_tree(powers))
        got = dc.drift(xi, models[spec["model"]]).total[0]
        expect = REFERENCE.drift_power(plan["models"][spec["model"]], powers)
        assert _close(got, expect), (spec, got, expect)


def _gaussian_body(doc):
    return any(part["kind"] == "gaussian_push" for part in doc.get("jumps", []))


def test_grid_1d_readme_grid_cumulants_match_the_reference():
    plan = WORKLOADS.generate("grid_1d", SEED)
    checked = 0
    for op in plan["ops"]:
        check = op["check"]
        doc = plan["models"][check["model"]]
        readme_grid = check["what"] == "cumulant" and check["grid"] == WORKLOADS.README_GRID
        if not (readme_grid and _gaussian_body(doc)):
            continue
        model = parse_model(doc)
        for v in parse_grid(check["grid"]):
            got = dc.cumulant(v, model)
            expect = REFERENCE.kappa(v, doc)
            assert _close(got, expect), (check["model"], v, got, expect)
            checked += 1
    assert checked == 12 * 9  # six Gaussian-body models in each half of the pass


def test_price_margrabe_prices_match_the_poisson_series():
    # the reference conditions on the jump counts (a Poisson mixture of
    # Margrabe formulas), not on the engine's transform
    worst = 0.0
    for seed in range(1, 11):
        plan = WORKLOADS.generate("price_margrabe", seed)
        assert len(plan["ops"]) == 101
        for op in plan["ops"]:
            doc = plan["models"][op["model"]]
            price, _ = dc.margrabe_price(parse_model(doc))
            err = abs(price - REFERENCE.margrabe_price(doc))
            assert err <= 1e-12 * doc["spot1"], (seed, op, price, err)
            worst = max(worst, err / doc["spot1"])
    print(f"\nworst price error over 1 010 models: {worst:.1e} spot1")
