"""The engine against the benchmark's own references, on benchmark inputs.

``perfbench/reference.py`` computes drifts, cumulants and exchange-option
prices without the package (closed forms, composite Gauss-Legendre in the
jump log-size, a Poisson series), and ``perfbench/workloads.py`` draws the
models the benchmark runs.  They are loaded read-only, so a quadrature or a
series that converges to a wrong value fails here rather than only in a
benchmark run.
"""

import driftcalc as dc
from driftcalc.modelio import parse_grid, parse_model

from conftest import load_perfbench, split_price

SEED = 7
TOL = 1e-8  # the benchmark's tolerance for quadrature results, relative to 1 + |reference|

WORKLOADS = load_perfbench("workloads")
REFERENCE = load_perfbench("reference")
WORKER = load_perfbench("worker")  # for the prefix trees the benchmark runs


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
    # Margrabe formulas), not on the engine's transform; the engine's series
    # must also agree with the tests' own contour, summed panel by panel
    worst = 0.0
    for seed in range(1, 11):
        plan = WORKLOADS.generate("price_margrabe", seed)
        assert len(plan["ops"]) == 101
        for op in plan["ops"]:
            doc = plan["models"][op["model"]]
            mm = parse_model(doc)
            price, diags = dc.margrabe_price(mm)
            reference = REFERENCE.margrabe_price(doc)
            contour, _, _ = split_price(mm)
            assert (diags.nodes, diags.u_max_used) == (0, 0.0)
            assert abs(price - reference) <= 1.3e-15 * mm.spot1, (seed, op, price, reference)
            assert abs(price - contour) <= 1e-14 * mm.spot1, (seed, op, price, contour)
            worst = max(worst, abs(price - reference) / mm.spot1)
    print(f"\nworst price error over 1 010 models: {worst:.1e} spot1")
