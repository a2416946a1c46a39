"""Acceptance gate: one test per criterion, each printing a PASS line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines and timings.  Every tolerance is fixed here; nothing is calibrated at
run time.
"""

import itertools
import math
import time

import numpy as np
import pytest
from scipy.stats import norm

import driftcalc as dc

from conftest import finite_difference_jet, random_composed_tree


def merton_exchange_model():
    return dc.MargrabeModel(
        spot1=100.0,
        spot2=100.0,
        maturity=1.0,
        sigma1_sq=0.04,
        sigma12=0.006,
        sigma2_sq=0.01,
        jump_intensity=0.4,
        jump_mean=(-0.1, -0.05),
        jump_cov=((0.0625, 0.02), (0.02, 0.0625)),
        default_atoms=(((0.0, -1.0), 0.02),),
    )


def test_criterion_1_ratio_drift_and_expectation():
    start = time.perf_counter()
    c = np.array([[0.04, 0.006], [0.006, 0.01]])
    t = dc.LevyTriplet(
        2, np.array([0.05, 0.02]), c, dc.empty_measure(2), dc.TruncationSpec.unit_clip(2)
    )
    b = dc.drift(dc.rep_ratio(), t).total[0]
    assert abs(b - 0.034) <= 1e-15
    assert b.imag == 0.0

    k0_over_l0 = 2.0
    target = k0_over_l0 * math.exp(0.034 * 1.0)
    est = dc.mc_stoch_exp(dc.rep_ratio(), t, 1.0, dc.SimConfig(n_paths=100_000, seed=17))
    z = abs(k0_over_l0 * est.mean - target) / (k0_over_l0 * est.std_error)
    assert z < 3.0

    elapsed = time.perf_counter() - start
    assert elapsed < 5.0
    print(f"\n[criterion 1] PASS: ratio drift = {b.real:.17g} (|err| <= 1e-15), "
          f"growth-factor z = {z:.2f} on 1e5 paths, {elapsed:.2f}s")


def test_criterion_2_closed_form_vs_drift_engine_on_contour():
    start = time.perf_counter()
    mm = merton_exchange_model()
    t = mm.triplet()
    worst = 0.0
    for u in np.linspace(-50.0, 50.0, 20):
        v = -0.5 + 1j * u
        closed = dc.margrabe_kappa(v, mm)
        generic = dc.drift(dc.rep_margrabe(v), t).total[0]
        rel = abs(closed - generic) / max(1.0, abs(closed))
        worst = max(worst, rel)
    assert worst <= 1e-9

    elapsed = time.perf_counter() - start
    assert elapsed < 10.0
    print(f"\n[criterion 2] PASS: closed form vs drift engine at 20 contour points, "
          f"worst rel err = {worst:.3e} (<= 1e-9), {elapsed:.2f}s")


def test_criterion_3_no_jump_classical_reduction():
    start = time.perf_counter()
    mm = dc.MargrabeModel(
        spot1=100.0, spot2=100.0, maturity=1.0,
        sigma1_sq=0.04, sigma12=0.03, sigma2_sq=0.09,
    )
    price, _ = dc.margrabe_price(mm)
    sig = math.sqrt(0.07)
    d1 = 0.5 * sig
    d2 = -0.5 * sig
    classical = 100.0 * (norm.cdf(d1) - norm.cdf(d2))
    rel = abs(price - classical) / classical
    assert rel <= 1e-6

    elapsed = time.perf_counter() - start
    print(f"\n[criterion 3] PASS: no-jump price {price:.6f} vs classical "
          f"{classical:.6f}, rel err = {rel:.3e} (<= 1e-6), {elapsed:.2f}s")


def test_criterion_4_full_jump_model_price_vs_simulation():
    start = time.perf_counter()
    mm = merton_exchange_model()
    price, diags = dc.margrabe_price(mm)

    lam2_q1, _ = dc.default_intensities(mm)
    assert abs(diags.kappa0 - (-lam2_q1)) <= 1e-12

    est = dc.mc_margrabe(mm, dc.SimConfig(n_paths=200_000, seed=7))
    z = est.z_score(price)
    assert z < 3.0

    elapsed = time.perf_counter() - start
    assert elapsed < 60.0
    print(f"\n[criterion 4] PASS: full-model price {price:.6f} vs MC "
          f"{est.mean.real:.6f} +- {est.std_error:.6f} (z = {z:.2f}), "
          f"kappa(0) = -{lam2_q1}, {elapsed:.2f}s")


def test_criterion_5_discrete_closed_forms():
    start = time.perf_counter()
    p_u, p_m, p_d = 0.4, 0.4, 0.2
    m = dc.DiscreteModel([[math.log(1.1)], [0.0], [math.log(0.9)]], [p_u, p_m, p_d])

    lam = 1.3
    for horizon in (1.0, 2.5, 4.0):
        got = dc.discrete_stoch_exp(dc.rep_exp_utility(lam), m, horizon)
        factor = p_u * math.exp(-0.1 * lam) + p_m + p_d * math.exp(0.1 * lam)
        assert abs(got - factor ** math.floor(horizon)) <= 1e-12

    lam_star, _ = dc.optimize_discrete_exp_utility(m, (-2.0, 10.0))
    lam_closed = math.log(p_u / p_d) / 0.2
    assert abs(lam_star - lam_closed) <= 1e-8

    v = 1.3
    for horizon in (1.0, 3.0):
        got = dc.discrete_q_stoch_exp(
            dc.rep_exp_affine(v), dc.rep_exp_utility(lam_closed), m, horizon
        )
        root = math.sqrt(p_u * p_d)
        closed = (((1.1**v + 0.9**v) * root + p_m) / (2 * root + p_m)) ** math.floor(horizon)
        assert abs(got - closed) <= 1e-12

    # brute-force path enumeration up to four periods
    xi, eta = dc.rep_exp_affine(v), dc.rep_exp_utility(lam_closed)
    xv = xi.eval_batch(m.points.astype(complex))[:, 0]
    ev = eta.eval_batch(m.points.astype(complex))[:, 0].real
    probs = m.probabilities
    for steps in (1, 2, 3, 4):
        plain = 0.0
        weighted = 0.0
        norm_w = float((probs * (1 + ev)).sum()) ** steps
        for path in itertools.product(range(3), repeat=steps):
            p = math.prod(probs[i] for i in path)
            plain += p * math.prod(1 + xv[i] for i in path)
            w = math.prod(1 + ev[i] for i in path) / norm_w
            weighted += p * w * math.prod(1 + xv[i] for i in path)
        assert abs(dc.discrete_stoch_exp(xi, m, float(steps)) - plain) <= 1e-12
        assert abs(dc.discrete_q_stoch_exp(xi, eta, m, float(steps)) - weighted) <= 1e-12

    elapsed = time.perf_counter() - start
    assert elapsed < 2.0
    print(f"\n[criterion 5] PASS: discrete products and optimum "
          f"(lam* err {abs(lam_star - lam_closed):.2e} <= 1e-8) match closed forms "
          f"to 1e-12 and enumeration to 4 periods, {elapsed:.2f}s")


def test_criterion_6_exponent_functions_vs_simulation():
    start = time.perf_counter()
    t = dc.LevyTriplet(
        1, np.array([0.05]), np.array([[0.04]]),
        dc.GaussianPush(0.8, np.array([-0.05]), np.array([[0.04]])),
        dc.TruncationSpec.unit_clip(1),
    )
    lam_star = 0.7
    assert dc.cumulant(0.0, t) == 0.0
    assert dc.memm_cumulant(0.0, lam_star, t) == 0.0

    zs = []
    for v in (0.5, 1.0, 1 + 2j):
        k = dc.cumulant(v, t)
        est = dc.mc_stoch_exp(
            dc.rep_exp_affine(v), t, 1.0, dc.SimConfig(n_paths=120_000, seed=101)
        )
        zs.append(est.z_score(np.exp(k)))
        kq = dc.memm_cumulant(v, lam_star, t)
        est_q = dc.mc_reweighted(
            dc.rep_exp_affine(v), dc.rep_exp_utility(lam_star), t, 1.0,
            dc.SimConfig(n_paths=120_000, seed=108),
        )
        zs.append(est_q.z_score(np.exp(kq)))
    assert max(zs) < 3.0

    elapsed = time.perf_counter() - start
    assert elapsed < 30.0
    print(f"\n[criterion 6] PASS: exponent identities at v in {{0.5, 1, 1+2i}}, "
          f"plain and reweighted z <= {max(zs):.2f} (< 3), "
          f"kappa(0) = kappa_Q(0) = 0 exactly, {elapsed:.2f}s")


def test_criterion_7a_jets_vs_finite_differences():
    rng = np.random.default_rng(20240815)
    worst_j, worst_h = 0.0, 0.0
    for _ in range(100):
        f = random_composed_tree(rng)
        jet = f.jet_at_zero()
        fd = finite_difference_jet(f, 1e-5)
        jac_scale = max(1.0, float(np.max(np.abs(fd.jacobian))))
        hess_scale = max(1.0, float(np.max(np.abs(fd.hessian))))
        worst_j = max(worst_j, float(np.max(np.abs(jet.jacobian - fd.jacobian))) / jac_scale)
        worst_h = max(worst_h, float(np.max(np.abs(jet.hessian - fd.hessian))) / hess_scale)
    assert worst_j <= 1e-6
    assert worst_h <= 1e-4
    print(f"\n[criterion 7a] PASS: 100 composed trees, jacobian err {worst_j:.2e} "
          f"(<= 1e-6), hessian err {worst_h:.2e} (<= 1e-4)")


def test_criterion_7b_truncation_invariance():
    t = dc.LevyTriplet(
        1, np.array([0.05]), np.array([[0.04]]),
        dc.SumMeasure((
            dc.GaussianPush(0.8, np.array([-0.05]), np.array([[0.04]])),
            dc.FiniteAtoms([[0.3]], [0.2]),
        )),
        dc.TruncationSpec.unit_clip(1),
    )
    worst = 0.0
    for xi in (dc.rep_exp_affine(0.9), dc.rep_exp_utility(1.1), dc.rep_log_return()):
        base = dc.drift(xi, t).total[0]
        for names in (["zero"], ["identity"], ["unit_clip"]):
            moved = dc.drift(xi, dc.retruncate(t, dc.TruncationSpec.from_names(names))).total[0]
            worst = max(worst, abs(moved - base) / abs(base))
    assert worst <= 1e-9
    print(f"\n[criterion 7b] PASS: drift invariant under retruncation, worst rel "
          f"change {worst:.2e} (<= 1e-9)")


def test_criterion_7c_chain_rule():
    pairs = [
        (dc.rep_exp_utility(2.0), dc.rep_exp_affine(0.7)),
        (dc.rep_power(1.6), dc.rep_log_return()),
        (dc.rep_exp_affine(0.4 + 1.1j), dc.rep_ratio()),
    ]
    for psi, xi in pairs:
        jp, jx = psi.jet_at_zero(), xi.jet_at_zero()
        jc = dc.compose(psi, xi).jet_at_zero()
        np.testing.assert_allclose(jc.jacobian, jp.jacobian @ jx.jacobian, atol=1e-13)
        hess = np.einsum("mkl,ki,lj->mij", jp.hessian, jx.jacobian, jx.jacobian)
        hess += np.einsum("mk,kij->mij", jp.jacobian, jx.hessian)
        np.testing.assert_allclose(jc.hessian, hess, atol=1e-13)
    print("\n[criterion 7c] PASS: composition jets satisfy the chain rule")


def test_criterion_7d_pushforward_counting_exact():
    rng = np.random.default_rng(61)
    pts = rng.normal(0.0, 0.35, (10, 1))
    lam = rng.uniform(0.1, 1.4, 10)
    t = dc.LevyTriplet(
        1, np.zeros(1), np.zeros((1, 1)),
        dc.FiniteAtoms(pts, lam), dc.TruncationSpec.identity(1),
    )
    xi = dc.rep_exp_affine(1.0)
    out = dc.pushforward_characteristics(xi, t, dc.TruncationSpec.identity(1))
    boxes = [((0.05,), (0.6,)), ((-0.9,), (-0.02,))]
    expected = sum(
        lam[k]
        for k in range(10)
        if 0.05 <= math.expm1(pts[k, 0]) <= 0.6 or -0.9 <= math.expm1(pts[k, 0]) <= -0.02
    )
    got = dc.atom_mass_in_boxes(out.jumps, boxes)
    assert got == expected
    print("\n[criterion 7d] PASS: image-measure box counting is exact")


def test_criterion_7e_measure_change_reduction_bit_exact():
    t = dc.LevyTriplet(
        1, np.array([0.05]), np.array([[0.04]]),
        dc.GaussianPush(0.8, np.array([-0.05]), np.array([[0.04]])),
        dc.TruncationSpec.unit_clip(1),
    )
    for xi in (dc.rep_exp_affine(0.8), dc.rep_exp_utility(1.3), dc.rep_power(0.5)):
        plain = dc.drift(xi, t)
        changed = dc.drift_q(xi, dc.rep_zero(1), t)
        assert np.array_equal(plain.total, changed.total)
        assert np.array_equal(plain.linear_part, changed.linear_part)
        assert np.array_equal(plain.quadratic_part, changed.quadratic_part)
        assert np.array_equal(plain.jump_part, changed.jump_part)
    print("\n[criterion 7e] PASS: null measure change reduces bit for bit")


def test_criterion_7f_simulation_determinism_across_workers():
    mm = merton_exchange_model()
    t = dc.LevyTriplet(
        1, np.array([0.05]), np.array([[0.04]]),
        dc.GaussianPush(0.8, np.array([-0.05]), np.array([[0.04]])),
        dc.TruncationSpec.unit_clip(1),
    )
    results = [
        (
            dc.mc_stoch_exp(dc.rep_exp_affine(0.7), t, 1.0,
                            dc.SimConfig(n_paths=60_000, seed=3, workers=w)),
            dc.mc_margrabe(mm, dc.SimConfig(n_paths=60_000, seed=3, workers=w)),
        )
        for w in (1, 4, 8)
    ]
    for other_se, other_mm in results[1:]:
        assert other_se.mean == results[0][0].mean
        assert other_se.std_error == results[0][0].std_error
        assert other_mm.mean == results[0][1].mean
        assert other_mm.std_error == results[0][1].std_error
    print("\n[criterion 7f] PASS: fixed seed gives bit-identical estimates on 1, 4, 8 workers")
