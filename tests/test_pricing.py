import dataclasses
import math
import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
import mpmath
from scipy.stats import norm, poisson

import driftcalc as dc
from driftcalc import pricing
from driftcalc.calculus import _rep_exp_utility_slope
from driftcalc.errors import ConvergenceError, EngineError, NonIntegrableError

from conftest import (
    CONTOUR_BETA,
    CONTOUR_NODES,
    CONTOUR_REL_TOL,
    CONTOUR_U_MAX,
    body_exponent,
    contour_width,
    panel_by_panel,
    reference_price,
    split_price,
)

#: doublings of the reference contour's extension rule
MAX_EXTENSIONS = 12


def classical_exchange_price(s1, s2, sig_eff, T):
    """Closed-form value of exchanging asset 2 for asset 1, pure diffusion."""
    d1 = (math.log(s1 / s2) + 0.5 * sig_eff**2 * T) / (sig_eff * math.sqrt(T))
    d2 = d1 - sig_eff * math.sqrt(T)
    return s1 * norm.cdf(d1) - s2 * norm.cdf(d2)


def extended_contour(transform, width):
    """The u_max extension rule: [0, u_max], then doubling blocks until a
    block adds at most rel_tol max(1, |total|).  Returns (integral, panels,
    u_max_used)."""
    u_max, beta = CONTOUR_U_MAX, CONTOUR_BETA
    edges = np.linspace(0.0, u_max, max(1, math.ceil(u_max / width)) + 1)
    total, panels = panel_by_panel(transform, beta, edges), edges.size - 1
    lo, hi = u_max, 2.0 * u_max
    for _ in range(MAX_EXTENSIONS):
        edges = np.linspace(lo, hi, max(2, int((hi - lo) / (2 * width)) + 1))
        tail = panel_by_panel(transform, beta, edges)
        total += tail
        panels += edges.size - 1
        if abs(tail) <= CONTOUR_REL_TOL * max(1.0, abs(total)):
            return total, panels, hi
        lo, hi = hi, 2.0 * hi
    raise AssertionError("reference contour did not converge")


def full_kappa_price(mm):
    """Reference price: the whole payoff transform e^{v l + kappa(v) T}
    integrated with the extension rule, plus the default mass.  Returns
    (price, nodes, u_max_used)."""
    log_ratio = math.log(mm.spot2 / mm.spot1)

    def transform(v):
        return np.exp(v * log_ratio + dc.margrabe_kappa(v, mm) * mm.maturity) / (
            2.0 * np.pi * v * (v - 1.0)
        )

    total, panels, u_used = extended_contour(transform, contour_width(log_ratio))
    raw = 1.0 - np.exp(dc.margrabe_kappa(0.0, mm) * mm.maturity) + total
    return mm.spot1 * raw.real, 2 * CONTOUR_NODES * panels, u_used


def series_terms(mm, first, last):
    """Terms first..last of the price's Poisson series over the number k of
    body jumps, per spot1, from scipy's Poisson law and normal cdf:
    e^{-lambda2_Q1 T} Poisson(k; mu) E[(1 - e^{Y_k})^+], with Y_k normal of
    variance sigma_eff^2 T + k s_eff^2 and E[e^{Y_k}] = e^{l + aT + k g}."""
    T, lam = mm.maturity, mm.jump_intensity
    (s11, s12), (_, s22) = mm.jump_cov
    s2 = s11 - 2.0 * s12 + s22
    q0 = mm.jump_mean[0] + 0.5 * s11
    g = mm.jump_mean[1] + 0.5 * s22 - q0  # log E[e^{jump in log ratio}]
    lam2 = dc.default_intensities(mm)[0]
    kappa_affine_1 = dc.margrabe_kappa(1.0, mm).real - lam * math.exp(body_exponent(1.0, mm))
    a = kappa_affine_1 + lam2 + lam * math.exp(q0)  # kappa_aff(1) - c
    k = np.arange(first, last + 1)
    var = (mm.sigma1_sq - 2.0 * mm.sigma12 + mm.sigma2_sq) * T + k * s2
    log_forward = math.log(mm.spot2 / mm.spot1) + a * T + k * g
    with np.errstate(divide="ignore", invalid="ignore"):
        d1 = (log_forward + 0.5 * var) / np.sqrt(var)
        put = np.where(
            var > 0.0,
            norm.cdf(np.sqrt(var) - d1) - np.exp(log_forward + norm.logcdf(-d1)),
            np.maximum(0.0, -np.expm1(np.minimum(log_forward, 0.0))),
        )
    return math.exp(-lam2 * T) * poisson.pmf(k, lam * T * math.exp(q0)) * put


def series_price(mm, last):
    """The price from scipy: the default mass plus ``series_terms`` 0..last."""
    lam2 = dc.default_intensities(mm)[0]
    return mm.spot1 * (-math.expm1(-lam2 * mm.maturity) + series_terms(mm, 0, last).sum())


def mpmath_price(mm):
    """The price summed at 40 digits by mpmath from the model's own inputs:
    the default mass plus e^{-lambda2_Q1 T} times the Poisson(mu) mean of the
    Black puts P_n over n within 12 sqrt(mu) + 30 of mu, past which the
    Poisson mass is below 1e-30."""
    with mpmath.workdps(40):
        f = mpmath.mpf
        T, lam, l = f(mm.maturity), f(mm.jump_intensity), mpmath.log(f(mm.spot2) / f(mm.spot1))
        (m1, m2), ((s11, s12), (_, s22)) = mm.jump_mean, mm.jump_cov
        m1, m2, s11, s12, s22 = map(f, (m1, m2, s11, s12, s22))
        lam2 = sum(f(lam_k) * (1 + f(x1)) for (x1, x2), lam_k in mm.default_atoms if x2 == -1.0)
        lam1 = sum(f(lam_k) * (1 + f(x2)) for (x1, x2), lam_k in mm.default_atoms if x1 == -1.0)
        e1, e2 = mpmath.exp(m1 + s11 / 2), mpmath.exp(m2 + s22 / 2)
        a = lam * (e1 - e2) + lam2 - lam1
        sig2 = f(mm.sigma1_sq) - 2 * f(mm.sigma12) + f(mm.sigma2_sq)
        mu, total = lam * T * e1, f(0)
        for n in range(max(0, int(mu - 12 * mpmath.sqrt(mu) - 30)), int(mu + 12 * mpmath.sqrt(mu) + 30)):
            log_forward = l + a * T + n * (m2 - m1 + (s22 - s11) / 2)
            s = mpmath.sqrt(sig2 * T + n * (s11 - 2 * s12 + s22))
            d1 = log_forward / s + s / 2
            put = mpmath.ncdf(s - d1) - mpmath.exp(log_forward) * mpmath.ncdf(-d1)
            total += mpmath.exp(n * mpmath.log(mu) - mu - mpmath.loggamma(n + 1)) * put
        return float(f(mm.spot1) * (1 - mpmath.exp(-lam2 * T) * (1 - total)))


def count_calls(monkeypatch, module, name):
    """List that records one entry per call of ``module.name`` from now on."""
    calls, original = [], getattr(module, name)

    def counted(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(module, name, counted)
    return calls


def scan_then_polish(fn, slope, lo, hi):
    """Reference minimiser: the best of 65 evenly spaced values of ``fn``,
    then plain Newton steps on ``slope(x) = (f'(x), f''(x))`` from that point."""
    xs = np.linspace(lo, hi, 65)
    k = int(np.argmin([fn(x) for x in xs]))
    assert 0 < k < 64, "reference scan found no interior minimum"
    x = float(xs[k])
    for _ in range(12):
        d1, d2 = slope(x)[:2]
        x -= d1 / d2
    return x


def defaults_only_model():
    return dc.MargrabeModel(
        spot1=100.0, spot2=100.0, maturity=1.0,
        sigma1_sq=0.0, sigma12=0.0, sigma2_sq=0.0,
        default_atoms=(((0.0, -1.0), 0.02),),
    )


def algebraic_model():
    """A jump body with no Gaussian envelope: no diffusion and fixed jump
    sizes (sigma_eff = s_eff = 0), so the remainder decays like 1/u^2 on the
    contour and is priced by its Poisson series."""
    return dc.MargrabeModel(
        spot1=100.0, spot2=100.0, maturity=1.0,
        sigma1_sq=0.0, sigma12=0.0, sigma2_sq=0.0,
        jump_intensity=0.4, jump_mean=(-0.1, -0.05),
        default_atoms=(((0.0, -1.0), 0.02),),
    )


def contour_model(kind, jump_model):
    return {
        "jump": jump_model,
        "near_degenerate": dataclasses.replace(
            jump_model, sigma1_sq=1e-5, sigma12=0.0, sigma2_sq=0.0
        ),
        "defaults_only": defaults_only_model(),
        "algebraic": algebraic_model(),
    }[kind]


class TestCumulant:
    def test_at_zero(self, merton_1d):
        assert dc.cumulant(0.0, merton_1d) == 0.0

    def test_pure_diffusion_closed_form(self):
        t = dc.LevyTriplet(
            1, np.array([0.07]), np.array([[0.09]]), dc.empty_measure(1),
            dc.TruncationSpec.identity(1),
        )
        v = 0.8 + 0.5j
        assert dc.cumulant(v, t) == pytest.approx(0.07 * v + 0.045 * v * v, rel=1e-14)

    def test_matches_simulation(self, merton_1d):
        v = 0.6
        k = dc.cumulant(v, merton_1d)
        est = dc.mc_stoch_exp(dc.rep_exp_affine(v), merton_1d, 1.0,
                              dc.SimConfig(n_paths=150_000, seed=27))
        assert est.z_score(np.exp(k)) < 3.0

    def test_conjugate_symmetry(self, merton_1d):
        v = 0.4 + 2.2j
        assert dc.cumulant(np.conj(v), merton_1d) == pytest.approx(
            np.conj(dc.cumulant(v, merton_1d)), rel=1e-13
        )


class TestUtilityDrift:
    def test_zero_exposure(self, merton_1d):
        assert dc.utility_drift(0.0, merton_1d) == 0.0

    def test_pure_diffusion_closed_form(self):
        alpha, sig2 = 0.06, 0.04
        t = dc.LevyTriplet(
            1, np.array([alpha]), np.array([[sig2]]), dc.empty_measure(1),
            dc.TruncationSpec.identity(1),
        )
        lam = 1.7
        expected = -alpha * lam + 0.5 * sig2 * (lam * lam - lam)
        assert dc.utility_drift(lam, t) == pytest.approx(expected, rel=1e-14)

    def test_atoms_hand_sum(self, atoms_1d):
        lam = 0.9
        got = dc.utility_drift(lam, atoms_1d)
        expected = -atoms_1d.b[0] * lam
        for x, gamma in ((0.08, 1.2), (-0.06, 1.0)):
            expected += gamma * (math.exp(-lam * math.expm1(x)) - 1 + lam * x)
        assert got == pytest.approx(expected, rel=1e-13)


class TestOptimizer:
    def test_symmetric_model_is_flat_at_zero(self):
        # Atom yields are +-10%; the drift is chosen so the objective is even.
        b = math.log(1.1) + math.log(0.9)
        t = dc.LevyTriplet(
            1, np.array([b]), np.zeros((1, 1)),
            dc.FiniteAtoms([[math.log(1.1)], [math.log(0.9)]], [1.0, 1.0]),
            dc.TruncationSpec.identity(1),
        )
        lam_star, _ = dc.optimize_exp_utility(t, (-4.0, 4.0))
        assert abs(lam_star) < 1e-12

    def test_discrete_trinomial_closed_form(self):
        m = dc.DiscreteModel([[math.log(1.1)], [0.0], [math.log(0.9)]], [0.4, 0.4, 0.2])
        lam_star, value = dc.optimize_discrete_exp_utility(m, (-2.0, 10.0))
        assert lam_star == pytest.approx(math.log(2.0) / 0.2, abs=1e-12)
        assert value == pytest.approx(
            0.4 * math.exp(-0.1 * lam_star) + 0.4 + 0.2 * math.exp(0.1 * lam_star), rel=1e-12
        )

    def test_first_order_condition_and_curvature(self, atoms_1d):
        lam_star, _ = dc.optimize_exp_utility(atoms_1d, (-5.0, 15.0))
        h = 1e-4
        up = dc.utility_drift(lam_star + h, atoms_1d)
        down = dc.utility_drift(lam_star - h, atoms_1d)
        mid = dc.utility_drift(lam_star, atoms_1d)
        assert abs((up - down) / (2 * h)) <= 1e-8
        assert up - 2 * mid + down > 0.0  # interior minimum of the exponent rate

    def test_optimum_prices_the_asset_fairly(self, atoms_1d):
        # At the optimal exposure the measure change makes the compounded
        # asset driftless: the changed exponent vanishes at v = 1.
        lam_star, _ = dc.optimize_exp_utility(atoms_1d, (-5.0, 15.0))
        assert abs(dc.memm_cumulant(1.0, lam_star, atoms_1d)) < 1e-9

    def test_no_interior_optimum_advises_wider_bracket(self, atoms_1d, monkeypatch):
        # u' > 0 at both ends: the one scan drift decides it.
        calls = count_calls(monkeypatch, pricing, "drift")
        with pytest.raises(EngineError, match=r"in \[10.0, 20.0\]; widen the bracket .*at the left edge"):
            dc.optimize_exp_utility(atoms_1d, (10.0, 20.0))
        assert len(calls) == 1

    def test_two_dimensional_model_is_refused_before_any_drift(self, monkeypatch):
        t = dc.LevyTriplet(
            2, np.array([0.05, 0.02]), np.array([[0.04, 0.006], [0.006, 0.01]]),
            dc.empty_measure(2), dc.TruncationSpec.unit_clip(2),
        )
        calls = count_calls(monkeypatch, pricing, "drift")
        with pytest.raises(ValueError, match="utility drift requires a one-dimensional model"):
            dc.optimize_exp_utility(t, (0.0, 8.0))
        assert calls == []

    @pytest.mark.parametrize("bracket", [(0.0, math.inf), (math.nan, 1.0)])
    def test_non_finite_bracket_rejected(self, bracket):
        calls = []
        with pytest.raises(ValueError, match="bracket ends must be finite"):
            pricing.minimize_scalar(lambda x: calls.append(x) or (1.0, 1.0), bracket)
        assert calls == []

    def test_unsettled_polish_names_the_bracket(self):
        # f = |x| has a kink at its minimum and f'' = 0, so every step
        # bisects; a bracket 3e30 wide needs about 150 halvings to reach the
        # settling tolerance near 0, more than the polish may take.
        calls = []

        def fn(x):
            calls.append(x)
            return np.sign(x), np.zeros_like(x)

        with pytest.raises(ConvergenceError, match=r"polish on \[-1e\+30, 2e\+30\] did not settle in 100 steps"):
            pricing.minimize_scalar(fn, (-1e30, 2e30))
        assert len(calls) == 1 + pricing.POLISH_STEPS

    def test_unsafe_newton_steps_are_replaced_by_bisection(self):
        # Newton steps of 1e-12 stay inside the bracket; taking each one
        # would crawl.  A step longer than half the previous one bisects
        # instead, so the search still reaches the kink at 0.
        def fn(x):
            return np.sign(x), np.full_like(x, 1e12)

        assert abs(pricing.minimize_scalar(fn, (-1.0, 2.0))) <= 1e-14

    def test_wide_bracket_settles_in_few_drifts(self, monkeypatch):
        # u grows like e^{c lam} on a Gaussian body: the Newton step from the
        # middle of (0, 800) is about 2 long.  Taking every such step did
        # not settle in 100 steps.
        t = dc.LevyTriplet(
            1, np.array([0.05]), np.array([[0.04]]),
            dc.GaussianPush(0.4, np.array([-0.1]), np.array([[0.04]])), dc.TruncationSpec.identity(1),
        )
        near, _ = dc.optimize_exp_utility(t, (0.0, 8.0))
        calls = count_calls(monkeypatch, pricing, "drift")
        lam_star, _ = dc.optimize_exp_utility(t, (0.0, 800.0))
        assert len(calls) <= 6
        assert lam_star == pytest.approx(near, abs=1e-12)
        assert near == pytest.approx(1.404, abs=1e-3)

    def test_interior_optimum_near_either_end_is_found(self, atoms_1d):
        lam_star, _ = dc.optimize_exp_utility(atoms_1d, (-5.0, 15.0))
        for bracket in ((lam_star - 0.05, lam_star + 19.95), (lam_star - 19.95, lam_star + 0.05)):
            lam, _ = dc.optimize_exp_utility(atoms_1d, bracket)
            assert lam == pytest.approx(lam_star, abs=1e-12)

    @pytest.mark.parametrize("offsets, side", [((1e-3, 5.0), "left"), ((-5.0, -1e-3), "right")])
    def test_optimum_just_outside_names_the_edge(self, atoms_1d, offsets, side):
        lam_star, _ = dc.optimize_exp_utility(atoms_1d, (-5.0, 15.0))
        bracket = (lam_star + offsets[0], lam_star + offsets[1])
        with pytest.raises(EngineError, match=f"widen the bracket .*at the {side} edge"):
            dc.optimize_exp_utility(atoms_1d, bracket)

    def test_every_bracket_beside_the_minimum_names_its_edge(self):
        # f(x) = e^x - x has its minimum at 0.  The slopes at the two ends
        # name the edge, in the one scan call whose first and last points
        # are the ends.
        rng = np.random.default_rng(3)
        for _ in range(300):
            gap, width = 10 ** rng.uniform(-6, 1), 10 ** rng.uniform(-3, 1.5)
            bracket, side = ((gap, gap + width), "left") if rng.random() < 0.5 else (
                (-gap - width, -gap), "right")
            calls = []

            def fn(x):
                calls.append(x)
                return np.expm1(x), np.exp(x)

            with pytest.raises(EngineError, match=f"at the {side} edge"):
                pricing.minimize_scalar(fn, bracket)
            assert len(calls) == 1
            assert (calls[0][0], calls[0][-1]) == bracket
            assert np.all(np.diff(calls[0]) > 0.0)

    @pytest.mark.parametrize("ends", [(np.nan, 1.0), (-1.0, np.inf)])
    def test_non_finite_end_slope_is_refused(self, ends):
        def fn(x):
            return np.array(ends), np.ones(2)

        with pytest.raises(EngineError, match="objective is not finite everywhere on the bracket"):
            pricing.minimize_scalar(fn, (0.0, 1.0))

    def test_flat_objective_names_the_right_edge(self):
        # u' = 0 at both ends: the right edge is checked first.
        with pytest.raises(EngineError, match="at the right edge"):
            pricing.minimize_scalar(lambda x: (np.zeros_like(x), np.zeros_like(x)), (0.0, 1.0))

    def test_bracket_below_zero_on_gaussian_body_fails_at_first_drift(self, merton_1d, monkeypatch):
        # The scan reaches the left end lam = -1, where the Gaussian body
        # makes the objective non-integrable, in the first drift.
        calls = count_calls(monkeypatch, pricing, "drift")
        with pytest.raises(NonIntegrableError, match="jump integral did not converge"):
            dc.optimize_exp_utility(merton_1d, (-1.0, 8.0))
        assert len(calls) == 1

    @pytest.mark.parametrize(
        "model, bracket",
        [("merton_1d", (0.0, 8.0)), ("atoms_1d", (-5.0, 15.0)), ("trinomial", (-2.0, 10.0))],
    )
    def test_agrees_with_scan_then_polish(self, request, monkeypatch, model, bracket):
        t = request.getfixturevalue(model)
        seen = {}
        original = pricing.minimize_scalar

        def spy(fn, bracket):
            seen.update(fn=fn)
            return original(fn, bracket)

        monkeypatch.setattr(pricing, "minimize_scalar", spy)
        if isinstance(t, dc.DiscreteModel):
            lam_star, _ = dc.optimize_discrete_exp_utility(t, bracket)

            def utility(lam):
                return dc.discrete_compensator(dc.rep_exp_utility(lam), t, 1.0)[0].real
        else:
            lam_star, _ = dc.optimize_exp_utility(t, bracket)

            def utility(lam):
                return dc.utility_drift(lam, t)
        reference = scan_then_polish(utility, seen["fn"], *bracket)
        assert lam_star == pytest.approx(reference, rel=1e-12, abs=1e-12)

    def test_optimum_costs_few_drifts(self, merton_1d, monkeypatch):
        # The scan and three Newton drifts, one tree each.  Newton starts at
        # the root of the cubic Hermite interpolant of u' on the scan cell,
        # 5e-6 from lam* here (the secant root is 5e-4 off): the cubic is off
        # u' by up to 3.5e-7 on this cell, so a third Newton drift still settles.
        calls = count_calls(monkeypatch, pricing, "drift")
        builds = count_calls(monkeypatch, pricing, "_rep_exp_utility_slope")
        lam_star, _ = dc.optimize_exp_utility(merton_1d, (0.0, 8.0))
        assert len(calls) <= 4
        assert len(builds) == len(calls)
        # the first Newton tree's lam leaf, in its weight - 1 = e^{-lam y} - 1
        start = calls[1][0].outputs[2].left.child.child.left
        assert type(start) is dc.Const and abs(start.value - lam_star) <= 1e-5

    def test_newton_starts_at_the_hermite_root(self):
        # f' = x^3 + x - 3: the cubic Hermite interpolant of f' on a cell
        # is f' itself, so Newton starts at its root and settles at once
        root = 1.2134116627622296
        calls = []

        def fn(x):
            calls.append(x)
            return x**3 + x - 3.0, 3.0 * x**2 + 1.0

        assert pricing.minimize_scalar(fn, (-4.0, 4.0)) == pytest.approx(root, rel=1e-15)
        assert calls[1] == pytest.approx(root, rel=1e-15)
        assert len(calls) <= 3

    @pytest.mark.parametrize("curvature", [35.0, 40.0])
    def test_hermite_root_outside_the_cell_starts_at_the_secant_root(self, curvature):
        # On the scan cell [4, 5], f' goes from -1 to 3, with f'' the same
        # at both ends.  The secant root is 4.25.  With f'' = 35 the cubic
        # through those data has slope 0.125 there, and Newton on it steps to
        # t = -23 and is still at t = -2.6 after six steps, outside the cell;
        # with f'' = 40 its slope there is -0.5.  Either way the secant root
        # is the start.  Off the scan, f' = x - 4.25.
        calls = []

        def fn(x):
            calls.append(x)
            if np.ndim(x):
                return np.where(x < 4.5, -1.0, 3.0), np.full_like(x, curvature)
            return x - 4.25, 1.0

        assert pricing.minimize_scalar(fn, (0.0, 16.0)) == 4.25
        assert calls[1] == 4.25
        assert len(calls) == 2

    def test_newton_step_below_one_ulp_settles(self, monkeypatch):
        # Newton reaches lam* from one side here: its last step rounds to the
        # current point, which is then a bracket end.  Taking that step
        # settles at once; bisecting instead walks the whole bracket back.
        t = dc.LevyTriplet(
            1, np.array([0.03126035949952959]), np.array([[0.0380347282894468]]),
            dc.GaussianPush(0.7000763732837336, np.array([0.023554208155132095]),
                            np.array([[0.016851080604062502]])),
            dc.TruncationSpec.unit_clip(1),
        )
        calls = count_calls(monkeypatch, pricing, "drift")
        lam_star, _ = dc.optimize_exp_utility(t, (0.0, 8.0))
        assert lam_star == pytest.approx(1.097256332595609, rel=1e-13)
        assert len(calls) <= 4

    def test_a_settling_newton_step_past_half_the_last_is_taken(self, trinomial, monkeypatch):
        # lam* = 0 here.  Near it, a Newton step of 5.8e-16, within the settle
        # tolerance, rounds to just over half the previous step; refusing it
        # bisects away from lam*, and the polish then halves the bracket one
        # drift at a time (26 drifts).
        calls = count_calls(monkeypatch, pricing, "drift")
        lam_star, value = dc.optimize_discrete_exp_utility(trinomial, (-2.0, 10.0))
        assert abs(lam_star) <= 1e-14 and value == pytest.approx(1.0, abs=1e-15)
        assert len(calls) <= 5


class TestUtilitySlope:
    """The derivative tree's drift is the pair of lam-derivatives of the
    utility drift."""

    @pytest.mark.parametrize("model", ["merton_1d", "atoms_1d"])
    @pytest.mark.parametrize("lam", [0.5, 1.5, 4.0, 7.0])
    def test_matches_central_differences(self, request, model, lam):
        t = request.getfixturevalue(model)
        d1, d2 = dc.drift(_rep_exp_utility_slope(lam), t).total[:2]
        h = 1e-3
        up, mid, down = (dc.utility_drift(lam + s, t) for s in (h, 0.0, -h))
        assert d1 == pytest.approx((up - down) / (2 * h), rel=1e-7)
        assert d2 == pytest.approx((up - 2 * mid + down) / h**2, rel=1e-6)

    @pytest.mark.parametrize("model", ["merton_1d", "atoms_1d", "trinomial"])
    def test_a_lam_array_is_its_points(self, request, model):
        t = request.getfixturevalue(model)
        if isinstance(t, dc.DiscreteModel):
            t = dc.LevyTriplet(1, np.zeros(1), np.zeros((1, 1)), t, dc.TruncationSpec.zero(1))
        lams = np.array([0.0, 0.5, 1.25, 7.0])
        got = dc.drift(_rep_exp_utility_slope(lams), t).total
        one = np.array([dc.drift(_rep_exp_utility_slope(lam), t).total for lam in lams])
        # columns in (output, parameter) order; a batched Gaussian-body sum
        # may differ from a one-point one in its last bit
        want = one.T.ravel()
        assert np.all(np.abs(got - want) <= 1e-15 * (1.0 + np.abs(want)))

    @pytest.mark.parametrize("model", ["merton_1d", "atoms_1d"])
    @pytest.mark.parametrize("lam", [0.0, -0.5, 1e-3, 1.4, 8.0, 800.0])
    def test_a_constant_leaf_is_a_one_value_parameter_leaf(self, request, model, lam):
        # a Newton step's tree holds its lam in a Const leaf
        const, param = _rep_exp_utility_slope(lam), _rep_exp_utility_slope(np.array([lam]))
        assert const._width == 0 and param._width == 1 and const.output_dim == param.output_dim == 3
        for part in ("value", "jacobian", "hessian"):
            assert same_bits(getattr(const.jet_at_zero(), part), getattr(param.jet_at_zero(), part))
        for X in (SLOPE_POINTS, SLOPE_POINTS.astype(complex)):
            assert same_bits(const.eval_batch(X), param.eval_batch(X))
        t = request.getfixturevalue(model)
        assert drift_outcome(const, t) == drift_outcome(param, t)

    @pytest.mark.parametrize("bracket", [(-1.0, 7.0), (0.0, 8.0), (0.0, 800.0)], ids=str)
    def test_each_scan_column_is_its_one_value_tree(self, bracket):
        lams = np.linspace(*bracket, pricing.SCAN_POINTS)
        scan = _rep_exp_utility_slope(lams)
        K = len(lams)
        outs = {part: getattr(scan.jet_at_zero(), part) for part in ("value", "jacobian", "hessian")}
        points = (SLOPE_POINTS, SLOPE_POINTS.astype(complex))
        evals = [scan.eval_batch(X) for X in points]
        for j, lam in enumerate(lams.tolist()):
            one, columns = _rep_exp_utility_slope(lam), [j, K + j, 2 * K + j]
            for part, block in outs.items():
                assert same_bits(block[columns], getattr(one.jet_at_zero(), part))
            for X, out in zip(points, evals):
                assert same_bits(out[:, columns], one.eval_batch(X))

    @pytest.mark.parametrize("lam", [-2.0, 0.0, 3.0])
    def test_discrete_compensator_on_trinomial(self, trinomial, lam):
        y = np.expm1(trinomial.points[:, 0])
        weight = trinomial.probabilities * np.exp(-lam * y)
        d1, d2 = dc.discrete_compensator(_rep_exp_utility_slope(lam), trinomial, 1.0)[:2]
        assert d1 == pytest.approx(-np.sum(weight * y), rel=1e-13)
        assert d2 == pytest.approx(np.sum(weight * y * y), rel=1e-13)


#: points for the slope trees: both sides of 0, 0 itself, a large jump
SLOPE_POINTS = np.array([[-3.0], [-0.2], [0.0], [1e-3], [0.7], [5.0]])


def same_bits(a, b) -> bool:
    """True if two arrays have one dtype and shape and the same bytes."""
    a, b = np.ascontiguousarray(a), np.ascontiguousarray(b)
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


def drift_outcome(xi, t):
    """The bytes of every part of a drift report, or its error's class and message."""
    try:
        report = dc.drift(xi, t)
    except EngineError as exc:
        return type(exc), str(exc)
    return [getattr(report, p).tobytes() for p in ("total", "linear_part", "quadratic_part", "jump_part")]


def midpoint_newton(fn, bracket):
    """The optimiser before the scan, kept as an oracle: one call at both
    ends for the edge verdicts, then bracketed Newton from the midpoint,
    returning the last Newton update."""
    lo, hi = float(bracket[0]), float(bracket[1])
    ends = np.asarray(fn(np.array([lo, hi]))[:2], dtype=float)
    if not np.all(np.isfinite(ends)):
        raise EngineError("objective is not finite everywhere on the bracket")
    if ends[0, 1] <= 0.0 or ends[0, 0] >= 0.0:
        raise EngineError("no interior minimum")
    a, b, x, step = lo, hi, 0.5 * (lo + hi), hi - lo
    for _ in range(pricing.POLISH_STEPS):
        d1, d2 = fn(x)[:2]
        a, b = (a, x) if d1 > 0.0 else (x, b)
        new = 0.5 * (a + b)
        if d2 > 0.0 and a <= x - d1 / d2 <= b and abs(d1 / d2) <= 0.5 * abs(step):
            new = x - d1 / d2
        step = new - x
        if abs(step) <= 1e-15 * (1.0 + abs(x)):
            return new
        x = new
    raise ConvergenceError("Newton polish did not settle")


def oracle_optimum(t, bracket):
    """(lam*, u(lam*)) by ``midpoint_newton`` and a separate utility drift."""

    def slope(lam):
        rows = dc.drift(_rep_exp_utility_slope(lam), t).total.real.reshape(3, -1)[:2]
        return rows if np.ndim(lam) else rows[:, 0]

    lam_star = midpoint_newton(slope, bracket)
    return lam_star, dc.utility_drift(lam_star, t)


def outcome(optimum, t, bracket):
    """(lam*, u) of an optimiser, or the class of the error it raises."""
    try:
        return optimum(t, bracket)
    except EngineError as exc:
        return type(exc)


@st.composite
def utility_models(draw):
    """One-dimensional models for the optimiser: atoms, a Gaussian body or
    both, with or without diffusion, under each truncation."""
    kind = draw(st.sampled_from(["atoms", "gaussian_push", "mixed"]))
    parts = []
    if kind != "gaussian_push":
        sizes = draw(st.lists(st.integers(-300, 300), min_size=1, max_size=3, unique=True))
        parts.append(dc.FiniteAtoms([[k / 1000] for k in sizes],
                                    [draw(st.floats(0.05, 2.0)) for _ in sizes]))
    if kind != "atoms":
        parts.append(dc.GaussianPush(draw(st.floats(0.05, 1.0)), np.array([draw(st.floats(-0.2, 0.1))]),
                                     np.array([[draw(st.floats(0.0025, 0.04))]])))
    truncation = draw(st.sampled_from([dc.TruncationSpec.identity, dc.TruncationSpec.unit_clip,
                                       dc.TruncationSpec.zero]))(1)
    c = draw(st.sampled_from([0.0, draw(st.floats(0.005, 0.09))]))
    return dc.LevyTriplet(1, np.array([draw(st.floats(-0.1, 0.2))]), np.array([[c]]),
                          dc.sum_measure(parts, 1), truncation)


def slope_scale(t, lam):
    """The magnitudes the utility slope u'(lam) sums, |b| + |2 lam - 1| c / 2
    + int |y| e^{-lam y} + |x| dF with y = e^x - 1, a Gaussian body's
    integral by the trapezoid rule over 12 standard deviations: rounding
    moves the computed u' by about one ulp of this scale."""

    def magnitude(m):
        if isinstance(m, dc.FiniteAtoms):
            x, nu = m.points[:, 0], m.intensities
        else:
            z = np.linspace(-12.0, 12.0, 4801)
            x, nu = m.mean[0] + math.sqrt(m.cov[0, 0]) * z, m.intensity * norm.pdf(z) * (z[1] - z[0])
        y = np.expm1(x)
        return float(np.sum(nu * (np.abs(y) * np.exp(-lam * y) + np.abs(x))))

    parts = getattr(t.jumps, "parts", (t.jumps,))
    return abs(t.b[0]) + 0.5 * abs(2.0 * lam - 1.0) * t.c[0, 0] + sum(map(magnitude, parts))


@settings(max_examples=60, deadline=None)
@given(utility_models(), st.floats(0.05, 20.0), st.floats(0.05, 20.0))
# a flat objective: u'' = 1e-6 against slope terms of 1e-3 leaves lam*
# resolved to about 4e-13, where the two optimisers differ by 2e-14
@example(dc.LevyTriplet(1, np.zeros(1), np.zeros((1, 1)), dc.FiniteAtoms([[0.001]], [1.0]),
                        dc.TruncationSpec.identity(1)), 1.0, 1.0)
def test_scan_newton_agrees_with_midpoint_newton(t, below, above):
    # A wide bracket first (lam < 0 is not integrable on a Gaussian body),
    # then one drawn around the optimum it found.
    body = any(isinstance(m, dc.GaussianPush) for m in getattr(t.jumps, "parts", (t.jumps,)))
    lo = 0.0 if body else -40.0
    bracket = (lo, 40.0)
    for _ in range(2):
        old, new = outcome(oracle_optimum, t, bracket), outcome(dc.optimize_exp_utility, t, bracket)
        if not isinstance(old, tuple):
            assert new is old
            return
        assert isinstance(new, tuple), new
        (lam_old, _), (lam, u) = old, new
        # u' vanishes at lam* only to within its rounding, so where u is so
        # flat that this leaves lam* looser than 4e-15 (1 + |lam*|), the two
        # optimisers agree to that looser resolution
        curvature = dc.drift(_rep_exp_utility_slope(lam), t).total[1].real
        resolution = np.finfo(float).eps * slope_scale(t, lam) / curvature
        assert abs(lam - lam_old) <= max(4e-15 * (1.0 + abs(lam)), resolution)
        assert abs(u - dc.utility_drift(lam, t)) <= 1e-15 * (1.0 + abs(u))
        bracket = (max(lo, lam_old - below), lam_old + above)


class TestMemmCumulant:
    def test_at_zero(self, merton_1d):
        assert dc.memm_cumulant(0.0, 0.8, merton_1d) == 0.0

    def test_zero_exposure_reduces_to_cumulant(self, merton_1d):
        v = 0.5 + 1.0j
        a = dc.memm_cumulant(v, 0.0, merton_1d)
        b = dc.cumulant(v, merton_1d)
        assert a == pytest.approx(b, rel=1e-13)

    def test_matches_reweighted_simulation(self, merton_1d):
        v, lam_star = 0.8, 0.7
        kq = dc.memm_cumulant(v, lam_star, merton_1d)
        est = dc.mc_reweighted(
            dc.rep_exp_affine(v), dc.rep_exp_utility(lam_star), merton_1d, 1.0,
            dc.SimConfig(n_paths=150_000, seed=29),
        )
        assert est.z_score(np.exp(kq)) < 3.0


class TestGridCumulants:
    def test_scalar_cumulant_is_the_one_root_drift(self, merton_1d):
        k = dc.cumulant(0.5, merton_1d)
        assert type(k) is complex
        assert k == dc.drift(dc.rep_exp_affine(0.5), merton_1d).scalar()
        kq = dc.memm_cumulant(0.5, 0.7, merton_1d)
        assert type(kq) is complex
        assert kq == dc.drift_q(
            dc.rep_exp_affine(0.5), dc.rep_exp_utility(0.7), merton_1d
        ).scalar()

    @staticmethod
    def _sum_body():
        return dc.LevyTriplet(
            1, np.array([0.05]), np.array([[0.04]]),
            dc.sum_measure([
                dc.FiniteAtoms([[0.1]], [0.25]),
                dc.GaussianPush(0.4, np.array([-0.1]), np.array([[0.0625]])),
            ], 1),
            dc.TruncationSpec.unit_clip(1),
        )

    @pytest.mark.parametrize("model", ["merton_1d", "atoms_1d", "sum_body"])
    @pytest.mark.parametrize("imag", [0.0, 0.75])
    def test_a_grid_is_its_points_bit_for_bit(self, model, imag, request):
        t = self._sum_body() if model == "sum_body" else request.getfixturevalue(model)
        v = np.linspace(-1.0, 1.0, 9) + 1j * imag
        grid = dc.rep_exp_affine(v)
        points = [dc.rep_exp_affine(vk) for vk in v]
        X = np.linspace(-0.9, 2.0, 7)[:, None].astype(complex)
        np.testing.assert_array_equal(grid.eval_batch(X), np.hstack([f.eval_batch(X) for f in points]))
        for name in ("value", "jacobian", "hessian"):
            np.testing.assert_array_equal(
                getattr(grid.jet_at_zero(), name),
                np.concatenate([getattr(f.jet_at_zero(), name) for f in points]),
            )
        # The tree of one root per point is the grid's former form: the
        # drifts are those of the same integrals on the same ladder.
        x = dc.Coord(0)
        roots = dc.RepFn(1, tuple(dc.Exp(dc.Const(vk) * x) - dc.Const(1.0) for vk in v))
        eta = dc.rep_exp_utility(0.7)
        kappa, kappa_q = dc.cumulant(v, t), dc.memm_cumulant(v, 0.7, t)
        np.testing.assert_array_equal(kappa, dc.drift(roots, t).total)
        np.testing.assert_array_equal(kappa_q, dc.drift_q(roots, eta, t).total)
        if model == "atoms_1d":  # atom sums are exact: each point alone agrees
            np.testing.assert_array_equal(kappa, [dc.cumulant(vk, t) for vk in v])
            np.testing.assert_array_equal(kappa_q, [dc.memm_cumulant(vk, 0.7, t) for vk in v])

    def test_a_grid_is_one_small_tree_for_memm_too(self):
        sizes = {
            len(dc.girsanov_adjust(dc.rep_exp_affine(np.linspace(0.0, 1.0, K)), dc.rep_exp_utility(0.7))._tape)
            for K in (1, 4, 128)
        }
        assert len(sizes) == 1

    def test_a_grid_value_is_its_one_point_value(self):
        # The one-dimensional marginal of the levy example in
        # docs/model-schema.md at lambda = 2: alone, v = 0.5 stops at 31
        # nodes, within its tolerance but a few 1e-14 off, while the other
        # points climb to 63.  Each output stops on its own level, so the
        # grid keeps the one-point value; accuracy comes from the tolerance.
        t = dc.LevyTriplet(
            1, np.array([0.05]), np.array([[0.04]]),
            dc.sum_measure([
                dc.FiniteAtoms([[0.1]], [0.25]),
                dc.GaussianPush(0.4, np.array([-0.1]), np.array([[0.0625]])),
            ], 1),
            dc.TruncationSpec.unit_clip(1),
        )
        grid = np.linspace(0.0, 2.0, 9)
        tight = dc.QuadratureConfig(rel_tol=1e-14)
        ref = np.array([dc.memm_cumulant(v, 2.0, t, tight) for v in grid])
        per_point = np.array([dc.memm_cumulant(v, 2.0, t) for v in grid])
        scale = 1.0 + np.abs(ref)
        assert np.all(np.abs(dc.memm_cumulant(grid, 2.0, t) - per_point) <= 1e-15 * (1.0 + np.abs(per_point)))
        assert np.abs(per_point[2] - ref[2]) > 1e-14 * scale[2]
        assert np.all(np.abs(per_point - ref) <= 1e-10 * scale)
        assert np.all(np.abs(dc.memm_cumulant(grid, 2.0, t, tight) - ref) <= 1e-15 * scale)


class TestDefaultIntensities:
    def test_no_defaults(self):
        mm = dc.MargrabeModel(
            spot1=1.0, spot2=1.0, maturity=1.0,
            sigma1_sq=0.04, sigma12=0.0, sigma2_sq=0.04,
        )
        assert dc.default_intensities(mm) == (0.0, 0.0)

    def test_single_default_atom(self):
        mm = dc.MargrabeModel(
            spot1=1.0, spot2=1.0, maturity=1.0,
            sigma1_sq=0.04, sigma12=0.0, sigma2_sq=0.04,
            default_atoms=(((0.0, -1.0), 0.02),),
        )
        assert dc.default_intensities(mm) == (pytest.approx(0.02), 0.0)

    def test_joint_default_contributes_nothing(self):
        mm = dc.MargrabeModel(
            spot1=1.0, spot2=1.0, maturity=1.0,
            sigma1_sq=0.04, sigma12=0.0, sigma2_sq=0.04,
            default_atoms=(((-1.0, -1.0), 0.01),),
        )
        assert dc.default_intensities(mm) == (0.0, 0.0)

    def test_atom_without_default_coordinate_rejected(self):
        with pytest.raises(ValueError, match="-1"):
            dc.MargrabeModel(
                spot1=1.0, spot2=1.0, maturity=1.0,
                sigma1_sq=0.04, sigma12=0.0, sigma2_sq=0.04,
                default_atoms=(((0.5, 0.5), 0.01),),
            )


class TestExchangeKappa:
    def test_kappa_zero_is_minus_default_intensity(self, margrabe_jump_model):
        k0 = dc.margrabe_kappa(0.0, margrabe_jump_model)
        assert abs(k0 - (-0.02)) <= 1e-12

    def test_pure_diffusion_reduction(self):
        mm = dc.MargrabeModel(
            spot1=1.0, spot2=1.0, maturity=1.0,
            sigma1_sq=0.04, sigma12=0.03, sigma2_sq=0.09,
        )
        v = 0.3 + 4.0j
        expected = 0.5 * (0.04 - 0.06 + 0.09) * v * (v - 1.0)
        assert dc.margrabe_kappa(v, mm) == pytest.approx(expected, rel=1e-14)

    def test_generic_point_matches_drift_engine(self, margrabe_jump_model):
        v = 0.5 + 2.0j
        closed = dc.margrabe_kappa(v, margrabe_jump_model)
        generic = dc.drift(dc.rep_margrabe(v), margrabe_jump_model.triplet()).total[0]
        assert abs(closed - generic) <= 1e-9 * max(1.0, abs(closed))

    def test_flat_first_asset_reduces_to_power_exponent(self):
        # With asset 1 frozen the exchange exponent is the exponent of the
        # one-dimensional power transform of asset 2's compounding factor.
        sig2_sq, lam, m2, s22 = 0.09, 0.5, -0.08, 0.04
        mm = dc.MargrabeModel(
            spot1=1.0, spot2=1.0, maturity=1.0,
            sigma1_sq=0.0, sigma12=0.0, sigma2_sq=sig2_sq,
            jump_intensity=lam, jump_mean=(0.0, m2),
            jump_cov=((0.0, 0.0), (0.0, s22)),
        )
        t2 = dc.LevyTriplet(
            1, np.zeros(1), np.array([[sig2_sq]]),
            dc.GaussianPush(lam, np.array([m2]), np.array([[s22]])),
            dc.TruncationSpec.identity(1),
        )
        for v in (0.5, 2.0, 0.5 + 3.0j):
            closed = dc.margrabe_kappa(v, mm)
            generic = dc.drift(dc.rep_power(v), t2).total[0]
            assert abs(closed - generic) <= 1e-10 * max(1.0, abs(closed))

    def test_martingale_normalisation(self, margrabe_jump_model):
        report = dc.drift(dc.rep_identity(2), margrabe_jump_model.triplet())
        assert np.max(np.abs(report.total)) <= 1e-14


class TestExchangePrice:
    def test_no_jump_classical_reduction(self):
        mm = dc.MargrabeModel(
            spot1=100.0, spot2=100.0, maturity=1.0,
            sigma1_sq=0.04, sigma12=0.03, sigma2_sq=0.09,
        )
        price, diags = dc.margrabe_price(mm)
        expected = classical_exchange_price(100.0, 100.0, math.sqrt(0.07), 1.0)
        assert abs(price - expected) <= 1e-6 * expected
        assert diags.kappa0 == 0.0
        assert diags.terms == 1

    def test_worthless_counter_asset_limit(self):
        mm = dc.MargrabeModel(
            spot1=100.0, spot2=1e-6, maturity=1.0,
            sigma1_sq=0.04, sigma12=0.03, sigma2_sq=0.09,
        )
        price, _ = dc.margrabe_price(mm)
        assert abs(price - 100.0) <= 1e-4 * 100.0

    def test_deep_out_of_the_money(self):
        mm = dc.MargrabeModel(
            spot1=1.0, spot2=150.0, maturity=1.0,
            sigma1_sq=0.04, sigma12=0.0, sigma2_sq=0.0,
        )
        price, _ = dc.margrabe_price(mm)
        assert price == pytest.approx(0.0, abs=1e-9)

    def test_full_jump_model_matches_simulation(self, margrabe_jump_model):
        price, _ = dc.margrabe_price(margrabe_jump_model)
        est = dc.mc_margrabe(margrabe_jump_model, dc.SimConfig(n_paths=200_000, seed=7))
        assert est.z_score(price) < 3.0

    def test_homogeneity_in_spots(self, margrabe_jump_model):
        base, _ = dc.margrabe_price(margrabe_jump_model)
        scaled_model = dc.MargrabeModel(
            spot1=margrabe_jump_model.spot1 * 2.5,
            spot2=margrabe_jump_model.spot2 * 2.5,
            maturity=margrabe_jump_model.maturity,
            sigma1_sq=margrabe_jump_model.sigma1_sq,
            sigma12=margrabe_jump_model.sigma12,
            sigma2_sq=margrabe_jump_model.sigma2_sq,
            jump_intensity=margrabe_jump_model.jump_intensity,
            jump_mean=margrabe_jump_model.jump_mean,
            jump_cov=margrabe_jump_model.jump_cov,
            default_atoms=margrabe_jump_model.default_atoms,
        )
        scaled, _ = dc.margrabe_price(scaled_model)
        assert abs(scaled - 2.5 * base) <= 1e-10 * abs(2.5 * base)

    def test_defaults_raise_the_price(self, margrabe_jump_model):
        no_default = dc.MargrabeModel(
            spot1=100.0, spot2=100.0, maturity=1.0,
            sigma1_sq=0.04, sigma12=0.006, sigma2_sq=0.01,
            jump_intensity=0.4, jump_mean=(-0.1, -0.05),
            jump_cov=((0.0625, 0.02), (0.02, 0.0625)),
        )
        p_plain, _ = dc.margrabe_price(no_default)
        p_default, _ = dc.margrabe_price(margrabe_jump_model)
        est_plain = dc.mc_margrabe(no_default, dc.SimConfig(n_paths=100_000, seed=19))
        est_default = dc.mc_margrabe(margrabe_jump_model, dc.SimConfig(n_paths=100_000, seed=19))
        assert p_default > p_plain
        assert est_default.mean.real > est_plain.mean.real

    def test_longer_maturity_classical_reduction(self):
        mm = dc.MargrabeModel(
            spot1=100.0, spot2=90.0, maturity=2.0,
            sigma1_sq=0.04, sigma12=0.03, sigma2_sq=0.09,
        )
        price, _ = dc.margrabe_price(mm)
        expected = classical_exchange_price(100.0, 90.0, math.sqrt(0.07), 2.0)
        assert abs(price - expected) <= 1e-6 * expected

    def test_defaults_only_model_prices_the_default_mass(self):
        # No diffusion and no jump body: the ratio is deterministic except
        # for defaults, so the default mass and one put are the whole price.
        price, diags = dc.margrabe_price(defaults_only_model())
        expected = 100.0 * (1.0 - math.exp(-0.02))
        assert abs(price - expected) <= 1e-14 * 100.0
        assert (diags.nodes, diags.tail_mass, diags.u_max_used, diags.terms) == (0, 0.0, 0.0, 1)
        est = dc.mc_margrabe(defaults_only_model(), dc.SimConfig(n_paths=200_000, seed=44))
        assert est.z_score(price) < 3.0

    def test_defaults_only_in_the_money_branch(self):
        # Survival leaves the exchange in the money, so both branches pay.
        mm = dc.MargrabeModel(
            spot1=100.0, spot2=80.0, maturity=1.0,
            sigma1_sq=0.0, sigma12=0.0, sigma2_sq=0.0,
            default_atoms=(((0.0, -1.0), 0.02),),
        )
        price, _ = dc.margrabe_price(mm)
        expected = 100.0 * (1.0 - math.exp(-0.02)) + math.exp(-0.02) * (
            100.0 - 80.0 * math.exp(0.02)
        )
        assert abs(price - expected) <= 1e-6 * expected

    def test_antithetic_simulation_agrees(self, margrabe_jump_model):
        plain = dc.mc_margrabe(margrabe_jump_model, dc.SimConfig(n_paths=100_000, seed=51))
        anti = dc.mc_margrabe(
            margrabe_jump_model, dc.SimConfig(n_paths=100_000, seed=52, antithetic=True)
        )
        joint = math.hypot(plain.std_error, anti.std_error)
        assert abs(plain.mean - anti.mean) <= 4 * joint

    @pytest.mark.parametrize(
        "field, value",
        [("rel_tol", math.nan), ("rel_tol", -1.0), ("rel_tol", 0.0), ("rel_tol", math.inf)],
    )
    def test_non_finite_or_non_positive_contour_settings_rejected(
        self, margrabe_jump_model, field, value
    ):
        # rel_tol, the series' tail tolerance, is the one pricing setting
        with pytest.raises(ValueError, match=field):
            dc.margrabe_price(margrabe_jump_model, **{field: value})

    @pytest.mark.parametrize(
        "field, value, match",
        [
            ("spot1", math.nan, "spot1"), ("spot2", math.inf, "spot2"),
            ("maturity", math.inf, "maturity"), ("sigma1_sq", math.nan, "sigma1_sq"),
            ("sigma12", math.nan, "sigma12"), ("jump_intensity", math.nan, "jump_intensity"),
            ("jump_mean", (math.nan, 0.0), "jump_mean"),
            ("jump_mean", (-0.1, -0.05, 0.3), "jump_mean"),
            ("jump_cov", ((math.nan, 0.0), (0.0, 0.04)), "jump_cov"),
            ("default_atoms", (((math.inf, -1.0), 0.02),), "default atom"),
            ("default_atoms", (((0.0, -1.0), math.nan),), "default atom"),
            # e^{m_i + S_ii / 2}, the mean jump factor, overflows a float
            ("jump_mean", (0.0, 800.0), "jump_mean"),
            ("jump_mean", (800.0, 0.0), "jump_mean"),
            ("jump_cov", ((1420.0, 0.0), (0.0, 0.04)), "jump_cov"),
        ],
    )
    def test_unpriceable_model_inputs_rejected(self, margrabe_jump_model, field, value, match):
        with pytest.raises(ValueError, match=match):
            dataclasses.replace(margrabe_jump_model, **{field: value})


class TestBatchedContour:
    """The Poisson series over the number of body jumps must give the
    tests' own contour price, summed panel by panel (``split_price``), and
    the full-transform contour's; the engine runs no contour, so ``nodes``
    and ``u_max_used`` are 0."""

    @pytest.mark.parametrize("kind", ["jump", "near_degenerate", "defaults_only", "algebraic"])
    def test_matches_panel_by_panel_sum(self, monkeypatch, margrabe_jump_model, kind):
        mm = contour_model(kind, margrabe_jump_model)
        kappa_calls = count_calls(monkeypatch, pricing, "margrabe_kappa")
        price, diags = dc.margrabe_price(mm)
        assert kappa_calls == []
        ref_price, _, _ = split_price(mm)
        assert abs(price - ref_price) <= 1e-14 * mm.spot1
        terms = {"jump": 14, "near_degenerate": 14, "defaults_only": 1, "algebraic": 14}[kind]
        assert (diags.nodes, diags.u_max_used, diags.terms) == (0, 0.0, terms)

    @pytest.mark.parametrize("kind", ["jump", "near_degenerate", "defaults_only"])
    def test_matches_the_full_transform_contour(self, margrabe_jump_model, kind):
        mm = contour_model(kind, margrabe_jump_model)
        price, _ = dc.margrabe_price(mm)
        ref_price, _, _ = full_kappa_price(mm)
        assert abs(price - ref_price) <= 5e-10 * mm.spot1

    @pytest.mark.parametrize(
        "kind, nodes, u_max_used",
        [
            ("jump", 576, 24.0),
            ("near_degenerate", 720, 30.0),
            ("defaults_only", 0, 0.0),
            ("algebraic", 0, 0.0),
        ],
    )
    def test_contour_length_is_pinned(self, margrabe_jump_model, kind, nodes, u_max_used):
        # the oracle's contour keeps its length; the engine runs none
        mm = contour_model(kind, margrabe_jump_model)
        _, diags = dc.margrabe_price(mm)
        _, ref_nodes, ref_u = split_price(mm)
        assert (ref_nodes, ref_u) == (nodes, u_max_used)
        assert (diags.nodes, diags.u_max_used) == (0, 0.0)

    def test_flat_envelope_prices_by_the_series(self):
        # w = 0: given the number of jumps the ratio is deterministic, so
        # the remainder is a Poisson sum of intrinsic values
        price, diags = dc.margrabe_price(algebraic_model())
        assert abs(price - reference_price(algebraic_model())) <= 1e-15 * 100.0
        assert (diags.nodes, diags.u_max_used) == (0, 0.0)
        assert 0.0 < diags.tail_mass <= 1e-16

    def test_series_converges_at_the_smallest_tolerance(self):
        price, diags = dc.margrabe_price(algebraic_model(), rel_tol=1e-300)
        assert diags.tail_mass <= 1e-300
        assert abs(price - reference_price(algebraic_model())) <= 1e-15 * 100.0

    def test_envelope_cut_past_u_max_takes_the_series(self):
        # w = 1e-20: a contour's Gaussian envelope would reach 1e-16 only
        # far beyond any cut; the series prices it as with w = 0.
        flat = dataclasses.replace(algebraic_model(), sigma1_sq=1e-20)
        price, diags = dc.margrabe_price(flat)
        assert abs(price - reference_price(algebraic_model())) <= 1e-15 * 100.0
        assert (diags.nodes, diags.u_max_used) == (0, 0.0)
        _, tight = dc.margrabe_price(flat, rel_tol=1e-300)
        assert tight.tail_mass <= 1e-300

    def test_overflowing_envelope_takes_the_series(self, margrabe_jump_model):
        # unit jump variances: the series gives the beta = -0.5 contour's price
        mm = dataclasses.replace(margrabe_jump_model, jump_cov=((1.0, 0.0), (0.0, 1.0)))
        price, diags = dc.margrabe_price(mm)
        ref_price, ref_nodes, _ = split_price(mm)
        assert (diags.nodes, diags.u_max_used) == (0, 0.0)
        assert ref_nodes > 0
        assert abs(price - ref_price) <= 1e-13 * mm.spot1

    def test_fast_turning_body_takes_the_series(self):
        # lam T e^{Q(beta + iu)} turns its phase by z0 |q1 + s2 beta| = 17
        # per unit u, about five turns per panel: the contour missed the
        # reference by 1.1e-2 spot1 here, the series does not.
        mm = dc.MargrabeModel(
            spot1=100.0, spot2=100.0, maturity=1.0,
            sigma1_sq=0.04, sigma12=0.0, sigma2_sq=0.04,
            jump_intensity=4.0, jump_mean=(0.0, -1.5), jump_cov=((0.5, 0.0), (0.0, 0.5)),
            default_atoms=(((0.0, -1.0), 0.02),),
        )
        price, diags = dc.margrabe_price(mm)
        assert (diags.nodes, diags.u_max_used) == (0, 0.0)
        assert abs(price - reference_price(mm)) <= 1e-15 * mm.spot1

    def test_large_jump_mass_prices_finitely(self):
        # lam T = 1000: z0 = 882 overflows e^{z0} on the contour (the price
        # came out NaN), and e^{-mu} underflows; the series never forms it,
        # as its weights are ratios to the mode's.
        mm = dc.MargrabeModel(
            spot1=100.0, spot2=100.0, maturity=5.0,
            sigma1_sq=0.04, sigma12=0.0, sigma2_sq=0.0,
            jump_intensity=200.0, jump_mean=(-0.1, -0.05),
            default_atoms=(((0.0, -1.0), 0.02),),
        )
        price, diags = dc.margrabe_price(mm)
        assert (diags.nodes, diags.u_max_used) == (0, 0.0)
        assert 0.0 < diags.tail_mass <= 1e-16
        assert abs(price - series_price(mm, 2_000)) <= 1e-12 * mm.spot1

    @pytest.mark.parametrize("kind", ["jump", "near_degenerate"])
    def test_tail_mass_bounds_the_cut_contour(self, margrabe_jump_model, kind):
        # The series summed to a bound of 1e-300 moves the price by no more
        # than the reported bound (plus rounding).
        mm = contour_model(kind, margrabe_jump_model)
        price, diags = dc.margrabe_price(mm)
        longer, more = dc.margrabe_price(mm, rel_tol=1e-300)
        assert more.tail_mass <= 1e-300 < diags.tail_mass
        assert diags.tail_mass <= 1e-16
        assert abs(price - longer) <= (diags.tail_mass + 1e-15) * mm.spot1


def test_a_million_and_a_half_jumps_price_the_unmoved_ratio():
    # lam T = 1.5e6: both assets take the same jumps, so the ratio never
    # moves and every put is the intrinsic value 0 of an at-the-money exchange
    mm = dc.MargrabeModel(
        spot1=100.0, spot2=100.0, maturity=5.0, sigma1_sq=0.0, sigma12=0.0, sigma2_sq=0.0,
        jump_intensity=3e5, jump_mean=(0.0, 0.0),
    )
    price, diags = dc.margrabe_price(mm)
    assert price == 0.0
    assert 0.0 < diags.tail_mass <= 1e-16


def docs_like_model(mu):
    """The docs exchange model with jump means (-0.001, -0.0005), jump
    variances 1e-4 and T = 5, at the intensity whose mean jump count
    lam T e^{q0} is mu."""
    return dc.MargrabeModel(
        spot1=100.0, spot2=100.0, maturity=5.0, sigma1_sq=0.04, sigma12=0.006, sigma2_sq=0.01,
        jump_intensity=mu / (5.0 * math.exp(-0.001 + 0.5e-4)), jump_mean=(-0.001, -0.0005),
        jump_cov=((1e-4, 0.0), (0.0, 1e-4)), default_atoms=(((0.0, -1.0), 0.02),),
    )


def test_ten_million_jumps_price_within_the_tail_tolerance():
    # the window holds about 19 sqrt(mu) terms, not the mu terms up from 0
    price, diags = dc.margrabe_price(docs_like_model(1e7))
    assert 0.0 < price <= 100.0
    assert 0.0 < diags.tail_mass <= 1e-16
    assert diags.terms < 19.0 * math.sqrt(1e7)


@pytest.mark.parametrize("mu", [1e2, 1e3, 1e4, 1e5])
def test_series_matches_a_forty_digit_sum(mu):
    mm = docs_like_model(mu)
    price, _ = dc.margrabe_price(mm)
    assert abs(price - mpmath_price(mm)) <= 2e-13 * mm.spot1


@pytest.mark.parametrize("lam", [2.0000001e8, 1e308])
def test_series_past_its_window_cap_is_refused(lam):
    # lam T = 1.0000001e9 is just past MAX_SERIES_MEAN (a window of 6e5
    # terms), and lam T = inf never ends
    mm = dc.MargrabeModel(
        spot1=100.0, spot2=100.0, maturity=5.0, sigma1_sq=0.0, sigma12=0.0, sigma2_sq=0.0,
        jump_intensity=lam, jump_mean=(0.0, 0.0),
    )
    assert lam * mm.maturity > pricing.MAX_SERIES_MEAN
    with pytest.raises(ConvergenceError, match="jump-body series would need about .* terms"):
        dc.margrabe_price(mm)


@pytest.mark.parametrize(
    "log_forward, var",
    [(709.0, 1400.0), (710.0, 1420.0), (710.0, 1000.0), (800.0, 1600.0), (1000.0, 1500.0), (5000.0, 1e4)],
)
def test_black_put_past_the_float_range(log_forward, var):
    # e^{log_forward} overflows past 709.78; the put stays a number in [0, 1]
    s = math.sqrt(var)
    d1 = (log_forward + 0.5 * var) / s
    expected = norm.cdf(s - d1) - math.exp(log_forward + norm.logcdf(-d1))
    assert pricing._black_put(log_forward, var) == pytest.approx(expected, rel=1e-13)
    assert pricing._black_put(log_forward, 0.0) == 0.0


def test_default_mass_past_the_float_range():
    # lambda2_Q1 T = 1 000 puts l + aT at 1 000: the survival part is
    # e^{-1000} times a put whose forward overflows on its own
    mm = dc.MargrabeModel(
        spot1=100.0, spot2=100.0, maturity=5.0, sigma1_sq=0.04, sigma12=0.0, sigma2_sq=0.0,
        default_atoms=(((0.0, -1.0), 200.0),),
    )
    assert dc.margrabe_price(mm)[0] == 100.0


@st.composite
def margrabe_models(draw):
    """Exchange models from defaults only to lam T = 1 250 (z0 past the float
    range of e^{z0}), with w = 0, w = 1e-20, sigma_eff = 0 and full diffusion,
    fixed, perfectly correlated or random jump sizes, and defaults or none."""
    T = draw(st.floats(0.05, 5.0))
    lam = draw(st.sampled_from([0.0, 3.0, 250.0])) * draw(st.floats(0.01, 1.0))
    v1, v2, rho = draw(st.floats(0.0, 0.2)), draw(st.floats(0.0, 0.2)), draw(st.floats(-1.0, 1.0))
    sigma = {
        "none": (0.0, 0.0, 0.0),
        "flat": (1e-20, 0.0, 0.0),
        "sigma_eff_zero": (v1, v1, v1),
        "full": (v1, rho * math.sqrt(v1 * v2), v2),
    }[draw(st.sampled_from(["none", "flat", "sigma_eff_zero", "full"]))]
    s1, s2, r = draw(st.floats(0.0, 0.3)), draw(st.floats(0.0, 0.3)), draw(st.floats(-1.0, 1.0))
    cov = {
        "fixed": ((0.0, 0.0), (0.0, 0.0)),
        "comonotone": ((s1, s1), (s1, s1)),
        "random": ((s1, r * math.sqrt(s1 * s2)), (r * math.sqrt(s1 * s2), s2)),
    }[draw(st.sampled_from(["fixed", "comonotone", "random"]))]
    defaults = draw(st.sampled_from([(), (((0.0, -1.0), 0.02),), (((-1.0, 0.3), 0.1), ((0.2, -1.0), 0.05))]))
    spot1 = draw(st.floats(1.0, 200.0))
    return dc.MargrabeModel(
        spot1=spot1, spot2=spot1 * math.exp(draw(st.floats(-2.0, 2.0))), maturity=T,
        sigma1_sq=sigma[0], sigma12=sigma[1], sigma2_sq=sigma[2],
        jump_intensity=lam, jump_mean=(draw(st.floats(-0.5, 0.5)), draw(st.floats(-0.5, 0.5))),
        jump_cov=cov, default_atoms=defaults,
    )


def series_window(mm):
    """The first and last jump counts of the engine's series, read from the
    put arguments of a model with the same mean jump count mu, whose log
    forward steps by 1 per jump (the window depends on mu and the tolerance
    alone); checks that the series puts each count of the window once."""
    m1, s11 = mm.jump_mean[0], mm.jump_cov[0][0]
    probe = dataclasses.replace(
        mm, jump_mean=(m1, m1 + 0.5 * s11 + 1.0), jump_cov=((s11, 0.0), (0.0, 0.0))
    )
    with mock.patch.object(pricing, "_black_put", wraps=pricing._black_put) as put:
        dc.margrabe_price(probe)
    mode = math.floor(mm.jump_intensity * mm.maturity * math.exp(m1 + 0.5 * s11))
    first = put.call_args_list[0].args[0]
    counts = sorted(mode + round(call.args[0] - first) for call in put.call_args_list)
    assert counts == list(range(counts[0], counts[-1] + 1))
    return counts[0], counts[-1]


@settings(max_examples=100, deadline=None)
@given(margrabe_models())
def test_contour_and_series_are_each_others_oracle(mm):
    # the engine's series against the same series from scipy's Poisson law
    # and normal cdf (the benchmark reference is wrong past lam T = 745)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with mock.patch.object(pricing, "_black_put", wraps=pricing._black_put) as put:
            price, diags = dc.margrabe_price(mm)
        lo, hi = series_window(mm)
    assert math.isfinite(price) and price >= 0.0
    assert (diags.nodes, diags.u_max_used, diags.terms) == (0, 0.0, put.call_count)
    assert diags.terms == hi - lo + 1
    # the next 50 terms past the window, and every term below it, add no
    # more than the reported tail bound
    assert abs(price - series_price(mm, hi + 50)) <= 1e-12 * mm.spot1
    terms = series_terms(mm, 0, hi + 50)
    assert terms[:lo].sum() + terms[hi + 1:].sum() <= diags.tail_mass + 1e-15
