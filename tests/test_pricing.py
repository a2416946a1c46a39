import dataclasses
import math

import numpy as np
import pytest
from scipy.stats import norm

import driftcalc as dc
from driftcalc import pricing
from driftcalc.calculus import _rep_exp_utility_slope
from driftcalc.errors import ConvergenceError, EngineError, NonIntegrableError


def classical_exchange_price(s1, s2, sig_eff, T):
    """Closed-form value of exchanging asset 2 for asset 1, pure diffusion."""
    d1 = (math.log(s1 / s2) + 0.5 * sig_eff**2 * T) / (sig_eff * math.sqrt(T))
    d2 = d1 - sig_eff * math.sqrt(T)
    return s1 * norm.cdf(d1) - s2 * norm.cdf(d2)


def panel_by_panel_price(mm, cfg=None):
    """Reference price: the contour summed one 24-node panel at a time, each
    panel followed by its mirror, with the pricer's edges and extension rule.
    Returns (price, nodes, u_max_used)."""
    cfg = cfg or dc.ContourConfig()
    log_ratio = math.log(mm.spot2 / mm.spot1)
    gl_x, gl_w = np.polynomial.legendre.leggauss(pricing.NODES_PER_PANEL)

    def panel(a, b):
        mid, half = 0.5 * (a + b), 0.5 * (b - a)
        v = cfg.beta + 1j * (mid + half * gl_x)
        g = np.exp(v * log_ratio + dc.margrabe_kappa(v, mm) * mm.maturity) / (
            2.0 * np.pi * v * (v - 1.0)
        )
        return half * np.sum(gl_w * g)

    def block(edges):
        return sum(panel(a, b) + panel(-b, -a) for a, b in zip(edges[:-1], edges[1:]))

    width = pricing.PANEL_WIDTH
    if log_ratio != 0.0:
        width = min(width, 3.0 * 2.0 * math.pi / abs(log_ratio))
    edges = np.linspace(0.0, cfg.u_max, max(1, math.ceil(cfg.u_max / width)) + 1)
    total, panels = block(edges), edges.size - 1
    lo, hi = cfg.u_max, 2.0 * cfg.u_max
    for _ in range(pricing.MAX_EXTENSIONS):
        edges = np.linspace(lo, hi, max(2, int((hi - lo) / (2 * width)) + 1))
        tail = block(edges)
        total += tail
        panels += edges.size - 1
        if abs(tail) <= cfg.rel_tol * max(1.0, abs(total)):
            raw = 1.0 - np.exp(dc.margrabe_kappa(0.0, mm) * mm.maturity) + total
            return mm.spot1 * raw.real, 2 * pricing.NODES_PER_PANEL * panels, hi
        lo, hi = hi, 2.0 * hi
    raise AssertionError("reference contour did not converge")


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
    then plain Newton steps on ``slope`` from that point."""
    xs = np.linspace(lo, hi, 65)
    k = int(np.argmin([fn(x) for x in xs]))
    assert 0 < k < 64, "reference scan found no interior minimum"
    x = float(xs[k])
    for _ in range(12):
        d1, d2 = slope(x)
        x -= d1 / d2
    return x


def defaults_only_model():
    return dc.MargrabeModel(
        spot1=100.0, spot2=100.0, maturity=1.0,
        sigma1_sq=0.0, sigma12=0.0, sigma2_sq=0.0,
        default_atoms=(((0.0, -1.0), 0.02),),
    )


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

    def test_no_interior_optimum_advises_wider_bracket(self, atoms_1d):
        with pytest.raises(EngineError, match="widen the bracket"):
            dc.optimize_exp_utility(atoms_1d, (10.0, 20.0))

    @pytest.mark.parametrize("bracket", [(0.0, math.inf), (math.nan, 1.0)])
    def test_non_finite_bracket_rejected(self, bracket):
        with pytest.raises(ValueError, match="bracket ends must be finite"):
            pricing.minimize_scalar(abs, bracket, lambda x: (1.0, 1.0))

    def test_unsettled_polish_names_the_bracket(self):
        # Newton steps of 1e-12 stay inside the bracket and never settle.
        with pytest.raises(ConvergenceError, match=r"polish on \[0.0, 1.0\] did not settle"):
            pricing.minimize_scalar(lambda x: (x - 0.5) ** 2, (0.0, 1.0), lambda x: (-1.0, 1e12))

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
        # f(x) = e^x - x has its minimum at 0.  The last bisection toward a
        # bracket end can round its midpoint one ulp past the settling
        # tolerance; that point must still count as the end.
        rng = np.random.default_rng(3)
        for _ in range(300):
            gap, width = 10 ** rng.uniform(-6, 1), 10 ** rng.uniform(-3, 1.5)
            bracket, side = ((gap, gap + width), "left") if rng.random() < 0.5 else (
                (-gap - width, -gap), "right")
            with pytest.raises(EngineError, match=f"at the {side} edge"):
                pricing.minimize_scalar(lambda x: math.exp(x) - x, bracket,
                                        lambda x: (math.expm1(x), math.exp(x)))

    def test_bracket_below_zero_on_gaussian_body_fails_at_first_drift(self, merton_1d, monkeypatch):
        # The objective is convex, so only the bracket ends need to exist; the
        # left end lam = -1 is where the Gaussian body makes it non-integrable.
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

        def spy(fn, bracket, slope):
            seen.update(fn=fn, slope=slope)
            return original(fn, bracket, slope)

        monkeypatch.setattr(pricing, "minimize_scalar", spy)
        if isinstance(t, dc.DiscreteModel):
            lam_star, _ = dc.optimize_discrete_exp_utility(t, bracket)
        else:
            lam_star, _ = dc.optimize_exp_utility(t, bracket)
        reference = scan_then_polish(seen["fn"], seen["slope"], *bracket)
        assert lam_star == pytest.approx(reference, rel=1e-12, abs=1e-12)

    def test_optimum_costs_few_drifts(self, merton_1d, monkeypatch):
        calls = count_calls(monkeypatch, pricing, "drift")
        dc.optimize_exp_utility(merton_1d, (0.0, 8.0))
        assert len(calls) <= 12

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
        calls = count_calls(monkeypatch, pricing, "_rep_exp_utility_slope")
        lam_star, _ = dc.optimize_exp_utility(t, (0.0, 8.0))
        assert lam_star == pytest.approx(1.097256332595609, rel=1e-13)
        assert len(calls) <= 6


class TestUtilitySlope:
    """The derivative tree's drift is the pair of lam-derivatives of the
    utility drift."""

    @pytest.mark.parametrize("model", ["merton_1d", "atoms_1d"])
    @pytest.mark.parametrize("lam", [0.5, 1.5, 4.0, 7.0])
    def test_matches_central_differences(self, request, model, lam):
        t = request.getfixturevalue(model)
        d1, d2 = dc.drift(_rep_exp_utility_slope(lam), t).total
        h = 1e-3
        up, mid, down = (dc.utility_drift(lam + s, t) for s in (h, 0.0, -h))
        assert d1 == pytest.approx((up - down) / (2 * h), rel=1e-7)
        assert d2 == pytest.approx((up - 2 * mid + down) / h**2, rel=1e-6)

    @pytest.mark.parametrize("lam", [-2.0, 0.0, 3.0])
    def test_discrete_compensator_on_trinomial(self, trinomial, lam):
        y = np.expm1(trinomial.points[:, 0])
        weight = trinomial.probabilities * np.exp(-lam * y)
        d1, d2 = dc.discrete_compensator(_rep_exp_utility_slope(lam), trinomial, 1.0)
        assert d1 == pytest.approx(-np.sum(weight * y), rel=1e-13)
        assert d2 == pytest.approx(np.sum(weight * y * y), rel=1e-13)


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
        assert diags.imag_residual <= 1e-9 * mm.spot1

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
        # for defaults, the payoff transform decays only algebraically on
        # the contour, and the extension loop must still get there.
        mm = dc.MargrabeModel(
            spot1=100.0, spot2=100.0, maturity=1.0,
            sigma1_sq=0.0, sigma12=0.0, sigma2_sq=0.0,
            default_atoms=(((0.0, -1.0), 0.02),),
        )
        price, diags = dc.margrabe_price(mm)
        expected = 100.0 * (1.0 - math.exp(-0.02))
        assert abs(price - expected) <= 1e-6 * expected
        assert diags.u_max_used > 200.0
        est = dc.mc_margrabe(mm, dc.SimConfig(n_paths=200_000, seed=44))
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

    def test_invalid_contour_abscissa(self):
        with pytest.raises(ValueError, match="negative"):
            dc.ContourConfig(beta=0.0)
        with pytest.raises(ValueError, match="negative"):
            dc.ContourConfig(beta=1.0)

    @pytest.mark.parametrize(
        "field, value",
        [
            ("beta", -math.inf), ("beta", math.nan),
            ("u_max", math.inf), ("u_max", math.nan), ("u_max", 0.0),
            ("rel_tol", math.nan), ("rel_tol", -1.0), ("rel_tol", 0.0), ("rel_tol", math.inf),
        ],
    )
    def test_non_finite_or_non_positive_contour_settings_rejected(self, field, value):
        with pytest.raises(ValueError, match=field):
            dc.ContourConfig(**{field: value})

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
        ],
    )
    def test_unpriceable_model_inputs_rejected(self, margrabe_jump_model, field, value, match):
        with pytest.raises(ValueError, match=match):
            dataclasses.replace(margrabe_jump_model, **{field: value})


class TestBatchedContour:
    """The contour is summed in vectorised passes of PANELS_PER_PASS panels;
    it must give the panel-by-panel sum on the same nodes."""

    @pytest.mark.parametrize("kind", ["jump", "near_degenerate", "defaults_only"])
    def test_matches_panel_by_panel_sum(self, margrabe_jump_model, kind):
        mm = {
            "jump": margrabe_jump_model,
            "near_degenerate": dataclasses.replace(
                margrabe_jump_model, sigma1_sq=1e-5, sigma12=0.0, sigma2_sq=0.0
            ),
            "defaults_only": defaults_only_model(),
        }[kind]
        price, diags = dc.margrabe_price(mm)
        ref_price, ref_nodes, ref_u = panel_by_panel_price(mm)
        assert abs(price - ref_price) <= 1e-14 * mm.spot1
        assert (diags.nodes, diags.u_max_used) == (ref_nodes, ref_u)

    @pytest.mark.parametrize(
        "kind, nodes, u_max_used",
        [("jump", 7_200, 400.0), ("defaults_only", 1_231_200, 102_400.0)],
    )
    def test_contour_length_is_pinned(self, margrabe_jump_model, kind, nodes, u_max_used):
        mm = margrabe_jump_model if kind == "jump" else defaults_only_model()
        _, diags = dc.margrabe_price(mm)
        assert (diags.nodes, diags.u_max_used) == (nodes, u_max_used)

    def test_kappa_is_called_once_per_pass(self, monkeypatch):
        calls = []
        kappa = pricing.margrabe_kappa

        def counted(v, mm):
            calls.append(np.size(v))
            return kappa(v, mm)

        monkeypatch.setattr(pricing, "margrabe_kappa", counted)
        cfg = dc.ContourConfig()
        _, diags = dc.margrabe_price(defaults_only_model(), cfg)
        # one block for [0, u_max], one per doubling; each block needs
        # ceil(panels / PANELS_PER_PASS) passes; plus kappa(0)
        blocks = 1 + round(math.log2(diags.u_max_used / cfg.u_max))
        node_passes = diags.nodes / (2 * pricing.NODES_PER_PANEL * pricing.PANELS_PER_PASS)
        assert len(calls) <= math.ceil(node_passes) + blocks + 1
        assert sum(calls) == diags.nodes + 1

    def test_unconverged_contour_message_is_unchanged(self):
        cfg = dc.ContourConfig(rel_tol=1e-300)
        with pytest.raises(ConvergenceError, match=r"after extending to \|Im v\| = 819200"):
            dc.margrabe_price(defaults_only_model(), cfg)
