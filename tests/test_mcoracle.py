import math

import numpy as np
import pytest
from scipy import stats

import driftcalc as dc
from driftcalc.errors import EngineError
from driftcalc.mcoracle import (
    _block_rng,
    _draw_jump_batch,
    _segment_reduce,
    sample_increment_batch,
)


class TestIncrementSampling:
    def test_pure_drift_is_deterministic(self):
        t = dc.LevyTriplet(
            1, np.array([0.3]), np.zeros((1, 1)), dc.empty_measure(1),
            dc.TruncationSpec.identity(1),
        )
        draws = sample_increment_batch(t, 2.0, _block_rng(1, 0), 5)
        np.testing.assert_array_equal(draws, np.full((5, 1), 0.6))

    def test_single_draw_shape(self, merton_1d):
        x = dc.sample_increment(merton_1d, 1.0, _block_rng(2, 0))
        assert x.shape == (1,)

    def test_mean_equals_drift_for_identity_truncation(self, atoms_1d):
        X = sample_increment_batch(atoms_1d, 1.0, _block_rng(42, 0), 400_000)[:, 0]
        se = X.std() / math.sqrt(X.size)
        assert abs(X.mean() - atoms_1d.b[0]) < 3 * se

    def test_mixed_2d_mean_equals_drift_for_identity_truncation(self):
        jumps = dc.SumMeasure((
            dc.FiniteAtoms([[0.2, -0.1], [-0.15, 0.05]], [0.7, 0.5]),
            dc.GaussianPush(0.6, np.array([-0.05, 0.02]), np.array([[0.04, 0.01], [0.01, 0.03]])),
        ))
        t = dc.LevyTriplet(
            2, np.array([0.04, -0.03]), np.array([[0.02, 0.005], [0.005, 0.01]]), jumps,
            dc.TruncationSpec.identity(2),
        )
        X = sample_increment_batch(t, 1.0, _block_rng(17, 0), 400_000)
        se = X.std(axis=0) / math.sqrt(X.shape[0])
        assert np.all(np.abs(X.mean(axis=0) - t.b) < 4 * se)

    def test_small_horizon_jump_probability(self):
        gamma, T = 0.7, 1e-3
        t = dc.LevyTriplet(
            1, np.zeros(1), np.zeros((1, 1)),
            dc.FiniteAtoms([[1.0]], [gamma]), dc.TruncationSpec.zero(1),
        )
        X = sample_increment_batch(t, T, _block_rng(7, 0), 1_000_000)[:, 0]
        frac = float((np.rint(X) >= 1).mean())
        # P(N >= 1) = 1 - e^{-gamma T} ~ gamma T; SE ~ sqrt(p/n)
        p = 1.0 - math.exp(-gamma * T)
        assert abs(frac - p) < 4 * math.sqrt(p / X.size)

    def test_jump_counts_are_poisson(self):
        gamma = 0.7
        t = dc.LevyTriplet(
            1, np.zeros(1), np.zeros((1, 1)),
            dc.FiniteAtoms([[1.0]], [gamma]), dc.TruncationSpec.zero(1),
        )
        # With the zero truncation and a unit atom the increment *is* the count.
        X = sample_increment_batch(t, 1.0, _block_rng(99, 0), 1_000_000)[:, 0]
        counts = np.rint(X).astype(int)
        k_max = counts.max()
        observed = np.bincount(counts, minlength=k_max + 1)
        pmf = stats.poisson.pmf(np.arange(k_max + 1), gamma)
        cut = int(np.searchsorted(np.cumsum(pmf), 1 - 1e-6))
        obs = np.concatenate([observed[:cut], [observed[cut:].sum()]])
        exp = np.concatenate([pmf[:cut], [1 - pmf[:cut].sum()]]) * counts.size
        _, p_value = stats.chisquare(obs, exp)
        assert p_value > 0.001


class TestStochasticExponential:
    def test_null_representation_is_one_with_zero_error(self, merton_1d):
        est = dc.mc_stoch_exp(dc.rep_zero(1), merton_1d, 1.0, dc.SimConfig(n_paths=5_000, seed=1))
        assert est.mean == 1.0
        assert est.std_error == 0.0

    def test_pathwise_identity_pure_jump(self):
        """On drift-plus-jump paths the compounding product equals the
        exponential of the summed increments, path by path."""
        t = dc.LevyTriplet(
            1, np.array([0.05]), np.zeros((1, 1)),
            dc.FiniteAtoms([[0.3], [-0.2]], [1.0, 1.0]),
            dc.TruncationSpec.identity(1),
        )
        v = 0.8
        rng = _block_rng(5, 0)
        comp = dc.truncation_moment(t.jumps, t.truncation)
        counts, jumps = _draw_jump_batch(t, 1.0, rng, 4_000)
        xi = dc.rep_exp_affine(v)
        factors = 1.0 + xi.eval_batch(jumps.astype(complex))[:, 0]
        prod = _segment_reduce(np.multiply, factors, counts, 1.0 + 0j)
        compounded = math.exp(v * (t.b[0] - comp[0])) * prod
        jump_sum = _segment_reduce(np.add, jumps[:, 0].astype(complex), counts, 0.0).real
        direct = np.exp(v * ((t.b[0] - comp[0]) + jump_sum))
        np.testing.assert_allclose(compounded.real, direct, rtol=1e-12)

    def test_merton_matches_analytic(self, merton_1d):
        v = 0.5
        target = dc.expectation_stoch_exp(dc.rep_exp_affine(v), merton_1d, 1.0)
        est = dc.mc_stoch_exp(dc.rep_exp_affine(v), merton_1d, 1.0,
                              dc.SimConfig(n_paths=120_000, seed=23))
        assert est.z_score(target) < 3.0

    def test_atoms_model_matches_analytic(self, atoms_1d):
        xi = dc.rep_exp_utility(0.8)
        target = dc.expectation_stoch_exp(xi, atoms_1d, 2.0)
        est = dc.mc_stoch_exp(xi, atoms_1d, 2.0, dc.SimConfig(n_paths=120_000, seed=25))
        assert est.z_score(target) < 3.0

    def test_discrete_model_supported(self, trinomial):
        lam = 1.0
        target = dc.discrete_stoch_exp(dc.rep_exp_utility(lam), trinomial, 2.0)
        est = dc.mc_stoch_exp(dc.rep_exp_utility(lam), trinomial, 2.0,
                              dc.SimConfig(n_paths=120_000, seed=31))
        assert est.z_score(target) < 3.0


class TestPathwiseSum:
    def test_gaussian_body_matches_analytic(self, merton_1d):
        # Gaussian jump body under the unit_clip truncation.
        xi = dc.rep_log_return()
        target = dc.expectation_pii(xi, merton_1d, 1.5)[0]
        est = dc.mc_sum(xi, merton_1d, 1.5, dc.SimConfig(n_paths=200_000, seed=41))
        assert est.z_score(target) < 4.0

    @pytest.mark.parametrize("estimator", [dc.mc_sum, dc.mc_stoch_exp])
    def test_truncation_invariance_path_by_path(self, merton_1d, estimator):
        # b - int h dF is the same for every truncation, and so is every path.
        xi = dc.rep_exp_affine(0.6)
        cfg = dc.SimConfig(n_paths=20_000, seed=43)
        base = estimator(xi, merton_1d, 1.2, cfg)
        for h in (dc.TruncationSpec.identity(1), dc.TruncationSpec.zero(1)):
            other = estimator(xi, dc.retruncate(merton_1d, h), 1.2, cfg)
            assert other.mean == pytest.approx(base.mean, rel=1e-12)
            assert other.std_error == pytest.approx(base.std_error, rel=1e-12)


class TestDeterminismAndVariance:
    def test_bit_identical_across_worker_counts(self, merton_1d):
        xi = dc.rep_exp_affine(0.5)
        results = [
            dc.mc_stoch_exp(xi, merton_1d, 1.0, dc.SimConfig(n_paths=50_000, seed=3, workers=w))
            for w in (1, 4, 8)
        ]
        assert results[0].mean == results[1].mean == results[2].mean
        assert results[0].std_error == results[1].std_error == results[2].std_error

    def test_same_seed_same_estimate(self, margrabe_jump_model):
        a = dc.mc_margrabe(margrabe_jump_model, dc.SimConfig(n_paths=20_000, seed=5))
        b = dc.mc_margrabe(margrabe_jump_model, dc.SimConfig(n_paths=20_000, seed=5))
        assert a.mean == b.mean and a.std_error == b.std_error

    def test_antithetic_is_unbiased(self, merton_1d):
        xi = dc.rep_exp_affine(0.5)
        plain = dc.mc_stoch_exp(xi, merton_1d, 1.0, dc.SimConfig(n_paths=100_000, seed=21))
        anti = dc.mc_stoch_exp(
            xi, merton_1d, 1.0, dc.SimConfig(n_paths=100_000, seed=22, antithetic=True)
        )
        joint = math.hypot(plain.std_error, anti.std_error)
        assert abs(plain.mean - anti.mean) <= 4 * joint

    def test_antithetic_reduces_diffusion_noise(self):
        t = dc.LevyTriplet(
            1, np.array([0.02]), np.array([[0.09]]), dc.empty_measure(1),
            dc.TruncationSpec.identity(1),
        )
        xi = dc.rep_identity(1)
        plain = dc.mc_stoch_exp(xi, t, 1.0, dc.SimConfig(n_paths=50_000, seed=9))
        anti = dc.mc_stoch_exp(xi, t, 1.0, dc.SimConfig(n_paths=50_000, seed=9, antithetic=True))
        assert anti.std_error < plain.std_error


class TestExchangeOptionSimulation:
    def test_worthless_option(self):
        mm = dc.MargrabeModel(
            spot1=1.0, spot2=200.0, maturity=1.0,
            sigma1_sq=0.04, sigma12=0.0, sigma2_sq=0.0,
        )
        est = dc.mc_margrabe(mm, dc.SimConfig(n_paths=20_000, seed=2))
        assert est.mean == 0.0

    def test_classical_model(self):
        mm = dc.MargrabeModel(
            spot1=100.0, spot2=100.0, maturity=1.0,
            sigma1_sq=0.04, sigma12=0.03, sigma2_sq=0.09,
        )
        from test_pricing import classical_exchange_price

        target = classical_exchange_price(100.0, 100.0, math.sqrt(0.07), 1.0)
        est = dc.mc_margrabe(mm, dc.SimConfig(n_paths=150_000, seed=15))
        assert est.z_score(target) < 3.0

    def test_default_states_absorb(self):
        # Overwhelming default intensity: almost every path wipes asset 2,
        # so the payoff concentrates at the compensator-grown first asset.
        mm = dc.MargrabeModel(
            spot1=100.0, spot2=100.0, maturity=1.0,
            sigma1_sq=0.0, sigma12=0.0, sigma2_sq=0.0,
            default_atoms=(((0.0, -1.0), 40.0),),
        )
        est = dc.mc_margrabe(mm, dc.SimConfig(n_paths=5_000, seed=4))
        assert est.mean.real == pytest.approx(100.0, rel=1e-6)


class TestReweighted:
    def test_zero_change_equals_plain(self, merton_1d):
        xi = dc.rep_exp_affine(0.6)
        plain = dc.mc_stoch_exp(xi, merton_1d, 1.0, dc.SimConfig(n_paths=40_000, seed=12))
        reweighted = dc.mc_reweighted(xi, dc.rep_zero(1), merton_1d, 1.0,
                                      dc.SimConfig(n_paths=40_000, seed=12))
        assert reweighted.mean == pytest.approx(plain.mean, rel=1e-12)

    def test_trinomial_one_period_atoms(self):
        # Asymmetric one-period model: the optimal-exposure weights are
        # genuinely non-constant and the closed-form changed moment is known.
        m = dc.DiscreteModel([[math.log(1.1)], [0.0], [math.log(0.9)]], [0.4, 0.4, 0.2])
        v = 1.3
        lam_star = math.log(0.4 / 0.2) / 0.2
        target = dc.discrete_q_stoch_exp(
            dc.rep_exp_affine(v), dc.rep_exp_utility(lam_star), m, 1.0
        )
        root = math.sqrt(0.4 * 0.2)
        closed = ((1.1**v + 0.9**v) * root + 0.4) / (2 * root + 0.4)
        assert target == pytest.approx(closed, abs=1e-13)
        est = dc.mc_reweighted(
            dc.rep_exp_affine(v), dc.rep_exp_utility(lam_star), m, 1.0,
            dc.SimConfig(n_paths=150_000, seed=37),
        )
        assert est.z_score(target) < 3.0

    def test_negative_weight_is_rejected(self, trinomial):
        # eta far below -1 on part of the support produces negative weights
        eta = dc.RepFn(1, (dc.Const(-30.0) * dc.Coord(0),))
        with pytest.raises(EngineError, match="negative measure-change weight"):
            dc.mc_reweighted(dc.rep_identity(1), eta, trinomial, 1.0,
                             dc.SimConfig(n_paths=10_000, seed=6))


def test_estimate_reports_nonfinite_paths():
    vals = np.ones(1000, dtype=complex)
    vals[:20] = np.nan
    from driftcalc.mcoracle import _estimate

    with pytest.raises(EngineError, match="non-finite"):
        _estimate(vals)


def test_undefined_transform_on_jump_support_is_diagnosed():
    # log(1+x) blows up on jumps at or below -1; with every path jumping,
    # the non-finite fraction crosses the 0.1% guard.
    t = dc.LevyTriplet(
        1, np.zeros(1), np.zeros((1, 1)),
        dc.FiniteAtoms([[-1.5]], [50.0]), dc.TruncationSpec.zero(1),
    )
    with pytest.raises(EngineError, match="non-finite"):
        dc.mc_stoch_exp(dc.rep_log_return(), t, 1.0, dc.SimConfig(n_paths=4_000, seed=8))


@pytest.mark.filterwarnings("ignore:heavy-tailed")
def test_randomised_model_sweep_is_consistent():
    """Analytic compounding expectations agree with simulation across a
    spread of random models, transforms, and truncations."""
    rng = np.random.default_rng(987)
    checked = 0
    for trial in range(12):
        parts = []
        n_kinds = int(rng.integers(0, 3))
        if n_kinds >= 1:
            k = int(rng.integers(1, 4))
            parts.append(dc.FiniteAtoms(rng.uniform(-0.7, 1.2, (k, 1)), rng.uniform(0.1, 1.5, k)))
        if n_kinds == 2:
            parts.append(
                dc.GaussianPush(
                    float(rng.uniform(0.1, 1.0)),
                    np.array([rng.uniform(-0.3, 0.2)]),
                    np.array([[rng.uniform(0.0, 0.2) ** 2 + 1e-4]]),
                )
            )
        if not parts:
            F = dc.empty_measure(1)
        elif len(parts) == 1:
            F = parts[0]
        else:
            F = dc.SumMeasure(tuple(parts))
        trunc = dc.TruncationSpec.from_names([rng.choice(["zero", "identity", "unit_clip"])])
        t = dc.LevyTriplet(
            1, np.array([rng.uniform(-0.2, 0.2)]),
            np.array([[rng.uniform(0.0, 0.35) ** 2]]), F, trunc,
        )
        which = int(rng.integers(0, 4))
        if which == 0:
            xi = dc.rep_exp_affine(rng.uniform(-1.0, 1.0))
        elif which == 1:
            xi = dc.rep_exp_utility(rng.uniform(0.0, 2.0))
        elif which == 2:
            xi = dc.rep_log_return()
        else:
            xi = dc.rep_power(rng.uniform(-0.5, 1.8))
        target = dc.expectation_stoch_exp(xi, t, 1.0)
        est = dc.mc_stoch_exp(xi, t, 1.0, dc.SimConfig(n_paths=60_000, seed=1000 + trial))
        assert est.z_score(target) < 4.0
        checked += 1
    assert checked == 12


def test_heavy_tailed_sample_warns():
    from driftcalc.mcoracle import _estimate

    vals = np.ones(50_000, dtype=complex)
    vals[0] = 5_000.0  # one extreme outlier drives the kurtosis guard
    with pytest.warns(UserWarning, match="heavy-tailed"):
        est = _estimate(vals)
    assert est.kurtosis > 100.0
