import dataclasses
import math
import multiprocessing
import sys
import threading
import time
import tracemalloc
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats

import driftcalc as dc
from driftcalc.errors import EngineError
from driftcalc import mcoracle
from driftcalc.mcoracle import (
    BLOCK_SIZE,
    _apply_weights,
    _block_rng,
    _collect,
    _draw_jump_batch,
    _draw_paths,
    _estimate,
    _first,
    _pathwise,
    _segment_reduce,
    sample_increment_batch,
)

from conftest import concatenated_estimate


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

    def test_antithetic_flag_is_not_applied(self, merton_1d):
        # Sum estimates document that they ignore antithetic pairing.
        xi = dc.rep_log_return()
        plain = dc.mc_sum(xi, merton_1d, 1.0, dc.SimConfig(n_paths=20_000, seed=45))
        anti = dc.mc_sum(
            xi, merton_1d, 1.0, dc.SimConfig(n_paths=20_000, seed=45, antithetic=True)
        )
        assert (anti.mean, anti.std_error) == (plain.mean, plain.std_error)


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

    def test_one_tree_walk_per_block(self, merton_1d, monkeypatch):
        walks, reductions, blocks = [], [], []
        run, reduce, draw = dc.RepFn._run, mcoracle._segment_reduce, mcoracle._draw_paths

        def counted_run(self, rule, x):
            if rule == "ev":
                walks.append(x.shape[0])
            return run(self, rule, x)

        def counted_draw(*args):
            draws = draw(*args)
            blocks.append(draws[2].shape[0])
            return draws

        def counted_reduce(*args):
            reductions.append(args[1].shape)
            return reduce(*args)

        monkeypatch.setattr(dc.RepFn, "_run", counted_run)
        monkeypatch.setattr(mcoracle, "_draw_paths", counted_draw)
        monkeypatch.setattr(mcoracle, "_segment_reduce", counted_reduce)
        cfg = dc.SimConfig(n_paths=3 * BLOCK_SIZE, seed=14)
        dc.mc_reweighted(dc.rep_exp_affine(0.6), dc.rep_exp_utility(0.8), merton_1d, 1.0, cfg)
        # the compensator's quadrature walks its nodes too; a block's walk
        # takes all of the block's jumps
        block_walks = [n for n in walks if n in blocks]
        assert len(blocks) == len(block_walks) == len(reductions) == 3
        assert sorted(block_walks) == sorted(blocks)
        assert all(shape[1] == 2 for shape in reductions)

    @pytest.mark.parametrize("model", ["merton_1d", "atoms_1d"])
    def test_one_tree_equals_two_trees_on_shared_draws(self, model, request):
        model = request.getfixturevalue(model)
        xi, eta, T = dc.rep_exp_affine(0.6), dc.rep_exp_utility(0.8), 1.3
        cfg = dc.SimConfig(n_paths=3 * BLOCK_SIZE + 100, seed=15)
        xi_paths, eta_paths = (_pathwise(f, model, T, exponential=True) for f in (xi, eta))
        scale = 1.0 / np.exp(dc.drift(eta, model).total[0] * T).real

        def block(rng, size):
            draws = _draw_paths(model, T, rng, size)
            return _apply_weights(eta_paths(*draws, _first) * scale, xi_paths(*draws, _first))

        two = _estimate(_collect(cfg, block))
        one = dc.mc_reweighted(xi, eta, model, T, cfg)
        assert (one.mean, one.std_error, one.kurtosis) == (two.mean, two.std_error, two.kurtosis)

    def test_discrete_weights_are_real(self, trinomial, monkeypatch):
        seen = []
        products = mcoracle._discrete_products

        def spy(m, steps, rng, size, *factors):
            seen.extend(f.dtype for f in factors)
            return products(m, steps, rng, size, *factors)

        monkeypatch.setattr(mcoracle, "_discrete_products", spy)
        cfg = dc.SimConfig(n_paths=5_000, seed=16)
        dc.mc_stoch_exp(dc.rep_exp_affine(0.4), trinomial, 3.0, cfg)
        dc.mc_reweighted(dc.rep_exp_affine(0.4), dc.rep_exp_utility(1.1), trinomial, 3.0, cfg)
        assert seen == [np.float64] * 3

    # estimates of one draw of (paths, floor(T)) indices, as sampled before
    # the draw was split into row chunks
    DISCRETE_PINS = {
        3.0: ((0.9983343066809736 + 0j), 0.00040156912838026026,
              (0.9936400586206121 - 0.0030590373394046018j), 0.0005931149743186543),
        250.0: ((0.8548700891038695 + 0j), 0.003263487127941599,
                (0.581226279333703 - 0.16202294227433225j), 0.003618141634426206),
    }

    @pytest.mark.parametrize("chunk", [mcoracle.DISCRETE_DRAW_CHUNK, 1000, 7])
    @pytest.mark.parametrize("T", [3.0, 250.0])
    def test_discrete_draws_in_row_chunks_are_one_draw(self, trinomial, monkeypatch, T, chunk):
        monkeypatch.setattr(mcoracle, "DISCRETE_DRAW_CHUNK", chunk)
        cfg = dc.SimConfig(n_paths=10_000, seed=11)
        plain = dc.mc_stoch_exp(dc.rep_exp_affine(0.3), trinomial, T, cfg)
        weighted = dc.mc_reweighted(
            dc.rep_exp_affine(0.3 + 0.2j), dc.rep_exp_utility(0.7), trinomial, T, cfg
        )
        got = (plain.mean, plain.std_error, weighted.mean, weighted.std_error)
        assert got == self.DISCRETE_PINS[T]

    def test_discrete_draw_memory_is_bounded(self, trinomial):
        # one (8192, 2000) draw of indices and gathered factors took 250 MB
        tracemalloc.start()
        try:
            dc.mc_stoch_exp(dc.rep_exp_affine(0.3), trinomial, 2000.0, dc.SimConfig(n_paths=8192, seed=3))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 32 * 2**20

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


@pytest.mark.parametrize("kind", ["lognormal", "signed"])
def test_real_and_complex_samples_estimate_alike(kind):
    rng = np.random.default_rng(3)
    vals = rng.lognormal(0.0, 0.4, 65_536) if kind == "lognormal" else rng.normal(0.2, 1.0, 65_536)
    real, cplx = _estimate(vals), _estimate(vals.astype(complex))
    assert real.mean == pytest.approx(cplx.mean, rel=1e-15, abs=0.0)
    assert real.std_error == pytest.approx(cplx.std_error, rel=1e-15, abs=0.0)
    assert (real.n_effective, real.n_nonfinite) == (cplx.n_effective, cplx.n_nonfinite)


def test_heavy_tailed_sample_warns():
    from driftcalc.mcoracle import _estimate

    vals = np.ones(50_000, dtype=complex)
    vals[0] = 5_000.0  # one extreme outlier drives the kurtosis guard
    with pytest.warns(UserWarning, match="heavy-tailed"):
        est = _estimate(vals)
    assert est.kurtosis > 100.0


def _fields(est):
    """An estimate's fields as exact text: equal texts are equal bits, NaN included."""
    return tuple(map(repr, dataclasses.astuple(est)))


class TestSimConfig:
    def test_numpy_integers_are_taken_as_ints(self, merton_1d):
        cfg = dc.SimConfig(n_paths=np.int64(10_000), seed=np.uint64(3), workers=np.int32(2))
        assert [type(v) for v in (cfg.n_paths, cfg.seed, cfg.workers)] == [int, int, int]
        plain = dc.SimConfig(n_paths=10_000, seed=3, workers=2)
        xi = dc.rep_exp_affine(0.5)
        assert _fields(dc.mc_stoch_exp(xi, merton_1d, 1.0, cfg)) == _fields(
            dc.mc_stoch_exp(xi, merton_1d, 1.0, plain))

    @pytest.mark.parametrize("field, value", [
        ("n_paths", 10_000.0), ("n_paths", np.float64(100.0)), ("n_paths", True),
        ("seed", 3.0), ("seed", False), ("workers", 2.5), ("workers", True), ("workers", np.True_),
    ])
    def test_a_float_or_a_bool_is_refused(self, field, value):
        kwargs = {"n_paths": 1_000, "seed": 1, "workers": 1, field: value}
        with pytest.raises(ValueError, match=f"^{field} must be an integer, got "):
            dc.SimConfig(**kwargs)


class TestBlockedEstimate:
    """``_collect`` and ``_estimate`` against the concatenating oracle."""

    @settings(max_examples=48, deadline=None)
    @given(
        n_paths=st.sampled_from([2, 8191, BLOCK_SIZE, 8193, 3 * BLOCK_SIZE + 100, 65_536]),
        complex_values=st.booleans(),
        nonfinite=st.booleans(),
        seed=st.integers(0, 2**64 - 1),
    )
    def test_same_bits_as_the_concatenating_oracle(self, n_paths, complex_values, nonfinite, seed):
        def block(rng, n):
            vals = rng.lognormal(0.0, 0.5, n)
            if complex_values:
                vals = vals + 1j * rng.normal(0.0, 1.0, n)
            if nonfinite:
                # a thousandth of each block, rounded down: just under 0.1% of the run
                bad = rng.choice(n, size=n // 1000, replace=False)
                vals[bad] = rng.choice([np.nan, np.inf, -np.inf], size=bad.size)
            return vals

        expected = concatenated_estimate(dc.SimConfig(n_paths=n_paths, seed=seed), block)
        assert expected.n_nonfinite == (n_paths // BLOCK_SIZE * 8 + n_paths % BLOCK_SIZE // 1000
                                        if nonfinite else 0)
        for workers in (1, 2, 3):
            cfg = dc.SimConfig(n_paths=n_paths, seed=seed, workers=workers)
            assert _fields(_estimate(_collect(cfg, block))) == _fields(expected)


def _estimate_in_child(conn, xi, model, cfg):
    conn.send(_fields(dc.mc_stoch_exp(xi, model, 1.0, cfg)))
    conn.close()


class TestBlockPool:
    def test_estimates_start_no_thread_after_the_first(self, merton_1d, monkeypatch):
        started, start = [], threading.Thread.start

        def spy(thread):
            started.append(thread.name)
            return start(thread)

        monkeypatch.setattr(threading.Thread, "start", spy)
        mcoracle._pool.cache_clear()
        xi, cfg = dc.rep_exp_affine(0.5), dc.SimConfig(n_paths=4 * BLOCK_SIZE, seed=5, workers=2)
        first = _fields(dc.mc_stoch_exp(xi, merton_1d, 1.0, cfg))
        by_first = list(started)
        for _ in range(19):
            assert _fields(dc.mc_stoch_exp(xi, merton_1d, 1.0, cfg)) == first
        assert 1 <= len(by_first) <= 2
        assert started == by_first

    def test_one_worker_makes_no_pool(self, merton_1d, monkeypatch):
        monkeypatch.setattr(mcoracle, "_pool", None)  # calling it would raise
        dc.mc_stoch_exp(dc.rep_exp_affine(0.5), merton_1d, 1.0, dc.SimConfig(n_paths=3 * BLOCK_SIZE, seed=5))

    @pytest.mark.parametrize("workers", [2, 3])
    def test_no_more_than_workers_blocks_run_at_once(self, workers):
        lock, running, peak = threading.Lock(), [0], [0]

        def block(rng, n):
            with lock:
                running[0] += 1
                peak[0] = max(peak[0], running[0])
            time.sleep(0.005)
            with lock:
                running[0] -= 1
            return rng.random(n)

        _collect(dc.SimConfig(n_paths=12 * BLOCK_SIZE, seed=1, workers=workers), block)
        assert 1 <= peak[0] <= workers

    def test_a_failed_block_leaves_no_block_running(self):
        lock, running, calls = threading.Lock(), [0], []

        def block(rng, n):
            with lock:
                running[0] += 1
                first = not calls
                calls.append(n)
            try:
                time.sleep(0.01)
                if first:
                    raise EngineError("block failed")
                return rng.random(n)
            finally:
                with lock:
                    running[0] -= 1

        with pytest.raises(EngineError, match="block failed"):
            _collect(dc.SimConfig(n_paths=12 * BLOCK_SIZE, seed=1, workers=2), block)
        assert running[0] == 0
        assert len(calls) < 12  # the blocks still queued were cancelled

    def test_concurrent_estimates_share_a_pool(self, merton_1d):
        xi = dc.rep_exp_affine(0.5)
        cfg = dc.SimConfig(n_paths=3 * BLOCK_SIZE + 100, seed=9, workers=3)
        expected = _fields(dc.mc_stoch_exp(xi, merton_1d, 1.0, dataclasses.replace(cfg, workers=1)))
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with ThreadPoolExecutor(max_workers=4) as callers:
                got = list(callers.map(lambda _: _fields(dc.mc_stoch_exp(xi, merton_1d, 1.0, cfg)),
                                       range(8), timeout=120))
        finally:
            sys.setswitchinterval(interval)
        assert got == [expected] * 8

    # Python 3.12 and later warn on a fork of a process with threads; here
    # the parent's pool threads are the point of the test.
    @pytest.mark.filterwarnings("ignore:This process .* is multi-threaded:DeprecationWarning")
    def test_forked_child_runs_estimates_on_a_pool_of_its_own(self, merton_1d):
        ctx = multiprocessing.get_context("fork")
        xi, cfg = dc.rep_exp_affine(0.5), dc.SimConfig(n_paths=4 * BLOCK_SIZE, seed=7, workers=2)
        parent = _fields(dc.mc_stoch_exp(xi, merton_1d, 1.0, cfg))  # the pool now has threads
        receive, send = ctx.Pipe(duplex=False)
        child = ctx.Process(target=_estimate_in_child, args=(send, xi, merton_1d, cfg))
        child.start()
        try:
            send.close()
            assert receive.poll(60), "the forked child's estimate did not finish"
            assert receive.recv() == parent
            child.join(10)
            assert not child.is_alive() and child.exitcode == 0
        finally:
            if child.is_alive():
                child.kill()
                child.join(10)
            receive.close()
