import copy
import dataclasses
import math
import multiprocessing
import operator
import re
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
from driftcalc.errors import EngineError, NanPointError
from driftcalc import mcoracle
from driftcalc.mcoracle import (
    BLOCK_SIZE,
    _apply_weights,
    _block_rng,
    _collect,
    _estimate,
    _first,
    _pathwise,
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
        x = sample_increment_batch(merton_1d, 1.0, _block_rng(2, 0), 1)[0]
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


def _unit_atom_counts(mean: float, rng, n: int) -> np.ndarray:
    """Each path's jump count through the kernel: with a unit atom, no
    diffusion and the zero truncation an increment is its path's count."""
    t = dc.LevyTriplet(1, np.zeros(1), np.zeros((1, 1)), dc.FiniteAtoms([[1.0]], [mean / 2]),
                       dc.TruncationSpec.zero(1))
    return sample_increment_batch(t, 2.0, rng, n)[:, 0]


def _assert_poisson(counts: np.ndarray, mean: float):
    """Chi-square of counts against the Poisson(mean) pmf, on cells of at
    least 5 expected paths, the tails pooled."""
    k = np.arange(counts.max() + 2)
    pmf = stats.poisson.pmf(k, mean)
    keep = np.flatnonzero(pmf * counts.size >= 5)
    lo, hi = keep[0], keep[-1]
    observed = np.bincount(counts, minlength=k.size)
    obs = [observed[:lo + 1].sum(), *observed[lo + 1:hi], observed[hi:].sum()]
    exp = [stats.poisson.cdf(lo, mean), *pmf[lo + 1:hi], stats.poisson.sf(hi - 1, mean)]
    _, p_value = stats.chisquare(obs, np.asarray(exp) * counts.size)
    assert p_value > 0.001


def _fold_in_python(op, python_op, dtype, columns, labels, n):
    """(n, m) folds of each path's jump values, row by row in Python."""
    expected = np.full((n, len(columns)), op.identity, dtype)
    for row, path in enumerate(labels):
        for j, column in enumerate(columns):
            expected[path, j] = python_op(expected[path, j], column[row])
    return expected


class TestPoissonisedKernel:
    """A block's jumps, below DENSE a path one Poisson total on sorted
    uniform path labels folded by ``ufunc.at`` in slices of whole paths,
    from DENSE on numpy's per-path counts folded by ``reduceat``."""

    @pytest.mark.parametrize("mean", [0.05, 0.7, 6.0])
    def test_sorted_labels_imply_iid_poisson_counts(self, mean):
        labels = [mcoracle._path_labels(_block_rng(31, b), BLOCK_SIZE, mean) for b in range(8)]
        assert all(np.all(np.diff(block) >= 0) for block in labels)
        if mean >= 6.0:  # more labels than a slice's rows
            assert min(block.size for block in labels) > mcoracle.ROW_CHUNK
        _assert_poisson(np.concatenate([np.bincount(block, minlength=BLOCK_SIZE) for block in labels]), mean)

    def test_dense_counts_are_iid_poisson(self):
        counts = _unit_atom_counts(40.0, _block_rng(31, 0), 8 * BLOCK_SIZE)
        _assert_poisson(counts.astype(np.int64), 40.0)

    def test_counts_from_dense_on_are_numpys_per_path_draw(self):
        counts = _unit_atom_counts(mcoracle.DENSE, _block_rng(5, 1), BLOCK_SIZE)
        rng = _block_rng(5, 1)
        rng.standard_normal((BLOCK_SIZE, 1))  # the diffusion normals come first
        assert counts.tobytes() == rng.poisson(mcoracle.DENSE, BLOCK_SIZE).astype(np.float64).tobytes()

    def test_no_mass_draws_nothing(self):
        rng = _block_rng(5, 0)
        assert mcoracle._path_labels(rng, 100, 0.0).size == 0
        assert rng.random(4).tobytes() == _block_rng(5, 0).random(4).tobytes()

    @pytest.mark.parametrize("mean", [0.7, 6.0])
    def test_labels_folds_and_next_draw_are_one_stream_however_sliced(self, mean, monkeypatch):
        def fold(chunk):
            # two outputs of a Gaussian body's draw, one jump's values after another
            monkeypatch.setattr(mcoracle, "ROW_CHUNK", chunk)
            rng, sizes = _block_rng(5, 2), []
            labels = mcoracle._path_labels(rng, BLOCK_SIZE, mean)
            out = np.ones((2, BLOCK_SIZE))
            folded = mcoracle._fold_labels(
                np.multiply, lambda rng, k: sizes.append(k) or 1.0 + rng.standard_normal((k, 2)).T,
                rng, labels, out)
            ends = np.cumsum(sizes)
            # each slice holds whole paths, at most chunk rows or one longer path
            assert ends[-1] == labels.size and np.all(labels[ends[:-1] - 1] < labels[ends[:-1]])
            assert all(k <= chunk or labels[end - k] == labels[end - 1] for k, end in zip(sizes, ends))
            return labels, folded, rng.random(4)

        labels, folded, after = fold(mcoracle.ROW_CHUNK)
        # one call draws the labels as calls of at most ROW_CHUNK labels did
        rng = _block_rng(5, 2)
        total = int(rng.poisson(BLOCK_SIZE * mean))
        chunked = [rng.integers(0, BLOCK_SIZE, min(total - done, mcoracle.ROW_CHUNK))
                   for done in range(0, total, mcoracle.ROW_CHUNK)]
        assert np.sort(np.concatenate(chunked)).tobytes() == labels.tobytes()
        for chunk in (7, 1000):
            other = fold(chunk)
            assert [a.tobytes() for a in other] == [labels.tobytes(), folded.tobytes(), after.tobytes()]

    @pytest.mark.parametrize("chunk", [None, 7])
    @pytest.mark.parametrize("dtype", [np.float64, np.complex128])
    @pytest.mark.parametrize("op, python_op", [(np.add, operator.add), (np.multiply, operator.mul)])
    def test_sorted_label_fold_equals_a_python_loop(self, op, python_op, dtype, chunk, monkeypatch):
        # empty paths, one-jump paths, a path of 9 jumps, longer than a
        # slice of 7 rows, and a trailing empty path, on two columns laid
        # out as draws are
        if chunk is not None:
            monkeypatch.setattr(mcoracle, "ROW_CHUNK", chunk)
        counts = np.array([0, 1, 3, 0, 0, 9, 1, 2, 0, 5, 1, 0])
        labels = np.repeat(np.arange(counts.size), counts)
        rng = np.random.default_rng(4)
        values = rng.normal(1.0, 0.5, (labels.size, 2))
        if dtype is np.complex128:
            values = values + 1j * rng.normal(0.0, 0.5, values.shape)
        columns, sizes = values.T, []

        def draw(rng, k):  # the columns, slice after slice
            sizes.append(k)
            return columns[:, sum(sizes) - k:sum(sizes)]

        folded = mcoracle._fold_labels(op, draw, None, labels, np.full((2, counts.size), op.identity, dtype))
        expected = _fold_in_python(op, python_op, dtype, columns, labels, counts.size)
        assert folded.dtype == dtype and folded.tobytes() == expected.tobytes()
        assert sizes == ([labels.size] if chunk is None else [4, 9, 3, 6])

    @pytest.mark.parametrize("dtype", [np.float64, np.complex128])
    @pytest.mark.parametrize("op", [np.add, np.multiply])
    def test_dense_fold_equals_a_fold_of_each_path_alone(self, op, dtype, monkeypatch):
        # DENSE rows a path and more, with empty, one-jump and trailing empty
        # paths; each path alone is folded by reduceat, as np.add.reduce
        # would sum it in another order
        counts = np.array([0, 25, 12, 0, 40, 1, 30, 0])
        assert counts.sum() >= mcoracle.DENSE * counts.size
        rng = np.random.default_rng(6)
        columns = rng.normal(1.0, 0.5, (2, counts.sum()))
        if dtype is np.complex128:
            columns = columns + 1j * rng.normal(0.0, 0.5, columns.shape)
        folded = mcoracle._segment_reduce(op, columns, counts)
        ends = np.cumsum(counts)
        expected = np.array([[op.reduceat(column[end - k:end], [0])[0] if k else op.identity
                              for column in columns] for k, end in zip(counts, ends)], dtype)
        assert folded.dtype == dtype and folded.tobytes() == expected.tobytes()
        # a product has the bits of the row-order fold, so no exponential
        # estimate depends on which fold a chunk takes
        monkeypatch.setattr(mcoracle, "DENSE", np.inf)
        row_order = mcoracle._segment_reduce(op, columns, counts)
        assert (row_order.tobytes() == folded.tobytes()) == (op is np.multiply)


#: each estimator that takes a horizon, at a model and a horizon T
HORIZON_ESTIMATORS = {
    "mc_stoch_exp": lambda model, T: dc.mc_stoch_exp(dc.rep_exp_affine(0.5), model, T, dc.SimConfig(100, 1)),
    "mc_sum": lambda model, T: dc.mc_sum(dc.rep_exp_affine(0.5), model, T, dc.SimConfig(100, 1)),
    "mc_reweighted": lambda model, T: dc.mc_reweighted(
        dc.rep_exp_affine(0.5), dc.rep_exp_utility(0.7), model, T, dc.SimConfig(100, 1)),
    "sample_increment_batch": lambda model, T: sample_increment_batch(model, T, _block_rng(1, 0), 10),
}


@pytest.mark.parametrize("T", [-1.0, math.nan, math.inf])
@pytest.mark.parametrize("model", ["merton_1d", "trinomial"])
@pytest.mark.parametrize("estimator", sorted(HORIZON_ESTIMATORS))
def test_a_horizon_that_is_negative_or_not_finite_is_refused(estimator, model, T, request):
    with pytest.raises(ValueError, match=f"^time horizon must be nonnegative and finite, got {T}$"):
        HORIZON_ESTIMATORS[estimator](request.getfixturevalue(model), T)


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
        twin = copy.deepcopy(rng)
        compounded = _pathwise(dc.rep_exp_affine(v), t, 1.0, exponential=True)(rng, 4_000, _first)
        direct = np.exp(v * sample_increment_batch(t, 1.0, twin, 4_000)[:, 0])
        np.testing.assert_allclose(compounded, direct, rtol=1e-12)

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
        run, fold = dc.RepFn._run, mcoracle._fold_labels

        def counted_run(self, rule, x):
            if rule == "ev":
                walks.append(x.shape[0])
            return run(self, rule, x)

        def counted_fold(op, draw, rng, labels, out):
            blocks.append(labels.size)
            reductions.append(len(out))
            return fold(op, draw, rng, labels, out)

        monkeypatch.setattr(dc.RepFn, "_run", counted_run)
        monkeypatch.setattr(mcoracle, "_fold_labels", counted_fold)
        cfg = dc.SimConfig(n_paths=3 * BLOCK_SIZE, seed=14)
        dc.mc_reweighted(dc.rep_exp_affine(0.6), dc.rep_exp_utility(0.8), merton_1d, 1.0, cfg)
        # the compensator's quadrature walks its nodes too; a block's walk
        # takes all of the block's jumps, one chunk here, and its reduction
        # both outputs
        block_walks = [n for n in walks if n in blocks]
        assert len(blocks) == len(block_walks) == len(reductions) == 3
        assert sorted(block_walks) == sorted(blocks)
        assert reductions == [2, 2, 2]

    @pytest.mark.parametrize("model", ["merton_1d", "atoms_1d", "trinomial"])
    def test_one_tree_equals_two_trees_on_shared_draws(self, model, request):
        # the weight is eta's exponential times 1 / E[w], E[w] being the
        # expectation of drift.py on the model's clock
        expectation = dc.discrete_stoch_exp if model == "trinomial" else dc.expectation_stoch_exp
        model = request.getfixturevalue(model)
        xi, eta, T = dc.rep_exp_affine(0.6), dc.rep_exp_utility(0.8), 1.3
        cfg = dc.SimConfig(n_paths=3 * BLOCK_SIZE + 100, seed=15)
        xi_paths, eta_paths = (_pathwise(f, model, T, exponential=True) for f in (xi, eta))
        norm = expectation(eta, model, T)
        assert norm.imag == 0.0
        scale = 1.0 / norm.real

        def block(rng, size):
            twin = copy.deepcopy(rng)  # the same draws for the second tree
            return _apply_weights(eta_paths(rng, size, _first) * scale, xi_paths(twin, size, _first))

        two = _estimate(_collect(cfg, block))
        one = dc.mc_reweighted(xi, eta, model, T, cfg)
        assert (one.mean, one.std_error, one.kurtosis) == (two.mean, two.std_error, two.kurtosis)

    def test_discrete_weights_are_real(self, trinomial, monkeypatch):
        seen = []
        reduce = mcoracle._segment_reduce

        def spy(op, columns, counts):
            seen.extend(c.dtype for c in columns)
            return reduce(op, columns, counts)

        monkeypatch.setattr(mcoracle, "_segment_reduce", spy)
        cfg = dc.SimConfig(n_paths=5_000, seed=16)
        dc.mc_stoch_exp(dc.rep_exp_affine(0.4), trinomial, 3.0, cfg)
        dc.mc_reweighted(dc.rep_exp_affine(0.4), dc.rep_exp_utility(1.1), trinomial, 3.0, cfg)
        assert seen == [np.float64] * 3

    # estimates of one draw of (paths, floor(T)) indices, as sampled before
    # the draw was split into row chunks; the weighted standard error at
    # T = 250 moved by an ulp when its normaliser became discrete_stoch_exp's
    # atom integral and complex power
    DISCRETE_PINS = {
        3.0: ((0.9983343066809736 + 0j), 0.00040156912838026026,
              (0.9936400586206121 - 0.0030590373394046018j), 0.0005931149743186543),
        250.0: ((0.8548700891038695 + 0j), 0.003263487127941599,
                (0.581226279333703 - 0.16202294227433225j), 0.0036181416344262056),
    }

    @pytest.mark.parametrize("chunk", [mcoracle.ROW_CHUNK, 1000, 7])
    @pytest.mark.parametrize("T", [3.0, 250.0])
    def test_discrete_draws_in_row_chunks_are_one_draw(
        self, trinomial, atoms_1d, merton_1d, monkeypatch, T, chunk
    ):
        cfg = dc.SimConfig(n_paths=10_000, seed=11)

        def estimates(model, T):
            plain = dc.mc_stoch_exp(dc.rep_exp_affine(0.3), model, T, cfg)
            weighted = dc.mc_reweighted(
                dc.rep_exp_affine(0.3 + 0.2j), dc.rep_exp_utility(0.7), model, T, cfg
            )
            return (plain.mean, plain.std_error, weighted.mean, weighted.std_error)

        # atom indices and Gaussian jumps are one stream of draws however
        # they are chunked, so the Levy models keep the default chunk's bits
        levy = [estimates(m, 1.0) for m in (atoms_1d, merton_1d)]
        monkeypatch.setattr(mcoracle, "ROW_CHUNK", chunk)
        assert estimates(trinomial, T) == self.DISCRETE_PINS[T]
        assert [estimates(m, 1.0) for m in (atoms_1d, merton_1d)] == levy

    def test_discrete_draw_memory_is_bounded(self, trinomial):
        # one (8192, 2000) draw of indices and gathered factors took 250 MB
        tracemalloc.start()
        try:
            dc.mc_stoch_exp(dc.rep_exp_affine(0.3), trinomial, 2000.0, dc.SimConfig(n_paths=8192, seed=3))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 32 * 2**20

    def test_levy_draw_memory_is_bounded(self):
        # lambda T = 1000 jumps per path; one (8192 * 1000)-jump block held
        # at once peaked at 500 MB, row chunks at 3 MB
        t = dc.LevyTriplet(
            1, np.zeros(1), np.zeros((1, 1)),
            dc.GaussianPush(500.0, np.array([-0.01]), np.array([[0.0004]])),
            dc.TruncationSpec.identity(1),
        )
        tracemalloc.start()
        try:
            dc.mc_stoch_exp(dc.rep_exp_affine(0.5), t, 2.0, dc.SimConfig(n_paths=8192, seed=3))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 8 * 2**20

    def test_atom_jumps_are_gathered_from_one_walk_on_the_atoms(self, atoms_1d, monkeypatch):
        cfg = dc.SimConfig(n_paths=3 * BLOCK_SIZE + 100, seed=19)
        walks, gaussian_rows, gathered, reference, _ = _gathered_and_reference(
            monkeypatch, atoms_1d.jumps,
            lambda jumps: dc.mc_stoch_exp(dc.rep_exp_affine(0.6), dataclasses.replace(atoms_1d, jumps=jumps), 1.3, cfg))
        assert walks == [atoms_1d.jumps.points.shape[0]] and not gaussian_rows
        assert _fields(gathered) == _fields(reference)

    @pytest.mark.parametrize("case", ["atoms+gaussian", "margrabe"])
    def test_atom_parts_of_mixed_models_are_gathered(self, case, atoms_1d, margrabe_jump_model, monkeypatch):
        # atoms + a Gaussian body over 65 536 paths at lambda T = 1.65, of
        # which 0.44 is the body's, and the exchange model's jump body with
        # a default atom
        if case == "margrabe":
            triplet, cfg = margrabe_jump_model.triplet(), dc.SimConfig(n_paths=3 * BLOCK_SIZE + 100, seed=19)

            def estimate(jumps):
                with monkeypatch.context() as m:
                    m.setattr(dc.MargrabeModel, "triplet", lambda _: dataclasses.replace(triplet, jumps=jumps))
                    return dc.mc_margrabe(margrabe_jump_model, cfg)
        else:
            triplet = dataclasses.replace(atoms_1d, jumps=dc.SumMeasure((
                atoms_1d.jumps, dc.GaussianPush(0.8, np.array([-0.05]), np.array([[0.04]])))))
            cfg = dc.SimConfig(n_paths=8 * BLOCK_SIZE, seed=19)

            def estimate(jumps):
                return dc.mc_stoch_exp(dc.rep_exp_affine(0.6), dataclasses.replace(triplet, jumps=jumps), 0.55, cfg)

        walks, gaussian_rows, gathered, reference, every_jump = _gathered_and_reference(
            monkeypatch, triplet.jumps, estimate)
        (atoms,) = [p for p in triplet.jumps.parts if isinstance(p, dc.FiniteAtoms)]
        # one walk on the atoms; every other walk is one draw of the Gaussian body
        assert walks == [atoms.points.shape[0], *gaussian_rows] and gaussian_rows
        assert _fields(gathered) == _fields(reference)
        if case == "atoms+gaussian":  # the parent walked every jump, 107 905 rows
            assert (sum(walks), every_jump) == (28_777, 108_654)

    @pytest.mark.parametrize("case", ["discrete", "levy"])
    def test_a_normaliser_that_overflows_is_refused_before_any_path(self, case, monkeypatch):
        # E[1 + eta] = 1.169 to the power 5000, or exp(1e298): either clock's
        # expectation raises its overflow, and the message names the normaliser
        if case == "discrete":
            model, eta, T = dc.DiscreteModel([[-0.1], [0.0], [0.2]], [0.3, 0.4, 0.3]), dc.rep_exp_affine(3.0), 5000.0
            message = ("the measure-change normaliser E[1 + eta]^floor(T): "
                       "the result overflows: floor(T) = 5000 periods of (1.1688811063216682+0j)")
        else:
            model = dc.LevyTriplet(1, np.zeros(1), np.zeros((1, 1)), dc.FiniteAtoms([[5.0]], [0.01]),
                                   dc.TruncationSpec.zero(1))
            eta, T = dc.RepFn(1, (dc.Const(2e299) * dc.Coord(0),)), 1.0
            message = ("the measure-change normaliser exp(drift(eta) T): "
                       "the result overflows: T = 1 at a drift of (1.0000000000000001e+298+0j)")
        monkeypatch.setattr(mcoracle, "_collect", None)  # no block runs
        with pytest.raises(EngineError, match=f"^{re.escape(message)}$"):
            dc.mc_reweighted(dc.rep_exp_affine(0.1), eta, model, T, dc.SimConfig(n_paths=10_000, seed=1))

    def test_a_normaliser_undefined_at_an_atom_names_the_atom(self, trinomial, monkeypatch):
        # log(1 - 20 x) is undefined at the up move x = log 1.1; the parent
        # summed the atoms by hand and read "floor(T) = 3 periods of nan"
        eta = dc.RepFn(1, (dc.Log(dc.Const(1.0) - dc.Const(20.0) * dc.Coord(0)),))
        monkeypatch.setattr(mcoracle, "_collect", None)  # no block runs
        with pytest.raises(NanPointError) as info:
            dc.mc_reweighted(dc.rep_exp_affine(0.1), eta, trinomial, 3.0, dc.SimConfig(n_paths=100, seed=1))
        assert str(info.value) == ("the measure-change normaliser E[1 + eta]^floor(T): "
                                   f"integrand is undefined at atom {[math.log(1.1)]}")
        assert info.value.point.tolist() == [math.log(1.1)]

    def test_a_normaliser_that_underflows_is_refused(self, trinomial):
        # 0.97 to the power 50 000 is 0.0 in float64
        with pytest.raises(EngineError, match=r"normaliser E\[1 \+ eta\]\^floor\(T\) = 0\.0 is not finite"):
            dc.mc_reweighted(dc.rep_exp_affine(0.1), dc.rep_exp_affine(-3.0),
                             dc.DiscreteModel([[-0.1], [0.0], [0.2]], [0.3, 0.4, 0.3]), 50_000.0,
                             dc.SimConfig(n_paths=100, seed=1))

    def test_negative_weight_is_rejected(self, trinomial):
        # eta far below -1 on part of the support produces negative weights
        eta = dc.RepFn(1, (dc.Const(-30.0) * dc.Coord(0),))
        with pytest.raises(EngineError, match="negative measure-change weight"):
            dc.mc_reweighted(dc.rep_identity(1), eta, trinomial, 1.0,
                             dc.SimConfig(n_paths=10_000, seed=6))

    def test_nan_and_minus_inf_weights_pass_on_as_nonfinite_values(self):
        w = np.ones(4000)
        w[[3, 1700]], w[2500] = np.nan, -np.inf
        weighted = _apply_weights(w, np.full(4000, 2.0))
        assert np.count_nonzero(~np.isfinite(weighted)) == 3
        est = _estimate(weighted)
        assert (est.mean, est.n_effective, est.n_nonfinite) == (2.0, 3997, 3)

    @pytest.mark.parametrize("dtype", [np.float64, np.complex128])
    def test_a_finite_negative_weight_is_refused(self, dtype):
        w = np.array([1.0, np.nan, -np.inf, 0.5, -1e-300], dtype)
        with pytest.raises(EngineError, match="^negative measure-change weight encountered; "
                                              "eta >= -1 is violated on the support$"):
            _apply_weights(w, np.ones(5))

    @pytest.mark.parametrize("v_dtype", [np.float64, np.complex128])
    def test_real_and_complex_typed_real_weights_give_the_same_bits(self, v_dtype):
        rng = np.random.default_rng(8)
        w = rng.lognormal(0.0, 1.0, 1000)
        w[[5, 600]], w[70] = np.nan, -np.inf
        v = rng.normal(1.0, 0.5, 1000).astype(v_dtype)
        with np.errstate(invalid="ignore"):  # -inf times a complex value
            real, cplx = _apply_weights(w, v), _apply_weights(w.astype(np.complex128), v)
        assert real.dtype == cplx.dtype == v_dtype and real.tobytes() == cplx.tobytes()


@pytest.mark.parametrize("kind", ["levy", "discrete"])
def test_a_representation_of_another_dimension_is_a_usage_error(kind, monkeypatch):
    # the parent failed inside the kernel: numpy's "matmul: Input operand 1
    # has a mismatch in its core dimension 0" on a triplet, and "expected a
    # batch of shape (N, 1), got (2, 2)" on a discrete law
    if kind == "levy":
        model = dc.LevyTriplet(2, np.zeros(2), np.eye(2) * 0.01, dc.FiniteAtoms([[0.1, 0.0]], [1.0]),
                               dc.TruncationSpec.identity(2))
    else:
        model = dc.DiscreteModel([[0.1, 0.0], [-0.1, 0.05]], [0.5, 0.5])
    one_d, two_d, cfg = dc.rep_exp_affine(0.5), dc.rep_coord(2, 0), dc.SimConfig(n_paths=100, seed=1)
    monkeypatch.setattr(mcoracle, "_collect", None)  # no block runs
    for call in (lambda: dc.mc_stoch_exp(one_d, model, 1.0, cfg),
                 lambda: dc.mc_sum(one_d, model, 1.0, cfg),
                 lambda: dc.mc_reweighted(one_d, two_d, model, 1.0, cfg),
                 lambda: dc.mc_reweighted(two_d, one_d, model, 1.0, cfg)):
        with pytest.raises(ValueError, match=r"^representation expects dimension 1, triplet has 2$"):
            call()


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
    real, cplx = _estimate(vals.copy()), _estimate(vals.astype(complex))
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


class Ungathered(dc.JumpMeasure):
    """An atom law drawn by the same ``rng.choice`` call as FiniteAtoms, but
    not a FiniteAtoms: the tree is walked at every drawn jump."""

    def __init__(self, atoms):
        self.atoms, self.dim = atoms, atoms.dim

    def total_mass(self):
        return self.atoms.total_mass()

    def _draw(self, f):
        points, lam = self.atoms.points, self.atoms.intensities
        return lambda rng, n: f(points[rng.choice(lam.size, size=n, p=lam / lam.sum())]).T

    def _truncation_moment(self, trunc):
        return self.atoms._truncation_moment(trunc)


def _ungathered(jumps):
    """A measure with each atom part replaced by its Ungathered twin."""
    if isinstance(jumps, dc.SumMeasure):
        return dc.SumMeasure(tuple(map(_ungathered, jumps.parts)))
    return Ungathered(jumps) if isinstance(jumps, dc.FiniteAtoms) else jumps


def _gathered_and_reference(monkeypatch, jumps, estimate):
    """(walks, Gaussian rows drawn, estimate, reference, rows the reference
    walked): ``estimate(jumps)`` with the size of each of its tree walks and
    of each Gaussian draw, then ``estimate`` of the jumps' Ungathered twin,
    which walks every drawn jump."""
    walks, gaussian_rows = [], []
    run, draw_gaussian = dc.RepFn._run, dc.GaussianPush._draw

    def counted_run(self, rule, x):
        if rule == "ev":
            walks.append(x.shape[0])
        return run(self, rule, x)

    def counted_draw(self, f):
        draw = draw_gaussian(self, f)
        return lambda rng, n: gaussian_rows.append(n) or draw(rng, n)

    with monkeypatch.context() as m:
        m.setattr(dc.RepFn, "_run", counted_run)
        m.setattr(dc.GaussianPush, "_draw", counted_draw)
        gathered = estimate(jumps)
        counted = walks[:], gaussian_rows[:]
        walks.clear()
        reference = estimate(_ungathered(jumps))
    return (*counted, gathered, reference, sum(walks))


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

    @pytest.mark.parametrize("seed", [-1, -2**64, 2**64, 2**64 + 1, np.int64(-1)])
    def test_a_seed_outside_the_philox_seed_word_is_refused(self, seed):
        # masked into 64 bits, -1 and 2**64 - 1 gave one stream, 2**64 that of 0
        with pytest.raises(ValueError, match=rf"^seed must lie in \[0, 2\*\*64\), got {int(seed)}$"):
            dc.SimConfig(n_paths=1_000, seed=seed)

    def test_a_worker_count_above_the_maximum_is_refused(self, monkeypatch):
        started = []
        monkeypatch.setattr(threading.Thread, "start", lambda thread: started.append(thread))
        assert dc.SimConfig(n_paths=1_000, seed=1, workers=mcoracle.MAX_WORKERS).workers == 64
        for workers in (0, mcoracle.MAX_WORKERS + 1, 100_000):
            with pytest.raises(ValueError, match=rf"^worker count must lie in \[1, 64\], got {workers}$"):
                dc.SimConfig(n_paths=10**8, seed=1, workers=workers)
        assert started == []

    def test_the_ends_of_the_seed_range_give_their_own_streams(self, merton_1d):
        xi, est = dc.rep_exp_affine(0.5), {}
        for seed in (0, 1, 2**63, 2**64 - 1):
            est[seed] = _fields(dc.mc_stoch_exp(xi, merton_1d, 1.0, dc.SimConfig(n_paths=2_000, seed=seed)))
        assert len(set(est.values())) == 4


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

    @pytest.mark.parametrize("workers", [1, 2, 3])
    def test_the_lowest_numbered_failing_block_raises(self, workers):
        # block 5 fails at once, block 3 later, while others still run
        def block(rng, n):
            b = int(rng.bit_generator.state["state"]["key"][1])
            if b == 5:
                raise EngineError("block 5 failed")
            time.sleep(0.03 if b == 3 else 0.005)
            if b == 3:
                raise EngineError("block 3 failed")
            return rng.random(n)

        with pytest.raises(EngineError, match="^block 3 failed$"):
            _collect(dc.SimConfig(n_paths=12 * BLOCK_SIZE, seed=1, workers=workers), block)

    @pytest.mark.parametrize("workers", [1, 2, 3])
    def test_an_estimate_starts_at_most_one_thread_fewer_than_its_workers(self, merton_1d, workers,
                                                                           monkeypatch):
        started, start = [], threading.Thread.start

        def spy(thread):
            started.append(thread.name)
            return start(thread)

        monkeypatch.setattr(threading.Thread, "start", spy)
        mcoracle._pool.cache_clear()
        cfg = dc.SimConfig(n_paths=6 * BLOCK_SIZE, seed=5, workers=workers)
        dc.mc_stoch_exp(dc.rep_exp_affine(0.5), merton_1d, 1.0, cfg)
        assert len(started) <= workers - 1

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
