import math
import re
import warnings

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import driftcalc as dc
from driftcalc import cli, models
from driftcalc.errors import ConvergenceError, EngineError, NanPointError, NonIntegrableError
from driftcalc.mcoracle import _block_rng

from conftest import combined_atom_sum, random_composed_tree


def _points(X):
    """The jump points themselves, as the function a measure draws."""
    return X


class TestFiniteAtomsIntegration:
    def test_single_atom_value(self):
        F = dc.FiniteAtoms([[0.1]], [1.0])
        val, err = dc.integrate(F, lambda X: np.exp(X) - 1.0 - X)
        assert val[0] == pytest.approx(0.005170918075647707, abs=1e-18)
        assert err == 0.0

    def test_matches_direct_loop_exactly(self):
        rng = np.random.default_rng(3)
        pts = rng.normal(0.0, 0.5, (9, 2))
        lam = rng.uniform(0.1, 2.0, 9)
        F = dc.FiniteAtoms(pts, lam)
        g = dc.rep_ratio()
        val, _ = dc.integrate(F, g.eval_batch)
        expected = np.zeros(1, dtype=complex)
        for k in range(9):
            # the tree's own arithmetic: float64 at a real atom
            expected = expected + lam[k] * g.eval(pts[k])
        assert np.array_equal(val, expected)

    def test_zero_integrand(self):
        F = dc.FiniteAtoms([[0.4], [-0.2]], [1.0, 2.0])
        val, err = dc.integrate(F, lambda X: np.zeros_like(X))
        assert np.array_equal(val, np.zeros(1, dtype=complex))
        assert err == 0.0

    def test_nan_at_atom_reported_with_point(self):
        F = dc.FiniteAtoms([[0.5], [-1.0]], [1.0, 1.0])
        with pytest.raises(NanPointError, match=r"-1\.0"):
            dc.integrate(F, dc.rep_log_return().eval_batch)

    def test_duplicate_atoms_rejected(self):
        with pytest.raises(ValueError, match="duplicate"):
            dc.FiniteAtoms([[0.1], [0.1 + 1e-14]], [1.0, 1.0])

    def test_nonpositive_intensity_rejected(self):
        with pytest.raises(ValueError, match="positive"):
            dc.FiniteAtoms([[0.1]], [0.0])


class TestGaussianPush:
    def test_log_moment_vanishes(self):
        # log(1 + (e^Z - 1)) = Z, so the mean-zero body integrates to zero.
        gp = dc.GaussianPush(1.0, np.zeros(1), np.array([[0.09]]))
        val, _ = dc.integrate(gp, lambda X: np.log(1.0 + X))
        assert abs(val[0]) < 1e-12

    def test_linear_moment_lognormal_identity(self):
        gp = dc.GaussianPush(1.0, np.zeros(1), np.array([[0.09]]))
        val, _ = dc.integrate(gp, lambda X: X)
        assert val[0].real == pytest.approx(math.expm1(0.045), rel=1e-12)

    def test_linear_moment_brute_force(self):
        # 1e7 draws pin the same number to Monte Carlo accuracy.
        gp = dc.GaussianPush(1.0, np.zeros(1), np.array([[0.09]]))
        val, _ = dc.integrate(gp, lambda X: X)
        rng = _block_rng(314, 0)
        draws = gp._draw(_points)(rng, 10_000_000)[0]
        se = draws.std() / math.sqrt(draws.size)
        assert abs(draws.mean() - val[0].real) < 3 * se

    def test_support_stays_above_minus_one(self):
        gp = dc.GaussianPush(2.0, np.array([-0.3, 0.1]), np.array([[0.5, 0.1], [0.1, 0.3]]))
        draws = gp._draw(_points)(_block_rng(7, 0), 1_000_000)
        assert np.all(draws > -1.0)

    def test_doubling_converges_on_pricing_integrands(self, margrabe_jump_model):
        # Steep contour point: the integrand oscillates fastest at |Im v| = 50.
        v = -0.5 + 50.0j
        xi = dc.rep_margrabe(v)
        gp = dc.GaussianPush(
            margrabe_jump_model.jump_intensity,
            np.asarray(margrabe_jump_model.jump_mean),
            np.asarray(margrabe_jump_model.jump_cov),
        )
        val, err = dc.integrate(gp, xi.eval_batch)
        assert err < 1e-9 * max(1.0, abs(val[0]))

    def test_invalid_covariance_rejected(self):
        with pytest.raises(ValueError, match="positive semidefinite"):
            dc.GaussianPush(1.0, np.zeros(2), np.array([[1.0, 2.0], [2.0, 1.0]]))

    @pytest.mark.parametrize("intensity, mean, cov, match", [
        (math.nan, [0.0], [[0.04]], "intensity must be finite"),
        (math.inf, [0.0], [[0.04]], "intensity must be finite"),
        (-0.1, [0.0], [[0.04]], "intensity must be nonnegative"),
        (0.8, [math.nan], [[0.04]], "mean must be finite"),
        (0.8, [-math.inf], [[0.04]], "mean must be finite"),
        (0.8, [0.0], [[math.inf]], "covariance must be finite"),
        (0.8, [0.0], [[math.nan]], "covariance must be finite"),
    ])
    def test_non_finite_parameters_rejected(self, intensity, mean, cov, match):
        # named when the measure is built, without a numpy warning
        with pytest.raises(ValueError, match=match):
            dc.GaussianPush(intensity, np.array(mean), np.array(cov))

    def test_zero_intensity_integrates_to_zero(self):
        gp = dc.GaussianPush(0.0, np.zeros(1), np.array([[0.04]]))
        val, err = dc.integrate(gp, lambda X: np.exp(X))
        assert np.array_equal(val, np.zeros(1, dtype=complex))
        assert err == 0.0


class TestGaussHermiteLadder:
    def test_smooth_integrand_stops_at_the_second_level(self):
        # One call: the 7-node rule, the two far-tail probe points, then the
        # 15-node rule, whose estimate agrees with the first.
        gp = dc.GaussianPush(1.0, np.zeros(1), np.array([[0.09]]))
        calls = []

        def g(X):
            calls.append(X.copy())
            return X

        val, _ = dc.integrate(gp, g)
        assert [X.shape for X in calls] == [(24, 1)]
        assert calls[0].dtype == np.float64
        u7, u15, probe = (np.polynomial.hermite.hermgauss(n)[0] for n in (7, 15, models.QUAD_PROBE_NODES))
        u = np.concatenate([u7, [probe[-1], -probe[-1]], u15])
        np.testing.assert_array_equal(calls[0][:, 0], np.expm1(np.sqrt(2.0) * u * np.sqrt(0.09)))
        assert val[0].real == pytest.approx(math.expm1(0.045), rel=1e-12)

    @pytest.mark.parametrize("d", [2, 3])
    def test_one_call_per_gaussian_body(self, d):
        # 7^d + 2d + 15^d points: 278 and 3 724 (24 in 1-d, above)
        gp = dc.GaussianPush(0.8, np.full(d, -0.05), 0.01 * (np.eye(d) + 0.5))
        sizes = []

        def g(X):
            sizes.append(len(X))
            return X

        dc.integrate(gp, g)
        assert sizes == [7**d + 2 * d + 15**d]

    def test_sum_and_mapped_measures_make_one_call_per_body(self):
        a = dc.GaussianPush(1.0, np.zeros(1), np.array([[0.01]]))
        b = dc.GaussianPush(0.5, np.array([0.1]), np.array([[0.04]]))
        for measure, bodies in ((dc.SumMeasure((a, b)), 2), (dc.MappedMeasure(a, dc.rep_exp_affine(0.5)), 1)):
            sizes = []

            def g(X):
                sizes.append(len(X))
                return X

            dc.integrate(measure, g)
            assert sizes == [24] * bodies

    def test_undefined_at_a_second_rule_node_names_it(self):
        # NaN at one node of the 15-node rule only: the same verdict as when
        # that rule was a walk of its own
        gp = dc.GaussianPush(1.0, np.zeros(1), np.array([[0.09]]))
        x = float(np.expm1(np.sqrt(2.0) * np.polynomial.hermite.hermgauss(15)[0][-1] * np.sqrt(0.09)))
        message = rf"^integrand is undefined at quadrature node \[{x!r}\]$"
        with pytest.raises(NanPointError, match=message) as info:
            dc.integrate(gp, lambda X: np.where(X == x, np.nan, X))
        assert info.value.point.tolist() == [x]

    def test_tail_probe_speaks_before_the_second_rule(self):
        # e^{x/2} outgrows the Gaussian tail at the probe; a NaN on the
        # 15-node rule does not take its place
        gp = dc.GaussianPush(1.0, np.zeros(1), np.array([[0.09]]))
        x = float(np.expm1(np.sqrt(2.0) * np.polynomial.hermite.hermgauss(15)[0][-1] * np.sqrt(0.09)))
        with pytest.raises(NonIntegrableError, match="grows faster than the jump law decays"):
            dc.integrate(gp, lambda X: np.where(X == x, np.nan, np.exp(0.5 * X)))

    @staticmethod
    def outermost(gp, n):
        """The jump point at the outermost positive node of the n-node rule."""
        u = np.polynomial.hermite.hermgauss(n)[0][-1]
        return float(np.expm1(gp.mean[0] + np.sqrt(2.0) * u * gp._factor[0, 0]))

    @pytest.mark.parametrize("nan", [complex(np.nan, 0.0), complex(0.0, np.nan)])
    def test_nan_at_the_probe_is_not_integrable(self, nan):
        # NaN at the far-tail probe point only (x ~ 630): the probe's own
        # verdict, as for a value that outgrows the tail there
        gp = dc.GaussianPush(1.0, np.zeros(1), np.array([[0.09]]))
        x = self.outermost(gp, models.QUAD_PROBE_NODES)
        message = (r"^jump integral did not converge: the integrand grows faster than the jump law "
                   rf"decays near x = \[{re.escape(repr(x))}\] \(weighted value nan there\)")
        with pytest.raises(NonIntegrableError, match=message) as info:
            dc.integrate(gp, lambda X: np.where(X > 100.0, nan, X + 0j))
        assert info.value.faults == {0: info.value}
        # a NaN on the 15-node rule as well does not take the probe's place
        x15 = self.outermost(gp, 15)
        with pytest.raises(NonIntegrableError, match=message):
            dc.integrate(gp, lambda X: np.where((X > 100.0) | (X == x15), nan, X + 0j))

    def test_nan_on_the_first_rule_speaks_before_the_probe(self):
        # NaN at the outermost 7-node point, and e^{x/2} outgrowing the tail
        # at the probe: the first rule's verdict comes first
        gp = dc.GaussianPush(1.0, np.zeros(1), np.array([[0.09]]))
        x = self.outermost(gp, 7)
        with pytest.raises(NanPointError, match=rf"^integrand is undefined at quadrature node \[{re.escape(repr(x))}\]$"):
            dc.integrate(gp, lambda X: np.where(X == x, np.nan, np.exp(0.5 * X)))

    def test_each_output_keeps_the_verdict_of_its_first_nan(self):
        # output 0: NaN at the probe; output 1: NaN on the 7-node rule and at
        # the probe; output 2: NaN on the 15-node rule; output 3: no NaN
        gp = dc.GaussianPush(1.0, np.zeros(1), np.array([[0.09]]))
        x7, x15 = self.outermost(gp, 7), self.outermost(gp, 15)

        def g(X):
            far = X > 100.0
            return np.hstack([np.where(far, np.nan, X), np.where(far | (X == x7), np.nan, X),
                              np.where(X == x15, np.nan, X), X])

        with pytest.raises(NonIntegrableError) as info:
            dc.integrate(gp, g)
        faults = info.value.faults
        assert sorted(faults) == [0, 1, 2] and faults[0] is info.value
        assert "weighted value nan there" in str(faults[0])
        assert type(faults[1]) is NanPointError and repr(x7) in str(faults[1])
        assert type(faults[2]) is NanPointError and repr(x15) in str(faults[2])

    def test_an_infinite_value_is_not_taken_for_a_nan(self):
        # +inf at the outermost 7-node point: rung 0's sum is not finite but
        # holds no NaN, so no node is named.  Rung 1 disagrees with it, and
        # the 31-node rule, which lacks the point, settles the integral.
        gp = dc.GaussianPush(1.0, np.zeros(1), np.array([[0.09]]))
        x7 = self.outermost(gp, 7)
        value, _ = dc.integrate(gp, lambda X: np.where(X == x7, np.inf, X))
        P, W = gp._build_nodes(2)
        assert value.tobytes() == ((1.0 + 0j) * np.add.reduce(W.reshape(-1, 1) * (P + 0j), 0)).tobytes()
        # +inf and -inf on rung 0: a NaN sum of values none of which is NaN
        x7_ = float(np.expm1(np.sqrt(2.0) * np.polynomial.hermite.hermgauss(7)[0][0] * 0.3))
        again, _ = dc.integrate(gp, lambda X: np.where(X == x7, np.inf, np.where(X == x7_, -np.inf, X)))
        assert again.tobytes() == value.tobytes()
        # +inf at the mean, a node of every rule: every change is NaN, and the
        # ladder gives up, naming no node
        with pytest.raises(ConvergenceError, match=r"after doubling to 255 nodes \(last change nan\)"):
            dc.integrate(gp, lambda X: np.where(X == 0.0, np.inf, X))

    def test_a_nan_first_met_on_a_later_walk_names_its_node(self):
        # a pole at row 20 of level 2, a node of the 31-node rule only: rungs
        # 0 and 1 disagree near it, and the 31-node walk meets the NaN
        gp = dc.GaussianPush(1.0, np.array([-0.3]), np.array([[0.16]]))
        c = float(gp._build_nodes(2).points[20, 0])
        assert c == 1.2968005912843314
        assert c not in gp._build_nodes(0).points
        f = dc.from_prefix(f"(repfn 1 (div (x 0) (sub (x 0) (const {c!r}))))")
        with pytest.raises(NanPointError, match=rf"^integrand is undefined at quadrature node \[{c!r}\]$") as info:
            dc.integrate(gp, f.eval_batch)
        assert info.value.point.tolist() == [c] and info.value.faults == {0: info.value}

    def test_a_second_rung_list_runs_through_the_same_loop(self, monkeypatch):
        # the ladder with its 31-node level dropped: the verdicts keep their
        # classes, named points and order, and the walks follow the list
        ladder = models._ladder
        monkeypatch.setattr(models, "_ladder", lambda d: (tuple(r for r in ladder(d)[0] if r[0] != 2), ladder(d)[1]))
        self.test_each_output_keeps_the_verdict_of_its_first_nan()
        gp = dc.GaussianPush(1.0, np.zeros(1), np.array([[0.09]]))
        sizes = []

        def g(X):
            sizes.append(len(X))
            return np.where(X == 0.0, np.inf, X)

        with pytest.raises(ConvergenceError, match=r"after doubling to 255 nodes \(last change nan\)"):
            dc.integrate(gp, g)
        assert sizes == [24, 63, 127, 255]
        assert gp._nodes == {}

    def test_a_drift_settled_on_its_first_walk_integrates_and_walks_once(self, monkeypatch):
        calls = []
        integrate, eval_batch = models.integrate, dc.RepFn.eval_batch
        monkeypatch.setattr(models, "integrate", lambda *a, **k: calls.append("integrate") or integrate(*a, **k))
        monkeypatch.setattr(dc.RepFn, "eval_batch", lambda f, X: calls.append(len(X)) or eval_batch(f, X))
        gp = dc.GaussianPush(0.6, np.array([-0.08, 0.02]), np.array([[0.01, 0.004], [0.004, 0.0225]]))
        t = dc.LevyTriplet(2, np.zeros(2), np.eye(2) * 0.04, gp, dc.TruncationSpec.identity(2))
        xi = dc.from_prefix("(repfn 2 (sub (mul (pow 0.7 (add (const 1) (x 0))) "
                            "(pow -1.2 (add (const 1) (x 1)))) (const 1)))")
        dc.drift(xi, t)
        # one walk of level 0: rung 0, the probe and rung 1
        assert calls == ["integrate", 7**2 + 4 + 15**2]

    def test_node_sets_are_cached_per_measure_after_success(self, monkeypatch):
        built = []
        build = dc.GaussianPush._build_nodes

        def counted(self, level):
            built.append(level)
            return build(self, level)

        monkeypatch.setattr(dc.GaussianPush, "_build_nodes", counted)
        gp = dc.GaussianPush(0.8, np.array([-0.05, 0.02]), np.array([[0.04, 0.01], [0.01, 0.02]]))
        first, _ = dc.integrate(gp, dc.rep_ratio().eval_batch)
        # level 0 holds the first two rules: one build for both
        assert built == [0]
        again, _ = dc.integrate(gp, dc.rep_ratio().eval_batch)
        assert built == [0]
        assert np.array_equal(first, again)

    def test_standard_rule_is_built_once_per_level_and_dimension(self, monkeypatch):
        # Fresh bodies of one dimension share the model-free rule: each
        # (nodes per axis, d) tensor rule is built once, and every node set
        # equals the rule built for the body alone, bit for bit.
        tensor_rule = models._tensor_rule

        def built_alone(gp, level):
            d = gp.dim
            parts = [tensor_rule(models._ladder_nodes(level), d)]
            if level == 0:
                pu, pw = models._hermite_nodes(models.QUAD_PROBE_NODES)
                probe_w = np.full(2 * d, pw[-1] * pw[models.QUAD_PROBE_NODES // 2] ** (d - 1))
                parts += [(pu[-1] * np.vstack([np.eye(d), -np.eye(d)]), probe_w),
                          tensor_rule(models._ladder_nodes(1), d)]
            U, W = (np.concatenate(a) for a in zip(*parts))
            return np.expm1(gp.mean[None, :] + np.sqrt(2.0) * U @ gp._factor.T), W / np.pi ** (d / 2)

        calls = []
        monkeypatch.setattr(models, "_tensor_rule", lambda n, d: calls.append((n, d)) or tensor_rule(n, d))
        models._standard_rule.cache_clear()
        rng = np.random.default_rng(5)
        for d in (1, 2, 3):
            for _ in range(2):
                A = rng.normal(size=(d, d)) * 0.2
                gp = dc.GaussianPush(0.5, rng.normal(size=d) * 0.1, A @ A.T)
                for level in (0, 2):
                    got, want = gp._build_nodes(level), built_alone(gp, level)
                    assert [a.tobytes() for a in got] == [a.tobytes() for a in want]
                    assert not any(a.flags.writeable for a in got)
        assert sorted(calls) == [(n, d) for n in (7, 15, 31) for d in (1, 2, 3)]

    @pytest.mark.parametrize("cov", [[[0.04, 0.01], [0.01, 0.02]], [[0.04, 0.04], [0.04, 0.04]]])
    def test_covariance_is_factored_once_per_measure(self, cov, monkeypatch):
        factored = []
        factor = models.psd_factor

        def counted(S):
            factored.append(S)
            return factor(S)

        monkeypatch.setattr(models, "psd_factor", counted)
        gp = dc.GaussianPush(0.8, np.array([-0.05, 0.02]), np.array(cov))
        dc.integrate(gp, dc.rep_ratio().eval_batch)
        draws = gp._draw(_points)(np.random.default_rng(5), 1_000).T
        assert len(factored) == 1
        # the node sets and the draws use the factor they always used
        U = np.random.default_rng(5).standard_normal((1_000, 2))
        assert np.array_equal(draws, np.expm1(gp.mean + U @ factor(gp.cov).T))

    def test_failed_integral_caches_nothing(self):
        gp = dc.GaussianPush(1.0, np.zeros(1), np.array([[0.25]]))
        with pytest.raises(ConvergenceError):
            dc.integrate(gp, lambda X: np.where(X.real > 0.1, 1.0 + 0j, 0.0 + 0j))
        assert gp._nodes == {}

    def test_non_integrable_integrand_is_named(self):
        # e^{0.5 x} with x = e^z - 1 outgrows every Gaussian tail: the true
        # value is +inf, although 15 and 31 nodes agree on -0.0802.
        gp = dc.GaussianPush(1.0, np.array([-0.3]), np.array([[0.16]]))
        with pytest.raises(
            NonIntegrableError,
            match=r"^jump integral did not converge: the integrand grows faster than "
            r"the jump law decays near x = \[",
        ):
            dc.integrate(gp, dc.rep_exp_affine(0.5).eval_batch)

    def test_every_rule_of_the_ladder_is_warning_free(self):
        levels = [models._ladder_nodes(k) for k in range(models.QUAD_MAX_DOUBLINGS + 1)]
        assert levels == [7, 15, 31, 63, 127, 255]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for n in levels + [models.QUAD_PROBE_NODES]:
                np.polynomial.hermite.hermgauss(n)
        # the next rung would warn, which is why the ladder stops at 255
        with pytest.warns(RuntimeWarning):
            np.polynomial.hermite.hermgauss(models._ladder_nodes(models.QUAD_MAX_DOUBLINGS + 1))


class TestTruncationMoment:
    def test_atom_moments(self):
        F = dc.FiniteAtoms([[2.0], [0.5]], [1.0, 3.0])
        np.testing.assert_allclose(
            dc.truncation_moment(F, dc.TruncationSpec.identity(1)), [3.5]
        )
        np.testing.assert_allclose(
            dc.truncation_moment(F, dc.TruncationSpec.unit_clip(1)), [1.5]
        )
        np.testing.assert_array_equal(
            dc.truncation_moment(F, dc.TruncationSpec.zero(1)), [0.0]
        )

    def test_gaussian_clip_matches_quadrature_reference(self):
        from scipy import integrate as si

        lam, m, s = 0.8, -0.05, 0.2
        gp = dc.GaussianPush(lam, np.array([m]), np.array([[s * s]]))
        got = dc.truncation_moment(gp, dc.TruncationSpec.unit_clip(1))[0]

        def f(z):
            x = math.expm1(z)
            h = x if abs(x) <= 1.0 else 0.0
            return lam * h * math.exp(-((z - m) ** 2) / (2 * s * s)) / math.sqrt(2 * math.pi * s * s)

        ref, _ = si.quad(f, m - 12 * s, math.log(2.0), limit=400)
        assert got == pytest.approx(ref, abs=1e-14)

    def test_gaussian_identity_moment(self):
        gp = dc.GaussianPush(0.8, np.array([-0.05]), np.array([[0.04]]))
        got = dc.truncation_moment(gp, dc.TruncationSpec.identity(1))[0]
        assert got == pytest.approx(0.8 * math.expm1(-0.05 + 0.02), rel=1e-14)


class TestAtomTruncationMoment:
    """An atom measure's truncation moment is its integral of h: the sum in
    atom order that every atom integral makes, bit for bit."""

    @staticmethod
    def sequential(F, trunc):
        h, totals = trunc.apply(F.points), []
        for i in range(F.dim):
            total = 0.0
            for k, lam in enumerate(F.intensities.tolist()):
                total = total + lam * float(h[k, i])
            totals.append(total)
        return np.array(totals)

    def test_moments_are_the_sequential_atom_sum(self):
        rng = np.random.default_rng(11)
        kinds = list(dc.TruncationKind)
        for _ in range(200):
            d, K = int(rng.integers(1, 4)), int(rng.integers(0, 7))
            # every clip case: inside, outside and on the unit boundary
            points = rng.normal(size=(K, d)) * rng.choice([0.3, 1.0, 3.0])
            if K:
                points[0, 0], points[-1, -1] = -0.0, rng.choice([1.0, -1.0, points[-1, -1]])
            F = dc.FiniteAtoms(points, rng.exponential(size=K) + 1e-3)
            trunc = dc.TruncationSpec(tuple(kinds[j] for j in rng.integers(0, 3, size=d)))
            got = dc.truncation_moment(F, trunc)
            assert got.dtype == np.float64 and got.shape == (d,)
            assert got.tobytes() == self.sequential(F, trunc).tobytes()

    def test_a_negative_zero_coordinate_sums_to_positive_zero(self):
        # the sum starts from +0.0, as an atom integral's does
        F = dc.FiniteAtoms([[-0.0, 0.5], [-0.0, -0.5]], [1.0, 1.0])
        got = dc.truncation_moment(F, dc.TruncationSpec.identity(2))
        assert got.tobytes() == np.array([0.0, 0.0]).tobytes()
        assert not np.signbit(got).any()


class TestTruncationMomentCache:
    """The moment int h dF is computed once per (measure, truncation)."""

    @staticmethod
    def spy(monkeypatch, cls):
        """The truncations each ``cls._truncation_moment`` call was asked for."""
        asked, moment = [], cls._truncation_moment

        def spied(self, trunc):
            asked.append(trunc.names())
            return moment(self, trunc)

        monkeypatch.setattr(cls, "_truncation_moment", spied)
        return asked

    def test_repeated_drifts_compute_each_moment_once(self, monkeypatch, merton_1d):
        asked = self.spy(monkeypatch, dc.GaussianPush)
        xi = dc.rep_exp_affine(0.5)
        totals = [dc.drift(xi, merton_1d).total for _ in range(3)]
        assert asked == [["unit_clip"]]
        assert all(np.array_equal(t, totals[0]) for t in totals)
        # another truncation of the same measure is a new entry, the old one stays
        identity = dc.TruncationSpec.identity(1)
        again = dc.retruncate(merton_1d, identity)
        assert asked == [["unit_clip"], ["identity"]]
        dc.drift(xi, again)
        dc.truncation_moment(merton_1d.jumps, dc.TruncationSpec.unit_clip(1))
        assert asked == [["unit_clip"], ["identity"]]
        # each moment is the closed form it always was, and read-only
        fresh = dc.GaussianPush(0.8, np.array([-0.05]), np.array([[0.04]]))
        for trunc in (merton_1d.truncation, identity):
            kept = dc.truncation_moment(merton_1d.jumps, trunc)
            assert kept.tobytes() == fresh._truncation_moment(trunc).tobytes()
            with pytest.raises(ValueError, match="read-only"):
                kept[0] = 1.0

    def test_a_sum_measure_keeps_its_own_moment(self, monkeypatch):
        asked = self.spy(monkeypatch, dc.FiniteAtoms)
        t = dc.LevyTriplet(1, np.array([0.05]), np.array([[0.04]]),
                           dc.SumMeasure((dc.FiniteAtoms([[0.25]], [0.1]),
                                          dc.GaussianPush(0.8, np.array([-0.05]), np.array([[0.04]])))),
                           dc.TruncationSpec.unit_clip(1))
        for _ in range(3):
            dc.drift(dc.rep_exp_affine(0.5), t)
        assert asked == [["unit_clip"]]

    def test_an_overriding_measure_keeps_its_override(self):
        class Doubled(dc.FiniteAtoms):
            def _truncation_moment(self, trunc):
                return 2.0 * super()._truncation_moment(trunc)

        atoms = dc.FiniteAtoms([[0.3], [-0.2]], [1.0, 0.5])
        doubled = Doubled(atoms.points, atoms.intensities)
        h = dc.TruncationSpec.identity(1)
        for _ in range(2):
            np.testing.assert_array_equal(dc.truncation_moment(doubled, h), 2.0 * dc.truncation_moment(atoms, h))
        # the drift's jump part int x dF - 1 * moment uses the override
        t = dc.LevyTriplet(1, np.zeros(1), np.zeros((1, 1)), doubled, h)
        jump = dc.drift(dc.rep_identity(1), t).jump_part[0]
        assert jump == pytest.approx(-dc.truncation_moment(atoms, h)[0], rel=1e-15)

    def test_a_moment_that_fails_is_not_kept(self, monkeypatch):
        # the image of a Gaussian body under e^{10x} - 1 has no first moment
        body = dc.GaussianPush(0.8, np.array([-0.05]), np.array([[0.04]]))
        mapped = dc.MappedMeasure(body, dc.rep_exp_affine(10.0))
        asked = self.spy(monkeypatch, dc.JumpMeasure)
        for _ in range(2):
            with pytest.raises(NonIntegrableError):
                dc.truncation_moment(mapped, dc.TruncationSpec.identity(1))
        assert asked == [["identity"], ["identity"]]
        assert mapped.__dict__.get("_moments", {}) == {}

    def test_a_dimension_mismatch_is_refused_every_time(self):
        gp = dc.GaussianPush(0.8, np.array([-0.05]), np.array([[0.04]]))
        for _ in range(2):
            with pytest.raises(ValueError, match="truncation dimension 2 does not match measure 1"):
                dc.truncation_moment(gp, dc.TruncationSpec.identity(2))


def test_a_triplet_keeps_its_own_copy_of_b_and_c(merton_1d):
    # the drift reads complex casts of b and c taken at construction, so
    # the caller's arrays are copied: reusing them later changes nothing
    b, c = np.array([0.05]), np.array([[0.04]])
    t = dc.LevyTriplet(1, b, c, merton_1d.jumps, merton_1d.truncation)
    xi = dc.rep_exp_affine(0.5)
    before = dc.drift(xi, t).total
    b[0], c[0, 0] = 1.0, 1.0
    assert t.b[0] == 0.05 and t.c[0, 0] == 0.04
    assert np.array_equal(dc.drift(xi, t).total, before)
    assert np.array_equal(before, dc.drift(xi, merton_1d).total)


class TestRetruncate:
    def test_no_jumps_leaves_drift(self):
        t = dc.LevyTriplet(1, np.array([0.2]), np.zeros((1, 1)), dc.empty_measure(1), dc.TruncationSpec.identity(1))
        for h in (dc.TruncationSpec.zero(1), dc.TruncationSpec.unit_clip(1)):
            assert dc.retruncate(t, h).b[0] == 0.2

    def test_large_atom_clipped(self):
        t = dc.LevyTriplet(
            1, np.zeros(1), np.zeros((1, 1)),
            dc.FiniteAtoms([[2.0]], [1.0]), dc.TruncationSpec.identity(1),
        )
        t2 = dc.retruncate(t, dc.TruncationSpec.unit_clip(1))
        assert t2.b[0] == pytest.approx(-2.0, abs=1e-15)

    def test_round_trip(self, merton_1d):
        h0 = merton_1d.truncation
        for h in (dc.TruncationSpec.zero(1), dc.TruncationSpec.identity(1)):
            back = dc.retruncate(dc.retruncate(merton_1d, h), h0)
            assert back.b[0] == pytest.approx(merton_1d.b[0], abs=1e-14)
            assert back.truncation == h0


class TestSumAndMapped:
    def test_sum_is_sum_of_parts(self):
        F1 = dc.FiniteAtoms([[0.3]], [1.0])
        F2 = dc.GaussianPush(0.5, np.zeros(1), np.array([[0.01]]))
        S = dc.SumMeasure((F1, F2))
        g = dc.rep_exp_affine(1.0)
        v1, _ = dc.integrate(F1, g.eval_batch)
        v2, _ = dc.integrate(F2, g.eval_batch)
        vs, _ = dc.integrate(S, g.eval_batch)
        np.testing.assert_allclose(vs, v1 + v2, rtol=1e-14)
        assert S.total_mass() == pytest.approx(1.5)

    def test_mapped_measure_composes_integrand(self):
        # log(1+y) pulled back through y = e^x - 1 is x itself.
        base = dc.GaussianPush(0.7, np.array([0.1]), np.array([[0.04]]))
        mapped = dc.MappedMeasure(base, dc.rep_exp_affine(1.0))
        via_map, _ = dc.integrate(mapped, lambda Y: np.log(1.0 + Y))
        direct, _ = dc.integrate(base, lambda X: X)
        np.testing.assert_allclose(via_map, direct, rtol=1e-12)
        assert mapped.total_mass() == pytest.approx(0.7)

    def test_mapped_draws_evaluate_the_map_on_real_points(self):
        # the map runs in float64 on the base draws and gives the complex
        # evaluation's values; a map that leaves the reals is still refused
        base = dc.GaussianPush(1.0, np.array([-0.05]), np.array([[0.04]]))
        draws = dc.MappedMeasure(base, dc.rep_exp_affine(0.7))._draw(_points)(np.random.default_rng(3), 1_000)
        x = base._draw(_points)(np.random.default_rng(3), 1_000)
        assert draws.dtype == np.float64
        np.testing.assert_allclose(draws, np.expm1(0.7 * x), rtol=0, atol=1e-15)
        with pytest.raises(dc.NanPointError, match="not real-valued"):
            dc.MappedMeasure(base, dc.rep_exp_affine(0.7j))._draw(_points)(np.random.default_rng(3), 10)

    def test_dimension_mismatch_rejected(self):
        with pytest.raises(ValueError, match="dimension"):
            dc.SumMeasure((dc.FiniteAtoms([[0.1]], [1.0]), dc.empty_measure(2)))

    def test_sum_measure_assembly(self):
        empty = dc.sum_measure([], 3)
        assert isinstance(empty, dc.FiniteAtoms)
        assert empty.points.shape == (0, 3) and empty.total_mass() == 0.0
        part = dc.GaussianPush(0.5, np.zeros(1), np.array([[0.01]]))
        assert dc.sum_measure([part], 1) is part
        atoms = dc.FiniteAtoms([[0.3]], [1.0])
        both = dc.sum_measure([part, atoms], 1)
        assert isinstance(both, dc.SumMeasure) and both.parts == (part, atoms)


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), kind=st.sampled_from(list(dc.TruncationKind)),
       shape=st.sampled_from(["atoms", "atoms+gaussian", "mapped"]))
def test_drift_correction_matches_the_combined_atom_sum(seed, kind, shape):
    # The correction is int xi dF minus Dxi(0) int h dF; on atoms that is the
    # combined sum up to rounding.  A sum measure adds its Gaussian part,
    # taken alone; a mapped measure's atoms are the images of its base's.
    rng = np.random.default_rng(seed)
    f = random_composed_tree(rng)
    k = int(rng.integers(1, 6))
    atoms = dc.FiniteAtoms(rng.uniform(-0.5, 0.5, (k, f.input_dim)), rng.uniform(0.1, 2.0, k))
    xi, measure, points = f, atoms, atoms.points
    if shape == "mapped":
        xi = random_composed_tree(rng)
        while xi.input_dim != 1:
            xi = random_composed_tree(rng)
        measure, points = dc.MappedMeasure(atoms, f), f.eval_batch(atoms.points).real
    assume(np.all(np.isfinite(xi.eval_batch(points))))
    trunc = dc.TruncationSpec((kind,) * xi.input_dim)
    J = xi.jet_at_zero().jacobian
    if shape == "atoms+gaussian":
        # narrow enough that no indicator step of the tree lies in its bulk
        d = xi.input_dim
        body = dc.GaussianPush(rng.uniform(0.2, 1.0), rng.uniform(-0.02, 0.02, d),
                               np.diag(rng.uniform(0.01, 0.03, d) ** 2))
        measure = dc.SumMeasure((atoms, body))
        body_part, _ = models.jump_drift_correction(body, xi.eval_batch, J, trunc)
        smooth, _ = dc.integrate(body, xi.eval_batch)
        body_scale = np.abs(smooth) + np.abs(J @ dc.truncation_moment(body, trunc))
    else:
        body_part, body_scale = np.zeros(1), np.zeros(1)
    expected, scale = combined_atom_sum(points, atoms.intensities, xi.eval_batch, J, trunc)
    got, _ = models.jump_drift_correction(measure, xi.eval_batch, J, trunc)
    assert np.all(np.abs(got - (expected + body_part)) <= 1e-15 * (1.0 + scale + body_scale))


class TestLevyTriplet:
    def test_asymmetric_covariance_rejected(self):
        with pytest.raises(ValueError, match="symmetric"):
            dc.LevyTriplet(2, np.zeros(2), np.array([[1.0, 0.2], [0.3, 1.0]]),
                           dc.empty_measure(2), dc.TruncationSpec.identity(2))

    @pytest.mark.parametrize("c", [math.inf, math.nan])
    def test_non_finite_covariance_rejected(self, c):
        with pytest.raises(ValueError, match="covariance must be finite"):
            dc.LevyTriplet(1, np.zeros(1), np.array([[c]]),
                           dc.empty_measure(1), dc.TruncationSpec.identity(1))

    def test_indefinite_covariance_rejected(self):
        with pytest.raises(ValueError, match="semidefinite"):
            dc.LevyTriplet(1, np.zeros(1), np.array([[-0.1]]),
                           dc.empty_measure(1), dc.TruncationSpec.identity(1))

    def test_jump_dimension_checked(self):
        with pytest.raises(ValueError, match="dimension"):
            dc.LevyTriplet(2, np.zeros(2), np.eye(2),
                           dc.FiniteAtoms([[0.1]], [1.0]), dc.TruncationSpec.identity(2))


def _symmetric(S):
    S = np.asarray(S, dtype=float)
    return (S + S.T) / 2.0


def _with_smallest_eigenvalue(lam, d):
    """A symmetric d x d matrix, exactly so, whose smallest eigenvalue is about lam."""
    if d == 1:
        return np.array([[lam]])
    Q = np.array([[0.6, -0.8], [0.8, 0.6]])
    return _symmetric(Q @ np.diag([0.04, lam]) @ Q.T)


def _covariance_owners(S):
    """A constructor per place a covariance is checked: a triplet's c and a
    Gaussian body's jump cov."""
    d = S.shape[0]
    return {
        "diffusion covariance": lambda: dc.LevyTriplet(d, np.zeros(d), S, dc.empty_measure(d),
                                                       dc.TruncationSpec.identity(d)),
        "jump covariance": lambda: dc.GaussianPush(0.5, np.zeros(d), S),
    }


class TestCovarianceVerdicts:
    """The PSD check and the covariance factor against numpy's eigenvalue
    rule and factorisations, for c and for a jump cov."""

    @pytest.mark.parametrize("d", [1, 2])
    @pytest.mark.parametrize("lam", [-1e-13, -1e-11, 0.0, 1e-13, 0.02])
    def test_the_verdict_is_that_of_eigvalsh(self, d, lam):
        S = _with_smallest_eigenvalue(lam, d)
        rejected = np.min(np.linalg.eigvalsh(S)) < -1e-12
        assert rejected == (lam == -1e-11)
        for what, build in _covariance_owners(S).items():
            if rejected:
                with pytest.raises(ValueError) as info:
                    build()
                assert str(info.value) == f"{what} must be positive semidefinite"
            else:
                build()

    @pytest.mark.parametrize("S", [
        [[0.0]], [[0.0, 0.0], [0.0, 0.0]], [[0.04, 0.02], [0.02, 0.01]], [[0.01, -0.01], [-0.01, 0.01]],
    ])
    def test_singular_covariances_take_the_eigh_factor(self, S):
        S = np.array(S)
        for build in _covariance_owners(S).values():
            build()
        w, V = np.linalg.eigh(S)
        want = V * np.sqrt(np.clip(w, 0.0, None))
        got = dc.GaussianPush(0.5, np.zeros(S.shape[0]), S)._factor
        assert (got.shape, got.tobytes()) == (want.shape, want.tobytes())
        assert models.psd_factor(S).tobytes() == want.tobytes()

    @pytest.mark.parametrize("s", [1e-300, 0.0225, 0.09, 2.0, 1e300])
    def test_a_one_by_one_factor_is_that_of_cholesky(self, s):
        S = np.array([[s]])
        want = np.linalg.cholesky(S)
        assert dc.GaussianPush(0.5, [0.0], S)._factor.tobytes() == want.tobytes()
        assert models.psd_factor(S).tobytes() == want.tobytes()

    @pytest.mark.parametrize("S, verdict", [
        ([[math.nan]], "must be finite"),
        ([[0.04, math.nan], [math.nan, 0.04]], "must be finite"),
        ([[0.04, -math.inf], [-math.inf, 0.04]], "must be finite"),
        ([[0.04, 0.01], [0.0, 0.04]], "must be symmetric"),
        ([[0.04, 0.01], [0.01 + 2e-7, 0.04]], "must be symmetric"),
    ])
    def test_finiteness_and_symmetry_verdicts(self, S, verdict):
        S = np.array(S)
        for what, build in _covariance_owners(S).items():
            with pytest.raises(ValueError) as info:
                build()
            assert str(info.value) == f"{what} {verdict}"

    def test_symmetry_holds_within_its_tolerance(self):
        # 1e-12 + 1e-5 |S_ji| apart is symmetric, as np.allclose has it
        S = np.array([[0.04, 0.01 + 1e-13], [0.01, 0.04]])
        assert np.allclose(S, S.T, rtol=1e-5, atol=1e-12)
        for build in _covariance_owners(S).values():
            build()


class TestDiscreteModel:
    def test_probabilities_must_sum_to_one(self):
        with pytest.raises(ValueError, match="sum"):
            dc.DiscreteModel([[0.1], [0.2]], [0.5, 0.6])

    def test_duplicate_support_rejected(self):
        with pytest.raises(ValueError, match="duplicate"):
            dc.DiscreteModel([[0.1], [0.1]], [0.5, 0.5])

    def test_valid_trinomial(self, trinomial):
        assert trinomial.size == 3
        assert trinomial.dim == 1

    def test_is_an_atom_measure_of_mass_one(self, trinomial):
        assert isinstance(trinomial, dc.FiniteAtoms)
        assert trinomial.probabilities is trinomial.intensities
        assert trinomial.total_mass() == 1.0

    @pytest.mark.parametrize("points, probabilities, match", [
        ([[math.inf], [0.0]], [0.5, 0.5], "atom positions and intensities must be finite"),
        ([[math.nan], [0.0]], [0.5, 0.5], "atom positions and intensities must be finite"),
        ([[0.1], [0.2], [0.3]], [0.6, 0.6, -0.2], "strictly positive"),
        ([[0.1], [0.1 + 1e-13]], [0.5, 0.5], "duplicate atoms"),
        ([[0.1], [0.2]], [1.0], "matching lengths"),
        (np.zeros((0, 1)), [], "support must be nonempty"),
    ])
    def test_atom_checks_apply(self, points, probabilities, match):
        with pytest.raises(ValueError, match=match):
            dc.DiscreteModel(points, probabilities)


@settings(max_examples=50, deadline=None)
@given(
    kinds=st.lists(st.sampled_from(["zero", "identity", "unit_clip"]), min_size=1, max_size=3),
    seed=st.integers(0, 10_000),
)
def test_truncation_apply_is_idempotent(kinds, seed):
    trunc = dc.TruncationSpec.from_names(kinds)
    X = np.random.default_rng(seed).uniform(-3.0, 3.0, (16, len(kinds)))
    once = trunc.apply(X)
    np.testing.assert_array_equal(trunc.apply(once), once)
    assert np.all(np.abs(once) <= np.abs(X) + 1e-15)


def test_array_backed_values_use_identity_semantics():
    # Generated field-by-field equality would trip over ndarray truth values;
    # these value types compare by identity and stay hashable.
    a = dc.FiniteAtoms([[0.1], [0.2]], [1.0, 1.0])
    b = dc.FiniteAtoms([[0.1], [0.2]], [1.0, 1.0])
    assert a == a and a != b
    assert isinstance(hash(a), int)
    t = dc.LevyTriplet(1, np.zeros(1), np.zeros((1, 1)), a, dc.TruncationSpec.identity(1))
    assert t == t
    assert isinstance(hash(t), int)


def test_quadrature_nonconvergence_is_diagnosed():
    # A discontinuous integrand inside the Gaussian body cannot reach the
    # default tolerance by node doubling; this must surface as a diagnostic.
    gp = dc.GaussianPush(1.0, np.zeros(1), np.array([[0.25]]))
    step = lambda X: np.where(X.real > 0.1, 1.0 + 0j, 0.0 + 0j)
    with pytest.raises(ConvergenceError, match="did not converge"):
        dc.integrate(gp, step)


def test_each_output_meets_its_own_tolerance():
    # A large smooth output must not carry a small discontinuous one past
    # the stop rule: the step output alone cannot converge.
    gp = dc.GaussianPush(1.0, np.zeros(1), np.array([[0.25]]))

    def both(X):
        return np.stack([1e9 * (1.0 + X[:, 0]), np.where(X[:, 0].real > 0.1, 1.0, 0.0)], axis=1)

    with pytest.raises(ConvergenceError, match="did not converge"):
        dc.integrate(gp, both)


def test_step_integrals_never_converge_to_a_wrong_value():
    # P(e^Z - 1 > level) over narrow and wide bodies and levels across the
    # support: the ladder either diagnoses the step or returns the exact value.
    for s in (0.05, 0.1, 0.2, 0.3):
        for m in (-0.1, 0.0, 0.05):
            gp = dc.GaussianPush(1.0, np.array([m]), np.array([[s * s]]))
            for level in np.linspace(-0.4, 0.6, 41):
                exact = 0.5 * math.erfc((math.log1p(level) - m) / (s * math.sqrt(2.0)))
                step = lambda X: np.where(X.real > level, 1.0 + 0j, 0.0 + 0j)
                try:
                    val, _ = dc.integrate(gp, step)
                except ConvergenceError:
                    continue
                assert abs(val[0] - exact) <= 1e-8, (s, m, level)


class TestOutputsSettleAlone:
    """Each output of a jump integral stops and fails as an integral of it alone."""

    gp = dc.GaussianPush(0.8, np.array([-0.05]), np.array([[0.04]]))

    @staticmethod
    def alone(measure, g, k, quad=None):
        """(value, None) or (None, error) of output k of ``g`` integrated alone."""
        try:
            return dc.integrate(measure, lambda X: np.asarray(g(X))[:, k], quad)[0][0], None
        except EngineError as exc:
            return None, exc

    def test_outputs_that_settle_on_different_levels_keep_their_own_values(self):
        # |x + 0.05| settles at 31 nodes and |x + 0.1| at 127 alone; the first
        # passes 31 nodes and fails a later level, so one stop level for
        # both would have ended in non-convergence.
        gp = dc.GaussianPush(1.0, np.zeros(1), np.array([[0.09]]))
        quad = dc.QuadratureConfig(rel_tol=1e-3)
        kinks = lambda X: np.abs(X - np.array([-0.05, -0.1]))
        val, _ = dc.integrate(gp, kinks, quad)
        for k in range(2):
            ref, _ = self.alone(gp, kinks, k, quad)
            assert abs(val[k] - ref) <= 1e-15 * (1.0 + abs(ref))

    def test_a_failing_output_raises_its_own_error(self, merton_1d):
        # output 1 alone is not integrable against the jump body
        xi = dc.rep_exp_affine(np.array([0.5, 10.0]))
        with pytest.raises(NonIntegrableError) as info:
            dc.drift(xi, merton_1d)
        with pytest.raises(NonIntegrableError) as alone:
            dc.drift(dc.rep_exp_affine(10.0), merton_1d)
        assert info.value.faults == {1: info.value}
        assert str(info.value) == str(alone.value)
        # output 0 has no verdict, and the grid's rerun over it alone gives
        # its own call's value
        rows, failures = cli._grid_rows(np.array([0.5, 10.0]) + 0j, lambda v: dc.cumulant(v, merton_1d))
        ref = dc.cumulant(0.5, merton_1d)
        assert failures == 1 and rows[0][2] == "ok"
        assert abs(rows[0][1] - ref) <= 1e-15 * (1.0 + abs(ref))
        assert rows[1][2] == "error: " + str(alone.value).replace(",", ";")

    def test_the_lowest_failing_output_is_raised_and_each_keeps_its_verdict(self):
        # x is integrable, log(1 + 2x) is undefined where x < -0.5, and
        # e^{10x} - 1 outgrows the jump law's tail
        g = lambda X: np.hstack([X, np.log(1.0 + 2.0 * X), np.expm1(10.0 * X)])
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            with pytest.raises(NanPointError) as info:
                dc.integrate(self.gp, g)
            verdicts = [self.alone(self.gp, g, k) for k in range(3)]
        assert verdicts[0][1] is None
        faults = info.value.faults
        assert sorted(faults) == [1, 2] and faults[1] is info.value
        for k in (1, 2):
            assert type(faults[k]) is type(verdicts[k][1])
            assert str(faults[k]) == str(verdicts[k][1])

    def test_an_atom_sum_overflows_output_by_output(self):
        atoms = dc.FiniteAtoms([[0.5], [-1.0]], [1.0, 2.0])
        g = lambda X: np.hstack([X, 1e300 * np.exp(800.0 * X)])
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            with pytest.raises(EngineError, match=r"^integrand overflows at atom \[0.5\]") as info:
                dc.integrate(atoms, g)
            _, alone = self.alone(atoms, g, 1)
        assert info.value.faults == {1: info.value}
        assert str(info.value) == str(alone)

    def test_a_sum_measure_takes_the_first_failing_part_and_stops_when_all_fail(self):
        atoms = dc.FiniteAtoms([[-0.75]], [0.3])
        sizes = []

        def g(X):
            sizes.append(len(X))
            return np.hstack([X, np.log(1.0 + 2.0 * X)])

        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            # output 1 fails in both parts: the atom part, first, names it
            with pytest.raises(NanPointError, match=r"undefined at atom \[-0.75\]") as info:
                dc.integrate(dc.SumMeasure((atoms, self.gp)), g)
            assert sorted(info.value.faults) == [1] and sizes == [1, 24]
            # one output, failed by the atom part: the body is not walked
            sizes.clear()
            with pytest.raises(NanPointError, match=r"undefined at atom \[-0.75\]"):
                dc.integrate(dc.SumMeasure((atoms, self.gp)), lambda X: g(X)[:, 1])
        assert sizes == [1]

    @pytest.mark.parametrize("kind", ["atoms", "body", "sum"])
    def test_an_integrand_without_outputs_integrates_to_nothing(self, kind):
        atoms = dc.FiniteAtoms([[0.1]], [1.0])
        measure = {"atoms": atoms, "body": self.gp, "sum": dc.SumMeasure((atoms, self.gp))}[kind]
        val, err = dc.integrate(measure, lambda X: np.zeros((len(X), 0)))
        assert val.shape == (0,) and err == 0.0

    def test_a_drift_that_overflows_fails_output_by_output(self):
        # the second derivative of (x + 0.5i)^1e200 at the origin overflows
        t = dc.LevyTriplet(1, np.array([0.03]), np.zeros((1, 1)), dc.FiniteAtoms([[0.08]], [1.2]),
                           dc.TruncationSpec.identity(1))
        with pytest.raises(EngineError, match=r"^quadratic part of the drift is not finite") as info:
            dc.drift(dc.from_prefix("(repfn 1 (x 0) (pow 1e200 (add (x 0) (const 0.5i))))"), t)
        with pytest.raises(EngineError) as alone:
            dc.drift(dc.from_prefix("(repfn 1 (pow 1e200 (add (x 0) (const 0.5i))))"), t)
        assert info.value.faults == {1: info.value}
        assert str(info.value) == str(alone.value)
