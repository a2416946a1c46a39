import itertools
import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import integrate as si

import driftcalc as dc
from driftcalc.errors import EngineError, NanPointError, NonIntegrableError

from conftest import random_composed_tree


class TestDriftExamples:
    def test_gbm_ratio_closed_form(self, gbm_ratio_triplet):
        report = dc.drift(dc.rep_ratio(), gbm_ratio_triplet)
        # mu_K - mu_L - rho*sig_K*sig_L + sig_L^2
        assert abs(report.total[0] - 0.034) <= 1e-15
        assert report.total[0].imag == 0.0
        assert report.linear_part[0] == pytest.approx(0.03, abs=1e-15)
        assert report.quadratic_part[0] == pytest.approx(0.004, abs=1e-15)
        assert report.jump_part[0] == 0.0

    def test_identity_echoes_truncated_drift(self, atoms_1d):
        report = dc.drift(dc.rep_identity(1), atoms_1d)
        assert report.total[0] == atoms_1d.b[0]
        assert report.jump_part[0] == 0.0

    def test_single_atom_sum(self):
        t = dc.LevyTriplet(
            1, np.zeros(1), np.zeros((1, 1)),
            dc.FiniteAtoms([[0.1]], [1.0]), dc.TruncationSpec.identity(1),
        )
        report = dc.drift(dc.rep_exp_affine(1.0), t)
        assert report.total[0] == pytest.approx(0.005170918075647707, abs=1e-17)

    def test_bivariate_jump_drift_vs_direct_summation(self):
        rng = np.random.default_rng(12)
        pts = rng.uniform(-0.6, 1.5, (7, 2))
        lam = rng.uniform(0.1, 0.9, 7)
        t = dc.LevyTriplet(
            2, np.array([0.05, 0.02]),
            np.array([[0.04, 0.006], [0.006, 0.01]]),
            dc.FiniteAtoms(pts, lam), dc.TruncationSpec.unit_clip(2),
        )
        report = dc.drift(dc.rep_ratio(), t)
        expected = 0.05 - 0.02 - 0.006 + 0.01
        for k in range(7):
            x1, x2 = pts[k]
            h1 = x1 if abs(x1) <= 1 else 0.0
            h2 = x2 if abs(x2) <= 1 else 0.0
            expected += lam[k] * ((1 + x1) / (1 + x2) - 1 - (h1 - h2))
        assert report.total[0] == pytest.approx(expected, rel=1e-13)

    def test_report_total_is_exact_sum_of_parts(self, merton_1d):
        report = dc.drift(dc.rep_exp_affine(0.9), merton_1d)
        assert np.array_equal(
            report.total, report.linear_part + report.quadratic_part + report.jump_part
        )

    def test_nan_at_atom_is_reported(self):
        t = dc.LevyTriplet(
            1, np.zeros(1), np.zeros((1, 1)),
            dc.FiniteAtoms([[-1.0]], [0.5]), dc.TruncationSpec.identity(1),
        )
        with pytest.raises(NanPointError):
            dc.drift(dc.rep_log_return(), t)


class TestJetReuse:
    def test_drift_on_a_built_tree_runs_no_jet_pass(self, merton_1d, monkeypatch):
        xi, eta = dc.rep_exp_affine(0.5), dc.rep_exp_affine(-0.3)
        rules = []
        run = dc.RepFn._run

        def counted(self, rule, x):
            rules.append(rule)
            return run(self, rule, x)

        monkeypatch.setattr(dc.RepFn, "_run", counted)
        dc.drift(xi, merton_1d)
        assert rules.count("jet") == 0
        dc.drift_q(xi, eta, merton_1d)
        # one pass: the construction of the adjusted tree (1 + eta) xi
        assert rules.count("jet") == 1


class TestComplexQuadrature:
    """Quadrature hands real points, so each tree is integrated in its own
    arithmetic: a real tree in float64, a tree with a complex literal in
    complex128.  Both mirror the evaluation that casts every input to
    complex: a complex tree bit for bit, a real tree within an ulp."""

    PARTS = ("total", "linear_part", "quadratic_part", "jump_part")

    @staticmethod
    def _reports(xi, eta, model):
        return dc.drift(xi, model), dc.drift_q(xi, eta, model)

    @staticmethod
    def _cast_points(monkeypatch, dtype):
        ev = dc.RepFn.eval_batch
        monkeypatch.setattr(dc.RepFn, "eval_batch", lambda self, X: ev(self, np.asarray(X).astype(dtype)))

    @pytest.mark.parametrize(
        "xi, eta, model",
        [
            (dc.rep_exp_affine(0.8), dc.rep_exp_utility(1.3), "merton_1d"),
            (dc.rep_power(0.5), dc.rep_exp_utility(0.4), "merton_1d"),
            (dc.rep_log_return(), dc.rep_exp_affine(-0.3), "merton_1d"),
            (dc.rep_memm_integrand(0.7, 0.4), dc.rep_exp_utility(0.7), "atoms_1d"),
            (dc.rep_exp_affine(np.linspace(-1.0, 2.0, 7)), dc.rep_exp_utility(0.9), "atoms_1d"),
            (dc.rep_ratio(), dc.rep_zero(2), "gbm_ratio_triplet"),
            (dc.rep_margrabe(0.75), dc.rep_zero(2), "margrabe_jump_model"),
        ],
    )
    def test_catalog_drifts_match_the_complex_path(self, xi, eta, model, request, monkeypatch):
        # Quadrature sums float64 values where the complex path summed
        # complex ones: an ulp apart on the Gaussian bodies.  The atom and
        # diffusion drifts still round as the complex path does.
        ulps = 1 if model in ("merton_1d", "margrabe_jump_model") else 0
        model = request.getfixturevalue(model)
        t = model.triplet() if isinstance(model, dc.MargrabeModel) else model
        assert xi._real and eta._real
        got = self._reports(xi, eta, t)
        with monkeypatch.context() as m:
            self._cast_points(m, np.float64)
            real = self._reports(xi, eta, t)
        self._cast_points(monkeypatch, np.complex128)
        want = self._reports(xi, eta, t)
        for a, r, b in zip(got, real, want):
            assert np.all(a.jump_part.imag == 0.0)
            for part in self.PARTS:
                x, y = getattr(a, part), getattr(b, part)
                assert np.array_equal(x, getattr(r, part))
                assert np.all(np.abs(x - y) <= ulps * np.finfo(float).eps * (1.0 + np.abs(y)))

    @pytest.mark.parametrize(
        "xi, eta, model",
        [
            (dc.rep_exp_affine(0.8 + 0.5j), dc.rep_exp_utility(1.3), "merton_1d"),
            (dc.rep_exp_affine(0.8 + 0.5j), dc.rep_exp_utility(0.7), "atoms_1d"),
            (dc.rep_margrabe(0.75 + 0.5j), dc.rep_zero(2), "margrabe_jump_model"),
        ],
    )
    def test_complex_literal_drifts_are_the_complex_path(self, xi, eta, model, request, monkeypatch):
        model = request.getfixturevalue(model)
        t = model.triplet() if isinstance(model, dc.MargrabeModel) else model
        assert not xi._real
        got = self._reports(xi, eta, t)
        self._cast_points(monkeypatch, np.complex128)
        want = self._reports(xi, eta, t)
        for a, b in zip(got, want):
            for part in self.PARTS:
                assert np.array_equal(getattr(a, part), getattr(b, part))


class TestOverflowOnRealTrees:
    """e^{800 x} x overflows to inf in float64 at moderate jumps: the
    engine reports that as overflow, not as an undefined point."""

    XI = dc.RepFn(1, (dc.Mul(dc.Exp(dc.Const(800.0) * dc.Coord(0)), dc.Coord(0)),))

    @staticmethod
    def _triplet(jumps):
        return dc.LevyTriplet(1, np.zeros(1), np.zeros((1, 1)), jumps, dc.TruncationSpec.identity(1))

    def test_gaussian_body_is_not_integrable(self):
        t = self._triplet(dc.GaussianPush(0.8, np.array([-0.05]), np.array([[0.04]])))
        with pytest.raises(NonIntegrableError, match="grows faster than the jump law decays"):
            dc.drift(self.XI, t)

    def test_atom_sum_overflows(self):
        t = self._triplet(dc.FiniteAtoms([[1.0]], [0.5]))
        with pytest.raises(EngineError, match=r"^integrand overflows at atom \[1\.0\]: ") as info:
            dc.drift(self.XI, t)
        assert not isinstance(info.value, NanPointError)


class TestMeasureChangedDrift:
    def test_zero_change_reduces_bit_for_bit(self, merton_1d):
        xi = dc.rep_exp_affine(0.9)
        plain = dc.drift(xi, merton_1d)
        changed = dc.drift_q(xi, dc.rep_zero(1), merton_1d)
        for part in ("total", "linear_part", "quadratic_part", "jump_part"):
            assert np.array_equal(getattr(plain, part), getattr(changed, part))

    def test_zero_payoff_representation(self, merton_1d):
        report = dc.drift_q(dc.rep_zero(1), dc.rep_exp_utility(0.8), merton_1d)
        assert report.total[0] == 0.0

    def test_against_independent_quadrature(self, merton_1d):
        """Measure-changed exponent vs an external adaptive quadrature.

        The jump integral is computed in the Gaussian coordinate with the
        clip boundary split out, using a different quadrature family.
        """
        v, lam_star = 0.8 + 1.5j, 0.7
        got = dc.memm_cumulant(v, lam_star, merton_1d)

        alpha, sig2 = merton_1d.b[0], merton_1d.c[0, 0]
        jump_lam, m, s = 0.8, -0.05, 0.2
        expected = alpha * v + 0.5 * sig2 * (v * v - 2 * lam_star * v)

        def integrand(z):
            x = math.expm1(z)
            val = (np.exp(v * x) - 1.0) * math.exp(-lam_star * math.expm1(x))
            if abs(x) <= 1.0:
                val = val - v * x
            dens = math.exp(-((z - m) ** 2) / (2 * s * s)) / math.sqrt(2 * math.pi * s * s)
            return val * dens

        zlo, zhi, zcut = m - 14 * s, m + 14 * s, math.log(2.0)
        re = sum(si.quad(lambda z: integrand(z).real, a, b, limit=600)[0]
                 for a, b in ((zlo, zcut), (zcut, zhi)))
        im = sum(si.quad(lambda z: integrand(z).imag, a, b, limit=600)[0]
                 for a, b in ((zlo, zcut), (zcut, zhi)))
        expected += jump_lam * complex(re, im)
        assert got == pytest.approx(expected, rel=1e-10)

    def test_cross_term_diagnostic(self, merton_1d):
        xi, eta = dc.rep_exp_affine(1.0), dc.rep_exp_utility(0.5)
        report = dc.drift_q(xi, eta, merton_1d)
        adjusted = dc.drift(dc.girsanov_adjust(xi, eta), merton_1d)
        for part in ("total", "linear_part", "quadratic_part", "jump_part"):
            assert np.array_equal(getattr(report, part), getattr(adjusted, part))
        # the diffusion cross term D xi(0) D eta(0) c, with D xi(0) = 1,
        # D eta(0) = -0.5 and c = 0.04
        cross = report.quadratic_part[0] - dc.drift(xi, merton_1d).quadratic_part[0]
        assert cross == pytest.approx(-0.02, abs=1e-15)


class TestExpectations:
    def test_zero_horizon(self, atoms_1d):
        assert np.array_equal(
            dc.expectation_pii(dc.rep_exp_affine(1.0), atoms_1d, 0.0),
            np.zeros(1, dtype=complex),
        )
        assert dc.expectation_stoch_exp(dc.rep_exp_affine(1.0), atoms_1d, 0.0) == 1.0

    @pytest.mark.parametrize("T", [-1.0, math.inf, math.nan])
    def test_horizon_must_be_finite_and_nonnegative(self, atoms_1d, T):
        xi = dc.rep_exp_affine(1.0)
        for call in (lambda: dc.expectation_pii(xi, atoms_1d, T),
                     lambda: dc.expectation_stoch_exp(xi, atoms_1d, T)):
            with pytest.raises(ValueError, match="time horizon must be nonnegative and finite, got"):
                call()

    def test_an_expectation_that_overflows_is_an_engine_error(self):
        # e^{30x} - 1 on an atom at 0.2 has drift e^6 - 1 = 402.4, so exp(402.4 * 5)
        # and 402.4 * 1e307 overflow; the parent returned inf with a RuntimeWarning
        t = dc.LevyTriplet(1, np.zeros(1), np.zeros((1, 1)), dc.FiniteAtoms([[0.2]], [1.0]),
                           dc.TruncationSpec.zero(1))
        xi = dc.rep_exp_affine(30.0)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(EngineError, match=r"^the result overflows: T = 5 at a drift of "
                                                  r"\(402\.4287934927351\+0j\)$"):
                dc.expectation_stoch_exp(xi, t, 5.0)
            with pytest.raises(EngineError, match=r"^the result overflows: T = 1e\+307 at a drift of \[402\.4"):
                dc.expectation_pii(xi, t, 1e307)
            # just inside the float range on both clocks' rules
            assert math.isfinite(dc.expectation_stoch_exp(xi, t, 1.7).real)
            assert np.isfinite(dc.expectation_pii(xi, t, 1e305)).all()

    def test_linear_case(self):
        t = dc.LevyTriplet(
            1, np.array([0.3]), np.zeros((1, 1)), dc.empty_measure(1),
            dc.TruncationSpec.identity(1),
        )
        assert dc.expectation_pii(dc.rep_identity(1), t, 2.0)[0] == pytest.approx(0.6, abs=1e-15)

    def test_atoms_expectation_matches_simulation(self, atoms_1d):
        xi = dc.rep_exp_utility(1.2)
        target = dc.expectation_pii(xi, atoms_1d, 1.0)[0]
        est = dc.mc_sum(xi, atoms_1d, 1.0, dc.SimConfig(n_paths=200_000, seed=33))
        assert est.z_score(target) < 3.0

    def test_ratio_growth_factor(self, gbm_ratio_triplet):
        # E[K_T / L_T] = (K_0/L_0) e^{bT} with b = 0.034
        growth = dc.expectation_stoch_exp(dc.rep_ratio(), gbm_ratio_triplet, 1.0)
        assert 2.0 * growth == pytest.approx(2.0 * math.exp(0.034), rel=1e-14)

    def test_exponential_moment_matches_simulation(self, merton_1d):
        v = 0.75
        target = dc.expectation_stoch_exp(dc.rep_exp_affine(v), merton_1d, 1.0)
        est = dc.mc_stoch_exp(dc.rep_exp_affine(v), merton_1d, 1.0,
                              dc.SimConfig(n_paths=150_000, seed=41))
        assert est.z_score(target) < 3.0


class TestDiscrete:
    def test_sub_period_horizon_is_zero(self, trinomial):
        out = dc.discrete_compensator(dc.rep_identity(1), trinomial, 0.7)
        assert np.array_equal(out, np.zeros(1, dtype=complex))

    def test_identity_compensator_hand_sum(self, trinomial):
        out = dc.discrete_compensator(dc.rep_identity(1), trinomial, 1.0)
        assert out[0] == pytest.approx(-0.0030151007560504026, abs=1e-16)

    def test_compensator_matches_enumeration(self, trinomial):
        xi = dc.rep_exp_utility(0.9)
        got = dc.discrete_compensator(xi, trinomial, 3.0)[0]
        vals = xi.eval_batch(trinomial.points.astype(complex))[:, 0]
        probs = trinomial.probabilities
        expected = 0.0
        for path in itertools.product(range(3), repeat=3):
            p = math.prod(probs[i] for i in path)
            expected += p * sum(vals[i] for i in path)
        assert got == pytest.approx(expected, abs=1e-12)

    def test_stoch_exp_factor(self, trinomial):
        lam = 1.0
        got = dc.discrete_stoch_exp(dc.rep_exp_utility(lam), trinomial, 2.0)
        factor = 0.3 * math.exp(-0.1) + 0.4 + 0.3 * math.exp(0.1)
        assert got == pytest.approx(factor**2, abs=1e-15)

    def test_stoch_exp_degenerate_parameter(self, trinomial):
        assert dc.discrete_stoch_exp(dc.rep_exp_utility(0.0), trinomial, 5.0) == 1.0

    def test_stoch_exp_matches_enumeration(self, trinomial):
        xi = dc.rep_exp_affine(1.4)
        got = dc.discrete_stoch_exp(xi, trinomial, 2.0)
        vals = xi.eval_batch(trinomial.points.astype(complex))[:, 0]
        probs = trinomial.probabilities
        expected = 0.0
        for path in itertools.product(range(3), repeat=2):
            p = math.prod(probs[i] for i in path)
            expected += p * math.prod(1 + vals[i] for i in path)
        assert got == pytest.approx(expected, abs=1e-12)

    def test_q_stoch_exp_zero_change(self, trinomial):
        xi = dc.rep_exp_affine(0.9)
        a = dc.discrete_q_stoch_exp(xi, dc.rep_zero(1), trinomial, 3.0)
        b = dc.discrete_stoch_exp(xi, trinomial, 3.0)
        assert a == pytest.approx(b, rel=1e-15)

    def test_q_stoch_exp_total_mass(self, trinomial):
        # v = 0 asks for the measure's total mass, which is 1 by construction
        out = dc.discrete_q_stoch_exp(
            dc.rep_exp_affine(0.0), dc.rep_exp_utility(0.7), trinomial, 4.0
        )
        assert out == pytest.approx(1.0, abs=1e-15)

    def test_q_stoch_exp_matches_reweighted_enumeration(self, trinomial):
        v, lam = 1.3, math.log(1.0) + 1.1
        xi, eta = dc.rep_exp_affine(v), dc.rep_exp_utility(lam)
        got = dc.discrete_q_stoch_exp(xi, eta, trinomial, 4.0)
        xv = xi.eval_batch(trinomial.points.astype(complex))[:, 0]
        ev = eta.eval_batch(trinomial.points.astype(complex))[:, 0]
        probs = trinomial.probabilities
        norm = sum(p * (1 + e) for p, e in zip(probs, ev)) ** 4
        expected = 0.0
        for path in itertools.product(range(3), repeat=4):
            p = math.prod(probs[i] for i in path)
            w = math.prod((1 + ev[i]).real for i in path) / norm.real
            expected += p * w * math.prod(1 + xv[i] for i in path)
        assert got == pytest.approx(expected, abs=1e-12)

    @pytest.mark.parametrize("T", [-2.0, -1e-300, math.inf, math.nan])
    def test_horizon_must_be_finite_and_nonnegative(self, trinomial, T):
        xi, eta = dc.rep_exp_affine(0.5), dc.rep_exp_utility(1.0)
        for call in (lambda: dc.discrete_compensator(xi, trinomial, T),
                     lambda: dc.discrete_stoch_exp(xi, trinomial, T),
                     lambda: dc.discrete_q_stoch_exp(xi, eta, trinomial, T)):
            with pytest.raises(ValueError, match="time horizon must be nonnegative and finite"):
                call()

    def test_overflow_is_an_engine_error(self, trinomial):
        # the factor is 1.006; (1.006)^150000 is past the float range
        with pytest.raises(EngineError, match=r"overflows: floor\(T\) = 150000 periods"):
            dc.discrete_stoch_exp(dc.rep_exp_affine(2.0), trinomial, 150000.5)
        with pytest.raises(EngineError, match=r"overflows: floor\(T\) = 1e\+300 periods"):
            dc.discrete_compensator(dc.rep_exp_affine(300.0), trinomial, 1e300)
        eta = dc.rep_exp_utility(-1.0)
        with pytest.raises(EngineError, match="overflows"):
            dc.discrete_q_stoch_exp(dc.rep_exp_affine(2.0), eta, trinomial, 1e300)
        # a factor below one underflows to zero, which is no overflow
        xi = dc.RepFn(1, (dc.Neg(dc.Mul(dc.Coord(0), dc.Coord(0))),))
        assert dc.discrete_stoch_exp(xi, trinomial, 1e300) == 0.0

    def test_a_representation_of_another_dimension_is_a_usage_error(self):
        # the parent failed inside the tree walk: "expected a batch of shape (N, 1), got (2, 2)"
        law = dc.DiscreteModel([[0.1, 0.0], [-0.1, 0.05]], [0.5, 0.5])
        one_d, two_d = dc.rep_exp_affine(0.5), dc.rep_coord(2, 0)
        for call in (lambda: dc.discrete_compensator(one_d, law, 2.0),
                     lambda: dc.discrete_stoch_exp(one_d, law, 2.0),
                     lambda: dc.discrete_q_stoch_exp(one_d, two_d, law, 2.0),
                     lambda: dc.discrete_q_stoch_exp(two_d, one_d, law, 2.0)):
            with pytest.raises(ValueError, match=r"^representation expects dimension 1, triplet has 2$"):
                call()

    def test_undefined_support_point_is_named(self, trinomial):
        # log(1 - 20 x) is undefined at the up move x = log 1.1
        xi = dc.RepFn(1, (dc.Log(dc.Const(1.0) - dc.Const(20.0) * dc.Coord(0)),))
        with pytest.raises(NanPointError, match=r"undefined at atom \[0.0953"):
            dc.discrete_stoch_exp(xi, trinomial, 1.0)

    def test_degenerate_normaliser_is_diagnosed(self):
        m = dc.DiscreteModel([[0.5], [-0.5]], [0.9, 0.1])
        # eta dips far below -1 on the likely branch, so E[1 + eta] < 0
        eta = dc.RepFn(1, (dc.Const(-5.0) * dc.Coord(0),))
        with pytest.raises(EngineError, match="degenerate"):
            dc.discrete_q_stoch_exp(dc.rep_identity(1), eta, m, 1.0)


class TestDriftProperties:
    def test_linearity(self, merton_1d):
        xi, psi = dc.rep_exp_affine(0.8), dc.rep_exp_utility(1.1)
        a, b = 1.3 - 0.4j, -0.7 + 0.2j
        combo = dc.RepFn(
            1,
            (dc.Add(dc.Mul(dc.Const(a), xi.outputs[0]), dc.Mul(dc.Const(b), psi.outputs[0])),),
        )
        lhs = dc.drift(combo, merton_1d).total[0]
        rhs = a * dc.drift(xi, merton_1d).total[0] + b * dc.drift(psi, merton_1d).total[0]
        assert lhs == pytest.approx(rhs, rel=1e-12)

    @pytest.mark.parametrize("which", ["zero", "identity", "unit_clip"])
    def test_truncation_invariance(self, merton_1d, which):
        h = dc.TruncationSpec.from_names([which])
        xi = dc.rep_exp_affine(0.9)
        base = dc.drift(xi, merton_1d).total[0]
        moved = dc.drift(xi, dc.retruncate(merton_1d, h)).total[0]
        assert abs(moved - base) <= 1e-9 * abs(base)

    def test_conjugate_symmetry(self, merton_1d):
        for build in (dc.rep_exp_affine, dc.rep_power, dc.rep_memm_integrand):
            v = 0.7 + 1.3j
            if build is dc.rep_memm_integrand:
                f, fbar = build(v, 0.5), build(np.conj(v), 0.5)
            else:
                f, fbar = build(v), build(np.conj(v))
            a = dc.drift(fbar, merton_1d).total[0]
            b = np.conj(dc.drift(f, merton_1d).total[0])
            assert a == pytest.approx(b, rel=1e-12)

    def test_margrabe_conjugate_symmetry(self, margrabe_jump_model):
        t = margrabe_jump_model.triplet()
        v = -0.5 + 7.0j
        a = dc.drift(dc.rep_margrabe(np.conj(v)), t).total[0]
        b = np.conj(dc.drift(dc.rep_margrabe(v), t).total[0])
        assert a == pytest.approx(b, rel=1e-12)

    @pytest.mark.parametrize(
        "names",
        [["zero", "zero"], ["unit_clip", "unit_clip"], ["identity", "zero"], ["unit_clip", "identity"]],
    )
    def test_bivariate_truncation_invariance(self, margrabe_jump_model, names):
        # Mixed per-component truncations on the jump-with-defaults model;
        # the indicator-bearing exchange tree must not notice.
        t = margrabe_jump_model.triplet()
        xi = dc.rep_margrabe(0.5 + 2.0j)
        base = dc.drift(xi, t).total[0]
        moved = dc.drift(xi, dc.retruncate(t, dc.TruncationSpec.from_names(names))).total[0]
        assert abs(moved - base) <= 1e-9 * abs(base)


def _discrete_tree(rng, d):
    """A scalar tree on R^d: a catalog representation or a composed tree."""
    if rng.random() < 0.5:
        while True:
            tree = random_composed_tree(rng)
            if tree.input_dim == d:
                return tree
    v = complex(rng.uniform(-1.5, 1.5), rng.uniform(-1.0, 1.0))
    if d == 1:
        choices = (dc.rep_exp_affine(v), dc.rep_power(v), dc.rep_log_return(),
                   dc.rep_exp_utility(rng.uniform(-2.0, 3.0)))
    else:
        choices = (dc.rep_ratio(), dc.rep_margrabe(v), dc.rep_coord(2, int(rng.integers(0, 2))))
    return choices[int(rng.integers(0, len(choices)))]


def _reference_minimiser(y, p, lo, hi):
    """argmin of sum p e^{-lam y} on [lo, hi] by bisection on its slope, or
    None when the slope does not change sign inside."""
    def slope(lam):
        return -np.sum(p * y * np.exp(-lam * y))

    if not slope(lo) < 0.0 < slope(hi):
        return None
    while True:
        mid = 0.5 * (lo + hi)
        if mid in (lo, hi):
            return mid
        lo, hi = (mid, hi) if slope(mid) < 0.0 else (lo, mid)


@settings(max_examples=150, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    d=st.sampled_from([1, 2]),
    k=st.integers(1, 12),
    T=st.floats(0.0, 12.0),
)
def test_discrete_products_match_a_numpy_reference(seed, d, k, T):
    # The discrete functions take one atom integral of the law; the
    # reference sums the support with numpy, pairwise past 8 atoms.
    rng = np.random.default_rng(seed)
    points = rng.uniform(-0.5, 0.5, (k, d))
    p = rng.dirichlet(np.full(k, 2.0))
    p = p / p.sum()
    m = dc.DiscreteModel(points, p)
    xi, lam = _discrete_tree(rng, d), rng.uniform(-2.0, 3.0)
    # the density 1 + eta is e^{-lam y}: y = e^x - 1 in d = 1, y = x_1 in d = 2
    if d == 1:
        eta, y = dc.rep_exp_utility(lam), np.expm1(points[:, 0])
    else:
        eta, y = dc.RepFn(2, (dc.Exp(dc.Const(-lam) * dc.Coord(1)) - dc.Const(1.0),)), points[:, 1]
    fx = xi.eval_batch(points.astype(complex))[:, 0]
    w = np.exp(-lam * y)
    steps = math.floor(T)

    def close(got, ref):
        return np.all(np.abs(np.asarray(got) - ref) <= 1e-13 * (1.0 + np.abs(ref)))

    assert close(dc.discrete_compensator(xi, m, T), steps * np.sum(p * fx))
    assert close(dc.discrete_stoch_exp(xi, m, T), complex(np.sum(p * (1.0 + fx))) ** steps)
    ref = (complex(np.sum(p * w * (1.0 + fx))) / np.sum(p * w)) ** steps
    assert close(dc.discrete_q_stoch_exp(xi, eta, m, T), ref)
    if d == 1:
        lam_ref = _reference_minimiser(y, p, -20.0, 20.0)
        if lam_ref is None:
            with pytest.raises(EngineError, match="widen the bracket"):
                dc.optimize_discrete_exp_utility(m, (-20.0, 20.0))
        elif min(lam_ref + 20.0, 20.0 - lam_ref) > 1e-6:
            lam, value = dc.optimize_discrete_exp_utility(m, (-20.0, 20.0))
            assert close(lam, lam_ref)
            assert close(value, np.sum(p * np.exp(-lam_ref * y)))
