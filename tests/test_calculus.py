import numpy as np
import pytest

import driftcalc as dc


class TestCatalogExamples:
    def test_ratio(self):
        f = dc.rep_ratio()
        assert f.eval([0.5, 0.2])[0] == pytest.approx(0.25, abs=1e-15)
        assert f.eval([0.0, 0.0])[0] == 0.0
        jet = f.jet_at_zero()
        np.testing.assert_allclose(jet.jacobian[0], [1.0, -1.0], atol=1e-15)
        np.testing.assert_allclose(jet.hessian[0], [[0.0, -1.0], [-1.0, 2.0]], atol=1e-15)

    def test_log_return(self):
        f = dc.rep_log_return()
        assert f.eval([0.0])[0] == 0.0
        assert f.eval([np.e - 1.0])[0] == pytest.approx(1.0, abs=1e-15)
        jet = f.jet_at_zero()
        assert jet.jacobian[0, 0] == pytest.approx(1.0, abs=1e-15)
        assert jet.hessian[0, 0, 0] == pytest.approx(-1.0, abs=1e-15)

    def test_exp_affine(self):
        zero = dc.rep_exp_affine(0.0)
        X = np.linspace(-1.0, 1.0, 7)[:, None].astype(complex)
        assert np.all(zero.eval_batch(X) == 0.0)
        jet = dc.rep_exp_affine(2.0).jet_at_zero()
        assert (jet.jacobian[0, 0], jet.hessian[0, 0, 0]) == (2.0, 4.0)
        assert dc.rep_exp_affine(1.0).eval([np.log(2.0)])[0] == pytest.approx(1.0, abs=1e-15)

    def test_exp_affine_grid_is_one_small_tree(self):
        v = np.array([-1.0, 0.0, 0.5 + 2.0j, 3.0])
        grid = dc.rep_exp_affine(v)
        # one parameter leaf holds the grid: the tape does not grow with it
        assert grid.output_dim == 4
        for K in (1, 4, 128):
            assert len(dc.rep_exp_affine(np.linspace(-1.0, 2.0, K))._tape) == len(grid._tape)
        X = np.linspace(-0.9, 2.0, 7)[:, None].astype(complex)
        columns = [dc.rep_exp_affine(vk) for vk in v]
        np.testing.assert_array_equal(grid.eval_batch(X), np.hstack([f.eval_batch(X) for f in columns]))
        np.testing.assert_array_equal(grid.jet_at_zero().hessian[:, 0, 0], v * v)
        with pytest.raises(ValueError, match="1-d array"):
            dc.rep_exp_affine(np.zeros((2, 2)))

    def test_power(self):
        one = dc.rep_power(1.0)
        ident = dc.rep_identity(1)
        rng = np.random.default_rng(2)
        X = rng.uniform(-0.9, 3.0, (10, 1)).astype(complex)
        np.testing.assert_allclose(one.eval_batch(X), ident.eval_batch(X), atol=1e-14)
        assert dc.rep_power(2.0).eval([0.1])[0] == pytest.approx(0.21, abs=1e-15)
        v = 1.7
        jet = dc.rep_power(v).jet_at_zero()
        assert jet.jacobian[0, 0] == pytest.approx(v, abs=1e-14)
        assert jet.hessian[0, 0, 0] == pytest.approx(v * (v - 1.0), abs=1e-14)

    def test_exp_utility(self):
        zero = dc.rep_exp_utility(0.0)
        X = np.linspace(-0.5, 0.5, 5)[:, None].astype(complex)
        assert np.all(zero.eval_batch(X) == 0.0)
        assert dc.rep_exp_utility(1.0).eval([0.0])[0] == 0.0
        jet = dc.rep_exp_utility(3.0).jet_at_zero()
        assert jet.jacobian[0, 0] == pytest.approx(-3.0, abs=1e-14)
        assert jet.hessian[0, 0, 0] == pytest.approx(6.0, abs=1e-13)

    def test_memm_integrand(self):
        zero = dc.rep_memm_integrand(0.0, 1.3)
        X = np.linspace(-0.5, 0.5, 5)[:, None].astype(complex)
        np.testing.assert_allclose(zero.eval_batch(X), 0.0, atol=1e-16)
        v, lam = 0.8 + 0.2j, 0.6
        jet = dc.rep_memm_integrand(v, lam).jet_at_zero()
        assert jet.jacobian[0, 0] == pytest.approx(v, abs=1e-14)
        assert jet.hessian[0, 0, 0] == pytest.approx(v * v - 2 * lam * v, abs=1e-13)
        reduced = dc.rep_memm_integrand(v, 0.0)
        ref = dc.rep_exp_affine(v)
        np.testing.assert_allclose(reduced.eval_batch(X), ref.eval_batch(X), atol=1e-14)

    def test_margrabe_defaults(self):
        f = dc.rep_margrabe(0.9)
        assert f.eval([0.0, -1.0])[0] == pytest.approx(-1.0, abs=1e-15)
        assert f.eval([-1.0, -1.0])[0] == pytest.approx(0.0, abs=1e-15)
        # v = 0: zero except on the asset-2 default line, where it is -(1+x1)
        f0 = dc.rep_margrabe(0.0)
        assert f0.eval([0.3, 0.2])[0] == 0.0
        assert f0.eval([0.3, -1.0])[0] == pytest.approx(-1.3, abs=1e-15)

    def test_catalog_builder_round_trips_names(self):
        # each entry is the tree of its builder called directly
        for name, params, direct in [
            ("identity", {"dim": 2}, dc.rep_identity(2)),
            ("coord", {"dim": 2, "index": 1}, dc.rep_coord(2, 1)),
            ("zero", {"dim": 1}, dc.rep_zero(1)),
            ("ratio", {}, dc.rep_ratio()),
            ("log_return", {}, dc.rep_log_return()),
            ("exp_affine", {"v": "0.5+1.2i"}, dc.rep_exp_affine(0.5 + 1.2j)),
            ("power", {"v": 2}, dc.rep_power(2)),
            ("exp_utility", {"lambda": 3}, dc.rep_exp_utility(3.0)),
            ("memm_integrand", {"v": 1, "lambda_star": 0.5}, dc.rep_memm_integrand(1, 0.5)),
            ("margrabe", {"v": "0.5"}, dc.rep_margrabe(0.5)),
        ]:
            assert dc.to_prefix(dc.build_catalog_fn(name, params)) == dc.to_prefix(direct)

    def test_unknown_catalog_name(self):
        with pytest.raises(ValueError, match="unknown catalog"):
            dc.build_catalog_fn("not_a_function")


class TestGirsanovAdjust:
    def test_zero_change_is_identity(self):
        xi = dc.rep_margrabe(0.6)
        adj = dc.girsanov_adjust(xi, dc.rep_zero(2))
        rng = np.random.default_rng(1)
        X = rng.uniform(-0.8, 1.0, (20, 2)).astype(complex)
        np.testing.assert_array_equal(adj.eval_batch(X), xi.eval_batch(X))

    def test_memm_kernel_is_adjusted_exponential(self):
        v, lam = 0.7 + 0.4j, 1.1
        adj = dc.girsanov_adjust(dc.rep_exp_affine(v), dc.rep_exp_utility(lam))
        ref = dc.rep_memm_integrand(v, lam)
        X = np.linspace(-0.9, 0.9, 21)[:, None].astype(complex)
        np.testing.assert_allclose(adj.eval_batch(X), ref.eval_batch(X), atol=1e-14)

    def test_margrabe_consistency_on_no_default_region(self):
        v = 0.7
        swap = dc.RepFn(2, (dc.Coord(1), dc.Coord(0)))
        ratio_21 = dc.compose(dc.rep_ratio(), swap)
        power_of_ratio = dc.compose(dc.rep_power(v), ratio_21)
        adjusted = dc.girsanov_adjust(power_of_ratio, dc.rep_coord(2, 0))
        marg = dc.rep_margrabe(v)
        rng = np.random.default_rng(8)
        X = rng.uniform(-0.9, 2.0, (50, 2)).astype(complex)
        np.testing.assert_allclose(
            adjusted.eval_batch(X), marg.eval_batch(X), atol=1e-13
        )

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError, match="dimension"):
            dc.girsanov_adjust(dc.rep_ratio(), dc.rep_zero(1))


class TestPushforward:
    def test_identity_returns_input(self, atoms_1d):
        out = dc.pushforward_characteristics(
            dc.rep_identity(1), atoms_1d, atoms_1d.truncation
        )
        assert out is atoms_1d

    def test_atoms_map_exactly(self):
        t = dc.LevyTriplet(
            1, np.zeros(1), np.zeros((1, 1)),
            dc.FiniteAtoms([[0.1], [-0.05]], [1.0, 2.0]),
            dc.TruncationSpec.identity(1),
        )
        out = dc.pushforward_characteristics(
            dc.rep_exp_affine(1.0), t, dc.TruncationSpec.identity(1)
        )
        np.testing.assert_allclose(
            sorted(out.jumps.points[:, 0]),
            sorted([np.expm1(0.1), np.expm1(-0.05)]),
            rtol=1e-15,
        )
        assert dc.atom_mass_in_boxes(out.jumps, [((0.1,), (np.inf,))]) == 1.0

    def test_counting_query_reads_its_boxes_once_per_call(self):
        # a one-shot iterable of boxes was consumed by the first atom (0.1)
        atoms = dc.FiniteAtoms([[-1.0, 0.0], [0.5, -1.0], [0.2, 0.3]], [0.1, 0.2, 0.3])
        box = ((-1.0, -1.0), (1.0, 1.0))
        assert dc.atom_mass_in_boxes(atoms, [box]) == 0.1 + 0.2 + 0.3
        assert dc.atom_mass_in_boxes(atoms, iter([box])) == 0.1 + 0.2 + 0.3
        assert dc.atom_mass_in_boxes(atoms, (b for b in [box])) == 0.1 + 0.2 + 0.3

    @pytest.mark.parametrize("box", [((-1.0,), (1.0,)), (-1.0, 1.0), ((-1.0, -1.0, -1.0), (1.0, 1.0, 1.0))])
    def test_counting_query_refuses_a_box_of_another_dimension(self, box):
        # a 1-d box broadcast over 2-d atoms and counted all of them, 1.0
        atoms = dc.FiniteAtoms([[-1.0, 0.0], [0.5, -1.0], [0.2, 0.3]], [0.1, 0.2, 0.3])
        with pytest.raises(ValueError, match=r"^box \(.*\) does not have the atoms' dimension 2$"):
            dc.atom_mass_in_boxes(atoms, [((-1.0, -1.0), (1.0, 1.0)), box])

    def test_counting_query_refuses_a_measure_without_atoms(self):
        # a sum measure raised an AttributeError
        mixed = dc.SumMeasure((dc.FiniteAtoms([[0.1]], [1.0]),
                               dc.GaussianPush(0.8, np.array([-0.05]), np.array([[0.04]]))))
        with pytest.raises(ValueError, match=r"^counting needs an atom measure, got SumMeasure$"):
            dc.atom_mass_in_boxes(mixed, [((-1.0,), (1.0,))])

    def test_counting_query_is_exact(self):
        rng = np.random.default_rng(6)
        pts = rng.normal(0.0, 0.3, (8, 1))
        lam = rng.uniform(0.2, 1.5, 8)
        t = dc.LevyTriplet(
            1, np.zeros(1), np.zeros((1, 1)),
            dc.FiniteAtoms(pts, lam), dc.TruncationSpec.identity(1),
        )
        xi = dc.rep_exp_affine(1.0)
        out = dc.pushforward_characteristics(xi, t, dc.TruncationSpec.identity(1))
        boxes = [((0.05,), (0.4,)), ((-0.5,), (-0.01,))]
        expected = 0.0
        for k in range(8):
            y = np.expm1(pts[k, 0])
            if 0.05 <= y <= 0.4 or -0.5 <= y <= -0.01:
                expected += lam[k]
        assert dc.atom_mass_in_boxes(out.jumps, boxes) == pytest.approx(expected, abs=1e-15)

    def test_covariance_congruence_stays_psd(self, gbm_ratio_triplet):
        out = dc.pushforward_characteristics(
            dc.rep_ratio(), gbm_ratio_triplet, dc.TruncationSpec.identity(1)
        )
        assert out.c[0, 0] == pytest.approx(0.04 - 2 * 0.006 + 0.01, abs=1e-15)
        assert np.min(np.linalg.eigvalsh(out.c)) >= 0.0

    def test_gaussian_body_becomes_mapped_measure(self, merton_1d):
        out = dc.pushforward_characteristics(
            dc.rep_exp_affine(1.0), merton_1d, dc.TruncationSpec.identity(1)
        )
        assert isinstance(out.jumps, dc.MappedMeasure)
        assert out.jumps.total_mass() == pytest.approx(0.8)

    def test_complex_valued_map_rejected(self):
        t = dc.LevyTriplet(
            1, np.zeros(1), np.zeros((1, 1)),
            dc.FiniteAtoms([[0.1]], [1.0]), dc.TruncationSpec.identity(1),
        )
        with pytest.raises(ValueError, match="real-valued"):
            dc.pushforward_characteristics(
                dc.rep_exp_affine(1.0j), t, dc.TruncationSpec.identity(1)
            )

    def test_colliding_images_merge(self):
        t = dc.LevyTriplet(
            1, np.zeros(1), np.zeros((1, 1)),
            dc.FiniteAtoms([[0.25], [-0.25]], [1.0, 2.0]),
            dc.TruncationSpec.identity(1),
        )
        square = dc.RepFn(1, (dc.Mul(dc.Coord(0), dc.Coord(0)),))
        out = dc.pushforward_characteristics(square, t, dc.TruncationSpec.identity(1))
        assert out.jumps.points.shape[0] == 1
        assert out.jumps.intensities[0] == pytest.approx(3.0)

    def test_mixed_sum_maps_part_by_part(self):
        # Atoms at +-0.25 and 0.1 plus a Gaussian body, pushed through x^2:
        # the first two atoms land on one image point.
        atoms = dc.FiniteAtoms([[0.25], [-0.25], [0.1]], [1.0, 2.0, 0.5])
        body = dc.GaussianPush(0.8, np.array([-0.05]), np.array([[0.04]]))
        t = dc.LevyTriplet(
            1, np.array([0.03]), np.array([[0.09]]), dc.SumMeasure((atoms, body)),
            dc.TruncationSpec.unit_clip(1),
        )
        square = dc.RepFn(1, (dc.Mul(dc.Coord(0), dc.Coord(0)),))
        out = dc.pushforward_characteristics(square, t, dc.TruncationSpec.identity(1))
        image_atoms, image_body = out.jumps.parts
        assert isinstance(image_atoms, dc.FiniteAtoms)
        np.testing.assert_array_equal(image_atoms.points[:, 0], [0.0625, 0.1 * 0.1])
        np.testing.assert_array_equal(image_atoms.intensities, [3.0, 0.5])
        assert isinstance(image_body, dc.MappedMeasure)
        assert image_body.base is body and image_body.map_fn is square
        assert out.b[0] == pytest.approx(dc.drift(square, t).total[0].real, abs=1e-14)


def test_catalog_closure_under_composition():
    # Any dimension-compatible pair composes into a constructor-valid tree.
    one_dim = [
        dc.rep_log_return(),
        dc.rep_exp_affine(0.4),
        dc.rep_power(1.3),
        dc.rep_exp_utility(0.8),
        dc.rep_memm_integrand(0.5, 0.2),
    ]
    for psi in one_dim:
        for xi in one_dim:
            composed = dc.compose(psi, xi)
            assert composed.eval([0.0])[0] == 0.0
    two_to_one = [dc.rep_ratio(), dc.rep_margrabe(0.5)]
    for psi in one_dim:
        for xi in two_to_one:
            composed = dc.compose(psi, xi)
            assert composed.eval([0.0, 0.0])[0] == 0.0
