import pickle
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import driftcalc as dc
from driftcalc.errors import NanPointError
from driftcalc import cli
from driftcalc.repfn import _OPS, MAX_PREFIX_NESTING, _isnan, finite_difference_jet

from conftest import random_composed_tree

ONE = dc.Const(1.0)


def nan_out(values):
    return bool(np.all(_isnan(np.asarray(values))))


class TestEval:
    def test_ratio_percentage_change(self):
        f = dc.rep_ratio()
        assert f.eval([0.5, 0.2])[0] == pytest.approx(0.25, abs=1e-15)

    def test_identity_at_origin(self):
        f = dc.rep_identity(3)
        assert np.array_equal(f.eval([0.0, 0.0, 0.0]), np.zeros(3, dtype=complex))

    def test_ratio_pole_is_nan(self):
        assert nan_out(dc.rep_ratio().eval([0.0, -1.0]))

    def test_dimension_mismatch_rejected(self):
        with pytest.raises(ValueError):
            dc.rep_ratio().eval([0.1])

    def test_log_branch_cut_is_nan(self):
        f = dc.rep_log_return()
        assert nan_out(f.eval([-1.0]))
        assert nan_out(f.eval([-1.5]))
        assert f.eval([np.e - 1.0])[0] == pytest.approx(1.0, abs=1e-15)

    def test_negative_base_power_is_nan(self):
        f = dc.rep_power(0.5)
        assert nan_out(f.eval([-2.0]))

    def test_division_by_zero_is_nan_not_inf(self):
        f = dc.RepFn(1, (dc.Div(dc.Coord(0), dc.Coord(0) + ONE) - dc.Const(0.0),))
        assert nan_out(f.eval([-1.0]))

    def test_batch_matches_pointwise(self):
        f = dc.rep_memm_integrand(0.5 + 1.0j, 0.7)
        X = np.linspace(-0.5, 0.5, 7)[:, None].astype(complex)
        batch = f.eval_batch(X)
        for k, x in enumerate(X):
            assert batch[k] == pytest.approx(f.eval(x))


class TestConstruction:
    def test_nonvanishing_tree_rejected(self):
        with pytest.raises(ValueError, match="origin"):
            dc.RepFn(1, (dc.Exp(dc.Coord(0)),))

    def test_undefined_at_origin_rejected(self):
        with pytest.raises(ValueError):
            dc.RepFn(1, (dc.Log(dc.Coord(0)),))

    def test_coordinate_out_of_range_rejected(self):
        with pytest.raises(ValueError, match="out of range"):
            dc.RepFn(1, (dc.Coord(1),))

    def test_predicate_level_zero_rejected(self):
        with pytest.raises(ValueError, match="nonzero"):
            dc.Indicator("eq", 0.0, dc.Coord(0))

    def test_predicate_radius_nonpositive_rejected(self):
        with pytest.raises(ValueError, match="radius"):
            dc.Indicator("abs_le", 0.0, dc.Coord(0))

    def test_pickle_round_trip(self):
        f = dc.rep_memm_integrand(0.5 + 1.0j, 0.7)
        back = pickle.loads(pickle.dumps(f))
        assert back == f
        X = np.linspace(-0.5, 0.5, 9)[:, None].astype(complex)
        np.testing.assert_array_equal(back.eval_batch(X), f.eval_batch(X))

    def test_predicate_on_its_boundary_at_origin_rejected(self):
        # child value at the origin is exactly the comparison level
        child = dc.Coord(0) + ONE
        tree = dc.Mul(dc.Coord(0), dc.Indicator("eq", 1.0, child))
        with pytest.raises(ValueError, match="discontinuous"):
            dc.RepFn(1, (tree,))


class TestJets:
    def test_exp_affine_jet(self):
        jet = dc.rep_exp_affine(2.0).jet_at_zero()
        assert jet.jacobian[0, 0] == pytest.approx(2.0, abs=1e-15)
        assert jet.hessian[0, 0, 0] == pytest.approx(4.0, abs=1e-15)

    def test_exp_utility_jet(self):
        jet = dc.rep_exp_utility(3.0).jet_at_zero()
        assert jet.jacobian[0, 0] == pytest.approx(-3.0, abs=1e-15)
        assert jet.hessian[0, 0, 0] == pytest.approx(6.0, abs=1e-14)

    def test_margrabe_jet(self):
        v = 0.8 + 0.3j
        jet = dc.rep_margrabe(v).jet_at_zero()
        np.testing.assert_allclose(jet.jacobian[0], [-v, v], atol=1e-14)
        expected = v * (v - 1.0) * np.array([[1.0, -1.0], [-1.0, 1.0]])
        np.testing.assert_allclose(jet.hessian[0], expected, atol=1e-14)

    def test_value_component_is_zero(self):
        jet = dc.rep_memm_integrand(1.2, 0.4).jet_at_zero()
        assert np.array_equal(jet.value, np.zeros(1, dtype=complex))

    def test_hessian_symmetry(self):
        jet = dc.rep_ratio().jet_at_zero()
        np.testing.assert_array_equal(jet.hessian[0], jet.hessian[0].T)


class TestFiniteDifferences:
    def test_square_polynomial(self):
        f = dc.RepFn(1, (dc.Mul(dc.Coord(0), dc.Coord(0)),))
        fd = finite_difference_jet(f, 1e-4)
        assert abs(fd.jacobian[0, 0]) < 1e-6
        assert fd.hessian[0, 0, 0] == pytest.approx(2.0, abs=1e-6)

    def test_exp_affine_jacobian(self):
        fd = finite_difference_jet(dc.rep_exp_affine(3.0), 1e-4)
        assert fd.jacobian[0, 0] == pytest.approx(3.0, abs=1e-6)

    def test_margrabe_cross_check(self):
        f = dc.rep_margrabe(0.5)
        jet = f.jet_at_zero()
        fd = finite_difference_jet(f, 1e-5)
        np.testing.assert_allclose(jet.jacobian, fd.jacobian, rtol=1e-5, atol=1e-8)
        np.testing.assert_allclose(jet.hessian, fd.hessian, rtol=1e-5, atol=1e-5)

    def test_nan_at_stencil_reported(self):
        f = dc.rep_log_return()
        with pytest.raises(NanPointError, match="stencil"):
            finite_difference_jet(f, 2.0)

    def test_random_composed_suite(self):
        rng = np.random.default_rng(20240815)
        for _ in range(100):
            f = random_composed_tree(rng)
            jet = f.jet_at_zero()
            fd = finite_difference_jet(f, 1e-5)
            jac_scale = max(1.0, float(np.max(np.abs(fd.jacobian))))
            hess_scale = max(1.0, float(np.max(np.abs(fd.hessian))))
            assert np.max(np.abs(jet.jacobian - fd.jacobian)) / jac_scale <= 1e-6
            assert np.max(np.abs(jet.hessian - fd.hessian)) / hess_scale <= 1e-4


class TestCompose:
    def test_utility_composition(self):
        lam = 1.7
        psi = dc.RepFn(1, (dc.Exp(dc.Const(-lam) * dc.Coord(0)) - ONE,))
        xi = dc.RepFn(1, (dc.Exp(dc.Coord(0)) - ONE,))
        comp = dc.compose(psi, xi)
        ref = dc.rep_exp_utility(lam)
        X = np.linspace(-0.8, 0.8, 20)[:, None].astype(complex)
        np.testing.assert_allclose(comp.eval_batch(X), ref.eval_batch(X), atol=1e-14)

    def test_identity_composition(self):
        xi = dc.rep_memm_integrand(0.3, 0.9)
        comp = dc.compose(dc.rep_identity(1), xi)
        X = np.linspace(-0.5, 0.5, 10)[:, None].astype(complex)
        np.testing.assert_array_equal(comp.eval_batch(X), xi.eval_batch(X))

    def test_ratio_of_exponentials_collapses(self):
        inner = dc.RepFn(
            2, (dc.Exp(dc.Coord(0)) - ONE, dc.Exp(dc.Coord(1)) - ONE)
        )
        comp = dc.compose(dc.rep_ratio(), inner)
        rng = np.random.default_rng(5)
        X = rng.normal(0.0, 0.4, (20, 2)).astype(complex)
        expected = np.exp(X[:, 0] - X[:, 1]) - 1.0
        np.testing.assert_allclose(comp.eval_batch(X)[:, 0], expected, atol=1e-14)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError, match="dimension"):
            dc.compose(dc.rep_ratio(), dc.rep_log_return())

    def test_chain_rule(self):
        psi = dc.rep_exp_utility(2.0)
        xi = dc.rep_exp_affine(0.7)
        jp, jx = psi.jet_at_zero(), xi.jet_at_zero()
        jc = dc.compose(psi, xi).jet_at_zero()
        np.testing.assert_allclose(jc.jacobian, jp.jacobian @ jx.jacobian, atol=1e-14)
        hess = np.einsum("mkl,ki,lj->mij", jp.hessian, jx.jacobian, jx.jacobian)
        hess += np.einsum("mk,kij->mij", jp.jacobian, jx.hessian)
        np.testing.assert_allclose(jc.hessian, hess, atol=1e-14)

    def test_nan_propagates_through_composition(self):
        comp = dc.compose(dc.rep_exp_affine(1.0), dc.rep_ratio())
        assert nan_out(comp.eval([0.3, -1.0]))


@settings(max_examples=60, deadline=None)
@given(
    re=st.floats(-3, 3, allow_nan=False),
    im=st.floats(-3, 3, allow_nan=False),
    v=st.floats(-2, 2, allow_nan=False),
)
def test_conjugate_symmetry_for_real_trees(re, im, v):
    f = dc.rep_exp_affine(v)
    z = complex(re, im)
    a = f.eval(np.array([np.conj(z)]))[0]
    b = np.conj(f.eval(np.array([z]))[0])
    assert a == pytest.approx(b, rel=1e-12, abs=1e-12)


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 10_000))
def test_random_trees_vanish_at_origin(seed):
    f = random_composed_tree(np.random.default_rng(seed))
    assert np.array_equal(
        f.eval(np.zeros(f.input_dim)), np.zeros(f.output_dim, dtype=complex)
    )


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 10_000))
def test_random_trees_survive_prefix_round_trip(seed):
    f = random_composed_tree(np.random.default_rng(seed))
    back = dc.from_prefix(dc.to_prefix(f))
    X = np.random.default_rng(seed + 1).uniform(-0.4, 0.4, (8, f.input_dim)).astype(complex)
    np.testing.assert_array_equal(back.eval_batch(X), f.eval_batch(X))


def _recursive_tape(f):
    """Reference post-order walk: children left to right, shared nodes once."""
    slots, tape = {}, []

    def walk(node):
        if id(node) not in slots:
            args = tuple(walk(getattr(node, field)) for field in _OPS[type(node)].children)
            slots[id(node)] = len(tape)
            tape.append((node, args))
        return slots[id(node)]

    return tape, tuple(walk(root) for root in f.outputs)


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 10_000))
def test_tape_is_the_recursive_post_order(seed):
    f = random_composed_tree(np.random.default_rng(seed))
    g = dc.compose(dc.rep_exp_utility(0.7), f)  # shares the inner trees
    for h in (f, g, dc.rep_margrabe(0.75)):
        tape, roots = _recursive_tape(h)
        assert [(node, args) for _op, node, args in h._tape] == tape
        assert h._roots == roots


class TestPrefixSerialisation:
    @pytest.mark.parametrize(
        "fn",
        [
            dc.rep_ratio(),
            dc.rep_log_return(),
            dc.rep_exp_affine(0.5 + 1.25j),
            dc.rep_margrabe(0.75),
            dc.rep_memm_integrand(2.0, 0.3),
        ],
    )
    def test_round_trip_evaluates_identically(self, fn):
        back = dc.from_prefix(dc.to_prefix(fn))
        rng = np.random.default_rng(11)
        X = rng.uniform(-0.6, 1.5, (25, fn.input_dim)).astype(complex)
        np.testing.assert_array_equal(back.eval_batch(X), fn.eval_batch(X))

    def test_grammar_doc_lists_every_operator(self):
        grammar = cli.__doc__.split("Expression grammar")[1]
        documented = set(re.findall(r"\((\w+)", grammar)) - {"repfn"}
        assert documented == {op.token for op in _OPS.values()}

    def test_complex_literals(self):
        assert dc.parse_complex("0.5+1.2i") == 0.5 + 1.2j
        assert dc.parse_complex("-2i") == -2j
        assert dc.parse_complex("3") == 3.0
        z = 0.1 - 2.5e-3j
        assert dc.parse_complex(dc.format_complex(z)) == z

    def test_malformed_input_rejected(self):
        with pytest.raises(ValueError):
            dc.from_prefix("(repfn 1 (bogus 1))")
        with pytest.raises(ValueError):
            dc.from_prefix("(repfn 1 (x 0)")
        with pytest.raises(ValueError):
            dc.from_prefix("(repfn 1 (x (x 0)))")
        with pytest.raises(ValueError):
            dc.from_prefix("(repfn (x 0) (x 0))")
        with pytest.raises(ValueError):
            dc.from_prefix("(repfn 1 (ind eq (x 0) (x 0)))")
        with pytest.raises(ValueError, match="operands"):
            dc.from_prefix("(repfn 1 (add (x 0)))")
        with pytest.raises(ValueError, match="nests deeper than 256 levels"):
            dc.from_prefix("(repfn 1 " + "(neg " * 1100 + "(x 0)" + ")" * 1101)

    def test_nesting_at_the_limit_parses(self):
        # (repfn ...) is level 1 and (x 0) the innermost level.
        levels = MAX_PREFIX_NESTING - 2
        f = dc.from_prefix("(repfn 1 " + "(neg " * levels + "(x 0)" + ")" * (levels + 1))
        assert f.eval([0.5])[0] == 0.5
        with pytest.raises(ValueError, match="nests deeper"):
            dc.from_prefix("(repfn 1 " + "(neg " * (levels + 1) + "(x 0)" + ")" * (levels + 2))

    def test_deep_tree_built_in_python(self):
        # Construction walks the tree with an explicit stack, so depth is
        # bounded by memory only; the prefix cap applies to parsing alone.
        node = dc.Coord(0)
        for _ in range(1100):
            node = dc.Neg(node)
        f = dc.RepFn(1, (node,))
        assert f.eval([0.5])[0] == 0.5
        np.testing.assert_array_equal(f.jet_at_zero().jacobian, [[1.0]])
        text = dc.to_prefix(f)
        assert text.count("(neg ") == 1100
        with pytest.raises(ValueError, match="nests deeper"):
            dc.from_prefix(text)
