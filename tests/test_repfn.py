import pickle
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import driftcalc as dc
from driftcalc.errors import NanPointError
from driftcalc import cli, repfn
from driftcalc.calculus import _rep_exp_utility_slope
from driftcalc.repfn import _OPS, MAX_PREFIX_NESTING, _isnan

from conftest import (
    RAW_CONSTANTS,
    finite_difference_jet,
    on_level,
    origin_value,
    random_composed_tree,
    raw_prefix,
    raw_trees,
)

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

    def test_radius_level_is_read_as_evaluation_reads_it(self):
        # The level is |z| from numpy's array loop, which Indicator.test
        # uses; abs() of the complex scalar is one ulp lower here.
        z = 1.6820906403466411 + 1.4375j
        child = dc.Coord(0) + dc.Const(z)
        tree = dc.Mul(dc.Coord(0), dc.Indicator("abs_gt", float(np.abs([z])[0]), child))
        with pytest.raises(ValueError, match="discontinuous"):
            dc.RepFn(1, (tree,))


class TestOperatorSugar:
    """Python numbers on either side of an operator become constants."""

    @pytest.mark.parametrize("sugar, explicit, closed", [
        (lambda x: 2 * x, lambda x: dc.Mul(dc.Const(2), x), lambda X: 2 * X),
        (lambda x: 1 + x, lambda x: dc.Add(dc.Const(1), x), lambda X: 1 + X),
        (lambda x: 1 - x, lambda x: dc.Sub(dc.Const(1), x), lambda X: 1 - X),
        (lambda x: x / 2, lambda x: dc.Div(x, dc.Const(2)), lambda X: X / 2),
        (lambda x: 2 / (1 + x), lambda x: dc.Div(dc.Const(2), dc.Add(dc.Const(1), x)), lambda X: 2 / (1 + X)),
        (lambda x: -x, lambda x: dc.Neg(x), lambda X: -X),
    ], ids=["rmul", "radd", "rsub", "truediv", "rtruediv", "neg"])
    def test_a_number_operand_builds_the_explicit_node(self, sugar, explicit, closed):
        x = dc.Coord(0)
        assert sugar(x) == explicit(x)
        # times x, so that the tree vanishes at the origin
        X = np.linspace(-0.9, 2.0, 7)[:, None]
        sugared, spelled = (dc.RepFn(1, (x * node,)) for node in (sugar(x), explicit(x)))
        np.testing.assert_array_equal(sugared.eval_batch(X), spelled.eval_batch(X))
        np.testing.assert_allclose(sugared.eval_batch(X), X * closed(X), rtol=1e-15)

    def test_a_string_operand_is_refused(self):
        with pytest.raises(TypeError, match="^cannot convert str to an expression node$"):
            dc.Coord(0) + "a"


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

    def test_jet_is_kept_read_only(self):
        f = dc.rep_margrabe(0.75)
        jet = f.jet_at_zero()
        assert jet is f.jet_at_zero()
        for a in (jet.value, jet.jacobian, jet.hessian):
            assert not a.flags.writeable

    @pytest.mark.parametrize("v, arith", [(0.5, "scalars"), (0.5 + 1j, "arrays")])
    def test_a_tree_on_r1_runs_one_jet_pass(self, monkeypatch, v, arith):
        # the scalar pass is chosen before it runs: a complex literal takes
        # the array pass alone
        passes, run = [], dc.RepFn._run

        def spied(self, rule, x):
            passes.append((rule, "scalars" if x is repfn._SCALARS else "arrays"))
            return run(self, rule, x)

        monkeypatch.setattr(dc.RepFn, "_run", spied)
        f = dc.rep_exp_affine(v)
        assert passes == [("jet", arith)]
        assert f._real is (arith == "scalars")

    def test_square_of_a_huge_origin_value(self):
        # d2/dx2 of x log(1e200 + x) is 2e-200; the log's own Hessian term
        # -1/1e400 underflows to 0 and must not overflow on the way.
        f = dc.from_prefix("(repfn 1 (mul (x 0) (log (add (const 1e200) (x 0)))))")
        assert f.jet_at_zero().hessian[0, 0, 0] == pytest.approx(2e-200, rel=1e-15, abs=0.0)


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


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_raw_trees_construct_exactly_when_valid_at_the_origin(data):
    dim = data.draw(st.integers(1, 2))
    roots = data.draw(st.lists(raw_trees(dim), min_size=1, max_size=2))
    if data.draw(st.booleans()):
        # Subtracting a root's own origin value leaves exactly 0 only if the
        # check rounds as evaluation does.
        values = [origin_value(r, dim) for r in roots]
        roots = [
            r - dc.Const(v) if v is not None and np.isfinite(v) else r for r, v in zip(roots, values)
        ]
    values = [origin_value(r, dim) for r in roots]
    indicators, stack = [], list(roots)
    while stack:
        node = stack.pop()
        if type(node) is dc.Indicator:
            indicators.append(node)
        stack.extend(getattr(node, field) for field in _OPS[type(node)].children)
    valid = all(v is not None and v == 0 for v in values) and not any(
        on_level(n, origin_value(n.child, dim)) for n in indicators
    )
    if not valid:
        with pytest.raises(ValueError):
            dc.RepFn(dim, tuple(roots))
        return
    f = dc.RepFn(dim, tuple(roots))
    jet = f.jet_at_zero()
    assert np.array_equal(jet.value, np.zeros(len(roots)))
    assert np.array_equal(f.eval_batch(np.zeros((1, dim))), np.zeros((1, len(roots))))
    assert raw_prefix(dim, roots) == dc.to_prefix(f)


#: real evaluation points: moderate values, the poles at 0 and -1, and
#: values whose exponentials and products overflow
REAL_POINTS = st.one_of(
    st.sampled_from([0.0, -0.0, 1.0, -1.0, -2.0, 700.0, -700.0, 1e-300, 1e300]),
    st.floats(-4.0, 4.0, allow_nan=False),
)
#: agreement of the float64 and complex128 evaluations of a real tree, in
#: ulps of max(1, |value|): each row may round differently by an ulp (complex
#: division multiplies by the reciprocal, complex exp and log are other libm
#: routines), and a tree made to vanish at the origin by subtracting 1 keeps
#: the rounding of its O(1) terms
REAL_EVAL_ULPS = 8


def _assert_real_evaluation_agrees(f, X, ulps=REAL_EVAL_ULPS):
    """float64 at real X: the finite/NaN pattern of the complex evaluation's
    real part, and its values within ``ulps`` (None: the pattern only)."""
    real = f.eval_batch(X)
    ref = f.eval_batch(X.astype(complex))
    assert real.dtype == np.float64 and ref.dtype == np.complex128
    assert np.array_equal(np.isnan(real), np.isnan(ref.real))
    assert np.array_equal(np.isfinite(real), np.isfinite(ref.real))
    if ulps is not None:
        fin = np.isfinite(real)
        bound = ulps * np.finfo(float).eps * np.maximum(1.0, np.abs(ref.real[fin]))
        assert np.all(np.abs(real[fin] - ref.real[fin]) <= bound)


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_real_trees_evaluate_real_points_in_float64(data):
    dim = data.draw(st.integers(1, 2))
    roots = data.draw(st.lists(raw_trees(dim), min_size=1, max_size=2))
    try:
        f = dc.RepFn(dim, tuple(roots))
    except ValueError:
        return
    point = st.lists(REAL_POINTS, min_size=dim, max_size=dim)
    X = np.array(data.draw(st.lists(point, min_size=1, max_size=6)))
    if f._real:
        _assert_real_evaluation_agrees(f, X)
    else:
        assert f.eval_batch(X).dtype == np.complex128


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 10_000))
def test_random_composed_trees_evaluate_real_points_in_float64(seed):
    # Composition amplifies a row's rounding by the tree's condition number
    # (an exponential by its argument, a quotient near its pole), so the ulp
    # bound holds where these trees are well conditioned, as the finite
    # difference tests use them; towards the poles only the pattern is held.
    f = random_composed_tree(np.random.default_rng(seed))
    assert f._real
    rng = np.random.default_rng(seed + 1)
    _assert_real_evaluation_agrees(f, rng.uniform(-0.4, 0.4, (64, f.input_dim)))
    _assert_real_evaluation_agrees(f, rng.uniform(-1.5, 3.0, (64, f.input_dim)), ulps=None)


def _with_param(f: dc.RepFn, values) -> dc.RepFn:
    """f with a parameter axis: each output times a Param of ``values``."""
    return dc.RepFn(f.input_dim, tuple(dc.Mul(dc.Param(values), root) for root in f.outputs))


def _assert_batch_is_its_parts(f, A, B):
    whole = f.eval_batch(np.concatenate([A, B]))
    parts = np.concatenate([f.eval_batch(A), f.eval_batch(B)])
    assert whole.dtype == parts.dtype
    assert whole.tobytes() == parts.tobytes()


#: parameter values: real, complex, and K = 1
PARAM_VALUES = st.lists(
    st.one_of(
        st.floats(-2.0, 2.0),
        st.complex_numbers(max_magnitude=2.0, allow_nan=False, allow_infinity=False),
    ),
    min_size=1, max_size=3,
)


@settings(max_examples=60, deadline=None)
@given(
    st.integers(0, 10_000),
    st.booleans(),
    st.sampled_from([None, (0.5, -1.25, 2.0), (0.5 + 0.25j, -1.0)]),
    st.booleans(),
    st.integers(1, 300),
    st.integers(1, 300),
)
def test_a_batch_evaluates_as_its_parts(seed, complex_literal, param, complex_points, n, m):
    # Quadrature evaluates two rules and the tail probe in one batch and
    # slices the values: each row of a batch must come out as it would
    # alone.  Batches of 1 to 300 rows meet both sides of a SIMD loop's tail.
    rng = np.random.default_rng(seed)
    f = random_composed_tree(rng)
    if complex_literal:
        f = dc.compose(dc.rep_exp_affine(0.7 + 0.4j), f)
    if param:
        f = _with_param(f, param)
    A, B = rng.uniform(-1.5, 3.0, (n, f.input_dim)), rng.uniform(-1.5, 3.0, (m, f.input_dim))
    if complex_points:
        A, B = A + 1j * A[::-1], B + 1j * B[::-1]
    _assert_batch_is_its_parts(f, A, B)


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_a_batch_of_raw_trees_evaluates_as_its_parts(data):
    # the float extremes, poles and overflows of raw trees, NaN bits included
    dim = data.draw(st.integers(1, 2))
    roots = data.draw(st.lists(raw_trees(dim), min_size=1, max_size=2))
    # shifted by their origin values, most raw trees construct
    values = [origin_value(r, dim) for r in roots]
    roots = [r - dc.Const(v) if v is not None and np.isfinite(v) else r for r, v in zip(roots, values)]
    try:
        f = dc.RepFn(dim, tuple(roots))
    except ValueError:
        return
    if data.draw(st.booleans()):
        f = _with_param(f, data.draw(PARAM_VALUES))
    point = st.lists(REAL_POINTS, min_size=dim, max_size=dim)
    A, B = (
        np.resize(data.draw(st.lists(point, min_size=1, max_size=8)), (data.draw(st.integers(1, 300)), dim))
        for _ in range(2)
    )
    if data.draw(st.booleans()):
        A, B = A + 1j * A[::-1], B + 1j * B[::-1]
    _assert_batch_is_its_parts(f, A, B)


class TestEvalDtype:
    def test_integer_points_are_real_points(self):
        f = dc.rep_exp_affine(0.5)
        out = f.eval_batch(np.array([[0], [2]]))
        assert out.dtype == np.float64
        np.testing.assert_array_equal(out, f.eval_batch(np.array([[0.0], [2.0]])))

    @pytest.mark.parametrize("fn", [dc.rep_exp_affine(0.5 + 1.25j), dc.rep_power(0.5 - 0.5j)])
    def test_a_non_real_literal_keeps_real_points_complex(self, fn):
        X = np.array([[0.3], [-0.2]])
        out = fn.eval_batch(X)
        assert out.dtype == np.complex128
        np.testing.assert_array_equal(out, fn.eval_batch(X.astype(complex)))

    def test_complex_points_stay_complex(self):
        out = dc.rep_margrabe(0.75).eval_batch(np.zeros((2, 2), dtype=complex))
        assert out.dtype == np.complex128

    @pytest.mark.parametrize("x", [[-1.0, 0.3], [0.2, -1.0], [-1.5, 0.2], [0.4, 0.1]])
    def test_real_nan_fills_and_indicators(self, x):
        # indicators at the default atoms, a pole and a negative power base
        f = dc.rep_margrabe(0.75)
        X = np.array([x])
        real, ref = f.eval_batch(X), f.eval_batch(X.astype(complex))
        assert real.dtype == np.float64
        np.testing.assert_array_equal(np.isnan(real), _isnan(ref))
        np.testing.assert_allclose(real, ref.real, rtol=1e-15)

    def test_the_real_decision_is_taken_once(self):
        # at construction, where on R^1 it chooses the jet pass, for every
        # tree alike; an evaluation reads it, at real or complex points
        for f, real in ((dc.rep_margrabe(0.75), True), (dc.rep_margrabe(0.75 + 0.1j), False),
                        (dc.rep_exp_utility(0.7), True), (dc.rep_exp_utility(0.7 + 1j), False),
                        (dc.rep_exp_affine(np.array([0.5, 2.0])), True),
                        (dc.rep_exp_affine(np.array([0.5, 2.0 + 1e-300j])), False)):
            assert f.__dict__["_real"] is real
            X = np.zeros((1, f.input_dim))
            assert f.eval_batch(X).dtype == (np.float64 if real else np.complex128)
            assert f.eval_batch(X.astype(complex)).dtype == np.complex128
            assert f.__dict__["_real"] is real


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

    def test_prefix_round_trip_stops_at_the_nesting_limit(self):
        # The outer (repfn ...) and the innermost (x 0) each take one level.
        def chain(levels):
            node = dc.Coord(0)
            for _ in range(levels - 2):
                node = dc.Neg(node)
            return dc.RepFn(1, (node,))

        text = dc.to_prefix(chain(MAX_PREFIX_NESTING))
        assert dc.to_prefix(dc.from_prefix(text)) == text
        deeper = dc.to_prefix(chain(MAX_PREFIX_NESTING + 1))
        assert deeper.count("(neg ") == MAX_PREFIX_NESTING - 1
        with pytest.raises(ValueError, match="nests deeper than 256 levels"):
            dc.from_prefix(deeper)

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


class TestParam:
    V = (-1.0, 0.0, 0.5 + 2.0j, 3.0)

    def test_columns_are_in_output_parameter_order(self):
        x = dc.Coord(0)
        f = dc.RepFn(1, (x, dc.Exp(dc.Param(self.V) * x) - ONE))
        assert f.output_dim == 8
        X = np.linspace(-0.9, 2.0, 5)[:, None].astype(complex)
        out = f.eval_batch(X)
        np.testing.assert_array_equal(out[:, :4], np.repeat(X, 4, axis=1))
        for j, v in enumerate(self.V):
            np.testing.assert_array_equal(out[:, 4 + j], dc.rep_exp_affine(v).eval_batch(X)[:, 0])
        jet = f.jet_at_zero()
        assert jet.value.shape == (8,) and jet.jacobian.shape == (8, 1) and jet.hessian.shape == (8, 1, 1)
        np.testing.assert_array_equal(jet.jacobian[:, 0], [1, 1, 1, 1, *self.V])
        assert f.eval_batch(np.zeros((0, 1))).shape == (0, 8)

    def test_prefix_round_trip(self):
        text = "(repfn 1 (sub (exp (mul (param -1.0 0.0 0.5+2.0i 3.0) (x 0))) (const 1.0)))"
        f = dc.from_prefix(text)
        assert dc.to_prefix(f) == text
        assert f.outputs == dc.rep_exp_affine(np.array(self.V)).outputs
        assert dc.from_prefix(dc.to_prefix(f)).outputs == f.outputs
        with pytest.raises(ValueError, match="at least one operand"):
            dc.from_prefix("(repfn 1 (mul (param) (x 0)))")

    def test_parameter_leaves_share_their_length(self):
        x = dc.Coord(0)
        with pytest.raises(ValueError, match="share K"):
            dc.RepFn(1, (dc.Param([1.0, 2.0]) * x, dc.Param([1.0, 2.0, 3.0]) * x))
        with pytest.raises(ValueError, match="share K"):
            dc.RepFn(1, (dc.Param([1.0]) * x + dc.Param([1.0, 2.0]) * x,))

    @pytest.mark.parametrize("values", [[], [[1.0, 2.0]], [1.0, np.nan]])
    def test_bad_values_are_rejected(self, values):
        with pytest.raises(ValueError):
            dc.Param(values)

    def test_origin_checks_name_the_column(self):
        with pytest.raises(ValueError, match="output 2 evaluates to"):
            dc.RepFn(1, (dc.Param([0.0, 0.0, 1.0]) + dc.Coord(0),))
        with pytest.raises(ValueError, match="output 1 is undefined"):
            dc.RepFn(1, (dc.Coord(0) / dc.Param([1.0, 0.0]),))

    @pytest.mark.parametrize(
        "node, message",
        [
            (dc.Log(dc.Param([2.0, -1.0])), "output 1 is undefined"),
            (dc.PowConst(0.5, dc.Param([4.0, -4.0])), "output 1 is undefined"),
            (dc.Indicator("abs_le", 1.0, dc.Param([0.5, 1.0])), "discontinuous"),
        ],
    )
    def test_origin_branches_are_taken_per_column(self, node, message):
        with pytest.raises(ValueError, match=message):
            dc.RepFn(1, (dc.Coord(0) * node,))

    def test_a_function_with_a_parameter_axis_is_not_substituted(self):
        with pytest.raises(ValueError, match="parameter axis"):
            dc.compose(dc.rep_identity(1), dc.rep_exp_affine(np.array([0.5, 1.0])))
        inner = dc.compose(dc.rep_exp_affine(np.array([0.5, 1.0])), dc.rep_log_return())
        X = np.array([[0.3]])
        np.testing.assert_allclose(inner.eval_batch(X), [[1.3**0.5 - 1.0, 0.3]], rtol=1e-15)

    def test_real_values_evaluate_real_points_in_float64(self):
        real = dc.rep_exp_affine(np.array([-1.0, 0.5]))
        assert real.eval_batch(np.array([[0.2]])).dtype == np.float64
        cplx = dc.rep_exp_affine(np.array([-1.0, 0.5j]))
        assert cplx.eval_batch(np.array([[0.2]])).dtype == np.complex128

    def test_pickles(self):
        f = dc.rep_exp_affine(np.array(self.V))
        back = pickle.loads(pickle.dumps(f))
        assert back.outputs == f.outputs and back.output_dim == 4


def _with_params(node, params):
    """The raw tree with Const leaves replaced, in walk order, by the
    Params of ``params`` (None keeps the constant)."""
    op = _OPS[type(node)]
    if type(node) is dc.Const:
        p = params.pop(0) if params else None
        return node if p is None else p
    if not op.children:
        return node
    lits = [getattr(node, field) for field, _fmt, _parse in op.literals]
    return type(node)(*lits, *[_with_params(getattr(node, f), params) for f in op.children])


def _at(node, j):
    """The tree with each Param replaced by a constant of its j-th value."""
    if type(node) is dc.Param:
        return dc.Const(node.values[j])
    op = _OPS[type(node)]
    if not op.children:
        return node
    lits = [getattr(node, field) for field, _fmt, _parse in op.literals]
    return type(node)(*lits, *[_at(getattr(node, f), j) for f in op.children])


def _same_bits(a, b):
    a, b = np.ascontiguousarray(a), np.ascontiguousarray(b)
    return a.dtype == b.dtype and np.array_equal(
        a.view(np.float64), b.view(np.float64), equal_nan=True
    )


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_param_trees_equal_their_per_value_constant_trees(data):
    dim = data.draw(st.integers(1, 2))
    K = data.draw(st.integers(1, 3))
    roots = data.draw(st.lists(raw_trees(dim), min_size=1, max_size=2))
    values = st.lists(RAW_CONSTANTS, min_size=K, max_size=K).map(dc.Param)
    params = data.draw(st.lists(st.one_of(st.none(), values, values), min_size=1, max_size=4))
    roots = [_with_params(r, params) for r in roots]
    if data.draw(st.booleans()):
        # a Param of each column's origin value makes every column vanish
        for i, r in enumerate(roots):
            values = [origin_value(_at(r, j), dim) for j in range(K)]
            if all(v is not None and not _isnan(v) for v in values):
                roots[i] = r - dc.Param(values)
    columns = []
    for j in range(K):
        try:
            columns.append(dc.RepFn(dim, tuple(_at(r, j) for r in roots)))
        except ValueError:
            columns.append(None)
    if any(c is None for c in columns):
        with pytest.raises(ValueError):
            dc.RepFn(dim, tuple(roots))
        return
    f = dc.RepFn(dim, tuple(roots))
    width = K if f._width else 1
    assert f.output_dim == len(roots) * width
    pick = [(k, j if f._width else 0) for k in range(len(roots)) for j in range(width)]
    jet = f.jet_at_zero()
    for name in ("value", "jacobian", "hessian"):
        want = [getattr(columns[j].jet_at_zero(), name)[k] for k, j in pick]
        assert _same_bits(getattr(jet, name), np.array(want)), name
    point = st.lists(REAL_POINTS, min_size=dim, max_size=dim)
    X = np.array(data.draw(st.lists(point, min_size=1, max_size=4)))
    for Y in (X.astype(complex), X + 0.5j, X):
        if Y.dtype.kind == "f" and not f._real:
            continue
        out = f.eval_batch(Y)
        assert _same_bits(out, np.stack([columns[j].eval_batch(Y)[:, k] for k, j in pick], axis=1))
    assert dc.from_prefix(dc.to_prefix(f)).outputs == f.outputs


def _parent_nonpositive(z):
    return (z.imag == 0.0) & (z.real <= 0.0)


def _parent_masked(bad, fn, z):
    """The masked formula every point took before masking was skipped: the
    flagged points evaluated at 1 and then sent to NaN."""
    out = fn(np.where(bad, 1.0, z))
    return np.where(bad, np.nan if out.dtype.kind == "f" else complex(np.nan, np.nan), out)


_REAL_BATCHES = {
    "unmasked": [0.5, 1.0, 2.0, 1e-300, 3.7],
    "zeros and negatives": [0.5, 0.0, -0.0, -2.0, 1.5],
    "nan": [0.5, np.nan, 2.0, 0.25],
    "nan and negatives": [np.nan, 0.0, -1.0, 2.0],
}
_COMPLEX_BATCHES = {
    **{k: np.asarray(v) + 0j for k, v in _REAL_BATCHES.items()},
    "off the axis": [0.5 + 0.1j, -2.0 + 1e-300j, -1.0 - 0.5j, 1j],
    "signed zeros": [complex(-0.0, 0.0), complex(0.0, -0.0), complex(-0.0, -0.0), -1.0 + 0j, 0.3j],
    "nan parts": [complex(np.nan, 0.0), complex(-1.0, np.nan), complex(0.0, np.nan), 2.0 + 0j],
}
_ROW_BATCHES = [np.asarray(v, dtype=float) for v in _REAL_BATCHES.values()] + [
    np.asarray(v, dtype=complex) for v in _COMPLEX_BATCHES.values()]


class TestMaskedRows:
    """pow, log and div skip their masking passes where no point is masked;
    every batch, masked or not, keeps the bits and the NaNs of the masked
    formula, in real and in complex arithmetic."""

    @staticmethod
    def _ev(cls, node, *args):
        with np.errstate(all="ignore"):
            return _OPS[cls].ev(node, None, *args)

    # a real batch belongs to a real tree, whose exponents are real
    @pytest.mark.parametrize("z, p", [(z, p) for z in _ROW_BATCHES for p in (0.7, -1.5, 2.0, 0.5 - 0.25j)
                                      if z.dtype.kind == "c" or not isinstance(p, complex)])
    def test_pow(self, z, p):
        node = dc.PowConst(p, dc.Coord(0))
        for batch in (z, np.stack([z, z[::-1]], axis=1)):  # a parameter axis too
            got = self._ev(dc.PowConst, node, batch)
            with np.errstate(all="ignore"):
                want = _parent_masked(_parent_nonpositive(batch), lambda w: np.exp(p * np.log(w)), batch)
            assert got.shape == want.shape and _same_bits(got, want)

    @pytest.mark.parametrize("z", _ROW_BATCHES)
    def test_log(self, z):
        got = self._ev(dc.Log, dc.Log(dc.Coord(0)), z)
        with np.errstate(all="ignore"):
            want = _parent_masked(_parent_nonpositive(z), np.log, z)
        assert _same_bits(got, want)

    @pytest.mark.parametrize("b", _ROW_BATCHES)
    def test_div(self, b):
        for a in (np.linspace(-1.0, 2.0, b.size).astype(b.dtype), np.full(b.size, np.nan, dtype=b.dtype)):
            got = self._ev(dc.Div, dc.Div(dc.Coord(0), dc.Coord(0)), a, b)
            with np.errstate(all="ignore"):
                want = _parent_masked(b == 0, lambda d: a / d, b)
            assert _same_bits(got, want)

    def test_real_batches_test_only_the_sign(self):
        # a real batch's nonpositive points are exactly z <= 0: -0.0 too, NaN not
        z = np.array(_REAL_BATCHES["zeros and negatives"] + _REAL_BATCHES["nan"])
        np.testing.assert_array_equal(repfn._nonpositive(z), _parent_nonpositive(z))
        np.testing.assert_array_equal(repfn._nonpositive(z), z <= 0.0)

    def test_a_single_root_is_a_column_of_its_own_walk(self):
        f = dc.from_prefix("(repfn 2 (sub (sub (pow 0.5 (add (const 1) (x 0))) (const 1)) "
                           "(log (add (const 1) (x 1)))))")
        X = np.array([[0.2, -0.5], [-1.5, 0.1], [0.0, -1.0]])
        for points in (X, X + 0j):
            out = f.eval_batch(points)
            assert out.shape == (3, 1) and out.dtype == points.dtype
            np.testing.assert_array_equal(_isnan(out), [[False], [True], [True]])
            want = np.sqrt(1.2) - 1.0 - np.log(0.5)
            assert out[0, 0] == pytest.approx(want, rel=1e-15)


@pytest.mark.parametrize(
    "f",
    [
        dc.rep_identity(3),
        # mc_reweighted's tree: xi's outputs, then eta's
        dc.RepFn(1, dc.rep_exp_affine(0.5).outputs + dc.rep_exp_utility(1.2).outputs),
        dc.RepFn(1, dc.rep_exp_affine(0.5 + 0.3j).outputs + dc.rep_exp_utility(1.2).outputs),
        dc.girsanov_adjust(dc.rep_identity(2), dc.RepFn(2, (dc.Coord(0) * dc.Coord(1),))),
        _rep_exp_utility_slope(1.4),
    ],
    ids=["identity", "reweighted", "reweighted_complex", "girsanov", "utility_slope"],
)
def test_several_roots_without_a_parameter_axis_fill_one_array(f):
    rng = np.random.default_rng(3)
    X = rng.uniform(-1.5, 2.0, (7, f.input_dim))
    X[2] = np.nan  # NaN propagates into every column
    for points in (X, X + 0j, X + 0.25j):
        out = f.eval_batch(points)
        real = points.dtype.kind == "f" and f._real
        assert out.shape == (7, len(f.outputs)) and f._width == 0
        assert out.dtype == (np.float64 if real else np.complex128)
        for k, root in enumerate(f.outputs):
            # a real root of a complex tree in the tree's complex arithmetic
            one = dc.RepFn(f.input_dim, (root,)).eval_batch(points.astype(out.dtype))
            assert _same_bits(out[:, k:k + 1], one)


def _filled_const(n, X):
    """The Const row as an N-length fill, (N, 1) on the parameter axis."""
    return np.full(X.shape[0::2], repfn._like(n.value, X), dtype=X.dtype)


class TestConstRows:
    """A Const row evaluates to a 0-d value, which each batch's arithmetic
    broadcasts: every tree keeps the bits and the shape it has when each
    Const row fills an N-length array, constant-only subtrees under every
    unary row and constant roots included."""

    @pytest.mark.parametrize("text", [
        "(repfn 1 (sub (exp (mul (const 0.5) (x 0))) (const 1)))",
        "(repfn 2 (sub (mul (pow 0.7 (add (const 1) (x 0))) (pow -1.2 (add (const 1) (x 1)))) (const 1)))",
        "(repfn 1 (mul (x 0) (neg (const 2.5))))",
        "(repfn 1 (mul (x 0) (exp (const 0.5))) (mul (x 0) (exp (const 0.5+1i))))",
        "(repfn 1 (mul (x 0) (log (const 3))) (mul (x 0) (log (const -2+0.5i))))",
        "(repfn 1 (mul (x 0) (pow 1.5 (const 3))) (mul (x 0) (pow 0.5 (const -4+1i))))",
        "(repfn 1 (mul (x 0) (ind abs_le 1.0 (const 0.5))) (mul (x 0) (ind ne 2.0 (const 3+1i))))",
        "(repfn 1 (mul (x 0) (div (mul (exp (const 0.5+1i)) (exp (const -1+2i))) (const 1e-300))))",
        "(repfn 1 (sub (const 1) (const 1)))",
        "(repfn 2 (sub (const 1) (const 1)) (x 1))",
        "(repfn 1 (mul (param 0.5 1 2+1i) (sub (exp (x 0)) (const 1))))",
        "(repfn 1 (mul (x 0) (exp (mul (param 0.5 -1) (const 2)))) (sub (const 2) (const 2)))",
    ])
    def test_each_tree_evaluates_as_with_filled_constants(self, text, monkeypatch):
        f = dc.from_prefix(text)
        monkeypatch.setitem(_OPS, dc.Const, _OPS[dc.Const]._replace(ev=_filled_const))
        filled = dc.from_prefix(text)
        X = np.random.default_rng(11).uniform(-1.5, 2.0, (9, f.input_dim))
        X[3] = 0.0
        for points in (X, X + 0j, X + 0.25j, X[:1], X[:0]):
            got, want = f.eval_batch(points), filled.eval_batch(points)
            assert got.shape == want.shape == (len(points), f.output_dim)
            assert _same_bits(got, want)

    def test_a_constant_root_is_a_fresh_column(self):
        f = dc.from_prefix("(repfn 1 (const 0))")
        for n in (1, 4):
            out = f.eval_batch(np.zeros((n, 1)))
            assert out.shape == (n, 1) and out.flags.writeable and not out.any()
