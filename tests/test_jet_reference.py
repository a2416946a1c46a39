"""The construction-time jet pass against a reference.

The reference below is the jet pass as it was when every tree took it in
numpy arrays: one rule per node type, origin values as numpy or Python
scalars, gradients of shape (d,) and Hessians (d, d), or (K, 1, 1), (K, 1, d)
and (K, d, d) on a parameter axis.  Every tree a ``RepFn`` builds must carry
that jet byte for byte, NaN and signed zeros included, and every tree it
refuses must fail with the reference's class and message.
"""

import functools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import driftcalc as dc
from driftcalc.calculus import _rep_exp_utility_slope

from driftcalc.repfn import PRED_OPS

from conftest import _indicator, origin_value, random_composed_tree, raw_trees

_CNAN = complex(float("nan"), float("nan"))
ONE = dc.Const(1.0)


def _outer(a, b):
    if a.ndim == b.ndim == 1:
        return a[:, None] * b[None, :]
    return (a[:, None] if a.ndim == 1 else a.mT) * b


def _flat(dim, value):
    return (value, np.zeros(dim, dtype=np.complex128), np.zeros((dim, dim), dtype=np.complex128))


def _columnwise(rule, n, dim, *jets):
    def column(jet, k):
        v, g, h = jet
        return (v[k, 0, 0] if type(v) is np.ndarray else v, g[k, 0] if g.ndim == 3 else g,
                h[k] if h.ndim == 3 else h)

    K = next(len(v) for v, _g, _h in jets if type(v) is np.ndarray)
    v, g, h = zip(*[rule(n, dim, *[column(jet, k) for jet in jets]) for k in range(K)])
    return (np.array(v, dtype=np.complex128).reshape(K, 1, 1),
            np.array(g, dtype=np.complex128).reshape(K, 1, dim), np.array(h, dtype=np.complex128))


def _nonpositive(z):
    return (z.imag == 0.0) & (z.real <= 0.0)


def _coord(n, dim):
    if n.index >= dim:
        raise ValueError(f"coordinate index {n.index} out of range for input dimension {dim}")
    g = np.zeros(dim, dtype=np.complex128)
    g[n.index] = 1.0
    return (0j, g, np.zeros((dim, dim), dtype=np.complex128))


def _mul(n, dim, a, b):
    (va, ga, ha), (vb, gb, hb) = a, b
    return (np.multiply(va, vb), va * gb + vb * ga, va * hb + vb * ha + _outer(ga, gb) + _outer(gb, ga))


def _div(n, dim, a, b):
    (va, ga, ha), (vb, gb, hb) = a, b
    if type(vb) is np.ndarray:
        return _columnwise(_div, n, dim, a, b)
    if vb == 0:
        return _flat(dim, _CNAN)
    v = np.divide(va, vb)
    g = (ga - v * gb) / vb
    return (v, g, (ha - v * hb - _outer(g, gb) - _outer(gb, g)) / vb)


def _exp(n, dim, c):
    vc, gc, hc = c
    w = np.exp(vc)
    return (w, w * gc, w * (hc + _outer(gc, gc)))


def _log(n, dim, c):
    vc, gc, hc = c
    if type(vc) is np.ndarray:
        return _columnwise(_log, n, dim, c)
    if _nonpositive(vc):
        return _flat(dim, _CNAN)
    return (np.log(vc), gc / vc, hc / vc - _outer(gc, gc) / (vc * vc))


def _pow(n, dim, c):
    vc, gc, hc = c
    if type(vc) is np.ndarray:
        return _columnwise(_pow, n, dim, c)
    if _nonpositive(vc):
        return _flat(dim, _CNAN)
    p = n.exponent
    w = np.exp(np.multiply(p, np.log(vc)))
    return (w, p * w / vc * gc, p * w / vc * hc + p * (p - 1) * w / (vc * vc) * _outer(gc, gc))


def _ind(n, dim, c):
    z0 = c[0]
    if type(z0) is np.ndarray:
        return _columnwise(_ind, n, dim, c)
    if (z0 if n.op in ("eq", "ne") else np.abs(z0)) == n.threshold:
        raise ValueError("indicator predicate is discontinuous at the origin "
                         f"(child value {np.complex128(z0)}, {n.op} {n.threshold})")
    z = np.asarray([z0])
    return _flat(dim, np.where(np.isnan(z.real) | np.isnan(z.imag), _CNAN, n.test(z).astype(z.dtype))[0])


RULES = {
    dc.Coord: _coord,
    dc.Const: lambda n, dim: _flat(dim, n.value),
    dc.Param: lambda n, dim: _flat(dim, n._array.reshape(-1, 1, 1)),
    dc.Add: lambda n, dim, a, b: (a[0] + b[0], a[1] + b[1], a[2] + b[2]),
    dc.Sub: lambda n, dim, a, b: (a[0] - b[0], a[1] - b[1], a[2] - b[2]),
    dc.Mul: _mul,
    dc.Div: _div,
    dc.Neg: lambda n, dim, a: (-a[0], -a[1], -a[2]),
    dc.Exp: _exp,
    dc.Log: _log,
    dc.PowConst: _pow,
    dc.Indicator: _ind,
}
CHILDREN = {dc.Add: ("left", "right"), dc.Sub: ("left", "right"), dc.Mul: ("left", "right"),
            dc.Div: ("left", "right"), dc.Neg: ("child",), dc.Exp: ("child",), dc.Log: ("child",),
            dc.PowConst: ("child",), dc.Indicator: ("child",)}


def reference_jet(dim, roots):
    """(value, Jacobian, Hessian) of the roots at the origin, or the
    construction error, by the reference rules in post order, each shared
    node once."""
    seen, widths = {}, set()

    def walk(node):
        # recursive post order, children left to right, as the tape records
        if id(node) not in seen:
            kids = [walk(getattr(node, f)) for f in CHILDREN.get(type(node), ())]
            if type(node) is dc.Param:
                widths.add(len(node.values))
            seen[id(node)] = (node, kids)
        return id(node)

    order = []
    for r in roots:
        before = set(seen)
        walk(r)
        order.extend(k for k in seen if k not in before)
    if len(widths) > 1:
        raise ValueError(f"the parameter leaves of one tree must share K, got K in {sorted(widths)}")
    jets = {}
    with np.errstate(all="ignore"):
        for key in order:
            node, kids = seen[key]
            jets[key] = RULES[type(node)](node, dim, *[jets[k] for k in kids])
    K = widths.pop() if widths else 0
    n = len(roots) * (K or 1)
    value, jac, hess = blocks = [np.zeros(s, dtype=np.complex128) for s in ((n,), (n, dim), (n, dim, dim))]
    if K:
        blocks = (value.reshape(-1, K, 1, 1), jac.reshape(-1, K, 1, dim), hess.reshape(-1, K, dim, dim))
    for k, r in enumerate(roots):
        blocks[0][k], blocks[1][k], blocks[2][k] = jets[id(r)]
    if np.count_nonzero(value):
        k = np.flatnonzero(value)[0]
        if np.isnan(value[k].real) or np.isnan(value[k].imag):
            raise ValueError(f"output {k} is undefined at the origin")
        raise ValueError(f"output {k} evaluates to {value[k]} at the origin; must be exactly 0")
    return value, jac, hess


def assert_jet_is_the_reference(dim, roots):
    """A RepFn of the roots has the reference jet byte for byte, or fails as
    the reference does; True if it was built."""
    try:
        want = reference_jet(dim, roots)
    except ValueError as exc:
        with pytest.raises(type(exc)) as info:
            dc.RepFn(dim, tuple(roots))
        assert str(info.value) == str(exc)
        return False
    jet = dc.RepFn(dim, tuple(roots)).jet_at_zero()
    for got, ref in zip((jet.value, jet.jacobian, jet.hessian), want):
        assert (got.dtype, got.shape) == (ref.dtype, ref.shape)
        assert got.tobytes() == ref.tobytes()
    return True


def _vanishing(root, dim):
    """root minus its origin value where that value is finite, else root."""
    z = origin_value(root, dim)
    return root - dc.Const(z) if z is not None and np.isfinite(z.real) and np.isfinite(z.imag) else root


@settings(max_examples=150, deadline=None)
@given(st.integers(0, 100_000), st.sampled_from([None, 0.7, -1.3 + 0.4j, 2j]))
def test_composed_trees_carry_the_reference_jet(seed, factor):
    # 1- to 3-d real trees, each also times a real or complex literal
    f = random_composed_tree(np.random.default_rng(seed))
    roots = f.outputs if factor is None else tuple(dc.Mul(dc.Const(factor), r) for r in f.outputs)
    assert assert_jet_is_the_reference(f.input_dim, roots)


@settings(max_examples=100, deadline=None)
@given(st.integers(0, 100_000), st.lists(st.one_of(
    st.floats(-2.0, 2.0), st.complex_numbers(max_magnitude=2.0, allow_nan=False, allow_infinity=False)),
    min_size=1, max_size=4))
def test_parameter_axis_trees_carry_the_reference_jet(seed, values):
    f = random_composed_tree(np.random.default_rng(seed))
    roots = tuple(dc.Mul(dc.Param(values), r) for r in f.outputs)
    assert assert_jet_is_the_reference(f.input_dim, roots)


#: real constants: signed zeros, units, exact and rounded moderate values,
#: and values whose products, quotients, exponentials and logs are extreme
REAL_CONSTANTS = st.one_of(
    st.sampled_from([0.0, -0.0, 1.0, -1.0, 2.0, 0.5, 1e-300, 1e300, 1e308, -1e308, np.inf, -np.inf,
                     709.5, -745.0, 1e-320]),
    st.floats(-4.0, 4.0, allow_nan=False),
    st.floats(-800.0, 800.0, allow_nan=False),
)


@functools.lru_cache(maxsize=None)
def real_raw_trees(dim: int):
    """Unvalidated scalar trees of real literals on R^dim, as ``raw_trees``
    draws them with complex ones."""
    leaves = st.one_of(st.integers(0, dim).map(dc.Coord), REAL_CONSTANTS.map(dc.Const))

    def extend(kids):
        return st.one_of(
            st.builds(lambda cls, a, b: cls(a, b), st.sampled_from([dc.Add, dc.Sub, dc.Mul, dc.Div]),
                      kids, kids),
            st.builds(lambda cls, a: cls(a), st.sampled_from([dc.Neg, dc.Exp, dc.Log]), kids),
            st.builds(dc.PowConst, REAL_CONSTANTS, kids),
            st.builds(_indicator, st.sampled_from(PRED_OPS), st.sampled_from([0.5, 1.0, 2.0]),
                      st.booleans(), kids, st.just(dim)),
        )

    return st.recursive(leaves, extend, max_leaves=10)


@settings(max_examples=600, deadline=None)
@given(st.data())
def test_raw_trees_carry_the_reference_jet_or_its_error(data):
    # real, extreme, infinite and complex constants, coordinates out of
    # range and indicators on their level; most of them on R^1, where a
    # real tree's jet is taken in Python numbers
    dim = data.draw(st.sampled_from([1, 1, 1, 2]))
    trees = data.draw(st.sampled_from([raw_trees, real_raw_trees, real_raw_trees]))(dim)
    roots = data.draw(st.lists(trees, min_size=1, max_size=3))
    wrap = data.draw(st.lists(st.integers(0, 2), min_size=len(roots), max_size=len(roots)))
    roots = [r if w == 0 else dc.Mul(dc.Coord(0), r) if w == 1 else _vanishing(r, dim)
             for r, w in zip(roots, wrap)]
    assert_jet_is_the_reference(dim, roots)


@settings(max_examples=400, deadline=None)
@given(real_raw_trees(1), real_raw_trees(1), real_raw_trees(1))
def test_real_jets_on_the_line_carry_the_reference_jet(a, b, c):
    # x a + x^2 b + (c - c(0)): the values of a and b at the origin, and
    # c's own derivatives, land in the jet of a tree that vanishes there
    x = dc.Coord(0)
    assert_jet_is_the_reference(1, (x * a + x * x * b + _vanishing(c, 1), _vanishing(a / b, 1)))


@pytest.mark.parametrize("lam", [0.0, -0.5, 1e-3, 1.3, 8.0, 800.0, np.linspace(0.0, 8.0, 17)])
def test_utility_slope_trees_carry_the_reference_jet(lam):
    f = _rep_exp_utility_slope(lam)
    assert assert_jet_is_the_reference(1, f.outputs)


@pytest.mark.parametrize("roots, dim, message", [
    ((dc.Coord(1),), 1, "coordinate index 1 out of range for input dimension 1"),
    ((dc.Exp(dc.Coord(0)) - ONE, dc.Coord(2)), 2, "coordinate index 2 out of range for input dimension 2"),
    ((dc.Mul(dc.Coord(0), dc.Indicator("abs_le", 1.0, ONE + dc.Coord(0))),), 1,
     "indicator predicate is discontinuous at the origin (child value (1+0j), abs_le 1.0)"),
    ((dc.Mul(dc.Coord(0), dc.Indicator("eq", -2.0, dc.Const(-2.0))),), 1,
     "indicator predicate is discontinuous at the origin (child value (-2+0j), eq -2.0)"),
    ((dc.Mul(dc.Param([0.5, 1.0]) * dc.Coord(0), dc.Indicator("abs_gt", 1.0, dc.Param([2.0, 1.0]))),), 1,
     "indicator predicate is discontinuous at the origin (child value (1+0j), abs_gt 1.0)"),
    # the first error along the tape, a complex literal before it
    ((dc.Mul(dc.Coord(0), dc.Indicator("abs_le", 1.0, dc.Const(1j))), dc.Coord(1)), 1,
     "indicator predicate is discontinuous at the origin (child value 1j, abs_le 1.0)"),
    ((dc.Exp(dc.Coord(0)),), 1, "output 0 evaluates to (1+0j) at the origin; must be exactly 0"),
    ((dc.Coord(0), dc.Const(2j)), 1, "output 1 evaluates to 2j at the origin; must be exactly 0"),
    ((dc.Log(dc.Coord(0)),), 1, "output 0 is undefined at the origin"),
    ((dc.Div(dc.Coord(0), dc.Coord(0)),), 1, "output 0 is undefined at the origin"),
    ((dc.Mul(dc.Coord(0), dc.Exp(dc.Const(1000.0))),), 1, "output 0 is undefined at the origin"),
    ((dc.Coord(0) * dc.Param([1.0, 2.0]) - dc.Param([0.0, 3.0]),), 1,
     "output 1 evaluates to (-3+0j) at the origin; must be exactly 0"),
    ((dc.Coord(0) * dc.Param([1.0, 2.0]) + dc.Coord(0) * dc.Param([1.0, 2.0, 3.0]),), 1,
     "the parameter leaves of one tree must share K, got K in [2, 3]"),
])
def test_construction_errors_keep_their_class_and_message(roots, dim, message):
    with pytest.raises(ValueError) as info:
        dc.RepFn(dim, roots)
    assert str(info.value) == message
    assert not assert_jet_is_the_reference(dim, roots)


@pytest.mark.parametrize("roots", [
    # non-finite jets of accepted real trees on R^1: the array pass's bits
    (dc.Mul(dc.Const(1e200), dc.Mul(dc.Coord(0), dc.Const(1e200))),),
    (dc.Mul(dc.Coord(0), dc.Coord(0)) * dc.Const(1e300) * dc.Const(1e300),),
    (dc.Div(dc.Mul(dc.Coord(0), dc.Coord(0)), dc.Const(1e-308)),),
    (dc.Mul(dc.Coord(0), dc.Log(dc.Const(1e-320))),),
    (dc.Mul(dc.Coord(0), dc.Indicator("abs_le", 1.0, dc.Exp(dc.Const(1000.0)))),),
    (dc.PowConst(2.0, ONE + dc.Coord(0) * dc.Const(1e300)) - ONE,),
    # signed zeros: negations and products of negative values
    (dc.Neg(dc.Coord(0)) * dc.Const(-0.0), dc.Neg(dc.Neg(dc.Coord(0)) * dc.Const(-2.0))),
    (dc.Div(dc.Neg(dc.Coord(0)), dc.Const(-3.0) - dc.Coord(0)),),
    (dc.Log(ONE - dc.Coord(0)) * dc.Const(complex(1.0, -0.0)),),
])
def test_edge_trees_carry_the_reference_jet(roots):
    assert assert_jet_is_the_reference(1, roots)
