"""Expression trees for deterministic functions acting on process increments.

A representing function maps increment vectors in C^d to C^n and vanishes at
the origin.  Trees are built from a closed node set (coordinates, complex
constants, parameter lists, field operations, exp/log, constant powers, and
indicator factors) so that first and second derivatives at the origin are exact: they are
obtained by second-order forward-mode Taylor propagation, never by symbolic
rewriting or numerical differencing.  That propagation runs once, when a
RepFn is built; it validates the tree at the origin and its jet is kept.

Evaluation and the jet follow an explicit NaN convention: any point where a
subexpression is undefined (division by zero, log or constant power of a
nonpositive real) yields complex NaN, or real NaN when a real tree is
evaluated at real points, and NaN propagates through every node, indicators
included.  Powers use the principal branch via exp(v*log(base)).

A parameter list (a Param leaf) holds K values of one literal; a tree holding
one computes each output at each value, as K columns, in one pass.

Evaluation takes its arithmetic from its input: a tree whose literals are all
real (a real tree) is evaluated at real points, such as the nodes of jump
integrals and Monte Carlo draws, in float64; every other input in complex128.

All values are immutable after construction; evaluation and differentiation
are pure and safe to call concurrently.
"""

from __future__ import annotations

import cmath
import functools
import numbers
import operator
from collections import namedtuple
from dataclasses import dataclass
from typing import Callable, NamedTuple

import numpy as np

_CNAN = complex(float("nan"), float("nan"))
_ZERO = np.array(0.0)

#: predicate operators accepted by Indicator nodes
PRED_OPS = ("eq", "ne", "abs_le", "abs_gt")

#: deepest parenthesis nesting from_prefix accepts, (repfn ...) included;
#: parsing and tree building recurse once per level
MAX_PREFIX_NESTING = 256


def _isnan(z):
    z = np.asarray(z)
    return np.isnan(z.real) | np.isnan(z.imag)


def _nonreal(z) -> bool:
    """True if some entry of an array, or a complex number, has an imaginary
    part above 1e-9 (1 + |real part|)."""
    # Plain abs serves both; a scalar stays off numpy, whose per-call cost
    # is felt in the optimiser's hundred-odd scalar checks.
    excess = abs(z.imag) > 1e-9 * (1.0 + abs(z.real))
    return bool(excess.any()) if isinstance(excess, np.ndarray) else bool(excess)


def _as_node(value) -> "Node":
    """A node as it is, or a Python value wrapped by the leaf whose row
    wraps its type (a number becomes a constant)."""
    if type(value) in _OPS:
        return value
    for cls, op in _OPS.items():
        if isinstance(value, op.wraps):
            return cls(value)
    raise TypeError(f"cannot convert {type(value).__name__} to an expression node")


class Node:
    """Base class for expression nodes; supports arithmetic sugar."""

    __slots__ = ()

    def __add__(self, other):
        return Add(self, _as_node(other))

    def __radd__(self, other):
        return Add(_as_node(other), self)

    def __sub__(self, other):
        return Sub(self, _as_node(other))

    def __rsub__(self, other):
        return Sub(_as_node(other), self)

    def __mul__(self, other):
        return Mul(self, _as_node(other))

    def __rmul__(self, other):
        return Mul(_as_node(other), self)

    def __truediv__(self, other):
        return Div(self, _as_node(other))

    def __rtruediv__(self, other):
        return Div(_as_node(other), self)

    def __neg__(self):
        return Neg(self)

    # Evaluation, jets and serialisation of each subclass live in its row of
    # the op table below, walked along each RepFn's tape so shared subtrees
    # are visited once.


@dataclass(frozen=True)
class Coord(Node):
    """Input coordinate x_i (0-based index)."""

    index: int

    def __post_init__(self):
        if not isinstance(self.index, int) or self.index < 0:
            raise ValueError(f"coordinate index must be a nonnegative integer, got {self.index!r}")


@dataclass(frozen=True)
class Const(Node):
    value: complex

    def __post_init__(self):
        object.__setattr__(self, "value", complex(self.value))
        if cmath.isnan(self.value):
            raise ValueError("NaN constants are not allowed")
        # its row's value in a real and in a complex batch: 0-d float64 (the
        # real part) and complex128 arrays, the operands numpy would make of
        # the Python number on every call; no row writes to its operands
        object.__setattr__(self, "_rows", (np.array(self.value.real), np.array(self.value)))


@dataclass(frozen=True)
class Param(Node):
    """A literal spanning the parameter axis: K values, one per column.

    A tree holding Params has K columns per output, one per value, and every
    Param in one tree holds the same K.  ``values`` is kept as a tuple of
    complex numbers; the rows read it as a read-only complex array.
    """

    values: tuple

    def __post_init__(self):
        array = np.array(self.values, dtype=np.complex128)
        if array.ndim != 1 or not array.size:
            raise ValueError(f"parameter values must be a nonempty 1-d array, got shape {array.shape}")
        if np.isnan(array).any():
            raise ValueError("NaN parameter values are not allowed")
        array.setflags(write=False)
        object.__setattr__(self, "values", tuple(array.tolist()))
        object.__setattr__(self, "_array", array)
        # the jet's shape for a value: K along the leading axis
        object.__setattr__(self, "_column", array.reshape(-1, 1, 1))


@dataclass(frozen=True)
class Add(Node):
    left: Node
    right: Node


@dataclass(frozen=True)
class Sub(Node):
    left: Node
    right: Node


@dataclass(frozen=True)
class Mul(Node):
    left: Node
    right: Node


@dataclass(frozen=True)
class Div(Node):
    left: Node
    right: Node


@dataclass(frozen=True)
class Neg(Node):
    child: Node


@dataclass(frozen=True)
class Exp(Node):
    child: Node


@dataclass(frozen=True)
class Log(Node):
    child: Node


@dataclass(frozen=True)
class PowConst(Node):
    """Principal-branch power base**exponent with a constant exponent."""

    exponent: complex
    child: Node

    def __post_init__(self):
        object.__setattr__(self, "exponent", complex(self.exponent))
        if cmath.isnan(self.exponent):
            raise ValueError("NaN exponents are not allowed")
        # the exponent as Const holds its value
        object.__setattr__(self, "_rows", (np.array(self.exponent.real), np.array(self.exponent)))


@dataclass(frozen=True)
class Indicator(Node):
    """Indicator factor 1{pred(child)} with value in {0, 1}, NaN-propagating.

    The predicate compares the child's value with a real constant:
    ``eq``/``ne`` require the constant to be nonzero, ``abs_le``/``abs_gt``
    require it to be positive, which makes the indicator constant on a
    neighbourhood of the origin whenever the child vanishes there.
    """

    op: str
    threshold: float
    child: Node

    def __post_init__(self):
        if self.op not in PRED_OPS:
            raise ValueError(f"unknown predicate {self.op!r}; expected one of {PRED_OPS}")
        thr = float(self.threshold)
        object.__setattr__(self, "threshold", thr)
        if not np.isfinite(thr):
            raise ValueError("predicate threshold must be finite")
        if self.op in ("eq", "ne") and thr == 0.0:
            raise ValueError("equality predicates must compare against a nonzero level")
        if self.op in ("abs_le", "abs_gt") and thr <= 0.0:
            raise ValueError("radius predicates require a positive radius")

    def test(self, values: np.ndarray) -> np.ndarray:
        """Apply the predicate elementwise; result is boolean."""
        if self.op == "eq":
            return (values.real == self.threshold) & (values.imag == 0.0)
        if self.op == "ne":
            return ~((values.real == self.threshold) & (values.imag == 0.0))
        if self.op == "abs_le":
            return np.abs(values) <= self.threshold
        return np.abs(values) > self.threshold


def format_complex(z) -> str:
    """Render a complex number as 'a', 'bi', or 'a+bi' at full precision."""
    z = complex(z)
    if z.imag == 0.0:
        return repr(z.real)
    if z.real == 0.0:
        return repr(z.imag) + "i"
    sign = "+" if z.imag >= 0 else "-"
    return f"{z.real!r}{sign}{abs(z.imag)!r}i"


def parse_complex(text: str) -> complex:
    """Parse 'a', 'bi', or 'a+bi' (also accepts Python's 'j' suffix)."""
    s = str(text).strip().replace(" ", "")
    if not s:
        raise ValueError("empty complex literal")
    if s.endswith("i"):
        s = s[:-1] + "j"
    try:
        return complex(s)
    except ValueError as exc:
        raise ValueError(f"malformed complex literal {text!r}") from exc


# ---------------------------------------------------------------------------
# the op table: one row per node type
# ---------------------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class Jet2:
    """Value, Jacobian, and Hessian of a representing function at the origin.

    ``value`` has shape (n,), ``jacobian`` (n, d), ``hessian`` (n, d, d) with
    the Hessian symmetric in its trailing index pair.
    """

    value: np.ndarray
    jacobian: np.ndarray
    hessian: np.ndarray


def _rebuild(node, inner, *children):
    """The node over new children, or the node itself for a leaf."""
    if not children:
        return node
    literals = [getattr(node, field) for field, _fmt, _parse in _OPS[type(node)].literals]
    return type(node)(*literals, *children)


class _Op(NamedTuple):
    """Everything the engine knows about one node type.

    ``literals`` lists (field, format, parse) for the non-node fields and
    ``children`` the node fields, both in constructor (and prefix operand)
    order.  ``ev(node, X, *child_values)`` maps a batch X of shape (N, d) to
    (N,) values of X's dtype, or to one 0-d value where only constants are
    below the node; ``jet(node, arith, *child_jets)`` propagates (value,
    gradient, Hessian) at x = 0 by second-order forward mode in ``_Arith``.
    ``subst(node, inner, *new_children)`` rebuilds the node for
    :func:`compose`, ``inner`` being the trees its coordinates stand for.
    ``wraps`` names the Python types the operator sugar turns into this
    leaf.  An ``axis`` row spans the parameter axis: its one literal is a
    list of K values, one prefix operand each.

    On a tree with a parameter axis every value carries it: ``ev`` values
    broadcast to (N, K), X being passed as (N, d, 1), and a jet is a value of
    shape (K, 1, 1), a gradient (K, 1, d) and a Hessian (K, d, d), each
    broadcasting from the plain shapes of a part off the axis.
    """

    token: str
    literals: tuple
    children: tuple
    ev: Callable
    jet: Callable
    subst: Callable = _rebuild
    wraps: tuple = ()
    axis: bool = False


def _like(value: complex, z: np.ndarray):
    """A complex literal in the arithmetic of z: its real part when z is real."""
    return value if z.dtype.kind == "c" else value.real


def _guarded(bad, fn, z):
    """fn(z) with the points flagged ``bad`` sent to NaN instead of evaluated."""
    # where none is flagged, fn(z) itself, without the two masking passes
    if not np.count_nonzero(bad):
        return fn(z)
    out = fn(np.where(bad, 1.0, z))
    return np.where(bad, _like(_CNAN, out), out)


def _nonpositive(z):
    # a real array has no imaginary part to test; its zero is a 0-d array,
    # as a Const row's value is, which numpy need not make of a Python 0.0
    real = type(z) is np.ndarray and z.dtype.kind == "f"
    return z <= _ZERO if real else (z.imag == 0.0) & (z.real <= 0.0)


# The arithmetic of one jet pass: the input dimension d, the product and
# quotient of two origin values, the quotient of a derivative by one, exp,
# log, the outer product of two gradients, a read-only zero gradient and
# Hessian, and the gradients of the coordinates, indexed by coordinate.
_Arith = namedtuple("_Arith", "dim mul quot div exp log outer zeros units")


@functools.lru_cache(maxsize=None)
def _arrays(dim: int) -> _Arith:
    """numpy's arithmetic on gradients of shape (d,) and Hessians (d, d)."""
    zeros = (np.zeros(dim, dtype=np.complex128), np.zeros((dim, dim), dtype=np.complex128))
    units = np.eye(dim, dtype=np.complex128)
    for a in (*zeros, units):
        a.setflags(write=False)
    return _Arith(dim, np.multiply, np.divide, operator.truediv, np.exp, np.log, _outer, zeros, units)


def _quot(p, q):
    # p / q rounded as numpy divides complex numbers where |q.real| >=
    # |q.imag|, as for a real q: by (q.real + q.imag rat)^-1
    rat = q.imag / q.real
    scl = 1.0 / (q.real + q.imag * rat)
    return complex((p.real + p.imag * rat) * scl, (p.imag - p.real * rat) * scl)


# The jet pass of a real tree on R^1 without a parameter axis, in Python
# complex numbers: where every imaginary part is a signed zero, their
# product rounds as numpy's and _quot as numpy's quotient; exp and log stay
# numpy's.  A division by zero raises: the tree then takes the array pass.
_SCALARS = _Arith(1, operator.mul, _quot, _quot, lambda z: complex(np.exp(z)),
                  lambda z: complex(np.log(z)), operator.mul, (0j, 0j), (1 + 0j,))


def _flat(k: _Arith, value) -> tuple:
    return (value, *k.zeros)


def _outer(a, b):
    # a as a column times b as a row, for gradients of shape (d,) or
    # (K, 1, d): np.outer's own multiply, without its argument handling,
    # which costs more than the product on these length-d vectors
    if a.ndim == b.ndim == 1:
        return a[:, None] * b[None, :]
    return (a[:, None] if a.ndim == 1 else a.mT) * b


def _column(jet, k):
    """Column k of a jet on the parameter axis; a part off the axis as is."""
    v, g, h = jet
    return (
        v[k, 0, 0] if type(v) is np.ndarray else v,
        g[k, 0] if g.ndim == 3 else g,
        h[k] if h.ndim == 3 else h,
    )


def _columnwise(rule, n, k, *jets):
    """A jet rule that branches on an origin value, applied one column at a
    time where that value spans the parameter axis: each column takes the
    branch and the arithmetic of a tree holding that column's constants."""
    K, dim = next(len(v) for v, _g, _h in jets if type(v) is np.ndarray), k.dim
    v, g, h = zip(*[rule(n, k, *[_column(jet, j) for jet in jets]) for j in range(K)])
    return (
        np.array(v, dtype=np.complex128).reshape(K, 1, 1),
        np.array(g, dtype=np.complex128).reshape(K, 1, dim),
        np.array(h, dtype=np.complex128),
    )


def _jet_coord(n, k):
    if n.index >= k.dim:
        raise ValueError(f"coordinate index {n.index} out of range for input dimension {k.dim}")
    return (0j, k.units[n.index], k.zeros[1])


# Origin values are scalars.  In the array pass their products and quotients
# go through numpy's ufuncs, which round as an evaluation at the origin does;
# Python's complex * and / round differently, and its ** raises on overflow.
# The scalar pass (_SCALARS), which only real trees take, keeps those bits.


def _jet_mul(n, k, a, b):
    (va, ga, ha), (vb, gb, hb) = a, b
    return (k.mul(va, vb), va * gb + vb * ga, va * hb + vb * ha + k.outer(ga, gb) + k.outer(gb, ga))


def _jet_div(n, k, a, b):
    (va, ga, ha), (vb, gb, hb) = a, b
    if type(vb) is np.ndarray:
        return _columnwise(_jet_div, n, k, a, b)
    if vb == 0:
        return _flat(k, _CNAN)
    v = k.quot(va, vb)
    g = k.div(ga - v * gb, vb)
    return (v, g, k.div(ha - v * hb - k.outer(g, gb) - k.outer(gb, g), vb))


def _jet_exp(n, k, c):
    vc, gc, hc = c
    w = k.exp(vc)
    return (w, w * gc, w * (hc + k.outer(gc, gc)))


def _jet_log(n, k, c):
    vc, gc, hc = c
    if type(vc) is np.ndarray:
        return _columnwise(_jet_log, n, k, c)
    if _nonpositive(vc):
        return _flat(k, _CNAN)
    return (k.log(vc), k.div(gc, vc), k.div(hc, vc) - k.div(k.outer(gc, gc), vc * vc))


def _jet_pow(n, k, c):
    vc, gc, hc = c
    if type(vc) is np.ndarray:
        return _columnwise(_jet_pow, n, k, c)
    if _nonpositive(vc):
        return _flat(k, _CNAN)
    p = n.exponent
    w = k.exp(k.mul(p, k.log(vc)))
    return (w, k.div(p * w, vc) * gc,
            k.div(p * w, vc) * hc + k.div(p * (p - 1) * w, vc * vc) * k.outer(gc, gc))


def _ev_pow(n, X, z):
    # Not through _guarded: a closure would keep the masked copy of z alive
    # through log and exp, which slows large batches.
    # Where no point is masked, the two masking passes are skipped.
    bad = _nonpositive(z)
    masked = np.count_nonzero(bad)
    out = np.exp(n._rows[z.dtype.kind == "c"] * np.log(np.where(bad, 1.0, z) if masked else z))
    return np.where(bad, _like(_CNAN, z), out) if masked else out


def _ev_indicator(n, X, z):
    return np.where(_isnan(z), _like(_CNAN, z), n.test(z).astype(z.dtype))


def _jet_indicator(n, k, c):
    # A predicate off its level is constant near the origin, so the indicator
    # is frozen at its origin value before differentiation; on its level it
    # is not, and the tree is rejected.
    z0 = c[0]
    if type(z0) is np.ndarray:
        return _columnwise(_jet_indicator, n, k, c)
    if (z0 if n.op in ("eq", "ne") else np.abs(z0)) == n.threshold:
        raise ValueError(
            "indicator predicate is discontinuous at the origin "
            f"(child value {np.complex128(z0)}, {n.op} {n.threshold})"
        )
    return _flat(k, _ev_indicator(n, None, np.asarray([z0]))[0])


_BINARY = ("left", "right")
_COMPLEX = (format_complex, parse_complex)


def _format_values(values) -> str:
    return " ".join([format_complex(z) for z in values])


#: the node set: class -> row
_OPS = {
    Coord: _Op(
        "x", (("index", repr, int),), (), lambda n, X: X[:, n.index].copy(), _jet_coord,
        subst=lambda n, inner: inner[n.index],
    ),
    Const: _Op(
        "const", (("value", *_COMPLEX),), (),
        # a 0-d array, which a batch's arithmetic broadcasts as it would an
        # N-length fill: the same operation runs on each element
        lambda n, X: n._rows[X.dtype.kind == "c"],
        lambda n, k: _flat(k, n.value),
        wraps=(numbers.Number,),
    ),
    Param: _Op(
        "param", (("values", _format_values, parse_complex),), (),
        lambda n, X: _like(n._array, X),
        lambda n, k: _flat(k, n._column),
        axis=True,
    ),
    Add: _Op(
        "add", (), _BINARY, lambda n, X, a, b: a + b,
        lambda n, k, a, b: (a[0] + b[0], a[1] + b[1], a[2] + b[2]),
    ),
    Sub: _Op(
        "sub", (), _BINARY, lambda n, X, a, b: a - b,
        lambda n, k, a, b: (a[0] - b[0], a[1] - b[1], a[2] - b[2]),
    ),
    # 0 * NaN stays NaN: numpy guarantees this for complex products.  The
    # ufunc, not *: a constant subtree's values are numpy scalars, and *
    # of two complex scalars rounds apart from the array loop.
    Mul: _Op("mul", (), _BINARY, lambda n, X, a, b: np.multiply(a, b), _jet_mul),
    Div: _Op("div", (), _BINARY, lambda n, X, a, b: _guarded(b == 0, lambda d: a / d, b), _jet_div),
    Neg: _Op("neg", (), ("child",), lambda n, X, a: -a, lambda n, k, a: (-a[0], -a[1], -a[2])),
    Exp: _Op("exp", (), ("child",), lambda n, X, z: np.exp(z), _jet_exp),
    Log: _Op("log", (), ("child",), lambda n, X, z: _guarded(_nonpositive(z), np.log, z), _jet_log),
    PowConst: _Op("pow", (("exponent", *_COMPLEX),), ("child",), _ev_pow, _jet_pow),
    Indicator: _Op(
        "ind", (("op", str, str), ("threshold", repr, float)), ("child",), _ev_indicator, _jet_indicator
    ),
}
_BY_TOKEN = {op.token: cls for cls, op in _OPS.items()}


def _record(root: Node, slots: dict, tape: list) -> int:
    """Append the unseen part of root's DAG to the post-order tape; return its slot.

    An explicit stack visits children left to right before their parent, so
    the tape order and the slot sharing are those of the plain recursion,
    without its depth limit.  A (row, node) pair on the stack marks a node
    whose children are recorded.
    """
    stack = [root]
    while stack:
        node = stack.pop()
        if type(node) is tuple:
            op, node = node
            # Spelled out per arity, as in RepFn._run: every node with one
            # child holds it as ``child``.
            if op.children is _BINARY:
                args = (slots[id(node.left)], slots[id(node.right)])
            else:
                args = (slots[id(node.child)],)
        elif id(node) in slots:
            continue
        else:
            op = _OPS.get(type(node))
            if op is None:
                raise TypeError(f"unknown node type {type(node).__name__}")
            if op.children:
                stack.append((op, node))
                stack += (node.right, node.left) if op.children is _BINARY else (node.child,)
                continue
            args = ()
        slots[id(node)] = len(tape)
        tape.append((op, node, args))
    return slots[id(root)]


# ---------------------------------------------------------------------------
# the public RepFn value
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class RepFn:
    """A deterministic representing function C^d -> C^n with f(0) = 0.

    ``outputs`` holds one scalar expression tree per output component.
    Construction records the DAG once as a post-order tape of (row, node,
    child slots), shared subtrees occupying one slot, which every later pass
    walks.  One jet pass along it then validates coordinate bounds, that no
    indicator predicate sits on its discontinuity at the origin, and that
    every output is exactly 0 there (a NaN value is reported as undefined);
    the resulting jet is kept for :meth:`jet_at_zero`.

    A tree whose leaves include :class:`Param` literals of K values has a
    parameter axis: its m output trees give n = m K columns, in (output,
    parameter) order, column k K + j being output k at the j-th values.
    """

    input_dim: int
    outputs: tuple

    def __post_init__(self):
        if not isinstance(self.input_dim, int) or self.input_dim < 1:
            raise ValueError("input_dim must be a positive integer")
        outputs = tuple(self.outputs)
        object.__setattr__(self, "outputs", outputs)
        if len(outputs) < 1:
            raise ValueError("a representing function needs at least one output")
        slots, tape = {}, []
        roots = tuple([_record(root, slots, tape) for root in outputs])
        # each complex literal field, with whether it holds the K values of a parameter leaf
        literals = [(op.axis, getattr(node, field)) for op, node, _args in tape
                    for field, _fmt, parse in op.literals if parse is parse_complex]
        widths = {len(v) for axis, v in literals if axis}
        if len(widths) > 1:
            raise ValueError(f"the parameter leaves of one tree must share K, got K in {sorted(widths)}")
        object.__setattr__(self, "_tape", tape)
        object.__setattr__(self, "_roots", roots)
        # K, or 0 without a parameter axis
        object.__setattr__(self, "_width", widths.pop() if widths else 0)
        # whether every literal is real: it picks the jet pass and a real batch's dtype
        object.__setattr__(self, "_real", not any([z.imag for axis, v in literals for z in (v if axis else (v,))]))
        d, K = self.input_dim, self._width or 1
        jets, n = None, len(roots) * K
        if d == 1 and not self._width and self._real:
            # see _SCALARS; a root's jet that is not finite takes the array
            # pass's bits, and a refused tree the array pass's error
            try:
                jets = self._run("jet", _SCALARS)
            except (ArithmeticError, ValueError):
                pass
        if jets is None or not all([cmath.isfinite(z) for s in roots for z in jets[s]]):
            jets = self._run("jet", _arrays(d))
        value, jac, hess = blocks = [np.zeros(s, dtype=np.complex128) for s in ((n,), (n, d), (n, d, d))]
        if self._width:
            # output k's K columns, in the jet's shapes; a root off the axis
            # broadcasts over them
            blocks = (value.reshape(-1, K, 1, 1), jac.reshape(-1, K, 1, d), hess.reshape(-1, K, d, d))
        for k, s in enumerate(roots):
            blocks[0][k], blocks[1][k], blocks[2][k] = jets[s]
        if np.count_nonzero(value):
            k = np.flatnonzero(value)[0]
            if _isnan(value[k]):
                raise ValueError(f"output {k} is undefined at the origin")
            raise ValueError(f"output {k} evaluates to {value[k]} at the origin; must be exactly 0")
        for a in (value, jac, hess):
            a.setflags(write=False)
        object.__setattr__(self, "_jet", Jet2(value=value, jacobian=jac, hessian=hess))

    def __reduce__(self):
        # The tape holds the table's rules, which do not pickle: rebuild it.
        return (RepFn, (self.input_dim, self.outputs))

    def _run(self, rule: str, x) -> list:
        """Apply one row rule ("ev" or "jet") along the tape; one value per slot."""
        vals: list = []
        i = _Op._fields.index(rule)
        # NaN is the result wherever a row is undefined, so no floating-point
        # event along the walk is an error.
        with np.errstate(all="ignore"):
            for op, node, args in self._tape:
                fn = op[i]
                # Spelled out per arity (at most 2): building an argument list
                # per node measurably slows the small trees built in bulk.
                if len(args) == 2:
                    vals.append(fn(node, x, vals[args[0]], vals[args[1]]))
                elif args:
                    vals.append(fn(node, x, vals[args[0]]))
                else:
                    vals.append(fn(node, x))
        return vals

    @property
    def output_dim(self) -> int:
        return len(self.outputs) * (self._width or 1)

    def eval_batch(self, X) -> np.ndarray:
        """Evaluate at a batch of points, shape (N, d) -> (N, n), float64 for a
        real tree at real points, else complex."""
        X = np.asarray(X)
        if X.ndim != 2 or X.shape[1] != self.input_dim:
            raise ValueError(f"expected a batch of shape (N, {self.input_dim}), got {X.shape}")
        real = X.dtype.kind in "biuf" and self._real
        X = X.astype(np.float64 if real else np.complex128, copy=False)
        N, m = X.shape[0], len(self._roots)
        vals = self._run("ev", X[:, :, None] if self._width else X)
        root = vals[self._roots[0]]
        if m == 1 and not self._width and root.shape == (N,):
            # a column view of the root's own array, not a copy
            return root[:, None]
        # a column per root, or a block of K with a root off the axis or a
        # constant root (a 0-d value) broadcast
        columns = np.empty((N, m, self._width) if self._width else (N, m), X.dtype)
        for k, s in enumerate(self._roots):
            columns[:, k] = vals[s]
        return columns.reshape(N, self.output_dim)

    def eval(self, x) -> np.ndarray:
        """Evaluate at a single point, shape (d,) -> (n,), typed as eval_batch."""
        x = np.asarray(x)
        if x.shape != (self.input_dim,):
            raise ValueError(f"expected a point of shape ({self.input_dim},), got {x.shape}")
        return self.eval_batch(x[None, :])[0]

    def __call__(self, x) -> np.ndarray:
        return self.eval(x)

    def jet_at_zero(self) -> Jet2:
        """Exact value/Jacobian/Hessian at the origin, read-only, computed
        once at construction by forward propagation."""
        return self._jet


def compose(psi: RepFn, xi: RepFn) -> RepFn:
    """Syntactic composition psi(xi): (d -> n) composed into (n -> m) gives d -> m.

    Coordinates of ``psi`` are substituted by the output trees of ``xi``;
    shared subtrees are preserved so the result evaluates each inner output
    once per point.
    """
    if xi._width > 1:
        raise ValueError("cannot substitute a function with a parameter axis for coordinates")
    if xi.output_dim != psi.input_dim:
        raise ValueError(
            f"dimension mismatch: inner function produces {xi.output_dim} outputs, "
            f"outer expects {psi.input_dim} inputs"
        )
    new: list = []
    for op, node, args in psi._tape:
        new.append(op.subst(node, xi.outputs, *[new[i] for i in args]))
    return RepFn(xi.input_dim, tuple([new[s] for s in psi._roots]))


# ---------------------------------------------------------------------------
# prefix-notation serialisation (grammar documented in the cli module)
# ---------------------------------------------------------------------------


def to_prefix(f: RepFn) -> str:
    """Serialise a RepFn to prefix notation: (repfn D EXPR...).

    Any tree serialises, but ``from_prefix(to_prefix(f))`` round-trips only
    trees whose text nests at most MAX_PREFIX_NESTING (256) levels deep,
    the outer ``(repfn ...)`` included; deeper text is rejected on reading.
    """
    texts: list = []
    for op, node, args in f._tape:
        fields = [fmt(getattr(node, field)) for field, fmt, _parse in op.literals]
        texts.append(f"({' '.join([op.token, *fields, *[texts[i] for i in args]])})")
    body = " ".join(texts[s] for s in f._roots)
    return f"(repfn {f.input_dim} {body})"


def _tokenize(text: str):
    return text.replace("(", " ( ").replace(")", " ) ").split()


def _parse_sexpr(tokens, pos, depth=1):
    if tokens[pos] != "(":
        return tokens[pos], pos + 1
    if depth > MAX_PREFIX_NESTING:
        raise ValueError(f"prefix expression nests deeper than {MAX_PREFIX_NESTING} levels")
    pos += 1
    items = []
    while pos < len(tokens) and tokens[pos] != ")":
        item, pos = _parse_sexpr(tokens, pos, depth + 1)
        items.append(item)
    if pos >= len(tokens):
        raise ValueError("unbalanced parentheses in prefix expression")
    return items, pos + 1


def _literal(item, parse):
    if isinstance(item, list):
        raise ValueError(f"expected a literal, got the expression {item!r}")
    return parse(item)


def from_prefix(text: str) -> RepFn:
    """Parse the prefix notation produced by :func:`to_prefix`."""
    tokens = _tokenize(text)
    if not tokens:
        raise ValueError("empty prefix expression")
    tree, pos = _parse_sexpr(tokens, 0)
    if pos != len(tokens):
        raise ValueError("trailing tokens after prefix expression")
    if not isinstance(tree, list) or not tree or tree[0] != "repfn":
        raise ValueError("prefix expression must start with (repfn D ...)")
    if len(tree) < 3:
        raise ValueError("(repfn ...) needs a dimension and at least one expression")
    dim = _literal(tree[1], int)

    def build(item) -> Node:
        if not isinstance(item, list) or not item:
            raise ValueError(f"malformed expression {item!r}")
        head, rest = item[0], item[1:]
        cls = _BY_TOKEN.get(head) if isinstance(head, str) else None
        if cls is None:
            raise ValueError(f"unknown operator {head!r}")
        op = _OPS[cls]
        if op.axis:  # one literal of one or more values, no children
            if not rest:
                raise ValueError(f"({head} ...) takes at least one operand")
            (_field, _fmt, parse), = op.literals
            return cls(tuple([_literal(t, parse) for t in rest]))
        arity = len(op.literals) + len(op.children)
        if len(rest) != arity:
            raise ValueError(f"({head} ...) takes {arity} operands, got {len(rest)}")
        lits = [_literal(t, parse) for (_field, _fmt, parse), t in zip(op.literals, rest)]
        return cls(*lits, *[build(t) for t in rest[len(lits):]])

    return RepFn(dim, tuple(build(item) for item in tree[2:]))
