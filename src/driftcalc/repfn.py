"""Expression trees for deterministic functions acting on process increments.

A representing function maps increment vectors in C^d to C^n and vanishes at
the origin.  Trees are built from a closed node set (coordinates, complex
constants, field operations, exp/log, constant powers, and indicator factors)
so that first and second derivatives at the origin are exact: they are
obtained by second-order forward-mode Taylor propagation, never by symbolic
rewriting or numerical differencing.

Evaluation follows an explicit NaN convention: any point where a
subexpression is undefined (division by zero, log or constant power of a
nonpositive real) yields complex NaN, and NaN propagates through every node,
indicators included.  Powers use the principal branch via exp(v*log(base)).

All values are immutable after construction; evaluation and differentiation
are pure and safe to call concurrently.
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass
from typing import Callable, NamedTuple

import numpy as np

from .errors import NanPointError

_CNAN = complex(float("nan"), float("nan"))

#: predicate operators accepted by Indicator nodes
PRED_OPS = ("eq", "ne", "abs_le", "abs_gt")

#: deepest parenthesis nesting from_prefix accepts, (repfn ...) included;
#: parsing and tree building recurse once per level
MAX_PREFIX_NESTING = 256


def _isnan(z):
    z = np.asarray(z)
    return np.isnan(z.real) | np.isnan(z.imag)


def _require_defined(vals: np.ndarray, points: np.ndarray, message: str):
    """Raise NanPointError at the first point whose row of ``vals`` holds a NaN.

    ``message`` reads "... is undefined at <kind>"; the point is appended.
    """
    bad = np.where(_isnan(vals).any(axis=1))[0]
    if bad.size:
        point = points[bad[0]]
        raise NanPointError(f"{message} {point.tolist()}", point=point)


def _nonreal(z) -> bool:
    """True if some entry of an array, or a complex number, has an imaginary
    part above 1e-9 (1 + |real part|)."""
    # Plain abs serves both; a scalar stays off numpy, whose per-call cost
    # is felt in the optimiser's hundred-odd scalar checks.
    excess = abs(z.imag) > 1e-9 * (1.0 + abs(z.real))
    return bool(excess.any()) if isinstance(excess, np.ndarray) else bool(excess)


def _as_node(value) -> "Node":
    if isinstance(value, Node):
        return value
    if isinstance(value, numbers.Number):
        return Const(complex(value))
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
        if _isnan(self.value):
            raise ValueError("NaN constants are not allowed")


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
        if _isnan(self.exponent):
            raise ValueError("NaN exponents are not allowed")


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


class _Op(NamedTuple):
    """Everything the engine knows about one node type.

    ``literals`` lists (field, format, parse) for the non-node fields and
    ``children`` the node fields, both in constructor (and prefix operand)
    order.  ``ev(node, X, *child_values)`` maps a batch X of shape (N, d) to
    (N,) complex; ``jet(node, d, *child_jets)`` propagates (value, gradient,
    Hessian) at x = 0 by second-order forward mode.
    """

    token: str
    literals: tuple
    children: tuple
    ev: Callable
    jet: Callable


def _guarded(bad, fn, z):
    """fn(z) with the points flagged ``bad`` sent to NaN instead of evaluated."""
    with np.errstate(all="ignore"):
        out = fn(np.where(bad, 1.0, z))
    return np.where(bad, _CNAN, out)


def _nonpositive(z):
    return (z.imag == 0.0) & (z.real <= 0.0)


def _flat(dim: int, value) -> tuple:
    return (value, np.zeros(dim, dtype=np.complex128), np.zeros((dim, dim), dtype=np.complex128))


def _jet_coord(n, dim):
    g = np.zeros(dim, dtype=np.complex128)
    g[n.index] = 1.0
    return (0j, g, np.zeros((dim, dim), dtype=np.complex128))


def _jet_mul(n, dim, a, b):
    (va, ga, ha), (vb, gb, hb) = a, b
    return (va * vb, va * gb + vb * ga, va * hb + vb * ha + np.outer(ga, gb) + np.outer(gb, ga))


def _jet_div(n, dim, a, b):
    (va, ga, ha), (vb, gb, hb) = a, b
    if vb == 0 or _isnan(vb):
        raise NanPointError("division by zero at the origin", point=0.0)
    v = va / vb
    g = (ga - v * gb) / vb
    return (v, g, (ha - v * hb - np.outer(g, gb) - np.outer(gb, g)) / vb)


def _jet_exp(n, dim, c):
    vc, gc, hc = c
    w = np.exp(vc)
    return (w, w * gc, w * (hc + np.outer(gc, gc)))


def _positive_at_origin(vc, what: str):
    if vc.imag == 0.0 and vc.real <= 0.0:
        raise NanPointError(f"{what} of a nonpositive real at the origin", point=0.0)


def _jet_log(n, dim, c):
    vc, gc, hc = c
    _positive_at_origin(vc, "log")
    return (np.log(vc), gc / vc, hc / vc - np.outer(gc, gc) / vc**2)


def _jet_pow(n, dim, c):
    vc, gc, hc = c
    _positive_at_origin(vc, "power")
    p = n.exponent
    w = np.exp(p * np.log(vc))
    return (w, p * w / vc * gc, p * w / vc * hc + p * (p - 1) * w / vc**2 * np.outer(gc, gc))


def _ev_pow(n, X, z):
    # Not through _guarded: a closure would keep the masked copy of z alive
    # through log and exp, which slows large batches.
    bad = _nonpositive(z)
    with np.errstate(all="ignore"):
        out = np.exp(n.exponent * np.log(np.where(bad, 1.0, z)))
    return np.where(bad, _CNAN, out)


def _ev_exp(n, X, z):
    with np.errstate(all="ignore"):
        return np.exp(z)


def _ev_indicator(n, X, z):
    out = np.where(n.test(z), 1.0 + 0.0j, 0.0 + 0.0j)
    return np.where(_isnan(z), _CNAN, out)


def _jet_indicator(n, dim, c):
    # Predicates are constant near the origin by construction, so the
    # indicator is frozen at its origin value before differentiation.
    return _flat(dim, 1.0 + 0j if n.test(np.asarray([c[0]]))[0] else 0j)


_BINARY = ("left", "right")
_COMPLEX = (format_complex, parse_complex)

#: the node set: class -> row
_OPS = {
    Coord: _Op("x", (("index", repr, int),), (), lambda n, X: X[:, n.index].copy(), _jet_coord),
    Const: _Op(
        "const", (("value", *_COMPLEX),), (),
        lambda n, X: np.full(X.shape[0], n.value, dtype=np.complex128),
        lambda n, dim: _flat(dim, n.value),
    ),
    Add: _Op(
        "add", (), _BINARY, lambda n, X, a, b: a + b,
        lambda n, dim, a, b: (a[0] + b[0], a[1] + b[1], a[2] + b[2]),
    ),
    Sub: _Op(
        "sub", (), _BINARY, lambda n, X, a, b: a - b,
        lambda n, dim, a, b: (a[0] - b[0], a[1] - b[1], a[2] - b[2]),
    ),
    # 0 * NaN stays NaN: numpy guarantees this for complex products.
    Mul: _Op("mul", (), _BINARY, lambda n, X, a, b: a * b, _jet_mul),
    Div: _Op("div", (), _BINARY, lambda n, X, a, b: _guarded(b == 0, lambda d: a / d, b), _jet_div),
    Neg: _Op("neg", (), ("child",), lambda n, X, a: -a, lambda n, dim, a: (-a[0], -a[1], -a[2])),
    Exp: _Op("exp", (), ("child",), _ev_exp, _jet_exp),
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
        elif id(node) in slots:
            continue
        else:
            op = _OPS.get(type(node))
            if op is None:
                raise TypeError(f"unknown node type {type(node).__name__}")
            if op.children:
                stack.append((op, node))
                # Plain loops: a comprehension per node costs more than the walk.
                for field in reversed(op.children):
                    stack.append(getattr(node, field))
                continue
        args = ()
        for field in op.children:
            args += (slots[id(getattr(node, field))],)
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
    Construction validates coordinate bounds, that evaluation at the zero
    vector yields the zero vector exactly, and that no indicator predicate
    sits on its discontinuity at the origin.  It also records the DAG once
    as a post-order tape of (row, node, child slots), shared subtrees
    occupying one slot, which every later pass walks.
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
        object.__setattr__(self, "_tape", tape)
        object.__setattr__(self, "_roots", roots)
        for _op, n, _args in tape:
            if isinstance(n, Coord) and n.index >= self.input_dim:
                raise ValueError(
                    f"coordinate index {n.index} out of range for input dimension {self.input_dim}"
                )
        origin = self._run("ev", np.zeros((1, self.input_dim), dtype=np.complex128))
        for k, s in enumerate(roots):
            val = origin[s][0]
            if _isnan(val):
                raise ValueError(f"output {k} is undefined at the origin")
            if val != 0:
                raise ValueError(f"output {k} evaluates to {val} at the origin; must be exactly 0")
        for _op, n, args in tape:
            if isinstance(n, Indicator):
                z0 = origin[args[0]][0]
                if (z0 if n.op in ("eq", "ne") else abs(z0)) == n.threshold:
                    raise ValueError(
                        "indicator predicate is discontinuous at the origin "
                        f"(child value {z0}, {n.op} {n.threshold})"
                    )

    def __reduce__(self):
        # The tape holds the table's rules, which do not pickle: rebuild it.
        return (RepFn, (self.input_dim, self.outputs))

    def _run(self, rule: str, x) -> list:
        """Apply one row rule ("ev" or "jet") along the tape; one value per slot."""
        vals: list = []
        for op, node, args in self._tape:
            fn = getattr(op, rule)
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
        return len(self.outputs)

    def eval_batch(self, X) -> np.ndarray:
        """Evaluate at a batch of points, shape (N, d) -> (N, n) complex."""
        X = np.asarray(X)
        if X.ndim != 2 or X.shape[1] != self.input_dim:
            raise ValueError(f"expected a batch of shape (N, {self.input_dim}), got {X.shape}")
        vals = self._run("ev", X.astype(np.complex128, copy=False))
        return np.stack([vals[s] for s in self._roots], axis=1)

    def eval(self, x) -> np.ndarray:
        """Evaluate at a single point, shape (d,) -> (n,) complex."""
        x = np.asarray(x)
        if x.shape != (self.input_dim,):
            raise ValueError(f"expected a point of shape ({self.input_dim},), got {x.shape}")
        return self.eval_batch(x[None, :])[0]

    def __call__(self, x) -> np.ndarray:
        return self.eval(x)

    def jet_at_zero(self) -> Jet2:
        """Exact value/Jacobian/Hessian at the origin by forward propagation."""
        d, n = self.input_dim, self.output_dim
        jets = self._run("jet", d)
        value = np.zeros(n, dtype=np.complex128)
        jac = np.zeros((n, d), dtype=np.complex128)
        hess = np.zeros((n, d, d), dtype=np.complex128)
        for k, s in enumerate(self._roots):
            value[k], jac[k], hess[k] = jets[s]
        return Jet2(value=value, jacobian=jac, hessian=hess)


def compose(psi: RepFn, xi: RepFn) -> RepFn:
    """Syntactic composition psi(xi): (d -> n) composed into (n -> m) gives d -> m.

    Coordinates of ``psi`` are substituted by the output trees of ``xi``;
    shared subtrees are preserved so the result evaluates each inner output
    once per point.
    """
    if xi.output_dim != psi.input_dim:
        raise ValueError(
            f"dimension mismatch: inner function produces {xi.output_dim} outputs, "
            f"outer expects {psi.input_dim} inputs"
        )
    new: list = []
    for op, node, args in psi._tape:
        if isinstance(node, Coord):
            new.append(xi.outputs[node.index])
        elif args:
            literals = [getattr(node, field) for field, _fmt, _parse in op.literals]
            new.append(type(node)(*literals, *[new[i] for i in args]))
        else:
            new.append(node)
    return RepFn(xi.input_dim, tuple([new[s] for s in psi._roots]))


def finite_difference_jet(f: RepFn, step: float) -> Jet2:
    """Central-difference estimate of the Jacobian and Hessian at the origin.

    Independent of the forward-mode path; used as a cross-check oracle.
    Raises NanPointError if any stencil point is undefined.
    """
    if step <= 0:
        raise ValueError("step must be positive")
    d, n = f.input_dim, f.output_dim
    h = float(step)

    points = [np.zeros(d)]
    for i in range(d):
        for s in (+1, -1):
            p = np.zeros(d)
            p[i] = s * h
            points.append(p)
    for i in range(d):
        for j in range(i + 1, d):
            for si, sj in ((1, 1), (1, -1), (-1, 1), (-1, -1)):
                p = np.zeros(d)
                p[i], p[j] = si * h, sj * h
                points.append(p)
    P = np.asarray(points)
    vals = f.eval_batch(P)
    _require_defined(vals, P, "representing function is undefined at stencil point")

    f0 = vals[0]
    jac = np.zeros((n, d), dtype=np.complex128)
    hess = np.zeros((n, d, d), dtype=np.complex128)
    idx = 1
    plus = np.zeros((d, n), dtype=np.complex128)
    minus = np.zeros((d, n), dtype=np.complex128)
    for i in range(d):
        plus[i], minus[i] = vals[idx], vals[idx + 1]
        idx += 2
    for i in range(d):
        jac[:, i] = (plus[i] - minus[i]) / (2 * h)
        hess[:, i, i] = (plus[i] - 2 * f0 + minus[i]) / h**2
    for i in range(d):
        for j in range(i + 1, d):
            fpp, fpm, fmp, fmm = vals[idx], vals[idx + 1], vals[idx + 2], vals[idx + 3]
            idx += 4
            mixed = (fpp - fpm - fmp + fmm) / (4 * h**2)
            hess[:, i, j] = mixed
            hess[:, j, i] = mixed
    return Jet2(value=f0.copy(), jacobian=jac, hessian=hess)


# ---------------------------------------------------------------------------
# prefix-notation serialisation (grammar documented in the cli module)
# ---------------------------------------------------------------------------


def to_prefix(f: RepFn) -> str:
    """Serialise a RepFn to prefix notation: (repfn D EXPR...)."""
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
        arity = len(op.literals) + len(op.children)
        if len(rest) != arity:
            raise ValueError(f"({head} ...) takes {arity} operands, got {len(rest)}")
        lits = [_literal(t, parse) for (_field, _fmt, parse), t in zip(op.literals, rest)]
        return cls(*lits, *[build(t) for t in rest[len(lits):]])

    return RepFn(dim, tuple(build(item) for item in tree[2:]))
