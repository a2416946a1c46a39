"""Standard library of increment representations and the pushforward map.

Each builder turns a modelling intent (log return, ratio of two compounding
quantities, exponential of a scaled process, exchange-ratio payoff with
default handling, measure-change adjustment) into a validated expression
tree.  Smooth transformations are exposed only through these homogeneous
forms; path-state-dependent transformations are out of scope.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from .models import FiniteAtoms, LevyTriplet, QuadratureConfig, TruncationSpec, jump_drift_correction
from .repfn import (
    Const,
    Coord,
    Div,
    Exp,
    Indicator,
    Log,
    Mul,
    Neg,
    Param,
    PowConst,
    RepFn,
    _OPS,
    _nonreal,
    parse_complex,
)

_ONE = Const(1.0)


def rep_identity(dim: int) -> RepFn:
    """The identity map x -> x."""
    return RepFn(dim, tuple(Coord(i) for i in range(dim)))


def rep_coord(dim: int, index: int) -> RepFn:
    """Projection x -> x_i."""
    return RepFn(dim, (Coord(index),))


def rep_zero(dim: int) -> RepFn:
    """The zero function (no measure change, null integrand)."""
    return RepFn(dim, (Const(0.0),))


def rep_ratio() -> RepFn:
    """Relative change of a ratio: (1+x1)/(1+x2) - 1.

    If the numerator quantity jumps by 50% and the denominator by 20%, their
    ratio jumps by exactly (1.5/1.2) - 1 = 25%.
    """
    return RepFn(2, (Div(_ONE + Coord(0), _ONE + Coord(1)) - _ONE,))


def rep_log_return() -> RepFn:
    """Log of the compounding factor: log(1+x), undefined for x <= -1."""
    return RepFn(1, (Log(_ONE + Coord(0)),))


def rep_exp_affine(v) -> RepFn:
    """Relative change of e^{v X}: e^{v x} - 1.

    ``v`` is a number, or a 1-d array of v (a grid) held by one parameter
    leaf: one column e^{v_k x} - 1 per point from a tree of six tape slots,
    whatever the number of points.
    """
    ndim = np.ndim(v)  # once: on a number it costs a caught exception
    if ndim > 1:
        raise ValueError(f"v must be a number or a 1-d array, got shape {np.shape(v)}")
    return RepFn(1, (Exp((Param(v) if ndim else Const(v)) * Coord(0)) - _ONE,))


def rep_power(v) -> RepFn:
    """Relative change of Y^v for positive Y: (1+x)^v - 1, principal branch."""
    return RepFn(1, (PowConst(v, _ONE + Coord(0)) - _ONE,))


def rep_exp_utility(lam: float) -> RepFn:
    """Relative change of exp(-lam * cumulative yield): e^{-lam(e^x - 1)} - 1."""
    inner = Neg(Const(lam) * (Exp(Coord(0)) - _ONE))
    return RepFn(1, (Exp(inner) - _ONE,))


def _rep_exp_utility_slope(lam) -> RepFn:
    """First and second lam-derivatives of ``rep_exp_utility(lam)`` and the
    function itself: -y e^{-lam y}, y^2 e^{-lam y} and e^{-lam y} - 1 with
    y = e^x - 1.

    The drift is linear in the increment function, so the drift of these
    three roots is u', u'' and u for the utility drift u at lam, from one
    tree whose roots share the weight e^{-lam y}.  A number ``lam`` is a
    constant leaf; a 1-d array of K values is one parameter leaf, with
    columns in (output, parameter) order.
    """
    y = Exp(Coord(0)) - _ONE
    # isinstance, not np.ndim, which costs a caught exception on a float
    weight = Exp(Neg((Param(lam) if isinstance(lam, np.ndarray) else Const(lam)) * y))
    return RepFn(1, (Neg(y * weight), y * y * weight, weight - _ONE))


def rep_memm_integrand(v, lam_star: float) -> RepFn:
    """(e^{v x} - 1) e^{-lam*(e^x - 1)}: the measure-changed exponential kernel."""
    left = Exp(Const(v) * Coord(0)) - _ONE
    right = Exp(Neg(Const(lam_star) * (Exp(Coord(0)) - _ONE)))
    return RepFn(1, (Mul(left, right),))


def rep_margrabe(v) -> RepFn:
    """Exchange-ratio transformation with default handling.

    psi(x1, x2) = (1+x1) * (1{x2 != -1} * ((1 + 1{x2 != -1} x2)
                  / (1 + 1{x1 != -1} x1))^v - 1).

    Indicator factors route the power around the default atoms at -1, so the
    function stays finite when either asset is wiped out.
    """
    alive1 = Indicator("ne", -1.0, Coord(0))
    alive2 = Indicator("ne", -1.0, Coord(1))
    base = Div(_ONE + Mul(alive2, Coord(1)), _ONE + Mul(alive1, Coord(0)))
    body = Mul(alive2, PowConst(v, base)) - _ONE
    return RepFn(2, (Mul(_ONE + Coord(0), body),))


def girsanov_adjust(xi: RepFn, eta: RepFn) -> RepFn:
    """Return (1 + eta(x)) * xi(x) componentwise.

    Converting a drift under the measure generated by eta into a drift under
    the original measure amounts to computing the drift of this adjusted
    function.  The caller is responsible for eta >= -1 on the support.
    """
    if eta.output_dim != 1:
        raise ValueError("the measure-change representation must be scalar-valued")
    if eta.input_dim != xi.input_dim:
        raise ValueError(
            f"dimension mismatch: xi takes {xi.input_dim} inputs, eta takes {eta.input_dim}"
        )
    weight = _ONE + eta.outputs[0]
    return RepFn(xi.input_dim, tuple(Mul(weight, root) for root in xi.outputs))


def _is_identity(f: RepFn) -> bool:
    """True if output k is the coordinate x_k, read from the tape."""
    coord = _OPS[Coord]
    return all(f._tape[s][0] is coord and f._tape[s][1].index == k for k, s in enumerate(f._roots))


def pushforward_characteristics(
    xi: RepFn,
    t: LevyTriplet,
    g: TruncationSpec,
    quad: Optional[QuadratureConfig] = None,
) -> LevyTriplet:
    """Characteristics of the represented process Y with increments xi(dX).

    The diffusion matrix transforms by congruence with the Jacobian at zero,
    the jump measure is the image of the input measure under xi, and the
    drift (relative to the requested truncation ``g`` for Y) adds the jump
    correction integral.
    """
    if xi.input_dim != t.dim:
        raise ValueError(f"representation expects dimension {xi.input_dim}, triplet has {t.dim}")
    if g.dim != xi.output_dim:
        raise ValueError(f"output truncation has dimension {g.dim}, expected {xi.output_dim}")
    if _is_identity(xi) and g == t.truncation:
        return t

    jet = xi.jet_at_zero()
    J, H = jet.jacobian, jet.hessian
    c_y = np.real(J) @ t.c @ np.real(J).T

    def truncated_values(X):
        vals = xi.eval_batch(X)
        if _nonreal(vals):
            raise ValueError("representation is not real-valued on the jump support")
        return g.apply(vals.real).astype(np.complex128)

    correction, _err = jump_drift_correction(t.jumps, truncated_values, J, t.truncation, quad)
    b_y = np.real(J) @ t.b + 0.5 * np.real(np.einsum("nij,ij->n", H, t.c)) + correction.real
    return LevyTriplet(xi.output_dim, b_y, c_y, t.jumps._image(xi), g)


def atom_mass_in_boxes(measure: FiniteAtoms, boxes) -> float:
    """Total intensity of atoms inside a finite union of closed axis boxes.

    ``boxes`` is an iterable of (lo, hi) vector pairs of the atoms'
    dimension, read once; used for counting queries against image measures.
    A box of another dimension, or a measure that is not an atom measure,
    raises ValueError.
    """
    if not isinstance(measure, FiniteAtoms):
        raise ValueError(f"counting needs an atom measure, got {type(measure).__name__}")
    d = measure.dim
    bounds = []
    for lo, hi in boxes:
        lo, hi = (np.asarray(v, dtype=float).reshape(-1) for v in (lo, hi))
        if lo.shape != (d,) or hi.shape != (d,):
            raise ValueError(f"box ({lo.tolist()}, {hi.tolist()}) does not have the atoms' dimension {d}")
        bounds.append((lo, hi))
    total = 0.0
    for x, lam in zip(measure.points, measure.intensities):
        if any(np.all(x >= lo) and np.all(x <= hi) for lo, hi in bounds):
            total += float(lam)
    return total


# ---------------------------------------------------------------------------
# the named catalog, addressable from model files
# ---------------------------------------------------------------------------


def _param(params: dict, key: str, kind: str):
    if key not in params:
        raise ValueError(f"missing parameter {key!r}")
    value = params[key]
    if kind == "complex":
        return parse_complex(value) if isinstance(value, str) else complex(value)
    if kind == "real":
        return float(value)
    if kind == "int":
        return int(value)
    raise ValueError(kind)


#: name -> (builder, parameter (key, kind) pairs in builder order)
_CATALOG = {
    "identity": (rep_identity, (("dim", "int"),)),
    "coord": (rep_coord, (("dim", "int"), ("index", "int"))),
    "zero": (rep_zero, (("dim", "int"),)),
    "ratio": (rep_ratio, ()),
    "log_return": (rep_log_return, ()),
    "exp_affine": (rep_exp_affine, (("v", "complex"),)),
    "power": (rep_power, (("v", "complex"),)),
    "exp_utility": (rep_exp_utility, (("lambda", "real"),)),
    "memm_integrand": (rep_memm_integrand, (("v", "complex"), ("lambda_star", "real"))),
    "margrabe": (rep_margrabe, (("v", "complex"),)),
}
CATALOG_NAMES = tuple(_CATALOG)


def build_catalog_fn(name: str, params: Optional[dict] = None) -> RepFn:
    """Instantiate a catalog representation by string key (one of CATALOG_NAMES)."""
    if name not in _CATALOG:
        raise ValueError(f"unknown catalog function {name!r}; known: {', '.join(CATALOG_NAMES)}")
    params = dict(params or {})
    builder, specs = _CATALOG[name]
    return builder(*[_param(params, key, kind) for key, kind in specs])
