"""Drift conversion: from increment representations to drifts and expectations.

The central formula decomposes the drift of a represented process into a
linear term in the truncated drift, a quadratic term in the continuous
covariance, and a jump correction integral:

    b = Dxi(0) b_h + (1/2) sum_ij D2_ij xi(0) c_ij + int (xi(x) - Dxi(0) h(x)) F(dx).

For processes with independent increments the drift converts directly into
terminal expectations: drift T for the represented sum, exp(drift T) for its
stochastic exponential.  A discrete-time increment law is an atom measure of
mass 1, whose one-period mean, an atom integral, is taken floor(T) times or
compounded as floor(T) factors.  One rule takes every such value to its
horizon, for every caller (the Monte Carlo normaliser and the CLI too): T is
checked first, and a value that is not finite raises EngineError.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from typing import Optional

import numpy as np

from . import models
from .calculus import girsanov_adjust
from .errors import EngineError
from .models import DiscreteModel, LevyTriplet, QuadratureConfig, _raise_faults, jump_drift_correction
from .repfn import RepFn


#: 1/2 as the 0-d complex128 array a Python 0.5 becomes in a complex product,
#: made once
_HALF = np.array(0.5 + 0j)


@dataclass(frozen=True, eq=False)
class DriftReport:
    """Drift of a represented process, decomposed into its three sources.

    ``total`` is the exact floating-point sum linear + quadratic + jump as
    computed.
    """

    total: np.ndarray
    linear_part: np.ndarray
    quadratic_part: np.ndarray
    jump_part: np.ndarray
    quadrature_error: float

    def scalar(self) -> complex:
        if self.total.shape != (1,):
            raise ValueError("scalar() requires a one-dimensional report")
        return complex(self.total[0])


def drift(xi: RepFn, t: LevyTriplet, quad: Optional[QuadratureConfig] = None) -> DriftReport:
    """Drift rate of the process with increments xi(dX).

    Raises NanPointError if xi is undefined at an atom or quadrature node,
    ConvergenceError if the jump integral does not settle, and EngineError
    if a part of the drift is not finite.  Each output fails on its own: the
    error raised is the lowest-index failing output's, with every failing
    output's own error in its ``faults``.
    """
    _require_dim(t, xi)
    jet = xi.jet_at_zero()
    J, H = jet.jacobian, jet.hessian
    linear = J @ t._complex_bc[0]
    quadratic = _HALF * np.einsum("nij,ij->n", H, t._complex_bc[1])
    jump, qerr = jump_drift_correction(t.jumps, xi.eval_batch, J, t.truncation, quad)
    total = linear + quadratic + jump
    if np.count_nonzero(np.isfinite(total)) < total.size:
        _raise_faults({j: _non_finite(j, linear=linear, quadratic=quadratic, jump=jump)
                       for j in np.flatnonzero(~np.isfinite(total)).tolist()})
    return DriftReport(
        total=total,
        linear_part=linear,
        quadratic_part=quadratic,
        jump_part=jump,
        quadrature_error=qerr,
    )


def _non_finite(j, **parts):
    """The error of output j of a drift whose total is not finite: it names
    the output's first part that is not finite, or else their sum."""
    for name, value in parts.items():
        if not np.isfinite(value[j]):
            source = "jump integral" if name == "jump" else "representation's jet at the origin"
            return EngineError(
                f"{name} part of the drift is not finite ({value[j:j + 1].tolist()}); the {source} overflows"
            )
    return EngineError("the drift overflows: its parts are finite but their sum is not")


def drift_q(
    xi: RepFn,
    eta: RepFn,
    t: LevyTriplet,
    quad: Optional[QuadratureConfig] = None,
) -> DriftReport:
    """Drift of xi(dX) under the measure whose density is generated by eta.

    Equals the drift of (1 + eta) * xi under the original measure; eta must
    be real-valued with eta >= -1 on the jump support (caller contract).
    """
    return drift(girsanov_adjust(xi, eta), t, quad)


def expectation_pii(
    xi: RepFn, t: LevyTriplet, T: float, quad: Optional[QuadratureConfig] = None
) -> np.ndarray:
    """E[(xi o X)_T] for an independent-increment process: drift times T."""
    return _over_horizon(T, lambda: drift(xi, t, quad).total, operator.mul)


def expectation_stoch_exp(
    xi: RepFn, t: LevyTriplet, T: float, quad: Optional[QuadratureConfig] = None
) -> complex:
    """E[stochastic exponential of (xi o X) at T] = exp(drift * T)."""
    if xi.output_dim != 1:
        raise ValueError("the stochastic exponential needs a scalar representation")
    return complex(_over_horizon(T, lambda: drift(xi, t, quad).total[0], lambda rate, T: np.exp(rate * T)))


def _check_horizon(T: float):
    if not 0 <= T < math.inf:
        raise ValueError(f"time horizon must be nonnegative and finite, got {T}")


def _require_dim(model, *fns: RepFn):
    """Each representation must take the model's dimension (a usage error)."""
    for fn in fns:
        if fn.input_dim != model.dim:
            raise ValueError(f"representation expects dimension {fn.input_dim}, triplet has {model.dim}")


def _over_horizon(T: float, per_unit, op, periods: bool = False):
    """op(per_unit(), T) for a drift, or op(per_unit(), floor(T)) for a
    one-period value on the discrete clock; T is checked before ``per_unit``
    runs, and a result that is not finite raises EngineError."""
    _check_horizon(T)
    one, steps = per_unit(), (math.floor(T) if periods else T)
    try:
        with np.errstate(over="ignore", invalid="ignore"):
            value = op(one, steps)
    except OverflowError:
        value = math.inf
    if not np.isfinite(value).all():
        clock = f"floor(T) = {steps:g} periods of" if periods else f"T = {T:g} at a drift of"
        raise EngineError(f"the result overflows: {clock} {one}")
    return value


def discrete_compensator(xi: RepFn, m: DiscreteModel, T: float) -> np.ndarray:
    """Compensator at time T for i.i.d. discrete-time increments:
    floor(T) * E[xi(increment)]."""
    _require_dim(m, xi)
    return _over_horizon(T, lambda: models.integrate(m, xi.eval_batch)[0], operator.mul, periods=True)


def discrete_stoch_exp(xi: RepFn, m: DiscreteModel, T: float) -> complex:
    """E[stochastic exponential of (xi o X) at T] over i.i.d. periods:
    (E[1 + xi(increment)])^floor(T)."""
    if xi.output_dim != 1:
        raise ValueError("the stochastic exponential needs a scalar representation")
    _require_dim(m, xi)
    return _over_horizon(T, lambda: complex(models.integrate(m, lambda X: 1.0 + xi.eval_batch(X))[0][0]),
                         operator.pow, periods=True)


def discrete_q_stoch_exp(xi: RepFn, eta: RepFn, m: DiscreteModel, T: float) -> complex:
    """Measure-changed one-period factors:
    (E[(1+eta)(1+xi)] / E[1+eta])^floor(T).

    Requires eta >= -1 on the support and a strictly positive normaliser
    E[1 + eta(increment)].
    """
    if xi.output_dim != 1 or eta.output_dim != 1:
        raise ValueError("both representations must be scalar-valued")
    _require_dim(m, xi, eta)

    def weighted(X):
        w = 1.0 + eta.eval_batch(X)
        return np.hstack([w, w * (1.0 + xi.eval_batch(X))])

    def factor():
        normaliser, numerator = (complex(z) for z in models.integrate(m, weighted)[0])
        if abs(normaliser.imag) > 1e-12 * (1.0 + abs(normaliser.real)) or normaliser.real <= 0.0:
            raise EngineError(
                f"degenerate measure change: E[1 + eta] = {normaliser} must be real and positive"
            )
        return numerator / normaliser

    return _over_horizon(T, factor, operator.pow, periods=True)
