"""Drift conversion: from increment representations to drifts and expectations.

The central formula decomposes the drift of a represented process into a
linear term in the truncated drift, a quadratic term in the continuous
covariance, and a jump correction integral:

    b = Dxi(0) b_h + (1/2) sum_ij D2_ij xi(0) c_ij + int (xi(x) - Dxi(0) h(x)) F(dx).

For processes with independent increments the drift converts directly into
terminal expectations, both for the represented sum and for its stochastic
exponential.  Discrete-time analogues replace the integral by a per-period
expectation and the exponential by a product of one-period factors.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Optional

import numpy as np

from .calculus import girsanov_adjust
from .errors import EngineError
from .models import DiscreteModel, LevyTriplet, QuadratureConfig, jump_drift_correction
from .repfn import RepFn, _require_defined


@dataclass(frozen=True, eq=False)
class DriftReport:
    """Drift of a represented process, decomposed into its three sources.

    ``total`` is the exact floating-point sum linear + quadratic + jump as
    computed.  ``girsanov_cross`` carries the diffusion cross term of a
    measure-changed drift when one was requested, for diagnostics only.
    """

    total: np.ndarray
    linear_part: np.ndarray
    quadratic_part: np.ndarray
    jump_part: np.ndarray
    quadrature_error: float
    girsanov_cross: Optional[np.ndarray] = None

    def scalar(self) -> complex:
        if self.total.shape != (1,):
            raise ValueError("scalar() requires a one-dimensional report")
        return complex(self.total[0])


def drift(xi: RepFn, t: LevyTriplet, quad: Optional[QuadratureConfig] = None) -> DriftReport:
    """Drift rate of the process with increments xi(dX).

    Raises NanPointError if xi is undefined at an atom or quadrature node,
    ConvergenceError if the jump integral does not settle, and EngineError
    if a part of the drift is not finite.
    """
    if xi.input_dim != t.dim:
        raise ValueError(f"representation expects dimension {xi.input_dim}, triplet has {t.dim}")
    jet = xi.jet_at_zero()
    J, H = jet.jacobian, jet.hessian
    linear = J @ t.b.astype(np.complex128)
    quadratic = 0.5 * np.einsum("nij,ij->n", H, t.c.astype(np.complex128))
    jump, qerr = jump_drift_correction(t.jumps, xi.eval_batch, J, t.truncation, quad)
    total = linear + quadratic + jump
    if not np.isfinite(total).all():
        _raise_non_finite(linear=linear, quadratic=quadratic, jump=jump)
    return DriftReport(
        total=total,
        linear_part=linear,
        quadratic_part=quadratic,
        jump_part=jump,
        quadrature_error=qerr,
    )


def _raise_non_finite(**parts):
    """Name the first drift part that is not finite, or the total."""
    for name, value in parts.items():
        if not np.isfinite(value).all():
            source = "jump integral" if name == "jump" else "representation's jet at the origin"
            raise EngineError(
                f"{name} part of the drift is not finite ({value.tolist()}); the {source} overflows"
            )
    raise EngineError("the drift overflows: its parts are finite but their sum is not")


def drift_q(
    xi: RepFn,
    eta: RepFn,
    t: LevyTriplet,
    quad: Optional[QuadratureConfig] = None,
) -> DriftReport:
    """Drift of xi(dX) under the measure whose density is generated by eta.

    Equals the drift of (1 + eta) * xi under the original measure; eta must
    be real-valued with eta >= -1 on the jump support (caller contract).
    The report additionally exposes the diffusion cross term
    sum_ij D_i xi(0) D_j eta(0) c_ij.
    """
    report = drift(girsanov_adjust(xi, eta), t, quad)
    j_xi = xi.jet_at_zero().jacobian
    j_eta = eta.jet_at_zero().jacobian
    cross = np.einsum("ni,j,ij->n", j_xi, j_eta[0], t.c.astype(np.complex128))
    return replace(report, girsanov_cross=cross)


def expectation_pii(
    xi: RepFn, t: LevyTriplet, T: float, quad: Optional[QuadratureConfig] = None
) -> np.ndarray:
    """E[(xi o X)_T] for an independent-increment process: drift times T."""
    if T < 0:
        raise ValueError("time horizon must be nonnegative")
    return drift(xi, t, quad).total * T


def expectation_stoch_exp(
    xi: RepFn, t: LevyTriplet, T: float, quad: Optional[QuadratureConfig] = None
) -> complex:
    """E[stochastic exponential of (xi o X) at T] = exp(drift * T)."""
    if xi.output_dim != 1:
        raise ValueError("the stochastic exponential needs a scalar representation")
    if T < 0:
        raise ValueError("time horizon must be nonnegative")
    return complex(np.exp(drift(xi, t, quad).total[0] * T))


def _support_values(xi: RepFn, m: DiscreteModel) -> np.ndarray:
    vals = xi.eval_batch(m.points.astype(np.complex128))
    _require_defined(vals, m.points, "representation is undefined at support point")
    return vals


def discrete_compensator(xi: RepFn, m: DiscreteModel, T: float) -> np.ndarray:
    """Compensator at time T for i.i.d. discrete-time increments:
    floor(T) * E[xi(increment)]."""
    if xi.input_dim != m.dim:
        raise ValueError(f"representation expects dimension {xi.input_dim}, model has {m.dim}")
    steps = math.floor(T)
    vals = _support_values(xi, m)
    per_period = (m.probabilities[:, None] * vals).sum(axis=0)
    return steps * per_period


def discrete_stoch_exp(xi: RepFn, m: DiscreteModel, T: float) -> complex:
    """E[stochastic exponential of (xi o X) at T] over i.i.d. periods:
    (E[1 + xi(increment)])^floor(T)."""
    if xi.output_dim != 1:
        raise ValueError("the stochastic exponential needs a scalar representation")
    if xi.input_dim != m.dim:
        raise ValueError(f"representation expects dimension {xi.input_dim}, model has {m.dim}")
    steps = math.floor(T)
    vals = _support_values(xi, m)[:, 0]
    factor = complex((m.probabilities * (1.0 + vals)).sum())
    return factor**steps


def discrete_q_stoch_exp(xi: RepFn, eta: RepFn, m: DiscreteModel, T: float) -> complex:
    """Measure-changed one-period factors:
    (E[(1+eta)(1+xi)] / E[1+eta])^floor(T).

    Requires eta >= -1 on the support and a strictly positive normaliser
    E[1 + eta(increment)].
    """
    if xi.output_dim != 1 or eta.output_dim != 1:
        raise ValueError("both representations must be scalar-valued")
    if xi.input_dim != m.dim or eta.input_dim != m.dim:
        raise ValueError("representation dimensions must match the model")
    steps = math.floor(T)
    xi_vals = _support_values(xi, m)[:, 0]
    eta_vals = _support_values(eta, m)[:, 0]
    normaliser = complex((m.probabilities * (1.0 + eta_vals)).sum())
    if abs(normaliser.imag) > 1e-12 * (1.0 + abs(normaliser.real)) or normaliser.real <= 0.0:
        raise EngineError(
            f"degenerate measure change: E[1 + eta] = {normaliser} must be real and positive"
        )
    numerator = complex((m.probabilities * (1.0 + eta_vals) * (1.0 + xi_vals)).sum())
    return (numerator / normaliser) ** steps
