"""Application layer: cumulants, utility optimisation, and exchange-option pricing.

The exchange-option model is a bivariate jump-diffusion whose jump measure is
a Gaussian push-forward (lognormal-style body) plus optional default atoms at
relative jump -1.  The engine normalises the model to a martingale instead of
asking the caller for a drift, evaluates the exponent function kappa(v) in
closed form, and prices by contour integration along Re v = beta < 0.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Optional, Tuple

import numpy as np

from .calculus import _rep_exp_utility_slope, rep_exp_affine, rep_exp_utility
from .drift import discrete_compensator, discrete_stoch_exp, drift, drift_q
from .errors import ConvergenceError, EngineError
from .models import (
    FiniteAtoms,
    GaussianPush,
    LevyTriplet,
    QuadratureConfig,
    TruncationSpec,
    _require_psd,
    sum_measure,
)
from .repfn import _nonreal

#: contour panel width before the oscillation cap, Gauss-Legendre nodes per
#: panel, and how often the contour length may double before giving up
PANEL_WIDTH = 2.0
NODES_PER_PANEL = 24
MAX_EXTENSIONS = 12
#: panels per vectorised pass of the contour sum (times two sides and
#: NODES_PER_PANEL nodes); bounds the working arrays on long contours
PANELS_PER_PASS = 128
#: bracketed Newton steps the optimiser may take before giving up
POLISH_STEPS = 100


def cumulant(v, t: LevyTriplet, quad: Optional[QuadratureConfig] = None) -> complex:
    """Exponent rate kappa(v) with E[e^{v(X_T - X_0)}] = exp(kappa(v) T)."""
    if t.dim != 1:
        raise ValueError("cumulant requires a one-dimensional model")
    return drift(rep_exp_affine(v), t, quad).scalar()


def utility_drift(lam: float, t: LevyTriplet, quad: Optional[QuadratureConfig] = None) -> float:
    """Drift rate of the relative change of e^{-lam R}, R the cumulative yield.

    Real by construction for a real model; the imaginary residual is checked
    and discarded.
    """
    if t.dim != 1:
        raise ValueError("utility drift requires a one-dimensional model")
    value = drift(rep_exp_utility(lam), t, quad).scalar()
    if _nonreal(value):
        raise EngineError(f"utility drift came out non-real: {value}")
    return float(value.real)


def minimize_scalar(fn, bracket: Tuple[float, float], slope) -> float:
    """Minimiser of a convex ``fn`` on ``bracket``: bracketed Newton on
    ``slope(x) = (f'(x), f''(x))``, started at the bracket's midpoint.

    ``fn`` is evaluated at the two ends only.  A convex function that is
    finite there is finite on the whole bracket, so a bracket reaching where
    ``fn`` does not exist (lambda < 0 on a Gaussian jump body) fails at
    ``fn(lo)``.  Each step shrinks the bracket by the sign of f', takes the
    Newton step when f'' > 0 and the step stays inside, and bisects otherwise.
    A point that settles on a bracket end means there is no interior minimum.
    """
    lo, hi = float(bracket[0]), float(bracket[1])
    if not (math.isfinite(lo) and math.isfinite(hi)):
        raise ValueError(f"bracket ends must be finite, got [{lo}, {hi}]")
    if not lo < hi:
        raise ValueError("bracket must satisfy lo < hi")
    if not (math.isfinite(fn(lo)) and math.isfinite(fn(hi))):
        raise EngineError("objective is not finite everywhere on the bracket")
    a, b, x = lo, hi, 0.5 * (lo + hi)
    for _ in range(POLISH_STEPS):
        d1, d2 = slope(x)
        a, b = (a, x) if d1 > 0.0 else (x, b)
        new = 0.5 * (a + b)
        # inclusive: a step that rounds to x, now a bracket end, settles
        if d2 > 0.0 and a <= x - d1 / d2 <= b:
            new = x - d1 / d2
        tol = 1e-15 * (1.0 + abs(x))
        if abs(new - x) <= tol:
            # a midpoint settling next to an end may round one ulp past tol
            if min(new - lo, hi - new) <= 2.0 * tol:
                raise EngineError(
                    f"no interior minimum in [{lo}, {hi}]; widen the bracket "
                    f"(the minimum sits at the {'left' if new - lo < hi - new else 'right'} edge)"
                )
            return new
        x = new
    raise ConvergenceError(f"Newton polish on [{lo}, {hi}] did not settle in {POLISH_STEPS} steps")


def optimize_exp_utility(
    t: LevyTriplet,
    bracket: Tuple[float, float],
    quad: Optional[QuadratureConfig] = None,
) -> Tuple[float, float]:
    """Optimal constant dollar exposure for exponential utility.

    Expected utility -E[e^{-lam R_T}] is largest where the drift rate of the
    relative change of e^{-lam R} is smallest, so the optimiser returns the
    interior minimiser lam* of ``utility_drift`` over the bracket, together
    with the attained drift value.
    """

    def slope(lam):
        d = drift(_rep_exp_utility_slope(lam), t, quad).total
        if _nonreal(d):
            raise EngineError(f"utility drift derivatives came out non-real: {d}")
        return float(d[0].real), float(d[1].real)

    lam_star = minimize_scalar(lambda lam: utility_drift(lam, t, quad), bracket, slope)
    return lam_star, utility_drift(lam_star, t, quad)


def optimize_discrete_exp_utility(model, bracket: Tuple[float, float]) -> Tuple[float, float]:
    """Discrete-time counterpart: minimise the one-period factor E[1 + eta]."""

    def objective(lam):
        return float(discrete_stoch_exp(rep_exp_utility(lam), model, 1.0).real)

    def slope(lam):
        d = discrete_compensator(_rep_exp_utility_slope(lam), model, 1.0).real
        return float(d[0]), float(d[1])

    lam_star = minimize_scalar(objective, bracket, slope)
    return lam_star, objective(lam_star)


def memm_cumulant(
    v,
    lam_star: float,
    t: LevyTriplet,
    quad: Optional[QuadratureConfig] = None,
) -> complex:
    """Exponent rate of e^{vX} under the entropy-minimal pricing measure."""
    if t.dim != 1:
        raise ValueError("measure-changed cumulant requires a one-dimensional model")
    return drift_q(rep_exp_affine(v), rep_exp_utility(lam_star), t, quad).scalar()


# ---------------------------------------------------------------------------
# the exchange-option model
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class MargrabeModel:
    """Two assets driven by a bivariate jump-diffusion with possible defaults.

    The jump body is ``jump_intensity`` times the push-forward of
    Normal(jump_mean, jump_cov) through z -> e^z - 1; ``default_atoms`` are
    (point, intensity) pairs whose point has at least one coordinate equal
    to -1.  The valuation measure makes both assets martingales: the engine
    solves for the compensating drift itself.
    """

    spot1: float
    spot2: float
    maturity: float
    sigma1_sq: float
    sigma12: float
    sigma2_sq: float
    jump_intensity: float = 0.0
    jump_mean: tuple = (0.0, 0.0)
    jump_cov: tuple = ((0.0, 0.0), (0.0, 0.0))
    default_atoms: tuple = ()

    def __post_init__(self):
        for name in (
            "spot1", "spot2", "maturity", "sigma1_sq", "sigma12", "sigma2_sq", "jump_intensity"
        ):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite, got {getattr(self, name)}")
        if self.spot1 <= 0 or self.spot2 <= 0:
            raise ValueError("spot values must be positive")
        if self.maturity <= 0:
            raise ValueError("maturity must be positive")
        _require_psd(self.diffusion_matrix(), "diffusion matrix")
        if self.jump_intensity < 0:
            raise ValueError("jump intensity must be nonnegative")
        m = np.asarray(self.jump_mean, dtype=float)
        if m.shape != (2,):
            raise ValueError(f"jump_mean must have 2 components, got shape {m.shape}")
        S = np.asarray(self.jump_cov, dtype=float)
        if S.shape != (2, 2):
            raise ValueError("jump covariance must be a symmetric 2x2 matrix")
        for name, arr in (("jump_mean", m), ("jump_cov", S)):
            if not np.all(np.isfinite(arr)):
                raise ValueError(f"{name} must be finite, got {arr.tolist()}")
        _require_psd(S, "jump covariance")
        atoms = tuple((tuple(map(float, x)), float(lam)) for x, lam in self.default_atoms)
        object.__setattr__(self, "default_atoms", atoms)
        for x, lam in atoms:
            if len(x) != 2:
                raise ValueError("default atoms must be two-dimensional")
            if not all(map(math.isfinite, (*x, lam))):
                raise ValueError(f"default atom {x} with intensity {lam} must be finite")
            if lam <= 0:
                raise ValueError("default atom intensities must be strictly positive")
            if -1.0 not in x:
                raise ValueError(f"default atom {x} must have a coordinate equal to -1")
            if min(x) < -1.0:
                raise ValueError(f"default atom {x} lies outside the support [-1, inf)^2")

    def diffusion_matrix(self) -> np.ndarray:
        return np.array(
            [[self.sigma1_sq, self.sigma12], [self.sigma12, self.sigma2_sq]], dtype=float
        )

    def jump_measure(self):
        parts = []
        if self.jump_intensity > 0:
            parts.append(
                GaussianPush(
                    self.jump_intensity,
                    np.asarray(self.jump_mean, dtype=float),
                    np.asarray(self.jump_cov, dtype=float),
                )
            )
        if self.default_atoms:
            pts = np.array([x for x, _ in self.default_atoms], dtype=float)
            lam = np.array([l for _, l in self.default_atoms], dtype=float)
            parts.append(FiniteAtoms(pts, lam))
        return sum_measure(parts, 2)

    def triplet(self) -> LevyTriplet:
        """Martingale-normalised characteristics relative to the identity
        truncation (zero drift; the jump compensator is carried by the
        truncation choice)."""
        return LevyTriplet(
            2, np.zeros(2), self.diffusion_matrix(), self.jump_measure(), TruncationSpec.identity(2)
        )


def default_intensities(mm: MargrabeModel) -> Tuple[float, float]:
    """Arrival intensities of the other asset's default under each asset's
    own pricing measure: sums of (1 + x_k) weighted atom intensities."""
    lam2_q1 = 0.0
    lam1_q2 = 0.0
    for (x1, x2), lam in mm.default_atoms:
        if x2 == -1.0:
            lam2_q1 += (1.0 + x1) * lam
        if x1 == -1.0:
            lam1_q2 += (1.0 + x2) * lam
    return lam2_q1, lam1_q2


def margrabe_kappa(v, mm: MargrabeModel):
    """Closed-form exponent kappa(v) of the exchange ratio under the
    first-asset measure; vectorised over ``v``.

    kappa(0) equals minus the default intensity of asset 2 under that
    measure, because the lognormal-body terms cancel at v = 0.
    """
    v = np.asarray(v, dtype=np.complex128)
    lam2_q1, lam1_q2 = default_intensities(mm)
    lam = mm.jump_intensity
    m1, m2 = float(mm.jump_mean[0]), float(mm.jump_mean[1])
    S = np.asarray(mm.jump_cov, dtype=float)
    s11, s12, s22 = S[0, 0], S[0, 1], S[1, 1]
    sigma_eff_sq = mm.sigma1_sq - 2.0 * mm.sigma12 + mm.sigma2_sq

    e1 = math.exp(m1 + 0.5 * s11)
    e2 = math.exp(m2 + 0.5 * s22)
    body = lam * np.exp(
        (1.0 - v) * m1
        + v * m2
        + 0.5 * (1.0 - v) ** 2 * s11
        + v * (1.0 - v) * s12
        + 0.5 * v**2 * s22
    )
    out = (
        0.5 * sigma_eff_sq * v * (v - 1.0)
        - lam2_q1
        + v * (lam * (e1 - e2) + lam2_q1 - lam1_q2)
        + body
        - lam * e1
    )
    return out if out.shape else complex(out)


@dataclass(frozen=True)
class ContourConfig:
    """Contour placement and tolerances for the pricing integral."""

    beta: float = -0.5
    u_max: float = 200.0
    rel_tol: float = 1e-9

    def __post_init__(self):
        if not (math.isfinite(self.beta) and self.beta < 0.0):
            raise ValueError(
                f"the contour abscissa beta must be finite and negative, got {self.beta}"
            )
        for name in ("u_max", "rel_tol"):
            value = getattr(self, name)
            if not (math.isfinite(value) and value > 0.0):
                raise ValueError(f"contour {name} must be finite and positive, got {value}")


@dataclass(frozen=True)
class PriceDiagnostics:
    kappa0: complex
    lambda2_q1: float
    lambda1_q2: float
    tail_mass: float
    nodes: int
    imag_residual: float
    u_max_used: float


@functools.cache
def _legendre_rule():
    return np.polynomial.legendre.leggauss(NODES_PER_PANEL)


def _panel_sum(mm: MargrabeModel, beta: float, edges: np.ndarray):
    """Gauss-Legendre sum of the payoff transform over the panels between
    consecutive ``edges`` and over their mirrors [-b, -a].

    Each numpy pass evaluates at most PANELS_PER_PASS panels on both sides
    at once.  Panel values are added in panel order, a panel together with
    its mirror, so the sum is the one a panel-by-panel loop gives.
    """
    gl_x, gl_w = _legendre_rule()
    log_ratio = math.log(mm.spot2 / mm.spot1)
    total = 0.0 + 0.0j
    for k in range(0, edges.size - 1, PANELS_PER_PASS):
        a = edges[k : k + PANELS_PER_PASS + 1]
        lo = np.stack((a[:-1], -a[1:]))
        hi = np.stack((a[1:], -a[:-1]))
        mid, half = 0.5 * (lo + hi), 0.5 * (hi - lo)
        v = beta + 1j * (mid[..., None] + half[..., None] * gl_x)
        g = np.exp(v * log_ratio + margrabe_kappa(v, mm) * mm.maturity) / (
            2.0 * np.pi * v * (v - 1.0)
        )
        sides = half * np.sum(gl_w * g, axis=-1)
        total = np.concatenate(([total], sides[0] + sides[1])).cumsum()[-1]
    return total


def _contour_integral(mm: MargrabeModel, cfg: ContourConfig):
    """Two-sided contour integral of the payoff transform.

    Both half-lines are evaluated (the mirror side is not folded by
    conjugation) so that the imaginary residual of the result is a genuine
    check of the model's conjugate symmetry.
    """
    log_ratio = math.log(mm.spot2 / mm.spot1)

    # Panels must resolve the oscillation e^{iu log(ratio)}: cap the width at
    # about three periods so the fixed Gauss-Legendre rule stays spectral.
    width = PANEL_WIDTH
    if log_ratio != 0.0:
        width = min(width, 3.0 * 2.0 * math.pi / abs(log_ratio))

    n_panels = max(1, math.ceil(cfg.u_max / width))
    edges = np.linspace(0.0, cfg.u_max, n_panels + 1)
    total = _panel_sum(mm, cfg.beta, edges)
    nodes = 2 * NODES_PER_PANEL * n_panels

    # Extend the contour until the outermost block stops contributing.
    lo, hi = cfg.u_max, 2.0 * cfg.u_max
    tail = np.inf
    for _ in range(MAX_EXTENSIONS):
        edges = np.linspace(lo, hi, max(2, int((hi - lo) / (2 * width)) + 1))
        block = _panel_sum(mm, cfg.beta, edges)
        nodes += 2 * NODES_PER_PANEL * (edges.size - 1)
        total += block
        tail = abs(block)
        # The integral is in units of the first spot (p / S1 is order one),
        # so the tolerance is anchored at that scale even when the integral
        # itself is tiny.
        if tail <= cfg.rel_tol * max(1.0, abs(total)):
            return total, tail, nodes, hi
        lo, hi = hi, 2.0 * hi
    raise ConvergenceError(
        f"contour tail still contributes {tail:.3e} after extending to |Im v| = {lo}"
    )


def margrabe_price(mm: MargrabeModel, cfg: Optional[ContourConfig] = None):
    """Value of the option to exchange asset 2 for asset 1 at maturity.

    Returns (price, PriceDiagnostics).  The price is the first spot times
    the sum of the asset-2 default-state mass 1 - e^{kappa(0) T} (the payoff
    transform covers only the survival states) and the contour integral of
    the transformed payoff; the imaginary residual is asserted small and
    discarded.
    """
    cfg = cfg or ContourConfig()
    kappa0 = margrabe_kappa(0.0, mm)
    integral, tail, nodes, u_used = _contour_integral(mm, cfg)
    raw = (1.0 - np.exp(kappa0 * mm.maturity)) + integral
    imag_residual = abs(raw.imag) * mm.spot1
    if imag_residual > 1e-9 * mm.spot1:
        raise EngineError(
            f"price has a non-negligible imaginary residual {imag_residual:.3e}; "
            "the model is not conjugate-symmetric"
        )
    price = mm.spot1 * raw.real
    if price < 0.0:
        if price < -1e-12 * mm.spot1:
            raise EngineError(f"price came out negative ({price}); model inputs are inconsistent")
        price = 0.0
    lam2_q1, lam1_q2 = default_intensities(mm)
    diags = PriceDiagnostics(
        kappa0=complex(kappa0),
        lambda2_q1=lam2_q1,
        lambda1_q2=lam1_q2,
        tail_mass=tail,
        nodes=nodes,
        imag_residual=imag_residual,
        u_max_used=u_used,
    )
    return price, diags
