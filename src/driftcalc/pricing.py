"""Application layer: cumulants, utility optimisation, and exchange-option pricing.

The exchange-option model is a bivariate jump-diffusion whose jump measure is
a Gaussian push-forward (lognormal-style body) plus optional default atoms at
relative jump -1.  The engine normalises the model to a martingale instead of
asking the caller for a drift and evaluates the exponent function kappa(v) in
closed form.  It prices the option as the default mass plus one Poisson
series over the number of body jumps, each term a Black put.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Tuple

import numpy as np

from .calculus import _rep_exp_utility_slope, rep_exp_affine, rep_exp_utility
from .drift import drift, drift_q
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

#: e^z overflows a float past this z (log of the largest float, 709.7827...)
LOG_FLOAT_MAX = 709.78
#: largest mean jump count lam T e^{q0} whose series is summed: its window
#: holds about 19 sqrt(mu) terms, 6e5 here (about 0.5 s)
MAX_SERIES_MEAN = 1e9
#: points of the optimiser's first drift, the bracket ends among them
SCAN_POINTS = 17
#: bracketed Newton steps the optimiser may take before giving up
POLISH_STEPS = 100


def _per_point(v, report):
    """A drift report of ``rep_exp_affine(v)`` (or its measure change) read
    as kappa: a ``complex`` for a number v, one value per point for an array."""
    return report.total if np.ndim(v) else report.scalar()


def _require_1d(t: LevyTriplet, what: str):
    if t.dim != 1:
        raise ValueError(f"{what} requires a one-dimensional model")


def cumulant(v, t: LevyTriplet, quad: Optional[QuadratureConfig] = None):
    """Exponent rate kappa(v) with E[e^{v(X_T - X_0)}] = exp(kappa(v) T).

    ``v`` is a number, or a 1-d array of v whose kappa values are one drift
    of one tree with a column per point (the drift is linear in the
    increment function).  Each point stops and fails as it does alone; the
    call raises if any fails, with every failing point's error in ``faults``.
    """
    _require_1d(t, "cumulant")
    return _per_point(v, drift(rep_exp_affine(v), t, quad))


def utility_drift(lam: float, t: LevyTriplet, quad: Optional[QuadratureConfig] = None) -> float:
    """Drift rate of the relative change of e^{-lam R}, R the cumulative yield.

    Real by construction for a real model; the imaginary residual is checked
    and discarded.
    """
    _require_1d(t, "utility drift")
    value = drift(rep_exp_utility(lam), t, quad).scalar()
    if _nonreal(value):
        raise EngineError(f"utility drift came out non-real: {value}")
    return float(value.real)


def _linspace(start: float, stop: float, count: int) -> np.ndarray:
    """``np.linspace(start, stop, count)`` bit for bit, in about 2 us."""
    # numpy's own operations, without its argument handling (about 5 us):
    # i step + start, or i / div delta + start where the step rounds to 0,
    # and the last point set to stop
    div, delta = max(count - 1, 1), stop - start
    i = np.arange(count, dtype=float)
    y = (i * (delta / div) if delta / div else i / div * delta) + start
    y[div:] = stop  # no point for a count of 1
    return y


def minimize_scalar(fn, bracket: Tuple[float, float], certify: bool = True) -> float:
    """Minimiser of a convex f on ``bracket`` from ``fn(x) = (f'(x), f''(x),
    ...)`` at a number or a 1-d array x; later entries are not read.

    One call on SCAN_POINTS evenly spaced points, the bracket ends among
    them, decides the edge verdicts: f not finite on the bracket, or f'(hi)
    <= 0 (f'(lo) >= 0) for a minimum at the right (left) edge.  Otherwise
    Newton starts in the scan cell where f' changes sign, at the root of the
    cubic Hermite interpolant of f' and f'' at its ends if that lies strictly
    inside with a positive slope, else at the secant root.  Each step shrinks
    the cell by the sign of f' and bisects unless f'' > 0 and the step stays
    inside and is at most half the previous one or at most tol = 1e-15 (1 +
    |x|).  The result is the first point fn was called at whose next step is
    at most tol; or, with ``certify``, a Newton step whose successor its
    quadratic model puts within tol / 4: a point fn was never called at,
    where the polish would stop one call later.
    """
    lo, hi = float(bracket[0]), float(bracket[1])
    if not (math.isfinite(lo) and math.isfinite(hi)):
        raise ValueError(f"bracket ends must be finite, got [{lo}, {hi}]")
    if not lo < hi:
        raise ValueError("bracket must satisfy lo < hi")
    xs = _linspace(lo, hi, SCAN_POINTS)
    scan = np.asarray(fn(xs)[:2], dtype=float)
    if not np.all(np.isfinite(scan)):
        raise EngineError("objective is not finite everywhere on the bracket")
    slopes = scan[0]
    if slopes[-1] <= 0.0 or slopes[0] >= 0.0:
        side = "right" if slopes[-1] <= 0.0 else "left"
        raise EngineError(f"no interior minimum in [{lo}, {hi}]; widen the bracket "
                          f"(the minimum sits at the {side} edge)")
    # the first scan point where f' > 0 closes the cell; f'(a) <= 0 < f'(b)
    k = int(np.argmax(slopes > 0.0))
    (a, b), (sa, sb), (ca, cb) = xs[k - 1:k + 1].tolist(), *scan[:, k - 1:k + 1].tolist()
    # Newton from the secant root on the cubic Hermite interpolant
    # c0 + c1 t + c2 t^2 + c3 t^3 of f' on the cell, t = (x - a) / (b - a);
    # on the benchmark's optima it settles within three of its six steps.  A
    # step from a point where the cubic's slope is not positive gives NaN,
    # and the secant root is the start.
    step, t = b - a, sa / (sa - sb)
    c = (sa, step * ca, 3.0 * (sb - sa) - step * (2.0 * ca + cb), 2.0 * (sa - sb) + step * (ca + cb))
    for _ in range(6):
        slope = c[1] + t * (2.0 * c[2] + 3.0 * t * c[3])
        t -= (c[0] + t * (c[1] + t * (c[2] + t * c[3]))) / slope if slope > 0.0 else math.nan
    x = a + t * step if 0.0 < t < 1.0 else min(max(a - sa * step / (sb - sa), a), b)
    prev = (a, sa, ca) if x - a <= b - x else (b, sb, cb)
    for _ in range(POLISH_STEPS):
        d1, d2 = fn(x)[:2]
        a, b = (a, x) if d1 > 0.0 else (x, b)
        tol = 1e-15 * (1.0 + abs(x))
        # inclusive: a step that rounds to x, now a bracket end, settles; so
        # does one within tol, even where rounding puts it past half the last
        newton = d2 > 0.0 and a <= x - d1 / d2 <= b and abs(d1 / d2) <= max(0.5 * abs(step), tol)
        new = x - d1 / d2 if newton else 0.5 * (a + b)
        step = new - x
        if abs(step) <= tol:
            return x
        # The certificate, from f' and f'' at x and at the previous point p
        # (first the nearer end of the scan cell), h = x - p: the secant of
        # f' agrees with f'' within half of f'', and K step^2 / f'' <= tol / 4
        # for K = max(|f'(x) - f'(p) - f''(p) h| / h^2, |f''(x) - f''(p)| /
        # (2 |h|)), which estimates half the size of the third derivative
        # where Newton's quadratic model holds; the step after new is then
        # predicted to be at most tol / 4.
        p, p1, p2 = prev
        h = x - p
        if (newton and certify and abs(d1 - p1 - d2 * h) < 0.5 * d2 * abs(h)
                and max(abs(d1 - p1 - p2 * h), 0.5 * abs(d2 - p2) * abs(h)) * step * step <= 0.25 * tol * d2 * h * h):
            return new
        prev, x = (x, d1, d2), new
    raise ConvergenceError(f"Newton polish on [{lo}, {hi}] did not settle in {POLISH_STEPS} steps")


def optimize_exp_utility(
    t: LevyTriplet,
    bracket: Tuple[float, float],
    quad: Optional[QuadratureConfig] = None,
) -> Tuple[float, float]:
    """Optimal constant dollar exposure for exponential utility: the interior
    minimiser lam* over the bracket of the drift u of the relative change of
    e^{-lam R}, where -E[e^{-lam R_T}] is largest, and u(lam*).  Each drift
    is of one slope tree giving u', u'' and u at its lam: the scan's tree
    holds its points in a parameter leaf, each Newton step's tree its one
    lam in a constant leaf.  An optimum takes the scan drift and one to
    three Newton drifts, 2.5 drifts in all on the benchmark's optima.  u(lam*)
    is the last drift's u, or where lam* is a certified step s from that
    drift's lam (see :func:`minimize_scalar`), its Taylor step u + s (u' + s u'' / 2)."""
    _require_1d(t, "utility drift")
    last = []  # lam and [u', u'', u] of the last Newton step's drift

    def slope(lam):
        d = drift(_rep_exp_utility_slope(lam), t, quad).total
        if _nonreal(d):
            raise EngineError(f"utility drift derivatives came out non-real: {d}")
        if isinstance(lam, np.ndarray):  # the scan's points, columns in (output, parameter) order
            return d.real.reshape(3, -1)
        last[:] = lam, d.real.tolist()
        return last[1]

    lam_star = minimize_scalar(slope, bracket)
    lam, (d1, d2, u) = last
    s = lam_star - lam
    return lam_star, u + s * (d1 + 0.5 * s * d2) if s else u


def optimize_discrete_exp_utility(model, bracket: Tuple[float, float]) -> Tuple[float, float]:
    """Discrete-time counterpart: minimise the one-period factor
    E[1 + eta] = 1 + int eta dP, the utility drift of a pure-jump triplet
    whose jump measure is the increment law P."""
    d = model.dim
    t = LevyTriplet(d, np.zeros(d), np.zeros((d, d)), model, TruncationSpec.zero(d))
    lam_star, value = optimize_exp_utility(t, bracket)
    return lam_star, 1.0 + value


def memm_cumulant(
    v,
    lam_star: float,
    t: LevyTriplet,
    quad: Optional[QuadratureConfig] = None,
):
    """Exponent rate of e^{vX} under the entropy-minimal pricing measure.

    ``v`` is a number or a 1-d array, as in :func:`cumulant`.
    """
    _require_1d(t, "measure-changed cumulant")
    return _per_point(v, drift_q(rep_exp_affine(v), rep_exp_utility(lam_star), t, quad))


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
        log_factor = m + 0.5 * np.diag(S)  # log E[1 + jump] of each asset
        if np.any(log_factor > LOG_FLOAT_MAX):
            raise ValueError(
                f"jump_mean + diag(jump_cov) / 2 = {log_factor.tolist()} must be at most "
                f"{LOG_FLOAT_MAX}: the mean jump factor e^(m_i + S_ii / 2) overflows a float"
            )
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


@dataclass(frozen=True)
class _ExponentSplit:
    """kappa(v) = kappa_aff(v) + lam e^{Q(v)}, split into an affine-plus-Gaussian
    part kappa_aff(v) = sig2 v (v - 1) / 2 + a v + c (diffusion, compensator,
    default intensities) and the jump body.

    The body exponent Q(v) = (1 - v) m1 + v m2 + (1 - v)^2 s11 / 2
    + v (1 - v) s12 + v^2 s22 / 2 is q0 + q1 v + s2 v^2 / 2.
    """

    sig2: float  # sigma_eff^2 of the diffusion
    a: float
    c: float
    lam: float
    q0: float
    q1: float
    s2: float  # s_eff^2 of the jump body

    @classmethod
    def of(cls, mm: MargrabeModel) -> "_ExponentSplit":
        lam2_q1, lam1_q2 = default_intensities(mm)
        lam = mm.jump_intensity
        m1, m2 = float(mm.jump_mean[0]), float(mm.jump_mean[1])
        (s11, s12), (_, s22) = np.asarray(mm.jump_cov, dtype=float).tolist()
        e1 = math.exp(m1 + 0.5 * s11)
        e2 = math.exp(m2 + 0.5 * s22)
        # both are quadratic forms of PSD matrices; clip rounding below zero
        sig2 = max(0.0, mm.sigma1_sq - 2.0 * mm.sigma12 + mm.sigma2_sq)
        s2 = max(0.0, s11 - 2.0 * s12 + s22)
        return cls(
            sig2=sig2,
            a=lam * (e1 - e2) + lam2_q1 - lam1_q2,
            c=-lam2_q1 - lam * e1,
            lam=lam,
            q0=m1 + 0.5 * s11,
            q1=m2 - m1 - s11 + s12,
            s2=s2,
        )

    def affine(self, v):
        return 0.5 * self.sig2 * v * (v - 1.0) + self.a * v + self.c

    def body_exponent(self, v):
        return self.q0 + v * (self.q1 + 0.5 * self.s2 * v)


def margrabe_kappa(v, mm: MargrabeModel):
    """Closed-form exponent kappa(v) of the exchange ratio under the
    first-asset measure; vectorised over ``v``.

    kappa(0) equals minus the default intensity of asset 2 under that
    measure, because the lognormal-body terms cancel at v = 0.
    """
    v = np.asarray(v, dtype=np.complex128)
    x = _ExponentSplit.of(mm)
    out = x.affine(v) + x.lam * np.exp(x.body_exponent(v))
    return out if out.shape else complex(out)


@dataclass(frozen=True)
class PriceDiagnostics:
    """What a price took.  ``tail_mass`` bounds what the series' window
    leaves out, and ``terms`` counts the Black puts it summed (1 without a
    jump body).  ``nodes`` and ``u_max_used`` are always 0: they described
    a contour integral that the series replaced, and stay only because the
    benchmark's worker and tracer read them."""

    kappa0: complex
    lambda2_q1: float
    lambda1_q2: float
    tail_mass: float
    terms: int
    nodes: int = 0
    u_max_used: float = 0.0


def _poisson_series(log_forward: float, T: float, x: _ExponentSplit, tol: float):
    """E[P_N] for N ~ Poisson(mu), mu = lam T e^{q0}, P_n the Black put
    P(log_forward + n (q1 + s2 / 2), sig2 T + n s2) after n body jumps
    (Merton 1976), with its tail bound and the number of puts summed.  The
    window walks out from the mode floor(mu) by the ratios of the Poisson
    weights, normalised by their own sum, so nothing underflows."""
    mu = x.lam * T * math.exp(x.q0)
    if not mu <= MAX_SERIES_MEAN:  # also an overflowed or NaN mu
        raise ConvergenceError(f"the jump-body series would need about {19 * mu**0.5:.3g} terms")

    g, var0 = x.q1 + 0.5 * x.s2, x.sig2 * T
    mode = math.floor(mu)
    total = mass = tail = 0.0
    terms = 0
    # one side walks up from the mode, the other down from below it
    for n, r, step in ((mode, 1.0, 1), (mode - 1, mode / mu, -1)) if mode else ((0, 1.0, 1),):
        while True:
            total += r * _black_put(log_forward + n * g, var0 + n * x.s2)
            mass, terms = mass + r, terms + 1
            # ratio is r_{n+step} / r_n, and the ratios past it are at most
            # beyond < 1 (n + 2 > mu going up, n <= mu going down); each put
            # is at most 1, so the terms past n hold at most r_n ratio / (1 - beyond)
            ratio, beyond = (mu / (n + 1), mu / (n + 2)) if step > 0 else (n / mu, (n - 1) / mu)
            bound = r * ratio / (1.0 - beyond)
            if bound <= tol:
                break
            n, r = n + step, r * ratio
        tail += bound
    return total / mass, tail / mass, terms


def _black_put(log_forward: float, var: float) -> float:
    """E[(1 - e^Y)^+] for a normal Y with Var Y = var and E[e^Y] = e^{log_forward};
    the intrinsic value (1 - e^{log_forward})^+ when var = 0."""
    if var == 0.0:
        return -math.expm1(log_forward) if log_forward < 0.0 else 0.0
    s = math.sqrt(var)
    d1 = (log_forward + 0.5 * var) / s
    # N(-d2) - F N(-d1) with N(-d) = erfc(d / sqrt 2) / 2
    r = math.sqrt(0.5)
    if log_forward >= LOG_FLOAT_MAX:
        # F overflows, and d1 >= sqrt(2 log F) > 37: F N(-d1) is phi(d2) / d1
        # times the Mills series 1 - 1/d1^2 + 3/d1^4 - ..., whose seventh
        # term is below 1e-17
        mills = sum(math.prod(range(1, 2 * k, 2)) * (-1.0 / (d1 * d1)) ** k for k in range(7))
        return 0.5 * math.erfc((d1 - s) * r) - math.exp(-0.5 * (d1 - s) ** 2) / d1 / math.sqrt(2.0 * math.pi) * mills
    return 0.5 * (math.erfc((d1 - s) * r) - math.exp(log_forward) * math.erfc(d1 * r))


def margrabe_price(mm: MargrabeModel, rel_tol: float = 1e-9):
    """Value of the option to exchange asset 2 for asset 1 at maturity.

    Returns (price, PriceDiagnostics).  The price is the first spot times
    the asset-2 default-state mass 1 - e^{kappa(0) T} plus the survival
    probability e^{kappa(0) T} times E[P_N], the Black put after N ~
    Poisson(mu) body jumps, summed until its tail bound is at most
    min(rel_tol, 1e-16).  P_0 prices the affine part kappa_aff of kappa:
    its transform e^{v l + kappa_aff(v) T} is that of a killed lognormal
    ratio, so P_0 is a Black put on e^{l + aT} with variance sigma_eff^2 T.
    """
    if not (math.isfinite(rel_tol) and rel_tol > 0.0):
        raise ValueError(f"rel_tol must be finite and positive, got {rel_tol}")
    T = mm.maturity
    lam2_q1, lam1_q2 = default_intensities(mm)
    x = _ExponentSplit.of(mm)
    log_forward = math.log(mm.spot2 / mm.spot1) + x.a * T
    mean_put, tail, terms = _poisson_series(log_forward, T, x, min(rel_tol, 1e-16))
    survival = math.exp(-lam2_q1 * T)
    price = mm.spot1 * (-math.expm1(-lam2_q1 * T) + survival * mean_put)
    if price < 0.0:
        if price < -1e-12 * mm.spot1:
            raise EngineError(f"price came out negative ({price}); model inputs are inconsistent")
        price = 0.0
    diags = PriceDiagnostics(
        # kappa(0) = -lambda2_Q1 exactly (0.0 - keeps a zero positive)
        kappa0=complex(0.0 - lam2_q1),
        lambda2_q1=lam2_q1,
        lambda1_q2=lam1_q2,
        tail_mass=survival * tail,
        terms=terms,
    )
    return price, diags
