"""Independent Monte Carlo verification of drifts, expectations, and prices.

Finite-activity increments are simulated exactly: Gaussian part in closed
form, jump times ignored (only terminal laws are needed), jump counts Poisson
and jump sizes drawn from the normalised jump law.  Stochastic exponentials
are evaluated pathwise as exp(continuous exponent) times the product of
(1 + jump transform) factors, so no time discretisation error enters.

Randomness is counter-based: block ``b`` of a run draws from
Philox(key=(seed, b)), which makes every estimate a pure function of
(seed, n_paths) and therefore bit-identical across worker counts.  Block
results are reduced in block order.
"""

from __future__ import annotations

import math
import warnings
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Union

import numpy as np

from .drift import drift
from .errors import EngineError
from .models import DiscreteModel, LevyTriplet, psd_factor, truncation_moment
from .pricing import MargrabeModel
from .repfn import RepFn, _nonreal

KURTOSIS_WARN_LEVEL = 100.0
#: paths per random-number block; part of every estimate's definition
BLOCK_SIZE = 8192


@dataclass(frozen=True)
class SimConfig:
    """Simulation size, seeding, and execution layout."""

    n_paths: int
    seed: int
    antithetic: bool = False
    workers: int = 1

    def __post_init__(self):
        if self.n_paths < 2:
            raise ValueError("need at least two paths")
        if self.workers < 1:
            raise ValueError("worker count must be positive")


@dataclass(frozen=True)
class McEstimate:
    """Sample mean with its standard error and basic health diagnostics."""

    mean: complex
    std_error: float
    n_effective: int
    n_nonfinite: int = 0
    kurtosis: float = float("nan")

    def z_score(self, reference: complex) -> float:
        if self.std_error == 0.0:
            return 0.0 if self.mean == reference else float("inf")
        return abs(self.mean - reference) / self.std_error


def _block_rng(seed: int, block: int) -> np.random.Generator:
    key = np.array([np.uint64(seed & (2**64 - 1)), np.uint64(block)], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))


def _collect(cfg: SimConfig, block_fn) -> np.ndarray:
    """Run one complex value per path, blockwise, reduced in block order."""
    full, rem = divmod(cfg.n_paths, BLOCK_SIZE)
    sizes = [BLOCK_SIZE] * full + ([rem] if rem else [])

    def run(b: int) -> np.ndarray:
        return np.asarray(block_fn(_block_rng(cfg.seed, b), sizes[b]), dtype=np.complex128)

    if cfg.workers == 1:
        chunks = [run(b) for b in range(len(sizes))]
    else:
        with ThreadPoolExecutor(max_workers=cfg.workers) as pool:
            chunks = list(pool.map(run, range(len(sizes))))
    return np.concatenate(chunks)


def _estimate(values: np.ndarray) -> McEstimate:
    finite = np.isfinite(values.real) & np.isfinite(values.imag)
    n_bad = int((~finite).sum())
    if n_bad > 0.001 * values.size:
        raise EngineError(
            f"{n_bad} of {values.size} paths produced non-finite values (> 0.1%)"
        )
    good = values[finite]
    n = good.size
    mean = complex(good.mean())
    dev2 = np.abs(good - mean) ** 2
    var = float(dev2.sum() / (n - 1)) if n > 1 else 0.0
    se = math.sqrt(var / n) if n else float("inf")
    m2 = float(dev2.mean())
    kurt = float((dev2**2).mean() / m2**2) if m2 > 0 else float("nan")
    if kurt > KURTOSIS_WARN_LEVEL:
        warnings.warn(
            f"heavy-tailed sample (kurtosis {kurt:.1f}); the standard error may be optimistic",
            stacklevel=3,
        )
    return McEstimate(mean=mean, std_error=se, n_effective=n, n_nonfinite=n_bad, kurtosis=kurt)


# ---------------------------------------------------------------------------
# exact increment simulation
# ---------------------------------------------------------------------------


def _draw_jump_batch(t: LevyTriplet, T: float, rng: np.random.Generator, n: int):
    """Poisson jump counts per path plus all jump sizes, path-major order."""
    mass = t.jumps.total_mass()
    if mass <= 0:
        return np.zeros(n, dtype=np.int64), np.zeros((0, t.dim))
    counts = rng.poisson(mass * T, size=n)
    total = int(counts.sum())
    jumps = t.jumps._sample(rng, total) if total else np.zeros((0, t.dim))
    return counts, jumps


def _draw_paths(t: LevyTriplet, T: float, rng: np.random.Generator, n: int):
    """Diffusion normals (n, d), then jump counts and sizes: (Z, counts, jumps)."""
    Z = rng.standard_normal((n, t.dim))
    return (Z, *_draw_jump_batch(t, T, rng, n))


def _segment_reduce(op, values: np.ndarray, counts: np.ndarray, empty):
    """Per-path reduction of jump-level values laid out path-major."""
    n = counts.size
    out = np.full(n, empty, dtype=values.dtype if values.size else np.complex128)
    if values.size == 0:
        return out
    offsets = np.zeros(n, dtype=np.int64)
    np.cumsum(counts[:-1], out=offsets[1:])
    nz = counts > 0
    out[nz] = op.reduceat(values, offsets[nz])
    return out


def sample_increment_batch(
    t: LevyTriplet, T: float, rng: np.random.Generator, n: int
) -> np.ndarray:
    """Draw n exact terminal increments X_T - X_0, shape (n, d).

    Composition: drift of the truncated process, Gaussian part in closed
    form, all jumps, minus the truncation compensator accumulated over [0,T].
    """
    if T < 0:
        raise ValueError("time horizon must be nonnegative")
    comp = truncation_moment(t.jumps, t.truncation)
    L = psd_factor(t.c)
    Z, counts, jumps = _draw_paths(t, T, rng, n)
    out = (t.b - comp) * T + math.sqrt(T) * Z @ L.T
    for i in range(t.dim):
        col = jumps[:, i].astype(np.complex128) if jumps.size else np.zeros(0, dtype=np.complex128)
        out[:, i] += _segment_reduce(np.add, col, counts, 0.0).real
    return out


def sample_increment(t: LevyTriplet, T: float, rng: np.random.Generator) -> np.ndarray:
    """Draw one exact terminal increment, shape (d,)."""
    return sample_increment_batch(t, T, rng, 1)[0]


# ---------------------------------------------------------------------------
# pathwise stochastic exponentials
# ---------------------------------------------------------------------------


def _stoch_exp_kernel(fn: RepFn, t: LevyTriplet, T: float):
    """The pathwise stochastic exponential of (fn o X) at T, as a function of the draws.

    Returns ``paths(Z, counts, jumps, antithetic=False)``: per path,
    exp(continuous exponent) * prod(1 + fn(jump)).  Antithetic pairing
    averages the continuous factor over Z and -Z.
    """
    jet = fn.jet_at_zero()
    J, H = jet.jacobian[0], jet.hessian[0]
    drift_term = J @ (t.b - truncation_moment(t.jumps, t.truncation)).astype(np.complex128) * T
    exponent = drift_term + 0.5 * (np.einsum("ij,ij->", H, t.c) - J @ t.c @ J) * T
    slope = math.sqrt(T) * (J @ psd_factor(t.c))

    def paths(Z, counts, jumps, antithetic=False):
        factors = 1.0 + fn.eval_batch(jumps.astype(np.complex128))[:, 0]
        jump_prod = _segment_reduce(np.multiply, factors, counts, 1.0 + 0j)
        if antithetic:
            continuous = 0.5 * (np.exp(exponent + Z @ slope) + np.exp(exponent + (-Z) @ slope))
        else:
            continuous = np.exp(exponent + Z @ slope)
        return continuous * jump_prod

    return paths


def _discrete_products(m: DiscreteModel, steps: int, rng, size: int, *factors):
    """Per-path products of each factor vector over ``steps`` i.i.d. support draws."""
    idx = rng.choice(m.size, size=(size, steps), p=m.probabilities)
    return [np.prod(f[idx], axis=1) for f in factors]


Model = Union[LevyTriplet, DiscreteModel]


def mc_stoch_exp(xi: RepFn, model: Model, T: float, cfg: SimConfig) -> McEstimate:
    """Estimate E[stochastic exponential of (xi o X) at T] by simulation.

    Continuous models simulate the Gaussian exponent in law and the jumps
    exactly; discrete models draw floor(T) i.i.d. increments per path.
    Antithetic pairing flips the diffusion normals only.
    """
    if xi.output_dim != 1:
        raise ValueError("the stochastic exponential needs a scalar representation")
    if isinstance(model, DiscreteModel):
        steps = math.floor(T)
        vals = 1.0 + xi.eval_batch(model.points.astype(np.complex128))[:, 0]
        return _estimate(
            _collect(cfg, lambda rng, n: _discrete_products(model, steps, rng, n, vals)[0])
        )
    paths = _stoch_exp_kernel(xi, model, T)
    return _estimate(
        _collect(cfg, lambda rng, n: paths(*_draw_paths(model, T, rng, n), cfg.antithetic))
    )


def mc_sum(xi: RepFn, t: LevyTriplet, T: float, cfg: SimConfig) -> McEstimate:
    """Estimate E[(xi o X)_T] pathwise (linear + quadratic + jump terms)."""
    if xi.output_dim != 1:
        raise ValueError("mc_sum needs a scalar representation")
    comp = truncation_moment(t.jumps, t.truncation)
    jet = xi.jet_at_zero()
    J = jet.jacobian[0]
    H = jet.hessian[0]
    L = psd_factor(t.c)

    def block(rng, size):
        Z, counts, jumps = _draw_paths(t, T, rng, size)
        x_trunc = (t.b - comp) * T + math.sqrt(T) * Z @ L.T
        if jumps.shape[0]:
            hj = t.truncation.apply(jumps)
            x_trunc_jump = np.zeros((size, t.dim))
            for i in range(t.dim):
                x_trunc_jump[:, i] = _segment_reduce(
                    np.add, hj[:, i].astype(np.complex128), counts, 0.0
                ).real
            corr = xi.eval_batch(jumps.astype(np.complex128))[:, 0] - hj.astype(
                np.complex128
            ) @ J
            jump_corr = _segment_reduce(np.add, corr, counts, 0.0)
        else:
            x_trunc_jump = np.zeros((size, t.dim))
            jump_corr = np.zeros(size, dtype=np.complex128)
        linear = (x_trunc + x_trunc_jump).astype(np.complex128) @ J
        ito = 0.5 * np.einsum("ij,ij->", H, t.c) * T
        return linear + ito + jump_corr

    return _estimate(_collect(cfg, block))


def mc_margrabe(mm: MargrabeModel, cfg: SimConfig) -> McEstimate:
    """Estimate E[(S1_T - S2_T)^+] under the martingale-normalised model.

    Both assets share jump times; a jump with component -1 zeroes that
    asset's compounding factor permanently.
    """
    t = mm.triplet()
    comp = truncation_moment(t.jumps, t.truncation)
    L = psd_factor(t.c)
    spots = np.array([mm.spot1, mm.spot2])
    T = mm.maturity
    cont_drift = (t.b - comp) * T - 0.5 * np.diag(t.c) * T

    def block(rng, size):
        Z, counts, jumps = _draw_paths(t, T, rng, size)
        prods = np.empty((size, 2))
        for i in range(2):
            if jumps.shape[0]:
                factors = (1.0 + jumps[:, i]).astype(np.complex128)
                prods[:, i] = _segment_reduce(np.multiply, factors, counts, 1.0 + 0j).real
            else:
                prods[:, i] = 1.0

        def payoff(gauss):
            S = spots * np.exp(cont_drift + gauss) * prods
            return np.maximum(S[:, 0] - S[:, 1], 0.0)

        G = math.sqrt(T) * Z @ L.T
        out = payoff(G)
        if cfg.antithetic:
            out = 0.5 * (out + payoff(-G))
        return out.astype(np.complex128)

    return _estimate(_collect(cfg, block))


def mc_reweighted(
    xi: RepFn, eta: RepFn, model: Model, T: float, cfg: SimConfig
) -> McEstimate:
    """Estimate the stochastic-exponential mean of xi under the measure
    generated by eta.

    Per path the weight is the stochastic exponential of (eta o X) divided
    by its expectation (a deterministic compensator factor); weights must be
    nonnegative, which is exactly the eta >= -1 contract.  Antithetic
    pairing is not applied to reweighted estimates.
    """
    if xi.output_dim != 1 or eta.output_dim != 1:
        raise ValueError("both representations must be scalar-valued")

    if isinstance(model, DiscreteModel):
        steps = math.floor(T)
        pts = model.points.astype(np.complex128)
        xi_vals, eta_vals = (1.0 + f.eval_batch(pts)[:, 0] for f in (xi, eta))
        norm = complex((model.probabilities * eta_vals).sum()) ** steps

        def block(rng, size):
            v, w = _discrete_products(model, steps, rng, size, xi_vals, eta_vals)
            return _apply_weights(w / norm, v)

    else:
        xi_paths = _stoch_exp_kernel(xi, model, T)
        eta_paths = _stoch_exp_kernel(eta, model, T)
        norm_rate = drift(eta, model).total[0]

        def block(rng, size):
            # Shared draws: evaluate both exponentials on the same paths.
            draws = _draw_paths(model, T, rng, size)
            return _apply_weights(eta_paths(*draws) / np.exp(norm_rate * T), xi_paths(*draws))

    return _estimate(_collect(cfg, block))


def _apply_weights(w: np.ndarray, v: np.ndarray) -> np.ndarray:
    finite = np.isfinite(w.real) & np.isfinite(w.imag)
    if _nonreal(w[finite]):
        raise EngineError("measure-change weights are not real; eta must be real-valued")
    if np.any(w.real[finite] < 0):
        raise EngineError(
            "negative measure-change weight encountered; eta >= -1 is violated on the support"
        )
    return w.real * v
