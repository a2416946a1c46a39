"""Independent Monte Carlo verification of drifts, expectations, and prices.

Finite-activity increments are simulated exactly: Gaussian part in closed
form, jump times ignored (only terminal laws are needed), jump counts Poisson
and jump sizes drawn from the normalised jump law.  One pathwise kernel splits
each path into its continuous part and its jumps and returns either the
represented sum (linear + Ito term + summed jump transforms) or its stochastic
exponential (exp(continuous exponent) times the product of (1 + jump
transform) factors), so no time discretisation error enters.  Sums,
stochastic exponentials, reweighting, increments (the sum form of the
identity) and the exchange payoff (spots times the exponential form of the
identity) all go through it.

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

from .calculus import rep_identity
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
# exact path simulation and the pathwise kernel
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
    """Per-path reduction of jump-level rows (axis 0) laid out path-major."""
    out = np.full((counts.size,) + values.shape[1:], empty, dtype=values.dtype)
    if values.shape[0]:
        offsets = np.zeros(counts.size, dtype=np.int64)
        np.cumsum(counts[:-1], out=offsets[1:])
        nz = counts > 0
        out[nz] = op.reduceat(values, offsets[nz], axis=0)
    return out


def _real_if_exact(a: np.ndarray) -> np.ndarray:
    # Real arithmetic is several times cheaper: np.exp costs ~6x more on
    # complex values.  A NaN imaginary part keeps the array complex.
    return a if a.imag.any() else a.real


def _pathwise(fn: RepFn, t: LevyTriplet, T: float, exponential: bool):
    """(fn o X)_T, or its stochastic exponential, per path as a function of the draws.

    With X^c_T = (b - int h dF) T + sqrt(T) Z L^T the continuous part of X,
    the sum form is Dfn(0) X^c_T + 1/2 tr(D^2fn(0) c) T + sum fn(dX) and the
    exponential form is exp(that continuous part - 1/2 Dfn c Dfn^T T) times
    prod (1 + fn(dX)).  Returns ``paths(Z, counts, jumps, payoff,
    antithetic=False)``: ``payoff`` of the (n, m) values at Z, averaged with
    its value at -Z under antithetic pairing.
    """
    jet = fn.jet_at_zero()
    J, H = _real_if_exact(jet.jacobian), _real_if_exact(jet.hessian)
    ito = np.einsum("kij,ij->k", H, t.c)
    if exponential:
        ito = ito - np.einsum("ki,ij,kj->k", J, t.c, J)
    const = J @ (t.b - truncation_moment(t.jumps, t.truncation)) * T + 0.5 * ito * T
    slope = (J @ psd_factor(t.c)).T
    root = math.sqrt(T)

    def paths(Z, counts, jumps, payoff, antithetic=False):
        vals = _real_if_exact(fn.eval_batch(jumps))
        if exponential:
            jump = _segment_reduce(np.multiply, 1.0 + vals, counts, 1.0)
        else:
            jump = _segment_reduce(np.add, vals, counts, 0.0)

        def at(sign):
            x = const + (sign * root * Z) @ slope
            return payoff(np.exp(x) * jump if exponential else x + jump)

        return 0.5 * (at(1.0) + at(-1.0)) if antithetic else at(1.0)

    return paths


def _first(values: np.ndarray) -> np.ndarray:
    return values[:, 0]


def sample_increment_batch(
    t: LevyTriplet, T: float, rng: np.random.Generator, n: int
) -> np.ndarray:
    """Draw n exact terminal increments X_T - X_0, shape (n, d): the sum form
    of the identity, i.e. the continuous part plus all jumps."""
    if T < 0:
        raise ValueError("time horizon must be nonnegative")
    paths = _pathwise(rep_identity(t.dim), t, T, exponential=False)
    return paths(*_draw_paths(t, T, rng, n), np.real)


def sample_increment(t: LevyTriplet, T: float, rng: np.random.Generator) -> np.ndarray:
    """Draw one exact terminal increment, shape (d,)."""
    return sample_increment_batch(t, T, rng, 1)[0]


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
    paths = _pathwise(xi, model, T, exponential=True)
    return _estimate(
        _collect(cfg, lambda rng, n: paths(*_draw_paths(model, T, rng, n), _first, cfg.antithetic))
    )


def mc_sum(xi: RepFn, t: LevyTriplet, T: float, cfg: SimConfig) -> McEstimate:
    """Estimate E[(xi o X)_T] pathwise (linear + quadratic + jump terms)."""
    if xi.output_dim != 1:
        raise ValueError("mc_sum needs a scalar representation")
    paths = _pathwise(xi, t, T, exponential=False)
    return _estimate(_collect(cfg, lambda rng, n: paths(*_draw_paths(t, T, rng, n), _first)))


def mc_margrabe(mm: MargrabeModel, cfg: SimConfig) -> McEstimate:
    """Estimate E[(S1_T - S2_T)^+] under the martingale-normalised model.

    Each asset is its spot times the stochastic exponential of its own
    coordinate.  Both assets share jump times; a jump with component -1
    zeroes that asset's compounding factor permanently.
    """
    t = mm.triplet()
    T = mm.maturity
    spots = np.array([mm.spot1, mm.spot2])
    paths = _pathwise(rep_identity(2), t, T, exponential=True)

    def payoff(growth):
        S = spots * growth.real
        return np.maximum(S[:, 0] - S[:, 1], 0.0)

    return _estimate(
        _collect(cfg, lambda rng, n: paths(*_draw_paths(t, T, rng, n), payoff, cfg.antithetic))
    )


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
        xi_paths, eta_paths = (_pathwise(f, model, T, exponential=True) for f in (xi, eta))
        norm_rate = drift(eta, model).total[0]

        def block(rng, size):
            # Shared draws: evaluate both exponentials on the same paths.
            draws = _draw_paths(model, T, rng, size)
            return _apply_weights(
                eta_paths(*draws, _first) / np.exp(norm_rate * T), xi_paths(*draws, _first)
            )

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
