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
identity) all go through it.  A reweighted estimate walks one two-output tree
per block, so the payoff and the weight share a single evaluation of the
jumps.

Paths are simulated in real arithmetic from the draws to the estimate: the
draws are real, a tree with real literals evaluates real draws in float64,
and only a tree with a non-real literal carries complex values.

Randomness is counter-based: block ``b`` of a run draws from
Philox(key=(seed, b)), which makes every estimate a pure function of
(seed, n_paths) and therefore bit-identical across worker counts.  Block
results are written in block order into one array and reduced there.

With ``workers`` > 1 the blocks run on one thread pool per worker count,
made on first use and kept for the life of the process, so an estimate
starts no thread once its pool exists; a forked child drops its parent's
pools and makes its own.  ``workers`` == 1 runs the blocks in the calling
thread.
"""

from __future__ import annotations

import functools
import math
import operator
import os
import warnings
from concurrent.futures import ThreadPoolExecutor, wait
from dataclasses import dataclass
from typing import Union

import numpy as np

from .calculus import rep_identity
from .drift import _check_horizon, drift
from .errors import EngineError
from .models import DiscreteModel, LevyTriplet, psd_factor, truncation_moment
from .pricing import MargrabeModel
from .repfn import RepFn, _nonreal

KURTOSIS_WARN_LEVEL = 100.0
#: paths per random-number block; part of every estimate's definition
BLOCK_SIZE = 8192
#: most support indices the discrete sampler draws at once (8 MB of indices)
DISCRETE_DRAW_CHUNK = 1 << 20


@dataclass(frozen=True)
class SimConfig:
    """Simulation size, seeding, and execution layout."""

    n_paths: int
    seed: int
    antithetic: bool = False
    workers: int = 1

    def __post_init__(self):
        # numpy integers become ints; a float or a bool is refused
        for name in ("n_paths", "seed", "workers"):
            value = getattr(self, name)
            try:
                index = None if isinstance(value, bool) else operator.index(value)
            except TypeError:
                index = None
            if index is None:
                raise ValueError(f"{name} must be an integer, got {value!r}")
            object.__setattr__(self, name, index)
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


@functools.cache
def _pool(workers: int) -> ThreadPoolExecutor:
    """The process's executor of ``workers`` threads, made on first use."""
    return ThreadPoolExecutor(max_workers=workers, thread_name_prefix=f"mcoracle-{workers}w")


# A forked child has none of its parent's threads, so it makes pools of its own.
os.register_at_fork(after_in_child=_pool.cache_clear)


def _collect(cfg: SimConfig, block_fn) -> np.ndarray:
    """One value per path, block by block, written in block order into one array."""
    starts = range(0, cfg.n_paths, BLOCK_SIZE)

    def run(start: int) -> np.ndarray:
        rng = _block_rng(cfg.seed, start // BLOCK_SIZE)
        return np.asarray(block_fn(rng, min(BLOCK_SIZE, cfg.n_paths - start)))

    futures = [] if cfg.workers == 1 else [_pool(cfg.workers).submit(run, s) for s in starts]
    blocks = (f.result() for f in futures) if futures else map(run, starts)
    try:
        for start, block in zip(starts, blocks):
            if start == 0:
                out = np.empty(cfg.n_paths, block.dtype)
            out[start:start + block.size] = block
        return out
    finally:
        # a failed block leaves no other block running past the call
        for f in futures:
            f.cancel()
        wait(futures)


def _estimate(values: np.ndarray) -> McEstimate:
    """Mean and standard error of real or complex per-path values.

    Each moment is one reduction over one contiguous array, so the figures
    do not depend on how the values were blocked or gathered.
    """
    finite = np.isfinite(values)
    n_bad = values.size - int(np.count_nonzero(finite))
    if n_bad > 0.001 * values.size:
        raise EngineError(
            f"{n_bad} of {values.size} paths produced non-finite values (> 0.1%)"
        )
    good = values[finite] if n_bad else values
    n = good.size
    mean = good.mean()
    dev = good - mean
    if np.iscomplexobj(dev):
        np.square(dev.real, out=dev.real)
        np.square(dev.imag, out=dev.imag)
        dev2 = dev.real + dev.imag
    else:
        dev2 = np.multiply(dev, dev, out=dev)
    var = float(dev2.sum() / (n - 1)) if n > 1 else 0.0
    se = math.sqrt(var / n) if n else float("inf")
    m2 = float(dev2.mean())
    kurt = float(np.square(dev2, out=dev2).mean() / m2**2) if m2 > 0 else float("nan")
    if kurt > KURTOSIS_WARN_LEVEL:
        warnings.warn(
            f"heavy-tailed sample (kurtosis {kurt:.1f}); the standard error may be optimistic",
            stacklevel=3,
        )
    return McEstimate(
        mean=complex(mean), std_error=se, n_effective=n, n_nonfinite=n_bad, kurtosis=kurt
    )


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
    # Jets and drifts are complex by construction; where one is real, the
    # paths stay real.  A NaN imaginary part keeps the value complex.
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
        vals = fn.eval_batch(jumps)
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
    _check_horizon(T)
    paths = _pathwise(rep_identity(t.dim), t, T, exponential=False)
    return paths(*_draw_paths(t, T, rng, n), np.real)


def sample_increment(t: LevyTriplet, T: float, rng: np.random.Generator) -> np.ndarray:
    """Draw one exact terminal increment, shape (d,)."""
    return sample_increment_batch(t, T, rng, 1)[0]


def _discrete_products(m: DiscreteModel, steps: int, rng, size: int, *factors):
    """Per-path products of each factor vector over ``steps`` i.i.d. support draws.

    The support indices are drawn in row chunks of at most DISCRETE_DRAW_CHUNK
    indices.  ``choice`` fills its uniforms in C order, so the chunks draw
    the indices of one (size, steps) draw.
    """
    rows = max(1, DISCRETE_DRAW_CHUNK // max(steps, 1))
    parts = []
    for start in range(0, size, rows):
        idx = rng.choice(m.size, size=(min(rows, size - start), steps), p=m.probabilities)
        parts.append([np.prod(f[idx], axis=1) for f in factors])
    return [np.concatenate(products) for products in zip(*parts)]


Model = Union[LevyTriplet, DiscreteModel]


def mc_stoch_exp(xi: RepFn, model: Model, T: float, cfg: SimConfig) -> McEstimate:
    """Estimate E[stochastic exponential of (xi o X) at T] by simulation.

    Continuous models simulate the Gaussian exponent in law and the jumps
    exactly; discrete models draw floor(T) i.i.d. increments per path.
    Antithetic pairing flips the diffusion normals only.
    """
    if xi.output_dim != 1:
        raise ValueError("the stochastic exponential needs a scalar representation")
    _check_horizon(T)
    if isinstance(model, DiscreteModel):
        steps = math.floor(T)
        vals = 1.0 + xi.eval_batch(model.points)[:, 0]
        return _estimate(
            _collect(cfg, lambda rng, n: _discrete_products(model, steps, rng, n, vals)[0])
        )
    paths = _pathwise(xi, model, T, exponential=True)
    return _estimate(
        _collect(cfg, lambda rng, n: paths(*_draw_paths(model, T, rng, n), _first, cfg.antithetic))
    )


def mc_sum(xi: RepFn, t: LevyTriplet, T: float, cfg: SimConfig) -> McEstimate:
    """Estimate E[(xi o X)_T] pathwise (linear + quadratic + jump terms).

    Antithetic pairing is not applied to sum estimates.
    """
    if xi.output_dim != 1:
        raise ValueError("mc_sum needs a scalar representation")
    _check_horizon(T)
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
    _check_horizon(T)

    if isinstance(model, DiscreteModel):
        steps = math.floor(T)
        xi_vals, eta_vals = (1.0 + f.eval_batch(model.points)[:, 0] for f in (xi, eta))
        norm = (model.probabilities * eta_vals).sum().item() ** steps

        def block(rng, size):
            v, w = _discrete_products(model, steps, rng, size, xi_vals, eta_vals)
            return _apply_weights(w / norm, v)

    else:
        # One tree with xi and eta as its two outputs: both exponentials on
        # the same paths from one walk over the jumps.
        paths = _pathwise(RepFn(xi.input_dim, xi.outputs + eta.outputs), model, T, exponential=True)
        scale = 1.0 / _real_if_exact(np.exp(drift(eta, model).total[0] * T))

        def block(rng, size):
            vals = paths(*_draw_paths(model, T, rng, size), np.asarray)
            return _apply_weights(vals[:, 1] * scale, vals[:, 0])

    return _estimate(_collect(cfg, block))


def _apply_weights(w: np.ndarray, v: np.ndarray) -> np.ndarray:
    finite = np.isfinite(w)
    if _nonreal(w[finite]):
        raise EngineError("measure-change weights are not real; eta must be real-valued")
    if np.any(w.real[finite] < 0):
        raise EngineError(
            "negative measure-change weight encountered; eta >= -1 is violated on the support"
        )
    return w.real * v
