"""Independent Monte Carlo verification of drifts, expectations, and prices.

Increments are simulated exactly, with no time discretisation: the Gaussian
part in closed form, jump times ignored, Poisson jump counts and jump sizes
from the normalised jump law.  A discrete model is the pure-jump triplet of
its increment law with floor(T) jumps a path and no diffusion.  One
pathwise kernel gives per path the represented sum or its stochastic
exponential for sums, stochastic exponentials, increments, the exchange
payoff and reweighting, whose payoff and weight are one two-output tree
walked once; the weight is divided by eta's expectation from drift.py.

A block of n paths draws its diffusion normals, where its jumps fall, then
its jumps in slices of whole paths and at most ROW_CHUNK rows (or one
longer path), each folded into its paths before the next is drawn.  Below
DENSE jumps a path a Levy block draws a Poisson(n lambda T) total, a
uniform path label a jump in one call, and sorts the labels in place (the
path ids of n i.i.d. Poisson(lambda T) counts); ``ufunc.at`` folds each
slice, cut by ``np.searchsorted``, in row order into one array.  From DENSE
on, and on a discrete model, a block takes per-path counts, and
``reduceat`` folds a chunk of DENSE rows a path or more.  Atoms walk the
tree once and gather each jump's values by drawn index.  Atom indices and
Gaussian jumps are one stream of draws however sliced; a sum measure
shuffles each slice's draw, so its estimates depend on ROW_CHUNK.

Paths are simulated in real arithmetic from the draws to the estimate: the
draws are real, a tree with real literals evaluates real draws in float64,
and only a tree with a non-real literal carries complex values.

Randomness is counter-based: block ``b`` draws from Philox(key=(seed, b)),
so an estimate is a pure function of (seed, n_paths), bit-identical across
worker counts.  The calling thread and up to ``workers`` - 1 helpers from a
pool per worker count (made on first use and kept for the process's life;
a forked child makes its own) claim blocks in order and write each by its
index into one array, whose moments ``_estimate`` then reduces in place.
"""

from __future__ import annotations

import functools
import itertools
import math
import operator
import os
import threading
import warnings
from concurrent.futures import ThreadPoolExecutor, wait
from dataclasses import dataclass
from typing import Union

import numpy as np

from .calculus import rep_identity
from .drift import _check_horizon, _require_dim, discrete_stoch_exp, expectation_stoch_exp
from .errors import EngineError
from .models import DiscreteModel, LevyTriplet, _times, psd_factor, truncation_moment
from .pricing import MargrabeModel
from .repfn import RepFn, _nonreal

Model = Union[LevyTriplet, DiscreteModel]

KURTOSIS_WARN_LEVEL = 100.0
#: paths per random-number block; part of every estimate's definition
BLOCK_SIZE = 8192
#: most jump rows a block draws and reduces at once; a path's jumps are never
#: split.  At 2^16 rows and more glibc returned and re-faulted each chunk's
#: pages, some 80 000 minor faults per discrete estimate at T = 250.
ROW_CHUNK = 1 << 15
#: jumps a path from which numpy's per-path ``poisson`` (PTRS, a few doubles
#: a path at any mean; below 10 it multiplies about mean + 1 uniforms a path,
#: dearer than one 32-bit path label a jump) draws a block's counts, and one
#: ``reduceat`` call per path, not ``ufunc.at`` per jump, folds a chunk
DENSE = 10
#: most workers an estimate takes, the calling thread and its pool's helpers
#: together; a larger count is refused rather than started as threads
MAX_WORKERS = 64


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
        if not 1 <= self.workers <= MAX_WORKERS:
            raise ValueError(f"worker count must lie in [1, {MAX_WORKERS}], got {self.workers}")
        # the Philox key holds the seed as one uint64, so no two seeds share a stream
        if not 0 <= self.seed < 2**64:
            raise ValueError(f"seed must lie in [0, 2**64), got {self.seed}")


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
    key = np.array([np.uint64(seed), np.uint64(block)], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))


@functools.cache
def _pool(workers: int) -> ThreadPoolExecutor:
    """The process's executor of the ``workers - 1`` helpers of the caller, made on first use."""
    return ThreadPoolExecutor(max_workers=workers - 1, thread_name_prefix=f"mcoracle-{workers}w")


# A forked child has none of its parent's threads, so it makes pools of its own.
os.register_at_fork(after_in_child=_pool.cache_clear)


def _collect(cfg: SimConfig, block_fn) -> np.ndarray:
    """One value per path, each block written by its index into one array;
    after a failure no block is claimed, and once the claimed ones are done
    the lowest-numbered failing block's error is raised."""
    n_blocks = -(-cfg.n_paths // BLOCK_SIZE)
    claims, lock, failed, out = itertools.count(), threading.Lock(), {}, None

    def run():
        nonlocal out
        # next() on a count is one C call, which the GIL keeps whole
        while not failed and (b := next(claims)) < n_blocks:
            try:
                block = np.asarray(block_fn(_block_rng(cfg.seed, b), min(BLOCK_SIZE, cfg.n_paths - b * BLOCK_SIZE)))
                with lock:
                    out = np.empty(cfg.n_paths, block.dtype) if out is None else out
                out[b * BLOCK_SIZE:b * BLOCK_SIZE + block.size] = block
            except Exception as exc:
                failed[b] = exc

    helpers = [_pool(cfg.workers).submit(run) for _ in range(min(cfg.workers, n_blocks) - 1)]
    try:
        run()
    finally:
        failed.setdefault(n_blocks, None)  # however the caller left, e.g. interrupted, claim no more
        for f in helpers:
            f.cancel()
        wait(helpers)
    if (first := failed[min(failed)]) is not None:
        raise first
    return out


def _estimate(values: np.ndarray) -> McEstimate:
    """Mean and standard error of real or complex per-path values, computed
    in place over them, each moment one reduction over one array, so the
    figures do not depend on how the values were blocked or gathered."""
    with np.errstate(invalid="ignore", over="ignore"):
        mean, n_bad = values.mean(), 0
    if not np.isfinite(mean):  # a finite mean is a sum of finite values
        finite = np.isfinite(values)
        n_bad = values.size - int(np.count_nonzero(finite))
        if n_bad > 0.001 * values.size:
            raise EngineError(
                f"{n_bad} of {values.size} paths produced non-finite values (> 0.1%)"
            )
        values = values[finite] if n_bad else values
        mean = values.mean()
    n = values.size
    dev = np.subtract(values, mean, out=values)
    if np.iscomplexobj(dev):
        np.square(dev.real, out=dev.real)
        np.square(dev.imag, out=dev.imag)
        dev2 = np.add(dev.real, dev.imag, out=dev.real)
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


def _row_chunks(counts: np.ndarray) -> list:
    """A block's counts split in path order into chunks of at most ROW_CHUNK jumps, or one longer path."""
    if counts.sum() <= ROW_CHUNK:  # one chunk, found without a cumulative sum
        return [counts]
    ends, bounds = np.cumsum(counts), [0]
    while bounds[-1] < counts.size:
        cap = ROW_CHUNK + (ends[bounds[-1] - 1] if bounds[-1] else 0)
        bounds.append(max(bounds[-1] + 1, int(np.searchsorted(ends, cap, side="right"))))
    return np.split(counts, bounds[1:-1])


def _path_labels(rng, n: int, mean: float) -> np.ndarray:
    """Sorted uniform path labels of a Poisson(n mean) total: the jumps of n i.i.d. Poisson(mean) counts."""
    labels = rng.integers(0, n, int(rng.poisson(n * mean)))
    labels.sort()  # in place, without the GIL
    return labels


def _fold_labels(op, draw, rng, labels: np.ndarray, out: np.ndarray) -> np.ndarray:
    """Identity-filled ``out`` (m, n) with the jumps of sorted path ``labels``,
    drawn slice by slice, folded in by ``op`` in row order; returned (n, m)."""
    lo, end = 0, labels.size
    while lo < end:
        # back to the first row of the path at row lo + ROW_CHUNK, or past one longer path
        hi = end if lo + ROW_CHUNK >= end else int(np.searchsorted(labels, labels[lo + ROW_CHUNK]))
        hi = hi if hi > lo else int(np.searchsorted(labels, labels[lo], "right"))
        for row, column in zip(out, draw(rng, hi - lo)):
            op.at(row, labels[lo:hi], column)
        lo = hi
    return out.T


def _segment_reduce(op, columns, counts: np.ndarray) -> np.ndarray:
    """Per-path folds from ``op.identity``, shape (n, m), of path-major (m, rows) jump values."""
    out = np.full((len(columns), counts.size), op.identity, dtype=columns.dtype)
    if columns.shape[1] < DENSE * counts.size:
        paths = np.repeat(np.arange(counts.size), counts)
        for row, column in zip(out, columns):
            op.at(row, paths, column)
    else:
        nz = counts > 0
        starts = (np.cumsum(counts) - counts)[nz]
        for row, column in zip(out, columns):
            row[nz] = op.reduceat(column, starts)
    return out.T


def _real_if_exact(a: np.ndarray) -> np.ndarray:
    # Jets and drifts are complex by construction; where one is real, the
    # paths stay real.  A NaN imaginary part keeps the value complex.
    return a if a.imag.any() else a.real


def _pathwise(fn: RepFn, model: Model, T: float, exponential: bool):
    """(fn o X)_T, or its stochastic exponential, per path as a function of the draws.

    With X^c_T = (b - int h dF) T + sqrt(T) Z L^T the continuous part of X
    (zero for a discrete model), the sum form is Dfn(0) X^c_T + 1/2
    tr(D^2fn(0) c) T + sum fn(dX), the exponential form exp(that continuous
    part - 1/2 Dfn c Dfn^T T) prod (1 + fn(dX)).  Returns ``paths(rng, n,
    payoff, antithetic=False)``: ``payoff`` of the (n, m) values of n paths
    from ``rng``, averaged with its value at -Z under antithetic pairing.
    """
    _check_horizon(T)
    discrete = isinstance(model, DiscreteModel)
    jumps = model if discrete else model.jumps
    op = np.multiply if exponential else np.add
    draw = jumps._draw((lambda x: 1.0 + fn.eval_batch(x)) if exponential else fn.eval_batch)
    # the values of a chunk without jumps, which draws nothing: the jumps are
    # real, so the tree's values are float64 where its literals are real
    none = np.zeros((fn.output_dim, 0), np.float64 if fn._real else np.complex128)

    def jump_part(rng, counts):
        # a chunk's jumps are freed once reduced, before the next is drawn
        parts = [_segment_reduce(op, draw(rng, rows) if (rows := int(c.sum())) else none, c)
                 for c in _row_chunks(counts)]
        return parts[0] if len(parts) == 1 else np.concatenate(parts)

    if discrete:  # no continuous part, and floor(T) jumps on every path
        def discrete_paths(rng, n, payoff, antithetic=False):
            return payoff(jump_part(rng, np.full(n, math.floor(T))))

        return discrete_paths

    mass = jumps.total_mass()
    jet = fn.jet_at_zero()
    J, H = _real_if_exact(jet.jacobian), _real_if_exact(jet.hessian)
    ito = np.einsum("kij,ij->k", H, model.c)
    if exponential:
        ito = ito - np.einsum("ki,ij,kj->k", J, model.c, J)
    const = J @ (model.b - truncation_moment(jumps, model.truncation)) * T + 0.5 * ito * T
    slope = (J @ psd_factor(model.c)).T
    root = math.sqrt(T)

    def paths(rng, n, payoff, antithetic=False):
        # diffusion normals, then every jump count or label, then the jumps chunk by chunk
        Z = rng.standard_normal((n, model.dim))
        if mass * T >= DENSE:
            jump = jump_part(rng, rng.poisson(mass * T, size=n))
        else:
            out = np.full((fn.output_dim, n), op.identity, none.dtype)
            jump = _fold_labels(op, draw, rng, _path_labels(rng, n, mass * T), out)

        def at(sign):
            x = const + _times(sign * root * Z, slope)
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
    return _pathwise(rep_identity(t.dim), t, T, exponential=False)(rng, n, np.real)


def mc_stoch_exp(xi: RepFn, model: Model, T: float, cfg: SimConfig) -> McEstimate:
    """Estimate E[stochastic exponential of (xi o X) at T], over floor(T) i.i.d. periods
    on a discrete model; antithetic pairing flips the diffusion normals only."""
    if xi.output_dim != 1:
        raise ValueError("the stochastic exponential needs a scalar representation")
    _require_dim(model, xi)
    paths = _pathwise(xi, model, T, exponential=True)
    return _estimate(_collect(cfg, lambda rng, n: paths(rng, n, _first, cfg.antithetic)))


def mc_sum(xi: RepFn, t: LevyTriplet, T: float, cfg: SimConfig) -> McEstimate:
    """Estimate E[(xi o X)_T] pathwise (linear + quadratic + jump terms), never antithetic."""
    if xi.output_dim != 1:
        raise ValueError("mc_sum needs a scalar representation")
    _require_dim(t, xi)
    paths = _pathwise(xi, t, T, exponential=False)
    return _estimate(_collect(cfg, lambda rng, n: paths(rng, n, _first)))


def mc_margrabe(mm: MargrabeModel, cfg: SimConfig) -> McEstimate:
    """Estimate E[(S1_T - S2_T)^+] under the martingale-normalised model.

    Each asset is its spot times the stochastic exponential of its own
    coordinate.  Both assets share jump times; a jump with component -1
    zeroes that asset's compounding factor permanently.
    """
    spots = np.array([mm.spot1, mm.spot2])
    paths = _pathwise(rep_identity(2), mm.triplet(), mm.maturity, exponential=True)

    def payoff(growth):
        S = spots * growth.real
        return np.maximum(S[:, 0] - S[:, 1], 0.0)

    return _estimate(_collect(cfg, lambda rng, n: paths(rng, n, payoff, cfg.antithetic)))


def mc_reweighted(
    xi: RepFn, eta: RepFn, model: Model, T: float, cfg: SimConfig
) -> McEstimate:
    """Estimate the stochastic-exponential mean of xi under the measure
    generated by eta.

    Per path the weight is the stochastic exponential of (eta o X) over its
    expectation E[w] from drift.py, real where eta is real on the support;
    an E[w] that fails or underflows raises EngineError naming it before
    any path is drawn.  Weights must be nonnegative, which is exactly the
    eta >= -1 contract.  Antithetic pairing is not applied to reweighted
    estimates.
    """
    if xi.output_dim != 1 or eta.output_dim != 1:
        raise ValueError("both representations must be scalar-valued")
    _require_dim(model, xi, eta)
    discrete = isinstance(model, DiscreteModel)
    name = "E[1 + eta]^floor(T)" if discrete else "exp(drift(eta) T)"
    try:
        norm = (discrete_stoch_exp if discrete else expectation_stoch_exp)(eta, model, T)
    except EngineError as exc:  # its class, atom and faults kept
        exc.args = (f"the measure-change normaliser {name}: {exc}",)
        raise
    norm = _real_if_exact(np.complex128(norm))
    if not abs(norm) > 0:
        raise EngineError(f"the measure-change normaliser {name} = {norm} is not finite and positive")
    scale = 1.0 / norm
    # One tree with xi and eta as its two outputs: both exponentials on the
    # same paths from one walk over the jumps.
    paths = _pathwise(RepFn(xi.input_dim, xi.outputs + eta.outputs), model, T, exponential=True)

    def payoff(vals):  # xi's exponential times eta's weight
        return _apply_weights(vals[:, 1] * scale, vals[:, 0])

    return _estimate(_collect(cfg, lambda rng, n: paths(rng, n, payoff)))


def _apply_weights(w: np.ndarray, v: np.ndarray) -> np.ndarray:
    # real weights are checked by one comparison: NaN and -inf pass on as
    # non-finite values, as they do among complex weights
    if np.iscomplexobj(w) or np.any(w < 0):
        finite = np.isfinite(w)
        if _nonreal(w[finite]):
            raise EngineError("measure-change weights are not real; eta must be real-valued")
        if np.any(w.real[finite] < 0):
            raise EngineError(
                "negative measure-change weight encountered; eta >= -1 is violated on the support"
            )
    return w.real * v
