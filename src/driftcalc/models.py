"""Process models: jump measures, truncation handling, and increment laws.

Jump measures are finite-activity only, which keeps every jump integral an
absolutely convergent sum (atoms) or a Gaussian expectation (lognormal-style
push-forwards) evaluated by tensorised Gauss-Hermite quadrature.  Truncation
choices are explicit: a triplet always records the truncation its drift
vector refers to, and ``retruncate`` moves between equivalent descriptions.

A Gaussian expectation climbs a ladder of odd tensor rules, 7, 15, ..., 255
nodes per axis, whose rungs ``_ladder`` lists as data, each a node-set level
and its rows in that level's walk; level 0's walk, one call of the
integrand, holds rungs 0 and 1 with a far-tail probe between them, about 21
standard deviations out on each axis.  One loop walks each level once, in
one floating-point error-state scope, and fails each output alone by the
first of: a NaN on rung 0; growth past the Gaussian decay at the probe
(``NonIntegrableError``); a NaN on a later rung; no two consecutive rungs
agreeing (``ConvergenceError``).  It scans for NaN only where an open
output's change is NaN.  Each measure keeps the node sets of the levels an
accepted integral used, and its truncation moments, so later integrals on
it rebuild nothing.  Jump points are real, so a real tree is integrated in
float64, a complex one in complex128.
"""

from __future__ import annotations

import enum
import functools
import math
from dataclasses import dataclass, field
from typing import Callable, NamedTuple, Optional, Sequence

import numpy as np

from .errors import ConvergenceError, EngineError, NanPointError, NonIntegrableError
from .repfn import RepFn, _nonreal

ATOM_DEDUP_TOL = 1e-12
#: Gauss-Hermite nodes per axis at the first level, and how often the count
#: n goes to 2n + 1 before a jump integral is declared non-convergent: 7, 15,
#: 31, 63, 127, 255.  Odd rules keep a node at the mean, so a step just off
#: the mean cannot sit in the same central gap of two consecutive levels (an
#: even ladder gives exactly 0.5 twice for a step at x = 0.1 on N(0, 0.5^2)).
#: The top is 255: the next rung, hermgauss(511), warns of a division by zero.
QUAD_BASE_NODES = 7
QUAD_MAX_DOUBLINGS = 5
#: The far-tail probe sits at the outermost node of this rule, +-15.2 in
#: Hermite units (about 21 standard deviations) on each axis, where the
#: 1-d Gaussian weight is 7e-102: only an integrand that outgrows the
#: Gaussian decay shows there.
QUAD_PROBE_NODES = 127
#: the largest float64 as a 0-d array: a ufunc takes a Python float operand
#: at about twice the cost, converting it on every call
_FLOAT_MAX = np.array(np.finfo(float).max)


class TruncationKind(enum.Enum):
    ZERO = "zero"
    IDENTITY = "identity"
    UNIT_CLIP = "unit_clip"


@dataclass(frozen=True)
class TruncationSpec:
    """Per-component truncation: 0, x, or x*1{|x| <= 1}."""

    kinds: tuple

    def __post_init__(self):
        kinds = tuple(self.kinds)
        object.__setattr__(self, "kinds", kinds)
        if not kinds:
            raise ValueError("truncation needs at least one component")
        for k in kinds:
            if not isinstance(k, TruncationKind):
                raise ValueError(f"expected TruncationKind, got {k!r}")

    @property
    def dim(self) -> int:
        return len(self.kinds)

    @classmethod
    def identity(cls, dim: int) -> "TruncationSpec":
        return cls((TruncationKind.IDENTITY,) * dim)

    @classmethod
    def zero(cls, dim: int) -> "TruncationSpec":
        return cls((TruncationKind.ZERO,) * dim)

    @classmethod
    def unit_clip(cls, dim: int) -> "TruncationSpec":
        return cls((TruncationKind.UNIT_CLIP,) * dim)

    @classmethod
    def from_names(cls, names: Sequence[str]) -> "TruncationSpec":
        return cls(tuple(TruncationKind(str(n)) for n in names))

    def names(self) -> list:
        return [k.value for k in self.kinds]

    def apply(self, X: np.ndarray) -> np.ndarray:
        """Apply componentwise to a batch of jump points, shape (N, d)."""
        X = np.asarray(X)
        out = np.array(X, dtype=X.dtype, copy=True)
        for i, k in enumerate(self.kinds):
            if k is TruncationKind.ZERO:
                out[:, i] = 0
            elif k is TruncationKind.UNIT_CLIP:
                out[:, i] = np.where(np.abs(X[:, i]) <= 1.0, X[:, i], 0)
        return out


@dataclass(frozen=True)
class QuadratureConfig:
    """Tolerance for jump integrals; errors are estimated by node doubling."""

    rel_tol: float = 1e-10

    def __post_init__(self):
        if not (math.isfinite(self.rel_tol) and self.rel_tol > 0.0):
            raise ValueError(f"rel_tol must be finite and positive, got {self.rel_tol}")
        # (abs_tol, rel_tol) as 0-d arrays, as _FLOAT_MAX is
        object.__setattr__(self, "_tols", (np.array(self.abs_tol), np.array(self.rel_tol)))

    @property
    def abs_tol(self) -> float:
        """The floor under rel_tol * |value|: rel_tol * 1e-2."""
        return self.rel_tol * 1e-2


DEFAULT_QUADRATURE = QuadratureConfig()


@functools.lru_cache(maxsize=None)
def _hermite_nodes(n: int):
    return np.polynomial.hermite.hermgauss(n)


def _tensor_rule(n: int, d: int):
    """The n-node Gauss-Hermite rule on d axes: points (n^d, d), weights (n^d,)."""
    u, w = _hermite_nodes(n)
    U = np.stack([g.ravel() for g in np.meshgrid(*([u] * d), indexing="ij")], axis=1)
    return U, np.prod(np.meshgrid(*([w] * d), indexing="ij"), axis=0).ravel()


def _ladder_nodes(level: int) -> int:
    """Nodes per axis at a ladder level: n -> 2n + 1 from QUAD_BASE_NODES."""
    return (QUAD_BASE_NODES + 1) * 2**level - 1


@functools.lru_cache(maxsize=None)
def _ladder(d: int):
    """The rungs on d axes in order, each (node-set level, rows of its walk),
    and the probe's rows: level 0 holds rung 0, the probe, then rung 1."""
    n, levels = _ladder_nodes(0) ** d, range(2, QUAD_MAX_DOUBLINGS + 1)
    rungs = [(0, slice(0, n)), (0, slice(n + 2 * d, None))] + [(k, slice(None)) for k in levels]
    return tuple(rungs), slice(n, n + 2 * d)


@functools.lru_cache(maxsize=None)
def _standard_rule(level: int, d: int):
    """The model-free rule of ``level`` on d axes, read-only: points in Hermite units (N, d) and
    weights (N,) divided by pi^{d/2}.  Level 0 holds, at the rows of ``_ladder``, rungs 0 and 1
    and the probe points +-u e_i, u the outermost node of the QUAD_PROBE_NODES rule."""
    U, W = _tensor_rule(_ladder_nodes(level), d)
    if level == 0:
        ((_, rung0), (_, rung1), *_), probe = _ladder(d)
        pu, pw = _hermite_nodes(QUAD_PROBE_NODES)
        # each probe point with its weight in the QUAD_PROBE_NODES tensor rule
        blocks = [(rung0, U, W), (rung1, *_tensor_rule(_ladder_nodes(1), d)),
                  (probe, pu[-1] * np.vstack([np.eye(d), -np.eye(d)]), pw[-1] * pw[QUAD_PROBE_NODES // 2] ** (d - 1))]
        size = probe.stop + _ladder_nodes(1) ** d
        U, W = np.empty((size, d)), np.empty(size)
        for rows, u, w in blocks:
            U[rows], W[rows] = u, w
    rule = U, W / np.pi ** (d / 2)
    for a in rule:
        a.setflags(write=False)
    return rule


class _NodeSet(NamedTuple):
    """The walk of one level of a Gaussian body's ladder (see ``_ladder``), read-only."""

    points: np.ndarray  # real jump points (N, d), handed to integrands
    weights: np.ndarray  # tensor-rule weights as a column (N, 1), summing to 1 over the rule


class JumpMeasure:
    """Base class for finite-activity jump measures on R^d.

    A jump law enters the drift formula through integrals against it, its
    truncation moment and its image measure, and a simulated path through
    a function's values at jumps drawn from its normalised law (atoms
    evaluate the function once and gather by drawn index); each kind of
    measure decides how it computes them here.
    """

    dim: int

    def total_mass(self) -> float:
        raise NotImplementedError

    def _integrate(self, g, quad: QuadratureConfig):
        """(value, error estimate, {failing output: its error}) of int g dF."""
        raise NotImplementedError

    def _draw(self, f: Callable) -> Callable:
        """``draw(rng, n)``: f's values (m, n) at n >= 1 jumps drawn from the
        normalised law, f mapping real points (N, d) to values (N, m)."""
        raise NotImplementedError

    def _truncation_moment(self, trunc: "TruncationSpec") -> np.ndarray:
        """int h(x) F(dx) componentwise, shape (d,); by default the integral itself
        (on atoms their sum in atom order), slow where a clip boundary crosses a body."""
        val, _ = integrate(self, trunc.apply, DEFAULT_QUADRATURE)
        return val.real

    def _image(self, f: RepFn) -> "JumpMeasure":
        """The image measure F o f^-1."""
        return MappedMeasure(self, f)


def _as_points(points) -> np.ndarray:
    """Coerce atom input to shape (K, d); 1-D input is a column of scalars."""
    pts = np.asarray(points, dtype=float)
    if pts.ndim == 1:
        pts = pts[:, None]
    if pts.ndim != 2:
        raise ValueError(f"points must be a (K, d) array, got shape {pts.shape}")
    return pts


def _atom_groups(pts: np.ndarray) -> list:
    """Group atoms closer than ATOM_DEDUP_TOL in sup norm, as lists of indices.

    Each atom joins the first group whose leading atom is that close, or else
    leads a new group; groups and their members come in atom order.
    """
    # the rows as floats, whose differences round as numpy's do
    groups, rows = [], pts.tolist()
    for k, row in enumerate(rows):
        for g in groups:
            if max([abs(a - b) for a, b in zip(row, rows[g[0]])]) < ATOM_DEDUP_TOL:
                g.append(k)
                break
        else:
            groups.append([k])
    return groups


def _flag(bad, open_, faults, error):
    """Close each open output j flagged in the (N, n) mask ``bad``: its verdict is error(first row, j)."""
    if np.count_nonzero(bad):  # bad.any() at a third of its cost
        for j in np.flatnonzero(bad.any(axis=0) & open_).tolist():
            faults[j] = error(int(np.argmax(bad[:, j])), j)
            open_[j] = False


def _flag_nan(P, vals, open_, faults):
    """Close each open output undefined at a node of P: its verdict is its first NaN."""
    _flag(np.isnan(vals), open_, faults, lambda k, j: NanPointError(
        f"integrand is undefined at quadrature node {P[k].tolist()}", point=P[k]))


def _raise_faults(faults: dict):
    """Raise the lowest-index failing output's error, carrying ``faults``."""
    if faults:
        exc = faults[min(faults)]
        exc.faults = faults
        raise exc


def _require_psd(S: np.ndarray, what: str):
    # entry by entry in floats, which round as numpy's float64 ufuncs do,
    # without their per-call cost on these small matrices
    if not all(map(math.isfinite, S.ravel().tolist())):
        raise ValueError(f"{what} must be finite")
    # np.allclose(S, S.T, atol=1e-12) on finite entries
    if any([abs(x - y) > 1e-12 + 1e-5 * abs(y) for x, y in zip(S.flat, S.T.flat)]):
        raise ValueError(f"{what} must be symmetric")
    # the eigenvalue of a 1 x 1 matrix is its entry, as eigvalsh returns it
    if (S[0, 0] if S.shape == (1, 1) else np.min(np.linalg.eigvalsh(S))) < -1e-12:
        raise ValueError(f"{what} must be positive semidefinite")


@dataclass(frozen=True, eq=False)
class FiniteAtoms(JumpMeasure):
    """Finitely many jump sizes with strictly positive arrival intensities."""

    points: np.ndarray
    intensities: np.ndarray

    def __post_init__(self):
        pts = _as_points(self.points)
        lam = np.asarray(self.intensities, dtype=float).reshape(-1)
        object.__setattr__(self, "points", pts)
        object.__setattr__(self, "intensities", lam)
        if pts.shape[0] != lam.shape[0]:
            raise ValueError("points and intensities must have matching lengths")
        if not all(map(math.isfinite, pts.ravel().tolist() + lam.tolist())):
            raise ValueError("atom positions and intensities must be finite")
        if any([x <= 0 for x in lam.tolist()]):
            raise ValueError("atom intensities must be strictly positive")
        dup = next((g for g in _atom_groups(pts) if len(g) > 1), None)
        if dup:
            raise ValueError(
                f"duplicate atoms at {pts[dup[0]].tolist()} and {pts[dup[1]].tolist()} "
                f"(closer than {ATOM_DEDUP_TOL} in sup norm)"
            )

    @property
    def dim(self) -> int:
        return self.points.shape[1]

    def total_mass(self) -> float:
        return float(self.intensities.sum())

    def _integrate(self, g, quad):
        vals = np.asarray(g(self.points))
        if self.points.shape[0] == 0:
            return np.zeros(vals.shape[1], dtype=np.complex128), 0.0, {}
        # A sequential sum in atom order, so a plain loop reproduces the
        # total bit for bit; its partial sums name an overflowing atom, as
        # a partial sum that is not finite stays so.  An overflowed value
        # (inf times a zero part) sums to NaN without a numpy warning, as
        # on every walk along a tree.
        with np.errstate(all="ignore"):
            partial = np.cumsum(self.intensities[:, None] * vals, axis=0)
        faults = {}
        # a NaN at an atom makes the total NaN: only a total that is not
        # finite costs the scans, NaN verdicts first
        if np.count_nonzero(np.isfinite(partial[-1])) < vals.shape[1]:
            open_ = np.ones(vals.shape[1], dtype=bool)
            _flag(np.isnan(vals), open_, faults, lambda k, j: NanPointError(
                f"integrand is undefined at atom {self.points[k].tolist()}", point=self.points[k]))
            _flag(~np.isfinite(partial), open_, faults, lambda k, j: EngineError(
                f"integrand overflows at atom {self.points[k].tolist()}: "
                f"the atom sum is not finite ({partial[k, j:j + 1].tolist()})"))
        # 0.0 + keeps the sign of a zero total as a sum started from 0 does
        return 0.0 + partial[-1], 0.0, faults

    def _draw(self, f):
        # f walks the K atoms once; each jump gathers its atom's values
        table = f(self.points).T.copy()
        p = self.intensities / self.intensities.sum()
        return lambda rng, n: np.take(table, rng.choice(p.size, size=n, p=p), axis=1)

    def _image(self, f):
        if self.points.shape[0] == 0:
            return empty_measure(f.output_dim)
        vals = f.eval_batch(self.points)
        if _nonreal(vals):
            raise ValueError("representation is not real-valued on the atom support")
        if np.any(~np.isfinite(vals.real)):
            raise ValueError("representation is undefined at an atom of the jump measure")
        pts, lam = vals.real, self.intensities
        # Coinciding images are merged: the image measure genuinely carries
        # their summed intensity, added up in atom order.
        groups = _atom_groups(pts)
        merged = [sum(lam[g].tolist()) for g in groups]
        return FiniteAtoms(pts[[g[0] for g in groups]], np.asarray(merged))


@dataclass(frozen=True, eq=False)
class GaussianPush(JumpMeasure):
    """lam times the push-forward of Normal(mean, cov) through z -> e^z - 1.

    Componentwise exponential map, so the support is (-1, inf)^d; covariance
    must be symmetric PSD.
    """

    intensity: float
    mean: np.ndarray
    cov: np.ndarray
    #: node sets by ladder level, kept once an accepted integral used them
    _nodes: dict = field(default_factory=dict, init=False, repr=False)

    def __post_init__(self):
        lam = float(self.intensity)
        m = np.asarray(self.mean, dtype=float).reshape(-1)
        S = np.atleast_2d(np.asarray(self.cov, dtype=float))
        object.__setattr__(self, "intensity", lam)
        object.__setattr__(self, "mean", m)
        object.__setattr__(self, "cov", S)
        if not math.isfinite(lam):
            raise ValueError("intensity must be finite")
        if lam < 0:
            raise ValueError("intensity must be nonnegative")
        if not all(map(math.isfinite, m.tolist())):
            raise ValueError("mean must be finite")
        if S.shape != (m.size, m.size):
            raise ValueError(f"jump covariance shape {S.shape} does not match mean length {m.size}")
        _require_psd(S, "jump covariance")
        # the covariance factor, shared by every node set and every draw
        object.__setattr__(self, "_factor", psd_factor(S))
        # for every integral: lam as the 0-d complex128 array the float
        # becomes in a rung sum's product
        object.__setattr__(self, "_lam", np.array(lam + 0j))

    @property
    def dim(self) -> int:
        return self.mean.size

    def total_mass(self) -> float:
        return self.intensity

    def _build_nodes(self, level: int) -> _NodeSet:
        """The standard rule of ``level`` mapped onto this body."""
        U, W = _standard_rule(level, self.dim)
        P = np.expm1(self.mean[None, :] + np.sqrt(2.0) * U @ self._factor.T)
        P.setflags(write=False)
        return _NodeSet(P, W[:, None])

    def _integrate(self, g, quad):
        if self.intensity == 0.0:
            probe = np.asarray(g(np.zeros((0, self.dim))))
            return np.zeros(probe.shape[1], dtype=np.complex128), 0.0, {}
        rungs, probe = _ladder(self.dim)
        used, level, faults, out, err = {}, None, {}, None, None
        abs_tol, rel_tol = quad._tols
        # One scope for the whole ladder, the walks of g included:
        # overflowing integrands are allowed to reach the checks below,
        # which report them instead of a numpy warning.
        with np.errstate(all="ignore"):
            for i, (k, rows) in enumerate(rungs):
                if k != level:
                    # a level's node set is walked once, for all its rungs;
                    # ``fresh`` is the first of them not scanned for NaN yet
                    level, fresh = k, i
                    used[k] = nodes = self._nodes.get(k) or self._build_nodes(k)
                    vals = np.asarray(g(nodes.points))
                    terms = nodes.weights * vals
                cur = self._lam * np.add.reduce(terms[rows], 0)
                if i == 0:
                    # the outputs with neither a value nor a verdict yet (np.ones at half its cost)
                    open_ = np.empty(cur.shape, dtype=bool)
                    open_.fill(True)
                    # The far-tail probe: an output whose integrand there,
                    # times its weight, is not finite or exceeds the
                    # tolerance of this first estimate is not integrable.  A
                    # first estimate that is not finite sets no tolerance
                    # (fmin drops a NaN and caps inf), so only a weighted
                    # value that is not finite fails; the ladder then
                    # reports it as non-convergence.
                    weighted = self._lam.real * nodes.weights[probe] * np.abs(vals[probe])
                    within = weighted <= np.fmin(np.maximum(abs_tol, rel_tol * np.abs(cur)), _FLOAT_MAX)
                    if np.count_nonzero(within) < within.size:
                        # an output undefined on rung 0 fails as such first
                        _flag_nan(nodes.points[rows], vals[rows], open_, faults)
                        fresh = 1
                        _flag(~within, open_, faults, lambda r, j: NonIntegrableError(
                            "jump integral did not converge: the integrand grows faster than the jump law "
                            f"decays near x = {nodes.points[probe][r].tolist()} (weighted value "
                            f"{weighted[r, j]:.3e} there); it is not integrable against the jump law"))
                else:
                    delta = np.abs(cur - prev)
                    done = open_ & (delta <= np.maximum(abs_tol, rel_tol * np.abs(cur)))
                    # each output keeps its value and change from the rung
                    # that settles it; rung 1 fills every slot
                    out, err = ((cur, delta) if out is None
                                else (np.where(done, cur, out), np.where(done, delta, err)))
                    open_ = open_ ^ done  # ^= costs twice as much
                    # A NaN at a node makes its rung's sum and so the change
                    # NaN: an output undefined on a rung just compared is
                    # open, and its first NaN, in rung order, is its verdict.
                    # Only such a change costs a scan, of this walk's rungs
                    # not scanned yet.
                    if np.count_nonzero(open_) and np.count_nonzero(np.isnan(delta)):
                        for _, r in rungs[fresh:i + 1]:
                            _flag_nan(nodes.points[r], vals[r], open_, faults)
                        fresh = i + 1
                    # checked from rung 1 on: the rung-0 walk computed rung 1
                    # too, so outputs that all failed on rung 0 cost no walk
                    if not np.count_nonzero(open_):
                        break
                prev = cur
            else:
                for j in np.flatnonzero(open_).tolist():
                    faults[j] = ConvergenceError(
                        f"jump integral did not converge after doubling to {_ladder_nodes(level)} "
                        f"nodes (last change {delta[j]:.3e}); the integrand may not be integrable "
                        "against the jump law, or it is discontinuous inside the law's support "
                        "(an indicator level or a clipped output truncation there), which the "
                        "Gauss-Hermite rule cannot resolve"
                    )
        if not faults:
            # the node sets this accepted integral used, kept for later ones
            self._nodes.update(used)
        # err.max(initial=0.0) at a third of its cost: a settled change is no NaN
        return out, max(err.tolist(), default=0.0), faults

    def _draw(self, f):
        return lambda rng, n: f(np.expm1(self.mean + rng.standard_normal((n, self.dim)) @ self._factor.T)).T

    def _truncation_moment(self, trunc):
        """Closed-form marginal moments of the componentwise lognormal map.

        With x_i = e^{z_i} - 1 > -1 the clip condition |x_i| <= 1 is
        z_i <= log 2, so the clipped moment is a partial lognormal
        expectation expressed through the normal distribution function.
        """
        out = np.zeros(self.dim)
        if self.intensity == 0.0:
            return out
        a = math.log(2.0)
        for i, kind in enumerate(trunc.kinds):
            m, s2 = self.mean[i], self.cov[i, i]
            if kind is TruncationKind.ZERO:
                continue
            if kind is TruncationKind.IDENTITY:
                out[i] = self.intensity * math.expm1(m + 0.5 * s2)
            elif s2 == 0.0:
                x = math.expm1(m)
                out[i] = self.intensity * (x if abs(x) <= 1.0 else 0.0)
            else:
                s = math.sqrt(s2)
                partial_exp = math.exp(m + 0.5 * s2) * _norm_cdf((a - m - s2) / s)
                prob = _norm_cdf((a - m) / s)
                out[i] = self.intensity * (partial_exp - prob)
        return out


@dataclass(frozen=True, eq=False)
class SumMeasure(JumpMeasure):
    """Superposition of jump measures over the same dimension."""

    parts: tuple

    def __post_init__(self):
        parts = tuple(self.parts)
        object.__setattr__(self, "parts", parts)
        if not parts:
            raise ValueError("a sum measure needs at least one part")
        dims = {p.dim for p in parts}
        if len(dims) != 1:
            raise ValueError(f"all parts must share one dimension, got {sorted(dims)}")

    @property
    def dim(self) -> int:
        return self.parts[0].dim

    def total_mass(self) -> float:
        return float(sum(p.total_mass() for p in self.parts))

    def _integrate(self, g, quad):
        results = []
        for p in self.parts:
            results.append(p._integrate(g, quad))
            # each output's verdict is that of the first part that fails it;
            # once every output has one, the later parts do not run
            faults = {j: e for *_, f in reversed(results) for j, e in f.items()}
            if len(faults) == results[0][0].size:
                break
        vals, errs, _ = zip(*results)
        return functools.reduce(np.add, vals), sum(errs), faults

    def _draw(self, f):
        masses = np.array([p.total_mass() for p in self.parts])
        draws = [p._draw(f) for p in self.parts]

        def draw(rng, n):
            counts = rng.multinomial(n, masses / masses.sum())
            out = np.concatenate([d(rng, c) for d, c in zip(draws, counts) if c > 0], axis=1)
            # Restore a uniformly random order so draws are exchangeable.
            return np.take(out, rng.permutation(n), axis=1)

        return draw

    def _truncation_moment(self, trunc):
        return sum(p._truncation_moment(trunc) for p in self.parts)

    def _image(self, f):
        return SumMeasure(tuple(p._image(f) for p in self.parts))


@dataclass(frozen=True, eq=False)
class MappedMeasure(JumpMeasure):
    """Image of a base measure under a representing function.

    Integration composes the integrand with the map and defers to the base
    measure, which keeps spectral accuracy for Gaussian push-forwards
    instead of materialising atoms.
    """

    base: JumpMeasure
    map_fn: RepFn

    def __post_init__(self):
        if self.map_fn.input_dim != self.base.dim:
            raise ValueError(
                f"map expects dimension {self.map_fn.input_dim}, base measure has {self.base.dim}"
            )

    @property
    def dim(self) -> int:
        return self.map_fn.output_dim

    def total_mass(self) -> float:
        return self.base.total_mass()

    def _mapped_real(self, X: np.ndarray) -> np.ndarray:
        Y = self.map_fn.eval_batch(X)
        if _nonreal(Y):
            raise NanPointError("map is not real-valued on the support of the base measure")
        return Y

    def _integrate(self, g, quad):
        return self.base._integrate(lambda X: np.asarray(g(self._mapped_real(X))), quad)

    def _draw(self, f):
        # real draws take the map's float64 path when its literals are real
        return self.base._draw(lambda X: f(self._mapped_real(X).real))


def _norm_cdf(x: float) -> float:
    return 0.5 * math.erfc(-x / math.sqrt(2.0))


def psd_factor(S: np.ndarray) -> np.ndarray:
    """A factor L with L L^T = S for symmetric PSD S.

    Cholesky when positive definite; an eigenvalue square root otherwise, so
    singular matrices (including exact zeros) factor without jitter.
    """
    S = np.asarray(S, dtype=float)
    if S.shape == (1, 1) and S[0, 0] > 0:
        return np.sqrt(S)  # the Cholesky factor, rounded alike
    try:
        return np.linalg.cholesky(S)
    except np.linalg.LinAlgError:
        w, V = np.linalg.eigh(S)
        return V * np.sqrt(np.clip(w, 0.0, None))


def empty_measure(dim: int) -> FiniteAtoms:
    return FiniteAtoms(np.zeros((0, dim)), np.zeros(0))


def sum_measure(parts, dim: int) -> JumpMeasure:
    """Superposition of ``parts``: the empty measure for none, the part itself for one."""
    parts = tuple(parts)
    if not parts:
        return empty_measure(dim)
    return parts[0] if len(parts) == 1 else SumMeasure(parts)


def truncation_moment(measure: JumpMeasure, trunc: TruncationSpec) -> np.ndarray:
    """Exact componentwise jump moment int h(x) F(dx).

    Atoms sum exactly; Gaussian push-forward bodies use closed-form partial
    lognormal expectations, which keeps clipped truncations away from the
    quadrature (the clip kink would otherwise spoil spectral convergence);
    mapped measures integrate h.  Kept per (measure, truncation), read-only.
    """
    return _moments(measure, trunc)[0]


def _moments(measure: JumpMeasure, trunc: TruncationSpec) -> tuple:
    """The truncation moment, read-only, and its complex128 cast."""
    # Computed on the first call for each (measure, truncation), and kept
    # only if it succeeds; a hit implies the dimensions matched.
    cache = measure.__dict__.setdefault("_moments", {})
    if trunc.kinds not in cache:
        if measure.dim != trunc.dim:
            raise ValueError(f"truncation dimension {trunc.dim} does not match measure {measure.dim}")
        real = np.array(measure._truncation_moment(trunc), dtype=float)
        real.setflags(write=False)
        cache[trunc.kinds] = real, real.astype(np.complex128)
    return cache[trunc.kinds]


def jump_drift_correction(measure: JumpMeasure, values_fn, jacobian, trunc, quad=None):
    """The jump part of a drift: int (xi(x) - Dxi(0) h(x)) F(dx).

    ``values_fn`` evaluates xi over a batch; ``jacobian`` is Dxi(0).  Every
    measure has finite activity, so the integral splits: int xi dF by
    ``integrate``, minus Dxi(0) times the truncation moment int h dF, which
    keeps a clipped truncation's kink out of the quadrature.  Returns
    (value, error estimate of int xi dF).
    """
    smooth, err = integrate(measure, values_fn, quad)
    return smooth - np.asarray(jacobian) @ _moments(measure, trunc)[1], err


def integrate(measure: JumpMeasure, g: Callable, quad: Optional[QuadratureConfig] = None):
    """Integrate a C^n-valued function against a jump measure.

    ``g`` takes a batch of real points (N, d) and returns values of shape
    (N, n) or (N,); atoms are summed exactly, Gaussian push-forwards use
    tensorised Gauss-Hermite quadrature with node-count doubling for the
    error estimate, its first two rules and tail probe in one call of ``g``.

    Returns (value, error_estimate) with complex ``value`` of shape (n,), or
    raises the lowest-index failing output's error, with ``faults`` set.
    """

    def g2(X):
        out = np.asarray(g(X), dtype=np.complex128)
        if out.ndim == 1:
            out = out[:, None]
        return out

    value, err, faults = measure._integrate(g2, quad or DEFAULT_QUADRATURE)
    _raise_faults(faults)
    return value, err


# ---------------------------------------------------------------------------
# characteristic triplets and discrete increment laws
# ---------------------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class LevyTriplet:
    """Characteristics (b, c, F) of a time-homogeneous process, relative to
    an explicit truncation: ``b`` is the drift of the truncated process."""

    dim: int
    b: np.ndarray
    c: np.ndarray
    jumps: JumpMeasure
    truncation: TruncationSpec

    def __post_init__(self):
        d = int(self.dim)
        # copies, so the complex casts kept below cannot go stale when the
        # caller reuses its arrays
        b = np.array(self.b, dtype=float).reshape(-1)
        c = np.atleast_2d(np.array(self.c, dtype=float))
        object.__setattr__(self, "dim", d)
        object.__setattr__(self, "b", b)
        object.__setattr__(self, "c", c)
        if b.shape != (d,):
            raise ValueError(f"drift must have shape ({d},), got {b.shape}")
        if not all(map(math.isfinite, b.tolist())):
            raise ValueError("drift must be finite")
        if c.shape != (d, d):
            raise ValueError(f"diffusion covariance must have shape ({d}, {d}), got {c.shape}")
        _require_psd(c, "diffusion covariance")
        if self.jumps.dim != d:
            raise ValueError(f"jump measure dimension {self.jumps.dim} does not match {d}")
        if self.truncation.dim != d:
            raise ValueError(f"truncation dimension {self.truncation.dim} does not match {d}")
        _require_admissible(self.truncation, self.jumps)
        # b and c in complex128, cast once for every drift on the triplet
        object.__setattr__(self, "_complex_bc", (b.astype(np.complex128), c.astype(np.complex128)))


def _require_admissible(trunc: TruncationSpec, jumps: JumpMeasure):
    """Zero truncation needs a finite small-jump first absolute moment.

    The moment is bounded by the total mass for the finite-activity measures
    supported here, so finiteness of the mass is the checked condition.
    """
    if TruncationKind.ZERO not in trunc.kinds:
        return
    if not math.isfinite(jumps.total_mass()):
        raise ValueError("zero truncation requires a finite small-jump first moment")


def retruncate(t: LevyTriplet, h_new: TruncationSpec) -> LevyTriplet:
    """Re-express a triplet relative to another truncation.

    The drift shifts by the jump moment of (h_new - h); covariance and jump
    measure are unchanged.
    """
    if h_new.dim != t.dim:
        raise ValueError(f"truncation dimension {h_new.dim} does not match triplet dimension {t.dim}")
    _require_admissible(h_new, t.jumps)
    delta = truncation_moment(t.jumps, h_new) - truncation_moment(t.jumps, t.truncation)
    return LevyTriplet(t.dim, t.b + delta, t.c, t.jumps, h_new)


class DiscreteModel(FiniteAtoms):
    """I.i.d. finite-support law for the per-period increments of a
    discrete-time process: an atom measure of total mass 1, whose
    intensities are the probabilities, so E[g(increment)] is its atom
    integral.  Built as ``DiscreteModel(points, probabilities)``."""

    def __post_init__(self):
        super().__post_init__()
        if self.size == 0:
            raise ValueError("support must be nonempty")
        if abs(self.total_mass() - 1.0) > 1e-12:
            raise ValueError(f"probabilities sum to {self.total_mass()!r}, expected 1 within 1e-12")

    @property
    def probabilities(self) -> np.ndarray:
        return self.intensities

    @property
    def size(self) -> int:
        return self.points.shape[0]
