"""Process models: jump measures, truncation handling, and increment laws.

Jump measures are finite-activity only, which keeps every jump integral an
absolutely convergent sum (atoms) or a Gaussian expectation (lognormal-style
push-forwards) evaluated by tensorised Gauss-Hermite quadrature.  Truncation
choices are explicit: a triplet always records the truncation its drift
vector refers to, and ``retruncate`` moves between equivalent descriptions.

A Gaussian expectation climbs a ladder of odd tensor rules, 7, 15, 31, ...,
255 nodes per axis, and stops at the first two levels whose estimates agree
output by output.  Each measure keeps the node sets of the levels an
accepted integral used, so later integrals on it rebuild nothing.  One call
of the integrand covers the first two levels and a far-tail probe, about 21
standard deviations out along each axis; an integrand that outgrows the
Gaussian decay there raises ``NonIntegrableError`` instead of converging to
a finite but meaningless number on the low levels.  Jump points are real,
so a real tree is integrated in float64, a complex one in complex128.
"""

from __future__ import annotations

import enum
import functools
import math
from dataclasses import dataclass, field
from typing import Callable, NamedTuple, Optional, Sequence

import numpy as np

from .errors import ConvergenceError, EngineError, NanPointError, NonIntegrableError
from .repfn import RepFn, _nonreal, _require_defined

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

    @property
    def abs_tol(self) -> float:
        """The floor under rel_tol * |value|: rel_tol * 1e-2."""
        return self.rel_tol * 1e-2


DEFAULT_QUADRATURE = QuadratureConfig()


@functools.lru_cache(maxsize=None)
def _hermite_nodes(n: int):
    x, w = np.polynomial.hermite.hermgauss(n)
    return x, w


def _tensor_rule(n: int, d: int):
    """The n-node Gauss-Hermite rule on d axes: points (n^d, d), weights (n^d,)."""
    u, w = _hermite_nodes(n)
    U = np.stack([g.ravel() for g in np.meshgrid(*([u] * d), indexing="ij")], axis=1)
    return U, np.prod(np.meshgrid(*([w] * d), indexing="ij"), axis=0).ravel()


def _ladder_nodes(level: int) -> int:
    """Nodes per axis at a ladder level: n -> 2n + 1 from QUAD_BASE_NODES."""
    return (QUAD_BASE_NODES + 1) * 2**level - 1


class _NodeSet(NamedTuple):
    """One level of a Gaussian body's quadrature ladder (level 0 also holds the
    probe and level 1), read-only."""

    points: np.ndarray  # real jump points (N, d), handed to integrands
    weights: np.ndarray  # tensor-rule weights (N,), summing to 1 over the rule


class JumpMeasure:
    """Base class for finite-activity jump measures on R^d.

    A jump law enters the drift formula through integrals against it, its
    truncation moment and its image measure; each kind of measure decides
    how it computes them here.
    """

    dim: int

    def total_mass(self) -> float:
        raise NotImplementedError

    def _integrate(self, g, quad: QuadratureConfig):
        raise NotImplementedError

    def _sample(self, rng: np.random.Generator, n: int) -> np.ndarray:
        """Draw n jumps from the normalised law, shape (n, d)."""
        raise NotImplementedError

    def _truncation_moment(self, trunc: "TruncationSpec") -> np.ndarray:
        """int h(x) F(dx) componentwise, shape (d,); by default the integral
        itself, slow where a clip boundary crosses a Gaussian body's support."""
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
    groups: list = []
    for k in range(pts.shape[0]):
        for g in groups:
            if np.max(np.abs(pts[k] - pts[g[0]])) < ATOM_DEDUP_TOL:
                g.append(k)
                break
        else:
            groups.append([k])
    return groups


def _require_psd(S: np.ndarray, what: str):
    if not np.isfinite(S).all():
        raise ValueError(f"{what} must be finite")
    # np.allclose(S, S.T, atol=1e-12) on finite entries, without its overhead
    if not (np.abs(S - S.T) <= 1e-12 + 1e-5 * np.abs(S.T)).all():
        raise ValueError(f"{what} must be symmetric")
    if np.min(np.linalg.eigvalsh(S)) < -1e-12:
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
        if not np.all(np.isfinite(pts)) or not np.all(np.isfinite(lam)):
            raise ValueError("atom positions and intensities must be finite")
        if lam.size and np.any(lam <= 0):
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
            return np.zeros(vals.shape[1], dtype=np.complex128), 0.0
        _require_defined(vals, self.points, "integrand is undefined at atom")
        # A sequential sum in atom order, so a plain loop reproduces the
        # total bit for bit; its partial sums name an overflowing atom.  An
        # overflowed value (inf times a zero part) sums to NaN without a
        # numpy warning, as on every walk along a tree.
        with np.errstate(all="ignore"):
            partial = np.cumsum(self.intensities[:, None] * vals, axis=0)
        # 0.0 + keeps the sign of a zero total as a sum started from 0 does
        total = 0.0 + partial[-1]
        if not np.isfinite(total).all():
            k = int(np.argmin(np.isfinite(partial).all(axis=1)))
            raise EngineError(
                f"integrand overflows at atom {self.points[k].tolist()}: "
                f"the atom sum is not finite ({partial[k].tolist()})"
            )
        return total, 0.0

    def _sample(self, rng, n):
        if self.points.shape[0] == 0:
            raise ValueError("cannot sample from an empty atom measure")
        p = self.intensities / self.intensities.sum()
        idx = rng.choice(self.points.shape[0], size=n, p=p)
        return self.points[idx]

    def _truncation_moment(self, trunc):
        if self.points.shape[0] == 0:
            return np.zeros(self.dim)
        # the sequential sum of _integrate, so drift components computed
        # through either path cancel bit for bit
        return 0.0 + np.cumsum(self.intensities[:, None] * trunc.apply(self.points), axis=0)[-1]

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
        if not np.all(np.isfinite(m)):
            raise ValueError("mean must be finite")
        if S.shape != (m.size, m.size):
            raise ValueError(f"covariance shape {S.shape} does not match mean length {m.size}")
        _require_psd(S, "covariance")
        # the covariance factor, shared by every node set and every draw
        object.__setattr__(self, "_factor", psd_factor(S))

    @property
    def dim(self) -> int:
        return self.mean.size

    def total_mass(self) -> float:
        return self.intensity

    def _build_nodes(self, level: int) -> _NodeSet:
        """The tensor rule of ``level``; level 0 is the 7-node rule, the 2d
        probe points +-u e_i (u the outermost node of the QUAD_PROBE_NODES
        rule, each with its weight in that tensor rule), then the 15-node rule."""
        d = self.dim
        parts = [_tensor_rule(_ladder_nodes(level), d)]
        if level == 0:
            pu, pw = _hermite_nodes(QUAD_PROBE_NODES)
            probe_w = np.full(2 * d, pw[-1] * pw[QUAD_PROBE_NODES // 2] ** (d - 1))
            parts += [(pu[-1] * np.vstack([np.eye(d), -np.eye(d)]), probe_w), _tensor_rule(_ladder_nodes(1), d)]
        U, W = (np.concatenate(a) for a in zip(*parts))
        P = np.expm1(self.mean[None, :] + np.sqrt(2.0) * U @ self._factor.T)
        nodes = _NodeSet(P, W / np.pi ** (d / 2))
        for a in nodes:
            a.setflags(write=False)
        return nodes

    def _integrate(self, g, quad):
        if self.intensity == 0.0:
            probe = np.asarray(g(np.zeros((0, self.dim))))
            return np.zeros(probe.shape[1], dtype=np.complex128), 0.0
        used, prev, err = {}, None, None
        for level in range(QUAD_MAX_DOUBLINGS + 1):
            if level == 1:
                P, W, vals = rung1
            else:
                used[level] = nodes = self._nodes.get(level) or self._build_nodes(level)
                P, W, vals = nodes.points, nodes.weights, np.asarray(g(nodes.points))
            if level == 0:
                # one walk: rung 0, then the probe, then rung 1
                n = _ladder_nodes(0) ** self.dim
                m = n + 2 * self.dim
                probe, rung1 = (P[n:m], W[n:m], vals[n:m]), (P[m:], W[m:], vals[m:])
                P, W, vals = P[:n], W[:n], vals[:n]
            _require_defined(vals, P, "integrand is undefined at quadrature node")
            # Overflowing integrands are allowed to reach the checks below,
            # which report them instead of a numpy warning.
            with np.errstate(all="ignore"):
                cur = self.intensity * (W[:, None] * vals).sum(axis=0)
                if level == 0:
                    self._check_tail(*probe, cur, quad)
                else:
                    delta = np.abs(cur - prev)
                    err = float(np.max(delta, initial=0.0))
                    if np.all(delta <= np.maximum(quad.abs_tol, quad.rel_tol * np.abs(cur))):
                        for k, s in used.items():
                            self._nodes.setdefault(k, s)
                        return cur, err
            prev = cur
        raise ConvergenceError(
            f"jump integral did not converge after doubling to {_ladder_nodes(QUAD_MAX_DOUBLINGS)} "
            f"nodes (last change {err:.3e}); the integrand may not be integrable "
            "against the jump law, or it is discontinuous inside the law's support "
            "(an indicator level or a clipped output truncation there), which the "
            "Gauss-Hermite rule cannot resolve"
        )

    def _check_tail(self, P, W, vals, first, quad):
        """Raise NonIntegrableError if the integrand at a probe point P[k],
        times its weight, is not finite or exceeds the tolerance of the first
        estimate ``first`` in some output."""
        weighted = self.intensity * W[:, None] * np.abs(vals)
        # A non-finite first estimate sets no tolerance here; the ladder
        # then reports it as non-convergence.
        tol = np.maximum(quad.abs_tol, quad.rel_tol * np.abs(first))
        bad = np.where((~np.isfinite(weighted) | (weighted > tol)).any(axis=1))[0]
        if bad.size:
            k = bad[0]
            raise NonIntegrableError(
                "jump integral did not converge: the integrand grows faster than the "
                f"jump law decays near x = {P[k].tolist()} (weighted value "
                f"{np.max(weighted[k]):.3e} there); it is not integrable against the jump law"
            )

    def _sample(self, rng, n):
        U = rng.standard_normal((n, self.dim))
        return np.expm1(self.mean[None, :] + U @ self._factor.T)

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
        vals, errs = zip(*(p._integrate(g, quad) for p in self.parts))
        return functools.reduce(np.add, vals), sum(errs)

    def _sample(self, rng, n):
        masses = np.array([p.total_mass() for p in self.parts])
        if masses.sum() <= 0:
            raise ValueError("cannot sample from a zero-mass measure")
        counts = rng.multinomial(n, masses / masses.sum())
        chunks = [p._sample(rng, c) for p, c in zip(self.parts, counts) if c > 0]
        out = np.concatenate(chunks, axis=0) if chunks else np.zeros((0, self.dim))
        # Restore a uniformly random order so draws are exchangeable.
        return out[rng.permutation(n)]

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

    def _sample(self, rng, n):
        # real draws take the map's float64 path when its literals are real
        return self._mapped_real(self.base._sample(rng, n)).real


def _norm_cdf(x: float) -> float:
    return 0.5 * math.erfc(-x / math.sqrt(2.0))


def psd_factor(S: np.ndarray) -> np.ndarray:
    """A factor L with L L^T = S for symmetric PSD S.

    Cholesky when positive definite; an eigenvalue square root otherwise, so
    singular matrices (including exact zeros) factor without jitter.
    """
    S = np.asarray(S, dtype=float)
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
    mapped measures integrate h.
    """
    if measure.dim != trunc.dim:
        raise ValueError(f"truncation dimension {trunc.dim} does not match measure {measure.dim}")
    return measure._truncation_moment(trunc)


def jump_drift_correction(measure: JumpMeasure, values_fn, jacobian, trunc, quad=None):
    """The jump part of a drift: int (xi(x) - Dxi(0) h(x)) F(dx).

    ``values_fn`` evaluates xi over a batch; ``jacobian`` is Dxi(0).  Every
    measure has finite activity, so the integral splits: int xi dF by
    ``integrate``, minus Dxi(0) times the truncation moment int h dF, which
    keeps a clipped truncation's kink out of the quadrature.  Returns
    (value, error estimate of int xi dF).
    """
    smooth, err = integrate(measure, values_fn, quad)
    return smooth - np.asarray(jacobian) @ truncation_moment(measure, trunc).astype(np.complex128), err


def integrate(measure: JumpMeasure, g: Callable, quad: Optional[QuadratureConfig] = None):
    """Integrate a C^n-valued function against a jump measure.

    ``g`` takes a batch of real points (N, d) and returns values of shape
    (N, n) or (N,); atoms are summed exactly, Gaussian push-forwards use
    tensorised Gauss-Hermite quadrature with node-count doubling for the
    error estimate, its first two rules and tail probe in one call of ``g``.

    Returns (value, error_estimate) with complex ``value`` of shape (n,).
    """

    def g2(X):
        out = np.asarray(g(X), dtype=np.complex128)
        if out.ndim == 1:
            out = out[:, None]
        return out

    return measure._integrate(g2, quad or DEFAULT_QUADRATURE)


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
        b = np.asarray(self.b, dtype=float).reshape(-1)
        c = np.atleast_2d(np.asarray(self.c, dtype=float))
        object.__setattr__(self, "dim", d)
        object.__setattr__(self, "b", b)
        object.__setattr__(self, "c", c)
        if b.shape != (d,):
            raise ValueError(f"drift must have shape ({d},), got {b.shape}")
        if not np.all(np.isfinite(b)):
            raise ValueError("drift must be finite")
        if c.shape != (d, d):
            raise ValueError(f"covariance must have shape ({d}, {d}), got {c.shape}")
        _require_psd(c, "covariance")
        if self.jumps.dim != d:
            raise ValueError(f"jump measure dimension {self.jumps.dim} does not match {d}")
        if self.truncation.dim != d:
            raise ValueError(f"truncation dimension {self.truncation.dim} does not match {d}")
        _require_admissible(self.truncation, self.jumps)


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
