"""Process models: jump measures, truncation handling, and increment laws.

Jump measures are finite-activity only, which keeps every jump integral an
absolutely convergent sum (atoms) or a Gaussian expectation (lognormal-style
push-forwards) evaluated by tensorised Gauss-Hermite quadrature.  Truncation
choices are explicit: a triplet always records the truncation its drift
vector refers to, and ``retruncate`` moves between equivalent descriptions.
"""

from __future__ import annotations

import enum
import functools
import math
from dataclasses import dataclass
from typing import Callable, Optional, Sequence

import numpy as np

from .errors import ConvergenceError, NanPointError
from .repfn import RepFn, _nonreal, _require_defined

ATOM_DEDUP_TOL = 1e-12
#: Gauss-Hermite nodes per dimension at the first level, and how often that
#: count is doubled before a jump integral is declared non-convergent
QUAD_BASE_NODES = 64
QUAD_MAX_DOUBLINGS = 2


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
    """Tolerances for jump integrals; errors are estimated by node doubling."""

    rel_tol: float = 1e-10
    abs_tol: float = 1e-12


DEFAULT_QUADRATURE = QuadratureConfig()


@functools.lru_cache(maxsize=None)
def _hermite_nodes(n: int):
    x, w = np.polynomial.hermite.hermgauss(n)
    return x, w


class JumpMeasure:
    """Base class for finite-activity jump measures on R^d.

    A jump law enters the drift formula only through the correction integral
    and the image measure, so each kind of measure decides both here.
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
        """int h(x) F(dx) componentwise, shape (d,)."""
        raise NotImplementedError

    def _drift_correction(self, values_fn, J: np.ndarray, trunc: "TruncationSpec", quad):
        """int (xi(x) - J h(x)) F(dx): the smooth xi term by quadrature, the
        truncation term in closed form."""
        smooth, err = integrate(self, values_fn, quad)
        return smooth - J @ self._truncation_moment(trunc).astype(np.complex128), err

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
    if not np.allclose(S, S.T, atol=1e-12):
        raise ValueError(f"{what} must be symmetric")
    if np.min(np.linalg.eigvalsh(S)) < -1e-12:
        raise ValueError(f"{what} must be positive semidefinite")


def _add_up(results):
    """Sum (value, error) pairs in order."""
    total, err = None, 0.0
    for val, e in results:
        total = val if total is None else total + val
        err += e
    return total, err


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
        vals = np.asarray(g(self.points.astype(np.complex128)))
        if self.points.shape[0] == 0:
            return np.zeros(vals.shape[1], dtype=np.complex128), 0.0
        _require_defined(vals, self.points, "integrand is undefined at atom")
        # Sequential accumulation in atom order so a plain loop reproduces
        # the result bit for bit.
        total = np.zeros(vals.shape[1], dtype=np.complex128)
        for k in range(self.points.shape[0]):
            total = total + self.intensities[k] * vals[k]
        return total, 0.0

    def _sample(self, rng, n):
        if self.points.shape[0] == 0:
            raise ValueError("cannot sample from an empty atom measure")
        p = self.intensities / self.intensities.sum()
        idx = rng.choice(self.points.shape[0], size=n, p=p)
        return self.points[idx]

    def _truncation_moment(self, trunc):
        H = trunc.apply(self.points)
        # Same sequential accumulation as _integrate, so drift components
        # computed through either path cancel bit for bit.
        total = np.zeros(self.dim)
        for k in range(self.points.shape[0]):
            total = total + self.intensities[k] * H[k]
        return total

    def _drift_correction(self, values_fn, J, trunc, quad):
        # Exact: the atom sum takes the combined integrand in one pass.
        return integrate(
            self, lambda X: values_fn(X) - trunc.apply(X.real).astype(np.complex128) @ J.T, quad
        )

    def _image(self, f):
        if self.points.shape[0] == 0:
            return empty_measure(f.output_dim)
        vals = f.eval_batch(self.points.astype(np.complex128))
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

    def __post_init__(self):
        lam = float(self.intensity)
        m = np.asarray(self.mean, dtype=float).reshape(-1)
        S = np.atleast_2d(np.asarray(self.cov, dtype=float))
        object.__setattr__(self, "intensity", lam)
        object.__setattr__(self, "mean", m)
        object.__setattr__(self, "cov", S)
        if lam < 0:
            raise ValueError("intensity must be nonnegative")
        if S.shape != (m.size, m.size):
            raise ValueError(f"covariance shape {S.shape} does not match mean length {m.size}")
        _require_psd(S, "covariance")

    @property
    def dim(self) -> int:
        return self.mean.size

    def total_mass(self) -> float:
        return self.intensity

    def _chol(self) -> np.ndarray:
        return psd_factor(self.cov)

    def _gh_points(self, n_nodes: int):
        d = self.dim
        u, w = _hermite_nodes(n_nodes)
        grids = np.meshgrid(*([u] * d), indexing="ij")
        U = np.stack([g.ravel() for g in grids], axis=1)
        wgrids = np.meshgrid(*([w] * d), indexing="ij")
        W = np.prod(np.stack([g.ravel() for g in wgrids], axis=1), axis=1) / np.pi ** (d / 2)
        Z = self.mean[None, :] + np.sqrt(2.0) * U @ self._chol().T
        return np.expm1(Z), W

    def _integrate(self, g, quad):
        if self.intensity == 0.0:
            probe = np.asarray(g(np.zeros((0, self.dim), dtype=np.complex128)))
            return np.zeros(probe.shape[1], dtype=np.complex128), 0.0
        prev = None
        err = None
        n_nodes = QUAD_BASE_NODES
        for _level in range(QUAD_MAX_DOUBLINGS + 1):
            P, W = self._gh_points(n_nodes)
            vals = np.asarray(g(P.astype(np.complex128)))
            _require_defined(vals, P, "integrand is undefined at quadrature node")
            # Overflowing integrands are allowed to reach the doubling check,
            # which then reports non-convergence instead of a numpy warning.
            with np.errstate(all="ignore"):
                cur = self.intensity * (W[:, None] * vals).sum(axis=0)
                if prev is not None:
                    err = float(np.max(np.abs(cur - prev)))
                    scale = float(np.max(np.abs(cur)))
                    if err <= max(quad.abs_tol, quad.rel_tol * scale):
                        return cur, err
            prev = cur
            n_nodes *= 2
        raise ConvergenceError(
            f"jump integral did not converge after doubling to {n_nodes // 2} nodes "
            f"(last change {err:.3e}); the integrand may not be integrable "
            "against the jump law, or it is discontinuous inside the law's support "
            "(an indicator level or a clipped output truncation there), which the "
            "Gauss-Hermite rule cannot resolve"
        )

    def _sample(self, rng, n):
        U = rng.standard_normal((n, self.dim))
        return np.expm1(self.mean[None, :] + U @ self._chol().T)

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
        return _add_up(p._integrate(g, quad) for p in self.parts)

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

    def _drift_correction(self, values_fn, J, trunc, quad):
        return _add_up(p._drift_correction(values_fn, J, trunc, quad) for p in self.parts)

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
        return self._mapped_real(self.base._sample(rng, n).astype(np.complex128)).real

    def _truncation_moment(self, trunc):
        # No closed form through an arbitrary map; clipped moments of a
        # mapped Gaussian body can converge slowly if the clip boundary
        # crosses the support.
        val, _ = self._integrate(
            lambda Y: trunc.apply(Y.real).astype(np.complex128), DEFAULT_QUADRATURE
        )
        return val.real


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
    quadrature (the clip kink would otherwise spoil spectral convergence).
    """
    if measure.dim != trunc.dim:
        raise ValueError(f"truncation dimension {trunc.dim} does not match measure {measure.dim}")
    return measure._truncation_moment(trunc)


def jump_drift_correction(measure: JumpMeasure, values_fn, jacobian, trunc, quad=None):
    """The jump part of a drift: int (xi(x) - Dxi(0) h(x)) F(dx).

    ``values_fn`` evaluates xi over a batch; ``jacobian`` is Dxi(0).  Each
    measure decides how (``JumpMeasure._drift_correction``): atoms sum the
    combined expression exactly, continuous bodies integrate the smooth xi
    term by quadrature and take the truncation moment in closed form.
    """
    return measure._drift_correction(values_fn, np.asarray(jacobian), trunc, quad or DEFAULT_QUADRATURE)


def integrate(measure: JumpMeasure, g: Callable, quad: Optional[QuadratureConfig] = None):
    """Integrate a C^n-valued function against a jump measure.

    ``g`` takes a batch of points (N, d) and returns values of shape (N, n)
    or (N,); atoms are summed exactly, Gaussian push-forwards use tensorised
    Gauss-Hermite quadrature with node-count doubling for the error estimate.

    Returns (value, error_estimate) with ``value`` of shape (n,).
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


@dataclass(frozen=True, eq=False)
class DiscreteModel:
    """I.i.d. finite-support law for the per-period increments of a
    discrete-time process."""

    points: np.ndarray
    probabilities: np.ndarray

    def __post_init__(self):
        pts = _as_points(self.points)
        p = np.asarray(self.probabilities, dtype=float).reshape(-1)
        object.__setattr__(self, "points", pts)
        object.__setattr__(self, "probabilities", p)
        if pts.shape[0] != p.shape[0]:
            raise ValueError("points and probabilities must have matching lengths")
        if pts.shape[0] == 0:
            raise ValueError("support must be nonempty")
        if np.any(p <= 0) or np.any(p > 1):
            raise ValueError("probabilities must lie in (0, 1]")
        if abs(p.sum() - 1.0) > 1e-12:
            raise ValueError(f"probabilities sum to {p.sum()!r}, expected 1 within 1e-12")
        dup = next((g for g in _atom_groups(pts) if len(g) > 1), None)
        if dup:
            raise ValueError(f"duplicate support points at {pts[dup[0]].tolist()}")

    @property
    def dim(self) -> int:
        return self.points.shape[1]

    @property
    def size(self) -> int:
        return self.points.shape[0]
