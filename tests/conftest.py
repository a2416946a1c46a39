import functools
import importlib.util
import math
from pathlib import Path

import numpy as np
import pytest
from hypothesis import settings
from hypothesis import strategies as st
from scipy.stats import norm

import driftcalc as dc
from driftcalc.modelio import serialize_model
from driftcalc.repfn import _OPS, PRED_OPS

# Every run draws the same examples and replays nothing from a local
# example database, so a property fails or passes the same way in every
# checkout; each test keeps its own max_examples.
settings.register_profile("reproducible", derandomize=True, database=None)
settings.load_profile("reproducible")

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


@functools.cache
def load_perfbench(name):
    """A module of the benchmark (``perfbench/<name>.py``), loaded read-only;
    ``reference`` prices exchange options without the package."""
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


# An exchange-option price along the contour Re v = CONTOUR_BETA, summed in
# panels of CONTOUR_NODES Gauss-Legendre nodes: the tests' oracle for the
# engine's Poisson series, written without it.
CONTOUR_BETA = -0.5
CONTOUR_U_MAX = 200.0
CONTOUR_REL_TOL = 1e-9
CONTOUR_PANEL_WIDTH = 2.0
CONTOUR_NODES = 24


def contour_width(log_ratio):
    """The panel width, capped at three periods of e^{iu log_ratio}."""
    width = CONTOUR_PANEL_WIDTH
    if log_ratio != 0.0:
        width = min(width, 3.0 * 2.0 * math.pi / abs(log_ratio))
    return width


def panel_by_panel(transform, beta, edges):
    """Sum of the 24-node Gauss-Legendre rule over the panels between
    ``edges``, added one panel at a time, each panel followed by its mirror."""
    gl_x, gl_w = np.polynomial.legendre.leggauss(CONTOUR_NODES)
    mid, half = 0.5 * (edges[:-1] + edges[1:]), 0.5 * (edges[1:] - edges[:-1])

    def panels(mid):
        nodes = beta + 1j * (mid[:, None] + half[:, None] * gl_x)
        return half * np.sum(gl_w * transform(nodes), axis=-1)

    return sum(p + m for p, m in zip(panels(mid), panels(-mid)))


def reference_price(mm):
    """The benchmark's price: a Poisson mixture over the number of body
    jumps of Margrabe formulas, computed without the package."""
    return load_perfbench("reference").margrabe_price(serialize_model(mm))


def body_exponent(v, mm):
    """Q(v) of the jump body lam e^{Q(v)} in kappa, term by term."""
    (m1, m2), ((s11, s12), (_, s22)) = mm.jump_mean, mm.jump_cov
    return (1.0 - v) * m1 + v * m2 + 0.5 * (1.0 - v) ** 2 * s11 + v * (1.0 - v) * s12 + 0.5 * v**2 * s22


def split_price(mm, rel_tol=CONTOUR_REL_TOL):
    """Reference price, summed panel by panel: default mass, the affine part
    of kappa as a Black put (scipy), and the jump-body remainder transform
    e^{v l + kappa_aff(v) T} (e^{lam T e^{Q(v)}} - 1) / (2 pi v (v - 1)) on
    the contour, cut where the tail bound of its Gaussian envelope first
    reaches min(rel_tol, 1e-16) by a scan over the multiples of the panel
    width.  With no envelope (w = 0) the remainder decays like 1/u^2 and no
    contour runs: the reference price is then ``reference_price``.  Returns
    (price, nodes, u_max_used) of this contour."""
    T, beta, lam = mm.maturity, CONTOUR_BETA, mm.jump_intensity
    log_ratio = math.log(mm.spot2 / mm.spot1)
    lam2 = dc.default_intensities(mm)[0]

    def affine(v):
        return dc.margrabe_kappa(v, mm) - lam * np.exp(body_exponent(v, mm))

    c = affine(0.0).real
    a = affine(1.0).real - c
    sig2 = mm.sigma1_sq - 2.0 * mm.sigma12 + mm.sigma2_sq
    forward, s = math.exp(log_ratio + a * T), math.sqrt(sig2 * T)
    if s > 0.0:
        d1 = math.log(forward) / s + 0.5 * s
        put = norm.cdf(s - d1) - forward * norm.cdf(-d1)
    else:
        put = max(0.0, 1.0 - forward)
    closed = 1.0 - math.exp(-lam2 * T) + math.exp(c * T) * put
    if lam == 0.0:
        return mm.spot1 * closed, 0, 0.0

    def remainder(v):
        return np.exp(v * log_ratio + affine(v) * T) * np.expm1(
            lam * T * np.exp(body_exponent(v, mm))
        ) / (2.0 * np.pi * v * (v - 1.0))

    width = contour_width(log_ratio)
    (s11, s12), (_, s22) = mm.jump_cov
    w = sig2 * T + s11 - 2.0 * s12 + s22
    if w == 0.0:
        return reference_price(mm), 0, 0.0
    # |remainder(beta + iu)| <= scale e^{-w u^2 / 2}, so the two tails past U
    # hold at most scale sqrt(2 pi / w) erfc(U sqrt(w / 2))
    z0 = lam * T * math.exp(body_exponent(beta, mm))
    scale = math.exp(beta * log_ratio + affine(beta).real * T + z0) * z0 / (
        2.0 * math.pi * beta * (beta - 1.0)
    )
    panels = 1
    while scale * math.sqrt(2.0 * math.pi / w) * math.erfc(
        panels * width * math.sqrt(0.5 * w)
    ) > min(rel_tol, 1e-16):
        panels += 1
    u_used = panels * width
    total = panel_by_panel(remainder, beta, np.linspace(0.0, u_used, panels + 1))
    return mm.spot1 * (closed + total.real), 2 * CONTOUR_NODES * panels, u_used


@pytest.fixture
def gbm_ratio_triplet():
    """Bivariate continuous model: drifts (5%, 2%), vols (20%, 10%), corr 0.3."""
    c = np.array([[0.04, 0.006], [0.006, 0.01]])
    return dc.LevyTriplet(
        2, np.array([0.05, 0.02]), c, dc.empty_measure(2), dc.TruncationSpec.unit_clip(2)
    )


@pytest.fixture
def merton_1d():
    """One-dimensional jump-diffusion with a lognormal-style jump body."""
    return dc.LevyTriplet(
        1,
        np.array([0.05]),
        np.array([[0.04]]),
        dc.GaussianPush(0.8, np.array([-0.05]), np.array([[0.04]])),
        dc.TruncationSpec.unit_clip(1),
    )


@pytest.fixture
def atoms_1d():
    """Pure-jump model with two atoms, drift relative to the identity truncation."""
    return dc.LevyTriplet(
        1,
        np.array([0.03]),
        np.zeros((1, 1)),
        dc.FiniteAtoms([[0.08], [-0.06]], [1.2, 1.0]),
        dc.TruncationSpec.identity(1),
    )


@pytest.fixture
def trinomial():
    """Log-price moves to 1.1x, 1x, or 0.9x with probabilities 0.3/0.4/0.3."""
    return dc.DiscreteModel(
        [[np.log(1.1)], [0.0], [np.log(0.9)]], [0.3, 0.4, 0.3]
    )


@pytest.fixture
def margrabe_jump_model():
    """Bivariate jump-diffusion with defaults used across pricing tests."""
    return dc.MargrabeModel(
        spot1=100.0,
        spot2=100.0,
        maturity=1.0,
        sigma1_sq=0.04,
        sigma12=0.006,
        sigma2_sq=0.01,
        jump_intensity=0.4,
        jump_mean=(-0.1, -0.05),
        jump_cov=((0.0625, 0.02), (0.02, 0.0625)),
        default_atoms=(((0.0, -1.0), 0.02),),
    )


def combined_atom_sum(points, intensities, values_fn, jacobian, trunc):
    """The jump part of a drift on atoms, sum_k lam_k (xi(x_k) - Dxi(0) h(x_k)),
    summed in atom order with the truncation term inside each summand: the
    oracle of ``models.jump_drift_correction``, which splits that term out.

    Returns the sum and its scale, sum_k lam_k (|xi(x_k)| + |Dxi(0) h(x_k)|),
    one value per output.
    """
    vals = np.asarray(values_fn(points), dtype=complex).reshape(len(points), -1)
    truncated = trunc.apply(points) @ np.asarray(jacobian).T
    total = np.zeros(vals.shape[1], dtype=complex)
    scale = np.zeros(vals.shape[1])
    for lam, val, h in zip(intensities, vals, truncated):
        total = total + lam * (val - h)
        scale = scale + lam * (np.abs(val) + np.abs(h))
    return total, scale


def concatenated_estimate(cfg, block_fn) -> dc.McEstimate:
    """A Monte Carlo estimate as the oracle first computed it: every block's
    values run in order and concatenated, then reduced with a fresh
    temporary for each step.  The oracle of ``mcoracle._collect`` and
    ``mcoracle._estimate``, which write into one array and square in place."""
    from driftcalc.mcoracle import BLOCK_SIZE, _block_rng

    full, rem = divmod(cfg.n_paths, BLOCK_SIZE)
    sizes = [BLOCK_SIZE] * full + ([rem] if rem else [])
    values = np.concatenate([np.asarray(block_fn(_block_rng(cfg.seed, b), n)) for b, n in enumerate(sizes)])
    finite = np.isfinite(values)
    n_bad = int((~finite).sum())
    good = values[finite]
    n = good.size
    mean = good.mean()
    dev = good - mean
    dev2 = dev.real**2 + dev.imag**2 if np.iscomplexobj(dev) else dev * dev
    var = float(dev2.sum() / (n - 1)) if n > 1 else 0.0
    se = math.sqrt(var / n) if n else float("inf")
    m2 = float(dev2.mean())
    kurt = float((dev2**2).mean() / m2**2) if m2 > 0 else float("nan")
    return dc.McEstimate(mean=complex(mean), std_error=se, n_effective=n, n_nonfinite=n_bad, kurtosis=kurt)


def random_composed_tree(rng: np.random.Generator) -> dc.RepFn:
    """A random, well-conditioned composition of catalog-style scalar trees.

    Constants are kept moderate so finite differences at step 1e-5 remain
    meaningful for both first and second derivatives.  Every node type is
    drawn; indicator levels stay at least 0.3 away from the value 1 their
    child takes at the origin, so no stencil point crosses a discontinuity.
    """
    d = int(rng.integers(1, 4))
    k = int(rng.integers(1, 3))
    inner_roots = []
    one = dc.Const(1.0)
    for _ in range(k):
        coord = dc.Coord(int(rng.integers(0, d)))
        a = float(rng.uniform(-1.2, 1.2))
        choice = int(rng.integers(0, 7))
        if choice == 0:
            node = dc.Exp(dc.Const(a) * coord) - one
        elif choice == 1:
            node = dc.Log(one + dc.Const(0.5 + 0.4 * abs(a)) * coord)
        elif choice == 2:
            node = dc.PowConst(1.0 + a, one + coord) - one
        elif choice == 3:
            node = dc.Div(coord, one + dc.Const(0.3 * a) * coord)
        elif choice == 4:
            node = dc.Mul(coord, coord) + dc.Const(a) * coord
        elif choice == 5:
            node = dc.Neg(dc.Exp(dc.Const(a) * coord) - one)
        else:
            op = ("eq", "ne", "abs_le", "abs_gt")[int(rng.integers(0, 4))]
            level = 1.0 + float(rng.choice([-1.0, 1.0])) * float(rng.uniform(0.3, 0.9))
            node = dc.Mul(dc.Exp(dc.Const(a) * coord) - one, dc.Indicator(op, level, one + coord))
        inner_roots.append(node)
    inner = dc.RepFn(d, tuple(inner_roots))

    v = float(rng.uniform(-1.5, 1.5))
    choice = int(rng.integers(0, 4))
    if k == 2 and choice == 0:
        outer = dc.rep_ratio()
    elif choice == 1:
        if k == 1:
            outer = dc.rep_exp_affine(v)
        else:
            expr = dc.Exp(dc.Const(v) * (dc.Coord(0) + dc.Coord(1))) - dc.Const(1.0)
            outer = dc.RepFn(k, (expr,))
    elif choice == 2:
        root = dc.Coord(0)
        for j in range(1, k):
            root = dc.Mul(dc.Const(1.0) + root, dc.Const(1.0) + dc.Coord(j)) - dc.Const(1.0)
        outer = dc.RepFn(k, (root,))
    else:
        if k == 1:
            outer = dc.rep_exp_utility(abs(v))
        else:
            outer = dc.RepFn(k, (dc.Coord(0) + dc.Mul(dc.Coord(0), dc.Coord(k - 1)),))
    return dc.compose(outer, inner)


#: constants for raw trees: zero, units, the float extremes and complex values
RAW_CONSTANTS = st.one_of(
    st.sampled_from([0.0, 1.0, -1.0, 1e308, -1e308, 1e200, np.inf, -np.inf, 1j, complex(np.inf, 1.0)]),
    st.complex_numbers(max_magnitude=3.0, allow_nan=False, allow_infinity=False),
)


def origin_value(node: dc.Node, dim: int):
    """The node's value at the origin of R^dim by a recursion over the ``ev``
    rows of the op table, or None if a coordinate index is out of range."""
    X = np.zeros((1, dim), dtype=np.complex128)

    def ev(node):
        op = _OPS[type(node)]
        kids = [ev(getattr(node, field)) for field in op.children]
        if any(k is None for k in kids) or (type(node) is dc.Coord and node.index >= dim):
            return None
        return op.ev(node, X, *kids)

    with np.errstate(all="ignore"):
        out = ev(node)
    return None if out is None else out[0]


def on_level(node: dc.Indicator, z) -> bool:
    """True if the child value z sits on the indicator's discontinuity."""
    # |z| as Indicator.test takes it, on an array: abs() of a numpy complex
    # scalar can differ from it in the last bit.
    return (z if node.op in ("eq", "ne") else np.abs([z])[0]) == node.threshold


def _indicator(op, level, at_origin, child, dim):
    # Half the time the level is moved onto the child's origin value, where
    # that value can be a level at all.
    z = origin_value(child, dim) if at_origin else None
    if z is not None and np.isfinite(z.real) and np.isfinite(z.imag):
        if op in ("eq", "ne") and z.imag == 0.0 and z.real != 0.0:
            level = float(z.real)
        elif op in ("abs_le", "abs_gt") and 0.0 < np.abs([z])[0] < np.inf:
            level = float(np.abs([z])[0])
    return dc.Indicator(op, level, child)


@functools.lru_cache(maxsize=None)
def raw_trees(dim: int):
    """Unvalidated scalar node trees over every node type, on R^dim: extreme
    and complex constants, coordinates one past the range, and indicator
    levels on their child's origin value."""
    leaves = st.one_of(st.integers(0, dim).map(dc.Coord), RAW_CONSTANTS.map(dc.Const))

    binary = st.sampled_from([dc.Add, dc.Sub, dc.Mul, dc.Div])
    unary = st.sampled_from([dc.Neg, dc.Exp, dc.Log])

    def extend(kids):
        return st.one_of(
            st.builds(lambda cls, a, b: cls(a, b), binary, kids, kids),
            st.builds(lambda cls, a: cls(a), unary, kids),
            st.builds(dc.PowConst, RAW_CONSTANTS, kids),
            st.builds(
                _indicator, st.sampled_from(PRED_OPS), st.sampled_from([0.5, 1.0, 2.0]),
                st.booleans(), kids, st.just(dim),
            ),
        )

    return st.recursive(leaves, extend, max_leaves=8)


def raw_prefix(dim: int, roots) -> str:
    """Prefix text of raw roots, written as ``to_prefix`` writes a RepFn."""

    def text(node):
        op = _OPS[type(node)]
        fields = [fmt(getattr(node, field)) for field, fmt, _parse in op.literals]
        kids = [text(getattr(node, field)) for field in op.children]
        return f"({' '.join([op.token, *fields, *kids])})"

    return f"(repfn {dim} {' '.join(text(r) for r in roots)})"
