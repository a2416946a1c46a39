import numpy as np
import pytest

import driftcalc as dc


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
