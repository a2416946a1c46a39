"""The paper's composition identity as an oracle for the drift pipeline.

The drift of psi(xi(dX)) is computed two ways: as the drift of the composed
representation psi o xi on X, and as the drift of psi on the characteristics
of Y = xi o X.  The routes share no step past the model, so they judge
``compose``'s substitution, the jets' chain rule, the pushforward's b_Y
(its 1/2 D^2 xi c term and truncation correction) and c_Y, and each
measure's ``_image``, far more tightly than Monte Carlo can.
"""

import itertools

import numpy as np
import pytest

import driftcalc as dc

X, ONE = dc.Coord(0), dc.Const(1.0)

XIS = {
    "log_return": dc.rep_log_return(),
    "exp_affine(0.7)": dc.rep_exp_affine(0.7),
    "power(0.4)": dc.rep_power(0.4),
    "x/(1+0.2x)": dc.RepFn(1, (dc.Div(X, ONE + dc.Const(0.2) * X),)),
}
PSIS = {
    "exp_affine(0.5)": dc.rep_exp_affine(0.5),
    "power(-0.6)": dc.rep_power(-0.6),
    "x^2+x": dc.RepFn(1, (dc.Mul(X, X) + X,)),
    "exp_utility(0.8)": dc.rep_exp_utility(0.8),
}
_ATOMS = dc.FiniteAtoms([[0.1], [-0.05], [0.2]], [0.5, 0.3, 0.2])
_BODY = dc.GaussianPush(0.8, np.array([-0.05]), np.array([[0.04]]))
JUMPS = {"atoms": _ATOMS, "gaussian_push": _BODY, "both": dc.SumMeasure((_ATOMS, _BODY))}
TRUNCATIONS = ("zero", "identity", "unit_clip")


def _model(jumps: str, truncation: str) -> dc.LevyTriplet:
    """One process, with diffusion, written relative to the given truncation."""
    base = dc.LevyTriplet(1, [0.05], [[0.04]], JUMPS[jumps], dc.TruncationSpec.identity(1))
    return dc.retruncate(base, dc.TruncationSpec.from_names([truncation]))


def _outcome(call):
    try:
        return call().total[0]
    except dc.EngineError as exc:
        return exc


def _cases():
    for xi, jumps, g in itertools.product(XIS, JUMPS, TRUNCATIONS):
        marks = []
        # Clipping the output at |xi| = 1 puts a kink inside a Gaussian body
        # that Gauss-Hermite cannot resolve (ROADMAP item 5).  power(0.4)'s
        # kink lies 8.9 body sd out, where the rule converges regardless.
        if g == "unit_clip" and jumps != "atoms" and xi != "power(0.4)":
            marks = [pytest.mark.xfail(raises=dc.ConvergenceError, strict=True,
                                       reason="pushforward to unit_clip on a Gaussian body (ROADMAP item 5)")]
        yield pytest.param(xi, jumps, g, id=f"{xi}-{jumps}-{g}", marks=marks)


@pytest.mark.parametrize("xi, jumps, g", _cases())
def test_composition_equals_pushforward(xi, jumps, g):
    # every psi, on the process written relative to every input truncation h
    for psi, h in itertools.product(PSIS, TRUNCATIONS):
        t = _model(jumps, h)
        composed = _outcome(lambda: dc.drift(dc.compose(PSIS[psi], XIS[xi]), t))
        pushed = _outcome(lambda: dc.drift(PSIS[psi], dc.pushforward_characteristics(
            XIS[xi], t, dc.TruncationSpec.from_names([g]))))
        if type(pushed) is dc.ConvergenceError and type(composed) is not dc.ConvergenceError:
            raise pushed  # the known defect: the pushforward alone does not converge
        if isinstance(composed, Exception) or isinstance(pushed, Exception):
            assert type(composed) is type(pushed), (psi, h, composed, pushed)
        else:
            assert abs(composed - pushed) <= 1e-14 * (1.0 + abs(pushed)), (psi, h, composed, pushed)


@pytest.mark.parametrize("h", TRUNCATIONS)
@pytest.mark.parametrize("jumps", JUMPS)
def test_stochastic_log_of_the_exponential_is_the_identity(jumps, h):
    # log(1 + (e^x - 1)) is x, so its drift is the identity's
    t = _model(jumps, h)
    round_trip = dc.compose(dc.rep_log_return(), dc.RepFn(1, (dc.Exp(X) - ONE,)))
    b = dc.drift(round_trip, t).total[0]
    assert abs(b - dc.drift(dc.rep_identity(1), t).total[0]) <= 1e-15
