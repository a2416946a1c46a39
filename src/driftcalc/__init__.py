"""driftcalc: a drift engine for semimartingale increment representations.

Transformations of processes are recorded as deterministic functions acting
on increments; the engine converts these representations into drifts,
terminal expectations, measure-changed drifts, and option prices, and every
analytic number can be cross-checked against exact Monte Carlo simulation.
"""

from .calculus import (
    CATALOG_NAMES,
    StdRep,
    atom_mass_in_boxes,
    build_catalog_fn,
    girsanov_adjust,
    pushforward_characteristics,
    rep_coord,
    rep_exp_affine,
    rep_exp_utility,
    rep_identity,
    rep_log_return,
    rep_margrabe,
    rep_memm_integrand,
    rep_power,
    rep_ratio,
    rep_zero,
)
from .drift import (
    DriftReport,
    discrete_compensator,
    discrete_q_stoch_exp,
    discrete_stoch_exp,
    drift,
    drift_q,
    expectation_pii,
    expectation_stoch_exp,
)
from .errors import ConvergenceError, EngineError, NanPointError, NonIntegrableError
from .mcoracle import (
    McEstimate,
    SimConfig,
    mc_margrabe,
    mc_reweighted,
    mc_stoch_exp,
    mc_sum,
    sample_increment,
    sample_increment_batch,
)
from .models import (
    DiscreteModel,
    FiniteAtoms,
    GaussianPush,
    JumpMeasure,
    LevyTriplet,
    MappedMeasure,
    QuadratureConfig,
    SumMeasure,
    TruncationKind,
    TruncationSpec,
    empty_measure,
    integrate,
    retruncate,
    sum_measure,
    truncation_moment,
)
from .pricing import (
    MargrabeModel,
    cumulant,
    default_intensities,
    margrabe_kappa,
    margrabe_price,
    memm_cumulant,
    optimize_discrete_exp_utility,
    optimize_exp_utility,
    utility_drift,
)
from .repfn import (
    Add,
    Const,
    Coord,
    Div,
    Exp,
    Indicator,
    Jet2,
    Log,
    Mul,
    Neg,
    Node,
    Param,
    PowConst,
    RepFn,
    Sub,
    compose,
    finite_difference_jet,
    format_complex,
    from_prefix,
    parse_complex,
    to_prefix,
)

__version__ = "0.1.0"
