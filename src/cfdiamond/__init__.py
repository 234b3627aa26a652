"""Finite-alphabet rate calculator and infinite-slope certifier for relay
networks with a rate-limited cooperation facilitator."""

from typing import Any

from . import config
from .config import Tolerances, set_tolerances, temporary_tolerances
from .probcore import (
    Alphabet,
    CondKernel,
    FiniteDist,
    InfeasibleError,
    PreconditionError,
    SchemaError,
    UndefinedRowError,
    binary_entropy,
    compose,
    condition,
    conditional_entropy,
    conditional_table,
    entropies,
    entropy,
    marginalize,
    mutual_information,
    reorder,
)
from .relaynet import (
    CodingDist,
    RateReport,
    RelayNetSpec,
    build_joint,
    eval_cf_rate,
    eval_pdcf,
    markov_kernel,
    mi_terms,
    pdcf_reduction_residuals,
    rate_bounds,
)
from .slope import (
    AlphaRangeError,
    CurvatureReport,
    JointView,
    Perturbation,
    ReductionResult,
    ReductionVerdict,
    SlopeCurve,
    SlopeVerdict,
    alpha_max,
    ccf_curvature,
    check_lambda,
    default_schedule,
    deterministic_reduction,
    f_primes,
    find_direction,
    full_support_verdict,
    infinite_slope_verdict,
    perturb,
    slope_curve,
)
from .zoo import (
    BecLambdaCheck,
    CapacitySearchResult,
    ModAddParams,
    bec_best_q,
    bec_coding_dist,
    bec_lambda_infeasibility,
    bec_rate,
    make_bec_pair,
    make_modadd,
    modadd_capacity,
    modadd_coding_dist,
)
from .diamond3 import (
    CoopCurve,
    MacSpec,
    RateSplit,
    TransferReport,
    diamond_upper_bound,
    mac_sum_capacity_indep,
    rate_split_achievable,
    slope_transfer,
)

__version__ = "0.1.0"


def __getattr__(name: str) -> Any:
    # set_tolerances and temporary_tolerances change the config in effect,
    # so a copy bound here at import would go stale; resolve it on each access.
    if name == "CONFIG":
        return config.CONFIG
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
