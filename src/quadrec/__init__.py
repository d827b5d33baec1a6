"""quadrec: constants and asymptotics of a_k = (1-p) + p*a_{k-1}^2.

The orbit from a_0 = 0 converges to a fixed point r for every p in (0, 1);
this package computes everything quantitative about *how*: geometric rate
constants C(p) away from the critical point p = 1/2 (``rate_constants``),
the mechanically derived asymptotic expansion and its one free constant at
the critical point (``series_engine``, ``critical``), and the tail sums of
the equivalent boundary logistic map together with the bootstrap identity
c = 2 + gamma + sum of s_m (``sums``).  ``quadrec.cli`` exposes all of it
as a deterministic command-line tool.
"""

from .critical import (
    CriticalEstimate,
    estimate_constant,
    logistic_constant,
    residual_order_check,
)
from .errors import (
    DomainError,
    EngineError,
    ExactCapError,
    PrecisionError,
    QuadrecError,
    RefusalError,
)
from .numerics import CPoly, PrecReal, euler_gamma
from .rate_constants import (
    RateConstantResult,
    convergence_diagnostic,
    rate_constant,
    rate_constant_table,
)
from .recurrence import (
    OrbitSample,
    Params,
    Regime,
    classify,
    final_value,
    iterate_exact,
    iterate_real,
    logistic_iterate,
)
from .series_engine import (
    AsymSeries,
    CoefficientTable,
    apply_map,
    eval_series_coeffs,
    fixed_point_defect,
    shift,
    solve_coefficients,
)
from .sums import (
    BootstrapReport,
    S2Witness,
    SumResult,
    bootstrap_check,
    harmonic_divergence_diagnostic,
    power_sum,
    regularized_s1,
    s2_identity_check,
    sum_of_power_sums,
)

__version__ = "0.1.0"

__all__ = [
    "AsymSeries",
    "BootstrapReport",
    "CPoly",
    "CoefficientTable",
    "CriticalEstimate",
    "DomainError",
    "EngineError",
    "ExactCapError",
    "OrbitSample",
    "Params",
    "PrecReal",
    "PrecisionError",
    "QuadrecError",
    "RateConstantResult",
    "RefusalError",
    "Regime",
    "S2Witness",
    "SumResult",
    "apply_map",
    "bootstrap_check",
    "classify",
    "convergence_diagnostic",
    "estimate_constant",
    "euler_gamma",
    "eval_series_coeffs",
    "final_value",
    "fixed_point_defect",
    "harmonic_divergence_diagnostic",
    "iterate_exact",
    "iterate_real",
    "logistic_constant",
    "logistic_iterate",
    "power_sum",
    "rate_constant",
    "rate_constant_table",
    "regularized_s1",
    "residual_order_check",
    "s2_identity_check",
    "shift",
    "solve_coefficients",
    "sum_of_power_sums",
]
