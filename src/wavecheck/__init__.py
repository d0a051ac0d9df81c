"""Desk-scale verification of the centered scheme for the 1D acoustic wave equation.

The package pairs a reference-faithful binary64 solver with an exact
rational shadow, measures method and round-off errors against analytic
oracles, and checks the combinatorial identities of the scheme's discrete
fundamental solution with zero tolerance.
"""

from .analysis import (
    ErrorConstants,
    OrderFit,
    convergence_error,
    derive_constants,
    estimate_order,
    max_norm_over_time,
    optimal_dt,
    problem_for,
    refinement_chain,
    total_error_bound,
    truncation_error,
)
from .energy import (
    EnergySeries,
    check_energy_estimate,
    energy_lower_bound_gap,
    energy_series,
    stability_constants,
)
from .errors import (
    CflViolationError,
    DomainError,
    NonFiniteError,
    NumericDomainError,
    ParameterError,
    ShapeError,
    UnsupportedFeatureError,
)
from .fundamental import (
    FundamentalTable,
    build_table,
    check_binomial_identity,
    check_certificate,
    check_zeilberger_recurrences,
    lambda_closed_form,
    lambda_via_jacobi,
    row_sum,
)
from .grid import (
    Grid,
    apply_Ah,
    build_grid,
    dot_dx,
    norm_dx,
)
from .problem import (
    AnalyticSolution,
    Polynomial,
    StandingWave,
    WaveProblem,
    antisym_index,
    antisym_value,
    dalembert_zero_velocity,
    default_problem,
    standing_wave,
)
from .report import ClaimConfig, ClaimsReport, run_claims
from .roundoff import (
    ShadowRun,
    check_global_bound,
    local_errors,
    reconstruct_global_error,
    shadow_solve,
)
from .scalars import BINARY64, EXACT
from .scheme import SchemeRun, check_cfl, courant_number, solve

__version__ = "0.1.0"
