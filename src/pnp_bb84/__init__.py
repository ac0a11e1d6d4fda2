"""Secure key rates for plug-and-play BB84 with an unknown, untrusted source."""

from .channel import channel_transmittance, gain_and_qber, vacuum_observables
from .numerics import (binary_entropy, erf, erfc, log_binomial_coeff,
                       statistical_deviation)
from .optimize import (InfeasibleProblemError, OptimizationProblem,
                       OptimizationResult, grid_oracle, maximize,
                       point_from_raw, raw_from_point)
from .params import BoundConventions, PhysicalParams, Scenario
from .rates import (BoundUnavailableError, EmptyRawKeyError, ErrorBudget,
                    FluctuationTooLargeError, NoUntaggedPulsesError,
                    ProtocolPoint, RateBreakdown, RateEvaluationError,
                    WindowViolationError, e1u_upper_decoy, evaluate_rate,
                    evaluate_rate_finite_limit, finite_correction_delta,
                    q1u_lower_decoy, q1u_lower_no_decoy, untagged_bounds)
from .scans import (find_lmax, find_na_threshold, scan_distance,
                    solve_lmax_profile)
from .source import (SourceConfig, WindowConditionError,
                     mean_output_intensity, photon_bound_lower,
                     photon_bound_upper, untagged_probability_finite,
                     untagged_probability_infinite)

__version__ = "0.1.0"

__all__ = [
    "BoundConventions", "BoundUnavailableError", "EmptyRawKeyError",
    "ErrorBudget", "FluctuationTooLargeError", "InfeasibleProblemError",
    "NoUntaggedPulsesError", "OptimizationProblem", "OptimizationResult",
    "PhysicalParams", "ProtocolPoint", "RateBreakdown",
    "RateEvaluationError", "Scenario", "SourceConfig",
    "WindowConditionError", "WindowViolationError", "binary_entropy",
    "channel_transmittance", "e1u_upper_decoy", "erf", "erfc",
    "evaluate_rate", "evaluate_rate_finite_limit", "find_lmax",
    "find_na_threshold", "finite_correction_delta", "gain_and_qber",
    "grid_oracle", "log_binomial_coeff", "maximize",
    "mean_output_intensity", "photon_bound_lower", "photon_bound_upper",
    "point_from_raw", "q1u_lower_decoy", "q1u_lower_no_decoy",
    "raw_from_point", "scan_distance", "solve_lmax_profile",
    "statistical_deviation", "untagged_bounds",
    "untagged_probability_finite", "untagged_probability_infinite",
    "vacuum_observables",
]
