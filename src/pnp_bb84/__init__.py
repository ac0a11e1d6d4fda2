"""Secure key rates for plug-and-play BB84 with an unknown, untrusted source."""

from .optimize import (InfeasibleProblemError, OptimizationProblem,
                       OptimizationResult, grid_oracle, maximize,
                       point_from_raw, raw_from_point)
from .params import BoundConventions, PhysicalParams, Scenario
from .rates import (DecoyOrderingError, EmptyRawKeyError, ErrorBudget,
                    FluctuationTooLargeError, NoUntaggedPulsesError,
                    ProtocolPoint, RateBreakdown, RateEvaluationError,
                    WindowViolationError, evaluate_rate,
                    evaluate_rate_finite_limit)
from .scans import (find_lmax, find_na_threshold, scan_distance,
                    solve_lmax_profile)

__version__ = "0.1.0"

__all__ = [
    "BoundConventions",
    "DecoyOrderingError",
    "EmptyRawKeyError",
    "ErrorBudget",
    "FluctuationTooLargeError",
    "InfeasibleProblemError",
    "NoUntaggedPulsesError",
    "OptimizationProblem",
    "OptimizationResult",
    "PhysicalParams",
    "ProtocolPoint",
    "RateBreakdown",
    "RateEvaluationError",
    "Scenario",
    "WindowViolationError",
    "evaluate_rate",
    "evaluate_rate_finite_limit",
    "find_lmax",
    "find_na_threshold",
    "grid_oracle",
    "maximize",
    "point_from_raw",
    "raw_from_point",
    "scan_distance",
    "solve_lmax_profile",
]
