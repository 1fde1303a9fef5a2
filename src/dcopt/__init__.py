"""Difference-of-convex optimization for sparse least squares.

Solvers (pDCA with FISTA-style extrapolation and restarts, plain pDCA, GIST),
five DC regularizers, a seeded instance generator, invariant diagnostics, and
a benchmark driver with a CLI. The names below are the ones used from outside
the package; everything else is imported from its own module.
"""

from .bench import nontiming_fingerprint, parse_plan, replicate_seed, run_benchmark
from .instances import (
    ProblemInstance,
    generate_instance,
    l12_lambda_bound,
    load_instance,
    save_instance,
)
from .linalg import RandomSource, lmax_gram
from .regularizers import MCP, SCAD, L1MinusL2, LogPenalty, TransformedL1, parse_reg
from .solvers import SolverConfig, check_descent, objective, solve, stationarity_residual

__all__ = [
    "L1MinusL2",
    "LogPenalty",
    "MCP",
    "ProblemInstance",
    "RandomSource",
    "SCAD",
    "SolverConfig",
    "TransformedL1",
    "check_descent",
    "generate_instance",
    "l12_lambda_bound",
    "lmax_gram",
    "load_instance",
    "nontiming_fingerprint",
    "objective",
    "parse_plan",
    "parse_reg",
    "replicate_seed",
    "run_benchmark",
    "save_instance",
    "solve",
    "stationarity_residual",
]
