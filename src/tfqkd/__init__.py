"""Finite-key rate analysis for twin-field QKD with discrete phase
randomization."""

from .channel import (
    ChannelParams,
    NoDetections,
    ObservedCounts,
    ProtocolParams,
    click_probabilities,
    expected_observations,
    half_channel_transmittance,
    sample_observations,
)
from .constraints import (
    GapBound,
    LinearProgram,
    SecurityBudget,
    build_lp,
    dump_lp,
    gap_bound_decoy,
    gap_bound_vacuum,
    make_budget,
    variable_upper_bound,
)
from .keyrate import (
    Diagnostics,
    KeyRateReport,
    PhaseErrorInfeasible,
    analyze,
    end_to_end_plob,
    key_length,
    phase_error_upper_bound,
)
from .numerics import (
    binary_entropy,
    chernoff_delta,
    folded_distinguishability,
    folded_fidelity,
    folded_poisson,
    plob_bound,
    poisson_pmf,
    vacuum_distinguishability,
    vacuum_fidelity,
)
from .optimize import EmptyFeasibleRegion, SearchSpace, optimize_point, sweep
from .simplex import LPSolution, load_lp, solve_max

__version__ = "0.1.0"

__all__ = [
    "ChannelParams",
    "Diagnostics",
    "EmptyFeasibleRegion",
    "GapBound",
    "KeyRateReport",
    "LPSolution",
    "LinearProgram",
    "NoDetections",
    "ObservedCounts",
    "PhaseErrorInfeasible",
    "ProtocolParams",
    "SearchSpace",
    "SecurityBudget",
    "analyze",
    "binary_entropy",
    "build_lp",
    "chernoff_delta",
    "click_probabilities",
    "dump_lp",
    "end_to_end_plob",
    "expected_observations",
    "folded_distinguishability",
    "folded_fidelity",
    "folded_poisson",
    "gap_bound_decoy",
    "gap_bound_vacuum",
    "half_channel_transmittance",
    "key_length",
    "load_lp",
    "make_budget",
    "optimize_point",
    "phase_error_upper_bound",
    "plob_bound",
    "poisson_pmf",
    "sample_observations",
    "solve_max",
    "sweep",
    "vacuum_distinguishability",
    "vacuum_fidelity",
    "variable_upper_bound",
]
