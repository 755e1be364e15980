"""Finite-key rate analysis for twin-field QKD with discrete phase
randomization."""

from .channel import (
    ChannelParams,
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
    make_budget,
)
from .keyrate import (
    Diagnostics,
    KeyRateReport,
    analyze,
    end_to_end_plob,
    key_length,
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
    "ObservedCounts",
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
    "half_channel_transmittance",
    "key_length",
    "load_lp",
    "make_budget",
    "optimize_point",
    "plob_bound",
    "poisson_pmf",
    "sample_observations",
    "solve_max",
    "sweep",
    "vacuum_distinguishability",
]
