"""netecon: a numerical laboratory for an interconnected-firm economy.

Firms wired by a row-stochastic input-output matrix produce with Cobb-Douglas
technology, forecast prices by extrapolating recent trends, and adjust
production only part-way toward the optimum each period.  The package solves
the static equilibrium, simulates the full nonlinear dynamics under market
clearing, analyzes linear stability (the spectrum of the linearized step,
critical lines in the (q, gamma) plane), provides the reduced
reference models, and ships analytics plus a CLI for reproducible experiments.
"""

from .network import (
    IONetwork,
    build_plain_network,
    build_random_exponential_network,
    load_network,
)
from .equilibrium import (
    EquilibriumState,
    ModelParams,
    equilibrium_residual,
    influence_vector_lp,
    solve_equilibrium,
)
from .simulator import (
    ClearingContext,
    ClearingError,
    EconomyState,
    Ensemble,
    NoiseProcess,
    Simulator,
    Trajectory,
    clearing_residual,
    trajectory_to_csv,
)
from .stability import (
    CriticalLine,
    CriticalPoint,
    LinearizedSystem,
    StabilityReport,
    analyze_stability,
    build_linearized,
    critical_gamma,
    linear_state_map,
    trace_critical_line,
)

__version__ = "0.1.0"
