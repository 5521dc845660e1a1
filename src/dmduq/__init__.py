"""dmduq: measurement-uncertainty propagation through dynamic mode decomposition.

Computes exact element-wise first and second moments of the snapshot
pseudoinverse and of the DMD operator under Gaussian measurement noise,
verifies them against a Monte Carlo oracle, and reports confidence bounds
and eigenvalue densities.  The package root re-exports the library workflow;
everything else is imported from its submodule.
"""

__version__ = "0.1.0"

from .data_model import (
    NoiseModel,
    SnapshotSet,
    build_snapshots,
    decimate_trajectory,
    estimate_noise,
    load_csv,
)
from .metrics import compare
from .monte_carlo import McConfig, run_mc
from .operator_moments import dmd_point_estimate, estimate_operator_moments
from .pinv_moments import (
    build_context,
    first_moment_element,
    pinv_moments,
    second_moment_element,
)
from .systems import (
    SpringMassParams,
    random_network_params,
    simulate_oscillator_network,
    simulate_spring_mass,
)

__all__ = [
    "__version__",
    "NoiseModel",
    "SnapshotSet",
    "build_snapshots",
    "decimate_trajectory",
    "estimate_noise",
    "load_csv",
    "compare",
    "McConfig",
    "run_mc",
    "dmd_point_estimate",
    "estimate_operator_moments",
    "build_context",
    "first_moment_element",
    "pinv_moments",
    "second_moment_element",
    "SpringMassParams",
    "random_network_params",
    "simulate_oscillator_network",
    "simulate_spring_mass",
]
