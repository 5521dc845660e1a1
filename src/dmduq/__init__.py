"""dmduq: measurement-uncertainty propagation through dynamic mode decomposition.

Computes exact element-wise first and second moments of the snapshot
pseudoinverse and of the DMD operator under Gaussian measurement noise,
verifies them against a Monte Carlo oracle, and reports confidence bounds
and eigenvalue densities.
"""

__version__ = "0.1.0"

from .data_model import (
    NoiseModel,
    RawTrajectory,
    SnapshotSet,
    build_snapshots,
    decimate_trajectory,
    estimate_noise,
    load_csv,
    save_csv,
)
from .metrics import ComparisonReport, compare, decimate, min_max_normalize
from .monte_carlo import (
    McConfig,
    McSummary,
    run_mc,
    sample_operator_instances,
    sample_operator_spectra,
)
from .numerics import (
    SpdFactor,
    Spectrum,
    cholesky_logdet,
    eigenvalues,
    gauss_laguerre_nodes,
    spd_solve,
)
from .operator_moments import (
    CORRECTED,
    PAPER_LITERAL,
    DmdEstimate,
    OperatorMoments,
    dmd_point_estimate,
    estimate_operator_moments,
    operator_first_moment,
    operator_second_moment,
)
from .pinv_moments import (
    MgfContext,
    PinvMoments,
    QuadratureConfig,
    build_context,
    context_from_parts,
    deterministic_pinv_element,
    first_moment_element,
    mgf_closed_form,
    moment_integrands,
    pinv_moments,
    second_moment_element,
)
from .spectral import (
    EigenMoments,
    EigenSampleSet,
    Kde2d,
    KdeCurve,
    eigen_moments,
    eigen_samples,
    kde,
    kde2d,
)
from .systems import (
    OscillatorNetworkParams,
    SpringMassParams,
    network_energy,
    random_network_params,
    simulate_oscillator_network,
    simulate_spring_mass,
    spring_mass_energy,
)

__all__ = [
    "__version__",
    "NoiseModel",
    "RawTrajectory",
    "SnapshotSet",
    "build_snapshots",
    "decimate_trajectory",
    "estimate_noise",
    "load_csv",
    "save_csv",
    "ComparisonReport",
    "compare",
    "decimate",
    "min_max_normalize",
    "McConfig",
    "McSummary",
    "run_mc",
    "sample_operator_instances",
    "sample_operator_spectra",
    "SpdFactor",
    "Spectrum",
    "cholesky_logdet",
    "eigenvalues",
    "gauss_laguerre_nodes",
    "spd_solve",
    "CORRECTED",
    "PAPER_LITERAL",
    "DmdEstimate",
    "OperatorMoments",
    "dmd_point_estimate",
    "estimate_operator_moments",
    "operator_first_moment",
    "operator_second_moment",
    "MgfContext",
    "PinvMoments",
    "QuadratureConfig",
    "build_context",
    "context_from_parts",
    "deterministic_pinv_element",
    "first_moment_element",
    "mgf_closed_form",
    "moment_integrands",
    "pinv_moments",
    "second_moment_element",
    "EigenMoments",
    "EigenSampleSet",
    "Kde2d",
    "KdeCurve",
    "eigen_moments",
    "eigen_samples",
    "kde",
    "kde2d",
    "OscillatorNetworkParams",
    "SpringMassParams",
    "network_energy",
    "random_network_params",
    "simulate_oscillator_network",
    "simulate_spring_mass",
    "spring_mass_energy",
]
