"""Exact cumulants, Edgeworth expansions, and exact Monte Carlo for the
integrated Levy-driven Ornstein-Uhlenbeck model."""

from .config import ExperimentConfig
from .cumulants import (
    R_MAX,
    CumulantKind,
    CumulantTable,
    CumulantVector,
    ModelParams,
    cumulant_table,
    integrated_decay,
    kernel_weight_integral,
    normalized_cumulant,
    normalized_cumulant_limit,
    stationary_cumulants,
    wiener_nondegeneracy_det,
)
from .edgeworth import (
    ExpansionCoefficients,
    NonPositiveVarianceError,
    TestFunction,
    cdf,
    density,
    expansion_coefficients,
    expect,
    hermite,
    hermite_moment,
)
from .harness import (
    KStatistics,
    MCReport,
    MeanEstimatorResult,
    convergence_study,
    draw_normalized_samples,
    estimate_indicator,
    k_statistics,
    mean_estimator_demo,
    run_validation,
)
from .simulate import (
    DriverSpec,
    PathSample,
    driver_cumulants,
    expected_terminal,
    float_canary,
    sample_deviation,
    sample_path,
    sample_stationary_state,
    write_path_csv,
)

__version__ = "0.1.0"

# The numeric layer is plain numpy; recorded in benchmark results.
BACKEND = "numpy"
